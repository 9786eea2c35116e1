"""Every ``python`` block of ``README.md`` runs, so the quick tour cannot drift from the API."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
#: (first line in README, source) of each ``python`` block
BLOCKS = [
    (TEXT.count("\n", 0, m.start(1)) + 1, m.group(1))
    for m in re.finditer(r"^```python\n(.*?)^```$", TEXT, flags=re.M | re.S)
]


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("line,source", BLOCKS, ids=[f"line{line}" for line, _ in BLOCKS])
def test_block_runs_in_a_fresh_namespace(line, source):
    # padded so that a traceback names the README's own line
    exec(compile("\n" * (line - 1) + source, str(README), "exec"), {"__name__": "readme"})
