"""Digest of the CLI's outputs over a fixed grid, to check that a change keeps them byte-identical.

Runs every command of the grid in this one process through
``specgrad.cli.main``, each in a fresh empty working directory, and prints
one ``sha256  output  exit-code`` line per output, sorted by output: each
file the command wrote, and its captured stdout and stderr as
``<run>/console``.
It imports whatever ``specgrad`` is on ``PYTHONPATH``, so the same script
digests two checkouts, and ``diff`` compares the two digests:

    PYTHONPATH=src python scripts/output_digest.py > new.txt
    PYTHONPATH=../parent/src python scripts/output_digest.py > old.txt
    diff old.txt new.txt

The grid: ``train-toy`` at seeds 0-9 x both tasks x five backward schemes x
``--n`` 32 and 4 (200 runs), ``gradcheck`` under all seven ``--scheme``
values, and ``approx-table`` and ``bounds`` at both precisions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import sys
import tempfile
from pathlib import Path

from specgrad import cli

TRAIN_BACKWARDS = ("pade", "taylor", "trunc", "ordinary", "topn")
GRADCHECK_SCHEMES = ("ordinary", "topn", "trunc", "taylor", "pade", "newton", "isqrt")


def grid():
    """Every run of the digest as (label, argv)."""
    for seed, task, backward, n in itertools.product(
        range(10), ("balanced", "fine-grained"), TRAIN_BACKWARDS, (32, 4)
    ):
        argv = ["train-toy", "--seed", str(seed), "--task", task, "--backward", backward]
        yield f"train-toy/seed={seed}/{task}/{backward}/n={n}", argv + ["--n", str(n)]
    for scheme in GRADCHECK_SCHEMES:
        yield f"gradcheck/{scheme}", ["gradcheck", "--scheme", scheme]
    for command, precision in itertools.product(("approx-table", "bounds"), ("single", "double")):
        yield f"{command}/{precision}", [command, "--precision", precision]


def digest_run(label: str, argv: list) -> list[tuple]:
    """(output, sha256, exit code) of each output of one run."""
    console = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console):
                code = cli.main(argv)
        finally:
            os.chdir(cwd)
        outputs = {
            f"{label}/{path.relative_to(tmp)}": path.read_bytes()
            for path in Path(tmp).rglob("*")
            if path.is_file()
        }
    outputs[f"{label}/console"] = console.getvalue().encode()
    return [(name, hashlib.sha256(data).hexdigest(), code) for name, data in outputs.items()]


def main() -> int:
    os.environ.pop("SPECGRAD_SEED", None)  # gradcheck's default seed reads it
    rows = sorted(row for label, argv in grid() for row in digest_run(label, argv))
    for name, sha, code in rows:
        print(f"{sha}  {name}  {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
