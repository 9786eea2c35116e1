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
values x the three ``--loss`` kinds (``sum``, the default, ``trace`` and
``random-linear``; 21 runs), ``gradcheck --d 4 --n 20`` under ``--scheme
ordinary`` and ``isqrt``, ``approx-table`` at both precisions, at its
defaults and at ``--kind taylor --degrees 3,7 --ratios 0,0.5,0.9``,
``bounds`` at both precisions in both formats, and ``condition`` at both
precisions in both formats on three inputs: its defaults, ``--n 4``
(rank-deficient covariances) and ``--input`` of a feature file written
from a fixed seed, one of whose blocks has a singular covariance. The input file is not an output.
Then eleven runs that the CLI refuses, so that each refusal's message and
exit code are digested too: ``gradcheck --d 1``, ``--n 8``, ``--cond 0.5``
and ``--scheme pade --topn 3``; ``train-toy --lr-schedule 1:0.1``,
``--switch-frac 0.9`` and ``--steps 0``; ``bounds --degree 0``;
``approx-table --ratios 1.0``; ``condition --d 4 --n 1``, and
``condition --input`` of a file that does not exist. Each exits 64 but the
last, which exits 74.
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

import numpy as np

from specgrad import cli
from specgrad import io as feature_io

TRAIN_BACKWARDS = ("pade", "taylor", "trunc", "ordinary", "topn")
GRADCHECK_SCHEMES = ("ordinary", "topn", "trunc", "taylor", "pade", "newton", "isqrt")
GRADCHECK_LOSSES = ("trace", "random-linear")
GRADCHECK_SMALL = ("ordinary", "isqrt")
APPROX_GRIDS = {
    "defaults": [],
    "taylor-3,7": ["--kind", "taylor", "--degrees", "3,7", "--ratios", "0,0.5,0.9"],
}
PRECISIONS = ("single", "double")
FORMATS = ("csv", "json")
FEATURE_FILE = "features.gcpf"
CONDITION_INPUTS = {"default": [], "n=4": ["--n", "4"], "input": ["--input", FEATURE_FILE]}
REFUSALS = (
    ["gradcheck", "--d", "1"],
    ["gradcheck", "--n", "8"],
    ["gradcheck", "--cond", "0.5"],
    ["gradcheck", "--scheme", "pade", "--topn", "3"],
    ["train-toy", "--lr-schedule", "1:0.1"],
    ["train-toy", "--switch-frac", "0.9"],
    ["train-toy", "--steps", "0"],
    ["bounds", "--degree", "0"],
    ["approx-table", "--ratios", "1.0"],
    ["condition", "--d", "4", "--n", "1"],
    ["condition", "--input", "missing.gcpf"],
)


def write_features(path) -> None:
    """Four 8 x 32 Gaussian blocks from seed 0; the second repeats a channel, so P is singular."""
    blocks = np.random.default_rng(0).standard_normal((4, 8, 32))
    blocks[1, 0] = blocks[1, 1]
    feature_io.write_feature_file(path, list(blocks))


def grid():
    """Every run of the digest as (label, argv)."""
    for seed, task, backward, n in itertools.product(
        range(10), ("balanced", "fine-grained"), TRAIN_BACKWARDS, (32, 4)
    ):
        argv = ["train-toy", "--seed", str(seed), "--task", task, "--backward", backward]
        yield f"train-toy/seed={seed}/{task}/{backward}/n={n}", argv + ["--n", str(n)]
    for scheme in GRADCHECK_SCHEMES:
        yield f"gradcheck/{scheme}", ["gradcheck", "--scheme", scheme]
        for loss in GRADCHECK_LOSSES:
            yield f"gradcheck/{scheme}/{loss}", ["gradcheck", "--scheme", scheme, "--loss", loss]
    for scheme in GRADCHECK_SMALL:
        argv = ["gradcheck", "--scheme", scheme, "--d", "4", "--n", "20"]
        yield f"gradcheck/{scheme}/d=4/n=20", argv
    for (name, flags), precision in itertools.product(APPROX_GRIDS.items(), PRECISIONS):
        label = f"approx-table/{precision}" + ("" if name == "defaults" else f"/{name}")
        yield label, ["approx-table", "--precision", precision, *flags]
    for fmt, precision in itertools.product(FORMATS, PRECISIONS):
        yield f"bounds/{fmt}/{precision}", ["bounds", "--format", fmt, "--precision", precision]
    for (name, flags), fmt, precision in itertools.product(
        CONDITION_INPUTS.items(), FORMATS, PRECISIONS
    ):
        argv = ["condition", "--format", fmt, "--precision", precision, *flags]
        yield f"condition/{name}/{fmt}/{precision}", argv
    for argv in REFUSALS:
        yield "refused/" + "/".join(argv), argv


def digest_run(label: str, argv: list) -> list[tuple]:
    """(output, sha256, exit code) of each output of one run."""
    console = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            if FEATURE_FILE in argv:  # relative, so the recorded --input is the same everywhere
                write_features(FEATURE_FILE)
            with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console):
                code = cli.main(argv)
        finally:
            os.chdir(cwd)
        outputs = {
            f"{label}/{path.relative_to(tmp)}": path.read_bytes()
            for path in Path(tmp).rglob("*")
            if path.is_file() and path.name != FEATURE_FILE
        }
    outputs[f"{label}/console"] = console.getvalue().encode()
    return [(name, hashlib.sha256(data).hexdigest(), code) for name, data in outputs.items()]


def main() -> int:
    os.environ.pop("SPECGRAD_SEED", None)  # the default --seed reads it
    rows = sorted(row for label, argv in grid() for row in digest_run(label, argv))
    for name, sha, code in rows:
        print(f"{sha}  {name}  {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
