import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import specgrad
from specgrad import io
from specgrad.core import EPS_DOUBLE
from specgrad.errors import InvalidInputError
from specgrad.cli import (
    EXIT_BAD_FLAGS,
    EXIT_CHECK_FAILED,
    EXIT_DIVERGED,
    EXIT_IO,
    EXIT_NUMERICAL_FAILURE,
    EXIT_OK,
    _resolve,
    build_parser,
    main,
)

from conftest import parse_json
from oracles import read_csv


def run(*argv):
    return main(list(argv))


class TestNumberFormat:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.0, "0"),
            (36.0, "36"),
            (904.0, "904"),
            (1e10, "1e+10"),
            (2e-4, "2e-04"),
            (0.5, "0.5"),
            (float("inf"), "inf"),
            (True, "true"),
            (7, "7"),
        ],
    )
    def test_formatting(self, value, expected):
        assert io.format_number(value) == expected

    def test_json_writes_nonfinite_numbers_as_strings(self):
        obj = {"a": float("inf"), "b": [np.float32("-inf")], "c": np.array([np.nan, 1.5])}
        assert parse_json(io.to_json(obj)) == {"a": "inf", "b": ["-inf"], "c": ["nan", 1.5]}

    def test_round_trip_random_floats(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            x = float(rng.normal() * 10.0 ** rng.integers(-12, 12))
            assert float(io.format_number(x)) == x


class TestFeatureFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        blocks = [rng.normal(size=(3, 7)) for _ in range(4)]
        path = tmp_path / "feat.gcpf"
        io.write_feature_file(path, blocks)
        back = io.read_feature_file(path)
        assert len(back) == 4
        for a, b in zip(blocks, back):
            assert np.array_equal(a, b)
        assert path.read_bytes()[:4] == b"GCPF"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(Exception):
            io.read_feature_file(path)

    @pytest.mark.parametrize(
        "case,message",
        [
            ("write-none", "feature file needs at least one matrix"),
            ("write-shapes", "all feature matrices must share one shape"),
            ("read-short-header", "truncated feature file"),
            ("read-short-body", "expected 208 bytes for 2 blocks of 3x4, got 112"),
        ],
        ids=["write-none", "write-shapes", "read-short-header", "read-short-body"],
    )
    def test_malformed_file_refused(self, tmp_path, case, message):
        path = tmp_path / "feat.gcpf"
        with pytest.raises(InvalidInputError, match=message):
            if case == "write-none":
                io.write_feature_file(path, [])
            elif case == "write-shapes":
                io.write_feature_file(path, [np.ones((3, 4)), np.ones((4, 3))])
            else:
                io.write_feature_file(path, [np.ones((3, 4))] * 2)
                cut = 8 if case == "read-short-header" else 112
                path.write_bytes(path.read_bytes()[:cut])
                io.read_feature_file(path)
        assert case.startswith("read") or not path.exists()

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2)], ids=["1-d", "3-d"])
    def test_matrix_that_is_not_2d_refused(self, tmp_path, shape):
        path = tmp_path / "feat.gcpf"
        with pytest.raises(InvalidInputError) as err:
            io.write_feature_file(path, [np.ones(shape)])
        assert str(err.value) == f"feature matrix must be 2-d, got shape {shape}"
        assert not path.exists()

    def test_config_line_without_equals_refused(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("# comment\nseed 3\n")
        with pytest.raises(InvalidInputError, match="config line without '=': 'seed 3'"):
            io.read_config_file(path)


class TestApproxTable:
    def test_default_run_and_round_trip(self, tmp_path):
        out = tmp_path / "tables"
        assert run("approx-table", "--out", str(out)) == EXIT_OK
        meta, header, rows = read_csv(out / "approx_taylor.csv")
        assert header == ["ratio", "deg50", "deg100", "deg200", "deg300"]
        assert "seed" not in meta
        table = {float(r[0]): [float(v) for v in r[1:]] for r in rows}
        # published cells at degree 100
        assert table[0.99][1] == pytest.approx(36.0, rel=0.05)
        assert table[0.999][1] == pytest.approx(904.0, rel=0.05)
        meta, _, rows = read_csv(out / "approx_pade.csv")
        assert max(float(v) for r in rows for v in r[1:]) <= 1e-9
        # round trip: rewriting parsed rows reproduces the file
        reparsed = [[float(v) for v in r] for r in rows]
        io.write_csv(out / "again.csv", _hdr(out), reparsed)
        _, _, rows2 = read_csv(out / "again.csv")
        assert [[float(v) for v in r] for r in rows2] == reparsed

    def test_zero_ratio_column(self, tmp_path):
        out = tmp_path / "z"
        assert run("approx-table", "--kind", "taylor", "--ratios", "0", "--out", str(out)) == EXIT_OK
        _, _, rows = read_csv(out / "approx_taylor.csv")
        assert all(float(v) == 0.0 for v in rows[0][1:])

    def test_bad_ratio_is_flag_error(self, tmp_path):
        code = run("approx-table", "--ratios", "1.5", "--out", str(tmp_path))
        assert code == EXIT_BAD_FLAGS

    def test_unknown_flag_exits_64(self):
        assert run("approx-table", "--bogus") == EXIT_BAD_FLAGS

    def test_unwritable_path_exits_74(self):
        assert run("approx-table", "--out", "/proc/definitely/not/writable") == EXIT_IO

    def test_config_kind_selects_one_table(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("kind=taylor\ndegrees=50\nratios=0.5\n")
        out = tmp_path / "t"
        assert run("approx-table", "--config", str(conf), "--out", str(out)) == EXIT_OK
        assert [p.name for p in out.iterdir()] == ["approx_taylor.csv"]

    def test_json_format(self, tmp_path):
        out = tmp_path / "j"
        assert run("approx-table", "--kind", "pade", "--format", "json", "--out", str(out)) == EXIT_OK
        doc = parse_json((out / "approx_pade.json").read_text())
        assert doc["config"]["kind"] == "pade"
        assert len(doc["rows"]) == 7

    def test_single_precision_pade_degree_2_is_float32(self, tmp_path):
        # [1/0] has no denominator; its column is float32 arithmetic too
        args = ("--kind", "pade", "--degrees", "2", "--ratios", "0.9", "--precision", "single")
        assert run("approx-table", *args, "--out", str(tmp_path)) == EXIT_OK
        _, _, rows = read_csv(tmp_path / "approx_pade.csv")
        assert float(rows[0][1]) == 8.099998474121094


def _hdr(out):
    _, header, _ = read_csv(out / "approx_pade.csv")
    return header


@pytest.mark.parametrize(
    "argv,config",
    [
        (("approx-table", "--degrees", "x"), None),
        (("approx-table", "--ratios", "0.5,abc"), None),
        (("train-toy", "--lr-schedule", "0:x"), None),
        (("approx-table",), "degrees=1,x\n"),
    ],
    ids=["degrees-flag", "ratios-flag", "lr-schedule-flag", "degrees-config"],
)
def test_malformed_list_value_exits_64(tmp_path, argv, config):
    argv = argv + ("--out", str(tmp_path / "out"))
    if config is not None:
        path = tmp_path / "run.conf"
        path.write_text(config)
        argv = argv + ("--config", str(path))
    assert run(*argv) == EXIT_BAD_FLAGS


@pytest.mark.parametrize(
    "command,config",
    [
        ("bounds", "format=xml\n"),
        ("bounds", "precision=quad\n"),
        ("approx-table", "kind=xml\n"),
    ],
    ids=["format", "precision", "kind"],
)
def test_config_value_outside_choices_exits_64(tmp_path, capsys, command, config):
    path = tmp_path / "run.conf"
    path.write_text(config)
    out = tmp_path / "out"
    assert run(command, "--config", str(path), "--out", str(out)) == EXIT_BAD_FLAGS
    assert config.partition("=")[0] + "=" in capsys.readouterr().err
    assert not out.exists()


COMMANDS = ("approx-table", "bounds", "gradcheck", "condition", "train-toy")

#: Every flag of every command, resolved with nothing given and no config.
#: None is filled in by the command: gradcheck --n is 4*d, --out of bounds
#: and condition follows --format, --lr-schedule follows --steps, topn is auto.
DECLARED_DEFAULTS = {
    "approx-table": {
        "format": "csv", "precision": "double", "kind": "both",
        "degrees": (50, 100, 200, 300), "ratios": (0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999),
        "out": ".",
    },
    "bounds": {
        "format": "csv", "precision": "double", "degree": 100,
        "trunc_threshold": 1e10, "out": None,
    },
    "gradcheck": {
        "seed": 0, "scheme": "ordinary", "d": 8, "n": None, "cond": 10.0, "topn": None,
        "degree": 100, "trunc_threshold": 1e10, "iters": 10, "loss": "sum", "out": None,
    },
    "condition": {
        "seed": 0, "format": "csv", "precision": "double", "input": None, "d": 8,
        "n": 32, "count": 16, "out": None,
    },
    "train-toy": {
        "seed": 0, "steps": 240, "d": 8, "n": 32, "batch": 8, "samples": 240,
        "task": "balanced", "backward": "pade", "topn": None, "degree": 100,
        "trunc_threshold": 1e10, "iters": 5, "switch_frac": 0.6, "warmup_frac": 0.05,
        "lr_schedule": None, "init_cond": 1e4, "out": "train_log.jsonl",
    },
}

_LIST_VALUES = {"degrees": "5,7", "ratios": "0.5,0.9", "lr-schedule": "0:0.1,5:0.01"}


def _flags(command):
    parser = build_parser().parse_args([command]).parser
    return [a for a in parser._actions if a.dest not in ("help", "config")]


def _resolved(*argv):
    args = build_parser().parse_args(list(argv))
    _resolve(args)
    return args


def _flag_cases():
    for command in COMMANDS:
        for action in _flags(command):
            key = action.option_strings[0][2:]
            if action.choices is not None:
                value = next(c for c in action.choices if c != action.fallback)
            else:
                value = _LIST_VALUES.get(key) or {int: "3", float: "0.25"}.get(action.type, "x")
            yield pytest.param(command, key, value, id=f"{command}-{key}")


class TestResolution:
    """Each flag resolves given > config entry > declared default."""

    @pytest.fixture(autouse=True)
    def _no_seed_env(self, monkeypatch):
        monkeypatch.delenv("SPECGRAD_SEED", raising=False)

    @pytest.mark.parametrize("command,key,value", _flag_cases())
    def test_flag_and_config_entry_resolve_alike(self, tmp_path, command, key, value):
        conf = tmp_path / "run.conf"
        conf.write_text(f"{key}={value}\n")
        by_flag = _resolved(command, f"--{key}", value)
        by_config = _resolved(command, "--config", str(conf))
        dest = key.replace("-", "_")
        assert getattr(by_flag, dest) == getattr(by_config, dest)
        assert getattr(by_flag, dest) != DECLARED_DEFAULTS[command][dest]
        assert by_flag.given == {key} and by_config.given == set()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_flag_not_given_resolves_to_its_declared_default(self, command):
        args = _resolved(command)
        assert {a.dest: getattr(args, a.dest) for a in _flags(command)} == (
            DECLARED_DEFAULTS[command]
        )

    def test_flag_beats_config_entry(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("iters=7\nsteps=30\n")
        args = _resolved("train-toy", "--config", str(conf), "--iters", "6")
        assert (args.iters, args.steps) == (6, 30)

    def test_config_entry_of_an_unread_flag_is_still_converted(self, tmp_path):
        # not rejected as unread, but a malformed value is never silently kept
        conf = tmp_path / "run.conf"
        conf.write_text("degree=x\n")
        argv = ("gradcheck", "--scheme", "ordinary", "--config", str(conf))
        with pytest.raises(specgrad.InvalidInputError, match="degree='x' is malformed"):
            _resolved(*argv)

    @pytest.mark.parametrize(
        "argv", [("--help",)] + [(c, "--help") for c in COMMANDS], ids=("specgrad",) + COMMANDS
    )
    def test_help_exits_0(self, capsys, argv):
        # argparse declares -h with default=SUPPRESS, past _Parser.add_argument
        assert run(*argv) == EXIT_OK
        assert "usage: specgrad" in capsys.readouterr().out

    def test_gradcheck_n_zero_is_rejected_not_defaulted(self, capsys):
        # a falsy-or default would quietly run n = 4*d = 32
        assert run("gradcheck", "--n", "0") == EXIT_BAD_FLAGS
        assert capsys.readouterr().err.startswith("specgrad: invalid input: --n must be")


@pytest.mark.parametrize(
    "argv",
    [
        ("train-toy", "--batch", "0"),
        ("train-toy", "--samples", "0"),
        ("train-toy", "--steps", "0"),
        ("condition", "--count", "0"),
        ("condition", "--input", "empty.gcpf"),
        ("approx-table", "--degrees", "-3"),
        ("approx-table", "--degrees", "0"),
        ("approx-table", "--degrees", ","),
        ("approx-table", "--ratios", ","),
        # non-finite values are rejected the same way
        ("train-toy", "--switch-frac", "nan"),
        ("train-toy", "--warmup-frac", "inf"),
        ("train-toy", "--init-cond", "nan"),
        ("train-toy", "--lr-schedule", "0:nan"),
        ("train-toy", "--lr-schedule", "0:inf"),
        # so is a negative seed, from a flag, a config entry or the
        # environment (a leading NAME=value sets it, as in a shell)
        ("gradcheck", "--seed", "-1"),
        ("train-toy", "--config", "seed.conf"),
        ("SPECGRAD_SEED=-1", "condition"),
        # so is a given flag the run will not read; with --input the file is
        # never opened (a missing one would exit 74)
        ("condition", "--input", "missing.gcpf", "--count", "7"),
        ("train-toy", "--switch-frac", "1.0", "--warmup-frac", "0.5"),
    ],
    ids=[
        "batch-0", "samples-0", "steps-0", "count-0", "empty-input", "degrees-negative",
        "degrees-0", "degrees-empty", "ratios-empty", "switch-frac-nan", "warmup-frac-inf",
        "init-cond-nan", "lr-nan", "lr-inf", "seed-flag", "seed-config", "seed-env",
        "input-count", "no-switch-warmup",
    ],
)
def test_empty_size_exits_64_without_output(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SPECGRAD_SEED", raising=False)
    (tmp_path / "empty.gcpf").write_bytes(b"GCPF" + np.array([4, 20, 0], "<u4").tobytes())
    (tmp_path / "seed.conf").write_text("seed=-1\n")
    while "=" in argv[0]:
        name, _, value = argv[0].partition("=")
        monkeypatch.setenv(name, value)
        argv = argv[1:]
    assert run(*argv) == EXIT_BAD_FLAGS
    err = capsys.readouterr().err
    assert err.startswith("specgrad: invalid input: ") and err.count("\n") == 1
    if argv == ("train-toy", "--steps", "0"):
        # the shared count rule, naming the flag
        assert err == "specgrad: invalid input: --steps must be a positive int, got 0\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.gcpf", "seed.conf"]


@pytest.mark.parametrize(
    "argv",
    [
        ("condition", "--d"),
        ("condition", "--n"),
        ("condition", "--count"),
        ("gradcheck", "--d"),
        ("gradcheck", "--scheme", "topn", "--topn"),
        ("gradcheck", "--scheme", "pade", "--degree"),
        ("gradcheck", "--scheme", "isqrt", "--iters"),
        ("bounds", "--degree"),
        ("train-toy", "--d"),
        ("train-toy", "--n"),
        ("train-toy", "--batch"),
        ("train-toy", "--samples"),
        ("train-toy", "--iters"),
        ("train-toy", "--degree"),
        ("train-toy", "--backward", "topn", "--topn"),
        # a config entry is held to the same rule, under the flag's name
        ("train-toy", "--config", "batch.conf", "--batch"),
    ],
    ids=lambda argv: "-".join(a.strip("-") for a in argv),
)
def test_count_flag_error_names_the_flag(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "batch.conf").write_text("batch=0\n")
    *argv, flag = argv
    if "--config" not in argv:
        argv += [flag, "0"]
    assert run(*argv) == EXIT_BAD_FLAGS
    err = capsys.readouterr().err
    assert err == f"specgrad: invalid input: {flag} must be a positive int, got 0\n"
    assert [p.name for p in tmp_path.iterdir()] == ["batch.conf"]


@pytest.mark.parametrize(
    "argv,message",
    [
        (("gradcheck", "--n", "4"), "--n must be greater than --d (8), got 4"),
        (("gradcheck", "--d", "5", "--n", "5"), "--n must be greater than --d (5), got 5"),
        (("gradcheck", "--d", "1"), "--d must be at least 2, got 1"),
        (("train-toy", "--d", "1"), "--d must be at least 2, got 1"),
        (("train-toy", "--n", "1"), "--n must be at least 2, got 1"),
        (("condition", "--d", "3", "--n", "1"), "--n must be at least 2, got 1"),
        (("train-toy", "--switch-frac", "-0.5", "--steps", "2"),
         "--switch-frac must be non-negative, got -0.5"),
        (("train-toy", "--warmup-frac", "-1", "--steps", "2"),
         "--warmup-frac must be non-negative, got -1.0"),
        (("train-toy", "--init-cond", "0.5"), "--init-cond must be at least 1, got 0.5"),
        (("train-toy", "--init-cond", "inf"), "--init-cond must be finite, got inf"),
        # the swap must come before the final decay of the default schedule...
        (("train-toy", "--switch-frac", "0.9", "--steps", "10"),
         "--switch-frac must be early enough that the swap (step 9) precedes the final "
         "learning-rate decay (step 8), got 0.9"),
        (("train-toy", "--switch-frac", "0.85"),
         "--switch-frac must be early enough that the swap (step 204) precedes the final "
         "learning-rate decay (step 192), got 0.85"),
        # ...or of a given one
        (("train-toy", "--switch-frac", "0.5", "--steps", "10", "--lr-schedule", "0:0.1,3:0.01"),
         "--switch-frac must be early enough that the swap (step 5) precedes the final "
         "learning-rate decay (step 3), got 0.5"),
        # a malformed schedule is refused under its own name, ahead of the swap
        (("train-toy", "--lr-schedule", "0:0.1,0:0.2"),
         "--lr-schedule must have strictly increasing steps, got 0:0.1,0:0.2"),
        (("train-toy", "--lr-schedule", "0:0.1,100:0.01,50:0.001"),
         "--lr-schedule must have strictly increasing steps, got 0:0.1,100:0.01,50:0.001"),
        (("train-toy", "--lr-schedule", "5:0.1"), "--lr-schedule must start at step 0, got 5:0.1"),
        (("train-toy", "--lr-schedule", "0:0.1,100:0"),
         "--lr-schedule must have positive, finite rates, got 0:0.1,100:0.0"),
        # the fine-grained task hides one class signal in each trailing dimension
        (("train-toy", "--task", "fine-grained", "--d", "2"),
         "--d must be at least 3 with --task fine-grained, got 2"),
        # a config entry is held to the same relation, under the flag's name
        (("train-toy", "--config", "n.conf"), "--n must be at least 2, got 1"),
    ],
    ids=[
        "gradcheck-n-below-d", "gradcheck-n-equal-d", "gradcheck-d-1", "train-toy-d-1",
        "train-toy-n-1", "condition-n-1", "switch-frac-negative", "warmup-frac-negative",
        "init-cond-below-1", "init-cond-inf", "swap-after-decay-10-steps",
        "swap-after-decay-default-steps", "swap-after-given-decay", "lr-schedule-repeated-step",
        "lr-schedule-decreasing-step", "lr-schedule-late-start", "lr-schedule-zero-rate",
        "fine-grained-d-2", "config-n-1",
    ],
)
def test_flag_relation_error_names_the_flag(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "n.conf").write_text("n=1\n")
    assert run(*argv) == EXIT_BAD_FLAGS
    captured = capsys.readouterr()
    assert captured.err == f"specgrad: invalid input: {message}\n"
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["n.conf"]


def test_relations_hold_only_flags_the_run_reads(tmp_path, capsys):
    # with --input, condition reads neither --d nor --n: a config n=1 is unread
    blocks = tmp_path / "blocks.gcpf"
    io.write_feature_file(blocks, [np.random.default_rng(0).normal(size=(3, 6))])
    conf = tmp_path / "n.conf"
    conf.write_text("d=4\nn=1\n")
    out = tmp_path / "c.csv"
    argv = ("condition", "--input", str(blocks), "--config", str(conf), "--out", str(out))
    assert run(*argv) == EXIT_OK
    meta, _, _ = read_csv(out)
    assert (meta["d"], meta["n"]) == ("3", "6")
    # without a switch, train-toy reads no --warmup-frac
    conf.write_text("warmup-frac=-1\n")
    argv = ("train-toy", "--config", str(conf), "--switch-frac", "1.0", "--steps", "2")
    assert run(*argv, "--out", str(tmp_path / "log.jsonl")) == EXIT_OK


def test_malformed_seed_env_var_exits_64(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPECGRAD_SEED", "x")
    out = tmp_path / "condition.csv"
    assert run("condition", "--out", str(out)) == EXIT_BAD_FLAGS
    assert "SPECGRAD_SEED" in capsys.readouterr().err
    assert not out.exists()


class TestSeed:
    """--seed exists only on the commands that draw random numbers, and there it acts."""

    SEEDED = ("gradcheck", "condition", "train-toy")

    def test_declared_by_exactly_the_commands_that_draw(self):
        assert tuple(c for c in COMMANDS if "seed" in {a.dest for a in _flags(c)}) == self.SEEDED

    @pytest.mark.parametrize("command", ["approx-table", "bounds"])
    def test_unknown_flag_where_nothing_is_drawn(self, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        assert run(command, "--seed", "3") == EXIT_BAD_FLAGS
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command,written",
        [("approx-table", ["approx_pade.csv", "approx_taylor.csv"]), ("bounds", ["bounds.csv"])],
        ids=["approx-table", "bounds"],
    )
    def test_seed_sources_ignored_where_nothing_is_drawn(
        self, tmp_path, monkeypatch, command, written
    ):
        # like any config key or variable that names none of the command's flags
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("SPECGRAD_SEED", "x")
        Path("seed.conf").write_text("seed=-1\n")
        assert run(command, "--config", "seed.conf") == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(written + ["seed.conf"])

    @pytest.mark.parametrize(
        "argv",
        [
            ("gradcheck", "--d", "2", "--n", "4"),
            ("condition", "--d", "4", "--n", "8", "--count", "2", "--format", "json"),
            ("train-toy", "--steps", "10", "--d", "4", "--n", "16", "--samples", "20"),
        ],
        ids=SEEDED,
    )
    def test_declared_seed_takes_effect(self, tmp_path, argv):
        # everything but the record: the report, the rows, the step lines
        outputs = []
        for seed in ("1", "2"):
            out = tmp_path / f"seed{seed}.json"
            assert run(*argv, "--seed", seed, "--out", str(out)) in (EXIT_OK, EXIT_CHECK_FAILED)
            if argv[0] == "train-toy":
                outputs.append(parse_json(out.read_text(), lines=True)[1:])
            else:
                outputs.append({k: v for k, v in parse_json(out.read_text()).items() if k != "config"})
        assert outputs[0] != outputs[1]


class TestBounds:
    def test_reference_rows_double(self, tmp_path):
        path = tmp_path / "bounds.csv"
        assert run("bounds", "--out", str(path)) == EXIT_OK
        _, header, rows = read_csv(path)
        table = {r[0]: r for r in rows}
        assert float(table["taylor"][2]) == pytest.approx(4.55e17, rel=0.01)
        assert float(table["trunc"][2]) == 1e10
        assert float(table["topn"][2]) == pytest.approx(4.50e15, rel=0.01)
        assert table["ordinary"][2] == "inf"
        assert table["newton_schulz"][2] == ""

    def test_single_precision_safety_flags(self, tmp_path):
        path = tmp_path / "bounds_single.csv"
        assert run("bounds", "--precision", "single", "--out", str(path)) == EXIT_OK
        _, _, rows = read_csv(path)
        for row in rows:
            if row[0] in ("pade", "taylor", "trunc", "topn"):
                assert row[4] == "true"
                assert float(row[2]) < 3.40e38

    @pytest.mark.parametrize(
        "argv,infinite",
        [((), {"ordinary"}), (("--precision", "single"), {"ordinary"}),
         (("--degree", "3"), {"ordinary", "pade"})],
        ids=["double", "single", "degree-3"],
    )
    def test_json_is_strict(self, tmp_path, argv, infinite):
        # an unbounded gradient is the string "inf", as in the CSV table, and
        # single_safe is a JSON bool, or null where there is no bound
        path = tmp_path / "bounds.json"
        assert run("bounds", "--format", "json", *argv, "--out", str(path)) == EXIT_OK
        rows = parse_json(path.read_text())["rows"]
        assert {r[0] for r in rows if r[2] == "inf"} == infinite
        safe = {r[0]: None if r[0] == "newton_schulz" else r[0] not in infinite for r in rows}
        assert {r[0]: r[4] for r in rows} == safe

    def test_single_precision_rows_use_float32_epsilon(self, tmp_path):
        # eps is exactly 2**-23, so topn's 1/eps and taylor(100)'s 101/eps are integers
        path = tmp_path / "bounds_single.csv"
        assert run("bounds", "--precision", "single", "--out", str(path)) == EXIT_OK
        _, _, rows = read_csv(path)
        table = {r[0]: r[2] for r in rows}
        assert float(table["topn"]) == 8388608 == 2**23
        assert float(table["taylor"]) == 847249408 == 101 * 2**23


class TestGradCheck:
    def test_ordinary_moderate_condition_passes(self, tmp_path):
        path = tmp_path / "report.json"
        code = run(
            "gradcheck", "--scheme", "ordinary", "--d", "4", "--cond", "10",
            "--out", str(path),
        )
        assert code == EXIT_OK
        doc = parse_json(path.read_text())
        assert doc["passed"] is True

    def test_degenerate_condition_flags_nonfinite(self, tmp_path):
        path = tmp_path / "report.json"
        code = run(
            "gradcheck", "--scheme", "ordinary", "--cond", "1e16", "--out", str(path)
        )
        assert code == EXIT_CHECK_FAILED
        doc = parse_json(path.read_text())
        assert doc["report"]["n_nonfinite"] > 0

    def test_pade_robust_near_degeneracy(self, capsys):
        assert run("gradcheck", "--scheme", "pade", "--d", "8", "--cond", "1e6") == EXIT_OK
        assert parse_json(capsys.readouterr().out)["passed"] is True

    def test_nonfinite_errors_are_strict_json(self, tmp_path):
        # an exact tie under the ordinary scheme leaves no finite error
        path = tmp_path / "report.json"
        code = run("gradcheck", "--scheme", "ordinary", "--cond", "1e20", "--out", str(path))
        assert code == EXIT_CHECK_FAILED
        report = parse_json(path.read_text())["report"]
        assert report["max_rel_error"] == report["mean_rel_error"] == "nan"

    @pytest.mark.parametrize("cond", ["nan", "inf"])
    def test_nonfinite_condition_target_named(self, capsys, cond):
        assert run("gradcheck", "--cond", cond) == EXIT_BAD_FLAGS
        err = capsys.readouterr().err
        assert err == (
            f"specgrad: invalid input: condition target must be finite and >= 1, got {cond}\n"
        )

    def test_pade_pole_is_one_line_with_exit_3(self, capsys):
        code = run("gradcheck", "--scheme", "pade", "--degree", "3", "--cond", "1e20")
        assert code == EXIT_NUMERICAL_FAILURE
        err = capsys.readouterr().err
        assert err == "specgrad: numerical failure: denominator vanishes at x = 1.0\n"

    def test_table_flags_rejected_where_unread(self):
        # --format and --precision only shape table output; elsewhere they
        # would be silently ignored, so argparse rejects them
        assert run("gradcheck", "--precision", "single") == EXIT_BAD_FLAGS
        assert run("train-toy", "--format", "json") == EXIT_BAD_FLAGS


class TestSchemeFlags:
    @pytest.mark.parametrize(
        "argv,label",
        [
            (("ordinary",), "eig_sqrt+ordinary"),
            (("topn",), "eig_sqrt+topn(n=auto)"),
            (("topn", "--topn", "1"), "eig_sqrt+topn(n=1)"),
            (("trunc",), "eig_sqrt+trunc(t=1e+10)"),
            (("trunc", "--trunc-threshold", "1e3"), "eig_sqrt+trunc(t=1000)"),
            (("taylor",), "eig_sqrt+taylor(degree=100)"),
            (("taylor", "--degree", "7"), "eig_sqrt+taylor(degree=7)"),
            (("pade",), "eig_sqrt+pade(degree=100)"),
            (("pade", "--degree", "50"), "eig_sqrt+pade(degree=50)"),
            (("newton",), "eig_sqrt+newton_schulz(iterations=10)"),
            (("newton", "--iters", "7"), "eig_sqrt+newton_schulz(iterations=7)"),
            (("isqrt",), "newton_schulz(10)"),
            (("isqrt", "--iters", "7"), "newton_schulz(7)"),
        ],
    )
    def test_scheme_name_and_parameter_build_the_label(self, tmp_path, argv, label):
        path = tmp_path / "report.json"
        code = run(
            "gradcheck", "--scheme", *argv, "--d", "2", "--n", "4", "--out", str(path)
        )
        assert code in (EXIT_OK, EXIT_CHECK_FAILED)
        assert parse_json(path.read_text())["report"]["scheme"] == label

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (("gradcheck", "--scheme", "ordinary", "--degree", "7"), "--degree"),
            (("gradcheck", "--scheme", "pade", "--topn", "3"), "--topn"),
            (("gradcheck", "--scheme", "isqrt", "--trunc-threshold", "5"), "--trunc-threshold"),
            (("gradcheck", "--scheme", "trunc", "--iters", "3"), "--iters"),
            (("gradcheck", "--scheme", "ordinary", "--topn", "0"), "--topn"),
            (("train-toy", "--backward", "taylor", "--trunc-threshold", "5"), "--trunc-threshold"),
            (("train-toy", "--backward", "newton", "--degree", "5"), "--degree"),
        ],
        ids=[
            "ordinary-degree", "pade-topn", "isqrt-trunc", "trunc-iters",
            "ordinary-topn-0", "train-taylor-trunc", "train-newton-degree",
        ],
    )
    def test_flag_the_scheme_never_reads_exits_64(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "out"
        assert run(*argv, "--out", str(out)) == EXIT_BAD_FLAGS
        err = capsys.readouterr().err
        scheme = argv[2]
        assert err == f"specgrad: invalid input: {flag} is not read by scheme {scheme}\n"
        assert not out.exists()

    @pytest.mark.parametrize("backward", ["ordinary", "taylor", "newton"])
    def test_train_toy_iters_is_read_with_any_backward(self, tmp_path, backward):
        out = tmp_path / "log.jsonl"
        code = run(
            "train-toy", "--backward", backward, "--iters", "7", "--steps", "10",
            "--d", "4", "--n", "16", "--samples", "20", "--out", str(out),
        )
        assert code == EXIT_OK
        assert parse_json(out.read_text(), lines=True)[0]["iters"] == 7

    def test_train_toy_default_iters_equals_explicit(self, tmp_path):
        # --iters is one Newton-Schulz count, forward and newton backward
        logs = []
        for extra in ((), ("--iters", "5")):
            out = tmp_path / f"log{len(extra)}.jsonl"
            code = run(
                "train-toy", "--backward", "newton", "--steps", "20", "--d", "4",
                "--n", "16", "--samples", "20", "--seed", "1", *extra, "--out", str(out),
            )
            assert code == EXIT_OK
            logs.append(out.read_bytes())
        assert logs[0] == logs[1]
        steps = [r for r in parse_json(out.read_text(), lines=True) if r["type"] == "step"]
        assert steps[-1]["scheme"] == "eig_sqrt+newton_schulz(iterations=5)"

    def test_bounds_reads_degree_and_threshold(self, tmp_path):
        path = tmp_path / "bounds.csv"
        code = run(
            "bounds", "--degree", "20", "--trunc-threshold", "1e3", "--out", str(path)
        )
        assert code == EXIT_OK
        meta, _, rows = read_csv(path)
        table = {r[0]: r for r in rows}
        assert meta["degree"] == "20" and meta["trunc_threshold"] == "1000"
        assert float(table["trunc"][2]) == 1e3
        assert float(table["taylor"][2]) == pytest.approx(21 / EPS_DOUBLE)

    def test_config_entry_of_another_scheme_is_not_rejected(self, tmp_path):
        # one config file may serve several commands and schemes
        conf = tmp_path / "run.conf"
        conf.write_text("degree=7\ntopn=3\n")
        path = tmp_path / "report.json"
        code = run(
            "gradcheck", "--scheme", "ordinary", "--d", "2", "--n", "4",
            "--config", str(conf), "--out", str(path),
        )
        assert code == EXIT_OK
        assert parse_json(path.read_text())["report"]["scheme"] == "eig_sqrt+ordinary"


class TestUnreadFlags:
    """A given flag the run will not read exits 64 before anything runs."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("condition", "--input", "missing.gcpf", "--d", "16", "--n", "99", "--count", "7"),
             "--d is not read with --input"),
            (("condition", "--input", "missing.gcpf", "--n", "99"),
             "--n is not read with --input"),
            (("train-toy", "--switch-frac", "1.0", "--backward", "taylor", "--degree", "7",
              "--warmup-frac", "0.5"),
             "--backward is not read without a switch (--switch-frac >= 1)"),
            (("train-toy", "--switch-frac", "2", "--topn", "2"),
             "--topn is not read without a switch (--switch-frac >= 1)"),
            (("train-toy", "--switch-frac", "1.0", "--trunc-threshold", "5"),
             "--trunc-threshold is not read without a switch (--switch-frac >= 1)"),
            (("condition", "--input", "missing.gcpf", "--seed", "3"),
             "--seed is not read with --input"),
        ],
        ids=["input-d", "input-n", "no-switch-backward", "no-switch-topn", "no-switch-trunc",
             "input-seed"],
    )
    def test_message_names_the_flag_and_why(self, tmp_path, capsys, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        assert run(*argv) == EXIT_BAD_FLAGS
        assert capsys.readouterr().err == f"specgrad: invalid input: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_iters_sets_the_forward_without_a_switch(self, tmp_path):
        out = tmp_path / "log.jsonl"
        code = run(
            "train-toy", "--switch-frac", "1.0", "--iters", "7", "--steps", "10",
            "--d", "4", "--n", "16", "--samples", "20", "--out", str(out),
        )
        assert code == EXIT_OK
        steps = [r for r in parse_json(out.read_text(), lines=True) if r["type"] == "step"]
        assert steps[-1]["scheme"] == "newton_schulz(7)"

    def test_config_entries_are_exempt(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("backward=taylor\ndegree=7\nwarmup-frac=0.5\nd=16\n")
        out = tmp_path / "log.jsonl"
        code = run(
            "train-toy", "--config", str(conf), "--switch-frac", "1.0", "--steps", "5",
            "--d", "4", "--n", "16", "--samples", "20", "--out", str(out),
        )
        assert code == EXIT_OK
        feat = tmp_path / "f.gcpf"
        io.write_feature_file(feat, [np.random.default_rng(0).normal(size=(3, 9))])
        argv = ("condition", "--input", str(feat), "--config", str(conf))
        assert run(*argv, "--out", str(tmp_path / "c.csv")) == EXIT_OK


def _record_of(command, tmp_path, *argv):
    """The config record ``command`` writes when run at a small size."""
    if command == "approx-table":
        argv = ("--kind", "taylor", "--degrees", "5", "--ratios", "0.5", "--format", "json",
                "--out", str(tmp_path), *argv)
        assert run(command, *argv) == EXIT_OK
        return parse_json((tmp_path / "approx_taylor.json").read_text())["config"]
    small = {
        "bounds": ("--format", "json"),
        "gradcheck": ("--d", "2", "--n", "4"),
        "condition": ("--d", "4", "--n", "8", "--count", "2", "--format", "json"),
        "train-toy": ("--steps", "10", "--d", "4", "--n", "16", "--samples", "20"),
    }[command]
    out = tmp_path / "out.json"
    assert run(command, *small, "--out", str(out), *argv) == EXIT_OK
    if command == "train-toy":
        return parse_json(out.read_text(), lines=True)[0]
    return parse_json(out.read_text())["config"]


class TestRecord:
    """Each output's record is every resolved flag but --config and --out."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_record_holds_every_flag(self, tmp_path, command):
        record = _record_of(command, tmp_path)
        dests = [a.dest for a in _flags(command) if a.dest != "out"]
        assert record["command"] == command
        assert [k for k in record if k in dests] == dests
        assert "config" not in record and "out" not in record

    def test_condition_records_its_size(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        small = _record_of("condition", tmp_path / "a", "--d", "8")
        large = _record_of("condition", tmp_path / "b", "--d", "16")
        assert (small["d"], large["d"]) == (8, 16)

    def test_condition_input_records_the_file_shape(self, tmp_path):
        feat = tmp_path / "f.gcpf"
        io.write_feature_file(feat, [np.random.default_rng(0).normal(size=(4, 20))])
        out = tmp_path / "c.json"
        argv = ("condition", "--input", str(feat), "--format", "json", "--out", str(out))
        assert run(*argv) == EXIT_OK
        record = parse_json(out.read_text())["config"]
        assert (record["d"], record["n"], record["count"]) == (4, 20, 1)

    def test_train_toy_without_a_switch_records_null_for_what_it_never_reads(self, tmp_path):
        record = _record_of("train-toy", tmp_path, "--switch-frac", "1.0")
        unread = ("backward", "topn", "degree", "trunc_threshold", "warmup_frac", "warmup_steps")
        assert {key: record[key] for key in unread} == dict.fromkeys(unread)
        assert record["switch_step"] is None
        assert record["iters"] == 5
        assert record["lr_schedule"] == [[0, 0.08], [8, 0.008]]

    @pytest.mark.parametrize(
        "argv,nulls",
        [
            (("gradcheck", "--d", "2", "--n", "4", "--scheme", "pade"),
             {"topn", "trunc_threshold", "iters"}),
            (("train-toy", "--steps", "10", "--d", "4", "--n", "16", "--samples", "20",
              "--backward", "trunc"), {"topn", "degree"}),
            (("condition", "--input", "f.gcpf", "--format", "json"), {"seed"}),
        ],
        ids=["gradcheck-pade", "train-toy-trunc", "condition-input"],
    )
    def test_flags_the_run_does_not_read_are_null(self, tmp_path, monkeypatch, argv, nulls):
        monkeypatch.chdir(tmp_path)
        io.write_feature_file("f.gcpf", [np.random.default_rng(0).normal(size=(4, 20))])
        assert run(*argv, "--out", "out.json") == EXIT_OK
        log = argv[0] == "train-toy"
        doc = parse_json(Path("out.json").read_text(), lines=log)
        record = doc[0] if log else doc["config"]
        assert {key for key, value in record.items() if value is None} == nulls


class TestCondition:
    def test_feature_file_input(self, tmp_path):
        rng = np.random.default_rng(3)
        u = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        blocks = []
        for lam_min in (1.0, 1e-16):
            lam = np.array([1.0, 0.5, 0.1, lam_min])
            from specgrad.synth import feature_matrix_with_spectrum

            blocks.append(feature_matrix_with_spectrum(lam, 20, rng).data)
        feat = tmp_path / "feats.gcpf"
        io.write_feature_file(feat, blocks)
        out = tmp_path / "cond.csv"
        assert run("condition", "--input", str(feat), "--out", str(out)) == EXIT_OK
        meta, _, rows = read_csv(out)
        assert rows[0][2] == "false"
        assert rows[1][2] == "true"  # lambda_min at eps: ill-conditioned
        assert float(meta["ill_fraction"]) == 0.5

    def test_identity_like_covariances(self, tmp_path):
        # whitened features: condition number 1 up to roundoff
        from specgrad.synth import feature_matrix_with_spectrum

        rng = np.random.default_rng(4)
        blocks = [
            feature_matrix_with_spectrum(np.ones(4), 16, rng).data for _ in range(3)
        ]
        feat = tmp_path / "id.gcpf"
        io.write_feature_file(feat, blocks)
        out = tmp_path / "cond.csv"
        assert run("condition", "--input", str(feat), "--out", str(out)) == EXIT_OK
        meta, _, rows = read_csv(out)
        assert float(meta["summary_mean"]) == pytest.approx(1.0, abs=1e-6)
        assert float(meta["ill_fraction"]) == 0.0

    @pytest.mark.parametrize(
        "entry,code,message",
        [
            # finite input whose covariance overflows: a numerical failure
            (1e200, EXIT_NUMERICAL_FAILURE, "specgrad: numerical failure: covariance"),
            # non-finite input stays invalid input
            (np.nan, EXIT_BAD_FLAGS, "specgrad: invalid input: feature matrix"),
        ],
        ids=["overflow", "nan"],
    )
    def test_failure_is_one_line_with_its_exit_code(self, tmp_path, capsys, entry, code, message):
        block = np.random.default_rng(5).normal(size=(3, 6))
        block[0, 0] = entry
        feat = tmp_path / "feats.gcpf"
        io.write_feature_file(feat, [block])
        assert run("condition", "--input", str(feat), "--out", str(tmp_path / "c.csv")) == code
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_overflow_prints_one_line_in_a_fresh_process(self, tmp_path):
        # numpy prints its RuntimeWarning to stderr unless the CLI silences it
        block = np.random.default_rng(5).normal(size=(3, 6))
        block[0, 0] = 1e200
        feat = tmp_path / "feats.gcpf"
        io.write_feature_file(feat, [block])
        env = dict(os.environ, PYTHONPATH=str(Path(specgrad.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "specgrad.cli", "condition",
             "--input", str(feat), "--out", str(tmp_path / "c.csv")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == EXIT_NUMERICAL_FAILURE
        assert proc.stderr.startswith("specgrad: numerical failure: covariance")
        assert proc.stderr.count("\n") == 1

    def test_synthetic_matches_direct_computation(self, tmp_path):
        out = tmp_path / "cond.csv"
        assert run(
            "condition", "--d", "4", "--n", "24", "--count", "5",
            "--seed", "9", "--out", str(out),
        ) == EXIT_OK
        _, _, rows = read_csv(out)

        from specgrad.core import clamp_eigenvalues, condition_number, covariance, eigh
        from specgrad.synth import gaussian_features

        rng = np.random.default_rng(9)
        for row in rows:
            lam, _ = eigh(covariance(gaussian_features(4, 24, rng).data))
            assert float(row[1]) == pytest.approx(
                condition_number(clamp_eigenvalues(lam)), rel=1e-8
            )


class TestTrainToy:
    def test_pure_ns_run_completes(self, tmp_path):
        out = tmp_path / "log.jsonl"
        code = run(
            "train-toy", "--switch-frac", "1.0", "--steps", "60", "--d", "4",
            "--n", "16", "--samples", "60", "--seed", "7", "--out", str(out),
        )
        assert code == EXIT_OK
        records = parse_json(out.read_text(), lines=True)
        assert records[0]["type"] == "config"
        assert records[-1]["status"] == "completed"
        steps = [r for r in records if r["type"] == "step"]
        assert len(steps) == 60
        assert steps[-1]["loss"] < steps[0]["loss"]

    def test_seeded_runs_are_byte_identical(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for path in (a, b):
            code = run(
                "train-toy", "--steps", "40", "--d", "4", "--n", "16",
                "--samples", "40", "--seed", "7", "--out", str(path),
            )
            assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        assert parse_json(a.read_text(), lines=True)[-1]["status"] == "completed"

    def test_env_var_seed_fallback(self, tmp_path, monkeypatch):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        monkeypatch.setenv("SPECGRAD_SEED", "7")
        code = run(
            "train-toy", "--steps", "20", "--d", "4", "--n", "16",
            "--samples", "30", "--out", str(a),
        )
        assert code == EXIT_OK
        monkeypatch.delenv("SPECGRAD_SEED")
        code = run(
            "train-toy", "--steps", "20", "--d", "4", "--n", "16",
            "--samples", "30", "--seed", "7", "--out", str(b),
        )
        assert code == EXIT_OK
        records_a, records_b = (parse_json(p.read_text(), lines=True) for p in (a, b))
        assert records_a[1:] == records_b[1:]

    def test_config_file_with_flag_override(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("steps=20\nd=4\nn=16\nsamples=30\nseed=3\nswitch-frac=1.0\n")
        out = tmp_path / "log.jsonl"
        code = run(
            "train-toy", "--config", str(conf), "--steps", "25", "--out", str(out)
        )
        assert code == EXIT_OK
        records = parse_json(out.read_text(), lines=True)
        assert records[0]["steps"] == 25  # flag wins
        assert records[0]["d"] == 4  # file value used

    def test_divergence_exits_2_with_log(self, tmp_path):
        out = tmp_path / "log.jsonl"
        code = run(
            "train-toy", "--steps", "30", "--d", "4", "--n", "16",
            "--samples", "30", "--lr-schedule", "0:1e9", "--switch-frac", "1.0",
            "--out", str(out),
        )
        assert code == EXIT_DIVERGED
        records = parse_json(out.read_text(), lines=True)
        assert records[-1]["status"] == "diverged"
        assert records[-1]["failure_step"] is not None

    def test_rank_deficient_ordinary_blowup_is_logged_as_divergence(self, tmp_path):
        # N = 4 < d = 8 ties the clamped tail; at the swap to the exact forward
        # (step 144) ordinary's K is inf at the tie, and the gradient is nan
        out = tmp_path / "log.jsonl"
        code = run(
            "train-toy", "--seed", "3", "--n", "4", "--backward", "ordinary", "--out", str(out)
        )
        assert code == EXIT_DIVERGED
        status = parse_json(out.read_text(), lines=True)[-1]
        assert status["status"] == "diverged"
        assert status["failure_step"] == 144
        assert status["failure_reason"] == "non-finite gradient under scheme ordinary"

    @pytest.mark.parametrize(
        "argv,code",
        [
            (("--steps", "40", "--d", "4", "--n", "16", "--seed", "7"), EXIT_OK),
            (("--seed", "3", "--n", "4", "--backward", "ordinary"), EXIT_DIVERGED),
        ],
        ids=["completed", "diverged"],
    )
    def test_every_log_line_is_strict_json(self, tmp_path, argv, code):
        out = tmp_path / "log.jsonl"
        assert run("train-toy", *argv, "--out", str(out)) == code
        assert parse_json(out.read_text(), lines=True)[-1]["type"] == "status"

    def test_topn_on_fine_grained_task(self, tmp_path):
        # discarding small eigenvalues erases the class signal; the run may
        # diverge (exit 2) or merely fail to learn, both are valid outcomes
        out = tmp_path / "log.jsonl"
        code = run(
            "train-toy", "--backward", "topn", "--topn", "2", "--d", "8",
            "--task", "fine-grained", "--steps", "60", "--samples", "60",
            "--switch-frac", "0.3", "--seed", "11", "--out", str(out),
        )
        assert code in (EXIT_OK, EXIT_DIVERGED)
        records = parse_json(out.read_text(), lines=True)
        assert records[-1]["status"] in ("completed", "diverged")


class TestPadeDegreeOne:
    """pade(1) is the [0/0] approximant, the constant 1: every command runs it."""

    def test_bounds(self, tmp_path):
        path = tmp_path / "bounds.csv"
        assert run("bounds", "--degree", "1", "--out", str(path)) == EXIT_OK
        table = {r[0]: r for r in read_csv(path)[2]}
        assert float(table["pade"][2]) == 1.0 / EPS_DOUBLE

    def test_gradcheck_runs_the_biased_scheme(self, tmp_path):
        # K_ij = 1/lambda_i is far from 1/(lambda_i - lambda_j): the audit
        # runs to its verdict and reports the check as failed
        path = tmp_path / "report.json"
        code = run(
            "gradcheck", "--scheme", "pade", "--degree", "1", "--d", "4", "--out", str(path)
        )
        assert code == EXIT_CHECK_FAILED
        assert parse_json(path.read_text())["report"]["scheme"] == "eig_sqrt+pade(degree=1)"

    def test_train_toy_trains_past_the_switch(self, tmp_path):
        out = tmp_path / "log.jsonl"
        code = run(
            "train-toy", "--backward", "pade", "--degree", "1", "--steps", "20",
            "--d", "4", "--n", "16", "--samples", "20", "--out", str(out),
        )
        assert code == EXIT_OK
        steps = [r for r in parse_json(out.read_text(), lines=True) if r["type"] == "step"]
        assert len(steps) == 20
        assert steps[-1]["scheme"] == "eig_sqrt+pade(degree=1)"
