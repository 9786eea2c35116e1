import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import specgrad
from specgrad import io
from specgrad.core import EPS_DOUBLE
from specgrad.cli import (
    EXIT_BAD_FLAGS,
    EXIT_CHECK_FAILED,
    EXIT_DIVERGED,
    EXIT_IO,
    EXIT_NUMERICAL_FAILURE,
    EXIT_OK,
    main,
)


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


class TestApproxTable:
    def test_default_run_and_round_trip(self, tmp_path):
        out = tmp_path / "tables"
        assert run("approx-table", "--out", str(out)) == EXIT_OK
        meta, header, rows = io.read_csv(out / "approx_taylor.csv")
        assert header == ["ratio", "deg50", "deg100", "deg200", "deg300"]
        assert meta["seed"] == "0"
        table = {float(r[0]): [float(v) for v in r[1:]] for r in rows}
        # published cells at degree 100
        assert table[0.99][1] == pytest.approx(36.0, rel=0.05)
        assert table[0.999][1] == pytest.approx(904.0, rel=0.05)
        meta, _, rows = io.read_csv(out / "approx_pade.csv")
        assert max(float(v) for r in rows for v in r[1:]) <= 1e-9
        # round trip: rewriting parsed rows reproduces the file
        reparsed = [[float(v) for v in r] for r in rows]
        io.write_csv(out / "again.csv", _hdr(out), reparsed)
        _, _, rows2 = io.read_csv(out / "again.csv")
        assert [[float(v) for v in r] for r in rows2] == reparsed

    def test_zero_ratio_column(self, tmp_path):
        out = tmp_path / "z"
        assert run("approx-table", "--kind", "taylor", "--ratios", "0", "--out", str(out)) == EXIT_OK
        _, _, rows = io.read_csv(out / "approx_taylor.csv")
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
        doc = json.loads((out / "approx_pade.json").read_text())
        assert doc["config"]["kind"] == "pade"
        assert len(doc["rows"]) == 7


def _hdr(out):
    _, header, _ = io.read_csv(out / "approx_pade.csv")
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


def test_malformed_seed_env_var_exits_64(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPECGRAD_SEED", "x")
    out = tmp_path / "bounds.csv"
    assert run("bounds", "--out", str(out)) == EXIT_BAD_FLAGS
    assert "SPECGRAD_SEED" in capsys.readouterr().err
    assert not out.exists()


class TestBounds:
    def test_reference_rows_double(self, tmp_path):
        path = tmp_path / "bounds.csv"
        assert run("bounds", "--out", str(path)) == EXIT_OK
        _, header, rows = io.read_csv(path)
        table = {r[0]: r for r in rows}
        assert float(table["taylor"][2]) == pytest.approx(4.55e17, rel=0.01)
        assert float(table["trunc"][2]) == 1e10
        assert float(table["topn"][2]) == pytest.approx(4.50e15, rel=0.01)
        assert table["ordinary"][2] == "inf"
        assert table["newton_schulz"][2] == ""

    def test_single_precision_safety_flags(self, tmp_path):
        path = tmp_path / "bounds_single.csv"
        assert run("bounds", "--precision", "single", "--out", str(path)) == EXIT_OK
        _, _, rows = io.read_csv(path)
        for row in rows:
            if row[0] in ("pade", "taylor", "trunc", "topn"):
                assert row[4] == "true"
                assert float(row[2]) < 3.40e38


class TestGradCheck:
    def test_ordinary_moderate_condition_passes(self, tmp_path):
        path = tmp_path / "report.json"
        code = run(
            "gradcheck", "--scheme", "ordinary", "--d", "4", "--cond", "10",
            "--out", str(path),
        )
        assert code == EXIT_OK
        doc = json.loads(path.read_text())
        assert doc["passed"] is True

    def test_degenerate_condition_flags_nonfinite(self, tmp_path):
        path = tmp_path / "report.json"
        code = run(
            "gradcheck", "--scheme", "ordinary", "--cond", "1e16", "--out", str(path)
        )
        assert code == EXIT_CHECK_FAILED
        doc = json.loads(path.read_text())
        assert doc["report"]["n_nonfinite"] > 0

    def test_pade_robust_near_degeneracy(self):
        assert run("gradcheck", "--scheme", "pade", "--d", "8", "--cond", "1e6") == EXIT_OK

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
        assert json.loads(path.read_text())["report"]["scheme"] == label

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
        assert io.read_jsonl(out)[0]["iters"] == 7

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
        steps = [r for r in io.read_jsonl(out) if r["type"] == "step"]
        assert steps[-1]["scheme"] == "eig_sqrt+newton_schulz(iterations=5)"

    def test_bounds_reads_degree_and_threshold(self, tmp_path):
        path = tmp_path / "bounds.csv"
        code = run(
            "bounds", "--degree", "20", "--trunc-threshold", "1e3", "--out", str(path)
        )
        assert code == EXIT_OK
        meta, _, rows = io.read_csv(path)
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
        assert json.loads(path.read_text())["report"]["scheme"] == "eig_sqrt+ordinary"


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
        meta, _, rows = io.read_csv(out)
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
        meta, _, rows = io.read_csv(out)
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
        _, _, rows = io.read_csv(out)

        from specgrad.core import Precision, clamp_eigenvalues, condition_number, covariance, eigh
        from specgrad.synth import gaussian_features

        rng = np.random.default_rng(9)
        for row in rows:
            x = gaussian_features(4, 24, rng)
            e = clamp_eigenvalues(eigh(covariance(x)), Precision.double())
            assert float(row[1]) == pytest.approx(condition_number(e).value, rel=1e-8)


class TestTrainToy:
    def test_pure_ns_run_completes(self, tmp_path):
        out = tmp_path / "log.jsonl"
        code = run(
            "train-toy", "--switch-frac", "1.0", "--steps", "60", "--d", "4",
            "--n", "16", "--samples", "60", "--seed", "7", "--out", str(out),
        )
        assert code == EXIT_OK
        records = io.read_jsonl(out)
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
        assert io.read_jsonl(a)[1:] == io.read_jsonl(b)[1:]

    def test_config_file_with_flag_override(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("steps=20\nd=4\nn=16\nsamples=30\nseed=3\nswitch-frac=1.0\n")
        out = tmp_path / "log.jsonl"
        code = run(
            "train-toy", "--config", str(conf), "--steps", "25", "--out", str(out)
        )
        assert code == EXIT_OK
        records = io.read_jsonl(out)
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
        records = io.read_jsonl(out)
        assert records[-1]["status"] == "diverged"
        assert records[-1]["failure_step"] is not None

    def test_rank_deficient_pade_blowup_is_logged_as_divergence(self, tmp_path):
        # N = 4 < d = 8 ties the clamped tail; after the swap to the exact
        # forward the weights grow until the covariance overflows at step 151
        out = tmp_path / "log.jsonl"
        code = run(
            "train-toy", "--seed", "3", "--n", "4", "--backward", "pade", "--out", str(out)
        )
        assert code == EXIT_DIVERGED
        status = io.read_jsonl(out)[-1]
        assert status["status"] == "diverged"
        assert status["failure_step"] == 151
        assert status["failure_reason"].startswith("covariance is non-finite")

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
        records = io.read_jsonl(out)
        assert records[-1]["status"] in ("completed", "diverged")


class TestPadeDegreeOne:
    """pade(1) is the [0/0] approximant, the constant 1: every command runs it."""

    def test_bounds(self, tmp_path):
        path = tmp_path / "bounds.csv"
        assert run("bounds", "--degree", "1", "--out", str(path)) == EXIT_OK
        table = {r[0]: r for r in io.read_csv(path)[2]}
        assert float(table["pade"][2]) == 1.0 / EPS_DOUBLE

    def test_gradcheck_runs_the_biased_scheme(self, tmp_path):
        # K_ij = 1/lambda_i is far from 1/(lambda_i - lambda_j): the audit
        # runs to its verdict and reports the check as failed
        path = tmp_path / "report.json"
        code = run(
            "gradcheck", "--scheme", "pade", "--degree", "1", "--d", "4", "--out", str(path)
        )
        assert code == EXIT_CHECK_FAILED
        assert json.loads(path.read_text())["report"]["scheme"] == "eig_sqrt+pade(degree=1)"

    def test_train_toy_trains_past_the_switch(self, tmp_path):
        out = tmp_path / "log.jsonl"
        code = run(
            "train-toy", "--backward", "pade", "--degree", "1", "--steps", "20",
            "--d", "4", "--n", "16", "--samples", "20", "--out", str(out),
        )
        assert code == EXIT_OK
        steps = [r for r in io.read_jsonl(out) if r["type"] == "step"]
        assert len(steps) == 20
        assert steps[-1]["scheme"] == "eig_sqrt+pade(degree=1)"
