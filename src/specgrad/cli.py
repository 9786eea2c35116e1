"""Command-line harness: desk-scale tables, gradient audits, toy training.

Subcommands:
  approx-table   Taylor / Pade approximation-error grids (CSV or JSON)
  bounds         per-scheme analytic gradient upper bounds
  gradcheck      finite-difference audit of one configuration
  condition      condition numbers of covariances from a feature file or synthetic
  train-toy      hybrid training protocol on the synthetic 3-class task

Exit codes: 0 success, 1 check failure, 2 training divergence, 64 bad flags,
74 I/O error. All randomness flows from --seed (fallback: config file, then
the SPECGRAD_SEED environment variable).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import io
from .core import FeatureMatrix, Precision, clamp_eigenvalues, condition_number, covariance, eigh
from .errors import InvalidInputError
from .layer import GcpLayerConfig, grad_check
from .pade import approximation_error_table
from .schemes import BackwardScheme, gradient_upper_bound
from .synth import feature_matrix_with_spectrum, gaussian_features, spectrum_for_condition
from .training import (
    HybridSchedule,
    ToyModelSpec,
    batch_stream,
    make_toy_task,
    run_hybrid_training,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_DIVERGED = 2
EXIT_BAD_FLAGS = 64
EXIT_IO = 74

SEED_ENV_VAR = "SPECGRAD_SEED"

DEFAULT_DEGREES = (50, 100, 200, 300)
DEFAULT_RATIOS = (0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999)

_GRADCHECK_TOLERANCES = {
    "ordinary": 1e-5,
    "topn": 1e-4,
    "trunc": 1e-4,
    "taylor": 1e-4,
    "pade": 1e-4,
    "newton": 1e-4,
    "isqrt": 1e-4,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_FLAGS)


def _add_common(parser, table_output=False):
    parser.add_argument("--config", help="key=value file; flags override its entries")
    parser.add_argument("--seed", type=int, default=None)
    if table_output:
        parser.add_argument("--format", choices=("csv", "json"), default=None)
        parser.add_argument("--precision", choices=("single", "double"), default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="specgrad", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("approx-table", parents=[], help="approximation error grids")
    _add_common(p, table_output=True)
    p.add_argument("--kind", choices=("taylor", "pade", "both"), default="both")
    p.add_argument(
        "--degrees", type=_parse_int_list, default=None,
        help="comma list, default 50,100,200,300",
    )
    p.add_argument("--ratios", type=_parse_float_list, default=None, help="comma list in [0,1)")
    p.add_argument("--out", default=None, help="output directory (default .)")

    p = sub.add_parser("bounds", help="gradient upper bounds per scheme")
    _add_common(p, table_output=True)
    p.add_argument("--degree", type=int, default=None, help="series degree (default 100)")
    p.add_argument("--trunc-threshold", type=float, default=None)
    p.add_argument("--out", default=None, help="output file (default bounds.csv)")

    p = sub.add_parser("gradcheck", help="finite-difference audit of one scheme")
    _add_common(p)
    p.add_argument(
        "--scheme",
        choices=tuple(_GRADCHECK_TOLERANCES),
        default=None,
        help="isqrt = Newton-Schulz forward and backward",
    )
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--cond", type=float, default=None, help="target condition number")
    p.add_argument("--topn", type=int, default=None)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--trunc-threshold", type=float, default=None)
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--loss", choices=("sum", "trace", "random-linear"), default=None)
    p.add_argument("--out", default=None, help="JSON report path (default stdout)")

    p = sub.add_parser("condition", help="condition numbers of covariances")
    _add_common(p, table_output=True)
    p.add_argument("--input", default=None, help="feature file (GCPF binary)")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--out", default=None, help="output file (default condition.csv)")

    p = sub.add_parser("train-toy", help="hybrid protocol on the synthetic task")
    _add_common(p)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--n", type=int, default=None, help="spatial samples per example")
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--samples", type=int, default=None, help="dataset size")
    p.add_argument("--task", choices=("balanced", "fine-grained"), default=None)
    p.add_argument(
        "--backward",
        choices=("ordinary", "topn", "trunc", "taylor", "pade", "newton"),
        default=None,
        help="scheme after the swap",
    )
    p.add_argument("--topn", type=int, default=None)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--trunc-threshold", type=float, default=None)
    p.add_argument("--iters", type=int, default=None, help="Newton-Schulz iterations")
    p.add_argument("--switch-frac", type=float, default=None, help="1.0 = never switch")
    p.add_argument("--warmup-frac", type=float, default=None)
    p.add_argument(
        "--lr-schedule", type=_parse_lr_schedule, default=None,
        help='e.g. "0:0.08,192:0.008"',
    )
    p.add_argument("--init-cond", type=float, default=None)
    p.add_argument("--out", default=None, help="JSON-lines log (default train_log.jsonl)")
    return parser


class _Resolver:
    """Flag > config file > (for the seed) environment > hard default."""

    def __init__(self, args):
        self.args = args
        self.file = io.read_config_file(args.config) if args.config else {}

    def get(self, key, conv, default):
        flag = getattr(self.args, key.replace("-", "_"), None)
        if flag is not None:
            return flag
        if key in self.file:
            try:
                return conv(self.file[key])
            except ValueError as err:
                raise InvalidInputError(
                    f"config value {key}={self.file[key]!r} is malformed"
                ) from err
        return default

    def seed(self) -> int:
        seed = self.get("seed", int, None)
        if seed is not None:
            return seed
        env = os.environ.get(SEED_ENV_VAR)
        return int(env) if env else 0


def _parse_float_list(text) -> tuple:
    return tuple(float(v) for v in str(text).split(",") if v.strip())


def _parse_int_list(text) -> tuple:
    return tuple(int(v) for v in str(text).split(",") if v.strip())


def _parse_lr_schedule(text) -> tuple:
    pairs = []
    for part in str(text).split(","):
        step, _, lr = part.partition(":")
        pairs.append((int(step), float(lr)))
    return tuple(pairs)


def _scheme_from_flags(name, res) -> BackwardScheme:
    if name == "ordinary":
        return BackwardScheme.ordinary()
    if name == "topn":
        return BackwardScheme.topn(res.get("topn", int, None))
    if name == "trunc":
        return BackwardScheme.trunc(res.get("trunc-threshold", float, 1e10))
    if name == "taylor":
        return BackwardScheme.taylor(res.get("degree", int, 100))
    if name == "pade":
        return BackwardScheme.pade(res.get("degree", int, 100))
    if name in ("newton", "isqrt"):
        return BackwardScheme.newton_schulz(res.get("iters", int, 10))
    raise InvalidInputError(f"unknown scheme {name!r}")


def _write_table(path, fmt, header, rows, config) -> None:
    """Write a table as CSV (config as preamble) or JSON, then report the path."""
    if fmt == "csv":
        io.write_csv(path, header, rows, preamble=config)
    else:
        io.write_json(path, {"config": config, "header": header, "rows": rows})
    print(f"wrote {path}")


def _table_rows(table):
    header = ["ratio"] + [f"deg{k}" for k in table.degrees]
    rows = [[r] + list(table.errors[i]) for i, r in enumerate(table.ratios)]
    return header, rows


def cmd_approx_table(args) -> int:
    res = _Resolver(args)
    seed = res.seed()
    kind = res.get("kind", str, "both")
    degrees = res.get("degrees", _parse_int_list, DEFAULT_DEGREES)
    ratios = res.get("ratios", _parse_float_list, DEFAULT_RATIOS)
    prec = Precision(res.get("precision", str, "double"))
    fmt = res.get("format", str, "csv")
    outdir = Path(res.get("out", str, "."))
    outdir.mkdir(parents=True, exist_ok=True)

    kinds = ("taylor", "pade") if kind == "both" else (kind,)
    for k in kinds:
        table = approximation_error_table(k, degrees, ratios, prec)
        header, rows = _table_rows(table)
        config = {
            "command": "approx-table",
            "kind": k,
            "degrees": ",".join(map(str, degrees)),
            "ratios": ",".join(io.format_number(r) for r in ratios),
            "precision": prec.mode,
            "seed": seed,
        }
        _write_table(outdir / f"approx_{k}.{fmt}", fmt, header, rows, config)
    return EXIT_OK


_BOUNDS_ORDER = ("pade", "taylor", "trunc", "topn", "newton_schulz", "ordinary")


def cmd_bounds(args) -> int:
    res = _Resolver(args)
    seed = res.seed()
    degree = res.get("degree", int, 100)
    threshold = res.get("trunc-threshold", float, 1e10)
    prec = Precision(res.get("precision", str, "double"))
    fmt = res.get("format", str, "csv")
    out = Path(res.get("out", str, f"bounds.{fmt}"))

    schemes = {
        "pade": BackwardScheme.pade(degree),
        "taylor": BackwardScheme.taylor(degree),
        "trunc": BackwardScheme.trunc(threshold),
        "topn": BackwardScheme.topn(),
        "newton_schulz": BackwardScheme.newton_schulz(),
        "ordinary": BackwardScheme.ordinary(),
    }
    header = ["scheme", "analytic_form", "max_value", "trigger", "single_safe"]
    rows = []
    for name in _BOUNDS_ORDER:
        bound = gradient_upper_bound(schemes[name], prec)
        rows.append(
            [name, bound.analytic_form, bound.max_value, bound.trigger, bound.single_safe]
        )
    config = {
        "command": "bounds",
        "degree": degree,
        "trunc_threshold": threshold,
        "precision": prec.mode,
        "seed": seed,
    }
    _write_table(out, fmt, header, rows, config)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    res = _Resolver(args)
    seed = res.seed()
    scheme_name = res.get("scheme", str, "ordinary")
    d = res.get("d", int, 8)
    n = res.get("n", int, 4 * d)
    cond = res.get("cond", float, 10.0)
    loss_kind = res.get("loss", str, "sum")
    rng = np.random.default_rng(seed)

    x = feature_matrix_with_spectrum(spectrum_for_condition(d, cond), n, rng)
    scheme = _scheme_from_flags(scheme_name, res)
    if scheme_name == "isqrt":
        cfg = GcpLayerConfig.newton_schulz(scheme.iterations)
    else:
        cfg = GcpLayerConfig.eig(scheme)
    report = grad_check(cfg, x, loss_kind=loss_kind, seed=seed)
    tol = _GRADCHECK_TOLERANCES[scheme_name]
    passed = report.passes(tol)

    payload = {
        "config": {
            "command": "gradcheck",
            "scheme": scheme_name,
            "d": d,
            "n": n,
            "cond": cond,
            "loss": loss_kind,
            "seed": seed,
        },
        "report": report.to_dict(),
        "tolerance": tol,
        "passed": passed,
    }
    out = res.get("out", str, None)
    if out:
        io.write_json(out, payload)
        print(f"wrote {out}")
    else:
        print(json.dumps(io._jsonable(payload), indent=2))
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_condition(args) -> int:
    res = _Resolver(args)
    seed = res.seed()
    fmt = res.get("format", str, "csv")
    out = Path(res.get("out", str, f"condition.{fmt}"))
    prec = Precision(res.get("precision", str, "double"))
    source = res.get("input", str, None)

    if source:
        blocks = io.read_feature_file(source)
    else:
        d = res.get("d", int, 8)
        n = res.get("n", int, 32)
        count = res.get("count", int, 16)
        rng = np.random.default_rng(seed)
        blocks = [gaussian_features(d, n, rng).data for _ in range(count)]

    values = []
    flags = []
    for block in blocks:
        e = clamp_eigenvalues(eigh(covariance(FeatureMatrix(block))), prec)
        cn = condition_number(e)
        values.append(cn.value)
        flags.append(cn.ill_conditioned)

    config = {
        "command": "condition",
        "source": source or "synthetic",
        "count": len(blocks),
        "precision": prec.mode,
        "seed": seed,
        "summary_mean": float(np.mean(values)),
        "summary_max": float(np.max(values)),
        "ill_fraction": float(np.mean(flags)),
    }
    header = ["index", "condition_number", "ill_conditioned"]
    rows = [[i, v, f] for i, (v, f) in enumerate(zip(values, flags))]
    _write_table(out, fmt, header, rows, config)
    return EXIT_OK


def cmd_train_toy(args) -> int:
    res = _Resolver(args)
    seed = res.seed()
    steps = res.get("steps", int, 240)
    d = res.get("d", int, 8)
    n = res.get("n", int, 32)
    batch = res.get("batch", int, 8)
    samples = res.get("samples", int, 240)
    task_kind = res.get("task", str, "balanced").replace("-", "_")
    backward = res.get("backward", str, "pade")
    switch_frac = res.get("switch-frac", float, 0.6)
    warmup_frac = res.get("warmup-frac", float, 0.05)
    init_cond = res.get("init-cond", float, 1e4)
    iters = res.get("iters", int, 5)
    out = res.get("out", str, "train_log.jsonl")
    lr_schedule = res.get(
        "lr-schedule",
        _parse_lr_schedule,
        ((0, 0.08), (max(1, int(0.8 * steps)), 0.008)),
    )

    spec = ToyModelSpec(
        d=d,
        raw_dim=d,
        n_cols=n,
        forward_iterations=iters,
        init_condition=init_cond,
        init_seed=seed,
    )
    switch_step = None if switch_frac >= 1.0 else int(switch_frac * steps)
    schedule = HybridSchedule(
        post_switch_scheme=_scheme_from_flags(backward, res),
        switch_step=switch_step,
        warmup_steps=int(warmup_frac * steps),
        lr_schedule=lr_schedule,
    )
    task = make_toy_task(spec, samples, seed=seed + 1, kind=task_kind)
    stream = batch_stream(task, batch, steps, seed=seed + 2)
    log = run_hybrid_training(spec, schedule, stream)

    config = {
        "type": "config",
        "command": "train-toy",
        "steps": steps,
        "d": d,
        "n": n,
        "batch": batch,
        "samples": samples,
        "task": task_kind,
        "backward": backward,
        "switch_step": switch_step,
        "warmup_steps": schedule.warmup_steps,
        "lr_schedule": [list(p) for p in lr_schedule],
        "init_cond": init_cond,
        "iters": iters,
        "seed": seed,
    }
    records = [config]
    records += [{"type": "step", **r.to_dict()} for r in log.records]
    records.append(
        {
            "type": "status",
            "status": log.status,
            "failure_step": log.failure_step,
            "failure_reason": log.failure_reason,
            "final_loss": log.final_loss,
        }
    )
    io.write_jsonl(out, records)
    print(f"wrote {out} ({log.status})")
    return EXIT_OK if log.status == "completed" else EXIT_DIVERGED


_COMMANDS = {
    "approx-table": cmd_approx_table,
    "bounds": cmd_bounds,
    "gradcheck": cmd_gradcheck,
    "condition": cmd_condition,
    "train-toy": cmd_train_toy,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except InvalidInputError as err:
        print(f"specgrad: invalid input: {err}", file=sys.stderr)
        return EXIT_BAD_FLAGS
    except OSError as err:
        print(f"specgrad: i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
