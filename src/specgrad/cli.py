"""Command-line harness: desk-scale tables, gradient audits, toy training.

Subcommands:
  approx-table   Taylor / Pade approximation-error grids (CSV or JSON)
  bounds         per-scheme analytic gradient upper bounds
  gradcheck      finite-difference audit of one configuration
  condition      condition numbers of covariances from a feature file or synthetic
  train-toy      hybrid training protocol on the synthetic 3-class task

Exit codes: 0 success, 1 check failure, 2 training divergence, 3 numerical
failure outside training (overflow of a product of valid input, an
eigensolver that did not converge, a Pade pole), 64 bad flags or invalid
input, 74 I/O error. All randomness flows from --seed (fallback: config
file, then the SPECGRAD_SEED environment variable).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np

from . import io
from .core import FeatureMatrix, Precision, clamp_eigenvalues, condition_number, covariance, eigh
from .errors import InvalidInputError, NumericalFailureError
from .layer import EIG_SQRT, NEWTON_SCHULZ, GcpLayerConfig, grad_check
from .pade import approximation_error_table
from .schemes import SCHEME_PARAMS, BackwardScheme, gradient_upper_bound
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
EXIT_NUMERICAL_FAILURE = 3
EXIT_BAD_FLAGS = 64
EXIT_IO = 74

SEED_ENV_VAR = "SPECGRAD_SEED"

DEFAULT_DEGREES = (50, 100, 200, 300)
DEFAULT_RATIOS = (0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999)

#: What one --scheme / --backward name selects: the backward kind, the flag
#: of its parameter, gradcheck's tolerance, and the forward it pairs with.
_CliScheme = namedtuple("_CliScheme", "kind flag tolerance forward", defaults=(EIG_SQRT,))
_SCHEMES = {
    "ordinary": _CliScheme("ordinary", None, 1e-5),
    "topn": _CliScheme("topn", "topn", 1e-4),
    "trunc": _CliScheme("trunc", "trunc-threshold", 1e-4),
    "taylor": _CliScheme("taylor", "degree", 1e-4),
    "pade": _CliScheme("pade", "degree", 1e-4),
    "newton": _CliScheme("newton_schulz", "iters", 1e-4),
    "isqrt": _CliScheme("newton_schulz", "iters", 1e-4, NEWTON_SCHULZ),
}
_SCHEME_FLAGS = tuple(dict.fromkeys(s.flag for s in _SCHEMES.values() if s.flag))


class _Parser(argparse.ArgumentParser):
    """Exits 64 on bad flags and hands each command its flags' ``choices``.

    The choices reach the namespace as ``flag_choices`` so that ``_Resolver``
    can hold config-file values to the same sets as flags.
    """

    def __init__(self, *args, **kwargs):
        self.flag_choices = {}
        super().__init__(*args, **kwargs)
        self.set_defaults(flag_choices=self.flag_choices)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.choices is not None:
            self.flag_choices[action.dest] = action.choices
        return action

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
    p.add_argument("--kind", choices=("taylor", "pade", "both"), default=None)
    p.add_argument(
        "--degrees", type=_parse_int_list, default=None,
        help="comma list, default 50,100,200,300",
    )
    p.add_argument("--ratios", type=_parse_float_list, default=None, help="comma list in [0,1)")
    p.add_argument("--out", default=None, help="output directory (default .)")

    p = sub.add_parser("bounds", help="gradient upper bounds per scheme")
    _add_common(p, table_output=True)
    p.add_argument(
        "--degree", type=int, default=None,
        help=f"series degree (default {SCHEME_PARAMS['pade'].default})",
    )
    p.add_argument("--trunc-threshold", type=float, default=None)
    p.add_argument("--out", default=None, help="output file (default bounds.csv)")

    p = sub.add_parser("gradcheck", help="finite-difference audit of one scheme")
    _add_common(p)
    p.add_argument(
        "--scheme",
        choices=tuple(_SCHEMES),
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
        choices=tuple(n for n, s in _SCHEMES.items() if s.forward == EIG_SQRT),
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
        dest = key.replace("-", "_")
        flag = getattr(self.args, dest, None)
        if flag is not None:
            return flag
        if key in self.file:
            try:
                value = conv(self.file[key])
            except ValueError as err:
                raise InvalidInputError(
                    f"config value {key}={self.file[key]!r} is malformed"
                ) from err
            choices = self.args.flag_choices.get(dest)
            if choices is not None and value not in choices:
                raise InvalidInputError(
                    f"config value {key}={self.file[key]!r} is not one of "
                    f"{', '.join(choices)}"
                )
            return value
        return default

    def seed(self) -> int:
        seed = self.get("seed", int, None)
        if seed is not None:
            return seed
        env = os.environ.get(SEED_ENV_VAR)
        if not env:
            return 0
        try:
            return int(env)
        except ValueError as err:
            raise InvalidInputError(f"{SEED_ENV_VAR}={env!r} is not an integer") from err


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


def _scheme_from_flags(name, res, also_read=()) -> BackwardScheme:
    """The scheme ``name`` selects, its parameter from flag, config or default.

    Another scheme's parameter flag is rejected unless the command reads it
    otherwise; config entries are not, since one file may serve several
    commands. A command without the scheme's flag uses the default.
    """
    entry = _SCHEMES[name]
    for flag in _SCHEME_FLAGS:
        given = getattr(res.args, flag.replace("-", "_"), None) is not None
        if given and flag not in (entry.flag, *also_read):
            raise InvalidInputError(f"--{flag} is not read by scheme {name}")
    spec = SCHEME_PARAMS[entry.kind]
    if spec is None or not hasattr(res.args, entry.flag.replace("-", "_")):
        return BackwardScheme(entry.kind, spec.default if spec else None)
    return BackwardScheme(entry.kind, res.get(entry.flag, spec.type, spec.default))


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


_BOUNDS_ORDER = ("pade", "taylor", "trunc", "topn", "newton", "ordinary")


def cmd_bounds(args) -> int:
    res = _Resolver(args)
    seed = res.seed()
    prec = Precision(res.get("precision", str, "double"))
    fmt = res.get("format", str, "csv")
    out = Path(res.get("out", str, f"bounds.{fmt}"))

    schemes = [_scheme_from_flags(name, res, _SCHEME_FLAGS) for name in _BOUNDS_ORDER]
    params = {s.kind: s.param for s in schemes}
    header = ["scheme", "analytic_form", "max_value", "trigger", "single_safe"]
    rows = []
    for scheme in schemes:
        bound = gradient_upper_bound(scheme, prec)
        rows.append(
            [scheme.kind, bound.analytic_form, bound.max_value, bound.trigger, bound.single_safe]
        )
    config = {
        "command": "bounds",
        "degree": params["pade"],
        "trunc_threshold": params["trunc"],
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

    entry = _SCHEMES[scheme_name]
    cfg = GcpLayerConfig(_scheme_from_flags(scheme_name, res), entry.forward)

    x = feature_matrix_with_spectrum(spectrum_for_condition(d, cond), n, rng)
    report = grad_check(cfg, x, loss_kind=loss_kind, seed=seed)
    tol = entry.tolerance
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
    # --iters sets the forward iterations, so every backward reads it
    post_switch = _scheme_from_flags(backward, res, also_read=("iters",))
    if post_switch.kind == "newton_schulz":
        # one Newton-Schulz iteration count per run, forward and backward
        post_switch = BackwardScheme.newton_schulz(iters)
    schedule = HybridSchedule(
        post_switch_scheme=post_switch,
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
        # numpy's floating-point warnings would precede the one-line report
        # of the typed error each such operation leads to
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args)
    except InvalidInputError as err:
        print(f"specgrad: invalid input: {err}", file=sys.stderr)
        return EXIT_BAD_FLAGS
    except NumericalFailureError as err:
        print(f"specgrad: numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    except OSError as err:
        print(f"specgrad: i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
