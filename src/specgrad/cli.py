"""Command-line harness: desk-scale tables, gradient audits, toy training.

Subcommands:
  approx-table   Taylor / Pade approximation-error grids (CSV or JSON)
  bounds         per-scheme analytic gradient upper bounds
  gradcheck      finite-difference audit of one configuration
  condition      condition numbers of covariances from a feature file or synthetic
  train-toy      hybrid training protocol on the synthetic 3-class task

Each flag's type, choices and default are declared once, in ``build_parser``.
A flag not given takes its --config entry, held to the flag's own type and
choices, else its declared default. Only the commands that draw random
numbers (gradcheck, condition, train-toy) declare --seed; it then falls back
to the SPECGRAD_SEED environment variable, then 0, and must be non-negative.
Three defaults follow other flags: gradcheck --n is 4·d, the --out of bounds
and condition takes the --format suffix, and train-toy --lr-schedule drops
tenfold at 80% of --steps.
Every output records the command, each flag as resolved except --config and
--out, then the values the command derives (``_record``). A flag the run
will not read exits 64 when given and is recorded as null otherwise: another
scheme's parameter, condition --seed/--d/--n/--count with --input, and
train-toy's post-switch flags when --switch-frac is 1 or more.

Exit codes: 0 success, 1 check failure, 2 training divergence, 3 numerical
failure outside training (overflow of a product of valid input, an
eigensolver that did not converge, a Pade pole), 64 bad flags or invalid
input (including a size of zero, an empty list or feature file, and a
non-finite train-toy value), 74 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import namedtuple
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import io
from .core import (
    ILL_CONDITIONED_THRESHOLD,
    FeatureMatrix,
    _positive,
    clamp_eigenvalues,
    condition_number,
    covariance,
    eigh,
)
from .errors import InvalidInputError, NumericalFailureError
from .layer import EIG_SQRT, LOSS_KINDS, NEWTON_SCHULZ, GcpLayerConfig, grad_check
from .newton_schulz import DEFAULT_ITERATIONS
from .pade import approximation_error_table
from .schemes import SCHEME_PARAMS, BackwardScheme, gradient_upper_bound
from .synth import feature_matrix_with_spectrum, gaussian_features, spectrum_for_condition
from .training import (
    N_CLASSES,
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

#: the float width each --precision name selects
_DTYPES = {"single": np.float32, "double": np.float64}

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

#: flags that hold a count, a positive int once set (--topn and gradcheck --n may be None)
_COUNT_FLAGS = ("d", "n", "count", "batch", "samples", "steps", "iters", "degree", "topn")


class _Parser(argparse.ArgumentParser):
    """Exits 64 on bad flags and registers every flag with default None.

    A flag's declared default stays on its action as ``fallback``, so a flag
    that was not given is still detectable and ``_resolve`` can fill it. The
    namespace carries the parser that parsed it as ``parser``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.set_defaults(parser=self)

    def add_argument(self, *args, default=None, **kwargs):
        action = super().add_argument(*args, **kwargs)
        action.fallback = default
        return action

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_FLAGS)


def _add_common(parser, seed=False, table_output=False):
    parser.add_argument("--config", help="key=value file; flags override its entries")
    if seed:
        parser.add_argument("--seed", type=int)
    if table_output:
        parser.add_argument("--format", choices=("csv", "json"), default="csv")
        parser.add_argument("--precision", choices=tuple(_DTYPES), default="double")


def build_parser() -> _Parser:
    parser = _Parser(prog="specgrad", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    degree = SCHEME_PARAMS["pade"].default
    threshold = SCHEME_PARAMS["trunc"].default

    p = sub.add_parser("approx-table", help="approximation error grids")
    _add_common(p, table_output=True)
    p.add_argument("--kind", choices=("taylor", "pade", "both"), default="both")
    p.add_argument(
        "--degrees", type=_parse_int_list, default=DEFAULT_DEGREES,
        help="comma list, default 50,100,200,300",
    )
    p.add_argument(
        "--ratios", type=_parse_float_list, default=DEFAULT_RATIOS, help="comma list in [0,1)"
    )
    p.add_argument("--out", default=".", help="output directory (default .)")

    p = sub.add_parser("bounds", help="gradient upper bounds per scheme")
    _add_common(p, table_output=True)
    p.add_argument("--degree", type=int, default=degree, help=f"series degree (default {degree})")
    p.add_argument("--trunc-threshold", type=float, default=threshold)
    p.add_argument("--out", help="output file (default bounds.csv)")

    p = sub.add_parser("gradcheck", help="finite-difference audit of one scheme")
    _add_common(p, seed=True)
    p.add_argument(
        "--scheme",
        choices=tuple(_SCHEMES),
        default="ordinary",
        help="isqrt = Newton-Schulz forward and backward",
    )
    p.add_argument("--d", type=int, default=8)
    p.add_argument("--n", type=int)
    p.add_argument("--cond", type=float, default=10.0, help="target condition number")
    p.add_argument("--topn", type=int, default=SCHEME_PARAMS["topn"].default)
    p.add_argument("--degree", type=int, default=degree)
    p.add_argument("--trunc-threshold", type=float, default=threshold)
    p.add_argument("--iters", type=int, default=SCHEME_PARAMS["newton_schulz"].default)
    p.add_argument("--loss", choices=LOSS_KINDS, default="sum")
    p.add_argument("--out", help="JSON report path (default stdout)")

    p = sub.add_parser("condition", help="condition numbers of covariances")
    _add_common(p, seed=True, table_output=True)
    p.add_argument("--input", help="feature file (GCPF binary)")
    p.add_argument("--d", type=int, default=8)
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--count", type=int, default=16)
    p.add_argument("--out", help="output file (default condition.csv)")

    p = sub.add_parser("train-toy", help="hybrid protocol on the synthetic task")
    _add_common(p, seed=True)
    p.add_argument("--steps", type=int, default=240)
    p.add_argument("--d", type=int, default=8)
    p.add_argument("--n", type=int, default=32, help="spatial samples per example")
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--samples", type=int, default=240, help="dataset size")
    p.add_argument("--task", choices=("balanced", "fine-grained"), default="balanced")
    p.add_argument(
        "--backward",
        choices=tuple(n for n, s in _SCHEMES.items() if s.forward == EIG_SQRT),
        default="pade",
        help="scheme after the swap",
    )
    p.add_argument("--topn", type=int, default=SCHEME_PARAMS["topn"].default)
    p.add_argument("--degree", type=int, default=degree)
    p.add_argument("--trunc-threshold", type=float, default=threshold)
    p.add_argument(
        "--iters", type=int, default=DEFAULT_ITERATIONS, help="Newton-Schulz iterations"
    )
    p.add_argument("--switch-frac", type=float, default=0.6, help="1.0 = never switch")
    p.add_argument("--warmup-frac", type=float, default=0.05)
    p.add_argument("--lr-schedule", type=_parse_lr_schedule, help='e.g. "0:0.08,192:0.008"')
    p.add_argument("--init-cond", type=float, default=1e4)
    p.add_argument(
        "--out", default="train_log.jsonl", help="JSON-lines log (default train_log.jsonl)"
    )
    return parser


def _resolve(args) -> None:
    """Fill each flag that was not given: its config entry, else its default.

    A config value passes through the flag's own type and choices. A declared
    --seed then falls back to the environment variable, then 0, and a negative
    seed is rejected. ``args.given`` holds the flags given on the command line,
    as config keys (``trunc-threshold``).
    """
    file = io.read_config_file(args.config) if args.config else {}
    flags = {
        action.dest.replace("_", "-"): action
        for action in args.parser._actions
        if action.dest not in ("help", "config")
    }
    args.given = {key for key, action in flags.items() if getattr(args, action.dest) is not None}
    for key, action in flags.items():
        if key in args.given:
            continue
        value = action.fallback
        if key in file:
            raw = file[key]
            try:
                value = action.type(raw) if action.type else raw
            except ValueError as err:
                raise InvalidInputError(f"config value {key}={raw!r} is malformed") from err
            if action.choices is not None and value not in action.choices:
                raise InvalidInputError(
                    f"config value {key}={raw!r} is not one of {', '.join(action.choices)}"
                )
        setattr(args, action.dest, value)
    if "seed" in flags and args.seed is None:
        env = os.environ.get(SEED_ENV_VAR)
        try:
            args.seed = int(env) if env else 0
        except ValueError as err:
            raise InvalidInputError(f"{SEED_ENV_VAR}={env!r} is not an integer") from err
    if "seed" in flags and args.seed < 0:
        raise InvalidInputError(f"seed must be non-negative, got {args.seed}")


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


def _check_flags(args) -> None:
    """Refuse a given flag the run will not read, a count that is not a positive
    int, then a read flag outside the range its relations to other flags allow.

    Unread flags: another scheme's parameter, condition --seed/--d/--n/--count
    with --input, and train-toy's post-switch flags when --switch-frac is 1
    or more. Config entries are exempt, since one file may serve several
    commands; ``_record`` records every unread flag as null. The count rule
    holds config entries too, read or not. A relation is refused under the
    flag's own name, ahead of the library check that would report it.
    """
    groups = {}
    if args.command == "condition" and args.input:
        groups["with --input"] = ("seed", "d", "n", "count")
    if args.command == "train-toy" and args.switch_frac >= 1.0:
        no_switch = ("backward", "topn", "degree", "trunc-threshold", "warmup-frac")
        groups["without a switch (--switch-frac >= 1)"] = no_switch
    name = vars(args).get("scheme") or vars(args).get("backward")
    if name:  # train-toy's --iters also counts the forward's Newton-Schulz steps
        read = (_SCHEMES[name].flag, "iters" if args.command == "train-toy" else None)
        groups[f"by scheme {name}"] = [f for f in _SCHEME_FLAGS if f not in read]
    args.unread = set()
    for reason, flags in groups.items():
        given = [f for f in flags if f in args.given]
        if given:
            raise InvalidInputError(f"--{given[0]} is not read {reason}")
        args.unread.update(f.replace("-", "_") for f in flags)
    for flag in _COUNT_FLAGS:
        if vars(args).get(flag) is not None:
            setattr(args, flag, _positive(getattr(args, flag), f"--{flag}"))
    relations = []  # (flag, holds, requirement), in the order they are refused
    if args.command in ("gradcheck", "train-toy"):
        relations.append(("d", args.d >= 2, "be at least 2"))
    if args.command == "gradcheck" and args.n is not None:
        relations.append(("n", args.n > args.d, f"be greater than --d ({args.d})"))
    if args.command in ("condition", "train-toy"):
        relations.append(("n", args.n >= 2, "be at least 2"))
    if args.command == "train-toy":
        if args.lr_schedule is None:  # the default, read below: tenfold decay at 80% of --steps
            args.lr_schedule = ((0, 0.08), (max(1, int(0.8 * args.steps)), 0.008))
        if args.task == "fine-grained":  # one trailing input dimension per class
            need = f"be at least {N_CLASSES} with --task fine-grained"
            relations.append(("d", args.d >= N_CLASSES, need))
        for flag, low in (("switch-frac", 0), ("warmup-frac", 0), ("init-cond", 1)):
            value = getattr(args, flag.replace("-", "_"))
            bound = f"be at least {low}" if low else "be non-negative"
            relations += [(flag, np.isfinite(value), "be finite"), (flag, value >= low, bound)]
        steps, rates = zip(*args.lr_schedule)
        relations += [
            ("lr-schedule", steps[0] == 0, "start at step 0"),
            ("lr-schedule", np.all(np.diff(steps) > 0), "have strictly increasing steps"),
            ("lr-schedule", all(0 < lr < np.inf for lr in rates), "have positive, finite rates"),
        ]
        if len(args.lr_schedule) >= 2 and 0 <= args.switch_frac < 1:
            swap, decay = int(args.switch_frac * args.steps), args.lr_schedule[-1][0]
            relations.append(("switch-frac", swap < decay, f"be early enough that the swap (step "
                              f"{swap}) precedes the final learning-rate decay (step {decay})"))
    for flag, holds, requirement in relations:
        dest = flag.replace("-", "_")
        if not holds and dest not in args.unread:
            got = getattr(args, dest)
            if dest == "lr_schedule":  # as written on the command line
                got = ",".join(f"{step}:{lr!r}" for step, lr in got)
            raise InvalidInputError(f"--{flag} must {requirement}, got {got}")


def _scheme_from_flags(name, args) -> BackwardScheme:
    """The scheme ``name`` selects, with its parameter flag's resolved value.

    A command without the scheme's flag (``bounds`` has no ``--topn``) uses
    the scheme's default.
    """
    entry = _SCHEMES[name]
    spec = SCHEME_PARAMS[entry.kind]
    if spec is None:
        return BackwardScheme(entry.kind)
    return BackwardScheme(entry.kind, getattr(args, entry.flag.replace("-", "_"), spec.default))


def _record(args, **derived) -> dict:
    """The command, each flag as resolved but --config and --out, then ``derived``.

    An unread flag is null; a derived value replaces its flag's value in place.
    """
    record = {"command": args.command}
    for action in args.parser._actions:
        if action.dest not in ("help", "config", "out"):
            record[action.dest] = None if action.dest in args.unread else getattr(args, action.dest)
    return {**record, **derived}


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
    dtype = _DTYPES[args.precision]
    kinds = ("taylor", "pade") if args.kind == "both" else (args.kind,)
    tables = [approximation_error_table(k, args.degrees, args.ratios, dtype) for k in kinds]
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for table in tables:
        header, rows = _table_rows(table)
        path = outdir / f"approx_{table.kind}.{args.format}"
        _write_table(path, args.format, header, rows, _record(args, kind=table.kind))
    return EXIT_OK


#: the ``bounds`` rows in order: scheme name -> (the bound in the eigenvalues, when it is reached)
_BOUNDS = {
    "pade": ("(1/lambda_i) * sum(p_m) / (1 + sum(q_n))", "lambda_i = lambda_j <= eps"),
    "taylor": ("(K+1)/lambda_i", "lambda_i = lambda_j <= eps"),
    "trunc": ("T", "|1/(lambda_i - lambda_j)| >= T"),
    "topn": ("1/lambda_N", "lambda_N <= eps"),
    "newton": ("no analytic form", "n/a"),
    "ordinary": ("1/(lambda_i - lambda_j)", "lambda_i = lambda_j"),
}


def cmd_bounds(args) -> int:
    out = Path(f"bounds.{args.format}" if args.out is None else args.out)
    header = ["scheme", "analytic_form", "max_value", "trigger", "single_safe"]
    limit = float(np.finfo(np.float32).max)  # a Python float, so that ``<`` gives a JSON bool
    rows = []
    for name, (form, trigger) in _BOUNDS.items():
        scheme = _scheme_from_flags(name, args)
        value = gradient_upper_bound(scheme, _DTYPES[args.precision])
        single_safe = None if value is None else value < limit
        rows.append([scheme.kind, form, value, trigger, single_safe])
    _write_table(out, args.format, header, rows, _record(args))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    n = 4 * args.d if args.n is None else args.n
    entry = _SCHEMES[args.scheme]
    cfg = GcpLayerConfig(_scheme_from_flags(args.scheme, args), entry.forward)

    rng = np.random.default_rng(args.seed)
    x = feature_matrix_with_spectrum(spectrum_for_condition(args.d, args.cond), n, rng)
    report = grad_check(cfg, x, loss_kind=args.loss, seed=args.seed)
    tol = entry.tolerance
    passed = report.passes(tol)

    payload = {
        "config": _record(args, n=n),
        "report": asdict(report),
        "tolerance": tol,
        "passed": passed,
    }
    if args.out:
        io.write_json(args.out, payload)
        print(f"wrote {args.out}")
    else:
        print(io.to_json(payload))
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_condition(args) -> int:
    out = Path(f"condition.{args.format}" if args.out is None else args.out)
    if args.input:
        blocks = io.read_feature_file(args.input)
    else:
        rng = np.random.default_rng(args.seed)
        blocks = [gaussian_features(args.d, args.n, rng).data for _ in range(args.count)]
    if not blocks:
        raise InvalidInputError("no feature blocks to measure")

    values = []
    for block in blocks:
        lam, _ = eigh(covariance(FeatureMatrix(block).data))
        values.append(condition_number(clamp_eigenvalues(lam, _DTYPES[args.precision])))
    flags = [v > ILL_CONDITIONED_THRESHOLD for v in values]

    d, n = blocks[0].shape
    config = _record(
        args, d=d, n=n, count=len(blocks), summary_mean=float(np.mean(values)),
        summary_max=float(np.max(values)), ill_fraction=float(np.mean(flags)),
    )
    header = ["index", "condition_number", "ill_conditioned"]
    rows = [[i, v, f] for i, (v, f) in enumerate(zip(values, flags))]
    _write_table(out, args.format, header, rows, config)
    return EXIT_OK


def cmd_train_toy(args) -> int:
    steps, seed = args.steps, args.seed
    switch_step = None if args.switch_frac >= 1.0 else int(args.switch_frac * steps)
    # without a switch --warmup-frac is unread, so it must not reach the schedule
    warmup_steps = None if switch_step is None else int(args.warmup_frac * steps)

    spec = ToyModelSpec(
        d=args.d,
        raw_dim=args.d,
        n_cols=args.n,
        forward_iterations=args.iters,
        init_condition=args.init_cond,
        init_seed=seed,
    )
    post_switch = _scheme_from_flags(args.backward, args)
    schedule = HybridSchedule(
        post_switch_scheme=post_switch,
        switch_step=switch_step,
        warmup_steps=warmup_steps or 0,
        lr_schedule=args.lr_schedule,
    )
    task = make_toy_task(spec, args.samples, seed=seed + 1, kind=args.task.replace("-", "_"))
    stream = batch_stream(task, args.batch, steps, seed=seed + 2)
    log = run_hybrid_training(spec, schedule, stream)

    config = _record(args, switch_step=switch_step, warmup_steps=warmup_steps)
    records = [{"type": "config", **config}]
    records += [{"type": "step", **asdict(r)} for r in log.records]
    records.append(
        {
            "type": "status",
            "status": log.status,
            "failure_step": log.failure_step,
            "failure_reason": log.failure_reason,
            "final_loss": log.final_loss,
        }
    )
    io.write_jsonl(args.out, records)
    print(f"wrote {args.out} ({log.status})")
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
        _resolve(args)
        _check_flags(args)
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
