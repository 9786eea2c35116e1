"""specgrad benchmark: end-to-end metrics per workload, per-layer metrics traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-hybrid --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

A run builds its inputs from ``--seed``, sets up (import, input generation,
one warm-up call per pairing), then runs whole rounds of the workload (see
``workloads.py``) while another round fits in ``--seconds``, and finally
checks every output. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where ``attempted`` and
``failed`` count operations (training steps, audit pairings, pool samples).
The line before it starts with ``report `` and holds the details: the
workload's own metric names, the tail percentile with its sample count, the
known numerical facts, and the machine (cores, numpy, BLAS and its threads,
commit). The exit code is 1 when a check fails.

Every time reported is wall time scaled to a reference machine speed: the
reference kernel of ``calibrate.py`` runs before each operation and after
the last, and each operation's time is multiplied by the kernel's nominal
time over its measured time around that operation. The raw wall times are
in the report line.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:

- ``setup_s``: median of three set-ups, this process's and two fresh
  processes', each timed from before the package import to the end of the
  warm-up.
- ``peak_rss_mb``: peak resident memory of this process after the rounds.
- ``round_s``: median time of one round (one 240-step training run, the
  seven audit pairings, five d=128 exact samples, eight d=256 NS samples).
- ``op_ms.p50``: median time of one operation.

``--trace 1`` alternates untraced and traced rounds (at least one of each),
reports the per-layer metrics of ``spans.py`` for the traced rounds, and the
tracing overhead as the ratio of the median traced to untraced round time,
minus one. Spans are written to ``perfbench/out/``.

``--workload all`` runs every workload in its own process and prints each
metric under the workload's own name (``train_step_ms.p50``, ``audit_s``,
...) with its unit; it exits 1 if any workload fails a check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOAD_NAMES = ("train-hybrid", "audit", "pool-eig", "pool-ns")
#: One BLAS thread unless the caller chose otherwise. On a small machine a
#: second BLAS thread spin-waits whenever any other process takes a core,
#: which turned single d=128 eigensolves from 0.45 s into 20 s.
BLAS_THREADS = "1"
SETUP_PROBES = 2
SETUP_KERNEL_RUNS = 5
CHILD_TIMEOUT_S = 170

#: each workload's own names for the end-to-end values (see ``_named``)
NAMED = {
    "train-hybrid": {"train_step_ms.p50": "p50", "train_step_ms.tail": "tail"},
    "audit": {"audit_s": "round"},
    "pool-eig": {"pool_eig_ms.p50": "p50"},
    "pool-ns": {"pool_ns_ms.p50": "p50", "pool_ns_ms.tail": "tail"},
}


def _import_package():
    """Import specgrad from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "specgrad" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no specgrad sources under {src}")
    sys.path.insert(0, str(src))
    import specgrad

    if Path(specgrad.__file__).resolve().parent != (src / "specgrad").resolve():
        raise SystemExit(f"perfbench: specgrad imported from {specgrad.__file__}")


def set_up(name: str, seed: int):
    """Import, input generation and warm-up, then the reference kernel.

    Returns the workload, its calibrator, and the set-up time raw and scaled
    to the reference speed by the median of a few kernel runs right after.
    """
    start = time.perf_counter()
    _import_package()
    import calibrate
    import workloads

    wl = workloads.WORKLOADS[name](seed)
    wl.warm_up()
    raw = time.perf_counter() - start
    cal = calibrate.Calibrator(*wl.calibration)
    for _ in range(SETUP_KERNEL_RUNS):
        cal()
    scaled = raw * cal.nominal_s / statistics.median(cal.samples)
    cal.samples.clear()
    return wl, cal, raw, scaled


def _probe_setup(name: str, seed: int) -> tuple:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return tuple(json.loads(out.stdout.strip().splitlines()[-1]))


def tail(values: list):
    """Highest whole percentile with at least 10 samples beyond it.

    Returns (percentile, value), or (None, None) below 20 samples, where that
    percentile would not lie above the median.
    """
    n = len(values)
    q = math.floor(100 * (1 - 10 / n)) if n else 0
    if q <= 50:
        return None, None
    return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def machine() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "commit": _commit(),
    }


def _blas_threads(np):
    """Thread count reported by the OpenBLAS bundled with numpy, if found."""
    import ctypes
    import glob

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _commit():
    if not (ROOT / ".git").exists():
        return None  # an exported checkout carries no history
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _rounds(wl, cal, seconds: float, tracer=None):
    """Run whole rounds while another one fits in ``seconds``.

    Returns lists of (raw op times, scaled op times), one entry per round:
    untraced rounds, and traced rounds. With a tracer, rounds alternate
    between the two, at least one of each; without one, all are untraced.
    """
    plain, traced = [], []
    start = time.perf_counter()
    i = 0
    while True:
        first = len(cal.samples)
        if tracer is not None and i % 2:
            with tracer.installed():
                durations = wl.run_round(tracer, between=cal)
            into = traced
        else:
            durations = wl.run_round(between=cal)
            into = plain
        into.append((durations, cal.scaled(durations, cal.samples[first:])))
        i += 1
        if time.perf_counter() - start + sum(durations) > seconds and (
            tracer is None or i >= 2
        ):
            return plain, traced


def _round_times(rounds: list, scaled: bool) -> list:
    return [sum(r[1] if scaled else r[0]) for r in rounds]


def run_traced(name: str, seed: int, seconds: float):
    _import_package()
    import calibrate
    import spans
    import workloads

    setup_tracer = spans.Tracer()
    with setup_tracer.installed():
        wl = workloads.WORKLOADS[name](seed)
        wl.warm_up()
    cal = calibrate.Calibrator(*wl.calibration)
    tracer = spans.Tracer()
    plain, traced = _rounds(wl, cal, seconds, tracer)
    # per-layer times are scaled to the reference speed like the end-to-end ones
    scale = statistics.median(sum(s) / sum(r) for r, s in traced)
    per_layer = spans.layer_metrics(
        tracer, len(traced), setup_tracer.spans, wl.split_step, scale
    )
    per_layer["trace.overhead_frac"] = (
        statistics.median(_round_times(traced, True))
        / statistics.median(_round_times(plain, True))
        - 1.0
    )
    metrics = {k: {"value": v, "unit": spans.PER_LAYER[k][0]} for k, v in per_layer.items()}
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"trace-{name}-seed{seed}.json"
    spans_file.write_text(json.dumps(
        {"setup": setup_tracer.to_json(), "rounds": tracer.to_json()}
    ))
    details = {
        "untraced_round_s": _round_times(plain, True),
        "traced_round_s": _round_times(traced, True),
        "raw_to_reference_scale": scale,
        "spans_file": str(spans_file.relative_to(ROOT)),
    }
    return wl, metrics, details


def run_untraced(name: str, seed: int, seconds: float):
    wl, cal, raw, scaled = set_up(name, seed)
    setups = [(raw, scaled)] + [_probe_setup(name, seed) for _ in range(SETUP_PROBES)]
    rounds, _ = _rounds(wl, cal, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    op_ms = [1e3 * v for _, scaled_ops in rounds for v in scaled_ops]
    raw_op_ms = [1e3 * v for raw_ops, _ in rounds for v in raw_ops]
    q, tail_ms = tail(op_ms)
    values = {
        "setup_s": statistics.median(s for _, s in setups),
        "peak_rss_mb": peak_rss_mb,
        "round_s": statistics.median(_round_times(rounds, True)),
        "op_ms.p50": statistics.median(op_ms),
    }
    units = {"setup_s": "s", "peak_rss_mb": "MB", "round_s": "s", "op_ms.p50": "ms"}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    details = {
        "named": _named(name, values, tail_ms, q, len(op_ms)),
        "rounds": len(rounds),
        "ops": len(op_ms),
        "tail": {"percentile": q, "value_ms": tail_ms, "samples": len(op_ms)},
        "raw": {
            "setup_s": [r for r, _ in setups],
            "round_s": statistics.median(_round_times(rounds, False)),
            "op_ms.p50": statistics.median(raw_op_ms),
        },
        "kernel_s": {"nominal": cal.nominal_s, "median": statistics.median(cal.samples)},
    }
    return wl, metrics, details


def run_one(name: str, seed: int, seconds: float, traced: bool) -> int:
    run = run_traced if traced else run_untraced
    wl, metrics, details = run(name, seed, seconds)
    attempted, failed, facts = wl.check()
    details.update(
        workload=name, seed=seed, seconds=seconds, trace=int(traced),
        failed_frac=failed / attempted, facts=facts, machine=machine(),
    )
    correct = failed == 0
    print("report " + json.dumps(details))
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


def _named(name: str, values: dict, tail_ms, q, samples: int) -> dict:
    """End-to-end values under the workload's own metric names, with units."""
    source = {
        "p50": (values["op_ms.p50"], "ms"),
        "tail": (tail_ms, f"ms (p{q} of {samples})"),
        "round": (values["round_s"], "s"),
    }
    out = {
        "setup_s": (values["setup_s"], "s"),
        "peak_rss_mb": (values["peak_rss_mb"], "MB"),
    }
    out.update({metric: source[kind] for metric, kind in NAMED[name].items()})
    return out


def run_all(seed: int, seconds: float, traced: bool) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or len(lines) < 2:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        report = json.loads(lines[-2].removeprefix("report "))
        result = json.loads(lines[-1])
        status |= proc.returncode
        print(f"== {name} (seed {seed}, correct={result['correct']}, "
              f"failed {result['failed']}/{result['attempted']})")
        rows = dict(report.get("named", {}))
        rows["failed_frac"] = (report["failed_frac"], "ratio")
        if traced:
            rows = {k: (m["value"], m["unit"]) for k, m in result["metrics"].items()}
        for metric, (value, unit) in rows.items():
            print(f"  {metric:36s} {value!s:>24}  {unit}")
        for fact, value in report["facts"].items():
            print(f"  fact {fact}: {value}")
    print("machine " + json.dumps(machine()))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", BLAS_THREADS)  # before numpy loads
    if args.setup_probe:
        print(json.dumps(set_up(args.workload, args.seed)[2:]))
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
