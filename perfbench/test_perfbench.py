"""Properties of the benchmark's tracing: counts that repeat exactly for one
seed, spans that nest, and wrappers that leave the package as they found it.

Run from the root of a checkout:  python3 -m pytest perfbench
"""

import importlib
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

COUNTS = (
    "core.eigh.calls",
    "training.cond_eigh.calls",
    "layer.grad_check.forwards",
    "newton_schulz.ns_forward.calls",
    "schemes.k_nonfinite",
)


def traced_round(name: str, seed: int):
    setup = spans.Tracer()
    with setup.installed():
        wl = workloads.WORKLOADS[name](seed)
        wl.warm_up()
    tracer = spans.Tracer()
    with tracer.installed():
        wl.run_round(tracer)
    return tracer, spans.layer_metrics(tracer, 1, setup.spans, wl.split_step, 1.0)


@pytest.fixture(scope="module")
def runs():
    return {name: [traced_round(name, 3) for _ in range(2)] for name in ("train-hybrid", "audit")}


def test_counts_repeat_exactly(runs):
    for name, ((_, first), (_, second)) in runs.items():
        for key in COUNTS:
            assert first[key] == second[key], (name, key)
    train = runs["train-hybrid"][0][1]
    assert train["training.cond_eigh.calls"] == 144 * 8  # NS phase, one per sample
    assert train["core.eigh.calls"] == 240 * 8
    assert train["schemes.k_nonfinite"] == 0
    audit = runs["audit"][0][1]
    assert audit["layer.grad_check.forwards"] == 7 * (2 * 8 * 32 + 1)
    assert audit["newton_schulz.ns_forward.calls"] == 2 * (2 * 8 * 32 + 1)


def test_children_inside_parents_and_self_times_nonnegative(runs):
    for pair in runs.values():
        for tracer, _ in pair:
            rows = tracer.spans
            assert rows
            for _, start, end, parent in rows:
                assert start <= end
                if parent >= 0:
                    _, parent_start, parent_end, _ = rows[parent]
                    assert parent_start <= start and end <= parent_end
            assert min(spans.self_times(rows)) >= 0.0


def test_wrappers_restore_originals_even_on_error():
    def bound():
        return [getattr(importlib.import_module(m), attr) for m, attr, _ in spans.TARGETS]

    before = bound()
    with pytest.raises(ZeroDivisionError):
        with spans.Tracer().installed():
            assert all(a is not b for a, b in zip(bound(), before))
            1 / 0
    assert all(a is b for a, b in zip(bound(), before))
