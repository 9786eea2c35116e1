"""Span recording around the package's public functions, and per-layer metrics.

A :class:`Tracer` keeps spans in memory as ``[name, start, end, parent]``
rows (``parent`` is the index of the enclosing span, or -1). While
:meth:`Tracer.installed` is active, the functions listed in :data:`TARGETS`
are replaced, in the modules that call them, by wrappers that open a span on
entry and close it on exit; leaving the block puts the originals back.
Workloads open their own spans (training steps, ``grad_check`` calls) with
:meth:`Tracer.open` and :meth:`Tracer.close`.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time
from collections import defaultdict

import numpy as np

#: (module, attribute, span name). Each function is patched where its caller
#: looks it up, so ``training.eigh`` (the condition-number solve) and
#: ``layer.eigh`` (the forward solve) record under different names.
TARGETS = (
    ("specgrad.layer", "covariance", "core.covariance"),
    ("specgrad.layer", "eigh", "core.eigh"),
    ("specgrad.layer", "clamp_eigenvalues", "core.clamp_eigenvalues"),
    ("specgrad.layer", "count_clamped", "core.count_clamped"),
    ("specgrad.layer", "matrix_power", "core.matrix_power"),
    ("specgrad.layer", "k_matrix", "schemes.k_matrix"),
    ("specgrad.layer", "grad_covariance", "schemes.grad_covariance"),
    ("specgrad.layer", "ns_forward", "newton_schulz.ns_forward"),
    ("specgrad.layer", "ns_backward", "newton_schulz.ns_backward"),
    ("specgrad.layer", "ns_gradient_of_x", "newton_schulz.ns_gradient_of_x"),
    ("specgrad.layer", "gcp_forward", "layer.gcp_forward"),
    ("specgrad.layer", "gcp_backward", "layer.gcp_backward"),
    ("specgrad.training", "eigh", "training.cond_eigh"),
    ("specgrad.training", "gcp_forward", "layer.gcp_forward"),
    ("specgrad.training", "gcp_backward", "layer.gcp_backward"),
    ("specgrad.schemes", "reciprocal_gap_pade", "pade.reciprocal_gap_pade"),
)

#: Per-layer metrics: name -> (unit, better). Times are per traced round and
#: scaled like the end-to-end ones; counts are per traced round. The comment
#: after each says which end-to-end metric it should move, on which workload
#: (round_s and op_ms.p50 unless named; "pool-*" means pool-eig and pool-ns).
PER_LAYER = {
    # eigh in the forward and for training's logged condition number: every
    # workload but pool-ns, which must not move with it
    "core.eigh.ms": ("ms", "lower"),
    "core.eigh.calls": ("count", "lower"),
    # eigh results a backward consumes (one per k_matrix call) / eigh calls:
    # train-hybrid only
    "core.eigh.useful_frac": ("ratio", "higher"),
    "core.covariance.ms": ("ms", "lower"),  # pool-*; negligible at d=8
    # clamp_eigenvalues + count_clamped + matrix_power: pool-eig
    "core.clamp_power.ms": ("ms", "lower"),
    # pool-eig and the exact phase of train-hybrid; not audit
    "schemes.k_matrix.ms": ("ms", "lower"),
    "schemes.grad_covariance.ms": ("ms", "lower"),
    "schemes.k_nonfinite": ("count", "lower"),  # non-finite K entries; 0 today
    # pool-ns and the NS phase of train-hybrid; not pool-eig
    "newton_schulz.ns_forward.ms": ("ms", "lower"),
    "newton_schulz.ns_backward.ms": ("ms", "lower"),
    "newton_schulz.ns_gradient_of_x.ms": ("ms", "lower"),  # chain to X: pool-*
    "newton_schulz.ns_forward.calls": ("count", "lower"),  # NS traces built
    # traces a backward consumes / traces built: audit (1 of 513 per pairing)
    "newton_schulz.trace_useful_frac": ("ratio", "higher"),
    # layer span minus child spans (validation, dataclass construction):
    # train-hybrid and audit
    "layer.gcp_forward.self_ms": ("ms", "lower"),
    "layer.gcp_backward.self_ms": ("ms", "lower"),
    "layer.grad_check.forwards": ("count", "lower"),  # audit only
    "layer.grad_check.self_ms": ("ms", "lower"),  # audit only
    # time in the Pade builder during the traced set-up, where the one real
    # build happens (later calls are cache hits): setup_s
    "pade.reciprocal_gap_pade.ms": ("ms", "lower"),
    # step minus layer spans, and step time by phase: train-hybrid
    "training.step.self_ms": ("ms", "lower"),
    "training.ns_step_ms.p50": ("ms", "lower"),
    "training.eig_step_ms.p50": ("ms", "lower"),
    # eigh calls made only for the logged condition number: train-hybrid
    "training.cond_eigh.calls": ("count", "lower"),
    # median traced round / median untraced round - 1
    "trace.overhead_frac": ("ratio", "lower"),
}

_NAME, _START, _END, _PARENT = range(4)


class Tracer:
    """In-memory span recorder with install/restore of the wrappers."""

    def __init__(self):
        self.spans: list = []
        self.k_nonfinite = 0
        self._stack: list = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][_END] = time.perf_counter()
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx][_NAME]!r} closed out of order")
        self._stack.pop()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if name == "schemes.k_matrix":
                self.k_nonfinite += int(np.count_nonzero(~np.isfinite(out.data)))
            return out

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        saved = []
        try:
            for module_name, attr, span in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(span, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def to_json(self) -> list:
        return [
            {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
        ]


def self_times(spans: list) -> list:
    """Duration of each span minus the part of it its children cover.

    Summed as the gaps between children, so roundoff cannot make it negative.
    """
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[_PARENT] >= 0:
            children[span[_PARENT]].append(idx)
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        own = 0.0
        cursor = start
        for c in sorted(children[idx], key=lambda i: spans[i][_START]):
            if spans[c][_START] > cursor:
                own += min(spans[c][_START], end) - cursor
            cursor = min(max(cursor, spans[c][_END]), end)
        if end > cursor:
            own += end - cursor
        out.append(own)
    return out


def layer_metrics(
    tracer: Tracer, rounds: int, setup_spans: list, split_step: int | None, scale: float
) -> dict:
    """Per-layer metrics, each a total per traced round.

    ``setup_spans`` are the spans recorded during the traced set-up; only the
    Pade build is read from them, because that is where its cost lands.
    ``split_step`` is the training step at which the forward switches to the
    eigendecomposition, or None for workloads that do not train. Every time
    is multiplied by ``scale``, the factor to the reference machine speed.
    """
    spans = tracer.spans
    own = self_times(spans)
    total = defaultdict(float)
    self_total = defaultdict(float)
    calls = defaultdict(int)
    grad_check_forwards = 0
    step_ms = []
    for idx, (name, start, end, parent) in enumerate(spans):
        total[name] += end - start
        self_total[name] += own[idx]
        calls[name] += 1
        under_grad_check = parent >= 0 and spans[parent][_NAME] == "layer.grad_check"
        if name == "layer.gcp_forward" and under_grad_check:
            grad_check_forwards += 1
        if name == "training.step":
            step_ms.append(1e3 * scale * (end - start))

    def ms(*names):
        return 1e3 * scale * sum(total[n] for n in names) / rounds

    def self_ms(name):
        return 1e3 * scale * self_total[name] / rounds

    def frac(num, den):
        return num / den if den else 0.0

    eigh_calls = calls["core.eigh"] + calls["training.cond_eigh"]
    ns_steps, eig_steps = [], []
    if split_step is not None and step_ms:
        per_round = len(step_ms) // rounds
        for i, v in enumerate(step_ms):
            (ns_steps if i % per_round < split_step else eig_steps).append(v)
    pade_setup = sum(e - s for n, s, e, _ in setup_spans if n == "pade.reciprocal_gap_pade")
    return {
        "core.eigh.ms": ms("core.eigh", "training.cond_eigh"),
        "core.eigh.calls": eigh_calls / rounds,
        "core.eigh.useful_frac": frac(calls["schemes.k_matrix"], eigh_calls),
        "core.covariance.ms": ms("core.covariance"),
        "core.clamp_power.ms": ms(
            "core.clamp_eigenvalues", "core.count_clamped", "core.matrix_power"
        ),
        "schemes.k_matrix.ms": ms("schemes.k_matrix"),
        "schemes.grad_covariance.ms": ms("schemes.grad_covariance"),
        "schemes.k_nonfinite": tracer.k_nonfinite / rounds,
        "newton_schulz.ns_forward.ms": ms("newton_schulz.ns_forward"),
        "newton_schulz.ns_backward.ms": ms("newton_schulz.ns_backward"),
        "newton_schulz.ns_gradient_of_x.ms": ms("newton_schulz.ns_gradient_of_x"),
        "newton_schulz.ns_forward.calls": calls["newton_schulz.ns_forward"] / rounds,
        "newton_schulz.trace_useful_frac": frac(
            calls["newton_schulz.ns_backward"], calls["newton_schulz.ns_forward"]
        ),
        "layer.gcp_forward.self_ms": self_ms("layer.gcp_forward"),
        "layer.gcp_backward.self_ms": self_ms("layer.gcp_backward"),
        "layer.grad_check.forwards": grad_check_forwards / rounds,
        "layer.grad_check.self_ms": self_ms("layer.grad_check"),
        "pade.reciprocal_gap_pade.ms": 1e3 * scale * pade_setup,
        "training.step.self_ms": self_ms("training.step"),
        "training.ns_step_ms.p50": statistics.median(ns_steps) if ns_steps else 0.0,
        "training.eig_step_ms.p50": statistics.median(eig_steps) if eig_steps else 0.0,
        "training.cond_eigh.calls": calls["training.cond_eigh"] / rounds,
    }
