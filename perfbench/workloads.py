"""The benchmark's workloads: seeded inputs, one timed round, output checks.

Every workload is a closed loop with a single caller: the next operation
starts when the previous one returns. A workload is built from a seed
(inputs only; the package never sees the seed), warmed up with one call per
forward/backward pairing, and then runs whole rounds. ``run_round`` returns
the duration of each operation in the round and calls ``between`` before
every operation and after the last one, outside the timed region; output
checks run outside it too, in ``check`` and after each round's timing.
``calibration`` is the (d, repetitions, nominal seconds) of the reference
kernel in ``calibrate.py`` that matches the workload's matrix size.

Why these workloads:

- ``train-hybrid`` is the paper's protocol at the ``train-toy`` defaults:
  thousands of layer calls on 8x8 matrices, so per-call Python overhead and
  the d=8 eigensolve set its cost, in both the Newton-Schulz and the exact
  phase.
- ``audit`` runs the layer forward-only, 2*d*N+1 times per pairing, and the
  backward once: it moves with forward cost and batching, not with the
  backward schemes.
- ``pool-eig`` is one exact forward+backward at d=128 per operation, rotating
  through the five K-matrix schemes; the O(d^3) eigensolve dominates.
- ``pool-ns`` is one NS(5) forward+backward at d=256, the paper's pooling
  width; matmuls dominate and the eigensolver never runs.
"""

from __future__ import annotations

import math
import time

import numpy as np

import specgrad.layer as layer
from specgrad import (
    BackwardScheme,
    FeatureMatrix,
    GcpLayerConfig,
    HybridSchedule,
    NumericalFailureError,
    ToyModel,
    ToyModelSpec,
    batch_stream,
    evaluate_model,
    make_toy_task,
    run_hybrid_training,
)
from specgrad.synth import feature_matrix_with_spectrum, spectrum_for_condition

K_SCHEMES = (
    BackwardScheme.ordinary(),
    BackwardScheme.topn(),
    BackwardScheme.trunc(),
    BackwardScheme.taylor(100),
    BackwardScheme.pade(100),
)

#: Backward schemes whose K matrix departs from 1/(l_i - l_j) by design, so
#: their distance from central differences is reported as data, not checked.
#: Top-n zeroes the block of the dropped eigenvalues at any size. The
#: degree-100 Taylor series is truncated: invisible at the audit's d=8,
#: cond 10 spectrum (eigenvalue ratios <= 0.72), but at d=128 neighbouring
#: eigenvalue ratios reach 0.99 and the truncation shows.
AUDIT_BIASED = ("topn",)
POOL_BIASED = ("topn", "taylor")

#: the tolerances of ``specgrad gradcheck`` for each backward kind
GRADCHECK_TOL = {"ordinary": 1e-5, "newton_schulz": 1e-4}
GRADCHECK_TOL_DEFAULT = 1e-4

#: directional central-difference tolerance for the pooling samples
DIRECTIONAL_TOL = 1e-6
#: ||Q Q - P||_F bound relative to ||P||_F for the exact square root
SQRT_RESIDUAL_TOL = 1e-10
#: criterion 9 of the acceptance suite: final error on the training task
TRAIN_ERROR_BOUND = 0.10


def directional_error(cfg, x: FeatureMatrix, w: np.ndarray, grad_x: np.ndarray, v: np.ndarray):
    """Relative gap between <grad_x, v> and the central difference of <w, Q(x)>.

    The difference is the fourth-order five-point stencil with a step of
    1e-4 max|x|. At d=128 the directional derivative is about 1e-3 of
    <w, Q> itself, so the rounding of the two-point stencil at a 1e-6 step
    reached 6e-7 relative on some seeds, against 3e-11 for the gradient
    measured with LAPACK's forward; this stencil keeps both its truncation
    and its rounding near 1e-9.
    """
    h = 1e-4 * float(np.abs(x.data).max())

    def f(step: float) -> float:
        q, _ = layer.gcp_forward(FeatureMatrix(x.data + step * h * v), cfg)
        return float(np.sum(w * q.data))

    fd = (8.0 * (f(1.0) - f(-1.0)) - (f(2.0) - f(-2.0))) / (12.0 * h)
    analytic = float(np.sum(grad_x * v))
    return abs(analytic - fd) / max(abs(fd), 1e-300)


class TrainHybrid:
    """Hybrid protocol of ``specgrad train-toy`` at its defaults."""

    name = "train-hybrid"
    calibration = (8, 60, 1.3e-3)
    steps = 240
    switch_step = 144  # 0.6 * steps
    split_step = switch_step

    def __init__(self, seed: int):
        self.spec = ToyModelSpec(d=8, raw_dim=8, n_cols=32, init_seed=seed)
        self.task = make_toy_task(self.spec, 240, seed=seed + 1, kind="balanced")
        self.batches = list(batch_stream(self.task, 8, self.steps, seed=seed + 2))
        self.post_switch = GcpLayerConfig.eig(BackwardScheme.pade(100))
        self.schedule = HybridSchedule(
            post_switch_scheme=self.post_switch.backward,
            switch_step=self.switch_step,
            warmup_steps=12,
            lr_schedule=((0, 0.08), (192, 0.008)),
        )
        self.logs: list = []

    def warm_up(self) -> None:
        x = FeatureMatrix(ToyModel.initialize(self.spec).w1 @ self.task.inputs[0])
        for cfg in (GcpLayerConfig.newton_schulz(self.spec.forward_iterations), self.post_switch):
            _, cache = layer.gcp_forward(x, cfg)
            layer.gcp_backward(cache, np.ones((8, 8)))

    def run_round(self, tracer=None, between=None) -> list:
        timer = _StepTimer(self.batches, tracer, between)
        log = run_hybrid_training(self.spec, self.schedule, timer)
        timer.finish()
        self.logs.append(log)
        return timer.durations

    def check(self) -> tuple[int, int, dict]:
        attempted = failed = 0
        errors = []
        for log in self.logs:
            attempted += self.steps
            finite = sum(1 for r in log.records if math.isfinite(r.loss))
            error = math.nan
            if log.status == "completed" and log.final_model is not None:
                _, error = evaluate_model(log.final_model, self.post_switch, self.task)
            errors.append(error)
            if log.status != "completed" or not error <= TRAIN_ERROR_BOUND:
                failed += self.steps
            else:
                failed += self.steps - finite
        return attempted, failed, {"final_eval_error": errors}


class _StepTimer:
    """Iterator over the batches that times each training step.

    A step is the interval between successive pulls, less the ``between``
    call made at each pull; the last step ends at ``finish``, which the
    caller invokes when training returns.
    """

    def __init__(self, batches, tracer, between):
        self._batches = batches
        self._next = 0
        self._tracer = tracer
        self._between = between
        self._open = None
        self.durations: list = []

    def __iter__(self):
        return self

    def _close(self, now: float) -> None:
        if self._open is not None:
            span, start = self._open
            self.durations.append(now - start)
            if self._tracer is not None:
                self._tracer.close(span)
            self._open = None
        if self._between is not None:
            self._between()

    def __next__(self):
        now = time.perf_counter()
        if self._next == len(self._batches):
            raise StopIteration  # the last step ends in finish()
        self._close(now)
        batch = self._batches[self._next]
        self._next += 1
        span = self._tracer.open("training.step") if self._tracer is not None else None
        self._open = (span, time.perf_counter())
        return batch

    def finish(self) -> None:
        self._close(time.perf_counter())


class Audit:
    """``grad_check`` over every legal pairing at the ``gradcheck`` defaults."""

    name = "audit"
    # each operation lasts about a second, so each kernel sample is longer
    calibration = (8, 300, 6.5e-3)
    split_step = None

    def __init__(self, seed: int):
        d, n, cond = 8, 32, 10.0
        self.seed = seed
        self.x = feature_matrix_with_spectrum(
            spectrum_for_condition(d, cond), n, np.random.default_rng(seed)
        )
        self.configs = [GcpLayerConfig.eig(s) for s in K_SCHEMES]
        self.configs.append(GcpLayerConfig.eig(BackwardScheme.newton_schulz(10)))
        self.configs.append(GcpLayerConfig.newton_schulz(5))
        self.reports: list = []

    def warm_up(self) -> None:
        w = np.ones((self.x.d, self.x.d))
        for cfg in self.configs:
            _, cache = layer.gcp_forward(self.x, cfg)
            layer.gcp_backward(cache, w)

    def run_round(self, tracer=None, between=None) -> list:
        durations = []
        for cfg in self.configs:
            if between is not None:
                between()
            start = time.perf_counter()
            span = tracer.open("layer.grad_check") if tracer is not None else None
            report = layer.grad_check(cfg, self.x, loss_kind="sum", seed=self.seed)
            if tracer is not None:
                tracer.close(span)
            durations.append(time.perf_counter() - start)
            self.reports.append((cfg, report))
        if between is not None:
            between()
        return durations

    def check(self) -> tuple[int, int, dict]:
        failed = 0
        facts = {}
        for cfg, report in self.reports:
            kind = cfg.backward.kind
            if kind in AUDIT_BIASED:
                ok = report.n_nonfinite == 0 and math.isfinite(report.max_rel_error)
                facts[f"{cfg.label}.max_rel_error"] = report.max_rel_error
            else:
                ok = report.passes(GRADCHECK_TOL.get(kind, GRADCHECK_TOL_DEFAULT))
            failed += not ok
        return len(self.reports), failed, facts


class _Pool:
    """Per-sample forward+backward over a small bank of seeded features.

    Sample i of every round runs pairing ``i % len(configs)`` on feature
    block ``i % bank_size``, so all rounds do the same work. Each sample is
    checked as soon as its round's timing ends; only the first gradient of
    each pairing is kept, for the directional check.
    """

    split_step = None

    def __init__(self, seed: int, d: int, n: int, configs: list, bank_size: int, samples: int):
        rng = np.random.default_rng(seed)
        self.bank = [FeatureMatrix(rng.normal(size=(d, n))) for _ in range(bank_size)]
        self.w = rng.normal(size=(d, d))
        self.direction = rng.normal(size=(d, n))
        self.configs = configs
        self.plan = [
            (configs[i % len(configs)], self.bank[i % bank_size]) for i in range(samples)
        ]
        self.failed = {cfg.label: 0 for cfg in configs}
        self.attempted = dict.fromkeys(self.failed, 0)
        self.first = {}  # label -> (x, q, p, grad_x) of its first good sample

    def warm_up(self) -> None:
        for cfg in self.configs:
            _, cache = layer.gcp_forward(self.bank[0], cfg)
            layer.gcp_backward(cache, self.w)

    def run_round(self, tracer=None, between=None) -> list:
        durations = []
        outputs = []
        for cfg, x in self.plan:
            if between is not None:
                between()
            start = time.perf_counter()
            q, cache = layer.gcp_forward(x, cfg)
            try:
                grad_x = layer.gcp_backward(cache, self.w)
            except NumericalFailureError:
                grad_x = None
            durations.append(time.perf_counter() - start)
            outputs.append((cfg, x, q, cache.p, grad_x))
        if between is not None:
            between()
        for cfg, x, q, p, grad_x in outputs:
            self.attempted[cfg.label] += 1
            if self._sample_ok(q, p, grad_x):
                self.first.setdefault(cfg.label, (x, q, p, grad_x))
            else:
                self.failed[cfg.label] += 1
        return durations

    def _sample_ok(self, q, p, grad_x) -> bool:
        return grad_x is not None and bool(np.all(np.isfinite(grad_x)))

    def check(self) -> tuple[int, int, dict]:
        """One directional check per pairing on top of the per-sample checks.

        A pairing that fails its directional check fails all its samples.
        """
        facts = {}
        failed = dict(self.failed)
        for cfg in self.configs:
            if cfg.label not in self.first:
                continue  # every sample of this pairing already failed
            x, _, _, grad_x = self.first[cfg.label]
            err = directional_error(cfg, x, self.w, grad_x, self.direction)
            facts[f"{cfg.label}.directional_rel_error"] = err
            if cfg.backward.kind not in POOL_BIASED and not err <= DIRECTIONAL_TOL:
                failed[cfg.label] = self.attempted[cfg.label]
        return sum(self.attempted.values()), sum(failed.values()), facts


class PoolEig(_Pool):
    """Exact forward at d=128, N=512; a round is one sample per K-matrix scheme."""

    name = "pool-eig"
    calibration = (128, 6, 2.0e-3)

    def __init__(self, seed: int):
        configs = [GcpLayerConfig.eig(s) for s in K_SCHEMES]
        super().__init__(seed, 128, 512, configs, bank_size=5, samples=5)

    def _sample_ok(self, q, p, grad_x) -> bool:
        if not super()._sample_ok(q, p, grad_x):
            return False
        residual = np.linalg.norm(q.data @ q.data - p.data)
        return bool(residual <= SQRT_RESIDUAL_TOL * np.linalg.norm(p.data))


class PoolNs(_Pool):
    """NS(5) forward and backward at d=256, N=1024, the paper's pooling width."""

    name = "pool-ns"
    calibration = (256, 1, 2.8e-3)

    def __init__(self, seed: int):
        configs = [GcpLayerConfig.newton_schulz(5)]
        super().__init__(seed, 256, 1024, configs, bank_size=4, samples=8)

    def check(self) -> tuple[int, int, dict]:
        attempted, failed, facts = super().check()
        label = self.configs[0].label
        if label not in self.first:
            return attempted, failed, facts
        # NS(5) is an approximate root: its distance from the exact one, with
        # numpy's LAPACK solver as the reference, is data, not a failure.
        _, q, p, _ = self.first[label]
        mu, u = np.linalg.eigh(p.data)
        exact = (u * np.sqrt(np.clip(mu, 0.0, None))) @ u.T
        facts["ns5_vs_exact_rel_error"] = float(
            np.linalg.norm(q.data - exact) / np.linalg.norm(exact)
        )
        return attempted, failed, facts


WORKLOADS = {cls.name: cls for cls in (TrainHybrid, Audit, PoolEig, PoolNs)}
