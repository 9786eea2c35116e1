"""Hybrid training protocol on a small synthetic classification task.

The protocol trains with the Newton-Schulz square root while the network is
far from converged (and covariances are poorly conditioned), then swaps in
the exact eigendecomposition forward with a configurable backward scheme,
holds the learning rate for a warm-up window, and finishes through the
remaining decays.

The toy model is deliberately minimal: one trainable linear map produces the
feature block (so gradients flow through the pooling layer into weights),
followed by covariance square-root pooling and a linear softmax classifier.
Classes differ in their second-order statistics, which is the only signal the
pooled representation can carry.

Stacks: both phases run each batch as one stack, one ``gcp_forward`` and one
``gcp_backward`` call, and ``evaluate_model`` pools the whole task in one
``gcp_forward``. The classifier head takes the stack too. Each of its steps
works within a sample, the gradients sum over the batch axis in sample order
and the losses add one by one, so every value is bit-identical to a pass
over one sample at a time. A failed check of a stack reports its first
failing sample with that sample's own figures, as a pass over that sample
alone would; when samples fail at different checks, the stack raises the
earliest check's error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import FeatureMatrix, _non_negative, _positive, _require_finite, clamp_eigenvalues, eigh
from .errors import InvalidInputError, NumericalFailureError
from .layer import (
    GcpLayerConfig,
    _trusted,
    gcp_backward,
    gcp_forward,
    grad_from_upper_triangle,
    upper_triangle_vector,
)
from .newton_schulz import DEFAULT_ITERATIONS
from .schemes import BackwardScheme

MOMENTUM = 0.9
#: classes of the synthetic task, the paper's 3-class toy problem
N_CLASSES = 3


def _step_rate_pairs(schedule) -> list:
    """The (step, rate) entries of an ``lr_schedule``; anything but pairs is invalid input."""
    try:
        return [(step, rate) for step, rate in schedule]
    except (TypeError, ValueError):
        raise InvalidInputError(
            f"lr schedule must be a sequence of (step, rate) pairs, got {schedule!r}"
        ) from None


@dataclass(frozen=True)
class HybridSchedule:
    """When to swap square-root methods and how the learning rate moves.

    ``switch_step`` of None keeps the Newton-Schulz configuration for the
    whole run (the pure approximate-root baseline). During the warm-up window
    after the swap the learning rate is pinned at its pre-switch value even if
    the schedule would already have decayed.
    """

    post_switch_scheme: BackwardScheme
    switch_step: int | None
    warmup_steps: int = 0
    lr_schedule: tuple = ((0, 0.05),)

    def __post_init__(self):
        if not isinstance(self.post_switch_scheme, BackwardScheme):
            raise InvalidInputError(
                f"post_switch_scheme must be a BackwardScheme, got {self.post_switch_scheme!r}"
            )
        warmup = _non_negative(self.warmup_steps, "warmup_steps")
        object.__setattr__(self, "warmup_steps", warmup)
        if self.switch_step is not None:
            switch = _non_negative(self.switch_step, "switch_step")
            object.__setattr__(self, "switch_step", switch)
        sched = tuple(
            (_non_negative(s, "lr schedule step"), _positive(lr, "lr schedule rate", float))
            for s, lr in _step_rate_pairs(self.lr_schedule)
        )
        if not sched or sched[0][0] != 0:
            raise InvalidInputError("lr schedule must start at step 0")
        steps = [s for s, _ in sched]
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise InvalidInputError("lr schedule steps must be strictly increasing")
        if not all(lr < np.inf for _, lr in sched):
            raise InvalidInputError("learning rates must be positive and finite")
        if self.switch_step is not None:
            if len(sched) >= 2 and self.switch_step >= sched[-1][0]:
                raise InvalidInputError(
                    "the swap must happen before the final learning-rate decay"
                )
        object.__setattr__(self, "lr_schedule", sched)

    def base_lr(self, step: int) -> float:
        lr = self.lr_schedule[0][1]
        for s, rate in self.lr_schedule:
            if step >= s:
                lr = rate
        return lr

    def effective_lr(self, step: int) -> float:
        if self.switched(step) and step < self.switch_step + self.warmup_steps:
            return self.base_lr(self.switch_step)
        return self.base_lr(step)

    def switched(self, step: int) -> bool:
        return self.switch_step is not None and step >= self.switch_step


@dataclass(frozen=True)
class ToyModelSpec:
    """Dimensions and initialization of the linear -> pooling -> linear model.

    The feature map starts near rank one: every row is a shared direction plus
    a perturbation of size 1/sqrt(init_condition), so early covariances are
    badly conditioned. Separating several classes through second-order
    statistics needs multiple independent feature directions, which pushes
    training to decorrelate the rows and drives the condition number down as
    the model converges.
    """

    d: int = 8
    raw_dim: int = 8
    n_cols: int = 32
    forward_iterations: int = DEFAULT_ITERATIONS
    init_condition: float = 1e4
    init_seed: int = 0

    def __post_init__(self):
        for name in ("d", "raw_dim", "n_cols", "forward_iterations"):
            object.__setattr__(self, name, _positive(getattr(self, name), name))
        if self.d < 2 or self.raw_dim < self.d or self.n_cols < 2:
            raise InvalidInputError("need raw_dim >= d >= 2 and n_cols >= 2")
        if not 1 <= _positive(self.init_condition, "init_condition", float) < np.inf:
            raise InvalidInputError("init_condition must be finite and >= 1")
        object.__setattr__(self, "init_seed", _non_negative(self.init_seed, "init_seed"))


@dataclass
class ToyModel:
    w1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    @classmethod
    def initialize(cls, spec: ToyModelSpec) -> "ToyModel":
        rng = np.random.default_rng(spec.init_seed)
        shared = rng.normal(size=(spec.d, 1))
        shared /= np.linalg.norm(shared)
        direction = rng.normal(size=(1, spec.raw_dim))
        direction /= np.linalg.norm(direction)
        wobble = 1.0 / np.sqrt(spec.init_condition)
        w1 = shared @ direction + wobble * rng.normal(
            size=(spec.d, spec.raw_dim)
        ) / np.sqrt(spec.raw_dim)
        n_feat = spec.d * (spec.d + 1) // 2
        w2 = np.zeros((N_CLASSES, n_feat))
        b2 = np.zeros(N_CLASSES)
        return cls(w1, w2, b2)


@dataclass(frozen=True)
class ToyTask:
    """Synthetic classification samples: per-class covariance structure.

    The ``balanced`` variant spreads class-specific variance boosts across all
    input dimensions. The ``fine_grained`` variant gives every class the same
    dominant directions and hides the label signal in the smallest-variance
    dimensions, the regime where discarding small eigenvalues destroys the
    class information.
    """

    inputs: np.ndarray = field(repr=False)  # (samples, raw_dim, n_cols)
    labels: np.ndarray = field(repr=False)

    @property
    def n_samples(self) -> int:
        return self.labels.size


def class_scale_profiles(raw_dim: int, kind: str) -> np.ndarray:
    if kind == "balanced":
        profiles = np.full((N_CLASSES, raw_dim), 0.7)
        for c in range(N_CLASSES):
            profiles[c, c::N_CLASSES] = 1.6
        return profiles
    if kind == "fine_grained":
        if raw_dim < N_CLASSES:
            raise InvalidInputError(f"fine_grained needs raw_dim >= {N_CLASSES}, got {raw_dim}")
        profiles = np.ones((N_CLASSES, raw_dim))
        lead = raw_dim - N_CLASSES + 1
        profiles[:, :lead] = 4.0
        for c in range(1, N_CLASSES):
            profiles[c, lead + c - 1] = 1.8
        return profiles
    raise InvalidInputError(f"unknown task kind {kind!r}")


def make_toy_task(
    spec: ToyModelSpec, samples: int, seed: int = 0, kind: str = "balanced"
) -> ToyTask:
    samples = _positive(samples, "samples")
    rng = np.random.default_rng(_non_negative(seed, "seed"))
    profiles = class_scale_profiles(spec.raw_dim, kind)
    labels = rng.integers(0, N_CLASSES, size=samples)
    inputs = rng.normal(size=(samples, spec.raw_dim, spec.n_cols))
    inputs *= profiles[labels][:, :, None]
    return ToyTask(inputs, labels)


def batch_stream(task: ToyTask, batch_size: int, steps: int, seed: int = 0):
    """Seeded generator of (inputs, labels) batches, one per training step.

    A batch size or step count that is not a positive int, or a seed that is
    not a non-negative int, is refused on the call, not at the first batch,
    so a stream is never empty.
    """
    batch_size = _positive(batch_size, "batch size")
    steps = _positive(steps, "steps")
    rng = np.random.default_rng(_non_negative(seed, "seed"))
    draws = (rng.integers(0, task.n_samples, size=batch_size) for _ in range(steps))
    return ((task.inputs[idx], task.labels[idx]) for idx in draws)


@dataclass(frozen=True)
class StepRecord:
    step: int
    loss: float
    accuracy: float
    mean_condition_number: float
    scheme: str
    lr: float

@dataclass
class TrainingLog:
    records: list
    status: str  # "completed" | "diverged"
    failure_step: int | None = None
    failure_reason: str | None = None
    final_model: "ToyModel | None" = None

    @property
    def final_loss(self) -> float | None:
        return self.records[-1].loss if self.records else None


def _head(model: ToyModel, q: np.ndarray, yb: np.ndarray):
    """Classifier head on a (B, d, d) stack of pooled Q and its B labels.

    Returns each sample's cross-entropy loss and whether its prediction hit
    the label, the gradient at its logits, and its pooled vector. Each
    sample gets the bits of a head run on it alone: the logits are one gemv
    per sample, and every other step works within a sample.
    """
    v = upper_triangle_vector(q)
    logits = np.matmul(model.w2, v[..., None])[..., 0]
    logits += model.b2
    # the ufunc reductions of ``max`` and ``sum`` without their Python
    # wrappers; each later step works in place on the fresh array before it
    prob = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    np.exp(prob, out=prob)
    prob /= np.add.reduce(prob, axis=-1, keepdims=True)
    picked = np.arange(yb.size), yb
    hit = prob[picked]
    losses = np.maximum(hit, 1e-300)
    np.log(losses, out=losses)
    np.negative(losses, out=losses)
    hit -= 1.0
    prob[picked] = hit  # now the loss gradient at the logits
    return losses, logits.argmax(axis=-1) == yb, prob, v


def _sum_in_order(losses: np.ndarray) -> float:
    """The losses added one by one from 0.0, in sample order; ``np.sum`` adds
    pairwise and changes the bits."""
    total = 0.0
    for loss in losses.tolist():
        total += loss
    return total


def _pool(model: ToyModel, cfg: GcpLayerConfig, r: np.ndarray):
    """Features ``w1 @ r`` through the layer: Q and the cache, of one example or a stack."""
    features = model.w1 @ r
    _require_finite(features, "features w1 @ r", model.w1)
    return gcp_forward(_trusted(FeatureMatrix, data=features), cfg)


def _clamped_eigenvalues(cache) -> np.ndarray:
    """Each sample's clamped eigenvalues from a stacked cache, for its logged condition number.

    The exact forward's cache holds them; the Newton-Schulz forward solves
    none, so each sample's covariance gets one ``eigh`` here, then the clamp.
    """
    if cache.eigenvalues is not None:
        return cache.eigenvalues
    return clamp_eigenvalues(np.array([eigh(p)[0] for p in cache.p.data]))


def _batch_pass(model: ToyModel, cfg: GcpLayerConfig, rb: np.ndarray, yb: np.ndarray):
    """Loss, accuracy, mean covariance condition, and parameter gradients of a batch.

    One ``gcp_forward`` and one ``gcp_backward`` carry the whole (B, raw_dim,
    N) stack, and the head takes it in one pass; the gradients sum each
    sample's over the batch axis in sample order. A non-finite product (the
    features, the covariance, the loss gradient at Q, or a batch gradient)
    raises ``NumericalFailureError`` naming it; a stacked product gives the
    figures of its first failing sample. The loss needs no check: each
    sample's is at most -log(1e-300), and a non-finite softmax already fails
    the check at Q.
    """
    q, cache = _pool(model, cfg, rb)
    lam = _clamped_eigenvalues(cache)
    losses, hits, dlogits, v = _head(model, q.data, yb)
    # one gemv per sample, as for the logits
    gq = grad_from_upper_triangle(np.matmul(model.w2.T, dlogits[..., None])[..., 0], q.d)
    _require_finite(gq, "loss gradient at Q", model.w2)
    dw1 = gcp_backward(cache, gq) @ rb.mT
    scale = 1.0 / yb.size
    # the ufunc of ``sum``, scaled in place: the bits of ``g.sum(axis=0) * scale``
    grads = tuple(
        np.add.reduce(g, axis=0) for g in (dw1, dlogits[:, :, None] * v[:, None, :], dlogits)
    )
    for name, grad, param in zip(("w1", "w2", "b2"), grads, (model.w1, model.w2, model.b2)):
        grad *= scale
        _require_finite(grad, f"batch gradient at {name}", param)
    cond = lam[:, 0] / lam[:, -1]
    # sum, then divide: the arithmetic of ``np.mean`` without its Python wrappers
    mean_cond = float(np.add.reduce(cond) / cond.size)
    return _sum_in_order(losses) * scale, np.count_nonzero(hits) * scale, mean_cond, grads


def run_hybrid_training(
    model_spec: ToyModelSpec, schedule: HybridSchedule, data_stream
) -> TrainingLog:
    """Run the protocol over the stream; the log is the experimental record.

    A ``NumericalFailureError`` from a step aborts the run with a
    ``diverged`` log of the steps before it, which is itself a valid outcome
    for divergence-prone schemes.
    """
    model = ToyModel.initialize(model_spec)
    ns_cfg = GcpLayerConfig.newton_schulz(model_spec.forward_iterations)
    eig_cfg = GcpLayerConfig.eig(schedule.post_switch_scheme)
    ns_label, eig_label = ns_cfg.label, eig_cfg.label
    params = (model.w1, model.w2, model.b2)
    velocity = [np.zeros_like(param) for param in params]
    records: list = []
    for step, (rb, yb) in enumerate(data_stream):
        cfg, label = (eig_cfg, eig_label) if schedule.switched(step) else (ns_cfg, ns_label)
        lr = schedule.effective_lr(step)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                loss, acc, mean_cond, grads = _batch_pass(model, cfg, rb, yb)
        except NumericalFailureError as err:
            return TrainingLog(records, "diverged", step, str(err), model)
        records.append(StepRecord(step, loss, acc, mean_cond, label, lr))
        for param, v, grad in zip(params, velocity, grads):
            # in place, rounding exactly as MOMENTUM * v - lr * grad
            v *= MOMENTUM
            grad *= lr
            v -= grad
            param += v
    return TrainingLog(records, "completed", final_model=model)


def evaluate_model(model: ToyModel, cfg: GcpLayerConfig, task: ToyTask) -> tuple[float, float]:
    """Deterministic whole-dataset (mean cross-entropy, error rate).

    The whole task is pooled by one stacked ``gcp_forward`` and goes through
    the head as one stack. A failed check raises the error of the first
    sample that fails it.
    """
    losses, hits, *_ = _head(model, _pool(model, cfg, task.inputs)[0].data, task.labels)
    n = task.n_samples
    return _sum_in_order(losses) / n, 1.0 - int(hits.sum()) / n
