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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    FeatureMatrix,
    _require_finite,
    _trusted,
    clamp_eigenvalues,
    condition_number,
    eigh,
)
from .errors import InvalidInputError, NumericalFailureError
from .layer import (
    DOUBLE,
    GcpLayerConfig,
    gcp_backward,
    gcp_forward,
    grad_from_upper_triangle,
    upper_triangle_vector,
)
from .schemes import BackwardScheme

MOMENTUM = 0.9


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
        if self.warmup_steps < 0:
            raise InvalidInputError("warmup_steps must be non-negative")
        sched = tuple((int(s), float(lr)) for s, lr in self.lr_schedule)
        if not sched or sched[0][0] != 0:
            raise InvalidInputError("lr schedule must start at step 0")
        steps = [s for s, _ in sched]
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise InvalidInputError("lr schedule steps must be strictly increasing")
        if any(lr <= 0 for _, lr in sched):
            raise InvalidInputError("learning rates must be positive")
        if self.switch_step is not None:
            if self.switch_step < 0:
                raise InvalidInputError("switch_step must be non-negative")
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
        if (
            self.switch_step is not None
            and self.switch_step <= step < self.switch_step + self.warmup_steps
        ):
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
    n_classes: int = 3
    forward_iterations: int = 5
    init_condition: float = 1e4
    init_seed: int = 0

    def __post_init__(self):
        if self.d < 2 or self.raw_dim < self.d or self.n_cols < 2:
            raise InvalidInputError("need raw_dim >= d >= 2 and n_cols >= 2")
        if self.n_classes < 2:
            raise InvalidInputError("need at least two classes")
        if self.init_condition < 1:
            raise InvalidInputError("init_condition must be >= 1")


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
        w2 = np.zeros((spec.n_classes, n_feat))
        b2 = np.zeros(spec.n_classes)
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


def class_scale_profiles(raw_dim: int, n_classes: int, kind: str) -> np.ndarray:
    if kind == "balanced":
        profiles = np.full((n_classes, raw_dim), 0.7)
        for c in range(n_classes):
            profiles[c, c::n_classes] = 1.6
        return profiles
    if kind == "fine_grained":
        profiles = np.ones((n_classes, raw_dim))
        lead = max(1, raw_dim - n_classes + 1)
        profiles[:, :lead] = 4.0
        for c in range(1, n_classes):
            profiles[c, lead + c - 1] = 1.8
        return profiles
    raise InvalidInputError(f"unknown task kind {kind!r}")


def make_toy_task(
    spec: ToyModelSpec, samples: int, seed: int = 0, kind: str = "balanced"
) -> ToyTask:
    rng = np.random.default_rng(seed)
    profiles = class_scale_profiles(spec.raw_dim, spec.n_classes, kind)
    labels = rng.integers(0, spec.n_classes, size=samples)
    inputs = rng.normal(size=(samples, spec.raw_dim, spec.n_cols))
    inputs *= profiles[labels][:, :, None]
    return ToyTask(inputs, labels)


def batch_stream(task: ToyTask, batch_size: int, steps: int, seed: int = 0):
    """Seeded generator of (inputs, labels) batches, one per training step."""
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        idx = rng.integers(0, task.n_samples, size=batch_size)
        yield task.inputs[idx], task.labels[idx]


@dataclass(frozen=True)
class StepRecord:
    step: int
    loss: float
    accuracy: float
    mean_condition_number: float
    scheme: str
    lr: float

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "loss": self.loss,
            "accuracy": self.accuracy,
            "mean_condition_number": self.mean_condition_number,
            "scheme": self.scheme,
            "lr": self.lr,
        }


@dataclass
class TrainingLog:
    records: list
    status: str  # "completed" | "diverged"
    failure_step: int | None = None
    failure_reason: str | None = None
    final_model: "ToyModel | None" = None

    @property
    def final_loss(self) -> float:
        return self.records[-1].loss if self.records else float("nan")

    def mean_condition(self, lo: int, hi: int) -> float:
        chunk = [r.mean_condition_number for r in self.records[lo:hi]]
        return float(np.mean(chunk)) if chunk else float("nan")

    def error_rate(self, tail: int) -> float:
        chunk = [r.accuracy for r in self.records[-tail:]]
        return 1.0 - float(np.mean(chunk)) if chunk else float("nan")


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max()
    e = np.exp(shifted)
    return e / e.sum()


def _classify(model: ToyModel, cfg: GcpLayerConfig, r: np.ndarray, y: int):
    """Pooled forward of one example through the classifier.

    Returns the layer cache, the pooled vector, the class probabilities, the
    cross-entropy loss, and whether the prediction hit the label.
    """
    features = model.w1 @ r
    _require_finite(features, "features w1 @ r", model.w1)
    q, cache = gcp_forward(_trusted(FeatureMatrix, data=features), cfg)
    v = upper_triangle_vector(q)
    logits = model.w2 @ v + model.b2
    prob = _softmax(logits)
    loss = -float(np.log(max(prob[y], 1e-300)))
    return cache, v, prob, loss, int(np.argmax(logits) == y)


def _batch_pass(model: ToyModel, cfg: GcpLayerConfig, rb: np.ndarray, yb: np.ndarray):
    """Loss, accuracy, mean covariance condition, and parameter gradients.

    Overflow is allowed to flow through as inf/nan; the caller detects it and
    records the divergence instead of crashing. A non-finite product that
    would reach the layer (features, covariance, loss gradient at Q) raises
    ``NumericalFailureError`` instead, which the caller records the same way.
    """
    batch = rb.shape[0]
    d = model.w1.shape[0]
    dw1 = np.zeros_like(model.w1)
    dw2 = np.zeros_like(model.w2)
    db2 = np.zeros_like(model.b2)
    loss = 0.0
    hits = 0
    conds = []
    for r, y in zip(rb, yb):
        cache, v, prob, sample_loss, hit = _classify(model, cfg, r, y)
        e = cache.eig if cache.eig is not None else clamp_eigenvalues(eigh(cache.p), DOUBLE)
        conds.append(condition_number(e).value)
        loss += sample_loss
        hits += hit
        dlogits = prob.copy()
        dlogits[y] -= 1.0
        dw2 += np.outer(dlogits, v)
        db2 += dlogits
        gq = grad_from_upper_triangle(model.w2.T @ dlogits, d)
        _require_finite(gq, "loss gradient at Q", model.w2)
        gx = gcp_backward(cache, gq)
        dw1 += gx @ r.T
    scale = 1.0 / batch
    return (
        loss * scale,
        hits * scale,
        float(np.mean(conds)),
        (dw1 * scale, dw2 * scale, db2 * scale),
    )


def run_hybrid_training(
    model_spec: ToyModelSpec, schedule: HybridSchedule, data_stream
) -> TrainingLog:
    """Run the protocol over the stream; the log is the experimental record.

    A non-finite loss or gradient aborts the run with the log written up to
    the failure, which is itself a valid outcome for divergence-prone schemes.
    """
    model = ToyModel.initialize(model_spec)
    ns_cfg = GcpLayerConfig.newton_schulz(model_spec.forward_iterations)
    velocity = {
        "w1": np.zeros_like(model.w1),
        "w2": np.zeros_like(model.w2),
        "b2": np.zeros_like(model.b2),
    }
    records: list = []
    for step, (rb, yb) in enumerate(data_stream):
        if schedule.switched(step):
            cfg = GcpLayerConfig.eig(schedule.post_switch_scheme)
        else:
            cfg = ns_cfg
        lr = schedule.effective_lr(step)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                loss, acc, mean_cond, (dw1, dw2, db2) = _batch_pass(model, cfg, rb, yb)
        except NumericalFailureError as err:
            return TrainingLog(records, "diverged", step, str(err), model)
        grads_finite = all(
            np.all(np.isfinite(g)) for g in (dw1, dw2, db2)
        ) and np.isfinite(loss)
        records.append(
            StepRecord(step, loss, acc, mean_cond, cfg.label, lr)
        )
        if not grads_finite:
            return TrainingLog(
                records, "diverged", step, "non-finite loss or gradient", model
            )
        for name, grad, param in (
            ("w1", dw1, model.w1),
            ("w2", dw2, model.w2),
            ("b2", db2, model.b2),
        ):
            velocity[name] = MOMENTUM * velocity[name] - lr * grad
            param += velocity[name]
    return TrainingLog(records, "completed", final_model=model)


def evaluate_model(model: ToyModel, cfg: GcpLayerConfig, task: ToyTask) -> tuple[float, float]:
    """Deterministic whole-dataset (mean cross-entropy, error rate)."""
    loss = 0.0
    hits = 0
    for r, y in zip(task.inputs, task.labels):
        _, _, _, sample_loss, hit = _classify(model, cfg, r, y)
        loss += sample_loss
        hits += hit
    n = task.n_samples
    return loss / n, 1.0 - hits / n
