"""Differentiable matrix square root with selectable backward gradient schemes.

The package pairs two forward square-root methods (exact eigendecomposition
and coupled Newton-Schulz iteration) with six backward rules (ordinary
analytic, top-n, truncation, Taylor, Pade, Newton-Schulz), plus the Pade
approximant machinery behind the rational scheme, a hybrid training protocol,
and a CLI harness that reproduces the desk-scale tables.

The public API takes a ``FeatureMatrix`` and returns Q as a ``SymPsdMatrix``
with a ``GcpCache`` (``gcp_forward``, ``gcp_backward``, ``grad_check``). The
stage kernels between (``core.covariance``, ``core.eigh``,
``newton_schulz.ns_forward``, ``schemes.k_matrix`` and the rest) trust the
plain arrays they are given, so they are importable from their modules but
not exported here.
"""

from .core import EPS_DOUBLE, EPS_SINGLE, ILL_CONDITIONED_THRESHOLD, FeatureMatrix, SymPsdMatrix
from .errors import InvalidInputError, NumericalFailureError, PoleError
from .layer import (
    GcpCache,
    GcpLayerConfig,
    GradCheckReport,
    gcp_backward,
    gcp_forward,
    grad_check,
    grad_from_upper_triangle,
    upper_triangle_vector,
)
from .pade import (
    PadeApproximant,
    PowerSeries,
    approximation_error_table,
    diagonal_degrees,
    eval_rational,
    geometric_series,
    pade_from_series,
    reciprocal_gap_pade,
)
from .schemes import BackwardScheme, gradient_upper_bound
from .training import (
    HybridSchedule,
    StepRecord,
    ToyModel,
    ToyModelSpec,
    ToyTask,
    TrainingLog,
    batch_stream,
    evaluate_model,
    make_toy_task,
    run_hybrid_training,
)

__version__ = "0.1.0"
