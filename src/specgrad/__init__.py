"""Differentiable matrix square root with selectable backward gradient schemes.

The package pairs two forward square-root methods (exact eigendecomposition
and coupled Newton-Schulz iteration) with six backward rules (ordinary
analytic, top-n, truncation, Taylor, Pade, Newton-Schulz), plus the
standalone power-iteration gradient, the Pade approximant machinery behind
the rational scheme, a hybrid training protocol, and a CLI harness that
reproduces the desk-scale tables.
"""

from .core import (
    EPS_DOUBLE,
    EPS_SINGLE,
    ILL_CONDITIONED_THRESHOLD,
    ConditionNumber,
    EigenDecomposition,
    FeatureMatrix,
    Precision,
    SymPsdMatrix,
    clamp_eigenvalues,
    condition_number,
    covariance,
    eigh,
    matrix_power,
)
from .errors import (
    DegenerateInputError,
    DomainError,
    InvalidInputError,
    NumericalFailureError,
    PoleError,
)
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
from .newton_schulz import NewtonSchulzTrace, ns_backward, ns_forward, ns_gradient_of_x
from .pade import (
    ApproximationErrorTable,
    PadeApproximant,
    PowerSeries,
    approximation_error_table,
    diagonal_degrees,
    eval_rational,
    geometric_series,
    pade_from_continued_fraction,
    pade_from_series,
    reciprocal_gap_pade,
    series_match_residual,
)
from .schemes import (
    BackwardScheme,
    GradBound,
    KMatrix,
    PowerIterationTrace,
    beta_smoothness,
    grad_covariance,
    grad_eigvec_eigval,
    gradient_upper_bound,
    k_matrix,
    pi_gradient,
    power_iteration,
)
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
