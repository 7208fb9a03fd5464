"""Sandwiched Renyi divergences, data-processing saturation, and recovery maps.

Finite-dimensional numerics built on relative modular super-operators:
closed-form and variational divergence evaluation, the compression
isometry behind the data-processing proof, every algebraic saturation
condition with its residual, and the Petz and power-family recovery maps.
"""

from .errors import (
    ConfigInvalid,
    DegenerateWeight,
    DimensionMismatch,
    InvalidAlpha,
    InvalidOrder,
    IoFailure,
    NonConvergence,
    NonHermitian,
    NonSquare,
    NotPositiveDefinite,
    QuadratureFailure,
    RenyiDpiError,
    SingularOutputState,
    SingularResolvent,
)
from .linalg import (
    EPS_POS,
    SpectralDecomposition,
    dagger,
    frobenius,
    herm_part,
    hermitian_eig,
    matrix_from_json,
    matrix_power_psd,
    matrix_to_json,
    partial_trace,
    product_power,
    schatten_norm,
    trace_distance,
    trace_norm,
    vectorize,
)
from .quantum import (
    DensityMatrix,
    KrausChannel,
    StinespringIsometry,
    ginibre,
    identity_channel,
    partial_trace_channel,
    random_channel,
    random_density,
    random_isometry,
    stinespring_dilate,
    stream,
)
from .modular import (
    DEFAULT_T_GRID,
    CompressionIsometry,
    RelativeModularOperator,
    ResolventDefect,
    compressed_power_residual,
    compression_identity_residual,
    jensen_commutator_norm,
    quadratic_form,
    quadratic_form_superop,
    resolvent_defect,
)
from .divergence import (
    OptimizerConfig,
    OptimizerResult,
    closed_form_optimizer,
    dpi_gap,
    integral_power_quadrature,
    integral_representation_check,
    petz_renyi,
    relative_entropy,
    sandwiched_renyi,
    variational_value,
)
from .equality import (
    RECOVERABLE_KINDS,
    RecoverablePair,
    SATURATION_TOL,
    ResidualReport,
    SaturationContext,
    alpha_recover,
    build_recoverable_triple,
    default_beta_grid,
    full_report,
    geometric_mean,
    mutual_implication_ok,
    necessary1_residual,
    necessary2_residual,
    petz_beta_residual,
    petz_recover,
    recovery_error,
    t1_geo_residual,
    t1_residual,
    t3_residual,
    weighted_modular_pair,
)

__version__ = "0.1.0"
