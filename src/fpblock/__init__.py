"""Stationary SDE densities: Monte Carlo reference, least-norm projection
onto the kernel of the discretized stationary operator, block domain
decomposition, and interface-error repair by overlapping or shifting blocks.
"""

from .analysis import (
    AngleReport,
    KernelBasis,
    boundary_mask,
    boundary_weight_rho,
    convergence_study,
    discrete_h1_error,
    discrete_l2_error,
    kernel_basis_numeric,
    kernel_dimension,
    laplacian_kernel_basis,
    loglog_slope,
    principal_angles,
    qr_diagonals,
)
from .blocks import (
    BlockReport,
    BlockSolveConfig,
    collage,
    restrict,
    solve_blocks,
    worst_residual,
)
from .config import RunConfig, apply_overrides, parse_config, serialize_config
from .errors import (
    CollageError,
    ConfigurationError,
    DimensionError,
    DivergenceError,
    EmptyHistogramError,
    FormatError,
    FpblockError,
    NonConvergenceError,
    RankDeficiencyError,
    SizeError,
    UndefinedRatioError,
)
from .fileio import (
    read_field,
    read_histogram,
    write_field,
    write_histogram,
    write_rows_csv,
    write_sidecar,
)
from .grids import (
    Block,
    BlockPartition,
    DensityField,
    Grid,
    enumerate_blocks,
    flat_bin_indices,
)
from .leastnorm import (
    SolveOptions,
    SolveReport,
    solve_least_norm,
)
from .models import (
    ModelSpec,
    mmo_model,
    model_by_name,
    ring_exact_density,
    ring_model,
    rossler_model,
    zero_drift_model,
)
from .operator import InteriorOperator, assemble
from .repair import (
    DEFAULT_SHIFT_SCHEDULE,
    interface_jump,
    solve_method,
    solve_overlapping,
    solve_shifting,
)
from .sampler import (
    Histogram,
    SamplerConfig,
    accumulate_histogram,
    histogram_to_density,
    synthetic_reference,
)

__version__ = "0.1.0"
