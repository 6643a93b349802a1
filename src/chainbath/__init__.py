"""chainbath: oscillator-bath-to-chain mapping, exact reduced dynamics, and
certified truncation-error bounds for a harmonic system in a harmonic bath."""

from .bounds import (
    ErrorReport,
    MinModesResult,
    ThermalState,
    bound_deterministic,
    bound_thermal,
    epsilon1,
    epsilon2,
    epsilon_empirical,
    error_report,
    min_modes,
    sample_thermal,
    thermal_error_mc,
)
from .dynamics import (
    InitialState,
    Trajectory,
    assemble_extended_matrix,
    assemble_io_matrix,
    evolve_exact,
    evolve_io,
    evolve_truncated,
    evolve_truncated_x,
    free_mode_evolution,
    total_energy,
)
from .errors import (
    Breakdown,
    ChainBathError,
    ComplexResolvent,
    DegenerateFrequencies,
    DegenerateResolvent,
    DimensionMismatch,
    GridMismatch,
    GridTooCoarse,
    IndexOutOfRange,
    NonincreasingSpectrum,
    NonpositiveParameter,
    ToleranceNotReached,
    UnstableMode,
)
from .kernels import (
    KernelRep,
    kernel_closed_form,
    kernel_deriv_zero,
    kernel_eval,
    kernel_quadrature,
    kernel_taylor,
)
from .solution import (
    VolterraParams,
    mu_delta,
    nested_convolve,
    solve_volterra_closed,
    solve_volterra_numeric,
    source_term,
    x_reduced_form,
)
from .spectral import (
    ChainCertificate,
    ChainModel,
    EquivalenceReport,
    IOModel,
    OrthogonalMap,
    build_io_model,
    certify_chain,
    chain_from_io,
    char_poly_eval,
    verify_equivalence,
)

__version__ = "0.1.0"
