"""equicount: equilibrium counting for random vector fields on spheres.

Evaluates the closed-form growth rates for the expected number of equilibria
with a prescribed number of unstable directions, and verifies the exact
finite-dimensional identities behind them by elliptic-ensemble Monte Carlo and
by direct equilibrium counting on low-dimensional spheres.
"""

__version__ = "0.1.0"

from .ellipse import real_marginal_density, tail_mass, tail_quantile
from .errors import (
    ConstraintError,
    DomainError,
    EigensolverError,
    EquicountError,
    QuadratureToleranceError,
    SampleFlaggedError,
)
from .gee import log_eigenvalue_density
from .montecarlo import (
    DimensionLiftReport,
    IndexCounts,
    IntervalB,
    MCEstimate,
    TailRatePoint,
    concentration_miss_fractions,
    empirical_spectral_test,
    empirical_tail_rate,
    estimate_equilibria_count,
    prob_k_real,
    verify_dimension_lift,
)
from .rates import (
    ModelParams,
    RateResult,
    derive_tau_b,
    multiplier_cutoff,
    rate_diverging_index,
    rate_fixed_index,
    rate_lagrange_window,
    threshold_tau,
)
from .sampling import derive_seed, substream
from .special_functions import (
    QuadratureSpec,
    log_erfc,
    log_norm_constant,
    log_potential,
    rate_function,
    tilted_potential,
)
from .sphere_field import (
    Equilibrium,
    FieldSample,
    OracleCounts,
    field_model_params,
    find_equilibria_circle,
    find_equilibria_sphere,
    oracle_mean_counts,
    sample_field,
)

__all__ = [
    "__version__",
    "ConstraintError",
    "DimensionLiftReport",
    "DomainError",
    "EigensolverError",
    "Equilibrium",
    "EquicountError",
    "FieldSample",
    "IndexCounts",
    "IntervalB",
    "MCEstimate",
    "ModelParams",
    "OracleCounts",
    "QuadratureSpec",
    "QuadratureToleranceError",
    "RateResult",
    "SampleFlaggedError",
    "TailRatePoint",
    "concentration_miss_fractions",
    "derive_seed",
    "derive_tau_b",
    "empirical_spectral_test",
    "empirical_tail_rate",
    "estimate_equilibria_count",
    "field_model_params",
    "find_equilibria_circle",
    "find_equilibria_sphere",
    "log_eigenvalue_density",
    "log_erfc",
    "log_norm_constant",
    "log_potential",
    "multiplier_cutoff",
    "oracle_mean_counts",
    "prob_k_real",
    "rate_diverging_index",
    "rate_fixed_index",
    "rate_function",
    "rate_lagrange_window",
    "real_marginal_density",
    "sample_field",
    "substream",
    "tail_mass",
    "tail_quantile",
    "threshold_tau",
    "tilted_potential",
    "verify_dimension_lift",
]
