"""Closed-form exponential growth rates for equilibrium counts.

All rates are per-dimension exponents: the expected number of equilibria with
a prescribed number of unstable directions grows like exp(N * rate). Three
regimes are covered:

* fixed index m (the rate does not depend on m),
* index growing proportionally to dimension, m/N -> gamma,
* index fixed and the Lagrange multiplier restricted to a window (c, d),

plus the threshold curve tau(b) where the fixed-index rate changes sign and
the multiplier cutoff above which equilibria become exponentially rare.

Model parameters enter through tau = phi2 / dphi1 and b^2 = (sigma2 + phi1) /
dphi1; rates are only defined for b < 1 (for b > 1 the field has just two
equilibria in the limit and no counting problem survives).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .ellipse import tail_quantile
from .errors import ConstraintError, DomainError
from .special_functions import rate_function

#: Branch tags carried by RateResult.
BRANCHES = ("fixed_m", "diverging", "lagrange_straddle", "lagrange_above", "lagrange_below")


@dataclass(frozen=True)
class ModelParams:
    """Covariance data of the random field.

    phi1, dphi1: value and derivative of the diagonal kernel at full overlap;
    phi2: value of the positional kernel at full overlap; sigma2: variance of
    the constant drift. Constraints (0 < phi1 < dphi1, |phi2| <= phi1,
    sigma2 >= 0, b^2 + tau > 0) are validated by derive_tau_b so that invalid
    inputs produce a named error rather than a construction failure.
    """

    phi1: float
    dphi1: float
    phi2: float
    sigma2: float


@dataclass(frozen=True)
class RateResult:
    """An exponential rate (may be -inf) tagged with the branch that made it.

    ``boundary_warning`` marks multiplier windows whose endpoint sits exactly
    on the multiplier threshold, where the value is filled in by continuity.
    """

    rate: float
    branch: str
    boundary_warning: bool = False

    def __post_init__(self):
        if self.branch not in BRANCHES:
            raise DomainError(f"unknown branch {self.branch!r}")
        if math.isnan(self.rate):
            raise DomainError("rate cannot be NaN")


def derive_tau_b(p: ModelParams) -> tuple[float, float]:
    """(tau, b) from model parameters, validating every structural constraint."""
    if not 0.0 < p.phi1:
        raise ConstraintError(f"requires 0 < phi1, got phi1={p.phi1}")
    if not p.phi1 < p.dphi1:
        raise ConstraintError(f"requires phi1 < dphi1, got phi1={p.phi1}, dphi1={p.dphi1}")
    if not -p.phi1 <= p.phi2 <= p.phi1:
        raise ConstraintError(
            f"requires -phi1 <= phi2 <= phi1, got phi2={p.phi2} with phi1={p.phi1}"
        )
    if not p.sigma2 >= 0.0:
        raise ConstraintError(f"requires sigma2 >= 0, got sigma2={p.sigma2}")
    tau = p.phi2 / p.dphi1
    b_sq = (p.sigma2 + p.phi1) / p.dphi1
    if not b_sq + tau > 0.0:
        raise ConstraintError(f"requires b^2 + tau > 0, got b^2={b_sq}, tau={tau}")
    if tau == 1.0:
        raise ConstraintError("requires tau != 1 (gradient case is out of scope)")
    return tau, math.sqrt(b_sq)


def _check_rate_domain(b: float, tau: float) -> None:
    if not 0.0 < b:
        raise DomainError(f"requires b > 0, got b={b}")
    if b >= 1.0:
        raise DomainError(
            f"requires b < 1, got b={b}: with b >= 1 only two equilibria survive "
            "in the limit and no rate is defined"
        )
    if not -1.0 < tau < 1.0:
        raise DomainError(f"requires -1 < tau < 1, got tau={tau}")
    if not b * b + tau > 0.0:
        raise ConstraintError(f"requires b^2 + tau > 0, got b^2={b * b}, tau={tau}")


def rate_fixed_index(b: float, tau: float) -> RateResult:
    """Growth rate of the mean number of equilibria with any fixed index:

        log(1/b) - (1 - b^2)(1 + tau) / (2 (b^2 + tau)).
    """
    _check_rate_domain(b, tau)
    rate = math.log(1.0 / b) - (1.0 - b * b) * (1.0 + tau) / (2.0 * (b * b + tau))
    return RateResult(rate=rate, branch="fixed_m")


def threshold_tau(b: float) -> float:
    """The tau at which the fixed-index rate vanishes:

        tau(b) = -(2 b^2 log b + 1 - b^2) / (2 log b + 1 - b^2).

    Above the curve equilibria of every fixed index are exponentially
    abundant; below it they are exponentially rare.
    """
    if not 0.0 < b < 1.0:
        raise DomainError(f"threshold_tau requires 0 < b < 1, got b={b}")
    log_b = math.log(b)
    return -(2.0 * b * b * log_b + 1.0 - b * b) / (2.0 * log_b + 1.0 - b * b)


def rate_diverging_index(b: float, tau: float, gamma: float) -> RateResult:
    """Growth rate when the index grows proportionally to dimension, m/N -> gamma:

        log(1/b) - (1 - b^2) s_gamma^2 / (2 (b^2 + tau)(1 + tau)),

    where s_gamma is the tail quantile of the ellipse law's real-part
    marginal. Maximized at gamma = 1/2 (s = 0), where it equals log(1/b),
    which is also the growth rate of the total equilibrium count.
    """
    _check_rate_domain(b, tau)
    if not 0.0 < gamma < 1.0:
        raise DomainError(f"requires 0 < gamma < 1, got gamma={gamma}")
    s = tail_quantile(gamma, tau)
    rate = math.log(1.0 / b) - (1.0 - b * b) * s * s / (2.0 * (b * b + tau) * (1.0 + tau))
    return RateResult(rate=rate, branch="diverging")


def _multiplier_exponent(c: float, b: float, tau: float, dphi1: float, m: int) -> float:
    """Index-m rate at multiplier value c at or above the threshold (strictly
    decreasing in c). At the threshold c / sqrt(dphi1) can round below the
    edge 1 + tau, where I is infinite; the clamp removes only that rounding."""
    quad = (1.0 - b * b) * c * c / (2.0 * dphi1 * (b * b + tau) * (1.0 + tau))
    x = max(c / math.sqrt(dphi1), 1.0 + tau)
    return math.log(1.0 / b) - quad - (m + 1) * rate_function(x, tau)


def rate_lagrange_window(
    b: float,
    tau: float,
    dphi1: float,
    m: int,
    c: float,
    d: float,
) -> RateResult:
    """Growth rate of equilibria with index m and multiplier in the window (c, d).

    With threshold = (1 + tau) sqrt(dphi1):

    * c < threshold < d: the fixed-index rate (branch "lagrange_straddle");
    * c > threshold:     log(1/b) - (1-b^2) c^2 / (2 dphi1 (b^2+tau)(1+tau))
                         - (m+1) I(c / sqrt(dphi1))   (branch "lagrange_above");
      the value does not depend on d: the exponent is decreasing in the
      multiplier, so the supremum over [c, d) sits at c;
    * d < threshold:     -inf (branch "lagrange_below").

    Endpoints exactly on the threshold are not covered by the trichotomy and
    are resolved by continuity with ``boundary_warning=True``: at c =
    threshold the two adjacent branches agree (the rate function vanishes at
    the edge and the quadratic term reduces to the fixed-index one); a window
    with d = threshold still excludes the threshold, so it gets -inf.

    The weight m+1 of the rate function is the one the brute-force sphere
    comparison confirms.
    """
    _check_rate_domain(b, tau)
    if not dphi1 > 0.0:
        raise DomainError(f"requires dphi1 > 0, got {dphi1}")
    if m < 0:
        raise DomainError(f"requires m >= 0, got m={m}")
    if not c < d:
        raise DomainError(f"requires c < d, got c={c}, d={d}")
    threshold = (1.0 + tau) * math.sqrt(dphi1)

    if c < threshold < d:
        return RateResult(rate=rate_fixed_index(b, tau).rate, branch="lagrange_straddle")
    if c > threshold:
        rate = _multiplier_exponent(c, b, tau, dphi1, m)
        return RateResult(rate=rate, branch="lagrange_above")
    if d < threshold:
        return RateResult(rate=-math.inf, branch="lagrange_below")

    # Endpoint exactly on the threshold.
    if c == threshold:
        warnings.warn(
            "multiplier window starts exactly at the threshold; value filled by continuity",
            RuntimeWarning,
            stacklevel=2,
        )
        return RateResult(
            rate=rate_fixed_index(b, tau).rate, branch="lagrange_above", boundary_warning=True
        )
    warnings.warn(
        "multiplier window ends exactly at the threshold (excluded); rate is -inf",
        RuntimeWarning,
        stacklevel=2,
    )
    return RateResult(rate=-math.inf, branch="lagrange_below", boundary_warning=True)


def multiplier_cutoff(
    b: float,
    tau: float,
    dphi1: float,
    m: int,
    tol: float = 1e-10,
) -> float:
    """The multiplier value above which index-m equilibria become rare.

    Bisection root of

        g(c) = (1-b^2) c^2 / (2 dphi1 (b^2+tau)(1+tau))
               + (m+1) I(c / sqrt(dphi1)) - log(1/b)

    on (threshold, inf), threshold = (1+tau) sqrt(dphi1). g is continuous,
    strictly increasing and unbounded there, with g(threshold) equal to minus
    the fixed-index rate; a root exists precisely when that rate is positive
    (parameters above the threshold curve), otherwise the window rate is
    already negative at the threshold and a ConstraintError is raised. The
    bracket narrows to tol, relative to the threshold when that is below 1.
    """
    _check_rate_domain(b, tau)
    if not dphi1 > 0.0:
        raise DomainError(f"requires dphi1 > 0, got {dphi1}")
    if not tol > 0.0:
        raise DomainError(f"tol must be > 0, got {tol}")
    threshold = (1.0 + tau) * math.sqrt(dphi1)

    def g(c: float) -> float:
        return -_multiplier_exponent(c, b, tau, dphi1, m)

    # g(threshold) rounds -rate differently and can read >= 0 at a tiny rate.
    fixed = rate_fixed_index(b, tau).rate
    if not fixed > 0.0:
        raise ConstraintError(
            "no multiplier cutoff: requires a positive fixed-index rate "
            f"(rate_fixed_index(b={b}, tau={tau}) = {fixed})"
        )
    lo = threshold
    hi = 2.0 * threshold + 1.0
    for _ in range(200):
        if g(hi) > 0.0:
            break
        lo = hi
        hi *= 2.0
    else:
        raise ConstraintError("multiplier cutoff bracketing failed to find a sign change")
    while hi - lo > tol * min(1.0, threshold):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # adjacent floats: tol is below their spacing
            break
        if g(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
