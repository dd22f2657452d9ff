"""Statistical estimators built on the elliptic ensemble.

The production estimator turns the expected equilibrium count into an
eigenvalue functional of the ensemble:

    E N_m(B) = 2 sqrt((1+tau)/(b^2+tau)) b^(1-n)
               * E_n[ exp(-n (1-b^2) L^2 / (2 (b^2+tau)(1+tau)))
                      1{L real} 1_B(sqrt(dphi1) L) ],

where L is the eigenvalue of rank m+1 (largest real parts first) of an
n x n ensemble matrix. The rank is m+1, not m: the identity is assembled
from the dimension-lift lemma whose right-hand side carries rank m+1, and
the brute-force sphere count adjudicates the same way (see the acceptance
suite). The legacy rank-m variant stays available behind ``index_variant``
for the discrepancy report.

Also here: the dimension-lift identity checker (outer Gauss-Legendre panels
over the shift, inner Monte Carlo with common random numbers), empirical
tail-rate estimation for the large-deviation law, the elliptic-law
Kolmogorov-Smirnov check, and the concentration proxy for the bulk-ranked
eigenvalue.

Everything is deterministic given (seed, n_trials, batch_size); see
``sampling`` for the substream contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .ellipse import tail_mass, tail_quantile
from .errors import DomainError
from .gee import eigvals_batch, sample_gee_entries
from .rates import ModelParams, derive_tau_b
from .sampling import (
    DEFAULT_BATCH_SIZE,
    MCEstimate,
    RunningMoments,
    batch_sizes,
    derive_seed,
    substream,
    z_score,
)
from .special_functions import QuadratureSpec, rate_function

__all__ = [
    "IntervalB",
    "MCEstimate",
    "DimensionLiftReport",
    "TailRatePoint",
    "estimate_equilibria_count",
    "verify_dimension_lift",
    "empirical_tail_rate",
    "empirical_spectral_test",
    "concentration_miss_fractions",
]


@dataclass(frozen=True)
class IntervalB:
    """Half-open multiplier window [lo, hi); either end may be infinite."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise DomainError(f"IntervalB requires lo < hi, got [{self.lo}, {self.hi})")

    def contains(self, x):
        return (x >= self.lo) & (x < self.hi)


FULL_LINE = IntervalB(-math.inf, math.inf)

#: Fewest contributing trials a statistical check may rest on.
MIN_HITS = 30


def _eig_batches(n: int, tau: float, n_trials: int, seed: int, batch_size: int):
    for index, take in batch_sizes(n_trials, batch_size):
        mats = sample_gee_entries(n, tau, substream(seed, index), take)
        yield eigvals_batch(mats)


def _ranked_in_window(n: int, tau: float, rank0: int, scale: float, window: IntervalB,
                      n_trials: int, seed: int, batch_size: int):
    """Yield, batch by batch, the real part of the eigenvalue at 0-based rank
    ``rank0`` and the mask of trials where it is real with scale * value in
    ``window``."""
    for values, is_real in _eig_batches(n, tau, n_trials, seed, batch_size):
        lam = values[:, rank0].real
        yield lam, is_real[:, rank0] & window.contains(scale * lam)


def _count_contributions(
    n: int,
    m: int,
    p: ModelParams,
    window: IntervalB,
    n_trials: int,
    seed: int,
    index_variant: str,
    batch_size: int,
):
    """Yield per-trial contributions to E N_m(window), batch by batch."""
    tau, b = derive_tau_b(p)
    if not 0 <= m <= n - 1:
        raise DomainError(f"requires 0 <= m <= n-1, got m={m}, n={n}")
    if index_variant == "m+1":
        rank0 = m  # 0-based index of the rank-(m+1) eigenvalue
    elif index_variant == "m":
        if m < 1:
            raise DomainError("index_variant='m' needs m >= 1")
        rank0 = m - 1
    else:
        raise DomainError(f"unknown index_variant {index_variant!r}")
    # Prefactor and Gaussian taper combined per trial in log domain: b^(1-n)
    # alone overflows long before the product does.
    log_pref = (
        math.log(2.0)
        + 0.5 * (math.log1p(tau) - math.log(b * b + tau))
        + (1.0 - n) * math.log(b)
    )
    taper = n * (1.0 - b * b) / (2.0 * (b * b + tau) * (1.0 + tau))
    scale = math.sqrt(p.dphi1)
    for lam, live in _ranked_in_window(n, tau, rank0, scale, window, n_trials, seed, batch_size):
        yield np.where(live, np.exp(log_pref - taper * lam * lam), 0.0)


def estimate_equilibria_count(
    n: int,
    m: int,
    p: ModelParams,
    window: IntervalB = FULL_LINE,
    n_trials: int = 100_000,
    seed: int = 0,
    index_variant: str = "m+1",
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> MCEstimate:
    """Mean number of equilibria with m unstable directions and multiplier in
    ``window``, on the sphere of dimension n, by ensemble Monte Carlo."""
    moments = RunningMoments()
    for contrib in _count_contributions(n, m, p, window, n_trials, seed, index_variant, batch_size):
        moments.add(contrib)
    return moments.estimate(seed)


@dataclass(frozen=True)
class DimensionLiftReport:
    """Both sides of the dimension-lift identity with their discrepancy, and
    the number of trials contributing a nonzero value to each side."""

    lhs: MCEstimate
    rhs: MCEstimate
    z_score: float
    quadrature_panels: int
    lhs_support: int
    rhs_support: int


def verify_dimension_lift(
    n: int,
    m: int,
    tau: float,
    window: IntervalB,
    quad: QuadratureSpec | None = None,
    n_trials: int = 100_000,
    seed: int = 0,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> DimensionLiftReport:
    """Estimate both sides of the exact identity

        int f(t sqrt(n-1)) exp(-(n-1) t^2 / (2 (1+tau)))
            E_{n-1}[ |det(X - tI)| 1{exactly m eigenvalues right of t} ] dt
      = Gamma(n/2) sqrt(2)^n sqrt(1+tau) / sqrt(n-1)^n
            * E_n[ 1{rank-(m+1) eigenvalue real} f(sqrt(n) * that eigenvalue) ]

    for f the indicator of ``window``, independently: the left side by outer
    Gauss-Legendre panels over t with an inner Monte Carlo reusing one set of
    (n-1) x (n-1) spectra across nodes (so the quadrature refinement is
    noise-free), the right side by plain Monte Carlo over n x n matrices.
    Panels double until the quadrature change drops below the Monte Carlo
    standard error. Returns both estimates, their z-score and the number of
    contributing trials on each side.
    """
    if n < 2:
        raise DomainError(f"requires n >= 2, got n={n}")
    if not 1 <= m <= n - 1:
        raise DomainError(f"requires 1 <= m <= n-1, got m={m}")
    if not -1.0 < tau < 1.0:
        raise DomainError(f"requires -1 < tau < 1, got tau={tau}")
    if not (math.isfinite(window.lo) and math.isfinite(window.hi)):
        raise DomainError("dimension-lift check needs a bounded window")
    quad = quad or QuadratureSpec()
    seed_lhs = derive_seed(seed, 0)
    seed_rhs = derive_seed(seed, 1)
    root = math.sqrt(n - 1.0)
    t_lo, t_hi = window.lo / root, window.hi / root

    # Left side: cache all (n-1)-spectra once, integrate over t on top of them.
    spectra = np.empty((n_trials, n - 1), dtype=complex)
    done = 0
    for values, _ in _eig_batches(n - 1, tau, n_trials, seed_lhs, batch_size):
        spectra[done : done + values.shape[0]] = values
        done += values.shape[0]

    def per_trial_integral(panels: int) -> np.ndarray:
        nodes, weights = np.polynomial.legendre.leggauss(16)
        y = np.zeros(n_trials)
        edges = np.linspace(t_lo, t_hi, panels + 1)
        for a, b in zip(edges[:-1], edges[1:]):
            ts = 0.5 * (a + b) + 0.5 * (b - a) * nodes
            ws = 0.5 * (b - a) * weights
            for t, w in zip(ts, ws):
                absdet = np.abs(spectra - t).prod(axis=1)
                hits = (spectra.real >= t).sum(axis=1) == m
                y += w * math.exp(-(n - 1) * t * t / (2.0 * (1.0 + tau))) * absdet * hits
        return y

    panels = 1
    y = per_trial_integral(panels)
    while True:
        y_next = per_trial_integral(2 * panels)
        stderr = float(np.std(y_next, ddof=1) / math.sqrt(n_trials)) if n_trials > 1 else 0.0
        change = abs(float(np.mean(y_next)) - float(np.mean(y)))
        y = y_next
        panels *= 2
        if change <= max(stderr, quad.abs_tol) or panels >= quad.max_subdivisions:
            break
    lhs_moments = RunningMoments()
    lhs_moments.add(y)
    lhs = lhs_moments.estimate(seed_lhs)

    # Right side.
    log_const = (
        float(special.gammaln(n / 2.0))
        + 0.5 * n * math.log(2.0)
        + 0.5 * math.log1p(tau)
        - 0.5 * n * math.log(n - 1.0)
    )
    const = math.exp(log_const)
    root_n = math.sqrt(n)
    rhs_moments = RunningMoments()
    rhs_support = 0
    # Rank m+1 is 0-based index m.
    for _, live in _ranked_in_window(n, tau, m, root_n, window, n_trials, seed_rhs, batch_size):
        rhs_moments.add(np.where(live, const, 0.0))
        rhs_support += int(live.sum())
    rhs = rhs_moments.estimate(seed_rhs)

    return DimensionLiftReport(
        lhs=lhs, rhs=rhs, z_score=z_score(lhs, rhs), quadrature_panels=panels,
        lhs_support=int(np.count_nonzero(y)), rhs_support=rhs_support,
    )


@dataclass(frozen=True)
class TailRatePoint:
    """Empirical tail rate at one matrix size."""

    n: int
    rate_hat: float
    hits: int
    n_trials: int
    reference: float
    sufficient: bool


def empirical_tail_rate(
    n_list,
    m: int,
    x: float,
    tau: float,
    n_trials: int,
    seed: int,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> list[TailRatePoint]:
    """-(1/n) log P(rank-m eigenvalue real and >= x) across matrix sizes.

    The reference value m * I(x; tau) from the large-deviation law is
    attached; points with fewer than MIN_HITS hits are flagged insufficient
    (rate_hat is +inf when no trial hits).
    """
    if m < 1:
        raise DomainError(f"requires m >= 1, got m={m}")
    if not x > 1.0 + tau:
        raise DomainError(f"requires x > 1 + tau, got x={x}, tau={tau}")
    for n in n_list:
        if not m <= n:
            raise DomainError(f"requires m <= n, got m={m}, n={n}")
    reference = m * rate_function(x, tau)
    tail = IntervalB(x, math.inf)
    out = []
    for i, n in enumerate(n_list):
        batches = _ranked_in_window(n, tau, m - 1, 1.0, tail, n_trials, derive_seed(seed, i),
                                    batch_size)
        hits = sum(int(live.sum()) for _, live in batches)
        rate_hat = math.inf if hits == 0 else -math.log(hits / n_trials) / n
        out.append(TailRatePoint(
            n=n, rate_hat=rate_hat, hits=hits, n_trials=n_trials,
            reference=reference, sufficient=hits >= MIN_HITS,
        ))
    return out


def empirical_spectral_test(
    n: int,
    tau: float,
    n_trials: int,
    seed: int,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> float:
    """Sup distance between the pooled real-part empirical CDF and the
    ellipse-law marginal CDF (the finite-n elliptic-law check)."""
    if n < 50:
        raise DomainError(f"requires n >= 50 for a meaningful bulk, got n={n}")
    if not -1.0 < tau < 1.0:
        raise DomainError(f"requires -1 < tau < 1, got tau={tau}")
    pooled = np.empty(n * n_trials)
    done = 0
    for values, _ in _eig_batches(n, tau, n_trials, seed, batch_size):
        flat = values.real.ravel()
        pooled[done : done + flat.size] = flat
        done += flat.size
    pooled.sort()
    cdf = 1.0 - tail_mass(pooled, tau)
    count = pooled.size
    steps_hi = np.arange(1, count + 1) / count
    steps_lo = np.arange(0, count) / count
    return float(np.maximum(np.abs(steps_hi - cdf), np.abs(steps_lo - cdf)).max())


def concentration_miss_fractions(
    n_list,
    gamma: float,
    tau: float,
    n_trials: int,
    epsilon: float,
    seed: int,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> list[tuple[int, float]]:
    """Fraction of trials where the rank-ceil(gamma n) real part leaves
    (s_gamma - eps, s_gamma + eps); concentration makes this decay in n."""
    if not 0.0 < gamma < 1.0:
        raise DomainError(f"requires 0 < gamma < 1, got gamma={gamma}")
    if not epsilon > 0.0:
        raise DomainError(f"requires epsilon > 0, got {epsilon}")
    s = tail_quantile(gamma, tau)
    out = []
    for i, n in enumerate(n_list):
        rank0 = math.ceil(gamma * n) - 1
        if not 0 <= rank0 < n:
            raise DomainError(f"ceil(gamma n) out of range for n={n}")
        batches = _ranked_in_window(n, tau, rank0, 1.0, FULL_LINE, n_trials,
                                    derive_seed(seed, i), batch_size)
        missed = sum(int(((re <= s - epsilon) | (re >= s + epsilon)).sum()) for re, _ in batches)
        out.append((n, missed / n_trials))
    return out
