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
suite). The ensemble is invariant under X -> -X, which maps the rank-(m+1)
eigenvalue to minus the rank-(n-m) one with realness kept, so each trial's
spectrum also gives the mirror reading: rank n-m in -B. The estimator
averages the two per trial, and reads every m from one pass.

Also here: the dimension-lift identity checker (Monte Carlo on both sides,
each left-side trial integrated over the shift in closed form, each
right-side trial paired with its mirror), empirical tail-rate estimation for
the large-deviation law, the elliptic-law Kolmogorov-Smirnov check, the
concentration proxy for the bulk-ranked eigenvalue (paired too), and the
count of real eigenvalues.

All read their spectra from one batch driver, ``_eig_batches``, and are
deterministic given (seed, n_trials); see ``sampling`` for the substream
contract. At n >= 4 the batches run concurrently, on one thread per CPU of
the affinity mask (``eig_workers``) but no more than there are batches; the
contract makes every result independent of that, and of each batch being
sampled into one of the driver's reused 512 KiB buffers, one per worker,
and eigensolved chunk by chunk to bound memory. The functionals of one
ranked eigenvalue keep only the columns they read: the identity's right
side and concentration keep that eigenvalue, its mirror (``_readings``)
and their realness, tail rates one eigenvalue and one flag per trial
(68 KiB per 4096-trial batch).

Tail rates also pass the driver a floor, x: each chunk is screened first by
a certified upper bound on every matrix's spectral abscissa
(``gee.certify_abscissa_below``), and a trial certified below x, which
cannot hit, skips the eigensolver and comes back as -inf, not real. At the
benchmark point (x = 1.2, tau = 0) that leaves about 3% of the n = 40
trials to LAPACK; the counts are those of eigensolving every trial.
"""

from __future__ import annotations

import math
import os
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from itertools import starmap

import numpy as np

from .ellipse import tail_mass, tail_quantile
from .errors import DomainError
from .gee import _SQUARINGS, certify_abscissa_below, eigvals_batch, sample_gee_entries
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
from .special_functions import rate_function

__all__ = [
    "IntervalB",
    "IndexCounts",
    "MCEstimate",
    "DimensionLiftReport",
    "TailRatePoint",
    "estimate_equilibria_count",
    "verify_dimension_lift",
    "empirical_tail_rate",
    "empirical_spectral_test",
    "concentration_miss_fractions",
    "prob_k_real",
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


def eig_workers(n: int) -> int:
    """Most threads ``_eig_batches`` spreads batches of n x n matrices over: one
    per CPU in the affinity mask at LAPACK sizes (n >= 4), one for the closed
    forms, whose batches are too cheap to gain from threads."""
    if n <= 3:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: Matrix entries sampled and eigensolved at a time within a batch (512 KiB):
#: 40 matrices at n = 40, one from n = 256 on, a whole batch at n <= 3.
_CHUNK_ENTRIES = 1 << 16


def _abscissa_shift(tau: float) -> float:
    """The shift s of the abscissa certificate (``certify_abscissa_below``)
    at tau. On the support of the ellipse law, semi-axes 1 + tau and
    1 - tau, |l + s| is largest at the rightmost point once
    s >= -4 tau / (1 + tau); 0.3 more keeps it so for finite-n spectra, whose
    edge is ragged."""
    return max(0.0, -4.0 * tau / (1.0 + tau)) + 0.3


def _screen_pays(n: int, tau: float, x: float) -> bool:
    """Whether screening n x n matrices for an eigenvalue with real part
    >= x is worth its cost. The certificate bounds rho(X + sI) by a
    Frobenius norm, which exceeds rho by up to n^(1/2k) (k = 2^squarings),
    the factor a normal matrix with n eigenvalues at the edge gives. Where
    (x + s) / (1 + tau + s), the room between x and the ellipse law's
    right edge, does not clear it, the screen certifies few trials and is
    skipped; the closed forms (n <= 3) are never screened."""
    shift = _abscissa_shift(tau)
    room = math.log((x + shift) / (1.0 + tau + shift))
    return n >= 4 and room >= math.log(n) / 2.0 ** (_SQUARINGS + 1)


def _eig_batch(n: int, tau: float, seed: int, index: int, take: int, buf: np.ndarray,
               ranks: list[int] | None = None, floor: float | None = None,
               work: np.ndarray | None = None):
    """Ordered eigenvalues and realness of batch ``index``, drawn from
    ``substream(seed, index)`` into ``buf`` and eigensolved one chunk of
    ``len(buf)`` matrices at a time; when given, ``ranks`` lists the 0-based
    ranks kept, as a (take, len(ranks)) block.

    Given ``floor``, each chunk is first screened on ``work`` (see
    ``certify_abscissa_below``): a trial certified to have no eigenvalue with
    real part >= floor skips the eigensolver and comes back with every kept
    value -inf and none real. The other trials are eigensolved as without
    a floor.

    The sampler consumes the stream in order and the eigensolver works matrix
    by matrix, so the values are bitwise those of one whole-batch draw. A
    batch of one unscreened chunk hands over the eigensolver's arrays (or
    their kept columns) as they are; the results never alias ``buf``.
    """
    rng = substream(seed, index)
    values = is_real = None
    for start in range(0, take, len(buf)):
        mats = sample_gee_entries(n, tau, rng, min(len(buf), take - start), out=buf)
        rows = slice(start, start + len(mats))
        if floor is not None:
            solve = np.flatnonzero(~certify_abscissa_below(mats, floor, _abscissa_shift(tau), work))
            mats, rows = mats[solve], solve + start
        part_values, part_real = eigvals_batch(mats)
        if ranks is not None:
            part_values, part_real = part_values[:, ranks], part_real[:, ranks]
        if floor is None and len(mats) == take:
            return part_values, part_real
        if values is None:
            shape = (take, n if ranks is None else len(ranks))
            values, is_real = np.full(shape, -math.inf, dtype=complex), np.zeros(shape, dtype=bool)
        values[rows], is_real[rows] = part_values, part_real
    return values, is_real


def _eig_batches(n: int, tau: float, n_trials: int, seed: int,
                 batch_size: int = DEFAULT_BATCH_SIZE, ranks: list[int] | None = None,
                 floor: float | None = None):
    """Yield (ordered eigenvalues, realness) of each batch, in batch order:
    (batch, n) arrays, or the columns ``ranks`` selects; ``floor`` screens
    out trials with no eigenvalue of real part >= floor (see ``_eig_batch``).

    Batch j draws from ``substream(seed, j)``, so its values do not depend on
    which thread computes it. The batches run on min(``eig_workers(n)``,
    batch count) workers. The driver owns at most 512 KiB of buffers per
    worker: a sample buffer, or with a floor a sample buffer of half that
    size and two screening operands of a quarter each (10 matrices at
    n = 40); batch j uses the buffers of worker j mod workers, and is
    queued only after batch j - workers is handed over, so a batch in flight
    holds its buffers and its result: the (batch, n) spectrum, or with ``ranks``
    one value per trial and kept rank. One worker runs a queued batch when
    its turn comes; more run on a thread pool (numpy's sampler and
    eigensolver release the GIL). An error in a batch is raised here, and
    closing the generator early waits for the batches in flight.
    """
    batches = list(batch_sizes(n_trials, batch_size))
    workers = min(eig_workers(n), len(batches))
    # A screened chunk is half as large, to leave room for the two operands.
    chunk = _CHUNK_ENTRIES if floor is None else _CHUNK_ENTRIES // 2
    rows = min(max(1, chunk // (n * n)), batch_size, n_trials)
    bufs = [np.empty((rows, n, n)) for _ in range(workers)]
    works = [None] * workers
    if floor is not None:
        screen_rows = min(rows, max(1, chunk // 2 // (n * n)))
        works = [np.empty((2, screen_rows, n, n)) for _ in range(workers)]
    pool = nullcontext()
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(workers)
    with pool:
        pending = deque()
        for index, take in batches:
            slot = index % workers
            args = (n, tau, seed, index, take, bufs[slot], ranks, floor, works[slot])
            pending.append(partial(_eig_batch, *args) if workers == 1
                           else pool.submit(_eig_batch, *args).result)
            if len(pending) == workers:
                yield pending.popleft()()
        while pending:
            yield pending.popleft()()


def _readings(values: np.ndarray, is_real: np.ndarray):
    """The direct reading (Re l, realness) of ordered spectrum columns and
    the mirror one (-Re l, realness) of the reversed columns. X -> -X keeps
    the ensemble's law and maps 0-based rank r to minus rank n-1-r, realness
    kept, so column j of both has one law and is tested in the same window.
    The columns must be a whole spectrum or the kept pair [k, n-1-k], in
    that order (k twice for the middle rank), so the reversed columns are
    the mirror readings."""
    re = values.real
    return (re, is_real), (-re[:, ::-1], is_real[:, ::-1])


def _count_contributions(n: int, p: ModelParams, window: IntervalB, n_trials: int, seed: int):
    """Yield per-trial contributions to E N_m(window) for every m, batch by
    batch, as (batch, n) arrays with column m for m unstable directions:
    the mean weight of the direct and the mirror reading at index m (see
    ``_readings``), each counted when real with sqrt(dphi1) times it in ``window``.
    """
    tau, b = derive_tau_b(p)
    if n < 1:
        raise DomainError(f"requires n >= 1, got n={n}")
    # Prefactor and Gaussian taper combined per trial in log domain: b^(1-n)
    # alone overflows long before the product does.
    log_pref = (math.log(2.0) + 0.5 * (math.log1p(tau) - math.log(b * b + tau))
                + (1.0 - n) * math.log(b))
    taper = n * (1.0 - b * b) / (2.0 * (b * b + tau) * (1.0 + tau))
    scale = math.sqrt(p.dphi1)

    def contributions(values, is_real):
        (lam, real), (mirror, _) = _readings(values, is_real)
        # One rank at a time, so the temporaries are (batch,) arrays.
        contrib = np.zeros((n, len(values)))
        for k in range(n):
            j = n - 1 - k  # the mirror reading at j is rank k negated; the weight is even
            weight = np.where(real[:, k], np.exp(log_pref - taper * lam[:, k] * lam[:, k]), 0.0)
            contrib[k] += np.where(window.contains(scale * lam[:, k]), weight, 0.0)
            contrib[j] += np.where(window.contains(scale * mirror[:, j]), weight, 0.0)
        contrib *= 0.5
        return contrib.T

    # A batch's spectrum and readings are freed before the next one is drawn.
    yield from starmap(contributions, _eig_batches(n, tau, n_trials, seed))


@dataclass(frozen=True)
class IndexCounts:
    """Mean equilibrium counts by number of unstable directions, from one
    ensemble pass: ``per_m[m]`` for m = 0..n-1, and their ``total``. The
    estimates share trials, so the total's standard error comes from the
    per-trial row sums, not from the per-m errors."""

    per_m: tuple[MCEstimate, ...]
    total: MCEstimate


def estimate_equilibria_count(
    n: int,
    p: ModelParams,
    window: IntervalB = FULL_LINE,
    n_trials: int = 100_000,
    seed: int = 0,
) -> IndexCounts:
    """Mean number of equilibria with each number m of unstable directions,
    and in total, with multiplier in ``window``, on the sphere of dimension
    n, by ensemble Monte Carlo."""
    per_m = [RunningMoments() for _ in range(n)]
    total = RunningMoments()
    for contrib in _count_contributions(n, p, window, n_trials, seed):
        for moments, column in zip(per_m, contrib.T):
            moments.add(column)
        total.add(contrib.sum(axis=1))
    return IndexCounts(
        per_m=tuple(moments.estimate(seed) for moments in per_m),
        total=total.estimate(seed),
    )


@dataclass(frozen=True)
class DimensionLiftReport:
    """Both sides of the dimension-lift identity with their discrepancy, and
    the number of trials contributing a nonzero value to the left side and
    to each of the right side's two readings (direct and mirror).
    ``quadrature_panels`` is 1: each trial's t-integral is one exact piece."""

    lhs: MCEstimate
    rhs: MCEstimate
    z_score: float
    quadrature_panels: int
    lhs_support: int
    rhs_support: int
    rhs_mirror_support: int


def _at_ends(f, x: np.ndarray, shared: float) -> np.ndarray:
    """f at each element of x; elements equal to ``shared`` (interval ends
    clipped to the window) share one evaluation."""
    own = x != shared
    if own.all():
        return np.fromiter(map(f, x.tolist()), float, x.size)
    out = np.full(x.shape, f(shared))
    out[own] = np.fromiter(map(f, x[own].tolist()), float)
    return out


def _gaussian_moments(a, b: np.ndarray, c: float, top: int,
                      t_lo: float, t_hi: float) -> list[np.ndarray]:
    """[M_0, ..., M_top] with M_j = int_a^b t^j exp(-c t^2) dt, elementwise,
    for t_lo <= a <= b <= t_hi, a finite window; a may be 0-d.

    M_0 comes from erf, as a difference of erfc in whichever tail holds both
    ends so that it does not cancel; the ends equal to t_lo, and those equal
    to t_hi, share one evaluation. M_1 and up follow from integrating
    d/dt (t^j exp(-c t^2)) by parts:
    2c M_(j+1) = j M_(j-1) - [t^j exp(-c t^2)]_a^b.
    """
    root_c = math.sqrt(c)
    lo, hi = np.broadcast_arrays(root_c * a, root_c * b)
    lo_end, hi_end = root_c * t_lo, root_c * t_hi
    erf_diff = np.empty(hi.shape)
    upper, lower = lo >= 0.0, hi <= 0.0
    inner = ~(upper | lower)
    erf_diff[upper] = (_at_ends(math.erfc, lo[upper], lo_end)
                       - _at_ends(math.erfc, hi[upper], hi_end))
    erf_diff[lower] = (_at_ends(math.erfc, -hi[lower], -hi_end)
                       - _at_ends(math.erfc, -lo[lower], -lo_end))
    erf_diff[inner] = (_at_ends(math.erf, hi[inner], hi_end)
                       - _at_ends(math.erf, lo[inner], lo_end))
    moments = [0.5 * math.sqrt(math.pi / c) * erf_diff]
    wa, wb = np.exp(-c * a * a), np.exp(-c * b * b)  # t^j exp(-c t^2) at both ends
    for j in range(top):
        below = j * moments[j - 1] if j else 0.0
        moments.append((below - (wb - wa)) / (2.0 * c))
        wa, wb = wa * a, wb * b
    return moments


def _lift_integrals(values: np.ndarray, is_real: np.ndarray, m: int, c: float,
                    t_lo: float, t_hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial int_{t_lo}^{t_hi} |det(X - tI)| 1{exactly m real parts >= t}
    exp(-c t^2) dt for ordered spectra ``values`` of X, and the mask of trials
    whose t-interval meets the window.

    Exactly m real parts are >= t on the single interval (Re l_(m+1), Re l_m]
    (Re l_(m+1) = -inf when m is the matrix size). There |det(X - tI)| is the
    real polynomial s * prod(l_i - t), of degree the matrix size, whose sign
    s is -1 to the number of real eigenvalues of rank m+1 and below (a
    conjugate pair gives a positive factor). So the integral is sum_j p_j M_j exactly.
    """
    batch, size = values.shape
    a = np.maximum(values[:, m].real if m < size else -math.inf, t_lo)
    b = np.minimum(values[:, m - 1].real, t_hi)
    live = a < b
    # Trials whose interval misses the window contribute exactly 0; only the
    # others are integrated.
    rows = np.flatnonzero(live)
    values = values[rows]
    a = a[rows] if a.ndim else a
    # Coefficients of prod(l_i - t) in ascending powers of t.
    coef = np.zeros((rows.size, size + 1), dtype=complex)
    coef[:, 0] = 1.0
    for i in range(size):
        coef_next = values[:, i : i + 1] * coef
        coef_next[:, 1:] -= coef[:, :-1]
        coef = coef_next
    sign = np.where(is_real[rows, m:].sum(axis=1) % 2, -1.0, 1.0)
    moments = _gaussian_moments(a, b[rows], c, size, t_lo, t_hi)
    out = np.zeros(batch)
    out[rows] = sign * sum(coef[:, j].real * moments[j] for j in range(size + 1))
    return out, live


def verify_dimension_lift(
    n: int,
    m: int,
    tau: float,
    window: IntervalB,
    n_trials: int = 100_000,
    seed: int = 0,
) -> DimensionLiftReport:
    """Estimate both sides of the exact identity

        int f(t sqrt(n-1)) exp(-(n-1) t^2 / (2 (1+tau)))
            E_{n-1}[ |det(X - tI)| 1{exactly m eigenvalues right of t} ] dt
      = Gamma(n/2) sqrt(2)^n sqrt(1+tau) / sqrt(n-1)^n
            * E_n[ 1{rank-(m+1) eigenvalue real} f(sqrt(n) * that eigenvalue) ]

    for f the indicator of ``window``. Both sides are Monte Carlo on
    independent streams, reduced batch by batch: the left side over
    (n-1) x (n-1) matrices, with each trial's t-integral in closed form (see
    ``_lift_integrals``), the right side over n x n matrices. Each right-side
    trial averages the direct reading with its X -> -X mirror, the real
    rank-(n-m) eigenvalue negated and tested in the same window (see
    ``_readings``). Returns both estimates, their z-score and the
    number of contributing trials on the left side and on each right-side
    reading.
    """
    if n < 2:
        raise DomainError(f"requires n >= 2, got n={n}")
    if not 1 <= m <= n - 1:
        raise DomainError(f"requires 1 <= m <= n-1, got m={m}")
    if not -1.0 < tau < 1.0:
        raise DomainError(f"requires -1 < tau < 1, got tau={tau}")
    if not (math.isfinite(window.lo) and math.isfinite(window.hi)):
        raise DomainError("dimension-lift check needs a bounded window")
    seed_lhs = derive_seed(seed, 0)
    seed_rhs = derive_seed(seed, 1)
    root = math.sqrt(n - 1.0)
    t_lo, t_hi = window.lo / root, window.hi / root
    c = (n - 1) / (2.0 * (1.0 + tau))

    lhs_moments = RunningMoments()
    lhs_support = 0
    for values, is_real in _eig_batches(n - 1, tau, n_trials, seed_lhs):
        y, live = _lift_integrals(values, is_real, m, c, t_lo, t_hi)
        lhs_moments.add(y)
        lhs_support += int(live.sum())
    lhs = lhs_moments.estimate(seed_lhs)

    const = math.exp(math.lgamma(n / 2.0) + 0.5 * n * math.log(2.0) + 0.5 * math.log1p(tau)
                     - 0.5 * n * math.log(n - 1.0))
    root_n = math.sqrt(n)
    rhs_moments = RunningMoments()
    rhs_support = np.zeros(2, dtype=np.int64)  # direct, mirror
    # Rank m+1 is 0-based index m; keep it and its mirror rank n-1-m, in that order.
    for batch in _eig_batches(n, tau, n_trials, seed_rhs, ranks=[m, n - 1 - m]):
        live = np.stack([real[:, 0] & window.contains(root_n * re[:, 0])
                         for re, real in _readings(*batch)])
        rhs_moments.add(live.sum(axis=0) * (0.5 * const))
        rhs_support += live.sum(axis=1)
    rhs = rhs_moments.estimate(seed_rhs)

    return DimensionLiftReport(
        lhs=lhs, rhs=rhs, z_score=z_score(lhs, rhs), quadrature_panels=1,
        lhs_support=lhs_support, rhs_support=int(rhs_support[0]),
        rhs_mirror_support=int(rhs_support[1]),
    )


@dataclass(frozen=True)
class TailRatePoint:
    """Empirical tail rate at one matrix size; ``eigensolved`` counts the
    trials the abscissa screen could not rule out, which went to the
    eigensolver (all of them where the screen is skipped)."""

    n: int
    rate_hat: float
    hits: int
    n_trials: int
    reference: float
    sufficient: bool
    eigensolved: int


def empirical_tail_rate(
    n_list,
    m: int,
    x: float,
    tau: float,
    n_trials: int,
    seed: int,
) -> list[TailRatePoint]:
    """-(1/n) log P(rank-m eigenvalue real and >= x) across matrix sizes.

    The reference value m * I(x; tau) from the large-deviation law is
    attached; points with fewer than MIN_HITS hits are flagged insufficient
    (rate_hat is +inf when no trial hits). A trial with no eigenvalue of
    real part >= x cannot hit, so where the screen pays (``_screen_pays``)
    trials certified so skip the eigensolver; the counts are those of
    eigensolving every trial.
    """
    if m < 1:
        raise DomainError(f"requires m >= 1, got m={m}")
    if not x > 1.0 + tau:
        raise DomainError(f"requires x > 1 + tau, got x={x}, tau={tau}")
    for n in n_list:
        if not m <= n:
            raise DomainError(f"requires m <= n, got m={m}, n={n}")
    reference = m * rate_function(x, tau)
    out = []
    for i, n in enumerate(n_list):
        floor = x if _screen_pays(n, tau, x) else None
        # Rank m is 0-based index m-1, the one column kept.
        batches = _eig_batches(n, tau, n_trials, derive_seed(seed, i), ranks=[m - 1], floor=floor)
        hits = eigensolved = 0
        for values, real in batches:
            hits += int((real[:, 0] & (values[:, 0].real >= x)).sum())
            eigensolved += int(np.isfinite(values[:, 0].real).sum())
        rate_hat = math.inf if hits == 0 else -math.log(hits / n_trials) / n
        out.append(TailRatePoint(
            n=n, rate_hat=rate_hat, hits=hits, n_trials=n_trials,
            reference=reference, sufficient=hits >= MIN_HITS, eigensolved=eigensolved,
        ))
    return out


def empirical_spectral_test(
    n: int,
    tau: float,
    n_trials: int,
    seed: int,
) -> float:
    """Sup distance between the pooled real-part empirical CDF and the
    ellipse-law marginal CDF (the finite-n elliptic-law check)."""
    if n < 50:
        raise DomainError(f"requires n >= 50 for a meaningful bulk, got n={n}")
    if not -1.0 < tau < 1.0:
        raise DomainError(f"requires -1 < tau < 1, got tau={tau}")
    pooled = np.empty(n * n_trials)
    done = 0
    for values, _ in _eig_batches(n, tau, n_trials, seed):
        flat = values.real.ravel()
        pooled[done : done + flat.size] = flat
        done += flat.size
    pooled.sort()
    cdf = 1.0 - tail_mass(pooled, tau)
    count = pooled.size
    steps_hi = np.arange(1, count + 1) / count
    steps_lo = np.arange(0, count) / count
    return float(np.maximum(np.abs(steps_hi - cdf), np.abs(steps_lo - cdf)).max())


def prob_k_real(n: int, tau: float, n_trials: int, seed: int) -> list[MCEstimate]:
    """Empirical distribution of the number of real eigenvalues.

    Returns estimates indexed by k = 0..n (parity-impossible k have mean 0);
    standard errors are binomial.
    """
    if n < 1:
        raise DomainError(f"prob_k_real requires n >= 1, got {n}")
    counts = np.zeros(n + 1, dtype=np.int64)
    for _, is_real in _eig_batches(n, tau, n_trials, seed):
        counts += np.bincount(is_real.sum(axis=1), minlength=n + 1)
    return [MCEstimate(mean=float(p), stderr=math.sqrt(p * (1.0 - p) / n_trials),
                       n_trials=n_trials, seed=seed) for p in counts / n_trials]


def concentration_miss_fractions(
    n_list,
    gamma: float,
    tau: float,
    n_trials: int,
    epsilon: float,
    seed: int,
) -> list[tuple[int, float]]:
    """Fraction of trials where the rank-ceil(gamma n) real part leaves
    (s_gamma - eps, s_gamma + eps); concentration makes this decay in n.

    Each trial averages that miss indicator with its X -> -X mirror's: minus
    the real part of rank n+1-ceil(gamma n), tested against the same
    interval (see ``_readings``)."""
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
        batches = _eig_batches(n, tau, n_trials, derive_seed(seed, i), ranks=[rank0, n - 1 - rank0])
        missed = sum(int(((re[:, 0] <= s - epsilon) | (re[:, 0] >= s + epsilon)).sum())
                     for batch in batches for re, _ in _readings(*batch))
        out.append((n, missed / (2 * n_trials)))
    return out
