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
contract. Each passes the driver a read, the functional of an ordered
spectrum it keeps (per-trial contributions, integrals, hit flags, ...),
which the driver applies chunk by chunk, so a batch in flight holds its
read, not its spectrum. At n >= 4 the batches run concurrently, on one
thread per CPU of the affinity mask (``eig_workers``) but no more than there
are batches; the contract makes every result independent of that, and of
each batch being sampled into one of the driver's reused buffers, 512 KiB
per worker (768 KiB when screened), and eigensolved chunk by chunk.

Tail rates at n >= 4 also pass the driver a floor, x: each chunk is
screened first, as one block, by a certified upper bound on every matrix's
spectral abscissa (``gee.certify_abscissa_below``), and a trial certified
below x, which cannot hit, is neither eigensolved nor read; a chunk
certified whole makes no eigensolver call. That leaves about 2% of the
n = 40 trials to LAPACK at x = 1.2, tau = 0, and 38% at x = 1.02; at
tau <= -0.8 nothing is certified. The counts are those of eigensolving
every trial.
"""

from __future__ import annotations

import math
import os
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from .ellipse import tail_mass, tail_quantile
from .errors import DomainError
from .gee import certify_abscissa_below, eigvals_batch, sample_gee_entries
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
#: 40 matrices at n = 40, one from n = 256 on, a whole batch at n <= 3. A
#: screened chunk is half as large (20 matrices at n = 40), and each screen
#: operand as large as it.
_CHUNK_ENTRIES = 1 << 16


def _eig_batch(n: int, tau: float, seed: int, index: int, take: int, buf: np.ndarray,
               read, floor: float | None, work: np.ndarray):
    """``read(values, is_real)`` of batch ``index``: the batch is drawn from
    ``substream(seed, index)`` into ``buf`` one chunk of ``len(buf)``
    matrices at a time, each chunk's ordered spectrum is read, and the
    chunks' reads are joined in order along the first axis, part by part
    when a read is a tuple.

    Given ``floor``, each chunk is first screened as one block on ``work``
    (see ``certify_abscissa_below``), two operands shaped like ``buf``: a
    trial certified to have no eigenvalue with real part >= floor is neither
    eigensolved nor read, and a chunk certified whole is read as an empty
    (0, n) spectrum, with no eigensolver call.

    The sampler consumes the stream in order and the eigensolver works matrix
    by matrix, so the values read are bitwise those of one whole-batch draw.
    """
    rng = substream(seed, index)
    empty = np.empty((0, n), dtype=complex), np.empty((0, n), dtype=bool)
    reads = []
    for start in range(0, take, len(buf)):
        mats = sample_gee_entries(n, tau, rng, min(len(buf), take - start), out=buf)
        if floor is not None:
            mats = mats[~certify_abscissa_below(mats, floor, tau, work)]
        reads.append(read(*(eigvals_batch(mats) if len(mats) else empty)))
    if isinstance(reads[0], tuple):
        return tuple(map(np.concatenate, zip(*reads)))
    return np.concatenate(reads)


def _eig_batches(n: int, tau: float, n_trials: int, seed: int, read,
                 batch_size: int = DEFAULT_BATCH_SIZE, floor: float | None = None):
    """Yield ``read(values, is_real)`` of each batch's ordered spectra, in
    batch order, read chunk by chunk (see ``_eig_batch``) on the worker
    threads, so ``read`` must not change shared state; ``floor`` screens
    out trials with no eigenvalue of real part >= floor, which are not read.

    Batch j draws from ``substream(seed, j)``, so its values do not depend on
    which thread computes it. The batches run on min(``eig_workers(n)``,
    batch count) workers. The driver owns the buffers, per worker a 512 KiB
    sample buffer, or with a floor three of half that size (20 matrices at
    n = 40): the sample buffer and the screen's two operands, so that each
    chunk is screened as one block. Batch j uses the buffers of worker
    j mod workers, and is queued only after batch j - workers is handed
    over, so a batch in flight holds its buffers and its read, not its
    spectrum. One worker runs a queued batch when its turn comes; more run
    on a thread pool (numpy's sampler and eigensolver release the GIL). An
    error in a batch is raised here, and closing the generator early waits
    for the batches in flight.
    """
    batches = list(batch_sizes(n_trials, batch_size))
    workers = min(eig_workers(n), len(batches))
    # Per worker, the sample buffer, and with a floor the screen's two operands.
    chunk = _CHUNK_ENTRIES if floor is None else _CHUNK_ENTRIES // 2
    rows = min(max(1, chunk // (n * n)), batch_size, n_trials)
    bufs = [np.empty((1 if floor is None else 3, rows, n, n)) for _ in range(workers)]
    pool = nullcontext()
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(workers)
    with pool:
        pending = deque()
        for index, take in batches:
            slot = index % workers
            args = (n, tau, seed, index, take, bufs[slot][0], read, floor, bufs[slot][1:])
            pending.append(partial(_eig_batch, *args) if workers == 1
                           else pool.submit(_eig_batch, *args).result)
            if len(pending) == workers:
                yield pending.popleft()()
        while pending:
            yield pending.popleft()()


def _readings(values: np.ndarray, is_real: np.ndarray):
    """The direct reading (Re l, realness) of ordered spectra and the mirror
    one (-Re l, realness) of the reversed spectra. X -> -X keeps the
    ensemble's law and maps 0-based rank r to minus rank n-1-r, realness
    kept, so column j of both has one law and is tested in the same window."""
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

    yield from _eig_batches(n, tau, n_trials, seed, contributions)


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
                    t_lo: float, t_hi: float) -> np.ndarray:
    """Per-trial int_{t_lo}^{t_hi} |det(X - tI)| 1{exactly m real parts >= t}
    exp(-c t^2) dt for ordered spectra ``values`` of X.

    Exactly m real parts are >= t on the single interval (Re l_(m+1), Re l_m]
    (Re l_(m+1) = -inf when m is the matrix size). There |det(X - tI)| is the
    real polynomial s * prod(l_i - t), of degree the matrix size, whose sign
    s is -1 to the number of real eigenvalues of rank m+1 and below (a
    conjugate pair gives a positive factor). So the integral is sum_j p_j M_j exactly.
    """
    batch, size = values.shape
    a = np.maximum(values[:, m].real if m < size else -math.inf, t_lo)
    b = np.minimum(values[:, m - 1].real, t_hi)
    # Trials whose interval misses the window contribute exactly 0; only the
    # others are integrated.
    rows = np.flatnonzero(a < b)
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
    return out


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
    integrals = partial(_lift_integrals, m=m, c=c, t_lo=t_lo, t_hi=t_hi)
    for y in _eig_batches(n - 1, tau, n_trials, seed_lhs, integrals):
        lhs_moments.add(y)
        lhs_support += np.count_nonzero(y)
    lhs = lhs_moments.estimate(seed_lhs)

    const = math.exp(math.lgamma(n / 2.0) + 0.5 * n * math.log(2.0) + 0.5 * math.log1p(tau)
                     - 0.5 * n * math.log(n - 1.0))
    root_n = math.sqrt(n)
    rhs_moments = RunningMoments()
    rhs_support = np.zeros(2, dtype=np.int64)  # direct, mirror

    def hits(values, is_real):
        # Rank m+1 is 0-based index m, read directly and mirrored.
        return tuple(real[:, m] & window.contains(root_n * re[:, m])
                     for re, real in _readings(values, is_real))

    for direct, mirror in _eig_batches(n, tau, n_trials, seed_rhs, hits):
        live = np.stack([direct, mirror])
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
    trials read, those the abscissa screen could not rule out, which went to
    the eigensolver (all of them at n <= 3, which is not screened)."""

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
    real part >= x cannot hit, so at n >= 4 trials certified so skip the
    eigensolver; the counts are those of eigensolving every trial.
    """
    if m < 1:
        raise DomainError(f"requires m >= 1, got m={m}")
    if not x > 1.0 + tau:
        raise DomainError(f"requires x > 1 + tau, got x={x}, tau={tau}")
    for n in n_list:
        if not m <= n:
            raise DomainError(f"requires m <= n, got m={m}, n={n}")
    reference = m * rate_function(x, tau)

    def hit(values, is_real):
        # Rank m is 0-based index m-1.
        return is_real[:, m - 1] & (values[:, m - 1].real >= x)

    out = []
    for i, n in enumerate(n_list):
        # The closed forms (n <= 3) are cheaper than the screen, so only
        # LAPACK sizes get a floor.
        floor = x if n >= 4 else None
        hits = eigensolved = 0
        for flags in _eig_batches(n, tau, n_trials, derive_seed(seed, i), hit, floor=floor):
            hits += int(flags.sum())
            eigensolved += len(flags)
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
    for flat in _eig_batches(n, tau, n_trials, seed, lambda values, is_real: values.real.ravel()):
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
    for k in _eig_batches(n, tau, n_trials, seed, lambda values, is_real: is_real.sum(axis=1)):
        counts += np.bincount(k, minlength=n + 1)
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

    def misses(rank0, values, is_real):
        # Per trial, how many of the direct and the mirror reading miss.
        return sum((re[:, rank0] <= s - epsilon) | (re[:, rank0] >= s + epsilon)
                   for re, _ in _readings(values, is_real))

    out = []
    for i, n in enumerate(n_list):
        rank0 = math.ceil(gamma * n) - 1
        if not 0 <= rank0 < n:
            raise DomainError(f"ceil(gamma n) out of range for n={n}")
        batches = _eig_batches(n, tau, n_trials, derive_seed(seed, i), partial(misses, rank0))
        missed = sum(int(k.sum()) for k in batches)
        out.append((n, missed / (2 * n_trials)))
    return out
