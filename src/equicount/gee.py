"""The Gaussian Elliptic Ensemble: batch sampling, ordered spectra, joint density.

The ensemble at size n and parameter tau in (-1, 1] consists of real n x n
matrices with E[X_ij X_lk] = (delta_il delta_jk + tau delta_ik delta_jl) / n.
It is realized exactly as X = a G + b G^T with G iid centered Gaussian of
variance 1/n and a, b = (sqrt(1+tau) +- sqrt(1-tau)) / 2, which gives
a^2 + b^2 = 1 and 2ab = tau. tau = 0 is the real Ginibre ensemble, tau = 1
the GOE.

There is one spectrum path: :func:`sample_gee_entries` draws a stack and
:func:`eigvals_batch` orders its eigenvalues. Ordering convention: decreasing
real part; among members of a conjugate pair the one with positive imaginary
part comes first. Realness is structural, never an |Im| < eps test, so events
like {lambda_m real} carry no threshold bias. For n = 2 and 3 the batch solver
uses closed forms of the characteristic polynomial and reads realness from the
sign of its discriminant, a statement about the entries. For larger n it reads
the LAPACK drivers, which set the imaginary part of real eigenvalues to an
exact zero. The test suite checks both against the block structure of the
real Schur form.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, EigensolverError
from .sampling import MCEstimate
from .special_functions import log_erfc, log_norm_constant


def _mixing_coefficients(tau: float) -> tuple[float, float]:
    a = 0.5 * (math.sqrt(1.0 + tau) + math.sqrt(1.0 - tau))
    b = 0.5 * (math.sqrt(1.0 + tau) - math.sqrt(1.0 - tau))
    return a, b


#: Entries drawn and mixed per step of :func:`sample_gee_entries`; bounds its
#: temporaries to a few small blocks.
_MIX_ENTRIES = 1 << 13


def sample_gee_entries(n: int, tau: float, rng: np.random.Generator, size: int,
                       out: np.ndarray | None = None) -> np.ndarray:
    """(size, n, n) stack of ensemble members; the batch workhorse.

    The values are those of a * G + b * G^T, computed by the same floating
    point operations, with G the next size * n * n standard normals of
    ``rng`` divided by sqrt(n). Only the output stack is full size: when
    a == 1 and b == 0 (tau = 0, or tau too small to move a and b) G is drawn
    into it and scaled in place; otherwise G is drawn and mixed into it about
    _MIX_ENTRIES entries at a time (consecutive draws continue one stream).

    Given ``out``, a C-contiguous float64 (rows, n, n) buffer with
    rows >= size, the stack is drawn into ``out[:size]`` and that view is
    returned; the bytes are those of a fresh stack.
    """
    if not -1.0 < tau <= 1.0:
        raise DomainError(f"sample_gee_entries requires -1 < tau <= 1, got tau={tau}")
    a, b = _mixing_coefficients(tau)
    if out is None:
        out = np.empty((size, n, n))
    elif (out.dtype != np.float64 or out.shape[1:] != (n, n) or len(out) < size
          or not out.flags.c_contiguous):
        raise DomainError(f"out must be a C-contiguous float64 (>= {size}, {n}, {n}) buffer, "
                          f"got {out.dtype} {out.shape}")
    else:
        out = out[:size]
    if a == 1.0 and b == 0.0:
        rng.standard_normal(out=out)
        out /= math.sqrt(n)
        return out
    step = max(1, _MIX_ENTRIES // (n * n))
    for start in range(0, size, step):
        mixed = out[start : start + step]
        g = rng.standard_normal(mixed.shape)
        g /= math.sqrt(n)
        np.multiply(g, a, out=mixed)
        mixed += b * np.swapaxes(g, 1, 2)
    return out


def _order_key(values: np.ndarray) -> np.ndarray:
    # Complex sort is lexicographic (real, then imaginary); negating both parts
    # yields decreasing real part with +im before -im inside a conjugate pair.
    return -values


_TRIG_PHASES = np.array([0.0, 2.0, 4.0]) * (math.pi / 3.0)


def _depressed_cubic(mats: np.ndarray,
                     scale: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """tr(A) / scale and the coefficients p, q of the depressed characteristic
    polynomial s^3 + p s + q of C = 3A/scale - (tr(A)/scale) I (see
    ``_cubic_spectra``); the nine entries of C are batch vectors that die here."""
    tr = (mats[:, 0, 0] + mats[:, 1, 1] + mats[:, 2, 2]) / scale
    three = 3.0 / scale
    (c00, c01, c02), (c10, c11, c12), (c20, c21, c22) = (
        [mats[:, i, j] * three for j in range(3)] for i in range(3))
    c00 -= tr
    c11 -= tr
    c22 -= tr
    minor0 = c11 * c22 - c12 * c21
    p = minor0 + (c00 * c22 - c02 * c20) + (c00 * c11 - c01 * c10)
    q = c01 * (c10 * c22 - c12 * c20) - c00 * minor0 - c02 * (c10 * c21 - c11 * c20)
    return tr, p, q


def _real_roots(s: np.ndarray, p: np.ndarray, q: np.ndarray, three_real: np.ndarray,
                one_real: np.ndarray) -> np.ndarray:
    """Write the real roots of s^3 + p s + q into the zeroed (batch, 3) array
    s, and return each one's distance to the nearest other root (0 where s
    holds no root, which blocks the Newton step there).

    Where ``three_real`` the descending roots come from the trigonometric
    form; elsewhere column 0 gets the real root from Cardano's form, whose
    distance to the conjugate pair is sqrt(3 root^2 + p).
    """
    gap = np.zeros(s.shape)
    pr, qr = p[three_real], q[three_real]
    # p <= 0 whenever the discriminant is >= 0, up to underflow.
    rad = np.sqrt(np.maximum(-pr, 0.0) / 3.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos3 = np.clip(-qr / (2.0 * rad * rad * rad), -1.0, 1.0)
    theta = np.arccos(np.where(rad > 0.0, cos3, 1.0)) / 3.0
    roots = 2.0 * rad[:, None] * np.cos(theta[:, None] - _TRIG_PHASES)  # descending
    s[three_real] = roots
    gap_hi = roots[:, 0] - roots[:, 1]
    gap_lo = roots[:, 1] - roots[:, 2]
    gap[three_real] = np.stack([gap_hi, np.minimum(gap_hi, gap_lo), gap_lo], axis=1)

    pc, qc = p[one_real], q[one_real]
    u = -np.cbrt(0.5 * qc + np.copysign(np.sqrt(0.25 * qc * qc + pc * pc * pc / 27.0), qc))
    root = u - pc / (3.0 * u)
    s[one_real, 0] = root
    gap[one_real, 0] = np.sqrt(3.0 * root * root + pc)
    return gap


def _newton_polish(s: np.ndarray, gap: np.ndarray, p: np.ndarray, q: np.ndarray) -> None:
    """One Newton step on s^3 + p s + q for each root in the (batch, 3) array
    s, in place, taken only where shorter than half of ``gap`` (overwritten)."""
    step = s * s
    step += p[:, None]
    step *= s
    step += q[:, None]
    slope = 3.0 * s
    slope *= s
    slope += p[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        step /= slope
    gap *= 0.5
    np.subtract(s, step, out=s, where=np.less(np.abs(step, out=slope), gap))


def _cubic_spectra(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unordered eigenvalues and realness of a (batch, 3, 3) stack.

    C = 3A - tr(A) I has eigenvalues s = 3 lambda - tr(A) and the depressed
    characteristic polynomial s^3 + p s + q (p its principal 2 x 2 minor
    sum, q = -det C); the factor 3 keeps small-integer entries exact, so
    exactly repeated eigenvalues give an exactly zero discriminant
    -4 p^3 - 27 q^2. Three real roots come from the trigonometric form,
    one from Cardano's form with its conjugate pair by deflation. Each real
    root takes one Newton step on the cubic, accepted only when shorter than
    half the distance to the nearest other root: near a double root the
    step is rounding noise and would walk away from it.

    Each matrix is first scaled by a power of two that brings its largest
    entry into [1, 2), so p^3 and q^2 neither overflow nor underflow; the
    scaling is exact and is undone at the end. The work runs on batch
    vectors and in place, so no temporary the size of the stack is made.
    """
    batch = mats.shape[0]
    peak = np.abs(mats[:, 0, 0])
    for entry in mats.reshape(batch, 9).T[1:]:
        np.maximum(peak, np.abs(entry), out=peak)
    scale = np.ldexp(1.0, np.frexp(peak)[1] - 1)
    tr, p, q = _depressed_cubic(mats, scale)
    three_real = -4.0 * p * p * p - 27.0 * q * q >= 0.0
    one_real = ~three_real

    values = np.zeros((batch, 3), dtype=complex)
    s = values.real  # the real roots s, worked on in place
    _newton_polish(s, _real_roots(s, p, q, three_real, one_real), p, q)
    root = s[one_real, 0]
    pair_re = (tr[one_real] - 0.5 * root) / 3.0
    pair_im = np.sqrt(np.maximum(3.0 * root * root + 4.0 * p[one_real], 0.0)) / 6.0
    s += tr[:, None]
    s /= 3.0
    values[one_real, 1] = pair_re + 1j * pair_im
    values[one_real, 2] = pair_re - 1j * pair_im
    values *= scale[:, None]
    is_real = np.repeat(three_real[:, None], 3, axis=1)
    is_real[:, 0] = True
    return values, is_real


def eigvals_batch(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ordered eigenvalues and structural realness for a (batch, n, n) stack.

    n = 2 and n = 3 use closed forms of the characteristic polynomial, and
    realness is the sign of its discriminant (nonnegative means all roots
    real): an exact-arithmetic statement about the entries, not an
    |Im| < eps test. Larger n goes through the LAPACK nonsymmetric
    eigensolver, whose real eigenvalues come back with an exact zero
    imaginary part. Non-finite entries raise :class:`EigensolverError` on
    every path.
    """
    batch, n, _ = mats.shape
    if n in (2, 3) and not np.isfinite(mats).all():
        raise EigensolverError("batched eigensolver needs finite entries", matrix=mats)
    if n == 2:
        tr = mats[:, 0, 0] + mats[:, 1, 1]
        det = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
        disc = tr * tr - 4.0 * det
        real_pair = disc >= 0.0
        root = np.sqrt(np.abs(disc))
        values = np.empty((batch, 2), dtype=complex)
        values[real_pair, 0] = 0.5 * (tr[real_pair] + root[real_pair])
        values[real_pair, 1] = 0.5 * (tr[real_pair] - root[real_pair])
        values[~real_pair, 0] = 0.5 * (tr[~real_pair] + 1j * root[~real_pair])
        values[~real_pair, 1] = 0.5 * (tr[~real_pair] - 1j * root[~real_pair])
        is_real = np.repeat(real_pair[:, None], 2, axis=1)
        return values, is_real
    if n == 3:
        values, is_real = _cubic_spectra(mats)
    else:
        try:
            values = np.linalg.eigvals(mats).astype(complex)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(f"batched eigensolver failed: {exc}", matrix=mats) from exc
        is_real = values.imag == 0.0
    order = np.argsort(_order_key(values), axis=1, kind="stable")
    values = np.take_along_axis(values, order, axis=1)
    is_real = np.take_along_axis(is_real, order, axis=1)
    return values, is_real


def log_eigenvalue_density(sigmas, xs, ys, n: int, tau: float) -> float:
    """log joint density of the spectrum on the k-real sector.

    ``sigmas`` are the k real eigenvalues, ``xs`` +- i ``ys`` (ys >= 0) the
    (n - k)/2 conjugate pairs. The density is taken with respect to
    prod dsigma prod dx dy on the ordered sector, so the 2^{(n-k)/2} pairing
    factor is included here. The value is symmetric under permutations within
    each group; the unordered variant divides by k! ((n-k)/2)!.

    Computed entirely in log domain:

        -log Kn + ((n-k)/2) log 2 + sum_{pairs} log|u - v|
        - sum_i n sigma_i^2 / (2 (1+tau))
        + sum_j [ -n (x_j^2 - y_j^2) / (1+tau) + log erfc(sqrt(2n/(1-tau^2)) y_j) ]

    Returns -inf when two spectrum points coincide. tau = 1 is rejected: the
    density needs 1 - tau^2 > 0.
    """
    sigmas = np.atleast_1d(np.asarray(sigmas, dtype=float))
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    if sigmas.size == 0:
        sigmas = sigmas.reshape(0)
    if xs.size == 0:
        xs = xs.reshape(0)
    if ys.size == 0:
        ys = ys.reshape(0)
    k = sigmas.size
    if xs.size != ys.size:
        raise DomainError(f"xs and ys must have equal length, got {xs.size} and {ys.size}")
    if k + 2 * xs.size != n:
        raise DomainError(
            f"k={k} real plus {xs.size} conjugate pairs does not fill n={n} eigenvalues"
        )
    if np.any(ys < 0.0):
        raise DomainError("ys must be >= 0")
    tau = float(tau)
    if not -1.0 < tau < 1.0:
        raise DomainError(f"log_eigenvalue_density requires -1 < tau < 1, got tau={tau}")

    points = np.concatenate([sigmas.astype(complex), xs + 1j * ys, xs - 1j * ys])
    diffs = np.abs(points[:, None] - points[None, :])[np.triu_indices(n, k=1)]
    if np.any(diffs == 0.0):
        return -math.inf
    log_vandermonde = float(np.log(diffs).sum())

    scale = n / (2.0 * (1.0 + tau))
    log_weight = -scale * float(np.square(sigmas).sum())
    log_weight -= 2.0 * scale * float((np.square(xs) - np.square(ys)).sum())
    erfc_arg = math.sqrt(2.0 * n / (1.0 - tau * tau))
    log_weight += float(sum(log_erfc(erfc_arg * y) for y in ys))

    pair_factor = 0.5 * (n - k) * math.log(2.0)
    return -log_norm_constant(n, tau) + pair_factor + log_vandermonde + log_weight


def prob_k_real(
    n: int,
    tau: float,
    n_trials: int,
    seed: int,
) -> list[MCEstimate]:
    """Empirical distribution of the number of real eigenvalues.

    Returns estimates indexed by k = 0..n (parity-impossible k have mean 0);
    standard errors are binomial.
    """
    if n < 1:
        raise DomainError(f"prob_k_real requires n >= 1, got {n}")
    from .montecarlo import _eig_batches  # montecarlo imports this module

    counts = np.zeros(n + 1, dtype=np.int64)
    for _, is_real in _eig_batches(n, tau, n_trials, seed):
        counts += np.bincount(is_real.sum(axis=1), minlength=n + 1)
    out = []
    for k in range(n + 1):
        p_hat = counts[k] / n_trials
        stderr = math.sqrt(p_hat * (1.0 - p_hat) / n_trials)
        out.append(MCEstimate(mean=float(p_hat), stderr=float(stderr), n_trials=n_trials, seed=seed))
    return out
