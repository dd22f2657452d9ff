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
sign of its discriminant, a statement about the entries. Both scale each
matrix exactly by a power of two and emit the roots already ordered, working
on contiguous per-entry rows, without a sort. For larger n it reads
the LAPACK drivers, which set the imaginary part of real eigenvalues to an
exact zero, and sorts. The test suite checks both against the block
structure of the real Schur form.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, EigensolverError
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


def _scaled_entry_rows(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries of a (batch, n, n) stack as contiguous (n*n, batch) rows,
    each matrix divided by the power of two that brings its largest |entry|
    into [1, 2), and those powers. The division is exact unless an entry
    falls below 2^-1022 times its matrix's power."""
    batch, n, _ = mats.shape
    rows = mats.reshape(batch, n * n).T.astype(float, order="C")
    peak = np.maximum(rows.max(axis=0), -rows.min(axis=0))
    if not np.isfinite(peak).all():
        raise EigensolverError("batched eigensolver needs finite entries", matrix=mats)
    scale = np.ldexp(1.0, np.frexp(peak)[1] - 1)
    rows /= scale
    return rows, scale


def _newton_polish(s: np.ndarray, gap: np.ndarray, p: np.ndarray, q: np.ndarray) -> None:
    """One Newton step on s^3 + p s + q for each root in s, in place, taken
    only where shorter than half of ``gap`` (overwritten)."""
    step = s * s
    step += p
    step *= s
    step += q
    slope = 3.0 * s
    slope *= s
    slope += p
    with np.errstate(divide="ignore", invalid="ignore"):
        step /= slope
    gap *= 0.5
    np.subtract(s, step, out=s, where=np.less(np.abs(step, out=slope), gap))


def _quadratic_spectra(rows: np.ndarray, scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ordered (re, im) rows of a scaled 2 x 2 stack, in the (4, batch) rows
    it arrives in, and realness: (tr + sqrt(disc)) / 2 then (tr - sqrt(disc)) / 2,
    or (tr +- i sqrt(-disc)) / 2, ordered by construction."""
    a, b, c, d = rows
    tr = a + d
    det = a * d - b * c
    disc = tr * tr - 4.0 * det
    real = disc >= 0.0
    root = np.sqrt(np.abs(disc))
    shift = np.where(real, root, 0.0)
    np.multiply(0.5, tr + shift, out=rows[0])
    np.multiply(0.5, root - shift, out=rows[1])
    np.multiply(0.5, tr - shift, out=rows[2])
    # 0.5 * (tr - 1j * root) as a complex product adds +0.0 to its real part.
    np.add(rows[2], 0.0, out=rows[2], where=~real)
    np.subtract(0.0, rows[1], out=rows[3])
    rows *= scale
    return rows, np.stack([real, real])


def _cubic_spectra(rows: np.ndarray, scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ordered (re, im) rows of a scaled 3 x 3 stack, in the first six of the
    (9, batch) rows it arrives in, and realness.

    C = 3A - tr(A) I has eigenvalues s = 3 lambda - tr(A) and the depressed
    characteristic polynomial s^3 + p s + q (p its principal 2 x 2 minor
    sum, q = -det C); the factor 3 keeps small-integer entries exact, so
    exactly repeated eigenvalues give an exactly zero discriminant
    -4 p^3 - 27 q^2. Three real roots come descending from the trigonometric
    form, one from Cardano's form with its conjugate pair by deflation, and
    the real one goes before or after the pair by its real part. Each real
    root takes one Newton step on the cubic, accepted only when shorter than
    half the distance to the nearest other root: near a double root the
    step is rounding noise and would walk away from it. A last stable
    compare-exchange pass orders what rounding left out of order.
    """
    tr = rows[0] + rows[4] + rows[8]
    rows *= 3.0
    rows[0] -= tr
    rows[4] -= tr
    rows[8] -= tr
    c00, c01, c02, c10, c11, c12, c20, c21, c22 = rows
    minor0 = c11 * c22 - c12 * c21
    p = minor0 + (c00 * c22 - c02 * c20) + (c00 * c11 - c01 * c10)
    q = c01 * (c10 * c22 - c12 * c20) - c00 * minor0 - c02 * (c10 * c21 - c11 * c20)
    three_real = -4.0 * p * p * p - 27.0 * q * q >= 0.0
    trig, cardano = np.flatnonzero(three_real), np.flatnonzero(~three_real)
    re, im = rows[0:6:2], rows[1:6:2]  # the entries are spent; the spectrum goes here
    im[:] = 0.0
    is_real = np.repeat(three_real[None], 3, axis=0)

    pt, qt = p[trig], q[trig]
    # p <= 0 whenever the discriminant is >= 0, up to underflow.
    rad = np.sqrt(np.maximum(-pt, 0.0) / 3.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos3 = np.clip(-qt / (2.0 * rad * rad * rad), -1.0, 1.0)
    theta = np.arccos(np.where(rad > 0.0, cos3, 1.0)) / 3.0
    roots = 2.0 * rad * np.cos(theta - _TRIG_PHASES[:, None])  # descending
    gap_hi, gap_lo = roots[0] - roots[1], roots[1] - roots[2]
    _newton_polish(roots, np.stack([gap_hi, np.minimum(gap_hi, gap_lo), gap_lo]), pt, qt)
    roots += tr[trig]
    roots /= 3.0
    re[:, trig] = roots * scale[trig]

    pc, qc, tc, sc = p[cardano], q[cardano], tr[cardano], scale[cardano]
    u = -np.cbrt(0.5 * qc + np.copysign(np.sqrt(0.25 * qc * qc + pc * pc * pc / 27.0), qc))
    root = u - pc / (3.0 * u)
    _newton_polish(root, np.sqrt(3.0 * root * root + pc), pc, qc)
    pair_re = (tc - 0.5 * root) / 3.0
    pair_im = np.sqrt(np.maximum(3.0 * root * root + 4.0 * pc, 0.0)) / 6.0
    sigma = (root + tc) / 3.0 * sc
    # (pair_re +- 1j pair_im) * scale as the complex products round, signed zeros included.
    upper_re, upper_im = (pair_re + 0.0) * sc, pair_im * sc
    minus_im = 0.0 - pair_im
    lower_re, lower_im = pair_re * sc - minus_im * 0.0, pair_re * 0.0 + minus_im * sc
    after = (sigma < upper_re).astype(np.intp)  # the real root sorts after the pair
    re[2 * after, cardano] = sigma
    is_real[2 * after, cardano] = True
    re[1 - after, cardano], im[1 - after, cardano] = upper_re, upper_im
    re[2 - after, cardano], im[2 - after, cardano] = lower_re, lower_im

    # Bubble pass swapping only strictly misordered neighbours: a stable sort.
    for i, j in ((0, 1), (1, 2), (0, 1)):
        swap = np.flatnonzero((re[j] > re[i]) | ((re[j] == re[i]) & (im[j] > im[i])))
        if swap.size:
            for part in (re, im, is_real):
                part[[[i], [j]], swap] = part[[[j], [i]], swap]
    return rows[:6], is_real


def eigvals_batch(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ordered eigenvalues and structural realness for a (batch, n, n) stack.

    n = 2 and n = 3 use closed forms of the characteristic polynomial, and
    realness is the sign of its discriminant (nonnegative means all roots
    real): an exact-arithmetic statement about the entries, not an
    |Im| < eps test. Each matrix is first scaled exactly by a power of two
    that brings its largest entry into [1, 2), so the coefficients stay in
    range at any scale, and the roots come out ordered without a sort (at
    n = 3 a compare-exchange pass settles rounding ties). Larger n goes
    through the LAPACK nonsymmetric eigensolver, whose real eigenvalues come
    back with an exact zero imaginary part, and a stable sort. Non-finite
    entries raise :class:`EigensolverError` on every path.
    """
    batch, n, _ = mats.shape
    if n in (2, 3):
        rows, scale = _scaled_entry_rows(mats)
        parts, is_real = (_quadratic_spectra if n == 2 else _cubic_spectra)(rows, scale)
        return parts.T.copy().view(complex), is_real.T.copy()
    try:
        values = np.linalg.eigvals(mats).astype(complex)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"batched eigensolver failed: {exc}", matrix=mats) from exc
    is_real = values.imag == 0.0
    order = np.argsort(_order_key(values), axis=1, kind="stable")
    values = np.take_along_axis(values, order, axis=1)
    is_real = np.take_along_axis(is_real, order, axis=1)
    return values, is_real


#: Squarings of X + sI in :func:`certify_abscissa_below`, which bounds
#: rho(X + sI) by ||(X + sI)^k||_F^(1/k) with k = 2^_SQUARINGS.
_SQUARINGS = 5
#: Slack in log2 of that bound for the rounding its error term does not track.
_CERT_MARGIN = 2.0 ** -30
_UNIT_ROUNDOFF = 2.0 ** -53


def _frobenius(mats: np.ndarray) -> np.ndarray:
    """Frobenius norms of a C-contiguous (batch, n, n) stack, as batched
    products (which release the GIL) of each flattened matrix with itself."""
    flat = mats.reshape(len(mats), 1, -1)
    return np.sqrt(np.matmul(flat, flat.transpose(0, 2, 1))[:, 0, 0])


def certify_abscissa_below(mats: np.ndarray, floor: float, shift: float,
                           work: np.ndarray) -> np.ndarray:
    """Mask of the matrices of a (batch, n, n) stack whose spectral abscissa,
    the largest real part of an eigenvalue, is certified below ``floor``.

    For every eigenvalue l and shift s >= 0,
    Re l + s <= |l + s| <= rho(X + sI) <= ||(X + sI)^k||_F^(1/k), and k = 32
    takes five squarings, batched matrix products on ``work``, a
    C-contiguous float64 (2, rows, n, n) buffer: the stack is screened
    ``rows`` matrices at a time. The caller picks s so that the rightmost
    eigenvalues dominate |l + s|.

    Before each squaring F is scaled by an exact power of two that brings
    its Frobenius norm into [1/2, 1), so the powers neither overflow nor
    underflow and the scale is tracked exactly. A Frobenius bound on the
    accumulated rounding error rides along: delta = u ||diag(X + sI)|| for
    the shift, then delta <- gamma_n ||F||^2 + 2 ||F|| delta + delta^2 per
    product F <- fl(F F), with gamma_n = n u / (1 - n u), which holds for
    any summation order of a conventional (non-Strassen) product. A matrix is
    certified when (||F|| + delta)^(1/k), rescaled, is below floor + s by a
    relative margin of 2^-30, which covers the rounding of the norms, the
    sums and the final log2 that delta does not track, and subnormal
    underflow. The certificate is rigorous up to that margin; it is not
    interval arithmetic. A matrix with a non-finite entry is never certified.
    """
    batch, n, _ = mats.shape
    certified = np.zeros(batch, dtype=bool)
    if not floor + shift > 0.0:
        return certified
    gamma = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
    target = math.log2(floor + shift) - _CERT_MARGIN
    rows = work.shape[1]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for start in range(0, batch, rows):
            block = mats[start : start + rows]
            size = len(block)
            f, g = work[0, :size], work[1, :size]
            np.copyto(f, block)
            diag = f.reshape(size, n * n)[:, :: n + 1]
            diag += shift
            err = _UNIT_ROUNDOFF * np.linalg.norm(diag, axis=1)
            # f is 2^-exponent (X + sI)^(2^i) up to a Frobenius error err.
            exponent = np.zeros(size)
            for _ in range(_SQUARINGS):
                norm = _frobenius(f)
                power = np.frexp(norm)[1]
                scale = np.ldexp(1.0, -power)
                f *= scale[:, None, None]
                norm *= scale
                err *= scale
                exponent += power
                np.matmul(f, f, out=g)
                err = gamma * norm * norm + 2.0 * norm * err + err * err
                exponent *= 2.0
                f, g = g, f
            norm = _frobenius(f)
            log2_radius = (np.log2(norm + err) + exponent) / 2.0 ** _SQUARINGS
            certified[start : start + size] = log2_radius < target
    return certified


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
    sigmas = np.asarray(sigmas, dtype=float).ravel()
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
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

