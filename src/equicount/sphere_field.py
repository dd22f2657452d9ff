"""Brute-force equilibrium counting for the random field on low-dim spheres.

The field on the sphere of radius sqrt(n) is

    F(x) = -lam(x) x + f(x) + h,      lam(x) = <x, f(x) + h> / n,

with f_i(x) = sum_{jk} J_ijk x_j x_k for an iid Gaussian tensor J of entry
variance 1/n^2 and h iid Gaussian of variance sigma2. This realizes the
covariance E[f_i(x) f_j(y)] = delta_ij (<x, y>/n)^2: diagonal kernel q -> q^2,
no positional kernel, hence tau = 0 and b^2 = (sigma2 + 1) / 2. The Lagrange
multiplier lam makes F tangent to the sphere by construction.

Equilibria (zeros of F) are the points where G(x) = f(x) + h |x|^2 / n is
parallel to x: generically 2^n - 1 complex projective solutions (3 on the
circle, 7 on the 2-sphere), each real one an antipodal pair of equilibria.
They are found algebraically and polished by Newton iteration:

* n = 2: F on the circle is g(t) * unit tangent, with g a degree-3
  trigonometric polynomial; its zeros are the unit-modulus roots of the
  degree-6 polynomial z^3 g(z), whose coefficients are an 8-point FFT of g.
* n = 3: in a fixed generic chart x ~ Q (1, u, v), E1 = G_2 - u G_1 (cubic
  in u) and E2 = G_3 - v G_1 (quadratic in u) have a resultant of degree 7
  in v, interpolated by FFT from Sylvester determinants at 16 roots of unity;
  each v-root is back-solved for u. Certificate: exactly 7 finite, distinct
  complex solutions with small back-solve residuals, else a second chart is
  tried. Fields with G(x) = |x|^2 c + (l . x) x (f = 0 among them) make the
  resultant vanish identically and are solved in closed form.

Each equilibrium carries its unstable-direction count m (eigenvalues of the
tangential Jacobian with nonnegative real part) and its multiplier value.
Degenerate configurations (near-double roots, near-zero Jacobian eigenvalues,
an index sum violating the Euler characteristic, a failed certificate) are
measure zero; such samples raise SampleFlaggedError and batch drivers exclude
them, reporting the exclusion rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, SampleFlaggedError
from .rates import ModelParams
from .sampling import MCEstimate, substream

#: Classification threshold on |Re eigenvalue| of the tangential Jacobian
#: below which a sample is flagged as a boundary case.
_JACOBIAN_EIG_FLOOR = 1e-10
#: Slope floor below which a circle root counts as degenerate (tangency).
_SLOPE_FLOOR = 1e-8
#: Newton steps allowed to polish a root that the algebra located to rounding.
_POLISH_STEPS = 8


@dataclass(frozen=True)
class FieldSample:
    """One draw of the random field: the quadratic tensor and the drift."""

    n: int
    coeffs: np.ndarray  # (n, n, n), f_i = x^T coeffs[i] x
    drift: np.ndarray  # (n,)
    sigma2: float

    def __post_init__(self):
        if self.n not in (2, 3):
            raise DomainError(f"FieldSample supports n in (2, 3), got {self.n}")
        if self.coeffs.shape != (self.n,) * 3 or self.drift.shape != (self.n,):
            raise DomainError("coeffs must be (n, n, n) and drift (n,)")


@dataclass(frozen=True)
class Equilibrium:
    """A zero of the field with its stability classification."""

    position: np.ndarray
    m: int
    lagrange: float
    residual: float


def field_model_params(sigma2: float) -> ModelParams:
    """The ModelParams realized by the quadratic tensor field."""
    return ModelParams(phi1=1.0, dphi1=2.0, phi2=0.0, sigma2=sigma2)


def sample_field(n: int, sigma2: float, rng: np.random.Generator) -> FieldSample:
    """Draw the tensor (entry variance 1/n^2) and the drift (variance sigma2)."""
    if n not in (2, 3):
        raise DomainError(f"sample_field supports n in (2, 3), got {n}")
    if sigma2 < 0.0:
        raise DomainError(f"sigma2 must be >= 0, got {sigma2}")
    coeffs = rng.standard_normal((n, n, n)) / n
    drift = math.sqrt(sigma2) * rng.standard_normal(n)
    return FieldSample(n=n, coeffs=coeffs, drift=drift, sigma2=sigma2)


def _f_value(fs: FieldSample, x: np.ndarray) -> np.ndarray:
    return np.einsum("ijk,...j,...k->...i", fs.coeffs, x, x)


def eval_field(fs: FieldSample, x: np.ndarray) -> tuple[np.ndarray, float]:
    """(tangent field, multiplier) at an on-sphere point.

    The multiplier lam(x) = <x, f(x) + h>/n removes the radial component, so
    <F(x), x> = 0 to rounding.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (fs.n,):
        raise DomainError(f"x must have shape ({fs.n},)")
    if abs(float(x @ x) - fs.n) > 1e-8 * fs.n:
        raise DomainError(f"x is off the sphere: |x|^2 = {float(x @ x)}, expected {fs.n}")
    ambient = _f_value(fs, x) + fs.drift
    lam = float(x @ ambient) / fs.n
    return ambient - lam * x, lam


# ---------------------------------------------------------------------------
# n = 2: unit-modulus roots of a trigonometric polynomial
# ---------------------------------------------------------------------------

#: A root z of z^3 g(z) with ||z| - 1| below this lies on the circle; simple
#: roots come out of the eigensolver within about 1e-13 of it.
_UNIT_TOL = 1e-6
#: A root off the circle but closer than this is half of a near-double real
#: root (a complex pair about to land); the sample is flagged.
_NEAR_UNIT = 1e-4


def _circle_g(fs: FieldSample, theta: np.ndarray) -> np.ndarray:
    """Tangential component g(theta) = <f(x) + h, t> at x = sqrt(2)(cos, sin).

    The multiplier term drops out because <x, t> = 0; g is a trigonometric
    polynomial of degree 3, so it has at most 6 zeros.
    """
    c, s = np.cos(theta), np.sin(theta)
    x = math.sqrt(2.0) * np.stack([c, s], axis=-1)
    f = _f_value(fs, x) + fs.drift
    return -f[..., 0] * s + f[..., 1] * c


def find_equilibria_circle(fs: FieldSample, refine_tol: float = 1e-12) -> list[Equilibrium]:
    """All equilibria on the circle, sorted by angle in [0, 2 pi).

    Roots are polished by Newton on g(theta) = c_0 + 2 Re sum_j c_j e^{i j theta}
    until the step is below ``refine_tol``. Zeros of a smooth function on the
    circle alternate in slope sign, so count(m=0) = count(m=1) must hold.
    """
    if fs.n != 2:
        raise DomainError("find_equilibria_circle requires n = 2")
    c = np.fft.fft(_circle_g(fs, np.arange(8) * (math.pi / 4.0)))[:4] / 8.0
    poly = np.concatenate([c[:0:-1], [c[0].real], np.conj(c[1:])])
    size = np.abs(poly)
    if size.max() == 0.0:
        raise SampleFlaggedError("degenerate-root", "g vanishes identically")
    # Negligible outer coefficients (a field of lower trigonometric degree)
    # only add roots near 0 and infinity; drop them in reciprocal pairs.
    trim = int(np.argmax(size > 1e-12 * size.max()))
    z = np.roots(poly[trim:len(poly) - trim])
    off_circle = np.abs(np.abs(z) - 1.0)
    near = off_circle[(off_circle >= _UNIT_TOL) & (off_circle < _NEAR_UNIT)]
    if len(near):
        raise SampleFlaggedError("degenerate-root", f"root {near.min():.3g} off the circle")
    theta = np.angle(z[off_circle < _UNIT_TOL])
    j = np.arange(1, 4)
    for _ in range(_POLISH_STEPS):
        terms = c[1:] * np.exp(1j * np.outer(theta, j))
        slope = -2.0 * (terms * j).sum(axis=1).imag
        if np.any(np.abs(slope) < _SLOPE_FLOOR):
            raise SampleFlaggedError("degenerate-root", f"|dg/dtheta| = {np.abs(slope).min()}")
        step = (c[0].real + 2.0 * terms.sum(axis=1).real) / slope
        theta = theta - step
        if np.all(np.abs(step) <= refine_tol):
            break
    order = np.argsort(theta % (2.0 * math.pi))
    theta, slope = theta[order] % (2.0 * math.pi), slope[order]
    ms = (slope >= 0.0).astype(int)
    if 2 * ms.sum() != len(ms):
        raise SampleFlaggedError("alternation-violation", f"m counts {ms.tolist()}")
    xs = math.sqrt(2.0) * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    lams = (xs * (_f_value(fs, xs) + fs.drift)).sum(axis=1) / 2.0
    residuals = np.abs(_circle_g(fs, theta))
    return [
        Equilibrium(position=x, m=int(m), lagrange=float(lam), residual=float(r))
        for x, m, lam, r in zip(xs, ms, lams, residuals)
    ]


# ---------------------------------------------------------------------------
# n = 3: the resultant of the equilibrium equations in a rotated chart
# ---------------------------------------------------------------------------

#: Fixed generic rotations Q of the chart x ~ Q (1, u, v); the second is used
#: when a root of the field sits at (or near) the first chart's infinity.
_CHARTS = tuple(
    np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))[0] for seed in (1, 2)
)
#: The resultant has degree <= 9 in v, so 16 nodes on the unit circle
#: interpolate it exactly.
_NODES = np.exp(2j * math.pi * np.arange(16) / 16)
#: Relative tolerance of the certificate: resultant coefficients below it
#: vanish, chart coordinates beyond its inverse are infinite, back-solve
#: residuals must stay below it, and complex solutions closer than it to each
#: other or to the real plane are a near-double root.
_CERT_TOL = 1e-6


def _chart_polys(b: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u-coefficients, highest degree first, of E1 and E2 at each v.

    ``b[a]`` is the symmetric matrix of the rotated component G_a, so that
    G_a(1, u, v) = alpha_a + beta_a u + gamma_a u^2.
    """
    alpha = b[:, 0, 0, None] + 2.0 * b[:, 0, 2, None] * v + b[:, 2, 2, None] * v * v
    beta = 2.0 * (b[:, 0, 1, None] + b[:, 1, 2, None] * v)
    gamma = b[:, 1, 1, None] * np.ones_like(v)
    e1 = np.stack([-gamma[0], gamma[1] - beta[0], beta[1] - alpha[0], alpha[1]], axis=-1)
    e2 = np.stack([gamma[2] - v * gamma[0], beta[2] - v * beta[0], alpha[2] - v * alpha[0]], -1)
    return e1, e2


def _chart_real_roots(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Unit directions of the real solutions of x x G(x) = 0, one per antipodal pair.

    ``a[i]`` is the symmetric matrix of G_i. Raises SampleFlaggedError when
    the 7 complex solutions in the chart of ``q`` are not certified.
    """
    b = q.T @ np.einsum("ia,ijk->ajk", q, a) @ q
    e1, e2 = _chart_polys(b, _NODES)
    sylvester = np.zeros((len(_NODES), 5, 5), dtype=complex)
    for row in range(2):
        sylvester[:, row, row:row + 4] = e1
    for row in range(3):
        sylvester[:, 2 + row, row:row + 3] = e2
    res = np.fft.fft(np.linalg.det(sylvester)).real / len(_NODES)
    scale = np.abs(res).max()
    if not np.isfinite(scale) or np.abs(res[8:]).max() > _CERT_TOL * scale:
        raise SampleFlaggedError("uncertified", "resultant is not of degree 7")
    if abs(res[7]) <= _CERT_TOL * scale:
        raise SampleFlaggedError("uncertified", "root at the chart's infinity")
    v = np.roots(res[7::-1]).astype(complex)
    e1, e2 = _chart_polys(b, v)
    # Both roots of the quadratic E2, the larger-magnitude one without
    # cancellation; the common root is the one that also zeroes E1.
    q2, q1, q0 = e2.T
    disc = np.sqrt(q1 * q1 - 4.0 * q2 * q0)
    disc = np.where(np.abs(q1 + disc) >= np.abs(q1 - disc), disc, -disc)
    w = -0.5 * (q1 + disc)
    candidates = np.stack([w / q2, q0 / w], axis=1)
    terms = e1[:, None, :] * candidates[..., None] ** np.arange(3, -1, -1)
    backsolve = np.abs(terms.sum(axis=-1)) / np.abs(terms).sum(axis=-1)
    pick = np.argmin(backsolve, axis=1)
    u = candidates[np.arange(len(v)), pick]
    if not np.all(np.isfinite(u)) or max(np.abs(u).max(), np.abs(v).max()) > 1.0 / _CERT_TOL:
        raise SampleFlaggedError("uncertified", "root at the chart's infinity")
    if backsolve[np.arange(len(v)), pick].max() > _CERT_TOL:
        raise SampleFlaggedError("uncertified", "back-solve residual too large")
    points = np.stack([u, v], axis=1)
    size = 1.0 + np.abs(points).sum(axis=1)
    gaps = np.abs(points[:, None, :] - points[None, :, :]).sum(axis=-1)
    np.fill_diagonal(gaps, np.inf)
    if np.any(gaps < _CERT_TOL * size):
        raise SampleFlaggedError("degenerate-root", "two complex solutions coincide")
    imag = np.abs(points.imag).sum(axis=1)
    if np.any((imag > 0.0) & (imag < _CERT_TOL * size)):
        raise SampleFlaggedError("degenerate-root", "near-real complex pair")
    real = points[imag == 0.0].real
    xs = np.concatenate([np.ones((len(real), 1)), real], axis=1) @ q.T
    return xs / np.linalg.norm(xs, axis=1)[:, None]


def _tangent_frames(xs: np.ndarray) -> np.ndarray:
    """Orthonormal tangent bases at each row of xs, as columns: shape (s, 3, 2)."""
    radial = xs / np.linalg.norm(xs, axis=1)[:, None]
    # Pick the coordinate axis least aligned with the radial direction.
    pick = np.argmin(np.abs(radial), axis=1)
    helper = np.zeros_like(radial)
    helper[np.arange(len(xs)), pick] = 1.0
    e1 = helper - (helper * radial).sum(axis=1)[:, None] * radial
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    return np.stack([e1, np.cross(radial, e1)], axis=-1)


def _tangential_system(fs: FieldSample, xs: np.ndarray):
    """F, lam, tangent frames and the Jacobian of F in those frames, per row of xs."""
    ambient = _f_value(fs, xs) + fs.drift
    lam = (xs * ambient).sum(axis=1) / fs.n
    # d f_i / d x_l = sum_k J_ilk x_k + sum_j J_ijl x_j
    df = np.einsum("ilk,sk->sil", fs.coeffs, xs) + np.einsum("ijl,sj->sil", fs.coeffs, xs)
    grad_lam = (ambient + np.einsum("sil,si->sl", df, xs)) / fs.n
    jac = df - lam[:, None, None] * np.eye(fs.n) - xs[:, :, None] * grad_lam[:, None, :]
    frames = _tangent_frames(xs)
    reduced = np.einsum("sia,sij,sjb->sab", frames, jac, frames)
    return ambient - lam[:, None] * xs, lam, frames, reduced


def _polish(fs: FieldSample, xs: np.ndarray, newton_tol: float) -> np.ndarray:
    """Tangential Newton from accurate starting points to |F| <= newton_tol."""
    for _ in range(_POLISH_STEPS):
        tangent, _, frames, jac = _tangential_system(fs, xs)
        if np.linalg.norm(tangent, axis=1).max() <= newton_tol:
            return xs
        step = np.linalg.solve(jac, -np.einsum("sia,si->sa", frames, tangent)[..., None])
        moved = xs + (frames @ step)[..., 0]
        xs = math.sqrt(fs.n) * moved / np.linalg.norm(moved, axis=1)[:, None]
    raise SampleFlaggedError("uncertified", f"Newton polish stalled above {newton_tol}")


def _classify(fs: FieldSample, xs: np.ndarray) -> list[Equilibrium]:
    """Equilibria at the roots xs, with m from the 2x2 tangential Jacobians."""
    tangent, lam, _, jac = _tangential_system(fs, xs)
    re_parts = np.linalg.eigvals(jac).real
    if np.any(np.abs(re_parts) < _JACOBIAN_EIG_FLOOR):
        raise SampleFlaggedError("near-zero-jacobian-eigenvalue", f"re parts {re_parts.tolist()}")
    ms = (re_parts >= 0.0).sum(axis=1)
    residuals = np.linalg.norm(tangent, axis=1)
    return [
        Equilibrium(position=x, m=int(m), lagrange=float(lm), residual=float(r))
        for x, m, lm, r in zip(xs, ms, lam, residuals)
    ]


def find_equilibria_sphere(fs: FieldSample, newton_tol: float = 1e-11) -> list[Equilibrium]:
    """All equilibria on the 2-sphere, from the certified complex root set.

    Roots are polished by tangential Newton to |F| <= ``newton_tol``. The index
    sum must also meet the Euler characteristic, sum (-1)^m = 2; a sample that
    fails any check is flagged rather than returned as a silently short list.
    """
    if fs.n != 3:
        raise DomainError("find_equilibria_sphere requires n = 3")
    # G_i(x) = x^T a[i] x on the sphere, with the drift made homogeneous.
    eye = np.eye(3)
    a = 0.5 * (fs.coeffs + fs.coeffs.transpose(0, 2, 1)) + np.multiply.outer(fs.drift / 3.0, eye)
    # If a_ijk = c_i d_jk + (l_j d_ik + l_k d_ij)/2, i.e. G(x) = |x|^2 c + (l . x) x,
    # then x x G(x) = |x|^2 x x c: the chart resultant vanishes identically
    # and the equilibria lie along c. The two traces of a give c and l.
    t1, t2 = np.einsum("ijj->i", a), np.einsum("jji->i", a)
    c, ell = (2.0 * t1 - t2) / 5.0, (3.0 * t2 - t1) / 5.0
    family = np.multiply.outer(c, eye) + 0.5 * (
        np.einsum("j,ik->ijk", ell, eye) + np.einsum("k,ij->ijk", ell, eye))
    if np.linalg.norm(a - family) <= 1e-12 * np.linalg.norm(a):
        if not np.any(c):
            raise SampleFlaggedError("degenerate-root", "every point is an equilibrium")
        xs = (c / np.linalg.norm(c))[None, :]
    else:
        for q in _CHARTS:
            try:
                xs = _chart_real_roots(a, q)
                break
            except SampleFlaggedError as exc:
                failure = exc
        else:
            raise failure
    xs = math.sqrt(3.0) * np.concatenate([xs, -xs])
    out = _classify(fs, _polish(fs, xs, newton_tol))
    index_sum = sum((-1) ** e.m for e in out)
    if index_sum != 2:
        raise SampleFlaggedError("euler-characteristic-violation", f"sum (-1)^m = {index_sum}")
    return out


@lru_cache(maxsize=16)
def icosphere_vertices(level: int) -> np.ndarray:
    """Unit vertices of the icosahedron subdivided ``level`` times.

    Cached and returned read-only: the mesh is reused across samples.
    """
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = []
    for a in (-1.0, 1.0):
        for b_ in (-phi, phi):
            verts += [(0.0, a, b_), (a, b_, 0.0), (b_, 0.0, a)]
    verts = np.array(verts)
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = []
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            for k in range(j + 1, len(verts)):
                # icosahedron edge length in these coordinates is 2/sqrt(1+phi^2)
                dd = (
                    np.linalg.norm(verts[i] - verts[j]),
                    np.linalg.norm(verts[j] - verts[k]),
                    np.linalg.norm(verts[i] - verts[k]),
                )
                if all(abs(d - 2.0 / math.sqrt(1 + phi * phi)) < 1e-9 for d in dd):
                    faces.append((i, j, k))
    faces = np.array(faces)
    points = {tuple(np.round(v, 12)) for v in verts}
    tris = [verts[list(f)] for f in faces]
    for _ in range(level):
        new_tris = []
        for tri in tris:
            a, b_, c = tri
            ab = (a + b_) / np.linalg.norm(a + b_)
            bc = (b_ + c) / np.linalg.norm(b_ + c)
            ca = (c + a) / np.linalg.norm(c + a)
            new_tris += [
                np.array([a, ab, ca]),
                np.array([ab, b_, bc]),
                np.array([ca, bc, c]),
                np.array([ab, bc, ca]),
            ]
        tris = new_tris
        for tri in tris:
            for v in tri:
                points.add(tuple(np.round(v, 12)))
    out = np.array(sorted(points))
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# Batch driver and the multiplier histogram
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleCounts:
    """Mean equilibrium counts per index from a batch of field samples."""

    per_m: dict[int, MCEstimate]
    total: MCEstimate
    n_samples: int
    n_retained: int
    flagged_rate: float
    flag_reasons: dict[str, int]


def oracle_mean_counts(
    n: int, sigma2: float, n_samples: int, seed: int, collect: list | None = None
) -> OracleCounts:
    """Sample fields and count equilibria per index, excluding flagged samples.

    ``collect``, if given, receives a (sample_index, Equilibrium) pair for
    every retained equilibrium (histogram work, CSV dumps). Flagged-sample
    reasons and the exclusion rate are reported.
    """
    counts: list[np.ndarray] = []
    reasons: dict[str, int] = {}
    for i in range(n_samples):
        fs = sample_field(n, sigma2, substream(seed, i))
        try:
            eqs = find_equilibria_circle(fs) if n == 2 else find_equilibria_sphere(fs)
        except SampleFlaggedError as exc:
            reasons[exc.reason] = reasons.get(exc.reason, 0) + 1
            continue
        counts.append(np.bincount([eq.m for eq in eqs], minlength=n).astype(float))
        if collect is not None:
            collect.extend((i, eq) for eq in eqs)
    retained = len(counts)
    if retained == 0:
        raise SampleFlaggedError("all-samples-flagged", f"{n_samples} samples")
    stack = np.array(counts)

    def estimate(values: np.ndarray) -> MCEstimate:
        stderr = float(values.std(ddof=1) / math.sqrt(retained)) if retained > 1 else 0.0
        return MCEstimate(mean=float(values.mean()), stderr=stderr, n_trials=retained, seed=seed)

    return OracleCounts(
        per_m={m: estimate(stack[:, m]) for m in range(n)},
        total=estimate(stack.sum(axis=1)),
        n_samples=n_samples,
        n_retained=retained,
        flagged_rate=1.0 - retained / n_samples,
        flag_reasons=reasons,
    )


def lagrange_histogram(equilibria, bins=20) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Multiplier histograms split by unstable-direction count.

    Shared bin edges across all indices so the per-m histograms are directly
    comparable; returns {m: (counts, edges)}.
    """
    eqs = list(equilibria)
    if not eqs:
        raise DomainError("lagrange_histogram needs a nonempty equilibrium list")
    values = np.array([e.lagrange for e in eqs])
    edges = np.histogram_bin_edges(values, bins=bins)
    out = {}
    for m in sorted({e.m for e in eqs}):
        sub = np.array([e.lagrange for e in eqs if e.m == m])
        counts, _ = np.histogram(sub, bins=edges)
        out[m] = (counts, edges)
    return out
