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
Each real direction is found algebraically:

* n = 2: with x = sqrt(2)(c, s), g = <F(x), unit tangent> is a real binary
  cubic in (c, s) read off the tensor; its real roots, from a 3x3 companion
  eigensolve in the chart (s/c or c/s) with the larger leading coefficient,
  are the directions.
* n = 3: in a fixed generic chart x ~ Q (1, u, v), E1 = G_2 - u G_1 (cubic
  in u) and E2 = G_3 - v G_1 (quadratic in u) have a resultant of degree 7
  in v, interpolated by FFT from Sylvester determinants at 16 roots of unity;
  each v-root is back-solved for u. Certificate: exactly 7 finite, distinct
  complex solutions with small back-solve residuals, else a second chart is
  tried. Fields with G(x) = |x|^2 c + (l . x) x (f = 0 among them) make the
  resultant vanish identically and are solved in closed form.

One stage serves any n, so a direction finder is the only per-size code:
each direction and its antipode are polished by tangential Newton, and each
equilibrium carries its unstable-direction count m (eigenvalues of the
tangential Jacobian with nonnegative real part) and its multiplier value.
Degenerate configurations (near-double roots, near-zero Jacobian
eigenvalues, an index sum violating the Euler characteristic, a failed
certificate) are measure zero; such a sample is flagged with the reason of
the first check it fails.

Every stage runs as one numpy call over a stack of samples (only the
sphere's closed-form family is solved sample by sample) and every check is a
per-sample mask, so a sample gives the same equilibria, to the bit, alone or
in a block. The oracle, ``oracle_mean_counts``, solves blocks of ``_BLOCK``
samples and excludes flagged samples, reporting the exclusion rate and the
reasons; ``find_equilibria_circle`` and ``find_equilibria_sphere`` solve a
stack of one and raise SampleFlaggedError.
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
#: Relative tolerance of the root certificates: complex solutions closer than
#: it to each other or to the real plane are a near-double root; on the
#: sphere, resultant coefficients below it vanish, chart coordinates beyond
#: its inverse are infinite and back-solve residuals must stay below it.
_CERT_TOL = 1e-6
#: Newton steps allowed to polish a root that the algebra located to rounding.
_POLISH_STEPS = 8
#: A sample's polish stops once every root has |F| at most this.
_RESIDUAL_TOL = 1e-11
#: Samples that ``oracle_mean_counts`` solves in one batched pass. A block
#: costs about 1.3 ms of call overhead at n = 3; at 64 samples its largest
#: temporary, the stack of Sylvester matrices (6.4 KB a sample), stays near the
#: size of the estimator's own batches, so solving does not raise the peak
#: memory of an oracle-compare run, and memory stays flat at any sample count.
_BLOCK = 64


@dataclass(frozen=True)
class FieldSample:
    """One draw of the random field: the quadratic tensor and the drift."""

    n: int
    coeffs: np.ndarray  # (n, n, n), f_i = x^T coeffs[i] x
    drift: np.ndarray  # (n,)
    sigma2: float

    def __post_init__(self):
        if self.n not in DIRECTION_FINDERS:
            raise DomainError(f"FieldSample supports n in {tuple(DIRECTION_FINDERS)}, got {self.n}")
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
    if n not in DIRECTION_FINDERS:
        raise DomainError(f"sample_field supports n in {tuple(DIRECTION_FINDERS)}, got {n}")
    if sigma2 < 0.0:
        raise DomainError(f"sigma2 must be >= 0, got {sigma2}")
    coeffs = rng.standard_normal((n, n, n)) / n
    drift = math.sqrt(sigma2) * rng.standard_normal(n)
    return FieldSample(n=n, coeffs=coeffs, drift=drift, sigma2=sigma2)


def _f_value(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """f(x) for tensors ``coeffs`` (..., n, n, n) at points ``x`` (..., n)."""
    return np.einsum("...ijk,...j,...k->...i", coeffs, x, x)


# ---------------------------------------------------------------------------
# Per-sample bookkeeping of a batched solve
# ---------------------------------------------------------------------------


class _Flags:
    """Which samples of a stack are still in play, and why the others left.

    A sample leaves ``alive`` at the first check it fails, and ``errors``
    keeps that check's error; later stages only read alive samples.
    """

    def __init__(self, size: int):
        self.alive = np.ones(size, dtype=bool)
        self.errors: dict[int, SampleFlaggedError] = {}

    def add(self, samples, reason: str, detail) -> None:
        """Flag each stack index in ``samples``; ``detail`` is the message, or
        a function of the stack index that gives it."""
        for k in map(int, samples):
            self.errors[k] = SampleFlaggedError(reason, detail(k) if callable(detail) else detail)
            self.alive[k] = False


def _any_per_sample(mask: np.ndarray, sid: np.ndarray, size: int) -> np.ndarray:
    """For each of ``size`` samples: does ``mask`` hold on any row it owns?"""
    return np.bincount(sid[mask], minlength=size) > 0


class _Solved:
    """Equilibria of a stack of samples, one row each, grouped by sample in
    stack order. ``sample`` is each row's stack index; a flagged sample has
    no rows and its error in ``flags``."""

    def __init__(self, sample, position, m, lagrange, residual, flags):
        self.sample, self.position, self.m = sample, position, m
        self.lagrange, self.residual, self.flags = lagrange, residual, flags

    def equilibria(self) -> list[tuple[int, Equilibrium]]:
        return [
            (int(k), Equilibrium(position=x, m=int(m), lagrange=float(lam), residual=float(r)))
            for k, x, m, lam, r in zip(self.sample, self.position, self.m, self.lagrange,
                                       self.residual)
        ]

    def single(self) -> list[Equilibrium]:
        """The equilibria of a stack of one; raises its flag instead."""
        if self.flags:
            raise self.flags[0]
        return [eq for _, eq in self.equilibria()]


def _companion_roots(poly: np.ndarray) -> np.ndarray:
    """Roots of each row of ``poly`` (highest degree first, leading
    coefficient nonzero), found as np.roots finds them: the eigenvalues of
    the companion matrix."""
    degree = poly.shape[-1] - 1
    companion = np.zeros(poly.shape[:-1] + (degree, degree), dtype=poly.dtype)
    companion[..., np.arange(1, degree), np.arange(degree - 1)] = 1.0
    companion[..., 0, :] = -poly[..., 1:] / poly[..., :1]
    return np.linalg.eigvals(companion)


def _real_solutions(points: np.ndarray, live: np.ndarray, flags: _Flags) -> np.ndarray:
    """Which complex solutions ``points`` (live, k, dim) are exactly real, after
    flagging the samples with a near-double root: two solutions, or one and
    the real plane, closer than ``_CERT_TOL`` relative to the solution's size."""
    size = 1.0 + np.abs(points).sum(axis=-1)
    gaps = np.abs(points[:, :, None, :] - points[:, None, :, :]).sum(axis=-1)
    gaps[:, np.arange(points.shape[1]), np.arange(points.shape[1])] = np.inf
    coincide = np.any(gaps < _CERT_TOL * size[:, None, :], axis=(1, 2))
    flags.add(live[flags.alive[live] & coincide],
              "degenerate-root", "two complex solutions coincide")
    imag = np.abs(points.imag).sum(axis=-1)
    near_real = np.any((imag > 0.0) & (imag < _CERT_TOL * size), axis=1)
    flags.add(live[flags.alive[live] & near_real],
              "degenerate-root", "near-real complex pair")
    return (imag == 0.0) & flags.alive[live][:, None]


# ---------------------------------------------------------------------------
# n = 2: the real roots of a binary cubic
# ---------------------------------------------------------------------------


def _circle_real_roots(coeffs: np.ndarray, drift: np.ndarray):
    """Unit directions of the equilibria of a stack of circle fields, one per
    antipodal pair: the real projective roots of the binary cubic

        g(c, s) = <f(x) + h, t> = -s f_0 + c f_1 + (h_1 c - h_0 s)(c^2 + s^2),

    x = sqrt(2)(c, s), t = (-s, c), read off the tensor and solved in the
    chart, s/c or c/s, with the larger leading coefficient. Returns the stack
    index of each direction, the directions (grouped by sample) and the flags.
    """
    flags = _Flags(len(coeffs))
    j, h0, h1 = 2.0 * coeffs, drift[:, 0], drift[:, 1]
    # Coefficients of c^3, c^2 s, c s^2 and s^3.
    cubic = np.stack([j[:, 1, 0, 0] + h1,
                      j[:, 1, 0, 1] + j[:, 1, 1, 0] - j[:, 0, 0, 0] - h0,
                      j[:, 1, 1, 1] - j[:, 0, 0, 1] - j[:, 0, 1, 0] + h1,
                      -j[:, 0, 1, 1] - h0], axis=1)
    flags.add(np.flatnonzero(~cubic.any(axis=1)), "degenerate-root", "g vanishes identically")
    # Bounds the companion entries; not finite when both leading terms vanish.
    with np.errstate(divide="ignore", invalid="ignore"):
        spread = np.abs(cubic).max(axis=1) / np.maximum(np.abs(cubic[:, 0]), np.abs(cubic[:, 3]))
    flags.add(np.flatnonzero(flags.alive & ~(spread < np.inf)),
              "uncertified", "root at both charts' infinity")
    live = np.flatnonzero(flags.alive)
    # t = c/s when the c^3 coefficient leads, else t = s/c.
    flip = np.abs(cubic[live, 0]) > np.abs(cubic[live, 3])
    t = _companion_roots(np.where(flip[:, None], cubic[live], cubic[live, ::-1]))
    real = _real_solutions(t.astype(complex)[..., None], live, flags)
    pair = np.stack([np.ones(t.shape), t.real], axis=-1)
    pair = np.where(flip[:, None, None], pair[..., ::-1], pair)[real]
    return np.repeat(live, 3)[real.ravel()], pair / np.linalg.norm(pair, axis=1)[:, None], flags


# ---------------------------------------------------------------------------
# n = 3: the resultant of the equilibrium equations in a rotated chart
# ---------------------------------------------------------------------------

#: Fixed generic rotations Q of the chart x ~ Q (1, u, v); the second is used
#: for the samples the first chart does not certify.
_CHARTS = tuple(
    np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))[0] for seed in (1, 2)
)
#: The resultant has degree <= 9 in v, so 16 nodes on the unit circle
#: interpolate it exactly.
_NODES = np.exp(2j * math.pi * np.arange(16) / 16)


def _chart_polys(b: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u-coefficients, highest degree first, of E1 and E2 at each v.

    ``b[..., a, :, :]`` is the symmetric matrix of the rotated component G_a,
    so that G_a(1, u, v) = alpha_a + beta_a u + gamma_a u^2; ``v`` has shape
    (..., k) and the results (..., k, 4) and (..., k, 3).
    """
    w = v[..., None, :]
    alpha = b[..., 0, 0, None] + 2.0 * b[..., 0, 2, None] * w + b[..., 2, 2, None] * w * w
    beta = 2.0 * (b[..., 0, 1, None] + b[..., 1, 2, None] * w)
    gamma = b[..., 1, 1, None] * np.ones_like(w)
    e1 = np.stack([-gamma[..., 0, :], gamma[..., 1, :] - beta[..., 0, :],
                   beta[..., 1, :] - alpha[..., 0, :], alpha[..., 1, :]], axis=-1)
    e2 = np.stack([gamma[..., 2, :] - v * gamma[..., 0, :], beta[..., 2, :] - v * beta[..., 0, :],
                   alpha[..., 2, :] - v * alpha[..., 0, :]], axis=-1)
    return e1, e2


def _chart_real_roots(a: np.ndarray, q: np.ndarray):
    """Unit directions of the real solutions of x x G(x) = 0, one per
    antipodal pair, for each sample of the stack ``a`` (``a[s, i]`` is the
    symmetric matrix of G_i).

    Returns the stack index of each direction, the directions (grouped by
    sample), and the flags of the samples whose 7 complex solutions in the
    chart of ``q`` are not certified.
    """
    flags = _Flags(len(a))
    b = q.T @ np.einsum("ia,sijk->sajk", q, a) @ q
    e1, e2 = _chart_polys(b, _NODES)
    sylvester = np.zeros((len(a), len(_NODES), 5, 5), dtype=complex)
    for row in range(2):
        sylvester[..., row, row:row + 4] = e1
    for row in range(3):
        sylvester[..., 2 + row, row:row + 3] = e2
    res = np.fft.fft(np.linalg.det(sylvester)).real / len(_NODES)
    scale = np.abs(res).max(axis=1)
    high = np.abs(res[:, 8:]).max(axis=1) > _CERT_TOL * scale
    flags.add(np.flatnonzero(~np.isfinite(scale) | high),
              "uncertified", "resultant is not of degree 7")
    flags.add(np.flatnonzero(flags.alive & (np.abs(res[:, 7]) <= _CERT_TOL * scale)),
              "uncertified", "root at the chart's infinity")
    live = np.flatnonzero(flags.alive)
    v = _companion_roots(res[live, 7::-1]).astype(complex)
    e1, e2 = _chart_polys(b[live], v)
    # Both roots of the quadratic E2, the larger-magnitude one without
    # cancellation; the common root is the one that also zeroes E1.
    q2, q1, q0 = e2[..., 0], e2[..., 1], e2[..., 2]
    disc = np.sqrt(q1 * q1 - 4.0 * q2 * q0)
    disc = np.where(np.abs(q1 + disc) >= np.abs(q1 - disc), disc, -disc)
    w = -0.5 * (q1 + disc)
    candidates = np.stack([w / q2, q0 / w], axis=-1)
    terms = e1[..., None, :] * candidates[..., None] ** np.arange(3, -1, -1)
    backsolve = np.abs(terms.sum(axis=-1)) / np.abs(terms).sum(axis=-1)
    u = np.where(np.argmin(backsolve, axis=-1) == 0, candidates[..., 0], candidates[..., 1])
    fit = backsolve.min(axis=-1)
    far = ~np.all(np.isfinite(u), axis=1) | (
        np.maximum(np.abs(u).max(axis=1), np.abs(v).max(axis=1)) > 1.0 / _CERT_TOL)
    flags.add(live[far], "uncertified", "root at the chart's infinity")
    flags.add(live[flags.alive[live] & (fit.max(axis=1) > _CERT_TOL)],
              "uncertified", "back-solve residual too large")
    points = np.stack([u, v], axis=-1)
    real = _real_solutions(points, live, flags)
    sid = np.repeat(live, 7)[real.ravel()]
    chart_points = np.concatenate([np.ones((len(sid), 1)), points[real].real], axis=1)
    xs = chart_points @ q.T
    # BLAS rounds a lone (1, 3) @ (3, 3) product (a sample with one real
    # solution, solved alone) differently from a row of a taller product;
    # round every lone row that way, so no sample depends on its neighbours.
    lone = np.bincount(sid, minlength=len(a))[sid] == 1
    xs[lone] = (q @ chart_points[lone, :, None])[..., 0]
    return sid, xs / np.linalg.norm(xs, axis=1)[:, None], flags


def _sphere_real_roots(coeffs: np.ndarray, drift: np.ndarray):
    """Unit directions of the equilibria of a stack of 2-sphere fields, one
    per antipodal pair, from each certified complex root set: the stack index
    of each direction, the directions and the flags."""
    size = len(coeffs)
    flags = _Flags(size)
    # G_i(x) = x^T a[i] x on the sphere, with the drift made homogeneous.
    eye = np.eye(3)
    a = 0.5 * (coeffs + coeffs.transpose(0, 1, 3, 2)) + np.multiply.outer(drift / 3.0, eye)
    # If a_ijk = c_i d_jk + (l_j d_ik + l_k d_ij)/2, i.e. G(x) = |x|^2 c + (l . x) x,
    # then x x G(x) = |x|^2 x x c: the chart resultant vanishes identically
    # and the equilibria lie along c. The two traces of a give c and l.
    t1, t2 = np.einsum("sijj->si", a), np.einsum("sjji->si", a)
    c, ell = (2.0 * t1 - t2) / 5.0, (3.0 * t2 - t1) / 5.0
    family = c[:, :, None, None] * eye + 0.5 * (
        np.einsum("sj,ik->sijk", ell, eye) + np.einsum("sk,ij->sijk", ell, eye))
    flat = a.reshape(size, -1)
    closed = (np.linalg.norm(flat - family.reshape(size, -1), axis=1)
              <= 1e-12 * np.linalg.norm(flat, axis=1))
    flags.add(np.flatnonzero(closed & ~c.any(axis=1)), "degenerate-root",
              "every point is an equilibrium")
    found = [(np.array([k]), (c[k] / np.linalg.norm(c[k]))[None, :])
             for k in np.flatnonzero(closed & flags.alive)]
    pending, failed = np.flatnonzero(~closed), {}
    for q in _CHARTS:
        if not len(pending):
            break
        sid, dirs, chart = _chart_real_roots(a[pending], q)
        found.append((pending[sid], dirs))
        failed = {int(pending[k]): exc for k, exc in chart.errors.items()}
        pending = np.array(sorted(failed), dtype=np.intp)
    flags.errors.update(failed)
    flags.alive[list(failed)] = False
    sid = np.concatenate([np.empty(0, dtype=np.intp)] + [k for k, _ in found])
    return sid, np.concatenate([np.empty((0, 3))] + [d for _, d in found]), flags


#: The oracle's sphere sizes n, each with its direction finder: the one
#: place that says which n the oracle solves.
DIRECTION_FINDERS = {2: _circle_real_roots, 3: _sphere_real_roots}


# ---------------------------------------------------------------------------
# Any n: polish and classify the real directions
# ---------------------------------------------------------------------------


def _tangent_frames(xs: np.ndarray) -> np.ndarray:
    """Orthonormal tangent bases at each row of xs, as columns: (s, n, n - 1),
    the last n - 1 columns of the Householder reflection I - 2 v v^T / (v^T v),
    v = r + sign(r_0) e_0 for the unit radial r (so |v|^2 >= 2 at any n)."""
    radial = xs / np.linalg.norm(xs, axis=1)[:, None]
    v = radial.copy()
    v[:, 0] += np.copysign(1.0, radial[:, 0])
    scale = 2.0 / (v * v).sum(axis=1)
    return np.eye(xs.shape[1])[:, 1:] - scale[:, None, None] * v[:, :, None] * v[:, None, 1:]


def _tangential_system(coeffs: np.ndarray, drift: np.ndarray, xs: np.ndarray):
    """F, lam, tangent frames and the Jacobian of F in those frames at each
    row of xs, for the field of that row's tensor and drift."""
    n = xs.shape[1]
    ambient = _f_value(coeffs, xs) + drift
    lam = (xs * ambient).sum(axis=1) / n
    # d f_i / d x_l = sum_k J_ilk x_k + sum_j J_ijl x_j
    df = np.einsum("silk,sk->sil", coeffs, xs) + np.einsum("sijl,sj->sil", coeffs, xs)
    grad_lam = (ambient + np.einsum("sil,si->sl", df, xs)) / n
    jac = df - lam[:, None, None] * np.eye(n) - xs[:, :, None] * grad_lam[:, None, :]
    frames = _tangent_frames(xs)
    reduced = np.einsum("sia,sij,sjb->sab", frames, jac, frames)
    return ambient - lam[:, None] * xs, lam, frames, reduced


def _solve(coeffs: np.ndarray, drift: np.ndarray) -> _Solved:
    """Equilibria of a stack of fields, at any n in ``DIRECTION_FINDERS``.

    Each certified direction and its antipode are polished by tangential
    Newton until every root of the sample has |F| <= ``_RESIDUAL_TOL``, then
    classified by the tangential Jacobian. The index sum must also meet the
    Euler characteristic, sum (-1)^m = 1 + (-1)^(n-1); a sample that fails
    any check is flagged rather than returned as a silently short list.
    """
    size, n = coeffs.shape[:2]
    sid, dirs, flags = DIRECTION_FINDERS[n](coeffs, drift)
    # Each real direction is an antipodal pair of equilibria: a sample's
    # directions, then their antipodes.
    sid = np.concatenate([sid, sid])
    order = np.argsort(sid, kind="stable")
    sid, xs = sid[order], math.sqrt(n) * np.concatenate([dirs, -dirs])[order]
    coeffs, drift = coeffs[sid], drift[sid]
    lam, residual, jac = np.empty(len(sid)), np.empty(len(sid)), np.empty((len(sid), n - 1, n - 1))
    polishing = flags.alive.copy()
    for _ in range(_POLISH_STEPS):
        if not polishing.any():
            break
        rows = np.flatnonzero(polishing[sid])
        tangent, row_lam, frames, row_jac = _tangential_system(coeffs[rows], drift[rows], xs[rows])
        norms = np.linalg.norm(tangent, axis=1)
        done = polishing & ~_any_per_sample(~(norms <= _RESIDUAL_TOL), sid[rows], size)
        polishing &= ~done
        settled = done[sid[rows]]
        lam[rows[settled]], residual[rows[settled]] = row_lam[settled], norms[settled]
        jac[rows[settled]] = row_jac[settled]
        move = ~settled
        rows, frames, tangent = rows[move], frames[move], tangent[move]
        step = np.linalg.solve(row_jac[move], -np.einsum("sia,si->sa", frames, tangent)[..., None])
        moved = xs[rows] + (frames @ step)[..., 0]
        xs[rows] = math.sqrt(n) * moved / np.linalg.norm(moved, axis=1)[:, None]
    flags.add(np.flatnonzero(polishing), "uncertified",
              f"Newton polish stalled above {_RESIDUAL_TOL}")
    kept = flags.alive[sid]
    sid, xs, lam, residual, jac = sid[kept], xs[kept], lam[kept], residual[kept], jac[kept]
    re_parts = np.linalg.eigvals(jac).real
    flags.add(
        np.flatnonzero(_any_per_sample(np.any(np.abs(re_parts) < _JACOBIAN_EIG_FLOOR, axis=1),
                                       sid, size)),
        "near-zero-jacobian-eigenvalue", lambda k: f"re parts {re_parts[sid == k].tolist()}")
    ms = (re_parts >= 0.0).sum(axis=1)
    index_sum = np.bincount(sid, weights=(-1) ** ms, minlength=size).astype(int)
    flags.add(np.flatnonzero(flags.alive & (index_sum != 1 + (-1) ** (n - 1))),
              "euler-characteristic-violation", lambda k: f"sum (-1)^m = {index_sum[k]}")
    kept = flags.alive[sid]
    return _Solved(sid[kept], xs[kept], ms[kept], lam[kept], residual[kept], flags.errors)


def _find_equilibria(fs: FieldSample, n: int, name: str) -> list[Equilibrium]:
    """All equilibria of ``fs``, which ``name`` takes at size n only: its
    directions then their antipodes, solved as a batch of one; raises
    SampleFlaggedError for a flagged sample."""
    if fs.n != n:
        raise DomainError(f"{name} requires n = {n}")
    return _solve(fs.coeffs[None], fs.drift[None]).single()


def find_equilibria_circle(fs: FieldSample) -> list[Equilibrium]:
    """All equilibria on the circle (see ``_find_equilibria``)."""
    return _find_equilibria(fs, 2, "find_equilibria_circle")


def find_equilibria_sphere(fs: FieldSample) -> list[Equilibrium]:
    """All equilibria on the 2-sphere (see ``_find_equilibria``)."""
    return _find_equilibria(fs, 3, "find_equilibria_sphere")


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
# Batch driver
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

    Sample i is drawn from ``substream(seed, i)``; the samples are solved
    ``_BLOCK`` at a time. ``collect``, if given, receives a (sample_index,
    Equilibrium) pair for every retained equilibrium (CSV dumps).
    Flagged-sample reasons and the exclusion rate are reported.
    """
    if n_samples < 1:
        raise DomainError(f"oracle_mean_counts requires n_samples >= 1, got {n_samples}")
    counts = [np.empty((0, n))]
    reasons: dict[str, int] = {}
    for start in range(0, n_samples, _BLOCK):
        fields = [sample_field(n, sigma2, substream(seed, i))
                  for i in range(start, min(start + _BLOCK, n_samples))]
        solved = _solve(np.stack([fs.coeffs for fs in fields]),
                        np.stack([fs.drift for fs in fields]))
        for k in sorted(solved.flags):
            reason = solved.flags[k].reason
            reasons[reason] = reasons.get(reason, 0) + 1
        per_m = np.bincount(solved.sample * n + solved.m, minlength=len(fields) * n)
        retained = np.ones(len(fields), dtype=bool)
        retained[list(solved.flags)] = False
        counts.append(per_m.reshape(-1, n)[retained].astype(float))
        if collect is not None:
            collect.extend((start + k, eq) for k, eq in solved.equilibria())
    stack = np.concatenate(counts)
    retained = len(stack)
    if retained == 0:
        raise SampleFlaggedError("all-samples-flagged", f"{n_samples} samples")

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
