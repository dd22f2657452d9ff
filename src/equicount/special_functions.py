"""Closed forms and quadrature for the elliptic-ensemble rate machinery.

This module evaluates, in double precision and with the standard library's
special functions only:

* an underflow-safe log(erfc),
* the large-deviation rate function I(x; tau) of the rightmost real
  eigenvalues of the elliptic ensemble,
* the logarithmic potential phi(x, y; tau) of the uniform law on the ellipse
  with semi-axes (1+tau, 1-tau), by radial quadrature of its angular mean,
  which Jensen's formula gives in closed form,
* the tilted potential psi = phi - x^2/(2(1+tau)) - y^2/(2(1-tau)),
* the log normalization constant of the ordered-eigenvalue density.

The quadrature route for phi is deliberately kept independent of the rate
function (it uses only Jensen's formula on each ellipse of the foliation) so
the two can cross-check each other. All functions are pure.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureToleranceError


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and panel budget of the adaptive radial rule of the ellipse
    potential; running out of panels raises QuadratureToleranceError."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    max_subdivisions: int = 400

    def __post_init__(self):
        if not self.abs_tol > 0:
            raise DomainError(f"abs_tol must be > 0, got {self.abs_tol}")
        if not self.rel_tol > 0:
            raise DomainError(f"rel_tol must be > 0, got {self.rel_tol}")
        if self.max_subdivisions < 1:
            raise DomainError(f"max_subdivisions must be >= 1, got {self.max_subdivisions}")


DEFAULT_QUADRATURE = QuadratureSpec()


#: Above this, erfc(x) < 1e-295 nears the subnormal range and log_erfc uses
#: the continued fraction of erfcx instead.
_ERFC_NORMAL_LIMIT = 26.0

#: Terms of the erfcx continued fraction; at x >= 26 it has converged to
#: rounding long before.
_ERFCX_TERMS = 60


def log_erfc(x: float) -> float:
    """log(erfc(x)); finite below x = 1.34e154, -inf above (x * x overflows).

    Below 26, erfc(x) is a normal double and its log is taken directly.
    Above, erfc(x) = exp(-x^2) erfcx(x) with Laplace's continued fraction

        sqrt(pi) erfcx(x) = 1 / (x + (1/2) / (x + (2/2) / (x + (3/2) / (x + ...)))),

    evaluated bottom-up, stays in range where erfc itself underflows.
    """
    x = float(x)
    if x <= _ERFC_NORMAL_LIMIT:
        return math.log(math.erfc(x))
    tail = 0.0
    for k in range(_ERFCX_TERMS, 0, -1):
        tail = 0.5 * k / (x + tail)
    return -x * x - math.log(x + tail) - 0.5 * math.log(math.pi)


def rate_function(x: float, tau: float) -> float:
    """Exponential cost per dimension for a real eigenvalue at x past the edge.

    Returns +inf for x < 1 + tau. On [1 + tau, inf) the value is nonnegative,
    vanishes exactly at the edge x = 1 + tau and is strictly increasing.

    With s = sqrt(x^2 - 4 tau) the value is

        x^2 / (2 (1+tau)) - x / (x + s) - log((x + s) / 2),

    where x/(x+s) is the cancellation-free rewrite of x (x - s) / (4 tau).
    One formula covers every tau: at tau = 0, s = x exactly and it reduces
    term by term to x^2/2 - 1/2 - log x.
    """
    tau = float(tau)
    x = float(x)
    if not -1.0 < tau < 1.0:
        raise DomainError(f"rate_function requires -1 < tau < 1, got tau={tau}")
    if x < 1.0 + tau:
        return math.inf
    xx = x * x
    if math.isinf(xx):  # x >~ 1.3e154: the last line would read inf - inf
        return math.inf
    # x >= 1 + tau and |tau| < 1 give x^2 - 4 tau >= (1 - tau)^2 >= 0, so the
    # principal real root is always defined here.
    s = math.sqrt(xx - 4.0 * tau)
    return xx / (2.0 * (1.0 + tau)) - x / (x + s) - math.log(0.5 * (x + s))


# ---------------------------------------------------------------------------
# Adaptive composite Gauss-Legendre quadrature
# ---------------------------------------------------------------------------

#: Nodes of a panel's coarse Gauss-Legendre rule; the fine rule has twice as many.
_GL_ORDER = 16


@functools.cache
def _gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def _panel_values(f, lo: float, hi: float) -> tuple[float, float]:
    """(value, error indicator) for one panel via nested GL(16)/GL(32)."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    xs1, ws1 = _gl_rule(_GL_ORDER)
    xs2, ws2 = _gl_rule(2 * _GL_ORDER)
    coarse = half * float(np.dot(ws1, f(mid + half * xs1)))
    fine = half * float(np.dot(ws2, f(mid + half * xs2)))
    return fine, abs(fine - coarse)


def adaptive_quadrature(
    f,
    lo: float,
    hi: float,
    abs_tol: float,
    rel_tol: float,
    max_panels: int,
    breakpoints: tuple[float, ...] = (),
) -> tuple[float, float, bool]:
    """Error-sorted adaptive composite Gauss-Legendre on [lo, hi].

    ``f`` must accept an ndarray of abscissae. Panels split at their midpoint,
    worst first, until the summed |GL(2k) - GL(k)| indicator meets the
    tolerance or ``max_panels`` is reached. Initial panel boundaries include
    any interior ``breakpoints`` (integrable singularities should sit there:
    Gauss nodes never touch panel endpoints).

    Returns (value, error_bound, converged).
    """
    edges = [lo] + sorted(p for p in breakpoints if lo < p < hi) + [hi]
    heap = []  # (-err, tiebreak, lo, hi, value)
    serial = 0
    for a, b in zip(edges[:-1], edges[1:]):
        value, err = _panel_values(f, a, b)
        heap.append((-err, serial, a, b, value))
        serial += 1
    heapq.heapify(heap)
    while True:
        total = math.fsum(item[4] for item in heap)
        total_err = math.fsum(-item[0] for item in heap)
        if total_err <= max(abs_tol, rel_tol * abs(total)):
            return total, total_err, True
        if len(heap) >= max_panels:
            return total, total_err, False
        _, _, a, b, _ = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:  # panel narrower than machine spacing
            return total, total_err, False
        for lo_i, hi_i in ((a, mid), (mid, b)):
            value, err = _panel_values(f, lo_i, hi_i)
            heapq.heappush(heap, (-err, serial, lo_i, hi_i, value))
            serial += 1


# ---------------------------------------------------------------------------
# Logarithmic potential of the uniform law on the ellipse
# ---------------------------------------------------------------------------


def _angular_mean(z: complex, r: np.ndarray, tau: float) -> np.ndarray:
    """(1/2pi) int_0^{2pi} log|z - w(r, t)| dt for w(r, t) = r e^(it) + r tau e^(-it).

    On |u| = 1, u = e^(it), |z - w| = r |u - zeta_1| |u - zeta_2| with
    zeta_1 + zeta_2 = z/r and zeta_1 zeta_2 = tau, so Jensen's formula gives
    the mean log r + log+|zeta_1| + log+|zeta_2|. The smaller root has
    |zeta_2|^2 <= |tau| < 1 and drops out; the larger is
    r zeta_1 = (z + q)/2 with q = sqrt(z^2 - 4 tau r^2) of the sign that
    matches z. So the mean is log max(r, |z + q|/2), which has no 0/0 at z = 0.
    Where z * z could overflow (a part of z >= 2^511), z and r are divided
    exactly by a power of two 2^e and e log 2 is added back.
    """
    e = math.frexp(max(abs(z.real), abs(z.imag)))[1]
    if e > 511:
        scale = math.ldexp(1.0, -e)
        return _angular_mean(z * scale, r * scale, tau) + e * math.log(2.0)
    q = np.sqrt(z * z - 4.0 * tau * r * r)
    q = np.where((z.conjugate() * q).real < 0.0, -q, q)
    return np.log(np.maximum(r, 0.5 * np.abs(z + q)))


def log_potential(
    x: float,
    y: float,
    tau: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """int over the ellipse of log|x + iy - w| under the uniform law.

    The substitution w(r, t) = ((1+tau) r cos t, (1-tau) r sin t) maps the
    unit disk onto the ellipse with area element proportional to r dr dt, so

        phi = (1/pi) int_0^1 int_0^{2 pi} log|z - w(r, t)| r dt dr
            = 2 int_0^1 r _angular_mean(z, r, tau) dr.

    The angular mean is exact; the radial integrand is continuous, with one
    kink at the r_z whose r-ellipse passes through z, placed as a panel
    boundary. The rate function is not used, so phi still cross-checks it.
    The deterministic adaptive Gauss-Legendre rule honors the tolerances of
    ``spec`` and raises QuadratureToleranceError when its panel budget runs
    out.
    """
    tau = float(tau)
    if not -1.0 < tau < 1.0:
        raise DomainError(f"log_potential requires -1 < tau < 1, got tau={tau}")
    z = complex(x, y)
    r_z = math.hypot(z.real / (1.0 + tau), z.imag / (1.0 - tau))
    value, err, ok = adaptive_quadrature(
        lambda r: 2.0 * r * _angular_mean(z, r, tau),
        0.0,
        1.0,
        abs_tol=spec.abs_tol,
        rel_tol=spec.rel_tol,
        max_panels=spec.max_subdivisions,
        breakpoints=(r_z,),
    )
    if not ok:
        raise QuadratureToleranceError(
            "ellipse potential quadrature did not reach tolerance",
            estimate=value,
            error_bound=err,
        )
    return value


def tilted_potential(
    x: float,
    y: float,
    tau: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Logarithmic potential minus its Gaussian weight:

        psi(x, y) = phi(x, y) - x^2 / (2 (1+tau)) - y^2 / (2 (1-tau)).

    For x >= 1 + tau this is maximized on the real axis (y = 0), where it
    equals -(rate_function(x, tau) + 1/2).
    """
    phi = log_potential(x, y, tau, spec=spec)
    return phi - x * x / (2.0 * (1.0 + tau)) - y * y / (2.0 * (1.0 - tau))


def log_norm_constant(n: int, tau: float) -> float:
    """log of the normalization constant of the ordered-eigenvalue density.

    Evaluated entirely in log domain:

        (n(n+1)/4) (log 2 - log n) + (n/2) log(1+tau) + sum_{j=1}^{n} lgamma(j/2).

    The negative n-power is what makes the n = 2 sector masses sum to one and
    the dimension-lift constant come out exactly (see the test suite).
    """
    if n < 1:
        raise DomainError(f"log_norm_constant requires n >= 1, got {n}")
    tau = float(tau)
    if not -1.0 < tau <= 1.0:
        raise DomainError(f"log_norm_constant requires -1 < tau <= 1, got tau={tau}")
    quarter = 0.25 * n * (n + 1)
    gammas = math.fsum(math.lgamma(0.5 * j) for j in range(1, n + 1))
    return quarter * (math.log(2.0) - math.log(n)) + 0.5 * n * math.log1p(tau) + gammas
