"""Closed forms and quadrature for the elliptic-ensemble rate machinery.

This module evaluates, in double precision:

* erfc and an underflow-safe log(erfc),
* the large-deviation rate function I(x; tau) of the rightmost real
  eigenvalues of the elliptic ensemble,
* the logarithmic potential phi(x, y; tau) of the uniform law on the ellipse
  with semi-axes (1+tau, 1-tau), by direct 2-D quadrature over the ellipse,
* the tilted potential psi = phi - x^2/(2(1+tau)) - y^2/(2(1-tau)),
* the log normalization constant of the ordered-eigenvalue density.

The quadrature route for phi is deliberately kept independent of the closed
forms (no reuse of the rate function, no circle-average shortcuts) so the two
can cross-check each other. All functions are pure.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError, QuadratureToleranceError


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and per-rule panel budget of the adaptive 2-D ellipse
    integrals; running out of panels raises QuadratureToleranceError."""

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


def erfc(x: float) -> float:
    """Complementary error function (2/sqrt(pi)) * int_x^inf exp(-t^2) dt."""
    return float(special.erfc(x))


def log_erfc(x: float) -> float:
    """log(erfc(x)), finite for every finite x.

    For x >= 0 the scaled function erfcx(x) = exp(x^2) erfc(x) is used, which
    stays in range where erfc itself underflows; for x < 0 erfc is in [1, 2)
    and the direct log is exact enough.
    """
    x = float(x)
    if x >= 0.0:
        return float(np.log(special.erfcx(x))) - x * x
    return float(np.log(special.erfc(x)))


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
    # x >= 1 + tau and |tau| < 1 give x^2 - 4 tau >= (1 - tau)^2 >= 0, so the
    # principal real root is always defined here.
    s = math.sqrt(x * x - 4.0 * tau)
    return x * x / (2.0 * (1.0 + tau)) - x / (x + s) - math.log(0.5 * (x + s))


# ---------------------------------------------------------------------------
# Adaptive composite Gauss-Legendre quadrature (1-D core, nested for 2-D)
# ---------------------------------------------------------------------------

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    rule = _GL_CACHE.get(order)
    if rule is None:
        rule = np.polynomial.legendre.leggauss(order)
        _GL_CACHE[order] = rule
    return rule


def _panel_values(f, lo: float, hi: float, order: int) -> tuple[float, float]:
    """(value, error indicator) for one panel via nested GL(order)/GL(2*order)."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    xs1, ws1 = _gl_rule(order)
    xs2, ws2 = _gl_rule(2 * order)
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
    order: int = 16,
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
        value, err = _panel_values(f, a, b, order)
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
            value, err = _panel_values(f, lo_i, hi_i, order)
            heapq.heappush(heap, (-err, serial, lo_i, hi_i, value))
            serial += 1


# ---------------------------------------------------------------------------
# Logarithmic potential of the uniform law on the ellipse
# ---------------------------------------------------------------------------


def _potential_polar(x: float, y: float, tau: float, spec: QuadratureSpec) -> float:
    """phi via nested quadrature over the unit disk pulled back from the ellipse.

    The substitution w = ((1+tau) r cos t, (1-tau) r sin t) maps the ellipse
    onto the unit disk with area element proportional to r dr dt, so

        phi = (1/pi) int_0^1 int_0^{2 pi} log|z - w(r, t)| r dt dr.

    The log singularity (when z lies inside or on the ellipse) sits at a
    single (r, t); panel boundaries are placed there so the integrable spike
    is resolved by adaptive splitting rather than straddled.
    """
    ax = 1.0 + tau
    ay = 1.0 - tau
    # Position of z in disk coordinates: the singular source, if any.
    u, v = x / ax, y / ay
    r_z = math.hypot(u, v)
    t_z = math.atan2(v, u)
    inner_abs = 2.0 * spec.abs_tol
    inner_rel = 2.0 * spec.rel_tol

    inner_failures: list[tuple[float, float]] = []

    def theta_integral(r: float) -> float:
        # Integrate over [t_z, t_z + 2 pi]: the near-singular dip then sits at
        # the panel endpoints, where adaptive splitting grades naturally.
        def g(t: np.ndarray) -> np.ndarray:
            dx = x - ax * r * np.cos(t)
            dy = y - ay * r * np.sin(t)
            return 0.5 * np.log(dx * dx + dy * dy)

        value, err, ok = adaptive_quadrature(
            g,
            t_z,
            t_z + 2.0 * math.pi,
            abs_tol=inner_abs,
            rel_tol=inner_rel,
            max_panels=spec.max_subdivisions,
            breakpoints=(t_z + math.pi,),
        )
        if not ok:
            inner_failures.append((value, err))
        return value

    def outer(rs: np.ndarray) -> np.ndarray:
        return np.array([r * theta_integral(r) / math.pi for r in rs])

    breaks = (r_z,) if 0.0 < r_z < 1.0 else ()
    value, err, ok = adaptive_quadrature(
        outer,
        0.0,
        1.0,
        abs_tol=0.5 * spec.abs_tol,
        rel_tol=0.5 * spec.rel_tol,
        max_panels=spec.max_subdivisions,
        breakpoints=breaks,
    )
    if not ok or inner_failures:
        worst_inner = max((e for _, e in inner_failures), default=0.0)
        raise QuadratureToleranceError(
            "ellipse potential quadrature did not reach tolerance",
            estimate=value,
            error_bound=err + worst_inner,
        )
    return value


def log_potential(
    x: float,
    y: float,
    tau: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """int over the ellipse of log|x + iy - w| under the uniform law.

    Deterministic nested adaptive Gauss-Legendre quadrature that honors the
    tolerances of ``spec`` and raises QuadratureToleranceError when its panel
    budget runs out.
    """
    tau = float(tau)
    if not -1.0 < tau < 1.0:
        raise DomainError(f"log_potential requires -1 < tau < 1, got tau={tau}")
    return _potential_polar(float(x), float(y), tau, spec)


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
    gammas = float(special.gammaln(np.arange(1, n + 1) / 2.0).sum())
    return quarter * (math.log(2.0) - math.log(n)) + 0.5 * n * math.log1p(tau) + gammas
