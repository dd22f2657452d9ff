"""The uniform law on the ellipse with semi-axes (1 + tau, 1 - tau).

The real-part marginal, its tail mass, and the quantile of the tail mass.
The marginal of the uniform law over the vertical chord at abscissa s has
density 2 sqrt((1+tau)^2 - s^2) / (pi (1+tau)^2): the chord height scaled
by the ellipse area.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

#: Taylor coefficients of (phi - sin phi) / phi^3 in powers of phi^2, highest
#: first. Below phi = 1, where phi - sin phi cancels, their truncation error
#: is under 1e-16 relative.
_PHI_MINUS_SIN = [(-1) ** k / math.factorial(2 * k + 3) for k in reversed(range(8))]


def real_marginal_density(s, tau: float):
    """Density of the real part of a uniform point on the ellipse.

    2 sqrt((1+tau)^2 - s^2) / (pi (1+tau)^2) on |s| <= 1+tau, zero outside.
    Accepts scalars or arrays.
    """
    if not -1.0 < tau < 1.0:
        raise DomainError(f"real_marginal_density requires -1 < tau < 1, got tau={tau}")
    a = 1.0 + tau
    s_arr = np.asarray(s, dtype=float)
    inside = np.abs(s_arr) <= a
    dens = np.zeros_like(s_arr)
    dens[inside] = 2.0 * np.sqrt(a * a - s_arr[inside] ** 2) / (math.pi * a * a)
    if np.isscalar(s) or s_arr.ndim == 0:
        return float(dens)
    return dens


def tail_mass(s, tau: float):
    """Mass of {Re z >= s} under the uniform law on the ellipse.

    With a = 1 + tau, the part of the ellipse right of s is the image of a
    circular segment of central angle phi = 4 arctan(sqrt((a - s) / (a + s))),
    so on |s| <= a the mass is

        (phi - sin phi) / (2 pi),

    1 below the support and 0 above it. Near either edge a - s and a + s are
    exact, and below phi = 1 the series of phi - sin phi replaces the
    difference, so the mass keeps its relative accuracy however small it is.
    Strictly decreasing on the support; accepts scalars or arrays.
    """
    if not -1.0 < tau < 1.0:
        raise DomainError(f"tail_mass requires -1 < tau < 1, got tau={tau}")
    a = 1.0 + tau
    s_arr = np.asarray(s, dtype=float)
    clipped = np.clip(s_arr, -a, a)
    phi = 4.0 * np.arctan2(np.sqrt(a - clipped), np.sqrt(a + clipped))
    segment = np.where(phi < 1.0, phi**3 * np.polyval(_PHI_MINUS_SIN, phi * phi),
                       phi - np.sin(phi))
    mass = segment / (2.0 * math.pi)
    if np.isscalar(s) or s_arr.ndim == 0:
        return float(mass)
    return mass


def tail_quantile(gamma: float, tau: float, tol: float = 1e-12) -> float:
    """The abscissa s with tail_mass(s, tau) = gamma, by bisection.

    The tail mass is strictly decreasing on (-(1+tau), 1+tau), so the root is
    unique. gamma = 1/2 returns exactly 0.0 (the marginal is even). The
    bracket starts at the support and shrinks until it is narrower than tol
    times its distance to the nearer edge, or its ends are adjacent floats.
    The mass vanishes like that distance to the power 3/2, so a small gamma
    keeps its relative accuracy as far as the float spacing allows.
    """
    if not 0.0 < gamma < 1.0:
        raise DomainError(f"tail_quantile requires 0 < gamma < 1, got {gamma}")
    if not tol > 0.0:
        raise DomainError(f"tol must be > 0, got {tol}")
    if not -1.0 < tau < 1.0:
        raise DomainError(f"tail_quantile requires -1 < tau < 1, got tau={tau}")
    if gamma == 0.5:
        return 0.0
    a = 1.0 + tau
    lo, hi = -a, a
    while True:
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol * min(a + lo, a - hi) or mid in (lo, hi):
            return mid
        if tail_mass(mid, tau) > gamma:
            lo = mid
        else:
            hi = mid
