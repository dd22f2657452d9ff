"""Special functions: closed forms against independent oracles.

Frozen oracle values and their provenance:
  log_erfc(30) = -903.9741171106439    mpmath at 40 digits
  I(2; 0)      = 0.8068528194400547    hand evaluation: 2 - 1/2 - log 2

scipy, which the library does not import, is the reference for the
standard-library special functions the library uses.
"""

import cmath
import math
import warnings

import numpy as np
import pytest
from scipy import integrate, special

from equicount.errors import DomainError, QuadratureToleranceError
from equicount.special_functions import (
    _ERFC_NORMAL_LIMIT,
    QuadratureSpec,
    _angular_mean,
    adaptive_quadrature,
    erfc_array,
    log_erfc,
    log_norm_constant,
    log_potential,
    rate_function,
    tilted_potential,
)

QUAD = QuadratureSpec()


def quadrature_erfc(x: float) -> float:
    value, _ = integrate.quad(lambda t: math.exp(-t * t), x, np.inf, epsabs=1e-14, epsrel=1e-14)
    return 2.0 / math.sqrt(math.pi) * value


class TestLogErfc:
    def test_zero(self):
        assert log_erfc(0.0) == 0.0

    def test_matches_log_of_quadrature(self):
        assert log_erfc(1.0) == pytest.approx(math.log(quadrature_erfc(1.0)), rel=1e-12)

    def test_large_argument_no_underflow(self):
        # mpmath 40-digit reference; plain log(erfc(30)) would be log(0).
        assert math.isfinite(log_erfc(30.0))
        assert log_erfc(30.0) == pytest.approx(-903.9741171106439, rel=1e-12)

    def test_negative_arguments(self):
        assert log_erfc(-5.0) == pytest.approx(math.log(2.0), rel=1e-10)

    def test_against_scipy_on_both_sides_of_the_switch(self):
        # Below the switch log(erfc) is taken directly, above it comes from
        # the continued fraction of erfcx; scipy's erfcx covers both.
        limit = _ERFC_NORMAL_LIMIT
        xs = np.concatenate([
            np.linspace(-10.0, 10.0, 4001),
            np.linspace(limit - 2.0, limit + 2.0, 801),
            [limit, np.nextafter(limit, math.inf)],
            np.geomspace(limit, 1e6, 400),
        ])
        for x in xs.tolist():
            if x >= 0.0:
                reference = math.log(special.erfcx(x)) - x * x
            else:
                reference = math.log(special.erfc(x))
            assert abs(log_erfc(x) - reference) <= 1e-15 + 1e-14 * abs(reference), x


class TestErfcArray:
    """The Taylor table on numpy, against the standard library."""

    def test_matches_math_erfc_elementwise(self):
        # A fine grid, both sides of table nodes (multiples of 1/128) near
        # 0, 1, 4 and 26, and up to where math.erfc leaves the normal doubles
        # (x = 26.54).
        nodes = [1.0 / 128.0, 1.0, 4.0, 26.0]
        xs = np.concatenate([
            np.linspace(-6.0, 26.5, 65_001),
            [s * e for e in (0.46875, 4.0) for s in (1.0, -1.0)],
            [np.nextafter(e, d) for e in nodes for d in (-math.inf, math.inf)],
            [0.0, -0.0],
        ])
        want = np.array([math.erfc(x) for x in xs.tolist()])
        got = erfc_array(xs)
        assert want.min() >= np.finfo(float).tiny
        assert np.max(np.abs(got - want) / want) <= 2e-15

    def test_ends_of_the_line_without_warnings(self):
        xs = np.array([math.inf, -math.inf, 1e300, -1e300, 28.0, -28.0, math.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = erfc_array(xs)
        assert got[:6].tolist() == [0.0, 2.0, 0.0, 2.0, 0.0, 2.0]
        assert math.isnan(got[6])

    def test_keeps_shape(self):
        xs = np.array([[0.1, -3.0, 5.0], [-0.3, 2.0, 30.0]])
        assert erfc_array(xs).shape == (2, 3)
        assert erfc_array(xs).tolist() == [erfc_array(x).tolist() for x in xs]
        assert erfc_array(0.5).shape == ()
        assert erfc_array(0.5) == pytest.approx(math.erfc(0.5), rel=2e-15)


class TestRateFunction:
    def test_tau_zero_at_one(self):
        assert rate_function(1.0, 0.0) == 0.0

    def test_vanishes_at_edge(self):
        for tau in (-0.9, -0.5, 0.0, 0.3, 0.7, 0.99):
            assert rate_function(1.0 + tau, tau) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        assert rate_function(2.0, 0.0) == pytest.approx(2.0 - 0.5 - math.log(2.0), abs=1e-15)

    def test_branch_continuity_at_tiny_tau(self):
        assert abs(rate_function(1.5, 1e-8) - rate_function(1.5, 0.0)) < 1e-6

    def test_infinite_below_edge(self):
        assert rate_function(1.2, 0.3) == math.inf
        assert rate_function(-5.0, 0.0) == math.inf

    @pytest.mark.parametrize("tau", [-0.5, 0.0, 0.3])
    @pytest.mark.parametrize("x", [1e155, 1e200, 1.7e308])
    def test_infinite_once_x_squared_overflows(self, x, tau):
        assert rate_function(x, tau) == math.inf

    def test_domain_error(self):
        with pytest.raises(DomainError):
            rate_function(2.0, 1.0)
        with pytest.raises(DomainError):
            rate_function(2.0, -1.0)

    def test_nonnegative_zero_only_at_edge(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            tau = rng.uniform(-0.95, 0.95)
            x = 1.0 + tau + rng.uniform(0.0, 3.0)
            value = rate_function(x, tau)
            assert value >= 0.0
            if x > 1.0 + tau + 1e-6:
                assert value > 0.0

    def test_strictly_increasing(self):
        for tau in (-0.6, 0.0, 0.45):
            xs = np.linspace(1.0 + tau, 1.0 + tau + 3.0, 50)
            values = [rate_function(x, tau) for x in xs]
            assert all(a < b for a, b in zip(values, values[1:]))


class TestAdaptiveQuadrature:
    def test_smooth_integral(self):
        value, err, ok = adaptive_quadrature(np.sin, 0.0, math.pi, 1e-12, 1e-12, 100)
        assert ok and value == pytest.approx(2.0, abs=1e-11)

    def test_log_endpoint_singularity(self):
        value, err, ok = adaptive_quadrature(
            lambda t: np.log(t), 0.0, 1.0, 1e-11, 1e-11, 400
        )
        assert ok and value == pytest.approx(-1.0, abs=1e-9)

    def test_budget_exhaustion_reported(self):
        value, err, ok = adaptive_quadrature(
            lambda t: np.log(np.abs(t - 0.37)), 0.0, 1.0, 1e-14, 1e-14, 3
        )
        assert not ok


class TestLogPotential:
    def test_boundary_point_disk(self):
        # tau = 0 closed form is log|z| outside the unit disk, so 0 at (1, 0).
        assert log_potential(1.0, 0.0, 0.0, QUAD) == pytest.approx(0.0, abs=1e-8)

    def test_edge_value_general_tau(self):
        assert log_potential(1.4, 0.0, 0.4, QUAD) == pytest.approx(0.2, abs=1e-8)

    def test_real_axis_closed_form(self):
        x, tau = 2.5, 0.3
        closed = x * x / (2.0 * (1.0 + tau)) - 0.5 - rate_function(x, tau)
        assert log_potential(x, 0.0, tau, QUAD) == pytest.approx(closed, rel=1e-6)

    def test_inside_disk_closed_form(self):
        # tau = 0 inside the unit disk: (x^2 + y^2 - 1) / 2.
        x, y = 0.3, 0.1
        assert log_potential(x, y, 0.0, QUAD) == pytest.approx(
            (x * x + y * y - 1.0) / 2.0, abs=1e-8
        )

    def test_even_in_y(self):
        a = log_potential(2.0, 0.7, 0.3, QUAD)
        b = log_potential(2.0, -0.7, 0.3, QUAD)
        assert a == pytest.approx(b, abs=1e-9)

    def test_tolerance_error_carries_estimate(self):
        # At the centre the radial integrand is 2 r log r, whose endpoint
        # singularity four panels cannot resolve to 1e-15.
        tight = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=4)
        with pytest.raises(QuadratureToleranceError) as err:
            log_potential(0.0, 0.0, 0.3, tight)
        assert math.isfinite(err.value.estimate)
        assert err.value.error_bound > 0.0

    def test_centre_value(self):
        # phi(0) = 2 int_0^1 r log r dr for every tau; at tau = 0 both roots
        # of the angular factorization vanish, the 0/0 a naive root pair hits.
        for tau in (0.0, 0.3, -0.5):
            assert log_potential(0.0, 0.0, tau, QUAD) == pytest.approx(-0.5, abs=1e-9)

    @pytest.mark.parametrize("x, y", [(1e200, 0.0), (0.0, 1e300), (-3e153, 2e153)])
    def test_far_point_is_log_modulus(self, x, y):
        # z * z overflows beyond 1.3e154; far out phi = log|z| to rounding.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = log_potential(x, y, 0.3, QUAD)
        assert value == pytest.approx(math.log(abs(complex(x, y))), rel=1e-15)

    def test_cauchy_transform_finite_difference(self):
        # d/dx phi - i d/dy phi at real x > 1+tau equals (x - sqrt(x^2-4 tau))/(2 tau).
        h = 1e-4
        for tau in (-0.4, 0.35):
            x = 1.0 + tau + 0.8
            ddx = (log_potential(x + h, 0.0, tau, QUAD) - log_potential(x - h, 0.0, tau, QUAD)) / (
                2.0 * h
            )
            ddy = (log_potential(x, h, tau, QUAD) - log_potential(x, -h, tau, QUAD)) / (2.0 * h)
            expected = (x - math.sqrt(x * x - 4.0 * tau)) / (2.0 * tau)
            assert ddx == pytest.approx(expected, abs=5e-6)
            assert ddy == pytest.approx(0.0, abs=5e-6)


class TestAngularMean:
    """Jensen's closed-form angular mean against adaptive quadrature over t."""

    @pytest.mark.parametrize("tau", [-0.5, 0.0, 0.3, 0.9])
    def test_matches_quadrature(self, tau):
        for x, y in ((0.3, 0.05), (1.2, 0.4), (-0.7, -0.02), (2.5, 0.0), (0.0, -0.6)):
            z = complex(x, y)
            u, v = x / (1.0 + tau), y / (1.0 - tau)
            r_z, t_z = math.hypot(u, v), math.atan2(v, u)
            # z outside, just outside, just inside and inside the r-ellipse.
            for r in (0.5 * r_z, r_z - 1e-6, r_z + 1e-6, 1.5 * r_z):
                def log_gap(t):
                    return math.log(abs(z - r * cmath.exp(1j * t) - r * tau * cmath.exp(-1j * t)))

                # The near-singular dip, about 1e-6 wide, sits at t_z; graded
                # breakpoints around it let the rule resolve it.
                dip = [t_z + d for d in (-1e-3, -1e-5, 0.0, 1e-5, 1e-3)]
                value, _ = integrate.quad(log_gap, t_z - math.pi, t_z + math.pi, points=dip,
                                          epsabs=1e-13, epsrel=1e-13, limit=500)
                mean = _angular_mean(z, np.array([r]), tau)[0]
                assert mean == pytest.approx(value / (2.0 * math.pi), abs=1e-12)


class TestTiltedPotential:
    def test_minus_half_at_edge(self):
        for tau in (-0.5, 0.0, 0.4):
            assert tilted_potential(1.0 + tau, 0.0, tau, QUAD) == pytest.approx(-0.5, abs=1e-7)

    def test_real_axis_is_minus_rate_minus_half(self):
        for tau, x in ((-0.5, 0.9), (0.3, 2.0), (0.0, 1.7)):
            psi = tilted_potential(x, 0.0, tau, QUAD)
            assert psi == pytest.approx(-rate_function(x, tau) - 0.5, abs=1e-7)

    def test_maximized_on_real_axis(self):
        for tau in (-0.3, 0.25):
            x = 1.0 + tau + 0.5
            on_axis = tilted_potential(x, 0.0, tau, QUAD)
            for y in (0.2, 0.6, 1.1):
                assert tilted_potential(x, y, tau, QUAD) <= on_axis + 1e-8


class TestLogNormConstant:
    def test_n1_hand_value(self):
        for tau in (0.0, 0.4, -0.3, 1.0):
            assert log_norm_constant(1, tau) == pytest.approx(
                0.5 * math.log(2.0 * math.pi * (1.0 + tau)), abs=1e-13
            )

    def test_gamma_half_subvalue(self):
        assert math.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)

    def test_ratio_limit(self):
        # (1/N)[log K_{N-m} - log K_N + (N(N+1)/4) log((N-m)/N)] -> m/2.
        n, m, tau = 2000, 2, 0.3
        value = (
            log_norm_constant(n - m, tau)
            - log_norm_constant(n, tau)
            + 0.25 * n * (n + 1) * math.log((n - m) / n)
        ) / n
        assert value == pytest.approx(m / 2.0, abs=1e-2)

    def test_against_scipy_gammaln(self):
        n = np.arange(1, 3001)
        gammas = np.cumsum(special.gammaln(n / 2.0))
        for tau in (0.0, 0.3, -0.6):
            reference = (0.25 * n * (n + 1) * (math.log(2.0) - np.log(n))
                         + 0.5 * n * math.log1p(tau) + gammas)
            got = np.array([log_norm_constant(k, tau) for k in n.tolist()])
            assert np.all(np.abs(got - reference) <= 1e-14 * np.abs(reference))

    def test_domain(self):
        with pytest.raises(DomainError):
            log_norm_constant(0, 0.0)
        with pytest.raises(DomainError):
            log_norm_constant(3, -1.0)


class TestQuadratureSpec:
    def test_invariants(self):
        with pytest.raises(DomainError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureSpec(rel_tol=-1.0)
        with pytest.raises(DomainError):
            QuadratureSpec(max_subdivisions=0)
