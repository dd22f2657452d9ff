"""Uniform law on the ellipse: marginal, tail mass, quantile.

Monte Carlo oracles draw 10^6 points from the rejection sampler below, an
instrument independent of the closed forms, with 4-sigma gates; quadrature
oracles are recomputed in-test from the defining integrals.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from equicount.ellipse import real_marginal_density, tail_mass, tail_quantile
from equicount.errors import DomainError

RNG_SEED = 20240914


def uniform_ellipse(tau, rng, size):
    """(size, 2) uniform points on the ellipse with semi-axes (1 + tau,
    1 - tau), by rejection from its bounding box."""
    ax, ay = 1.0 + tau, 1.0 - tau
    parts, kept = [], 0
    while kept < size:
        xs = rng.uniform(-ax, ax, size)
        ys = rng.uniform(-ay, ay, size)
        inside = (xs / ax) ** 2 + (ys / ay) ** 2 <= 1.0
        parts.append(np.column_stack([xs[inside], ys[inside]]))
        kept += int(inside.sum())
    return np.concatenate(parts)[:size]


class TestSampler:
    """The test-side sampler reproduces the closed-form marginal."""

    def test_histogram_matches_marginal(self):
        tau = 0.25
        rng = np.random.default_rng(RNG_SEED + 2)
        pts = uniform_ellipse(tau, rng, 1_000_000)
        counts, edges = np.histogram(pts[:, 0], bins=50, range=(-(1 + tau), 1 + tau), density=True)
        mids = 0.5 * (edges[:-1] + edges[1:])
        assert np.max(np.abs(counts - real_marginal_density(mids, tau))) < 0.01


class TestMarginalDensity:
    def test_normalization(self):
        for tau in (-0.5, 0.0, 0.6):
            total, _ = integrate.quad(
                lambda s: real_marginal_density(s, tau), -(1 + tau), 1 + tau, epsabs=1e-12
            )
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_center_value_disk(self):
        assert real_marginal_density(0.0, 0.0) == pytest.approx(2.0 / math.pi, rel=1e-14)

    def test_zero_outside_support(self):
        assert real_marginal_density(1.5, 0.0) == 0.0
        assert real_marginal_density(-2.0, 0.3) == 0.0


class TestTailMass:
    def test_half_at_center(self):
        for tau in (-0.4, 0.0, 0.7):
            assert tail_mass(0.0, tau) == 0.5

    def test_support_edges(self):
        for tau in (-0.4, 0.0, 0.7):
            assert tail_mass(1.0 + tau, tau) == 0.0
            assert tail_mass(-(1.0 + tau), tau) == 1.0

    def test_against_quadrature(self):
        # 0.19550110947788532 frozen from quad of the marginal over [0.5, 1].
        oracle, _ = integrate.quad(lambda s: real_marginal_density(s, 0.0), 0.5, 1.0, epsabs=1e-13)
        assert oracle == pytest.approx(0.19550110947788532, abs=1e-11)
        assert tail_mass(0.5, 0.0) == pytest.approx(oracle, abs=1e-11)

    def test_relative_accuracy_at_the_support_edge(self):
        # The segment area expanded at the edge: with delta = (a - s) / a,
        # M = (4 sqrt(2) / (3 pi)) delta^(3/2) (1 - 3 delta / 20 + O(delta^2)).
        # delta comes from the float s passed; a - s is exact (Sterbenz).
        for tau in (-0.5, 0.0, 0.5):
            a = 1.0 + tau
            for delta in np.logspace(-15, -6, 19):
                s = a * (1.0 - delta)
                d = (a - s) / a
                expected = 4.0 * math.sqrt(2.0) / (3.0 * math.pi) * d**1.5 * (1.0 - 0.15 * d)
                assert tail_mass(s, tau) == pytest.approx(expected, rel=1e-11, abs=0.0)

    def test_empirical_tail(self):
        tau = 0.2
        rng = np.random.default_rng(RNG_SEED + 3)
        pts = uniform_ellipse(tau, rng, 1_000_000)
        for frac in (-0.9, 0.0, 0.7):
            s = frac * (1 + tau)
            p = tail_mass(s, tau)
            hat = float((pts[:, 0] >= s).mean())
            se = math.sqrt(p * (1 - p) / len(pts))
            assert abs(hat - p) < 4.0 * se


class TestTailQuantile:
    def test_median_is_zero(self):
        for tau in (-0.4, 0.0, 0.7):
            assert tail_quantile(0.5, tau) == 0.0

    def test_inverse_of_tail_mass_example(self):
        assert tail_quantile(0.19550110947788532, 0.0) == pytest.approx(0.5, abs=1e-9)

    def test_antisymmetry(self):
        for gamma in (0.1, 0.31, 0.42):
            assert tail_quantile(1.0 - gamma, 0.25) == pytest.approx(
                -tail_quantile(gamma, 0.25), abs=1e-10
            )

    def test_round_trip_100_random(self):
        rng = np.random.default_rng(RNG_SEED + 4)
        for _ in range(100):
            gamma = rng.uniform(0.001, 0.999)
            tau = rng.uniform(-0.9, 0.9)
            s = tail_quantile(gamma, tau)
            assert abs(tail_mass(s, tau) - gamma) < 1e-10

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(gamma=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           tau=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
    def test_round_trip_property(self, gamma, tau):
        # An absolute bound: the bisection stops on a bracket of
        # 1e-12 (1 + tau), over which the mass moves by at most about 1e-12.
        assert abs(tail_mass(tail_quantile(gamma, tau), tau) - gamma) < 1e-10

    @pytest.mark.parametrize("tau", [-0.3, 0.0, 0.5])
    def test_small_gamma_brackets_to_adjacent_floats(self, tau):
        # Near the edge the default tolerance is below the float spacing, so
        # the quantile is the float where the tail mass crosses gamma.
        for k in range(6, 23):
            gamma = 10.0 ** -k
            s = tail_quantile(gamma, tau)
            below, above = np.nextafter(s, -math.inf), np.nextafter(s, math.inf)
            assert tail_mass(below, tau) >= gamma >= tail_mass(above, tau), k

    def test_strictly_decreasing_in_gamma(self):
        gammas = np.linspace(0.02, 0.98, 25)
        values = [tail_quantile(g, 0.3) for g in gammas]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            tail_quantile(0.0, 0.3)
        with pytest.raises(DomainError):
            tail_quantile(0.5, 0.3, tol=0.0)
