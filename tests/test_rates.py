"""Closed-form rates: hand values, threshold identity, window branches, cutoff."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from equicount.errors import ConstraintError, DomainError
from equicount.rates import (
    ModelParams,
    RateResult,
    derive_tau_b,
    multiplier_cutoff,
    rate_diverging_index,
    rate_fixed_index,
    rate_lagrange_window,
    threshold_tau,
)

SEED = 4242


def random_supercritical(rng):
    """(b, tau) above the threshold curve with b^2 + tau > 0."""
    while True:
        b = rng.uniform(0.08, 0.92)
        tau = rng.uniform(-0.9, 0.95)
        if b * b + tau > 1e-3 and -1 < tau < 1:
            return b, tau


class TestDeriveTauB:
    def test_direct_substitution(self):
        tau, b = derive_tau_b(ModelParams(phi1=1.0, dphi1=2.0, phi2=0.0, sigma2=0.2))
        assert tau == 0.0
        assert b == pytest.approx(math.sqrt(0.6), rel=1e-15)

    def test_phi2_bound_violation(self):
        with pytest.raises(ConstraintError, match="phi2"):
            derive_tau_b(ModelParams(phi1=1.0, dphi1=2.0, phi2=2.5, sigma2=0.0))

    def test_b2_plus_tau_zero(self):
        with pytest.raises(ConstraintError, match=r"b\^2 \+ tau"):
            derive_tau_b(ModelParams(phi1=1.0, dphi1=2.0, phi2=-1.0, sigma2=0.0))

    def test_phi1_ordering(self):
        with pytest.raises(ConstraintError, match="phi1 < dphi1"):
            derive_tau_b(ModelParams(phi1=2.0, dphi1=1.0, phi2=0.0, sigma2=0.0))
        with pytest.raises(ConstraintError, match="0 < phi1"):
            derive_tau_b(ModelParams(phi1=-1.0, dphi1=1.0, phi2=0.0, sigma2=0.0))

    def test_negative_sigma2(self):
        with pytest.raises(ConstraintError, match="sigma2"):
            derive_tau_b(ModelParams(phi1=1.0, dphi1=2.0, phi2=0.0, sigma2=-0.1))


class TestRateFixedIndex:
    def test_hand_value(self):
        result = rate_fixed_index(0.5, 0.0)
        assert result.branch == "fixed_m"
        assert result.rate == pytest.approx(math.log(2.0) - 1.5, abs=1e-15)

    def test_vanishes_near_b_one(self):
        assert abs(rate_fixed_index(1.0 - 1e-7, 0.3).rate) < 1e-6

    def test_b_out_of_range(self):
        with pytest.raises(DomainError):
            rate_fixed_index(1.0, 0.3)
        with pytest.raises(DomainError):
            rate_fixed_index(1.5, 0.3)
        with pytest.raises(DomainError):
            rate_fixed_index(-0.5, 0.3)

    def test_b2_plus_tau_guard(self):
        with pytest.raises(ConstraintError):
            rate_fixed_index(0.5, -0.25)


class TestThresholdTau:
    def test_zero_rate_identity(self):
        for b in np.linspace(0.05, 0.95, 100):
            tau = threshold_tau(float(b))
            assert abs(rate_fixed_index(float(b), tau).rate) < 1e-12

    def test_limit_b_to_one(self):
        assert threshold_tau(1.0 - 1e-5) == pytest.approx(1.0, abs=1e-4)

    def test_limit_b_to_zero(self):
        # tau(b) ~ 1 / (2 |log b|) for small b: slow decay to zero.
        values = [threshold_tau(b) for b in (1e-3, 1e-6, 1e-12, 1e-30, 1e-100)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(0.0, abs=3e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            threshold_tau(1.0)
        with pytest.raises(DomainError):
            threshold_tau(0.0)


class TestRateDivergingIndex:
    def test_half_gives_log_inverse_b_exactly(self):
        for b, tau in ((0.5, 0.0), (0.3, 0.4), (0.8, -0.2)):
            assert rate_diverging_index(b, tau, 0.5).rate == math.log(1.0 / b)

    def test_gamma_symmetry(self):
        for gamma in (0.1, 0.27, 0.44):
            a = rate_diverging_index(0.4, 0.25, gamma).rate
            b = rate_diverging_index(0.4, 0.25, 1.0 - gamma).rate
            assert a == pytest.approx(b, abs=1e-12)

    def test_continuity_to_fixed_index(self):
        # s_gamma -> 1 + tau as gamma -> 0, so the diverging rate approaches
        # the fixed-index rate; the edge scaling is gamma^(2/3), so a tight
        # match needs a very small gamma.
        fixed = rate_fixed_index(0.5, 0.2).rate
        gaps = [
            abs(rate_diverging_index(0.5, 0.2, g).rate - fixed)
            for g in (1e-4, 1e-6, 1e-8, 1e-10)
        ]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-6

    def test_maximized_at_half(self):
        rates = [rate_diverging_index(0.5, 0.2, g).rate for g in np.linspace(0.05, 0.95, 19)]
        assert max(rates) == rates[9]  # gamma = 0.5
        assert rates[9] == math.log(2.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            rate_diverging_index(0.5, 0.2, 0.0)
        with pytest.raises(DomainError):
            rate_diverging_index(0.5, 0.2, 1.0)


class TestRateLagrangeWindow:
    def test_full_line_equals_fixed_index(self):
        rng = np.random.default_rng(SEED)
        for _ in range(100):
            b, tau = random_supercritical(rng)
            dphi1 = rng.uniform(0.5, 4.0)
            m = int(rng.integers(0, 5))
            window = rate_lagrange_window(b, tau, dphi1, m, -math.inf, math.inf)
            assert window.branch == "lagrange_straddle"
            assert window.rate == rate_fixed_index(b, tau).rate

    def test_below_threshold_is_minus_inf(self):
        result = rate_lagrange_window(0.5, 0.2, 2.0, 1, -math.inf, 1.0)
        assert result.rate == -math.inf
        assert result.branch == "lagrange_below"

    def test_branch_continuity_from_above(self):
        b, tau, dphi1, m = 0.4, 0.3, 2.0, 2
        threshold = (1.0 + tau) * math.sqrt(dphi1)
        above = rate_lagrange_window(b, tau, dphi1, m, threshold * (1 + 1e-11), math.inf)
        assert above.branch == "lagrange_above"
        assert above.rate == pytest.approx(rate_fixed_index(b, tau).rate, abs=1e-9)

    def test_boundary_c_resolved_with_warning(self):
        b, tau, dphi1 = 0.4, 0.3, 2.0
        threshold = (1.0 + tau) * math.sqrt(dphi1)
        with pytest.warns(RuntimeWarning):
            result = rate_lagrange_window(b, tau, dphi1, 1, threshold, math.inf)
        assert result.boundary_warning
        assert result.rate == pytest.approx(rate_fixed_index(b, tau).rate, abs=1e-12)

    def test_boundary_d_excluded(self):
        threshold = (1.0 + 0.3) * math.sqrt(2.0)
        with pytest.warns(RuntimeWarning):
            result = rate_lagrange_window(0.4, 0.3, 2.0, 1, -math.inf, threshold)
        assert result.rate == -math.inf and result.boundary_warning

    def test_above_branch_decreasing_in_c(self):
        b, tau, dphi1, m = 0.4, 0.3, 2.0, 1
        threshold = (1.0 + tau) * math.sqrt(dphi1)
        cs = np.linspace(threshold * 1.01, threshold * 2.5, 20)
        rates = [rate_lagrange_window(b, tau, dphi1, m, float(c), math.inf).rate for c in cs]
        assert all(x > y for x, y in zip(rates, rates[1:]))

    def test_independent_of_d_above_threshold(self):
        threshold = (1.0 + 0.3) * math.sqrt(2.0)
        c = threshold * 1.2
        a = rate_lagrange_window(0.4, 0.3, 2.0, 1, c, c + 0.1)
        b_ = rate_lagrange_window(0.4, 0.3, 2.0, 1, c, math.inf)
        assert a.rate == b_.rate

    def test_requires_c_below_d(self):
        with pytest.raises(DomainError):
            rate_lagrange_window(0.4, 0.3, 2.0, 1, 2.0, 2.0)


class TestMultiplierCutoff:
    def test_defining_equation(self):
        b, tau, dphi1, m = 0.2, 0.6, 2.0, 1
        z0 = multiplier_cutoff(b, tau, dphi1, m, tol=1e-10)
        threshold = (1.0 + tau) * math.sqrt(dphi1)
        assert z0 > threshold
        residual = rate_lagrange_window(b, tau, dphi1, m, z0, math.inf).rate
        assert abs(residual) < 1e-8

    def test_monotone_in_b(self):
        cutoffs = [multiplier_cutoff(b, 0.6, 2.0, 1) for b in (0.1, 0.2, 0.3)]
        assert cutoffs[0] > cutoffs[1] > cutoffs[2]

    def test_subcritical_rejected(self):
        with pytest.raises(ConstraintError, match="positive fixed-index rate"):
            multiplier_cutoff(0.5, 0.0, 2.0, 1)

    @pytest.mark.parametrize("dphi1", [1e12, 1e300])
    def test_returns_where_tol_is_below_the_float_spacing(self, dphi1):
        # The cutoff is about 1.5 sqrt(dphi1), where adjacent floats are
        # farther apart than tol = 1e-10: the bisection stops at them.
        z0 = multiplier_cutoff(0.3, 0.5, dphi1, 0)
        assert z0 / math.sqrt(dphi1) == pytest.approx(1.5295887702846, rel=1e-12)

    @pytest.mark.parametrize("dphi1", [1e-300, 1e-20, 1e-6, 0.01, 0.3, 2.0, 1e12])
    def test_scales_as_sqrt_dphi1(self, dphi1):
        # z0 / sqrt(dphi1) does not depend on dphi1, also where the root is
        # far below the default tol of 1e-10.
        z0 = multiplier_cutoff(0.3, 0.5, dphi1, 0)
        assert z0 / math.sqrt(dphi1) == pytest.approx(1.5295887702846, rel=1e-9)


_SUPERCRITICAL = dict(b=st.floats(0.08, 0.92), tau=st.floats(-0.9, 0.9),
                      dphi1=st.floats(0.5, 8.0), m=st.integers(0, 4))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(**_SUPERCRITICAL)
@example(b=0.5, tau=0.9, dphi1=7.0, m=1)  # the threshold quotient rounds below 1 + tau
def test_window_rate_tends_to_fixed_index_at_threshold(b, tau, dphi1, m):
    # c = threshold (1 + delta): the window rate approaches the fixed-index
    # rate as delta -> 0, never jumping to -inf on a rounded quotient.
    assume(b * b + tau > 0.05)
    threshold = (1.0 + tau) * math.sqrt(dphi1)
    fixed = rate_fixed_index(b, tau).rate
    gaps = [abs(rate_lagrange_window(b, tau, dphi1, m, threshold * (1.0 + delta), math.inf).rate
                - fixed) for delta in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-15)]
    assert all(later <= earlier + 1e-13 for earlier, later in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-10


@settings(max_examples=200, deadline=None, derandomize=True)
@given(b=st.floats(0.08, 0.92), above=st.floats(0.0, 1.0), dphi1=st.floats(0.5, 8.0),
       m=st.integers(0, 4), tol=st.sampled_from([1e-6, 1e-8, 1e-10]))
@example(b=0.5, above=(0.9 - threshold_tau(0.5)) / (0.99 - threshold_tau(0.5)), dphi1=7.0, m=1,
         tol=1e-10)
def test_cutoff_brackets_the_sign_change(b, above, dphi1, m, tol):
    # Whenever the fixed-index rate is positive (tau above the threshold
    # curve) the cutoff exists, and the window rate changes sign across
    # [z0 - tol, z0 + tol].
    tau = threshold_tau(b) + above * (0.99 - threshold_tau(b))
    assume(rate_fixed_index(b, tau).rate > 0.0)
    z0 = multiplier_cutoff(b, tau, dphi1, m, tol=tol)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # an end exactly on the threshold
        assert rate_lagrange_window(b, tau, dphi1, m, z0 - tol, math.inf).rate >= 0.0
        assert rate_lagrange_window(b, tau, dphi1, m, z0 + tol, math.inf).rate <= 0.0


class TestRateResult:
    def test_branch_validation(self):
        with pytest.raises(DomainError):
            RateResult(rate=0.0, branch="mystery")

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            RateResult(rate=float("nan"), branch="fixed_m")
