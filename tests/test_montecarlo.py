"""Estimators: determinism, window algebra, identity checks, tail rates."""

import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, special

from equicount import montecarlo
from equicount.ellipse import tail_quantile
from equicount.errors import DomainError, EigensolverError
from equicount.gee import certify_abscissa_below, eigvals_batch, sample_gee_entries
from equicount.montecarlo import (
    FULL_LINE,
    MIN_HITS,
    IntervalB,
    _abscissa_shift,
    _eig_batches,
    _gaussian_moments,
    _lift_integrals,
    _readings,
    _screen_pays,
    concentration_miss_fractions,
    empirical_spectral_test,
    empirical_tail_rate,
    estimate_equilibria_count,
    prob_k_real,
    verify_dimension_lift,
    _count_contributions,
)
from equicount.rates import ModelParams, derive_tau_b
from equicount.sampling import (
    MCEstimate, RunningMoments, batch_sizes, derive_seed, substream, z_score,
)
from equicount.special_functions import rate_function

PARAMS = ModelParams(phi1=1.0, dphi1=2.0, phi2=0.0, sigma2=0.25)  # tau=0, b^2=0.625
SEED = 777


def contributions(window, n_trials=20_000, n=2):
    """Per-trial contributions, one column per m."""
    return np.concatenate(list(_count_contributions(n, PARAMS, window, n_trials, SEED)))


class TestSampling:
    def test_substream_independence_of_batch_layout(self):
        a = substream(9, 3).standard_normal(5)
        b = substream(9, 3).standard_normal(5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, substream(9, 4).standard_normal(5))

    def test_batch_sizes_cover(self):
        assert list(batch_sizes(10, 4)) == [(0, 4), (1, 4), (2, 2)]

    def test_derive_seed_stable(self):
        assert derive_seed(123, 1) == derive_seed(123, 1)
        assert derive_seed(123, 1) != derive_seed(123, 2)

    def test_z_score_degenerate(self):
        a = MCEstimate(1.0, 0.0, 10, 0)
        assert z_score(a, a) == 0.0
        assert z_score(a, MCEstimate(2.0, 0.0, 10, 0)) == math.inf

    @pytest.mark.parametrize("call", [
        lambda: estimate_equilibria_count(2, PARAMS, n_trials=0, seed=SEED),
        lambda: empirical_tail_rate([4], 1, 1.3, 0.0, 0, SEED),
        lambda: prob_k_real(3, 0.0, 0, SEED),
    ], ids=["estimate", "tail-rate", "prob-k-real"])
    def test_no_trials_is_a_domain_error(self, call):
        with pytest.raises(DomainError, match="n_trials must be >= 1, got 0"):
            call()


def inline_eig_batches(n, tau, n_trials, seed, batch_size):
    """The reference loop the batch driver must reproduce bit for bit."""
    return [eigvals_batch(sample_gee_entries(n, tau, substream(seed, index), take))
            for index, take in batch_sizes(n_trials, batch_size)]


def bits(values):
    """The bytes of a complex array, as integers that compare bit for bit."""
    return np.ascontiguousarray(values).view(np.uint64)


class TestEigBatches:
    """The batch driver: a thread pool at LAPACK sizes, forced here to three
    workers so the pool runs, and oversubscribed, on any machine."""

    @pytest.fixture(autouse=True)
    def three_workers(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "eig_workers", lambda n: 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, to shake out races
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("n, tau, n_trials", [
        *((n, tau, n_trials) for n in (4, 10) for tau in (0.0, 0.3)
          for n_trials in (1, 4096, 4097, 3 * 4096 + 5)),
        *((40, tau, n_trials) for tau in (0.0, 0.3) for n_trials in (41, 4096 + 41)),
        *((100, tau, n_trials) for tau in (0.0, 0.3) for n_trials in (1, 7, 13)),
    ])
    def test_matches_inline_loop_bitwise(self, monkeypatch, n, tau, n_trials):
        """On the pool and on the one-worker path, whole spectra, the column
        of one rank and a mirror pair of ranks, kept in the order asked for;
        batches of n >= 40 span several chunks (40 matrices at n = 40, 6 at
        n = 100)."""
        want = inline_eig_batches(n, tau, n_trials, SEED, 4096)
        for workers in (3, 1):
            monkeypatch.setattr(montecarlo, "eig_workers", lambda n: workers)
            for ranks in (None, [0], [n // 2], [n - 1], [n - 2, 1]):
                got = list(_eig_batches(n, tau, n_trials, SEED, 4096, ranks))
                assert len(got) == len(want)
                for (values, is_real), (values_ref, is_real_ref) in zip(got, want):
                    if ranks is not None:
                        values_ref, is_real_ref = values_ref[:, ranks], is_real_ref[:, ranks]
                    assert values.shape == values_ref.shape
                    assert np.array_equal(bits(values), bits(values_ref))
                    assert np.array_equal(is_real, is_real_ref)

    @pytest.mark.parametrize("n, tau, n_trials, floor", [
        (4, 0.0, 4097, 1.2), (10, 0.3, 3 * 4096 + 5, 1.5), (40, 0.0, 4096 + 41, 1.2),
        (40, 0.9, 41, 1.95), (100, 0.0, 13, 1.06),
    ])
    def test_screened_rows_match_unscreened_bitwise(self, monkeypatch, n, tau, n_trials, floor):
        """With a floor, a trial is either eigensolved, bit for bit as without
        one, or screened out with -inf values, none real, and then no
        eigenvalue of its unscreened spectrum reaches the floor. Batches of
        n >= 40 span several chunks, and at n = 100 several screened blocks."""
        want = inline_eig_batches(n, tau, n_trials, SEED, 4096)
        for workers in (3, 1):
            monkeypatch.setattr(montecarlo, "eig_workers", lambda n: workers)
            for ranks in (None, [0], [n - 1]):
                screened = 0
                got = _eig_batches(n, tau, n_trials, SEED, 4096, ranks, floor)
                for (values, is_real), (values_ref, is_real_ref) in zip(got, want, strict=True):
                    kept = np.isfinite(values[:, 0].real)
                    assert (values_ref[~kept].real.max(axis=1) < floor).all()
                    assert (values[~kept] == -math.inf).all() and not is_real[~kept].any()
                    if ranks is not None:
                        values_ref, is_real_ref = values_ref[:, ranks], is_real_ref[:, ranks]
                    assert values.shape == values_ref.shape
                    assert np.array_equal(bits(values[kept]), bits(values_ref[kept]))
                    assert np.array_equal(is_real[kept], is_real_ref[kept])
                    screened += int((~kept).sum())
                assert 0 < screened < n_trials

    @pytest.mark.parametrize("workers", [1, 2])
    def test_screened_memory_is_buffers_and_one_column(self, monkeypatch, workers):
        """The screen's operands come out of the same 512 KiB per worker."""
        monkeypatch.setattr(montecarlo, "eig_workers", lambda n: workers)
        tracemalloc.start()
        try:
            for _ in _eig_batches(40, 0.0, 8192, SEED, 4096, [0], 1.2):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

    @pytest.mark.parametrize("workers", [1, 2])
    def test_memory_does_not_grow_with_batch_stack(self, monkeypatch, workers):
        """A batch in flight holds its spectrum and one 512 KiB chunk; a full
        4096 x 40 x 40 stack alone would be 50 MiB."""
        monkeypatch.setattr(montecarlo, "eig_workers", lambda n: workers)
        tracemalloc.start()
        try:
            for _ in _eig_batches(40, 0.0, 8192, SEED, 4096):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("workers", [1, 2])
    def test_ranked_memory_is_buffers_and_one_column(self, monkeypatch, workers):
        """A ranked batch in flight holds one reused 512 KiB sample buffer per
        worker and one value per trial and kept rank, read here as the tail
        rate reads one rank and the identity's right side a mirror pair;
        whole (4096, 40) spectra would be 2.5 MiB each."""
        monkeypatch.setattr(montecarlo, "eig_workers", lambda n: workers)
        tracemalloc.start()
        try:
            for ranks in ([0], [0, 39]):
                for batch in _eig_batches(40, 0.0, 8192, SEED, 4096, ranks):
                    _readings(*batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

    def test_worker_error_reaches_caller_unchanged(self, monkeypatch):
        error = EigensolverError("injected failure")
        original = montecarlo.eigvals_batch

        def fail_on_ragged_batch(mats):
            if mats.shape[0] == 5:
                raise error
            return original(mats)

        monkeypatch.setattr(montecarlo, "eigvals_batch", fail_on_ragged_batch)
        before = threading.active_count()
        with pytest.raises(EigensolverError) as info:
            for _ in _eig_batches(6, 0.3, 3 * 64 + 5, SEED, 64):
                pass
        assert info.value is error
        assert threading.active_count() == before

    @pytest.mark.parametrize("n, n_trials", [(4, 1), (40, 4096)])
    def test_one_batch_starts_no_thread(self, monkeypatch, n, n_trials):
        """A single batch has nothing to overlap with, so it runs inline even
        where three workers are allowed: no pool starts while it is read."""
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or start(thread))
        for values, _ in _eig_batches(n, 0.3, n_trials, SEED, 4096):
            assert values.shape == (n_trials, n)
            assert started == []
        assert started == []

    def test_early_break_joins_workers(self):
        before = threading.active_count()
        for _ in _eig_batches(10, 0.3, 8 * 512, SEED, 512):
            break
        assert threading.active_count() == before


class TestIntervalB:
    def test_invariant(self):
        with pytest.raises(DomainError):
            IntervalB(1.0, 1.0)
        with pytest.raises(DomainError):
            IntervalB(2.0, 1.0)

    def test_half_open(self):
        w = IntervalB(0.0, 1.0)
        assert w.contains(0.0) and not w.contains(1.0)


class TestEstimateEquilibriaCount:
    def test_window_beyond_spectrum_is_zero(self):
        counts = estimate_equilibria_count(
            2, PARAMS, IntervalB(50.0, 50.5), n_trials=5000, seed=SEED
        )
        for est in counts.per_m + (counts.total,):
            assert est.mean == 0.0 and est.stderr == 0.0

    def test_determinism(self):
        a = estimate_equilibria_count(2, PARAMS, FULL_LINE, n_trials=30_000, seed=SEED)
        b = estimate_equilibria_count(2, PARAMS, FULL_LINE, n_trials=30_000, seed=SEED)
        assert a == b
        assert all(est.seed == SEED and est.n_trials == 30_000 for est in a.per_m + (a.total,))

    def test_per_trial_window_additivity_exact(self):
        # Disjoint adjacent half-open windows partition their union trial by
        # trial, and so do their mirrors (-0.3, inf) and (-inf, -0.3]: with
        # shared streams the contribution arrays add exactly.
        left = contributions(IntervalB(-math.inf, 0.3))
        right = contributions(IntervalB(0.3, math.inf))
        union = contributions(FULL_LINE)
        assert np.array_equal(left + right, union)

    def test_window_monotonicity_per_trial(self):
        small = contributions(IntervalB(0.0, 0.7))
        large = contributions(IntervalB(0.0, 2.0))
        assert np.all(small <= large)

    def test_mirror_reads_reflected_window(self):
        # Column m averages rank m+1 in B with rank n-m in -B, so swapping
        # B for its mirror (-hi, -lo] swaps the two readings: column m of one
        # window is column n-1-m of the other (a value on an end, where the
        # half-open sides differ, has probability zero).
        ends = (-0.7, 1.3)
        window = IntervalB(*ends)
        mirrored = IntervalB(-ends[1], -ends[0])
        for n in (2, 3):
            assert np.array_equal(contributions(window, 5000, n),
                                  contributions(mirrored, 5000, n)[:, ::-1])

    def test_index_bounds(self):
        # One column per m = 0..n-1; the CLI rejects any other m.
        assert [len(estimate_equilibria_count(n, PARAMS, n_trials=10, seed=SEED).per_m)
                for n in (1, 2, 3, 4)] == [1, 2, 3, 4]
        with pytest.raises(DomainError):
            estimate_equilibria_count(0, PARAMS, n_trials=10, seed=SEED)

    def test_total_stderr_from_row_sums(self):
        # The per-m estimates share trials, so the total's stderr is that of
        # the per-trial row sums, not the root sum of squares of theirs.
        stack = contributions(FULL_LINE, 30_000, 3)
        counts = estimate_equilibria_count(3, PARAMS, FULL_LINE, n_trials=30_000, seed=SEED)
        rows = stack.sum(axis=1)
        assert counts.total.mean == pytest.approx(rows.mean(), rel=1e-12)
        assert counts.total.stderr == pytest.approx(
            rows.std(ddof=1) / math.sqrt(rows.size), rel=1e-9)
        for m, est in enumerate(counts.per_m):
            assert est.mean == pytest.approx(stack[:, m].mean(), rel=1e-12)
        root_sum_sq = math.sqrt(sum(est.stderr ** 2 for est in counts.per_m))
        assert counts.total.stderr > 1.2 * root_sum_sq

    @pytest.mark.parametrize("n", [2, 3])
    def test_mirror_indices_bitwise_equal_on_full_line(self, n):
        # On the whole line the pairs for m = 0 and m = n-1 are one sum in
        # either order, so the two estimates agree bit for bit.
        counts = estimate_equilibria_count(n, PARAMS, FULL_LINE, n_trials=20_000, seed=SEED)
        assert counts.per_m[0] == counts.per_m[n - 1]

    @pytest.mark.parametrize("n, seed", [(3, SEED), (4, SEED + 1), (5, SEED + 2)])
    def test_euler_characteristic_one_pass(self, n, seed):
        # Morse theory on S^(n-1): sum_m (-1)^m N_m = 1 + (-1)^(n-1) for every
        # field, so the alternating sum of one pass's estimates must match it,
        # with the stderr of the per-trial alternating row sums. At n = 4 the
        # even and the odd columns hold the same two terms, so every
        # alternating row sum cancels exactly.
        chi = 1 + (-1) ** (n - 1)
        stack = np.concatenate(list(_count_contributions(n, PARAMS, FULL_LINE, 40_000, seed)))
        alternating = stack[:, 0::2].sum(axis=1) - stack[:, 1::2].sum(axis=1)
        est = MCEstimate(float(alternating.mean()),
                         float(alternating.std(ddof=1) / math.sqrt(alternating.size)),
                         alternating.size, seed)
        assert z_score(est, MCEstimate(float(chi), 0.0, 1, seed)) < 3.0
        if n % 2 == 0:
            assert not alternating.any()
        else:
            assert est.stderr > 0.0

    @pytest.mark.parametrize("phi2", [0.0, 0.6])  # tau = 0 and tau = 0.3
    def test_zero_sphere_has_two_equilibria(self, phi2):
        # On S^0 both points are equilibria with m = 0, and at n = 1 the
        # per-trial weight has expectation exactly 2 for any b and tau.
        params = ModelParams(phi1=1.0, dphi1=2.0, phi2=phi2, sigma2=0.25)
        counts = estimate_equilibria_count(1, params, FULL_LINE, n_trials=40_000, seed=SEED)
        est = counts.per_m[0]
        assert counts.total == est
        assert abs(est.mean - 2.0) < 3.0 * est.stderr


def reference_contributions(n, p, window, n_trials, seed):
    """The count estimator's per-trial columns from its earlier per-rank
    loop, whose mirror reading had its own mask: rank k in (-hi, -lo]."""
    tau, b = derive_tau_b(p)
    log_pref = (
        math.log(2.0)
        + 0.5 * (math.log1p(tau) - math.log(b * b + tau))
        + (1.0 - n) * math.log(b)
    )
    taper = n * (1.0 - b * b) / (2.0 * (b * b + tau) * (1.0 + tau))
    scale = math.sqrt(p.dphi1)
    out = []
    for values, is_real in _eig_batches(n, tau, n_trials, seed):
        contrib = np.zeros((n, len(values)))
        for k in range(n):
            lam = values[:, k].real
            weight = np.where(is_real[:, k], np.exp(log_pref - taper * lam * lam), 0.0)
            x = scale * lam
            contrib[k] += np.where(window.contains(x), weight, 0.0)
            contrib[n - 1 - k] += np.where((x > -window.hi) & (x <= -window.lo), weight, 0.0)
        contrib *= 0.5
        out.append(contrib.T)
    return np.concatenate(out)


@pytest.mark.parametrize("window", [
    FULL_LINE, IntervalB(-0.7, 1.3), IntervalB(0.4, math.inf), IntervalB(-math.inf, 0.0),
], ids=["whole-line", "straddling-0", "one-sided", "end-at-0"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_count_contributions_match_reference_bitwise(n, window):
    # 5000 trials: a full batch and a ragged one; tau = 0.3.
    params = ModelParams(phi1=1.0, dphi1=2.0, phi2=0.6, sigma2=0.25)
    got = np.concatenate(list(_count_contributions(n, params, window, 5000, SEED)))
    want = reference_contributions(n, params, window, 5000, SEED)
    assert got.shape == want.shape == (5000, n)
    assert np.array_equal(bits(got), bits(want))


class TestVerifyDimensionLift:
    def test_empty_window_both_sides_zero(self):
        report = verify_dimension_lift(
            3, 1, 0.0, IntervalB(60.0, 61.0), n_trials=2000, seed=SEED
        )
        assert report.lhs.mean == 0.0 and report.rhs.mean == 0.0
        assert report.z_score == 0.0

    def test_identity_tau_zero(self):
        report = verify_dimension_lift(
            3, 1, 0.0, IntervalB(1.0, 1.4), n_trials=150_000, seed=SEED
        )
        assert report.z_score < 3.0

    def test_identity_nonzero_tau(self):
        report = verify_dimension_lift(
            3, 1, 0.3, IntervalB(1.0, 1.4), n_trials=150_000, seed=SEED + 1
        )
        assert report.z_score < 3.0

    def test_identity_m2_n4(self):
        report = verify_dimension_lift(
            4, 2, -0.2, IntervalB(0.2, 0.8), n_trials=60_000, seed=SEED + 2
        )
        assert report.z_score < 3.0

    def test_requires_bounded_window(self):
        with pytest.raises(DomainError):
            verify_dimension_lift(3, 1, 0.0, FULL_LINE, n_trials=100, seed=SEED)

    def test_m_bounds(self):
        with pytest.raises(DomainError):
            verify_dimension_lift(3, 3, 0.0, IntervalB(1.0, 1.4), n_trials=100, seed=SEED)


def lift_constant(n, tau):
    """The right side's constant, Gamma(n/2) sqrt(2)^n sqrt(1+tau) / sqrt(n-1)^n."""
    return math.gamma(n / 2.0) * 2.0 ** (n / 2.0) * math.sqrt(1.0 + tau) / (n - 1.0) ** (n / 2.0)


def direct_only_rhs(n, m, tau, window, n_trials, seed):
    """The right side from the rank-(m+1) reading alone, without its mirror,
    on the trials ``verify_dimension_lift(..., seed=seed)`` draws."""
    moments = RunningMoments()
    const = lift_constant(n, tau)
    for values, is_real in _eig_batches(n, tau, n_trials, derive_seed(seed, 1), ranks=[m]):
        live = is_real[:, 0] & window.contains(math.sqrt(n) * values[:, 0].real)
        moments.add(np.where(live, const, 0.0))
    return moments.estimate(seed)


class TestMirrorReadings:
    """Each ranked reading paired with its X -> -X mirror: the same law, read
    from the same spectrum at rank n-m, so a smaller error at no extra
    eigensolve."""

    @pytest.mark.parametrize("n, rank0", [(3, 1), (4, 1), (5, 3), (1, 0)])
    def test_rows_are_direct_column_and_negated_mirror(self, n, rank0):
        # Read from the kept pair [rank0, n-1-rank0] (or the middle rank
        # alone), column 0 of the readings is the direct column and the
        # negated mirror column of the whole spectrum, realness kept; read
        # from the whole spectrum, every column is.
        mirror0 = n - 1 - rank0
        kept = list(dict.fromkeys((rank0, mirror0)))
        pairs = _eig_batches(n, 0.3, 5000, SEED, 4096, kept)
        for batch, (values, is_real) in zip(pairs, _eig_batches(n, 0.3, 5000, SEED, 4096)):
            (lam, real), (mirror, mirror_real) = _readings(*batch)
            assert np.array_equal(lam[:, 0], values[:, rank0].real)
            assert np.array_equal(mirror[:, 0], -values[:, mirror0].real)
            assert np.array_equal(real[:, 0], is_real[:, rank0])
            assert np.array_equal(mirror_real[:, 0], is_real[:, mirror0])
            (lam, real), (mirror, mirror_real) = _readings(values, is_real)
            assert np.array_equal(lam, values.real) and np.array_equal(real, is_real)
            assert np.array_equal(mirror, -values.real[:, ::-1])
            assert np.array_equal(mirror_real, is_real[:, ::-1])

    @pytest.mark.parametrize("n, m, window", [
        (4, 1, IntervalB(0.2, 0.8)),
        (5, 3, IntervalB(-1.0, -0.2)),
    ])
    def test_paired_rhs_agrees_with_direct_where_columns_differ(self, n, m, window):
        report = verify_dimension_lift(n, m, 0.3, window, n_trials=60_000, seed=SEED + 20)
        direct = direct_only_rhs(n, m, 0.3, window, 60_000, SEED + 21)
        assert min(report.rhs_support, report.rhs_mirror_support) > 1000
        assert z_score(report.rhs, direct) < 3.0

    def test_paired_rhs_stderr_cut_at_benchmark_point(self):
        """n = 3, m = 1, tau = 0.3, [1, 1.4): both readings are the middle
        eigenvalue, one at +x and one at -x, so at most one hits per trial."""
        window = IntervalB(1.0, 1.4)
        report = verify_dimension_lift(3, 1, 0.3, window, n_trials=200_000, seed=SEED + 22)
        direct = direct_only_rhs(3, 1, 0.3, window, 200_000, SEED + 22)
        assert report.rhs.stderr <= 0.8 * direct.stderr
        assert z_score(report.rhs, direct) < 3.0

    def test_paired_concentration_agrees_with_direct(self):
        n, gamma, tau, n_trials, epsilon = 50, 0.25, 0.0, 2000, 0.1
        paired = concentration_miss_fractions([n], gamma, tau, n_trials, epsilon, SEED + 23)[0][1]
        s = tail_quantile(gamma, tau)
        ranked = _eig_batches(n, tau, n_trials, derive_seed(SEED + 24, 0),
                              ranks=[math.ceil(gamma * n) - 1])
        direct = sum(int((abs(values[:, 0].real - s) >= epsilon).sum())
                     for values, _ in ranked) / n_trials
        # The paired variance is at most the direct one, so sqrt(2) binomial
        # errors bound the combined error.
        sigma = math.sqrt(2.0 * direct * (1.0 - direct) / n_trials)
        assert 0.0 < direct < 1.0
        assert abs(paired - direct) < 3.0 * sigma


class TestGaussianMoments:
    """M_0 = int_a^b exp(-c t^2) dt against scipy's erf and erfc, taken in the
    same tail, on intervals whose ends are partly clipped to the window."""

    C = 0.8

    @classmethod
    def reference(cls, a, b):
        lo, hi = np.broadcast_arrays(math.sqrt(cls.C) * a, math.sqrt(cls.C) * b)
        diff = np.where(lo >= 0.0, special.erfc(lo) - special.erfc(hi),
                        np.where(hi <= 0.0, special.erfc(-hi) - special.erfc(-lo),
                                 special.erf(hi) - special.erf(lo)))
        return 0.5 * math.sqrt(math.pi / cls.C) * diff

    @pytest.mark.parametrize("t_lo, t_hi", [(-3.0, 3.0), (-3.0, -0.5), (0.5, 3.0)])
    def test_m0_against_scipy(self, t_lo, t_hi):
        rng = np.random.default_rng(SEED)
        a, b = np.sort(rng.uniform(t_lo, t_hi, size=(2, 3000)), axis=0)
        a[::3] = t_lo
        b[1::4] = t_hi
        got = _gaussian_moments(a, b, self.C, 0, t_lo, t_hi)[0]
        want = self.reference(a, b)
        # Both sides carry a few ulps of erfc; a short interval's difference
        # cancels them into a large relative error, so its bound is absolute.
        assert np.all(np.abs(got - want) <= 2e-15)
        wide = b - a >= 0.05
        assert np.all(np.abs(got - want)[wide] <= 1e-13 * np.abs(want[wide]))
        lo, hi = math.sqrt(self.C) * a[wide], math.sqrt(self.C) * b[wide]
        if t_lo < 0.0 < t_hi:  # all three tails are exercised, clipped and not
            for branch in (lo >= 0.0, hi <= 0.0, (lo < 0.0) & (hi > 0.0)):
                assert branch.sum() >= 100

    def test_scalar_lower_end(self):
        # With m equal to the matrix size every lower end is the window's.
        t_lo, t_hi = -1.0, 2.0
        b = np.random.default_rng(SEED).uniform(t_lo + 0.05, t_hi, size=500)
        b[::5] = t_hi
        got = _gaussian_moments(np.float64(t_lo), b, self.C, 2, t_lo, t_hi)
        want = self.reference(np.float64(t_lo), b)
        assert np.all(np.abs(got[0] - want) <= 1e-13 * np.abs(want))
        assert all(moment.shape == b.shape for moment in got)

    def test_clipped_ends_share_one_evaluation(self, monkeypatch):
        calls = []
        for name in ("erf", "erfc"):
            original = getattr(math, name)
            monkeypatch.setattr(math, name, lambda x, f=original: calls.append(x) or f(x))
        t_lo, t_hi = 0.5, 3.0
        b = np.full(1000, t_hi)
        b[:10] = np.linspace(1.0, 2.0, 10)
        _gaussian_moments(np.float64(t_lo), b, self.C, 0, t_lo, t_hi)
        assert len(calls) == 10 + 2  # the unclipped ends, and each window end once


class TestLiftIntegrals:
    """Each left-side trial's closed-form t-integral against adaptive
    quadrature of the literal integrand."""

    @staticmethod
    def reference(values, m, c, t_lo, t_hi):
        re = values.real

        def integrand(t):
            hit = np.count_nonzero(re >= t) == m
            return abs(np.prod(values - t)) * hit * math.exp(-c * t * t)

        # The integrand jumps or vanishes at the real parts: breakpoints there.
        inside = [x for x in re if t_lo < x < t_hi]
        value, _ = integrate.quad(integrand, t_lo, t_hi, points=inside or None,
                                  epsabs=0.0, epsrel=1e-13, limit=200)
        return value

    @pytest.mark.parametrize("n, m", [(2, 1), (3, 1), (3, 2), (4, 2), (6, 3)])
    def test_matches_quadrature(self, n, m):
        size, tau = n - 1, 0.3
        c = size / (2.0 * (1.0 + tau))
        values, is_real = eigvals_batch(sample_gee_entries(size, tau, substream(SEED, n), 2000))
        upper = values[:, m - 1].real
        lower = values[:, m].real if m < size else np.full(upper.size, -np.inf)
        cut = float(np.median(upper if m == size else 0.5 * (upper + lower)))
        # Whole intervals, intervals clipped at their lower end, and at their
        # upper end (for m = n - 1 every interval is clipped below).
        for t_lo, t_hi, clipped in ((-3.0, 3.0, None), (cut, 3.0, lower < cut),
                                    (-3.0, cut, upper > cut)):
            y, live = _lift_integrals(values, is_real, m, c, t_lo, t_hi)
            picked = np.flatnonzero(live if clipped is None else live & clipped)[:60]
            assert picked.size >= 50
            for i in picked:
                expected = self.reference(values[i], m, c, t_lo, t_hi)
                assert y[i] == pytest.approx(expected, rel=1e-10)


class TestEmpiricalTailRate:
    def test_precondition_inside_support(self):
        with pytest.raises(DomainError):
            empirical_tail_rate([10], 1, 0.9, 0.0, 100, SEED)

    def test_reference_scales_with_m(self):
        pts1 = empirical_tail_rate([8], 1, 1.3, 0.0, 200, SEED)
        pts2 = empirical_tail_rate([8], 2, 1.3, 0.0, 200, SEED)
        assert pts2[0].reference == pytest.approx(2.0 * pts1[0].reference, rel=1e-14)
        assert pts1[0].reference == pytest.approx(rate_function(1.3, 0.0), rel=1e-14)

    def test_insufficient_hits_flagged(self):
        pts = empirical_tail_rate([12], 1, 2.6, 0.0, 300, SEED)
        assert not pts[0].sufficient

    @pytest.mark.parametrize("m", [1, 3])
    def test_reads_one_rank(self, monkeypatch, m):
        # The tail reads rank m alone, screened at x; no mirror column is
        # kept at n = 10.
        seen = []
        batches = montecarlo._eig_batches

        def recording(*args, **kwargs):
            seen.append((kwargs["ranks"], kwargs["floor"]))
            return batches(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "_eig_batches", recording)
        empirical_tail_rate([10], m, 1.2, 0.0, 5000, SEED)
        assert seen == [([m - 1], 1.2)]

    @pytest.mark.parametrize("n_list, m, x, tau", [
        ([10, 20, 40], 1, 1.2, 0.0), ([4, 12], 2, 1.4, 0.3), ([3, 40], 1, 0.8, -0.5),
    ])
    def test_screen_changes_no_count(self, monkeypatch, n_list, m, x, tau):
        screened = empirical_tail_rate(n_list, m, x, tau, 3000, SEED)
        monkeypatch.setattr(montecarlo, "_screen_pays", lambda n, tau, x: False)
        plain = empirical_tail_rate(n_list, m, x, tau, 3000, SEED)
        assert [replace(p, eigensolved=0) for p in screened] == [
            replace(p, eigensolved=0) for p in plain]
        assert all(p.eigensolved == 3000 for p in plain)
        for point in screened:  # the closed forms (n = 3) are never screened
            if point.n <= 3:
                assert point.eigensolved == 3000
            else:
                assert point.hits <= point.eigensolved < 3000

    def test_most_trials_skip_the_eigensolver_at_the_benchmark_point(self):
        (point,) = empirical_tail_rate([40], 1, 1.2, 0.0, 8192, SEED)
        assert point.hits >= MIN_HITS and point.eigensolved < 0.05 * 8192

    def test_screen_skipped_where_it_certifies_nothing(self):
        """At n = 40, tau = -0.5, x = 0.6 the shift needed to keep the ellipse's
        right end dominant (4.3) leaves no room to certify a draw, so the
        tail skips the screen there, as it does at the closed-form sizes."""
        mats = sample_gee_entries(40, -0.5, substream(SEED, 0), 200)
        work = np.empty((2, 10, 40, 40))
        assert not certify_abscissa_below(mats, 0.6, _abscissa_shift(-0.5), work).any()
        assert not _screen_pays(40, -0.5, 0.6)
        assert not _screen_pays(3, 0.0, 1.2)
        assert _screen_pays(40, 0.0, 1.2) and _screen_pays(40, -0.5, 0.9)

    def test_zero_hits_rate_infinite(self):
        pts = empirical_tail_rate([12], 1, 5.0, 0.0, 50, SEED)
        assert pts[0].hits == 0 and pts[0].rate_hat == math.inf


class TestEmpiricalSpectralTest:
    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            empirical_spectral_test(10, 0.0, 5, SEED)

    def test_distance_shrinks_with_n(self):
        d100 = empirical_spectral_test(100, 0.2, 10, SEED)
        d400 = empirical_spectral_test(400, 0.2, 10, SEED)
        assert d400 < d100

    def test_near_symmetric_limit(self):
        # tau = 0.99: the marginal approaches a semicircle of radius ~2 and
        # the empirical law still tracks it.
        assert empirical_spectral_test(400, 0.99, 50, SEED + 3) < 0.05


class TestConcentration:
    def test_negative_abscissa_for_large_gamma(self):
        from equicount.ellipse import tail_quantile

        assert tail_quantile(0.9, 0.0) < 0.0

    def test_huge_epsilon_never_misses(self):
        out = concentration_miss_fractions([50], 0.5, 0.0, 200, 5.0, SEED)
        assert out[0][1] == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            concentration_miss_fractions([50], 0.0, 0.0, 10, 0.1, SEED)
        with pytest.raises(DomainError):
            concentration_miss_fractions([50], 0.5, 0.0, 10, 0.0, SEED)
