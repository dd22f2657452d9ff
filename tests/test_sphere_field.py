"""Brute-force sphere counting: covariances, exhaustive root finding, and the
cross-check of the ensemble estimator against direct counts at n = 3.

The J = 0 configuration is fully solvable by hand (two antipodal equilibria
at +-sqrt(3) h/|h| with multipliers +-|h|/sqrt(3)) and anchors the solver.
"""

import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest

from equicount import sphere_field
from equicount.cli import main
from equicount.errors import DomainError, SampleFlaggedError
from equicount.montecarlo import estimate_equilibria_count
from equicount.rates import derive_tau_b
from equicount.sampling import substream, z_score
from equicount.sphere_field import (
    Equilibrium,
    FieldSample,
    field_model_params,
    find_equilibria_circle,
    find_equilibria_sphere,
    icosphere_vertices,
    oracle_mean_counts,
    sample_field,
)

SEED = 90210


def eval_field(fs, x):
    """(tangent field, multiplier) at an on-sphere point x: the multiplier
    lam(x) = <x, f(x) + h>/n removes the radial component, so <F(x), x> = 0
    to rounding."""
    ambient = np.einsum("ijk,j,k->i", fs.coeffs, x, x) + fs.drift
    lam = float(x @ ambient) / fs.n
    return ambient - lam * x, lam


def assert_antipodal_pairs(eqs, n):
    # F(-x) = F(x), the tangential Jacobian flips sign and lam(-x) = -lam(x):
    # every equilibrium has its antipode, with the complementary index.
    for e in eqs:
        partners = [p for p in eqs if np.allclose(p.position, -e.position, rtol=0.0, atol=1e-8)]
        assert len(partners) == 1
        assert partners[0].m == n - 1 - e.m
        assert partners[0].lagrange == pytest.approx(-e.lagrange, abs=1e-9)


def reflect_onto_chart_infinity(fs, position):
    """The field reflected so that its equilibrium at ``position`` lands on the
    plane the first chart sends to infinity; equilibria and indices follow
    the reflection, which is returned with it."""
    axis = sphere_field._CHARTS[0][:, 0]
    x0 = position / math.sqrt(3.0)
    target = x0 - (x0 @ axis) * axis
    d = x0 - target / np.linalg.norm(target)
    reflect = np.eye(3) - 2.0 * np.outer(d, d) / (d @ d)
    coeffs = np.einsum("ia,ajk,bj,ck->ibc", reflect, fs.coeffs, reflect, reflect)
    return FieldSample(n=3, coeffs=coeffs, drift=reflect @ fs.drift, sigma2=fs.sigma2), reflect


def with_circle_double_root(fs, theta):
    """The field with its drift shifted so that g has a double zero at theta.

    A drift shift d adds -d0 sin + d1 cos to g: two free Fourier modes, which
    fix g and its derivative (a complex-step derivative) at theta.
    """
    def g(t):
        x = math.sqrt(2.0) * np.array([np.cos(t), np.sin(t)])
        f = np.einsum("ijk,j,k->i", fs.coeffs, x, x) + fs.drift
        return -f[0] * np.sin(t) + f[1] * np.cos(t)

    s, c = math.sin(theta), math.cos(theta)
    shift = np.linalg.solve([[-s, c], [-c, -s]], [-g(theta).real, -g(theta + 1e-20j).imag / 1e-20])
    return FieldSample(n=2, coeffs=fs.coeffs, drift=fs.drift + shift, sigma2=fs.sigma2)


def with_singular_sphere_root(fs, direction):
    """The field with its drift shifted so that sqrt(3) u is an equilibrium
    whose tangential Jacobian is singular, or None when that Jacobian has
    complex eigenvalues.

    The tangential part of the shift cancels F there; its radial part, mu x,
    moves the tangential Jacobian by -mu I onto one of its eigenvalues.
    """
    x = math.sqrt(3.0) * direction / np.linalg.norm(direction)
    ambient = np.einsum("ijk,j,k->i", fs.coeffs, x, x) + fs.drift
    lam = x @ ambient / 3.0
    frame = np.linalg.svd(x[None])[2][1:].T
    df = np.einsum("ilk,k->il", fs.coeffs, x) + np.einsum("ikl,k->il", fs.coeffs, x)
    eig = np.linalg.eigvals(frame.T @ (df - lam * np.eye(3)) @ frame)
    if np.any(eig.imag != 0.0):
        return None
    shift = eig[0].real * x - (ambient - lam * x)
    return FieldSample(n=3, coeffs=fs.coeffs, drift=fs.drift + shift, sigma2=fs.sigma2)


def circle_roots_at_both_infinities():
    """A circle field whose cubic g = c s (c + s) has no c^3 and no s^3 term."""
    coeffs = np.zeros((2, 2, 2))
    coeffs[1, 0, 1] = coeffs[1, 1, 1] = 0.5
    return FieldSample(n=2, coeffs=coeffs, drift=np.zeros(2), sigma2=0.0)


def seeded_with_degenerate(n, count, seed):
    """``count`` seeded samples, some replaced by degenerate fields: f = h = 0,
    a double root, a circle cubic with both leading coefficients zero, and
    (not flagged) a circle field of lower degree, the closed-form family on
    the sphere and a root at the first chart's infinity."""
    fields = [sample_field(n, 0.25, substream(seed, i)) for i in range(count)]
    rng = np.random.default_rng(seed)
    special = [FieldSample(n=n, coeffs=np.zeros((n, n, n)), drift=np.zeros(n), sigma2=0.0)]
    if n == 2:
        special.append(FieldSample(n=2, coeffs=np.zeros((2, 2, 2)), drift=np.array([0.3, -0.2]),
                                   sigma2=0.25))
        special += [with_circle_double_root(fs, rng.uniform(0.0, 2.0 * math.pi))
                    for fs in fields[:8]]
        special.append(circle_roots_at_both_infinities())
    else:
        a, ell = rng.standard_normal((2, 3))
        family = np.einsum("i,jk->ijk", a, np.eye(3)) + np.einsum("j,ik->ijk", ell, np.eye(3))
        special.append(FieldSample(n=3, coeffs=family, drift=fields[0].drift, sigma2=0.25))
        special.append(reflect_onto_chart_infinity(
            fields[1], find_equilibria_sphere(fields[1])[0].position)[0])
        singular = (with_singular_sphere_root(fs, rng.standard_normal(3)) for fs in fields[:40])
        special += [fs for fs in singular if fs is not None][:8]
    for k, fs in enumerate(special):
        fields[17 + 151 * k] = fs
    return fields


def solve_stack(fields):
    """Per sample of one batched solve: its flag reason, or the m, positions
    and multipliers of its equilibria."""
    solved = sphere_field._solve(np.stack([fs.coeffs for fs in fields]),
                                 np.stack([fs.drift for fs in fields]))
    bounds = np.cumsum(np.bincount(solved.sample, minlength=len(fields)))[:-1]
    groups = zip(*(np.split(v, bounds) for v in (solved.m, solved.position, solved.lagrange)))
    return [solved.flags[k].reason if k in solved.flags else group
            for k, group in enumerate(groups)]


def solve_alone(fs):
    find = find_equilibria_circle if fs.n == 2 else find_equilibria_sphere
    try:
        eqs = find(fs)
    except SampleFlaggedError as exc:
        return exc.reason
    return (np.array([e.m for e in eqs], dtype=int), np.array([e.position for e in eqs]),
            np.array([e.lagrange for e in eqs]))


class TestFieldModel:
    def test_params_satisfy_constraints(self):
        tau, b = derive_tau_b(field_model_params(0.25))
        assert tau == 0.0
        assert b == pytest.approx(math.sqrt(0.625), rel=1e-15)

    def test_covariance_of_components(self):
        # E[f_i(x) f_j(y)] = delta_ij (<x,y>/n)^2, checked at fixed x, y.
        n = 3
        rng = np.random.default_rng(SEED)
        x = math.sqrt(n) * np.array([1.0, 0.0, 0.0])
        y = math.sqrt(n) * np.array([0.6, 0.8, 0.0])
        trials = 100_000
        coeffs = rng.standard_normal((trials, n, n, n)) / n
        fx = np.einsum("tijk,j,k->ti", coeffs, x, x)
        fy = np.einsum("tijk,j,k->ti", coeffs, y, y)
        target = (float(x @ y) / n) ** 2
        same = fx[:, 0] * fy[:, 0]
        se = same.std(ddof=1) / math.sqrt(trials)
        assert abs(same.mean() - target) < 4.0 * se
        cross = fx[:, 0] * fy[:, 1]
        se = cross.std(ddof=1) / math.sqrt(trials)
        assert abs(cross.mean()) < 4.0 * se

    def test_multiplier_variance_north_pole(self):
        # Var(lam) at the pole is (phi1 + phi2 + sigma2)/n = (1 + sigma2)/n here.
        n, sigma2, trials = 3, 0.4, 100_000
        pole = np.array([0.0, 0.0, math.sqrt(n)])
        rng = np.random.default_rng(SEED + 1)
        lams = np.empty(trials)
        for t in range(trials):
            fs = sample_field(n, sigma2, rng)
            _, lams[t] = eval_field(fs, pole)
        var = lams.var(ddof=1)
        target = (1.0 + sigma2) / n
        se = target * math.sqrt(2.0 / trials)
        assert abs(var - target) < 4.0 * se


class TestEvalField:
    def test_tangency(self):
        rng = np.random.default_rng(SEED + 2)
        fs = sample_field(3, 0.3, rng)
        for _ in range(20):
            v = rng.standard_normal(3)
            x = math.sqrt(3.0) * v / np.linalg.norm(v)
            tangent, _ = eval_field(fs, x)
            assert abs(float(tangent @ x)) < 1e-12

    def test_zero_field(self):
        fs = FieldSample(n=2, coeffs=np.zeros((2, 2, 2)), drift=np.zeros(2), sigma2=0.0)
        tangent, lam = eval_field(fs, math.sqrt(2.0) * np.array([0.6, 0.8]))
        assert np.allclose(tangent, 0.0) and lam == 0.0


class TestCircleSolver:
    def test_alternation_and_evenness(self):
        rng = np.random.default_rng(SEED + 4)
        for _ in range(200):
            eqs = find_equilibria_circle(sample_field(2, 0.25, rng))
            ms = [e.m for e in eqs]
            assert len(eqs) % 2 == 0 and len(eqs) >= 2
            assert ms.count(0) == ms.count(1)

    def test_residuals_and_reproducibility(self):
        fs = sample_field(2, 0.25, np.random.default_rng(SEED + 5))
        eqs1 = find_equilibria_circle(fs)
        eqs2 = find_equilibria_circle(fs)
        assert all(e.residual < 1e-9 for e in eqs1)
        assert all(
            np.array_equal(a.position, b.position) and a.m == b.m for a, b in zip(eqs1, eqs2)
        )

    def test_positions_on_circle(self):
        fs = sample_field(2, 0.25, np.random.default_rng(SEED + 6))
        for e in find_equilibria_circle(fs):
            assert abs(float(e.position @ e.position) - 2.0) < 1e-10

    def test_antipodal_pairing(self):
        rng = np.random.default_rng(SEED + 10)
        for _ in range(200):
            assert_antipodal_pairs(find_equilibria_circle(sample_field(2, 0.25, rng)), 2)

    def test_double_roots_are_flagged(self):
        # A fold (double zero of g) must flag the sample, not be counted once
        # or twice: the batch-independence stack's eight, and fresh ones.
        fields = seeded_with_degenerate(2, 2000, SEED + 20)
        folds = [fields[17 + 151 * k] for k in range(2, 10)]
        rng = np.random.default_rng(SEED + 14)
        folds += [with_circle_double_root(sample_field(2, 0.25, rng),
                                          rng.uniform(0.0, 2.0 * math.pi)) for _ in range(200)]
        for fs in folds:
            with pytest.raises(SampleFlaggedError, match="degenerate-root"):
                find_equilibria_circle(fs)

    def test_roots_at_both_chart_infinities_flagged_without_warnings(self):
        # No chart has a nonzero leading coefficient, so neither companion
        # matrix exists; the sample is flagged before any division.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SampleFlaggedError, match="uncertified"):
                find_equilibria_circle(circle_roots_at_both_infinities())

    def test_newton_polish_recovers_rotated_roots(self, monkeypatch):
        # The cubic's roots rarely need a Newton step; rotating each direction
        # by about 1e-6 rad forces some, which must land back on the same
        # equilibria, on the circle of radius sqrt(2). The polish stops at
        # |F| <= _RESIDUAL_TOL, and one quadratic step from 1e-6 rad leaves up
        # to about 1.2e-10 in position, so positions agree to 1e-9, not to the
        # last digit.
        fields = [sample_field(2, 0.25, substream(SEED + 15, i)) for i in range(500)]
        coeffs = np.stack([fs.coeffs for fs in fields])
        drift = np.stack([fs.drift for fs in fields])
        want = sphere_field._solve(coeffs, drift)
        find = sphere_field._circle_real_roots

        def rotated(coeffs, drift):
            sid, dirs, flags = find(coeffs, drift)
            angle = 1e-6 * np.where(np.arange(len(sid)) % 2, 1.0, -1.3)
            c, s = np.cos(angle), np.sin(angle)
            x, y = dirs[:, 0], dirs[:, 1]
            return sid, np.stack([c * x - s * y, s * x + c * y], axis=1), flags

        monkeypatch.setattr(sphere_field, "_circle_real_roots", rotated)
        got = sphere_field._solve(coeffs, drift)
        assert not want.flags and not got.flags
        assert np.array_equal(got.sample, want.sample) and np.array_equal(got.m, want.m)
        np.testing.assert_allclose(got.position, want.position, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose((got.position ** 2).sum(axis=1), 2.0, rtol=0.0, atol=1e-12)
        assert np.all(got.residual <= sphere_field._RESIDUAL_TOL)

    def test_wrong_dimension(self):
        with pytest.raises(DomainError):
            find_equilibria_circle(sample_field(3, 0.25, np.random.default_rng(SEED)))


class TestSphereSolver:
    def test_icosphere_sizes(self):
        assert [len(icosphere_vertices(k)) for k in (0, 1, 2)] == [12, 42, 162]

    def test_constant_field_analytic(self):
        rng = np.random.default_rng(SEED + 7)
        drift = rng.standard_normal(3) * 0.5
        fs = FieldSample(n=3, coeffs=np.zeros((3, 3, 3)), drift=drift, sigma2=0.25)
        eqs = find_equilibria_sphere(fs)
        assert sorted(e.m for e in eqs) == [0, 2]
        lam_target = float(np.linalg.norm(drift)) / math.sqrt(3.0)
        got = sorted(e.lagrange for e in eqs)
        assert got[0] == pytest.approx(-lam_target, abs=1e-9)
        assert got[1] == pytest.approx(lam_target, abs=1e-9)
        north = max(eqs, key=lambda e: e.lagrange)
        assert np.allclose(north.position, math.sqrt(3.0) * drift / np.linalg.norm(drift), atol=1e-8)

    def test_euler_characteristic_and_residuals(self):
        rng = np.random.default_rng(SEED + 8)
        for _ in range(60):
            eqs = find_equilibria_sphere(sample_field(3, 0.25, rng))
            assert sum((-1) ** e.m for e in eqs) == 2
            assert all(e.residual < 1e-9 for e in eqs)
            assert all(abs(float(e.position @ e.position) - 3.0) < 1e-10 for e in eqs)

    def test_antipodal_pairing(self):
        rng = np.random.default_rng(SEED + 11)
        for _ in range(200):
            assert_antipodal_pairs(find_equilibria_sphere(sample_field(3, 0.25, rng)), 3)

    def test_degenerate_family_closed_form(self):
        # f(x) = |x|^2 a + (l . x) x makes the chart resultant vanish
        # identically; the equilibria are +-sqrt(3) c/|c| with c = a + h/3.
        a, ell, drift = np.random.default_rng(SEED + 12).standard_normal((3, 3))
        coeffs = np.einsum("i,jk->ijk", a, np.eye(3)) + np.einsum("j,ik->ijk", ell, np.eye(3))
        fs = FieldSample(n=3, coeffs=coeffs, drift=drift, sigma2=1.0)
        eqs = find_equilibria_sphere(fs)
        assert sorted(e.m for e in eqs) == [0, 2]
        c = a + drift / 3.0
        sink = min(eqs, key=lambda e: e.m)
        assert np.allclose(sink.position, math.sqrt(3.0) * c / np.linalg.norm(c), atol=1e-12)
        assert all(e.residual < 1e-12 for e in eqs)

    def test_root_at_chart_infinity_uses_second_chart(self, monkeypatch):
        fs = sample_field(3, 0.25, np.random.default_rng(SEED + 13))
        eqs = find_equilibria_sphere(fs)
        moved, reflect = reflect_onto_chart_infinity(fs, eqs[0].position)
        with monkeypatch.context() as patch:
            patch.setattr(sphere_field, "_CHARTS", sphere_field._CHARTS[:1])
            with pytest.raises(SampleFlaggedError, match="uncertified"):
                find_equilibria_sphere(moved)
        got = find_equilibria_sphere(moved)
        assert len(got) == len(eqs)
        for e in eqs:
            image = reflect @ e.position
            match = [g for g in got if np.allclose(g.position, image, rtol=0.0, atol=1e-8)]
            assert len(match) == 1 and match[0].m == e.m

    def test_wrong_dimension(self):
        with pytest.raises(DomainError):
            find_equilibria_sphere(sample_field(2, 0.25, np.random.default_rng(SEED)))


class TestAnySizeStage:
    """The polish-and-classify stage has no per-size code: only a direction
    finder is needed to solve at a new n."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_householder_frames_are_orthonormal_tangent_bases(self, n):
        # Random points, and +-sqrt(n) e_i, whose zero (and -0.0) first
        # coordinates pick the reflection's sign at its edge.
        rng = np.random.default_rng(SEED + 40 + n)
        axes = math.sqrt(n) * np.concatenate([np.eye(n), -np.eye(n)])
        xs = np.concatenate([rng.standard_normal((500, n)), axes])
        frames = sphere_field._tangent_frames(xs)
        assert frames.shape == (len(xs), n, n - 1)
        radial = xs / np.linalg.norm(xs, axis=1)[:, None]
        gram = np.einsum("sia,sib->sab", frames, frames)
        np.testing.assert_allclose(gram - np.eye(n - 1), 0.0, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(np.einsum("sia,si->sa", frames, radial), 0.0,
                                   rtol=0.0, atol=1e-14)

    def test_solve_at_n4_with_a_registered_finder(self, monkeypatch):
        # The diagonal tensor f_i = d_i x_i^2 with h = 0 has G(x) parallel
        # to x exactly at x ~ sum_{i in S} e_i / d_i for each nonempty S:
        # all 2^4 - 1 = 15 direction pairs are real, and known in closed form.
        n, size = 4, 6
        rng = np.random.default_rng(SEED + 50)
        diag = rng.uniform(0.5, 2.0, (size, n)) * rng.choice([-1.0, 1.0], (size, n))
        coeffs = np.zeros((size, n, n, n))
        coeffs[:, np.arange(n), np.arange(n), np.arange(n)] = diag
        subsets = np.array(list(itertools.product([0.0, 1.0], repeat=n))[1:])

        def diagonal_directions(coeffs, drift):
            d = coeffs[:, np.arange(n), np.arange(n), np.arange(n)]
            dirs = (subsets[None] / d[:, None, :]).reshape(-1, n)
            sid = np.repeat(np.arange(len(coeffs)), len(subsets))
            return (sid, dirs / np.linalg.norm(dirs, axis=1)[:, None],
                    sphere_field._Flags(len(coeffs)))

        monkeypatch.setitem(sphere_field.DIRECTION_FINDERS, n, diagonal_directions)
        solved = sphere_field._solve(coeffs, np.zeros((size, n)))
        assert not solved.flags
        assert np.array_equal(np.bincount(solved.sample, minlength=size), np.full(size, 30))
        assert np.all(solved.residual <= sphere_field._RESIDUAL_TOL)
        np.testing.assert_allclose((solved.position ** 2).sum(axis=1), n, rtol=0.0, atol=1e-12)
        index_sum = np.bincount(solved.sample, weights=(-1.0) ** solved.m, minlength=size)
        assert np.array_equal(index_sum, np.zeros(size))


class TestOracleBatch:
    def test_flag_rate_reported(self):
        out = oracle_mean_counts(2, 0.25, 400, SEED)
        assert out.n_retained + sum(out.flag_reasons.values()) == 400
        assert 0.0 <= out.flagged_rate < 0.01

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_no_samples_is_a_domain_error(self, monkeypatch, n_samples):
        # Too few samples is a parameter error (exit 2), not a numerical
        # failure (exit 6), and is rejected before any field is drawn.
        def no_field(*args):
            raise AssertionError("a field was drawn before n_samples was checked")

        monkeypatch.setattr(sphere_field, "sample_field", no_field)
        with pytest.raises(DomainError, match="n_samples >= 1"):
            oracle_mean_counts(2, 0.25, n_samples, 1)

    @pytest.mark.parametrize("n, samples, totals", [
        (3, 200, [330, 260, 330]),
        (2, 400, [642, 642]),
        (2, 20000, [32202, 32202]),
    ])
    def test_pinned_count_totals(self, n, samples, totals):
        # Per-index totals recorded with the earlier solvers (dense scan on the
        # circle, mesh-seeded Newton on the sphere) at one fixed seed; the
        # 20000-sample circle row with the degree-6 companion solver.
        out = oracle_mean_counts(n, 0.25, samples, SEED + 12)
        assert out.flag_reasons == {}
        assert [round(out.per_m[m].mean * out.n_retained) for m in range(n)] == totals

    def test_symmetric_indices_at_n3(self):
        # N_m(B) = N_{n-m}(-B) at B = R forces equal means for m=0 and m=2.
        out = oracle_mean_counts(3, 0.25, 800, SEED + 1)
        gap = abs(out.per_m[0].mean - out.per_m[2].mean)
        se = math.hypot(out.per_m[0].stderr, out.per_m[2].stderr)
        assert gap < 3.0 * se

    def test_mirror_symmetry_between_extreme_indices(self):
        # Multipliers of index-0 equilibria mirror those of index-(n-1) under
        # negation; compare histograms on symmetric bins.
        collected: list[tuple[int, Equilibrium]] = []
        oracle_mean_counts(2, 0.25, 2500, SEED + 2, collect=collected)
        lam0 = np.array([e.lagrange for _, e in collected if e.m == 0])
        lam1 = np.array([e.lagrange for _, e in collected if e.m == 1])
        edges = np.linspace(-3.0, 3.0, 13)
        h0, _ = np.histogram(lam0, bins=edges)
        h1, _ = np.histogram(-lam1, bins=edges)
        total = h0.sum()
        # sup distance between the two empirical CDFs, two-sample KS-style gate
        cdf_gap = np.max(np.abs(np.cumsum(h0) / total - np.cumsum(h1) / total))
        assert cdf_gap < 4.0 * math.sqrt(1.0 / total)


class TestBatchIndependence:
    @pytest.mark.parametrize("n", [2, 3])
    def test_batching_does_not_couple_samples(self, n):
        # One batch, blocks of 7 and one sample at a time must agree sample
        # by sample: the same flags, m and (to rounding) roots.
        fields = seeded_with_degenerate(n, 2000, SEED + 20)
        whole = solve_stack(fields)
        blocks = [out for start in range(0, len(fields), 7)
                  for out in solve_stack(fields[start:start + 7])]
        alone = [solve_alone(fs) for fs in fields]
        assert sum(isinstance(out, str) for out in whole) >= 5
        for got in (blocks, alone):
            assert len(got) == len(whole)
            for want, have in zip(whole, got):
                if isinstance(want, str) or isinstance(have, str):
                    assert have == want
                    continue
                assert np.array_equal(have[0], want[0])
                np.testing.assert_allclose(have[1], want[1], rtol=0.0, atol=1e-12)
                np.testing.assert_allclose(have[2], want[2], rtol=0.0, atol=1e-12)


class TestEstimatorCrossCheckSphere:
    def test_mean_m0_count_matches_estimator_n3(self):
        # Direct counting on the 2-sphere vs the ensemble estimator, m = 0.
        sigma2 = 0.25
        oracle = oracle_mean_counts(3, sigma2, 5000, SEED + 3)
        est = estimate_equilibria_count(
            3, field_model_params(sigma2), n_trials=400_000, seed=SEED + 4
        ).per_m[0]
        assert z_score(est, oracle.per_m[0]) < 3.0

    def test_rank_m_variant_rejected_at_n3(self):
        # Reading rank m instead of m+1 for m = 1 means reading 0-based index
        # 0, the eigenvalue the estimator reads for m = 0 with the same
        # prefactor and taper. The paired m = 0 estimate averages that reading
        # with its mirror, so it estimates the same mean, though no longer bit
        # for bit. It is decisively incompatible with the direct count of m = 1.
        sigma2 = 0.25
        oracle = oracle_mean_counts(3, sigma2, 1200, SEED + 5)
        rank_m = estimate_equilibria_count(
            3, field_model_params(sigma2), n_trials=200_000, seed=SEED + 6
        ).per_m[0]
        assert z_score(rank_m, oracle.per_m[1]) > 5.0


# sha256 of oracle-compare outputs at --sigma2 0.25 --samples 60 --trials 2000
# --seed 1, recorded with the paired one-pass estimator (whose record gives
# the total's two standard errors); the oracle's bytes date from when each
# sample was still solved on its own.
ORACLE_ARGV = ["oracle-compare", "--sigma2", "0.25", "--samples", "60", "--trials", "2000",
               "--seed", "1"]


@pytest.mark.parametrize("n, digest", [
    (2, "2c3fdad08c1ea8745b2f4cb201d646887c93fa33db4c0ffce7862c40cdbb5381"),
    (3, "a67ccf9a1b56d6d6fe06be083e6ff4f6402994d9ef5ea80abac77e751bed2227"),
])
def test_oracle_compare_record_bytes_pinned(tmp_path, n, digest):
    out = tmp_path / "oc.json"
    assert main(ORACLE_ARGV + ["--n", str(n), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_readme_oracle_compare_n2_record_pinned(tmp_path):
    # The README's n = 2 command, recorded with the paired one-pass
    # estimator; the oracle's bytes date from the degree-6 companion circle
    # solver, which the cubic solver reproduces.
    out = tmp_path / "oc.json"
    argv = ["oracle-compare", "--n", "2", "--sigma2", "0.25", "--samples", "5000",
            "--trials", "200000", "--seed", "1", "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "97206d71b78bd3cc4caf90f75f5af11a206a606664422c7c3e2a07cbf7c97de3")


def test_equilibria_dump_bytes_pinned(tmp_path):
    dump = tmp_path / "eq.csv"
    argv = ORACLE_ARGV + ["--n", "3", "--out", str(tmp_path / "oc.json"),
                          "--dump-equilibria", str(dump)]
    assert main(argv) == 0
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == (
        "6a8a76a0845ec1b43da109e5a8e35416fda1c5a0376e6f30bb10627ec15c6fd3")
