"""Elliptic ensemble: sampling covariance, ordered spectra, joint density.

The n = 2 real-sector mass 1/sqrt(2) ~ 0.70711 is the key frozen anchor: it
ties the density normalization, the pairing factor and the erfc weight
together, and the Monte Carlo sector frequencies must agree with the
quadrature of the density.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, linalg

from equicount import gee
from equicount.errors import DomainError, EigensolverError
from equicount.gee import (
    _MIX_ENTRIES,
    _mixing_coefficients,
    _order_key,
    certify_abscissa_below,
    eigvals_batch,
    log_eigenvalue_density,
    sample_gee_entries,
)
from equicount.montecarlo import prob_k_real
from equicount.sampling import batch_sizes, substream

SEED = 31337


def schur_spectrum(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ordered spectrum and realness read from the real Schur form.

    An independent reference for ``eigvals_batch``: 1 x 1 diagonal blocks
    are the real eigenvalues, 2 x 2 blocks carry conjugate pairs (LAPACK
    standardizes the blocks so a 2 x 2 block never holds real eigenvalues).
    """
    t_mat, _ = linalg.schur(np.asarray(entries, dtype=float), output="real")
    n = t_mat.shape[0]
    values = np.empty(n, dtype=complex)
    is_real = np.zeros(n, dtype=bool)
    i = 0
    while i < n:
        if i + 1 < n and t_mat[i + 1, i] != 0.0:
            a_, b_ = t_mat[i, i], t_mat[i, i + 1]
            c_, d_ = t_mat[i + 1, i], t_mat[i + 1, i + 1]
            re = 0.5 * (a_ + d_)
            im = 0.5 * math.sqrt(-((a_ - d_) ** 2 + 4.0 * b_ * c_))
            values[i] = re + 1j * im
            values[i + 1] = re - 1j * im
            i += 2
        else:
            values[i] = t_mat[i, i]
            is_real[i] = True
            i += 1
    order = np.argsort(_order_key(values), kind="stable")
    return values[order], is_real[order]


def spectrum_of(entries) -> tuple[np.ndarray, np.ndarray]:
    """``eigvals_batch`` on a single matrix: (values, is_real) of shape (n,)."""
    values, is_real = eigvals_batch(np.asarray(entries, dtype=float)[None])
    return values[0], is_real[0]


class TestSampleGee:
    def test_domain(self):
        rng = np.random.default_rng(SEED)
        with pytest.raises(DomainError):
            sample_gee_entries(3, -1.0, rng, 1)
        with pytest.raises(DomainError):
            sample_gee_entries(3, 1.2, rng, 1)

    def test_n1_variance(self):
        rng = np.random.default_rng(SEED)
        tau = 0.6
        draws = np.array([sample_gee_entries(1, tau, rng, 1)[0, 0, 0] for _ in range(40_000)])
        var = draws.var(ddof=1)
        se = var * math.sqrt(2.0 / len(draws))  # SE of a Gaussian variance estimate
        assert abs(var - (1.0 + tau)) < 4.0 * se

    def test_tau_one_symmetric(self):
        rng = np.random.default_rng(SEED)
        entries = sample_gee_entries(8, 1.0, rng, 1)[0]
        assert np.array_equal(entries, entries.T)

    def test_covariance_structure(self):
        # n Cov entries: E[X12 X21] = tau/n, E[X12^2] = 1/n, E[X11^2] = (1+tau)/n.
        n, tau, trials = 50, 0.5, 10_000
        mats = sample_gee_entries(n, tau, np.random.default_rng(SEED), trials)
        for values, target in (
            (n * mats[:, 0, 1] * mats[:, 1, 0], tau),
            (n * mats[:, 0, 1] ** 2, 1.0),
            (n * mats[:, 0, 0] ** 2, 1.0 + tau),
        ):
            se = values.std(ddof=1) / math.sqrt(trials)
            assert abs(values.mean() - target) < 3.0 * se


@pytest.mark.parametrize("size", [1, 255, 257, 4096])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 40])
@pytest.mark.parametrize("tau", [-0.5, 0.0, 1e-20, 0.3, 0.999, 1.0])
def test_sampler_matches_mixing_formula_bitwise(tau, n, size):
    a, b = _mixing_coefficients(tau)
    g = substream(SEED, size).standard_normal((size, n, n)) / math.sqrt(n)
    want = a * g + b * np.swapaxes(g, 1, 2)
    got = sample_gee_entries(n, tau, substream(SEED, size), size)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("n", [1, 4, 40, 100])
@pytest.mark.parametrize("tau", [0.0, 1e-20, 0.3, 1.0])
def test_sampler_drawn_in_pieces_matches_one_draw_bitwise(tau, n):
    """Consecutive draws from one generator continue its stream, so a batch
    may be sampled in pieces. The pieces straddle the mixing blocks."""
    step = max(1, _MIX_ENTRIES // (n * n))
    pieces = [step + 1, max(step - 1, 1), 2 * step + 1, 1]
    rng = substream(SEED, n)
    got = np.concatenate([sample_gee_entries(n, tau, rng, k) for k in pieces])
    want = sample_gee_entries(n, tau, substream(SEED, n), sum(pieces))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestSpectrum:
    def test_diagonal_ordering(self):
        values, is_real = spectrum_of(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(values, [3.0, 2.0, 1.0])
        assert is_real.sum() == 3

    def test_rotation_convention(self):
        # [[0, -1], [1, 0]] has eigenvalues +-i; positive imaginary part first.
        values, is_real = spectrum_of([[0.0, -1.0], [1.0, 0.0]])
        assert values[0] == pytest.approx(1j)
        assert values[1] == pytest.approx(-1j)
        assert is_real.sum() == 0

    def test_trace_and_determinant(self):
        rng = np.random.default_rng(SEED)
        entries = rng.standard_normal((8, 8))
        values, _ = spectrum_of(entries)
        assert np.sum(values) == pytest.approx(np.trace(entries), rel=1e-8, abs=1e-8)
        assert np.prod(values) == pytest.approx(np.linalg.det(entries), rel=1e-8)

    def test_conjugate_closure_and_parity(self):
        rng = np.random.default_rng(SEED + 1)
        for _ in range(50):
            values, is_real = spectrum_of(sample_gee_entries(7, 0.2, rng, 1)[0])
            assert is_real.sum() % 2 == 7 % 2
            complex_values = values[~is_real]
            assert len(complex_values) % 2 == 0
            conj = np.sort_complex(np.conj(complex_values))
            assert np.allclose(np.sort_complex(complex_values), conj)

    def test_ordering_invariant(self):
        rng = np.random.default_rng(SEED + 2)
        for _ in range(25):
            values, is_real = spectrum_of(sample_gee_entries(9, -0.3, rng, 1)[0])
            res = values.real
            assert np.all(np.diff(res) <= 1e-14)
            # within a conjugate pair the +im entry comes first
            for i in range(8):
                if not is_real[i] and values[i].imag > 0:
                    assert values[i + 1] == np.conj(values[i])

    def test_shift_equivariance(self):
        rng = np.random.default_rng(SEED + 3)
        entries = sample_gee_entries(6, 0.4, rng, 1)[0]
        base, _ = spectrum_of(entries)
        for _ in range(20):
            t = rng.normal()
            shifted, _ = spectrum_of(entries - t * np.eye(6))
            assert np.allclose(np.sort_complex(shifted), np.sort_complex(base - t), atol=1e-10)

    @pytest.mark.parametrize("n", [3, 6])
    def test_batch_matches_schur_realness(self, n):
        mats = sample_gee_entries(n, 0.3, np.random.default_rng(SEED + 4), 300)
        values, is_real = eigvals_batch(mats)
        for i in range(300):
            ref_values, ref_real = schur_spectrum(mats[i])
            assert ref_real.sum() == int(is_real[i].sum())
            assert np.allclose(ref_values, values[i], atol=1e-9)


def assert_matches_lapack(mats: np.ndarray, tol: float):
    """Realness and order equal to the LAPACK path (exact-zero imaginary
    parts, sorted by ``_order_key``), values within ``tol``."""
    values, is_real = eigvals_batch(mats)
    ref = np.linalg.eigvals(mats).astype(complex)
    ref = np.take_along_axis(ref, np.argsort(_order_key(ref), axis=1, kind="stable"), axis=1)
    assert np.array_equal(is_real, ref.imag == 0.0)
    assert np.abs(values - ref).max() <= tol
    return values, is_real


DEGENERATE_FIXTURES = {
    3: {
        "zero": np.zeros((3, 3)),
        "identity": np.eye(3),
        "diag-1-1-2": np.diag([1.0, 1.0, 2.0]),
        # Inexact entries: an unguarded Newton step leaves the double root by 3e-2.
        "diag-0.1-0.1-0.7": np.diag([0.1, 0.1, 0.7]),
        "triangular-1-1-5": [[1.0, 2.0, 3.0], [0.0, 1.0, 4.0], [0.0, 0.0, 5.0]],
        "jordan-2": [[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]],
    },
    2: {
        "zero": np.zeros((2, 2)),
        "identity": np.eye(2),
        "jordan-2": [[2.0, 1.0], [0.0, 2.0]],
        "rotation": [[0.0, -1.0], [1.0, 0.0]],
        "rotation-reversed": [[0.0, 1.0], [-1.0, 0.0]],
        "rotation-shifted": [[0.5, -1.0], [1.0, 0.5]],
    },
}


def _by_size(n: int, label: str) -> str:
    """Test id, prefixed with the size except at n = 3."""
    return label if n == 3 else f"n{n}-{label}"


class TestClosedFormCubic:
    """n = 2 and n = 3 spectra from the closed forms against LAPACK geev."""

    @pytest.mark.parametrize("tau", [-0.5, 0.0, 0.3, 0.9, 1.0])
    def test_seeded_stack_matches_lapack(self, tau):
        # 20 batches of 4096 per tau: 409600 matrices over the five values.
        for index in range(20):
            mats = sample_gee_entries(3, tau, substream(SEED + 9, index), 4096)
            assert_matches_lapack(mats, 1e-10)

    @pytest.mark.parametrize("n, name", [
        pytest.param(n, name, id=_by_size(n, name))
        for n in (3, 2) for name in DEGENERATE_FIXTURES[n]])
    def test_degenerate_fixtures_match_lapack(self, n, name):
        assert_matches_lapack(np.asarray(DEGENERATE_FIXTURES[n][name], dtype=float)[None], 1e-12)

    @pytest.mark.parametrize("n, scale", [
        pytest.param(n, scale, id=_by_size(n, f"{scale:g}"))
        for n in (3, 2) for scale in (1e-300, 1e-60, 1e60, 1e300)])
    def test_extreme_scales_match_lapack(self, n, scale):
        # The determinant (n = 2) and p^3, q^2 (n = 3) leave the double range
        # here unless each matrix is rescaled.
        mats = scale * sample_gee_entries(n, 0.3, np.random.default_rng(SEED + 10), 1000)
        assert_matches_lapack(mats, 1e-10 * scale)

    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e160, 1e300])
    @pytest.mark.parametrize("entries", [
        [[0.0, -1.0], [1.0, 0.0]],
        [[1.0, 2.0], [3.0, -1.0]],
    ], ids=["rotation", "real-pair"])
    def test_n2_fixtures_at_extreme_scales_match_lapack(self, entries, scale):
        # Without rescaling, the rotation's determinant underflows to 0 at
        # 1e-170 (a real double root) and overflows to nan at 1e160; the real
        # pair's eigenvalues overflow to inf.
        assert_matches_lapack(scale * np.asarray(entries, dtype=float)[None], 1e-12 * scale)

    def test_real_part_tie_orders_like_lapack(self):
        # +-i and 0 share the real part 0: the conjugate-pair rule puts +i
        # first and -i last, with the real eigenvalue between them.
        rotation = np.array([[[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]])
        values, is_real = assert_matches_lapack(rotation, 0.0)
        assert values[0].tolist() == [1j, 0.0, -1j]
        assert is_real[0].tolist() == [False, True, False]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_closed_forms_reject_non_finite_entries(n, bad):
    mats = sample_gee_entries(n, 0.3, np.random.default_rng(SEED), 5)
    mats[3, 1, 0] = bad
    with pytest.raises(EigensolverError):
        eigvals_batch(mats)


def certify_with_shift(mats, floor: float, shift: float, work) -> np.ndarray:
    """``certify_abscissa_below`` with its shift s set to ``shift`` in place
    of the ensemble's, so that the bound is tried at any s >= 0."""
    with mock.patch.object(gee, "_abscissa_shift", lambda tau: shift):
        return certify_abscissa_below(mats, floor, 0.0, work)


def screened_soundly(mats, floor: float, shift: float) -> np.ndarray:
    """``certify_abscissa_below`` at shift s on a stack, as one block, after
    checking that no matrix it certifies has a LAPACK abscissa >= floor."""
    batch, n, _ = mats.shape
    certified = certify_with_shift(mats, floor, shift, np.empty((2, batch, n, n)))
    abscissa = np.linalg.eigvals(mats).real.max(axis=1)
    assert not (certified & (abscissa >= floor)).any()
    return certified


def five_squaring_certificate(mats, floor: float, shift: float) -> np.ndarray:
    """The abscissa certificate as it was before it tested early depths: every
    matrix of each block of 7 squared five times, and the bound tested once,
    at k = 32, with the same scaling, error term and margin."""
    batch, n, _ = mats.shape
    certified = np.zeros(batch, dtype=bool)
    if not floor + shift > 0.0:
        return certified
    u = 2.0 ** -53
    gamma = n * u / (1.0 - n * u)
    target = math.log2(floor + shift) - 2.0 ** -30

    def frobenius(stack):
        flat = stack.reshape(len(stack), 1, -1)
        return np.sqrt(np.matmul(flat, flat.transpose(0, 2, 1))[:, 0, 0])

    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for start in range(0, batch, 7):
            f = mats[start : start + 7].copy()
            size = len(f)
            diag = f.reshape(size, n * n)[:, :: n + 1]
            diag += shift
            err = u * np.linalg.norm(diag, axis=1)
            exponent = np.zeros(size)
            for _ in range(5):
                norm = frobenius(f)
                power = np.frexp(norm)[1]
                scale = np.ldexp(1.0, -power)
                f *= scale[:, None, None]
                norm *= scale
                err *= scale
                exponent += power
                f = np.matmul(f, f)
                err = gamma * norm * norm + 2.0 * norm * err + err * err
                exponent *= 2.0
            norm = frobenius(f)
            certified[start : start + size] = (np.log2(norm + err) + exponent) / 32.0 < target
    return certified


def _orthogonal(n: int, seed: int) -> np.ndarray:
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _adversarial(name: str, x: float) -> np.ndarray:
    n = 10
    if name == "jordan":  # a scaled Jordan block: LAPACK spreads its eigenvalue by eps^(1/n)
        return 0.9 * x * (np.eye(n) + np.eye(n, k=1))
    if name == "triangular":  # eigenvalues on the diagonal, 1e8 above it
        diag = np.linspace(-0.5, 0.9 * x, n)
        return np.diag(diag) + np.triu(np.full((n, n), 1e8), k=1)
    if name == "just-below":  # a real eigenvalue at x (1 - 2^-40), rotated
        q = _orthogonal(n, SEED + 11)
        return q @ np.diag([x * (1.0 - 2.0 ** -40)] + [0.1] * (n - 1)) @ q.T
    raise ValueError(name)


class TestAbscissaCertificate:
    """The screen may only rule out matrices whose eigenvalues all have real
    part below the floor, as LAPACK computes them."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.sampled_from([4, 10, 40]), tau=st.sampled_from([-0.5, 0.0, 0.3, 0.9]),
           seed=st.integers(0, 2**32), quantile=st.floats(0.0, 1.0),
           nudge=st.sampled_from([0.0, -2.0 ** -40, 2.0 ** -40, 2.0 ** -30, 2.0 ** -20, 0.01]),
           shift=st.sampled_from([None, 0.0, 1.0]),
           scale=st.sampled_from([1.0, 1e-150, 1e150]))
    def test_ensemble_draws_never_screened_at_reachable_floor(self, n, tau, seed, quantile,
                                                               nudge, shift, scale):
        """Floors at and around the abscissae of the draws themselves, with
        the ensemble's shift or another, at ordinary and extreme scales."""
        mats = scale * sample_gee_entries(n, tau, np.random.default_rng(seed), 30)
        abscissa = np.linalg.eigvals(mats).real.max(axis=1)
        floor = float(np.quantile(abscissa, quantile)) * (1.0 + nudge)
        shift = gee._abscissa_shift(tau) * scale if shift is None else shift * scale
        screened_soundly(mats, floor, shift)

    @pytest.mark.parametrize("name", ["jordan", "triangular", "just-below"])
    @pytest.mark.parametrize("shift", [0.0, 0.3, 4.3])
    def test_adversarial_matrices_never_screened_at_reachable_floor(self, name, shift):
        x = 1.2
        mats = _adversarial(name, x)[None]
        abscissa = float(np.linalg.eigvals(mats).real.max())
        for floor in (x, *(abscissa * (1.0 + f) for f in (-2.0 ** -10, 0.0, 2.0 ** -40,
                                                          2.0 ** -30, 2.0 ** -10, 0.5))):
            screened_soundly(mats, floor, shift)

    def test_eigenvalue_within_margin_of_floor_is_eigensolved(self):
        """A real eigenvalue 2^-40 below the floor is closer than the
        certificate's 2^-30 margin, so that matrix is never ruled out."""
        mats = _adversarial("just-below", 1.2)[None]
        for shift in (0.0, 0.3, 4.3):
            assert not screened_soundly(mats, 1.2, shift).any()

    def test_far_floor_is_certified(self):
        # rho(0.5 I + 0.3 I) = 0.8, and the Frobenius bound adds at most 10^(1/16).
        mats = np.stack([0.5 * np.eye(10), np.diag(np.linspace(-1.0, 0.5, 10))])
        assert screened_soundly(mats, 1.0, 0.3).all()

    @pytest.mark.parametrize("n", [4, 10, 40])
    @pytest.mark.parametrize("tau", [-0.5, 0.0, 0.3, 0.9])
    def test_certifies_all_the_five_squaring_certificate_did(self, n, tau):
        """Testing the bound from squaring 3 on, and a sixth squaring for the
        survivors, only adds certified matrices to those that five squarings
        certified, at floors at and around the draws' abscissae."""
        mats = sample_gee_entries(n, tau, np.random.default_rng(SEED + n), 30)
        abscissa = np.linalg.eigvals(mats).real.max(axis=1)
        shift = gee._abscissa_shift(tau)
        before = after = 0
        for quantile in (0.0, 0.5, 0.9, 1.0):
            for nudge in (0.0, 2.0 ** -30, 0.01, 0.05, 0.2):
                floor = float(np.quantile(abscissa, quantile)) * (1.0 + nudge)
                reference = five_squaring_certificate(mats, floor, shift)
                certified = screened_soundly(mats, floor, shift)
                assert not (reference & ~certified).any()
                before, after = before + int(reference.sum()), after + int(certified.sum())
        assert 0 < before <= after

    def test_mask_keeps_stack_order_as_matrices_leave(self, monkeypatch):
        """One block whose matrices first certify after squarings 3, 4, 5 and
        6, between matrices that never do and one with a NaN entry.
        (c Q D Q^T)^k, with D a diagonal of signs, has Frobenius norm
        c^k sqrt(16), so at floor 1 and shift 0 the bound after squaring j,
        c 16^(2^-j-1), clears 1 from the squaring set by c."""
        first = {0.5: 3, 0.88: 4, 0.94: 5, 0.97: 6, 0.99: None, 1.5: None}
        order = [0.99, 0.97, 0.5, 0.94, 1.5, 0.88, 0.5, 0.97, 0.99, 0.94, 0.88]
        q = _orthogonal(16, SEED)
        signs = np.where(np.arange(16) % 3, 1.0, -1.0)
        mats = np.stack([c * (q * signs) @ q.T for c in order] + [0.5 * np.eye(16)])
        mats[-1, 3, 5] = math.nan
        work = np.empty((2, len(mats), 16, 16))
        for depth in range(3, 7):
            monkeypatch.setattr(gee, "_SQUARINGS", depth)
            got = certify_with_shift(mats, 1.0, 0.0, work)
            want = [first[c] is not None and first[c] <= depth for c in order] + [False]
            assert got.tolist() == want

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_never_certified(self, bad):
        mats = 0.1 * np.stack([np.eye(6)] * 3)
        mats[1, 2, 4] = bad
        work = np.empty((2, 3, 6, 6))
        assert certify_abscissa_below(mats, 1.0, 0.0, work).tolist() == [True, False, True]

    def test_stack_larger_than_work_rejected(self):
        mats = 0.1 * np.stack([np.eye(6)] * 3)
        with pytest.raises(DomainError, match="one block of at most 2 matrices, got 3"):
            certify_abscissa_below(mats, 1.0, 0.0, np.empty((2, 2, 6, 6)))


class TestRankedEigenvalue:
    def test_real_entry(self):
        values, is_real = spectrum_of(np.diag([3.0, 1.0, 2.0]))
        point = (values[1].real, values[1].imag, bool(is_real[1]))
        assert point == (2.0, 0.0, True)

    def test_complex_entry(self):
        values, is_real = spectrum_of([[0.0, -1.0], [1.0, 0.0]])
        point = (values[0].real, values[0].imag, bool(is_real[0]))
        assert point == (0.0, 1.0, False)

    def test_realness_frequency_consistency(self):
        # P(rank-1 eigenvalue real) at n=2 equals P(k_real = 2).
        trials = 100_000
        mats = sample_gee_entries(2, 0.0, np.random.default_rng(SEED + 5), trials)
        _, is_real = eigvals_batch(mats)
        freq = is_real[:, 0].mean()
        target = 1.0 / math.sqrt(2.0)
        se = math.sqrt(target * (1 - target) / trials)
        assert abs(freq - target) < 3.0 * se


class TestCountUnstable:
    def test_shift_oracle(self):
        # Counting Re >= t on the ordered spectrum (as the dimension-lift left
        # side does across shifts) agrees with a fresh eigensolve of X - tI.
        rng = np.random.default_rng(SEED + 6)
        for _ in range(1000):
            entries = sample_gee_entries(5, 0.25, rng, 1)[0]
            t = rng.normal(scale=0.8)
            values, _ = spectrum_of(entries)
            direct = int((np.linalg.eigvals(entries - t * np.eye(5)).real >= 0).sum())
            assert int((values.real >= t).sum()) == direct


class TestLogEigenvalueDensity:
    def test_n1_hand_value(self):
        assert log_eigenvalue_density([0.0], [], [], 1, 0.0) == pytest.approx(
            -0.5 * math.log(2.0 * math.pi), abs=1e-13
        )

    def test_permutation_symmetry(self):
        base = log_eigenvalue_density([0.5, -0.2, 1.1], [0.3], [0.7], 5, 0.2)
        permuted = log_eigenvalue_density([1.1, 0.5, -0.2], [0.3], [0.7], 5, 0.2)
        assert base == pytest.approx(permuted, rel=1e-14)

    def test_coincident_points_log_zero(self):
        assert log_eigenvalue_density([0.4, 0.4], [], [], 2, 0.0) == -math.inf

    def test_validation(self):
        with pytest.raises(DomainError):
            log_eigenvalue_density([0.1], [0.2], [0.3], 2, 0.0)  # 1 + 2 != 2
        with pytest.raises(DomainError):
            log_eigenvalue_density([], [0.2], [-0.3], 2, 0.0)  # y < 0
        with pytest.raises(DomainError):
            log_eigenvalue_density([0.1, 0.2], [], [], 2, 1.0)  # tau = 1 rejected

    def test_sector_masses_n2(self):
        # Quadrature of the density over each sector matches the exact masses.
        real_mass, _ = integrate.dblquad(
            lambda s2, s1: math.exp(log_eigenvalue_density([s1, s2], [], [], 2, 0.0)),
            -8, 8, lambda s1: -8, lambda s1: s1, epsabs=1e-10,
        )
        assert real_mass == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)
        complex_mass, _ = integrate.dblquad(
            lambda y, x: math.exp(log_eigenvalue_density([], [x], [y], 2, 0.0)),
            -8, 8, 0, 6, epsabs=1e-10,
        )
        assert complex_mass == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), abs=1e-6)
        assert real_mass + complex_mass == pytest.approx(1.0, abs=1e-6)

    def test_sector_mass_nonzero_tau(self):
        # Masses still sum to one at tau != 0 (erfc weight and pairing factor).
        tau = 0.35
        real_mass, _ = integrate.dblquad(
            lambda s2, s1: math.exp(log_eigenvalue_density([s1, s2], [], [], 2, tau)),
            -9, 9, lambda s1: -9, lambda s1: s1, epsabs=1e-10,
        )
        complex_mass, _ = integrate.dblquad(
            lambda y, x: math.exp(log_eigenvalue_density([], [x], [y], 2, tau)),
            -9, 9, 0, 6, epsabs=1e-10,
        )
        assert real_mass + complex_mass == pytest.approx(1.0, abs=1e-6)


class TestProbKReal:
    def test_n1_certain(self):
        out = prob_k_real(1, 0.3, 1000, SEED)
        assert out[1].mean == 1.0
        assert out[0].mean == 0.0

    def test_counts_partition_trials(self):
        trials = 20_000
        out = prob_k_real(4, 0.2, trials, SEED + 7)
        counts = [round(e.mean * trials) for e in out]
        assert sum(counts) == trials
        assert counts[1] == 0 and counts[3] == 0  # parity-impossible k

    @pytest.mark.parametrize("n", [3, 5])
    def test_counts_match_inline_loop(self, n):
        # The batch driver draws batch j from substream(seed, j), as a plain
        # loop does; at n = 5 it runs the batches on its thread pool.
        trials, seed = 2 * 4096 + 17, SEED + n
        counts = np.zeros(n + 1, dtype=np.int64)
        for index, take in batch_sizes(trials, 4096):
            _, is_real = eigvals_batch(sample_gee_entries(n, 0.3, substream(seed, index), take))
            counts += np.bincount(is_real.sum(axis=1), minlength=n + 1)
        out = prob_k_real(n, 0.3, trials, seed)
        assert [e.mean for e in out] == (counts / trials).tolist()

    def test_n2_real_sector_frequency(self):
        trials = 100_000
        out = prob_k_real(2, 0.0, trials, SEED + 8)
        target = 1.0 / math.sqrt(2.0)
        assert abs(out[2].mean - target) < 3.0 * out[2].stderr
