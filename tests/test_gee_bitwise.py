"""Bitwise guards for the n <= 3 closed-form spectra.

``reference_eigvals`` below is the earlier closed-form path, kept verbatim:
an n = 2 branch with boolean-mask scatters, the n = 3 cubic on strided
entry views, and a stable complex argsort. ``eigvals_batch`` must reproduce
its values and realness bit for bit (uint64 views, so signed zeros count)
wherever the reference is right. At n = 2 that is the ordinary range of
scales: the reference does not rescale, so its determinant underflows near
1e-170 and overflows near 1e160.
"""

import math
import warnings

import numpy as np
import pytest

from equicount.gee import eigvals_batch, sample_gee_entries
from equicount.sampling import substream

SEED = 4409


# --- reference: the earlier closed forms, verbatim ---------------------------

def _order_key(values: np.ndarray) -> np.ndarray:
    # Complex sort is lexicographic (real, then imaginary); negating both parts
    # yields decreasing real part with +im before -im inside a conjugate pair.
    return -values


_TRIG_PHASES = np.array([0.0, 2.0, 4.0]) * (math.pi / 3.0)


def _depressed_cubic(mats: np.ndarray,
                     scale: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """tr(A) / scale and the coefficients p, q of the depressed characteristic
    polynomial s^3 + p s + q of C = 3A/scale - (tr(A)/scale) I (see
    ``_cubic_spectra``); the nine entries of C are batch vectors that die here."""
    tr = (mats[:, 0, 0] + mats[:, 1, 1] + mats[:, 2, 2]) / scale
    three = 3.0 / scale
    (c00, c01, c02), (c10, c11, c12), (c20, c21, c22) = (
        [mats[:, i, j] * three for j in range(3)] for i in range(3))
    c00 -= tr
    c11 -= tr
    c22 -= tr
    minor0 = c11 * c22 - c12 * c21
    p = minor0 + (c00 * c22 - c02 * c20) + (c00 * c11 - c01 * c10)
    q = c01 * (c10 * c22 - c12 * c20) - c00 * minor0 - c02 * (c10 * c21 - c11 * c20)
    return tr, p, q


def _real_roots(s: np.ndarray, p: np.ndarray, q: np.ndarray, three_real: np.ndarray,
                one_real: np.ndarray) -> np.ndarray:
    """Write the real roots of s^3 + p s + q into the zeroed (batch, 3) array
    s, and return each one's distance to the nearest other root (0 where s
    holds no root, which blocks the Newton step there).

    Where ``three_real`` the descending roots come from the trigonometric
    form; elsewhere column 0 gets the real root from Cardano's form, whose
    distance to the conjugate pair is sqrt(3 root^2 + p).
    """
    gap = np.zeros(s.shape)
    pr, qr = p[three_real], q[three_real]
    # p <= 0 whenever the discriminant is >= 0, up to underflow.
    rad = np.sqrt(np.maximum(-pr, 0.0) / 3.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos3 = np.clip(-qr / (2.0 * rad * rad * rad), -1.0, 1.0)
    theta = np.arccos(np.where(rad > 0.0, cos3, 1.0)) / 3.0
    roots = 2.0 * rad[:, None] * np.cos(theta[:, None] - _TRIG_PHASES)  # descending
    s[three_real] = roots
    gap_hi = roots[:, 0] - roots[:, 1]
    gap_lo = roots[:, 1] - roots[:, 2]
    gap[three_real] = np.stack([gap_hi, np.minimum(gap_hi, gap_lo), gap_lo], axis=1)

    pc, qc = p[one_real], q[one_real]
    u = -np.cbrt(0.5 * qc + np.copysign(np.sqrt(0.25 * qc * qc + pc * pc * pc / 27.0), qc))
    root = u - pc / (3.0 * u)
    s[one_real, 0] = root
    gap[one_real, 0] = np.sqrt(3.0 * root * root + pc)
    return gap


def _newton_polish(s: np.ndarray, gap: np.ndarray, p: np.ndarray, q: np.ndarray) -> None:
    """One Newton step on s^3 + p s + q for each root in the (batch, 3) array
    s, in place, taken only where shorter than half of ``gap`` (overwritten)."""
    step = s * s
    step += p[:, None]
    step *= s
    step += q[:, None]
    slope = 3.0 * s
    slope *= s
    slope += p[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        step /= slope
    gap *= 0.5
    np.subtract(s, step, out=s, where=np.less(np.abs(step, out=slope), gap))


def _cubic_spectra(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unordered eigenvalues and realness of a (batch, 3, 3) stack."""
    batch = mats.shape[0]
    peak = np.abs(mats[:, 0, 0])
    for entry in mats.reshape(batch, 9).T[1:]:
        np.maximum(peak, np.abs(entry), out=peak)
    scale = np.ldexp(1.0, np.frexp(peak)[1] - 1)
    tr, p, q = _depressed_cubic(mats, scale)
    three_real = -4.0 * p * p * p - 27.0 * q * q >= 0.0
    one_real = ~three_real

    values = np.zeros((batch, 3), dtype=complex)
    s = values.real  # the real roots s, worked on in place
    _newton_polish(s, _real_roots(s, p, q, three_real, one_real), p, q)
    root = s[one_real, 0]
    pair_re = (tr[one_real] - 0.5 * root) / 3.0
    pair_im = np.sqrt(np.maximum(3.0 * root * root + 4.0 * p[one_real], 0.0)) / 6.0
    s += tr[:, None]
    s /= 3.0
    values[one_real, 1] = pair_re + 1j * pair_im
    values[one_real, 2] = pair_re - 1j * pair_im
    values *= scale[:, None]
    is_real = np.repeat(three_real[:, None], 3, axis=1)
    is_real[:, 0] = True
    return values, is_real


def reference_eigvals(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The n = 2 and n = 3 branches of the earlier ``eigvals_batch``."""
    batch, n, _ = mats.shape
    if n == 2:
        tr = mats[:, 0, 0] + mats[:, 1, 1]
        det = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
        disc = tr * tr - 4.0 * det
        real_pair = disc >= 0.0
        root = np.sqrt(np.abs(disc))
        values = np.empty((batch, 2), dtype=complex)
        values[real_pair, 0] = 0.5 * (tr[real_pair] + root[real_pair])
        values[real_pair, 1] = 0.5 * (tr[real_pair] - root[real_pair])
        values[~real_pair, 0] = 0.5 * (tr[~real_pair] + 1j * root[~real_pair])
        values[~real_pair, 1] = 0.5 * (tr[~real_pair] - 1j * root[~real_pair])
        is_real = np.repeat(real_pair[:, None], 2, axis=1)
        return values, is_real
    values, is_real = _cubic_spectra(mats)
    order = np.argsort(_order_key(values), axis=1, kind="stable")
    values = np.take_along_axis(values, order, axis=1)
    is_real = np.take_along_axis(is_real, order, axis=1)
    return values, is_real


# --- guards -------------------------------------------------------------------

def assert_matches_reference_bitwise(mats: np.ndarray) -> None:
    values, is_real = eigvals_batch(mats)
    want_values, want_real = reference_eigvals(mats)
    assert values.shape == want_values.shape and values.dtype == want_values.dtype
    assert np.array_equal(values.view(np.uint64), want_values.view(np.uint64))
    assert np.array_equal(is_real, want_real)


@pytest.mark.parametrize("tau", [-0.5, 0.0, 0.3, 0.9, 1.0])
@pytest.mark.parametrize("n", [2, 3])
def test_seeded_batches_match_reference_bitwise(n, tau):
    # 20 batches of 4096 per (n, tau), from the substreams the estimators use.
    for index in range(20):
        assert_matches_reference_bitwise(sample_gee_entries(n, tau, substream(SEED, index), 4096))


def _with_negative_zeros(mats: np.ndarray) -> np.ndarray:
    """The stack with every exact zero entry made -0.0."""
    return np.where(mats == 0.0, -0.0, mats)


FIXTURES = {
    2: {
        "zero": np.zeros((2, 2)),
        "identity": np.eye(2),
        "rotation": [[0.0, -1.0], [1.0, 0.0]],
        "rotation-shifted": [[0.5, -1.0], [1.0, 0.5]],
        "rotation-reversed": [[0.0, 1.0], [-1.0, 0.0]],
        "nilpotent": [[0.0, 1.0], [0.0, 0.0]],
        "jordan-2": [[2.0, 1.0], [0.0, 2.0]],
        "tie-free": [[1.0, 2.0], [3.0, -1.0]],
        "diag-0.1-0.1": np.diag([0.1, 0.1]),
        "negative-trace-pair": [[-0.25, -1.0], [2.0, -0.25]],
    },
    3: {
        "zero": np.zeros((3, 3)),
        "identity": np.eye(3),
        "diag-1-1-2": np.diag([1.0, 1.0, 2.0]),
        "diag-0.1-0.1-0.7": np.diag([0.1, 0.1, 0.7]),
        "triangular-1-1-5": [[1.0, 2.0, 3.0], [0.0, 1.0, 4.0], [0.0, 0.0, 5.0]],
        "jordan-2": [[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]],
        "rotation-tie": [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        "rotation-below": [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -2.0]],
        "rotation-above": [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]],
        "cyclic": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
        "nilpotent": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
    },
}


@pytest.mark.parametrize("negative_zeros", [False, True], ids=["+0", "-0"])
@pytest.mark.parametrize("n, name", [(n, name) for n in FIXTURES for name in FIXTURES[n]])
def test_fixtures_match_reference_bitwise(n, name, negative_zeros):
    mats = np.asarray(FIXTURES[n][name], dtype=float)[None]
    for sign in (1.0, -1.0):
        stack = sign * mats
        if negative_zeros:
            stack = _with_negative_zeros(stack)
        assert_matches_reference_bitwise(stack)


def test_fixture_stack_with_zeros_matches_reference_bitwise():
    # Gaussian stacks with entries zeroed at random, at both signs of zero.
    rng = np.random.default_rng(SEED)
    for n in (2, 3):
        mats = sample_gee_entries(n, 0.3, rng, 4096)
        mats[rng.random(mats.shape) < 0.4] = 0.0
        assert_matches_reference_bitwise(mats)
        assert_matches_reference_bitwise(_with_negative_zeros(mats))
        # Small integers make exactly repeated eigenvalues and exact ties.
        assert_matches_reference_bitwise(np.round(4.0 * mats))


@pytest.mark.parametrize("scale", [1e-300, 1e-60, 1e60, 1e300])
def test_extreme_scales_match_reference_bitwise_n3(scale):
    # The reference already rescales at n = 3, so it is right at every scale.
    mats = sample_gee_entries(3, 0.3, np.random.default_rng(SEED + 1), 4096)
    assert_matches_reference_bitwise(scale * mats)
    for entries in FIXTURES[3].values():
        assert_matches_reference_bitwise(scale * np.asarray(entries, dtype=float)[None])


@pytest.mark.parametrize("scale", [1e-320, 1e-300, 1e-170, 1e-60, 1.0, 1e60, 1e160, 1e300])
@pytest.mark.parametrize("n", [2, 3])
def test_no_runtime_warning_escapes(n, scale):
    stack = [sample_gee_entries(n, tau, np.random.default_rng(SEED + 2), 512)
             for tau in (-0.5, 0.0, 1.0)]
    stack += [np.asarray(entries, dtype=float)[None] for entries in FIXTURES[n].values()]
    mats = scale * np.concatenate(stack)
    assert np.isfinite(mats).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values, _ = eigvals_batch(mats)
    assert np.isfinite(values).all()
