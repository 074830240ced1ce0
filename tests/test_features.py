import numpy as np
import pytest

from pulse.errors import DomainError, ShapeError
from pulse.features import (cell_spectra, normalize_frame, reconstruct_rad,
                            spatial_magnitude)


def rand_rad(seed, r=4, a=5, d=6):
    rng = np.random.default_rng(seed)
    return rng.random((r, a, d))


# ---------------------------------------------------------------------------
# spatial_magnitude

def test_spatial_magnitude_ones():
    np.testing.assert_array_equal(spatial_magnitude(np.ones((3, 4, 5))),
                                  np.ones((3, 4)))


def test_spatial_magnitude_zero():
    np.testing.assert_array_equal(spatial_magnitude(np.zeros((3, 4, 5))),
                                  np.zeros((3, 4)))


def test_spatial_magnitude_single_cell_mean():
    h = np.zeros((3, 4, 5))
    h[1, 2, 0] = 5.0  # mean over D=5 gives 1
    s = spatial_magnitude(h)
    assert s[1, 2] == 1.0
    s[1, 2] = 0.0
    assert np.all(s == 0.0)


def test_spatial_magnitude_commutes_with_scaling():
    h = rand_rad(0)
    np.testing.assert_allclose(spatial_magnitude(3.5 * h),
                               3.5 * spatial_magnitude(h), atol=1e-12)


def test_cell_spectra_row_major_and_count():
    h = rand_rad(2, r=3, a=4, d=5)
    m = cell_spectra(h)
    assert m.shape == (12, 5)
    np.testing.assert_array_equal(m[1 * 4 + 2], h[1, 2, :])


# ---------------------------------------------------------------------------
# reconstruct_rad

def test_reconstruct_zero_ra_row_near_zero_output():
    ra = np.array([[0.0, 0.0], [1.0, 1.0]])
    rd = np.array([[4.0, 2.0], [4.0, 2.0]])
    h = reconstruct_rad(ra, rd, eps=1e-8)
    assert np.all(h[0] == 0.0)


def test_reconstruct_hand_weights():
    ra = np.array([[1.0, 3.0]])
    rd = np.array([[0.0, 8.0, 0.0]])
    h = reconstruct_rad(ra, rd, eps=1e-12)
    np.testing.assert_allclose(h[0, :, 1], [2.0, 6.0], atol=1e-9)


def test_reconstruct_marginalization_bound():
    rng = np.random.default_rng(3)
    eps = 1e-8
    for _ in range(100):
        ra = rng.uniform(0.1, 2.0, size=(6, 7))   # row mass >= 0.7 >> 1e3*eps
        rd = rng.uniform(0.0, 5.0, size=(6, 4))
        h = reconstruct_rad(ra, rd, eps=eps)
        marg = h.sum(axis=1)
        assert np.max(np.abs(marg - rd)) <= 1e-6 * rd.max()


def test_reconstruct_eps_positive_required():
    with pytest.raises(DomainError):
        reconstruct_rad(np.ones((2, 2)), np.ones((2, 2)), eps=0.0)


# ---------------------------------------------------------------------------
# normalize_frame

def test_normalize_zero_frame_unchanged():
    z = np.zeros((2, 3, 4))
    np.testing.assert_array_equal(normalize_frame(z), z)


def test_normalize_scale_invariance():
    h = rand_rad(4)
    np.testing.assert_allclose(normalize_frame(10.0 * h), normalize_frame(h),
                               atol=1e-12)


def test_normalize_max_is_one():
    h = rand_rad(5) * 4.0
    out = normalize_frame(h)
    assert out.max() == 1.0


def test_normalize_idempotent_on_nonzero():
    h = rand_rad(6)
    once = normalize_frame(h)
    np.testing.assert_array_equal(normalize_frame(once), once)


def test_normalize_float32_frame_is_bitwise_its_float64_conversion():
    h = (rand_rad(7) * 1e3).astype(np.float32)
    out = normalize_frame(h)
    assert out.dtype == np.float64
    assert out.tobytes() == normalize_frame(h.astype(np.float64)).tobytes()


def test_negative_entries_rejected():
    h = np.ones((2, 2, 2))
    h[0, 0, 0] = -1.0
    with pytest.raises(DomainError):
        normalize_frame(h)


def test_normalize_rejects_non_finite_and_non_3d():
    for bad in (np.nan, np.inf):
        h = np.ones((2, 2, 2))
        h[1, 0, 1] = bad
        with pytest.raises(DomainError):
            normalize_frame(h)
    with pytest.raises(ShapeError):
        normalize_frame(np.ones((2, 2)))
