"""Dual-domain feature math on range-angle-Doppler magnitude tensors.

A RadTensor here is a plain nonnegative float array of shape (R, A, D) with
axes (range, angle, doppler). The spatial map averages it over Doppler; the
per-cell spectra keep the Doppler axis intact. Also houses the RA/RD to
RAD reconstruction used for datasets that only release 2-D maps and
per-frame max normalization.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ShapeError


def spatial_magnitude(h):
    """(R, A) map: mean of the magnitudes along the Doppler axis."""
    return h.mean(axis=2)


def cell_spectra(h):
    """All Doppler spectra as an (R*A, D) matrix, cells in row-major order."""
    r, a, d = h.shape
    return h.reshape(r * a, d)


def reconstruct_rad(ra, rd, eps=1e-8):
    """Distribute a per-range Doppler profile over angles using RA weights.

    weights[r, a] = RA[r, a] / (sum_a' RA[r, a'] + eps)
    H[r, a, d]    = weights[r, a] * RD[r, d]

    Marginalizing H over angle recovers RD up to the eps dilution, so rows
    with RA mass well above eps preserve the released Doppler distribution.
    RD values are used as given (normalized or not).
    """
    if eps <= 0:
        raise DomainError(f"eps must be positive, got {eps}")
    ra = np.asarray(ra, dtype=np.float64)
    rd = np.asarray(rd, dtype=np.float64)
    if ra.ndim != 2 or rd.ndim != 2 or ra.shape[0] != rd.shape[0]:
        raise ShapeError(f"incompatible RA {ra.shape} / RD {rd.shape}")
    weights = ra / (ra.sum(axis=1, keepdims=True) + eps)
    return weights[:, :, None] * rd[:, None, :]


def normalize_frame(h):
    """Divide by the frame's max magnitude; zero frames pass through.

    Uses only the frame's own statistics, so scaling a frame by any positive
    constant yields the same output and the op is idempotent on nonzero
    frames. The one check a frame gets before the model sees it: an (R, A, D)
    shape and finite, nonnegative entries; the functions above trust it.
    A dataset holds frames in float32, as stored. The check and the max
    read the frame as given, and the division casts it to float64, an exact
    conversion, so a float32 frame and its float64 conversion normalize to
    the same bits. The forward then casts the result to its parameters'
    dtype: a no-op for training, a rounding to float32 for eval and diag.
    """
    h = np.asarray(h)
    if h.ndim != 3:
        raise ShapeError(f"expected an (R, A, D) tensor, got shape {h.shape}")
    if not np.isfinite(h).all() or (h < 0).any():
        raise DomainError("RAD tensor entries must be finite and nonnegative")
    peak = h.max()
    if peak == 0:
        return h.astype(np.float64)
    return np.divide(h, peak, dtype=np.float64)

