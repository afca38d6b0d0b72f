"""Spectral compression baseline: keep the k largest-magnitude frequency
coefficients of a depth image and reconstruct from those alone.

Conjugate-symmetric bins are grouped: one selection retains a bin and its
mirror partner together, so k complex selections correspond to 2k real
numbers and the reconstruction is real by construction.  Transforms are
delegated to numpy's FFT (mixed-radix, so 60x80 or 270x480 grids need no
special casing); the selection logic and the fairness bookkeeping live here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Checked, ShapeError, within


@dataclass(frozen=True)
class FftPlan(Checked, error=ShapeError, prefix="fft"):
    height: int = within(lo=1, integer=True)
    width: int = within(lo=1, integer=True)
    k: int = within(64, lo=1, integer=True)

    def __post_init__(self):
        super().__post_init__()
        if not self.k <= self.height * self.width:
            raise ShapeError(f"fft k must be <= height * width, got {self.k}")

    @property
    def real_value_budget(self) -> int:
        """k complex coefficients carry 2k real numbers (fair-comparison rule)."""
        return 2 * self.k


def fft2(grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(grid)
    if not np.all(np.isfinite(grid)):
        raise ShapeError("fft2: non-finite input")
    return np.fft.fft2(grid)


def ifft2(spectrum: np.ndarray) -> np.ndarray:
    spectrum = np.asarray(spectrum)
    if not np.all(np.isfinite(spectrum)):
        raise ShapeError("ifft2: non-finite input")
    return np.fft.ifft2(spectrum)


def _pair_partner(h, w):
    """Index of the conjugate-symmetric partner for every bin."""
    uu, vv = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    return ((h - uu) % h) * w + ((w - vv) % w)


def topk_coefficient_mask(spectrum: np.ndarray, k: int) -> np.ndarray:
    """Boolean keep-mask of the k largest-magnitude selections.

    A conjugate pair counts as one selection and both bins are kept;
    self-conjugate bins (DC, Nyquist lines) also cost one selection each.
    Ties break deterministically by flat bin index.
    """
    h, w = spectrum.shape
    flat = spectrum.ravel()
    partner = _pair_partner(h, w).ravel()
    idx = np.arange(h * w)
    reps = idx[idx <= partner]  # one canonical bin per pair
    mags = np.abs(flat[reps])
    order = np.lexsort((reps, -mags))
    chosen = reps[order[:k]]
    keep = np.zeros(h * w, dtype=bool)
    keep[chosen] = True
    keep[partner[chosen]] = True
    return keep.reshape(h, w)


def fft_topk_reconstruct(grid: np.ndarray, k: int, clamp_output: bool = True) -> np.ndarray:
    """Zero all but the k largest-magnitude selections and invert.

    The imaginary residue of the inverse transform is checked to be
    negligible (the kept set is conjugate-symmetric) before discarding it;
    the output is clamped to [0, 1] unless disabled.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 2:
        raise ShapeError(f"fft_topk_reconstruct wants a 2D grid, got {grid.shape}")
    FftPlan(grid.shape[0], grid.shape[1], k)  # validates k
    spectrum = fft2(grid)
    keep = topk_coefficient_mask(spectrum, k)
    recon = ifft2(np.where(keep, spectrum, 0.0))
    residue = float(np.abs(recon.imag).max()) if recon.size else 0.0
    if residue > 1e-6:
        raise ShapeError(f"reconstruction has imaginary residue {residue}")
    out = recon.real
    if clamp_output:
        out = np.clip(out, 0.0, 1.0)
    return out
