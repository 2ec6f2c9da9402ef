"""Objective image-quality metrics for sharpening output.

The paper evaluates performance only; a usable sharpening library also
needs to quantify *what the filter did to the image*.  This module provides
the standard metrics (dependency-free):

* :func:`psnr` / :func:`mse` — fidelity against a reference;
* :func:`ssim` — global structural similarity (Wang et al., single-window
  simplification over local 8x8 statistics);
* :func:`edge_energy` / :func:`edge_gain` — total Sobel response, the
  quantity sharpening is supposed to increase;
* :func:`overshoot_fraction` — pixels pushed beyond the local min/max of
  the original, i.e. halo/ringing pressure (what Fig. 8's overshoot
  control suppresses);
* :func:`sharpness_report` — one dict with everything, used by the
  examples and tests.
"""

from __future__ import annotations

import numpy as np

from ..algo.stages import minmax3x3, sobel
from ..errors import ValidationError

#: Dynamic range of the 8-bit pixel domain.
DATA_RANGE = 255.0


def _pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValidationError(
            f"image shape mismatch: {a.shape} vs {b.shape}"
        )
    if a.ndim != 2:
        raise ValidationError(f"expected 2-D planes, got ndim={a.ndim}")
    return a, b


def mse(reference: np.ndarray, image: np.ndarray) -> float:
    """Mean squared error."""
    a, b = _pair(reference, image)
    return float(np.mean((a - b) ** 2))


def psnr(reference: np.ndarray, image: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB (inf for identical images)."""
    err = mse(reference, image)
    if err == 0.0:
        return float("inf")
    return float(10.0 * np.log10(DATA_RANGE**2 / err))


def _block_stats(plane: np.ndarray, block: int):
    h, w = plane.shape
    hb, wb = h // block, w // block
    blocks = plane[: hb * block, : wb * block].reshape(
        hb, block, wb, block
    )
    mean = blocks.mean(axis=(1, 3))
    var = blocks.var(axis=(1, 3))
    return blocks, mean, var


def ssim(reference: np.ndarray, image: np.ndarray, *,
         block: int = 8) -> float:
    """Mean structural similarity over non-overlapping ``block`` windows.

    A windowed simplification of Wang et al.'s SSIM (uniform windows
    instead of a Gaussian); returns a value in [-1, 1], 1 for identical
    images.
    """
    a, b = _pair(reference, image)
    if min(a.shape) < block:
        raise ValidationError(
            f"images smaller than the {block}x{block} SSIM window"
        )
    blocks_a, mu_a, var_a = _block_stats(a, block)
    blocks_b, mu_b, var_b = _block_stats(b, block)
    cov = (blocks_a * blocks_b).mean(axis=(1, 3)) - mu_a * mu_b

    c1 = (0.01 * DATA_RANGE) ** 2
    c2 = (0.03 * DATA_RANGE) ** 2
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


def edge_energy(plane: np.ndarray) -> float:
    """Total Sobel response (the paper's pEdge matrix, summed)."""
    return float(sobel(np.asarray(plane, dtype=np.float64)).sum())


def edge_gain(original: np.ndarray, sharpened: np.ndarray) -> float:
    """Edge-energy ratio sharpened/original (> 1 means sharper)."""
    base = edge_energy(original)
    if base == 0.0:
        return 1.0 if edge_energy(sharpened) == 0.0 else float("inf")
    return edge_energy(sharpened) / base


def overshoot_fraction(original: np.ndarray,
                       sharpened: np.ndarray) -> float:
    """Fraction of body pixels outside the 3x3 local range of the original.

    This is exactly the condition Fig. 8's overshoot control tests; with
    ``overshoot=0`` the sharpened output has (numerically) none.
    """
    a, b = _pair(original, sharpened)
    mn, mx = minmax3x3(a)
    body = b[1:-1, 1:-1]
    eps = 1e-9
    outside = (body > mx + eps) | (body < mn - eps)
    return float(outside.mean())


def sharpness_report(original: np.ndarray,
                     sharpened: np.ndarray) -> dict[str, float]:
    """All metrics in one dict (keys: psnr, ssim, edge_gain,
    overshoot_fraction, rms_change)."""
    a, b = _pair(original, sharpened)
    return {
        "psnr": psnr(a, b),
        "ssim": ssim(a, b),
        "edge_gain": edge_gain(a, b),
        "overshoot_fraction": overshoot_fraction(a, b),
        "rms_change": float(np.sqrt(np.mean((a - b) ** 2))),
    }
