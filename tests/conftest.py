"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.types import Image, SharpnessParams
from repro.util import images as imgs


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def params():
    return SharpnessParams()


def _plane_set(size: int) -> dict[str, np.ndarray]:
    return {
        "natural": imgs.natural_like(size, size, seed=7),
        "checker": imgs.checkerboard(size, size, cell=4),
        "gradient": imgs.gradient(size, size),
        "noise": imgs.noise(size, size, seed=3),
        "constant": np.full((size, size), 128.0),
    }


@pytest.fixture(scope="session")
def small_planes():
    """32x32 planes covering distinct statistics (for scalar-loop checks)."""
    return _plane_set(32)


@pytest.fixture(scope="session")
def medium_planes():
    """64x64 planes (for emulator and pipeline-level checks)."""
    return _plane_set(64)


@pytest.fixture(scope="session")
def small_image(small_planes):
    return Image.from_array(small_planes["natural"])


@pytest.fixture(scope="session")
def medium_image(medium_planes):
    return Image.from_array(medium_planes["natural"])


def assert_allclose(a, b, *, atol=1e-9, context=""):
    __tracebackhide__ = True
    a = np.asarray(a)
    b = np.asarray(b)
    assert a.shape == b.shape, (
        f"{context}: shape mismatch {a.shape} vs {b.shape}"
    )
    err = float(np.max(np.abs(a - b))) if a.size else 0.0
    assert err <= atol, f"{context}: max abs diff {err} > {atol}"


#: Names of the 8-bit frames :func:`u8_frame` builds: the extremes of the
#: integer stages' ranges plus a random frame.
U8_FRAMES = ("zeros", "full", "checker", "hstripes", "vstripes", "hot",
             "random")

#: A ragged frame for the row-range forms: its 34 interior rows split into
#: strips of :data:`U8_STRIP` rows, the last one 4 rows tall.
U8_SHAPE = (36, 40)
U8_STRIP = 5


def u8_frame(name: str) -> np.ndarray:
    """An 8-bit :data:`U8_SHAPE` frame: all 0, all 255, a 0/255
    checkerboard, 0/255 stripes two pixels wide (rows or columns), one hot
    pixel, or uniform random values."""
    shape = h, w = U8_SHAPE
    yy, xx = np.indices(shape)
    if name == "zeros":
        return np.zeros(shape, dtype=np.uint8)
    if name == "full":
        return np.full(shape, 255, dtype=np.uint8)
    if name == "checker":
        return (((yy + xx) % 2) * 255).astype(np.uint8)
    if name == "hstripes":
        return ((yy // 2 % 2) * 255).astype(np.uint8)
    if name == "vstripes":
        return ((xx // 2 % 2) * 255).astype(np.uint8)
    if name == "hot":
        frame = np.zeros(shape, dtype=np.uint8)
        frame[h // 2, w // 3] = 255
        return frame
    if name == "random":
        return np.random.default_rng(5).integers(0, 256, shape,
                                                 dtype=np.uint8)
    raise ValueError(name)


def u8_row_ranges(h: int) -> list[tuple[int, int]]:
    """Row ranges for the row-range forms: the interior rows ``[1, h - 1)``
    in strips of :data:`U8_STRIP` rows (the last one ragged), then single
    rows at the top, middle and bottom."""
    strips = [(r0, min(r0 + U8_STRIP, h - 1))
              for r0 in range(1, h - 1, U8_STRIP)]
    assert strips[-1][1] - strips[-1][0] < U8_STRIP  # ragged
    return strips + [(1, 2), (h // 2, h // 2 + 1), (h - 2, h - 1)]


def dirty(shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """Scratch the way a recycled workspace hands it out: full of NaN."""
    return np.full(shape, np.nan, dtype=dtype)


def assert_bytes_equal(a, b, *, context=""):
    """``a`` and ``b`` have the same dtype, shape and bytes."""
    __tracebackhide__ = True
    a = np.asarray(a)
    b = np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape), context
    assert a.tobytes() == b.tobytes(), f"{context}: bytes differ"
