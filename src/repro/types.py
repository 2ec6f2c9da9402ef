"""Core value types shared across the library.

The paper operates on the *brightness plane* of an image: a 2-D matrix of
8-bit pixels.  Stages that read only the original (downscale, Sobel, the
3x3 min/max) work on those 8-bit values in exact integers; the rest of the
arithmetic is floating point.  :class:`Image` wraps such a plane with the
validation rules the sharpness pipeline requires (sides divisible by 4,
minimum size),
:class:`SharpnessParams` carries the user-defined tuning parameters the paper
mentions (sharpening gain/gamma for the brightness-strength step and the
overshoot-control tuning factor), and :class:`FrameResult` is what every
pipeline returns for one sharpened frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ValidationError

if TYPE_CHECKING:
    from .core.config import OptimizationFlags
    from .simgpu.profiling import Timeline

#: dtype of every floating-point plane (the downscaled, upscaled, pEdge,
#: strength, preliminary and final planes, and every non-8-bit input).  The
#: paper's OpenCL kernels compute in ``float``; float64 here keeps the CPU
#: golden reference and the simulated kernels bit-identical without juggling
#: ULPs.  An 8-bit input stays 8-bit: the stages that read only the original
#: compute on it in integers whose float64 cast has the same bits.
FLOAT = np.float64

#: dtype of input/output pixel planes.
PIXEL = np.uint8

#: Downscale factor fixed by the algorithm (4x4 block mean).
SCALE = 4

#: Minimum side length: the upscale border logic needs at least 4 downscaled
#: samples per side, i.e. a 16-pixel original side.
MIN_SIDE = 16


def validate_plane(array: np.ndarray) -> np.ndarray:
    """Validate an input brightness plane and return it as ``FLOAT``.

    Requirements (documented in DESIGN.md section 3):

    * 2-D array;
    * both sides divisible by :data:`SCALE`;
    * both sides at least :data:`MIN_SIDE`;
    * values representable in [0, 255].

    Raises :class:`~repro.errors.ValidationError` on violation.
    """
    arr = _check_shape(np.asarray(array))
    out = arr.astype(FLOAT, copy=True)
    # Scans that cannot fail are skipped: integers hold no NaN, and every
    # uint8 value already lies in [0, 255].
    if arr.dtype == np.uint8:
        return out
    lo, hi = float(out.min()), float(out.max())
    # min and max propagate NaN, so no scan of its own finds one.
    if math.isnan(lo) or math.isnan(hi):
        raise ValidationError("image contains NaN values")
    if lo < 0.0 or hi > 255.0:
        raise ValidationError(
            f"pixel values must lie in [0, 255], got range [{lo}, {hi}]"
        )
    return out


def _check_shape(arr: np.ndarray) -> np.ndarray:
    """Raise :class:`~repro.errors.ValidationError` unless ``arr`` is a
    2-D plane of a valid size; return it."""
    if arr.ndim != 2:
        raise ValidationError(f"expected a 2-D brightness plane, got ndim={arr.ndim}")
    h, w = arr.shape
    if h < MIN_SIDE or w < MIN_SIDE:
        raise ValidationError(
            f"image sides must be >= {MIN_SIDE}, got {h}x{w}"
        )
    if h % SCALE or w % SCALE:
        raise ValidationError(
            f"image sides must be divisible by {SCALE}, got {h}x{w}"
        )
    return arr


class Image:
    """A validated single-channel brightness plane.

    Parameters
    ----------
    plane:
        2-D array of pixels in [0, 255].  A ``uint8`` plane is copied once
        and kept as 8-bit :attr:`pixels`; any other dtype is validated into
        a ``float64`` copy, which is then both :attr:`pixels` and
        :attr:`plane`.
    """

    __slots__ = ("pixels", "_plane")

    def __init__(self, plane: np.ndarray) -> None:
        arr = np.asarray(plane)
        self._plane: np.ndarray | None = None
        if arr.dtype == PIXEL:
            pixels = np.array(_check_shape(arr), order="C")
        else:
            pixels = self._plane = validate_plane(arr)
        #: The frame as the executor reads it: ``uint8`` for an 8-bit
        #: input, else the validated ``float64`` plane (then also
        #: :attr:`plane`).  C-contiguous and owned by the image.
        self.pixels = pixels

    @property
    def plane(self) -> np.ndarray:
        """The pixels as ``float64``; an 8-bit image builds this copy on
        first access."""
        plane = self._plane
        if plane is None:
            plane = self._plane = self.pixels.astype(FLOAT)
        return plane

    @property
    def height(self) -> int:
        return int(self.pixels.shape[0])

    @property
    def width(self) -> int:
        return int(self.pixels.shape[1])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.height, self.width)

    @property
    def nbytes_u8(self) -> int:
        """Size of the plane in bytes when stored as 8-bit pixels."""
        return self.height * self.width

    def to_u8(self) -> np.ndarray:
        """Return the plane rounded and clamped to ``uint8``."""
        if self.pixels.dtype == PIXEL:
            return self.pixels.copy()
        return np.clip(np.rint(self.plane), 0, 255).astype(PIXEL)

    @classmethod
    def from_array(cls, array: np.ndarray) -> "Image":
        return cls(plane=array)


@dataclass(frozen=True)
class SharpnessParams:
    """User-defined tuning parameters of the sharpness algorithm.

    The paper says the brightness strength is "worked out from the mean value
    and user-defined parameters" and involves "many exponentiations"; and that
    overshoot control adjusts by "user-defined tuning parameters".  The
    concrete functional forms are given in DESIGN.md section 3.

    Attributes
    ----------
    gain:
        Multiplier of the normalized edge response (sharpening amount).
    gamma:
        Exponent applied to the normalized edge response.  Values below 1
        boost weak edges; values above 1 emphasize strong edges.
    strength_max:
        Upper clamp of the per-pixel strength factor.
    overshoot:
        Overshoot-control tuning factor in [0, 1]; 0 clips hard at the local
        min/max, 1 keeps the full overshoot.
    """

    gain: float = 1.0
    gamma: float = 0.5
    strength_max: float = 4.0
    overshoot: float = 0.25

    def __post_init__(self) -> None:
        if self.gain < 0:
            raise ValidationError(f"gain must be >= 0, got {self.gain}")
        if self.gamma <= 0:
            raise ValidationError(f"gamma must be > 0, got {self.gamma}")
        if self.strength_max <= 0:
            raise ValidationError(
                f"strength_max must be > 0, got {self.strength_max}"
            )
        if not 0.0 <= self.overshoot <= 1.0:
            raise ValidationError(
                f"overshoot must lie in [0, 1], got {self.overshoot}"
            )


@dataclass
class StageTimes:
    """Per-stage simulated time breakdown of one pipeline run (seconds).

    Stage names follow Fig. 13 of the paper.  ``extra`` collects stages that
    only exist in some configurations (e.g. ``data_init`` for GPU transfer
    time).  All times are simulated-model times, not wall clock.
    """

    times: dict[str, float] = field(default_factory=dict)

    def add(self, stage: str, seconds: float) -> None:
        self.times[stage] = self.times.get(stage, 0.0) + float(seconds)

    @property
    def total(self) -> float:
        return float(sum(self.times.values()))

    def fractions(self) -> dict[str, float]:
        """Return each stage's share of the total (sums to 1.0)."""
        tot = self.total
        if tot <= 0:
            return {k: 0.0 for k in self.times}
        return {k: v / tot for k, v in self.times.items()}


@dataclass
class FrameResult:
    """One sharpened frame, whichever backend produced it.

    ``times`` is the Fig.-13-style stage breakdown in the backend's own
    vocabulary (GPU stages, or the CPU cost model's); ``timeline`` is the
    frame's simulated event timeline, a host-only chain of cost-model
    events for a CPU frame.  The GPU-only fields keep their defaults on a
    CPU frame.
    """

    final: np.ndarray
    times: StageTimes
    timeline: Timeline
    edge_mean: float
    flags: OptimizationFlags | None = None
    border_ran_on_gpu: bool = False
    reduction_stage2_on_gpu: bool = False
    kernel_launches: int = 0
    #: Who produced the pixels: ``"gpu"`` for the simulated device path,
    #: ``"cpu"`` for :class:`~repro.cpu.CPUPipeline`, ``"cpu-fallback"``
    #: when the resilience layer served the frame from the CPU pipeline.
    backend: str = "gpu"

    @property
    def total_time(self) -> float:
        return self.timeline.total

    def final_u8(self) -> np.ndarray:
        return np.clip(np.rint(self.final), 0, 255).astype(PIXEL)
