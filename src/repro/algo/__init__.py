"""Canonical, vectorized definitions of every sharpness stage.

This package is the single source of truth for the algorithm's *semantics*.
The functional path of every simulated-GPU kernel (:mod:`repro.kernels`)
and the strip executor (:mod:`repro.algo.strips`, which both the CPU
baseline and plan replay run) delegate to these functions, so that any
two pipeline configurations produce bit-identical images; the scalar
golden reference in :mod:`repro.cpu.naive` is an independent implementation
used to cross-check them.
"""

from .stages import (
    BORDER_WEIGHTS,
    UPSCALE_P,
    downscale,
    group_sums,
    overshoot_control,
    perror,
    preliminary_sharpen,
    reduce_mean,
    reduce_sum,
    sharpen,
    sobel,
    strength_map,
    upscale,
    upscale_body,
    upscale_border_apply,
    upscale_border_line,
)

__all__ = [
    "BORDER_WEIGHTS",
    "UPSCALE_P",
    "downscale",
    "group_sums",
    "overshoot_control",
    "perror",
    "preliminary_sharpen",
    "reduce_mean",
    "reduce_sum",
    "sharpen",
    "sobel",
    "strength_map",
    "upscale",
    "upscale_body",
    "upscale_border_apply",
    "upscale_border_line",
]
