"""Exact bits of every :func:`repro.algo.stages.sharpen` intermediate.

The naive-oracle tests compare with a tolerance; these digests pin the
stage formulas bit for bit, so a reformulation that changes any
association order, rounding or signed zero fails here.

The inputs are integer-built uint8 frames and gamma is 0.5: every stage
is then a chain of correctly rounded IEEE operations (integer sums, one
divide, sqrt, products, min/max), so the digests do not depend on the
host.
"""

import hashlib

import numpy as np
import pytest

from repro.algo import stages as algo
from repro.algo import strips
from repro.core import OPTIMIZED, GPUPipeline
from repro.cpu import CPUPipeline
from repro.types import SharpnessParams

#: 2048 wide and 68 tall: the executor's interior rows end in a ragged
#: strip (asserted below).
_RAGGED = (68, 2048)
SHAPES = [(16, 16), (20, 36), (640, 480), _RAGGED]
PARAMS = {
    "default": SharpnessParams(),
    "tuned": SharpnessParams(gain=1.7, gamma=0.5, strength_max=2.5,
                             overshoot=0.6),
}
KEYS = ("downscaled", "upscaled", "p_error", "p_edge", "edge_mean",
        "strength", "preliminary", "final")


def _frame(shape, seed):
    """A ramp with bright bars every 8 rows plus seeded integer noise."""
    h, w = shape
    y, x = np.mgrid[0:h, 0:w]
    base = x * 255 // (w - 1) + (y // 8 % 2) * 64
    noise = np.random.default_rng(seed).integers(-24, 25, size=shape)
    return np.clip(base + noise, 0, 255).astype(np.uint8)


def _digest(value) -> str:
    data = np.asarray(value, dtype="<f8")
    return hashlib.sha256(np.ascontiguousarray(data).tobytes()).hexdigest()


def _digests(shape, params_name) -> dict[str, str]:
    frame = _frame(shape, seed=shape[0] * 7 + shape[1])
    out = algo.sharpen(frame, PARAMS[params_name])
    return {key: _digest(out[key]) for key in KEYS}


#: Recorded with the whole-frame stage formulas that predate the strip
#: formulations, keyed by ``"{h}x{w}/{params}"``; first 16 hex digits.
DIGESTS: dict[str, dict[str, str]] = {
    "16x16/default": {
        "downscaled": "0e1ff02d8dea17ad",
        "upscaled": "5faac57185d4a482",
        "p_error": "917c38e95a5bf383",
        "p_edge": "7e807c4449eb3435",
        "edge_mean": "6808b23e4b4cb3db",
        "strength": "614140baf31ccf29",
        "preliminary": "075c1b600d3c6f4a",
        "final": "b2830129c1ea48be",
    },
    "16x16/tuned": {
        "downscaled": "0e1ff02d8dea17ad",
        "upscaled": "5faac57185d4a482",
        "p_error": "917c38e95a5bf383",
        "p_edge": "7e807c4449eb3435",
        "edge_mean": "6808b23e4b4cb3db",
        "strength": "6b8af811071c7a17",
        "preliminary": "388f6329090695f1",
        "final": "5e2ba8752a765a97",
    },
    "20x36/default": {
        "downscaled": "9c6f66a476f68fc0",
        "upscaled": "4b470f8c866671db",
        "p_error": "3f4bd6b7141e6ea9",
        "p_edge": "d2e1ea5bc2b5407f",
        "edge_mean": "3af4faf3abc40f66",
        "strength": "12b58381d4e0d47a",
        "preliminary": "a02aeff9db9aa822",
        "final": "2d0750a8f2799b4d",
    },
    "20x36/tuned": {
        "downscaled": "9c6f66a476f68fc0",
        "upscaled": "4b470f8c866671db",
        "p_error": "3f4bd6b7141e6ea9",
        "p_edge": "d2e1ea5bc2b5407f",
        "edge_mean": "3af4faf3abc40f66",
        "strength": "42d0efdb4dce1d80",
        "preliminary": "2aad97797928419f",
        "final": "e517e4c88b333936",
    },
    "640x480/default": {
        "downscaled": "fa698add981056cc",
        "upscaled": "48a29a24b7354f16",
        "p_error": "6e6c129550e6bce7",
        "p_edge": "a9d0098ad4dd332c",
        "edge_mean": "0be26d6a724dcada",
        "strength": "06ddc79b442a77f2",
        "preliminary": "0964590634a3d1e1",
        "final": "c6cb02dbd5688612",
    },
    "640x480/tuned": {
        "downscaled": "fa698add981056cc",
        "upscaled": "48a29a24b7354f16",
        "p_error": "6e6c129550e6bce7",
        "p_edge": "a9d0098ad4dd332c",
        "edge_mean": "0be26d6a724dcada",
        "strength": "1ccfe5e340aa30d3",
        "preliminary": "c757522d5fd46df5",
        "final": "e876ff703c7145ea",
    },
    "68x2048/default": {
        "downscaled": "424219ba9d4b3635",
        "upscaled": "bec797255c5287a9",
        "p_error": "5d5b444caa0aa7cc",
        "p_edge": "376c21f762bb2b6a",
        "edge_mean": "825db088f4909e9a",
        "strength": "bfb7147c37078f26",
        "preliminary": "86c7db1b1eddcb95",
        "final": "aa8dc3a5aa50129a",
    },
    "68x2048/tuned": {
        "downscaled": "424219ba9d4b3635",
        "upscaled": "bec797255c5287a9",
        "p_error": "5d5b444caa0aa7cc",
        "p_edge": "376c21f762bb2b6a",
        "edge_mean": "825db088f4909e9a",
        "strength": "68ba455085dfe28c",
        "preliminary": "5c07671902b30907",
        "final": "8a7f84defcded591",
    },
}


@pytest.mark.parametrize("params_name", sorted(PARAMS))
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_sharpen_intermediates_are_pinned(shape, params_name):
    got = _digests(shape, params_name)
    want = DIGESTS[f"{shape[0]}x{shape[1]}/{params_name}"]
    assert {k: v[:16] for k, v in got.items()} == want


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_plan_replay_reproduces_the_pinned_final(shape):
    frame = _frame(shape, seed=shape[0] * 7 + shape[1])
    pipe = GPUPipeline(OPTIMIZED)
    pipe.run(frame)  # capture
    got = pipe.run(frame)
    assert pipe.plan_cache.stats()["hits"] == 1
    want = DIGESTS[f"{shape[0]}x{shape[1]}/default"]
    for res in (got, CPUPipeline().run(frame)):
        assert _digest(res.final)[:16] == want["final"]
        assert _digest(res.edge_mean)[:16] == want["edge_mean"]


def test_ragged_shape_has_a_ragged_last_strip():
    h, w = _RAGGED
    assert (h - 2) % strips.strip_rows(h, w) != 0
