"""Rectangular images, minimum sizes, and parameter extremes end to end."""

import numpy as np
import pytest

from repro.algo import stages as algo
from repro.core import BASE, OPTIMIZED, GPUPipeline
from repro.cpu import CPUPipeline, naive
from repro.types import Image, SharpnessParams
from repro.util import images

from .conftest import assert_allclose

RECT_SHAPES = [(16, 64), (64, 16), (32, 48), (48, 32), (16, 16)]


class TestRectangularGolden:
    @pytest.mark.parametrize("shape", RECT_SHAPES)
    def test_full_pipeline_matches_naive(self, shape):
        h, w = shape
        plane = images.natural_like(h, w, seed=h * 100 + w)
        ref = naive.sharpen(plane)
        out = algo.sharpen(plane)
        assert_allclose(out["final"], ref["final"], atol=1e-9,
                        context=f"rect {shape}")

    @pytest.mark.parametrize("shape", RECT_SHAPES)
    def test_gpu_pipeline_matches_reference(self, shape):
        h, w = shape
        plane = images.natural_like(h, w, seed=h + w)
        ref = algo.sharpen(plane)["final"]
        for flags in (BASE, OPTIMIZED):
            res = GPUPipeline(flags, caching=False).run(
                Image.from_array(plane))
            assert_allclose(res.final, ref, atol=1e-9,
                            context=f"gpu rect {shape}")

    @pytest.mark.parametrize("shape", [(16, 64), (64, 16)])
    def test_emulated_rectangular(self, shape):
        h, w = shape
        plane = images.natural_like(h, w, seed=3)
        ref = algo.sharpen(plane)["final"]
        res = GPUPipeline(OPTIMIZED, mode="emulate").run(
            Image.from_array(plane))
        assert_allclose(res.final, ref, atol=1e-9,
                        context=f"emulate rect {shape}")


class TestMinimumSize:
    def test_16x16_everything(self):
        plane = images.checkerboard(16, 16, cell=2)
        ref = naive.sharpen(plane)
        fast = algo.sharpen(plane)
        assert_allclose(fast["final"], ref["final"], atol=1e-9,
                        context="16x16 naive")
        gpu = GPUPipeline(OPTIMIZED, mode="emulate").run(
            Image.from_array(plane))
        assert_allclose(gpu.final, ref["final"], atol=1e-9,
                        context="16x16 gpu emulate")

    def test_16x16_downscale_is_4x4(self):
        down = algo.downscale(np.zeros((16, 16)))
        assert down.shape == (4, 4)
        up = algo.upscale(down)
        assert up.shape == (16, 16)


class TestParameterExtremes:
    @pytest.mark.parametrize("params", [
        SharpnessParams(gain=0.0),
        SharpnessParams(gamma=2.0),
        SharpnessParams(gamma=0.2),
        SharpnessParams(strength_max=0.001),
        SharpnessParams(overshoot=0.0),
        SharpnessParams(overshoot=1.0),
        SharpnessParams(gain=100.0, strength_max=1000.0, overshoot=1.0),
    ])
    def test_pipeline_stays_valid(self, params):
        plane = images.noise(32, 32, seed=5)
        cpu = CPUPipeline(params).run(plane)
        gpu = GPUPipeline(OPTIMIZED, params).run(plane)
        assert_allclose(gpu.final, cpu.final, atol=1e-9,
                        context=f"params {params}")
        assert cpu.final.min() >= 0.0 and cpu.final.max() <= 255.0
        assert np.isfinite(cpu.final).all()

    def test_black_and_white_images(self):
        for value in (0.0, 255.0):
            plane = np.full((32, 32), value)
            res = GPUPipeline(OPTIMIZED).run(Image.from_array(plane))
            assert_allclose(res.final, plane, atol=1e-9,
                            context=f"flat {value}")

    def test_single_hot_pixel(self):
        """An impulse: finite response, output in range, no NaNs."""
        plane = np.zeros((32, 32))
        plane[16, 16] = 255.0
        res = GPUPipeline(OPTIMIZED).run(Image.from_array(plane))
        assert np.isfinite(res.final).all()
        assert res.final.min() >= 0.0 and res.final.max() <= 255.0
        assert res.final[16, 16] > 0

    def test_extreme_gamma_small_mean(self):
        """Tiny mean + small gamma stresses the pow path (norm >> 1)."""
        plane = np.zeros((32, 32))
        plane[0, 0] = 1.0  # nearly flat: tiny edge mean
        params = SharpnessParams(gain=1.0, gamma=0.2, strength_max=4.0)
        res = GPUPipeline(OPTIMIZED, params).run(Image.from_array(plane))
        assert np.isfinite(res.final).all()


class TestRectangularTimings:
    def test_transposed_images_cost_the_same(self):
        """The cost model depends on the pixel count and the border line
        lengths, both symmetric under transpose up to the serial border
        term (which uses max(h, w))."""
        a = GPUPipeline(OPTIMIZED).run(
            Image.from_array(images.gradient(32, 96)))
        b = GPUPipeline(OPTIMIZED).run(
            Image.from_array(images.gradient(96, 32)))
        assert a.total_time == pytest.approx(b.total_time, rel=0.05)

    def test_area_dominates_cost(self):
        wide = GPUPipeline(OPTIMIZED).run(
            Image.from_array(images.gradient(16, 256)))
        square = GPUPipeline(OPTIMIZED).run(
            Image.from_array(images.gradient(64, 64)))
        # Same pixel count: within a modest factor of each other.
        ratio = wide.total_time / square.total_time
        assert 0.5 < ratio < 2.0
