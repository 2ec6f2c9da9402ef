"""Property-based tests over the whole system (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algo import stages as algo
from repro.core import BASE, OPTIMIZED, GPUPipeline
from repro.types import Image, SharpnessParams

from .conftest import assert_allclose

sizes = st.sampled_from([16, 32, 48, 64])
seeds = st.integers(min_value=0, max_value=2**31 - 1)
params_strategy = st.builds(
    SharpnessParams,
    gain=st.floats(min_value=0.0, max_value=4.0),
    gamma=st.floats(min_value=0.2, max_value=2.0),
    strength_max=st.floats(min_value=0.5, max_value=8.0),
    overshoot=st.floats(min_value=0.0, max_value=1.0),
)


def _plane(h, w, seed):
    return np.random.default_rng(seed).uniform(0, 255, (h, w))


class TestPipelineProperties:
    @given(sizes, sizes, seeds)
    @settings(max_examples=15, deadline=None)
    def test_gpu_matches_reference_any_shape(self, h, w, seed):
        plane = _plane(h, w, seed)
        res = GPUPipeline(OPTIMIZED, caching=False).run(
            Image.from_array(plane))
        assert_allclose(res.final, algo.sharpen(plane)["final"],
                        atol=1e-9, context=f"{h}x{w} seed={seed}")

    @given(seeds, params_strategy)
    @settings(max_examples=15, deadline=None)
    def test_base_and_optimized_agree_for_any_params(self, seed, params):
        plane = _plane(32, 32, seed)
        img = Image.from_array(plane)
        base = GPUPipeline(BASE, params, caching=False).run(img)
        opt = GPUPipeline(OPTIMIZED, params, caching=False).run(img)
        assert_allclose(base.final, opt.final, atol=1e-9,
                        context="base vs optimized")

    @given(seeds, params_strategy)
    @settings(max_examples=15, deadline=None)
    def test_output_always_a_valid_image(self, seed, params):
        plane = _plane(32, 32, seed)
        res = GPUPipeline(OPTIMIZED, params).run(Image.from_array(plane))
        assert np.isfinite(res.final).all()
        assert res.final.min() >= 0.0
        assert res.final.max() <= 255.0

    @given(st.floats(min_value=0.0, max_value=255.0))
    @settings(max_examples=10, deadline=None)
    def test_flat_images_are_fixed_points(self, value):
        plane = np.full((32, 32), value)
        res = GPUPipeline(OPTIMIZED).run(Image.from_array(plane))
        assert_allclose(res.final, plane, atol=1e-9,
                        context=f"flat {value}")

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_simulated_time_is_content_independent(self, seed):
        """The cost model prices work, not pixel values."""
        a = GPUPipeline(OPTIMIZED).run(
            Image.from_array(_plane(32, 32, seed)))
        b = GPUPipeline(OPTIMIZED).run(
            Image.from_array(_plane(32, 32, seed + 1)))
        assert a.total_time == pytest.approx(b.total_time, rel=1e-12)

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_runs_are_reproducible(self, seed):
        plane = _plane(32, 32, seed)
        r1 = GPUPipeline(OPTIMIZED).run(Image.from_array(plane))
        r2 = GPUPipeline(OPTIMIZED).run(Image.from_array(plane))
        assert np.array_equal(r1.final, r2.final)
        assert r1.total_time == r2.total_time


class TestMonotonicityProperties:
    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_larger_images_cost_more(self, seed):
        small = GPUPipeline(OPTIMIZED).run(
            Image.from_array(_plane(32, 32, seed)))
        large = GPUPipeline(OPTIMIZED).run(
            Image.from_array(_plane(64, 64, seed)))
        assert large.total_time > small.total_time

    @given(params_strategy)
    @settings(max_examples=10, deadline=None)
    def test_overshoot_bounds_respected(self, params):
        """Body pixels never exceed the blend of local max and 255."""
        plane = _plane(32, 32, 0)
        res = GPUPipeline(OPTIMIZED, params).run(Image.from_array(plane))
        out = algo.sharpen(plane, params)
        mx = out["preliminary"][1:-1, 1:-1]
        limit = np.maximum(np.clip(mx, 0, 255).max(), 255.0)
        assert res.final.max() <= limit
