"""Strength map, preliminary sharpen, overshoot control, full pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algo import stages as algo
from repro.cpu import naive
from repro.errors import ValidationError
from repro.types import SharpnessParams

from .conftest import (
    U8_FRAMES,
    U8_STRIP,
    assert_allclose,
    assert_bytes_equal,
    dirty,
    u8_frame,
    u8_row_ranges,
)


class TestStrengthMap:
    def test_matches_naive(self, small_planes, params):
        edge = algo.sobel(small_planes["natural"])
        mean = algo.reduce_mean(edge)
        assert_allclose(
            algo.strength_map(edge, mean, params),
            naive.strength_map(edge, mean, params),
            context="strength map",
        )

    def test_zero_mean_gives_zero_map(self, params):
        out = algo.strength_map(np.ones((8, 8)), 0.0, params)
        assert np.all(out == 0)

    def test_clamped_at_strength_max(self):
        p = SharpnessParams(gain=10.0, gamma=1.0, strength_max=2.5)
        out = algo.strength_map(np.array([[100.0]]), 1.0, p)
        assert out[0, 0] == 2.5

    def test_gain_scales_linearly_below_clamp(self):
        edge = np.array([[1.0, 4.0]])
        a = algo.strength_map(edge, 4.0, SharpnessParams(gain=0.5))
        b = algo.strength_map(edge, 4.0, SharpnessParams(gain=1.0))
        assert_allclose(2 * a, b, context="gain linearity")

    def test_gamma_one_is_proportional(self):
        p = SharpnessParams(gain=1.0, gamma=1.0, strength_max=100.0)
        edge = np.array([[2.0, 6.0]])
        out = algo.strength_map(edge, 2.0, p)
        assert_allclose(out, [[1.0, 3.0]], context="gamma=1")

    def test_mean_pixel_gets_gain(self):
        """A pixel exactly at the mean edge level receives strength = gain."""
        p = SharpnessParams(gain=1.7, gamma=0.5, strength_max=10.0)
        out = algo.strength_map(np.array([[5.0]]), 5.0, p)
        assert out[0, 0] == pytest.approx(1.7)


class TestPreliminary:
    def test_matches_naive(self, small_planes, params):
        plane = small_planes["natural"]
        down = algo.downscale(plane)
        up = algo.upscale(down)
        err = algo.perror(plane, up)
        edge = algo.sobel(plane)
        strength = algo.strength_map(edge, algo.reduce_mean(edge), params)
        assert_allclose(
            algo.preliminary_sharpen(up, err, strength),
            naive.preliminary_sharpen(up, err, strength),
            context="preliminary",
        )

    def test_zero_strength_returns_upscaled(self, rng):
        up = rng.uniform(0, 255, (8, 8))
        err = rng.uniform(-10, 10, (8, 8))
        out = algo.preliminary_sharpen(up, err, np.zeros((8, 8)))
        assert_allclose(out, up, context="zero strength")

    def test_unit_strength_adds_error(self, rng):
        up = rng.uniform(0, 200, (8, 8))
        err = rng.uniform(-10, 10, (8, 8))
        out = algo.preliminary_sharpen(up, err, np.ones((8, 8)))
        assert_allclose(out, up + err, context="unit strength")

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            algo.preliminary_sharpen(np.zeros((8, 8)), np.zeros((8, 8)),
                                     np.zeros((4, 4)))

    def test_perror_is_difference(self, rng):
        a = rng.uniform(0, 255, (8, 8))
        b = rng.uniform(0, 255, (8, 8))
        assert_allclose(algo.perror(a, b), a - b, context="perror")

    def test_perror_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            algo.perror(np.zeros((8, 8)), np.zeros((8, 4)))

    @pytest.mark.parametrize("name", U8_FRAMES)
    def test_perror_of_u8_matches_float(self, name):
        frame = u8_frame(name)
        up = algo.upscale(algo.downscale(frame))
        assert_bytes_equal(algo.perror(frame, up),
                           algo.perror(frame.astype(np.float64), up),
                           context=name)


class TestOvershootControl:
    def test_matches_naive(self, small_planes, params):
        plane = small_planes["checker"]
        prelim = plane + np.random.default_rng(0).uniform(-60, 60,
                                                          plane.shape)
        assert_allclose(
            algo.overshoot_control(prelim, plane, params),
            naive.overshoot_control(prelim, plane, params),
            context="overshoot",
        )

    def test_output_in_range(self, small_planes, params):
        plane = small_planes["noise"]
        prelim = plane * 3.0 - 100.0  # force out-of-range values
        out = algo.overshoot_control(prelim, plane, params)
        assert out.min() >= 0.0 and out.max() <= 255.0

    def test_within_local_range_passes_through(self, params):
        """Preliminary values inside the local min/max are just clamped."""
        plane = np.tile(np.arange(16, dtype=float) * 10, (16, 1))
        prelim = plane.copy()  # exactly the original: within [min, max]
        out = algo.overshoot_control(prelim, plane, params)
        assert_allclose(out[1:-1, 1:-1], plane[1:-1, 1:-1],
                        context="pass-through body")

    def test_overshoot_zero_clips_to_local_max(self):
        p = SharpnessParams(overshoot=0.0)
        plane = np.full((16, 16), 100.0)
        prelim = np.full((16, 16), 180.0)
        out = algo.overshoot_control(prelim, plane, p)
        # body: local max is 100, overshoot 0 -> exactly 100
        assert np.all(out[1:-1, 1:-1] == 100.0)

    def test_overshoot_one_keeps_full_value(self):
        p = SharpnessParams(overshoot=1.0)
        plane = np.full((16, 16), 100.0)
        prelim = np.full((16, 16), 180.0)
        out = algo.overshoot_control(prelim, plane, p)
        assert np.all(out[1:-1, 1:-1] == 180.0)

    def test_undershoot_symmetric(self):
        p = SharpnessParams(overshoot=0.5)
        plane = np.full((16, 16), 100.0)
        prelim = np.full((16, 16), 60.0)
        out = algo.overshoot_control(prelim, plane, p)
        # local min 100, undershoot 40, blend: 100 - 0.5*40 = 80
        assert np.all(out[1:-1, 1:-1] == 80.0)

    def test_border_copied_and_clamped(self, params):
        plane = np.full((16, 16), 100.0)
        prelim = np.full((16, 16), 300.0)
        out = algo.overshoot_control(prelim, plane, params)
        assert np.all(out[0] == 255.0)
        assert np.all(out[:, -1] == 255.0)

    def test_shape_mismatch_rejected(self, params):
        with pytest.raises(ValidationError):
            algo.overshoot_control(np.zeros((8, 8)), np.zeros((8, 4)),
                                   params)


class TestMinMax3x3U8:
    """The 3x3 extrema of an 8-bit frame are uint8, equal to the float64
    frame's, and overshoot control blends them to the same bits."""

    @pytest.mark.parametrize("name", U8_FRAMES)
    def test_whole_frame_matches_float(self, name):
        frame = u8_frame(name)
        mn, mx = algo.minmax3x3(frame)
        ref_mn, ref_mx = algo.minmax3x3(frame.astype(np.float64))
        assert mn.dtype == mx.dtype == np.uint8
        assert_bytes_equal(mn.astype(np.float64), ref_mn, context=name)
        assert_bytes_equal(mx.astype(np.float64), ref_mx, context=name)

    @pytest.mark.parametrize("name", U8_FRAMES)
    def test_row_ranges_match_float(self, name):
        frame = u8_frame(name)
        h, w = frame.shape
        ref_mn, ref_mx = algo.minmax3x3(frame.astype(np.float64))
        n = U8_STRIP
        # Float64 scratch, viewed as uint8 full-width rows.
        scratch = dict(mn=dirty((n, w - 2)), mx=dirty((n, w - 2)),
                       ext=dirty((n + 2, w - 2)))
        for r0, r1 in u8_row_ranges(h):
            mn, mx = algo.minmax3x3_rows(frame, r0, r1, **scratch)
            assert mn.dtype == mx.dtype == np.uint8
            assert mn.shape == mx.shape == (r1 - r0, w)
            ctx = f"{name} rows [{r0}, {r1})"
            assert_bytes_equal(mn[:, 1:w - 1].astype(np.float64),
                               ref_mn[r0 - 1:r1 - 1], context=ctx)
            assert_bytes_equal(mx[:, 1:w - 1].astype(np.float64),
                               ref_mx[r0 - 1:r1 - 1], context=ctx)

    @pytest.mark.parametrize("name", U8_FRAMES)
    def test_overshoot_blend_matches_float(self, name, params):
        frame = u8_frame(name)
        h, w = frame.shape
        prelim = np.random.default_rng(2).uniform(-60, 320, (h - 2, w))
        outs = []
        for src in (frame, frame.astype(np.float64)):
            final = np.zeros((h, w))
            mn, mx = algo.minmax3x3_rows(src, 1, h - 1)
            algo.overshoot_rows(prelim.copy(), mn, mx, params.overshoot,
                                final, 1)
            outs.append(final)
        assert_bytes_equal(*outs, context=name)


class TestFullPipeline:
    def test_matches_naive_on_all_workloads(self, small_planes, params):
        for name, plane in small_planes.items():
            ref = naive.sharpen(plane, params)
            out = algo.sharpen(plane, params)
            assert out["edge_mean"] == pytest.approx(ref["edge_mean"],
                                                     rel=1e-12)
            for key in ("downscaled", "upscaled", "p_error", "p_edge",
                        "strength", "preliminary", "final"):
                assert_allclose(out[key], ref[key], atol=1e-9,
                                context=f"{name}.{key}")

    def test_constant_image_is_fixed_point(self, params):
        plane = np.full((32, 32), 128.0)
        out = algo.sharpen(plane, params)
        assert_allclose(out["final"], plane, atol=1e-9,
                        context="constant fixed point")
        assert out["edge_mean"] == 0.0

    def test_final_in_pixel_range(self, small_planes, params):
        for name, plane in small_planes.items():
            final = algo.sharpen(plane, params)["final"]
            assert final.min() >= 0.0 and final.max() <= 255.0, name

    def test_sharpening_increases_edge_energy(self, small_planes):
        """The point of the algorithm: the sharpened image has more edge
        energy than the low-pass reconstruction it corrects."""
        plane = small_planes["natural"]
        out = algo.sharpen(plane)
        assert algo.sobel(out["final"]).sum() > algo.sobel(
            out["upscaled"]).sum()

    def test_high_gain_sharpens_beyond_original(self, small_planes):
        """With gain > 1 the output out-edges the original (high boost)."""
        plane = small_planes["checker"]
        params = SharpnessParams(gain=2.0, gamma=0.5, strength_max=4.0,
                                 overshoot=1.0)
        final = algo.sharpen(plane, params)["final"]
        assert algo.sobel(final).sum() > algo.sobel(plane).sum()

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_output_valid_for_random_images(self, seed):
        plane = np.random.default_rng(seed).uniform(0, 255, (32, 32))
        final = algo.sharpen(plane)["final"]
        assert final.shape == plane.shape
        assert np.isfinite(final).all()
        assert final.min() >= 0.0 and final.max() <= 255.0
