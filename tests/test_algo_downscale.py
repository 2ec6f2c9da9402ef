"""Downscale stage: golden-reference equality and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algo import stages as algo
from repro.cpu import naive
from repro.errors import ValidationError

from .conftest import (
    U8_FRAMES,
    assert_allclose,
    assert_bytes_equal,
    dirty,
    u8_frame,
)


class TestDownscaleGolden:
    def test_matches_naive_on_all_workloads(self, small_planes):
        for name, plane in small_planes.items():
            assert_allclose(algo.downscale(plane), naive.downscale(plane),
                            context=f"downscale({name})")

    def test_output_shape(self):
        out = algo.downscale(np.zeros((32, 64)))
        assert out.shape == (8, 16)

    def test_known_block_mean(self):
        plane = np.zeros((16, 16))
        plane[0:4, 0:4] = np.arange(16).reshape(4, 4)
        out = algo.downscale(plane)
        assert out[0, 0] == pytest.approx(np.arange(16).mean())
        assert out[0, 1] == 0.0

    def test_rejects_non_multiple_of_four(self):
        with pytest.raises(ValidationError):
            algo.downscale(np.zeros((10, 16)))

    def test_rejects_1d(self):
        with pytest.raises(ValidationError):
            algo.downscale(np.zeros(64))


class TestDownscaleProperties:
    @given(
        st.integers(min_value=4, max_value=16).map(lambda k: 4 * k),
        st.integers(min_value=4, max_value=16).map(lambda k: 4 * k),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_preserves_global_mean(self, h, w, seed):
        """Non-overlapping block means preserve the global mean exactly."""
        plane = np.random.default_rng(seed).uniform(0, 255, (h, w))
        down = algo.downscale(plane)
        assert down.shape == (h // 4, w // 4)
        assert down.mean() == pytest.approx(plane.mean(), rel=1e-12)

    @given(st.floats(min_value=0, max_value=255))
    @settings(max_examples=20, deadline=None)
    def test_constant_maps_to_constant(self, value):
        plane = np.full((16, 16), value)
        down = algo.downscale(plane)
        assert_allclose(down, np.full((4, 4), value), atol=1e-12,
                        context="constant downscale")

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_output_within_input_range(self, seed):
        plane = np.random.default_rng(seed).uniform(0, 255, (32, 32))
        down = algo.downscale(plane)
        assert down.min() >= plane.min() - 1e-9
        assert down.max() <= plane.max() + 1e-9

    def test_linearity(self, small_planes):
        a = small_planes["natural"]
        b = small_planes["noise"]
        combo = algo.downscale(0.25 * a + 0.5 * b)
        parts = 0.25 * algo.downscale(a) + 0.5 * algo.downscale(b)
        assert_allclose(combo, parts, atol=1e-10, context="linearity")


class TestDownscaleU8:
    """An 8-bit frame is summed in uint16 with the float64 frame's bits."""

    @pytest.mark.parametrize("name", U8_FRAMES)
    def test_matches_float(self, name):
        frame = u8_frame(name)
        h, w = frame.shape
        ref = algo.downscale(frame.astype(np.float64))
        assert_bytes_equal(algo.downscale(frame), ref, context=name)
        # In scratch: the uint16 column sums are a view over the leading
        # bytes of the float64 ``colsum``, larger here than needed.
        out, colsum = dirty((h // 4, w // 4)), dirty((h + 8, w // 4))
        got = algo.downscale(frame, out=out, colsum=colsum)
        assert np.shares_memory(got, out)
        assert_bytes_equal(got, ref, context=f"{name} in scratch")
