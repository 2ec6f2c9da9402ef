"""Sobel stage: golden-reference equality and analytic cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algo import stages as algo
from repro.cpu import naive
from repro.errors import ValidationError

from .conftest import (
    U8_FRAMES,
    U8_STRIP,
    assert_allclose,
    assert_bytes_equal,
    dirty,
    u8_frame,
    u8_row_ranges,
)


class TestSobelGolden:
    def test_matches_naive_on_all_workloads(self, small_planes):
        for name, plane in small_planes.items():
            assert_allclose(algo.sobel(plane), naive.sobel(plane),
                            context=f"sobel({name})")

    def test_border_is_zero(self, small_planes):
        edge = algo.sobel(small_planes["noise"])
        assert np.all(edge[0] == 0) and np.all(edge[-1] == 0)
        assert np.all(edge[:, 0] == 0) and np.all(edge[:, -1] == 0)

    def test_constant_gives_zero(self):
        assert np.all(algo.sobel(np.full((16, 16), 99.0)) == 0)

    def test_vertical_step_edge_response(self):
        """|Gx| of a unit vertical step is 4 on the two step columns."""
        plane = np.zeros((16, 16))
        plane[:, 8:] = 1.0
        edge = algo.sobel(plane)
        body = edge[1:-1]
        assert_allclose(body[:, 7], np.full(14, 4.0), context="left of step")
        assert_allclose(body[:, 8], np.full(14, 4.0), context="right of step")
        assert np.all(body[:, :6] == 0) and np.all(body[:, 10:] == 0)

    def test_horizontal_ramp_constant_gradient(self):
        """A slope-1 horizontal ramp has |Gx| = 8 everywhere in the body."""
        plane = np.tile(np.arange(32, dtype=float), (32, 1))
        edge = algo.sobel(plane)
        assert_allclose(edge[1:-1, 1:-1], np.full((30, 30), 8.0),
                        context="ramp gradient")

    def test_rotation_symmetry(self, rng):
        """sobel(plane.T) == sobel(plane).T — |Gx|+|Gy| is symmetric."""
        plane = rng.uniform(0, 255, (24, 24))
        assert_allclose(algo.sobel(plane.T), algo.sobel(plane).T,
                        context="transpose symmetry")

    def test_rejects_bad_shape(self):
        with pytest.raises(ValidationError):
            algo.sobel(np.zeros((13, 16)))


class TestSobelProperties:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_nonnegative(self, seed):
        plane = np.random.default_rng(seed).uniform(0, 255, (20, 20))
        assert algo.sobel(plane).min() >= 0.0

    @given(st.floats(min_value=0.1, max_value=10.0),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_homogeneous(self, scale, seed):
        """Sobel is positively homogeneous: sobel(k*x) == k*sobel(x)."""
        plane = np.random.default_rng(seed).uniform(0, 25, (20, 20))
        assert_allclose(algo.sobel(scale * plane), scale * algo.sobel(plane),
                        atol=1e-8, context="homogeneity")

    @given(st.floats(min_value=0.0, max_value=200.0),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_shift_invariant(self, offset, seed):
        """Adding a constant brightness does not change the gradient."""
        plane = np.random.default_rng(seed).uniform(0, 55, (20, 20))
        assert_allclose(algo.sobel(plane + offset), algo.sobel(plane),
                        atol=1e-8, context="shift invariance")


class TestSobelU8:
    """An 8-bit frame runs in int16 with the float64 frame's bits."""

    @pytest.mark.parametrize("name", U8_FRAMES)
    def test_whole_frame_matches_float(self, name):
        frame = u8_frame(name)
        assert_bytes_equal(algo.sobel(frame),
                           algo.sobel(frame.astype(np.float64)),
                           context=name)

    @pytest.mark.parametrize("name", U8_FRAMES)
    def test_row_ranges_match_float(self, name):
        frame = u8_frame(name)
        h, w = frame.shape
        ref = algo.sobel(frame.astype(np.float64))
        # One strip's float64 scratch, recycled dirty across the ranges.
        n = U8_STRIP
        scratch = dict(tcol=dirty((n, w)), urow=dirty((n + 2, w - 2)),
                       gx=dirty((n, w - 2)), gy=dirty((n, w - 2)))
        edge = np.zeros((h, w))
        for r0, r1 in u8_row_ranges(h):
            algo.sobel_rows(frame, edge, r0, r1, **scratch)
            assert_bytes_equal(edge[r0:r1], ref[r0:r1],
                               context=f"{name} rows [{r0}, {r1})")


class TestReduction:
    def test_reduce_mean_matches_naive(self, small_planes):
        for name, plane in small_planes.items():
            edge = algo.sobel(plane)
            assert algo.reduce_mean(edge) == pytest.approx(
                naive.reduce_mean(edge), rel=1e-12
            ), name

    def test_reduce_sum_of_ones(self):
        assert algo.reduce_sum(np.ones((7, 9))) == 63.0

    def test_reduce_mean_empty_rejected(self):
        with pytest.raises(ValidationError):
            algo.reduce_mean(np.zeros((0,)))
