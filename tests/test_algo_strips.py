"""The 8-bit strip path: the strength table, the exact integer pEdge sums
and the compact workspace.

An 8-bit frame's pEdge is an ``int16`` plane summed in ``int64``, and its
strength is gathered from :func:`repro.algo.stages.strength_table`; each
case here must give the bits of :func:`repro.algo.stages.sharpen` on the
float64 copy of the same pixels.
"""

import itertools
import math
import sys
import threading

import numpy as np
import pytest

from repro.algo import stages as algo
from repro.algo import strips
from repro.core import OPTIMIZED
from repro.core.plan import _reduction_levels
from repro.obs.runctx import NULL_CONTEXT
from repro.types import SharpnessParams
from repro.util import images


def _run(frame, params, levels):
    ws = strips.Workspace(*frame.shape)
    return strips.run(frame, params, ws, levels, NULL_CONTEXT.trace)


def _device_levels(shape):
    return _reduction_levels(OPTIMIZED, shape[0] * shape[1])[0]


def _natural(shape, seed=5):
    plane = images.video_sequence(*shape, 1, seed=seed)[0]
    return np.rint(plane).astype(np.uint8)


def _check(frame, params):
    """Assert the 8-bit strip path matches the float64 copy under the flat
    and the device level chain; return ``algo.sharpen``'s intermediates."""
    copy = frame.astype(np.float64)
    ref = algo.sharpen(copy, params)
    final, mean = _run(frame, params, ())
    assert np.array_equal(final, ref["final"])
    assert mean == ref["edge_mean"]
    levels = _device_levels(frame.shape)
    assert levels
    final, mean = _run(frame, params, levels)
    want_final, want_mean = _run(copy, params, levels)
    assert np.array_equal(final, want_final)
    assert mean == want_mean == algo.reduce_mean(ref["p_edge"], levels)
    return ref


class TestStrengthTableAndIntegerSums:
    def test_flat_frame(self):
        ref = _check(np.full((32, 48), 77, dtype=np.uint8),
                     SharpnessParams())
        assert ref["edge_mean"] == 0.0
        assert not ref["strength"].any()

    def test_gamma_takes_the_power_path(self):
        params = SharpnessParams(gamma=0.7)
        _check(_natural((64, 96)), params)

    def test_strength_max_clamps(self):
        params = SharpnessParams(gain=4.0, strength_max=1.5)
        ref = _check(_natural((64, 96)), params)
        assert (ref["strength"] == 1.5).any()

    def test_largest_sobel_magnitude(self):
        # 0/255 stripes along the anti-diagonal: the last pixel of each dark
        # band has bright e, se and s neighbours and dark w, nw and n ones,
        # so |Gx| + |Gy| = 6 * 255, the largest an 8-bit frame reaches.
        y, x = np.mgrid[0:64, 0:64]
        frame = (255 * ((x + y) // 4 % 2)).astype(np.uint8)
        ref = _check(frame, SharpnessParams())
        assert ref["p_edge"].max() == 6 * 255 <= algo.EDGE_MAX_U8

    def test_checkerboard(self):
        y, x = np.mgrid[0:48, 0:64]
        _check((255 * ((x // 2 + y // 2) % 2)).astype(np.uint8),
               SharpnessParams())

    def test_ragged_reduction_group(self):
        frame = _natural((20, 36))
        (count, _), = _device_levels(frame.shape)
        assert count % algo.GROUP_SPAN != 0
        _check(frame, SharpnessParams())

    def test_table_covers_every_8bit_edge_value(self):
        params = SharpnessParams(gamma=0.7, gain=2.0)
        values = np.arange(algo.EDGE_MAX_U8 + 1)
        edge = np.resize(values, (21, 100)).astype(np.int16)
        table = algo.strength_table(310.7, params)
        got = algo.strength_lookup(table, edge)
        want = algo.strength_map(edge.astype(np.float64), 310.7, params)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("levels", [(), ((64 * 4096, 256), (256, 1))],
                             ids=["flat", "grouped"])
    def test_integer_sums_of_the_largest_values(self, levels):
        edge = np.full((64, 4096), algo.EDGE_MAX_U8, dtype=np.int16)
        edge[::3, ::7] = 1
        want = algo.reduce_mean(edge.astype(np.float64), levels)
        assert algo.reduce_mean(edge, levels) == want


class TestWorkspaceSize:
    """Workspaces and two lanes' arenas, built without running a frame."""

    @pytest.mark.parametrize("side, mib", [(512, 16.6), (2048, 86.2),
                                           (4096, 100.0)])
    def test_two_lane_workspace_size(self, side, mib):
        ws = strips.Workspace(side, side)
        with strips.StripLanes(2).scratch(2) as arenas:
            for arena in arenas:
                for u8 in (True, False):
                    arena.views(ws.strip, side, u8)
        assert len(arenas) == 2
        assert ws.nbytes + sum(a.arena.nbytes for a in arenas) <= mib * 2**20

    @pytest.mark.parametrize("side, mib", [(512, 0.63), (2048, 10.01),
                                           (4096, 40.01)])
    def test_workspace_is_its_planes(self, side, mib):
        # 2.5 bytes per pixel: the int16 pEdge and the downscaled plane.
        ws = strips.Workspace(side, side)
        assert ws.nbytes == ws.edge.nbytes + ws.down.nbytes
        assert ws.nbytes <= mib * 2**20

    def test_one_workspace_alternates_dtypes(self):
        # 8-bit and float frames have pEdge planes of their own, so one
        # workspace runs them in any order without a reset() between.
        ws = strips.Workspace(36, 64)
        frames = [_natural((36, 64), seed=s) for s in range(4)]
        frames[1] = frames[1] * 0.75 + 0.25
        frames[3] = frames[3].astype(np.float64)
        for frame in frames + frames[::-1]:
            final, mean = strips.run(frame, SharpnessParams(), ws, (),
                                     NULL_CONTEXT.trace)
            ref = algo.sharpen(frame)
            assert np.array_equal(final, ref["final"])
            assert mean == ref["edge_mean"]

    def test_8bit_pedge_is_int16(self):
        ws = strips.Workspace(64, 64)
        assert ws.edge.dtype == np.int16
        assert ws.edge_float is None
        assert ws.edge_plane(False).dtype == np.float64
        assert not np.shares_memory(ws.edge, ws.edge_plane(False))


#: Arrays of one lane's arena that are alive at the same time, step by
#: step through each phase (:func:`repro.algo.strips._layout`).
_LIVE = {
    True: [("tcol", "urow", "gx", "gy"),
           ("idx", "strength"),
           ("strength", "rows", "taps", "ui"),
           ("strength", "ui", "err"),
           ("err", "ext", "mn", "mx"),
           ("err", "mn", "mx", "over", "under")],
    False: [("tcol", "urow", "gx", "gy"),
            ("strength", "rows", "taps", "ui"),
            ("strength", "ui", "err"),
            ("err", "ext", "mn", "mx"),
            ("err", "mn", "mx", "over", "under")],
}


@pytest.mark.parametrize("u8", [True, False], ids=["u8", "float"])
@pytest.mark.parametrize("w", [16, 20, 36, 64, 512, 2048])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 256])
def test_arrays_alive_together_do_not_share_bytes(n, w, u8):
    spec = strips._layout(n, w, u8)

    def span(name):
        off, shape, dt = spec[name]
        return off, off + math.prod(shape) * np.dtype(dt).itemsize

    for live in _LIVE[u8]:
        for a, b in itertools.combinations(live, 2):
            (a0, a1), (b0, b1) = span(a), span(b)
            assert a1 <= b0 or b1 <= a0, (a, b)


#: perfbench's mixed_job frame shapes.
_JOB_SHAPES = ((256, 256), (384, 512), (512, 384), (512, 512), (256, 640),
               (640, 480))


class TestLanesOwnTheArenas:
    """Frames of any shape and dtype share the lanes' arenas; a workspace
    holds only its planes."""

    @staticmethod
    def _frames():
        frames = []
        for j, shape in enumerate(_JOB_SHAPES):
            frame = _natural(shape, seed=j)
            frames += [frame, frame.astype(np.float64)]
        return frames

    @staticmethod
    def _sharpen_all(frames):
        for frame in frames:
            final, mean = strips.run(
                frame, SharpnessParams(), strips.Workspace(*frame.shape), (),
                NULL_CONTEXT.trace)
            ref = algo.sharpen(frame)
            assert np.array_equal(final, ref["final"])
            assert mean == ref["edge_mean"]

    def test_arenas_do_not_grow_with_shapes(self, monkeypatch):
        lanes = strips.StripLanes(2)
        monkeypatch.setattr(strips, "STRIP_LANES", lanes)
        frames = self._frames()
        self._sharpen_all(frames[:1])
        assert lanes.arenas == 1  # 256 x 256 is a single strip
        self._sharpen_all(frames)
        # Two lanes per pass, one pass at a time: two arenas for twelve
        # shapes and dtypes, all of them back in the free list.
        assert lanes.arenas == 2
        assert len(lanes._free) == 2
        # None larger than the largest strip, a float one, needs.
        largest = max(strips._layout_bytes(
            strips._layout(strips.strip_rows(h, w), w, False))
            for h, w in _JOB_SHAPES)
        sizes = [arena.arena.nbytes for arena in lanes._free]
        assert 0 <= max(sizes) - largest < 8
        assert all(len(arena._views) <= 16 for arena in lanes._free)
        assert lanes.busy() == 0

    def test_two_threads_share_the_arenas(self, monkeypatch):
        lanes = strips.StripLanes(2)
        monkeypatch.setattr(strips, "STRIP_LANES", lanes)
        frames = self._frames()
        errors = []

        def work(order):
            try:
                self._sharpen_all(frames[::order])
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(order,))
                       for order in (1, -1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        # At most two lanes for a pass that starts alone plus one for the
        # other frame's pass, whatever the shapes.
        assert 2 <= lanes.arenas <= 3
        assert len(lanes._free) == lanes.arenas
        assert lanes.busy() == 0

    def test_grows_in_place_and_drops_its_views(self):
        arena = strips.StripScratch()
        small = arena.views(3, 64, True)
        store = arena.arena
        assert arena.views(3, 64, True) is small
        narrow = arena.views(3, 32, True)  # a smaller strip fits
        assert arena.arena is store and np.shares_memory(narrow.err, store)
        big = arena.views(9, 64, False)
        assert arena.arena is not store
        assert arena.arena.nbytes >= strips._layout_bytes(
            strips._layout(9, 64, False))
        assert list(arena._views) == [(9, 64, False)]
        assert np.shares_memory(big.err, arena.arena)
        assert arena.views(3, 64, True) is not small
