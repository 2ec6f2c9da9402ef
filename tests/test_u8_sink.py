"""The 8-bit sink: a ``uint8`` output plane holds the bytes of
:func:`repro.util.io.quantize_u8` of the float64 one.

File sinks ask the strip executor for a ``uint8`` output, which pass 2
clips, rounds and stores strip by strip; paths that never run the
executor round their float64 ``final`` at the end.  Every path here must
give ``quantize_u8`` of its own float64 ``final``, with the same
``edge_mean``.
"""

import io

import numpy as np
import pytest

from repro.algo import stages as algo
from repro.core import BASE, OPTIMIZED, BatchEngine, GPUPipeline
from repro.cpu import CPUPipeline
from repro.errors import ValidationError
from repro.obs import RunContext
from repro.resilience import FallbackPipeline, FaultPlan
from repro.types import FrameResult, SharpnessParams, StageTimes
from repro.simgpu.profiling import Timeline
from repro.util import images
from repro.util.io import quantize_u8, read_pgm, write_pgm

from .test_calibration import _DRY_SHAPES

SHAPES = [shape for shape, _ in _DRY_SHAPES]
IDS = [f"{h}x{w}" for h, w in SHAPES]


def _assert_u8_of(got, ref_f64):
    assert got.final.dtype == np.uint8
    assert ref_f64.final.dtype == np.float64
    assert np.array_equal(got.final, quantize_u8(ref_f64.final))
    assert got.edge_mean == ref_f64.edge_mean


class TestOvershootRows:
    """Hand-built preliminary values at the rounding and clipping edges,
    with pixels overshooting both extrema."""

    # Full-width rows; columns 0 and 9 are the border, which the row form
    # stores like any other pixel.  Row 0: extrema 0 and 255, so only
    # values outside [0, 255] overshoot; the rest are clipped and rounded
    # half to even.  Row 1: extrema 10 and 100, with blends that land on
    # .5 and .25 steps.
    PRELIM = np.array([
        [40.0, -3.0, -0.5, 0.5, 1.5, 2.5, 254.5, 255.5, 300.0, 40.0],
        [40.0, 8.0, 102.0, 9.0, 101.0, 50.5, 51.5, -3.0, 300.0, 40.0],
    ])
    MN = np.array([[0] * 10, [0] + [10] * 8 + [0]])
    MX = np.array([[255] * 10, [255] + [100] * 8 + [255]])
    EXPECTED = np.array([
        [40, 0, 0, 0, 2, 2, 254, 255, 255, 40],
        [40, 10, 100, 10, 100, 50, 52, 7, 150, 40],
    ], dtype=np.uint8)

    def _run(self, dtype, bound_dtype):
        final = np.full((4, 10), 77, dtype=dtype)
        algo.overshoot_rows(self.PRELIM.copy(), self.MN.astype(bound_dtype),
                            self.MX.astype(bound_dtype), 0.25, final, 1)
        return final

    @pytest.mark.parametrize("bound_dtype", [np.uint8, np.float64])
    def test_u8_output_is_quantized_f64_output(self, bound_dtype):
        f64 = self._run(np.float64, bound_dtype)
        u8 = self._run(np.uint8, bound_dtype)
        assert np.array_equal(u8, quantize_u8(f64))
        # Rows [1, 3) are stored whole; no other row is written.
        assert np.array_equal(u8[1:3], self.EXPECTED)
        assert (u8[[0, 3]] == 77).all()

    def test_prelim_must_be_contiguous(self):
        wide = np.zeros((2, 20))
        with pytest.raises(ValidationError):
            algo.overshoot_rows(wide[:, ::2], self.MN, self.MX, 0.25,
                                np.zeros((4, 10)), 1)

    def test_clip_border_rounds_a_u8_ring(self):
        h, w = 6, 8
        rng = np.random.default_rng(3)
        lines = (rng.uniform(-9, 264, w), rng.uniform(-9, 264, w),
                 rng.uniform(-9, 264, h), rng.uniform(-9, 264, h))
        # The corners belong to the side lines.
        lines[0][1:5] = (0.5, 1.5, 254.5, 255.5)
        outs = {}
        for dt in (np.float64, np.uint8):
            outs[dt] = np.zeros((h, w), dtype=dt)
            algo.clip_border(*lines, outs[dt])
        assert np.array_equal(outs[np.uint8], quantize_u8(outs[np.float64]))
        assert list(outs[np.uint8][0, 1:5]) == [0, 2, 254, 255]


def _frame(shape, kind):
    plane = np.rint(images.natural_like(*shape, seed=sum(shape)))
    u8 = plane.astype(np.uint8)
    return u8 if kind == "u8" else u8.astype(np.float64)


def _fallback():
    obs = RunContext.create(
        log_level="error", log_stream=io.StringIO(),
        faults=FaultPlan.parse("kernel:rate=1.0,kind=permanent"))
    return FallbackPipeline(GPUPipeline(OPTIMIZED, obs=obs), obs=obs)


class TestEveryPath:
    """Each path on :data:`_DRY_SHAPES`, for a ``uint8`` frame and the
    same pixels as float64."""

    @pytest.fixture(params=["u8", "float"])
    def kind(self, request):
        return request.param

    @pytest.mark.parametrize("shape", SHAPES, ids=IDS)
    def test_cached_cold_and_warm(self, shape, kind):
        frame = _frame(shape, kind)
        runs = {}
        for dt in (np.float64, np.uint8):
            pipe = GPUPipeline(OPTIMIZED)
            runs[dt] = (pipe.run(frame, out_dtype=dt),
                        pipe.run(frame, out_dtype=dt))
            assert pipe.plan_cache.stats() == {"hits": 1, "misses": 1,
                                               "size": 1}
        for cold_or_warm in (0, 1):
            _assert_u8_of(runs[np.uint8][cold_or_warm],
                          runs[np.float64][cold_or_warm])

    @pytest.mark.parametrize("shape", SHAPES, ids=IDS)
    def test_cpu_and_fallback(self, shape, kind):
        frame = _frame(shape, kind)
        cpu, fallback = CPUPipeline(), _fallback()
        served = {dt: fallback.run(frame, out_dtype=dt)
                  for dt in (np.float64, np.uint8)}
        assert {r.backend for r in served.values()} == {"cpu-fallback"}
        _assert_u8_of(served[np.uint8], served[np.float64])
        _assert_u8_of(cpu.run(frame, out_dtype=np.uint8),
                      cpu.run(frame, out_dtype=np.float64))

    @pytest.mark.parametrize("shape", SHAPES, ids=IDS)
    @pytest.mark.parametrize("flags", [OPTIMIZED, BASE],
                             ids=["optimized", "base"])
    def test_uncached(self, shape, kind, flags):
        frame = _frame(shape, kind)
        pipe = GPUPipeline(flags, caching=False)
        _assert_u8_of(pipe.run(frame, out_dtype=np.uint8),
                      pipe.run(frame, out_dtype=np.float64))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_batch_engine(self, workers):
        frames = [_frame(shape, kind) for shape in SHAPES
                  for kind in ("u8", "float")]
        results = {
            dt: BatchEngine(OPTIMIZED, workers=workers, keep_outputs=True,
                            out_dtype=dt).run(frames)
            for dt in (np.float64, np.uint8)}
        u8, f64 = results[np.uint8], results[np.float64]
        for got, ref in zip(u8.outputs, f64.outputs, strict=True):
            assert got.dtype == np.uint8
            assert np.array_equal(got, quantize_u8(ref))
        assert u8.edge_means == f64.edge_means

    def test_rejects_other_dtypes(self):
        frame = _frame((32, 32), "u8")
        with pytest.raises(ValidationError):
            GPUPipeline(OPTIMIZED).run(frame, out_dtype=np.float32)
        with pytest.raises(ValidationError):
            BatchEngine(OPTIMIZED, out_dtype=np.int16)


class TestOneRoundingRule:
    def _result(self, final):
        return FrameResult(final=final, times=StageTimes(),
                           timeline=Timeline(), edge_mean=0.0)

    def test_final_u8_of_both_dtypes(self):
        f64 = np.array([[-3.0, 0.5, 1.5, 2.5], [254.5, 255.5, 300.0, 7.2]])
        expected = np.array([[0, 0, 2, 2], [254, 255, 255, 7]], np.uint8)
        assert np.array_equal(self._result(f64).final_u8(), expected)
        u8 = expected.copy()
        assert self._result(u8).final_u8() is u8

    def test_quantize_u8_keeps_a_u8_plane(self):
        u8 = np.arange(16, dtype=np.uint8).reshape(4, 4)
        assert quantize_u8(u8) is u8

    def test_write_pgm_of_u8_and_f64(self, tmp_path):
        f64 = np.random.default_rng(1).uniform(-20, 280, (8, 12))
        u8 = quantize_u8(f64)
        write_pgm(tmp_path / "f.pgm", f64)
        write_pgm(tmp_path / "u.pgm", u8)
        write_pgm(tmp_path / "v.pgm", np.asfortranarray(u8)[:, :])
        data = (tmp_path / "u.pgm").read_bytes()
        assert data == b"P5\n12 8\n255\n" + u8.tobytes()
        assert (tmp_path / "f.pgm").read_bytes() == data
        assert (tmp_path / "v.pgm").read_bytes() == data
        assert np.array_equal(read_pgm(tmp_path / "u.pgm"), u8)


def test_params_reach_the_u8_output():
    frame = _frame((64, 64), "u8")
    params = SharpnessParams(gain=2.5, overshoot=0.9)
    pipe = GPUPipeline(OPTIMIZED, params)
    _assert_u8_of(pipe.run(frame, out_dtype=np.uint8),
                  pipe.run(frame, out_dtype=np.float64))
