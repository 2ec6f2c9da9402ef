"""Intra-frame DAG overlap: dependency reconstruction and bounds."""

import pytest

from repro.core import (
    BASE,
    OPTIMIZED,
    GPUPipeline,
    overlap_single_run,
    overlap_stream,
    serialization_overhead,
)
from repro.core.dag import READBACK, STAGE_DEPS, UPLOAD, _classify
from repro.errors import ValidationError
from repro.simgpu.profiling import Timeline
from repro.types import Image
from repro.util import images


@pytest.fixture(scope="module")
def run_result():
    img = Image.from_array(images.natural_like(256, 256, seed=31))
    return GPUPipeline(OPTIMIZED).run(img)


class TestClassification:
    def test_readback_split_from_uploads(self, run_result):
        stages = [_classify(e) for e in run_result.timeline.events]
        assert UPLOAD in stages
        assert READBACK in stages

    def test_every_stage_known(self, run_result):
        for flags in (BASE, OPTIMIZED):
            img = Image.from_array(images.natural_like(64, 64, seed=1))
            res = GPUPipeline(flags).run(img)
            for e in res.timeline.events:
                assert _classify(e) in STAGE_DEPS, e.stage


class TestOverlap:
    def test_never_slower_than_serial(self):
        img = Image.from_array(images.natural_like(128, 128, seed=2))
        for flags in (BASE, OPTIMIZED,
                      OPTIMIZED.with_(border_place="gpu")):
            res = GPUPipeline(flags).run(img)
            ov = overlap_single_run(res.timeline)
            assert ov.total <= res.total_time + 1e-15

    def test_bounded_by_busiest_engine(self, run_result):
        ov = overlap_single_run(run_result.timeline)
        by_kind = run_result.timeline.by_kind()
        dma = by_kind.get("transfer", 0.0)
        host = by_kind.get("host", 0.0)
        compute = run_result.total_time - dma - host
        assert ov.total >= max(dma, compute, host) - 1e-15

    def test_work_is_conserved(self, run_result):
        ov = overlap_single_run(run_result.timeline)
        assert sum(e.duration for e in ov.events) == pytest.approx(
            sum(e.duration for e in run_result.timeline.events))

    def test_dependencies_respected(self, run_result):
        """Sharpness cannot start before reduction ends; readback is
        last."""
        ov = overlap_single_run(run_result.timeline)
        by_name = {}
        for e in ov.events:
            by_name.setdefault(e.name.split(":")[0], []).append(e)
        sharp = [e for e in ov.events if "sharpness" in e.name][0]
        red_end = max(e.end for e in ov.events if "reduction" in e.name)
        assert sharp.start >= red_end - 1e-15
        readback = [e for e in ov.events if e.name.startswith("read:final")]
        assert readback and readback[0].start >= sharp.end - 1e-15

    def test_sobel_overlaps_border_roundtrip(self, run_result):
        """The headline win: Sobel only needs the upload, so it runs while
        the CPU-border transfers are in flight (256^2 -> border on CPU)."""
        ov = overlap_single_run(run_result.timeline)
        sobel = [e for e in ov.events if "sobel" in e.name][0]
        border_events = [e for e in ov.events
                         if "down" in e.name or "border" in e.name
                         or e.name == "write:up"]
        border_span = (min(e.start for e in border_events),
                       max(e.end for e in border_events))
        assert sobel.start < border_span[1]  # concurrent, not after

    def test_serialization_overhead_in_unit_interval(self):
        img = Image.from_array(images.natural_like(64, 64, seed=3))
        for flags in (BASE, OPTIMIZED):
            res = GPUPipeline(flags).run(img)
            s = serialization_overhead(res.timeline)
            assert 0.0 <= s < 1.0

    def test_empty_timeline_rejected(self):
        with pytest.raises(ValidationError):
            overlap_single_run(Timeline())

    def test_unknown_stage_rejected(self):
        tl = Timeline()
        tl.record("weird", "kernel", 1e-3, stage="mystery")
        with pytest.raises(ValidationError, match="unknown"):
            overlap_single_run(tl)


def _frame(upload=10.0, kernel=10.0, readback=2.0):
    """One frame's in-order timeline: upload -> sharpness -> readback."""
    tl = Timeline()
    tl.record("write:src", "transfer", upload, stage="data_init")
    tl.record("kernel:sharpness", "kernel", kernel, stage="sharpness")
    if readback:
        tl.record("read:final", "transfer", readback, stage="data_init")
    return tl


class TestOverlapStream:
    def test_single_frame_keeps_its_dependency_chain(self):
        assert overlap_stream([_frame()]).total == 22.0

    def test_two_frames_overlap(self):
        out = overlap_stream([_frame(), _frame()])
        assert out.total < 2 * 22.0  # serial
        assert out.total >= 24.0     # the DMA engine's busy time

    def test_makespan_at_least_bottleneck(self):
        out = overlap_stream([_frame(7.0, 3.0, 0.0)] * 5)
        assert out.total >= 5 * 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            overlap_stream([])

    def test_work_is_conserved(self):
        out = overlap_stream([_frame(10.0, 5.0, 0.0)] * 3)
        assert sum(e.duration for e in out.events) == 3 * 15.0

    def test_gantt_renders_overlap(self):
        out = overlap_stream([_frame(10.0, 10.0, 0.0)] * 2)
        assert "f1:write:src" in out.ascii_gantt(20)
