"""Stream processing and the copy/compute-overlap model."""

import io

import numpy as np
import pytest

from repro.core import (
    BASE,
    OPTIMIZED,
    GPUPipeline,
    StreamProcessor,
    overlap_stream,
)
from repro.errors import ValidationError
from repro.obs import RunContext
from repro.resilience import FaultPlan, ResilienceConfig, RetryPolicy
from repro.types import Image
from repro.util import images


@pytest.fixture(scope="module")
def frames():
    return [Image.from_array(f)
            for f in images.video_sequence(64, 64, 4, seed=8)]


class TestStreamProcessor:
    def test_outputs_match_single_runs(self, frames):
        stream = StreamProcessor(OPTIMIZED, keep_outputs=True).run(frames)
        pipe = GPUPipeline(OPTIMIZED)
        for frame, out in zip(frames, stream.outputs):
            assert np.array_equal(out, pipe.run(frame).final)

    def test_frame_stats_decompose_serial_time(self, frames):
        stream = StreamProcessor(OPTIMIZED).run(frames)
        for f in stream.frames:
            assert f.serial_time == pytest.approx(
                f.transfer_time + f.device_time + f.host_time, rel=1e-9)

    def test_total_and_fps(self, frames):
        stream = StreamProcessor(OPTIMIZED).run(frames)
        assert stream.n_frames == 4
        assert stream.total_time == pytest.approx(
            sum(f.serial_time for f in stream.frames))
        assert stream.fps == pytest.approx(
            stream.n_frames / stream.total_time)

    def test_outputs_not_kept_by_default(self, frames):
        stream = StreamProcessor(OPTIMIZED).run(frames)
        assert stream.outputs == []

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            StreamProcessor(OPTIMIZED).run([])

    def test_accepts_raw_arrays(self):
        stream = StreamProcessor(OPTIMIZED).run(
            images.video_sequence(32, 32, 2, seed=1))
        assert stream.n_frames == 2

    def test_sustains_target(self, frames):
        stream = StreamProcessor(OPTIMIZED).run(frames)
        assert stream.sustains(1.0)             # trivially
        assert not stream.sustains(1e9)         # impossible
        with pytest.raises(ValidationError):
            stream.sustains(0.0)


class TestStreamObservability:
    def test_run_context_threads_through_frames(self, frames):
        stream = io.StringIO()
        obs = RunContext.create("stream-test", log_level="info",
                                log_stream=stream)
        StreamProcessor(OPTIMIZED, obs=obs).run(frames)
        text = obs.metrics.to_prometheus_text()
        # Per-frame pipeline metrics land in the shared registry...
        assert "repro_pipeline_runs_total" in text
        # ...and the stream layer publishes its simulated throughput.
        assert "repro_stream_fps" in text
        assert "stream.complete" in stream.getvalue()

    def test_frames_nest_under_stream_span(self, frames):
        obs = RunContext.create("stream-test", log_level="error",
                                log_stream=io.StringIO())
        StreamProcessor(OPTIMIZED, obs=obs).run(frames)
        (root,) = [s for s in obs.trace.spans if s.name == "stream.run"]
        runs = [s for s in obs.trace.spans if s.name == "gpu.run"]
        assert len(runs) == len(frames)
        for span in runs:
            ancestors = []
            while span.parent is not None:
                span = span.parent
                ancestors.append(span)
            assert root in ancestors


class TestOverlapModel:
    def test_overlap_never_slower(self, frames):
        serial = StreamProcessor(OPTIMIZED).run(frames)
        overlap = StreamProcessor(OPTIMIZED,
                                  overlap_transfers=True).run(frames)
        assert overlap.total_time <= serial.total_time

    def test_failed_frames_left_out_of_schedule(self, frames):
        plan = FaultPlan.parse(
            "worker:rate=1.0,kind=permanent,after=1,max=1;seed=0")
        obs = RunContext.create(log_level="error", log_stream=io.StringIO(),
                                faults=plan)
        cfg = ResilienceConfig(retry=RetryPolicy(max_attempts=1),
                               fallback=False, isolate=True)
        stream = StreamProcessor(OPTIMIZED, overlap_transfers=True, obs=obs,
                                 resilience=cfg).run(frames)
        assert [f.ok for f in stream.frames] == [True, False, True, True]
        served = [f.timeline for f in stream.frames if f.ok]
        assert stream.total_time == overlap_stream(served).total
        # Throughput is per served frame: the failed slot adds no time.
        assert stream.n_served == 3
        assert stream.fps == pytest.approx(3 / stream.total_time)

    def test_stream_with_no_served_frame(self, frames):
        plan = FaultPlan.parse("worker:rate=1.0,kind=permanent;seed=0")
        log = io.StringIO()
        obs = RunContext.create(log_level="info", log_stream=log,
                                faults=plan)
        cfg = ResilienceConfig(retry=RetryPolicy(max_attempts=1),
                               fallback=False, isolate=True)
        stream = StreamProcessor(OPTIMIZED, overlap_transfers=True, obs=obs,
                                 resilience=cfg).run(frames)
        assert stream.n_frames == 4 and stream.n_served == 0
        assert stream.pipelined_timeline is None
        with pytest.raises(ValidationError, match="served no frames"):
            stream.fps
        with pytest.raises(ValidationError, match="served no frames"):
            stream.sustains(1.0)
        assert "repro_stream_fps" not in obs.metrics.to_prometheus_text()
        assert "served=0" in log.getvalue()

    def test_cpu_fallback_frames_are_scheduled_on_the_host(self, frames):
        plan = FaultPlan.parse("kernel:rate=1.0,kind=permanent;seed=0")
        obs = RunContext.create(log_level="error", log_stream=io.StringIO(),
                                faults=plan)
        cfg = ResilienceConfig(breaker_failures=1)
        stream = StreamProcessor(OPTIMIZED, overlap_transfers=True, obs=obs,
                                 resilience=cfg).run(frames[:3])
        assert [f.backend for f in stream.frames] == ["cpu-fallback"] * 3
        # Host-only timelines run back to back on the one host engine.
        serial = sum(f.serial_time for f in stream.frames)
        assert np.isfinite(stream.total_time)
        assert stream.total_time == pytest.approx(serial, rel=1e-12)

    def test_overlap_gain_bounded_by_transfer_share(self, frames):
        serial = StreamProcessor(OPTIMIZED).run(frames)
        overlap = StreamProcessor(OPTIMIZED,
                                  overlap_transfers=True).run(frames)
        gain = serial.total_time / overlap.total_time
        bound = 1.0 / (1.0 - serial.transfer_share)
        assert 1.0 <= gain <= bound + 1e-9

    def test_transfer_share_larger_for_base(self):
        """The base pipeline moves the pEdge/up matrices over PCI-E, so at
        realistic frame sizes its transfer share (and overlap headroom) is
        larger.  (At small frames the optimized pipeline's fixed rw-call
        overheads and CPU-border transfers dominate instead — the effect
        only flips once the border heuristic moves to the GPU, hence the
        1024x1024 frames here.)"""
        big = images.video_sequence(1024, 1024, 2, seed=8)
        base = StreamProcessor(BASE).run(big)
        opt = StreamProcessor(OPTIMIZED).run(big)
        assert 0.0 < opt.transfer_share < 1.0
        assert base.transfer_share > opt.transfer_share
