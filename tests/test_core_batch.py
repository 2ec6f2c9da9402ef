"""Batch engine: ordering, identity with serial runs, and telemetry."""

import io
import time

import numpy as np
import pytest

from repro.core import BatchEngine, GPUPipeline, OPTIMIZED
from repro.core.batch import NoHooks
from repro.errors import ConfigError, ValidationError
from repro.obs import RunContext
from repro.types import Image
from repro.util import images


@pytest.fixture(scope="module")
def frames():
    return [Image.from_array(f)
            for f in images.video_sequence(48, 48, 10, seed=9)]


@pytest.fixture(scope="module")
def serial_finals(frames):
    pipe = GPUPipeline(OPTIMIZED)
    return [pipe.run(f) for f in frames]


class TestBatchEngine:
    def test_outputs_ordered_and_identical_to_serial(self, frames,
                                                     serial_finals):
        result = BatchEngine(OPTIMIZED, workers=3,
                             keep_outputs=True).run(frames)
        assert result.n_frames == len(frames)
        for out, mean, ref in zip(result.outputs, result.edge_means,
                                  serial_finals):
            assert np.array_equal(out, ref.final)
            assert mean == ref.edge_mean

    def test_frame_stats_in_submission_order(self, frames):
        result = BatchEngine(OPTIMIZED, workers=2).run(frames)
        assert [f.index for f in result.frames] == list(range(len(frames)))

    def test_shared_plan_cache_across_workers(self, frames):
        engine = BatchEngine(OPTIMIZED, workers=3)
        result = engine.run(frames)
        stats = result.plan_stats
        # Captures are single-flight: workers that miss the cold key
        # while the first one captures wait for its plan.
        assert stats["misses"] == 1
        assert stats["hits"] == len(frames) - 1
        assert stats["size"] == 1

    def test_throughput_numbers(self, frames):
        result = BatchEngine(OPTIMIZED, workers=2).run(frames)
        assert result.wall_seconds > 0.0
        assert result.frames_per_second == pytest.approx(
            result.n_frames / result.wall_seconds)
        assert result.simulated_fps > 0.0

    def test_accepts_raw_arrays(self):
        result = BatchEngine(OPTIMIZED).run(
            images.video_sequence(32, 32, 3, seed=2))
        assert result.n_frames == 3

    def test_mixed_shapes(self):
        small = images.video_sequence(32, 32, 2, seed=2)
        large = images.video_sequence(48, 48, 2, seed=2)
        result = BatchEngine(OPTIMIZED, keep_outputs=True).run(
            [small[0], large[0], small[1], large[1]])
        shapes = [o.shape for o in result.outputs]
        assert shapes == [(32, 32), (48, 48), (32, 32), (48, 48)]

    @pytest.mark.parametrize("queue_depth", [1, 2, 3])
    def test_a_generator_is_pulled_lazily(self, frames, queue_depth):
        """A generator (``BatchJob``'s and ``--batch``'s file readers) is
        read only as backpressure admits its frames: at most
        ``queue_depth + 1`` are pulled and not yet collected, also with
        two workers while frame 1 stalls and the frames behind it finish
        first (a slot is freed when its frame is collected, not when it
        finishes)."""

        class Collected(NoHooks):
            n = 0

            def frame_started(self, index, frame_id):
                if index == 1:
                    time.sleep(0.3)

            def on_frame(self, **_):
                self.n += 1

        for workers in range(1, min(2, queue_depth) + 1):
            hooks = Collected()
            ahead = []

            def reader():
                for pulled, frame in enumerate(frames, 1):
                    ahead.append(pulled - hooks.n)
                    yield frame

            result = BatchEngine(OPTIMIZED, workers=workers,
                                 queue_depth=queue_depth,
                                 hooks=hooks).run(reader())
            assert result.n_frames == hooks.n == len(frames)
            assert max(ahead) == queue_depth + 1, workers

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            BatchEngine(OPTIMIZED).run([])

    def test_workers_validated(self):
        with pytest.raises(ConfigError):
            BatchEngine(OPTIMIZED, workers=0)

    def test_queue_depth_validated(self):
        with pytest.raises(ConfigError, match="starves"):
            BatchEngine(OPTIMIZED, workers=4, queue_depth=2)

    def test_effective_workers_bounded_by_host(self):
        engine = BatchEngine(OPTIMIZED, workers=64)
        assert 1 <= engine.effective_workers <= 64
        assert engine.workers == 64


class TestBatchObservability:
    def test_metrics_exported(self, frames):
        obs = RunContext.create("batch-test", log_level="warning",
                                log_stream=io.StringIO())
        BatchEngine(OPTIMIZED, workers=2, obs=obs).run(frames)
        text = obs.metrics.to_prometheus_text()
        assert "repro_batch_frames_per_second" in text
        assert "repro_batch_wall_seconds" in text
        assert f"repro_batch_frames_total {len(frames)}" in text
        assert 'repro_plan_cache_requests_total{outcome="hit"}' in text
        assert 'repro_plan_cache_requests_total{outcome="miss"}' in text
        assert "repro_bufferpool_idle" in text

    def test_worker_frames_traced_on_worker_rows(self, frames):
        obs = RunContext.create("batch-test", log_level="warning",
                                log_stream=io.StringIO())
        BatchEngine(OPTIMIZED, workers=2, obs=obs).run(frames[:8])
        events = obs.trace.chrome_trace()["traceEvents"]
        rows = {e["tid"]: e["args"]["name"] for e in events
                if e["name"] == "thread_name" and e["pid"] == 1}
        runs = [e for e in events if e["name"] == "gpu.run"]
        assert len(runs) == 8
        assert all(rows[e["tid"]].startswith("repro-batch") for e in runs)
        (batch,) = [e for e in events if e["name"] == "batch.run"]
        assert not rows[batch["tid"]].startswith("repro-batch")

    def test_batch_complete_logged(self, frames):
        stream = io.StringIO()
        obs = RunContext.create("batch-test", log_level="info",
                                log_stream=stream)
        BatchEngine(OPTIMIZED, workers=2, obs=obs).run(frames)
        assert "batch.complete" in stream.getvalue()
