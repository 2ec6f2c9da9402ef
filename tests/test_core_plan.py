"""Execution-plan cache: keying, correctness, eviction, observability."""

import dataclasses
import io
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro.algo import stages as algo
from repro.algo import strips
from repro.core import (
    BASE,
    LADDER,
    OPTIMIZED,
    GPUPipeline,
    PlanCache,
    PlanKey,
)
from repro.cpu import CPUPipeline
from repro.errors import ConfigError, KernelLaunchFault
from repro.obs import RunContext
from repro.obs.runctx import NULL_CONTEXT
from repro.resilience.faults import FaultPlan, SiteSpec
from repro.simgpu.device import W8000
from repro.types import Image, SharpnessParams
from repro.util import images

from .test_calibration import _DRY_SHAPES


@pytest.fixture(scope="module")
def frames():
    return [Image.from_array(f)
            for f in images.video_sequence(64, 64, 3, seed=8)]


class TestPlanKeying:
    def test_distinct_shapes_get_distinct_plans(self):
        pipe = GPUPipeline(OPTIMIZED)
        for side in (32, 48, 64):
            pipe.run(images.video_sequence(side, side, 1, seed=1)[0])
        assert len(pipe.plan_cache) == 3
        assert pipe.plan_cache.stats()["misses"] == 3
        assert pipe.plan_cache.stats()["hits"] == 0

    def test_distinct_flags_never_share_plans(self, frames):
        cache = PlanCache()
        for _, flags in LADDER:
            GPUPipeline(flags, plan_cache=cache).run(frames[0])
        assert len(cache) == len(LADDER)
        assert cache.stats()["hits"] == 0

    def test_distinct_devices_never_share_plans(self, frames):
        other = dataclasses.replace(W8000, name="other-gpu")
        cache = PlanCache()
        GPUPipeline(OPTIMIZED, plan_cache=cache).run(frames[0])
        GPUPipeline(OPTIMIZED, device=other, plan_cache=cache).run(frames[0])
        assert len(cache) == 2

    def test_same_config_hits(self, frames):
        pipe = GPUPipeline(OPTIMIZED)
        for f in frames:
            pipe.run(f)
        stats = pipe.plan_cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == len(frames) - 1

    def test_key_is_hashable_and_comparable(self):
        k1 = PlanKey(64, 64, OPTIMIZED, W8000,
                     GPUPipeline().cpu, "functional")
        k2 = PlanKey(64, 64, OPTIMIZED, W8000,
                     GPUPipeline().cpu, "functional")
        assert k1 == k2 and hash(k1) == hash(k2)


class TestPlanCorrectness:
    @pytest.mark.parametrize("name,flags",
                             [(n, f) for n, f in LADDER],
                             ids=[n for n, _ in LADDER])
    def test_cached_bit_identical_across_ladder(self, frames, name, flags):
        uncached = GPUPipeline(flags, caching=False)
        cached = GPUPipeline(flags)
        for f in frames:
            ref = uncached.run(f)
            got = cached.run(f)
            assert np.array_equal(got.final, ref.final)
            assert got.edge_mean == ref.edge_mean
        assert cached.plan_cache.stats()["hits"] == len(frames) - 1

    def test_cached_preserves_simulated_results(self):
        """Every FrameResult field of an uncached frame, a cold cached one
        and a warm one agree, for every ladder step on every dry-run
        shape (both border placements, both reduction chains)."""
        def fields(res):
            return (res.final.dtype, res.final.tobytes(), res.edge_mean,
                    res.times.times,
                    [(ev.name, ev.kind, ev.stage, ev.start, ev.end)
                     for ev in res.timeline.events],
                    res.total_time, res.kernel_launches,
                    res.border_ran_on_gpu, res.reduction_stage2_on_gpu,
                    res.flags, res.backend)

        for shape, stage2 in _DRY_SHAPES:
            image = _frame(shape, "u8", seed=4)
            for name, flags in LADDER:
                if stage2 is not None:
                    flags = flags.with_(reduction_stage2=stage2)
                ref = fields(GPUPipeline(flags, caching=False).run(image))
                cached = GPUPipeline(flags)
                cold, warm = cached.run(image), cached.run(image)
                assert fields(cold) == ref, (name, shape)
                assert fields(warm) == ref, (name, shape)

    def test_two_level_reduction_chain(self):
        """More than one workgroup span of stage-1 partials, with stage 2
        on the GPU: the plan's chain has two levels, and replay folds
        pEdge through it to the generic run's exact mean."""
        shape = (1024, 1028)  # 1028 stage-1 groups of 1024 elements
        flags = OPTIMIZED.with_(reduction_stage2="gpu")
        frame = _frame(shape, "float", seed=5)
        pipe = GPUPipeline(flags)
        pipe.run(frame)  # capture
        got = pipe.run(frame)
        plan = pipe.plan_cache.get(PlanKey(*shape, flags, W8000, pipe.cpu,
                                           "functional"))
        assert plan.reduction_levels == ((shape[0] * shape[1], 1028),
                                         (1028, 2))
        ref = GPUPipeline(flags, caching=False).run(frame)
        assert ref.reduction_stage2_on_gpu and got.reduction_stage2_on_gpu
        assert np.array_equal(got.final, ref.final)
        assert got.edge_mean == ref.edge_mean
        edge = algo.sobel(frame)
        assert algo.reduce_mean(edge, plan.reduction_levels) == \
            ref.edge_mean

    def test_rectangular_frames(self):
        plane = images.video_sequence(32, 64, 2, seed=3)
        uncached = GPUPipeline(BASE, caching=False)
        cached = GPUPipeline(BASE)
        for f in plane:
            assert np.array_equal(cached.run(f).final,
                                  uncached.run(f).final)


#: A 2048-wide frame two strips and four rows tall: its interior rows end
#: in a ragged two-row strip.
_STRIP_2048 = strips.strip_rows(4096, 2048)
_RAGGED = (2 * _STRIP_2048 + 4, 2048)
#: A 2048-wide frame 68 rows tall: one strip then a ragged two-row
#: strip.
_SHORT_RAGGED = (68, 2048)


def _frame(shape, kind, seed):
    plane = images.video_sequence(*shape, 1, seed=seed)[0]
    return np.rint(plane).astype(np.uint8) if kind == "u8" else plane


def _small_strips(monkeypatch, rows, cpus):
    """Strips of ``rows`` rows, on ``cpus`` lanes regardless of the
    host."""
    monkeypatch.setattr(strips, "strip_rows",
                        lambda h, w: max(1, min(h - 2, rows)))
    monkeypatch.setattr(strips, "STRIP_LANES", strips.StripLanes(cpus))


class TestStripExecutor:
    @pytest.mark.parametrize("kind", ["u8", "float"])
    @pytest.mark.parametrize("flags", [OPTIMIZED, BASE],
                             ids=["optimized", "base"])
    @pytest.mark.parametrize("shape", [(16, 16), (20, 36), (640, 480),
                                       _SHORT_RAGGED, _RAGGED], ids=str)
    def test_bit_identical_on_ragged_and_minimal_shapes(self, shape, flags,
                                                        kind):
        frame = _frame(shape, kind, seed=11)
        pipe = GPUPipeline(flags)
        pipe.run(frame)  # capture
        got = pipe.run(frame)
        assert pipe.plan_cache.stats()["hits"] == 1
        ref = GPUPipeline(flags, caching=False).run(frame)
        assert np.array_equal(got.final, ref.final)
        assert got.edge_mean == ref.edge_mean
        canon = algo.sharpen(frame)
        if kind == "u8" or not flags.reduction_on_gpu:
            assert np.array_equal(got.final, canon["final"])
            assert got.edge_mean == canon["edge_mean"]
        else:
            # The device reduction adds workgroup partials, a different
            # association than the flat sum of algo.reduce_mean; on
            # non-integer edge maps the mean may differ in the last bits.
            np.testing.assert_allclose(got.edge_mean, canon["edge_mean"],
                                       rtol=1e-12)
            np.testing.assert_allclose(got.final, canon["final"],
                                       rtol=1e-9, atol=1e-9)

    def test_ragged_shape_really_has_a_ragged_strip(self):
        h, w = _RAGGED
        strip = strips.strip_rows(h, w)
        assert strip == _STRIP_2048 and (h - 2) % strip == 2
        h, w = _SHORT_RAGGED
        assert (h - 2) // strips.strip_rows(h, w) == 1
        assert (h - 2) % strips.strip_rows(h, w) == 2

    @pytest.mark.parametrize("rows", [1, 3, 5])
    def test_multi_lane_equals_single_lane(self, monkeypatch, rows):
        frames = [_frame((36, 64), "float", seed=s) for s in (1, 2)]
        outputs, cpu_outputs = {}, {}
        for cpus in (1, 4):
            _small_strips(monkeypatch, rows, cpus)
            pipe = GPUPipeline(OPTIMIZED)
            pipe.run(frames[0])
            outputs[cpus] = [pipe.run(f) for f in frames]
            (ws,) = pipe.buffer_pool._idle[(36, 64)]
            assert ws.strip == rows
            assert strips.STRIP_LANES.arenas == min(cpus, -(-34 // rows))
            # The CPU pipeline runs the same strips with the flat mean.
            cpu_outputs[cpus] = [CPUPipeline().run(f) for f in frames]
        generic = GPUPipeline(OPTIMIZED, caching=False)
        for f, one, many, cpu_one, cpu_many in zip(
                frames, outputs[1], outputs[4], cpu_outputs[1],
                cpu_outputs[4]):
            ref = generic.run(f)
            assert np.array_equal(one.final, ref.final)
            assert np.array_equal(many.final, ref.final)
            assert one.edge_mean == many.edge_mean == ref.edge_mean
            canon = algo.sharpen(f)
            assert np.array_equal(cpu_one.final, canon["final"])
            assert np.array_equal(cpu_many.final, canon["final"])
            assert cpu_one.edge_mean == cpu_many.edge_mean == \
                canon["edge_mean"]
        assert strips.STRIP_LANES.busy() == 0

    @pytest.mark.parametrize("rows", [1, 3])
    def test_u8_strips_on_two_lanes(self, monkeypatch, rows):
        # Strips of 1 and 3 rows (34 interior rows: the 3-row strips end
        # in a ragged one) on two lanes, for 8-bit frames.
        _small_strips(monkeypatch, rows, 2)
        frames = [_frame((36, 64), "u8", seed=s) for s in (1, 2)]
        pipe = GPUPipeline(OPTIMIZED)
        pipe.run(frames[0])  # capture
        generic = GPUPipeline(OPTIMIZED, caching=False)
        for f in frames:
            got = pipe.run(f)
            cpu = CPUPipeline().run(f)
            ref = generic.run(f)
            canon = algo.sharpen(f)
            for res in (got, cpu):
                assert np.array_equal(res.final, ref.final)
                assert np.array_equal(res.final, canon["final"])
                assert res.edge_mean == ref.edge_mean == canon["edge_mean"]
        (ws,) = pipe.buffer_pool._idle[(36, 64)]
        assert ws.strip == rows and strips.STRIP_LANES.arenas == 2
        assert strips.STRIP_LANES.busy() == 0


def _traced_peak(fn):
    """``(result, peak)``: what ``fn()`` returns, and the most memory
    traced above the level at its start while it ran."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - base


#: What a warm frame may allocate beyond its output plane (and the 8-bit
#: image's own copy of its pixels): 448 KiB, pinned as a number.  The
#: most measured on pitch-linear strips was 406 KiB (1024², NumPy 2.4.6),
#: most of it the overshoot blend's index temporaries.
_WARM_ALLOC_BOUND = 448 << 10


class TestStripAllocations:
    """A warm frame allocates the 8-bit image's own copy of its pixels,
    less than :data:`_WARM_ALLOC_BOUND` of temporaries, and an output
    plane only while its workspace's last one is still referenced."""

    @staticmethod
    def _warm_strips_run(monkeypatch, side, kind, out_dtype):
        monkeypatch.setattr(strips, "STRIP_LANES", strips.StripLanes(2))
        frame = Image.from_array(_frame((side, side), kind, seed=4)).pixels
        ws = strips.Workspace(side, side)
        params = SharpnessParams()

        def run():
            ws.reset()
            return strips.run(frame, params, ws, (), NULL_CONTEXT.trace,
                              out_dtype=out_dtype)

        run()  # warm: both lanes' scratch and the helper thread
        (final, _), peak = _traced_peak(run)
        assert final.dtype == out_dtype
        assert peak - final.nbytes < _WARM_ALLOC_BOUND

    @pytest.mark.parametrize("kind", ["u8", "float"])
    @pytest.mark.parametrize("side", [512, 1024])
    def test_warm_strips_run(self, monkeypatch, side, kind):
        self._warm_strips_run(monkeypatch, side, kind, np.float64)

    @pytest.mark.parametrize("kind", ["u8", "float"])
    @pytest.mark.parametrize("side", [512, 1024])
    def test_warm_strips_run_to_u8(self, monkeypatch, side, kind):
        # A file sink's output: pass 2 rounds each strip in its arena.
        self._warm_strips_run(monkeypatch, side, kind, np.uint8)

    @pytest.mark.parametrize("kind", ["u8", "float"])
    @pytest.mark.parametrize("side", [512, 1024])
    def test_cpu_frame_on_warm_lanes(self, monkeypatch, side, kind):
        # The CPU pipeline leases its workspace from its pool; on warm
        # lanes a frame allocates its output plane and temporaries, and no
        # workspace plane or strip arena.
        monkeypatch.setattr(strips, "STRIP_LANES", strips.StripLanes(2))
        image = Image.from_array(_frame((side, side), kind, seed=4))
        pipe = CPUPipeline()
        pipe.run(image)  # warm: the pooled workspace, both lanes' arenas
        result, peak = _traced_peak(lambda: pipe.run(image))
        assert peak < result.final.nbytes + _WARM_ALLOC_BOUND

    @staticmethod
    def _warm_gpu_run(monkeypatch, side, out_dtype):
        # The previous frame's result is dropped, so the pooled workspace
        # hands its output plane out again: the frame allocates the 8-bit
        # image's copy of its pixels and temporaries, and no plane.
        monkeypatch.setattr(strips, "STRIP_LANES", strips.StripLanes(2))
        frame = _frame((side, side), "u8", seed=4)
        pipe = GPUPipeline(OPTIMIZED)
        pipe.run(frame, out_dtype=out_dtype)  # capture
        pipe.run(frame, out_dtype=out_dtype)  # warm the workspace's lanes
        result, peak = _traced_peak(
            lambda: pipe.run(frame, out_dtype=out_dtype))
        assert pipe.plan_cache.stats()["hits"] == 2
        assert result.final.dtype == out_dtype
        assert peak < frame.size + _WARM_ALLOC_BOUND

    @pytest.mark.parametrize("side", [512, 1024])
    def test_warm_gpu_run_of_u8(self, monkeypatch, side):
        self._warm_gpu_run(monkeypatch, side, np.float64)

    @pytest.mark.parametrize("side", [512, 1024])
    def test_warm_gpu_run_of_u8_to_u8(self, monkeypatch, side):
        self._warm_gpu_run(monkeypatch, side, np.uint8)


class TestStripConcurrency:
    def test_simultaneous_replays_share_one_pipeline(self, monkeypatch):
        # More lanes and threads than the host has cores, and a short
        # switch interval, so lanes of both frames interleave.
        _small_strips(monkeypatch, rows=3, cpus=4)
        frames = [_frame((64, 64), "u8", seed=s) for s in range(4)]
        refs = [algo.sharpen(f)["final"] for f in frames]
        pipe = GPUPipeline(OPTIMIZED)
        pipe.run(frames[0])  # capture
        barrier = threading.Barrier(2, timeout=30)
        results = {}

        def replay(tid):
            barrier.wait()
            results[tid] = [pipe.run(f).final for f in frames]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=replay, args=(t,))
                       for t in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(results) == [0, 1]
        for outs in results.values():
            for got, ref in zip(outs, refs):
                assert np.array_equal(got, ref)
        assert strips.STRIP_LANES.busy() == 0
        assert pipe.buffer_pool.stats()["in_use"] == 0

    def test_failing_lane_reaches_the_caller(self, monkeypatch):
        _small_strips(monkeypatch, rows=3, cpus=4)
        frame = _frame((36, 64), "u8", seed=3)
        obs = RunContext.create("lane-fail", log_level="warning",
                                log_stream=io.StringIO())
        pipe = GPUPipeline(OPTIMIZED, obs=obs)
        pipe.run(frame)  # capture
        original = strips._sharpen_strip

        def failing(plane, ws, r0, r1, *args):
            if r0 > 1:
                raise RuntimeError(f"lane failed at row {r0}")
            original(plane, ws, r0, r1, *args)

        monkeypatch.setattr(strips, "_sharpen_strip", failing)
        with pytest.raises(RuntimeError, match="lane failed"):
            pipe.run(frame)
        # The phases that ran are still traced; the failing one says so.
        failed_run = [s for s in obs.trace.spans if s.name == "gpu.run"][1]
        phases = [s for s in obs.trace.spans if s.parent is failed_run]
        assert [s.name for s in phases] == list(strips.PHASES)
        assert [s.args.get("error", False) for s in phases] == [
            False, False, True]
        assert pipe.buffer_pool.stats()["in_use"] == 0
        assert strips.STRIP_LANES.busy() == 0
        # The workspace the failed frame used is clean for the next one.
        monkeypatch.setattr(strips, "_sharpen_strip", original)
        assert np.array_equal(pipe.run(frame).final,
                              algo.sharpen(frame)["final"])


class TestSingleFlightCapture:
    """Pipelines sharing one cache miss one cold key at the same time."""

    N = 4

    def _race(self, monkeypatch, frame, *, capture_fails=False):
        cache = PlanCache()
        start = threading.Barrier(self.N)
        lock = threading.Lock()
        entered, captures = [], []
        real_lookup = cache.get_or_capture
        real_run = GPUPipeline._run_instrumented

        def get_or_capture(key, capture):
            start.wait(timeout=10)
            with lock:
                entered.append(key)
            return real_lookup(key, capture)

        def run_instrumented(pipe, image, obs):
            with lock:
                captures.append(threading.get_ident())
                first = len(captures) == 1
            # Hold the capture open until every thread has looked up.
            deadline = time.monotonic() + 10
            while len(entered) < self.N and time.monotonic() < deadline:
                time.sleep(0.001)
            if first and capture_fails:
                raise KernelLaunchFault("capture failed")
            return real_run(pipe, image, obs)

        monkeypatch.setattr(cache, "get_or_capture", get_or_capture)
        monkeypatch.setattr(GPUPipeline, "_run_instrumented",
                            run_instrumented)
        outcomes = [None] * self.N

        def work(i):
            try:
                outcomes[i] = GPUPipeline(OPTIMIZED,
                                          plan_cache=cache).run(frame)
            except KernelLaunchFault as exc:
                outcomes[i] = exc

        # Daemon threads: a waiter left hanging fails the test below
        # instead of blocking the interpreter's exit.
        threads = [threading.Thread(target=work, args=(i,), daemon=True)
                   for i in range(self.N)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        return cache, captures, outcomes

    def test_one_capture_and_the_other_misses_hit(self, monkeypatch,
                                                 frames):
        cache, captures, outcomes = self._race(monkeypatch, frames[0])
        assert len(captures) == 1
        assert cache.stats() == {"hits": self.N - 1, "misses": 1,
                                 "size": 1}
        for res in outcomes:
            assert np.array_equal(res.final, outcomes[0].final)

    def test_failed_capture_wakes_the_waiters(self, monkeypatch, frames):
        cache, _, outcomes = self._race(monkeypatch, frames[0],
                                        capture_fails=True)
        failed = [o for o in outcomes if isinstance(o, KernelLaunchFault)]
        assert len(failed) == 1
        # Every waiter woke up and was served (generic or replayed).
        assert len(cache) == 1
        stats = cache.stats()
        assert stats["misses"] >= 2
        assert stats["hits"] + stats["misses"] == self.N
        ref = GPUPipeline(OPTIMIZED).run(frames[0]).final
        for res in outcomes:
            if not isinstance(res, KernelLaunchFault):
                assert np.array_equal(res.final, ref)

    def test_failed_capture_leaves_the_key_capturable(self):
        cache = PlanCache()

        def fail():
            raise KernelLaunchFault("capture failed")

        with pytest.raises(KernelLaunchFault):
            cache.get_or_capture("key", fail)
        plan = object()
        assert cache.get_or_capture("key", lambda: plan) == (plan, False)
        assert cache.get_or_capture("key", fail) == (plan, True)
        assert cache.stats() == {"hits": 1, "misses": 2, "size": 1}


class TestPlanBypass:
    def test_emulate_mode_bypasses_cache(self):
        pipe = GPUPipeline(OPTIMIZED, mode="emulate")
        frame = images.video_sequence(16, 16, 1, seed=1)[0]
        pipe.run(frame)
        pipe.run(frame)
        assert len(pipe.plan_cache) == 0
        assert pipe.plan_cache.stats() == {"hits": 0, "misses": 0,
                                           "size": 0}

    def test_caching_off_has_no_cache(self, frames):
        pipe = GPUPipeline(OPTIMIZED, caching=False)
        pipe.run(frames[0])
        assert pipe.plan_cache is None
        assert pipe.buffer_pool is None


class TestPlanCacheLRU:
    def test_eviction_respects_maxsize(self):
        cache = PlanCache(maxsize=2)
        pipe = GPUPipeline(OPTIMIZED, plan_cache=cache)
        for side in (32, 48, 64):
            pipe.run(images.video_sequence(side, side, 1, seed=1)[0])
        assert len(cache) == 2
        # 32x32 was evicted (least recently used): re-running misses again.
        misses = cache.stats()["misses"]
        pipe.run(images.video_sequence(32, 32, 1, seed=1)[0])
        assert cache.stats()["misses"] == misses + 1

    def test_maxsize_validated(self):
        with pytest.raises(ConfigError):
            PlanCache(maxsize=0)

    def test_clear(self, frames):
        pipe = GPUPipeline(OPTIMIZED)
        pipe.run(frames[0])
        assert len(pipe.plan_cache) == 1
        pipe.plan_cache.clear()
        assert len(pipe.plan_cache) == 0


class TestPlanObservability:
    def test_hit_miss_counters_in_prometheus(self, frames):
        obs = RunContext.create("plan-test", log_level="warning",
                                log_stream=io.StringIO())
        pipe = GPUPipeline(OPTIMIZED, obs=obs)
        for f in frames:
            pipe.run(f)
        text = obs.metrics.to_prometheus_text()
        assert 'repro_plan_cache_requests_total{outcome="miss"} 1' in text
        assert ('repro_plan_cache_requests_total{outcome="hit"} '
                f'{len(frames) - 1}') in text

    def test_cached_runs_replay_queue_metrics(self, frames):
        def totals(n_runs):
            obs = RunContext.create("plan-test", log_level="warning",
                                    log_stream=io.StringIO())
            pipe = GPUPipeline(OPTIMIZED, obs=obs,
                               caching=(n_runs > 1))
            for _ in range(n_runs):
                pipe.run(frames[0])
            return obs.metrics.to_prometheus_text()

        replayed = ("repro_cl_commands_total",
                    "repro_cl_transfer_bytes_total",
                    "repro_cl_kernel_seconds_count",
                    "repro_cl_kernel_seconds_sum")

        def series(text):
            return {line.split()[0]: float(line.split()[1])
                    for line in text.splitlines()
                    if line.startswith(replayed)}

        lines_once = series(totals(1))
        lines_twice = series(totals(2))
        assert any(k.startswith("repro_cl_kernel_seconds_sum")
                   for k in lines_once)
        # A cached second run must double every queue-level total exactly:
        # generic and replayed frames both write them from the same
        # timeline, so each kernel's duration sum doubles to the last bit.
        for key, value in lines_once.items():
            assert lines_twice[key] == 2 * value, key

    def test_cached_and_uncached_telemetry_byte_identical(self, frames):
        """Every metric family both paths write exports the same lines
        for the same frames, cached or not."""
        shared = ("repro_stage_seconds", "repro_pipeline_runs_total",
                  "repro_pipeline_simulated_seconds", "repro_cl_")

        def lines(caching):
            obs = RunContext.create("plan-test", log_level="warning",
                                    log_stream=io.StringIO())
            pipe = GPUPipeline(OPTIMIZED, obs=obs, caching=caching)
            for f in frames:
                pipe.run(f)
            return [line for line in
                    obs.metrics.to_prometheus_text().splitlines()
                    if line.removeprefix("# HELP ").removeprefix(
                        "# TYPE ").startswith(shared)]

        uncached = lines(False)
        assert any(line.startswith("repro_stage_seconds_bucket")
                   for line in uncached)
        assert any(line.startswith("repro_cl_kernel_seconds_sum")
                   for line in uncached)
        assert lines(True) == uncached


class TestCaptureFrame:
    """A cold key is captured by a dry run and its frame is served by the
    same replay as every hit."""

    @staticmethod
    def _spy_sites(monkeypatch):
        """Record every ``FaultPlan.check`` as ``(site, detail)``."""
        sites = []
        real = FaultPlan.check

        def check(plan, site, obs=None, *, detail="", **kwargs):
            sites.append((site, detail))
            return real(plan, site, obs, detail=detail, **kwargs)

        monkeypatch.setattr(FaultPlan, "check", check)
        return sites

    @staticmethod
    def _obs(faults=None):
        return RunContext.create("capture-test", log_level="warning",
                                 log_stream=io.StringIO(), faults=faults)

    @pytest.mark.parametrize("flags", [f for _, f in LADDER],
                             ids=[n for n, _ in LADDER])
    def test_fault_sites_in_uncached_order(self, monkeypatch, frames, flags):
        sites = self._spy_sites(monkeypatch)
        # A plan whose only site (worker) a pipeline never passes, so
        # every check the spy sees returns without a fault.
        faults = FaultPlan({"worker": SiteSpec(rate=1.0)})
        GPUPipeline(flags, caching=False,
                    obs=self._obs(faults)).run(frames[0])
        uncached = sites[:]
        sites.clear()
        pipe = GPUPipeline(flags, obs=self._obs(faults))
        pipe.run(frames[0])
        cold = sites[:]
        sites.clear()
        pipe.run(frames[0])
        warm = sites[:]

        lease = ("oom", "checkout:64x64")
        assert len(uncached) > 2
        assert lease not in uncached
        # The dry run passes the queue's real sites in the uncached order;
        # then the replay leases its workspace.
        assert cold == uncached + [lease]
        assert warm == [("transfer", "plan-replay"),
                        ("kernel", "plan-replay"), lease]

    def test_cold_frame_writes_the_uncached_queue_series(self, frames):
        def queue_lines(caching):
            obs = self._obs()
            GPUPipeline(OPTIMIZED, obs=obs, caching=caching).run(frames[0])
            return [line for line in
                    obs.metrics.to_prometheus_text().splitlines()
                    if "repro_cl_" in line]

        uncached = queue_lines(False)
        assert any(line.startswith("repro_cl_kernel_seconds_sum")
                   for line in uncached)
        assert queue_lines(True) == uncached

    def test_failed_dry_run_caches_nothing(self, frames):
        faults = FaultPlan({"kernel": SiteSpec(rate=1.0, kind="permanent",
                                               max_faults=1)})
        pipe = GPUPipeline(OPTIMIZED, obs=self._obs(faults))
        with pytest.raises(KernelLaunchFault):
            pipe.run(frames[0])
        assert len(pipe.plan_cache) == 0
        assert pipe.buffer_pool.stats()["created"] == 0
        got = pipe.run(frames[0])
        assert pipe.plan_cache.stats() == {"hits": 0, "misses": 2,
                                           "size": 1}
        ref = GPUPipeline(OPTIMIZED, caching=False).run(frames[0])
        assert np.array_equal(got.final, ref.final)
        assert got.edge_mean == ref.edge_mean

    @pytest.mark.parametrize("flags", [f for _, f in LADDER],
                             ids=[n for n, _ in LADDER])
    def test_cold_u8_run_leaves_float_plane_unbuilt(self, flags):
        image = Image.from_array(_frame((64, 64), "u8", seed=2))
        got = GPUPipeline(flags).run(image)
        assert image._plane is None
        assert np.array_equal(
            got.final, GPUPipeline(flags, caching=False).run(image).final)
