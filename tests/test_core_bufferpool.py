"""Buffer pool: reuse identity, bounds, cross-frame hygiene, gauges."""

import io
import threading

import numpy as np
import pytest

from repro.algo import strips
from repro.core import (
    BufferPool,
    ExecutionPlan,
    GPUPipeline,
    OPTIMIZED,
    PlanCache,
    Workspace,
)
from repro.errors import ConfigError
from repro.obs import RunContext
from repro.types import Image
from repro.util import images


def _owned_arrays(obj, seen=None):
    """Every ndarray reachable from ``obj``'s attributes, through lists
    and plain objects (a Workspace's planes, or the strip lanes'
    arenas)."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in _owned_arrays(item, seen)]
    if type(obj).__module__ == strips.__name__:
        return [a for value in vars(obj).values()
                for a in _owned_arrays(value, seen)]
    return []


def _u8(planes):
    return [np.rint(p).astype(np.uint8) for p in planes]


def _poison(dtype):
    """A value no clean frame leaves behind: NaN in a float plane, the
    largest value in an integer one (the ``int16`` pEdge plane)."""
    if dtype == bool:
        return True
    if dtype.kind in "iu":
        return np.iinfo(dtype).max
    return np.nan


class TestWorkspace:
    def test_shape_validation(self):
        for h, w in ((13, 16), (16, 13), (8, 16), (16, 8)):
            with pytest.raises(ConfigError):
                Workspace(h, w)

    def test_edge_ring_zero_on_creation(self):
        ws = Workspace(16, 20)
        assert not ws.edge.any()  # a new pEdge plane is all zero

    def test_reset_restores_edge_ring(self):
        ws = Workspace(16, 16)
        ws.edge[...] = 7.0
        ws.reset()
        assert not ws.edge[0].any() and not ws.edge[-1].any()
        assert not ws.edge[:, 0].any() and not ws.edge[:, -1].any()
        # The interior is recycled dirty by design.
        assert ws.edge[1:-1, 1:-1].any()

    def test_nbytes_positive_and_scales(self):
        assert Workspace(32, 32).nbytes < Workspace(64, 64).nbytes


class TestBufferPool:
    def test_checkout_reuses_checked_in_workspace(self):
        pool = BufferPool()
        ws = pool.checkout(16, 16)
        pool.checkin(ws)
        assert pool.checkout(16, 16) is ws
        stats = pool.stats()
        assert stats == {"in_use": 1, "idle": 0, "created": 1,
                         "reused": 1, "discarded": 0}

    def test_shapes_are_segregated(self):
        pool = BufferPool()
        ws = pool.checkout(16, 16)
        pool.checkin(ws)
        other = pool.checkout(32, 32)
        assert other is not ws
        assert pool.stats()["created"] == 2

    def test_size_bound_discards_surplus(self):
        pool = BufferPool(max_entries=2)
        out = [pool.checkout(16, 16) for _ in range(4)]
        for ws in out:
            pool.checkin(ws)
        stats = pool.stats()
        assert stats["idle"] == 2
        assert stats["discarded"] == 2

    def test_max_entries_validated(self):
        with pytest.raises(ConfigError):
            BufferPool(max_entries=0)

    def test_lease_context_manager(self):
        pool = BufferPool()
        with pool.lease(16, 16) as ws:
            assert isinstance(ws, Workspace)
            assert pool.stats()["in_use"] == 1
        assert pool.stats()["in_use"] == 0
        assert pool.stats()["idle"] == 1

    def test_lease_checks_in_on_error(self):
        pool = BufferPool()
        with pytest.raises(RuntimeError):
            with pool.lease(16, 16):
                raise RuntimeError("boom")
        assert pool.stats()["in_use"] == 0


class TestPoolHygiene:
    """A recycled (dirty) workspace must never leak one frame into the
    next: every cell the executor reads is either written first or part of
    the zeroed pEdge ring."""

    def test_poisoned_workspace_produces_identical_frames(self, monkeypatch):
        # Three-row strips on three lanes, so the lanes hold several
        # arenas, poisoned with the workspace.
        monkeypatch.setattr(strips, "strip_rows", lambda h, w: 3)
        monkeypatch.setattr(strips, "STRIP_LANES", strips.StripLanes(3))
        planes = images.video_sequence(32, 32, 3, seed=5)
        # Float frames read the float64 pEdge plane; 8-bit frames the
        # int16 one, and 8-bit outputs a uint8 plane.
        for frames, out_dtype in [(planes, np.float64),
                                  (_u8(planes), np.float64),
                                  (_u8(planes), np.uint8)]:
            self._check_poisoned([Image.from_array(f) for f in frames],
                                 out_dtype)

    @staticmethod
    def _check_poisoned(frames, out_dtype):
        ref = [GPUPipeline(OPTIMIZED, caching=False).run(
            f, out_dtype=out_dtype).final for f in frames]

        poisoned = GPUPipeline(OPTIMIZED)
        # The plan miss captures by dry run, and its replay builds and
        # parks the workspace; the hit reuses and parks it again.
        poisoned.run(frames[0], out_dtype=out_dtype)
        poisoned.run(frames[0], out_dtype=out_dtype)
        (ws,) = poisoned.buffer_pool._idle[(32, 32)]
        assert ws.strip == 3 and strips.STRIP_LANES.arenas == 3
        arrays = _owned_arrays(ws)
        assert ws.nbytes == sum(a.nbytes for a in arrays)
        arenas = _owned_arrays(strips.STRIP_LANES._free)
        assert len(arenas) == 3
        for a in arrays + arenas:
            a[...] = _poison(a.dtype)
        for f, expected in zip(frames, ref):
            got = poisoned.run(f, out_dtype=out_dtype).final
            assert got.dtype == out_dtype
            assert np.array_equal(got, expected)

    def test_pool_steady_state_allocates_no_workspaces(self):
        frames = images.video_sequence(32, 32, 6, seed=5)
        pipe = GPUPipeline(OPTIMIZED)
        for f in frames:
            pipe.run(f)
        stats = pipe.buffer_pool.stats()
        assert stats["created"] == 1
        # First run is the plan miss: it captures by dry run, then its
        # replay creates the pool's single workspace; the rest reuse it.
        assert stats["reused"] == len(frames) - 1


class TestPoolGauges:
    def test_interleaved_frames_leave_gauges_matching_the_pool(
            self, monkeypatch):
        """Two frames share a pool and a registry; the one that checks in
        first reads the pool (the other still holds a workspace) and then
        stalls before its gauge write while the other finishes.  The last
        write must still show the pool as it stands: nothing checked
        out."""
        obs = RunContext.create("pool-gauges", log_level="warning",
                                log_stream=io.StringIO())
        cache, pool = PlanCache(), BufferPool()
        frame = images.video_sequence(32, 32, 1, seed=5)[0]
        GPUPipeline(OPTIMIZED, obs=obs, plan_cache=cache,
                    buffer_pool=pool).run(frame)  # capture the plan

        both_leased = threading.Barrier(2, timeout=10)
        first_in_write = threading.Event()
        second_done = threading.Event()
        real_execute = ExecutionPlan.execute

        def execute(plan, *args, **kwargs):
            out = real_execute(plan, *args, **kwargs)
            both_leased.wait()
            if threading.current_thread().name == "second":
                first_in_write.wait(timeout=10)
            return out

        gauge = obs.metrics.gauge("repro_bufferpool_in_use")
        real_set = gauge.set

        def set_in_use(value):
            if threading.current_thread().name == "first":
                first_in_write.set()
                # Bounded: a writer that holds the pool's lock here keeps
                # the second frame from checking in until this expires.
                second_done.wait(timeout=1)
            real_set(value)

        monkeypatch.setattr(ExecutionPlan, "execute", execute)
        monkeypatch.setattr(gauge, "set", set_in_use)
        errors = []

        def work():
            try:
                GPUPipeline(OPTIMIZED, obs=obs, plan_cache=cache,
                            buffer_pool=pool).run(frame)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)
            if threading.current_thread().name == "second":
                second_done.set()

        threads = [threading.Thread(target=work, name=name, daemon=True)
                   for name in ("first", "second")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert pool.stats()["in_use"] == 0
        text = obs.metrics.to_prometheus_text()
        assert "repro_bufferpool_in_use 0" in text.splitlines()
        assert "repro_bufferpool_idle 2" in text.splitlines()
