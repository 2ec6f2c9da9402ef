"""Output planes a caller still holds are never handed out again.

A pooled :class:`~repro.algo.strips.Workspace` keeps the output plane it
last handed out and hands it out again once nothing but the workspace
references it (:meth:`~repro.algo.strips.Workspace.output`).  Each test
here keeps one kind of holder of a frame's output across the next frame
and checks that the next frame writes elsewhere and leaves the held
bytes alone; once the holders are gone, the next frame must get the
same plane back.
"""

import io
import sys
import weakref

import numpy as np
import pytest

from repro.algo import stages as algo
from repro.algo import strips
from repro.core import OPTIMIZED, BatchEngine, GPUPipeline
from repro.lifecycle import BatchJob, LifecycleConfig
from repro.obs import RunContext
from repro.resilience import FallbackPipeline, FaultPlan
from repro.util import images
from repro.util.io import quantize_u8

SHAPE = (64, 96)
DTYPES = [np.float64, np.uint8]


def _frames(n, shape=SHAPE):
    return [np.rint(images.natural_like(*shape, seed=s)).astype(np.uint8)
            for s in range(n)]


def _expected(frame, dtype):
    final = algo.sharpen(frame)["final"]
    return quantize_u8(final) if dtype == np.uint8 else final


def _gpu():
    pipe = GPUPipeline(OPTIMIZED)
    return lambda frame, dt: _single(pipe.run(frame, out_dtype=dt))


def _fallback():
    pipe = FallbackPipeline(GPUPipeline(OPTIMIZED))
    return lambda frame, dt: _single(pipe.run(frame, out_dtype=dt))


def _degraded():
    # Every kernel launch fails: the CPU understudy serves each frame
    # from a workspace leased from the GPU pipeline's pool.
    obs = RunContext.create(
        log_level="error", log_stream=io.StringIO(),
        faults=FaultPlan.parse("kernel:rate=1.0,kind=permanent"))
    pipe = FallbackPipeline(GPUPipeline(OPTIMIZED, obs=obs), obs=obs)

    def run(frame, dt):
        result = pipe.run(frame, out_dtype=dt)
        assert result.backend == "cpu-fallback"
        return result, result.final
    return run


def _engine(workers):
    engines = {dt: BatchEngine(OPTIMIZED, workers=workers, keep_outputs=True,
                               out_dtype=dt) for dt in DTYPES}

    def run(frame, dt):
        batch = engines[dt].run([frame])
        return batch, batch.outputs[0]
    return run


def _single(result):
    return result, result.final


#: ``runner() -> run(frame, dtype) -> (result, final)``.
RUNNERS = {
    "gpu": _gpu,
    "fallback": _fallback,
    "degraded": _degraded,
    "engine1": lambda: _engine(1),
    "engine2": lambda: _engine(2),
}

#: ``holder(result, final)``: something a caller may keep of a frame.
HOLDERS = {
    "result": lambda result, final: result,
    "slice": lambda result, final: final[1:-1],
    "memoryview": lambda result, final: memoryview(final),
    "asarray": lambda result, final: np.asarray(final),
    "list": lambda result, final: [final],
}


def _held(holder):
    """The pixels ``holder`` keeps, as an array."""
    if isinstance(holder, list):
        return holder[0]
    if hasattr(holder, "outputs"):  # a BatchResult
        return holder.outputs[0]
    if hasattr(holder, "final"):  # a FrameResult
        return holder.final
    return np.asarray(holder)


@pytest.mark.parametrize("dtype", DTYPES, ids=["f64", "u8"])
@pytest.mark.parametrize("holder", list(HOLDERS))
@pytest.mark.parametrize("runner", list(RUNNERS))
def test_a_held_plane_is_not_handed_out_again(runner, holder, dtype):
    run = RUNNERS[runner]()
    frames = _frames(4)
    run(frames[0], dtype)  # capture: the workspace exists from here on
    result, final = run(frames[1], dtype)
    keep = HOLDERS[holder](result, final)
    before = _held(keep).copy()
    del result, final

    result, final = run(frames[2], dtype)
    assert not np.shares_memory(final, _held(keep))
    assert np.array_equal(_held(keep), before)
    assert np.array_equal(final, _expected(frames[2], dtype))
    plane = weakref.ref(final)
    del keep, result, final

    # Every holder is gone: the next frame writes into the same plane.
    result, final = run(frames[3], dtype)
    assert final is plane()
    assert np.array_equal(final, _expected(frames[3], dtype))


@pytest.mark.parametrize("dtype", DTYPES, ids=["f64", "u8"])
def test_degraded_frames_never_share_a_plane(dtype):
    # Frames served by the CPU understudy share a pooled workspace; while
    # the earlier results are held, each frame still gets a plane of its
    # own.
    obs = RunContext.create(
        log_level="error", log_stream=io.StringIO(),
        faults=FaultPlan.parse("kernel:rate=1.0,kind=permanent"))
    pipe = FallbackPipeline(GPUPipeline(OPTIMIZED, obs=obs), obs=obs)
    frames = _frames(3)
    results = [pipe.run(f, out_dtype=dtype) for f in frames]
    assert {r.backend for r in results} == {"cpu-fallback"}
    for i, (res, frame) in enumerate(zip(results, frames)):
        assert np.array_equal(res.final, _expected(frame, dtype))
        for other in results[i + 1:]:
            assert not np.shares_memory(res.final, other.final)


@pytest.mark.parametrize("dtype", DTYPES, ids=["f64", "u8"])
def test_one_batch_keeps_every_output_apart(dtype):
    frames = _frames(6)
    engine = BatchEngine(OPTIMIZED, workers=2, keep_outputs=True,
                         out_dtype=dtype)
    first = engine.run(frames)
    second = engine.run(frames[::-1])
    outputs = first.outputs + second.outputs
    for i, out in enumerate(outputs):
        for other in outputs[i + 1:]:
            assert not np.shares_memory(out, other)
    for out, frame in zip(outputs, frames + frames[::-1]):
        assert np.array_equal(out, _expected(frame, dtype))


@pytest.mark.parametrize("workers", [1, 2])
def test_a_job_writer_may_keep_its_planes(tmp_path, workers):
    frames = dict(zip((f"f{i}" for i in range(6)), _frames(6)))
    stash = {}

    def writer(path, plane):
        stash[path.name] = plane

    job = BatchJob(inputs=list(frames), output_dir=tmp_path / "out",
                   job_dir=tmp_path / "job", workers=workers,
                   obs=RunContext.disabled(),
                   lifecycle=LifecycleConfig(fsync=False),
                   loader=frames.__getitem__, writer=writer)
    job.run()
    assert sorted(stash) == sorted(frames)
    planes = list(stash.values())
    for i, plane in enumerate(planes):
        assert plane.dtype == np.uint8
        for other in planes[i + 1:]:
            assert not np.shares_memory(plane, other)
    for name, frame in frames.items():
        assert np.array_equal(stash[name], _expected(frame, np.uint8))


class TestRefcountCalibration:
    """:data:`repro.algo.strips._ONLY_LISTED` is what the check reads for
    a plane nothing else references, on this interpreter."""

    def test_a_lone_plane_reads_the_calibrated_count(self):
        planes = [np.empty(3)]
        assert strips._refs(planes, 0) == strips._ONLY_LISTED
        assert strips._ONLY_LISTED == strips._refs([np.empty(0)], 0)

    @pytest.mark.parametrize("make", [
        lambda a: a[1:],
        lambda a: a.reshape(1, -1)[:, ::2],
        memoryview,
        lambda a: a.view(np.uint8),
        lambda a: [a],
    ], ids=["slice", "view-of-view", "memoryview", "retyped", "list"])
    def test_any_holder_moves_the_count(self, make):
        planes = [np.empty(4)]
        held = make(planes[0])
        assert strips._refs(planes, 0) != strips._ONLY_LISTED
        del held
        assert strips._refs(planes, 0) == strips._ONLY_LISTED

    def test_the_workspace_check_reads_the_same_count(self):
        ws = strips.Workspace(16, 16)
        plane = weakref.ref(ws.output(np.float64))
        assert ws.output(np.float64) is plane()
        assert sys.getrefcount(plane()) > 1  # the workspace holds it
        held = ws.output(np.uint8)
        assert ws.output(np.uint8) is not held
        assert ws.output(np.float64) is plane()
        assert ws.nbytes == (ws.down.nbytes + ws.edge.nbytes
                             + 16 * 16 * 9)
