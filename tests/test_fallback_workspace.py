"""Every strip frame leases its workspace from a BufferPool.

A :class:`~repro.resilience.FallbackPipeline` builds its CPU understudy
over the protected pipeline's :class:`~repro.core.bufferpool.BufferPool`,
so once the breaker is open a warm frame allocates no workspace: it
leases one the pool already holds, as a replayed GPU frame does.  A
standalone :class:`~repro.cpu.CPUPipeline` owns a pool of its own.  The
simulated device ``oom`` site belongs to the GPU replay, not to the pool,
so a CPU frame never passes it.
"""

import io
import sys

import numpy as np
import pytest

from repro.algo import stages as algo
from repro.core import OPTIMIZED, BatchEngine, BufferPool, GPUPipeline
from repro.cpu import CPUPipeline
from repro.errors import DeviceOOMError
from repro.obs import RunContext
from repro.resilience import FallbackPipeline, FaultPlan, ResilienceConfig
from repro.resilience.breaker import OPEN
from repro.util import images
from repro.util.io import quantize_u8

SHAPE = (64, 96)
DTYPES = [np.float64, np.uint8]


def _frames(n):
    return [np.rint(images.natural_like(*SHAPE, seed=s)).astype(np.uint8)
            for s in range(n)]


def _expected(frame, dtype):
    final = algo.sharpen(frame)["final"]
    return quantize_u8(final) if dtype == np.uint8 else final


def _obs(spec):
    return RunContext.create(log_level="error", log_stream=io.StringIO(),
                             faults=FaultPlan.parse(spec))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("dtype", DTYPES, ids=["f64", "u8"])
def test_breaker_open_batch_creates_no_workspace_once_warm(dtype, workers):
    engine = BatchEngine(
        OPTIMIZED, workers=workers, out_dtype=dtype, keep_outputs=True,
        obs=_obs("kernel:rate=1.0,kind=permanent"),
        resilience=ResilienceConfig(breaker_failures=2,
                                    breaker_recovery_s=3600.0))
    engine.run(_frames(8))
    assert engine.pipeline.breaker.state == OPEN
    created = engine.buffer_pool.stats()["created"]
    assert 1 <= created <= workers

    frames = _frames(20)
    for frame in frames:
        result = engine.run([frame])
        assert result.backends() == {"cpu-fallback": 1}
        assert engine.buffer_pool.stats()["created"] == created
        assert result.outputs[0].dtype == dtype
        assert np.array_equal(result.outputs[0], _expected(frame, dtype))
        assert result.edge_means[0] == algo.sharpen(frame)["edge_mean"]
    stats = engine.buffer_pool.stats()
    assert stats["in_use"] == 0
    assert stats["created"] == created


def test_degraded_workers_beyond_the_cores_never_share_a_workspace():
    # Four workers, frequent thread switches: a lease handed to two
    # frames at once would show as a wrong pixel or a shared plane.
    frames = _frames(24)
    engine = BatchEngine(
        OPTIMIZED, workers=4, keep_outputs=True,
        obs=_obs("kernel:rate=1.0,kind=permanent"),
        resilience=ResilienceConfig(breaker_failures=1,
                                    breaker_recovery_s=3600.0))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        result = engine.run(frames)
    finally:
        sys.setswitchinterval(interval)
    assert result.backends() == {"cpu-fallback": len(frames)}
    for i, (out, frame) in enumerate(zip(result.outputs, frames)):
        assert np.array_equal(out, _expected(frame, np.float64))
        for other in result.outputs[i + 1:]:
            assert not np.shares_memory(out, other)
    stats = engine.buffer_pool.stats()
    assert stats["in_use"] == 0
    assert 1 <= stats["created"] <= 4


def test_understudy_shares_the_gpu_pipeline_pool():
    gpu = GPUPipeline(OPTIMIZED)
    assert FallbackPipeline(gpu).cpu.buffer_pool is gpu.buffer_pool
    # An uncached pipeline has no pool: its understudy owns one.
    uncached = GPUPipeline(OPTIMIZED, caching=False)
    assert uncached.buffer_pool is None
    assert isinstance(FallbackPipeline(uncached).cpu.buffer_pool, BufferPool)


def test_a_standalone_cpu_pipeline_leases_one_workspace():
    frames = _frames(5)
    pipe = CPUPipeline()
    results = [pipe.run(frame) for frame in frames]
    assert pipe.buffer_pool.stats()["created"] == 1
    assert pipe.buffer_pool.stats()["in_use"] == 0
    # Held results keep their planes: the lease hands a plane out again
    # only once its caller has dropped it.
    for i, (result, frame) in enumerate(zip(results, frames)):
        assert np.array_equal(result.final, _expected(frame, np.float64))
        for other in results[i + 1:]:
            assert not np.shares_memory(result.final, other.final)


def test_a_host_lease_skips_the_device_oom_site():
    # Every device allocation fails: the GPU replay cannot lease, and the
    # understudy's lease from the same pool must not fail with it.
    obs = _obs("oom:rate=1.0,kind=permanent")
    gpu = GPUPipeline(OPTIMIZED, obs=obs)
    frame = _frames(1)[0]
    with pytest.raises(DeviceOOMError):
        gpu.run(frame)
    assert gpu.buffer_pool.stats()["created"] == 0
    pipe = FallbackPipeline(gpu, obs=obs)
    for dtype in DTYPES:
        result = pipe.run(frame, out_dtype=dtype)
        assert result.backend == "cpu-fallback"
        assert result.final.dtype == dtype
        assert np.array_equal(result.final, _expected(frame, dtype))
    stats = gpu.buffer_pool.stats()
    assert stats["created"] == 1
    assert stats["in_use"] == 0
