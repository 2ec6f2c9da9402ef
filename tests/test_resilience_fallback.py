"""FallbackPipeline: retries, degradation semantics, bit-equivalence."""

import io

import numpy as np
import pytest

from repro.core import GPUPipeline, OPTIMIZED
from repro.cpu import CPUPipeline
from repro.cpu.cost import stage_times
from repro.errors import CircuitOpenError, TransferFault
from repro.obs import RunContext
from repro.resilience import (
    FallbackPipeline,
    FaultPlan,
    ResilienceConfig,
    RetryPolicy,
)
from repro.resilience.breaker import CLOSED, OPEN
from repro.resilience.fallback import BACKEND_CPU_FALLBACK, BACKEND_GPU
from repro.types import Image
from repro.util import images


@pytest.fixture(scope="module")
def frame():
    return Image.from_array(next(iter(images.video_sequence(48, 48, 1,
                                                            seed=9))))


def quiet_obs(faults=None):
    return RunContext.create(log_level="error", log_stream=io.StringIO(),
                             faults=faults)


def fast_config(**overrides):
    kwargs = dict(retry=RetryPolicy(max_attempts=3, base_delay=0.0),
                  breaker_failures=2, breaker_recovery_s=60.0)
    kwargs.update(overrides)
    return ResilienceConfig(**kwargs)


class TestHealthyPath:
    def test_gpu_result_flagged_and_identical(self, frame):
        plain = GPUPipeline(OPTIMIZED).run(frame)
        resilient = FallbackPipeline(GPUPipeline(OPTIMIZED),
                                     fast_config()).run(frame)
        assert resilient.backend == BACKEND_GPU
        assert np.array_equal(resilient.final, plain.final)

    def test_transient_faults_retried_transparently(self, frame):
        plan = FaultPlan.parse("transfer:rate=1.0,max=2,kind=transient")
        obs = quiet_obs(faults=plan)
        pipe = FallbackPipeline(GPUPipeline(OPTIMIZED, obs=obs),
                                fast_config(retry=RetryPolicy(
                                    max_attempts=5, base_delay=0.0)),
                                obs=obs)
        result = pipe.run(frame)
        assert result.backend == BACKEND_GPU
        assert plan.injected["transfer"] == 2
        assert pipe.breaker.state == CLOSED


class TestDegradation:
    def test_fallback_bit_equivalent_to_cpu_optimized(self, frame):
        plan = FaultPlan.parse("transfer:rate=1.0,kind=permanent")
        obs = quiet_obs(faults=plan)
        pipe = FallbackPipeline(GPUPipeline(OPTIMIZED, obs=obs),
                                fast_config(), obs=obs)
        result = pipe.run(frame)
        assert result.backend == BACKEND_CPU_FALLBACK
        cpu = CPUPipeline().run(frame)
        assert np.array_equal(result.final, cpu.final)
        assert result.edge_mean == cpu.edge_mean
        # host-only timeline: no device or transfer events
        assert set(e.kind for e in result.timeline.events) == {"host"}
        assert result.kernel_launches == 0
        # the CPU pipeline's cost-model total, bit for bit
        assert cpu.backend == "cpu"
        assert result.total_time == cpu.total_time
        assert result.total_time == stage_times(*frame.shape).total

    def test_breaker_trips_then_routes_without_touching_gpu(self, frame):
        plan = FaultPlan.parse("transfer:rate=1.0,kind=permanent")
        obs = quiet_obs(faults=plan)
        pipe = FallbackPipeline(GPUPipeline(OPTIMIZED, obs=obs),
                                fast_config(breaker_failures=2), obs=obs)
        for _ in range(2):
            pipe.run(frame)
        assert pipe.breaker.state == OPEN
        checks_before = plan.checks["transfer"]
        result = pipe.run(frame)  # breaker open: straight to CPU
        assert result.backend == BACKEND_CPU_FALLBACK
        assert plan.checks["transfer"] == checks_before
        fb = obs.metrics.get("repro_fallback_frames_total")
        reasons = {c.labels["reason"]: c.value for c in fb.children}
        assert reasons["breaker-open"] == 1

    def test_half_open_probe_recovers_the_gpu_path(self, frame):
        clock = [0.0]
        plan = FaultPlan.parse("transfer:rate=1.0,max=2,kind=permanent")
        obs = quiet_obs(faults=plan)
        pipe = FallbackPipeline(
            GPUPipeline(OPTIMIZED, obs=obs),
            fast_config(breaker_failures=2, breaker_recovery_s=60.0,
                        retry=RetryPolicy(max_attempts=1)),
            obs=obs)
        pipe.breaker.clock = lambda: clock[0]
        for _ in range(2):
            assert pipe.run(frame).backend == BACKEND_CPU_FALLBACK
        assert pipe.breaker.state == OPEN
        clock[0] += 61.0  # recovery window passes; fault plan is spent
        result = pipe.run(frame)  # the half-open probe
        assert result.backend == BACKEND_GPU
        assert pipe.breaker.state == CLOSED

    def test_no_fallback_propagates_the_error(self, frame):
        plan = FaultPlan.parse("transfer:rate=1.0,kind=permanent")
        obs = quiet_obs(faults=plan)
        pipe = FallbackPipeline(GPUPipeline(OPTIMIZED, obs=obs),
                                fast_config(fallback=False,
                                            breaker_failures=1), obs=obs)
        with pytest.raises(TransferFault):
            pipe.run(frame)
        assert pipe.breaker.state == OPEN
        with pytest.raises(CircuitOpenError):
            pipe.run(frame)

    def test_unknown_errors_not_masked_by_fallback(self, frame):
        class Broken:
            params = GPUPipeline(OPTIMIZED).params
            cpu = None
            obs = None

            def run(self, image, **_):
                raise RuntimeError("not a repro error")

        pipe = FallbackPipeline(Broken(), fast_config(breaker_failures=1),
                                cpu=CPUPipeline(), obs=quiet_obs())
        with pytest.raises(RuntimeError):
            pipe.run(frame)
        assert pipe.breaker.state == OPEN
