"""Batch engine under fault injection: recovery, isolation, degradation."""

import io
import math

import numpy as np
import pytest

from repro.core import BatchEngine, FrameFailure, OPTIMIZED
from repro.cpu import CPUPipeline
from repro.errors import ConfigError, WorkerCrashError
from repro.obs import RunContext
from repro.resilience import FaultPlan, ResilienceConfig, RetryPolicy
from repro.resilience.breaker import OPEN
from repro.types import Image
from repro.util import images


@pytest.fixture(scope="module")
def frames64():
    return [Image.from_array(f)
            for f in images.video_sequence(48, 48, 64, seed=9)]


@pytest.fixture(scope="module")
def frames10(frames64):
    return frames64[:10]


@pytest.fixture(scope="module")
def fault_free_outputs(frames64):
    return BatchEngine(OPTIMIZED, workers=1,
                       keep_outputs=True).run(frames64).outputs


def quiet_obs(faults=None):
    return RunContext.create(log_level="error", log_stream=io.StringIO(),
                             faults=faults)


class TestTransientRecovery:
    def test_20pct_transfer_faults_fully_recovered(self, frames64,
                                                   fault_free_outputs):
        """Acceptance: a 20% transient transfer-fault rate on a 64-frame
        batch completes with zero failed frames, bit-identical to the
        fault-free run, and the retry counter proves recoveries happened.
        """
        plan = FaultPlan.parse("transfer:rate=0.2,kind=transient;seed=0")
        obs = quiet_obs(faults=plan)
        cfg = ResilienceConfig(
            retry=RetryPolicy(max_attempts=12, base_delay=0.0),
            fallback=False, isolate=False)
        result = BatchEngine(OPTIMIZED, workers=1, keep_outputs=True,
                             obs=obs, resilience=cfg).run(frames64)
        assert result.ok
        assert result.n_failed == 0
        assert result.dead_letters == []
        assert plan.injected["transfer"] > 0
        assert result.backends() == {"gpu": 64}
        for out, ref in zip(result.outputs, fault_free_outputs):
            assert np.array_equal(out, ref)
        retries = obs.metrics.get("repro_retries_total")
        outcomes = {c.labels["outcome"]: c.value for c in retries.children}
        assert outcomes.get("success", 0) > 0


class TestPermanentDegradation:
    def test_breaker_trips_and_cpu_serves_in_order(self, frames10):
        """Acceptance: permanent GPU faults trip the breaker; every frame
        is still served (flagged cpu-fallback) in submission order.
        """
        plan = FaultPlan.parse("transfer:rate=1.0,kind=permanent;seed=0")
        obs = quiet_obs(faults=plan)
        cfg = ResilienceConfig(
            retry=RetryPolicy(max_attempts=2, base_delay=0.0),
            breaker_failures=3, breaker_recovery_s=60.0)
        engine = BatchEngine(OPTIMIZED, workers=2, keep_outputs=True,
                             obs=obs, resilience=cfg)
        result = engine.run(frames10)
        assert result.ok
        assert result.n_failed == 0
        assert [f.index for f in result.frames] == list(range(10))
        assert result.backends() == {"cpu-fallback": 10}
        assert engine.pipeline.breaker.state == OPEN
        cpu = CPUPipeline()
        for out, frame in zip(result.outputs, frames10):
            assert np.array_equal(out, cpu.run(frame).final)
        gauge = obs.metrics.get("repro_breaker_state")
        assert gauge.labels(breaker="batch").value == 1


class TestFrameIsolation:
    def test_mid_batch_failures_isolated_in_order(self, frames10):
        # frame 3 crashes permanently at dispatch; isolation keeps the
        # rest of the batch alive and the ordering intact.
        plan = FaultPlan.parse(
            "worker:rate=1.0,kind=permanent,after=3,max=1;seed=0")
        obs = quiet_obs(faults=plan)
        cfg = ResilienceConfig(retry=RetryPolicy(max_attempts=1),
                               fallback=False, isolate=True)
        result = BatchEngine(OPTIMIZED, workers=1, keep_outputs=True,
                             obs=obs, resilience=cfg).run(frames10)
        assert not result.ok
        assert result.n_failed == 1
        assert [f.index for f in result.frames] == list(range(10))
        failed = [f for f in result.frames if not f.ok]
        assert [f.index for f in failed] == [3]
        assert failed[0].backend == "failed"
        assert math.isnan(result.edge_means[3])
        assert result.outputs[3] is None
        assert all(out is not None
                   for i, out in enumerate(result.outputs) if i != 3)
        assert len(result.dead_letters) == 1
        letter = result.dead_letters[0]
        assert isinstance(letter, FrameFailure)
        assert letter.index == 3
        assert letter.error_type == "WorkerCrashError"
        counter = obs.metrics.get("repro_frames_failed_total")
        assert counter is not None and any(
            c.value == 1 for c in counter.children)

    def test_without_isolation_failure_poisons_the_batch(self, frames10):
        plan = FaultPlan.parse(
            "worker:rate=1.0,kind=permanent,after=3,max=1;seed=0")
        obs = quiet_obs(faults=plan)
        cfg = ResilienceConfig(retry=RetryPolicy(max_attempts=1),
                               fallback=False, isolate=False)
        engine = BatchEngine(OPTIMIZED, workers=1, obs=obs, resilience=cfg)
        with pytest.raises(WorkerCrashError):
            engine.run(frames10)


class TestValidation:
    @pytest.mark.parametrize("timeout", [0, -1.5])
    def test_nonpositive_timeout_rejected(self, timeout):
        with pytest.raises(ConfigError, match="timeout"):
            BatchEngine(OPTIMIZED,
                        resilience=ResilienceConfig(timeout_s=timeout))

    def test_non_callable_source_rejected(self, frames10):
        engine = BatchEngine(OPTIMIZED)
        with pytest.raises(ConfigError, match="callable"):
            engine.run(source=list(frames10))

    def test_frames_and_source_mutually_exclusive(self, frames10):
        engine = BatchEngine(OPTIMIZED)
        with pytest.raises(ConfigError):
            engine.run(frames10, source=lambda: iter(frames10))
        with pytest.raises(ConfigError):
            engine.run()

    def test_bad_resilience_type_rejected(self):
        with pytest.raises(ConfigError):
            BatchEngine(OPTIMIZED, resilience=object())

    def test_source_callable_accepted(self, frames10):
        cfg = ResilienceConfig()
        result = BatchEngine(OPTIMIZED, workers=2, resilience=cfg).run(
            source=lambda: iter(frames10))
        assert result.n_frames == 10
        assert result.ok


class TestWorkerRetry:
    def test_exhausted_crash_keeps_its_type_and_attempts(self, frames10):
        """Worker-crash re-dispatch runs through the shared retry loop:
        the dead letter names the crash, not the retry wrapper, and the
        exhaustion is counted like any other retry outcome."""
        plan = FaultPlan.parse("worker:rate=1.0,kind=transient;seed=0")
        obs = quiet_obs(faults=plan)
        cfg = ResilienceConfig(
            retry=RetryPolicy(max_attempts=3, base_delay=0.0), isolate=True)
        result = BatchEngine(OPTIMIZED, workers=1, obs=obs,
                             resilience=cfg).run(frames10[:1])
        (letter,) = result.dead_letters
        assert letter.error_type == "WorkerCrashError"
        assert letter.attempts == 3
        assert result.frames[0].attempts == 3
        retries = obs.metrics.get("repro_retries_total")
        outcomes = {c.labels["outcome"]: c.value for c in retries.children}
        assert outcomes["exhausted"] == 1
        assert outcomes["retried"] == 2


class TestOneRetryOwner:
    """The engine's retry loop wraps ``FallbackPipeline``'s own: a GPU
    fault is retried by the wrapper alone, a worker crash by the engine
    alone, so nesting never multiplies the attempts of one frame."""

    @pytest.mark.parametrize("fallback", [True, False],
                             ids=["fallback", "no-fallback"])
    @pytest.mark.parametrize("spec,gpu_calls,attempts", [
        ("kernel:rate=1.0,kind=transient", 3, 1),
        ("kernel:rate=1.0,kind=permanent", 1, 1),
        ("worker:rate=1.0,kind=transient", 0, 3),
    ], ids=["transient", "permanent", "worker"])
    def test_attempts_per_frame(self, monkeypatch, frames10, spec,
                                gpu_calls, attempts, fallback):
        from repro.core.pipeline import GPUPipeline

        calls = []
        real_run = GPUPipeline.run

        def counting_run(pipe, image, **kw):
            calls.append(1)
            return real_run(pipe, image, **kw)

        monkeypatch.setattr(GPUPipeline, "run", counting_run)
        obs = quiet_obs(faults=FaultPlan.parse(f"{spec};seed=0"))
        cfg = ResilienceConfig(
            retry=RetryPolicy(max_attempts=3, base_delay=0.0),
            breaker_failures=100, fallback=fallback)
        result = BatchEngine(OPTIMIZED, workers=1, obs=obs,
                             resilience=cfg).run(frames10[:1])
        assert len(calls) == gpu_calls
        assert result.frames[0].attempts == attempts
