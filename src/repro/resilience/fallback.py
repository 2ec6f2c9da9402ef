"""GPU -> CPU graceful degradation, transparent to pipeline callers.

The paper's own evaluation compares the simulated GPU path against a
"well-optimized CPU version" (Fig. 12/13) — which hands us a natural
fallback target.  :class:`FallbackPipeline` wraps a
:class:`~repro.core.pipeline.GPUPipeline` with the full resilience stack:

1. each frame runs the GPU path under a :class:`~.policy.RetryPolicy`
   (transient faults are retried with deterministic backoff, bounded by
   the optional shared :class:`~.policy.RetryBudget` and the per-frame
   :class:`~.policy.Timeout` deadline);
2. a :class:`~.breaker.CircuitBreaker` counts consecutive GPU failures and,
   once tripped, routes frames straight to the CPU pipeline without paying
   the GPU failure latency (a half-open probe recovers the GPU path when
   it heals);
3. when the GPU path is down (breaker open, retries exhausted, or a
   permanent fault), the frame is served by
   :class:`~repro.cpu.CPUPipeline` — the :mod:`repro.algo.stages`
   functions — and the result is flagged ``backend="cpu-fallback"``.

Both backends return a :class:`~repro.types.FrameResult` (a fallback
frame carries the CPU pipeline's host-only cost-model timeline), so
:class:`~repro.core.stream.StreamProcessor` and
:class:`~repro.core.batch.BatchEngine` consume it unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..cpu.pipeline import CPUPipeline
from ..errors import CircuitOpenError, ReproError
from ..obs.runctx import NULL_CONTEXT
from ..types import FLOAT
from .breaker import CircuitBreaker
from .policy import RetryBudget, RetryPolicy, Timeout, execute

#: Backend tags stamped on results (``FrameResult.backend``).
BACKEND_GPU = "gpu"
BACKEND_CPU_FALLBACK = "cpu-fallback"

FALLBACK_FRAMES = "repro_fallback_frames_total"


@dataclass(frozen=True)
class ResilienceConfig:
    """One bundle of resilience knobs, shared by wrapper and engine.

    ``fallback=False`` turns the wrapper into retry + breaker only: once
    the GPU path is down the error propagates (the batch engine can still
    isolate it per frame via ``isolate``).
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker_failures: int = 5
    breaker_recovery_s: float = 0.05
    timeout_s: float | None = None
    retry_budget: int | None = None
    fallback: bool = True
    #: Batch engine: capture per-frame failures as FrameStats(error=...)
    #: + dead letters instead of poisoning the whole batch.
    isolate: bool = True

    def make_timeout(self) -> Timeout | None:
        return Timeout(self.timeout_s) if self.timeout_s is not None else None

    def make_budget(self) -> RetryBudget | None:
        return (RetryBudget(self.retry_budget)
                if self.retry_budget is not None else None)

    def make_breaker(self, *, name: str = "gpu", obs=None) -> CircuitBreaker:
        return CircuitBreaker(self.breaker_failures,
                              self.breaker_recovery_s, name=name, obs=obs)


class FallbackPipeline:
    """Resilient facade over a GPU pipeline with a CPU understudy.

    Parameters
    ----------
    gpu:
        The protected :class:`~repro.core.pipeline.GPUPipeline`.
    config:
        The :class:`ResilienceConfig` knobs (default: 3 attempts,
        5-failure breaker, fallback on).
    cpu:
        The understudy; built from the GPU pipeline's params/cpu spec when
        omitted, leasing its workspaces from the GPU pipeline's buffer
        pool (if it has one), so a breaker-open frame allocates no plane
        once warm.
    obs:
        :class:`~repro.obs.RunContext`; defaults to the GPU pipeline's.
    sleep / clock:
        Injectable timing (tests use virtual clocks).
    """

    def __init__(self, gpu, config: ResilienceConfig | None = None, *,
                 cpu: CPUPipeline | None = None,
                 obs=None, sleep=time.sleep,
                 clock=time.monotonic) -> None:
        self.gpu = gpu
        self.config = config or ResilienceConfig()
        self.obs = obs if obs is not None else getattr(
            gpu, "obs", NULL_CONTEXT)
        self.cpu = cpu if cpu is not None else CPUPipeline(
            gpu.params, gpu.cpu, obs=self.obs, label="cpu-fallback",
            buffer_pool=getattr(gpu, "buffer_pool", None))
        self.breaker = self.config.make_breaker(
            name=getattr(gpu, "label", "gpu"), obs=self.obs)
        self.budget = self.config.make_budget()
        self.timeout = self.config.make_timeout()
        self.sleep = sleep
        self.clock = clock
        # Mirrored for callers that treat this as a GPUPipeline drop-in.
        self.params = gpu.params
        self.label = getattr(gpu, "label", "gpu")

    # -- main entry -----------------------------------------------------------

    def run(self, image, *, out_dtype=FLOAT):
        """Sharpen one frame resiliently into a ``FrameResult`` whose
        ``final`` is ``out_dtype``, whichever backend serves it."""
        obs = self.obs
        if not self.breaker.allow():
            return self._degrade(image, out_dtype, reason="breaker-open")
        try:
            result, attempts = execute(
                lambda: self.gpu.run(image, out_dtype=out_dtype),
                self.config.retry,
                timeout=self.timeout,
                budget=self.budget,
                obs=obs,
                sleep=self.sleep,
                clock=self.clock,
                label=f"{self.label}.frame",
            )
        except ReproError as exc:
            self.breaker.record_failure()
            return self._degrade(image, out_dtype,
                                 reason=type(exc).__name__, cause=exc)
        except Exception:  # repro: ignore[PL-BROAD-EXCEPT]
            # Unknown failure: count it against the breaker (and release a
            # half-open probe slot) but never mask it with the fallback.
            self.breaker.record_failure()
            raise
        self.breaker.record_success()
        return result

    # -- degradation ----------------------------------------------------------

    def _degrade(self, image, out_dtype, *, reason: str,
                 cause: Exception | None = None):
        if not self.config.fallback:
            if cause is not None:
                raise cause
            raise CircuitOpenError(
                f"{self.label}: circuit open and no fallback configured"
            )
        obs = self.obs
        if obs.enabled:
            obs.metrics.counter(
                FALLBACK_FRAMES,
                "Frames served by the CPU fallback path",
                ("pipeline", "reason"),
            ).labels(pipeline=self.label, reason=reason).inc()
            obs.log.warning(
                "fallback.engaged", pipeline=self.label, reason=reason,
            )
        with obs.trace.span("fallback.run", pipeline=self.label,
                            reason=reason):
            result = self.cpu.run(image, out_dtype=out_dtype)
        result.backend = BACKEND_CPU_FALLBACK
        return result
