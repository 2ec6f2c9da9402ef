"""Batch engine: the frame runner, with bounded concurrency and ordered results.

:class:`BatchEngine` runs every multi-frame workload: ad-hoc batches,
durable jobs (:mod:`repro.lifecycle`) and, as a one-worker engine,
:class:`~repro.core.stream.StreamProcessor`'s frame streams.  Frames are
fed to worker threads (NumPy releases the GIL on the large array
operations, so threads suffice), in-flight work is bounded by a semaphore
(backpressure — a fast producer cannot queue an unbounded number of
frames), and results come back **in submission order** regardless of
completion order.  The pool never oversubscribes the host: the effective
thread count is ``min(workers, os.cpu_count())``, because the per-frame
work is compute-bound and extra threads only buy context switches.

All workers run one :class:`~repro.core.pipeline.GPUPipeline` (wrapped in
one :class:`~repro.resilience.FallbackPipeline` under resilience) over one
:class:`~repro.core.plan.PlanCache` and one
:class:`~repro.core.bufferpool.BufferPool`, so the first frame of a shape
pays a dry-run capture of its plan once and every frame, the first
included, replays that plan through pooled buffers.  The pipeline keeps no
per-frame state, and the shared pieces (plan cache, buffer pool, breaker,
retry budget) take locks; the caller's :class:`~repro.obs.RunContext`
sinks are thread-safe too, so a traced batch shows each frame as a
``batch.frame`` span (a child of ``batch.run``) on the row of the worker
that served it.

Throughput telemetry lands in the shared registry:

* ``repro_batch_frames_per_second`` / ``repro_batch_wall_seconds`` /
  ``repro_batch_frames_total`` — wall-clock engine throughput;
* ``repro_plan_cache_requests_total{outcome}`` — plan hit/miss counters
  (recorded per frame by the engine's pipeline);
* ``repro_bufferpool_in_use`` / ``repro_bufferpool_idle`` — pool occupancy
  (:meth:`~repro.core.bufferpool.BufferPool.publish`, after every replayed
  frame and at the end of the run).
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, ReproError, RetryExhaustedError, \
    ValidationError
from ..obs.runctx import NULL_CONTEXT, RunContext
from ..resilience.policy import execute
from ..simgpu.device import CPUSpec, DeviceSpec, I5_3470, W8000
from ..simgpu.profiling import Timeline
from ..types import (FLOAT, FrameResult, Image, SharpnessParams,
                     check_out_dtype)
from .bufferpool import BufferPool
from .config import OPTIMIZED, OptimizationFlags
from .pipeline import GPUPipeline
from .plan import PlanCache

FRAMES_FAILED = "repro_frames_failed_total"

#: How often the engine re-checks its lifecycle hooks (drain deadlines,
#: hang verdicts) while it waits for a frame or an admission slot.
_POLL_S = 0.05


def default_frame_id(index: int) -> str:
    """Stable fallback frame id when the caller has no natural key.

    Zero-padded so lexicographic order matches submission order; callers
    with durable identities (file names, content hashes) should pass their
    own ids — positional ids do not survive reordered inputs.
    """
    return f"{index:06d}"


def resolve_frame_id(frame_ids, index: int, frame) -> str:
    """Resolve one frame's stable id from a ``frame_ids`` argument.

    ``frame_ids`` is either ``None`` (positional fallback), a sequence
    aligned with the frame stream, or a ``callable(index, frame) -> str``.
    """
    if frame_ids is None:
        return default_frame_id(index)
    if callable(frame_ids):
        return str(frame_ids(index, frame))
    return str(frame_ids[index])


@dataclass
class FrameStats:
    """Per-frame record of one batch or stream run.

    ``backend`` says who produced the frame (``"gpu"``, ``"cpu-fallback"``
    when the resilience layer degraded, ``"failed"`` for an isolated
    per-frame failure); ``error``/``attempts`` carry the failure message
    and the number of execution attempts the frame took.  ``frame_id`` is
    the frame's *stable* identity (input file name, content hash, or the
    positional :func:`default_frame_id`) — checkpoints and journals key on
    it so a resumed job survives reordered or renamed inputs.
    ``timeline`` is the frame's simulated event timeline (``None`` for a
    failed frame); a replayed frame shares its plan's timeline template,
    so treat it as read-only.
    """

    index: int
    serial_time: float
    transfer_time: float
    device_time: float
    host_time: float
    backend: str = "gpu"
    error: str | None = None
    attempts: int = 1
    frame_id: str = ""
    timeline: Timeline | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def frame_stats(index: int, result: FrameResult,
                attempts: int = 1, frame_id: str = "") -> FrameStats:
    """Decompose one pipeline result into per-frame statistics."""
    by_kind = result.timeline.by_kind()
    transfer = by_kind.get("transfer", 0.0)
    host = by_kind.get("host", 0.0)
    return FrameStats(
        index=index,
        serial_time=result.total_time,
        transfer_time=transfer,
        device_time=result.total_time - transfer - host,
        host_time=host,
        backend=result.backend,
        attempts=attempts,
        frame_id=frame_id or default_frame_id(index),
        timeline=result.timeline,
    )


@dataclass
class FrameFailure:
    """One dead-lettered frame: position, stable id, error, attempts."""

    index: int
    error: str
    error_type: str
    attempts: int = 1
    frame_id: str = ""


@dataclass
class BatchResult:
    """Outcome of one :meth:`BatchEngine.run`: ordered stats + throughput.

    With resilience enabled, a failing frame does not poison the batch:
    its slot in ``frames`` / ``outputs`` / ``edge_means`` is preserved in
    submission order (``FrameStats.error`` set, output ``None``, edge mean
    NaN) and the failure is dead-lettered in ``dead_letters``.
    """

    frames: list[FrameStats] = field(default_factory=list)
    outputs: list[np.ndarray] = field(default_factory=list)
    edge_means: list[float] = field(default_factory=list)
    wall_seconds: float = 0.0
    workers: int = 1
    plan_stats: dict[str, int] = field(default_factory=dict)
    pool_stats: dict[str, int] = field(default_factory=dict)
    dead_letters: list[FrameFailure] = field(default_factory=list)
    #: Lifecycle hooks stopped the run early (drain, load shed, abort):
    #: frames past the stop point were never admitted and in-flight frames
    #: listed in ``abandoned`` were dropped without waiting.
    interrupted: bool = False
    #: ``(index, frame_id)`` of in-flight frames dropped at shutdown; they
    #: produced no FrameStats slot and are *not* dead letters — a resumed
    #: job simply runs them again.
    abandoned: list[tuple[int, str]] = field(default_factory=list)

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    @property
    def n_failed(self) -> int:
        return len(self.dead_letters)

    @property
    def ok(self) -> bool:
        """Did every admitted frame produce pixels (GPU or fallback)?"""
        return (not self.dead_letters and not self.interrupted
                and not self.abandoned)

    def backends(self) -> dict[str, int]:
        """Frame count per serving backend (gpu / cpu-fallback / failed)."""
        out: dict[str, int] = {}
        for f in self.frames:
            out[f.backend] = out.get(f.backend, 0) + 1
        return out

    @property
    def frames_per_second(self) -> float:
        """Measured wall-clock throughput of the engine run."""
        if self.wall_seconds <= 0.0:
            raise ValidationError("batch recorded no wall time")
        return self.n_frames / self.wall_seconds

    @property
    def simulated_fps(self) -> float:
        """Simulated steady-state fps (serial device model, cf. stream)."""
        total = sum(f.serial_time for f in self.frames)
        if total <= 0.0:
            raise ValidationError("batch produced no frames")
        return self.n_frames / total


class NoHooks:
    """The lifecycle hooks of an engine given none: admit every frame,
    never declare one hung, never abandon the in-flight ones.  A sink
    that only needs some hooks subclasses it."""

    def admit(self) -> bool:
        return True

    def frame_started(self, index: int, frame_id: str) -> None:
        return None

    def frame_finished(self, index: int) -> None:
        pass

    def is_hung(self, index: int) -> bool:
        return False

    def abandon(self) -> bool:
        return False

    def on_frame(self, **_) -> None:
        pass


class BatchEngine:
    """Run frames through a bounded worker pool with ordered results.

    Parameters
    ----------
    flags / params / device / cpu:
        Pipeline configuration, as for
        :class:`~repro.core.pipeline.GPUPipeline`.
    workers:
        Requested worker thread count (default 4).  The pool is actually
        sized to ``min(workers, os.cpu_count())``: the frame work is
        compute-bound (NumPy ufuncs), so oversubscribing the cores only
        adds context-switch and cache thrash — measured ~25% slower on a
        single-core host.  ``effective_workers`` exposes the applied size.
    queue_depth:
        Maximum in-flight frames (submitted but not yet collected);
        defaults to ``2 * workers``.  This is the backpressure bound — it
        also caps result-side memory when ``keep_outputs`` is off.
    keep_outputs:
        Retain every sharpened frame on the result, in input order.
    out_dtype:
        The dtype of every output plane: float64 (the default), or
        ``uint8`` for a file sink, which pass 2 of the strip executor
        then rounds strip by strip (see :func:`repro.algo.strips.run`).
    obs:
        Optional :class:`~repro.obs.RunContext` shared by all workers.
    resilience:
        Optional :class:`~repro.resilience.ResilienceConfig`.  When given,
        the engine's pipeline is wrapped in one
        :class:`~repro.resilience.FallbackPipeline`, whose circuit breaker
        and retry budget every worker shares (so consecutive GPU failures
        anywhere trip the whole engine over to the CPU path together),
        simulated worker crashes are re-dispatched under the config's
        retry policy (:func:`~repro.resilience.policy.execute`), and —
        with ``isolate=True`` — a frame that still fails yields an
        in-order ``FrameStats(error=...)`` plus a dead letter instead of
        aborting the batch.
    hooks:
        Optional lifecycle hooks (duck-typed; see
        :class:`~repro.lifecycle.job.EngineHooks` for the reference
        implementation).  The engine consults/calls, in order:

        * ``admit() -> bool`` before admitting each frame — ``False``
          stops admission (drain / load shed) and the run finishes with
          ``interrupted=True``;
        * ``frame_started(index, frame_id) -> threading.Event | None`` /
          ``frame_finished(index)`` from the worker thread around each
          frame (the returned event is the frame's cooperative
          cancellation token, honored by the ``hang`` fault site);
        * ``is_hung(index) -> bool`` while collecting — a hung in-flight
          frame is absorbed as a ``FrameHangError`` dead letter without
          waiting for its worker;
        * ``abandon() -> bool`` while draining — ``True`` drops the
          remaining in-flight frames (recorded in ``abandoned``);
        * ``on_frame(index=..., frame_id=..., stats=..., output=...,
          edge_mean=..., failure=...)`` after each frame is absorbed, in
          submission order — the journaling point.
    """

    def __init__(self, flags: OptimizationFlags = OPTIMIZED,
                 params: SharpnessParams | None = None, *,
                 device: DeviceSpec = W8000, cpu: CPUSpec = I5_3470,
                 workers: int = 4, queue_depth: int | None = None,
                 keep_outputs: bool = False,
                 out_dtype=FLOAT,
                 obs: RunContext | None = None,
                 resilience=None,
                 hooks=None) -> None:
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.effective_workers = min(workers, os.cpu_count() or workers)
        self.queue_depth = (queue_depth if queue_depth is not None
                            else 2 * workers)
        if self.queue_depth < workers:
            raise ConfigError(
                f"queue_depth {self.queue_depth} starves the "
                f"{workers}-worker pool"
            )
        self.keep_outputs = keep_outputs
        self.out_dtype = check_out_dtype(out_dtype)
        self.obs = obs or NULL_CONTEXT
        self.hooks = hooks or NoHooks()
        if resilience is not None:
            from ..resilience.fallback import ResilienceConfig

            if not isinstance(resilience, ResilienceConfig):
                raise ConfigError(
                    f"resilience must be a ResilienceConfig, got "
                    f"{type(resilience).__name__}"
                )
        self.resilience = resilience
        self.plan_cache = PlanCache()
        self.buffer_pool = BufferPool(max_entries=workers + 1)
        #: The one pipeline every worker runs.
        self.pipeline = GPUPipeline(
            flags, params, device, cpu, obs=self.obs, label="batch",
            plan_cache=self.plan_cache, buffer_pool=self.buffer_pool,
        )
        if self.resilience is not None:
            from ..resilience.fallback import FallbackPipeline
            self.pipeline = FallbackPipeline(self.pipeline, self.resilience,
                                             obs=self.obs)

    # -- workers ---------------------------------------------------------------

    def _process(self, index: int, frame, frame_id: str, run_span):
        """One frame on a worker, traced under the run's span."""
        cancel = self.hooks.frame_started(index, frame_id)
        try:
            with self.obs.trace.span("batch.frame", parent=run_span,
                                     index=index):
                if not isinstance(frame, Image):
                    frame = Image.from_array(np.asarray(frame))
                return self._serve(index, frame, frame_id, cancel)
        finally:
            self.hooks.frame_finished(index)

    def _serve(self, index: int, frame: Image, frame_id: str, cancel):
        """``(result or FrameFailure, attempts)`` of one frame.

        The ``worker`` fault site fires on every attempt — a simulated
        worker crash.  Under resilience, crashes (and any other transient
        error escaping the wrapped pipeline, which does its own
        transfer/kernel retrying and GPU->CPU fallback underneath) are
        re-dispatched by the retry policy, which models replacing a dead
        worker.
        """
        obs = self.obs
        attempts = 0

        def attempt():
            nonlocal attempts
            attempts += 1
            if obs.faults is not None:
                obs.faults.check("worker", obs, detail=f"frame:{index}")
            return self.pipeline.run(frame, out_dtype=self.out_dtype)

        try:
            if obs.faults is not None:
                # The hang site stalls (cooperatively cancellable); a
                # cancelled hang dies here as a FrameHangError.
                obs.faults.check("hang", obs, detail=f"frame:{index}",
                                 cancel=cancel)
            if self.resilience is None:
                return attempt(), 1
            return execute(attempt, self.resilience.retry, obs=obs,
                           label=f"batch.frame:{index}")
        except ReproError as exc:
            if self.resilience is None:
                raise
            if isinstance(exc, RetryExhaustedError) and isinstance(
                    exc.__cause__, ReproError):
                exc = exc.__cause__
            if not self.resilience.isolate:
                raise exc
            attempts = max(attempts, 1)
            return FrameFailure(
                index=index, frame_id=frame_id, error=str(exc),
                error_type=type(exc).__name__, attempts=attempts,
            ), attempts

    # -- main entry ------------------------------------------------------------

    def run(self, frames=None, *, source=None,
            frame_ids=None) -> BatchResult:
        """Process ``frames`` (iterable of arrays or Images), preserving
        order; blocks until every frame is done.  Frames are pulled only
        as backpressure admits them, so a generator (one that reads files,
        say) is read lazily.

        ``source`` is a zero-argument callable returning the frame
        iterable, invoked once at run start: the same as passing
        ``source()`` as ``frames`` (a non-callable source is a
        :class:`~repro.errors.ConfigError` — caught here rather than deep
        in the worker pool).

        ``frame_ids`` assigns each frame its stable identity (a sequence
        aligned with the stream or a ``callable(index, frame) -> str``);
        omitted, frames get positional ids — fine for ad-hoc batches, but
        durable jobs should pass real ids so checkpoints survive
        reordered/renamed inputs.
        """
        if source is not None:
            if frames is not None:
                raise ConfigError(
                    "pass either frames or source=, not both"
                )
            if not callable(source):
                raise ConfigError(
                    f"frame source must be callable, got "
                    f"{type(source).__name__}"
                )
            frames = source()
        if frames is None:
            raise ConfigError("no frames: pass an iterable or source=")
        obs = self.obs
        hooks = self.hooks
        result = BatchResult(workers=self.workers)
        # Submitted and not yet collected: each entry holds one of the
        # queue_depth backpressure slots until _collect absorbs its frame,
        # dead-letters it or abandons it.
        pending: deque = deque()

        def _absorb(index: int, fid: str, res, attempts: int) -> None:
            """Fold one frame outcome into the ordered result."""
            failed = isinstance(res, FrameFailure)
            if failed:
                result.dead_letters.append(res)
                result.frames.append(FrameStats(
                    index=index, serial_time=0.0, transfer_time=0.0,
                    device_time=0.0, host_time=0.0, backend="failed",
                    error=res.error, attempts=res.attempts, frame_id=fid,
                ))
                result.edge_means.append(float("nan"))
                if self.keep_outputs:
                    result.outputs.append(None)
                if obs.enabled:
                    obs.metrics.counter(
                        FRAMES_FAILED,
                        "Frames that failed after retries/fallback",
                    ).inc()
                    obs.log.error(
                        "batch.frame_failed", frame=index, frame_id=fid,
                        error_type=res.error_type, error=res.error,
                        attempts=res.attempts,
                    )
            else:
                result.frames.append(
                    frame_stats(index, res, attempts, frame_id=fid))
                result.edge_means.append(res.edge_mean)
                if self.keep_outputs:
                    result.outputs.append(res.final)
            hooks.on_frame(
                index=index, frame_id=fid, stats=result.frames[-1],
                output=None if failed else res.final,
                edge_mean=result.edge_means[-1],
                failure=res if failed else None,
            )

        def _abandon_pending() -> None:
            """Drop every still-in-flight frame (drain deadline/abort)."""
            result.interrupted = True
            while pending:
                index, fid, _future = pending.popleft()
                result.abandoned.append((index, fid))
                if obs.enabled:
                    obs.log.warning(
                        "batch.frame_abandoned", frame=index, frame_id=fid,
                    )

        def _collect(block: bool) -> None:
            """Absorb finished frames in order; ``block`` waits for all."""
            while pending:
                index, fid, future = pending[0]
                if future.done():
                    # A frame that finished after being declared hung
                    # still lands here with its real result — keep it
                    # (the hang counter already recorded the detection).
                    pending.popleft()
                    _absorb(index, fid, *future.result())
                elif hooks.is_hung(index):
                    # Hung verdict from the watchdog: dead-letter the
                    # frame now instead of waiting on its worker (the
                    # cancel token reclaims the thread cooperatively).
                    pending.popleft()
                    _absorb(index, fid, FrameFailure(
                        index=index, frame_id=fid,
                        error=f"frame {fid or index} exceeded the hang "
                              "threshold and was abandoned by the "
                              "watchdog",
                        error_type="FrameHangError", attempts=1,
                    ), 1)
                elif not block:
                    return
                elif hooks.abandon():
                    _abandon_pending()
                    return
                else:
                    wait((future,), timeout=_POLL_S)

        def _admit() -> bool:
            """Wait for a backpressure slot, honoring lifecycle stops.

            Only collecting frees a slot, so a full queue waits on its
            oldest frame, the next one to be collected."""
            while hooks.admit():
                _collect(block=False)
                if len(pending) < self.queue_depth:
                    return True
                wait((pending[0][2],), timeout=_POLL_S)
            result.interrupted = True
            return False

        start = time.perf_counter()
        with obs.trace.span("batch.run", workers=self.workers) as run_span:
            pool = ThreadPoolExecutor(max_workers=self.effective_workers,
                                      thread_name_prefix="repro-batch")
            try:
                for index, frame in enumerate(frames):
                    if not _admit():
                        break
                    fid = resolve_frame_id(frame_ids, index, frame)
                    future = pool.submit(self._process, index, frame, fid,
                                         run_span)
                    pending.append((index, fid, future))
                    _collect(block=False)
                _collect(block=True)
            finally:
                # An interrupted run must not wait on abandoned (and
                # possibly hung) workers; cooperative hang cancel
                # reclaims their threads in the background.
                pool.shutdown(wait=not result.interrupted,
                              cancel_futures=result.interrupted)
        result.wall_seconds = time.perf_counter() - start
        if not result.frames and not result.interrupted:
            raise ValidationError("empty frame sequence")
        result.plan_stats = self.plan_cache.stats()
        result.pool_stats = self.buffer_pool.stats()

        if obs.enabled:
            metrics = obs.metrics
            metrics.gauge(
                "repro_batch_frames_per_second",
                "Wall-clock throughput of the last batch run",
            ).set(result.frames_per_second)
            metrics.gauge(
                "repro_batch_wall_seconds",
                "Wall-clock duration of the last batch run",
            ).set(result.wall_seconds)
            metrics.counter(
                "repro_batch_frames_total",
                "Frames processed by the batch engine",
            ).inc(result.n_frames)
            self.buffer_pool.publish(obs)
            obs.log.info(
                "batch.complete", frames=result.n_frames,
                workers=self.workers,
                effective_workers=self.effective_workers,
                wall_ms=result.wall_seconds * 1e3,
                fps=result.frames_per_second,
                plan_hits=result.plan_stats["hits"],
                plan_misses=result.plan_stats["misses"],
                failed=result.n_failed,
                backends=",".join(
                    f"{k}={v}" for k, v in sorted(result.backends().items())
                ),
            )
        return result
