"""Durable batch jobs: journaled, resumable, signal-aware, watched.

:class:`BatchJob` is the process-level lifecycle wrapper around
:class:`~repro.core.batch.BatchEngine`.  One *job directory* holds the
whole durable state — manifest (checkpoint header), write-ahead journal,
and health snapshot — and the job wires the engine's lifecycle hooks to:

* the **journal**: every frame outcome is an fsync'd record appended
  after the frame's output file lands, so a SIGKILL at any instant
  loses at most the in-flight frames;
* **graceful shutdown**: first SIGTERM/SIGINT drains (stop admission,
  finish in-flight under ``drain_timeout``), a second aborts; both leave
  a valid checkpoint and a distinct exit code (3 drained / 4 aborted);
* the **watchdog**: frames exceeding ``hang_timeout`` are cancelled and
  dead-lettered; when zombies pin every worker, load shedding stops
  admission and the job drains resumable;
* the **health surface**: an atomically-rotated JSON snapshot plus
  ``repro_job_state`` / ``repro_frames_*`` gauges.

Resume (:meth:`BatchJob.resume`) replays the journal, skips frames with
a completion record (and an existing output file), and re-runs only
pending/failed frames — the pipeline is deterministic, so a resumed
job's concatenated outputs are bit-identical to an uninterrupted run.
:meth:`run` with ``replay_failures=True`` re-enqueues only the dead
letters.
"""

from __future__ import annotations

import pathlib
import threading
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterable

from ..core.batch import BatchEngine, BatchResult
from ..core.config import OPTIMIZED, OptimizationFlags
from ..errors import UsageError, ValidationError
from ..obs.runctx import NULL_CONTEXT, RunContext
from ..resilience.fallback import ResilienceConfig
from ..types import PIXEL, SharpnessParams
from ..util.io import read_pgm, write_pgm
from .health import HEALTH_NAME, HealthReporter
from .journal import (
    JobJournal,
    JournalState,
    Manifest,
    STATUS_COMPLETED,
    STATUS_FAILED,
)
from .shutdown import EXIT_OK, EXIT_RUNTIME, ShutdownCoordinator
from .watchdog import FrameWatch, Watchdog


@dataclass(frozen=True)
class LifecycleConfig:
    """Durability and lifecycle knobs of one :class:`BatchJob`.

    ``install_signals`` should only be true in a real CLI process (signal
    handlers are process-global and main-thread-only); tests drive the
    coordinator directly.
    """

    drain_timeout: float = 10.0
    hang_timeout: float | None = None
    watchdog_interval: float = 0.05
    health_path: str | pathlib.Path | None = None
    health_interval: float = 1.0
    fsync: bool = True
    install_signals: bool = False


@dataclass
class JobOutcome:
    """What one :meth:`BatchJob.run` left behind."""

    state: str
    exit_code: int
    #: Frames actually executed by *this* run (the no-recompute assert).
    executed: int
    completed: list[str]
    failed: list[str]
    pending: list[str]
    job_dir: pathlib.Path
    result: BatchResult | None = None

    @property
    def ok(self) -> bool:
        return self.exit_code == EXIT_OK


class EngineHooks:
    """Reference implementation of the :class:`BatchEngine` hook surface,
    wired to one :class:`BatchJob`."""

    def __init__(self, job: "BatchJob") -> None:
        self.job = job

    def admit(self) -> bool:
        job = self.job
        if job.shutdown.draining:
            return False
        if job.watchdog is not None and job.watchdog.shedding:
            return False
        return True

    def abandon(self) -> bool:
        job = self.job
        if job.shutdown.abandon():
            job.watch.cancel_all()
            return True
        return False

    def frame_started(self, index: int, frame_id: str) -> threading.Event:
        job = self.job
        token = job.watch.begin(index, frame_id)
        job.health.update(inflight=job.watch.inflight_count)
        return token

    def frame_finished(self, index: int) -> None:
        job = self.job
        job.watch.end(index)
        job.health.update(inflight=job.watch.inflight_count)

    def is_hung(self, index: int) -> bool:
        return self.job.watch.is_hung(index)

    def on_frame(self, *, index: int, frame_id: str, stats, output,
                 edge_mean: float, failure) -> None:
        self.job._on_frame(index=index, frame_id=frame_id, stats=stats,
                           output=output, edge_mean=edge_mean,
                           failure=failure)


class BatchJob:
    """A durable, resumable batch of frames over the throughput engine.

    Parameters
    ----------
    inputs:
        Frame inputs — anything ``loader`` accepts; file paths in the
        CLI.  Frame ids default to the inputs' file names (stable under
        reordering), overridable via ``frame_ids``.
    output_dir:
        Where sharpened frames land, one file per frame id.
    job_dir:
        The durable state directory (manifest + journal + health).
    flags / params / workers / queue_depth / resilience / obs:
        Engine configuration, as for :class:`~repro.core.batch.BatchEngine`.
        Durable jobs always run with per-frame isolation — ``resilience``
        defaults to ``ResilienceConfig()`` so one bad frame dead-letters
        instead of poisoning the job.
    lifecycle:
        The :class:`LifecycleConfig` knob bundle.
    loader / writer:
        ``loader(input) -> array`` and ``writer(path, array)``; default
        PGM I/O.  The writer receives each frame as a ``uint8`` plane: the
        engine runs with ``out_dtype=uint8``, so pass 2 of the strip
        executor rounds each strip as it stores it
        (:func:`~repro.util.io.quantize_u8`'s bytes) and no float64 frame
        is built.
    """

    def __init__(self, *, inputs: Iterable, output_dir: str | pathlib.Path,
                 job_dir: str | pathlib.Path,
                 flags: OptimizationFlags = OPTIMIZED,
                 params: SharpnessParams | None = None,
                 workers: int = 4, queue_depth: int | None = None,
                 resilience: ResilienceConfig | None = None,
                 obs: RunContext | None = None,
                 lifecycle: LifecycleConfig | None = None,
                 loader: Callable = read_pgm,
                 writer: Callable = write_pgm,
                 frame_ids: Iterable[str] | None = None,
                 manifest: Manifest | None = None) -> None:
        self.inputs = list(inputs)
        self.output_dir = pathlib.Path(output_dir)
        self.job_dir = pathlib.Path(job_dir)
        self.flags = flags
        self.params = params
        self.workers = workers
        self.queue_depth = queue_depth
        self.resilience = (resilience if resilience is not None
                           else ResilienceConfig())
        self.obs = obs or NULL_CONTEXT
        self.lifecycle = lifecycle or LifecycleConfig()
        self.loader = loader
        self.writer = writer
        if frame_ids is not None:
            self.frame_ids = [str(f) for f in frame_ids]
        else:
            self.frame_ids = [pathlib.Path(str(p)).name
                              for p in self.inputs]
        if len(set(self.frame_ids)) != len(self.frame_ids):
            raise ValidationError(
                "frame ids must be unique (duplicate input file names? "
                "pass frame_ids= explicitly)"
            )
        if len(self.frame_ids) != len(self.inputs):
            raise ValidationError(
                f"{len(self.frame_ids)} frame ids for "
                f"{len(self.inputs)} inputs"
            )
        self._by_id = dict(zip(self.frame_ids, self.inputs))
        self._index_of = {fid: i for i, fid in enumerate(self.frame_ids)}
        self._manifest = manifest
        self._resuming = manifest is not None
        # Run-scoped state, populated by run():
        self.journal: JobJournal | None = None
        self.health: HealthReporter | None = None
        self.watch: FrameWatch | None = None
        self.watchdog: Watchdog | None = None
        self.shutdown: ShutdownCoordinator | None = None
        self._run_n = 0
        self._completed_ids: set[str] = set()
        self._failed_ids: set[str] = set()
        self._count_lock = threading.Lock()

    # -- resume ---------------------------------------------------------------

    @classmethod
    def resume(cls, job_dir: str | pathlib.Path, *,
               obs: RunContext | None = None,
               lifecycle: LifecycleConfig | None = None,
               loader: Callable = read_pgm,
               writer: Callable = write_pgm) -> "BatchJob":
        """Rebuild a job from its manifest (engine configuration included,
        so a resumed run cannot drift from the original)."""
        manifest = Manifest.load(job_dir)
        config = manifest.config
        try:
            flags = OptimizationFlags(**config["flags"])
            params = (SharpnessParams(**config["params"])
                      if config.get("params") else None)
        except (KeyError, TypeError) as exc:
            raise UsageError(
                f"job manifest {job_dir} has an unusable engine config: "
                f"{exc}"
            ) from exc
        if lifecycle is None:
            saved = config.get("lifecycle", {})
            lifecycle = LifecycleConfig(**{
                k: v for k, v in saved.items()
                if k in LifecycleConfig.__dataclass_fields__
            })
        return cls(
            inputs=manifest.inputs,
            output_dir=manifest.output_dir,
            job_dir=job_dir,
            flags=flags,
            params=params,
            workers=int(config.get("workers", 4)),
            obs=obs,
            lifecycle=lifecycle,
            loader=loader,
            writer=writer,
            frame_ids=manifest.frame_ids,
            manifest=manifest,
        )

    # -- main entry -----------------------------------------------------------

    def run(self, *, replay_failures: bool = False) -> JobOutcome:
        """Execute (or continue) the job; returns the outcome with the
        CLI exit code already computed."""
        cfg = self.lifecycle
        self.job_dir.mkdir(parents=True, exist_ok=True)
        self.output_dir.mkdir(parents=True, exist_ok=True)
        self.journal = JobJournal(self.job_dir, fsync=cfg.fsync)
        prior = JobJournal.replay(self.journal.path)
        if not self._resuming and (prior.records or prior.torn):
            raise UsageError(
                f"{self.job_dir} already holds a journal; resume it "
                "(--resume) or choose a fresh --job-dir"
            )
        todo_ids = self._plan_todo(prior, replay_failures=replay_failures)
        self._run_n = prior.runs + 1

        manifest = self._manifest
        if manifest is None:
            manifest = Manifest.create(
                frame_ids=self.frame_ids,
                inputs=[str(p) for p in self.inputs],
                output_dir=str(self.output_dir),
                config=self._config_dump(),
            )
            self._manifest = manifest
        manifest.runs = self._run_n
        manifest.transition("running", self.job_dir)

        obs = self.obs
        health_path = cfg.health_path or (self.job_dir / HEALTH_NAME)
        self.health = HealthReporter(
            job_id=manifest.job_id, frames_total=len(self.frame_ids),
            path=health_path, obs=obs, interval=cfg.health_interval,
            run=self._run_n,
        )
        self._refresh_counts()
        self.health.set_state("running")

        self.shutdown = ShutdownCoordinator(
            drain_timeout=cfg.drain_timeout,
            on_drain=lambda reason: self._on_drain(reason),
            on_abort=lambda reason: self._on_abort(reason),
        )
        if cfg.install_signals:
            self.shutdown.install()
        self.watch = FrameWatch()
        engine = BatchEngine(
            self.flags, self.params, workers=self.workers,
            queue_depth=self.queue_depth, keep_outputs=False,
            out_dtype=PIXEL, obs=obs, resilience=self.resilience,
            hooks=EngineHooks(self),
        )
        self.watchdog = Watchdog(
            self.watch, hang_timeout=cfg.hang_timeout,
            capacity=engine.effective_workers,
            interval=cfg.watchdog_interval, obs=obs,
            on_tick=self.health.maybe_write,
            on_shed=lambda: self.shutdown.request_drain("load-shed"),
        )
        self.watchdog.start()

        self.journal.record_run(
            "start", run=self._run_n, state="running",
            frames_total=len(self.frame_ids), todo=len(todo_ids),
            resumed=self._resuming, replay_failures=replay_failures,
        )
        if obs.enabled:
            obs.log.info(
                "job.start", job_id=manifest.job_id, run=self._run_n,
                frames_total=len(self.frame_ids), todo=len(todo_ids),
                resumed=self._resuming, replay_failures=replay_failures,
                job_dir=str(self.job_dir),
            )

        result: BatchResult | None = None
        try:
            if todo_ids:
                todo_paths = [self._by_id[fid] for fid in todo_ids]
                result = engine.run(
                    (self.loader(p) for p in todo_paths),
                    frame_ids=todo_ids,
                )
        except Exception:  # repro: ignore[PL-BROAD-EXCEPT] crash boundary: mark failed, re-raise
            self._finalize("failed")
            raise
        finally:
            self.watchdog.stop()
            if cfg.install_signals:
                self.shutdown.restore()

        outcome = self._finalize(None, result=result)
        if obs.enabled:
            obs.log.info(
                "job.end", job_id=manifest.job_id, run=self._run_n,
                state=outcome.state, exit_code=outcome.exit_code,
                executed=outcome.executed,
                completed=len(outcome.completed),
                failed=len(outcome.failed),
                pending=len(outcome.pending),
            )
        return outcome

    # -- internals ------------------------------------------------------------

    def _config_dump(self) -> dict[str, Any]:
        cfg = self.lifecycle
        return {
            "flags": asdict(self.flags),
            "params": asdict(self.params) if self.params else None,
            "workers": self.workers,
            "lifecycle": {
                "drain_timeout": cfg.drain_timeout,
                "hang_timeout": cfg.hang_timeout,
                "fsync": cfg.fsync,
            },
        }

    def _plan_todo(self, prior: JournalState, *,
                   replay_failures: bool) -> list[str]:
        """Which frames does this run execute?

        Completed frames are skipped only when their output file still
        exists (a deleted output demotes the frame back to pending);
        ``replay_failures`` narrows the plan to the dead letters.
        """
        completed: set[str] = set()
        for fid, record in prior.completed.items():
            if fid not in self._by_id:
                continue  # journal knows frames this manifest does not
            out_name = record.get("output") or fid
            if (self.output_dir / out_name).exists():
                completed.add(fid)
        self._completed_ids = completed
        self._failed_ids = {
            fid for fid in prior.failed
            if fid in self._by_id and fid not in completed
        }
        if replay_failures:
            return [fid for fid in self.frame_ids
                    if fid in self._failed_ids]
        return [fid for fid in self.frame_ids if fid not in completed]

    def _on_frame(self, *, index: int, frame_id: str, stats, output,
                  edge_mean: float, failure) -> None:
        """The journaling point: output first, then the WAL record."""
        out_name = None
        if failure is None and output is not None:
            self.writer(self.output_dir / frame_id, output)
            out_name = frame_id
        self.journal.record_frame(
            frame_id=frame_id,
            index=self._index_of.get(frame_id, index),
            status=STATUS_FAILED if failure else STATUS_COMPLETED,
            run=self._run_n,
            backend=stats.backend,
            attempts=stats.attempts,
            error=failure.error if failure else None,
            error_type=failure.error_type if failure else None,
            edge_mean=edge_mean,
            output=out_name,
        )
        with self._count_lock:
            if failure is None:
                self._completed_ids.add(frame_id)
                self._failed_ids.discard(frame_id)
            else:
                self._failed_ids.add(frame_id)
        self._refresh_counts(last_frame_id=frame_id)
        self.health.maybe_write()

    def _refresh_counts(self, **extra: Any) -> None:
        with self._count_lock:
            completed = len(self._completed_ids)
            failed = len(self._failed_ids)
        total = len(self.frame_ids)
        self.health.update(
            completed=completed, failed=failed,
            pending=max(0, total - completed - failed),
            hangs=self.watch.hangs_total if self.watch else 0,
            shedding=bool(self.watchdog and self.watchdog.shedding),
            **extra,
        )

    def _on_drain(self, reason: str) -> None:
        if self.obs.enabled:
            self.obs.log.warning("job.drain", reason=reason,
                                 drain_timeout_s=self.lifecycle.drain_timeout)
        self.health.set_state("draining")

    def _on_abort(self, reason: str) -> None:
        if self.obs.enabled:
            self.obs.log.error("job.abort", reason=reason)
        if self.watch is not None:
            self.watch.cancel_all()

    def _final_state(self) -> str:
        if self.shutdown is not None and self.shutdown.aborted:
            return "aborted"
        pending = [fid for fid in self.frame_ids
                   if fid not in self._completed_ids
                   and fid not in self._failed_ids]
        if pending:
            return "drained"
        return "completed"

    def _finalize(self, state: str | None, *,
                  result: BatchResult | None = None) -> JobOutcome:
        state = state or self._final_state()
        completed = [fid for fid in self.frame_ids
                     if fid in self._completed_ids]
        failed = [fid for fid in self.frame_ids
                  if fid in self._failed_ids]
        pending = [fid for fid in self.frame_ids
                   if fid not in self._completed_ids
                   and fid not in self._failed_ids]
        self.journal.record_run(
            "end", run=self._run_n, state=state,
            completed=len(completed), failed=len(failed),
            pending=len(pending),
        )
        self.journal.close()
        self._manifest.runs = self._run_n
        self._manifest.transition(state, self.job_dir)
        self._refresh_counts()
        self.health.set_state(state)
        if state == "failed":
            exit_code = EXIT_RUNTIME
        else:
            exit_code = self.shutdown.exit_code(
                pending=len(pending), failed=len(failed))
        return JobOutcome(
            state=state,
            exit_code=exit_code,
            executed=result.n_frames if result is not None else 0,
            completed=completed,
            failed=failed,
            pending=pending,
            job_dir=self.job_dir,
            result=result,
        )
