"""Job health surface: liveness/readiness/progress snapshots + gauges.

A durable job continuously publishes *where it is*:

* a JSON snapshot file (``--health-out`` / ``LifecycleConfig.health_path``,
  default ``<job-dir>/health.json``), written atomically so a scraper
  never reads a torn document.  ``live`` is true while the process keeps
  refreshing ``updated_unix`` (staleness = the probe's liveness signal);
  ``ready`` is true while the job is running and admitting frames (false
  once draining, shedding, or finished);
* metrics through :mod:`repro.obs.metrics`:
  ``repro_job_state`` (numeric code, see :data:`STATE_CODES`),
  ``repro_frames_completed`` / ``repro_frames_pending`` /
  ``repro_frames_inflight`` / ``repro_frames_failed`` gauges, and the
  watchdog's ``repro_watchdog_hangs_total`` counter.

The reporter is cheap on purpose: gauges update on every change, but the
file write is rate-limited to ``interval`` seconds except at state
transitions and shutdown, which always flush.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time
from typing import Any, Callable

from ..obs.runctx import NULL_CONTEXT
from ..util.io import atomic_write_text
from .journal import JOB_STATES

HEALTH_NAME = "health.json"

#: Numeric encoding of job states for the ``repro_job_state`` gauge.
STATE_CODES = {state: code for code, state in enumerate(JOB_STATES)}

JOB_STATE = "repro_job_state"
FRAMES_COMPLETED = "repro_frames_completed"
FRAMES_PENDING = "repro_frames_pending"
FRAMES_INFLIGHT = "repro_frames_inflight"
FRAMES_FAILED_GAUGE = "repro_frames_failed"


class HealthReporter:
    """Mutable job-progress snapshot with atomic JSON export.

    Thread-safe: frame completions land from the engine's collector
    thread while the watchdog ticks the periodic write; writes run one
    at a time.
    """

    def __init__(self, *, job_id: str, frames_total: int,
                 path: str | pathlib.Path | None = None,
                 obs=NULL_CONTEXT, interval: float = 1.0,
                 run: int = 1,
                 clock: Callable[[], float] = time.time) -> None:
        self.job_id = job_id
        self.path = pathlib.Path(path) if path is not None else None
        self.obs = obs
        self.interval = interval
        self.clock = clock
        self._lock = threading.Lock()
        # Held over a whole write, so an older snapshot never replaces a
        # newer one.
        self._write_lock = threading.Lock()
        self._started = clock()
        self._last_write = 0.0
        self._state = "starting"
        self._fields: dict[str, Any] = {
            "frames_total": frames_total,
            "completed": 0,
            "failed": 0,
            "inflight": 0,
            "pending": frames_total,
            "hangs": 0,
            "shedding": False,
            "run": run,
            "last_frame_id": None,
        }
        self._publish_gauges()

    # -- updates --------------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def set_state(self, state: str) -> None:
        """Transition the job state; always flushes the snapshot file."""
        if state not in JOB_STATES:
            from ..errors import ValidationError
            raise ValidationError(
                f"job state must be one of {JOB_STATES}, got {state!r}"
            )
        with self._lock:
            self._state = state
        self._publish_gauges()
        self.write()

    def update(self, **fields: Any) -> None:
        """Merge progress fields (completed/failed/inflight/pending/...)."""
        with self._lock:
            for key, value in fields.items():
                if key not in self._fields:
                    from ..errors import ValidationError
                    raise ValidationError(
                        f"unknown health field {key!r}"
                    )
                self._fields[key] = value
        self._publish_gauges()

    def _publish_gauges(self) -> None:
        obs = self.obs
        if not obs.enabled:
            return
        with self._lock:
            state_code = STATE_CODES[self._state]
            fields = dict(self._fields)
        metrics = obs.metrics
        metrics.gauge(
            JOB_STATE,
            "Durable-job state code "
            "(0=starting 1=running 2=draining 3=drained 4=completed "
            "5=aborted 6=failed)",
        ).set(state_code)
        metrics.gauge(
            FRAMES_COMPLETED, "Frames journaled completed (job total)",
        ).set(fields["completed"])
        metrics.gauge(
            FRAMES_PENDING, "Frames not yet completed",
        ).set(fields["pending"])
        metrics.gauge(
            FRAMES_INFLIGHT, "Frames currently being processed",
        ).set(fields["inflight"])
        metrics.gauge(
            FRAMES_FAILED_GAUGE, "Frames whose latest outcome is a failure",
        ).set(fields["failed"])

    # -- snapshot & export ----------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        now = self.clock()
        with self._lock:
            state = self._state
            fields = dict(self._fields)
        running = state in ("starting", "running")
        return {
            "job_id": self.job_id,
            "state": state,
            "state_code": STATE_CODES[state],
            "live": True,
            "ready": running and not fields["shedding"],
            "pid": os.getpid(),
            "started_unix": self._started,
            "updated_unix": now,
            "uptime_s": max(0.0, now - self._started),
            **fields,
        }

    def write(self) -> pathlib.Path | None:
        """Atomically write the snapshot file (no-op without a path)."""
        if self.path is None:
            return None
        with self._write_lock:
            snap = self.snapshot()
            atomic_write_text(
                self.path, json.dumps(snap, indent=1, sort_keys=True) + "\n")
            self._last_write = snap["updated_unix"]
        return self.path

    def maybe_write(self) -> None:
        """Rate-limited write (the watchdog calls this every tick)."""
        if self.path is None:
            return
        if self.clock() - self._last_write >= self.interval:
            self.write()
