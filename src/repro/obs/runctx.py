"""Run context: one run id + the three sinks (log, metrics, trace).

A :class:`RunContext` is what pipelines and experiments thread through the
code instead of separate logger/registry/tracer arguments.  It carries the
run id and static metadata (pipeline flags, image shape) and owns the three
sinks, plus the stage-metric conventions shared by every pipeline:

* ``repro_stage_seconds{pipeline,stage}`` — per-stage simulated duration
  histogram (the Fig. 13 raw material);
* ``repro_pipeline_runs_total{pipeline}`` / ``repro_pipeline_simulated_
  seconds{pipeline}`` — run counts and end-to-end simulated times.

:meth:`RunContext.record_frame` is the one place a finished frame of any
backend is recorded into all three sinks.

``RunContext.disabled()`` (the module's :data:`NULL_CONTEXT`) swaps every
sink for a no-op implementation, so instrumented code paths cost almost
nothing when the caller did not ask for observability — the
``benchmarks/bench_obs_overhead.py`` benchmark holds this to <5%.
"""

from __future__ import annotations

import pathlib
import uuid
import weakref
from dataclasses import dataclass, field
from typing import IO, Any, Callable, Iterable, Mapping

from .log import Logger, NullLogger
from .metrics import DURATION_BUCKETS, MetricsRegistry, Updates
from .trace import NullTracer, Tracer

#: Metric names shared by every pipeline.
STAGE_SECONDS = "repro_stage_seconds"
PIPELINE_RUNS = "repro_pipeline_runs_total"
PIPELINE_SECONDS = "repro_pipeline_simulated_seconds"


@dataclass
class RunContext:
    """One run's identity, metadata and observability sinks.

    ``faults`` optionally carries a
    :class:`~repro.resilience.faults.FaultPlan`: the simulated runtime's
    fault sites (queue transfers, kernel launches, buffer-pool
    acquisitions, batch workers) consult it on every operation, so one
    context both *injects* the failures and *observes* them (every
    injection lands in ``repro_faults_injected_total{site}``).
    """

    run_id: str
    log: Logger
    metrics: MetricsRegistry
    trace: Tracer
    meta: dict[str, Any] = field(default_factory=dict)
    enabled: bool = True
    #: Optional FaultPlan consulted by the simulated runtime's fault sites
    #: (typed loosely to keep obs import-free of the resilience layer).
    faults: Any = None
    #: Per-key values of :meth:`memoize`.
    _memo: weakref.WeakKeyDictionary = field(
        default_factory=weakref.WeakKeyDictionary, init=False, repr=False,
        compare=False)

    # -- constructors --------------------------------------------------------

    @classmethod
    def create(cls, run_id: str | None = None, *,
               log_level: int | str = "info",
               log_stream: IO[str] | None = None,
               log_format: str = "logfmt",
               meta: Mapping[str, Any] | None = None,
               faults: Any = None) -> "RunContext":
        """Build an enabled context with fresh sinks."""
        run_id = run_id or uuid.uuid4().hex[:12]
        log = Logger(level=log_level, stream=log_stream,
                     fmt=log_format).bind(run=run_id)
        return cls(run_id=run_id, log=log, metrics=MetricsRegistry(),
                   trace=Tracer(), meta=dict(meta or {}), faults=faults)

    @classmethod
    def disabled(cls) -> "RunContext":
        """A context whose sinks all drop their input."""
        return cls(run_id="disabled", log=NullLogger(),
                   metrics=MetricsRegistry(), trace=NullTracer(),
                   enabled=False)

    # -- conveniences --------------------------------------------------------

    def span(self, name: str, **attrs: Any):
        return self.trace.span(name, **attrs)

    def stage_histogram(self):
        """The shared per-stage duration histogram family."""
        return self.metrics.histogram(
            STAGE_SECONDS,
            "Simulated duration per pipeline stage (seconds)",
            ("pipeline", "stage"),
            buckets=DURATION_BUCKETS,
        )

    def observe_stages(self, pipeline: str,
                       stage_seconds: Mapping[str, float],
                       declare: Iterable[str] = ()) -> None:
        """Record one run's per-stage simulated times.

        ``declare`` names stages that must *exist* in the export even when
        this run never executed them (e.g. ``padding`` under
        pad-on-transfer); they get an empty histogram series rather than a
        misleading 0-second observation.
        """
        if self.enabled:
            self._stage_updates(Updates(), pipeline, stage_seconds,
                                declare).apply()

    def _stage_updates(self, updates: Updates, pipeline: str,
                       stage_seconds: Mapping[str, float],
                       declare: Iterable[str]) -> Updates:
        hist = self.stage_histogram()
        for stage in declare:
            hist.labels(pipeline=pipeline, stage=stage)
        for stage, seconds in stage_seconds.items():
            updates.observe(hist.labels(pipeline=pipeline, stage=stage),
                            seconds)
        return updates

    def record_run(self, pipeline: str, simulated_seconds: float) -> None:
        """Count a completed pipeline run and its end-to-end time."""
        if self.enabled:
            self._run_updates(Updates(), pipeline, simulated_seconds).apply()

    def _run_updates(self, updates: Updates, pipeline: str,
                     simulated_seconds: float) -> Updates:
        updates.inc(self.metrics.counter(
            PIPELINE_RUNS, "Completed pipeline runs", ("pipeline",)
        ).labels(pipeline=pipeline))
        updates.observe(self.metrics.histogram(
            PIPELINE_SECONDS, "End-to-end simulated pipeline time (seconds)",
            ("pipeline",), buckets=DURATION_BUCKETS,
        ).labels(pipeline=pipeline), simulated_seconds)
        return updates

    def memoize(self, key: Any, name: str, build: Callable[[], Any]) -> Any:
        """``build()``, computed once per ``(key, name)`` in this context.

        ``key`` is held weakly, so its entries go when it does.  This is
        how a replayed frame's telemetry costs the same whatever its
        stages: :meth:`record_frame` and
        :func:`~repro.cl.queue.record_commands` resolve a plan's metric
        updates at its first frame and re-apply them after.
        """
        memo = self._memo.get(key)
        if memo is None:
            memo = self._memo.setdefault(key, {})
        value = memo.get(name)
        if value is None:
            value = memo[name] = build()
        return value

    def record_frame(self, pipeline: str, result, declare: Iterable[str],
                     device: str, *, key: Any = None,
                     **fields: Any) -> None:
        """Record one finished frame of any backend.

        ``result`` is a :class:`~repro.types.FrameResult`: its stage times
        feed :meth:`observe_stages` (``declare`` as there), its total
        feeds :meth:`record_run`, its timeline is merged into the trace as
        the process row ``"<device> [<pipeline>]"``, and a
        ``pipeline.complete`` log line carries ``fields``.

        ``key`` (held weakly; a GPU frame passes its execution plan) marks
        frames whose times are all the same: their metric updates are
        resolved once per key and ``pipeline`` (:meth:`memoize`).
        """
        if not self.enabled:
            return

        def build() -> Updates:
            updates = self._stage_updates(Updates(), pipeline,
                                          result.times.times, declare)
            return self._run_updates(updates, pipeline, result.total_time)

        updates = (build() if key is None
                   else self.memoize(key, "frame:" + pipeline, build))
        updates.apply()
        self.trace.merge_timeline(result.timeline,
                                  label=f"{device} [{pipeline}]")
        self.log.info("pipeline.complete", pipeline=pipeline, **fields,
                      simulated_ms=result.total_time * 1e3)

    def stage_fractions(self, pipeline: str) -> dict[str, float]:
        """Per-stage share of total time, computed from the registry.

        This is the metrics-registry-backed path behind the Fig.-13-style
        fraction reports: it aggregates the ``repro_stage_seconds`` sums,
        so a report and a metrics scrape can never disagree.
        """
        family = self.metrics.get(STAGE_SECONDS)
        if family is None:
            return {}
        sums = {
            child.labels["stage"]: child.sum
            for child in family.children
            if child.labels.get("pipeline") == pipeline and child.count
        }
        total = sum(sums.values())
        if total <= 0:
            return {stage: 0.0 for stage in sums}
        return {stage: s / total for stage, s in sums.items()}

    # -- export --------------------------------------------------------------

    def write_trace(self, path: str | pathlib.Path) -> pathlib.Path:
        return self.trace.write_chrome_trace(path)

    def write_metrics(self, path: str | pathlib.Path) -> pathlib.Path:
        return self.metrics.write_prometheus(path)


#: Shared disabled context used by pipelines when no ``obs=`` was passed.
NULL_CONTEXT = RunContext.disabled()
