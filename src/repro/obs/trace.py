"""Host-side span tracing with Chrome-trace export and Timeline merging.

A :class:`Tracer` records nested wall-clock spans around host code::

    with tracer.span("gpu.run", pipeline="gpu"):
        with tracer.span("gpu.sobel"):
            ...

and exports them in the Chrome trace-event format (open the file at
https://ui.perfetto.dev or chrome://tracing).  The differentiator is
:meth:`Tracer.merge_timeline`: a simulated :class:`~repro.simgpu.profiling.
Timeline` (the device-side record of kernels, DMA transfers and host steps)
is folded into the *same* trace file as a separate process row, so one
Perfetto view shows the real host spans next to the simulated device
activity they caused.

Host spans and simulated events run on different clocks (wall time vs the
simulator's), which Chrome trace handles naturally: each merged timeline
gets its own ``pid`` whose clock starts at zero.

The tracer is thread-safe: each thread nests its spans on its own stack
and gets its own ``tid`` row under the host process (the first thread to
open a span is ``tid=1``), so a batch run's worker frames show up next to
the submitting thread's spans.

All writes are atomic (temp file + rename) and accept ``str`` or
``pathlib.Path``.
"""

from __future__ import annotations

import json
import pathlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from ..errors import ValidationError
from ..util.io import atomic_write_text

#: pid of the host-span process row in exported traces.
HOST_PID = 1

#: Chrome-trace row per merged simulated event kind (keeps transfers,
#: kernels and host work on separate "threads" in the viewer).
_SIM_ROWS = {"kernel": 1, "transfer": 2, "host": 3, "sync": 4}


@dataclass
class Span:
    """One completed (or open) host span."""

    name: str
    start: float  # seconds since tracer epoch
    end: float | None = None
    parent: "Span | None" = None
    depth: int = 0
    tid: int = 1
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValidationError(f"span {self.name!r} is still open")
        return self.end - self.start

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the span after it was opened."""
        self.args.update(attrs)


class _SpanHandle:
    """Context manager that closes a span and pops the tracer stack."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._close(self.span, error=exc_type is not None)
        return False


class _ThreadState(threading.local):
    """One thread's open-span stack and Chrome-trace row."""

    tid = 0

    def __init__(self) -> None:
        self.stack: list[Span] = []


class Tracer:
    """Collects nested host spans plus merged simulated timelines."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._epoch = clock()
        self.spans: list[Span] = []
        self._local = _ThreadState()
        self._lock = threading.Lock()
        #: Thread name per host row; ``tid`` is the index + 1.
        self._threads: list[str] = []
        #: ``(pid, label, events)`` per merged timeline.
        self._merged: list[tuple[int, str, tuple]] = []
        self._next_pid = HOST_PID + 1

    # -- spans ---------------------------------------------------------------

    def now(self) -> float:
        """Seconds since the tracer was created."""
        return self._clock() - self._epoch

    def _state(self) -> _ThreadState:
        """This thread's state, given a ``tid`` row on first use."""
        state = self._local
        if not state.tid:
            with self._lock:
                self._threads.append(threading.current_thread().name)
                state.tid = len(self._threads)
        return state

    def span(self, name: str, parent: Span | None = None,
             **attrs: Any) -> _SpanHandle:
        """Open a span on this thread; use as a context manager.

        ``parent`` adopts a span of another thread as the parent of this
        thread's outermost span (a worker's frame under the run that
        submitted it); inside an open span it is ignored.
        """
        state = self._state()
        stack = state.stack
        if stack:
            parent = stack[-1]
        span = Span(
            name=name, start=self.now(), parent=parent,
            depth=parent.depth + 1 if parent is not None else 0,
            tid=state.tid, args=dict(attrs),
        )
        with self._lock:
            self.spans.append(span)
        stack.append(span)
        return _SpanHandle(self, span)

    def add_span(self, name: str, start: float, end: float,
                 **attrs: Any) -> Span:
        """Record a finished span of this thread, timed by the caller on
        :meth:`now`, under this thread's open span (if any)."""
        state = self._state()
        stack = state.stack
        parent = stack[-1] if stack else None
        span = Span(
            name=name, start=start, end=end, parent=parent,
            depth=parent.depth + 1 if parent is not None else 0,
            tid=state.tid, args=dict(attrs),
        )
        with self._lock:
            self.spans.append(span)
        return span

    def _close(self, span: Span, *, error: bool = False) -> None:
        stack = self._local.stack
        if not stack or stack[-1] is not span:
            raise ValidationError(
                f"span {span.name!r} closed out of order"
            )
        stack.pop()
        span.end = self.now()
        if error:
            span.args.setdefault("error", True)

    # -- merging simulated timelines -----------------------------------------

    def merge_timeline(self, timeline, *, label: str = "simulated device",
                       pid: int | None = None) -> int:
        """Fold a simulated ``Timeline`` into this trace as its own process.

        ``timeline`` is anything with an ``events`` list of objects carrying
        ``name`` / ``kind`` / ``start`` / ``duration`` / ``stage``
        (duck-typed so :mod:`repro.obs` does not import the simulator).
        Returns the pid assigned to the merged process row.
        """
        if pid == HOST_PID:
            raise ValidationError(
                f"pid {HOST_PID} is reserved for host spans"
            )
        with self._lock:
            if pid is None:
                pid = self._next_pid
                self._next_pid += 1
            # Expanded into events at export: the events are frozen and a
            # timeline only grows, so the snapshot is all a merge keeps.
            self._merged.append((pid, label, tuple(timeline.events)))
        return pid

    # -- export --------------------------------------------------------------

    def chrome_trace(self) -> dict:
        """The whole trace in Chrome trace-event format (dict form)."""
        with self._lock:
            spans = list(self.spans)
            threads = list(self._threads)
            merged = list(self._merged)
        events: list[dict] = [{
            "name": "process_name", "ph": "M", "pid": HOST_PID, "tid": 1,
            "args": {"name": "host"},
        }]
        for tid, thread in enumerate(threads, 1):
            events.append({
                "name": "thread_name", "ph": "M", "pid": HOST_PID,
                "tid": tid, "args": {"name": thread},
            })
        end_fallback = self.now()
        for span in spans:
            end = span.end if span.end is not None else end_fallback
            events.append({
                "name": span.name,
                "cat": "host",
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": (end - span.start) * 1e6,
                "pid": HOST_PID,
                "tid": span.tid,
                "args": dict(span.args),
            })
        for pid, label, sim_events in merged:
            events.extend(_merged_events(pid, label, sim_events))
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str | pathlib.Path) -> pathlib.Path:
        """Atomically write the trace as Chrome trace JSON."""
        return atomic_write_text(
            path, json.dumps(self.chrome_trace(), indent=1)
        )


def _merged_events(pid: int, label: str, sim_events) -> list[dict]:
    """The Chrome-trace events of one merged timeline's process row."""
    events = [{
        "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
        "args": {"name": label},
    }]
    for kind, tid in _SIM_ROWS.items():
        events.append({
            "name": "thread_name", "ph": "M", "pid": pid,
            "tid": tid, "args": {"name": kind},
        })
    for e in sim_events:
        events.append({
            "name": e.name,
            "cat": e.kind,
            "ph": "X",
            "ts": e.start * 1e6,
            "dur": e.duration * 1e6,
            "pid": pid,
            "tid": _SIM_ROWS.get(e.kind, 9),
            "args": {"stage": e.stage},
        })
    return events


class _NullSpanHandle:
    """Shared no-op span handle for :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass

    @property
    def span(self) -> "_NullSpanHandle":
        return self


_NULL_SPAN = _NullSpanHandle()


class NullTracer(Tracer):
    """A tracer that records nothing (disabled observability)."""

    def span(self, name: str, parent: Any = None,  # type: ignore[override]
             **attrs: Any) -> _NullSpanHandle:
        return _NULL_SPAN

    def add_span(self, name: str, start: float,  # type: ignore[override]
                 end: float, **attrs: Any) -> _NullSpanHandle:
        return _NULL_SPAN

    def merge_timeline(self, timeline, *, label: str = "simulated device",
                       pid: int | None = None) -> int:
        return 0
