"""In-memory spans recorded by the benchmark around calls into the program.

The benchmark traces from outside: it opens a span around each call it
makes into a layer's public functions (and, through ``BatchEngine``'s
public ``hooks=``, around each frame a worker serves).  Spans stay in
memory; :meth:`Spans.summary` writes them out when the run ends.

A span opened on a thread whose own stack is empty (a batch worker) takes
the benchmark's currently open top-level span as its parent, so the frames
of one ``BatchEngine.run`` share that request's id.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from contextlib import contextmanager


class Spans:
    """Thread-safe recorder of ``(name, start, end, id, parent)`` spans."""

    def __init__(self) -> None:
        self.records: list[tuple[str, float, float, int, int | None]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str):
        """Open a span on this thread; pass the token to :meth:`end`."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1][1] if stack else self._root
        if not stack and threading.current_thread() is threading.main_thread():
            self._root = sid
        stack.append((name, sid, parent, time.perf_counter()))
        return sid

    def end(self, sid: int) -> None:
        end = time.perf_counter()
        name, top, parent, start = self._stack().pop()
        if top != sid:
            raise RuntimeError(f"span {name!r} closed out of order")
        if top == self._root:
            self._root = None
        self.records.append((name, start, end, sid, parent))

    @contextmanager
    def span(self, name: str):
        sid = self.begin(name)
        try:
            yield sid
        finally:
            self.end(sid)

    def durations(self, name: str) -> list[float]:
        """Seconds spent in every closed span called ``name``."""
        return [end - start for n, start, end, _, _ in self.records
                if n == name]

    def median_ms(self, name: str) -> float:
        values = self.durations(name)
        if not values:
            raise RuntimeError(f"no span {name!r} was recorded")
        return statistics.median(values) * 1e3

    def summary(self) -> list[str]:
        """One line per span name: count, total, self time, median.

        Self time is a span's duration minus the part of its interval that
        its child spans cover (overlapping children count once).
        """
        children: dict[int, list[tuple[float, float]]] = {}
        for _, start, end, _, parent in self.records:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        totals: dict[str, list[float]] = {}
        for name, start, end, sid, _ in self.records:
            covered, reach = 0.0, start
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            row = totals.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered
        lines = []
        for name in sorted(totals):
            count, total, own = totals[name]
            lines.append(
                f"span {name} count={count} total_ms={total * 1e3:.3f} "
                f"self_ms={own * 1e3:.3f} "
                f"median_ms={self.median_ms(name):.4f}"
            )
        return lines


class SpanHooks:
    """``BatchEngine`` lifecycle hooks that record one span per frame.

    The span runs from ``frame_started`` to ``frame_finished`` on the
    worker thread, so it measures the worker's service time for the frame.
    Every other hook keeps the engine's default behaviour.
    """

    def __init__(self, spans: Spans, name: str = "batch.frame") -> None:
        self.spans = spans
        self.name = name
        self._open: dict[int, int] = {}

    def admit(self) -> bool:
        return True

    def frame_started(self, index: int, frame_id: str) -> None:
        self._open[index] = self.spans.begin(self.name)

    def frame_finished(self, index: int) -> None:
        self.spans.end(self._open.pop(index))

    def is_hung(self, index: int) -> bool:
        return False

    def abandon(self) -> bool:
        return False

    def on_frame(self, **_) -> None:
        pass
