"""Dependency-aware resource scheduling (copy/compute overlap).

The in-order command queue serializes everything — faithful to the paper's
host code.  Real OpenCL applications overlap transfers with kernels using
multiple queues/events and a second DMA engine; this module provides the
generic machinery to model that:

:class:`ResourceScheduler` performs classic list scheduling of operations
over named exclusive resources (``dma`` for the PCI-E copy engine,
``compute`` for the shader core, ``host`` for CPU-side steps): an operation
starts when its dependencies have finished *and* its resource is free.

:func:`repro.core.dag.overlap_stream` applies it to a sequence of recorded
per-frame timelines: each frame keeps its stage dependencies, frames compete
for the engines — so frame N's transfers hide under frame N-1's kernels
exactly as with double buffering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ValidationError
from .profiling import Timeline

#: Which exclusive engine executes each event kind.
KIND_TO_RESOURCE = {
    "transfer": "dma",
    "host": "host",
    "kernel": "compute",
    "sync": "compute",
}

RESOURCES = ("dma", "compute", "host")


@dataclass
class ScheduledOp:
    """One operation to schedule."""

    name: str
    kind: str
    duration: float
    resource: str
    deps: tuple[int, ...] = ()
    stage: str = ""
    # filled by schedule():
    start: float = field(default=-1.0, compare=False)
    end: float = field(default=-1.0, compare=False)


class ResourceScheduler:
    """List scheduler over exclusive resources with dependencies."""

    def __init__(self, resources: tuple[str, ...] = RESOURCES) -> None:
        if not resources:
            raise ValidationError("need at least one resource")
        self.resources = tuple(resources)
        self.ops: list[ScheduledOp] = []

    def add(self, name: str, kind: str, duration: float, resource: str,
            deps: tuple[int, ...] | list[int] = (), *,
            stage: str = "") -> int:
        """Register an operation; returns its id for use in later deps."""
        if resource not in self.resources:
            raise ValidationError(
                f"unknown resource {resource!r}; have {self.resources}"
            )
        if duration < 0:
            raise ValidationError(f"{name}: negative duration {duration}")
        op_id = len(self.ops)
        for d in deps:
            if not 0 <= d < op_id:
                raise ValidationError(
                    f"{name}: dependency {d} is not an earlier op"
                )
        self.ops.append(ScheduledOp(
            name=name, kind=kind, duration=float(duration),
            resource=resource, deps=tuple(deps), stage=stage,
        ))
        return op_id

    @staticmethod
    def _earliest_fit(busy: list[tuple[float, float]], ready: float,
                      duration: float) -> float:
        """Earliest start >= ready where ``duration`` fits between the
        sorted busy intervals (gap-filling insertion scheduling)."""
        candidate = ready
        for s, e in busy:
            if candidate + duration <= s:
                break  # fits in the gap before this interval
            candidate = max(candidate, e)
        return candidate

    def schedule(self) -> Timeline:
        """Assign start/end times; return the overlapped timeline.

        Ready-time-priority list scheduling with gap filling: among all
        operations whose dependencies have completed, the one that can
        start earliest is placed next (ties broken by registration order),
        into the earliest idle gap of its resource.  This is what a
        dual-queue OpenCL application achieves with events — a later
        frame's upload slots into the DMA engine's idle time under an
        earlier frame's kernels instead of waiting for the whole frame.
        """
        import heapq

        busy: dict[str, list[tuple[float, float]]] = {
            r: [] for r in self.resources
        }
        n = len(self.ops)
        remaining_deps = [len(op.deps) for op in self.ops]
        dependents: list[list[int]] = [[] for _ in range(n)]
        for i, op in enumerate(self.ops):
            for d in op.deps:
                dependents[d].append(i)

        heap: list[tuple[float, int]] = []
        for i, op in enumerate(self.ops):
            if remaining_deps[i] == 0:
                heapq.heappush(heap, (0.0, i))

        scheduled: list[int] = []
        while heap:
            ready, i = heapq.heappop(heap)
            op = self.ops[i]
            op.start = self._earliest_fit(busy[op.resource], ready,
                                          op.duration)
            op.end = op.start + op.duration
            intervals = busy[op.resource]
            intervals.append((op.start, op.end))
            intervals.sort()
            scheduled.append(i)
            for j in dependents[i]:
                remaining_deps[j] -= 1
                if remaining_deps[j] == 0:
                    dep_ready = max(self.ops[d].end
                                    for d in self.ops[j].deps)
                    heapq.heappush(heap, (dep_ready, j))

        if len(scheduled) != n:  # pragma: no cover - guarded by add()
            raise ValidationError("dependency cycle in schedule")
        timeline = Timeline()
        for i in sorted(scheduled, key=lambda k: (self.ops[k].start, k)):
            op = self.ops[i]
            timeline.record_interval(op.name, op.kind, op.start, op.end,
                                     stage=op.stage)
        return timeline

    def resource_busy_times(self) -> dict[str, float]:
        """Total busy time per resource (call after :meth:`schedule`)."""
        out = {r: 0.0 for r in self.resources}
        for op in self.ops:
            out[op.resource] += op.duration
        return out
