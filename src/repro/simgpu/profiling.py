"""Simulated event timelines (the OpenCL profiling-events analogue).

Every enqueued command (transfer, kernel, host step) appends an
:class:`Event` with simulated start/end timestamps to a :class:`Timeline`.
The pipeline's Fig.-13-style stage breakdowns are aggregations over these
events, so the reports are backed by the same records a real OpenCL
profiling run would produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ValidationError


@dataclass(frozen=True)
class Event:
    """One completed command on the simulated timeline."""

    name: str
    kind: str  # "kernel" | "transfer" | "host" | "sync"
    start: float
    end: float
    stage: str = ""  # pipeline stage this event belongs to (Fig. 13 label)

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValidationError(
                f"event {self.name}: end {self.end} before start {self.start}"
            )

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Timeline:
    """An append-only sequence of simulated events with a running clock."""

    events: list[Event] = field(default_factory=list)
    now: float = 0.0

    def record(self, name: str, kind: str, duration: float,
               stage: str = "") -> Event:
        """Append an event of ``duration`` seconds starting at the clock."""
        if duration < 0:
            raise ValidationError(
                f"event {name}: negative duration {duration}"
            )
        event = Event(
            name=name, kind=kind, start=self.now, end=self.now + duration,
            stage=stage or name,
        )
        self.events.append(event)
        self.now = event.end
        return event

    def record_interval(self, name: str, kind: str, start: float,
                        end: float, stage: str = "") -> Event:
        """Append an event with explicit timestamps (events may overlap).

        Used by the resource scheduler; advances the clock to the latest
        end seen so ``total`` stays the makespan.
        """
        event = Event(name=name, kind=kind, start=start, end=end,
                      stage=stage or name)
        self.events.append(event)
        self.now = max(self.now, event.end)
        return event

    @property
    def total(self) -> float:
        return self.now

    def by_stage(self) -> dict[str, float]:
        """Total duration per stage label."""
        out: dict[str, float] = {}
        for e in self.events:
            out[e.stage] = out.get(e.stage, 0.0) + e.duration
        return out

    def by_kind(self) -> dict[str, float]:
        """Total duration per event kind."""
        out: dict[str, float] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0.0) + e.duration
        return out

    def of_kind(self, kind: str) -> list[Event]:
        return [e for e in self.events if e.kind == kind]

    # -- export ----------------------------------------------------------

    def ascii_gantt(self, width: int = 72) -> str:
        """Render the timeline as a monospace Gantt chart.

        One row per event; the bar position/length shows when the command
        ran on the simulated clock.
        """
        if not self.events:
            return "(empty timeline)"
        total = self.total or 1.0
        label_w = max(len(e.name) for e in self.events)
        lines = [
            f"{'event'.ljust(label_w)} |{'simulated time'.center(width)}|"
        ]
        for e in self.events:
            start = int(round(e.start / total * width))
            length = max(int(round(e.duration / total * width)), 1)
            length = min(length, width - start)
            bar = " " * start + "#" * length
            lines.append(
                f"{e.name.ljust(label_w)} |{bar.ljust(width)}| "
                f"{e.duration * 1e6:9.1f} us"
            )
        lines.append(f"{'total'.ljust(label_w)} |{' ' * width}| "
                     f"{total * 1e6:9.1f} us")
        return "\n".join(lines)
