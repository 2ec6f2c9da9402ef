"""Counter / gauge / histogram registry with Prometheus and JSON export.

The registry is the single source of truth for a run's quantitative
telemetry: pipelines record per-stage duration histograms, transfer byte
counters and launch counts into it, and the experiment reports (Fig. 13
fractions et al.) are computed *from the registry* rather than from ad-hoc
dicts, so what an experiment prints is exactly what a scrape would see.

Mutations are thread-safe (a single process-wide lock): the batch engine's
workers record into one shared registry concurrently.

Dependency-free by design: exporters emit the Prometheus text exposition
format (``registry.to_prometheus_text()`` / ``write_prometheus(path)``) and
a JSON document (``to_json()`` / ``write_json(path)``).  File writes are
atomic (temp file + rename) so a crashed run never leaves a truncated
export behind.
"""

from __future__ import annotations

import bisect
import json
import math
import pathlib
import re
import threading
from typing import Any, Iterable, Mapping

from ..errors import ValidationError
from ..util.io import atomic_write_text

#: One process-wide lock guards every mutation (child creation, counter
#: increments, histogram observations): the batch engine's worker threads
#: share a single registry, and the hot operations are far too cheap for
#: finer-grained locking to pay for its complexity.
_LOCK = threading.RLock()

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets for simulated durations: decade steps with
#: 2.5/5 subdivisions from 1 us to 10 s, covering every stage time the
#: cost model produces from 256x256 up to 8192x8192.
DURATION_BUCKETS = tuple(
    float(f"{base}e{exp}")
    for exp in range(-6, 1)
    for base in ("1", "2.5", "5")
) + (10.0,)


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format."""
    return (value.replace("\\", "\\\\").replace('"', '\\"')
                 .replace("\n", "\\n"))


def escape_help(text: str) -> str:
    """Escape a HELP string per the Prometheus text exposition format."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_suffix(labels: Mapping[str, str],
                  extra: Mapping[str, str] | None = None) -> str:
    merged = {**labels, **(extra or {})}
    if not merged:
        return ""
    inner = ",".join(
        f'{k}="{escape_label_value(str(v))}"' for k, v in merged.items()
    )
    return "{" + inner + "}"


class _Child:
    """One labelled time series of a metric family."""

    __slots__ = ("labels",)

    def __init__(self, labels: Mapping[str, str]) -> None:
        self.labels = dict(labels)


class CounterChild(_Child):
    __slots__ = ("value",)

    def __init__(self, labels: Mapping[str, str]) -> None:
        super().__init__(labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValidationError(
                f"counter increment must be >= 0, got {amount}"
            )
        with _LOCK:
            self.value += amount


class GaugeChild(_Child):
    __slots__ = ("value",)

    def __init__(self, labels: Mapping[str, str]) -> None:
        super().__init__(labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        with _LOCK:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with _LOCK:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with _LOCK:
            self.value -= amount


class HistogramChild(_Child):
    """Bucketed counts plus the running sum and count of observations."""

    __slots__ = ("buckets", "bucket_counts", "sum", "count")

    def __init__(self, labels: Mapping[str, str],
                 buckets: tuple[float, ...]) -> None:
        super().__init__(labels)
        self.buckets = buckets
        self.bucket_counts = [0] * len(buckets)  # per-bucket, not cumulative
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        idx = bisect.bisect_left(self.buckets, value)
        with _LOCK:
            if idx < len(self.buckets):
                self.bucket_counts[idx] += 1
            self.sum += value
            self.count += 1

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs ending with +Inf."""
        out = []
        running = 0
        for bound, n in zip(self.buckets, self.bucket_counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, self.count))
        return out


class Updates:
    """A fixed sequence of counter increments and histogram observations,
    resolved to their children once and applied many times.

    :meth:`apply` makes every update in the order it was added, under one
    lock acquisition.  A series receives the same additions in the same
    order as the equivalent ``inc``/``observe`` calls, so its sums have the
    same bits; only the per-call label lookups and locking are gone.
    """

    __slots__ = ("_ops",)

    def __init__(self) -> None:
        #: ``(child, bucket index, amount)``; index -1 marks a counter.
        self._ops: list[tuple[Any, int, float]] = []

    def inc(self, child: CounterChild, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValidationError(
                f"counter increment must be >= 0, got {amount}"
            )
        self._ops.append((child, -1, amount))

    def observe(self, child: HistogramChild, value: float) -> None:
        value = float(value)
        self._ops.append(
            (child, bisect.bisect_left(child.buckets, value), value))

    def apply(self) -> None:
        with _LOCK:
            for child, idx, amount in self._ops:
                if idx < 0:
                    child.value += amount
                    continue
                if idx < len(child.buckets):
                    child.bucket_counts[idx] += 1
                child.sum += amount
                child.count += 1


_CHILD_TYPES = {
    "counter": CounterChild,
    "gauge": GaugeChild,
    "histogram": HistogramChild,
}


class MetricFamily:
    """A named metric plus all of its labelled children."""

    def __init__(self, name: str, kind: str, help: str,
                 labelnames: tuple[str, ...],
                 buckets: tuple[float, ...] | None = None) -> None:
        if not _NAME_RE.match(name):
            raise ValidationError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValidationError(f"invalid label name {label!r}")
        if kind == "histogram":
            buckets = tuple(sorted(buckets or DURATION_BUCKETS))
            if not buckets:
                raise ValidationError(f"{name}: histogram needs buckets")
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self.buckets = buckets
        self._children: dict[tuple[str, ...], _Child] = {}

    def labels(self, **labels: str) -> Any:
        """Return (creating if needed) the child for this label set."""
        if set(labels) != set(self.labelnames):
            raise ValidationError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(labels)}"
            )
        key = tuple(str(labels[k]) for k in self.labelnames)
        with _LOCK:
            child = self._children.get(key)
            if child is None:
                label_map = dict(zip(self.labelnames, key))
                if self.kind == "histogram":
                    child = HistogramChild(label_map, self.buckets)
                else:
                    child = _CHILD_TYPES[self.kind](label_map)
                self._children[key] = child
            return child

    @property
    def children(self) -> Iterable[Any]:
        return self._children.values()

    def _default_child(self) -> Any:
        if self.labelnames:
            raise ValidationError(
                f"{self.name} has labels {self.labelnames}; use .labels()"
            )
        return self.labels()

    # Unlabelled convenience API (delegates to the single default child).
    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)


class MetricsRegistry:
    """Create-or-get factory and exporter for metric families."""

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}

    def _register(self, name: str, kind: str, help: str,
                  labelnames: tuple[str, ...],
                  buckets: tuple[float, ...] | None = None) -> MetricFamily:
        with _LOCK:
            existing = self._families.get(name)
            if existing is not None:
                if existing.kind != kind:
                    raise ValidationError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {kind}"
                    )
                if existing.labelnames != tuple(labelnames):
                    raise ValidationError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.labelnames}, not {tuple(labelnames)}"
                    )
                return existing
            family = MetricFamily(name, kind, help, tuple(labelnames),
                                  buckets)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "",
                labelnames: tuple[str, ...] = ()) -> MetricFamily:
        return self._register(name, "counter", help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: tuple[str, ...] = ()) -> MetricFamily:
        return self._register(name, "gauge", help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: tuple[str, ...] = (),
                  buckets: tuple[float, ...] | None = None) -> MetricFamily:
        return self._register(name, "histogram", help, labelnames, buckets)

    def get(self, name: str) -> MetricFamily | None:
        return self._families.get(name)

    def families(self) -> Iterable[MetricFamily]:
        return self._families.values()

    # -- export --------------------------------------------------------------

    def to_prometheus_text(self) -> str:
        """Render every family in the Prometheus text exposition format."""
        lines: list[str] = []
        for fam in self._families.values():
            lines.append(f"# HELP {fam.name} {escape_help(fam.help)}")
            lines.append(f"# TYPE {fam.name} {fam.kind}")
            for child in fam.children:
                if fam.kind == "histogram":
                    for bound, cum in child.cumulative_buckets():
                        suffix = _label_suffix(
                            child.labels, {"le": _format_value(bound)}
                        )
                        lines.append(
                            f"{fam.name}_bucket{suffix} {cum}"
                        )
                    base = _label_suffix(child.labels)
                    lines.append(
                        f"{fam.name}_sum{base} {_format_value(child.sum)}"
                    )
                    lines.append(f"{fam.name}_count{base} {child.count}")
                else:
                    suffix = _label_suffix(child.labels)
                    lines.append(
                        f"{fam.name}{suffix} {_format_value(child.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self) -> dict[str, Any]:
        """Registry contents as a plain JSON-serializable document."""
        out: dict[str, Any] = {}
        for fam in self._families.values():
            series = []
            for child in fam.children:
                if fam.kind == "histogram":
                    series.append({
                        "labels": child.labels,
                        "count": child.count,
                        "sum": child.sum,
                        "buckets": [
                            {"le": b if b != math.inf else "+Inf",
                             "count": c}
                            for b, c in child.cumulative_buckets()
                        ],
                    })
                else:
                    series.append({
                        "labels": child.labels,
                        "value": child.value,
                    })
            out[fam.name] = {
                "type": fam.kind,
                "help": fam.help,
                "series": series,
            }
        return out

    def write_prometheus(self, path: str | pathlib.Path) -> pathlib.Path:
        """Atomically write the Prometheus text rendering to ``path``."""
        return atomic_write_text(path, self.to_prometheus_text())

    def write_json(self, path: str | pathlib.Path) -> pathlib.Path:
        """Atomically write the JSON rendering to ``path``."""
        return atomic_write_text(
            path, json.dumps(self.to_json(), indent=1, sort_keys=True) + "\n"
        )
