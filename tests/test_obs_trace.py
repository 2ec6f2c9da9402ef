"""Tracer: span nesting/ordering, Chrome export, Timeline merging."""

import json
import sys
import threading

import pytest

from repro.core import OPTIMIZED, GPUPipeline
from repro.errors import ValidationError
from repro.obs import NullTracer, Tracer
from repro.simgpu.profiling import Timeline
from repro.types import Image
from repro.util import images


class FakeClock:
    """Deterministic monotonically advancing clock."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 0.001
        return self.t


def make_tracer():
    return Tracer(clock=FakeClock())


class TestSpans:
    def test_nesting_parents_and_depth(self):
        tr = make_tracer()
        with tr.span("outer"):
            with tr.span("mid"):
                with tr.span("inner"):
                    pass
            with tr.span("mid2"):
                pass
        outer, mid, inner, mid2 = tr.spans
        assert outer.parent is None and outer.depth == 0
        assert mid.parent is outer and mid.depth == 1
        assert inner.parent is mid and inner.depth == 2
        assert mid2.parent is outer and mid2.depth == 1

    def test_ordering_and_containment(self):
        tr = make_tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        outer, inner = tr.spans
        assert outer.start <= inner.start
        assert inner.end <= outer.end
        assert inner.duration >= 0

    def test_span_attrs_and_set(self):
        tr = make_tracer()
        with tr.span("s", k=1) as span:
            span.set(extra="v")
        assert tr.spans[0].args == {"k": 1, "extra": "v"}

    def test_exception_closes_span_and_marks_error(self):
        tr = make_tracer()
        with pytest.raises(RuntimeError):
            with tr.span("s"):
                raise RuntimeError("boom")
        span = tr.spans[0]
        assert span.end is not None
        assert span.args.get("error") is True
        # The stack is clean: a new root span has no parent.
        with tr.span("t"):
            pass
        assert tr.spans[1].parent is None

    def test_open_span_duration_raises(self):
        tr = make_tracer()
        handle = tr.span("s")
        with pytest.raises(ValidationError):
            _ = handle.span.duration
        with handle:
            pass

    def test_add_span_records_under_the_open_span(self):
        tr = make_tracer()
        with tr.span("outer"):
            t0 = tr.now()
            t1 = tr.now()
            span = tr.add_span("phase", t0, t1, k=1)
        outer, added = tr.spans
        assert added is span
        assert added.parent is outer and added.depth == 1
        assert (added.start, added.end, added.args) == (t0, t1, {"k": 1})
        root = tr.add_span("root", t1, t1)
        assert root.parent is None and root.depth == 0

    def test_closing_out_of_order_raises(self):
        tr = make_tracer()
        outer = tr.span("outer")
        tr.span("inner")
        with pytest.raises(ValidationError, match="out of order"):
            outer.__exit__(None, None, None)


class TestThreads:
    def test_concurrent_threads_nest_on_their_own_stacks(self):
        tags = ("a", "b", "c", "d")  # more threads than a small host's cores
        tr = Tracer()
        start = threading.Barrier(len(tags))
        errors = []

        def work(tag):
            try:
                start.wait(timeout=10)
                for _ in range(50):
                    with tr.span(f"{tag}.outer"):
                        with tr.span(f"{tag}.inner"):
                            pass
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(tag,), name=tag)
                   for tag in tags]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        # A lost append under contention would drop a span.
        assert len(tr.spans) == len(tags) * 2 * 50
        for span in tr.spans:
            if span.name.endswith(".inner"):
                assert span.parent.name == span.name.replace("inner",
                                                             "outer")
                assert span.parent.tid == span.tid
            else:
                assert span.parent is None
        events = tr.chrome_trace()["traceEvents"]
        rows = {e["tid"]: e["args"]["name"] for e in events
                if e["name"] == "thread_name" and e["pid"] == 1}
        assert sorted(rows.values()) == list(tags)
        host_tids = {e["tid"] for e in events
                     if e["ph"] == "X" and e["pid"] == 1}
        assert host_tids == set(rows) == set(range(1, len(tags) + 1))
        for e in events:
            if e["ph"] == "X" and e["pid"] == 1:
                assert rows[e["tid"]] == e["name"].split(".")[0]

    def test_first_thread_keeps_tid_1(self):
        tr = make_tracer()
        with tr.span("s"):
            pass
        span = tr.chrome_trace()["traceEvents"][-1]
        assert span["name"] == "s" and span["tid"] == 1


class TestChromeExport:
    def test_event_shape(self):
        tr = make_tracer()
        with tr.span("outer", pipeline="gpu"):
            pass
        doc = tr.chrome_trace()
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert meta[0]["args"]["name"] == "host"
        (span,) = spans
        assert span["name"] == "outer"
        assert span["pid"] == 1
        assert span["dur"] > 0
        assert span["args"]["pipeline"] == "gpu"

    def test_write_accepts_str_and_path(self, tmp_path):
        tr = make_tracer()
        with tr.span("s"):
            pass
        p1 = tr.write_chrome_trace(str(tmp_path / "a.json"))
        p2 = tr.write_chrome_trace(tmp_path / "b.json")
        assert json.loads(p1.read_text()) == json.loads(p2.read_text())

    def test_write_is_atomic(self, tmp_path):
        tr = make_tracer()
        tr.write_chrome_trace(tmp_path / "t.json")
        assert [p.name for p in tmp_path.iterdir()] == ["t.json"]


class TestMergeTimeline:
    def make_timeline(self):
        tl = Timeline()
        tl.record("write:src", "transfer", 1e-4, stage="data_init")
        tl.record("kernel:sobel", "kernel", 2e-4, stage="sobel")
        tl.record("clFinish", "sync", 1e-6, stage="sobel")
        return tl

    def test_merged_events_in_own_process(self):
        tr = make_tracer()
        with tr.span("host_work"):
            pass
        pid = tr.merge_timeline(self.make_timeline(), label="sim W8000")
        events = tr.chrome_trace()["traceEvents"]
        merged = [e for e in events
                  if e.get("pid") == pid and e["ph"] == "X"]
        assert {e["name"] for e in merged} == \
            {"write:src", "kernel:sobel", "clFinish"}
        # Simulated timestamps preserved (us).
        kernel = next(e for e in merged if e["name"] == "kernel:sobel")
        assert kernel["ts"] == pytest.approx(1e-4 * 1e6)
        assert kernel["dur"] == pytest.approx(2e-4 * 1e6)
        assert kernel["args"]["stage"] == "sobel"
        # Process metadata labels the merged row.
        names = [e for e in events if e["ph"] == "M"
                 and e.get("pid") == pid and e["name"] == "process_name"]
        assert names[0]["args"]["name"] == "sim W8000"

    def test_two_timelines_get_distinct_pids(self):
        tr = make_tracer()
        pid1 = tr.merge_timeline(self.make_timeline())
        pid2 = tr.merge_timeline(self.make_timeline())
        assert pid1 != pid2
        assert 1 not in (pid1, pid2)

    def test_host_pid_reserved(self):
        tr = make_tracer()
        with pytest.raises(ValidationError):
            tr.merge_timeline(self.make_timeline(), pid=1)

    @pytest.fixture(scope="class")
    def pipeline_merge(self):
        """A real pipeline timeline and its merged Chrome events."""
        timeline = GPUPipeline(OPTIMIZED).run(
            Image.from_array(images.natural_like(64, 64, seed=2))).timeline
        tr = make_tracer()
        pid = tr.merge_timeline(timeline)
        events = [e for e in tr.chrome_trace()["traceEvents"]
                  if e["pid"] == pid and e["ph"] == "X"]
        return timeline, events

    def test_event_fields(self, pipeline_merge):
        timeline, events = pipeline_merge
        assert len(events) == len(timeline.events)
        for e in events:
            assert e["dur"] >= 0
            assert e["cat"] in ("kernel", "transfer", "host", "sync")

    def test_kinds_map_to_rows(self, pipeline_merge):
        _, events = pipeline_merge
        rows = {(e["cat"], e["tid"]) for e in events}
        kinds = {kind for kind, _ in rows}
        assert len(kinds) > 1
        # One row per kind, and no two kinds share a row.
        assert len(rows) == len(kinds) == len({tid for _, tid in rows})

    def test_timestamps_microseconds(self, pipeline_merge):
        timeline, events = pipeline_merge
        assert events[-1]["ts"] + events[-1]["dur"] == \
            pytest.approx(timeline.total * 1e6)

    def test_json_roundtrip(self, pipeline_merge, tmp_path):
        timeline, _ = pipeline_merge
        tr = make_tracer()
        pid = tr.merge_timeline(timeline)
        path = tr.write_chrome_trace(tmp_path / "trace.json")
        data = json.loads(path.read_text())
        assert "traceEvents" in data
        merged = [e for e in data["traceEvents"]
                  if e["pid"] == pid and e["ph"] == "X"]
        assert len(merged) == len(timeline.events)

    def test_perfetto_loadable_json(self, tmp_path):
        tr = make_tracer()
        with tr.span("s"):
            pass
        tr.merge_timeline(self.make_timeline())
        path = tr.write_chrome_trace(tmp_path / "t.json")
        doc = json.loads(path.read_text())
        assert isinstance(doc["traceEvents"], list)
        for e in doc["traceEvents"]:
            assert "name" in e and "ph" in e and "pid" in e


class TestNullTracer:
    def test_records_nothing(self):
        tr = NullTracer()
        with tr.span("s", k=1) as h:
            h.set(x=2)
        assert tr.spans == []
        tr.add_span("s", 0.0, 1.0).set(x=2)
        assert tr.spans == []
        assert tr.merge_timeline(Timeline()) == 0
        assert tr.chrome_trace()["traceEvents"][0]["ph"] == "M"
