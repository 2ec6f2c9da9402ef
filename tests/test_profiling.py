"""Timeline semantics and the ASCII Gantt rendering."""

import pytest

from repro.core import OPTIMIZED, GPUPipeline
from repro.errors import ValidationError
from repro.simgpu.profiling import Event, Timeline
from repro.types import Image
from repro.util import images


class TestEvent:
    def test_duration(self):
        e = Event(name="k", kind="kernel", start=1.0, end=1.5)
        assert e.duration == 0.5

    def test_backwards_event_rejected(self):
        with pytest.raises(ValidationError):
            Event(name="k", kind="kernel", start=2.0, end=1.0)

    def test_stage_defaults_handled_by_timeline(self):
        tl = Timeline()
        e = tl.record("myname", "kernel", 1e-6)
        assert e.stage == "myname"


class TestTimeline:
    def test_clock_advances(self):
        tl = Timeline()
        tl.record("a", "kernel", 1e-3)
        tl.record("b", "transfer", 2e-3)
        assert tl.total == pytest.approx(3e-3)
        assert tl.events[1].start == pytest.approx(1e-3)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValidationError):
            Timeline().record("a", "kernel", -1.0)

    def test_by_stage_and_kind(self):
        tl = Timeline()
        tl.record("a", "kernel", 1e-3, stage="sobel")
        tl.record("b", "kernel", 2e-3, stage="sobel")
        tl.record("c", "transfer", 4e-3, stage="data_init")
        assert tl.by_stage() == pytest.approx(
            {"sobel": 3e-3, "data_init": 4e-3})
        assert tl.by_kind() == pytest.approx(
            {"kernel": 3e-3, "transfer": 4e-3})

    def test_of_kind(self):
        tl = Timeline()
        tl.record("a", "kernel", 1e-3)
        tl.record("b", "sync", 1e-6)
        assert [e.name for e in tl.of_kind("sync")] == ["b"]


@pytest.fixture(scope="module")
def pipeline_timeline():
    res = GPUPipeline(OPTIMIZED).run(
        Image.from_array(images.natural_like(64, 64, seed=2)))
    return res.timeline


class TestAsciiGantt:
    def test_renders_every_event(self, pipeline_timeline):
        chart = pipeline_timeline.ascii_gantt(40)
        # header + one row per event + total row
        assert len(chart.splitlines()) == len(pipeline_timeline.events) + 2
        assert "#" in chart

    def test_empty_timeline(self):
        assert "empty" in Timeline().ascii_gantt()

    def test_bars_fit_width(self, pipeline_timeline):
        width = 30
        for line in pipeline_timeline.ascii_gantt(width).splitlines()[1:]:
            bar = line.split("|")[1]
            assert len(bar) == width
