"""Metrics registry: counters/gauges/histograms, exporters."""

import json
import math

import pytest

from repro.errors import ValidationError
from repro.obs import MetricsRegistry
from repro.obs.metrics import Updates


class TestCounterGauge:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total")
        c.inc()
        c.inc(2.5)
        assert reg.counter("c_total")._default_child().value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValidationError):
            MetricsRegistry().counter("c_total").inc(-1)

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("g")
        g.set(10)
        g.dec(4)
        g.inc()
        assert g._default_child().value == 7

    def test_labelled_children_independent(self):
        reg = MetricsRegistry()
        fam = reg.counter("c_total", labelnames=("kind",))
        fam.labels(kind="a").inc(1)
        fam.labels(kind="b").inc(5)
        assert fam.labels(kind="a").value == 1
        assert fam.labels(kind="b").value == 5

    def test_registration_idempotent_but_typed(self):
        reg = MetricsRegistry()
        assert reg.counter("m") is reg.counter("m")
        with pytest.raises(ValidationError):
            reg.gauge("m")
        with pytest.raises(ValidationError):
            reg.counter("m", labelnames=("x",))

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValidationError):
            reg.counter("bad-name")
        with pytest.raises(ValidationError):
            reg.counter("ok", labelnames=("bad-label",))

    def test_label_mismatch_rejected(self):
        fam = MetricsRegistry().counter("c", labelnames=("kind",))
        with pytest.raises(ValidationError):
            fam.labels(other="x")
        with pytest.raises(ValidationError):
            fam.inc()  # unlabelled use of a labelled family


class TestHistogramMath:
    def test_sum_count_mean(self):
        h = MetricsRegistry().histogram("h").labels()
        for v in (0.25, 0.75):
            h.observe(v)
        assert h.sum == 1.0
        assert h.count == 2

    def test_cumulative_buckets_monotone_and_end_with_inf(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 4.0)) \
                             .labels()
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        pairs = h.cumulative_buckets()
        assert pairs[-1] == (math.inf, 4)
        counts = [c for _, c in pairs]
        assert counts == sorted(counts)
        assert counts == [1, 2, 3, 4]

    def test_boundary_lands_in_le_bucket(self):
        # Prometheus buckets are le (inclusive upper bounds).
        h = MetricsRegistry().histogram("h", buckets=(1.0, 2.0)).labels()
        h.observe(1.0)
        assert h.cumulative_buckets()[0] == (1.0, 1)


class TestUpdates:
    def test_apply_matches_direct_calls(self):
        direct, batched = MetricsRegistry(), MetricsRegistry()
        values = (0.1, 0.2, 3.0, 0.7, 1e-7, 100.0)
        for reg in (direct, batched):
            reg.counter("c", labelnames=("k",))
            reg.histogram("h", buckets=(0.5, 1.0, 5.0))
        updates = Updates()
        for v in values:
            updates.observe(batched.get("h").labels(), v)
            updates.inc(batched.get("c").labels(k="a"), 3)
        for _ in range(2):
            updates.apply()
            for v in values:
                direct.get("h").labels().observe(v)
                direct.get("c").labels(k="a").inc(3)
        assert batched.to_prometheus_text() == direct.to_prometheus_text()

    def test_negative_increment_rejected_when_added(self):
        child = MetricsRegistry().counter("c").labels()
        with pytest.raises(ValidationError):
            Updates().inc(child, -1)


class TestPrometheusText:
    def test_full_exposition_shape(self):
        reg = MetricsRegistry()
        reg.counter("runs_total", "Total runs", ("pipeline",)) \
           .labels(pipeline="gpu").inc(2)
        text = reg.to_prometheus_text()
        assert "# HELP runs_total Total runs" in text
        assert "# TYPE runs_total counter" in text
        assert 'runs_total{pipeline="gpu"} 2' in text
        assert text.endswith("\n")

    def test_histogram_series(self):
        reg = MetricsRegistry()
        reg.histogram("h_seconds", "x", buckets=(0.1, 1.0)).observe(0.05)
        text = reg.to_prometheus_text()
        assert 'h_seconds_bucket{le="0.1"} 1' in text
        assert 'h_seconds_bucket{le="1"} 1' in text
        assert 'h_seconds_bucket{le="+Inf"} 1' in text
        assert "h_seconds_sum 0.05" in text
        assert "h_seconds_count 1" in text

    def test_label_value_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c", "help", ("path",)) \
           .labels(path='a\\b"c\nd').inc()
        text = reg.to_prometheus_text()
        assert r'path="a\\b\"c\nd"' in text
        # Exactly one physical line for the sample.
        sample_lines = [ln for ln in text.splitlines()
                        if ln.startswith("c{")]
        assert len(sample_lines) == 1

    def test_help_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c", "line1\nline2 \\ backslash")
        text = reg.to_prometheus_text()
        assert "# HELP c line1\\nline2 \\\\ backslash" in text


class TestExportFiles:
    def test_write_prometheus_accepts_str_and_path(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        p1 = reg.write_prometheus(str(tmp_path / "a.prom"))
        p2 = reg.write_prometheus(tmp_path / "b.prom")
        assert p1.read_text() == p2.read_text()

    def test_write_json_parses(self, tmp_path):
        reg = MetricsRegistry()
        reg.histogram("h", "x", ("stage",), buckets=(1.0,)) \
           .labels(stage="sobel").observe(0.5)
        path = reg.write_json(tmp_path / "m.json")
        doc = json.loads(path.read_text())
        series = doc["h"]["series"][0]
        assert series["labels"] == {"stage": "sobel"}
        assert series["count"] == 1
        assert series["buckets"][-1]["le"] == "+Inf"

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.write_prometheus(tmp_path / "m.prom")
        leftovers = [p for p in tmp_path.iterdir() if p.name != "m.prom"]
        assert leftovers == []

    def test_atomic_write_failure_keeps_old_content(self, tmp_path,
                                                    monkeypatch):
        from repro.util import io as uio
        target = tmp_path / "m.prom"
        target.write_text("old")

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(uio.os, "replace", boom)
        with pytest.raises(OSError):
            uio.atomic_write_text(target, "new")
        assert target.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["m.prom"]
