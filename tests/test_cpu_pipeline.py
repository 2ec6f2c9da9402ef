"""The CPU baseline pipeline and its cost model (Fig. 13a shapes)."""

import io

import numpy as np
import pytest

from repro.cpu import CPUPipeline
from repro.cpu.cost import (
    CPU_STAGE_ORDER,
    border_host_time,
    padding_host_time,
    reduction_host_time,
    stage_costs,
    stage_times,
    total_time,
)
from repro.cpu import naive
from repro.errors import ValidationError
from repro.obs import RunContext
from repro.types import FrameResult, Image, SharpnessParams

from .conftest import assert_allclose


class TestCPUPipeline:
    def test_matches_naive(self, small_planes, params):
        pipe = CPUPipeline(params)
        for name, plane in small_planes.items():
            res = pipe.run(Image.from_array(plane))
            ref = naive.sharpen(plane, params)
            assert_allclose(res.final, ref["final"], atol=1e-9,
                            context=f"cpu pipeline {name}")
            assert res.edge_mean == pytest.approx(ref["edge_mean"],
                                                  rel=1e-12)

    def test_accepts_raw_arrays(self, small_planes):
        res = CPUPipeline().run(small_planes["natural"])
        assert res.final.shape == (32, 32)

    def test_final_u8(self, small_planes):
        res = CPUPipeline().run(small_planes["natural"])
        u8 = res.final_u8()
        assert u8.dtype == np.uint8

    def test_times_attached(self, small_planes):
        res = CPUPipeline().run(small_planes["natural"])
        assert res.total_time == pytest.approx(total_time(32, 32))


class TestFrameResult:
    """A CPU frame is a ``FrameResult`` carrying the cost model's times
    and a host-only cost-model timeline."""

    def test_backend_and_gpu_only_defaults(self, small_planes):
        res = CPUPipeline().run(small_planes["natural"])
        assert isinstance(res, FrameResult)
        assert res.backend == "cpu"
        assert res.kernel_launches == 0
        assert res.flags is None
        assert not res.border_ran_on_gpu
        assert not res.reduction_stage2_on_gpu

    def test_times_are_the_cost_model_in_cpu_vocabulary(self, small_planes):
        res = CPUPipeline().run(small_planes["natural"])
        assert res.times.times == stage_times(32, 32).times
        assert tuple(res.times.times) == CPU_STAGE_ORDER
        # Bit for bit: the timeline chains the stages in the order
        # ``StageTimes.total`` sums them.
        assert res.total_time == stage_times(32, 32).total

    def test_timeline_is_one_host_event_per_stage(self, small_planes):
        res = CPUPipeline().run(small_planes["natural"])
        events = res.timeline.events
        assert [e.stage for e in events] == list(CPU_STAGE_ORDER)
        assert [e.kind for e in events] == ["host"] * len(CPU_STAGE_ORDER)

    def test_obs_records_the_frame(self, small_planes):
        stream = io.StringIO()
        obs = RunContext.create(log_level="info", log_stream=stream)
        pipe = CPUPipeline(obs=obs)
        pipe.run(small_planes["natural"])
        events = obs.trace.chrome_trace()["traceEvents"]
        rows = {e["pid"]: e["args"]["name"] for e in events
                if e["name"] == "process_name"}
        (pid,) = [p for p, name in rows.items()
                  if name == f"{pipe.cpu.name} [cpu]"]
        merged = [e["name"] for e in events
                  if e["pid"] == pid and e["ph"] == "X"]
        assert merged == list(CPU_STAGE_ORDER)
        assert "event=pipeline.complete" in stream.getvalue()
        text = obs.metrics.to_prometheus_text()
        assert 'repro_pipeline_runs_total{pipeline="cpu"} 1' in text
        assert "repro_cl_" not in text


class TestCostModel:
    def test_stage_set_matches_fig13a(self):
        assert set(stage_costs(256, 256)) == set(CPU_STAGE_ORDER)

    def test_strength_and_overshoot_dominate(self):
        """Fig. 13(a): the strength matrix and overshoot control are the
        CPU bottlenecks at every size."""
        for size in (256, 1024, 4096):
            fracs = stage_times(size, size).fractions()
            top2 = sorted(fracs, key=fracs.get, reverse=True)[:2]
            assert set(top2) == {"strength", "overshoot"}, size

    def test_fractions_stable_across_sizes(self):
        """All CPU stages are O(N^2) in the model (only the upscale border
        term is O(N)), so fractions are near-constant across sizes.  The
        paper's Fig. 13(a) additionally shows small stages *shrinking* with
        size — a cache effect the analytic model does not capture
        (recorded as a partial match in EXPERIMENTS.md)."""
        small = stage_times(256, 256).fractions()
        large = stage_times(4096, 4096).fractions()
        for stage in CPU_STAGE_ORDER:
            assert large[stage] == pytest.approx(small[stage], abs=0.02), \
                stage

    def test_total_scales_roughly_with_area(self):
        t1 = total_time(512, 512)
        t2 = total_time(1024, 1024)
        assert t2 == pytest.approx(4 * t1, rel=0.1)

    def test_invalid_size_rejected(self):
        with pytest.raises(ValidationError):
            stage_costs(100, 17)

    def test_helper_times_positive_and_scale(self):
        assert border_host_time(512, 512) > 0
        assert reduction_host_time(2048) == pytest.approx(
            2 * reduction_host_time(1024), rel=0.5)
        assert padding_host_time(1024, 1024) == pytest.approx(
            4 * padding_host_time(512, 512), rel=1e-9)

    def test_params_do_not_change_times(self, small_planes):
        """The model prices work, not parameter values."""
        a = CPUPipeline(SharpnessParams(gain=0.1)).run(
            small_planes["natural"])
        b = CPUPipeline(SharpnessParams(gain=3.0)).run(
            small_planes["natural"])
        assert a.total_time == b.total_time
