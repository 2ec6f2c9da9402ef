"""RunContext + pipeline integration: stage metrics, fractions, traces."""

import io

import pytest

from repro import BASE, CPUPipeline, GPUPipeline, OPTIMIZED, RunContext
from repro.core.metrics import GPU_STAGE_ORDER
from repro.cpu.cost import CPU_STAGE_ORDER
from repro.experiments import fig13_fractions
from repro.obs import NULL_CONTEXT, STAGE_SECONDS
from repro.util import images


def make_obs(**kw):
    kw.setdefault("log_level", "warning")
    kw.setdefault("log_stream", io.StringIO())
    return RunContext.create(**kw)


class TestRunContext:
    def test_create_generates_run_id_and_binds_it(self):
        stream = io.StringIO()
        obs = RunContext.create(log_level="info", log_stream=stream)
        obs.log.info("ev")
        assert f"run={obs.run_id}" in stream.getvalue()

    def test_observe_stages_and_fractions(self):
        obs = make_obs()
        obs.observe_stages("gpu", {"sobel": 0.003, "reduction": 0.001})
        fracs = obs.stage_fractions("gpu")
        assert fracs == {"sobel": pytest.approx(0.75),
                         "reduction": pytest.approx(0.25)}

    def test_declare_creates_empty_series_not_observations(self):
        obs = make_obs()
        obs.observe_stages("gpu", {"sobel": 1.0}, declare=("padding",))
        fam = obs.metrics.get(STAGE_SECONDS)
        padding = fam.labels(pipeline="gpu", stage="padding")
        assert padding.count == 0
        # Declared-but-empty stages exist in the export yet do not skew
        # fractions.
        assert "padding" not in obs.stage_fractions("gpu")
        assert 'stage="padding"' in obs.metrics.to_prometheus_text()

    def test_fractions_of_unknown_pipeline_empty(self):
        assert make_obs().stage_fractions("nope") == {}

    def test_disabled_context_is_inert(self):
        NULL_CONTEXT.observe_stages("gpu", {"sobel": 1.0})
        NULL_CONTEXT.record_run("gpu", 1.0)
        with NULL_CONTEXT.span("s"):
            pass
        assert NULL_CONTEXT.metrics.to_prometheus_text() == ""
        assert NULL_CONTEXT.trace.spans == []


class TestGPUPipelineIntegration:
    def test_all_eight_stages_exported(self):
        obs = make_obs()
        GPUPipeline(OPTIMIZED, obs=obs).run(
            images.natural_like(64, 64, seed=0))
        text = obs.metrics.to_prometheus_text()
        for stage in GPU_STAGE_ORDER:
            assert f'stage="{stage}"' in text

    def test_fractions_match_result_times(self):
        obs = make_obs()
        res = GPUPipeline(BASE, obs=obs, label="base").run(
            images.natural_like(64, 64, seed=0))
        assert obs.stage_fractions("base") == pytest.approx(
            res.times.fractions())

    def test_trace_has_host_spans_and_device_events(self):
        obs = make_obs()
        GPUPipeline(OPTIMIZED, obs=obs).run(
            images.natural_like(64, 64, seed=0))
        events = obs.trace.chrome_trace()["traceEvents"]
        host = [e for e in events if e.get("pid") == 1 and e["ph"] == "X"]
        device = [e for e in events
                  if e.get("pid", 1) != 1 and e["ph"] == "X"]
        assert any(e["name"] == "gpu.run" for e in host)
        assert any(e["name"].startswith("kernel:") for e in device)
        assert any(e["cat"] == "transfer" for e in device)

    def test_transfer_and_command_counters(self):
        obs = make_obs()
        GPUPipeline(OPTIMIZED, obs=obs).run(
            images.natural_like(64, 64, seed=0))
        text = obs.metrics.to_prometheus_text()
        assert "repro_cl_transfer_bytes_total" in text
        assert 'repro_cl_commands_total{kind="kernel"}' in text
        assert "repro_cl_kernel_seconds" in text

    def test_debug_log_has_per_command_records(self):
        stream = io.StringIO()
        obs = RunContext.create(log_level="debug", log_stream=stream)
        GPUPipeline(OPTIMIZED, obs=obs).run(
            images.natural_like(64, 64, seed=0))
        out = stream.getvalue()
        assert "event=cl.cmd" in out
        assert "event=pipeline.complete" in out

    def test_emulate_mode_counts_work_items(self):
        obs = make_obs()
        GPUPipeline(OPTIMIZED, obs=obs, mode="emulate").run(
            images.natural_like(32, 32, seed=0))
        text = obs.metrics.to_prometheus_text()
        assert "repro_emulator_launches_total" in text
        assert "repro_emulator_work_items_total" in text

    def test_two_runs_accumulate(self):
        obs = make_obs()
        pipe = GPUPipeline(OPTIMIZED, obs=obs)
        img = images.natural_like(64, 64, seed=0)
        pipe.run(img)
        pipe.run(img)
        fam = obs.metrics.get("repro_pipeline_runs_total")
        assert fam.labels(pipeline="gpu").value == 2
        hist = obs.stage_histogram().labels(pipeline="gpu", stage="sobel")
        assert hist.count == 2
        # The second run replays the plan through the strip executor.
        replay = [s for s in obs.trace.spans if s.name == "gpu.run"][1]
        assert [s.name for s in obs.trace.spans if s.parent is replay] == [
            "strips.pass1", "strips.reduce", "strips.pass2"]


class TestCPUPipelineIntegration:
    def test_stage_metrics_and_spans(self):
        obs = make_obs()
        res = CPUPipeline(obs=obs).run(images.natural_like(64, 64, seed=0))
        fracs = obs.stage_fractions("cpu")
        assert set(fracs) == set(CPU_STAGE_ORDER)
        assert fracs == pytest.approx(res.times.fractions())
        names = [s.name for s in obs.trace.spans]
        assert names[0] == "cpu.run"
        (run,) = [s for s in obs.trace.spans if s.name == "cpu.run"]
        phases = [s.name for s in obs.trace.spans if s.parent is run]
        assert phases == ["strips.pass1", "strips.reduce",
                          "strips.pass2"]

    def test_obs_does_not_change_pixels(self):
        img = images.natural_like(64, 64, seed=0)
        plain = CPUPipeline().run(img).final
        observed = CPUPipeline(obs=make_obs()).run(img).final
        assert (plain == observed).all()


class TestOneRecordPerFrame:
    def test_every_backend_records_each_frame_once(self, monkeypatch):
        from repro import FallbackPipeline, FaultPlan

        labels = []
        real = RunContext.record_frame

        def counting(self, pipeline, *args, **kwargs):
            labels.append(pipeline)
            return real(self, pipeline, *args, **kwargs)

        monkeypatch.setattr(RunContext, "record_frame", counting)
        img = images.natural_like(64, 64, seed=0)
        obs = make_obs()
        gpu = GPUPipeline(OPTIMIZED, obs=obs)
        gpu.run(img)  # generic run, captures the plan
        gpu.run(img)  # replay
        CPUPipeline(obs=obs).run(img)
        failing = make_obs(faults=FaultPlan.parse(
            "kernel:rate=1.0,kind=permanent"))
        FallbackPipeline(GPUPipeline(OPTIMIZED, obs=failing)).run(img)
        assert labels == ["gpu", "gpu", "cpu", "cpu-fallback"]


class TestPlanTelemetry:
    def test_replayed_frames_record_as_generic_ones(self):
        # A caching pipeline resolves its plan's metric updates once; its
        # registry must read exactly as an uncached pipeline's, whose
        # every frame builds them afresh.
        img = images.natural_like(64, 64, seed=0)
        texts = []
        for caching in (True, False):
            obs = make_obs()
            pipe = GPUPipeline(OPTIMIZED, obs=obs, caching=caching)
            for _ in range(3):
                pipe.run(img)
            texts.append(obs.metrics.to_prometheus_text())
        cached, generic = texts
        drop = ("repro_plan_cache", "repro_bufferpool")
        keep = [ln for ln in cached.splitlines()
                if not any(d in ln for d in drop)]
        assert keep == generic.splitlines()

    def test_memo_is_per_key_and_dropped_with_it(self):
        obs = make_obs()

        class Key:
            pass

        key, built = Key(), []
        for _ in range(2):
            assert obs.memoize(key, "x", lambda: built.append(1) or
                               len(built)) == 1
        assert obs.memoize(Key(), "x", lambda: "other") == "other"
        del key
        assert len(obs._memo) == 0


class TestFig13FromRegistry:
    def test_fractions_sum_to_one(self):
        for version in fig13_fractions.VERSIONS:
            fracs = fig13_fractions.run(version, (64,))["64x64"]
            assert sum(fracs.values()) == pytest.approx(1.0)

    def test_gpu_fractions_match_direct_run(self):
        obs = make_obs()
        res = GPUPipeline(OPTIMIZED, obs=obs, label="optimized").run(
            images.natural_like(256, 256, seed=0))
        via_registry = fig13_fractions.run("optimized", (256,))["256x256"]
        assert via_registry == pytest.approx(res.times.fractions())
