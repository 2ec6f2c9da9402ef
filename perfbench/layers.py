"""Per-layer metrics of the traced run, timed from outside the program.

Every number here comes from a span the benchmark opens around a call into
a module's public functions, at the workload's own frame size, or from a
count the program already exposes (plan-cache and buffer-pool stats, frame
backends and attempts).  :data:`MOVES` records, for each per-layer metric,
the end-to-end metric it should move and on which workload.
"""

from __future__ import annotations

import dataclasses
import io
import pathlib
import shutil
import statistics
import time

import numpy as np

from repro import (
    BatchEngine,
    BatchJob,
    BufferPool,
    CPUPipeline,
    FallbackPipeline,
    FaultPlan,
    GPUPipeline,
    I5_3470,
    JobJournal,
    KernelLaunchFault,
    OPTIMIZED,
    PlanCache,
    ResilienceConfig,
    RunContext,
    SharpnessParams,
    W8000,
)
from repro.algo import stages as algo
from repro.core.metrics import GPU_STAGE_ORDER
from repro.core.plan import PlanKey
from repro.types import Image
from repro.util.io import read_pgm, write_pgm

from spans import SpanHooks, Spans
from workloads import DEGRADED_FAULTS, NPROC, closed_loop

#: Per-layer metric -> (unit, what it should move).
MOVES: dict[str, tuple[str, str]] = {
    "plan.execute_ms": ("ms", "fps on stream512, frame_ms_p50 on large2048"),
    "plan.cache_misses_per_key": (
        "count", "fps on mixed_job, setup_s on stream512"),
    "plan.hit_ratio": ("frac", "fps on mixed_job, setup_s on stream512"),
    "pipeline.generic_ms": (
        "ms", "setup_s on every workload, fps on mixed_job"),
    "pipeline.replay_ms": ("ms", "fps on stream512"),
    "pipeline.replay_overhead_ms": ("ms", "fps on stream512"),
    "bufferpool.checkout_cold_ms": (
        "ms", "setup_s and peak_rss_mb on large2048"),
    "bufferpool.checkout_warm_ms": (
        "ms", "setup_s and peak_rss_mb on large2048"),
    "bufferpool.created": ("count", "setup_s and peak_rss_mb on large2048"),
    "bufferpool.ws_mb": ("MiB", "setup_s and peak_rss_mb on large2048"),
    "batch.frame_ms_p50": ("ms", "fps on stream512 and degraded"),
    "batch.frame_ms_p90": ("ms", "fps on stream512 and degraded"),
    "batch.idle_frac": ("frac", "fps on stream512 and degraded"),
    "batch.parallel_eff": ("frac", "fps on stream512 and degraded"),
    "algo.downscale_ms": ("ms", "fps on degraded and mixed_job"),
    "algo.upscale_ms": ("ms", "fps on degraded and mixed_job"),
    "algo.sobel_ms": ("ms", "fps on degraded and mixed_job"),
    "algo.reduce_ms": ("ms", "fps on degraded and mixed_job"),
    "algo.sharpen_tail_ms": ("ms", "fps on degraded and mixed_job"),
    "algo.overshoot_ms": ("ms", "fps on degraded and mixed_job"),
    "cpu.run_ms": ("ms", "fps on degraded"),
    "resilience.fallback_frames": ("count", "fps on degraded"),
    "resilience.retries": ("count", "fps on degraded"),
    "resilience.probe_ms": ("ms", "fps on degraded"),
    "resilience.wrapper_overhead_ms": (
        "ms", "fps on degraded and mixed_job"),
    "lifecycle.journal_append_ms": ("ms", "fps on mixed_job"),
    "io.read_pgm_ms": ("ms", "fps on mixed_job"),
    "io.write_pgm_ms": ("ms", "fps on mixed_job"),
    "lifecycle.job_overhead_frac": ("frac", "fps on mixed_job"),
    "simgpu.kernel_launches": ("count", "sim_frame_ms on every workload"),
    "simgpu.transfer_bytes": ("bytes", "sim_frame_ms on every workload"),
    **{f"simgpu.{stage}_ms": ("sim_ms", "sim_frame_ms on every workload")
       for stage in GPU_STAGE_ORDER},
    "obs.overhead_frac": ("frac", "fps on stream512"),
    "trace.overhead_frac": ("frac", "none: cost of this benchmark's spans"),
    "host.copy_gbs": ("GB/s", "none: host memory bandwidth, for context"),
}


@dataclasses.dataclass(frozen=True)
class Budget:
    """How long each kind of probe runs (seconds) and its fewest reps."""

    probe_s: float = 0.3
    compare_s: float = 1.5
    min_reps: int = 3


def repeat(fn, budget_s: float, min_reps: int) -> None:
    """Call ``fn`` at least ``min_reps`` times and for ``budget_s``."""
    deadline = time.perf_counter() + budget_s
    done = 0
    while done < min_reps or time.perf_counter() < deadline:
        fn()
        done += 1


def cpu_caches() -> dict[str, int]:
    """Cache bytes of CPU 0 by level (``l1``, ``l2``, ...), from sysfs;
    empty where the kernel does not expose them."""
    caches = {}
    for entry in pathlib.Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*"):
        try:
            level = (entry / "level").read_text().strip()
            text = (entry / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20}.get(text[-1:], 1)
        caches[f"l{level}"] = int(text.rstrip("KM")) * scale
    return caches


def copy_gbs(nbytes: int) -> float:
    """Median STREAM-style copy bandwidth (read + write bytes per second)
    between two float64 arrays of ``nbytes`` each."""
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    rates = []
    for _ in range(4):
        start = time.perf_counter()
        np.copyto(dst, src)
        rates.append(2 * src.nbytes / (time.perf_counter() - start) / 1e9)
    return statistics.median(rates[1:])


def loop_metrics(spans: Spans, plain, traced, counts) -> dict:
    """Metrics of the traced loop (``traced``) against the untraced one."""
    frames = traced.frames
    out = {
        "trace.overhead_frac": traced.s_per_frame / plain.s_per_frame - 1,
        "plan.cache_misses_per_key": counts["misses"] / counts["keys"],
        "plan.hit_ratio": counts["hits"] / max(
            counts["hits"] + counts["misses"], 1),
        "bufferpool.created": counts["created"],
        "resilience.fallback_frames": sum(
            f.backend == "cpu-fallback" for f in frames),
        "resilience.retries": sum(f.attempts - 1 for f in frames),
    }
    service = spans.durations("batch.frame")
    if service:
        out.update(batch_metrics(service, traced.wall, NPROC))
    return out


def batch_metrics(service: list[float], wall: float, workers: int) -> dict:
    """Worker service-time percentiles and idle share of the pool."""
    return {
        "batch.frame_ms_p50": float(np.percentile(service, 50)) * 1e3,
        "batch.frame_ms_p90": float(np.percentile(service, 90)) * 1e3,
        "batch.idle_frac": 1 - sum(service) / (wall * workers),
    }


def batch_probe(wl, spans: Spans, budget: Budget) -> dict:
    """``BatchEngine`` at 1 and ``NPROC`` workers over the workload's
    frames, warm, one after the other (two large-frame pools at once
    would not fit in memory)."""
    frames = [wl.probe_frames[i % len(wl.probe_frames)]
              for i in range(max(len(wl.probe_frames), 2 * NPROC))]
    resilience = getattr(wl, "resilience", None)
    spf, service, wall = {}, [], 0.0
    for workers in (1, NPROC):
        name = f"batch.probe_frame.w{workers}"
        engine = BatchEngine(OPTIMIZED, workers=workers, obs=wl.context(),
                             resilience=resilience,
                             hooks=SpanHooks(spans, name))
        engine.run(frames[:1])  # one plan capture
        engine.run(frames)      # every worker's workspace
        before = len(spans.durations(name))
        runs = []

        def timed_run():
            start = time.perf_counter()
            engine.run(frames)
            runs.append(time.perf_counter() - start)

        repeat(timed_run, budget.compare_s, 2)
        spf[workers] = sum(runs) / (len(runs) * len(frames))
        service = spans.durations(name)[before:]
        wall = sum(runs)
        del engine
    out = {"batch.parallel_eff": spf[1] / (NPROC * spf[NPROC])}
    if not spans.durations("batch.frame"):
        out.update(batch_metrics(service, wall, NPROC))
    return out


def pipeline_probes(plane: np.ndarray, spans: Spans, budget: Budget) -> dict:
    """``core.pipeline``, ``core.plan``, ``core.bufferpool``, ``simgpu``
    and the resilience wrapper at one frame size."""
    h, w = plane.shape
    image = Image.from_array(plane)
    params = SharpnessParams()
    reps = dict(budget_s=budget.probe_s, min_reps=budget.min_reps)

    generic = GPUPipeline(OPTIMIZED, caching=False)

    def run_generic():
        with spans.span("pipeline.generic"):
            generic.run(image)

    repeat(run_generic, **reps)

    cache, pool = PlanCache(), BufferPool(max_entries=1)
    pipe = GPUPipeline(OPTIMIZED, plan_cache=cache, buffer_pool=pool)
    captured = pipe.run(image)
    plan = cache.get(PlanKey(height=h, width=w, flags=OPTIMIZED,
                             device=W8000, cpu=I5_3470, mode="functional"))

    def execute():
        with spans.span("bufferpool.checkout_warm"):
            ws = pool.checkout(h, w)
        try:
            with spans.span("plan.execute"):
                plan.execute(image.plane, params, ws)
        finally:
            pool.checkin(ws)

    repeat(execute, **reps)
    with pool.lease(h, w) as ws:
        ws_mib = ws.nbytes / (1 << 20)

    def checkout_cold():
        fresh = BufferPool(max_entries=1)
        with spans.span("bufferpool.checkout_cold"):
            ws = fresh.checkout(h, w)
        fresh.checkin(ws)

    repeat(checkout_cold, **reps)

    wrapped = FallbackPipeline(pipe)

    def replay_pair():
        with spans.span("pipeline.replay"):
            pipe.run(image)
        with spans.span("resilience.wrapped_replay"):
            wrapped.run(image)

    repeat(replay_pair, **reps)

    failing = GPUPipeline(OPTIMIZED, obs=dataclasses.replace(
        RunContext.disabled(), faults=FaultPlan.parse(DEGRADED_FAULTS)))

    def failing_attempt():
        with spans.span("resilience.gpu_attempt"):
            try:
                failing.run(image)
            except KernelLaunchFault:
                return
        raise RuntimeError("the kernel fault plan did not fire")

    repeat(failing_attempt, **reps)

    replay_ms = spans.median_ms("pipeline.replay")
    out = {
        "plan.execute_ms": spans.median_ms("plan.execute"),
        "pipeline.generic_ms": spans.median_ms("pipeline.generic"),
        "pipeline.replay_ms": replay_ms,
        "pipeline.replay_overhead_ms":
            replay_ms - spans.median_ms("plan.execute"),
        "bufferpool.checkout_cold_ms":
            spans.median_ms("bufferpool.checkout_cold"),
        "bufferpool.checkout_warm_ms":
            spans.median_ms("bufferpool.checkout_warm"),
        "bufferpool.ws_mb": ws_mib,
        "resilience.probe_ms": spans.median_ms("resilience.gpu_attempt"),
        "resilience.wrapper_overhead_ms":
            spans.median_ms("resilience.wrapped_replay") - replay_ms,
        "simgpu.kernel_launches": captured.kernel_launches,
        "simgpu.transfer_bytes": sum(plan.transfer_bytes.values()),
    }
    for stage in GPU_STAGE_ORDER:
        out[f"simgpu.{stage}_ms"] = captured.times.times.get(stage, 0.0) * 1e3
    return out


def algo_probes(plane: np.ndarray, spans: Spans, budget: Budget) -> dict:
    """``algo`` stages one by one, and ``cpu.CPUPipeline`` which chains
    them, at one frame size."""
    src = Image.from_array(plane).plane
    params = SharpnessParams()
    down = algo.downscale(src)
    up = algo.upscale(down)
    edge = algo.sobel(src)
    mean = algo.reduce_mean(edge)

    def tail():
        err = algo.perror(src, up)
        strength = algo.strength_map(edge, mean, params)
        return algo.preliminary_sharpen(up, err, strength)

    prelim = tail()
    cpu = CPUPipeline()
    stages = {
        "algo.downscale": lambda: algo.downscale(src),
        "algo.upscale": lambda: algo.upscale(down),
        "algo.sobel": lambda: algo.sobel(src),
        "algo.reduce": lambda: algo.reduce_mean(edge),
        "algo.sharpen_tail": tail,
        "algo.overshoot": lambda: algo.overshoot_control(prelim, src,
                                                         params),
        "cpu.run": lambda: cpu.run(plane),
    }
    out = {}
    for name, fn in stages.items():
        def timed(name=name, fn=fn):
            with spans.span(name):
                fn()

        repeat(timed, budget.probe_s, budget.min_reps)
        out[f"{name}_ms"] = spans.median_ms(name)
    return out


def lifecycle_probes(wl, spans: Spans, workdir: pathlib.Path,
                     budget: Budget) -> dict:
    """``lifecycle`` and ``util.io``: journal appends, PGM I/O, and a
    ``BatchJob`` against a bare ``BatchEngine`` doing the same reads,
    frames and writes."""
    journal_dir = workdir / "journal-probe"
    with JobJournal(journal_dir, fsync=True) as journal:
        def append():
            with spans.span("lifecycle.journal_append"):
                journal.append({"kind": "frame", "frame_id": "probe.pgm",
                                "index": 0, "status": "completed", "run": 1,
                                "attempts": 1, "t": time.time(),
                                "backend": "gpu", "edge_mean": 1.5,
                                "output": "probe.pgm"})

        repeat(append, budget.probe_s, budget.min_reps)
    shutil.rmtree(journal_dir)

    inputs = getattr(wl, "inputs", None)
    if inputs is None:
        in_dir = workdir / "probe-inputs"
        in_dir.mkdir()
        inputs = []
        for i, plane in enumerate(wl.probe_frames):
            inputs.append(in_dir / f"p{i:03d}.pgm")
            write_pgm(inputs[-1], plane)
    if not spans.durations("io.read_pgm"):
        probe = workdir / "probe.pgm"

        def pgm_io():
            with spans.span("io.write_pgm"):
                write_pgm(probe, wl.probe_frames[0])
            with spans.span("io.read_pgm"):
                read_pgm(probe)

        repeat(pgm_io, budget.probe_s, budget.min_reps)

    runs = {"job": [], "bare": []}

    def job_vs_bare():
        for kind in ("job", "bare"):
            job_dir = workdir / f"overhead-{kind}"
            start = time.perf_counter()
            if kind == "job":
                BatchJob(inputs=inputs, output_dir=job_dir / "out",
                         job_dir=job_dir, workers=NPROC).run()
            else:
                result = BatchEngine(
                    OPTIMIZED, workers=NPROC, keep_outputs=True,
                    resilience=ResilienceConfig(),
                ).run(source=lambda: (read_pgm(p) for p in inputs))
                (job_dir / "out").mkdir(parents=True)
                for path, plane in zip(inputs, result.outputs):
                    write_pgm(job_dir / "out" / path.name, plane)
            runs[kind].append(time.perf_counter() - start)
            shutil.rmtree(job_dir)

    repeat(job_vs_bare, budget.compare_s, 2)
    return {
        "lifecycle.journal_append_ms":
            spans.median_ms("lifecycle.journal_append"),
        "io.read_pgm_ms": spans.median_ms("io.read_pgm"),
        "io.write_pgm_ms": spans.median_ms("io.write_pgm"),
        "lifecycle.job_overhead_frac":
            statistics.median(runs["job"]) / statistics.median(runs["bare"])
            - 1,
    }


def obs_overhead(wl, budget: Budget) -> float:
    """The workload's own entry point with an enabled ``RunContext``
    against a disabled one, steps alternating."""
    sink = io.StringIO()
    disabled = wl.setup()
    enabled = wl.setup(obs=wl.context(enabled=True, log_stream=sink))
    off, on = closed_loop(wl, [(disabled, None), (enabled, None)],
                          budget.compare_s, min_units=2)
    return on.s_per_frame / off.s_per_frame - 1


def probe_all(wl, spans: Spans, workdir: pathlib.Path,
              budget: Budget) -> dict:
    """Every per-layer metric that is not a property of the timed loop."""
    plane = wl.probe_frames[0]
    out = {}
    out.update(pipeline_probes(plane, spans, budget))
    out.update(algo_probes(plane, spans, budget))
    out.update(lifecycle_probes(wl, spans, workdir, budget))
    out.update(batch_probe(wl, spans, budget))
    out["obs.overhead_frac"] = obs_overhead(wl, budget)
    return out
