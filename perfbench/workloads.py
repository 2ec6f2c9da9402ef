"""The benchmark's four workloads.

Each workload builds its inputs from the seed, warms the program up
(:meth:`setup`, timed as ``setup_s``), runs one closed-loop step through a
public entry point (:meth:`unit`) and turns the step's outputs into checked
:class:`Frame` records (:meth:`collect`, outside the timed window).  Every
output is compared with :func:`repro.algo.stages.sharpen` on the same input.

Frames are 8-bit, as TV and camera frames are.  On 8-bit input every Sobel
sum is an integer, so the edge mean does not depend on the reduction's
summation order and the planned, generic and fallback paths must all match
the reference bit for bit.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import pathlib
import shutil
import sys
import time
import traceback

import numpy as np

from repro import (
    BatchEngine,
    BatchJob,
    FaultPlan,
    GPUPipeline,
    OPTIMIZED,
    ResilienceConfig,
    RunContext,
)
from repro.algo.stages import sharpen
from repro.lifecycle import JobJournal
from repro.util.images import video_sequence
from repro.util.io import read_pgm, write_pgm

from spans import SpanHooks, Spans

#: Worker threads of the batch workloads: one per core.
NPROC = os.cpu_count() or 1

#: Fault plan of ``degraded``: every GPU kernel launch fails for good.
DEGRADED_FAULTS = "kernel:rate=1.0,kind=permanent"


@dataclasses.dataclass
class Frame:
    """One finished frame, reduced to what the metrics need."""

    ok: bool
    #: Simulated time of the frame (W8000 model, or CPU cost model when
    #: the fallback served it).
    sim_s: float
    backend: str = "gpu"
    attempts: int = 1


@dataclasses.dataclass
class Reference:
    final: np.ndarray
    edge_mean: float


def frames_u8(h: int, w: int, n: int, seed: int) -> list[np.ndarray]:
    """``n`` near-duplicate 8-bit frames of a panned natural-like scene."""
    return [np.rint(f).astype(np.uint8)
            for f in video_sequence(h, w, n, seed=seed)]


def reference(plane: np.ndarray) -> Reference:
    out = sharpen(plane)
    return Reference(out["final"], out["edge_mean"])


def matches(output, edge_mean: float, ref: Reference) -> bool:
    return (output is not None and edge_mean == ref.edge_mean
            and np.array_equal(output, ref.final))


class Workload:
    """What every workload shares: the run context and the plan-cache and
    buffer-pool counts of a runner (a ``BatchEngine`` or ``GPUPipeline``).

    A workload also defines ``entry`` (the span name of one step),
    ``setup(spans=, obs=)``, ``unit(runner)``, ``collect(raw)``,
    ``unit_frames``, ``setup_reps`` and ``probe_frames`` (frames of one
    shape that the per-layer probes time).
    """

    faults: str | None = None
    seed = 0
    keys = 1

    def context(self, enabled: bool = False, **create) -> RunContext:
        """Disabled observability (or an enabled context built with
        ``create``), carrying the workload's fault plan if it has one."""
        plan = (FaultPlan.parse(f"{self.faults};seed={self.seed}")
                if self.faults else None)
        if enabled:
            return RunContext.create(faults=plan, **create)
        return dataclasses.replace(RunContext.disabled(), faults=plan)

    def plan_counts(self, runner) -> dict[str, float]:
        stats = runner.plan_cache.stats()
        return {"hits": stats["hits"], "misses": stats["misses"],
                "keys": self.keys,
                "created": runner.buffer_pool.stats()["created"]}


class BatchWorkload(Workload):
    """``stream512`` and ``degraded``: in-memory frames through
    ``BatchEngine.run``, one closed-loop step per pass over the frames."""

    entry = "batch.run"

    def __init__(self, name: str, *, size: int, n_frames: int, seed: int,
                 faults: str | None, setup_reps: int) -> None:
        self.name = name
        self.setup_reps = setup_reps
        self.frames = frames_u8(size, size, n_frames, seed)
        self.refs = [reference(f) for f in self.frames]
        self.probe_frames = self.frames
        self.unit_frames = len(self.frames)
        self.seed = seed
        self.faults = faults
        self.resilience = ResilienceConfig() if faults else None

    def setup(self, *, spans: Spans | None = None,
              obs: RunContext | None = None):
        engine = BatchEngine(
            OPTIMIZED, workers=NPROC, keep_outputs=True,
            obs=obs or self.context(), resilience=self.resilience,
            hooks=SpanHooks(spans) if spans is not None else None,
        )
        # A full queue at once: every worker meets the cold plan key (the
        # duplicate captures of a stampede count here) and takes its own
        # pooled workspace.
        engine.run(self.frames[:engine.queue_depth])
        return engine

    def unit(self, engine):
        return engine.run(self.frames)

    def collect(self, result) -> list[Frame]:
        return [
            Frame(matches(out, em, ref), st.serial_time, st.backend,
                  st.attempts)
            for out, em, st, ref in zip(result.outputs, result.edge_means,
                                        result.frames, self.refs)
        ]


class LargeWorkload(Workload):
    """``large2048``: one frame in flight through ``GPUPipeline.run``."""

    entry = "gpu.run"

    def __init__(self, *, size: int, n_frames: int, seed: int,
                 setup_reps: int) -> None:
        self.name = "large2048"
        self.setup_reps = setup_reps
        self.frames = frames_u8(size, size, n_frames, seed)
        self.refs = [reference(f) for f in self.frames]
        self.probe_frames = self.frames
        self.unit_frames = 1
        self._next = 0

    def setup(self, *, spans: Spans | None = None,
              obs: RunContext | None = None):
        pipe = GPUPipeline(OPTIMIZED, obs=obs or self.context())
        pipe.run(self.frames[0])  # generic run, captures the plan
        # The first replay builds the pooled workspace, which at this size
        # is larger than the last-level cache.
        pipe.run(self.frames[1 % len(self.frames)])
        return pipe

    def unit(self, pipe):
        i = self._next % len(self.frames)
        self._next += 1
        return i, pipe.run(self.frames[i])

    def collect(self, raw) -> list[Frame]:
        i, res = raw
        return [Frame(matches(res.final, res.edge_mean, self.refs[i]),
                      res.total_time, res.backend)]


@dataclasses.dataclass
class JobRunner:
    """How ``mixed_job`` builds each job, plus what its jobs counted."""

    obs: RunContext | None
    loader: object
    writer: object
    jobs: int = 0
    hits: int = 0
    misses: int = 0
    created: int = 0


class JobWorkload(Workload):
    """``mixed_job``: a durable ``BatchJob`` over PGM files of several
    shapes, each closed-loop step one whole job on a fresh job dir (so
    every shape is a cold plan key)."""

    entry = "job.run"

    def __init__(self, *, shapes, per_shape: int, seed: int,
                 workdir: pathlib.Path, setup_reps: int) -> None:
        self.name = "mixed_job"
        self.setup_reps = setup_reps
        self.workdir = workdir
        self.keys = len(shapes)
        by_shape = [frames_u8(h, w, per_shape, seed * len(shapes) + j)
                    for j, (h, w) in enumerate(shapes)]
        inputs_dir = workdir / "inputs"
        inputs_dir.mkdir(parents=True)
        # Shuffled in rounds that each hold one frame of every shape: a
        # free shuffle would let the seed decide how often both workers
        # meet the same cold shape, and with it the job's peak memory.
        rng = np.random.default_rng(seed)
        self.inputs = []
        for r in range(per_shape):
            for j in rng.permutation(len(shapes)):
                plane = by_shape[j][r]
                h, w = plane.shape
                path = inputs_dir / f"f{len(self.inputs):03d}-{h}x{w}.pgm"
                write_pgm(path, plane)
                self.inputs.append(path)
        self.unit_frames = len(self.inputs)
        # The job reads the files, so the reference does too; the job
        # writes 8-bit files, so the reference is rounded the same way.
        self.refs = {}
        for path in self.inputs:
            ref = reference(read_pgm(path))
            self.refs[path.name] = Reference(
                np.clip(np.rint(ref.final), 0, 255), ref.edge_mean)
        # Single-frame probes and the one-frame set-up job use the second
        # shape (non-square) so they do not depend on the shuffle.
        probe_shape = f"-{shapes[1][0]}x{shapes[1][1]}.pgm"
        self.probe_inputs = [p for p in self.inputs
                             if p.name.endswith(probe_shape)]
        self.probe_frames = [read_pgm(p).astype(np.uint8)
                             for p in self.probe_inputs]
        self._jobs = 0

    def setup(self, *, spans: Spans | None = None,
              obs: RunContext | None = None) -> JobRunner:
        loader, writer = read_pgm, write_pgm
        if spans is not None:
            def loader(path):
                with spans.span("io.read_pgm"):
                    return read_pgm(path)

            def writer(path, plane):
                with spans.span("io.write_pgm"):
                    write_pgm(path, plane)
        runner = JobRunner(obs, loader, writer)
        _, job_dir = self._job(runner, self.probe_inputs[:1])
        shutil.rmtree(job_dir)
        return runner

    def _job(self, runner: JobRunner, inputs):
        self._jobs += 1
        job_dir = self.workdir / f"job{self._jobs}"
        job = BatchJob(inputs=inputs, output_dir=job_dir / "out",
                       job_dir=job_dir, workers=NPROC, obs=runner.obs,
                       loader=runner.loader, writer=runner.writer)
        return job.run(), job_dir

    def unit(self, runner: JobRunner):
        return (runner, *self._job(runner, self.inputs))

    def collect(self, raw) -> list[Frame]:
        runner, outcome, job_dir = raw
        done = JobJournal.replay(job_dir).completed
        result = outcome.result
        stats = {s.frame_id: s for s in result.frames} if result else {}
        frames = []
        for path in self.inputs:
            fid = path.name
            ref, record, st = self.refs[fid], done.get(fid), stats.get(fid)
            out = job_dir / "out" / fid
            ok = (record is not None and st is not None and out.exists()
                  and matches(read_pgm(out), record.get("edge_mean"), ref))
            frames.append(Frame(ok, st.serial_time if st else 0.0,
                                st.backend if st else "failed",
                                st.attempts if st else 1))
        if result is not None:
            runner.jobs += 1
            runner.hits += result.plan_stats["hits"]
            runner.misses += result.plan_stats["misses"]
            runner.created += result.pool_stats["created"]
        shutil.rmtree(job_dir)
        return frames

    def plan_counts(self, runner: JobRunner) -> dict[str, float]:
        jobs = max(runner.jobs, 1)
        return {"hits": runner.hits, "misses": runner.misses,
                "keys": self.keys * jobs, "created": runner.created / jobs}


#: Sizes per workload: full run, then ``--smoke``.
JOB_SHAPES = ((256, 256), (384, 512), (512, 384), (512, 512), (256, 640),
              (640, 480))
SMOKE_JOB_SHAPES = ((32, 32), (32, 48), (48, 32))


def make(name: str, *, seed: int, smoke: bool, workdir: pathlib.Path):
    """Build the named workload's inputs and references."""
    reps = 1 if smoke else None
    if name in ("stream512", "degraded"):
        return BatchWorkload(
            name, size=64 if smoke else 512, n_frames=4 if smoke else 16,
            seed=seed, faults=DEGRADED_FAULTS if name == "degraded" else None,
            setup_reps=reps or 5,
        )
    if name == "large2048":
        return LargeWorkload(size=128 if smoke else 2048,
                             n_frames=2 if smoke else 3, seed=seed,
                             setup_reps=reps or 3)
    if name == "mixed_job":
        return JobWorkload(shapes=SMOKE_JOB_SHAPES if smoke else JOB_SHAPES,
                           per_shape=2 if smoke else 6, seed=seed,
                           workdir=workdir, setup_reps=reps or 5)
    raise ValueError(f"unknown workload {name!r}")


@dataclasses.dataclass
class Side:
    """What one runner of a closed loop did."""

    wall: float = 0.0
    units: int = 0
    frames: list[Frame] = dataclasses.field(default_factory=list)
    #: Wall milliseconds per frame of each step.
    frame_ms: list[float] = dataclasses.field(default_factory=list)
    #: Frames of steps that raised instead of returning.
    lost: int = 0

    @property
    def s_per_frame(self) -> float:
        return self.wall / max(len(self.frames) + self.lost, 1)


def closed_loop(wl, runners, seconds: float, *,
                min_units: int = 1) -> list[Side]:
    """Run steps round-robin over ``(runner, spans)`` pairs until their
    timed work adds up to ``seconds`` and each ran ``min_units`` steps.

    Only :meth:`unit` is timed; checking the outputs happens between
    steps.  A runner with ``spans`` gets a span per step, named after the
    workload's entry point.  Garbage from one step (a finished job's
    engine and pools) is collected before the next, so peak memory is that
    of one step rather than of the collector's timing.
    """
    sides = [Side() for _ in runners]
    turn = 0
    while (sum(s.wall for s in sides) < seconds
           or min(s.units for s in sides) < min_units):
        side = sides[turn % len(runners)]
        runner, spans = runners[turn % len(runners)]
        turn += 1
        start = time.perf_counter()
        try:
            if spans is None:
                raw = wl.unit(runner)
            else:
                with spans.span(wl.entry):
                    raw = wl.unit(runner)
        except Exception:  # a step that raises fails all of its frames
            traceback.print_exc(file=sys.stderr)
            side.wall += time.perf_counter() - start
            side.units += 1
            side.lost += wl.unit_frames
            continue
        elapsed = time.perf_counter() - start
        frames = wl.collect(raw)
        raw = None
        gc.collect()
        side.wall += elapsed
        side.units += 1
        side.frames += frames
        side.frame_ms.append(elapsed * 1e3 / max(len(frames), 1))
    return sides
