"""Execution plans: amortize per-frame pipeline setup across a stream.

``GPUPipeline.run`` derives the same facts from scratch on every frame of a
stream: which kernels the flag set implies, where the border and reduction
stage 2 run, every NDRange geometry, the reduction level chain, and — in the
simulation — the entire event timeline, which is a pure function of
``(shape, flags, device, cpu, mode)`` and never of pixel values (the dry-run
mode relies on exactly this property).

An :class:`ExecutionPlan` captures all of that once, from the first (fully
generic) run of a given :class:`PlanKey`, and replays it for every later
frame:

* the *decisions* (kernel set, placements, geometry, reduction levels) are
  stored and reused instead of re-derived;
* the *timeline* and per-stage times are shared as an immutable template —
  simulated costs are content-independent, so frame N's timeline is
  bit-identical to frame 1's;
* the *pixels* are produced by a cache-blocked executor that calls the
  :mod:`repro.algo.stages` functions — the same ones the generic kernel
  path and the CPU pipeline run — strip by strip into pooled scratch
  (see :mod:`repro.core.bufferpool`), with no per-frame allocations
  beyond the output plane itself.  The executor is only a schedule: it
  owns the workspace, the strip lanes and the device reduction's level
  chain, which reproduces the GPU kernel's summation order.  Cached and
  uncached runs therefore produce **bit-identical** images and edge
  means by construction.

Only the downscale (whose output is 1/16 of the frame) and the pEdge
reduction run over the whole frame; the rest runs on row strips of the
``h - 2`` interior rows, sized by
:data:`~repro.core.bufferpool.STRIP_BYTES` so one strip's scratch stays
in cache:

1. downscale the whole frame;
2. **pass 1**, per strip: upscale-body rows into ``up``, then Sobel rows
   into ``pEdge``; then the upscale border lines (O(h + w));
3. the pEdge mean over the whole ``pEdge`` with the plan's exact
   reduction level chain — the pipeline's only global barrier, hence two
   passes;
4. **pass 2**, per strip: pError, strength, preliminary, 3x3 min/max and
   the overshoot blend into the output; then the output's border lines
   from ``up``.

Strips of one frame run on :data:`STRIP_LANES`, a process-wide pool of
lanes: each lane owns one :class:`~repro.core.bufferpool.StripScratch`
of the workspace and writes disjoint rows, so pixels need no locking.
The lane rule keeps busy lanes at or below ``os.cpu_count()``: a pass
asks for ``cpu_count // frames`` lanes, ``frames`` being the frames
currently inside :meth:`ExecutionPlan.execute` process-wide, and a helper
lane stops taking strips once the busy lanes (one per frame inside
``execute`` plus the running helpers) reach the CPU count.  A lone frame
fans out over every core; a batch with one frame in flight per core runs
each frame on its own thread.

:class:`PlanCache` is a thread-safe LRU keyed on :class:`PlanKey`; its
hit/miss counters surface through the metrics registry as
``repro_plan_cache_requests_total{outcome=...}``.
"""

from __future__ import annotations

import contextlib
import os
import threading
from collections import Counter, OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..algo import stages as algo
from ..kernels.reduction import GROUP_SPAN, reduction_layout
from ..simgpu.device import CPUSpec, DeviceSpec
from ..simgpu.profiling import Timeline
from ..types import FLOAT, SharpnessParams, StageTimes
from . import heuristics
from .bufferpool import StripScratch, Workspace
from .config import OptimizationFlags

@dataclass(frozen=True)
class PlanKey:
    """Identity of an execution plan.

    Params *values* are deliberately absent: the plan depends only on the
    params structure (they feed kernel arguments, not kernel selection or
    geometry), so one plan serves every tuning of the same shape/flags.
    """

    height: int
    width: int
    flags: OptimizationFlags
    device: DeviceSpec
    cpu: CPUSpec
    mode: str
    params_structure: str = SharpnessParams.__name__


def _reduction_levels(flags: OptimizationFlags,
                      n: int) -> tuple[tuple[tuple[int, int], ...], bool]:
    """Device-side reduction level chain ``((count, n_groups), ...)``.

    Mirrors ``GPUPipeline._reduce`` exactly: stage 1 always runs, further
    levels run while stage 2 sits on the GPU and the surviving partial
    count still exceeds one workgroup span.  Empty chain = reduction on CPU.
    """
    if not flags.reduction_on_gpu:
        return (), False
    n_groups, _, _ = reduction_layout(n)
    levels = [(n, n_groups)]
    stage2_gpu = heuristics.reduction_stage2_on_gpu(flags, n_groups)
    count = n_groups
    while stage2_gpu and count > GROUP_SPAN:
        ng2, _, _ = reduction_layout(count)
        levels.append((count, ng2))
        count = ng2
    return tuple(levels), stage2_gpu


def _group_sums(flat: np.ndarray, count: int, n_groups: int) -> np.ndarray:
    """Per-workgroup sums of ``flat[:count]`` with the default span.

    Bit-identical to the functional reduction kernel's per-slice ``.sum()``
    loop: a contiguous row of a reshape and the equivalent 1-D slice run
    the same pairwise summation.
    """
    span = GROUP_SPAN
    full = count // span
    if full == n_groups:
        return flat[:count].reshape(n_groups, span).sum(axis=1)
    partials = np.empty(n_groups, dtype=FLOAT)
    if full:
        partials[:full] = flat[:full * span].reshape(full, span).sum(axis=1)
    partials[full] = flat[full * span:count].sum()
    return partials


class _Strips:
    """The strips of one executor pass, handed out one at a time."""

    def __init__(self, n: int, fn: Callable[[int, StripScratch], None],
                 lock: threading.Lock) -> None:
        self.n = n
        self.fn = fn
        self.next = 0
        self.running = 0
        self.error: BaseException | None = None
        self.idle = threading.Condition(lock)


class StripLanes:
    """Process-wide strip lanes for the executor (see the module docstring
    for the lane rule).

    The calling thread of :meth:`run` is always lane 0; extra lanes are
    helper threads of a pool created on first use.  Strips are taken one at
    a time, so lanes balance themselves and a helper can step back between
    two strips when other frames enter :meth:`ExecutionPlan.execute`.
    """

    def __init__(self, cpus: int) -> None:
        self.cpus = cpus
        self._lock = threading.Lock()
        #: Frames inside ``execute``; each is a busy lane on its own thread.
        self.frames = 0
        #: Helper lanes currently running a strip.
        self.helpers = 0
        self._pool: ThreadPoolExecutor | None = None

    def busy(self) -> int:
        """Busy strip lanes: frames inside ``execute`` plus running helpers."""
        with self._lock:
            return self.frames + self.helpers

    @contextlib.contextmanager
    def frame(self):
        """Count the caller as a frame inside ``execute``."""
        with self._lock:
            self.frames += 1
        try:
            yield
        finally:
            with self._lock:
                self.frames -= 1

    def run(self, ws: Workspace, n: int,
            fn: Callable[[int, StripScratch], None]) -> None:
        """Call ``fn(strip, scratch)`` for every strip in ``range(n)`` and
        return once all have finished; the first error a lane raised is
        re-raised here, after every lane has stopped touching ``ws``."""
        with self._lock:
            lanes = max(1, min(n, self.cpus // max(self.frames, 1)))
        scratch = ws.lane_scratch(lanes)
        job = _Strips(n, fn, self._lock)
        if lanes > 1:
            pool = self._executor()
            for lane in scratch[1:]:
                pool.submit(self._work, job, lane, True)
        self._work(job, scratch[0], False)
        with self._lock:
            while job.running:
                job.idle.wait()
        if job.error is not None:
            raise job.error

    def _executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.cpus - 1,
                    thread_name_prefix="repro-strip")
            return self._pool

    def _work(self, job: _Strips, scratch: StripScratch,
              helper: bool) -> None:
        while True:
            with self._lock:
                if (job.next >= job.n or job.error is not None
                        or (helper and
                            self.frames + self.helpers >= self.cpus)):
                    return
                strip = job.next
                job.next += 1
                job.running += 1
                self.helpers += helper
            try:
                job.fn(strip, scratch)
            except BaseException as exc:  # repro: ignore[PL-BROAD-EXCEPT] re-raised by run()
                with self._lock:
                    if job.error is None:
                        job.error = exc
            finally:
                with self._lock:
                    job.running -= 1
                    self.helpers -= helper
                    if not job.running:
                        job.idle.notify_all()


#: The lanes every plan's executor shares.
STRIP_LANES = StripLanes(os.cpu_count() or 1)


def _upscale_sobel_strip(plane: np.ndarray, ws: Workspace, r0: int, r1: int,
                         s: StripScratch) -> None:
    """Pass 1 on interior rows ``[r0, r1)``: upscale-body rows of ``up``
    and Sobel rows of ``pEdge``."""
    algo.upscale_body_rows(ws.down, ws.up, r0, r1, rows=s.rows, taps=s.taps)
    algo.sobel_rows(plane, ws.edge, r0, r1, tcol=s.tcol, urow=s.urow,
                    gx=s.gx, gy=s.gy)


def _sharpen_strip(plane: np.ndarray, ws: Workspace, r0: int, r1: int,
                   s: StripScratch, edge_mean: float,
                   params: SharpnessParams, final: np.ndarray) -> None:
    """Pass 2 on interior rows ``[r0, r1)``: the fused sharpness tail and
    overshoot control into ``final[r0:r1, 1:w-1]`` (interior columns: the
    border is :func:`~repro.algo.stages.clip_border`'s)."""
    w = ws.w
    n = r1 - r0
    ui = ws.up[r0:r1, 1:w - 1]
    err = algo.perror(plane[r0:r1, 1:w - 1], ui, out=s.err[:n])
    strength = algo.strength_map(ws.edge[r0:r1, 1:w - 1], edge_mean,
                                 params, out=s.strength[:n])
    prelim = algo.preliminary_sharpen(ui, err, strength, out=s.prelim[:n])
    mn, mx = algo.minmax3x3(plane, r0, r1, mn=s.mn, mx=s.mx, mnc=s.mnc,
                            mxc=s.mxc)
    algo.overshoot_rows(prelim, mn, mx, params.overshoot, final, r0,
                        over=s.over, under=s.under)


@dataclass
class ExecutionPlan:
    """Everything frame-invariant about one pipeline configuration."""

    key: PlanKey
    border_gpu: bool
    stage2_gpu: bool
    #: Device-side reduction levels as ``(count, n_groups)`` pairs.
    reduction_levels: tuple[tuple[int, int], ...]
    #: Kernel names of the flag set (introspection / logs).
    kernels: tuple[str, ...]
    #: ``stage -> (global_size, local_size)`` NDRange geometry.
    geometry: dict[str, tuple[tuple[int, ...], tuple[int, ...]]]
    #: Immutable per-frame timeline template (content-independent costs).
    timeline: Timeline
    times: StageTimes
    kernel_launches: int
    #: Observability replay: command counts by kind, simulated kernel
    #: durations by kernel name, transfer bytes by direction.
    cmd_counts: dict[str, int] = field(default_factory=dict)
    kernel_durations: dict[str, tuple[float, ...]] = field(
        default_factory=dict)
    transfer_bytes: dict[str, int] = field(default_factory=dict)

    # -- capture --------------------------------------------------------------

    @classmethod
    def capture(cls, key: PlanKey, *, timeline: Timeline, times: StageTimes,
                border_gpu: bool, stage2_gpu: bool,
                kernels: tuple[str, ...],
                geometry: dict[str, tuple[tuple[int, ...], tuple[int, ...]]],
                transfer_bytes: dict[str, int]) -> "ExecutionPlan":
        """Build a plan from the artifacts of one generic reference run."""
        cmd_counts = dict(Counter(ev.kind for ev in timeline.events))
        durations: dict[str, list[float]] = {}
        for ev in timeline.events:
            if ev.kind == "kernel":
                name = ev.name.removeprefix("kernel:")
                durations.setdefault(name, []).append(ev.duration)
        levels, level_stage2 = _reduction_levels(
            key.flags, key.height * key.width)
        if level_stage2 != stage2_gpu:  # pragma: no cover - consistency
            raise AssertionError("reduction placement drifted from capture")
        return cls(
            key=key,
            border_gpu=border_gpu,
            stage2_gpu=stage2_gpu,
            reduction_levels=levels,
            kernels=kernels,
            geometry=geometry,
            timeline=timeline,
            times=times,
            kernel_launches=len(timeline.of_kind("kernel")),
            cmd_counts=cmd_counts,
            kernel_durations={k: tuple(v) for k, v in durations.items()},
            transfer_bytes=dict(transfer_bytes),
        )

    # -- observability replay -------------------------------------------------

    def replay_observability(self, obs) -> None:
        """Re-emit the reference run's queue-level metrics for one frame.

        Cached frames never touch a :class:`~repro.cl.queue.CommandQueue`,
        so the per-command counters/histograms the queue would have recorded
        are replayed from the capture instead; counts and values match the
        uncached run exactly (per-command debug *log lines* are not
        replayed).
        """
        if not obs.enabled:
            return
        commands = obs.metrics.counter(
            "repro_cl_commands_total", "Enqueued commands by kind",
            ("kind",),
        )
        for kind, count in self.cmd_counts.items():
            commands.labels(kind=kind).inc(count)
        transfers = obs.metrics.counter(
            "repro_cl_transfer_bytes_total",
            "Host<->device bytes moved over the simulated PCI-E link",
            ("direction",),
        )
        for direction, nbytes in self.transfer_bytes.items():
            if nbytes:
                transfers.labels(direction=direction).inc(nbytes)
        kernel_hist = obs.metrics.histogram(
            "repro_cl_kernel_seconds",
            "Simulated kernel duration per dispatched kernel (seconds)",
            ("kernel",),
        )
        for kernel, durations in self.kernel_durations.items():
            child = kernel_hist.labels(kernel=kernel)
            for duration in durations:
                child.observe(duration)

    # -- specialized frame executor -------------------------------------------

    def execute(self, plane: np.ndarray, params: SharpnessParams,
                ws: Workspace) -> tuple[np.ndarray, float]:
        """Sharpen one frame through pooled scratch; allocation-free steady
        state apart from the returned output plane (which the caller owns).

        ``ws`` is a :class:`~repro.core.bufferpool.Workspace` of matching
        shape.  The frame runs in two strip passes around the reduction
        (see the module docstring); every pixel comes from a
        :mod:`repro.algo.stages` function, so the result is bit-identical
        to the generic kernel path.
        """
        h, w = self.key.height, self.key.width
        with STRIP_LANES.frame():
            down = algo.downscale(plane, out=ws.down, colsum=ws.colsum)

            # Strip j covers interior rows [1 + j*S, 1 + (j+1)*S) ∩ [1, h-1).
            step = ws.strip
            n_strips = -(-(h - 2) // step)

            def bounds(j: int) -> tuple[int, int]:
                return 1 + j * step, min(1 + (j + 1) * step, h - 1)

            STRIP_LANES.run(ws, n_strips, lambda j, s: _upscale_sobel_strip(
                plane, ws, *bounds(j), s))
            # Border lines: host construction regardless of the GPU/CPU
            # placement — both placements produce identical values
            # (asserted by the flag-equivalence tests); the placement only
            # shapes the (already captured) timeline.
            up = ws.up
            algo.upscale_border_apply(up, down)

            # The reduction runs the capture's exact level chain; the
            # pEdge border ring is kept zero by Workspace.reset().
            edge = ws.edge
            if not self.reduction_levels:
                edge_mean = algo.reduce_mean(edge)
            else:
                flat = edge.ravel()
                for count, n_groups in self.reduction_levels:
                    flat = _group_sums(flat, count, n_groups)
                edge_mean = float(flat.sum()) / (h * w)

            final = np.empty((h, w), dtype=FLOAT)
            STRIP_LANES.run(ws, n_strips, lambda j, s: _sharpen_strip(
                plane, ws, *bounds(j), s, edge_mean, params, final))

        # On the one-pixel border the edge map is zero, so the preliminary
        # image equals ``up`` there.
        algo.clip_border(up, final)
        return final, edge_mean


class PlanCache:
    """Thread-safe LRU cache of :class:`ExecutionPlan` by :class:`PlanKey`."""

    def __init__(self, maxsize: int = 32) -> None:
        from ..errors import ConfigError

        if maxsize < 1:
            raise ConfigError(f"plan cache maxsize must be >= 1, "
                              f"got {maxsize}")
        self.maxsize = maxsize
        self._plans: OrderedDict[PlanKey, ExecutionPlan] = OrderedDict()
        self._lock = threading.RLock()
        #: Key being captured -> event set when that capture ends.
        self._capturing: dict[PlanKey, threading.Event] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: PlanKey) -> ExecutionPlan | None:
        """Look up a plan; counts a hit or a miss."""
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                self.misses += 1
                return None
            self._plans.move_to_end(key)
            self.hits += 1
            return plan

    def get_or_capture(self, key: PlanKey, capture
                       ) -> tuple[ExecutionPlan, bool]:
        """``(plan, hit)`` for ``key``; a miss caches ``capture()``'s plan.

        Single-flight: misses while a capture of ``key`` runs wait for it
        and count as hits.  If it raises, they wake up and capture for
        themselves (a miss each).
        """
        with self._lock:
            done = self._capturing.get(key)
            leader = done is None
            if leader:
                plan = self.get(key)
                if plan is not None:
                    return plan, True
                done = self._capturing[key] = threading.Event()
        try:
            if not leader:
                done.wait()
                plan = self.get(key)
                if plan is not None:
                    return plan, True
            plan = capture()
            self.put(key, plan)
            return plan, False
        finally:
            if leader:
                with self._lock:
                    del self._capturing[key]
                done.set()

    def put(self, key: PlanKey, plan: ExecutionPlan) -> None:
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "size": len(self._plans)}
