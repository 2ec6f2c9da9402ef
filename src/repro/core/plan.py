"""Execution plans: amortize per-frame pipeline setup across a stream.

``GPUPipeline.run`` derives the same facts from scratch on every frame of a
stream: where the border and reduction stage 2 run, the reduction level
chain, and — in the simulation — the entire event timeline, which is a pure
function of ``(shape, flags, device, cpu, mode)`` and never of pixel values
(the dry-run mode relies on exactly this property).

An :class:`ExecutionPlan` stores what a dry run of the generic host code
measured for a given :class:`PlanKey` — its timeline and transfer bytes —
and replays it for every frame, the one that captured it included.  The
dry run (``MODE_DRYRUN``) enqueues, prices and fault-checks every command a
functional run would, but runs no kernel body and moves no device data, so
a cold key costs about one replay rather than one full kernel-path frame:

* the *timeline* is shared as an immutable template — simulated costs are
  content-independent, so frame N's timeline is bit-identical to frame
  1's; the stage times and kernel launches are read off it once, and
  each replayed frame writes its queue metrics from it
  (:func:`repro.cl.queue.record_commands`);
* the *decisions* (border placement, reduction level chain) are derived
  once from the key by the functions the generic run calls;
* the *pixels* come from the strip executor of :mod:`repro.algo.strips`
  — the same schedule the CPU pipeline runs — over pooled scratch (see
  :mod:`repro.core.bufferpool`), with no per-frame allocations beyond the
  output plane itself.  The plan only supplies the pEdge reduction's
  level chain, plain data that :func:`repro.algo.stages.reduce_mean`
  folds in the device kernel's summation order.  Cached and uncached
  runs therefore produce **bit-identical** images and edge means by
  construction.

An uncached frame's functional run ends as a plan of its own (never
cached) plus its kernel-computed pixels, so ``GPUPipeline.run`` builds
every GPU frame's result and writes its telemetry from a plan and pixels.

:class:`PlanCache` is a thread-safe LRU keyed on :class:`PlanKey`; its
hit/miss counters surface through the metrics registry as
``repro_plan_cache_requests_total{outcome=...}``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..algo import strips
from ..algo.stages import GROUP_SPAN
from ..algo.strips import Workspace
from ..kernels.reduction import reduction_layout
from ..obs.runctx import NULL_CONTEXT
from ..simgpu.device import CPUSpec, DeviceSpec
from ..simgpu.profiling import Timeline
from ..types import FLOAT, SharpnessParams, StageTimes
from . import heuristics
from .config import OptimizationFlags
from .metrics import stage_times_from_timeline

@dataclass(frozen=True)
class PlanKey:
    """Identity of an execution plan.

    Params values are deliberately absent: they feed kernel arguments, not
    kernel selection or geometry, so one plan serves every tuning of the
    same shape/flags.
    """

    height: int
    width: int
    flags: OptimizationFlags
    device: DeviceSpec
    cpu: CPUSpec
    mode: str


def _reduction_levels(flags: OptimizationFlags,
                      n: int) -> tuple[tuple[tuple[int, int], ...], bool]:
    """Device-side reduction level chain ``((count, n_groups), ...)`` and
    whether stage 2 runs on the GPU.

    ``GPUPipeline._reduce`` launches one reduction kernel per level: stage
    1 always runs, further levels run while stage 2 sits on the GPU and
    the surviving partial count still exceeds one workgroup span.  Empty
    chain = reduction on CPU.
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


@dataclass(eq=False)
class ExecutionPlan:
    """What one run of the generic host code measured (a dry run, for a
    cached plan), and the frame-invariant facts derived from it.

    A plan compares and hashes by identity: it is the key its frames'
    telemetry is memoized under (:meth:`~repro.obs.RunContext.memoize`).
    """

    key: PlanKey
    #: Immutable per-frame timeline template (content-independent costs).
    timeline: Timeline
    #: Host<->device bytes by direction.
    transfer_bytes: dict[str, int]
    times: StageTimes = field(init=False)
    kernel_launches: int = field(init=False)
    border_gpu: bool = field(init=False)
    #: Device-side reduction levels as ``(count, n_groups)`` pairs.
    reduction_levels: tuple[tuple[int, int], ...] = field(init=False)
    stage2_gpu: bool = field(init=False)

    def __post_init__(self) -> None:
        key = self.key
        self.times = stage_times_from_timeline(self.timeline)
        self.kernel_launches = len(self.timeline.of_kind("kernel"))
        self.border_gpu = heuristics.border_on_gpu(key.flags, key.height,
                                                   key.width)
        self.reduction_levels, self.stage2_gpu = _reduction_levels(
            key.flags, key.height * key.width)

    # -- specialized frame executor -------------------------------------------

    def execute(self, plane: np.ndarray, params: SharpnessParams,
                ws: Workspace, *, trace=NULL_CONTEXT.trace,
                out_dtype=FLOAT) -> tuple[np.ndarray, float]:
        """Sharpen one frame through the strip executor
        (:func:`repro.algo.strips.run`) with this plan's reduction levels.

        ``ws`` is a frame-clean :class:`~repro.algo.strips.Workspace` of
        matching shape; ``trace`` receives the executor's phase spans;
        ``out_dtype`` is the output plane's (float64, or ``uint8`` for a
        file sink).  Every pixel comes from a :mod:`repro.algo.stages`
        function, so the result is bit-identical to the generic kernel
        path.
        """
        return strips.run(plane, params, ws, self.reduction_levels, trace,
                          out_dtype=out_dtype)


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
