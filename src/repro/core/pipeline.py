"""The GPU sharpness pipeline under arbitrary optimization flags.

``GPUPipeline.run`` executes the whole algorithm on the simulated device the
way the paper's host code does: allocate buffers, move the input according
to the transfer strategy, enqueue the kernel sequence the flag set implies
(with or without fusion / vectorization / GPU reduction / GPU border), and
read the final image back.  The :class:`~repro.types.FrameResult` carries
the output plane, the full simulated event timeline, and the
Fig.-13-style stage breakdown.

The functional execution mode computes real pixel values (all flag
combinations produce the same image up to float64 round-off — the test
suite asserts this); the emulate mode additionally runs every kernel
work-item by work-item for small images.

Frame streams reuse work across runs: the first run of a given
``(shape, flags, device, cpu)`` captures an
:class:`~repro.core.plan.ExecutionPlan` from a dry run of the host code
(every command priced by the cost model, no kernel body run and no pixel
of the frame read), and every frame, that first one included, is served
by replaying the plan through the
:class:`~repro.core.bufferpool.BufferPool` —
bit-identical output, identical simulated timeline, a fraction of the host
cost (see ``docs/performance.md``; ``caching=False`` runs every kernel
body on every frame).  Either way ``GPUPipeline.run`` builds the result and
writes the frame's telemetry from a plan plus pixels, in one place.
"""

from __future__ import annotations

import functools

import numpy as np

from ..cl.buffer import Buffer
from ..cl.context import MODE_DRYRUN, Context
from ..cl.queue import CommandQueue, record_commands
from ..cpu.cost import border_host_time, reduction_host_time
from ..algo import stages as algo
from ..kernels.base import round_up
from ..kernels.reduction import reduction_layout
from ..kernels.upscale_border import BORDER_GLOBAL, BORDER_LOCAL
from ..obs.runctx import NULL_CONTEXT, RunContext
from ..simgpu.device import CPUSpec, DeviceSpec, I5_3470, W8000
from ..simgpu.memory import placeholder
from ..types import (FLOAT, PIXEL, FrameResult, Image, SharpnessParams,
                     check_out_dtype)
from ..util.io import quantize_u8
from . import heuristics
from .bufferpool import BufferPool
from .config import OPTIMIZED, OptimizationFlags
from .fusion import build_kernel_set
from .metrics import GPU_STAGE_ORDER
from .plan import ExecutionPlan, PlanCache, PlanKey, _reduction_levels
from .transfer import TransferPlanner

#: Workgroup tile for 2-D pixel kernels (16x16 = 256 = the W8000 limit).
_TILE = 16


@functools.lru_cache(maxsize=4096)
def _grid2d(nx: int, ny: int, tile: int = _TILE) -> tuple[tuple[int, int],
                                                           tuple[int, int]]:
    """NDRange covering an ``nx x ny`` output with bounds-checked padding
    (pure in its integer inputs, hence memoized)."""
    return (round_up(nx, tile), round_up(ny, tile)), (tile, tile)


class GPUPipeline:
    """The paper's sharpness pipeline on the simulated FirePro W8000.

    Parameters
    ----------
    flags:
        Optimization configuration (defaults to the fully optimized preset).
    params:
        Sharpening tuning parameters.
    device / cpu:
        Hardware specs (Table I defaults).
    mode:
        ``"functional"`` (fast), ``"emulate"`` (per-work-item, small
        images only) or ``"dryrun"`` (every command enqueued and priced,
        no buffer allocated and no kernel body run: the simulated
        timeline of a frame whose ``final`` is a read-only zero
        placeholder of the frame's shape, as the calibration and
        portability sweeps use it).
    obs:
        Optional :class:`~repro.obs.RunContext`.  When given, every run
        emits host spans per stage, merges the simulated device timeline
        into the trace, and records per-stage duration histograms
        (``repro_stage_seconds``) plus transfer/kernel counters.
    label:
        Pipeline label used in metrics and logs (``"gpu"`` by default;
        experiments use e.g. ``"base"`` / ``"optimized"``).
    caching:
        Reuse an :class:`~repro.core.plan.ExecutionPlan` across frames of
        the same shape (on by default).  The first run of a shape captures
        the plan from a dry run of the generic host code (same commands,
        fault sites and simulated timeline, no kernel bodies, no device
        copies); every run, the first included, replays it through pooled
        buffers, producing bit-identical images, the same simulated
        timeline, and the same metrics at a fraction of the wall-clock
        cost.  ``caching=False`` runs every kernel body on every frame
        (the throughput benchmark's baseline and the bit-identity oracle);
        emulate/dry-run modes always do.  Either way a frame ends as a
        plan plus its pixels.
    plan_cache / buffer_pool:
        Share a :class:`~repro.core.plan.PlanCache` /
        :class:`~repro.core.bufferpool.BufferPool` across pipelines (the
        batch engine does); by default each caching pipeline owns its own.
    """

    def __init__(self, flags: OptimizationFlags = OPTIMIZED,
                 params: SharpnessParams | None = None,
                 device: DeviceSpec = W8000, cpu: CPUSpec = I5_3470,
                 *, mode: str = "functional",
                 obs: RunContext | None = None,
                 label: str = "gpu",
                 caching: bool = True,
                 plan_cache: PlanCache | None = None,
                 buffer_pool: BufferPool | None = None) -> None:
        from ..errors import ConfigError
        from ..kernels.reduction import KERNEL_WAVEFRONT

        if (flags.reduction_on_gpu and flags.reduction_unroll > 0
                and device.wavefront_size < KERNEL_WAVEFRONT):
            raise ConfigError(
                f"reduction_unroll={flags.reduction_unroll} assumes "
                f"{KERNEL_WAVEFRONT}-lane wavefronts; {device.name} has "
                f"{device.wavefront_size} (would corrupt results) — use "
                f"reduction_unroll=0 or core.portability.retune()"
            )
        self.flags = flags
        self.params = params or SharpnessParams()
        self.device = device
        self.cpu = cpu
        self.mode = mode
        self.obs = obs or NULL_CONTEXT
        self.label = label
        self.caching = caching
        self.plan_cache = plan_cache if plan_cache is not None else (
            PlanCache() if caching else None)
        self.buffer_pool = buffer_pool if buffer_pool is not None else (
            BufferPool() if caching else None)

    # -- helpers -------------------------------------------------------------

    def _launch(self, queue: CommandQueue, spec, args, global_size,
                local_size, stage: str) -> None:
        kernel = spec.create().set_args(*args)
        queue.enqueue_nd_range(kernel, global_size, local_size, stage=stage)
        if not self.flags.eliminate_sync:
            queue.finish(stage=stage)

    @staticmethod
    def _count_lookup(obs: RunContext, outcome: str) -> None:
        if obs.enabled:
            obs.metrics.counter(
                "repro_plan_cache_requests_total",
                "ExecutionPlan cache lookups by outcome",
                ("outcome",),
            ).labels(outcome=outcome).inc()

    # -- main entry -----------------------------------------------------------

    def run(self, image: Image | np.ndarray, *,
            out_dtype=FLOAT) -> FrameResult:
        """Sharpen one frame.  ``out_dtype`` is its ``final``'s: float64,
        or ``uint8`` for a file sink, rounded as
        :func:`~repro.util.io.quantize_u8` rounds (a replayed frame's
        strips are rounded in pass 2; an uncached, emulated or dry-run
        frame's float64 ``final`` at the end)."""
        if not isinstance(image, Image):
            image = Image.from_array(np.asarray(image))
        out_dtype = check_out_dtype(out_dtype)
        obs = self.obs
        cached = self._plan_eligible()
        with obs.trace.span("gpu.run", pipeline=self.label,
                            h=image.height, w=image.width, mode=self.mode):
            if not cached:
                plan, final, edge_mean = self._run_instrumented(image, obs)
                if out_dtype == PIXEL:
                    final = quantize_u8(final)
            else:
                def capture():
                    self._count_lookup(obs, "miss")
                    plan, _, _ = self._run_instrumented(image, obs)
                    if obs.enabled:
                        obs.log.debug(
                            "plan.captured", pipeline=self.label,
                            h=image.height, w=image.width,
                            levels=len(plan.reduction_levels),
                        )
                    return plan

                plan, hit = self.plan_cache.get_or_capture(
                    self._plan_key(image), capture)
                if hit:
                    self._count_lookup(obs, "hit")
                if obs.faults is not None:
                    # A hit never touches a CommandQueue, so the queue's
                    # transfer/kernel fault sites would go dark once a
                    # shape is cached.  One check per site stands in for
                    # the replayed commands; a miss has just passed the
                    # real sites in its dry run.  Every replay then
                    # allocates its device workspace (simulated OOM fires
                    # before the pool changes, so a retry starts clean).
                    if hit:
                        obs.faults.check("transfer", obs,
                                         detail="plan-replay")
                        obs.faults.check("kernel", obs, detail="plan-replay")
                    obs.faults.check(
                        "oom", obs,
                        detail=f"checkout:{image.height}x{image.width}")
                with self.buffer_pool.lease(image.height, image.width) as ws:
                    final, edge_mean = plan.execute(
                        image.pixels, self.params, ws, trace=obs.trace,
                        out_dtype=out_dtype)
            # Simulated costs never depend on pixel values, so every frame's
            # timeline, stage times and placements come from its plan.
            record_commands(obs, plan.timeline, plan.transfer_bytes,
                            key=plan)
            if cached:
                self.buffer_pool.publish(obs)
        result = FrameResult(
            final=final,
            times=plan.times,
            timeline=plan.timeline,
            edge_mean=edge_mean,
            flags=self.flags,
            border_ran_on_gpu=plan.border_gpu,
            reduction_stage2_on_gpu=plan.stage2_gpu,
            kernel_launches=plan.kernel_launches,
        )
        obs.record_frame(
            self.label, result, GPU_STAGE_ORDER, self.device.name, key=plan,
            h=image.height, w=image.width,
            kernel_launches=result.kernel_launches,
            border_on_gpu=result.border_ran_on_gpu,
            reduction_stage2_on_gpu=result.reduction_stage2_on_gpu,
        )
        return result

    # -- execution-plan caching ------------------------------------------------

    def _plan_eligible(self) -> bool:
        """Cached execution covers the pixel-producing functional mode only;
        emulation and dry runs stay fully generic.  A plan-eligible
        pipeline runs the generic host code only to capture, as a dry
        run."""
        return self.caching and self.mode == "functional"

    def _plan_key(self, image: Image) -> PlanKey:
        return PlanKey(
            height=image.height, width=image.width, flags=self.flags,
            device=self.device, cpu=self.cpu, mode=self.mode,
        )

    def _run_instrumented(self, image: Image, obs
                          ) -> tuple[ExecutionPlan, np.ndarray, float]:
        """The generic host code: every command through a fresh queue.

        Returns ``(plan, final, edge_mean)``: the queue's timeline and
        transfer bytes as an :class:`ExecutionPlan`, and the frame's
        pixels.  A plan-eligible pipeline calls this only to capture a
        plan, so it runs the queue in ``MODE_DRYRUN`` over a zero-stride
        placeholder of the frame's shape: the same commands, fault sites,
        timeline and transfer bytes as a functional run, with no kernel
        body and no pixel anywhere.  Its buffers are shape-only, every
        read-back (``final`` included) is a read-only zero placeholder,
        and the host steps build no plane: the host border and padding
        are skipped, and the reduction sums a placeholder.
        """
        flags = self.flags
        ctx = Context(self.device,
                      MODE_DRYRUN if self._plan_eligible() else self.mode)
        queue = CommandQueue(ctx, obs=obs)
        h, w = image.shape
        n = h * w
        # A dry run reads only the frame's shape.
        plane = placeholder((h, w)) if queue.dry else image.plane
        planner = TransferPlanner(queue, flags.transfer_mode, self.cpu)
        kernels = build_kernel_set(flags)
        if obs.enabled:
            obs.log.debug(
                "pipeline.start", pipeline=self.label, h=h, w=w,
                mode=ctx.mode, kernels=",".join(sorted(kernels)),
                transfer_mode=flags.transfer_mode,
            )

        # ---- buffers --------------------------------------------------------
        padded_buf = ctx.create_buffer((h + 2, w + 2), transfer_itemsize=1,
                                       name="padded")
        src_buf: Buffer | None = None
        if not flags.transfer_padded_only:
            src_buf = ctx.create_buffer((h, w), transfer_itemsize=1,
                                        name="src")
        down_buf = ctx.create_buffer((h // 4, w // 4), transfer_itemsize=4,
                                     name="down")
        up_buf = ctx.create_buffer((h, w), transfer_itemsize=4, name="up")
        pedge_buf = ctx.create_buffer((h, w), transfer_itemsize=4,
                                      name="pedge")
        final_buf = ctx.create_buffer((h, w), transfer_itemsize=1,
                                      name="final")

        # ---- data init (section V.A) ----------------------------------------
        with obs.trace.span("gpu.data_init"):
            planner.upload_padded(padded_buf, plane,
                                  pad_on_transfer=flags.pad_on_transfer,
                                  stage="data_init")
            if src_buf is not None:
                planner.upload(src_buf, plane, stage="data_init")
        src_for_kernels = padded_buf if flags.transfer_padded_only else src_buf

        # ---- downscale -------------------------------------------------------
        with obs.trace.span("gpu.downscale"):
            gsz, lsz = _grid2d(w // 4, h // 4)
            self._launch(queue, kernels["downscale"],
                         (src_for_kernels, down_buf, h, w), gsz, lsz,
                         "downscale")

        # ---- upscale border (section V.E) ------------------------------------
        border_gpu = heuristics.border_on_gpu(flags, h, w)
        with obs.trace.span("gpu.border", on_gpu=border_gpu):
            if border_gpu:
                self._launch(queue, kernels["border"],
                             (down_buf, up_buf, h, w),
                             BORDER_GLOBAL, BORDER_LOCAL, "border")
            else:
                # CPU path: download the downscaled matrix, build the border
                # on the host, upload the upscaled buffer (border populated,
                # body still zero) — the transfers the paper calls a huge
                # cost.
                down_host = planner.download(down_buf, stage="border")
                queue.host_step("border_host",
                                border_host_time(h, w, self.cpu),
                                stage="border")
                if queue.dry:
                    up_host = placeholder((h, w))
                else:
                    up_host = np.zeros((h, w), dtype=np.float64)
                    algo.upscale_border_apply(up_host, down_host)
                planner.upload(up_buf, up_host, stage="border")

        # ---- upscale center ---------------------------------------------------
        with obs.trace.span("gpu.center"):
            if flags.vectorize:
                gsz, lsz = _grid2d((w - 4) // 4, (h - 4) // 4)
            else:
                gsz, lsz = _grid2d(w - 4, h - 4)
            self._launch(queue, kernels["center"], (down_buf, up_buf, h, w),
                         gsz, lsz, "center")

        # ---- Sobel -------------------------------------------------------------
        with obs.trace.span("gpu.sobel"):
            if flags.vectorize:
                gsz, lsz = _grid2d(round_up(w, 4) // 4, h)
            else:
                gsz, lsz = _grid2d(w, h)
            self._launch(queue, kernels["sobel"],
                         (src_for_kernels, pedge_buf, h, w), gsz, lsz,
                         "sobel")

        # ---- reduction (section V.C) -------------------------------------------
        with obs.trace.span("gpu.reduction"):
            edge_mean = self._reduce(ctx, queue, planner, kernels,
                                     pedge_buf, n)

        # ---- sharpness tail (section V.B) ---------------------------------------
        with obs.trace.span("gpu.sharpness", fused=flags.fuse_sharpness):
            if flags.fuse_sharpness:
                if flags.vectorize:
                    gsz, lsz = _grid2d(round_up(w, 4) // 4, h)
                else:
                    gsz, lsz = _grid2d(w, h)
                self._launch(
                    queue, kernels["sharpness"],
                    (up_buf, pedge_buf, src_for_kernels, final_buf,
                     edge_mean, self.params, h, w),
                    gsz, lsz, "sharpness",
                )
            else:
                perror_buf = ctx.create_buffer((h, w), transfer_itemsize=4,
                                               name="perror")
                prelim_buf = ctx.create_buffer((h, w), transfer_itemsize=4,
                                               name="prelim")
                gsz, lsz = _grid2d(w, h)
                self._launch(queue, kernels["perror"],
                             (src_for_kernels, up_buf, perror_buf, h, w),
                             gsz, lsz, "perror")
                self._launch(
                    queue, kernels["prelim"],
                    (up_buf, pedge_buf, perror_buf, prelim_buf, edge_mean,
                     self.params, h, w),
                    gsz, lsz, "prelim",
                )
                self._launch(
                    queue, kernels["overshoot"],
                    (prelim_buf, padded_buf, final_buf, self.params, h, w),
                    gsz, lsz, "overshoot",
                )

        # ---- readback ------------------------------------------------------------
        with obs.trace.span("gpu.readback"):
            final = planner.download(final_buf, stage="data_init")

        plan = ExecutionPlan(self._plan_key(image), ctx.timeline,
                             queue.transfer_bytes)
        return plan, final, edge_mean

    # -- reduction sub-flow -----------------------------------------------------

    def _reduce(self, ctx: Context, queue: CommandQueue,
                planner: TransferPlanner, kernels, pedge_buf: Buffer,
                n: int) -> float:
        """Compute the mean of pEdge per the reduction flags."""
        levels, _ = _reduction_levels(self.flags, n)
        if not levels:
            # Naive placement: ship the whole pEdge matrix to the host and
            # sum it there (the Fig. 16 "on CPU" curve).
            pedge_host = planner.download(pedge_buf, stage="reduction")
            queue.host_step("reduction_host",
                            reduction_host_time(n, self.cpu),
                            stage="reduction")
            return float(pedge_host.sum()) / n

        # Workgroup tree reductions on the device, one launch per level.
        current = pedge_buf
        for level, (count, n_groups) in enumerate(levels):
            _, gsz, lsz = reduction_layout(count)
            nxt = ctx.create_buffer((n_groups,), transfer_itemsize=4,
                                    name=f"partial{level}")
            self._launch(queue, kernels["reduction"],
                         (current, nxt, count), gsz, lsz, "reduction")
            current, count = nxt, n_groups

        # Final: the surviving partials come back in one small transfer and
        # the host adds them up.
        partials = planner.download(current, stage="reduction")
        queue.host_step("reduction_final",
                        reduction_host_time(count, self.cpu),
                        stage="reduction")
        return float(partials.sum()) / n
