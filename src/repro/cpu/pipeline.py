"""The CPU baseline pipeline (the comparator of Fig. 12/13a).

Runs the canonical vectorized stages through the strip executor
(:mod:`repro.algo.strips`, the schedule plan replay runs too) and attaches
the i5-3470 cost model's per-stage simulated times, so experiments can
report both the baseline's output image and its Fig.-13(a)-style time
breakdown.  The frame's timeline is the cost model's stages as one serial
chain of ``host`` events.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..algo import strips
from ..obs.runctx import NULL_CONTEXT, RunContext
from ..simgpu.device import CPUSpec, I5_3470
from ..simgpu.profiling import Timeline
from ..types import FLOAT, FrameResult, Image, SharpnessParams
from . import cost

if TYPE_CHECKING:
    from ..core.bufferpool import BufferPool


class CPUPipeline:
    """The paper's well-optimized CPU implementation of sharpness.

    Parameters
    ----------
    params:
        Sharpening tuning parameters.
    cpu:
        CPU spec used for the simulated timing (defaults to Table I's
        i5-3470).
    obs:
        Optional :class:`~repro.obs.RunContext`.  When given, the run and
        each executor phase run inside host spans, the cost model's
        per-stage simulated times land in the ``repro_stage_seconds``
        histogram under ``pipeline=<label>``, and the cost-model timeline
        is merged into the trace.
    label:
        Pipeline label used in metrics and logs (defaults to ``"cpu"``).
    buffer_pool:
        The :class:`~repro.core.bufferpool.BufferPool` each frame leases
        its executor workspace from (the GPU pipeline's, when
        :class:`~repro.resilience.FallbackPipeline` builds the understudy);
        by default the pipeline owns one, as a caching
        :class:`~repro.core.GPUPipeline` does.  A warm frame allocates no
        plane: like a replayed GPU frame, it is written into the output
        plane the caller dropped
        (:meth:`~repro.algo.strips.Workspace.output`).
    """

    def __init__(self, params: SharpnessParams | None = None,
                 cpu: CPUSpec = I5_3470, *,
                 obs: RunContext | None = None,
                 label: str = "cpu",
                 buffer_pool: BufferPool | None = None) -> None:
        self.params = params or SharpnessParams()
        self.cpu = cpu
        self.obs = obs or NULL_CONTEXT
        self.label = label
        if buffer_pool is None:
            # Imported here: repro.core imports repro.cpu.
            from ..core.bufferpool import BufferPool
            buffer_pool = BufferPool()
        self.buffer_pool = buffer_pool

    def run(self, image: Image | np.ndarray, *,
            out_dtype=FLOAT) -> FrameResult:
        """Sharpen one frame; ``out_dtype`` is its ``final``'s (float64,
        or ``uint8`` for a file sink: see :func:`repro.algo.strips.run`).
        """
        if not isinstance(image, Image):
            image = Image.from_array(np.asarray(image))
        src = image.pixels
        h, w = src.shape
        obs = self.obs
        times = cost.stage_times(h, w, self.cpu)

        with obs.trace.span("cpu.run", pipeline=self.label, h=h, w=w), \
                self.buffer_pool.lease(h, w) as ws:
            final, edge_mean = strips.run(src, self.params, ws, (),
                                          obs.trace, out_dtype=out_dtype)

        timeline = Timeline()
        for stage, seconds in times.times.items():
            timeline.record(stage, "host", seconds, stage=stage)
        result = FrameResult(final=final, times=times, timeline=timeline,
                             edge_mean=edge_mean, backend="cpu")
        obs.record_frame(self.label, result, cost.CPU_STAGE_ORDER,
                         self.cpu.name, h=h, w=w)
        return result
