"""The CPU baseline pipeline (the comparator of Fig. 12/13a).

Runs the canonical vectorized stages through the strip executor
(:mod:`repro.algo.strips`, the schedule plan replay runs too) and attaches
the i5-3470 cost model's per-stage simulated times, so experiments can
report both the baseline's output image and its Fig.-13(a)-style time
breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..algo import strips
from ..obs.runctx import NULL_CONTEXT, RunContext
from ..simgpu.device import CPUSpec, I5_3470
from ..types import Image, SharpnessParams, StageTimes
from . import cost


@dataclass
class CPUResult:
    """Output of one CPU pipeline run."""

    final: np.ndarray
    times: StageTimes
    edge_mean: float

    @property
    def total_time(self) -> float:
        return self.times.total

    def final_u8(self) -> np.ndarray:
        return np.clip(np.rint(self.final), 0, 255).astype(np.uint8)


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
        each executor phase run inside host spans and the cost model's
        per-stage simulated times land in the ``repro_stage_seconds``
        histogram under ``pipeline=<label>``.
    label:
        Pipeline label used in metrics and logs (defaults to ``"cpu"``).
    """

    def __init__(self, params: SharpnessParams | None = None,
                 cpu: CPUSpec = I5_3470, *,
                 obs: RunContext | None = None,
                 label: str = "cpu") -> None:
        self.params = params or SharpnessParams()
        self.cpu = cpu
        self.obs = obs or NULL_CONTEXT
        self.label = label

    def run(self, image: Image | np.ndarray) -> CPUResult:
        if not isinstance(image, Image):
            image = Image.from_array(np.asarray(image))
        src = image.plane
        h, w = src.shape
        obs = self.obs
        times = cost.stage_times(h, w, self.cpu)

        with obs.trace.span("cpu.run", pipeline=self.label, h=h, w=w):
            final, edge_mean = strips.run(
                src, self.params, strips.Workspace(h, w), (), obs.trace)

        obs.observe_stages(self.label, times.times,
                           declare=cost.CPU_STAGE_ORDER)
        obs.record_run(self.label, times.total)
        if obs.enabled:
            obs.log.info(
                "pipeline.complete", pipeline=self.label, h=h, w=w,
                simulated_ms=times.total * 1e3,
            )

        return CPUResult(final=final, times=times, edge_mean=edge_mean)
