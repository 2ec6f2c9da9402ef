"""The paper's contribution: the optimized GPU sharpness pipeline.

:class:`~repro.core.config.OptimizationFlags` exposes each of the five
optimization techniques as an independent toggle; the named presets form the
step-wise ladder of Fig. 14.  :class:`~repro.core.pipeline.GPUPipeline` runs
the pipeline on the simulated device under any flag combination, producing
the final image, a simulated event timeline, and a Fig.-13-style stage
breakdown.
"""

from .batch import BatchEngine, BatchResult, FrameFailure, FrameStats
from .bufferpool import BufferPool, Workspace
from .dag import overlap_single_run, overlap_stream, serialization_overhead
from .config import (
    BASE,
    LADDER,
    OPTIMIZED,
    STEP_REDUCTION,
    STEP_TRANSFER_FUSION,
    STEP_VECTOR_BORDER,
    OptimizationFlags,
)
from .heuristics import (
    BORDER_GPU_MIN_SIDE,
    REDUCTION_STAGE2_GPU_MIN_PARTIALS,
    border_on_gpu,
    reduction_stage2_on_gpu,
)
from .metrics import GPU_STAGE_ORDER, stage_times_from_timeline
from .pipeline import GPUPipeline
from .plan import ExecutionPlan, PlanCache, PlanKey
from .portability import check_flags, device_tuning_summary, retune
from .stream import StreamProcessor, StreamResult

__all__ = [
    "BatchEngine",
    "BatchResult",
    "FrameFailure",
    "BufferPool",
    "Workspace",
    "ExecutionPlan",
    "PlanCache",
    "PlanKey",
    "BASE",
    "LADDER",
    "OPTIMIZED",
    "STEP_REDUCTION",
    "STEP_TRANSFER_FUSION",
    "STEP_VECTOR_BORDER",
    "OptimizationFlags",
    "BORDER_GPU_MIN_SIDE",
    "REDUCTION_STAGE2_GPU_MIN_PARTIALS",
    "border_on_gpu",
    "reduction_stage2_on_gpu",
    "GPU_STAGE_ORDER",
    "stage_times_from_timeline",
    "GPUPipeline",
    "overlap_single_run",
    "overlap_stream",
    "serialization_overhead",
    "check_flags",
    "device_tuning_summary",
    "retune",
    "FrameStats",
    "StreamProcessor",
    "StreamResult",
]
