"""Frame-stream processing: the paper's real-time TV/camera use case.

:class:`StreamProcessor` runs a sharpness pipeline over a sequence of
frames and reports the stream's *simulated* steady-state throughput.  The
frames themselves run through a one-worker
:class:`~repro.core.batch.BatchEngine` (the repo's one frame runner), so a
stream converts frames, assigns ids, applies resilience and emits per-frame
telemetry exactly like a batch does.

On top of that the stream models the natural next optimization the paper's
pipeline enables but does not implement: **copy/compute overlap** (double
buffering).  With ``overlap_transfers=True``,
:func:`~repro.core.dag.overlap_stream` re-schedules every frame's simulated
timeline along its stage DAG on the DMA / compute / host engines, so frame
N's PCI-E transfers hide under frame N-1's kernels; the schedule's makespan
is the stream's total time.  The gain is bounded by the transfer share the
Fig. 13(c) breakdown reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ValidationError
from ..obs.runctx import RunContext
from ..simgpu.device import CPUSpec, DeviceSpec, I5_3470, W8000
from ..simgpu.profiling import Timeline
from ..types import SharpnessParams
from .batch import BatchEngine, FrameStats
from .config import OPTIMIZED, OptimizationFlags
from .dag import overlap_stream


@dataclass
class StreamResult:
    """Aggregate result of a stream run."""

    frames: list[FrameStats] = field(default_factory=list)
    outputs: list[np.ndarray] = field(default_factory=list)
    #: Resource-scheduled timeline across all frames (DMA / compute / host
    #: engines overlap); set when the stream models overlap.
    pipelined_timeline: Timeline | None = None

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    @property
    def total_time(self) -> float:
        if self.pipelined_timeline is not None:
            return self.pipelined_timeline.total
        return sum(f.serial_time for f in self.frames)

    @property
    def n_served(self) -> int:
        """Frames that produced pixels (failed frames keep their slot)."""
        return sum(1 for f in self.frames if f.ok)

    @property
    def mean_frame_time(self) -> float:
        """Simulated time per served frame."""
        if not self.n_served:
            raise ValidationError("stream served no frames")
        return self.total_time / self.n_served

    @property
    def fps(self) -> float:
        return 1.0 / self.mean_frame_time

    def sustains(self, target_fps: float) -> bool:
        """Can this configuration hold ``target_fps`` in steady state?"""
        if target_fps <= 0:
            raise ValidationError(
                f"target_fps must be > 0, got {target_fps}"
            )
        return self.fps >= target_fps

    @property
    def transfer_share(self) -> float:
        """Fraction of serial time spent on PCI-E (the overlap headroom)."""
        total = sum(f.serial_time for f in self.frames)
        if total <= 0:
            return 0.0
        return sum(f.transfer_time for f in self.frames) / total


class StreamProcessor:
    """Run a sharpness pipeline over a frame sequence.

    Parameters
    ----------
    flags / params / device / cpu:
        Forwarded to :class:`~repro.core.pipeline.GPUPipeline`.
    overlap_transfers:
        Model double-buffered copy/compute overlap (see module docstring).
    keep_outputs:
        Retain every sharpened frame on the result (memory-heavy for long
        streams).
    obs:
        Optional :class:`~repro.obs.RunContext`, shared with the frame
        runner, so stream runs show up in logs/metrics/traces like
        single-frame runs do; the stream itself contributes a
        ``stream.run`` span, a ``repro_stream_fps`` gauge and a completion
        log record.
    resilience:
        Optional :class:`~repro.resilience.ResilienceConfig`, with the
        batch engine's semantics: transient faults are retried, a tripped
        breaker routes frames to the CPU pipeline (``FrameStats.backend ==
        "cpu-fallback"``), and with ``isolate=True`` a frame that still
        fails keeps its slot as ``FrameStats(error=...)`` and is left out
        of the overlap schedule.
    """

    def __init__(self, flags: OptimizationFlags = OPTIMIZED,
                 params: SharpnessParams | None = None, *,
                 device: DeviceSpec = W8000, cpu: CPUSpec = I5_3470,
                 overlap_transfers: bool = False,
                 keep_outputs: bool = False,
                 obs: RunContext | None = None,
                 resilience=None) -> None:
        self.engine = BatchEngine(
            flags, params, device=device, cpu=cpu, workers=1,
            keep_outputs=keep_outputs, obs=obs, resilience=resilience,
        )
        self.obs = self.engine.obs
        self.overlap_transfers = overlap_transfers

    def run(self, frames, *, frame_ids=None) -> StreamResult:
        """Process ``frames`` (arrays or :class:`~repro.types.Image`).

        ``frame_ids`` optionally names each frame durably (a sequence
        aligned with ``frames`` or a ``callable(index, frame) -> str``);
        omitted, frames get positional
        :func:`~repro.core.batch.default_frame_id` ids.
        """
        obs = self.obs
        with obs.trace.span("stream.run", overlap=self.overlap_transfers):
            batch = self.engine.run(frames, frame_ids=frame_ids)
            result = StreamResult(frames=batch.frames, outputs=batch.outputs)
            timelines = [f.timeline for f in batch.frames if f.ok]
            if self.overlap_transfers and timelines:
                result.pipelined_timeline = overlap_stream(timelines)
        if obs.enabled:
            fps = result.fps if result.n_served else None
            if fps is not None:
                obs.metrics.gauge(
                    "repro_stream_fps",
                    "Simulated steady-state frames per second of the last "
                    "stream run",
                ).set(fps)
            obs.log.info(
                "stream.complete", frames=result.n_frames,
                served=result.n_served, simulated_fps=fps,
                overlap=self.overlap_transfers,
            )
        return result
