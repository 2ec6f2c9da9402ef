"""Intra-frame dependency analysis: what a single run could overlap.

The paper's host code is one in-order queue: every command waits for the
previous one.  But the algorithm's true dependency graph is looser — Sobel
only needs the uploaded original, so it can run while the upscale branch's
border round-trip is in flight; the final readback is the only consumer of
the sharpness kernel.  This module reconstructs that stage DAG from a
recorded in-order timeline and re-schedules it on the DMA/compute/host
engines (:mod:`repro.simgpu.schedule`), quantifying how much of the
remaining time is serialization the paper's queue structure imposes rather
than inherent work.

Stage dependencies (events within one stage stay chained in recorded
order):

* ``upload`` (the data_init writes) waits only for host ``padding``;
* ``downscale`` and ``sobel`` wait for the upload;
* ``border`` waits for downscale; ``center`` for downscale *and* border
  (the CPU border path rewrites the whole upscaled buffer);
* ``reduction`` waits for sobel;
* the sharpness tail (fused ``sharpness``, or ``perror``/``prelim``/
  ``overshoot``) waits for its actual inputs;
* ``readback`` waits for the tail.
"""

from __future__ import annotations

from ..errors import ValidationError
from ..simgpu.profiling import Event, Timeline
from ..simgpu.schedule import KIND_TO_RESOURCE, ResourceScheduler

#: Virtual stages: the pipeline labels both directions of host<->device
#: traffic "data_init"; the DAG needs them apart.
UPLOAD = "upload"
READBACK = "readback"

#: Prerequisite stages of each stage's first event.
STAGE_DEPS: dict[str, tuple[str, ...]] = {
    "padding": (),
    UPLOAD: ("padding",),
    "downscale": (UPLOAD,),
    "sobel": (UPLOAD,),
    "border": ("downscale",),
    "center": ("downscale", "border"),
    "reduction": ("sobel",),
    "sharpness": ("center", "border", "reduction", UPLOAD),
    "perror": ("center", "border", UPLOAD),
    "prelim": ("perror", "reduction"),
    "overshoot": ("prelim", UPLOAD),
    READBACK: ("sharpness", "overshoot"),
}


def _classify(event: Event) -> str:
    if event.stage == "data_init":
        if event.name.startswith(("read:", "map-read:")):
            return READBACK
        return UPLOAD
    return event.stage


def _add_run(sched: ResourceScheduler, timeline: Timeline,
             prefix: str = "") -> None:
    """Register one run's events on ``sched`` with stage-DAG dependencies.

    A host-only timeline (a ``cpu-fallback`` frame) has no device stages
    to overlap: it is scheduled as a serial chain on the host, in
    recorded order.
    """
    if not timeline.events:
        raise ValidationError("empty timeline")
    if all(event.kind == "host" for event in timeline.events):
        deps: tuple[int, ...] = ()
        for event in timeline.events:
            deps = (sched.add(prefix + event.name, event.kind,
                              event.duration, "host", deps,
                              stage=event.stage),)
        return
    last_op_of_stage: dict[str, int] = {}
    for event in timeline.events:
        stage = _classify(event)
        if stage in last_op_of_stage:
            deps = (last_op_of_stage[stage],)
        else:
            prereqs = STAGE_DEPS.get(stage)
            if prereqs is None:
                raise ValidationError(
                    f"unknown pipeline stage {stage!r} in timeline"
                )
            deps = tuple(
                last_op_of_stage[p] for p in prereqs
                if p in last_op_of_stage
            )
        resource = KIND_TO_RESOURCE.get(event.kind, "compute")
        last_op_of_stage[stage] = sched.add(
            prefix + event.name, event.kind, event.duration, resource,
            deps, stage=event.stage,
        )


def overlap_single_run(timeline: Timeline) -> Timeline:
    """Re-schedule one pipeline timeline along its true stage DAG.

    Returns the overlapped timeline; its makespan is the run's critical
    path over the three engines.
    """
    sched = ResourceScheduler()
    _add_run(sched, timeline)
    return sched.schedule()


def overlap_stream(timelines: list[Timeline]) -> Timeline:
    """Re-schedule a frame stream with per-frame stage DAGs.

    Frames exploit both intra-frame slack (independent stages overlap) and
    cross-frame engine pipelining (frame N's transfers run under frame
    N-1's kernels).
    """
    if not timelines:
        raise ValidationError("no timelines to schedule")
    sched = ResourceScheduler()
    for f, tl in enumerate(timelines):
        _add_run(sched, tl, prefix=f"f{f}:")
    return sched.schedule()


def serialization_overhead(timeline: Timeline) -> float:
    """Fraction of the in-order run that is queue serialization.

    ``0`` means the in-order queue is already optimal for this run;
    ``0.3`` means 30% of the time could be hidden by expressing the true
    dependencies across multiple queues.
    """
    overlapped = overlap_single_run(timeline)
    if timeline.total <= 0:
        return 0.0
    return 1.0 - overlapped.total / timeline.total
