"""The strip schedule: the one executor of every full-frame host path.

:mod:`repro.algo.stages` defines what each stage computes; this module
only decides in which order, and in which pieces, the stages run over a
frame.  The plan executor (:meth:`~repro.core.plan.ExecutionPlan.execute`)
and the CPU pipeline (:class:`~repro.cpu.CPUPipeline`) both produce their
pixels through :func:`run`; they differ only in the pEdge reduction level
chain they hand in (the device kernel's, or none).  Every output element
is computed by the same stage expression whatever the strip, so the
result is bit-identical to :func:`~repro.algo.stages.sharpen` given the
same chain.

Only the downscale (whose output is 1/16 of the frame) and the pEdge
reduction run over the whole frame; the rest runs on row strips of the
``h - 2`` interior rows, sized by :data:`STRIP_BYTES` so one strip's
scratch stays in cache:

1. downscale the whole frame;
2. **pass 1**, per strip: upscale-body rows into ``up``, then Sobel rows
   into ``pEdge``; then the upscale border lines (O(h + w));
3. the pEdge mean, :func:`~repro.algo.stages.reduce_mean` through the
   caller's level chain — the pipeline's only global barrier, hence two
   passes;
4. **pass 2**, per strip: pError, strength, preliminary, 3x3 min/max and
   the overshoot blend into the output; then the output's border lines
   from ``up``.

Strips of one frame run on :data:`STRIP_LANES`, a process-wide pool of
lanes: each lane owns one :class:`StripScratch` of the workspace and
writes disjoint rows, so pixels need no locking.  The lane rule keeps
busy lanes at or below ``os.cpu_count()``: a pass asks for
``cpu_count // frames`` lanes, ``frames`` being the frames currently
inside :func:`run` process-wide, and a helper lane stops taking strips
once the busy lanes (one per frame inside :func:`run` plus the running
helpers) reach the CPU count.  A lone frame fans out over every core; a
batch with one frame in flight per core runs each frame on its own
thread.
"""

from __future__ import annotations

import contextlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from ..errors import ConfigError
from ..types import FLOAT, SharpnessParams
from . import stages as algo

#: Byte budget of one strip-scratch array.  A strip holds
#: ``STRIP_BYTES // (8 * w)`` rows, so the scratch of one lane stays the
#: same size at every frame width (32 rows at 2048 wide, the fastest
#: height there).
STRIP_BYTES = 512 << 10


def strip_rows(h: int, w: int) -> int:
    """Rows per strip for an ``h x w`` frame (the executor strips the
    ``h - 2`` interior rows)."""
    return max(1, min(h - 2, STRIP_BYTES // (8 * w)))


class StripScratch:
    """One strip lane's host scratch: ``rows`` interior rows of a
    ``w``-wide frame, plus the one-row halo above and below where a
    separable 3x3 stage needs it.

    Pass 1 (upscale body + Sobel) writes ``rows``/``taps``/``tcol``/
    ``urow``/``gx``/``gy``; pass 2 (sharpness tail + overshoot) writes the
    rest.  The tail arrays cover the interior columns only: on the
    one-pixel border the edge map is zero, so the strength is zero and the
    preliminary image equals the upscaled plane — the executor takes the
    final border straight from ``up``.
    """

    def __init__(self, rows: int, w: int) -> None:
        wd, wi = w // 4, w - 2
        self.rows = np.empty((rows, wd), dtype=FLOAT)
        self.taps = np.empty((2, rows, wd - 1), dtype=FLOAT)
        self.tcol = np.empty((rows, w), dtype=FLOAT)
        self.urow = np.empty((rows + 2, wi), dtype=FLOAT)
        self.gx = np.empty((rows, wi), dtype=FLOAT)
        self.gy = np.empty((rows, wi), dtype=FLOAT)
        self.err = np.empty((rows, wi), dtype=FLOAT)
        self.strength = np.empty((rows, wi), dtype=FLOAT)
        self.prelim = np.empty((rows, wi), dtype=FLOAT)
        self.mnc = np.empty((rows + 2, wi), dtype=FLOAT)
        self.mxc = np.empty((rows + 2, wi), dtype=FLOAT)
        self.mn = np.empty((rows, wi), dtype=FLOAT)
        self.mx = np.empty((rows, wi), dtype=FLOAT)
        self.over = np.empty((rows, wi), dtype=bool)
        self.under = np.empty((rows, wi), dtype=bool)


class Workspace:
    """Preallocated per-shape scratch for one in-flight frame: the
    downscaled, upscaled and pEdge planes, the downscale's column sums,
    and one :class:`StripScratch` per strip lane."""

    def __init__(self, h: int, w: int) -> None:
        if h % 4 or w % 4 or h < 16 or w < 16:
            raise ConfigError(
                f"workspace sides must be multiples of 4 and >= 16, "
                f"got {h}x{w}"
            )
        self.h, self.w = h, w
        wd = w // 4
        self.down = np.empty((h // 4, wd), dtype=FLOAT)
        self.up = np.empty((h, w), dtype=FLOAT)
        self.edge = np.zeros((h, w), dtype=FLOAT)
        self.colsum = np.empty((h, wd), dtype=FLOAT)
        self.strip = strip_rows(h, w)
        self.lanes = [StripScratch(self.strip, w)]

    def lane_scratch(self, n: int) -> list[StripScratch]:
        """The scratch of the first ``n`` strip lanes, built on first use."""
        while len(self.lanes) < n:
            self.lanes.append(StripScratch(self.strip, self.w))
        return self.lanes[:n]

    def arrays(self) -> list[np.ndarray]:
        """Every array the workspace owns, strip scratch included."""
        owners = [self, *self.lanes]
        return [a for o in owners for a in vars(o).values()
                if isinstance(a, np.ndarray)]

    @property
    def nbytes(self) -> int:
        """Total scratch footprint."""
        return sum(a.nbytes for a in self.arrays())

    def reset(self) -> None:
        """Make the workspace frame-clean.

        The executor overwrites every cell it reads except the pEdge border
        ring (Sobel leaves the border zero by construction), so only that
        ring needs restoring; everything else is recycled dirty.
        """
        h, w = self.h, self.w
        self.edge[0] = 0.0
        self.edge[h - 1] = 0.0
        self.edge[:, 0] = 0.0
        self.edge[:, w - 1] = 0.0


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
    """Process-wide strip lanes (see the module docstring for the lane
    rule).

    The calling thread of :meth:`run` is always lane 0; extra lanes are
    helper threads of a pool created on first use.  Strips are taken one at
    a time, so lanes balance themselves and a helper can step back between
    two strips when other frames enter the executor.
    """

    def __init__(self, cpus: int) -> None:
        self.cpus = cpus
        self._lock = threading.Lock()
        #: Frames inside the executor; each is a busy lane on its own
        #: thread.
        self.frames = 0
        #: Helper lanes currently running a strip.
        self.helpers = 0
        self._pool: ThreadPoolExecutor | None = None

    def busy(self) -> int:
        """Busy strip lanes: frames inside the executor plus running
        helpers."""
        with self._lock:
            return self.frames + self.helpers

    @contextlib.contextmanager
    def frame(self):
        """Count the caller as a frame inside the executor."""
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


#: The lanes every frame's strips share.
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


def run(plane: np.ndarray, params: SharpnessParams, ws: Workspace,
        levels: tuple[tuple[int, int], ...],
        trace) -> tuple[np.ndarray, float]:
    """Sharpen ``plane`` through the scratch of ``ws`` (a frame-clean
    :class:`Workspace` of the same shape); return ``(final, edge_mean)``.

    ``plane`` is read as given: a ``uint8`` frame runs the stages that
    read only the original in exact integers (see
    :mod:`repro.algo.stages`), with the same bits as its float64 copy.

    ``levels`` is the reduction level chain the pEdge mean is folded
    through (see :func:`~repro.algo.stages.reduce_mean`; ``()`` for a
    flat host sum).  Each phase runs in a span of ``trace``
    (``strips.downscale``, ``strips.pass1``, ``strips.reduce``,
    ``strips.pass2``).  Steady state allocates the returned output plane,
    which the caller owns, and per strip only the overshoot blend's index
    temporaries (a few bytes per overshooting pixel) and NumPy's casting
    buffers, all freed before the strip ends: less than
    :data:`STRIP_BYTES` beyond the output in all.
    """
    h, w = plane.shape
    # Strip j covers interior rows [1 + j*S, 1 + (j+1)*S) ∩ [1, h-1).
    step = ws.strip
    n_strips = -(-(h - 2) // step)

    def bounds(j: int) -> tuple[int, int]:
        return 1 + j * step, min(1 + (j + 1) * step, h - 1)

    with STRIP_LANES.frame():
        with trace.span("strips.downscale"):
            algo.downscale(plane, out=ws.down, colsum=ws.colsum)
        with trace.span("strips.pass1"):
            STRIP_LANES.run(ws, n_strips, lambda j, s: _upscale_sobel_strip(
                plane, ws, *bounds(j), s))
            algo.upscale_border_apply(ws.up, ws.down)
        with trace.span("strips.reduce"):
            # The pEdge border ring is kept zero by Workspace.reset().
            edge_mean = algo.reduce_mean(ws.edge, levels)
        with trace.span("strips.pass2"):
            final = np.empty((h, w), dtype=FLOAT)
            STRIP_LANES.run(ws, n_strips, lambda j, s: _sharpen_strip(
                plane, ws, *bounds(j), s, edge_mean, params, final))
            # On the one-pixel border the edge map is zero, so the
            # preliminary image equals ``up`` there.
            algo.clip_border(ws.up, final)
    return final, edge_mean
