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

Only two planes span the frame: the downscaled plane (1/16 of it) and
pEdge, an ``int16`` plane for an 8-bit frame (its values are at most
:data:`~repro.algo.stages.EDGE_MAX_U8`) and float64 otherwise.  The
upscaled plane, pError, the strength and the preliminary image exist one
strip at a time.  The phases:

1. **downscale**, on the calling thread, per block of ``4 * (strip //
   4)`` input rows into ``down``, with the block's column sums in the
   calling lane's arena (on two cores a lane pass here saved under 1 ms
   at 2048² and nothing at 512², and its extra hand-off to a helper
   thread made instrumented frames slower than plain ones);
2. **pass 1**, a pass of the strip lanes, per strip of the ``h - 2``
   interior rows: Sobel rows into pEdge;
3. the pEdge mean, :func:`~repro.algo.stages.reduce_mean` through the
   caller's level chain (an ``int16`` plane is summed exactly in
   ``int64``) — the pipeline's only global barrier, hence two passes;
4. **pass 2**, a pass of the strip lanes, per strip: the strip's
   upscaled rows from ``down`` and the O(h + w) border ring
   (:func:`~repro.algo.stages.upscale_border_ring`), pError, the strength
   (an 8-bit frame's is gathered from a table over the pEdge values
   0..2040), the preliminary image in place over pError, 3x3 min/max and
   the overshoot blend into the output; then the output's border lines
   from the ring.

Each busy lane's scratch is one arena (:class:`StripScratch`) with typed
views per strip shape and frame dtype (:func:`_layout`); arrays that are
never live together share its bytes, so an 8-bit strip needs
:data:`U8_PX_BYTES` = 24 bytes per pixel of a strip row and a float
strip :data:`FLOAT_PX_BYTES` = 32.  The strip height, the same for both
dtypes, is the 8-bit arena budget :data:`STRIP_BYTES` divided by 24 and
the width (:func:`strip_rows`).

Strips of one frame run on :data:`STRIP_LANES`, a process-wide pool of
lanes that also owns the arenas, as a GPU's compute unit owns the local
memory every workgroup dispatched to it reuses: a :class:`Workspace`
keeps only the whole-frame planes.  Each pass checks one arena out of
the lanes' free list per lane it runs on (the downscale, one for the
calling lane), and returns them once every lane has stopped, so the
process holds at most as many arenas, of about 4 MiB each, as lanes were
ever dealt to passes at one time, whatever the shapes, pools and
pipelines; an arena grows in place when a frame's strips need more
bytes.  Lanes write disjoint rows, so pixels need no locking.  The lane
rule keeps busy lanes at or below ``os.cpu_count()``: a pass asks for
``cpu_count // frames`` lanes, ``frames`` being the frames currently
inside :func:`run` process-wide, and a helper lane stops taking strips
once the busy lanes (one per frame inside :func:`run` plus the running
helpers) reach the CPU count.  A lone frame fans out over every core; a
batch with one frame in flight per core runs each frame on its own
thread.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from ..errors import ConfigError
from ..types import FLOAT, SharpnessParams
from . import stages as algo

#: Byte budget of one strip lane's arena for an 8-bit frame.  Swept from
#: 0.5 to 6 MiB with ``strips.run`` on 8-bit frames, two lanes, 2-vCPU VM
#: (docs/performance.md): per-strip NumPy call overhead and the GIL
#: favour tall strips, memory traffic favours short ones.  3 MiB (256
#: rows at 512 wide, 64 at 2048) was the fastest at 512², where a larger
#: budget leaves the second lane without a strip, and within the
#: run-to-run spread of the fastest at 2048².  A float frame's strips
#: have the same height, so its arena is 4/3 of this: on float frames,
#: 256 rows ran 512² as fast as 128 and faster than the 192 of a 3 MiB
#: float budget, whose three strips leave two lanes unbalanced, and tied
#: 48 rows at 2048².
STRIP_BYTES = 3 << 20

#: Arena bytes per pixel of a strip row (:func:`_layout`): three float64
#: slots for an 8-bit frame, four for a float one.
U8_PX_BYTES, FLOAT_PX_BYTES = 24, 32


def strip_rows(h: int, w: int) -> int:
    """Rows per strip of an ``h x w`` frame of either dtype (the executor
    strips the ``h - 2`` interior rows)."""
    return max(1, min(h - 2, STRIP_BYTES // (U8_PX_BYTES * w)))


def _layout(n: int, w: int, u8: bool) -> dict[str, tuple]:
    """Where each scratch array of an ``n``-row strip of a ``w``-wide
    frame lives in a lane's arena: ``name -> (byte offset, shape, dtype)``.

    The phases run one after another, so each starts at byte 0.  Pass 2
    uses float64 slots ``P``, ``Q``, ``R`` of one ``(n, w - 2)`` strip
    each, reused as arrays die:

    * ``P``: an 8-bit frame's pEdge indices, until the strength is
      gathered; then the upscaled rows ``ui``, until the preliminary image
      is done; then the 3x3 extrema (``uint8``) and their column scratch
      ``ext``;
    * ``Q``: the strength; then the overshoot masks of an 8-bit frame;
    * ``R``: the upscale's ``rows``/``taps``; then pError, overwritten in
      place by the preliminary image.

    A float frame's extrema are float64: ``mn`` goes to ``P``, ``mx`` to
    ``Q``, and ``ext`` and the masks to a fourth slot ``T``, two rows
    taller.
    """
    wd, wi = w // 4, w - 2
    slot = 8 * n * wi
    acc = np.int16 if u8 else FLOAT
    spec: dict[str, tuple] = {}

    def put(name, offset, shape, dtype) -> int:
        spec[name] = (offset, shape, dtype)
        return offset + -(-_nbytes(shape, dtype) // 8) * 8

    put("colsum", 0, (4 * max(1, n // 4), wd), np.uint16 if u8 else FLOAT)
    end = put("tcol", 0, (n, w), acc)
    end = put("urow", end, (n + 2, wi), acc)
    end = put("gx", end, (n, wi), acc)
    put("gy", end, (n, wi), acc)
    p, q, r, t = 0, slot, 2 * slot, 3 * slot
    put("ui", p, (n, wi), FLOAT)
    put("strength", q, (n, wi), FLOAT)
    put("rows", r, (n, wd), FLOAT)
    put("taps", r + 8 * n * wd, (2 * n * wd,), FLOAT)
    put("err", r, (n, wi), FLOAT)
    if u8:
        put("idx", p, (n, wi), np.intp)
        end = put("ext", p, (n + 2, wi), np.uint8)
        end = put("mn", end, (n, wi), np.uint8)
        put("mx", end, (n, wi), np.uint8)
        masks = q
    else:
        put("mn", p, (n, wi), FLOAT)
        put("mx", q, (n, wi), FLOAT)
        put("ext", t, (n + 2, wi), FLOAT)
        masks = t
    end = put("over", masks, (n, wi), bool)
    put("under", end, (n, wi), bool)
    return spec


def _nbytes(shape: tuple[int, ...], dtype) -> int:
    return math.prod(shape) * np.dtype(dtype).itemsize


def _layout_bytes(spec: dict[str, tuple]) -> int:
    return max(off + _nbytes(shape, dt) for off, shape, dt in spec.values())


class StripScratch:
    """One busy strip lane's host scratch: a single arena, viewed as the
    arrays of :func:`_layout` for each strip shape and frame dtype it
    serves."""

    def __init__(self) -> None:
        self.arena = np.empty(0, dtype=FLOAT)
        # Typed views of the arena per (strip rows, width, u8), built on
        # first use: rebuilding them costs about 40 us a pass.
        self._views: dict[tuple[int, int, bool], SimpleNamespace] = {}

    def views(self, n: int, w: int, u8: bool) -> SimpleNamespace:
        """The arena's arrays for a strip of ``n`` rows of a ``w``-wide
        8-bit (``u8``) or float frame, as attributes named as in
        :func:`_layout`; an arena too small for them grows first."""
        key = (n, w, u8)
        v = self._views.get(key)
        if v is None:
            spec = _layout(n, w, u8)
            nbytes = _layout_bytes(spec)
            if nbytes > self.arena.nbytes:
                self.arena = np.empty(-(-nbytes // 8), dtype=FLOAT)
                self._views.clear()
            elif len(self._views) >= 16:  # a few shapes of both dtypes
                del self._views[next(iter(self._views))]
            raw = self.arena.view(np.uint8)
            v = SimpleNamespace(**{
                name: raw[off:off + _nbytes(shape, dt)].view(dt).reshape(shape)
                for name, (off, shape, dt) in spec.items()})
            self._views[key] = v
        return v


class Workspace:
    """Preallocated per-shape planes for one in-flight frame: the
    downscaled plane and the pEdge plane of each frame dtype.  The strip
    scratch belongs to the lanes (:class:`StripLanes`)."""

    def __init__(self, h: int, w: int) -> None:
        if h % 4 or w % 4 or h < 16 or w < 16:
            raise ConfigError(
                f"workspace sides must be multiples of 4 and >= 16, "
                f"got {h}x{w}"
            )
        self.h, self.w = h, w
        self.down = np.empty((h // 4, w // 4), dtype=FLOAT)
        #: The bytes of the 8-bit frames' ``int16`` pEdge plane
        #: (:attr:`edge`).
        self.edge_store = np.zeros(-(-h * w // 4), dtype=FLOAT)
        #: The float frames' pEdge plane, made by the first float frame.
        self.edge_float: np.ndarray | None = None
        #: Rows per strip.
        self.strip = strip_rows(h, w)

    def edge_plane(self, u8: bool) -> np.ndarray:
        """The pEdge plane of an 8-bit (``u8``: ``int16``) or a float
        frame (float64).  The two share no bytes, so frames of one dtype
        never write the other's border ring."""
        if u8:
            return self.edge
        if self.edge_float is None:
            self.edge_float = np.zeros((self.h, self.w), dtype=FLOAT)
        return self.edge_float

    @property
    def edge(self) -> np.ndarray:
        """The 8-bit frames' ``int16`` pEdge plane."""
        h, w = self.h, self.w
        return self.edge_store.view(np.int16)[:h * w].reshape(h, w)

    @property
    def nbytes(self) -> int:
        """Total footprint of the planes."""
        return (self.down.nbytes + self.edge_store.nbytes
                + (0 if self.edge_float is None else self.edge_float.nbytes))

    def reset(self) -> None:
        """Make the workspace frame-clean.

        The executor overwrites every cell it reads except the pEdge
        planes' border rings (Sobel leaves the border zero by
        construction), so only those rings need restoring; everything
        else is recycled dirty.
        """
        for edge in (self.edge, self.edge_float):
            if edge is not None:
                edge[0] = 0
                edge[-1] = 0
                edge[:, 0] = 0
                edge[:, -1] = 0


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
    two strips when other frames enter the executor.  Each lane of a pass
    runs on an arena checked out of the lanes' free list
    (:meth:`scratch`).
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
        #: Arenas no lane holds, the latest returned last.
        self._free: list[StripScratch] = []
        #: Arenas made so far: the most lanes ever dealt at one time.
        self.arenas = 0

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

    @contextlib.contextmanager
    def scratch(self, n: int):
        """Check ``n`` arenas out of the free list, making any it lacks,
        and put them back when the block ends."""
        with self._lock:
            k = max(0, len(self._free) - n)
            held, self._free = self._free[k:], self._free[:k]
            self.arenas += n - len(held)
        held += [StripScratch() for _ in range(n - len(held))]
        try:
            yield held
        finally:
            with self._lock:
                self._free += held

    def run(self, n: int, fn: Callable[[int, StripScratch], None]) -> None:
        """Call ``fn(strip, scratch)`` for every strip in ``range(n)`` and
        return once all have finished; the first error a lane raised is
        re-raised here, after every lane has stopped touching its
        arena."""
        with self._lock:
            lanes = max(1, min(n, self.cpus // max(self.frames, 1)))
        job = _Strips(n, fn, self._lock)
        with self.scratch(lanes) as scratch:
            try:
                if lanes > 1:
                    pool = self._executor()
                    for lane in scratch[1:]:
                        pool.submit(self._work, job, lane, True)
                self._work(job, scratch[0], False)
            finally:
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


class _Tail(NamedTuple):
    """What every pass-2 strip of one frame reads besides its rows."""

    edge: np.ndarray
    edge_mean: float
    #: :func:`~repro.algo.stages.strength_table` of an 8-bit frame, else
    #: ``None``.
    lut: np.ndarray | None
    ring: tuple[np.ndarray, np.ndarray]
    params: SharpnessParams
    final: np.ndarray


def _sobel_strip(plane: np.ndarray, edge: np.ndarray, r0: int, r1: int,
                 v: SimpleNamespace) -> None:
    """Pass 1 on interior rows ``[r0, r1)``: Sobel rows of pEdge."""
    algo.sobel_rows(plane, edge, r0, r1, tcol=v.tcol, urow=v.urow,
                    gx=v.gx, gy=v.gy)


def _sharpen_strip(plane: np.ndarray, ws: Workspace, r0: int, r1: int,
                   v: SimpleNamespace, tail: _Tail) -> None:
    """Pass 2 on interior rows ``[r0, r1)``: the fused sharpness tail and
    overshoot control into ``final[r0:r1, 1:w-1]`` (interior columns: the
    border is :func:`~repro.algo.stages.clip_border`'s).  The steps run in
    the order that :func:`_layout`'s slot reuse relies on."""
    w = ws.w
    n = r1 - r0
    edge = tail.edge[r0:r1, 1:w - 1]
    if tail.lut is None:
        strength = algo.strength_map(edge, tail.edge_mean, tail.params,
                                     out=v.strength[:n])
    else:
        strength = algo.strength_lookup(tail.lut, edge, out=v.strength[:n],
                                        idx=v.idx[:n])
    ui = algo.upscale_interior_rows(ws.down, tail.ring, r0, r1, v.ui[:n],
                                    rows=v.rows, taps=v.taps)
    err = algo.perror(plane[r0:r1, 1:w - 1], ui, out=v.err[:n])
    prelim = algo.preliminary_sharpen(ui, err, strength, out=err)
    mn, mx = algo.minmax3x3(plane, r0, r1, mn=v.mn, mx=v.mx, mnc=v.ext,
                            mxc=v.ext)
    algo.overshoot_rows(prelim, mn, mx, tail.params.overshoot, tail.final,
                        r0, over=v.over, under=v.under)


#: The executor's phases, in order; each is a span of a traced frame.
PHASES = ("strips.downscale", "strips.pass1", "strips.reduce",
          "strips.pass2")


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
    flat host sum).  Each phase of :data:`PHASES` is recorded as a span
    of ``trace`` when the frame ends (a phase that raised, marked
    ``error``).  Steady state allocates the returned output plane,
    which the caller owns, the O(h + w) border ring and strength table,
    and per strip only the overshoot blend's index temporaries (a few
    bytes per overshooting pixel) and NumPy's casting buffers, all freed
    before the strip ends.
    """
    h, w = plane.shape
    u8 = plane.dtype == np.uint8
    # Strip j covers interior rows [1 + j*S, 1 + (j+1)*S) ∩ [1, h-1).
    step = ws.strip
    n_strips = -(-(h - 2) // step)
    edge = ws.edge_plane(u8)

    def bounds(j: int) -> tuple[int, int]:
        return 1 + j * step, min(1 + (j + 1) * step, h - 1)

    # The phase spans are recorded once the frame is done, from times
    # marked between the phases.  Opened and closed between the phases,
    # they made instrumented 512² float frames 4.4% slower than plain
    # ones (median of 12 fresh-process runs of
    # benchmarks/bench_obs_overhead.py, 2-vCPU VM); recorded here, -0.2%.
    now = trace.now
    marks = [now()]
    try:
        lanes = STRIP_LANES
        with lanes.frame():
            with lanes.scratch(1) as (arena,):
                colsum = arena.views(step, w, u8).colsum
                block = colsum.shape[0] // 4
                for k in range(0, h // 4, block):
                    algo.downscale(plane[4 * k:4 * (k + block)],
                                   out=ws.down[k:k + block], colsum=colsum)
            marks.append(now())
            lanes.run(n_strips, lambda j, s: _sobel_strip(
                plane, edge, *bounds(j), s.views(step, w, u8)))
            marks.append(now())
            # Nothing writes the pEdge border ring, and Workspace.reset()
            # restores it, so it is zero.
            edge_mean = algo.reduce_mean(edge, levels)
            marks.append(now())
            ring = algo.upscale_border_ring(ws.down)
            final = np.empty((h, w), dtype=FLOAT)
            lut = algo.strength_table(edge_mean, params) if u8 else None
            tail = _Tail(edge, edge_mean, lut, ring, params, final)
            lanes.run(n_strips, lambda j, s: _sharpen_strip(
                plane, ws, *bounds(j), s.views(step, w, u8), tail))
            # On the one-pixel border the edge map is zero, so the
            # preliminary image equals the upscaled plane there.
            top_bottom, sides = ring
            algo.clip_border(top_bottom[0], top_bottom[3], sides[:, 0],
                             sides[:, 3], final)
            marks.append(now())
    finally:
        failed = len(marks) <= len(PHASES)
        if failed:
            marks.append(now())
        for name, start, end in zip(PHASES, marks, marks[1:]):
            span = trace.add_span(name, start, end)
        if failed:
            span.set(error=True)
    return final, edge_mean
