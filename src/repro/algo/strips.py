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

Only three planes span the frame: the downscaled plane (1/16 of it),
pEdge, an ``int16`` plane for an 8-bit frame (its values are at most
:data:`~repro.algo.stages.EDGE_MAX_U8`) and float64 otherwise, and the
output.  The upscaled plane, pError, the strength and the preliminary
image exist one strip at a time.  The phases:

1. **pass 1**, a pass of the strip lanes, per strip of the ``h - 2``
   interior rows: the 4-row blocks of ``down`` the strip owns, then its
   Sobel rows into pEdge, and for an 8-bit frame the exact sum of those
   rows (:func:`~repro.algo.stages.reduce_sum` in ``int64``), so pass 1
   is the only pass that reads the original before the barrier (the
   paper's "first add during load");
2. the pEdge mean — the pipeline's only global barrier, hence two
   passes: an 8-bit frame's is the sum of its strips' sums over ``h *
   w``, exact, so any reduction order gives its bits; a float frame's
   is :func:`~repro.algo.stages.reduce_mean` through the caller's level
   chain, in the device's summation order;
3. **pass 2**, a pass of the strip lanes, per strip: the strip's
   upscaled rows from ``down`` and the O(h + w) border ring
   (:func:`~repro.algo.stages.upscale_border_ring`), pError, the strength
   (an 8-bit frame's is gathered from a table over the pEdge values
   0..2040), the preliminary image in place over pError, 3x3 min/max and
   the overshoot blend into the output, rounded there when the output is
   ``uint8`` (a file sink's); then the output's border lines from the
   ring.

Every strip array is pitch-linear: ``n`` full-width rows of pitch ``w``,
so each stage runs one 1-D call per elementwise step over ``n * w``
elements, and a stencil neighbour is a fixed flat offset (see
:mod:`repro.algo.stages`).  What the wrapped neighbours leave in the
border columns stays in the strip's own rows and is overwritten: pass 1
zeroes pEdge's columns 0 and ``w - 1`` again, the upscaled rows take
their columns 0, 1, ``w - 2`` and ``w - 1`` from the ring, and the
output's border lines are written by
:func:`~repro.algo.stages.clip_border` after pass 2.

The output plane is the workspace's (:meth:`Workspace.output`): a warm
frame whose previous output the caller has dropped writes into that
plane again, so it touches no fresh page.

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
the lanes' free list per lane it runs on, and returns them once every
lane has stopped, so the process holds at most as many arenas, of about
4 MiB each, as lanes were ever dealt to passes at one time, whatever the
shapes, pools and pipelines; an arena grows in place when a frame's
strips need more bytes.  Lanes write disjoint rows, so pixels need no
locking.  The lane rule keeps busy lanes at or below ``os.cpu_count()``:
a pass asks for ``cpu_count // frames`` lanes, ``frames`` being the
frames currently inside :func:`run` process-wide, and a helper lane
stops taking strips once the busy lanes (one per frame inside
:func:`run` plus the running helpers) reach the CPU count.  A lone frame
fans out over every core; a batch with one frame in flight per core runs
each frame on its own thread.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from ..errors import ConfigError
from ..types import FLOAT, SharpnessParams, check_out_dtype
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

    Every array is pitch-linear: ``n`` (or ``n + 2``, with the halo rows)
    full-width rows of pitch ``w``, so its flat view is one contiguous
    run (see :mod:`repro.algo.stages`).  The passes run one after
    another, so each starts at byte 0.  In pass 1, the downscale's column
    sums ``colsum`` share byte 0 with the Sobel's ``tcol``: a strip's
    downscale is done before its Sobel writes ``tcol``.  ``colsum`` holds
    ``ceil(n / 4)`` 4-row blocks, the most an ``n``-row strip owns (see
    :func:`run`).  Pass 2 uses float64 slots ``P``, ``Q``, ``R`` of one
    ``(n, w)`` strip each, reused as arrays die:

    * ``P``: an 8-bit frame's pEdge indices, until the strength is
      gathered; then the upscaled rows ``ui``, until the preliminary image
      is done; then the 3x3 extrema (``uint8``) and their halo scratch
      ``ext``;
    * ``Q``: the strength; then the overshoot masks of an 8-bit frame;
    * ``R``: the upscale's ``rows``/``taps``; then pError, overwritten in
      place by the preliminary image.

    A float frame's extrema are float64: ``mn`` goes to ``P``, ``mx`` to
    ``Q``, and ``ext`` and the masks to a fourth slot ``T``, two rows
    taller.
    """
    wd = w // 4
    slot = 8 * n * w
    acc = np.int16 if u8 else FLOAT
    spec: dict[str, tuple] = {}

    def put(name, offset, shape, dtype) -> int:
        spec[name] = (offset, shape, dtype)
        return offset + -(-_nbytes(shape, dtype) // 8) * 8

    put("colsum", 0, (4 * -(-n // 4), wd), np.uint16 if u8 else FLOAT)
    end = put("tcol", 0, (n, w), acc)
    end = put("urow", end, (n + 2, w), acc)
    end = put("gx", end, (n, w), acc)
    put("gy", end, (n, w), acc)
    p, q, r, t = 0, slot, 2 * slot, 3 * slot
    put("ui", p, (n, w), FLOAT)
    put("strength", q, (n, w), FLOAT)
    put("rows", r, (n, wd), FLOAT)
    put("taps", r + 8 * n * wd, (2 * n * wd,), FLOAT)
    put("err", r, (n, w), FLOAT)
    if u8:
        put("idx", p, (n, w), np.intp)
        end = put("ext", p, (n + 2, w), np.uint8)
        end = put("mn", end, (n, w), np.uint8)
        put("mx", end, (n, w), np.uint8)
        masks = q
    else:
        put("mn", p, (n, w), FLOAT)
        put("mx", q, (n, w), FLOAT)
        put("ext", t, (n + 2, w), FLOAT)
        masks = t
    end = put("over", masks, (n, w), bool)
    put("under", end, (n, w), bool)
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


def _refs(planes: list[np.ndarray], i: int) -> int:
    """What :func:`sys.getrefcount` reports for ``planes[i]``."""
    return sys.getrefcount(planes[i])


#: :func:`_refs` of a plane that only its list references.  Measured,
#: not assumed: interpreters differ in the references they count for
#: the same code (Python 3.14 borrows loads that 3.11 counts).
_ONLY_LISTED = _refs([np.empty(0)], 0)


class Workspace:
    """Preallocated per-shape planes for one in-flight frame: the
    downscaled plane, the pEdge plane of each frame dtype and the output
    plane last handed out of each output dtype (:meth:`output`).  The
    strip scratch belongs to the lanes (:class:`StripLanes`)."""

    def __init__(self, h: int, w: int) -> None:
        if h % 4 or w % 4 or h < 16 or w < 16:
            raise ConfigError(
                f"workspace sides must be multiples of 4 and >= 16, "
                f"got {h}x{w}"
            )
        self.h, self.w = h, w
        self.down = np.empty((h // 4, w // 4), dtype=FLOAT)
        #: The 8-bit frames' ``int16`` pEdge plane.
        self.edge = np.zeros((h, w), dtype=np.int16)
        #: The float frames' pEdge plane, made by the first float frame.
        self.edge_float: np.ndarray | None = None
        #: The output plane last handed out, one per output dtype.
        self.outputs: list[np.ndarray] = []
        #: Rows per strip.
        self.strip = strip_rows(h, w)

    def output(self, dtype) -> np.ndarray:
        """An ``(h, w)`` output plane of ``dtype``, with undefined pixels:
        the one of that dtype last handed out when nothing but this
        workspace references it, else a new one, kept in its place.

        Every view, ``memoryview``, container entry or result a caller
        holds references the plane itself (NumPy collapses view bases to
        the owner), so a plane still in use is never handed out twice.
        """
        kept = self.outputs
        for i in range(len(kept)):
            if kept[i].dtype == dtype:
                if _refs(kept, i) != _ONLY_LISTED:
                    kept[i] = np.empty((self.h, self.w), dtype=dtype)
                return kept[i]
        kept.append(np.empty((self.h, self.w), dtype=dtype))
        return kept[-1]

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
    def nbytes(self) -> int:
        """Total footprint of the planes, the kept outputs included."""
        return (self.down.nbytes + self.edge.nbytes
                + (0 if self.edge_float is None else self.edge_float.nbytes)
                + sum(plane.nbytes for plane in self.outputs))

    def reset(self) -> None:
        """Make the workspace frame-clean.

        The executor overwrites every cell it reads except the pEdge
        planes' border rings (Sobel never writes rows 0 and h-1, and
        zeroes columns 0 and w-1 of its rows again after its flat
        store), so only those rings need restoring; everything else, the
        kept outputs included, is recycled dirty.
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


def _first_strip(plane: np.ndarray, down: np.ndarray, edge: np.ndarray,
                 r0: int, r1: int, b0: int, b1: int,
                 v: SimpleNamespace) -> float | None:
    """Pass 1 on interior rows ``[r0, r1)``: the 4-row blocks ``[b0, b1)``
    of the downscaled plane, then the Sobel rows of pEdge.  Returns the
    exact sum of an ``int16`` pEdge's rows, else ``None``."""
    if b1 > b0:
        algo.downscale(plane[4 * b0:4 * b1], out=down[b0:b1],
                       colsum=v.colsum)
    algo.sobel_rows(plane, edge, r0, r1, tcol=v.tcol, urow=v.urow,
                    gx=v.gx, gy=v.gy)
    if edge.dtype == np.int16:
        return algo.reduce_sum(edge[r0:r1])
    return None


def _sharpen_strip(plane: np.ndarray, ws: Workspace, r0: int, r1: int,
                   v: SimpleNamespace, tail: _Tail) -> None:
    """Pass 2 on interior rows ``[r0, r1)``: the fused sharpness tail and
    overshoot control into the whole rows ``final[r0:r1]``, each step on
    the strip's full-width rows; what lands in the border columns is
    :func:`~repro.algo.stages.clip_border`'s to overwrite.  The steps run
    in the order that :func:`_layout`'s slot reuse relies on."""
    n = r1 - r0
    edge = tail.edge[r0:r1]
    if tail.lut is None:
        strength = algo.strength_map(edge, tail.edge_mean, tail.params,
                                     out=v.strength[:n])
    else:
        strength = algo.strength_lookup(tail.lut, edge, out=v.strength[:n],
                                        idx=v.idx[:n])
    ui = algo.upscale_interior_rows(ws.down, tail.ring, r0, r1, v.ui[:n],
                                    rows=v.rows, taps=v.taps)
    err = algo.perror(plane[r0:r1], ui, out=v.err[:n])
    prelim = algo.preliminary_sharpen(ui, err, strength, out=err)
    mn, mx = algo.minmax3x3_rows(plane, r0, r1, mn=v.mn, mx=v.mx, ext=v.ext)
    algo.overshoot_rows(prelim, mn, mx, tail.params.overshoot, tail.final,
                        r0, over=v.over, under=v.under)


#: The executor's phases, in order; each is a span of a traced frame.
PHASES = ("strips.pass1", "strips.reduce", "strips.pass2")


def run(plane: np.ndarray, params: SharpnessParams, ws: Workspace,
        levels: tuple[tuple[int, int], ...],
        trace, *, out_dtype=FLOAT) -> tuple[np.ndarray, float]:
    """Sharpen ``plane`` through the scratch of ``ws`` (a frame-clean
    :class:`Workspace` of the same shape); return ``(final, edge_mean)``.

    ``final`` is ``ws``'s output plane of ``out_dtype``
    (:func:`~repro.types.check_out_dtype`; :meth:`Workspace.output`):
    float64, or ``uint8`` for a file sink.  It is the caller's while any
    reference to it is held; once none is, ``ws`` may hand its memory
    out again.  Pass 2 clips, rounds and stores each strip of a ``uint8``
    output while the strip is still in its lane's arena, so it holds the
    bytes of :func:`~repro.util.io.quantize_u8` of the float64 ``final``.

    ``plane`` is read as given: a ``uint8`` frame runs the stages that
    read only the original in exact integers (see
    :mod:`repro.algo.stages`), with the same bits as its float64 copy.

    ``levels`` is the reduction level chain a float pEdge's mean is
    folded through (see :func:`~repro.algo.stages.reduce_mean`; ``()``
    for a flat host sum).  An 8-bit frame's mean is the sum of its
    strips' exact integer sums over ``h * w``, which every level chain
    gives.  Each phase of :data:`PHASES` is recorded as a span of
    ``trace`` when the frame ends (a phase that raised, marked
    ``error``).  Steady state allocates the O(h + w) border ring and
    strength table, a new output plane while the last one handed out is
    still referenced, and per strip only the overshoot blend's index
    temporaries (a few bytes per overshooting pixel) and NumPy's casting
    buffers, all freed before the strip ends.
    """
    h, w = plane.shape
    u8 = plane.dtype == np.uint8
    out_dtype = check_out_dtype(out_dtype)
    # Strip j covers interior rows [1 + j*S, 1 + (j+1)*S) ∩ [1, h-1) and
    # downscales blocks [ceil(j*S/4), ceil((j+1)*S/4)) ∩ [0, h/4): the
    # strips cover h - 2 or more rows, so the last one runs to h/4.
    step = ws.strip
    n_strips = -(-(h - 2) // step)
    edge = ws.edge_plane(u8)
    sums: list[float | None] = [None] * n_strips

    def bounds(j: int) -> tuple[int, int]:
        return 1 + j * step, min(1 + (j + 1) * step, h - 1)

    def first(j: int, s: StripScratch) -> None:
        b0, b1 = -(-j * step // 4), min(h // 4, -(-(j + 1) * step // 4))
        sums[j] = _first_strip(plane, ws.down, edge, *bounds(j), b0, b1,
                               s.views(step, w, u8))

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
            lanes.run(n_strips, first)
            marks.append(now())
            # Workspace.reset() zeroed the pEdge border ring, and pass 1
            # leaves it zero.
            if u8:
                edge_mean = sum(sums) / (h * w)
            else:
                edge_mean = algo.reduce_mean(edge, levels)
            marks.append(now())
            ring = algo.upscale_border_ring(ws.down)
            final = ws.output(out_dtype)
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
