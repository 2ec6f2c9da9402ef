"""Buffer pool: reusable device buffers + host scratch for cached runs.

A :class:`Workspace` bundles everything a plan's specialized executor
(:meth:`~repro.core.plan.ExecutionPlan.execute`) writes into for one frame
shape: the device-resident buffers of the pipeline proper (downscaled,
upscaled, pEdge — real :class:`~repro.cl.Buffer` objects on a private
context, recycled with :meth:`~repro.cl.buffer.Buffer.reset`), the
downscale's column sums, and one :class:`StripScratch` per strip lane.
Checking one out, running a frame, and checking it back in allocates
nothing once the frame's lanes exist; ``reset`` only re-zeros the pEdge
border ring (four thin slices — O(h + w) work), which is the sole
cross-frame invariant the executor relies on.

:class:`BufferPool` keeps at most ``max_entries`` idle workspaces per
shape.  Checkouts beyond the bound still succeed (a fresh workspace is
built) but the surplus is dropped at check-in, so a burst never grows the
steady-state footprint.  All operations are thread-safe: the batch
engine's workers share one pool.

Memory note (``Workspace.nbytes``): 10.6 MiB at 512x512, 80.1 MiB at
2048x2048 and 302 MiB at 4096x4096 with one strip lane.  The whole-frame
part (upscaled and pEdge planes, downscale sums, downscaled plane) is
18.5 bytes per pixel; each further lane adds about 6 MiB at any width
(16.6, 86.2 and 308 MiB with two lanes).  Size ``max_entries`` (and the
batch worker count) to the frame resolution.
"""

from __future__ import annotations

import threading

import numpy as np

from ..cl.context import Context
from ..errors import ConfigError
from ..simgpu.device import DeviceSpec, W8000
from ..types import FLOAT

#: Byte budget of one strip-scratch array.  A strip holds
#: ``STRIP_BYTES // (8 * w)`` rows, so the scratch of one lane stays the
#: same size at every frame width (32 rows at 2048 wide, the fastest
#: height there).
STRIP_BYTES = 512 << 10


def strip_rows(h: int, w: int) -> int:
    """Rows per strip of the executor for an ``h x w`` frame (it strips
    the ``h - 2`` interior rows)."""
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
    """Preallocated per-shape scratch for one in-flight frame."""

    def __init__(self, h: int, w: int, *,
                 device: DeviceSpec = W8000) -> None:
        if h % 4 or w % 4 or h < 16 or w < 16:
            raise ConfigError(
                f"workspace sides must be multiples of 4 and >= 16, "
                f"got {h}x{w}"
            )
        self.h, self.w = h, w
        hd, wd = h // 4, w // 4
        # Device-resident buffers (zero-initialized, like clCreateBuffer
        # in the rest of the simulation).
        self.context = Context(device, "functional")
        self.down_buf = self.context.create_buffer(
            (hd, wd), transfer_itemsize=4, name="pool_down")
        self.up_buf = self.context.create_buffer(
            (h, w), transfer_itemsize=4, name="pool_up")
        self.pedge_buf = self.context.create_buffer(
            (h, w), transfer_itemsize=4, name="pool_pedge")
        self.down = self.down_buf.data
        self.up = self.up_buf.data
        self.edge = self.pedge_buf.data
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
        """Total scratch footprint (device buffers + host arrays)."""
        return sum(a.nbytes for a in self.arrays())

    def reset(self) -> None:
        """Make the workspace frame-clean.

        The executor overwrites every cell it reads except the pEdge border
        ring (Sobel leaves the border zero by construction), so only that
        ring needs restoring; everything else is recycled dirty.
        """
        for buf in (self.down_buf, self.up_buf, self.pedge_buf):
            buf.reset()
        h, w = self.h, self.w
        self.edge[0] = 0.0
        self.edge[h - 1] = 0.0
        self.edge[:, 0] = 0.0
        self.edge[:, w - 1] = 0.0


class BufferPool:
    """Bounded, thread-safe pool of :class:`Workspace` objects per shape."""

    def __init__(self, max_entries: int = 4, *,
                 device: DeviceSpec = W8000, obs=None) -> None:
        if max_entries < 1:
            raise ConfigError(
                f"buffer pool max_entries must be >= 1, got {max_entries}"
            )
        self.max_entries = max_entries
        self.device = device
        #: Optional RunContext; its fault plan's ``oom`` site makes
        #: checkouts simulate CL_MEM_OBJECT_ALLOCATION_FAILURE.
        self.obs = obs
        self._idle: dict[tuple[int, int], list[Workspace]] = {}
        self._lock = threading.Lock()
        self.in_use = 0
        self.created = 0
        self.reused = 0
        self.discarded = 0

    def checkout(self, h: int, w: int) -> Workspace:
        """Borrow a frame-clean workspace for an ``h x w`` frame."""
        obs = self.obs
        if obs is not None and obs.faults is not None:
            # Simulated device OOM fires before any pool state changes, so
            # a retried checkout starts from a clean slate.
            obs.faults.check("oom", obs, detail=f"checkout:{h}x{w}")
        with self._lock:
            stack = self._idle.get((h, w))
            ws = stack.pop() if stack else None
            self.in_use += 1
            if ws is not None:
                self.reused += 1
            else:
                self.created += 1
        if ws is None:
            ws = Workspace(h, w, device=self.device)
        else:
            ws.reset()
        return ws

    def checkin(self, ws: Workspace) -> None:
        """Return a workspace; surplus beyond the bound is dropped."""
        with self._lock:
            self.in_use -= 1
            stack = self._idle.setdefault((ws.h, ws.w), [])
            if len(stack) < self.max_entries:
                stack.append(ws)
            else:
                self.discarded += 1

    def lease(self, h: int, w: int):
        """``with pool.lease(h, w) as ws:`` checkout/checkin guard."""
        return _Lease(self, h, w)

    def idle_count(self) -> int:
        with self._lock:
            return sum(len(s) for s in self._idle.values())

    def stats(self) -> dict[str, int]:
        with self._lock:
            idle = sum(len(s) for s in self._idle.values())
            return {
                "in_use": self.in_use,
                "idle": idle,
                "created": self.created,
                "reused": self.reused,
                "discarded": self.discarded,
            }


class _Lease:
    """Context manager backing :meth:`BufferPool.lease`."""

    def __init__(self, pool: BufferPool, h: int, w: int) -> None:
        self._pool = pool
        self._h, self._w = h, w
        self._ws: Workspace | None = None

    def __enter__(self) -> Workspace:
        self._ws = self._pool.checkout(self._h, self._w)
        return self._ws

    def __exit__(self, *exc) -> None:
        if self._ws is not None:
            self._pool.checkin(self._ws)
            self._ws = None
