"""Buffer pool: per-shape executor workspaces, reused across frames.

A :class:`~repro.algo.strips.Workspace` holds the whole-frame planes the
strip executor (:func:`repro.algo.strips.run`) writes into for one frame
shape: the downscaled plane and the pEdge plane of each frame dtype.
Checking one out, running a frame, and checking it back in allocates
nothing but the frame's output; ``reset`` only re-zeros the pEdge border
rings (four thin slices each — O(h + w) work), which is the sole
cross-frame invariant the executor relies on.

:class:`BufferPool` keeps at most ``max_entries`` idle workspaces per
shape.  Checkouts beyond the bound still succeed (a fresh workspace is
built) but the surplus is dropped at check-in, so a burst never grows the
steady-state footprint.  All operations are thread-safe: the batch
engine's workers share one pool.

Memory note (``Workspace.nbytes``): a workspace is planes only, 2.5
bytes per pixel (the ``int16`` pEdge of an 8-bit frame and the
downscaled plane): 0.62 MiB at 512x512, 10.0 MiB at 2048x2048 and
40.0 MiB at 4096x4096; the first float frame adds a float64 pEdge
plane, 8 bytes per pixel more.  The strip scratch is process-wide: the
strip lanes (:class:`~repro.algo.strips.StripLanes`) own one arena of
about 4 MiB per lane busy at once, whatever the shapes and pools.  Size
``max_entries`` (and the batch worker count) to the frame resolution.
"""

from __future__ import annotations

import threading

from ..algo.strips import Workspace
from ..errors import ConfigError


class BufferPool:
    """Bounded, thread-safe pool of :class:`Workspace` objects per shape."""

    def __init__(self, max_entries: int = 4, *, obs=None) -> None:
        if max_entries < 1:
            raise ConfigError(
                f"buffer pool max_entries must be >= 1, got {max_entries}"
            )
        self.max_entries = max_entries
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
            ws = Workspace(h, w)
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

    def publish(self, obs) -> None:
        """Set ``obs``'s ``repro_bufferpool_in_use`` / ``_idle`` gauges.

        Read and set under the pool's lock, so concurrent writers cannot
        interleave: the last write shows the pool as it stands."""
        if not obs.enabled:
            return
        metrics = obs.metrics
        with self._lock:
            metrics.gauge(
                "repro_bufferpool_in_use",
                "Workspaces currently checked out of the buffer pool",
            ).set(self.in_use)
            metrics.gauge(
                "repro_bufferpool_idle",
                "Idle workspaces parked in the buffer pool",
            ).set(sum(len(s) for s in self._idle.values()))


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
