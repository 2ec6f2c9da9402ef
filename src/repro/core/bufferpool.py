"""Buffer pool: per-shape executor workspaces, reused across frames.

A :class:`~repro.algo.strips.Workspace` holds the whole-frame planes the
strip executor (:func:`repro.algo.strips.run`) writes into for one frame
shape: the downscaled plane, the pEdge plane of each frame dtype and the
output plane it last handed out of each output dtype.  Checking one out,
running a frame, and checking it back in allocates no plane once the
caller has dropped the previous frame's output (the workspace writes the
next frame into that plane again; one still referenced is never
reused); ``reset`` only re-zeros the pEdge border rings (four thin
slices each — O(h + w) work), which is the sole cross-frame invariant
the executor relies on.

:class:`BufferPool` keeps at most ``max_entries`` idle workspaces per
shape.  Checkouts beyond the bound still succeed (a fresh workspace is
built) but the surplus is dropped at check-in, so a burst never grows the
steady-state footprint.  All operations are thread-safe: the batch
engine's workers share one pool.  The pool holds no fault plan: a
replayed GPU frame passes the simulated device ``oom`` fault site in
:meth:`~repro.core.pipeline.GPUPipeline.run` just before its lease, and a
CPU frame (:class:`~repro.cpu.CPUPipeline`) leases with no device site to
pass.

Memory note (``Workspace.nbytes``): a workspace's planes take 2.5
bytes per pixel (the ``int16`` pEdge of an 8-bit frame and the
downscaled plane): 0.62 MiB at 512x512, 10.0 MiB at 2048x2048 and
40.0 MiB at 4096x4096; the first float frame adds a float64 pEdge
plane, 8 bytes per pixel more.  The output plane a workspace keeps adds
8 bytes per pixel for a float64 output and 1 for a ``uint8`` one (a
file sink's), per output dtype it has served; idle workspaces hold it
too, so ``max_entries`` bounds it with the rest.  The strip scratch is
process-wide: the strip lanes (:class:`~repro.algo.strips.StripLanes`)
own one arena of about 4 MiB per lane busy at once, whatever the shapes
and pools.  Size ``max_entries`` (and the batch worker count) to the
frame resolution.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from ..algo.strips import Workspace
from ..errors import ConfigError


class BufferPool:
    """Bounded, thread-safe pool of :class:`Workspace` objects per shape."""

    def __init__(self, max_entries: int = 4) -> None:
        if max_entries < 1:
            raise ConfigError(
                f"buffer pool max_entries must be >= 1, got {max_entries}"
            )
        self.max_entries = max_entries
        self._idle: dict[tuple[int, int], list[Workspace]] = {}
        self._lock = threading.Lock()
        self.in_use = 0
        self.created = 0
        self.reused = 0
        self.discarded = 0

    def checkout(self, h: int, w: int) -> Workspace:
        """Borrow a frame-clean workspace for an ``h x w`` frame."""
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

    @contextmanager
    def lease(self, h: int, w: int):
        """``with pool.lease(h, w) as ws:`` checkout/checkin guard."""
        ws = self.checkout(h, w)
        try:
            yield ws
        finally:
            self.checkin(ws)

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
