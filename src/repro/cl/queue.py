"""In-order command queue of the simulated host API.

Mirrors the subset of ``clEnqueue*`` the paper's host code uses:

* ``enqueue_write_buffer`` / ``enqueue_read_buffer`` — explicit bulk copies
  (the read/write transfer mode of section V.A);
* ``enqueue_map_buffer`` / ``enqueue_unmap`` — the map/unmap mode;
* ``enqueue_write_buffer_rect`` — strided write used to pad the original
  matrix during the transfer itself (section V.A);
* ``enqueue_nd_range`` — kernel launch (functional or emulated body, priced
  by the cost model);
* ``finish`` — ``clFinish`` host synchronization (the overhead the paper's
  "Eliminate Global Synchronization" optimization removes);
* ``host_step`` — CPU-side work interleaved with the queue (border /
  reduction stage 2 on the host), so the timeline covers the whole pipeline.

The queue is in-order and non-overlapping, matching the paper's description
that kernels "have to be executed serially through global synchronization".

In ``MODE_DRYRUN`` (:attr:`CommandQueue.dry`) every command is checked,
fault-injected, priced and counted exactly as in the functional mode, but
no pixel exists: buffers are shape-only, kernel bodies are skipped,
writes store nothing, and reads and mappings return a read-only zero
placeholder of the buffer's shape
(:func:`~repro.simgpu.memory.placeholder`) that the host must not write.
The timeline and ``transfer_bytes`` are those of a functional run, which
is how a plan-cache miss captures its plan.

The queue-level metrics are written per frame from its timeline by
:func:`record_commands`, not per command, so a generic frame and a
replayed one (which never touches a queue) write the same series.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from ..errors import InvalidBufferError, MapError, QueueError
from ..obs.metrics import Updates
from ..obs.runctx import NULL_CONTEXT
from ..simgpu.costmodel import kernel_time
from ..simgpu.emulator import run_kernel
from .buffer import Buffer
from .context import MODE_DRYRUN, MODE_EMULATE
from .kernel import Kernel


def record_commands(obs, timeline, transfer_bytes: dict[str, int], *,
                    key=None) -> None:
    """Write one frame's queue-level metrics from its simulated timeline.

    ``repro_cl_commands_total{kind}`` counts the timeline's events,
    ``repro_cl_kernel_seconds{kernel}`` observes each kernel event's
    ``end - start``, and ``repro_cl_transfer_bytes_total{direction}`` adds
    ``transfer_bytes`` (the queue's per-direction totals).  ``key`` (held
    weakly; a GPU frame passes its execution plan) marks frames with the
    same timeline: their updates are resolved once per key
    (:meth:`~repro.obs.RunContext.memoize`).
    """
    if not obs.enabled:
        return

    def build() -> Updates:
        updates = Updates()
        metrics = obs.metrics
        commands = metrics.counter(
            "repro_cl_commands_total", "Enqueued commands by kind",
            ("kind",),
        )
        for kind, count in Counter(ev.kind for ev in timeline.events).items():
            updates.inc(commands.labels(kind=kind), count)
        kernel_hist = metrics.histogram(
            "repro_cl_kernel_seconds",
            "Simulated kernel duration per dispatched kernel (seconds)",
            ("kernel",),
        )
        for ev in timeline.of_kind("kernel"):
            updates.observe(
                kernel_hist.labels(kernel=ev.name.removeprefix("kernel:")),
                ev.duration)
        transfers = metrics.counter(
            "repro_cl_transfer_bytes_total",
            "Host<->device bytes moved over the simulated PCI-E link",
            ("direction",),
        )
        for direction, nbytes in transfer_bytes.items():
            if nbytes:
                updates.inc(transfers.labels(direction=direction), nbytes)
        return updates

    (build() if key is None else obs.memoize(key, "commands", build)).apply()


class CommandQueue:
    """An in-order command queue bound to a context.

    ``obs`` (a :class:`~repro.obs.RunContext`) logs a debug line per
    enqueued command and supplies the fault plan its fault sites consult.
    """

    def __init__(self, context, obs=None) -> None:
        self.context = context
        self.obs = obs or NULL_CONTEXT
        self._released = False
        self._pending_maps: dict[int, tuple[Buffer, np.ndarray, str]] = {}
        #: Bytes moved per direction over this queue's lifetime, kept
        #: regardless of observability (execution-plan capture and
        #: :func:`record_commands` read it).
        self.transfer_bytes: dict[str, int] = {"h2d": 0, "d2h": 0}

    @property
    def dry(self) -> bool:
        """``MODE_DRYRUN``: commands are priced and counted, no data moves."""
        return self.context.mode == MODE_DRYRUN

    # -- internals -----------------------------------------------------------

    def _check_alive(self) -> None:
        if self._released:
            raise QueueError("command queue used after release")

    def _check_buffer(self, buf: Buffer) -> None:
        if not isinstance(buf, Buffer):
            raise InvalidBufferError(
                f"expected a cl.Buffer, got {type(buf).__name__}"
            )
        buf.check_context(self.context)

    def _maybe_fault(self, site: str, detail: str) -> None:
        """Consult the run's fault plan (``obs.faults``) at this site.

        Fires *before* the command's side effects so an injected failure
        leaves buffers, the timeline, and transfer totals untouched — a
        retried command replays cleanly.
        """
        faults = self.obs.faults
        if faults is not None:
            faults.check(site, self.obs, detail=detail)

    def _record(self, name: str, kind: str, duration: float,
                stage: str) -> None:
        self.context.timeline.record(name, kind, duration, stage=stage)
        if self.obs.enabled:
            self.obs.log.debug(
                "cl.cmd", name=name, kind=kind, stage=stage,
                sim_us=duration * 1e6,
            )

    def _note_transfer(self, direction: str, nbytes: int) -> None:
        self.transfer_bytes[direction] += nbytes

    def release(self) -> None:
        self._released = True

    # -- explicit transfers (read/write mode) --------------------------------

    def enqueue_write_buffer(self, buf: Buffer, host: np.ndarray,
                             *, stage: str = "transfer") -> None:
        """Bulk host->device copy (``clEnqueueWriteBuffer``)."""
        self._check_alive()
        self._check_buffer(buf)
        self._maybe_fault("transfer", f"write:{buf.name}")
        buf.mem.write(host)
        duration = self.context.device.pcie.rw_time(buf.nbytes)
        self._note_transfer("h2d", buf.nbytes)
        self._record(f"write:{buf.name}", "transfer", duration, stage)

    def enqueue_read_buffer(self, buf: Buffer,
                            *, stage: str = "transfer") -> np.ndarray:
        """Bulk device->host copy (``clEnqueueReadBuffer``)."""
        self._check_alive()
        self._check_buffer(buf)
        self._maybe_fault("transfer", f"read:{buf.name}")
        host = buf.mem.read()
        duration = self.context.device.pcie.rw_time(buf.nbytes)
        self._note_transfer("d2h", buf.nbytes)
        self._record(f"read:{buf.name}", "transfer", duration, stage)
        return host

    # -- map/unmap mode -------------------------------------------------------

    def enqueue_map_buffer(self, buf: Buffer, *, write: bool,
                           stage: str = "transfer") -> np.ndarray:
        """Map a buffer into host memory (``clEnqueueMapBuffer``).

        For reads the on-demand transfer is charged at map time and the
        returned array holds the data.  For writes a staging copy of the
        buffer is returned; the transfer is charged when
        :meth:`enqueue_unmap` makes the data visible to the device.  A dry
        run's mapping is a read-only placeholder either way.
        """
        self._check_alive()
        self._check_buffer(buf)
        self._maybe_fault("transfer", f"map:{buf.name}")
        buf.begin_map()
        if write:
            staging = buf.mem.read()
            self._pending_maps[id(buf)] = (buf, staging, stage)
            return staging
        duration = self.context.device.pcie.map_time(buf.nbytes)
        self._note_transfer("d2h", buf.nbytes)
        self._record(f"map-read:{buf.name}", "transfer", duration, stage)
        self._pending_maps[id(buf)] = (buf, None, stage)
        return buf.mem.read()

    def enqueue_unmap(self, buf: Buffer, mapped: np.ndarray | None = None,
                      *, stage: str = "transfer") -> None:
        """Unmap (``clEnqueueUnmapMemObject``); commits pending writes."""
        self._check_alive()
        self._check_buffer(buf)
        try:
            _, staging, map_stage = self._pending_maps.pop(id(buf))
        except KeyError:
            raise MapError(f"{buf.name}: unmap without map") from None
        buf.end_map()
        if staging is not None:
            buf.mem.write(mapped if mapped is not None else staging)
            duration = self.context.device.pcie.map_time(buf.nbytes)
            self._note_transfer("h2d", buf.nbytes)
            self._record(
                f"unmap-write:{buf.name}", "transfer", duration,
                stage if stage != "transfer" else map_stage,
            )

    # -- strided rect write ----------------------------------------------------

    def enqueue_write_buffer_rect(self, buf: Buffer, host: np.ndarray,
                                  dst_origin: tuple[int, int],
                                  *, stage: str = "transfer") -> None:
        """Write a 2-D host region into a sub-rectangle of a 2-D buffer.

        The simulated ``clEnqueueWriteBufferRect``: this is how the pipeline
        pads the original matrix *during* the transfer instead of copying it
        on the CPU first (section V.A).
        """
        self._check_alive()
        self._check_buffer(buf)
        self._maybe_fault("transfer", f"write-rect:{buf.name}")
        host = np.asarray(host)
        if host.ndim != 2 or len(buf.shape) != 2:
            raise InvalidBufferError(
                "write_buffer_rect requires 2-D host data and buffer"
            )
        r0, c0 = dst_origin
        rows, cols = host.shape
        if r0 < 0 or c0 < 0 or r0 + rows > buf.shape[0] \
                or c0 + cols > buf.shape[1]:
            raise InvalidBufferError(
                f"{buf.name}: rect {host.shape} at origin {dst_origin} "
                f"exceeds buffer {buf.shape}"
            )
        buf.mem.write(host, (r0, c0))
        nbytes = host.size * buf.mem.transfer_itemsize
        duration = self.context.device.pcie.rect_time(nbytes, rows)
        self._note_transfer("h2d", nbytes)
        self._record(f"write-rect:{buf.name}", "transfer", duration, stage)

    # -- kernel launch ----------------------------------------------------------

    def enqueue_nd_range(self, kernel: Kernel,
                         global_size: tuple[int, ...],
                         local_size: tuple[int, ...],
                         *, stage: str = "") -> None:
        """Launch a kernel over an NDRange (``clEnqueueNDRangeKernel``)."""
        self._check_alive()
        self._maybe_fault("kernel", f"launch:{kernel.name}")
        for buf in kernel.buffers():
            self._check_buffer(buf)
            if buf.mem.mapped:
                raise MapError(
                    f"{buf.name}: kernel {kernel.name} launched while the "
                    f"buffer is mapped to the host"
                )
        global_size = tuple(int(g) for g in global_size)
        local_size = tuple(int(loc) for loc in local_size)
        spec = kernel.spec
        device = self.context.device

        cost = spec.cost(device, global_size, local_size, kernel.args)
        duration = kernel_time(cost, device)

        if self.dry:
            pass  # time-only: skip the kernel body
        elif self.context.mode == MODE_EMULATE and spec.emulator is not None:
            local_decl = (
                spec.local_mem(local_size, kernel.args)
                if spec.local_mem
                else {}
            )
            run_kernel(
                spec.emulator, global_size, local_size,
                kernel.emulator_args(), device=device, local_mem=local_decl,
                obs=self.obs,
            )
        else:
            spec.functional(global_size, local_size,
                            *kernel.functional_args())
        self._record(
            f"kernel:{kernel.name}", "kernel", duration,
            stage or kernel.name,
        )

    # -- synchronization and host work -------------------------------------------

    def finish(self, *, stage: str = "sync") -> None:
        """``clFinish``: block the host until the queue drains."""
        self._check_alive()
        self._record("clFinish", "sync", self.context.device.sync_overhead_s,
                     stage)

    def host_step(self, name: str, duration: float, *, stage: str) -> None:
        """Record CPU-side work interleaved with the queue."""
        self._check_alive()
        self._record(name, "host", duration, stage)
