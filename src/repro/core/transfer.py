"""Transfer planning: the section V.A data-movement strategies.

:class:`TransferPlanner` hides the map/unmap vs read/write choice behind
``upload``/``download`` so the pipeline body reads mode-independently, and
implements the padded-original upload three ways:

* base: pad on the host (billed CPU memcpy) and bulk-upload the padded
  matrix, *plus* a separate upload of the unpadded original (the wasteful
  double transfer the paper starts from);
* ``transfer_padded_only`` without ``pad_on_transfer``: host pad + one bulk
  upload;
* ``pad_on_transfer``: a single ``clEnqueueWriteBufferRect`` that writes the
  original into the interior of the padded buffer during the transfer.

On a dry-run queue (:attr:`~repro.cl.CommandQueue.dry`) the host side is
shape-only too: nothing is copied into a mapping or padded on the host,
so a priced upload holds no pixel.
"""

from __future__ import annotations

import numpy as np

from ..cl.buffer import Buffer
from ..cl.queue import CommandQueue
from ..cpu.cost import padding_host_time
from ..simgpu.device import CPUSpec
from ..simgpu.memory import placeholder


class TransferPlanner:
    """Mode-aware host<->device transfers for the pipeline."""

    def __init__(self, queue: CommandQueue, mode: str,
                 cpu: CPUSpec) -> None:
        self.queue = queue
        self.mode = mode
        self.cpu = cpu

    # -- generic moves -------------------------------------------------------

    def upload(self, buf: Buffer, host: np.ndarray, *, stage: str) -> None:
        if self.mode == "rw":
            self.queue.enqueue_write_buffer(buf, host, stage=stage)
        else:
            mapped = self.queue.enqueue_map_buffer(buf, write=True,
                                                   stage=stage)
            if not self.queue.dry:
                mapped[...] = host
            self.queue.enqueue_unmap(buf, mapped, stage=stage)

    def download(self, buf: Buffer, *, stage: str) -> np.ndarray:
        if self.mode == "rw":
            return self.queue.enqueue_read_buffer(buf, stage=stage)
        host = self.queue.enqueue_map_buffer(buf, write=False, stage=stage)
        self.queue.enqueue_unmap(buf, stage=stage)
        return host

    # -- padded-original upload (section V.A) ---------------------------------

    def upload_padded(self, padded_buf: Buffer, plane: np.ndarray, *,
                      pad_on_transfer: bool, stage: str = "data_init") -> None:
        """Populate the (h+2)x(w+2) padded buffer from the h x w plane."""
        h, w = plane.shape
        if pad_on_transfer:
            # Zero ring is the buffer's initial state; the rect write lands
            # the plane in the interior during the transfer itself.
            self.queue.enqueue_write_buffer_rect(
                padded_buf, plane, (1, 1), stage=stage
            )
            return
        # Host-side padding: build the padded matrix on the CPU (billed as
        # a host step), then one bulk upload.
        if self.queue.dry:
            padded_host = placeholder((h + 2, w + 2), plane.dtype)
        else:
            padded_host = np.zeros((h + 2, w + 2), dtype=plane.dtype)
            padded_host[1 : h + 1, 1 : w + 1] = plane
        self.queue.host_step(
            "pad_host", padding_host_time(h, w, self.cpu), stage="padding"
        )
        self.upload(padded_buf, padded_host, stage=stage)
