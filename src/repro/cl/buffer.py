"""Device buffer object of the simulated host API."""

from __future__ import annotations

import numpy as np

from ..errors import InvalidBufferError, MapError
from ..simgpu.memory import GlobalBuffer


class Buffer:
    """A device-resident buffer created from a :class:`~repro.cl.Context`.

    Thin wrapper over :class:`~repro.simgpu.memory.GlobalBuffer` that ties
    the buffer to its context (cross-context use is an error, as in OpenCL)
    and tracks map state for the map/unmap transfer mode.  ``allocate``
    is ``GlobalBuffer``'s: a dry-run context's buffers are shape-only.
    """

    def __init__(self, context, shape: tuple[int, ...], *,
                 dtype=np.float64, transfer_itemsize: int | None = None,
                 name: str | None = None, allocate: bool = True) -> None:
        self.context = context
        self.mem = GlobalBuffer(
            shape, dtype=dtype, transfer_itemsize=transfer_itemsize,
            name=name, allocate=allocate,
        )

    # -- introspection -------------------------------------------------------

    @property
    def name(self) -> str:
        return self.mem.name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.mem.shape

    @property
    def nbytes(self) -> int:
        return self.mem.nbytes

    @property
    def data(self) -> np.ndarray | None:
        """Backing array (device memory; ``None`` in a dry run).  Host
        code must not touch this directly — go through the queue's
        transfer commands."""
        self.mem._check_alive()
        return self.mem.data

    # -- lifecycle -----------------------------------------------------------

    def release(self) -> None:
        self.mem.release()

    # -- validation helpers used by the queue --------------------------------

    def check_context(self, context) -> None:
        if context is not self.context:
            raise InvalidBufferError(
                f"{self.name}: used with a foreign context"
            )

    def begin_map(self) -> None:
        if self.mem.mapped:
            raise MapError(f"{self.name}: already mapped")
        self.mem.set_mapped(True)

    def end_map(self) -> None:
        if not self.mem.mapped:
            raise MapError(f"{self.name}: unmap without map")
        self.mem.set_mapped(False)
