"""Simulated device memory: global buffers, checked arrays, local memory.

The functional fast path of a kernel operates on the backing NumPy arrays of
:class:`GlobalBuffer` directly; the per-work-item emulator instead goes
through :class:`CheckedArray` views that enforce explicit bounds (no Python
negative-index wrap-around — an out-of-bounds access in a kernel is a device
fault, not a convenience).  :class:`LocalMemory` models workgroup-private
``__local`` storage with a per-CU capacity limit.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from ..errors import (
    GlobalMemoryError,
    InvalidBufferError,
    LocalMemoryError,
)


class CheckedArray:
    """A bounds-checked view of an ndarray for kernel emulation.

    Supports integer and integer-tuple indexing only — kernels address
    memory one element at a time, like real OpenCL C code.  Any index
    outside ``[0, shape)`` raises a device fault; negative indices are
    faults too (OpenCL has no wrap-around).
    """

    __slots__ = ("_data", "_fault", "_name")

    def __init__(self, data: np.ndarray, *, name: str = "buffer",
                 fault: type[Exception] = GlobalMemoryError) -> None:
        self._data = data
        self._name = name
        self._fault = fault

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def size(self) -> int:
        return int(self._data.size)

    def _check(self, idx) -> tuple | int:
        if not isinstance(idx, tuple):
            idx = (idx,)
        if len(idx) == 1 and self._data.ndim > 1:
            # OpenCL buffers are flat: a single index into a multi-dim
            # buffer is a linear (row-major) address.
            i = int(idx[0])
            if i < 0 or i >= self._data.size:
                raise self._fault(
                    f"{self._name}: linear index {i} out of bounds for "
                    f"size {self._data.size}"
                )
            return i
        if len(idx) != self._data.ndim:
            raise self._fault(
                f"{self._name}: expected {self._data.ndim} indices, "
                f"got {len(idx)}"
            )
        out = []
        for axis, (i, n) in enumerate(zip(idx, self._data.shape)):
            i = int(i)
            if i < 0 or i >= n:
                raise self._fault(
                    f"{self._name}: index {i} out of bounds for axis "
                    f"{axis} with size {n}"
                )
            out.append(i)
        return tuple(out)

    def __getitem__(self, idx) -> float:
        checked = self._check(idx)
        if isinstance(checked, int):
            return float(self._data.flat[checked])
        return float(self._data[checked])

    def __setitem__(self, idx, value) -> None:
        checked = self._check(idx)
        if isinstance(checked, int):
            self._data.flat[checked] = value
        else:
            self._data[checked] = value

    def __len__(self) -> int:
        return int(self._data.shape[0])

    def __iter__(self) -> Iterator[float]:  # pragma: no cover - convenience
        for i in range(len(self)):
            yield self[i]


def placeholder(shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """A read-only, zero-stride array of zeros of ``shape``: host data of
    a frame that is priced but not computed (a dry run), holding one
    element whatever its shape."""
    return np.broadcast_to(np.zeros((), dtype=dtype), shape)


class GlobalBuffer:
    """A device global-memory buffer backed by a NumPy array.

    ``nbytes`` is the *transfer* size of the buffer, i.e. what a PCI-E copy
    of it costs.  For 8-bit image planes that are promoted to float for
    arithmetic, the transfer dtype (1 byte/pixel) differs from the compute
    dtype; ``transfer_itemsize`` captures that.

    ``allocate=False`` makes a shape-only buffer, as a dry run creates:
    it has the shape, dtype and transfer size of an allocated one but
    ``data`` is ``None``; writes are checked and store nothing, and a
    read hands back a :func:`placeholder`.
    """

    _counter = 0

    def __init__(self, shape: tuple[int, ...], *, dtype=np.float64,
                 transfer_itemsize: int | None = None,
                 name: str | None = None, allocate: bool = True) -> None:
        if any(int(s) <= 0 for s in shape):
            raise InvalidBufferError(f"invalid buffer shape {shape}")
        GlobalBuffer._counter += 1
        self.name = name or f"buf{GlobalBuffer._counter}"
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        self.data = np.zeros(self.shape, dtype=self.dtype) if allocate \
            else None
        self.transfer_itemsize = (
            int(transfer_itemsize)
            if transfer_itemsize is not None
            else self.dtype.itemsize
        )
        self.released = False
        self._mapped = False

    # -- lifecycle ----------------------------------------------------------

    def release(self) -> None:
        self.released = True

    def _check_alive(self) -> None:
        if self.released:
            raise InvalidBufferError(f"{self.name}: used after release")

    # -- host access (used by the cl layer) ---------------------------------

    @property
    def nbytes(self) -> int:
        """Transfer size in bytes."""
        return math.prod(self.shape) * self.transfer_itemsize

    def write(self, host: np.ndarray,
              origin: tuple[int, ...] | None = None) -> None:
        """Copy ``host`` into the buffer, or into the region of its shape
        at ``origin`` (which the caller has bounds-checked)."""
        self._check_alive()
        host = np.asarray(host)
        if origin is None:
            if host.shape != self.shape:
                raise InvalidBufferError(
                    f"{self.name}: write shape {host.shape} != buffer shape "
                    f"{self.shape}"
                )
            origin = (0,) * host.ndim
        if self.data is not None:
            self.data[tuple(slice(o, o + n) for o, n
                            in zip(origin, host.shape))] = host

    def read(self) -> np.ndarray:
        """A host copy of the buffer (a shape-only buffer's is a
        :func:`placeholder`)."""
        self._check_alive()
        if self.data is None:
            return placeholder(self.shape, self.dtype)
        return self.data.copy()

    # -- kernel access ------------------------------------------------------

    def checked(self) -> CheckedArray:
        """Bounds-checked view for the per-work-item emulator."""
        self._check_alive()
        return CheckedArray(self.data, name=self.name)

    # -- map/unmap state (used by the cl layer) ------------------------------

    @property
    def mapped(self) -> bool:
        return self._mapped

    def set_mapped(self, value: bool) -> None:
        self._mapped = bool(value)


class LocalMemory:
    """Workgroup-private ``__local`` memory with a capacity limit."""

    def __init__(self, n_elements: int, *, capacity_bytes: int,
                 itemsize: int = 4, name: str = "local") -> None:
        if n_elements <= 0:
            raise LocalMemoryError(f"{name}: invalid size {n_elements}")
        if n_elements * itemsize > capacity_bytes:
            raise LocalMemoryError(
                f"{name}: {n_elements * itemsize} bytes requested, "
                f"compute unit has {capacity_bytes}"
            )
        self.nbytes = n_elements * itemsize
        self._store = CheckedArray(
            np.zeros(n_elements, dtype=np.float64),
            name=name,
            fault=LocalMemoryError,
        )

    def __getitem__(self, idx) -> float:
        return self._store[idx]

    def __setitem__(self, idx, value) -> None:
        self._store[idx] = value

    def __len__(self) -> int:
        return len(self._store)
