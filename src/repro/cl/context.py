"""Simulated OpenCL context: owns the device, the timeline, and buffers."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..simgpu.device import DeviceSpec, W8000
from ..simgpu.profiling import Timeline
from .buffer import Buffer

#: Kernel bodies run as whole-array NumPy operations; costs come from the
#: analytic model.  Fast — the default for pipelines and benchmarks.
MODE_FUNCTIONAL = "functional"
#: Kernel bodies run work-item by work-item through the emulator with real
#: barriers/local memory.  Slow — for small-size correctness tests.
MODE_EMULATE = "emulate"
#: Kernel bodies are skipped entirely and no data exists to move; only the
#: cost model runs.  The timeline and transfer bytes are identical to the
#: functional mode's (costs are content-independent), but buffers are
#: shape-only (no backing array) and every read-back or mapping is a
#: read-only zero placeholder of the buffer's shape — for timing studies,
#: and for capturing an execution plan on a plan-cache miss.
MODE_DRYRUN = "dryrun"

_MODES = (MODE_FUNCTIONAL, MODE_EMULATE, MODE_DRYRUN)


class Context:
    """A simulated OpenCL context.

    Parameters
    ----------
    device:
        The simulated device (defaults to the paper's FirePro W8000).
    mode:
        Kernel execution mode, ``"functional"``, ``"emulate"`` or
        ``"dryrun"``.
    """

    def __init__(self, device: DeviceSpec = W8000,
                 mode: str = MODE_FUNCTIONAL) -> None:
        if mode not in _MODES:
            raise ConfigError(f"unknown execution mode {mode!r}; "
                              f"expected one of {_MODES}")
        self.device = device
        self.mode = mode
        self.timeline = Timeline()

    def create_buffer(self, shape: tuple[int, ...], *,
                      dtype=np.float64, transfer_itemsize: int | None = None,
                      name: str | None = None) -> Buffer:
        """Allocate a device buffer (allocation itself is free, as in CL;
        a dry run's holds no data)."""
        return Buffer(self, shape, dtype=dtype,
                      transfer_itemsize=transfer_itemsize, name=name,
                      allocate=self.mode != MODE_DRYRUN)
