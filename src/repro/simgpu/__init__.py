"""Simulated OpenCL GPU substrate.

This package replaces the AMD FirePro W8000 + OpenCL runtime the paper used
(unavailable in this environment) with:

* :mod:`~repro.simgpu.device` — device specifications taken from Table I of
  the paper plus microarchitectural constants (wavefront size, compute units,
  launch overheads) with documented calibration;
* :mod:`~repro.simgpu.pcie` — a PCI-E transfer-time model covering the
  read/write, map/unmap and ``clEnqueueWriteBufferRect`` paths;
* :mod:`~repro.simgpu.memory` — global buffers and checked local memory;
* :mod:`~repro.simgpu.emulator` — a per-work-item functional emulator with
  workgroup barriers and wavefront-lockstep semantics;
* :mod:`~repro.simgpu.costmodel` — a roofline kernel-timing model;
* :mod:`~repro.simgpu.scheduler` — workgroup dispatch/occupancy effects;
* :mod:`~repro.simgpu.profiling` — simulated event timelines.
"""

from .device import CPUSpec, DeviceSpec, I5_3470, W8000
from .emulator import EmulatedKernelLaunch, WorkItemCtx, run_kernel
from .costmodel import KernelCost, kernel_time
from .memory import CheckedArray, GlobalBuffer, LocalMemory
from .pcie import PCIeSpec
from .profiling import Event, Timeline
from .schedule import ResourceScheduler
from .scheduler import parallel_utilization

__all__ = [
    "CPUSpec",
    "DeviceSpec",
    "I5_3470",
    "W8000",
    "EmulatedKernelLaunch",
    "WorkItemCtx",
    "run_kernel",
    "KernelCost",
    "kernel_time",
    "CheckedArray",
    "GlobalBuffer",
    "LocalMemory",
    "PCIeSpec",
    "Event",
    "Timeline",
    "ResourceScheduler",
    "parallel_utilization",
]
