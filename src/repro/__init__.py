"""repro — reproduction of "Optimizing Image Sharpening Algorithm on GPU"
(Fan, Jia, Zhang, An, Cao — ICPP 2015) on a simulated OpenCL GPU.

Quickstart::

    import numpy as np
    from repro import Image, SharpnessParams, sharpen, GPUPipeline, OPTIMIZED

    plane = np.random.default_rng(0).uniform(0, 255, (512, 512))
    image = Image.from_array(plane)

    # Simple functional API (CPU reference semantics):
    result = sharpen(image.plane)

    # Full simulated-GPU pipeline with the paper's optimizations:
    gpu = GPUPipeline(OPTIMIZED).run(image)
    print(gpu.final_u8().shape, f"{gpu.total_time * 1e3:.2f} ms (simulated)")

Packages:

* :mod:`repro.algo` — canonical stage implementations (the algorithm itself);
* :mod:`repro.cpu` — scalar golden reference + the paper's CPU baseline;
* :mod:`repro.simgpu` — the simulated GPU (emulator + cost model);
* :mod:`repro.cl` — OpenCL-flavoured host API over the simulator;
* :mod:`repro.kernels` — the device kernels, base and optimized variants;
* :mod:`repro.core` — the optimized pipeline and the optimization ladder;
* :mod:`repro.obs` — structured logging, metrics registry and tracing
  (pass a :class:`~repro.obs.RunContext` as ``obs=`` to either pipeline);
* :mod:`repro.resilience` — fault injection, retry/timeout policies,
  circuit breaker and the GPU->CPU :class:`~repro.resilience.FallbackPipeline`;
* :mod:`repro.lifecycle` — durable batch jobs: crash-safe write-ahead
  journal, checkpoint/resume, graceful shutdown, hang watchdog and the
  job health surface (:class:`~repro.lifecycle.BatchJob`);
* :mod:`repro.experiments` — per-table/figure reproduction harness.
"""

from .algo.stages import sharpen
from .core import (
    BASE,
    LADDER,
    OPTIMIZED,
    BatchEngine,
    BatchResult,
    BufferPool,
    FrameFailure,
    GPUPipeline,
    OptimizationFlags,
    PlanCache,
    StreamProcessor,
    StreamResult,
)
from .cpu import CPUPipeline
from .errors import (
    BarrierDivergenceError,
    CircuitOpenError,
    CLError,
    ConfigError,
    DeviceFault,
    DeviceOOMError,
    FaultSpecError,
    FrameHangError,
    FrameTimeoutError,
    GlobalMemoryError,
    InvalidBufferError,
    InvalidKernelArgsError,
    InvalidWorkGroupError,
    KernelLaunchFault,
    LocalMemoryError,
    MapError,
    PermanentError,
    QueueError,
    RaceConditionError,
    ReproError,
    RetryExhaustedError,
    TransferFault,
    TransientError,
    UsageError,
    ValidationError,
    WorkerCrashError,
    is_transient,
)
from .lifecycle import (
    BatchJob,
    HealthReporter,
    JobJournal,
    JobOutcome,
    JournalState,
    LifecycleConfig,
    Manifest,
    ShutdownCoordinator,
    Watchdog,
)
from .obs import MetricsRegistry, RunContext
from .resilience import (
    CircuitBreaker,
    FallbackPipeline,
    FaultPlan,
    ResilienceConfig,
    RetryBudget,
    RetryPolicy,
    Timeout,
)
from .simgpu.device import CPUSpec, DeviceSpec, I5_3470, W8000
from .types import FrameResult, Image, SharpnessParams

__version__ = "1.1.0"

__all__ = [
    "sharpen",
    "BASE",
    "LADDER",
    "OPTIMIZED",
    "BatchEngine",
    "BatchResult",
    "BufferPool",
    "FrameFailure",
    "PlanCache",
    "StreamProcessor",
    "StreamResult",
    "GPUPipeline",
    "OptimizationFlags",
    "CPUPipeline",
    "MetricsRegistry",
    "RunContext",
    # resilience layer
    "CircuitBreaker",
    "FallbackPipeline",
    "FaultPlan",
    "ResilienceConfig",
    "RetryBudget",
    "RetryPolicy",
    "Timeout",
    # lifecycle layer (durable jobs)
    "BatchJob",
    "HealthReporter",
    "JobJournal",
    "JobOutcome",
    "JournalState",
    "LifecycleConfig",
    "Manifest",
    "ShutdownCoordinator",
    "Watchdog",
    # exception hierarchy
    "ReproError",
    "ValidationError",
    "ConfigError",
    "UsageError",
    "TransientError",
    "PermanentError",
    "is_transient",
    "CLError",
    "InvalidBufferError",
    "InvalidKernelArgsError",
    "InvalidWorkGroupError",
    "MapError",
    "QueueError",
    "DeviceFault",
    "BarrierDivergenceError",
    "LocalMemoryError",
    "GlobalMemoryError",
    "RaceConditionError",
    "TransferFault",
    "KernelLaunchFault",
    "DeviceOOMError",
    "WorkerCrashError",
    "FrameHangError",
    "FrameTimeoutError",
    "CircuitOpenError",
    "RetryExhaustedError",
    "FaultSpecError",
    "CPUSpec",
    "DeviceSpec",
    "I5_3470",
    "W8000",
    "FrameResult",
    "Image",
    "SharpnessParams",
    "__version__",
]
