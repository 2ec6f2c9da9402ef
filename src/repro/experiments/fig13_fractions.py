"""Fig. 13: time fraction of each algorithm step, per version.

Paper results:

* (a) CPU version — overshoot control and the strength-matrix calculation
  are the bottlenecks; the Sobel / pError / upscale shares shrink as the
  image grows.
* (b) base GPU version — the bottlenecks shift to the upscale center,
  Sobel, and reduction (overshoot and preliminary sharpening parallelize
  well, so they stop dominating); the data-initialization share shrinks
  with size.
* (c) optimized GPU version — the distribution evens out, "without
  prominent bottlenecks".
"""

from __future__ import annotations

from ..core.metrics import GPU_STAGE_ORDER
from ..cpu.cost import CPU_STAGE_ORDER, stage_times
from ..simgpu.device import CPUSpec, DeviceSpec, I5_3470, W8000
from ..util.tables import format_fraction_table
from .runner import (
    PAPER_SIZES,
    experiment_context,
    make_image,
    run_pipeline,
)

VERSIONS = ("cpu", "base", "optimized")


def run(version: str, sizes=PAPER_SIZES, workload: str = "natural",
        device: DeviceSpec = W8000,
        cpu: CPUSpec = I5_3470) -> dict[str, dict[str, float]]:
    """Per-size stage fractions for one pipeline version.

    Each size runs under its own :class:`~repro.obs.RunContext` and the
    reported fractions are read back from the metrics registry
    (``repro_stage_seconds``), so this report and a metrics export of the
    same run can never disagree.
    """
    out: dict[str, dict[str, float]] = {}
    for size in sizes:
        obs = experiment_context(f"fig13-{version}-{size}",
                                 version=version, size=size)
        if version == "cpu":
            # The CPU breakdown is a pure cost-model evaluation (no pixels
            # needed); record it into the registry like a pipeline would.
            obs.observe_stages("cpu", stage_times(size, size, cpu).times,
                               declare=CPU_STAGE_ORDER)
        else:
            run_pipeline(version, make_image(size, workload),
                         device=device, cpu=cpu, obs=obs)
        out[f"{size}x{size}"] = obs.stage_fractions(version)
    return out


def report(version: str, sizes=PAPER_SIZES, workload: str = "natural",
           device: DeviceSpec = W8000, cpu: CPUSpec = I5_3470) -> str:
    fracs = run(version, sizes, workload, device, cpu)
    order = CPU_STAGE_ORDER if version == "cpu" else GPU_STAGE_ORDER
    titles = {
        "cpu": "Fig. 13(a) — CPU version stage fractions",
        "base": "Fig. 13(b) — base GPU version stage fractions",
        "optimized": "Fig. 13(c) — optimized GPU version stage fractions",
    }
    return format_fraction_table(order, fracs, title=titles[version])


def report_all(sizes=PAPER_SIZES, workload: str = "natural",
               device: DeviceSpec = W8000, cpu: CPUSpec = I5_3470) -> str:
    return "\n\n".join(
        report(v, sizes, workload, device, cpu) for v in VERSIONS
    )


def dominant_stages(fracs: dict[str, float], top: int = 2) -> list[str]:
    """Names of the ``top`` largest stages (for shape assertions)."""
    return [k for k, _ in
            sorted(fracs.items(), key=lambda kv: -kv[1])[:top]]
