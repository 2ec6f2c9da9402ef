"""Observability overhead: instrumented vs uninstrumented pipeline.

The obs layer must be cheap (or off-by-default): this benchmark runs the
optimized GPU pipeline with no RunContext and with a fully live one
(metrics + tracer + logger at ``warning``), and asserts the median
block ratio of :data:`PAIRS` alternating plain/instrumented frame times
stays within 5% (both ways of running it below fail beyond that).  The
numbers land in ``benchmarks/results/BENCH_obs.json``.

Run with ``pytest benchmarks/bench_obs_overhead.py`` or directly with
``PYTHONPATH=src python benchmarks/bench_obs_overhead.py``.
"""

from __future__ import annotations

import io
import statistics

import gate
from repro import GPUPipeline, OPTIMIZED, RunContext
from repro.util import images

#: Image side for the timing comparison (big enough that the NumPy stage
#: bodies dominate, as they do at production sizes).
SIZE = 512
#: Timed plain/instrumented pairs; the median block ratio is gated.
PAIRS = 30
#: Maximum tolerated overhead of the instrumented run.
THRESHOLD = 0.05


def measure() -> dict:
    image = images.natural_like(SIZE, SIZE, seed=3)
    plain_pipe = GPUPipeline(OPTIMIZED)
    obs = RunContext.create(
        "bench-obs", log_level="warning", log_stream=io.StringIO()
    )
    obs_pipe = GPUPipeline(OPTIMIZED, obs=obs)

    pairs = gate.paired(lambda: plain_pipe.run(image),
                        lambda: obs_pipe.run(image), PAIRS)
    ratio = pairs.ratios()
    return {
        "benchmark": "obs_overhead",
        "size": SIZE,
        "pairs": PAIRS,
        "plain_s": statistics.median(pairs.base_s),
        "instrumented_s": statistics.median(pairs.cand_s),
        "ratio": ratio,
        "overhead": ratio["median"] - 1.0,
        "threshold": THRESHOLD,
    }


def check(result: dict) -> None:
    assert result["overhead"] < THRESHOLD, (
        f"observability overhead {100 * result['overhead']:.1f}% exceeds "
        f"{100 * THRESHOLD:.0f}% — keep the instrumented hot path cheap"
    )


def report(result: dict) -> str:
    return (f"obs overhead: plain {result['plain_s'] * 1e3:.2f} ms, "
            f"instrumented {result['instrumented_s'] * 1e3:.2f} ms "
            f"({100 * result['overhead']:+.2f}%, median of "
            f"{result['pairs'] // 2} two-pair blocks)")


def test_obs_overhead_within_threshold():
    gate.run("obs", measure, check, report)


if __name__ == "__main__":
    gate.run("obs", measure, check, report)
