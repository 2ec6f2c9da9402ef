"""Observability overhead: instrumented vs uninstrumented pipeline.

The obs layer must be cheap (or off-by-default): this benchmark runs the
optimized GPU pipeline with no RunContext and with a fully live one
(metrics + tracer + logger at ``warning``), asserts the instrumented
wall-clock time stays within 5% of the uninstrumented run (both ways of
running it below fail beyond that), and records the numbers in
``benchmarks/results/BENCH_obs.json`` so the project's perf trajectory
starts recording.

Run with ``pytest benchmarks/bench_obs_overhead.py`` or directly with
``PYTHONPATH=src python benchmarks/bench_obs_overhead.py``.
"""

from __future__ import annotations

import io
import json
import time

from repro import GPUPipeline, OPTIMIZED, RunContext
from repro.util import images
from repro.util.io import atomic_write_text

#: Image side for the timing comparison (big enough that the NumPy stage
#: bodies dominate, as they do at production sizes).
SIZE = 512
#: Timing repetitions; the minimum is compared (least-noise estimator).
ROUNDS = 7
#: Maximum tolerated overhead of the instrumented run.
THRESHOLD = 0.05


def _timed(pipe, image) -> float:
    t0 = time.perf_counter()
    pipe.run(image)
    return time.perf_counter() - t0


def measure() -> dict:
    image = images.natural_like(SIZE, SIZE, seed=3)

    plain_pipe = GPUPipeline(OPTIMIZED)
    obs = RunContext.create(
        "bench-obs", log_level="warning", log_stream=io.StringIO()
    )
    obs_pipe = GPUPipeline(OPTIMIZED, obs=obs)

    # Warm both paths (imports, allocator, registry children).
    plain_pipe.run(image)
    obs_pipe.run(image)

    # Alternate the two sides round by round, so drift in the host's
    # speed during the run reaches both minima alike.
    plain = instrumented = float("inf")
    for _ in range(ROUNDS):
        plain = min(plain, _timed(plain_pipe, image))
        instrumented = min(instrumented, _timed(obs_pipe, image))
    return {
        "benchmark": "obs_overhead",
        "size": SIZE,
        "rounds": ROUNDS,
        "plain_s": plain,
        "instrumented_s": instrumented,
        "overhead": instrumented / plain - 1.0,
        "threshold": THRESHOLD,
    }


def _check(result: dict) -> None:
    assert result["overhead"] < THRESHOLD, (
        f"observability overhead {100 * result['overhead']:.1f}% exceeds "
        f"{100 * THRESHOLD:.0f}% — keep the instrumented hot path cheap"
    )


def test_obs_overhead_within_threshold(results_dir):
    result = measure()
    atomic_write_text(
        results_dir / "BENCH_obs.json",
        json.dumps(result, indent=1) + "\n",
    )
    print(f"\nobs overhead: plain {result['plain_s'] * 1e3:.2f} ms, "
          f"instrumented {result['instrumented_s'] * 1e3:.2f} ms "
          f"({100 * result['overhead']:+.2f}%)")
    _check(result)


if __name__ == "__main__":
    import pathlib

    out = pathlib.Path(__file__).parent / "results"
    out.mkdir(exist_ok=True)
    result = measure()
    atomic_write_text(out / "BENCH_obs.json",
                      json.dumps(result, indent=1) + "\n")
    print(json.dumps(result, indent=1))
    _check(result)
