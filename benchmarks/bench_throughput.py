"""Throughput engine benchmark: plan cache + buffer pool + batch workers.

Measures the wall-clock throughput of a frame stream two ways:

* **baseline** — the seed per-frame loop: a ``caching=False``
  :class:`~repro.core.pipeline.GPUPipeline` run serially over the frames,
  re-deriving kernel set / transfer plan / geometry and reallocating every
  buffer on each frame (exactly what ``GPUPipeline.run`` did before the
  throughput layer existed);
* **engine** — :class:`~repro.core.batch.BatchEngine` with a warm plan
  cache and the default 4 workers: the first frame captures an
  :class:`~repro.core.plan.ExecutionPlan`, every later frame replays it
  through pooled buffers.

Asserts that the median block speedup of :data:`PAIRS` alternating
engine/baseline pairs is at least :data:`MIN_SPEEDUP`, that cached and
uncached runs produce **bit-identical** frames (``np.array_equal``) and
equal edge means, that the cold run misses the plan cache at most once,
and that the plan-cache counters appear in the Prometheus export.
Results land in
``benchmarks/results/BENCH_throughput.json``.

Run with ``pytest benchmarks/bench_throughput.py`` or directly with
``PYTHONPATH=src python benchmarks/bench_throughput.py``;
``REPRO_BENCH_SMOKE=1`` switches to a tiny size/frame count for CI, with
a correspondingly relaxed speedup floor.
"""

from __future__ import annotations

import io
import statistics

import numpy as np

import gate
from repro import BatchEngine, GPUPipeline, OPTIMIZED, RunContext
from repro.types import Image
from repro.util import images

#: Full benchmark: the acceptance configuration (64 frames of 512x512,
#: 4 workers, >= 2x).
SIZE, N_FRAMES, WORKERS, MIN_SPEEDUP = 512, 64, 4, 2.0
#: CI smoke configuration: smaller frames, looser floor (fixed per-frame
#: overheads weigh more at small sizes, but a regression that serializes
#: the engine or kills the plan cache still fails loudly).
SMOKE_SIZE, SMOKE_FRAMES, SMOKE_MIN_SPEEDUP = 256, 16, 1.4
#: Timed engine/baseline pairs; the median block speedup is gated.
PAIRS = 8


def measure() -> dict:
    smoke = gate.smoke()
    size = SMOKE_SIZE if smoke else SIZE
    n_frames = SMOKE_FRAMES if smoke else N_FRAMES
    min_speedup = SMOKE_MIN_SPEEDUP if smoke else MIN_SPEEDUP
    frames = [Image.from_array(f)
              for f in images.video_sequence(size, size, n_frames, seed=7)]

    # Baseline: the seed per-frame loop (no plan cache, no buffer pool).
    # Engine: warm plan cache, default worker pool, live observability.
    baseline_pipe = GPUPipeline(OPTIMIZED, caching=False)
    obs = RunContext.create("bench-throughput", log_level="warning",
                            log_stream=io.StringIO())
    engine = BatchEngine(OPTIMIZED, workers=WORKERS, keep_outputs=True,
                         obs=obs)
    last = {}

    def run_baseline() -> None:
        last["baseline"] = [baseline_pipe.run(f) for f in frames]

    def run_engine() -> None:
        last["engine"] = engine.run(frames)
        last.setdefault("cold", last["engine"])

    # Engine as the base side: the ratio baseline/engine is the speedup.
    pairs = gate.paired(run_engine, run_baseline, PAIRS)
    result = last["engine"]

    # Cached output must be bit-identical to the uncached baseline.
    identical = all(
        np.array_equal(out, ref.final) and mean == ref.edge_mean
        for out, mean, ref in zip(result.outputs, result.edge_means,
                                  last["baseline"])
    )

    prometheus = obs.metrics.to_prometheus_text()
    counters_exported = (
        'repro_plan_cache_requests_total{outcome="hit"}' in prometheus
        and 'repro_plan_cache_requests_total{outcome="miss"}' in prometheus
    )

    speedup = pairs.ratios()
    baseline_s = statistics.median(pairs.cand_s)
    engine_s = statistics.median(pairs.base_s)
    return {
        "benchmark": "throughput",
        "smoke": smoke,
        "size": size,
        "frames": n_frames,
        "workers": WORKERS,
        "pairs": PAIRS,
        "effective_workers": engine.effective_workers,
        "baseline_s": baseline_s,
        "engine_s": engine_s,
        "baseline_fps": n_frames / baseline_s,
        "engine_fps": n_frames / engine_s,
        "speedup_ratios": speedup,
        "speedup": speedup["median"],
        "min_speedup": min_speedup,
        "bit_identical": identical,
        "plan_cache": last["cold"].plan_stats,  # stats are cumulative
        "buffer_pool": result.pool_stats,
        "plan_counters_in_prometheus": counters_exported,
    }


def check(result: dict) -> None:
    assert result["bit_identical"], (
        "cached batch output diverged from the uncached per-frame baseline"
    )
    assert result["plan_counters_in_prometheus"], (
        "plan-cache hit/miss counters missing from the Prometheus export"
    )
    assert result["plan_cache"]["hits"] >= result["frames"] - 1, (
        f"plan cache barely hit: {result['plan_cache']}"
    )
    assert result["speedup"] >= result["min_speedup"], (
        f"throughput engine speedup {result['speedup']:.2f}x is below the "
        f"{result['min_speedup']:.1f}x floor "
        f"(baseline {result['baseline_fps']:.1f} fps, "
        f"engine {result['engine_fps']:.1f} fps)"
    )


def report(result: dict) -> str:
    return (
        f"throughput ({result['size']}x{result['size']} x "
        f"{result['frames']} frames, {result['workers']} workers): "
        f"baseline {result['baseline_fps']:.1f} fps -> engine "
        f"{result['engine_fps']:.1f} fps ({result['speedup']:.2f}x, "
        f"median of {result['pairs'] // 2} two-pair blocks)"
    )


def test_throughput_speedup():
    gate.run("throughput", measure, check, report)


if __name__ == "__main__":
    gate.run("throughput", measure, check, report)
