"""Resilience overhead: plain batch vs resilience-enabled, faults disabled.

The resilience layer must be free when nothing fails: with no fault plan
armed, the per-frame cost is one ``breaker.allow()`` (a lock acquire), the
``execute()`` wrapper, and a handful of ``getattr`` checks at the fault
sites.  This benchmark streams a batch through :class:`~repro.BatchEngine`
bare and wrapped in the full retry + breaker + fallback stack with **no
faults injected**, in :data:`PAIRS` alternating pairs, and asserts the
median block overhead of the disabled path stays under 5%.  Numbers land in
``benchmarks/results/BENCH_resilience.json``.

Run with ``pytest benchmarks/bench_resilience_overhead.py`` or directly
with ``PYTHONPATH=src python benchmarks/bench_resilience_overhead.py``;
``REPRO_BENCH_SMOKE=1`` switches to a tiny configuration for CI smoke.
"""

from __future__ import annotations

import statistics

import gate
from repro import BatchEngine, OPTIMIZED, ResilienceConfig
from repro.util import images

#: Full-size configuration (matches bench_throughput).
SIZE, N_FRAMES, WORKERS = 512, 64, 4
#: CI smoke configuration.
SMOKE_SIZE, SMOKE_FRAMES = 256, 16
#: Timed plain/resilient pairs; the median block ratio is gated.
PAIRS = 14
#: Maximum tolerated overhead of the disabled resilience path.
THRESHOLD = 0.05


def measure() -> dict:
    smoke = gate.smoke()
    size = SMOKE_SIZE if smoke else SIZE
    n_frames = SMOKE_FRAMES if smoke else N_FRAMES
    frames = list(images.video_sequence(size, size, n_frames, seed=3))

    def batch(resilience):
        return lambda: BatchEngine(OPTIMIZED, workers=WORKERS,
                                   resilience=resilience).run(frames)

    pairs = gate.paired(batch(None), batch(ResilienceConfig()), PAIRS)
    ratio = pairs.ratios()
    return {
        "benchmark": "resilience_overhead",
        "size": size,
        "n_frames": n_frames,
        "workers": WORKERS,
        "pairs": PAIRS,
        "plain_s": statistics.median(pairs.base_s),
        "resilient_s": statistics.median(pairs.cand_s),
        "ratio": ratio,
        "overhead": ratio["median"] - 1.0,
        "threshold": THRESHOLD,
        "smoke": smoke,
    }


def check(result: dict) -> None:
    assert result["overhead"] < THRESHOLD, (
        f"disabled-resilience overhead {100 * result['overhead']:.1f}% "
        f"exceeds {100 * THRESHOLD:.0f}% — the no-fault hot path must "
        "stay free"
    )


def report(result: dict) -> str:
    return (f"resilience overhead (faults disabled): "
            f"plain {result['plain_s'] * 1e3:.1f} ms, "
            f"resilient {result['resilient_s'] * 1e3:.1f} ms "
            f"({100 * result['overhead']:+.2f}%, median of "
            f"{result['pairs'] // 2} two-pair blocks)")


def test_resilience_overhead_within_threshold():
    gate.run("resilience", measure, check, report)


if __name__ == "__main__":
    gate.run("resilience", measure, check, report)
