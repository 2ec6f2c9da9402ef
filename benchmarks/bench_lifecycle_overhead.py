"""Durability tax: how much does the lifecycle layer cost per frame?

Runs the same frame sequence two ways:

* **baseline** — the bare throughput path, as ``--batch`` runs it without
  ``--job-dir``: :class:`~repro.core.batch.BatchEngine` over frames
  loaded from disk, with ``uint8`` outputs that the CLI's
  :class:`~repro.__main__.BatchWriter` hooks write as the engine hands
  each one back;
* **durable** — :class:`~repro.lifecycle.BatchJob` over the same frames:
  fsync'd write-ahead journal per frame, checkpoint manifest rotation,
  watchdog thread, health snapshots.

Asserts that the median block ratio of :data:`PAIRS` alternating
baseline/durable times stays within :data:`MAX_OVERHEAD` (the journaling
budget: < 5% at 512x512 x 64 frames) and that the durable outputs are
**bit-identical** to the bare engine's.  Results land in
``benchmarks/results/BENCH_lifecycle_overhead.json``.

Run with ``pytest benchmarks/bench_lifecycle_overhead.py`` or directly
with ``PYTHONPATH=src python benchmarks/bench_lifecycle_overhead.py``;
``REPRO_BENCH_SMOKE=1`` shrinks the workload for CI and relaxes the
ceiling (fixed per-frame costs — fsync latency, manifest rotation —
weigh proportionally more on tiny frames).
"""

from __future__ import annotations

import itertools
import pathlib
import shutil
import statistics
import tempfile

import numpy as np

import gate
from repro import BatchEngine, OPTIMIZED
from repro.__main__ import BatchWriter
from repro.lifecycle import BatchJob, LifecycleConfig
from repro.util import images
from repro.util.io import read_pgm, write_pgm

#: Full benchmark: the acceptance configuration from the issue.
SIZE, N_FRAMES, WORKERS, MAX_OVERHEAD = 512, 64, 4, 0.05
#: CI smoke configuration: tiny frames, looser ceiling.
SMOKE_SIZE, SMOKE_FRAMES, SMOKE_MAX_OVERHEAD = 256, 16, 0.30
#: Timed baseline/durable pairs; the median block ratio is gated.
PAIRS = 8


def measure() -> dict:
    smoke = gate.smoke()
    size = SMOKE_SIZE if smoke else SIZE
    n_frames = SMOKE_FRAMES if smoke else N_FRAMES
    max_overhead = SMOKE_MAX_OVERHEAD if smoke else MAX_OVERHEAD

    work = pathlib.Path(tempfile.mkdtemp(prefix="repro-lifecycle-bench-"))
    try:
        frames_dir = work / "frames"
        frames_dir.mkdir()
        for i, frame in enumerate(
                images.video_sequence(size, size, n_frames, seed=7)):
            write_pgm(frames_dir / f"f{i:04d}.pgm", frame)
        inputs = sorted(frames_dir.glob("*.pgm"))
        base_reps, durable_reps = itertools.count(), itertools.count()

        # Baseline: bare engine writing each output as it arrives, as
        # --batch does; fresh out dir per run so filesystem state matches
        # the durable side.
        def run_baseline() -> None:
            out_dir = work / f"base-out-{next(base_reps)}"
            out_dir.mkdir()
            engine = BatchEngine(OPTIMIZED, workers=WORKERS,
                                 out_dtype=np.uint8,
                                 hooks=BatchWriter(inputs, out_dir))
            engine.run(read_pgm(p) for p in inputs)

        # Durable: full lifecycle — fsync'd journal, manifest rotations,
        # watchdog ticking, health snapshots.  Fresh job dir per run (a
        # resumed no-op run would measure nothing).
        def run_durable() -> None:
            rep = next(durable_reps)
            job = BatchJob(
                inputs=inputs,
                output_dir=work / f"job-out-{rep}",
                job_dir=work / f"job-{rep}",
                workers=WORKERS,
                lifecycle=LifecycleConfig(hang_timeout=300.0),
            )
            outcome = job.run()
            assert outcome.exit_code == 0, outcome

        pairs = gate.paired(run_baseline, run_durable, PAIRS)

        identical = all(
            (work / "base-out-0" / p.name).read_bytes()
            == (work / "job-out-0" / p.name).read_bytes()
            for p in inputs
        )
        journal_lines = sum(
            1 for _ in open(work / "job-0" / "journal.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ratio = pairs.ratios()
    baseline_s = statistics.median(pairs.base_s)
    durable_s = statistics.median(pairs.cand_s)
    return {
        "benchmark": "lifecycle_overhead",
        "smoke": smoke,
        "size": size,
        "frames": n_frames,
        "workers": WORKERS,
        "pairs": PAIRS,
        "baseline_s": baseline_s,
        "durable_s": durable_s,
        "ratio": ratio,
        "baseline_fps": n_frames / baseline_s,
        "durable_fps": n_frames / durable_s,
        "overhead": ratio["median"] - 1.0,
        "max_overhead": max_overhead,
        "bit_identical": identical,
        "journal_records": journal_lines,
    }


def check(result: dict) -> None:
    assert result["bit_identical"], (
        "durable-job outputs diverged from the bare engine's"
    )
    assert result["journal_records"] >= result["frames"] + 2, (
        f"journal too small: {result['journal_records']} records for "
        f"{result['frames']} frames"
    )
    assert result["overhead"] <= result["max_overhead"], (
        f"lifecycle overhead {100 * result['overhead']:.1f}% exceeds the "
        f"{100 * result['max_overhead']:.0f}% budget "
        f"(baseline {result['baseline_fps']:.1f} fps, durable "
        f"{result['durable_fps']:.1f} fps)"
    )


def report(result: dict) -> str:
    return (
        f"lifecycle overhead ({result['size']}x{result['size']} x "
        f"{result['frames']} frames, {result['workers']} workers): "
        f"baseline {result['baseline_fps']:.1f} fps -> durable "
        f"{result['durable_fps']:.1f} fps "
        f"({100 * result['overhead']:+.1f}% vs "
        f"{100 * result['max_overhead']:.0f}% budget, median of "
        f"{result['pairs'] // 2} two-pair blocks)"
    )


def test_lifecycle_overhead():
    gate.run("lifecycle_overhead", measure, check, report)


if __name__ == "__main__":
    gate.run("lifecycle_overhead", measure, check, report)
