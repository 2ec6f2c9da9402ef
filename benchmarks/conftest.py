"""Benchmark-harness configuration.

Each ``bench_*`` module regenerates one table/figure of the paper: it runs
the experiment, writes the paper-style report to ``benchmarks/results/`` and
benchmarks the underlying computation with pytest-benchmark.

By default the harness uses a reduced size grid so a full run completes in
about a minute; set ``REPRO_BENCH_FULL=1`` to run the paper's full 256..4096
grid (the 4096x4096 simulations take a few seconds each).
"""

from __future__ import annotations

import os
import pathlib
import sys

import pytest

# The perf gates import their shared harness as ``gate``, the name it has
# when a gate script runs directly (its directory is ``sys.path[0]``).
sys.path.insert(0, str(pathlib.Path(__file__).parent))

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Reduced vs full (paper) size grids.
QUICK_SIZES = (256, 512, 1024)
FULL_SIZES = (256, 512, 1024, 2048, 4096)


def bench_sizes() -> tuple[int, ...]:
    return FULL_SIZES if os.environ.get("REPRO_BENCH_FULL") else QUICK_SIZES


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def save_report(results_dir):
    def _save(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[report saved to {path}]")

    return _save
