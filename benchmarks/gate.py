"""Paired A/B timing and the one runner behind the CI perf gates.

A gate times two sides of one workload — a base and a candidate — with
:func:`paired`, and decides on the median block time ratio against its
bound.  :func:`run` drives every gate the same way, whether
pytest or ``python benchmarks/bench_*.py`` calls it: it writes
``benchmarks/results/BENCH_<name>.json``, prints the report and applies
the gate's check, so a failing check fails the run.

``REPRO_BENCH_SMOKE=1`` selects a gate's smaller CI configuration.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import time
from dataclasses import dataclass
from typing import Callable

from repro.util.io import atomic_write_text

RESULTS = pathlib.Path(__file__).parent / "results"


def smoke() -> bool:
    """Whether the CI smoke configuration is requested."""
    return bool(os.environ.get("REPRO_BENCH_SMOKE"))


@dataclass(frozen=True)
class Pairs:
    """Wall times of the timed pairs, in run order."""

    base_s: tuple[float, ...]
    cand_s: tuple[float, ...]

    def ratios(self) -> dict:
        """The per-block time ratios with their median and quartiles.

        A block is a base-first pair and the candidate-first pair after
        it, so an order effect cancels inside it; its ratio is the
        candidate's summed time over the base's (above 1: slower).
        """
        def blocks(times: tuple[float, ...]) -> list[float]:
            return [a + b for a, b in zip(times[::2], times[1::2])]

        ratios = [c / b for b, c in zip(blocks(self.base_s),
                                        blocks(self.cand_s))]
        q1, median, q3 = statistics.quantiles(ratios, n=4,
                                              method="inclusive")
        return {"ratios": ratios, "median": median, "q1": q1, "q3": q3}


def paired(base: Callable[[], object], cand: Callable[[], object],
           pairs: int, *, clock: Callable[[], float] = time.perf_counter
           ) -> Pairs:
    """Time ``pairs`` adjacent base/candidate runs after one warm call each.

    The side that runs first alternates from pair to pair, so a drift in
    the host's speed, or a cost one run leaves to the next, reaches both
    sides alike.  ``pairs`` is even and at least 4, so the pairs make at
    least two whole blocks for :meth:`Pairs.ratios`.
    """
    if pairs < 4 or pairs % 2:
        raise ValueError(f"pairs must be even and at least 4, not {pairs}")
    base()
    cand()
    base_s, cand_s = [], []

    def timed(fn: Callable[[], object], into: list[float]) -> None:
        t0 = clock()
        fn()
        into.append(clock() - t0)

    for i in range(pairs):
        if i % 2:
            timed(cand, cand_s)
            timed(base, base_s)
        else:
            timed(base, base_s)
            timed(cand, cand_s)
    return Pairs(tuple(base_s), tuple(cand_s))


def run(name: str, measure: Callable[[], dict],
        check: Callable[[dict], None], report: Callable[[dict], str]
        ) -> dict:
    """Measure, write ``BENCH_<name>.json``, print the report, then check.

    The result is written before ``check`` runs, so a failing gate leaves
    its numbers behind.
    """
    result = measure()
    RESULTS.mkdir(exist_ok=True)
    atomic_write_text(RESULTS / f"BENCH_{name}.json",
                      json.dumps(result, indent=1) + "\n")
    print("\n" + report(result))
    check(result)
    return result
