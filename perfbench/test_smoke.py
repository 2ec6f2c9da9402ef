"""Smoke test of the benchmark: every workload, untraced and traced, at
tiny sizes, each in its own process.

Run with ``python -m pytest perfbench -q``.  It checks that every run
passes its correctness gate and emits exactly the metrics
``BENCHMARK.json`` declares, each with its declared unit.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"),
                                         (1, "per_layer")])
def test_every_workload_emits_every_metric(trace, kind):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stdout[-3000:]
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(results) == {w["name"] for w in DECLARED["workloads"]}
    expected = {m["name"]: m["unit"] for m in DECLARED[kind]}
    for name, result in results.items():
        assert result["correct"] and result["failed"] == 0, name
        assert result["attempted"] >= 1, name
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        assert emitted == expected, name
        for metric, value in result["metrics"].items():
            assert isinstance(value["value"], (int, float)), (name, metric)


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream512",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=60,
        check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
