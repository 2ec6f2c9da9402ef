"""The repository benchmark: four sharpening workloads, end to end and per layer.

Run one workload::

    python3 perfbench/run.py --workload stream512 --seed 1 --seconds 15 --trace 0

It builds every input from ``--seed``, warms the program up (``setup_s``,
the median of several set-ups), runs a closed loop through the workload's
public entry point until ``--seconds`` of timed work are done, checks every
timed output against :func:`repro.algo.stages.sharpen`, and prints each
metric as ``name value unit`` followed, as the last line, by one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
0 only when every frame matched.

``--trace 0`` reports the end-to-end metrics: ``fps`` (frames over timed
wall time), ``frame_ms_p50``/``frame_ms_p75`` (wall milliseconds per frame
of each closed-loop step: one frame on large2048, one pass over the
frames on stream512 and degraded, one whole job on mixed_job),
``setup_s``, ``sim_frame_ms`` (median simulated time per frame, which must
repeat exactly) and ``peak_rss_mb``.  Failed frames over attempted ones
are printed as ``frames_failed_frac`` and carried by the JSON's
``failed``/``attempted``.

``--trace 1`` alternates an untraced and a traced copy of the loop (their
difference is ``trace.overhead_frac``), then times each layer's public
functions from outside and reports the per-layer metrics, with a summary
of every span.

Without ``--workload`` every workload runs, each in a fresh process, so
peak memory and lazy state do not leak from one to the next.  ``--smoke``
shrinks every size so the whole set runs in seconds
(``perfbench/test_smoke.py``).

The workloads, metrics and regression bounds are declared in
``BENCHMARK.json``; :data:`layers.MOVES` says which end-to-end metric each
per-layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("stream512", "large2048", "mixed_job", "degraded")

#: End-to-end metric -> unit.
END_TO_END = {
    "fps": "1/s",
    "frame_ms_p50": "ms",
    "frame_ms_p75": "ms",
    "setup_s": "s",
    "sim_frame_ms": "sim_ms",
    "peak_rss_mb": "MiB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="timed work per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and probe budgets")
    return parser.parse_args(argv)


def host_facts(caches: dict[str, int]) -> str:
    import numpy

    parts = [f"nproc={os.cpu_count()}",
             f"python={platform.python_version()}",
             f"numpy={numpy.__version__}"]
    parts += [f"{k}_kib={v >> 10}" for k, v in sorted(caches.items())]
    return "host " + " ".join(parts)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(wl, seconds: float):
    import numpy as np
    from workloads import closed_loop

    setups = []
    runner = None
    for _ in range(wl.setup_reps):
        runner = None  # release the previous set-up's pools first
        start = time.perf_counter()
        runner = wl.setup()
        setups.append(time.perf_counter() - start)
    side, = closed_loop(wl, [(runner, None)], seconds)
    frame_ms = side.frame_ms
    metrics = {
        "fps": len(side.frames) / side.wall,
        "frame_ms_p50": statistics.median(frame_ms),
        "frame_ms_p75": float(np.percentile(frame_ms, 75)),
        "setup_s": statistics.median(setups),
        "sim_frame_ms": statistics.median(f.sim_s for f in side.frames) * 1e3,
        "peak_rss_mb": peak_rss_mib(),
    }
    print(f"info frame_ms samples={len(frame_ms)} "
          f"frames_per_sample={wl.unit_frames} setup_reps={len(setups)}")
    return metrics, [side]


def per_layer(wl, seconds: float, workdir: pathlib.Path, smoke: bool,
              copy: float):
    from layers import Budget, MOVES, loop_metrics, probe_all
    from spans import Spans
    from workloads import closed_loop

    spans = Spans()
    plain = wl.setup()
    traced = wl.setup(spans=spans)
    spans.records.clear()  # keep the timed loop's and the probes' spans
    sides = closed_loop(wl, [(plain, None), (traced, spans)], seconds,
                        min_units=2)
    metrics = loop_metrics(spans, *sides, wl.plan_counts(traced))
    plain = traced = None
    budget = Budget(probe_s=0.02, compare_s=0.05, min_reps=1) if smoke \
        else Budget()
    metrics.update(probe_all(wl, spans, workdir, budget))
    metrics["host.copy_gbs"] = copy
    for line in spans.summary():
        print(line)
    print(f"info peak_rss_mb={peak_rss_mib()}")
    missing = set(MOVES) - set(metrics)
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {missing}")
    return {name: metrics[name] for name in MOVES}, sides


def run_one(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import workloads

    caches = layers.cpu_caches()
    print(host_facts(caches))
    copy = None
    if args.trace:
        llc = max(caches.values(), default=32 << 20)
        # Two arrays of twice the last-level cache: four times the LLC in
        # flight, so the copy streams from memory.
        copy = layers.copy_gbs((1 << 23) if args.smoke else 2 * llc)
        print(f"info host.copy_gbs={copy}")
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = workloads.make(args.workload, seed=args.seed, smoke=args.smoke,
                            workdir=workdir)
        if args.trace:
            metrics, sides = per_layer(wl, args.seconds, workdir, args.smoke,
                                       copy)
            units = {name: unit for name, (unit, _) in layers.MOVES.items()}
        else:
            metrics, sides = end_to_end(wl, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    attempted = sum(len(s.frames) + s.lost for s in sides)
    failed = sum(s.lost + sum(not f.ok for f in s.frames) for s in sides)
    print(f"info frames_failed_frac {failed / max(attempted, 1)} frac "
          f"(failed={failed} attempted={attempted})")
    for name, value in metrics.items():
        moves = (f"  # moves {layers.MOVES[name][1]}" if args.trace else "")
        print(f"{name} {value} {units[name]}{moves}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in a fresh process; the last line maps workload
    name to that process's result (None when it printed none)."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(pathlib.Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            results[name] = None
        status = status or proc.returncode
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
