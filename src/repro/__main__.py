"""Command-line interface: sharpen real image files.

Usage::

    python -m repro sharpen input.pgm output.pgm --preset crisp
    python -m repro sharpen photo.ppm out.ppm --pipeline gpu --report
    python -m repro sharpen in.pgm out.pgm --log-level debug \
        --trace-out run.json --metrics-out metrics.prom
    python -m repro demo demo.pgm --size 512   # make a synthetic test image

``--trace-out`` writes a Chrome/Perfetto-loadable trace containing the host
spans *and* the simulated device timeline; ``--metrics-out`` writes the
run's metrics registry (per-stage duration histograms, transfer/kernel
counters) in the Prometheus text format; ``--log-level debug`` streams one
structured logfmt record per enqueued command to stderr.

PGM inputs are treated as brightness planes; PPM inputs are converted to
YCbCr, the luma plane is sharpened, and chroma is passed through.
Image sides must be multiples of 4 (the algorithm's downscale factor).

Batch mode streams many frames through the throughput engine::

    python -m repro sharpen 'frames/*.pgm' out_dir --batch --workers 4

The input is a glob (or a directory) of same-named PGM frames and the
output is a directory; frames run through
:class:`~repro.core.batch.BatchEngine` (shared plan cache + buffer pool,
bounded worker threads, ordered results), each output is written as an
8-bit plane as soon as the engine hands it back, in input order, and a
throughput summary is printed to stderr.

Resilience (see ``docs/resilience.md``): ``--resilient`` runs frames under
retry + circuit-breaker + GPU->CPU fallback policies; ``--inject-faults
SPEC`` arms the deterministic fault injector (e.g.
``'transfer:rate=0.2,kind=transient;seed=7'``) to rehearse failures.

Durable jobs (see ``docs/lifecycle.md``) make a batch crash-safe::

    python -m repro sharpen 'frames/*.pgm' out_dir --batch \
        --job-dir job/ --hang-timeout 30 --health-out health.json
    python -m repro sharpen --resume job/            # after a crash/drain
    python -m repro sharpen --replay-failures job/   # re-run dead letters

``--job-dir`` journals every frame outcome (fsync'd write-ahead log +
atomically rotated checkpoint manifest), so a killed job resumes where it
stopped, bit-identical to an uninterrupted run.  SIGTERM/SIGINT drains
gracefully (finish in-flight frames under ``--drain-timeout``); a second
signal aborts.  ``--hang-timeout`` arms the watchdog that cancels stuck
frames.

Exit-code contract (tested by ``tests/test_cli_errors.py``):
0 success; 1 runtime failure (some frames dead-lettered, or an engine
error); 2 unusable input/configuration; 3 drained with pending frames
(resumable); 4 aborted (checkpoint still valid).
"""

from __future__ import annotations

import argparse
import glob
import pathlib
import sys

import numpy as np

from .algo.color import sharpen_rgb
from .core import BASE, OPTIMIZED, GPUPipeline
from .core.batch import NoHooks
from .cpu import CPUPipeline
from .errors import ReproError, UsageError, ValidationError
from .obs import LEVELS, RunContext
from .resilience import FallbackPipeline, FaultPlan, ResilienceConfig
from .types import FLOAT, PIXEL, Image, SharpnessParams
from .util import images as synth
from .util.io import read_pgm, read_ppm, write_pgm, write_ppm

from .presets import PRESETS

PIPELINES = ("cpu", "gpu-base", "gpu")


def _read_image(reader, path):
    """Read an input image, folding unreadable/corrupt files into
    :class:`~repro.errors.UsageError` (CLI exit code 2)."""
    try:
        return reader(path)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except ValidationError as exc:
        raise UsageError(f"corrupt image {path}: {exc}") from exc


def _parse_fault_plan(args) -> FaultPlan | None:
    """``--inject-faults`` spec -> FaultPlan (FaultSpecError is already a
    UsageError, so a bad spec exits with code 2)."""
    if not args.inject_faults:
        return None
    return FaultPlan.parse(args.inject_faults)


def _build_params(args) -> SharpnessParams:
    params = PRESETS[args.preset]
    overrides = {
        k: getattr(args, k)
        for k in ("gain", "gamma", "strength_max", "overshoot")
        if getattr(args, k) is not None
    }
    if overrides:
        params = SharpnessParams(**{
            "gain": params.gain, "gamma": params.gamma,
            "strength_max": params.strength_max,
            "overshoot": params.overshoot, **overrides,
        })
    return params


def _make_obs(args) -> RunContext:
    """Build the run's observability context from the CLI flags."""
    faults = _parse_fault_plan(args)
    obs = RunContext.create(
        log_level=args.log_level, log_format=args.log_format,
        meta={"pipeline": args.pipeline, "preset": args.preset,
              "input": str(args.input)},
        faults=faults,
    )
    obs.log.info("run.start", pipeline=args.pipeline, preset=args.preset,
                 input=str(args.input), output=str(args.output))
    if faults is not None:
        obs.log.warning("faults.armed", spec=faults.describe())
    return obs


def _make_luma_runner(pipeline: str, params: SharpnessParams,
                      report: bool, obs: RunContext,
                      resilient: bool = False):
    if pipeline == "cpu":
        pipe = CPUPipeline(params, obs=obs)
    else:
        flags = BASE if pipeline == "gpu-base" else OPTIMIZED
        pipe = GPUPipeline(flags, params, obs=obs, label=pipeline)
        if resilient:
            pipe = FallbackPipeline(pipe, ResilienceConfig(), obs=obs)

    def run(plane: np.ndarray, out_dtype=FLOAT) -> np.ndarray:
        res = pipe.run(Image.from_array(plane), out_dtype=out_dtype)
        if res.backend == "cpu-fallback":
            print(f"[resilience] frame served by {res.backend}",
                  file=sys.stderr)
        if report:
            label = {"cpu": "CPU baseline", "gpu-base": "base GPU",
                     "gpu": "optimized GPU"}[pipeline]
            print(f"[{label}] simulated time "
                  f"{res.total_time * 1e3:.3f} ms", file=sys.stderr)
            for stage, frac in sorted(res.times.fractions().items(),
                                      key=lambda kv: -kv[1]):
                print(f"  {stage:10s} {100 * frac:5.1f}%", file=sys.stderr)
        return res.final

    return run


def _batch_inputs(pattern: str) -> list[pathlib.Path]:
    """Resolve the batch input (glob or directory) to sorted PGM frames."""
    path = pathlib.Path(pattern)
    if path.is_dir():
        frames = sorted(path.glob("*.pgm"))
    else:
        frames = sorted(
            pathlib.Path(p) for p in glob.glob(pattern)
        )
    frames = [p for p in frames if p.suffix.lower() == ".pgm"]
    if not frames:
        raise ReproError(
            f"--batch found no .pgm frames matching {pattern!r} "
            "(batch mode sharpens PGM brightness planes)"
        )
    return frames


class BatchWriter(NoHooks):
    """The engine hooks of ``--batch``: write each frame, a ``uint8``
    plane, to ``out_dir`` under its input's name as the engine absorbs
    it, in input order, so the run holds at most ``queue_depth`` frames.
    """

    def __init__(self, frames: list[pathlib.Path],
                 out_dir: pathlib.Path) -> None:
        self.paths = [out_dir / p.name for p in frames]

    def on_frame(self, *, index: int, output, **_) -> None:
        if output is not None:
            write_pgm(self.paths[index], output)


def cmd_batch(args, params, obs) -> int:
    """Sharpen a frame sequence through the throughput engine."""
    from .core import BatchEngine

    if args.pipeline == "cpu":
        raise ReproError("--batch drives the GPU pipelines; "
                         "use --pipeline gpu or gpu-base")
    frames = _batch_inputs(args.input)
    out_dir = pathlib.Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    flags = BASE if args.pipeline == "gpu-base" else OPTIMIZED
    resilience = ResilienceConfig() if args.resilient else None
    engine = BatchEngine(flags, params, workers=args.workers,
                         out_dtype=PIXEL, obs=obs, resilience=resilience,
                         hooks=BatchWriter(frames, out_dir))
    with obs.span("cli.batch", frames=len(frames), workers=args.workers):
        result = engine.run(_read_image(read_pgm, p) for p in frames)
    stats = result.plan_stats
    backends = ", ".join(f"{k}={v}"
                         for k, v in sorted(result.backends().items()))
    print(
        f"[batch] {result.n_frames} frames, {args.workers} workers: "
        f"{result.frames_per_second:.1f} fps wall "
        f"({result.wall_seconds * 1e3:.0f} ms total), plan cache "
        f"{stats['hits']} hits / {stats['misses']} misses, "
        f"backends {backends}",
        file=sys.stderr,
    )
    if result.dead_letters:
        for failure in result.dead_letters:
            print(f"[batch] frame {failure.index} failed: "
                  f"{failure.error_type}: {failure.error}",
                  file=sys.stderr)
    written = result.n_frames - result.n_failed
    print(f"wrote {written} frames to {out_dir}"
          + (f" ({result.n_failed} failed)" if result.n_failed else ""))
    return 0 if result.ok else 1


def cmd_durable(args, params, obs) -> int:
    """Run (or resume) a crash-safe batch job (see docs/lifecycle.md)."""
    from .lifecycle import BatchJob, LifecycleConfig

    lifecycle = LifecycleConfig(
        drain_timeout=args.drain_timeout,
        hang_timeout=args.hang_timeout,
        health_path=args.health_out,
        install_signals=True,
    )
    resume_dir = args.resume or args.replay_failures
    if resume_dir:
        if args.input or args.output:
            raise UsageError(
                "--resume/--replay-failures take the job directory; "
                "drop the input/output arguments (they come from the "
                "job manifest)"
            )
        job = BatchJob.resume(resume_dir, obs=obs, lifecycle=lifecycle)
    else:
        if args.input is None or args.output is None:
            raise UsageError(
                "--job-dir needs the input frames and the output "
                "directory (or use --resume <job-dir>)"
            )
        if args.pipeline == "cpu":
            raise ReproError("--job-dir drives the GPU pipelines; "
                             "use --pipeline gpu or gpu-base")
        frames = _batch_inputs(args.input)
        flags = BASE if args.pipeline == "gpu-base" else OPTIMIZED
        job = BatchJob(
            inputs=frames, output_dir=args.output, job_dir=args.job_dir,
            flags=flags, params=params, workers=args.workers,
            obs=obs, lifecycle=lifecycle,
        )
    with obs.span("cli.durable_job", job_dir=str(job.job_dir)):
        outcome = job.run(replay_failures=bool(args.replay_failures))
    print(
        f"[job] {outcome.state}: {len(outcome.completed)}/"
        f"{len(job.frame_ids)} frames completed, "
        f"{len(outcome.failed)} failed, {len(outcome.pending)} pending "
        f"({outcome.executed} executed this run) -> {job.output_dir}",
        file=sys.stderr,
    )
    for fid in outcome.failed:
        print(f"[job] failed frame: {fid} "
              f"(re-run with --replay-failures {job.job_dir})",
              file=sys.stderr)
    if outcome.pending:
        print(f"[job] resume with: python -m repro sharpen "
              f"--resume {job.job_dir}", file=sys.stderr)
    return outcome.exit_code


def cmd_sharpen(args) -> int:
    params = _build_params(args)
    obs = _make_obs(args)
    if args.job_dir or args.resume or args.replay_failures:
        code = cmd_durable(args, params, obs)
        _write_exports(args, obs)
        return code
    if args.input is None or args.output is None:
        raise UsageError(
            "input and output are required (omit them only with "
            "--resume/--replay-failures)"
        )
    if args.batch:
        code = cmd_batch(args, params, obs)
        _write_exports(args, obs)
        return code
    src = pathlib.Path(args.input)
    runner = _make_luma_runner(args.pipeline, params, args.report, obs,
                               resilient=args.resilient)

    suffix = src.suffix.lower()
    with obs.span("cli.sharpen", input=str(src), format=suffix):
        if suffix == ".ppm":
            rgb = _read_image(read_ppm, src)
            out = sharpen_rgb(rgb, params, luma_sharpener=runner)
            write_ppm(args.output, out)
        elif suffix == ".pgm":
            plane = _read_image(read_pgm, src)
            write_pgm(args.output, runner(plane, PIXEL))
        else:
            raise ReproError(
                f"unsupported input format {suffix!r}; use .pgm or .ppm"
            )
    _write_exports(args, obs)
    print(f"wrote {args.output}")
    return 0


def _write_exports(args, obs) -> None:
    if args.trace_out:
        path = obs.write_trace(args.trace_out)
        obs.log.info("trace.written", path=str(path))
        print(f"wrote trace to {path}", file=sys.stderr)
    if args.metrics_out:
        path = obs.write_metrics(args.metrics_out)
        obs.log.info("metrics.written", path=str(path))
        print(f"wrote metrics to {path}", file=sys.stderr)


def cmd_demo(args) -> int:
    plane = synth.text_like(args.size, args.size, seed=1)
    write_pgm(args.output, plane)
    print(f"wrote synthetic {args.size}x{args.size} test image to "
          f"{args.output}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Image sharpening (ICPP 2015 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sharpen = sub.add_parser("sharpen", help="sharpen a PGM/PPM file")
    p_sharpen.add_argument("input", nargs="?", default=None)
    p_sharpen.add_argument("output", nargs="?", default=None)
    p_sharpen.add_argument("--pipeline", choices=PIPELINES, default="gpu")
    p_sharpen.add_argument("--preset", choices=sorted(PRESETS),
                           default="default")
    p_sharpen.add_argument("--gain", type=float, default=None)
    p_sharpen.add_argument("--gamma", type=float, default=None)
    p_sharpen.add_argument("--strength-max", dest="strength_max",
                           type=float, default=None)
    p_sharpen.add_argument("--overshoot", type=float, default=None)
    p_sharpen.add_argument("--report", action="store_true",
                           help="print the simulated time breakdown")
    p_sharpen.add_argument("--batch", action="store_true",
                           help="treat input as a glob/directory of .pgm "
                                "frames and output as a directory; stream "
                                "them through the batch engine")
    p_sharpen.add_argument("--workers", type=int, default=4,
                           help="worker threads for --batch (default: 4)")
    p_sharpen.add_argument("--resilient", action="store_true",
                           help="run under the resilience layer: retry "
                                "transient faults, trip a circuit breaker "
                                "on persistent GPU failures and degrade "
                                "to the CPU pipeline (see "
                                "docs/resilience.md)")
    p_sharpen.add_argument("--inject-faults", dest="inject_faults",
                           default=None, metavar="SPEC",
                           help="deterministic fault injection, e.g. "
                                "'transfer:rate=0.2,kind=transient;seed=7'"
                                " (sites: transfer, kernel, oom, worker, "
                                "hang)")
    p_sharpen.add_argument("--job-dir", dest="job_dir", default=None,
                           metavar="DIR",
                           help="run the batch as a durable job: journal "
                                "every frame outcome into DIR so the job "
                                "is crash-safe and resumable (see "
                                "docs/lifecycle.md)")
    p_sharpen.add_argument("--resume", default=None, metavar="DIR",
                           help="resume a durable job from its job "
                                "directory; completed frames are skipped, "
                                "pending/failed frames re-run")
    p_sharpen.add_argument("--replay-failures", dest="replay_failures",
                           default=None, metavar="DIR",
                           help="re-enqueue only the dead-lettered frames "
                                "of a durable job")
    p_sharpen.add_argument("--drain-timeout", dest="drain_timeout",
                           type=float, default=10.0, metavar="SECONDS",
                           help="graceful-shutdown budget: how long the "
                                "first SIGTERM/SIGINT lets in-flight "
                                "frames finish (default: 10)")
    p_sharpen.add_argument("--hang-timeout", dest="hang_timeout",
                           type=float, default=None, metavar="SECONDS",
                           help="watchdog whole-frame deadline; frames "
                                "stuck longer are cancelled and "
                                "dead-lettered (default: off)")
    p_sharpen.add_argument("--health-out", dest="health_out", default=None,
                           metavar="PATH",
                           help="write the job's liveness/readiness/"
                                "progress JSON here (default: "
                                "<job-dir>/health.json)")
    p_sharpen.add_argument("--log-level", dest="log_level",
                           choices=sorted(LEVELS, key=LEVELS.get),
                           default="warning",
                           help="structured-log level on stderr "
                                "(default: warning)")
    p_sharpen.add_argument("--log-format", dest="log_format",
                           choices=("logfmt", "json"), default="logfmt",
                           help="structured-log record format")
    p_sharpen.add_argument("--trace-out", dest="trace_out", default=None,
                           help="write a Chrome/Perfetto trace (host spans "
                                "+ simulated device events) to this file")
    p_sharpen.add_argument("--metrics-out", dest="metrics_out", default=None,
                           help="write the run's metrics registry in "
                                "Prometheus text format to this file")
    p_sharpen.set_defaults(func=cmd_sharpen)

    p_demo = sub.add_parser("demo", help="generate a synthetic test image")
    p_demo.add_argument("output")
    p_demo.add_argument("--size", type=int, default=512)
    p_demo.set_defaults(func=cmd_demo)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        # Unusable input (unreadable/corrupt file, malformed fault spec):
        # one structured line, no traceback, argparse-style exit code 2.
        print(f"error: exit=2 kind={type(exc).__name__} msg={str(exc)!r}",
              file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
