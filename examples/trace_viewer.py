#!/usr/bin/env python3
"""Inspect the simulated execution: ASCII Gantt + Chrome trace export.

Renders the in-order pipeline timeline for one image, then the pipelined
(copy/compute-overlapped) schedule for a short frame stream, and writes both
as Chrome trace JSON files you can open at https://ui.perfetto.dev or
chrome://tracing.

Usage::

    python examples/trace_viewer.py [outdir]   # default ./traces_out
"""

import pathlib
import sys

from repro import GPUPipeline, Image, OPTIMIZED
from repro.core import StreamProcessor
from repro.obs import Tracer
from repro.util import images


def write_trace(timeline, label: str, path: pathlib.Path) -> None:
    """Write a simulated timeline as its own process in a Chrome trace."""
    tracer = Tracer()
    tracer.merge_timeline(timeline, label=label)
    tracer.write_chrome_trace(path)


def main() -> None:
    outdir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1
                          else "traces_out")
    outdir.mkdir(exist_ok=True)

    # --- one in-order pipeline run -------------------------------------
    image = Image.from_array(images.natural_like(1024, 1024, seed=5))
    res = GPUPipeline(OPTIMIZED).run(image)
    print("In-order optimized pipeline at 1024x1024:\n")
    print(res.timeline.ascii_gantt(60))
    single_path = outdir / "pipeline_1024.trace.json"
    write_trace(res.timeline, "pipeline 1024x1024", single_path)

    # --- a pipelined 3-frame stream -------------------------------------
    frames = images.video_sequence(1024, 1024, 3, seed=5)
    stream = StreamProcessor(OPTIMIZED, overlap_transfers=True).run(frames)
    serial = sum(f.serial_time for f in stream.frames)
    print("\n\nPipelined 3-frame stream (copy/compute overlap):\n")
    print(stream.pipelined_timeline.ascii_gantt(60))
    print(f"\nserial {serial * 1e3:.2f} ms -> pipelined "
          f"{stream.total_time * 1e3:.2f} ms "
          f"({serial / stream.total_time:.2f}x)")
    stream_path = outdir / "stream_3x1024.trace.json"
    write_trace(stream.pipelined_timeline, "stream 3x1024", stream_path)

    print(f"\nwrote {single_path} and {stream_path}")
    print("open them at https://ui.perfetto.dev to see the DMA/compute/"
          "host rows.")


if __name__ == "__main__":
    main()
