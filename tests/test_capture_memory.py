"""A plan capture holds no pixels.

A plan-cache miss captures its :class:`~repro.core.plan.ExecutionPlan`
from a dry run of the generic host code, which prices every command by
its geometry and byte count.  Its buffers are shape-only, its read-backs
and mappings are read-only zero placeholders, and its host steps build
no plane, so a capture's memory does not grow with the frame.
"""

import tracemalloc

import numpy as np
import pytest

from repro.cl import CommandQueue, Context
from repro.core import LADDER, OPTIMIZED, GPUPipeline
from repro.errors import InvalidBufferError
from repro.obs.runctx import NULL_CONTEXT
from repro.simgpu.memory import GlobalBuffer, placeholder
from repro.types import Image
from repro.util import images


def _image(h, w):
    return Image.from_array(
        np.rint(images.natural_like(h, w, seed=5)).astype(np.uint8))


def _capture_peak(pipe, image):
    """Traced peak bytes of one capture of ``image``, whose input copy
    was made before tracing starts."""
    tracemalloc.start()
    try:
        plan, final, _ = pipe._run_instrumented(image, NULL_CONTEXT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.kernel_launches > 0
    assert final.shape == image.shape
    return peak


def _is_placeholder(a):
    return not a.flags.writeable and not any(a.strides) and not a.any()


def test_a_2048_capture_peaks_under_one_mib():
    pipe = GPUPipeline(OPTIMIZED)
    assert pipe._plan_eligible()
    # Warm the imports and memoized grids the first capture would pay.
    pipe._run_instrumented(_image(64, 64), NULL_CONTEXT)
    assert _capture_peak(pipe, _image(2048, 2048)) < 1 << 20


@pytest.mark.parametrize("stage2", [None, "gpu", "cpu"])
@pytest.mark.parametrize("flags", [f for _, f in LADDER],
                         ids=[n for n, _ in LADDER])
def test_a_512_capture_creates_no_pixel_sized_array(flags, stage2):
    if stage2 is not None:
        flags = flags.with_(reduction_stage2=stage2)
    image = _image(512, 512)
    # One byte per pixel is the smallest plane a frame has.
    assert _capture_peak(GPUPipeline(flags), image) < image.height * \
        image.width


def test_a_capture_reads_back_a_placeholder():
    image = _image(48, 96)
    _, final, edge_mean = GPUPipeline(OPTIMIZED)._run_instrumented(
        image, NULL_CONTEXT)
    assert _is_placeholder(final)
    assert edge_mean == 0.0


def test_a_dryrun_pipeline_returns_a_placeholder_final():
    image = _image(48, 96)
    res = GPUPipeline(OPTIMIZED, mode="dryrun").run(image)
    assert res.final.shape == image.shape
    assert _is_placeholder(res.final)
    u8 = GPUPipeline(OPTIMIZED, mode="dryrun").run(image,
                                                   out_dtype=np.uint8)
    assert u8.final.dtype == np.uint8 and not u8.final.any()


class TestShapeOnlyBuffer:
    def test_keeps_shape_dtype_and_transfer_size(self):
        buf = GlobalBuffer((6, 10), transfer_itemsize=1, allocate=False)
        assert buf.data is None
        assert buf.shape == (6, 10)
        assert buf.dtype == np.float64
        assert buf.nbytes == 60
        assert GlobalBuffer((6, 10), allocate=False).nbytes == 480

    def test_writes_are_checked_and_store_nothing(self):
        buf = GlobalBuffer((4, 4), allocate=False)
        buf.write(np.ones((4, 4)))
        buf.write(np.ones((2, 2)), (1, 1))
        with pytest.raises(InvalidBufferError, match="shape"):
            buf.write(np.ones((3, 4)))
        assert _is_placeholder(buf.read())
        buf.release()
        with pytest.raises(InvalidBufferError):
            buf.read()

    def test_placeholder_is_one_element(self):
        p = placeholder((4096, 4096), np.uint8)
        assert p.shape == (4096, 4096) and p.dtype == np.uint8
        assert _is_placeholder(p)
        assert p.base.nbytes == 1


class TestDryQueue:
    @staticmethod
    def _queue(mode):
        ctx = Context(mode=mode)
        return ctx, CommandQueue(ctx)

    def test_dry_context_makes_shape_only_buffers(self):
        ctx, queue = self._queue("dryrun")
        buf = ctx.create_buffer((8, 8), transfer_itemsize=4)
        assert buf.data is None
        queue.enqueue_write_buffer(buf, placeholder((8, 8)))
        queue.enqueue_write_buffer_rect(buf, placeholder((4, 4)), (2, 2))
        assert _is_placeholder(queue.enqueue_read_buffer(buf))
        assert queue.transfer_bytes == {"h2d": 256 + 64, "d2h": 256}

    @pytest.mark.parametrize("write", [False, True])
    def test_dry_mappings_are_placeholders(self, write):
        ctx, queue = self._queue("dryrun")
        buf = ctx.create_buffer((8, 8), transfer_itemsize=4)
        mapped = queue.enqueue_map_buffer(buf, write=write)
        assert mapped.shape == (8, 8) and _is_placeholder(mapped)
        queue.enqueue_unmap(buf, mapped)
        assert queue.transfer_bytes["h2d" if write else "d2h"] == 256

    def test_functional_write_mapping_holds_the_buffer(self):
        ctx, queue = self._queue("functional")
        buf = ctx.create_buffer((4, 4))
        queue.enqueue_write_buffer(buf, np.full((4, 4), 3.0))
        mapped = queue.enqueue_map_buffer(buf, write=True)
        assert np.array_equal(mapped, np.full((4, 4), 3.0))
        assert not np.shares_memory(mapped, buf.data)
        mapped[0, 0] = 7.0
        queue.enqueue_unmap(buf, mapped)
        assert buf.data[0, 0] == 7.0 and buf.data[1, 1] == 3.0
