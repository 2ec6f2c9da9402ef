"""The OpenCL-flavoured host API: contexts, buffers, queues, programs."""

import numpy as np
import pytest

from repro.cl import Buffer, CommandQueue, Context, KernelSpec, Program
from repro.errors import (
    CLError,
    ConfigError,
    InvalidBufferError,
    InvalidKernelArgsError,
    MapError,
    QueueError,
)
from repro.simgpu.costmodel import KernelCost


def _noop_spec(name="noop"):
    def functional(global_size, local_size, *args):
        pass

    def cost(device, global_size, local_size, args):
        items = 1
        for g in global_size:
            items *= g
        return KernelCost(work_items=items, workgroup_size=64)

    return KernelSpec(name=name, functional=functional, cost=cost)


@pytest.fixture
def ctx():
    return Context()


@pytest.fixture
def queue(ctx):
    return CommandQueue(ctx)


class TestContext:
    def test_default_device_is_w8000(self, ctx):
        assert "W8000" in ctx.device.name

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigError):
            Context(mode="turbo")


class TestTransfers:
    def test_write_read_roundtrip(self, ctx, queue, rng):
        buf = ctx.create_buffer((8, 8))
        host = rng.uniform(0, 1, (8, 8))
        queue.enqueue_write_buffer(buf, host)
        out = queue.enqueue_read_buffer(buf)
        assert np.array_equal(out, host)
        assert len(ctx.timeline.of_kind("transfer")) == 2

    def test_transfer_time_uses_itemsize(self, ctx, queue):
        small = ctx.create_buffer((64, 64), transfer_itemsize=1)
        large = ctx.create_buffer((64, 64), transfer_itemsize=4)
        queue.enqueue_write_buffer(small, np.zeros((64, 64)))
        t1 = ctx.timeline.events[-1].duration
        queue.enqueue_write_buffer(large, np.zeros((64, 64)))
        t2 = ctx.timeline.events[-1].duration
        assert t2 > t1

    def test_foreign_context_rejected(self, queue):
        other = Context()
        buf = other.create_buffer((4, 4))
        with pytest.raises(InvalidBufferError, match="foreign"):
            queue.enqueue_write_buffer(buf, np.zeros((4, 4)))


class TestMapUnmap:
    def test_map_write_commits_on_unmap(self, ctx, queue, rng):
        buf = ctx.create_buffer((4, 4))
        host = rng.uniform(0, 1, (4, 4))
        mapped = queue.enqueue_map_buffer(buf, write=True)
        mapped[...] = host
        # Not visible yet on the device:
        assert not np.array_equal(buf.data, host)
        queue.enqueue_unmap(buf, mapped)
        assert np.array_equal(buf.data, host)

    def test_map_read_returns_contents(self, ctx, queue, rng):
        buf = ctx.create_buffer((4, 4))
        host = rng.uniform(0, 1, (4, 4))
        queue.enqueue_write_buffer(buf, host)
        out = queue.enqueue_map_buffer(buf, write=False)
        queue.enqueue_unmap(buf)
        assert np.array_equal(out, host)

    def test_double_map_rejected(self, ctx, queue):
        buf = ctx.create_buffer((4, 4))
        queue.enqueue_map_buffer(buf, write=True)
        with pytest.raises(MapError, match="already mapped"):
            queue.enqueue_map_buffer(buf, write=True)

    def test_unmap_without_map_rejected(self, ctx, queue):
        buf = ctx.create_buffer((4, 4))
        with pytest.raises(MapError, match="without map"):
            queue.enqueue_unmap(buf)

    def test_kernel_on_mapped_buffer_rejected(self, ctx, queue):
        buf = ctx.create_buffer((4, 4))
        queue.enqueue_map_buffer(buf, write=True)
        kernel = _noop_spec().create().set_args(buf)
        with pytest.raises(MapError, match="mapped"):
            queue.enqueue_nd_range(kernel, (4, 4), (4, 4))


class TestWriteBufferRect:
    def test_rect_lands_in_subregion(self, ctx, queue, rng):
        buf = ctx.create_buffer((6, 6))
        host = rng.uniform(1, 2, (4, 4))
        queue.enqueue_write_buffer_rect(buf, host, (1, 1))
        assert np.array_equal(buf.data[1:5, 1:5], host)
        assert np.all(buf.data[0] == 0)
        assert np.all(buf.data[:, 0] == 0)

    def test_rect_out_of_bounds_rejected(self, ctx, queue):
        buf = ctx.create_buffer((4, 4))
        with pytest.raises(InvalidBufferError, match="exceeds"):
            queue.enqueue_write_buffer_rect(buf, np.zeros((4, 4)), (1, 1))

    def test_rect_requires_2d(self, ctx, queue):
        buf = ctx.create_buffer((16,))
        with pytest.raises(InvalidBufferError, match="2-D"):
            queue.enqueue_write_buffer_rect(buf, np.zeros(4), (0, 0))


class TestKernelLaunch:
    def test_enqueue_runs_functional(self, ctx, queue):
        buf = ctx.create_buffer((4, 4))

        def functional(global_size, local_size, dst):
            dst[...] = 7.0

        def cost(device, global_size, local_size, args):
            return KernelCost(work_items=16, workgroup_size=16)

        spec = KernelSpec(name="fill", functional=functional, cost=cost)
        queue.enqueue_nd_range(spec.create().set_args(buf), (4, 4), (4, 4))
        assert np.all(buf.data == 7.0)
        assert len(ctx.timeline.of_kind("kernel")) == 1

    def test_unset_args_rejected(self, queue):
        kernel = _noop_spec().create()
        with pytest.raises(InvalidKernelArgsError, match="set_args"):
            queue.enqueue_nd_range(kernel, (4,), (4,))

    def test_arg_arity_checked(self):
        spec = KernelSpec(
            name="k", functional=lambda *a: None,
            cost=lambda *a: KernelCost(work_items=1),
            arg_names=("a", "b"),
        )
        with pytest.raises(InvalidKernelArgsError, match="expected 2"):
            spec.create().set_args(1)

    def test_stage_label_recorded(self, ctx, queue):
        queue.enqueue_nd_range(
            _noop_spec().create().set_args(), (64,), (64,), stage="sobel"
        )
        assert ctx.timeline.events[-1].stage == "sobel"


class TestQueueLifecycle:
    def test_finish_records_sync(self, ctx, queue):
        queue.finish()
        assert ctx.timeline.events[-1].kind == "sync"
        assert ctx.timeline.events[-1].duration == \
            ctx.device.sync_overhead_s

    def test_host_step(self, ctx, queue):
        queue.host_step("border_host", 1e-4, stage="border")
        e = ctx.timeline.events[-1]
        assert e.kind == "host" and e.duration == 1e-4

    def test_release_blocks_use(self, ctx, queue):
        queue.release()
        with pytest.raises(QueueError):
            queue.finish()
        with pytest.raises(QueueError):
            queue.enqueue_write_buffer(ctx.create_buffer((4, 4)),
                                       np.zeros((4, 4)))


class TestProgram:
    def test_create_kernel_by_name(self, ctx):
        prog = Program(ctx, [_noop_spec("a"), _noop_spec("b")])
        assert prog.kernel_names == ["a", "b"]
        assert prog.create_kernel("a").name == "a"

    def test_unknown_kernel_rejected(self, ctx):
        prog = Program(ctx, [_noop_spec("a")])
        with pytest.raises(CLError, match="no kernel"):
            prog.create_kernel("zzz")

    def test_mismatched_registration_rejected(self, ctx):
        with pytest.raises(CLError, match="registered under"):
            Program(ctx, {"wrong": _noop_spec("right")})


class TestBufferObject:
    def test_nbytes_and_shape(self, ctx):
        buf = ctx.create_buffer((8, 4), transfer_itemsize=1)
        assert buf.shape == (8, 4)
        assert buf.nbytes == 32

    def test_release_propagates(self, ctx, queue):
        buf = ctx.create_buffer((4, 4))
        buf.release()
        with pytest.raises(InvalidBufferError):
            queue.enqueue_read_buffer(buf)

    def test_data_property_checks_liveness(self, ctx):
        buf = ctx.create_buffer((4, 4))
        buf.release()
        with pytest.raises(InvalidBufferError):
            _ = buf.data

    def test_buffer_is_buffer_type(self, ctx):
        assert isinstance(ctx.create_buffer((4, 4)), Buffer)
