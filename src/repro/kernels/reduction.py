"""Two-stage tree reduction (section V.C, Fig. 9/10, Algorithms 1 and 2).

Stage 1 splits the array across workgroups; each workgroup tree-reduces its
slice in local memory and writes one partial sum.  Stage 2 (pipeline-level)
either ships the partials to the CPU or launches this kernel again.

Kernel layout (the paper fixes "the amount of data processed per thread"):

* workgroup size ``REDUCTION_WG = 128`` — two FirePro wavefronts;
* each work-item first-adds ``REDUCTION_ELEMENTS_PER_THREAD = 8`` elements
  during load (Harris' "first add during load"), so one workgroup covers
  1024 elements;
* the in-group tree then reduces the 128 partials to 1.

Both constants live in :mod:`repro.algo.stages` and are exposed as factory
parameters so the ablation experiments can sweep them; the pipeline uses
the defaults above.  The functional face is
:func:`repro.algo.stages.group_sums`; a pipeline's level chain (one launch
per ``(count, n_groups)``) is data that
:func:`repro.algo.stages.reduce_mean` folds in the same order.

Three tree variants, matching the paper's comparison (Fig. 15):

* ``unroll=0`` — plain tree: a barrier per halving step;
* ``unroll=1`` — Algorithm 1: barriers only for the cross-wavefront steps
  (one, for the default 128-item workgroup), the rest unrolled relying on
  wavefront lock-step (``WF_SYNC``);
* ``unroll=2`` — Algorithm 2: each of the two wavefronts reduces its own
  half in lock-step, then a barrier and a final combine — one *more*
  barrier than Algorithm 1, which is exactly why the paper measures it
  slower.  (Defined for the two-wavefront 128-item workgroup only.)

The unrolled kernels hardcode the GCN wavefront size of 64, like the
paper's OpenCL source.  Running them on a simulated device with a smaller
wavefront produces wrong sums (the test suite demonstrates this), faithfully
modelling why such code is device-specific.
"""

from __future__ import annotations

import functools
import math

from .. import algo
from ..algo.stages import GROUP_SPAN  # noqa: F401 - re-exported
from ..algo.stages import REDUCTION_ELEMENTS_PER_THREAD, REDUCTION_WG
from ..cl.kernel import KernelSpec
from ..errors import ConfigError
from ..simgpu.costmodel import KernelCost
from ..simgpu.device import DeviceSpec
from ..simgpu.emulator import BARRIER, WF_SYNC
from ..util.validation import require_power_of_two
from .base import F32

#: Wavefront size the unrolled kernels are written for (GCN).
KERNEL_WAVEFRONT = 64


@functools.lru_cache(maxsize=4096)
def reduction_layout(n: int, *, wg: int = REDUCTION_WG,
                     ept: int = REDUCTION_ELEMENTS_PER_THREAD
                     ) -> tuple[int, tuple[int], tuple[int]]:
    """Grid for reducing ``n`` elements: (n_groups, global, local).

    Pure and called per frame per reduction level; memoized."""
    if n <= 0:
        raise ConfigError(f"cannot reduce {n} elements")
    require_power_of_two(wg, "workgroup size")
    if ept <= 0:
        raise ConfigError(f"elements per thread must be > 0, got {ept}")
    n_groups = math.ceil(n / (wg * ept))
    return n_groups, (n_groups * wg,), (wg,)


def barriers_for(unroll: int, wg: int) -> int:
    """Workgroup barriers one group executes, per tree variant.

    * plain tree: one after the load plus one per halving step;
    * Algorithm 1: the load barrier plus one per halving step that still
      crosses the 64-lane wavefront boundary (zero extra for ``wg=128``);
    * Algorithm 2: Algorithm 1 plus the combine barrier.
    """
    if unroll == 0:
        return int(math.log2(wg)) + 1
    cross_wavefront_steps = max(
        int(math.log2(wg)) - int(math.log2(2 * KERNEL_WAVEFRONT)), 0
    )
    if unroll == 1:
        return 1 + cross_wavefront_steps
    return 2 + cross_wavefront_steps  # unroll == 2


def _make_load_phase(wg: int, ept: int):
    def load_phase(ctx, src, n, local_sum):
        """First-add-during-load: accumulate this item's strided elements."""
        lid = ctx.get_local_id(0)
        group = ctx.get_group_id(0)
        base = group * wg * ept
        acc = 0.0
        for j in range(ept):
            idx = base + lid + j * wg
            if idx < n:
                acc += src[idx]
        local_sum[lid] = acc

    return load_phase


def _make_emulator_naive(wg: int, ept: int):
    load_phase = _make_load_phase(wg, ept)

    def emulator(ctx, src, partial, n, local_sum):
        """Plain tree: one barrier per halving step."""
        lid = ctx.get_local_id(0)
        load_phase(ctx, src, n, local_sum)
        s = wg // 2
        while s >= 1:
            yield BARRIER
            if lid < s:
                local_sum[lid] = local_sum[lid] + local_sum[lid + s]
            s >>= 1
        yield BARRIER
        if lid == 0:
            partial[ctx.get_group_id(0)] = local_sum[0]

    return emulator


def _make_emulator_unroll1(wg: int, ept: int):
    load_phase = _make_load_phase(wg, ept)

    def emulator(ctx, src, partial, n, local_sum):
        """Algorithm 1: barriers only while the step spans wavefronts."""
        lid = ctx.get_local_id(0)
        load_phase(ctx, src, n, local_sum)
        yield BARRIER
        s = wg // 2
        # Steps whose reads cross the 64-lane boundary need barriers...
        while s > KERNEL_WAVEFRONT:
            if lid < s:
                local_sum[lid] = local_sum[lid] + local_sum[lid + s]
            yield BARRIER
            s >>= 1
        # ...the rest relies on 64-wide lock-step (WF_SYNC markers).
        while s >= 1:
            if lid < s:
                local_sum[lid] = local_sum[lid] + local_sum[lid + s]
            yield WF_SYNC
            s >>= 1
        if lid == 0:
            partial[ctx.get_group_id(0)] = local_sum[0]

    return emulator


def _make_emulator_unroll2(wg: int, ept: int):
    if wg != 2 * KERNEL_WAVEFRONT:
        raise ConfigError(
            "Algorithm 2 (unroll=2) is written for exactly two wavefronts "
            f"(workgroup {2 * KERNEL_WAVEFRONT}), got {wg}"
        )
    load_phase = _make_load_phase(wg, ept)

    def emulator(ctx, src, partial, n, local_sum):
        """Algorithm 2: both wavefronts reduce their half concurrently,
        then a barrier and a combine — one extra barrier vs Algorithm 1."""
        lid = ctx.get_local_id(0)
        load_phase(ctx, src, n, local_sum)
        yield BARRIER
        s = KERNEL_WAVEFRONT // 2
        while s >= 1:
            if lid < s:
                # wavefront 0 reduces local_sum[0 .. 63]
                local_sum[lid] = local_sum[lid] + local_sum[lid + s]
            if KERNEL_WAVEFRONT <= lid < KERNEL_WAVEFRONT + s:
                # wavefront 1 reduces local_sum[64 .. 127]
                local_sum[lid] = local_sum[lid] + local_sum[lid + s]
            yield WF_SYNC
            s >>= 1
        yield BARRIER
        if lid == 0:
            partial[ctx.get_group_id(0)] = (
                local_sum[0] + local_sum[KERNEL_WAVEFRONT]
            )

    return emulator


_EMULATOR_FACTORIES = {
    0: _make_emulator_naive,
    1: _make_emulator_unroll1,
    2: _make_emulator_unroll2,
}


def make_reduction_spec(*, unroll: int = 1, wg: int = REDUCTION_WG,
                        ept: int = REDUCTION_ELEMENTS_PER_THREAD,
                        builtins: bool = False) -> KernelSpec:
    """Build a stage-1 reduction spec; args are ``(src, partial, n)``.

    ``src`` holds at least ``n`` elements (flattened); ``partial`` receives
    one sum per workgroup.  ``wg``/``ept`` override the paper's layout for
    ablation studies.
    """
    if unroll not in _EMULATOR_FACTORIES:
        raise ConfigError(f"unroll must be 0, 1 or 2, got {unroll}")
    require_power_of_two(wg, "workgroup size")
    if ept <= 0:
        raise ConfigError(f"elements per thread must be > 0, got {ept}")
    emulator = _EMULATOR_FACTORIES[unroll](wg, ept)
    span = wg * ept
    n_barriers = barriers_for(unroll, wg)

    def functional(global_size, local_size, src, partial, n):
        partial.ravel()[:] = algo.group_sums(src.ravel(), n,
                                             global_size[0] // wg, span)

    def cost(device: DeviceSpec, global_size, local_size,
             args) -> KernelCost:
        n = int(args[2])
        n_groups = global_size[0] // local_size[0]
        items = global_size[0]
        # Load: ept adds per item; tree: ~2 ops per item amortized.
        flops = items * (ept + 2.0)
        # Local traffic: each item stores its partial, the tree moves about
        # 3 more values per item through the LDS.
        local_bytes = items * 4.0 * F32
        return KernelCost(
            work_items=items,
            flops=flops,
            heavy_ops=0.0,
            slow_int_ops=items * 4.0,
            global_bytes_read=n * F32,
            global_bytes_written=n_groups * F32,
            local_bytes=local_bytes,
            barriers_per_group=float(n_barriers),
            n_groups=n_groups,
            workgroup_size=local_size[0],
            divergent=False,
            uses_builtins=builtins,
            label=f"reduction_u{unroll}",
        )

    return KernelSpec(
        name=f"reduction_u{unroll}",
        functional=functional,
        emulator=emulator,
        cost=cost,
        local_mem=lambda local_size, args: {"local_sum": local_size[0]},
        arg_names=("src", "partial", "n"),
    )
