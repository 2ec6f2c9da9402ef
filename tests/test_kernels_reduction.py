"""Tree-reduction kernels: all unroll variants, both faces, the wavefront
hazard, and the barrier accounting of Fig. 15."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cl import CommandQueue, Context
from repro.errors import ConfigError
from repro.kernels.reduction import (
    GROUP_SPAN,
    KERNEL_WAVEFRONT,
    REDUCTION_WG,
    make_reduction_spec,
    reduction_layout,
)
from repro.simgpu.device import W8000
from repro.simgpu.emulator import run_kernel
from repro.simgpu.memory import GlobalBuffer


def _run(values: np.ndarray, *, unroll: int, mode: str,
         device=W8000) -> np.ndarray:
    """Run stage 1 over ``values`` and return the partial sums."""
    n = values.size
    n_groups, gsz, lsz = reduction_layout(n)
    ctx = Context(device, mode)
    queue = CommandQueue(ctx)
    src = ctx.create_buffer(values.shape, transfer_itemsize=4)
    src.data[...] = values
    partial = ctx.create_buffer((n_groups,), transfer_itemsize=4)
    spec = make_reduction_spec(unroll=unroll)
    queue.enqueue_nd_range(spec.create().set_args(src, partial, n),
                           gsz, lsz)
    return partial.data.copy()


class TestLayout:
    def test_exact_fit(self):
        n_groups, gsz, lsz = reduction_layout(GROUP_SPAN * 3)
        assert n_groups == 3
        assert gsz == (3 * REDUCTION_WG,)
        assert lsz == (REDUCTION_WG,)

    def test_partial_group(self):
        n_groups, _, _ = reduction_layout(GROUP_SPAN + 1)
        assert n_groups == 2

    def test_invalid_rejected(self):
        with pytest.raises(ConfigError):
            reduction_layout(0)

    def test_invalid_unroll_rejected(self):
        with pytest.raises(ConfigError):
            make_reduction_spec(unroll=3)


class TestReductionCorrectness:
    @pytest.mark.parametrize("unroll", [0, 1, 2])
    @pytest.mark.parametrize("mode", ["functional", "emulate"])
    def test_partials_sum_to_total(self, rng, unroll, mode):
        values = rng.uniform(0, 255, GROUP_SPAN * 2 + 137)
        partials = _run(values, unroll=unroll, mode=mode)
        assert partials.sum() == pytest.approx(values.sum(), rel=1e-12)

    @pytest.mark.parametrize("unroll", [0, 1, 2])
    def test_each_partial_covers_its_slice(self, rng, unroll):
        values = rng.uniform(0, 255, GROUP_SPAN * 3)
        partials = _run(values, unroll=unroll, mode="emulate")
        for g in range(3):
            expected = values[g * GROUP_SPAN:(g + 1) * GROUP_SPAN].sum()
            assert partials[g] == pytest.approx(expected, rel=1e-12), g

    @pytest.mark.parametrize("wg,ept", [(REDUCTION_WG, 8), (64, 4),
                                        (256, 16)])
    @pytest.mark.parametrize("extra", [0, 137])
    def test_functional_partials_are_the_slice_sums(self, rng, wg, ept,
                                                   extra):
        """Every functional partial has the exact bits of its slice's
        ``.sum()`` (the per-group loop), at ablation layouts too."""
        span = wg * ept
        values = rng.uniform(0, 255, 3 * span + extra)
        n_groups, gsz, lsz = reduction_layout(values.size, wg=wg, ept=ept)
        partial = np.empty(n_groups)
        make_reduction_spec(wg=wg, ept=ept).functional(
            gsz, lsz, values, partial, values.size)
        assert partial.tolist() == [values[g * span:(g + 1) * span].sum()
                                    for g in range(n_groups)]

    def test_2d_source_reduces_linearly(self, rng):
        """The pipeline reduces the 2-D pEdge buffer through the flat view."""
        values = rng.uniform(0, 255, (64, 32))
        partials = _run(values, unroll=1, mode="emulate")
        assert partials.sum() == pytest.approx(values.sum(), rel=1e-12)

    @given(st.integers(min_value=1, max_value=3 * GROUP_SPAN),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_arbitrary_sizes_functional(self, n, seed):
        values = np.random.default_rng(seed).uniform(0, 255, n)
        partials = _run(values, unroll=1, mode="functional")
        assert partials.sum() == pytest.approx(values.sum(), rel=1e-12)

    @given(st.integers(min_value=1, max_value=GROUP_SPAN + 300),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=5, deadline=None)
    def test_arbitrary_sizes_emulated(self, n, seed):
        values = np.random.default_rng(seed).uniform(0, 255, n)
        partials = _run(values, unroll=1, mode="emulate")
        assert partials.sum() == pytest.approx(values.sum(), rel=1e-12)


class TestWavefrontHazard:
    def test_unrolled_kernel_wrong_on_narrow_wavefront_device(self, rng):
        """Algorithm 1 hardcodes 64-wide lock-step.  On a device with a
        16-wide wavefront the WF_SYNCs stop covering the cross-lane reads
        and the kernel silently produces wrong sums — the classic
        portability bug of unrolled reductions."""
        narrow = W8000.with_(wavefront_size=16)
        values = rng.uniform(1, 255, GROUP_SPAN)
        n_groups, gsz, lsz = reduction_layout(values.size)

        src = GlobalBuffer(values.shape, transfer_itemsize=4)
        src.data[...] = values
        partial = GlobalBuffer((n_groups,), transfer_itemsize=4)
        spec = make_reduction_spec(unroll=1)
        run_kernel(spec.emulator, gsz, lsz,
                   (src.checked(), partial.checked(), values.size),
                   device=narrow,
                   local_mem=spec.local_mem(lsz, ()))
        assert partial.data.sum() != pytest.approx(values.sum(), rel=1e-9)

    def test_plain_tree_correct_on_any_wavefront(self, rng):
        """The barrier-per-step tree has no lock-step assumption."""
        narrow = W8000.with_(wavefront_size=16)
        values = rng.uniform(1, 255, GROUP_SPAN)
        n_groups, gsz, lsz = reduction_layout(values.size)
        src = GlobalBuffer(values.shape, transfer_itemsize=4)
        src.data[...] = values
        partial = GlobalBuffer((n_groups,), transfer_itemsize=4)
        spec = make_reduction_spec(unroll=0)
        run_kernel(spec.emulator, gsz, lsz,
                   (src.checked(), partial.checked(), values.size),
                   device=narrow,
                   local_mem=spec.local_mem(lsz, ()))
        assert partial.data.sum() == pytest.approx(values.sum(), rel=1e-12)


class TestBarrierAccounting:
    def test_emulated_barriers_match_cost_model(self, rng):
        """The barrier counts the cost model charges are exactly what the
        emulator executes (Fig. 15's mechanism)."""
        values = rng.uniform(0, 255, GROUP_SPAN)  # one group
        n_groups, gsz, lsz = reduction_layout(values.size)
        for unroll in (0, 1, 2):
            spec = make_reduction_spec(unroll=unroll)
            src = GlobalBuffer(values.shape, transfer_itemsize=4)
            src.data[...] = values
            partial = GlobalBuffer((n_groups,), transfer_itemsize=4)
            stats = run_kernel(
                spec.emulator, gsz, lsz,
                (src.checked(), partial.checked(), values.size),
                device=W8000, local_mem=spec.local_mem(lsz, ()),
            )
            cost = spec.cost(W8000, gsz, lsz, (None, None, values.size))
            assert stats.barrier_releases == cost.barriers_per_group, unroll

    def test_unroll1_has_fewest_barriers(self):
        costs = {
            u: make_reduction_spec(unroll=u).cost(
                W8000, (REDUCTION_WG,), (REDUCTION_WG,),
                (None, None, GROUP_SPAN),
            ).barriers_per_group
            for u in (0, 1, 2)
        }
        assert costs[1] < costs[2] < costs[0]

    def test_wavefront_constant_matches_gcn(self):
        assert KERNEL_WAVEFRONT == 64
