"""The GPU pipeline under every optimization configuration."""

import itertools

import numpy as np
import pytest

from repro.algo import stages as algo
from repro.core import BASE, LADDER, OPTIMIZED, GPUPipeline
from repro.core.config import OptimizationFlags
from repro.core.metrics import GPU_STAGE_ORDER
from repro.types import Image, SharpnessParams

from .conftest import assert_allclose


@pytest.fixture(scope="module")
def image():
    from repro.util import images
    return Image.from_array(images.natural_like(64, 64, seed=21))


@pytest.fixture(scope="module")
def reference(image):
    return algo.sharpen(image.plane)


class TestOutputCorrectness:
    @pytest.mark.parametrize("step", [name for name, _ in LADDER])
    def test_every_ladder_step_matches_reference(self, image, reference,
                                                 step):
        flags = dict(LADDER)[step]
        res = GPUPipeline(flags, caching=False).run(image)
        assert_allclose(res.final, reference["final"], atol=1e-9,
                        context=f"ladder step {step}")
        assert res.edge_mean == pytest.approx(reference["edge_mean"],
                                              rel=1e-9)

    @pytest.mark.parametrize("transfer_mode,fuse,red_gpu,vec", list(
        itertools.product(["map", "rw"], [False, True], [False, True],
                          [False, True])
    ))
    def test_flag_grid_matches_reference(self, image, reference,
                                         transfer_mode, fuse, red_gpu, vec):
        """4-factor sweep: every combination produces the same image."""
        flags = OptimizationFlags(
            transfer_mode=transfer_mode,
            transfer_padded_only=vec,  # vectorize requires the padded path
            pad_on_transfer=False,
            fuse_sharpness=fuse,
            reduction_on_gpu=red_gpu,
            vectorize=vec,
        )
        res = GPUPipeline(flags, caching=False).run(image)
        assert_allclose(res.final, reference["final"], atol=1e-9,
                        context=f"flags {flags.describe()}")

    @pytest.mark.parametrize("border_place", ["cpu", "gpu", "auto"])
    def test_border_placements_match(self, image, reference, border_place):
        flags = OPTIMIZED.with_(border_place=border_place)
        res = GPUPipeline(flags, caching=False).run(image)
        assert_allclose(res.final, reference["final"], atol=1e-9,
                        context=f"border {border_place}")

    @pytest.mark.parametrize("unroll", [0, 1, 2])
    def test_reduction_unrolls_match(self, image, reference, unroll):
        flags = OPTIMIZED.with_(reduction_unroll=unroll)
        res = GPUPipeline(flags, caching=False).run(image)
        assert res.edge_mean == pytest.approx(reference["edge_mean"],
                                              rel=1e-9)

    @pytest.mark.parametrize("stage2", ["cpu", "gpu", "auto"])
    def test_reduction_stage2_placements_match(self, image, reference,
                                               stage2):
        flags = OPTIMIZED.with_(reduction_stage2=stage2)
        res = GPUPipeline(flags, caching=False).run(image)
        assert res.edge_mean == pytest.approx(reference["edge_mean"],
                                              rel=1e-9)

    def test_final_u8_in_range(self, image):
        u8 = GPUPipeline(OPTIMIZED).run(image).final_u8()
        assert u8.dtype == np.uint8
        assert u8.shape == image.shape


class TestEmulateMode:
    @pytest.mark.parametrize("step", ["base", "+others"])
    def test_emulated_pipeline_matches_reference(self, image, reference,
                                                 step):
        flags = dict(LADDER)[step]
        res = GPUPipeline(flags, mode="emulate").run(image)
        assert_allclose(res.final, reference["final"], atol=1e-9,
                        context=f"emulate {step}")

    def test_emulate_and_functional_same_timeline(self, image):
        """Execution mode changes how kernels run, not what they cost."""
        f = GPUPipeline(OPTIMIZED, mode="functional").run(image)
        e = GPUPipeline(OPTIMIZED, mode="emulate").run(image)
        assert f.total_time == pytest.approx(e.total_time, rel=1e-12)


class TestTimeline:
    def test_stage_breakdown_sums_to_total(self, image):
        for _, flags in LADDER:
            res = GPUPipeline(flags).run(image)
            assert res.times.total == pytest.approx(res.total_time,
                                                    rel=1e-9)

    def test_stages_use_fig13_vocabulary(self, image):
        res = GPUPipeline(OPTIMIZED).run(image)
        assert set(res.times.times) <= set(GPU_STAGE_ORDER)
        res_base = GPUPipeline(BASE).run(image)
        assert set(res_base.times.times) <= set(GPU_STAGE_ORDER)

    def test_base_launches_six_kernels(self, image):
        """Section IV: downscale, center, pError, Sobel, prelim, overshoot
        (reduction and border on the CPU)."""
        res = GPUPipeline(BASE).run(image)
        assert res.kernel_launches == 6
        assert not res.border_ran_on_gpu

    def test_fused_pipeline_launches_fewer_kernels(self, image):
        base = GPUPipeline(BASE).run(image)
        fused = GPUPipeline(BASE.with_(
            transfer_mode="rw", transfer_padded_only=True,
            fuse_sharpness=True)).run(image)
        assert fused.kernel_launches == base.kernel_launches - 2

    def test_clfinish_removed_by_eliminate_sync(self, image):
        with_sync = GPUPipeline(OPTIMIZED.with_(eliminate_sync=False)) \
            .run(image)
        without = GPUPipeline(OPTIMIZED).run(image)
        syncs = [e for e in with_sync.timeline.events if e.kind == "sync"]
        assert len(syncs) == with_sync.kernel_launches
        assert not [e for e in without.timeline.events if e.kind == "sync"]
        assert without.total_time < with_sync.total_time

    def test_monotone_timeline(self, image):
        res = GPUPipeline(OPTIMIZED).run(image)
        events = res.timeline.events
        for prev, cur in zip(events, events[1:]):
            assert cur.start == pytest.approx(prev.end)


class TestPlacementBehaviour:
    def test_small_image_auto_border_on_cpu(self, image):
        res = GPUPipeline(OPTIMIZED).run(image)  # 64x64 < 768
        assert not res.border_ran_on_gpu

    def test_forced_gpu_border(self, image):
        res = GPUPipeline(OPTIMIZED.with_(border_place="gpu")).run(image)
        assert res.border_ran_on_gpu
        assert res.kernel_launches >= 6

    def test_auto_stage2_small_image_on_cpu(self, image):
        res = GPUPipeline(OPTIMIZED).run(image)
        assert not res.reduction_stage2_on_gpu

    def test_forced_gpu_stage2(self, image):
        res = GPUPipeline(OPTIMIZED.with_(reduction_stage2="gpu")) \
            .run(image)
        assert res.reduction_stage2_on_gpu

    def test_base_cpu_reduction_costs_pedge_transfer(self):
        """The Fig. 16 mechanism: CPU reduction ships the whole pEdge
        matrix, so the GPU path wins once the image is non-trivial (at
        64x64 the CPU path legitimately wins — the same small-size effect
        the paper reports)."""
        from repro.util import images
        big = Image.from_array(images.natural_like(256, 256, seed=1))
        cpu_red = GPUPipeline(OPTIMIZED.with_(reduction_on_gpu=False)) \
            .run(big)
        gpu_red = GPUPipeline(OPTIMIZED).run(big)
        t_cpu = cpu_red.times.times["reduction"]
        t_gpu = gpu_red.times.times["reduction"]
        assert t_cpu > t_gpu


class TestParamsAndInputs:
    def test_custom_params_respected(self, image):
        strong = GPUPipeline(
            OPTIMIZED,
            SharpnessParams(gain=3.0, overshoot=1.0, strength_max=8.0),
        ).run(image)
        weak = GPUPipeline(
            OPTIMIZED, SharpnessParams(gain=0.0),
        ).run(image)
        # gain=0 -> no edge boost at all; gain=3 sharpens hard.
        assert not np.allclose(strong.final, weak.final)
        assert_allclose(
            weak.final,
            algo.sharpen(image.plane, SharpnessParams(gain=0.0))["final"],
            atol=1e-9, context="gain=0 matches reference",
        )

    def test_accepts_raw_array(self):
        from repro.util import images
        plane = images.gradient(32, 32)
        res = GPUPipeline(OPTIMIZED).run(plane)
        assert res.final.shape == (32, 32)

    def test_rectangular_image(self):
        from repro.util import images
        plane = images.natural_like(32, 64, seed=3)
        res = GPUPipeline(OPTIMIZED, caching=False).run(plane)
        assert_allclose(res.final, algo.sharpen(plane)["final"], atol=1e-9,
                        context="rectangular")
