"""Calibration anchors and the dry-run execution mode that powers them."""

import numpy as np
import pytest

from repro.core import BASE, LADDER, OPTIMIZED, GPUPipeline
from repro.errors import ConfigError
from repro.experiments import calibrate
from repro.obs.runctx import NULL_CONTEXT
from repro.simgpu.device import I5_3470, W8000
from repro.types import Image
from repro.util import images

#: ``(shape, reduction_stage2 override)``: square, rectangular, the ragged
#: strip shape of the digest tests, the two-level GPU reduction chain, and
#: one frame each side of the 768x768 border crossover.
_DRY_SHAPES = [
    ((64, 64), None),
    ((48, 96), None),
    ((68, 2048), None),
    ((1024, 1028), "gpu"),
    ((764, 764), None),
    ((768, 768), None),
]


class TestDryRunMode:
    def test_time_identical_to_functional(self):
        img = Image.from_array(images.natural_like(128, 128, seed=3))
        for flags in (BASE, OPTIMIZED):
            f = GPUPipeline(flags, mode="functional").run(img)
            d = GPUPipeline(flags, mode="dryrun").run(img)
            assert d.total_time == pytest.approx(f.total_time, rel=1e-12)
            assert d.times.times == pytest.approx(f.times.times, rel=1e-12)

    @pytest.mark.parametrize("shape,stage2", _DRY_SHAPES,
                             ids=[f"{h}x{w}" for (h, w), _ in _DRY_SHAPES])
    @pytest.mark.parametrize("flags", [f for _, f in LADDER],
                             ids=[n for n, _ in LADDER])
    def test_events_and_bytes_equal_functional_exactly(self, flags, shape,
                                                       stage2):
        """A cached pipeline's plan comes from a dry run: its events and
        transfer bytes must be the functional run's, bit for bit."""
        if stage2 is not None:
            flags = flags.with_(reduction_stage2=stage2)
        img = Image.from_array(images.natural_like(*shape, seed=3))
        # A plan-eligible pipeline runs the generic host code dry.
        dry, dry_final, _ = GPUPipeline(flags)._run_instrumented(
            img, NULL_CONTEXT)
        ref, _, _ = GPUPipeline(flags, caching=False)._run_instrumented(
            img, NULL_CONTEXT)

        def events(plan):
            return [(ev.name, ev.kind, ev.stage, ev.duration)
                    for ev in plan.timeline.events]

        assert events(dry) == events(ref)
        assert dry.transfer_bytes == ref.transfer_bytes
        assert np.all(dry_final == 0.0)

    def test_dryrun_skips_kernel_bodies(self):
        img = Image.from_array(images.natural_like(64, 64, seed=3))
        res = GPUPipeline(OPTIMIZED, mode="dryrun").run(img)
        # The final buffer was never computed: all zeros.
        assert np.all(res.final == 0.0)

    def test_unknown_mode_rejected(self):
        from repro.cl import Context
        with pytest.raises(ConfigError):
            Context(mode="warp-speed")


class TestAnchors:
    @pytest.fixture(scope="class")
    def anchor_list(self):
        return calibrate.anchors()

    def test_all_anchors_present(self, anchor_list):
        names = " ".join(a.name for a in anchor_list)
        assert "base speedup @256" in names
        assert "@4096" in names
        assert "crossover" in names

    def test_every_anchor_within_10_percent(self, anchor_list):
        for a in anchor_list:
            assert abs(a.log_error) < 0.10, (a.name, a.measured)

    def test_objective_small(self):
        assert calibrate.calibration_error() < 0.005

    def test_report_renders(self):
        text = calibrate.report()
        assert "Calibration" in text and "error" in text

    def test_shipped_constants_are_grid_optimal(self):
        """fit() over its default grid must return the shipped values."""
        ce, me, err = calibrate.fit()
        assert ce == pytest.approx(I5_3470.efficiency)
        assert me == pytest.approx(W8000.mem_efficiency)
        assert err == pytest.approx(calibrate.calibration_error(),
                                    rel=1e-9)

    def test_perturbed_constants_are_worse(self):
        base_err = calibrate.calibration_error()
        worse_cpu = calibrate.calibration_error(
            cpu=I5_3470.with_(efficiency=0.06))
        worse_mem = calibrate.calibration_error(
            W8000.with_(mem_efficiency=0.9))
        assert worse_cpu > base_err
        assert worse_mem > base_err
