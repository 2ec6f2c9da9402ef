"""Netpbm I/O, colour pipeline, and the package CLI."""

import numpy as np
import pytest

from repro.__main__ import PRESETS, main as cli_main
from repro.algo import stages as algo
from repro.algo.color import rgb_to_ycbcr, sharpen_rgb, ycbcr_to_rgb
from repro.errors import ValidationError
from repro.util.io import read_pgm, read_ppm, write_pgm, write_ppm

from .conftest import assert_allclose


class TestPgm:
    def test_roundtrip(self, tmp_path, rng):
        plane = np.rint(rng.uniform(0, 255, (24, 32)))
        path = tmp_path / "x.pgm"
        write_pgm(path, plane)
        assert_allclose(read_pgm(path), plane, context="pgm roundtrip")

    def test_float_values_rounded(self, tmp_path):
        path = tmp_path / "x.pgm"
        write_pgm(path, np.full((4, 4), 10.6))
        assert read_pgm(path)[0, 0] == 11.0

    def test_values_clamped(self, tmp_path):
        path = tmp_path / "x.pgm"
        write_pgm(path, np.full((4, 4), 300.0))
        assert read_pgm(path)[0, 0] == 255.0

    def test_ascii_pgm(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P2\n# comment\n3 2\n255\n0 1 2\n3 4 5\n")
        out = read_pgm(path)
        assert out.shape == (2, 3)
        assert out[1, 2] == 5.0

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# made by hand\n2 2\n255\n" + bytes(4))
        assert read_pgm(path).shape == (2, 2)

    def test_maxval_rescaled(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 2\n15\n" + bytes([15, 0, 7, 15]))
        out = read_pgm(path)
        assert out[0, 0] == 255.0

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(ValidationError, match="PGM"):
            read_pgm(path)

    def test_truncated_raster_rejected(self, tmp_path):
        path = tmp_path / "trunc.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
        with pytest.raises(ValidationError, match="truncated"):
            read_pgm(path)

    def test_write_rejects_3d(self, tmp_path):
        with pytest.raises(ValidationError):
            write_pgm(tmp_path / "x.pgm", np.zeros((4, 4, 3)))

    def test_maxval_255_binary_reads_writable_uint8(self, tmp_path):
        path = tmp_path / "u8.pgm"
        raster = bytes(range(0, 256, 17)) + bytes([255, 128, 1, 0])
        path.write_bytes(b"P5\n4 5\n255\n" + raster)
        out = read_pgm(path)
        assert out.dtype == np.uint8
        assert out.flags.writeable
        assert out.tolist() == np.frombuffer(raster, np.uint8).reshape(
            5, 4).tolist()

    def test_maxval_255_ascii_reads_uint8(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P2\n3 2\n255\n0 1 2\n128 254 255\n")
        out = read_pgm(path)
        assert out.dtype == np.uint8
        assert out.flags.writeable
        assert out.tolist() == [[0, 1, 2], [128, 254, 255]]

    def test_maxval_below_255_reads_scaled_float64(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 2\n15\n" + bytes([15, 0, 7, 15]))
        out = read_pgm(path)
        assert out.dtype == np.float64
        assert out.tolist() == [[255.0, 0.0], [119.0, 255.0]]

    @pytest.mark.parametrize("raster, match", [
        (b"0 300 2 3", "exceeds maxval"),
        (b"0 -1 2 3", "non-numeric"),
        (b"0 x 2 3", "non-numeric"),
    ])
    def test_ascii_bad_sample_rejected(self, tmp_path, raster, match):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n2 2\n255\n" + raster + b"\n")
        with pytest.raises(ValidationError, match=match):
            read_pgm(path)

    def test_binary_sample_above_maxval_rejected(self, tmp_path):
        path = tmp_path / "over.pgm"
        raster = bytearray(16 * 16)
        raster[37] = 200
        path.write_bytes(b"P5\n16 16\n15\n" + bytes(raster))
        with pytest.raises(ValidationError, match="exceeds maxval"):
            read_pgm(path)

    @pytest.mark.parametrize("plane", [
        np.array([[-3.0, -0.5, -0.4, 0.5], [1.5, 2.5, 254.5, 255.4],
                  [255.5, 300.0, np.inf, -np.inf]]),
        np.random.default_rng(3).uniform(-20, 280, (24, 32)),
        np.random.default_rng(4).normal(128, 90, (16, 16)),
        np.random.default_rng(5).integers(0, 256, (8, 8), dtype=np.uint8),
    ], ids=["grid", "uniform", "normal", "uint8"])
    def test_write_quantizes_like_rint_then_clip(self, tmp_path, plane):
        path = tmp_path / "q.pgm"
        write_pgm(path, plane)
        expected = np.clip(np.rint(plane), 0, 255).astype(np.uint8)
        header = f"P5\n{plane.shape[1]} {plane.shape[0]}\n255\n"
        assert path.read_bytes() == header.encode() + expected.tobytes()


class TestPpm:
    def test_roundtrip(self, tmp_path, rng):
        rgb = np.rint(rng.uniform(0, 255, (16, 16, 3)))
        path = tmp_path / "x.ppm"
        write_ppm(path, rgb)
        assert_allclose(read_ppm(path), rgb, context="ppm roundtrip")

    def test_wrong_shape_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            write_ppm(tmp_path / "x.ppm", np.zeros((4, 4)))

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
        with pytest.raises(ValidationError, match="PPM"):
            read_ppm(path)

    def test_sample_above_maxval_rejected(self, tmp_path):
        path = tmp_path / "over.ppm"
        raster = bytearray(16 * 16 * 3)
        raster[37] = 200
        path.write_bytes(b"P6\n16 16\n15\n" + bytes(raster))
        with pytest.raises(ValidationError, match="exceeds maxval"):
            read_ppm(path)


class TestColor:
    def test_ycbcr_roundtrip(self, rng):
        rgb = rng.uniform(0, 255, (16, 16, 3))
        out = ycbcr_to_rgb(*rgb_to_ycbcr(rgb))
        assert_allclose(out, rgb, atol=1e-9, context="ycbcr roundtrip")

    def test_gray_image_has_neutral_chroma(self):
        gray = np.full((8, 8, 3), 100.0)
        y, cb, cr = rgb_to_ycbcr(gray)
        assert_allclose(y, np.full((8, 8), 100.0), context="gray luma")
        assert_allclose(cb, np.full((8, 8), 128.0), context="gray cb")
        assert_allclose(cr, np.full((8, 8), 128.0), context="gray cr")

    def test_luma_weights_bt601(self):
        red = np.zeros((4, 4, 3))
        red[..., 0] = 255.0
        y, _, _ = rgb_to_ycbcr(red)
        assert y[0, 0] == pytest.approx(0.299 * 255.0)

    def test_sharpen_rgb_only_touches_luma(self, rng):
        """Chroma planes are preserved exactly."""
        from repro.util import images
        base = images.natural_like(32, 32, seed=4)
        rgb = np.stack([base, np.roll(base, 3, axis=0), 255 - base],
                       axis=-1)
        out = sharpen_rgb(rgb)
        _, cb_in, cr_in = rgb_to_ycbcr(rgb)
        _, cb_out, cr_out = rgb_to_ycbcr(out)
        # Chroma may be clipped where RGB hit [0,255]; compare on the
        # unclipped interior of value space.
        interior = np.all((out > 1) & (out < 254), axis=-1)
        assert interior.sum() > 100
        assert_allclose(cb_out[interior], cb_in[interior], atol=1e-6,
                        context="cb preserved")
        assert_allclose(cr_out[interior], cr_in[interior], atol=1e-6,
                        context="cr preserved")

    def test_sharpen_rgb_uses_canonical_luma(self):
        from repro.util import images
        base = images.natural_like(32, 32, seed=4)
        rgb = np.stack([base] * 3, axis=-1)  # gray
        out = sharpen_rgb(rgb)
        expected = algo.sharpen(base)["final"]
        assert_allclose(out[..., 0], expected, atol=1e-9,
                        context="gray sharpen = luma sharpen")

    def test_custom_luma_sharpener(self, rng):
        rgb = rng.uniform(10, 240, (16, 16, 3))
        out = sharpen_rgb(rgb, luma_sharpener=lambda y: y)  # identity
        assert_allclose(out, np.clip(rgb, 0, 255), atol=1e-9,
                        context="identity sharpener")

    def test_shape_mismatch_sharpener_rejected(self, rng):
        rgb = rng.uniform(0, 255, (16, 16, 3))
        with pytest.raises(ValidationError, match="shape"):
            sharpen_rgb(rgb, luma_sharpener=lambda y: y[:8])

    def test_bad_rgb_shape_rejected(self):
        with pytest.raises(ValidationError):
            rgb_to_ycbcr(np.zeros((4, 4)))


class TestCli:
    def test_demo_and_sharpen_pgm(self, tmp_path, capsys):
        src = tmp_path / "in.pgm"
        dst = tmp_path / "out.pgm"
        assert cli_main(["demo", str(src), "--size", "64"]) == 0
        assert cli_main(["sharpen", str(src), str(dst),
                         "--preset", "crisp"]) == 0
        out = read_pgm(dst)
        assert out.shape == (64, 64)
        assert not np.array_equal(out, read_pgm(src))

    def test_sharpen_ppm(self, tmp_path, rng):
        src = tmp_path / "in.ppm"
        dst = tmp_path / "out.ppm"
        write_ppm(src, rng.uniform(0, 255, (32, 32, 3)))
        assert cli_main(["sharpen", str(src), str(dst),
                         "--pipeline", "cpu"]) == 0
        assert read_ppm(dst).shape == (32, 32, 3)

    def test_report_flag(self, tmp_path, capsys):
        src = tmp_path / "in.pgm"
        dst = tmp_path / "out.pgm"
        cli_main(["demo", str(src), "--size", "64"])
        cli_main(["sharpen", str(src), str(dst), "--report"])
        err = capsys.readouterr().err
        assert "simulated time" in err

    def test_param_overrides(self, tmp_path):
        src = tmp_path / "in.pgm"
        cli_main(["demo", str(src), "--size", "64"])
        a = tmp_path / "a.pgm"
        b = tmp_path / "b.pgm"
        cli_main(["sharpen", str(src), str(a), "--gain", "0.0"])
        cli_main(["sharpen", str(src), str(b), "--gain", "3.0",
                  "--overshoot", "1.0"])
        assert not np.array_equal(read_pgm(a), read_pgm(b))

    def test_unsupported_format_fails_cleanly(self, tmp_path, capsys):
        src = tmp_path / "in.png"
        src.write_bytes(b"not an image")
        rc = cli_main(["sharpen", str(src), str(tmp_path / "o.pgm")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_image_size_fails_cleanly(self, tmp_path, capsys):
        src = tmp_path / "in.pgm"
        write_pgm(src, np.zeros((30, 30)))  # not divisible by 4
        rc = cli_main(["sharpen", str(src), str(tmp_path / "o.pgm")])
        assert rc == 1

    def test_presets_all_valid(self):
        for name, params in PRESETS.items():
            assert params.gamma > 0, name
