"""Tests for repro.types: Image validation, params, stage-time breakdowns."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.types import (
    FLOAT,
    Image,
    SharpnessParams,
    StageTimes,
    validate_plane,
)
from repro.util.io import quantize_u8


class TestValidatePlane:
    def test_accepts_valid_plane(self):
        out = validate_plane(np.zeros((16, 32)))
        assert out.dtype == FLOAT
        assert out.shape == (16, 32)

    def test_returns_copy(self):
        src = np.zeros((16, 16))
        out = validate_plane(src)
        out[0, 0] = 42.0
        assert src[0, 0] == 0.0

    def test_rejects_1d(self):
        with pytest.raises(ValidationError, match="2-D"):
            validate_plane(np.zeros(64))

    def test_rejects_3d(self):
        with pytest.raises(ValidationError, match="2-D"):
            validate_plane(np.zeros((16, 16, 3)))

    def test_rejects_too_small(self):
        with pytest.raises(ValidationError, match=">= 16"):
            validate_plane(np.zeros((8, 16)))

    def test_rejects_non_multiple_of_four(self):
        with pytest.raises(ValidationError, match="divisible by 4"):
            validate_plane(np.zeros((18, 16)))

    def test_rejects_negative_values(self):
        plane = np.zeros((16, 16))
        plane[3, 3] = -1.0
        with pytest.raises(ValidationError, match=r"\[0, 255\]"):
            validate_plane(plane)

    def test_rejects_above_255(self):
        plane = np.zeros((16, 16))
        plane[3, 3] = 255.5
        with pytest.raises(ValidationError, match=r"\[0, 255\]"):
            validate_plane(plane)

    def test_rejects_nan(self):
        plane = np.zeros((16, 16))
        plane[0, 0] = np.nan
        with pytest.raises(ValidationError, match="NaN"):
            validate_plane(plane)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_rejects_infinities(self, value):
        plane = np.zeros((16, 16))
        plane[2, 9] = value
        with pytest.raises(ValidationError, match=r"\[0, 255\]"):
            validate_plane(plane)

    def test_rejects_nan_beside_an_infinity(self):
        plane = np.zeros((16, 16))
        plane[0, 0] = np.inf
        plane[15, 15] = np.nan
        with pytest.raises(ValidationError, match="NaN"):
            validate_plane(plane)

    def test_accepts_uint8_input(self):
        src = np.arange(256, dtype=np.uint8).reshape(16, 16)
        out = validate_plane(src)
        assert out.dtype == FLOAT
        assert np.array_equal(out, src)

    @pytest.mark.parametrize("value", [300, -1])
    def test_rejects_out_of_range_integers(self, value):
        # Only uint8 skips the range scan; wider integers can still
        # hold values outside [0, 255].
        plane = np.zeros((16, 16), dtype=np.int16)
        plane[5, 7] = value
        with pytest.raises(ValidationError, match=r"\[0, 255\]"):
            validate_plane(plane)


class TestImage:
    def test_properties(self):
        img = Image.from_array(np.zeros((16, 32)))
        assert img.height == 16
        assert img.width == 32
        assert img.shape == (16, 32)
        assert img.nbytes_u8 == 16 * 32

    def test_to_u8_rounds_and_clips(self):
        plane = np.full((16, 16), 100.6)
        img = Image.from_array(plane)
        u8 = img.to_u8()
        assert u8.dtype == np.uint8
        assert int(u8[0, 0]) == 101

    def test_to_u8_rounds_as_quantize_u8(self):
        ties = [0.5, 1.5, 2.5, 127.5, 254.4, 254.5, 255.0]
        tie_plane = np.resize(np.array(ties), (16, 16))
        random_plane = np.random.default_rng(3).uniform(0, 255, (16, 24))
        for plane in (tie_plane, random_plane):
            u8 = Image.from_array(plane).to_u8()
            assert u8.dtype == np.uint8
            assert u8.tobytes() == quantize_u8(plane).tobytes()
        assert list(Image.from_array(tie_plane).to_u8()[0, :7]) == [
            0, 2, 2, 128, 254, 254, 255]

    def test_invalid_raises(self):
        with pytest.raises(ValidationError):
            Image.from_array(np.zeros((15, 16)))


class TestImageU8:
    """An 8-bit image keeps its own 8-bit copy; the float64 plane is built
    on first access."""

    def test_pixels_are_an_owned_u8_copy(self):
        src = np.arange(16 * 20, dtype=np.uint8).reshape(16, 20)
        img = Image.from_array(src)
        assert img.pixels.dtype == np.uint8
        assert img.pixels.flags.c_contiguous
        assert not np.shares_memory(img.pixels, src)
        expected = src.copy()
        src[...] = 7
        assert np.array_equal(img.pixels, expected)
        assert np.array_equal(img.plane, expected)

    def test_non_contiguous_input_is_made_contiguous(self):
        src = np.arange(32 * 16, dtype=np.uint8).reshape(32, 16).T
        img = Image(plane=src)
        assert img.pixels.flags.c_contiguous
        assert np.array_equal(img.pixels, src)

    def test_plane_is_float64_and_equal(self):
        src = np.random.default_rng(0).integers(0, 256, (16, 24),
                                                dtype=np.uint8)
        img = Image.from_array(src)
        assert img.plane.dtype == FLOAT
        assert np.array_equal(img.plane, src)
        assert img.plane is img.plane  # built once
        assert img.shape == (16, 24)

    def test_to_u8_equals_pixels(self):
        src = np.random.default_rng(1).integers(0, 256, (16, 16),
                                                dtype=np.uint8)
        img = Image.from_array(src)
        out = img.to_u8()
        assert out.dtype == np.uint8
        assert np.array_equal(out, img.pixels)
        out[...] = 0  # the caller owns the result
        assert np.array_equal(img.pixels, src)

    def test_float_pixels_are_the_plane(self):
        img = Image.from_array(np.full((16, 16), 3.5))
        assert img.pixels is img.plane
        assert img.pixels.dtype == FLOAT

    @pytest.mark.parametrize("shape", [(15, 16), (18, 16), (16, 16, 3)],
                             ids=str)
    def test_invalid_shape_raises_like_float(self, shape):
        errors = []
        for dtype in (np.uint8, FLOAT):
            with pytest.raises(ValidationError) as info:
                Image.from_array(np.zeros(shape, dtype=dtype))
            errors.append(str(info.value))
        assert errors[0] == errors[1]


class TestSharpnessParams:
    def test_defaults_valid(self):
        p = SharpnessParams()
        assert p.gain > 0 and 0 <= p.overshoot <= 1

    @pytest.mark.parametrize("kwargs", [
        {"gain": -0.1},
        {"gamma": 0.0},
        {"gamma": -1.0},
        {"strength_max": 0.0},
        {"overshoot": -0.01},
        {"overshoot": 1.01},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            SharpnessParams(**kwargs)


class TestStageTimes:
    def test_add_accumulates(self):
        st = StageTimes()
        st.add("a", 1.0)
        st.add("a", 2.0)
        st.add("b", 3.0)
        assert st.times == {"a": 3.0, "b": 3.0}
        assert st.total == 6.0

    def test_fractions_sum_to_one(self):
        st = StageTimes()
        st.add("a", 1.0)
        st.add("b", 3.0)
        fr = st.fractions()
        assert abs(sum(fr.values()) - 1.0) < 1e-12
        assert fr["b"] == 0.75

    def test_fractions_of_empty(self):
        assert StageTimes().fractions() == {}
