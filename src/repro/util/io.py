"""Netpbm image I/O (PGM/PPM), dependency-free.

The library operates on brightness planes; PGM (P5/P2) is the natural
interchange format and every image viewer opens it.  PPM (P6) support exists
so the colour pipeline (:mod:`repro.algo.color`) can round-trip RGB images.

Only 8-bit-per-sample images (``maxval <= 255``) are supported — the
algorithm's native pixel depth.
"""

from __future__ import annotations

import os
import pathlib
import re
import threading

import numpy as np

from ..errors import ValidationError


def _temp_sibling(path: pathlib.Path) -> pathlib.Path:
    """The temp file an atomic write of ``path`` goes through, named by
    process and thread, so concurrent writers never share one."""
    return path.with_name(
        f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")


def atomic_write_text(path: str | pathlib.Path, text: str) -> pathlib.Path:
    """Write ``text`` to ``path`` atomically (temp file + rename).

    A crashed or interrupted writer never leaves a truncated file at
    ``path``: the content lands in a sibling temp file first and is moved
    into place with :func:`os.replace`, which is atomic on POSIX and
    Windows.  Accepts ``str`` or :class:`pathlib.Path`; returns the final
    path.
    """
    path = pathlib.Path(path)
    tmp = _temp_sibling(path)
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:  # repro: ignore[PL-BROAD-EXCEPT] tmp cleanup, re-raised
        tmp.unlink(missing_ok=True)
        raise
    return path


def atomic_write_bytes(path: str | pathlib.Path,
                       data: bytes) -> pathlib.Path:
    """Binary sibling of :func:`atomic_write_text`: temp file + rename."""
    path = pathlib.Path(path)
    tmp = _temp_sibling(path)
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:  # repro: ignore[PL-BROAD-EXCEPT] tmp cleanup, re-raised
        tmp.unlink(missing_ok=True)
        raise
    return path

_TOKEN = re.compile(rb"(?:\s|^)(?:#[^\n]*\n\s*)*([0-9]+|P[1-6])")


def _read_tokens(data: bytes, count: int, start: int = 0):
    """Read ``count`` whitespace/comment-separated header tokens."""
    tokens = []
    pos = start
    while len(tokens) < count:
        match = _TOKEN.match(data, pos)
        if not match:
            raise ValidationError("truncated or malformed Netpbm header")
        tokens.append(match.group(1))
        pos = match.end()
    return tokens, pos


def read_pgm(path) -> np.ndarray:
    """Read a P5 (binary) or P2 (ASCII) PGM file as a 2-D plane.

    With ``maxval`` 255 the plane is a writable ``uint8`` array holding the
    file's samples, so the 8-bit stages run on it in exact integers.  With
    a smaller ``maxval`` the samples are rescaled to ``[0, 255]`` and the
    plane is float64.  A sample above ``maxval`` is a corrupt file and
    raises :class:`~repro.errors.ValidationError`.
    """
    data = pathlib.Path(path).read_bytes()
    (magic,), pos = _read_tokens(data, 1)
    if magic not in (b"P5", b"P2"):
        raise ValidationError(
            f"not a PGM file (magic {magic!r}); expected P5 or P2"
        )
    (w, h, maxval), pos = _read_tokens(data, 3, pos)
    w, h, maxval = int(w), int(h), int(maxval)
    if not 0 < maxval <= 255:
        raise ValidationError(f"unsupported maxval {maxval} (need <= 255)")
    if magic == b"P5":
        raster = data[pos + 1 : pos + 1 + w * h]  # one whitespace after hdr
        if len(raster) < w * h:
            raise ValidationError("truncated PGM raster")
        plane = np.frombuffer(raster, dtype=np.uint8, count=w * h)
    else:
        values = data[pos:].split()
        if len(values) < w * h:
            raise ValidationError("truncated ASCII PGM raster")
        if not all(v.isdigit() for v in values[: w * h]):
            raise ValidationError("non-numeric sample in ASCII PGM raster")
        plane = np.array([int(v) for v in values[: w * h]], dtype=np.int64)
    # A uint8 sample cannot exceed 255, so the common P5 case skips the scan.
    if ((maxval != 255 or plane.dtype != np.uint8)
            and np.any(plane > maxval)):
        raise ValidationError(
            f"PGM sample {int(plane.max())} exceeds maxval {maxval}"
        )
    if maxval == 255:
        return plane.reshape(h, w).astype(np.uint8)
    out = plane.reshape(h, w).astype(np.float64)
    out *= 255.0 / maxval
    return out


def _quantize_u8(arr: np.ndarray) -> np.ndarray:
    """Round and clamp samples to ``uint8`` through one float temporary.

    Clamping to the integer bounds 0 and 255 commutes with round-half-even,
    so this gives the bytes of ``np.clip(np.rint(arr), 0, 255)``.
    """
    t = np.clip(arr, 0, 255)
    if t.dtype.kind == "f":
        np.rint(t, out=t)
    return t.astype(np.uint8, copy=False)


def write_pgm(path, plane: np.ndarray) -> None:
    """Write a float/uint8 plane as binary PGM (P5)."""
    arr = np.asarray(plane)
    if arr.ndim != 2:
        raise ValidationError(f"PGM needs a 2-D plane, got ndim={arr.ndim}")
    u8 = _quantize_u8(arr)
    h, w = u8.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + u8.tobytes())


def read_ppm(path) -> np.ndarray:
    """Read a P6 (binary) PPM file as an ``(H, W, 3)`` float64 array.

    A sample above ``maxval`` is a corrupt file and raises
    :class:`~repro.errors.ValidationError`, as in :func:`read_pgm`.
    """
    data = pathlib.Path(path).read_bytes()
    (magic,), pos = _read_tokens(data, 1)
    if magic != b"P6":
        raise ValidationError(f"not a binary PPM file (magic {magic!r})")
    (w, h, maxval), pos = _read_tokens(data, 3, pos)
    w, h, maxval = int(w), int(h), int(maxval)
    if not 0 < maxval <= 255:
        raise ValidationError(f"unsupported maxval {maxval} (need <= 255)")
    raster = data[pos + 1 : pos + 1 + 3 * w * h]
    if len(raster) < 3 * w * h:
        raise ValidationError("truncated PPM raster")
    rgb = np.frombuffer(raster, dtype=np.uint8, count=3 * w * h)
    if maxval != 255 and np.any(rgb > maxval):
        raise ValidationError(
            f"PPM sample {int(rgb.max())} exceeds maxval {maxval}"
        )
    out = rgb.reshape(h, w, 3).astype(np.float64)
    if maxval != 255:
        out *= 255.0 / maxval
    return out


def write_ppm(path, rgb: np.ndarray) -> None:
    """Write an ``(H, W, 3)`` array as binary PPM (P6)."""
    arr = np.asarray(rgb)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValidationError(
            f"PPM needs an (H, W, 3) array, got shape {arr.shape}"
        )
    u8 = _quantize_u8(arr)
    h, w, _ = u8.shape
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + u8.tobytes())
