"""Canonical vectorized implementations of the sharpness stages.

The geometry and interpretation decisions are documented in DESIGN.md
section 3; the docstrings below restate the exact contracts that all other
implementations (scalar golden reference, simulated-GPU kernels) must honour.

These are the pipeline's only vectorized numerics: the kernels'
functional faces call the whole-frame functions, the strip executor
(:mod:`repro.algo.strips`, run by plan replay and the CPU pipeline) calls
the row-range forms strip by strip.  A whole-frame function is its row-range form over every row, so
strip boundaries cannot change a bit.  Whole-frame functions validate
their inputs and never mutate them; ``out=`` must have the result's shape,
and scratch arrays are used up to the size needed.

The row-range forms are pitch-linear: rows ``[r0, r1)`` of a ``W``-wide
plane are ``n = r1 - r0`` full-width rows, C-contiguous, so each
elementwise step is one 1-D call over ``n * W`` elements and each
stencil neighbour is a fixed flat offset (``+-1`` across, ``+-W`` down).
A neighbour that wraps from one row's end to the next row's start lands
only in border columns (0 and 1, W-2 and W-1), whose values each form
overwrites or leaves documented as junk; :func:`_flat` makes every flat
view and raises rather than return a copy.

The stages that read only the original (:func:`downscale`,
:func:`sobel_rows`, :func:`minmax3x3_rows`, :func:`perror`) branch on its
dtype: a ``uint8`` frame is read as is and summed in a narrow integer
type that holds every partial sum exactly (``uint16`` for the 4x4 block
sums, ``int16`` for the Sobel terms), and the exact integer result is
cast to float64 where a float64 value is needed.  Every other dtype is
computed in float64, where the same sums of small integers are exact
too, so both branches produce the same bits.  The same holds one stage
further on: the strip executor sums each strip of an integer pEdge
exactly in ``int64`` (:func:`reduce_sum`), and gathers its strength from
:func:`strength_table` (:func:`strength_lookup`).  Scratch, narrow or
not, is a view over the leading bytes of the caller's C-contiguous
float64 scratch (:func:`_scratch`).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ValidationError
from ..types import FLOAT, SCALE, SharpnessParams, validate_plane

# ---------------------------------------------------------------------------
# Predefined parameter matrices (DESIGN.md section 3)
# ---------------------------------------------------------------------------

#: 4x2 upscale parameter matrix: row ``k`` holds the 2-tap interpolation
#: weights for phase ``k`` of the x4 body upscale (``P @ D @ P.T`` form of
#: Fig. 5).  Rows sum to 1, so constant images are preserved.
UPSCALE_P = np.array(
    [
        [7.0 / 8.0, 1.0 / 8.0],
        [5.0 / 8.0, 3.0 / 8.0],
        [3.0 / 8.0, 5.0 / 8.0],
        [1.0 / 8.0, 7.0 / 8.0],
    ],
    dtype=FLOAT,
)

#: 1-D border interpolation weights: position ``4c + k`` of an upscaled
#: border line blends downscaled samples ``c`` and ``c + 1`` with weights
#: ``BORDER_WEIGHTS[k]``.  ``k == 0`` lands exactly on sample ``c``.
BORDER_WEIGHTS = np.array(
    [
        [1.0, 0.0],
        [3.0 / 4.0, 1.0 / 4.0],
        [1.0 / 2.0, 1.0 / 2.0],
        [1.0 / 4.0, 3.0 / 4.0],
    ],
    dtype=FLOAT,
)

#: Reduction workgroup layout (section V.C): 128 work-items (two GCN
#: wavefronts) that each first-add 8 elements during load, so one
#: workgroup sums a contiguous ``GROUP_SPAN``-element slice of pEdge.
REDUCTION_WG = 128
REDUCTION_ELEMENTS_PER_THREAD = 8
GROUP_SPAN = REDUCTION_WG * REDUCTION_ELEMENTS_PER_THREAD

#: Sobel convolution masks (Fig. 7).  Signs are irrelevant after the absolute
#: value; these are the classical kernels.
SOBEL_GX = np.array(
    [[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]], dtype=FLOAT
)
SOBEL_GY = np.array(
    [[-1.0, -2.0, -1.0], [0.0, 0.0, 0.0], [1.0, 2.0, 1.0]], dtype=FLOAT
)


def _as_original(src: np.ndarray) -> np.ndarray:
    """``src`` as the original-reading stages take it: ``uint8`` as is,
    anything else as float64."""
    arr = np.asarray(src)
    return arr if arr.dtype == np.uint8 else arr.astype(FLOAT, copy=False)


def _check_plane(src: np.ndarray, name: str = "src") -> np.ndarray:
    arr = _as_original(src)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got ndim={arr.ndim}")
    h, w = arr.shape
    if h % SCALE or w % SCALE:
        raise ValidationError(
            f"{name} sides must be divisible by {SCALE}, got {h}x{w}"
        )
    return arr


def _flat(arr: np.ndarray) -> np.ndarray:
    """The 1-D view of the C-contiguous ``arr``.  Any other array raises:
    ``reshape`` would return a copy, and writes into it would be lost."""
    if not arr.flags.c_contiguous:
        raise ValidationError("a flat view needs a C-contiguous array")
    return arr.reshape(-1)


def _scratch(buf: np.ndarray | None, shape: tuple[int, ...],
             dtype=FLOAT) -> np.ndarray:
    """A ``shape`` array of ``dtype`` over the leading bytes of the
    C-contiguous scratch ``buf`` (:func:`_flat`), or a new array.  One
    float64 scratch array thus also serves the narrow integer stages."""
    if buf is None:
        return np.empty(shape, dtype=dtype)
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    raw = _flat(buf).view(np.uint8)
    if raw.size < nbytes:
        raise ValidationError(
            f"scratch of {raw.size} bytes is short of {nbytes}")
    return raw[:nbytes].view(dtype).reshape(shape)


# ---------------------------------------------------------------------------
# Stage 1: downscale
# ---------------------------------------------------------------------------


def downscale(src: np.ndarray, out: np.ndarray | None = None, *,
              colsum: np.ndarray | None = None) -> np.ndarray:
    """Mean-pool the plane with non-overlapping 4x4 blocks (Fig. 2).

    ``out[i, j] = mean(src[4i:4i+4, 4j:4j+4])``; output shape is
    ``(H/4, W/4)``.  Sums run in order, ``((a0+a1)+a2)+a3``, along each row
    into ``colsum`` (``(H, W/4)`` scratch), then down the columns: explicit
    slice adds, three times faster than a strided multi-axis reduce.

    A ``uint8`` ``src`` is summed in ``uint16`` (a block sums to at most
    16 * 255), the column pass in place in ``colsum``; only the division
    by 16 runs in float64.
    """
    arr = _check_plane(src)
    h, w = arr.shape
    out = _scratch(out, (h // SCALE, w // SCALE))
    acc = np.uint16 if arr.dtype == np.uint8 else FLOAT
    cols = arr.reshape(h, w // SCALE, SCALE)
    s1 = _scratch(colsum, (h, w // SCALE), acc)
    np.add(cols[:, :, 0], cols[:, :, 1], out=s1, dtype=acc)
    for k in range(2, SCALE):
        np.add(s1, cols[:, :, k], out=s1, dtype=acc)
    rows = s1.reshape(h // SCALE, SCALE, w // SCALE)
    total = out if acc is FLOAT else rows[:, 0]
    np.add(rows[:, 0], rows[:, 1], out=total)
    for k in range(2, SCALE):
        np.add(total, rows[:, k], out=total)
    np.divide(total, FLOAT(SCALE * SCALE), out=out)
    return out


# ---------------------------------------------------------------------------
# Stage 2: upscale (border + body)
# ---------------------------------------------------------------------------


def upscale_border_line(line: np.ndarray, out_len: int) -> np.ndarray:
    """Upscale one downscaled border line to length ``out_len`` (Fig. 3).

    Sample ``c`` lands at position ``4c``; the three vacancies after it are
    interpolated from samples ``c`` and ``c + 1`` with
    :data:`BORDER_WEIGHTS`; the last three positions (which have no right
    neighbour) are copied from position ``out_len - 4``.
    """
    d = np.asarray(line, dtype=FLOAT)
    if d.ndim != 1:
        raise ValidationError(f"border line must be 1-D, got ndim={d.ndim}")
    n = d.shape[0]
    if out_len != SCALE * n:
        raise ValidationError(
            f"out_len must be {SCALE}*len(line)={SCALE * n}, got {out_len}"
        )
    out = np.empty(out_len, dtype=FLOAT)
    left = d[:-1]
    right = d[1:]
    out[0::SCALE] = d
    for k in range(1, SCALE):
        wl, wr = BORDER_WEIGHTS[k]
        out[k : out_len - SCALE : SCALE][: n - 1] = wl * left + wr * right
    out[out_len - 3 :] = out[out_len - SCALE]
    return out


def upscale_body_rows(down: np.ndarray, out: np.ndarray, r0: int, r1: int,
                      *, rows: np.ndarray | None = None,
                      taps: np.ndarray | None = None) -> None:
    """Write upscaled rows ``[r0, r1)`` that lie in the body (``2 ..
    H-3``) into ``out``, their ``(r1 - r0, W)`` full-width rows (row ``i``
    is ``up[r0 + i]``; C-contiguous): the body columns ``2 .. W-3`` hold
    ``up``, the border columns 0, 1, W-2 and W-1 of those rows junk.

    Body row ``b`` blends ``down[b // 4]`` and ``down[b // 4 + 1]`` with
    the weights of phase ``b % 4`` into ``rows`` (``(n, W/4)`` scratch);
    then ``[b, 2 + 4q + k]`` is ``wl * rows[b, q] + wr * rows[b, q + 1]``.
    Over the flat rows that is ``qa[j] + qb[j + 1]`` at flat ``2 + k +
    4j``, with ``qa``, ``qb`` the products of all of ``rows`` with ``wl``
    and ``wr``; the ``j`` that pair one row's last sample with the next
    row's first land in the border columns.  Phases 0 and 3 use the same
    two weights swapped, and so do phases 1 and 2, so the horizontal step
    makes four products, two at a time in ``taps`` (flat scratch of ``2 *
    n * W/4`` elements), and no step allocates.
    """
    h, wd = SCALE * down.shape[0], down.shape[1]
    y0, y1 = max(r0, 2), min(r1, h - 2)
    if y1 <= y0:
        return
    n = y1 - y0
    b0, b1 = y0 - 2, y1 - 2
    rows = _scratch(rows, (n, wd))
    taps = _scratch(taps, (2 * n * wd,))
    for k in range(SCALE):
        bk = b0 + (k - b0) % SCALE  # first body row of phase k
        if bk >= b1:
            continue
        i0, c = bk // SCALE, (b1 - bk + SCALE - 1) // SCALE
        wl, wr = UPSCALE_P[k]
        left, right = taps[:2 * c * wd].reshape(2, c, wd)
        np.multiply(down[i0:i0 + c], wl, out=left)
        np.multiply(down[i0 + 1:i0 + 1 + c], wr, out=right)
        np.add(left, right, out=rows[bk - b0::SCALE])
    m = n * wd
    flat, body = _flat(rows), _flat(out[y0 - r0:y1 - r0])
    qa, qb = taps.reshape(2, m)
    for k in (0, 1):  # phase 3 has phase 0's weights swapped, 2 has 1's
        wl, wr = UPSCALE_P[k]
        np.multiply(flat, wl, out=qa)
        np.multiply(flat, wr, out=qb)
        np.add(qa[:-1], qb[1:], out=body[2 + k::SCALE][:m - 1])
        np.add(qb[:-1], qa[1:], out=body[5 - k::SCALE][:m - 1])


def upscale_body(down: np.ndarray,
                 up: np.ndarray | None = None) -> np.ndarray:
    """Upscale the body region (Fig. 4/5).

    Every 2x2 block of ``down`` (stride 1) produces the 4x4 block
    ``P @ D2x2 @ P.T`` of the output (stride 4).  The returned array has
    shape ``(H - 4, W - 4)`` and belongs at ``up[2:H-2, 2:W-2]`` — it is
    that view of ``up`` when the C-contiguous ``(H, W)`` plane is given,
    whose border columns in rows ``2 .. H-3`` are then left as junk
    (:func:`upscale_border_apply` overwrites them).

    The computation is separable (:func:`upscale_body_rows`), which is
    algebraically identical to the ``P @ D @ P.T`` form.
    """
    d = np.asarray(down, dtype=FLOAT)
    if d.ndim != 2 or d.shape[0] < 2 or d.shape[1] < 2:
        raise ValidationError(
            f"downscaled matrix must be 2-D with sides >= 2, got {d.shape}"
        )
    h, w = SCALE * d.shape[0], SCALE * d.shape[1]
    if up is None:
        up = np.empty((h, w), dtype=FLOAT)
    upscale_body_rows(d, up, 0, h)
    return up[2:h - 2, 2:w - 2]


def upscale_border_ring(down: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two-pixel border ring of the upscaled plane (Fig. 3): rows 0,
    1, H-2, H-1 as a ``(4, W)`` array and columns 0, 1, W-2, W-1 as an
    ``(H, 4)`` array, with every cell as :func:`upscale_border_apply`
    leaves it.  O(H + W): the strip executor upscales interior rows
    itself and takes their ends from here.

    Assembly order is canonical (DESIGN.md section 3) so that every
    implementation produces identical corners:

    1. first border row duplicated into rows 0 and 1;
    2. last border row duplicated into rows H-2 and H-1;
    3. first border column duplicated into columns 0 and 1;
    4. last border column duplicated into columns W-2 and W-1;
    5. bottom-right 2x2 corner overwritten with ``up[H-3, W-1]``.

    Step 5 is kept for faithfulness to the paper's description, but with
    :func:`upscale_border_line`'s copy rule it is provably redundant: the
    cells it writes already hold ``down[-1, -1]`` (the test suite asserts
    this), which is what lets the GPU border kernel run the four lines in
    parallel without a cross-workgroup ordering hazard.
    """
    d = np.asarray(down, dtype=FLOAT)
    nr, nc = d.shape
    h, w = SCALE * nr, SCALE * nc
    row0 = upscale_border_line(d[0], w)
    rowl = upscale_border_line(d[nr - 1], w)
    col0 = upscale_border_line(d[:, 0], h)
    coll = upscale_border_line(d[:, nc - 1], h)
    rows = np.stack([row0, row0, rowl, rowl])
    cols = np.stack([col0, col0, coll, coll], axis=1)
    cols[h - 2:, 2:] = cols[h - 3, 3]
    # The columns are written after the rows, so they own the crossings.
    ring = [0, 1, h - 2, h - 1]
    rows[:, :2] = cols[ring, :2]
    rows[:, w - 2:] = cols[ring, 2:]
    return rows, cols


def upscale_border_apply(up: np.ndarray, down: np.ndarray) -> None:
    """Write the border construction of Fig. 3 into ``up`` in place: the
    ring of :func:`upscale_border_ring`."""
    d = np.asarray(down, dtype=FLOAT)
    nr, nc = d.shape
    h, w = SCALE * nr, SCALE * nc
    if up.shape != (h, w):
        raise ValidationError(
            f"upscaled buffer shape {up.shape} does not match {SCALE}x "
            f"the downscaled shape {d.shape}"
        )
    rows, cols = upscale_border_ring(d)
    up[[0, 1, h - 2, h - 1]] = rows
    up[:, [0, 1, w - 2, w - 1]] = cols


def upscale_interior_rows(down: np.ndarray,
                          ring: tuple[np.ndarray, np.ndarray],
                          r0: int, r1: int, out: np.ndarray, *,
                          rows: np.ndarray | None = None,
                          taps: np.ndarray | None = None) -> np.ndarray:
    """Upscaled interior rows ``[r0, r1)`` (``1 <= r0 < r1 <= H - 1``),
    every column, into their ``(r1 - r0, W)`` full-width rows ``out``:
    the body from :func:`upscale_body_rows` (scratch ``rows``/``taps``),
    then rows 1 and H-2 and columns 0, 1, W-2 and W-1 from ``ring``
    (:func:`upscale_border_ring`), over the body's junk.  Returns
    ``out``."""
    top_bottom, sides = ring
    h = SCALE * down.shape[0]
    upscale_body_rows(down, out, r0, r1, rows=rows, taps=taps)
    if r0 == 1:
        out[0] = top_bottom[1]
    if r1 == h - 1:
        out[-1] = top_bottom[2]
    out[:, :2] = sides[r0:r1, :2]
    out[:, -2:] = sides[r0:r1, 2:]
    return out


def upscale(down: np.ndarray) -> np.ndarray:
    """Full upscale: body (``up[2:H-2, 2:W-2]``) plus the Fig. 3 border."""
    up = np.empty([SCALE * n for n in np.shape(down)], dtype=FLOAT)
    upscale_body(down, up)
    upscale_border_apply(up, down)
    return up


# ---------------------------------------------------------------------------
# Stage 3: difference matrix
# ---------------------------------------------------------------------------


def perror(src: np.ndarray, upscaled: np.ndarray,
           out: np.ndarray | None = None) -> np.ndarray:
    """Difference matrix ``pError = original - upscaled``.  A ``uint8``
    original given an ``out`` (which must not overlap ``upscaled``) is
    first copied into it: a contiguous cast and a same-type subtract take
    two thirds of the time of one mixed-type subtract, with its bits."""
    a = _as_original(src)
    b = np.asarray(upscaled, dtype=FLOAT)
    if a.shape != b.shape:
        raise ValidationError(
            f"shape mismatch: original {a.shape} vs upscaled {b.shape}"
        )
    if out is not None and a.dtype == np.uint8:
        np.copyto(out, a)
        a = out
    return np.subtract(a, b, out=out)


# ---------------------------------------------------------------------------
# Stage 4a: Sobel
# ---------------------------------------------------------------------------


def sobel_rows(src: np.ndarray, edge: np.ndarray, r0: int, r1: int, *,
               tcol: np.ndarray | None = None,
               urow: np.ndarray | None = None,
               gx: np.ndarray | None = None,
               gy: np.ndarray | None = None) -> None:
    """Sobel magnitude of interior rows ``[r0, r1)`` (``1 <= r0 < r1 <=
    H - 1``) into ``edge[r0:r1]``, with columns 0 and W-1 zero; ``src``
    and ``edge`` are C-contiguous ``(H, W)`` planes.

    Separable, in the association order of the 3x3 masks:
    ``gx = (ne + 2*e + se) - (nw + 2*w + sw)`` from the column sums of the
    rows' flat pixels (``tcol``: scratch of ``n * W`` elements), ``gy =
    (sw + 2*s + se) - (nw + 2*n + ne)`` from the row sums of the flat
    halo rows ``r0 - 1 .. r1`` (``urow``: ``(n + 2) * W``; ``gx``, ``gy``:
    ``n * W``).  Flat pixel ``p`` of the rows gets ``|gx| + |gy|`` from
    offsets ``p +- 1`` and ``p +- W``; the ones in columns 0 and W-1 wrap
    across a row end and are zeroed again after the add.

    A ``uint8`` ``src`` runs in ``int16`` scratch (``|Gx| + |Gy|`` is at
    most :data:`EDGE_MAX_U8`); the last add writes ``edge``, an ``int16``
    plane in the strip executor, or float64 (cast by the add).
    """
    w = src.shape[1]
    n = r1 - r0
    m = n * w
    acc = np.int16 if src.dtype == np.uint8 else FLOAT
    halo = _flat(src[r0 - 1:r1 + 1])
    tc = _scratch(tcol, (m,), acc)
    np.multiply(halo[w:w + m], 2, out=tc, dtype=acc)
    np.add(halo[:m], tc, out=tc)
    np.add(tc, halo[2 * w:], out=tc)
    dx = np.subtract(tc[2:], tc[:-2], out=_scratch(gx, (m - 2,), acc))
    ur = _scratch(urow, (m + 2 * w - 2,), acc)
    np.multiply(halo[1:-1], 2, out=ur, dtype=acc)
    np.add(halo[:-2], ur, out=ur)
    np.add(ur, halo[2:], out=ur)
    dy = np.subtract(ur[2 * w:], ur[:m - 2], out=_scratch(gy, (m - 2,), acc))
    np.abs(dx, out=dx)
    np.abs(dy, out=dy)
    rows = edge[r0:r1]
    np.add(dx, dy, out=_flat(rows)[1:m - 1])
    rows[:, 0] = 0
    rows[:, w - 1] = 0


def sobel(src: np.ndarray) -> np.ndarray:
    """Sobel edge magnitude ``|Gx| + |Gy|`` with a zero border (Fig. 6/7)."""
    arr = np.ascontiguousarray(_check_plane(src))
    h, w = arr.shape
    out = np.zeros((h, w), dtype=FLOAT)
    if arr.size:
        sobel_rows(arr, out, 1, h - 1)
    return out


# ---------------------------------------------------------------------------
# Stage 4b: reduction
# ---------------------------------------------------------------------------


def reduce_sum(values: np.ndarray) -> float:
    """Total of all elements (the quantity the GPU tree reduction computes).

    An integer array (a strip of an 8-bit frame's ``int16`` pEdge) is
    added in ``int64``: every partial of the float64 sum of the same
    values is an integer below 2**53, so both give the same bits.
    """
    arr = np.asarray(values)
    if arr.dtype.kind in "iu":
        return float(arr.sum(dtype=np.int64))
    return float(arr.astype(FLOAT, copy=False).sum())


def group_sums(flat: np.ndarray, count: int, n_groups: int,
               span: int) -> np.ndarray:
    """Per-workgroup sums of ``flat[:count]``: group ``g`` adds the
    contiguous slice ``[g * span, (g + 1) * span)`` (the last one is
    cut at ``count``).  The partials are float64.

    A contiguous row of a reshape and the equivalent 1-D slice run the
    same pairwise summation, so every partial has the bits of that
    slice's ``.sum()``.
    """
    full = count // span
    if full == n_groups:
        sums = flat[:count].reshape(n_groups, span).sum(axis=1)
        return sums.astype(FLOAT, copy=False)
    partials = np.empty(n_groups, dtype=FLOAT)
    if full:
        partials[:full] = flat[:full * span].reshape(full, span).sum(axis=1)
    partials[full] = flat[full * span:count].sum()
    return partials


def reduce_mean(values: np.ndarray,
                levels: tuple[tuple[int, int], ...] = ()) -> float:
    """Arithmetic mean of all elements of ``values``, read as float64.

    ``levels`` is the device reduction's level chain, ``(count,
    n_groups)`` per launch: the flat values are folded through
    :func:`group_sums` (span :data:`GROUP_SPAN`) level by level before
    the final host sum, which reproduces the kernel's summation order.
    """
    arr = np.asarray(values, dtype=FLOAT)
    if arr.size == 0:
        raise ValidationError("cannot reduce an empty array")
    partials = arr
    for count, n_groups in levels:
        partials = group_sums(partials.ravel(), count, n_groups, GROUP_SPAN)
    return reduce_sum(partials) / float(arr.size)


# ---------------------------------------------------------------------------
# Stage 4c: brightness strength + preliminary sharpened matrix
# ---------------------------------------------------------------------------


#: ``x ** 0.5`` and ``sqrt(x)`` agree bitwise on IEEE-754 platforms numpy
#: targets; probe once so :func:`strength_map` only takes the sqrt
#: shortcut when the platform actually honours the identity.
_POW_PROBE = np.concatenate([
    np.array([0.0, 1.0, 2.0, 0.5, 255.0, 1e-300, 1e300], dtype=FLOAT),
    np.geomspace(1e-12, 1e12, 97, dtype=FLOAT),
])
POW_HALF_IS_SQRT = bool(
    np.array_equal(np.power(_POW_PROBE, FLOAT(0.5)), np.sqrt(_POW_PROBE))
)


def strength_map(
    p_edge: np.ndarray, edge_mean: float, params: SharpnessParams,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Per-pixel brightness-strength factor (DESIGN.md section 3).

    ``strength = clamp(gain * (pEdge / mean)**gamma, 0, strength_max)``.
    A non-positive mean (flat image) yields an all-zero map: no edges, no
    sharpening.  This is the exponentiation-heavy step the paper calls the
    "calculation of the strength matrix".  The default ``gamma == 0.5``
    takes ``sqrt`` where :data:`POW_HALF_IS_SQRT` holds.
    """
    edge = np.asarray(p_edge, dtype=FLOAT)
    if out is None:
        out = np.empty(edge.shape, dtype=FLOAT)
    if edge_mean <= 0.0:
        out[...] = 0.0
        return out
    np.divide(edge, FLOAT(edge_mean), out=out)
    if params.gamma == 0.5 and POW_HALF_IS_SQRT:
        np.sqrt(out, out=out)
    else:
        np.power(out, FLOAT(params.gamma), out=out)
    np.multiply(out, FLOAT(params.gain), out=out)
    return np.clip(out, 0.0, params.strength_max, out=out)


#: Bound on an 8-bit frame's Sobel magnitude, ``|Gx| + |Gy| <= 8 * 255``,
#: which sizes its ``int16`` pEdge and :func:`strength_table` (the largest
#: magnitude actually reached is ``6 * 255``).
EDGE_MAX_U8 = 8 * 255


def strength_table(edge_mean: float, params: SharpnessParams) -> np.ndarray:
    """:func:`strength_map` of every pEdge value an 8-bit frame can have,
    ``0 .. EDGE_MAX_U8``: the same function on the same float64 values, so
    :func:`strength_lookup` gives the bits of :func:`strength_map`."""
    return strength_map(np.arange(EDGE_MAX_U8 + 1, dtype=FLOAT), edge_mean,
                        params)


def strength_lookup(table: np.ndarray, p_edge: np.ndarray,
                    out: np.ndarray | None = None, *,
                    idx: np.ndarray | None = None) -> np.ndarray:
    """The strength of an integer ``p_edge``, gathered from ``table``
    (:func:`strength_table`).  The values are first copied into ``idx``
    (``intp`` scratch of ``p_edge``'s shape): gathering with narrow
    indices would make NumPy allocate that copy itself."""
    ix = _scratch(idx, p_edge.shape, np.intp)
    np.copyto(ix, p_edge)
    return np.take(table, ix, out=out, mode="clip")


def preliminary_sharpen(
    upscaled: np.ndarray, p_error: np.ndarray, strength: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Preliminary sharpened matrix: ``upscaled + strength * pError``."""
    u = np.asarray(upscaled, dtype=FLOAT)
    e = np.asarray(p_error, dtype=FLOAT)
    s = np.asarray(strength, dtype=FLOAT)
    if not (u.shape == e.shape == s.shape):
        raise ValidationError(
            f"shape mismatch: upscaled {u.shape}, pError {e.shape}, "
            f"strength {s.shape}"
        )
    out = np.multiply(s, e, out=out)
    return np.add(u, out, out=out)


# ---------------------------------------------------------------------------
# Stage 4d: overshoot control
# ---------------------------------------------------------------------------


def minmax3x3_rows(src: np.ndarray, r0: int, r1: int, *,
                   mn: np.ndarray | None = None,
                   mx: np.ndarray | None = None,
                   ext: np.ndarray | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """3x3 min and max around interior rows ``[r0, r1)`` of the
    C-contiguous ``src``: two ``(n, W)`` full-width row arrays whose
    columns ``1 .. W-2`` hold the extrema; columns 0 and W-1 hold junk
    (values of ``src``'s neighbourhood across a row end).

    Separable: the min/max of flat neighbours ``p - 1``, ``p``, ``p + 1``
    over the halo rows ``r0 - 1 .. r1`` (scratch ``ext``, ``(n + 2) *
    W`` elements, shared by both passes), then of the results ``W``
    apart.  The extrema keep ``src``'s dtype, so those of a ``uint8``
    frame are ``uint8``.
    """
    w = src.shape[1]
    n = r1 - r0
    m = n * w
    dt = src.dtype
    halo = _flat(src[r0 - 1:r1 + 1])
    lo, hi = _scratch(mn, (n, w), dt), _scratch(mx, (n, w), dt)
    for op, res in ((np.minimum, lo), (np.maximum, hi)):
        t = op(halo[:-2], halo[1:-1], out=_scratch(ext, (m + 2 * w - 2,), dt))
        op(t, halo[2:], out=t)
        flat = _flat(res)
        body = flat[1:m - 1]
        op(t[:m - 2], t[w:w + m - 2], out=body)
        op(body, t[2 * w:], out=body)
        # Flat pixels 0 and m - 1 (border columns) get no extrema above;
        # a neighbour's keeps them finite.
        flat[0], flat[m - 1] = flat[1], flat[m - 2]
    return lo, hi


def minmax3x3(src: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """3x3 min and max around every interior pixel: two ``(H - 2, W -
    2)`` arrays, the interior columns of :func:`minmax3x3_rows` over
    every interior row."""
    arr = np.ascontiguousarray(src)
    h, w = arr.shape
    lo, hi = minmax3x3_rows(arr, 1, h - 1)
    return lo[:, 1:w - 1], hi[:, 1:w - 1]


def clip_border(top: np.ndarray, bottom: np.ndarray, left: np.ndarray,
                right: np.ndarray, final: np.ndarray) -> None:
    """Clip the four lines of a plane's one-pixel border ring to [0, 255]
    into that ring of ``final``, rounded as :func:`overshoot_rows` rounds
    a ``uint8`` ``final``: overshoot control leaves the border
    unblended."""
    h, w = final.shape
    u8 = final.dtype == np.uint8
    for line, src in ((np.s_[0], top), (np.s_[h - 1], bottom),
                      (np.s_[:, 0], left), (np.s_[:, w - 1], right)):
        if u8:
            final[line] = np.rint(np.clip(src, 0.0, 255.0))
        else:
            np.clip(src, 0.0, 255.0, out=final[line])


def overshoot_rows(prelim: np.ndarray, mn: np.ndarray, mx: np.ndarray,
                   overshoot: float, final: np.ndarray, r0: int, *,
                   over: np.ndarray | None = None,
                   under: np.ndarray | None = None) -> None:
    """Overshoot control of interior rows ``[r0, r0 + n)`` into the whole
    rows ``final[r0:r0+n]`` of the ``(H, W)`` plane ``final``, a float64
    or ``uint8`` one; what lands in their columns 0 and W-1 is junk, for
    :func:`clip_border` to overwrite.

    ``prelim``, ``mn`` and ``mx`` are the rows' C-contiguous ``(n, W)``
    full-width preliminary values and 3x3 extrema
    (:func:`minmax3x3_rows`); ``prelim`` is used up as scratch.
    ``over``/``under`` are boolean scratch.  The overshooting pixels
    (typically 10-20%) are found in the unclipped ``prelim`` and gathered
    through flat indices, which touch only them (a boolean mask walks
    every pixel); their blend runs in place in the gathered values, so
    its temporaries are three arrays per overshooting pixel.  ``prelim``
    is then clipped to [0, 255] in place, the blended values are
    scattered back, a ``uint8`` ``final``'s rows are rounded half to even
    in place (the rule of :func:`~repro.util.io.quantize_u8`; every value
    is already in [0, 255]), and the rows are stored into ``final`` in
    one contiguous copy.
    """
    n, w = prelim.shape
    flat = _flat(prelim)
    m = flat.size
    osc = FLOAT(overshoot)
    hi = np.greater(flat, _flat(mx), out=_scratch(over, (m,), bool))
    lo = np.less(flat, _flat(mn), out=_scratch(under, (m,), bool))
    blended = []
    for is_over, mask, bound in ((True, hi, mx), (False, lo, mn)):
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            continue
        vals, lv = np.take(flat, idx), np.take(bound, idx)
        if is_over:  # min(lv + osc * (pv - lv), 255)
            np.subtract(vals, lv, out=vals)
            np.multiply(vals, osc, out=vals)
            np.add(lv, vals, out=vals)
            np.minimum(vals, 255.0, out=vals)
        else:  # max(lv - osc * (lv - pv), 0)
            np.subtract(lv, vals, out=vals)
            np.multiply(vals, osc, out=vals)
            np.subtract(lv, vals, out=vals)
            np.maximum(vals, 0.0, out=vals)
        del lv  # before the next mask's gathers
        blended.append((idx, vals))
    np.clip(flat, 0.0, 255.0, out=flat)
    for idx, vals in blended:
        flat[idx] = vals
    if final.dtype == np.uint8:
        np.rint(flat, out=flat)
    final[r0:r0 + n] = prelim


def overshoot_control(
    preliminary: np.ndarray, src: np.ndarray, params: SharpnessParams
) -> np.ndarray:
    """Overshoot control (Fig. 8) producing the final sharpened plane.

    Body pixels are compared against the 3x3 min/max of the *original*
    image; overshoots are blended back with the ``overshoot`` tuning factor
    and the result clamped to [0, 255].  Border rows/columns are copied from
    the preliminary matrix (and clamped so the output is a valid image —
    interpretation documented in DESIGN.md).
    """
    p = np.asarray(preliminary, dtype=FLOAT)
    o = np.asarray(src, dtype=FLOAT)
    if p.shape != o.shape:
        raise ValidationError(
            f"shape mismatch: preliminary {p.shape} vs original {o.shape}"
        )
    h, w = p.shape
    final = np.empty((h, w), dtype=FLOAT)
    if p.size:
        mn, mx = minmax3x3_rows(np.ascontiguousarray(o), 1, h - 1)
        body = p[1:h - 1].copy()
        overshoot_rows(body, mn, mx, params.overshoot, final, 1)
        clip_border(p[0], p[h - 1], p[:, 0], p[:, w - 1], final)
    return final


# ---------------------------------------------------------------------------
# Full reference pipeline
# ---------------------------------------------------------------------------


def sharpen(
    src: np.ndarray, params: SharpnessParams | None = None
) -> dict[str, np.ndarray | float]:
    """Run the whole sharpness pipeline; return all intermediates.

    Returns a dict with keys ``downscaled``, ``upscaled``, ``p_error``,
    ``p_edge``, ``edge_mean``, ``strength``, ``preliminary``, ``final``.
    """
    params = params or SharpnessParams()
    arr = validate_plane(src)
    down = downscale(arr)
    up = upscale(down)
    err = perror(arr, up)
    edge = sobel(arr)
    edge_mean = reduce_mean(edge)
    strength = strength_map(edge, edge_mean, params)
    prelim = preliminary_sharpen(up, err, strength)
    final = overshoot_control(prelim, arr, params)
    return {
        "downscaled": down,
        "upscaled": up,
        "p_error": err,
        "p_edge": edge,
        "edge_mean": edge_mean,
        "strength": strength,
        "preliminary": prelim,
        "final": final,
    }
