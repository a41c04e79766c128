"""27-dim glyph feature extraction — bit-faithful to the reference.

Reference semantics (``main/categorize.c:47-140``, ``main/kd.c:639-643``):

- The glyph bbox is divided into a 5x5 grid whose cell boundaries come from
  ``lroundf`` of ``(dim-1)/GRID * k`` (cells OVERLAP by one row/col because
  ``lastLine = lround(rowDelta*(row+1)) + 1``).
- Each cell's fraction of black pixels is rounded to 3 decimals via an
  ``sprintf("%0.3f")`` / ``sscanf`` round-trip — ties near .0005 decide NN
  winners, so we reproduce the round-trip exactly.
- Pixels left of ``leftPath`` / right-or-at ``rightPath`` are excluded from
  the numerator but still count in the denominator (``categorize.c:89-98``:
  the ``continue`` skips after ``totalCells += 1``).
- dim 25: aspect ``h<w ? h/2w : 1 - w/2h``; dim 26: ``h / lineHeight``
  (falling back to the page-average glyph height when lineHeight is 0).
- ``normalizeTuple`` multiplies dims 25,26 by 3 to weight them in the metric.
"""

from __future__ import annotations

import numpy as np

from tensorflow_ocr_ray.config import GRID, TUPLELENGTH
from tensorflow_ocr_ray.core import native


def lroundf(x: float) -> int:
    """C lroundf for non-negative inputs: round half away from zero."""
    return int(np.floor(x + 0.5))


def _grid_edges(lo: int, extent: float) -> tuple[list[int], list[int]]:
    delta = np.float32(extent - 1) / np.float32(GRID)
    first = [lo + lroundf(float(delta * np.float32(k))) for k in range(GRID)]
    last = [lo + lroundf(float(delta * np.float32(k + 1))) + 1 for k in range(GRID)]
    return first, last


def round3(x: float) -> np.float32:
    """The sprintf(%0.3f)/sscanf round-trip of categorize.c:106-109."""
    return np.float32(f"{x:.3f}")


def _round3_vec(content64: np.ndarray) -> np.ndarray:
    """Vectorized %0.3f/sscanf round-trip, bit-identical to per-element
    string formatting: floor(x*1000 + 0.5)/1000 as float32 everywhere
    except values whose *1000 lands within 1e-9 of a decimal half —
    those (the only places scaled rounding and round-half-even decimal
    formatting can disagree) fall back to the string path.  The fl64
    multiply's error (< 6e-14 at y<=1000) cannot move a value across the
    1e-9 borderline band, and n/1000 -> float32 has no double-rounding
    hazard (decimal thousandths are never float32 midpoints)."""
    y = content64 * 1000.0
    frac = y - np.floor(y)
    vals = (np.floor(y + 0.5) / 1000.0).astype(np.float32)
    border = np.abs(frac - 0.5) < 1e-9
    if border.any():
        flat_c = content64.ravel()
        flat_v = vals.reshape(-1)
        for i in np.nonzero(border.ravel())[0]:
            flat_v[i] = np.float32(f"{flat_c[i]:.3f}")
    return vals


def fill_tuple(
    image: np.ndarray,
    left: int,
    right: int,
    top: int,
    bottom: int,
    line_height: int,
    fallback_glyph_height: int,
    left_path: np.ndarray | None = None,
    right_path: np.ndarray | None = None,
    out: np.ndarray | None = None,
    page_prefix: np.ndarray | None = None,
) -> np.ndarray:
    """fillTuple (main/categorize.c:47-125) over a page image (uint8 0/1/2).

    ``right``/``bottom`` are exclusive, as in the reference.  ``left_path`` /
    ``right_path``, when given, are int arrays of length ``bottom-top``
    indexed by row offset from ``top``.  Flood-marked pixels (value 2) count
    as filled, as in the reference where ISFILLED tests non-zero.

    ``page_prefix``, when given, is the caller's whole-page 2-D prefix sum
    of ``image != 0`` (shape (H+1, W+1)); it skips the per-glyph prefix
    rebuild — the dominant feature-extraction cost — and is only consulted
    when no cut paths restrict the count.
    """
    gheight = np.float32(bottom - top)
    gwidth = np.float32(right - left)
    tup = out if out is not None else np.empty(TUPLELENGTH, dtype=np.float32)

    first_line, last_line = _grid_edges(top, float(gheight))
    first_pos, last_pos = _grid_edges(left, float(gwidth))

    use_paths = left_path is not None or right_path is not None
    if use_paths or page_prefix is None:
        # Vectorized per-cell fraction with the path-exclusion rule.
        crop_filled = image[top:bottom, left:right] != 0
        if use_paths:
            cols = np.arange(left, right)
            keep = np.ones((bottom - top, right - left), dtype=bool)
            if left_path is not None:
                keep &= cols[None, :] >= np.asarray(left_path)[: bottom - top, None]
            if right_path is not None:
                keep &= cols[None, :] < np.asarray(right_path)[: bottom - top, None]
            counted = crop_filled & keep
        else:
            counted = crop_filled
        # prefix sums let each (overlapping) cell be a 4-corner lookup
        ps = np.zeros((bottom - top + 1, right - left + 1), dtype=np.int32)
        np.cumsum(
            np.cumsum(counted, axis=0, dtype=np.int32), axis=1, out=ps[1:, 1:]
        )
        row_base, col_base = top, left
    else:
        ps = page_prefix
        row_base, col_base = 0, 0

    # clip cell edges to the glyph bbox (as the reference's min/max does),
    # then shift into the prefix array's coordinate frame
    r0s = np.clip(np.asarray(first_line), top, bottom) - row_base
    r1s = np.clip(np.asarray(last_line), top, bottom) - row_base
    c0s = np.clip(np.asarray(first_pos), left, right) - col_base
    c1s = np.clip(np.asarray(last_pos), left, right) - col_base
    filled = (
        ps[np.ix_(r1s, c1s)]
        - ps[np.ix_(r0s, c1s)]
        - ps[np.ix_(r1s, c0s)]
        + ps[np.ix_(r0s, c0s)]
    )
    totals = np.outer(
        np.asarray(last_line) - np.asarray(first_line),
        np.asarray(last_pos) - np.asarray(first_pos),
    )
    content = filled.astype(np.float32) / totals.astype(np.float32)
    # sprintf("%0.3f")/sscanf round-trip (categorize.c:106-109)
    tup[: GRID * GRID] = _round3_vec(content.astype(np.float64)).ravel()

    # aspect ratio (categorize.c:115-116), float32 arithmetic
    if gheight < gwidth:
        tup[GRID * GRID] = gheight / (np.float32(2.0) * gwidth)
    else:
        tup[GRID * GRID] = np.float32(1.0) - gwidth / (np.float32(2.0) * gheight)
    # height relative to line (categorize.c:120-122)
    denom = np.float32(line_height if line_height else fallback_glyph_height)
    tup[GRID * GRID + 1] = gheight / denom
    normalize_tuple(tup)
    return tup


def fill_tuples(
    page_prefix: np.ndarray,
    boxes: np.ndarray,
    line_heights: np.ndarray,
    fallback_glyph_height: int,
) -> np.ndarray:
    """fillTuple for N path-free glyphs at once: the native
    ``glyph_tuples`` kernel, bit-identical to ``fill_tuples_py``, which
    runs instead when the kernels are unavailable."""
    kernels = native.load()
    fill = fill_tuples_py if kernels is None else kernels.glyph_tuples
    return fill(page_prefix, boxes, line_heights, fallback_glyph_height)


def fill_tuples_py(
    page_prefix: np.ndarray,
    boxes: np.ndarray,
    line_heights: np.ndarray,
    fallback_glyph_height: int,
) -> np.ndarray:
    """fillTuple for N path-free glyphs at once — same arithmetic as
    ``fill_tuple`` (float32 grid deltas, lroundf edges, %0.3f round-trip,
    x3 trailing weights), one numpy dispatch per page instead of per
    glyph; the reference for the native ``glyph_tuples`` kernel.

    ``boxes`` is (N, 4) int64 [left, right, top, bottom] (right/bottom
    exclusive); ``page_prefix`` is the (H+1, W+1) prefix sum of image != 0.
    """
    n = boxes.shape[0]
    out = np.empty((n, TUPLELENGTH), dtype=np.float32)
    if n == 0:
        return out
    left, right = boxes[:, 0], boxes[:, 1]
    top, bottom = boxes[:, 2], boxes[:, 3]
    gh = (bottom - top).astype(np.float32)
    gw = (right - left).astype(np.float32)

    def edges(lo: np.ndarray, extent32: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        delta = (extent32 - np.float32(1)) / np.float32(GRID)
        k = np.arange(GRID + 1, dtype=np.float32)
        prod = (delta[:, None] * k[None, :]).astype(np.float64)
        r = np.floor(prod + 0.5).astype(np.int64)  # lroundf
        return lo[:, None] + r[:, :GRID], lo[:, None] + r[:, 1:] + 1

    first_line, last_line = edges(top, gh)
    first_pos, last_pos = edges(left, gw)
    r0 = np.clip(first_line, top[:, None], bottom[:, None])
    r1 = np.clip(last_line, top[:, None], bottom[:, None])
    c0 = np.clip(first_pos, left[:, None], right[:, None])
    c1 = np.clip(last_pos, left[:, None], right[:, None])
    R0, R1 = r0[:, :, None], r1[:, :, None]
    C0, C1 = c0[:, None, :], c1[:, None, :]
    ps = page_prefix
    filled = ps[R1, C1] - ps[R0, C1] - ps[R1, C0] + ps[R0, C0]
    totals = (last_line - first_line)[:, :, None] * (last_pos - first_pos)[:, None, :]
    content = filled.astype(np.float32) / totals.astype(np.float32)
    out[:, : GRID * GRID] = _round3_vec(
        content.astype(np.float64)
    ).reshape(n, GRID * GRID)
    aspect = np.where(
        gh < gw,
        gh / (np.float32(2.0) * gw),
        np.float32(1.0) - gw / (np.float32(2.0) * gh),
    ).astype(np.float32)
    denom = np.where(
        line_heights != 0, line_heights, fallback_glyph_height
    ).astype(np.float32)
    out[:, GRID * GRID] = aspect * np.float32(3)
    out[:, GRID * GRID + 1] = (gh / denom) * np.float32(3)
    return out


def refill_tuple(
    tup: np.ndarray,
    left: int,
    right: int,
    top: int,
    bottom: int,
    line_height: int,
    fallback_glyph_height: int,
) -> None:
    """refillTuple (main/categorize.c:127-140): recompute dims 25,26 only.

    NOTE the reference quirk: refillTuple calls normalizeTuple on the whole
    tuple, which re-multiplies nothing for dims 0..24 (they are untouched)
    but the aspect/height dims are freshly computed then x3 — identical to
    our behavior here.
    """
    gheight = np.float32(bottom - top)
    gwidth = np.float32(right - left)
    if gheight < gwidth:
        tup[GRID * GRID] = gheight / (np.float32(2.0) * gwidth)
    else:
        tup[GRID * GRID] = np.float32(1.0) - gwidth / (np.float32(2.0) * gheight)
    denom = np.float32(line_height if line_height else fallback_glyph_height)
    tup[GRID * GRID + 1] = gheight / denom
    tup[GRID * GRID] *= np.float32(3)
    tup[GRID * GRID + 1] *= np.float32(3)


def normalize_tuple(tup: np.ndarray) -> None:
    """normalizeTuple (main/kd.c:639-643): x3 weight on dims 25,26."""
    tup[GRID * GRID] *= np.float32(3)
    tup[GRID * GRID + 1] *= np.float32(3)
