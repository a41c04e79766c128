"""Native kernels against their Python references.

Each native kernel (``core/native/kernels.c``) must match its ``_py``
reference exactly: equal output, or a ``ValueError`` with the same
message from both.  Decoder inputs are valid streams (round-tripped
random bitmaps and bytes, and hand-packed LZW code sequences that fill
the table without a Clear), truncated streams and bit-flipped streams.
The page loop (``find_cells`` and the tuples of ``build_tuples``) is
compared with ``find_cells_py`` and ``features.fill_tuples_py`` on
random bitmaps, generated glyph pages and fixture pages: the same lines,
glyph boxes and order, page stats and tuple bits, or the same abort.  The
box table's candidate tests (``xy_cut``'s flags and width sums, the split
and narrow tests) are compared with the scalar tests they stand for.
The html strip, per span and as one batch over an Arrow array (whole,
sliced, with nulls and with spans the batch kernel leaves to Python), is
compared with ``extract_main_content_py`` on generated tag soup under
every gate.  ``test_no_compiler_falls_back_to_python``
hides the compiler, or makes the build fail, and checks that the public
functions still return the same output through the Python path; the
hygiene test builds the library with every warning as an error and with
UBSan, and runs the differential tests on the UBSan build.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tensorflow_ocr_ray.config import FIXTURE_CONFIG
from tensorflow_ocr_ray.core import ccitt, features, native, segment, tiff_lzw
from tensorflow_ocr_ray.fixtures import (
    page_spec_for_ref,
    payload_for_ref,
    render_page,
    truth_for_ref,
)
from tensorflow_ocr_ray.fonts import get_font_index, glyph_bitmap
from tensorflow_ocr_ray.functions import html_extract

KERNELS = native.load()
needs_kernels = pytest.mark.skipif(
    KERNELS is None, reason="no C compiler: native kernels unavailable"
)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as e:
        return "ValueError", str(e)


def _assert_same(native_fn, py_fn, *args):
    kind_n, got = _outcome(native_fn, *args)
    kind_p, want = _outcome(py_fn, *args)
    assert kind_n == kind_p, (got, want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    else:
        assert got == want


def _flip(data: bytes, positions: list[int]) -> bytes:
    buf = bytearray(data)
    for p in positions:
        if buf:
            p %= 8 * len(buf)
            buf[p // 8] ^= 0x80 >> (p % 8)
    return bytes(buf)


def _g4_native(data, width, height):
    return KERNELS.decode_g4(data, width, height, *ccitt._int_tables())


def _bitmap(h, w, density, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    return (rng.random((h, w)) < density).astype(np.uint8)


@needs_kernels
@settings(max_examples=80, deadline=None)
@given(
    h=st.integers(1, 24),
    w=st.integers(1, 160),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31 - 1),
    cut=st.floats(0.0, 1.0),
    flips=st.lists(st.integers(0, 2**20), max_size=4),
)
def test_g4_native_matches_python(h, w, density, seed, cut, flips):
    img = _bitmap(h, w, density, seed)
    enc = ccitt.encode_g4(img)
    assert np.array_equal(_g4_native(enc, w, h), img)
    _assert_same(_g4_native, ccitt.decode_g4_py, enc[: int(len(enc) * cut)],
                 w, h)
    _assert_same(_g4_native, ccitt.decode_g4_py, _flip(enc, flips), w, h)
    # a stream decoded at the wrong width mostly fails to advance a0
    _assert_same(_g4_native, ccitt.decode_g4_py, enc, max(w - 3, 0), h)


@needs_kernels
def test_g4_cut_fixture_strip_reports_truncation():
    from tensorflow_ocr_ray.fixtures import page_spec_for_ref, render_page

    img = render_page(page_spec_for_ref("page-42-000007-0"))
    enc = ccitt.encode_g4(img)
    h, w = img.shape
    for decode in (_g4_native, ccitt.decode_g4_py):
        with pytest.raises(ValueError, match="^truncated CCITT stream$"):
            decode(enc[: len(enc) // 2], w, h)


@needs_kernels
@settings(max_examples=40, deadline=None)
@given(data=st.binary(max_size=400), w=st.integers(0, 64),
       h=st.integers(0, 8))
def test_g4_native_matches_python_on_arbitrary_bytes(data, w, h):
    _assert_same(_g4_native, ccitt.decode_g4_py, data, w, h)


@needs_kernels
@settings(max_examples=60, deadline=None)
@given(
    data=st.one_of(
        st.binary(max_size=3000),
        st.lists(st.integers(0, 3), max_size=6000).map(bytes),
    ),
    max_out=st.one_of(st.none(), st.integers(-2, 4000)),
    cut=st.floats(0.0, 1.0),
    flips=st.lists(st.integers(0, 2**20), max_size=4),
)
def test_lzw_native_matches_python(data, max_out, cut, flips):
    enc = tiff_lzw.lzw_encode(data)
    assert KERNELS.lzw_decode(enc, None, 1) == data
    for early in (1, 0):
        for stream in (enc, enc[: int(len(enc) * cut)], _flip(enc, flips)):
            _assert_same(KERNELS.lzw_decode, tiff_lzw.lzw_decode_py,
                         stream, max_out, early)


def _pack_codes(codes: list[int], early: int) -> bytes:
    """MSB-first code packing on the decoder's width schedule."""
    buf = nbits = 0
    out = bytearray()
    width, nt, bump, prev = 9, 258, 511 - early, False
    for code in codes:
        buf, nbits = (buf << width) | code, nbits + width
        while nbits >= 8:
            nbits -= 8
            out.append((buf >> nbits) & 0xFF)
        buf &= (1 << nbits) - 1
        if code == tiff_lzw.CLEAR:
            width, nt, bump, prev = 9, 258, 511 - early, False
            continue
        nt += prev
        prev = True
        if nt == bump and width < 12:
            width += 1
            bump = (1 << width) - 1 - early
    if nbits:
        out.append((buf << (8 - nbits)) & 0xFF)
    return bytes(out)


def _random_codes(seed: int, n: int, literal_p: float,
                  clear_p: float) -> list[int]:
    """Valid code sequences: literals, back-references (the newest entry
    and KwKwK often), and Clears; without Clears a few thousand codes
    run the table past its 4096 addressable entries."""
    rng = np.random.Generator(np.random.PCG64(seed))
    codes, nt, prev = [], 258, False
    for _ in range(n):
        if rng.random() < clear_p:
            codes.append(tiff_lzw.CLEAR)
            nt, prev = 258, False
            continue
        if not prev or rng.random() < literal_p:
            codes.append(int(rng.integers(0, 256)))
        else:
            top = min(nt, 4095)  # == nt is the KwKwK case
            codes.append(top if rng.random() < 0.2
                         else int(rng.integers(258, top + 1)))
        nt += prev
        prev = True
    return codes + [tiff_lzw.EOI]


@needs_kernels
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 6000),
    literal_p=st.floats(0.0, 1.0),
    clear_p=st.sampled_from([0.0, 0.001]),
    early=st.sampled_from([0, 1]),
    max_out=st.one_of(st.none(), st.integers(0, 50000)),
)
@example(seed=0, n=6000, literal_p=0.5, clear_p=0.0, early=1, max_out=None)
def test_lzw_native_matches_python_on_packed_codes(seed, n, literal_p,
                                                   clear_p, early, max_out):
    stream = _pack_codes(_random_codes(seed, n, literal_p, clear_p), early)
    _assert_same(KERNELS.lzw_decode, tiff_lzw.lzw_decode_py,
                 stream, max_out, early)


@needs_kernels
@settings(max_examples=60, deadline=None)
@given(
    h=st.integers(0, 40),
    w=st.integers(0, 40),
    seed=st.integers(0, 2**31 - 1),
    dtype=st.sampled_from([np.uint8, np.bool_, np.int64, np.float32]),
    transpose=st.booleans(),
)
def test_prefix_sum_native_matches_python(h, w, seed, dtype, transpose):
    rng = np.random.Generator(np.random.PCG64(seed))
    image = rng.integers(0, 3, (h, w)).astype(dtype)
    if transpose:  # a non-contiguous view
        image = image.T
    got = KERNELS.prefix_sum_2d(image)
    want = segment.prefix_sum_2d_py(image)
    assert got.dtype == want.dtype and np.array_equal(got, want)


# --------------------------------------------------------------- page loop


def _page_state(seg: segment.PageSegmenter) -> tuple:
    """Lines in page order with their bounds and glyph boxes, and the
    page stats."""
    lines = [(ln.top, ln.bottom, ln.left_border, ln.right_border,
              [(g.left, g.right, g.top, g.bottom) for g in ln.glyphs])
             for ln in seg.lines]
    return lines, (seg.left_margin, seg.right_margin, seg.total_width,
                   seg.total_height, seg.glyph_count, seg.glyph_width,
                   seg.glyph_height)


def _run_page(image: np.ndarray, cfg, reference: bool) -> list:
    """Every column of ``image`` through find_cells, then find_lines and
    build_tuples: through the kernels, or through ``find_cells_py`` and
    ``fill_tuples_py`` when ``reference``.  Returns each step's state,
    tuple bits included, up to and including an abort."""
    trace = []
    fill = features.fill_tuples_py if reference else features.fill_tuples
    with mock.patch.object(segment, "fill_tuples", fill):
        for col in range(cfg.columns):
            for step in ("find_cells", "find_lines"):
                seg = segment.PageSegmenter(image, cfg, get_font_index())
                if reference:
                    seg.find_cells = seg.find_cells_py
                try:
                    for done in range(col):  # earlier columns set borders
                        seg.find_lines(done)
                    if step == "find_cells":  # as find_lines calls it
                        seg.left_margin, seg.right_margin = segment.INFTY, 0
                        seg.lines = []
                        seg.compute_borders(col)
                        seg.find_cells(0, seg.h - 1, seg.left_border,
                                       seg.right_border)
                        found = bool(seg.lines)
                    elif seg.find_lines(col):
                        seg.build_tuples()
                        found = [g.tuple.view(np.uint32).tolist()
                                 for ln in seg.lines for g in ln.glyphs]
                    else:
                        found = False
                except RuntimeError as e:
                    trace.append(("abort", str(e), _page_state(seg)))
                    return trace
                trace.append((found, _page_state(seg)))
    return trace


def _assert_page_loop_same(image: np.ndarray, cfg) -> list:
    got = _run_page(image, cfg, reference=False)
    assert got == _run_page(image, cfg, reference=True)
    return got


def _put(page: np.ndarray, top: int, left: int, bmp: np.ndarray) -> None:
    """OR ``bmp`` into ``page`` at (top, left), clipped to the page."""
    h = min(bmp.shape[0], page.shape[0] - top)
    w = min(bmp.shape[1], page.shape[1] - left)
    if h > 0 and w > 0:
        page[top:top + h, left:left + w] |= bmp[:h, :w]


@st.composite
def _pages(draw):
    """Noise, rectangles (some dotted: two parts with a blank row
    between), or font glyphs with dotted i and j, on a random page."""
    h, w = draw(st.integers(1, 90)), draw(st.integers(1, 180))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**31))))
    page = np.zeros((h, w), dtype=np.uint8)
    kind = draw(st.sampled_from(["noise", "boxes", "glyphs"]))
    if kind == "noise":
        page[:] = rng.random((h, w)) < draw(st.floats(0.0, 0.6))
        return page
    for _ in range(draw(st.integers(0, 30))):
        if kind == "glyphs":
            bmp = glyph_bitmap(str(rng.choice(list("ijijabmwx"))))
        else:
            bh, bw = rng.integers(1, 30), rng.integers(1, 40)
            bmp = np.ones((bh, bw), dtype=np.uint8)
            if bh > 3 and rng.random() < 0.4:
                bmp[rng.integers(1, bh - 1)] = 0
        _put(page, int(rng.integers(0, h)), int(rng.integers(0, w)), bmp)
    return page


_CONFIGS = st.builds(
    lambda mw, mh, area, xw, xh, dark, cols: FIXTURE_CONFIG.with_(
        min_glyph_width=mw, min_glyph_height=mh, min_glyph_area=area,
        max_glyph_width=xw, max_glyph_height=xh, some_dark=dark,
        columns=cols),
    st.integers(1, 4), st.integers(1, 4), st.integers(1, 12),
    st.integers(4, 80), st.integers(3, 40), st.integers(0, 60),
    st.sampled_from([1, 1, 2]),
)


@needs_kernels
@settings(max_examples=150, deadline=None)
@given(page=_pages(), cfg=_CONFIGS)
def test_page_loop_native_matches_python(page, cfg):
    _assert_page_loop_same(page, cfg)


def _fixture_page(ref: str) -> np.ndarray:
    return render_page(page_spec_for_ref(ref))


def _glyph_row_page() -> np.ndarray:
    page = np.zeros((60, 200), dtype=np.uint8)
    for k, c in enumerate("ij jabij wmi"):
        if c != " ":
            _put(page, 10 + 3 * (k % 2), 5 + 16 * k, glyph_bitmap(c))
    return page


def _touching_lines_page() -> np.ndarray:
    page = np.zeros((60, 200), dtype=np.uint8)
    page[10:24, 5:195] = 1
    page[26:40, 5:195] = 1
    page[24:26, 100] = 1  # no blank row between the two lines
    return page


def _two_column_page() -> np.ndarray:
    left = _fixture_page("page-42-000007-0")
    right = _fixture_page("page-1-000001-0")
    page = np.zeros((max(left.shape[0], right.shape[0]),
                     left.shape[1] + right.shape[1] + 30), dtype=np.uint8)
    page[:left.shape[0], :left.shape[1]] = left
    page[:right.shape[0], left.shape[1] + 30:] = right
    return page


def _dots_page() -> np.ndarray:
    """2,500 separate dots: more boxes than the kernel's first buffer."""
    page = np.zeros((100, 400), dtype=np.uint8)
    page[::4, ::4] = 1
    page[1::4, ::4] = 1
    return page


def _too_tall_page() -> np.ndarray:
    page = np.zeros((60, 80), dtype=np.uint8)
    page[20:41, 30:36] = 1  # 21 rows: one more than max_glyph_height
    page[50:57, 5:12] = 1  # the walk visits this box first
    return page


_PAGE_CASES = ["fixture", "fixture_2", "dotted_glyphs", "find_lines_harder",
               "two_columns", "many_glyphs", "too_tall"]


@needs_kernels
@pytest.mark.parametrize("case", _PAGE_CASES)
def test_page_loop_native_matches_python_on_pages(case):
    cfg = FIXTURE_CONFIG
    if case == "fixture":
        page = _fixture_page("page-42-000007-0")
    elif case == "fixture_2":
        page = _fixture_page("page-7-000003-1")
    elif case == "dotted_glyphs":
        page = _glyph_row_page()
    elif case == "find_lines_harder":
        page = _touching_lines_page()
        cfg = cfg.with_(max_glyph_height=20, max_glyph_width=600)
    elif case == "two_columns":
        page = _two_column_page()
        cfg = cfg.with_(columns=2)
    elif case == "many_glyphs":
        page = _dots_page()
        cfg = cfg.with_(min_glyph_width=1, min_glyph_height=2,
                        min_glyph_area=1)
    else:
        page = _too_tall_page()
        cfg = cfg.with_(max_glyph_height=20)
    trace = _assert_page_loop_same(page, cfg)
    if case == "too_tall":
        assert trace[0][:2] == (
            "abort", "glyph height 21 exceeds max 20 (reference abort())")
        assert trace[0][2][0]  # the lines formed before the abort
    else:
        assert all(step[0] for step in trace)  # glyphs in every column
    if case == "find_lines_harder":
        assert len(trace[-1][1][0]) == 2  # split into two lines
    if case == "many_glyphs":
        assert trace[0][1][1][4] == 2500  # glyph count


def _table_objects(t: segment._BoxTable) -> list:
    """Fresh Line and Glyph objects of every line of a box table."""
    lines = []
    for k, (top, bottom, left, right, count, _, _) in enumerate(t.lines):
        line = segment.Line()
        line.top, line.bottom = top, bottom
        line.left_border, line.right_border = left, right
        line.glyphs = [segment.Glyph(*box) for box in
                       t.box[t.start[k]:t.start[k + 1]].tolist()]
        assert len(line.glyphs) == count
        lines.append(line)
    return lines


_TABLE_CONFIGS = st.builds(
    lambda base, combine, split, good: base.with_(
        may_combine=combine, splittable=split, good_match=good),
    _CONFIGS, st.booleans(), st.sampled_from([0.5, 1.1, 2.0]),
    st.sampled_from([0.05, 0.4, 1.0]),
)


@needs_kernels
@settings(max_examples=150, deadline=None)
@given(page=_pages(), cfg=_TABLE_CONFIGS)
def test_box_table_candidates_match_scalar_tests(page, cfg):
    """The box table's candidate tests against the scalar tests they
    stand for, on objects built from the same table: xy_cut's flags
    against ``overlap_vertical`` and ``overlap_horizontal`` and its width
    sums against the glyphs; after find_lines, build_tuples and classify,
    the split test (width and a one-row probe's dist²) and the narrow
    test (gap and one-row probes) row by row."""
    seg = segment.PageSegmenter(page, cfg, get_font_index())
    seg.compute_borders(0)
    try:
        seg.find_cells(0, seg.h - 1, seg.left_border, seg.right_border)
    except RuntimeError:
        return  # too tall: the reference aborts; no table to test
    t = seg._table
    if t is None:
        return
    lines = _table_objects(t)
    for k, (line, row) in enumerate(zip(lines, t.lines)):
        flags = row[6]
        nxt = lines[k + 1] if k + 1 < len(lines) else None
        assert bool(flags & native.XF_OVERLAPS_NEXT) == \
            seg.overlap_vertical(line, nxt)
        assert bool(flags & native.XF_COMBINES) == any(
            seg.overlap_horizontal(a, b)
            for a, b in zip(line.glyphs, line.glyphs[1:]))
        assert row[5] == sum(g.right - g.left for g in line.glyphs)

    seg = segment.PageSegmenter(page, cfg, get_font_index())
    if not seg.find_lines(0):
        return
    seg.build_tuples()
    seg.classify()
    t = seg._table
    if t is None:
        return
    index, iv = seg.index, cfg.ignore_vertical
    d2 = [float(index.ocr_distance2(tup[None, :], iv)[0]) for tup in t.tuples]
    widths = (t.box[:, 1] - t.box[:, 0]).tolist()
    want = [w > cfg.splittable * seg.glyph_width and d > cfg.good_match2
            for w, d in zip(widths, d2)]
    assert seg._split_candidates().tolist() == want
    ends = set((t.start[1:] - 1).tolist())
    want = [r not in ends
            and not (t.box[r + 1, 0] - t.box[r, 1] > cfg.min_glyph_width)
            and (d2[r] > cfg.good_match2 or d2[r + 1] > cfg.good_match2)
            for r in range(len(d2) - 1)]
    assert seg._narrow_candidates().tolist() == want


@needs_kernels
@settings(max_examples=300, deadline=None)
@given(
    h=st.integers(1, 60),
    w=st.integers(1, 60),
    seed=st.integers(0, 2**31),
    n=st.integers(0, 40),
    density=st.floats(0.0, 1.0),
    fallback=st.integers(0, 30),
)
def test_glyph_tuples_native_bits_match_python(h, w, seed, n, density,
                                               fallback):
    rng = np.random.Generator(np.random.PCG64(seed))
    prefix = segment.prefix_sum_2d_py(rng.random((h, w)) < density)
    left = rng.integers(0, w, n)
    top = rng.integers(0, h, n)
    boxes = np.stack([left, left + 1 + rng.integers(0, w - left),
                      top, top + 1 + rng.integers(0, h - top)], axis=1)
    boxes = boxes.reshape(n, 4).astype(np.int64)
    line_heights = rng.integers(0, 3, n) * rng.integers(1, 80, n)
    got = KERNELS.glyph_tuples(prefix, boxes, line_heights, fallback)
    with np.errstate(divide="ignore"):
        want = features.fill_tuples_py(prefix, boxes, line_heights,
                                       fallback)
    assert got.dtype == want.dtype == np.float32
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
    for bad in ((-1, 1, 0, 1), (0, w + 1, 0, 1), (0, 1, 0, h + 1),
                (0, 0, 0, 1), (0, 1, 1, 1)):
        out = np.concatenate([boxes, np.array([bad], dtype=np.int64)])
        with pytest.raises(ValueError, match="outside the page"):
            KERNELS.glyph_tuples(prefix, out, np.append(line_heights, 1),
                                 fallback)


@needs_kernels
def test_glyph_tuples_round_ties_to_even():
    """A grid cell of 16 pixels with j of them inked reads j / 16: for
    odd j a decimal tie (62.5 thousandths, ...), which the "%0.3f"
    round-trip sends to the even neighbour."""
    page = np.zeros((16, 17 * 16), dtype=np.uint8)
    for j in range(17):
        rows, cols = divmod(np.arange(j), 4)
        page[rows, 16 * j + cols] = 1  # the top-left 4 x 4 cell
    prefix = segment.prefix_sum_2d_py(page)
    boxes = np.array([(16 * j, 16 * j + 16, 0, 16) for j in range(17)],
                     dtype=np.int64)
    line_heights = np.full(17, 16, dtype=np.int64)
    got = KERNELS.glyph_tuples(prefix, boxes, line_heights, 0)
    want = features.fill_tuples_py(prefix, boxes, line_heights, 0)
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
    assert got[:, 0].tolist() == [np.float32(f"{j / 16:.3f}")
                                  for j in range(17)]
    assert got[1, 0] == np.float32(0.062) and got[3, 0] == np.float32(0.188)


# -------------------------------------------------------------- html strip

_NAMES = ["p", "div", "li", "td", "h1", "h6", "h7", "body", "html", "nav",
          "blockquote", "a", "b", "pre", "abbr", "link", "headx", "head",
          "script", "style", "template", "noscript", "br", "a_", "p-x"]
_WS = " \t\n\v\f\r\x1c\x1d\x1e\x1f"


@st.composite
def _tag(draw):
    name = "".join(c.upper() if draw(st.booleans()) else c
                   for c in draw(st.sampled_from(_NAMES)))
    close = draw(st.sampled_from(["", "/"]))
    attrs = draw(st.sampled_from(["", " x=1", "\n", " href='/a b'", " <i"]))
    end = draw(st.sampled_from([">", ">", " >", "\v>", ""]))
    return f"<{close}{name}{attrs}{end}"


_ATOMS = st.one_of(
    _tag(),
    st.sampled_from(["<!--", "-->", "<!-->", "<>", "<", ">", "</", "</a",
                     "&amp;", "&copy", "&#x27;", "&#32;", "&", "&lt;b&gt;"]),
    st.text(alphabet="abcXYZ019_-/!;" + _WS, min_size=1, max_size=12),
)
_SOUP = st.lists(_ATOMS, max_size=40).map("".join)
_GATES = st.sampled_from([(0, 0.0), (1, 0.33), (25, 0.33), (0, 1.0),
                          (25, 1.0)])


@needs_kernels
@settings(max_examples=600, deadline=None)
@given(html=_SOUP, gate=_GATES)
@example(html="<p>x<a href=1>y</a", gate=(1, 1.0))
@example(html="<div><a>one<A>two</a> three</a>end</div>", gate=(0, 1.0))
@example(html="<script>a</scripT \x1c><p>b", gate=(1, 0.33))
@example(html="<b>\x1f</b>", gate=(0, 1.0))
def test_html_native_matches_python(html, gate):
    assert html.isascii() and "\x00" not in html
    got = html_extract.extract_main_content(html, *gate)
    assert got == html_extract.extract_main_content_py(html, *gate)


@needs_kernels
@pytest.mark.parametrize("extra", ["\u00e9", "\x00", "\u017f", "\u212a"])
def test_html_non_ascii_or_nul_takes_the_fallback(monkeypatch, extra):
    calls = []
    real = KERNELS.html_blocks
    monkeypatch.setattr(KERNELS, "html_blocks",
                        lambda b: calls.append(b) or real(b))
    page = html_extract.wrap_in_boilerplate(1, "plain main text " * 3)
    assert html_extract.extract_main_content(page, 1)
    assert len(calls) == 1  # ASCII goes through the kernel
    # under re.I U+017F folds to s (a <script> subtree is dropped) and
    # U+212A to k (<blockquote> splits), which an ASCII scan cannot see
    for html in (page + extra, f"<p>a<{extra}cript>b</{extra}cript>x",
                 f"<p>x<bloc{extra}quote>y<a>k</a></p>"):
        for gate in ((1, 0.33), (0, 1.0)):
            assert html_extract.extract_main_content(html, *gate) == \
                html_extract.extract_main_content_py(html, *gate)
    assert len(calls) == 1


@needs_kernels
def test_html_scratch_is_never_shared_between_threads():
    """The kernel runs without the GIL, so threads that shared a scratch
    buffer would read each other's blocks."""
    import sys
    from concurrent.futures import ThreadPoolExecutor

    pages = [html_extract.wrap_in_boilerplate(i, f"main text {i} " * (i + 1))
             for i in range(16)]
    want = [html_extract.extract_main_content_py(p, 1) for p in pages]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            got = list(pool.map(
                lambda i: html_extract.extract_main_content(pages[i % 16], 1),
                range(4000), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert got == [want[i % 16] for i in range(4000)]


@needs_kernels
@pytest.mark.parametrize("unit", ["<script ", "<p>x <a ", "<!--", "<a></a",
                                  "<", "<b", "<p>"])
def test_html_native_is_linear_on_unclosed_openers(unit):
    html = unit * (1_000_000 // len(unit))
    t0 = time.perf_counter()
    html_extract.extract_main_content(html, 1)
    # the regexes rescan to the end from every opener: minutes on 1 MB
    assert time.perf_counter() - t0 < 5.0
    small = html[:4000]
    assert html_extract.extract_main_content(small, 1) == \
        html_extract.extract_main_content_py(small, 1)


# spans of the batch strip: tag soup, nulls, "", chrome around escaped
# text, and soup with a byte the kernel leaves to Python (non-ASCII, NUL)
# or an entity a kept block must unescape
_SPANS = st.lists(st.one_of(
    _SOUP,
    st.none(),
    st.just(""),
    st.text(alphabet="ab &<>;#x", max_size=40).map(
        lambda t: html_extract.wrap_in_boilerplate(1, t)),
    st.tuples(_SOUP, st.sampled_from(["\u00e9", "\x00", "\u017f", "\u212a",
                                      "&amp;", "&", "&lt;p&gt;"]), _SOUP)
    .map("".join),
), max_size=12)


def _strip_py(texts: list, gate: tuple) -> list:
    return [None if t is None else html_extract.extract_main_content_py(
        t, *gate) for t in texts]


@needs_kernels
@settings(max_examples=300, deadline=None)
@given(spans=_SPANS, gate=_GATES, lo=st.integers(0, 3), hi=st.integers(0, 3),
       kinds=st.lists(st.booleans(), min_size=12, max_size=12))
def test_html_batch_strip_matches_python(spans, gate, lo, hi, kinds):
    """``main_content_array`` under every gate, and ``strip_html_spans``
    on a table of html and text rows, equal the per-span reference on
    the whole array and on a slice of it, null for null."""
    from tensorflow_ocr_ray.pipelines.extract import strip_html_spans

    arr = pa.array(spans, pa.string())
    lo = min(lo, len(arr))
    for a in (arr, arr.slice(lo, max(len(arr) - lo - hi, 0))):
        got = html_extract.main_content_array(a, *gate)
        got.validate(full=True)
        assert got.type == pa.string()
        assert got.to_pylist() == _strip_py(a.to_pylist(), gate)
    kind = ["html" if k else "text" for k in kinds[:len(spans)]]
    batch = pa.table({"kind": kind, "text": arr})
    for b in (batch, batch.slice(lo, max(len(arr) - lo - hi, 0))):
        rows = b.to_pylist()
        want = [_strip_py([r["text"]], (1, 0.33))[0] if r["kind"] == "html"
                else r["text"] for r in rows]
        assert strip_html_spans(b).column("text").to_pylist() == want


@needs_kernels
def test_html_batch_strip_takes_a_span_over_64_kib():
    """A span longer than the per-span path's pooled scratch, between
    short ones: the batch scratch is sized to the longest span."""
    long = html_extract.wrap_in_boilerplate(2, "long main text " * 6000)
    assert len(long) > 1 << 16
    texts = ["<p>short main text</p>", long, None, "<p>tail</p>"]
    got = html_extract.main_content_array(pa.array(texts), 1)
    assert got.to_pylist() == _strip_py(texts, (1, 0.33))
    assert got[1].as_py() == ("long main text " * 6000).strip()


@needs_kernels
def test_html_batch_scratch_is_never_shared_between_threads():
    """The batch kernel runs without the GIL too: threads that each strip
    their own array concurrently get their own arrays' texts."""
    from concurrent.futures import ThreadPoolExecutor

    pages = [html_extract.wrap_in_boilerplate(i, f"main text {i} " * (i + 1))
             for i in range(16)]
    want = _strip_py(pages, (1, 0.33))
    arrays = [pa.array(pages[i:] + pages[:i]) for i in range(16)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            got = list(pool.map(
                lambda i: html_extract.main_content_array(
                    arrays[i % 16], 1).to_pylist(),
                range(800), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert got == [want[i % 16:] + want[:i % 16] for i in range(800)]


@needs_kernels
def test_web_text_strip_makes_no_per_span_call(monkeypatch, tmp_path):
    """On the web_text benchmark corpus (seed 1) every html span is ASCII
    and its kept blocks need no unescape, so ``strip_html_spans`` strips
    all of them in the kernel: ``extract_main_content`` never runs, and
    the texts equal the per-span strip's."""
    from perfbench import inputs
    from tensorflow_ocr_ray.pipelines import extract
    from tensorflow_ocr_ray.pipelines.ocr_pipeline import explode_documents

    spans = explode_documents(
        inputs.load_inputs("web_text", 1, str(tmp_path)).docs)
    is_html = pc.equal(spans.column("kind"), "html")
    html = spans.column("text").filter(is_html).to_pylist()
    assert len(html) > 10_000
    calls = []
    real = extract.extract_main_content
    monkeypatch.setattr(extract, "extract_main_content",
                        lambda *a: calls.append(a) or real(*a))
    got = extract.strip_html_spans(spans).column("text").filter(is_html)
    assert calls == []
    assert got.to_pylist() == [real(t, 1) for t in html]


def _glyph_records(ref: str) -> tuple:
    """The page text of ``ref`` and its glyphs' boxes, tuple bits and
    labels."""
    from tensorflow_ocr_ray.core.page import ocr_payload

    res = ocr_payload(payload_for_ref(ref), FIXTURE_CONFIG, get_font_index())
    return res.text, [(g.left, g.right, g.top, g.bottom,
                       g.features.view(np.uint32).tolist(), g.label)
                      for g in res.glyphs]


@pytest.mark.parametrize("compiler", [None, "false"],
                         ids=["no_compiler", "failing_compiler"])
def test_no_compiler_falls_back_to_python(monkeypatch, tmp_path, compiler):
    img = _bitmap(30, 70, 0.3, 7)
    g4 = ccitt.encode_g4(img)
    data = bytes(np.random.Generator(np.random.PCG64(8)).integers(0, 4, 5000,
                                                                   np.uint8))
    lzw = tiff_lzw.lzw_encode(data)
    ref = "page-42-000007-0"
    want = _glyph_records(ref)  # through the kernels where cc exists
    cc = compiler and shutil.which(compiler)  # `false` exits 1: a failed build
    monkeypatch.setattr(native, "_find_compiler", lambda: cc)
    monkeypatch.setattr(native, "_cache_dir", lambda: tmp_path)
    native.load.cache_clear()
    try:
        assert native.load() is None
        assert np.array_equal(ccitt.decode_g4(g4, 70, 30), img)
        assert tiff_lzw.lzw_decode(lzw) == data
        with pytest.raises(ValueError, match="bad LZW code 300"):
            tiff_lzw.lzw_decode(bytes([0x96, 0x00]), 10)
        seg = segment.PageSegmenter.__new__(segment.PageSegmenter)
        seg.image, seg._ps = img, None
        assert np.array_equal(seg._prefix(), segment.prefix_sum_2d_py(img))
        page = html_extract.wrap_in_boilerplate(3, "main & <text> " * 4)
        assert html_extract.extract_main_content(page, 1) == \
            html_extract.extract_main_content_py(page, 1) == \
            ("main & <text> " * 4).strip()
        assert html_extract.main_content_array(
            pa.array([page, None, ""]), 1).to_pylist() == \
            [("main & <text> " * 4).strip(), None, ""]
        calls = []
        for owner, name in ((segment.PageSegmenter, "find_cells_py"),
                            (features, "fill_tuples_py")):
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, real=real, name=name:
                                calls.append(name) or real(*a))
        assert _glyph_records(ref) == want
        assert want[0] == truth_for_ref(ref)
        assert sorted(set(calls)) == ["fill_tuples_py", "find_cells_py"]
        assert not list(tmp_path.rglob("*.so*"))  # nothing built or left
    finally:
        native.load.cache_clear()


# the differential tests the hygiene test reruns on a UBSan build, with
# the parameters each is called with
_UBSAN_RUNS = [
    ("test_g4_native_matches_python", [()]),
    ("test_g4_cut_fixture_strip_reports_truncation", [()]),
    ("test_g4_native_matches_python_on_arbitrary_bytes", [()]),
    ("test_lzw_native_matches_python", [()]),
    ("test_lzw_native_matches_python_on_packed_codes", [()]),
    ("test_prefix_sum_native_matches_python", [()]),
    ("test_page_loop_native_matches_python", [()]),
    ("test_page_loop_native_matches_python_on_pages",
     [(case,) for case in _PAGE_CASES]),
    ("test_box_table_candidates_match_scalar_tests", [()]),
    ("test_glyph_tuples_native_bits_match_python", [()]),
    ("test_glyph_tuples_round_ties_to_even", [()]),
    ("test_html_native_matches_python", [()]),
    ("test_html_batch_strip_matches_python", [()]),
    ("test_html_batch_strip_takes_a_span_over_64_kib", [()]),
]

_UBSAN_SCRIPT = """
import ctypes, sys
from tensorflow_ocr_ray.core import native
kernels = native.Kernels(ctypes.CDLL(sys.argv[1]))
native.load = lambda: kernels
import test_native_kernels as t
assert t.KERNELS is kernels
for name, calls in t._UBSAN_RUNS:
    for args in calls:
        getattr(t, name)(*args)
print("ok")
"""


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_kernels_build_without_warnings_and_pass_under_ubsan(tmp_path):
    """``kernels.c`` compiles with every warning an error, and a
    ``-fsanitize=undefined`` build passes the differential tests.  That
    build runs in a subprocess, so undefined behaviour aborts only the
    subprocess, and the test reports it."""
    src, cc = str(native._SOURCE), shutil.which("cc")
    strict = subprocess.run(
        [cc, *native._CFLAGS, "-Wall", "-Wextra", "-Wconversion", "-Werror",
         "-o", str(tmp_path / "strict.so"), src, *native._LDLIBS],
        capture_output=True, text=True, timeout=120,
    )
    assert strict.returncode == 0, strict.stderr
    ubsan = tmp_path / "ubsan.so"
    build = subprocess.run(
        [cc, *native._CFLAGS, "-g", "-fsanitize=undefined",
         "-fno-sanitize-recover=all", "-o", str(ubsan), src,
         *native._LDLIBS],
        capture_output=True, text=True, timeout=120,
    )
    if build.returncode != 0:
        pytest.skip(f"cc cannot build with UBSan here: {build.stderr[-300:]}")
    tests_dir = Path(__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, "-c", _UBSAN_SCRIPT, str(ubsan)],
        capture_output=True, text=True, timeout=900, cwd=tests_dir,
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join([str(tests_dir.parent),
                                            str(tests_dir)])},
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.split() == ["ok"], proc.stdout[-2000:]
