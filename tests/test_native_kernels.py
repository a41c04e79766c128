"""Native kernels against their Python references.

Each native kernel (``core/native/kernels.c``) must match its ``_py``
reference exactly: equal output, or a ``ValueError`` with the same
message from both.  Decoder inputs are valid streams (round-tripped
random bitmaps and bytes, and hand-packed LZW code sequences that fill
the table without a Clear), truncated streams and bit-flipped streams.
The html strip is compared with ``extract_main_content_py`` on generated
tag soup under both gates.  The last test hides the compiler, or makes
the build fail, and checks that the public functions still return the
same output through the Python path.
"""

from __future__ import annotations

import shutil
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tensorflow_ocr_ray.core import ccitt, native, segment, tiff_lzw
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


@pytest.mark.parametrize("compiler", [None, "false"],
                         ids=["no_compiler", "failing_compiler"])
def test_no_compiler_falls_back_to_python(monkeypatch, tmp_path, compiler):
    img = _bitmap(30, 70, 0.3, 7)
    g4 = ccitt.encode_g4(img)
    data = bytes(np.random.Generator(np.random.PCG64(8)).integers(0, 4, 5000,
                                                                   np.uint8))
    lzw = tiff_lzw.lzw_encode(data)
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
        assert not list(tmp_path.rglob("*.so*"))  # nothing built or left
    finally:
        native.load.cache_clear()
