"""PNG decoder vs spec-crafted fixtures.

Every fixture is assembled chunk-by-chunk in this file from RFC 2083:
the filtered scanline bytes for Sub/Up/Average/Paeth are computed by an
independent scalar reference ENCODER written here from the same spec
(the filter recurrences inverted), so the decoder's defilter path is
checked against hand-derivable bytes, never against itself."""

import struct
import zlib

import numpy as np
import pytest

from tensorflow_ocr_ray.core.png import decode_png_gray


def _chunk(cid: bytes, body: bytes) -> bytes:
    return (
        struct.pack(">I", len(body)) + cid + body
        + struct.pack(">I", zlib.crc32(cid + body))
    )


def _png(w, h, depth, ctype, raw, plte=None):
    out = b"\x89PNG\r\n\x1a\n"
    out += _chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, depth,
                                       ctype, 0, 0, 0))
    if plte is not None:
        out += _chunk(b"PLTE", plte)
    out += _chunk(b"IDAT", zlib.compress(raw))
    out += _chunk(b"IEND", b"")
    return out


def _paeth_ref(a, b, c):
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    if pb <= pc:
        return b
    return c


def _filter_rows(img: np.ndarray, ftypes: list[int],
                 bpp: int = 1) -> bytes:
    """Independent scalar ENCODER: apply the requested filter type per
    row per the spec recurrences (img is (h, stride) uint8)."""
    h, stride = img.shape
    out = bytearray()
    for y in range(h):
        ft = ftypes[y % len(ftypes)]
        out.append(ft)
        prev = img[y - 1] if y else np.zeros(stride, dtype=np.uint8)
        for x in range(stride):
            cur = int(img[y, x])
            left = int(img[y, x - bpp]) if x >= bpp else 0
            up = int(prev[x])
            ul = int(prev[x - bpp]) if x >= bpp else 0
            if ft == 0:
                f = cur
            elif ft == 1:
                f = cur - left
            elif ft == 2:
                f = cur - up
            elif ft == 3:
                f = cur - ((left + up) >> 1)
            elif ft == 4:
                f = cur - _paeth_ref(left, up, ul)
            out.append(f & 0xFF)
    return bytes(out)


def test_gray8_every_filter_type():
    rng = np.random.default_rng(21)
    img = rng.integers(0, 256, (10, 7), dtype=np.uint8)
    raw = _filter_rows(img, [0, 1, 2, 3, 4])
    got = decode_png_gray(_png(7, 10, 8, 0, raw))
    assert (got == img).all()


def test_rgb8_luma():
    img = np.zeros((2, 3, 3), dtype=np.uint8)
    img[0, 0] = (255, 0, 0)
    img[1, 2] = (0, 255, 0)
    flat = img.reshape(2, 9)
    raw = _filter_rows(flat, [0], bpp=3)
    got = decode_png_gray(_png(3, 2, 8, 2, raw))
    assert got[0, 0] == (77 * 255) >> 8
    assert got[1, 2] == (150 * 255) >> 8
    assert got[0, 1] == 0


def test_palette_indexed():
    plte = bytes((0, 0, 0)) + bytes((255, 255, 255)) + bytes((0, 0, 255))
    img = np.array([[0, 1], [2, 1]], dtype=np.uint8)
    raw = _filter_rows(img, [0])
    got = decode_png_gray(_png(2, 2, 8, 3, raw, plte=plte))
    assert got[0, 0] == 0
    assert got[0, 1] == 255
    # index 2 is pure blue -> 601 luma of (0,0,255)
    assert got[1, 0] == (29 * 255) >> 8


def test_gray1_bit_packed():
    # 1-bit gray, 10px wide (stride 2, MSB first): alternating pattern
    img_bits = np.tile(np.array([1, 0], dtype=np.uint8), 5)
    packed = np.packbits(img_bits).reshape(1, 2)
    raw = _filter_rows(packed, [0])
    got = decode_png_gray(_png(10, 1, 1, 0, raw))
    assert got.shape == (1, 10)
    assert got[0].tolist() == [255, 0] * 5  # scaled to full range


def test_gray16_high_byte():
    vals = np.array([[0x1234, 0xFF00, 0x00FF]], dtype=">u2")
    raw = _filter_rows(
        np.frombuffer(vals.tobytes(), dtype=np.uint8).reshape(1, 6),
        [0], bpp=2,
    )
    got = decode_png_gray(_png(3, 1, 16, 0, raw))
    assert got[0].tolist() == [0x12, 0xFF, 0x00]


def test_rgba_alpha_ignored():
    px = np.array([[10, 20, 30, 0, 200, 200, 200, 255]],
                  dtype=np.uint8)  # 2 RGBA pixels
    raw = _filter_rows(px, [0], bpp=4)
    got = decode_png_gray(_png(2, 1, 8, 6, raw))
    want0 = (77 * 10 + 150 * 20 + 29 * 30) >> 8
    assert got[0, 0] == want0
    assert got[0, 1] == (77 * 200 + 150 * 200 + 29 * 200) >> 8


def test_unknown_interlace_method_raises():
    body = struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 0, 2)
    payload = (b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", body)
               + _chunk(b"IEND", b""))
    with pytest.raises(ValueError):
        decode_png_gray(payload)


# ------------------------------------------------------------- Adam7

_ADAM7_REF = (  # independent copy of the spec lattice table
    (0, 0, 8, 8), (4, 0, 8, 8), (0, 4, 4, 8), (2, 0, 4, 4),
    (0, 2, 2, 4), (1, 0, 2, 2), (0, 1, 1, 2),
)


def _pack_row_bits(row_vals: np.ndarray, depth: int) -> np.ndarray:
    """Sample values of one scanline → padded bytes (MSB-first)."""
    bits = (
        (row_vals[:, None] >> np.arange(depth - 1, -1, -1)) & 1
    ).astype(np.uint8).ravel()
    return np.packbits(bits)


def _png_adam7(img: np.ndarray, depth=8, ctype=0, plte=None,
               ftypes=(0, 1, 2, 3, 4)) -> bytes:
    """Independent Adam7 ENCODER: split into the 7 sub-images, filter
    each pass's scanlines (per-pass stride + byte padding), concatenate.
    ``img`` is (h, w) sample values, or (h, w, ch) for color types."""
    h, w = img.shape[:2]
    ch = 1 if img.ndim == 2 else img.shape[2]
    bpp = max(1, ch * depth // 8)
    raw = bytearray()
    for x0, y0, dx, dy in _ADAM7_REF:
        sub = img[y0::dy, x0::dx]
        if sub.size == 0:
            continue
        ph, pw = sub.shape[:2]
        if depth < 8:
            rows = np.stack(
                [_pack_row_bits(sub[y], depth) for y in range(ph)]
            )
        elif depth == 16:
            rows = sub.astype(">u2").reshape(ph, -1).view(np.uint8)
        else:
            rows = sub.reshape(ph, pw * ch)
        raw += _filter_rows(np.ascontiguousarray(rows), list(ftypes),
                            bpp=bpp)
    out = b"\x89PNG\r\n\x1a\n"
    out += _chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, depth,
                                       ctype, 0, 0, 1))
    if plte is not None:
        out += _chunk(b"PLTE", plte)
    out += _chunk(b"IDAT", zlib.compress(bytes(raw)))
    out += _chunk(b"IEND", b"")
    return out


def test_adam7_gray8_all_filters():
    rng = np.random.Generator(np.random.PCG64(3))
    img = rng.integers(0, 256, size=(10, 9), dtype=np.uint8)
    np.testing.assert_array_equal(decode_png_gray(_png_adam7(img)), img)


def test_adam7_rgb8_luma():
    rng = np.random.Generator(np.random.PCG64(4))
    img = rng.integers(0, 256, size=(11, 13, 3), dtype=np.uint8)
    exp = (
        (77 * img[:, :, 0].astype(np.uint32)
         + 150 * img[:, :, 1].astype(np.uint32)
         + 29 * img[:, :, 2].astype(np.uint32)) >> 8
    ).astype(np.uint8)
    got = decode_png_gray(_png_adam7(img, ctype=2))
    np.testing.assert_array_equal(got, exp)


def test_adam7_palette4_subbyte_strides():
    rng = np.random.Generator(np.random.PCG64(5))
    idx = rng.integers(0, 16, size=(9, 11), dtype=np.uint8)
    plte = bytes(v for g in range(16) for v in (g * 17, g * 17, g * 17))
    got = decode_png_gray(
        _png_adam7(idx, depth=4, ctype=3, plte=plte, ftypes=(0,))
    )
    np.testing.assert_array_equal(got, idx * 17)


def test_adam7_gray1():
    rng = np.random.Generator(np.random.PCG64(6))
    img = rng.integers(0, 2, size=(12, 17), dtype=np.uint8)
    got = decode_png_gray(_png_adam7(img, depth=1, ftypes=(0,)))
    np.testing.assert_array_equal(got, img * 255)


@pytest.mark.parametrize("h,w", [(1, 1), (3, 3), (2, 5), (8, 1), (5, 4)])
def test_adam7_small_images_empty_passes(h, w):
    rng = np.random.Generator(np.random.PCG64(h * 100 + w))
    img = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
    np.testing.assert_array_equal(decode_png_gray(_png_adam7(img)), img)


def test_adam7_gray16_high_byte():
    rng = np.random.Generator(np.random.PCG64(9))
    img16 = rng.integers(0, 65536, size=(7, 6), dtype=np.uint16)
    got = decode_png_gray(_png_adam7(img16, depth=16))
    np.testing.assert_array_equal(got, (img16 >> 8).astype(np.uint8))


def test_adam7_matches_sequential_decode():
    rng = np.random.Generator(np.random.PCG64(8))
    img = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
    stride_img = img  # gray8: stride == w
    seq = _png(16, 16, 8, 0, _filter_rows(stride_img, [0, 1, 2, 3, 4]))
    np.testing.assert_array_equal(
        decode_png_gray(_png_adam7(img)), decode_png_gray(seq)
    )


def test_not_png_raises():
    with pytest.raises(ValueError):
        decode_png_gray(b"\x00" * 32)


def _zero_stream(mib: int) -> bytes:
    """A valid zlib stream of ``mib`` MiB of zeros, ~1 KB per MiB: after
    a full flush the compressor starts afresh, so the bytes of every
    further MiB repeat."""
    c = zlib.compressobj(9)
    zeros = bytes(1 << 20)
    first = c.compress(zeros) + c.flush(zlib.Z_FULL_FLUSH)
    repeat = c.compress(zeros) + c.flush(zlib.Z_FULL_FLUSH)
    adler = 1
    for _ in range(mib):
        adler = zlib.adler32(zeros, adler)
    # an empty final fixed-Huffman block, then the checksum
    return first + repeat * (mib - 1) + b"\x03\x00" + struct.pack(">I", adler)


@pytest.mark.parametrize("w,h,interlace", [(1, 1, 0), (3, 3, 1)])
def test_idat_bomb_inflates_only_the_scanlines(w, h, interlace):
    """IHDR promises a tiny image, IDAT inflates to 400 MiB: only the
    scanline bytes the header implies are inflated, the rest ignored."""
    import time
    import tracemalloc

    stream = _zero_stream(400)
    assert len(stream) < 500_000
    png = (b"\x89PNG\r\n\x1a\n"
           + _chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0,
                                         interlace))
           + _chunk(b"IDAT", stream) + _chunk(b"IEND", b""))
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        img = decode_png_gray(png)
    finally:
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert np.array_equal(img, np.zeros((h, w), dtype=np.uint8))
    # inflating all of it allocates ~830 MB and takes over a second
    assert peak < 16 << 20, peak
    assert elapsed < 0.5, elapsed


def test_pixel_cap_rejects_huge_header():
    png = (b"\x89PNG\r\n\x1a\n"
           + _chunk(b"IHDR", struct.pack(">IIBBBBB", 65535, 65535, 8, 0,
                                         0, 0, 0))
           + _chunk(b"IDAT", zlib.compress(b"\x00" * 64)))
    with pytest.raises(ValueError, match="exceeds pixel cap"):
        decode_png_gray(png)


@pytest.mark.parametrize("ctype,depth", [(0, 0), (0, 3), (0, 32), (3, 16),
                                         (3, 0), (2, 4), (6, 1)])
def test_invalid_bit_depth_raises(ctype, depth):
    """A depth the color type does not allow is refused at the header;
    depth 0 used to reach the gray scaling's division by zero."""
    png = _png(2, 2, depth, ctype, b"\x00" * 16, plte=bytes(range(12)))
    with pytest.raises(ValueError, match="invalid depth"):
        decode_png_gray(png)


def test_short_ihdr_and_corrupt_idat_raise_valueerror():
    short = (b"\x89PNG\r\n\x1a\n"
             + _chunk(b"IHDR", struct.pack(">IIBB", 2, 2, 8, 0)))
    with pytest.raises(ValueError, match="IHDR"):
        decode_png_gray(short)
    bad = _png(2, 2, 8, 0, b"\x00" * 6)
    at = bad.index(b"IDAT") + 4
    bad = bad[:at] + b"\xff\xff" + bad[at + 2:]  # not a zlib header
    with pytest.raises(ValueError, match="IDAT"):
        decode_png_gray(bad)


def _png_fixtures() -> list[bytes]:
    """The 12 PNGs of the ``media_png_ink`` query: every color type and
    every filter."""
    import pandas as pd

    import __ray_entry__

    return __ray_entry__._png_payloads(
        pd.DataFrame({"doc_id": list(range(12))})).column(1).to_pylist()


def test_cut_and_flipped_pngs_raise_only_valueerror():
    """Each fixture PNG cut at 40 random lengths and with 40 single-bit
    flips: every decode returns without a warning or raises
    ``ValueError``, never ``zlib.error``, ``struct.error`` or a
    division by zero."""
    import random
    import warnings

    rng = random.Random(2083)
    outcomes = {"ok": 0, "ValueError": 0}
    for payload in _png_fixtures():
        cases = [payload[:rng.randrange(len(payload))] for _ in range(40)]
        for _ in range(40):
            bit = rng.randrange(8 * len(payload))
            flipped = bytearray(payload)
            flipped[bit // 8] ^= 0x80 >> (bit % 8)
            cases.append(bytes(flipped))
        for case in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    decode_png_gray(case)
                    outcomes["ok"] += 1
                except ValueError:
                    outcomes["ValueError"] += 1
    assert sum(outcomes.values()) == 960
    assert outcomes["ok"] and outcomes["ValueError"]


def test_png_through_image_stage(ray_session):
    import pyarrow as pa

    from tensorflow_ocr_ray.stages.multimodal import ImageStatsStage

    img = np.full((12, 12), 255, dtype=np.uint8)
    img[3:6, 3:9] = 0
    raw = _filter_rows(img, [0, 2])
    batch = pa.table(
        {"media_ref": pa.array(["p1"]),
         "image": pa.array([_png(12, 12, 8, 0, raw)], type=pa.binary())}
    )
    out = ImageStatsStage()(batch)
    assert out.column("height").to_pylist() == [12]
    ink = out.column("ink_ratio").to_pylist()[0]
    assert abs(ink - (3 * 6) / 144) < 1e-9  # PNG is lossless
