"""CCITT G4 (T.6) and TIFF-LZW codec properties.

No image libraries exist in this environment to cross-validate against,
so the gate is: (a) deterministic roundtrips across densities, widths and
degenerate shapes, (b) long-run makeup-code paths (> 2560), (c) the
T.6 coding-mode edge cases (checkerboards force horizontal mode, diagonal
lines force vertical modes, nested boxes force pass mode), (d) LZW table
resets and the early-change width schedule.
"""

from __future__ import annotations

import numpy as np

from tensorflow_ocr_ray.core.ccitt import decode_g4, encode_g4
from tensorflow_ocr_ray.core.tiff_lzw import lzw_decode, lzw_encode


def _roundtrip(img: np.ndarray) -> None:
    enc = encode_g4(img)
    dec = decode_g4(enc, img.shape[1], img.shape[0])
    assert (dec == img).all()


def test_g4_degenerate_shapes():
    _roundtrip(np.zeros((1, 1), np.uint8))
    _roundtrip(np.ones((1, 1), np.uint8))
    _roundtrip(np.zeros((5, 8), np.uint8))
    _roundtrip(np.ones((5, 8), np.uint8))
    _roundtrip(np.zeros((1, 4000), np.uint8))
    _roundtrip(np.ones((4000, 1), np.uint8))


def test_g4_long_runs_use_extended_makeups():
    rng = np.random.Generator(np.random.PCG64(7))
    img = (rng.random((4, 6000)) < 0.005).astype(np.uint8)  # runs >> 2560
    _roundtrip(img)
    img[:] = 1
    img[:, 3000] = 0
    _roundtrip(img)


def test_g4_mode_edge_cases():
    # checkerboard: every pixel is a changing element (horizontal mode)
    cb = np.indices((9, 33)).sum(axis=0) % 2
    _roundtrip(cb.astype(np.uint8))
    # diagonal: vertical modes with offsets ±1
    _roundtrip(np.eye(50, dtype=np.uint8))
    # nested boxes: pass mode (reference-line runs end before current)
    box = np.zeros((20, 30), np.uint8)
    box[2:18, 2:28] = 1
    box[5:15, 8:22] = 0
    box[8:12, 12:18] = 1
    _roundtrip(box)


def test_g4_randomized_sweep():
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(150):
        h = int(rng.integers(1, 16))
        w = int(rng.integers(1, 100))
        img = (rng.random((h, w)) < rng.random()).astype(np.uint8)
        _roundtrip(img)


def test_lzw_roundtrips():
    rng = np.random.Generator(np.random.PCG64(13))
    cases = [
        b"",
        b"x",
        b"ab" * 5000,
        bytes(rng.integers(0, 256, 30000, dtype=np.uint8)),  # incompressible
        b"\x00" * 100000,                                    # deep table
        bytes(rng.integers(0, 3, 80000, dtype=np.uint8)),    # forces reset
    ]
    for data in cases:
        assert lzw_decode(lzw_encode(data)) == data


def test_lzw_max_out_truncates():
    data = b"hello world " * 100
    enc = lzw_encode(data)
    assert lzw_decode(enc, max_out=5)[:5] == data[:5]


def test_lzw_first_code_past_literals_is_value_error():
    import pytest

    with pytest.raises(ValueError, match="bad LZW code 300"):
        lzw_decode(bytes([0x96, 0x00]), 10)  # 9-bit code 300, no prev


def test_g4_corrupt_stream_raises_not_hangs():
    # a stream of pass-mode codes (0001) never advances a0 once the
    # reference line is all-white (b2 = width on first step -> ok), so
    # craft a V code that moves a0 backward: encode a valid image, then
    # flip bits until decode either succeeds or raises -- it must never
    # spin.  Deterministic adversarial case: VL(3) at column 0 twice.
    import pytest

    img = np.zeros((4, 16), np.uint8)
    img[:, 8:] = 1
    enc = bytearray(encode_g4(img))
    for i in range(min(len(enc), 24)):
        for bit in range(8):
            bad = bytearray(enc)
            bad[i] ^= 1 << bit
            try:
                decode_g4(bytes(bad), 16, 4)
            except ValueError:
                pass  # raising is the contract; hanging is the bug


def test_tiff_fillorder2_bit_reversed_strips():
    from tensorflow_ocr_ray.core.raster import decode_tiff, encode_tiff, _BITREV

    rng = np.random.default_rng(7)
    img = (rng.random((20, 31)) < 0.3).astype(np.uint8)
    payload = bytearray(encode_tiff(img, bilevel=True))
    # locate the single strip: tag 273 (offset) / 279 (count) in the IFD
    import struct

    n_tags = struct.unpack("<H", payload[8:10])[0]
    tags = {}
    for t in range(n_tags):
        off = 10 + t * 12
        tag, typ, cnt, val = struct.unpack("<HHII", payload[off : off + 12])
        tags[tag] = (off, val)
    soff, scount = tags[273][1], tags[279][1]
    # bit-reverse the strip bytes and declare FillOrder=2
    payload[soff : soff + scount] = _BITREV[
        np.frombuffer(bytes(payload[soff : soff + scount]), np.uint8)
    ].tobytes()
    payload += struct.pack("<HHII", 266, 3, 1, 2)  # can't append mid-IFD...
    # instead rebuild: easiest is to patch an existing unused tag slot; use
    # the writer's tag 277 (SamplesPerPixel=1, same as default) slot
    off = tags[277][0]
    payload[off : off + 12] = struct.pack("<HHII", 266, 3, 1, 2)
    out, bits = decode_tiff(bytes(payload[:-12]))
    assert bits == 1
    assert (out == img).all()


def test_tiff_cyclic_ifd_raises():
    import pytest
    import struct
    from tensorflow_ocr_ray.core.raster import decode_tiff_pages, encode_tiff

    payload = bytearray(encode_tiff(np.zeros((2, 2), np.uint8), bilevel=True))
    n_tags = struct.unpack("<H", payload[8:10])[0]
    next_ifd_off = 10 + n_tags * 12
    # point next-IFD back at the first IFD -> cycle
    payload[next_ifd_off : next_ifd_off + 4] = struct.pack("<I", 8)
    with pytest.raises(ValueError, match="cyclic"):
        decode_tiff_pages(bytes(payload))


def test_tiff_g4_fillorder2():
    """The real fax-TIFF combination: G4 compression with LSB-first
    (FillOrder=2) strip bytes."""
    import struct
    from tensorflow_ocr_ray.core.raster import _BITREV, decode_tiff, encode_tiff

    rng = np.random.default_rng(11)
    img = (rng.random((30, 41)) < 0.25).astype(np.uint8)
    payload = bytearray(encode_tiff(img, bilevel=True, compression="g4"))
    n_tags = struct.unpack("<H", payload[8:10])[0]
    tags = {}
    for t in range(n_tags):
        off = 10 + t * 12
        tag, typ, cnt, val = struct.unpack("<HHII", payload[off : off + 12])
        tags[tag] = (off, val)
    soff, scount = tags[273][1], tags[279][1]
    payload[soff : soff + scount] = _BITREV[
        np.frombuffer(bytes(payload[soff : soff + scount]), np.uint8)
    ].tobytes()
    off = tags[277][0]  # repurpose the redundant SamplesPerPixel=1 slot
    payload[off : off + 12] = struct.pack("<HHII", 266, 3, 1, 2)
    out, bits = decode_tiff(bytes(payload))
    assert bits == 1
    assert (out == img).all()


def test_lzw_early_change_zero():
    """PDF /EarlyChange 0: the code-width bump lands exactly at the
    table-size boundary instead of one entry early.  A parametrized
    mirror of the engine encoder (thresholds shifted by 1-early)
    validates: early=1 output is byte-identical to lzw_encode, early=0
    streams roundtrip through lzw_decode(early=0), and decoding an
    early=0 stream with the TIFF default diverges once the data
    crosses the 9->10-bit boundary (the parameter is load-bearing)."""
    import numpy as np

    from tensorflow_ocr_ray.core.tiff_lzw import lzw_decode, lzw_encode

    def ref_encode(data: bytes, early: int) -> bytes:
        out = bytearray()
        buf = nbits = 0
        width = 9
        next_code = 258
        table = {}
        shift = 1 - early

        def emit(code):
            nonlocal buf, nbits
            buf = (buf << width) | code
            nbits += width
            while nbits >= 8:
                nbits -= 8
                out.append((buf >> nbits) & 0xFF)
            buf &= (1 << nbits) - 1

        emit(256)
        it = iter(data)
        prev = next(it)
        for ch in it:
            code = table.get((prev, ch))
            if code is not None:
                prev = code
                continue
            emit(prev)
            table[(prev, ch)] = next_code
            next_code += 1
            if next_code == (1 << width) - 1 + shift and width < 12:
                width += 1
            if next_code >= 4094:  # table full: reset (engine parity)
                emit(256)
                width = 9
                next_code = 258
                table = {}
            prev = ch
        emit(prev)
        if next_code == (1 << width) - 2 + shift and width < 12:
            width += 1
        emit(257)
        if nbits:
            out.append((buf << (8 - nbits)) & 0xFF)
        return bytes(out)

    rng = np.random.Generator(np.random.PCG64(99))
    # enough entropy to push the table past 512 entries (9->10 bump)
    data = rng.integers(0, 256, size=4096, dtype=np.uint8).tobytes()
    assert ref_encode(data, 1) == lzw_encode(data)
    enc0 = ref_encode(data, 0)
    assert lzw_decode(enc0, early=0) == data
    # wrong mode must not silently agree: the bit-stream desync shows up
    # either as different output or as an invalid code
    try:
        assert lzw_decode(enc0) != data
    except ValueError:
        pass

    # short input below the boundary: both modes agree (spec: identical)
    short = data[:200]
    assert lzw_decode(ref_encode(short, 0), early=0) == short
    assert ref_encode(short, 0) == ref_encode(short, 1)


def test_pdf_lzw_early_change_zero_image():
    from test_pdfimage import one_image_pdf, stream_obj

    import numpy as np

    from tensorflow_ocr_ray.core.pdfimage import pdf_page_images
    from tensorflow_ocr_ray.core.tiff_lzw import lzw_decode

    rng = np.random.Generator(np.random.PCG64(100))
    img = rng.integers(0, 256, size=(40, 80), dtype=np.uint8)

    # encode with an early=0 stream: reuse the engine encoder via a
    # decode cross-check is impossible (it is early=1), so build the
    # stream with the spec encoder from the sibling test
    from test_codecs import test_lzw_early_change_zero  # noqa: F401

    # simplest: inline the same reference encoder
    def ref_encode(data, early):
        out = bytearray()
        buf = nbits = 0
        width = 9
        next_code = 258
        table = {}
        shift = 1 - early

        def emit(code):
            nonlocal buf, nbits
            buf = (buf << width) | code
            nbits += width
            while nbits >= 8:
                nbits -= 8
                out.append((buf >> nbits) & 0xFF)
            buf &= (1 << nbits) - 1

        emit(256)
        it = iter(data)
        prev = next(it)
        for ch in it:
            code = table.get((prev, ch))
            if code is not None:
                prev = code
                continue
            emit(prev)
            table[(prev, ch)] = next_code
            next_code += 1
            if next_code == (1 << width) - 1 + shift and width < 12:
                width += 1
            if next_code >= 4094:  # table full: reset (engine parity)
                emit(256)
                width = 9
                next_code = 258
                table = {}
            prev = ch
        emit(prev)
        if next_code == (1 << width) - 2 + shift and width < 12:
            width += 1
        emit(257)
        if nbits:
            out.append((buf << (8 - nbits)) & 0xFF)
        return bytes(out)

    payload = ref_encode(img.tobytes(), 0)
    assert lzw_decode(payload, early=0) == img.tobytes()
    body = stream_obj(
        b"/Subtype /Image /Width 80 /Height 40 /BitsPerComponent 8 "
        b"/ColorSpace /DeviceGray /Filter /LZWDecode "
        b"/DecodeParms << /EarlyChange 0 >>", payload)
    got = pdf_page_images(one_image_pdf(body))[0]
    np.testing.assert_array_equal(got, img)
