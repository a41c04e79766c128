"""AVI container + DIB/RLE8 decoders vs spec-crafted fixtures.

Every fixture is built BYTE-BY-BYTE from the public RIFF/AVI + DIB
specs in this file (bottom-up rows, 4-byte stride, palette after
BITMAPINFOHEADER, RLE8 escape codes) — the builder is the spec, the
decoder is under test; nothing round-trips through itself.
"""

import struct

import numpy as np
import pytest

from tensorflow_ocr_ray.core.video_codecs import decode_avi, decode_rle8


def _chunk(cid: bytes, body: bytes) -> bytes:
    pad = b"\x00" if len(body) % 2 else b""
    return cid + struct.pack("<I", len(body)) + body + pad


def _list(kind: bytes, body: bytes) -> bytes:
    return _chunk(b"LIST", kind + body)


def _strf(w: int, h: int, bpp: int, compression: int,
          palette: bytes = b"") -> bytes:
    bih = struct.pack(
        "<IiiHHIIiiII", 40, w, h, 1, bpp, compression, 0, 0, 0, 0, 0
    )
    return _chunk(b"strf", bih + palette)


def _avi(w, h, bpp, compression, frame_chunks, palette=b""):
    strl = _list(b"strl", _chunk(b"strh", bytes(56))
                 + _strf(w, h, bpp, compression, palette))
    hdrl = _list(b"hdrl", _chunk(b"avih", bytes(56)) + strl)
    movi = _list(b"movi", b"".join(
        _chunk(b"00dc" if compression else b"00db", f)
        for f in frame_chunks
    ))
    body = b"AVI " + hdrl + movi
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _dib24(img_rgb: np.ndarray) -> bytes:
    """(h, w, 3) RGB top-down → DIB bytes (BGR, bottom-up, 4-aligned)."""
    h, w, _ = img_rgb.shape
    stride = (w * 3 + 3) & ~3
    out = bytearray(stride * h)
    for y in range(h):
        row = img_rgb[h - 1 - y]  # bottom-up
        for x in range(w):
            r, g, b = (int(v) for v in row[x])
            out[y * stride + 3 * x: y * stride + 3 * x + 3] = bytes(
                (b, g, r)
            )
    return bytes(out)


def _luma(r, g, b):
    return (77 * r + 150 * g + 29 * b) >> 8


def test_avi_bgr24_known_pixels():
    img = np.zeros((3, 5, 3), dtype=np.uint8)
    img[0, 0] = (255, 0, 0)      # top-left red
    img[2, 4] = (0, 0, 255)      # bottom-right blue
    img[1, 2] = (0, 255, 0)      # center green
    frames = decode_avi(_avi(5, 3, 24, 0, [_dib24(img)]))
    assert len(frames) == 1
    f = frames[0]
    assert f.shape == (3, 5)
    assert f[0, 0] == _luma(255, 0, 0)
    assert f[2, 4] == _luma(0, 0, 255)
    assert f[1, 2] == _luma(0, 255, 0)
    assert f[0, 1] == 0


def test_avi_multi_frame_order():
    imgs = []
    for k in range(5):
        im = np.zeros((2, 2, 3), dtype=np.uint8)
        im[:, :] = (k * 40, k * 40, k * 40)
        imgs.append(_dib24(im))
    frames = decode_avi(_avi(2, 2, 24, 0, imgs))
    assert [int(f[0, 0]) for f in frames] == [
        _luma(k * 40, k * 40, k * 40) for k in range(5)
    ]


def test_avi_8bit_palette():
    # palette: index 0 → black, 1 → white, 2 → mid gray (BGRX quads)
    pal = bytes((0, 0, 0, 0)) + bytes((255, 255, 255, 0)) \
        + bytes((128, 128, 128, 0))
    # 3x2 frame, bottom-up, stride 4: bottom row [1,2,0], top row [0,0,1]
    dib = bytes((1, 2, 0, 0)) + bytes((0, 0, 1, 0))
    frames = decode_avi(_avi(3, 2, 8, 0, [dib], palette=pal))
    f = frames[0]
    assert f.shape == (2, 3)
    assert f[1].tolist() == [255, _luma(128, 128, 128), 0]  # bottom row
    assert f[0].tolist() == [0, 0, 255]                     # top row


def test_rle8_runs_and_escapes():
    # 4x3 bitmap: bottom row = 4×7; middle row: abs run [1,2,3] then 9;
    # top row: delta-skip 2 then run 2×5; end-of-bitmap
    data = bytes(
        [4, 7, 0, 0,               # run 4×7, EOL
         0, 3, 1, 2, 3, 0, 1, 9, 0, 0,  # abs[1,2,3] (pad), run 1×9, EOL
         0, 2, 2, 0, 2, 5,         # delta x+=2, run 2×5
         0, 1]                     # end of bitmap
    )
    img = decode_rle8(data, 4, 3)
    assert img.shape == (3, 4)
    assert img[2].tolist() == [7, 7, 7, 7]      # bottom row after flip
    assert img[1].tolist() == [1, 2, 3, 9]
    assert img[0].tolist() == [0, 0, 5, 5]


def test_avi_rle8_with_palette():
    pal = bytes((0, 0, 0, 0)) + bytes((200, 200, 200, 0))
    rle = bytes([2, 1, 0, 0, 2, 0, 0, 1])  # row0: 2×idx1; row1: 2×idx0
    frames = decode_avi(_avi(2, 2, 8, 1, [rle], palette=pal))
    f = frames[0]
    assert f[1].tolist() == [_luma(200, 200, 200)] * 2  # bottom row
    assert f[0].tolist() == [0, 0]


def test_avi_compressed_codec_raises():
    # MJPG is now a REAL path (core/jpeg.py, tested in test_jpeg.py);
    # inter-frame codecs still raise
    with pytest.raises(NotImplementedError):
        decode_avi(_avi(2, 2, 24, 0x34363248, [bytes(16)]))  # 'H264'


def test_avi_not_riff_raises():
    with pytest.raises(ValueError):
        decode_avi(b"\x00" * 32)


def _nested_lists(depth: int) -> bytes:
    inner = b""
    for _ in range(depth):
        inner = _list(b"movi", inner)
    return b"RIFF" + struct.pack("<I", len(inner) + 4) + b"AVI " + inner


@pytest.mark.parametrize("payload", [
    _avi(2, 2, 8, 1, [bytes([2, 1, 0, 0, 2, 0, 0, 1])])[:-3],
    _nested_lists(3000),
], ids=["rle8_cut_short", "lists_3000_deep"])
def test_avi_malformed_container_raises_valueerror(payload):
    """A chunk running past its list, or LISTs nested past Python's
    recursion limit, raise ValueError from the RIFF walk rather than
    decoding a partial frame or overflowing the stack."""
    with pytest.raises(ValueError):
        decode_avi(payload)


def test_video_stage_samples_avi_frames(ray_session):
    """VideoFrameSampleStage consumes a real AVI end-to-end: every-2nd
    frame sampled, binarized, re-encoded through the raster codec."""
    import pyarrow as pa

    from tensorflow_ocr_ray.core.raster import decode_payload
    from tensorflow_ocr_ray.stages.multimodal import VideoFrameSampleStage

    imgs = []
    for k in range(6):
        im = np.full((4, 4, 3), 255 if k % 2 else 0, dtype=np.uint8)
        imgs.append(_dib24(im))
    payload = _avi(4, 4, 24, 0, imgs)
    batch = pa.table(
        {"media_ref": pa.array(["v1"]),
         "video": pa.array([payload], type=pa.binary())}
    )
    out = VideoFrameSampleStage(every=2)(batch)
    assert out.column("frame_idx").to_pylist() == [0, 2, 4]
    # frames 0,2,4 are black (ink=1 everywhere after binarize)
    for blob in out.column("frame").to_pylist():
        assert decode_payload(blob, 0.5).all()


def test_decode_bmp_all_variants_agree():
    """The four BMP variants (pal8 bottom-up, bgr24 bottom-up, bgrx32
    TOP-DOWN, RLE8) of the same ink geometry decode to the same
    grayscale image — row order, palette luma and RLE escapes pinned
    against each other, byte-built from the spec."""
    import numpy as np
    import pandas as pd

    import __ray_entry__ as e
    from tensorflow_ocr_ray.core.video_codecs import decode_bmp

    t = e._bmp_payloads(pd.DataFrame({"doc_id": [0, 1, 2, 3]}))
    for ref, p in zip(t.column("media_ref").to_pylist(),
                      t.column("image").to_pylist()):
        d = int(ref)
        h, w = 8 + d % 4, 8
        gray = decode_bmp(p)
        assert gray.shape == (h, w)
        expect = np.where(
            np.arange(h)[:, None] < 1 + d % 5, 0, 255
        ).astype(np.uint8).repeat(w, 1)
        assert (gray == expect).all(), d


def test_decode_bmp_rejects_garbage():
    import pytest

    from tensorflow_ocr_ray.core.video_codecs import decode_bmp

    with pytest.raises(ValueError):
        decode_bmp(b"NOTABMP" + b"\x00" * 60)


def _traced_peak_of_refusal(decode, payload) -> int:
    """Peak traced bytes of ``decode(payload)``, which must raise
    ``ValueError``."""
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            decode(payload)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dib_headers_are_capped_before_allocation():
    """The 108-byte RLE8 BMP of the fixture set with bit 29 of its width
    flipped claims 536,870,920 x 11 pixels (it used to allocate ~12 GB);
    every BMP variant and an AVI strf with that width, and a BI_RGB frame
    shorter than its rows, raise ``ValueError`` under a 16 MiB peak."""
    import pandas as pd

    import __ray_entry__ as e
    from tensorflow_ocr_ray.core.video_codecs import decode_bmp

    t = e._bmp_payloads(pd.DataFrame({"doc_id": [0, 1, 2, 3]}))
    payloads = t.column("image").to_pylist()
    assert len(payloads[3]) == 108
    for p in payloads:
        flipped = bytearray(p)
        flipped[21] ^= 0x20  # bit 29 of biWidth (little-endian, offset 18)
        assert struct.unpack_from("<i", flipped, 18)[0] == 536_870_920
        assert _traced_peak_of_refusal(decode_bmp, bytes(flipped)) < 16 << 20
        short = bytearray(p[:-20])  # BI_RGB rows cut short
        if struct.unpack_from("<I", p, 30)[0] == 0:
            assert _traced_peak_of_refusal(decode_bmp, bytes(short)) < 16 << 20
    for bpp, comp in ((24, 0), (8, 1)):
        avi = _avi(536_870_920, 11, bpp, comp, [bytes(64)])
        assert _traced_peak_of_refusal(decode_avi, avi) < 16 << 20
    with pytest.raises(ValueError, match="short of 4 rows of 12"):
        decode_avi(_avi(4, 4, 24, 0, [bytes(47)]))
    assert decode_avi(_avi(4, 4, 24, 0, [bytes(48)]))[0].shape == (4, 4)


def _avi_short_strf(trailer: bytes) -> bytes:
    """An AVI whose ``strf`` holds 12 bytes, not a 40-byte
    BITMAPINFOHEADER, followed in its list by ``trailer``."""
    strf = _chunk(b"strf", struct.pack("<Iii", 40, 2, 2))
    strl = _list(b"strl", _chunk(b"strh", bytes(56)) + strf + trailer)
    body = b"AVI " + _list(b"hdrl", _chunk(b"avih", bytes(56)) + strl)
    return b"RIFF" + struct.pack("<I", len(body)) + body


@pytest.mark.parametrize("trailer", [b"", _chunk(b"JUNK", bytes(16))],
                         ids=["at_end", "before_next_chunk"])
def test_avi_short_strf_raises_valueerror(trailer):
    """A ``strf`` shorter than the 20 header bytes read from it raises
    ``ValueError``, at the end of the payload (where the unpack would
    run out of bytes) and before another chunk (whose bytes it would
    read as the header's)."""
    with pytest.raises(ValueError, match="strf"):
        decode_avi(_avi_short_strf(trailer))


def test_bmp_index_past_palette_reads_zero():
    """The 2-entry palette of the fixture's 8-bit BMP is padded to 256
    entries like AVI's: a pixel index past it reads 0 (it raised
    ``IndexError``), and the indices inside it read as before."""
    import pandas as pd

    import __ray_entry__ as e
    from tensorflow_ocr_ray.core.video_codecs import decode_bmp

    payload = bytearray(e._bmp_payloads(
        pd.DataFrame({"doc_id": [0]})).column("image")[0].as_py())
    (off,) = struct.unpack_from("<I", payload, 10)
    want = decode_bmp(bytes(payload))
    payload[off] = 7  # bottom row, first pixel
    got = decode_bmp(bytes(payload))
    assert got[-1, 0] == 0
    want[-1, 0] = 0
    assert (got == want).all()
