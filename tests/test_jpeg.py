"""Baseline JPEG decoder vs an independent minimal encoder.

The encoder below is written IN THIS TEST from the same public spec
(T.81) but shares no code with the decoder under test: forward DCT via
its own matrix, its own canonical-Huffman construction (fixed-length
codes — valid but deliberately unlike any table the decoder has seen),
its own bit packing with 0xFF stuffing.  With an all-ones quant table
the pipeline is near-lossless, so roundtrip equality within a small
tolerance exercises every decoder stage: marker parse, DHT build,
entropy decode, EXTEND, dequant, zigzag, IDCT, level shift."""

import struct

import numpy as np
import pytest

from tensorflow_ocr_ray.core.jpeg import ZIGZAG, decode_jpeg_gray

_CF = np.array(
    [[np.cos((2 * x + 1) * u * np.pi / 16) *
      (np.sqrt(0.125) if u == 0 else 0.5)
      for x in range(8)] for u in range(8)]
)


def _fdct2(block):
    return _CF @ block @ _CF.T


def _category(v: int) -> int:
    return 0 if v == 0 else int(abs(v)).bit_length()


class _Writer:
    def __init__(self):
        self.out = bytearray()
        self.acc = 0
        self.n = 0

    def bits(self, value: int, length: int):
        for i in range(length - 1, -1, -1):
            self.acc = (self.acc << 1) | ((value >> i) & 1)
            self.n += 1
            if self.n == 8:
                self.out.append(self.acc)
                if self.acc == 0xFF:
                    self.out.append(0x00)
                self.acc = 0
                self.n = 0

    def flush(self):
        while self.n:
            self.bits(1, 1)  # pad with 1s per spec


def _fixed_table(symbols):
    """All symbols at one code length L (canonical, valid, and unlike
    standard tables).  Returns (bits[16], values, code_map)."""
    symbols = sorted(set(symbols))
    L = max(2, (len(symbols)).bit_length())
    assert len(symbols) < (1 << L)  # avoid the all-ones code
    bits = [0] * 16
    bits[L - 1] = len(symbols)
    # (code, length) — positional for _Writer.bits(value, length)
    code_map = {s: (i, L) for i, s in enumerate(symbols)}
    return bits, bytes(symbols), code_map


def encode_gray_jpeg(img: np.ndarray, restart: int = 0) -> bytes:
    """Minimal baseline encoder: grayscale, 4:4:4, all-ones quant."""
    h, w = img.shape
    ph, pw = (h + 7) & ~7, (w + 7) & ~7
    padded = np.zeros((ph, pw), dtype=np.float64)
    padded[:h, :w] = img.astype(np.float64)
    padded[h:, :w] = padded[h - 1:h, :w]  # edge-extend padding
    padded[:, w:] = padded[:, w - 1:w]

    # first pass: quantized coefficients per block + symbol stats
    blocks = []
    pred = 0
    dc_syms, ac_syms = [], []
    mcu = 0
    for y in range(0, ph, 8):
        for x in range(0, pw, 8):
            if restart and mcu and mcu % restart == 0:
                pred = 0
            coef = np.round(_fdct2(padded[y:y + 8, x:x + 8] - 128.0))
            zz = coef.reshape(64)[ZIGZAG].astype(np.int64)
            diff = int(zz[0]) - pred
            pred = int(zz[0])
            dc_syms.append(_category(diff))
            runs = []
            run = 0
            last_nz = max(np.nonzero(zz)[0]) if zz.any() else 0
            for k in range(1, 64):
                v = int(zz[k])
                if v == 0:
                    if k > last_nz:
                        break
                    run += 1
                    if run == 16:
                        runs.append((15, 0, 0))
                        ac_syms.append(0xF0)
                        run = 0
                else:
                    s = _category(v)
                    runs.append((run, s, v))
                    ac_syms.append((run << 4) | s)
                    run = 0
            eob = last_nz < 63
            if eob:
                ac_syms.append(0x00)
            blocks.append((diff, runs, eob))
            mcu += 1

    dc_bits, dc_vals, dc_map = _fixed_table(dc_syms)
    ac_bits, ac_vals, ac_map = _fixed_table(ac_syms)

    def seg(marker, body):
        return bytes([0xFF, marker]) + struct.pack(
            ">H", len(body) + 2) + body

    out = bytearray(b"\xff\xd8")
    out += seg(0xDB, bytes([0x00]) + bytes([1] * 64))  # DQT all-ones
    out += seg(0xC0, struct.pack(">BHHB", 8, h, w, 1)
               + bytes([1, 0x11, 0]))
    out += seg(0xC4, bytes([0x00]) + bytes(dc_bits) + dc_vals)
    out += seg(0xC4, bytes([0x10]) + bytes(ac_bits) + ac_vals)
    if restart:
        out += seg(0xDD, struct.pack(">H", restart))
    out += seg(0xDA, bytes([1, 1, 0x00, 0, 63, 0]))

    wtr = _Writer()
    rstn = 0
    for i, (diff, runs, eob) in enumerate(blocks):
        if restart and i and i % restart == 0:
            wtr.flush()
            out += wtr.out
            wtr = _Writer()
            out += bytes([0xFF, 0xD0 + rstn])
            rstn = (rstn + 1) % 8
        t = _category(diff)
        wtr.bits(*dc_map[t])
        if t:
            mag = diff if diff > 0 else diff + (1 << t) - 1
            wtr.bits(mag, t)
        for run, s, v in runs:
            wtr.bits(*ac_map[(run << 4) | s])
            if s:
                mag = v if v > 0 else v + (1 << s) - 1
                wtr.bits(mag, s)
        if eob:
            wtr.bits(*ac_map[0x00])
    wtr.flush()
    out += wtr.out
    out += b"\xff\xd9"
    return bytes(out)


def test_flat_gray_single_block():
    img = np.full((8, 8), 200, dtype=np.uint8)
    got = decode_jpeg_gray(encode_gray_jpeg(img))
    assert got.shape == (8, 8)
    assert np.abs(got.astype(int) - 200).max() <= 1


def test_random_roundtrip_non_multiple_of_8():
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, (23, 17), dtype=np.uint8)
    got = decode_jpeg_gray(encode_gray_jpeg(img))
    assert got.shape == (23, 17)
    # all-ones quant: error budget = FDCT round + quant round + IDCT
    assert np.abs(got.astype(int) - img.astype(int)).max() <= 3


def test_gradient_roundtrip_multi_mcu():
    y, x = np.mgrid[0:32, 0:40]
    img = ((y * 3 + x * 2) % 256).astype(np.uint8)
    got = decode_jpeg_gray(encode_gray_jpeg(img))
    assert np.abs(got.astype(int) - img.astype(int)).max() <= 3


def test_restart_intervals():
    rng = np.random.default_rng(9)
    img = rng.integers(0, 256, (16, 32), dtype=np.uint8)  # 8 MCUs
    got = decode_jpeg_gray(encode_gray_jpeg(img, restart=3))
    assert np.abs(got.astype(int) - img.astype(int)).max() <= 3


def test_mislabeled_progressive_and_arithmetic_raise():
    """Progressive is now DECODED (test_jpeg_progressive.py); a baseline
    stream relabeled SOF2 is spec-invalid (its single scan says Ss=0
    Se=63 — DC scans must have Se=0) and must be rejected, and
    arithmetic coding still raises NotImplementedError."""
    img = np.zeros((8, 8), dtype=np.uint8)
    payload = bytearray(encode_gray_jpeg(img))
    i = payload.index(bytes([0xFF, 0xC0]))
    payload[i + 1] = 0xC2  # SOF2: progressive
    with pytest.raises(ValueError, match="spectral"):
        decode_jpeg_gray(bytes(payload))
    payload[i + 1] = 0xC9  # SOF9: arithmetic sequential
    with pytest.raises(NotImplementedError):
        decode_jpeg_gray(bytes(payload))


def test_not_jpeg_raises():
    with pytest.raises(ValueError):
        decode_jpeg_gray(b"\x00" * 16)


def test_mjpeg_avi_end_to_end():
    """MJPG-compressed AVI through decode_avi: each frame chunk is a
    standalone baseline JPEG."""
    from tensorflow_ocr_ray.core.video_codecs import decode_avi

    def _chunk(cid, body):
        pad = b"\x00" if len(body) % 2 else b""
        return cid + struct.pack("<I", len(body)) + body + pad

    def _list(kind, body):
        return _chunk(b"LIST", kind + body)

    frames_px = [np.full((16, 16), v, dtype=np.uint8)
                 for v in (30, 120, 240)]
    jpegs = [encode_gray_jpeg(f) for f in frames_px]
    bih = struct.pack("<IiiHHIIiiII", 40, 16, 16, 1, 24,
                      0x47504A4D, 0, 0, 0, 0, 0)
    strl = _list(b"strl", _chunk(b"strh", bytes(56))
                 + _chunk(b"strf", bih))
    hdrl = _list(b"hdrl", _chunk(b"avih", bytes(56)) + strl)
    movi = _list(b"movi", b"".join(_chunk(b"00dc", j) for j in jpegs))
    body = b"AVI " + hdrl + movi
    payload = b"RIFF" + struct.pack("<I", len(body)) + body

    frames = decode_avi(payload)
    assert len(frames) == 3
    for f, px in zip(frames, frames_px):
        assert f.shape == (16, 16)
        assert np.abs(f.astype(int) - px.astype(int)).max() <= 1


def test_image_stage_accepts_jpeg_payload(ray_session):
    """ImageStatsStage consumes a raw JPEG image payload: decode →
    binarize (reference threshold rule) → features."""
    import pyarrow as pa

    from tensorflow_ocr_ray.stages.multimodal import ImageStatsStage

    img = np.full((16, 16), 255, dtype=np.uint8)
    img[4:8, 4:12] = 0  # an ink rectangle
    batch = pa.table(
        {"media_ref": pa.array(["j1"]),
         "image": pa.array([encode_gray_jpeg(img)], type=pa.binary())}
    )
    out = ImageStatsStage()(batch)
    assert out.column("height").to_pylist() == [16]
    assert out.column("width").to_pylist() == [16]
    ink = out.column("ink_ratio").to_pylist()[0]
    assert abs(ink - (4 * 8) / 256) < 0.02  # JPEG edges may blur 1px


def _fixture_jpegs() -> list[bytes]:
    """The 8 JPEGs of the ``media_jpeg_ink`` query: even doc_ids
    baseline, odd ones progressive."""
    import pandas as pd

    import __ray_entry__

    return __ray_entry__._jpeg_payloads(
        pd.DataFrame({"doc_id": list(range(8))})).column("image").to_pylist()


@pytest.mark.parametrize("doc", range(8))
def test_truncated_jpeg_raises_valueerror(doc):
    """Every prefix of a fixture JPEG raises ``ValueError``, except that a
    baseline stream without its EOI (the last one or two bytes) still
    decodes, to the whole stream's pixels."""
    payload = _fixture_jpegs()[doc]
    full = decode_jpeg_gray(payload)
    decoded = []
    for n in range(len(payload)):
        try:
            img = decode_jpeg_gray(payload[:n])
        except ValueError:
            continue
        assert np.array_equal(img, full), n
        decoded.append(n)
    want = [len(payload) - 2, len(payload) - 1] if doc % 2 == 0 else []
    assert decoded == want
