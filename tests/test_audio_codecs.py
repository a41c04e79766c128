"""Pure-numpy WAV decoders vs independent references.

µ-law/A-law check against stdlib ``audioop`` (a separate G.711
implementation); IMA ADPCM checks against a scalar spec-literal decoder
written here; the RIFF matrix checks container parsing + channel mixing
end-to-end through AudioFeatureStage.
"""

import struct

import numpy as np
import pytest

from tensorflow_ocr_ray.core.audio_codecs import (
    _IMA_INDEX,
    _IMA_STEPS,
    alaw_decode,
    decode_wav,
    ima_adpcm_decode_blocks,
    mulaw_decode,
)


def _wav(code, nch, bits, block_align, data, fact=None):
    fmt = struct.pack("<HHIIHH", code, nch, 8000,
                      8000 * nch * max(bits, 8) // 8, block_align, bits)
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    if fact is not None:
        chunks += b"fact" + struct.pack("<II", 4, fact)
    chunks += b"data" + struct.pack("<I", len(data)) + data
    if len(data) % 2:
        chunks += b"\x00"
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def test_mulaw_matches_audioop():
    audioop = pytest.importorskip("audioop")
    codes = np.arange(256, dtype=np.uint8)
    got = mulaw_decode(codes)
    want = np.frombuffer(
        audioop.ulaw2lin(codes.tobytes(), 2), dtype="<i2"
    )
    assert (got == want).all()


def test_alaw_matches_audioop():
    audioop = pytest.importorskip("audioop")
    codes = np.arange(256, dtype=np.uint8)
    got = alaw_decode(codes)
    want = np.frombuffer(
        audioop.alaw2lin(codes.tobytes(), 2), dtype="<i2"
    )
    assert (got == want).all()


def _scalar_ima_decode(data: bytes, block_align: int) -> list[int]:
    """Spec-literal scalar IMA decoder (independent of the vectorized
    implementation under test)."""
    out = []
    for b0 in range(0, (len(data) // block_align) * block_align,
                    block_align):
        blk = data[b0:b0 + block_align]
        pred = struct.unpack("<h", blk[0:2])[0]
        index = min(max(blk[2], 0), 88)
        out.append(pred)
        for byte in blk[4:]:
            for nib in (byte & 0xF, byte >> 4):
                step = int(_IMA_STEPS[index])
                diff = step >> 3
                if nib & 1:
                    diff += step >> 2
                if nib & 2:
                    diff += step >> 1
                if nib & 4:
                    diff += step
                if nib & 8:
                    diff = -diff
                pred = min(max(pred + diff, -32768), 32767)
                index = min(max(index + int(_IMA_INDEX[nib]), 0), 88)
                out.append(pred)
    return out


def test_ima_adpcm_matches_scalar_reference():
    rng = np.random.default_rng(17)
    block_align = 36  # 4-byte header + 32 nibble bytes = 65 samples/blk
    n_blocks = 7
    data = b""
    for _ in range(n_blocks):
        pred = int(rng.integers(-30000, 30000))
        idx = int(rng.integers(0, 89))
        data += struct.pack("<hBB", pred, idx, 0)
        data += rng.integers(0, 256, block_align - 4, dtype=np.uint8).tobytes()
    got = ima_adpcm_decode_blocks(data, block_align)
    want = _scalar_ima_decode(data, block_align)
    assert got.tolist() == want


def test_ima_adpcm_fact_truncation():
    data = struct.pack("<hBB", 100, 0, 0) + bytes([0x11] * 4)
    got = ima_adpcm_decode_blocks(data, 8, n_samples=5)
    assert len(got) == 5
    assert got[0] == 100


def test_wav_pcm16_stereo_mean_mix():
    left = np.array([1000, -2000, 3000], dtype="<i2")
    right = np.array([3000, 2000, -3000], dtype="<i2")
    inter = np.empty(6, dtype="<i2")
    inter[0::2], inter[1::2] = left, right
    s = decode_wav(_wav(1, 2, 16, 4, inter.tobytes()))
    want = (left.astype(np.float32) + right) / 2 / 32768.0
    assert np.allclose(s, want)


def test_wav_pcm24_sign_extension():
    # -1 in 24-bit two's complement = 0xFFFFFF; +2^22 = 0x400000
    data = bytes([0xFF, 0xFF, 0xFF, 0x00, 0x00, 0x40])
    s = decode_wav(_wav(1, 1, 24, 3, data))
    assert np.isclose(s[0], -1.0 / (1 << 23))
    assert np.isclose(s[1], 0.5)


def test_wav_float32_passthrough():
    v = np.array([0.25, -0.5, 0.9999], dtype="<f4")
    s = decode_wav(_wav(3, 1, 32, 4, v.tobytes()))
    assert np.allclose(s, v)


def test_wav_mulaw_roundtrip_tone():
    audioop = pytest.importorskip("audioop")
    t = np.arange(800, dtype=np.float64)
    lin = (np.sin(2 * np.pi * 440 * t / 8000) * 20000).astype("<i2")
    enc = audioop.lin2ulaw(lin.tobytes(), 2)
    s = decode_wav(_wav(7, 1, 8, 1, enc))
    # G.711 is lossy log-companding: relative error bounded by segment
    assert len(s) == 800
    assert np.abs(s * 32768.0 - lin).max() < 1024


def test_wav_ima_adpcm_end_to_end():
    block_align = 12
    data = (struct.pack("<hBB", 0, 30, 0)
            + bytes([0x70, 0x07, 0x88, 0x00, 0x11, 0x22, 0x33, 0x44]))
    payload = _wav(0x11, 1, 4, block_align, data, fact=17)
    s = decode_wav(payload)
    want = np.array(_scalar_ima_decode(data, block_align)[:17],
                    dtype=np.float32) / 32768.0
    assert np.allclose(s, want)


def test_wav_stereo_adpcm_raises():
    with pytest.raises(NotImplementedError):
        decode_wav(_wav(0x11, 2, 4, 16, bytes(16)))


def test_audio_feature_stage_on_compressed_wavs(ray_session):
    """The actor stage consumes G.711 + ADPCM WAVs end-to-end (schema
    in/out, frame windowing) — the decode seam is real, not stubbed."""
    import pyarrow as pa

    audioop = pytest.importorskip("audioop")
    from tensorflow_ocr_ray.stages.multimodal import AudioFeatureStage

    lin = (np.sin(np.arange(4096) * 0.05) * 15000).astype("<i2")
    payloads = [
        _wav(7, 1, 8, 1, audioop.lin2ulaw(lin.tobytes(), 2)),
        _wav(6, 1, 8, 1, audioop.lin2alaw(lin.tobytes(), 2)),
        _wav(1, 1, 16, 2, lin.tobytes()),
    ]
    batch = pa.table(
        {"media_ref": pa.array(["u", "a", "p"]),
         "audio": pa.array(payloads, type=pa.binary())}
    )
    out = AudioFeatureStage(frame=1024)(batch)
    assert out.column("n_frames").to_pylist() == [4, 4, 4]
    rms = out.column("rms").to_pylist()
    # companded decodes track the PCM original closely
    assert abs(rms[0] - rms[2]) < 0.01
    assert abs(rms[1] - rms[2]) < 0.01


def test_wav_cut_short_raises_valueerror():
    """A WAV whose data chunk runs past the payload raises ``ValueError``
    from the shared RIFF walk (it decoded 350 of its 400 samples)."""
    data = np.arange(400, dtype="<i2").tobytes()
    payload = _wav(1, 1, 16, 2, data)
    assert len(decode_wav(payload)) == 400
    with pytest.raises(ValueError, match="runs past"):
        decode_wav(payload[:-100])
