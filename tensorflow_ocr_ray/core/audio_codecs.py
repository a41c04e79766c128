"""Pure-numpy WAV decoding: PCM, G.711 µ-law/A-law, IMA ADPCM.

The container ships no audio libraries, so — exactly as CCITT G4 and
TIFF-LZW were implemented from their public specs for the image side
(``core/ccitt.py``, ``core/tiff_lzw.py``) — the audio seam gets real
decoders for the classic WAV codecs from their published definitions:

- PCM (format 1): 8-bit unsigned, 16/24/32-bit signed little-endian.
- IEEE float (format 3): float32/float64.
- G.711 A-law (format 6) and µ-law (format 7): ITU-T G.711 expansion,
  the textbook segment/mantissa formulas (cf. the public-domain Sun
  Microsystems g711.c tables reproduced in every codec text).
- IMA/DVI ADPCM (format 0x11): block-structured 4-bit ADPCM per the
  IMA Digital Audio Pack (1992) step/index tables.  Decoding is
  sequential per sample WITHIN a block but independent ACROSS blocks,
  so the hot loop runs over sample positions with numpy vectorizing
  across all blocks — the same across-independent-units loop shape as
  the G4 row decoder.

Everything returns mono float32 in [-1, 1) (multi-channel mean-mixed,
matching ``AudioFeatureStage``'s contract).  No external imports beyond
numpy; malformed containers raise ValueError with the offending chunk.
"""

from __future__ import annotations

import struct

import numpy as np

from tensorflow_ocr_ray.core.video_codecs import _riff_chunks

WAVE_PCM = 0x0001
WAVE_FLOAT = 0x0003
WAVE_ALAW = 0x0006
WAVE_MULAW = 0x0007
WAVE_IMA_ADPCM = 0x0011

# ---------------- G.711 ----------------------------------------------------

_BIAS = 0x84


def mulaw_decode(u8: np.ndarray) -> np.ndarray:
    """µ-law bytes → int16 linear (ITU-T G.711 µ-law expansion)."""
    u = (~np.asarray(u8, dtype=np.uint8)).astype(np.int32) & 0xFF
    t = ((u & 0x0F) << 3) + _BIAS
    t <<= (u & 0x70) >> 4
    return np.where(u & 0x80, _BIAS - t, t - _BIAS).astype(np.int16)


def alaw_decode(a8: np.ndarray) -> np.ndarray:
    """A-law bytes → int16 linear (ITU-T G.711 A-law expansion)."""
    a = (np.asarray(a8, dtype=np.uint8).astype(np.int32)) ^ 0x55
    t = (a & 0x0F) << 4
    seg = (a & 0x70) >> 4
    t = np.where(
        seg == 0, t + 8,
        np.where(seg == 1, t + 0x108, (t + 0x108) << np.maximum(seg - 1, 0)),
    )
    return np.where(a & 0x80, t, -t).astype(np.int16)


# ---------------- IMA ADPCM -------------------------------------------------

_IMA_STEPS = np.array(
    [7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34, 37,
     41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130, 143, 157, 173,
     190, 209, 230, 253, 279, 307, 337, 371, 408, 449, 494, 544, 598, 658,
     724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066,
     2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358, 5894,
     6484, 7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899, 15289,
     16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767],
    dtype=np.int32,
)
_IMA_INDEX = np.array(
    [-1, -1, -1, -1, 2, 4, 6, 8, -1, -1, -1, -1, 2, 4, 6, 8],
    dtype=np.int32,
)


def ima_adpcm_decode_blocks(
    data: bytes, block_align: int, n_samples: int | None = None
) -> np.ndarray:
    """Mono IMA-ADPCM WAV ``data`` chunk → int16 samples.

    Block layout (IMA Digital Audio Pack): 4-byte header (int16
    predictor — emitted as the block's first sample — uint8 step index,
    reserved byte), then ``block_align - 4`` bytes of nibbles, low
    nibble first.  The sample loop is vectorized ACROSS blocks; the
    per-position iteration count is samples-per-block (~505 at the
    classic 256-byte block), independent of corpus size."""
    if block_align <= 4:
        raise ValueError(f"IMA ADPCM block_align {block_align} too small")
    usable = (len(data) // block_align) * block_align
    if usable == 0:
        return np.zeros(0, dtype=np.int16)
    blocks = np.frombuffer(data[:usable], dtype=np.uint8).reshape(
        -1, block_align
    )
    n_blk = blocks.shape[0]
    pred = (
        blocks[:, 0].astype(np.int32)
        | (blocks[:, 1].astype(np.int32) << 8)
    )
    pred = np.where(pred >= 0x8000, pred - 0x10000, pred)
    index = np.clip(blocks[:, 2].astype(np.int32), 0, 88)
    payload = blocks[:, 4:]
    # nibble stream per block: low nibble of byte 0, high nibble, ...
    nibbles = np.empty((n_blk, payload.shape[1] * 2), dtype=np.int32)
    nibbles[:, 0::2] = payload & 0x0F
    nibbles[:, 1::2] = payload >> 4
    spb = nibbles.shape[1] + 1  # header predictor is sample 0
    out = np.empty((n_blk, spb), dtype=np.int16)
    out[:, 0] = pred.astype(np.int16)
    for i in range(nibbles.shape[1]):
        nib = nibbles[:, i]
        step = _IMA_STEPS[index]
        diff = step >> 3
        diff += np.where(nib & 1, step >> 2, 0)
        diff += np.where(nib & 2, step >> 1, 0)
        diff += np.where(nib & 4, step, 0)
        diff = np.where(nib & 8, -diff, diff)
        pred = np.clip(pred + diff, -32768, 32767)
        index = np.clip(index + _IMA_INDEX[nib], 0, 88)
        out[:, i + 1] = pred.astype(np.int16)
    flat = out.reshape(-1)
    if n_samples is not None:
        flat = flat[:n_samples]
    return flat


def decode_wav(payload: bytes) -> np.ndarray:
    """RIFF/WAVE bytes → mono float32 in [-1, 1).

    Handles PCM 8/16/24/32, IEEE float32/64, G.711 A-law/µ-law (any
    channel count, mean-mixed) and MONO IMA ADPCM (the format's stereo
    variant interleaves 4-byte nibble groups per channel — unsupported
    here, raises NotImplementedError).  The chunks are read through
    ``video_codecs._riff_chunks``, the RIFF walk ``decode_avi`` and the
    header probe use, so a chunk that runs past the payload (a WAV cut
    short) raises ``ValueError``."""
    if payload[:4] != b"RIFF" or payload[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE payload")
    fmt = None
    data = None
    fact_samples = None
    for cid, pos, size in _riff_chunks(payload, 12, len(payload)):
        body = payload[pos:pos + size]
        if cid == b"fmt ":
            if len(body) < 16:
                raise ValueError("fmt chunk too short")
            (code, nch, _rate, _bps, block_align, bits) = struct.unpack(
                "<HHIIHH", body[:16]
            )
            fmt = (code, nch, block_align, bits)
        elif cid == b"fact" and len(body) >= 4:
            (fact_samples,) = struct.unpack("<I", body[:4])
        elif cid == b"data":
            data = body
    if fmt is None or data is None:
        raise ValueError("WAV missing fmt or data chunk")
    code, nch, block_align, bits = fmt
    if nch < 1:
        raise ValueError("WAV with zero channels")

    if code == WAVE_PCM:
        if bits == 8:
            s = (np.frombuffer(data, dtype=np.uint8).astype(np.float32)
                 - 128.0) / 128.0
        elif bits == 16:
            s = np.frombuffer(data, dtype="<i2").astype(np.float32) / 32768.0
        elif bits == 24:
            raw = np.frombuffer(data, dtype=np.uint8)
            raw = raw[: (len(raw) // 3) * 3].reshape(-1, 3)
            v = (
                raw[:, 0].astype(np.int32)
                | (raw[:, 1].astype(np.int32) << 8)
                | (raw[:, 2].astype(np.int32) << 16)
            )
            v = np.where(v >= 1 << 23, v - (1 << 24), v)
            s = v.astype(np.float32) / float(1 << 23)
        elif bits == 32:
            s = (np.frombuffer(data, dtype="<i4").astype(np.float64)
                 / float(1 << 31)).astype(np.float32)
        else:
            raise ValueError(f"unsupported PCM bit depth {bits}")
    elif code == WAVE_FLOAT:
        if bits == 32:
            s = np.frombuffer(data, dtype="<f4").astype(np.float32)
        elif bits == 64:
            s = np.frombuffer(data, dtype="<f8").astype(np.float32)
        else:
            raise ValueError(f"unsupported float bit depth {bits}")
    elif code == WAVE_ALAW:
        s = alaw_decode(np.frombuffer(data, dtype=np.uint8)).astype(
            np.float32
        ) / 32768.0
    elif code == WAVE_MULAW:
        s = mulaw_decode(np.frombuffer(data, dtype=np.uint8)).astype(
            np.float32
        ) / 32768.0
    elif code == WAVE_IMA_ADPCM:
        if nch != 1:
            raise NotImplementedError(
                "stereo IMA ADPCM (per-channel interleaved nibble groups) "
                "is not implemented — mono only"
            )
        s = ima_adpcm_decode_blocks(
            data, block_align, fact_samples
        ).astype(np.float32) / 32768.0
        return s  # already mono
    else:
        raise NotImplementedError(f"WAV format code {code:#x}")

    if nch > 1:
        s = s[: (len(s) // nch) * nch].reshape(-1, nch).mean(axis=1)
    return s.astype(np.float32)
