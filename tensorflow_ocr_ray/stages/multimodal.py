"""Multimodal media stages — opaque ``binary`` columns + typed metadata.

Pattern (per the engine's 100 TB charter): every modality is an opaque
payload column plus typed metadata columns; decode / resize /
feature-extract / frame-sample run as actor-pool ``map_batches`` stages
with small batch sizes (large payloads x concurrency must fit worker
heaps).

The container ships no image/audio/video libraries, so:
- IMAGE ops are REAL against the repo's own OCR1/OCR8 bitonal codec
  plus spec-implemented TIFF (G4/LZW/PackBits — ``core/raster.py``),
  baseline JPEG (``core/jpeg.py``) and PNG (``core/png.py``) payloads,
  all binarized with the reference threshold rule.
- AUDIO decode is REAL for the whole classic WAV matrix — PCM
  8/16/24/32, IEEE float, G.711 A-law/µ-law, mono IMA ADPCM — via the
  pure-numpy decoders in ``core/audio_codecs.py`` (implemented from the
  public specs, the same way G4/LZW were for images) — and for FLAC
  (``core/flac.py``: constant/verbatim/fixed/LPC subframes, rice
  residuals incl. escapes and partitions, left/right/mid-side stereo,
  wasted bits).  Only lossy containers (mp3/ogg) still gate on
  ``soundfile`` and raise a guarded ``NotImplementedError`` without it.
- VIDEO decode is REAL for RIFF/AVI with uncompressed-DIB (8-bit
  palette / 24-bit BGR / 32-bit BGRX), RLE8, or MJPG frames — the
  MJPEG path decodes each frame with the baseline-JPEG decoder
  implemented from ITU-T T.81 in ``core/jpeg.py`` (pure numpy).
  Inter-frame codecs (MPEG/H.26x) gate on ``av`` and raise a guarded
  ``NotImplementedError`` without it; the deterministic ``FAKEVID``
  codec remains for plumbing tests.  The Ray-side contract — schema
  in/out, actor signature, batch sizing — is real and tested either
  way.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pyarrow as pa

from tensorflow_ocr_ray.core.gif import _read_subblocks
from tensorflow_ocr_ray.core.raster import (
    TIFF_BE,
    TIFF_LE,
    _ifd_values,
    _parse_ifds,
    decode_payload,
    encode_bitonal,
    glyph_windows,
)
from tensorflow_ocr_ray.core.jpeg import _read_frame
from tensorflow_ocr_ray.core.png import _read_ihdr
from tensorflow_ocr_ray.core.video_codecs import _dib_header, _riff_chunks

FAKE_AUDIO_MAGIC = b"FAKEAUD"
FAKE_VIDEO_MAGIC = b"FAKEVID"


# ---------------- image ---------------------------------------------------

class ImageStatsStage:
    """Decode + per-image feature extraction (real): dimensions, ink
    ratio, row/col ink profiles' centroids — the cheap featurization a
    curation pipeline runs corpus-wide."""

    def __init__(self, cutoff: float = 0.5):
        self.cutoff = cutoff

    def __call__(self, batch: pa.Table) -> pa.Table:
        heights, widths, ink, cy, cx = [], [], [], [], []
        for payload in batch.column("image").to_pylist():
            img = decode_payload(payload, self.cutoff)
            h, w = img.shape
            heights.append(h)
            widths.append(w)
            total = int(img.sum())
            ink.append(total / (h * w) if h * w else 0.0)
            if total:
                ys, xs = np.nonzero(img)
                cy.append(float(ys.mean() / h))
                cx.append(float(xs.mean() / w))
            else:
                cy.append(0.0)
                cx.append(0.0)
        out = batch.drop_columns(["image"])
        for name, vals, typ in [
            ("height", heights, pa.int32()), ("width", widths, pa.int32()),
            ("ink_ratio", ink, pa.float32()),
            ("centroid_y", cy, pa.float32()), ("centroid_x", cx, pa.float32()),
        ]:
            out = out.append_column(name, pa.array(vals, type=typ))
        return out


class ImageResizeStage:
    """Decode → nearest-neighbor resize to a fixed thumbnail → re-encode.
    Real end-to-end on the OCR1/OCR8 codec."""

    def __init__(self, size: int = 64, cutoff: float = 0.5):
        self.size = size
        self.cutoff = cutoff

    def __call__(self, batch: pa.Table) -> pa.Table:
        thumbs = []
        for payload in batch.column("image").to_pylist():
            img = decode_payload(payload, self.cutoff)
            h, w = img.shape
            win = glyph_windows(img, [(0, w, 0, h)], size=self.size)[0]
            thumbs.append(encode_bitonal(win.astype(np.uint8)))
        i = batch.schema.get_field_index("image")
        return batch.set_column(
            i, "image", pa.array(thumbs, type=pa.binary())
        )


# ---------------- audio ----------------------------------------------------

def make_fake_audio(ref: str, n_samples: int = 16000) -> bytes:
    """Deterministic stand-in payload: FAKEAUD + n + int16 samples."""
    seed = int.from_bytes(hashlib.md5(ref.encode()).digest()[:4], "little")
    rng = np.random.Generator(np.random.PCG64(seed))
    samples = (rng.normal(0, 3000, n_samples)).astype(np.int16)
    return FAKE_AUDIO_MAGIC + struct.pack("<I", n_samples) + samples.tobytes()


class AudioFeatureStage:
    """Audio decode + frame-energy features.

    Real codecs are absent in this container: genuine payloads raise
    ``NotImplementedError`` unless ``soundfile`` is importable (the
    deployment path); ``FAKEAUD`` payloads decode deterministically so
    the batch plumbing (frame windowing, feature schema) is fully
    exercised."""

    def __init__(self, frame: int = 1024):
        self.frame = frame
        try:
            import soundfile  # noqa: F401

            self._sf = soundfile
        except ImportError:
            self._sf = None

    def _decode(self, payload: bytes) -> np.ndarray:
        if payload[:7] == FAKE_AUDIO_MAGIC:
            (n,) = struct.unpack("<I", payload[7:11])
            return np.frombuffer(payload[11:], dtype=np.int16, count=n).astype(
                np.float32
            ) / 32768.0
        if payload[:4] == b"RIFF" and payload[8:12] == b"WAVE":
            # REAL decode, pure numpy (core/audio_codecs.py): PCM
            # 8/16/24/32, IEEE float, G.711 A-law/µ-law, mono IMA ADPCM;
            # channels mean-mixed to mono
            from tensorflow_ocr_ray.core.audio_codecs import decode_wav

            return decode_wav(payload)
        if payload[:4] == b"fLaC":
            # REAL decode (core/flac.py): constant/verbatim/fixed/LPC
            # subframes, rice residuals, stereo decorrelation
            from tensorflow_ocr_ray.core.flac import decode_flac

            return decode_flac(payload)
        if self._sf is None:
            raise NotImplementedError(
                "non-WAV audio decode requires `soundfile`, not present "
                "in this container — use WAV (PCM / G.711 / mono IMA "
                "ADPCM) or the FAKEAUD test codec"
            )
        import io

        data, _ = self._sf.read(io.BytesIO(payload))
        return np.asarray(data, dtype=np.float32)

    def __call__(self, batch: pa.Table) -> pa.Table:
        n_frames, rms, peak = [], [], []
        for payload in batch.column("audio").to_pylist():
            samples = self._decode(payload)
            k = len(samples) // self.frame
            frames = samples[: k * self.frame].reshape(k, self.frame)
            energy = np.sqrt((frames**2).mean(axis=1)) if k else np.zeros(0)
            n_frames.append(k)
            rms.append(float(energy.mean()) if k else 0.0)
            peak.append(float(np.abs(samples).max()) if len(samples) else 0.0)
        out = batch.drop_columns(["audio"])
        for name, vals, typ in [
            ("n_frames", n_frames, pa.int32()),
            ("rms", rms, pa.float32()), ("peak", peak, pa.float32()),
        ]:
            out = out.append_column(name, pa.array(vals, type=typ))
        return out


# ---------------- video ----------------------------------------------------

def make_fake_video(ref: str, n_frames: int = 12, h: int = 8, w: int = 8) -> bytes:
    seed = int.from_bytes(hashlib.md5(ref.encode()).digest()[4:8], "little")
    rng = np.random.Generator(np.random.PCG64(seed))
    frames = (rng.random((n_frames, h, w)) < 0.5).astype(np.uint8)
    return (
        FAKE_VIDEO_MAGIC
        + struct.pack("<III", n_frames, h, w)
        + np.packbits(frames, axis=None).tobytes()
    )


class VideoFrameSampleStage:
    """Frame sampling: every k-th frame re-emitted as an image payload row
    (one output row per sampled frame — a flat-map-shaped stage).

    REAL decode for RIFF/AVI with uncompressed DIB or RLE8 frames
    (``core/video_codecs.py`` — pure numpy from the public spec, the
    PackBits/G4 precedent); grayscale frames binarize at mid-gray into
    the repo's bitonal payload codec.  Compressed codecs (MJPEG/MPEG/
    H.26x) gate on ``av``; ``FAKEVID`` payloads exercise the fan-out."""

    def __init__(self, every: int = 4, cutoff: int = 128):
        self.every = every
        self.cutoff = cutoff
        try:
            import av  # noqa: F401

            self._av = av
        except ImportError:
            self._av = None

    def _decode(self, payload: bytes) -> np.ndarray:
        if payload[:7] == FAKE_VIDEO_MAGIC:
            n, h, w = struct.unpack("<III", payload[7:19])
            bits = np.unpackbits(
                np.frombuffer(payload[19:], dtype=np.uint8), count=n * h * w
            )
            return bits.reshape(n, h, w).astype(np.uint8)
        if payload[:4] == b"RIFF" and payload[8:12] == b"AVI ":
            from tensorflow_ocr_ray.core.video_codecs import decode_avi

            frames = decode_avi(payload)
            if not frames:
                return np.zeros((0, 1, 1), dtype=np.uint8)
            # grayscale → bitonal ink mask (dark pixels are ink, matching
            # the raster codec's 1=ink convention)
            return np.stack([(f < self.cutoff).astype(np.uint8)
                             for f in frames])
        if payload[:6] in (b"GIF87a", b"GIF89a"):  # animated GIF
            from tensorflow_ocr_ray.core.gif import decode_gif_frames

            return np.stack([(f < self.cutoff).astype(np.uint8)
                             for f in decode_gif_frames(payload)])
        if self._av is None:
            raise NotImplementedError(
                "inter-frame video decode requires `av`, not present in "
                "this container — use AVI (BI_RGB / BI_RLE8 / MJPG) or "
                "the FAKEVID test codec"
            )
        raise NotImplementedError("deployment path: av frame iteration")

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs, frame_idx, frames = [], [], []
        for ref, payload in zip(
            batch.column("media_ref").to_pylist(),
            batch.column("video").to_pylist(),
        ):
            vid = self._decode(payload)
            for i in range(0, vid.shape[0], self.every):
                refs.append(ref)
                frame_idx.append(i)
                frames.append(encode_bitonal(vid[i]))
        return pa.table(
            {
                "media_ref": pa.array(refs, type=pa.string()),
                "frame_idx": pa.array(frame_idx, type=pa.int32()),
                "frame": pa.array(frames, type=pa.binary()),
            }
        )


# ---------------- header probe ---------------------------------------------

def probe_media_header(payload: bytes) -> tuple[str, int, int, int]:
    """(format, width, height, n_frames) from CONTAINER HEADERS ONLY —
    no pixel/sample decode, no decompression.  The cheap metadata pass
    a 100-TB pipeline runs first: route/batch/skip decisions (small vs
    large frames, stills vs animations) cost header bytes, not decode
    CPU.  Every container is read through its decoder's own walk and
    header reader, so a truncated, cyclic or malformed header raises
    the decoder's ``ValueError``: PNG IHDR through ``png._read_ihdr``
    (the decoder's chunk walk and IHDR check); JPEG SOF0/1/2 through
    ``jpeg._read_frame`` (``decode_jpeg_gray``'s marker walk); GIF
    logical screen + a count of image descriptors, skipping sub-blocks
    with the GIF decoder's reader (LZW untouched); AVI through the RIFF
    walk (``video_codecs._riff_chunks``): the first strf
    BITMAPINFOHEADER, read by ``decode_avi``'s ``_dib_header``, +
    ##db/##dc chunk count; TIFF through the IFD walk
    (``raster._parse_ifds``): the first directory's size tags +
    directory count."""
    if payload[:8] == b"\x89PNG\r\n\x1a\n":
        w, h, *_ = _read_ihdr(payload)
        return "png", int(w), int(h), 1
    if payload[:2] == b"\xff\xd8":
        frame = _read_frame(payload)
        return "jpeg", int(frame["w"]), int(frame["h"]), 1
    if payload[:6] in (b"GIF87a", b"GIF89a"):
        if len(payload) < 13:
            raise ValueError("GIF truncated in header")
        w, h, flags = struct.unpack_from("<HHB", payload, 6)
        i = 13 + (3 * (2 << (flags & 7)) if flags & 0x80 else 0)
        if i > len(payload):
            raise ValueError("GIF truncated in global color table")
        frames = 0
        while i < len(payload) and payload[i] != 0x3B:  # to the trailer
            if payload[i] == 0x21:  # extension: label + sub-blocks
                _, i = _read_subblocks(payload, i + 2)
            elif payload[i] == 0x2C:  # descriptor, color table, LZW data
                if i + 10 > len(payload):
                    raise ValueError("GIF truncated in image descriptor")
                lflags = payload[i + 9]
                frames += 1
                _, i = _read_subblocks(payload, i + 11 + (
                    3 * (2 << (lflags & 7)) if lflags & 0x80 else 0))
            else:
                raise ValueError(f"unknown GIF block 0x{payload[i]:02x}")
        return "gif", int(w), int(h), frames
    if payload[:4] == b"RIFF" and payload[8:12] == b"AVI ":
        size = None
        frames = 0
        for cid, body, n in _riff_chunks(payload, 12, len(payload)):
            if cid == b"strf" and size is None:
                size = _dib_header("AVI strf", payload, body, body + n)[:2]
            elif cid[2:4] in (b"db", b"dc"):
                frames += 1
        if size is None:
            raise ValueError("AVI missing strf stream format")
        return "avi", int(size[0]), abs(int(size[1])), frames
    if payload[:4] in (TIFF_LE, TIFF_BE):
        ifds = _parse_ifds(payload)
        first = _ifd_values(ifds[0])
        return "tiff", int(first[256][0]), int(first[257][0]), len(ifds)
    raise ValueError(f"unknown container magic {payload[:4]!r}")


def dhash56(img: "np.ndarray") -> int:
    """Perceptual difference-hash of a gray image: 2x2 average-pool to
    an 8x8 grid (the input must be 16x16), then one bit per
    horizontally-adjacent pair ``pooled[i, j+1] > pooled[i, j]`` —
    7 bits x 8 rows = a 56-bit hash.  Brightness-INVARIANT by
    construction (a constant offset cancels in every comparison), which
    is the property perceptual dedup buys over exact byte hashing:
    re-encoded / re-exposed copies of the same image collide."""
    import numpy as np

    if img.shape != (16, 16):
        raise ValueError(f"dhash56 expects 16x16 gray, got {img.shape}")
    p = img.astype(np.int64).reshape(8, 2, 8, 2).sum(axis=(1, 3))
    bits = (p[:, 1:] > p[:, :-1]).astype(np.uint64).ravel()
    return int((bits << np.arange(56, dtype=np.uint64)).sum())


def read_tiff_tags(payload: bytes) -> dict:
    """First-IFD metadata read: tag -> decoded value for the common
    metadata types (SHORT/LONG as an int, or a list when the count is
    not 1; ASCII as a str; RATIONAL as its first (numerator,
    denominator) pair).  This is the metadata-extraction pass a catalog
    build runs over 100 TB of imagery — header bytes only, no strip
    decode, no decompression.  The walk is the decoder's own
    (``raster._parse_ifds``), so the value areas are bounds-checked and
    a cyclic or truncated directory chain raises ``ValueError``.

    Reference context: the reference reads its TIFFs through libtiff's
    TIFFGetField (main/tiff2font.c) which performs this same IFD walk
    internally; here the walk is explicit and the values land in Arrow
    columns."""
    if payload[:4] not in (TIFF_LE, TIFF_BE):
        raise ValueError(f"not a TIFF: {payload[:4]!r}")
    out: dict = {}
    for tag, (typ, values) in _parse_ifds(payload)[0].items():
        if typ == 2:  # ASCII, count includes NUL
            out[tag] = values.rstrip(b"\x00").decode("ascii")
        elif typ in (3, 4):  # SHORT, LONG
            out[tag] = values[0] if len(values) == 1 else values
        elif typ == 5:  # RATIONAL
            out[tag] = tuple(values[:2])
        # BYTE: skipped (metadata pass, not a full decoder)
    return out


def scene_cut_frames(frames: "np.ndarray", threshold: int) -> list[tuple]:
    """Consecutive-frame change detection over a (n, h, w) bitonal
    stack: diff(i) = count(frame_i != frame_{i-1}); frames whose diff
    exceeds ``threshold`` are scene cuts.  Returns [(frame_idx, diff)].

    Vectorized: ONE xor/popcount over the whole stack (no per-frame
    Python loop) — at scale each video row costs two numpy ops after
    decode, and detection is local to the row (zero shuffle)."""
    import numpy as np

    if frames.shape[0] < 2:
        return []
    diffs = (frames[1:] != frames[:-1]).sum(axis=(1, 2))
    idx = np.nonzero(diffs > threshold)[0]
    return [(int(i) + 1, int(diffs[i])) for i in idx]
