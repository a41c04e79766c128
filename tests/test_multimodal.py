"""Multimodal stages: real image ops, stubbed audio/video with real
Ray-side plumbing (schema, batching, actor signatures)."""

import numpy as np
import pyarrow as pa
import pytest

from tensorflow_ocr_ray.core.raster import (
    decode_payload,
    decode_payload_pages,
    encode_bitonal,
)
from tensorflow_ocr_ray.fixtures import payload_for_ref
from tensorflow_ocr_ray.stages.multimodal import (
    AudioFeatureStage,
    ImageResizeStage,
    ImageStatsStage,
    VideoFrameSampleStage,
    make_fake_audio,
    make_fake_video,
    probe_media_header,
    read_tiff_tags,
)


def _image_batch(n=3):
    refs = [f"page-42-{i:06d}-0" for i in range(n)]
    return pa.table(
        {
            "media_ref": pa.array(refs),
            "image": pa.array([payload_for_ref(r) for r in refs],
                              type=pa.binary()),
        }
    )


def test_image_stats_stage():
    out = ImageStatsStage()(_image_batch())
    assert out.column_names == [
        "media_ref", "height", "width", "ink_ratio", "centroid_y",
        "centroid_x",
    ]
    assert all(0 < r < 1 for r in out.column("ink_ratio").to_pylist())
    assert all(h > 0 for h in out.column("height").to_pylist())


def test_image_resize_stage_roundtrip():
    out = ImageResizeStage(size=32)(_image_batch())
    for payload in out.column("image").to_pylist():
        thumb = decode_payload(payload)
        assert thumb.shape == (32, 32)
        assert set(np.unique(thumb)) <= {0, 1}


def test_audio_fake_codec_features():
    batch = pa.table(
        {
            "media_ref": pa.array(["a1", "a2"]),
            "audio": pa.array(
                [make_fake_audio("a1"), make_fake_audio("a2")],
                type=pa.binary(),
            ),
        }
    )
    out = AudioFeatureStage(frame=512)(batch)
    assert out.column_names == ["media_ref", "n_frames", "rms", "peak"]
    assert out.column("n_frames").to_pylist() == [31, 31]  # 16000 // 512
    assert all(r > 0 for r in out.column("rms").to_pylist())
    # deterministic: same ref → same features
    again = AudioFeatureStage(frame=512)(batch)
    assert out.equals(again)


def test_audio_compressed_decode_stubbed():
    """Non-WAV, non-FAKEAUD payloads (compressed formats) still need the
    external soundfile deployment path."""
    stage = AudioFeatureStage()
    if stage._sf is not None:
        pytest.skip("soundfile present; stub path not reachable")
    batch = pa.table(
        {
            "media_ref": pa.array(["x"]),
            "audio": pa.array([b"OggS....compressed"], type=pa.binary()),
        }
    )
    with pytest.raises(NotImplementedError):
        stage(batch)


def test_video_frame_sampling():
    batch = pa.table(
        {
            "media_ref": pa.array(["v1"]),
            "video": pa.array([make_fake_video("v1", n_frames=12)],
                              type=pa.binary()),
        }
    )
    out = VideoFrameSampleStage(every=4)(batch)
    assert out.column("frame_idx").to_pylist() == [0, 4, 8]
    for f in out.column("frame").to_pylist():
        assert decode_payload(f).shape == (8, 8)


def test_multimodal_in_ray_pipeline(ray_session):
    """The actor-pool plumbing end-to-end: binary column in, stats out."""
    import ray.data as rd

    ds = rd.from_arrow(_image_batch(8)).map_batches(
        ImageStatsStage, batch_format="pyarrow", batch_size=4,
        concurrency=2,
    )
    df = ds.to_pandas()
    assert len(df) == 8
    assert (df["ink_ratio"] > 0).all()


def test_audio_real_wav_pcm_decode(ray_session):
    """Uncompressed PCM WAV decodes for REAL via stdlib `wave` — only
    compressed formats need the external-soundfile deployment path."""
    import io
    import struct as _struct
    import wave

    import numpy as np
    import pyarrow as pa

    from tensorflow_ocr_ray.stages.multimodal import AudioFeatureStage

    rng = np.random.Generator(np.random.PCG64(7))
    samples = (rng.normal(0, 3000, 4096)).astype("<i2")
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(2)
        w.setsampwidth(2)
        w.setframerate(16000)
        stereo = np.repeat(samples, 2).astype("<i2")
        w.writeframes(stereo.tobytes())
    payload = buf.getvalue()

    stage = AudioFeatureStage(frame=512)
    out = stage(pa.table({"media_ref": ["a"], "audio": [payload]}))
    assert out.column("n_frames")[0].as_py() == 8
    want_rms = float(
        np.sqrt(
            ((samples.astype(np.float32) / 32768.0)[: 8 * 512]
             .reshape(8, 512) ** 2).mean(axis=1)
        ).mean()
    )
    assert abs(out.column("rms")[0].as_py() - want_rms) < 1e-6


def test_dhash56_brightness_invariant_and_discriminating():
    """The perceptual hash collides across brightness shifts of the
    same pattern and separates the 8 planted pattern classes — through
    the TIFF encode/decode round trip."""
    import numpy as np

    from tensorflow_ocr_ray.core.raster import decode_tiff, encode_tiff
    from tensorflow_ocr_ray.stages.multimodal import dhash56

    ii, jj = np.mgrid[0:16, 0:16]
    hashes = set()
    for k in range(8):
        base = (((ii * 3 + jj * (k + 2)) % 17) * 12).astype(np.int64)
        per_brightness = set()
        for b in range(0, 15, 3):
            img = (base + b).astype(np.uint8)
            gray, _bits = decode_tiff(encode_tiff(img, bilevel=False))
            per_brightness.add(dhash56(gray))
        assert len(per_brightness) == 1  # brightness cancels
        hashes.update(per_brightness)
    assert len(hashes) == 8              # patterns separate

    import pytest
    with pytest.raises(ValueError):
        dhash56(np.zeros((8, 8), dtype=np.uint8))


def test_read_tiff_tags_types_roundtrip():
    """ASCII (external), inline SHORT, RATIONAL (external value area)
    all decode from a crafted little-endian single-IFD TIFF."""
    import struct

    from tensorflow_ocr_ray.stages.multimodal import read_tiff_tags

    desc = b"hello-world\x00"
    n_tags = 3
    ifd_off = 8
    ext = ifd_off + 2 + n_tags * 12 + 4
    out = bytearray(struct.pack("<2sHI", b"II", 42, ifd_off))
    out += struct.pack("<H", n_tags)
    out += struct.pack("<HHII", 270, 2, len(desc), ext)
    out += struct.pack("<HHII", 274, 3, 1, 6)
    out += struct.pack("<HHII", 282, 5, 1, ext + len(desc))
    out += struct.pack("<I", 0)
    out += desc
    out += struct.pack("<II", 300, 4)
    tags = read_tiff_tags(bytes(out))
    assert tags[270] == "hello-world"
    assert tags[274] == 6
    assert tags[282] == (300, 4)


def test_scene_cut_frames_threshold_and_jitter():
    """Small intra-scene jitter stays below threshold; a multi-row
    scene flip is detected with its exact pixel diff."""
    import numpy as np

    from tensorflow_ocr_ray.stages.multimodal import scene_cut_frames

    f = np.zeros((5, 8, 8), dtype=np.uint8)
    for i in range(5):
        f[i, 7, i] = 1          # jitter: diff 2 between neighbors
    f[3:, 0:2, :] = 1           # scene flip at frame 3: +16 px
    cuts = scene_cut_frames(f, threshold=10)
    assert cuts == [(3, 18)]    # 16 scene px + 2 jitter px
    assert scene_cut_frames(f[:1], threshold=0) == []


def test_audio_energy_segments_planted_runs(ray_session):
    """doc_id=13 -> bits 14 = 0b001110 -> one segment blocks 1..3."""
    import __ray_entry__ as e

    got = (e.queries()["audio_energy_segments"]("/root/testdata/sf0.001")
           .to_pandas())
    d13 = got[got["doc_id"] == 13].reset_index(drop=True)
    assert len(d13) == 1
    assert (int(d13["start_block"][0]), int(d13["end_block"][0]),
            int(d13["n_blocks"][0])) == (1, 3, 3)


# ------------------------------------------------ hostile container headers

def _doc_frame(n: int) -> "pd.DataFrame":
    import pandas as pd

    return pd.DataFrame({"doc_id": list(range(n))})


def _tiff_gray(h: int = 3, w: int = 8) -> bytes:
    from tensorflow_ocr_ray.core.raster import encode_tiff

    return encode_tiff(np.full((h, w), 200, dtype=np.uint8), bilevel=False)


def _cyclic_ifd_tiff() -> bytes:
    """A one-page TIFF whose next-IFD pointer leads back to its own IFD."""
    import struct

    payload = bytearray(_tiff_gray())
    (n_tags,) = struct.unpack_from("<H", payload, 8)
    struct.pack_into("<I", payload, 8 + 2 + 12 * n_tags, 8)
    return bytes(payload)


def _huge_count_tiff() -> bytes:
    """StripOffsets claims 1 << 24 LONGs at an offset past the payload."""
    import struct

    payload = bytearray(_tiff_gray())
    (n_tags,) = struct.unpack_from("<H", payload, 8)
    for e in range(10, 10 + 12 * n_tags, 12):
        if struct.unpack_from("<H", payload, e)[0] == 273:
            struct.pack_into("<HII", payload, e + 2, 4, 1 << 24, 1 << 30)
    return bytes(payload)


def _big_endian_short_tiff(h: int = 3, w: int = 8) -> bytes:
    """An 8-bit big-endian TIFF whose sizes are SHORTs: a SHORT value
    sits in the first two of its entry's four value bytes."""
    import struct

    pix = bytes(range(h * w))
    tags = [(256, 3, w), (257, 3, h), (258, 3, 8), (259, 3, 1),
            (262, 3, 1), (273, 4, 8 + 2 + 12 * 8 + 4), (278, 3, h),
            (279, 4, len(pix))]
    out = bytearray(b"MM\x00*" + struct.pack(">I", 8))
    out += struct.pack(">H", len(tags))
    for tag, typ, value in tags:
        out += struct.pack(">HHI", tag, typ, 1)
        out += struct.pack(">HH", value, 0) if typ == 3 \
            else struct.pack(">I", value)
    return bytes(out + struct.pack(">I", 0) + pix)


def _raises_within(reader, payload: bytes, seconds: float = 2.0,
                   peak_mib: float = 16.0) -> None:
    """reader(payload) raises ValueError within ``seconds`` and with a
    traced allocation peak below ``peak_mib``."""
    import signal
    import tracemalloc

    def _timeout(signum, frame):
        raise TimeoutError(f"{reader.__name__} ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            reader(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert peak < peak_mib * 2**20, f"{reader.__name__} peaked at {peak} B"


@pytest.mark.parametrize(
    "reader", [probe_media_header, read_tiff_tags, decode_payload_pages])
@pytest.mark.parametrize("build", [_cyclic_ifd_tiff, _huge_count_tiff])
def test_tiff_readers_reject_hostile_directories(reader, build):
    """Every TIFF reader walks the same IFD chain: a cycle is refused
    rather than followed forever, and a tag count pointing past the
    payload is refused before anything sized by it is allocated."""
    _raises_within(reader, build())


@pytest.mark.parametrize("kind,cut", [
    ("gif", 3), ("gif", 20), ("avi", 3), ("avi", 20)],
    ids=["gif_minus_3", "gif_cut_20", "avi_minus_3", "avi_cut_20"])
def test_probe_rejects_truncated_gif_and_avi(kind, cut):
    """A GIF or AVI cut short raises the codecs' ValueError from the
    header probe (``cut`` < 10 drops that many tail bytes, else keeps
    ``cut`` bytes) instead of an IndexError or a partial count."""
    import __ray_entry__ as e

    build = e._gif_payloads if kind == "gif" else e._avi_payloads
    payload = build(_doc_frame(4)).column(1)[3].as_py()
    payload = payload[:-cut] if cut < 10 else payload[:cut]
    _raises_within(probe_media_header, payload)


def test_probe_agrees_with_decoders():
    """For each container the registry's payload builders make, plus a
    big-endian TIFF with SHORT sizes, the header probe reports the
    width, height and page/frame count the matching decoder returns."""
    import __ray_entry__ as e

    from tensorflow_ocr_ray.core.gif import decode_gif_frames
    from tensorflow_ocr_ray.core.jpeg import decode_jpeg_gray
    from tensorflow_ocr_ray.core.png import decode_png_gray
    from tensorflow_ocr_ray.core.raster import decode_tiff_pages
    from tensorflow_ocr_ray.core.video_codecs import decode_avi

    cases = [
        ("tiff", e._tiff_payloads, lambda p: [i for i, _ in decode_tiff_pages(p)]),
        ("gif", e._gif_payloads, decode_gif_frames),
        ("avi", e._avi_payloads, decode_avi),
        ("png", e._png_payloads, lambda p: [decode_png_gray(p)]),
        ("jpeg", e._jpeg_payloads, lambda p: [decode_jpeg_gray(p)]),
    ]
    checked = []
    for fmt, build, decode in cases:
        payloads = build(_doc_frame(12)).column(1).to_pylist()
        if fmt == "tiff":
            payloads.append(_big_endian_short_tiff())
        for p in payloads:
            pages = decode(p)
            h, w = pages[0].shape
            assert probe_media_header(p) == (fmt, w, h, len(pages))
            checked.append(fmt)
    assert len(checked) == 5 * 12 + 1
    assert probe_media_header(_big_endian_short_tiff()) == ("tiff", 8, 3, 1)


@pytest.mark.parametrize("kind,cut", [
    ("png", 20), ("png", 28), ("jpeg", 7), ("jpeg", 10)],
    ids=["png_cut_20", "png_cut_28", "jpeg_sof_cut_7", "jpeg_sof_cut_10"])
def test_probe_rejects_short_png_and_jpeg_headers(kind, cut):
    """The probe reads PNG IHDR and JPEG SOF through the decoders' walks:
    a header cut short raises ``ValueError`` (it raised ``struct.error``
    or read the size out of a partial header).  ``cut`` counts bytes
    kept from the start of a PNG, or from the SOF marker of a JPEG."""
    import __ray_entry__ as e

    build = e._png_payloads if kind == "png" else e._jpeg_payloads
    payload = build(_doc_frame(1)).column(1)[0].as_py()
    if kind == "jpeg":
        cut += payload.index(b"\xff\xc0")
    _raises_within(probe_media_header, payload[:cut])
