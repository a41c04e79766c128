"""Hypothesis property tests for the G4 / LZW codecs — broader input
space than the deterministic sweep in test_codecs.py."""

from __future__ import annotations

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorflow_ocr_ray.core.ccitt import decode_g4, encode_g4
from tensorflow_ocr_ray.core.tiff_lzw import lzw_decode, lzw_encode


@settings(max_examples=60, deadline=None)
@given(
    h=st.integers(1, 20),
    w=st.integers(1, 120),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31 - 1),
)
def test_g4_roundtrip_random_bitmaps(h, w, density, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    img = (rng.random((h, w)) < density).astype(np.uint8)
    assert (decode_g4(encode_g4(img), w, h) == img).all()


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=5000))
def test_lzw_roundtrip_arbitrary_bytes(data):
    assert lzw_decode(lzw_encode(data)) == data


@settings(max_examples=20, deadline=None)
@given(
    st.integers(0, 255),
    st.integers(1, 40000),
)
def test_lzw_roundtrip_long_constant_runs(byte, n):
    data = bytes([byte]) * n
    assert lzw_decode(lzw_encode(data)) == data


@settings(max_examples=40, deadline=None)
@given(
    h=st.integers(1, 16),
    w=st.integers(1, 100),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31 - 1),
    framing=st.sampled_from(["plain", "eol", "align"]),
)
def test_g3_1d_roundtrip_random_bitmaps(h, w, density, seed, framing):
    from test_g3 import encode_g3_1d

    from tensorflow_ocr_ray.core.ccitt import decode_g3

    rng = np.random.Generator(np.random.PCG64(seed))
    img = (rng.random((h, w)) < density).astype(np.uint8)
    if framing == "plain":
        data, kw = encode_g3_1d(img), {}
    elif framing == "eol":
        data, kw = encode_g3_1d(img, eol=True, fill=3), {}
    else:
        data, kw = encode_g3_1d(img, byte_align=True), {"byte_align": True}
    assert (decode_g3(data, w, h, **kw) == img).all()


@settings(max_examples=30, deadline=None)
@given(
    h=st.integers(2, 14),
    w=st.integers(2, 80),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31 - 1),
)
def test_g3_2d_roundtrip_random_bitmaps(h, w, density, seed):
    from test_g3 import encode_g3_2d

    from tensorflow_ocr_ray.core.ccitt import decode_g3

    rng = np.random.Generator(np.random.PCG64(seed))
    img = (rng.random((h, w)) < density).astype(np.uint8)
    tags = [1] + [int(rng.integers(0, 2)) for _ in range(h - 1)]
    data = encode_g3_2d(img, tags)
    assert (decode_g3(data, w, h, two_d=True) == img).all()


@functools.lru_cache(maxsize=None)
def _container_payloads() -> dict:
    """(readers, payloads) per container: the ``__ray_entry__`` BMP,
    AVI, JPEG and PNG payloads of doc_ids 0-11 and the WAVs of
    ``tests/test_audio_codecs.py``."""
    import pandas as pd
    from test_audio_codecs import _wav

    import __ray_entry__ as e
    from tensorflow_ocr_ray.core.audio_codecs import decode_wav
    from tensorflow_ocr_ray.core.video_codecs import decode_avi, decode_bmp
    from tensorflow_ocr_ray.stages.multimodal import probe_media_header

    df = pd.DataFrame({"doc_id": list(range(12))})
    tone = (np.sin(np.arange(400) / 7.0) * 20000).astype("<i2")
    return {
        "bmp": ((decode_bmp, probe_media_header),
                e._bmp_payloads(df).column("image").to_pylist()),
        "avi": ((decode_avi, probe_media_header),
                e._avi_payloads(df).column("video").to_pylist()),
        "jpeg": ((probe_media_header,),
                 e._jpeg_payloads(df).column("image").to_pylist()),
        "png": ((probe_media_header,),
                e._png_payloads(df).column("image").to_pylist()),
        "wav": ((decode_wav,),
                [_wav(1, 1, 16, 2, tone.tobytes()),
                 _wav(1, 2, 16, 4, tone.tobytes()),
                 _wav(7, 1, 8, 1, tone.tobytes()[:399]),
                 _wav(0x11, 1, 4, 12, bytes(range(48)), fact=70)]),
    }


@settings(max_examples=150, deadline=None, derandomize=True)
@given(fmt=st.sampled_from(["bmp", "avi", "jpeg", "png", "wav"]),
       doc=st.integers(0, 11), cut=st.floats(0.0, 1.0),
       bit=st.floats(0.0, 1.0), flip=st.booleans())
def test_cut_or_flipped_containers_raise_only_typed_errors(
        fmt, doc, cut, bit, flip):
    """A container payload cut short or with one bit flipped either
    decodes or raises ``ValueError``/``NotImplementedError`` from
    ``decode_bmp``, ``decode_avi``, ``decode_wav`` and the header probe
    — never ``IndexError`` or ``struct.error`` — within 2 s and a 64 MiB
    traced allocation peak."""
    import signal
    import tracemalloc

    readers, payloads = _container_payloads()[fmt]
    payload = payloads[doc % len(payloads)]
    if flip:
        at = min(int(bit * 8 * len(payload)), 8 * len(payload) - 1)
        mutated = bytearray(payload)
        mutated[at // 8] ^= 0x80 >> (at % 8)
        payload = bytes(mutated)
    else:
        payload = payload[:int(cut * len(payload))]

    def _timeout(signum, frame):
        raise TimeoutError("decode ran past 2 s")

    for read in readers:
        previous = signal.signal(signal.SIGALRM, _timeout)
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        tracemalloc.start()
        try:
            try:
                read(payload)
            except (ValueError, NotImplementedError):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert peak < 64 << 20, (read.__name__, peak)
