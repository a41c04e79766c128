"""Pure-numpy AVI decoding: BI_RGB (uncompressed DIB) and BI_RLE8.

The video sibling of ``core/audio_codecs.py``: the container ships no
video libraries, so the classic AVI-with-DIB-frames path is implemented
from the public RIFF/AVI + Windows DIB specs — exactly the way PackBits
and CCITT G4 were for TIFF.  Compressed codecs (MJPEG, MPEG, H.26x)
stay behind the guarded ``av`` seam in ``stages/multimodal.py``.

Supported stream formats (``biCompression`` in the ``strf`` chunk):
- 0 (BI_RGB): 8-bit paletted, 24-bit BGR, 32-bit BGRX; rows bottom-up,
  stride word-aligned to 4 bytes per the DIB spec.
- 1 (BI_RLE8): standard 8-bit run-length — (count, index) pairs plus
  the 0-escape codes (0=end of line, 1=end of bitmap, 2=delta jump,
  n>2 = absolute run, word-padded).

Frames return as uint8 GRAYSCALE (palette/BGR luma-mixed with the
integer ITU-R 601 weights) — the engine's multimodal stages treat
pixels as analysis input, not display output.
"""

from __future__ import annotations

import struct

import numpy as np

from tensorflow_ocr_ray.core.gif import MAX_PIXELS

BI_RGB = 0
BI_RLE8 = 1
FOURCC_MJPG = 0x47504A4D  # struct.unpack("<I", b"MJPG")


def _riff_chunks(buf: bytes, pos: int, end: int):
    """(fourcc, body offset, size) of every chunk in ``buf[pos:end]``,
    descending into each ``LIST`` in file order (the list itself is not
    yielded).  A chunk whose body runs past its list raises
    ``ValueError``.  The one RIFF walk, shared by ``decode_avi``,
    ``audio_codecs.decode_wav`` and the header probe."""
    outer: list[tuple[int, int]] = []  # (resume pos, end) of open lists
    while True:
        if pos + 8 > end:
            if not outer:
                return
            pos, end = outer.pop()
            continue
        cid = buf[pos:pos + 4]
        (size,) = struct.unpack_from("<I", buf, pos + 4)
        body = pos + 8
        if body + size > end:
            raise ValueError(f"RIFF chunk {cid!r} runs past its list")
        pos = body + size + (size & 1)
        if cid == b"LIST":
            outer.append((pos, end))
            pos, end = body + 4, body + size
        else:
            yield cid, body, size


def _gray_from_bgr(b, g, r):
    # ITU-R 601 integer luma, the classic (77R + 150G + 29B) >> 8
    return (
        (77 * r.astype(np.uint32) + 150 * g.astype(np.uint32)
         + 29 * b.astype(np.uint32)) >> 8
    ).astype(np.uint8)


def _dib_header(kind: str, buf: bytes, pos: int, end: int):
    """(width, height, bpp, compression, gray palette) of the
    BITMAPINFOHEADER at ``buf[pos:end]``, the one DIB header reader of
    ``decode_bmp`` and ``decode_avi``.  A size no frame may have is
    refused here, before anything is allocated from it: every decoder
    sizes its output from these two fields.  An 8-bit DIB's palette is
    the luma of the BGRX quads after the header (``biClrUsed`` of them,
    or 256 when 0), padded with zeros to 256 entries so that an index
    past the palette reads 0; it is None at other depths or when no
    quad is there."""
    if end - pos < 20:
        raise ValueError(f"{kind} header of {end - pos} bytes is too "
                         "short for a BITMAPINFOHEADER")
    bi_size, w, h, _planes, bpp, comp = struct.unpack_from(
        "<IiiHHI", buf, pos)
    if w <= 0 or h == 0:
        raise ValueError(f"{kind} degenerate dimensions {w}x{h}")
    if w * abs(h) > MAX_PIXELS:
        raise ValueError(f"{kind} {w}x{abs(h)} exceeds pixel cap")
    palette = None
    if bpp == 8:
        n = struct.unpack_from("<I", buf, pos + 32)[0] \
            if end - pos >= 36 else 0
        start = pos + bi_size
        quads = np.frombuffer(
            buf[start:min(end, start + 4 * (n or 256))], dtype=np.uint8)
        quads = quads[: min(len(quads) // 4, 256) * 4].reshape(-1, 4)
        if len(quads):
            palette = np.zeros(256, dtype=np.uint8)
            palette[:len(quads)] = _gray_from_bgr(
                quads[:, 0], quads[:, 1], quads[:, 2])
    return w, h, bpp, comp, palette


def _decode_dib_frame(
    data: bytes, w: int, h: int, bpp: int, palette_gray: np.ndarray | None
) -> np.ndarray:
    """One BI_RGB frame → (h, w) uint8 grayscale; DIB rows are stored
    bottom-up with 4-byte-aligned stride, and a frame shorter than its
    rows raises ``ValueError``."""
    if bpp in (8, 24, 32):
        stride = (w * (bpp // 8) + 3) & ~3
        if stride * h > len(data):
            raise ValueError(f"DIB frame of {len(data)} bytes is short of "
                             f"{h} rows of {stride}")
    if bpp == 8:
        rows = np.frombuffer(data[: stride * h], dtype=np.uint8).reshape(
            h, stride
        )[:, :w]
        img = palette_gray[rows] if palette_gray is not None else rows
    elif bpp in (24, 32):
        nb = bpp // 8
        rows = np.frombuffer(data[: stride * h], dtype=np.uint8).reshape(
            h, stride
        )[:, : w * nb].reshape(h, w, nb)
        img = _gray_from_bgr(rows[..., 0], rows[..., 1], rows[..., 2])
    else:
        raise NotImplementedError(f"BI_RGB bpp {bpp}")
    return img[::-1]  # bottom-up → top-down


def decode_rle8(data: bytes, w: int, h: int) -> np.ndarray:
    """BI_RLE8 → (h, w) uint8 palette indices (top-down)."""
    img = np.zeros((h, w), dtype=np.uint8)
    x, y = 0, 0  # y in BOTTOM-UP coordinates per the DIB spec
    i, n = 0, len(data)
    while i + 1 < n:
        cnt, val = data[i], data[i + 1]
        i += 2
        if cnt > 0:  # encoded run
            end = min(x + cnt, w)
            img[y, x:end] = val
            x = end
        elif val == 0:  # end of line
            x, y = 0, y + 1
            if y >= h:
                break
        elif val == 1:  # end of bitmap
            break
        elif val == 2:  # delta jump
            if i + 1 >= n:
                raise ValueError("RLE8 truncated delta")
            x = min(x + data[i], w)
            y = min(y + data[i + 1], h - 1)
            i += 2
        else:  # absolute run of `val` literal indices, word-padded
            if i + val > n:
                raise ValueError("RLE8 truncated absolute run")
            end = min(x + val, w)
            img[y, x:end] = np.frombuffer(
                data[i:i + (end - x)], dtype=np.uint8
            )
            x = end
            i += val + (val & 1)
    return img[::-1]


def decode_avi(payload: bytes) -> list[np.ndarray]:
    """RIFF/AVI bytes → list of (h, w) uint8 grayscale frames.

    Parses hdrl (strh/strf of the FIRST video stream) then walks the
    movi list decoding every ``##db``/``##dc`` chunk.  Raises
    NotImplementedError for compressed codecs (biCompression not in
    {BI_RGB, BI_RLE8}) — the ``av`` deployment seam owns those."""
    if payload[:4] != b"RIFF" or payload[8:12] != b"AVI ":
        raise ValueError("not a RIFF/AVI payload")
    w = h = bpp = None
    compression = None
    palette_gray = None
    frames: list[np.ndarray] = []

    for cid, body_pos, size in _riff_chunks(payload, 12, len(payload)):
        if cid == b"strf" and compression is None:
            w, h, bpp, compression, palette_gray = _dib_header(
                "AVI strf", payload, body_pos, body_pos + size)
            h = abs(h)
        elif cid[2:4] in (b"db", b"dc"):
            if compression is None:
                raise ValueError("frame chunk before strf header")
            body = payload[body_pos:body_pos + size]
            if compression == BI_RGB:
                frames.append(
                    _decode_dib_frame(body, w, h, bpp, palette_gray)
                )
            elif compression == BI_RLE8:
                idx = decode_rle8(body, w, h)
                frames.append(
                    palette_gray[idx]
                    if palette_gray is not None else idx
                )
            elif compression == FOURCC_MJPG:
                # Motion-JPEG: each frame chunk is a standalone
                # baseline JPEG (core/jpeg.py, spec-implemented);
                # frames are top-down already — no DIB flip
                from tensorflow_ocr_ray.core.jpeg import (
                    decode_jpeg_gray,
                )

                frames.append(decode_jpeg_gray(body))
            else:
                raise NotImplementedError(
                    f"AVI compression {compression:#x} needs `av`"
                )

    if w is None:
        raise ValueError("AVI missing strf stream format")
    return frames


def decode_bmp(payload: bytes) -> np.ndarray:
    """Standalone BMP file -> (h, w) uint8 grayscale.

    The still-image twin of the AVI path, reusing its DIB header reader
    (``_dib_header``) and row decoders: BITMAPFILEHEADER ("BM", pixel
    offset) + BITMAPINFOHEADER (negative height = top-down), BI_RGB at
    8 (palette) / 24 (BGR) / 32 (BGRX) bpp and BI_RLE8; palette entries
    are BGRX quads folded through the ITU-R 601 integer luma, and an
    index past the palette reads 0."""
    if payload[:2] != b"BM" or len(payload) < 54:
        raise ValueError("not a BMP payload")
    (off,) = struct.unpack_from("<I", payload, 10)
    w, h, bpp, comp, palette_gray = _dib_header(
        "BMP", payload, 14, len(payload))
    topdown = h < 0
    ah = abs(h)
    data = payload[off:]
    if comp == BI_RGB:
        img = _decode_dib_frame(data, w, ah, bpp, palette_gray)
        if topdown:  # _decode_dib_frame assumed bottom-up and flipped
            img = img[::-1]
    elif comp == BI_RLE8:
        if topdown:
            raise ValueError("BI_RLE8 requires bottom-up BMP")
        idx = decode_rle8(data, w, ah)
        img = palette_gray[idx] if palette_gray is not None else idx
    else:
        raise NotImplementedError(f"BMP compression {comp}")
    return np.ascontiguousarray(img)
