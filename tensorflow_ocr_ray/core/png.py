"""PNG decoding (RFC 2083 / ISO 15948), pure numpy + stdlib zlib —
grayscale output.

The fourth spec-implemented codec family (TIFF G4/LZW/PackBits, WAV
G.711/ADPCM, baseline JPEG, now PNG): chunk walk, IHDR validation,
IDAT concatenation through ``zlib``, and the five per-row defilters
(None/Sub/Up/Average/Paeth) exactly per the standard's recurrences.
Color types 0 (gray 1/2/4/8/16), 2 (RGB), 3 (palette), 4 (gray+alpha)
and 6 (RGBA) are handled; color/alpha reduce to LUMA uint8 with the
same ITU-R 601 integer weights the AVI decoder uses (alpha is ignored
— this engine consumes pixels for analysis, not compositing).
Adam7 interlace is decoded per the spec: the stream is SEVEN
independently-filtered sub-images (each pass has its own scanline
stride and byte padding); each defilters and converts on its own, then
scatters into the output grid at its (origin, step) lattice.

Memory is bounded by the header: an image over ``gif.MAX_PIXELS`` is
rejected as soon as IHDR is read, and IDAT is inflated only up to the
scanline bytes the header implies, so a stream that inflates further
(a decompression bomb) costs no more than a valid image of that size.

Defiltering is row-sequential by construction (each row references the
previous); within a row, Sub/Paeth/Average are per-pixel recurrences —
implemented as tight loops over the row, adequate for the multimodal
stage's frame sizes (the G4 decoder precedent applies if this ever
becomes a hot path).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from tensorflow_ocr_ray.core.gif import MAX_PIXELS

_SIG = b"\x89PNG\r\n\x1a\n"
# the bit depths each color type allows (RFC 2083 §4.1.1); the color
# types not listed (RGB, gray+alpha, RGBA) allow 8 and 16
_DEPTHS = {0: (1, 2, 4, 8, 16), 3: (1, 2, 4, 8)}
# samples per pixel of each color type
_CHANNELS = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}


def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    if pb <= pc:
        return b
    return c


def _defilter(raw: bytes, h: int, stride: int, bpp: int) -> np.ndarray:
    """Filtered scanlines → recon bytes, (h, stride) uint8."""
    if len(raw) < h * (1 + stride):
        raise ValueError("PNG pixel data truncated")
    out = np.zeros((h, stride), dtype=np.uint8)
    pos = 0
    for y in range(h):
        ft = raw[pos]
        row = bytearray(raw[pos + 1:pos + 1 + stride])
        pos += 1 + stride
        prev = out[y - 1] if y else np.zeros(stride, dtype=np.uint8)
        if ft == 0:  # None
            pass
        elif ft == 1:  # Sub
            for x in range(bpp, stride):
                row[x] = (row[x] + row[x - bpp]) & 0xFF
        elif ft == 2:  # Up
            row = bytearray(
                (np.frombuffer(bytes(row), dtype=np.uint8) + prev)
                .astype(np.uint8).tobytes()
            )
        elif ft == 3:  # Average
            for x in range(stride):
                left = row[x - bpp] if x >= bpp else 0
                row[x] = (row[x] + ((left + int(prev[x])) >> 1)) & 0xFF
        elif ft == 4:  # Paeth
            for x in range(stride):
                left = row[x - bpp] if x >= bpp else 0
                ul = int(prev[x - bpp]) if x >= bpp else 0
                row[x] = (row[x] + _paeth(left, int(prev[x]), ul)) & 0xFF
        else:
            raise ValueError(f"unknown PNG filter type {ft}")
        out[y] = np.frombuffer(bytes(row), dtype=np.uint8)
    return out


def _luma(r, g, b):
    return (
        (77 * r.astype(np.uint32) + 150 * g.astype(np.uint32)
         + 29 * b.astype(np.uint32)) >> 8
    ).astype(np.uint8)


def _chunks(payload: bytes):
    """(type, body) of every chunk after the signature, in file order:
    the one PNG chunk walk, shared by ``decode_png_gray`` and the
    header probe.  CRCs are not validated (data bugs raise downstream;
    the engine's media-error policy handles corruption), and a body cut
    short by the end of the payload is yielded as far as it goes."""
    if payload[:8] != _SIG:
        raise ValueError("not a PNG payload")
    pos = 8
    while pos + 8 <= len(payload):
        (size,) = struct.unpack_from(">I", payload, pos)
        yield payload[pos + 4:pos + 8], payload[pos + 8:pos + 8 + size]
        pos += 12 + size


def _ihdr(body: bytes) -> tuple[int, int, int, int, int]:
    """(width, height, bit depth, color type, interlace) of an IHDR
    body, which must be 13 bytes of a standard header: compression and
    filter method 0, a known interlace method and color type, and a bit
    depth that color type allows."""
    if len(body) != 13:
        raise ValueError(f"PNG IHDR of {len(body)} bytes, not 13")
    w, h, depth, ctype, comp, filt, interlace = struct.unpack(
        ">IIBBBBB", body
    )
    if comp != 0 or filt != 0:
        raise ValueError("non-standard compression/filter method")
    if interlace not in (0, 1):
        raise ValueError(f"unknown PNG interlace method {interlace}")
    if ctype not in _CHANNELS:
        raise ValueError(f"unknown PNG color type {ctype}")
    if depth not in _DEPTHS.get(ctype, (8, 16)):
        raise ValueError(f"invalid depth {depth} for color type {ctype}")
    return w, h, depth, ctype, interlace


def _read_ihdr(payload: bytes) -> tuple[int, int, int, int, int]:
    """The IHDR fields of a PNG, read through the chunk walk."""
    for cid, body in _chunks(payload):
        if cid == b"IHDR":
            return _ihdr(body)
    raise ValueError("PNG missing IHDR")


def decode_png_gray(payload: bytes) -> np.ndarray:
    """PNG bytes → (h, w) uint8 grayscale."""
    ihdr = None
    plte = None
    idat = bytearray()
    for cid, body in _chunks(payload):
        if cid == b"IHDR":
            ihdr = _ihdr(body)
            if ihdr[0] * ihdr[1] > MAX_PIXELS:
                raise ValueError(
                    f"PNG image {ihdr[0]}x{ihdr[1]} exceeds pixel cap")
        elif cid == b"PLTE":
            pal = np.frombuffer(body, dtype=np.uint8)
            pal = pal[: (len(pal) // 3) * 3].reshape(-1, 3)
            plte = _luma(pal[:, 0], pal[:, 1], pal[:, 2])
            if len(plte) < 256:
                plte = np.concatenate(
                    [plte, np.zeros(256 - len(plte), dtype=np.uint8)]
                )
        elif cid == b"IDAT":
            idat += body
        elif cid == b"IEND":
            break
    if ihdr is None:
        raise ValueError("PNG missing IHDR")
    w, h, depth, ctype, interlace = ihdr
    channels = _CHANNELS[ctype]

    bits_pp = channels * depth
    bpp = max(1, bits_pp // 8)
    # inflate no further than the scanlines need; the rest is ignored
    need = _scanline_bytes(w, h, bits_pp, interlace)
    try:
        raw = zlib.decompressobj().decompress(bytes(idat), need) \
            if need else b""
    except zlib.error as e:
        raise ValueError(f"PNG IDAT stream corrupt: {e}") from None

    if interlace == 0:
        stride = (w * bits_pp + 7) // 8
        recon = _defilter(raw, h, stride, bpp)
        return _to_gray(recon, h, w, depth, ctype, channels, plte)

    # Adam7: seven sub-images, each with its own scanline stride
    out = np.zeros((h, w), dtype=np.uint8)
    pos = 0
    for x0, y0, dx, dy, pw, ph in _adam7_passes(w, h):
        stride = (pw * bits_pp + 7) // 8
        nbytes = ph * (1 + stride)
        recon = _defilter(raw[pos:pos + nbytes], ph, stride, bpp)
        pos += nbytes
        out[y0::dy, x0::dx] = _to_gray(
            recon, ph, pw, depth, ctype, channels, plte
        )
    return out


def _adam7_passes(w: int, h: int):
    """(x0, y0, dx, dy, width, height) of each Adam7 pass that holds
    pixels."""
    for x0, y0, dx, dy in _ADAM7:
        pw = (w - x0 + dx - 1) // dx if w > x0 else 0
        ph = (h - y0 + dy - 1) // dy if h > y0 else 0
        if pw and ph:
            yield x0, y0, dx, dy, pw, ph


def _scanline_bytes(w: int, h: int, bits_pp: int, interlace: int) -> int:
    """Bytes of filtered scanlines the header implies: a filter byte plus
    the packed samples per row, over the image or its Adam7 passes."""
    if interlace == 0:
        return h * (1 + (w * bits_pp + 7) // 8)
    return sum(ph * (1 + (pw * bits_pp + 7) // 8)
               for *_, pw, ph in _adam7_passes(w, h))


_ADAM7 = (
    (0, 0, 8, 8),
    (4, 0, 8, 8),
    (0, 4, 4, 8),
    (2, 0, 4, 4),
    (0, 2, 2, 4),
    (1, 0, 2, 2),
    (0, 1, 1, 2),
)


def _to_gray(recon, h, w, depth, ctype, channels, plte):
    """Defiltered sample bytes of one (sub-)image → (h, w) gray uint8."""
    if depth < 8:  # gray/palette sub-byte packing, MSB first
        bits = np.unpackbits(recon, axis=1)[:, : w * depth]
        vals = bits.reshape(h, w, depth)
        weights = (1 << np.arange(depth - 1, -1, -1)).astype(np.uint16)
        px = (vals * weights).sum(axis=2).astype(np.uint16)
        if ctype == 3:
            if plte is None:
                raise ValueError("palette image without PLTE")
            return plte[px.astype(np.uint8)]
        # scale to full 8-bit range per the spec's sample depth scaling
        return ((px * 255) // ((1 << depth) - 1)).astype(np.uint8)

    if depth == 16:
        arr = recon.view(">u2").reshape(h, w, channels).astype(np.uint16)
        arr = (arr >> 8).astype(np.uint8)  # high byte ≈ /257, spec-ok
    else:
        arr = recon.reshape(h, w, channels)

    if ctype == 0:
        return arr[:, :, 0]
    if ctype == 3:
        if plte is None:
            raise ValueError("palette image without PLTE")
        return plte[arr[:, :, 0]]
    if ctype == 4:
        return arr[:, :, 0]  # gray, alpha ignored
    # RGB / RGBA
    return _luma(arr[:, :, 0], arr[:, :, 1], arr[:, :, 2])
