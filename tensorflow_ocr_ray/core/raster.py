"""Page raster handling: payload codec, binarization, deskew shear.

The reference decodes TIFF → RGBA raster → bitonal char image
(``main/readPicture.c:36-117``) and deskews with an integer shear search
(``main/readPicture.c:119-221``).  Media payloads in this engine are
opaque ``binary`` columns; ``decode_payload_pages`` sniffs the format
(``decode_payload`` is its first page):

- real **TIFF** (II/MM): bilevel (1-bit) and 8-bit grayscale; compressions
  none, PackBits, CCITT Group 4 (``core/ccitt.py``) and LZW with the
  horizontal-differencing predictor (``core/tiff_lzw.py``) — all decoded
  by the pure-numpy/pure-Python readers below, no external image libs.
  FillOrder=2 (LSB-first fax) strips are bit-reversed before decode.
- baseline **JPEG** (``core/jpeg.py``), **PNG** (``core/png.py``),
  **GIF** (``core/gif.py``, one page per frame) and **BMP**
  (``core/video_codecs.py``).
- scanned **PDF** (``core/pdfimage.py``): per-page image XObjects
  (CCITT G4 / DCT / Flate) decoded in-process — one page per image.
- ``OCR1``/``OCR8``: the repo's compact bitonal/gray test codec.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator

import numpy as np

from tensorflow_ocr_ray.core.gif import MAX_PIXELS

# byte → bit-reversed byte, for TIFF FillOrder=2 (LSB-first) strips
_BITREV = np.packbits(
    np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)[:, ::-1], axis=1
).ravel()

MAGIC = b"OCR1"
MAGIC_GRAY = b"OCR8"  # 8-bit grayscale variant (exercises the binarizer)
TIFF_LE = b"II*\x00"
TIFF_BE = b"MM\x00*"


def encode_bitonal(image: np.ndarray) -> bytes:
    """Pack a 0/1 uint8 array into the OCR1 payload format."""
    image = np.ascontiguousarray(image.astype(np.uint8))
    h, w = image.shape
    return MAGIC + struct.pack("<II", h, w) + np.packbits(image, axis=None).tobytes()


def encode_gray(image: np.ndarray) -> bytes:
    """An 8-bit grayscale payload (0=black ink, 255=white paper)."""
    image = np.ascontiguousarray(image.astype(np.uint8))
    h, w = image.shape
    return MAGIC_GRAY + struct.pack("<II", h, w) + image.tobytes()


def _packbits_decode(data: bytes, expected: int) -> bytes:
    """TIFF PackBits (Apple RLE) decompression."""
    out = bytearray()
    i, n = 0, len(data)
    while i < n and len(out) < expected:
        b = data[i]
        i += 1
        if b < 128:  # literal run of b+1 bytes
            out += data[i : i + b + 1]
            i += b + 1
        elif b > 128:  # repeat next byte 257-b times
            out += bytes([data[i]]) * (257 - b)
            i += 1
        # b == 128: no-op
    return bytes(out)


# TIFF field type -> (bytes per value, struct code of its ints); ASCII (2)
# keeps its raw bytes, RATIONAL (5) gives numerator, denominator pairs
_TIFF_TYPES = {1: (1, "B"), 2: (1, "s"), 3: (2, "H"), 4: (4, "I"), 5: (8, "I")}
_Ifd = dict[int, tuple[int, "list[int] | bytes"]]  # tag -> (type, values)


def _parse_ifds(payload: bytes) -> list[_Ifd]:
    """All IFDs of a (possibly multi-page) TIFF, in page order, as
    tag -> (field type, values).  This is the one TIFF directory walk:
    the pixel decoder, ``probe_media_header`` and ``read_tiff_tags`` all
    read through it.  BYTE, SHORT and LONG give their ints, RATIONAL its
    flat numerator/denominator ints, ASCII its raw bytes; other types
    are skipped.  Each directory and each value area is checked against
    the payload before it is read, so a cyclic chain, a truncated
    directory or a count that points past the end raise ``ValueError``
    without allocating anything sized by the count."""
    n = len(payload)
    if n < 8:
        raise ValueError("TIFF truncated in header")
    bo = "<" if payload[:4] == TIFF_LE else ">"
    (ifd_off,) = struct.unpack_from(bo + "I", payload, 4)
    if not ifd_off:
        raise ValueError("TIFF without an image directory")
    ifds: list[_Ifd] = []
    seen_offsets: set[int] = set()
    while ifd_off:
        if ifd_off in seen_offsets or ifd_off + 2 > n:
            raise ValueError(
                f"malformed TIFF: cyclic or out-of-range IFD offset {ifd_off}"
            )
        seen_offsets.add(ifd_off)
        (n_tags,) = struct.unpack_from(bo + "H", payload, ifd_off)
        next_off = ifd_off + 2 + n_tags * 12
        if next_off + 4 > n:
            raise ValueError(f"TIFF directory at {ifd_off} runs past the payload")
        tags: _Ifd = {}
        for off in range(ifd_off + 2, next_off, 12):
            tag, typ, count = struct.unpack_from(bo + "HHI", payload, off)
            if typ not in _TIFF_TYPES:
                continue
            width, code = _TIFF_TYPES[typ]
            size = width * count
            voff = off + 8  # values of at most 4 bytes sit in the entry
            if size > 4:
                (voff,) = struct.unpack_from(bo + "I", payload, voff)
                if voff + size > n:
                    raise ValueError(
                        f"TIFF tag {tag} value area [{voff}, {voff + size}) "
                        f"outside the {n}-byte payload"
                    )
            raw = payload[voff : voff + size]
            tags[tag] = (typ, raw if typ == 2 else list(
                struct.unpack(f"{bo}{size // struct.calcsize(code)}{code}", raw)
            ))
        ifds.append(tags)
        (ifd_off,) = struct.unpack_from(bo + "I", payload, next_off)
    return ifds


def _ifd_values(ifd: _Ifd) -> dict:
    """tag -> values of one parsed IFD, as the pixel decoder reads them."""
    values = {tag: v for tag, (_typ, v) in ifd.items() if len(v)}
    if not all(tag in values for tag in (256, 257, 273)):
        raise ValueError("TIFF directory without ImageWidth, ImageLength "
                         "or StripOffsets")
    return values


def _decode_ifd(payload: bytes, tags: dict[int, list[int]]) -> tuple[np.ndarray, int]:
    """One IFD → (image, bits).  Bilevel output is photometric-normalized
    to 1 = ink.  Compressions: none (1), CCITT MH/G3/G4 (2/3/4), LZW
    (5) and Deflate (8/32946) with the horizontal-differencing
    predictor, JPEG-in-TIFF (7, via ``core/jpeg.py``), PackBits
    (32773) — the formats libtiff-backed scanned corpora actually use
    (``main/readPicture.c:36-117`` reads via TIFFReadRGBAImage)."""
    width, height = tags[256][0], tags[257][0]
    bits = tags.get(258, [1])[0]
    compression = tags.get(259, [1])[0]
    photometric = tags.get(262, [1])[0]
    fill_order = tags.get(266, [1])[0]
    predictor = tags.get(317, [1])[0]
    offsets = tags[273]
    rows_per_strip = tags.get(278, [height])[0]
    counts = tags.get(279, [len(payload) - offsets[0]])
    if width * height > MAX_PIXELS:
        # the decoders allocate from these header fields
        raise ValueError(f"TIFF page {width}x{height} exceeds pixel cap")
    if bits not in (1, 8):
        raise ValueError(f"unsupported TIFF BitsPerSample {bits}")
    if compression not in (1, 2, 3, 4, 5, 7, 8, 32773, 32946):
        raise ValueError(f"unsupported TIFF compression {compression}")
    if fill_order not in (1, 2):
        raise ValueError(f"unsupported TIFF FillOrder {fill_order}")
    row_bytes = (width * bits + 7) // 8

    def _fix_order(strip: bytes) -> bytes:
        # FillOrder=2 (LSB-first, common in fax G4) → bit-reverse each byte
        if fill_order == 1:
            return strip
        arr = np.frombuffer(strip, dtype=np.uint8)
        return _BITREV[arr].tobytes()

    if compression in (2, 3, 4):  # CCITT fax — decodes straight to pixels
        from tensorflow_ocr_ray.core.ccitt import decode_g3, decode_g4

        if bits != 1:
            raise ValueError("CCITT compression requires bilevel data")
        t4opts = tags.get(293, [0])[0]  # T4Options: bit0 = 2-D coding
        rows = []
        for i, (soff, scount) in enumerate(zip(offsets, counts)):
            nrows = min(rows_per_strip, height - i * rows_per_strip)
            strip = _fix_order(payload[soff : soff + scount])
            if compression == 4:
                rows.append(decode_g4(strip, width, nrows))
            elif compression == 3:
                # EOL-framed T.4; fill-to-byte (bit2) skips as EOL fill
                rows.append(decode_g3(strip, width, nrows,
                                      two_d=bool(t4opts & 1)))
            else:  # 2 = Modified Huffman, every row byte-aligned, no EOL
                rows.append(decode_g3(strip, width, nrows,
                                      byte_align=True))
        # the decoders return fresh uint8 arrays: one strip is the page
        img = rows[0] if len(rows) == 1 else np.concatenate(rows, axis=0)
        # fax 1 = black ink; photometric 0 (WhiteIsZero) is the fax norm
        if photometric != 0:
            np.subtract(1, img, out=img)
        return img, 1

    if compression == 7:  # JPEG-in-TIFF (TTN2): one JPEG stream per strip
        from tensorflow_ocr_ray.core.jpeg import decode_jpeg_gray

        if bits != 8:
            raise ValueError("JPEG compression requires 8-bit data")
        img = np.concatenate(
            [decode_jpeg_gray(payload[soff : soff + scount])
             for soff, scount in zip(offsets, counts)], axis=0)
        if img.shape != (height, width):
            raise ValueError(
                f"JPEG strip dims {img.shape} != TIFF dims "
                f"({height}, {width})")
        if photometric == 0:
            img = 255 - img
        return img.astype(np.uint8), 8

    strips = []
    for i, (soff, scount) in enumerate(zip(offsets, counts)):
        strip = payload[soff : soff + scount]
        nrows = min(rows_per_strip, height - i * rows_per_strip)
        if compression == 32773:
            strip = _packbits_decode(strip, nrows * row_bytes)
        elif compression == 5:
            from tensorflow_ocr_ray.core.tiff_lzw import lzw_decode

            strip = lzw_decode(strip, nrows * row_bytes)
        elif compression in (8, 32946):  # Adobe/legacy Deflate
            import zlib

            strip = zlib.decompress(strip)
        if bits == 1:
            strip = _fix_order(strip)
        strips.append(strip)
    data = strips[0] if len(strips) == 1 else b"".join(strips)
    buf = np.frombuffer(data, dtype=np.uint8, count=height * row_bytes)
    if bits == 1:
        rows = buf.reshape(height, row_bytes)
        img = np.unpackbits(rows, axis=1)[:, :width]
        # photometric 0 = WhiteIsZero → set bit means ink already
        return (img if photometric == 0 else 1 - img).astype(np.uint8), 1
    img = buf.reshape(height, width)
    if compression in (5, 8, 32946) and predictor == 2:  # horiz. diff.
        img = np.cumsum(img.astype(np.int64), axis=1).astype(np.uint8)
    if photometric == 0:  # WhiteIsZero gray: invert to BlackIsZero scale
        img = 255 - img
    return img, 8


def _tiff_pages(payload: bytes) -> Iterator[tuple[np.ndarray, int]]:
    """(image, bits) per directory, each decoded only when asked for."""
    for ifd in _parse_ifds(payload):
        yield _decode_ifd(payload, _ifd_values(ifd))


def decode_tiff_pages(payload: bytes) -> list[tuple[np.ndarray, int]]:
    """Every page of a multi-page TIFF, in directory order (the reference
    iterates page directories, ``main/readPicture.c:223-233``)."""
    return list(_tiff_pages(payload))


def decode_tiff(payload: bytes) -> tuple[np.ndarray, int]:
    """(image, bits) of the first directory, before binarization: 8-bit
    pages keep their gray values (the perceptual hash reads them)."""
    return next(_tiff_pages(payload))


_COMPRESSION_IDS = {None: 1, "none": 1, "packbits": 32773, "g4": 4, "lzw": 5}


def _encode_page_body(
    image: np.ndarray, bilevel: bool, compression: str | None
) -> tuple[bytes, int, int, int]:
    """(strip bytes, bits, photometric, compression id) for one page."""
    image = np.ascontiguousarray(image.astype(np.uint8))
    comp_id = _COMPRESSION_IDS[compression]
    if bilevel:
        bits, photometric = 1, 0
        if comp_id == 4:
            from tensorflow_ocr_ray.core.ccitt import encode_g4

            return encode_g4(image), bits, photometric, comp_id
        body = np.packbits(image, axis=1).tobytes()
    else:
        if comp_id == 4:
            raise ValueError("G4 compression requires bilevel data")
        bits, photometric = 8, 1
        body = image.tobytes()
    if comp_id == 32773:
        out = bytearray()
        # naive literal-only PackBits (always decodable)
        for i in range(0, len(body), 128):
            chunk = body[i : i + 128]
            out.append(len(chunk) - 1)
            out += chunk
        body = bytes(out)
    elif comp_id == 5:
        from tensorflow_ocr_ray.core.tiff_lzw import lzw_encode

        body = lzw_encode(body)
    return body, bits, photometric, comp_id


def encode_tiff_multi(
    images: list[np.ndarray],
    bilevel: bool,
    compression: str | None = None,
) -> bytes:
    """Multi-page little-endian TIFF writer (fixtures/tests): chained
    IFDs, one strip per page; compressions none/"packbits"/"g4"/"lzw"."""
    if not images:
        raise ValueError("need at least one page")
    N_TAGS = 9
    header = 8
    out = bytearray(struct.pack("<4sI", TIFF_LE, header))
    ifd_size = 2 + N_TAGS * 12 + 4
    pos = header
    for p, image in enumerate(images):
        body, bits, photometric, comp_id = _encode_page_body(
            image, bilevel, compression
        )
        h, w = image.shape
        data_off = pos + ifd_size
        next_ifd = data_off + len(body) if p + 1 < len(images) else 0
        tags = [
            (256, 3, 1, w), (257, 3, 1, h), (258, 3, 1, bits),
            (259, 3, 1, comp_id), (262, 3, 1, photometric),
            (273, 4, 1, data_off),
            (277, 3, 1, 1), (278, 3, 1, h), (279, 4, 1, len(body)),
        ]
        out += struct.pack("<H", len(tags))
        for tag, typ, count, value in tags:
            out += struct.pack("<HHII", tag, typ, count, value)
        out += struct.pack("<I", next_ifd)
        out += body
        pos = next_ifd
    return bytes(out)


def encode_tiff(
    image: np.ndarray,
    bilevel: bool,
    packbits: bool = False,
    compression: str | None = None,
) -> bytes:
    """Single-page TIFF writer; ``packbits=True`` is legacy shorthand for
    ``compression="packbits"``."""
    if packbits and compression is None:
        compression = "packbits"
    return encode_tiff_multi([image], bilevel, compression)


def _binarize_page(img: np.ndarray, bits: int, cutoff: float) -> np.ndarray:
    """Ink (1) where ``3 * img <= lround(3*256*cutoff)``.  For integer
    pixels that is ``img <= cutoff_total // 3``, one compare of the page
    as it is; the threshold is clamped to the pixel range first, so the
    compare never widens the pixel type."""
    if bits == 1:
        return img
    cutoff_total = int(np.floor(3 * 256 * cutoff + 0.5))
    if img.dtype.kind not in "ui":
        return (3 * img.astype(np.int32) <= cutoff_total).astype(np.uint8)
    info = np.iinfo(img.dtype)
    limit = cutoff_total // 3
    if limit < info.min:
        return np.zeros(img.shape, dtype=np.uint8)
    return (img <= min(limit, info.max)).view(np.uint8)


def _payload_pages(payload: bytes, cutoff: float) -> Iterator[np.ndarray]:
    """The one magic dispatch over media payloads: yields each page as a
    bitonal char image (uint8 0/1), decoding a TIFF directory only when
    its page is asked for."""
    if payload[:4] in (TIFF_LE, TIFF_BE):
        for img, bits in _tiff_pages(payload):
            yield _binarize_page(img, bits, cutoff)
    elif payload[:2] == b"\xff\xd8":  # baseline JPEG (core/jpeg.py)
        from tensorflow_ocr_ray.core.jpeg import decode_jpeg_gray

        yield _binarize_page(decode_jpeg_gray(payload), 8, cutoff)
    elif payload[:8] == b"\x89PNG\r\n\x1a\n":  # PNG (core/png.py)
        from tensorflow_ocr_ray.core.png import decode_png_gray

        yield _binarize_page(decode_png_gray(payload), 8, cutoff)
    elif payload[:4] == b"%PDF":  # scanned PDF (core/pdfimage.py)
        from tensorflow_ocr_ray.core.pdfimage import pdf_page_images

        for img in pdf_page_images(payload):
            yield _binarize_page(img, 8, cutoff)
    elif payload[:6] in (b"GIF87a", b"GIF89a"):  # GIF (core/gif.py)
        from tensorflow_ocr_ray.core.gif import decode_gif_frames

        for img in decode_gif_frames(payload):
            yield _binarize_page(img, 8, cutoff)
    elif payload[:2] == b"BM":  # BMP (video_codecs)
        from tensorflow_ocr_ray.core.video_codecs import decode_bmp

        yield _binarize_page(decode_bmp(payload), 8, cutoff)
    elif payload[:4] in (MAGIC, MAGIC_GRAY):
        if len(payload) < 12:
            raise ValueError("OCR payload truncated in header")
        h, w = struct.unpack_from("<II", payload, 4)
        if h * w > MAX_PIXELS:
            raise ValueError(f"OCR payload {w}x{h} exceeds pixel cap")
        body = np.frombuffer(payload, dtype=np.uint8, offset=12)
        if payload[:4] == MAGIC_GRAY:
            yield _binarize_page(body.reshape(h, w), 8, cutoff)
        elif len(body) < (h * w + 7) // 8:
            raise ValueError(f"OCR1 body of {len(body)} bytes is short of "
                             f"{h}x{w} pixels")
        else:
            yield np.unpackbits(body, count=h * w).reshape(h, w)
    else:
        raise ValueError(f"unknown media payload magic {payload[:4]!r}")


def decode_payload_pages(payload: bytes, cutoff: float = 0.50) -> list[np.ndarray]:
    """All pages of a media payload as bitonal char images (uint8 0/1).
    Single-page formats yield one page; multi-page TIFFs one per
    directory, GIFs one per frame and scanned PDFs one per page image,
    in order (a PDF without raster page images yields none)."""
    return list(_payload_pages(payload, cutoff))


def decode_payload(payload: bytes, cutoff: float = 0.50) -> np.ndarray:
    """Decode a media payload to the bitonal char image (uint8 0/1) —
    the first page of ``decode_payload_pages``, decoding no later TIFF
    directory.

    Grayscale payloads are binarized with the reference's threshold rule
    (``main/readPicture.c:100-107``): a pixel is ink (1) iff the summed RGB
    value is <= lround(3*256*cutoff); for grayscale we use 3*gray.
    """
    for page in _payload_pages(payload, cutoff):
        return page
    # every other container yields a page or raises
    raise ValueError("PDF payload has no raster page images")


def binarize_rgb(rgb: np.ndarray, cutoff: float = 0.50) -> np.ndarray:
    """readPicture's RGB threshold (main/readPicture.c:100-115)."""
    total = rgb.astype(np.int32).sum(axis=-1)
    cutoff_total = int(np.floor(3 * 256 * cutoff + 0.5))
    return (total <= cutoff_total).astype(np.uint8)


def count_light(image: np.ndarray, shear: int, shear_scale: int, light_sum: int) -> int:
    """countLight (main/readPicture.c:122-143), vectorized.

    For each output row, sum image[row + col*shear/SHEARSCALE, col] over
    cols (off-edge cells contribute 0) and count rows whose sum never
    exceeds LIGHTSUM.  The reference short-circuits per row once the sum
    passes LIGHTSUM; the count of light rows is identical without it.
    """
    h, w = image.shape
    cols = np.arange(w)
    # C integer division truncates toward zero
    corr = (cols * shear) // shear_scale if shear >= 0 else -((cols * -shear) // shear_scale)
    rows = np.arange(h)[:, None] + corr[None, :]
    valid = (rows >= 0) & (rows < h)
    safe_rows = np.clip(rows, 0, h - 1)
    vals = image[safe_rows, cols[None, :]] * valid
    row_sums = vals.sum(axis=1)
    return int((row_sums <= light_sum).sum())


def find_best_shear(
    image: np.ndarray, max_shear: int, shear_scale: int, light_sum: int
) -> int:
    """The hill-climbing shear search of shearPicture (readPicture.c:145-181)."""
    best_lights = count_light(image, 0, shear_scale, light_sum)
    best_shear = 0
    shear = 1
    new_lights = count_light(image, shear, shear_scale, light_sum)
    if new_lights > best_lights:
        while new_lights > best_lights and shear <= max_shear:
            best_shear = shear
            best_lights = new_lights
            shear += 1
            new_lights = count_light(image, shear, shear_scale, light_sum)
        if shear > max_shear:
            best_shear = 0
    else:
        shear = -1
        new_lights = count_light(image, shear, shear_scale, light_sum)
        while new_lights > best_lights and shear >= -max_shear:
            best_shear = shear
            best_lights = new_lights
            shear -= 1
            new_lights = count_light(image, shear, shear_scale, light_sum)
        if shear < -max_shear:
            best_shear = 0
    return best_shear


def apply_shear(image: np.ndarray, shear: int, shear_scale: int) -> np.ndarray:
    """The physical column-then-row shear of shearPicture (readPicture.c:183-220).

    Columns move vertically by -(col*shear)/SHEARSCALE, then rows move
    horizontally by (row*shear)/SHEARSCALE.  Vacated cells are zeroed
    (column pass) / left as-is at the edges (row pass uses memmove, which
    leaves stale trailing cells — we reproduce the observable effect of
    moving the row contents; stale edge bytes only ever contain data that
    was already off-text).
    """
    if shear == 0:
        return image
    out = image.copy()
    h, w = out.shape
    cols = np.arange(w)
    def cdiv(a: np.ndarray) -> np.ndarray:
        return np.trunc(a / shear_scale).astype(np.int64)

    corr_per_col = cdiv(cols * shear)
    for col in range(w):
        corr = int(corr_per_col[col])
        if corr == 0:
            continue
        colv = out[:, col]
        if corr < 0:  # move rows down by -corr
            colv[-corr:] = colv[: h + corr]
            colv[:-corr] = 0
        else:  # move rows up by corr
            colv[: h - corr] = colv[corr:]
            colv[h - corr :] = 0
        out[:, col] = colv
    rows_corr = cdiv(np.arange(h) * shear)
    for row in range(h):
        corr = int(rows_corr[row])
        if corr == 0:
            continue
        eff = w - abs(corr)
        rowv = out[row]
        if corr < 0:
            rowv[:eff] = rowv[-corr : -corr + eff]
            rowv[eff:] = 0
        else:
            rowv[corr : corr + eff] = rowv[:eff].copy()
            rowv[:corr] = 0
        out[row] = rowv
    return out


def glyph_windows(
    image: np.ndarray,
    boxes: list[tuple[int, int, int, int]],
    size: int = 24,
) -> np.ndarray:
    """Resample glyph bbox crops to fixed (size x size) float32 windows
    (nearest neighbor) — the conv scorer's input layout (the north star's
    24x24 glyph window; cf. the reference's 28x28 MNIST-only LeNet,
    main/team8/cnn_mnist.py:78-86).  Boxes are (left, right, top, bottom),
    right/bottom exclusive."""
    n = len(boxes)
    out = np.zeros((n, size, size), dtype=np.float32)
    for i, (left, right, top, bottom) in enumerate(boxes):
        h, w = bottom - top, right - left
        if h <= 0 or w <= 0:
            continue
        rows = top + (np.arange(size) * h) // size
        cols = left + (np.arange(size) * w) // size
        out[i] = (image[np.ix_(rows, cols)] != 0).astype(np.float32)
    return out


def deskew(image: np.ndarray, max_shear: int = 4, shear_scale: int = 100, light_sum: int = 20) -> np.ndarray:
    return apply_shear(
        image, find_best_shear(image, max_shear, shear_scale, light_sum), shear_scale
    )
