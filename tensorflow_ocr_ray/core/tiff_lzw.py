"""TIFF-variant LZW codec (TIFF 6.0 spec §13).

The encoder and ``lzw_decode_py`` are pure Python; ``lzw_decode`` uses
the native kernel in ``core/native`` when it can be built.

MSB-first bit packing, initial 9-bit codes, Clear=256, EOI=257, first
dictionary code 258, and the TIFF "early change": the code width bumps
when the NEXT code to be assigned would not fit (one code earlier than
the GIF convention).
"""

from __future__ import annotations

from tensorflow_ocr_ray.core import native

CLEAR = 256
EOI = 257


def lzw_encode(data: bytes) -> bytes:
    """Fast path: the string table is a (prefix_code, byte) -> code dict
    (no bytes concatenation) and codes pack through an int bit-buffer
    (the bytes-per-char + format-string version measured 61 ms for a
    17 KB page)."""
    out = bytearray()
    buf = 0
    nbits = 0
    width = 9
    next_code = 258
    table: dict[tuple[int, int], int] = {}

    def emit(code: int) -> None:
        nonlocal buf, nbits
        buf = (buf << width) | code
        nbits += width
        while nbits >= 8:
            nbits -= 8
            out.append((buf >> nbits) & 0xFF)
        buf &= (1 << nbits) - 1

    emit(CLEAR)
    it = iter(data)
    prev = next(it, None)
    if prev is not None:
        for ch in it:
            key = (prev, ch)
            code = table.get(key)
            if code is not None:
                prev = code
                continue
            emit(prev)
            table[key] = next_code
            next_code += 1
            # early change: bump width when the next assignment would
            # not fit the current code size
            if next_code == (1 << width) - 1 and width < 12:
                width += 1
            if next_code >= 4094:  # table full: reset
                emit(CLEAR)
                width = 9
                next_code = 258
                table = {}
            prev = ch
        emit(prev)
        # the decoder appends one more table entry after the final data
        # code, which can trigger its early width change — EOI must be
        # written at the bumped width (found by hypothesis at the exact
        # input length where the final append lands on the boundary)
        if next_code == (1 << width) - 2 and width < 12:
            width += 1
    emit(EOI)
    if nbits:
        out.append((buf << (8 - nbits)) & 0xFF)
    return bytes(out)


def lzw_decode(data: bytes, max_out: int | None = None,
               early: int = 1) -> bytes:
    """Decode up to the entry that reaches ``max_out`` bytes (all of the
    stream when ``None``).  Runs the native kernel (``core/native``) when
    it is available and ``lzw_decode_py`` otherwise; both give the same
    bytes and raise the same ``ValueError`` on a bad code.  The kernel
    copies each code's string out of its own output instead of walking
    the string's prefix chain byte by byte."""
    kernels = native.load()
    if kernels is None:
        return lzw_decode_py(data, max_out, early)
    return kernels.lzw_decode(data, max_out, early)


def lzw_decode_py(data: bytes, max_out: int | None = None,
                  early: int = 1) -> bytes:
    """The reference for the native kernel.  Inlined hot loop: bulk
    3-byte bit refills, table length tracked in an int (no len() per
    code), next width-change threshold precomputed.

    ``early=1`` (TIFF and the PDF default) bumps the code width one
    table entry before the boundary; ``early=0`` (PDF
    ``/EarlyChange 0``) bumps it exactly at the boundary."""
    width = 9
    out = bytearray()
    base_table: list[bytes] = [bytes([i]) for i in range(256)] + [b"", b""]
    table = list(base_table)
    nt = 258  # == len(table), tracked
    bump = (1 << 9) - 1 - early  # table length that triggers the change
    prev: bytes | None = None
    buf = 0
    nbits = 0
    ipos = 0
    n = len(data)

    while True:
        if nbits < width:
            if ipos + 3 <= n:
                buf = (
                    (buf << 24)
                    | (data[ipos] << 16)
                    | (data[ipos + 1] << 8)
                    | data[ipos + 2]
                )
                ipos += 3
                nbits += 24
            else:
                while nbits < width:
                    if ipos >= n:
                        return bytes(out)
                    buf = (buf << 8) | data[ipos]
                    ipos += 1
                    nbits += 8
        nbits -= width
        code = buf >> nbits
        buf &= (1 << nbits) - 1
        if code == EOI:
            break
        if code == CLEAR:
            table = list(base_table)
            nt = 258
            width = 9
            bump = (1 << 9) - 1 - early
            prev = None
            continue
        if prev is None:
            if code >= nt:  # no entry to extend after start or Clear
                raise ValueError(f"bad LZW code {code}")
            entry = table[code]
        elif code < nt:
            entry = table[code]
            table.append(prev + entry[:1])
            nt += 1
        elif code == nt:  # the KwKwK case
            entry = prev + prev[:1]
            table.append(entry)
            nt += 1
        else:
            raise ValueError(f"bad LZW code {code}")
        out += entry
        prev = entry
        # early change: the decoder's table assignment trails the
        # encoder's by one code, so it switches at 510/1022/2046 where
        # the encoder switches at 511/1023/2047
        if nt == bump and width < 12:
            width += 1
            bump = (1 << width) - 1 - early
        if max_out is not None and len(out) >= max_out:
            break
    return bytes(out)
