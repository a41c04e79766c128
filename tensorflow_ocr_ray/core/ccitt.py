"""CCITT Group 4 (ITU-T T.6) bilevel codec.

The reference reads any TIFF libtiff reads (``main/readPicture.c:36-117``
via ``TIFFReadRGBAImage``); real scanned-book corpora are overwhelmingly
Group-4 fax TIFF, so the engine decodes (and, for tests/fixtures, encodes)
T.6 2-D MMR itself — no image libraries in this environment.

Implements the full T.6 modified-modified-READ coding: vertical modes
V(0)/VR(1..3)/VL(1..3), horizontal mode with the T.4 white/black run
tables (terminating + makeup + shared extended makeup to 2560), and pass
mode.  Bit order is MSB-first ("fill order" 1), the TIFF default.
Everything here is numpy/Python; ``decode_g4`` hands the hot loop to the
native kernel in ``core/native`` when it can be built.

Tables transcribed from ITU-T Recommendation T.4 (07/2003) Tables 2/3/4
and T.6 §2.2.1 — public standards.
"""

from __future__ import annotations

import functools

import numpy as np

from tensorflow_ocr_ray.core import native

# ---------------- T.4 run-length code tables ------------------------------
# (run_length, code_string) — code strings are MSB-first bit literals.

_WHITE_TERM = {
    0: "00110101", 1: "000111", 2: "0111", 3: "1000", 4: "1011",
    5: "1100", 6: "1110", 7: "1111", 8: "10011", 9: "10100",
    10: "00111", 11: "01000", 12: "001000", 13: "000011", 14: "110100",
    15: "110101", 16: "101010", 17: "101011", 18: "0100111",
    19: "0001100", 20: "0001000", 21: "0010111", 22: "0000011",
    23: "0000100", 24: "0101000", 25: "0101011", 26: "0010011",
    27: "0100100", 28: "0011000", 29: "00000010", 30: "00000011",
    31: "00011010", 32: "00011011", 33: "00010010", 34: "00010011",
    35: "00010100", 36: "00010101", 37: "00010110", 38: "00010111",
    39: "00101000", 40: "00101001", 41: "00101010", 42: "00101011",
    43: "00101100", 44: "00101101", 45: "00000100", 46: "00000101",
    47: "00001010", 48: "00001011", 49: "01010010", 50: "01010011",
    51: "01010100", 52: "01010101", 53: "00100100", 54: "00100101",
    55: "01011000", 56: "01011001", 57: "01011010", 58: "01011011",
    59: "01001010", 60: "01001011", 61: "00110010", 62: "00110011",
    63: "00110100",
}

_WHITE_MAKEUP = {
    64: "11011", 128: "10010", 192: "010111", 256: "0110111",
    320: "00110110", 384: "00110111", 448: "01100100", 512: "01100101",
    576: "01101000", 640: "01100111", 704: "011001100", 768: "011001101",
    832: "011010010", 896: "011010011", 960: "011010100",
    1024: "011010101", 1088: "011010110", 1152: "011010111",
    1216: "011011000", 1280: "011011001", 1344: "011011010",
    1408: "011011011", 1472: "010011000", 1536: "010011001",
    1600: "010011010", 1664: "011000", 1728: "010011011",
}

_BLACK_TERM = {
    0: "0000110111", 1: "010", 2: "11", 3: "10", 4: "011", 5: "0011",
    6: "0010", 7: "00011", 8: "000101", 9: "000100", 10: "0000100",
    11: "0000101", 12: "0000111", 13: "00000100", 14: "00000111",
    15: "000011000", 16: "0000010111", 17: "0000011000",
    18: "0000001000", 19: "00001100111", 20: "00001101000",
    21: "00001101100", 22: "00000110111", 23: "00000101000",
    24: "00000010111", 25: "00000011000", 26: "000011001010",
    27: "000011001011", 28: "000011001100", 29: "000011001101",
    30: "000001101000", 31: "000001101001", 32: "000001101010",
    33: "000001101011", 34: "000011010010", 35: "000011010011",
    36: "000011010100", 37: "000011010101", 38: "000011010110",
    39: "000011010111", 40: "000001101100", 41: "000001101101",
    42: "000011011010", 43: "000011011011", 44: "000001010100",
    45: "000001010101", 46: "000001010110", 47: "000001010111",
    48: "000001100100", 49: "000001100101", 50: "000001010010",
    51: "000001010011", 52: "000000100100", 53: "000000110111",
    54: "000000111000", 55: "000000100111", 56: "000000101000",
    57: "000001011000", 58: "000001011001", 59: "000000101011",
    60: "000000101100", 61: "000001011010", 62: "000001100110",
    63: "000001100111",
}

_BLACK_MAKEUP = {
    64: "0000001111", 128: "000011001000", 192: "000011001001",
    256: "000001011011", 320: "000000110011", 384: "000000110100",
    448: "000000110101", 512: "0000001101100", 576: "0000001101101",
    640: "0000001001010", 704: "0000001001011", 768: "0000001001100",
    832: "0000001001101", 896: "0000001110010", 960: "0000001110011",
    1024: "0000001110100", 1088: "0000001110101", 1152: "0000001110110",
    1216: "0000001110111", 1280: "0000001010010", 1344: "0000001010011",
    1408: "0000001010100", 1472: "0000001010101", 1536: "0000001011010",
    1600: "0000001011011", 1664: "0000001100100", 1728: "0000001100101",
}

# extended makeup codes, shared by both colors (T.4 Table 4)
_EXT_MAKEUP = {
    1792: "00000001000", 1856: "00000001100", 1920: "00000001101",
    1984: "000000010010", 2048: "000000010011", 2112: "000000010100",
    2176: "000000010101", 2240: "000000010110", 2304: "000000010111",
    2368: "000000011100", 2432: "000000011101", 2496: "000000011110",
    2560: "000000011111",
}

# T.6 mode codes
_MODE_P = "0001"
_MODE_H = "001"
_MODE_V = {0: "1", 1: "011", 2: "000011", 3: "0000011",
           -1: "010", -2: "000010", -3: "0000010"}
# EOFB = two EOL codes (000000000001 twice)
_EOFB = "000000000001" * 2


def _invert(table: dict[int, str]) -> dict[str, int]:
    return {v: k for k, v in table.items()}

_WHITE_DEC = {**_invert(_WHITE_TERM),
              **{c: r for r, c in _WHITE_MAKEUP.items()},
              **{c: r for r, c in _EXT_MAKEUP.items()}}
_WHITE_IS_TERM = {c for r, c in _WHITE_TERM.items()}
_BLACK_DEC = {**_invert(_BLACK_TERM),
              **{c: r for r, c in _BLACK_MAKEUP.items()},
              **{c: r for r, c in _EXT_MAKEUP.items()}}
_BLACK_IS_TERM = {c for r, c in _BLACK_TERM.items()}
_MAX_CODE_LEN = 14

# ---------------- table-driven decoder fast path --------------------------
# window-indexed lookup tables: table[next-W-bits] = (value, code_len, ...)
# — one array index per code instead of a try-each-length string loop.

_RUN_W = 13  # longest run code (black makeup) is 13 bits
_MODE_W = 7  # longest mode code is 7 bits


def _build_run_table(dec: dict[str, int], term: set[str]):
    table: list[tuple[int, int, bool] | None] = [None] * (1 << _RUN_W)
    for code, run in dec.items():
        ln = len(code)
        base = int(code, 2) << (_RUN_W - ln)
        entry = (run, ln, code in term)
        for i in range(1 << (_RUN_W - ln)):
            table[base + i] = entry
    return table


def _build_mode_table():
    codes = [("v", 0, "1"), ("v", 1, "011"), ("v", -1, "010"),
             ("h", None, "001"), ("p", None, "0001"),
             ("v", 2, "000011"), ("v", -2, "000010"),
             ("v", 3, "0000011"), ("v", -3, "0000010")]
    table: list[tuple[str, int | None, int] | None] = [None] * (1 << _MODE_W)
    for kind, arg, code in codes:
        ln = len(code)
        base = int(code, 2) << (_MODE_W - ln)
        for i in range(1 << (_MODE_W - ln)):
            table[base + i] = (kind, arg, ln)
    return table


_WHITE_TABLE = _build_run_table(_WHITE_DEC, _WHITE_IS_TERM)
_BLACK_TABLE = _build_run_table(_BLACK_DEC, _BLACK_IS_TERM)
_MODE_TABLE = _build_mode_table()

# int-coded mode table for the inlined decode loop: (op, arg, len) with
# op 0=vertical 1=horizontal 2=pass — avoids string compares per code
_MODE_OPS = {"v": 0, "h": 1, "p": 2}
_MODE_TABLE_INT = [
    None if e is None else (_MODE_OPS[e[0]], e[1] if e[1] is not None else 0,
                            e[2])
    for e in _MODE_TABLE
]


class _FastBits:
    """MSB-first streaming bit cursor: O(1) memory (an int accumulator
    refilled bytewise — a precomputed per-position window array was pure
    memory traffic and measurably hurt scaling on a DRAM-bound box)."""

    __slots__ = ("data", "nbytes", "buf", "nbits", "ipos", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.nbytes = len(data)
        self.buf = 0
        self.nbits = 0
        self.ipos = 0
        self.pos = 0  # consumed-bit counter (for error reporting)

    def peek(self, width: int) -> int:
        while self.nbits < width:
            if self.ipos < self.nbytes:
                self.buf = (self.buf << 8) | self.data[self.ipos]
            else:
                self.buf <<= 8  # zero-fill past the end (final EOFB pad)
            self.ipos += 1
            self.nbits += 8
        return self.buf >> (self.nbits - width)

    def consume(self, width: int) -> None:
        self.nbits -= width
        self.buf &= (1 << self.nbits) - 1
        self.pos += width


class _BitWriter:
    def __init__(self):
        self.bits: list[str] = []

    def write(self, code: str) -> None:
        self.bits.append(code)

    def tobytes(self) -> bytes:
        s = "".join(self.bits)
        pad = (-len(s)) % 8
        s += "0" * pad
        return int(s, 2).to_bytes(len(s) // 8, "big") if s else b""


def _encode_run(w: _BitWriter, run: int, white: bool) -> None:
    """One color run as (extended-)makeup + terminating codes."""
    while run >= 2624:  # 2560 + max 63 terminator keeps the loop simple
        w.write(_EXT_MAKEUP[2560])
        run -= 2560
    if run >= 1792:
        base = (run - 1792) // 64 * 64 + 1792
        w.write(_EXT_MAKEUP[base])
        run -= base
    elif run >= 64:
        base = run // 64 * 64
        w.write((_WHITE_MAKEUP if white else _BLACK_MAKEUP)[base])
        run -= base
    w.write((_WHITE_TERM if white else _BLACK_TERM)[run])


def _changes_list(row: np.ndarray) -> list[int]:
    """Change positions as a plain int list (no width sentinels)."""
    diff = np.nonzero(row[1:] != row[:-1])[0] + 1
    out = diff.tolist()
    if len(row) and row[0] != 0:
        out.insert(0, 0)
    return out


def _changes(row: np.ndarray) -> np.ndarray:
    """Positions where color changes, appended with two width sentinels
    (the T.6 b1/b2 convention).  Lines start imaginarily WHITE, so a black
    pixel at position 0 is itself a changing element."""
    w = len(row)
    diff = np.nonzero(row[1:] != row[:-1])[0] + 1
    if row[0] != 0:
        diff = np.concatenate([[0], diff])
    return np.concatenate([diff, [w, w]])


def encode_g4(image: np.ndarray) -> bytes:
    """T.6 encode a 0/1 uint8 bitmap (1 = black ink).

    Run-list based: both lines live as change-position lists (change
    index parity IS the new color — lines start imaginarily white), so
    a1/a2/b1/b2 come from bisects on small int lists, no per-op pixel
    scans (the searchsorted-per-mode version measured 36 ms/page)."""
    from bisect import bisect_right

    img = np.ascontiguousarray((image != 0).astype(np.uint8))
    h, w = img.shape
    writer = _BitWriter()
    ref_chg: list[int] = []  # imaginary all-white reference line
    for y in range(h):
        cur_chg = _changes_list(img[y])
        ncur = len(cur_chg)
        nref = len(ref_chg)
        a0 = -1
        color = 0  # current color at/after a0 (0 = white)
        while a0 < w:
            # a1: first cur change > a0 to !color (parity == color)
            idx = bisect_right(cur_chg, a0)
            if (idx & 1) != color:
                idx += 1
            a1 = cur_chg[idx] if idx < ncur else w
            # b1/b2 on the reference line, same parity rule
            j = bisect_right(ref_chg, a0)
            if (j & 1) != color:
                j += 1
            b1 = ref_chg[j] if j < nref else w
            b2 = ref_chg[j + 1] if j + 1 < nref else w
            if b2 < a1:
                writer.write(_MODE_P)
                a0 = b2
                continue
            d = a1 - b1
            if -3 <= d <= 3:
                writer.write(_MODE_V[d])
                a0 = a1
                color ^= 1
                continue
            # horizontal mode: runs a0a1 (current color), a1a2 (opposite)
            a2 = cur_chg[idx + 1] if idx + 1 < ncur else w
            start = 0 if a0 < 0 else a0
            writer.write(_MODE_H)
            _encode_run(writer, a1 - start, white=(color == 0))
            _encode_run(writer, a2 - a1, white=(color == 1))
            a0 = a2
        ref_chg = cur_chg
    writer.write(_EOFB)
    return writer.tobytes()


def _code_error(what: str, bit: int, window: int,
                nbytes: int) -> ValueError:
    """The error for an invalid ``window``-bit code window at ``bit``.
    Past the data the reader zero-fills, and no code is all zeros, so a
    cut-off stream always ends on an invalid window that reaches past
    the last data byte: that case is reported as truncation."""
    if bit + window > 8 * nbytes:
        return ValueError("truncated CCITT stream")
    return ValueError(f"bad {what} near bit {bit}")


def _read_run(r: "_FastBits", table) -> int:
    """One full run (makeup chain + terminating code), table-driven."""
    total = 0
    while True:
        entry = table[r.peek(_RUN_W)]
        if entry is None:
            raise _code_error("CCITT run code", r.pos, _RUN_W, r.nbytes)
        run, ln, is_term = entry
        r.consume(ln)
        total += run
        if is_term:
            return total


@functools.cache
def _int_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The run and mode tables as int32 (N, 3) arrays for the native
    kernel: (run, len, is_term) and (op, arg, len), len 0 = no code."""
    def arr(table):
        return np.array([e if e is not None else (0, 0, 0) for e in table],
                        dtype=np.int32)
    return arr(_WHITE_TABLE), arr(_BLACK_TABLE), arr(_MODE_TABLE_INT)


def decode_g4(data: bytes, width: int, height: int) -> np.ndarray:
    """T.6 decode to a 0/1 uint8 bitmap (1 = black ink).

    Runs the native kernel (``core/native``) when it is available and
    ``decode_g4_py`` otherwise; both give the same pixels and raise the
    same ``ValueError`` on a bad stream."""
    kernels = native.load()
    if kernels is None:
        return decode_g4_py(data, width, height)
    return kernels.decode_g4(data, width, height, *_int_tables())


def decode_g4_py(data: bytes, width: int, height: int) -> np.ndarray:
    """T.6 decode in Python: the reference for the native kernel.

    Table-driven and run-list based: mode and run codes resolve with one
    window peek + one array index each, every line lives as its
    change-position list (white-start convention; change index parity IS
    the new color) until one vectorized paint per row, and the whole
    bit cursor + b1 reference scan is INLINED in the loop (no function
    calls, no bisect — the reference pointer only moves forward because
    a0 is strictly increasing).  On a dense 430x795 text page (~23k
    codes): try-each-length string matcher 40 ms, _FastBits+bisect
    16 ms, this loop ~10 ms."""
    out = np.zeros((height, width), dtype=np.uint8)
    mode_tbl = _MODE_TABLE_INT
    wtbl, btbl = _WHITE_TABLE, _BLACK_TABLE
    nbytes = len(data)
    buf = 0      # MSB-first bit accumulator
    nbits = 0    # valid bits in buf
    ipos = 0     # next byte index
    ref_chg: list[int] = []  # imaginary all-white first reference line
    for y in range(height):
        nref = len(ref_chg)
        cur_chg: list[int] = []
        a0 = -1
        color = 0
        jb = 0  # first ref index with ref_chg[jb] > a0 (monotone in a0)
        while a0 < width:
            prev_a0 = a0
            if nbits < 13:
                if ipos + 3 <= nbytes:
                    buf = (
                        (buf << 24)
                        | (data[ipos] << 16)
                        | (data[ipos + 1] << 8)
                        | data[ipos + 2]
                    )
                    ipos += 3
                    nbits += 24
                else:
                    while nbits < 13:
                        if ipos < nbytes:
                            buf = (buf << 8) | data[ipos]
                        else:
                            buf <<= 8  # zero-fill past end (EOFB pad)
                        ipos += 1
                        nbits += 8
            mode = mode_tbl[buf >> (nbits - 7)]
            if mode is None:
                raise _code_error("CCITT mode code", ipos * 8 - nbits,
                                  _MODE_W, nbytes)
            op, arg, ln = mode
            nbits -= ln
            buf &= (1 << nbits) - 1
            # b1: first ref change > a0 transitioning to !color.  Changes
            # alternate white->black (even index) / black->white (odd),
            # so the target parity equals the current color.
            while jb < nref and ref_chg[jb] <= a0:
                jb += 1
            j = jb + 1 if (jb & 1) != color else jb
            if op == 0:  # vertical
                b1 = ref_chg[j] if j < nref else width
                a1 = b1 + arg
                if a1 < width:
                    cur_chg.append(a1)
                a0 = a1
                color ^= 1
            elif op == 2:  # pass: color run extends through b2
                a0 = ref_chg[j + 1] if j + 1 < nref else width
            else:  # horizontal: two explicit runs, makeup chains allowed
                start = 0 if a0 < 0 else a0
                pos = start
                tbl = btbl if color else wtbl
                for half in (0, 1):
                    total = 0
                    while True:
                        if nbits < 13:
                            if ipos + 3 <= nbytes:
                                buf = (
                                    (buf << 24)
                                    | (data[ipos] << 16)
                                    | (data[ipos + 1] << 8)
                                    | data[ipos + 2]
                                )
                                ipos += 3
                                nbits += 24
                            else:
                                while nbits < 13:
                                    if ipos < nbytes:
                                        buf = (buf << 8) | data[ipos]
                                    else:
                                        buf <<= 8
                                    ipos += 1
                                    nbits += 8
                        entry = tbl[buf >> (nbits - 13)]
                        if entry is None:
                            raise _code_error(
                                "CCITT run code", ipos * 8 - nbits,
                                _RUN_W, nbytes)
                        run, rln, is_term = entry
                        nbits -= rln
                        buf &= (1 << nbits) - 1
                        total += run
                        if is_term:
                            break
                    pos += total
                    if pos < width:
                        cur_chg.append(pos)
                    tbl = wtbl if color else btbl
                a0 = pos
            if a0 <= prev_a0:
                # a corrupt stream whose V/P code moves a0 backward (or a
                # zero-length H pair) would otherwise spin forever
                raise ValueError(
                    f"corrupt CCITT stream: a0 failed to advance at row {y}"
                    f" (a0={a0}, prev={prev_a0})"
                )
        # paint the row from its change list: black spans are
        # [chg[0],chg[1]), [chg[2],chg[3]), ...; odd count -> runs to width
        if cur_chg:
            row = out[y]
            starts = cur_chg[0::2]
            ends = cur_chg[1::2]
            if len(ends) < len(starts):
                ends = ends + [width]
            for s_, e_ in zip(starts, ends):
                row[s_:e_] = 1
        ref_chg = cur_chg
    return out


# ---------------- Group 3 (ITU-T T.4) decode ------------------------------
# The compat tier below G4: TIFF compression 2 (Modified-Huffman rows,
# byte-aligned) and 3 (T4Options 1-D / 2-D), and PDF CCITTFaxDecode with
# K >= 0.  Shares the T.4 run tables and the T.6 mode table above (T.4
# 2-D READ uses the same pass/horizontal/vertical codes as T.6).


def _paint_row(row: np.ndarray, chg: list[int], width: int) -> None:
    """Change list (white-start convention) → 1s for black spans."""
    if chg:
        starts = chg[0::2]
        ends = chg[1::2]
        if len(ends) < len(starts):
            ends = ends + [width]
        for s_, e_ in zip(starts, ends):
            row[s_:e_] = 1


def _skip_eol(r: "_FastBits", two_d: bool):
    """Consume fill zeros + one EOL if the cursor sits on one.

    Returns ``(saw_eol, tag)``; ``tag`` is the T.4 K>0 mode bit read
    after an EOL when ``two_d`` (1 = next row 1-D, 0 = 2-D).  No run or
    mode code starts with 11 zero bits, so peeking 12 disambiguates
    EOL/fill from data unambiguously (T.4 §4.1.2)."""
    while True:
        w = r.peek(12)
        if w == 1:  # 000000000001
            r.consume(12)
            tag = None
            if two_d:
                tag = r.peek(1)
                r.consume(1)
            return True, tag
        if w == 0 and r.pos + 12 < 8 * r.nbytes:
            r.consume(1)  # >= 12 zeros: fill before the EOL
            continue
        # data, or zeros to the end of the stream: no EOL to skip
        return False, None


def _decode_mh_row(r: "_FastBits", width: int) -> list[int]:
    """One T.4 1-D Modified-Huffman row → change-position list."""
    chg: list[int] = []
    pos = 0
    color = 0
    steps = 0
    while pos < width:
        steps += 1
        if steps > 2 * width + 8:
            raise ValueError("corrupt MH row: runs fail to fill the row")
        run = _read_run(r, _BLACK_TABLE if color else _WHITE_TABLE)
        pos += run
        if pos > width:
            raise ValueError(f"MH row overrun ({pos} > {width})")
        if pos < width:
            chg.append(pos)
        color ^= 1
    return chg


def _decode_2d_row(r: "_FastBits", width: int,
                   ref_chg: list[int]) -> list[int]:
    """One T.4 2-D (READ) row against the previous row's change list —
    the same pass/horizontal/vertical algorithm as ``decode_g4``."""
    cur: list[int] = []
    a0 = -1
    color = 0
    jb = 0
    nref = len(ref_chg)
    while a0 < width:
        prev_a0 = a0
        entry = _MODE_TABLE_INT[r.peek(_MODE_W)]
        if entry is None:
            raise _code_error("T.4 2-D mode code", r.pos, _MODE_W, r.nbytes)
        op, arg, ln = entry
        r.consume(ln)
        while jb < nref and ref_chg[jb] <= a0:
            jb += 1
        j = jb + 1 if (jb & 1) != color else jb
        if op == 0:  # vertical
            b1 = ref_chg[j] if j < nref else width
            a1 = b1 + arg
            if a1 < width:
                cur.append(a1)
            a0 = a1
            color ^= 1
        elif op == 2:  # pass
            a0 = ref_chg[j + 1] if j + 1 < nref else width
        else:  # horizontal
            pos = 0 if a0 < 0 else a0
            tbl = _BLACK_TABLE if color else _WHITE_TABLE
            for _half in (0, 1):
                pos += _read_run(r, tbl)
                if pos < width:
                    cur.append(pos)
                tbl = _WHITE_TABLE if color else _BLACK_TABLE
            a0 = pos
        if a0 <= prev_a0:
            raise ValueError(
                f"corrupt T.4 2-D row: a0 failed to advance (a0={a0})"
            )
    return cur


def decode_g3(data: bytes, width: int, height: int, two_d: bool = False,
              byte_align: bool = False) -> np.ndarray:
    """T.4 Group-3 decode to a 0/1 uint8 bitmap (1 = black ink).

    - ``two_d=False``: 1-D Modified-Huffman rows; EOLs (with fill) are
      optional and skipped wherever present — covers TIFF compression 2
      (with ``byte_align=True``: every row restarts on a byte boundary),
      TIFF compression 3 with T4Options bit0 clear, and PDF
      ``CCITTFaxDecode`` ``/K 0``.
    - ``two_d=True``: EOL-framed K>0 streams; the bit after each EOL
      tags the row 1-D (1) or 2-D READ (0).  A missing first EOL is
      tolerated as a 1-D row.
    """
    out = np.zeros((height, width), dtype=np.uint8)
    r = _FastBits(data)
    ref_chg: list[int] = []
    for y in range(height):
        if byte_align:
            pad = (-r.pos) % 8
            if pad:
                r.peek(pad)
                r.consume(pad)
        _saw, tag = _skip_eol(r, two_d)
        if (not two_d) or tag != 0:
            cur = _decode_mh_row(r, width)
        else:
            cur = _decode_2d_row(r, width, ref_chg)
        _paint_row(out[y], cur, width)
        ref_chg = cur
    return out
