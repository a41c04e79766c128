"""Baseline JPEG (ITU-T T.81 / JFIF) decoding, pure numpy — grayscale
output.

The third spec-implemented codec family (after TIFF G4/LZW/PackBits and
WAV G.711/ADPCM): no image library ships in this container, so the
classic baseline sequential DCT process is implemented from the public
standard — DQT/DHT/SOF0/SOS/DRI marker parsing, canonical Huffman
tables built from the BITS/HUFFVAL lists (T.81 Annex C), the F.2.2.1
EXTEND sign-extension, zigzag dequantization, and the type-III 8x8 DCT
as one orthonormal matrix sandwich.  Output is the LUMA PLANE ONLY as
``(h, w) uint8`` — this engine consumes pixels for analysis (ink masks,
stats), so chroma blocks are entropy-decoded (the bitstream cannot be
advanced otherwise) but never dequantized or transformed.

Scope: baseline sequential (SOF0) and progressive (SOF2) — spectral
selection AND successive approximation, incl. DC/AC refinement scans,
EOB runs, restart intervals; 8-bit precision.  Non-luma AC scans are
byte-skipped to the next marker (their bits influence nothing we
output); interleaved DC scans entropy-decode every component to keep
the stream in sync.  Arithmetic coding and hierarchical modes raise
``NotImplementedError``.  The entropy decode is a per-symbol Python
loop — correct and adequate for the multimodal stage's thumbnail-class
frames; a production hot path would table-drive it per restart segment
(the G4 inlining precedent).

Used by ``core/video_codecs.decode_avi`` for MJPG-compressed AVI
streams and directly for standalone ``FFD8``-magic image payloads.
"""

from __future__ import annotations

import struct

import numpy as np

ZIGZAG = np.array(
    [0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
     12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
     35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
     58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63],
    dtype=np.int64,
)

# orthonormal DCT-II basis: IDCT(block) = M.T @ block @ M
_C = np.array(
    [[np.cos((2 * x + 1) * u * np.pi / 16) *
      (np.sqrt(0.125) if u == 0 else 0.5)
      for x in range(8)] for u in range(8)]
)


def _idct2(coef: np.ndarray) -> np.ndarray:
    return _C.T @ coef @ _C


class _HuffTable:
    """Canonical Huffman per T.81 Annex C: code lengths 1..16 with
    ``bits[l]`` codes each, values in HUFFVAL order."""

    def __init__(self, bits: list[int], values: bytes):
        self.lookup: dict[tuple[int, int], int] = {}
        code = 0
        k = 0
        for length in range(1, 17):
            for _ in range(bits[length - 1]):
                self.lookup[(length, code)] = values[k]
                code += 1
                k += 1
            code <<= 1


class _BitReader:
    """MSB-first bit reader over entropy-coded data with 0xFF00 stuffing
    removal; stops at any non-stuffed marker (RSTn handled by caller)."""

    def __init__(self, data: bytes, pos: int):
        self.data = data
        self.pos = pos
        self.bitbuf = 0
        self.nbits = 0

    def _fill(self):
        if self.pos >= len(self.data):
            raise ValueError("JPEG entropy data truncated")
        b = self.data[self.pos]
        if b == 0xFF:
            if self.pos + 1 >= len(self.data):
                raise ValueError("JPEG entropy data truncated")
            nxt = self.data[self.pos + 1]
            if nxt == 0x00:
                self.pos += 2
            elif 0xD0 <= nxt <= 0xD7:  # restart marker: caller resyncs
                raise _RestartMarker(nxt - 0xD0)
            else:
                raise EOFError("marker inside entropy data")
        else:
            self.pos += 1
        self.bitbuf = (self.bitbuf << 8) | b
        self.nbits += 8

    def read_bit(self) -> int:
        if self.nbits == 0:
            self._fill()
        self.nbits -= 1
        return (self.bitbuf >> self.nbits) & 1

    def read_bits(self, n: int) -> int:
        v = 0
        for _ in range(n):
            v = (v << 1) | self.read_bit()
        return v

    def decode_symbol(self, table: _HuffTable) -> int:
        code = 0
        for length in range(1, 17):
            code = (code << 1) | self.read_bit()
            sym = table.lookup.get((length, code))
            if sym is not None:
                return sym
        raise ValueError("invalid Huffman code")

    def resync(self):
        """Skip to just after the next restart marker; drop buffered
        bits (restart markers are byte-aligned)."""
        self.bitbuf = 0
        self.nbits = 0
        while True:
            if self.pos + 1 >= len(self.data):
                raise ValueError("JPEG truncated before a restart marker")
            if (self.data[self.pos] == 0xFF
                    and 0xD0 <= self.data[self.pos + 1] <= 0xD7):
                self.pos += 2
                return
            self.pos += 1


class _RestartMarker(Exception):
    def __init__(self, n: int):
        self.n = n


def _extend(v: int, t: int) -> int:
    """T.81 F.2.2.1: sign-extend a t-bit magnitude."""
    if t == 0:
        return 0
    return v if v >= (1 << (t - 1)) else v - (1 << t) + 1


def _segment(payload: bytes, pos: int) -> tuple[int, bytes]:
    """(length, body) of the marker segment whose length field is at
    ``pos``; a segment that runs past the payload raises ``ValueError``."""
    if pos + 2 > len(payload):
        raise ValueError("JPEG truncated in a marker segment")
    (seglen,) = struct.unpack_from(">H", payload, pos)
    if seglen < 2 or pos + seglen > len(payload):
        raise ValueError(f"JPEG marker segment of {seglen} bytes at {pos} "
                         "runs past the payload")
    return seglen, payload[pos + 2:pos + seglen]


def decode_jpeg_gray(payload: bytes) -> np.ndarray:
    """Baseline JPEG bytes → (h, w) uint8 luma plane.  A stream cut
    short raises ``ValueError``."""
    if payload[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG payload (no SOI)")
    pos = 2
    qtables: dict[int, np.ndarray] = {}
    htables: dict[tuple[int, int], _HuffTable] = {}  # (class, id)
    frame = None
    restart_interval = 0
    while True:
        if pos + 2 > len(payload):
            raise ValueError("JPEG truncated before SOS")
        if payload[pos] != 0xFF:
            raise ValueError(f"expected marker at {pos}")
        marker = payload[pos + 1]
        pos += 2
        if marker == 0xD9:  # EOI
            raise ValueError("EOI before SOS")
        if marker in (0x01,) or 0xD0 <= marker <= 0xD7:
            continue  # parameterless
        seglen, body = _segment(payload, pos)
        if marker == 0xDB:  # DQT
            i = 0
            while i < len(body):
                pq, tq = body[i] >> 4, body[i] & 0x0F
                i += 1
                if pq == 0:
                    q = np.frombuffer(body[i:i + 64], dtype=np.uint8)
                    i += 64
                else:
                    q = np.frombuffer(body[i:i + 128],
                                      dtype=">u2").astype(np.int64)
                    i += 128
                qtables[tq] = np.asarray(q, dtype=np.int64)
        elif marker == 0xC4:  # DHT
            i = 0
            while i < len(body):
                tc, th = body[i] >> 4, body[i] & 0x0F
                bits = list(body[i + 1:i + 17])
                n = sum(bits)
                htables[(tc, th)] = _HuffTable(
                    bits, body[i + 17:i + 17 + n]
                )
                i += 17 + n
        elif marker in (0xC0, 0xC1, 0xC2):  # SOF0/1 baseline, SOF2 prog
            prec, h, w, nc = struct.unpack(">BHHB", body[:6])
            if prec != 8:
                raise NotImplementedError(f"{prec}-bit precision")
            comps = []
            for c in range(nc):
                cid, hv, tq = body[6 + 3 * c:9 + 3 * c]
                comps.append(
                    {"id": cid, "h": hv >> 4, "v": hv & 0x0F, "tq": tq}
                )
            frame = {"h": h, "w": w, "comps": comps,
                     "progressive": marker == 0xC2}
        elif marker in (0xC3, 0xC5, 0xC6, 0xC7,
                        0xC9, 0xCA, 0xCB, 0xCD, 0xCE, 0xCF):
            raise NotImplementedError(
                f"unsupported SOF marker {marker:#x} (lossless/"
                "arithmetic/hierarchical)"
            )
        elif marker == 0xDD:  # DRI
            (restart_interval,) = struct.unpack(">H", body[:2])
        elif marker == 0xDA:  # SOS — entropy data follows
            if frame is None:
                raise ValueError("SOS before SOF")
            if frame["progressive"]:
                return _decode_progressive(
                    payload, pos, seglen, body, frame, qtables, htables,
                    restart_interval,
                )
            ns = body[0]
            sel = {}
            for c in range(ns):
                cs, tdta = body[1 + 2 * c], body[2 + 2 * c]
                sel[cs] = (tdta >> 4, tdta & 0x0F)
            pos += seglen
            break
        pos += seglen
    if frame is None:
        raise ValueError("SOS before SOF")

    comps = frame["comps"]
    hmax = max(c["h"] for c in comps)
    vmax = max(c["v"] for c in comps)
    mcux = (frame["w"] + 8 * hmax - 1) // (8 * hmax)
    mcuy = (frame["h"] + 8 * vmax - 1) // (8 * vmax)
    luma = comps[0]
    lw, lh = 8 * luma["h"] * mcux, 8 * luma["v"] * mcuy
    out = np.zeros((lh, lw), dtype=np.float64)
    qy = qtables[luma["tq"]]

    reader = _BitReader(payload, pos)
    pred = {c["id"]: 0 for c in comps}
    mcu_count = 0
    for my in range(mcuy):
        for mx in range(mcux):
            if restart_interval and mcu_count and \
                    mcu_count % restart_interval == 0:
                reader.resync()
                pred = {c["id"]: 0 for c in comps}
            try:
                for ci, comp in enumerate(comps):
                    dc_t = htables[(0, sel[comp["id"]][0])]
                    ac_t = htables[(1, sel[comp["id"]][1])]
                    for by in range(comp["v"]):
                        for bx in range(comp["h"]):
                            coef = np.zeros(64, dtype=np.int64)
                            t = reader.decode_symbol(dc_t)
                            diff = _extend(reader.read_bits(t), t)
                            pred[comp["id"]] += diff
                            coef[0] = pred[comp["id"]]
                            k = 1
                            while k < 64:
                                rs = reader.decode_symbol(ac_t)
                                r, s = rs >> 4, rs & 0x0F
                                if s == 0:
                                    if r == 15:  # ZRL
                                        k += 16
                                        continue
                                    break  # EOB
                                k += r
                                if k > 63:
                                    raise ValueError("AC run overflow")
                                coef[k] = _extend(reader.read_bits(s), s)
                                k += 1
                            if ci == 0:  # luma only gets transformed
                                blk = np.zeros(64, dtype=np.int64)
                                blk[ZIGZAG] = coef * qy
                                px = _idct2(blk.reshape(8, 8)) + 128.0
                                y0 = (my * luma["v"] + by) * 8
                                x0 = (mx * luma["h"] + bx) * 8
                                out[y0:y0 + 8, x0:x0 + 8] = px
            except _RestartMarker:
                raise ValueError("unexpected restart marker mid-MCU")
            mcu_count += 1

    return np.clip(np.round(out), 0, 255).astype(np.uint8)[
        : frame["h"], : frame["w"]
    ]


# ---------------- progressive (SOF2) decode -------------------------------


def _decode_progressive(payload, pos, seglen, body, frame, qtables,
                        htables, restart_interval):
    """T.81 Annex G progressive decode, luma plane out.

    Called at the FIRST SOS; owns the rest of the stream: decodes every
    scan touching the luma coefficients (and interleaved DC scans in
    full, to keep the bitstream in sync), byte-skips non-luma AC scans,
    accumulates zigzag-order coefficients across scans, then one
    dequantize + IDCT pass at EOI.
    """
    comps = frame["comps"]
    hmax = max(c["h"] for c in comps)
    vmax = max(c["v"] for c in comps)
    mcux = (frame["w"] + 8 * hmax - 1) // (8 * hmax)
    mcuy = (frame["h"] + 8 * vmax - 1) // (8 * vmax)
    luma = comps[0]
    by_id = {c["id"]: c for c in comps}
    # padded (interleaved) grid per component; the luma store covers it
    grid = {
        c["id"]: (mcuy * c["v"], mcux * c["h"]) for c in comps
    }
    # real (non-interleaved) block counts per component
    nreal = {}
    for c in comps:
        cw = (frame["w"] * c["h"] + hmax - 1) // hmax
        ch = (frame["h"] * c["v"] + vmax - 1) // vmax
        nreal[c["id"]] = ((ch + 7) // 8, (cw + 7) // 8)
    coefs = np.zeros((*grid[luma["id"]], 64), dtype=np.int64)

    def skip_to_marker(p):
        while True:
            if p + 1 >= len(payload):
                raise ValueError("JPEG truncated before EOI")
            if payload[p] == 0xFF:
                nxt = payload[p + 1]
                if nxt != 0x00 and not (0xD0 <= nxt <= 0xD7):
                    return p
                p += 2
            else:
                p += 1

    def refine_nonzero(reader, coef, k, se, al):
        """Correction bits for already-nonzero coefficients in
        [k, se]; returns nothing (mutates coef)."""
        for i in range(k, se + 1):
            if coef[i]:
                if reader.read_bit():
                    if coef[i] > 0 and not (coef[i] & (1 << al)):
                        coef[i] += 1 << al
                    elif coef[i] < 0 and not (-coef[i] & (1 << al)):
                        coef[i] -= 1 << al

    def ac_initial(reader, coef, ss, se, al, ac_t, state):
        if state["eobrun"] > 0:
            state["eobrun"] -= 1
            return
        k = ss
        while k <= se:
            rs = reader.decode_symbol(ac_t)
            r, s = rs >> 4, rs & 0x0F
            if s == 0:
                if r == 15:
                    k += 16
                    continue
                state["eobrun"] = (1 << r) - 1
                if r:
                    state["eobrun"] += reader.read_bits(r)
                return
            k += r
            if k > se:
                raise ValueError("AC run overflow in progressive scan")
            coef[k] = _extend(reader.read_bits(s), s) << al
            k += 1

    def ac_refine(reader, coef, ss, se, al, ac_t, state):
        # T.81 G.1.2.3 / libjpeg decode_mcu_AC_refine
        if state["eobrun"] > 0:
            state["eobrun"] -= 1
            refine_nonzero(reader, coef, ss, se, al)
            return
        k = ss
        while k <= se:
            rs = reader.decode_symbol(ac_t)
            r, s = rs >> 4, rs & 0x0F
            newval = 0
            if s == 0:
                if r < 15:
                    state["eobrun"] = (1 << r) - 1
                    if r:
                        state["eobrun"] += reader.read_bits(r)
                    break  # rest of band gets correction bits below
                # r == 15: skip 16 zero-history coefficients
            else:
                if s != 1:
                    raise ValueError("refinement magnitude must be 1")
                newval = (1 << al) if reader.read_bit() else -(1 << al)
            # advance past r zero-history coefficients, refining
            # nonzero-history ones along the way (they don't count)
            while k <= se:
                if coef[k]:
                    if reader.read_bit():
                        if coef[k] > 0 and not (coef[k] & (1 << al)):
                            coef[k] += 1 << al
                        elif coef[k] < 0 and not (-coef[k] & (1 << al)):
                            coef[k] -= 1 << al
                else:
                    if r == 0:
                        if newval:
                            coef[k] = newval
                        k += 1
                        break
                    r -= 1
                k += 1
        refine_nonzero(reader, coef, k, se, al)

    dummy = np.zeros(64, dtype=np.int64)  # non-luma block sink
    while True:
        # `body`/`seglen` hold the current SOS header; decode its scan
        ns = body[0]
        scan_comps = []
        for c in range(ns):
            cs, tdta = body[1 + 2 * c], body[2 + 2 * c]
            scan_comps.append((cs, tdta >> 4, tdta & 0x0F))
        ss, se, ahal = body[1 + 2 * ns:4 + 2 * ns]
        ah, al = ahal >> 4, ahal & 0x0F
        if (ss == 0) != (se == 0) or se > 63 or ss > se:
            raise ValueError(
                f"invalid progressive spectral range Ss={ss} Se={se} "
                "(DC scans need Se=0; AC bands live in 1..63)"
            )
        data_pos = pos + seglen
        luma_in_scan = any(cs == luma["id"] for cs, _, _ in scan_comps)
        if ss > 0 and not luma_in_scan:
            pos = skip_to_marker(data_pos)  # chroma AC: not needed
        else:
            reader = _BitReader(payload, data_pos)
            state = {"eobrun": 0}
            pred = {cs: 0 for cs, _, _ in scan_comps}

            def block(cs, td, ta, byy, bxx):
                is_luma = cs == luma["id"]
                coef = coefs[byy, bxx] if is_luma else dummy
                if ss == 0:
                    if ah == 0:
                        t = reader.decode_symbol(htables[(0, td)])
                        diff = _extend(reader.read_bits(t), t)
                        pred[cs] += diff
                        if is_luma:
                            coef[0] = pred[cs] << al
                    else:
                        bit = reader.read_bit()
                        if is_luma and bit:
                            coef[0] |= 1 << al
                else:
                    if ah == 0:
                        ac_initial(reader, coef, ss, se, al,
                                   htables[(1, ta)], state)
                    else:
                        ac_refine(reader, coef, ss, se, al,
                                  htables[(1, ta)], state)

            def resync():
                reader.resync()
                state["eobrun"] = 0
                for cs in pred:
                    pred[cs] = 0

            mcu_count = 0
            try:
                if ns > 1:  # interleaved (DC scans)
                    for my in range(mcuy):
                        for mx in range(mcux):
                            if restart_interval and mcu_count and \
                                    mcu_count % restart_interval == 0:
                                resync()
                            for cs, td, ta in scan_comps:
                                comp = by_id[cs]
                                for by in range(comp["v"]):
                                    for bx in range(comp["h"]):
                                        block(cs, td, ta,
                                              my * comp["v"] + by,
                                              mx * comp["h"] + bx)
                            mcu_count += 1
                else:
                    cs, td, ta = scan_comps[0]
                    nby, nbx = nreal[cs]
                    for byy in range(nby):
                        for bxx in range(nbx):
                            if restart_interval and mcu_count and \
                                    mcu_count % restart_interval == 0:
                                resync()
                            block(cs, td, ta, byy, bxx)
                            mcu_count += 1
            except _RestartMarker:
                raise ValueError("unexpected restart marker mid-block")
            pos = skip_to_marker(reader.pos)

        # next marker: more scans (with table updates) or EOI
        while True:
            if pos + 2 > len(payload):
                raise ValueError("JPEG truncated before EOI")
            marker = payload[pos + 1]
            pos += 2
            if marker == 0xD9:  # EOI — reconstruct
                qy = qtables[luma["tq"]]
                nby, nbx = nreal[luma["id"]]
                out = np.zeros((nby * 8, nbx * 8), dtype=np.float64)
                for byy in range(nby):
                    for bxx in range(nbx):
                        blk = np.zeros(64, dtype=np.int64)
                        blk[ZIGZAG] = coefs[byy, bxx] * qy
                        out[byy * 8:byy * 8 + 8, bxx * 8:bxx * 8 + 8] = \
                            _idct2(blk.reshape(8, 8)) + 128.0
                return np.clip(np.round(out), 0, 255).astype(np.uint8)[
                    : frame["h"], : frame["w"]
                ]
            seglen, body = _segment(payload, pos)
            if marker == 0xC4:  # DHT between scans
                i = 0
                while i < len(body):
                    tc, th = body[i] >> 4, body[i] & 0x0F
                    bits = list(body[i + 1:i + 17])
                    n = sum(bits)
                    htables[(tc, th)] = _HuffTable(
                        bits, body[i + 17:i + 17 + n])
                    i += 17 + n
                pos += seglen
            elif marker == 0xDD:
                (restart_interval,) = struct.unpack(">H", body[:2])
                pos += seglen
            elif marker == 0xDA:
                break  # decode this scan (body/seglen/pos are set)
            else:  # APPn/COM/other: skip
                pos += seglen
