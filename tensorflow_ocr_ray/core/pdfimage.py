"""Pure-Python PDF scanned-image extraction (reference S11 ingest).

The reference rasterizes PDFs OUTSIDE the engine with Ghostscript
(``main/Makefile:80-93``, ``main/nybc2tiff.pl:1-31``) — but its actual
inputs are scanned books, and scanned-book PDFs are thin containers
around one per-page image XObject (CCITT G4 fax, DCT/JPEG, or
Flate-compressed gray).  This module parses the PDF object graph and
decodes those page images with the repo's own spec codecs
(``core/ccitt.decode_g4``, ``core/jpeg.decode_jpeg_gray``, stdlib
``zlib``, ``core/tiff_lzw.lzw_decode``), so the S11 path runs with no
external tool.  Vector-content PDFs (no raster page image) still need
the Ghostscript seam in ``sources/pdf.py``.

Scope (documented, spec-cited — PDF 32000-1:2008):
- cross-reference: classic ``xref`` tables, xref STREAMS (§7.5.8,
  W-packed + PNG predictor), ``/Prev`` chains, hybrid ``/XRefStm``;
  a whole-file ``N G obj`` scan is the fallback for broken xref.
- compressed objects (``/Type /ObjStm``, §7.5.7) — image streams are
  always top-level (object streams may not contain streams), but page
  and catalog DICTS often live here.
- stream filters (§7.4): FlateDecode, LZWDecode (EarlyChange=1, the
  default — identical to TIFF LZW), RunLengthDecode, ASCIIHexDecode,
  ASCII85Decode, with PNG/TIFF predictors; image codecs DCTDecode
  (baseline JPEG → luma) and CCITTFaxDecode (K<0 = pure G4).
  JPXDecode/JBIG2Decode and G3 (K>=0) raise ``ValueError``.
- sample images (§8.9.5): DeviceGray/CalGray 1/2/4/8/16-bit,
  DeviceRGB/CalRGB 8-bit (ITU-601 integer luma, same constants as
  ``core/png.py``), Indexed palettes, ICCBased by /N, /ImageMask,
  ``/Decode`` min-max inversion.
- inline images (§8.9.7): ``BI … ID … EI`` in page content streams,
  abbreviated keys/filters/colorspaces expanded; false ``EI`` bytes
  inside filtered payloads rejected by decode-and-completeness
  validation.

Per page the LARGEST image XObject by pixel count is taken as "the
scan" (thumbnails and logos are smaller); pages with no raster image
are skipped — callers that need vector content fall back to the
Ghostscript seam.
"""

from __future__ import annotations

import re
import zlib

import numpy as np


class _Ref:
    __slots__ = ("num", "gen")

    def __init__(self, num: int, gen: int):
        self.num, self.gen = num, gen

    def __repr__(self):  # pragma: no cover - debug aid
        return f"{self.num} {self.gen} R"


class _Stream:
    __slots__ = ("dict", "raw")

    def __init__(self, d: dict, raw: bytes):
        self.dict, self.raw = d, raw


class _Name(str):
    """PDF name (distinguished from literal strings)."""


_WS = b"\x00\t\n\x0c\r "
_DELIM = b"()<>[]{}/%"


class _Parser:
    """Recursive-descent parser over raw PDF bytes (§7.3 objects)."""

    def __init__(self, data: bytes, pos: int = 0):
        self.data, self.pos = data, pos

    def skip_ws(self) -> None:
        d, n = self.data, len(self.data)
        while self.pos < n:
            c = d[self.pos]
            if c in _WS:
                self.pos += 1
            elif c == 0x25:  # % comment to EOL
                while self.pos < n and d[self.pos] not in b"\r\n":
                    self.pos += 1
            else:
                return

    def _token_ahead(self, tok: bytes) -> bool:
        return self.data[self.pos:self.pos + len(tok)] == tok

    def parse(self):
        self.skip_ws()
        d = self.data
        c = d[self.pos:self.pos + 1]
        if c == b"<":
            if d[self.pos + 1:self.pos + 2] == b"<":
                return self._dict()
            return self._hex_string()
        if c == b"[":
            return self._array()
        if c == b"/":
            return self._name()
        if c == b"(":
            return self._lit_string()
        if self._token_ahead(b"true"):
            self.pos += 4
            return True
        if self._token_ahead(b"false"):
            self.pos += 5
            return False
        if self._token_ahead(b"null"):
            self.pos += 4
            return None
        return self._number_or_ref()

    def _name(self) -> _Name:
        self.pos += 1  # '/'
        d, n = self.data, len(self.data)
        out = bytearray()
        while self.pos < n:
            c = d[self.pos]
            if c in _WS or c in _DELIM:
                break
            if c == 0x23 and self.pos + 2 < n:  # #xx escape
                out.append(int(d[self.pos + 1:self.pos + 3], 16))
                self.pos += 3
            else:
                out.append(c)
                self.pos += 1
        return _Name(out.decode("latin-1"))

    def _number_or_ref(self):
        d, n = self.data, len(self.data)
        start = self.pos
        while self.pos < n and d[self.pos] in b"+-.0123456789":
            self.pos += 1
        tok = d[start:self.pos]
        if not tok:
            raise ValueError(f"pdf parse error at byte {start}")
        if b"." in tok:
            return float(tok)
        num = int(tok)
        # lookahead for "gen R"
        save = self.pos
        self.skip_ws()
        start2 = self.pos
        while self.pos < n and d[self.pos] in b"0123456789":
            self.pos += 1
        tok2 = d[start2:self.pos]
        if tok2:
            self.skip_ws()
            if (d[self.pos:self.pos + 1] == b"R"
                    and (self.pos + 1 >= n
                         or d[self.pos + 1] in _WS
                         or d[self.pos + 1] in _DELIM)):
                self.pos += 1
                return _Ref(num, int(tok2))
        self.pos = save
        return num

    def _array(self) -> list:
        self.pos += 1
        out = []
        while True:
            self.skip_ws()
            if self.data[self.pos:self.pos + 1] == b"]":
                self.pos += 1
                return out
            out.append(self.parse())

    def _dict(self) -> dict:
        self.pos += 2
        out = {}
        while True:
            self.skip_ws()
            if self.data[self.pos:self.pos + 2] == b">>":
                self.pos += 2
                return out
            key = self._name()
            out[str(key)] = self.parse()

    def _hex_string(self) -> bytes:
        self.pos += 1
        end = self.data.index(b">", self.pos)
        hx = re.sub(rb"\s", b"", self.data[self.pos:end])
        self.pos = end + 1
        if len(hx) % 2:
            hx += b"0"
        return bytes.fromhex(hx.decode("ascii"))

    def _lit_string(self) -> bytes:
        self.pos += 1
        d, n = self.data, len(self.data)
        out = bytearray()
        depth = 1
        while self.pos < n:
            c = d[self.pos]
            if c == 0x5C:  # backslash
                self.pos += 1
                if self.pos >= n:
                    break
                e = d[self.pos]
                esc = {0x6E: 10, 0x72: 13, 0x74: 9, 0x62: 8, 0x66: 12,
                       0x28: 0x28, 0x29: 0x29, 0x5C: 0x5C}
                if e in esc:
                    out.append(esc[e])
                    self.pos += 1
                elif 0x30 <= e <= 0x37:  # octal, up to 3 digits
                    oct_s = bytearray()
                    while (len(oct_s) < 3 and self.pos < n
                           and 0x30 <= d[self.pos] <= 0x37):
                        oct_s.append(d[self.pos])
                        self.pos += 1
                    out.append(int(oct_s, 8) & 0xFF)
                elif e in b"\r\n":  # line continuation
                    self.pos += 1
                    if e == 0x0D and d[self.pos:self.pos + 1] == b"\n":
                        self.pos += 1
                else:
                    out.append(e)
                    self.pos += 1
            elif c == 0x28:
                depth += 1
                out.append(c)
                self.pos += 1
            elif c == 0x29:
                depth -= 1
                if depth == 0:
                    self.pos += 1
                    return bytes(out)
                out.append(c)
                self.pos += 1
            else:
                out.append(c)
                self.pos += 1
        raise ValueError("unterminated PDF string")


# abbreviated inline-image keys and color spaces (§8.9.7, Tables 93-94)
_ABBREV_KEYS = {"W": "Width", "H": "Height", "BPC": "BitsPerComponent",
                "CS": "ColorSpace", "F": "Filter", "DP": "DecodeParms",
                "IM": "ImageMask", "D": "Decode", "L": "Length",
                "I": "Interpolate"}
_ABBREV_CS = {"G": "DeviceGray", "RGB": "DeviceRGB", "CMYK": "DeviceCMYK",
              "I": "Indexed"}


def _inline_dict(data: bytes, pos: int) -> tuple[dict, int]:
    """The dictionary of the inline image whose ``BI`` keyword ends at
    ``pos``, with abbreviated keys and color spaces expanded, and the
    offset of its first data byte (one whitespace byte after ``ID``)."""
    p = _Parser(data, pos)
    d: dict = {}
    while True:
        p.skip_ws()
        if data[p.pos:p.pos + 2] == b"ID":
            break
        key = str(p._name())
        d[_ABBREV_KEYS.get(key, key)] = p.parse()
    cs = d.get("ColorSpace")
    if isinstance(cs, _Name) and str(cs) in _ABBREV_CS:
        d["ColorSpace"] = _Name(_ABBREV_CS[str(cs)])
    return d, p.pos + 3


# ---------------------------------------------------------------------------
# content streams (§8.2): one interpreter for the layout parse and the
# rasterizer

_OBJ_START = b"/([<+-.0123456789"
_IDENT = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)


def _mul(m, n):
    """Affine product: apply ``m`` then ``n`` (row-vector convention,
    matching PDF's ``cm``/``Tm`` composition order)."""
    a1, b1, c1, d1, e1, f1 = m
    a2, b2, c2, d2, e2, f2 = n
    return (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2,
            c1 * a2 + d1 * c2, c1 * b2 + d1 * d2,
            e1 * a2 + f1 * c2 + e2, e1 * b2 + f1 * d2 + f2)


class _Interpreter:
    """The content-stream interpreter shared by ``pdftext`` (layout
    parse) and ``pdfvector`` (rasterizer): the operand/operator loop,
    ``q``/``Q``, ``cm``, and the text-state, text-positioning and
    text-showing operators from ``BT`` through ``"`` (§9.3-9.4).  A
    subclass supplies its own parts:

    - ``_load_font(name)``: the font ``Tf`` selects;
    - ``_show(string)``: one shown string, which moves the text matrix
      through ``_advance`` glyph by glyph;
    - ``_inline_image(data, pos)``: one ``BI … ID … EI`` image starting
      after ``BI``, returning the offset after it;
    - ``_paint(op, operands)``: every other operator (ignored here);
    - ``_SAVED``: the attributes ``q`` saves and ``Q`` restores.

    An operator given fewer operands than it reads raises
    ``ValueError``."""

    _SAVED: tuple[str, ...] = ("ctm",)

    def __init__(self, pdf: "PdfFile", resources: dict, ctm=_IDENT):
        self.pdf = pdf
        self.res = resources or {}
        self.ctm = ctm
        self.tm = self.tlm = _IDENT
        self.font = None
        self.tfs = 0.0
        self.th = 1.0
        self.tc = self.tw = self.tl = self.rise = 0.0
        self.tmode = 0

    def run(self, content: bytes) -> None:
        data = content
        n = len(data)
        p = _Parser(data, 0)
        st: list = []
        gstack: list[tuple] = []
        while True:
            p.skip_ws()
            if p.pos >= n:
                return
            c = data[p.pos:p.pos + 1]
            if c == b"%":
                eol = data.find(b"\n", p.pos)
                p.pos = n if eol < 0 else eol + 1
                continue
            if c in _OBJ_START:
                st.append(p.parse())
                continue
            # operator keyword
            start = p.pos
            while (p.pos < n and data[p.pos] not in _WS
                   and data[p.pos] not in _DELIM):
                p.pos += 1
            if p.pos == start:     # stray delimiter: skip (malformed)
                p.pos += 1
                continue
            op = data[start:p.pos].decode("latin-1")
            if op == "BI":
                p.pos = self._inline_image(data, p.pos)
            elif op == "q":
                gstack.append(tuple(getattr(self, a) for a in self._SAVED))
            elif op == "Q":
                if gstack:
                    for a, v in zip(self._SAVED, gstack.pop()):
                        setattr(self, a, v)
            else:
                try:
                    self._exec(op, st)
                except IndexError:  # st[-k] past the operands given
                    raise ValueError(
                        f"PDF operator {op} short of operands") from None
            st = []

    def _exec(self, op: str, st: list) -> None:
        if op == "cm":
            self.ctm = _mul(tuple(float(v) for v in st[-6:]), self.ctm)
        elif op == "BT":
            self.tm = self.tlm = _IDENT
        elif op == "Tf":
            self.font = self._load_font(str(st[-2]))
            self.tfs = float(st[-1])
        elif op == "Td":
            self.tlm = _mul((1.0, 0.0, 0.0, 1.0,
                             float(st[-2]), float(st[-1])), self.tlm)
            self.tm = self.tlm
        elif op == "TD":
            self.tl = -float(st[-1])
            self.tlm = _mul((1.0, 0.0, 0.0, 1.0,
                             float(st[-2]), float(st[-1])), self.tlm)
            self.tm = self.tlm
        elif op == "Tm":
            self.tm = self.tlm = tuple(float(v) for v in st[-6:])
        elif op == "T*":
            self.tlm = _mul((1.0, 0.0, 0.0, 1.0, 0.0, -self.tl), self.tlm)
            self.tm = self.tlm
        elif op == "TL":
            self.tl = float(st[-1])
        elif op == "Tc":
            self.tc = float(st[-1])
        elif op == "Tw":
            self.tw = float(st[-1])
        elif op == "Tz":
            self.th = float(st[-1]) / 100.0
        elif op == "Ts":
            self.rise = float(st[-1])
        elif op == "Tr":
            self.tmode = int(st[-1])
        elif op == "Tj":
            self._show(st[-1])
        elif op == "TJ":
            for el in st[-1]:
                if isinstance(el, (bytes, bytearray)):
                    self._show(el)
                elif isinstance(el, (int, float)):
                    tx = -float(el) / 1000.0 * self.tfs * self.th
                    self.tm = _mul((1.0, 0.0, 0.0, 1.0, tx, 0.0), self.tm)
        elif op == "'":
            self._exec("T*", [])
            self._show(st[-1])
        elif op == '"':
            self.tw = float(st[-3])
            self.tc = float(st[-2])
            self._exec("T*", [])
            self._show(st[-1])
        else:
            self._paint(op, st)

    def _paint(self, op: str, st: list) -> None:
        """Every operator the shared loop does not handle: ignored
        unless a subclass paints it."""

    def _trm(self):
        """The text rendering matrix of the next glyph (§9.4.4)."""
        return _mul(_mul((self.tfs * self.th, 0.0, 0.0, self.tfs,
                          0.0, self.rise), self.tm), self.ctm)

    def _advance(self, code: int, w0: float) -> None:
        """Move the text matrix past one glyph of ``code`` whose width
        through the FontMatrix is ``w0`` text-space units per unit of
        font size."""
        tx = (w0 * self.tfs + self.tc
              + (self.tw if code == 32 else 0.0)) * self.th
        self.tm = _mul((1.0, 0.0, 0.0, 1.0, tx, 0.0), self.tm)


# ---------------------------------------------------------------------------
# filters


def _rle_decode(data: bytes) -> bytes:
    """RunLengthDecode (§7.4.5) — the PackBits byte scheme."""
    out = bytearray()
    i, n = 0, len(data)
    while i < n:
        l = data[i]
        i += 1
        if l == 128:
            break
        if l < 128:
            out += data[i:i + l + 1]
            i += l + 1
        else:
            out += data[i:i + 1] * (257 - l)
            i += 1
    return bytes(out)


def _a85_decode(data: bytes) -> bytes:
    import base64

    body = re.sub(rb"\s", b"", data)
    if body.endswith(b"~>"):
        body = body[:-2]
    if body.startswith(b"<~"):
        body = body[2:]
    return base64.a85decode(b"<~" + body + b"~>", adobe=True)


def _apply_predictor(data: bytes, parms: dict) -> bytes:
    """Flate/LZW /Predictor post-pass (§7.4.4.4): 1 = none, 2 = TIFF
    horizontal differencing, >=10 = the PNG per-row filter set (shared
    implementation with ``core/png.py``)."""
    pred = int(parms.get("Predictor", 1) or 1)
    if pred <= 1:
        return data
    colors = int(parms.get("Colors", 1) or 1)
    bpc = int(parms.get("BitsPerComponent", 8) or 8)
    columns = int(parms.get("Columns", 1) or 1)
    bpp = max(1, (colors * bpc + 7) // 8)
    stride = (colors * bpc * columns + 7) // 8
    if pred == 2:
        if bpc != 8:
            raise ValueError("TIFF predictor requires 8-bit components")
        rows = len(data) // stride
        a = np.frombuffer(data[:rows * stride], dtype=np.uint8).reshape(
            rows, columns, colors).copy()
        np.cumsum(a, axis=1, dtype=np.uint8, out=a)
        return a.tobytes()
    from tensorflow_ocr_ray.core.png import _defilter

    rows = len(data) // (stride + 1)
    return _defilter(data[:rows * (stride + 1)], rows, stride, bpp).tobytes()


_IMAGE_FILTERS = {"DCTDecode", "CCITTFaxDecode", "JPXDecode", "JBIG2Decode",
                  "DCT", "CCF"}
_FILTER_ABBREV = {"Fl": "FlateDecode", "LZW": "LZWDecode",
                  "RL": "RunLengthDecode", "AHx": "ASCIIHexDecode",
                  "A85": "ASCII85Decode", "DCT": "DCTDecode",
                  "CCF": "CCITTFaxDecode"}


def _decode_stream(sdict: dict, raw: bytes, resolve):
    """Apply the non-image filter chain; return (data, image_filter,
    image_parms) where image_filter is the trailing DCT/CCITT codec (or
    None for fully-decoded sample data)."""
    filters = resolve(sdict.get("Filter"))
    parms = resolve(sdict.get("DecodeParms", sdict.get("DP")))
    if filters is None:
        filters = []
    elif not isinstance(filters, list):
        filters = [filters]
    if parms is None:
        parms = [None] * len(filters)
    elif not isinstance(parms, list):
        parms = [parms]
    parms += [None] * (len(filters) - len(parms))
    data = raw
    for i, f in enumerate(filters):
        f = _FILTER_ABBREV.get(str(f), str(f))
        p = resolve(parms[i]) or {}
        p = {k: resolve(v) for k, v in p.items()}
        if f in _IMAGE_FILTERS:
            if i != len(filters) - 1:
                raise ValueError(f"image filter {f} not last in chain")
            return data, f, p
        if f == "FlateDecode":
            data = _apply_predictor(
                zlib.decompressobj().decompress(data), p)
        elif f == "LZWDecode":
            from tensorflow_ocr_ray.core.tiff_lzw import lzw_decode

            early = p.get("EarlyChange", 1)
            early = 1 if early is None else int(early)
            data = _apply_predictor(lzw_decode(data, early=early), p)
        elif f == "RunLengthDecode":
            data = _rle_decode(data)
        elif f == "ASCIIHexDecode":
            end = data.find(b">")
            hx = re.sub(rb"\s", b"", data[:end if end >= 0 else len(data)])
            if len(hx) % 2:
                hx += b"0"
            data = bytes.fromhex(hx.decode("ascii"))
        elif f == "ASCII85Decode":
            data = _a85_decode(data)
        elif f == "Crypt":
            raise ValueError("encrypted PDF streams unsupported")
        else:
            raise ValueError(f"unsupported PDF filter {f}")
    return data, None, {}


# ---------------------------------------------------------------------------
# file model


_OBJ_RE = re.compile(rb"(\d+)[\x00\t\n\x0c\r ]+(\d+)[\x00\t\n\x0c\r ]+obj\b")


class PdfFile:
    """Parsed PDF: object map (xref-driven with scan fallback), lazy
    object loading, page tree walk, page-image decode."""

    def __init__(self, data: bytes):
        if not data.startswith(b"%PDF"):
            raise ValueError("not a PDF payload (no %PDF header)")
        self.data = data
        self._cache: dict[int, object] = {}
        self._objstm_cache: dict[int, dict[int, object]] = {}
        try:
            self._offsets, self.trailer = self._load_xref()
            if not self._offsets:
                raise ValueError("empty xref")
        except Exception:
            self._offsets, self.trailer = self._scan_objects()

    # -- xref ---------------------------------------------------------------

    def _load_xref(self):
        d = self.data
        tail = d[-2048:]
        m = None
        for m in re.finditer(rb"startxref\s+(\d+)", tail):
            pass
        if m is None:
            raise ValueError("no startxref")
        offsets: dict[int, tuple] = {}
        trailer: dict = {}
        seen = set()
        queue = [int(m.group(1))]
        while queue:
            off = queue.pop(0)
            if off in seen or off <= 0 or off >= len(d):
                continue
            seen.add(off)
            p = _Parser(d, off)
            p.skip_ws()
            if d[p.pos:p.pos + 4] == b"xref":
                t = self._classic_xref(p.pos + 4, offsets)
            else:
                t = self._stream_xref(p.pos, offsets)
            for k, v in t.items():
                trailer.setdefault(k, v)
            for key in ("XRefStm", "Prev"):
                v = t.get(key)
                if isinstance(v, (int, float)):
                    queue.append(int(v))
        return offsets, trailer

    def _classic_xref(self, pos: int, offsets: dict) -> dict:
        d = self.data
        p = _Parser(d, pos)
        while True:
            p.skip_ws()
            if d[p.pos:p.pos + 7] == b"trailer":
                p.pos += 7
                return p.parse()
            start = p.parse()
            count = p.parse()
            if not isinstance(start, int) or not isinstance(count, int):
                raise ValueError("bad xref section header")
            p.skip_ws()
            for i in range(count):
                ent = d[p.pos:p.pos + 20]
                off = int(ent[0:10])
                kind = ent[17:18]
                num = start + i
                if kind == b"n" and num not in offsets:
                    offsets[num] = ("f", off)
                p.pos += 20
                # tolerate 19-byte (LF-only) entry lines
                if d[p.pos - 1:p.pos] not in (b"\r", b"\n", b" "):
                    p.pos -= 1

    def _stream_xref(self, pos: int, offsets: dict) -> dict:
        obj = self._parse_obj_at(pos, resolve_len=False)
        if not isinstance(obj, _Stream) or str(
                obj.dict.get("Type")) != "XRef":
            raise ValueError("startxref does not point at xref data")
        data, imgf, _ = _decode_stream(obj.dict, obj.raw, lambda v: v)
        if imgf:
            raise ValueError("image filter on xref stream")
        w = [int(x) for x in obj.dict["W"]]
        size = int(obj.dict["Size"])
        index = obj.dict.get("Index", [0, size])
        rw = sum(w)
        rows = len(data) // rw
        fields = np.zeros((rows, 3), dtype=np.int64)
        a = np.frombuffer(data[:rows * rw], dtype=np.uint8).reshape(rows, rw)
        col = 0
        for fi, width in enumerate(w):
            v = np.zeros(rows, dtype=np.int64)
            for b in range(width):
                v = (v << 8) | a[:, col + b]
            fields[:, fi] = v if width else (1 if fi == 0 else 0)
            col += width
        if w[0] == 0:
            fields[:, 0] = 1
        r = 0
        for i in range(0, len(index), 2):
            start, count = int(index[i]), int(index[i + 1])
            for j in range(count):
                if r >= rows:
                    break
                typ, f2, f3 = fields[r]
                num = start + j
                r += 1
                if num in offsets:
                    continue
                if typ == 1:
                    offsets[num] = ("f", int(f2))
                elif typ == 2:
                    offsets[num] = ("s", int(f2), int(f3))
        return obj.dict

    def _scan_objects(self):
        """Fallback: whole-file ``N G obj`` scan, skipping stream bodies
        (their payloads can contain byte runs that look like headers).
        Later duplicates win — that is incremental-update order."""
        d = self.data
        offsets: dict[int, tuple] = {}
        pos = 0
        while True:
            m = _OBJ_RE.search(d, pos)
            if m is None:
                break
            num = int(m.group(1))
            offsets[num] = ("f", m.start())
            try:
                self._parse_obj_at(m.start(), resolve_len=False)
                end = self._obj_end
            except Exception:
                end = m.end()
            pos = max(end, m.end())
        self._offsets = offsets  # _load below needs the map in place
        trailer = {}
        tm = None
        for tm in re.finditer(rb"trailer", d):
            pass
        if tm is not None:
            try:
                trailer = _Parser(d, tm.end()).parse()
            except Exception:
                trailer = {}
        if not isinstance(trailer, dict):
            trailer = {}
        if "Root" not in trailer:
            for num in offsets:
                try:
                    o = self._load(num)
                except Exception:
                    continue
                if isinstance(o, dict) and str(o.get("Type")) == "Catalog":
                    trailer["Root"] = _Ref(num, 0)
                    break
        return offsets, trailer

    # -- objects ------------------------------------------------------------

    def _parse_obj_at(self, pos: int, resolve_len: bool = True):
        p = _Parser(self.data, pos)
        p.skip_ws()
        m = _OBJ_RE.match(self.data, p.pos)
        if m is None:
            raise ValueError(f"no object header at byte {pos}")
        p.pos = m.end()
        val = p.parse()
        p.skip_ws()
        self._obj_end = p.pos
        if self.data[p.pos:p.pos + 6] != b"stream":
            return val
        p.pos += 6
        if self.data[p.pos:p.pos + 2] == b"\r\n":
            p.pos += 2
        elif self.data[p.pos:p.pos + 1] in (b"\n", b"\r"):
            p.pos += 1
        length = val.get("Length")
        if isinstance(length, _Ref) and resolve_len:
            try:
                length = self.resolve(length)
            except Exception:
                length = None
        start = p.pos
        if isinstance(length, (int, float)):
            end = start + int(length)
            probe = self.data[end:end + 20]
            if b"endstream" not in probe:
                length = None
        if not isinstance(length, (int, float)):
            end = self.data.index(b"endstream", start)
            while end > start and self.data[end - 1] in b"\r\n":
                end -= 1
        else:
            end = start + int(length)
        self._obj_end = self.data.index(b"endstream", end) + 9
        return _Stream(val, self.data[start:end])

    def _load(self, num: int):
        if num in self._cache:
            return self._cache[num]
        ent = self._offsets.get(num)
        if ent is None:
            raise ValueError(f"object {num} not in xref")
        if ent[0] == "f":
            val = self._parse_obj_at(ent[1])
        else:
            val = self._from_objstm(ent[1], num)
        self._cache[num] = val
        return val

    def _from_objstm(self, stm_num: int, want: int):
        if stm_num not in self._objstm_cache:
            stm = self._load(stm_num)
            if not isinstance(stm, _Stream):
                raise ValueError(f"object stream {stm_num} is not a stream")
            data, imgf, _ = _decode_stream(stm.dict, stm.raw, self.resolve)
            if imgf:
                raise ValueError("image filter on object stream")
            n = int(self.resolve(stm.dict["N"]))
            first = int(self.resolve(stm.dict["First"]))
            hdr = data[:first].split()
            objs = {}
            for i in range(n):
                onum = int(hdr[2 * i])
                ooff = int(hdr[2 * i + 1])
                objs[onum] = _Parser(data, first + ooff).parse()
            self._objstm_cache[stm_num] = objs
        if want not in self._objstm_cache[stm_num]:
            raise ValueError(f"object {want} not in object stream {stm_num}")
        return self._objstm_cache[stm_num][want]

    def resolve(self, v):
        seen = 0
        while isinstance(v, _Ref):
            v = self._load(v.num)
            seen += 1
            if seen > 32:
                raise ValueError("reference cycle")
        return v

    # -- pages --------------------------------------------------------------

    def pages(self) -> list[tuple[dict, dict]]:
        """Ordered (page_dict, resources) pairs via the /Root → /Pages
        tree (inheriting /Resources, §7.7.3.4); falls back to /Type/Page
        objects in object-number order."""
        out: list[tuple[dict, dict]] = []
        try:
            root = self.resolve(self.trailer["Root"])
            visited: set[int] = set()

            def walk(node_ref, inherited_res):
                if isinstance(node_ref, _Ref):
                    if node_ref.num in visited:
                        return
                    visited.add(node_ref.num)
                node = self.resolve(node_ref)
                if not isinstance(node, dict):
                    return
                res = node.get("Resources", inherited_res)
                kids = node.get("Kids")
                if str(node.get("Type")) == "Page" or (
                        kids is None and "Contents" in node):
                    out.append((node, self.resolve(res) or {}))
                    return
                for kid in self.resolve(kids) or []:
                    walk(kid, res)

            walk(root.get("Pages"), None)
        except Exception:
            out = []
        if not out:
            for num in sorted(self._offsets):
                try:
                    o = self._load(num)
                except Exception:
                    continue
                if isinstance(o, dict) and str(o.get("Type")) == "Page":
                    out.append((o, self.resolve(o.get("Resources")) or {}))
        return out

    def page_gray_images(self) -> list[np.ndarray]:
        """One uint8 gray array per page that carries a raster image
        (largest image XObject or BI/ID/EI inline image per page = the
        scan); vector-only pages are skipped.  Final fallback when no
        page tree resolves: every image XObject in the file, in
        object-number order."""
        out = []
        for page, res in self.pages():
            xo = self.resolve(res.get("XObject")) or {}
            best = None
            candidates = []
            for ref in xo.values():
                try:
                    o = self.resolve(ref)
                except Exception:
                    continue
                if isinstance(o, _Stream) and str(
                        o.dict.get("Subtype")) == "Image":
                    candidates.append(o)
            candidates.extend(self._inline_images(page))
            for o in candidates:
                px = int(self.resolve(o.dict.get("Width", 0))) * int(
                    self.resolve(o.dict.get("Height", 0)))
                if best is None or px > best[0]:
                    best = (px, o)
            if best is not None:
                out.append(self._image_gray(best[1]))
        if out:
            return out
        for num in sorted(self._offsets):
            try:
                o = self._load(num)
            except Exception:
                continue
            if isinstance(o, _Stream) and str(
                    o.dict.get("Subtype")) == "Image":
                out.append(self._image_gray(o))
        return out

    # -- inline images (BI … ID … EI, §8.9.7) -------------------------------

    def _page_content(self, page: dict) -> bytes:
        contents = self.resolve(page.get("Contents"))
        if contents is None:
            return b""
        streams = contents if isinstance(contents, list) else [contents]
        parts = []
        for s in streams:
            s = self.resolve(s)
            if not isinstance(s, _Stream):
                continue
            try:
                data, imgf, _ = _decode_stream(s.dict, s.raw, self.resolve)
                if imgf is None:
                    parts.append(data)
            except Exception:
                continue
        return b"\n".join(parts)

    def _inline_images(self, page: dict) -> list[_Stream]:
        """BI/ID/EI images in the page's content stream(s), as synthetic
        ``_Stream`` objects with abbreviated keys expanded, so
        ``_image_gray`` handles them identically to XObjects."""
        content = self._page_content(page)
        out: list[_Stream] = []
        pos = 0
        while True:
            m = re.search(rb"(?:^|[\x00\t\n\x0c\r ])BI"
                          rb"(?=[\x00\t\n\x0c\r /])", content[pos:])
            if m is None:
                return out
            try:
                d, start = _inline_dict(content, pos + m.end())
            except Exception:
                pos += m.end()
                continue
            data, end = self._inline_payload(content, start, d)
            if data is not None:
                out.append(_Stream(d, data))
                pos = end
            else:
                pos = start

    def _inline_payload(self, content: bytes, start: int, d: dict):
        """Extract the binary payload: exact length for unfiltered data,
        EI-scan with decode-validation for filtered data (the payload
        may contain the bytes 'EI')."""
        filters = d.get("Filter")
        if not filters:
            try:
                w, h = int(d["Width"]), int(d["Height"])
                ncomp = 1 if d.get("ImageMask") else self._ncomp(
                    self.resolve(d.get("ColorSpace", _Name("DeviceGray"))))
                bpc = 1 if d.get("ImageMask") else int(
                    d.get("BitsPerComponent", 8))
                n = ((w * ncomp * bpc + 7) // 8) * h
            except Exception:
                return None, start
            data = content[start:start + n]
            m = re.search(rb"[\x00\t\n\x0c\r ]*EI(?=[\x00\t\n\x0c\r /\[\]<>(]|$)",
                          content[start + n:])
            end = start + n + (m.end() if m else 0)
            return data, end
        for m in re.finditer(
                rb"[\x00\t\n\x0c\r ]EI(?=[\x00\t\n\x0c\r /\[\]<>(]|$)",
                content[start:]):
            data = content[start:start + m.start()]
            try:
                payload, imgf, _p = _decode_stream(d, data, self.resolve)
                if imgf is None:
                    # sample data: a FALSE terminator truncates the
                    # payload, and the tolerant RLE/byte decoders would
                    # zero-pad it — require the full sample count
                    w, h = int(d["Width"]), int(d["Height"])
                    ncomp = 1 if d.get("ImageMask") else self._ncomp(
                        self.resolve(
                            d.get("ColorSpace", _Name("DeviceGray"))))
                    bpc = 1 if d.get("ImageMask") else int(
                        d.get("BitsPerComponent", 8))
                    if len(payload) < ((w * ncomp * bpc + 7) // 8) * h:
                        continue
                else:
                    self._image_gray(_Stream(d, data))
            except Exception:
                continue
            return data, start + m.end()
        return None, start

    # -- image decode -------------------------------------------------------

    def _image_gray(self, xobj: _Stream) -> np.ndarray:
        d = {k: self.resolve(v) if not isinstance(v, _Stream) else v
             for k, v in xobj.dict.items()}
        if "Width" not in d or "Height" not in d:
            raise ValueError("PDF image without /Width or /Height")
        w = int(d["Width"])
        h = int(d["Height"])
        data, imgf, parms = _decode_stream(xobj.dict, xobj.raw, self.resolve)
        decode_arr = d.get("Decode")
        inverted = (isinstance(decode_arr, list) and len(decode_arr) >= 2
                    and float(decode_arr[0]) > float(decode_arr[1]))
        if imgf == "DCTDecode":
            from tensorflow_ocr_ray.core.jpeg import decode_jpeg_gray

            img = decode_jpeg_gray(data)
            return (255 - img) if inverted else img
        if imgf == "CCITTFaxDecode":
            k = int(parms.get("K", 0) or 0)
            cols = int(parms.get("Columns", 1728) or 1728)
            rows = int(parms.get("Rows", h) or h)
            from tensorflow_ocr_ray.core.ccitt import decode_g3, decode_g4

            if k < 0:
                ink = decode_g4(data, cols, rows)[:h, :w]
            else:  # K=0: 1-D MH; K>0: EOL-framed mixed 1-D/2-D (T.4)
                ink = decode_g3(
                    data, cols, rows, two_d=k > 0,
                    byte_align=bool(parms.get("EncodedByteAlign")),
                )[:h, :w]
            gray = ((1 - ink) * np.uint8(255)).astype(np.uint8)
            return (255 - gray) if inverted else gray
        if imgf is not None:
            raise ValueError(f"unsupported PDF image codec {imgf}")
        return self._raw_samples_gray(d, data, w, h, inverted)

    def _raw_samples_gray(self, d: dict, data: bytes, w: int, h: int,
                          inverted: bool) -> np.ndarray:
        if d.get("ImageMask"):
            bits = self._unpack(data, w, h, 1, 1)[:, :, 0]
            # sample 1 = unpainted (white) under the default Decode [0 1]
            gray = (bits * np.uint8(255)).astype(np.uint8)
            return (255 - gray) if inverted else gray
        bpc = int(d.get("BitsPerComponent", 8))
        cs = d.get("ColorSpace", _Name("DeviceGray"))
        cs = self.resolve(cs)
        palette = None
        if isinstance(cs, list) and cs and str(cs[0]) == "Indexed":
            base = self.resolve(cs[1])
            lookup = self.resolve(cs[3])
            if isinstance(lookup, _Stream):
                lookup, imgf, _ = _decode_stream(
                    lookup.dict, lookup.raw, self.resolve)
            palette = np.frombuffer(bytes(lookup), dtype=np.uint8)
            ncomp_base = self._ncomp(base)
            samples = self._unpack(data, w, h, 1, bpc)[:, :, 0]
            idx = samples.astype(np.int64)
            pal = palette.reshape(-1, ncomp_base)
            np.clip(idx, 0, len(pal) - 1, out=idx)
            comps = pal[idx]  # (h, w, ncomp_base)
            gray = self._to_luma(comps, 8, ncomp_base)
            return (255 - gray) if inverted else gray
        ncomp = self._ncomp(cs)
        comps = self._unpack(data, w, h, ncomp, bpc)
        gray = self._to_luma(comps, bpc, ncomp)
        return (255 - gray) if inverted else gray

    def _ncomp(self, cs) -> int:
        if isinstance(cs, list) and cs:
            head = str(cs[0])
            if head == "ICCBased":
                stm = self.resolve(cs[1])
                return int(self.resolve(stm.dict.get("N", 1)))
            if head in ("CalGray", "Separation"):
                return 1
            if head == "CalRGB":
                return 3
            if head == "DeviceN":
                return len(self.resolve(cs[1]))
            raise ValueError(f"unsupported PDF colorspace {head}")
        name = str(cs)
        if name in ("DeviceGray", "CalGray", "G"):
            return 1
        if name in ("DeviceRGB", "CalRGB", "RGB"):
            return 3
        raise ValueError(f"unsupported PDF colorspace {name}")

    @staticmethod
    def _unpack(data: bytes, w: int, h: int, ncomp: int,
                bpc: int) -> np.ndarray:
        """Row-padded packed samples → (h, w, ncomp) uint8/uint16."""
        stride = (w * ncomp * bpc + 7) // 8
        need = stride * h
        if len(data) < need:
            data = data + b"\x00" * (need - len(data))
        rows = np.frombuffer(data[:need], dtype=np.uint8).reshape(h, stride)
        if bpc == 8:
            return rows[:, :w * ncomp].reshape(h, w, ncomp)
        if bpc == 16:
            # big-endian 16-bit samples: keep the high byte (8-bit approx)
            hi = rows[:, 0:w * ncomp * 2:2]
            return hi.reshape(h, w, ncomp)
        bits = np.unpackbits(rows, axis=1)
        npx = w * ncomp
        groups = bits[:, :npx * bpc].reshape(h, npx, bpc)
        weights = (1 << np.arange(bpc - 1, -1, -1)).astype(np.uint16)
        vals = (groups.astype(np.uint16) * weights).sum(axis=2)
        return vals.reshape(h, w, ncomp).astype(np.uint8)

    @staticmethod
    def _to_luma(comps: np.ndarray, bpc: int, ncomp: int) -> np.ndarray:
        maxv = (1 << min(bpc, 8)) - 1
        if ncomp == 1:
            a = comps[:, :, 0].astype(np.uint32)
            if maxv != 255:
                a = (a * 255) // maxv
            return a.astype(np.uint8)
        if ncomp == 3:
            from tensorflow_ocr_ray.core.png import _luma

            c = comps.astype(np.uint32)
            if maxv != 255:
                c = (c * 255) // maxv
            return _luma(c[:, :, 0], c[:, :, 1], c[:, :, 2])
        raise ValueError(f"unsupported component count {ncomp}")


def pdf_page_images(payload: bytes) -> list[np.ndarray]:
    """All scanned-page images of a PDF as uint8 gray arrays, page
    order.  Raises ``ValueError`` for non-PDF payloads; returns ``[]``
    for PDFs with no raster page images (vector content — use the
    Ghostscript seam)."""
    return PdfFile(payload).page_gray_images()
