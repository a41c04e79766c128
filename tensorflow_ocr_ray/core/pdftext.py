"""PDF LAYOUT PARSE — text extraction straight from content streams.

The extraction tier's third modality (north_rule: "HTML boilerplate
strip, PDF/layout parse, DOM heuristics"): when a media payload is a
*vector* PDF whose text is carried by font programs, the text does not
need to be rasterized and OCR'd at all — the content stream already
says WHAT characters sit WHERE.  This module recovers the text purely
from layout:

1. walk every page's content stream(s) through the content-stream
   interpreter the rasterizer uses (``pdfimage._Interpreter``: the
   operator loop, ``q Q cm`` and the text state machine ``BT ET Tf Td
   TD Tm T* TL Tc Tw Tz Ts Tr Tj TJ ' "``); this module supplies only
   the font lookup, the glyph recording and the inline-image skip;
2. for each shown glyph record its device-space box: origin from the
   ``Trm = [tfs*Th 0 0 tfs 0 rise] x Tm x CTM`` composition, ink width
   and height from the font (Type3 CharProc bitmap dims when present,
   ``/Widths`` advance otherwise), char identity from the encoding
   (``/Differences`` glyph names — ``gXXXX`` hex names, single-char
   names and the standard Latin list — else latin-1 code);
3. cluster glyphs into lines by baseline (a gap larger than half the
   median glyph height starts a new line), order lines top-to-bottom
   and glyphs left-to-right, and re-insert spaces with the reference's
   geometric rule — a horizontal gap wider than ``space_fraction`` x
   the page-average glyph width is a word break, ``max(1, gap//width
   - 1)`` spaces wide (``main/gtkDisplay.c:202-304``, the same formula
   the OCR assembly uses — so OCR'd scans and parsed vector PDFs of
   the same page produce the same text).

No painting happens: this is the cheap path next to
:mod:`core.pdfvector` (rasterize + OCR), used when fidelity of the
TEXT, not the pixels, is what the pipeline needs.  Reference parity:
the reference has no in-engine PDF text path at all — it shells out to
Ghostscript and OCRs the raster (``main/Makefile:80-93``); parsing the
layout directly is strictly cheaper and exact on born-digital pages.
"""

from __future__ import annotations

import re

from tensorflow_ocr_ray.core.pdfimage import (
    PdfFile,
    _decode_stream,
    _inline_dict,
    _Interpreter,
    _Name,
    _Stream,
)

_HEXNAME = re.compile(r"^g([0-9a-fA-F]{4})$")

# the standard-encoding glyph names a simple-font PDF actually uses for
# the alphanumeric range (Adobe StandardEncoding / WinAnsi agree here)
_STD_NAMES = {
    "space": " ", "period": ".", "comma": ",", "hyphen": "-",
    "colon": ":", "semicolon": ";", "slash": "/", "question": "?",
    "exclam": "!", "quotesingle": "'", "quotedbl": '"',
    "parenleft": "(", "parenright": ")", "plus": "+", "equal": "=",
    "underscore": "_", "ampersand": "&", "at": "@", "numbersign": "#",
    "percent": "%", "asterisk": "*", "dollar": "$",
    "zero": "0", "one": "1", "two": "2", "three": "3", "four": "4",
    "five": "5", "six": "6", "seven": "7", "eight": "8", "nine": "9",
}


class _Font:
    """Metrics + encoding of one font resource — never painted."""

    def __init__(self, pdf: PdfFile, fdict: dict):
        self.matrix = tuple(
            float(v) for v in pdf.resolve(fdict.get("FontMatrix"))
        ) if fdict.get("FontMatrix") is not None else (
            0.001, 0.0, 0.0, 0.001, 0.0, 0.0)
        self.first = int(pdf.resolve(fdict.get("FirstChar", 0)) or 0)
        w = pdf.resolve(fdict.get("Widths"))
        self.widths = [float(pdf.resolve(v)) for v in w] if w else []
        self.names: dict[int, str] = {}
        enc = pdf.resolve(fdict.get("Encoding"))
        if isinstance(enc, dict):
            code = 0
            for el in pdf.resolve(enc.get("Differences")) or []:
                if isinstance(el, (int, float)):
                    code = int(el)
                elif isinstance(el, _Name):
                    self.names[code] = str(el)
                    code += 1
        # Type3 CharProcs: glyph-space ink boxes from the bitmap dims
        self.ink: dict[str, tuple[float, float]] = {}
        procs = pdf.resolve(fdict.get("CharProcs"))
        if isinstance(procs, dict):
            for name, ref in procs.items():
                stm = pdf.resolve(ref)
                if isinstance(stm, _Stream):
                    box = _charproc_ink(pdf, stm)
                    if box is not None:
                        self.ink[str(name)] = box

    def advance(self, code: int) -> float:
        """Glyph-space x advance for ``code`` (glyph units)."""
        i = code - self.first
        if 0 <= i < len(self.widths):
            return self.widths[i]
        return 500.0 if self.matrix[0] == 0.001 else 0.0

    def char(self, code: int) -> str:
        name = self.names.get(code)
        if name is None:
            return chr(code)
        m = _HEXNAME.match(name)
        if m:
            return chr(int(m.group(1), 16))
        if len(name) == 1:
            return name
        return _STD_NAMES.get(name, "�")


def _charproc_ink(pdf: PdfFile, stm: _Stream) -> tuple[float, float] | None:
    """(width, height) of a Type3 CharProc's inline-image ink, glyph
    space.  Looks for the first ``BI .. /W w /H h`` or a ``d1`` box;
    returns None when the proc draws something else (paths)."""
    try:
        body, _, _ = _decode_stream(stm.dict, stm.raw, pdf.resolve)
    except Exception:
        return None
    bi = body.find(b"BI")
    if bi >= 0:
        try:
            d, _ = _inline_dict(body, bi + 2)
        except Exception:
            return None
        w, h = d.get("Width"), d.get("Height")
        if isinstance(w, (int, float)) and isinstance(h, (int, float)):
            return float(w), float(h)
    return None


class _TextRun(_Interpreter):
    """One page's text run through the shared content-stream
    interpreter: fonts give metrics and encodings, shown glyphs are
    recorded as boxes, and inline images are skipped."""

    def __init__(self, pdf: PdfFile, resources: dict):
        super().__init__(pdf, resources)
        self.fonts: dict[str, _Font] = {}
        # (baseline_y, left_x, right_x, height, char) in device units
        self.glyphs: list[tuple[float, float, float, float, str]] = []

    def _load_font(self, name: str) -> _Font:
        if name not in self.fonts:
            fonts = self.pdf.resolve(self.res.get("Font")) or {}
            fdict = self.pdf.resolve(fonts.get(name))
            if not isinstance(fdict, dict):
                raise ValueError(f"font resource {name!r} not found")
            self.fonts[name] = _Font(self.pdf, fdict)
        return self.fonts[name]

    def _inline_image(self, data: bytes, pos: int) -> int:
        d, start = _inline_dict(data, pos)
        payload, end = self.pdf._inline_payload(data, start, d)
        if payload is None:                       # unparseable: bail to EI
            ei = data.find(b"EI", start - 1)
            return len(data) if ei < 0 else ei + 2
        return end

    def _show(self, s) -> None:
        if not isinstance(s, (bytes, bytearray)) or self.font is None:
            return
        fm = self.font.matrix
        for code in bytes(s):
            trm = self._trm()
            ch = self.font.char(code)
            adv_g = self.font.advance(code)       # glyph-space units
            name = self.font.names.get(code)
            ink = self.font.ink.get(name) if name else None
            ink_w_g, ink_h_g = ink if ink else (adv_g, 1000.0)
            # glyph space -> text space via FontMatrix, -> device via Trm
            sx = fm[0] * trm[0]
            sy = fm[3] * trm[3]
            x0 = trm[4]
            y0 = trm[5]
            if ch != " ":
                self.glyphs.append(
                    (y0, x0, x0 + ink_w_g * sx, ink_h_g * abs(sy), ch))
            self._advance(code, adv_g * fm[0])


def extract_text_layout(payload: bytes, space_fraction: float = 0.6) -> str:
    """All pages' text recovered from layout alone, pages joined by
    ``\\f``, lines by ``\\n`` — never rasterizes, never OCRs."""
    pdf = PdfFile(payload)
    pages = []
    for pdict, res in pdf.pages():
        contents = pdf.resolve(pdict.get("Contents"))
        chunks = contents if isinstance(contents, list) else [contents]
        body = b"\n".join(
            _decode_stream(c.dict, c.raw, pdf.resolve)[0]
            for c in (pdf.resolve(x) for x in chunks)
            if isinstance(c, _Stream)
        )
        run = _TextRun(pdf, pdf.resolve(res) or {})
        run.run(body)
        pages.append(_assemble(run.glyphs, space_fraction))
    return "\f".join(pages)


def _assemble(glyphs: list[tuple[float, float, float, float, str]],
              space_fraction: float) -> str:
    """Baseline clustering + the reference's geometric space rule,
    with multi-column reading order: a vertical gutter in the x
    projection that is wider than 2.5x the average glyph width AND
    leaves at least two baselines on each side splits the page into
    columns read left column first (the layout-parse analogue of the
    raster path's column borders, ``core/segment.py`` find_borders /
    reference M2 — a border must persist across rows, which is what
    the two-baseline support requirement encodes; a wide word gap on
    one line never qualifies)."""
    if not glyphs:
        return ""
    heights = sorted(h for _, _, _, h, _ in glyphs)
    med_h = heights[len(heights) // 2]
    widths = [r - l for _, l, r, _, _ in glyphs]
    avg_w = sum(widths) / len(widths)
    # cluster by baseline, top-to-bottom (device y grows UP the page)
    order = sorted(glyphs, key=lambda g: -g[0])
    lines: list[list[tuple]] = [[order[0]]]
    for g in order[1:]:
        if lines[-1][-1][0] - g[0] > 0.5 * med_h:
            lines.append([g])
        else:
            lines[-1].append(g)
    gutter = _find_gutter(glyphs, lines, avg_w)
    if gutter is not None:
        left = [g for g in glyphs if g[1] < gutter]
        right = [g for g in glyphs if g[1] >= gutter]
        return (_assemble(left, space_fraction) + "\n"
                + _assemble(right, space_fraction))
    out: list[str] = []
    for line in lines:
        line.sort(key=lambda g: g[1])
        parts: list[str] = []
        for i, (_, left, right, _, ch) in enumerate(line):
            parts.append(ch)
            if i + 1 < len(line):
                gap = line[i + 1][1] - right
                if avg_w > 0 and gap > space_fraction * avg_w:
                    parts.append(" " * max(1, int(gap // avg_w) - 1))
        out.append("".join(parts))
    return "\n".join(out)


def _find_gutter(glyphs: list[tuple], lines: list[list[tuple]],
                 avg_w: float) -> float | None:
    """Leftmost x of a column gutter, or None.  A gutter is a gap in
    the union of glyph x extents wider than 2.5x the average glyph
    width whose both sides keep >= 2 baselines (column borders persist
    across rows; word gaps do not)."""
    if len(lines) < 2 or avg_w <= 0:
        return None
    spans = sorted((g[1], g[2]) for g in glyphs)
    merged = [list(spans[0])]
    for l, r in spans[1:]:
        if l <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], r)
        else:
            merged.append([l, r])
    for (l0, r0), (l1, _) in zip(merged, merged[1:]):
        if l1 - r0 > 2.5 * avg_w:
            left_lines = sum(
                1 for ln in lines if any(g[1] < l1 for g in ln))
            right_lines = sum(
                1 for ln in lines if any(g[1] >= l1 for g in ln))
            if left_lines >= 2 and right_lines >= 2:
                return l1
    return None
