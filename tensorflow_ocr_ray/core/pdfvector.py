"""Vector-content PDF subset rasterizer — closes reference S11's
Ghostscript seam for the common TEXT-PDF case.

The reference converts PDFs outside the engine with Ghostscript
(``main/Makefile:80-93``, ``main/nybc2tiff.pl:1-31``); scanned PDFs
already decode fully in-process via :mod:`core.pdfimage`.  This module
rasterizes the remaining class a user actually hits — PDFs whose pages
are DRAWN rather than scanned — for the subset of the content-stream
language that text-dominant PDFs use.  The operator loop, ``q Q cm``
and the text state machine are the content-stream interpreter the
layout parse (:mod:`core.pdftext`) also runs (``pdfimage._Interpreter``);
this module adds the canvas, the painting operators, Type3 glyphs and
images:

- graphics state: ``q Q cm`` (``gs``/line-style operators ignored)
- color: ``g rg k`` and ``sc/scn`` with numeric operands (luma
  conversion for the gray output device; stroke colors ignored)
- path painting: ``re`` rectangles filled by ``f/F/f*/B/B*/b/b*``
  (arbitrary affine CTMs — parallelograms render via inverse-affine
  sampling); ``n``/``W`` clear the path (clipping not applied);
  stroking-only ops are no-ops
- text: ``BT ET Tf Td TD Tm T* TL Tc Tw Tz Ts Tr Tj TJ ' "`` with
  **Type3 bitmap fonts** — CharProcs are executed as nested content
  (``d0/d1`` + ``cm`` + inline images), exactly how bitmap-font and
  OCR-output PDFs carry their glyphs
- images: ``Do`` on Image XObjects and ``BI/ID/EI`` inline images
  (including ImageMasks painted with the fill color), decoded through
  :mod:`core.pdfimage`'s filter chains

Outline fonts (Type1/TrueType/Type0) and curve paths are NOT
rasterized: painting them correctly needs a font/curve engine, which
is what Ghostscript is for.  Those raise :class:`UnsupportedVectorPdf`
so :mod:`sources.pdf` can fall through to the documented ``gs`` seam
with the precise reason.  Output convention matches ``pdfimage``:
uint8 gray, white (255) paper, dark ink.
"""

from __future__ import annotations

import numpy as np

from tensorflow_ocr_ray.core.pdfimage import (
    PdfFile,
    _decode_stream,
    _inline_dict,
    _Interpreter,
    _mul,
    _Name,
    _Stream,
)


class UnsupportedVectorPdf(NotImplementedError):
    """Content outside the rasterized subset (outline fonts, curve
    paths, form XObjects) — the caller falls back to Ghostscript."""


def _apply(m, x, y):
    return (m[0] * x + m[2] * y + m[4], m[1] * x + m[3] * y + m[5])


def _inv(m):
    a, b, c, d, e, f = m
    det = a * d - b * c
    if abs(det) < 1e-12:
        return None
    ia, ib, ic, idd = d / det, -b / det, -c / det, a / det
    return (ia, ib, ic, idd,
            -(e * ia + f * ic), -(e * ib + f * idd))


def _luma(vals) -> int:
    """Numeric color operands (1=gray, 3=RGB, 4=CMYK) -> device gray
    0..255 (ITU-R 601 weights, the png/jpeg modules' convention)."""
    if len(vals) == 1:
        g = float(vals[0])
    elif len(vals) == 3:
        r, g_, b = (float(v) for v in vals)
        g = 0.299 * r + 0.587 * g_ + 0.114 * b
    elif len(vals) == 4:
        c, m, y, k = (float(v) for v in vals)
        r, g_, b = (1 - min(1, c + k), 1 - min(1, m + k),
                    1 - min(1, y + k))
        g = 0.299 * r + 0.587 * g_ + 0.114 * b
    else:
        return 0
    return int(round(max(0.0, min(1.0, g)) * 255))


class _Type3Font:
    def __init__(self, pdf: PdfFile, fdict: dict, page_res: dict):
        self.matrix = tuple(
            float(pdf.resolve(v)) for v in pdf.resolve(fdict["FontMatrix"]))
        self.charprocs = pdf.resolve(fdict.get("CharProcs")) or {}
        self.resources = pdf.resolve(fdict.get("Resources")) or page_res
        self.first_char = int(pdf.resolve(fdict.get("FirstChar", 0)))
        self.widths = [float(pdf.resolve(w))
                       for w in (pdf.resolve(fdict.get("Widths")) or [])]
        self.code_to_name: dict[int, str] = {}
        enc = pdf.resolve(fdict.get("Encoding"))
        if isinstance(enc, dict):
            diffs = pdf.resolve(enc.get("Differences")) or []
            code = 0
            for el in diffs:
                el = pdf.resolve(el)
                if isinstance(el, _Name):
                    self.code_to_name[code] = str(el)
                    code += 1
                else:
                    code = int(el)
        self._pdf = pdf

    def charproc(self, code: int):
        name = self.code_to_name.get(code)
        if name is None:
            return None
        stm = self._pdf.resolve(self.charprocs.get(name))
        if not isinstance(stm, _Stream):
            return None
        data, imgf, _ = _decode_stream(stm.dict, stm.raw, self._pdf.resolve)
        if imgf:
            raise UnsupportedVectorPdf(
                f"image filter {imgf} on Type3 CharProc {name}")
        return data

    def width(self, code: int) -> float:
        i = code - self.first_char
        if 0 <= i < len(self.widths):
            return self.widths[i]
        return 0.0


class _Raster(_Interpreter):
    """The shared content-stream interpreter over a canvas: paths, fills,
    colors, images and Type3 glyphs paint into it.

    CharProc execution recurses with a child ``_Raster`` whose base CTM
    is the glyph transform — the same machinery renders pages and
    glyphs."""

    _SAVED = ("ctm", "fill")

    def __init__(self, pdf: PdfFile, canvas: np.ndarray, resources: dict,
                 ctm, fill: int = 0):
        super().__init__(pdf, resources, ctm)
        self.canvas = canvas
        self.fill = fill
        self._rects: list[tuple] = []      # pending re rects (user space)
        self._path_other = False           # non-rect path segments seen
        self._font_cache: dict[int, _Type3Font] = {}

    # -- painting ----------------------------------------------------------

    def _paint_unit(self, m, img: np.ndarray | None,
                    mask: np.ndarray | None, gray: int) -> None:
        """Map the unit square through ``m`` and paint: ``img`` = luma
        samples, or ``mask`` = 0/1 paint-bits filled with ``gray``.
        Inverse-affine nearest sampling — handles flips, scales and
        rotations in one vectorized pass."""
        src = img if img is not None else mask
        h_img, w_img = src.shape
        H, W = self.canvas.shape
        pts = [_apply(m, u, v) for u, v in ((0, 0), (1, 0), (0, 1), (1, 1))]
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        x0 = max(0, int(np.floor(min(xs))))
        x1 = min(W, int(np.ceil(max(xs))))
        y0 = max(0, int(np.floor(min(ys))))
        y1 = min(H, int(np.ceil(max(ys))))
        if x1 <= x0 or y1 <= y0:
            return
        inv = _inv(m)
        if inv is None:
            return
        xc = np.arange(x0, x1, dtype=np.float64) + 0.5
        yc = np.arange(y0, y1, dtype=np.float64) + 0.5
        X, Y = np.meshgrid(xc, yc)
        U = inv[0] * X + inv[2] * Y + inv[4]
        V = inv[1] * X + inv[3] * Y + inv[5]
        inside = (U >= 0.0) & (U < 1.0) & (V >= 0.0) & (V < 1.0)
        if not inside.any():
            return
        # image space: row 0 at the TOP of the unit square (v=1)
        i = np.clip((U * w_img).astype(np.int64), 0, w_img - 1)
        j = np.clip(((1.0 - V) * h_img).astype(np.int64), 0, h_img - 1)
        tgt = self.canvas[y0:y1, x0:x1]
        if mask is not None:
            paint = inside & (mask[j, i] != 0)
            tgt[paint] = gray
        else:
            tgt[inside] = img[j[inside], i[inside]]

    def _fill_rects(self) -> None:
        for (x, y, w, h) in self._rects:
            m = _mul((w, 0.0, 0.0, h, x, y), self.ctm)
            self._paint_unit(m, None, np.ones((1, 1), np.uint8), self.fill)
        self._rects = []
        self._path_other = False

    def _draw_image_stream(self, stm: _Stream) -> None:
        d = {k: self.pdf.resolve(v) if not isinstance(v, _Stream) else v
             for k, v in stm.dict.items()}
        if d.get("ImageMask"):
            w = int(d["Width"])
            h = int(d["Height"])
            data, imgf, parms = _decode_stream(stm.dict, stm.raw,
                                               self.pdf.resolve)
            if imgf == "CCITTFaxDecode":
                from tensorflow_ocr_ray.core.ccitt import decode_g4

                bits = decode_g4(data, int(parms.get("Columns", w) or w),
                                 h)[:h, :w]
            elif imgf is not None:
                raise UnsupportedVectorPdf(
                    f"mask image filter {imgf}")
            else:
                bits = self.pdf._unpack(data, w, h, 1, 1)[:, :, 0]
            dec = d.get("Decode")
            inverted = (isinstance(dec, list) and len(dec) >= 2
                        and float(self.pdf.resolve(dec[0]))
                        > float(self.pdf.resolve(dec[1])))
            # default Decode [0 1]: sample 0 paints; [1 0]: sample 1
            paint_bits = (bits != 0) if inverted else (bits == 0)
            self._paint_unit(self.ctm, None,
                             paint_bits.astype(np.uint8), self.fill)
        else:
            img = self.pdf._image_gray(stm)
            self._paint_unit(self.ctm, img, None, 0)

    # -- text --------------------------------------------------------------

    def _load_font(self, name: str) -> _Type3Font:
        fonts = self.pdf.resolve(self.res.get("Font")) or {}
        ref = fonts.get(name)
        key = id(ref)
        cached = self._font_cache.get(key)
        if cached is not None:
            return cached
        fdict = self.pdf.resolve(ref)
        if not isinstance(fdict, dict):
            raise UnsupportedVectorPdf(f"font {name} not found")
        sub = str(fdict.get("Subtype"))
        if sub != "Type3":
            raise UnsupportedVectorPdf(
                f"font {name} has Subtype {sub}; only Type3 bitmap "
                "fonts rasterize in-process — vector outline text "
                "needs Ghostscript")
        f = _Type3Font(self.pdf, fdict, self.res)
        self._font_cache[key] = f
        return f

    def _show(self, s) -> None:
        if not isinstance(s, (bytes, bytearray)):
            return
        if self.font is None:
            raise UnsupportedVectorPdf("Tj before Tf")
        font = self.font
        for code in bytes(s):
            if self.tmode != 3:        # 3 = invisible (OCR text layers)
                proc = font.charproc(code)
                if proc is not None:
                    child = _Raster(self.pdf, self.canvas, font.resources,
                                    _mul(font.matrix, self._trm()),
                                    self.fill)
                    child.run(proc)
            # glyph space -> text space
            self._advance(code, font.width(code) * font.matrix[0])

    # -- interpreter -------------------------------------------------------

    def _inline_image(self, data: bytes, pos: int) -> int:
        """Parse ``BI <dict> ID <payload> EI`` starting just after the
        ``BI`` keyword; draw; return the next position."""
        d, start = _inline_dict(data, pos)
        payload, end = self.pdf._inline_payload(data, start, d)
        if payload is None:
            raise UnsupportedVectorPdf("unparseable inline image")
        self._draw_image_stream(_Stream(d, payload))
        return end

    def _paint(self, op: str, st: list) -> None:
        if op == "re":
            x, y, w, h = (float(v) for v in st[-4:])
            self._rects.append((x, y, w, h))
        elif op in ("f", "F", "f*", "B", "B*", "b", "b*"):
            if self._path_other:
                raise UnsupportedVectorPdf(
                    "fill of a non-rectangular path (m/l/c segments) — "
                    "needs Ghostscript")
            self._fill_rects()
        elif op in ("n", "S", "s"):
            self._rects = []
            self._path_other = False
        elif op in ("m", "l", "c", "v", "y", "h"):
            self._path_other = True
        elif op in ("W", "W*"):
            pass                   # clipping not applied (subset)
        elif op == "g":
            self.fill = _luma(st[-1:])
        elif op == "rg":
            self.fill = _luma(st[-3:])
        elif op == "k":
            self.fill = _luma(st[-4:])
        elif op in ("sc", "scn"):
            nums = [v for v in st if isinstance(v, (int, float))]
            if nums:
                self.fill = _luma(nums)
        elif op == "Do":
            xo = self.pdf.resolve(self.res.get("XObject")) or {}
            stm = self.pdf.resolve(xo.get(str(st[-1])))
            if not isinstance(stm, _Stream):
                raise UnsupportedVectorPdf(f"XObject {st[-1]} not found")
            sub = str(stm.dict.get("Subtype"))
            if sub == "Image":
                self._draw_image_stream(stm)
            else:
                raise UnsupportedVectorPdf(
                    f"XObject Subtype {sub} (Form XObjects need "
                    "Ghostscript)")
        # metrics, stroke, marked-content and unknown operators: ignored
        # (spec: BX/EX compatibility default)


def rasterize_vector_pages(payload: bytes, dpi: int = 400,
                           default_box=(0.0, 0.0, 612.0, 792.0),
                           ) -> list[np.ndarray]:
    """Rasterize every page of a vector-content PDF at ``dpi``.

    Returns uint8 gray arrays (white 255 paper, dark ink — the
    ``pdfimage`` convention).  Raises :class:`UnsupportedVectorPdf`
    when the content uses features outside the subset (outline fonts,
    curve-path fills, form XObjects)."""
    pdf = PdfFile(payload)
    pages = pdf.pages()
    if not pages:
        raise UnsupportedVectorPdf("no page tree")
    s = dpi / 72.0
    out = []
    for page, res in pages:
        box = pdf.resolve(page.get("MediaBox"))
        if box is None:     # one-level inheritance via the Pages root
            try:
                root = pdf.resolve(pdf.trailer["Root"])
                box = pdf.resolve(pdf.resolve(root["Pages"]).get("MediaBox"))
            except Exception:
                box = None
        box = ([float(pdf.resolve(v)) for v in box]
               if box is not None else list(default_box))
        W = max(1, int(round((box[2] - box[0]) * s)))
        H = max(1, int(round((box[3] - box[1]) * s)))
        canvas = np.full((H, W), 255, np.uint8)
        base = (s, 0.0, 0.0, -s, -box[0] * s, H + box[1] * s)
        _Raster(pdf, canvas, res, base).run(pdf._page_content(page))
        out.append(canvas)
    return out
