"""Deterministic fixture corpus: rendered pages + interleaved documents.

Everything is a pure function of a seed / a ``media_ref`` string (md5-based,
stable across processes), mirroring the reference's test corpus shape
(``testtifs/kafka/*.tif`` pages + known text) without external data.

Crucially, the EXPECTED text of every rendered page is computed analytically
from the construction geometry (same formulas as gtkDisplay.c:202-304), not
by running the OCR pipeline — so the end-to-end test oracle is independent
of the code under test.  The generator's layout parameters are chosen so the
reference's combine/split heuristics provably do not fire (all glyphs match
the font exactly, gaps are within the no-op windows); the only segmentation
interaction is the dotted-letter (i/j) vertical merge + horizontal combine,
whose effect on the page-average glyph width (the reference's recount quirk,
segment.c:988-1030) the analytic model reproduces.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

from tensorflow_ocr_ray.core.raster import encode_bitonal, encode_gray
from tensorflow_ocr_ray.fonts import (
    DEFAULT_SCALE,
    NOMINAL_CELL_ROWS,
    glyph_bitmap,
    glyph_cell_top_offset,
)

WORDLIST = [
    "the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog",
    "Kafka", "woke", "one", "morning", "from", "uneasy", "dreams",
    "found", "himself", "transformed", "into", "gigantic", "insect",
    "Ray", "Data", "streams", "blocks", "with", "backpressure",
    "glyph", "tuple", "nearest", "match", "line", "page", "text",
    "A42", "B7", "X99", "zero", "alpha", "Omega",
]

DOTTED = set("ij")  # letters that segment as two components then re-combine

SPAN_SCHEMA = pa.list_(
    pa.struct(
        [
            ("kind", pa.string()),
            ("text", pa.string()),
            ("media_ref", pa.string()),
            ("offset", pa.int32()),
        ]
    )
)
DOCUMENTS_SCHEMA = pa.schema([("doc_id", pa.string()), ("spans", SPAN_SCHEMA)])


@dataclass
class PageSpec:
    """Deterministic description of one rendered page."""

    lines: list[str]  # words joined by single spaces
    indents: list[int]  # leading indent in cells (column units)
    para_breaks: list[bool]  # True: extra vertical gap BEFORE this line
    scale: int = DEFAULT_SCALE
    letter_gap: int = 4  # px of white between adjacent glyph ink
    word_gap: int = 20  # px of white between words
    line_gap: int = 14  # px between cell bottoms and next cell top
    para_extra: int = 14  # extra px before a paragraph-break line
    margin: int = 12  # page margin px
    gray: bool = False  # encode as grayscale (exercise the binarizer)


def _rng_for(ref: str) -> np.random.Generator:
    digest = hashlib.md5(ref.encode()).digest()
    return np.random.Generator(np.random.PCG64(int.from_bytes(digest[:8], "little")))


def page_spec_for_ref(ref: str) -> PageSpec:
    rng = _rng_for(ref)
    n_lines = int(rng.integers(2, 7))
    lines, indents, breaks = [], [], []
    for li in range(n_lines):
        n_words = int(rng.integers(2, 6))
        words = [WORDLIST[int(rng.integers(0, len(WORDLIST)))] for _ in range(n_words)]
        lines.append(" ".join(words))
        indents.append(int(rng.integers(0, 3)) if li > 0 else 0)
        breaks.append(bool(rng.integers(0, 4) == 0) if li > 0 else False)
    return PageSpec(
        lines=lines,
        indents=indents,
        para_breaks=breaks,
        gray=bool(rng.integers(0, 2)),
    )


@dataclass
class _PlacedGlyph:
    label: str
    left: int
    right: int
    top: int
    bottom: int
    word_break_after: bool


@dataclass
class _Layout:
    glyph_lines: list[list[_PlacedGlyph]] = field(default_factory=list)
    width: int = 0
    height: int = 0


def _layout(spec: PageSpec) -> _Layout:
    """Compute glyph placements; pure geometry, shared by render + truth."""
    scale = spec.scale
    cell_h = NOMINAL_CELL_ROWS * scale
    cell_w = 5 * scale
    lay = _Layout()
    y = spec.margin
    for li, line in enumerate(spec.lines):
        if li > 0:
            y += spec.line_gap
            if spec.para_breaks[li]:
                y += spec.para_extra
        x = spec.margin + spec.indents[li] * cell_w
        glyphs: list[_PlacedGlyph] = []
        words = line.split(" ")
        for wi, word in enumerate(words):
            for ci, ch in enumerate(word):
                bmp = glyph_bitmap(ch, scale)
                h, w = bmp.shape
                top = y + glyph_cell_top_offset(ch, scale)
                glyphs.append(
                    _PlacedGlyph(
                        label=ch,
                        left=x,
                        right=x + w,
                        top=top,
                        bottom=top + h,
                        word_break_after=(ci == len(word) - 1 and wi < len(words) - 1),
                    )
                )
                x += w + spec.letter_gap
            if word:
                x += spec.word_gap - spec.letter_gap
        lay.glyph_lines.append(glyphs)
        y += cell_h
    lay.height = y + spec.margin
    lay.width = max(g.right for gl in lay.glyph_lines for g in gl) + spec.margin
    return lay


def render_page(spec: PageSpec) -> np.ndarray:
    lay = _layout(spec)
    img = np.zeros((lay.height, lay.width), dtype=np.uint8)
    for glyphs in lay.glyph_lines:
        for g in glyphs:
            img[g.top : g.bottom, g.left : g.right] |= glyph_bitmap(
                g.label, spec.scale
            )
    return img


def payload_for_ref(ref: str) -> bytes:
    """Render + encode one page.  The CONTENT (and hence the truth) is
    fixed by the spec; the CONTAINER rotates deterministically between the
    compact OCR codec and real TIFF — uncompressed, PackBits, LZW and
    (bilevel) CCITT Group 4 — so every decode path is exercised
    corpus-wide.  Compression is lossless, so container choice never
    changes the truth."""
    from tensorflow_ocr_ray.core.raster import encode_tiff

    spec = page_spec_for_ref(ref)
    img = render_page(spec)
    digest = hashlib.md5(ref.encode()).digest()
    use_tiff = digest[8] % 2 == 1
    compression = [None, "packbits", "lzw", "g4"][digest[9] % 4]
    if spec.gray:
        # ink -> dark gray, paper -> white; binarizer must restore 0/1
        gray = np.where(img > 0, 40, 250).astype(np.uint8)
        if use_tiff:
            if compression == "g4":  # G4 is bilevel-only
                compression = "lzw"
            return encode_tiff(gray, bilevel=False, compression=compression)
        return encode_gray(gray)
    if use_tiff:
        return encode_tiff(img, bilevel=True, compression=compression)
    return encode_bitonal(img)


def expected_page_text(spec: PageSpec) -> str:
    """Analytic expected OCR output (gtkDisplay.c:202-304 formulas).

    glyphWidth reproduces findLines' recount: lines where a horizontal
    combine fired (dotted letters) are counted twice (segment.c:988-1030).
    """
    lay = _layout(spec)
    # page-wide average glyph width (findLines' recount; with the built-in
    # font every letter is one connected component, so every line is
    # counted exactly once — the double-count path is unit-tested with
    # hand-made rasters instead)
    num, total = 0, 0
    for glyphs in lay.glyph_lines:
        num += len(glyphs)
        total += sum(g.right - g.left for g in glyphs)
    glyph_width = total // num if num else 0
    left_margin = min(g.left for gl in lay.glyph_lines for g in gl)
    out: list[str] = []
    prev_bottom = 0
    for glyphs in lay.glyph_lines:
        top = min(g.top for g in glyphs)
        bottom = max(g.bottom for g in glyphs)
        left_border = min(g.left for g in glyphs)
        blank = 0
        if prev_bottom != 0:
            blank = max(int((top - prev_bottom) / (bottom - top)), 0)
            if blank > 2:
                blank = blank // 2 + 1
        prev_bottom = bottom
        parts: list[str] = []
        for i, g in enumerate(glyphs):
            parts.append(g.label)
            if i + 1 < len(glyphs):
                gap = glyphs[i + 1].left - g.right
                if gap > 0.6 * glyph_width:  # cfg.space_fraction default
                    parts.append(" " * max(1, gap // glyph_width - 1))
        indent = (left_border - left_margin) // glyph_width if glyph_width else 0
        out.append("\n" * blank)
        out.append(" " * max(indent, 0))
        out.append("".join(parts))
        out.append("\n")
    return "".join(out)


def truth_for_ref(ref: str) -> str:
    return expected_page_text(page_spec_for_ref(ref))


# ---------------- interleaved documents corpus ---------------------------

def _doc_rows(num_docs: int, seed: int) -> list[dict]:
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = []
    for d in range(num_docs):
        doc_id = f"doc-{seed}-{d:06d}"
        n_spans = int(rng.integers(1, 9))
        spans = []
        for s in range(n_spans):
            is_media = bool(rng.integers(0, 2)) if n_spans > 1 else True
            if is_media:
                ref = f"page-{seed}-{d:06d}-{s}"
                spans.append(
                    {"kind": "media", "text": "", "media_ref": ref,
                     "offset": s}
                )
            else:
                k = int(rng.integers(2, 8))
                words = [
                    WORDLIST[int(rng.integers(0, len(WORDLIST)))]
                    for _ in range(k)
                ]
                spans.append(
                    {"kind": "text", "text": " ".join(words),
                     "media_ref": "", "offset": s}
                )
        rows.append({"doc_id": doc_id, "spans": spans})
    return rows


def generate_documents(num_docs: int, seed: int = 42) -> pa.Table:
    """The pipeline input table — exactly BASELINE.json's input_hint shape."""
    return pa.Table.from_pylist(_doc_rows(num_docs, seed), schema=DOCUMENTS_SCHEMA)


def expected_documents(docs: pa.Table) -> pa.Table:
    """The e2e golden: media spans' text filled with the analytic truth."""
    rows = docs.to_pylist()
    for row in rows:
        for span in row["spans"]:
            if span["kind"] == "media":
                span["text"] = truth_for_ref(span["media_ref"])
    return pa.Table.from_pylist(rows, schema=DOCUMENTS_SCHEMA)


def _web_doc_rows(num_docs: int, seed: int) -> list[dict]:
    """:func:`_doc_rows` with every ``text`` span turned into an ``html``
    span holding its text wrapped in boilerplate chrome."""
    from tensorflow_ocr_ray.functions.html_extract import wrap_in_boilerplate

    rows = _doc_rows(num_docs, seed)
    for row in rows:
        for span in row["spans"]:
            if span["kind"] == "text":
                span["kind"] = "html"
                span["text"] = wrap_in_boilerplate(row["doc_id"],
                                                   span["text"])
    return rows


def generate_web_documents(num_docs: int, seed: int = 42) -> pa.Table:
    """The web-shaped input: the same interleaved corpus, but every
    ``text`` span is a full HTML page (the span's clean text wrapped in
    deterministic boilerplate chrome — nav/header/aside/footer +
    script/style/comment noise) with ``kind`` = ``html``.  Media spans
    are untouched.  ``pipelines/ocr_pipeline.ocr_documents`` must
    recover :func:`expected_web_documents` exactly."""
    return pa.Table.from_pylist(_web_doc_rows(num_docs, seed),
                                schema=DOCUMENTS_SCHEMA)


def expected_web_documents(num_docs: int, seed: int = 42) -> pa.Table:
    """Golden for the combined extraction pipeline: html spans carry the
    ORIGINAL clean text (boilerplate stripped back off), media spans the
    analytic OCR truth, order/kind/media_ref untouched."""
    rows = _doc_rows(num_docs, seed)
    for row in rows:
        for span in row["spans"]:
            if span["kind"] == "text":
                span["kind"] = "html"
            elif span["kind"] == "media":
                span["text"] = truth_for_ref(span["media_ref"])
    return pa.Table.from_pylist(rows, schema=DOCUMENTS_SCHEMA)


def write_documents_parquet(path: str, num_docs: int, seed: int = 42,
                            num_files: int = 1,
                            web: bool = False) -> list[str]:
    """Write the corpus as partitioned parquet (one file per partition).
    ``web=True`` writes the web shape instead: text spans become
    boilerplate-wrapped html spans (:func:`generate_web_documents`
    semantics)."""
    import os

    import pyarrow.parquet as pq

    os.makedirs(path, exist_ok=True)
    rows = (_web_doc_rows if web else _doc_rows)(num_docs, seed)
    files = []
    per = (num_docs + num_files - 1) // num_files
    done = 0
    for i in range(num_files):
        n = min(per, num_docs - done)
        if n <= 0:
            break
        t = pa.Table.from_pylist(rows[done : done + n], schema=DOCUMENTS_SCHEMA)
        f = os.path.join(path, f"part-{i:05d}.parquet")
        pq.write_table(t, f)
        files.append(f)
        done += n
    return files


def materialize_media(root: str, refs: set[str]) -> None:
    """Write every ref's :func:`payload_for_ref` into the
    ``DirMediaStore`` at ``root`` (one file per ref), spread over 64 Ray
    tasks — the payload read of a deployment, prepared ahead of a run.
    Needs a Ray session."""
    import ray

    refs = sorted(refs)

    @ray.remote
    def write(chunk: list[str]) -> None:
        from tensorflow_ocr_ray.state.media import DirMediaStore

        for ref in chunk:
            DirMediaStore.put(root, ref, payload_for_ref(ref))

    ray.get([write.remote(refs[i::64]) for i in range(min(64, len(refs)))])


def vector_pdf_for_spec(spec: PageSpec, dpi: int = 400) -> bytes:
    """A VECTOR-content (text-operator) PDF that rasterizes
    pixel-identically to ``render_page(spec)`` at ``dpi``.

    The page carries no raster page image — glyphs are a **Type3
    bitmap font** whose CharProcs draw the fixture glyphs as inline
    ImageMasks, the way bitmap-font and OCR-output PDFs actually embed
    text — so ``sources/pdf.py`` takes the in-process vector-rasterizer
    path (reference S11's Ghostscript seam, ``main/Makefile:80-93``).
    FontMatrix is the conventional 1/1000 with the font size chosen so
    one glyph-space pixel maps to exactly one device pixel at ``dpi``,
    making the parity check exact, not approximate."""
    lay = _layout(spec)
    pt = 72.0 / dpi                       # device px -> points
    size = 1000.0 * 72.0 / dpi            # 1 glyph px == 1 device px
    labels = sorted({g.label for gl in lay.glyph_lines for g in gl})
    code_of = {lab: 33 + i for i, lab in enumerate(labels)}
    name_of = {lab: f"g{ord(lab):04x}" for lab in labels}

    objs: dict[int, bytes] = {}
    num = 7
    proc_ref: dict[str, int] = {}
    widths = []
    for lab in labels:
        bmp = glyph_bitmap(lab, spec.scale)
        h, w = bmp.shape
        widths.append(w)
        payload = np.packbits(bmp, axis=1).tobytes()
        body = (b"%d 0 d0 %d 0 0 %d 0 0 cm BI /IM true /W %d /H %d "
                b"/D [1 0] ID " % (w, w, h, w, h)) + payload + b" EI"
        objs[num] = (b"<< /Length %d >>\nstream\n" % len(body)
                     + body + b"\nendstream")
        proc_ref[lab] = num
        num += 1

    charprocs = b" ".join(
        b"/%s %d 0 R" % (name_of[lab].encode(), proc_ref[lab])
        for lab in labels)
    diffs = b" ".join(
        b"%d /%s" % (code_of[lab], name_of[lab].encode())
        for lab in labels)
    wlist = b" ".join(b"%d" % w for w in widths)
    objs[5] = (b"<< /Type /Font /Subtype /Type3 "
               b"/FontMatrix [0.001 0 0 0.001 0 0] "
               b"/FontBBox [0 0 0 0] "
               b"/CharProcs << " + charprocs + b" >> "
               b"/Encoding << /Type /Encoding /Differences [ "
               + diffs + b" ] >> "
               b"/FirstChar 33 /LastChar %d /Widths [ %s ] >>"
               % (32 + len(labels), wlist))

    parts = [b"BT /F1 %.6f Tf" % size]
    for glyphs in lay.glyph_lines:
        for g in glyphs:
            x_pts = g.left * pt
            y_pts = (lay.height - g.bottom) * pt
            parts.append(b"1 0 0 1 %.6f %.6f Tm <%02x> Tj"
                         % (x_pts, y_pts, code_of[g.label]))
    parts.append(b"ET")
    content = b"\n".join(parts)
    objs[4] = (b"<< /Length %d >>\nstream\n" % len(content)
               + content + b"\nendstream")
    objs[3] = (b"<< /Type /Page /Parent 2 0 R "
               b"/MediaBox [0 0 %.6f %.6f] "
               b"/Resources << /Font << /F1 5 0 R >> >> "
               b"/Contents 4 0 R >>" % (lay.width * pt, lay.height * pt))
    objs[2] = b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>"
    objs[1] = b"<< /Type /Catalog /Pages 2 0 R >>"

    out = bytearray(b"%PDF-1.4\n")
    offsets = {}
    for onum in sorted(objs):
        offsets[onum] = len(out)
        out += b"%d 0 obj\n" % onum + objs[onum] + b"\nendobj\n"
    xref_at = len(out)
    maxn = max(objs) + 1
    out += b"xref\n0 %d\n0000000000 65535 f \n" % maxn
    for onum in range(1, maxn):
        out += (b"%010d 00000 n \n" % offsets[onum] if onum in offsets
                else b"0000000000 65535 f \n")
    out += (b"trailer\n<< /Size %d /Root 1 0 R >>\nstartxref\n%d\n%%%%EOF\n"
            % (maxn, xref_at))
    return bytes(out)


# ---------------- text-derived vector PDFs (layout-parse oracle) ---------

_PDF_TEXT_KEEP = __import__("re").compile(r"[^0-9A-Za-z ]")
_PDF_TEXT_SQUASH = __import__("re").compile(r" +")


def pdf_text_lines(text: str, max_chars: int = 40) -> list[str]:
    """The SQL-expressible transform a text-derived vector PDF carries:
    non-alphanumerics become spaces, runs collapse, trim, first
    ``max_chars`` chars, trim again; page lines are [clean,
    reverse(clean)] (the reversed second line exercises multi-line
    baseline clustering and left-to-right re-sort).  DuckDB mirror::

        trim(substr(trim(regexp_replace(regexp_replace(
            text, '[^0-9A-Za-z ]', ' ', 'g'), ' +', ' ', 'g')),
            1, max_chars))
    """
    clean = _PDF_TEXT_SQUASH.sub(
        " ", _PDF_TEXT_KEEP.sub(" ", text)).strip()[:max_chars].strip()
    if not clean:
        return []
    return [clean, clean[::-1]]


def vector_pdf_for_text(text: str, max_chars: int = 40) -> bytes | None:
    """A Type3 vector PDF whose page shows ``pdf_text_lines(text)`` —
    None when the cleaned text is empty (nothing to draw)."""
    lines = pdf_text_lines(text, max_chars)
    if not lines:
        return None
    spec = PageSpec(
        lines=lines,
        indents=[0] * len(lines),
        para_breaks=[False] * len(lines),
    )
    return vector_pdf_for_spec(spec)
