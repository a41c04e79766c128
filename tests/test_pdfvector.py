"""core/pdfvector: in-process vector-PDF subset rasterizer (S11's
Ghostscript seam for text-content PDFs).

The headline check is EXACT: ``fixtures.vector_pdf_for_spec`` builds a
pure-vector PDF (Type3 bitmap font, per-glyph inline ImageMask
CharProcs, no raster page image) whose rasterization must be
pixel-identical to ``render_page(spec)`` — the same
construction-derived-truth style as the raster fixtures — and the
full S11 path then OCRs it back to the analytic expected text.
"""

from __future__ import annotations

import numpy as np
import pytest

from tensorflow_ocr_ray.core.pdfvector import (
    UnsupportedVectorPdf,
    rasterize_vector_pages,
)
from tensorflow_ocr_ray.fixtures import (
    page_spec_for_ref,
    render_page,
    vector_pdf_for_spec,
)


def _minimal_pdf(content: bytes, extra_objs: bytes = b"",
                 resources: bytes = b"<< >>",
                 box: bytes = b"[0 0 72 72]") -> bytes:
    """Tiny classic-xref-less PDF (trailer only; PdfFile's object
    scanner handles it) with one page and the given content stream."""
    return (
        b"%PDF-1.4\n"
        b"1 0 obj\n<< /Type /Catalog /Pages 2 0 R >>\nendobj\n"
        b"2 0 obj\n<< /Type /Pages /Kids [3 0 R] /Count 1 >>\nendobj\n"
        b"3 0 obj\n<< /Type /Page /Parent 2 0 R /MediaBox " + box +
        b" /Resources " + resources +
        b" /Contents 4 0 R >>\nendobj\n"
        b"4 0 obj\n<< /Length %d >>\nstream\n" % len(content)
        + content + b"\nendstream\nendobj\n"
        + extra_objs +
        b"trailer\n<< /Size 9 /Root 1 0 R >>\n"
    )


# ---------------------------------------------------------------------------
# primitives


def test_rect_fill_black():
    """``re f`` at 72 dpi: user units == device px; rows count from
    the TOP (PDF y is bottom-up)."""
    pages = rasterize_vector_pages(
        _minimal_pdf(b"0 g 10 20 30 40 re f"), dpi=72)
    assert len(pages) == 1
    img = pages[0]
    assert img.shape == (72, 72)
    ink = img < 128
    # rect y in [20, 60) user -> device rows [72-60, 72-20) = [12, 52)
    assert ink[12:52, 10:40].all()
    assert not ink[:12].any() and not ink[52:].any()
    assert not ink[:, :10].any() and not ink[:, 40:].any()


def test_rect_fill_gray_and_cm():
    """``cm`` scales the rect; ``0.5 g`` paints mid-gray."""
    pages = rasterize_vector_pages(
        _minimal_pdf(b"q 2 0 0 2 0 0 cm 0.5 g 5 5 10 10 re f Q"), dpi=72)
    img = pages[0]
    # rect [5,15)x[5,15) user, doubled -> [10,30) device x, rows [42,62)
    assert (img[42:62, 10:30] == 128).all()
    assert (img[:42] == 255).all()


def test_nonrect_path_fill_raises():
    with pytest.raises(UnsupportedVectorPdf, match="non-rect"):
        rasterize_vector_pages(
            _minimal_pdf(b"0 0 m 10 0 l 10 10 l f"), dpi=72)


def test_outline_font_raises():
    res = b"<< /Font << /F1 5 0 R >> >>"
    extra = (b"5 0 obj\n<< /Type /Font /Subtype /Type1 "
             b"/BaseFont /Helvetica >>\nendobj\n")
    with pytest.raises(UnsupportedVectorPdf, match="Type1"):
        rasterize_vector_pages(
            _minimal_pdf(b"BT /F1 12 Tf (hi) Tj ET", extra, res), dpi=72)


def test_inline_image_gray_on_page():
    """BI/ID/EI 8-bit gray placed by ``cm`` (unit square -> rect)."""
    samples = bytes(range(0, 16))  # 4x4 gray ramp
    content = (b"q 4 0 0 4 10 10 cm BI /W 4 /H 4 /BPC 8 /CS /G ID "
               + samples + b" EI Q")
    img = rasterize_vector_pages(_minimal_pdf(content), dpi=72)[0]
    # image occupies user [10,14)x[10,14) -> device rows [58,62)
    block = img[58:62, 10:14]
    # row 0 of the image (values 0..3) lands at the TOP of the block
    assert block[0].tolist() == [0, 1, 2, 3]
    assert block[3].tolist() == [12, 13, 14, 15]


def test_invisible_text_mode_paints_nothing():
    """Tr 3 (the OCR-text-layer mode): glyphs advance but never ink."""
    spec = page_spec_for_ref("vec-tr3")
    pdf = vector_pdf_for_spec(spec)
    # force Tr 3 right after BT
    pdf = pdf.replace(b"BT /F1", b"BT 3 Tr /F1", 1)
    img = rasterize_vector_pages(pdf, dpi=400)[0]
    assert (img == 255).all()


def test_type3_advance_widths():
    """Sequential Tj advances by Widths through FontMatrix: two 'x'
    glyphs 8 glyph-units wide at size 1000 land 8 px apart at 72 dpi."""
    bits = np.zeros((4, 4), np.uint8)
    bits[:, 0] = 1  # left-edge bar
    payload = np.packbits(bits, axis=1).tobytes()
    proc = (b"8 0 d0 4 0 0 4 0 0 cm BI /IM true /W 4 /H 4 /D [1 0] ID "
            + payload + b" EI")
    extra = (
        b"5 0 obj\n<< /Type /Font /Subtype /Type3 "
        b"/FontMatrix [0.001 0 0 0.001 0 0] /FontBBox [0 0 0 0] "
        b"/CharProcs << /gx 6 0 R >> "
        b"/Encoding << /Differences [ 65 /gx ] >> "
        b"/FirstChar 65 /LastChar 65 /Widths [ 8 ] >>\nendobj\n"
        b"6 0 obj\n<< /Length %d >>\nstream\n" % len(proc)
        + proc + b"\nendstream\nendobj\n")
    res = b"<< /Font << /F1 5 0 R >> >>"
    content = b"BT /F1 1000 Tf 10 10 Td (AA) Tj ET"
    img = rasterize_vector_pages(_minimal_pdf(content, extra, res),
                                 dpi=72)[0]
    cols = sorted(set(np.nonzero(img < 128)[1].tolist()))
    # glyph bars at x=10 and x=18 (4px wide at scale 4000*0.001=4)
    assert cols[0] == 10 and 18 in cols


# ---------------------------------------------------------------------------
# fixture-parity + the full S11 path


def test_vector_pdf_pixel_parity():
    """The generated text-PDF rasterizes pixel-identically to the
    fixture renderer — exact, not approximate."""
    for ref in ("vec-0001", "vec-0002", "vec-0003"):
        spec = page_spec_for_ref(ref)
        pdf = vector_pdf_for_spec(spec)
        from tensorflow_ocr_ray.core.pdfimage import pdf_page_images

        assert pdf_page_images(pdf) == []  # truly vector: no page image
        pages = rasterize_vector_pages(pdf, dpi=400)
        assert len(pages) == 1
        truth = render_page(spec)
        assert pages[0].shape == truth.shape
        assert np.array_equal(pages[0] < 128, truth > 0)


def test_pdf_to_tiff_pages_vector_path(tmp_path):
    """The seam function takes the in-process vector path (no gs, no
    NotImplementedError) and returns decodable TIFFs."""
    from tensorflow_ocr_ray.core.raster import decode_payload_pages
    from tensorflow_ocr_ray.sources.pdf import pdf_to_tiff_pages

    spec = page_spec_for_ref("vec-seam")
    path = tmp_path / "doc.pdf"
    path.write_bytes(vector_pdf_for_spec(spec))
    tiffs = pdf_to_tiff_pages(str(path))
    assert len(tiffs) == 1
    (page,) = decode_payload_pages(tiffs[0])
    truth = render_page(spec)
    assert np.array_equal(page > 0, truth > 0)


def test_e2e_vector_pdf_ocr_text(ray_session, tmp_path):
    """Full S11 on VECTOR input with no fake and no Ghostscript:
    text-PDF -> in-process rasterize -> media store -> real OCR ->
    exact construction-derived text."""
    from tensorflow_ocr_ray.fixtures import expected_page_text
    from tensorflow_ocr_ray.pipelines.ocr_pipeline import ocr_documents
    from tensorflow_ocr_ray.sources.pdf import pdf_documents

    specs = {f"vdoc{i}": page_spec_for_ref(f"vec-e2e-{i}")
             for i in range(2)}
    pdfs = []
    for name, spec in specs.items():
        p = tmp_path / f"{name}.pdf"
        p.write_bytes(vector_pdf_for_spec(spec))
        pdfs.append(str(p))
    media_root = str(tmp_path / "media")
    out = ocr_documents(
        pdf_documents(pdfs, media_root),
        concurrency=2, batch_size=2,
        media_spec={"kind": "dir", "path": media_root},
    )
    rows = {r["doc_id"]: r for r in out.take_all()}
    assert sorted(rows) == sorted(specs)
    for name, spec in specs.items():
        (span,) = rows[name]["spans"]
        assert span["text"] == expected_page_text(spec)
