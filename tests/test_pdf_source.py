"""PDF ingestion seam (S11): the conversion itself is external
(Ghostscript; absent here), but the Ray-side fan-out, media-store
layout and span construction are real — tested with a fake converter."""

from __future__ import annotations

import numpy as np
import pytest


def test_gs_seam_raises_with_command(tmp_path):
    """Scanned PDFs decode in-process (core/pdfimage) and subset
    vector PDFs rasterize in-process (core/pdfvector); the Ghostscript
    seam remains only for OUTLINE-FONT / curve-path content — it must
    still surface the exact command plus the subset reason."""
    from tensorflow_ocr_ray.sources.pdf import (
        ghostscript_available,
        pdf_to_tiff_pages,
    )

    if ghostscript_available():  # pragma: no cover - not in this container
        pytest.skip("gs present; seam exercised for real elsewhere")
    content = b"BT /F1 12 Tf 72 700 Td (Hello) Tj ET"
    path = tmp_path / "vector.pdf"
    head = (
        b"%PDF-1.4\n"
        b"1 0 obj\n<< /Type /Catalog /Pages 2 0 R >>\nendobj\n"
        b"2 0 obj\n<< /Type /Pages /Kids [3 0 R] /Count 1 >>\nendobj\n"
        b"3 0 obj\n<< /Type /Page /Parent 2 0 R "
        b"/MediaBox [0 0 612 792] "
        b"/Resources << /Font << /F1 5 0 R >> >> "
        b"/Contents 4 0 R >>\nendobj\n"
    )
    stream = (b"4 0 obj\n<< /Length " + str(len(content)).encode()
              + b" >>\nstream\n" + content + b"\nendstream\nendobj\n")
    tail = (
        b"5 0 obj\n<< /Type /Font /Subtype /Type1 "
        b"/BaseFont /Helvetica >>\nendobj\n"
        b"trailer\n<< /Size 6 /Root 1 0 R >>\n"
    )
    path.write_bytes(head + stream + tail)
    with pytest.raises(NotImplementedError, match="tiffgray"):
        pdf_to_tiff_pages(str(path))
    with pytest.raises(NotImplementedError, match="Type1"):
        pdf_to_tiff_pages(str(path))


def test_pdf_documents_layout_and_ocr(ray_session, tmp_path):
    """Fake converter → documents rows → the REAL OCR pipeline."""
    from tensorflow_ocr_ray.core.raster import encode_tiff
    from tensorflow_ocr_ray.fixtures import page_spec_for_ref, render_page
    from tensorflow_ocr_ray.pipelines.ocr_pipeline import ocr_documents
    from tensorflow_ocr_ray.sources.pdf import pdf_documents

    def fake_converter(path):
        # 2 deterministic rendered pages per "pdf"
        return [
            encode_tiff(
                render_page(page_spec_for_ref(f"page-42-{i:06d}-0")),
                bilevel=True, compression="g4",
            )
            for i in range(2)
        ]

    pdfs = [str(tmp_path / "book1.pdf"), str(tmp_path / "book2.pdf")]
    media_root = str(tmp_path / "media")
    ds = pdf_documents(pdfs, media_root, converter=fake_converter)
    rows = ds.take_all()
    assert sorted(r["doc_id"] for r in rows) == ["book1", "book2"]
    assert all(
        [s["media_ref"] for s in r["spans"]]
        == [f"{r['doc_id']}-p0", f"{r['doc_id']}-p1"]
        for r in rows
    )

    out = ocr_documents(
        pdf_documents(pdfs, media_root, converter=fake_converter),
        concurrency=2, batch_size=2,
        media_spec={"kind": "dir", "path": media_root},
    )
    got = out.take_all()
    assert len(got) == 2
    for row in got:
        for s in row["spans"]:
            assert s["kind"] == "media" and len(s["text"]) > 0


def test_pdf_documents_real_converter_ocr_text(ray_session, tmp_path):
    """The full S11 path with NO fake and NO Ghostscript: a scanned PDF
    (rendered fixture page as a CCITT-G4 image XObject) → in-process
    pdf_to_tiff_pages → media store → real OCR → EXACT text match with
    the construction-derived truth."""
    import numpy as np

    from tensorflow_ocr_ray.core.ccitt import encode_g4
    from tensorflow_ocr_ray.fixtures import (
        page_spec_for_ref,
        render_page,
        truth_for_ref,
    )
    from tensorflow_ocr_ray.pipelines.ocr_pipeline import ocr_documents
    from tensorflow_ocr_ray.sources.pdf import pdf_documents

    ref = "page-42-000007-0"
    ink = render_page(page_spec_for_ref(ref)).astype(np.uint8)
    h, w = ink.shape
    g4 = encode_g4(ink)
    body = bytearray(b"%PDF-1.4\n")
    offsets = {}

    def put(num, b):
        offsets[num] = len(body)
        body.extend(b"%d 0 obj\n" % num + b + b"\nendobj\n")

    put(1, b"<< /Type /Catalog /Pages 2 0 R >>")
    put(2, b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>")
    put(3, b"<< /Type /Page /Parent 2 0 R /Resources "
           b"<< /XObject << /Im0 4 0 R >> >> >>")
    put(4, b"<< /Subtype /Image /Width %d /Height %d /BitsPerComponent 1"
           b" /ColorSpace /DeviceGray /Filter /CCITTFaxDecode"
           b" /DecodeParms << /K -1 /Columns %d /Rows %d >> /Length %d >>"
           b"\nstream\n" % (w, h, w, h, len(g4)) + g4 + b"\nendstream")
    xref_at = len(body)
    body.extend(b"xref\n0 5\n0000000000 65535 f \n")
    for num in range(1, 5):
        body.extend(b"%010d 00000 n \n" % offsets[num])
    body.extend(b"trailer\n<< /Size 5 /Root 1 0 R >>\nstartxref\n"
                b"%d\n%%%%EOF\n" % xref_at)

    path = tmp_path / "scanned-book.pdf"
    path.write_bytes(bytes(body))
    media_root = str(tmp_path / "media")
    out = ocr_documents(
        pdf_documents([str(path)], media_root),  # REAL converter
        concurrency=2, batch_size=1,
        media_spec={"kind": "dir", "path": media_root},
    ).take_all()
    assert len(out) == 1 and out[0]["doc_id"] == "scanned-book"
    spans = out[0]["spans"]
    assert len(spans) == 1
    assert spans[0]["text"] == truth_for_ref(ref)
