"""PDF document-information dictionary (trailer /Info) — the metadata
sidecar of the layout parse (:mod:`core.pdftext` reads content streams;
this reads the object tree's Info dict).

The object tree is :mod:`core.pdfimage`'s: ``PdfFile`` finds the
trailer (through the xref, or the whole-file object scan when the xref
is broken) and resolves its ``/Info`` reference, and its ``_Parser``
decodes the strings — literal strings with ESCAPED parens and
backslashes (``(Doc 7 \\(v2\\))``), octal escapes, and hex strings
(``<41424344>``).  A decoy ``/Title`` inside a content stream is never
read: only the object the trailer references is.

Fixture synthesis is deterministic ``doc_id`` arithmetic (the repo's
media_* convention) so a DuckDB oracle re-derives every field without
parsing a byte.
"""

from __future__ import annotations

import re

from tensorflow_ocr_ray.core.pdfimage import PdfFile


def extract_pdf_info(payload: bytes) -> dict:
    """``{"title", "author", "created_year"}`` from the trailer's
    /Info object; empty-string / -1 when absent.  Only the trailer
    REFERENCE decides which object is the Info dict — a /Title
    appearing anywhere else (content stream decoy) is not metadata.
    A payload without a trailer or an Info entry, or whose Info object
    is missing or does not parse, gives that empty record."""
    out = {"title": "", "author": "", "created_year": -1}
    try:
        pdf = PdfFile(payload)
        info = pdf.resolve(pdf.trailer.get("Info"))
        if not isinstance(info, dict):
            return out
        fields = {key: pdf.resolve(info.get(key))
                  for key in ("Title", "Author", "CreationDate")}
    except ValueError:  # not a PDF, or Info missing or unparseable
        return out
    text = {key: val.decode("latin-1") for key, val in fields.items()
            if isinstance(val, bytes)}
    out["title"] = text.get("Title", "")
    out["author"] = text.get("Author", "")
    ym = re.match(r"D:(\d{4})", text.get("CreationDate", ""))
    if ym:
        out["created_year"] = int(ym.group(1))
    return out


def pdf_with_info_for(doc_id: int) -> bytes:
    """Minimal one-page PDF whose Info dict derives from ``doc_id``:
    title ``Doc {d} (v{d%5})`` (the parens are ESCAPED in the literal
    string), author ``A{d%20}`` (hex-encoded every third doc),
    creation year ``2000 + d % 30``.  A ``/Title (decoy)`` inside the
    content stream must never be read."""
    d = doc_id
    title = "Doc %d \\(v%d\\)" % (d, d % 5)
    if d % 3 == 0:
        author = "<%s>" % ("A%d" % (d % 20)).encode("latin-1").hex()
    else:
        author = "(A%d)" % (d % 20)
    stream = b"BT /Title (decoy) Td ET"
    objs = [
        b"<< /Type /Catalog /Pages 2 0 R >>",
        b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
        b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
        b"/Contents 4 0 R >>",
        b"<< /Length %d >>\nstream\n%s\nendstream"
        % (len(stream), stream),
        ("<< /Title (%s) /Author %s /CreationDate (D:20%02d0101) >>"
         % (title, author, d % 30)).encode("latin-1"),
    ]
    out = bytearray(b"%PDF-1.4\n")
    offsets = [0]
    for i, body in enumerate(objs, start=1):
        offsets.append(len(out))
        out += b"%d 0 obj\n" % i + body + b"\nendobj\n"
    xref_at = len(out)
    out += b"xref\n0 %d\n0000000000 65535 f \n" % (len(objs) + 1)
    for off in offsets[1:]:
        out += b"%010d 00000 n \n" % off
    out += (b"trailer\n<< /Size %d /Root 1 0 R /Info 5 0 R >>\n"
            b"startxref\n%d\n%%%%EOF\n" % (len(objs) + 1, xref_at))
    return bytes(out)
