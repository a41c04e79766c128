"""core/pdfimage: pure-Python PDF scanned-image extraction.

Fixtures are PDFs crafted byte-by-byte IN THESE TESTS from the PDF
32000-1:2008 spec (classic xref tables, xref streams, object streams,
filter chains) — the same independent-encoder verification style as
test_jpeg / test_png / test_codecs.  The image payloads reuse the
repo's own spec encoders (ccitt.encode_g4, test_jpeg.encode_gray_jpeg)
so decode is checked against a known pixel ground truth.
"""

import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from tensorflow_ocr_ray.core.ccitt import encode_g4
from tensorflow_ocr_ray.core.pdfimage import PdfFile, pdf_page_images
from tensorflow_ocr_ray.core.raster import decode_tiff


# ---------------------------------------------------------------------------
# fixture builders


def build_pdf(objects: dict[int, bytes], root_num: int,
              trailer_extra: bytes = b"") -> bytes:
    """Classic-xref PDF: objects is {num: body-bytes} (body excludes the
    'N 0 obj'/'endobj' wrapper)."""
    out = bytearray(b"%PDF-1.4\n")
    offsets = {}
    for num in sorted(objects):
        offsets[num] = len(out)
        out += b"%d 0 obj\n" % num
        out += objects[num]
        out += b"\nendobj\n"
    xref_at = len(out)
    maxn = max(objects) + 1
    out += b"xref\n0 %d\n" % maxn
    out += b"0000000000 65535 f \n"
    for num in range(1, maxn):
        if num in offsets:
            out += b"%010d 00000 n \n" % offsets[num]
        else:
            out += b"0000000000 65535 f \n"
    out += (b"trailer\n<< /Size %d /Root %d 0 R " % (maxn, root_num)
            + trailer_extra + b">>\nstartxref\n%d\n%%%%EOF\n" % xref_at)
    return bytes(out)


def stream_obj(d: bytes, payload: bytes) -> bytes:
    return (b"<< " + d + b" /Length %d >>\nstream\n" % len(payload)
            + payload + b"\nendstream")


def one_image_pdf(img_body: bytes, extra_pages: list[bytes] = ()) -> bytes:
    """Catalog → Pages → one Page whose /XObject Im0 is img_body."""
    objs = {
        1: b"<< /Type /Catalog /Pages 2 0 R >>",
        2: b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
        3: (b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
            b"/Resources << /XObject << /Im0 4 0 R >> >> >>"),
        4: img_body,
    }
    return build_pdf(objs, 1)


def gray_ramp(h, w):
    return ((np.arange(h * w, dtype=np.uint32) * 251) % 256).astype(
        np.uint8).reshape(h, w)


# ---------------------------------------------------------------------------
# filters + colorspaces


def test_flate_gray8_roundtrip():
    img = gray_ramp(13, 17)
    body = stream_obj(
        b"/Subtype /Image /Width 17 /Height 13 /BitsPerComponent 8 "
        b"/ColorSpace /DeviceGray /Filter /FlateDecode",
        zlib.compress(img.tobytes()))
    pages = pdf_page_images(one_image_pdf(body))
    assert len(pages) == 1
    np.testing.assert_array_equal(pages[0], img)


def test_flate_png_predictor_up():
    img = gray_ramp(9, 11)
    # PNG Up filter rows (spec 7.4.4.4): row - prev_row, filter byte 2
    raw = bytearray()
    prev = np.zeros(11, dtype=np.uint8)
    for y in range(9):
        raw.append(2)
        raw += ((img[y].astype(np.int16) - prev) % 256).astype(
            np.uint8).tobytes()
        prev = img[y]
    body = stream_obj(
        b"/Subtype /Image /Width 11 /Height 9 /BitsPerComponent 8 "
        b"/ColorSpace /DeviceGray /Filter /FlateDecode "
        b"/DecodeParms << /Predictor 15 /Columns 11 >>",
        zlib.compress(bytes(raw)))
    np.testing.assert_array_equal(pdf_page_images(one_image_pdf(body))[0],
                                  img)


def test_ccitt_g4_ink_to_gray():
    ink = np.zeros((20, 64), dtype=np.uint8)
    ink[4:9, 10:30] = 1
    ink[15, ::3] = 1
    body = stream_obj(
        b"/Subtype /Image /Width 64 /Height 20 /BitsPerComponent 1 "
        b"/ColorSpace /DeviceGray /Filter /CCITTFaxDecode "
        b"/DecodeParms << /K -1 /Columns 64 /Rows 20 >>",
        encode_g4(ink))
    got = pdf_page_images(one_image_pdf(body))[0]
    np.testing.assert_array_equal(got, (1 - ink) * np.uint8(255))


def test_dct_jpeg_luma():
    from test_jpeg import encode_gray_jpeg

    img = gray_ramp(16, 24)
    payload = encode_gray_jpeg(img)
    body = stream_obj(
        b"/Subtype /Image /Width 24 /Height 16 /BitsPerComponent 8 "
        b"/ColorSpace /DeviceGray /Filter /DCTDecode", payload)
    got = pdf_page_images(one_image_pdf(body))[0]
    assert got.shape == img.shape
    assert np.abs(got.astype(int) - img.astype(int)).mean() < 12


def test_chained_ahx_rle():
    img = gray_ramp(5, 7)
    rle = bytearray()
    for row in img:  # literal runs, PackBits byte scheme
        rle.append(len(row) - 1)
        rle += row.tobytes()
    rle.append(128)
    hexed = bytes(rle).hex().encode("ascii") + b">"
    body = stream_obj(
        b"/Subtype /Image /Width 7 /Height 5 /BitsPerComponent 8 "
        b"/ColorSpace /DeviceGray "
        b"/Filter [/ASCIIHexDecode /RunLengthDecode]", hexed)
    np.testing.assert_array_equal(pdf_page_images(one_image_pdf(body))[0],
                                  img)


def test_ascii85_flate():
    import base64

    img = gray_ramp(6, 6)
    a85 = base64.a85encode(zlib.compress(img.tobytes()), adobe=True)
    body = stream_obj(
        b"/Subtype /Image /Width 6 /Height 6 /BitsPerComponent 8 "
        b"/ColorSpace /DeviceGray /Filter [/ASCII85Decode /FlateDecode]",
        a85)
    np.testing.assert_array_equal(pdf_page_images(one_image_pdf(body))[0],
                                  img)


def test_rgb_luma_and_1bit_gray():
    rgb = np.zeros((4, 4, 3), dtype=np.uint8)
    rgb[..., 0] = 200
    rgb[..., 1] = 100
    rgb[..., 2] = 50
    body = stream_obj(
        b"/Subtype /Image /Width 4 /Height 4 /BitsPerComponent 8 "
        b"/ColorSpace /DeviceRGB /Filter /FlateDecode",
        zlib.compress(rgb.tobytes()))
    got = pdf_page_images(one_image_pdf(body))[0]
    expect = (77 * 200 + 150 * 100 + 29 * 50) >> 8
    assert (got == expect).all()

    bits = np.array([[1, 0, 1, 0, 1, 0, 1, 0]], dtype=np.uint8)
    body = stream_obj(
        b"/Subtype /Image /Width 8 /Height 1 /BitsPerComponent 1 "
        b"/ColorSpace /DeviceGray", np.packbits(bits).tobytes())
    got = pdf_page_images(one_image_pdf(body))[0]
    np.testing.assert_array_equal(got, bits * np.uint8(255))


def test_indexed_palette_and_decode_inversion():
    pal = bytes([0, 0, 0, 255, 255, 255, 255, 0, 0])  # black, white, red
    idx = np.array([[0, 1, 2, 1]], dtype=np.uint8)
    body = stream_obj(
        b"/Subtype /Image /Width 4 /Height 1 /BitsPerComponent 8 "
        b"/ColorSpace [/Indexed /DeviceRGB 2 <"
        + pal.hex().encode() + b">]", idx.tobytes())
    got = pdf_page_images(one_image_pdf(body))[0]
    red_luma = (77 * 255) >> 8
    np.testing.assert_array_equal(got, [[0, 255, red_luma, 255]])

    img = gray_ramp(3, 3)
    body = stream_obj(
        b"/Subtype /Image /Width 3 /Height 3 /BitsPerComponent 8 "
        b"/ColorSpace /DeviceGray /Decode [1 0] /Filter /FlateDecode",
        zlib.compress(img.tobytes()))
    np.testing.assert_array_equal(pdf_page_images(one_image_pdf(body))[0],
                                  255 - img)


def test_image_mask():
    bits = np.array([[1, 1, 0, 0, 1, 0, 1, 1]], dtype=np.uint8)
    body = stream_obj(
        b"/Subtype /Image /Width 8 /Height 1 /ImageMask true",
        np.packbits(bits).tobytes())
    got = pdf_page_images(one_image_pdf(body))[0]
    np.testing.assert_array_equal(got, bits * np.uint8(255))


# ---------------------------------------------------------------------------
# structure


def test_multipage_order_and_largest_image_wins():
    imgs = [gray_ramp(6, 6) + i for i in range(3)]
    thumb = np.full((2, 2), 9, dtype=np.uint8)
    objs = {
        1: b"<< /Type /Catalog /Pages 2 0 R >>",
        2: b"<< /Type /Pages /Kids [3 0 R 5 0 R 7 0 R] /Count 3 >>",
    }
    for p, num in enumerate((3, 5, 7)):
        extra = b" /Th 9 0 R" if p == 0 else b""
        objs[num] = (b"<< /Type /Page /Parent 2 0 R /Resources "
                     b"<< /XObject << /Im0 %d 0 R%s >> >> >>"
                     % (num + 1, extra))
        objs[num + 1] = stream_obj(
            b"/Subtype /Image /Width 6 /Height 6 /BitsPerComponent 8 "
            b"/ColorSpace /DeviceGray /Filter /FlateDecode",
            zlib.compress(imgs[p].tobytes()))
    objs[9] = stream_obj(  # smaller thumbnail on page 1 must lose
        b"/Subtype /Image /Width 2 /Height 2 /BitsPerComponent 8 "
        b"/ColorSpace /DeviceGray", thumb.tobytes())
    pages = pdf_page_images(build_pdf(objs, 1))
    assert len(pages) == 3
    for p in range(3):
        np.testing.assert_array_equal(pages[p], imgs[p])


def test_indirect_length_and_vector_page_skipped():
    img = gray_ramp(4, 4)
    payload = zlib.compress(img.tobytes())
    objs = {
        1: b"<< /Type /Catalog /Pages 2 0 R >>",
        2: b"<< /Type /Pages /Kids [3 0 R 6 0 R] /Count 2 >>",
        3: (b"<< /Type /Page /Parent 2 0 R /Resources "
            b"<< /XObject << /Im0 4 0 R >> >> >>"),
        4: (b"<< /Subtype /Image /Width 4 /Height 4 /BitsPerComponent 8"
            b" /ColorSpace /DeviceGray /Filter /FlateDecode /Length 5 0 R"
            b" >>\nstream\n" + payload + b"\nendstream"),
        5: b"%d" % len(payload),
        6: b"<< /Type /Page /Parent 2 0 R /Contents 7 0 R >>",  # vector
        7: stream_obj(b"", b"0 0 m 10 10 l S"),
    }
    pages = pdf_page_images(build_pdf(objs, 1))
    assert len(pages) == 1  # vector page skipped, documented behavior
    np.testing.assert_array_equal(pages[0], img)


def test_xref_stream_and_objstm():
    """PDF 1.5 layout: page/catalog dicts inside an /ObjStm, xref as a
    W-packed stream — image stream stays top-level (spec: object
    streams contain no streams)."""
    img = gray_ramp(8, 5)
    out = bytearray(b"%PDF-1.5\n")
    offsets = {}

    def put(num, body):
        offsets[num] = len(out)
        out.extend(b"%d 0 obj\n" % num + body + b"\nendobj\n")

    img_body = stream_obj(
        b"/Subtype /Image /Width 5 /Height 8 /BitsPerComponent 8 "
        b"/ColorSpace /DeviceGray /Filter /FlateDecode",
        zlib.compress(img.tobytes()))
    put(4, img_body)
    # objects 1..3 (catalog, pages, page) live in object stream 5
    inner = [
        (1, b"<< /Type /Catalog /Pages 2 0 R >>"),
        (2, b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>"),
        (3, b"<< /Type /Page /Parent 2 0 R /Resources "
            b"<< /XObject << /Im0 4 0 R >> >> >>"),
    ]
    hdr = b""
    bodies = b""
    for num, b in inner:
        hdr += b"%d %d " % (num, len(bodies))
        bodies += b + b" "
    objstm_payload = zlib.compress(hdr + bodies)
    put(5, b"<< /Type /ObjStm /N 3 /First %d /Filter /FlateDecode "
           b"/Length %d >>\nstream\n" % (len(hdr), len(objstm_payload))
           + objstm_payload + b"\nendstream")
    # xref stream object 6: entries for objects 0..6, W [1 4 2]
    xref_at = len(out)
    rows = []
    ent = {0: (0, 0, 65535), 4: (1, offsets[4], 0), 5: (1, offsets[5], 0),
           1: (2, 5, 0), 2: (2, 5, 1), 3: (2, 5, 2), 6: (1, xref_at, 0)}
    for num in range(7):
        t, f2, f3 = ent[num]
        rows.append(bytes([t]) + f2.to_bytes(4, "big") + f3.to_bytes(2, "big"))
    xref_payload = zlib.compress(b"".join(rows))
    out += (b"6 0 obj\n<< /Type /XRef /Size 7 /W [1 4 2] /Root 1 0 R "
            b"/Filter /FlateDecode /Length %d >>\nstream\n"
            % len(xref_payload) + xref_payload + b"\nendstream\nendobj\n")
    out += b"startxref\n%d\n%%%%EOF\n" % xref_at
    pages = pdf_page_images(bytes(out))
    assert len(pages) == 1
    np.testing.assert_array_equal(pages[0], img)


def test_broken_xref_falls_back_to_scan():
    img = gray_ramp(4, 6)
    body = stream_obj(
        b"/Subtype /Image /Width 6 /Height 4 /BitsPerComponent 8 "
        b"/ColorSpace /DeviceGray /Filter /FlateDecode",
        zlib.compress(img.tobytes()))
    pdf = one_image_pdf(body)
    # corrupt the startxref offset
    broken = pdf.replace(b"startxref\n", b"startxref\n9999999 %", 1)
    pages = pdf_page_images(broken)
    assert len(pages) == 1
    np.testing.assert_array_equal(pages[0], img)


def test_not_a_pdf_and_unsupported_codec():
    with pytest.raises(ValueError):
        pdf_page_images(b"II*\x00 not a pdf")
    body = stream_obj(
        b"/Subtype /Image /Width 4 /Height 4 /BitsPerComponent 8 "
        b"/ColorSpace /DeviceGray /Filter /JPXDecode", b"\x00" * 16)
    with pytest.raises(ValueError, match="JPXDecode"):
        pdf_page_images(one_image_pdf(body))


# ---------------------------------------------------------------------------
# sources/pdf.py integration: the S11 seam now runs without Ghostscript


def test_pdf_to_tiff_pages_pure_python(tmp_path):
    from tensorflow_ocr_ray.sources.pdf import pdf_to_tiff_pages

    imgs = [gray_ramp(10, 12), gray_ramp(10, 12) + 40]
    objs = {
        1: b"<< /Type /Catalog /Pages 2 0 R >>",
        2: b"<< /Type /Pages /Kids [3 0 R 5 0 R] /Count 2 >>",
    }
    for p, num in enumerate((3, 5)):
        objs[num] = (b"<< /Type /Page /Parent 2 0 R /Resources "
                     b"<< /XObject << /Im0 %d 0 R >> >> >>" % (num + 1))
        objs[num + 1] = stream_obj(
            b"/Subtype /Image /Width 12 /Height 10 /BitsPerComponent 8 "
            b"/ColorSpace /DeviceGray /Filter /FlateDecode",
            zlib.compress(imgs[p].tobytes()))
    path = tmp_path / "scan.pdf"
    path.write_bytes(build_pdf(objs, 1))
    pages = pdf_to_tiff_pages(str(path))
    assert len(pages) == 2
    for p, payload in enumerate(pages):
        arr, bits = decode_tiff(payload)
        assert bits == 8
        np.testing.assert_array_equal(arr, imgs[p])


def test_vector_pdf_still_needs_ghostscript(tmp_path):
    from tensorflow_ocr_ray.sources import pdf as pdfmod

    objs = {
        1: b"<< /Type /Catalog /Pages 2 0 R >>",
        2: b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
        3: b"<< /Type /Page /Parent 2 0 R /Contents 4 0 R >>",
        4: stream_obj(b"", b"BT /F1 12 Tf (hi) Tj ET"),
    }
    path = tmp_path / "vector.pdf"
    path.write_bytes(build_pdf(objs, 1))
    if pdfmod.ghostscript_available():  # pragma: no cover - no gs here
        pytest.skip("gs present; seam exercises the real converter")
    with pytest.raises(NotImplementedError, match="Ghostscript"):
        pdfmod.pdf_to_tiff_pages(str(path))


def test_pdf_documents_end_to_end_ocr(tmp_path, ray_session):
    """A G4-scanned PDF flows pdf_documents → media store → the OCR
    raster path (decode_payload binarization) with no external tool."""
    from tensorflow_ocr_ray.core.raster import decode_payload
    from tensorflow_ocr_ray.sources.pdf import pdf_documents
    from tensorflow_ocr_ray.state.media import DirMediaStore

    ink = np.zeros((16, 32), dtype=np.uint8)
    ink[3:8, 4:28] = 1
    body = stream_obj(
        b"/Subtype /Image /Width 32 /Height 16 /BitsPerComponent 1 "
        b"/ColorSpace /DeviceGray /Filter /CCITTFaxDecode "
        b"/DecodeParms << /K -1 /Columns 32 /Rows 16 >>",
        encode_g4(ink))
    path = tmp_path / "book.pdf"
    path.write_bytes(one_image_pdf(body))
    media_root = str(tmp_path / "media")
    rows = pdf_documents([str(path)], media_root).take_all()
    assert len(rows) == 1 and rows[0]["doc_id"] == "book"
    spans = rows[0]["spans"]
    assert len(spans) == 1 and spans[0]["kind"] == "media"
    payload = DirMediaStore(media_root).get(spans[0]["media_ref"])
    np.testing.assert_array_equal(decode_payload(payload), ink)


def test_image_stage_accepts_pdf_payload(ray_session):
    """ImageStatsStage consumes a raw scanned-PDF payload via the
    decode_payload %PDF dispatch (same contract as JPEG/PNG)."""
    import pyarrow as pa

    from tensorflow_ocr_ray.stages.multimodal import ImageStatsStage

    img = np.full((16, 16), 255, dtype=np.uint8)
    img[4:8, 4:12] = 0
    body = stream_obj(
        b"/Subtype /Image /Width 16 /Height 16 /BitsPerComponent 8 "
        b"/ColorSpace /DeviceGray /Filter /FlateDecode",
        zlib.compress(img.tobytes()))
    batch = pa.table(
        {"media_ref": pa.array(["p1"]),
         "image": pa.array([one_image_pdf(body)], type=pa.binary())}
    )
    out = ImageStatsStage()(batch)
    assert out.column("height").to_pylist() == [16]
    assert out.column("width").to_pylist() == [16]
    assert abs(out.column("ink_ratio").to_pylist()[0] - 32 / 256) < 1e-9


def test_media_pdf_pages_registry_entry(ray_session):
    """The registry's scanned-PDF pipeline: 500 deterministic G4 PDFs →
    ImageStatsStage; every page decodes to the synthesized 24x40 ink."""
    import __ray_entry__ as e

    df = e.queries()["media_pdf_pages"]("/root/testdata/sf0.001")
    if hasattr(df, "to_pandas"):
        df = df.to_pandas()
    assert len(df) == 500
    assert set(df.columns) == {"media_ref", "height", "width", "ink_ratio",
                               "centroid_y", "centroid_x"}
    assert (df["height"] == 24).all() and (df["width"] == 40).all()
    assert (df["ink_ratio"] > 0).all()
    # spot-check one doc against the synthesis rule
    row = df[df["media_ref"] == "7"].iloc[0]
    ink = np.zeros((24, 40), dtype=np.uint8)
    ink[2 + 7 % 10:2 + 7 % 10 + 6, 2:14] = 1
    ink[21, 2::4] = 1
    assert abs(row["ink_ratio"] - ink.sum() / ink.size) < 1e-5


# ---------------------------------------------------------------------------
# property tests (hypothesis): random images through random filter chains


from hypothesis import given, settings
from hypothesis import strategies as st


def _rle_encode(data: bytes) -> bytes:
    out = bytearray()
    i = 0
    while i < len(data):
        chunk = data[i:i + 128]
        out.append(len(chunk) - 1)
        out += chunk
        i += len(chunk)
    out.append(128)
    return bytes(out)


@settings(max_examples=40, deadline=None)
@given(
    h=st.integers(1, 24),
    w=st.integers(1, 40),
    seed=st.integers(0, 2**31 - 1),
    chain=st.sampled_from(
        ["flate", "rle", "ahx+flate", "a85+rle", "flate_pred"]),
)
def test_random_gray_filter_chains(h, w, seed, chain):
    import base64

    rng = np.random.Generator(np.random.PCG64(seed))
    img = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
    raw = img.tobytes()
    if chain == "flate":
        filt, data = b"/Filter /FlateDecode", zlib.compress(raw)
    elif chain == "rle":
        filt, data = b"/Filter /RunLengthDecode", _rle_encode(raw)
    elif chain == "ahx+flate":
        filt = b"/Filter [/ASCIIHexDecode /FlateDecode]"
        data = zlib.compress(raw).hex().encode() + b">"
    elif chain == "a85+rle":
        filt = b"/Filter [/ASCII85Decode /RunLengthDecode]"
        data = base64.a85encode(_rle_encode(raw), adobe=True)
    else:  # flate + PNG Sub predictor rows
        rows = bytearray()
        for y in range(h):
            rows.append(1)  # Sub
            prev = 0
            for x in range(w):
                rows.append((int(img[y, x]) - prev) & 0xFF)
                prev = int(img[y, x])
        filt = (b"/Filter /FlateDecode /DecodeParms "
                b"<< /Predictor 11 /Columns %d >>" % w)
        data = zlib.compress(bytes(rows))
    body = stream_obj(
        b"/Subtype /Image /Width %d /Height %d /BitsPerComponent 8 "
        b"/ColorSpace /DeviceGray " % (w, h) + filt, data)
    np.testing.assert_array_equal(pdf_page_images(one_image_pdf(body))[0],
                                  img)


@settings(max_examples=25, deadline=None)
@given(
    h=st.integers(1, 20),
    w=st.integers(1, 48),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31 - 1),
)
def test_random_g4_pdf_roundtrip(h, w, density, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    ink = (rng.random((h, w)) < density).astype(np.uint8)
    body = stream_obj(
        b"/Subtype /Image /Width %d /Height %d /BitsPerComponent 1 "
        b"/ColorSpace /DeviceGray /Filter /CCITTFaxDecode "
        b"/DecodeParms << /K -1 /Columns %d /Rows %d >>" % (w, h, w, h),
        encode_g4(ink))
    got = pdf_page_images(one_image_pdf(body))[0]
    np.testing.assert_array_equal(got, (1 - ink) * np.uint8(255))


# ---------------------------------------------------------------------------
# inline images (BI/ID/EI)


def _content_page_pdf(content: bytes, extra_objs=None) -> bytes:
    objs = {
        1: b"<< /Type /Catalog /Pages 2 0 R >>",
        2: b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
        3: b"<< /Type /Page /Parent 2 0 R /Contents 4 0 R %s>>"
           % (extra_objs or {}).pop("page_extra", b""),
        4: stream_obj(b"", content),
    }
    for k, v in (extra_objs or {}).items():
        objs[k] = v
    return build_pdf(objs, 1)


def test_inline_image_unfiltered():
    img = gray_ramp(6, 9)
    content = (b"q BI /W 9 /H 6 /BPC 8 /CS /G ID " + img.tobytes()
               + b" EI Q")
    pages = pdf_page_images(_content_page_pdf(content))
    assert len(pages) == 1
    np.testing.assert_array_equal(pages[0], img)


def test_inline_image_flate_abbreviated():
    img = gray_ramp(8, 7)
    content = (b"BI /W 7 /H 8 /BPC 8 /CS /G /F /Fl ID "
               + zlib.compress(img.tobytes()) + b"\nEI")
    np.testing.assert_array_equal(
        pdf_page_images(_content_page_pdf(content))[0], img)


def test_inline_image_payload_containing_EI_bytes():
    """RunLength payload deliberately contains ' EI ' — the scanner's
    decode-validation must reject the false terminator and find the
    real one."""
    row = np.frombuffer(b"\x10 EI \x11\x12\x13", dtype=np.uint8)
    img = np.tile(row, (3, 1))
    rle = bytearray()
    for r in img:
        rle.append(len(r) - 1)
        rle += r.tobytes()
    rle.append(128)
    assert b" EI " in bytes(rle)
    content = (b"BI /W %d /H 3 /BPC 8 /CS /G /F /RL ID " % img.shape[1]
               + bytes(rle) + b" EI")
    np.testing.assert_array_equal(
        pdf_page_images(_content_page_pdf(content))[0], img)


def test_inline_loses_to_larger_xobject():
    small = gray_ramp(2, 2)
    big = gray_ramp(10, 10)
    content = (b"BI /W 2 /H 2 /BPC 8 /CS /G ID " + small.tobytes()
               + b" EI Do /Im0 Do")
    extra = {
        "page_extra": b"/Resources << /XObject << /Im0 5 0 R >> >> ",
        5: stream_obj(
            b"/Subtype /Image /Width 10 /Height 10 /BitsPerComponent 8 "
            b"/ColorSpace /DeviceGray /Filter /FlateDecode",
            zlib.compress(big.tobytes())),
    }
    np.testing.assert_array_equal(
        pdf_page_images(_content_page_pdf(content, extra))[0], big)


@settings(max_examples=60, deadline=2000)
@given(seed=st.integers(0, 2**31 - 1), nmut=st.integers(1, 40))
def test_fuzz_mutated_pdf_never_hangs(seed, nmut):
    """Random byte mutations of a valid scanned PDF either decode or
    raise cleanly — the parser loops all make forward progress."""
    rng = np.random.Generator(np.random.PCG64(seed))
    img = gray_ramp(6, 9)
    body = stream_obj(
        b"/Subtype /Image /Width 9 /Height 6 /BitsPerComponent 8 "
        b"/ColorSpace /DeviceGray /Filter /FlateDecode",
        zlib.compress(img.tobytes()))
    pdf = bytearray(one_image_pdf(body))
    for _ in range(nmut):
        pdf[rng.integers(0, len(pdf))] = rng.integers(0, 256)
    try:
        pages = pdf_page_images(bytes(pdf))
        for p in pages:
            assert p.dtype == np.uint8
    except Exception:
        pass  # clean rejection is fine; hangs/crashes are not


def _g4_pdf_with(old: bytes, new: bytes) -> bytes:
    """The doc-3 CCITT-G4 PDF of the ``media_pdf_ink`` query with one
    edit."""
    import pandas as pd

    import __ray_entry__

    payload = __ray_entry__._pdf_payloads(
        pd.DataFrame({"doc_id": [3]})).column("image")[0].as_py()
    assert old in payload
    return payload.replace(old, new)


@pytest.mark.parametrize("edit,pages,text", [
    ((b"/Im0 4 0 R", b"/Im0 9 0 R"), 1, ""),
    ((b"/Width 40", b"/Width 9 0 R"), None, ""),
    ((b"/Resources <<", b"/Contents 9 0 R /Resources <<"), None, None),
    ((b"/Width 40", b"/Wxdth 40"), None, ""),
], ids=["xobject_ref", "width_ref", "contents_ref", "width_key"])
def test_missing_object_or_key_raises_valueerror(edit, pages, text):
    """A reference to an object that is neither in the xref nor found by
    the object scan, or an image without /Width, raises ``ValueError``
    (it was ``KeyError``) from the page decoder and the layout parse
    wherever it is read (``None`` below); a page image whose reference
    is dangling is still found by the scan over every image XObject."""
    from tensorflow_ocr_ray.core.pdftext import extract_text_layout
    from tensorflow_ocr_ray.core.raster import decode_payload_pages

    payload = _g4_pdf_with(*edit)
    for read, want in ((decode_payload_pages, pages),
                       (extract_text_layout, text)):
        if want is None:
            with pytest.raises(ValueError):
                read(payload)
        elif read is decode_payload_pages:
            assert len(read(payload)) == want
        else:
            assert read(payload) == want
