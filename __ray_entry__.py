"""Driver contract for the graft builder (Ray Data target).

``entry()`` — flagship media-span OCR pipeline on a deterministic fixture
corpus (the engine's real workload; /root/testdata has no media payloads).

``queries()`` — one callable per implemented operator family from
SURVEY.md §2 plus the training-data-pipeline extensions (dedup, similarity
search, text analysis); ``oracle_sql()`` carries the DuckDB equivalent for
every SQL-expressible entry.  Column names match between both sides.

Ray is initialised by the driver BEFORE importing this module; nothing here
calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def _fixture_doc_count(sf_dir: str) -> int:
    """Documents in the fixture corpora of an sf tier."""
    return {"sf0.001": 24, "sf0.01": 64, "sf0.1": 160}.get(
        sf_dir.rstrip("/").rsplit("/", 1)[-1], 64
    )


def _fixture_docs(sf_dir: str, seed: int = 42):
    """Deterministic interleaved-documents corpus sized by the sf tier."""
    import ray.data as rd

    from tensorflow_ocr_ray.fixtures import generate_documents

    n = _fixture_doc_count(sf_dir)
    return rd.from_arrow(generate_documents(n, seed=seed)), n


def _fixture_web_docs(sf_dir: str):
    """The web-shaped twin of :func:`_fixture_docs` (html spans)."""
    import ray.data as rd

    from tensorflow_ocr_ray.fixtures import generate_web_documents

    return rd.from_arrow(
        generate_web_documents(_fixture_doc_count(sf_dir), seed=42))


def entry() -> Any:
    """Flagship: read interleaved docs → OCR media spans, one task per
    document batch.  Returns the output Dataset."""
    from tensorflow_ocr_ray.pipelines.ocr_pipeline import ocr_documents

    ds, n = _fixture_docs("/root/testdata/sf0.001")
    out = ocr_documents(ds, concurrency=None, batch_size=16, num_blocks=8)
    return out


# ---------------- OCR pipeline probes (rows-only: not SQL-expressible) ----

def _ocr_exploded(sf_dir: str):
    from tensorflow_ocr_ray.pipelines.ocr_pipeline import (
        explode_documents,
        ocr_documents,
    )

    ds, _ = _fixture_docs(sf_dir)
    out = ocr_documents(ds, concurrency=None, batch_size=16, num_blocks=8)
    return out.map_batches(explode_documents, batch_format="pyarrow")


def _extract_interleaved(sf_dir: str):
    """The full extraction tier in one pass (north_rule shape): html
    spans boilerplate-stripped, media spans OCR'd, text spans pass;
    span sequence preserved.  Exploded back to span rows for a stable
    flat schema."""
    from tensorflow_ocr_ray.pipelines.ocr_pipeline import (
        explode_documents,
        ocr_documents,
    )

    out = ocr_documents(
        _fixture_web_docs(sf_dir), concurrency=None, batch_size=16,
        num_blocks=8,
    )
    return out.map_batches(explode_documents, batch_format="pyarrow")


def _media_caption_pairs(sf_dir: str):
    """Caption-context pairs over the interleaved web corpus: each
    media span paired with the extracted text of the nearest preceding
    text/html span — zero-shuffle over the nested span rows."""
    from tensorflow_ocr_ray.pipelines.extract import media_caption_pairs

    return media_caption_pairs(_fixture_web_docs(sf_dir))


def _span_kind_transitions(sf_dir: str):
    """Span-kind bigram grid over the interleaved web corpus —
    zero-copy nested walk, bounded |kinds|^2 output, no shuffle."""
    from tensorflow_ocr_ray.pipelines.extract import span_kind_transitions

    return span_kind_transitions(_fixture_web_docs(sf_dir))


def _ocr_flood(sf_dir: str):
    """The -x flood-fill segmentation config through the full pipeline."""
    from tensorflow_ocr_ray.config import FIXTURE_CONFIG
    from tensorflow_ocr_ray.pipelines.ocr_pipeline import (
        explode_documents,
        ocr_documents,
    )

    ds, _ = _fixture_docs(sf_dir)
    out = ocr_documents(
        ds, concurrency=None, batch_size=8,
        cfg=FIXTURE_CONFIG.with_(use_flood=True),
        num_blocks=8,
    )
    return out.map_batches(explode_documents, batch_format="pyarrow")


def _ocr_postprocessed(sf_dir: str):
    """The Perl postprocess chain (fixutf8 | fixSholem) applied per span."""
    from tensorflow_ocr_ray.pipelines.ocr_pipeline import (
        explode_documents,
        ocr_documents,
    )

    ds, _ = _fixture_docs(sf_dir)
    out = ocr_documents(
        ds, concurrency=None, batch_size=8,
        postprocess=["fixutf8", "fixsholem"],
        num_blocks=8,
    )
    return out.map_batches(explode_documents, batch_format="pyarrow")


def _ocr_glyph_stream(sf_dir: str):
    from tensorflow_ocr_ray.pipelines.ocr_pipeline import explode_documents
    from tensorflow_ocr_ray.stages.ocr_stages import GlyphDumpStage

    ds, _ = _fixture_docs(sf_dir)
    spans = ds.map_batches(explode_documents, batch_format="pyarrow")
    return spans.map_batches(
        GlyphDumpStage,
        batch_format="pyarrow",
        batch_size=8,
        concurrency=(1, 8),
    ).drop_columns(["features"])


def _glyph_stats(sf_dir: str):
    """Corpus glyph telemetry off the -T stream: per-document glyph count,
    mean NN distance, unknown-rate (segmentation density a la the
    reference's 1,649-glyphs-per-page artifact).

    Output is corpus-cardinality (one row per document), so the combine
    is a sharded shuffle and the result stays a LAZY Dataset."""
    import pandas as pd
    import zlib

    from tensorflow_ocr_ray.config import TF_UNKNOWN

    glyphs = _ocr_glyph_stream(sf_dir)
    n_shards = 64

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        # map-side partial sums (a doc's glyphs may span batches, so the
        # sharded combine below is global per doc)
        g = df.groupby("doc_id", as_index=False).agg(
            p_n=("glyph_idx", "size"),
            p_sum=("knn_dist2", "sum"),
            p_unk=("knn_label", lambda s: int((s == TF_UNKNOWN).sum())),
        )
        g["shard"] = [
            zlib.crc32(d.encode()) % n_shards for d in g["doc_id"]
        ]
        return g

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("doc_id", as_index=False).agg(
            glyphs=("p_n", "sum"), s=("p_sum", "sum"),
            unknown=("p_unk", "sum"),
        )
        out = pd.DataFrame(
            {
                "doc_id": g["doc_id"],
                "glyphs": g["glyphs"].astype("int64"),
                "unknown": g["unknown"].astype("int64"),
                "mean_dist2": (g["s"] / g["glyphs"]).round(4),
            }
        )
        return out

    return (
        glyphs.map_batches(partial, batch_format="pandas", batch_size=65536)
        .groupby("shard")
        .map_groups(combine, batch_format="pandas")
    )


def _media_audio_features(sf_dir: str):
    """Multimodal plumbing as a first-class query: one deterministic
    PCM16 WAV payload per document (doc_id-seeded tone, a REAL RIFF
    container through the spec decoder in core/audio_codecs.py), decoded
    + featurized by the AudioFeatureStage actor pool.  Rows-only (frame
    energies are float DSP, not SQL-expressible); determinism makes the
    driver's row/schema check stable across runs."""
    import struct

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from tensorflow_ocr_ray.stages.multimodal import AudioFeatureStage

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )

    def synth(df):
        payloads = []
        n = 2048
        t = np.arange(n, dtype=np.float64)
        for did in df["doc_id"]:
            freq = 100.0 + (int(did) % 40) * 10.0
            amp = 8000.0 + (int(did) % 7) * 1000.0
            data = (np.sin(2 * np.pi * freq * t / 8000.0) * amp).astype(
                "<i2").tobytes()
            fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
            payloads.append(
                b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
                + b"fmt " + struct.pack("<I", 16) + fmt
                + b"data" + struct.pack("<I", len(data)) + data
            )
        return pa.table(
            {
                "media_ref": pa.array(
                    [str(int(d)) for d in df["doc_id"]]
                ),
                "audio": pa.array(payloads, type=pa.binary()),
            }
        )

    feats = docs.map_batches(
        synth, batch_format="pandas", batch_size=1024
    ).map_batches(
        AudioFeatureStage, batch_format="pyarrow", batch_size=256,
        concurrency=2,
    )

    def finalize(df):
        df = df.copy()
        df["rms"] = df["rms"].astype(float).round(6)
        df["peak"] = df["peak"].astype(float).round(6)
        return df

    return feats.map_batches(finalize, batch_format="pandas")


def _pdf_payloads(df) -> "pa.Table":
    """Deterministic single-page CCITT-G4 PDFs (doc_id-seeded ink: a
    6x12 block at an arithmetic offset + a bottom dotted row) — shared
    by media_pdf_pages (float stats, rows-only) and media_pdf_ink
    (exact ink, hash-checked)."""
    import numpy as np
    import pyarrow as pa

    from tensorflow_ocr_ray.core.ccitt import encode_g4

    payloads = []
    h, w = 24, 40
    for did in df["doc_id"]:
        d = int(did)
        ink = np.zeros((h, w), dtype=np.uint8)
        r0 = 2 + d % 10
        c0 = 2 + (d // 10) % 20
        ink[r0:r0 + 6, c0:c0 + 12] = 1
        ink[h - 3, (d % 5)::4] = 1
        g4 = encode_g4(ink)
        body = bytearray(b"%PDF-1.4\n")
        offsets = {}

        def put(num, b, body=body, offsets=offsets):
            offsets[num] = len(body)
            body.extend(b"%d 0 obj\n" % num + b + b"\nendobj\n")

        put(1, b"<< /Type /Catalog /Pages 2 0 R >>")
        put(2, b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>")
        put(3, b"<< /Type /Page /Parent 2 0 R /Resources "
               b"<< /XObject << /Im0 4 0 R >> >> >>")
        put(4, b"<< /Subtype /Image /Width %d /Height %d "
               b"/BitsPerComponent 1 /ColorSpace /DeviceGray "
               b"/Filter /CCITTFaxDecode /DecodeParms "
               b"<< /K -1 /Columns %d /Rows %d >> /Length %d >>\n"
               b"stream\n" % (w, h, w, h, len(g4))
               + g4 + b"\nendstream")
        xref_at = len(body)
        body.extend(b"xref\n0 5\n0000000000 65535 f \n")
        for num in range(1, 5):
            body.extend(b"%010d 00000 n \n" % offsets[num])
        body.extend(b"trailer\n<< /Size 5 /Root 1 0 R >>\n"
                    b"startxref\n%d\n%%%%EOF\n" % xref_at)
        payloads.append(bytes(body))
    return pa.table(
        {
            "media_ref": pa.array(
                [str(int(d)) for d in df["doc_id"]]
            ),
            "image": pa.array(payloads, type=pa.binary()),
        }
    )



def _media_pdf_ink(sf_dir: str):
    """Scanned-PDF decode hash-checked: the same deterministic G4-in-
    PDF payloads as media_pdf_pages (real PDF object graph + xref,
    CCITT G4 image stream), but counting EXACT ink through
    decode_payload — the 6x12 block contributes 72 and the bottom
    dotted row (43 - doc_id%5)//4, so the whole PDF parse + G4 decode
    path gets an arithmetic DuckDB oracle (media_pdf_pages stays the
    float-stats rows-only sibling)."""
    import pyarrow as pa
    import ray.data as rd

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )

    def synth(df):
        return _pdf_payloads(df)

    def count_ink(batch: "pa.Table") -> "pa.Table":
        from tensorflow_ocr_ray.core.raster import decode_payload

        ink = [
            int(decode_payload(p).sum())
            for p in batch.column("image").to_pylist()
        ]
        return pa.table(
            {
                "media_ref": batch.column("media_ref"),
                "ink": pa.array(ink, type=pa.int64()),
            }
        )

    return docs.map_batches(
        synth, batch_format="pandas", batch_size=1024
    ).map_batches(count_ink, batch_format="pyarrow")


def _media_pdf_pages(sf_dir: str):
    """Scanned-PDF ingest as a first-class query: one deterministic
    single-page CCITT-G4 PDF per document (doc_id-seeded ink blocks in a
    REAL PDF object graph, parsed + decoded by core/pdfimage.py — the
    reference's S11 path, ``main/nybc2tiff.pl:1-31``, with no external
    tool), featurized by the ImageStatsStage actor pool.  Rows-only
    (binarized ink geometry is not SQL-expressible); deterministic
    synthesis keeps the driver's row/schema check stable across runs."""
    import ray.data as rd

    from tensorflow_ocr_ray.stages.multimodal import ImageStatsStage

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )

    def synth(df):
        return _pdf_payloads(df)

    feats = docs.map_batches(
        synth, batch_format="pandas", batch_size=1024
    ).map_batches(
        ImageStatsStage, batch_format="pyarrow", batch_size=256,
        concurrency=2,
    )

    def finalize(df):
        df = df.copy()
        for c in ("ink_ratio", "centroid_y", "centroid_x"):
            df[c] = df[c].astype(float).round(6)
        return df

    return feats.map_batches(finalize, batch_format="pandas")


def _gif_payloads(df) -> "pa.Table":
    """Deterministic animated GIFs (1 + doc_id%5 frames, frame i =
    first i+1 black rows on an (8 + doc_id%4) x 8 canvas) — shared by
    media_gif_frames and the mixed-container router."""
    import struct

    import numpy as np
    import pyarrow as pa

    from tensorflow_ocr_ray.core.gif import gif_lzw_encode

    pal = bytes([0, 0, 0, 255, 255, 255])  # 0=black, 1=white
    payloads = []
    for did in df["doc_id"]:
        d = int(did)
        h, w = 8 + d % 4, 8
        gif = bytearray(b"GIF89a")
        gif += struct.pack("<HHBBB", w, h, 0x80, 1, 0) + pal
        for i in range(1 + d % 5):
            idx = np.ones((h, w), dtype=np.uint8)
            idx[: i + 1, :] = 0
            gif += b"\x21\xf9\x04" + struct.pack("<BHB", 1 << 2, 1, 0)
            gif += b"\x00"
            gif += b"\x2c" + struct.pack("<HHHHB", 0, 0, w, h, 0)
            lzw = gif_lzw_encode(idx.tobytes(), 2)
            gif += b"\x02"
            for j in range(0, len(lzw), 255):
                chunk = lzw[j:j + 255]
                gif += bytes([len(chunk)]) + chunk
            gif += b"\x00"
        gif += b"\x3b"
        payloads.append(bytes(gif))
    return pa.table(
        {
            "media_ref": pa.array([str(int(d)) for d in df["doc_id"]]),
            "video": pa.array(payloads, type=pa.binary()),
        }
    )


def _avi_payloads(df) -> "pa.Table":
    """Deterministic palettized-DIB AVIs with the same arithmetic
    frame geometry as _gif_payloads."""
    import struct

    import numpy as np
    import pyarrow as pa

    def _chunk(cid: bytes, body: bytes) -> bytes:
        pad = b"\x00" if len(body) % 2 else b""
        return cid + struct.pack("<I", len(body)) + body + pad

    def _list(kind: bytes, body: bytes) -> bytes:
        return _chunk(b"LIST", kind + body)

    pal = bytes((0, 0, 0, 0)) + bytes((255, 255, 255, 0))
    payloads = []
    for did in df["doc_id"]:
        d = int(did)
        h, w = 8 + d % 4, 8
        bih = struct.pack(
            "<IiiHHIIiiII", 40, w, h, 1, 8, 0, 0, 0, 0, 2, 0
        )
        strl = _list(
            b"strl",
            _chunk(b"strh", bytes(56)) + _chunk(b"strf", bih + pal),
        )
        hdrl = _list(b"hdrl", _chunk(b"avih", bytes(56)) + strl)
        frames = []
        for i in range(1 + d % 5):
            idx = np.ones((h, w), dtype=np.uint8)
            idx[: i + 1, :] = 0
            frames.append(idx[::-1].tobytes())
        movi = _list(
            b"movi", b"".join(_chunk(b"00db", f) for f in frames)
        )
        body = b"AVI " + hdrl + movi
        payloads.append(b"RIFF" + struct.pack("<I", len(body)) + body)
    return pa.table(
        {
            "media_ref": pa.array([str(int(d)) for d in df["doc_id"]]),
            "video": pa.array(payloads, type=pa.binary()),
        }
    )


def _media_gif_frames(sf_dir: str):
    """Animated-GIF ingest as a first-class query: one deterministic
    GIF89a per document (1 + doc_id%5 full-canvas frames, frame i =
    first i+1 rows black, through the spec LZW encoder), decoded by
    core/gif.py inside the VideoFrameSampleStage actor pool (every=2),
    then per-frame ink counted.  Frame geometry is arithmetic in
    doc_id, so the DuckDB oracle reproduces (media_ref, frame_idx, ink)
    exactly — the decode path is hash-checked end to end."""
    import pyarrow as pa
    import ray.data as rd

    from tensorflow_ocr_ray.stages.multimodal import VideoFrameSampleStage

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )

    def synth(df):
        return _gif_payloads(df)

    frames = docs.map_batches(
        synth, batch_format="pandas", batch_size=1024
    ).map_batches(
        VideoFrameSampleStage, batch_format="pyarrow", batch_size=256,
        concurrency=2, fn_constructor_kwargs={"every": 2},
    )

    def count_ink(batch: "pa.Table") -> "pa.Table":
        from tensorflow_ocr_ray.core.raster import decode_payload

        ink = [
            int(decode_payload(p).sum())
            for p in batch.column("frame").to_pylist()
        ]
        return pa.table(
            {
                "media_ref": batch.column("media_ref"),
                "frame_idx": batch.column("frame_idx"),
                "ink": pa.array(ink, type=pa.int64()),
            }
        )

    return frames.map_batches(count_ink, batch_format="pyarrow")


def _media_avi_frames(sf_dir: str):
    """RIFF/AVI ingest as a first-class query — the video twin of
    _media_gif_frames: one deterministic palettized-DIB AVI per
    document (same arithmetic frame geometry: 1 + doc_id%5 frames,
    frame i = first i+1 rows black on an (8 + doc_id%4) x 8 canvas),
    decoded by core/video_codecs.decode_avi inside the
    VideoFrameSampleStage actor pool (every=2, mid-gray binarize),
    per-frame ink counted — so the same DuckDB arithmetic oracle
    shape hash-checks the AVI container + DIB palette decode path end
    to end."""
    import pyarrow as pa
    import ray.data as rd

    from tensorflow_ocr_ray.stages.multimodal import VideoFrameSampleStage

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )

    def synth(df):
        return _avi_payloads(df)

    frames = docs.map_batches(
        synth, batch_format="pandas", batch_size=1024
    ).map_batches(
        VideoFrameSampleStage, batch_format="pyarrow", batch_size=256,
        concurrency=2, fn_constructor_kwargs={"every": 2},
    )

    def count_ink(batch: "pa.Table") -> "pa.Table":
        from tensorflow_ocr_ray.core.raster import decode_payload

        ink = [
            int(decode_payload(p).sum())
            for p in batch.column("frame").to_pylist()
        ]
        return pa.table(
            {
                "media_ref": batch.column("media_ref"),
                "frame_idx": batch.column("frame_idx"),
                "ink": pa.array(ink, type=pa.int64()),
            }
        )

    return frames.map_batches(count_ink, batch_format="pyarrow")


def _media_mixed_frames(sf_dir: str):
    """Mixed-container media routing: EVEN doc_ids get an animated GIF,
    ODD doc_ids a palettized-DIB AVI (same arithmetic frame geometry),
    all flowing through ONE VideoFrameSampleStage pool — the payload
    SNIFFING dispatch (GIF87a/89a magic vs RIFF/AVI) is what this
    query pins down: a real corpus column holds heterogeneous
    containers and the stage must route per row, not per pipeline.
    Ink oracle is the same arithmetic for both formats."""
    import pyarrow as pa
    import ray.data as rd

    from tensorflow_ocr_ray.stages.multimodal import VideoFrameSampleStage

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )

    def synth(df):
        gif_tbl = _gif_payloads(df[df["doc_id"] % 2 == 0])
        avi_tbl = _avi_payloads(df[df["doc_id"] % 2 == 1])
        return pa.concat_tables([gif_tbl, avi_tbl])

    frames = docs.map_batches(
        synth, batch_format="pandas", batch_size=1024
    ).map_batches(
        VideoFrameSampleStage, batch_format="pyarrow", batch_size=256,
        concurrency=2, fn_constructor_kwargs={"every": 2},
    )

    def count_ink(batch: "pa.Table") -> "pa.Table":
        from tensorflow_ocr_ray.core.raster import decode_payload

        ink = [
            int(decode_payload(p).sum())
            for p in batch.column("frame").to_pylist()
        ]
        return pa.table(
            {
                "media_ref": batch.column("media_ref"),
                "frame_idx": batch.column("frame_idx"),
                "ink": pa.array(ink, type=pa.int64()),
            }
        )

    return frames.map_batches(count_ink, batch_format="pyarrow")


def _png_payloads(df) -> "pa.Table":
    """Deterministic PNGs sweeping BOTH axes the spec multiplies:
    color type cycles doc_id%5 over {gray8, RGB, palette, gray+alpha,
    RGBA} and the per-row filter cycles row%5 over all five defilters
    (None/Sub/Up/Average/Paeth), so one corpus pass exercises every
    (color, filter) combination core/png.py implements.  Ink geometry
    stays arithmetic (first 1 + doc_id%5 rows black on an
    (8 + doc_id%4) x 8 canvas); pure black/white pixels are exact
    through the ITU-R 601 integer luma (77/150/29 >> 8), so the ink
    oracle is format-independent."""
    import struct
    import zlib

    import numpy as np
    import pyarrow as pa

    def _chunk(cid: bytes, body: bytes) -> bytes:
        return (
            struct.pack(">I", len(body)) + cid + body
            + struct.pack(">I", zlib.crc32(cid + body))
        )

    def _filter_rows(raw: "np.ndarray", bpp: int) -> bytes:
        """raw: (h, stride) uint8 scanlines → filtered stream, row r
        using filter r%5 per the RFC 2083 recurrences."""
        h = raw.shape[0]
        out = bytearray()
        prior = np.zeros(raw.shape[1], dtype=np.int32)
        for r in range(h):
            row = raw[r].astype(np.int32)
            left = np.zeros_like(row)
            left[bpp:] = row[:-bpp]
            upleft = np.zeros_like(prior)
            upleft[bpp:] = prior[:-bpp]
            f = r % 5
            if f == 0:
                filt = row
            elif f == 1:
                filt = row - left
            elif f == 2:
                filt = row - prior
            elif f == 3:
                filt = row - (left + prior) // 2
            else:
                p = left + prior - upleft
                pa_, pb_, pc_ = (np.abs(p - left), np.abs(p - prior),
                                 np.abs(p - upleft))
                pred = np.where(
                    (pa_ <= pb_) & (pa_ <= pc_), left,
                    np.where(pb_ <= pc_, prior, upleft),
                )
                filt = row - pred
            out.append(f)
            out.extend((filt & 0xFF).astype(np.uint8).tobytes())
            prior = row
        return bytes(out)

    payloads = []
    for did in df["doc_id"]:
        d = int(did)
        h, w = 8 + d % 4, 8
        mask = np.zeros((h, w), dtype=np.uint8)
        mask[: 1 + d % 5, :] = 1  # 1 = black/ink
        gray = np.where(mask == 1, 0, 255).astype(np.uint8)
        kind = d % 5
        if kind == 0:  # gray 8-bit
            ctype, bpp, plte = 0, 1, None
            raw = gray
        elif kind == 1:  # RGB
            ctype, bpp, plte = 2, 3, None
            raw = np.repeat(gray, 3).reshape(h, w * 3)
        elif kind == 2:  # palette (0=black, 1=white)
            ctype, bpp, plte = 3, 1, bytes([0, 0, 0, 255, 255, 255])
            raw = mask ^ 1
        elif kind == 3:  # gray + alpha
            ctype, bpp = 4, 2
            plte = None
            raw = np.dstack([gray, np.full_like(gray, 255)]).reshape(
                h, w * 2
            )
        else:  # RGBA
            ctype, bpp = 6, 4
            plte = None
            raw = np.dstack(
                [gray, gray, gray, np.full_like(gray, 255)]
            ).reshape(h, w * 4)
        png = bytearray(b"\x89PNG\r\n\x1a\n")
        png += _chunk(b"IHDR", struct.pack(
            ">IIBBBBB", w, h, 8, ctype, 0, 0, 0))
        if plte is not None:
            png += _chunk(b"PLTE", plte)
        png += _chunk(b"IDAT", zlib.compress(_filter_rows(raw, bpp)))
        png += _chunk(b"IEND", b"")
        payloads.append(bytes(png))
    return pa.table(
        {
            "media_ref": pa.array([str(int(d)) for d in df["doc_id"]]),
            "image": pa.array(payloads, type=pa.binary()),
        }
    )


def _bmp_payloads(df) -> "pa.Table":
    """Deterministic standalone BMPs cycling doc_id%4 over the four DIB
    paths core/video_codecs.decode_bmp implements: 8-bit palette
    bottom-up, 24-bit BGR bottom-up, 32-bit BGRX TOP-DOWN (negative
    height), and BI_RLE8 bottom-up.  Ink geometry stays the PNG/TIFF
    convention (first 1 + doc_id%5 rows black on an (8 + doc_id%4) x 8
    canvas) so the arithmetic oracle is format-independent."""
    import struct

    import numpy as np
    import pyarrow as pa

    def _bmp(w, h, bpp, comp, palette, pixel) -> bytes:
        off = 14 + 40 + len(palette)
        info = struct.pack(
            "<IiiHHIIiiII", 40, w, h, 1, bpp, comp, len(pixel),
            2835, 2835, len(palette) // 4, 0)
        head = b"BM" + struct.pack(
            "<IHHI", off + len(pixel), 0, 0, off)
        return head + info + palette + pixel

    pal = bytes([0, 0, 0, 0, 255, 255, 255, 0])  # 0=black, 1=white
    payloads, kinds = [], []
    for did in df["doc_id"]:
        d = int(did)
        h, w = 8 + d % 4, 8
        mask = np.zeros((h, w), dtype=np.uint8)
        mask[: 1 + d % 5, :] = 1  # 1 = black/ink (row 0 = top)
        k = d % 4
        if k == 0:  # 8-bit palette, bottom-up
            rows = (mask ^ 1)[::-1]  # palette index, bottom-up
            payloads.append(_bmp(w, h, 8, 0, pal, rows.tobytes()))
            kinds.append("pal8")
        elif k == 1:  # 24-bit BGR, bottom-up
            gray = np.where(mask == 1, 0, 255).astype(np.uint8)[::-1]
            bgr = np.repeat(gray, 3).reshape(h, w * 3)
            payloads.append(_bmp(w, h, 24, 0, b"", bgr.tobytes()))
            kinds.append("bgr24")
        elif k == 2:  # 32-bit BGRX, TOP-DOWN (negative height)
            gray = np.where(mask == 1, 0, 255).astype(np.uint8)
            bgrx = np.dstack(
                [gray, gray, gray, np.zeros_like(gray)]
            ).reshape(h, w * 4)
            payloads.append(_bmp(w, -h, 32, 0, b"", bgrx.tobytes()))
            kinds.append("bgrx32td")
        else:  # BI_RLE8, bottom-up, uniform-row runs
            out = bytearray()
            for y in range(h):  # y=0 is the BOTTOM row in RLE space
                val = 0 if mask[h - 1 - y, 0] else 1
                out += bytes([w, val])
                out += b"\x00\x00"  # end of line
            out += b"\x00\x01"  # end of bitmap
            payloads.append(_bmp(w, h, 8, 1, pal, bytes(out)))
            kinds.append("rle8")
    return pa.table(
        {
            "media_ref": pa.array([str(int(d)) for d in df["doc_id"]]),
            "kind": pa.array(kinds, type=pa.string()),
            "image": pa.array(payloads, type=pa.binary()),
        }
    )


def _media_bmp_ink(sf_dir: str):
    """BMP ingest as a first-class hash-checked query: one
    deterministic BMP per document cycling all four DIB paths
    (_bmp_payloads), decoded by core/video_codecs.decode_bmp via the
    decode_payload sniff, binarized with the reference threshold,
    exact ink counted — pinning the file-header walk, palette luma,
    bottom-up vs top-down row order and the RLE8 escapes against the
    arithmetic oracle shared with the PNG/TIFF ink queries."""
    import pyarrow as pa
    import ray.data as rd

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )

    def synth(df):
        return _bmp_payloads(df)

    def count_ink(batch: "pa.Table") -> "pa.Table":
        from tensorflow_ocr_ray.core.raster import decode_payload

        heights, ink = [], []
        for p in batch.column("image").to_pylist():
            img = decode_payload(p)
            heights.append(img.shape[0])
            ink.append(int(img.sum()))
        return pa.table(
            {
                "media_ref": batch.column("media_ref"),
                "kind": batch.column("kind"),
                "height": pa.array(heights, type=pa.int32()),
                "ink": pa.array(ink, type=pa.int64()),
            }
        )

    return docs.map_batches(
        synth, batch_format="pandas", batch_size=1024
    ).map_batches(count_ink, batch_format="pyarrow")


def _media_png_ink(sf_dir: str):
    """PNG ingest as a first-class hash-checked query: one
    deterministic PNG per document cycling all five color types AND
    all five row filters (see _png_payloads), decoded by core/png.py
    via decode_payload, binarized with the reference threshold, exact
    ink counted — so the chunk walk, zlib inflate, every defilter
    recurrence and every color-to-luma path are pinned by the
    arithmetic DuckDB oracle."""
    import pyarrow as pa
    import ray.data as rd

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )

    def synth(df):
        return _png_payloads(df)

    def count_ink(batch: "pa.Table") -> "pa.Table":
        from tensorflow_ocr_ray.core.raster import decode_payload

        heights, ink = [], []
        for p in batch.column("image").to_pylist():
            img = decode_payload(p)
            heights.append(img.shape[0])
            ink.append(int(img.sum()))
        return pa.table(
            {
                "media_ref": batch.column("media_ref"),
                "height": pa.array(heights, type=pa.int32()),
                "ink": pa.array(ink, type=pa.int64()),
            }
        )

    return docs.map_batches(
        synth, batch_format="pandas", batch_size=1024
    ).map_batches(count_ink, batch_format="pyarrow")


def _media_augment_ink(sf_dir: str):
    """Image AUGMENTATION as a first-class hash-checked stage — the
    preprocessing pass (rotate / crop / flip-class transforms) a
    vision training pipeline runs AFTER decode: each document's
    deterministic PNG (all five color types x all five row filters,
    _png_payloads) is decoded by core/png.py, rotated doc_id%4
    quarter-turns, and cropped doc_id%3 rows off the top; the emitted
    (height, width, ink) pin the real ndarray geometry ops against a
    pure-arithmetic oracle (the black band's post-rotation position
    decides how much ink the crop removes — a wrong rot90 direction or
    off-by-one crop flips the numbers immediately)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )

    def synth(df):
        return _png_payloads(df)

    def augment(batch: "pa.Table") -> "pa.Table":
        from tensorflow_ocr_ray.core.raster import decode_payload

        heights, widths, ink = [], [], []
        refs = batch.column("media_ref").to_pylist()
        for ref, p in zip(refs, batch.column("image").to_pylist()):
            d = int(ref)
            img = decode_payload(p)
            img = np.rot90(img, d % 4)
            img = img[d % 3:]
            heights.append(img.shape[0])
            widths.append(img.shape[1])
            ink.append(int(img.sum()))
        return pa.table(
            {
                "media_ref": batch.column("media_ref"),
                "height": pa.array(heights, type=pa.int32()),
                "width": pa.array(widths, type=pa.int32()),
                "ink": pa.array(ink, type=pa.int64()),
            }
        )

    return docs.map_batches(
        synth, batch_format="pandas", batch_size=1024
    ).map_batches(augment, batch_format="pyarrow")


def _jpeg_payloads(df) -> "pa.Table":
    """Deterministic baseline JPEGs whose decode is EXACT: all-ones
    quant table and DC-only constant 8x8 blocks, so dequant + IDCT
    reproduce each block's gray level bit-for-bit (DC = 8*(v-128) is
    exactly representable; the orthonormal IDCT of a DC-only block is
    the constant DC/8 within 1e-12, and the decoder's final round
    recovers v).  Per doc: an 8 x 8*(1+d%4) strip; the first
    1 + d % (1+d%4) blocks are black (v=0), the rest white (v=255) —
    ink is arithmetic in doc_id.  The writer is DC-only but the
    decoder still runs its full marker parse, canonical-Huffman build
    (deliberately non-standard fixed-length tables), entropy decode,
    EXTEND, dequant, zigzag and IDCT on every block.  EVEN doc_ids are
    baseline (SOF0); ODD doc_ids are PROGRESSIVE (SOF2) with a single
    DC spectral-selection scan (Ss=Se=0, no AC scans → AC stay zero,
    same constant blocks) — so both decode processes are pinned by the
    same arithmetic oracle, and the per-row SOF sniffing mirrors a
    mixed real corpus."""
    import struct

    import pyarrow as pa

    class _W:
        def __init__(self):
            self.out = bytearray()
            self.acc = 0
            self.n = 0

        def bits(self, value: int, length: int):
            for i in range(length - 1, -1, -1):
                self.acc = (self.acc << 1) | ((value >> i) & 1)
                self.n += 1
                if self.n == 8:
                    self.out.append(self.acc)
                    if self.acc == 0xFF:
                        self.out.append(0x00)
                    self.acc = 0
                    self.n = 0

        def flush(self):
            while self.n:
                self.bits(1, 1)  # pad with 1s per T.81

    def _seg(marker: int, body: bytes) -> bytes:
        return bytes([0xFF, marker]) + struct.pack(
            ">H", len(body) + 2) + body

    # fixed-length canonical tables: DC categories 0..11 at 4 bits
    # (codes 0..11; the all-ones code 15 stays unused), AC just EOB
    # at 2 bits — valid Kraft, unlike any standard table.
    dc_bits = [0] * 16
    dc_bits[3] = 12
    ac_bits = [0] * 16
    ac_bits[1] = 1

    payloads = []
    for did in df["doc_id"]:
        d = int(did)
        nb = 1 + d % 4
        k = 1 + d % nb  # black blocks
        h, w = 8, 8 * nb
        progressive = bool(d % 2)
        out = bytearray(b"\xff\xd8")
        out += _seg(0xDB, bytes([0x00]) + bytes([1] * 64))
        out += _seg(0xC2 if progressive else 0xC0,
                    struct.pack(">BHHB", 8, h, w, 1)
                    + bytes([1, 0x11, 0]))
        out += _seg(0xC4, bytes([0x00]) + bytes(dc_bits)
                    + bytes(range(12)))
        if not progressive:
            out += _seg(0xC4, bytes([0x10]) + bytes(ac_bits)
                        + bytes([0x00]))
        ss, se = (0, 0) if progressive else (0, 63)
        out += _seg(0xDA, bytes([1, 1, 0x00, ss, se, 0]))
        wtr = _W()
        pred = 0
        for j in range(nb):
            v = 0 if j < k else 255
            dc = 8 * (v - 128)
            diff = dc - pred
            pred = dc
            t = 0 if diff == 0 else abs(diff).bit_length()
            wtr.bits(t, 4)
            if t:
                mag = diff if diff > 0 else diff + (1 << t) - 1
                wtr.bits(mag, t)
            if not progressive:
                wtr.bits(0, 2)  # EOB
        wtr.flush()
        out += wtr.out
        out += b"\xff\xd9"
        payloads.append(bytes(out))
    return pa.table(
        {
            "media_ref": pa.array([str(int(d)) for d in df["doc_id"]]),
            "image": pa.array(payloads, type=pa.binary()),
        }
    )


def _media_jpeg_ink(sf_dir: str):
    """Baseline-JPEG ingest as a first-class hash-checked query: one
    deterministic DC-only JPEG per document (see _jpeg_payloads —
    constant blocks through the REAL Huffman/EXTEND/dequant/IDCT
    path, exact by construction), decoded by core/jpeg.py via
    decode_payload, exact ink counted against the arithmetic DuckDB
    oracle.  Completes the hash-checked image matrix: TIFF (OCR
    corpus), PDF/G4, GIF, AVI/DIB, PNG, JPEG."""
    import pyarrow as pa
    import ray.data as rd

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )

    def synth(df):
        return _jpeg_payloads(df)

    def count_ink(batch: "pa.Table") -> "pa.Table":
        from tensorflow_ocr_ray.core.raster import decode_payload

        widths, ink = [], []
        for p in batch.column("image").to_pylist():
            img = decode_payload(p)
            widths.append(img.shape[1])
            ink.append(int(img.sum()))
        return pa.table(
            {
                "media_ref": batch.column("media_ref"),
                "width": pa.array(widths, type=pa.int32()),
                "ink": pa.array(ink, type=pa.int64()),
            }
        )

    return docs.map_batches(
        synth, batch_format="pandas", batch_size=1024
    ).map_batches(count_ink, batch_format="pyarrow")


def _ocr_lineage_manifest(sf_dir: str):
    """The checkpoint/lineage surface as a first-class registry entry
    (rows-only — the answer IS filesystem state): run the
    partition-checkpointed OCR job over a 4-file fixture corpus and
    return each partition's manifest record (id, status, docs, media
    spans, span-equality rate vs the analytic truth).  A repeat call
    RESUMES — every partition's fingerprint matches, so the runner
    skips all four and the records are read back verbatim, which is
    exactly the property the query pins (north rule: resumable from
    checkpoint with per-partition lineage + metrics).  Corpus and
    output live under a /tmp cache keyed by a version tag; the first
    call per container does the real OCR work."""
    import glob
    import os

    import pandas as pd

    from tensorflow_ocr_ray.fixtures import write_documents_parquet
    from tensorflow_ocr_ray.pipelines.checkpoint import (
        read_manifest,
        run_checkpointed,
    )

    root = "/tmp/tensorflow_ocr_ray_indexes/lineage-demo-v1"
    inp, out = f"{root}/input", f"{root}/out"
    if not os.path.exists(f"{root}/_READY"):
        os.makedirs(inp, exist_ok=True)
        write_documents_parquet(inp, 200, num_files=4)
        with open(f"{root}/_READY", "w") as f:
            f.write("ok")
    files = sorted(glob.glob(f"{inp}/*.parquet"))
    run_checkpointed(files, out, verify_against_truth=True)
    rows = read_manifest(out)
    return pd.DataFrame(
        [
            {
                "partition_id": int(r["partition_id"]),
                "status": r["status"],
                "docs": int(r["docs"]),
                "media_spans": int(r["media_spans"]),
                "span_equal_rate": float(r["span_equal_rate"]),
            }
            for r in sorted(rows, key=lambda r: r["partition_id"])
        ]
    )


def _media_audio_g711(sf_dir: str):
    """G.711 companded-audio ingest, hash-checked: EVEN doc_ids carry
    µ-law WAVs (fmt code 7), ODD doc_ids A-law (fmt code 6), each a
    constant companded byte code = 16 + doc_id%64 — so the expander
    tables in core/audio_codecs.py are pinned end to end.  A constant
    byte decodes to a constant int16 whose float32 |value|/2^15 is
    exact, so round(peak * 32768) recovers the expanded MAGNITUDE as
    int64; the oracle's lookup tables are generated from stdlib
    ``audioop`` (the independent reference the codec's unit tests
    already compare against), injected as VALUES literals — spec
    tables as parameters, the IVF-centroid precedent."""
    import struct

    import pyarrow as pa
    import ray.data as rd

    from tensorflow_ocr_ray.stages.multimodal import AudioFeatureStage

    N = 2048

    def _wav(fmt_code: int, byte: int) -> bytes:
        data = bytes([byte]) * N
        fmt = struct.pack("<HHIIHH", fmt_code, 1, 8000, 8000, 1, 8)
        return (
            b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
            + b"fmt " + struct.pack("<I", 16) + fmt
            + b"data" + struct.pack("<I", len(data)) + data
        )

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )

    def synth(df):
        payloads = []
        for did in df["doc_id"]:
            d = int(did)
            code = 16 + d % 64
            payloads.append(
                _wav(7, code) if d % 2 == 0 else _wav(6, code)
            )
        return pa.table(
            {
                "media_ref": pa.array(
                    [str(int(d)) for d in df["doc_id"]]
                ),
                "audio": pa.array(payloads, type=pa.binary()),
            }
        )

    feats = docs.map_batches(
        synth, batch_format="pandas", batch_size=1024
    ).map_batches(
        AudioFeatureStage, batch_format="pyarrow", batch_size=256,
        concurrency=2,
    )

    def finalize(batch: "pa.Table") -> "pa.Table":
        import numpy as np

        peak = batch.column("peak").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "media_ref": batch.column("media_ref"),
                "n_frames": batch.column("n_frames"),
                "sample_val": pa.array(
                    np.round(
                        peak.astype(np.float64) * 32768.0
                    ).astype(np.int64),
                    type=pa.int64(),
                ),
            }
        )

    return feats.map_batches(finalize, batch_format="pyarrow")


def _g711_sql() -> str:
    """Oracle for media_audio_g711: µ-law and A-law expanded
    magnitudes for codes 16..79 from stdlib audioop (independent of
    core/audio_codecs), as literal lookup tables."""
    import audioop
    import struct

    def mag(fn, code):
        (v,) = struct.unpack("<h", fn(bytes([code]), 2))
        return abs(int(v))

    mu = ", ".join(
        f"({c}, {mag(audioop.ulaw2lin, c)})" for c in range(16, 80)
    )
    al = ", ".join(
        f"({c}, {mag(audioop.alaw2lin, c)})" for c in range(16, 80)
    )
    return f"""
        WITH mu(code, mag) AS (VALUES {mu}),
        al(code, mag) AS (VALUES {al})
        SELECT CAST(d.doc_id AS VARCHAR) AS media_ref,
               CAST(2 AS INTEGER) AS n_frames,
               CAST(CASE WHEN d.doc_id % 2 = 0 THEN mu.mag
                         ELSE al.mag END AS BIGINT) AS sample_val
        FROM documents d
        JOIN mu ON mu.code = 16 + d.doc_id % 64
        JOIN al ON al.code = 16 + d.doc_id % 64
    """


def _tiff_payloads(df) -> "pa.Table":
    """Deterministic multi-page TIFFs (1 + doc_id%3 pages, page p =
    first p+1 rows black on an (8 + doc_id%4) x 8 canvas), compression
    cycling doc_id%4 over {none, PackBits, G4, LZW} — shared by
    media_tiff_ink and the header probe."""
    import numpy as np
    import pyarrow as pa

    from tensorflow_ocr_ray.core.raster import encode_tiff_multi

    comps = [None, "packbits", "g4", "lzw"]
    payloads = []
    for did in df["doc_id"]:
        d = int(did)
        h, w = 8 + d % 4, 8
        pages = []
        for p in range(1 + d % 3):
            img = np.zeros((h, w), dtype=np.uint8)
            img[: p + 1, :] = 1
            pages.append(img)
        payloads.append(
            encode_tiff_multi(pages, bilevel=True,
                              compression=comps[d % 4])
        )
    return pa.table(
        {
            "media_ref": pa.array([str(int(d)) for d in df["doc_id"]]),
            "image": pa.array(payloads, type=pa.binary()),
        }
    )


def _media_header_probe(sf_dir: str):
    """Header-only media metadata as a first-class hash-checked query:
    doc_id%5 routes each document to one of FIVE containers (PNG, JPEG,
    GIF, AVI, multi-page TIFF — the exact payload builders the decode
    queries use), and ``probe_media_header`` reports (format, width,
    height, n_frames) from CONTAINER HEADERS ALONE — no pixel decode,
    no decompression.  This is the scale pattern the decode matrix
    needs a twin for: route/batch/skip decisions on 100 TB cost header
    bytes, not decode CPU, and the arithmetic oracle proves the probe
    agrees with the geometry the decoders later see."""
    import pyarrow as pa
    import ray.data as rd

    from tensorflow_ocr_ray.stages.multimodal import probe_media_header

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )

    def synth(df):
        frames = []
        for k, builder in enumerate(
            (_png_payloads, _jpeg_payloads, _gif_payloads,
             _avi_payloads, _tiff_payloads)
        ):
            sub = df[df["doc_id"] % 5 == k]
            if len(sub):
                t = builder(sub)
                t = t.rename_columns(["media_ref", "payload"])
                frames.append(t)
        return pa.concat_tables(frames)

    def probe(batch: "pa.Table") -> "pa.Table":
        fmts, ws, hs, nf = [], [], [], []
        for p in batch.column("payload").to_pylist():
            f, w, h, n = probe_media_header(p)
            fmts.append(f)
            ws.append(w)
            hs.append(h)
            nf.append(n)
        return pa.table(
            {
                "media_ref": batch.column("media_ref"),
                "format": pa.array(fmts, type=pa.string()),
                "width": pa.array(ws, type=pa.int32()),
                "height": pa.array(hs, type=pa.int32()),
                "n_frames": pa.array(nf, type=pa.int32()),
            }
        )

    return docs.map_batches(
        synth, batch_format="pandas", batch_size=1024
    ).map_batches(probe, batch_format="pyarrow")


def _media_phash_dedup(sf_dir: str, n_shards: int = 32):
    """Perceptual near-duplicate IMAGE dedup — the multimodal twin of
    dedup_exact: every document carries one 16x16 gray TIFF whose
    pattern class is ``doc_id % 8`` but whose BRIGHTNESS varies with
    ``doc_id % 5`` (so byte-exact hashing finds nothing); the pipeline
    decodes each payload (core/raster.py), computes the
    brightness-invariant 56-bit difference hash
    (``stages/multimodal.dhash56``: 2x2 avg-pool -> adjacent-column
    comparisons), and clusters by hash with ONE routed exchange — all
    occurrences of a hash land in one shard, so keeper (min doc_id) and
    cluster size are per-shard vectorized, no driver state.  The
    arithmetic oracle (window min/count over doc_id % 8) is exactly the
    planted truth, so a hash match proves decode + pooling + comparison
    respect brightness invariance AND separate the 8 pattern classes."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from tensorflow_ocr_ray.core.raster import decode_tiff, encode_tiff
    from tensorflow_ocr_ray.stages.multimodal import dhash56
    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )

    ii, jj = np.mgrid[0:16, 0:16]

    def synth_hash(df: "pd.DataFrame") -> "pd.DataFrame":
        doc = df["doc_id"].to_numpy(np.int64)
        hs = np.empty(len(doc), dtype=np.uint64)
        for idx, d in enumerate(doc):
            k = int(d) % 8
            b = (int(d) % 5) * 3
            img = ((((ii * 3 + jj * (k + 2)) % 17) * 12) + b).astype(
                np.uint8)
            payload = encode_tiff(img, bilevel=False)
            # decode round-trip: the hash is computed from DECODED
            # GRAY pixels (decode_tiff, NOT the binarizing OCR path —
            # binarization is brightness-SENSITIVE and would defeat
            # the perceptual invariance), so the codec is in the loop
            gray, _bits = decode_tiff(payload)
            hs[idx] = dhash56(gray)
        return pd.DataFrame(
            {"h": hs, "doc_id": doc,
             "hshard": (hs % np.uint64(n_shards)).astype(np.int64)})

    def cluster(g: "pd.DataFrame") -> "pd.DataFrame":
        cols = ["doc_id", "keeper_doc_id", "cluster_size", "is_dup"]
        if not len(g):
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in cols})
        keeper = g.groupby("h")["doc_id"].transform("min")
        size = g.groupby("h")["doc_id"].transform("size")
        return pd.DataFrame(
            {"doc_id": g["doc_id"].to_numpy(np.int64),
             "keeper_doc_id": keeper.to_numpy(np.int64),
             "cluster_size": size.to_numpy(np.int64),
             "is_dup": (g["doc_id"].to_numpy(np.int64)
                        != keeper.to_numpy(np.int64)).astype(np.int64)})

    hashed = docs.map_batches(synth_hash, batch_format="pandas",
                              batch_size=1024)
    return hash_exchange(hashed, "hshard", n_shards, cluster)


def _media_tiff_ink(sf_dir: str):
    """Multi-page TIFF ingest as a first-class hash-checked query: one
    deterministic little-endian TIFF per document with 1 + doc_id%3
    chained IFD pages (page p = first p+1 rows black on an
    (8 + doc_id%4) x 8 canvas) and the COMPRESSION CYCLING doc_id%4
    over {uncompressed, PackBits, CCITT G4, LZW} — so one corpus pass
    pins the IFD walk, the strip readers and all four codec paths
    (core/raster.py, core/ccitt.py, core/tiff_lzw.py) against the
    arithmetic ink oracle.  The OCR corpus exercises TIFF via span
    equality; this query adds the direct per-codec hash check."""
    import pyarrow as pa
    import ray.data as rd

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )

    def synth(df):
        return _tiff_payloads(df)

    def count_ink(batch: "pa.Table") -> "pa.Table":
        from tensorflow_ocr_ray.core.raster import decode_payload_pages

        refs, page_idx, ink = [], [], []
        for ref, p in zip(
            batch.column("media_ref").to_pylist(),
            batch.column("image").to_pylist(),
        ):
            for i, img in enumerate(decode_payload_pages(p)):
                refs.append(ref)
                page_idx.append(i)
                ink.append(int(img.sum()))
        return pa.table(
            {
                "media_ref": pa.array(refs, type=pa.string()),
                "page_idx": pa.array(page_idx, type=pa.int32()),
                "ink": pa.array(ink, type=pa.int64()),
            }
        )

    return docs.map_batches(
        synth, batch_format="pandas", batch_size=1024
    ).map_batches(count_ink, batch_format="pyarrow")


def _media_tiff_metadata(sf_dir: str):
    """Catalog-build metadata extraction, hash-checked: one
    deterministic single-page TIFF per document carrying planted
    metadata tags — ImageDescription (ASCII, external value area),
    Orientation (inline SHORT), XResolution (RATIONAL, external
    8-byte area), DateTime (20-byte ASCII) — read back by
    ``stages.multimodal.read_tiff_tags`` from HEADER BYTES ONLY (no
    strip decode).  This is the first pass a 100-TB imagery catalog
    runs: route/filter on metadata before spending decode CPU.  All
    planted values are doc_id arithmetic, so the DuckDB oracle
    re-derives every column without parsing a byte."""
    import struct

    import pyarrow as pa
    import ray.data as rd

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )

    def synth(df):
        payloads = []
        for did in df["doc_id"]:
            d = int(did)
            desc = f"doc-{d}".encode() + b"\x00"
            dt = f"2026:01:{1 + d % 28:02d} 00:00:00".encode() + b"\x00"
            w = h = 8
            pix = b"\xff" * (w * h)  # 8-bit gray, 1 strip, no comp
            n_tags = 13
            ifd_off = 8
            ext_off = ifd_off + 2 + n_tags * 12 + 4
            desc_off = ext_off
            xres_off = desc_off + len(desc)
            dt_off = xres_off + 8
            pix_off = dt_off + len(dt)
            tags = [  # ascending tag order per spec
                (256, 3, 1, w), (257, 3, 1, h), (258, 3, 1, 8),
                (259, 3, 1, 1), (262, 3, 1, 1),
                (270, 2, len(desc), desc_off),
                (273, 4, 1, pix_off),
                (274, 3, 1, 1 + d % 8),
                (277, 3, 1, 1), (278, 3, 1, h),
                (279, 4, 1, len(pix)),
                (282, 5, 1, xres_off),
                (306, 2, len(dt), dt_off),
            ]
            out = bytearray(struct.pack("<2sHI", b"II", 42, ifd_off))
            out += struct.pack("<H", n_tags)
            for tag, typ, count, value in tags:
                out += struct.pack("<HHII", tag, typ, count, value)
            out += struct.pack("<I", 0)
            out += desc
            out += struct.pack("<II", 72 + d % 4, 1)
            out += dt
            out += pix
            payloads.append(bytes(out))
        return pa.table(
            {
                "doc_id": pa.array(
                    [int(d) for d in df["doc_id"]], type=pa.int64()),
                "image": pa.array(payloads, type=pa.binary()),
            }
        )

    def extract(batch: "pa.Table") -> "pa.Table":
        from tensorflow_ocr_ray.stages.multimodal import read_tiff_tags

        desc, orient, xres, dt = [], [], [], []
        for p in batch.column("image").to_pylist():
            t = read_tiff_tags(p)
            desc.append(t[270])
            orient.append(int(t[274]))
            num, den = t[282]
            xres.append(num // den)
            dt.append(t[306])
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "description": pa.array(desc, type=pa.string()),
                "orientation": pa.array(orient, type=pa.int64()),
                "xres": pa.array(xres, type=pa.int64()),
                "datetime": pa.array(dt, type=pa.string()),
            }
        )

    return docs.map_batches(
        synth, batch_format="pandas", batch_size=1024
    ).map_batches(extract, batch_format="pyarrow")


def _video_scene_cuts(sf_dir: str):
    """Scene-change detection, hash-checked: one deterministic
    palettized-DIB AVI per document with PLANTED scene structure —
    4 + doc_id%5 frames; scene k paints rows [2k, 2k+2) black; the
    scene index steps at frame s1 = 1 + doc_id%3 (always) and at
    s2 = s1 + 2 (only when doc_id is even and s2 < n_frames); every
    frame additionally carries a one-pixel jitter marker at
    (h-1, frame_idx % 8) so intra-scene consecutive diffs are small
    but NONZERO (2 px) while cross-scene diffs are 4 rows + jitter
    = 34 px.  ``scene_cut_frames`` (one vectorized xor/popcount per
    video, threshold 16) recovers exactly the planted cuts; the
    DuckDB oracle re-derives (doc_id, cut_frame, diff=34) from pure
    arithmetic.  Detection is row-local — zero shuffle at any scale."""
    import struct

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )

    def _chunk(cid: bytes, body: bytes) -> bytes:
        pad = b"\x00" if len(body) % 2 else b""
        return cid + struct.pack("<I", len(body)) + body + pad

    def _list(kind: bytes, body: bytes) -> bytes:
        return _chunk(b"LIST", kind + body)

    pal = bytes((0, 0, 0, 0)) + bytes((255, 255, 255, 0))

    def synth(df):
        payloads, ids = [], []
        for did in df["doc_id"]:
            d = int(did)
            h, w = 8 + d % 4, 8
            nf = 4 + d % 5
            s1 = 1 + d % 3
            s2 = s1 + 2 if (d % 2 == 0 and s1 + 2 < nf) else None
            bih = struct.pack(
                "<IiiHHIIiiII", 40, w, h, 1, 8, 0, 0, 0, 0, 2, 0)
            strl = _list(
                b"strl",
                _chunk(b"strh", bytes(56)) + _chunk(b"strf", bih + pal))
            hdrl = _list(b"hdrl", _chunk(b"avih", bytes(56)) + strl)
            frames = []
            for i in range(nf):
                k = (1 if i >= s1 else 0) + (
                    1 if s2 is not None and i >= s2 else 0)
                idx = np.ones((h, w), dtype=np.uint8)
                idx[2 * k:2 * k + 2, :] = 0
                idx[h - 1, i % 8] = 0  # jitter marker
                frames.append(idx[::-1].tobytes())
            movi = _list(
                b"movi", b"".join(_chunk(b"00db", f) for f in frames))
            body = b"AVI " + hdrl + movi
            payloads.append(b"RIFF" + struct.pack("<I", len(body)) + body)
            ids.append(d)
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "video": pa.array(payloads, type=pa.binary()),
            }
        )

    def detect(batch: "pa.Table") -> "pa.Table":
        from tensorflow_ocr_ray.core.video_codecs import decode_avi
        from tensorflow_ocr_ray.stages.multimodal import scene_cut_frames

        ids, cut_frame, diff = [], [], []
        for did, p in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("video").to_pylist(),
        ):
            gray = decode_avi(p)
            stack = np.stack([(f < 128).astype(np.uint8) for f in gray])
            for fi, dv in scene_cut_frames(stack, threshold=16):
                ids.append(did)
                cut_frame.append(fi)
                diff.append(dv)
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "cut_frame": pa.array(cut_frame, type=pa.int64()),
                "diff": pa.array(diff, type=pa.int64()),
            }
        )

    return docs.map_batches(
        synth, batch_format="pandas", batch_size=1024
    ).map_batches(detect, batch_format="pyarrow")


def _audio_energy_segments(sf_dir: str):
    """Energy-based audio segmentation (the VAD shape), hash-checked:
    one PCM16 WAV per document built from SIX 256-sample blocks whose
    active/silent pattern is the 6-bit value 1 + doc_id%62 (bit j =
    block j active; active blocks carry a full-scale alternating
    square wave, silent blocks are zero).  The stage decodes through
    core/audio_codecs.decode_wav, computes per-block peak energy in
    one vectorized reshape, thresholds, and run-length-merges into
    segments — exactly what speech-data curation runs before sending
    audio to an expensive ASR stage.  Segments are maximal runs of
    set bits, so the DuckDB oracle re-derives (seg_idx, start_block,
    end_block, n_blocks) from doc_id arithmetic via window functions."""
    import struct

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )
    BLK, NBLK = 256, 6

    def synth(df):
        payloads, ids = [], []
        sq = np.empty(BLK, dtype=np.int16)
        sq[0::2], sq[1::2] = 16000, -16000
        for did in df["doc_id"]:
            d = int(did)
            bits = 1 + d % 62
            blocks = [
                sq if (bits >> j) & 1 else np.zeros(BLK, dtype=np.int16)
                for j in range(NBLK)
            ]
            data = np.concatenate(blocks).astype("<i2").tobytes()
            fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
            payloads.append(
                b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
                + b"fmt " + struct.pack("<I", 16) + fmt
                + b"data" + struct.pack("<I", len(data)) + data)
            ids.append(d)
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "audio": pa.array(payloads, type=pa.binary()),
            }
        )

    def segment(batch: "pa.Table") -> "pa.Table":
        from tensorflow_ocr_ray.core.audio_codecs import decode_wav

        ids, seg_idx, start_b, end_b, n_b = [], [], [], [], []
        for did, p in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("audio").to_pylist(),
        ):
            samples = decode_wav(p)
            peaks = np.abs(
                samples[:BLK * NBLK].reshape(NBLK, BLK)).max(axis=1)
            act = peaks > 0.01
            si = 0
            j = 0
            while j < NBLK:
                if act[j]:
                    k = j
                    while k + 1 < NBLK and act[k + 1]:
                        k += 1
                    ids.append(did)
                    seg_idx.append(si)
                    start_b.append(j)
                    end_b.append(k)
                    n_b.append(k - j + 1)
                    si += 1
                    j = k + 1
                else:
                    j += 1
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "seg_idx": pa.array(seg_idx, type=pa.int64()),
                "start_block": pa.array(start_b, type=pa.int64()),
                "end_block": pa.array(end_b, type=pa.int64()),
                "n_blocks": pa.array(n_b, type=pa.int64()),
            }
        )

    return docs.map_batches(
        synth, batch_format="pandas", batch_size=1024
    ).map_batches(segment, batch_format="pyarrow")


def _media_audio_mixed(sf_dir: str):
    """Mixed-container AUDIO routing, hash-checked: EVEN doc_ids carry
    a PCM16 WAV, ODD doc_ids a FLAC (constant subframe) — both encode
    the SAME constant signal v = 1000 + (doc_id%200)*37, and both flow
    through ONE AudioFeatureStage pool whose magic sniff (RIFF/WAVE vs
    fLaC) dispatches per row.  A constant at amplitude v decodes to
    the float32 v/2^15 exactly (power-of-two scale), so
    round(peak * 32768) recovers v as an exact int64 and the DuckDB
    oracle is pure doc_id arithmetic — pinning the FLAC frame walk
    (core/flac.py) and the WAV PCM path end to end."""
    import struct

    import pyarrow as pa
    import ray.data as rd

    from tensorflow_ocr_ray.stages.multimodal import AudioFeatureStage

    N = 2048  # samples; AudioFeatureStage frame=1024 → n_frames=2

    def _wav(v: int) -> bytes:
        data = struct.pack("<h", v) * N
        fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
        return (
            b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
            + b"fmt " + struct.pack("<I", 16) + fmt
            + b"data" + struct.pack("<I", len(data)) + data
        )

    class _BW:
        def __init__(self):
            self.buf = bytearray()
            self.acc = 0
            self.nbits = 0

        def write(self, v: int, k: int):
            self.acc = (self.acc << k) | (v & ((1 << k) - 1))
            self.nbits += k
            while self.nbits >= 8:
                self.nbits -= 8
                self.buf.append((self.acc >> self.nbits) & 0xFF)
            self.acc &= (1 << self.nbits) - 1

    def _flac(v: int) -> bytes:
        w = _BW()
        # STREAMINFO: blocksize bounds, frame sizes, sr 8000, mono,
        # 16 bps, total unset, md5 unset
        w.write(16, 16)
        w.write(65535, 16)
        w.write(0, 24)
        w.write(0, 24)
        w.write(8000, 20)
        w.write(0, 3)
        w.write(15, 5)
        w.write(0, 36)
        info = bytes(w.buf) + b"\x00" * 16
        out = bytearray(b"fLaC")
        out += bytes([0x80]) + struct.pack(">I", len(info))[1:] + info
        f = _BW()
        f.write(0x3FFE, 14)  # sync
        f.write(0, 1)
        f.write(0, 1)  # fixed-blocksize strategy
        f.write(7, 4)  # 16-bit blocksize-1 follows
        f.write(0, 4)  # sample rate from STREAMINFO
        f.write(0, 4)  # mono
        f.write(4, 3)  # 16-bit samples
        f.write(0, 1)
        f.write(0, 8)  # frame number 0 (single-byte UTF-8)
        f.write(N - 1, 16)
        f.write(0, 8)  # header CRC-8 (parsed over)
        f.write(0, 1)  # subframe pad bit
        f.write(0, 6)  # CONSTANT
        f.write(0, 1)  # no wasted bits
        f.write(v, 16)  # the constant, signed 16-bit
        if f.nbits:
            f.write(0, 8 - f.nbits)  # align
        f.write(0, 16)  # frame CRC-16 (parsed over)
        out += bytes(f.buf)
        return bytes(out)

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )

    def synth(df):
        payloads = []
        for did in df["doc_id"]:
            d = int(did)
            v = 1000 + (d % 200) * 37
            payloads.append(_wav(v) if d % 2 == 0 else _flac(v))
        return pa.table(
            {
                "media_ref": pa.array(
                    [str(int(d)) for d in df["doc_id"]]
                ),
                "audio": pa.array(payloads, type=pa.binary()),
            }
        )

    feats = docs.map_batches(
        synth, batch_format="pandas", batch_size=1024
    ).map_batches(
        AudioFeatureStage, batch_format="pyarrow", batch_size=256,
        concurrency=2,
    )

    def finalize(batch: "pa.Table") -> "pa.Table":
        import numpy as np

        peak = batch.column("peak").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "media_ref": batch.column("media_ref"),
                "n_frames": batch.column("n_frames"),
                "sample_val": pa.array(
                    np.round(
                        peak.astype(np.float64) * 32768.0
                    ).astype(np.int64),
                    type=pa.int64(),
                ),
            }
        )

    return feats.map_batches(finalize, batch_format="pyarrow")


def _tf_dense_predictions(sf_dir: str):
    from tensorflow_ocr_ray.pipelines.tf_pipeline import dense_predictions

    return dense_predictions(sf_dir).drop_columns(["features"])


def _tf_agreement(sf_dir: str):
    from tensorflow_ocr_ray.pipelines.tf_pipeline import tf_agreement

    return tf_agreement(sf_dir)


def _ocr_dense_scorer(sf_dir: str):
    from tensorflow_ocr_ray.pipelines.tf_pipeline import ocr_with_scorer

    return ocr_with_scorer(sf_dir, "dense")


def _ocr_cnn_scorer(sf_dir: str):
    from tensorflow_ocr_ray.pipelines.tf_pipeline import ocr_with_scorer

    return ocr_with_scorer(sf_dir, "cnn")


def _cms_heavy_hitters(sf_dir: str):
    from tensorflow_ocr_ray.pipelines.sketches import cms_heavy_hitters

    return cms_heavy_hitters(sf_dir)


def _approx_distinct_users(sf_dir: str):
    from tensorflow_ocr_ray.pipelines.sketches import approx_distinct_users

    return approx_distinct_users(sf_dir)


def _heavy_hitter_trigrams(sf_dir: str):
    from tensorflow_ocr_ray.pipelines.sketches import heavy_hitter_trigrams

    return heavy_hitter_trigrams(sf_dir)


def _html_main_content(sf_dir: str):
    """Boilerplate-strip pipeline: documents.text → deterministic HTML
    chrome (nav/header/aside/footer + script/style/comment noise) →
    DOM-block-heuristic extraction.  SQL-oracle-checkable because the
    wrap/extract pair is exact-inverse on these corpora."""
    import ray.data as rd

    from tensorflow_ocr_ray.functions.html_extract import (
        main_content_batch,
        wrap_batch,
    )

    return (
        rd.read_parquet(f"{sf_dir}/documents.parquet",
                        columns=["doc_id", "text"])
        .map_batches(wrap_batch, batch_format="pandas", batch_size=4096)
        .map_batches(main_content_batch, batch_format="pandas",
                     batch_size=4096)
    )


def _web_curation_pipeline(sf_dir: str):
    from tensorflow_ocr_ray.pipelines.extract import web_curation_pipeline

    return web_curation_pipeline(sf_dir)


def _pdf_layout_text_q(sf_dir: str):
    from tensorflow_ocr_ray.pipelines.extract import pdf_layout_text

    return pdf_layout_text(sf_dir)


def _html_table_extract_q(sf_dir: str):
    from tensorflow_ocr_ray.pipelines.extract import html_table_extract

    return html_table_extract(sf_dir)


def _html_link_graph_q(sf_dir: str):
    from tensorflow_ocr_ray.pipelines.extract import html_link_graph

    return html_link_graph(sf_dir)


def _webtier(name: str):
    def run(sf_dir: str):
        from tensorflow_ocr_ray.pipelines import webtier

        return getattr(webtier, name)(sf_dir)

    return run


# Queries with no DuckDB oracle: their output comes from OCR, trained
# models, media codecs or sampled text that SQL cannot re-derive, so the
# oracle sweep checks only that they run and how many rows they return.
# Every other query must have an ``oracle_sql()`` entry.
ROWS_ONLY = frozenset({
    "bpe_fertility_by_lang", "bpe_learn_merges", "bpe_tokenize_count",
    "extract_interleaved", "media_audio_features", "media_caption_pairs",
    "media_pdf_pages", "ocr_cnn_scorer", "ocr_dense_scorer",
    "ocr_extract_exploded", "ocr_extract_flood",
    "ocr_extract_postprocessed", "ocr_glyph_stats", "ocr_glyph_stream",
    "ocr_lineage_manifest", "span_kind_transitions", "tf_agreement",
    "tf_dense_predictions",
})


def queries() -> dict[str, Callable[[str], Any]]:
    from tensorflow_ocr_ray.functions.textstats import (
        doc_stats_batch,
        fingerprint_batch,
        langid_batch,
        langid_confusion,
        normalize_batch,
        quality_batch,
    )
    from tensorflow_ocr_ray.pipelines import (
        curation,
        dedup,
        graph,
        profiling,
        relational,
        search,
        similarity,
        sketches,
        tokenizer,
        windows,
    )

    def _doc_map(batch_fn):
        def run(sf_dir: str):
            import ray.data as rd

            return rd.read_parquet(f"{sf_dir}/documents.parquet").map_batches(
                batch_fn, batch_format="pandas", batch_size=4096
            )

        return run

    return {
        # relational operator coverage (SQL-checked)
        "q01_pricing_summary": relational.q01_pricing_summary,
        "q02_filtered_revenue": relational.q02_filtered_revenue,
        "q03_segment_orders": relational.q03_segment_orders,
        "q04_top_orders": relational.q04_top_orders,
        "q05_region_customers": relational.q05_region_customers,
        "q06_event_type_stats": relational.q06_event_type_stats,
        "q07_user_activity": relational.q07_user_activity,
        "q08_events_hourly": relational.q08_events_hourly,
        "q09_priority_month": relational.q09_priority_month,
        "q10_supplier_balance": relational.q10_supplier_balance,
        "q11_minmax_part": relational.q11_minmax_part,
        "q12_distinct_types": relational.q12_distinct_types,
        "q13_union_priority": relational.q13_union_priority,
        "q14_top_customer_per_nation": relational.q14_top_customer_per_nation,
        "q15_active_users": relational.q15_active_users,
        "q16_event_quantiles": relational.q16_event_quantiles,
        "q18_customers_without_orders": relational.q18_customers_without_orders,
        "q19_top2_orders_per_customer": relational.q19_top2_orders_per_customer,
        "q20_user_event_window": relational.q20_user_event_window,
        "q21_event_props_stats": relational.q21_event_props_stats,
        "q17_order_lineitem_join": relational.q17_order_lineitem_join,
        # windowed / ordered custom operators
        "events_sessionize": windows.sessionize,
        "events_tumbling": windows.tumbling_windows,
        "events_hopping": windows.hopping_windows,
        "asof_event_order": windows.asof_event_order,
        "next_purchase_event": windows.next_purchase_event,
        "event_funnel": windows.event_funnel,
        "cohort_retention": windows.cohort_retention,
        "user_journey": windows.user_journey,
        "event_transitions": windows.event_transitions,
        "event_pattern_match": windows.event_pattern_match,
        "interarrival_quantiles": windows.interarrival_quantiles,
        "event_pivot": relational.event_pivot,
        "rollup_lineitem": relational.rollup_lineitem,
        "price_histogram": relational.price_histogram,
        "running_total": windows.running_total,
        "rolling_distinct_users": windows.rolling_distinct_users,
        "user_active_coverage": windows.user_active_coverage,
        "densify_hourly_user": windows.densify_hourly_user,
        "range_join_orders": windows.range_join_orders,
        "first_touch_attribution": windows.first_touch_attribution,
        "linear_attribution": windows.linear_attribution,
        "first_event_per_user_day": windows.first_event_per_user_day,
        "user_active_streak": windows.user_active_streak,
        "event_lag_diff": windows.event_lag_diff,
        "latest_event_snapshot": windows.latest_event_snapshot,
        "late_event_audit": windows.late_event_audit,
        "user_growth_curve": windows.user_growth_curve,
        "markov_stationary": windows.markov_stationary,
        "session_duration_quantiles": windows.session_duration_quantiles,
        "weekly_churn": windows.weekly_churn,
        "seasonal_profile": windows.seasonal_profile,
        "median_value_cont": windows.median_value_cont,
        "corr_quantity_price": relational.corr_quantity_price,
        "cube_lineitem": relational.cube_lineitem,
        "moving_window_sum": windows.moving_window_sum,
        "range_window_sum": windows.range_window_sum,
        "ntile_events": windows.ntile_events,
        "distinct_trigram_count": curation.distinct_trigram_count,
        "frequent_trigrams": curation.frequent_trigrams,
        "token_explode": curation.token_explode,
        "ann_range_search": similarity.ann_range_search,
        "kmeans_quantized": similarity.kmeans_quantized,
        "semdedup_prune": similarity.semdedup_prune,
        "pq_codebooks": similarity.pq_codebooks,
        "ann_topk_pq": similarity.ann_topk_pq,
        "ann_topk_ivfpq": similarity.ann_topk_ivfpq,
        "cluster_representatives": similarity.cluster_representatives,
        "cluster_token_profile": similarity.cluster_token_profile,
        "priority_sample": curation.priority_sample,
        "spearman_rank_corr": curation.spearman_rank_corr,
        "stratified_sample_exact": curation.stratified_sample_exact,
        "eval_set_builder": curation.eval_set_builder,
        # sliding-window chunker (window 32 / stride 24): the
        # retrieval-chunk + training-window preprocessing step
        "text_chunk_windows": curation.text_chunk_windows,
        "doc_top_tokens": curation.doc_top_tokens,
        "user_mode_event": windows.user_mode_event,
        "q23_returned_item_revenue": relational.q23_returned_item_revenue,
        "q24_view_no_purchase": relational.q24_view_no_purchase,
        "intersect_user_days": relational.intersect_user_days,
        "full_outer_user_day": relational.full_outer_user_day,
        "copurchase_pairs": relational.copurchase_pairs,
        "association_rules": relational.association_rules,
        "winsorized_mean_by_type": relational.winsorized_mean_by_type,
        "mad_by_type": relational.mad_by_type,
        "value_outliers": relational.value_outliers,
        "daily_anomaly_days": relational.daily_anomaly_days,
        "daily_count_autocov": relational.daily_count_autocov,
        "daily_cusum": relational.daily_cusum,
        "daily_ewma": relational.daily_ewma,
        "daily_holt": relational.daily_holt,
        "orders_yoy_growth": relational.orders_yoy_growth,
        "ab_test_stats": relational.ab_test_stats,
        "pareto_revenue_share": relational.pareto_revenue_share,
        "orders_daily_ohlc": relational.orders_daily_ohlc,
        "user_bitmap_activity": relational.user_bitmap_activity,
        "customer_rfm_segments": relational.customer_rfm_segments,
        "orders_skyline": relational.orders_skyline,
        "zorder_layout_stats": relational.zorder_layout_stats,
        "equidepth_histogram": relational.equidepth_histogram,
        "orders_percent_rank": relational.orders_percent_rank,
        "systematic_sample": relational.systematic_sample,
        "join_cardinality_audit": relational.join_cardinality_audit,
        "compaction_plan": relational.compaction_plan,
        "table_diff_audit": relational.table_diff_audit,
        "zorder_pruned_scan": relational.zorder_pruned_scan,
        "merge_upsert": relational.merge_upsert,
        "k_anonymity_audit": relational.k_anonymity_audit,
        "orders_sorted_export": relational.orders_sorted_export,
        "mv_delta_refresh": relational.mv_delta_refresh,
        "key_skew_audit": relational.key_skew_audit,
        "salted_join_hot_keys": relational.salted_join_hot_keys,
        "snapshot_time_travel": relational.snapshot_time_travel,
        "part_trending_decay": relational.part_trending_decay,
        "schema_evolution_read": relational.schema_evolution_read,
        "data_quality_expectations": relational.data_quality_expectations,
        "order_value_benford": relational.order_value_benford,
        "sampled_event_counts": relational.sampled_event_counts,
        "revenue_gini": relational.revenue_gini,
        "basket_size_hist": relational.basket_size_hist,
        "scd2_price_enrich": relational.scd2_price_enrich,
        "regr_price_on_quantity": relational.regr_price_on_quantity,
        "source_vocab_overlap": curation.source_vocab_overlap,
        "chunk_documents": curation.chunk_documents,
        "contrastive_negatives": curation.contrastive_negatives,
        "pii_pseudonymize": curation.pii_pseudonymize,
        "embedding_quantize": similarity.embedding_quantize,
        "embedding_covariance": similarity.embedding_covariance,
        "top_order_lineitems": relational.top_order_lineitems,
        "region_flag_revenue": relational.region_flag_revenue,
        "user_order_event_ratio": relational.user_order_event_ratio,
        "bloom_semi_join": relational.bloom_semi_join,
        "q22_region_monthly_revenue": relational.q22_region_monthly_revenue,
        "above_avg_parts": relational.above_avg_parts,
        # dedup family
        "dedup_exact": dedup.dedup_exact,
        "dedup_rate_by_source": dedup.dedup_rate_by_source,
        "cross_source_dup_matrix": dedup.cross_source_dup_matrix,
        "dedup_threshold_sweep": dedup.dedup_threshold_sweep,
        "doc_containment_pairs": dedup.doc_containment_pairs,
        # rarest-prefix plan: same rows, linear candidate volume on
        # natural corpora (the 100-TB path); shares the exact plan's SQL
        "doc_containment_prefix": dedup.doc_containment_pairs_prefix,
        "edit_distance_pairs": dedup.edit_distance_pairs,
        "char_jaccard_pairs": dedup.char_jaccard_pairs,
        "ngram_jaccard_pairs": dedup.ngram_jaccard_pairs,
        "minhash_dedup": dedup.minhash_dedup,
        "minhash_cluster_size_hist": dedup.minhash_cluster_size_hist,
        "minhash_verified_pairs": dedup.minhash_verified_pairs,
        "simhash_fingerprints": dedup.simhash_fingerprints,
        # banded Hamming-<=3 near-dup pairs over the fingerprints
        # (4x16-bit pigeonhole bands -> bucket exchange -> XOR popcount
        # verify -> pair-key dedup exchange)
        "simhash_dup_pairs": dedup.simhash_dup_pairs,
        # the frame-returning memo wrapper (one fingerprint+join run per
        # driver pass shared with winnow_dup_clusters, cf. the MinHash
        # family); the lazy-Dataset plan is dedup.winnow_dup_pairs
        "winnow_dup_pairs": lambda sf: dedup._winnow_pairs_frame(
            sf, 4, 64
        ),
        "winnow_dup_clusters": dedup.winnow_dup_clusters,
        "dedup_incremental": dedup.dedup_incremental,
        # corpus search (pipelines/search.py): map-only inverted-index ops
        "phrase_search": search.phrase_search,
        "bm25_topk": search.bm25_topk,
        # reciprocal-rank fusion of BM25 + Dirichlet query-likelihood
        # top-100 lists (k=60), one stats pass + one dual-scorer pass
        "rrf_fusion": search.rrf_fusion,
        # positional proximity (terms within a +/-5-token window),
        # map-only like phrase_search
        "proximity_search": search.proximity_search,
        # NDCG@10 of the BM25 ranking vs tf-graded relevance (shared
        # ppm discount LUT; exact integer DCG/IDCG on both sides)
        "ndcg_eval": search.ndcg_eval,
        # conjunctive lookup over the PERSISTED hive-sharded inverted
        # index — only the query terms' shard partitions are read
        "inverted_index_and": search.inverted_index_and,
        # schema-audit profiling (pipelines/profiling.py): one streaming
        # pass, map-side partials only
        "profile_lineitem": profiling.profile_table,
        "profile_events": profiling.profile_events,
        "profile_documents": profiling.profile_documents,
        # iterative graph computation (pipelines/graph.py): sharded
        # rank state in the object store, one exchange per iteration
        "link_pagerank": graph.link_pagerank,
        # random-walk-with-restart relevance to the doc_id%97 seed set
        "personalized_pagerank": graph.personalized_pagerank,
        "graph_components": graph.graph_components,
        "graph_modularity": graph.graph_modularity,
        "graph_degree_stats": graph.graph_degree_stats,
        "graph_bfs_depth": graph.graph_bfs_depth,
        "triangle_count": graph.triangle_count,
        "kcore_membership": graph.kcore_membership,
        "shortest_path_weighted": graph.shortest_path_weighted,
        # two-pass broadcast-candidate heavy hitters (pipelines/
        # sketches.py): exact iceberg, no gram-space shuffle
        "heavy_hitter_trigrams": _heavy_hitter_trigrams,
        "cms_heavy_hitters": _cms_heavy_hitters,
        # similarity search
        "ann_topk_brute": similarity.ann_topk_brute,
        "ann_topk_filtered": similarity.ann_topk_filtered,
        # two-stage retrieval: cheap over-retrieve k1, expensive
        # candidate-only re-score (even-dim cosine), final top-k
        "rerank_two_stage": similarity.rerank_two_stage,
        # margin-based bitext mining (Artetxe & Schwenk ratio margin):
        # hubness-normalized best pair per source vector; backward
        # means via per-block top-k partials, never a full sim matrix
        "bitext_margin_mine": similarity.bitext_margin_mine,
        # per-label centroid-distance audit (mislabel/contamination
        # screen): two linear passes, bounded label grid, no N x N
        "embedding_outlier_audit": similarity.embedding_outlier_audit,
        # the read-pruned indexed paths (build-once bucket/cell
        # partitions; only the probe ring is READ) — at 100 TB the index
        # IS the operator; the scan-and-filter variants remain as
        # similarity.ann_topk_lsh / ann_topk_ivf for index-free corpora
        "ann_topk_lsh": similarity.ann_topk_lsh_pruned,
        "ann_index_append": similarity.ann_index_append,
        "ann_recall_eval": similarity.ann_recall_eval,
        "ann_topk_ivf": similarity.ann_topk_ivf_pruned,
        "label_centroids": similarity.label_centroids,
        "embedding_dup_pairs": similarity.embedding_dup_pairs,
        "embedding_dup_clusters": similarity.embedding_dup_clusters,
        "ann_topk_multi": similarity.ann_topk_multi,
        "knn_label_predict": similarity.knn_label_predict,
        # text analysis
        "doc_tokens": _doc_map(doc_stats_batch),
        "doc_quality": _doc_map(quality_batch),
        "doc_langid": _doc_map(langid_batch),
        "langid_confusion": langid_confusion,
        "doc_fingerprints": _doc_map(fingerprint_batch),
        "doc_normalize": _doc_map(normalize_batch),
        # corpus curation: the training-data build steps beyond dedup
        "decontaminate": curation.decontaminate,
        "repetition_stats": curation.repetition_stats,
        "hash_split": curation.hash_split,
        "pii_scrub": curation.pii_scrub,
        "pack_sequences": curation.pack_sequences,
        "tfidf_top_terms": curation.tfidf_top_terms,
        "source_gate": curation.source_gate,
        "dup_span_coverage": curation.dup_span_coverage,
        "vocab_topk": curation.vocab_topk,
        # Heaps'-law growth curve: one token-shard exchange for firsts,
        # shuffle-free cumulative token totals
        "heaps_vocab_growth": curation.heaps_vocab_growth,
        # hapax/dis-legomena tail-mass profile per source + __all__
        "hapax_stats": curation.hapax_stats,
        # per-doc unigram entropy, exact fixed-point via the shared LUT
        "token_entropy": curation.token_entropy,
        "source_token_gini": curation.source_token_gini,
        "bigram_pmi_topk": curation.bigram_pmi_topk,
        "bigram_lm_familiarity": curation.bigram_lm_familiarity,
        "doc_novel_trigrams": curation.doc_novel_trigrams,
        "length_percentile_gate": curation.length_percentile_gate,
        "gopher_gate": curation.gopher_gate,
        # sequential funnel: lang -> length -> repetition -> exact dup,
        # each rule charged only for docs surviving the earlier ones
        "filter_funnel": curation.filter_funnel,
        "doc_rarity": curation.doc_rarity,
        "mixture_rebalance": curation.mixture_rebalance,
        "source_topk_docs": curation.source_topk_docs,
        "curation_pipeline": curation.curation_pipeline,
        "dedup_keep_list": dedup.dedup_keep_list,
        "dedup_keep_longest": dedup.dedup_keep_longest,
        # html main-content extraction: deterministic boilerplate chrome
        # wrapped around each document's text; the extractor must recover
        # the text EXACTLY (hard oracle: extracted == documents.text)
        "html_main_content": _html_main_content,
        # extract -> curate composition: crawl blob -> strip -> Gopher
        # gate -> exact dedup in one plan; the oracle re-derives all of
        # it from RAW documents.text, so extraction loss anywhere in
        # the chain surfaces as a downstream hash mismatch
        "web_curation_pipeline": _web_curation_pipeline,
        # PDF layout parse: text recovered from vector-PDF content
        # streams alone (no raster, no OCR) — Tm composition, Type3
        # encoding/width tables, baseline clustering and the geometric
        # space rule are all on the hash
        "pdf_layout_text": _pdf_layout_text_q,
        # DOM-heuristic structured extraction: main-table selection
        # (most data cells beats the decoy nav table), th-header drop,
        # entity unescape — typed records out, re-derived in SQL
        "html_table_extract": _html_table_extract_q,
        # outlink extraction -> host-level link graph: absolute-vs-
        # relative href distinction, host folding, bounded-grid counts
        "html_link_graph": _html_link_graph_q,
        # web-ingestion tier: the on-ramp between crawl blobs and the
        # extraction flagship — framing parse, URL normalize, redirect
        # pointer-doubling, head metadata, anchor index, robots gate,
        # declared-vs-sniffed type audit
        "url_canonicalize": _webtier("url_canonicalize"),
        "redirect_resolution": _webtier("redirect_resolution"),
        "html_meta_extract": _webtier("html_meta_extract"),
        "anchor_text_index": _webtier("anchor_text_index"),
        "robots_gate": _webtier("robots_gate"),
        "warc_record_parse": _webtier("warc_record_parse"),
        "content_type_audit": _webtier("content_type_audit"),
        # cross-document boilerplate: a line is boilerplate iff it
        # appears in >= 60% of its host's docs — discovered from
        # frequency via two skinny exchanges (CCNet-style line dedup)
        "host_boilerplate_strip": _webtier("host_boilerplate_strip"),
        # schema.org JSON-LD block extraction: valid blocks parsed to
        # typed rows, malformed blocks skipped, plain-JS decoys ignored
        "jsonld_extract": _webtier("jsonld_extract"),
        # h1-h6 outline with section paths; comment/script decoys must
        # not match (the chunking stage's retrieval-context keys)
        "heading_outline": _webtier("heading_outline"),
        # charset sniff (BOM / meta declaration / default) + decode to
        # UTF-8 — the byte-level on-ramp every text op depends on
        "charset_transcode": _webtier("charset_transcode"),
        # nested ul/ol items with depth + orderedness; chrome/comment/
        # script decoys dropped as boilerplate subtrees
        "html_list_extract": _webtier("html_list_extract"),
        # figure↔caption join keys for multimodal training pairs; loose
        # images and commented-out figures skipped
        "figure_caption_extract": _webtier("figure_caption_extract"),
        # sitemap <url> entries to typed rows; optional lastmod/priority
        # surface as ''/-1, commented decoys skipped
        "sitemap_parse": _webtier("sitemap_parse"),
        # RSS items: CDATA vs escaped titles decode identically,
        # truncated trailing items skipped (crawl reality)
        "rss_feed_parse": _webtier("rss_feed_parse"),
        # rel=next chain reassembly: parse pointers, validate targets,
        # pointer-double to the tail, one tail-keyed exchange for
        # head/len/pos — the ordered page-stitch invariant
        "pagination_chain": _webtier("pagination_chain"),
        # HTML -> Markdown rendering: headings/lists/bold/em/links
        # survive as structure; whole-string hash oracle
        "html_markdown_render": _webtier("html_markdown_render"),
        # abbreviation-aware sentence segmentation: No./3.5/e.g. decoys
        # must not split, terminator + space + uppercase must
        "sentence_split": _webtier("sentence_split"),
        # URL path-template mining: digit segments -> {n}, (host,
        # template) counts via one template-hash exchange
        "url_template_mine": _webtier("url_template_mine"),
        # DOM-shape audit: tolerant tag-stack walk (misnested tags,
        # void elements, script/comment decoys)
        "dom_structure_stats": _webtier("dom_structure_stats"),
        # paragraph-level language segmentation with adjacent-run
        # merging; oracle composes the generated langid SQL
        "language_segments": _webtier("language_segments"),
        # frontier merge: sitemap ∪ outlinks, canonical-collapse of a
        # planted messy re-discovery, robots gate, one url exchange
        "crawl_frontier_dedup": _webtier("crawl_frontier_dedup"),
        "crawl_politeness_schedule": _webtier("crawl_politeness_schedule"),
        # corpus governance: rel=license beats anchor evidence,
        # commented decoys never match
        "license_detect": _webtier("license_detect"),
        # encoding-damage quarantine: double-encode signatures counted,
        # legit non-ASCII never flagged
        "mojibake_audit": _webtier("mojibake_audit"),
        # fenced <pre><code> blocks verbatim (newlines kept, entities
        # unescaped); inline-code/bare-pre/script/comment decoys skipped
        "code_block_extract": _webtier("code_block_extract"),
        # hreflang alternate clusters: one cluster-hash exchange,
        # reciprocity audit catches the planted broken back-link
        "hreflang_clusters": _webtier("hreflang_clusters"),
        # schema.org microdata with real itemscope scoping: the nested
        # Brand name never leaks into its parent Product
        "microdata_extract": _webtier("microdata_extract"),
        # AMP <-> canonical reciprocity: two sides meet in one key
        # exchange; broken back-links strand the canonical side AND
        # mint a phantom amp-only key
        "amp_canonical_pairs": _webtier("amp_canonical_pairs"),
        # per-host follow/nofollow/sponsored/ugc grid (rel is a token
        # list; rel'd relative nav links are not outlinks)
        "link_rel_audit": _webtier("link_rel_audit"),
        # breadcrumb trail (site-hierarchy path); the class-less
        # pagination nav with identical li markup is the decoy
        "breadcrumb_extract": _webtier("breadcrumb_extract"),
        # og:title vs <title> drift + og:image presence; twitter:title
        # decoy never consulted
        "og_card_audit": _webtier("og_card_audit"),
        # two independent main-content heuristics cross-checked per
        # page; the planted short paragraph splits them every 4th doc
        "extractor_agreement": _webtier("extractor_agreement"),
        # registrable-domain rollup with longest-suffix PSL matching
        # (a.d3.co.uk -> d3.co.uk, never co.uk via the bare uk entry)
        "domain_pld_rollup": _webtier("domain_pld_rollup"),
        # incremental-recrawl delta: unchanged/changed/new/gone per
        # url, both snapshots meeting in one url-hash exchange
        "recrawl_diff": _webtier("recrawl_diff"),
        # trailer /Info dict: escaped-paren titles, hex-string authors,
        # D:YYYY dates; content-stream /Title decoy never wins
        "pdf_info_extract": _webtier("pdf_info_extract"),
        # client-side redirects: http-equiv=refresh WITH a url target;
        # bare-delay reloads and name="refresh" decoys are not edges
        "meta_refresh_extract": _webtier("meta_refresh_extract"),
        # Sitemap: lines from per-host robots.txt (key case-insensitive,
        # commented decoys never match); bounded host-set distinct
        "robots_sitemap_discovery": _webtier("robots_sitemap_discovery"),
        # raw response heads: status / mime token / Location; X-Decoy
        # headers never match
        "http_response_parse": _webtier("http_response_parse"),
        # RAG chunk shape: each heading's body text with its full
        # section breadcrumb; comment/script heading decoys never split
        "section_chunks": _webtier("section_chunks"),
        # recognized-provider video embeds in document order; the ad
        # iframe and a commented-out embed are the planted decoys
        "video_embed_extract": _webtier("video_embed_extract"),
        # rel=canonical vs og:url drift (missing every 7th, stale every
        # 5th); rel=alternate decoy never consulted
        "canonical_conflict_audit": _webtier("canonical_conflict_audit"),
        # form inventory + login signature (password input); the
        # commented-out password form is the decoy
        "html_form_extract": _webtier("html_form_extract"),
        # client-side-rendering detector: visible text vs script bytes,
        # every 6th doc a planted JS shell
        "js_dependence_audit": _webtier("js_dependence_audit"),
        # Flesch-style readability over deterministic prose (sentences,
        # words, vowel-run syllables + the one IEEE double)
        "text_readability": curation.text_readability,
        # pinned-integer-weight quality classifier (the fastText-style
        # gate reduced to its deterministic linear core)
        "quality_lr_score": curation.quality_lr_score,
        # reliability diagram: model-score bins vs the Gopher-gate gold
        # verdict, bounded grid partials
        "score_calibration_bins": curation.score_calibration_bins,
        # WebVTT cues -> typed rows: ms-exact timestamps, voice-tag
        # speakers; NOTE/STYLE blocks are the decoys
        "vtt_cue_parse": _webtier("vtt_cue_parse"),
        # recrawl-policy buckets from cache headers (no-store / fresh /
        # etag-only / unvalidated); X-Cache-Decoy never matches
        "http_cache_audit": _webtier("http_cache_audit"),
        # soft dedup: every copy weighted 1000//cluster_size instead of
        # dropped; same bounded-key md5 shard routing as dedup_exact
        "dup_weight_assign": dedup.dup_weight_assign,
        # DSIR-style hashed-unigram importance screening: target(en) vs
        # raw ppm mass, ratio_milli resampling rule; 64x2 integer grid
        # is the only collect
        "dsir_importance_weights": curation.dsir_importance_weights,
        # multipart-MIME framing + base64/quoted-printable decode;
        # preamble/epilogue are the framing decoys
        "email_mime_parse": _webtier("email_mime_parse"),
        # fragment links vs element ids (broken-TOC audit); the
        # external-URL fragment is the decoy
        "toc_anchor_audit": _webtier("toc_anchor_audit"),
        # alt-text coverage: missing vs empty vs real captions; the
        # commented-out img is the decoy
        "image_alt_audit": _webtier("image_alt_audit"),
        # US/EU locale price normalization to integer cents; bare
        # decimal + grouped year decoys never match
        "price_extract_normalize": curation.price_extract_normalize,
        # T5-style span-corruption layout (len 3, stride 8, per-doc
        # offset) with the masked text attached
        "span_corruption_masks": curation.span_corruption_masks,
        # CCNet head/middle/tail: global LM-score terciles without a
        # global sort (value-range shards + rank offsets)
        "lm_score_terciles": curation.lm_score_terciles,
        # CCNet paragraph dedup: corpus-wide keep-first over 8-token
        # chunks with the surviving text reassembled per doc
        "paragraph_dedup": curation.paragraph_dedup,
        # LM-based quality scoring: corpus bigram model, integer ppm
        # conditional probabilities (transcendental-free KenLM signal)
        "ngram_lm_score": curation.ngram_lm_score,
        "approx_distinct_users": _approx_distinct_users,
        "hll_distinct": sketches.hll_distinct,
        # audience-overlap set ops: register-max union + incl-excl
        # intersection over per-type user@day sketches
        "hll_set_ops": sketches.hll_set_ops,
        "bloom_fpr_audit": sketches.bloom_fpr_audit,
        # BPE merge learning (rows-only: k data-dependent
        # re-segmentation rounds aren't SQL; pytest parity vs the
        # sequential reference trainer is the gate)
        "bpe_learn_merges": tokenizer.bpe_learn_merges,
        "bpe_tokenize_count": tokenizer.bpe_tokenize_count,
        "bpe_fertility_by_lang": tokenizer.bpe_fertility_by_lang,
        # OCR pipeline (rows-only; correctness gated by pytest span-equality)
        "ocr_extract_exploded": _ocr_exploded,
        # combined extraction tier: html spans boilerplate-stripped AND
        # media spans OCR'd in one streamed pass (rows-only; pytest
        # checks exact span-sequence equality vs the analytic golden)
        "extract_interleaved": _extract_interleaved,
        # caption-context pairs over the nested interleaved corpus:
        # order is a free local property, zero shuffle (rows-only —
        # the input is the north-star nested table, not a SQL view)
        "media_caption_pairs": _media_caption_pairs,
        "span_kind_transitions": _span_kind_transitions,
        "ocr_extract_flood": _ocr_flood,
        "ocr_extract_postprocessed": _ocr_postprocessed,
        "ocr_glyph_stream": _ocr_glyph_stream,
        "ocr_glyph_stats": _glyph_stats,
        # multimodal plumbing (rows-only; DSP features aren't SQL)
        "media_audio_features": _media_audio_features,
        "media_pdf_pages": _media_pdf_pages,
        "media_pdf_ink": _media_pdf_ink,
        "media_gif_frames": _media_gif_frames,
        "media_avi_frames": _media_avi_frames,
        "media_mixed_frames": _media_mixed_frames,
        "media_bmp_ink": _media_bmp_ink,
        "media_png_ink": _media_png_ink,
        "media_augment_ink": _media_augment_ink,
        "media_jpeg_ink": _media_jpeg_ink,
        "media_audio_mixed": _media_audio_mixed,
        "media_audio_g711": _media_audio_g711,
        "ocr_lineage_manifest": _ocr_lineage_manifest,
        "media_tiff_ink": _media_tiff_ink,
        "media_header_probe": _media_header_probe,
        # catalog metadata extraction from TIFF headers (no decode)
        "tiff_metadata_extract": _media_tiff_metadata,
        # frame-diff scene-change detection over planted AVI scenes
        "video_scene_cuts": _video_scene_cuts,
        # VAD-shaped energy segmentation over planted WAV blocks
        "audio_energy_segments": _audio_energy_segments,
        # perceptual (brightness-invariant dHash) image dedup over
        # decoded TIFF payloads; oracle = the planted doc_id%8 clusters
        "media_phash_dedup": _media_phash_dedup,
        # TF 3-step flow: learned scorers + agreement eval (SURVEY §3.2)
        "tf_dense_predictions": _tf_dense_predictions,
        "tf_agreement": _tf_agreement,
        "ocr_dense_scorer": _ocr_dense_scorer,
        "ocr_cnn_scorer": _ocr_cnn_scorer,
    }


def _minhash_sql(num_perm: int = 64, bands: int = 16,
                 verify_threshold: float = 0.6) -> str:
    """DuckDB re-derivation of dedup.minhash_verified_pairs, end to end:

    1. the SAME crc32 shingle hashes (crc32 folded in SQL via the public
       256-entry reflected-polynomial table, injected as literals; ASCII
       corpora => unicode(char) == utf-8 byte);
    2. the SAME (a*x+b) mod 2^61-1 permutation family (the seeded
       constants injected as a VALUES literal — parameters, not results);
    3. candidates = pairs sharing one band's 4-value signature slice
       (exactly the pipeline's band-key collision under crc injectivity);
    4. exact shingle-hash Jaccard >= threshold, raw DOUBLE ratio on both
       sides -> bit-identical hash compare.
    """
    import numpy as np

    tbl = []
    for n in range(256):
        c = n
        for _ in range(8):
            c = (c >> 1) ^ (0xEDB88320 if c & 1 else 0)
        tbl.append(c)
    rng = np.random.Generator(np.random.PCG64(7))  # MinHasher(seed=7)
    pa_ = rng.integers(1, 1 << 30, size=num_perm, dtype=np.int64)
    pb_ = rng.integers(0, (1 << 61) - 1, size=num_perm, dtype=np.int64)
    crc_values = ",".join(f"({i},{v})" for i, v in enumerate(tbl))
    perm_values = ",".join(
        f"({i},{int(pa_[i])},{int(pb_[i])})" for i in range(num_perm)
    )
    rows_per_band = num_perm // bands
    return f"""
        WITH crc_tbl(idx, v) AS (VALUES {crc_values}),
        perms(pi, pa, pb) AS (VALUES {perm_values}),
        t AS (
          SELECT doc_id,
                 lower(regexp_replace(trim(text), '\\s+', ' ', 'g')) AS t
          FROM documents
        ),
        pos AS (
          SELECT doc_id, t,
                 unnest(generate_series(1, greatest(length(t)-2, 1))) AS i
          FROM t WHERE length(t) > 0
        ),
        shs AS (
          SELECT DISTINCT doc_id,
                 CASE WHEN length(t) < 3 THEN t
                      ELSE substring(t, CAST(i AS INT), 3) END AS s
          FROM pos
        ),
        c0 AS (SELECT doc_id, s, 4294967295 AS crc FROM shs),
        -- CRC byte folds as HASH JOINS against the 256-entry table: the
        -- correlated-subquery form forced a per-row nested lookup that
        -- DuckDB materialized and spilled ~250 GB at sf0.1
        c1 AS (
          SELECT c0.doc_id, c0.s,
                 CASE WHEN length(c0.s) >= 1
                      THEN xor(c0.crc >> 8, tb.v)
                      ELSE c0.crc END AS crc
          FROM c0 LEFT JOIN crc_tbl tb
            ON tb.idx = xor(c0.crc, unicode(substring(c0.s,1,1))) & 255
        ),
        c2 AS (
          SELECT c1.doc_id, c1.s,
                 CASE WHEN length(c1.s) >= 2
                      THEN xor(c1.crc >> 8, tb.v)
                      ELSE c1.crc END AS crc
          FROM c1 LEFT JOIN crc_tbl tb
            ON tb.idx = xor(c1.crc, unicode(substring(c1.s,2,1))) & 255
        ),
        c3 AS (
          SELECT c2.doc_id, c2.s,
                 CASE WHEN length(c2.s) >= 3
                      THEN xor(c2.crc >> 8, tb.v)
                      ELSE c2.crc END AS crc
          FROM c2 LEFT JOIN crc_tbl tb
            ON tb.idx = xor(c2.crc, unicode(substring(c2.s,3,1))) & 255
        ),
        sh AS (SELECT DISTINCT doc_id, xor(crc, 4294967295) AS x FROM c3),
        sig AS (
          SELECT doc_id, pi,
                 min((pa * x + pb) % 2305843009213693951) AS mv
          FROM sh CROSS JOIN perms
          GROUP BY doc_id, pi
        ),
        bandsig AS (
          SELECT doc_id, pi // {rows_per_band} AS band,
                 string_agg(CAST(mv AS VARCHAR), ',' ORDER BY pi) AS sigstr
          FROM sig GROUP BY doc_id, pi // {rows_per_band}
        ),
        cand AS (
          SELECT DISTINCT x.doc_id AS doc_a, y.doc_id AS doc_b
          FROM bandsig x JOIN bandsig y
            ON x.band = y.band AND x.sigstr = y.sigstr
               AND x.doc_id < y.doc_id
        ),
        cnt AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
        inter AS (
          SELECT c.doc_a, c.doc_b, count(*) AS isz
          FROM cand c
          JOIN sh sa ON sa.doc_id = c.doc_a
          JOIN sh sb ON sb.doc_id = c.doc_b AND sb.x = sa.x
          GROUP BY 1, 2
        )
        SELECT i.doc_a, i.doc_b,
               CAST(i.isz AS DOUBLE)/(ca.n+cb.n-i.isz) AS sim
        FROM inter i
        JOIN cnt ca ON ca.doc_id = i.doc_a
        JOIN cnt cb ON cb.doc_id = i.doc_b
        WHERE CAST(i.isz AS DOUBLE)/(ca.n+cb.n-i.isz) >= {verify_threshold}
    """


def _ann_lsh_sql(k: int = 10, n_planes: int = 8, probes: int = 3,
                 seed: int = 11, dim: int = 64,
                 query_vec_id: int = 0) -> str:
    """DuckDB re-derivation of similarity.ann_topk_lsh_pruned end to end:
    the SAME seeded hyperplanes (parameters, injected as literals; the
    testdata embeddings are {dim}-dim at every sf tier), sign-projection
    bucket codes, the multiprobe ring ordered by |q·p| margin, the
    auto-widen rule (smallest p in [probes, n_planes] with >= k
    candidates), cosine top-k.  Verifies the read-pruned indexed path
    byte-for-byte — bucket pruning must not change the answer."""
    from tensorflow_ocr_ray.pipelines.similarity import _lsh_planes

    planes = _lsh_planes(dim, n_planes, seed)
    rows = []
    for i in range(n_planes):
        vals = ", ".join(repr(float(v)) for v in planes[i])
        rows.append(f"({i}, [{vals}]::DOUBLE[])")
    planes_values = ", ".join(rows)
    return f"""
        WITH planes(pi, pv) AS (VALUES {planes_values}),
        q AS (SELECT CAST(embedding AS DOUBLE[]) AS e FROM embeddings
              WHERE vec_id = {query_vec_id}),
        qproj AS (SELECT pi, list_dot_product(pv, (SELECT e FROM q)) AS d
                  FROM planes),
        qcode_t AS (SELECT CAST(SUM(CASE WHEN d > 0 THEN 1<<pi ELSE 0 END)
                                AS BIGINT) AS qcode FROM qproj),
        flips AS (SELECT pi, row_number() OVER (ORDER BY abs(d), pi) AS rk
                  FROM qproj),
        codes AS (
          SELECT e.vec_id,
                 CAST(SUM(CASE WHEN list_dot_product(
                                   p.pv, CAST(e.embedding AS DOUBLE[])) > 0
                          THEN 1<<p.pi ELSE 0 END) AS BIGINT) AS code
          FROM embeddings e CROSS JOIN planes p GROUP BY e.vec_id
        ),
        ring AS (
          SELECT c.vec_id,
                 CASE WHEN c.code = (SELECT qcode FROM qcode_t) THEN 0
                      ELSE (SELECT min(f.rk) FROM flips f
                            WHERE xor(c.code, (SELECT qcode FROM qcode_t))
                                  = (1<<f.pi))
                 END AS lvl
          FROM codes c
        ),
        counts AS (
          SELECT ps.p, count(r.vec_id) AS n
          FROM (SELECT unnest(generate_series({probes}, {n_planes})) AS p) ps
          LEFT JOIN ring r ON r.lvl IS NOT NULL AND r.lvl <= ps.p
                           AND r.vec_id <> {query_vec_id}
          GROUP BY ps.p
        ),
        pstar_t AS (SELECT coalesce(min(p), {n_planes}) AS pstar
                    FROM counts WHERE n >= {k})
        SELECT e.vec_id,
               round(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
                     (SELECT e FROM q)), 4) AS sim
        FROM ring r JOIN embeddings e ON e.vec_id = r.vec_id
        WHERE r.vec_id <> {query_vec_id} AND r.lvl IS NOT NULL
          AND r.lvl <= (SELECT pstar FROM pstar_t)
        ORDER BY sim DESC, e.vec_id
        LIMIT {k}
    """




def _bloom_sql() -> str:
    """DuckDB re-derivation of sketches.bloom_fpr_audit: same
    arithmetic double-hashing constants, the bitmap as bit_or-built
    63-bit int64 words, probes AND-checked via min over the three
    bits."""
    from tensorflow_ocr_ray.pipelines.sketches import (
        BF_A, BF_B, BF_M, BF_P,
    )

    def hashes(src_cte: str) -> str:
        return " UNION ALL ".join(
            f"SELECT u, (({a} * u + {b}) % {BF_P}) % {BF_M} AS p "
            f"FROM {src_cte}"
            for a, b in zip(BF_A, BF_B))

    return f"""
        WITH ins AS (SELECT DISTINCT o_custkey AS u FROM orders
                     WHERE o_custkey % 2 = 0),
        pr AS (SELECT DISTINCT o_custkey AS u FROM orders
               WHERE o_custkey % 2 = 1),
        hp AS ({hashes("ins")}),
        words AS (
          SELECT p // 63 AS w,
                 bit_or(CAST(1 AS BIGINT)
                        << CAST(p % 63 AS INTEGER)) AS bits
          FROM hp GROUP BY 1
        ),
        ph AS ({hashes("pr")}),
        chk AS (
          SELECT ph.u,
                 min(coalesce((w.bits >> CAST(ph.p % 63 AS INTEGER))
                              & 1, 0)) AS allhit
          FROM ph LEFT JOIN words w ON w.w = ph.p // 63
          GROUP BY ph.u
        ),
        agg AS (SELECT CAST(count(*) FILTER (WHERE allhit = 1)
                            AS BIGINT) AS n_fp FROM chk)
        SELECT CAST((SELECT count(*) FROM ins) AS BIGINT)
                   AS n_inserted,
               CAST((SELECT count(*) FROM pr) AS BIGINT) AS n_probes,
               CAST((SELECT sum(bit_count(bits)) FROM words)
                    AS BIGINT) AS n_bits_set,
               n_fp AS n_false_pos,
               CAST(n_fp * 1000000
                    // greatest((SELECT count(*) FROM pr), 1)
                    AS BIGINT) AS fpr_ppm
        FROM agg
    """


def _hll_sql() -> str:
    """DuckDB re-derivation of sketches.hll_distinct: same md5-high-60
    hash, same m=256 registers, the HUGEINT fixed-point raw estimate,
    and the linear-counting correction looked up from the SAME
    hll_lc_lut() the engine uses (injected as a VALUES table — no
    transcendental is evaluated independently on either side)."""
    from tensorflow_ocr_ray.pipelines.sketches import (
        HLL_ALPHA_E6, HLL_K, HLL_M, HLL_WBITS, hll_lc_lut,
    )

    lut_rows = ", ".join(
        f"({v + 1}, {lc})" for v, lc in enumerate(hll_lc_lut()))
    return f"""
        WITH hh AS (
          SELECT ('0x' || substr(md5(CAST(o_custkey AS VARCHAR)),
                                 1, 15))::BIGINT AS h
          FROM orders
        ),
        b AS (
          SELECT h % {HLL_M} AS bucket,
                 (h // {HLL_M}) % {1 << HLL_WBITS} AS w
          FROM hh
        ),
        r AS (
          SELECT bucket,
                 max(CASE WHEN w = 0 THEN {HLL_WBITS + 1}
                      ELSE CAST(floor(log2(w & (-w))) AS BIGINT)
                           + 1 END) AS register
          FROM b GROUP BY 1
        ),
        f AS (
          SELECT gs.bucket,
                 CAST(coalesce(r.register, 0) AS BIGINT) AS register
          FROM (SELECT unnest(generate_series(0, {HLL_M - 1}))
                    AS bucket) gs
          LEFT JOIN r USING (bucket)
        ),
        s AS (
          SELECT sum(CAST(1 AS BIGINT) << ({HLL_K} - register)) AS s,
                 CAST(count(*) FILTER (WHERE register = 0) AS BIGINT)
                     AS v_empty
          FROM f
        ),
        est AS (
          SELECT CAST(CAST({HLL_ALPHA_E6} AS HUGEINT)
                      * {HLL_M * HLL_M} * {1 << HLL_K}
                      // (1000000 * s) AS BIGINT) AS raw,
                 v_empty
          FROM s
        ),
        lut(v, lc) AS (VALUES {lut_rows}),
        corrected AS (
          SELECT CASE WHEN 2 * raw <= {5 * HLL_M} AND v_empty > 0
                      THEN (SELECT lc FROM lut WHERE v = v_empty)
                      ELSE raw END AS c
          FROM est
        )
        SELECT CAST(bucket AS BIGINT) AS bucket, register FROM f
        UNION ALL
        SELECT -1, raw FROM est
        UNION ALL
        SELECT -2, c FROM corrected
        UNION ALL
        SELECT -3, CAST(count(DISTINCT o_custkey) AS BIGINT)
        FROM orders
    """


def _hll_set_ops_sql(type_a: str = "click",
                     type_b: str = "purchase") -> str:
    """DuckDB re-derivation of sketches.hll_set_ops: per-side register
    CTEs over the user@day key, union registers = per-bucket max across
    sides, the shared fixed-point/LUT estimator applied to all three,
    intersection by inclusion-exclusion, exact columns via COUNT
    DISTINCT / INTERSECT."""
    from tensorflow_ocr_ray.pipelines.sketches import (
        HLL_ALPHA_E6, HLL_K, HLL_M, HLL_WBITS, hll_lc_lut,
    )

    lut_rows = ", ".join(
        f"({v + 1}, {lc})" for v, lc in enumerate(hll_lc_lut()))

    def side_regs(name: str, filt: str) -> str:
        return f"""
        h_{name} AS (
          SELECT DISTINCT ('0x' || substr(md5(
                   CAST(user_id AS VARCHAR) || '@'
                   || strftime(ts, '%Y-%m-%d')), 1, 15))::BIGINT AS h
          FROM events WHERE {filt}
        ),
        r_{name} AS (
          SELECT h % {HLL_M} AS bucket,
                 max(CASE WHEN (h // {HLL_M}) % {1 << HLL_WBITS} = 0
                      THEN {HLL_WBITS + 1}
                      ELSE CAST(floor(log2(
                             ((h // {HLL_M}) % {1 << HLL_WBITS})
                             & (-((h // {HLL_M}) % {1 << HLL_WBITS}))))
                           AS BIGINT) + 1 END) AS register
          FROM h_{name} GROUP BY 1
        ),
        f_{name} AS (
          SELECT gs.bucket,
                 CAST(coalesce(r.register, 0) AS BIGINT) AS register
          FROM (SELECT unnest(generate_series(0, {HLL_M - 1}))
                    AS bucket) gs
          LEFT JOIN r_{name} r USING (bucket)
        ),
        e_{name} AS (
          SELECT CASE WHEN 2 * raw <= {5 * HLL_M} AND v_empty > 0
                      THEN (SELECT lc FROM lut WHERE v = v_empty)
                      ELSE raw END AS est
          FROM (
            SELECT CAST(CAST({HLL_ALPHA_E6} AS HUGEINT)
                        * {HLL_M * HLL_M} * {1 << HLL_K}
                        // (1000000 * sum(CAST(1 AS BIGINT)
                             << ({HLL_K} - register)))
                        AS BIGINT) AS raw,
                   CAST(count(*) FILTER (WHERE register = 0)
                        AS BIGINT) AS v_empty
            FROM f_{name}
          )
        )"""

    union_regs = f"""
        f_u AS (
          SELECT a.bucket,
                 greatest(a.register, b.register) AS register
          FROM f_a a JOIN f_b b USING (bucket)
        ),
        e_u AS (
          SELECT CASE WHEN 2 * raw <= {5 * HLL_M} AND v_empty > 0
                      THEN (SELECT lc FROM lut WHERE v = v_empty)
                      ELSE raw END AS est
          FROM (
            SELECT CAST(CAST({HLL_ALPHA_E6} AS HUGEINT)
                        * {HLL_M * HLL_M} * {1 << HLL_K}
                        // (1000000 * sum(CAST(1 AS BIGINT)
                             << ({HLL_K} - register)))
                        AS BIGINT) AS raw,
                   CAST(count(*) FILTER (WHERE register = 0)
                        AS BIGINT) AS v_empty
            FROM f_u
          )
        )"""
    return f"""
        WITH lut(v, lc) AS (VALUES {lut_rows}),
        {side_regs("a", f"event_type = '{type_a}'")},
        {side_regs("b", f"event_type = '{type_b}'")},
        {union_regs},
        ka AS (SELECT DISTINCT CAST(user_id AS VARCHAR) || '@'
                 || strftime(ts, '%Y-%m-%d') AS k
               FROM events WHERE event_type = '{type_a}'),
        kb AS (SELECT DISTINCT CAST(user_id AS VARCHAR) || '@'
                 || strftime(ts, '%Y-%m-%d') AS k
               FROM events WHERE event_type = '{type_b}')
        SELECT 'est_a' AS stat, est AS value FROM e_a
        UNION ALL SELECT 'est_b', est FROM e_b
        UNION ALL SELECT 'est_union', est FROM e_u
        UNION ALL SELECT 'est_inter',
          (SELECT est FROM e_a) + (SELECT est FROM e_b)
          - (SELECT est FROM e_u)
        UNION ALL SELECT 'exact_a',
          CAST((SELECT count(*) FROM ka) AS BIGINT)
        UNION ALL SELECT 'exact_b',
          CAST((SELECT count(*) FROM kb) AS BIGINT)
        UNION ALL SELECT 'exact_union', CAST(
          (SELECT count(*) FROM (SELECT k FROM ka UNION
                                 SELECT k FROM kb)) AS BIGINT)
        UNION ALL SELECT 'exact_inter', CAST(
          (SELECT count(*) FROM (SELECT k FROM ka INTERSECT
                                 SELECT k FROM kb)) AS BIGINT)
    """


def _cms_sql(topn: int = 10) -> str:
    """DuckDB re-derivation of sketches.cms_heavy_hitters: the d x w
    counter grid as one GROUP BY per hash row (same arithmetic hash
    constants), the exact top-n, and est = least() over the d
    correlated counter lookups."""
    from tensorflow_ocr_ray.pipelines.sketches import (
        CMS_A, CMS_B, CMS_P, CMS_W,
    )

    row_ctes = ",\n            ".join(
        f"""c{i} AS (
              SELECT ((({CMS_A[i]} * user_id + {CMS_B[i]}) % {CMS_P})
                      % {CMS_W}) AS b,
                     CAST(count(*) AS BIGINT) AS n
              FROM events GROUP BY 1
            )""" for i in range(len(CMS_A))
    )
    lookups = ",\n                   ".join(
        f"""(SELECT n FROM c{i} WHERE b =
                        ((({CMS_A[i]} * t.user_id + {CMS_B[i]})
                          % {CMS_P}) % {CMS_W}))""" for i in range(len(CMS_A))
    )
    return f"""
        WITH cnt AS (
          SELECT user_id, CAST(count(*) AS BIGINT) AS n
          FROM events GROUP BY 1
        ),
        top AS (
          SELECT user_id, n FROM cnt
          ORDER BY n DESC, user_id LIMIT {topn}
        ),
        {row_ctes}
        SELECT t.user_id, t.n AS n_exact,
               CAST(least({lookups}) AS BIGINT) AS n_est
        FROM top t
    """

def _ann_recall_sql(k: int = 10,
                    query_vec_ids: tuple[int, ...] = (0, 1, 2, 3)) -> str:
    """DuckDB re-derivation of similarity.ann_recall_eval: for each
    query, the FULL LSH re-derivation (_ann_lsh_sql, parameterized by
    query id) joined against the exact brute-force top-k on vec_id;
    recall is the integer hits*100//k, so the whole eval composition —
    approximate index vs ground truth — is hash-checked."""
    parts = []
    for qid in query_vec_ids:
        lsh = _ann_lsh_sql(k=k, query_vec_id=qid)
        parts.append(f"""
        SELECT CAST({qid} AS BIGINT) AS query_id,
               CAST(count(*) AS BIGINT) AS hits,
               CAST(count(*) * 100 // {k} AS BIGINT) AS recall_pct
        FROM ({lsh}) a JOIN (
            SELECT vec_id FROM (
                SELECT vec_id,
                       round(list_cosine_similarity(
                           CAST(embedding AS DOUBLE[]),
                           (SELECT CAST(embedding AS DOUBLE[])
                            FROM embeddings WHERE vec_id = {qid})),
                           4) AS sim
                FROM embeddings WHERE vec_id <> {qid}
                ORDER BY sim DESC, vec_id
                LIMIT {k}
            )
        ) t USING (vec_id)
        """)
    return " UNION ALL ".join(parts)


def _ann_ivf_sql(sf_dir: str = "/root/testdata/sf0.01", k: int = 10,
                 n_cells: int = 16, n_probe: int = 4, seed: int = 23,
                 kmeans_iters: int = 10) -> str:
    """DuckDB re-derivation of similarity.ann_topk_ivf_pruned.  The
    trained coarse quantizer (deterministic seeded k-means over the
    corpus sample) is injected as literals — it is a model artifact,
    i.e. a PARAMETER of the operator like the LSH planes, but unlike
    them it is corpus-dependent, so this oracle is generated from the
    ``sf_dir`` it is checked against.  Given the quantizer, the SQL
    independently re-derives cell assignment (argmin centroid
    distance), probe order (centroid distance to q), the auto-widen
    rule, and cosine top-k — exactly what the hive-partitioned read
    prunes."""
    from tensorflow_ocr_ray.pipelines.similarity import _ivf_centroids

    cents = _ivf_centroids(sf_dir, n_cells, seed, kmeans_iters)
    rows = []
    for i in range(n_cells):
        vals = ", ".join(repr(float(v)) for v in cents[i])
        rows.append(f"({i}, [{vals}]::DOUBLE[])")
    cents_values = ", ".join(rows)
    return f"""
        WITH cents(ci, cv) AS (VALUES {cents_values}),
        q AS (SELECT CAST(embedding AS DOUBLE[]) AS e FROM embeddings
              WHERE vec_id = 0),
        qdist AS (
          SELECT ci, list_distance(cv, (SELECT e FROM q)) AS d FROM cents
        ),
        probe_order AS (
          SELECT ci, row_number() OVER (ORDER BY d, ci) AS rk FROM qdist
        ),
        assign AS (
          SELECT vec_id, ci AS cell FROM (
            SELECT e.vec_id, c.ci,
                   row_number() OVER (
                     PARTITION BY e.vec_id
                     ORDER BY list_distance(
                       c.cv, CAST(e.embedding AS DOUBLE[])), c.ci
                   ) AS rn
            FROM embeddings e CROSS JOIN cents c
          ) WHERE rn = 1
        ),
        ranked AS (
          SELECT a.vec_id, p.rk FROM assign a
          JOIN probe_order p ON p.ci = a.cell
        ),
        counts AS (
          SELECT ps.p, count(r.vec_id) AS n
          FROM (SELECT unnest(generate_series({n_probe}, {n_cells})) AS p)
               ps
          LEFT JOIN ranked r ON r.rk <= ps.p AND r.vec_id <> 0
          GROUP BY ps.p
        ),
        pstar_t AS (SELECT coalesce(min(p), {n_cells}) AS pstar
                    FROM counts WHERE n >= {k})
        SELECT e.vec_id,
               round(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
                     (SELECT e FROM q)), 4) AS sim
        FROM ranked r JOIN embeddings e ON e.vec_id = r.vec_id
        WHERE r.vec_id <> 0 AND r.rk <= (SELECT pstar FROM pstar_t)
        ORDER BY sim DESC, e.vec_id
        LIMIT {k}
    """


def _kmeans_sql(k: int = 8, iters: int = 2) -> str:
    """Fully UNROLLED Lloyd's k-means over the embedding_quantize codes
    (pipelines/similarity.py:kmeans_quantized): ``iters`` centroid
    updates then a final assignment, all integer squared-euclidean —
    argmin ties break to the smallest cluster id (ORDER BY d, cluster ==
    numpy argmin), empty clusters keep the previous centroid (the LEFT
    JOIN CASE), and re-quantized centroids use the identical
    floor(sum/n + 0.5) double expression — so every per-vector
    (cluster, dist) hashes bit-identically."""
    parts = [f"""
        WITH RECURSIVE uu AS MATERIALIZED (
          SELECT vec_id, unnest(CAST(embedding AS DOUBLE[])) AS x,
                 unnest(generate_series(1, len(embedding))) AS dim
          FROM embeddings
        ),
        sc AS (SELECT dim, max(abs(x)) AS s FROM uu GROUP BY dim),
        u AS MATERIALIZED (
          SELECT uu.vec_id, uu.dim,
                 CASE WHEN sc.s = 0 THEN 0
                      ELSE CAST(floor(uu.x * 127 / sc.s + 0.5)
                                AS BIGINT) END AS code
          FROM uu JOIN sc USING (dim)
        ),
        c0 AS (SELECT vec_id AS cluster, dim, code FROM u
               WHERE vec_id < {k})"""]
    for t in range(1, iters + 2):
        prev = f"c{t - 1}"
        parts.append(f"""
        d{t} AS (
          SELECT u.vec_id, c.cluster,
                 sum((u.code - c.code) * (u.code - c.code)) AS d
          FROM u JOIN {prev} c USING (dim) GROUP BY 1, 2
        ),
        a{t} AS (
          SELECT vec_id, cluster, d FROM (
            SELECT *, row_number() OVER (
              PARTITION BY vec_id ORDER BY d, cluster) AS rn
            FROM d{t}) WHERE rn = 1
        )""")
        if t <= iters:
            parts.append(f"""
        s{t} AS (
          SELECT a.cluster, u.dim, sum(u.code) AS s, count(*) AS n
          FROM a{t} a JOIN u USING (vec_id) GROUP BY 1, 2
        ),
        c{t} AS (
          SELECT c.cluster, c.dim,
                 CASE WHEN s.n IS NULL THEN c.code
                      ELSE CAST(floor(CAST(s.s AS DOUBLE) / s.n + 0.5)
                                AS BIGINT) END AS code
          FROM {prev} c LEFT JOIN s{t} s
            ON s.cluster = c.cluster AND s.dim = c.dim
        )""")
    final = f"""
        SELECT vec_id, CAST(cluster AS BIGINT) AS cluster,
               CAST(d AS BIGINT) AS dist
        FROM a{iters + 1}"""
    return ",".join(parts) + final


def _semdedup_sql(k: int = 8, iters: int = 2,
                  dist_le: int = 140_000) -> str:
    """semdedup_prune oracle: the _kmeans_sql Lloyd unroll, then the
    within-cluster lower-id near-neighbor EXISTS — a pair CTE over the
    final assignment joined to the codes table, distance summed per
    pair, pruned ids LEFT JOINed back (similarity.py:semdedup_prune)."""
    base = _kmeans_sql(k, iters)
    a = f"a{iters + 1}"
    head, _, _ = base.rpartition("SELECT vec_id, CAST(cluster AS BIGINT)")
    return f"""{head.rstrip().rstrip(',')},
        pd AS (
          SELECT f.vec_id AS big_id,
                 sum((uf.code - ug.code) * (uf.code - ug.code)) AS d
          FROM {a} f
          JOIN {a} g ON f.cluster = g.cluster AND g.vec_id < f.vec_id
          JOIN u uf ON uf.vec_id = f.vec_id
          JOIN u ug ON ug.vec_id = g.vec_id AND ug.dim = uf.dim
          GROUP BY f.vec_id, g.vec_id
        ),
        pruned AS (
          SELECT DISTINCT big_id FROM pd WHERE d <= {dist_le}
        )
        SELECT s.vec_id,
               CAST(s.cluster AS BIGINT) AS cluster,
               CAST(CASE WHEN p.big_id IS NULL THEN 1 ELSE 0 END
                    AS BIGINT) AS keep
        FROM {a} s LEFT JOIN pruned p ON p.big_id = s.vec_id"""


def _pq_sql(m: int = 4, k: int = 8, iters: int = 2,
            dim: int = 64) -> str:
    """Product-quantization oracle: the _kmeans_sql Lloyd unroll
    repeated per contiguous dim slice (same codes CTE, per-subspace
    chains suffixed _j with every u-join dim-filtered to the slice)
    and UNION ALLed into (vec_id, subspace, code, dist)."""
    sub = dim // m
    parts = [f"""
        WITH uu AS MATERIALIZED (
          SELECT vec_id, unnest(CAST(embedding AS DOUBLE[])) AS x,
                 unnest(generate_series(1, len(embedding))) AS dim
          FROM embeddings
        ),
        sc AS (SELECT dim, max(abs(x)) AS s FROM uu GROUP BY dim),
        u AS MATERIALIZED (
          SELECT uu.vec_id, uu.dim,
                 CASE WHEN sc.s = 0 THEN 0
                      ELSE CAST(floor(uu.x * 127 / sc.s + 0.5)
                                AS BIGINT) END AS code
          FROM uu JOIN sc USING (dim)
        )"""]
    finals = []
    for j in range(m):
        lo, hi = j * sub + 1, (j + 1) * sub
        parts.append(f"""
        c0_{j} AS (SELECT vec_id AS cluster, dim, code FROM u
               WHERE vec_id < {k} AND dim BETWEEN {lo} AND {hi})""")
        for t in range(1, iters + 2):
            prev = f"c{t - 1}_{j}"
            parts.append(f"""
        d{t}_{j} AS (
          SELECT u.vec_id, c.cluster,
                 sum((u.code - c.code) * (u.code - c.code)) AS d
          FROM u JOIN {prev} c USING (dim) GROUP BY 1, 2
        ),
        a{t}_{j} AS (
          SELECT vec_id, cluster, d FROM (
            SELECT *, row_number() OVER (
              PARTITION BY vec_id ORDER BY d, cluster) AS rn
            FROM d{t}_{j}) WHERE rn = 1
        )""")
            if t <= iters:
                parts.append(f"""
        s{t}_{j} AS (
          SELECT a.cluster, u.dim, sum(u.code) AS s, count(*) AS n
          FROM a{t}_{j} a JOIN u USING (vec_id)
          WHERE u.dim BETWEEN {lo} AND {hi} GROUP BY 1, 2
        ),
        c{t}_{j} AS (
          SELECT c.cluster, c.dim,
                 CASE WHEN s.n IS NULL THEN c.code
                      ELSE CAST(floor(CAST(s.s AS DOUBLE) / s.n + 0.5)
                                AS BIGINT) END AS code
          FROM {prev} c LEFT JOIN s{t}_{j} s
            ON s.cluster = c.cluster AND s.dim = c.dim
        )""")
        finals.append(
            f"SELECT vec_id, CAST({j} AS BIGINT) AS subspace, "
            f"CAST(cluster AS BIGINT) AS code, CAST(d AS BIGINT) AS dist "
            f"FROM a{iters + 1}_{j}"
        )
    return ",".join(parts) + " " + " UNION ALL ".join(finals)


def _pq_adc_sql(m: int = 4, k: int = 8, iters: int = 2,
                dim: int = 64, topk: int = 10, qid: int = 0) -> str:
    """PQ-ADC oracle: the per-subspace Lloyd chains from _pq_sql, a
    LUT CTE per subspace (query-slice-to-codeword int distances from
    the FINAL centroids c{iters}_j), gathered by each vector's
    a{iters+1}_j code and summed."""
    sub = dim // m
    body = _pq_sql(m, k, iters, dim)
    # reuse everything up to the final UNION ALL selects
    chains = body[: body.index(" SELECT vec_id, CAST(0 AS BIGINT)")]
    luts, gathers = [], []
    for j in range(m):
        lo, hi = j * sub + 1, (j + 1) * sub
        luts.append(f"""
        lut_{j} AS (
          SELECT c.cluster,
                 sum((q.code - c.code) * (q.code - c.code)) AS ld
          FROM c{iters}_{j} c
          JOIN (SELECT dim, code FROM u
                WHERE vec_id = {qid}
                  AND dim BETWEEN {lo} AND {hi}) q USING (dim)
          GROUP BY 1
        )""")
        gathers.append(
            f"SELECT a.vec_id, l.ld FROM a{iters + 1}_{j} a "
            f"JOIN lut_{j} l ON l.cluster = a.cluster"
        )
    return (
        chains + "," + ",".join(luts)
        + f""" SELECT vec_id, CAST(sum(ld) AS BIGINT) AS d_pq
        FROM ({" UNION ALL ".join(gathers)})
        WHERE vec_id <> {qid}
        GROUP BY vec_id ORDER BY d_pq, vec_id LIMIT {topk}"""
    )


def _ivfpq_sql(m: int = 4, k: int = 8, iters: int = 2,
               dim: int = 64, topk: int = 10, qid: int = 0,
               nprobe: int = 2) -> str:
    """IVF+PQ oracle: one shared codes CTE, a COARSE Lloyd chain
    (kc*/kd*/ka*/ks* names) giving per-vector cells and final coarse
    centroids, a query-cell CTE picking the nprobe nearest cells, the
    per-subspace PQ chains + LUTs from the _pq_sql pattern, and the
    ADC gather filtered to probed cells."""
    sub = dim // m
    parts = [f"""
        WITH uu AS MATERIALIZED (
          SELECT vec_id, unnest(CAST(embedding AS DOUBLE[])) AS x,
                 unnest(generate_series(1, len(embedding))) AS dim
          FROM embeddings
        ),
        sc AS (SELECT dim, max(abs(x)) AS s FROM uu GROUP BY dim),
        u AS MATERIALIZED (
          SELECT uu.vec_id, uu.dim,
                 CASE WHEN sc.s = 0 THEN 0
                      ELSE CAST(floor(uu.x * 127 / sc.s + 0.5)
                                AS BIGINT) END AS code
          FROM uu JOIN sc USING (dim)
        ),
        kc0 AS (SELECT vec_id AS cluster, dim, code FROM u
                WHERE vec_id < {k})"""]
    for t in range(1, iters + 2):
        prev = f"kc{t - 1}"
        parts.append(f"""
        kd{t} AS (
          SELECT u.vec_id, c.cluster,
                 sum((u.code - c.code) * (u.code - c.code)) AS d
          FROM u JOIN {prev} c USING (dim) GROUP BY 1, 2
        ),
        ka{t} AS (
          SELECT vec_id, cluster, d FROM (
            SELECT *, row_number() OVER (
              PARTITION BY vec_id ORDER BY d, cluster) AS rn
            FROM kd{t}) WHERE rn = 1
        )""")
        if t <= iters:
            parts.append(f"""
        ks{t} AS (
          SELECT a.cluster, u.dim, sum(u.code) AS s, count(*) AS n
          FROM ka{t} a JOIN u USING (vec_id) GROUP BY 1, 2
        ),
        kc{t} AS (
          SELECT c.cluster, c.dim,
                 CASE WHEN s.n IS NULL THEN c.code
                      ELSE CAST(floor(CAST(s.s AS DOUBLE) / s.n + 0.5)
                                AS BIGINT) END AS code
          FROM {prev} c LEFT JOIN ks{t} s
            ON s.cluster = c.cluster AND s.dim = c.dim
        )""")
    parts.append(f"""
        cells AS MATERIALIZED (
          SELECT vec_id, cluster AS cell FROM ka{iters + 1}
        ),
        qcell AS (
          SELECT cluster AS cell FROM (
            SELECT c.cluster,
                   sum((q.code - c.code) * (q.code - c.code)) AS d
            FROM kc{iters} c
            JOIN (SELECT dim, code FROM u WHERE vec_id = {qid}) q
              USING (dim)
            GROUP BY 1 ORDER BY d, cluster LIMIT {nprobe}
          )
        )""")
    gathers = []
    for j in range(m):
        lo, hi = j * sub + 1, (j + 1) * sub
        parts.append(f"""
        c0_{j} AS (SELECT vec_id AS cluster, dim, code FROM u
               WHERE vec_id < {k} AND dim BETWEEN {lo} AND {hi})""")
        for t in range(1, iters + 2):
            prev = f"c{t - 1}_{j}"
            parts.append(f"""
        d{t}_{j} AS (
          SELECT u.vec_id, c.cluster,
                 sum((u.code - c.code) * (u.code - c.code)) AS d
          FROM u JOIN {prev} c USING (dim) GROUP BY 1, 2
        ),
        a{t}_{j} AS (
          SELECT vec_id, cluster, d FROM (
            SELECT *, row_number() OVER (
              PARTITION BY vec_id ORDER BY d, cluster) AS rn
            FROM d{t}_{j}) WHERE rn = 1
        )""")
            if t <= iters:
                parts.append(f"""
        s{t}_{j} AS (
          SELECT a.cluster, u.dim, sum(u.code) AS s, count(*) AS n
          FROM a{t}_{j} a JOIN u USING (vec_id)
          WHERE u.dim BETWEEN {lo} AND {hi} GROUP BY 1, 2
        ),
        c{t}_{j} AS (
          SELECT c.cluster, c.dim,
                 CASE WHEN s.n IS NULL THEN c.code
                      ELSE CAST(floor(CAST(s.s AS DOUBLE) / s.n + 0.5)
                                AS BIGINT) END AS code
          FROM {prev} c LEFT JOIN s{t}_{j} s
            ON s.cluster = c.cluster AND s.dim = c.dim
        )""")
        parts.append(f"""
        lut_{j} AS (
          SELECT c.cluster,
                 sum((q.code - c.code) * (q.code - c.code)) AS ld
          FROM c{iters}_{j} c
          JOIN (SELECT dim, code FROM u
                WHERE vec_id = {qid}
                  AND dim BETWEEN {lo} AND {hi}) q USING (dim)
          GROUP BY 1
        )""")
        gathers.append(
            f"SELECT a.vec_id, l.ld FROM a{iters + 1}_{j} a "
            f"JOIN lut_{j} l ON l.cluster = a.cluster"
        )
    return (
        ",".join(parts)
        + f""" SELECT g.vec_id, ce.cell,
               CAST(sum(g.ld) AS BIGINT) AS d_pq
        FROM ({" UNION ALL ".join(gathers)}) g
        JOIN cells ce ON ce.vec_id = g.vec_id
        WHERE ce.cell IN (SELECT cell FROM qcell)
          AND g.vec_id <> {qid}
        GROUP BY g.vec_id, ce.cell
        ORDER BY d_pq, g.vec_id LIMIT {topk}"""
    )


def _minhash_dedup_sql() -> str:
    """Connected components over the verified MinHash pair set (the full
    ``_minhash_sql`` as a MATERIALIZED CTE) via recursive min-label
    propagation: rep = min doc_id reachable in the undirected pair graph
    — exactly the pipeline's union-find with min-rep merging."""
    return f"""
        WITH RECURSIVE pairs AS MATERIALIZED (
          SELECT doc_a, doc_b FROM ({_minhash_sql()}) t
        ),
        nodes AS (
          SELECT DISTINCT doc_id FROM (
            SELECT doc_a AS doc_id FROM pairs
            UNION ALL SELECT doc_b FROM pairs)
        ),
        edges AS MATERIALIZED (
          SELECT doc_a AS a, doc_b AS b FROM pairs
          UNION ALL SELECT doc_b, doc_a FROM pairs
        ),
        walk(doc_id, r) AS (
          SELECT doc_id, doc_id FROM nodes
          UNION
          SELECT e.b, w.r FROM walk w JOIN edges e ON e.a = w.doc_id
        )
        SELECT doc_id, min(r) AS cluster_rep FROM walk GROUP BY doc_id
    """


def _langid_sql() -> str:
    """DuckDB re-derivation of textstats.lang_id, generated from the SAME
    marker table (one count term per marker, summed in dict order so the
    float accumulation is bit-identical to Python's sum())."""
    from tensorflow_ocr_ray.functions.textstats import _LANG_MARKERS

    score_cols = []
    for lang, markers in _LANG_MARKERS.items():
        terms = [
            f"{w} * ((length(p) - length(replace(p, '{m}', '')))"
            f" / {len(m)})"
            for m, w in markers.items()
        ]
        score_cols.append(f"({' + '.join(terms)}) AS s_{lang}")
    langs = list(_LANG_MARKERS)
    first_max = " ".join(
        f"WHEN s_{lg} = m THEN '{lg}'" for lg in langs
    )
    return f"""
        WITH t AS (
          SELECT doc_id, lang, text, ' ' || lower(text) || ' ' AS p
          FROM documents
        ),
        s AS (SELECT doc_id, lang, text, {', '.join(score_cols)} FROM t),
        m AS (SELECT *, greatest({', '.join('s_' + lg for lg in langs)}) AS m
              FROM s)
        SELECT doc_id, lang,
               CASE WHEN m > 0 THEN CASE {first_max} END
                    WHEN regexp_matches(text, '[\\x{{0590}}-\\x{{05FF}}]')
                      THEN 'yi'
                    WHEN regexp_matches(text, '\\p{{L}}') THEN 'en'
                    ELSE 'unknown' END AS pred_lang
        FROM m
    """


def _quality_sql() -> str:
    """DuckDB re-derivation of textstats.quality_features: identical
    int/int double divisions, identical threshold cascade."""
    from tensorflow_ocr_ray.functions.textstats import STOPWORDS

    stops = ", ".join(f"'{s}'" for s in sorted(STOPWORDS))
    return rf"""
        WITH t AS (
          SELECT doc_id, text,
                 list_filter(string_split_regex(trim(text), '\s+'),
                             x -> x <> '') AS toks
          FROM documents
        ),
        f AS (
          SELECT doc_id, text, toks,
                 list_filter(toks,
                             x -> regexp_full_match(x, '\p{{L}}+')) AS words
          FROM t
        ),
        c AS (
          SELECT doc_id,
                 length(text) AS n_chars,
                 len(toks) AS n_tokens,
                 CASE WHEN len(toks) = 0 THEN 0.0
                      ELSE list_sum(list_transform(toks, x -> length(x)))
                           / len(toks) END AS mean_token_len,
                 CASE WHEN length(text) = 0 THEN 0.0
                      ELSE len(regexp_extract_all(text, '[!-/:-@\[-`{{-~]'))
                           / length(text) END AS punct_ratio,
                 CASE WHEN len(words) = 0 THEN 0.0
                      ELSE len(list_filter(words,
                               w -> list_contains([{stops}], lower(w))))
                           / len(words) END AS stopword_ratio,
                 CASE WHEN length(text) = 0 THEN 0.0
                      ELSE len(regexp_extract_all(text, '\p{{Lu}}'))
                           / length(text) END AS upper_ratio
          FROM f
        )
        SELECT doc_id, n_chars, n_tokens, mean_token_len, punct_ratio,
               stopword_ratio, upper_ratio,
               (CASE WHEN n_chars < 20 OR n_chars > 100000
                     THEN 0.3 ELSE 1.0 END)
             * (CASE WHEN punct_ratio > 0.2 THEN 0.5 ELSE 1.0 END)
             * (CASE WHEN NOT (stopword_ratio >= 0.01
                               AND stopword_ratio <= 0.8)
                     THEN 0.7 ELSE 1.0 END)
             * (CASE WHEN NOT (mean_token_len >= 2.0
                               AND mean_token_len <= 12.0)
                     THEN 0.6 ELSE 1.0 END) AS quality_score
        FROM c
    """


def _decontaminate_sql() -> str:
    """DuckDB re-derivation of curation.decontaminate: identical char
    k-gram construction (ws-collapse + lowercase, the dedup-family
    normalization), benchmark = doc_id % mod == 0, per-doc count of
    DISTINCT benchmark shingles present.  The SQL joins on shingle
    STRINGS; the pipeline's md5-64 hashes are collision-free at any
    realistic corpus (~n^2/2^65), so counts agree exactly."""
    from tensorflow_ocr_ray.pipelines.curation import (
        DECON_BENCH_MOD,
        DECON_K,
    )

    k, mod = DECON_K, DECON_BENCH_MOD
    return rf"""
        WITH t AS (
          SELECT doc_id,
                 lower(regexp_replace(trim(text), '\s+', ' ', 'g')) AS t
          FROM documents
        ),
        g AS (
          SELECT DISTINCT doc_id,
                 CASE WHEN length(t) < {k} THEN t
                      ELSE substring(t, CAST(i AS INT), {k}) END AS s
          FROM (SELECT doc_id, t,
                       unnest(generate_series(
                           1, greatest(length(t) - {k - 1}, 1))) AS i
                FROM t WHERE length(t) > 0)
        ),
        bench AS (SELECT DISTINCT s FROM g WHERE doc_id % {mod} = 0),
        hits AS (
          SELECT g.doc_id, count(*) AS n_hits
          FROM g JOIN bench b ON b.s = g.s
          WHERE g.doc_id % {mod} <> 0
          GROUP BY g.doc_id
        )
        SELECT d.doc_id,
               CAST(coalesce(h.n_hits, 0) AS BIGINT) AS n_hits,
               coalesce(h.n_hits, 0) > 0 AS contaminated
        FROM documents d LEFT JOIN hits h ON h.doc_id = d.doc_id
        WHERE d.doc_id % {mod} <> 0
    """


def _hash_split_sql() -> str:
    """Generated from the SAME rate table / thresholds as
    curation.hash_split (parameters, not results)."""
    from tensorflow_ocr_ray.pipelines.curation import (
        DEFAULT_RATE,
        SPLIT_RATES,
        TRAIN_PCT,
        VALID_PCT,
    )

    rate_case = " ".join(
        f"WHEN '{lg}' THEN {r}" for lg, r in SPLIT_RATES.items()
    )
    return f"""
        WITH b AS (
          SELECT doc_id, lang,
                 CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 16))
                      ::UBIGINT % 100 AS BIGINT) AS bucket
          FROM documents
        )
        SELECT doc_id, lang, bucket,
               CASE WHEN bucket < {TRAIN_PCT} THEN 'train'
                    WHEN bucket < {VALID_PCT} THEN 'valid'
                    ELSE 'test' END AS split,
               bucket < (CASE lang {rate_case} ELSE {DEFAULT_RATE} END)
                   AS sampled
        FROM b
    """


def _pii_sql() -> str:
    """Generated from the SAME compiled patterns and injection template
    as curation.pii_scrub; replacement order email -> IP -> phone on
    both sides."""
    from tensorflow_ocr_ray.pipelines.curation import (
        PII_EMAIL,
        PII_IP,
        PII_PHONE,
    )

    em, ip, ph = PII_EMAIL.pattern, PII_IP.pattern, PII_PHONE.pattern
    inj = (
        "text || ' Contact user' || CAST(doc_id AS VARCHAR)"
        " || '@mail.example.com or 555-'"
        " || lpad(CAST(doc_id % 1000 AS VARCHAR), 3, '0') || '-'"
        " || lpad(CAST((doc_id * 7) % 10000 AS VARCHAR), 4, '0')"
        " || ' at 10.' || CAST(doc_id % 256 AS VARCHAR)"
        " || '.0.' || CAST((doc_id * 3) % 256 AS VARCHAR) || '.'"
    )
    return f"""
        WITH t AS (SELECT doc_id, {inj} AS t FROM documents)
        SELECT doc_id,
               regexp_replace(regexp_replace(regexp_replace(t,
                   '{em}', '<EMAIL>', 'g'),
                   '{ip}', '<IP>', 'g'),
                   '{ph}', '<PHONE>', 'g') AS scrubbed,
               CAST(len(regexp_extract_all(t, '{em}')) AS BIGINT)
                   AS n_emails,
               CAST(len(regexp_extract_all(t, '{ip}')) AS BIGINT) AS n_ips,
               CAST(len(regexp_extract_all(t, '{ph}')) AS BIGINT)
                   AS n_phones
        FROM t
    """


def _pack_sql() -> str:
    from tensorflow_ocr_ray.pipelines.curation import PACK_CAPACITY

    return rf"""
        WITH t AS (
          SELECT doc_id,
                 len(string_split_regex(trim(text), '\s+')) AS tokens
          FROM documents
        ),
        c AS (
          SELECT doc_id, tokens,
                 CAST(sum(tokens) OVER (ORDER BY doc_id
                                        ROWS UNBOUNDED PRECEDING)
                      - tokens AS BIGINT) AS cume
          FROM t
        )
        SELECT doc_id, CAST(tokens AS BIGINT) AS tokens,
               cume // {PACK_CAPACITY} AS chunk_id,
               cume % {PACK_CAPACITY} AS chunk_offset
        FROM c
    """


def _tfidf_sql() -> str:
    from tensorflow_ocr_ray.pipelines.curation import TFIDF_TOPN

    return rf"""
        WITH t AS (
          SELECT doc_id,
                 list_filter(string_split_regex(trim(lower(text)), '\s+'),
                             x -> x <> '') AS toks
          FROM documents
        ),
        u AS (SELECT doc_id, unnest(toks) AS token FROM t
              WHERE len(toks) > 0),
        c AS (SELECT doc_id, token, count(*) AS cnt FROM u GROUP BY 1, 2),
        d AS (SELECT token, count(*) AS df FROM c GROUP BY 1),
        s AS (
          SELECT c.doc_id, c.token,
                 (c.cnt * (SELECT count(*) FROM documents)) / d.df AS score
          FROM c JOIN d USING (token)
        )
        SELECT doc_id, token, score, rank FROM (
          SELECT doc_id, token, score,
                 row_number() OVER (PARTITION BY doc_id
                                    ORDER BY score DESC, token) AS rank
          FROM s
        ) WHERE rank <= {TFIDF_TOPN}
    """


def _source_gate_sql() -> str:
    from tensorflow_ocr_ray.pipelines.curation import SOURCE_GATE_MIN_TOKENS

    return rf"""
        WITH t AS (
          SELECT doc_id, source,
                 len(string_split_regex(trim(text), '\s+')) AS tokens
          FROM documents
        ),
        m AS (
          SELECT source,
                 CAST(sum(tokens) AS DOUBLE) / count(*)
                     AS source_mean_tokens
          FROM t GROUP BY source
        )
        SELECT t.doc_id, t.source, CAST(t.tokens AS BIGINT) AS tokens,
               m.source_mean_tokens
        FROM t JOIN m USING (source)
        WHERE m.source_mean_tokens >= {SOURCE_GATE_MIN_TOKENS}
    """


def _dup_span_sql() -> str:
    """DuckDB re-derivation of curation.dup_span_coverage: identical
    normalization and k-gram positions, global occurrence counts by
    gram STRING (the pipeline's md5-64 is collision-free), fixed-width
    interval union via gaps-and-islands window functions."""
    from tensorflow_ocr_ray.pipelines.curation import DUP_SPAN_K

    k = DUP_SPAN_K
    return rf"""
        WITH t AS (
          SELECT doc_id,
                 lower(regexp_replace(trim(text), '\s+', ' ', 'g')) AS t
          FROM documents
        ),
        g AS (
          SELECT doc_id, i, substring(t, CAST(i AS INT), {k}) AS s,
                 length(t) AS lt
          FROM (SELECT doc_id, t,
                       unnest(generate_series(1, length(t) - {k - 1}))
                           AS i
                FROM t WHERE length(t) >= {k})
        ),
        dup AS (SELECT s FROM g GROUP BY s HAVING count(*) >= 2),
        p AS (SELECT g.doc_id, g.i, g.lt FROM g JOIN dup USING (s)),
        isl AS (
          SELECT doc_id, i, lt,
                 CASE WHEN lag(i) OVER w IS NULL
                        OR i - lag(i) OVER w >= {k}
                      THEN 1 ELSE 0 END AS brk
          FROM p WINDOW w AS (PARTITION BY doc_id ORDER BY i)
        ),
        grp AS (
          SELECT doc_id, i, lt,
                 sum(brk) OVER (PARTITION BY doc_id ORDER BY i
                                ROWS UNBOUNDED PRECEDING) AS island
          FROM isl
        ),
        ci AS (
          SELECT doc_id, island, max(i) - min(i) + {k} AS clen,
                 max(lt) AS lt, count(*) AS npos
          FROM grp GROUP BY doc_id, island
        ),
        agg AS (
          SELECT doc_id, sum(npos) AS dup_positions,
                 sum(clen) AS covered, max(lt) AS lt
          FROM ci GROUP BY doc_id
        )
        SELECT d.doc_id,
               CAST(coalesce(a.dup_positions, 0) AS BIGINT)
                   AS dup_positions,
               CAST(coalesce(a.covered, 0) AS BIGINT) AS covered_chars,
               coalesce(CAST(a.covered AS DOUBLE) / a.lt, 0.0) AS coverage
        FROM documents d LEFT JOIN agg a ON a.doc_id = d.doc_id
    """


def _token_entropy_sql() -> str:
    """DuckDB re-derivation of curation.token_entropy: the SAME
    round(log2 * 1e6) fixed-point LUT (curation._log2_lut_ppm) is
    injected as a VALUES list, so E_ppm = (N*lut[N] - sum c*lut[c])//N
    is exact int64 arithmetic in both engines — the benford-LUT
    precedent over the token-count domain."""
    from tensorflow_ocr_ray.pipelines.curation import _log2_lut_ppm

    lut = _log2_lut_ppm()
    vals = ", ".join(f"({x}, {int(lut[x])})" for x in range(1, len(lut)))
    return rf"""
        WITH tok AS (
          SELECT doc_id,
                 unnest(string_split_regex(trim(lower(text)), '\s+')) AS t
          FROM documents
        ),
        tk AS (SELECT doc_id, t FROM tok WHERE t <> ''),
        c AS (SELECT doc_id, t, count(*) AS c FROM tk GROUP BY doc_id, t),
        n AS (SELECT doc_id, sum(c) AS n FROM c GROUP BY doc_id),
        lut(x, v) AS (VALUES {vals}),
        s AS (
          SELECT c.doc_id, sum(c.c * lv.v) AS sc
          FROM c JOIN lut lv ON lv.x = c.c GROUP BY c.doc_id
        )
        SELECT n.doc_id, CAST(n.n AS BIGINT) AS n_tokens,
               CAST((n.n * ln.v - s.sc) // n.n AS BIGINT) AS entropy_ppm
        FROM n JOIN lut ln ON ln.x = n.n JOIN s USING (doc_id)
    """


def _vocab_topk_sql() -> str:
    """DuckDB re-derivation of curation.vocab_topk: identical whitespace
    tokenization (lower -> trim -> \\s+ split, empties dropped), exact
    global counts, deterministic (cnt DESC, token ASC) row_number rank."""
    from tensorflow_ocr_ray.pipelines.curation import VOCAB_TOPK

    return rf"""
        WITH tok AS (
          SELECT unnest(string_split_regex(trim(lower(text)), '\s+'))
                     AS token
          FROM documents
        ),
        c AS (
          SELECT token, count(*) AS cnt FROM tok
          WHERE token <> '' GROUP BY token
        )
        SELECT token, CAST(cnt AS BIGINT) AS cnt,
               CAST(row_number() OVER (ORDER BY cnt DESC, token)
                    AS BIGINT) AS rank
        FROM c ORDER BY cnt DESC, token LIMIT {VOCAB_TOPK}
    """


def _length_gate_sql() -> str:
    """DuckDB re-derivation of curation.length_percentile_gate:
    quantile_disc implements the same sorted-value-at-ceil(q*n)-1 rule
    the pipeline reads off its cumulative count table."""
    from tensorflow_ocr_ray.pipelines.curation import (
        LENGTH_GATE_HI_Q,
        LENGTH_GATE_LO_Q,
    )

    return f"""
        WITH q AS (
          SELECT lang,
                 quantile_disc(n_chars, {LENGTH_GATE_LO_Q}) AS lo,
                 quantile_disc(n_chars, {LENGTH_GATE_HI_Q}) AS hi
          FROM documents GROUP BY lang
        )
        SELECT d.doc_id, d.lang, CAST(d.n_chars AS BIGINT) AS n_chars,
               CAST(q.lo AS BIGINT) AS lang_lo,
               CAST(q.hi AS BIGINT) AS lang_hi
        FROM documents d JOIN q USING (lang)
        WHERE d.n_chars BETWEEN q.lo AND q.hi
    """


def _gopher_gate_sql() -> str:
    """DuckDB re-derivation of curation.gopher_gate: the repetition
    signals come from the SAME ``_repetition_sql`` CTE, the token count
    from the token_count-parity split expression, compared against the
    module's literal thresholds in identical precedence order."""
    from tensorflow_ocr_ray.pipelines.curation import (
        GOPHER_MAX_DUP_TRIGRAM,
        GOPHER_MAX_TOKENS,
        GOPHER_MAX_TOP_UNIGRAM,
        GOPHER_MIN_TOKENS,
    )

    return rf"""
        WITH rep AS ({_repetition_sql()}),
        tok AS (
          SELECT doc_id,
                 len(string_split_regex(trim(text), '\s+')) AS tokens
          FROM documents
        ),
        j AS (
          SELECT rep.doc_id, tok.tokens, rep.top_unigram_frac,
                 rep.dup_trigram_frac
          FROM rep JOIN tok USING (doc_id)
        ),
        r AS (
          SELECT *,
                 CASE WHEN tokens < {GOPHER_MIN_TOKENS} THEN 'too_short'
                      WHEN tokens > {GOPHER_MAX_TOKENS} THEN 'too_long'
                      WHEN top_unigram_frac > {GOPHER_MAX_TOP_UNIGRAM!r}
                          THEN 'repetitive_unigram'
                      WHEN dup_trigram_frac > {GOPHER_MAX_DUP_TRIGRAM!r}
                          THEN 'repetitive_trigram'
                      ELSE 'kept' END AS fail_reason
          FROM j
        )
        SELECT doc_id, CAST(tokens AS BIGINT) AS tokens,
               top_unigram_frac, dup_trigram_frac,
               CAST(CASE WHEN fail_reason = 'kept' THEN 1 ELSE 0 END
                    AS BIGINT) AS passed,
               fail_reason
        FROM r
    """


def _eval_set_sql() -> str:
    """Composite oracle = literal composition of the decontaminate and
    gopher_gate oracles, then the stratified bottom-k-by-md5 sample
    over the survivors (curation.eval_set_builder)."""
    from tensorflow_ocr_ray.pipelines.curation import EVAL_SET_K

    return f"""
        WITH dec AS MATERIALIZED ({_decontaminate_sql()}),
        gop AS MATERIALIZED ({_gopher_gate_sql()}),
        surv AS (
          SELECT d.doc_id, d.lang
          FROM documents d
          JOIN dec ON dec.doc_id = d.doc_id
          JOIN gop ON gop.doc_id = d.doc_id
          WHERE NOT dec.contaminated AND gop.passed = 1
        )
        SELECT lang, CAST(rank AS BIGINT) AS rank, doc_id, h
        FROM (
          SELECT lang, doc_id,
                 md5(CAST(doc_id AS VARCHAR)) AS h,
                 row_number() OVER (
                   PARTITION BY lang
                   ORDER BY md5(CAST(doc_id AS VARCHAR))) AS rank
          FROM surv
        ) WHERE rank <= {EVAL_SET_K}
    """


def _curation_pipeline_sql() -> str:
    """The composite oracle is literally the composition of the piece
    oracles: keep-list ∘ gopher gate ∘ the pack prefix-sum, re-run over
    only the surviving docs."""
    from tensorflow_ocr_ray.pipelines.curation import PACK_CAPACITY

    return f"""
        WITH keepv AS MATERIALIZED (
          SELECT * FROM ({_keep_list_sql()}) t
        ),
        gop AS (
          SELECT * FROM ({_gopher_gate_sql()}) t
        ),
        kept AS (
          SELECT g.doc_id, g.tokens
          FROM gop g JOIN keepv k USING (doc_id)
          WHERE g.passed = 1 AND k.kept = 1
        ),
        c AS (
          SELECT doc_id, tokens,
                 CAST(sum(tokens) OVER (ORDER BY doc_id
                                        ROWS UNBOUNDED PRECEDING)
                      - tokens AS BIGINT) AS cume
          FROM kept
        )
        SELECT doc_id, CAST(tokens AS BIGINT) AS tokens,
               cume // {PACK_CAPACITY} AS chunk_id,
               cume % {PACK_CAPACITY} AS chunk_offset
        FROM c
    """


def _mixture_sql() -> str:
    """Same md5-bucket rule as ``_hash_split_sql`` at MIX_BUCKETS
    resolution; quota and counts re-derived from the table itself, keep
    test is the identical integer inequality."""
    from tensorflow_ocr_ray.pipelines.curation import MIX_BUCKETS

    return f"""
        WITH c AS (
          SELECT lang, CAST(count(*) AS BIGINT) AS lang_count
          FROM documents GROUP BY lang
        ),
        m AS (SELECT min(lang_count) AS quota FROM c),
        b AS (
          SELECT doc_id, lang,
                 CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 16))
                      ::UBIGINT % {MIX_BUCKETS} AS BIGINT) AS bucket
          FROM documents
        )
        SELECT b.doc_id, b.lang, b.bucket, c.lang_count,
               CAST(b.bucket * c.lang_count < m.quota * {MIX_BUCKETS}
                    AS BIGINT) AS kept
        FROM b JOIN c USING (lang) CROSS JOIN m
    """


def _source_topk_sql() -> str:
    from tensorflow_ocr_ray.pipelines.curation import SOURCE_TOPK

    return f"""
        SELECT source, doc_id, n_chars, CAST(rn AS BIGINT) AS rank FROM (
          SELECT source, doc_id, n_chars,
                 row_number() OVER (
                   PARTITION BY source
                   ORDER BY n_chars DESC, doc_id) AS rn
          FROM documents) WHERE rn <= {SOURCE_TOPK}
    """


def _keep_list_sql() -> str:
    """DuckDB re-derivation of dedup.dedup_keep_list: exact-group min
    per identical text, the pipeline's own minhash cluster SQL
    (``_minhash_dedup_sql``) as the near-dup side, identical precedence
    (exact_dup -> near_dup -> kept)."""
    return f"""
        WITH clusters AS MATERIALIZED (
          SELECT * FROM ({_minhash_dedup_sql()}) t
        ),
        ex AS (
          SELECT doc_id,
                 min(doc_id) OVER (PARTITION BY text) AS keeper
          FROM documents
        ),
        j AS (
          SELECT ex.doc_id, ex.keeper, c.cluster_rep
          FROM ex LEFT JOIN clusters c ON c.doc_id = ex.doc_id
        )
        SELECT doc_id,
               CAST(CASE WHEN doc_id = keeper
                           AND (cluster_rep IS NULL
                                OR cluster_rep = doc_id)
                         THEN 1 ELSE 0 END AS BIGINT) AS kept,
               CASE WHEN doc_id != keeper THEN 'exact_dup'
                    WHEN cluster_rep IS NOT NULL
                         AND cluster_rep != doc_id THEN 'near_dup'
                    ELSE 'kept' END AS reason,
               CAST(CASE WHEN doc_id != keeper THEN keeper
                         WHEN cluster_rep IS NOT NULL
                              AND cluster_rep != doc_id THEN cluster_rep
                         ELSE doc_id END AS BIGINT) AS canonical
        FROM j
    """


def _repetition_sql() -> str:
    """DuckDB re-derivation of curation.repetition_stats: identical
    tokenization, word n-gram construction, and raw int/int double
    divisions."""
    return r"""
        WITH t AS (
          SELECT doc_id,
                 list_filter(string_split_regex(trim(lower(text)), '\s+'),
                             x -> x <> '') AS toks
          FROM documents
        ),
        c1 AS (
          SELECT doc_id, g, count(*) AS c
          FROM (SELECT doc_id, unnest(toks) AS g FROM t
                WHERE len(toks) > 0)
          GROUP BY doc_id, g
        ),
        f1 AS (SELECT doc_id, max(c) AS m, sum(c) AS n FROM c1
               GROUP BY doc_id),
        c2 AS (
          SELECT doc_id, g, count(*) AS c
          FROM (SELECT doc_id,
                       toks[CAST(i AS INT)] || ' '
                           || toks[CAST(i AS INT) + 1] AS g
                FROM (SELECT doc_id, toks,
                             unnest(generate_series(1, len(toks) - 1)) AS i
                      FROM t WHERE len(toks) >= 2))
          GROUP BY doc_id, g
        ),
        f2 AS (SELECT doc_id, max(c) AS m, sum(c) AS n FROM c2
               GROUP BY doc_id),
        c3 AS (
          SELECT doc_id, g, count(*) AS c
          FROM (SELECT doc_id,
                       toks[CAST(i AS INT)] || ' '
                           || toks[CAST(i AS INT) + 1] || ' '
                           || toks[CAST(i AS INT) + 2] AS g
                FROM (SELECT doc_id, toks,
                             unnest(generate_series(1, len(toks) - 2)) AS i
                      FROM t WHERE len(toks) >= 3))
          GROUP BY doc_id, g
        ),
        f3 AS (SELECT doc_id,
                      sum(CASE WHEN c > 1 THEN c ELSE 0 END) AS d,
                      sum(c) AS n
               FROM c3 GROUP BY doc_id)
        SELECT t.doc_id,
               coalesce(CAST(f1.m AS DOUBLE) / f1.n, 0.0)
                   AS top_unigram_frac,
               coalesce(CAST(f2.m AS DOUBLE) / f2.n, 0.0)
                   AS top_bigram_frac,
               coalesce(CAST(f3.d AS DOUBLE) / f3.n, 0.0)
                   AS dup_trigram_frac
        FROM t
        LEFT JOIN f1 USING (doc_id)
        LEFT JOIN f2 USING (doc_id)
        LEFT JOIN f3 USING (doc_id)
    """


def _ndcg_sql() -> str:
    """NDCG@10 oracle: the bm25_topk scored CTE + tf-graded relevance,
    exact integer DCG/IDCG with the 1/log2(rank+1) ppm discount LUT
    injected from search.NDCG_W_PPM — the engine and DuckDB share the
    identical fixed-point table, so no transcendental is evaluated
    independently on either side (the order_value_benford precedent)."""
    from tensorflow_ocr_ray.pipelines.search import NDCG_K, NDCG_W_PPM

    lut = ", ".join(
        f"({r + 1}, {w})" for r, w in enumerate(NDCG_W_PPM)
    )
    return rf"""
        WITH tok AS (
          SELECT doc_id,
                 string_split_regex(trim(lower(text)), '\s+') AS ts
          FROM documents
        ),
        d AS (
          SELECT doc_id, len(ts)::DOUBLE AS dl,
                 len(list_filter(ts, x -> x = 'scan'))::DOUBLE AS tf0,
                 len(list_filter(ts, x -> x = 'join'))::DOUBLE AS tf1,
                 len(list_filter(ts, x -> x = 'filter'))::DOUBLE AS tf2
          FROM tok
        ),
        s AS (
          SELECT count(*)::DOUBLE AS n, sum(dl) AS tt,
                 sum(CASE WHEN tf0 > 0 THEN 1 ELSE 0 END)::DOUBLE AS df0,
                 sum(CASE WHEN tf1 > 0 THEN 1 ELSE 0 END)::DOUBLE AS df1,
                 sum(CASE WHEN tf2 > 0 THEN 1 ELSE 0 END)::DOUBLE AS df2
          FROM d
        ),
        scored AS (
          SELECT doc_id,
            ((n - df0 + 0.5) / (df0 + 0.5))
              * ((tf0 * (1.2 + 1.0))
                 / (tf0 + 1.2 * ((1.0 - 0.75)
                                 + (0.75 * dl) / (tt / n))))
          + ((n - df1 + 0.5) / (df1 + 0.5))
              * ((tf1 * (1.2 + 1.0))
                 / (tf1 + 1.2 * ((1.0 - 0.75)
                                 + (0.75 * dl) / (tt / n))))
          + ((n - df2 + 0.5) / (df2 + 0.5))
              * ((tf2 * (1.2 + 1.0))
                 / (tf2 + 1.2 * ((1.0 - 0.75)
                                 + (0.75 * dl) / (tt / n))))
            AS bm25,
            least(CAST(tf0 + tf1 + tf2 AS BIGINT), 3) AS rel
          FROM d, s
        ),
        w(rank, wppm) AS (VALUES {lut}),
        ranked AS (
          SELECT rel,
                 row_number() OVER (ORDER BY bm25 DESC, doc_id) AS rank
          FROM scored
        ),
        ideal AS (
          SELECT rel,
                 row_number() OVER (ORDER BY rel DESC, doc_id) AS rank
          FROM scored
        ),
        dcg AS (
          SELECT CAST(coalesce(sum(
                   ((1::BIGINT << CAST(r.rel AS INT)) - 1) * w.wppm
                 ), 0) AS BIGINT) AS dcg_w
          FROM ranked r JOIN w ON w.rank = r.rank
        ),
        idcg AS (
          SELECT CAST(coalesce(sum(
                   ((1::BIGINT << CAST(i.rel AS INT)) - 1) * w.wppm
                 ), 0) AS BIGINT) AS idcg_w
          FROM ideal i JOIN w ON w.rank = i.rank
        )
        SELECT {NDCG_K}::BIGINT AS k, dcg_w, idcg_w,
               CAST(CASE WHEN idcg_w = 0 THEN 0
                    ELSE (dcg_w * 1000000) // idcg_w END
                    AS BIGINT) AS ndcg_ppm
        FROM dcg, idcg
    """


# The SimHash-64 derivation (md5-high-64 word-2-gram hashes, per-bit
# majority vote), UNSIGNED form: one row per document with
# u = the fingerprint as UBIGINT (0 for gram-less docs).  Identical
# arithmetic to the signed simhash_fingerprints oracle; the pairs
# oracle needs the unsigned value for band extraction and XOR popcount.
_SIMHASH_U_CTE = r"""
            WITH t AS (
              SELECT doc_id,
                     list_filter(string_split_regex(trim(lower(text)),
                                                    '\s+'),
                                 x -> x <> '') AS toks
              FROM documents
            ),
            g AS (
              SELECT doc_id,
                     CASE WHEN len(toks) > 1
                          THEN toks[CAST(i AS INT)] || ' '
                               || toks[CAST(i AS INT) + 1]
                          ELSE toks[1] END AS gram
              FROM (SELECT doc_id, toks,
                           unnest(generate_series(
                               1, greatest(len(toks) - 1, 1))) AS i
                    FROM t WHERE len(toks) > 0)
            ),
            h AS (
              SELECT doc_id,
                     ('0x' || substr(md5(gram), 1, 16))::UBIGINT AS h
              FROM g
            ),
            bits AS (
              SELECT doc_id, b.i AS bit,
                     sum(CASE WHEN (h >> CAST(b.i AS INT)) & 1 = 1
                              THEN 1 ELSE -1 END) AS acc
              FROM h, (SELECT unnest(generate_series(0, 63)) AS i) b
              GROUP BY doc_id, b.i
            ),
            sh AS (
              SELECT doc_id,
                     sum(CASE WHEN acc > 0
                          THEN CAST(1::UBIGINT << CAST(bit AS INT)
                                    AS HUGEINT)
                          ELSE 0 END) AS u
              FROM bits GROUP BY doc_id
            ),
            fp AS (
              SELECT d.doc_id,
                     CAST(coalesce(s.u, 0) AS UBIGINT) AS u
              FROM documents d LEFT JOIN sh s ON s.doc_id = d.doc_id
            )
"""


# The winnowing-fingerprint derivation (md5-low-32 5-gram hashes,
# 4-window minima, first-occurrence rank per doc), shared bit-for-bit by
# the doc_fingerprints oracle and the winnow_dup_pairs self-join oracle.
_WINNOW_RANKED_CTE = r"""
            WITH t AS (
              SELECT doc_id,
                     lower(regexp_replace(trim(text), '\s+', ' ', 'g')) AS t
              FROM documents
            ),
            pos AS (
              SELECT doc_id, t, length(t) AS lt,
                     unnest(generate_series(
                         1, greatest(length(t) - 4, 1))) AS i
              FROM t WHERE length(t) > 0
            ),
            h AS (
              SELECT doc_id, i, lt,
                     ('0x' || substr(md5(
                         CASE WHEN lt < 5 THEN t
                              ELSE substring(t, CAST(i AS INT), 5) END),
                         1, 8))::UBIGINT AS h
              FROM pos
            ),
            mins AS (
              SELECT doc_id, i, lt,
                     min(h) OVER (PARTITION BY doc_id ORDER BY i
                                  ROWS BETWEEN CURRENT ROW
                                  AND 3 FOLLOWING) AS m
              FROM h
            ),
            lim AS (
              SELECT doc_id, i, m FROM mins
              WHERE i <= greatest(lt - 7, 1)
            ),
            firsts AS (
              SELECT doc_id, m, min(i) AS fi FROM lim GROUP BY doc_id, m
            ),
            ranked AS (
              SELECT doc_id, m, fi,
                     row_number() OVER (PARTITION BY doc_id
                                        ORDER BY fi) AS rn
              FROM firsts
            )
"""


def oracle_sql(sf_dir: str = "/root/testdata/sf0.01") -> dict[str, str]:
    """Every query's DuckDB oracle.  ``sf_dir`` is the corpus that
    corpus-dependent oracles (the IVF quantizer) are generated from."""
    sql = _oracle_sql_base(sf_dir)
    # the rarest-prefix containment plan returns the exact plan's rows
    # by construction (pigeonhole candidate completeness + exact
    # verification) — one SQL derivation checks both
    sql["doc_containment_prefix"] = sql["doc_containment_pairs"]
    return sql


_NGRAM_LM_SQL = """
            WITH toks AS (
              SELECT doc_id,
                     string_split_regex(trim(lower(text)), '\\s+') AS ts
              FROM documents
            ),
            big AS (
              SELECT doc_id, ts,
                     unnest(range(1, len(ts))) AS i
              FROM toks
            ),
            bg AS (
              SELECT doc_id, ts[i] AS w1, ts[i + 1] AS w2 FROM big
            ),
            c AS (
              SELECT w1, w2, count(*) AS c2 FROM bg GROUP BY w1, w2
            ),
            c1 AS (
              SELECT w1, sum(c2) AS c1 FROM c GROUP BY w1
            ),
            p AS (
              SELECT bg.doc_id,
                     CAST(c.c2 * 1000000 AS BIGINT) // CAST(c1.c1 AS BIGINT)
                       AS ppm
              FROM bg JOIN c USING (w1, w2) JOIN c1 USING (w1)
            ),
            s AS (
              SELECT doc_id, count(*) AS n_bigrams,
                     CAST(sum(ppm) AS BIGINT) // count(*) AS score_ppm
              FROM p GROUP BY doc_id
            )
            SELECT d.doc_id,
                   coalesce(s.n_bigrams, 0) AS n_bigrams,
                   coalesce(s.score_ppm, 0) AS score_ppm
            FROM documents d LEFT JOIN s USING (doc_id)
        """


def _oracle_sql_base(sf_dir: str = "/root/testdata/sf0.01") -> dict[str, str]:
    from tensorflow_ocr_ray.pipelines.graph import (
        COMPONENTS_ORACLE_SQL,
        TRIANGLE_ORACLE_SQL,
        kcore_oracle_sql,
        shortest_path_oracle_sql,
        bfs_oracle_sql,
        pagerank_oracle_sql,
        personalized_pagerank_oracle_sql,
    )
    from tensorflow_ocr_ray.pipelines.sketches import heavy_hitter_sql

    return {
        "decontaminate": _decontaminate_sql(),
        "repetition_stats": _repetition_sql(),
        "hash_split": _hash_split_sql(),
        "pii_scrub": _pii_sql(),
        "pack_sequences": _pack_sql(),
        # incremental dedup: docs with id >= (max+1)*4//5 are "the new
        # batch"; match key = first 32 chars (prefix blocking — this
        # corpus has no full-text exact dups); precedence existing >
        # in-batch > new, canonicals are the respective min doc_ids
        "dedup_incremental": """
            WITH s AS (
              SELECT (max(doc_id) + 1) * 4 // 5 AS split FROM documents
            ),
            t AS (
              SELECT doc_id, substr(text, 1, 32) AS k FROM documents
            ),
            newd AS (SELECT doc_id, k FROM t, s WHERE doc_id >= s.split),
            ex AS (
              SELECT k, min(doc_id) AS ex_id FROM t, s
              WHERE doc_id < s.split GROUP BY k
            ),
            nb AS (SELECT k, min(doc_id) AS nb_id FROM newd GROUP BY k)
            SELECT n.doc_id,
                   CASE WHEN e.ex_id IS NOT NULL THEN 'dup_existing'
                        WHEN n.doc_id <> b.nb_id THEN 'dup_in_batch'
                        ELSE 'new' END AS verdict,
                   CAST(CASE WHEN e.ex_id IS NOT NULL THEN e.ex_id
                             WHEN n.doc_id <> b.nb_id THEN b.nb_id
                             ELSE n.doc_id END AS BIGINT)
                       AS canonical_doc_id
            FROM newd n
            LEFT JOIN ex e USING (k)
            JOIN nb b USING (k)
        """,
        # phrase search: overlapping adjacent-token matches per doc
        # (pipelines/search.py phrase_search; tokenization = the oracle
        # whitespace convention)
        "phrase_search": r"""
            WITH tok AS (
              SELECT doc_id,
                     string_split_regex(trim(lower(text)), '\s+') AS ts
              FROM documents
            ),
            idx AS (
              SELECT doc_id, ts, unnest(range(1, len(ts))) AS i FROM tok
            ),
            pairs AS (
              SELECT doc_id, ts[i] || ' ' || ts[i + 1] AS bg FROM idx
            )
            SELECT bg AS phrase, doc_id,
                   count(*)::BIGINT AS matches
            FROM pairs
            WHERE bg IN ('part filter', 'order fast', 'table hash')
            GROUP BY 1, 2
        """,
        # BM25 top-20 (ln-free idf ratio variant — every score is the
        # SAME chain of IEEE double + - * / as pipelines/search.py
        # bm25_topk computes, so doubles compare bit-identical; k1=1.2,
        # b=0.75, terms scan/join/filter, ties broken by doc_id)
        "bm25_topk": r"""
            WITH tok AS (
              SELECT doc_id,
                     string_split_regex(trim(lower(text)), '\s+') AS ts
              FROM documents
            ),
            d AS (
              SELECT doc_id, len(ts)::DOUBLE AS dl,
                     len(list_filter(ts, x -> x = 'scan'))::DOUBLE AS tf0,
                     len(list_filter(ts, x -> x = 'join'))::DOUBLE AS tf1,
                     len(list_filter(ts, x -> x = 'filter'))::DOUBLE AS tf2
              FROM tok
            ),
            s AS (
              SELECT count(*)::DOUBLE AS n, sum(dl) AS tt,
                     sum(CASE WHEN tf0 > 0 THEN 1 ELSE 0 END)::DOUBLE
                         AS df0,
                     sum(CASE WHEN tf1 > 0 THEN 1 ELSE 0 END)::DOUBLE
                         AS df1,
                     sum(CASE WHEN tf2 > 0 THEN 1 ELSE 0 END)::DOUBLE
                         AS df2
              FROM d
            ),
            scored AS (
              SELECT doc_id,
                ((n - df0 + 0.5) / (df0 + 0.5))
                  * ((tf0 * (1.2 + 1.0))
                     / (tf0 + 1.2 * ((1.0 - 0.75)
                                     + (0.75 * dl) / (tt / n))))
              + ((n - df1 + 0.5) / (df1 + 0.5))
                  * ((tf1 * (1.2 + 1.0))
                     / (tf1 + 1.2 * ((1.0 - 0.75)
                                     + (0.75 * dl) / (tt / n))))
              + ((n - df2 + 0.5) / (df2 + 0.5))
                  * ((tf2 * (1.2 + 1.0))
                     / (tf2 + 1.2 * ((1.0 - 0.75)
                                     + (0.75 * dl) / (tt / n))))
                AS score
              FROM d, s
            )
            SELECT rank, doc_id, score FROM (
              SELECT row_number() OVER (ORDER BY score DESC, doc_id)
                         AS rank,
                     doc_id, score
              FROM scored
            ) WHERE rank <= 20
        """,
        # RRF fusion of the BM25 ranking above and a Dirichlet-smoothed
        # query-likelihood ranking (product form, mu=2000) — every
        # score is the identical chain of IEEE double ops as
        # pipelines/search.py rrf_fusion; rrf = 1/(60+rank_a) +
        # 1/(60+rank_b) over each ranker's top-100, missing side 0
        # NDCG@10: bm25 scored CTE + graded relevance, integer
        # DCG/IDCG via the injected ppm discount LUT
        "ndcg_eval": _ndcg_sql(),
        # conjunctive inverted-index lookup re-derived from raw text:
        # docs containing every query term, summed tf
        "inverted_index_and": r"""
            WITH tok AS (
              SELECT doc_id,
                     list_filter(string_split_regex(trim(lower(text)),
                                                    '\s+'),
                                 x -> x <> '') AS ts
              FROM documents
            ),
            tf AS (
              SELECT doc_id,
                     len(list_filter(ts, x -> x = 'scan')) AS t0,
                     len(list_filter(ts, x -> x = 'join')) AS t1,
                     len(list_filter(ts, x -> x = 'filter')) AS t2
              FROM tok
            )
            SELECT doc_id,
                   CAST(t0 + t1 + t2 AS BIGINT) AS tf_total
            FROM tf WHERE t0 > 0 AND t1 > 0 AND t2 > 0
        """,
        # positional proximity: token positions re-derived by unnest
        # with index, pair cross-join windowed on |pa - pb| <= 5
        "proximity_search": r"""
            WITH tok AS (
              SELECT doc_id,
                     list_filter(string_split_regex(trim(lower(text)),
                                                    '\s+'),
                                 x -> x <> '') AS ts
              FROM documents
            ),
            pos AS (
              SELECT doc_id, CAST(i AS BIGINT) AS p,
                     ts[CAST(i AS INT)] AS w
              FROM (SELECT doc_id, ts,
                           unnest(generate_series(1, len(ts))) AS i
                    FROM tok WHERE len(ts) > 0)
            ),
            pr AS (
              SELECT * FROM (VALUES ('scan', 'join'),
                                    ('scan', 'filter'),
                                    ('join', 'filter')) AS v(ta, tb)
            )
            SELECT a.doc_id, pr.ta AS term_a, pr.tb AS term_b,
                   count(*) AS matches,
                   min(abs(a.p - b.p)) AS min_gap
            FROM pr
            JOIN pos a ON a.w = pr.ta
            JOIN pos b ON b.doc_id = a.doc_id AND b.w = pr.tb
            WHERE abs(a.p - b.p) <= 5
            GROUP BY a.doc_id, pr.ta, pr.tb
        """,
        "rrf_fusion": r"""
            WITH tok AS (
              SELECT doc_id,
                     string_split_regex(trim(lower(text)), '\s+') AS ts
              FROM documents
            ),
            d AS (
              SELECT doc_id, len(ts)::DOUBLE AS dl,
                     len(list_filter(ts, x -> x = 'scan'))::DOUBLE AS tf0,
                     len(list_filter(ts, x -> x = 'join'))::DOUBLE AS tf1,
                     len(list_filter(ts, x -> x = 'filter'))::DOUBLE AS tf2
              FROM tok
            ),
            s AS (
              SELECT count(*)::DOUBLE AS n, sum(dl) AS tt,
                     sum(CASE WHEN tf0 > 0 THEN 1 ELSE 0 END)::DOUBLE AS df0,
                     sum(CASE WHEN tf1 > 0 THEN 1 ELSE 0 END)::DOUBLE AS df1,
                     sum(CASE WHEN tf2 > 0 THEN 1 ELSE 0 END)::DOUBLE AS df2,
                     sum(tf0) AS cf0, sum(tf1) AS cf1, sum(tf2) AS cf2
              FROM d
            ),
            scored AS (
              SELECT doc_id,
                ((n - df0 + 0.5) / (df0 + 0.5))
                  * ((tf0 * (1.2 + 1.0))
                     / (tf0 + 1.2 * ((1.0 - 0.75)
                                     + (0.75 * dl) / (tt / n))))
              + ((n - df1 + 0.5) / (df1 + 0.5))
                  * ((tf1 * (1.2 + 1.0))
                     / (tf1 + 1.2 * ((1.0 - 0.75)
                                     + (0.75 * dl) / (tt / n))))
              + ((n - df2 + 0.5) / (df2 + 0.5))
                  * ((tf2 * (1.2 + 1.0))
                     / (tf2 + 1.2 * ((1.0 - 0.75)
                                     + (0.75 * dl) / (tt / n))))
                AS bm25,
                1.0 * ((tf0 + 2000.0 * cf0 / tt) / (dl + 2000.0))
                    * ((tf1 + 2000.0 * cf1 / tt) / (dl + 2000.0))
                    * ((tf2 + 2000.0 * cf2 / tt) / (dl + 2000.0)) AS ql
              FROM d, s
            ),
            ra AS (
              SELECT doc_id, rank_a FROM (
                SELECT doc_id, row_number() OVER
                    (ORDER BY bm25 DESC, doc_id) AS rank_a
                FROM scored
              ) WHERE rank_a <= 100
            ),
            rb AS (
              SELECT doc_id, rank_b FROM (
                SELECT doc_id, row_number() OVER
                    (ORDER BY ql DESC, doc_id) AS rank_b
                FROM scored
              ) WHERE rank_b <= 100
            ),
            fused AS (
              SELECT COALESCE(ra.doc_id, rb.doc_id) AS doc_id,
                     COALESCE(1.0 / (60 + rank_a), 0.0)
                   + COALESCE(1.0 / (60 + rank_b), 0.0) AS rrf
              FROM ra FULL OUTER JOIN rb USING (doc_id)
            )
            SELECT rank, doc_id, rrf FROM (
              SELECT row_number() OVER (ORDER BY rrf DESC, doc_id)
                         AS rank,
                     doc_id, rrf
              FROM fused
            ) WHERE rank <= 20
        """,
        # schema-audit profile: one row per lineitem column; integer
        # normalizations (cents, epoch micros) keep min/max/sum exact
        "profile_lineitem": " UNION ALL ".join(
            f"""
            SELECT '{c}' AS col, count(*)::BIGINT AS n,
                   sum(CASE WHEN {c} IS NULL THEN 1 ELSE 0 END)::BIGINT
                       AS nulls,
                   {mn} AS min_repr, {mx} AS max_repr,
                   {sm} AS sum_units
            FROM lineitem"""
            for c, (mn, mx, sm) in {
                **{c: (f"CAST(min({c}) AS VARCHAR)",
                       f"CAST(max({c}) AS VARCHAR)",
                       f"sum({c})::BIGINT")
                   for c in ("l_orderkey", "l_partkey", "l_suppkey",
                             "l_linenumber")},
                **{c: (f"CAST(CAST(round(min({c}) * 100) AS BIGINT)"
                       " AS VARCHAR)",
                       f"CAST(CAST(round(max({c}) * 100) AS BIGINT)"
                       " AS VARCHAR)",
                       f"sum(CAST(round({c} * 100) AS BIGINT))::BIGINT")
                   for c in ("l_quantity", "l_extendedprice",
                             "l_discount", "l_tax")},
                **{c: (f"min({c})", f"max({c})", "CAST(0 AS BIGINT)")
                   for c in ("l_returnflag", "l_linestatus")},
                "l_shipdate": ("CAST(epoch_us(min(l_shipdate)) AS VARCHAR)",
                               "CAST(epoch_us(max(l_shipdate)) AS VARCHAR)",
                               "CAST(0 AS BIGINT)"),
            }.items()
        ),
        "profile_documents": " UNION ALL ".join(
            f"""
            SELECT '{c}' AS col, count(*)::BIGINT AS n,
                   sum(CASE WHEN {c} IS NULL THEN 1 ELSE 0 END)::BIGINT
                       AS nulls,
                   {mn} AS min_repr, {mx} AS max_repr,
                   {sm} AS sum_units
            FROM documents"""
            for c, (mn, mx, sm) in {
                **{c: (f"CAST(min({c}) AS VARCHAR)",
                       f"CAST(max({c}) AS VARCHAR)",
                       f"sum({c})::BIGINT")
                   for c in ("doc_id", "n_chars")},
                **{c: (f"min({c})", f"max({c})", "CAST(0 AS BIGINT)")
                   for c in ("text", "lang", "source")},
            }.items()
        ),
        "link_pagerank": pagerank_oracle_sql(),
        "personalized_pagerank": personalized_pagerank_oracle_sql(),
        "graph_modularity": """
            WITH e AS (
              SELECT doc_id AS v, doc_id - doc_id % 7 AS c
              FROM documents WHERE doc_id % 7 <> 0
              UNION ALL
              SELECT doc_id AS v, doc_id - 7 AS c
              FROM documents
              WHERE doc_id % 21 = 7 AND doc_id >= 7
            ),
            lab AS (
              SELECT CASE WHEN (c - c % 7) % 21 = 7
                          THEN c - c % 7 - 7
                          ELSE c - c % 7 END AS label
              FROM e
            ),
            per AS (
              SELECT label, CAST(count(*) AS BIGINT) AS e
              FROM lab GROUP BY 1
            ),
            m AS (SELECT CAST(sum(e) AS BIGINT) AS m FROM per),
            rows_ AS (
              SELECT label, e AS n_edges,
                     2 * e AS degree_sum,
                     4 * m.m * e - 4 * e * e AS q_contrib_num
              FROM per, m
            )
            SELECT label, n_edges, degree_sum, q_contrib_num
            FROM rows_
            UNION ALL
            SELECT -1, m.m, 2 * m.m,
                   CAST((SELECT sum(q_contrib_num) FROM rows_)
                        * 1000000 // (4 * m.m * m.m) AS BIGINT)
            FROM m
        """,
        "graph_degree_stats": """
            WITH e AS (
              SELECT doc_id AS a, doc_id - doc_id % 7 AS b
              FROM documents WHERE doc_id % 7 <> 0
              UNION ALL
              SELECT doc_id AS a, doc_id - 7 AS b
              FROM documents
              WHERE doc_id % 7 = 0 AND doc_id % 21 = 7 AND doc_id >= 7
            ),
            und AS (
              SELECT a AS v, b AS nb FROM e
              UNION ALL
              SELECT b AS v, a AS nb FROM e
            ),
            deg AS (
              SELECT d.doc_id AS v,
                     CAST(coalesce(count(DISTINCT u.nb), 0) AS BIGINT)
                         AS degree
              FROM documents d LEFT JOIN und u ON u.v = d.doc_id
              GROUP BY 1
            )
            SELECT degree, CAST(count(*) AS BIGINT) AS n_vertices
            FROM deg GROUP BY 1
        """,
        "graph_components": COMPONENTS_ORACLE_SQL,
        "graph_bfs_depth": bfs_oracle_sql(),
        "triangle_count": TRIANGLE_ORACLE_SQL,
        "kcore_membership": kcore_oracle_sql(),
        "shortest_path_weighted": shortest_path_oracle_sql(),
        "heavy_hitter_trigrams": heavy_hitter_sql(),
        "cms_heavy_hitters": _cms_sql(),
        "media_gif_frames": """
            SELECT CAST(doc_id AS VARCHAR) AS media_ref,
                   CAST(i AS INTEGER) AS frame_idx,
                   CAST((i + 1) * 8 AS BIGINT) AS ink
            FROM (
                SELECT doc_id,
                       unnest(range(0, 1 + doc_id % 5, 2)) AS i
                FROM documents
            )
        """,
        "media_avi_frames": """
            SELECT CAST(doc_id AS VARCHAR) AS media_ref,
                   CAST(i AS INTEGER) AS frame_idx,
                   CAST((i + 1) * 8 AS BIGINT) AS ink
            FROM (
                SELECT doc_id,
                       unnest(range(0, 1 + doc_id % 5, 2)) AS i
                FROM documents
            )
        """,
        "media_mixed_frames": """
            SELECT CAST(doc_id AS VARCHAR) AS media_ref,
                   CAST(i AS INTEGER) AS frame_idx,
                   CAST((i + 1) * 8 AS BIGINT) AS ink
            FROM (
                SELECT doc_id,
                       unnest(range(0, 1 + doc_id % 5, 2)) AS i
                FROM documents
            )
        """,
        "media_augment_ink": """
            WITH g AS (
              SELECT doc_id,
                     CAST(doc_id AS VARCHAR) AS media_ref,
                     1 + doc_id % 5 AS b,
                     8 + doc_id % 4 AS h,
                     doc_id % 3 AS c,
                     doc_id % 4 AS k
              FROM documents
            )
            SELECT media_ref,
                   CAST(CASE WHEN k % 2 = 0 THEN h - c
                             ELSE 8 - c END AS INTEGER) AS height,
                   CAST(CASE WHEN k % 2 = 0 THEN 8
                             ELSE h END AS INTEGER) AS width,
                   CAST(CASE k
                     WHEN 0 THEN greatest(0, b - c) * 8
                     WHEN 1 THEN (8 - c) * b
                     WHEN 2 THEN 8 * b
                     ELSE (8 - c) * b END AS BIGINT) AS ink
            FROM g
        """,
        "media_bmp_ink": """
            SELECT CAST(doc_id AS VARCHAR) AS media_ref,
                   CASE doc_id % 4
                     WHEN 0 THEN 'pal8' WHEN 1 THEN 'bgr24'
                     WHEN 2 THEN 'bgrx32td' ELSE 'rle8' END AS kind,
                   CAST(8 + doc_id % 4 AS INTEGER) AS height,
                   CAST((1 + doc_id % 5) * 8 AS BIGINT) AS ink
            FROM documents
        """,
        "media_png_ink": """
            SELECT CAST(doc_id AS VARCHAR) AS media_ref,
                   CAST(8 + doc_id % 4 AS INTEGER) AS height,
                   CAST((1 + doc_id % 5) * 8 AS BIGINT) AS ink
            FROM documents
        """,
        "media_jpeg_ink": """
            SELECT CAST(doc_id AS VARCHAR) AS media_ref,
                   CAST(8 * (1 + doc_id % 4) AS INTEGER) AS width,
                   CAST(64 * (1 + doc_id % (1 + doc_id % 4)) AS BIGINT)
                       AS ink
            FROM documents
        """,
        "media_header_probe": """
            SELECT CAST(doc_id AS VARCHAR) AS media_ref,
                   CASE doc_id % 5
                     WHEN 0 THEN 'png' WHEN 1 THEN 'jpeg'
                     WHEN 2 THEN 'gif' WHEN 3 THEN 'avi'
                     ELSE 'tiff' END AS format,
                   CAST(CASE WHEN doc_id % 5 = 1
                             THEN 8 * (1 + doc_id % 4)
                             ELSE 8 END AS INTEGER) AS width,
                   CAST(CASE WHEN doc_id % 5 = 1 THEN 8
                             ELSE 8 + doc_id % 4 END AS INTEGER)
                       AS height,
                   CAST(CASE doc_id % 5
                     WHEN 2 THEN 1 + doc_id % 5
                     WHEN 3 THEN 1 + doc_id % 5
                     WHEN 4 THEN 1 + doc_id % 3
                     ELSE 1 END AS INTEGER) AS n_frames
            FROM documents
        """,
        "media_pdf_ink": """
            SELECT CAST(doc_id AS VARCHAR) AS media_ref,
                   CAST(72 + (43 - doc_id % 5) // 4 AS BIGINT) AS ink
            FROM documents
        """,
        "media_tiff_ink": """
            SELECT CAST(doc_id AS VARCHAR) AS media_ref,
                   CAST(i AS INTEGER) AS page_idx,
                   CAST((i + 1) * 8 AS BIGINT) AS ink
            FROM (
                SELECT doc_id,
                       unnest(range(0, 1 + doc_id % 3)) AS i
                FROM documents
            )
        """,
        # planted metadata is doc_id arithmetic: description string,
        # orientation 1+d%8, xres 72+d%4, datetime day 1+d%28
        "tiff_metadata_extract": """
            SELECT doc_id,
                   'doc-' || CAST(doc_id AS VARCHAR) AS description,
                   CAST(1 + doc_id % 8 AS BIGINT) AS orientation,
                   CAST(72 + doc_id % 4 AS BIGINT) AS xres,
                   '2026:01:' || printf('%02d', CAST(1 + doc_id % 28 AS INT))
                     || ' 00:00:00' AS datetime
            FROM documents
        """,
        # planted cuts: scene steps at s1 = 1+d%3 always, and at s1+2
        # when d is even and it lands inside the 4+d%5 frames; every
        # cut flips 4 rows (32 px) + the 2-px jitter marker move
        "video_scene_cuts": """
            WITH d AS (
              SELECT doc_id, 4 + doc_id % 5 AS nf, 1 + doc_id % 3 AS s1
              FROM documents
            )
            SELECT doc_id, cut_frame, CAST(34 AS BIGINT) AS diff
            FROM (
              SELECT doc_id, CAST(s1 AS BIGINT) AS cut_frame FROM d
              UNION ALL
              SELECT doc_id, CAST(s1 + 2 AS BIGINT) FROM d
              WHERE doc_id % 2 = 0 AND s1 + 2 < nf
            )
        """,
        # segments = maximal runs of set bits in 1 + doc_id%62
        "audio_energy_segments": """
            WITH blocks AS (
              SELECT doc_id, j, ((1 + doc_id % 62) >> j) & 1 AS act
              FROM documents, generate_series(0, 5) AS t(j)
            ), marked AS (
              SELECT doc_id, j, act,
                     CASE WHEN act = 1 AND coalesce(
                            lag(act) OVER (PARTITION BY doc_id ORDER BY j),
                            0) = 0
                          THEN 1 ELSE 0 END AS is_start
              FROM blocks
            ), segs AS (
              SELECT doc_id, j,
                     sum(is_start) OVER (
                         PARTITION BY doc_id ORDER BY j) AS seg
              FROM marked WHERE act = 1
            )
            SELECT doc_id, CAST(seg - 1 AS BIGINT) AS seg_idx,
                   CAST(min(j) AS BIGINT) AS start_block,
                   CAST(max(j) AS BIGINT) AS end_block,
                   CAST(count(*) AS BIGINT) AS n_blocks
            FROM segs GROUP BY doc_id, seg
        """,
        # the planted truth: pattern class doc_id%8 IS the perceptual
        # cluster (brightness doc_id%5 cancels in the dHash)
        "media_phash_dedup": """
            SELECT doc_id,
                   min(doc_id) OVER (PARTITION BY doc_id % 8)
                     AS keeper_doc_id,
                   count(*) OVER (PARTITION BY doc_id % 8)
                     AS cluster_size,
                   CAST(CASE WHEN doc_id = min(doc_id)
                          OVER (PARTITION BY doc_id % 8)
                        THEN 0 ELSE 1 END AS BIGINT) AS is_dup
            FROM documents
        """,
        "media_audio_g711": _g711_sql(),
        "media_audio_mixed": """
            SELECT CAST(doc_id AS VARCHAR) AS media_ref,
                   CAST(2 AS INTEGER) AS n_frames,
                   CAST(1000 + (doc_id % 200) * 37 AS BIGINT)
                       AS sample_val
            FROM documents
        """,
        "profile_events": " UNION ALL ".join(
            f"""
            SELECT '{c}' AS col, count(*)::BIGINT AS n,
                   sum(CASE WHEN {c} IS NULL THEN 1 ELSE 0 END)::BIGINT
                       AS nulls,
                   {mn} AS min_repr, {mx} AS max_repr,
                   {sm} AS sum_units
            FROM events"""
            for c, (mn, mx, sm) in {
                **{c: (f"CAST(min({c}) AS VARCHAR)",
                       f"CAST(max({c}) AS VARCHAR)",
                       f"sum({c})::BIGINT")
                   for c in ("event_id", "user_id")},
                "value": ("CAST(CAST(round(min(value) * 100) AS BIGINT)"
                          " AS VARCHAR)",
                          "CAST(CAST(round(max(value) * 100) AS BIGINT)"
                          " AS VARCHAR)",
                          "sum(CAST(round(value * 100) AS BIGINT))"
                          "::BIGINT"),
                **{c: (f"min({c})", f"max({c})", "CAST(0 AS BIGINT)")
                   for c in ("event_type", "props")},
                "ts": ("CAST(epoch_us(min(ts)) AS VARCHAR)",
                       "CAST(epoch_us(max(ts)) AS VARCHAR)",
                       "CAST(0 AS BIGINT)"),
            }.items()
        ),
        "tfidf_top_terms": _tfidf_sql(),
        "source_gate": _source_gate_sql(),
        "dup_span_coverage": _dup_span_sql(),
        # per-doc novelty: trigrams first seen in this doc_id
        "doc_novel_trigrams": """
            WITH t AS (
              SELECT doc_id,
                     list_filter(string_split_regex(trim(lower(text)),
                                                    '\\s+'),
                                 x -> x <> '') AS toks
              FROM documents
            ),
            g AS (
              SELECT doc_id,
                     toks[CAST(i AS INT)] || ' '
                     || toks[CAST(i AS INT) + 1] || ' '
                     || toks[CAST(i AS INT) + 2] AS g
              FROM (SELECT doc_id, toks,
                           unnest(generate_series(1, len(toks) - 2)) AS i
                    FROM t WHERE len(toks) >= 3)
            ),
            tot AS (
              SELECT doc_id, CAST(count(*) AS BIGINT) AS n_grams
              FROM g GROUP BY 1
            ),
            fs AS (SELECT g, min(doc_id) AS first_doc FROM g GROUP BY 1),
            nov AS (
              SELECT first_doc AS doc_id,
                     CAST(count(*) AS BIGINT) AS n_novel
              FROM fs GROUP BY 1
            )
            SELECT d.doc_id,
                   CAST(COALESCE(tot.n_grams, 0) AS BIGINT) AS n_grams,
                   CAST(COALESCE(nov.n_novel, 0) AS BIGINT) AS n_novel
            FROM documents d
            LEFT JOIN tot USING (doc_id)
            LEFT JOIN nov USING (doc_id)
        """,
        # top-50 bigrams by exact-integer PMI argument
        # c_xy*N*1000//(c_x*c_y); pair bound i<len via constant range
        "bigram_lm_familiarity": """
            WITH tok AS (
              SELECT doc_id,
                     string_split_regex(trim(lower(text)),
                                        '\\s+') AS ts
              FROM documents
            ),
            big AS (
              SELECT doc_id, ts[i.i] AS w1, ts[i.i + 1] AS w2
              FROM tok, (SELECT unnest(range(1, 2048)) AS i) i
              WHERE i.i < len(ts)
            ),
            bc AS (
              SELECT w1, w2, CAST(count(*) AS BIGINT) AS c_xy
              FROM big GROUP BY 1, 2
            ),
            uni AS (
              SELECT t.tk AS w, CAST(count(*) AS BIGINT) AS c
              FROM (SELECT unnest(ts) AS tk FROM tok) t GROUP BY 1
            ),
            sc AS (
              SELECT b.doc_id,
                     CAST(bc.c_xy * 1000 // u.c AS BIGINT) AS t
              FROM big b
              JOIN bc ON bc.w1 = b.w1 AND bc.w2 = b.w2
              JOIN uni u ON u.w = b.w1
            ),
            agg AS (
              SELECT doc_id, CAST(count(*) AS BIGINT) AS n_pairs,
                     CAST(sum(t) AS BIGINT) AS familiarity
              FROM sc GROUP BY 1
            )
            SELECT d.doc_id,
                   CAST(coalesce(a.n_pairs, 0) AS BIGINT) AS n_pairs,
                   CAST(coalesce(a.familiarity, 0) AS BIGINT)
                       AS familiarity
            FROM documents d LEFT JOIN agg a USING (doc_id)
        """,
        "bigram_pmi_topk": """
            WITH tok AS (
              SELECT string_split_regex(trim(lower(text)),
                                        '\\s+') AS ts
              FROM documents
            ),
            big AS (
              SELECT ts[i.i] AS w1, ts[i.i + 1] AS w2
              FROM tok, (SELECT unnest(range(1, 2048)) AS i) i
              WHERE i.i < len(ts)
            ),
            bc AS (
              SELECT w1, w2, CAST(count(*) AS BIGINT) AS c_xy
              FROM big GROUP BY 1, 2
            ),
            uni AS (
              SELECT t.tk AS w, CAST(count(*) AS BIGINT) AS c
              FROM (SELECT unnest(ts) AS tk FROM tok) t GROUP BY 1
            ),
            meta AS (SELECT CAST(sum(c) AS BIGINT) AS n FROM uni)
            SELECT b.w1, b.w2, b.c_xy, u1.c AS c_x, u2.c AS c_y,
                   CAST(b.c_xy * m.n * 1000 // (u1.c * u2.c)
                        AS BIGINT) AS pmi_ratio_ppt
            FROM bc b
            JOIN uni u1 ON u1.w = b.w1
            JOIN uni u2 ON u2.w = b.w2, meta m
            ORDER BY pmi_ratio_ppt DESC, b.w1, b.w2 LIMIT 50
        """,
        # per-source token Gini impurity, exact ints; same whitespace
        # tokenization as vocab_topk; HUGEINT sums cast to BIGINT
        "source_token_gini": """
            WITH tok AS (
              SELECT source,
                     unnest(string_split_regex(trim(lower(text)),
                                               '\\s+')) AS token
              FROM documents
            ),
            ct AS (
              SELECT source, token, CAST(count(*) AS BIGINT) AS c
              FROM tok WHERE token <> '' GROUP BY 1, 2
            ),
            agg AS (
              SELECT source, CAST(sum(c) AS BIGINT) AS n_tokens,
                     CAST(sum(c * c) AS BIGINT) AS sum_sq
              FROM ct GROUP BY 1
            )
            SELECT source, n_tokens, sum_sq,
                   CAST((n_tokens * n_tokens - sum_sq) * 1000000
                        // (n_tokens * n_tokens) AS BIGINT) AS gini_ppm
            FROM agg
        """,
        "vocab_topk": _vocab_topk_sql(),
        "token_entropy": _token_entropy_sql(),
        # cumulative vocab/token curve at doc-count deciles
        "heaps_vocab_growth": r"""
            WITH n AS (SELECT count(*) AS nd FROM documents),
            grid AS (
              SELECT k, (k * nd) // 10 AS c
              FROM generate_series(1, 10) AS g(k), n
            ),
            tok AS (
              SELECT doc_id,
                     unnest(string_split_regex(trim(lower(text)), '\s+'))
                         AS t
              FROM documents
            ),
            tk AS (SELECT doc_id, t FROM tok WHERE t <> ''),
            firsts AS (SELECT t, min(doc_id) AS fd FROM tk GROUP BY t)
            SELECT CAST(g.k AS BIGINT) AS checkpoint,
                   CAST(g.c AS BIGINT) AS docs,
                   CAST((SELECT count(*) FROM tk WHERE tk.doc_id < g.c)
                        AS BIGINT) AS total_tokens,
                   CAST((SELECT count(*) FROM firsts f WHERE f.fd < g.c)
                        AS BIGINT) AS vocab_size
            FROM grid g
        """,
        # per-source + global vocab tail mass (hapax = cnt 1, dis = 2)
        "hapax_stats": r"""
            WITH tok AS (
              SELECT source,
                     unnest(string_split_regex(trim(lower(text)), '\s+'))
                         AS t
              FROM documents
            ),
            tk AS (SELECT source, t FROM tok WHERE t <> ''),
            c AS (SELECT source, t, count(*) AS c FROM tk
                  GROUP BY source, t),
            per AS (
              SELECT source, count(*) AS vocab,
                     sum(CASE WHEN c = 1 THEN 1 ELSE 0 END) AS hapax,
                     sum(CASE WHEN c = 2 THEN 1 ELSE 0 END) AS dis
              FROM c GROUP BY source
            ),
            g AS (SELECT t, sum(c) AS c FROM c GROUP BY t),
            ga AS (
              SELECT '__all__' AS source, count(*) AS vocab,
                     sum(CASE WHEN c = 1 THEN 1 ELSE 0 END) AS hapax,
                     sum(CASE WHEN c = 2 THEN 1 ELSE 0 END) AS dis
              FROM g
            ),
            u AS (SELECT * FROM per UNION ALL SELECT * FROM ga)
            SELECT source, CAST(vocab AS BIGINT) AS vocab,
                   CAST(hapax AS BIGINT) AS hapax,
                   CAST(dis AS BIGINT) AS dis,
                   CAST(hapax * 1000000 // vocab AS BIGINT) AS hapax_ppm
            FROM u
        """,
        "length_percentile_gate": _length_gate_sql(),
        "gopher_gate": _gopher_gate_sql(),
        # sequential drop attribution over the gate signals; dedup
        # keeper = min doc_id per identical text among rule-1..3
        # survivors only (the order is the point of the funnel)
        "filter_funnel": f"""
            WITH gate AS ({_gopher_gate_sql()}),
            v AS (
              SELECT d.doc_id, d.text,
                     CASE WHEN d.lang <> 'en' THEN 1
                          WHEN g.fail_reason IN ('too_short', 'too_long')
                              THEN 2
                          WHEN g.fail_reason IN ('repetitive_unigram',
                                                 'repetitive_trigram')
                              THEN 3
                          ELSE 0 END AS dropped_at
              FROM documents d JOIN gate g USING (doc_id)
            ),
            surv AS (SELECT doc_id, text FROM v WHERE dropped_at = 0),
            keep AS (
              SELECT doc_id,
                     CASE WHEN doc_id = min(doc_id) OVER (PARTITION BY text)
                          THEN 0 ELSE 4 END AS dropped_at
              FROM surv
            ),
            final AS (
              SELECT doc_id, dropped_at FROM v WHERE dropped_at > 0
              UNION ALL SELECT doc_id, dropped_at FROM keep
            ),
            stages(stage, rule) AS (VALUES
              (1, 'lang'), (2, 'length'), (3, 'repetitive'),
              (4, 'exact_dup'))
            SELECT CAST(s.stage AS BIGINT) AS stage, s.rule,
                   CAST((SELECT count(*) FROM final f
                         WHERE f.dropped_at = 0
                            OR f.dropped_at >= s.stage) AS BIGINT) AS n_in,
                   CAST((SELECT count(*) FROM final f
                         WHERE f.dropped_at = s.stage) AS BIGINT)
                       AS n_dropped,
                   CAST((SELECT count(*) FROM final f
                         WHERE f.dropped_at = 0
                            OR f.dropped_at > s.stage) AS BIGINT) AS n_out
            FROM stages s
        """,
        # extract -> curate composition: the gate CTE runs over RAW
        # documents.text (the wrap/extract pair is exact-inverse on
        # these corpora), keeper = window-min doc_id per identical text
        "web_curation_pipeline": f"""
            WITH gate AS ({_gopher_gate_sql()}),
            keep AS (
              SELECT doc_id,
                     min(doc_id) OVER (PARTITION BY text) AS keeper_doc_id
              FROM documents
            )
            SELECT g.doc_id, g.tokens, g.top_unigram_frac,
                   g.dup_trigram_frac, g.passed, g.fail_reason,
                   k.keeper_doc_id,
                   CAST(CASE WHEN g.passed = 1
                             AND g.doc_id = k.keeper_doc_id
                        THEN 1 ELSE 0 END AS BIGINT) AS kept
            FROM gate g JOIN keep k USING (doc_id)
        """,
        # doc rarity: mean corpus document-frequency over the doc's
        # DISTINCT tokens (vocab_topk's tokenization); the one double is
        # a single int/int IEEE division on both sides
        "doc_rarity": r"""
            WITH tok AS (
              SELECT DISTINCT doc_id, token FROM (
                SELECT doc_id,
                       unnest(string_split_regex(trim(lower(text)),
                                                 '\s+')) AS token
                FROM documents)
              WHERE token <> ''
            ),
            dfreq AS (
              SELECT token, CAST(count(*) AS BIGINT) AS df
              FROM tok GROUP BY token
            ),
            j AS (SELECT t.doc_id, f.df FROM tok t JOIN dfreq f USING (token))
            SELECT doc_id, CAST(count(*) AS BIGINT) AS n_tokens,
                   CAST(sum(df) AS BIGINT) AS sum_df,
                   CAST(sum(df) AS DOUBLE) / count(*) AS mean_df
            FROM j GROUP BY doc_id
        """,
        "curation_pipeline": _curation_pipeline_sql(),
        "eval_set_builder": _eval_set_sql(),
        "mixture_rebalance": _mixture_sql(),
        "source_topk_docs": _source_topk_sql(),
        "dedup_keep_list": _keep_list_sql(),
        "doc_langid": _langid_sql(),
        # segment 0 = the document paragraph (the generated langid SQL
        # gives its prediction), segment 1 = the planted constant; when
        # both agree the paragraphs merge into one 2-para segment
        "language_segments": f"""
            WITH l AS ({_langid_sql()}),
            d AS (
              SELECT doc_id, pred_lang AS p0,
                     ['de', 'fr', 'yi'][doc_id % 3 + 1] AS p1
              FROM l
            )
            SELECT doc_id, 0 AS seg_idx, p0 AS pred_lang,
                   CASE WHEN p0 = p1 THEN 2 ELSE 1 END AS n_paras
            FROM d
            UNION ALL
            SELECT doc_id, 1, p1, 1 FROM d WHERE p0 <> p1
        """,
        "langid_confusion": f"""
            SELECT lang, pred_lang, CAST(count(*) AS BIGINT) AS n
            FROM ({_langid_sql()}) GROUP BY 1, 2
        """,
        "doc_quality": _quality_sql(),
        "minhash_verified_pairs": _minhash_sql(),
        "dedup_threshold_sweep": f"""
            WITH p AS ({_minhash_sql()}),
            h AS (
              SELECT CAST(floor(sim * 20) AS BIGINT) AS bucket,
                     CAST(count(*) AS BIGINT) AS n_pairs
              FROM p GROUP BY 1
            )
            SELECT bucket * 5 AS bucket_lo_pct, n_pairs,
                   CAST(sum(n_pairs) OVER (
                       ORDER BY bucket DESC
                       ROWS BETWEEN UNBOUNDED PRECEDING
                                AND CURRENT ROW) AS BIGINT)
                       AS n_pairs_cum_ge
            FROM h
        """,
        "cross_source_dup_matrix": f"""
            WITH p AS ({_minhash_sql()})
            SELECT least(a.source, b.source) AS source_a,
                   greatest(a.source, b.source) AS source_b,
                   CAST(count(*) AS BIGINT) AS n_pairs
            FROM p
            JOIN documents a ON a.doc_id = p.doc_a
            JOIN documents b ON b.doc_id = p.doc_b
            GROUP BY 1, 2
        """,
        "minhash_dedup": _minhash_dedup_sql(),
        "dedup_keep_longest": f"""
            WITH RECURSIVE pairs AS MATERIALIZED (
              SELECT doc_a, doc_b FROM ({_minhash_sql()}) t
            ),
            nodes AS (
              SELECT DISTINCT doc_id FROM (
                SELECT doc_a AS doc_id FROM pairs
                UNION ALL SELECT doc_b FROM pairs)
            ),
            edges AS MATERIALIZED (
              SELECT doc_a AS a, doc_b AS b FROM pairs
              UNION ALL SELECT doc_b, doc_a FROM pairs
            ),
            walk(doc_id, r) AS (
              SELECT doc_id, doc_id FROM nodes
              UNION
              SELECT e.b, w.r FROM walk w JOIN edges e ON e.a = w.doc_id
            ),
            labels AS (
              SELECT doc_id, min(r) AS cluster_rep FROM walk
              GROUP BY doc_id
            ),
            j AS (
              SELECT l.cluster_rep, d.doc_id, d.n_chars,
                     max(d.n_chars) OVER (
                       PARTITION BY l.cluster_rep) AS mx
              FROM labels l JOIN documents d USING (doc_id)
            )
            SELECT CAST(cluster_rep AS BIGINT) AS cluster_rep,
                   CAST(min(CASE WHEN n_chars = mx THEN doc_id END)
                        AS BIGINT) AS keep_doc_id,
                   CAST(count(*) AS BIGINT) AS n_members,
                   CAST(max(n_chars) AS BIGINT) AS max_chars
            FROM j GROUP BY cluster_rep
        """,
        "minhash_cluster_size_hist": f"""
            SELECT CAST(cluster_size AS BIGINT) AS cluster_size,
                   CAST(count(*) AS BIGINT) AS n_clusters
            FROM (
              SELECT cluster_rep, count(*) AS cluster_size
              FROM ({_minhash_dedup_sql()}) GROUP BY cluster_rep
            ) GROUP BY 1
        """,
        "kmeans_quantized": _kmeans_sql(),
        "semdedup_prune": _semdedup_sql(),
        "pq_codebooks": _pq_sql(),
        "ann_topk_pq": _pq_adc_sql(),
        "ann_topk_ivfpq": _ivfpq_sql(),
        # per-cluster top-3 nearest the final centroid over the SAME
        # unrolled kmeans CTE chain
        "cluster_representatives": f"""
            SELECT vec_id, cluster, dist,
                   CAST(rank AS BIGINT) AS rank
            FROM (
              SELECT vec_id, cluster, dist,
                     row_number() OVER (
                       PARTITION BY cluster
                       ORDER BY dist, vec_id) AS rank
              FROM ({_kmeans_sql()}) a
            ) WHERE rank <= 3
        """,
        # embedding-cluster x doc-token-count join (vec_id == doc_id)
        "cluster_token_profile": rf"""
            SELECT cluster, count(*) AS n_docs,
                   CAST(sum(len(string_split_regex(trim(text), '\s+')))
                        AS BIGINT) AS sum_tokens
            FROM ({_kmeans_sql()}) a
            JOIN documents d ON d.doc_id = a.vec_id
            GROUP BY cluster
        """,
        # Spearman rho = Pearson over doubled average ranks (integers:
        # 2*avg_rank = 2*rank() + tie_count - 1), exact integer moments
        "spearman_rank_corr": r"""
            WITH t AS (
              SELECT n_chars,
                     len(string_split_regex(trim(text), '\s+')) AS tok
              FROM documents
            ),
            r AS (
              SELECT 2 * rank() OVER (ORDER BY n_chars)
                       + count(*) OVER (PARTITION BY n_chars) - 1 AS x,
                     2 * rank() OVER (ORDER BY tok)
                       + count(*) OVER (PARTITION BY tok) - 1 AS y
              FROM t
            ),
            m AS (
              SELECT count(*) AS n, sum(x) AS sx, sum(y) AS sy,
                     sum(x * x) AS sxx, sum(x * y) AS sxy,
                     sum(y * y) AS syy
              FROM r
            )
            SELECT CAST(n AS BIGINT) AS n,
                   round(CAST(n * sxy - sx * sy AS DOUBLE)
                         / sqrt(CAST(n * sxx - sx * sx AS DOUBLE)
                                * CAST(n * syy - sy * sy AS DOUBLE)),
                         6) AS spearman_rho
            FROM m
        """,
        # per-doc top-3 tokens by count, ties lexicographic
        "doc_top_tokens": r"""
            WITH tok AS (
              SELECT doc_id, unnest(
                list_filter(string_split_regex(trim(lower(text)),
                                               '\s+'),
                            x -> x <> '')) AS token
              FROM documents
            ),
            c AS (SELECT doc_id, token, count(*) AS n
                  FROM tok GROUP BY 1, 2)
            SELECT doc_id, CAST(rank AS BIGINT) AS rank, token, n
            FROM (
              SELECT *, row_number() OVER (
                PARTITION BY doc_id ORDER BY n DESC, token) AS rank
              FROM c
            ) WHERE rank <= 3
        """,
        # per-user modal event type, ties lexicographic
        "user_mode_event": """
            SELECT user_id, mode_type, n FROM (
              SELECT user_id, event_type AS mode_type,
                     count(*) AS n,
                     row_number() OVER (
                       PARTITION BY user_id
                       ORDER BY count(*) DESC, event_type) AS rn
              FROM events GROUP BY user_id, event_type
            ) WHERE rn = 1
        """,
        # TPC-H Q10 shape, exact 1e-4-dollar revenue ints
        "q23_returned_item_revenue": """
            SELECT c.c_custkey, c.c_name, n.n_name,
                   CAST(sum(CAST(round(l.l_extendedprice * 100)
                                 AS BIGINT)
                            * (100 - CAST(round(l.l_discount * 100)
                                          AS BIGINT)))
                        AS BIGINT) AS revenue_e4
            FROM lineitem l
            JOIN orders o ON o.o_orderkey = l.l_orderkey
            JOIN customer c ON c.c_custkey = o.o_custkey
            JOIN nation n ON n.n_nationkey = c.c_nationkey
            WHERE l.l_returnflag = 'R'
            GROUP BY 1, 2, 3
            ORDER BY revenue_e4 DESC, c.c_custkey
            LIMIT 20
        """,
        # pairwise source vocabulary intersection sizes
        "source_vocab_overlap": r"""
            WITH st AS (
              SELECT DISTINCT source, unnest(
                list_filter(string_split_regex(trim(lower(text)),
                                               '\s+'),
                            x -> x <> '')) AS token
              FROM documents
            )
            SELECT a.source AS source_a, b.source AS source_b,
                   count(*) AS shared_tokens
            FROM st a JOIN st b
              ON a.token = b.token AND a.source < b.source
            GROUP BY 1, 2
        """,
        # per-language exact-size sample: bottom-20 md5 per stratum
        "stratified_sample_exact": """
            SELECT lang, CAST(rank AS BIGINT) AS rank, doc_id, h
            FROM (
              SELECT lang, doc_id,
                     md5(CAST(doc_id AS VARCHAR)) AS h,
                     row_number() OVER (
                       PARTITION BY lang
                       ORDER BY md5(CAST(doc_id AS VARCHAR))) AS rank
              FROM documents
            ) WHERE rank <= 20
        """,
        # bottom-100 md5(doc_id): deterministic fixed-size sample
        "priority_sample": """
            SELECT doc_id, md5(CAST(doc_id AS VARCHAR)) AS h,
                   lang, source, n_chars
            FROM documents
            ORDER BY h LIMIT 100
        """,
        "ann_topk_lsh": _ann_lsh_sql(),
        # appended (base + delta) index must equal the from-scratch
        # answer over the full corpus: the SAME re-derivation
        "ann_index_append": _ann_lsh_sql(),
        "ann_recall_eval": _ann_recall_sql(),
        "ann_topk_ivf": _ann_ivf_sql(sf_dir),
        # simhash64 re-derived in SQL: identical md5-low-64 gram hashes,
        # per-bit majority vote, unsigned->signed int64 reinterpretation
        "simhash_fingerprints": r"""
            WITH t AS (
              SELECT doc_id,
                     list_filter(string_split_regex(trim(lower(text)),
                                                    '\s+'),
                                 x -> x <> '') AS toks
              FROM documents
            ),
            g AS (
              SELECT doc_id,
                     CASE WHEN len(toks) > 1
                          THEN toks[CAST(i AS INT)] || ' '
                               || toks[CAST(i AS INT) + 1]
                          ELSE toks[1] END AS gram
              FROM (SELECT doc_id, toks,
                           unnest(generate_series(
                               1, greatest(len(toks) - 1, 1))) AS i
                    FROM t WHERE len(toks) > 0)
            ),
            h AS (
              SELECT doc_id,
                     ('0x' || substr(md5(gram), 1, 16))::UBIGINT AS h
              FROM g
            ),
            bits AS (
              SELECT doc_id, b.i AS bit,
                     sum(CASE WHEN (h >> CAST(b.i AS INT)) & 1 = 1
                              THEN 1 ELSE -1 END) AS acc
              FROM h, (SELECT unnest(generate_series(0, 63)) AS i) b
              GROUP BY doc_id, b.i
            ),
            sh AS (
              SELECT doc_id,
                     sum(CASE WHEN acc > 0
                          THEN CAST(1::UBIGINT << CAST(bit AS INT)
                                    AS HUGEINT)
                          ELSE 0 END) AS u
              FROM bits GROUP BY doc_id
            )
            SELECT d.doc_id,
                   CAST(CASE WHEN coalesce(s.u, 0) >= 9223372036854775808
                        THEN coalesce(s.u, 0) - 18446744073709551616
                        ELSE coalesce(s.u, 0) END AS BIGINT) AS simhash
            FROM documents d LEFT JOIN sh s ON s.doc_id = d.doc_id
        """,
        # banded SimHash pair retrieval re-derived in SQL: the shared
        # unsigned-fingerprint CTE, a (band, value) equality self-join
        # for candidates (the same 4x16 pigeonhole the engine routes
        # on), then bit_count(xor()) <= 3 verification
        "simhash_dup_pairs": _SIMHASH_U_CTE + r"""
            , b AS (
              SELECT doc_id, u, bi.i AS band,
                     (u >> CAST(16 * bi.i AS INT)) & 65535 AS bv
              FROM fp, (SELECT unnest(generate_series(0, 3)) AS i) bi
            ),
            cand AS (
              SELECT DISTINCT a.doc_id AS doc_a, c.doc_id AS doc_b,
                              a.u AS ua, c.u AS ub
              FROM b a JOIN b c
                ON a.band = c.band AND a.bv = c.bv
               AND a.doc_id < c.doc_id
            )
            SELECT doc_a, doc_b,
                   CAST(bit_count(xor(ua, ub)) AS BIGINT) AS hamming
            FROM cand
            WHERE bit_count(xor(ua, ub)) <= 3
        """,
        # winnowing fingerprint re-derived in SQL: md5-low-32 5-gram
        # hashes, 4-window minima, first 8 distinct in document order
        "doc_fingerprints": _WINNOW_RANKED_CTE + r"""
            SELECT d.doc_id,
                   coalesce(f.fingerprint, '') AS fingerprint
            FROM documents d
            LEFT JOIN (
              SELECT doc_id,
                     string_agg(CAST(m AS VARCHAR), ',' ORDER BY fi)
                         AS fingerprint
              FROM ranked WHERE rn <= 8 GROUP BY doc_id
            ) f ON f.doc_id = d.doc_id
        """,
        # exact integer measures + half-up e4 averages (the corpus
        # lands true means on decimal half-points where numpy/DuckDB
        # rounding modes split — see q07)
        "q01_pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT)
                       AS sum_qty,
                   CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT))
                       AS BIGINT) AS sum_base_cents,
                   CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(round(l_discount * 100)
                                          AS BIGINT)))
                       AS BIGINT) AS sum_disc_e4,
                   CAST((20000 * sum(CAST(l_quantity AS BIGINT))
                         + count(*)) // (2 * count(*)) AS BIGINT)
                       AS avg_qty_e4,
                   CAST((200 * sum(CAST(round(l_extendedprice * 100)
                                        AS BIGINT)) + count(*))
                        // (2 * count(*)) AS BIGINT) AS avg_price_e4,
                   count(*) AS count_order
            FROM lineitem GROUP BY l_returnflag, l_linestatus
        """,
        "q02_filtered_revenue": """
            SELECT l_orderkey, l_linenumber,
                   l_extendedprice * (1 - l_discount) AS revenue
            FROM lineitem
            WHERE l_shipdate < TIMESTAMP '1996-01-01' AND l_discount > 0.05
        """,
        "q03_segment_orders": """
            SELECT c_mktsegment, count(*) AS order_count,
                   CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT))
                        AS BIGINT) AS total_price_cents
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment
        """,
        "q04_top_orders": """
            SELECT o_orderkey, o_totalprice FROM orders
            ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
        """,
        "q05_region_customers": """
            SELECT r_name, count(*) AS customers
            FROM customer
            JOIN nation ON c_nationkey = n_nationkey
            JOIN region ON n_regionkey = r_regionkey
            GROUP BY r_name
        """,
        "q06_event_type_stats": """
            SELECT event_type, count(*) AS events,
                   count(DISTINCT user_id) AS users,
                   CAST(sum(CAST(round(value * 100) AS BIGINT))
                        AS BIGINT) AS total_value_cents
            FROM events GROUP BY event_type
        """,
        # mean in exact 1e-4 units, integer half-up: a float avg()
        # drifted past the round boundary at sf0.1 AND one user's true
        # mean is exactly x.xxxx5 where numpy/DuckDB rounding modes
        # disagree — no float ever forms here
        "q07_user_activity": """
            SELECT user_id, count(*) AS events,
                   CAST((200 * sum(CAST(round(value * 100) AS BIGINT))
                         + count(*)) // (2 * count(*))
                        AS BIGINT) AS avg_e4
            FROM events GROUP BY user_id
        """,
        "q08_events_hourly": """
            SELECT strftime(ts, '%Y-%m-%d %H:00:00') AS hour,
                   count(*) AS events
            FROM events GROUP BY 1
        """,
        "q09_priority_month": """
            SELECT o_orderpriority, strftime(o_orderdate, '%Y-%m') AS month,
                   count(*) AS n_orders
            FROM orders GROUP BY 1, 2
        """,
        "q10_supplier_balance": """
            SELECT n_name,
                   CAST(sum(CAST(round(s_acctbal * 100) AS BIGINT))
                        AS BIGINT) AS total_bal_cents,
                   count(*) AS suppliers
            FROM supplier JOIN nation ON s_nationkey = n_nationkey
            GROUP BY n_name
        """,
        "q11_minmax_part": """
            SELECT p_brand,
                   CAST(min(CAST(round(p_retailprice * 100) AS BIGINT))
                        AS BIGINT) AS min_price_cents,
                   CAST(max(CAST(round(p_retailprice * 100) AS BIGINT))
                        AS BIGINT) AS max_price_cents,
                   CAST((20000 * sum(CAST(p_size AS BIGINT)) + count(*))
                        // (2 * count(*)) AS BIGINT) AS avg_size_e4,
                   count(*) AS parts
            FROM part GROUP BY p_brand
        """,
        "q12_distinct_types": """
            SELECT DISTINCT p_type FROM part ORDER BY p_type
        """,
        "q13_union_priority": """
            SELECT o_orderpriority, count(*) AS n_orders FROM (
              SELECT o_orderpriority FROM orders
              WHERE o_orderpriority = '1-URGENT'
              UNION ALL
              SELECT o_orderpriority FROM orders
              WHERE o_orderpriority = '2-HIGH'
            ) GROUP BY o_orderpriority ORDER BY o_orderpriority
        """,
        "q14_top_customer_per_nation": """
            SELECT c_nationkey, c_custkey, c_acctbal FROM (
              SELECT c_nationkey, c_custkey, c_acctbal,
                     row_number() OVER (
                       PARTITION BY c_nationkey
                       ORDER BY c_acctbal DESC, c_custkey) AS rn
              FROM customer
            ) WHERE rn = 1 ORDER BY c_nationkey
        """,
        "q15_active_users": """
            SELECT user_id, count(*) AS events,
                   CAST(sum(CAST(round(value * 100) AS BIGINT))
                        AS BIGINT) AS total_value_cents
            FROM events GROUP BY user_id
            HAVING count(*) >= 60
            ORDER BY user_id
        """,
        "q16_event_quantiles": """
            SELECT event_type,
                   quantile_disc(value, 0.5) AS p50,
                   quantile_disc(value, 0.9) AS p90
            FROM events GROUP BY event_type ORDER BY event_type
        """,
        "q17_order_lineitem_join": """
            SELECT o.o_orderkey, o.o_orderpriority,
                   count(*) AS items,
                   round(sum(l.l_quantity), 2) AS sum_qty
            FROM orders o JOIN lineitem l ON l.l_orderkey = o.o_orderkey
            GROUP BY o.o_orderkey, o.o_orderpriority
            ORDER BY o.o_orderkey
        """,
        "q18_customers_without_orders": """
            SELECT c_custkey, c_name, c_acctbal
            FROM customer c
            WHERE NOT EXISTS (
              SELECT 1 FROM orders o
              WHERE o.o_custkey = c.c_custkey
                AND o.o_totalprice > 400000)
        """,
        "q19_top2_orders_per_customer": """
            SELECT o_custkey, o_orderkey, o_totalprice, rn FROM (
              SELECT o_custkey, o_orderkey, o_totalprice,
                     row_number() OVER (
                       PARTITION BY o_custkey
                       ORDER BY o_totalprice DESC, o_orderkey) AS rn
              FROM orders
            ) WHERE rn <= 2
        """,
        "q20_user_event_window": """
            SELECT event_id, user_id,
                   max(value) OVER (
                     PARTITION BY user_id ORDER BY ts, event_id
                     ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
                       AS rolling3_max,
                   CAST(coalesce(date_diff('microsecond',
                       lag(ts) OVER (PARTITION BY user_id
                                     ORDER BY ts, event_id), ts),
                       -1) AS BIGINT) AS gap_us
            FROM events
        """,
        "q21_event_props_stats": r"""
            SELECT event_type,
                   count(*) AS events,
                   CAST(sum(CAST(regexp_extract(props, '"k":\s*(-?\d+)', 1)
                        AS BIGINT)) AS BIGINT) AS sum_k,
                   max(CAST(regexp_extract(props, '"k":\s*(-?\d+)', 1)
                        AS BIGINT)) AS max_k
            FROM events
            WHERE regexp_extract(props, '"k":\s*(-?\d+)', 1) <> ''
            GROUP BY event_type
        """,
        "events_sessionize": """
            SELECT user_id, session_seq,
                   min(ts) AS session_start, max(ts) AS session_end,
                   count(*) AS events,
                   CAST(sum(CAST(round(value * 100) AS BIGINT))
                        AS BIGINT) AS total_value_cents
            FROM (
              SELECT user_id, ts, value,
                     CAST(sum(new_sess) OVER (
                       PARTITION BY user_id ORDER BY ts
                       ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_seq
              FROM (
                SELECT user_id, ts, value,
                       CASE WHEN lag(ts) OVER w IS NULL
                              OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                            THEN 1 ELSE 0 END AS new_sess
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts))
            ) GROUP BY user_id, session_seq
        """,
        "events_tumbling": """
            SELECT user_id,
                   time_bucket(INTERVAL 60 MINUTE, ts) AS window_start,
                   count(*) AS events,
                   CAST(sum(CAST(round(value * 100) AS BIGINT))
                        AS BIGINT) AS total_value_cents
            FROM events GROUP BY 1, 2
        """,
        "events_hopping": """
            SELECT user_id, window_start, count(*) AS events,
                   CAST(sum(CAST(round(value * 100) AS BIGINT))
                        AS BIGINT) AS total_value_cents
            FROM (
              SELECT user_id, value,
                     time_bucket(INTERVAL 30 MINUTE, ts)
                       - (j * INTERVAL 30 MINUTE) AS window_start
              FROM events CROSS JOIN (SELECT unnest([0, 1]) AS j)
            ) GROUP BY user_id, window_start
        """,
        "asof_event_order": """
            SELECT event_id, user_id, o_orderkey, o_orderdate FROM (
              SELECT e.event_id, e.user_id, o.o_orderkey, o.o_orderdate,
                     row_number() OVER (
                       PARTITION BY e.event_id
                       ORDER BY o.o_orderdate DESC, o.o_orderkey DESC) AS rn
              FROM events e
              JOIN orders o
                ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ts
            ) WHERE rn = 1
        """,
        # FORWARD as-of within the stream: next purchase strictly after
        # each event in (ts, event_id) order; -1 sentinels, exact us
        "next_purchase_event": """
            WITH s AS (
              SELECT event_id, user_id, event_type,
                     epoch_us(ts) AS us,
                     row_number() OVER (
                       PARTITION BY user_id ORDER BY ts, event_id)
                         AS rn
              FROM events
            ),
            nx AS (
              SELECT event_id, user_id, us, rn,
                     min(CASE WHEN event_type = 'purchase'
                              THEN rn END) OVER (
                       PARTITION BY user_id ORDER BY rn
                       ROWS BETWEEN 1 FOLLOWING
                            AND UNBOUNDED FOLLOWING) AS prn
              FROM s
            )
            SELECT n.event_id, n.user_id,
                   coalesce(p.event_id, -1) AS next_purchase_id,
                   coalesce(p.us - n.us, -1) AS gap_us
            FROM nx n LEFT JOIN s p
              ON p.user_id = n.user_id AND p.rn = n.prn
        """,
        # ordered conversion funnel: each stage strictly after the
        # previous stage's first completion; times as BIGINT epoch-us
        # (-1 = unreached) so the hash compares exact integers
        "event_funnel": """
            WITH e AS (
              SELECT user_id, ts, event_type FROM events
              WHERE event_type IN ('view', 'click', 'purchase')
            ),
            v AS (SELECT user_id, min(ts) AS t1 FROM e
                  WHERE event_type = 'view' GROUP BY user_id),
            c AS (SELECT e.user_id, min(e.ts) AS t2
                  FROM e JOIN v USING (user_id)
                  WHERE e.event_type = 'click' AND e.ts > v.t1
                  GROUP BY e.user_id),
            p AS (SELECT e.user_id, min(e.ts) AS t3
                  FROM e JOIN c USING (user_id)
                  WHERE e.event_type = 'purchase' AND e.ts > c.t2
                  GROUP BY e.user_id),
            u AS (SELECT DISTINCT user_id FROM events)
            SELECT u.user_id,
                   CAST(CASE WHEN t3 IS NOT NULL THEN 3
                             WHEN t2 IS NOT NULL THEN 2
                             WHEN t1 IS NOT NULL THEN 1
                             ELSE 0 END AS BIGINT) AS stage,
                   COALESCE(epoch_us(t1), -1) AS t_view_us,
                   COALESCE(epoch_us(t2), -1) AS t_click_us,
                   COALESCE(epoch_us(t3), -1) AS t_purchase_us
            FROM u LEFT JOIN v USING (user_id)
                   LEFT JOIN c USING (user_id)
                   LEFT JOIN p USING (user_id)
        """,
        # cohort = a user's first active day (epoch days); count of
        # distinct users active at each day offset from their cohort
        "cohort_retention": """
            WITH ud AS (
              SELECT DISTINCT user_id,
                     CAST(epoch_us(date_trunc('day', ts)) // 86400000000
                          AS BIGINT) AS day
              FROM events
            ),
            coh AS (SELECT user_id, min(day) AS cohort_day
                    FROM ud GROUP BY user_id)
            SELECT c.cohort_day, ud.day - c.cohort_day AS offset_day,
                   CAST(count(*) AS BIGINT) AS active_users
            FROM ud JOIN coh c USING (user_id)
            GROUP BY 1, 2
        """,
        # global ordered prefix sums as exact integer cents (value is
        # 2-decimal by construction; round(v*100) is integral both sides)
        # union of [ts, ts+5min) intervals per user, exact us
        "user_active_coverage": """
            WITH e AS (
              SELECT user_id, epoch_us(ts) AS t FROM events
            ),
            s AS (
              SELECT user_id, t,
                     lead(t) OVER (PARTITION BY user_id
                                   ORDER BY t) AS nt
              FROM e
            )
            SELECT user_id,
                   CAST(sum(CASE WHEN nt IS NULL THEN 300000000
                            ELSE least(300000000, nt - t) END)
                        AS BIGINT) AS covered_us
            FROM s GROUP BY 1
        """,
        # exact trailing-7-day distinct users per observed day
        "rolling_distinct_users": """
            WITH e AS (
              SELECT DISTINCT
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                     user_id
              FROM events
            ),
            days AS (SELECT DISTINCT day FROM e)
            SELECT d.day,
                   CAST(count(DISTINCT e.user_id) AS BIGINT)
                       AS distinct_users
            FROM days d JOIN e
              ON e.day BETWEEN d.day - 6 AND d.day
            GROUP BY 1
        """,
        "running_total": """
            WITH c AS (
              SELECT event_id, ts,
                     CAST(round(value * 100) AS BIGINT) AS cents
              FROM events
            )
            SELECT event_id,
                   CAST(row_number() OVER w AS BIGINT) AS rn,
                   CAST(sum(cents) OVER w AS BIGINT) AS running_cents
            FROM c WINDOW w AS (ORDER BY ts, event_id)
        """,
        # symmetric temporal range join (LEFT semantics: 0 when no order
        # falls in the ±7-day window)
        "range_join_orders": """
            SELECT e.event_id,
                   CAST(count(o.o_custkey) AS BIGINT) AS n_orders_7d
            FROM events e
            LEFT JOIN orders o
              ON o.o_custkey = e.user_id
             AND o.o_orderdate BETWEEN e.ts - INTERVAL 7 DAY
                                   AND e.ts + INTERVAL 7 DAY
            GROUP BY e.event_id
        """,
        # semi-join against the computed global top-100 orders
        "top_order_lineitems": """
            WITH top AS (
              SELECT o_orderkey FROM orders
              ORDER BY o_totalprice DESC, o_orderkey LIMIT 100
            )
            SELECT l.l_orderkey, count(*) AS n_items,
                   CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT)
                       AS sum_qty
            FROM lineitem l JOIN top t ON l.l_orderkey = t.o_orderkey
            GROUP BY 1
        """,
        # chained star join lineitem -> supplier -> nation -> region
        "region_flag_revenue": """
            SELECT r.r_name, l.l_returnflag,
                   round(sum(l.l_extendedprice * (1 - l.l_discount)), 2)
                       AS revenue,
                   count(*) AS n_items
            FROM lineitem l
            JOIN supplier s ON s.s_suppkey = l.l_suppkey
            JOIN nation n ON n.n_nationkey = s.s_nationkey
            JOIN region r ON r.r_regionkey = n.n_regionkey
            GROUP BY 1, 2
        """,
        # FULL OUTER JOIN of two aggregates, expressed join-free
        "user_order_event_ratio": """
            WITH e AS (SELECT user_id, count(*) AS n_events
                       FROM events GROUP BY user_id),
                 o AS (SELECT o_custkey AS user_id, count(*) AS n_orders
                       FROM orders GROUP BY o_custkey)
            SELECT COALESCE(e.user_id, o.user_id) AS user_id,
                   COALESCE(e.n_events, 0) AS n_events,
                   COALESCE(o.n_orders, 0) AS n_orders
            FROM e FULL OUTER JOIN o ON e.user_id = o.user_id
        """,
        # first-touch attribution: earliest view in [purchase-30d,
        # purchase), ties by event_id; -1 (BIGINT) = unattributed
        "linear_attribution": """
            WITH v AS (
              SELECT user_id, event_id, epoch_us(ts) AS t
              FROM events WHERE event_type = 'view'
            ),
            p AS (
              SELECT user_id, event_id, epoch_us(ts) AS t
              FROM events WHERE event_type = 'purchase'
            ),
            j AS (
              SELECT p.event_id AS pid, v.event_id AS vid,
                     count(*) OVER (PARTITION BY p.event_id) AS n,
                     row_number() OVER (
                         PARTITION BY p.event_id
                         ORDER BY v.t, v.event_id) AS rn
              FROM p JOIN v
                ON v.user_id = p.user_id
               AND v.t >= p.t - 30 * 86400000000
               AND v.t < p.t
            )
            SELECT pid AS purchase_event_id,
                   vid AS touch_event_id,
                   CAST(1000000 // n
                        + CASE WHEN rn = 1 THEN 1000000 % n
                          ELSE 0 END AS BIGINT) AS credit_ppm
            FROM j
            UNION ALL
            SELECT p.event_id, CAST(-1 AS BIGINT),
                   CAST(1000000 AS BIGINT)
            FROM p
            WHERE NOT EXISTS (
              SELECT 1 FROM v
              WHERE v.user_id = p.user_id
                AND v.t >= p.t - 30 * 86400000000 AND v.t < p.t
            )
        """,
        "first_touch_attribution": """
            WITH v AS (SELECT user_id, event_id, ts FROM events
                       WHERE event_type = 'view'),
                 p AS (SELECT user_id, event_id, ts FROM events
                       WHERE event_type = 'purchase'),
                 j AS (
                   SELECT p.event_id AS pid, v.event_id AS tid,
                          v.ts AS tts,
                          row_number() OVER (
                            PARTITION BY p.event_id
                            ORDER BY v.ts, v.event_id) AS rn
                   FROM p JOIN v
                     ON v.user_id = p.user_id
                    AND v.ts >= p.ts - INTERVAL 30 DAY AND v.ts < p.ts
                 )
            SELECT p.event_id,
                   COALESCE(j.tid, -1) AS touch_event_id,
                   COALESCE(epoch_us(j.tts), -1) AS touch_ts_us
            FROM p LEFT JOIN j ON j.pid = p.event_id AND j.rn = 1
        """,
        # overlapping token-window chunking (size 64, stride 48); chunk
        # text is the single-space token join on both sides
        "chunk_documents": r"""
            WITH t AS (
              SELECT doc_id,
                     list_filter(string_split_regex(trim(lower(text)),
                                                    '\s+'),
                                 x -> x <> '') AS toks
              FROM documents
            ),
            st AS (
              SELECT doc_id, toks, len(toks) AS n,
                     unnest(generate_series(
                         0, greatest(len(toks) - 1, 0), 48)) AS s
              FROM t
            )
            SELECT doc_id,
                   CAST(s // 48 AS BIGINT) AS chunk_id,
                   CAST(least(n - s, 64) AS BIGINT) AS n_tokens,
                   array_to_string(
                       list_slice(toks, CAST(s + 1 AS INT),
                                  CAST(least(s + 64, n) AS INT)),
                       ' ') AS chunk_text
            FROM st
        """,
        # exact corpus-wide distinct word trigrams (companion to the KMV
        # approximate sketch); tokenization shared with repetition_stats
        "distinct_trigram_count": r"""
            WITH t AS (
              SELECT doc_id,
                     list_filter(string_split_regex(trim(lower(text)),
                                                    '\s+'),
                                 x -> x <> '') AS toks
              FROM documents
            ),
            g AS (
              SELECT toks[CAST(i AS INT)] || ' '
                     || toks[CAST(i AS INT) + 1] || ' '
                     || toks[CAST(i AS INT) + 2] AS g
              FROM (SELECT toks,
                           unnest(generate_series(1, len(toks) - 2)) AS i
                    FROM t WHERE len(toks) >= 3)
            )
            SELECT CAST(count(DISTINCT g) AS BIGINT) AS n_distinct,
                   CAST(count(*) AS BIGINT) AS n_total
            FROM g
        """,
        # iceberg / HAVING heavy hitters over the same trigram CTE
        "frequent_trigrams": r"""
            WITH t AS (
              SELECT doc_id,
                     list_filter(string_split_regex(trim(lower(text)),
                                                    '\s+'),
                                 x -> x <> '') AS toks
              FROM documents
            ),
            g AS (
              SELECT toks[CAST(i AS INT)] || ' '
                     || toks[CAST(i AS INT) + 1] || ' '
                     || toks[CAST(i AS INT) + 2] AS gram
              FROM (SELECT toks,
                           unnest(generate_series(1, len(toks) - 2)) AS i
                    FROM t WHERE len(toks) >= 3)
            )
            SELECT gram, count(*) AS n
            FROM g GROUP BY gram HAVING count(*) >= 5
        """,
        # WITH ORDINALITY token explode on the shared whitespace split
        # chunk k covers tokens [24k, 24k+32); the last chunk is the
        # first whose window reaches the end (n_chunks = 1 +
        # ceil(max(nt-32,0)/24)); empty docs emit nothing
        "text_chunk_windows": r"""
            WITH t AS (
              SELECT doc_id,
                     list_filter(string_split_regex(trim(text), '\s+'),
                                 x -> x <> '') AS ts
              FROM documents
            ),
            n AS (
              SELECT doc_id, ts, len(ts) AS nt FROM t WHERE len(ts) >= 1
            ),
            ch AS (
              SELECT doc_id, ts, nt,
                     unnest(range(0,
                       1 + greatest(0, (nt - 32 + 23) // 24))) AS k
              FROM n
            )
            SELECT doc_id, k AS chunk_idx, k * 24 AS start_tok,
                   least(nt - k * 24, 32) AS n_tokens,
                   array_to_string(
                     list_slice(ts, k * 24 + 1, k * 24 + 32), ' ')
                     AS chunk_text
            FROM ch
        """,
        "token_explode": r"""
            WITH t AS (
              SELECT doc_id,
                     list_filter(string_split_regex(trim(lower(text)),
                                                    '\s+'),
                                 x -> x <> '') AS toks
              FROM documents
            )
            SELECT doc_id,
                   CAST(i AS BIGINT) AS pos,
                   toks[CAST(i AS INT)] AS token
            FROM (SELECT doc_id, toks,
                         unnest(generate_series(1, len(toks))) AS i
                  FROM t WHERE len(toks) >= 1)
        """,
        # cosine radius query vs vec 0; filter on the raw sim, emit
        # round(, 4) like embedding_dup_pairs
        "ann_range_search": """
            SELECT vec_id,
                   round(list_cosine_similarity(
                       CAST(embedding AS DOUBLE[]),
                       (SELECT CAST(embedding AS DOUBLE[]) FROM embeddings
                        WHERE vec_id = 0)), 4) AS sim
            FROM embeddings
            WHERE vec_id <> 0
              AND list_cosine_similarity(
                    CAST(embedding AS DOUBLE[]),
                    (SELECT CAST(embedding AS DOUBLE[]) FROM embeddings
                     WHERE vec_id = 0)) >= 0.2
        """,
        # int8 scalar quantization: per-dim global max-|x| scales,
        # half-up rounding in both engines, integer checksums per vector
        "embedding_quantize": """
            WITH u AS (
              SELECT vec_id, unnest(CAST(embedding AS DOUBLE[])) AS x,
                     unnest(generate_series(1, len(embedding))) AS dim
              FROM embeddings
            ),
            s AS (SELECT dim, max(abs(x)) AS s FROM u GROUP BY dim),
            c AS (
              SELECT u.vec_id,
                     CASE WHEN s.s = 0 THEN 0
                          ELSE CAST(floor(u.x * 127 / s.s + 0.5)
                                    AS BIGINT) END AS code
              FROM u JOIN s USING (dim)
            )
            SELECT vec_id, CAST(sum(code) AS BIGINT) AS code_sum,
                   CAST(sum(abs(code)) AS BIGINT) AS code_l1
            FROM c GROUP BY vec_id
        """,
        # exact int64 Gram over the SAME quantize codes (PCA stats)
        "embedding_covariance": """
            WITH u AS (
              SELECT vec_id, unnest(CAST(embedding AS DOUBLE[])) AS x,
                     unnest(generate_series(1, len(embedding))) AS dim
              FROM embeddings
            ),
            s AS (SELECT dim, max(abs(x)) AS s FROM u GROUP BY dim),
            c AS (
              SELECT u.vec_id, u.dim,
                     CASE WHEN s.s = 0 THEN 0
                          ELSE CAST(floor(u.x * 127 / s.s + 0.5)
                                    AS BIGINT) END AS code
              FROM u JOIN s USING (dim)
            )
            SELECT a.dim AS di, b.dim AS dj,
                   CAST(sum(a.code * b.code) AS BIGINT) AS s,
                   CAST(count(*) AS BIGINT) AS n
            FROM c a JOIN c b USING (vec_id)
            WHERE a.dim <= b.dim
            GROUP BY a.dim, b.dim
        """,
        # TPC-H Q5-shaped 5-table composition; month as yyyymm BIGINT;
        # revenue in exact 1e-4-dollar ints (cents x (100 - disc_pct)) —
        # float sums were measured landing ON the half-cent boundary
        "q22_region_monthly_revenue": """
            SELECT r.r_name,
                   CAST(year(o.o_orderdate) * 100 + month(o.o_orderdate)
                        AS BIGINT) AS month,
                   CAST(sum(CAST(round(l.l_extendedprice * 100)
                                 AS BIGINT)
                            * (100 - CAST(round(l.l_discount * 100)
                                          AS BIGINT)))
                        AS BIGINT) AS revenue_e4,
                   count(*) AS n_items
            FROM lineitem l
            JOIN orders o ON o.o_orderkey = l.l_orderkey
            JOIN customer c ON c.c_custkey = o.o_custkey
            JOIN nation n ON n.n_nationkey = c.c_nationkey
            JOIN region r ON r.r_regionkey = n.n_regionkey
            GROUP BY 1, 2
        """,
        # decorrelated scalar subquery with an EXACT integer-cross-
        # multiplied boundary (prices are 2-decimal): cents*n > sum_cents
        "above_avg_parts": """
            WITH s AS (
              SELECT sum(CAST(round(p_retailprice * 100) AS BIGINT))
                         AS sum_cents,
                     count(*) AS n
              FROM part
            )
            SELECT p.p_partkey, p.p_name, p.p_retailprice
            FROM part p, s
            WHERE CAST(round(p.p_retailprice * 100) AS BIGINT) * s.n
                  > s.sum_cents
        """,
        # bloom-prefiltered semi-join (exact: in-shard merge discards
        # bloom false positives)
        "bloom_semi_join": """
            SELECT l.l_orderkey, count(*) AS n_items,
                   CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT)
                       AS sum_qty
            FROM lineitem l
            WHERE l.l_orderkey IN (
              SELECT o_orderkey FROM orders
              WHERE o_orderpriority = '1-URGENT')
            GROUP BY 1
        """,
        # DISTINCT ON (user, day): the user-day's argmin-(ts, event_id)
        # event; integers + the raw type string, no floats
        "first_event_per_user_day": """
            SELECT user_id, day, first_event_id, first_ts_us, first_type
            FROM (
              SELECT user_id,
                     epoch_us(ts) // 86400000000 AS day,
                     event_id AS first_event_id,
                     epoch_us(ts) AS first_ts_us,
                     event_type AS first_type,
                     row_number() OVER (
                       PARTITION BY user_id,
                                    epoch_us(ts) // 86400000000
                       ORDER BY ts, event_id) AS rn
              FROM events
            ) WHERE rn = 1
        """,
        # PERCENTILE_CONT(0.5): explicit index-select + interpolation,
        # the same two elements the engine's distributed plan picks
        "median_value_cont": """
            WITH s AS (
              SELECT event_type, value,
                     row_number() OVER (
                       PARTITION BY event_type ORDER BY value) - 1
                         AS idx,
                     count(*) OVER (PARTITION BY event_type) AS n
              FROM events
            )
            SELECT event_type, CAST(max(n) AS BIGINT) AS n,
                   round(avg(value), 4) AS median_value
            FROM s
            WHERE idx = (n - 1) // 2 OR idx = n // 2
            GROUP BY event_type
        """,
        # Pearson r from EXACT integer moments (the engine's limb-split
        # sums reassemble to the same HUGEINTs), float only at the end
        "corr_quantity_price": """
            WITH b AS (
              SELECT l_returnflag,
                     CAST(l_quantity AS BIGINT) AS q,
                     CAST(round(l_extendedprice * 100) AS BIGINT) AS p
              FROM lineitem
            ), m AS (
              SELECT l_returnflag, count(*) AS n,
                     sum(q) AS sx, sum(p) AS sy,
                     sum(q * q) AS sxx, sum(q * p) AS sxy,
                     sum(p * p) AS syy
              FROM b GROUP BY l_returnflag
            )
            SELECT l_returnflag, CAST(n AS BIGINT) AS n,
                   round(CAST(n * sxy - sx * sy AS DOUBLE)
                         / sqrt(CAST(n * sxx - sx * sx AS DOUBLE)
                                * CAST(n * syy - sy * sy AS DOUBLE)),
                         6) AS corr_qty_price
            FROM m
        """,
        # REGR_SLOPE/REGR_INTERCEPT family via exact integer moments:
        # identical final double formula both sides (corr pattern)
        "regr_price_on_quantity": """
            WITH b AS (
              SELECT l_returnflag,
                     CAST(l_quantity AS BIGINT) AS q,
                     CAST(round(l_extendedprice * 100) AS BIGINT) AS p
              FROM lineitem
            ), m AS (
              SELECT l_returnflag, count(*) AS n,
                     sum(q) AS sx, sum(p) AS sy,
                     sum(q * q) AS sxx, sum(q * p) AS sxy
              FROM b GROUP BY l_returnflag
            )
            SELECT l_returnflag, CAST(n AS BIGINT) AS n,
                   round(CAST(n * sxy - sx * sy AS DOUBLE)
                         / CAST(n * sxx - sx * sx AS DOUBLE), 6)
                       AS slope_cents_per_qty,
                   round(CAST(sy * sxx - sx * sxy AS DOUBLE)
                         / CAST(n * sxx - sx * sx AS DOUBLE), 6)
                       AS intercept_cents
            FROM m
        """,
        # EXCEPT / self-anti-semi at (user, day) grain: view-days with
        # no purchase that day (user-level is vacuously empty here)
        # FULL OUTER join of (user, day) aggregates, absent sides = 0
        "full_outer_user_day": """
            WITH o AS (
              SELECT o_custkey AS user_id,
                     CAST(epoch_us(o_orderdate) // 86400000000
                          AS BIGINT) AS day,
                     CAST(count(*) AS BIGINT) AS n_orders,
                     CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT))
                          AS BIGINT) AS order_cents
              FROM orders GROUP BY 1, 2
            ),
            e AS (
              SELECT user_id,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                     CAST(count(*) AS BIGINT) AS n_events,
                     CAST(sum(CAST(round(value * 100) AS BIGINT))
                          AS BIGINT) AS event_cents
              FROM events GROUP BY 1, 2
            )
            SELECT user_id, day,
                   CAST(COALESCE(n_orders, 0) AS BIGINT) AS n_orders,
                   CAST(COALESCE(order_cents, 0) AS BIGINT)
                       AS order_cents,
                   CAST(COALESCE(n_events, 0) AS BIGINT) AS n_events,
                   CAST(COALESCE(event_cents, 0) AS BIGINT)
                       AS event_cents
            FROM o FULL OUTER JOIN e USING (user_id, day)
        """,
        # Morton-interleave layout stats; code = 16 div/mod terms
        "table_diff_audit": """
            WITH v1 AS (
              SELECT o_orderkey AS key,
                     CAST(round(o_totalprice * 100) AS BIGINT) AS cents
              FROM orders
            ),
            v2 AS (
              SELECT key,
                     cents + CAST(key % 31 = 0 AS BIGINT) AS cents
              FROM v1 WHERE key % 97 <> 0
              UNION ALL
              SELECT key + 1000000000000 AS key, cents
              FROM v1 WHERE key % 41 = 0
            ),
            j AS (
              SELECT v1.cents AS c1, v2.cents AS c2
              FROM v1 FULL OUTER JOIN v2 USING (key)
            )
            SELECT
              CAST(count(*) FILTER (WHERE c1 = c2) AS BIGINT)
                  AS n_unchanged,
              CAST(count(*) FILTER (WHERE c1 IS NOT NULL
                                      AND c2 IS NOT NULL
                                      AND c1 <> c2) AS BIGINT)
                  AS n_modified,
              CAST(count(*) FILTER (WHERE c2 IS NULL) AS BIGINT)
                  AS n_deleted,
              CAST(count(*) FILTER (WHERE c1 IS NULL) AS BIGINT)
                  AS n_added
            FROM j
        """,
        "seasonal_profile": """
            WITH g AS (
              SELECT CAST(isodow(ts) - 1 AS BIGINT) AS dow,
                     CAST(hour(ts) AS BIGINT) AS hour,
                     CAST(count(*) AS BIGINT) AS n
              FROM events GROUP BY 1, 2
            ),
            t AS (SELECT CAST(sum(n) AS BIGINT) AS total FROM g)
            SELECT dow, hour, n,
                   CAST(n * 1000000 // greatest(t.total, 1)
                        AS BIGINT) AS share_ppm
            FROM g, t
        """,
        "weekly_churn": """
            WITH uw AS (
              SELECT DISTINCT user_id,
                     CAST(epoch_us(ts) // 604800000000 AS BIGINT)
                         AS week
              FROM events
            ),
            rng AS (
              SELECT CAST(min(week) AS BIGINT) AS lo,
                     CAST(max(week) AS BIGINT) AS hi
              FROM uw
            ),
            weeks AS (
              SELECT unnest(generate_series(rng.lo, rng.hi - 1))
                         AS week
              FROM rng
            )
            SELECT w.week,
                   CAST((SELECT count(*) FROM uw
                         WHERE uw.week = w.week) AS BIGINT)
                       AS n_active,
                   CAST((SELECT count(*) FROM uw a JOIN uw b
                         ON a.user_id = b.user_id
                         AND a.week = w.week
                         AND b.week = w.week + 1) AS BIGINT)
                       AS n_retained,
                   CAST((SELECT count(*) FROM uw a
                         WHERE a.week = w.week AND NOT EXISTS (
                           SELECT 1 FROM uw b
                           WHERE b.user_id = a.user_id
                             AND b.week = w.week + 1)) AS BIGINT)
                       AS n_churned,
                   CAST((SELECT count(*) FROM uw b
                         WHERE b.week = w.week + 1 AND NOT EXISTS (
                           SELECT 1 FROM uw a
                           WHERE a.user_id = b.user_id
                             AND a.week = w.week)) AS BIGINT)
                       AS n_new
            FROM weeks w
        """,
        "session_duration_quantiles": """
            WITH s AS (
              SELECT user_id, epoch_us(ts) AS us,
                     CASE WHEN epoch_us(ts)
                               - lag(epoch_us(ts)) OVER (
                                   PARTITION BY user_id ORDER BY ts,
                                   event_id) > 1800000000
                          OR lag(epoch_us(ts)) OVER (
                                   PARTITION BY user_id ORDER BY ts,
                                   event_id) IS NULL
                          THEN 1 ELSE 0 END AS new_s
              FROM events
            ),
            lab AS (
              SELECT user_id, us,
                     sum(new_s) OVER (
                       PARTITION BY user_id ORDER BY us
                       ROWS BETWEEN UNBOUNDED PRECEDING
                                AND CURRENT ROW) AS sid
              FROM s
            ),
            d AS (
              SELECT CAST(max(us) - min(us) AS BIGINT) AS dur_us
              FROM lab GROUP BY user_id, sid
            )
            SELECT CAST(count(*) AS BIGINT) AS n_sessions,
                   CAST(quantile_disc(dur_us, 0.5) AS BIGINT)
                       AS p50_us,
                   CAST(quantile_disc(dur_us, 0.9) AS BIGINT)
                       AS p90_us,
                   CAST(quantile_disc(dur_us, 0.99) AS BIGINT)
                       AS p99_us,
                   CAST(max(dur_us) AS BIGINT) AS max_us
            FROM d
        """,
        "markov_stationary": """
            WITH s AS (
              SELECT event_type,
                     lag(event_type) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id)
                         AS prev
              FROM events
            ),
            t AS (
              SELECT prev AS ft, event_type AS tt,
                     CAST(count(*) AS BIGINT) AS c
              FROM s WHERE prev IS NOT NULL GROUP BY 1, 2
            ),
            r AS (SELECT ft, CAST(sum(c) AS BIGINT) AS rs
                  FROM t GROUP BY 1),
            tm AS (SELECT t.ft, t.tt, t.c, r.rs
                   FROM t JOIN r USING (ft)),
            st AS (SELECT ft AS state FROM t
                   UNION SELECT tt FROM t),
            p0 AS (SELECT state, CAST(1000000 AS BIGINT) AS mass
                   FROM st),
            p1 AS (
              SELECT tm.tt AS state,
                     CAST(sum(p0.mass * tm.c // tm.rs) AS BIGINT)
                         AS mass
              FROM p0 JOIN tm ON tm.ft = p0.state GROUP BY 1
            ),
            p2 AS (
              SELECT tm.tt AS state,
                     CAST(sum(p1.mass * tm.c // tm.rs) AS BIGINT)
                         AS mass
              FROM p1 JOIN tm ON tm.ft = p1.state GROUP BY 1
            ),
            p3 AS (
              SELECT tm.tt AS state,
                     CAST(sum(p2.mass * tm.c // tm.rs) AS BIGINT)
                         AS mass
              FROM p2 JOIN tm ON tm.ft = p2.state GROUP BY 1
            ),
            p4 AS (
              SELECT tm.tt AS state,
                     CAST(sum(p3.mass * tm.c // tm.rs) AS BIGINT)
                         AS mass
              FROM p3 JOIN tm ON tm.ft = p3.state GROUP BY 1
            ),
            p5 AS (
              SELECT tm.tt AS state,
                     CAST(sum(p4.mass * tm.c // tm.rs) AS BIGINT)
                         AS mass
              FROM p4 JOIN tm ON tm.ft = p4.state GROUP BY 1
            ),
            p6 AS (
              SELECT tm.tt AS state,
                     CAST(sum(p5.mass * tm.c // tm.rs) AS BIGINT)
                         AS mass
              FROM p5 JOIN tm ON tm.ft = p5.state GROUP BY 1
            ),
            p7 AS (
              SELECT tm.tt AS state,
                     CAST(sum(p6.mass * tm.c // tm.rs) AS BIGINT)
                         AS mass
              FROM p6 JOIN tm ON tm.ft = p6.state GROUP BY 1
            ),
            p8 AS (
              SELECT tm.tt AS state,
                     CAST(sum(p7.mass * tm.c // tm.rs) AS BIGINT)
                         AS mass
              FROM p7 JOIN tm ON tm.ft = p7.state GROUP BY 1
            ),
            f AS (SELECT st.state, coalesce(p8.mass, 0) AS mass
                  FROM st LEFT JOIN p8 USING (state))
            SELECT state AS event_type, CAST(mass AS BIGINT) AS mass
            FROM f
        """,
        "user_growth_curve": """
            WITH f AS (
              SELECT user_id,
                     CAST(min(epoch_us(ts) // 86400000000) AS BIGINT)
                         AS day
              FROM events GROUP BY 1
            ),
            g AS (
              SELECT day, CAST(count(*) AS BIGINT) AS new_users
              FROM f GROUP BY 1
            )
            SELECT day, new_users,
                   CAST(sum(new_users) OVER (ORDER BY day
                        ROWS BETWEEN UNBOUNDED PRECEDING
                                 AND CURRENT ROW) AS BIGINT)
                       AS cum_users
            FROM g
        """,
        "late_event_audit": """
            WITH w AS (
              SELECT event_type,
                     CAST(epoch_us(ts) AS BIGINT) AS ts_us,
                     coalesce(max(epoch_us(ts)) OVER (
                         ORDER BY event_id % 16, event_id
                         ROWS BETWEEN UNBOUNDED PRECEDING
                                  AND 1 PRECEDING),
                       epoch_us(ts)) AS pm
              FROM events
            )
            SELECT event_type,
                   CAST(count(*) AS BIGINT) AS n_events,
                   CAST(count(*) FILTER (WHERE pm - ts_us
                                           > 86400000000) AS BIGINT)
                       AS n_late,
                   CAST(max(pm - ts_us) AS BIGINT) AS max_behind_us
            FROM w GROUP BY 1
        """,
        "latest_event_snapshot": """
            SELECT user_id, event_type,
                   CAST(epoch_us(ts) AS BIGINT) AS ts_us,
                   event_id,
                   CAST(round(value * 100) AS BIGINT) AS value_cents
            FROM events
            QUALIFY row_number() OVER (
                PARTITION BY user_id, event_type
                ORDER BY ts DESC, event_id DESC) = 1
        """,
        "hll_distinct": _hll_sql(),
        "hll_set_ops": _hll_set_ops_sql(),
        "bloom_fpr_audit": _bloom_sql(),
        "merge_upsert": """
            WITH v1 AS (
              SELECT o_orderkey AS key,
                     CAST(round(o_totalprice * 100) AS BIGINT) AS cents
              FROM orders
            )
            SELECT key,
                   CASE WHEN key % 37 = 0 THEN cents + 5
                        ELSE cents END AS cents
            FROM v1 WHERE key % 89 <> 0
            UNION ALL
            SELECT key + 2000000000000 AS key, cents + 1 AS cents
            FROM v1 WHERE key % 43 = 0
        """,
        "orders_sorted_export": """
            WITH c AS (
              SELECT o_orderkey,
                     CAST(round(o_totalprice * 100) AS BIGINT) AS cents
              FROM orders
            ),
            q AS (
              SELECT unnest(quantile_disc(cents,
                  [1/16.0, 2/16.0, 3/16.0, 4/16.0, 5/16.0, 6/16.0,
                   7/16.0, 8/16.0, 9/16.0, 10/16.0, 11/16.0, 12/16.0,
                   13/16.0, 14/16.0, 15/16.0])) AS b
              FROM c
            ),
            p AS (
              SELECT c.o_orderkey, c.cents,
                     CAST(count(*) FILTER (WHERE q.b < c.cents)
                          AS BIGINT) AS part_id
              FROM c CROSS JOIN q
              GROUP BY 1, 2
            )
            SELECT part_id, CAST(count(*) AS BIGINT) AS n_rows,
                   min(cents) AS min_cents, max(cents) AS max_cents
            FROM p GROUP BY 1
        """,
        "mv_delta_refresh": """
            SELECT CAST(epoch_us(o_orderdate) // 86400000000 AS BIGINT)
                       AS day,
                   CAST(count(*) AS BIGINT) AS n_orders,
                   CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT))
                        AS BIGINT) AS revenue_cents
            FROM orders GROUP BY 1
        """,
        "pii_pseudonymize": """
            WITH ev AS (
              SELECT DISTINCT user_id AS uid,
                     ('0x' || substr(md5(CAST(user_id AS VARCHAR)),
                                     1, 15))::BIGINT AS s
              FROM events
            ),
            oo AS (
              SELECT DISTINCT o_custkey AS uid,
                     ('0x' || substr(md5(CAST(o_custkey AS VARCHAR)),
                                     1, 15))::BIGINT AS s
              FROM orders
            ),
            ids AS (SELECT uid, s FROM ev UNION SELECT uid, s FROM oo)
            SELECT CAST((SELECT count(*) FROM ev) AS BIGINT)
                       AS n_ids_events,
                   CAST((SELECT count(*) FROM oo) AS BIGINT)
                       AS n_ids_orders,
                   CAST((SELECT count(*) FROM ev JOIN oo USING (uid))
                        AS BIGINT) AS n_ids_both,
                   CAST((SELECT count(DISTINCT s) FROM ids) AS BIGINT)
                       AS n_surrogates,
                   CAST((SELECT count(*) FROM ids) AS BIGINT)
                       - CAST((SELECT count(DISTINCT s) FROM ids)
                              AS BIGINT) AS n_collisions
        """,
        "contrastive_negatives": """
            WITH pos AS (
              SELECT DISTINCT o.o_custkey AS cust,
                              l.l_partkey AS part
              FROM orders o
              JOIN lineitem l ON l.l_orderkey = o.o_orderkey
            ),
            users AS (SELECT DISTINCT o_custkey AS cust FROM orders),
            np AS (SELECT CAST(count(*) AS BIGINT) AS n FROM part),
            cand AS (
              SELECT u.cust, j.j,
                     (u.cust * 31 + j.j * 17 + 7) % np.n AS part
              FROM users u,
                   (SELECT unnest(generate_series(0, 63)) AS j) j, np
            ),
            neg AS (
              SELECT cust, j, part,
                     row_number() OVER (PARTITION BY cust
                                        ORDER BY j) AS rk
              FROM cand c
              WHERE NOT EXISTS (SELECT 1 FROM pos p
                                WHERE p.cust = c.cust
                                  AND p.part = c.part)
            )
            SELECT cust AS user_id, CAST(rk - 1 AS BIGINT) AS neg_rank,
                   CAST(part AS BIGINT) AS part_id
            FROM neg WHERE rk <= 4
        """,
        "k_anonymity_audit": """
            WITH g AS (
              SELECT o_orderpriority, o_orderstatus,
                     CAST(epoch_us(o_orderdate) // 86400000000 // 30
                          AS BIGINT) AS mo,
                     CAST(count(*) AS BIGINT) AS n
              FROM orders GROUP BY 1, 2, 3
            ),
            ks AS (SELECT unnest([2, 5, 10]) AS k)
            SELECT CAST(k AS BIGINT) AS k,
                   CAST(count(*) AS BIGINT) AS n_groups,
                   CAST(count(*) FILTER (WHERE n < k) AS BIGINT)
                       AS n_groups_below,
                   CAST(coalesce(sum(n) FILTER (WHERE n < k), 0)
                        AS BIGINT) AS n_rows_at_risk
            FROM g CROSS JOIN ks GROUP BY 1
        """,
        "basket_size_hist": """
            WITH b AS (
              SELECT l_orderkey,
                     CAST(count(DISTINCT l_partkey) AS BIGINT)
                         AS basket_size
              FROM lineitem GROUP BY 1
            )
            SELECT basket_size,
                   CAST(count(*) AS BIGINT) AS n_orders
            FROM b GROUP BY 1
        """,
        "revenue_gini": """
            WITH rev AS (
              SELECT o_custkey AS cust,
                     CAST(sum(CAST(round(o_totalprice * 100)
                                   AS BIGINT)) AS BIGINT) AS cents
              FROM orders GROUP BY 1
            ),
            rk AS (
              SELECT cust, cents,
                     row_number() OVER (ORDER BY cents, cust) AS rn
              FROM rev
            ),
            agg AS (
              SELECT CAST(count(*) AS BIGINT) AS n,
                     CAST(sum(cents) AS BIGINT) AS s,
                     CAST(sum(rn * cents) AS BIGINT) AS sc
              FROM rk
            )
            SELECT n AS n_customers, s AS total_cents,
                   CAST(CAST(2 * sc - (n + 1) * s AS HUGEINT)
                        * 1000000 // (n * s) AS BIGINT) AS gini_ppm
            FROM agg
        """,
        "sampled_event_counts": """
            WITH e AS (
              SELECT event_type,
                     CAST(round(value * 100) AS BIGINT) AS cents,
                     CAST((('0x' || substr(md5(CAST(event_id
                              AS VARCHAR)), 1, 15))::BIGINT % 16 = 0)
                          AS BIGINT) AS in_sample
              FROM events
            )
            SELECT event_type,
                   CAST(count(*) AS BIGINT) AS n_exact,
                   CAST(sum(in_sample) * 16 AS BIGINT) AS n_est,
                   CAST(sum(cents) AS BIGINT) AS cents_exact,
                   CAST(sum(cents * in_sample) * 16 AS BIGINT)
                       AS cents_est,
                   CAST(abs(sum(in_sample) * 16 - count(*)) * 1000000
                        // greatest(count(*), 1) AS BIGINT)
                       AS n_err_ppm
            FROM e GROUP BY 1
        """,
        "order_value_benford": """
            WITH c AS (
              SELECT CAST(substr(CAST(
                         abs(CAST(round(o_totalprice * 100) AS BIGINT))
                         AS VARCHAR), 1, 1) AS BIGINT) AS digit
              FROM orders
              WHERE CAST(round(o_totalprice * 100) AS BIGINT) <> 0
            ),
            g AS (SELECT digit, CAST(count(*) AS BIGINT) AS n
                  FROM c GROUP BY 1),
            b(digit, benford_ppm) AS (VALUES (1, 301030), (2, 176091), (3, 124939), (4, 96910), (5, 79181), (6, 66947), (7, 57992), (8, 51153), (9, 45757)),
            t AS (SELECT CAST(sum(n) AS BIGINT) AS total FROM g)
            SELECT b.digit, CAST(coalesce(g.n, 0) AS BIGINT) AS n,
                   CAST(coalesce(g.n, 0) * 1000000
                        // greatest(t.total, 1) AS BIGINT)
                       AS share_ppm,
                   CAST(b.benford_ppm AS BIGINT) AS benford_ppm,
                   CAST(abs(coalesce(g.n, 0) * 1000000
                            // greatest(t.total, 1)
                            - b.benford_ppm) AS BIGINT) AS abs_dev_ppm
            FROM b LEFT JOIN g USING (digit) CROSS JOIN t
        """,
        "data_quality_expectations": """
            WITH n AS (SELECT CAST(count(*) AS BIGINT) AS n
                       FROM orders),
            suite AS (
            SELECT 'price_positive' AS check, n.n AS n_rows,
                   CAST((SELECT count(*) FROM orders
                         WHERE o_totalprice <= 0) AS BIGINT)
                       AS n_violations
            FROM n
            UNION ALL
            SELECT 'status_accepted_values', n.n,
                   CAST((SELECT count(*) FROM orders
                         WHERE o_orderstatus NOT IN ('O', 'F'))
                        AS BIGINT)
            FROM n
            UNION ALL
            SELECT 'orderdate_before_2000', n.n,
                   CAST((SELECT count(*) FROM orders
                         WHERE o_orderdate >= DATE '2000-01-01')
                        AS BIGINT)
            FROM n
            UNION ALL
            SELECT 'custkey_referential', n.n,
                   CAST((SELECT count(*) FROM orders o
                         WHERE NOT EXISTS (
                           SELECT 1 FROM customer c
                           WHERE c.c_custkey = o.o_custkey))
                        AS BIGINT)
            FROM n
            UNION ALL
            SELECT 'orderkey_unique', n.n,
                   n.n - CAST((SELECT count(DISTINCT o_orderkey)
                               FROM orders) AS BIGINT)
            FROM n
            )
            SELECT "check", n_rows, n_violations,
                   CAST(n_violations = 0 AS BIGINT) AS passed
            FROM suite
        """,
        "schema_evolution_read": """
            SELECT CAST(CASE WHEN o_orderkey % 3 = 0 THEN -1
                        ELSE o_orderkey % 4 END AS BIGINT) AS channel,
                   CAST(count(*) AS BIGINT) AS n_orders,
                   CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT))
                        AS BIGINT) AS revenue_cents
            FROM orders GROUP BY 1
        """,
        "part_trending_decay": """
            WITH f AS (
              SELECT l_partkey,
                     CAST(epoch_us(l_shipdate) // 86400000000 // 7
                          AS BIGINT) AS w
              FROM lineitem
            ),
            mx AS (SELECT max(w) AS mw FROM f),
            s AS (
              SELECT l_partkey,
                     CAST(sum(CASE WHEN mw - w <= 40
                              THEN CAST(1 AS BIGINT) << (40 - (mw - w))
                              ELSE 0 END) AS BIGINT) AS s
              FROM f, mx GROUP BY 1
            )
            SELECT l_partkey, s >> 20 AS score_fp20
            FROM s
            ORDER BY score_fp20 DESC, l_partkey
            LIMIT 10
        """,
        "key_skew_audit": """
            WITH c AS (
              SELECT o_custkey, CAST(count(*) AS BIGINT) AS n
              FROM orders GROUP BY 1
            )
            SELECT CAST(sum(n) AS BIGINT) AS total_rows,
                   CAST(count(*) AS BIGINT) AS n_keys,
                   CAST(max(n) AS BIGINT) AS max_count,
                   CAST(quantile_disc(n, 0.5) AS BIGINT) AS p50_count,
                   CAST(quantile_disc(n, 0.99) AS BIGINT) AS p99_count,
                   CAST(max(n) * 1000000 // sum(n) AS BIGINT)
                       AS top1_share_ppm,
                   CAST(max(n) * count(*) * 10000 // sum(n) AS BIGINT)
                       AS skew_ratio_e4
            FROM c
        """,
        "snapshot_time_travel": """
            SELECT CAST(o_orderkey AS BIGINT) AS key,
                   CAST(round(o_totalprice * 100)
                        + CASE WHEN o_orderkey % 37 = 0 THEN 5
                               ELSE 0 END AS BIGINT) AS cents,
                   CAST(CASE WHEN o_orderkey % 37 = 0 THEN 1
                             ELSE 0 END AS BIGINT) AS version_written
            FROM orders
            WHERE o_orderkey % 89 <> 0
        """,
        "salted_join_hot_keys": """
            SELECT e.user_id,
                   c.c_mktsegment,
                   CAST(count(*) AS BIGINT) AS events,
                   CAST(sum(CAST(round(e.value * 100) AS BIGINT))
                        AS BIGINT) AS value_cents
            FROM events e
            JOIN customer c ON e.user_id = c.c_custkey
            GROUP BY 1, 2
        """,
        "scd2_price_enrich": """
            WITH v AS (SELECT unnest([0, 1, 2]) AS version),
            dim AS (
              SELECT p_partkey, p_brand, version,
                     CAST(round(p_retailprice * 100) AS BIGINT)
                         + version AS cents,
                     CASE WHEN version = 0
                          THEN -9223372036854775807
                          ELSE 9500 + (p_partkey % 200) * 5
                               + (version - 1) * 600 END AS vfrom,
                     CASE WHEN version = 2
                          THEN 9223372036854775807
                          ELSE 9500 + (p_partkey % 200) * 5
                               + version * 600 END AS vto
              FROM part, v
            ),
            f AS (
              SELECT l_partkey,
                     CAST(epoch_us(l_shipdate) // 86400000000
                          AS BIGINT) AS day,
                     CAST(l_quantity AS BIGINT) AS q
              FROM lineitem
            )
            SELECT p_brand, CAST(version AS BIGINT) AS version,
                   CAST(count(*) AS BIGINT) AS n_items,
                   CAST(sum(cents * q) AS BIGINT) AS value_cents
            FROM f JOIN dim
              ON f.l_partkey = dim.p_partkey
             AND f.day >= dim.vfrom AND f.day < dim.vto
            GROUP BY 1, 2
        """,
        "compaction_plan": """
            WITH d AS (
              SELECT CAST(epoch_us(l_shipdate) // 86400000000 AS BIGINT)
                         AS day,
                     CAST(count(*) AS BIGINT) AS n_rows
              FROM lineitem GROUP BY 1
            )
            SELECT day, n_rows,
                   CAST(coalesce(sum(n_rows) OVER (
                            ORDER BY day
                            ROWS BETWEEN UNBOUNDED PRECEDING
                                     AND 1 PRECEDING), 0) // 5000
                        AS BIGINT) AS group_id
            FROM d
        """,
        "join_cardinality_audit": """
            WITH co AS (
              SELECT o_orderkey AS key, CAST(count(*) AS BIGINT) AS c
              FROM orders GROUP BY 1
            ),
            cl AS (
              SELECT l_orderkey AS key, CAST(count(*) AS BIGINT) AS c
              FROM lineitem GROUP BY 1
            ),
            m AS (
              SELECT CAST((SELECT count(*) FROM orders) AS BIGINT)
                         AS n_orders,
                     CAST((SELECT count(*) FROM lineitem) AS BIGINT)
                         AS n_lineitem,
                     CAST((SELECT count(*) FROM co) AS BIGINT)
                         AS v_orders,
                     CAST((SELECT count(*) FROM cl) AS BIGINT)
                         AS v_lineitem,
                     CAST((SELECT count(*) FROM co JOIN cl USING (key))
                          AS BIGINT) AS v_both,
                     CAST((SELECT coalesce(sum(co.c * cl.c), 0)
                           FROM co JOIN cl USING (key)) AS BIGINT)
                         AS actual_pairs
            )
            SELECT n_orders, n_lineitem, v_orders, v_lineitem, v_both,
                   actual_pairs,
                   CAST(n_orders * n_lineitem
                        // greatest(v_orders, v_lineitem, 1) AS BIGINT)
                       AS est_pairs
            FROM m
        """,
        "systematic_sample": """
            WITH r AS (
              SELECT o_orderkey,
                     rank() OVER (
                         ORDER BY CAST(round(o_totalprice * 100)
                                       AS BIGINT)) AS rnk
              FROM orders
            )
            SELECT o_orderkey, CAST(rnk AS BIGINT) AS rank
            FROM r WHERE rnk % 100 = 1
        """,
        "orders_percent_rank": """
            WITH o AS (
              SELECT o_orderkey,
                     CAST(round(o_totalprice * 100) AS BIGINT) AS cents
              FROM orders
            ),
            r AS (
              SELECT o_orderkey,
                     rank() OVER (ORDER BY cents) AS rnk,
                     count(*) OVER () AS n
              FROM o
            )
            SELECT o_orderkey, CAST(rnk AS BIGINT) AS rank,
                   CAST((rnk - 1) * 1000000 // (n - 1) AS BIGINT)
                       AS pct_ppm
            FROM r
        """,
        "equidepth_histogram": """
            WITH e AS (
              SELECT event_type,
                     CAST(round(value * 100) AS BIGINT) AS cents
              FROM events
            ),
            b AS (
              SELECT event_type, quantile_disc(cents, 1/8.0) AS q1, quantile_disc(cents, 2/8.0) AS q2, quantile_disc(cents, 3/8.0) AS q3, quantile_disc(cents, 4/8.0) AS q4, quantile_disc(cents, 5/8.0) AS q5, quantile_disc(cents, 6/8.0) AS q6, quantile_disc(cents, 7/8.0) AS q7
              FROM e GROUP BY 1
            ),
            s AS (
              SELECT e.event_type, e.cents,
                     1 + CAST(e.cents > b.q1 AS INT) + CAST(e.cents > b.q2 AS INT) + CAST(e.cents > b.q3 AS INT) + CAST(e.cents > b.q4 AS INT) + CAST(e.cents > b.q5 AS INT) + CAST(e.cents > b.q6 AS INT) + CAST(e.cents > b.q7 AS INT) AS bucket
              FROM e JOIN b USING (event_type)
            )
            SELECT event_type, CAST(bucket AS BIGINT) AS bucket,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(min(cents) AS BIGINT) AS lo_cents,
                   CAST(max(cents) AS BIGINT) AS hi_cents
            FROM s GROUP BY 1, 2
        """,
        "zorder_pruned_scan": """
            SELECT o_orderkey,
                   CAST(o_custkey % 256 AS BIGINT) AS cust_mod,
                   CAST(CAST(epoch_us(o_orderdate) // 86400000000
                             AS BIGINT) % 256 AS BIGINT) AS day_mod
            FROM orders
            WHERE (o_custkey % 256) BETWEEN 32 AND 95
              AND (CAST(epoch_us(o_orderdate) // 86400000000 AS BIGINT)
                   % 256) BETWEEN 100 AND 180
        """,
        "zorder_layout_stats": """
            WITH m AS (
              SELECT o_custkey % 256 AS ck,
                     CAST(epoch_us(o_orderdate) // 86400000000
                          AS BIGINT) % 256 AS dy,
                     o_custkey AS cust
              FROM orders
            ),
            c AS (
              SELECT CAST(((ck // 1) % 2) * 1 + ((dy // 1) % 2) * 2 + ((ck // 2) % 2) * 4 + ((dy // 2) % 2) * 8 + ((ck // 4) % 2) * 16 + ((dy // 4) % 2) * 32 + ((ck // 8) % 2) * 64 + ((dy // 8) % 2) * 128 + ((ck // 16) % 2) * 256 + ((dy // 16) % 2) * 512 + ((ck // 32) % 2) * 1024 + ((dy // 32) % 2) * 2048 + ((ck // 64) % 2) * 4096 + ((dy // 64) % 2) * 8192 + ((ck // 128) % 2) * 16384 + ((dy // 128) % 2) * 32768 AS BIGINT) AS code, cust FROM m
            )
            SELECT CAST(code // 4096 AS BIGINT) AS bucket,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(min(code) AS BIGINT) AS min_code,
                   CAST(max(code) AS BIGINT) AS max_code,
                   CAST(count(DISTINCT cust) AS BIGINT) AS n_customers
            FROM c GROUP BY 1
        """,
        # 2D max-max skyline via the window formulation (equal-cents
        # groups survive iff dmax beats every higher-cents dmax)
        "orders_skyline": """
            WITH o AS (
              SELECT o_orderkey,
                     CAST(round(o_totalprice * 100) AS BIGINT) AS cents,
                     CAST(epoch_us(o_orderdate) // 86400000000
                          AS BIGINT) AS day
              FROM orders
            ),
            g AS (SELECT cents, max(day) AS dmax FROM o GROUP BY cents),
            m AS (
              SELECT cents, dmax,
                     max(dmax) OVER (ORDER BY cents DESC
                                     ROWS BETWEEN UNBOUNDED PRECEDING
                                     AND 1 PRECEDING) AS mprev
              FROM g
            ),
            sk AS (
              SELECT cents, dmax FROM m
              WHERE mprev IS NULL OR dmax > mprev
            )
            SELECT o.o_orderkey, o.cents, o.day
            FROM o JOIN sk s ON o.cents = s.cents AND o.day = s.dmax
        """,
        # RFM: exact quintile boundaries per measure, score = 1 +
        # count of boundaries strictly below the value
        "customer_rfm_segments": """
            WITH u AS (
              SELECT o_custkey AS user_id,
                     (SELECT max(CAST(epoch_us(o_orderdate)
                                      // 86400000000 AS BIGINT))
                      FROM orders)
                     - max(CAST(epoch_us(o_orderdate)
                                // 86400000000 AS BIGINT))
                         AS recency_days,
                     CAST(count(*) AS BIGINT) AS n_orders,
                     CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT))
                          AS BIGINT) AS monetary_cents
              FROM orders GROUP BY 1
            ),
            b AS (
              SELECT
                quantile_disc(recency_days, 0.2) AS r1,
                quantile_disc(recency_days, 0.4) AS r2,
                quantile_disc(recency_days, 0.6) AS r3,
                quantile_disc(recency_days, 0.8) AS r4,
                quantile_disc(n_orders, 0.2) AS f1,
                quantile_disc(n_orders, 0.4) AS f2,
                quantile_disc(n_orders, 0.6) AS f3,
                quantile_disc(n_orders, 0.8) AS f4,
                quantile_disc(monetary_cents, 0.2) AS m1,
                quantile_disc(monetary_cents, 0.4) AS m2,
                quantile_disc(monetary_cents, 0.6) AS m3,
                quantile_disc(monetary_cents, 0.8) AS m4
              FROM u
            ),
            s AS (
              SELECT u.user_id, u.recency_days, u.n_orders,
                     u.monetary_cents,
                     CAST(1 + CAST(u.recency_days > b.r1 AS INT)
                            + CAST(u.recency_days > b.r2 AS INT)
                            + CAST(u.recency_days > b.r3 AS INT)
                            + CAST(u.recency_days > b.r4 AS INT)
                          AS BIGINT) AS r_score,
                     CAST(1 + CAST(u.n_orders > b.f1 AS INT)
                            + CAST(u.n_orders > b.f2 AS INT)
                            + CAST(u.n_orders > b.f3 AS INT)
                            + CAST(u.n_orders > b.f4 AS INT)
                          AS BIGINT) AS f_score,
                     CAST(1 + CAST(u.monetary_cents > b.m1 AS INT)
                            + CAST(u.monetary_cents > b.m2 AS INT)
                            + CAST(u.monetary_cents > b.m3 AS INT)
                            + CAST(u.monetary_cents > b.m4 AS INT)
                          AS BIGINT) AS m_score
              FROM u, b
            )
            SELECT user_id, recency_days, n_orders, monetary_cents,
                   r_score, f_score, m_score,
                   CAST(r_score * 100 + f_score * 10 + m_score
                        AS BIGINT) AS rfm_code
            FROM s
        """,
        # bitmap activity: bit (day - min day), OR-combined; bit_count
        "user_bitmap_activity": """
            WITH d AS (
              SELECT user_id,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day
              FROM events
            ),
            base AS (SELECT min(day) AS day0 FROM d)
            SELECT user_id,
                   CAST(bit_or(CAST(1 AS BIGINT)
                               << CAST(day - b.day0 AS INT))
                        AS BIGINT) AS day_mask,
                   CAST(count(DISTINCT day) AS BIGINT) AS n_active_days
            FROM d, base b GROUP BY user_id
        """,
        # per-day OHLC: open/close = price at min/max orderkey (the
        # deterministic sequence), exact cents
        "orders_daily_ohlc": """
            SELECT CAST(epoch_us(o_orderdate) // 86400000000 AS BIGINT)
                       AS day,
                   CAST(arg_min(round(o_totalprice * 100),
                                o_orderkey) AS BIGINT) AS open_cents,
                   CAST(max(round(o_totalprice * 100)) AS BIGINT)
                       AS high_cents,
                   CAST(min(round(o_totalprice * 100)) AS BIGINT)
                       AS low_cents,
                   CAST(arg_max(round(o_totalprice * 100),
                                o_orderkey) AS BIGINT) AS close_cents,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT))
                        AS BIGINT) AS sum_cents
            FROM orders GROUP BY 1
        """,
        # integer EWMA alpha=1/4: S_t = (n_t + 3*S_{t-1}) // 4
        "pareto_revenue_share": """
            WITH r AS (
              SELECT o_custkey AS cust,
                     CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT))
                          AS BIGINT) AS cents
              FROM orders GROUP BY 1
            ),
            t AS (
              SELECT CAST(sum(cents) AS BIGINT) AS total,
                     CAST(count(*) AS BIGINT) AS n
              FROM r
            ),
            o AS (
              SELECT cents,
                     sum(cents) OVER (ORDER BY cents DESC, cust)
                         AS csum
              FROM r
            ),
            g AS (
              SELECT total, n, (total * 4 + 4) // 5 AS target FROM t
            )
            SELECT g.n AS n_customers,
                   CAST((SELECT count(*) FROM o
                         WHERE o.csum < g.target) + 1 AS BIGINT)
                       AS k_customers,
                   CAST((SELECT min(csum) FROM o
                         WHERE o.csum >= g.target) * 1000000
                        // g.total AS BIGINT) AS top_share_ppm
            FROM g
        """,
        "ab_test_stats": """
            WITH e AS (
              SELECT ((1315423911 * user_id) % 1000003) % 2 AS arm,
                     CAST(round(value * 100) AS BIGINT) AS c
              FROM events WHERE event_type = 'purchase'
            ),
            s AS (
              SELECT arm, CAST(count(*) AS HUGEINT) AS n,
                     CAST(sum(c) AS HUGEINT) AS s1,
                     CAST(sum(c * c) AS HUGEINT) AS q
              FROM e GROUP BY 1
            ),
            a AS (SELECT * FROM s WHERE arm = 0),
            b AS (SELECT * FROM s WHERE arm = 1)
            SELECT CAST(a.n AS BIGINT) AS n_a,
                   CAST(b.n AS BIGINT) AS n_b,
                   CAST(a.s1 AS BIGINT) AS sum_a_cents,
                   CAST(b.s1 AS BIGINT) AS sum_b_cents,
                   CAST(CASE WHEN
                       (a.s1 * b.n - b.s1 * a.n)
                       * (a.s1 * b.n - b.s1 * a.n) * a.n * b.n
                       > 4 * ((a.n * a.q - a.s1 * a.s1) * b.n * b.n * b.n
                              + (b.n * b.q - b.s1 * b.s1)
                                * a.n * a.n * a.n)
                       THEN 1 ELSE 0 END AS BIGINT) AS significant
            FROM a, b
        """,
        "orders_yoy_growth": """
            WITH m AS (
              SELECT CAST(year(o_orderdate) AS BIGINT) AS year,
                     CAST(month(o_orderdate) AS BIGINT) AS month,
                     CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT))
                          AS BIGINT) AS cents
              FROM orders GROUP BY 1, 2
            )
            SELECT a.year, a.month, a.cents,
                   b.cents AS prev_cents,
                   a.cents - b.cents AS delta_cents,
                   CAST((a.cents - b.cents) * 1000000 // b.cents
                        AS BIGINT) AS growth_ppm
            FROM m a JOIN m b
              ON b.year = a.year - 1 AND b.month = a.month
        """,
        "daily_holt": """
            WITH RECURSIVE cd AS (
              SELECT event_type,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                     CAST(count(*) AS BIGINT) AS n
              FROM events GROUP BY 1, 2
            ),
            seq AS (
              SELECT event_type, day, n,
                     row_number() OVER (PARTITION BY event_type
                                        ORDER BY day) AS i
              FROM cd
            ),
            h(event_type, i, day, n, lvl, trd) AS (
              SELECT event_type, i, day, n, n, CAST(0 AS BIGINT)
              FROM seq WHERE i = 1
              UNION ALL
              SELECT s.event_type, s.i, s.day, s.n,
                     (s.n + 3 * (e.lvl + e.trd)) // 4,
                     (((s.n + 3 * (e.lvl + e.trd)) // 4 - e.lvl)
                      + 3 * e.trd) // 4
              FROM h e JOIN seq s
                ON s.event_type = e.event_type AND s.i = e.i + 1
            )
            SELECT event_type, day, n, CAST(lvl AS BIGINT) AS level,
                   CAST(trd AS BIGINT) AS trend
            FROM h
        """,
        "daily_ewma": """
            WITH RECURSIVE cd AS (
              SELECT event_type,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                     CAST(count(*) AS BIGINT) AS n
              FROM events GROUP BY 1, 2
            ),
            seq AS (
              SELECT event_type, day, n,
                     row_number() OVER (PARTITION BY event_type
                                        ORDER BY day) AS i
              FROM cd
            ),
            ew(event_type, i, day, n, ewma) AS (
              SELECT event_type, i, day, n, n FROM seq WHERE i = 1
              UNION ALL
              SELECT s.event_type, s.i, s.day, s.n,
                     (1 * s.n + 3 * e.ewma) // 4
              FROM ew e JOIN seq s
                ON s.event_type = e.event_type AND s.i = e.i + 1
            )
            SELECT event_type, day, n, CAST(ewma AS BIGINT) AS ewma
            FROM ew
        """,
        # CUSUM over D-scaled deviations; the recursion kept literal
        "daily_cusum": """
            WITH RECURSIVE cd AS (
              SELECT event_type,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                     CAST(count(*) AS BIGINT) AS n
              FROM events GROUP BY 1, 2
            ),
            st AS (
              SELECT event_type, CAST(count(*) AS BIGINT) AS d,
                     CAST(sum(n) AS BIGINT) AS s
              FROM cd GROUP BY 1
            ),
            seq AS (
              SELECT c.event_type, c.day, c.n * t.d - t.s AS dev,
                     row_number() OVER (PARTITION BY c.event_type
                                        ORDER BY c.day) AS i
              FROM cd c JOIN st t USING (event_type)
            ),
            cus(event_type, i, day, cusum) AS (
              SELECT event_type, i, day,
                     greatest(CAST(0 AS BIGINT), dev)
              FROM seq WHERE i = 1
              UNION ALL
              SELECT s.event_type, s.i, s.day,
                     greatest(CAST(0 AS BIGINT), c.cusum + s.dev)
              FROM cus c JOIN seq s
                ON s.event_type = c.event_type AND s.i = c.i + 1
            )
            SELECT event_type, day, CAST(cusum AS BIGINT) AS cusum_d
            FROM cus
        """,
        # D^2-scaled autocovariance at lags 0/1/7 over daily counts,
        # day pairs matched BY VALUE (join on day+k)
        "daily_count_autocov": """
            WITH cd AS (
              SELECT event_type,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                     CAST(count(*) AS BIGINT) AS n
              FROM events GROUP BY 1, 2
            ),
            st AS (
              SELECT event_type, CAST(count(*) AS BIGINT) AS d,
                     CAST(sum(n) AS BIGINT) AS s
              FROM cd GROUP BY 1
            ),
            dev AS (
              SELECT c.event_type, c.day, c.n * t.d - t.s AS dv, t.d
              FROM cd c JOIN st t USING (event_type)
            )
            SELECT a.event_type,
                   CAST(max(a.d) AS BIGINT) AS n_days,
                   CAST(sum(a.dv * a.dv) AS BIGINT) AS var_d2,
                   CAST(COALESCE(sum(a.dv * b1.dv), 0) AS BIGINT)
                       AS acov1_d2,
                   CAST(COALESCE(sum(a.dv * b7.dv), 0) AS BIGINT)
                       AS acov7_d2
            FROM dev a
            LEFT JOIN dev b1 ON b1.event_type = a.event_type
                            AND b1.day = a.day + 1
            LEFT JOIN dev b7 ON b7.event_type = a.event_type
                            AND b7.day = a.day + 7
            GROUP BY 1
        """,
        # integer-exact 2-sigma anomaly days: (n*D-S)^2 > 4*(Q*D-S^2)
        "daily_anomaly_days": """
            WITH cd AS (
              SELECT event_type,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                     CAST(count(*) AS BIGINT) AS n
              FROM events GROUP BY 1, 2
            ),
            st AS (
              SELECT event_type, CAST(count(*) AS BIGINT) AS n_days,
                     CAST(sum(n) AS BIGINT) AS sum_n,
                     CAST(sum(n * n) AS BIGINT) AS sum_sq
              FROM cd GROUP BY 1
            )
            SELECT event_type, day, n, n_days, sum_n, sum_sq
            FROM cd JOIN st USING (event_type)
            WHERE (n * n_days - sum_n) * (n * n_days - sum_n)
                  > 4 * (sum_sq * n_days - sum_n * sum_n)
        """,
        # MAD: median of |cents - median_cents|, both quantile_disc
        "value_outliers": """
            WITH c AS (
              SELECT event_id, event_type,
                     CAST(round(value * 100) AS BIGINT) AS cents
              FROM events
            ),
            m AS (
              SELECT event_type,
                     quantile_disc(cents, 0.5) AS med
              FROM c GROUP BY 1
            ),
            s AS (
              SELECT c.event_type,
                     CAST(quantile_disc(abs(c.cents - m.med), 0.5)
                          AS BIGINT) AS mad,
                     CAST(m.med AS BIGINT) AS med
              FROM c JOIN m USING (event_type)
              GROUP BY c.event_type, m.med
            )
            SELECT c.event_id, c.event_type, c.cents,
                   abs(c.cents - s.med) AS dev_cents
            FROM c JOIN s USING (event_type)
            WHERE abs(c.cents - s.med) > 5 * s.mad
        """,
        "mad_by_type": """
            WITH c AS (
              SELECT event_type,
                     CAST(round(value * 100) AS BIGINT) AS cents
              FROM events
            ),
            m AS (
              SELECT event_type,
                     quantile_disc(cents, 0.5) AS median_cents
              FROM c GROUP BY 1
            )
            SELECT c.event_type, m.median_cents,
                   CAST(quantile_disc(abs(c.cents - m.median_cents),
                                      0.5) AS BIGINT) AS mad_cents
            FROM c JOIN m USING (event_type)
            GROUP BY c.event_type, m.median_cents
        """,
        # winsorized per-type mean: clamp cents to [p05,p95]
        # (quantile_disc order stats), exact int64 sum + floor mean
        "winsorized_mean_by_type": """
            WITH q AS (
              SELECT event_type,
                     CAST(round(quantile_disc(value, 0.05) * 100)
                          AS BIGINT) AS lo,
                     CAST(round(quantile_disc(value, 0.95) * 100)
                          AS BIGINT) AS hi
              FROM events GROUP BY 1
            ),
            c AS (
              SELECT e.event_type,
                     least(greatest(CAST(round(e.value * 100) AS BIGINT),
                                    q.lo), q.hi) AS cents
              FROM events e JOIN q USING (event_type)
            )
            SELECT event_type, CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(cents) AS BIGINT) AS win_sum_cents,
                   CAST(CAST(sum(cents) AS BIGINT) * 1000 // count(*)
                        AS BIGINT) AS win_mean_millicents
            FROM c GROUP BY 1
        """,
        # market-basket co-occurrence: unordered distinct-part pairs
        # within an order, kept at co_count >= 2
        # exact prefix blocking + byte Levenshtein on 64-char prefix
        "edit_distance_pairs": """
            WITH d AS (
              SELECT doc_id, substr(text, 1, 64) AS p,
                     substr(text, 1, 16) AS blk
              FROM documents
            )
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   CAST(levenshtein(a.p, b.p) AS BIGINT) AS dist
            FROM d a JOIN d b
              ON a.blk = b.blk AND a.doc_id < b.doc_id
            WHERE levenshtein(a.p, b.p) <= 8
        """,
        "association_rules": """
            WITH op AS (
              SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
            ),
            n AS (
              SELECT l_partkey AS p, CAST(count(*) AS BIGINT) AS nb
              FROM op GROUP BY 1
            ),
            m AS (
              SELECT CAST(count(*) AS BIGINT) AS total FROM orders
            ),
            pairs AS (
              SELECT a.l_partkey AS p1, b.l_partkey AS p2,
                     CAST(count(*) AS BIGINT) AS co_count
              FROM op a JOIN op b
                ON a.l_orderkey = b.l_orderkey
               AND a.l_partkey < b.l_partkey
              GROUP BY 1, 2 HAVING count(*) >= 2
            ),
            dir AS (
              SELECT p1 AS a, p2 AS c, co_count FROM pairs
              UNION ALL
              SELECT p2 AS a, p1 AS c, co_count FROM pairs
            )
            SELECT d.a AS antecedent, d.c AS consequent, d.co_count,
                   CAST(d.co_count * 1000000 // na.nb AS BIGINT)
                       AS conf_ppm,
                   CAST(d.co_count * m.total * 1000
                        // (na.nb * nc.nb) AS BIGINT) AS lift_ppt
            FROM dir d
            JOIN n na ON na.p = d.a
            JOIN n nc ON nc.p = d.c, m
        """,
        "copurchase_pairs": """
            WITH op AS (
              SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
            ),
            pairs AS (
              SELECT a.l_partkey AS p1, b.l_partkey AS p2
              FROM op a JOIN op b
                ON a.l_orderkey = b.l_orderkey
               AND a.l_partkey < b.l_partkey
            )
            SELECT p1, p2, CAST(count(*) AS BIGINT) AS co_count
            FROM pairs GROUP BY 1, 2 HAVING count(*) >= 2
        """,
        # INTERSECT at (user, day) grain (q13 UNION ALL, q24 EXCEPT)
        "intersect_user_days": """
            SELECT user_id, CAST(epoch_us(ts) // 86400000000 AS BIGINT)
                       AS day
            FROM events WHERE event_type = 'purchase'
            INTERSECT
            SELECT user_id, CAST(epoch_us(ts) // 86400000000 AS BIGINT)
                       AS day
            FROM events WHERE event_type = 'error'
        """,
        "q24_view_no_purchase": """
            WITH e AS (
              SELECT user_id,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                     event_type
              FROM events
            )
            SELECT user_id, day, CAST(count(*) AS BIGINT) AS n_views
            FROM e v
            WHERE event_type = 'view'
              AND NOT EXISTS (SELECT 1 FROM e p
                              WHERE p.user_id = v.user_id
                                AND p.day = v.day
                                AND p.event_type = 'purchase')
            GROUP BY user_id, day
        """,
        # time-series densify: per-user dense hourly grid between first
        # and last active hour, zero-filled gaps, exact cents
        "densify_hourly_user": """
            WITH e AS (
              SELECT user_id,
                     CAST(epoch_us(ts) // 3600000000 AS BIGINT) AS h,
                     CAST(round(value * 100) AS BIGINT) AS cents
              FROM events
            ),
            a AS (
              SELECT user_id, h, count(*) AS n,
                     CAST(sum(cents) AS BIGINT) AS c
              FROM e GROUP BY 1, 2
            ),
            span AS (
              SELECT user_id, min(h) AS lo, max(h) AS hi
              FROM e GROUP BY user_id
            ),
            g AS (
              -- scalar generate_series + unnest (the chunk_documents
              -- pattern): this DuckDB build rejects column params in
              -- the LATERAL table-function form
              SELECT user_id,
                     lo + unnest(generate_series(0, hi - lo, 1)) AS h
              FROM span
            )
            SELECT g.user_id,
                   TIMESTAMP '1970-01-01' + g.h * INTERVAL 1 HOUR
                       AS hour,
                   CAST(coalesce(a.n, 0) AS BIGINT) AS events,
                   CAST(coalesce(a.c, 0) AS BIGINT) AS total_value_cents
            FROM g LEFT JOIN a ON a.user_id = g.user_id AND a.h = g.h
        """,
        # GROUP BY CUBE with 'ALL' sentinels instead of NULLs
        "cube_lineitem": """
            SELECT coalesce(l_returnflag, 'ALL') AS l_returnflag,
                   coalesce(l_linestatus, 'ALL') AS l_linestatus,
                   CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT)
                       AS sum_qty,
                   count(*) AS count_order
            FROM lineitem
            GROUP BY CUBE (l_returnflag, l_linestatus)
        """,
        # LAG(): microseconds since the user's previous event, -1 first
        "event_lag_diff": """
            SELECT event_id, user_id, epoch_us(ts) AS ts_us,
                   coalesce(
                     epoch_us(ts) - lag(epoch_us(ts)) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id),
                     -1) AS gap_us
            FROM events
        """,
        # ROWS BETWEEN 2 PRECEDING AND CURRENT ROW frame, exact cents.
        # The windowed sum is HUGEINT in DuckDB (pandas float64) — CAST
        # to BIGINT so the driver's dtype-sensitive hash matches the
        # engine's int64, exactly as running_total does.
        "moving_window_sum": """
            SELECT event_id, user_id,
                   count(*) OVER w AS win_n,
                   CAST(sum(CAST(round(value * 100) AS BIGINT)) OVER w
                        AS BIGINT) AS win_cents
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                         ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
        """,
        # time-interval frame (RANGE, peer-inclusive under ts ties)
        "range_window_sum": """
            SELECT event_id, user_id,
                   count(*) OVER w AS win_n,
                   CAST(sum(CAST(round(value * 100) AS BIGINT)) OVER w
                        AS BIGINT) AS win_cents
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts
                         RANGE BETWEEN INTERVAL 1 HOUR PRECEDING
                         AND CURRENT ROW)
        """,
        # NTILE(4) per type over (value, event_id) order; rank included
        "ntile_events": """
            SELECT event_id, event_type,
                   row_number() OVER w AS rnk,
                   ntile(4) OVER w AS tile
            FROM events
            WINDOW w AS (PARTITION BY event_type
                         ORDER BY round(value * 100), event_id)
        """,
        # gaps-and-islands: longest consecutive-active-day streak
        "user_active_streak": """
            WITH ud AS (
              SELECT DISTINCT user_id,
                     epoch_us(ts) // 86400000000 AS day
              FROM events
            ),
            isl AS (
              SELECT user_id, day,
                     day - row_number() OVER (
                       PARTITION BY user_id ORDER BY day) AS grp
              FROM ud
            ),
            s AS (SELECT user_id, count(*) AS streak
                  FROM isl GROUP BY user_id, grp)
            SELECT u.user_id,
                   CAST(u.n_active_days AS BIGINT) AS n_active_days,
                   CAST(s.longest_streak AS BIGINT) AS longest_streak
            FROM (SELECT user_id, count(*) AS n_active_days
                  FROM ud GROUP BY user_id) u
            JOIN (SELECT user_id, max(streak) AS longest_streak
                  FROM s GROUP BY user_id) s ON s.user_id = u.user_id
        """,
        # ordered group-concat: event_id is the unique tiebreak on equal ts
        "user_journey": """
            SELECT user_id,
                   string_agg(event_type, '>' ORDER BY ts, event_id)
                       AS journey,
                   count(*) AS n_events
            FROM events GROUP BY user_id
        """,
        # Markov transition counts between consecutive per-user events
        "interarrival_quantiles": """
            WITH g AS (
              SELECT event_type,
                     epoch_us(ts) - lag(epoch_us(ts)) OVER (
                         PARTITION BY event_type
                         ORDER BY epoch_us(ts), event_id) AS gap
              FROM events
            ),
            gg AS (SELECT event_type, CAST(gap AS BIGINT) AS gap
                   FROM g WHERE gap IS NOT NULL)
            SELECT event_type,
                   CAST(count(*) AS BIGINT) AS n_gaps,
                   CAST(quantile_disc(gap, 0.5) AS BIGINT)
                       AS p50_gap_us,
                   CAST(quantile_disc(gap, 0.99) AS BIGINT)
                       AS p99_gap_us
            FROM gg GROUP BY 1
        """,
        "event_pattern_match": """
            WITH s AS (
              SELECT user_id, event_type,
                     lead(event_type, 1) OVER w AS t1,
                     lead(event_type, 2) OVER w AS t2
              FROM events
              WINDOW w AS (PARTITION BY user_id
                           ORDER BY ts, event_id)
            )
            SELECT user_id, CAST(count(*) AS BIGINT) AS matches
            FROM s
            WHERE event_type = 'view' AND t1 = 'click'
              AND t2 = 'purchase'
            GROUP BY 1
        """,
        "event_transitions": """
            WITH s AS (
              SELECT event_type,
                     lag(event_type) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id) AS prev
              FROM events
            )
            SELECT prev AS from_type, event_type AS to_type,
                   count(*) AS transitions
            FROM s WHERE prev IS NOT NULL GROUP BY 1, 2
        """,
        "event_pivot": """
            SELECT user_id,
                   count(*) FILTER (WHERE event_type = 'click')
                       AS n_click,
                   count(*) FILTER (WHERE event_type = 'error')
                       AS n_error,
                   count(*) FILTER (WHERE event_type = 'purchase')
                       AS n_purchase,
                   count(*) FILTER (WHERE event_type = 'signup')
                       AS n_signup,
                   count(*) FILTER (WHERE event_type = 'view')
                       AS n_view
            FROM events GROUP BY user_id
        """,
        # ROLLUP totals with 'ALL' sentinels; quantities as exact BIGINTs
        # (l_quantity is integral) so re-summation is associative
        "rollup_lineitem": """
            SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag,
                   COALESCE(l_linestatus, 'ALL') AS l_linestatus,
                   CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT)
                       AS sum_qty,
                   count(*) AS count_order
            FROM lineitem GROUP BY ROLLUP(l_returnflag, l_linestatus)
        """,
        # global fixed-width histogram; bin math is the SAME IEEE double
        # expression the pipeline evaluates, so lo/hi hash bit-identically
        "price_histogram": """
            WITH s AS (
              SELECT min(l_extendedprice) AS mn,
                     (max(l_extendedprice) - min(l_extendedprice)) / 20.0
                         AS w
              FROM lineitem
            ),
            b AS (
              SELECT LEAST(CAST(floor((l.l_extendedprice - s.mn) / s.w)
                                AS BIGINT), 19) AS bin
              FROM lineitem l, s
            )
            SELECT b.bin, s.mn + b.bin * s.w AS lo,
                   s.mn + (b.bin + 1) * s.w AS hi,
                   count(*) AS n
            FROM b, s GROUP BY b.bin, s.mn, s.w
        """,
        # winnowing near-dup pairs: the doc_fingerprints CTE chain
        # (shared verbatim) self-joined on fingerprint values
        "doc_containment_pairs": _WINNOW_RANKED_CTE + """
            , fp AS (SELECT doc_id, m FROM ranked WHERE rn <= 64),
            n AS (
              SELECT doc_id, CAST(count(*) AS BIGINT) AS n
              FROM fp GROUP BY 1
            ),
            sh AS (
              SELECT a.doc_id AS da, b.doc_id AS db,
                     CAST(count(*) AS BIGINT) AS shared
              FROM fp a JOIN fp b
                ON a.m = b.m AND a.doc_id < b.doc_id
              GROUP BY 1, 2
            ),
            j AS (
              SELECT da, db, shared, na.n AS n_a, nb.n AS n_b
              FROM sh
              JOIN n na ON na.doc_id = da
              JOIN n nb ON nb.doc_id = db
              WHERE shared >= 4
            ),
            d AS (
              SELECT CASE WHEN (n_a, da) < (n_b, db)
                          THEN da ELSE db END AS doc_inner,
                     CASE WHEN (n_a, da) < (n_b, db)
                          THEN db ELSE da END AS doc_outer,
                     CASE WHEN (n_a, da) < (n_b, db)
                          THEN n_a ELSE n_b END AS n_inner,
                     shared
              FROM j
            )
            SELECT doc_inner, doc_outer, n_inner, shared FROM d
            WHERE shared * 100 >= 90 * n_inner
        """,
        "winnow_dup_pairs": _WINNOW_RANKED_CTE + """
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   count(*) AS shared
            FROM ranked a
            JOIN ranked b ON a.m = b.m AND a.doc_id < b.doc_id
            WHERE a.rn <= 8 AND b.rn <= 8
            GROUP BY 1, 2 HAVING count(*) >= 4
        """,
        # connected components over the winnowing pair graph (same
        # recursive-walk oracle shape as embedding_dup_clusters)
        "winnow_dup_clusters": _WINNOW_RANKED_CTE.replace(
            "WITH t AS", "WITH RECURSIVE t AS") + """
            , pairs AS MATERIALIZED (
              SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
              FROM ranked a
              JOIN ranked b ON a.m = b.m AND a.doc_id < b.doc_id
              WHERE a.rn <= 8 AND b.rn <= 8
              GROUP BY 1, 2 HAVING count(*) >= 4
            ),
            nodes AS (
              SELECT DISTINCT doc_id FROM (
                SELECT doc_a AS doc_id FROM pairs
                UNION ALL SELECT doc_b FROM pairs)
            ),
            edges AS MATERIALIZED (
              SELECT doc_a AS a, doc_b AS b FROM pairs
              UNION ALL SELECT doc_b, doc_a FROM pairs
            ),
            walk(doc_id, r) AS (
              SELECT doc_id, doc_id FROM nodes
              UNION
              SELECT e.b, w.r FROM walk w JOIN edges e ON e.a = w.doc_id
            )
            SELECT doc_id, min(r) AS cluster_rep FROM walk GROUP BY doc_id
        """,
        "dedup_rate_by_source": """
            SELECT source,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(count(DISTINCT text) AS BIGINT) AS n_unique,
                   CAST((count(*) - count(DISTINCT text)) * 1000000
                        // count(*) AS BIGINT) AS dup_ppm
            FROM documents GROUP BY 1
        """,
        "dedup_exact": """
            SELECT text, min(doc_id) AS keeper_doc_id, count(*) AS copies
            FROM documents GROUP BY text
        """,
        "char_jaccard_pairs": """
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   round(jaccard(a.text, b.text), 4) AS sim
            FROM documents a
            JOIN documents b ON a.source = b.source AND a.doc_id < b.doc_id
            WHERE jaccard(a.text, b.text) >= 0.95
        """,
        # 3-gram shingle Jaccard rebuilt from string shingles (the
        # pipeline's crc32 shingle hashing is injective on these corpora);
        # sim is the raw DOUBLE ratio on both sides -> bit-identical hash
        "ngram_jaccard_pairs": r"""
            WITH t AS (
              SELECT doc_id, source,
                     lower(regexp_replace(trim(text), '\s+', ' ', 'g')) AS t
              FROM documents
            ),
            pos AS (
              SELECT doc_id, source, t,
                     unnest(generate_series(1, greatest(length(t)-2, 1))) AS i
              FROM t WHERE length(t) > 0
            ),
            sh AS (
              SELECT DISTINCT doc_id, source,
                     CASE WHEN length(t) < 3 THEN t
                          ELSE substring(t, CAST(i AS INT), 3) END AS s
              FROM pos
            ),
            cnt AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
            inter AS (
              SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS isz
              FROM sh a JOIN sh b ON a.source = b.source AND a.s = b.s
                                  AND a.doc_id < b.doc_id
              GROUP BY 1, 2
            )
            SELECT i.doc_a, i.doc_b,
                   CAST(i.isz AS DOUBLE)/(ca.n+cb.n-i.isz) AS sim
            FROM inter i
            JOIN cnt ca ON ca.doc_id = i.doc_a
            JOIN cnt cb ON cb.doc_id = i.doc_b
            WHERE CAST(i.isz AS DOUBLE)/(ca.n+cb.n-i.isz) >= 0.5
        """,
        "doc_tokens": r"""
            SELECT doc_id, n_chars,
                   len(string_split_regex(trim(text), '\s+')) AS tokens
            FROM documents
        """,
        # KMV bottom-k sketch recomputed exactly: same md5-low-64 hashes,
        # same (k-1)/h_k estimate -> bit-identical double
        "approx_distinct_users": """
            WITH d AS (
              SELECT DISTINCT event_type,
                     ('0x' || substr(md5(CAST(user_id AS VARCHAR)),
                                     1, 16))::UBIGINT AS h
              FROM events
            ),
            da AS (
              SELECT DISTINCT CAST('__all__' AS VARCHAR) AS event_type,
                     ('0x' || substr(md5(CAST(user_id AS VARCHAR)),
                                     1, 16))::UBIGINT AS h
              FROM events
            ),
            u AS (SELECT * FROM d UNION ALL SELECT * FROM da),
            rk AS (
              SELECT event_type, h,
                     row_number() OVER (PARTITION BY event_type
                                        ORDER BY h) AS rn,
                     count(*) OVER (PARTITION BY event_type) AS n
              FROM u
            )
            SELECT event_type,
                   CASE WHEN max(n) < 256 THEN CAST(max(n) AS DOUBLE)
                        ELSE 255.0 /
                             (CAST(max(CASE WHEN rn = 256 THEN h END)
                                   AS DOUBLE)
                              / 18446744073709551616.0)
                   END AS approx_users
            FROM rk GROUP BY event_type
        """,
        "html_main_content": """
            SELECT doc_id, text AS extracted, CAST(1 AS BIGINT) AS n_blocks
            FROM documents
        """,
        "pdf_layout_text": """
            WITH c AS (
              SELECT doc_id,
                     trim(substr(trim(regexp_replace(regexp_replace(
                         text, '[^0-9A-Za-z ]', ' ', 'g'),
                         ' +', ' ', 'g')), 1, 40)) AS cl
              FROM documents
            )
            SELECT doc_id,
                   CASE WHEN cl = '' THEN ''
                        ELSE cl || chr(10) || reverse(cl) END AS extracted
            FROM c
        """,
        "ngram_lm_score": _NGRAM_LM_SQL,
        "html_link_graph": """
            WITH u AS (
              SELECT doc_id, unnest(range(0, doc_id % 4 + 1)) AS k
              FROM documents
            )
            SELECT 'host' || CAST((doc_id * 7 + k) % 50 AS VARCHAR)
                   || '.example' AS host,
                   count(*) AS inlinks
            FROM u GROUP BY host
        """,
        # the engine PARSES messy URL strings; the oracle re-derives the
        # canonical form arithmetically from the synthesis identity
        # (functions/urlnorm.raw_urls_for docstring)
        "url_canonicalize": """
            WITH u AS (
              SELECT doc_id, unnest(range(0, doc_id % 3 + 1)) AS k
              FROM documents
            ),
            c AS (
              SELECT doc_id,
                (CASE WHEN (doc_id+k)%2=0 THEN 'http' ELSE 'https' END)
                || '://host' || CAST((3*doc_id+k)%40 AS VARCHAR)
                || '.example.com'
                || (CASE WHEN (doc_id+k)%5=0 THEN ':8080' ELSE '' END)
                || '/a/q' || CAST((doc_id+k)%7 AS VARCHAR) || '/doc?a='
                || CAST(doc_id%5 AS VARCHAR) || '&b='
                || CAST(k AS VARCHAR) AS canon
              FROM u
            )
            SELECT canon AS canonical_url, count(*) AS n_raw,
                   count(DISTINCT doc_id) AS n_docs
            FROM c GROUP BY canon
        """,
        "crawl_politeness_schedule": """
            WITH u AS (
              SELECT doc_id, unnest(range(0, doc_id % 3 + 1)) AS k
              FROM documents
            ),
            c AS (
              SELECT
                (CASE WHEN (doc_id+k)%2=0 THEN 'http' ELSE 'https' END)
                || '://host' || CAST((3*doc_id+k)%40 AS VARCHAR)
                || '.example.com'
                || (CASE WHEN (doc_id+k)%5=0 THEN ':8080' ELSE '' END)
                || '/a/q' || CAST((doc_id+k)%7 AS VARCHAR) || '/doc?a='
                || CAST(doc_id%5 AS VARCHAR) || '&b='
                || CAST(k AS VARCHAR) AS url,
                'host' || CAST((3*doc_id+k)%40 AS VARCHAR)
                || '.example.com' AS host
              FROM u
            ),
            d AS (SELECT DISTINCT url, host FROM c),
            r AS (
              SELECT url, host,
                     row_number() OVER (
                       PARTITION BY host ORDER BY url) AS host_rank
              FROM d
            )
            SELECT url, host, CAST(host_rank AS BIGINT) AS host_rank,
                   CAST(row_number() OVER (
                     ORDER BY host_rank, host, url) AS BIGINT) AS slot
            FROM r
        """,
        # sequential recursive walk; the engine takes the same capped
        # stops via pointer doubling (4 exchange rounds, not 8)
        "redirect_resolution": """
            WITH RECURSIVE nn AS (
              SELECT max(doc_id)+1 AS n FROM documents
            ),
            walk AS (
              SELECT doc_id AS src, doc_id AS cur, 0 AS hops,
                     CASE WHEN doc_id % 16 = 0 THEN 'resolved'
                          ELSE '' END AS status
              FROM documents
              UNION ALL
              SELECT w.src, (w.cur*13+7) % nn.n, w.hops + 1,
                     CASE WHEN d.doc_id IS NULL THEN 'dangling'
                          WHEN ((w.cur*13+7) % nn.n) % 16 = 0
                            THEN 'resolved'
                          WHEN w.hops + 1 >= 8 THEN 'unresolved'
                          ELSE '' END
              FROM walk w CROSS JOIN nn
              LEFT JOIN documents d ON d.doc_id = (w.cur*13+7) % nn.n
              WHERE w.status = ''
            )
            SELECT src AS doc_id, cur AS final_id, hops, status
            FROM walk WHERE status <> ''
        """,
        "html_meta_extract": """
            SELECT doc_id,
              'T ' || CAST(doc_id AS VARCHAR) || ' ' || lang AS title,
              'd&' || CAST(doc_id AS VARCHAR) || ' ' || source
                AS description,
              'https://host' || CAST(doc_id%40 AS VARCHAR)
                || '.example.com/c/' || CAST(doc_id AS VARCHAR)
                AS canonical,
              CASE WHEN doc_id % 7 = 0 THEN 1 ELSE 0 END AS noindex
            FROM documents
        """,
        "anchor_text_index": """
            WITH u AS (
              SELECT doc_id, unnest(range(0, doc_id%4+1)) AS k
              FROM documents
            )
            SELECT 'host' || CAST((doc_id*7+k)%50 AS VARCHAR)
                   || '.example' AS host,
                   'out ' || CAST(k AS VARCHAR) AS anchor,
                   count(*) AS n
            FROM u GROUP BY host, anchor
        """,
        # longest-match robots semantics: allow-override beats the
        # disallow prefix on even hosts
        "robots_gate": """
            SELECT doc_id, doc_id%50 AS host_idx,
              '/q' || CAST(doc_id%7 AS VARCHAR) || '/' ||
              (CASE WHEN doc_id%3=0 THEN 'pub/' ELSE '' END) || 'x' ||
              CAST(doc_id AS VARCHAR) AS path,
              CASE WHEN (doc_id%7) <> ((doc_id%50)%7) THEN 1
                   WHEN (doc_id%50)%2=0 AND doc_id%3=0 THEN 1
                   ELSE 0 END AS allowed
            FROM documents
        """,
        "warc_record_parse": """
            WITH u AS (
              SELECT doc_id, unnest(range(0, doc_id%3+1)) AS r
              FROM documents
            ),
            p AS (
              SELECT doc_id, r, 10 + (3*doc_id + r) % 23 AS n FROM u
            ),
            s AS (
              SELECT doc_id, r, n, unnest(range(0, n)) AS j FROM p
            )
            SELECT s.doc_id, s.r AS rec_idx,
              CASE WHEN (s.doc_id + s.r)%2=0 THEN 'response'
                   ELSE 'request' END AS rec_type,
              s.n AS content_length,
              CAST(sum((s.doc_id + s.r + s.j) % 251) AS BIGINT)
                AS payload_sum
            FROM s GROUP BY s.doc_id, s.r, s.n
        """,
        "content_type_audit": """
            WITH m AS (
              SELECT doc_id,
                ['text/html','application/pdf','image/png','image/tiff']
                  [doc_id%4 + 1] AS declared,
                ['text/html','application/pdf','image/png','image/tiff']
                  [(doc_id + doc_id//4)%4 + 1] AS sniffed
              FROM documents
            )
            SELECT declared, sniffed, count(*) AS n,
              CASE WHEN declared <> sniffed THEN 1 ELSE 0 END
                AS is_mismatch
            FROM m GROUP BY declared, sniffed
        """,
        # the oracle re-derives the page lines from the synthesis
        # identity and applies the SAME frequency rule — it does not
        # know which lines the fixture planted as chrome
        "host_boilerplate_strip": """
            WITH d AS (
              SELECT doc_id, doc_id % 50 AS h, text FROM documents
            ),
            navl AS (
              SELECT doc_id, h, j AS idx,
                     'nav ' || CAST(h AS VARCHAR) || ' item '
                       || CAST(j AS VARCHAR) AS line
              FROM (SELECT doc_id, h,
                           unnest(range(0, h % 3 + 2)) AS j FROM d)
            ),
            body AS (
              SELECT doc_id, h, 1000 AS idx, text AS line FROM d
            ),
            foot AS (
              SELECT doc_id, h, 1001 AS idx,
                     'footer ' || CAST(h AS VARCHAR) AS line FROM d
            ),
            al AS (
              SELECT * FROM navl UNION ALL SELECT * FROM body
              UNION ALL SELECT * FROM foot
            ),
            hd AS (SELECT h, count(*) AS nd FROM d GROUP BY h),
            lc AS (
              SELECT h, line, count(DISTINCT doc_id) AS c
              FROM al GROUP BY h, line
            ),
            m AS (
              SELECT al.doc_id, al.h, al.idx, al.line,
                     CASE WHEN lc.c >= 2 AND 10 * lc.c >= 6 * hd.nd
                          THEN 1 ELSE 0 END AS boiler
              FROM al JOIN lc USING (h, line) JOIN hd USING (h)
            )
            SELECT doc_id, h AS host_idx,
                   count(*) AS n_lines,
                   CAST(sum(boiler) AS BIGINT) AS n_boiler,
                   coalesce(string_agg(
                     CASE WHEN boiler = 0 THEN line END,
                     chr(10) ORDER BY idx), '') AS kept_text
            FROM m GROUP BY doc_id, h
        """,
        # block_idx counts VALID blocks only: the malformed block on
        # doc_id%7==0 is skipped by the parser and never numbers
        "jsonld_extract": """
            SELECT doc_id, 0 AS block_idx, 'Product' AS item_type,
                   doc_id AS sku,
                   (doc_id * 37) % 10000 + 99 AS price_cents,
                   'P ' || CAST(doc_id AS VARCHAR) || ' ' || lang AS name
            FROM documents
            UNION ALL
            SELECT doc_id, 1, 'Article', -1, -1,
                   'A ' || CAST(doc_id AS VARCHAR)
            FROM documents WHERE doc_id % 5 = 0
        """,
        # heading seq arithmetic: nt = doc_id%2+1 h3s under each of the
        # doc_id%3+1 h2s, so h2_i sits at 1 + i*(1+nt)
        "heading_outline": """
            WITH d AS (
              SELECT doc_id, doc_id % 3 + 1 AS ns, doc_id % 2 + 1 AS nt
              FROM documents
            ),
            h1 AS (
              SELECT doc_id, 0 AS seq, 1 AS level,
                     'H1 ' || CAST(doc_id AS VARCHAR) AS text,
                     'H1 ' || CAST(doc_id AS VARCHAR) AS section_path
              FROM d
            ),
            sec AS (
              SELECT doc_id, nt, unnest(range(0, ns)) AS i FROM d
            ),
            h2 AS (
              SELECT doc_id, 1 + i * (1 + nt) AS seq, 2 AS level,
                     'S ' || CAST(doc_id AS VARCHAR) || ' '
                       || CAST(i AS VARCHAR) AS text,
                     'H1 ' || CAST(doc_id AS VARCHAR) || ' > S '
                       || CAST(doc_id AS VARCHAR) || ' '
                       || CAST(i AS VARCHAR) AS section_path
              FROM sec
            ),
            sub AS (
              SELECT doc_id, nt, i, unnest(range(0, nt)) AS j FROM sec
            ),
            h3 AS (
              SELECT doc_id, 2 + i * (1 + nt) + j AS seq, 3 AS level,
                     'T ' || CAST(doc_id AS VARCHAR) || ' '
                       || CAST(i AS VARCHAR) || ' '
                       || CAST(j AS VARCHAR) AS text,
                     'H1 ' || CAST(doc_id AS VARCHAR) || ' > S '
                       || CAST(doc_id AS VARCHAR) || ' '
                       || CAST(i AS VARCHAR) || ' > T '
                       || CAST(doc_id AS VARCHAR) || ' '
                       || CAST(i AS VARCHAR) || ' '
                       || CAST(j AS VARCHAR) AS section_path
              FROM sub
            )
            SELECT * FROM h1 UNION ALL SELECT * FROM h2
            UNION ALL SELECT * FROM h3
        """,
        # the non-UTF-8 variants prepend chr(233); a wrong decode
        # cannot round-trip the hash
        "charset_transcode": """
            SELECT doc_id,
              ['utf-8','utf-8-sig','utf-16-le','iso-8859-1']
                [doc_id % 4 + 1] AS charset,
              CASE WHEN doc_id % 4 >= 2
                   THEN chr(233) || ' ' || text ELSE text END AS text,
              length(CASE WHEN doc_id % 4 >= 2
                   THEN chr(233) || ' ' || text ELSE text END)
                AS n_chars
            FROM documents
        """,
        # list seq arithmetic: the nested <ol> (n2 items) sits under top
        # item 0, so top item i>0 lands at seq n2+i, sub item j at 1+j
        "html_list_extract": """
            WITH d AS (
              SELECT doc_id, doc_id % 3 + 1 AS n1, doc_id % 2 + 1 AS n2
              FROM documents
            ),
            top AS (
              SELECT doc_id, n2, unnest(range(0, n1)) AS i FROM d
            ),
            t1 AS (
              SELECT doc_id,
                     CASE WHEN i = 0 THEN 0 ELSE n2 + i END AS seq,
                     1 AS depth, 0 AS is_ordered,
                     'L ' || CAST(doc_id AS VARCHAR) || ' '
                       || CAST(i AS VARCHAR) AS item_text
              FROM top
            ),
            sub AS (
              SELECT doc_id, unnest(range(0, n2)) AS j FROM d
            ),
            t2 AS (
              SELECT doc_id, 1 + j AS seq, 2 AS depth, 1 AS is_ordered,
                     'O ' || CAST(doc_id AS VARCHAR) || ' 0 '
                       || CAST(j AS VARCHAR) AS item_text
              FROM sub
            )
            SELECT * FROM t1 UNION ALL SELECT * FROM t2
        """,
        # alt is absent exactly when (doc_id+i)%4==0; loose images and
        # commented-out figures never reach the output
        "figure_caption_extract": """
            WITH u AS (
              SELECT doc_id, unnest(range(0, doc_id % 3)) AS i
              FROM documents
            )
            SELECT doc_id, i AS fig_idx,
                   'media/' || CAST(doc_id AS VARCHAR) || '/'
                     || CAST(i AS VARCHAR) || '.png' AS media_ref,
                   CASE WHEN (doc_id + i) % 4 = 0 THEN ''
                        ELSE 'alt ' || CAST(doc_id AS VARCHAR) || ' '
                          || CAST(i AS VARCHAR) END AS alt,
                   'Cap ' || CAST(doc_id AS VARCHAR) || ' '
                     || CAST(i AS VARCHAR) || ' & note' AS caption
            FROM u
        """,
        # rel-link on doc%5 in 1..3, anchor-only on 4, none on 0; the
        # cc type cycles by doc%3
        "license_detect": """
            SELECT doc_id,
                   CASE WHEN doc_id % 5 = 0 THEN ''
                        ELSE 'cc-' || ['by', 'by-sa', 'by-nc']
                               [doc_id % 3 + 1] END AS license,
                   CASE WHEN doc_id % 5 = 0 THEN 'none'
                        WHEN doc_id % 5 = 4 THEN 'anchor'
                        ELSE 'rel-link' END AS evidence
            FROM documents
        """,
        # doc%4: 0 clean, 1 legit non-ASCII (not flagged), 2 plants
        # doc%3+1 signatures, 3 plants one
        "mojibake_audit": """
            SELECT doc_id,
                   CASE WHEN doc_id % 4 = 2 THEN doc_id % 3 + 1
                        WHEN doc_id % 4 = 3 THEN 1
                        ELSE 0 END AS n_mojibake,
                   CASE WHEN doc_id % 4 IN (2, 3) THEN 'mojibake'
                        ELSE 'clean' END AS verdict
            FROM documents
        """,
        # block i of doc: language cycles (doc+i)%4, 2+(doc+2i)%4 lines,
        # line j = 'v{d}_{i}_{j} = {3d+5i+j}  # {j}<9' newline-joined
        "code_block_extract": """
            WITH b AS (SELECT doc_id,
                         unnest(range(0, doc_id % 3 + 1)) AS i
                       FROM documents),
            l AS (SELECT doc_id, i, 2 + (doc_id + 2*i) % 4 AS n FROM b),
            j AS (SELECT doc_id, i, n, unnest(range(0, n)) AS j FROM l)
            SELECT doc_id, i AS block_idx,
              (['python','js','sql','c'])
                [CAST((doc_id + i) % 4 AS INTEGER) + 1] AS language,
              n AS n_lines,
              string_agg('v' || CAST(doc_id AS VARCHAR) || '_'
                || CAST(i AS VARCHAR) || '_' || CAST(j AS VARCHAR)
                || ' = ' || CAST(doc_id*3 + i*5 + j AS VARCHAR)
                || '  # ' || CAST(j AS VARCHAR) || '<9',
                chr(10) ORDER BY j) AS code
            FROM j GROUP BY doc_id, i, n
        """,
        # cluster g = doc//3; g%5=0 breaks member2->member0 iff both
        # present; reciprocal iff the member digraph is complete
        "hreflang_clusters": """
            WITH m AS (SELECT doc_id, doc_id // 3 AS g, doc_id % 3 AS mem
                       FROM documents),
            c AS (SELECT g, count(*) AS n_members,
                    max(CASE WHEN mem = 0 THEN 1 ELSE 0 END) AS has0,
                    max(CASE WHEN mem = 2 THEN 1 ELSE 0 END) AS has2
                  FROM m GROUP BY g)
            SELECT g AS cluster_id, n_members,
              n_members*(n_members-1)
                - (CASE WHEN g % 5 = 0 AND has0 = 1 AND has2 = 1
                   THEN 1 ELSE 0 END) AS n_edges,
              CASE WHEN g % 5 = 0 AND has0 = 1 AND has2 = 1
                   THEN 0 ELSE 1 END AS reciprocal
            FROM c
        """,
        # even doc = Product (price (7d)%9000+100, sku 3d), odd =
        # Article (wordCount 50+d%400); -1 sentinels cross-type
        "microdata_extract": """
            SELECT doc_id,
              CASE WHEN doc_id % 2 = 0 THEN 'Product'
                   ELSE 'Article' END AS item_type,
              CASE WHEN doc_id % 2 = 0 THEN 'P ' ELSE 'A ' END
                || CAST(doc_id AS VARCHAR) AS name,
              CASE WHEN doc_id % 2 = 0
                   THEN 'SKU-' || CAST(doc_id * 3 AS VARCHAR)
                   ELSE '' END AS sku,
              CAST(CASE WHEN doc_id % 2 = 0
                   THEN (doc_id * 7) % 9000 + 100 ELSE -1 END
                   AS BIGINT) AS price_cents,
              CAST(CASE WHEN doc_id % 2 = 1
                   THEN 50 + doc_id % 400 ELSE -1 END
                   AS BIGINT) AS word_count
            FROM documents
        """,
        # pair p = doc//2: even docs canon side, odd docs amp side;
        # p%7=0 re-keys the amp side to p+1e6 (phantom key, stranded
        # canonical)
        "amp_canonical_pairs": """
            WITH c AS (SELECT doc_id // 2 AS pair_key, 1 AS c, 0 AS a
                       FROM documents WHERE doc_id % 2 = 0),
            a AS (SELECT CASE WHEN (doc_id // 2) % 7 = 0
                         THEN doc_id // 2 + 1000000
                         ELSE doc_id // 2 END AS pair_key,
                         0 AS c, 1 AS a
                  FROM documents WHERE doc_id % 2 = 1),
            u AS (SELECT * FROM c UNION ALL SELECT * FROM a)
            SELECT pair_key,
              CAST(max(c) AS BIGINT) AS has_canonical,
              CAST(max(a) AS BIGINT) AS has_amp,
              CAST(CASE WHEN max(c) = 1 AND max(a) = 1
                   THEN 1 ELSE 0 END AS BIGINT) AS consistent
            FROM u GROUP BY pair_key
        """,
        # trail: Home, 1+d%3 categories C{(5d+i)%20}, leaf = the doc
        "breadcrumb_extract": """
            WITH u AS (SELECT doc_id,
                         unnest(range(0, doc_id % 3 + 1)) AS i
                       FROM documents)
            SELECT doc_id, CAST(3 + doc_id % 3 AS BIGINT) AS depth,
              'Home > ' || string_agg(
                'C' || CAST((doc_id*5 + i) % 20 AS VARCHAR),
                ' > ' ORDER BY i)
              || ' > Leaf ' || CAST(doc_id AS VARCHAR) AS path
            FROM u GROUP BY doc_id
        """,
        # og:title stale every 6th doc; og:image absent on d%3=0
        "og_card_audit": """
            SELECT doc_id,
              CAST(CASE WHEN doc_id % 6 = 0 THEN 0 ELSE 1 END
                AS BIGINT) AS title_match,
              CAST(CASE WHEN doc_id % 3 = 0 THEN 0 ELSE 1 END
                AS BIGINT) AS has_image
            FROM documents
        """,
        # the planted short paragraph (every 4th doc) splits the
        # length-gated and density-only extractors; corpus text itself
        # round-trips as exactly one block (the html_main_content
        # invariant)
        "extractor_agreement": """
            SELECT doc_id,
              CAST(CASE WHEN doc_id % 4 = 0 THEN 0 ELSE 1 END
                AS BIGINT) AS agree,
              CAST(1 AS BIGINT) AS n_blocks_a,
              CAST(CASE WHEN doc_id % 4 = 0 THEN 2 ELSE 1 END
                AS BIGINT) AS n_blocks_b
            FROM documents
        """,
        # the heading_outline grid + per-level body: h1 '', h2
        # 'sec body', h3 'sub'
        "section_chunks": """
            WITH d AS (
              SELECT doc_id, doc_id % 3 + 1 AS ns, doc_id % 2 + 1 AS nt
              FROM documents
            ),
            h1 AS (
              SELECT doc_id, 0 AS seq, 1 AS level,
                     'H1 ' || CAST(doc_id AS VARCHAR) AS section_path,
                     '' AS body
              FROM d
            ),
            sec AS (
              SELECT doc_id, nt, unnest(range(0, ns)) AS i FROM d
            ),
            h2 AS (
              SELECT doc_id, 1 + i * (1 + nt) AS seq, 2 AS level,
                     'H1 ' || CAST(doc_id AS VARCHAR) || ' > S '
                       || CAST(doc_id AS VARCHAR) || ' '
                       || CAST(i AS VARCHAR) AS section_path,
                     'sec body' AS body
              FROM sec
            ),
            sub AS (
              SELECT doc_id, nt, i, unnest(range(0, nt)) AS j FROM sec
            ),
            h3 AS (
              SELECT doc_id, 2 + i * (1 + nt) + j AS seq, 3 AS level,
                     'H1 ' || CAST(doc_id AS VARCHAR) || ' > S '
                       || CAST(doc_id AS VARCHAR) || ' '
                       || CAST(i AS VARCHAR) || ' > T '
                       || CAST(doc_id AS VARCHAR) || ' '
                       || CAST(i AS VARCHAR) || ' '
                       || CAST(j AS VARCHAR) AS section_path,
                     'sub' AS body
              FROM sub
            )
            SELECT doc_id, CAST(seq AS BIGINT) AS seq,
                   CAST(level AS BIGINT) AS level, section_path, body
            FROM (SELECT * FROM h1 UNION ALL
                  SELECT * FROM h2 UNION ALL
                  SELECT * FROM h3)
        """,
        # d%3 embeds; provider cycles by (d+i)%3, id = d*7+i; ad
        # iframe + commented-out embed are decoys (never rows)
        "video_embed_extract": """
            WITH e AS (SELECT doc_id, unnest(range(0, doc_id % 3)) AS i
                       FROM documents)
            SELECT doc_id, CAST(i AS BIGINT) AS seq,
              CASE (doc_id + i) % 3 WHEN 0 THEN 'videotube'
                   WHEN 1 THEN 'vidmeo' ELSE 'selfhost' END AS provider,
              CAST(doc_id * 7 + i AS BIGINT) AS video_id
            FROM e
        """,
        # canonical missing every 7th, og:url stale every 5th;
        # agreement needs both present and byte-equal
        "canonical_conflict_audit": """
            SELECT doc_id,
              CAST(CASE WHEN doc_id % 7 = 0 THEN 0 ELSE 1 END
                AS BIGINT) AS has_canonical,
              CAST(1 AS BIGINT) AS has_og_url,
              CAST(CASE WHEN doc_id % 7 <> 0 AND doc_id % 5 <> 0
                   THEN 1 ELSE 0 END AS BIGINT) AS urls_agree
            FROM documents
        """,
        # search form always; login (2 inputs, password) every 4th;
        # subscribe (2 inputs, one hidden) every 6th
        "html_form_extract": """
            SELECT doc_id,
              CAST(1 + CASE WHEN doc_id % 4 = 0 THEN 1 ELSE 0 END
                     + CASE WHEN doc_id % 6 = 0 THEN 1 ELSE 0 END
                AS BIGINT) AS n_forms,
              CAST(CASE WHEN doc_id % 4 = 0 THEN 1 ELSE 0 END
                     + CASE WHEN doc_id % 6 = 0 THEN 1 ELSE 0 END
                AS BIGINT) AS n_post,
              CAST(1 + CASE WHEN doc_id % 4 = 0 THEN 2 ELSE 0 END
                     + CASE WHEN doc_id % 6 = 0 THEN 2 ELSE 0 END
                AS BIGINT) AS n_inputs,
              CAST(CASE WHEN doc_id % 4 = 0 THEN 1 ELSE 0 END
                AS BIGINT) AS has_login,
              CAST(CASE WHEN doc_id % 6 = 0 THEN 1 ELSE 0 END
                AS BIGINT) AS n_hidden
            FROM documents
        """,
        # JS shell every 6th (empty body, 100+(d%10)*17 script bytes);
        # others carry the doc text + a 30-byte analytics stub
        "js_dependence_audit": """
            SELECT doc_id,
              CAST(CASE WHEN doc_id % 6 = 0 THEN 0
                   ELSE length(text) END AS BIGINT) AS body_text_len,
              CAST(CASE WHEN doc_id % 6 = 0
                   THEN 100 + (doc_id % 10) * 17
                   ELSE 30 END AS BIGINT) AS script_bytes,
              CAST(CASE WHEN doc_id % 6 = 0 OR length(text) < 20
                   THEN 1 ELSE 0 END AS BIGINT) AS js_dependent
            FROM documents
        """,
        # d%4+2 sentences, 3+(d+s)%5 words each, syllable LUT over the
        # pinned 8-word list; flesch is the identical IEEE op chain
        "text_readability": """
            WITH s AS (SELECT doc_id,
                         unnest(range(0, doc_id % 4 + 2)) AS s
                       FROM documents),
            w AS (SELECT doc_id, s,
                    unnest(range(0, 3 + (doc_id + s) % 5)) AS w
                  FROM s),
            k AS (SELECT doc_id,
                    CASE (doc_id * 7 + s * 3 + w) % 8
                      WHEN 0 THEN 2 WHEN 1 THEN 4 WHEN 2 THEN 3
                      WHEN 3 THEN 1 WHEN 4 THEN 2 WHEN 5 THEN 2
                      WHEN 6 THEN 4 ELSE 4 END AS syl
                  FROM w)
            SELECT doc_id,
              CAST(doc_id % 4 + 2 AS BIGINT) AS sentences,
              CAST(count(*) AS BIGINT) AS words,
              CAST(sum(syl) AS BIGINT) AS syllables,
              CAST(206.835 AS DOUBLE)
                - CAST(1.015 AS DOUBLE)
                  * (CAST(count(*) AS DOUBLE) / (doc_id % 4 + 2))
                - CAST(84.6 AS DOUBLE)
                  * (CAST(sum(syl) AS DOUBLE) / count(*)) AS flesch
            FROM k GROUP BY doc_id
        """,
        # all-integer features over single-space text; // is floor on
        # both sides (all operands positive); threshold pinned at 5000
        # calibration bins: the quality_lr score expression joined to
        # the composed gopher_gate oracle, fixed-width clamped bins
        "score_calibration_bins": f"""
            WITH gop AS MATERIALIZED ({_gopher_gate_sql()}),
            q AS (
              SELECT doc_id,
                2 * len(string_split(text, ' '))
                + (length(text) - (len(string_split(text, ' ')) - 1))
                    * 1000 // len(string_split(text, ' '))
                + len(list_distinct(string_split(text, ' ')))
                    * 1000 // len(string_split(text, ' '))
                - 2 * (len(list_filter(string_split(text, ' '),
                        x -> x IN ('the','a','of','to','in','and')))
                    * 1000 // len(string_split(text, ' ')))
                  AS score
              FROM documents
            ),
            j AS (
              SELECT q.doc_id,
                     least(greatest((q.score - 3000) // 400, 0), 9)
                         AS bin,
                     CASE WHEN q.score >= 5000 THEN 1 ELSE 0 END
                         AS pred,
                     gop.passed AS gold
              FROM q JOIN gop ON gop.doc_id = q.doc_id
            )
            SELECT CAST(bin AS BIGINT) AS bin,
                   CAST(3000 + bin * 400 AS BIGINT) AS score_lo,
                   count(*) AS n,
                   CAST(sum(gold) AS BIGINT) AS n_gold_pass,
                   CAST(sum(pred) AS BIGINT) AS n_pred_pass,
                   CAST(sum(gold) * 1000000 // count(*) AS BIGINT)
                       AS gold_rate_ppm,
                   CAST(sum(pred) * 1000000 // count(*) AS BIGINT)
                       AS pred_rate_ppm
            FROM j GROUP BY bin
        """,
        "quality_lr_score": """
            WITH g AS (
              SELECT doc_id,
                len(string_split(text, ' ')) AS tok,
                (length(text) - (len(string_split(text, ' ')) - 1))
                  * 1000 // len(string_split(text, ' '))
                  AS mean_wlen_milli,
                len(list_filter(string_split(text, ' '),
                    x -> x IN ('the','a','of','to','in','and')))
                  * 1000 // len(string_split(text, ' ')) AS stop_milli,
                len(list_distinct(string_split(text, ' ')))
                  * 1000 // len(string_split(text, ' '))
                  AS distinct_milli
              FROM documents
            )
            SELECT doc_id, CAST(tok AS BIGINT) AS tok,
              CAST(mean_wlen_milli AS BIGINT) AS mean_wlen_milli,
              CAST(stop_milli AS BIGINT) AS stop_milli,
              CAST(distinct_milli AS BIGINT) AS distinct_milli,
              CAST(2 * tok + mean_wlen_milli + distinct_milli
                   - 2 * stop_milli AS BIGINT) AS score,
              CAST(CASE WHEN 2 * tok + mean_wlen_milli + distinct_milli
                             - 2 * stop_milli >= 5000
                   THEN 1 ELSE 0 END AS BIGINT) AS passed
            FROM g
        """,
        # d%4+1 cues at d*1000+i*2500 ms; S0 voice tag on even cues;
        # NOTE/STYLE decoy blocks never become cues
        "vtt_cue_parse": """
            WITH c AS (SELECT doc_id,
                         unnest(range(0, doc_id % 4 + 1)) AS i
                       FROM documents)
            SELECT doc_id, CAST(i AS BIGINT) AS seq,
              CAST(doc_id * 1000 + i * 2500 AS BIGINT) AS start_ms,
              CAST(doc_id * 1000 + i * 2500 + 2000 AS BIGINT) AS end_ms,
              CASE WHEN i % 2 = 0 THEN 'S0' ELSE '' END AS speaker,
              'cue ' || CAST(doc_id AS VARCHAR) || ' '
                || CAST(i AS VARCHAR) AS cue_text
            FROM c
        """,
        # no-store every 11th; max-age (d%7)*600 otherwise; etag unless
        # d%5=0; policy = the four scheduler buckets
        "http_cache_audit": """
            SELECT doc_id,
              CAST(CASE WHEN doc_id % 11 = 0 THEN 0
                   ELSE (doc_id % 7) * 600 END AS BIGINT) AS max_age,
              CAST(CASE WHEN doc_id % 11 = 0 THEN 1 ELSE 0 END
                AS BIGINT) AS no_store,
              CAST(CASE WHEN doc_id % 5 = 0 THEN 0 ELSE 1 END
                AS BIGINT) AS has_etag,
              CASE WHEN doc_id % 11 = 0 THEN 'no-store'
                   WHEN doc_id % 7 <> 0 THEN 'fresh'
                   WHEN doc_id % 5 <> 0 THEN 'etag-only'
                   ELSE 'unvalidated' END AS policy
            FROM documents
        """,
        # soft dedup: weight = 1000 // copies of the identical text
        "dup_weight_assign": """
            SELECT doc_id,
              CAST(count(*) OVER (PARTITION BY text) AS BIGINT)
                AS cluster_n,
              CAST(1000 // count(*) OVER (PARTITION BY text)
                AS BIGINT) AS weight_milli,
              CAST(CASE WHEN doc_id =
                     min(doc_id) OVER (PARTITION BY text)
                   THEN 1 ELSE 0 END AS BIGINT) AS is_canonical
            FROM documents
        """,
        # hashed-unigram (md5-high-32 % 64) target-vs-raw ppm mass with
        # +1 smoothing; ratio_milli >= 1000 selects
        "dsir_importance_weights": """
            WITH tok AS (
              SELECT doc_id, lang,
                     unnest(string_split(text, ' ')) AS t
              FROM documents
            ),
            tb AS (
              SELECT doc_id, lang,
                CAST(CAST(('0x' || substr(md5(t), 1, 8)) AS UINT32)
                     % 64 AS BIGINT) AS b
              FROM tok
            ),
            cnt AS (
              SELECT b, count(*) FILTER (WHERE lang = 'en') AS tc,
                     count(*) AS rc
              FROM tb GROUP BY b
            ),
            lut AS (
              SELECT g.b,
                (COALESCE(c.tc, 0) + 1) * 1000000
                  // ((SELECT sum(tc) FROM cnt) + 64) AS ppm_t,
                (COALESCE(c.rc, 0) + 1) * 1000000
                  // ((SELECT sum(rc) FROM cnt) + 64) AS ppm_r
              FROM (SELECT unnest(range(0, 64)) AS b) g
              LEFT JOIN cnt c ON c.b = g.b
            ),
            doc AS (
              SELECT tb.doc_id, count(*) AS n_tokens,
                     sum(l.ppm_t) AS st, sum(l.ppm_r) AS sr
              FROM tb JOIN lut l USING (b)
              GROUP BY tb.doc_id
            )
            SELECT doc_id, CAST(n_tokens AS BIGINT) AS n_tokens,
              CAST(st AS BIGINT) AS sum_t_ppm,
              CAST(sr AS BIGINT) AS sum_r_ppm,
              CAST(st * 1000 // sr AS BIGINT) AS ratio_milli,
              CAST(CASE WHEN st * 1000 // sr >= 1000 THEN 1 ELSE 0 END
                AS BIGINT) AS selected
            FROM doc
        """,
        # d%3+1 parts: ctype by (d+i)%2, encoding by i%2, payload text
        # 'mime d part i =ok'; preamble/epilogue never rows
        "email_mime_parse": """
            WITH p AS (SELECT doc_id,
                         unnest(range(0, doc_id % 3 + 1)) AS i
                       FROM documents)
            SELECT doc_id, CAST(i AS BIGINT) AS part_idx,
              CASE WHEN (doc_id + i) % 2 = 0 THEN 'text/plain'
                   ELSE 'text/html' END AS content_type,
              CASE WHEN i % 2 = 0 THEN 'base64'
                   ELSE 'quoted-printable' END AS encoding,
              'mime ' || CAST(doc_id AS VARCHAR) || ' part '
                || CAST(i AS VARCHAR) || ' =ok' AS text
            FROM p
        """,
        # d%4+2 section links + one broken '#missing' every 3rd doc;
        # external fragment decoy never counts
        "toc_anchor_audit": """
            SELECT doc_id,
              CAST(doc_id % 4 + 2
                   + CASE WHEN doc_id % 3 = 0 THEN 1 ELSE 0 END
                AS BIGINT) AS n_anchors,
              CAST(doc_id % 4 + 2 AS BIGINT) AS n_targets,
              CAST(CASE WHEN doc_id % 3 = 0 THEN 1 ELSE 0 END
                AS BIGINT) AS n_broken
            FROM documents
        """,
        # d%5+1 images; image i missing alt when (d+i)%3=0, empty alt
        # when (d+i)%3=1; coverage = real/all in milli (floor)
        "image_alt_audit": """
            WITH im AS (SELECT doc_id,
                          unnest(range(0, doc_id % 5 + 1)) AS i
                        FROM documents),
            g AS (
              SELECT doc_id, count(*) AS n,
                sum(CASE WHEN (doc_id + i) % 3 = 0 THEN 1 ELSE 0 END)
                  AS miss,
                sum(CASE WHEN (doc_id + i) % 3 = 1 THEN 1 ELSE 0 END)
                  AS emp
              FROM im GROUP BY doc_id
            )
            SELECT doc_id, CAST(n AS BIGINT) AS n_images,
              CAST(miss AS BIGINT) AS n_missing,
              CAST(emp AS BIGINT) AS n_empty,
              CAST((n - miss - emp) * 1000 // n AS BIGINT)
                AS coverage_milli
            FROM g
        """,
        # price k = (d*1000+k*777)%1000000+1 cents; USD when (d+k)%2=0
        # else EUR; the 3.5 and 1,999 decoys never match
        "price_extract_normalize": """
            WITH p AS (SELECT doc_id,
                         unnest(range(0, doc_id % 3 + 1)) AS k
                       FROM documents)
            SELECT doc_id, CAST(k AS BIGINT) AS seq,
              CASE WHEN (doc_id + k) % 2 = 0 THEN 'USD'
                   ELSE 'EUR' END AS currency,
              CAST((doc_id * 1000 + k * 777) % 1000000 + 1 AS BIGINT)
                AS value_cents
            FROM p
        """,
        # corpus-wide keep-first over 8-token chunks; rn=1 over
        # (ckey ORDER BY doc_id, j) is the keeper, survivors re-join
        "paragraph_dedup": """
            WITH toks AS (
              SELECT doc_id,
                     string_split_regex(trim(lower(text)), '\\s+') AS ts
              FROM documents
            ),
            tok AS (
              SELECT doc_id, unnest(ts) AS w,
                     generate_subscripts(ts, 1) - 1 AS i
              FROM toks
              WHERE len(ts) > 0 AND ts[1] <> ''
            ),
            ch AS (
              SELECT doc_id, i // 8 AS j,
                     string_agg(w, ' ' ORDER BY i) AS chunk
              FROM tok GROUP BY doc_id, i // 8
            ),
            keyed AS (
              SELECT doc_id, j, chunk,
                     ('0x' || substr(md5(chunk), 1, 16))::UBIGINT AS ckey
              FROM ch
            ),
            marked AS (
              SELECT doc_id, j, chunk,
                     row_number() OVER (
                       PARTITION BY ckey ORDER BY doc_id, j) AS rn
              FROM keyed
            ),
            agg AS (
              SELECT doc_id,
                     count(*) AS n_chunks,
                     sum(CASE WHEN rn > 1 THEN 1 ELSE 0 END) AS n_removed,
                     coalesce(string_agg(
                       CASE WHEN rn = 1 THEN chunk END,
                       ' ' ORDER BY j), '') AS kept_text
              FROM marked GROUP BY doc_id
            )
            SELECT d.doc_id,
                   CAST(coalesce(a.n_chunks, 0) AS BIGINT) AS n_chunks,
                   CAST(coalesce(a.n_removed, 0) AS BIGINT) AS n_removed,
                   coalesce(a.kept_text, '') AS kept_text
            FROM documents d LEFT JOIN agg a USING (doc_id)
        """,
        # spans of 3 tokens every 8, offset d%4; masked text via
        # 1-based inclusive list_slice
        "span_corruption_masks": """
            WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks
                       FROM documents),
            s AS (SELECT doc_id, toks,
                    unnest(range(0,
                      (len(toks) - doc_id % 4 - 3) // 8 + 1)) AS j
                  FROM t WHERE len(toks) >= doc_id % 4 + 3)
            SELECT doc_id, CAST(j AS BIGINT) AS span_idx,
              CAST(j * 8 + doc_id % 4 AS BIGINT) AS start_tok,
              CAST(j * 8 + doc_id % 4 + 3 AS BIGINT) AS end_tok,
              array_to_string(list_slice(toks,
                j * 8 + doc_id % 4 + 1, j * 8 + doc_id % 4 + 3),
                ' ') AS masked_text
            FROM s
        """,
        # NTILE(3) over (score, doc_id) on the ngram_lm_score result —
        # the engine reproduces it via rank*3//N, no global sort
        "lm_score_terciles": f"""
            SELECT doc_id, score_ppm,
              CAST(NTILE(3) OVER (ORDER BY score_ppm, doc_id) - 1
                AS BIGINT) AS tercile
            FROM ({_NGRAM_LM_SQL})
        """,
        # Info dict: title 'Doc d (v d%5)', author A{d%20}, year
        # 2000 + d%30
        "pdf_info_extract": """
            SELECT doc_id,
              'Doc ' || CAST(doc_id AS VARCHAR) || ' (v'
                || CAST(doc_id % 5 AS VARCHAR) || ')' AS title,
              'A' || CAST(doc_id % 20 AS VARCHAR) AS author,
              CAST(2000 + doc_id % 30 AS BIGINT) AS created_year
            FROM documents
        """,
        # refresh edge only on d%3=0 and d%9<>0: delay d%10, target
        # /t/{(11d)%100}
        "meta_refresh_extract": """
            SELECT doc_id, CAST(doc_id % 10 AS BIGINT) AS delay_s,
              'https://r.example.com/t/'
                || CAST((doc_id * 11) % 100 AS VARCHAR) AS target
            FROM documents
            WHERE doc_id % 3 = 0 AND doc_id % 9 <> 0
        """,
        # host h declares 1 + h%3 sitemap urls /sitemap{j}.xml
        "robots_sitemap_discovery": """
            WITH h AS (SELECT DISTINCT doc_id % 50 AS host_idx
                       FROM documents),
            u AS (SELECT host_idx,
                    unnest(range(0, host_idx % 3 + 1)) AS j
                  FROM h)
            SELECT host_idx, j AS sm_idx,
              'https://site' || CAST(host_idx AS VARCHAR)
                || '.example.com/sitemap' || CAST(j AS VARCHAR)
                || '.xml' AS sitemap_url
            FROM u
        """,
        # status: 404 on d%13=0, else 301 on d%7=0, else 200; pdf mime
        # every 4th doc; Location only on the 301 rows
        "http_response_parse": """
            SELECT doc_id,
              CAST(CASE WHEN doc_id % 13 = 0 THEN 404
                   WHEN doc_id % 7 = 0 THEN 301
                   ELSE 200 END AS BIGINT) AS status,
              CASE WHEN doc_id % 4 = 0 THEN 'application/pdf'
                   ELSE 'text/html' END AS content_type,
              CASE WHEN doc_id % 13 <> 0 AND doc_id % 7 = 0
                   THEN 'https://s0.example.com/moved/'
                     || CAST(doc_id AS VARCHAR)
                   ELSE '' END AS location
            FROM documents
        """,
        # t0: /p/{d} hash (13d)%1000; t1: gone on d%11=0, +1 on d%5=0,
        # extra /p/{d}/new (hash d%1000) on d%9=0; -1 = absent side
        "recrawl_diff": """
            WITH p AS (
              SELECT 'https://s' || CAST(doc_id % 7 AS VARCHAR)
                || '.example.com/p/' || CAST(doc_id AS VARCHAR) AS url,
                (13*doc_id) % 1000 AS h
              FROM documents
            ),
            c AS (
              SELECT 'https://s' || CAST(doc_id % 7 AS VARCHAR)
                || '.example.com/p/' || CAST(doc_id AS VARCHAR) AS url,
                CASE WHEN doc_id % 5 = 0 THEN (13*doc_id) % 1000 + 1
                     ELSE (13*doc_id) % 1000 END AS h
              FROM documents WHERE doc_id % 11 <> 0
              UNION ALL
              SELECT 'https://s' || CAST(doc_id % 7 AS VARCHAR)
                || '.example.com/p/' || CAST(doc_id AS VARCHAR)
                || '/new' AS url, doc_id % 1000 AS h
              FROM documents WHERE doc_id % 9 = 0
            )
            SELECT COALESCE(p.url, c.url) AS url,
              CAST(COALESCE(p.h, -1) AS BIGINT) AS h_prev,
              CAST(COALESCE(c.h, -1) AS BIGINT) AS h_curr,
              CASE WHEN p.url IS NULL THEN 'new'
                   WHEN c.url IS NULL THEN 'gone'
                   WHEN p.h = c.h THEN 'unchanged'
                   ELSE 'changed' END AS status
            FROM p FULL OUTER JOIN c ON p.url = c.url
        """,
        # host i of doc: h{(3d+i)%30}.d{(d+i)%8}.{suffix (2d+i)%4 of
        # (com, co.uk, org, net)}; PLD = domain label + suffix
        "domain_pld_rollup": """
            WITH u AS (SELECT doc_id,
                         unnest(range(0, doc_id % 3 + 1)) AS i
                       FROM documents),
            e AS (SELECT 'h' || CAST((3*doc_id + i) % 30 AS VARCHAR)
                    AS sub,
                    'd' || CAST((doc_id + i) % 8 AS VARCHAR) || '.' ||
                    (['com','co.uk','org','net'])
                      [CAST((2*doc_id + i) % 4 AS INTEGER) + 1] AS pld
                  FROM u)
            SELECT pld,
              CAST(count(DISTINCT sub) AS BIGINT) AS n_hosts,
              count(*) AS n_urls
            FROM e GROUP BY pld
        """,
        # link k of doc: host (7d+k)%50, rel variant (3d+k)%5 of
        # ('', nofollow, sponsored, ugc, 'nofollow ugc')
        "link_rel_audit": """
            WITH u AS (SELECT doc_id,
                         unnest(range(0, doc_id % 4 + 1)) AS k
                       FROM documents),
            e AS (SELECT 'host' || CAST((doc_id*7 + k) % 50 AS VARCHAR)
                    || '.example' AS host,
                    CAST((doc_id*3 + k) % 5 AS INTEGER) AS v
                  FROM u)
            SELECT host, count(*) AS n_links,
              CAST(sum(CASE WHEN v = 0 THEN 1 ELSE 0 END) AS BIGINT)
                AS n_follow,
              CAST(sum(CASE WHEN v IN (1, 4) THEN 1 ELSE 0 END)
                AS BIGINT) AS n_nofollow,
              CAST(sum(CASE WHEN v = 2 THEN 1 ELSE 0 END) AS BIGINT)
                AS n_sponsored,
              CAST(sum(CASE WHEN v IN (3, 4) THEN 1 ELSE 0 END)
                AS BIGINT) AS n_ugc
            FROM e GROUP BY host
        """,
        # the messy even-doc re-discovery canonicalizes onto the
        # sitemap's /p/{d}/0 entry (from_link flips to 1, n_hits +1);
        # /u/ rows survive only on even-digit hosts (the robots rule);
        # /about collapses across every third doc
        "crawl_frontier_dedup": """
            WITH sm AS (
              SELECT 'https://site' || CAST(doc_id % 7 AS VARCHAR)
                       || '.example.com/p/' || CAST(doc_id AS VARCHAR)
                       || '/' || CAST(i AS VARCHAR) AS url,
                     1 AS is_s, 0 AS is_l
              FROM (SELECT doc_id, unnest(range(0, doc_id % 4 + 1)) AS i
                    FROM documents)
            ),
            lk AS (
              SELECT 'https://site' || CAST(doc_id % 5 AS VARCHAR)
                       || '.example.com/p/' || CAST(doc_id AS VARCHAR)
                       || '/detail' AS url, 0 AS is_s, 1 AS is_l
              FROM documents
              UNION ALL
              SELECT 'https://site' || CAST(doc_id % 5 AS VARCHAR)
                       || '.example.com/u/' || CAST(doc_id % 50 AS VARCHAR)
                       || '/posts/' || CAST(doc_id AS VARCHAR),
                     0, 1
              FROM documents WHERE (doc_id % 5) % 2 = 0
              UNION ALL
              SELECT 'https://site' || CAST(doc_id % 5 AS VARCHAR)
                       || '.example.com/about', 0, 1
              FROM documents WHERE doc_id % 3 = 0
              UNION ALL
              SELECT 'https://site' || CAST(doc_id % 7 AS VARCHAR)
                       || '.example.com/p/' || CAST(doc_id AS VARCHAR)
                       || '/0', 0, 1
              FROM documents WHERE doc_id % 2 = 0
            ),
            allu AS (
              SELECT * FROM sm UNION ALL SELECT * FROM lk
            )
            SELECT url, max(is_s) AS from_sitemap, max(is_l) AS from_link,
                   count(*) AS n_hits
            FROM allu GROUP BY url
        """,
        # three path shapes per doc collapse to three templates; /about
        # only on doc_id%3==0
        "url_template_mine": """
            WITH t AS (
              SELECT 'site' || CAST(doc_id % 5 AS VARCHAR)
                       || '.example.com' AS host,
                     unnest(CASE WHEN doc_id % 3 = 0
                            THEN ['/p/{n}/detail', '/u/{n}/posts/{n}',
                                  '/about']
                            ELSE ['/p/{n}/detail', '/u/{n}/posts/{n}']
                            END) AS template
              FROM documents
            )
            SELECT host, template, count(*) AS n_urls
            FROM t GROUP BY host, template
        """,
        # depth: html>body>div^k>p gives k+3, the misnested b>i gives 4;
        # tags: html,head,title,body,k divs,p,br,img,b,i = k+9; 2 voids
        "dom_structure_stats": """
            SELECT doc_id,
                   greatest(doc_id % 5 + 3, 4) AS max_depth,
                   doc_id % 5 + 9 AS n_tags,
                   2 AS n_void
            FROM documents
        """,
        # the oracle rebuilds the exact Markdown string: blocks joined
        # by blank lines, list items by newlines
        "html_markdown_render": """
            WITH d AS (
              SELECT doc_id, doc_id % 2 + 1 AS np, doc_id % 3 + 1 AS ni
              FROM documents
            ),
            p AS (
              SELECT doc_id, ni, unnest(range(0, np)) AS i FROM d
            ),
            parts AS (
              SELECT doc_id, i,
                     '## Part ' || CAST(i AS VARCHAR) || chr(10) || chr(10)
                     || array_to_string(
                          list_transform(range(0, ni), j ->
                            '- point ' || CAST(doc_id AS VARCHAR) || ' '
                            || CAST(i AS VARCHAR) || ' '
                            || CAST(j AS VARCHAR)),
                          chr(10)) AS part_md
              FROM p
            ),
            agg AS (
              SELECT doc_id,
                     array_to_string(list(part_md ORDER BY i),
                                     chr(10) || chr(10)) AS parts_md
              FROM parts GROUP BY doc_id
            ),
            md AS (
              SELECT d.doc_id,
                     '# Doc ' || CAST(d.doc_id AS VARCHAR)
                     || chr(10) || chr(10)
                     || 'Intro **bold ' || CAST(d.doc_id AS VARCHAR)
                     || '** and *em ' || CAST(d.doc_id AS VARCHAR)
                     || '* text.' || chr(10) || chr(10)
                     || agg.parts_md || chr(10) || chr(10)
                     || 'See [ref ' || CAST(d.doc_id AS VARCHAR)
                     || '](https://x.example.com/'
                     || CAST(d.doc_id AS VARCHAR) || ').' AS markdown
              FROM d JOIN agg USING (doc_id)
            )
            SELECT doc_id, markdown,
                   length(markdown) - length(replace(markdown, chr(10),
                                                     '')) + 1 AS n_lines
            FROM md
        """,
        # terminator cycles . ! ? by sentence index; every sentence is
        # the same 9-token decoy-planted template
        "sentence_split": """
            WITH u AS (
              SELECT doc_id, unnest(range(0, doc_id % 4 + 1)) AS s
              FROM documents
            )
            SELECT doc_id, s AS sent_idx, 9 AS n_tokens,
                   'No. ' || CAST(doc_id AS VARCHAR) || ' item '
                   || CAST(s AS VARCHAR)
                   || ' cost 3.5 units e.g. spares'
                   || ['.', '!', '?'][s % 3 + 1] AS sentence
            FROM u
        """,
        # chain structure: block head h = doc - doc%4 starts a chain of
        # (h//4)%3+2 pages; members past the length are standalone
        "pagination_chain": """
            WITH d AS (
              SELECT doc_id,
                     doc_id - doc_id % 4 AS h,
                     ((doc_id - doc_id % 4) // 4) % 3 + 2 AS len
              FROM documents
            )
            SELECT doc_id,
                   CASE WHEN doc_id % 4 < len THEN h
                        ELSE doc_id END AS chain_head,
                   CASE WHEN doc_id % 4 < len THEN len
                        ELSE 1 END AS chain_len,
                   CASE WHEN doc_id % 4 < len THEN doc_id % 4
                        ELSE 0 END AS pos
            FROM d
        """,
        # optional fields: lastmod absent on (doc_id+i)%5==0, priority
        # on (doc_id+i)%3==0; priority 0.p crosses as the integer p*10
        "sitemap_parse": """
            WITH u AS (
              SELECT doc_id, unnest(range(0, doc_id % 4 + 1)) AS i
              FROM documents
            )
            SELECT doc_id, i AS url_idx,
                   'https://site' || CAST(doc_id % 7 AS VARCHAR)
                     || '.example.com/p/' || CAST(doc_id AS VARCHAR)
                     || '/' || CAST(i AS VARCHAR) AS loc,
                   CASE WHEN (doc_id + i) % 5 = 0 THEN '' ELSE
                     '2024-'
                     || lpad(CAST((doc_id + i) % 12 + 1 AS VARCHAR),
                             2, '0')
                     || '-'
                     || lpad(CAST((doc_id * 3 + i) % 28 + 1 AS VARCHAR),
                             2, '0') END AS lastmod,
                   CASE WHEN (doc_id + i) % 3 = 0 THEN -1
                        ELSE ((doc_id + i) % 10) * 10 END AS priority_pct
            FROM u
        """,
        # CDATA and entity-escaped titles decode to the same string;
        # the truncated 7th-doc tail item never matches a complete block
        "rss_feed_parse": """
            WITH u AS (
              SELECT doc_id, unnest(range(0, doc_id % 3 + 1)) AS i
              FROM documents
            )
            SELECT doc_id, i AS item_idx,
                   'T ' || CAST(doc_id AS VARCHAR) || ' '
                     || CAST(i AS VARCHAR) || ' & more' AS title,
                   'https://feed.example.com/a/'
                     || CAST(doc_id AS VARCHAR) || '/'
                     || CAST(i AS VARCHAR) AS link,
                   'g-' || CAST(doc_id AS VARCHAR) || '-'
                     || CAST(i AS VARCHAR) AS guid,
                   (doc_id + i) % 28 + 1 AS pub_day
            FROM u
        """,
        "html_table_extract": """
            WITH u AS (
              SELECT doc_id, lang, source,
                     unnest(range(0, doc_id % 3 + 1)) AS r
              FROM documents
            )
            SELECT doc_id, r AS row_idx, doc_id * 10 + r AS cell_id,
                   lang AS cell_lang,
                   source || '-' || CAST(r AS VARCHAR) AS cell_src
            FROM u
        """,
        "doc_normalize": """
            SELECT doc_id, nfc_normalize(text) AS text_nfc,
                   length(nfc_normalize(text)) AS n_chars_nfc
            FROM documents
        """,
        # batched multi-query exact top-k: same rank rule per query
        "ann_topk_multi": """
            SELECT query_id, vec_id, sim FROM (
              SELECT q.vec_id AS query_id, e.vec_id,
                     round(list_cosine_similarity(
                         CAST(e.embedding AS DOUBLE[]),
                         CAST(q.embedding AS DOUBLE[])), 4) AS sim,
                     row_number() OVER (
                       PARTITION BY q.vec_id
                       ORDER BY round(list_cosine_similarity(
                           CAST(e.embedding AS DOUBLE[]),
                           CAST(q.embedding AS DOUBLE[])), 4) DESC,
                           e.vec_id
                     ) AS rn
              FROM embeddings e
              JOIN embeddings q ON q.vec_id IN (0, 1, 2, 3)
                               AND e.vec_id <> q.vec_id
            ) WHERE rn <= 5
        """,
        # exact kNN label vote: same rounded-sim rank rule as
        # ann_topk_multi; vote ties break to the smallest label
        "knn_label_predict": """
            WITH sims AS (
              SELECT q.vec_id AS query_id,
                     CAST(q.label AS BIGINT) AS query_label,
                     e.vec_id AS nbr_id,
                     CAST(e.label AS BIGINT) AS nbr_label,
                     round(list_cosine_similarity(
                         CAST(e.embedding AS DOUBLE[]),
                         CAST(q.embedding AS DOUBLE[])), 4) AS sim
              FROM embeddings e JOIN embeddings q ON e.vec_id <> q.vec_id
            ),
            topk AS (
              SELECT * FROM (
                SELECT *, row_number() OVER (
                  PARTITION BY query_id ORDER BY sim DESC, nbr_id) AS rn
                FROM sims) WHERE rn <= 5
            ),
            votes AS (
              SELECT query_id, query_label, nbr_label,
                     CAST(count(*) AS BIGINT) AS votes
              FROM topk GROUP BY 1, 2, 3
            ),
            pred AS (
              SELECT *, row_number() OVER (
                PARTITION BY query_id
                ORDER BY votes DESC, nbr_label) AS rn
              FROM votes
            )
            SELECT query_id AS vec_id, nbr_label AS pred_label, votes,
                   query_label AS true_label,
                   CAST(nbr_label = query_label AS BIGINT) AS correct
            FROM pred WHERE rn = 1
        """,
        # squared distance to the label centroid, per-label rollup +
        # the most-outlying member (ties toward the smaller vec_id)
        "embedding_outlier_audit": """
            WITH e AS (SELECT vec_id, label,
                         CAST(embedding AS DOUBLE[]) AS emb
                       FROM embeddings),
            d AS (SELECT vec_id, label, emb,
                    unnest(range(0, len(emb))) AS i
                  FROM e),
            x AS (SELECT vec_id, label, i,
                    emb[CAST(i AS INTEGER) + 1] AS v
                  FROM d),
            c AS (SELECT label, i, avg(v) AS cv FROM x
                  GROUP BY label, i),
            dist AS (SELECT x.vec_id, x.label,
                       sum((x.v - c.cv) * (x.v - c.cv)) AS d2
                     FROM x JOIN c ON x.label = c.label AND x.i = c.i
                     GROUP BY x.vec_id, x.label),
            sel AS (SELECT label, vec_id, d2, row_number() OVER
                      (PARTITION BY label ORDER BY d2 DESC, vec_id)
                      AS rn
                    FROM dist)
            SELECT dist.label, count(*) AS n,
              round(avg(dist.d2), 4) AS mean_dist2,
              round(max(dist.d2), 4) AS max_dist2,
              CAST(min(CASE WHEN sel.rn = 1 THEN sel.vec_id END)
                AS BIGINT) AS outlier_vec_id
            FROM dist JOIN sel ON dist.label = sel.label
              AND dist.vec_id = sel.vec_id
            GROUP BY dist.label
        """,
        # even vec_ids = source side, odd = target; ratio margin
        # cos/((fwd_k + bwd_k)/2) with k=4, accept > 1.02
        "bitext_margin_mine": """
            WITH a AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e
                       FROM embeddings WHERE vec_id % 2 = 0),
            b AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e
                  FROM embeddings WHERE vec_id % 2 = 1),
            c AS (SELECT a.vec_id AS xa, b.vec_id AS yb,
                    list_cosine_similarity(a.e, b.e) AS s
                  FROM a, b),
            fr AS (SELECT xa, s, row_number() OVER
                     (PARTITION BY xa ORDER BY s DESC, yb) AS rn
                   FROM c),
            fwd AS (SELECT xa, avg(s) AS m FROM fr WHERE rn <= 4
                    GROUP BY xa),
            br AS (SELECT yb, s, row_number() OVER
                     (PARTITION BY yb ORDER BY s DESC, xa) AS rn
                   FROM c),
            bwd AS (SELECT yb, avg(s) AS m FROM br WHERE rn <= 4
                    GROUP BY yb),
            sc AS (SELECT c.xa, c.yb,
                     c.s / ((fwd.m + bwd.m) / 2) AS margin
                   FROM c JOIN fwd USING (xa)
                   JOIN bwd ON c.yb = bwd.yb),
            best AS (SELECT xa, yb, margin, row_number() OVER
                       (PARTITION BY xa ORDER BY margin DESC, yb) AS rn
                     FROM sc)
            SELECT xa AS src_id, yb AS dst_id,
              round(margin, 4) AS margin,
              CAST(CASE WHEN margin > 1.02 THEN 1 ELSE 0 END AS BIGINT)
                AS accepted
            FROM best WHERE rn = 1
        """,
        "ann_topk_filtered": """
            SELECT vec_id,
                   round(list_cosine_similarity(
                       CAST(embedding AS DOUBLE[]),
                       (SELECT CAST(embedding AS DOUBLE[]) FROM embeddings
                        WHERE vec_id = 0)), 4) AS sim
            FROM embeddings
            WHERE vec_id <> 0 AND label = 3
            ORDER BY sim DESC, vec_id
            LIMIT 10
        """,
        "ann_topk_brute": """
            SELECT vec_id,
                   round(list_cosine_similarity(
                       CAST(embedding AS DOUBLE[]),
                       (SELECT CAST(embedding AS DOUBLE[]) FROM embeddings
                        WHERE vec_id = 0)), 4) AS sim
            FROM embeddings
            WHERE vec_id <> 0
            ORDER BY sim DESC, vec_id
            LIMIT 10
        """,
        # stage 1: brute top-40 candidate set; stage 2: even-dimension
        # cosine rerank of those candidates only; both orderings on
        # (round(sim,4) DESC, vec_id)
        "rerank_two_stage": """
            WITH cands AS (
              SELECT vec_id,
                     round(list_cosine_similarity(
                         CAST(embedding AS DOUBLE[]),
                         (SELECT CAST(embedding AS DOUBLE[])
                          FROM embeddings WHERE vec_id = 0)), 4) AS sim1
              FROM embeddings
              WHERE vec_id <> 0
              ORDER BY sim1 DESC, vec_id
              LIMIT 40
            ),
            even AS (
              SELECT vec_id, list(v ORDER BY i) AS ev
              FROM (
                SELECT vec_id,
                       CAST(unnest(embedding) AS DOUBLE) AS v,
                       generate_subscripts(embedding, 1) AS i
                FROM embeddings
              )
              WHERE i % 2 = 1
              GROUP BY vec_id
            ),
            qe AS (SELECT ev FROM even WHERE vec_id = 0)
            SELECT c.vec_id, c.sim1,
                   round(list_cosine_similarity(
                       e.ev, (SELECT ev FROM qe)), 4) AS sim2
            FROM cands c JOIN even e USING (vec_id)
            ORDER BY sim2 DESC, c.vec_id
            LIMIT 10
        """,
        "label_centroids": """
            SELECT label, count(*) AS n,
                   round(avg(embedding[1]), 4) AS mean_dim0
            FROM embeddings GROUP BY label
        """,
        "embedding_dup_pairs": """
            SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
                   round(list_cosine_similarity(
                       CAST(a.embedding AS DOUBLE[]),
                       CAST(b.embedding AS DOUBLE[])), 4) AS sim
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(
                       CAST(a.embedding AS DOUBLE[]),
                       CAST(b.embedding AS DOUBLE[])) >= 0.4
        """,
        # connected components over the exact cosine pair graph via
        # recursive min-label propagation (cf. minhash_dedup's oracle)
        "embedding_dup_clusters": """
            WITH RECURSIVE pairs AS MATERIALIZED (
              SELECT a.vec_id AS vec_a, b.vec_id AS vec_b
              FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
              WHERE list_cosine_similarity(
                         CAST(a.embedding AS DOUBLE[]),
                         CAST(b.embedding AS DOUBLE[])) >= 0.4
            ),
            nodes AS (
              SELECT DISTINCT vec_id FROM (
                SELECT vec_a AS vec_id FROM pairs
                UNION ALL SELECT vec_b FROM pairs)
            ),
            edges AS MATERIALIZED (
              SELECT vec_a AS a, vec_b AS b FROM pairs
              UNION ALL SELECT vec_b, vec_a FROM pairs
            ),
            walk(vec_id, r) AS (
              SELECT vec_id, vec_id FROM nodes
              UNION
              SELECT e.b, w.r FROM walk w JOIN edges e ON e.a = w.vec_id
            )
            SELECT vec_id, min(r) AS cluster_rep FROM walk GROUP BY vec_id
        """,
    }
