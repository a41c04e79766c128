"""The traced run's in-process half: spans around each layer's entry points.

The package carries no instrumentation.  ``Tracer.install`` wraps the
public entry points of each layer from here, by replacing the attribute
the caller looks up (``core.page`` imports its helpers by name, so those
are wrapped on ``core.page``), and ``uninstall`` restores them.

``replay`` runs the flagship's steps in this one process, in plan order:
explode, html strip (web corpus), the scorer stage over 16-row batches,
reassembly.  Spans stay in memory and are written out at the end.  A
layer's self time is its span's duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import json
import statistics
import struct
import time

import pyarrow as pa

from perfbench.session import BATCH_SIZE

# spans that belong to one page carry its media_ref and doc_id
_PAGE_SCOPED = {
    "page.ocr", "raster.decode", "raster.deskew", "segment.init",
    "segment.find_lines", "features.build_tuples", "segment.split_wide",
    "segment.narrow", "knn.ocr_values", "assemble.page_text",
}
_TIFF_CODECS = {1: "none", 4: "g4", 5: "lzw", 32773: "packbits"}


def payload_codec(payload: bytes) -> str:
    """Container and compression of a media payload, from its header."""
    order = {b"II*\x00": "<", b"MM\x00*": ">"}.get(payload[:4])
    if order is None:
        return payload[:4].decode("latin-1")
    (ifd,) = struct.unpack(order + "I", payload[4:8])
    (n,) = struct.unpack(order + "H", payload[ifd:ifd + 2])
    for i in range(n):
        entry = payload[ifd + 2 + 12 * i: ifd + 14 + 12 * i]
        if struct.unpack(order + "H", entry[:2])[0] == 259:
            comp = struct.unpack(order + "H", entry[8:10])[0]
            return _TIFF_CODECS.get(comp, str(comp))
    return "none"


class Tracer:
    def __init__(self, doc_of_ref: dict[str, str],
                 truth_of_ref: dict[str, str]):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._doc_of_ref = doc_of_ref
        self._truth_of_ref = truth_of_ref
        self._ref = ""  # media_ref of the page being processed

    # ------------------------------------------------------- wrapping --
    def _wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            rec = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(),
            }
            if name in _PAGE_SCOPED:
                rec["media_ref"] = self._ref
                rec["doc_id"] = self._doc_of_ref.get(self._ref, "")
            self.spans.append(rec)
            self._stack.append(rec["id"])
            try:
                result = orig(*args, **kwargs)
            finally:
                self._stack.pop()
                rec["end"] = time.perf_counter()
            if attrs is not None:
                rec.update(attrs(args, result))
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, orig))

    def _on_fetch(self, args, result) -> dict:
        self._ref = args[1]
        return {"media_ref": self._ref,
                "doc_id": self._doc_of_ref.get(self._ref, "")}

    def _on_page(self, args, result) -> dict:
        return {"glyphs": result.n_glyphs,
                "ok": result.text == self._truth_of_ref.get(self._ref)}

    def install(self) -> None:
        from tensorflow_ocr_ray.core import page
        from tensorflow_ocr_ray.core.knn import FontIndex
        from tensorflow_ocr_ray.core.segment import PageSegmenter
        from tensorflow_ocr_ray.pipelines import extract, ocr_pipeline
        from tensorflow_ocr_ray.stages import ocr_stages
        from tensorflow_ocr_ray.state.media import DirMediaStore

        w = self._wrap
        # pipelines.ocr_pipeline / pipelines.extract
        w(ocr_pipeline, "explode_documents", "pipeline.explode",
          lambda a, r: {"rows": r.num_rows})
        w(ocr_pipeline, "reassemble_group", "pipeline.reassemble",
          lambda a, r: {"rows": a[0].num_rows})
        w(extract, "strip_html_spans", "extract.strip_batch")
        w(extract, "extract_main_content", "html.strip",
          lambda a, r: {"bytes_in": len(a[0].encode()),
                        "bytes_out": len(r.encode())})
        # stages.ocr_stages, state.media
        w(ocr_stages.OcrSpanStage, "__call__", "stage.batch",
          lambda a, r: {"rows": a[1].num_rows})
        w(DirMediaStore, "get", "media.get", self._on_fetch)
        # core.page and the per-page layers it calls
        w(ocr_stages, "ocr_payload", "page.ocr", self._on_page)
        w(page, "decode_payload_pages", "raster.decode",
          lambda a, r: {"codec": payload_codec(a[0]), "pages": len(r)})
        w(page, "deskew", "raster.deskew")
        w(PageSegmenter, "__init__", "segment.init")
        w(PageSegmenter, "find_lines", "segment.find_lines")
        w(PageSegmenter, "build_tuples", "features.build_tuples")
        w(PageSegmenter, "split_wide_glyphs", "segment.split_wide")
        w(PageSegmenter, "narrow_glyphs", "segment.narrow")
        w(FontIndex, "ocr_values", "knn.ocr_values")
        w(page, "assemble_page_text", "assemble.page_text")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def reset(self) -> None:
        self.spans, self._stack, self._ref = [], [], ""

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")

    # -------------------------------------------------------- metrics --
    def layer_metrics(self, n_html: int) -> dict[str, float]:
        dur = {r["id"]: r["end"] - r["start"] for r in self.spans}
        child = dict.fromkeys(dur, 0.0)
        for r in self.spans:
            if r["parent"] is not None:
                child[r["parent"]] += dur[r["id"]]
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        by_name: dict[str, list] = {}
        for r in self.spans:
            n = r["name"]
            total[n] = total.get(n, 0.0) + dur[r["id"]]
            self_s[n] = self_s.get(n, 0.0) + dur[r["id"]] - child[r["id"]]
            by_name.setdefault(n, []).append(r)

        pages = by_name.get("page.ocr", [])
        n_pages = len(pages)

        def ms_per_page(*names: str) -> float:
            s = sum(self_s.get(n, 0.0) for n in names)
            return 1000.0 * s / n_pages if n_pages else 0.0

        def decode_ms(codec: str) -> float:
            d = [dur[r["id"]] for r in by_name.get("raster.decode", [])
                 if r["codec"] == codec]
            return 1000.0 * sum(d) / len(d) if d else 0.0

        def ms_per_kspan(name: str) -> float:
            rows = sum(r["rows"] for r in by_name.get(name, []))
            return 1e6 * self_s.get(name, 0.0) / rows if rows else 0.0

        html = by_name.get("html.strip", [])
        kept = sum(r["bytes_out"] for r in html)
        seen = sum(r["bytes_in"] for r in html)
        batches = [1000.0 * dur[r["id"]] for r in by_name.get("stage.batch", [])]
        page_total = total.get("page.ocr", 0.0)
        return {
            "media.get_ms_per_page": ms_per_page("media.get"),
            "raster.decode_ms_per_page": ms_per_page("raster.decode"),
            "raster.decode_g4_ms_per_page": decode_ms("g4"),
            "raster.decode_lzw_ms_per_page": decode_ms("lzw"),
            "raster.deskew_calls": float(len(by_name.get("raster.deskew", []))),
            "segment.init_ms_per_page": ms_per_page("segment.init"),
            "segment.find_lines_ms_per_page": ms_per_page("segment.find_lines"),
            "segment.split_narrow_ms_per_page": ms_per_page(
                "segment.split_wide", "segment.narrow"),
            "segment.glyphs_per_page": (
                sum(r["glyphs"] for r in pages) / n_pages if n_pages else 0.0),
            "features.build_tuples_ms_per_page": ms_per_page(
                "features.build_tuples"),
            "knn.ocr_values_ms_per_page": ms_per_page("knn.ocr_values"),
            "assemble.ms_per_page": ms_per_page("assemble.page_text"),
            "page.ocr_ms_per_page": (
                1000.0 * page_total / n_pages if n_pages else 0.0),
            "page.self_ms_per_page": ms_per_page("page.ocr"),
            "page.layer_cover_frac": (
                1.0 - self_s["page.ocr"] / page_total if page_total else 0.0),
            "page.ok_frac": (
                sum(1 for r in pages if r["ok"]) / n_pages if n_pages else 0.0),
            "html.strip_us_per_span": (
                1e6 * self_s.get("html.strip", 0.0) / n_html if n_html else 0.0),
            "html.bytes_kept_frac": kept / seen if seen else 0.0,
            "pipeline.explode_ms_per_kspan": ms_per_kspan("pipeline.explode"),
            "pipeline.reassemble_ms_per_kspan": ms_per_kspan(
                "pipeline.reassemble"),
            "stage.batch_ms_p50": statistics.median(batches) if batches else 0.0,
            "stage.batches": float(len(batches)),
        }


def replay(workload: str, docs: pa.Table, media_dir: str) -> pa.Table:
    """The flagship's steps in plan order, in this process.  Module
    attributes are looked up at call time so installed wrappers apply."""
    from tensorflow_ocr_ray.pipelines import extract, ocr_pipeline
    from tensorflow_ocr_ray.stages.ocr_stages import OcrSpanStage

    stage = OcrSpanStage(media_spec={"kind": "dir", "path": media_dir})
    spans = ocr_pipeline.explode_documents(docs)
    if workload == "web_text":
        spans = extract.strip_html_spans(spans)
    scored = [
        stage(spans.slice(i, BATCH_SIZE))
        for i in range(0, spans.num_rows, BATCH_SIZE)
    ]
    return ocr_pipeline.reassemble_group(pa.concat_tables(scored))
