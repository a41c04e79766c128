"""Seeded benchmark inputs, their analytic truth, and the output check.

Every workload is a pure function of ``(workload, seed)`` at a fixed size:
the documents table the pipeline reads, the media payloads it fetches from
a ``DirMediaStore`` directory, and the expected output documents.  The
truth comes from ``tensorflow_ocr_ray.fixtures`` (page text derived from
render geometry, never from running the OCR), so the check is independent
of the code under test.

Generating inputs is corpus preparation, not pipeline work: it runs before
any timed window and is cached on disk, keyed by (workload, seed, size).
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# Documents per workload.  Fixed, never derived from the host, so a seed
# names the same inputs everywhere; small enough that one execution takes
# 2-3 s on one core of an x86 host.
SIZES = {"ocr_tiff_skewed": 200, "web_text": 6000}

# ocr_tiff_skewed: one document in GIANT_EVERY carries GIANT_PAGES pages
GIANT_EVERY = 200
GIANT_PAGES = 200

# generated inputs kept on disk; older entries are evicted past this count
CACHE_ENTRIES = 12


@dataclass
class Inputs:
    docs: pa.Table  # pipeline input: (doc_id, spans)
    truth: pa.Table  # expected output, same schema
    media_dir: str  # DirMediaStore root holding every media payload
    n_pages: int
    n_html: int


def _scan_payload(ref: str) -> bytes:
    """The fixture page of ``ref`` stored as a scanner would store it:
    G4 for bitonal pages, LZW for gray ones.  Both are lossless, so the
    analytic truth of ``ref`` still holds."""
    from tensorflow_ocr_ray.core.raster import encode_tiff
    from tensorflow_ocr_ray.fixtures import page_spec_for_ref, render_page

    spec = page_spec_for_ref(ref)
    img = render_page(spec)
    if spec.gray:
        gray = np.where(img > 0, 40, 250).astype(np.uint8)
        return encode_tiff(gray, bilevel=False, compression="lzw")
    return encode_tiff(img, bilevel=True, compression="g4")


def _skewed(n: int, seed: int):
    """``n`` documents of one page plus 0-3 text spans each, except that
    ``n // GIANT_EVERY`` of them carry ``GIANT_PAGES`` pages."""
    from tensorflow_ocr_ray.fixtures import (
        DOCUMENTS_SCHEMA,
        WORDLIST,
        truth_for_ref,
    )

    rng = np.random.Generator(np.random.PCG64(seed))
    giants = set(
        rng.choice(n, size=max(1, n // GIANT_EVERY), replace=False).tolist()
    )
    rows, truth_rows, refs = [], [], []
    for d in range(n):
        doc_id = f"scan-{seed}-{d:06d}"
        kinds = ["media"] * (GIANT_PAGES if d in giants else 1)
        kinds += ["text"] * int(rng.integers(0, 4))
        rng.shuffle(kinds)
        spans, truth_spans = [], []
        for s, kind in enumerate(kinds):
            if kind == "media":
                ref = f"{doc_id}-{s}"
                refs.append(ref)
                span = {"kind": kind, "text": "", "media_ref": ref, "offset": s}
                truth_spans.append(dict(span, text=truth_for_ref(ref)))
            else:
                words = rng.integers(0, len(WORDLIST), int(rng.integers(2, 8)))
                text = " ".join(WORDLIST[int(w)] for w in words)
                span = {"kind": kind, "text": text, "media_ref": "", "offset": s}
                truth_spans.append(span)
            spans.append(span)
        rows.append({"doc_id": doc_id, "spans": spans})
        truth_rows.append({"doc_id": doc_id, "spans": truth_spans})
    docs = pa.Table.from_pylist(rows, schema=DOCUMENTS_SCHEMA)
    truth = pa.Table.from_pylist(truth_rows, schema=DOCUMENTS_SCHEMA)
    return docs, truth, ((r, _scan_payload(r)) for r in refs)


def _web(n: int, seed: int):
    """The extraction corpus with its media spans removed, so OCR is
    bypassed.  The truth is the clean corpus relabelled ``html``: no page
    is rendered for it.  Documents whose spans were all media come out
    empty, which the pipeline must carry through as empty span lists."""
    from tensorflow_ocr_ray.fixtures import (
        DOCUMENTS_SCHEMA,
        generate_documents,
        generate_web_documents,
    )

    def text_only(table: pa.Table, relabel: bool) -> pa.Table:
        rows = table.to_pylist()
        for row in rows:
            row["spans"] = [
                dict(s, kind="html") if relabel else s
                for s in row["spans"]
                if s["kind"] != "media"
            ]
        return pa.Table.from_pylist(rows, schema=DOCUMENTS_SCHEMA)

    docs = text_only(generate_web_documents(n, seed), relabel=False)
    truth = text_only(generate_documents(n, seed), relabel=True)
    return docs, truth, iter(())


_MAKERS = {"ocr_tiff_skewed": _skewed, "web_text": _web}


def _count_kind(docs: pa.Table, kind: str) -> int:
    return sum(
        1 for row in docs.column("spans").to_pylist() for s in row
        if s["kind"] == kind
    )


def load_inputs(workload: str, seed: int, cache_root: str) -> Inputs:
    """The inputs of ``(workload, seed)``, generated on first use."""
    from tensorflow_ocr_ray.state.media import DirMediaStore

    n = SIZES[workload]
    entry = os.path.join(cache_root, f"{workload}-s{seed}-n{n}")
    if not os.path.exists(os.path.join(entry, "meta.json")):
        os.makedirs(cache_root, exist_ok=True)
        tmp = f"{entry}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        docs, truth, payloads = _MAKERS[workload](n, seed)
        media = os.path.join(tmp, "media")
        os.makedirs(media)
        for ref, payload in payloads:
            DirMediaStore.put(media, ref, payload)
        pq.write_table(docs, os.path.join(tmp, "docs.parquet"))
        pq.write_table(truth, os.path.join(tmp, "truth.parquet"))
        meta = {"pages": _count_kind(docs, "media"),
                "html": _count_kind(docs, "html")}
        with open(os.path.join(tmp, "meta.json"), "w") as f:
            json.dump(meta, f)
        shutil.rmtree(entry, ignore_errors=True)
        os.rename(tmp, entry)
        _evict(cache_root, keep=entry)
    os.utime(entry)
    with open(os.path.join(entry, "meta.json")) as f:
        meta = json.load(f)
    return Inputs(
        docs=pq.read_table(os.path.join(entry, "docs.parquet")),
        truth=pq.read_table(os.path.join(entry, "truth.parquet")),
        media_dir=os.path.join(entry, "media"),
        n_pages=meta["pages"],
        n_html=meta["html"],
    )


def _evict(cache_root: str, keep: str) -> None:
    entries = sorted(
        (os.path.join(cache_root, e) for e in os.listdir(cache_root)),
        key=os.path.getmtime,
        reverse=True,
    )
    for old in entries[CACHE_ENTRIES:]:
        if old != keep:
            shutil.rmtree(old, ignore_errors=True)


# ---------------------------------------------------------------- check --

def _span_key(spans: list[dict]) -> tuple:
    """Span-sequence identity: ``(kind, text, media_ref)`` in list order,
    which carries the order component of the equality."""
    return tuple((s["kind"], s["text"], s["media_ref"]) for s in spans)


def truth_index(truth: pa.Table) -> dict[str, tuple]:
    ids = truth.column("doc_id").to_pylist()
    spans = truth.column("spans").to_pylist()
    return {
        d: _span_key(sorted(s, key=lambda x: x["offset"]))
        for d, s in zip(ids, spans)
    }


def count_failed(batches: list[pa.Table], truth: dict[str, tuple]) -> int:
    """Documents of ``truth`` that are missing from the output, appear more
    than once, or are not span-equal; output rows for unknown documents
    count too."""
    got: dict[str, list] = {}
    for batch in batches:
        for doc_id, spans in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("spans").to_pylist(),
        ):
            got.setdefault(doc_id, []).append(_span_key(spans or []))
    unknown = sum(len(v) for d, v in got.items() if d not in truth)
    wrong = sum(1 for d, want in truth.items() if got.get(d) != [want])
    return unknown + wrong
