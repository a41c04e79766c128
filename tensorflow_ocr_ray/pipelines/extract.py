"""Main-content extraction over interleaved documents.

The north-star shape (BASELINE.json north_rule): documents are span
sequences mixing modalities — ``html`` spans carry raw markup (chrome:
nav/header/aside/footer, script/style noise), ``media`` spans reference
scanned-page payloads, plain ``text`` spans are already clean.  One
pipeline, :func:`ocr_documents`, extracts everything:

- ``html``  → DOM-block boilerplate strip (:func:`strip_html_spans` over
  ``functions/html_extract``, readability-style link-density
  heuristics), one native kernel call per block right after the
  explode;
- ``media`` → the OCR scorer stage (segmentation → kNN/CNN classify →
  line assembly), the heavy stateful stage (reference recognition path,
  ``main/ocr.c``);
- ``text``  → passes through untouched.

Span-sequence equality ``(kind, text, media_ref, order)`` is preserved
exactly — the strip rewrites only ``text`` of ``html`` rows, and a block
without html rows passes it unchanged.

Scale note: the strip is per-string work with no state, so it costs
task time in the same task as the scorer; html-heavy corpora shift time
within that task, never into a shuffle.

The rest of the module holds the markup and layout queries of the
registry: PDF layout text, html tables and links, caption pairs, web
curation and span-kind transitions.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from tensorflow_ocr_ray.functions.html_extract import (
    extract_main_content,
    main_content_array,
)
from tensorflow_ocr_ray.pipelines.ocr_pipeline import ocr_documents

HTML_KIND = "html"


def strip_html_spans(batch: pa.Table) -> pa.Table:
    """Span-stream stage: rows with kind==``html`` get their ``text``
    replaced by the boilerplate-stripped main content; every other row
    passes through byte-identical.

    The mask is Arrow-vectorized, and the html rows' strings are stripped
    by one ``html_strip`` kernel call over their Arrow buffers (scan,
    gate and join in C, like the OCR decode it sits next to); no span
    crosses into Python unless the kernel leaves it (a NUL or a
    non-ASCII byte, or a kept block with an ``&``), and those go through
    this module's ``extract_main_content`` one by one.  The results are
    written back in place with ``replace_with_mask``."""
    is_html = pc.fill_null(
        pc.equal(batch.column("kind"), HTML_KIND), False
    ).combine_chunks()
    if not pc.any(is_html).as_py():
        return batch
    text = batch.column("text").combine_chunks()
    # min_len=1: span-level pages may carry arbitrarily short main
    # content; chrome is dropped structurally (head subtree, link
    # density), not by the length gate
    stripped = main_content_array(
        text.filter(is_html), 1, 0.33, extract_main_content)
    i = batch.schema.get_field_index("text")
    return batch.set_column(
        i, "text", pc.replace_with_mask(text, is_html, stripped)
    )


# the old name: perfbench/session.py still calls it; all else ocr_documents
extract_documents = ocr_documents


def pdf_layout_text(sf_dir: str) -> "ray.data.Dataset":
    """PDF LAYOUT PARSE as a first-class query: each document's text
    becomes a deterministic Type3 vector PDF (fixture synthesis, the
    ``media_pdf_*`` convention — payload generation stands in for the
    object-store read a deployment does), and :func:`core.pdftext.
    extract_text_layout` recovers the text WITHOUT rasterizing or
    OCR'ing — content-stream text state machine → glyph boxes →
    baseline clustering → geometric word spacing.

    Hard oracle: the extracted text must equal the SQL-expressible
    transform the fixture rendered (clean || chr(10) || reverse(clean))
    — a wrong Tm composition, width table, encoding Difference, line
    cluster or space threshold all break the hash.

    Scale: both stages are stateless per-row task maps (no shuffle, no
    driver materialization); the parse touches only content streams +
    font dicts — never image payloads — so it is the cheap extraction
    path next to rasterize+OCR (:mod:`core.pdfvector`)."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def synth(batch: pa.Table) -> pa.Table:
        from tensorflow_ocr_ray.fixtures import vector_pdf_for_text

        pdfs = [
            vector_pdf_for_text(t)
            for t in batch.column("text").to_pylist()
        ]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "pdf": pa.array(pdfs, type=pa.binary()),
            }
        )

    def parse(batch: pa.Table) -> pa.Table:
        from tensorflow_ocr_ray.core.pdftext import extract_text_layout

        texts = [
            extract_text_layout(p) if p is not None else ""
            for p in batch.column("pdf").to_pylist()
        ]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "extracted": pa.array(texts, type=pa.string()),
            }
        )

    return docs.map_batches(
        synth, batch_format="pyarrow", batch_size=512
    ).map_batches(parse, batch_format="pyarrow", batch_size=512)


def html_table_extract(sf_dir: str) -> "ray.data.Dataset":
    """STRUCTURED extraction from markup: each document renders a
    deterministic page carrying a decoy nav table, a ``<th>`` header
    row and 1 + doc_id%3 data rows (``functions/html_extract.
    table_page_for``); the extractor must pick the MAIN table (most
    data cells), drop the header row, unescape entities and collapse
    whitespace — emitting typed records, not text.  Hash-checked
    against a DuckDB oracle that re-derives every cell arithmetically.

    Scale: two stateless task maps over a 2-column projection — no
    shuffle, no driver materialization, same plan shape as
    :func:`pdf_layout_text`."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "source"]
    )

    def synth_and_parse(batch: pa.Table) -> pa.Table:
        from tensorflow_ocr_ray.functions.html_extract import (
            extract_main_table,
            table_page_for,
        )

        doc_ids, row_idx, cell_id, cell_lang, cell_src = [], [], [], [], []
        for did, lang, src in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("lang").to_pylist(),
            batch.column("source").to_pylist(),
        ):
            page = table_page_for(int(did), lang, src)
            for r, cells in enumerate(extract_main_table(page)):
                doc_ids.append(did)
                row_idx.append(r)
                cell_id.append(int(cells[0]))
                cell_lang.append(cells[1])
                cell_src.append(cells[2])
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, type=pa.int64()),
                "row_idx": pa.array(row_idx, type=pa.int64()),
                "cell_id": pa.array(cell_id, type=pa.int64()),
                "cell_lang": pa.array(cell_lang, type=pa.string()),
                "cell_src": pa.array(cell_src, type=pa.string()),
            }
        )

    return docs.map_batches(
        synth_and_parse, batch_format="pyarrow", batch_size=2048
    )


def html_link_graph(sf_dir: str) -> "pd.DataFrame":
    """LINK-GRAPH feed from markup: per document a deterministic page
    carries 1 + doc_id%4 absolute outlinks (plus relative / fragment /
    mailto / javascript decoys the extractor must ignore and an
    upper-cased HOST the extractor must fold); the host-level in-link
    counts come back as a bounded grid.

    Scale: href extraction + per-batch (host, n) pre-aggregation
    happen inside one task map; only |hosts|-bounded partials reach
    the driver (the benford/bounded-grid convention).  At web scale
    the host space is NOT bounded — then the partials route one
    host-hash exchange instead of a driver merge; the partial stage is
    unchanged, which is the point of pre-aggregating map-side."""
    import pandas as pd

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        from tensorflow_ocr_ray.functions.html_extract import (
            extract_outlinks,
            link_page_for,
        )

        c: Counter = Counter()
        for did in batch.column("doc_id").to_pylist():
            c.update(extract_outlinks(link_page_for(int(did))))
        return pa.table(
            {
                "host": pa.array(list(c.keys()), type=pa.string()),
                "n": pa.array(list(c.values()), type=pa.int64()),
            }
        )

    grid = (
        docs.map_batches(partial, batch_format="pyarrow", batch_size=4096)
        .to_pandas()
        .groupby("host", as_index=False)["n"].sum()
        .rename(columns={"n": "inlinks"})
    )
    return grid.astype({"inlinks": "int64"})


def media_caption_pairs(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Caption-context mining over the INTERLEAVED corpus — the
    multimodal training-pair builder: each media span pairs with the
    extracted text of the nearest PRECEDING text/html span in its
    document (its caption context; '' when the media span leads).  The
    output (doc_id, media_ref, offset, context_text) feeds
    captioning / contrastive training directly.

    Scale: the input table is one row per document with the span list
    NESTED, so the order-sensitive walk is per-row local work — NO
    shuffle, no groupby, no explode; the plan is one stateless task map
    regardless of corpus size.  (Had the spans arrived exploded, this
    would need a shuffle by ``doc_id`` first — nesting is what makes
    order a free local property, the same reason the flagship keeps each
    document whole inside one task.)"""
    from tensorflow_ocr_ray.functions.html_extract import (
        extract_main_content,
    )

    def pairs(batch: pa.Table) -> pa.Table:
        doc, ref, off, ctx = [], [], [], []
        for row in batch.to_pylist():
            last_text = ""
            for span in sorted(row["spans"], key=lambda s: s["offset"]):
                if span["kind"] == "media":
                    doc.append(row["doc_id"])
                    ref.append(span["media_ref"])
                    off.append(int(span["offset"]))
                    ctx.append(last_text)
                else:
                    t = span["text"] or ""
                    if span["kind"] == HTML_KIND:
                        t = extract_main_content(t, min_len=1)
                    if t:
                        last_text = t
        return pa.table(
            {"doc_id": pa.array(doc, type=pa.string()),
             "media_ref": pa.array(ref, type=pa.string()),
             "offset": pa.array(off, type=pa.int32()),
             "context_text": pa.array(ctx, type=pa.string())})

    return ds.map_batches(pairs, batch_format="pyarrow", batch_size=64)


# ------------------------------------------- extract -> curate ------------


def web_curation_pipeline(
    sf_dir: str, n_shards: int | None = None
) -> "ray.data.Dataset":
    """END-TO-END composition: crawl blob → boilerplate strip → quality
    gate → exact dedup, in one streamed plan with a single skinny-key
    exchange.  This is the proof that the extraction tier FEEDS the
    curation tier losslessly: the DuckDB oracle re-derives every output
    column from the RAW ``documents.text`` (gate SQL + a window-min per
    text group), so any byte the extractor drops or mangles surfaces as
    a token-count / hash mismatch — extraction correctness is checked
    THROUGH the downstream consumer, not just on its own output.

    Stages (reference analogue: ``main/ocr.c``'s page → text → the
    training-corpus prep the reference leaves to the operator):

    1. wrap — deterministic chrome synthesis (the crawl-blob stand-in;
       at 100 TB this stage IS the crawl read);
    2. strip — ``main_content_array`` DOM-block heuristics, one kernel
       call per batch;
    3. gate — the Gopher-style verdict chain over the EXTRACTED text
       (token window → unigram repetition → trigram repetition);
    4. dedup — keep the smallest doc_id per identical extracted text,
       routed by the ``dedup_exact`` bounded-key md5 shard so identical
       texts co-locate by construction and the exchange key is 8 bytes.

    Output: one row per INPUT doc — gate columns + ``keeper_doc_id`` +
    the final ``kept`` verdict (passed gate AND canonical copy).

    Scale: stages 1-3 are stateless task maps (zero shuffle); stage 4
    is ONE hash exchange whose payload is the extracted text (needed to
    group exactly within a shard).  Nothing materializes on the driver;
    the result is corpus-cardinality and must stream to a sink."""
    import pandas as pd
    import ray.data as rd

    from tensorflow_ocr_ray.functions.html_extract import wrap_batch
    from tensorflow_ocr_ray.functions.textstats import _md5_prefix_batch
    from tensorflow_ocr_ray.pipelines.curation import gopher_gate_batch
    from tensorflow_ocr_ray.stages.exchange import (
        adaptive_shards,
        hash_exchange,
        meta_rows,
    )

    if n_shards is None:
        # extracted text rides the exchange as payload (same sizing
        # rationale as dedup_exact: ~64 MB shards at ~1 KB/doc)
        n_shards = adaptive_shards(
            meta_rows(sf_dir, "documents"), target_rows=65536
        )

    def strip_and_gate(df: "pd.DataFrame") -> "pd.DataFrame":
        extracted = main_content_array(
            pa.array(df["html"], type=pa.string())).to_pylist()
        gate = gopher_gate_batch(
            pd.DataFrame({"doc_id": df["doc_id"], "text": extracted})
        )
        gate["text"] = extracted
        keys = [f"{len(t)}:{t[:256]}" for t in extracted]
        h = _md5_prefix_batch(keys, 8).astype(np.uint64)
        gate["shard"] = (h % np.uint64(n_shards)).astype("int64")
        return gate

    def dedup_verdict(df: "pd.DataFrame") -> "pd.DataFrame":
        # all copies of a text share this shard (same md5 key), so the
        # per-text min is exact; group on the text itself, never the
        # hash (prefix collisions only co-locate, they never merge)
        keeper = df.groupby("text")["doc_id"].transform("min")
        out = df.drop(columns=["text", "shard"]).copy()
        out["keeper_doc_id"] = keeper.astype("int64")
        out["kept"] = (
            (out["passed"] == 1) & (out["doc_id"] == out["keeper_doc_id"])
        ).astype("int64")
        return out

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    wrapped = docs.map_batches(wrap_batch, batch_format="pandas",
                               batch_size=4096)
    gated = wrapped.map_batches(strip_and_gate, batch_format="pandas",
                                batch_size=4096)
    return hash_exchange(gated, "shard", n_shards, dedup_verdict)


def span_kind_transitions(ds: "ray.data.Dataset") -> pd.DataFrame:
    """Span-kind bigram grid over the INTERLEAVED corpus — the layout
    profile (how often media follows text vs leads a document, how
    html and media interleave) a multimodal packing/curriculum step
    reads before deciding sequence budgets.

    The vectorized-nested exhibit: the whole walk is zero-copy Arrow —
    ``ListArray.offsets`` give doc boundaries, ``flatten()`` exposes
    the span struct children WITHOUT to_pylist, a lexsort on
    (doc, offset) restores in-doc order, and the bigram mask is one
    numpy comparison.  Per batch the output collapses to the bounded
    |kinds|^2 grid, so the driver merge is O(batches x 9) however
    large the corpus; no shuffle anywhere."""

    def transitions(batch: pa.Table) -> pd.DataFrame:
        spans = batch.column("spans")
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        n_docs = len(spans)
        offs = np.asarray(spans.offsets)
        counts = np.diff(offs - offs[0])
        flat = spans.flatten()
        kind = np.asarray(flat.field("kind").to_numpy(
            zero_copy_only=False))
        pos = np.asarray(flat.field("offset").to_numpy(
            zero_copy_only=False)).astype(np.int64)
        doc = np.repeat(np.arange(n_docs, dtype=np.int64), counts)
        order = np.lexsort((pos, doc))
        kind, doc = kind[order], doc[order]
        if len(kind) < 2:
            return pd.DataFrame(
                {"kind_from": pd.Series([], dtype="object"),
                 "kind_to": pd.Series([], dtype="object"),
                 "n": pd.Series([], dtype="int64")})
        m = doc[1:] == doc[:-1]
        g = (pd.DataFrame({"kind_from": kind[:-1][m],
                           "kind_to": kind[1:][m]})
             .groupby(["kind_from", "kind_to"], as_index=False)
             .size().rename(columns={"size": "n"}))
        g["n"] = g["n"].astype("int64")
        return g

    parts = ds.map_batches(
        transitions, batch_format="pyarrow", batch_size=256
    ).to_pandas()
    if not len(parts):
        return pd.DataFrame(
            {"kind_from": pd.Series([], dtype="object"),
             "kind_to": pd.Series([], dtype="object"),
             "n": pd.Series([], dtype="int64")})
    out = (parts.groupby(["kind_from", "kind_to"], as_index=False)
           .agg(n=("n", "sum")).astype({"n": "int64"})
           .sort_values(["kind_from", "kind_to"]).reset_index(drop=True))
    return out
