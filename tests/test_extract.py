"""Combined extraction tier (pipelines/extract): html spans
boilerplate-stripped + media spans OCR'd in one streamed pass, exact
span-sequence equality vs the analytic golden (BASELINE.json
north_rule's per-row invariant)."""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from tensorflow_ocr_ray.fixtures import (
    expected_web_documents,
    generate_web_documents,
)
from tensorflow_ocr_ray.pipelines.extract import strip_html_spans


def _spans_as_tuples(tbl: pa.Table) -> dict[str, list[tuple]]:
    out = {}
    for row in tbl.to_pylist():
        out[row["doc_id"]] = [
            (s["kind"], s["text"], s["media_ref"], s["offset"])
            for s in row["spans"]
        ]
    return out


def test_web_corpus_shape():
    docs = generate_web_documents(16, seed=7)
    kinds = {
        s["kind"] for row in docs.to_pylist() for s in row["spans"]
    }
    assert "html" in kinds and "media" in kinds
    for row in docs.to_pylist():
        for s in row["spans"]:
            if s["kind"] == "html":
                assert s["text"].startswith("<!DOCTYPE html>")
                assert "<nav>" in s["text"]


def test_strip_stage_recovers_clean_text_and_passes_others():
    docs = generate_web_documents(16, seed=7)
    golden = expected_web_documents(16, seed=7)
    # hand-explode one batch of spans
    rows = []
    for row, grow in zip(docs.to_pylist(), golden.to_pylist()):
        for s, g in zip(row["spans"], grow["spans"]):
            rows.append(
                {"doc_id": row["doc_id"], "kind": s["kind"],
                 "text": s["text"], "media_ref": s["media_ref"],
                 "offset": s["offset"], "want": g["text"]}
            )
    batch = pa.Table.from_pylist(rows)
    out = strip_html_spans(batch)
    for kind, got, want, ref in zip(
        out.column("kind").to_pylist(), out.column("text").to_pylist(),
        out.column("want").to_pylist(), out.column("media_ref").to_pylist()
    ):
        if kind == "html":
            assert got == want
        elif kind == "media":
            assert got == ""  # untouched here; the scorer stage fills it
        else:
            assert got == want


def test_strip_stage_identity_without_html_rows():
    batch = pa.table(
        {"doc_id": ["a", "b"], "kind": ["text", "media"],
         "text": ["plain", ""], "media_ref": ["", "page-42-000000-0"],
         "offset": pa.array([0, 1], type=pa.int32())}
    )
    assert strip_html_spans(batch) is batch


def test_strip_stage_rewrites_html_rows_in_place():
    """Only the html rows' strings are stripped and written back by mask:
    the text column equals a row-wise strip of every html row, value for
    value, on a chunked batch with null kinds and texts and empty html."""
    from tensorflow_ocr_ray.functions.html_extract import extract_main_content

    docs = generate_web_documents(6, seed=11)
    rows = [dict(s, doc_id=r["doc_id"])
            for r in docs.to_pylist() for s in r["spans"]]
    rows += [
        {"doc_id": "z", "kind": "html", "text": None, "media_ref": "",
         "offset": 0},
        {"doc_id": "z", "kind": "html", "text": "", "media_ref": "",
         "offset": 1},
        {"doc_id": "z", "kind": None, "text": "<p>keep</p>",
         "media_ref": "", "offset": 2},
    ]
    half = len(rows) // 2
    batch = pa.concat_tables([pa.Table.from_pylist(rows[:half]),
                              pa.Table.from_pylist(rows[half:])])
    want = [extract_main_content(r["text"], min_len=1)
            if r["kind"] == "html" and r["text"] else r["text"]
            for r in rows]
    out = strip_html_spans(batch)
    assert out.column("text").to_pylist() == want
    assert out.schema.equals(batch.schema)
    for name in ("doc_id", "kind", "media_ref", "offset"):
        assert out.column(name).equals(batch.column(name))


def test_e2e_extract_documents_span_equality(ray_session):
    """The headline invariant: the combined pipeline's output is
    span-sequence-equal (kind, text, media_ref, order) to the golden —
    html spans carry the pre-wrap clean text, media spans the analytic
    OCR truth."""
    import ray.data as rd

    from tensorflow_ocr_ray.pipelines.extract import extract_documents

    n = 12
    ds = rd.from_arrow(generate_web_documents(n, seed=42))
    out = extract_documents(ds, concurrency=2, batch_size=16,
                            num_blocks=4)
    got = _spans_as_tuples(
        pa.Table.from_pandas(out.to_pandas())
    )
    want = _spans_as_tuples(expected_web_documents(n, seed=42))
    assert set(got) == set(want)
    for doc_id in want:
        assert got[doc_id] == want[doc_id], doc_id


def test_registry_entry_runs(ray_session):
    import __ray_entry__ as E

    res = E.queries()["extract_interleaved"]("/root/testdata/sf0.001")
    df = res.to_pandas()
    assert len(df) > 0
    assert set(df.columns) == {"doc_id", "kind", "text", "media_ref",
                               "offset"}
    # every html span's text is clean (no markup survived the strip)
    html = df[df["kind"] == "html"]
    assert len(html) > 0
    assert not html["text"].str.contains("<").any()
    # every media span got OCR text
    media = df[df["kind"] == "media"]
    assert (media["text"].str.len() > 0).all()


def test_media_caption_pairs_truth(ray_session):
    """Every media span pairs with the nearest PRECEDING span's clean
    text — truth derived from the corpus construction (_doc_rows),
    independent of the pipeline."""
    import ray.data as rd

    from tensorflow_ocr_ray.fixtures import _doc_rows, generate_web_documents
    from tensorflow_ocr_ray.pipelines.extract import media_caption_pairs

    n = 24
    got = media_caption_pairs(
        rd.from_arrow(generate_web_documents(n, seed=42))
    ).to_pandas()

    want = {}
    for row in _doc_rows(n, seed=42):
        last = ""
        for span in sorted(row["spans"], key=lambda s: s["offset"]):
            if span["kind"] == "media":
                want[(row["doc_id"], span["media_ref"])] = last
            elif span["text"]:
                last = span["text"]

    assert len(got) == len(want) > 0
    for _, r in got.iterrows():
        assert want[(r["doc_id"], r["media_ref"])] == r["context_text"], (
            r["doc_id"], r["media_ref"])


def test_media_caption_pairs_registry(ray_session):
    import __ray_entry__ as E

    df = E.queries()["media_caption_pairs"](
        "/root/testdata/sf0.001").to_pandas()
    assert len(df) > 0
    assert set(df.columns) == {"doc_id", "media_ref", "offset",
                               "context_text"}
    # leading media spans have empty context; at least one non-empty
    assert (df["context_text"].str.len() > 0).any()


def test_web_curation_pipeline_truth(ray_session):
    """extract → gate → dedup composition: every output column is
    re-derivable from RAW documents.text (the wrap/strip pair must be
    exact-inverse), keeper is the min doc_id per identical text, and
    kept == passed ∧ canonical."""
    import pandas as pd

    import __ray_entry__ as E

    sf = "/root/testdata/sf0.001"
    got = E.queries()["web_curation_pipeline"](sf).to_pandas()
    raw = pd.read_parquet(f"{sf}/documents.parquet",
                          columns=["doc_id", "text"])

    assert len(got) == len(raw)
    merged = got.merge(raw, on="doc_id")
    keeper = merged.groupby("text")["doc_id"].transform("min")
    assert (merged["keeper_doc_id"] == keeper).all()
    want_kept = ((merged["passed"] == 1)
                 & (merged["doc_id"] == merged["keeper_doc_id"]))
    assert (merged["kept"] == want_kept.astype("int64")).all()
    # the gate suppression channel actually fires on this corpus; the
    # dedup channel only if the corpus has exact duplicates (sf0.001
    # is all-unique — the channel is still exercised by the keeper
    # equality above and the sf0.01 oracle run)
    assert merged["kept"].sum() < len(merged)
    assert (merged["passed"] == 0).any()
    if raw["text"].duplicated().any():
        assert (merged["doc_id"] != merged["keeper_doc_id"]).any()


def test_span_kind_transitions_matches_sequential_walk(ray_session):
    """Vectorized nested bigram grid == an independent per-row python
    walk over the same fixture; also pins that in-doc order comes from
    the OFFSET field, not list position (shuffled spans same answer)."""
    import ray.data as rd
    from collections import Counter

    from tensorflow_ocr_ray.fixtures import generate_web_documents
    from tensorflow_ocr_ray.pipelines.extract import (
        span_kind_transitions,
    )

    tbl = generate_web_documents(48, seed=7)
    got = span_kind_transitions(rd.from_arrow(tbl))
    exp = Counter()
    for row in tbl.to_pylist():
        ks = [s["kind"] for s in sorted(row["spans"],
                                        key=lambda s: s["offset"])]
        exp.update(zip(ks, ks[1:]))
    exp_df = (pd.DataFrame(
        [(a, b, n) for (a, b), n in sorted(exp.items())],
        columns=["kind_from", "kind_to", "n"]).astype({"n": "int64"}))
    assert got.equals(exp_df)
    # order-from-offset: reverse every span list; answer must not move
    rows = tbl.to_pylist()
    for r in rows:
        r["spans"] = list(reversed(r["spans"]))
    import pyarrow as pa_
    rev = pa_.Table.from_pylist(rows, schema=tbl.schema)
    got_rev = span_kind_transitions(rd.from_arrow(rev))
    assert got_rev.equals(exp_df)
