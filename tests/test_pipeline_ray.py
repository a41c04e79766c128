"""Ray Data pipeline tests: span-sequence equality of the flagship plan,
checkpoint/resume, and the glyph-stream stage."""

import os

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from tensorflow_ocr_ray.fixtures import (
    expected_documents,
    generate_documents,
    write_documents_parquet,
)

N_DOCS = 16
SEED = 42


def _span_seq(table: pa.Table) -> dict:
    """doc_id → [(kind, text, media_ref, offset), ...] for equality checks."""
    out = {}
    for row in table.to_pylist():
        out[row["doc_id"]] = [
            (s["kind"], s["text"], s["media_ref"], s["offset"])
            for s in row["spans"]
        ]
    return out


@pytest.fixture(scope="module")
def golden():
    docs = generate_documents(N_DOCS, seed=SEED)
    return docs, _span_seq(expected_documents(docs))


@pytest.mark.parametrize("num_blocks", [4, None],
                         ids=["repartition", "no_repartition"])
def test_span_sequence_equality(ray_session, golden, num_blocks):
    """THE correctness gate: per-row (kind, text, media_ref, order) equality
    between the Ray pipeline and the independent analytic golden, with
    and without the plan's optional repartition step."""
    import ray.data as rd

    from tensorflow_ocr_ray.pipelines.ocr_pipeline import ocr_documents

    docs, want = golden
    ds = rd.from_arrow(docs)
    out = ocr_documents(ds, concurrency=2, batch_size=8,
                        num_blocks=num_blocks)
    got = _span_seq(pa.Table.from_pandas(out.to_pandas()))
    assert got == want


def test_plan_is_one_map_per_document_batch(ray_session, golden):
    """The flagship plan is ``FromArrow → Repartition → MapBatches(
    ocr_span_batch)``: explode, score and reassemble share one task per
    block (Ray hands the function whole blocks, ``batch_size=None``),
    with no ``Sort`` or shuffle barrier."""
    import ray.data as rd

    from tensorflow_ocr_ray.pipelines.ocr_pipeline import ocr_documents

    docs, _ = golden
    out = ocr_documents(rd.from_arrow(docs), concurrency=2, batch_size=8,
                        num_blocks=4)
    names, todo = [], [out._logical_plan.dag]
    while todo:
        op = todo.pop()
        names.append(op.name)
        todo.extend(op.input_dependencies)
    assert names == ["MapBatches(ocr_span_batch)", "Repartition",
                     "FromArrow"]
    assert "Sort" not in names
    assert out._logical_plan.dag._batch_size is None


def _with_empty_docs(docs: pa.Table, at: list[int]) -> pa.Table:
    """``docs`` with an empty document inserted before each row in
    ``at`` (``len(docs)`` appends)."""
    from tensorflow_ocr_ray.fixtures import DOCUMENTS_SCHEMA

    rows = docs.to_pylist()
    for k, i in enumerate(sorted(at, reverse=True)):
        rows.insert(i, {"doc_id": f"doc-empty-{k}", "spans": []})
    return pa.Table.from_pylist(rows, schema=DOCUMENTS_SCHEMA)


def test_scorer_slices_are_bounded_and_exact(ray_session, monkeypatch):
    """The plan's function, run in-process on one block at a time, hands
    the scorer at most ``batch_size`` documents per call, and the calls
    together see every span row of the block exactly once and in order
    (zero-copy slices cut at document boundaries).  Covered: a document
    count that is not a multiple of ``batch_size``, empty documents
    (also a run of them longer than a slice), and a block that is a
    non-zero-offset slice of a larger table.  A block without media rows
    makes no scorer call.  The html strip is a fixed step: a block without
    html rows comes out exactly as the plan without the strip gave it,
    and a block with html rows comes out stripped."""
    import ray.data as rd

    from tensorflow_ocr_ray.fixtures import (
        DOCUMENTS_SCHEMA,
        generate_web_documents,
    )
    from tensorflow_ocr_ray.pipelines.extract import strip_html_spans
    from tensorflow_ocr_ray.pipelines.ocr_pipeline import (
        EMPTY_DOC_KIND,
        explode_documents,
        ocr_documents,
        reassemble_group,
    )
    from tensorflow_ocr_ray.stages import ocr_stages

    batch_size = 3
    calls = []

    def spy(key, kwargs):
        def score(batch):
            calls.append(batch)
            return batch

        return score

    monkeypatch.setattr(ocr_stages, "_worker_stage", spy)
    docs = generate_documents(11, seed=SEED)
    out = ocr_documents(rd.from_arrow(docs), concurrency=1,
                        batch_size=batch_size)
    fn = out._logical_plan.dag._fn

    big = _with_empty_docs(generate_documents(40, seed=SEED + 1),
                           [0, 5, 5, 5, 5, 40])
    sliced = big.slice(3, 20)
    assert sliced.column("spans").chunk(0).offset == 3
    for block in (docs, big, sliced, big.slice(37)):
        calls.clear()
        got = fn(block)
        spans = explode_documents(block)
        rows = spans.filter(pc.not_equal(spans.column("kind"),
                                         EMPTY_DOC_KIND))
        assert calls, "a block with media rows is scored"
        assert all(len(set(c.column("doc_id").to_pylist())) <= batch_size
                   for c in calls)
        assert all(c.num_rows > 0 for c in calls)
        assert pa.concat_tables(calls).equals(rows)
        assert _span_seq(got) == _span_seq(block)
        # no html rows: the strip changes nothing, so the output is
        # explode → identity scorer → reassemble, byte for byte
        assert got.equals(reassemble_group(spans))

    text_only = pa.Table.from_pylist(
        [{"doc_id": f"t{i}", "spans": [
            {"kind": "text", "text": "x", "media_ref": "", "offset": 0}
        ]} for i in range(5)] + [{"doc_id": "e", "spans": []}],
        schema=DOCUMENTS_SCHEMA,
    )
    calls.clear()
    assert _span_seq(fn(text_only)) == _span_seq(text_only)
    assert calls == []

    web = generate_web_documents(8, seed=SEED)
    got = fn(web)
    assert got.equals(reassemble_group(strip_html_spans(
        explode_documents(web))))
    assert not got.equals(reassemble_group(explode_documents(web)))


def test_rows_sharing_a_doc_id_merge_within_a_block(ray_session):
    """``doc_id`` is the key: two input rows of one document in the same
    block come out as one row whose spans are sorted by offset, even when
    ``batch_size`` puts the rows into different scorer slices."""
    import ray.data as rd

    from tensorflow_ocr_ray.fixtures import DOCUMENTS_SCHEMA
    from tensorflow_ocr_ray.pipelines.ocr_pipeline import ocr_documents

    def span(off):
        return {"kind": "text", "text": f"s{off}", "media_ref": "",
                "offset": off}

    docs = pa.Table.from_pylist(
        [
            {"doc_id": "d", "spans": [span(1), span(3)]},
            {"doc_id": "e", "spans": [span(0)]},
            {"doc_id": "d", "spans": [span(2), span(0)]},
        ],
        schema=DOCUMENTS_SCHEMA,
    )
    out = ocr_documents(rd.from_arrow(docs), concurrency=1,
                        batch_size=1).take_all()
    assert sorted(r["doc_id"] for r in out) == ["d", "e"]
    got = {r["doc_id"]: [s["text"] for s in r["spans"]] for r in out}
    assert got == {"d": ["s0", "s1", "s2", "s3"], "e": ["s0"]}


def test_span_sequence_equality_trained_scorer(ray_session):
    """The trained-scorer path on the flagship plan: a broadcast dense
    scorer (``state_ref``) through ``ocr_documents`` gives the span
    sequences of an in-process ``OcrSpanStage`` with the same inline
    state, reassembled by ``reassemble_group``.  The trained scorer reads
    the fixtures exactly as kNN does, so a second state with its labels
    rotated proves the spec reaches the scorer workers."""
    import ray
    import ray.data as rd

    from tensorflow_ocr_ray.fonts import get_font_index
    from tensorflow_ocr_ray.models.dense import train_on_font_index
    from tensorflow_ocr_ray.pipelines.ocr_pipeline import (
        explode_documents,
        ocr_documents,
        reassemble_group,
    )
    from tensorflow_ocr_ray.stages.ocr_stages import OcrSpanStage

    # the trained state of tests/test_models.py's dense_model fixture
    model, _ = train_on_font_index(get_font_index(), epochs=600)
    state = model.to_state()
    rotated = {**state, "vocab": state["vocab"][1:] + state["vocab"][:1]}
    docs = generate_documents(6, seed=SEED)
    truth = _span_seq(expected_documents(docs))
    for st in (state, rotated):
        local = OcrSpanStage(scorer_spec={"kind": "dense", "state": st})
        want = _span_seq(reassemble_group(local(explode_documents(docs))))
        out = ocr_documents(
            rd.from_arrow(docs), concurrency=2, batch_size=8, num_blocks=2,
            scorer_spec={"kind": "dense", "state_ref": ray.put(st)},
        )
        got = _span_seq(pa.Table.from_pandas(out.to_pandas()))
        assert got == want
        assert (want == truth) == (st is state)


def test_exploded_roundtrip_schema(ray_session, golden):
    import ray.data as rd

    from tensorflow_ocr_ray.pipelines.ocr_pipeline import explode_documents

    docs, _ = golden
    flat = explode_documents(docs)
    assert flat.schema.equals(pa.schema([
        ("doc_id", pa.string()),
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
        ("offset", pa.int32()),
    ]))
    n_spans = sum(len(r["spans"]) for r in docs.to_pylist())
    assert flat.num_rows == n_spans


def test_glyph_stream_stage(ray_session, golden):
    import ray.data as rd

    from tensorflow_ocr_ray.pipelines.ocr_pipeline import explode_documents
    from tensorflow_ocr_ray.stages.ocr_stages import GlyphDumpStage

    docs, _ = golden
    spans = rd.from_arrow(explode_documents(docs))
    glyphs = spans.map_batches(
        GlyphDumpStage, batch_format="pyarrow", batch_size=8, concurrency=1
    )
    t = pa.Table.from_pandas(glyphs.to_pandas())
    assert t.num_rows > 0
    cols = set(t.column_names)
    assert {"doc_id", "span_idx", "line_idx", "glyph_idx", "features",
            "knn_label", "knn_dist2"} <= cols
    assert len(t.column("features")[0].as_py()) == 27


def test_checkpoint_run_and_resume(ray_session, tmp_path, golden):
    from tensorflow_ocr_ray.pipelines.checkpoint import (
        read_manifest,
        run_checkpointed,
    )

    docs, want = golden
    in_dir, out_dir = str(tmp_path / "in"), str(tmp_path / "out")
    files = write_documents_parquet(in_dir, N_DOCS, seed=SEED, num_files=4)
    kwargs = dict(concurrency=2, batch_size=8)

    reports = run_checkpointed(files, out_dir, pipeline_kwargs=kwargs)
    assert len(reports) == 4
    assert all(r.status == "done" and not r.skipped for r in reports)

    # resume: all partitions skip, output unchanged
    reports2 = run_checkpointed(files, out_dir, pipeline_kwargs=kwargs)
    assert all(r.skipped for r in reports2)

    manifest = read_manifest(out_dir)
    assert len(manifest) == 4
    assert sum(m["docs"] for m in manifest) == N_DOCS
    assert all(m["input_fingerprint"] for m in manifest)

    # partitioned output reassembles the full golden corpus
    import ray.data as rd

    written = rd.read_parquet(out_dir)
    got = _span_seq(pa.Table.from_pandas(written.to_pandas()))
    assert got == want


def test_checkpoint_reruns_on_fingerprint_change(ray_session, tmp_path):
    from tensorflow_ocr_ray.pipelines.checkpoint import run_checkpointed

    in_dir, out_dir = str(tmp_path / "in"), str(tmp_path / "out")
    files = write_documents_parquet(in_dir, 4, seed=SEED, num_files=1)
    kwargs = dict(concurrency=1, batch_size=8)
    run_checkpointed(files, out_dir, pipeline_kwargs=kwargs)
    # grow the input file → fingerprint changes → partition re-runs
    write_documents_parquet(in_dir, 6, seed=SEED, num_files=1)
    reports = run_checkpointed(files, out_dir, pipeline_kwargs=kwargs)
    assert not reports[0].skipped
    assert reports[0].docs == 6


def test_skewed_span_counts(ray_session):
    """Skew: a 40-span document among 1-span documents — the giant
    document is exploded, scored and reassembled inside one task, and
    every sequence comes back whole."""
    import pyarrow as pa
    import ray.data as rd

    from tensorflow_ocr_ray.fixtures import (
        DOCUMENTS_SCHEMA,
        expected_documents,
        truth_for_ref,
    )
    from tensorflow_ocr_ray.pipelines.ocr_pipeline import ocr_documents

    rows = []
    heavy_spans = [
        {"kind": "media", "text": "", "media_ref": f"page-skew-{s}",
         "offset": s}
        for s in range(40)
    ]
    rows.append({"doc_id": "doc-heavy", "spans": heavy_spans})
    for d in range(12):
        rows.append(
            {
                "doc_id": f"doc-small-{d:03d}",
                "spans": [
                    {"kind": "media", "text": "",
                     "media_ref": f"page-sk2-{d}", "offset": 0}
                ],
            }
        )
    docs = pa.Table.from_pylist(rows, schema=DOCUMENTS_SCHEMA)
    out = ocr_documents(
        rd.from_arrow(docs), concurrency=2, batch_size=8,
        num_blocks=8,
    )
    got = _span_seq(pa.Table.from_pandas(out.to_pandas()))
    want = _span_seq(expected_documents(docs))
    assert got == want
    assert len(got["doc-heavy"]) == 40


@pytest.mark.parametrize(
    "batch_size,num_blocks", [(4, None), (1, None), (1, 2), (1, 5)],
    ids=["4", "1", "empty_doc_alone_in_a_block", "blocks_without_rows"],
)
def test_zero_span_documents_survive(ray_session, batch_size, num_blocks):
    """A document with an empty spans list must round-trip the plan
    (sentinel row), not silently disappear — also when a block holds
    nothing but the empty document (``num_blocks=2``) and when some
    blocks hold no rows at all (more blocks than documents)."""
    import pyarrow as pa
    import ray.data as rd

    from tensorflow_ocr_ray.fixtures import DOCUMENTS_SCHEMA
    from tensorflow_ocr_ray.pipelines.ocr_pipeline import ocr_documents

    docs = pa.Table.from_pylist(
        [
            {"doc_id": "doc-empty", "spans": []},
            {"doc_id": "doc-one", "spans": [
                {"kind": "text", "text": "hi", "media_ref": "", "offset": 0}
            ]},
        ],
        schema=DOCUMENTS_SCHEMA,
    )
    out = ocr_documents(rd.from_arrow(docs), concurrency=1,
                        batch_size=batch_size, num_blocks=num_blocks)
    got = _span_seq(pa.Table.from_pandas(out.to_pandas()))
    assert got == {
        "doc-empty": [],
        "doc-one": [("text", "hi", "", 0)],
    }


def test_media_error_empty_mode(ray_session, tmp_path):
    """on_media_error='empty': a missing payload yields '' instead of
    failing the partition; 'raise' (default) propagates."""
    import pyarrow as pa

    from tensorflow_ocr_ray.stages.ocr_stages import OcrSpanStage

    batch = pa.table(
        {
            "doc_id": ["d"], "kind": ["media"], "text": [""],
            "media_ref": ["nope"], "offset": [0],
        }
    )
    stage = OcrSpanStage(
        media_spec={"kind": "dir", "path": str(tmp_path)},
        on_media_error="empty",
    )
    out = stage(batch)
    assert out.column("text").to_pylist() == [""]

    strict = OcrSpanStage(media_spec={"kind": "dir", "path": str(tmp_path)})
    with pytest.raises(FileNotFoundError):
        strict(batch)


def test_manifest_span_equal_rate(ray_session, tmp_path):
    from tensorflow_ocr_ray.pipelines.checkpoint import (
        read_manifest,
        run_checkpointed,
    )

    in_dir, out_dir = str(tmp_path / "in"), str(tmp_path / "out")
    files = write_documents_parquet(in_dir, 6, seed=SEED, num_files=2)
    run_checkpointed(
        files, out_dir,
        pipeline_kwargs=dict(concurrency=1, batch_size=8),
        verify_against_truth=True,
    )
    manifest = read_manifest(out_dir)
    assert len(manifest) == 2
    assert all(m["span_equal_rate"] == 1.0 for m in manifest)


def test_corrupt_compressed_payload_yields_empty_not_crash(ray_session):
    """A truncated/garbage G4 stream must not kill the partition when
    on_media_error='empty' (the 100 TB few-bad-objects rule) — and must
    raise cleanly when strict."""
    import numpy as np
    import pyarrow as pa
    import pytest as _pytest

    from tensorflow_ocr_ray.core.raster import encode_tiff
    from tensorflow_ocr_ray.fixtures import page_spec_for_ref, render_page
    from tensorflow_ocr_ray.stages.ocr_stages import OcrSpanStage
    from tensorflow_ocr_ray.state.media import DirMediaStore
    import tempfile

    img = render_page(page_spec_for_ref("page-42-000000-0"))
    good = encode_tiff(img, bilevel=True, compression="g4")
    corrupt = good[:60] + b"\xff" * 40  # valid header, garbage G4 body

    with tempfile.TemporaryDirectory() as d:
        DirMediaStore.put(d, "ok", good)
        DirMediaStore.put(d, "bad", corrupt)
        batch = pa.table(
            {
                "doc_id": ["d", "d"],
                "kind": ["media", "media"],
                "text": ["", ""],
                "media_ref": ["ok", "bad"],
                "offset": [0, 1],
            }
        )
        lenient = OcrSpanStage(media_spec={"kind": "dir", "path": d},
                               on_media_error="empty")
        out = lenient(batch)
        texts = out.column("text").to_pylist()
        assert len(texts[0]) > 0 and texts[1] == ""

        strict = OcrSpanStage(media_spec={"kind": "dir", "path": d})
        with _pytest.raises(Exception):
            strict(batch)


def test_exploded_plan_handles_span_count_skew(ray_session):
    """One 120-span document among 1-span documents (pathological span
    skew): the giant document is scored inside one task, not spread by a
    span repartition, and the explode→score→reassemble round trip
    preserves every document's exact span sequence."""
    import pyarrow as pa

    from tensorflow_ocr_ray.fixtures import SPAN_SCHEMA
    from tensorflow_ocr_ray.pipelines.ocr_pipeline import ocr_documents

    def doc(doc_id, n):
        return {
            "doc_id": doc_id,
            "spans": [
                {"kind": "text", "text": f"{doc_id}:{i}",
                 "media_ref": "", "offset": i}
                for i in range(n)
            ],
        }

    rows = [doc("hot", 120)] + [doc(f"d{i:03d}", 1) for i in range(40)]
    table = pa.Table.from_pylist(
        rows,
        schema=pa.schema([("doc_id", pa.string()), ("spans", SPAN_SCHEMA)]),
    )
    import ray.data as rd

    out = ocr_documents(
        rd.from_arrow(table), concurrency=2,
        batch_size=8, num_blocks=16,
    ).take_all()
    got = {
        r["doc_id"]: [(s["kind"], s["text"], s["offset"])
                      for s in r["spans"]]
        for r in out
    }
    for r in rows:
        want = [(s["kind"], s["text"], s["offset"]) for s in r["spans"]]
        assert got[r["doc_id"]] == want, r["doc_id"]


def test_lance_seam_contract(ray_session, tmp_path):
    """The Lance reader/writer seam (BASELINE.json input_hint names
    Lance tables; the lib is not in this container): a .lance path must
    either work (lance present) or raise the documented RuntimeError —
    never fall through to the parquet path silently."""
    import pyarrow as pa
    import ray.data as rd

    from tensorflow_ocr_ray.pipelines.ocr_pipeline import (
        read_documents,
        write_documents,
    )

    try:
        import lance  # noqa: F401

        has_lance = True
    except ImportError:
        has_lance = False

    ds = rd.from_arrow(pa.table({"doc_id": ["a"], "spans": [[]]}))
    if has_lance:  # pragma: no cover - not in this container
        write_documents(ds, str(tmp_path / "t.lance"))
        assert read_documents(str(tmp_path / "t.lance")).count() == 1
    else:
        import pytest as _pytest

        with _pytest.raises(RuntimeError, match="Lance"):
            read_documents(str(tmp_path / "t.lance"))
        with _pytest.raises(RuntimeError, match="Lance"):
            write_documents(ds, str(tmp_path / "t.lance"))
        # and no stray output dir was created by the failed writer
        assert not (tmp_path / "t.lance").exists()


def _span_batch(kinds, texts, refs):
    return pa.table({
        "doc_id": ["d"] * len(kinds), "kind": kinds, "text": texts,
        "media_ref": refs, "offset": pa.array(range(len(kinds)), pa.int32()),
    })


def test_unpickled_scorers_share_the_worker_stage_cache(monkeypatch):
    """Every unpickled copy of the scorer closure (one per Ray task) finds
    the stage its process already built, instead of a private cache."""
    from ray import cloudpickle

    from tensorflow_ocr_ray.stages import ocr_stages

    monkeypatch.setattr(ocr_stages, "_WORKER_STAGE_CACHE", {})
    built = []
    init = ocr_stages.OcrSpanStage.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ocr_stages.OcrSpanStage, "__init__", counting_init)
    blob = cloudpickle.dumps(ocr_stages.make_span_ocr_fn({}))
    batch = _span_batch(["text"], ["hi"], [""])
    for fn in (cloudpickle.loads(blob), cloudpickle.loads(blob)):
        assert fn(batch).equals(batch)
    assert len(built) == 1


def test_span_stage_rewrites_only_media_rows(tmp_path):
    """Text rows keep their exact values (nulls included) next to media
    rows; a batch without media rows comes back as the same object."""
    from tensorflow_ocr_ray.fixtures import payload_for_ref, truth_for_ref
    from tensorflow_ocr_ray.stages.ocr_stages import OcrSpanStage
    from tensorflow_ocr_ray.state.media import DirMediaStore

    ref = "page-42-000007-0"
    DirMediaStore.put(str(tmp_path), ref, payload_for_ref(ref))
    stage = OcrSpanStage(media_spec={"kind": "dir", "path": str(tmp_path)})
    texts = ["aé <b>", "", None, "tail"]
    mixed = pa.concat_tables([
        _span_batch(["text", "media"], texts[:2], ["", ref]),
        _span_batch(["html", None], texts[2:], ["", None]),
    ])
    out = stage(mixed).column("text").to_pylist()
    assert out == [texts[0], truth_for_ref(ref), None, "tail"]
    text_only = _span_batch(["text", "html"], ["x", None], ["", ""])
    assert stage(text_only) is text_only
