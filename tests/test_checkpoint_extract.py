"""Checkpointed runs over the web corpus: the flagship (html strip +
media OCR) through the partition-granular runner — golden equality,
manifest truth metric, resume skip."""

import glob
import os

import pyarrow as pa


def _span_seq(tbl: pa.Table):
    out = {}
    for row in tbl.to_pylist():
        out[row["doc_id"]] = [
            (s["kind"], s["text"], s["media_ref"], s["offset"])
            for s in sorted(row["spans"], key=lambda s: s["offset"])
        ]
    return out


def test_checkpointed_extract_golden_and_resume(ray_session, tmp_path):
    import ray.data as rd

    from tensorflow_ocr_ray.fixtures import (
        expected_web_documents,
        write_documents_parquet,
    )
    from tensorflow_ocr_ray.pipelines.checkpoint import (
        read_manifest,
        run_checkpointed,
    )

    in_dir, out_dir = str(tmp_path / "in"), str(tmp_path / "out")
    n = 16
    write_documents_parquet(in_dir, n, seed=7, num_files=2, web=True)
    files = sorted(glob.glob(os.path.join(in_dir, "*.parquet")))
    assert len(files) == 2

    reports = run_checkpointed(
        files, out_dir,
        pipeline_kwargs=dict(concurrency=2, batch_size=8, num_blocks=2),
        verify_against_truth=True,
    )
    assert [r.status for r in reports] == ["done", "done"]
    assert not any(r.skipped for r in reports)

    # per-partition truth metric: media spans truth-equal AND html spans
    # markup/chrome-free
    for m in read_manifest(out_dir):
        assert m["span_equal_rate"] == 1.0

    # full golden equality (the test knows the corpus seed)
    got = _span_seq(pa.Table.from_pandas(
        rd.read_parquet(out_dir).to_pandas()))
    want = _span_seq(expected_web_documents(n, seed=7))
    assert got == want

    # resume: both partitions skip without touching output
    reports2 = run_checkpointed(
        files, out_dir,
        pipeline_kwargs=dict(concurrency=2, batch_size=8, num_blocks=2),
    )
    assert all(r.skipped for r in reports2)


def test_web_corpus_writer_shape(tmp_path):
    import pyarrow.parquet as pq

    from tensorflow_ocr_ray.fixtures import write_documents_parquet

    d = str(tmp_path / "w")
    write_documents_parquet(d, 8, seed=3, num_files=1, web=True)
    t = pq.read_table(os.path.join(d, "part-00000.parquet"))
    kinds = {
        s["kind"] for row in t.to_pylist() for s in row["spans"]
    }
    assert "html" in kinds and "text" not in kinds
    # html spans carry full pages (markup present pre-extraction)
    assert any(
        s["kind"] == "html" and "<nav>" in s["text"]
        for row in t.to_pylist() for s in row["spans"]
    )
