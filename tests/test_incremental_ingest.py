"""Streaming-shaped ingest: new input files appearing between runs are
picked up without re-processing (or invalidating) finished partitions —
partition identity is the file basename, not the sort ordinal."""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq


def _mini_corpus(path: str, name: str, doc_ids: list[str]) -> str:
    from tensorflow_ocr_ray.fixtures import DOCUMENTS_SCHEMA

    rows = [
        {"doc_id": d,
         "spans": [{"kind": "text", "text": f"{d} body", "media_ref": "",
                    "offset": 0}]}
        for d in doc_ids
    ]
    os.makedirs(path, exist_ok=True)
    f = os.path.join(path, name)
    pq.write_table(pa.Table.from_pylist(rows, schema=DOCUMENTS_SCHEMA), f)
    return f


def test_new_file_sorting_first_does_not_invalidate_done(ray_session, tmp_path):
    from tensorflow_ocr_ray.pipelines.checkpoint import run_checkpointed

    in_dir, out_dir = str(tmp_path / "in"), str(tmp_path / "out")
    _mini_corpus(in_dir, "m-batch.parquet", ["d1", "d2"])
    kwargs = dict(concurrency=2, batch_size=4)

    files = sorted(glob.glob(os.path.join(in_dir, "*.parquet")))
    r1 = run_checkpointed(files, out_dir, pipeline_kwargs=kwargs)
    assert [r.skipped for r in r1] == [False]

    # a late-arriving file that sorts BEFORE the finished one
    _mini_corpus(in_dir, "a-batch.parquet", ["d3"])
    files = sorted(glob.glob(os.path.join(in_dir, "*.parquet")))
    r2 = run_checkpointed(files, out_dir, pipeline_kwargs=kwargs)
    # a-batch processed fresh, m-batch skipped (identity by basename)
    assert [(os.path.basename(f), r.skipped)
            for f, r in zip(files, r2)] == [
        ("a-batch.parquet", False), ("m-batch.parquet", True),
    ]
    import ray.data as rd

    got = sorted(
        row["doc_id"] for row in rd.read_parquet(out_dir).take_all()
    )
    assert got == ["d1", "d2", "d3"]
