"""Media stores + the dir-store deployment shape end-to-end."""

import pyarrow as pa
import pytest

from tensorflow_ocr_ray.fixtures import (
    generate_documents,
    expected_documents,
    payload_for_ref,
)
from tensorflow_ocr_ray.state.media import DirMediaStore, make_media_store


def test_synthetic_store_is_deterministic():
    s = make_media_store({"kind": "synthetic"})
    assert s.get("page-1-000001-0") == s.get("page-1-000001-0")


def test_unknown_store_kind_raises():
    with pytest.raises(ValueError):
        make_media_store({"kind": "s3"})


def test_dir_store_roundtrip(tmp_path):
    root = str(tmp_path / "media")
    DirMediaStore.put(root, "a/b", b"payload")
    assert make_media_store({"kind": "dir", "path": root}).get("a/b") == b"payload"


def test_dir_store_ocr_pipeline(ray_session, tmp_path):
    """Deployment shape: documents in parquet, payloads fetched by key
    from a directory store inside the OCR actors."""
    import ray.data as rd

    from tensorflow_ocr_ray.pipelines.ocr_pipeline import ocr_documents

    docs = generate_documents(6, seed=3)
    root = str(tmp_path / "media")
    for row in docs.to_pylist():
        for span in row["spans"]:
            if span["kind"] == "media":
                DirMediaStore.put(
                    root, span["media_ref"], payload_for_ref(span["media_ref"])
                )
    out = ocr_documents(
        rd.from_arrow(docs),
        concurrency=1,
        batch_size=8,
        media_spec={"kind": "dir", "path": root},
    )
    got = pa.Table.from_pandas(out.to_pandas()).to_pylist()
    want = expected_documents(docs).to_pylist()
    assert sorted(got, key=lambda r: r["doc_id"]) == sorted(
        want, key=lambda r: r["doc_id"]
    )
