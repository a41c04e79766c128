"""The driver cache module: fingerprint-keyed memo and build-once dirs.

A memoized query result must follow its input table: rewriting the
parquet file in place (same path) has to change the next answer, while
a repeat call on an unchanged table must not recompute it.
"""

from __future__ import annotations

import gc
import os
import weakref

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from tensorflow_ocr_ray import cache


def _write_events(sf_dir, n: int) -> None:
    pq.write_table(pa.table({
        "event_type": pa.array(["a"] * n),
        "value": pa.array(np.arange(n, dtype=np.float64)),
    }), os.path.join(sf_dir, "events.parquet"))


def _write_embeddings(sf_dir, vecs: list[list[float]]) -> None:
    pq.write_table(pa.table({
        "vec_id": pa.array(range(len(vecs)), pa.int64()),
        "embedding": pa.array(vecs, pa.list_(pa.float32())),
    }), os.path.join(sf_dir, "embeddings.parquet"))


def test_bucket_offsets_follow_rewritten_events(ray_session, tmp_path):
    from tensorflow_ocr_ray.pipelines.windows import _type_bucket_offsets

    sf = str(tmp_path)
    _write_events(sf, 10)
    assert _type_bucket_offsets(sf)[1] == {"a": 10}
    _write_events(sf, 25)
    got = _type_bucket_offsets(sf)
    assert got[1] == {"a": 25}
    assert _type_bucket_offsets(sf) is got  # unchanged table: a memo hit


def test_kmeans_state_follows_rewritten_embeddings(ray_session, tmp_path):
    from tensorflow_ocr_ray.pipelines.similarity import _kmeans_state

    sf = str(tmp_path)
    _write_embeddings(sf, [[1.0, 0.0], [0.0, 1.0], [1.0, 0.1]])
    s1, c1 = _kmeans_state(sf, k=2, iters=1)
    _write_embeddings(sf, [[0.0, 2.0], [2.0, 0.0], [0.5, 2.0], [2.0, 0.5]])
    s2, c2 = _kmeans_state(sf, k=2, iters=1)
    assert not (np.array_equal(s1, s2) and np.array_equal(c1, c2))
    s3, c3 = _kmeans_state(sf, k=2, iters=1)
    assert s3 is s2 and c3 is c2  # unchanged table: the cached state


class _Value:
    pass


def test_memo_rebuilds_on_new_fingerprint_and_releases_old():
    built = []

    def build():
        built.append(_Value())
        return built[-1]

    key = ("test-memo", ("p",))
    try:
        first = cache.memo(*key, "fp1", build)
        assert cache.memo(*key, "fp1", build) is first
        assert len(built) == 1
        old = weakref.ref(first)
        del first
        built.clear()
        second = cache.memo(*key, "fp2", build)
        gc.collect()
        assert old() is None  # the stale value is not pinned
        assert cache.memo(*key, "fp2", build) is second
        cache.clear()
        assert cache.memo(*key, "fp2", build) is not second
    finally:
        cache.clear()


def test_build_once_failed_build_publishes_nothing(tmp_path):
    root = str(tmp_path / "root")

    def failing(d):
        with open(os.path.join(d, "half"), "w") as f:
            f.write("x")
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        cache.build_once(root, "idx-1", failing)
    assert os.listdir(root) == []  # neither published nor left as scratch

    runs = []

    def good(d):
        runs.append(d)
        with open(os.path.join(d, "data"), "w") as f:
            f.write("ok")

    d = cache.build_once(root, "idx-1", good)
    assert d == os.path.join(root, "idx-1")
    assert sorted(os.listdir(d)) == ["_SUCCESS", "data"]
    assert cache.build_once(root, "idx-1", good) == d
    assert len(runs) == 1

