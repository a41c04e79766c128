"""The driver cache module: fingerprint-keyed memo and build-once dirs.

A memoized query result must follow its input table: rewriting the
parquet file in place (same path) has to change the next answer, while
a repeat call on an unchanged table must not recompute it.
"""

from __future__ import annotations

import gc
import os
import weakref
from pathlib import Path

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
    sf = tmp_path / "sf"
    sf.mkdir()
    _write_events(str(sf), 3)
    source = (str(sf), "events")

    def failing(d):
        with open(os.path.join(d, "half"), "w") as f:
            f.write("x")
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        cache.build_once(root, "idx-1", failing, source)
    assert os.listdir(root) == []  # neither published nor left as scratch

    runs = []

    def good(d):
        runs.append(d)
        with open(os.path.join(d, "data"), "w") as f:
            f.write("ok")

    d = cache.build_once(root, "idx-1", good, source)
    assert d == os.path.join(root, "idx-1")
    assert sorted(os.listdir(d)) == ["_SOURCE", "_SUCCESS", "data"]
    assert cache.build_once(root, "idx-1", good, source) == d
    assert len(runs) == 1



def test_build_once_removes_directories_of_older_contents(tmp_path):
    """Each rewrite of a table publishes a new directory and removes the
    one its old contents left; other tables and templates keep theirs."""
    root = str(tmp_path / "root")
    sf_a, sf_b = tmp_path / "sf_a", tmp_path / "sf_b"
    sf_a.mkdir()
    sf_b.mkdir()

    def build(d):
        with open(os.path.join(d, "data"), "w") as f:
            f.write("x")

    def built_from(sf_dir):
        return sorted(n for n in os.listdir(root)
                      if Path(root, n, "_SOURCE").read_text()
                      .startswith(os.path.abspath(sf_dir)))

    _write_events(str(sf_b), 3)
    other = cache.build_once(root, "idx-{fp}", build,
                             source=(str(sf_b), "events"))
    names = []
    for n in (10, 11, 12):  # the first write, then two rewrites
        _write_events(str(sf_a), n)
        d = cache.build_once(root, "idx-{fp}", build,
                             source=(str(sf_a), "events"))
        names.append(os.path.basename(d))
        assert built_from(sf_a) == [names[-1]]
        assert os.path.exists(os.path.join(d, "_SUCCESS"))
    assert len(set(names)) == 3  # every rewrite changed the fingerprint
    assert names[-1] == "idx-" + cache.table_fingerprint(str(sf_a), "events")
    kept = cache.build_once(root, "other-{fp}", build,
                            source=(str(sf_a), "events"))
    assert os.path.exists(other) and built_from(sf_b) == [
        os.path.basename(other)]
    assert built_from(sf_a) == sorted([names[-1], os.path.basename(kept)])


def test_build_once_removes_directories_of_deleted_tables(tmp_path):
    """A directory whose source table is gone (a test's sf dir removed
    after the session) is collected by the next publish; other builders'
    scratch directories are not touched."""
    root = str(tmp_path / "root")
    sf_a, sf_b = tmp_path / "sf_a", tmp_path / "sf_b"
    sf_a.mkdir()
    sf_b.mkdir()

    def build(d):
        with open(os.path.join(d, "data"), "w") as f:
            f.write("x")

    _write_events(str(sf_a), 4)
    _write_events(str(sf_b), 5)
    gone = cache.build_once(root, "idx-{fp}", build, (str(sf_a), "events"))
    scratch = os.path.join(root, "idx-0.build-1")  # a build in progress
    os.makedirs(scratch)
    Path(scratch, "_SOURCE").write_text(Path(gone, "_SOURCE").read_text())
    os.remove(sf_a / "events.parquet")
    sf_a.rmdir()
    kept = cache.build_once(root, "idx-{fp}", build, (str(sf_b), "events"))
    assert sorted(os.listdir(root)) == sorted(
        [os.path.basename(kept), "idx-0.build-1"])


def test_build_once_stale_builder_collects_nothing(tmp_path):
    """A builder whose table is rewritten while it builds publishes the
    old fingerprint's directory but must not remove the current one."""
    root = str(tmp_path / "root")
    sf = tmp_path / "sf"
    sf.mkdir()

    def build(d):
        with open(os.path.join(d, "data"), "w") as f:
            f.write("x")

    _write_events(str(sf), 6)
    old_fp = cache.table_fingerprint(str(sf), "events")

    def build_then_rewrite(d):
        build(d)
        _write_events(str(sf), 7)  # the table changes under this build
        current = cache.build_once(root, "idx-{fp}", build,
                                   (str(sf), "events"))
        built.append(os.path.basename(current))

    built = []
    stale = cache.build_once(root, "idx-{fp}", build_then_rewrite,
                             (str(sf), "events"))
    assert os.path.basename(stale) == f"idx-{old_fp}"
    assert built == ["idx-" + cache.table_fingerprint(str(sf), "events")]
    assert sorted(os.listdir(root)) == sorted([built[0], f"idx-{old_fp}"])
