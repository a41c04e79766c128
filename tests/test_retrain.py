"""Interactive-training loop (SURVEY §3.3 / VERDICT r1 #9): corrections →
K4 insert → re-run ONLY the affected partitions, others resume from their
manifests untouched."""

from __future__ import annotations

import glob
import os
import sys

import pyarrow.compute as pc
import pyarrow.parquet as pq

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "tools"))


def _media_refs(path: str) -> set[str]:
    t = pq.read_table(path, columns=["spans"])
    flat = pc.list_flatten(t.column("spans").combine_chunks())
    kinds = flat.field("kind").to_pylist()
    refs = flat.field("media_ref").to_pylist()
    return {r for k, r in zip(kinds, refs) if k == "media"}


def test_retrain_reruns_only_affected_partitions(tmp_path, ray_session):
    import ray

    from retrain import affected_partitions, harvest_tuples
    from tensorflow_ocr_ray.config import FIXTURE_CONFIG
    from tensorflow_ocr_ray.fixtures import write_documents_parquet
    from tensorflow_ocr_ray.fonts import get_font_index
    from tensorflow_ocr_ray.pipelines.checkpoint import run_checkpointed

    in_dir, out_dir = str(tmp_path / "in"), str(tmp_path / "out")
    write_documents_parquet(in_dir, 12, seed=5, num_files=2)
    files = sorted(glob.glob(os.path.join(in_dir, "*.parquet")))
    kwargs = dict(concurrency=2, batch_size=8)

    reports = run_checkpointed(files, out_dir, pipeline_kwargs=kwargs)
    assert all(r.status == "done" and not r.skipped for r in reports)

    # pick a ref unique to partition 0 and relabel its first glyph '@'
    refs0 = _media_refs(files[0]) - _media_refs(files[1])
    ref = sorted(refs0)[0]
    base = get_font_index()
    from tensorflow_ocr_ray.core.page import ocr_payload
    from tensorflow_ocr_ray.state.media import make_media_store

    store = make_media_store({"kind": "synthetic"})
    res = ocr_payload(store.get(ref), FIXTURE_CONFIG, base)
    g = res.glyphs[0]
    corrections = [(ref, g.left, g.top, "@")]

    tuples, labels, misses = harvest_tuples(corrections, FIXTURE_CONFIG, base)
    assert not misses and labels == ["@"]
    augmented = base.with_inserts(tuples, labels)
    affected = affected_partitions(files, {ref})
    assert affected == {0}

    part1_manifest = os.path.join(out_dir, "_manifest", "part-part-00001.json")
    mtime_before = os.path.getmtime(part1_manifest)

    font_ref = ray.put(augmented.to_state())
    reports2 = run_checkpointed(
        files, out_dir,
        pipeline_kwargs={**kwargs, "font_spec": {"kind": "ref", "ref": font_ref}},
        force_partitions=affected,
    )
    assert [r.skipped for r in reports2] == [False, True]
    # untouched partition: manifest not rewritten
    assert os.path.getmtime(part1_manifest) == mtime_before

    # the corrected glyph's label shows up in the re-segmented output
    import ray.data as rd

    out0 = rd.read_parquet(os.path.join(out_dir, "part=part-00000")).to_pandas()
    texts = [
        s["text"]
        for spans in out0["spans"]
        for s in spans
        if s["kind"] == "media" and s["media_ref"] == ref
    ]
    assert texts and "@" in texts[0]
