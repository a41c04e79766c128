#!/usr/bin/env python
"""Interactive-training loop as a batch CLI (SURVEY §3.3).

The reference's GUI loop (``main/gtkDisplay.c:442-649``) is: click a
glyph → type its label → insert the (tuple, label) into the live index →
redo the column (``main/main.c:282-291``).  Headless and distributed,
the same cycle is:

1. read a corrections file — one line per relabeled glyph:
       ``<media_ref> <left> <top> <label>``
   ((left, top) is the glyphAtXY join key the reference uses,
   ``main/training.c:70-109``);
2. OCR each corrected page once with the CURRENT index to recover that
   glyph's feature tuple;
3. K4-insert the (tuple, label) pairs into the index
   (``FontIndex.with_inserts`` — exact-duplicate tuples are replaced, so
   a relabel wins);
4. broadcast the augmented index (``ray.put``) and re-run ONLY the
   partitions whose documents reference a corrected media_ref — every
   other partition resumes from its manifest untouched.

Usage:
    python tools/retrain.py --input IN_DIR --output OUT_DIR \
        --corrections corrections.txt [--batch-size 16]
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def read_corrections(path: str) -> list[tuple[str, int, int, str]]:
    """(media_ref, left, top, label) per non-empty line."""
    out = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            parts = line.split()
            if len(parts) >= 4:
                out.append((parts[0], int(parts[1]), int(parts[2]), parts[3]))
    return out


def harvest_tuples(corrections, cfg, index, media_spec=None):
    """OCR each corrected page once; join corrections to glyph tuples by
    the (left, top) corner — the glyphAtXY lookup."""
    import numpy as np

    from tensorflow_ocr_ray.core.page import ocr_payload
    from tensorflow_ocr_ray.state.media import make_media_store

    store = make_media_store(media_spec or {"kind": "synthetic"})
    by_ref: dict[str, list[tuple[int, int, str]]] = {}
    for ref, left, top, label in corrections:
        by_ref.setdefault(ref, []).append((left, top, label))
    tuples, labels, misses = [], [], []
    for ref, wanted in by_ref.items():
        res = ocr_payload(store.get(ref), cfg, index, collect_glyphs=True)
        corner = {(g.left, g.top): g.features for g in res.glyphs}
        for left, top, label in wanted:
            tup = corner.get((left, top))
            if tup is None:
                misses.append((ref, left, top))
                continue
            tuples.append(np.asarray(tup, dtype=np.float32))
            labels.append(label)
    return tuples, labels, misses


def affected_partitions(input_files: list[str], refs: set[str]) -> set[int]:
    """Partition ids whose documents reference any corrected media_ref.

    At this scale a flat scan of each file's media_ref values is fine; at
    100 TB the same question is answered by parquet column statistics /
    bloom filters or a maintained inverted index (ref → partition)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    hit = set()
    for pid, path in enumerate(sorted(input_files)):
        t = pq.read_table(path, columns=["spans"])
        flat = pc.list_flatten(t.column("spans").combine_chunks())
        file_refs = set(flat.field("media_ref").to_pylist())
        if file_refs & refs:
            hit.add(pid)
    return hit


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--input", required=True, help="corpus parquet dir")
    ap.add_argument("--output", required=True, help="checkpointed out dir")
    ap.add_argument("--corrections", required=True)
    ap.add_argument("--batch-size", type=int, default=16)
    ap.add_argument("--concurrency", type=int, default=None)
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from tensorflow_ocr_ray.config import FIXTURE_CONFIG
    from tensorflow_ocr_ray.fonts import get_font_index
    from tensorflow_ocr_ray.pipelines.checkpoint import run_checkpointed

    corrections = read_corrections(args.corrections)
    if not corrections:
        print("no corrections found", file=sys.stderr)
        return 2
    files = sorted(glob.glob(os.path.join(args.input, "*.parquet")))
    if not files:
        print(f"no parquet files under {args.input}", file=sys.stderr)
        return 2

    base = get_font_index()
    tuples, labels, misses = harvest_tuples(corrections, FIXTURE_CONFIG, base)
    for m in misses:
        print(f"warning: no glyph at {m}", file=sys.stderr)
    if not tuples:
        print("no corrections joined to glyphs", file=sys.stderr)
        return 2
    augmented = base.with_inserts(tuples, labels)
    refs = {c[0] for c in corrections}
    affected = affected_partitions(files, refs)

    cpus = int(ray.cluster_resources().get("CPU", 2))
    concurrency = args.concurrency or max(1, cpus - 1)
    font_ref = ray.put(augmented.to_state())
    reports = run_checkpointed(
        files,
        args.output,
        pipeline_kwargs=dict(
            concurrency=concurrency,
            batch_size=args.batch_size,
            font_spec={"kind": "ref", "ref": font_ref},
        ),
        force_partitions=affected,
    )
    print(json.dumps({
        "corrections": len(corrections),
        "inserted": len(labels),
        "affected_partitions": sorted(affected),
        "rerun": sum(1 for r in reports if not r.skipped),
        "skipped": sum(1 for r in reports if r.skipped),
    }))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
