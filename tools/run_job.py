"""Cluster job entry point — the `ray job submit` driver.

Runs the checkpointed OCR pipeline over a partitioned parquet corpus:

    python tools/run_job.py --input /data/docs --output /data/ocr_out \
        [--generate N] [--concurrency 31]

Partition granularity = one input parquet file; a killed job re-submitted
with the same arguments skips partitions whose manifest says done (and
whose input fingerprint still matches) — see
tensorflow_ocr_ray/pipelines/checkpoint.py.

Owns its Ray session (unlike __ray_entry__): init is guarded so it also
runs under `ray job submit` where the cluster is already up.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", required=True, help="dir of documents parquet files")
    ap.add_argument("--output", required=True, help="output dir (partitioned)")
    ap.add_argument("--generate", type=int, default=0,
                    help="generate a fixture corpus of N docs into --input first")
    ap.add_argument("--num-files", type=int, default=8)
    ap.add_argument("--pipeline", default="ocr", choices=["ocr", "extract"],
                    help="'extract': the combined web-extraction flagship "
                         "(html spans boilerplate-stripped ahead of the "
                         "scorer pool); with --generate the corpus is "
                         "written in the web shape (html spans)")
    ap.add_argument("--concurrency", type=int, default=0,
                    help="OCR scorer task cap (default: CPUs-1)")
    ap.add_argument("--batch-size", type=int, default=16)
    ap.add_argument("--scorer", default="knn", choices=["knn", "dense", "cnn"])
    ap.add_argument("--on-media-error", default="raise",
                    choices=["raise", "empty"],
                    help="'empty': bad/missing payloads yield '' instead "
                         "of failing the partition (the 100 TB "
                         "few-bad-objects posture)")
    ap.add_argument("--verify-truth", action="store_true",
                    help="record per-partition span-equality vs the "
                         "analytic fixture truth in each manifest")
    ap.add_argument("--media-dir", default=None,
                    help="read media payloads from this dir store (one "
                         "file per ref — the deployment shape; default "
                         "renders the synthetic fixture payloads in-line)")
    ap.add_argument("--materialize-media", action="store_true",
                    help="with --media-dir: pre-encode every referenced "
                         "payload into the dir store before the run "
                         "(parallel, outside the per-partition timings)")
    ap.add_argument("--follow", type=int, default=0, metavar="IDLE_SCANS",
                    help="streaming ingest: keep rescanning --input and "
                         "processing new files; exit after this many "
                         "consecutive scans with nothing new (partition "
                         "identity is the file basename, so late arrivals "
                         "never invalidate finished partitions)")
    ap.add_argument("--follow-interval", type=float, default=5.0,
                    help="seconds between --follow rescans")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS") or "local",
                 include_dashboard=False)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    if args.generate:
        from tensorflow_ocr_ray.fixtures import write_documents_parquet

        write_documents_parquet(args.input, args.generate,
                                num_files=args.num_files,
                                web=args.pipeline == "extract")

    files = sorted(glob.glob(os.path.join(args.input, "*.parquet")))
    if not files:
        print(f"no parquet files under {args.input}", file=sys.stderr)
        return 2

    media_spec = None
    if args.media_dir:
        if args.materialize_media:
            import pyarrow.compute as pc
            import pyarrow.parquet as pq

            refs = set()
            for f in files:
                flat = pc.list_flatten(
                    pq.read_table(f, columns=["spans"])
                    .column("spans").combine_chunks()
                )
                kinds = flat.field("kind").to_pylist()
                rs = flat.field("media_ref").to_pylist()
                refs.update(r for k, r in zip(kinds, rs) if k == "media")

            @ray.remote
            def _write(chunk):
                from tensorflow_ocr_ray.fixtures import payload_for_ref
                from tensorflow_ocr_ray.state.media import DirMediaStore

                for ref in chunk:
                    DirMediaStore.put(args.media_dir, ref,
                                      payload_for_ref(ref))
                return len(chunk)

            chunks = [sorted(refs)[i::64] for i in range(64)]
            ray.get([_write.remote(c) for c in chunks if c])
        media_spec = {"kind": "dir", "path": args.media_dir}

    cpus = int(ray.cluster_resources().get("CPU", 2))
    concurrency = args.concurrency or max(1, cpus - 1)
    from tensorflow_ocr_ray.pipelines.checkpoint import run_checkpointed

    # scorers train exactly once, here on the driver; workers load the
    # broadcast weights (never retrain)
    scorer_spec = None
    if args.scorer == "dense":
        from tensorflow_ocr_ray.fonts import get_font_index
        from tensorflow_ocr_ray.models.dense import train_on_font_index

        model, _ = train_on_font_index(get_font_index(), epochs=600)
        scorer_spec = {"kind": "dense", "state_ref": ray.put(model.to_state())}
    elif args.scorer == "cnn":
        from tensorflow_ocr_ray.models.cnn import train_on_font_windows

        model, _ = train_on_font_windows(epochs=120)
        scorer_spec = {"kind": "cnn", "state_ref": ray.put(model.to_state())}
    pipeline_kwargs = dict(
        concurrency=concurrency,
        batch_size=args.batch_size,
        num_blocks=4 * cpus,
        scorer_spec=scorer_spec,
        media_spec=media_spec,
        on_media_error=args.on_media_error,
    )
    pipeline_fn = None
    if args.pipeline == "extract":
        from tensorflow_ocr_ray.pipelines.extract import extract_documents

        pipeline_fn = extract_documents

    def _run(fs):
        return run_checkpointed(
            fs, args.output, pipeline_kwargs=pipeline_kwargs,
            verify_against_truth=args.verify_truth,
            pipeline_fn=pipeline_fn,
        )

    reports = _run(files)
    if args.follow:
        import time as _time

        idle = 0
        while idle < args.follow:
            _time.sleep(args.follow_interval)
            fs = sorted(glob.glob(os.path.join(args.input, "*.parquet")))
            rs = _run(fs)
            fresh = sum(1 for r in rs if not r.skipped)
            idle = 0 if fresh else idle + 1
            reports = rs
    done = sum(1 for r in reports if r.status == "done")
    skipped = sum(1 for r in reports if r.skipped)
    docs = sum(r.docs for r in reports)
    thr = [r.docs_per_sec for r in reports if not r.skipped]
    print(json.dumps({
        "partitions": len(reports), "done": done, "skipped": skipped,
        "docs": docs,
        "docs_per_sec_mean": round(sum(thr) / len(thr), 2) if thr else None,
    }))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
