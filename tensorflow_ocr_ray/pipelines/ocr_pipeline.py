"""The flagship OCR extraction pipeline over interleaved documents.

Input (BASELINE.json input_hint): a table
``(doc_id: string, spans: list<struct<kind, text, media_ref, offset>>)``.
Output: same schema, with every media span's ``text`` filled by OCR; the
per-document span sequence ``(kind, text, media_ref, order)`` is preserved
exactly (the reference's ordering invariant, carried by explicit ordinal
columns — never by block order).

One physical plan, built for skew (a 1-span doc next to a 500-span doc,
tiny pages next to 600x600 ones):

1. ``map_batches`` explode: doc rows → span rows (doc_id, kind, text,
   media_ref, offset) — pure Arrow ``list_flatten`` +
   ``list_parent_indices``, zero-copy — then an optional span transform
   (the html strip of ``pipelines/extract.py``) and a hash bucket of
   ``doc_id``.
2. optional ``repartition(num_blocks)`` so span rows spread evenly
   regardless of per-document span counts.
3. ``map_batches(make_span_ocr_fn(...))`` task pool — the single heavy
   stage; media rows OCR'd, text rows pass.
4. ``groupby("bucket").map_groups`` reassembly — the ONE wide shuffle —
   sorting each bucket by ``(doc_id, offset)`` and rebuilding the spans
   list.

The alternatives were measured and removed (BUILD_NOTES "One physical
plan"): a fused whole-document actor stage, an actor-pool scorer, and
reassembly through ``stages.exchange``'s hash or streaming exchange were
each slower or hung.

The result is a lazy Dataset; callers consume via write_parquet /
iter_batches.  No ray.init here — sessions belong to the driver.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from tensorflow_ocr_ray.config import OcrConfig
from tensorflow_ocr_ray.fixtures import DOCUMENTS_SCHEMA, SPAN_SCHEMA
from tensorflow_ocr_ray.stages.ocr_stages import make_span_ocr_fn

EXPLODED_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
        ("offset", pa.int32()),
    ]
)


EMPTY_DOC_KIND = "__empty__"  # sentinel: a document with zero spans


def explode_documents(batch: pa.Table) -> pa.Table:
    """doc rows → span rows, vectorized (no Python per-row loop).

    Zero-span documents emit one sentinel row (kind=__empty__) so they
    survive the explode→reassemble round trip instead of silently
    disappearing from the output."""
    spans = batch.column("spans")
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    parent = pc.list_parent_indices(spans)
    doc_ids = pc.take(batch.column("doc_id"), parent)
    flat = pc.list_flatten(spans)
    out = pa.table(
        {
            "doc_id": doc_ids,
            "kind": flat.field("kind"),
            "text": flat.field("text"),
            "media_ref": flat.field("media_ref"),
            "offset": flat.field("offset"),
        }
    )
    lengths = pc.list_value_length(spans)
    empty_mask = pc.equal(pc.fill_null(lengths, 0), 0)
    if pc.any(empty_mask).as_py():
        empty_ids = pc.filter(batch.column("doc_id"), empty_mask)
        n = len(empty_ids)
        sentinel = pa.table(
            {
                "doc_id": empty_ids,
                "kind": pa.array([EMPTY_DOC_KIND] * n, type=pa.string()),
                "text": pa.array([""] * n, type=pa.string()),
                "media_ref": pa.array([""] * n, type=pa.string()),
                "offset": pa.array([0] * n, type=pa.int32()),
            }
        )
        out = pa.concat_tables([out, sentinel])
    return out


def reassemble_group(group: pa.Table) -> pa.Table:
    """Span rows (one or MANY documents) → (doc_id, spans) rows.

    Fully vectorized: one Arrow sort by (doc_id, offset), then the spans
    list column is rebuilt from run-length offsets — no per-document Python.
    Used per hash bucket so per-group scheduling overhead is O(buckets),
    not O(documents) (8k one-doc ``map_groups`` calls measured ~10s of pure
    overhead at sf-bench scale)."""
    import numpy as np

    # drop zero-span sentinels; their doc_ids re-emerge as empty lists
    sentinel_mask = pc.equal(group.column("kind"), EMPTY_DOC_KIND)
    empties = pc.filter(group.column("doc_id"), sentinel_mask).to_pylist()
    group = group.filter(pc.invert(sentinel_mask))
    order = pc.sort_indices(
        group,
        sort_keys=[("doc_id", "ascending"), ("offset", "ascending")],
    )
    g = group.take(order)
    ids = g.column("doc_id").combine_chunks()
    n = len(ids)
    if n == 0:
        out_ids = pa.array([], type=pa.string())
        spans = pa.array([], type=SPAN_SCHEMA)
    else:
        # run-length boundaries on the sorted id column, all-Arrow
        neq = pc.not_equal(ids.slice(1), ids.slice(0, n - 1))
        change = np.nonzero(neq.to_numpy(zero_copy_only=False))[0] + 1
        offsets = np.concatenate(([0], change, [n])).astype(np.int32)
        structs = pa.StructArray.from_arrays(
            [
                g.column("kind").combine_chunks(),
                g.column("text").combine_chunks(),
                g.column("media_ref").combine_chunks(),
                g.column("offset").combine_chunks(),
            ],
            names=["kind", "text", "media_ref", "offset"],
        )
        spans = pa.ListArray.from_arrays(
            pa.array(offsets, type=pa.int32()), structs
        ).cast(SPAN_SCHEMA)
        out_ids = ids.take(pa.array(offsets[:-1], type=pa.int32()))
    if empties:
        spans = pa.concat_arrays(
            [spans, pa.array([[]] * len(empties), type=SPAN_SCHEMA)]
        )
        out_ids = pa.concat_arrays(
            [out_ids, pa.array(empties, type=pa.string())]
        )
    return pa.table({"doc_id": out_ids, "spans": spans})


def ocr_documents(
    ds: "ray.data.Dataset",
    cfg: OcrConfig | None = None,
    font_spec: dict | None = None,
    media_spec: dict | None = None,
    postprocess: list[str] | None = None,
    concurrency: int | None = 4,
    batch_size: int = 16,
    num_blocks: int | None = None,
    scorer_spec: dict | None = None,
    ray_remote_args: dict | None = None,
    on_media_error: str = "raise",
    pre_score_transform=None,
) -> "ray.data.Dataset":
    """Build the lazy OCR Dataset; see the module docstring for the plan.

    ``concurrency`` caps the scorer's in-flight tasks (``None``: no cap).
    ``ray_remote_args`` reaches the scorer's ``map_batches`` (e.g.
    ``num_gpus`` for GPU scorer deployments).

    ``pre_score_transform``: an Arrow ``Table → Table`` batch fn applied
    to the span stream right after the explode — the seam
    ``pipelines/extract.py`` hangs the HTML boilerplate-strip stage on,
    so one pipeline extracts every modality in a single streamed pass."""
    # group count scales with the cluster so per-bucket work stays
    # bounded as nodes are added
    try:
        import ray as _ray

        cpus = int(_ray.cluster_resources().get("CPU", 16))
    except Exception:
        cpus = 16
    n_buckets = max(64, 4 * cpus)
    stage_kwargs = dict(
        cfg=cfg,
        font_spec=font_spec,
        media_spec=media_spec,
        postprocess=postprocess,
        scorer_spec=scorer_spec,
        on_media_error=on_media_error,
    )
    spans = ds.map_batches(explode_documents, batch_format="pyarrow")
    if pre_score_transform is not None:
        # cheap CPU-bound span transform (e.g. HTML strip) rides plain
        # tasks ahead of the scorer and pipelines with the explode
        spans = spans.map_batches(pre_score_transform,
                                  batch_format="pyarrow")

    # The reassembly groups on a deterministic hash bucket of doc_id
    # (small-int key, ≤ n_buckets groups) instead of the raw doc_id,
    # which would schedule one Python group call per document.  The
    # bucket is computed before the scorer so each worker's polars
    # first-import (~0.2 s) lands in pipeline spin-up, not in the drain
    # tail (measured ~2 s wall at sf0.1/32 CPUs when it ran after).
    def add_bucket(batch: pa.Table) -> pa.Table:
        import polars as pl

        # polars xxhash with a fixed seed: stable across tasks in a run,
        # which is all a shuffle key needs
        h = pl.from_arrow(batch.column("doc_id")).hash(seed=0)
        buckets = (h % n_buckets).cast(pl.Int32).to_arrow()
        return batch.append_column("bucket", buckets)

    spans = spans.map_batches(add_bucket, batch_format="pyarrow")
    if num_blocks:
        # spread span rows evenly: per-document span-count skew dies here
        spans = spans.repartition(num_blocks)
    # plain tasks over warm reused worker processes; stage state is built
    # once per worker (make_span_ocr_fn)
    scored = spans.map_batches(
        make_span_ocr_fn(stage_kwargs),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        **(ray_remote_args or {}),
    )
    return scored.groupby("bucket").map_groups(
        lambda g: reassemble_group(g.drop_columns(["bucket"])),
        batch_format="pyarrow",
    )


def read_documents(path: str | list[str], **kw) -> "ray.data.Dataset":
    """Read a documents table: Lance if available/requested, else parquet."""
    paths = path if isinstance(path, list) else [path]
    if any(str(p).endswith(".lance") for p in paths):
        try:
            return ray.data.read_lance(paths[0], **kw)
        except (AttributeError, ImportError) as e:  # lance not in container
            raise RuntimeError(
                "Lance reader unavailable in this environment"
            ) from e
    return ray.data.read_parquet(paths, **kw)


def write_documents(ds: "ray.data.Dataset", path: str, **kw) -> None:
    """Write a documents table — the symmetric sink adapter: a ``.lance``
    path uses Ray's Lance sink (north-star storage; the lance lib is not
    in this container, so the seam raises with a clear message there),
    anything else writes partitioned parquet."""
    if str(path).endswith(".lance"):
        try:
            ds.write_lance(path, **kw)
            return
        except (AttributeError, ImportError) as e:  # lance not in container
            raise RuntimeError(
                "Lance writer unavailable in this environment"
            ) from e
    ds.write_parquet(path, **kw)
