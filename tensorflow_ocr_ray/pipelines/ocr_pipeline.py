"""The flagship OCR extraction pipeline over interleaved documents.

Input (BASELINE.json input_hint): a table
``(doc_id: string, spans: list<struct<kind, text, media_ref, offset>>)``.
Output: same schema, with every media span's ``text`` filled by OCR; the
per-document span sequence ``(kind, text, media_ref, order)`` is preserved
exactly (the reference's ordering invariant, carried by explicit ordinal
columns — never by block order).

One physical plan, one task per block:

1. optional ``repartition(num_blocks)`` of the document rows;
2. one task-pool ``map_batches(batch_size=None)`` whose function,
   ``ocr_span_batch``, gets a whole block of documents and runs every
   step in memory: explode to span rows (pure Arrow ``list_flatten`` +
   ``list_parent_indices``) → optional span transform (the html strip
   of ``pipelines/extract.py``) → the scorer from ``make_span_ocr_fn``
   (media rows OCR'd, text rows pass) on zero-copy slices of
   ``batch_size`` documents → reassembly into ``(doc_id, spans)`` rows.
   Explode, transform and reassembly run once per block; only the
   scorer runs per slice, which bounds its working set.

There is no shuffle and no barrier: a document leaves as soon as its
block is scored.  Ray's own per-batch cost (~0.8 ms per 16-document
batch at one core) and the steps' per-call Arrow overhead are paid
once per block instead of once per ``batch_size`` documents
(BUILD_NOTES "One physical plan").  The alternatives were measured and
removed there too: exploded spans reassembled by a global ``Sort``
(holds every document to the end of the job), a fused whole-document
actor stage (hung), an actor-pool scorer, and reassembly through a
hash or streaming exchange.

The result is a lazy Dataset; callers consume via write_parquet /
iter_batches.  No ray.init here — sessions belong to the driver.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from tensorflow_ocr_ray.config import OcrConfig
from tensorflow_ocr_ray.fixtures import SPAN_SCHEMA
from tensorflow_ocr_ray.stages.ocr_stages import make_span_ocr_fn

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
    Runs once per block, so its overhead is per block, not per document."""
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

    ``batch_size`` counts documents per scorer call: each block is scored
    in slices of ``batch_size`` whole documents, however many spans they
    have.  ``num_blocks`` (documents are split evenly over that many
    blocks) sets the number of tasks.  ``concurrency`` caps the in-flight
    tasks (``None``: no cap).  ``ray_remote_args`` reaches the
    ``map_batches`` (e.g. ``num_gpus`` for GPU scorer deployments).

    ``doc_id`` is the table's key: rows that share a ``doc_id`` are
    merged into one output row, spans sorted by offset, when they land
    in the same block.

    ``pre_score_transform``: an Arrow ``Table → Table`` fn applied once
    per block to its span rows right after the explode — the seam
    ``pipelines/extract.py`` hangs the HTML boilerplate strip on, so one
    pipeline extracts every modality in a single streamed pass.  It may
    rewrite values but must keep the rows and their order, because the
    scorer's slices are cut at document boundaries of the exploded
    rows."""
    score = make_span_ocr_fn(dict(
        cfg=cfg,
        font_spec=font_spec,
        media_spec=media_spec,
        postprocess=postprocess,
        scorer_spec=scorer_spec,
        on_media_error=on_media_error,
    ))

    def ocr_span_batch(block: pa.Table) -> pa.Table:
        spans = explode_documents(block)
        if pre_score_transform is not None:
            spans = pre_score_transform(spans)
        if pc.any(pc.equal(spans.column("kind"), "media")).as_py():
            # document i's rows end at the cumulative span count (a null
            # list counts 0, as in list_flatten, and a sliced block needs
            # no offset normalising); every batch_size-th document starts
            # a slice; empty-document sentinels follow, unscored
            ends = np.cumsum(pc.fill_null(
                pc.list_value_length(block.column("spans")), 0).to_numpy())
            cuts = [*np.r_[0, ends][::batch_size].tolist(), int(ends[-1])]
            spans = pa.concat_tables(
                [score(spans.slice(a, b - a))
                 for a, b in zip(cuts, cuts[1:]) if b > a]
                + [spans.slice(cuts[-1])]
            )
        return reassemble_group(spans)

    if num_blocks:
        ds = ds.repartition(num_blocks)
    return ds.map_batches(
        ocr_span_batch,
        batch_format="pyarrow",
        batch_size=None,
        concurrency=concurrency,
        **(ray_remote_args or {}),
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
