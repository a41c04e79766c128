"""Explicit hash exchange — the repo's custom wide operator for when
Ray Data's sort-based shuffle is the bottleneck.

``Dataset.groupby(key).map_groups(fn)`` executes as a SORT: measured on
a 320k-doc corpus (BENCH/BASELINE.md probe notes), the Sort operator
dominated wall time at BOTH 2 and 8 CPUs (scaling efficiency ~0.35 for
tfidf/dup_span) because its map/reduce phases did not parallelize at
this data size, while every map stage around it scaled cleanly.  For a
LOW-CARDINALITY PRECOMPUTED shard key (the repo's standard 64-way
crc32/id-hash shard), sorting is wasted work — rows only need to be
ROUTED.

``hash_exchange`` does exactly that with raw Ray tasks (SURVEY §2's
custom-operator rule, option (c), documented): one task per input block
splits it by the shard column (``num_returns=n_shards`` object refs —
the object store holds every partition, nothing on the driver), then
one task per shard concatenates its slices and applies ``fn``.  Two
passes, no sort, no comparison work; the result returns to the Dataset
world via ``from_pandas_refs`` so downstream stages stay lazy.

Partitioning assumption (same as the groupby it replaces): one shard's
rows fit one task's memory — callers size ``n_shards`` to the data, and
a skewed shard hurts here exactly as it hurt the sort path.

MATERIALIZATION COST (vs the streaming sort-shuffle this replaces):
``to_arrow_refs()`` executes the whole upstream plan eagerly, and the
raw split/merge tasks run OUTSIDE Ray Data's streaming executor, so
they get no backpressure — the exchange input must fit object store +
spill in its entirety (split slices are views into the same store, not
copies; the slice-ref table itself is tiny).  Callers therefore feed
the exchange a SKINNY pre-reduced projection (ids + shard + the few
columns ``fn`` needs), never raw wide rows: at 10^12 events a 32-byte
projection is ~30 TB across the cluster's store+spill, which is the
same high-water mark Ray's sort shuffle needs for its map output.  If
an input might exceed that, pre-reduce harder (map-side partials) or
fall back to ``groupby().map_groups``: Ray's own shuffle runs inside
the streaming executor and spills, so it is the bounded-memory route,
with identical results.

Contract differences vs map_groups:
- EMPTY shards reach ``fn`` as an empty typed frame (map_groups never
  calls the fn for absent groups), so ``fn`` must tolerate
  len(df) == 0.
- shard values outside [0, n_shards) raise ValueError (a groupby would
  happily make extra groups); callers own the modulo.
- an EMPTY INPUT dataset yields an empty output dataset (fn is not
  called at all — there is no typed frame to build one from).
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd


def meta_rows(sf_dir: str, table: str) -> int:
    """Row count from the parquet FOOTER — no data scan, no Ray task."""
    import pyarrow.parquet as pq

    try:
        return pq.ParquetFile(f"{sf_dir}/{table}.parquet").metadata.num_rows
    except Exception:
        return 0


def adaptive_shards(
    rows: int, target_rows: int = 100_000, lo: int = 1, hi: int = 4096
) -> int:
    """Shard count proportional to input size.

    A fixed 64-way exchange pays ~1 s of split/merge task dispatch
    regardless of volume (measured warm on a 5k-row input: 1.6 s at 64
    shards vs 0.6 s at 4) — pure overhead under ``target_rows`` rows,
    while inputs past 64 x target need MORE shards to keep the
    one-shard-fits-one-task contract.  Callers with a heavier per-row
    payload (full text vs int partials) pass a smaller ``target_rows``."""
    return max(lo, min(hi, -(-rows // target_rows)))


def hash_exchange(
    ds: "rd.Dataset",
    shard_col: str,
    n_shards: int,
    fn: Callable,
    batch_format: str = "pandas",
) -> "rd.Dataset":
    """Route every row to shard ``row[shard_col]`` (values must be
    0..n_shards-1) and apply ``fn`` once per shard — a drop-in
    replacement for ``ds.groupby(shard_col).map_groups(fn)`` that never
    sorts.

    ``batch_format="pandas"`` (default): ``fn`` maps DataFrame →
    DataFrame.  ``batch_format="pyarrow"``: ``fn`` maps Table → Table
    with NO pandas round-trip anywhere — required for nested columns
    (list<struct> spans) where a pandas conversion is object-array slow
    and lossy.

    See the module docstring for the materialization / backpressure
    contract: the input executes eagerly and must fit store + spill, so
    feed this a skinny pre-reduced projection."""
    if batch_format not in ("pandas", "pyarrow"):
        raise ValueError(f"unknown batch_format {batch_format!r}")
    arrow = batch_format == "pyarrow"
    block_refs = ds.to_arrow_refs()
    if not block_refs:
        # empty upstream: no typed frame exists to seed fn with, and
        # pd.concat(()) would raise — return an empty dataset
        return rd.from_pandas(pd.DataFrame())

    @ray.remote(num_returns=n_shards)
    def split(tbl) -> tuple:
        # with num_returns=1 ray treats the whole return value as THE
        # single return, so a 1-tuple must be unwrapped
        def rets(parts: tuple):
            return parts if n_shards > 1 else parts[0]

        if shard_col not in tbl.column_names:
            # a schema-less EMPTY block (e.g. an empty shard of an
            # upstream exchange round-tripped through Arrow)
            empty = tbl if arrow else tbl.to_pandas()
            return rets(tuple(empty for _ in range(n_shards)))
        s = np.asarray(tbl.column(shard_col).to_numpy(zero_copy_only=False))
        if len(s) and (s.min() < 0 or s.max() >= n_shards):
            raise ValueError(
                f"hash_exchange: {shard_col} values outside "
                f"[0, {n_shards}) — got [{s.min()}, {s.max()}]; rows "
                f"would be silently dropped"
            )
        if arrow:
            return rets(tuple(
                tbl.filter(pa.array(s == i)) for i in range(n_shards)
            ))
        df = tbl.to_pandas()
        return rets(tuple(df[s == i] for i in range(n_shards)))

    per_block = [split.remote(r) for r in block_refs]
    if n_shards == 1:
        # ray returns a bare ObjectRef (not a 1-tuple) for
        # num_returns=1 — normalize so pb[s] indexing below works
        per_block = [[ref] for ref in per_block]

    @ray.remote
    def merge_apply(*parts):
        # empty shards reach fn as an empty frame/table WITH columns
        # (concat of typed empties) — the same contract map_groups gives
        if arrow:
            # permissive promotion: a schema-less EMPTY block (0 rows, 0
            # cols) must not fail the concat of the typed parts
            return fn(pa.concat_tables(parts, promote_options="permissive"))
        return fn(pd.concat(parts, ignore_index=True))

    shard_refs = [
        merge_apply.remote(*[pb[s] for pb in per_block])
        for s in range(n_shards)
    ]
    if arrow:
        return rd.from_arrow_refs(shard_refs)
    return rd.from_pandas_refs(shard_refs)
