"""Relational query pipelines over the driver testdata tables.

Demonstrates the engine's general query capabilities Ray-Data-first:
- column-pruned parquet reads (never load columns a query doesn't touch)
- map-side partial aggregation before the (one) groupby shuffle
- broadcast hash joins for small dimension tables (ray.put once, lookup
  per batch) instead of shuffle joins
- two-stage distinct-count
- top-k via sort+limit on a pre-reduced projection

Each ``q*`` function takes ``sf_dir`` and returns a Dataset / DataFrame
whose column NAMES match the DuckDB oracle in ``__ray_entry__.oracle_sql``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd
from ray.data.aggregate import Count, Max, Mean, Min, Sum

from tensorflow_ocr_ray import cache
from tensorflow_ocr_ray.stages.exchange import (
    adaptive_shards,
    hash_exchange,
    meta_rows,
)


def _pq(sf_dir: str, table: str, columns: list[str] | None = None) -> "rd.Dataset":
    return rd.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


def q01_pricing_summary(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q1 shape: wide aggregate with map-side pre-aggregation.

    The per-batch combiner collapses ~64k rows to ≤|groups| rows before the
    shuffle, so the groupby moves kilobytes regardless of input size.

    Every measure is an EXACT integer (qty; cents; 1e-4-dollar
    disc-price; half-up e4 averages): the q07 incident proved this
    corpus lands means on true decimal half-points where numpy
    (half-even) and SQL (half-away) round() disagree, and float sums
    re-associate — integers close both hazards."""
    ds = _pq(
        sf_dir, "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
         "l_discount"],
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(
            df["l_extendedprice"].to_numpy() * 100.0).astype(np.int64)
        disc = np.round(
            df["l_discount"].to_numpy() * 100.0).astype(np.int64)
        d = pd.DataFrame(
            {
                "l_returnflag": df["l_returnflag"],
                "l_linestatus": df["l_linestatus"],
                "qty": df["l_quantity"].astype("int64"),
                "base_c": cents,
                "disc_e4": cents * (100 - disc),
            }
        )
        g = d.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            p_qty=("qty", "sum"),
            p_base=("base_c", "sum"),
            p_disc=("disc_e4", "sum"),
            p_cnt=("qty", "size"),
        )
        return g

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(
            ["l_returnflag", "l_linestatus"], as_index=False
        ).agg(p_qty=("p_qty", "sum"), p_base=("p_base", "sum"),
              p_disc=("p_disc", "sum"), p_cnt=("p_cnt", "sum"))

    # bounded-key finish: repartition tree-combine (the q08 pattern),
    # not Ray's sort-based aggregate over the partial stream
    df = (
        ds.map_batches(partial, batch_format="pandas", batch_size=65536)
        .repartition(16)
        .map_batches(merge, batch_format="pandas")
        .to_pandas()
        .groupby(["l_returnflag", "l_linestatus"], as_index=False)
        .agg(s_qty=("p_qty", "sum"), s_base=("p_base", "sum"),
             s_disc=("p_disc", "sum"), s_cnt=("p_cnt", "sum"))
    )
    qty = df["s_qty"].to_numpy().astype("int64")
    base = df["s_base"].to_numpy().astype("int64")
    cnt = df["s_cnt"].to_numpy().astype("int64")
    out = pd.DataFrame(
        {
            "l_returnflag": df["l_returnflag"],
            "l_linestatus": df["l_linestatus"],
            "sum_qty": qty,
            "sum_base_cents": base,
            "sum_disc_e4": df["s_disc"].to_numpy().astype("int64"),
            "avg_qty_e4": (20000 * qty + cnt) // (2 * cnt),
            "avg_price_e4": (200 * base + cnt) // (2 * cnt),
            "count_order": cnt,
        }
    )
    return out


def q02_filtered_revenue(sf_dir: str) -> "rd.Dataset":
    """Filter + project with the predicate applied vectorized per batch."""
    ds = _pq(
        sf_dir, "lineitem",
        ["l_orderkey", "l_linenumber", "l_extendedprice", "l_discount",
         "l_shipdate"],
    )
    cutoff = pa.scalar(pd.Timestamp("1996-01-01"), type=pa.timestamp("us"))

    def fil(t: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.less(t["l_shipdate"], cutoff), pc.greater(t["l_discount"], 0.05)
        )
        t = t.filter(mask)
        # raw double product — bit-identical to the oracle's
        # l_extendedprice * (1 - l_discount) (rounding modes differ
        # between Arrow round and DuckDB round at the last ulp)
        revenue = pc.multiply(
            t["l_extendedprice"], pc.subtract(1.0, t["l_discount"])
        )
        return pa.table(
            {
                "l_orderkey": t["l_orderkey"],
                "l_linenumber": t["l_linenumber"],
                "revenue": revenue,
            }
        )

    return ds.map_batches(fil, batch_format="pyarrow", batch_size=65536)


def q03_segment_orders(sf_dir: str) -> pd.DataFrame:
    """Broadcast hash join: customer segment dim shipped once via
    ray.put, looked up per batch in a TASK pool (the pre-r4 two-actor
    pool paid actor startup for a sub-second stage; ray.get of the
    broadcast dict is a local object-store hit after the first batch on
    each worker).  Bounded-key finish: per-batch segment partials
    tree-combine via repartition — no sort shuffle, no Ray aggregate
    over the partial stream.  Cents-exact like q06/q15."""
    import pyarrow.parquet as pq

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    seg_map_ref = ray.put(
        dict(
            zip(
                cust.column("c_custkey").to_pylist(),
                cust.column("c_mktsegment").to_pylist(),
            )
        )
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        seg = ray.get(seg_map_ref)
        d = pd.DataFrame(
            {
                "c_mktsegment": df["o_custkey"].map(seg),
                "cents": np.round(
                    df["o_totalprice"].to_numpy() * 100.0
                ).astype("int64"),
            }
        )
        g = d.groupby("c_mktsegment", as_index=False).agg(
            p_cnt=("cents", "size"), p_c=("cents", "sum")
        )
        return g.astype({"p_cnt": "int64", "p_c": "int64"})

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby("c_mktsegment", as_index=False)
            .agg(p_cnt=("p_cnt", "sum"), p_c=("p_c", "sum"))
            .astype({"p_cnt": "int64", "p_c": "int64"})
        )

    orders = _pq(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    parts = (
        orders.map_batches(partial, batch_format="pandas",
                           batch_size=65536)
        .repartition(16)
        .map_batches(merge, batch_format="pandas")
        .to_pandas()
    )
    tot = parts.groupby("c_mktsegment", as_index=False).agg(
        order_count=("p_cnt", "sum"), total_price_cents=("p_c", "sum")
    )
    return tot.astype(
        {"order_count": "int64", "total_price_cents": "int64"}
    )


def q04_top_orders(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Global top-k orders by price WITHOUT a global sort: each block
    emits its own top-k partial (≤k rows), the driver merges the bounded
    |blocks|×k frame — the q19/source_topk_docs pattern.  The pre-r4
    version ran ``ds.sort(...).limit(10)``: a full all-to-all sort of
    the orders table for 10 rows, a scale-killer at 10^9 orders.

    Tiebreak matches the oracle: price DESC, then o_orderkey ASC."""
    ds = _pq(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def block_topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["o_totalprice", "o_orderkey"], ascending=[False, True]
        ).head(k)

    parts = ds.map_batches(
        block_topk, batch_format="pandas", batch_size=65536
    ).to_pandas()
    return (
        parts.sort_values(["o_totalprice", "o_orderkey"],
                          ascending=[False, True])
        .head(k)
        .reset_index(drop=True)
    )


def q05_region_customers(sf_dir: str) -> pd.DataFrame:
    """Two chained broadcast joins (nation, region are tiny dims)."""
    import pyarrow.parquet as pq

    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    region = pq.read_table(f"{sf_dir}/region.parquet")
    r_name = dict(
        zip(region.column("r_regionkey").to_pylist(),
            region.column("r_name").to_pylist())
    )
    nat_to_region = {
        nk: r_name[rk]
        for nk, rk in zip(
            nation.column("n_nationkey").to_pylist(),
            nation.column("n_regionkey").to_pylist(),
        )
    }
    lookup_ref = ray.put(nat_to_region)

    class Attach:
        def __init__(self, ref):
            self.m = ray.get(ref)

        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            df["r_name"] = df["c_nationkey"].map(self.m)
            return df.groupby("r_name", as_index=False).agg(
                p=("c_custkey", "size")
            )

    cust = _pq(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    df = (
        cust.map_batches(Attach, fn_constructor_kwargs={"ref": lookup_ref},
                         batch_format="pandas", concurrency=2)
        .groupby("r_name")
        .aggregate(Sum("p", alias_name="customers"))
        .to_pandas()
    )
    df["customers"] = df["customers"].astype("int64")
    return df


def q06_event_type_stats(
    sf_dir: str, n_shards: int | None = None
) -> pd.DataFrame:
    """Exact per-type distinct-user count + exact-cent value sum.

    The pre-r4 version ran TWO Ray sort-groupbys over the full event
    stream; this plan shuffles only map-side (user, type) partials: a
    per-batch groupby collapses each batch to its distinct (user, type)
    rows, ONE user-hash exchange co-locates each user's partials (a
    user lands in exactly one shard, so per-shard distinct counts are
    exact and simply ADD across shards), and the driver sums the
    |shards|×|types| partial table.  Cents-exact like q07/q15."""
    if n_shards is None:
        # the exchange carries (user, type) int partials, not raw events
        n_shards = adaptive_shards(meta_rows(sf_dir, "events") // 4)
    ds = _pq(sf_dir, "events", ["event_type", "user_id", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df.assign(
            cents=np.round(df["value"].to_numpy() * 100.0).astype("int64")
        )
        g = d.groupby(["user_id", "event_type"], as_index=False).agg(
            p_n=("cents", "size"), p_c=("cents", "sum")
        )
        g["shard"] = g["user_id"].astype("int64") % n_shards
        return g

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["user_id", "event_type"], as_index=False).agg(
            n=("p_n", "sum"), c=("p_c", "sum")
        )
        t = g.groupby("event_type", as_index=False).agg(
            events=("n", "sum"), users=("user_id", "size"), c=("c", "sum")
        )
        return t.astype({"events": "int64", "users": "int64", "c": "int64"})

    parts = hash_exchange(
        ds.map_batches(partial, batch_format="pandas", batch_size=65536),
        "shard", n_shards, combine,
    ).to_pandas()
    out = parts.groupby("event_type", as_index=False).agg(
        events=("events", "sum"), users=("users", "sum"),
        total_value_cents=("c", "sum"),
    )
    return out.astype(
        {"events": "int64", "users": "int64", "total_value_cents": "int64"}
    )


def q07_user_activity(sf_dir: str) -> pd.DataFrame:
    """Per-user count + mean value in exact 1e-4 units.  Two float
    hazards surfaced at sf0.1 and are both closed by integer math:
    a distributed float Mean drifted a ulp past a round(,4) boundary
    vs the oracle's sequential avg, and user 822's TRUE mean is exactly
    40.73125 — a 4-decimal half-point where numpy rounds half-even and
    DuckDB half-away.  avg_e4 = floor((2*100*sum_cents + n) / (2n)) is
    the half-up rounding BOTH engines compute on exact ints (values are
    non-negative 2-decimal by schema)."""
    ds = _pq(sf_dir, "events", ["user_id", "value"])
    n_shards = adaptive_shards(meta_rows(sf_dir, "events") // 4)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame(
            {
                "user_id": df["user_id"].astype("int64"),
                "c": np.round(df["value"].to_numpy() * 100.0).astype(
                    "int64"),
            }
        )
        g = d.groupby("user_id", as_index=False).agg(
            p_n=("c", "size"), p_c=("c", "sum")
        )
        g["shard"] = g["user_id"] % n_shards
        return g

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("user_id", as_index=False).agg(
            events=("p_n", "sum"), sc=("p_c", "sum")
        )
        n = g["events"].to_numpy().astype("int64")
        sc = g["sc"].to_numpy().astype("int64")
        return pd.DataFrame(
            {
                "user_id": g["user_id"].astype("int64"),
                "events": n,
                # empty shards: int ops on 0-length arrays are no-ops
                "avg_e4": (200 * sc + n) // np.maximum(2 * n, 1),
            }
        )

    # lazy out: one row per user is corpus-class cardinality at 10^8
    # users — partials pre-reduce per batch, ONE user-hash exchange,
    # nothing user-sized on the driver (pre-r4: sort-groupby + collect)
    return hash_exchange(
        ds.map_batches(partial, batch_format="pandas", batch_size=65536),
        "shard", n_shards, combine,
    )


def q08_events_hourly(sf_dir: str) -> pd.DataFrame:
    """Events per hour, shuffle-free: per-batch counts keyed by the
    INTEGER hour (us // 3.6e9 — no string formatting on the hot path),
    tree-combined via repartition (the running_total pattern); the
    driver finishes over O(16 × |hours|) skinny int rows and formats
    the hour string once per OUTPUT row.  The pre-r4 version pushed a
    per-event string column through Ray's sort-groupby."""
    ds = _pq(sf_dir, "events", ["ts"])
    _US_PER_HOUR = 3_600_000_000

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        g = (
            pd.DataFrame({"h": us // _US_PER_HOUR})
            .groupby("h", as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )
        return g.astype("int64")

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("h", as_index=False).agg(n=("n", "sum")).astype(
            "int64"
        )

    parts = (
        ds.map_batches(partial, batch_format="pandas", batch_size=65536)
        .repartition(16)
        .map_batches(merge, batch_format="pandas")
        .to_pandas()
    )
    tot = parts.groupby("h", as_index=False).agg(events=("n", "sum"))
    hour = pd.to_datetime(tot["h"] * _US_PER_HOUR, unit="us")
    return pd.DataFrame(
        {
            "hour": hour.dt.strftime("%Y-%m-%d %H:00:00"),
            "events": tot["events"].astype("int64"),
        }
    )


def q09_priority_month(sf_dir: str) -> pd.DataFrame:
    """Orders per (priority, month): per-batch counts on an INTEGER
    year*12+month key (no per-row strftime, no full-stream sort), tree-
    combined via repartition; the driver finishes over O(16 × |keys|)
    skinny rows and formats month strings once per output row (the q08
    pattern)."""
    ds = _pq(sf_dir, "orders", ["o_orderpriority", "o_orderdate"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df["o_orderdate"]
        mkey = (d.dt.year * 12 + (d.dt.month - 1)).astype("int64")
        g = (
            pd.DataFrame({"o_orderpriority": df["o_orderpriority"],
                          "mkey": mkey})
            .groupby(["o_orderpriority", "mkey"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )
        return g.astype({"mkey": "int64", "n": "int64"})

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby(["o_orderpriority", "mkey"], as_index=False)
            .agg(n=("n", "sum"))
            .astype({"mkey": "int64", "n": "int64"})
        )

    parts = (
        ds.map_batches(partial, batch_format="pandas", batch_size=65536)
        .repartition(16)
        .map_batches(merge, batch_format="pandas")
        .to_pandas()
    )
    tot = parts.groupby(["o_orderpriority", "mkey"], as_index=False).agg(
        n_orders=("n", "sum")
    )
    month = (
        tot["mkey"] // 12
    ).astype(str) + "-" + (tot["mkey"] % 12 + 1).astype(str).str.zfill(2)
    return pd.DataFrame(
        {
            "o_orderpriority": tot["o_orderpriority"],
            "month": month,
            "n_orders": tot["n_orders"].astype("int64"),
        }
    )


def q10_supplier_balance(sf_dir: str) -> pd.DataFrame:
    import pyarrow.parquet as pq

    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    name_ref = ray.put(
        dict(
            zip(
                nation.column("n_nationkey").to_pylist(),
                nation.column("n_name").to_pylist(),
            )
        )
    )

    class Attach:
        def __init__(self, ref):
            self.m = ray.get(ref)

        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            df["n_name"] = df["s_nationkey"].map(self.m)
            return df[["n_name", "bal_c"]]

    ds = _pq(sf_dir, "supplier", ["s_nationkey", "s_acctbal"])

    def to_cents(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["bal_c"] = np.round(
            df["s_acctbal"].to_numpy() * 100.0).astype(np.int64)
        return df.drop(columns=["s_acctbal"])

    df = (
        ds.map_batches(to_cents, batch_format="pandas",
                       batch_size=65536)
        .map_batches(Attach, fn_constructor_kwargs={"ref": name_ref},
                     batch_format="pandas", concurrency=(1, 8))
        .groupby("n_name")
        .aggregate(Sum("bal_c", alias_name="t"),
                   Count(alias_name="suppliers"))
        .to_pandas()
    )
    # exact integer cents: a float sum re-associates and can drift
    # across a cent boundary (the q07 class of bug)
    return pd.DataFrame(
        {
            "n_name": df["n_name"],
            "total_bal_cents": df["t"].astype("int64"),
            "suppliers": df["suppliers"].astype("int64"),
        }
    )


def q11_minmax_part(sf_dir: str) -> pd.DataFrame:
    ds = _pq(sf_dir, "part", ["p_brand", "p_retailprice", "p_size"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "p_brand": df["p_brand"],
                "price_c": np.round(
                    df["p_retailprice"].to_numpy() * 100.0).astype(
                    np.int64),
                "p_size": df["p_size"].astype("int64"),
            }
        )

    df = (
        ds.map_batches(prep, batch_format="pandas", batch_size=65536)
        .groupby("p_brand")
        .aggregate(
            Min("price_c", alias_name="min_c"),
            Max("price_c", alias_name="max_c"),
            Sum("p_size", alias_name="s_size"),
            Count(alias_name="parts"),
        )
        .to_pandas()
    )
    # min/max as exact cents; the size mean as half-up e4 ints (the
    # q07 class of decimal-half-point rounding split)
    ssize = df["s_size"].to_numpy().astype("int64")
    cnt = df["parts"].to_numpy().astype("int64")
    out = pd.DataFrame(
        {
            "p_brand": df["p_brand"],
            "min_price_cents": df["min_c"].astype("int64"),
            "max_price_cents": df["max_c"].astype("int64"),
            "avg_size_e4": (20000 * ssize + cnt) // (2 * cnt),
            "parts": cnt,
        }
    )
    return out


def q12_distinct_types(sf_dir: str) -> pd.DataFrame:
    """Two-stage distinct: per-batch dedup collapses duplicates map-side,
    then a distributed groupby finishes — the driver receives exactly
    |distinct| rows, never the per-batch partials (which grow with batch
    count at scale)."""
    ds = _pq(sf_dir, "part", ["p_type"])
    df = (
        ds.map_batches(
            lambda df: df.drop_duplicates(), batch_format="pandas",
            batch_size=65536,
        )
        .groupby("p_type")
        .aggregate(Count(alias_name="_n"))
        .to_pandas()
    )
    return df[["p_type"]].sort_values("p_type").reset_index(drop=True)


def q13_union_priority(sf_dir: str) -> pd.DataFrame:
    """Dataset.union of two filtered branches (urgent + high priority)
    feeding one pre-aggregated count."""
    def keep(value):
        # vectorized per-batch predicate (row-wise ds.filter(fn) calls
        # Python once per row — a hot-stage antipattern)
        def f(t: pa.Table) -> pa.Table:
            return t.filter(pc.equal(t["o_orderpriority"], value))

        return f

    a = _pq(sf_dir, "orders", ["o_orderpriority"]).map_batches(
        keep("1-URGENT"), batch_format="pyarrow", batch_size=65536
    )
    b = _pq(sf_dir, "orders", ["o_orderpriority"]).map_batches(
        keep("2-HIGH"), batch_format="pyarrow", batch_size=65536
    )
    u = a.union(b)
    df = (
        u.map_batches(
            lambda df: df.groupby("o_orderpriority", as_index=False).agg(
                p=("o_orderpriority", "size")
            ),
            batch_format="pandas",
            batch_size=65536,
        )
        .groupby("o_orderpriority")
        .aggregate(Sum("p", alias_name="n_orders"))
        .to_pandas()
    )
    df["n_orders"] = df["n_orders"].astype("int64")
    return df.sort_values("o_orderpriority").reset_index(drop=True)


def q14_top_customer_per_nation(
    sf_dir: str, k: int = 1, combine_blocks: int = 32
) -> pd.DataFrame:
    """Grouped top-k (argmax per group): highest-balance customer per
    nation.  THREE-level combine: per-batch top-k map-side, a
    repartitioned second-level top-k (bounds the driver's input to
    combine_blocks x nations x k rows regardless of batch count), then
    the trivial driver finish."""
    ds = _pq(sf_dir, "customer", ["c_custkey", "c_nationkey", "c_acctbal"])

    def local_top(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.sort_values(["c_acctbal", "c_custkey"],
                           ascending=[False, True])
            .groupby("c_nationkey", as_index=False)
            .head(k)
        )

    parts = (
        ds.map_batches(local_top, batch_format="pandas", batch_size=65536)
        .repartition(combine_blocks)
        .map_batches(local_top, batch_format="pandas", batch_size=None)
        .to_pandas()
    )
    out = (
        parts.sort_values(["c_acctbal", "c_custkey"], ascending=[False, True])
        .groupby("c_nationkey", as_index=False)
        .head(k)
    )
    return (
        out[["c_nationkey", "c_custkey", "c_acctbal"]]
        .sort_values("c_nationkey")
        .reset_index(drop=True)
    )


def q15_active_users(
    sf_dir: str, min_events: int = 60, n_shards: int = 64
) -> pd.DataFrame:
    """Aggregate + HAVING: users with at least ``min_events`` events.

    Map-side partials per user, then a sharded distributed combine (the
    ``_combine_window_partials`` pattern) — the driver never sees the
    users×batches partial table, only the final HAVING-filtered result.
    Values travel as exact integer cents (the column is 2-decimal by
    construction) so the distributed partial re-association cannot drift
    vs the oracle's sequential float sum at any scale."""
    ds = _pq(sf_dir, "events", ["user_id", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df.assign(
            cents=np.round(df["value"].to_numpy() * 100.0).astype("int64")
        )
        g = d.groupby("user_id", as_index=False).agg(
            p_n=("cents", "size"), p_c=("cents", "sum")
        )
        g["shard"] = g["user_id"] % n_shards
        return g

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("user_id", as_index=False).agg(
            events=("p_n", "sum"), c=("p_c", "sum")
        )
        g = g[g["events"] >= min_events]
        return pd.DataFrame(
            {
                "user_id": g["user_id"],
                "events": g["events"].astype("int64"),
                "total_value_cents": g["c"].astype("int64"),
            }
        )

    df = (
        hash_exchange(
            ds.map_batches(partial, batch_format="pandas",
                           batch_size=65536),
            "shard", n_shards, combine)
        .to_pandas()
    )
    return df.sort_values("user_id").reset_index(drop=True)


def q16_event_quantiles(
    sf_dir: str,
    n_bins: int = 1024,
    collect_limit: int = 65536,
    max_rounds: int = 6,
    qs: tuple = ((0.5, "p50"), (0.9, "p90")),
) -> pd.DataFrame:
    """Exact per-group discrete quantiles (p50/p90 by default) —
    DuckDB's quantile_disc picks the sorted value at index ceil(q*n)-1
    — computed by distributed histogram refinement, NOT whole-group
    materialization.  The machinery lives in
    ``stages/selection.exact_group_quantiles`` (see its docstring for
    the three-pass refinement contract); this query binds it to the
    events table per event_type."""
    from tensorflow_ocr_ray.stages.selection import exact_group_quantiles

    ds = _pq(sf_dir, "events", ["event_type", "value"])
    return exact_group_quantiles(
        ds, "event_type", "value", qs,
        n_bins=n_bins, collect_limit=collect_limit, max_rounds=max_rounds,
    )


def q17_order_lineitem_join(sf_dir: str, n_shards: int = 64) -> "rd.Dataset":
    """Fact-to-fact join, sharded merge plan: both sides carry a
    ``key % n_shards`` shuffle key, union, one ``groupby(shard)`` moves
    co-keyed rows together, and each shard does a vectorized pandas
    combine+merge.  Neither side is broadcast and nothing big lands on
    the driver.

    (Ray 2.49's NATIVE hash-join operator computes the same result but
    its aggregator actors carry a ~30s fixed startup cost at any scale —
    measured r1; the sharded union-merge is the same physical plan minus
    that tax.)"""
    line = _pq(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])

    def l_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("l_orderkey", as_index=False).agg(
            p_items=("l_quantity", "size"), p_qty=("l_quantity", "sum")
        )
        return pd.DataFrame(
            {
                "join_key": g["l_orderkey"].astype("int64"),
                "o_orderpriority": "",
                "p_items": g["p_items"].astype("int64"),
                "p_qty": g["p_qty"].astype("float64"),
                "side": np.int64(0),
                "shard": g["l_orderkey"].astype("int64") % n_shards,
            }
        )

    def o_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "join_key": df["o_orderkey"].astype("int64"),
                "o_orderpriority": df["o_orderpriority"],
                "p_items": np.int64(0),
                "p_qty": np.float64(0.0),
                "side": np.int64(1),
                "shard": df["o_orderkey"].astype("int64") % n_shards,
            }
        )

    lines = line.map_batches(l_partial, batch_format="pandas",
                             batch_size=65536)
    orders = _pq(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    ords = orders.map_batches(o_rows, batch_format="pandas",
                              batch_size=65536)

    def merge_shard(df: pd.DataFrame) -> pd.DataFrame:
        l = (
            df[df["side"] == 0]
            .groupby("join_key", as_index=False)
            .agg(items=("p_items", "sum"), qty=("p_qty", "sum"))
        )
        o = df[df["side"] == 1][["join_key", "o_orderpriority"]]
        m = o.merge(l, on="join_key", how="inner")
        return pd.DataFrame(
            {
                "o_orderkey": m["join_key"].astype("int64"),
                "o_orderpriority": m["o_orderpriority"],
                "items": m["items"].astype("int64"),
                "sum_qty": m["qty"].round(2),
            }
        )

    # lazy out: the joined result is order-cardinality — it streams
    # to the consumer; the driver compare sorts rows itself
    return hash_exchange(lines.union(ords), "shard", n_shards,
                         merge_shard)


def q18_customers_without_orders(
    sf_dir: str, min_total: float = 400_000.0, n_shards: int = 64
) -> "rd.Dataset":
    """Anti-join (customers with no order above ``min_total``), sharded:
    both sides carry ``custkey % n_shards``; each shard drops customers
    present in its (filtered, deduped) order-key set.  No broadcast of
    either side."""
    cust = _pq(sf_dir, "customer", ["c_custkey", "c_name", "c_acctbal"])
    orders = _pq(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def c_rows(df: pd.DataFrame) -> pd.DataFrame:
        key = df["c_custkey"].astype("int64")
        return pd.DataFrame(
            {"key": key, "c_name": df["c_name"],
             "c_acctbal": df["c_acctbal"].astype("float64"),
             "side": np.int64(0), "shard": key % n_shards}
        )

    def o_rows(df: pd.DataFrame) -> pd.DataFrame:
        key = (
            df.loc[df["o_totalprice"] > min_total, "o_custkey"]
            .drop_duplicates()
            .astype("int64")
        )
        return pd.DataFrame(
            {"key": key, "c_name": "", "c_acctbal": np.float64(0.0),
             "side": np.int64(1), "shard": key % n_shards}
        )

    def anti(df: pd.DataFrame) -> pd.DataFrame:
        have = set(df.loc[df["side"] == 1, "key"])
        c = df[df["side"] == 0]
        c = c[~c["key"].isin(have)]
        return pd.DataFrame(
            {"c_custkey": c["key"].to_numpy(dtype="int64"),
             "c_name": c["c_name"].astype(str),
             "c_acctbal": c["c_acctbal"].astype("float64")}
        )

    # lazy out: customer-cardinality result streams to the consumer
    return hash_exchange(
        cust.map_batches(c_rows, batch_format="pandas",
                         batch_size=65536)
        .union(orders.map_batches(o_rows, batch_format="pandas",
                                  batch_size=65536)),
        "shard", n_shards, anti)


def q19_top2_orders_per_customer(sf_dir: str, n_shards: int = 64) -> "rd.Dataset":
    """Window rank: each customer's top-2 orders by totalprice.  One
    shuffle keyed by a customer-hash shard; the rank is computed
    vectorized inside each shard (per-customer sort + cumcount)."""
    orders = _pq(sf_dir, "orders",
                 ["o_custkey", "o_orderkey", "o_totalprice"])

    def add_shard(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["shard"] = df["o_custkey"].astype("int64") % n_shards
        return df

    def rank_shard(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["o_custkey", "o_totalprice", "o_orderkey"],
            ascending=[True, False, True],
        )
        rn = df.groupby("o_custkey").cumcount() + 1
        out = df[rn <= 2].copy()
        out["rn"] = rn[rn <= 2].astype("int64")
        return pd.DataFrame(
            {"o_custkey": out["o_custkey"].astype("int64"),
             "o_orderkey": out["o_orderkey"].astype("int64"),
             "o_totalprice": out["o_totalprice"].astype("float64"),
             "rn": out["rn"]}
        )

    # lazy out: 2x-customer-cardinality result streams to the consumer
    return hash_exchange(
        orders.map_batches(add_shard, batch_format="pandas",
                           batch_size=65536),
        "shard", n_shards, rank_shard)


def q20_user_event_window(sf_dir: str, n_shards: int = 64) -> "rd.Dataset":
    """Row-window functions per user (ordered by ts, event_id): 3-row
    rolling max of value (max is order-independent → bit-exact vs the
    SQL window) and the gap to the previous event in exact microseconds
    (lag; first event → -1).  Sharded by user hash, vectorized inside."""
    ev = _pq(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def add_shard(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["shard"] = df["user_id"].astype("int64") % n_shards
        return df

    def window_shard(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"])
        g = df.groupby("user_id")
        roll = g["value"].rolling(3, min_periods=1).max().reset_index(
            level=0, drop=True
        )
        us = df["ts"].astype("datetime64[us]").astype("int64")
        prev_us = us.groupby(df["user_id"]).shift(1)
        # epoch-us values (~1.7e15) are < 2^53, so the float64 round-trip
        # of the shifted series keeps the difference integer-exact
        gap = (us - prev_us).fillna(-1)
        return pd.DataFrame(
            {"event_id": df["event_id"].astype("int64"),
             "user_id": df["user_id"].astype("int64"),
             "rolling3_max": roll.astype("float64"),
             "gap_us": gap.astype("int64")}
        )

    # lazy out: event-cardinality result streams to the consumer
    return hash_exchange(
        ev.map_batches(add_shard, batch_format="pandas",
                       batch_size=65536),
        "shard", n_shards, window_shard)


def q21_event_props_stats(sf_dir: str) -> pd.DataFrame:
    """Semi-structured extraction: the ``props`` JSON string column's
    ``k`` field, parsed VECTORIZED (one regex pass per batch, no per-row
    json.loads), then map-side partials + one small groupby.  Integer
    sums/maxes → exact oracle hash."""
    ds = _pq(sf_dir, "events", ["event_type", "props"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        k = (
            df["props"].str.extract(r'"k":\s*(-?\d+)', expand=False)
            .astype("float64")  # NaN-able for malformed rows
        )
        d = pd.DataFrame({"event_type": df["event_type"], "k": k}).dropna()
        g = d.groupby("event_type", as_index=False).agg(
            p_n=("k", "size"), p_sum=("k", "sum"), p_max=("k", "max")
        )
        return g

    df = (
        ds.map_batches(partial, batch_format="pandas", batch_size=65536)
        .groupby("event_type")
        .aggregate(Sum("p_n", alias_name="events"),
                   Sum("p_sum", alias_name="sum_k"),
                   Max("p_max", alias_name="max_k"))
        .to_pandas()
    )
    out = pd.DataFrame(
        {"event_type": df["event_type"],
         "events": df["events"].astype("int64"),
         "sum_k": df["sum_k"].astype("int64"),
         "max_k": df["max_k"].astype("int64")}
    )
    return out.sort_values("event_type").reset_index(drop=True)


def rollup_lineitem(sf_dir: str) -> pd.DataFrame:
    """Multi-level ROLLUP aggregate: (returnflag, linestatus) totals at
    all three grouping levels, 'ALL' sentinels instead of NULLs so the
    oracle hash never compares NULL semantics.

    Physical plan: ONE distributed aggregate at the finest level (map-side
    partials collapse each batch to ≤|flag×status| rows before the
    shuffle); the coarser rollup levels are derived from that BOUNDED
    table (≤ a few dozen rows regardless of input size) — quantities
    travel as exact BIGINTs (l_quantity is integral by schema) so the
    re-summation is associative and bit-exact vs the oracle."""
    ds = _pq(sf_dir, "lineitem", ["l_returnflag", "l_linestatus",
                                  "l_quantity"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame(
            {
                "l_returnflag": df["l_returnflag"],
                "l_linestatus": df["l_linestatus"],
                "q": df["l_quantity"].astype("int64"),
            }
        )
        return d.groupby(
            ["l_returnflag", "l_linestatus"], as_index=False
        ).agg(p_qty=("q", "sum"), p_n=("q", "size"))

    fine = (
        ds.map_batches(partial, batch_format="pandas", batch_size=65536)
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(Sum("p_qty", alias_name="sum_qty"),
                   Sum("p_n", alias_name="count_order"))
        .to_pandas()
    )
    fine = fine.astype({"sum_qty": "int64", "count_order": "int64"})
    mid = fine.groupby("l_returnflag", as_index=False).agg(
        sum_qty=("sum_qty", "sum"), count_order=("count_order", "sum")
    )
    mid["l_linestatus"] = "ALL"
    top = pd.DataFrame(
        {
            "l_returnflag": ["ALL"],
            "l_linestatus": ["ALL"],
            "sum_qty": [fine["sum_qty"].sum()],
            "count_order": [fine["count_order"].sum()],
        }
    )
    cols = ["l_returnflag", "l_linestatus", "sum_qty", "count_order"]
    out = pd.concat([fine[cols], mid[cols], top[cols]], ignore_index=True)
    out = out.astype({"sum_qty": "int64", "count_order": "int64"})
    return out.sort_values(cols[:2]).reset_index(drop=True)


def price_histogram(sf_dir: str, n_bins: int = 20) -> pd.DataFrame:
    """Fixed-width global histogram over l_extendedprice: two streaming
    passes — (1) distributed min/max aggregate (two scalars to the
    driver), (2) map-side per-batch bin counts (vectorized floor
    division, clipped to the last bin) combined by one bounded
    groupby-sum.  Bin edges are derived from (mn, mx) with the SAME IEEE
    double expression the oracle uses, so lo/hi hash bit-identically."""
    ds = _pq(sf_dir, "lineitem", ["l_extendedprice"])
    mm = ds.aggregate(Min("l_extendedprice"), Max("l_extendedprice"))
    mn = float(mm["min(l_extendedprice)"])
    mx = float(mm["max(l_extendedprice)"])
    w = (mx - mn) / float(n_bins)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        x = df["l_extendedprice"].to_numpy()
        if w > 0:
            b = np.minimum(
                np.floor((x - mn) / w).astype(np.int64), n_bins - 1
            )
        else:
            b = np.zeros(len(x), dtype=np.int64)
        u, c = np.unique(b, return_counts=True)
        return pd.DataFrame({"bin": u, "p_n": c.astype(np.int64)})

    agg = (
        ds.map_batches(partial, batch_format="pandas", batch_size=65536)
        .groupby("bin")
        .aggregate(Sum("p_n", alias_name="n"))
        .to_pandas()
    )
    b = agg["bin"].to_numpy().astype(np.float64)
    out = pd.DataFrame(
        {
            "bin": agg["bin"].astype("int64"),
            "lo": mn + b * w,
            "hi": mn + (b + 1.0) * w,
            "n": agg["n"].astype("int64"),
        }
    )
    return out.sort_values("bin").reset_index(drop=True)


_EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def event_pivot(sf_dir: str, n_shards: int = 64) -> pd.DataFrame:
    """Pivot-wide per-user event-type counts (one column per type).

    Physical plan: map-side crosstab partials (each batch collapses to
    ≤|users-in-batch| rows with |types| int columns), then the sharded
    user-hash combine — the driver only receives the final |users|-row
    pivot, never per-batch partials."""
    ds = _pq(sf_dir, "events", ["user_id", "event_type"])
    cols = [f"n_{t}" for t in _EVENT_TYPES]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ct = pd.crosstab(df["user_id"], df["event_type"])
        for t in _EVENT_TYPES:
            if t not in ct.columns:
                ct[t] = 0
        ct = ct[list(_EVENT_TYPES)].astype("int64")
        ct.columns = cols
        ct = ct.reset_index()
        ct["user_id"] = ct["user_id"].astype("int64")
        ct["shard"] = ct["user_id"] % n_shards
        return ct

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("user_id", as_index=False)[cols].sum()
        return g.astype("int64")

    out = (
        hash_exchange(
            ds.map_batches(partial, batch_format="pandas",
                           batch_size=65536),
            "shard", n_shards, combine)
        .to_pandas()
    )
    return out.sort_values("user_id").reset_index(drop=True)


def top_order_lineitems(sf_dir: str, k: int = 100) -> pd.DataFrame:
    """Broadcast SEMI-join with a COMPUTED build side: lineitems of the
    global top-``k`` orders by total price (ties broken by orderkey).

    Build side: per-batch local heads (each batch's own top-k is a
    provable superset of the global top-k) reduced once more per
    key-hash shard — so the driver merges a BOUNDED n_shards × k frame
    regardless of how many batches the build table splits into — and
    the winning key set is ``ray.put`` once.  Probe side: pure map
    filter + per-key partials, then one bounded groupby (≤ k keys).
    The fact table is never shuffled."""
    n_shards = 64

    def batch_head(df: pd.DataFrame) -> pd.DataFrame:
        h = df.sort_values(
            ["o_totalprice", "o_orderkey"], ascending=[False, True]
        ).head(k)
        h = h.assign(shard=h["o_orderkey"].astype("int64") % n_shards)
        return h

    heads = hash_exchange(
        _pq(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
        .map_batches(batch_head, batch_format="pandas",
                     batch_size=65536),
        "shard", n_shards,
        lambda df: df.sort_values(
            ["o_totalprice", "o_orderkey"], ascending=[False, True]
        ).head(k),
    ).to_pandas()
    top = heads.sort_values(
        ["o_totalprice", "o_orderkey"], ascending=[False, True]
    ).head(k)
    keys_ref = ray.put(frozenset(top["o_orderkey"].astype("int64")))

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        keys = ray.get(keys_ref)
        d = df[df["l_orderkey"].isin(keys)]
        if d.empty:
            return pd.DataFrame(
                {"l_orderkey": pd.Series([], dtype="int64"),
                 "p_n": pd.Series([], dtype="int64"),
                 "p_qty": pd.Series([], dtype="int64")}
            )
        q = d["l_quantity"].astype("int64")
        return (
            pd.DataFrame({"l_orderkey": d["l_orderkey"], "q": q})
            .groupby("l_orderkey", as_index=False)
            .agg(p_n=("q", "size"), p_qty=("q", "sum"))
        )

    df = (
        _pq(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])
        .map_batches(partial, batch_format="pandas", batch_size=65536)
        .groupby("l_orderkey")
        .aggregate(Sum("p_n", alias_name="n_items"),
                   Sum("p_qty", alias_name="sum_qty"))
        .to_pandas()
    )
    df = df.astype({"l_orderkey": "int64", "n_items": "int64",
                    "sum_qty": "int64"})
    return df.sort_values("l_orderkey").reset_index(drop=True)


def region_flag_revenue(sf_dir: str) -> pd.DataFrame:
    """Chained star join: lineitem → supplier → nation → region, revenue
    per (region, returnflag).

    The three dimension tables collapse into ONE suppkey→region_name
    lookup built driver-side (supplier is the largest dim here; when it
    outgrows one broadcast, swap the probe to q17's sharded union-merge
    — the fact-side plan below is unchanged).  The fact table does a
    pure map partial-aggregate per (region, flag) — a bounded key space
    — so the only shuffle moves ≤ |regions×flags| rows per batch."""
    sup = _pq(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).to_pandas()
    nat = _pq(sf_dir, "nation", ["n_nationkey", "n_regionkey"]).to_pandas()
    reg = _pq(sf_dir, "region", ["r_regionkey", "r_name"]).to_pandas()
    n2r = nat.merge(reg, left_on="n_regionkey", right_on="r_regionkey")
    s2r = sup.merge(n2r, left_on="s_nationkey", right_on="n_nationkey")
    lut_ref = ray.put(
        dict(zip(s2r["s_suppkey"].astype("int64"), s2r["r_name"]))
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        lut = ray.get(lut_ref)
        r_name = df["l_suppkey"].astype("int64").map(lut)
        rev = (df["l_extendedprice"] * (1.0 - df["l_discount"])).to_numpy()
        d = pd.DataFrame(
            {"r_name": r_name, "l_returnflag": df["l_returnflag"],
             "rev": rev}
        )
        return d.groupby(["r_name", "l_returnflag"], as_index=False).agg(
            p_rev=("rev", "sum"), p_n=("rev", "size")
        )

    df = (
        _pq(sf_dir, "lineitem",
            ["l_suppkey", "l_returnflag", "l_extendedprice", "l_discount"])
        .map_batches(partial, batch_format="pandas", batch_size=65536)
        .groupby(["r_name", "l_returnflag"])
        .aggregate(Sum("p_rev", alias_name="rev"),
                   Sum("p_n", alias_name="n_items"))
        .to_pandas()
    )
    out = pd.DataFrame(
        {"r_name": df["r_name"], "l_returnflag": df["l_returnflag"],
         "revenue": df["rev"].round(2),
         "n_items": df["n_items"].astype("int64")}
    )
    return out.sort_values(["r_name", "l_returnflag"]).reset_index(drop=True)


def user_order_event_ratio(sf_dir: str) -> "rd.Dataset":
    """Two-fact-table aggregate merge WITHOUT a join: per-user event and
    order counts combined by tagging each side's map-side partials with
    zero columns for the other, unioning the two skinny streams, and
    running ONE bounded groupby-sum — the union-merge replacement for a
    FULL OUTER JOIN of two aggregates (neither fact table is shuffled
    whole; only per-batch partial rows move)."""

    def e_part(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("user_id", as_index=False).size()
        return pd.DataFrame(
            {"user_id": g["user_id"].astype("int64"),
             "p_events": g["size"].astype("int64"),
             "p_orders": np.int64(0)}
        )

    def o_part(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("o_custkey", as_index=False).size()
        return pd.DataFrame(
            {"user_id": g["o_custkey"].astype("int64"),
             "p_events": np.int64(0),
             "p_orders": g["size"].astype("int64")}
        )

    e = _pq(sf_dir, "events", ["user_id"]).map_batches(
        e_part, batch_format="pandas", batch_size=65536
    )
    o = _pq(sf_dir, "orders", ["o_custkey"]).map_batches(
        o_part, batch_format="pandas", batch_size=65536
    )

    # sharded combine (user-hash groups, vectorized pandas sum inside)
    # instead of Ray's per-user aggregate operator: the per-key
    # aggregate was measured 36 s for 15k users at sf0.1 — the sharded
    # plan is the same shuffle minus the per-key operator tax
    n_shards = 64

    def add_shard(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(shard=df["user_id"].astype("int64") % n_shards)

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("user_id", as_index=False).agg(
            n_events=("p_events", "sum"), n_orders=("p_orders", "sum")
        )
        return g.astype(
            {"user_id": "int64", "n_events": "int64", "n_orders": "int64"}
        )

    return (
        hash_exchange(
            e.union(o)
            .map_batches(add_shard, batch_format="pandas",
                         batch_size=65536),
            "shard", n_shards, combine)
        .select_columns(["user_id", "n_events", "n_orders"])
    )


def bloom_semi_join(sf_dir: str, n_shards: int = 64) -> "rd.Dataset":
    """Bloom-prefiltered fact-fact SEMI join: per-urgent-order lineitem
    tallies, where probe rows that cannot match never enter the shuffle.

    Plan: (1) build side (urgent orderkeys) streams into per-batch bloom
    bitmaps (the dedup module's fixed 2 MiB splitmix64 bloom) OR-merged
    on the driver — constant memory regardless of build cardinality
    (tree-reduce the OR once batch count × 2 MiB outgrows one node);
    (2) the probe side tests the broadcast bloom per batch and only
    SURVIVORS (true matches + bounded false positives) carry partial
    aggregates into the one key-hash shuffle; (3) the in-shard merge
    joins survivors against the exact build keys, discarding bloom false
    positives, so the result is EXACT while the shuffle moved ~|matches|
    rows instead of the whole probe table."""
    from tensorflow_ocr_ray.pipelines.dedup import (
        _bloom_contains,
        _bloom_from_ids,
    )

    build = _pq(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])

    def build_bloom(df: pd.DataFrame) -> pd.DataFrame:
        keys = df.loc[
            df["o_orderpriority"] == "1-URGENT", "o_orderkey"
        ].to_numpy("int64")
        return pd.DataFrame({"bm": [_bloom_from_ids(keys).tobytes()]})

    bms = build.map_batches(
        build_bloom, batch_format="pandas", batch_size=65536
    ).to_pandas()
    bm = np.zeros(len(bms["bm"].iloc[0]), dtype=np.uint8)
    for b in bms["bm"]:
        bm |= np.frombuffer(b, dtype=np.uint8)
    bm_ref = ray.put(bm)

    def probe(df: pd.DataFrame) -> pd.DataFrame:
        keys = df["l_orderkey"].to_numpy("int64")
        keep = _bloom_contains(ray.get(bm_ref), keys)
        d = df[keep]
        g = (
            pd.DataFrame(
                {"l_orderkey": d["l_orderkey"].astype("int64"),
                 "q": d["l_quantity"].astype("int64")}
            )
            .groupby("l_orderkey", as_index=False)
            .agg(p_n=("q", "size"), p_qty=("q", "sum"))
        )
        g["side"] = np.int64(1)
        g["shard"] = g["l_orderkey"] % n_shards
        return g

    def build_rows(df: pd.DataFrame) -> pd.DataFrame:
        k = df.loc[
            df["o_orderpriority"] == "1-URGENT", "o_orderkey"
        ].astype("int64")
        return pd.DataFrame(
            {"l_orderkey": k, "p_n": np.int64(0), "p_qty": np.int64(0),
             "side": np.int64(0), "shard": k % n_shards}
        )

    p = _pq(sf_dir, "lineitem", ["l_orderkey", "l_quantity"]).map_batches(
        probe, batch_format="pandas", batch_size=65536
    )
    b = build.map_batches(build_rows, batch_format="pandas",
                          batch_size=65536)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        real = set(df.loc[df["side"] == 0, "l_orderkey"].tolist())
        d = df[(df["side"] == 1)
               & df["l_orderkey"].isin(real)]
        g = d.groupby("l_orderkey", as_index=False).agg(
            n_items=("p_n", "sum"), sum_qty=("p_qty", "sum")
        )
        return g.astype(
            {"l_orderkey": "int64", "n_items": "int64", "sum_qty": "int64"}
        )

    return (
        hash_exchange(p.union(b), "shard", n_shards, merge)
        .select_columns(["l_orderkey", "n_items", "sum_qty"])
    )


def q22_region_monthly_revenue(sf_dir: str, n_shards: int = 64) -> pd.DataFrame:
    """TPC-H Q5-shaped composition: revenue per (customer region, order
    month) across lineitem ⋈ orders ⋈ customer ⋈ nation ⋈ region.

    Plan: the two FACT tables meet in q17's sharded union-merge on
    orderkey (neither broadcast); each shard's joined rows pre-aggregate
    to (custkey, month) partials; the dimension chain customer → nation
    → region collapses into ONE custkey→region broadcast lookup (swap to
    a second sharded merge when the customer dim outgrows a broadcast —
    the fact-side plan is unchanged); the final bounded groupby is
    |regions × months|."""
    import pyarrow.parquet as pq

    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_nationkey"])
    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_regionkey"])
    reg = pq.read_table(f"{sf_dir}/region.parquet",
                        columns=["r_regionkey", "r_name"])
    r_name = dict(zip(reg.column("r_regionkey").to_pylist(),
                      reg.column("r_name").to_pylist()))
    n2r = {nk: r_name[rk]
           for nk, rk in zip(nat.column("n_nationkey").to_pylist(),
                             nat.column("n_regionkey").to_pylist())}
    c2r = {ck: n2r[nk]
           for ck, nk in zip(cust.column("c_custkey").to_pylist(),
                             cust.column("c_nationkey").to_pylist())}
    c2r_ref = ray.put(c2r)

    def l_rows(df: pd.DataFrame) -> pd.DataFrame:
        # exact integer revenue in 1e-4-dollar units: price and discount
        # are 2-decimal by schema, so cents * (100 - disc_pct) is an
        # integer — float sums of ~30 values were measured landing ON
        # the half-cent round(.., 2) boundary and flipping vs the oracle
        cents = np.round(
            df["l_extendedprice"].to_numpy() * 100.0
        ).astype(np.int64)
        disc = np.round(df["l_discount"].to_numpy() * 100.0).astype(
            np.int64
        )
        rev = cents * (100 - disc)
        g = (
            pd.DataFrame({"join_key": df["l_orderkey"].astype("int64"),
                          "rev": rev})
            .groupby("join_key", as_index=False)
            .agg(p_rev=("rev", "sum"), p_n=("rev", "size"))
        )
        return pd.DataFrame(
            {"join_key": g["join_key"],
             "o_custkey": np.int64(-1), "month": np.int64(-1),
             "p_rev": g["p_rev"].astype("int64"),
             "p_n": g["p_n"].astype("int64"),
             "side": np.int64(0),
             "shard": g["join_key"] % n_shards}
        )

    def o_rows(df: pd.DataFrame) -> pd.DataFrame:
        od = df["o_orderdate"].to_numpy().astype("datetime64[M]")
        month = (od.astype("int64") % 12) + 1
        year = od.astype("int64") // 12 + 1970
        ym = year * 100 + month
        k = df["o_orderkey"].astype("int64")
        return pd.DataFrame(
            {"join_key": k,
             "o_custkey": df["o_custkey"].astype("int64"),
             "month": ym.astype("int64"),
             "p_rev": np.int64(0), "p_n": np.int64(0),
             "side": np.int64(1),
             "shard": k % n_shards}
        )

    l = _pq(sf_dir, "lineitem",
            ["l_orderkey", "l_extendedprice", "l_discount"]).map_batches(
        l_rows, batch_format="pandas", batch_size=65536)
    o = _pq(sf_dir, "orders",
            ["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        o_rows, batch_format="pandas", batch_size=65536)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        lut = ray.get(c2r_ref)
        ob = df[df["side"] == 1][["join_key", "o_custkey", "month"]]
        lb = df[df["side"] == 0]
        lg = lb.groupby("join_key", as_index=False).agg(
            p_rev=("p_rev", "sum"), p_n=("p_n", "sum")
        )
        j = lg.merge(ob, on="join_key", how="inner")
        j["r_name"] = j["o_custkey"].map(lut)
        return j.groupby(["r_name", "month"], as_index=False).agg(
            p_rev=("p_rev", "sum"), p_n=("p_n", "sum")
        )

    df = (
        hash_exchange(l.union(o), "shard", n_shards, merge)
        .to_pandas()
    )
    g = df.groupby(["r_name", "month"], as_index=False).agg(
        rev=("p_rev", "sum"), n=("p_n", "sum")
    )
    out = pd.DataFrame(
        {"r_name": g["r_name"], "month": g["month"].astype("int64"),
         "revenue_e4": g["rev"].astype("int64"),
         "n_items": g["n"].astype("int64")}
    )
    return out.sort_values(["r_name", "month"]).reset_index(drop=True)


def above_avg_parts(sf_dir: str) -> "rd.Dataset":
    """Decorrelated scalar subquery: parts priced above the GLOBAL mean
    retail price — evaluated in EXACT integer arithmetic: prices are
    2-decimal, so the filter ``p > sum/n`` is the integer
    cross-multiplication ``cents(p) * n > sum_cents`` (no float mean is
    ever formed; the SQL oracle applies the same cross-multiplied
    predicate, making the boundary bit-exact instead of
    summation-order-dependent).

    Two streaming passes: (1) bounded aggregate → two ints on the
    driver, broadcast by closure; (2) pure map filter."""
    ds = _pq(sf_dir, "part", ["p_partkey", "p_name", "p_retailprice"])

    def cents_partial(df: pd.DataFrame) -> pd.DataFrame:
        c = np.round(df["p_retailprice"].to_numpy() * 100.0).astype(
            np.int64
        )
        return pd.DataFrame({"p_sum": [int(c.sum())], "p_n": [len(c)]})

    parts = ds.map_batches(cents_partial, batch_format="pandas",
                           batch_size=65536).to_pandas()
    sum_cents = int(parts["p_sum"].sum())
    n = int(parts["p_n"].sum())

    def fil(df: pd.DataFrame) -> pd.DataFrame:
        c = np.round(df["p_retailprice"].to_numpy() * 100.0).astype(
            np.int64
        )
        return df[c * n > sum_cents]

    return ds.map_batches(fil, batch_format="pandas", batch_size=65536)


def corr_quantity_price(sf_dir: str) -> pd.DataFrame:
    """Pearson correlation of (l_quantity, l_extendedprice) per
    returnflag from EXACT integer moments — no float sum ever forms, so
    distributed re-association cannot drift vs the oracle's sequential
    accumulation (cf. q22's exact-cents lesson).

    sum(price_cents^2) overflows int64 across the corpus (1.2e14/row),
    so each batch's per-flag moment is SPLIT into (hi, lo) 32-bit limbs
    that the distributed Sum combines independently; the driver
    reassembles arbitrary-precision Python ints from |flags| limb rows
    and evaluates r with the same double ops the SQL uses.  Batch size
    8192 keeps every within-batch int64 sum 9x under overflow."""
    ds = _pq(sf_dir, "lineitem",
             ["l_returnflag", "l_quantity", "l_extendedprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        q = df["l_quantity"].to_numpy().astype(np.int64)
        pc_ = np.round(df["l_extendedprice"].to_numpy() * 100.0).astype(
            np.int64
        )
        d = pd.DataFrame(
            {
                "l_returnflag": df["l_returnflag"],
                "n": np.int64(1),
                "sx": q,
                "sy": pc_,
                "sxx": q * q,
                "sxy": q * pc_,
                "syy": pc_ * pc_,
            }
        )
        g = d.groupby("l_returnflag", as_index=False).sum()
        out = {"l_returnflag": g["l_returnflag"]}
        for c in ("n", "sx", "sy", "sxx", "sxy", "syy"):
            v = g[c].to_numpy()
            out[f"{c}_hi"] = v >> np.int64(32)
            out[f"{c}_lo"] = v & np.int64(0xFFFFFFFF)
        return pd.DataFrame(out)

    cols = ("n", "sx", "sy", "sxx", "sxy", "syy")
    aggs = []
    for c in cols:
        aggs.append(Sum(f"{c}_hi", alias_name=f"{c}_hi"))
        aggs.append(Sum(f"{c}_lo", alias_name=f"{c}_lo"))
    m = (
        ds.map_batches(partial, batch_format="pandas", batch_size=8192)
        .groupby("l_returnflag")
        .aggregate(*aggs)
        .to_pandas()
    )
    import math

    rows = []
    for _, r in m.iterrows():
        v = {c: (int(r[f"{c}_hi"]) << 32) + int(r[f"{c}_lo"])
             for c in cols}
        n = v["n"]
        num = n * v["sxy"] - v["sx"] * v["sy"]
        da = n * v["sxx"] - v["sx"] * v["sx"]
        db = n * v["syy"] - v["sy"] * v["sy"]
        corr = float(num) / math.sqrt(float(da) * float(db))
        rows.append(
            {"l_returnflag": r["l_returnflag"], "n": n,
             "corr_qty_price": round(corr, 6)}
        )
    out = pd.DataFrame(rows).astype({"n": "int64"})
    return out.sort_values("l_returnflag").reset_index(drop=True)


def cube_lineitem(sf_dir: str) -> pd.DataFrame:
    """GROUP BY CUBE(returnflag, linestatus): all FOUR grouping levels,
    'ALL' sentinels for the rolled-up keys — rollup_lineitem plus the
    (ALL, status) slice, derived from the same single bounded fine
    aggregate (map-side partials -> |flag x status| rows; every coarser
    level is driver math over that tiny table, exact BIGINTs)."""
    ds = _pq(sf_dir, "lineitem", ["l_returnflag", "l_linestatus",
                                  "l_quantity"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame(
            {
                "l_returnflag": df["l_returnflag"],
                "l_linestatus": df["l_linestatus"],
                "q": df["l_quantity"].astype("int64"),
            }
        )
        return d.groupby(
            ["l_returnflag", "l_linestatus"], as_index=False
        ).agg(p_qty=("q", "sum"), p_n=("q", "size"))

    fine = (
        ds.map_batches(partial, batch_format="pandas", batch_size=65536)
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(Sum("p_qty", alias_name="sum_qty"),
                   Sum("p_n", alias_name="count_order"))
        .to_pandas()
        .astype({"sum_qty": "int64", "count_order": "int64"})
    )
    by_flag = fine.groupby("l_returnflag", as_index=False).agg(
        sum_qty=("sum_qty", "sum"), count_order=("count_order", "sum")
    )
    by_flag["l_linestatus"] = "ALL"
    by_status = fine.groupby("l_linestatus", as_index=False).agg(
        sum_qty=("sum_qty", "sum"), count_order=("count_order", "sum")
    )
    by_status["l_returnflag"] = "ALL"
    top = pd.DataFrame(
        {
            "l_returnflag": ["ALL"], "l_linestatus": ["ALL"],
            "sum_qty": [fine["sum_qty"].sum()],
            "count_order": [fine["count_order"].sum()],
        }
    )
    cols = ["l_returnflag", "l_linestatus", "sum_qty", "count_order"]
    out = pd.concat(
        [fine[cols], by_flag[cols], by_status[cols], top[cols]],
        ignore_index=True,
    ).astype({"sum_qty": "int64", "count_order": "int64"})
    return out.sort_values(cols[:2]).reset_index(drop=True)


def q23_returned_item_revenue(sf_dir: str, topn: int = 20,
                              n_shards: int = 64) -> pd.DataFrame:
    """TPC-H Q10 shape: top-``topn`` customers by revenue from RETURNED
    items (l_returnflag = 'R'), with name and nation.  Revenue is exact
    1e-4-dollar ints (q22's lesson: float sums land on round
    boundaries).

    Plan: (1) filtered lineitem batches pre-aggregate (orderkey, rev)
    partials; orders contributes (orderkey, custkey); one orderkey-hash
    union-merge shard joins them and re-emits (custkey, rev) partials;
    (2) a custkey-hash combine completes per-customer totals (a customer
    lives in ONE shard) and each shard emits only its local top-``topn``
    — a provable superset of the global winners; (3) the driver merges
    shards x topn skinny rows, and only the ~topn winners' names/nations
    are fetched via a broadcast-winner pruned read of the customer dim.
    Neither fact table is broadcast or collected."""

    def l_rows(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["l_returnflag"] == "R"]
        cents = np.round(
            df["l_extendedprice"].to_numpy() * 100.0).astype(np.int64)
        disc = np.round(
            df["l_discount"].to_numpy() * 100.0).astype(np.int64)
        d = pd.DataFrame(
            {"key": df["l_orderkey"].astype("int64"),
             "rev": cents * (100 - disc)}
        ).groupby("key", as_index=False).agg(rev=("rev", "sum"))
        d["cust"] = np.int64(-1)
        d["side"] = np.int64(0)
        d["shard"] = d["key"] % n_shards
        return d

    def o_rows(df: pd.DataFrame) -> pd.DataFrame:
        key = df["o_orderkey"].astype("int64")
        return pd.DataFrame(
            {"key": key, "rev": np.int64(0),
             "cust": df["o_custkey"].astype("int64"),
             "side": np.int64(1), "shard": key % n_shards}
        )

    l = _pq(sf_dir, "lineitem",
            ["l_orderkey", "l_returnflag", "l_extendedprice",
             "l_discount"]).map_batches(
        l_rows, batch_format="pandas", batch_size=65536)
    o = _pq(sf_dir, "orders", ["o_orderkey", "o_custkey"]).map_batches(
        o_rows, batch_format="pandas", batch_size=65536)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        li = df[df["side"] == 0].groupby("key", as_index=False).agg(
            rev=("rev", "sum"))
        od = df[df["side"] == 1][["key", "cust"]]
        j = li.merge(od, on="key", how="inner")
        g = j.groupby("cust", as_index=False).agg(rev=("rev", "sum"))
        g["cshard"] = g["cust"] % n_shards
        return g.astype({"cust": "int64", "rev": "int64"})

    def cust_top(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("cust", as_index=False).agg(rev=("rev", "sum"))
        g = g.sort_values(["rev", "cust"], ascending=[False, True])
        return g.head(topn).astype({"cust": "int64", "rev": "int64"})

    heads = (
        hash_exchange(
            hash_exchange(l.union(o), "shard", n_shards, merge),
            "cshard", n_shards, cust_top)
        .to_pandas()
        .sort_values(["rev", "cust"], ascending=[False, True])
        .head(topn)
    )
    # sorted array, not a set: np.isin is the vectorized membership
    # test (a python set forces a per-row lambda)
    winners = np.sort(heads["cust"].to_numpy(np.int64))
    win_ref = ray.put(winners)

    def cust_rows(df: pd.DataFrame) -> pd.DataFrame:
        ks = ray.get(win_ref)
        m = np.isin(df["c_custkey"].to_numpy(np.int64), ks)
        d = df[m]
        return d[["c_custkey", "c_name", "c_nationkey"]]

    cust = _pq(sf_dir, "customer",
               ["c_custkey", "c_name", "c_nationkey"]).map_batches(
        cust_rows, batch_format="pandas", batch_size=65536).to_pandas()
    nation = _pq(sf_dir, "nation").to_pandas()
    out = (
        heads.rename(columns={"cust": "c_custkey",
                              "rev": "revenue_e4"})
        .merge(cust, on="c_custkey")
        .merge(nation[["n_nationkey", "n_name"]],
               left_on="c_nationkey", right_on="n_nationkey")
    )
    out = out[["c_custkey", "c_name", "n_name", "revenue_e4"]]
    out = out.sort_values(["revenue_e4", "c_custkey"],
                          ascending=[False, True]).reset_index(drop=True)
    return out.astype({"c_custkey": "int64", "revenue_e4": "int64"})


def regr_price_on_quantity(sf_dir: str) -> pd.DataFrame:
    """Per-flag least-squares regression of extendedprice (cents) on
    quantity — SQL's REGR_SLOPE / REGR_INTERCEPT aggregate family,
    computed like ``corr_quantity_price``: per-batch EXACT integer
    moments (n, Sx, Sy, Sxx, Sxy fit int64 at batch size), driver
    combine in Python big-ints (matching DuckDB's HUGEINT promotion of
    the moment products), ONE double division per statistic with the
    identical formula both sides:

      slope     = (n*Sxy - Sx*Sy) / (n*Sxx - Sx^2)
      intercept = (Sy*Sxx - Sx*Sxy) / (n*Sxx - Sx^2)

    round(, 6) on the identical doubles.  Map-only + bounded driver
    combine — no shuffle at all."""
    ds = _pq(sf_dir, "lineitem",
             ["l_returnflag", "l_quantity", "l_extendedprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        q = df["l_quantity"].to_numpy().astype("int64")
        p = np.round(df["l_extendedprice"].to_numpy() * 100.0).astype(
            "int64")
        d = pd.DataFrame(
            {"l_returnflag": df["l_returnflag"], "n": np.int64(1),
             "sx": q, "sy": p, "sxx": q * q, "sxy": q * p}
        )
        return d.groupby("l_returnflag", as_index=False).agg(
            n=("n", "sum"), sx=("sx", "sum"), sy=("sy", "sum"),
            sxx=("sxx", "sum"), sxy=("sxy", "sum"),
        )

    parts = ds.map_batches(
        partial, batch_format="pandas", batch_size=65536
    ).to_pandas()
    rows = []
    for flag, g in parts.groupby("l_returnflag"):
        # Python ints: exact at any scale, like DuckDB's HUGEINT
        n = int(g["n"].sum())
        sx = int(g["sx"].sum())
        sy = int(g["sy"].sum())
        sxx = int(g["sxx"].sum())
        sxy = int(g["sxy"].sum())
        den = n * sxx - sx * sx
        rows.append(
            {
                "l_returnflag": flag,
                "n": n,
                "slope_cents_per_qty": round(
                    float(n * sxy - sx * sy) / float(den), 6),
                "intercept_cents": round(
                    float(sy * sxx - sx * sxy) / float(den), 6),
            }
        )
    return (
        pd.DataFrame(rows)
        .sort_values("l_returnflag")
        .reset_index(drop=True)
        .astype({"n": "int64"})
    )


def q24_view_no_purchase(sf_dir: str, n_shards: int = 64) -> "rd.Dataset":
    """User-days with at least one view and ZERO purchases that day —
    the EXCEPT / self-anti-semi shape (q18 is the two-table anti-join).
    Day granularity because EVERY user has every event type corpus-wide
    (a user-level EXCEPT is vacuously empty — degeneracy checked before
    registering, per the r2 lesson).

    Per-batch (user, day, views, purchases) count partials, ONE
    user-hash exchange (a user's days all land in its shard), per-shard
    combine + filter.  Lazy Dataset out (result is user×day class)."""
    ds = _pq(sf_dir, "events", ["user_id", "ts", "event_type"])
    _US_PER_DAY = 86_400_000_000

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        d = pd.DataFrame(
            {
                "user_id": df["user_id"].astype("int64"),
                "day": us // _US_PER_DAY,
                "v": (df["event_type"] == "view").to_numpy()
                .astype("int64"),
                "p": (df["event_type"] == "purchase").to_numpy()
                .astype("int64"),
            }
        )
        g = d.groupby(["user_id", "day"], as_index=False).agg(
            v=("v", "sum"), p=("p", "sum")
        )
        g["shard"] = g["user_id"] % n_shards
        return g

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["user_id", "day"], as_index=False).agg(
            v=("v", "sum"), p=("p", "sum")
        )
        g = g[(g["v"] > 0) & (g["p"] == 0)]
        return pd.DataFrame(
            {
                "user_id": g["user_id"].astype("int64"),
                "day": g["day"].astype("int64"),
                "n_views": g["v"].astype("int64"),
            }
        )

    return hash_exchange(
        ds.map_batches(partial, batch_format="pandas", batch_size=65536),
        "shard", n_shards, combine,
    )


def full_outer_user_day(sf_dir: str, n_shards: int = 64) -> "rd.Dataset":
    """Orders ⟗ events at (user, day) grain — the FULL OUTER join
    variant (q17 inner, q18 anti, bloom_semi_join semi, q5/q14 snow-
    flake): per-day order count/cents full-outer per-day event
    count/cents, absent sides coalesced to 0 (the row's existence is
    the outer-ness; custkeys above the user range are left-only, most
    event days right-only — grain checked non-degenerate both ways).

    Physical plan: per-block per-side aggregate partials tagged into
    ONE union schema, one user-hash exchange, per-shard (user, day)
    sum — a full outer join of aggregates needs no join operator at
    all, just a union of idempotently-mergeable partials."""
    _US_PER_DAY = 86_400_000_000
    orders = _pq(sf_dir, "orders",
                 ["o_custkey", "o_orderdate", "o_totalprice"])
    events = _pq(sf_dir, "events", ["user_id", "ts", "value"])

    def _empty():
        return pd.DataFrame(
            {c: pd.Series([], dtype="int64")
             for c in ("user_id", "day", "n_orders", "order_cents",
                       "n_events", "event_cents", "shard")}
        )

    def o_partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return _empty()
        days = (
            df["o_orderdate"].to_numpy().astype("datetime64[D]")
            .astype("int64")
        )
        d = pd.DataFrame(
            {
                "user_id": df["o_custkey"].astype("int64"),
                "day": days,
                "cents": np.round(
                    df["o_totalprice"].to_numpy() * 100.0
                ).astype("int64"),
            }
        )
        g = d.groupby(["user_id", "day"], as_index=False).agg(
            n_orders=("cents", "size"), order_cents=("cents", "sum")
        )
        g["n_events"] = np.int64(0)
        g["event_cents"] = np.int64(0)
        g["shard"] = g["user_id"] % n_shards
        return g.astype("int64")

    def e_partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return _empty()
        us = df["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        d = pd.DataFrame(
            {
                "user_id": df["user_id"].astype("int64"),
                "day": us // _US_PER_DAY,
                "cents": np.round(df["value"].to_numpy() * 100.0)
                .astype("int64"),
            }
        )
        g = d.groupby(["user_id", "day"], as_index=False).agg(
            n_events=("cents", "size"), event_cents=("cents", "sum")
        )
        g["n_orders"] = np.int64(0)
        g["order_cents"] = np.int64(0)
        g["shard"] = g["user_id"] % n_shards
        return g.astype("int64")[
            ["user_id", "day", "n_orders", "order_cents",
             "n_events", "event_cents", "shard"]
        ]

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["user_id", "day"], as_index=False).agg(
            n_orders=("n_orders", "sum"),
            order_cents=("order_cents", "sum"),
            n_events=("n_events", "sum"),
            event_cents=("event_cents", "sum"),
        )
        return g.astype("int64")

    both = orders.map_batches(
        o_partial, batch_format="pandas", batch_size=65536
    ).union(
        events.map_batches(
            e_partial, batch_format="pandas", batch_size=65536
        )
    )
    return hash_exchange(both, "shard", n_shards, combine)


def intersect_user_days(sf_dir: str, n_shards: int = 64) -> "rd.Dataset":
    """(user, day) pairs with BOTH a purchase and an error that day —
    the INTERSECT set-op shape, completing the family (q13 UNION ALL,
    q24 EXCEPT).  Day granularity for the same degeneracy reason as
    q24: corpus-wide every user emits every event type.

    Physical plan: per-batch distinct (user, day) → 2-bit membership
    mask partials (1 = purchase, 2 = error), ONE user-hash exchange,
    per-shard OR-combine, keep mask == 3.  Bitmask partials make the
    pre-reduction idempotent — re-OR-ing never overcounts, so block
    layout cannot matter."""
    ds = _pq(sf_dir, "events", ["user_id", "ts", "event_type"])
    _US_PER_DAY = 86_400_000_000

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        et = df["event_type"]
        keep = (et == "purchase") | (et == "error")
        df = df[keep]
        us = df["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        d = pd.DataFrame(
            {
                "user_id": df["user_id"].astype("int64"),
                "day": us // _US_PER_DAY,
                "m": np.where(
                    df["event_type"].to_numpy() == "purchase", 1, 2
                ).astype(np.int64),
            }
        )
        g = d.groupby(["user_id", "day"], as_index=False).agg(
            m=("m", lambda s: int(np.bitwise_or.reduce(s.to_numpy())))
        )
        g["m"] = g["m"].astype("int64")
        g["shard"] = g["user_id"] % n_shards
        return g

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["user_id", "day"], as_index=False).agg(
            m=("m", lambda s: int(np.bitwise_or.reduce(s.to_numpy())))
        )
        g = g[g["m"] == 3]
        return pd.DataFrame(
            {
                "user_id": g["user_id"].astype("int64"),
                "day": g["day"].astype("int64"),
            }
        )

    return hash_exchange(
        ds.map_batches(partial, batch_format="pandas", batch_size=65536),
        "shard", n_shards, combine,
    )


def copurchase_pairs(
    sf_dir: str, min_count: int = 2, n_shards: int = 64
) -> "rd.Dataset":
    """Market-basket co-occurrence: (p1, p2, co_count) for every
    unordered pair of DISTINCT parts appearing in the same order, kept
    when co_count >= min_count — the item-item co-occurrence matrix a
    recommender / association-rule pass starts from.

    Physical plan (two exchanges, both on skinny int columns):
    orderkey-hash exchange co-locates an order's lineitems, a
    vectorized all-pairs emission (concatenated-ranges, no per-order
    Python loop) turns each order's distinct-part set into canonical
    p1 < p2 pairs, and the pairs are PARTIALLY COUNTED inside the same
    shard before the pair-hash exchange sums partials and applies the
    threshold.  Pair fan-out per order is C(k, 2) on k = distinct
    parts per order — bounded by basket size, never by catalog size;
    the threshold keeps the output the interesting co-purchases, not
    the long tail of singletons."""
    li = _pq(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def by_order(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "o": df["l_orderkey"].astype("int64"),
                "p": df["l_partkey"].astype("int64"),
                "shard": df["l_orderkey"].to_numpy(np.int64) % n_shards,
            }
        )

    def _pair_frame(p1, p2, c):
        return pd.DataFrame(
            {
                "p1": np.asarray(p1, np.int64),
                "p2": np.asarray(p2, np.int64),
                "c": np.asarray(c, np.int64),
            }
        )

    def emit_pairs(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            out = _pair_frame([], [], [])
            out["shard"] = pd.Series([], dtype="int64")
            return out
        d = df.drop_duplicates(["o", "p"]).sort_values(["o", "p"])
        o = d["o"].to_numpy(np.int64)
        p = d["p"].to_numpy(np.int64)
        change = np.flatnonzero(np.r_[True, o[1:] != o[:-1]])
        k = np.diff(np.r_[change, len(o)])
        starts = np.repeat(change, k)
        local = np.arange(len(o)) - starts
        reps = np.repeat(k, k) - 1 - local
        first = np.repeat(np.arange(len(o)), reps)
        off = np.cumsum(reps) - reps
        second = (
            np.arange(int(reps.sum())) - np.repeat(off, reps)
            + np.repeat(np.arange(len(o)) + 1, reps)
        )
        out = _pair_frame(p[first], p[second], np.ones(len(first)))
        g = out.groupby(["p1", "p2"], as_index=False)["c"].sum()
        g = g.astype("int64")
        h = (
            g["p1"].to_numpy(np.uint64) * np.uint64(1_000_003)
            + g["p2"].to_numpy(np.uint64)
        )
        g["shard"] = (h % np.uint64(n_shards)).astype(np.int64)
        return g

    def sum_pairs(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {
                    "p1": pd.Series([], dtype="int64"),
                    "p2": pd.Series([], dtype="int64"),
                    "co_count": pd.Series([], dtype="int64"),
                }
            )
        g = df.groupby(["p1", "p2"], as_index=False)["c"].sum()
        g = g[g["c"] >= min_count]
        return pd.DataFrame(
            {
                "p1": g["p1"].to_numpy(np.int64),
                "p2": g["p2"].to_numpy(np.int64),
                "co_count": g["c"].to_numpy(np.int64),
            }
        )

    grouped = hash_exchange(
        li.map_batches(by_order, batch_format="pandas"),
        "shard", n_shards, emit_pairs,
    )
    return hash_exchange(grouped, "shard", n_shards, sum_pairs)


def winsorized_mean_by_type(sf_dir: str) -> pd.DataFrame:
    """Robust per-type statistics: clamp value-cents to the exact
    [p05, p95] (quantile_disc order statistics from q16's distributed
    histogram-refinement — no group is ever materialized) and compute
    the exact winsorized sum/mean — (event_type, n, win_sum_cents,
    win_mean_millicents).  The two-phase shape a robust-stats pass
    needs at scale: a distributed SELECTION feeding a BROADCAST of the
    tiny bounds table into one streaming clamp+sum pass.

    Exactness: the clamp runs in the integer cents domain on both
    sides (round(v*100) is monotone, and the bounds are actual data
    values passed through the same rounding), partials are int64 sums,
    and the mean is a floor division — no float re-association
    anywhere."""
    bounds = q16_event_quantiles(
        sf_dir, qs=((0.05, "p05"), (0.95, "p95"))
    )
    lut = {
        r["event_type"]: (
            int(np.round(r["p05"] * 100.0)),
            int(np.round(r["p95"] * 100.0)),
        )
        for _, r in bounds.iterrows()
    }
    bref = ray.put(lut)
    ds = _pq(sf_dir, "events", ["event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        lu = ray.get(bref)
        cents = np.round(df["value"].to_numpy() * 100.0).astype(np.int64)
        et = df["event_type"].to_numpy()
        frames = []
        for t, (lo, hi) in lu.items():
            m = et == t
            if not m.any():
                continue
            c = np.clip(cents[m], lo, hi)
            frames.append((t, int(m.sum()), int(c.sum())))
        return pd.DataFrame(
            frames, columns=["event_type", "n", "s"]
        ) if frames else pd.DataFrame(
            {"event_type": pd.Series([], dtype="object"),
             "n": pd.Series([], dtype="int64"),
             "s": pd.Series([], dtype="int64")}
        )

    parts = (
        ds.map_batches(partial, batch_format="pandas", batch_size=65536)
        .to_pandas()
        .groupby("event_type", as_index=False)
        .agg(n=("n", "sum"), win_sum_cents=("s", "sum"))
    )
    parts["win_mean_millicents"] = (
        parts["win_sum_cents"] * 1000 // parts["n"]
    )
    out = parts.astype(
        {"n": "int64", "win_sum_cents": "int64",
         "win_mean_millicents": "int64"}
    )
    return out.sort_values("event_type").reset_index(drop=True)


def daily_anomaly_days(sf_dir: str) -> pd.DataFrame:
    """Integer-exact 2-sigma anomaly scan over the per-(type, day)
    event-count grid: flag cells where |n - mean_type| > 2*sigma_type
    (population moments over that type's days).  The float-free trick:
    multiply through by D^2 — anomaly  <=>  (n*D - S)^2 > 4*(Q*D - S^2)
    with D = #days, S = sum n, Q = sum n^2, so both sides are int64
    products and the DuckDB oracle is the same inequality verbatim.

    Scale shape: the (type, day) grid is bounded by |types| x |days|
    regardless of corpus size, so per-batch count partials tree-combine
    (repartition(16)) and the grid reaches the driver — the same
    bounded-key contract as q16's stats pass; no shuffle of raw
    events."""
    ds = _pq(sf_dir, "events", ["event_type", "ts"])
    _US_DAY = 86_400_000_000

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        g = (
            pd.DataFrame({"event_type": df["event_type"],
                          "day": us // _US_DAY})
            .groupby(["event_type", "day"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )
        return g.astype({"day": "int64", "n": "int64"})

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["event_type", "day"], as_index=False)["n"].sum()
        return g.astype({"day": "int64", "n": "int64"})

    grid = (
        ds.map_batches(partial, batch_format="pandas", batch_size=65536)
        .repartition(16)
        .map_batches(merge, batch_format="pandas")
        .to_pandas()
        .groupby(["event_type", "day"], as_index=False)["n"].sum()
    )
    st = grid.groupby("event_type", as_index=False).agg(
        n_days=("n", "size"), sum_n=("n", "sum"), sum_sq=("n", lambda v: int((v.to_numpy(np.int64) ** 2).sum()))
    )
    j = grid.merge(st, on="event_type")
    n = j["n"].to_numpy(np.int64)
    d = j["n_days"].to_numpy(np.int64)
    s = j["sum_n"].to_numpy(np.int64)
    q = j["sum_sq"].to_numpy(np.int64)
    keep = (n * d - s) ** 2 > 4 * (q * d - s * s)
    out = j[keep].astype(
        {"n": "int64", "n_days": "int64", "sum_n": "int64",
         "sum_sq": "int64"}
    )
    return out.sort_values(["event_type", "day"]).reset_index(drop=True)


def orders_daily_ohlc(sf_dir: str) -> pd.DataFrame:
    """Per-day OHLC over order totals — (day, open_cents, high_cents,
    low_cents, close_cents, n, sum_cents) where open/close are the
    prices of the MIN-/MAX-orderkey order that day (the deterministic
    sequence stand-in for time-of-day): the first/last-by-sequence
    aggregate family (argmin/argmax), which IS mergeable —
    partial(open) carries (orderkey, cents) and the combine keeps the
    pair with the smaller key, so per-batch partials tree-combine
    exactly like sums do.  The day grid is calendar-bounded, so
    partials reach the driver under the same bounded-key contract as
    daily_anomaly_days; prices are exact cents."""
    ds = _pq(sf_dir, "orders",
             ["o_orderkey", "o_orderdate", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame(
            {
                "day": df["o_orderdate"].to_numpy()
                .astype("datetime64[D]").astype("int64"),
                "key": df["o_orderkey"].astype("int64"),
                "cents": np.round(
                    df["o_totalprice"].to_numpy() * 100.0
                ).astype("int64"),
            }
        )
        g = d.groupby("day")
        i_open = g["key"].idxmin()
        i_close = g["key"].idxmax()
        out = pd.DataFrame(
            {
                "open_key": d.loc[i_open, "key"].to_numpy(),
                "open_cents": d.loc[i_open, "cents"].to_numpy(),
                "close_key": d.loc[i_close, "key"].to_numpy(),
                "close_cents": d.loc[i_close, "cents"].to_numpy(),
                "high_cents": g["cents"].max(),
                "low_cents": g["cents"].min(),
                "n": g.size(),
                "sum_cents": g["cents"].sum(),
            }
        )
        return out.reset_index().astype("int64")

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for day, g in df.groupby("day"):
            io = g["open_key"].idxmin()
            ic = g["close_key"].idxmax()
            rows.append(
                {
                    "day": day,
                    "open_key": g.loc[io, "open_key"],
                    "open_cents": g.loc[io, "open_cents"],
                    "close_key": g.loc[ic, "close_key"],
                    "close_cents": g.loc[ic, "close_cents"],
                    "high_cents": g["high_cents"].max(),
                    "low_cents": g["low_cents"].min(),
                    "n": g["n"].sum(),
                    "sum_cents": g["sum_cents"].sum(),
                }
            )
        return pd.DataFrame(rows).astype("int64")

    parts = (
        ds.map_batches(partial, batch_format="pandas", batch_size=65536)
        .repartition(16)
        .map_batches(combine, batch_format="pandas")
        .to_pandas()
    )
    out = combine(parts)
    out = out[
        ["day", "open_cents", "high_cents", "low_cents", "close_cents",
         "n", "sum_cents"]
    ]
    return out.sort_values("day").reset_index(drop=True)


def user_bitmap_activity(sf_dir: str, n_shards: int = 64) -> "rd.Dataset":
    """Bitmap-index activity encoding: per user, the 30-day event
    activity packed into ONE int64 bitmask (bit ``day % 63``) plus its
    popcount — (user_id, day_mask, n_active_days).  The compact-state
    pattern behind bitmap indexes and roaring-style segment encodings:
    OR is idempotent and commutative, so per-batch mask partials can
    be OR-combined through any block layout and exchange order without
    overcounting (the same provable-idempotence argument as
    intersect_user_days' membership masks).

    Bit position ``day - day0`` (day0 = corpus min day, one tiny
    streaming-min pre-pass) is injective while the corpus day span is
    < 63 — asserted globally, not per batch; a wider span would need
    one mask word per 63-day segment, same plan.  Bit 63 is never
    used so the mask stays a positive BIGINT in both engine and
    oracle."""
    ev = _pq(sf_dir, "events", ["ts", "user_id"])
    _US_DAY = 86_400_000_000

    def day_minmax(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        day = us // _US_DAY
        return pd.DataFrame({"lo": [day.min()], "hi": [day.max()]})

    mm = ev.map_batches(
        day_minmax, batch_format="pandas", batch_size=65536
    ).to_pandas()
    day0, day_hi = int(mm["lo"].min()), int(mm["hi"].max())
    if day_hi - day0 >= 63:
        raise ValueError(
            "day span >= 63: widen to one mask word per segment"
        )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        day = us // _US_DAY
        d = pd.DataFrame(
            {"user_id": df["user_id"].to_numpy(np.int64),
             "m": np.int64(1) << (day - day0)}
        )
        g = d.groupby("user_id", as_index=False)["m"].agg(np.bitwise_or.reduce)
        g["shard"] = g["user_id"] % n_shards
        return g.astype("int64")

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {"user_id": pd.Series([], dtype="int64"),
                 "day_mask": pd.Series([], dtype="int64"),
                 "n_active_days": pd.Series([], dtype="int64")}
            )
        g = df.groupby("user_id", as_index=False)["m"].agg(
            np.bitwise_or.reduce
        )
        m = g["m"].to_numpy(np.int64)
        pop = np.zeros(len(m), np.int64)
        x = m.copy()
        while (x != 0).any():
            pop += x & 1
            x >>= 1
        return pd.DataFrame(
            {"user_id": g["user_id"].to_numpy(np.int64),
             "day_mask": m, "n_active_days": pop}
        )

    return hash_exchange(
        ev.map_batches(partial, batch_format="pandas"),
        "shard", n_shards, combine,
    )


def customer_rfm_segments(sf_dir: str, n_shards: int = 64) -> "rd.Dataset":
    """RFM segmentation — per customer (recency_days, n_orders,
    monetary_cents) scored 1-5 against EXACT quintile boundaries of
    each measure, plus the packed rfm_code (r*100 + f*10 + m; scores
    count boundaries strictly below the value, so higher raw measure
    => higher score — recency is thus days-since-last-order scored
    ascending; invert downstream if the marketing convention is
    wanted).

    The op exists to exercise ``exact_group_quantiles`` over a DERIVED
    dataset: the per-customer aggregate (one user-hash exchange of
    skinny partials, materialized refs so the selection's multi-pass
    consumption is cheap) is re-shaped to long form (measure, value)
    and the selection machinery finds the 12 order statistics without
    materializing any measure's column; the tiny boundary table then
    broadcasts into one scoring map.  Boundaries are data values
    (integers), so scoring comparisons are int64 on both sides."""
    from tensorflow_ocr_ray.stages.selection import exact_group_quantiles

    _US_DAY = 86_400_000_000
    orders = _pq(sf_dir, "orders",
                 ["o_custkey", "o_orderdate", "o_totalprice"])

    def day_max(df: pd.DataFrame) -> pd.DataFrame:
        d = df["o_orderdate"].to_numpy().astype("datetime64[D]")
        return pd.DataFrame({"hi": [d.astype("int64").max()]})

    day_hi = int(
        orders.map_batches(day_max, batch_format="pandas",
                           batch_size=65536).to_pandas()["hi"].max()
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame(
            {
                "user_id": df["o_custkey"].astype("int64"),
                "day": df["o_orderdate"].to_numpy()
                .astype("datetime64[D]").astype("int64"),
                "cents": np.round(
                    df["o_totalprice"].to_numpy() * 100.0
                ).astype("int64"),
            }
        )
        g = d.groupby("user_id", as_index=False).agg(
            last_day=("day", "max"), n=("day", "size"),
            cents=("cents", "sum"),
        )
        g["shard"] = g["user_id"] % n_shards
        return g.astype("int64")

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {c: pd.Series([], dtype="int64")
                 for c in ("user_id", "recency_days", "n_orders",
                           "monetary_cents")}
            )
        g = df.groupby("user_id", as_index=False).agg(
            last_day=("last_day", "max"), n=("n", "sum"),
            cents=("cents", "sum"),
        )
        return pd.DataFrame(
            {
                "user_id": g["user_id"].to_numpy(np.int64),
                "recency_days": day_hi - g["last_day"].to_numpy(np.int64),
                "n_orders": g["n"].to_numpy(np.int64),
                "monetary_cents": g["cents"].to_numpy(np.int64),
            }
        )

    per_user = hash_exchange(
        orders.map_batches(partial, batch_format="pandas",
                           batch_size=65536),
        "shard", n_shards, merge,
    )

    measures = ("recency_days", "n_orders", "monetary_cents")

    def long_form(df: pd.DataFrame) -> pd.DataFrame:
        frames = [
            pd.DataFrame(
                {"measure": m, "value": df[m].to_numpy(np.float64)}
            )
            for m in measures
        ]
        return pd.concat(frames, ignore_index=True)

    bounds = exact_group_quantiles(
        per_user.map_batches(long_form, batch_format="pandas"),
        "measure", "value",
        qs=((0.2, "b1"), (0.4, "b2"), (0.6, "b3"), (0.8, "b4")),
    )
    lut = {
        r["measure"]: np.array(
            [int(r["b1"]), int(r["b2"]), int(r["b3"]), int(r["b4"])],
            dtype=np.int64,
        )
        for _, r in bounds.iterrows()
    }
    bref = ray.put(lut)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        lu = ray.get(bref)
        out = df.copy()
        for m, col in zip(measures, ("r_score", "f_score", "m_score")):
            v = df[m].to_numpy(np.int64)
            s = np.ones(len(v), np.int64)
            for b in lu[m]:
                s += (v > b).astype(np.int64)
            out[col] = s
        out["rfm_code"] = (
            out["r_score"] * 100 + out["f_score"] * 10 + out["m_score"]
        )
        return out.astype("int64")

    return per_user.map_batches(score, batch_format="pandas")


def _skyline_2d(df: pd.DataFrame) -> pd.DataFrame:
    """Exact 2D max-max skyline of (cents, day) rows — survivors are
    rows not STRICTLY dominated (b >= a both dims, > in one).  Within
    an equal-cents group only the max-day rows can survive, and the
    group survives iff its dmax strictly exceeds every higher-cents
    group's dmax — one sort + one prefix max, fully vectorized."""
    if not len(df):
        return df
    d = df.sort_values(["cents", "day"], ascending=False)
    cents = d["cents"].to_numpy(np.int64)
    day = d["day"].to_numpy(np.int64)
    # first row of each cents group (sorted desc) holds the group dmax
    new_grp = np.r_[True, cents[1:] != cents[:-1]]
    grp_idx = np.cumsum(new_grp) - 1
    dmax = day[new_grp]                      # per group, in desc-cents order
    prev_best = np.r_[np.int64(-2**62),
                      np.maximum.accumulate(dmax)[:-1]]
    grp_alive = dmax > prev_best
    keep = grp_alive[grp_idx] & (day == dmax[grp_idx])
    return d[keep]


def orders_skyline(sf_dir: str) -> pd.DataFrame:
    """Pareto frontier of orders over (totalprice cents ↑, orderdate
    day ↑) — every order not strictly dominated by another that is
    >= in both dimensions and > in one.  The skyline operator's
    distributed form rests on a provable SUPERSET property: the global
    skyline is contained in the union of per-block local skylines
    (any global survivor survives its own block), and a 2D skyline of
    n random points is ~O(log n) rows, so per-block `_skyline_2d`
    partials stay tiny and one bounded driver-side final pass over
    blocks x skyline_size rows finishes exactly — the same
    head-superset argument as vocab_topk / source_topk_docs, applied
    to dominance instead of rank."""
    ds = _pq(sf_dir, "orders",
             ["o_orderkey", "o_orderdate", "o_totalprice"])

    def local(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame(
            {
                "o_orderkey": df["o_orderkey"].astype("int64"),
                "cents": np.round(
                    df["o_totalprice"].to_numpy() * 100.0
                ).astype("int64"),
                "day": df["o_orderdate"].to_numpy()
                .astype("datetime64[D]").astype("int64"),
            }
        )
        return _skyline_2d(d)

    parts = ds.map_batches(
        local, batch_format="pandas", batch_size=65536
    ).to_pandas()
    out = _skyline_2d(parts).astype("int64")
    return out.sort_values(
        ["cents", "day", "o_orderkey"], ascending=False
    ).reset_index(drop=True)


def daily_count_autocov(sf_dir: str) -> pd.DataFrame:
    """Integer-exact autocovariance of the per-type daily-count series
    at lags 1 and 7 — the seasonality/burstiness diagnostic next to
    daily_anomaly_days, sharing its float-free trick: the lag-k
    autocovariance numerator scaled by D^2 is
    ``sum_t (n_t*D - S) * (n_{t+k}*D - S)`` over the D-k adjacent day
    pairs (days are dense here; pairing is by day value, not row
    order), every term an int64 product.  Output per type:
    (event_type, n_days, acov1_d2, acov7_d2, var_d2) with var_d2 the
    lag-0 value — acov/var is the autocorrelation, left to the caller
    so the engine stays exact.  Same bounded (type, day) grid contract
    as daily_anomaly_days."""
    ds = _pq(sf_dir, "events", ["event_type", "ts"])
    _US_DAY = 86_400_000_000

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        g = (
            pd.DataFrame({"event_type": df["event_type"],
                          "day": us // _US_DAY})
            .groupby(["event_type", "day"], as_index=False)
            .size().rename(columns={"size": "n"})
        )
        return g.astype({"day": "int64", "n": "int64"})

    grid = (
        ds.map_batches(partial, batch_format="pandas", batch_size=65536)
        .repartition(16)
        .map_batches(
            lambda df: df.groupby(["event_type", "day"],
                                  as_index=False)["n"].sum(),
            batch_format="pandas",
        )
        .to_pandas()
        .groupby(["event_type", "day"], as_index=False)["n"].sum()
    )
    rows = []
    for et, g in grid.groupby("event_type"):
        g = g.sort_values("day")
        day = g["day"].to_numpy(np.int64)
        n = g["n"].to_numpy(np.int64)
        d = np.int64(len(n))
        s = n.sum()
        dev = n * d - s
        out = {"event_type": et, "n_days": int(d),
               "var_d2": int((dev * dev).sum())}
        for k, col in ((1, "acov1_d2"), (7, "acov7_d2")):
            # pair day t with day t+k BY VALUE (grid may have holes)
            pos = {dd: i for i, dd in enumerate(day)}
            idx = [(i, pos[dd + k]) for i, dd in enumerate(day)
                   if dd + k in pos]
            out[col] = int(sum(int(dev[i]) * int(dev[j])
                               for i, j in idx))
        rows.append(out)
    return (
        pd.DataFrame(rows)[
            ["event_type", "n_days", "var_d2", "acov1_d2", "acov7_d2"]
        ]
        .astype({"n_days": "int64", "var_d2": "int64",
                 "acov1_d2": "int64", "acov7_d2": "int64"})
        .sort_values("event_type").reset_index(drop=True)
    )


def zorder_layout_stats(sf_dir: str, n_shards: int = 32) -> pd.DataFrame:
    """Z-order (Morton) clustering-key diagnostics — the data-LAYOUT
    operator behind multi-dimensional pruning at 100 TB: interleave
    the low 8 bits of customer and order-day into a 16-bit Morton
    code, bucket by the top 4 code bits, and report per-bucket
    (n, min_code, max_code, n_customers).  A table rewritten in this
    key order serves 2-D range predicates (customer range x date
    range) from a bounded number of contiguous buckets; the stats
    quantify how balanced those buckets are.  Pure integer bit
    algebra, so the oracle is the same interleave written as 16
    div/mod terms.  Count/min/max partials tree-combine under the
    bounded-key contract (16 buckets); the DISTINCT-customer count
    routes (bucket, cust) pairs through one pair-hash exchange
    (per-shard dedup + per-bucket partial counts — disjoint pairs, so
    the 16 x n_shards partials sum exactly) rather than collecting
    pairs on the driver."""
    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    ds = _pq(sf_dir, "orders", ["o_custkey", "o_orderdate"])

    def _morton(df: pd.DataFrame):
        a = df["o_custkey"].to_numpy(np.int64) % 256
        b = (df["o_orderdate"].to_numpy().astype("datetime64[D]")
             .astype("int64")) % 256
        code = np.zeros(len(a), np.int64)
        for i in range(8):
            code |= ((a >> i) & 1) << (2 * i)
            code |= ((b >> i) & 1) << (2 * i + 1)
        return code

    def stat_partial(df: pd.DataFrame) -> pd.DataFrame:
        code = _morton(df)
        g = pd.DataFrame({"bucket": code >> 12, "code": code}).groupby(
            "bucket", as_index=False
        ).agg(n=("code", "size"), min_code=("code", "min"),
              max_code=("code", "max"))
        return g.astype("int64")

    stats = (
        ds.map_batches(stat_partial, batch_format="pandas",
                       batch_size=65536)
        .repartition(8)
        .map_batches(
            lambda df: df.groupby("bucket", as_index=False).agg(
                n=("n", "sum"), min_code=("min_code", "min"),
                max_code=("max_code", "max")),
            batch_format="pandas",
        )
        .to_pandas()
        .groupby("bucket", as_index=False)
        .agg(n=("n", "sum"), min_code=("min_code", "min"),
             max_code=("max_code", "max"))
    )

    def pair_partial(df: pd.DataFrame) -> pd.DataFrame:
        code = _morton(df)
        d = pd.DataFrame(
            {"bucket": code >> 12,
             "cust": df["o_custkey"].to_numpy(np.int64)}
        ).drop_duplicates()
        h = (d["bucket"].to_numpy(np.uint64) * np.uint64(1_000_003)
             + d["cust"].to_numpy(np.uint64))
        d["shard"] = (h % np.uint64(n_shards)).astype(np.int64)
        return d.astype("int64")

    def distinct_count(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {"bucket": pd.Series([], dtype="int64"),
                 "nc": pd.Series([], dtype="int64")}
            )
        g = df.drop_duplicates(["bucket", "cust"]).groupby(
            "bucket", as_index=False
        ).size().rename(columns={"size": "nc"})
        return g.astype("int64")

    cust = (
        hash_exchange(
            ds.map_batches(pair_partial, batch_format="pandas",
                           batch_size=65536),
            "shard", n_shards, distinct_count,
        )
        .to_pandas()
        .groupby("bucket", as_index=False)["nc"].sum()
        .rename(columns={"nc": "n_customers"})
    )
    out = stats.merge(cust, on="bucket").astype("int64")
    return out.sort_values("bucket").reset_index(drop=True)


def mad_by_type(sf_dir: str) -> pd.DataFrame:
    """Median absolute deviation — (event_type, median_cents,
    mad_cents), the robust scale estimator: two CHAINED exact
    selections (the composition the selection.py refactor enables).
    Stage 1 finds each type's exact median of value-cents; stage 2
    broadcasts the tiny median table and runs the SAME machinery over
    the DERIVED |cents - median| column — no group is materialized in
    either stage, and both order statistics are quantile_disc-exact
    in the integer cents domain (deviations are exact ints, stored as
    exactly-representable doubles for the histogram refinement)."""
    from tensorflow_ocr_ray.stages.selection import exact_group_quantiles

    ds = _pq(sf_dir, "events", ["event_type", "value"])

    def to_cents(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"event_type": df["event_type"],
             "cents": np.round(df["value"].to_numpy() * 100.0)
             .astype(np.int64).astype(np.float64)}
        )

    cents_ds = ds.map_batches(to_cents, batch_format="pandas",
                              batch_size=65536)
    med = exact_group_quantiles(
        cents_ds, "event_type", "cents", qs=((0.5, "median"),)
    )
    lut = {r["event_type"]: np.int64(r["median"])
           for _, r in med.iterrows()}
    mref = ray.put(lut)

    def deviations(df: pd.DataFrame) -> pd.DataFrame:
        lu = ray.get(mref)
        m = df["event_type"].map(lu).to_numpy(np.int64)
        c = np.round(df["value"].to_numpy() * 100.0).astype(np.int64)
        return pd.DataFrame(
            {"event_type": df["event_type"],
             "dev": np.abs(c - m).astype(np.float64)}
        )

    dev_ds = ds.map_batches(deviations, batch_format="pandas",
                            batch_size=65536)
    mad = exact_group_quantiles(
        dev_ds, "event_type", "dev", qs=((0.5, "mad"),)
    )
    out = med.merge(mad, on="event_type")
    out["median_cents"] = out["median"].astype(np.int64)
    out["mad_cents"] = out["mad"].astype(np.int64)
    return (
        out[["event_type", "median_cents", "mad_cents"]]
        .sort_values("event_type").reset_index(drop=True)
    )


def daily_cusum(sf_dir: str) -> pd.DataFrame:
    """CUSUM changepoint statistic over the per-type daily-count
    series — S_t = max(0, S_{t-1} + (n_t*D - S)), the sequential-state
    member of the anomaly family (daily_anomaly_days: pointwise;
    daily_count_autocov: second-order; this: accumulated drift).  The
    recursion has the classic closed form S_t = P_t - min(0,
    min_{j<=t} P_j) over the deviation prefix sums, so the engine is
    one vectorized cumsum + running-min per type over the bounded
    (type, day) grid — while the ORACLE keeps the recursion literal
    (WITH RECURSIVE stepping day by day), making the hash match a
    proof the closed form equals the recurrence on this data.  Pure
    int64 (deviations are D-scaled, no division)."""
    ds = _pq(sf_dir, "events", ["event_type", "ts"])
    _US_DAY = 86_400_000_000

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        g = (
            pd.DataFrame({"event_type": df["event_type"],
                          "day": us // _US_DAY})
            .groupby(["event_type", "day"], as_index=False)
            .size().rename(columns={"size": "n"})
        )
        return g.astype({"day": "int64", "n": "int64"})

    grid = (
        ds.map_batches(partial, batch_format="pandas", batch_size=65536)
        .repartition(16)
        .map_batches(
            lambda df: df.groupby(["event_type", "day"],
                                  as_index=False)["n"].sum(),
            batch_format="pandas",
        )
        .to_pandas()
        .groupby(["event_type", "day"], as_index=False)["n"].sum()
    )
    frames = []
    for et, g in grid.groupby("event_type"):
        g = g.sort_values("day")
        n = g["n"].to_numpy(np.int64)
        d = np.int64(len(n))
        dev = n * d - n.sum()
        p = np.cumsum(dev)
        runmin = np.minimum.accumulate(np.r_[np.int64(0), p])[1:]
        s = p - np.minimum(runmin, 0)
        frames.append(pd.DataFrame(
            {"event_type": et, "day": g["day"].to_numpy(np.int64),
             "cusum_d": s}
        ))
    return (
        pd.concat(frames, ignore_index=True)
        .astype({"day": "int64", "cusum_d": "int64"})
        .sort_values(["event_type", "day"]).reset_index(drop=True)
    )


def daily_ewma(sf_dir: str, num: int = 1, den: int = 4) -> pd.DataFrame:
    """Integer EWMA over per-type daily counts — S_1 = n_1,
    S_t = (num*n_t + (den-num)*S_{t-1}) // den (alpha = num/den with
    floor division, so the state stays int64 and the recursive-CTE
    oracle steps the identical recurrence).  The smoothing member of
    the time-series family (CUSUM: drift; autocov: correlation; this:
    level).  Unlike CUSUM there is no closed form under floor
    division — the engine runs the literal 30-step recursion per type
    over the bounded grid (driver-trivial; the grid never scales with
    corpus size)."""
    ds = _pq(sf_dir, "events", ["event_type", "ts"])
    _US_DAY = 86_400_000_000

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        g = (
            pd.DataFrame({"event_type": df["event_type"],
                          "day": us // _US_DAY})
            .groupby(["event_type", "day"], as_index=False)
            .size().rename(columns={"size": "n"})
        )
        return g.astype({"day": "int64", "n": "int64"})

    grid = (
        ds.map_batches(partial, batch_format="pandas", batch_size=65536)
        .repartition(16)
        .map_batches(
            lambda df: df.groupby(["event_type", "day"],
                                  as_index=False)["n"].sum(),
            batch_format="pandas",
        )
        .to_pandas()
        .groupby(["event_type", "day"], as_index=False)["n"].sum()
    )
    frames = []
    for et, g in grid.groupby("event_type"):
        g = g.sort_values("day")
        n = g["n"].to_numpy(np.int64)
        s = np.empty(len(n), np.int64)
        s[0] = n[0]
        for i in range(1, len(n)):
            s[i] = (num * n[i] + (den - num) * s[i - 1]) // den
        frames.append(pd.DataFrame(
            {"event_type": et, "day": g["day"].to_numpy(np.int64),
             "n": n, "ewma": s}
        ))
    return (
        pd.concat(frames, ignore_index=True)
        .astype({"day": "int64", "n": "int64", "ewma": "int64"})
        .sort_values(["event_type", "day"]).reset_index(drop=True)
    )


def _ensure_zorder_layout(sf_dir: str) -> str:
    """Build-once cache of the orders table REWRITTEN in Z-order: hive
    partitions ``zbucket=K`` for the top 4 Morton bits of
    (o_custkey % 256, order-day % 256) — the physical layout
    zorder_layout_stats diagnoses (``cache.build_once``)."""

    def add_key(df: pd.DataFrame) -> pd.DataFrame:
        a = df["o_custkey"].to_numpy(np.int64) % 256
        b = (df["o_orderdate"].to_numpy().astype("datetime64[D]")
             .astype("int64")) % 256
        code = np.zeros(len(a), np.int64)
        for i in range(8):
            code |= ((a >> i) & 1) << (2 * i)
            code |= ((b >> i) & 1) << (2 * i + 1)
        return pd.DataFrame(
            {"o_orderkey": df["o_orderkey"].astype("int64"),
             "cust_mod": a, "day_mod": b, "zbucket": code >> 12}
        )

    def build(tmp: str) -> None:
        _pq(sf_dir, "orders",
            ["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
            add_key, batch_format="pandas", batch_size=65536
        ).write_parquet(tmp, partition_cols=["zbucket"])

    return cache.build_once(cache.INDEX_ROOT, "zorder-{fp}", build,
                            source=(sf_dir, "orders"))


def zorder_pruned_scan(
    sf_dir: str, cust_lo: int = 32, cust_hi: int = 95,
    day_lo: int = 100, day_hi: int = 180,
) -> "rd.Dataset":
    """2-D range query served from the Z-ordered layout by READING ONLY
    the buckets whose Morton quadrant intersects the query rectangle —
    the pruning payoff zorder_layout_stats predicts, proven
    answer-preserving by the plain-filter oracle.  Bucket K packs bits
    (b7 b6 a7 a6) of (a = cust % 256, b = day % 256) as
    K = a6 | b6<<1 | a7<<2 | b7<<3, so each K covers the 64x64 cell
    [qa*64, qa*64+64) x [qb*64, qb*64+64); the driver intersects those
    cells with the query rectangle and hands Ray Data only the matching
    hive partitions (4 of 16 at the defaults).  The residual exact
    filter streams; output is lazy.  At 100 TB this is the difference
    between touching 1/4 of the table and all of it — with zero change
    to results."""
    import os

    idx = _ensure_zorder_layout(sf_dir)
    want = set()
    for qa in range(cust_lo >> 6, (cust_hi >> 6) + 1):
        for qb in range(day_lo >> 6, (day_hi >> 6) + 1):
            want.add((qa & 1) | ((qb & 1) << 1)
                     | ((qa >> 1) << 2) | ((qb >> 1) << 3))
    dirs = [
        os.path.join(idx, f"zbucket={k}", f)
        for k in sorted(want)
        if os.path.isdir(os.path.join(idx, f"zbucket={k}"))
        for f in sorted(os.listdir(os.path.join(idx, f"zbucket={k}")))
        if f.endswith(".parquet")
    ]
    if not dirs:
        return rd.from_pandas(pd.DataFrame(
            {"o_orderkey": pd.Series([], dtype="int64"),
             "cust_mod": pd.Series([], dtype="int64"),
             "day_mod": pd.Series([], dtype="int64")}))
    ds = rd.read_parquet(dirs, columns=["o_orderkey", "cust_mod",
                                        "day_mod"])

    def residual(df: pd.DataFrame) -> pd.DataFrame:
        keep = (df["cust_mod"].between(cust_lo, cust_hi)
                & df["day_mod"].between(day_lo, day_hi))
        return df.loc[keep, ["o_orderkey", "cust_mod", "day_mod"]].astype(
            "int64")

    return ds.map_batches(residual, batch_format="pandas",
                          batch_size=65536)


def equidepth_histogram(sf_dir: str, n_buckets: int = 8) -> pd.DataFrame:
    """Per-type EQUI-DEPTH histogram over exact value cents — the
    profiling structure query optimizers and skew planners consume
    (equi-WIDTH is price_histogram; this one places boundaries at the
    exact i/n order statistics so every bucket holds ~n/8 of the
    type's rows).  Boundaries come from the distributed
    histogram-refinement selection (``exact_group_quantiles`` — no
    group ever materializes); the tiny boundary table broadcasts into
    one streaming count/min/max pass, bucket = 1 + #boundaries
    strictly below (the RFM scoring rule), partials tree-combining
    under the bounded-key contract (|types| x n_buckets grid at any
    corpus size).  All integer cents, so the DuckDB oracle
    (quantile_disc CTE + comparison scoring) hash-matches."""
    from tensorflow_ocr_ray.stages.selection import exact_group_quantiles

    def to_cents(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": df["event_type"],
                "cents": np.round(df["value"].to_numpy() * 100.0)
                .astype(np.int64),
            }
        )

    def cents_ds():
        return _pq(sf_dir, "events", ["event_type", "value"]).map_batches(
            to_cents, batch_format="pandas", batch_size=65536
        )

    qs = tuple(
        (i / n_buckets, f"q{i}") for i in range(1, n_buckets)
    )
    bounds = exact_group_quantiles(cents_ds(), "event_type", "cents", qs)
    qcols = [f"q{i}" for i in range(1, n_buckets)]
    bmap = {
        r["event_type"]: np.asarray([r[c] for c in qcols], dtype=np.int64)
        for _, r in bounds.iterrows()
    }
    bref = ray.put(bmap)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        bm = ray.get(bref)
        out = []
        for t, g in df.groupby("event_type"):
            c = g["cents"].to_numpy(np.int64)
            b = bm[t]
            bucket = 1 + (c[:, None] > b[None, :]).sum(axis=1)
            gg = pd.DataFrame({"bucket": bucket, "cents": c}).groupby(
                "bucket", as_index=False
            ).agg(n=("cents", "size"), lo_cents=("cents", "min"),
                  hi_cents=("cents", "max"))
            gg.insert(0, "event_type", t)
            out.append(gg)
        return pd.concat(out, ignore_index=True) if out else pd.DataFrame(
            {"event_type": pd.Series([], dtype="object"),
             "bucket": pd.Series([], dtype="int64"),
             "n": pd.Series([], dtype="int64"),
             "lo_cents": pd.Series([], dtype="int64"),
             "hi_cents": pd.Series([], dtype="int64")})

    merged = (
        cents_ds()
        .map_batches(partial, batch_format="pandas", batch_size=65536)
        .repartition(8)
        .map_batches(
            lambda df: df.groupby(["event_type", "bucket"],
                                  as_index=False).agg(
                n=("n", "sum"), lo_cents=("lo_cents", "min"),
                hi_cents=("hi_cents", "max")),
            batch_format="pandas",
        )
        .to_pandas()
        .groupby(["event_type", "bucket"], as_index=False)
        .agg(n=("n", "sum"), lo_cents=("lo_cents", "min"),
             hi_cents=("hi_cents", "max"))
    )
    return (
        merged.astype({"bucket": "int64", "n": "int64",
                       "lo_cents": "int64", "hi_cents": "int64"})
        .sort_values(["event_type", "bucket"]).reset_index(drop=True)
    )


def orders_percent_rank(sf_dir: str, n_shards: int = 32) -> "rd.Dataset":
    """GLOBAL rank + percent-rank of every order by price cents WITHOUT
    a global sort — the distributed-ranking primitive: range-partition
    by exact quantile boundaries, rank locally, add broadcast offsets.

    1. 31 exact boundary order statistics via the histogram-refinement
       selection (no materialization);
    2. shard = #boundaries strictly below cents — equal cents always
       co-shard, so SQL ``rank()`` tie semantics (ties share the rank
       of the first) are computable locally;
    3. one bounded count pass gives each shard's row count; the
       driver's 32-entry exclusive prefix sum broadcasts back;
    4. one hash_exchange ranks in-shard (searchsorted on the sorted
       local values = 1 + #strictly-smaller) + shard offset.

    Wide data never converges on one node: the only driver state is
    32 boundaries + 32 counts.  pct_ppm = (rank-1)*1e6//(N-1), exact
    int64, so the window-function oracle hash-matches."""
    from tensorflow_ocr_ray.stages.exchange import hash_exchange
    from tensorflow_ocr_ray.stages.selection import exact_group_quantiles

    def to_cents(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "o_orderkey": df["o_orderkey"].astype("int64"),
                "cents": np.round(
                    df["o_totalprice"].to_numpy() * 100.0
                ).astype(np.int64),
                "grp": 0,
            }
        )

    def cents_ds():
        return _pq(sf_dir, "orders",
                   ["o_orderkey", "o_totalprice"]).map_batches(
            to_cents, batch_format="pandas", batch_size=65536
        )

    qs = tuple((i / n_shards, f"b{i}") for i in range(1, n_shards))
    bounds_df = exact_group_quantiles(cents_ds(), "grp", "cents", qs)
    bounds = np.sort(
        bounds_df.iloc[0][[f"b{i}" for i in range(1, n_shards)]]
        .to_numpy()
    ).astype(np.int64)
    bref = ray.put(bounds)

    def add_shard(df: pd.DataFrame) -> pd.DataFrame:
        b = ray.get(bref)
        c = df["cents"].to_numpy(np.int64)
        out = df[["o_orderkey", "cents"]].copy()
        # strictly-below count == searchsorted left on ascending bounds
        out["shard"] = np.searchsorted(b, c, side="left").astype(np.int64)
        return out

    # bounded count pass: 32-key partials tree-combine to the driver
    counts = (
        cents_ds()
        .map_batches(add_shard, batch_format="pandas", batch_size=65536)
        .map_batches(
            lambda df: df.groupby("shard", as_index=False).agg(
                n=("cents", "size")),
            batch_format="pandas",
        )
        .to_pandas()
        .groupby("shard")["n"].sum()
    )
    n_total = int(counts.sum())
    offs = np.zeros(n_shards, dtype=np.int64)
    for s, n in counts.items():
        offs[int(s)] = n
    offs = np.concatenate([[0], np.cumsum(offs)[:-1]])
    oref = ray.put(offs)

    def rank_shard(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {"o_orderkey": pd.Series([], dtype="int64"),
                 "rank": pd.Series([], dtype="int64"),
                 "pct_ppm": pd.Series([], dtype="int64")})
        off = ray.get(oref)[int(df["shard"].iloc[0])]
        c = df["cents"].to_numpy(np.int64)
        sorted_c = np.sort(c)
        rank = off + 1 + np.searchsorted(sorted_c, c, side="left")
        return pd.DataFrame(
            {
                "o_orderkey": df["o_orderkey"].to_numpy(np.int64),
                "rank": rank.astype(np.int64),
                "pct_ppm": ((rank - 1) * 1_000_000
                            // (n_total - 1)).astype(np.int64),
            }
        )

    return hash_exchange(
        cents_ds().map_batches(add_shard, batch_format="pandas",
                               batch_size=65536),
        "shard", n_shards, rank_shard,
    )


def join_cardinality_audit(sf_dir: str, n_shards: int = 64) -> pd.DataFrame:
    """Exact join-cardinality audit for orders ⋈ lineitem on orderkey —
    the optimizer diagnostic comparing the TRUE join size (sum over
    keys of c_o(k) * c_l(k)) against the textbook independence
    estimate |R||S| / max(V(R), V(S)).  Pre-join cardinality checks
    are how a 100-TB pipeline catches a fan-out join before paying for
    it.  Per-batch per-key count partials from BOTH sides ride one
    co-sharded key-hash exchange; each shard contributes (distinct
    keys, keys-in-both, Σ c_o·c_l) over ITS disjoint key range, so the
    driver sums exact bounded partials (n_shards rows).  All int64
    (headroom: per-key c_o*c_l and the row-count product must fit —
    at web scale swap the estimate to a pre-divided form).  Single-row
    output; the plain-SQL oracle hash-matches."""
    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    def o_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("o_orderkey", as_index=False).size()
        return pd.DataFrame(
            {"key": g["o_orderkey"].astype("int64"),
             "c_o": g["size"].astype("int64"), "c_l": 0,
             "shard": g["o_orderkey"].astype("int64") % n_shards})

    def l_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("l_orderkey", as_index=False).size()
        return pd.DataFrame(
            {"key": g["l_orderkey"].astype("int64"), "c_o": 0,
             "c_l": g["size"].astype("int64"),
             "shard": g["l_orderkey"].astype("int64") % n_shards})

    both = _pq(sf_dir, "orders", ["o_orderkey"]).map_batches(
        o_partial, batch_format="pandas", batch_size=65536
    ).union(
        _pq(sf_dir, "lineitem", ["l_orderkey"]).map_batches(
            l_partial, batch_format="pandas", batch_size=65536
        )
    )

    def shard_stats(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["n_o", "n_l", "v_o", "v_l", "v_both", "pairs"]
        if not len(df):
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in cols})
        g = df.groupby("key", as_index=False).agg(
            c_o=("c_o", "sum"), c_l=("c_l", "sum"))
        co = g["c_o"].to_numpy(np.int64)
        cl = g["c_l"].to_numpy(np.int64)
        return pd.DataFrame(
            {"n_o": [int(co.sum())], "n_l": [int(cl.sum())],
             "v_o": [int((co > 0).sum())], "v_l": [int((cl > 0).sum())],
             "v_both": [int(((co > 0) & (cl > 0)).sum())],
             "pairs": [int((co * cl).sum())]}).astype("int64")

    parts = hash_exchange(both, "shard", n_shards, shard_stats).to_pandas()
    t = parts.sum()
    n_o, n_l = int(t["n_o"]), int(t["n_l"])
    v_max = max(int(t["v_o"]), int(t["v_l"]), 1)
    return pd.DataFrame(
        {
            "n_orders": [n_o], "n_lineitem": [n_l],
            "v_orders": [int(t["v_o"])], "v_lineitem": [int(t["v_l"])],
            "v_both": [int(t["v_both"])],
            "actual_pairs": [int(t["pairs"])],
            "est_pairs": [n_o * n_l // v_max],
        }
    ).astype("int64")


def compaction_plan(sf_dir: str, target_rows: int = 5000) -> pd.DataFrame:
    """Compaction / OPTIMIZE planning — assign each day-partition of
    lineitem to a merge group of ~``target_rows`` rows by splitting the
    chronological cumulative size: group = exclusive-prefix-sum //
    target.  This is the maintenance pass a 100-TB table needs
    continuously (small-file compaction, clustering upkeep); the plan
    itself is tiny (one row per partition) while the INPUT statistics
    are corpus-sized — so day row counts tree-combine under the
    bounded-key contract (calendar grid) and only the bounded grid
    reaches the driver for the order-dependent prefix sum (the
    running_total day-partials precedent).  Exact integers; oracle =
    GROUP BY day + window cumsum, hash-matched."""
    ds = _pq(sf_dir, "lineitem", ["l_shipdate"])

    def day_partial(df: pd.DataFrame) -> pd.DataFrame:
        day = (df["l_shipdate"].to_numpy().astype("datetime64[D]")
               .astype("int64"))
        g = pd.DataFrame({"day": day}).groupby(
            "day", as_index=False).agg(n_rows=("day", "size"))
        return g.astype("int64")

    days = (
        ds.map_batches(day_partial, batch_format="pandas",
                       batch_size=65536)
        .repartition(8)
        .map_batches(
            lambda df: df.groupby("day", as_index=False)["n_rows"].sum(),
            batch_format="pandas",
        )
        .to_pandas()
        .groupby("day", as_index=False)["n_rows"].sum()
        .sort_values("day")
        .reset_index(drop=True)
    )
    csum = days["n_rows"].cumsum().shift(fill_value=0).to_numpy(np.int64)
    days["group_id"] = csum // target_rows
    return days.astype("int64")


def table_diff_audit(sf_dir: str, n_shards: int = 64) -> pd.DataFrame:
    """Snapshot diff (CDC audit) between two versions of the orders
    table — the change-summary a lakehouse emits between commits.  v2
    is a deterministic mutation of v1 (keys %97 deleted, surviving
    keys %31 get +1 cent, keys %41 re-appear shifted by 10^12 as
    inserts), derived in-stream from the same read so both snapshots
    stay corpus-sized pipelines, never driver frames.  Both sides tag
    and route ONE key-hash exchange; each shard classifies its
    disjoint keys (unchanged / modified / deleted / added) by
    comparing cents across sides and emits four bounded counts; the
    driver sums |shards| x 4 ints.  Exact integers; FULL OUTER JOIN
    oracle hash-matches."""
    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    base = _pq(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def v1(df: pd.DataFrame) -> pd.DataFrame:
        k = df["o_orderkey"].to_numpy(np.int64)
        c = np.round(df["o_totalprice"].to_numpy() * 100.0).astype(
            np.int64)
        return pd.DataFrame(
            {"key": k, "cents": c, "side": np.int64(0),
             "shard": k % n_shards})

    def v2(df: pd.DataFrame) -> pd.DataFrame:
        k = df["o_orderkey"].to_numpy(np.int64)
        c = np.round(df["o_totalprice"].to_numpy() * 100.0).astype(
            np.int64)
        keep = k % 97 != 0
        kk, cc = k[keep], c[keep]
        cc = cc + (kk % 31 == 0)
        add = k % 41 == 0
        ka = k[add] + 1_000_000_000_000
        ca = c[add]
        return pd.DataFrame(
            {"key": np.concatenate([kk, ka]),
             "cents": np.concatenate([cc, ca]),
             "side": np.int64(1),
             "shard": np.concatenate([kk, ka]) % n_shards})

    both = base.map_batches(v1, batch_format="pandas",
                            batch_size=65536).union(
        base.map_batches(v2, batch_format="pandas", batch_size=65536)
    )

    def classify(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["n_unchanged", "n_modified", "n_deleted", "n_added"]
        if not len(df):
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in cols})
        a = df[df["side"] == 0].set_index("key")["cents"]
        b = df[df["side"] == 1].set_index("key")["cents"]
        j = a.to_frame("c1").join(b.to_frame("c2"), how="outer")
        return pd.DataFrame(
            {"n_unchanged": [int((j["c1"] == j["c2"]).sum())],
             "n_modified": [int((j["c1"].notna() & j["c2"].notna()
                                 & (j["c1"] != j["c2"])).sum())],
             "n_deleted": [int(j["c2"].isna().sum())],
             "n_added": [int(j["c1"].isna().sum())]}).astype("int64")

    parts = hash_exchange(both, "shard", n_shards, classify).to_pandas()
    return parts.sum().to_frame().T.astype("int64")


def daily_holt(sf_dir: str, den: int = 4) -> pd.DataFrame:
    """Holt double-exponential smoothing (level + trend) over per-type
    daily counts — the trend member of the time-series family
    (daily_ewma smooths level only).  Integer recurrences with
    alpha = beta = 1/den:

        L_1 = n_1,  T_1 = 0
        L_t = (n_t + (den-1)*(L_{t-1} + T_{t-1})) / den
        T_t = ((L_t - L_{t-1}) + (den-1)*T_{t-1}) / den

    where ``/`` is TRUNCATING integer division (toward zero) — chosen
    because that is DuckDB's ``//`` semantics and the TREND GOES
    NEGATIVE (Python's floor ``//`` would diverge on those steps; the
    engine mirrors trunc with sign-aware division).  No closed form,
    so the engine steps the literal recursion over the bounded
    |types| x |days| grid (driver-trivial at any corpus size) and the
    oracle is the identical recursive CTE carrying both states."""
    ds = _pq(sf_dir, "events", ["event_type", "ts"])
    _US_DAY = 86_400_000_000

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        g = (
            pd.DataFrame({"event_type": df["event_type"],
                          "day": us // _US_DAY})
            .groupby(["event_type", "day"], as_index=False)
            .size().rename(columns={"size": "n"})
        )
        return g.astype({"day": "int64", "n": "int64"})

    grid = (
        ds.map_batches(partial, batch_format="pandas", batch_size=65536)
        .repartition(16)
        .map_batches(
            lambda df: df.groupby(["event_type", "day"],
                                  as_index=False)["n"].sum(),
            batch_format="pandas",
        )
        .to_pandas()
        .groupby(["event_type", "day"], as_index=False)["n"].sum()
    )

    def tdiv(a: int, b: int) -> int:
        """DuckDB // (truncation toward zero)."""
        q = abs(a) // b
        return q if a >= 0 else -q

    frames = []
    for et, g in grid.groupby("event_type"):
        g = g.sort_values("day")
        n = g["n"].to_numpy(np.int64)
        lvl = np.empty(len(n), np.int64)
        trd = np.empty(len(n), np.int64)
        lvl[0], trd[0] = n[0], 0
        for i in range(1, len(n)):
            lvl[i] = tdiv(int(n[i]) + (den - 1)
                          * (int(lvl[i - 1]) + int(trd[i - 1])), den)
            trd[i] = tdiv((int(lvl[i]) - int(lvl[i - 1]))
                          + (den - 1) * int(trd[i - 1]), den)
        frames.append(pd.DataFrame(
            {"event_type": et, "day": g["day"].to_numpy(np.int64),
             "n": n, "level": lvl, "trend": trd}
        ))
    return (
        pd.concat(frames, ignore_index=True)
        .astype({"day": "int64", "n": "int64", "level": "int64",
                 "trend": "int64"})
        .sort_values(["event_type", "day"]).reset_index(drop=True)
    )


def association_rules(
    sf_dir: str, min_count: int = 2, n_shards: int = 64
) -> "rd.Dataset":
    """Directed association rules over order baskets — the classic
    market-basket output (antecedent -> consequent, support,
    confidence, lift) a recommender derives from the co-occurrence
    matrix.  Exact integers: conf_ppm = co*1e6 // baskets(antecedent),
    lift_ppt = co*N*1000 // (baskets(a)*baskets(c)) with N = order
    count (int64 headroom documented; pre-divide N at web scale).

    Physical plan: the copurchase_pairs two-exchange shape (orderkey
    exchange -> vectorized all-pairs -> pair-hash exchange) for exact
    pair counts; per-part basket counts route their own part-hash
    exchange (per-shard (order,part) dedup is exact because a part's
    rows co-shard) and come back as a CATALOG-bounded table broadcast
    into the scoring pass — parts are a dimension, not a corpus."""
    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    li = _pq(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def by_part(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["l_orderkey", "l_partkey"])
        return pd.DataFrame(
            {"o": d["l_orderkey"].astype("int64"),
             "p": d["l_partkey"].astype("int64"),
             "shard": d["l_partkey"].to_numpy(np.int64) % n_shards})

    def part_baskets(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"p": pd.Series([], dtype="int64"),
                                 "nb": pd.Series([], dtype="int64")})
        g = (df.drop_duplicates(["o", "p"])
             .groupby("p", as_index=False).agg(nb=("o", "size")))
        return g.astype("int64")

    nb = hash_exchange(
        li.map_batches(by_part, batch_format="pandas",
                       batch_size=65536),
        "shard", n_shards, part_baskets,
    ).to_pandas()
    nb_map = dict(zip(nb["p"].astype(np.int64),
                      nb["nb"].astype(np.int64)))
    n_orders = int(_pq(sf_dir, "orders", ["o_orderkey"]).count())
    bref = ray.put((nb_map, n_orders))

    pairs = copurchase_pairs(sf_dir, min_count=min_count,
                             n_shards=n_shards)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["antecedent", "consequent", "co_count", "conf_ppm",
                "lift_ppt"]
        if not len(df):
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in cols})
        m, n = ray.get(bref)
        a = np.concatenate([df["p1"].to_numpy(np.int64),
                            df["p2"].to_numpy(np.int64)])
        c = np.concatenate([df["p2"].to_numpy(np.int64),
                            df["p1"].to_numpy(np.int64)])
        co = np.concatenate([df["co_count"].to_numpy(np.int64)] * 2)
        na = np.asarray([m[x] for x in a], dtype=np.int64)
        nc = np.asarray([m[x] for x in c], dtype=np.int64)
        return pd.DataFrame(
            {"antecedent": a, "consequent": c, "co_count": co,
             "conf_ppm": co * 1_000_000 // na,
             "lift_ppt": co * n * 1000 // (na * nc)}).astype("int64")

    return pairs.map_batches(score, batch_format="pandas",
                             batch_size=65536)


def orders_yoy_growth(sf_dir: str) -> pd.DataFrame:
    """Year-over-year monthly revenue growth — the BI staple: per
    calendar month, exact revenue cents plus the delta and growth rate
    vs the SAME month one year earlier.  Month pairs match BY VALUE
    (join on (y-1, m), robust to gaps — the daily_count_autocov
    lesson); growth_ppm = delta*1e6 / prev_cents under TRUNCATING
    division (DuckDB ``//`` semantics; deltas go negative, the
    daily_holt lesson).  Revenue partials tree-combine under the
    bounded calendar-grid contract; only the grid reaches the
    driver."""
    ds = _pq(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        dt = df["o_orderdate"].to_numpy().astype("datetime64[M]")
        y = (dt.astype("datetime64[Y]").astype("int64") + 1970)
        m = dt.astype("int64") % 12 + 1
        cents = np.round(
            df["o_totalprice"].to_numpy() * 100.0).astype(np.int64)
        g = pd.DataFrame({"year": y, "month": m, "cents": cents}).groupby(
            ["year", "month"], as_index=False)["cents"].sum()
        return g.astype("int64")

    grid = (
        ds.map_batches(partial, batch_format="pandas", batch_size=65536)
        .repartition(8)
        .map_batches(
            lambda df: df.groupby(["year", "month"],
                                  as_index=False)["cents"].sum(),
            batch_format="pandas",
        )
        .to_pandas()
        .groupby(["year", "month"], as_index=False)["cents"].sum()
    )
    prev = grid.rename(columns={"cents": "prev_cents"}).copy()
    prev["year"] = prev["year"] + 1
    out = grid.merge(prev, on=["year", "month"], how="inner")
    delta = (out["cents"] - out["prev_cents"]).to_numpy(np.int64)
    pc_ = out["prev_cents"].to_numpy(np.int64)
    q = np.abs(delta) * 1_000_000 // pc_
    out["delta_cents"] = delta
    out["growth_ppm"] = np.where(delta >= 0, q, -q)
    return (
        out.astype("int64")
        .sort_values(["year", "month"]).reset_index(drop=True)
    )


def ab_test_stats(sf_dir: str) -> pd.DataFrame:
    """Two-sample A/B significance test on purchase value — the
    experimentation primitive: users split deterministically into arms
    by the arithmetic hash ((1315423911*u) % 1000003) % 2 (SQL-
    reproducible, the CMS trick), per-arm (n, Σcents, Σcents²)
    partials tree-combine (6 ints — bounded-key), and the driver
    evaluates the z² > 4 criterion EXACTLY by cross-multiplying the
    division-free inequality

        (S_a·n_b − S_b·n_a)²·n_a·n_b  >  4·[(n_a·Q_a − S_a²)·n_b³
                                           + (n_b·Q_b − S_b²)·n_a³]

    in arbitrary-precision Python ints (the oracle mirrors it in
    HUGEINT — fits to ~1e38; at web scale pre-divide both sides).
    Single row: per-arm stats + the significance flag."""
    ds = _pq(sf_dir, "events", ["user_id", "event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df["event_type"] == "purchase"]
        u = d["user_id"].to_numpy(np.int64)
        arm = ((1315423911 * u) % 1000003) % 2
        c = np.round(d["value"].to_numpy() * 100.0).astype(np.int64)
        g = pd.DataFrame({"arm": arm, "n": 1, "s": c, "q": c * c}).groupby(
            "arm", as_index=False).sum()
        return g.astype("int64")

    s = (
        ds.map_batches(partial, batch_format="pandas", batch_size=65536)
        .to_pandas()
        .groupby("arm", as_index=False)
        .sum()
        .set_index("arm")
    )
    na, nb = int(s.loc[0, "n"]), int(s.loc[1, "n"])
    sa, sb = int(s.loc[0, "s"]), int(s.loc[1, "s"])
    qa, qb = int(s.loc[0, "q"]), int(s.loc[1, "q"])
    lhs = (sa * nb - sb * na) ** 2 * na * nb
    rhs = 4 * ((na * qa - sa * sa) * nb**3 + (nb * qb - sb * sb) * na**3)
    return pd.DataFrame(
        {"n_a": [na], "n_b": [nb], "sum_a_cents": [sa],
         "sum_b_cents": [sb],
         "significant": [1 if lhs > rhs else 0]}).astype("int64")


def value_outliers(sf_dir: str, k: int = 5) -> "rd.Dataset":
    """Robust per-row outlier flagging — events whose value deviates
    from their type's exact median by more than ``k`` MADs (the
    median/MAD pair from mad_by_type's chained exact selections).  The
    two-stage shape every robust cleaning pass uses at scale: the
    tiny (type, median, mad) table broadcasts and the corpus streams
    through one vectorized filter — no shuffle at all in the flagging
    pass.  Exact integers (dev_cents vs k*mad_cents), so the nested
    quantile_disc oracle hash-matches.  Output is lazy."""
    stats = mad_by_type(sf_dir)
    lut = {
        r["event_type"]: (np.int64(r["median_cents"]),
                          np.int64(r["mad_cents"]))
        for _, r in stats.iterrows()
    }
    sref = ray.put(lut)
    ds = _pq(sf_dir, "events", ["event_id", "event_type", "value"])

    def flag(df: pd.DataFrame) -> pd.DataFrame:
        lu = ray.get(sref)
        med = df["event_type"].map(lambda t: lu[t][0]).to_numpy(np.int64)
        mad = df["event_type"].map(lambda t: lu[t][1]).to_numpy(np.int64)
        c = np.round(df["value"].to_numpy() * 100.0).astype(np.int64)
        dev = np.abs(c - med)
        keep = dev > k * mad
        return pd.DataFrame(
            {"event_id": df["event_id"].to_numpy(np.int64)[keep],
             "event_type": df["event_type"].to_numpy()[keep],
             "cents": c[keep], "dev_cents": dev[keep]})

    return ds.map_batches(flag, batch_format="pandas", batch_size=65536)


def systematic_sample(sf_dir: str, k: int = 100) -> "rd.Dataset":
    """Systematic sampling by GLOBAL value order — every k-th order by
    price rank (rank % k == 1, SQL rank() tie semantics) — the
    order-representative sampling an audit pass wants, computed
    WITHOUT a global sort by composing the orders_percent_rank
    primitive (range-partition on exact quantile boundaries + in-shard
    rank + broadcast offsets) with a streaming filter.  Lazy output;
    rank()-window oracle hash-matches."""
    ranked = orders_percent_rank(sf_dir)

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        keep = df["rank"].to_numpy(np.int64) % k == 1
        return df.loc[keep, ["o_orderkey", "rank"]].astype("int64")

    return ranked.map_batches(pick, batch_format="pandas",
                              batch_size=65536)


def pareto_revenue_share(sf_dir: str, num: int = 4, den: int = 5,
                         n_bins: int = 1024,
                         collect_limit: int = 65536) -> pd.DataFrame:
    """The 80/20 concentration number: the smallest count of top
    customers (by exact revenue cents, ties by custkey) whose combined
    revenue first reaches ceil(num/den of total), plus the exact share
    they hold.  This is a WEIGHTED order statistic — the crossing is
    by revenue MASS, not row count — so the q16 histogram-refinement
    machinery doesn't apply directly; instead each refinement round
    histograms (count, mass) per revenue bin, the driver walks bins
    from the top to find the one containing the crossing, and when
    the crossing bin holds <= collect_limit customers their rows are
    collected and finished exactly.  Per-customer revenue comes from
    one cust-hash exchange; every pass over it is a bounded-histogram
    stream.  Output: (n_customers, k_customers, top_share_ppm) —
    single row, window-cumsum oracle."""
    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    n_shards = 64

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame(
            {"cust": df["o_custkey"].astype("int64"),
             "cents": np.round(df["o_totalprice"].to_numpy() * 100.0)
             .astype(np.int64)}
        ).groupby("cust", as_index=False)["cents"].sum()
        g["shard"] = g["cust"] % n_shards
        return g.astype("int64")

    def per_cust(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {"cust": pd.Series([], dtype="int64"),
                 "cents": pd.Series([], dtype="int64")})
        return df.groupby("cust", as_index=False)["cents"].sum()

    rev = hash_exchange(
        _pq(sf_dir, "orders", ["o_custkey", "o_totalprice"])
        .map_batches(partial, batch_format="pandas", batch_size=65536),
        "shard", n_shards, per_cust,
    ).materialize()  # skinny (cust, cents); re-read per refinement round

    tot = rev.map_batches(
        lambda df: pd.DataFrame(
            {"n": [len(df)], "s": [int(df["cents"].sum())],
             "lo": [int(df["cents"].min()) if len(df) else 0],
             "hi": [int(df["cents"].max()) if len(df) else 0]}),
        batch_format="pandas",
    ).to_pandas()
    n_customers = int(tot["n"].sum())
    total = int(tot["s"].sum())
    lo, hi = int(tot["lo"].min()), int(tot["hi"].max())
    target = (total * num + den - 1) // den  # ceil, positive-safe

    # refine: find the revenue level whose bin contains the MASS
    # crossing (count above + mass above from bins > b)
    above_n, above_mass = 0, 0
    while True:
        edges = np.linspace(lo, hi + 1, n_bins + 1)
        eref = ray.put(edges)

        def hist(df: pd.DataFrame) -> pd.DataFrame:
            e = ray.get(eref)
            c = df["cents"].to_numpy(np.int64)
            m = (c >= int(e[0])) & (c <= hi)
            c = c[m]
            b = np.clip(np.searchsorted(e, c, side="right") - 1,
                        0, n_bins - 1)
            g = pd.DataFrame({"b": b, "n": 1, "s": c}).groupby(
                "b", as_index=False).sum()
            return g.astype("int64")

        h = (
            rev.map_batches(hist, batch_format="pandas",
                            batch_size=65536)
            .to_pandas().groupby("b", as_index=False).sum()
            .sort_values("b", ascending=False)
        )
        # walk bins top-down to the crossing bin
        run_n, run_m = above_n, above_mass
        cross_b = None
        for _, r in h.iterrows():
            nm = run_m + int(r["s"])
            if nm >= target:
                cross_b = int(r["b"])
                break
            run_n += int(r["n"])
            run_m = nm
        assert cross_b is not None
        blo = int(np.ceil(edges[cross_b]))
        bhi = int(np.floor(min(edges[cross_b + 1] - 1e-9, hi)))
        bin_n = int(h.loc[h["b"] == cross_b, "n"].iloc[0])
        if bin_n <= collect_limit or blo >= bhi:
            above_n, above_mass = run_n, run_m
            lo, hi = blo, bhi
            break
        above_n, above_mass = run_n, run_m
        lo, hi = blo, bhi

    # exact finish: collect only the crossing bin's customers
    lo_f, hi_f = lo, hi

    def residual(df: pd.DataFrame) -> pd.DataFrame:
        c = df["cents"].to_numpy(np.int64)
        m = (c >= lo_f) & (c <= hi_f)
        return df.loc[m, ["cust", "cents"]]

    res = (
        rev.map_batches(residual, batch_format="pandas",
                        batch_size=65536)
        .to_pandas()
        .sort_values(["cents", "cust"], ascending=[False, True])
        .reset_index(drop=True)
    )
    csum = above_mass + res["cents"].cumsum()
    kk = int(np.searchsorted(csum.to_numpy(), target, side="left"))
    k_customers = above_n + kk + 1
    share_ppm = int(csum.iloc[kk]) * 1_000_000 // total
    return pd.DataFrame(
        {"n_customers": [n_customers], "k_customers": [k_customers],
         "top_share_ppm": [share_ppm]}).astype("int64")


def merge_upsert(sf_dir: str, n_shards: int = 64) -> "rd.Dataset":
    """MERGE INTO / upsert-apply — the CDC *apply* step next to
    ``table_diff_audit``'s *summary* step: apply a changelog of
    deletes / updates / inserts to a snapshot and emit the merged
    table (the Delta/Hudi/Iceberg upsert-compaction shape).

    The changelog is derived deterministically in-stream from the same
    orders read (no side files): keys %89 are DELETEd, surviving keys
    %37 get an UPDATE to cents+5, keys %43 spawn an INSERT at
    key+2*10^12 with cents+1.  Base rows and changelog rows tag an op
    code and route ONE key-hash exchange (insert rows hash their NEW
    key, deletes the key they kill, so every key's full history lands
    in one shard); each shard applies delete -> update-overwrite ->
    insert vectorized over its disjoint key range and emits its slice
    of the merged snapshot.  Output is corpus-sized, so the exchange's
    lazy Dataset is returned — never a driver frame.  Oracle: the
    set-algebra equivalent (anti-join deletes + CASE update + UNION
    inserts), hash-matched."""
    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    base = _pq(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        k = df["o_orderkey"].to_numpy(np.int64)
        c = np.round(df["o_totalprice"].to_numpy() * 100.0).astype(
            np.int64)
        # op -1: base snapshot rows
        frames = [pd.DataFrame({"key": k, "cents": c,
                                "op": np.int64(-1)})]
        del_m = k % 89 == 0
        frames.append(pd.DataFrame(
            {"key": k[del_m], "cents": np.int64(0), "op": np.int64(0)}))
        upd_m = (k % 37 == 0) & ~del_m
        frames.append(pd.DataFrame(
            {"key": k[upd_m], "cents": c[upd_m] + 5, "op": np.int64(1)}))
        ins_m = k % 43 == 0
        frames.append(pd.DataFrame(
            {"key": k[ins_m] + 2_000_000_000_000,
             "cents": c[ins_m] + 1, "op": np.int64(2)}))
        out = pd.concat(frames, ignore_index=True)
        out["shard"] = out["key"].to_numpy(np.int64) % n_shards
        return out.astype("int64")

    def apply_merge(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["key", "cents"]
        if not len(df):
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in cols})
        snap = df[df["op"] == -1][["key", "cents"]]
        dels = df.loc[df["op"] == 0, "key"]
        upds = df[df["op"] == 1].set_index("key")["cents"]
        ins = df[df["op"] == 2][["key", "cents"]]
        snap = snap[~snap["key"].isin(dels)]
        hit = snap["key"].map(upds)
        snap = snap.assign(cents=hit.fillna(snap["cents"]))
        return (pd.concat([snap, ins], ignore_index=True)
                .astype("int64"))

    tagged = base.map_batches(tag, batch_format="pandas",
                              batch_size=65536)
    return hash_exchange(tagged, "shard", n_shards, apply_merge)


def snapshot_time_travel(sf_dir: str, as_of: int = 2) -> "rd.Dataset":
    """Time-travel read — reconstruct the table AS OF version ``as_of``
    from a versioned changelog (the Iceberg/Delta ``VERSION AS OF``
    shape), next to ``merge_upsert``'s apply-latest step.

    The log reuses merge_upsert's derived changelog, split into
    sequential versions: v0 = base snapshot, v1 UPDATEs every key %37
    to cents+5, v2 DELETEs keys %89, v3 INSERTs key+2*10^12 at cents+1
    for keys %43.  Unlike merge_upsert (which applies delete-then-
    update, so a %37-and-%89 key never shows its update), time travel
    at ``as_of=1`` must SHOW that update — version order is data.

    Because every log op is KEY-LOCAL, replaying versions 0..as_of
    collapses to ONE map-only pass over the base read — no exchange,
    no materialized intermediate snapshots: each batch applies the
    version rules ≤ as_of to its own keys and emits
    (key, cents, version_written), where version_written is the LAST
    version that touched the row (the manifest attribution a real
    time-travel read carries).  A log with cross-key ops (renames,
    re-keys) would need merge_upsert's key-hash exchange instead —
    that's the seam, and it's documented, not hidden.  Output is
    corpus-sized: the lazy Dataset streams to a sink."""
    if as_of < 0 or as_of > 3:
        raise ValueError(f"as_of must be 0..3, got {as_of}")
    base = _pq(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def replay(df: pd.DataFrame) -> pd.DataFrame:
        k = df["o_orderkey"].to_numpy(np.int64)
        c = np.round(df["o_totalprice"].to_numpy() * 100.0).astype(
            np.int64)
        ver = np.zeros(len(k), dtype=np.int64)
        if as_of >= 1:
            upd = k % 37 == 0
            c = np.where(upd, c + 5, c)
            ver = np.where(upd, 1, ver)
        keep = np.ones(len(k), dtype=bool)
        if as_of >= 2:
            keep = k % 89 != 0
        frames = [pd.DataFrame(
            {"key": k[keep], "cents": c[keep],
             "version_written": ver[keep]})]
        if as_of >= 3:
            ins = k % 43 == 0
            base_c = np.round(
                df["o_totalprice"].to_numpy() * 100.0).astype(np.int64)
            frames.append(pd.DataFrame(
                {"key": k[ins] + 2_000_000_000_000,
                 "cents": base_c[ins] + 1,
                 "version_written": np.int64(3)}))
        return pd.concat(frames, ignore_index=True).astype("int64")

    return base.map_batches(replay, batch_format="pandas",
                            batch_size=65536)


def mv_delta_refresh(sf_dir: str) -> pd.DataFrame:
    """Incremental materialized-view maintenance — refresh a per-day
    revenue MV from a DELTA instead of a full recompute, and prove the
    merge equals the recompute (the oracle IS the full GROUP BY).

    The orders table splits in-stream into the stored base partition
    (o_orderkey %5 != 0) and a newly-arrived delta (%5 == 0).  Both
    sides reduce with per-batch (day -> n, cents) partials tree-
    combined under the bounded calendar-grid contract; the refresh is
    a driver-side outer-add of two bounded grids — the whole point of
    MV maintenance at 100 TB is that the delta pass touches only the
    delta and the merge touches only |days| rows, never the base
    corpus (here both sides derive from one read because the testdata
    has no second file, but the base aggregate would be the STORED MV
    in production)."""
    ds = _pq(sf_dir, "orders", ["o_orderkey", "o_orderdate",
                                "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        k = df["o_orderkey"].to_numpy(np.int64)
        day = (df["o_orderdate"].to_numpy().astype("datetime64[D]")
               .astype(np.int64))
        c = np.round(df["o_totalprice"].to_numpy() * 100.0).astype(
            np.int64)
        out = pd.DataFrame({"is_delta": (k % 5 == 0).astype(np.int64),
                            "day": day, "cents": c})
        g = out.groupby(["is_delta", "day"], as_index=False).agg(
            n_orders=("cents", "size"), revenue_cents=("cents", "sum"))
        return g.astype("int64")

    grids = (
        ds.map_batches(partial, batch_format="pandas", batch_size=65536)
        .repartition(8)
        .map_batches(
            lambda df: df.groupby(["is_delta", "day"], as_index=False)
            .agg(n_orders=("n_orders", "sum"),
                 revenue_cents=("revenue_cents", "sum")),
            batch_format="pandas",
        )
        .to_pandas()
        .groupby(["is_delta", "day"], as_index=False)
        .agg(n_orders=("n_orders", "sum"),
             revenue_cents=("revenue_cents", "sum"))
    )
    base = grids[grids["is_delta"] == 0].set_index("day")
    delta = grids[grids["is_delta"] == 1].set_index("day")
    merged = base[["n_orders", "revenue_cents"]].add(
        delta[["n_orders", "revenue_cents"]], fill_value=0)
    return (
        merged.reset_index().astype("int64")
        .sort_values("day").reset_index(drop=True)
        [["day", "n_orders", "revenue_cents"]]
    )


def key_skew_audit(sf_dir: str, n_shards: int = 64) -> pd.DataFrame:
    """Shuffle-planning skew diagnostic over the orders->customer join
    key — the pre-flight audit that decides salting / broadcast before
    a 100-TB shuffle: total rows, distinct keys, max per-key count,
    p50/p99 per-key counts (exact, quantile_disc semantics), the top
    key's row share (ppm) and max/mean ratio (e4).

    One count pass: per-batch (custkey, n) partials route a key-hash
    exchange (disjoint key ranges -> per-shard counts exact); each
    shard pre-reduces its exact per-key counts to a COUNT-OF-COUNTS
    histogram, so the driver merges |shards| x |distinct counts|
    bounded rows — the key space itself never reaches the driver, and
    the per-key-count distribution is exact at any corpus size.  The
    quantiles walk the merged histogram at ceil(q*n)-1 (the
    quantile_disc rule used across the repo's selection oracles)."""
    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    ds = _pq(sf_dir, "orders", ["o_custkey"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby("o_custkey", as_index=False).size()
             .rename(columns={"size": "n"}))
        g["shard"] = g["o_custkey"].to_numpy(np.int64) % n_shards
        return g.astype("int64")

    def hist(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["cnt", "n_keys"]
        if not len(df):
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in cols})
        per_key = df.groupby("o_custkey")["n"].sum()
        h = (per_key.value_counts().rename_axis("cnt")
             .reset_index(name="n_keys"))
        return h.astype("int64")

    parts = hash_exchange(
        ds.map_batches(partial, batch_format="pandas",
                       batch_size=65536),
        "shard", n_shards, hist,
    ).to_pandas()
    h = (parts.groupby("cnt", as_index=False)["n_keys"].sum()
         .sort_values("cnt").reset_index(drop=True))
    n_keys = int(h["n_keys"].sum())
    total_rows = int((h["cnt"] * h["n_keys"]).sum())
    max_count = int(h["cnt"].iloc[-1])

    def q_disc(q_num: int, q_den: int) -> int:
        # value at index ceil(q*n) - 1 of the sorted per-key counts
        idx = -(-q_num * n_keys // q_den) - 1
        csum = h["n_keys"].cumsum().to_numpy()
        return int(h["cnt"].iloc[int(np.searchsorted(csum, idx + 1))])

    return pd.DataFrame(
        {"total_rows": [total_rows], "n_keys": [n_keys],
         "max_count": [max_count],
         "p50_count": [q_disc(1, 2)], "p99_count": [q_disc(99, 100)],
         "top1_share_ppm": [max_count * 1_000_000 // total_rows],
         "skew_ratio_e4": [max_count * n_keys * 10_000 // total_rows]}
    ).astype("int64")


def salted_join_hot_keys(
    sf_dir: str,
    n_shards: int | None = None,
    n_salts: int = 8,
    hot_k: int = 8,
) -> "rd.Dataset":
    """Skew-salted fact-to-dim join: events ⋈ customer on
    ``user_id = c_custkey`` with the HOT fact keys salted — the
    explicit skew-handling plan the key_skew_audit exists to trigger.

    A plain key-hash exchange sends ALL of a hot key's rows to one
    shard: at 10^12 events a viral user (1% of traffic) makes one task
    hold 10^10 rows while its peers idle.  The salted plan:

    1. HOT-SET DETECTION (cheap, approximate, routing-only): per-batch
       (user_id, n) top-``hot_k`` partials merge on the driver
       (O(blocks × hot_k) rows) and the global top-``hot_k`` by summed
       partial count become the hot set H.  Approximation is FINE
       here — H only decides routing; the joined result is identical
       for ANY H (the oracle equality proves it), a missed hot key
       merely keeps its skew.
    2. FACT side: rows of hot keys take ``salt = event_id % n_salts``
       (deterministic, uniform) and route to shard
       ``(key * n_salts + salt) % n_shards`` — a hot key's volume
       spreads over ``n_salts`` tasks.  Cold keys route to
       ``key % n_shards`` unsalted.  Per-batch (user_id, salt)
       groupby pre-reduces before the exchange (partials stay exact:
       counts/sums ADD).
    3. DIM side: a hot key's customer row is REPLICATED to all
       ``n_salts`` salted shards (|H| × n_salts extra rows — bounded
       by construction); cold dim rows ship once.
    4. Per-shard vectorized merge joins partials to dim rows.  Cold
       keys are COMPLETE in their one shard and stream out lazily;
       hot keys emit ≤ n_salts partial rows each, combined in a
       driver finish over ≤ |H| × n_salts rows.

    Returns the lazy joined aggregate (user_id, c_mktsegment, events,
    value_cents) — one row per active user, corpus-cardinality, so it
    must stream to a sink at scale.  Cents-exact like q06."""
    from tensorflow_ocr_ray.stages.exchange import (
        adaptive_shards,
        hash_exchange,
        meta_rows,
    )

    if n_shards is None:
        n_shards = adaptive_shards(meta_rows(sf_dir, "events") // 4)
    ev = _pq(sf_dir, "events", ["event_id", "user_id", "value"])

    # -- pass 1: approximate hot set via per-block top-k count partials
    def count_topk(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby("user_id", as_index=False).size()
             .rename(columns={"size": "n"}))
        return g.sort_values(
            ["n", "user_id"], ascending=[False, True]
        ).head(hot_k).astype("int64")

    tops = ev.map_batches(
        count_topk, batch_format="pandas", batch_size=65536
    ).to_pandas()
    hot = (tops.groupby("user_id")["n"].sum()
           .sort_values(ascending=False).head(hot_k).index.to_numpy()
           .astype(np.int64))
    hot_ref = ray.put(np.sort(hot))

    def fact_partial(df: pd.DataFrame) -> pd.DataFrame:
        h = ray.get(hot_ref)
        uid = df["user_id"].to_numpy(np.int64)
        is_hot = np.isin(uid, h)
        salt = np.where(
            is_hot, df["event_id"].to_numpy(np.int64) % n_salts, 0
        )
        d = pd.DataFrame(
            {"user_id": uid, "salt": salt,
             "cents": np.round(
                 df["value"].to_numpy() * 100.0).astype("int64")}
        )
        g = d.groupby(["user_id", "salt"], as_index=False).agg(
            p_n=("cents", "size"), p_c=("cents", "sum"))
        guid = g["user_id"].to_numpy(np.int64)
        ghot = np.isin(guid, h)
        g["shard"] = np.where(
            ghot,
            (guid * n_salts + g["salt"].to_numpy(np.int64)) % n_shards,
            guid % n_shards)
        g["mkt"] = ""
        g["side"] = np.int64(0)
        return g[["user_id", "salt", "p_n", "p_c", "shard", "mkt",
                  "side"]]

    def dim_rows(df: pd.DataFrame) -> pd.DataFrame:
        h = ray.get(hot_ref)
        key = df["c_custkey"].to_numpy(np.int64)
        is_hot = np.isin(key, h)
        # cold: one row at shard key%n; hot: replicate to all salts
        reps = np.where(is_hot, n_salts, 1)
        ridx = np.repeat(np.arange(len(key)), reps)
        salt = np.concatenate(
            [np.arange(r, dtype=np.int64) for r in reps]
        ) if len(key) else np.array([], dtype=np.int64)
        rkey = key[ridx]
        rhot = is_hot[ridx]
        shard = np.where(
            rhot, (rkey * n_salts + salt) % n_shards, rkey % n_shards)
        return pd.DataFrame(
            {"user_id": rkey, "salt": salt,
             "p_n": np.int64(0), "p_c": np.int64(0), "shard": shard,
             "mkt": df["c_mktsegment"].to_numpy()[ridx],
             "side": np.int64(1)})

    cust = _pq(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    both = ev.map_batches(
        fact_partial, batch_format="pandas", batch_size=65536
    ).union(cust.map_batches(
        dim_rows, batch_format="pandas", batch_size=65536))

    hot_sorted = np.sort(hot)

    def merge_shard(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"user_id": "int64", "mkt": "object", "events": "int64",
                "value_cents": "int64", "is_hot": "int64"}
        if not len(df):
            return pd.DataFrame(
                {c: pd.Series([], dtype=t) for c, t in cols.items()})
        f = (df[df["side"] == 0]
             .groupby("user_id", as_index=False)
             .agg(events=("p_n", "sum"), value_cents=("p_c", "sum")))
        d = (df[df["side"] == 1]
             .drop_duplicates("user_id")[["user_id", "mkt"]])
        j = f.merge(d, on="user_id", how="inner")
        j["is_hot"] = np.isin(
            j["user_id"].to_numpy(np.int64), hot_sorted).astype("int64")
        return j[list(cols)].astype(
            {k: v for k, v in cols.items() if v == "int64"})

    out = hash_exchange(both, "shard", n_shards, merge_shard)

    def cold_only(df: pd.DataFrame) -> pd.DataFrame:
        c = df[df["is_hot"] == 0]
        return pd.DataFrame(
            {"user_id": c["user_id"].astype("int64"),
             "c_mktsegment": c["mkt"],
             "events": c["events"].astype("int64"),
             "value_cents": c["value_cents"].astype("int64")})

    def hot_only(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["is_hot"] == 1]

    cold = out.map_batches(cold_only, batch_format="pandas")
    # bounded driver finish: ≤ hot_k × n_salts partial rows
    hp = out.map_batches(hot_only, batch_format="pandas").to_pandas()
    if len(hp):
        hg = hp.groupby(["user_id", "mkt"], as_index=False).agg(
            events=("events", "sum"), value_cents=("value_cents", "sum"))
        hg = pd.DataFrame(
            {"user_id": hg["user_id"].astype("int64"),
             "c_mktsegment": hg["mkt"],
             "events": hg["events"].astype("int64"),
             "value_cents": hg["value_cents"].astype("int64")})
        return cold.union(rd.from_pandas(hg))
    return cold


SCD2_BASE_DAY = 9500
SCD2_STEP = 5
SCD2_SPAN = 600


def scd2_price_enrich(sf_dir: str) -> pd.DataFrame:
    """SCD2 (slowly-changing-dimension) enrichment — join each
    lineitem row to the part-price VERSION valid on its ship date, the
    temporal-dimension shape every warehouse runs (effective-dated
    prices, plans, org trees).  The dimension is derived from the part
    table: each part has 3 price versions; version v is valid in
    [T1+(v-1)*SPAN, T1+v*SPAN) with open ends, where T1 = BASE_DAY +
    (p_partkey % 200) * STEP, and version v's price is retail cents
    + v.

    The dimension is CATALOG-BOUNDED (it scales with parts, not with
    the fact table), so the right 100-TB plan is a broadcast interval
    join: the (partkey -> T1, cents, brand) arrays ship once via
    ``ray.put`` and every fact batch resolves its version with two
    vectorized comparisons and an O(1) array lookup — no shuffle
    touches the fact table; per-batch (brand, version) partials
    tree-combine under the bounded 25x3 grid.  Oracle: the same
    3-version dimension generated in SQL and range-joined, so the
    hash check proves the broadcast lookup IS the interval join."""
    import ray as _ray

    part = _pq(sf_dir, "part",
               ["p_partkey", "p_brand", "p_retailprice"]).to_pandas()
    pk = part["p_partkey"].to_numpy(np.int64)
    dim_t1 = np.zeros(int(pk.max()) + 1, np.int64)
    dim_cents = np.zeros(int(pk.max()) + 1, np.int64)
    dim_brand = np.empty(int(pk.max()) + 1, dtype=object)
    dim_t1[pk] = SCD2_BASE_DAY + (pk % 200) * SCD2_STEP
    dim_cents[pk] = np.round(
        part["p_retailprice"].to_numpy() * 100.0).astype(np.int64)
    dim_brand[pk] = part["p_brand"].to_numpy()
    dim_ref = _ray.put((dim_t1, dim_cents, dim_brand))

    fact = _pq(sf_dir, "lineitem",
               ["l_partkey", "l_shipdate", "l_quantity"])

    def enrich(df: pd.DataFrame) -> pd.DataFrame:
        t1, cents, brand = _ray.get(dim_ref)
        k = df["l_partkey"].to_numpy(np.int64)
        day = (df["l_shipdate"].to_numpy().astype("datetime64[D]")
               .astype(np.int64))
        ver = np.clip((day - t1[k]) // SCD2_SPAN + 1, 0, 2)
        q = df["l_quantity"].to_numpy(np.int64)
        out = pd.DataFrame(
            {"p_brand": brand[k], "version": ver,
             "eff_cents": (cents[k] + ver) * q})
        g = out.groupby(["p_brand", "version"], as_index=False).agg(
            n_items=("eff_cents", "size"),
            value_cents=("eff_cents", "sum"))
        return g.astype({"version": "int64", "n_items": "int64",
                         "value_cents": "int64"})

    return (
        fact.map_batches(enrich, batch_format="pandas",
                         batch_size=65536)
        .repartition(8)
        .map_batches(
            lambda df: df.groupby(["p_brand", "version"],
                                  as_index=False)
            .agg(n_items=("n_items", "sum"),
                 value_cents=("value_cents", "sum")),
            batch_format="pandas",
        )
        .to_pandas()
        .groupby(["p_brand", "version"], as_index=False)
        .agg(n_items=("n_items", "sum"),
             value_cents=("value_cents", "sum"))
        .astype({"version": "int64", "n_items": "int64",
                 "value_cents": "int64"})
        .sort_values(["p_brand", "version"]).reset_index(drop=True)
    )


def orders_sorted_export(sf_dir: str, n_parts: int = 16) -> pd.DataFrame:
    """External sort to storage — the ORDER BY ... write path at 100 TB:
    rewrite the orders table as ``n_parts`` GLOBALLY range-ordered
    parquet partitions (part k's every row <= part k+1's every row)
    without a global sort operator, and return the per-partition
    manifest (part_id, n_rows, min_cents, max_cents) that proves the
    order and makes the layout resumable.

    Plan (composing the orders_percent_rank primitives): exact
    equi-depth boundaries from the histogram-refinement selection;
    part = #boundaries strictly below cents (equal cents co-part, so
    parts never interleave); ONE hash exchange; each part task sorts
    its slice by (cents, o_orderkey) and writes its own
    ``part-K.parquet`` — a failed run publishes nothing and the next
    call rebuilds (``cache.build_once``); a repeat call RESUMES by reading the
    stored manifest, bit-identical.  The driver holds boundaries +
    the bounded manifest, never rows.  Oracle: the same quantile_disc
    boundaries and strictly-below partitioning re-derived in SQL,
    hash-matched; global order is asserted (min_k > max_{k-1})."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as papq

    from tensorflow_ocr_ray.stages.exchange import hash_exchange
    from tensorflow_ocr_ray.stages.selection import exact_group_quantiles

    def build(tmp: str) -> None:
        def to_cents(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {"o_orderkey": df["o_orderkey"].astype("int64"),
                 "cents": np.round(
                     df["o_totalprice"].to_numpy() * 100.0
                 ).astype(np.int64),
                 "grp": 0})

        def cents_ds():
            return _pq(sf_dir, "orders",
                       ["o_orderkey", "o_totalprice"]).map_batches(
                to_cents, batch_format="pandas", batch_size=65536)

        qs = tuple((i / n_parts, f"b{i}") for i in range(1, n_parts))
        bounds_df = exact_group_quantiles(cents_ds(), "grp", "cents", qs)
        bounds = np.sort(
            bounds_df.iloc[0][[f"b{i}" for i in range(1, n_parts)]]
            .to_numpy()).astype(np.int64)
        bref = ray.put(bounds)

        def add_part(df: pd.DataFrame) -> pd.DataFrame:
            b = ray.get(bref)
            out = df[["o_orderkey", "cents"]].copy()
            out["part"] = np.searchsorted(
                b, df["cents"].to_numpy(np.int64), side="left"
            ).astype(np.int64)
            return out

        def write_part(df: pd.DataFrame) -> pd.DataFrame:
            cols = ["part_id", "n_rows", "min_cents", "max_cents"]
            if not len(df):
                return pd.DataFrame({c: pd.Series([], dtype="int64")
                                     for c in cols})
            k = int(df["part"].iloc[0])
            s = df.sort_values(["cents", "o_orderkey"])
            papq.write_table(
                pa.table({"o_orderkey":
                          s["o_orderkey"].to_numpy(np.int64),
                          "cents": s["cents"].to_numpy(np.int64)}),
                os.path.join(tmp, f"part-{k:05d}.parquet"))
            return pd.DataFrame(
                {"part_id": [k], "n_rows": [len(s)],
                 "min_cents": [int(s["cents"].iloc[0])],
                 "max_cents": [int(s["cents"].iloc[-1])]}
            ).astype("int64")

        manifest = (
            hash_exchange(
                cents_ds().map_batches(add_part, batch_format="pandas",
                                       batch_size=65536),
                "part", n_parts, write_part)
            .to_pandas()
            .sort_values("part_id").reset_index(drop=True)
        )
        # global-order proof: partitions must not interleave
        assert (manifest["min_cents"].to_numpy()[1:]
                > manifest["max_cents"].to_numpy()[:-1]).all()
        papq.write_table(pa.Table.from_pandas(manifest),
                         os.path.join(tmp, "manifest.parquet"))

    d = cache.build_once(cache.EXPORT_ROOT, f"sorted-{{fp}}-{n_parts}", build,
                         source=(sf_dir, "orders"))
    return (papq.read_table(os.path.join(d, "manifest.parquet")).to_pandas()
            .astype("int64").sort_values("part_id")
            .reset_index(drop=True))


K_ANON_KS = (2, 5, 10)


def k_anonymity_audit(sf_dir: str) -> pd.DataFrame:
    """k-anonymity / re-identification risk audit over the orders
    table — the privacy gate a dataset release runs next to pii_scrub:
    treating (priority, status, order-month) as the quasi-identifier
    tuple, how many equivalence classes have fewer than k members, and
    how many rows sit in them, for k in {2, 5, 10}.

    The class grid is BOUNDED (|priorities| x |statuses| x |months|),
    so per-batch class-count partials tree-combine and the driver
    evaluates all k thresholds on the tiny grid — one corpus pass, no
    shuffle.  Oracle: GROUP BY + FILTER counts per unnested k,
    hash-matched."""
    ds = _pq(sf_dir, "orders",
             ["o_orderpriority", "o_orderstatus", "o_orderdate"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        day = (df["o_orderdate"].to_numpy().astype("datetime64[D]")
               .astype(np.int64))
        g = pd.DataFrame(
            {"prio": df["o_orderpriority"],
             "status": df["o_orderstatus"],
             "mo": day // 30}).groupby(
            ["prio", "status", "mo"], as_index=False).size().rename(
            columns={"size": "n"})
        return g.astype({"mo": "int64", "n": "int64"})

    grid = (
        ds.map_batches(partial, batch_format="pandas", batch_size=65536)
        .repartition(8)
        .map_batches(
            lambda df: df.groupby(["prio", "status", "mo"],
                                  as_index=False)["n"].sum(),
            batch_format="pandas")
        .to_pandas()
        .groupby(["prio", "status", "mo"], as_index=False)["n"].sum()
    )
    n = grid["n"].to_numpy(np.int64)
    rows = []
    for k in K_ANON_KS:
        below = n < k
        rows.append((k, len(n), int(below.sum()), int(n[below].sum())))
    return pd.DataFrame(
        rows, columns=["k", "n_groups", "n_groups_below",
                       "n_rows_at_risk"]).astype("int64")


def part_trending_decay(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Decayed trending ranking — "what's hot NOW": each lineitem row
    contributes 2^-weeks_ago to its part's score (half-life one week),
    computed EXACTLY as the fixed-point integer 2^(40 - weeks_ago)
    (contributions older than 40 weeks are exactly 0 — same rule in
    SQL; int64 headroom is ~2^23 rows per week at this scale — at
    10^12 rows split the sum into 32-bit limbs like
    corr_quantity_price does).  The decay anchor (max ship-week) comes from one streaming
    max pass; contributions are then ADDITIVE per row, so per-batch
    (part, score) partials tree-combine and only the CATALOG-BOUNDED
    score table reaches the driver for the top-k — the trending query
    never shuffles the fact table.  Emitted at 2^20 fixed point
    (score_fp20 = sum >> 20) so sub-unit decayed mass stays visible.
    Oracle: weekly GROUP BY + the same shift arithmetic + top-k,
    hash-matched."""
    ds = _pq(sf_dir, "lineitem", ["l_partkey", "l_shipdate"])

    def week_of(df: pd.DataFrame) -> np.ndarray:
        day = (df["l_shipdate"].to_numpy().astype("datetime64[D]")
               .astype(np.int64))
        return day // 7

    max_week = int(
        ds.map_batches(
            lambda df: pd.DataFrame({"w": [week_of(df).max()]}),
            batch_format="pandas", batch_size=65536)
        .max("w"))

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ago = (max_week - week_of(df)).astype(np.int64)
        capped = np.minimum(ago, np.int64(40))
        s = (np.int64(1) << (40 - capped)) * (ago <= 40)
        g = pd.DataFrame(
            {"part": df["l_partkey"].to_numpy(np.int64), "s": s}
        ).groupby("part", as_index=False)["s"].sum()
        return g.astype("int64")

    scores = (
        ds.map_batches(partial, batch_format="pandas", batch_size=65536)
        .repartition(8)
        .map_batches(
            lambda df: df.groupby("part", as_index=False)["s"].sum(),
            batch_format="pandas")
        .to_pandas()
        .groupby("part", as_index=False)["s"].sum()
    )
    scores["score_fp20"] = scores["s"].to_numpy(np.int64) >> 20
    top = scores.sort_values(["score_fp20", "part"],
                             ascending=[False, True]).head(k)
    return (top[["part", "score_fp20"]]
            .rename(columns={"part": "l_partkey"})
            .astype("int64").reset_index(drop=True))


def schema_evolution_read(sf_dir: str) -> pd.DataFrame:
    """Schema-evolution-on-read — the mixed-file-version reality of any
    long-lived lake table: v1 files were written before the ``channel``
    column existed, v2 files carry it; one logical read must serve
    both.  The two versions are synthesized once per corpus
    fingerprint (v1 = keys %3 == 0 with the OLD two-column schema,
    v2 = the rest with channel = key % 4), then read as separate
    Datasets, unified EXPLICITLY (v1 rows get the documented default
    channel = -1 — Ray Data, like any engine, will not guess a
    default) and unioned; per-channel (n_orders, revenue_cents)
    partials tree-combine.  Oracle derives the same channel rule
    arithmetically from the original table, hash-matched — proving
    the unified read loses nothing."""
    import os

    def build(tmp: str) -> None:
        def split(df: pd.DataFrame) -> pd.DataFrame:
            k = df["o_orderkey"].to_numpy(np.int64)
            c = np.round(df["o_totalprice"].to_numpy() * 100.0).astype(
                np.int64)
            return pd.DataFrame(
                {"o_orderkey": k, "cents": c, "is_v1": k % 3 == 0,
                 "channel": k % 4})

        rows = _pq(sf_dir, "orders",
                   ["o_orderkey", "o_totalprice"]).map_batches(
            split, batch_format="pandas", batch_size=65536)
        for name, is_v1, cols in (
                ("v1", True, ["o_orderkey", "cents"]),
                ("v2", False, ["o_orderkey", "cents", "channel"])):
            rows.map_batches(
                lambda t, v=is_v1, c=cols:
                    t.filter(pc.equal(t["is_v1"], v)).select(c),
                batch_format="pyarrow",
            ).write_parquet(os.path.join(tmp, name))

    d = cache.build_once(cache.EXPORT_ROOT, "schemaevo-{fp}", build,
                         source=(sf_dir, "orders"))

    unified = ["o_orderkey", "cents", "channel"]
    v1 = rd.read_parquet(os.path.join(d, "v1")).map_batches(
        lambda df: df.assign(channel=np.int64(-1))[unified],
        batch_format="pandas", batch_size=65536)
    v2 = rd.read_parquet(os.path.join(d, "v2")).map_batches(
        lambda df: df[unified].astype({"channel": "int64"}),
        batch_format="pandas", batch_size=65536)

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("channel", as_index=False).agg(
            n_orders=("cents", "size"), revenue_cents=("cents", "sum"))
        return g.astype("int64")

    return (
        v1.union(v2)
        .map_batches(agg, batch_format="pandas", batch_size=65536)
        .to_pandas()
        .groupby("channel", as_index=False)
        .agg(n_orders=("n_orders", "sum"),
             revenue_cents=("revenue_cents", "sum"))
        .astype("int64")
        .sort_values("channel").reset_index(drop=True)
    )


def data_quality_expectations(sf_dir: str,
                              n_shards: int = 32) -> pd.DataFrame:
    """Declarative data-contract validation — the dbt-test /
    expectations suite a pipeline gates a publish on: five checks over
    orders, each one corpus pass (fused where possible), each emitting
    (check, n_rows, n_violations, passed).  The suite deliberately
    contains expectations this corpus FAILS (accepted_values without
    'P', an orderdate upper bound) — the audit's job is to count
    violations, not to vacuously pass.

    Scale shapes: row-local checks (positive price, accepted values,
    date bound) fuse into ONE vectorized pass with bounded partials;
    referential integrity broadcasts the catalog-bounded customer key
    set via ``ray.put`` + sorted-array membership (no shuffle touches
    orders); uniqueness counts rows vs distinct keys through one
    key-hash exchange (disjoint ranges -> exact).  Oracle: one UNION
    ALL of the five SQL aggregates, hash-matched."""
    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    cust = _pq(sf_dir, "customer", ["c_custkey"]).to_pandas()
    ckeys = np.sort(cust["c_custkey"].to_numpy(np.int64))
    cref = ray.put(ckeys)

    ds = _pq(sf_dir, "orders",
             ["o_orderkey", "o_custkey", "o_totalprice",
              "o_orderstatus", "o_orderdate"])

    DAY_BOUND = 10957  # 2000-01-01 in days since epoch

    def rowlocal(df: pd.DataFrame) -> pd.DataFrame:
        keys = ray.get(cref)
        n = len(df)
        price_bad = int((df["o_totalprice"].to_numpy() <= 0).sum())
        status_bad = int(
            (~df["o_orderstatus"].isin(["O", "F"])).sum())
        day = (df["o_orderdate"].to_numpy().astype("datetime64[D]")
               .astype(np.int64))
        date_bad = int((day >= DAY_BOUND).sum())
        k = df["o_custkey"].to_numpy(np.int64)
        idx = np.searchsorted(keys, k)
        idx[idx == len(keys)] = 0
        ref_bad = int((keys[idx] != k).sum())
        return pd.DataFrame(
            {"check": ["price_positive", "status_accepted_values",
                       "orderdate_before_2000", "custkey_referential"],
             "n_rows": np.int64(n),
             "n_violations": np.array(
                 [price_bad, status_bad, date_bad, ref_bad],
                 dtype=np.int64)})

    rl = (
        ds.map_batches(rowlocal, batch_format="pandas",
                       batch_size=65536)
        .to_pandas()
        .groupby("check", as_index=False)
        .agg(n_rows=("n_rows", "sum"),
             n_violations=("n_violations", "sum"))
    )

    def key_partial(df: pd.DataFrame) -> pd.DataFrame:
        k = df["o_orderkey"].to_numpy(np.int64)
        return pd.DataFrame({"key": k, "shard": k % n_shards}).astype(
            "int64")

    def dup_count(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"n": [len(df)], "nd": [df["key"].nunique()]}
        ).astype("int64")

    uq = hash_exchange(
        ds.map_batches(key_partial, batch_format="pandas",
                       batch_size=65536),
        "shard", n_shards, dup_count).to_pandas().sum()
    rl = pd.concat(
        [rl, pd.DataFrame(
            {"check": ["orderkey_unique"], "n_rows": [int(uq["n"])],
             "n_violations": [int(uq["n"]) - int(uq["nd"])]})],
        ignore_index=True)
    rl["passed"] = (rl["n_violations"] == 0).astype(np.int64)
    return (rl.astype({"n_rows": "int64", "n_violations": "int64",
                       "passed": "int64"})
            .sort_values("check").reset_index(drop=True))


# Benford expected first-digit shares, ppm: round(log10(1 + 1/d) * 1e6)
# — precomputed constants injected into both engines (the LUT rule:
# spec tables as parameters, never transcendentals at query time)
BENFORD_PPM = (301030, 176091, 124939, 96910, 79181,
               66947, 57992, 51153, 45757)


def order_value_benford(sf_dir: str) -> pd.DataFrame:
    """Benford first-digit audit over order totals — the classic
    fabricated-data / unit-mixup screen a finance pipeline runs on
    ingest: the distribution of leading digits of o_totalprice (in
    cents) against Benford's law, with the absolute ppm deviation per
    digit.  One streaming pass: the leading digit is pure integer math
    (divide by 10 until < 10 — a fixed 18-step shift loop, vectorized
    over the batch), per-digit partials tree-combine under the
    9-row grid.  Synthetic uniform-ish prices will NOT follow Benford
    — the audit's job is to report the deviation, and the deviation
    IS the signal (hash-checked either way).  Oracle: string-slice
    first digit + the same ppm constants."""
    ds = _pq(sf_dir, "orders", ["o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        c = np.round(df["o_totalprice"].to_numpy() * 100.0).astype(
            np.int64)
        c = np.abs(c)
        c = c[c > 0]
        for _ in range(18):          # int64 max has 19 digits
            big = c >= 10
            if not big.any():
                break
            c = np.where(big, c // 10, c)
        g = (pd.DataFrame({"digit": c}).groupby("digit")
             .size().rename("n").reset_index())
        return g.astype("int64")

    grid = (
        ds.map_batches(partial, batch_format="pandas", batch_size=65536)
        .to_pandas()
        .groupby("digit", as_index=False)["n"].sum()
    )
    full = pd.DataFrame({"digit": np.arange(1, 10, dtype=np.int64)})
    grid = full.merge(grid, on="digit", how="left").fillna(0)
    total = int(grid["n"].sum())
    grid["share_ppm"] = (grid["n"].to_numpy(np.int64) * 1_000_000
                         // max(total, 1))
    grid["benford_ppm"] = np.array(BENFORD_PPM, dtype=np.int64)
    grid["abs_dev_ppm"] = np.abs(grid["share_ppm"]
                                 - grid["benford_ppm"])
    return grid.astype("int64").reset_index(drop=True)


SAMPLE_MOD = 16  # keep events whose md5-high-60(event_id) % 16 == 0


def sampled_event_counts(sf_dir: str) -> pd.DataFrame:
    """Sampling-based approximate aggregation with its error audit —
    the "answer from 1/16th of the data" mode an interactive layer
    offers, made reproducible: a DETERMINISTIC hash sample (crc32 of
    the event id, so the sample is a fixed property of the data, not
    of the run) feeds per-type Horvitz-Thompson scaled counts and
    cent sums, reported NEXT TO the exact pass so the error is
    measured, not guessed.  Both passes are one streaming aggregate
    over the bounded type grid; the sample pass reads 1/16th of the
    rows in expectation (at 100 TB the sample filter pushes into the
    scan).  All integers; oracle recomputes the same md5-high-60
    sample hash in one SQL expression (the hll/KMV convention),
    hash-matched."""
    import hashlib

    ds = _pq(sf_dir, "events", ["event_id", "event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        eid = df["event_id"].to_numpy(np.int64)
        h = np.fromiter(
            (int(hashlib.md5(str(int(e)).encode())
                 .hexdigest()[:15], 16) for e in eid),
            dtype=np.int64, count=len(eid))
        cents = np.round(df["value"].to_numpy() * 100.0).astype(
            np.int64)
        keep = h % SAMPLE_MOD == 0
        g = pd.DataFrame(
            {"event_type": df["event_type"], "cents": cents,
             "in_sample": keep.astype(np.int64)})
        out = g.groupby("event_type", as_index=False).agg(
            n_exact=("cents", "size"),
            cents_exact=("cents", "sum"),
            n_sample=("in_sample", "sum"))
        out["cents_sample"] = (
            g[g["in_sample"] == 1].groupby("event_type")["cents"]
            .sum().reindex(out["event_type"]).fillna(0)
            .to_numpy(np.int64))
        return out.astype({"n_exact": "int64", "cents_exact": "int64",
                           "n_sample": "int64",
                           "cents_sample": "int64"})

    g = (
        ds.map_batches(partial, batch_format="pandas", batch_size=65536)
        .to_pandas()
        .groupby("event_type", as_index=False)
        .agg(n_exact=("n_exact", "sum"),
             cents_exact=("cents_exact", "sum"),
             n_sample=("n_sample", "sum"),
             cents_sample=("cents_sample", "sum"))
    )
    g["n_est"] = g["n_sample"] * SAMPLE_MOD
    g["cents_est"] = g["cents_sample"] * SAMPLE_MOD
    g["n_err_ppm"] = (np.abs(g["n_est"] - g["n_exact"]) * 1_000_000
                      // np.maximum(g["n_exact"], 1))
    return (g[["event_type", "n_exact", "n_est", "cents_exact",
               "cents_est", "n_err_ppm"]]
            .astype({c: "int64" for c in
                     ("n_exact", "n_est", "cents_exact", "cents_est",
                      "n_err_ppm")})
            .sort_values("event_type").reset_index(drop=True))


def revenue_gini(sf_dir: str, n_shards: int = 32) -> pd.DataFrame:
    """Gini coefficient of customer revenue — the inequality single
    number next to pareto_revenue_share's 80/20 crossing, computed
    WITHOUT a global sort by composing the repo's distributed-ranking
    primitives: G = (2*sum(rank_i * x_i) - (n+1)*sum(x)) / (n*sum(x))
    over revenues sorted ascending with row_number semantics
    (deterministic (cents, cust) tiebreak).

    Plan: per-customer revenue via one cust-hash exchange (the pareto
    shape), materialized as the customer-dim skinny table; exact
    quantile boundaries (selection stage) range-partition it with
    ties co-sharded; each shard sorts locally and emits ONE partial
    (count, sum, sum of local_pos * cents, sum of cents for the
    offset correction) — sum(rank*x) = sum(pos*x) + offset *
    sum(x)_shard reassembles exactly from bounded per-shard rows.
    Driver reassembly + gini formula run in Python big ints (n*S and
    offset*sum overflow int64 past ~1e9 customers; SQL mirrors via
    HUGEINT).  The per-shard sum(pos*x) partial IS numpy int64: its
    headroom is local_n^2/2 * max_cents < 2^63, i.e. ~3e6 customers
    per shard at $10k revenues — raise n_shards to stay under it
    (shard size shrinks 1/n_shards; the driver side is exact at any
    n_shards).  Oracle: row_number window + the same integer formula,
    hash-matched."""
    from tensorflow_ocr_ray.stages.exchange import hash_exchange
    from tensorflow_ocr_ray.stages.selection import exact_group_quantiles

    base = _pq(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def rev_partial(df: pd.DataFrame) -> pd.DataFrame:
        c = np.round(df["o_totalprice"].to_numpy() * 100.0).astype(
            np.int64)
        g = pd.DataFrame({"cust": df["o_custkey"].astype("int64"),
                          "cents": c}).groupby(
            "cust", as_index=False)["cents"].sum()
        g["shard"] = g["cust"].to_numpy(np.int64) % n_shards
        return g.astype("int64")

    def rev_merge(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["cust", "cents", "grp"]
        if not len(df):
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in cols})
        g = df.groupby("cust", as_index=False)["cents"].sum()
        g["grp"] = np.int64(0)
        return g.astype("int64")

    rev = hash_exchange(
        base.map_batches(rev_partial, batch_format="pandas",
                         batch_size=65536),
        "shard", n_shards, rev_merge).materialize()

    qs = tuple((i / n_shards, f"b{i}") for i in range(1, n_shards))
    bounds_df = exact_group_quantiles(rev, "grp", "cents", qs)
    bounds = np.sort(
        bounds_df.iloc[0][[f"b{i}" for i in range(1, n_shards)]]
        .to_numpy()).astype(np.int64)
    bref = ray.put(bounds)

    def add_range(df: pd.DataFrame) -> pd.DataFrame:
        b = ray.get(bref)
        out = df[["cust", "cents"]].copy()
        out["rshard"] = np.searchsorted(
            b, df["cents"].to_numpy(np.int64), side="left"
        ).astype(np.int64)
        return out

    def shard_partial(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["rshard", "n", "s", "pos_x"]
        if not len(df):
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in cols})
        s = df.sort_values(["cents", "cust"]).reset_index(drop=True)
        x = s["cents"].to_numpy(np.int64)
        pos = np.arange(1, len(x) + 1, dtype=np.int64)
        return pd.DataFrame(
            {"rshard": [int(df["rshard"].iloc[0])], "n": [len(x)],
             "s": [int(x.sum())], "pos_x": [int((pos * x).sum())]}
        ).astype("int64")

    parts = (
        hash_exchange(
            rev.map_batches(add_range, batch_format="pandas",
                            batch_size=65536),
            "rshard", n_shards, shard_partial)
        .to_pandas().sort_values("rshard").reset_index(drop=True)
    )
    # rank_i = local_pos + exclusive prefix count of earlier shards
    offs = parts["n"].cumsum().shift(fill_value=0).astype("int64")
    n = int(parts["n"].sum())
    s_total = int(parts["s"].sum())
    # Python big-ints end to end: offs*s per shard overflows int64
    # past ~1e9 customers x cents, so the reassembly must not route
    # through a numpy product (bounded: one term per shard).
    sum_rank_x = sum(
        int(px) + int(o) * int(s)
        for px, o, s in zip(parts["pos_x"], offs, parts["s"]))
    gini_ppm = ((2 * sum_rank_x - (n + 1) * s_total) * 1_000_000
                // (n * s_total))
    return pd.DataFrame(
        {"n_customers": [n], "total_cents": [s_total],
         "gini_ppm": [gini_ppm]}).astype("int64")


def basket_size_hist(sf_dir: str, n_shards: int = 32) -> pd.DataFrame:
    """Histogram of basket sizes (distinct parts per order) — the
    distribution association_rules' support thresholds are tuned
    against, and the fan-out profile of the orders->lineitem join.
    Per-batch deduped (orderkey, partkey) partials route one
    orderkey-hash exchange (disjoint order ranges -> per-order
    distinct counts exact); each shard pre-reduces to a
    (basket_size -> n_orders) histogram, so the driver merges
    |shards| x |sizes| bounded rows — the order space never reaches
    it.  Oracle: two GROUP BYs, hash-matched."""
    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    ds = _pq(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df[["l_orderkey", "l_partkey"]].drop_duplicates()
        d = d.rename(columns={"l_orderkey": "k", "l_partkey": "p"})
        d["shard"] = d["k"].to_numpy(np.int64) % n_shards
        return d.astype("int64")

    def hist(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["basket_size", "n_orders"]
        if not len(df):
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in cols})
        per = df.drop_duplicates(["k", "p"]).groupby("k").size()
        h = (per.value_counts().rename_axis("basket_size")
             .reset_index(name="n_orders"))
        return h.astype("int64")

    parts = hash_exchange(
        ds.map_batches(partial, batch_format="pandas",
                       batch_size=65536),
        "shard", n_shards, hist).to_pandas()
    return (
        parts.groupby("basket_size", as_index=False)["n_orders"].sum()
        .astype("int64").sort_values("basket_size")
        .reset_index(drop=True)
    )
