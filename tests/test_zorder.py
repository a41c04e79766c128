"""zorder_pruned_scan: the pruned read must touch only the buckets whose
Morton quadrant intersects the query rectangle, and the answer must equal
a plain full-scan filter."""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

SF = "/root/testdata/sf0.001"


def _full_scan(cust_lo, cust_hi, day_lo, day_hi) -> pd.DataFrame:
    t = pq.read_table(
        f"{SF}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).to_pandas()
    a = t["o_custkey"].to_numpy(np.int64) % 256
    b = (t["o_orderdate"].to_numpy().astype("datetime64[D]")
         .astype("int64")) % 256
    keep = (a >= cust_lo) & (a <= cust_hi) & (b >= day_lo) & (b <= day_hi)
    return (
        pd.DataFrame({"o_orderkey": t["o_orderkey"].to_numpy(np.int64)[keep],
                      "cust_mod": a[keep], "day_mod": b[keep]})
        .sort_values("o_orderkey").reset_index(drop=True)
    )


def test_pruned_scan_equals_full_filter(ray_session):
    from tensorflow_ocr_ray.pipelines.relational import zorder_pruned_scan

    got = (
        zorder_pruned_scan(SF).to_pandas()
        .sort_values("o_orderkey").reset_index(drop=True)
    )
    exp = _full_scan(32, 95, 100, 180)
    pd.testing.assert_frame_equal(got, exp)


def test_prunes_to_intersecting_buckets_only(ray_session):
    from tensorflow_ocr_ray.pipelines.relational import (
        _ensure_zorder_layout,
        zorder_pruned_scan,
    )

    # defaults: qa in {0,1}, qb in {1,2} -> buckets {2, 3, 8, 9}
    idx = _ensure_zorder_layout(SF)
    built = {int(d.split("=")[1]) for d in os.listdir(idx)
             if d.startswith("zbucket=")}
    assert built and built <= set(range(16))  # only valid bucket codes
    # a rectangle inside one 64x64 cell must read exactly one bucket:
    # qa=0, qb=0 -> bucket 0; results still exact
    got = (
        zorder_pruned_scan(SF, 0, 63, 0, 63).to_pandas()
        .sort_values("o_orderkey").reset_index(drop=True)
    )
    exp = _full_scan(0, 63, 0, 63)
    pd.testing.assert_frame_equal(got, exp)
    assert len(got) > 0


def test_empty_rectangle_empty_result(ray_session):
    from tensorflow_ocr_ray.pipelines.relational import zorder_pruned_scan

    # day_mod range [255, 255] with cust range [255, 255] is a 1x1 cell
    got = zorder_pruned_scan(SF, 255, 255, 255, 255).to_pandas()
    exp = _full_scan(255, 255, 255, 255)
    assert len(got) == len(exp)


def test_percent_rank_shard_invariant(ray_session):
    """Global ranks must not depend on the range-partition count, and
    must equal the sequential rank() computation."""
    from tensorflow_ocr_ray.pipelines.relational import orders_percent_rank

    a = (orders_percent_rank(SF, n_shards=4).to_pandas()
         .sort_values("o_orderkey").reset_index(drop=True))
    b = (orders_percent_rank(SF, n_shards=32).to_pandas()
         .sort_values("o_orderkey").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)

    t = pq.read_table(f"{SF}/orders.parquet",
                      columns=["o_orderkey", "o_totalprice"]).to_pandas()
    cents = np.round(t["o_totalprice"].to_numpy() * 100.0).astype(np.int64)
    rank = pd.Series(cents).rank(method="min").astype(np.int64)
    exp = (
        pd.DataFrame({"o_orderkey": t["o_orderkey"].astype("int64"),
                      "rank": rank,
                      "pct_ppm": (rank - 1) * 1_000_000 // (len(cents) - 1)})
        .sort_values("o_orderkey").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, exp)


def test_interarrival_shard_invariant(ray_session):
    """Boundary stitching must make the gap multiset independent of the
    range-partition count."""
    from tensorflow_ocr_ray.pipelines.windows import interarrival_quantiles

    a = interarrival_quantiles(SF, n_shards=3)
    b = interarrival_quantiles(SF, n_shards=32)
    pd.testing.assert_frame_equal(a, b)


def test_pareto_refinement_multi_round(ray_session):
    """Tiny bins + collect limit force several refinement rounds; the
    answer must match the sequential cumsum reference exactly."""
    from tensorflow_ocr_ray.pipelines.relational import pareto_revenue_share

    got = pareto_revenue_share(SF, n_bins=4, collect_limit=8)
    one = pareto_revenue_share(SF)  # default single-round path
    pd.testing.assert_frame_equal(got, one)

    t = pq.read_table(f"{SF}/orders.parquet",
                      columns=["o_custkey", "o_totalprice"]).to_pandas()
    t["cents"] = np.round(t["o_totalprice"].to_numpy() * 100).astype(
        np.int64)
    r = t.groupby("o_custkey", as_index=False)["cents"].sum()
    r = r.sort_values(["cents", "o_custkey"],
                      ascending=[False, True]).reset_index(drop=True)
    total = int(r["cents"].sum())
    target = (total * 4 + 4) // 5
    csum = r["cents"].cumsum()
    k = int(np.searchsorted(csum.to_numpy(), target, side="left"))
    exp = pd.DataFrame(
        {"n_customers": [len(r)], "k_customers": [k + 1],
         "top_share_ppm": [int(csum.iloc[k]) * 1_000_000 // total]}
    ).astype("int64")
    pd.testing.assert_frame_equal(got, exp)


def test_sorted_export_resume_and_global_order(ray_session):
    """orders_sorted_export: the written partitions concatenate to the
    exact global sort order; a repeat call resumes from the stored
    manifest bit-identically."""
    import glob
    import os
    import time

    import numpy as np
    import pyarrow.parquet as papq

    from tensorflow_ocr_ray.pipelines.relational import (
        orders_sorted_export,
    )

    m1 = orders_sorted_export(SF)
    t0 = time.time()
    m2 = orders_sorted_export(SF)  # resume: manifest read-back only
    resume_sec = time.time() - t0
    assert m1.equals(m2)
    assert resume_sec < 2.0

    from tensorflow_ocr_ray.cache import table_fingerprint
    d = (f"/tmp/tensorflow_ocr_ray_exports/"
         f"sorted-{table_fingerprint(SF, 'orders')}-16")
    files = sorted(glob.glob(os.path.join(d, "part-*.parquet")))
    assert len(files) == len(m1)
    allc = []
    for f in files:
        c = papq.read_table(f).to_pandas()["cents"].to_numpy()
        assert (np.diff(c) >= 0).all()  # each partition sorted
        allc.append(c)
    flat = np.concatenate(allc)
    assert (np.diff(flat) >= 0).all()  # global order across parts
    import duckdb
    n = duckdb.sql(
        f"SELECT count(*) FROM read_parquet('{SF}/orders.parquet')"
    ).fetchone()[0]
    assert len(flat) == n == int(m1["n_rows"].sum())


def test_revenue_gini_shard_invariance(ray_session):
    """The row-number reassembly (local pos + exclusive count offsets)
    must be exact at any range fan-out."""
    from tensorflow_ocr_ray.pipelines.relational import revenue_gini

    a = revenue_gini(SF, n_shards=3)
    b = revenue_gini(SF, n_shards=32)
    assert a.equals(b)
    assert 0 < int(a["gini_ppm"].iloc[0]) < 1_000_000
