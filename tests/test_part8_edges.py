"""Edge cases for the part-8 operators: crafted corpora exercising
empty results, tie-breaks, boundary days and degenerate keys."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def _write(tmp_path, name, table):
    pq.write_table(table, str(tmp_path / f"{name}.parquet"))
    return str(tmp_path)


def test_merge_upsert_delete_all(ray_session, tmp_path):
    """Every key divisible by 89 -> the whole snapshot is deleted and
    nothing qualifies for insert; the merged table is EMPTY but typed."""
    keys = [89, 178, 267]  # none % 43 == 0 -> no inserts either
    sf = _write(tmp_path, "orders", pa.table(
        {"o_orderkey": pa.array(keys, pa.int64()),
         "o_totalprice": pa.array([10.0, 20.0, 30.0])}))
    from tensorflow_ocr_ray.pipelines.relational import merge_upsert

    out = merge_upsert(sf, n_shards=4).to_pandas()
    assert len(out) == 0


def test_merge_upsert_update_and_insert_same_key(ray_session, tmp_path):
    """A key divisible by both 37 and 43 (1591) is updated in place AND
    spawns an insert at key+2e12 — both must appear."""
    sf = _write(tmp_path, "orders", pa.table(
        {"o_orderkey": pa.array([1591, 2], pa.int64()),
         "o_totalprice": pa.array([10.0, 5.0])}))
    from tensorflow_ocr_ray.pipelines.relational import merge_upsert

    out = (merge_upsert(sf, n_shards=4).to_pandas()
           .sort_values("key").reset_index(drop=True))
    assert out["key"].tolist() == [2, 1591, 2_000_000_001_591]
    assert out["cents"].tolist() == [500, 1005, 1001]


def test_latest_event_snapshot_ts_tie(ray_session, tmp_path):
    """Equal timestamps: the larger event_id wins."""
    ts = pd.Timestamp("2024-01-01")
    sf = _write(tmp_path, "events", pa.table(
        {"event_id": pa.array([1, 2, 3], pa.int64()),
         "ts": pa.array([ts, ts, ts]),
         "user_id": pa.array([7, 7, 7], pa.int64()),
         "event_type": pa.array(["view", "view", "click"]),
         "value": pa.array([1.0, 2.0, 3.0])}))
    from tensorflow_ocr_ray.pipelines.windows import (
        latest_event_snapshot,
    )

    out = (latest_event_snapshot(sf, n_shards=2).to_pandas()
           .sort_values("event_type").reset_index(drop=True))
    assert out["event_id"].tolist() == [3, 2]  # click, view
    assert out["value_cents"].tolist() == [300, 200]


def test_late_event_audit_single_event(ray_session, tmp_path):
    """One event: it is its own watermark — zero behind, zero late."""
    sf = _write(tmp_path, "events", pa.table(
        {"event_id": pa.array([0], pa.int64()),
         "ts": pa.array([pd.Timestamp("2024-01-01")]),
         "event_type": pa.array(["view"])}))
    from tensorflow_ocr_ray.pipelines.windows import late_event_audit

    out = late_event_audit(sf, n_ranges=2)
    assert out["n_events"].tolist() == [1]
    assert out["n_late"].tolist() == [0]
    assert out["max_behind_us"].tolist() == [0]


def test_key_skew_audit_single_hot_key(ray_session, tmp_path):
    """Degenerate skew: one key owns every row."""
    sf = _write(tmp_path, "orders", pa.table(
        {"o_custkey": pa.array([5] * 100, pa.int64())}))
    from tensorflow_ocr_ray.pipelines.relational import key_skew_audit

    out = key_skew_audit(sf, n_shards=4)
    assert out["n_keys"].tolist() == [1]
    assert out["max_count"].tolist() == [100]
    assert out["p99_count"].tolist() == [100]
    assert out["top1_share_ppm"].tolist() == [1_000_000]
    assert out["skew_ratio_e4"].tolist() == [10_000]


def test_scd2_version_boundary(ray_session, tmp_path):
    """Ship day exactly at T1 belongs to version 1 (closed lower
    bound), T1 - 1 to version 0, T1 + SPAN to version 2."""
    from tensorflow_ocr_ray.pipelines.relational import (
        SCD2_BASE_DAY,
        SCD2_SPAN,
        SCD2_STEP,
        scd2_price_enrich,
    )

    pk = 3
    t1 = SCD2_BASE_DAY + (pk % 200) * SCD2_STEP
    days = [t1 - 1, t1, t1 + SCD2_SPAN - 1, t1 + SCD2_SPAN]
    dates = pd.to_datetime(np.array(days, "datetime64[D]"))
    tmp = tmp_path
    pq.write_table(pa.table(
        {"p_partkey": pa.array([pk], pa.int64()),
         "p_brand": pa.array(["B#1"]),
         "p_retailprice": pa.array([10.0])}), str(tmp / "part.parquet"))
    pq.write_table(pa.table(
        {"l_partkey": pa.array([pk] * 4, pa.int64()),
         "l_shipdate": pa.array(dates),
         "l_quantity": pa.array([1, 1, 1, 1], pa.int64())}),
        str(tmp / "lineitem.parquet"))
    out = scd2_price_enrich(str(tmp))
    # versions hit: 0 (t1-1), 1 (t1, t1+SPAN-1), 2 (t1+SPAN)
    assert out["version"].tolist() == [0, 1, 2]
    assert out["n_items"].tolist() == [1, 2, 1]
    assert out["value_cents"].tolist() == [1000, 2 * 1001, 1002]


def test_hll_empty_table(ray_session, tmp_path):
    """Empty orders: all registers zero, linear counting collapses to
    0, exact count 0."""
    sf = _write(tmp_path, "orders", pa.table(
        {"o_custkey": pa.array([], pa.int64())}))
    from tensorflow_ocr_ray.pipelines.sketches import (
        HLL_M,
        hll_distinct,
    )

    out = hll_distinct(sf)
    regs = out[out["bucket"] >= 0]
    assert len(regs) == HLL_M and (regs["register"] == 0).all()
    assert out.loc[out["bucket"] == -2, "register"].tolist() == [0]
    assert out.loc[out["bucket"] == -3, "register"].tolist() == [0]


def test_graph_modularity_empty_table(ray_session, tmp_path):
    """Empty documents: zero edges -> Q undefined; the typed summary
    row (label=-1, all zeros) comes back instead of ZeroDivisionError."""
    sf = _write(tmp_path, "documents", pa.table(
        {"doc_id": pa.array([], pa.int64())}))
    from tensorflow_ocr_ray.pipelines.graph import graph_modularity

    out = graph_modularity(sf, n_shards=4)
    assert out["label"].tolist() == [-1]
    assert out["n_edges"].tolist() == [0]
    assert out["degree_sum"].tolist() == [0]
    assert out["q_contrib_num"].tolist() == [0]


def test_late_event_audit_empty_table(ray_session, tmp_path):
    """Empty events: Dataset.max returns None; the audit returns the
    typed empty frame instead of TypeError."""
    sf = _write(tmp_path, "events", pa.table(
        {"event_id": pa.array([], pa.int64()),
         "ts": pa.array([], pa.timestamp("us")),
         "event_type": pa.array([], pa.string())}))
    from tensorflow_ocr_ray.pipelines.windows import late_event_audit

    out = late_event_audit(sf)
    assert len(out) == 0
    assert list(out.columns) == ["event_type", "n_events", "n_late",
                                 "max_behind_us"]
    assert str(out["n_events"].dtype) == "int64"


def test_revenue_gini_bigint_reassembly(ray_session, tmp_path):
    """Crafted revenues verify the rank reassembly against a direct
    big-int computation (the driver-side sum must run in Python ints
    — numpy int64 would wrap past ~1e9 customers x cents)."""
    rng = np.random.RandomState(7)
    cust = np.arange(1, 201, dtype=np.int64)
    price = rng.randint(1, 10_000_00, size=200) / 100.0
    sf = _write(tmp_path, "orders", pa.table(
        {"o_custkey": pa.array(cust),
         "o_totalprice": pa.array(np.round(price, 2))}))
    from tensorflow_ocr_ray.pipelines.relational import revenue_gini

    out = revenue_gini(sf, n_shards=4)
    cents = np.round(np.round(price, 2) * 100.0).astype(np.int64)
    x = np.sort(cents)
    n, s = len(x), int(x.sum())
    sum_rank_x = sum((i + 1) * int(v) for i, v in enumerate(x))
    want = (2 * sum_rank_x - (n + 1) * s) * 1_000_000 // (n * s)
    assert out["n_customers"].tolist() == [n]
    assert out["total_cents"].tolist() == [s]
    assert out["gini_ppm"].tolist() == [want]


def test_salted_join_one_viral_user(ray_session, tmp_path):
    """A crafted corpus with ONE viral user (80% of events) plus a
    handful of cold users: the salted plan must (a) detect the hot key,
    (b) split its rows across salts and recombine EXACTLY (counts and
    cents add across partials), and (c) leave a user with no customer
    row out of the inner join."""
    n_hot = 400
    ev = pa.table({
        "event_id": pa.array(range(n_hot + 5), pa.int64()),
        "user_id": pa.array([7] * n_hot + [1, 2, 3, 2, 99], pa.int64()),
        "value": pa.array([0.25] * n_hot + [1.0, 2.0, 3.0, 4.0, 5.0]),
    })
    cust = pa.table({
        "c_custkey": pa.array([1, 2, 3, 7], pa.int64()),
        "c_mktsegment": pa.array(["A", "B", "C", "VIRAL"]),
    })  # user 99 has NO dim row -> dropped by the inner join
    pq.write_table(ev, str(tmp_path / "events.parquet"))
    pq.write_table(cust, str(tmp_path / "customer.parquet"))
    from tensorflow_ocr_ray.pipelines.relational import (
        salted_join_hot_keys,
    )

    out = (salted_join_hot_keys(str(tmp_path), n_shards=4, n_salts=4,
                                hot_k=2)
           .to_pandas().sort_values("user_id").reset_index(drop=True))
    assert out["user_id"].tolist() == [1, 2, 3, 7]
    assert out["events"].tolist() == [1, 2, 1, n_hot]
    assert out["value_cents"].tolist() == [100, 600, 300, n_hot * 25]
    assert out["c_mktsegment"].tolist() == ["A", "B", "C", "VIRAL"]


def test_semdedup_planted_duplicates(ray_session, tmp_path):
    """Embeddings with two planted EXACT duplicate groups in distinct
    regions of the space: each group keeps only its smallest vec_id;
    isolated vectors all keep.  k=2 so the two regions become the two
    clusters (init = vec 0/1, one per region)."""
    base_a = [10.0] * 8
    base_b = [-10.0] * 8
    rows = [
        (0, base_a), (1, base_b),          # init centroids, regions A/B
        (2, base_a), (3, base_a),          # exact dups of 0
        (4, base_b),                       # exact dup of 1
        (5, [10.0] * 4 + [-10.0] * 4),     # isolated (far from both dups)
    ]
    emb = pa.table({
        "vec_id": pa.array([r[0] for r in rows], pa.int64()),
        "embedding": pa.array([r[1] for r in rows],
                              pa.list_(pa.float32())),
        "label": pa.array([0] * len(rows), pa.int32()),
    })
    pq.write_table(emb, str(tmp_path / "embeddings.parquet"))
    from tensorflow_ocr_ray.pipelines.similarity import semdedup_prune

    out = (semdedup_prune(str(tmp_path), k=2, iters=1, dist_le=0)
           .to_pandas().sort_values("vec_id").reset_index(drop=True))
    assert out["keep"].tolist() == [1, 1, 0, 0, 0, 1]


def test_snapshot_time_travel_version_semantics(ray_session, tmp_path):
    """Version order is data: key 3293 (37*89) shows its v1 update at
    as_of=1 but is GONE at as_of=2; inserts only appear at as_of=3;
    as_of=0 is the untouched base.  Key 3827 (43*89) is deleted at v2,
    yet its v3 insert (key + 2*10^12, base cents + 1) still appears:
    an insert after a delete is not swallowed by it."""
    keys = [3293, 37, 89, 43, 2, 3827]
    sf = _write(tmp_path, "orders", pa.table(
        {"o_orderkey": pa.array(keys, pa.int64()),
         "o_totalprice": pa.array([10.0, 20.0, 30.0, 40.0, 50.0, 60.0])}))
    from tensorflow_ocr_ray.pipelines.relational import (
        snapshot_time_travel,
    )

    def state(v):
        df = (snapshot_time_travel(sf, as_of=v).to_pandas()
              .sort_values("key").reset_index(drop=True))
        return list(map(tuple, df.itertuples(index=False)))

    assert state(0) == [(2, 5000, 0), (37, 2000, 0), (43, 4000, 0),
                        (89, 3000, 0), (3293, 1000, 0), (3827, 6000, 0)]
    assert state(1) == [(2, 5000, 0), (37, 2005, 1), (43, 4000, 0),
                        (89, 3000, 0), (3293, 1005, 1), (3827, 6000, 0)]
    assert state(2) == [(2, 5000, 0), (37, 2005, 1), (43, 4000, 0)]
    assert state(3) == [(2, 5000, 0), (37, 2005, 1), (43, 4000, 0),
                        (2_000_000_000_043, 4001, 3),
                        (2_000_000_003_827, 6001, 3)]


def test_salted_join_random_frames(ray_session, tmp_path):
    """Salted plan == plain pandas join+aggregate on a batch of random
    skewed frames (varied salts/shards/hot_k, including hot_k larger
    than the key space and single-shard routing)."""
    rng = np.random.RandomState(7)
    from tensorflow_ocr_ray.pipelines.relational import (
        salted_join_hot_keys,
    )

    for trial, (ns, nsalt, hk) in enumerate(
            [(1, 2, 1), (3, 4, 16), (5, 2, 2)]):
        d = tmp_path / f"t{trial}"
        d.mkdir()
        n = int(rng.randint(20, 120))
        uid = rng.choice([1, 2, 3, 7, 9], size=n,
                         p=[0.6, 0.1, 0.1, 0.1, 0.1])
        val = np.round(rng.uniform(0, 50, size=n), 2)
        pq.write_table(pa.table(
            {"event_id": pa.array(range(n), pa.int64()),
             "user_id": pa.array(uid, pa.int64()),
             "value": pa.array(val)}), str(d / "events.parquet"))
        keys = [1, 2, 3, 9]  # 7 intentionally missing from the dim
        pq.write_table(pa.table(
            {"c_custkey": pa.array(keys, pa.int64()),
             "c_mktsegment": pa.array([f"S{k}" for k in keys])}),
            str(d / "customer.parquet"))
        got = (salted_join_hot_keys(str(d), n_shards=ns, n_salts=nsalt,
                                    hot_k=hk)
               .to_pandas().sort_values("user_id")
               .reset_index(drop=True))
        ev = pd.DataFrame({"user_id": uid,
                           "cents": np.round(val * 100).astype("int64")})
        ev = ev[ev["user_id"].isin(keys)]
        exp = (ev.groupby("user_id", as_index=False)
               .agg(events=("cents", "size"),
                    value_cents=("cents", "sum")))
        exp["c_mktsegment"] = exp["user_id"].map(
            {k: f"S{k}" for k in keys})
        exp = exp[["user_id", "c_mktsegment", "events",
                   "value_cents"]].astype(
            {"user_id": "int64", "events": "int64",
             "value_cents": "int64"})
        assert got.equals(exp.reset_index(drop=True)), trial
