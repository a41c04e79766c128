"""hash_exchange == groupby(shard).map_groups for every fn shape the
repo routes through it, including empty shards and chained exchanges."""

import numpy as np
import pandas as pd


def _mk(n=5000, n_shards=16, seed=3):
    rng = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "shard": rng.integers(0, n_shards, n),
            "k": rng.integers(0, 40, n),
            "v": rng.integers(-100, 100, n),
        }
    ).astype("int64")


def test_hash_exchange_matches_groupby(ray_session):
    import ray.data as rd
    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    df = _mk()
    n_shards = 16

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("k", as_index=False).agg(s=("v", "sum"),
                                                 n=("v", "size"))
        return out.astype({"k": "int64", "s": "int64", "n": "int64"})

    ds = rd.from_pandas(df).repartition(7)
    got = hash_exchange(ds, "shard", n_shards, fn).to_pandas()
    want = (
        rd.from_pandas(df).repartition(7)
        .groupby("shard").map_groups(fn, batch_format="pandas")
        .to_pandas()
    )
    key = ["k", "s", "n"]
    g = got[key].sort_values(key).reset_index(drop=True)
    w = want[key].sort_values(key).reset_index(drop=True)
    assert g.equals(w)


def test_hash_exchange_empty_shards(ray_session):
    """Shards with zero rows still reach fn as an empty typed frame and
    produce empty output without breaking downstream datasets."""
    import ray.data as rd
    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    df = _mk(n=50)
    df["shard"] = 0  # every row in shard 0; shards 1..31 empty

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"n": pd.Series([len(g)], dtype="int64")}
        ) if len(g) else pd.DataFrame({"n": pd.Series([], dtype="int64")})

    out = hash_exchange(rd.from_pandas(df), "shard", 32, fn).to_pandas()
    assert out["n"].tolist() == [50]


def test_hash_exchange_chained(ray_session):
    """Exchange -> map -> exchange (the tfidf/dup_span shape): the
    second exchange must survive schema-less empty blocks produced by
    the first one's empty shards."""
    import ray.data as rd
    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    df = _mk(n=300)
    df["shard"] = df["shard"] % 2  # only shards 0,1 of 8 populated

    def ident(g: pd.DataFrame) -> pd.DataFrame:
        return g

    first = hash_exchange(rd.from_pandas(df), "shard", 8, ident)
    second = hash_exchange(
        first.map_batches(
            lambda d: d.assign(shard2=d["k"] % 4
                               if "k" in d.columns else d),
            batch_format="pandas",
        ),
        "shard2", 4,
        lambda g: g.groupby("shard2", as_index=False).agg(
            n=("v", "size")) if len(g) else g,
    ).to_pandas()
    assert int(second["n"].sum()) == 300


def test_hash_exchange_out_of_range_raises(ray_session):
    import pandas as pd
    import pytest
    import ray.data as rd

    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    ds = rd.from_pandas(pd.DataFrame({"x": [1, 2], "shard": [0, 5]}))
    with pytest.raises(Exception, match="outside"):
        hash_exchange(ds, "shard", 4, lambda df: df).to_pandas()


def test_hash_exchange_empty_input(ray_session):
    """Empty upstream → empty output dataset, fn never called (there is
    no typed frame to seed it with) — the ADVICE r3 crash case."""
    import pandas as pd
    import ray.data as rd

    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    empty = rd.from_pandas(
        pd.DataFrame({"x": pd.Series([], dtype="int64"),
                      "shard": pd.Series([], dtype="int64")})
    ).filter(lambda r: False)  # zero BLOCKS after execution

    calls = []

    def fn(df):
        calls.append(1)
        return df

    # from_pandas keeps one (0-row) block; exercise both shapes
    out = hash_exchange(empty, "shard", 4, fn)
    assert out.count() == 0


def test_hash_exchange_pyarrow_mode(ray_session):
    """Arrow mode routes nested (list<struct>) columns with no pandas
    round-trip and matches the pandas mode's row content."""
    import pyarrow as pa
    import ray.data as rd

    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    rows = [
        {"k": i, "shard": i % 3,
         "spans": [{"kind": "t", "off": j} for j in range(i % 4)]}
        for i in range(20)
    ]
    tbl = pa.Table.from_pylist(rows)
    ds = rd.from_arrow(tbl)

    def per_shard(t: pa.Table) -> pa.Table:
        # count spans per row, keep nested column intact
        import pyarrow.compute as pc

        n = pc.fill_null(pc.list_value_length(t.column("spans")), 0)
        return t.append_column("n_spans", n)

    out = hash_exchange(ds, "shard", 3, per_shard,
                        batch_format="pyarrow").to_pandas()
    assert len(out) == 20
    got = dict(zip(out["k"], out["n_spans"]))
    assert got == {i: i % 4 for i in range(20)}
    # nested column survived the exchange
    assert len(out.loc[out["k"] == 7, "spans"].iloc[0]) == 3


def test_hash_exchange_pyarrow_empty_shard(ray_session):
    """Arrow mode's empty shards reach fn as 0-row TYPED tables (fn
    runs remotely, so it reports what it saw through its OUTPUT row)."""
    import pyarrow as pa
    import ray.data as rd

    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    tbl = pa.table({"k": [1, 2], "shard": [0, 0]})

    def per_shard(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "n_rows": pa.array([t.num_rows], type=pa.int64()),
                "has_k": pa.array(["k" in t.schema.names]),
            }
        )

    out = hash_exchange(rd.from_arrow(tbl), "shard", 4, per_shard,
                        batch_format="pyarrow").to_pandas()
    assert sorted(out["n_rows"].tolist()) == [0, 0, 0, 2]
    assert out["has_k"].all()  # typed empties, never schema-less


def test_hash_exchange_single_shard(ray_session):
    """n_shards=1 (adaptive sharding floor): ray's num_returns=1
    returns a bare value, not a 1-tuple — the exchange must normalize
    both the task return and the ref list."""
    import ray.data as rd
    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    df = _mk(n=500, n_shards=1)

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("k", as_index=False).agg(s=("v", "sum"))
        return out.astype({"k": "int64", "s": "int64"})

    got = (
        hash_exchange(rd.from_pandas(df), "shard", 1, fn)
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    exp = (
        df.groupby("k", as_index=False).agg(s=("v", "sum"))
        .astype({"k": "int64", "s": "int64"})
        .sort_values("k").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, exp)


import pytest


@pytest.mark.parametrize(
    "mod,fn",
    [
        ("tensorflow_ocr_ray.pipelines.relational", "copurchase_pairs"),
        ("tensorflow_ocr_ray.pipelines.relational", "user_bitmap_activity"),
        ("tensorflow_ocr_ray.pipelines.windows", "rolling_distinct_users"),
        ("tensorflow_ocr_ray.pipelines.windows", "user_active_coverage"),
        ("tensorflow_ocr_ray.pipelines.curation", "source_token_gini"),
        ("tensorflow_ocr_ray.pipelines.dedup", "edit_distance_pairs"),
    ],
)
def test_new_ops_shard_count_invariant(ray_session, mod, fn):
    """Exchange-routed operators must produce identical results at any
    shard count (the layout-independence contract)."""
    import importlib

    f = getattr(importlib.import_module(mod), fn)
    sf = "/root/testdata/sf0.001"
    a = f(sf, n_shards=3)
    b = f(sf, n_shards=32)
    a = a.to_pandas() if hasattr(a, "to_pandas") else a
    b = b.to_pandas() if hasattr(b, "to_pandas") else b
    cols = sorted(a.columns)
    a = a[cols].sort_values(cols).reset_index(drop=True)
    b = b[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
