"""Windowed / ordered operators over the ``events`` stream table.

Operators Ray Data lacks natively, built per SURVEY §2's custom-operator
rule as ONE co-locating ``hash_exchange`` on a coarse user-hash shard +
in-shard vectorized compute (partitioning assumption: one shard's events
fit one task — callers size ``n_shards``; a user never splits across
shards by construction of the key):

- ``sessionize``       — gap-based session windows per user (30-min gap)
- ``tumbling_windows`` — fixed-width per-user time buckets
- ``asof_event_order`` — as-of backward join: each event matched to the
  user's latest order at-or-before the event time (sharded sort-merge;
  neither side broadcast or collected)

Every corpus-sized operator returns a LAZY Dataset — results stream to
the consumer; nothing event- or session-cardinality sized lands on the
driver.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd

import ray
import ray.data as rd

from tensorflow_ocr_ray import cache
from tensorflow_ocr_ray.stages.exchange import hash_exchange

GAP_MIN = 30


def _events(sf_dir: str, columns=None) -> "rd.Dataset":
    return rd.read_parquet(f"{sf_dir}/events.parquet", columns=columns)


def sessionize(sf_dir: str, gap_minutes: int = GAP_MIN,
               n_shards: int = 64) -> "rd.Dataset":
    """Session windows: a new session starts when the gap from the user's
    previous event exceeds ``gap_minutes``.  One row per session with its
    bounds, event count and exact integer-cent value sum.

    Physical plan: ONE user-hash shuffle via ``hash_exchange`` (the
    groupby-sort path measured 0.35-0.4 scaling efficiency on the events
    table); inside a shard one vectorized sort over (user, ts) and a
    boundary-mask cumsum label every session with no per-user Python.
    Values travel as exact integer cents (the column is 2-decimal by
    construction) so the distributed sum cannot drift vs the oracle's
    sequential sum.  Returns a LAZY Dataset — nothing session-cardinality
    sized ever lands on the driver."""
    gap_us = np.int64(gap_minutes * 60_000_000)

    def add_shard(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        return pd.DataFrame(
            {
                "user_id": df["user_id"].astype("int64"),
                "ts_us": us,
                "cents": np.round(df["value"].to_numpy() * 100.0)
                .astype("int64"),
                "shard": df["user_id"].astype("int64") % n_shards,
            }
        )

    def per_shard(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):  # hash_exchange delivers empty shards too
            return pd.DataFrame(
                {
                    "user_id": pd.Series([], dtype="int64"),
                    "session_seq": pd.Series([], dtype="int64"),
                    "session_start": pd.Series([], dtype="datetime64[us]"),
                    "session_end": pd.Series([], dtype="datetime64[us]"),
                    "events": pd.Series([], dtype="int64"),
                    "total_value_cents": pd.Series([], dtype="int64"),
                }
            )
        df = df.sort_values(["user_id", "ts_us"])
        uid = df["user_id"].to_numpy()
        us = df["ts_us"].to_numpy()
        n = len(df)
        new_user = np.ones(n, dtype=bool)
        new_user[1:] = uid[1:] != uid[:-1]
        new = new_user.copy()
        new[1:] |= (us[1:] - us[:-1]) > gap_us
        sid = np.cumsum(new)  # global 1-based session label
        # per-user session_seq: global label minus the user's first label
        base = np.maximum.accumulate(np.where(new_user, sid, 0))
        seq = sid - base + 1
        g = (
            df.assign(session_seq=seq.astype("int64"))
            .groupby(["user_id", "session_seq"], as_index=False)
            .agg(
                start_us=("ts_us", "min"),
                end_us=("ts_us", "max"),
                events=("ts_us", "size"),
                total_value_cents=("cents", "sum"),
            )
        )
        return pd.DataFrame(
            {
                "user_id": g["user_id"].astype("int64"),
                "session_seq": g["session_seq"].astype("int64"),
                "session_start": g["start_us"].astype("datetime64[us]"),
                "session_end": g["end_us"].astype("datetime64[us]"),
                "events": g["events"].astype("int64"),
                "total_value_cents": g["total_value_cents"]
                .astype("int64"),
            }
        )

    return hash_exchange(
        _events(sf_dir, ["user_id", "ts", "value"])
        .map_batches(add_shard, batch_format="pandas", batch_size=65536),
        "shard", n_shards, per_shard,
    )


def tumbling_windows(sf_dir: str, width_minutes: int = 60) -> "rd.Dataset":
    """Per-user fixed (tumbling) windows: floor(ts / width) buckets with
    count + exact-cent sum, pre-aggregated map-side before the one
    co-locating exchange.  Returns a lazy Dataset."""
    width = np.timedelta64(width_minutes * 60, "s")
    epoch = np.datetime64("1970-01-01T00:00:00")

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        ts = df["ts"].to_numpy()
        win = epoch + ((ts - epoch) // width) * width
        g = (
            df.assign(
                win_us=win.astype("datetime64[us]").astype("int64"),
                cents=np.round(df["value"].to_numpy() * 100.0)
                .astype("int64"),
            )
            .groupby(["user_id", "win_us"], as_index=False)
            .agg(p_events=("cents", "size"), p_cents=("cents", "sum"))
        )
        return g

    ds = _events(sf_dir, ["user_id", "ts", "value"]).map_batches(
        bucket, batch_format="pandas", batch_size=65536
    )
    return _combine_window_partials(ds)


def _combine_window_partials(ds: "rd.Dataset",
                             n_shards: int = 64) -> "rd.Dataset":
    """Distributed finalize of map-side window partials: one exchange
    keyed by a coarse user-hash shard, then a VECTORIZED pandas
    groupby-sum per shard (Ray's per-(user,timestamp)-key aggregate was
    measured ~45s for 10k partial rows; the sharded combine is
    sub-second and stays off the driver — each shard sees only its
    users' partials).  Partials and results are exact integer cents so
    the distributed re-association cannot drift vs a sequential oracle
    sum.  Returns a LAZY Dataset — the user×window result never lands
    on the driver."""

    def add_shard(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["shard"] = df["user_id"] % n_shards
        return df

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["user_id", "win_us"], as_index=False).agg(
            events=("p_events", "sum"), c=("p_cents", "sum")
        )
        out = pd.DataFrame(
            {
                "user_id": g["user_id"].astype("int64"),
                "window_start": g["win_us"].astype("datetime64[us]"),
                "events": g["events"].astype("int64"),
                "total_value_cents": g["c"].astype("int64"),
            }
        )
        return out

    return hash_exchange(
        ds.map_batches(add_shard, batch_format="pandas"),
        "shard", n_shards, combine,
    )


def asof_event_order(sf_dir: str, n_shards: int = 64) -> "rd.Dataset":
    """As-of backward join: each event gets the user's most recent order
    (o_custkey == user_id, o_orderdate <= ts).

    Sharded sort-merge plan: both sides carry ``key % n_shards``, union,
    one ``groupby(shard)`` co-locates each user's events with that
    user's orders, and the in-shard kernel does one vectorized
    ``searchsorted`` per user.  NEITHER side is broadcast or collected —
    the r1 version built a driver dict of ALL orders, which dies when
    the build side is 100 TB-class."""
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderdate", "o_orderkey"],
    )

    def o_rows(df: pd.DataFrame) -> pd.DataFrame:
        key = df["o_custkey"].astype("int64")
        return pd.DataFrame(
            {
                "user_id": key,
                "event_id": np.int64(-1),
                "ts": df["o_orderdate"].astype("datetime64[us]"),
                "o_orderkey": df["o_orderkey"].astype("int64"),
                "side": np.int64(0),
                "shard": key % n_shards,
            }
        )

    def e_rows(df: pd.DataFrame) -> pd.DataFrame:
        key = df["user_id"].astype("int64")
        return pd.DataFrame(
            {
                "user_id": key,
                "event_id": df["event_id"].astype("int64"),
                "ts": df["ts"].astype("datetime64[us]"),
                "o_orderkey": np.int64(-1),
                "side": np.int64(1),
                "shard": key % n_shards,
            }
        )

    o = orders.map_batches(o_rows, batch_format="pandas", batch_size=65536)
    e = _events(sf_dir, ["event_id", "user_id", "ts"]).map_batches(
        e_rows, batch_format="pandas", batch_size=65536
    )

    def asof_shard(df: pd.DataFrame) -> pd.DataFrame:
        ob = df[df["side"] == 0].sort_values(
            ["user_id", "ts", "o_orderkey"]
        )
        ev = df[df["side"] == 1]
        out_key = np.full(len(ev), -1, dtype=np.int64)
        out_date = np.full(len(ev), np.datetime64("NaT"),
                           dtype="datetime64[us]")
        ev_uid = ev["user_id"].to_numpy()
        ev_ts = ev["ts"].to_numpy()
        o_uid = ob["user_id"].to_numpy()
        o_ts = ob["ts"].to_numpy()
        o_key = ob["o_orderkey"].to_numpy()
        # per-user slices of the sorted orders block
        for k in np.unique(ev_uid):
            lo = np.searchsorted(o_uid, k, side="left")
            hi = np.searchsorted(o_uid, k, side="right")
            rows = np.nonzero(ev_uid == k)[0]
            if lo == hi:
                continue
            pos = np.searchsorted(o_ts[lo:hi], ev_ts[rows],
                                  side="right") - 1
            ok = pos >= 0
            out_key[rows[ok]] = o_key[lo:hi][pos[ok]]
            out_date[rows[ok]] = o_ts[lo:hi][pos[ok]]
        res = pd.DataFrame(
            {
                "event_id": ev["event_id"].to_numpy(),
                "user_id": ev_uid,
                "o_orderkey": out_key,
                "o_orderdate": out_date,
            }
        )
        return res[res["o_orderkey"] >= 0]

    # lazy Dataset out — one row per matched event never lands on the
    # driver (the pre-r4 version collected + driver-sorted the full
    # event-cardinality frame)
    return hash_exchange(o.union(e), "shard", n_shards, asof_shard)


def hopping_windows(
    sf_dir: str, width_minutes: int = 60, hop_minutes: int = 30
) -> "rd.Dataset":
    """Per-user HOPPING (overlapping) windows: width 60min, hop 30min —
    each event contributes to width/hop windows.  Map-side expansion to
    (user, window_start) exact-cent partials keeps the shuffle small.
    Returns a lazy Dataset."""
    width = np.timedelta64(width_minutes * 60, "s")
    hop = np.timedelta64(hop_minutes * 60, "s")
    epoch = np.datetime64("1970-01-01T00:00:00")
    k = width_minutes // hop_minutes  # windows per event

    def expand(df: pd.DataFrame) -> pd.DataFrame:
        ts = df["ts"].to_numpy()
        cents = np.round(df["value"].to_numpy() * 100.0).astype("int64")
        # last hop-aligned window start covering ts, then k-1 earlier ones
        last = epoch + ((ts - epoch) // hop) * hop
        frames = []
        for j in range(k):
            frames.append(
                pd.DataFrame(
                    {
                        "user_id": df["user_id"].to_numpy(),
                        "win_us": (last - j * hop)
                        .astype("datetime64[us]").astype("int64"),
                        "cents": cents,
                    }
                )
            )
        g = (
            pd.concat(frames)
            .groupby(["user_id", "win_us"], as_index=False)
            .agg(p_events=("cents", "size"), p_cents=("cents", "sum"))
        )
        return g

    ds = _events(sf_dir, ["user_id", "ts", "value"]).map_batches(
        expand, batch_format="pandas", batch_size=65536
    )
    return _combine_window_partials(ds)


# ---------------- event funnel ---------------------------------------------

FUNNEL_STAGES = ("view", "click", "purchase")


def event_funnel(sf_dir: str, n_shards: int = 64) -> "rd.Dataset":
    """Ordered conversion funnel view -> click -> purchase, one row per
    user (cf. the reference's per-stream tally loops, generalized to the
    classic event-analytics shape).

    Each stage must occur STRICTLY after the previous stage's first
    completion: t1 = min ts(view); t2 = min ts(click) with ts > t1;
    t3 = min ts(purchase) with ts > t2.  Times travel as BIGINT epoch
    microseconds (-1 = stage unreached) so the DuckDB oracle compares
    exact integers, never floats or NULL-vs-NaT hashes.

    Physical plan: ONE user-hash exchange (pre-r4: per-user map_groups —
    a Python call per user on the Sort path); inside a shard the three
    chained mins are whole-shard pandas groupby-min + merge chains, no
    per-user Python anywhere."""
    s1, s2, s3 = FUNNEL_STAGES

    def add_shard(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": df["user_id"].astype("int64"),
                "ts_us": df["ts"].to_numpy().astype("datetime64[us]")
                .astype("int64"),
                "event_type": df["event_type"],
                "shard": df["user_id"].astype("int64") % n_shards,
            }
        )

    def per_shard(df: pd.DataFrame) -> pd.DataFrame:
        users = np.unique(df["user_id"].to_numpy(np.int64))
        out = pd.DataFrame({"user_id": users}).set_index("user_id")

        def first_after(stage: str, prev: pd.Series) -> pd.Series:
            d = df[df["event_type"] == stage][["user_id", "ts_us"]]
            p = prev.reindex(d["user_id"]).to_numpy()
            d = d[d["ts_us"].to_numpy() > p]
            m = d.groupby("user_id")["ts_us"].min()
            return m.reindex(out.index, fill_value=-1)

        # chained strictly-after mins, all vectorized; prev=-1 admits all
        neg1 = pd.Series(-1, index=out.index)
        t1 = first_after(s1, neg1)
        # unreached prev (-1 stays -1): block the next stage by +inf
        BIG = np.iinfo(np.int64).max
        t2 = first_after(s2, t1.where(t1 >= 0, BIG))
        t3 = first_after(s3, t2.where(t2 >= 0, BIG))
        stage = (
            (t1 >= 0).astype("int64")
            + (t2 >= 0).astype("int64")
            + (t3 >= 0).astype("int64")
        )
        return pd.DataFrame(
            {
                "user_id": out.index.to_numpy(),
                "stage": stage.to_numpy(),
                "t_view_us": t1.to_numpy(),
                "t_click_us": t2.to_numpy(),
                "t_purchase_us": t3.to_numpy(),
            }
        ).astype("int64")

    return hash_exchange(
        _events(sf_dir, ["user_id", "ts", "event_type"])
        .map_batches(add_shard, batch_format="pandas", batch_size=65536),
        "shard", n_shards, per_shard,
    )


# ---------------- user journeys (ordered group concat) ---------------------


def user_journey(sf_dir: str, n_shards: int = 64) -> "rd.Dataset":
    """Per-user ordered event-type sequence ("view>click>purchase>..."),
    the order-preserving group-concat shape (cf. the reference's ordered
    per-page glyph streams, main/tf.c-style sequence assembly generalized
    to event analytics).

    Physical plan: ONE shuffle on a coarse user-hash shard (NOT per-user
    groups — Ray's map_groups costs a Python call per group, ~6 s for
    15k users at sf0.1; 64 shard groups amortize it away); inside a
    shard, one vectorized sort on (user, ts, event_id) — event_id is the
    unique tiebreak — then a single pandas groupby-join per shard.  One
    bounded row per user; the partitioning assumption (one user's events
    fit one shard) matches sessionize's."""

    def add_shard(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(shard=df["user_id"].astype("int64") % n_shards)

    def per_shard(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"])
        g = df.groupby("user_id")["event_type"]
        out = g.agg(">".join).reset_index(name="journey")
        out["n_events"] = g.size().to_numpy()
        out["user_id"] = out["user_id"].astype("int64")
        out["n_events"] = out["n_events"].astype("int64")
        return out[["user_id", "journey", "n_events"]]

    return hash_exchange(
        _events(sf_dir, ["user_id", "ts", "event_id", "event_type"])
        .map_batches(add_shard, batch_format="pandas", batch_size=65536),
        "shard", n_shards, per_shard,
    )


# ---------------- event transition matrix (Markov bigrams) -----------------


def event_transitions(sf_dir: str, n_shards: int = 64) -> pd.DataFrame:
    """Corpus-wide Markov transition counts between consecutive event
    types per user (ordered by ts, event_id).

    Physical plan: one shuffle on a coarse user-hash shard; inside a
    shard ONE vectorized sort on (user, ts, event_id) and a boolean
    same-user mask give every consecutive pair (no per-user Python
    call), pre-combined to ≤|types|^2 rows per shard; the driver
    finishes over shards × |types|^2 skinny int rows (the bounded-key
    driver finish the q12-q14 family uses — Ray's per-key aggregate
    operator costs more than this stream's entire payload)."""

    def add_shard(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(shard=df["user_id"].astype("int64") % n_shards)

    def per_shard(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"])
        et = df["event_type"].to_numpy()
        uid = df["user_id"].to_numpy()
        if len(et) < 2:
            return pd.DataFrame(
                {"from_type": pd.Series([], dtype="str"),
                 "to_type": pd.Series([], dtype="str"),
                 "one": pd.Series([], dtype="int64")}
            )
        same = uid[1:] == uid[:-1]
        out = pd.DataFrame(
            {"from_type": et[:-1][same], "to_type": et[1:][same]}
        )
        out["one"] = np.int64(1)
        return out.groupby(["from_type", "to_type"], as_index=False).agg(
            one=("one", "sum")
        )

    parts = hash_exchange(
        _events(sf_dir, ["user_id", "ts", "event_id", "event_type"])
        .map_batches(add_shard, batch_format="pandas", batch_size=65536),
        "shard", n_shards, per_shard,
    ).to_pandas()
    out = parts.groupby(["from_type", "to_type"], as_index=False).agg(
        transitions=("one", "sum")
    )
    out["transitions"] = out["transitions"].astype("int64")
    return out.sort_values(["from_type", "to_type"]).reset_index(drop=True)


# ---------------- cohort retention -----------------------------------------

_US_PER_DAY = 86_400_000_000


def cohort_retention(sf_dir: str, n_shards: int = 64) -> "rd.Dataset":
    """Cohort-retention matrix: users grouped by their first active day
    (the cohort), counted as active at each day offset from it.

    Physical plan: per-batch distinct (user, day) pre-reduction, ONE
    user-hash exchange (pre-r4: per-user map_groups — a Python call per
    user — plus a second Ray sort-groupby); inside a shard one
    vectorized cohort-min + per-(cohort, offset) partial count, then
    the bounded |shards| × |cohorts × offsets| partial table combines
    on the driver (the q12-q14 bounded-key finish).  Nothing
    user-cardinality-sized ever lands on the driver."""

    def add_shard(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        d = pd.DataFrame(
            {
                "user_id": df["user_id"].astype("int64"),
                "day": us // _US_PER_DAY,
            }
        ).drop_duplicates()
        d["shard"] = d["user_id"] % n_shards
        return d

    def per_shard(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["user_id", "day"])
        cohort = d.groupby("user_id")["day"].transform("min")
        g = (
            pd.DataFrame(
                {"cohort_day": cohort.to_numpy(),
                 "offset_day": d["day"].to_numpy() - cohort.to_numpy()}
            )
            .groupby(["cohort_day", "offset_day"], as_index=False)
            .size()
            .rename(columns={"size": "p"})
        )
        return g.astype("int64")

    parts = hash_exchange(
        _events(sf_dir, ["user_id", "ts"])
        .map_batches(add_shard, batch_format="pandas", batch_size=65536),
        "shard", n_shards, per_shard,
    ).to_pandas()
    out = parts.groupby(["cohort_day", "offset_day"], as_index=False).agg(
        active_users=("p", "sum")
    )
    return rd.from_pandas(
        out.astype(
            {"cohort_day": "int64", "offset_day": "int64",
             "active_users": "int64"}
        )
    )


# ---------------- global ordered running totals -----------------------------


def running_total(sf_dir: str) -> "rd.Dataset":
    """Global running totals over the WHOLE event stream in (ts, event_id)
    order — the distributed ordered prefix-sum shape (same two-pass plan
    as curation.pack_sequences, time-sharded instead of id-sharded).

    Values travel as exact integer cents (the column is 2-decimal by
    construction; round(v*100) is integral) so partial re-association is
    exact — a float cumsum would drift vs the oracle's sequential window
    sum.  Plan: (1) per-batch day partials over the skinny projection,
    tree-combined (repartition + re-partial, no groupby sort) → driver
    computes exclusive day offsets (one pair of ints per day) and
    broadcasts them; (2) a SECOND pass over the lazy projection routes
    each day to its own exchange shard (day → dense index from the
    broadcast table), sorts locally and adds its offset to a vectorized
    cumsum.  The projection is recomputed, never ``materialize``d — the
    pre-r4 version pinned the whole skinny table in the object store
    (~30 TB at 10^12 rows) to save one cheap re-read.  No task ever
    sees more than one day's events; the driver holds |days| ints."""

    def skinny(df: pd.DataFrame) -> pd.DataFrame:
        ts = df["ts"].to_numpy().astype("datetime64[us]")
        us = ts.astype("int64")
        return pd.DataFrame(
            {
                "event_id": df["event_id"].astype("int64"),
                "ts_us": us,
                "day": us // _US_PER_DAY,
                "cents": np.round(df["value"].to_numpy() * 100.0)
                .astype("int64"),
            }
        )

    def stats() -> "rd.Dataset":
        return _events(sf_dir, ["event_id", "ts", "value"]).map_batches(
            skinny, batch_format="pandas", batch_size=65536
        )

    def day_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("day", as_index=False).agg(
            n=("cents", "size"), c=("cents", "sum")
        )
        return g.astype({"day": "int64", "n": "int64", "c": "int64"})

    def day_merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("day", as_index=False).agg(
            n=("n", "sum"), c=("c", "sum")
        )
        return g.astype({"day": "int64", "n": "int64", "c": "int64"})

    # tree combine: batch partials -> merge blocks -> re-merge; the
    # driver sees O(16 x |days|) skinny int rows, never a sort shuffle
    totals = (
        stats()
        .map_batches(day_partial, batch_format="pandas", batch_size=65536)
        .repartition(16)
        .map_batches(day_merge, batch_format="pandas")
        .to_pandas()
        .groupby("day", as_index=False)
        .agg(n=("n", "sum"), c=("c", "sum"))
        .sort_values("day")
    )
    offs: dict[int, tuple[int, int, int]] = {}
    rank_acc = 0
    cents_acc = 0
    for idx, (_, r) in enumerate(totals.iterrows()):
        offs[int(r["day"])] = (idx, rank_acc, cents_acc)
        rank_acc += int(r["n"])
        cents_acc += int(r["c"])
    n_days = len(offs)
    if not n_days:  # empty events table
        return rd.from_pandas(
            pd.DataFrame(
                {c: pd.Series([], dtype="int64")
                 for c in ("event_id", "rn", "running_cents")}
            )
        )
    off_ref = ray.put(offs)

    def add_shard(df: pd.DataFrame) -> pd.DataFrame:
        # ray.get of the broadcast day->index table is a local object
        # store hit after the first batch on each worker
        offs_d = ray.get(off_ref)
        df = df.copy()
        df["shard"] = (
            df["day"].map(lambda d: offs_d[d][0]).astype("int64")
        )
        return df

    def per_day(df: pd.DataFrame) -> pd.DataFrame:
        _, rank0, cents0 = ray.get(off_ref)[int(df["day"].iloc[0])]
        df = df.sort_values(["ts_us", "event_id"])
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy(),
                "rn": rank0 + np.arange(1, len(df) + 1, dtype=np.int64),
                "running_cents": cents0
                + np.cumsum(df["cents"].to_numpy()),
            }
        )

    return hash_exchange(
        stats().map_batches(add_shard, batch_format="pandas",
                            batch_size=65536),
        "shard", n_days, per_day,
    )


# ---------------- temporal range join ---------------------------------------


def range_join_orders(sf_dir: str, days: int = 7,
                      n_shards: int = 64) -> "rd.Dataset":
    """Temporal RANGE join: for each event, the count of the same user's
    orders within ±``days`` of the event time (asof's sharded sort-merge
    plan generalized from backward-nearest to a symmetric interval).

    Both sides travel as skinny key/time rows through ONE co-locating
    shuffle on user-hash; inside a shard the per-user sorted order times
    answer every event with two vectorized ``searchsorted``s (count =
    upper_idx - lower_idx).  LEFT-join semantics: events with no order in
    range emit 0.  Neither side is broadcast or collected."""
    delta = np.int64(days * _US_PER_DAY)
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderdate"]
    )

    def o_rows(df: pd.DataFrame) -> pd.DataFrame:
        key = df["o_custkey"].astype("int64")
        return pd.DataFrame(
            {
                "user_id": key,
                "event_id": np.int64(-1),
                "t_us": df["o_orderdate"].to_numpy()
                .astype("datetime64[us]").astype("int64"),
                "side": np.int64(0),
                "shard": key % n_shards,
            }
        )

    def e_rows(df: pd.DataFrame) -> pd.DataFrame:
        key = df["user_id"].astype("int64")
        return pd.DataFrame(
            {
                "user_id": key,
                "event_id": df["event_id"].astype("int64"),
                "t_us": df["ts"].to_numpy()
                .astype("datetime64[us]").astype("int64"),
                "side": np.int64(1),
                "shard": key % n_shards,
            }
        )

    o = orders.map_batches(o_rows, batch_format="pandas", batch_size=65536)
    e = _events(sf_dir, ["event_id", "user_id", "ts"]).map_batches(
        e_rows, batch_format="pandas", batch_size=65536
    )

    def count_in_shard(df: pd.DataFrame) -> pd.DataFrame:
        ob = df[df["side"] == 0].sort_values(["user_id", "t_us"])
        ev = df[df["side"] == 1]
        o_uid = ob["user_id"].to_numpy()
        o_t = ob["t_us"].to_numpy()
        ev_uid = ev["user_id"].to_numpy()
        ev_t = ev["t_us"].to_numpy()
        n = np.zeros(len(ev), dtype=np.int64)
        for k in np.unique(ev_uid):
            lo = np.searchsorted(o_uid, k, side="left")
            hi = np.searchsorted(o_uid, k, side="right")
            rows = np.nonzero(ev_uid == k)[0]
            if lo == hi:
                continue
            t = ev_t[rows]
            n[rows] = (
                np.searchsorted(o_t[lo:hi], t + delta, side="right")
                - np.searchsorted(o_t[lo:hi], t - delta, side="left")
            )
        return pd.DataFrame(
            {
                "event_id": ev["event_id"].to_numpy(),
                "n_orders_7d": n,
            }
        )

    return hash_exchange(o.union(e), "shard", n_shards, count_in_shard)


# ---------------- first-touch attribution ----------------------------------


def first_touch_attribution(sf_dir: str, days: int = 30,
                            n_shards: int = 64) -> "rd.Dataset":
    """Marketing-style first-touch attribution: each *purchase* event is
    attributed to the same user's EARLIEST *view* event inside the
    preceding ``days`` window (ts in [purchase - days, purchase)), ties
    on ts broken by event_id.

    The typed variant of the range-join plan: both filtered streams are
    skinny (user, ts, id) rows through one co-locating user-hash
    shuffle; in-shard, views sorted by (user, ts, id) answer each
    purchase with two ``searchsorted``s — the window's FIRST element is
    the attribution (sort order makes it the (min ts, min id) winner).
    Unattributed purchases emit -1 (BIGINT, never NULL)."""
    delta = np.int64(days * _US_PER_DAY)

    def rows(side_type: str, side_tag: int):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            d = df[df["event_type"] == side_type]
            key = d["user_id"].astype("int64")
            return pd.DataFrame(
                {
                    "user_id": key,
                    "event_id": d["event_id"].astype("int64"),
                    "t_us": d["ts"].to_numpy()
                    .astype("datetime64[us]").astype("int64"),
                    "side": np.int64(side_tag),
                    "shard": key % n_shards,
                }
            )

        return fn

    src = _events(sf_dir, ["event_id", "user_id", "ts", "event_type"])
    v = src.map_batches(rows("view", 0), batch_format="pandas",
                        batch_size=65536)
    p = src.map_batches(rows("purchase", 1), batch_format="pandas",
                        batch_size=65536)

    def attribute(df: pd.DataFrame) -> pd.DataFrame:
        vb = df[df["side"] == 0].sort_values(
            ["user_id", "t_us", "event_id"]
        )
        pb = df[df["side"] == 1]
        v_uid = vb["user_id"].to_numpy()
        v_t = vb["t_us"].to_numpy()
        v_id = vb["event_id"].to_numpy()
        p_uid = pb["user_id"].to_numpy()
        p_t = pb["t_us"].to_numpy()
        touch_id = np.full(len(pb), -1, dtype=np.int64)
        touch_ts = np.full(len(pb), -1, dtype=np.int64)
        for k in np.unique(p_uid):
            lo = np.searchsorted(v_uid, k, side="left")
            hi = np.searchsorted(v_uid, k, side="right")
            rows_ = np.nonzero(p_uid == k)[0]
            if lo == hi:
                continue
            t = p_t[rows_]
            a = np.searchsorted(v_t[lo:hi], t - delta, side="left")
            b = np.searchsorted(v_t[lo:hi], t, side="left")
            ok = b > a
            touch_id[rows_[ok]] = v_id[lo:hi][a[ok]]
            touch_ts[rows_[ok]] = v_t[lo:hi][a[ok]]
        return pd.DataFrame(
            {
                "event_id": pb["event_id"].to_numpy(),
                "touch_event_id": touch_id,
                "touch_ts_us": touch_ts,
            }
        )

    return hash_exchange(v.union(p), "shard", n_shards, attribute)


# ---------------- distinct-on / argmin ---------------------------------------


def first_event_per_user_day(sf_dir: str, n_shards: int = 64) -> "rd.Dataset":
    """DISTINCT ON (user, day): each user-day's FIRST event (argmin over
    (ts, event_id)) with its type — the dedup-to-representative shape
    SQL spells ``row_number() = 1``.

    One user-hash shuffle; in-shard ONE vectorized sort then
    ``drop_duplicates(keep='first')`` — no per-group Python.  Day ids
    and timestamps travel as exact integers."""

    def add_shard(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        return pd.DataFrame(
            {
                "user_id": df["user_id"].astype("int64"),
                "day": us // _US_PER_DAY,
                "ts_us": us,
                "event_id": df["event_id"].astype("int64"),
                "event_type": df["event_type"],
                "shard": df["user_id"].astype("int64") % n_shards,
            }
        )

    def per_shard(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "day", "ts_us", "event_id"])
        d = df.drop_duplicates(["user_id", "day"], keep="first")
        return pd.DataFrame(
            {
                "user_id": d["user_id"].to_numpy(),
                "day": d["day"].to_numpy(),
                "first_event_id": d["event_id"].to_numpy(),
                "first_ts_us": d["ts_us"].to_numpy(),
                "first_type": d["event_type"].to_numpy(),
            }
        )

    return hash_exchange(
        _events(sf_dir, ["event_id", "user_id", "ts", "event_type"])
        .map_batches(add_shard, batch_format="pandas", batch_size=65536),
        "shard", n_shards, per_shard,
    )


# ---------------- gaps-and-islands streaks ----------------------------------


def user_active_streak(sf_dir: str, n_shards: int = 64) -> "rd.Dataset":
    """Longest consecutive-active-day streak per user — the
    gaps-and-islands shape (SQL: day - row_number() island key).

    One user-hash shuffle; in-shard the distinct (user, day) pairs are
    sorted once and islands fall out of a vectorized boundary mask +
    cumsum + bincount — no per-user loop.  Counts are exact ints."""

    def add_shard(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        d = pd.DataFrame(
            {
                "user_id": df["user_id"].astype("int64"),
                "day": us // _US_PER_DAY,
            }
        ).drop_duplicates()
        d["shard"] = d["user_id"] % n_shards
        return d

    def per_shard(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["user_id", "day"]).sort_values(
            ["user_id", "day"]
        )
        uid = d["user_id"].to_numpy()
        day = d["day"].to_numpy()
        new = np.ones(len(d), dtype=bool)
        new[1:] = (uid[1:] != uid[:-1]) | (day[1:] - day[:-1] != 1)
        isl = np.cumsum(new) - 1
        sizes = np.bincount(isl)
        per_row = pd.DataFrame(
            {"user_id": uid, "streak": sizes[isl], "one": np.int64(1)}
        )
        g = per_row.groupby("user_id", as_index=False).agg(
            n_active_days=("one", "sum"), longest_streak=("streak", "max")
        )
        return g.astype(
            {"user_id": "int64", "n_active_days": "int64",
             "longest_streak": "int64"}
        )

    return hash_exchange(
        _events(sf_dir, ["user_id", "ts"])
        .map_batches(add_shard, batch_format="pandas", batch_size=65536),
        "shard", n_shards, per_shard,
    )


# ---------------- LAG / inter-event gaps -------------------------------------


def event_lag_diff(sf_dir: str, n_shards: int = 64) -> "rd.Dataset":
    """Per-event time since the same user's PREVIOUS event — the LAG()
    window shape (cf. reference's sequential per-page state carried
    between rows, main/ocr.c's line loop; here it is a data-parallel
    shuffle + in-shard vectorized diff).

    One user-hash shuffle; in-shard one sort by (user, ts, event_id)
    then a shifted-array diff masked at user boundaries — no per-user
    Python.  Gaps are exact BIGINT microseconds, -1 for a user's first
    event (SQL's NULL, kept integral for hash-stable comparison)."""

    def add_shard(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        return pd.DataFrame(
            {
                "event_id": df["event_id"].astype("int64"),
                "user_id": df["user_id"].astype("int64"),
                "ts_us": us,
                "shard": df["user_id"].astype("int64") % n_shards,
            }
        )

    def per_shard(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):  # hash_exchange delivers empty shards too
            return pd.DataFrame(
                {c: pd.Series([], dtype="int64")
                 for c in ("event_id", "user_id", "ts_us", "gap_us")}
            )
        df = df.sort_values(["user_id", "ts_us", "event_id"])
        uid = df["user_id"].to_numpy()
        us = df["ts_us"].to_numpy()
        gap = np.empty(len(df), dtype=np.int64)
        gap[0] = -1
        if len(df) > 1:
            same = uid[1:] == uid[:-1]
            gap[1:] = np.where(same, us[1:] - us[:-1], -1)
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy(),
                "user_id": uid,
                "ts_us": us,
                "gap_us": gap,
            }
        )

    return hash_exchange(
        _events(sf_dir, ["event_id", "user_id", "ts"])
        .map_batches(add_shard, batch_format="pandas", batch_size=65536),
        "shard", n_shards, per_shard,
    )


# ---------------- bounded ROWS window (moving sum) ---------------------------


def moving_window_sum(sf_dir: str, width: int = 3,
                      n_shards: int = 64) -> "rd.Dataset":
    """Per-user moving sum/count over the current + ``width-1`` preceding
    events in (ts, event_id) order — SQL's ``ROWS BETWEEN k PRECEDING
    AND CURRENT ROW`` frame.

    Same one-shuffle plan as event_lag_diff; in-shard the window sums
    fall out of one cumsum minus its width-shifted self, re-truncated
    at user boundaries via each row's per-user ordinal (vectorized
    cumcount).  Values travel as exact integer cents so windowed
    re-addition cannot drift vs the oracle's sequential frame sum."""

    def add_shard(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        return pd.DataFrame(
            {
                "event_id": df["event_id"].astype("int64"),
                "user_id": df["user_id"].astype("int64"),
                "ts_us": us,
                "cents": np.round(df["value"].to_numpy() * 100.0)
                .astype("int64"),
                "shard": df["user_id"].astype("int64") % n_shards,
            }
        )

    def per_shard(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts_us", "event_id"])
        uid = df["user_id"].to_numpy()
        c = df["cents"].to_numpy()
        n = len(df)
        # per-user ordinal (0-based) without a groupby: positions minus
        # the position of each user's first row, via boundary cummax
        pos = np.arange(n, dtype=np.int64)
        new_user = np.ones(n, dtype=bool)
        new_user[1:] = uid[1:] != uid[:-1]
        first_pos = np.maximum.accumulate(np.where(new_user, pos, 0))
        ord0 = pos - first_pos
        # frame length: min(width, ordinal+1)
        w = np.minimum(ord0 + 1, width)
        csum = np.cumsum(c)
        start = pos - w  # inclusive-exclusive prefix index
        prev = np.where(start >= 0, csum[np.maximum(start, 0)], 0)
        win = csum - prev
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy(),
                "user_id": uid,
                "win_n": w.astype("int64"),
                "win_cents": win.astype("int64"),
            }
        )

    return hash_exchange(
        _events(sf_dir, ["event_id", "user_id", "ts", "value"])
        .map_batches(add_shard, batch_format="pandas", batch_size=65536),
        "shard", n_shards, per_shard,
    )


def range_window_sum(sf_dir: str, hours: int = 1,
                     n_shards: int = 64) -> "rd.Dataset":
    """Per-user time-interval window — SQL's ``RANGE BETWEEN INTERVAL
    1 HOUR PRECEDING AND CURRENT ROW`` (value-based frames, PEER
    semantics: every row with the same ts is in the frame whatever its
    position, so the sum is well-defined under ties, unlike ROWS).

    Same one-shuffle plan as moving_window_sum; in-shard the frame
    bounds come from TWO vectorized ``searchsorted`` calls on a
    banded key ``user_band * W + (ts - t0)`` with ``W > span + H`` —
    the band gap guarantees a lookup for ``key - H`` can never cross
    into the previous user's band, so no per-user loop exists.  Sums
    are exact integer cents on a prefix-sum difference."""
    horizon = hours * 3_600_000_000  # us

    def add_shard(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        return pd.DataFrame(
            {
                "event_id": df["event_id"].astype("int64"),
                "user_id": df["user_id"].astype("int64"),
                "ts_us": us,
                "cents": np.round(df["value"].to_numpy() * 100.0)
                .astype("int64"),
                "shard": df["user_id"].astype("int64") % n_shards,
            }
        )

    def per_shard(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {
                    "event_id": pd.Series([], dtype="int64"),
                    "user_id": pd.Series([], dtype="int64"),
                    "win_n": pd.Series([], dtype="int64"),
                    "win_cents": pd.Series([], dtype="int64"),
                }
            )
        df = df.sort_values(["user_id", "ts_us", "event_id"])
        uid = df["user_id"].to_numpy()
        ts = df["ts_us"].to_numpy()
        c = df["cents"].to_numpy()
        _, band = np.unique(uid, return_inverse=True)  # monotone: sorted
        tn = ts - ts.min()
        width = int(tn.max()) + horizon + 2
        if (int(band[-1]) + 1) * width >= (1 << 62):
            # users-per-shard x time-span too wide for one banded key:
            # raise n_shards (callers' knob) rather than corrupt frames
            raise ValueError(
                "range_window_sum: banded key would overflow int64 — "
                "increase n_shards"
            )
        key = band.astype(np.int64) * np.int64(width) + tn
        lo = np.searchsorted(key, key - horizon, side="left")
        hi = np.searchsorted(key, key, side="right")
        csum = np.concatenate([[0], np.cumsum(c)])
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy(),
                "user_id": uid,
                "win_n": (hi - lo).astype("int64"),
                "win_cents": (csum[hi] - csum[lo]).astype("int64"),
            }
        )

    return hash_exchange(
        _events(sf_dir, ["event_id", "user_id", "ts", "value"])
        .map_batches(add_shard, batch_format="pandas", batch_size=65536),
        "shard", n_shards, per_shard,
    )


# ---------------- NTILE via distributed global rank --------------------------


def _type_bucket_offsets(sf_dir: str) -> tuple[dict, dict]:
    """Bounded (event_type, unit-value-bucket) counts -> exclusive rank
    offsets + per-type totals, memoized per sf_dir and events
    fingerprint: ntile_events and median_value_cont share ONE count
    pass per driver pass.  The table is |types| x |buckets| —
    data-scale-free."""
    return cache.memo(
        "bucket_offsets", (os.path.abspath(sf_dir),),
        cache.table_fingerprint(sf_dir, "events"),
        lambda: _count_type_buckets(sf_dir))


def _count_type_buckets(sf_dir: str) -> tuple[dict, dict]:
    def bcount(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame(
            {
                "event_type": df["event_type"],
                "bucket": np.floor(df["value"].to_numpy()).astype(
                    "int64"),
            }
        ).groupby(["event_type", "bucket"], as_index=False).size()
        return g.rename(columns={"size": "n"}).astype(
            {"bucket": "int64", "n": "int64"})

    def bcombine(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "bucket": [int(df["bucket"].iloc[0])],
                "n": [int(df["n"].sum())],
            }
        )

    counts = (
        _events(sf_dir, ["event_type", "value"])
        .map_batches(bcount, batch_format="pandas", batch_size=65536)
        .groupby(["event_type", "bucket"])
        .map_groups(bcombine, batch_format="pandas")
        .to_pandas()
        .sort_values(["event_type", "bucket"])
    )
    offs: dict[tuple[str, int], int] = {}
    totals: dict[str, int] = {}
    for _, r in counts.iterrows():
        t = r["event_type"]
        offs[(t, int(r["bucket"]))] = totals.get(t, 0)
        totals[t] = totals.get(t, 0) + int(r["n"])
    return offs, totals


def ntile_events(sf_dir: str, tiles: int = 4) -> "rd.Dataset":
    """NTILE(``tiles``) per event_type over (value, event_id) order —
    requires each row's GLOBAL rank within its type, computed with the
    running_total two-pass plan re-keyed on (type, value-bucket):
    bounded per-(type, bucket) counts -> exclusive rank offsets on the
    driver -> in-bucket sort + arange.  No task ever sees more than one
    (type, bucket) slice; the driver holds |types| x |buckets| ints.

    The tile id is then pure integer math on (rank, n): DuckDB/standard
    NTILE gives the first n % k tiles ceil(n/k) rows.

    Partitioning assumption (shared with median_value_cont): the value
    distribution spreads across buckets — a constant-valued column
    degenerates to one bucket owning a whole type (correct, tested, but
    one task's memory at 100 TB; the scale mitigation is sampled-CDF
    bucket boundaries instead of unit-width ones)."""

    def skinny(df: pd.DataFrame) -> pd.DataFrame:
        v = df["value"].to_numpy()
        return pd.DataFrame(
            {
                "event_id": df["event_id"].astype("int64"),
                "event_type": df["event_type"],
                "cents": np.round(v * 100.0).astype("int64"),
                # value-range bucket: events values are uniform-ish and
                # 2-decimal; 1-unit buckets keep each slice tiny at any sf
                "bucket": np.floor(v).astype("int64"),
            }
        )

    stats = _events(
        sf_dir, ["event_id", "event_type", "value"]
    ).map_batches(skinny, batch_format="pandas", batch_size=65536)

    offs, totals = _type_bucket_offsets(sf_dir)
    off_ref = ray.put((offs, totals))

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        offs_d, totals_d = ray.get(off_ref)
        t = df["event_type"].iloc[0]
        rank0 = offs_d[(t, int(df["bucket"].iloc[0]))]
        n = totals_d[t]
        df = df.sort_values(["cents", "event_id"])
        rank = rank0 + np.arange(1, len(df) + 1, dtype=np.int64)
        # standard NTILE: first (n % k) tiles get ceil(n/k) rows
        k = tiles
        big = n // k + 1
        small = n // k
        n_big = n % k
        cut = n_big * big
        tile = np.where(
            rank <= cut,
            (rank - 1) // big + 1,
            n_big + (rank - cut - 1) // max(small, 1) + 1,
        ).astype("int64")
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy(),
                "event_type": t,
                "rnk": rank,
                "tile": tile,
            }
        )

    return stats.groupby(["event_type", "bucket"]).map_groups(
        per_bucket, batch_format="pandas"
    )


# ---------------- interpolated median (percentile_cont) ----------------------


def median_value_cont(sf_dir: str) -> pd.DataFrame:
    """PERCENTILE_CONT(0.5) per event_type — interpolated median, which
    needs the element(s) at GLOBAL sorted index floor/ceil((n-1)/2)
    within each type.  Same bounded (type, value-bucket) count pass as
    ntile_events: exclusive rank offsets tell each bucket slice which
    global indices it owns; only buckets containing a target index sort
    locally and emit <=2 rows, so the driver sees <=2 rows per type at
    any scale.  The raw doubles travel untouched (ordering by 2-decimal
    value == ordering by cents) and both engines interpolate the same
    two doubles; round(, 4) absorbs formula-order ulps (true medians
    live on the 0.005 grid, never at a 1e-4 rounding half-point)."""

    def skinny(df: pd.DataFrame) -> pd.DataFrame:
        v = df["value"].to_numpy()
        return pd.DataFrame(
            {
                "event_type": df["event_type"],
                "value": v,
                "bucket": np.floor(v).astype("int64"),
            }
        )

    stats = _events(
        sf_dir, ["event_type", "value"]
    ).map_batches(skinny, batch_format="pandas", batch_size=65536)

    offs, totals = _type_bucket_offsets(sf_dir)
    targets = {
        t: ((n - 1) // 2, n // 2) for t, n in totals.items()
    }
    ref = ray.put((offs, targets))

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        offs_d, tgt_d = ray.get(ref)
        t = df["event_type"].iloc[0]
        rank0 = offs_d[(t, int(df["bucket"].iloc[0]))]
        i0, i1 = tgt_d[t]
        hit = [i for i in {i0, i1} if rank0 <= i < rank0 + len(df)]
        if not hit:
            return pd.DataFrame(
                {"event_type": pd.Series([], dtype=object),
                 "idx": pd.Series([], dtype="int64"),
                 "value": pd.Series([], dtype="float64")}
            )
        v = np.sort(df["value"].to_numpy())
        return pd.DataFrame(
            {
                "event_type": t,
                "idx": np.array(hit, dtype="int64"),
                "value": v[[i - rank0 for i in hit]],
            }
        )

    sel = (
        stats.groupby(["event_type", "bucket"])
        .map_groups(pick, batch_format="pandas")
        .to_pandas()
    )
    rows = []
    for t, g in sel.groupby("event_type"):
        i0, i1 = targets[t]
        d = dict(zip(g["idx"], g["value"]))
        med = d[i0] if i0 == i1 else (d[i0] + d[i1]) / 2.0
        rows.append({"event_type": t, "n": totals[t],
                     "median_value": round(med, 4)})
    out = pd.DataFrame(rows).astype({"n": "int64"})
    return out.sort_values("event_type").reset_index(drop=True)


# ---------------- per-group mode (argmax over counts) -------------------------


def user_mode_event(sf_dir: str, n_shards: int = 64) -> "rd.Dataset":
    """Each user's MOST FREQUENT event type (the mode / argmax-by-count
    shape; first_event_per_user_day is its argmin-by-order sibling),
    ties to the lexicographically smaller type.

    Map-side per-batch (user, type) counts collapse before the one
    user-hash shuffle; in-shard one groupby-sum then a vectorized sort +
    drop_duplicates argmax — no per-user Python."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["user_id", "event_type"], as_index=False).size()
        g = g.rename(columns={"size": "p_n"})
        g["shard"] = g["user_id"].astype("int64") % n_shards
        return g.astype({"user_id": "int64", "p_n": "int64"})

    def per_shard(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["user_id", "event_type"], as_index=False).agg(
            n=("p_n", "sum"))
        g = g.sort_values(["user_id", "n", "event_type"],
                          ascending=[True, False, True])
        d = g.drop_duplicates("user_id", keep="first")
        return pd.DataFrame(
            {
                "user_id": d["user_id"].to_numpy(),
                "mode_type": d["event_type"].to_numpy(),
                "n": d["n"].to_numpy().astype(np.int64),
            }
        )

    return hash_exchange(
        _events(sf_dir, ["user_id", "event_type"])
        .map_batches(partial, batch_format="pandas", batch_size=65536),
        "shard", n_shards, per_shard,
    )


def next_purchase_event(sf_dir: str, n_shards: int = 64) -> "rd.Dataset":
    """FORWARD as-of within the event stream: for every event, the same
    user's NEXT purchase strictly after it in (ts, event_id) order, and
    the gap in exact microseconds (-1 sentinel when none follows) — the
    time-to-conversion shape (the LEAD sibling of asof_event_order;
    a forward as-of against ORDERS is degenerate on this corpus: every
    o_orderdate precedes every event ts).

    One user-hash shuffle; in-shard one sort then a vectorized SUFFIX
    scan: positions of purchases, reversed running-min shifted by one
    row gives each row the index of the next purchase after it — no
    per-user loop (user boundaries reset the scan via a sentinel)."""

    def add_shard(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        return pd.DataFrame(
            {
                "event_id": df["event_id"].astype("int64"),
                "user_id": df["user_id"].astype("int64"),
                "ts_us": us,
                "is_p": (df["event_type"] == "purchase").to_numpy(),
                "shard": df["user_id"].astype("int64") % n_shards,
            }
        )

    def per_shard(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):  # hash_exchange delivers empty shards too
            return pd.DataFrame(
                {c: pd.Series([], dtype="int64")
                 for c in ("event_id", "user_id",
                           "next_purchase_id", "gap_us")}
            )
        df = df.sort_values(["user_id", "ts_us", "event_id"])
        n = len(df)
        uid = df["user_id"].to_numpy()
        eid = df["event_id"].to_numpy()
        us = df["ts_us"].to_numpy()
        isp = df["is_p"].to_numpy()
        BIG = np.iinfo(np.int64).max
        pos = np.where(isp, np.arange(n, dtype=np.int64), BIG)
        # suffix running-min, reset at user boundaries: iterate the
        # reversed array once in numpy via np.minimum.accumulate on a
        # boundary-segmented view — segment resets are applied by
        # masking positions that belong to the NEXT user out afterwards
        nxt = np.minimum.accumulate(pos[::-1])[::-1]
        # shift by one: next purchase strictly AFTER row i
        nxt = np.concatenate([nxt[1:], [BIG]])
        # rows whose candidate belongs to a different user are cleared
        valid = nxt != BIG
        valid[valid] &= uid[nxt[valid]] == uid[np.nonzero(valid)[0]]
        out_eid = np.full(n, -1, dtype=np.int64)
        out_gap = np.full(n, -1, dtype=np.int64)
        vi = np.nonzero(valid)[0]
        out_eid[vi] = eid[nxt[vi]]
        out_gap[vi] = us[nxt[vi]] - us[vi]
        return pd.DataFrame(
            {
                "event_id": eid,
                "user_id": uid,
                "next_purchase_id": out_eid,
                "gap_us": out_gap,
            }
        )

    return hash_exchange(
        _events(sf_dir, ["event_id", "user_id", "ts", "event_type"])
        .map_batches(add_shard, batch_format="pandas", batch_size=65536),
        "shard", n_shards, per_shard,
    )


# ---------------- time-series densify (gap-fill resample) --------------------

_US_PER_HOUR = 3_600_000_000


def densify_hourly_user(sf_dir: str, n_shards: int = 64) -> "rd.Dataset":
    """Per-user DENSE hourly grid between the user's first and last
    event hour, missing hours gap-filled with zeros — the time-series
    resample/densify shape (SQL spells it generate_series + LEFT JOIN).

    One user-hash exchange of per-batch (user, hour) partials; inside a
    shard the dense grid expands with one vectorized repeat/arange (the
    chunk_documents expansion pattern, keyed by user span length) and
    the sparse aggregates land on it via a merge.  Emits exact integer
    cents.  Output cardinality = Σ per-user hour spans — corpus-class,
    so the Dataset stays lazy."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        d = pd.DataFrame(
            {
                "user_id": df["user_id"].astype("int64"),
                "hour": us // _US_PER_HOUR,
                "cents": np.round(df["value"].to_numpy() * 100.0)
                .astype("int64"),
            }
        )
        g = d.groupby(["user_id", "hour"], as_index=False).agg(
            p_n=("cents", "size"), p_c=("cents", "sum")
        )
        g["shard"] = g["user_id"] % n_shards
        return g

    def per_shard(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {
                    "user_id": pd.Series([], dtype="int64"),
                    "hour": pd.Series([], dtype="datetime64[us]"),
                    "events": pd.Series([], dtype="int64"),
                    "total_value_cents": pd.Series([], dtype="int64"),
                }
            )
        g = df.groupby(["user_id", "hour"], as_index=False).agg(
            n=("p_n", "sum"), c=("p_c", "sum")
        )
        span = g.groupby("user_id", as_index=False).agg(
            lo=("hour", "min"), hi=("hour", "max")
        )
        uid = span["user_id"].to_numpy()
        lo = span["lo"].to_numpy()
        k = (span["hi"].to_numpy() - lo + 1).astype("int64")
        tot = int(k.sum())
        base = np.repeat(np.cumsum(k) - k, k)
        hour = np.repeat(lo, k) + (np.arange(tot, dtype=np.int64) - base)
        dense = pd.DataFrame(
            {"user_id": np.repeat(uid, k), "hour": hour}
        ).merge(g, on=["user_id", "hour"], how="left")
        return pd.DataFrame(
            {
                "user_id": dense["user_id"].astype("int64"),
                "hour": (dense["hour"] * _US_PER_HOUR)
                .astype("datetime64[us]"),
                "events": dense["n"].fillna(0).astype("int64"),
                "total_value_cents": dense["c"].fillna(0).astype("int64"),
            }
        )

    return hash_exchange(
        _events(sf_dir, ["user_id", "ts", "value"])
        .map_batches(partial, batch_format="pandas", batch_size=65536),
        "shard", n_shards, per_shard,
    )


def rolling_distinct_users(
    sf_dir: str, window_days: int = 7, n_shards: int = 32
) -> "rd.Dataset":
    """EXACT trailing-window distinct count — (day, distinct_users) =
    users active in [day - window_days + 1, day] for every observed
    day.  Distinct-over-a-sliding-window does not decompose into
    mergeable per-day partials (unlike sums), so the plan materializes
    MEMBERSHIP, not counts: each per-batch-deduped (user, day) emits
    one contribution row per window it falls in (window_days rows),
    every row for window w routes to shard w % n_shards, and the
    per-shard nunique is exact because a window's whole membership
    lands in one shard.  Marker rows (user = -1) carry the observed
    days so windows are emitted only at days that exist, matching the
    oracle's days CTE.  Volume: window_days x |distinct (user, day)| —
    linear in the window span, never corpus-quadratic, and the
    in-batch dedup collapses each user's repeat events first."""
    ev = _events(sf_dir, ["ts", "user_id"])

    def contribute(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        d = pd.DataFrame(
            {"u": df["user_id"].to_numpy(np.int64),
             "day": us // _US_PER_DAY}
        ).drop_duplicates()
        u = d["u"].to_numpy(np.int64)
        day = d["day"].to_numpy(np.int64)
        days = np.unique(day)
        w_parts = [days]                      # markers: window == day
        u_parts = [np.full(len(days), -1, np.int64)]
        for off in range(window_days):
            w_parts.append(day + off)
            u_parts.append(u)
        w = np.concatenate(w_parts)
        return pd.DataFrame(
            {"u": np.concatenate(u_parts), "w": w,
             "shard": w % n_shards}
        )

    def count_distinct(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {"day": pd.Series([], dtype="int64"),
                 "distinct_users": pd.Series([], dtype="int64")}
            )
        u = df["u"].to_numpy(np.int64)
        observed = np.unique(df["w"].to_numpy(np.int64)[u == -1])
        d = df[(u != -1) & df["w"].isin(observed)]
        g = d.drop_duplicates(["u", "w"]).groupby("w").size()
        return pd.DataFrame(
            {"day": g.index.to_numpy(np.int64),
             "distinct_users": g.to_numpy(np.int64)}
        )

    return hash_exchange(
        ev.map_batches(contribute, batch_format="pandas"),
        "shard", n_shards, count_distinct,
    )


_COVER_US = 300_000_000  # 5-minute activity interval per event


def user_active_coverage(sf_dir: str, n_shards: int = 64) -> "rd.Dataset":
    """Union-of-intervals coverage — per user, the total microseconds
    covered by the union of [ts, ts + 5min) activity intervals (the
    interval-union operator behind "active time" metrics; overlapping
    bursts must not double-count).  With FIXED-length intervals the
    sorted sweep collapses to one vectorized expression: each event
    contributes min(L, next_ts - ts) and the last event per user
    contributes L — ties contribute 0 whatever their order, so the
    result is deterministic without an intra-tie sort key.

    One user-hash exchange of the skinny (user, ts_us) projection;
    per-shard lexsort + diff, no per-user loop.  Exact int64
    microseconds on both sides."""
    ev = _events(sf_dir, ["ts", "user_id"])

    def project(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        u = df["user_id"].to_numpy(np.int64)
        return pd.DataFrame(
            {"u": u, "t": us, "shard": u % n_shards}
        )

    def sweep(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {"user_id": pd.Series([], dtype="int64"),
                 "covered_us": pd.Series([], dtype="int64")}
            )
        u = df["u"].to_numpy(np.int64)
        t = df["t"].to_numpy(np.int64)
        order = np.lexsort((t, u))
        u, t = u[order], t[order]
        gap = np.empty(len(t), np.int64)
        gap[:-1] = t[1:] - t[:-1]
        gap[-1] = _COVER_US
        last_of_user = np.r_[u[1:] != u[:-1], True]
        gap[last_of_user] = _COVER_US
        contrib = np.minimum(gap, _COVER_US)
        s = pd.DataFrame({"u": u, "c": contrib}).groupby(
            "u", sort=False
        )["c"].sum()
        return pd.DataFrame(
            {"user_id": s.index.to_numpy(np.int64),
             "covered_us": s.to_numpy(np.int64)}
        )

    return hash_exchange(
        ev.map_batches(project, batch_format="pandas"),
        "shard", n_shards, sweep,
    )


def event_pattern_match(
    sf_dir: str, pattern: tuple[str, ...] = ("view", "click", "purchase"),
    n_shards: int = 64,
) -> "rd.Dataset":
    """CEP-style sequence pattern matching: per user, how many times
    the CONSECUTIVE event-type pattern (view, click, purchase by
    default) occurs in the (ts, event_id)-ordered stream — the
    MATCH_RECOGNIZE shape funnels, fraud rules and session mining run.

    Physical plan is the event_transitions shape: one user-hash
    exchange; in-shard ONE vectorized sort + a same-user boolean mask
    ANDed across the pattern offsets (no per-user Python, no per-match
    row explosion — the count is a mask sum).  Only matching users
    emit.  Output is a lazy Dataset; the lead()-window oracle
    hash-matches."""

    def add_shard(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(shard=df["user_id"].astype("int64") % n_shards)

    L = len(pattern)

    def per_shard(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"user_id": pd.Series([], dtype="int64"),
             "matches": pd.Series([], dtype="int64")})
        if len(df) < L:
            return empty
        df = df.sort_values(["user_id", "ts", "event_id"])
        et = df["event_type"].to_numpy()
        uid = df["user_id"].to_numpy(np.int64)
        n = len(df) - (L - 1)
        mask = np.ones(n, dtype=bool)
        for k in range(L):
            mask &= et[k:k + n] == pattern[k]
        mask &= uid[L - 1:L - 1 + n] == uid[:n]  # whole window one user
        if not mask.any():
            return empty
        return (
            pd.DataFrame({"user_id": uid[:n][mask]})
            .groupby("user_id", as_index=False)
            .agg(matches=("user_id", "size"))
            .astype("int64")
        )

    return hash_exchange(
        _events(sf_dir, ["user_id", "ts", "event_id", "event_type"])
        .map_batches(add_shard, batch_format="pandas", batch_size=65536),
        "shard", n_shards, per_shard,
    )


def interarrival_quantiles(
    sf_dir: str, n_shards: int = 32
) -> pd.DataFrame:
    """Exact p50/p99 of the GLOBAL inter-arrival gap (microseconds)
    between consecutive events of each type — latency-style
    percentiles where NO grouping key localizes the computation (the
    window ops shard by user; here consecutive neighbors of a type
    span the whole corpus).  The distributed consecutive-difference
    primitive:

    1. deterministic ts-range partitioning (equal-width between the
       streamed min/max — balance, not correctness, depends on the
       split, so no quantile pass is needed);
    2. in-shard vectorized per-type diffs — all interior gaps;
    3. each shard's per-type FIRST/LAST rows (types x shards rows)
       chain on the driver into the cross-shard boundary gaps a
       range partition cannot see;
    4. exact p50/p99 over interior ∪ boundary gaps via the
       histogram-refinement selection.  The exchange pins the SKINNY
       (type, gap) projection in the object store (the selection
       re-reads it per refinement round); nothing row-width-wide ever
       materializes.

    Every gap is an int64 microsecond difference, so the lag()-window
    oracle hash-matches.  n_gaps = n_events(type) - 1 rides the same
    partials."""
    from tensorflow_ocr_ray.stages.selection import exact_group_quantiles

    ev = _events(sf_dir, ["event_type", "ts", "event_id"])

    def to_us(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"event_type": df["event_type"],
             "us": df["ts"].to_numpy().astype("datetime64[us]")
             .astype(np.int64),
             "event_id": df["event_id"].astype("int64")})

    mm = (
        ev.map_batches(to_us, batch_format="pandas", batch_size=65536)
        .map_batches(
            lambda df: pd.DataFrame({"lo": [df["us"].min()],
                                     "hi": [df["us"].max()]}),
            batch_format="pandas",
        )
        .to_pandas()
    )
    lo, hi = int(mm["lo"].min()), int(mm["hi"].max())
    bounds = np.linspace(lo, hi, n_shards + 1)[1:-1].astype(np.int64)
    bref = ray.put(bounds)

    def add_shard(df: pd.DataFrame) -> pd.DataFrame:
        d = to_us(df)
        d["shard"] = np.searchsorted(
            ray.get(bref), d["us"].to_numpy(np.int64), side="left"
        ).astype(np.int64)
        return d

    def shard_gaps(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"event_type": "object", "gap": "int64", "us": "int64",
                "event_id": "int64", "kind": "int64", "shard": "int64"}
        if not len(df):
            return pd.DataFrame({k: pd.Series([], dtype=v)
                                 for k, v in cols.items()})
        df = df.sort_values(["event_type", "us", "event_id"])
        et = df["event_type"].to_numpy()
        us = df["us"].to_numpy(np.int64)
        same = np.r_[False, et[1:] == et[:-1]]
        interior = pd.DataFrame(
            {"event_type": et[same], "gap": np.diff(us)[same[1:]],
             "us": np.int64(0), "event_id": np.int64(0),
             "kind": np.int64(0)})
        firsts = ~same
        lasts = np.r_[~same[1:], True]
        sid = int(df["shard"].iloc[0])
        edge = pd.DataFrame(
            {"event_type": np.concatenate([et[firsts], et[lasts]]),
             "gap": np.int64(0),
             "us": np.concatenate([us[firsts], us[lasts]]),
             "event_id": np.concatenate(
                 [df["event_id"].to_numpy(np.int64)[firsts],
                  df["event_id"].to_numpy(np.int64)[lasts]]),
             "kind": np.concatenate(
                 [np.full(int(firsts.sum()), 1, np.int64),
                  np.full(int(lasts.sum()), 2, np.int64)])})
        out = pd.concat([interior, edge], ignore_index=True)
        out["shard"] = np.int64(sid)
        return out.astype({k: v for k, v in cols.items()
                           if k != "event_type"})

    routed = hash_exchange(
        ev.map_batches(add_shard, batch_format="pandas",
                       batch_size=65536),
        "shard", n_shards, shard_gaps,
    ).materialize()

    # boundary stitch: per type, chain shard k's last -> next shard's
    # first (skipping shards without the type) — types x shards rows
    edges = (
        routed.map_batches(
            lambda df: df[df["kind"] > 0], batch_format="pandas")
        .to_pandas()
        .sort_values(["event_type", "us", "event_id"])
    )
    boundary_rows = []
    for et, g in edges.groupby("event_type"):
        g = g.sort_values(["shard", "kind"])
        last_of_prev = None
        for sid, sg in g.groupby("shard"):
            first = sg[sg["kind"] == 1].iloc[0]
            last = sg[sg["kind"] == 2].iloc[-1]
            if last_of_prev is not None:
                boundary_rows.append(
                    (et, int(first["us"]) - int(last_of_prev)))
            last_of_prev = int(last["us"])
    extra = pd.DataFrame(boundary_rows, columns=["event_type", "gap"])

    gaps_interior = routed.map_batches(
        lambda df: df.loc[df["kind"] == 0, ["event_type", "gap"]],
        batch_format="pandas",
    )
    gaps = (
        gaps_interior.union(rd.from_pandas(extra))
        if len(extra) else gaps_interior
    )
    q = exact_group_quantiles(
        gaps, "event_type", "gap", ((0.5, "p50_gap_us"),
                                    (0.99, "p99_gap_us")))
    counts = (
        gaps.map_batches(
            lambda df: df.groupby("event_type", as_index=False)
            .agg(n_gaps=("gap", "size")),
            batch_format="pandas",
        )
        .to_pandas()
        .groupby("event_type", as_index=False)["n_gaps"].sum()
    )
    out = q.merge(counts, on="event_type")
    return (
        out[["event_type", "n_gaps", "p50_gap_us", "p99_gap_us"]]
        .astype({"n_gaps": "int64", "p50_gap_us": "int64",
                 "p99_gap_us": "int64"})
        .sort_values("event_type").reset_index(drop=True)
    )


def linear_attribution(sf_dir: str, days: int = 30,
                       n_shards: int = 64) -> "rd.Dataset":
    """Multi-touch LINEAR attribution — each purchase distributes
    exactly 1,000,000 ppm of credit equally across the same user's
    view events in the preceding ``days`` window; the integer split is
    floor(1e6/n) per touch with the remainder assigned to the EARLIEST
    touch (ties by event_id), so credits always sum to exactly 1e6 and
    the window-function oracle hash-matches.  Unattributed purchases
    emit touch -1 with full credit (the first_touch -1 convention).

    Same physical plan as first_touch_attribution (skinny typed
    streams through one user-hash exchange, in-shard searchsorted
    windows); the per-touch fan-out is bounded by views-per-user in
    the window, vectorized with repeat/arange indexing."""
    delta = np.int64(days * _US_PER_DAY)

    def rows(side_type: str, side_tag: int):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            d = df[df["event_type"] == side_type]
            key = d["user_id"].astype("int64")
            return pd.DataFrame(
                {
                    "user_id": key,
                    "event_id": d["event_id"].astype("int64"),
                    "t_us": d["ts"].to_numpy()
                    .astype("datetime64[us]").astype("int64"),
                    "side": np.int64(side_tag),
                    "shard": key % n_shards,
                }
            )

        return fn

    src = _events(sf_dir, ["event_id", "user_id", "ts", "event_type"])
    v = src.map_batches(rows("view", 0), batch_format="pandas",
                        batch_size=65536)
    p = src.map_batches(rows("purchase", 1), batch_format="pandas",
                        batch_size=65536)

    def attribute(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"purchase_event_id": "int64",
                "touch_event_id": "int64", "credit_ppm": "int64"}
        vb = df[df["side"] == 0].sort_values(
            ["user_id", "t_us", "event_id"]
        )
        pb = df[df["side"] == 1]
        if not len(pb):
            return pd.DataFrame({k: pd.Series([], dtype=t)
                                 for k, t in cols.items()})
        v_uid = vb["user_id"].to_numpy()
        v_t = vb["t_us"].to_numpy()
        v_id = vb["event_id"].to_numpy()
        p_uid = pb["user_id"].to_numpy()
        p_t = pb["t_us"].to_numpy()
        p_id = pb["event_id"].to_numpy()
        out_p, out_v, out_c = [], [], []
        for k in np.unique(p_uid):
            lo = np.searchsorted(v_uid, k, side="left")
            hi = np.searchsorted(v_uid, k, side="right")
            rows_ = np.nonzero(p_uid == k)[0]
            t = p_t[rows_]
            a = np.searchsorted(v_t[lo:hi], t - delta, side="left")
            b = np.searchsorted(v_t[lo:hi], t, side="left")
            n = b - a
            hit = n > 0
            # unattributed: full credit to -1
            for r in rows_[~hit]:
                out_p.append(p_id[r])
                out_v.append(np.int64(-1))
                out_c.append(np.int64(1_000_000))
            if not hit.any():
                continue
            rh, ah, nh = rows_[hit], a[hit], n[hit]
            total = int(nh.sum())
            pid_rep = np.repeat(p_id[rh], nh)
            base = np.repeat(1_000_000 // nh, nh)
            offs = np.arange(total) - np.repeat(
                np.cumsum(nh) - nh, nh)
            vidx = lo + np.repeat(ah, nh) + offs
            rem = np.repeat(1_000_000 % nh, nh)
            credit = base + np.where(offs == 0, rem, 0)
            out_p.append(pid_rep)
            out_v.append(v_id[vidx])
            out_c.append(credit)
        return pd.DataFrame(
            {"purchase_event_id": np.concatenate(
                [np.atleast_1d(x) for x in out_p]).astype(np.int64),
             "touch_event_id": np.concatenate(
                 [np.atleast_1d(x) for x in out_v]).astype(np.int64),
             "credit_ppm": np.concatenate(
                 [np.atleast_1d(x) for x in out_c]).astype(np.int64)}
        )

    return hash_exchange(v.union(p), "shard", n_shards, attribute)


def latest_event_snapshot(sf_dir: str, n_shards: int = 64) -> "rd.Dataset":
    """Latest-per-key compaction — per (user_id, event_type) keep the
    LATEST event (max ts, tiebreak max event_id): the streaming-upsert
    snapshot read every CDC/lakehouse table serves (``SELECT * ...
    QUALIFY row_number() OVER (... ORDER BY ts DESC) = 1``), and the
    compaction pass that bounds an append-only event log to one row
    per live key.

    ONE user-hash exchange co-locates each user's rows; inside a shard
    one vectorized lexsort over (user, type, ts, event_id) + a
    next-row boundary mask selects group tails — no per-key Python.
    Output is key-cardinality sized, so the exchange's lazy Dataset is
    returned.  Exact integer cents; oracle is the row_number window,
    hash-matched."""

    def add_shard(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        return pd.DataFrame(
            {"user_id": df["user_id"].astype("int64"),
             "event_type": df["event_type"],
             "ts_us": us,
             "event_id": df["event_id"].astype("int64"),
             "value_cents": np.round(
                 df["value"].to_numpy() * 100.0).astype("int64"),
             "shard": df["user_id"].to_numpy(np.int64) % n_shards})

    def tails(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["user_id", "event_type", "ts_us", "event_id",
                "value_cents"]
        if not len(df):
            out = pd.DataFrame({c: pd.Series([], dtype="int64")
                                for c in cols})
            return out.astype({"event_type": "object"})
        u = df["user_id"].to_numpy(np.int64)
        t = pd.factorize(df["event_type"].to_numpy())[0]
        order = np.lexsort((df["event_id"].to_numpy(np.int64),
                            df["ts_us"].to_numpy(np.int64), t, u))
        s = df.iloc[order].reset_index(drop=True)
        su, st = u[order], t[order]
        last = np.empty(len(s), bool)
        last[:-1] = (su[:-1] != su[1:]) | (st[:-1] != st[1:])
        last[-1] = True
        return s.loc[last, cols].reset_index(drop=True)

    ev = _events(sf_dir,
                 ["event_id", "ts", "user_id", "event_type", "value"])
    return hash_exchange(
        ev.map_batches(add_shard, batch_format="pandas",
                       batch_size=65536),
        "shard", n_shards, tails,
    )


LATE_LANES = 16
LATE_THRESHOLD_US = 86_400_000_000  # 1 day


def late_event_audit(sf_dir: str, n_ranges: int = 8) -> pd.DataFrame:
    """Watermark / late-data audit — the streaming-ingestion health
    check run before choosing window allowed-lateness: against the
    corpus's ARRIVAL order, how many events arrive behind the running
    high-water mark (max ts seen so far), per type, and by how much.
    Arrival is modelled as ``LATE_LANES`` interleaved delivery lanes
    (``event_id % 16``: per-lane in-order, cross-lane skew — the
    multi-partition consumer every log ingest has), so arrival order
    is (lane, event_id).

    This needs a GLOBAL PREFIX-MAX over a total order — the running_
    total shape with max instead of sum: shards are (lane, event_id-
    range) slices of the arrival order; pass 1 tree-reduces per-shard
    max-ts partials (bounded |lanes| x |ranges| rows) and the driver
    chains them into each shard's exclusive initial watermark; pass 2
    routes ONE hash exchange where each shard accumulates its own
    prefix max from that initial value and pre-reduces to per-type
    (n, n_late, max_behind) partials.  Nothing corpus-sized reaches
    the driver.  The global first event is its own watermark (behind
    = 0, the oracle's coalesce).  Oracle: max() OVER (ORDER BY lane,
    event_id ROWS .. 1 PRECEDING), hash-matched."""
    ev = _events(sf_dir, ["event_id", "ts", "event_type"])
    max_id_raw = ev.max("event_id")   # None on an empty events table
    if max_id_raw is None:
        return pd.DataFrame(
            {"event_type": pd.Series([], dtype="object"),
             "n_events": pd.Series([], dtype="int64"),
             "n_late": pd.Series([], dtype="int64"),
             "max_behind_us": pd.Series([], dtype="int64")})
    max_id = int(max_id_raw)
    n_shards = LATE_LANES * n_ranges
    sentinel = np.int64(-(2**62))

    def add_shard(df: pd.DataFrame) -> pd.DataFrame:
        eid = df["event_id"].to_numpy(np.int64)
        us = df["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        lane = eid % LATE_LANES
        rng = eid * n_ranges // (max_id + 1)
        return pd.DataFrame(
            {"event_id": eid, "ts_us": us,
             "event_type": df["event_type"],
             "shard": lane * n_ranges + rng})

    tagged = ev.map_batches(add_shard, batch_format="pandas",
                            batch_size=65536)

    # pass 1: per-shard max ts -> exclusive prefix max in shard order
    part = (
        tagged.map_batches(
            lambda df: df.groupby("shard", as_index=False)["ts_us"]
            .max(),
            batch_format="pandas", batch_size=65536)
        .to_pandas()
        .groupby("shard", as_index=False)["ts_us"].max()
    )
    shard_max = np.full(n_shards, sentinel, np.int64)
    shard_max[part["shard"].to_numpy(np.int64)] = \
        part["ts_us"].to_numpy(np.int64)
    inits = np.full(n_shards, sentinel, np.int64)
    np.maximum.accumulate(shard_max[:-1], out=inits[1:])
    init_ref = ray.put(inits)

    def audit(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["event_type", "n_events", "n_late", "max_behind_us"]
        if not len(df):
            out = pd.DataFrame({c: pd.Series([], dtype="int64")
                                for c in cols})
            return out.astype({"event_type": "object"})
        w0 = ray.get(init_ref)[int(df["shard"].iloc[0])]
        s = df.sort_values("event_id").reset_index(drop=True)
        ts = s["ts_us"].to_numpy(np.int64)
        pm = np.empty(len(ts), np.int64)
        pm[0] = w0
        np.maximum.accumulate(
            np.concatenate([[w0], ts[:-1]]), out=pm)
        if w0 == sentinel:        # global first event: own watermark
            pm[0] = ts[0]
        behind = pm - ts
        g = pd.DataFrame({"event_type": s["event_type"],
                          "behind": behind})
        out = g.groupby("event_type").agg(
            n_events=("behind", "size"),
            n_late=("behind",
                    lambda b: int((b > LATE_THRESHOLD_US).sum())),
            max_behind_us=("behind", "max")).reset_index()
        return out.astype({"n_events": "int64", "n_late": "int64",
                           "max_behind_us": "int64"})

    parts = hash_exchange(tagged, "shard", n_shards, audit).to_pandas()
    return (
        parts.groupby("event_type", as_index=False)
        .agg(n_events=("n_events", "sum"), n_late=("n_late", "sum"),
             max_behind_us=("max_behind_us", "max"))
        .astype({"n_events": "int64", "n_late": "int64",
                 "max_behind_us": "int64"})
        .sort_values("event_type").reset_index(drop=True)
    )


def user_growth_curve(sf_dir: str, n_shards: int = 32) -> pd.DataFrame:
    """Cumulative-distinct growth curve — "how many unique users has
    the product ever seen, by day": the running COUNT(DISTINCT)
    no engine computes directly at scale.  Exact plan: distinct is a
    FIRST-OCCURRENCE problem — one user-hash exchange takes each
    user's min active day (disjoint user ranges -> exact), each shard
    pre-reduces to a (first_day -> n_new_users) histogram bounded by
    the calendar grid, and the driver's cumulative sum over the merged
    grid is the growth curve.  Nothing user-cardinality-sized reaches
    the driver.  Oracle: min(day) per user + window cumsum,
    hash-matched."""

    def add_shard(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        g = pd.DataFrame(
            {"user_id": df["user_id"].astype("int64"),
             "day": us // 86_400_000_000}
        ).groupby("user_id", as_index=False)["day"].min()
        g["shard"] = g["user_id"].to_numpy(np.int64) % n_shards
        return g.astype("int64")

    def first_day_hist(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["day", "new_users"]
        if not len(df):
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in cols})
        first = df.groupby("user_id")["day"].min()
        h = (first.value_counts().rename_axis("day")
             .reset_index(name="new_users"))
        return h.astype("int64")

    ev = _events(sf_dir, ["user_id", "ts"])
    grid = (
        hash_exchange(
            ev.map_batches(add_shard, batch_format="pandas",
                           batch_size=65536),
            "shard", n_shards, first_day_hist)
        .to_pandas()
        .groupby("day", as_index=False)["new_users"].sum()
        .sort_values("day").reset_index(drop=True)
    )
    grid["cum_users"] = grid["new_users"].cumsum()
    return grid.astype("int64")


MARKOV_ITERS = 8
MARKOV_SCALE = 1_000_000


def markov_stationary(sf_dir: str) -> pd.DataFrame:
    """Stationary distribution of the event-type Markov chain — where
    user sessions settle in the long run, the steady-state number a
    journey analysis reports next to the raw transition matrix.
    Power iteration in EXACT integer arithmetic: mass starts at
    SCALE per state and each step routes floor(mass * c_ij /
    rowsum_i) along every observed transition (floors shed a few
    units of mass per step — deterministic on both sides, the
    pagerank integer-units convention).  The corpus-sized work is the
    transition-count pass (event_transitions' user-hash-exchange
    plan, reused); the iteration itself runs on the bounded
    |types|^2 matrix.  Oracle: the same counts CTE + the iteration
    unrolled as chained aggregates (aggregation in a recursive CTE is
    not portable — the daily_holt unroll lesson), hash-matched."""
    from tensorflow_ocr_ray.pipelines.windows import event_transitions

    t = event_transitions(sf_dir)
    if hasattr(t, "to_pandas"):
        t = t.to_pandas()
    t = t.copy()
    rs = t.groupby("from_type")["transitions"].transform("sum")
    t["rs"] = rs
    states = sorted(set(t["from_type"]) | set(t["to_type"]))
    mass = {s: MARKOV_SCALE for s in states}
    for _ in range(MARKOV_ITERS):
        nxt = {s: 0 for s in states}
        for ft, tt, c, r in zip(t["from_type"], t["to_type"],
                                t["transitions"], t["rs"]):
            nxt[tt] += mass[ft] * int(c) // int(r)
        mass = nxt
    return (pd.DataFrame({"event_type": states,
                          "mass": [mass[s] for s in states]})
            .astype({"mass": "int64"})
            .sort_values("event_type").reset_index(drop=True))


def session_duration_quantiles(sf_dir: str) -> pd.DataFrame:
    """Exact p50/p90/p99 session duration (plus count and max) — the
    engagement report a product team reads off the sessionized
    stream, and the composition exhibit: the exact-selection stage
    (stages/selection.py histogram refinement) running over a DERIVED
    distributed pipeline (sessionize's lazy exchange output), not a
    base table — durations are never materialized to the driver; the
    selection sees only bounded histograms per round.  Integer
    microsecond durations end to end.  Oracle: the sessionize window
    chain + quantile_disc, hash-matched."""
    from tensorflow_ocr_ray.stages.selection import exact_group_quantiles

    def durations(df: pd.DataFrame) -> pd.DataFrame:
        d = (df["session_end"].to_numpy().astype("datetime64[us]")
             .astype(np.int64)
             - df["session_start"].to_numpy().astype("datetime64[us]")
             .astype(np.int64))
        return pd.DataFrame({"grp": np.int64(0), "dur_us": d})

    def dur_ds():
        return sessionize(sf_dir).map_batches(
            durations, batch_format="pandas", batch_size=65536)

    qs = ((0.5, "p50_us"), (0.9, "p90_us"), (0.99, "p99_us"))
    q = exact_group_quantiles(dur_ds(), "grp", "dur_us", qs)

    stats = (
        dur_ds().map_batches(
            lambda df: pd.DataFrame(
                {"n": [len(df)],
                 "mx": [int(df["dur_us"].max()) if len(df) else 0]}),
            batch_format="pandas", batch_size=65536)
        .to_pandas()
    )
    return pd.DataFrame(
        {"n_sessions": [int(stats["n"].sum())],
         "p50_us": [int(q["p50_us"].iloc[0])],
         "p90_us": [int(q["p90_us"].iloc[0])],
         "p99_us": [int(q["p99_us"].iloc[0])],
         "max_us": [int(stats["mx"].max())]}).astype("int64")


def weekly_churn(sf_dir: str, n_shards: int = 32) -> pd.DataFrame:
    """Week-over-week churn/retention counts — the subscription-health
    table next to cohort_retention's matrix: for every consecutive
    week pair (w, w+1): users active in w, retained into w+1, churned
    out, and newly appearing.  One user-hash exchange; in-shard each
    user's active weeks collapse to a BITMASK over the bounded
    calendar grid (the user_bitmap_activity trick — OR-idempotent, so
    batch layout cannot matter), and per-shard (week-pair, four
    counts) partials sum exactly across disjoint user ranges.
    Oracle: per-user distinct weeks self-joined w -> w+1 with
    FULL OUTER semantics via filtered counts, hash-matched."""

    def add_shard(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        g = pd.DataFrame(
            {"user_id": df["user_id"].astype("int64"),
             "week": us // (7 * 86_400_000_000)}
        ).drop_duplicates()
        g["shard"] = g["user_id"].to_numpy(np.int64) % n_shards
        return g.astype("int64")

    ev = _events(sf_dir, ["user_id", "ts"])
    tagged = ev.map_batches(add_shard, batch_format="pandas",
                            batch_size=65536)

    # global week range from a bounded pre-pass (weeks are few)
    wk = (tagged.map_batches(
        lambda df: pd.DataFrame({"lo": [int(df["week"].min())],
                                 "hi": [int(df["week"].max())]}),
        batch_format="pandas", batch_size=65536).to_pandas())
    lo, hi = int(wk["lo"].min()), int(wk["hi"].max())
    n_weeks = hi - lo + 1

    def pair_counts(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["week", "n_active", "n_retained", "n_churned",
                "n_new"]
        if not len(df):
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in cols})
        d = df.drop_duplicates(["user_id", "week"])
        users, uidx = np.unique(d["user_id"].to_numpy(np.int64),
                                return_inverse=True)
        mask = np.zeros((len(users), n_weeks), bool)
        mask[uidx, d["week"].to_numpy(np.int64) - lo] = True
        rows = []
        for w in range(n_weeks - 1):
            a, b = mask[:, w], mask[:, w + 1]
            rows.append((lo + w, int(a.sum()), int((a & b).sum()),
                         int((a & ~b).sum()), int((~a & b).sum())))
        return pd.DataFrame(rows, columns=cols).astype("int64")

    parts = hash_exchange(tagged, "shard", n_shards,
                          pair_counts).to_pandas()
    return (
        parts.groupby("week", as_index=False)
        .agg(n_active=("n_active", "sum"),
             n_retained=("n_retained", "sum"),
             n_churned=("n_churned", "sum"),
             n_new=("n_new", "sum"))
        .astype("int64").sort_values("week").reset_index(drop=True)
    )


def seasonal_profile(sf_dir: str) -> pd.DataFrame:
    """Day-of-week x hour-of-day activity heat grid with exact ppm
    shares — the seasonality profile capacity planning and
    anomaly-baseline jobs read (daily_anomaly_days flags deviations
    FROM this baseline).  One streaming pass, bounded 7x24 grid
    partials tree-combine; dow follows ISO (Monday=0, derived from
    the epoch day: 1970-01-01 was a Thursday, so dow = (day + 3) %
    7), matching DuckDB's isodow - 1.  All integers; oracle GROUP BY
    + window total, hash-matched."""
    ev = _events(sf_dir, ["ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        day = us // 86_400_000_000
        g = pd.DataFrame(
            {"dow": (day + 3) % 7,
             "hour": (us // 3_600_000_000) % 24}
        ).groupby(["dow", "hour"]).size().rename("n").reset_index()
        return g.astype("int64")

    grid = (
        ev.map_batches(partial, batch_format="pandas", batch_size=65536)
        .to_pandas()
        .groupby(["dow", "hour"], as_index=False)["n"].sum()
    )
    total = int(grid["n"].sum())
    grid["share_ppm"] = (grid["n"].to_numpy(np.int64) * 1_000_000
                         // max(total, 1))
    return (grid.astype("int64").sort_values(["dow", "hour"])
            .reset_index(drop=True))
