"""Deduplication pipelines over the ``documents`` table.

Five strategies, from exact to fuzzy — the core toolkit of a training-data
pipeline:

- exact:          hash-partition on text (groupby) → first doc per group
- char-jaccard:   character-set Jaccard pairs within (source) buckets —
                  semantics chosen to be SQL-oracle-checkable against
                  DuckDB's ``jaccard()``
- ngram-jaccard:  3-gram shingle Jaccard pairs within buckets
- minhash-LSH:    shingle → MinHash signature → banded LSH buckets →
                  groupby(bucket) candidate pairs → verified clusters
- simhash:        64-bit near-dup fingerprints (hamming-ball dedup)

All hashing is deterministic (crc/md5); no salted ``hash()`` anywhere.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd
from ray.data.aggregate import Count, Min

from tensorflow_ocr_ray import cache
from tensorflow_ocr_ray.functions.textstats import (
    MinHasher,
    char_set_jaccard,
    char_shingles,
    jaccard_shingles,
    simhash_batch,
)


def _docs(sf_dir: str, columns: list[str] | None = None) -> "rd.Dataset":
    return rd.read_parquet(f"{sf_dir}/documents.parquet", columns=columns)


def dedup_exact(sf_dir: str, n_shards: int | None = None) -> "rd.Dataset":
    """Exact dedup: keep the smallest doc_id per identical text.

    Routed by an md5(text)-derived small-int shard (the
    ``dedup_keep_list`` hash pattern) so the exchange compares 8-byte
    keys — the pre-r4 version ran ``groupby("text")``, which shipped
    every byte of the corpus through the sort shuffle AS THE KEY.  The
    text still travels once as payload (the result schema includes it),
    but inside a shard grouping is pandas-hash on co-located strings,
    and identical texts land in one shard by construction (same md5 →
    same shard), so the group-min is exact even across md5-prefix
    collisions (the in-shard group key is the text itself).

    Returns the LAZY Dataset — the result is corpus-cardinality (one row
    per distinct text), so it must stream to a sink at scale, never
    collect on the driver."""
    from tensorflow_ocr_ray.functions.textstats import _md5_prefix_batch
    from tensorflow_ocr_ray.stages.exchange import (
        adaptive_shards,
        hash_exchange,
        meta_rows,
    )

    if n_shards is None:
        # full text rides the exchange as payload: size shards to ~64 MB
        # at 1 KB/doc rather than the int-partial default
        n_shards = adaptive_shards(
            meta_rows(sf_dir, "documents"), target_rows=65536
        )
    ds = _docs(sf_dir, ["doc_id", "text"])

    def add_shard(df: pd.DataFrame) -> pd.DataFrame:
        # hash a BOUNDED key (length + 256-char prefix), not the full
        # text: identical texts still share a shard by construction, a
        # prefix collision merely co-locates different texts (resolved
        # by the in-shard group on the text itself), and per-doc hash
        # cost stays O(1) regardless of document length.  The length
        # component spreads shared-boilerplate prefixes of different
        # sizes.
        keys = [f"{len(t)}:{t[:256]}" for t in df["text"]]
        h = _md5_prefix_batch(keys, 8).astype(np.uint64)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "text": df["text"],
                "shard": (h % np.uint64(n_shards)).astype("int64"),
            }
        )

    def per_shard(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("text", as_index=False).agg(
            keeper_doc_id=("doc_id", "min"), copies=("doc_id", "size")
        )
        g["keeper_doc_id"] = g["keeper_doc_id"].astype("int64")
        g["copies"] = g["copies"].astype("int64")
        return g[["text", "keeper_doc_id", "copies"]]

    return hash_exchange(
        ds.map_batches(add_shard, batch_format="pandas", batch_size=4096),
        "shard", n_shards, per_shard,
    )


def _pairs_in_bucket(
    df: pd.DataFrame, set_fn, threshold: float, digits: int | None = 4
) -> pd.DataFrame:
    """Quadratic pair scan within one bucket, with the per-doc set computed
    ONCE (set Jaccard per pair is then two set ops, not two re-parses).

    ``digits=None`` emits the raw IEEE double ratio — bit-identical to a
    SQL ``CAST(isz AS DOUBLE)/union`` on the same integers, so the oracle
    hash-compares exactly without rounding-mode hazards."""
    df = df.sort_values("doc_id")
    ids = df["doc_id"].tolist()
    sets = [set_fn(t) for t in df["text"]]
    rows = []
    for i in range(len(ids)):
        si = sets[i]
        for j in range(i + 1, len(ids)):
            sj = sets[j]
            if not si and not sj:
                s = 1.0
            else:
                union = len(si | sj)
                s = len(si & sj) / union if union else 0.0
            if s >= threshold:
                rows.append((ids[i], ids[j],
                             round(s, digits) if digits is not None else s))
    return pd.DataFrame(rows, columns=["doc_a", "doc_b", "sim"]).astype(
        {"doc_a": "int64", "doc_b": "int64", "sim": "float64"}
    )


def char_jaccard_pairs(sf_dir: str, threshold: float = 0.95) -> "rd.Dataset":
    """All same-source pairs with character-set Jaccard ≥ threshold.

    Bucketing by ``source`` bounds the quadratic comparison to per-bucket
    sizes (the classic blocked-pairs pattern); the per-bucket work runs in
    ``map_groups`` across the cluster.  Returns the LAZY Dataset — pair
    cardinality grows with the corpus, so the result streams to a sink
    like ``dedup_exact`` does (the driver compare sorts rows itself)."""
    ds = _docs(sf_dir, ["doc_id", "text", "source"])
    return ds.groupby("source").map_groups(
        lambda df: _pairs_in_bucket(df, set, threshold),
        batch_format="pandas",
    )


def ngram_jaccard_pairs(sf_dir: str, threshold: float = 0.5) -> "rd.Dataset":
    """Same-source pairs with 3-gram shingle Jaccard ≥ threshold.

    ``sim`` is the unrounded double ratio so the DuckDB shingle-join
    oracle (string 3-grams, same ws-collapse + lowercase normalization)
    hash-matches bit-for-bit; crc32 shingle hashing is collision-free on
    these corpora (asserted in tests).  Lazy Dataset result (see
    ``char_jaccard_pairs``)."""
    ds = _docs(sf_dir, ["doc_id", "text", "source"])
    return ds.groupby("source").map_groups(
        lambda df: _pairs_in_bucket(df, char_shingles, threshold, digits=None),
        batch_format="pandas",
    )


def _minhash_candidates(
    ds: "rd.Dataset", num_perm: int, bands: int
) -> "rd.Dataset":
    """LSH candidate pairs: signature per doc (actor stage, hasher built
    once) → (band_key, doc_id) rows → groupby(band_shard) emits same-band
    pairs.  May contain duplicates (a pair agreeing in several bands)."""
    n_shards = 64  # coarse shuffle key: O(shards) group calls, not O(bands)

    class Signatures:
        def __init__(self):
            self.mh = MinHasher(num_perm=num_perm)

        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            rows = []
            for doc_id, text in zip(df["doc_id"], df["text"]):
                sig = self.mh.signature(text)
                for key in self.mh.band_keys(sig, bands=bands):
                    rows.append(
                        {"band_key": key, "band_shard": key % n_shards,
                         "doc_id": doc_id}
                    )
            return pd.DataFrame(
                rows, columns=["band_key", "band_shard", "doc_id"]
            )

    banded = ds.map_batches(
        Signatures, batch_format="pandas", batch_size=4096, concurrency=2
    )

    def shard_pairs(df: pd.DataFrame) -> pd.DataFrame:
        """All same-band pairs within one shard (many bands per call —
        per-group scheduling overhead amortizes across the shard)."""
        rows_a: list[int] = []
        rows_b: list[int] = []
        for _, grp in df.groupby("band_key"):
            ids = sorted(grp["doc_id"].unique().tolist())
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    rows_a.append(ids[i])
                    rows_b.append(ids[j])
        return pd.DataFrame({"doc_a": rows_a, "doc_b": rows_b}).astype("int64")

    return banded.groupby("band_shard").map_groups(
        shard_pairs, batch_format="pandas"
    )


_BLOOM_BITS = 1 << 24  # 16 Mbit = 2 MiB bitmap, fixed regardless of corpus
_BLOOM_HASHES = 4


def _bloom_positions(ids: np.ndarray, i: int) -> np.ndarray:
    """i-th bloom hash of int64 ids, vectorized (splitmix64 finalizer)."""
    x = ids.astype(np.uint64) + np.uint64(
        (0x9E3779B97F4A7C15 * (i + 1)) & 0xFFFFFFFFFFFFFFFF
    )
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    x = x ^ (x >> np.uint64(31))
    return (x % np.uint64(_BLOOM_BITS)).astype(np.int64)


def _bloom_from_ids(ids: np.ndarray) -> np.ndarray:
    bm = np.zeros(_BLOOM_BITS // 8, dtype=np.uint8)
    for i in range(_BLOOM_HASHES):
        pos = _bloom_positions(ids, i)
        np.bitwise_or.at(bm, pos >> 3, (1 << (pos & 7)).astype(np.uint8))
    return bm


def _bloom_contains(bm: np.ndarray, ids: np.ndarray) -> np.ndarray:
    mask = np.ones(len(ids), dtype=bool)
    for i in range(_BLOOM_HASHES):
        pos = _bloom_positions(ids, i)
        mask &= (bm[pos >> 3] & (1 << (pos & 7)).astype(np.uint8)) != 0
    return mask


def _verified_pairs_ds(
    sf_dir: str,
    num_perm: int = 64,
    bands: int = 16,
    verify_threshold: float = 0.6,
) -> "rd.Dataset":
    """LSH candidate pairs exact-verified with true shingle Jaccard, fully
    distributed (no whole-corpus driver state):

    1. candidates via banded MinHash (``_minhash_candidates``);
    2. the candidate doc_ids fold into a FIXED-SIZE bloom filter (2 MiB
       bitmap; per-batch partial bitmaps OR-combined streaming, so the
       driver never holds a structure proportional to candidate count)
       broadcast once as the semi-join filter — shingle extraction
       touches only (probably-)colliding docs; false positives cost one
       wasted shingle row, never correctness;
    3. each pair is exploded into two half-rows keyed by doc id, unioned
       with the (filtered) per-doc shingle-hash rows, and a
       ``groupby(doc).map_groups`` attaches the shingle array to each
       half — a shuffle hash-join over candidate-sized data only;
    4. ``groupby(pair).map_groups`` reunites halves and computes exact
       Jaccard on the two int32-hash arrays (``np.intersect1d``).

    Returns the MATERIALIZED verified-edge Dataset (object-store
    resident and spillable, bounded by dup-edge count — never a driver
    structure), memoized per parameter set and documents fingerprint
    (``cache.memo``) so the pair query, the cluster query and
    dedup_keep_list share one expensive verify pass.
    """
    return cache.memo(
        "verified_pairs",
        (os.path.abspath(sf_dir), num_perm, bands, verify_threshold),
        cache.table_fingerprint(sf_dir, "documents"),
        lambda: _verify_pairs(sf_dir, num_perm, bands, verify_threshold))


def _verify_pairs(sf_dir: str, num_perm: int, bands: int,
                  verify_threshold: float) -> "rd.MaterializedDataset":
    import ray

    ds = _docs(sf_dir, ["doc_id", "text"])
    cand = _minhash_candidates(ds, num_perm, bands)

    # a pair colliding in several bands appears once per band; dedupe in
    # a SKINNY two-int64-column shuffle BEFORE the halves explode, so the
    # (much wider) shingle join sees each pair once — on the dup-dense
    # sf0.1 corpus this cuts 8.4M candidate rows to the distinct ~1M
    def _dedup_pairs(df: pd.DataFrame) -> pd.DataFrame:
        return df[["doc_a", "doc_b"]].drop_duplicates()

    cand = (
        cand.map_batches(
            lambda df: df.assign(
                pair_shard=(df["doc_a"] * np.int64(1_000_003)
                            + df["doc_b"]) % 64
            ),
            batch_format="pandas",
        )
        .groupby("pair_shard")
        .map_groups(_dedup_pairs, batch_format="pandas")
    )

    # candidate ids -> bloom filter, built distributed: each batch emits a
    # partial bitmap, OR-combined streaming on the driver (constant 2 MiB
    # driver state, not O(candidates))
    def bloom_partial(df: pd.DataFrame) -> pd.DataFrame:
        ids = np.concatenate(
            [df["doc_a"].to_numpy(np.int64), df["doc_b"].to_numpy(np.int64)]
        )
        return pd.DataFrame({"bm": [_bloom_from_ids(ids)]})

    bloom = np.zeros(_BLOOM_BITS // 8, dtype=np.uint8)
    any_cand = False
    for b in cand.map_batches(
        bloom_partial, batch_format="pandas", batch_size=65536
    ).iter_batches(batch_format="pandas"):
        for bm in b["bm"]:
            any_cand = True
            np.bitwise_or(bloom, np.asarray(bm, dtype=np.uint8), out=bloom)
    if not any_cand:
        empty = rd.from_pandas(
            pd.DataFrame(
                {"doc_a": pd.Series([], dtype="int64"),
                 "doc_b": pd.Series([], dtype="int64"),
                 "sim": pd.Series([], dtype="float64")}
            )
        ).materialize()
        return empty
    ids_ref = ray.put(bloom)

    def shingle_rows(df: pd.DataFrame) -> pd.DataFrame:
        bm = ray.get(ids_ref)
        df = df[_bloom_contains(bm, df["doc_id"].to_numpy(np.int64))]
        # shingle sets travel as PACKED BYTES (one binary cell per row):
        # Arrow shuffles binary columns natively, where an object column
        # of numpy arrays pickles per row — measured 149 s -> ~40 s for
        # the sf0.1 dup-dense corpus (764k verified pairs)
        sh = [
            np.sort(
                np.fromiter(char_shingles(t), dtype=np.int64, count=-1)
            ).astype(np.uint32).tobytes()
            for t in df["text"]
        ]
        key = df["doc_id"].astype("int64")
        return pd.DataFrame(
            {"join_key": key,
             "doc_a": np.int64(-1), "doc_b": np.int64(-1),
             "side": np.int64(-1), "sh": sh,
             "join_shard": key % 64}
        )

    shingles = ds.map_batches(
        shingle_rows, batch_format="pandas", batch_size=4096
    )

    n_join_shards = 64  # coarse shuffle keys: one vectorized merge per
    # shard, not one python call per doc/pair group

    def halves(df: pd.DataFrame) -> pd.DataFrame:
        empty = [b""] * len(df)
        a = pd.DataFrame(
            {"join_key": df["doc_a"], "doc_a": df["doc_a"],
             "doc_b": df["doc_b"], "side": np.int64(0), "sh": empty}
        )
        b = pd.DataFrame(
            {"join_key": df["doc_b"], "doc_a": df["doc_a"],
             "doc_b": df["doc_b"], "side": np.int64(1), "sh": empty}
        )
        out = pd.concat([a, b], ignore_index=True)
        out["join_shard"] = out["join_key"] % n_join_shards
        return out

    half = cand.map_batches(halves, batch_format="pandas")

    def attach_shard(df: pd.DataFrame) -> pd.DataFrame:
        """Vectorized hash-join inside one shard: sh rows merged onto the
        pair half-rows on join_key."""
        sh_rows = df[df["side"] == -1][["join_key", "sh"]]
        pairs = df[df["side"] >= 0].drop_duplicates(
            ["doc_a", "doc_b", "side"]
        )[["join_key", "doc_a", "doc_b", "side"]]
        out = pairs.merge(sh_rows, on="join_key", how="inner")
        out = out[["doc_a", "doc_b", "side", "sh"]].copy()
        out["pair_shard"] = (
            (out["doc_a"] * np.int64(1_000_003) + out["doc_b"])
            % n_join_shards
        )
        return out

    # the widest hop of the verify chain (every surviving doc's packed
    # shingle bytes travel); its high-water (input in store+spill)
    # matches Ray's own sort shuffle
    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    attached = hash_exchange(
        half.union(shingles), "join_shard", n_join_shards, attach_shard
    )

    def verify_shard(df: pd.DataFrame) -> pd.DataFrame:
        """Reunite pair halves within a shard; exact Jaccard per pair on
        the two sorted hash arrays."""
        s0 = df[df["side"] == 0][["doc_a", "doc_b", "sh"]]
        s1 = df[df["side"] == 1][["doc_a", "doc_b", "sh"]]
        m = s0.merge(s1, on=["doc_a", "doc_b"], suffixes=("_a", "_b"))
        rows_a, rows_b, sims = [], [], []
        for da, db, sa, sb in zip(m["doc_a"], m["doc_b"],
                                  m["sh_a"], m["sh_b"]):
            sa = np.frombuffer(sa, dtype=np.uint32)
            sb = np.frombuffer(sb, dtype=np.uint32)
            if len(sa) == 0 and len(sb) == 0:
                sim = 1.0
            else:
                inter = len(np.intersect1d(sa, sb, assume_unique=True))
                union = len(sa) + len(sb) - inter
                sim = inter / union if union else 0.0
            if sim >= verify_threshold:
                rows_a.append(int(da))
                rows_b.append(int(db))
                # raw IEEE double (no rounding): bit-identical to the
                # DuckDB oracle's CAST(isz AS DOUBLE)/union on the same
                # integers (cf. ngram_jaccard_pairs)
                sims.append(float(sim))
        return pd.DataFrame(
            {"doc_a": rows_a, "doc_b": rows_b, "sim": sims}
        ).astype({"doc_a": "int64", "doc_b": "int64", "sim": "float64"})

    # same: the pair halves still carry the shingle bytes
    return hash_exchange(
        attached, "pair_shard", n_join_shards, verify_shard
    ).materialize()


def minhash_verified_pairs(
    sf_dir: str,
    num_perm: int = 64,
    bands: int = 16,
    verify_threshold: float = 0.6,
) -> pd.DataFrame:
    """The oracle-facing pair list: ``_verified_pairs_ds`` collected and
    row-sorted.  The COLLECT is this wrapper's job alone — production
    callers consume the materialized Dataset (``_verified_pairs_ds``)
    or the cluster labels (``minhash_dedup``) and never pull the edge
    list onto the driver."""
    df = _verified_pairs_ds(
        sf_dir, num_perm, bands, verify_threshold
    ).to_pandas()
    if df.empty:
        return pd.DataFrame(columns=["doc_a", "doc_b", "sim"]).astype(
            {"doc_a": "int64", "doc_b": "int64", "sim": "float64"}
        )
    return df.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def minhash_dedup(
    sf_dir: str,
    num_perm: int = 64,
    bands: int = 16,
    verify_threshold: float = 0.6,
) -> pd.DataFrame:
    """MinHash+LSH near-dup clustering: verified edges (distributed, see
    ``_verified_pairs_ds``) → DISTRIBUTED min-label connected components
    (``stages.cc`` — the r3 verdict's driver union-find replaced; no
    driver structure proportional to dup edges) → (doc_id, cluster_rep).
    The returned frame is clustered-docs-bounded (needed by the oracle
    compare and dedup_keep_list's broadcast); memoized so the cluster
    query and dedup_keep_list share one label-propagation run."""
    from tensorflow_ocr_ray.stages.cc import connected_components

    def build() -> pd.DataFrame:
        edges = _verified_pairs_ds(sf_dir, num_perm, bands,
                                   verify_threshold)
        df = connected_components(edges, src="doc_a",
                                  dst="doc_b").to_pandas()
        if df.empty:
            return pd.DataFrame(columns=["doc_id", "cluster_rep"]).astype(
                "int64")
        return (
            df.rename(columns={"node": "doc_id", "label": "cluster_rep"})
            .sort_values("doc_id")
            .reset_index(drop=True)
            .astype("int64")
        )

    return cache.memo(
        "dedup_labels",
        (os.path.abspath(sf_dir), num_perm, bands, verify_threshold),
        cache.table_fingerprint(sf_dir, "documents"), build).copy()


def simhash_fingerprints(sf_dir: str) -> "rd.Dataset":
    ds = _docs(sf_dir, ["doc_id", "text"])
    return ds.map_batches(simhash_batch, batch_format="pandas", batch_size=4096)


def simhash_dup_pairs(
    sf_dir: str, max_hamming: int = 3, n_shards: int = 32
) -> "rd.Dataset":
    """SimHash near-duplicate PAIR detection — the retrieval step the
    ``simhash_fingerprints`` map pass exists for: all document pairs
    whose 64-bit fingerprints differ in at most ``max_hamming`` bits.

    Candidate generation is BANDED, never all-pairs (Charikar/Manku
    web-dedup): the fingerprint splits into 4 disjoint 16-bit bands,
    and by pigeonhole any pair within Hamming distance 3 agrees
    EXACTLY on at least one band — so candidates come from an equality
    join on (band, band_value).  Physical plan: one map pass computes
    fingerprints and explodes each doc into 4 skinny (band, value,
    doc_id, fp) rows; exchange 1 routes by hash(band, value) so every
    band-bucket co-locates and pairs generate in-shard (bucket sizes
    are near-dup-bounded, not corpus-bounded — a corpus-common band
    value would need ~identical texts, which exact dedup owns);
    XOR-popcount verifies ``<= max_hamming`` vectorized; exchange 2
    routes by pair key so the same pair found via multiple bands
    dedups in-shard.  Output (doc_a, doc_b, hamming), lazy Dataset;
    the driver never sees a row."""
    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    fps = simhash_fingerprints(sf_dir)

    def band_explode(df: pd.DataFrame) -> pd.DataFrame:
        h = df["simhash"].to_numpy(np.int64).view(np.uint64)
        doc = df["doc_id"].to_numpy(np.int64)
        n = len(df)
        bands = np.repeat(np.arange(4, dtype=np.uint64), n)
        ht = np.tile(h, 4)
        bv = (ht >> (bands * np.uint64(16))) & np.uint64(0xFFFF)
        return pd.DataFrame(
            {
                "bshard": (((bv << np.uint64(2)) | bands)
                           % np.uint64(n_shards)).astype("int64"),
                "band": bands.astype("int64"),
                "bv": bv.astype("int64"),
                "doc_id": np.tile(doc, 4),
                "fp": ht.view(np.int64),
            }
        )

    def _popcount64(x: np.ndarray) -> np.ndarray:
        return np.unpackbits(
            x.astype(np.uint64).view(np.uint8).reshape(-1, 8), axis=1
        ).sum(axis=1).astype(np.int64)

    empty = {
        "pshard": "int64", "doc_a": "int64", "doc_b": "int64",
        "hamming": "int64",
    }

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        if len(g):
            for (_, _), grp in g.groupby(["band", "bv"], sort=False):
                m = len(grp)
                if m < 2:
                    continue
                ids = grp["doc_id"].to_numpy(np.int64)
                fp = grp["fp"].to_numpy(np.int64).view(np.uint64)
                ai, bi = np.triu_indices(m, k=1)
                ham = _popcount64(fp[ai] ^ fp[bi])
                keep = ham <= max_hamming
                if not keep.any():
                    continue
                a = np.minimum(ids[ai[keep]], ids[bi[keep]])
                b = np.maximum(ids[ai[keep]], ids[bi[keep]])
                outs.append(pd.DataFrame(
                    {"pshard": ((a * 31 + b) % n_shards),
                     "doc_a": a, "doc_b": b, "hamming": ham[keep]}))
        if not outs:
            return pd.DataFrame(
                {c: pd.Series([], dtype=t) for c, t in empty.items()})
        return pd.concat(outs, ignore_index=True)

    def pair_dedup(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame(
                {c: pd.Series([], dtype="int64")
                 for c in ("doc_a", "doc_b", "hamming")})
        g = g.drop_duplicates(["doc_a", "doc_b"])
        return g[["doc_a", "doc_b", "hamming"]].astype("int64")

    exploded = fps.map_batches(
        band_explode, batch_format="pandas", batch_size=4096
    )
    cand = hash_exchange(exploded, "bshard", n_shards, bucket_pairs)
    return hash_exchange(cand, "pshard", n_shards, pair_dedup)


def dedup_keep_list(
    sf_dir: str,
    num_perm: int = 64,
    bands: int = 16,
    verify_threshold: float = 0.6,
) -> "rd.Dataset":
    """The end-to-end dedup deliverable: one keep/drop decision per
    document, composing exact dedup with MinHash near-dup clustering.

    Per-doc rule (deterministic, precedence order):
      1. ``exact_dup`` — not the min doc_id of its identical-text group
         (canonical = that min);
      2. ``near_dup``  — in a verified MinHash cluster and not its
         min-rep (canonical = the rep);
      3. ``kept``      — canonical = itself.

    Physical plan: the exact side is ONE skinny shuffle of
    (md5(text)-shard, text-hash, doc_id) rows — per shard the group min
    is a vectorized transform, emitting exactly one row per doc.  The
    near-dup side reuses ``minhash_dedup`` whose (doc_id, cluster_rep)
    output is clustered-docs-bounded (collision count, not corpus
    count) and is broadcast once via ``ray.put``; the verdict pass is
    map-only.  Nothing on the driver grows with corpus size."""
    import ray

    from tensorflow_ocr_ray.functions.textstats import _md5_prefix_batch

    clusters = minhash_dedup(sf_dir, num_perm, bands, verify_threshold)
    rep_ref = ray.put(
        dict(zip(clusters["doc_id"].astype(int), clusters["cluster_rep"].astype(int)))
    )
    n_shards = 64

    def hash_rows(df: pd.DataFrame) -> pd.DataFrame:
        h = _md5_prefix_batch(list(df["text"]), 8).astype(np.uint64)
        return pd.DataFrame(
            {
                "hshard": (h % np.uint64(n_shards)).astype("int64"),
                "h": h,
                "doc_id": df["doc_id"].astype("int64"),
            }
        )

    def verdict(g: pd.DataFrame) -> pd.DataFrame:
        reps = ray.get(rep_ref)
        keeper = g.groupby("h")["doc_id"].transform("min")
        doc = g["doc_id"].values
        exact_dup = (doc != keeper.values)
        rep = np.fromiter(
            (reps.get(int(d), int(d)) for d in doc),
            dtype=np.int64,
            count=len(doc),
        )
        near_dup = ~exact_dup & (rep != doc)
        reason = np.where(
            exact_dup, "exact_dup", np.where(near_dup, "near_dup", "kept")
        )
        canonical = np.where(
            exact_dup, keeper.values, np.where(near_dup, rep, doc)
        )
        return pd.DataFrame(
            {
                "doc_id": doc,
                "kept": (~exact_dup & ~near_dup).astype("int64"),
                "reason": reason,
                "canonical": canonical.astype("int64"),
            }
        )

    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(hash_rows, batch_format="pandas", batch_size=2048)
        .groupby("hshard")
        .map_groups(verdict, batch_format="pandas")
    )


def winnow_dup_pairs(
    sf_dir: str, min_shared: int = 4, n_shards: int = 64
) -> "rd.Dataset":
    """MOSS-style near-dup detection: document pairs sharing at least
    ``min_shared`` winnowing fingerprints (the same k-gram/window/keep
    fingerprint the ``doc_fingerprints`` query derives — so the oracle
    reuses that green CTE chain verbatim and self-joins it).

    Physical plan (cf. the gram-sharded plans in curation.py):
      1. map-side: per-doc fingerprint set (≤ keep values) exploded to
         (fp, doc_id) rows, sharded by fp % n_shards — a SKINNY int
         stream, never the texts;
      2. groupby(fp-shard): within a shard, docs sharing a fingerprint
         emit pair partials (doc_a < doc_b), pre-summed per shard;
      3. groupby(pair-shard): sums shared-counts, filters >= min_shared.
    Nothing lands on the driver; output is a lazy Dataset of
    (doc_a, doc_b, shared).  Skew note: a fingerprint common to F docs
    emits O(F^2) pair partials — boilerplate-heavy corpora should raise
    the winnow window or pre-cap bucket size (same caveat as the
    reference-free gram plans)."""
    from tensorflow_ocr_ray.functions.textstats import winnow_fingerprint

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        ids: list[int] = []
        fps: list[int] = []
        for did, text in zip(df["doc_id"], df["text"]):
            for m in winnow_fingerprint(text):
                ids.append(int(did))
                fps.append(int(m))
        fp = np.asarray(fps, dtype=np.int64)
        return pd.DataFrame(
            {
                "fp": fp,
                "doc_id": np.asarray(ids, dtype=np.int64),
                "shard": fp % n_shards,
            }
        )

    def pairs_in_shard(df: pd.DataFrame) -> pd.DataFrame:
        a_l: list[np.ndarray] = []
        b_l: list[np.ndarray] = []
        for _, g in df.groupby("fp"):
            d = np.sort(g["doc_id"].to_numpy())
            if len(d) < 2:
                continue
            iu = np.triu_indices(len(d), k=1)
            a_l.append(d[iu[0]])
            b_l.append(d[iu[1]])
        if not a_l:
            return pd.DataFrame(
                {"doc_a": np.empty(0, np.int64),
                 "doc_b": np.empty(0, np.int64),
                 "p_shared": np.empty(0, np.int64),
                 "pshard": np.empty(0, np.int64)}
            )
        a = np.concatenate(a_l)
        b = np.concatenate(b_l)
        out = (
            pd.DataFrame({"doc_a": a, "doc_b": b})
            .groupby(["doc_a", "doc_b"], as_index=False)
            .size()
            .rename(columns={"size": "p_shared"})
        )
        out["p_shared"] = out["p_shared"].astype("int64")
        out["pshard"] = (out["doc_a"] * 1_000_003 + out["doc_b"]) % n_shards
        return out

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["doc_a", "doc_b"], as_index=False).agg(
            shared=("p_shared", "sum")
        )
        g = g[g["shared"] >= min_shared]
        return g.astype(
            {"doc_a": "int64", "doc_b": "int64", "shared": "int64"}
        )

    # routed hash exchanges (stages/exchange.py), not groupby-sorts:
    # the winnowing-pair join moves corpus-scale fingerprint rows and
    # Ray's Sort was the dominant cost of this op at sf0.1
    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    per_fp = hash_exchange(
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(explode, batch_format="pandas", batch_size=4096),
        "shard", n_shards, pairs_in_shard,
    )
    return hash_exchange(per_fp, "pshard", n_shards, finalize
                         ).select_columns(["doc_a", "doc_b", "shared"])


def _winnow_pairs_ds(
    sf_dir: str, min_shared: int, n_shards: int
) -> "rd.Dataset":
    """winnow_dup_pairs MATERIALIZED (object store, dup-edge-bounded,
    never a driver frame) and memoized like the MinHash family, so
    winnow_dup_pairs + winnow_dup_clusters in one driver pass pay the
    fingerprint+join cost once."""
    return cache.memo(
        "winnow_pairs", (os.path.abspath(sf_dir), min_shared, n_shards),
        cache.table_fingerprint(sf_dir, "documents"),
        lambda: winnow_dup_pairs(sf_dir, min_shared, n_shards).materialize())


def _winnow_pairs_frame(
    sf_dir: str, min_shared: int, n_shards: int
) -> pd.DataFrame:
    """Oracle-facing collect of the winnow edge list (the collect is
    this wrapper's job alone)."""
    return _winnow_pairs_ds(sf_dir, min_shared, n_shards).to_pandas()


def winnow_dup_clusters(
    sf_dir: str, min_shared: int = 4, n_shards: int = 64
) -> pd.DataFrame:
    """Winnowing near-dup CLUSTERS: the distributed ``winnow_dup_pairs``
    edge Dataset collapsed by DISTRIBUTED min-label connected components
    (``stages.cc`` — same plan as minhash_dedup / embedding_dup_clusters;
    no driver structure proportional to dup edges)."""
    from tensorflow_ocr_ray.stages.cc import connected_components

    labels = connected_components(
        _winnow_pairs_ds(sf_dir, min_shared, n_shards),
        src="doc_a", dst="doc_b",
    )
    df = labels.to_pandas()
    if df.empty:
        return pd.DataFrame(columns=["doc_id", "cluster_rep"]).astype(
            "int64"
        )
    return (
        df.rename(columns={"node": "doc_id", "label": "cluster_rep"})
        .sort_values("doc_id")
        .reset_index(drop=True)
        .astype("int64")
    )


# ---------------- incremental (append-batch) dedup ---------------------------


def dedup_incremental(sf_dir: str, n_shards: int = 64) -> "rd.Dataset":
    """Incremental dedup: a NEW batch of documents arrives and must be
    deduplicated against the EXISTING corpus without reprocessing it —
    the steady-state shape of a production ingestion pipeline (the full
    corpus is deduped once; every later shard only diffs against it).

    Corpus split (deterministic both sides): docs with
    ``doc_id >= (max_id + 1) * 4 // 5`` are "the new batch", the rest
    "the existing corpus".  Match key: the first 32 characters of the
    text — a prefix-blocking fingerprint (this synthetic corpus has no
    full-text exact dups, so full-text matching would be vacuous; the
    key function is one line to swap for md5(full text) or a MinHash
    band in production).

    Per new doc, precedence-ordered verdict:
      1. ``dup_existing`` — key seen in the existing corpus
         (canonical = the existing min doc_id for that key);
      2. ``dup_in_batch`` — key's first occurrence in the batch is an
         earlier new doc (canonical = that min new doc_id);
      3. ``new`` — canonical = itself.

    Physical plan: the NEW batch (small side) folds into a 2 MiB bloom
    broadcast once; the EXISTING corpus (the 100-TB side) streams
    through a map-only bloom filter that discards everything except
    probable key matches — false positives cost one extra row in the
    exchange, never correctness.  One md5(key)-hash exchange then
    co-locates surviving existing rows with the full new batch; the
    per-shard verdict is two vectorized groupby-mins + a merge.  Lazy
    Dataset out (one row per new doc)."""
    import ray

    from tensorflow_ocr_ray.functions.textstats import _md5_prefix_batch
    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    ds = _docs(sf_dir, ["doc_id", "text"])
    split_id = (ds.max("doc_id") + 1) * 4 // 5

    def key_rows(df: pd.DataFrame, side: int) -> pd.DataFrame:
        keys = [t[:32] for t in df["text"]]
        h = _md5_prefix_batch(keys, 8).astype(np.uint64)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "key": keys,
                "h": h.astype("int64", copy=False),
                "side": np.int64(side),
                "shard": (h % np.uint64(n_shards)).astype("int64"),
            }
        )

    new_rows = ds.map_batches(
        lambda df: key_rows(df[df["doc_id"] >= split_id], 1),
        batch_format="pandas", batch_size=4096,
    ).materialize()  # consumed twice: bloom build + exchange; batch-sized

    # bloom of the new batch's key hashes: per-batch partial bitmaps,
    # OR-combined on the driver (constant 2 MiB), broadcast once
    bloom = np.zeros(_BLOOM_BITS // 8, dtype=np.uint8)
    for b in new_rows.map_batches(
        lambda df: pd.DataFrame(
            {"bm": [_bloom_from_ids(df["h"].to_numpy(np.int64))]}
        ),
        batch_format="pandas", batch_size=65536,
    ).iter_batches(batch_format="pandas"):
        for bm in b["bm"]:
            np.bitwise_or(bloom, np.asarray(bm, dtype=np.uint8), out=bloom)
    bloom_ref = ray.put(bloom)

    def existing_filtered(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df["doc_id"] < split_id]
        rows = key_rows(d, 0)
        bm = ray.get(bloom_ref)
        return rows[_bloom_contains(bm, rows["h"].to_numpy(np.int64))]

    ex = ds.map_batches(
        existing_filtered, batch_format="pandas", batch_size=4096
    )

    def verdict(df: pd.DataFrame) -> pd.DataFrame:
        nb = df[df["side"] == 1]
        exd = df[df["side"] == 0]
        ex_min = exd.groupby("key")["doc_id"].min()
        nb_min = nb.groupby("key")["doc_id"].min()
        doc = nb["doc_id"].to_numpy()
        # float64 coercion: an empty shard side yields an object-dtype
        # groupby result whose reindex-NaNs break np.isnan otherwise
        e = ex_min.reindex(nb["key"]).astype("float64").to_numpy()
        b = nb_min.reindex(nb["key"]).astype("float64").to_numpy()
        has_ex = ~np.isnan(e)
        in_batch = ~has_ex & (doc != b)
        verdicts = np.where(
            has_ex, "dup_existing", np.where(in_batch, "dup_in_batch",
                                             "new")
        )
        canonical = np.where(
            has_ex, np.nan_to_num(e, nan=-1),
            np.where(in_batch, b, doc),
        ).astype("int64")
        return pd.DataFrame(
            {
                "doc_id": doc,
                "verdict": verdicts,
                "canonical_doc_id": canonical,
            }
        )

    return hash_exchange(
        new_rows.union(ex), "shard", n_shards, verdict
    )


def _levenshtein_block(s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """Vectorized unit-cost Levenshtein over a BATCH of pairs.

    ``s1``/``s2``: (P, L) uint8 code matrices right-padded with 0xFF
    sentinels plus (P,) true lengths encoded as the first padding
    position — here both come from ``_pack_prefix``.  The DP runs the
    classic row recurrence; the in-row left-neighbor dependency
    ``cur[j-1] + 1`` is a prefix-min with slope 1, solved closed-form
    as ``min(base[j], min_{k<=j}(base[k] - k) + j)`` via
    ``np.minimum.accumulate`` — so the whole batch advances one DP row
    per iteration with no per-pair Python work (O(L) iterations of
    O(P x L) numpy kernels)."""
    p, l1 = s1.shape
    l2 = s2.shape[1]
    n1 = (s1 != 0xFF).sum(axis=1)
    n2 = (s2 != 0xFF).sum(axis=1)
    idx = np.arange(l2 + 1, dtype=np.int64)
    prev = np.broadcast_to(idx, (p, l2 + 1)).copy()
    for i in range(1, l1 + 1):
        alive = n1 >= i
        cost = (s1[:, i - 1 : i] != s2).astype(np.int64)  # (P, L2)
        base = np.empty((p, l2 + 1), dtype=np.int64)
        base[:, 0] = i
        base[:, 1:] = np.minimum(prev[:, 1:] + 1, prev[:, :-1] + cost)
        cur = np.minimum(
            base, np.minimum.accumulate(base - idx, axis=1) + idx
        )
        prev = np.where(alive[:, None], cur, prev)
    return prev[np.arange(p), n2]


def _pack_prefix(texts, length: int) -> np.ndarray:
    """(N, length) uint8 matrix of each text's first ``length`` ASCII
    bytes, right-padded with 0xFF (a value no ASCII byte takes)."""
    out = np.full((len(texts), length), 0xFF, dtype=np.uint8)
    for i, t in enumerate(texts):
        b = t.encode("utf-8")[:length]
        out[i, : len(b)] = np.frombuffer(b, dtype=np.uint8)
    return out


def edit_distance_pairs(
    sf_dir: str,
    prefix_len: int = 64,
    block_len: int = 16,
    max_dist: int = 8,
    n_shards: int = 64,
) -> "rd.Dataset":
    """Near-dup pairs by EXACT Levenshtein distance on the first
    ``prefix_len`` characters — (doc_a, doc_b, dist) for candidate
    pairs with dist <= max_dist.  Candidates are blocked on the first
    ``block_len`` characters (exact prefix blocking, the same family
    as dedup_incremental's match key): only pairs sharing the block
    ever meet, so the verify cost is sum over blocks of C(k, 2), never
    corpus-quadratic, and blocks route through one md5-hash exchange.

    The verifier is a batch DP (``_levenshtein_block``) — one numpy
    kernel advances every pair in the shard one DP row, no per-pair
    Python.  DuckDB's ``levenshtein`` is BYTE-based; this corpus is
    pure ASCII so bytes == characters, and the engine packs utf-8
    bytes of the char-prefix to match byte semantics exactly.

    At 100 TB: prefix blocking is one skinny (block_hash, doc_id,
    prefix) projection; for robustness to prefix edits a deployment
    would union 2-3 offset block keys (or minhash bands) — same plan,
    more candidate rows."""
    import hashlib

    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    docs = _docs(sf_dir, ["doc_id", "text"])

    def project(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {"doc_id": pd.Series([], dtype="int64"),
                 "prefix": pd.Series([], dtype="object"),
                 "blk": pd.Series([], dtype="object"),
                 "shard": pd.Series([], dtype="int64")}
            )
        prefix = df["text"].str.slice(0, prefix_len)
        blk = df["text"].str.slice(0, block_len)
        shard = np.fromiter(
            (int.from_bytes(
                hashlib.md5(b.encode("utf-8")).digest()[:8], "big"
            ) % n_shards for b in blk),
            dtype=np.int64, count=len(df),
        )
        return pd.DataFrame(
            {"doc_id": df["doc_id"].astype("int64"),
             "prefix": prefix, "blk": blk, "shard": shard}
        )

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"doc_a": pd.Series([], dtype="int64"),
             "doc_b": pd.Series([], dtype="int64"),
             "dist": pd.Series([], dtype="int64")}
        )
        if not len(df):
            return empty
        d = df.sort_values(["blk", "doc_id"]).reset_index(drop=True)
        blk = d["blk"].to_numpy()
        change = np.flatnonzero(np.r_[True, blk[1:] != blk[:-1]])
        k = np.diff(np.r_[change, len(d)])
        starts = np.repeat(change, k)
        local = np.arange(len(d)) - starts
        reps = np.repeat(k, k) - 1 - local
        if not reps.sum():
            return empty
        first = np.repeat(np.arange(len(d)), reps)
        off = np.cumsum(reps) - reps
        second = (np.arange(int(reps.sum())) - np.repeat(off, reps)
                  + np.repeat(np.arange(len(d)) + 1, reps))
        pk = _pack_prefix(d["prefix"].tolist(), prefix_len)
        dist = _levenshtein_block(pk[first], pk[second])
        ids = d["doc_id"].to_numpy(np.int64)
        keep = dist <= max_dist
        return pd.DataFrame(
            {"doc_a": ids[first][keep], "doc_b": ids[second][keep],
             "dist": dist[keep].astype(np.int64)}
        )

    return hash_exchange(
        docs.map_batches(project, batch_format="pandas"),
        "shard", n_shards, verify,
    )


def minhash_cluster_size_hist(sf_dir: str) -> pd.DataFrame:
    """Dedup-audit composition: the histogram of MinHash near-dup
    cluster sizes — (cluster_size, n_clusters), the number a curation
    report leads with ("how much of the corpus is 2x/3x/Nx
    duplicated?").  Reuses minhash_dedup's memoized labels (one
    label-propagation run shared with dedup_keep_list); the oracle
    wraps the full generated SQL re-derivation in two GROUP BYs.
    Cluster labels are clustered-docs-bounded, so the groupbys are
    driver-trivial here and one exchange at scale."""
    labels = minhash_dedup(sf_dir)
    sizes = labels.groupby("cluster_rep").size()
    hist = sizes.value_counts().sort_index()
    return pd.DataFrame(
        {"cluster_size": hist.index.to_numpy(np.int64),
         "n_clusters": hist.to_numpy(np.int64)}
    )


def dedup_rate_by_source(sf_dir: str, n_shards: int = 64) -> pd.DataFrame:
    """Per-source duplication audit — the number a curation report
    opens with: for each source, document count, distinct-text count
    and dup_ppm = (n_docs - n_unique) * 1e6 // n_docs.

    Distinct texts are counted WITHOUT shuffling text bytes: per-batch
    deduped (source, md5-derived 8-byte key) partials route one
    key-hash exchange — identical texts co-shard by construction, so
    per-shard per-source distinct counts are exact and, because key
    ranges are disjoint across shards, the bounded |shards| x
    |sources| partials SUM exactly.  Doc counts ride per-batch
    partials.  The oracle counts DISTINCT text directly (same number,
    md5 collision-free at corpus scale)."""
    import hashlib
    import zlib

    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    docs = _docs(sf_dir, ["source", "text"])

    def key_partial(df: pd.DataFrame) -> pd.DataFrame:
        keys = [
            int.from_bytes(
                hashlib.md5(t.encode("utf-8")).digest()[:8], "big",
                signed=False,
            ) >> 1
            for t in df["text"]
        ]
        d = pd.DataFrame(
            {"source": df["source"].to_numpy(), "k": keys}
        ).drop_duplicates()
        d["shard"] = (d["k"] % n_shards).astype("int64")
        return d

    def shard_distinct(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {"source": pd.Series([], dtype="object"),
                 "n_unique": pd.Series([], dtype="int64")})
        g = (df.drop_duplicates(["source", "k"])
             .groupby("source", as_index=False).agg(n_unique=("k",
                                                              "size")))
        return g

    uniq = hash_exchange(
        docs.map_batches(key_partial, batch_format="pandas",
                         batch_size=4096),
        "shard", n_shards, shard_distinct,
    ).to_pandas().groupby("source", as_index=False)["n_unique"].sum()

    counts = (
        docs.map_batches(
            lambda df: df.groupby("source", as_index=False)
            .agg(n_docs=("text", "size")),
            batch_format="pandas",
        )
        .to_pandas()
        .groupby("source", as_index=False)["n_docs"].sum()
    )
    out = counts.merge(uniq, on="source")
    out["dup_ppm"] = (
        (out["n_docs"] - out["n_unique"]) * 1_000_000 // out["n_docs"]
    )
    return (
        out.astype({"n_docs": "int64", "n_unique": "int64",
                    "dup_ppm": "int64"})
        .sort_values("source").reset_index(drop=True)
    )


def cross_source_dup_matrix(sf_dir: str,
                            n_shards: int = 32) -> pd.DataFrame:
    """Cross-source near-duplication matrix — WHERE the duplication
    lives: for every unordered source pair, how many verified MinHash
    near-dup pairs straddle it (same-source pairs land on the
    diagonal).  This is the attribution a curation report needs after
    dedup_rate_by_source says *how much* is duplicated: which feeds
    mirror which (e.g. a crawl re-ingesting a wiki dump).

    Reuses the memoized verified-edge Dataset (one verify pass shared
    with minhash_dedup / dedup_keep_list); sources attach via TWO
    doc-hash exchange hops (the doc_rarity two-hop join: pairs are
    dup-edge-bounded, the doc -> source side is corpus-bounded, and
    each hop co-shards by one endpoint), then per-batch (least,
    greatest) pair counts tree-combine under the bounded |sources|^2
    grid.  Oracle: the generated MinHash pair re-derivation joined to
    documents twice (sf0.1 inherits the documented minhash-oracle
    spill exclusion)."""
    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    pairs = _verified_pairs_ds(sf_dir)
    docs = _docs(sf_dir, ["doc_id", "source"])

    def doc_side(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc": df["doc_id"].astype("int64"),
             "other": np.int64(-1), "source": df["source"],
             "shard": df["doc_id"].to_numpy(np.int64) % n_shards})

    def pair_side_a(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc": df["doc_a"].astype("int64"),
             "other": df["doc_b"].astype("int64"),
             "source": "", 
             "shard": df["doc_a"].to_numpy(np.int64) % n_shards})

    def join_a(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["doc_b", "source_a", "shard"]
        if not len(df):
            out = pd.DataFrame({c: pd.Series([], dtype="object")
                                for c in cols})
            return out.astype({"doc_b": "int64", "shard": "int64"})
        src = df[df["other"] == -1].set_index("doc")["source"]
        p = df[df["other"] != -1]
        return pd.DataFrame(
            {"doc_b": p["other"].to_numpy(np.int64),
             "source_a": p["doc"].map(src).to_numpy(),
             "shard": p["other"].to_numpy(np.int64) % n_shards})

    hop1 = hash_exchange(
        docs.map_batches(doc_side, batch_format="pandas",
                         batch_size=65536).union(
            pairs.map_batches(pair_side_a, batch_format="pandas")),
        "shard", n_shards, join_a)

    def doc_side2(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc_b": df["doc_id"].astype("int64"),
             "source_a": "", "is_doc": np.int64(1),
             "source_b": df["source"],
             "shard": df["doc_id"].to_numpy(np.int64) % n_shards})

    def pair_side_b(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc_b": df["doc_b"].astype("int64"),
             "source_a": df["source_a"], "is_doc": np.int64(0),
             "source_b": "", "shard": df["shard"].astype("int64")})

    def join_b(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["source_a", "source_b", "n_pairs"]
        if not len(df):
            out = pd.DataFrame({c: pd.Series([], dtype="object")
                                for c in cols})
            return out.astype({"n_pairs": "int64"})
        src = df[df["is_doc"] == 1].set_index("doc_b")["source_b"]
        p = df[df["is_doc"] == 0]
        sa = p["source_a"].to_numpy()
        sb = p["doc_b"].map(src).to_numpy()
        lo = np.minimum(sa, sb)
        hi = np.maximum(sa, sb)
        g = (pd.DataFrame({"source_a": lo, "source_b": hi})
             .groupby(["source_a", "source_b"], as_index=False)
             .size().rename(columns={"size": "n_pairs"}))
        return g.astype({"n_pairs": "int64"})

    parts = hash_exchange(
        docs.map_batches(doc_side2, batch_format="pandas",
                         batch_size=65536).union(
            hop1.map_batches(pair_side_b, batch_format="pandas")),
        "shard", n_shards, join_b).to_pandas()
    return (
        parts.groupby(["source_a", "source_b"], as_index=False)
        ["n_pairs"].sum()
        .astype({"n_pairs": "int64"})
        .sort_values(["source_a", "source_b"]).reset_index(drop=True)
    )


def dedup_threshold_sweep(sf_dir: str) -> pd.DataFrame:
    """Threshold-sensitivity audit for the near-dup verifier — the
    sweep a curation team runs before committing to a Jaccard cutoff:
    verified-pair counts per 5%-similarity bucket plus the cumulative
    "pairs you would keep at >= this cutoff" column.  Marginal cost is
    ~zero: it reuses the memoized verified-edge Dataset (one verify
    pass shared with the whole minhash family) and tree-combines
    bounded per-bucket counts; the driver holds <= 9 rows.  The
    bucket floor(sim*20) is computed on the SAME IEEE double both
    sides, so the oracle (GROUP BY bucket + desc window cumsum over
    the generated pair re-derivation) hash-matches."""
    pairs = _verified_pairs_ds(sf_dir)

    def bucket_partial(df: pd.DataFrame) -> pd.DataFrame:
        b = np.floor(df["sim"].to_numpy(np.float64) * 20.0).astype(
            np.int64)
        g = (pd.DataFrame({"bucket": b}).groupby("bucket")
             .size().rename("n_pairs").reset_index())
        return g.astype("int64")

    h = (
        pairs.map_batches(bucket_partial, batch_format="pandas",
                          batch_size=65536)
        .to_pandas()
        .groupby("bucket", as_index=False)["n_pairs"].sum()
        .sort_values("bucket", ascending=False)
        .reset_index(drop=True)
    )
    h["n_pairs_cum_ge"] = h["n_pairs"].cumsum()
    h["bucket_lo_pct"] = h["bucket"] * 5
    return (h[["bucket_lo_pct", "n_pairs", "n_pairs_cum_ge"]]
            .astype("int64").sort_values("bucket_lo_pct")
            .reset_index(drop=True))


CONTAIN_KEEP = 64     # winnow fingerprints kept per doc
CONTAIN_PCT = 90      # inner doc "contained" if >= 90% fps shared
CONTAIN_MIN = 4       # noise floor on shared fingerprints


def _contain_finish(pair_partials: "rd.Dataset", counts: "rd.Dataset",
                    n_shards: int) -> "rd.Dataset":
    """Shared tail of both containment plans: sum per-fp pair partials,
    attach n_a / n_b via two doc-hash exchange hops, evaluate the
    containment predicate.  ``pair_partials`` rows: (doc_a, doc_b,
    p_shared, pshard); ``counts`` rows: (doc, n)."""
    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    def sum_pairs(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["doc_a", "doc_b", "shared", "shard"]
        if not len(df):
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in cols})
        g = df.groupby(["doc_a", "doc_b"], as_index=False).agg(
            shared=("p_shared", "sum"))
        g = g[g["shared"] >= CONTAIN_MIN]
        g["shard"] = g["doc_a"].to_numpy(np.int64) % n_shards
        return g.astype("int64")

    pairs = hash_exchange(pair_partials, "pshard", n_shards, sum_pairs)

    def count_side_a(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc_a": df["doc"].astype("int64"),
             "doc_b": np.int64(-1), "shared": df["n"].astype("int64"),
             "shard": df["doc"].to_numpy(np.int64) % n_shards})

    def join_a(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["doc_a", "doc_b", "shared", "n_a", "shard"]
        if not len(df):
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in cols})
        na = df[df["doc_b"] == -1].set_index("doc_a")["shared"]
        p = df[df["doc_b"] != -1].copy()
        p["n_a"] = p["doc_a"].map(na).astype("int64")
        p["shard"] = p["doc_b"].to_numpy(np.int64) % n_shards
        return p[cols].astype("int64")

    hop1 = hash_exchange(
        pairs.union(counts.map_batches(count_side_a,
                                       batch_format="pandas")),
        "shard", n_shards, join_a)

    def count_side_b(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc_a": np.int64(-1), "doc_b": df["doc"].astype("int64"),
             "shared": df["n"].astype("int64"), "n_a": np.int64(-1),
             "shard": df["doc"].to_numpy(np.int64) % n_shards})

    def join_b(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["doc_inner", "doc_outer", "n_inner", "shared"]
        if not len(df):
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in cols})
        nb = df[df["doc_a"] == -1].set_index("doc_b")["shared"]
        p = df[df["doc_a"] != -1].copy()
        p["n_b"] = p["doc_b"].map(nb).astype("int64")
        a_is_inner = (
            (p["n_a"] < p["n_b"])
            | ((p["n_a"] == p["n_b"]) & (p["doc_a"] < p["doc_b"])))
        p["doc_inner"] = np.where(a_is_inner, p["doc_a"], p["doc_b"])
        p["doc_outer"] = np.where(a_is_inner, p["doc_b"], p["doc_a"])
        p["n_inner"] = np.where(a_is_inner, p["n_a"], p["n_b"])
        keep = p["shared"] * 100 >= CONTAIN_PCT * p["n_inner"]
        return p.loc[keep, cols].astype("int64")

    return hash_exchange(
        hop1.union(counts.map_batches(count_side_b,
                                      batch_format="pandas")),
        "shard", n_shards, join_b)


def doc_containment_pairs(sf_dir: str,
                          n_shards: int = 64,
                          plan: str = "exact") -> "rd.Dataset":
    """Containment screening — the dedup mode Jaccard misses: a doc
    QUOTED or WRAPPED inside a larger one scores low symmetric
    similarity but high one-sided containment.  Pairs where >=
    CONTAIN_PCT% of the INNER doc's winnowing fingerprints (keep=64
    for resolution; same k-gram/window chain as doc_fingerprints)
    appear in the outer doc's set; inner = the side with the smaller
    (|fps|, doc_id), so direction is deterministic.

    Plan (the winnow_dup_pairs fingerprint-shard shape + the
    cross-source two-hop count join): distinct (fp, doc) rows shard by
    fp -> per-shard co-occurrence pair partials -> pair-shard sums;
    per-doc fp counts (computed map-side, docs are rows) ride two
    doc-hash exchange hops to attach n_a / n_b; the final shard
    evaluates the containment predicate vectorized.  Lazy Dataset of
    (doc_inner, doc_outer, n_inner, shared).  Oracle: the shared
    winnowing CTE filtered to rn <= 64, self-joined, tuple-compared,
    hash-matched.

    SKEW CAVEAT (measured): a fingerprint shared by F docs emits
    O(F^2) pair partials.  This synthetic corpus draws from a ~30-word
    vocabulary, so at sf0.1 the 5-gram space SATURATES (median fp
    doc-frequency 170 of 5000 docs) and the pass costs ~85 s; a
    df-cap / PPJoin rarest-prefix filter was prototyped and measured
    — on this corpus NO frequency threshold separates dup-cluster
    fingerprints from corpus-common ones (cap 100 keeps 5 of 256 true
    pairs; cap 200 keeps all but restores the full volume), so the
    exact semantics are kept.  On a real corpus (md5 5-grams over
    natural text are near-unique) the rarest-prefix filter is the
    100-TB path: candidates only from each doc's floor(0.1*n)+1
    rarest fps, then exact verification — same answer, linear
    candidate volume."""
    if plan == "prefix":
        return doc_containment_pairs_prefix(sf_dir, n_shards)
    if plan != "exact":
        raise ValueError(f"unknown containment plan {plan!r}")
    from tensorflow_ocr_ray.functions.textstats import winnow_fingerprint
    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    docs = _docs(sf_dir, ["doc_id", "text"])

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        ids, fps = [], []
        for did, text in zip(df["doc_id"], df["text"]):
            ms = winnow_fingerprint(text, keep=CONTAIN_KEEP)
            ids.extend([int(did)] * len(ms))
            fps.extend(int(m) for m in ms)
        fp = np.asarray(fps, dtype=np.int64)
        return pd.DataFrame(
            {"fp": fp, "doc_id": np.asarray(ids, np.int64),
             "shard": fp % n_shards})

    # per-doc fp counts (the containment denominator): a skinny
    # second pass over the same read
    def count_rows(df: pd.DataFrame) -> pd.DataFrame:
        out = [(int(d), len(winnow_fingerprint(t, keep=CONTAIN_KEEP)))
               for d, t in zip(df["doc_id"], df["text"])]
        g = pd.DataFrame(out, columns=["doc", "n"])
        return g[g["n"] > 0].astype("int64")

    def pairs_in_shard(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["doc_a", "doc_b", "p_shared", "pshard"]
        if not len(df):
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in cols})
        a_l, b_l = [], []
        for _, g in df.groupby("fp"):
            d = np.sort(pd.unique(g["doc_id"].to_numpy()))
            if len(d) < 2:
                continue
            iu = np.triu_indices(len(d), k=1)
            a_l.append(d[iu[0]])
            b_l.append(d[iu[1]])
        if not a_l:
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in cols})
        out = (pd.DataFrame({"doc_a": np.concatenate(a_l),
                             "doc_b": np.concatenate(b_l)})
               .groupby(["doc_a", "doc_b"], as_index=False)
               .size().rename(columns={"size": "p_shared"}))
        out["pshard"] = (out["doc_a"] * 1_000_003
                         + out["doc_b"]) % n_shards
        return out.astype("int64")

    fp_rows = docs.map_batches(explode, batch_format="pandas",
                               batch_size=2048)
    pair_partials = hash_exchange(fp_rows, "shard", n_shards,
                                  pairs_in_shard)
    counts = docs.map_batches(count_rows, batch_format="pandas",
                              batch_size=2048)
    return _contain_finish(pair_partials, counts, n_shards)


def doc_containment_pairs_prefix(sf_dir: str,
                                 n_shards: int = 64) -> "rd.Dataset":
    """Rarest-prefix (PPJoin-style) containment — the 100-TB plan.

    Same answer as ``plan="exact"`` with LINEAR candidate volume on
    natural corpora: a pair with shared >= required(n_inner) must share
    at least one of the inner doc's prefix_len = n - required(n) + 1
    globally RAREST fingerprints (pigeonhole: missing all of them caps
    shared at required - 1), where required(n) = max(ceil(PCT*n/100),
    CONTAIN_MIN) — fingerprints per doc are distinct by construction
    (winnow_fingerprint dedups).  Candidates pair only PREFIX rows with
    bucket rows, so a corpus-common fingerprint (high df, in almost
    nobody's prefix) never fans out quadratically — the failure mode of
    the exact plan's per-fp triu.  Exact verification then recounts
    shared ONLY for candidate pairs, so the final rows are identical to
    the exact plan's (a crafted-corpus test asserts frame equality).

    Dataflow: explode -> df-per-fp (fp-sharded: exact in-shard df) ->
    per-doc rarest-prefix marking (doc-sharded) -> candidate pairs
    (fp-sharded, prefix x bucket) -> pair-dedup -> broadcast adjacency
    (the candidate list is linear; same driver-collect contract as the
    minhash pair-dedup) -> candidate-restricted co-occurrence partials
    -> the shared _contain_finish verification tail."""
    from tensorflow_ocr_ray.functions.textstats import winnow_fingerprint
    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    docs = _docs(sf_dir, ["doc_id", "text"])

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        ids, fps = [], []
        for did, text in zip(df["doc_id"], df["text"]):
            ms = winnow_fingerprint(text, keep=CONTAIN_KEEP)
            ids.extend([int(did)] * len(ms))
            fps.extend(int(m) for m in ms)
        fp = np.asarray(fps, dtype=np.int64)
        return pd.DataFrame(
            {"fp": fp, "doc_id": np.asarray(ids, np.int64),
             "shard": fp % n_shards})

    def count_rows(df: pd.DataFrame) -> pd.DataFrame:
        out = [(int(d), len(winnow_fingerprint(t, keep=CONTAIN_KEEP)))
               for d, t in zip(df["doc_id"], df["text"])]
        g = pd.DataFrame(out, columns=["doc", "n"])
        return g[g["n"] > 0].astype("int64")

    fp_rows = docs.map_batches(explode, batch_format="pandas",
                               batch_size=2048)

    def attach_df(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["fp", "doc_id", "fp_df", "shard"]
        if not len(df):
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in cols})
        d = df.groupby("fp")["doc_id"].size()  # rows are (fp, doc)-distinct
        out = df[["fp", "doc_id"]].copy()
        out["fp_df"] = out["fp"].map(d).astype("int64")
        out["shard"] = out["doc_id"].to_numpy(np.int64) % n_shards
        return out.astype("int64")

    with_df = hash_exchange(fp_rows, "shard", n_shards, attach_df)

    def mark_prefix(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["fp", "doc_id", "in_prefix", "shard"]
        if not len(df):
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in cols})
        df = df.sort_values(["doc_id", "fp_df", "fp"], kind="mergesort")
        n = df.groupby("doc_id")["fp"].transform("size").to_numpy(np.int64)
        rank = df.groupby("doc_id").cumcount().to_numpy(np.int64)
        required = np.maximum(
            (CONTAIN_PCT * n + 99) // 100, CONTAIN_MIN)
        plen = n - required + 1  # <= 0: doc can never be inner
        fp = df["fp"].to_numpy(np.int64)
        return pd.DataFrame(
            {"fp": fp,
             "doc_id": df["doc_id"].to_numpy(np.int64),
             "in_prefix": (rank < plen).astype(np.int64),
             "shard": fp % n_shards})

    marked = hash_exchange(with_df, "shard", n_shards, mark_prefix)

    def cand_pairs(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["doc_a", "doc_b", "pshard"]
        if not len(df):
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in cols})
        a_l, b_l = [], []
        for _, g in df.groupby("fp"):
            bucket = np.sort(pd.unique(g["doc_id"].to_numpy()))
            if len(bucket) < 2:
                continue
            pref = pd.unique(
                g.loc[g["in_prefix"] == 1, "doc_id"].to_numpy())
            if not len(pref):
                continue
            a = np.repeat(pref, len(bucket))
            b = np.tile(bucket, len(pref))
            keep = a != b
            a, b = a[keep], b[keep]
            a_l.append(np.minimum(a, b))
            b_l.append(np.maximum(a, b))
        if not a_l:
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in cols})
        out = pd.DataFrame(
            {"doc_a": np.concatenate(a_l),
             "doc_b": np.concatenate(b_l)}).drop_duplicates()
        out["pshard"] = (out["doc_a"] * 1_000_003
                         + out["doc_b"]) % n_shards
        return out.astype("int64")

    cand_partials = hash_exchange(marked, "shard", n_shards, cand_pairs)

    def dedup_cands(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["doc_a", "doc_b"]
        if not len(df):
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in cols})
        return df[cols].drop_duplicates().astype("int64")

    cands = hash_exchange(
        cand_partials, "pshard", n_shards, dedup_cands).to_pandas()
    adj: dict[int, set] = {}
    if len(cands) and "doc_a" in cands.columns:
        for a, b in zip(cands["doc_a"].tolist(), cands["doc_b"].tolist()):
            adj.setdefault(int(a), set()).add(int(b))
    adj_ref = ray.put(adj)

    def pairs_in_shard_cand(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["doc_a", "doc_b", "p_shared", "pshard"]
        if not len(df):
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in cols})
        adj_v = ray.get(adj_ref)
        a_l, b_l = [], []
        for _, g in df.groupby("fp"):
            bucket = pd.unique(g["doc_id"].to_numpy()).tolist()
            if len(bucket) < 2:
                continue
            in_bucket = set(bucket)
            for a in bucket:
                ps = adj_v.get(a)
                if not ps:
                    continue
                for b in ps:
                    if b in in_bucket:
                        a_l.append(a)
                        b_l.append(b)
        if not a_l:
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in cols})
        out = (pd.DataFrame({"doc_a": a_l, "doc_b": b_l})
               .groupby(["doc_a", "doc_b"], as_index=False)
               .size().rename(columns={"size": "p_shared"}))
        out["pshard"] = (out["doc_a"] * 1_000_003
                         + out["doc_b"]) % n_shards
        return out.astype("int64")

    pair_partials = hash_exchange(marked, "shard", n_shards,
                                  pairs_in_shard_cand)
    counts = docs.map_batches(count_rows, batch_format="pandas",
                              batch_size=2048)
    return _contain_finish(pair_partials, counts, n_shards)


def dup_weight_assign(sf_dir: str, n_shards: int | None = None) -> "rd.Dataset":
    """Soft dedup: instead of DROPPING duplicate documents, every copy
    gets a training weight ``1000 // cluster_size`` milli-units (the
    down-weighting alternative to hard dedup — total mass per distinct
    text stays ~constant, so common boilerplate stops dominating the
    loss without discarding coverage).  One row per INPUT doc:
    (doc_id, cluster_n, weight_milli, is_canonical).

    Physical plan = ``dedup_exact``'s bounded-key md5 shard routing —
    identical texts co-locate by construction, the in-shard group key
    is the text itself (prefix collisions only co-locate), one
    exchange, nothing on the driver."""
    from tensorflow_ocr_ray.functions.textstats import _md5_prefix_batch
    from tensorflow_ocr_ray.stages.exchange import (
        adaptive_shards,
        hash_exchange,
        meta_rows,
    )

    if n_shards is None:
        n_shards = adaptive_shards(
            meta_rows(sf_dir, "documents"), target_rows=65536
        )
    ds = _docs(sf_dir, ["doc_id", "text"])

    def add_shard(df: pd.DataFrame) -> pd.DataFrame:
        keys = [f"{len(t)}:{t[:256]}" for t in df["text"]]
        h = _md5_prefix_batch(keys, 8).astype(np.uint64)
        return pd.DataFrame(
            {"doc_id": df["doc_id"].astype("int64"),
             "text": df["text"],
             "shard": (h % np.uint64(n_shards)).astype("int64")})

    def per_shard(df: pd.DataFrame) -> pd.DataFrame:
        n = df.groupby("text")["doc_id"].transform("size")
        keeper = df.groupby("text")["doc_id"].transform("min")
        return pd.DataFrame(
            {"doc_id": df["doc_id"].astype("int64"),
             "cluster_n": n.astype("int64"),
             "weight_milli": (1000 // n).astype("int64"),
             "is_canonical": (df["doc_id"] == keeper).astype("int64")})

    return hash_exchange(
        ds.map_batches(add_shard, batch_format="pandas", batch_size=4096),
        "shard", n_shards, per_shard,
    )


def dedup_keep_longest(
    sf_dir: str,
    num_perm: int = 64,
    bands: int = 16,
    verify_threshold: float = 0.6,
) -> pd.DataFrame:
    """Per near-dup cluster, keep the LONGEST member — the completeness
    policy (a truncated mirror loses to the full page) real curation
    pipelines use instead of keep-first: per cluster the winner is the
    max-``n_chars`` member, tie to the smaller doc_id, alongside the
    member count and winning length.

    Physical plan: ``minhash_dedup``'s (doc_id, cluster_rep) frame is
    clustered-docs-bounded and broadcast once; ONE column-pruned pass
    over ``documents(doc_id, n_chars)`` folds each batch to per-cluster
    (max_chars, argmin-doc-at-max) partials — the fold rule is
    associative, so batch partials merge exactly on the driver over
    |clusters| rows.  Text never moves; the scan reads two int columns.
    Output is cluster-bounded, safe as a driver frame at any corpus
    size (it scales with dup clusters, not docs)."""
    clusters = minhash_dedup(sf_dir, num_perm, bands, verify_threshold)
    cols = {"cluster_rep": "int64", "keep_doc_id": "int64",
            "n_members": "int64", "max_chars": "int64"}
    if not len(clusters):
        return pd.DataFrame(
            {c: pd.Series([], dtype=t) for c, t in cols.items()})
    rep_ref = ray.put(dict(zip(clusters["doc_id"].astype(int),
                               clusters["cluster_rep"].astype(int))))

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        rep = ray.get(rep_ref)
        ids = df["doc_id"].to_numpy(np.int64)
        m = np.isin(ids, np.fromiter(rep.keys(), np.int64, len(rep)))
        if not m.any():
            return pd.DataFrame(
                {"cluster_rep": pd.Series([], dtype="int64"),
                 "doc_id": pd.Series([], dtype="int64"),
                 "n_chars": pd.Series([], dtype="int64"),
                 "n": pd.Series([], dtype="int64")})
        d = pd.DataFrame(
            {"cluster_rep": [rep[int(i)] for i in ids[m]],
             "doc_id": ids[m],
             "n_chars": df["n_chars"].to_numpy(np.int64)[m]})
        # associative fold: (max chars, min doc at that max, count)
        d = d.sort_values(["cluster_rep", "n_chars", "doc_id"],
                          ascending=[True, False, True])
        g = d.groupby("cluster_rep", as_index=False).agg(
            doc_id=("doc_id", "first"), n_chars=("n_chars", "first"),
            n=("doc_id", "size"))
        return g.astype("int64")

    parts = (
        _docs(sf_dir, ["doc_id", "n_chars"])
        .map_batches(partial, batch_format="pandas", batch_size=65536)
        .to_pandas()
    )
    parts = parts.sort_values(["cluster_rep", "n_chars", "doc_id"],
                              ascending=[True, False, True])
    out = parts.groupby("cluster_rep", as_index=False).agg(
        keep_doc_id=("doc_id", "first"), n_members=("n", "sum"),
        max_chars=("n_chars", "first"))
    return (out[list(cols)].astype("int64")
            .sort_values("cluster_rep").reset_index(drop=True))
