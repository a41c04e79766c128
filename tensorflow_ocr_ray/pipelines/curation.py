"""Corpus-curation operators for large-scale training-data pipelines.

Six operators a 100 TB pretraining-data pipeline needs beyond dedup /
similarity (each is a ``queries()`` entry with a hard DuckDB oracle):

- decontaminate:    benchmark n-gram decontamination — the benchmark
                    side is SMALL by nature, so its shingle-hash set is
                    broadcast (``ray.put``) and the corpus pass is a
                    map-only vectorized membership filter; no shuffle.
- repetition_stats: Gopher-style word-repetition quality signals
                    (top-unigram / top-bigram / duplicate-trigram
                    fractions), map-only.
- hash_split:       deterministic md5 train/valid/test split plus
                    per-language stratified downsampling (data-mixing
                    rates), map-only — reproducible across runs and
                    engines, no RNG state.
- pii_scrub:        regex PII redaction (emails, IPv4, phone numbers)
                    with per-doc match counts, map-only compiled
                    regexes.
- pack_sequences:   fixed-token-budget sequence packing via a
                    DISTRIBUTED ordered prefix-sum (per-shard subtotals
                    -> exclusive shard offsets broadcast -> per-shard
                    vectorized cumsum); the classic "pack documents
                    into context windows" step.
- tfidf_top_terms:  per-document top-k salient terms by a
                    division-exact tf-idf score (cnt * N / df — no
                    libm, bit-identical to SQL), built from a sharded
                    union-merge token join + a per-doc top-k shuffle.

All hashing is md5-derived (SQL-reproducible, no salted ``hash()``);
all ratios are raw IEEE int/int double divisions so the oracles
hash-compare bit-identically.
"""

from __future__ import annotations

import re
import zlib
from collections import Counter

import numpy as np
import pandas as pd

import ray
import ray.data as rd
from ray.data.aggregate import Sum

from tensorflow_ocr_ray.stages.exchange import hash_exchange
from tensorflow_ocr_ray.functions.textstats import (
    _WS,
    _md5_64,
    _md5_prefix_batch,
    split_tokens,
    token_count,
    token_count_batch,
)


def _docs(sf_dir: str, columns: list[str] | None = None) -> "rd.Dataset":
    return rd.read_parquet(f"{sf_dir}/documents.parquet", columns=columns)


# ---------------- benchmark decontamination -------------------------------

DECON_K = 20          # char k-gram length (~4 tokens on this corpus)
DECON_BENCH_MOD = 41  # doc_id % 41 == 0 plays the held-out benchmark


def _char_kgrams(text: str, k: int) -> list[str]:
    """Distinct char k-grams of the ws-collapsed lowercased text (the
    same normalization the shingle dedup family uses)."""
    t = _WS.sub(" ", text.strip().lower())
    if not t:
        return []
    if len(t) < k:
        return [t]
    return list({t[i : i + k] for i in range(len(t) - k + 1)})


def decontaminate(
    sf_dir: str, k: int = DECON_K, bench_mod: int = DECON_BENCH_MOD
) -> "rd.Dataset":
    """Mark corpus documents that share any char ``k``-gram with the
    benchmark set (``doc_id % bench_mod == 0``).

    Scale shape: a benchmark suite is tiny next to a 100 TB corpus, so
    its distinct shingle hashes are collected once (per-batch
    ``np.unique`` partials -> one sorted uint64 array) and broadcast
    with ``ray.put``; the corpus pass is map-only — per batch, one
    ``np.searchsorted`` over the concatenated per-doc gram hashes and a
    segment-sum.  No shuffle anywhere.  Hashes are md5-64 (collision
    probability ~n^2/2^65 — negligible), so the DuckDB string-join
    oracle matches exactly."""
    def bench_hashes(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["doc_id"] % bench_mod == 0]
        parts = [
            _md5_prefix_batch(_char_kgrams(t, k), 8) for t in df["text"]
        ] or [np.array([], dtype=">u8")]
        return pd.DataFrame(
            {"h": np.unique(np.concatenate(parts)).astype(np.uint64)}
        )

    bench_parts = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(bench_hashes, batch_format="pandas", batch_size=1024)
        .to_pandas()  # NOT take_all: per-row dict conversion is ~10x
    )
    bench = np.unique(bench_parts["h"].values.astype(np.uint64))
    bench_ref = ray.put(bench)

    def hits(df: pd.DataFrame) -> pd.DataFrame:
        b = ray.get(bench_ref)
        df = df[df["doc_id"] % bench_mod != 0]
        grams = [_char_kgrams(t, k) for t in df["text"]]
        lens = np.array([len(g) for g in grams], dtype=np.int64)
        flat = [g for gs in grams for g in gs]
        if flat:
            hs = _md5_prefix_batch(flat, 8).astype(np.uint64)
            idx = np.searchsorted(b, hs)
            idx[idx == len(b)] = 0
            hit = (b[idx] == hs) if len(b) else np.zeros(len(hs), bool)
            n_hits = np.add.reduceat(
                np.concatenate([hit.astype(np.int64), [0]]),
                np.concatenate([[0], np.cumsum(lens)[:-1]]),
            )[: len(lens)]
            n_hits[lens == 0] = 0
        else:
            n_hits = np.zeros(len(df), dtype=np.int64)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].values,
                "n_hits": n_hits.astype("int64"),
                "contaminated": n_hits > 0,
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        hits, batch_format="pandas", batch_size=256
    )


# ---------------- Gopher-style repetition signals -------------------------

def _word_grams(toks: list[str], n: int) -> list[str]:
    if len(toks) < n:
        return []
    return [" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)]


def repetition_stats_batch(df: pd.DataFrame) -> pd.DataFrame:
    """Per-doc word-repetition quality signals (cf. the Gopher rules):

    - top_unigram_frac:  count of the most frequent token / n tokens
    - top_bigram_frac:   count of the most frequent word 2-gram / n 2-grams
    - dup_trigram_frac:  occurrences of 3-grams appearing >1 time / n 3-grams

    Raw int/int double divisions — bit-identical to the SQL oracle."""
    rows = []
    for doc_id, text in zip(df["doc_id"], df["text"]):
        toks = [t for t in split_tokens(text.lower()) if t]
        c1 = Counter(toks)
        f1 = max(c1.values()) / len(toks) if toks else 0.0
        g2 = _word_grams(toks, 2)
        f2 = max(Counter(g2).values()) / len(g2) if g2 else 0.0
        g3 = _word_grams(toks, 3)
        if g3:
            c3 = Counter(g3)
            f3 = sum(c for c in c3.values() if c > 1) / len(g3)
        else:
            f3 = 0.0
        rows.append((doc_id, f1, f2, f3))
    return pd.DataFrame(
        rows,
        columns=[
            "doc_id", "top_unigram_frac", "top_bigram_frac",
            "dup_trigram_frac",
        ],
    ).astype({"doc_id": "int64"})


def repetition_stats(sf_dir: str) -> "rd.Dataset":
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        repetition_stats_batch, batch_format="pandas", batch_size=4096
    )


# ---------------- deterministic split + stratified sampling ---------------

# per-language keep rates in integer percent (data-mixing weights);
# languages absent from the table fall back to DEFAULT_RATE
SPLIT_RATES = {"en": 100, "de": 80, "fr": 60, "es": 40, "zh": 20}
DEFAULT_RATE = 50
TRAIN_PCT, VALID_PCT = 80, 90  # <80 train, <90 valid, else test


def hash_split_batch(df: pd.DataFrame) -> pd.DataFrame:
    bucket = np.array(
        [_md5_64(str(int(d))) % 100 for d in df["doc_id"]], dtype=np.int64
    )
    split = np.where(
        bucket < TRAIN_PCT, "train", np.where(bucket < VALID_PCT, "valid",
                                              "test")
    )
    rates = np.array(
        [SPLIT_RATES.get(lg, DEFAULT_RATE) for lg in df["lang"]],
        dtype=np.int64,
    )
    return pd.DataFrame(
        {
            "doc_id": df["doc_id"].values,
            "lang": df["lang"].values,
            "bucket": bucket,
            "split": split,
            "sampled": bucket < rates,
        }
    )


def hash_split(sf_dir: str) -> "rd.Dataset":
    """Deterministic md5 train/valid/test split + per-language stratified
    downsampling.  Pure map — identical assignment on any engine, any
    run, any partitioning (the property that matters for reproducible
    100 TB corpus builds: membership is a function of the row, never of
    RNG state or scan order)."""
    return _docs(sf_dir, ["doc_id", "lang"]).map_batches(
        hash_split_batch, batch_format="pandas", batch_size=8192
    )


# ---------------- PII scrubbing -------------------------------------------

PII_EMAIL = re.compile(r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}")
PII_IP = re.compile(r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b")
PII_PHONE = re.compile(r"\b\d{3}-\d{3}-\d{4}\b")


def inject_pii(doc_id: int, text: str) -> str:
    """Deterministic synthetic PII appended per doc (the corpus itself is
    PII-free, so the oracle exercises real matches; cf. the HTML
    wrap/extract pair)."""
    return (
        f"{text} Contact user{doc_id}@mail.example.com or "
        f"555-{doc_id % 1000:03d}-{(doc_id * 7) % 10000:04d} at "
        f"10.{doc_id % 256}.0.{(doc_id * 3) % 256}."
    )


def pii_scrub_batch(df: pd.DataFrame) -> pd.DataFrame:
    rows = []
    for doc_id, text in zip(df["doc_id"], df["text"]):
        t = inject_pii(int(doc_id), text)
        n_em = len(PII_EMAIL.findall(t))
        n_ip = len(PII_IP.findall(t))
        n_ph = len(PII_PHONE.findall(t))
        s = PII_EMAIL.sub("<EMAIL>", t)
        s = PII_IP.sub("<IP>", s)
        s = PII_PHONE.sub("<PHONE>", s)
        rows.append((doc_id, s, n_em, n_ip, n_ph))
    return pd.DataFrame(
        rows, columns=["doc_id", "scrubbed", "n_emails", "n_ips", "n_phones"]
    ).astype(
        {"doc_id": "int64", "n_emails": "int64", "n_ips": "int64",
         "n_phones": "int64"}
    )


def pii_scrub(sf_dir: str) -> "rd.Dataset":
    """Regex PII redaction (emails -> <EMAIL>, IPv4 -> <IP>, phones ->
    <PHONE>) with per-doc match counts.  Map-only, module-level compiled
    patterns (compiled once per worker process, not per batch); count
    and replacement semantics match DuckDB's RE2 on these patterns."""
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        pii_scrub_batch, batch_format="pandas", batch_size=4096
    )


# ---------------- fixed-budget sequence packing ---------------------------

PACK_CAPACITY = 2048   # tokens per training context window
PACK_SHARD = 1024      # docs per prefix-sum shard (scale knob: pick so
                       # corpus_docs / PACK_SHARD stays ~1e5-1e6 rows)


def pack_sequences(
    sf_dir: str, capacity: int = PACK_CAPACITY, shard_size: int = PACK_SHARD
) -> "rd.Dataset":
    """Assign documents (in doc_id order) to fixed ``capacity``-token
    context windows: chunk_id = floor(exclusive_prefix_tokens / capacity).

    The global ordered prefix-sum is distributed in two passes:
    1. a skinny (doc_id, shard, tokens) table — materialized once (ints
       only, ~24 B/row, so the object store holds it even at corpus
       scale) — yields per-shard token subtotals via one bounded
       ``groupby``; the driver turns those into exclusive shard offsets
       (one number per shard) and broadcasts them;
    2. each shard group sorts locally by doc_id and adds its offset to a
       vectorized cumsum.  No task ever sees more than one shard."""
    stats = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(
            lambda df: pd.DataFrame(
                {
                    "doc_id": df["doc_id"].values,
                    "shard": (df["doc_id"].values // shard_size).astype(
                        "int64"
                    ),
                    "tokens": pd.Series(token_count_batch(df["text"]), index=df.index),
                }
            ),
            batch_format="pandas",
            batch_size=4096,
        )
        .materialize()
    )
    return _pack_assign(stats, capacity)


def _pack_assign(stats: "rd.Dataset", capacity: int) -> "rd.Dataset":
    """Distributed ordered prefix-sum packing over a materialized skinny
    (doc_id, shard, tokens) table (see ``pack_sequences`` for the plan)."""
    totals = stats.groupby("shard").aggregate(
        Sum("tokens", alias_name="tot")
    ).take_all()
    totals.sort(key=lambda r: r["shard"])
    offsets: dict[int, int] = {}
    acc = 0
    for r in totals:
        offsets[int(r["shard"])] = acc
        acc += int(r["tot"])
    off_ref = ray.put(offsets)

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        offs = ray.get(off_ref)
        df = df.sort_values("doc_id")
        base = offs[int(df["shard"].iloc[0])]
        cume = base + np.cumsum(df["tokens"].values) - df["tokens"].values
        chunk_id = cume // capacity
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].values,
                "tokens": df["tokens"].values,
                "chunk_id": chunk_id.astype("int64"),
                "chunk_offset": (cume - chunk_id * capacity).astype("int64"),
            }
        )

    # NOT hash_exchange: pack shards are doc_id // shard_size — a
    # data-dependent, unbounded shard count (hash_exchange requires
    # values in 0..n_shards-1 and hard-fails with ValueError outside
    # that range)
    return stats.groupby("shard").map_groups(assign, batch_format="pandas")


# ---------------- tf-idf salient terms ------------------------------------

TFIDF_TOPN = 3
_N_SHARDS = 64


def tfidf_top_terms(sf_dir: str, topn: int = TFIDF_TOPN) -> "rd.Dataset":
    """Per-document top-``topn`` terms by tf-idf, scored division-exact
    (score = cnt * N / df — integer products under 2^53, one IEEE
    division; no log, so the SQL oracle is bit-identical).

    Physical plan (both shuffles on bounded shard keys — Ray's per-key
    hash aggregate costs ~ms per distinct key, so ALL per-token work
    happens vectorized inside crc32(token)-shard groups, the repo's
    standard sharded-combine pattern):
    1. map: per-doc token counts (docs never span batches — one row per
       doc), rows (doc_id, token, cnt);
    2. one shuffle on crc32(token) % 64: every row of a token lands in
       one shard, so df (distinct docs per token) AND the score join
       are a single vectorized pandas groupby/map per shard;
    3. per-doc top-k via a doc-hash-sharded sort + head (never a
       per-doc Python group)."""
    import pyarrow.parquet as pq

    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows

    def counts(df: pd.DataFrame) -> pd.DataFrame:
        out_doc, out_tok, out_cnt = [], [], []
        for doc_id, text in zip(df["doc_id"], df["text"]):
            toks = [t for t in split_tokens(text.lower()) if t]
            for tok, c in Counter(toks).items():
                out_doc.append(doc_id)
                out_tok.append(tok)
                out_cnt.append(c)
        out = pd.DataFrame(
            {"doc_id": out_doc, "token": out_tok, "cnt": out_cnt}
        ).astype({"doc_id": "int64", "cnt": "int64"})
        out["tshard"] = np.fromiter(
            (zlib.crc32(t.encode()) % _N_SHARDS for t in out["token"]),
            dtype=np.int64,
            count=len(out),
        )
        return out

    def score_shard(g: pd.DataFrame) -> pd.DataFrame:
        # one row per (doc, token) -> df = rows per token in this shard
        df_tbl = g.groupby("token")["doc_id"].size()
        g = g[["doc_id", "token", "cnt"]].copy()
        g["df"] = g["token"].map(df_tbl).astype("int64")
        return g

    # routed exchange, not groupby-sort: Ray's Sort operator dominated
    # wall at BOTH scaling levels on a 320k-doc probe (efficiency 0.37)
    # while every map stage scaled — rows only need ROUTING to their
    # precomputed crc32 shard (stages/exchange.py)
    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    joined = hash_exchange(
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(counts, batch_format="pandas", batch_size=512),
        "tshard", _N_SHARDS, score_shard,
    )

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        g["score"] = (
            g["cnt"].values.astype(np.int64) * n_docs
        ) / g["df"].values.astype(np.int64)
        g = g.sort_values(
            ["doc_id", "score", "token"], ascending=[True, False, True]
        )
        g["rank"] = g.groupby("doc_id").cumcount() + 1
        g = g[g["rank"] <= topn]
        return g[["doc_id", "token", "score", "rank"]].astype(
            {"doc_id": "int64", "rank": "int64"}
        )

    return hash_exchange(
        joined.map_batches(
            lambda df: df.assign(dshard=(df["doc_id"] % _N_SHARDS)),
            batch_format="pandas",
        ),
        "dshard", _N_SHARDS, topk,
    )


# ---------------- per-source quality gating -------------------------------

SOURCE_GATE_MIN_TOKENS = 50  # keep sources whose mean tokens/doc >= this


def source_gate(
    sf_dir: str, min_mean_tokens: float = SOURCE_GATE_MIN_TOKENS
) -> "rd.Dataset":
    """Domain-level quality gating: keep documents whose SOURCE passes a
    corpus-level aggregate bar (here: mean tokens per document — the
    per-domain spam/quality gates of web-corpus curation).

    The pattern is aggregate -> broadcast -> filter: the per-source
    aggregate is |sources|-bounded (small side), so it is combined from
    per-batch partial (sum, count) rows and broadcast via ``ray.put``;
    the corpus pass is map-only.  The mean is sum(int)/count(int) — one
    exact int64 sum and one IEEE division, so the oracle is
    bit-identical regardless of partitioning or combine order (a
    float-mean would be order-dependent)."""
    stats = _docs(sf_dir, ["doc_id", "text", "source"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = pd.Series(token_count_batch(df["text"]), index=df.index)
        g = pd.DataFrame({"source": df["source"], "t": toks}).groupby(
            "source", as_index=False
        ).agg(s=("t", "sum"), n=("t", "size"))
        return g.astype({"s": "int64", "n": "int64"})

    # per-batch partials are |sources|-bounded rows; the cross-batch
    # combine is a DISTRIBUTED groupby-sum (the driver receives exactly
    # |sources| rows, never sources x batches)
    per_src = (
        stats.map_batches(partial, batch_format="pandas", batch_size=4096)
        .groupby("source")
        .aggregate(Sum("s", alias_name="s"), Sum("n", alias_name="n"))
        .to_pandas()
    )
    means = {
        src: int(s) / int(n)
        for src, s, n in zip(per_src["source"], per_src["s"], per_src["n"])
    }
    means_ref = ray.put(means)

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        m = ray.get(means_ref)
        mean_col = df["source"].map(m)
        out = pd.DataFrame(
            {
                "doc_id": df["doc_id"].values,
                "source": df["source"].values,
                "tokens": pd.Series(token_count_batch(df["text"]), index=df.index),
                "source_mean_tokens": mean_col.values,
            }
        )
        return out[mean_col.values >= min_mean_tokens]

    return stats.map_batches(keep, batch_format="pandas", batch_size=4096)


# ---------------- exact substring duplication coverage --------------------

DUP_SPAN_K = 50  # duplicated-substring length (chars, normalized text)


def dup_span_coverage(sf_dir: str, k: int = DUP_SPAN_K) -> "rd.Dataset":
    """Exact substring duplication (the Lee-et-al "deduplicating
    training data" signal): for every position whose char ``k``-gram
    occurs >= 2 times in the WHOLE corpus, mark the span [i, i+k); per
    document report the number of duplicated positions, the union
    length of the marked spans, and the covered fraction of the text.

    Physical plan (two shuffles, both on 64-way shard keys):
    1. map: every doc emits (gram-hash-shard, gram md5-64, doc_id, pos,
       text-length) rows — positions of ALL k-grams;
    2. groupby(gram shard): every occurrence of a gram lands in one
       shard, so global occurrence counts are a vectorized value_counts;
       only rows of duplicated grams survive (the stream usually shrinks
       sharply here);
    3. groupby(doc shard): per doc, sorted positions -> interval union
       with fixed-width spans (vectorized islands: a new island starts
       where pos - prev_pos >= k), coverage = union/len.
    Gram hashing is md5-64 so the DuckDB string-join oracle matches
    exactly.

    Corpus-completeness (docs with NO duplicated span, including docs
    shorter than ``k``) comes from one skinny sentinel row (pos=0) per
    doc unioned into the doc-shard groupby — never a driver-side id
    set, so no driver structure grows with corpus size."""
    n_shards = _N_SHARDS

    def grams(df: pd.DataFrame) -> pd.DataFrame:
        doc_ids, poss, hss, lts = [], [], [], []
        for doc_id, text in zip(df["doc_id"], df["text"]):
            t = _WS.sub(" ", text.strip().lower())
            if len(t) < k:
                continue
            gs = [t[i : i + k] for i in range(len(t) - k + 1)]
            hs = _md5_prefix_batch(gs, 8).astype(np.uint64)
            doc_ids.append(np.full(len(gs), doc_id, dtype=np.int64))
            poss.append(np.arange(1, len(gs) + 1, dtype=np.int64))
            hss.append(hs)
            lts.append(np.full(len(gs), len(t), dtype=np.int64))
        if not doc_ids:
            return pd.DataFrame(
                {"gshard": pd.Series([], dtype="int64"),
                 "h": pd.Series([], dtype="uint64"),
                 "doc_id": pd.Series([], dtype="int64"),
                 "pos": pd.Series([], dtype="int64"),
                 "lt": pd.Series([], dtype="int64")}
            )
        h = np.concatenate(hss)
        return pd.DataFrame(
            {
                "gshard": (h % np.uint64(n_shards)).astype("int64"),
                "h": h,
                "doc_id": np.concatenate(doc_ids),
                "pos": np.concatenate(poss),
                "lt": np.concatenate(lts),
            }
        )

    def dup_rows(g: pd.DataFrame) -> pd.DataFrame:
        counts = g["h"].value_counts()
        keep = g["h"].map(counts) >= 2
        out = g.loc[keep, ["doc_id", "pos", "lt"]].copy()
        out["dshard"] = out["doc_id"] % n_shards
        return out

    def coverage(g: pd.DataFrame) -> pd.DataFrame:
        # sentinel rows (pos == 0, one per doc) make every doc present;
        # only real dup-position rows (pos >= 1) enter the island math
        g = g.sort_values(["doc_id", "pos"])
        real = g[g["pos"].values > 0]
        doc = real["doc_id"].values
        pos = real["pos"].values
        out = pd.DataFrame(
            {"doc_id": pd.unique(g["doc_id"].values)}
        ).set_index("doc_id")
        out["dup_positions"] = 0
        out["covered_chars"] = 0
        if len(real):
            new_doc = np.concatenate([[True], doc[1:] != doc[:-1]])
            brk = new_doc | np.concatenate(
                [[True], (pos[1:] - pos[:-1]) >= k]
            )
            starts = np.flatnonzero(brk)
            ends = np.concatenate([starts[1:], [len(pos)]]) - 1
            clen = pos[ends] - pos[starts] + k
            isl_df = pd.DataFrame(
                {"doc_id": doc[starts], "clen": clen}
            )
            cov = isl_df.groupby("doc_id")["clen"].sum()
            npos = pd.Series(doc).value_counts()
            out.loc[cov.index, "covered_chars"] = cov
            out.loc[npos.index, "dup_positions"] = npos
        lt = g.groupby("doc_id")["lt"].max()
        covered = out["covered_chars"].values.astype("int64")
        lt_v = lt.loc[out.index].values.astype("int64")
        return pd.DataFrame(
            {
                "doc_id": out.index.values.astype("int64"),
                "dup_positions": out["dup_positions"].values.astype(
                    "int64"
                ),
                "covered_chars": covered,
                "coverage": np.where(
                    covered > 0, covered / np.maximum(lt_v, 1), 0.0
                ),
            }
        )

    def sentinels(df: pd.DataFrame) -> pd.DataFrame:
        lts = np.fromiter(
            (len(_WS.sub(" ", t.strip().lower())) for t in df["text"]),
            dtype=np.int64,
            count=len(df),
        )
        doc = df["doc_id"].values.astype(np.int64)
        return pd.DataFrame(
            {
                "doc_id": doc,
                "pos": np.zeros(len(df), dtype=np.int64),
                "lt": lts,
                "dshard": doc % n_shards,
            }
        )

    # the gram explode amplifies ~40x per input char (40-byte row per
    # position), so the batch is sized to keep one task's output under
    # ~64 MiB even for multi-KB documents
    # both wide steps are routed hash exchanges, not groupby-sorts —
    # the Sort operator dominated wall at both scaling levels on the
    # 320k-doc probe (stages/exchange.py for the measurements)
    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    # hop 1 is the ~40x-amplified every-position gram stream — the
    # highest-volume exchange in the repo; hop 2 ships only surviving
    # dup rows + one sentinel per doc (sharply shrunk)
    dup_pos = hash_exchange(
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(grams, batch_format="pandas", batch_size=128),
        "gshard", n_shards, dup_rows,
    )
    sent = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        sentinels, batch_format="pandas", batch_size=2048
    )
    return hash_exchange(dup_pos.union(sent), "dshard", n_shards,
                         coverage)


# ---------------- corpus vocabulary top-K ----------------------------------

VOCAB_TOPK = 100


def vocab_topk(sf_dir: str, topn: int = VOCAB_TOPK) -> pd.DataFrame:
    """Corpus-wide top-``topn`` vocabulary by exact global token count
    (deterministic tie-break: count desc, token asc) — the vocab-build
    step of a tokenizer-training pipeline.

    Physical plan: per-batch ``Counter`` partials keyed by
    crc32(token) % 64 shards -> ONE shuffle on the bounded shard key ->
    per-shard global counts (every occurrence of a token lands in one
    shard) -> per-shard top-``topn``.  Any global top-N token is by
    definition top-N inside its own shard, so the per-shard heads are a
    provable superset; only ``64 * topn`` bounded rows reach the driver
    for the final sort+head.  At 100 TB nothing driver-side grows with
    corpus size — only with N_SHARDS * topn."""

    def counts(df: pd.DataFrame) -> pd.DataFrame:
        c: Counter = Counter()
        for text in df["text"]:
            c.update(t for t in split_tokens(text.lower()) if t)
        toks = list(c.keys())
        out = pd.DataFrame(
            {
                "token": toks,
                "cnt": np.fromiter(
                    (c[t] for t in toks), dtype=np.int64, count=len(toks)
                ),
            }
        )
        out["tshard"] = np.fromiter(
            (zlib.crc32(t.encode()) % _N_SHARDS for t in toks),
            dtype=np.int64,
            count=len(toks),
        )
        return out

    def shard_top(g: pd.DataFrame) -> pd.DataFrame:
        tot = g.groupby("token", as_index=False)["cnt"].sum()
        tot = tot.sort_values(
            ["cnt", "token"], ascending=[False, True]
        ).head(topn)
        return tot.astype({"cnt": "int64"})

    heads = (
        _docs(sf_dir, ["text"])
        .map_batches(counts, batch_format="pandas", batch_size=1024)
        .groupby("tshard")
        .map_groups(shard_top, batch_format="pandas")
        .to_pandas()
    )
    final = heads.sort_values(
        ["cnt", "token"], ascending=[False, True]
    ).head(topn).reset_index(drop=True)
    final["rank"] = np.arange(1, len(final) + 1, dtype=np.int64)
    return final[["token", "cnt", "rank"]].astype(
        {"cnt": "int64", "rank": "int64"}
    )


# ---------------- per-language length-percentile gating --------------------

LENGTH_GATE_LO_Q = 0.05
LENGTH_GATE_HI_Q = 0.95


def length_percentile_gate(
    sf_dir: str,
    lo_q: float = LENGTH_GATE_LO_Q,
    hi_q: float = LENGTH_GATE_HI_Q,
) -> "rd.Dataset":
    """Outlier-length filtering: keep documents whose ``n_chars`` lies
    between their language's exact discrete ``lo_q``/``hi_q`` quantiles
    (DuckDB's quantile_disc rule — the sorted value at 0-based index
    ceil(q*n)-1).

    Distributed-exact without any sort: ``n_chars`` has a bounded
    integer domain, so per-(lang, length) counts are a tiny aggregate —
    per-batch partial count frames combine in a distributed
    groupby-sum, and the driver receives |langs x distinct lengths|
    rows (data-scale-free).  Quantiles are read off each language's
    cumulative count table; the corpus pass is a map-only filter with
    the |langs|-bounded threshold dict broadcast once.  The read is
    pruned to three columns — text never leaves storage."""
    docs = _docs(sf_dir, ["doc_id", "lang", "n_chars"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["lang", "n_chars"], as_index=False).size()
        return pd.DataFrame(
            {
                "lang": g["lang"],
                "n_chars": g["n_chars"].astype("int64"),
                "c": g["size"].astype("int64"),
            }
        )

    hist = (
        docs.map_batches(partial, batch_format="pandas", batch_size=8192)
        .groupby("lang")
        .map_groups(
            lambda g: g.groupby(["lang", "n_chars"], as_index=False)["c"]
            .sum(),
            batch_format="pandas",
        )
        .to_pandas()
    )
    bounds: dict[str, tuple[int, int]] = {}
    for lang, g in hist.groupby("lang"):
        g = g.sort_values("n_chars")
        vals = g["n_chars"].values
        cum = g["c"].values.cumsum()
        n = int(cum[-1])
        lo_k = max(int(np.ceil(lo_q * n)) - 1, 0)
        hi_k = max(int(np.ceil(hi_q * n)) - 1, 0)
        lo_v = int(vals[np.searchsorted(cum, lo_k + 1)])
        hi_v = int(vals[np.searchsorted(cum, hi_k + 1)])
        bounds[lang] = (lo_v, hi_v)
    bounds_ref = ray.put(bounds)

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        b = ray.get(bounds_ref)
        lo = df["lang"].map(lambda l: b[l][0]).values
        hi = df["lang"].map(lambda l: b[l][1]).values
        nc = df["n_chars"].values
        m = (nc >= lo) & (nc <= hi)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].values[m].astype("int64"),
                "lang": df["lang"].values[m],
                "n_chars": nc[m].astype("int64"),
                "lang_lo": lo[m].astype("int64"),
                "lang_hi": hi[m].astype("int64"),
            }
        )

    return docs.map_batches(keep, batch_format="pandas", batch_size=8192)


# ---------------- Gopher-style composite quality gate ----------------------

GOPHER_MIN_TOKENS = 25
GOPHER_MAX_TOKENS = 100_000
GOPHER_MAX_TOP_UNIGRAM = 0.15
GOPHER_MAX_DUP_TRIGRAM = 0.02


def gopher_gate_batch(df: pd.DataFrame) -> pd.DataFrame:
    """Composite document-quality verdict chaining the Gopher-style
    rules in deterministic precedence order: token-count window ->
    top-unigram repetition -> duplicate-trigram repetition.  All
    signals are the exact int/int doubles of ``repetition_stats_batch``
    compared against literal thresholds, so the SQL oracle agrees
    bit-for-bit."""
    rep = repetition_stats_batch(df)
    toks = token_count_batch(df["text"])
    uni = rep["top_unigram_frac"].values
    tri = rep["dup_trigram_frac"].values
    reason = np.where(
        toks < GOPHER_MIN_TOKENS, "too_short",
        np.where(
            toks > GOPHER_MAX_TOKENS, "too_long",
            np.where(
                uni > GOPHER_MAX_TOP_UNIGRAM, "repetitive_unigram",
                np.where(
                    tri > GOPHER_MAX_DUP_TRIGRAM, "repetitive_trigram",
                    "kept",
                ),
            ),
        ),
    )
    return pd.DataFrame(
        {
            "doc_id": rep["doc_id"].values,
            "tokens": toks,
            "top_unigram_frac": uni,
            "dup_trigram_frac": tri,
            "passed": (reason == "kept").astype("int64"),
            "fail_reason": reason,
        }
    )


def gopher_gate(sf_dir: str) -> "rd.Dataset":
    """Map-only filter chain — the classic pre-training quality gate,
    streaming with zero shuffles."""
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        gopher_gate_batch, batch_format="pandas", batch_size=4096
    )


# ---------------- document rarity (mean token document-frequency) ----------


def doc_rarity(sf_dir: str) -> "rd.Dataset":
    """Per-document rarity signal: over the doc's DISTINCT tokens, the
    sum and mean of each token's corpus-wide document frequency.  Low
    mean df = rare vocabulary (specialist / noisy doc), high = stock
    phrasing — the cheap importance-sampling feature.

    Exactness: counts are ints; the single mean is one IEEE division
    (CAST(sum AS DOUBLE)/n in the oracle), so SQL parity is
    bit-for-bit.  Physical plan is ``tfidf_top_terms``'s sharded shape:
    (doc, token) rows shuffle once on crc32(token) % 64 so df and the
    df-attach are vectorized per shard, then a doc-hash-sharded combine
    sums per doc.  Both shuffle keys are bounded (64); the driver never
    sees token- or doc-cardinality rows."""

    def distinct_tokens(df: pd.DataFrame) -> pd.DataFrame:
        out_doc, out_tok = [], []
        for doc_id, text in zip(df["doc_id"], df["text"]):
            for tok in set(split_tokens(text.lower())):
                if tok:
                    out_doc.append(doc_id)
                    out_tok.append(tok)
        out = pd.DataFrame({"doc_id": out_doc, "token": out_tok}).astype(
            {"doc_id": "int64"}
        )
        out["tshard"] = np.fromiter(
            (zlib.crc32(t.encode()) % _N_SHARDS for t in out["token"]),
            dtype=np.int64,
            count=len(out),
        )
        return out

    def attach_df(g: pd.DataFrame) -> pd.DataFrame:
        # one row per (doc, token); all rows of a token are in this
        # shard, so df = rows per token here
        df_tbl = g.groupby("token")["doc_id"].size()
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].values,
                "df": g["token"].map(df_tbl).values,
                "dshard": g["doc_id"].values % _N_SHARDS,
            }
        ).astype("int64")

    def per_doc(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("doc_id", as_index=False)["df"].agg(["sum", "size"])
        return pd.DataFrame(
            {
                "doc_id": agg["doc_id"].astype("int64"),
                "n_tokens": agg["size"].astype("int64"),
                "sum_df": agg["sum"].astype("int64"),
                "mean_df": agg["sum"].values.astype(np.int64)
                / agg["size"].values.astype(np.int64),
            }
        )

    return hash_exchange(
        hash_exchange(
            _docs(sf_dir, ["doc_id", "text"])
            .map_batches(distinct_tokens, batch_format="pandas",
                         batch_size=512),
            "tshard", _N_SHARDS, attach_df),
        "dshard", _N_SHARDS, per_doc)


# ---------------- domain-mixture rebalancing -------------------------------

MIX_BUCKETS = 1_000_000  # md5 bucket resolution for keep-rate thresholds


def mixture_rebalance(sf_dir: str) -> "rd.Dataset":
    """Rebalance the corpus toward a UNIFORM language mixture by
    deterministic hash downsampling: every language keeps
    quota/lang_count of its docs, quota = the smallest language's count.

    Membership is integer math on the doc's own md5 bucket
    (bucket * lang_count < quota * MIX_BUCKETS) — a function of the row
    and two corpus constants, never RNG or scan order, so any engine,
    any partitioning, any retry produces the same corpus.  Physical
    plan: one distributed groupby-sum (driver receives |langs| rows),
    counts broadcast once via ray.put, then a pure map pass."""
    from ray.data.aggregate import Sum

    counts = (
        _docs(sf_dir, ["lang"])
        .map_batches(
            lambda df: df.groupby("lang", as_index=False).size()
            .rename(columns={"size": "n"}),
            batch_format="pandas",
            batch_size=65536,
        )
        .groupby("lang")
        .aggregate(Sum("n", alias_name="lang_count"))
        .to_pandas()
    )
    lang_count = dict(zip(counts["lang"], counts["lang_count"].astype(int)))
    quota = min(lang_count.values())
    counts_ref = ray.put((lang_count, quota))

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        lc, q = ray.get(counts_ref)
        bucket = np.array(
            [_md5_64(str(int(d))) % MIX_BUCKETS for d in df["doc_id"]],
            dtype=np.int64,
        )
        n = np.array([lc[lg] for lg in df["lang"]], dtype=np.int64)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].values,
                "lang": df["lang"].values,
                "bucket": bucket,
                "lang_count": n,
                "kept": (bucket * n < q * MIX_BUCKETS).astype("int64"),
            }
        )

    return _docs(sf_dir, ["doc_id", "lang"]).map_batches(
        keep, batch_format="pandas", batch_size=8192
    )


# ---------------- per-group top-k without a global sort --------------------

SOURCE_TOPK = 3


def source_topk_docs(sf_dir: str, topn: int = SOURCE_TOPK) -> "rd.Dataset":
    """Longest ``topn`` docs per source (n_chars DESC, doc_id ASC) —
    the distributed per-group top-k pattern: each batch emits its local
    per-source head (≤ topn rows per source per batch, a provable
    superset of the global winners), then one skinny shuffle on source
    merges heads.  No global sort, nothing doc-cardinality-sized moves."""

    def local_head(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["source", "n_chars", "doc_id"], ascending=[True, False, True]
        )
        return df[df.groupby("source").cumcount() < topn]

    def merge_head(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["source", "n_chars", "doc_id"], ascending=[True, False, True]
        )
        g = g[g.groupby("source").cumcount() < topn].copy()
        g["rank"] = g.groupby("source").cumcount() + 1
        return g[["source", "doc_id", "n_chars", "rank"]].astype(
            {"doc_id": "int64", "n_chars": "int64", "rank": "int64"}
        )

    return (
        _docs(sf_dir, ["doc_id", "source", "n_chars"])
        .map_batches(local_head, batch_format="pandas", batch_size=8192)
        .groupby("source")
        .map_groups(merge_head, batch_format="pandas")
    )


# ---------------- end-to-end curation pipeline -----------------------------


def curation_pipeline(
    sf_dir: str,
    capacity: int = PACK_CAPACITY,
    shard_size: int = PACK_SHARD,
) -> "rd.Dataset":
    """The full training-data build in one pipeline: exact + MinHash
    dedup keep-list ∘ Gopher-style quality gate ∘ fixed-token-budget
    sequence packing — a document reaches a context window only if it
    is BOTH the canonical copy of its duplicate group AND passes every
    quality rule; survivors pack in doc_id order.

    Physical plan: both verdict streams are skinny one-row-per-doc
    Datasets; they union and merge on the SAME doc_id//shard_size key
    the packer groups on, so the join and the pack share one shuffle.
    The prefix-sum offsets stay one number per shard on the driver."""
    from tensorflow_ocr_ray.pipelines.dedup import dedup_keep_list

    def k_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "shard": (df["doc_id"].values // shard_size),
                "tokens": 0,
                "flag": df["kept"].astype("int64"),
            }
        ).astype("int64")

    def g_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "shard": (df["doc_id"].values // shard_size),
                "tokens": df["tokens"].astype("int64"),
                "flag": df["passed"].astype("int64"),
            }
        ).astype("int64")

    k = dedup_keep_list(sf_dir).map_batches(k_rows, batch_format="pandas")
    g = gopher_gate(sf_dir).map_batches(g_rows, batch_format="pandas")

    def merge(gdf: pd.DataFrame) -> pd.DataFrame:
        a = gdf.groupby("doc_id", as_index=False).agg(
            shard=("shard", "first"),
            tokens=("tokens", "max"),
            flags=("flag", "sum"),
        )
        a = a[a["flags"] == 2]
        return a[["doc_id", "shard", "tokens"]].astype("int64")

    # NOT hash_exchange: this is the packer's own doc_id // shard_size
    # key — a data-dependent, unbounded shard count
    stats = (
        k.union(g)
        .groupby("shard")
        .map_groups(merge, batch_format="pandas")
        .materialize()
    )
    return _pack_assign(stats, capacity)


def distinct_trigram_count(sf_dir: str, n_shards: int = 64) -> pd.DataFrame:
    """EXACT corpus-wide distinct word-trigram count (the hard-oracle
    companion to the KMV *approximate* distinct sketch): the keyspace is
    far too large to collect, so distinctness is resolved per
    crc32(gram)-shard — a gram lives in exactly one shard, so the global
    distinct count is the SUM of per-shard distinct counts (one bounded
    row per shard reaches the driver).  Batches pre-dedupe locally to
    shrink the one skinny shuffle; totals ride the same partials."""
    import zlib

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        grams: set[str] = set()
        total = 0
        for text in df["text"]:
            toks = [t for t in split_tokens(text.lower()) if t]
            g3 = _word_grams(toks, 3)
            total += len(g3)
            grams.update(g3)
        gl = list(grams)
        return pd.DataFrame(
            {
                "gram": gl,
                "shard": np.asarray(
                    [zlib.crc32(g.encode()) % n_shards for g in gl],
                    dtype=np.int64,
                ),
                "p_total": np.asarray(
                    [total] + [0] * (len(gl) - 1) if gl else [],
                    dtype=np.int64,
                ),
            }
        )

    def shard_count(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "p_distinct": [np.int64(df["gram"].nunique())],
                "p_total": [np.int64(df["p_total"].sum())],
            }
        )

    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    parts = hash_exchange(
        _docs(sf_dir, ["text"])
        .map_batches(explode, batch_format="pandas", batch_size=4096),
        "shard", n_shards, shard_count,
    ).to_pandas()
    return pd.DataFrame(
        {
            "n_distinct": [np.int64(parts["p_distinct"].sum())],
            "n_total": [np.int64(parts["p_total"].sum())],
        }
    )


CHUNK_SIZE = 64   # tokens per chunk
CHUNK_STRIDE = 48  # overlap = size - stride = 16 tokens


def chunk_documents(
    sf_dir: str, size: int = CHUNK_SIZE, stride: int = CHUNK_STRIDE
) -> "rd.Dataset":
    """Overlapping token-window chunking (RAG / context-window prep):
    each document becomes ceil(n/stride)-ish chunks of ``size`` tokens
    starting every ``stride`` tokens (chunk starts s = 0, stride, 2x...
    while s < n; the last chunks are short).  Tokenization is the
    corpus-wide convention shared with repetition_stats; chunk text is
    the single-space token join, so the SQL oracle reproduces it with
    list_slice + array_to_string.  Map-only — zero shuffles, streams at
    any corpus size."""

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        doc_ids: list[int] = []
        chunk_ids: list[int] = []
        n_toks: list[int] = []
        texts: list[str] = []
        for doc_id, text in zip(df["doc_id"], df["text"]):
            toks = [t for t in split_tokens(text.lower()) if t]
            n = len(toks)
            for ci, s in enumerate(range(0, max(n, 1), stride)):
                if s >= n and n > 0:
                    break
                chunk = toks[s:s + size]
                doc_ids.append(int(doc_id))
                chunk_ids.append(ci)
                n_toks.append(len(chunk))
                texts.append(" ".join(chunk))
                if n == 0:
                    break
        return pd.DataFrame(
            {
                "doc_id": np.asarray(doc_ids, dtype=np.int64),
                "chunk_id": np.asarray(chunk_ids, dtype=np.int64),
                "n_tokens": np.asarray(n_toks, dtype=np.int64),
                "chunk_text": texts,
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        explode, batch_format="pandas", batch_size=4096
    )


FREQ_TRIGRAM_MIN = 5


def frequent_trigrams(sf_dir: str, min_count: int = FREQ_TRIGRAM_MIN,
                      n_shards: int = 64) -> "rd.Dataset":
    """EXACT heavy hitters over the uncollectable word-trigram keyspace:
    every trigram occurring >= ``min_count`` times corpus-wide, with its
    exact count (the iceberg / HAVING shape).  A gram lives in exactly
    one crc32 shard, so per-shard counts ARE global counts; batches
    pre-aggregate locally so the one skinny shuffle carries (gram,
    partial) rows, and only survivors of the threshold leave the shard —
    the result is bounded by the true heavy-hitter set, not the
    keyspace."""
    import zlib

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        counts: dict[str, int] = {}
        for text in df["text"]:
            toks = [t for t in split_tokens(text.lower()) if t]
            for g in _word_grams(toks, 3):
                counts[g] = counts.get(g, 0) + 1
        gl = list(counts)
        return pd.DataFrame(
            {
                "gram": gl,
                "p_n": np.asarray([counts[g] for g in gl],
                                  dtype=np.int64),
                "shard": np.asarray(
                    [zlib.crc32(g.encode()) % n_shards for g in gl],
                    dtype=np.int64,
                ),
            }
        )

    def shard_filter(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("gram", as_index=False).agg(n=("p_n", "sum"))
        g = g[g["n"] >= min_count]
        return pd.DataFrame(
            {"gram": g["gram"].to_numpy(),
             "n": g["n"].to_numpy().astype(np.int64)}
        )

    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    return hash_exchange(
        _docs(sf_dir, ["text"])
        .map_batches(explode, batch_format="pandas", batch_size=4096),
        "shard", n_shards, shard_filter,
    )


def token_explode(sf_dir: str) -> "rd.Dataset":
    """Ordered token explode: one row per token with its 1-based
    per-document position (the WITH ORDINALITY / LATERAL unnest shape —
    the flatten primitive chunk_documents and tfidf build on, exposed
    as its own operator).  Tokenization is the corpus-wide whitespace
    convention shared with the SQL oracle.  Map-only, zero shuffles;
    positions are doc-local, so the stage streams at any corpus
    size (output is ~|tokens| rows — the read is 2 columns and each
    task's output stays bounded by its batch)."""

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        doc_ids: list[int] = []
        poss: list[int] = []
        toks_out: list[str] = []
        for doc_id, text in zip(df["doc_id"], df["text"]):
            toks = [t for t in split_tokens(text.lower()) if t]
            doc_ids.extend([int(doc_id)] * len(toks))
            poss.extend(range(1, len(toks) + 1))
            toks_out.extend(toks)
        return pd.DataFrame(
            {
                "doc_id": np.asarray(doc_ids, dtype=np.int64),
                "pos": np.asarray(poss, dtype=np.int64),
                "token": toks_out,
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        explode, batch_format="pandas", batch_size=4096
    )


PRIORITY_SAMPLE_N = 100


def priority_sample(sf_dir: str, n: int = PRIORITY_SAMPLE_N) -> pd.DataFrame:
    """Fixed-SIZE uniform corpus sample (vs hash_split's fixed-RATE):
    the n docs with the smallest md5(doc_id) — a deterministic priority
    sample that is scan-order-free and reproducible across engines.
    Per-batch local heads of n rows are a provable superset of the
    global bottom-n (any global winner is a winner in its own batch);
    the driver merges n x num_batches skinny (id, hash) rows, never
    text.  Text for the winners is then fetched by a pruned semi-join
    read — only the n selected rows' text ever moves."""
    import hashlib

    def heads(df: pd.DataFrame) -> pd.DataFrame:
        h = [hashlib.md5(str(int(d)).encode()).hexdigest()
             for d in df["doc_id"]]
        out = pd.DataFrame(
            {"doc_id": df["doc_id"].astype("int64"), "h": h}
        )
        return out.sort_values("h").head(n)

    sk = (
        _docs(sf_dir, ["doc_id"])
        .map_batches(heads, batch_format="pandas", batch_size=8192)
        .to_pandas()
        .sort_values("h")
        .head(n)
    )
    # sorted array + np.isin: vectorized membership, no per-row lambda
    keep = np.sort(sk["doc_id"].to_numpy(np.int64))
    keep_ref = ray.put(keep)

    def fetch(df: pd.DataFrame) -> pd.DataFrame:
        ks = ray.get(keep_ref)
        return df[np.isin(df["doc_id"].to_numpy(np.int64), ks)]

    docs = (
        _docs(sf_dir, ["doc_id", "lang", "source", "n_chars"])
        .map_batches(fetch, batch_format="pandas", batch_size=8192)
        .to_pandas()
    )
    out = docs.merge(sk, on="doc_id").sort_values("h")
    return out[["doc_id", "h", "lang", "source", "n_chars"]].reset_index(
        drop=True
    ).astype({"doc_id": "int64", "n_chars": "int64"})


def spearman_rank_corr(sf_dir: str) -> pd.DataFrame:
    """Spearman rank correlation between document length (n_chars) and
    token count — Pearson over AVERAGE ranks, kept exact end-to-end:

    - both metrics have data-scale-free distinct-value counts (the
      length_percentile_gate argument), so pass 1 builds two bounded
      (value, count) histograms via map-side partials + one tiny
      groupby, and the driver derives 2*avg_rank(v) = 2*cum_less(v) +
      cnt(v) + 1 — an INTEGER (the doubling clears the tie half-rank),
      broadcast as two small dicts;
    - pass 2 maps each doc to integer (x, y) ranks and accumulates the
      five Pearson moments with the corr_quantity_price 32-bit limb
      split, so the shuffle carries int64s that reassemble to exact
      Python ints at any corpus size;
    - rho is evaluated with the same double expression the SQL casts.
    """
    from ray.data.aggregate import Sum as _Sum
    from .relational import _pq  # noqa: F401  (same read helper family)

    def hist_partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = token_count_batch(df["text"])
        a = pd.DataFrame({"metric": np.int64(0),
                          "v": df["n_chars"].to_numpy().astype(np.int64)})
        b = pd.DataFrame({"metric": np.int64(1), "v": toks})
        g = pd.concat([a, b]).groupby(["metric", "v"],
                                      as_index=False).size()
        return g.rename(columns={"size": "p_n"}).astype(
            {"metric": "int64", "v": "int64", "p_n": "int64"})

    hist = (
        _docs(sf_dir, ["n_chars", "text"])
        .map_batches(hist_partial, batch_format="pandas",
                     batch_size=4096)
        .groupby(["metric", "v"])
        .aggregate(_Sum("p_n", alias_name="n"))
        .to_pandas()
        .sort_values(["metric", "v"])
    )
    maps: list[dict[int, int]] = [{}, {}]
    for metric in (0, 1):
        h = hist[hist["metric"] == metric]
        cum = 0
        for _, r in h.iterrows():
            cnt = int(r["n"])
            # 2*avg_rank = 2*cum_less + cnt + 1 (integral by doubling)
            maps[metric][int(r["v"])] = 2 * cum + cnt + 1
            cum += cnt
    maps_ref = ray.put(maps)

    def moments(df: pd.DataFrame) -> pd.DataFrame:
        mx, my = ray.get(maps_ref)
        toks = token_count_batch(df["text"])
        x = np.asarray([mx[int(v)] for v in df["n_chars"]],
                       dtype=np.int64)
        y = np.asarray([my[int(v)] for v in toks], dtype=np.int64)
        vals = {
            "n": np.int64(len(df)),
            "sx": x.sum(), "sy": y.sum(),
            "sxx": (x * x).sum(), "sxy": (x * y).sum(),
            "syy": (y * y).sum(),
        }
        out = {}
        for c, v in vals.items():
            v = int(v)
            out[f"{c}_hi"] = [np.int64(v >> 32)]
            out[f"{c}_lo"] = [np.int64(v & 0xFFFFFFFF)]
        return pd.DataFrame(out)

    cols = ("n", "sx", "sy", "sxx", "sxy", "syy")
    aggs = []
    for c in cols:
        aggs.append(_Sum(f"{c}_hi", alias_name=f"{c}_hi"))
        aggs.append(_Sum(f"{c}_lo", alias_name=f"{c}_lo"))
    m = (
        _docs(sf_dir, ["n_chars", "text"])
        .map_batches(moments, batch_format="pandas", batch_size=4096)
        .aggregate(*aggs)
    )
    import math

    v = {c: (int(m[f"{c}_hi"]) << 32) + int(m[f"{c}_lo"]) for c in cols}
    n = v["n"]
    num = n * v["sxy"] - v["sx"] * v["sy"]
    da = n * v["sxx"] - v["sx"] * v["sx"]
    db = n * v["syy"] - v["sy"] * v["sy"]
    rho = float(num) / math.sqrt(float(da) * float(db))
    return pd.DataFrame(
        {"n": np.asarray([n], dtype=np.int64),
         "spearman_rho": [round(rho, 6)]}
    )


def source_vocab_overlap(sf_dir: str, n_shards: int = 64) -> pd.DataFrame:
    """Pairwise vocabulary overlap between sources: |distinct tokens of
    source A ∩ source B| for every source pair — the set-intersection-
    at-scale shape.  A token lives in exactly one crc32 shard, so each
    shard intersects its OWN (source, token) distinct sets and emits
    |sources|² bounded pair counts; the driver sums shards.  The skinny
    (token, source) stream pre-dedupes per batch; texts never move."""
    import zlib
    from itertools import combinations
    from ray.data.aggregate import Sum as _Sum

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        seen: set[tuple[str, str]] = set()
        for src, text in zip(df["source"], df["text"]):
            for t in split_tokens(text.lower()):
                if t:
                    seen.add((src, t))
        rows = list(seen)
        return pd.DataFrame(
            {
                "source": [r[0] for r in rows],
                "token": [r[1] for r in rows],
                "shard": np.asarray(
                    [zlib.crc32(r[1].encode()) % n_shards for r in rows],
                    dtype=np.int64,
                ),
            }
        )

    def shard_pairs(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["source", "token"])
        by_tok = d.groupby("token")["source"].agg(
            lambda s: sorted(set(s))
        )
        counts: dict[tuple[str, str], int] = {}
        for srcs in by_tok:
            for a, b in combinations(srcs, 2):
                counts[(a, b)] = counts.get((a, b), 0) + 1
        if not counts:
            return pd.DataFrame(
                {"source_a": pd.Series([], dtype=object),
                 "source_b": pd.Series([], dtype=object),
                 "p_n": pd.Series([], dtype="int64")}
            )
        ks = sorted(counts)
        return pd.DataFrame(
            {
                "source_a": [k[0] for k in ks],
                "source_b": [k[1] for k in ks],
                "p_n": np.asarray([counts[k] for k in ks],
                                  dtype=np.int64),
            }
        )

    out = (
        hash_exchange(
            _docs(sf_dir, ["source", "text"])
            .map_batches(explode, batch_format="pandas",
                         batch_size=4096),
            "shard", n_shards, shard_pairs)
        .groupby(["source_a", "source_b"])
        .aggregate(_Sum("p_n", alias_name="shared_tokens"))
        .to_pandas()
        .astype({"shared_tokens": "int64"})
    )
    return out.sort_values(["source_a", "source_b"]).reset_index(
        drop=True)


DOC_TOP_TOKENS = 3


def doc_top_tokens(sf_dir: str, top: int = DOC_TOP_TOKENS) -> "rd.Dataset":
    """Per-document top-``top`` most frequent tokens (ties to the
    lexicographically smaller token) with exact counts — the per-row
    list-aggregation / mode shape.  Map-only: the argmax is entirely
    doc-local, so the stage streams; one output row per (doc, rank)."""

    def per_doc(df: pd.DataFrame) -> pd.DataFrame:
        doc_ids: list[int] = []
        ranks: list[int] = []
        toks: list[str] = []
        counts: list[int] = []
        for did, text in zip(df["doc_id"], df["text"]):
            c: dict[str, int] = {}
            for t in split_tokens(text.lower()):
                if t:
                    c[t] = c.get(t, 0) + 1
            best = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
            for r, (t, n) in enumerate(best, 1):
                doc_ids.append(int(did))
                ranks.append(r)
                toks.append(t)
                counts.append(n)
        return pd.DataFrame(
            {
                "doc_id": np.asarray(doc_ids, dtype=np.int64),
                "rank": np.asarray(ranks, dtype=np.int64),
                "token": toks,
                "n": np.asarray(counts, dtype=np.int64),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        per_doc, batch_format="pandas", batch_size=4096
    )


STRAT_SAMPLE_K = 20


def stratified_sample_exact(sf_dir: str,
                            k: int = STRAT_SAMPLE_K) -> pd.DataFrame:
    """Balanced eval-set construction: EXACTLY min(k, |stratum|) docs
    per language, chosen by smallest md5(doc_id) — fixed-size PER
    STRATUM (vs hash_split's fixed-rate and priority_sample's global
    fixed-size).  Scan-order-free and engine-reproducible.

    Per-batch local per-lang heads are a provable superset of each
    stratum's global bottom-k; the driver merges |langs| x k x
    num_batches skinny rows and never sees text."""
    import hashlib

    def heads(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "lang": df["lang"],
                "h": [hashlib.md5(str(int(x)).encode()).hexdigest()
                      for x in df["doc_id"]],
            }
        ).sort_values(["lang", "h"])
        return d.groupby("lang", as_index=False).head(k)

    sk = (
        _docs(sf_dir, ["doc_id", "lang"])
        .map_batches(heads, batch_format="pandas", batch_size=8192)
        .to_pandas()
        .sort_values(["lang", "h"])
    )
    out = sk.groupby("lang", as_index=False).head(k)
    out["rank"] = out.groupby("lang").cumcount() + 1
    return out[["lang", "rank", "doc_id", "h"]].reset_index(
        drop=True).astype({"doc_id": "int64", "rank": "int64"})


EVAL_SET_K = 10


def eval_set_builder(sf_dir: str, k: int = EVAL_SET_K) -> pd.DataFrame:
    """End-to-end EVAL-SET construction — the second flagship composite
    (curation_pipeline builds the TRAINING side): keep documents that
    are (a) NOT contaminated against the benchmark shingle set and
    (b) pass the Gopher quality gate, then draw a per-language
    exact-size deterministic sample (bottom-``k`` md5 per stratum).

    Physical plan: the benchmark shingle hashes are broadcast once
    (decontaminate's small-side rule), then ONE fused map pass computes
    both verdicts per batch (searchsorted membership + the
    gopher_gate_batch signals) and emits only each batch's per-lang
    heads — zero shuffles end to end; the driver merges
    |langs| x k x num_batches skinny rows.  The oracle is literally
    the composition of the decontaminate and gopher_gate oracles."""
    import hashlib

    def bench_hashes(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["doc_id"] % DECON_BENCH_MOD == 0]
        parts = [
            _md5_prefix_batch(_char_kgrams(t, DECON_K), 8)
            for t in df["text"]
        ] or [np.array([], dtype=">u8")]
        return pd.DataFrame(
            {"h": np.unique(np.concatenate(parts)).astype(np.uint64)}
        )

    bench_parts = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(bench_hashes, batch_format="pandas",
                     batch_size=1024)
        .to_pandas()
    )
    bench = np.unique(bench_parts["h"].values.astype(np.uint64))
    bench_ref = ray.put(bench)

    def heads(df: pd.DataFrame) -> pd.DataFrame:
        b = ray.get(bench_ref)
        df = df[df["doc_id"] % DECON_BENCH_MOD != 0]
        if not len(df):
            return pd.DataFrame(
                {"lang": pd.Series([], dtype=object),
                 "doc_id": pd.Series([], dtype="int64"),
                 "h": pd.Series([], dtype=object)}
            )
        gop = gopher_gate_batch(df)
        clean = np.ones(len(df), dtype=bool)
        for row, t in enumerate(df["text"]):
            gs = _char_kgrams(t, DECON_K)
            if gs:
                hs = _md5_prefix_batch(gs, 8).astype(np.uint64)
                idx = np.searchsorted(b, hs)
                idx[idx == len(b)] = 0
                if len(b) and bool((b[idx] == hs).any()):
                    clean[row] = False
        keep = clean & (gop["passed"].to_numpy() == 1)
        d = pd.DataFrame(
            {
                "lang": df["lang"].to_numpy()[keep],
                "doc_id": df["doc_id"].to_numpy()[keep].astype("int64"),
            }
        )
        d["h"] = [hashlib.md5(str(int(x)).encode()).hexdigest()
                  for x in d["doc_id"]]
        d = d.sort_values(["lang", "h"])
        return d.groupby("lang", as_index=False).head(k)

    sk = (
        _docs(sf_dir, ["doc_id", "text", "lang"])
        .map_batches(heads, batch_format="pandas", batch_size=1024)
        .to_pandas()
        .sort_values(["lang", "h"])
    )
    out = sk.groupby("lang", as_index=False).head(k)
    out["rank"] = out.groupby("lang").cumcount() + 1
    return out[["lang", "rank", "doc_id", "h"]].reset_index(
        drop=True).astype({"doc_id": "int64", "rank": "int64"})


def source_token_gini(sf_dir: str, n_shards: int = 64) -> "rd.Dataset":
    """Per-source token-distribution Gini impurity — (source, n_tokens,
    sum_sq, gini_ppm) where gini_ppm = floor((N^2 - sum c_i^2) * 10^6
    / N^2): the mixture-diversity score a curation pass uses to flag
    sources dominated by a few boilerplate tokens (gini -> 0) vs
    diverse prose (gini -> 1).

    EXACT integer math end-to-end: Gini needs every token's FINAL
    count squared, so pass 1 exchanges per-batch (source, token)
    Counter partials on a crc32(source, token) key (each token's total
    lands whole in one shard — the vocab_topk routing), squares there,
    and pass 2 exchanges the per-shard (N_partial, sum_sq_partial)
    rows — a few rows per source per shard — on the source key.
    Nothing driver-side; the only corpus-sized structure is the
    (source, token) count table sharded across pass-1 shards.
    Headroom: (N^2 - sum_sq) * 10^6 needs N <= ~3e6 tokens/source in
    int64 — at larger N emit ppm against a pre-divided N (or split the
    quotient); the oracle generates from the same constants."""

    def counts(df: pd.DataFrame) -> pd.DataFrame:
        c: Counter = Counter()
        for source, text in zip(df["source"], df["text"]):
            for t in split_tokens(text.lower()):
                if t:
                    c[(source, t)] += 1
        keys = list(c.keys())
        out = pd.DataFrame(
            {
                "source": [k[0] for k in keys],
                "token": [k[1] for k in keys],
                "c": np.fromiter(
                    (c[k] for k in keys), dtype=np.int64, count=len(keys)
                ),
                "shard": np.fromiter(
                    (zlib.crc32((k[0] + "\x00" + k[1]).encode())
                     % n_shards for k in keys),
                    dtype=np.int64, count=len(keys),
                ),
            }
        )
        return out

    def square(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {"source": pd.Series([], dtype="object"),
                 "n": pd.Series([], dtype="int64"),
                 "sq": pd.Series([], dtype="int64"),
                 "shard": pd.Series([], dtype="int64")}
            )
        g = df.groupby(["source", "token"], as_index=False)["c"].sum()
        cc = g["c"].to_numpy(np.int64)
        out = g.groupby("source", as_index=False).agg(n=("c", "sum"))
        sq = pd.DataFrame({"source": g["source"], "sq": cc * cc}).groupby(
            "source", as_index=False
        )["sq"].sum()
        out = out.merge(sq, on="source")
        out["shard"] = [
            zlib.crc32(s.encode()) % n_shards for s in out["source"]
        ]
        return out

    def gini(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {"source": pd.Series([], dtype="object"),
                 "n_tokens": pd.Series([], dtype="int64"),
                 "sum_sq": pd.Series([], dtype="int64"),
                 "gini_ppm": pd.Series([], dtype="int64")}
            )
        g = df.groupby("source", as_index=False).agg(
            n_tokens=("n", "sum"), sum_sq=("sq", "sum")
        )
        n = g["n_tokens"].to_numpy(np.int64)
        sq = g["sum_sq"].to_numpy(np.int64)
        g["gini_ppm"] = (n * n - sq) * 1_000_000 // (n * n)
        return g.astype(
            {"n_tokens": "int64", "sum_sq": "int64", "gini_ppm": "int64"}
        )

    toks = _docs(sf_dir, ["source", "text"]).map_batches(
        counts, batch_format="pandas", batch_size=1024
    )
    partials = hash_exchange(toks, "shard", n_shards, square)
    return hash_exchange(partials, "shard", n_shards, gini)


def bigram_pmi_topk(
    sf_dir: str, topn: int = 50, n_shards: int = 64
) -> pd.DataFrame:
    """Collocation mining: top-``topn`` adjacent-token bigrams by an
    exact-integer PMI ARGUMENT — pmi_ratio_ppt = c_xy * N * 1000 //
    (c_x * c_y), monotone in true PMI (log of the same ratio) but
    float-free, so the oracle is the identical expression.  The
    curation tool that surfaces boilerplate phrases ("dup dup") and
    multi-word units worth protecting from tokenizer splits.

    Two passes: unigram counts are VOCAB-bounded (tree-combined to the
    driver and broadcast — same contract as vocab_topk); bigram counts
    route through one crc32(w1,w2)-hash exchange, each shard scores
    its bigrams against the broadcast unigram table and keeps its own
    top-``topn`` by (score desc, w1, w2) — a provable superset of the
    global head under the same total order — and the driver merges
    shards * topn bounded rows.  Headroom: c_xy * N * 1000 needs
    N <= ~3e6 corpus tokens in int64; at web scale pre-divide N (the
    oracle constant generates from the same code path).  Adjacency is
    computed on the empty-filtered token sequence, which equals
    DuckDB's split of the TRIMMED text (\\s+ runs can't make interior
    empties)."""
    docs = _docs(sf_dir, ["text"])

    def uni_counts(df: pd.DataFrame) -> pd.DataFrame:
        c: Counter = Counter()
        for text in df["text"]:
            c.update(t for t in split_tokens(text.lower()) if t)
        return pd.DataFrame(
            {"token": list(c.keys()),
             "c": np.fromiter(c.values(), dtype=np.int64, count=len(c))}
        )

    uni = (
        docs.map_batches(uni_counts, batch_format="pandas",
                         batch_size=1024)
        .repartition(16)
        .map_batches(
            lambda df: df.groupby("token", as_index=False)["c"].sum(),
            batch_format="pandas",
        )
        .to_pandas()
        .groupby("token", as_index=False)["c"].sum()
    )
    c_uni = dict(zip(uni["token"], uni["c"].astype(np.int64)))
    n_total = int(uni["c"].sum())
    uref = ray.put((c_uni, n_total))

    def bigram_counts(df: pd.DataFrame) -> pd.DataFrame:
        c: Counter = Counter()
        for text in df["text"]:
            toks = [t for t in split_tokens(text.lower()) if t]
            c.update(zip(toks, toks[1:]))
        keys = list(c.keys())
        return pd.DataFrame(
            {
                "w1": [k[0] for k in keys],
                "w2": [k[1] for k in keys],
                "c_xy": np.fromiter(
                    (c[k] for k in keys), dtype=np.int64, count=len(keys)
                ),
                "shard": np.fromiter(
                    (zlib.crc32((k[0] + "\x00" + k[1]).encode())
                     % n_shards for k in keys),
                    dtype=np.int64, count=len(keys),
                ),
            }
        )

    def shard_top(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["w1", "w2", "c_xy", "c_x", "c_y", "pmi_ratio_ppt"]
        if not len(df):
            return pd.DataFrame(
                {c: pd.Series(
                    [], dtype="object" if c in ("w1", "w2") else "int64")
                 for c in cols}
            )
        cu, n = ray.get(uref)
        g = df.groupby(["w1", "w2"], as_index=False)["c_xy"].sum()
        cx = g["w1"].map(cu).to_numpy(np.int64)
        cy = g["w2"].map(cu).to_numpy(np.int64)
        g["c_x"], g["c_y"] = cx, cy
        g["pmi_ratio_ppt"] = (
            g["c_xy"].to_numpy(np.int64) * n * 1000 // (cx * cy)
        )
        g = g.sort_values(
            ["pmi_ratio_ppt", "w1", "w2"],
            ascending=[False, True, True],
        ).head(topn)
        return g[cols].astype(
            {"c_xy": "int64", "c_x": "int64", "c_y": "int64",
             "pmi_ratio_ppt": "int64"}
        )

    heads = hash_exchange(
        docs.map_batches(bigram_counts, batch_format="pandas",
                         batch_size=1024),
        "shard", n_shards, shard_top,
    ).to_pandas()
    out = heads.sort_values(
        ["pmi_ratio_ppt", "w1", "w2"], ascending=[False, True, True]
    ).head(topn)
    return out.reset_index(drop=True)


def doc_novel_trigrams(sf_dir: str, n_shards: int = 64) -> "rd.Dataset":
    """Corpus novelty curve — per document: total word-trigram count
    and the number of trigrams FIRST seen in this document (first
    occurrence attributed by doc_id order), the growth diagnostic
    behind "is more data still adding new content?".

    First-occurrence is a min-aggregation, so the whole op is ONE
    crc32(gram)-hash exchange: per-batch (gram, min local doc_id,
    count-per-doc partials) rows; in each shard a gram's global first
    doc is the min over its rows, and novelty rows (first_doc, 1)
    re-key by doc hash for the per-doc sum — the second exchange is
    doc-bounded.  Totals ride the first pass as per-doc gram counts."""
    import zlib

    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        rows_g, rows_d, rows_n = [], [], []
        tot_doc, tot_n = [], []
        for did, text in zip(df["doc_id"], df["text"]):
            toks = [t for t in split_tokens(text.lower()) if t]
            g3 = _word_grams(toks, 3)
            tot_doc.append(int(did))
            tot_n.append(len(g3))
            for g in set(g3):
                rows_g.append(g)
                rows_d.append(int(did))
        return pd.DataFrame(
            {
                "gram": rows_g + [""] * len(tot_doc),
                "doc_id": np.asarray(rows_d + tot_doc, dtype=np.int64),
                "n_grams": np.asarray(
                    [0] * len(rows_g) + tot_n, dtype=np.int64
                ),
                "is_total": np.asarray(
                    [0] * len(rows_g) + [1] * len(tot_doc),
                    dtype=np.int64,
                ),
                "shard": np.asarray(
                    [zlib.crc32(g.encode()) % n_shards
                     for g in rows_g]
                    + [d % n_shards for d in tot_doc],
                    dtype=np.int64,
                ),
            }
        )

    def first_seen(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {"doc_id": pd.Series([], dtype="int64"),
                 "n_novel": pd.Series([], dtype="int64"),
                 "n_grams": pd.Series([], dtype="int64"),
                 "shard": pd.Series([], dtype="int64")}
            )
        g = df[df["is_total"] == 0]
        t = df[df["is_total"] == 1]
        first = g.groupby("gram", sort=False)["doc_id"].min()
        nov = first.value_counts()
        tt = t.groupby("doc_id", as_index=False)["n_grams"].sum()
        out = pd.DataFrame(
            {"doc_id": np.concatenate(
                [nov.index.to_numpy(np.int64),
                 tt["doc_id"].to_numpy(np.int64)]),
             "n_novel": np.concatenate(
                 [nov.to_numpy(np.int64),
                  np.zeros(len(tt), np.int64)]),
             "n_grams": np.concatenate(
                 [np.zeros(len(nov), np.int64),
                  tt["n_grams"].to_numpy(np.int64)])}
        )
        out["shard"] = out["doc_id"] % n_shards
        return out

    def per_doc(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {"doc_id": pd.Series([], dtype="int64"),
                 "n_grams": pd.Series([], dtype="int64"),
                 "n_novel": pd.Series([], dtype="int64")}
            )
        g = df.groupby("doc_id", as_index=False).agg(
            n_grams=("n_grams", "sum"), n_novel=("n_novel", "sum")
        )
        return g.astype("int64")

    stage1 = hash_exchange(
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(explode, batch_format="pandas", batch_size=4096),
        "shard", n_shards, first_seen,
    )
    return hash_exchange(stage1, "shard", n_shards, per_doc)


def bigram_lm_familiarity(
    sf_dir: str, n_shards: int = 64
) -> "rd.Dataset":
    """Per-document bigram language-model familiarity — the exact-
    integer stand-in for LM perplexity scoring a curation pipeline
    runs corpus-wide: each adjacent token pair contributes
    t = c_xy * 1000 // c_x (the corpus-level transition frequency per
    mille, c_x = total occurrences of w1), and a document's score is
    the sum over its pairs.  Low familiarity flags disfluent / noisy
    text; the metric is float-free so the DuckDB oracle (bigram and
    unigram CTEs joined back to every pair occurrence) hash-matches.

    Plan: unigram counts are vocab-bounded (tree-combine + broadcast,
    the vocab_topk contract); per-batch (doc, w1, w2, cnt) partials
    route ONE crc32(w1,w2)-hash exchange so each shard holds every
    occurrence of its bigrams — c_xy is exact in-shard and each
    occurrence is scored there; per-doc partials re-key by doc hash
    for the bounded second exchange (the doc_novel_trigrams shape).
    Marker rows carry zero-pair documents so every doc_id emits."""
    import zlib

    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    docs = _docs(sf_dir, ["doc_id", "text"])

    def uni_counts(df: pd.DataFrame) -> pd.DataFrame:
        c: Counter = Counter()
        for text in df["text"]:
            c.update(t for t in split_tokens(text.lower()) if t)
        return pd.DataFrame(
            {"token": list(c.keys()),
             "c": np.fromiter(c.values(), dtype=np.int64, count=len(c))}
        )

    uni = (
        docs.map_batches(uni_counts, batch_format="pandas",
                         batch_size=1024)
        .repartition(16)
        .map_batches(
            lambda df: df.groupby("token", as_index=False)["c"].sum(),
            batch_format="pandas",
        )
        .to_pandas()
        .groupby("token", as_index=False)["c"].sum()
    )
    uref = ray.put(dict(zip(uni["token"], uni["c"].astype(np.int64))))

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        c: Counter = Counter()
        marker_docs = []
        for did, text in zip(df["doc_id"], df["text"]):
            toks = [t for t in split_tokens(text.lower()) if t]
            c.update(((int(did), a, b) for a, b in zip(toks, toks[1:])))
            marker_docs.append(int(did))
        keys = list(c.keys())
        return pd.DataFrame(
            {
                "doc_id": np.asarray(
                    [k[0] for k in keys] + marker_docs, dtype=np.int64),
                "w1": [k[1] for k in keys] + [""] * len(marker_docs),
                "w2": [k[2] for k in keys] + [""] * len(marker_docs),
                "cnt": np.asarray(
                    [c[k] for k in keys] + [0] * len(marker_docs),
                    dtype=np.int64),
                "is_total": np.asarray(
                    [0] * len(keys) + [1] * len(marker_docs),
                    dtype=np.int64),
                "shard": np.asarray(
                    [zlib.crc32((k[1] + "\x00" + k[2]).encode())
                     % n_shards for k in keys]
                    + [d % n_shards for d in marker_docs],
                    dtype=np.int64),
            }
        )

    def score_shard(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"doc_id": "int64", "n_pairs": "int64",
                "familiarity": "int64", "shard": "int64"}
        if not len(df):
            return pd.DataFrame(
                {k: pd.Series([], dtype=v) for k, v in cols.items()})
        g = df[df["is_total"] == 0]
        m = df[df["is_total"] == 1]
        frames = []
        if len(g):
            cu = ray.get(uref)
            cxy = g.groupby(["w1", "w2"])["cnt"].transform("sum")
            cx = g["w1"].map(cu).to_numpy(np.int64)
            t = (cxy.to_numpy(np.int64) * 1000) // cx
            sc = pd.DataFrame(
                {"doc_id": g["doc_id"].to_numpy(np.int64),
                 "n_pairs": g["cnt"].to_numpy(np.int64),
                 "familiarity": g["cnt"].to_numpy(np.int64) * t}
            ).groupby("doc_id", as_index=False).sum()
            frames.append(sc)
        if len(m):
            frames.append(pd.DataFrame(
                {"doc_id": m["doc_id"].unique().astype(np.int64),
                 "n_pairs": 0, "familiarity": 0}))
        out = pd.concat(frames, ignore_index=True)
        out["shard"] = out["doc_id"] % n_shards
        return out.astype("int64")

    def per_doc(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {"doc_id": pd.Series([], dtype="int64"),
                 "n_pairs": pd.Series([], dtype="int64"),
                 "familiarity": pd.Series([], dtype="int64")})
        return df.groupby("doc_id", as_index=False).agg(
            n_pairs=("n_pairs", "sum"),
            familiarity=("familiarity", "sum"),
        ).astype("int64")

    stage1 = hash_exchange(
        docs.map_batches(explode, batch_format="pandas",
                         batch_size=4096),
        "shard", n_shards, score_shard,
    )
    return hash_exchange(stage1, "shard", n_shards, per_doc)


CN_J, CN_K = 64, 4


def contrastive_negatives(sf_dir: str, n_shards: int = 32) -> "rd.Dataset":
    """Deterministic negative sampling for contrastive training — for
    every purchasing user, the first ``CN_K`` parts from a fixed
    pseudo-random candidate walk that the user has NEVER bought (the
    (user, pos, neg) triple-mining step of retrieval/recsys training,
    made reproducible: candidate_j = (cust*31 + j*17 + 7) % |parts|,
    17 coprime to |parts| so the walk never repeats within 64 draws).

    Positives need the orders x lineitem join: one orderkey-hash
    exchange joins the two fact projections; the (cust, part) pairs
    re-key by user TOGETHER with user marker rows (so zero-lineitem
    users still sample) through a second exchange, where each shard
    filters its users' candidate matrix fully vectorized — packed
    (cust * |parts| + part) keys, one np.isin against the shard's
    positive set, cumsum row-select of the first K survivors.  No
    per-user Python.  Output is users x K sized: lazy Dataset.
    Oracle: generate_series candidates anti-joined on the positives,
    row_number <= K, hash-matched."""
    import ray.data as rd

    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    n_parts = int(
        rd.read_parquet(f"{sf_dir}/part.parquet",
                        columns=["p_partkey"]).count())

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_custkey"])
    items = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                            columns=["l_orderkey", "l_partkey"])

    def o_side(df: pd.DataFrame) -> pd.DataFrame:
        k = df["o_orderkey"].to_numpy(np.int64)
        return pd.DataFrame(
            {"key": k, "val": df["o_custkey"].astype("int64"),
             "side": np.int64(0), "shard": k % n_shards})

    def l_side(df: pd.DataFrame) -> pd.DataFrame:
        k = df["l_orderkey"].to_numpy(np.int64)
        return pd.DataFrame(
            {"key": k, "val": df["l_partkey"].astype("int64"),
             "side": np.int64(1), "shard": k % n_shards})

    def join_pairs(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["cust", "part", "shard"]
        if not len(df):
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in cols})
        cust = df[df["side"] == 0].set_index("key")["val"]
        li = df[df["side"] == 1]
        c = li["key"].map(cust).to_numpy(np.int64)
        out = pd.DataFrame(
            {"cust": c, "part": li["val"].to_numpy(np.int64)}
        ).drop_duplicates()
        # user markers ride along so zero-lineitem users still sample
        u = pd.DataFrame({"cust": pd.unique(cust.to_numpy()),
                          "part": np.int64(-1)})
        out = pd.concat([out, u], ignore_index=True)
        out["shard"] = out["cust"].to_numpy(np.int64) % n_shards
        return out.astype("int64")

    pairs = hash_exchange(
        orders.map_batches(o_side, batch_format="pandas",
                           batch_size=65536).union(
            items.map_batches(l_side, batch_format="pandas",
                              batch_size=65536)),
        "shard", n_shards, join_pairs)

    def sample(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["user_id", "neg_rank", "part_id"]
        if not len(df):
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in cols})
        pos = df[df["part"] >= 0]
        users = np.sort(pd.unique(df["cust"].to_numpy(np.int64)))
        packed_pos = (pos["cust"].to_numpy(np.int64) * n_parts
                      + pos["part"].to_numpy(np.int64))
        j = np.arange(CN_J, dtype=np.int64)
        cand = (users[:, None] * 31 + j[None, :] * 17 + 7) % n_parts
        packed = users[:, None] * n_parts + cand
        ok = ~np.isin(packed, packed_pos)
        rank = np.cumsum(ok, axis=1)
        take = ok & (rank <= CN_K)
        uu, jj = np.nonzero(take)
        return pd.DataFrame(
            {"user_id": users[uu],
             "neg_rank": rank[uu, jj] - 1,
             "part_id": cand[uu, jj]}).astype("int64")

    return hash_exchange(pairs, "shard", n_shards, sample)


def pii_pseudonymize(sf_dir: str, n_shards: int = 32) -> pd.DataFrame:
    """Deterministic pseudonymization audit — the tokenization step of
    a privacy-preserving release (next to pii_scrub and
    k_anonymity_audit): every user id is replaced by the keyed
    surrogate md5-high-60(id) (the hll hash convention), and the audit
    proves the two properties a release depends on: CONSISTENCY (the
    same id maps to the same surrogate in events AND orders, so joins
    still work post-release) and INJECTIVITY (no two ids share a
    surrogate — a collision silently merges two people).

    Ids from both tables route ONE exchange sharded by SURROGATE (ids
    co-shard with their surrogate because the mapping is
    deterministic, so per-shard distinct/intersection/collision counts
    are exact and sum across disjoint surrogate ranges).  Output is
    one bounded row.  Oracle: the same md5 expression in SQL,
    hash-matched."""
    import hashlib

    import ray.data as rd

    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    def h60(vals: np.ndarray) -> np.ndarray:
        return np.fromiter(
            (int(hashlib.md5(str(v).encode()).hexdigest()[:15], 16)
             for v in vals), dtype=np.int64, count=len(vals))

    def ev_side(df: pd.DataFrame) -> pd.DataFrame:
        u = pd.unique(df["user_id"].to_numpy(np.int64))
        s = h60(u)
        return pd.DataFrame({"uid": u, "surrogate": s,
                             "side": np.int64(0),
                             "shard": s % n_shards})

    def ord_side(df: pd.DataFrame) -> pd.DataFrame:
        u = pd.unique(df["o_custkey"].to_numpy(np.int64))
        s = h60(u)
        return pd.DataFrame({"uid": u, "surrogate": s,
                             "side": np.int64(1),
                             "shard": s % n_shards})

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id"]).map_batches(
        ev_side, batch_format="pandas", batch_size=65536)
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey"]).map_batches(
        ord_side, batch_format="pandas", batch_size=65536)

    def audit(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["n_ids_events", "n_ids_orders", "n_ids_both",
                "n_surrogates", "n_collisions"]
        if not len(df):
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in cols})
        d = df.drop_duplicates(["uid", "side"])
        ev_ids = set(d.loc[d["side"] == 0, "uid"])
        or_ids = set(d.loc[d["side"] == 1, "uid"])
        ids = d.drop_duplicates("uid")
        n_sur = ids["surrogate"].nunique()
        return pd.DataFrame(
            {"n_ids_events": [len(ev_ids)],
             "n_ids_orders": [len(or_ids)],
             "n_ids_both": [len(ev_ids & or_ids)],
             "n_surrogates": [n_sur],
             "n_collisions": [len(ids) - n_sur]}).astype("int64")

    parts = hash_exchange(ev.union(orders), "shard", n_shards,
                          audit).to_pandas()
    return parts.sum().to_frame().T.astype("int64")


def ngram_lm_score(sf_dir: str, n_shards: int = 16) -> "rd.Dataset":
    """LM-based quality scoring (the CCNet / KenLM-perplexity signal,
    integer-exact): score each document by how predictable its text is
    under the corpus's OWN bigram model — the model-based quality gate
    next to the heuristic ones (``quality_batch``, Gopher gates).

    Transcendental-free formulation so the DuckDB oracle matches
    bit-for-bit: per bigram the conditional probability in ppm is
    ``floor(1e6 * c2(w1,w2) / c1(w1))`` (``c1`` = occurrences of
    ``w1`` as bigram-first), and a doc's score is the floor-average of
    its bigrams' ppm values.  No log / float anywhere — ranks docs the
    same way mean log-prob would for the screening use case.

    Physical plan (the two-pass LM shape):
    1. COUNT: per-batch bigram Counters pre-reduce, ONE w1-hash
       exchange makes (w1, w2, c2) exact and — because sharding by w1
       co-locates all of w1's continuations — c1 falls out of the same
       shard; vocab is Heaps-law bounded, so the count table is
       catalog-sized and broadcasts via ``ray.put`` for the score pass
       (at 100 TB the broadcast is replaced by a second w1-hash
       exchange join; the count pass is unchanged).
    2. SCORE: map-only over documents — tokens, bigrams, ppm lookups,
       integer floor-average.  Lazy Dataset out."""
    import pyarrow as pa

    docs = _docs(sf_dir, ["doc_id", "text"])

    def bigram_partial(df: pd.DataFrame) -> pd.DataFrame:
        c: Counter = Counter()
        for text in df["text"]:
            ts = split_tokens(text.lower())
            c.update(zip(ts, ts[1:]))
        if not c:
            return pd.DataFrame(
                {"w1": pd.array([], dtype="string"),
                 "w2": pd.array([], dtype="string"),
                 "n": pd.array([], dtype="int64"),
                 "shard": pd.array([], dtype="int64")}
            )
        w1 = [k[0] for k in c]
        out = pd.DataFrame(
            {"w1": w1, "w2": [k[1] for k in c],
             "n": np.fromiter(c.values(), dtype=np.int64, count=len(c))}
        )
        out["shard"] = (
            _md5_prefix_batch(w1, 8).astype(np.uint64) % n_shards
        ).astype(np.int64)
        return out

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["w1", "w2"], as_index=False)["n"].sum()
        g["c1"] = g.groupby("w1")["n"].transform("sum")
        return g.rename(columns={"n": "c2"}).astype(
            {"c2": "int64", "c1": "int64"})

    counts = hash_exchange(
        docs.map_batches(
            bigram_partial, batch_format="pandas", batch_size=4096
        ),
        "shard", n_shards, combine,
    ).to_pandas()
    if len(counts) == 0 or "w1" not in counts.columns:
        ppm: dict = {}
    else:
        ppm = {
            (w1, w2): c2 * 1_000_000 // c1
            for w1, w2, c2, c1 in zip(
                counts["w1"], counts["w2"],
                counts["c2"].astype(int), counts["c1"].astype(int))
        }
    ppm_ref = ray.put(ppm)

    def score(batch: "pa.Table") -> "pa.Table":
        lut = ray.get(ppm_ref)
        n_big, scores = [], []
        for text in batch.column("text").to_pylist():
            ts = split_tokens(text.lower())
            bs = list(zip(ts, ts[1:]))
            if not bs:
                n_big.append(0)
                scores.append(0)
                continue
            total = sum(lut[b] for b in bs)
            n_big.append(len(bs))
            scores.append(total // len(bs))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_bigrams": pa.array(n_big, type=pa.int64()),
                "score_ppm": pa.array(scores, type=pa.int64()),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow", batch_size=4096)


# ------------------------------------------- sliding-window chunking ------

CHUNK_WINDOW = 32   # tokens per chunk
CHUNK_STRIDE = 24   # tokens between chunk starts (8-token overlap)


def text_chunk_windows(sf_dir: str) -> "rd.Dataset":
    """Sliding-window chunking — the retrieval/training preprocessing
    that turns each document into overlapping fixed-width token windows
    (window 32, stride 24: 8 tokens of overlap so no boundary loses
    context).  Chunk k covers tokens ``[24k, 24k+32)``; the last chunk
    is the first one whose window reaches the end; empty documents emit
    nothing.  Emits ``(doc_id, chunk_idx, start_tok, n_tokens,
    chunk_text)``.

    Scale: one stateless task map — chunking is per-document work with
    zero cross-document state, the cheapest possible shape; downstream
    embedding/packing stages consume the lazy Dataset."""
    import pyarrow as pa
    import pyarrow.compute as pc

    docs = _docs(sf_dir, ["doc_id", "text"])

    def chunk(batch: pa.Table) -> pa.Table:
        toks_col = pc.utf8_split_whitespace(
            pc.utf8_trim_whitespace(batch.column("text")))
        doc, cidx, start, ntok, ctext = [], [], [], [], []
        for did, toks in zip(
            batch.column("doc_id").to_pylist(), toks_col.to_pylist()
        ):
            toks = [t for t in toks if t]
            if not toks:
                continue
            d, k = int(did), 0
            while True:
                s = k * CHUNK_STRIDE
                w = toks[s:s + CHUNK_WINDOW]
                doc.append(d)
                cidx.append(k)
                start.append(s)
                ntok.append(len(w))
                ctext.append(" ".join(w))
                if s + CHUNK_WINDOW >= len(toks):
                    break
                k += 1
        return pa.table(
            {"doc_id": pa.array(doc, type=pa.int64()),
             "chunk_idx": pa.array(cidx, type=pa.int64()),
             "start_tok": pa.array(start, type=pa.int64()),
             "n_tokens": pa.array(ntok, type=pa.int64()),
             "chunk_text": pa.array(ctext, type=pa.string())})

    return docs.map_batches(chunk, batch_format="pyarrow",
                            batch_size=4096)


# ---------------- readability scoring ----------------------------------------


def text_readability(sf_dir: str) -> "rd.Dataset":
    """Flesch-style readability over deterministic prose
    (``functions/textstats.readable_text_for`` — the corpus text has
    no punctuation, so the prose fixture supplies real sentence
    structure): sentence runs, whitespace words, vowel-run syllables,
    and the reading-ease double — the one place IEEE arithmetic
    enters, computed in the identical op order on the SQL side.

    Scale: stateless task map, zero shuffle; the score is a pure
    per-row function."""
    from tensorflow_ocr_ray.functions.textstats import (
        readability_counts,
        readable_text_for,
    )

    docs = _docs(sf_dir, ["doc_id"])

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch["doc_id"].astype("int64")
        res = [readability_counts(readable_text_for(int(d)))
               for d in ids]
        return pd.DataFrame(
            {"doc_id": ids.values,
             "sentences": np.array([r[0] for r in res], dtype=np.int64),
             "words": np.array([r[1] for r in res], dtype=np.int64),
             "syllables": np.array([r[2] for r in res],
                                   dtype=np.int64),
             "flesch": np.array([r[3] for r in res],
                                dtype=np.float64)})

    return docs.map_batches(score, batch_format="pandas",
                            batch_size=4096)


# ---------------- pinned-weight quality scorer --------------------------------


def quality_lr_score(sf_dir: str) -> "rd.Dataset":
    """Linear quality classifier with PINNED integer milli-unit
    weights over per-doc text features (token count, mean word
    length, stopword fraction, distinct-token ratio) — the trainable
    fastText-style quality gate reduced to its deterministic integer
    core so the DuckDB oracle re-derives the identical verdict
    (``functions/textstats.quality_lr_features``).

    Scale: stateless task map, zero shuffle; the distinct-ratio is
    per-row vocabulary (bounded by doc length), never a corpus join."""
    from tensorflow_ocr_ray.functions.textstats import quality_lr_features

    docs = _docs(sf_dir, ["doc_id", "text"])

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        res = [quality_lr_features(t) for t in batch["text"]]
        names = ["tok", "mean_wlen_milli", "stop_milli",
                 "distinct_milli", "score", "passed"]
        out = {"doc_id": batch["doc_id"].astype("int64").values}
        for i, nm in enumerate(names):
            out[nm] = np.array([r[i] for r in res], dtype=np.int64)
        return pd.DataFrame(out)

    return docs.map_batches(score, batch_format="pandas",
                            batch_size=4096)


# ---------------- DSIR-style importance screening ----------------------------

DSIR_BUCKETS = 64        # hashed-unigram feature space
DSIR_TARGET_LANG = "en"  # the "target domain" distribution


def dsir_importance_weights(sf_dir: str) -> "rd.Dataset":
    """Hashed-ngram importance screening (the DSIR recipe, Xie et al.
    2023, reduced to its deterministic integer core): tokens hash into
    ``DSIR_BUCKETS`` buckets; the TARGET distribution is the
    ``lang='en'`` slice, RAW is the whole corpus; both get +1-per-
    bucket smoothing and integer ppm mass.  A document's signal is the
    sum of its tokens' target-ppm vs raw-ppm, and
    ``ratio_milli = sum_t*1000 // sum_r`` with ``selected =
    ratio_milli >= 1000`` — the resampling rule that upweights
    target-looking documents.  (True DSIR uses the log-ratio; the
    linear-ppm ratio keeps every value SQL-re-derivable while ranking
    identically for the screening decision at this smoothing level.)

    Physical plan: pass 1 is a map-side 64x2 integer grid per batch
    (driver sees only the bounded grid — at 100 TB this is a tiny
    tree-reduce); the LUT broadcasts once via ``ray.put``; pass 2 is
    map-only.  Zero data-cardinality shuffles."""
    import pyarrow as pa

    from tensorflow_ocr_ray.functions.textstats import _md5_prefix_batch

    docs = _docs(sf_dir, ["doc_id", "lang", "text"])

    def bucket_grid(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].str.split(" ")
        ex = toks.explode()
        b = (_md5_prefix_batch(list(ex), 4).astype(np.uint64)
             % np.uint64(DSIR_BUCKETS)).astype(np.int64)
        is_t = (df["lang"] == DSIR_TARGET_LANG).reindex(
            ex.index).to_numpy()
        t_c = np.bincount(b[is_t], minlength=DSIR_BUCKETS)
        r_c = np.bincount(b, minlength=DSIR_BUCKETS)
        return pd.DataFrame(
            {"b": np.arange(DSIR_BUCKETS, dtype=np.int64),
             "t_c": t_c.astype(np.int64),
             "r_c": r_c.astype(np.int64)})

    grid = (
        docs.map_batches(bucket_grid, batch_format="pandas",
                         batch_size=4096)
        .to_pandas().groupby("b", as_index=False)[["t_c", "r_c"]].sum()
    )
    T = int(grid["t_c"].sum())
    R = int(grid["r_c"].sum())
    ppm_t = ((grid["t_c"].to_numpy() + 1) * 1_000_000
             // (T + DSIR_BUCKETS)).astype(np.int64)
    ppm_r = ((grid["r_c"].to_numpy() + 1) * 1_000_000
             // (R + DSIR_BUCKETS)).astype(np.int64)
    lut_ref = ray.put((ppm_t, ppm_r))

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        pt, pr = ray.get(lut_ref)
        toks = batch["text"].str.split(" ")
        ex = toks.explode()
        b = (_md5_prefix_batch(list(ex), 4).astype(np.uint64)
             % np.uint64(DSIR_BUCKETS)).astype(np.int64)
        per = pd.DataFrame(
            {"doc_id": ex.index, "t": pt[b], "r": pr[b]})
        agg = per.groupby("doc_id").agg(
            n_tokens=("t", "size"), sum_t=("t", "sum"),
            sum_r=("r", "sum"))
        agg = agg.reindex(range(len(batch)), fill_value=0)
        ratio = np.where(
            agg["sum_r"].to_numpy() > 0,
            agg["sum_t"].to_numpy() * 1000
            // np.maximum(agg["sum_r"].to_numpy(), 1), 0)
        return pd.DataFrame(
            {"doc_id": batch["doc_id"].astype("int64").values,
             "n_tokens": agg["n_tokens"].astype("int64").values,
             "sum_t_ppm": agg["sum_t"].astype("int64").values,
             "sum_r_ppm": agg["sum_r"].astype("int64").values,
             "ratio_milli": ratio.astype(np.int64),
             "selected": (ratio >= 1000).astype(np.int64)})

    return docs.map_batches(score, batch_format="pandas",
                            batch_size=4096)


# ---------------- locale-aware price normalization ---------------------------


def price_extract_normalize(sf_dir: str) -> "rd.Dataset":
    """Structured price extraction from prose: US (``$1,234.56``) and
    EU (``€1.234,56``) groupings normalized to integer cents; the bare
    decimal and the grouped year (no currency, no cents) are the
    decoys (``functions/textstats.price_text_for``).

    Scale: stateless task map, compiled regex, no shuffle."""
    import pyarrow as pa

    from tensorflow_ocr_ray.functions.textstats import (
        extract_prices,
        price_text_for,
    )

    docs = _docs(sf_dir, ["doc_id"])

    def parse(batch: pa.Table) -> pa.Table:
        doc, seq, cur, val = [], [], [], []
        for did in batch.column("doc_id").to_pylist():
            d = int(did)
            for s, c, v in extract_prices(price_text_for(d)):
                doc.append(d)
                seq.append(s)
                cur.append(c)
                val.append(v)
        return pa.table(
            {"doc_id": pa.array(doc, type=pa.int64()),
             "seq": pa.array(seq, type=pa.int64()),
             "currency": pa.array(cur, type=pa.string()),
             "value_cents": pa.array(val, type=pa.int64())})

    return docs.map_batches(parse, batch_format="pyarrow",
                            batch_size=4096)


# ---------------- T5-style span-corruption masks ------------------------------

MASK_STRIDE = 8   # tokens between span starts
MASK_LEN = 3      # tokens per masked span


def span_corruption_masks(sf_dir: str) -> "rd.Dataset":
    """Denoising-objective prep: deterministic mask spans (length 3,
    stride 8, per-doc offset ``doc_id%4``) over whitespace tokens,
    each with its masked text — the span-corruption layout a T5-style
    trainer consumes; the offset de-correlates spans from sentence
    starts across the corpus.

    Scale: stateless task map; spans never cross a document, so no
    shuffle."""
    import pyarrow as pa

    docs = _docs(sf_dir, ["doc_id", "text"])

    def masks(batch: pa.Table) -> pa.Table:
        doc, idx, st, en, tx = [], [], [], [], []
        for did, text in zip(batch.column("doc_id").to_pylist(),
                             batch.column("text").to_pylist()):
            d = int(did)
            toks = text.split(" ")
            off = d % 4
            j = 0
            while j * MASK_STRIDE + off + MASK_LEN <= len(toks):
                s = j * MASK_STRIDE + off
                doc.append(d)
                idx.append(j)
                st.append(s)
                en.append(s + MASK_LEN)
                tx.append(" ".join(toks[s:s + MASK_LEN]))
                j += 1
        return pa.table(
            {"doc_id": pa.array(doc, type=pa.int64()),
             "span_idx": pa.array(idx, type=pa.int64()),
             "start_tok": pa.array(st, type=pa.int64()),
             "end_tok": pa.array(en, type=pa.int64()),
             "masked_text": pa.array(tx, type=pa.string())})

    return docs.map_batches(masks, batch_format="pyarrow",
                            batch_size=4096)


# ---------------- LM-score terciles (CCNet head/middle/tail) ------------------


def lm_score_terciles(sf_dir: str, n_shards: int = 16) -> "rd.Dataset":
    """CCNet's head/middle/tail split: every document assigned its
    global tercile by LM score (``ngram_lm_score``) WITHOUT a global
    sort — scores are bounded ppm ints, so range-sharding by value
    co-locates ties, per-shard counts give exclusive rank offsets (a
    bounded grid on the driver), and ``tercile = rank*3 // N`` inside
    each shard reproduces NTILE(3) exactly (larger buckets first,
    (score, doc_id) tie order).

    Scale: the skinny (doc_id, score) projection materializes once
    (16 B/row); ONE value-range exchange; the driver sees only the
    shard-count grid."""
    import pyarrow as pa

    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    def project(batch: pa.Table) -> pd.DataFrame:
        score = batch.column("score_ppm").to_numpy()
        return pd.DataFrame(
            {"doc_id": batch.column("doc_id").to_numpy()
                .astype(np.int64),
             "score_ppm": score.astype(np.int64),
             "shard": (score.astype(np.int64) * n_shards
                       // 1_000_001).astype(np.int64)})

    skinny = (
        ngram_lm_score(sf_dir)
        .map_batches(project, batch_format="pyarrow", batch_size=8192)
        .materialize()
    )

    counts = (
        skinny.map_batches(
            lambda df: df.groupby("shard", as_index=False)
            .agg(n=("doc_id", "size")),
            batch_format="pandas")
        .to_pandas().groupby("shard")["n"].sum()
    )
    total = int(counts.sum())
    offsets = counts.sort_index().cumsum().shift(fill_value=0)
    off_ref = ray.put((offsets.to_dict(), total))

    def rank_shard(df: pd.DataFrame) -> pd.DataFrame:
        offs, n_total = ray.get(off_ref)
        df = df.sort_values(["score_ppm", "doc_id"],
                            kind="mergesort").reset_index(drop=True)
        start = int(offs[int(df["shard"].iloc[0])]) if len(df) else 0
        rank = start + np.arange(len(df), dtype=np.int64)
        return pd.DataFrame(
            {"doc_id": df["doc_id"].astype("int64"),
             "score_ppm": df["score_ppm"].astype("int64"),
             "tercile": (rank * 3 // n_total).astype("int64")})

    return hash_exchange(skinny, "shard", n_shards, rank_shard)


# ---------------- paragraph-level corpus dedup (CCNet-style) ----------------

PARA_TOKENS = 8   # tokens per paragraph chunk


def paragraph_dedup(sf_dir: str, p: int = PARA_TOKENS,
                    n_shards: int = _N_SHARDS) -> "rd.Dataset":
    """CCNet-style paragraph deduplication with cleaned-text output: the
    corpus is split into fixed ``p``-token paragraph chunks, every chunk
    whose md5-64 has been seen before (corpus-wide, first occurrence by
    (doc_id, chunk_idx) wins) is REMOVED, and each document's surviving
    text is reassembled in order.  This is the remove-the-duplicate
    counterpart of dup_span_coverage's measure-the-duplicate signal —
    the pass CCNet runs over Common Crawl before LM filtering.

    Physical plan (two routed hash exchanges, both on bounded shard
    keys):
    1. map: each doc emits one row per chunk (ckey-shard, ckey, doc_id,
       chunk_idx, chunk text) — chunk text ships ONCE (it is needed to
       reassemble the survivors);
    2. ckey-shard: all occurrences of a chunk land in one shard, so
       keep-first is a sort + ``~duplicated`` — no global sort; removed
       rows drop their text payload (empty string) before hop 2, so the
       second exchange ships only surviving text + skinny tombstones;
    3. doc-shard: per-doc counts + ordered join of kept chunks.  A
       skinny per-doc sentinel (chunk_idx=-1) unioned into hop 2 keeps
       empty/short docs present in the output.

    At 100 TB: no driver-side state, both exchanges are 64-way routed,
    and text volume crosses the network ~1x (dup text crosses once,
    unique text twice).  Oracle: row_number() OVER (PARTITION BY md5
    chunk key ORDER BY doc_id, chunk_idx) = 1, string_agg reassembly,
    hash-matched."""
    from tensorflow_ocr_ray.functions.textstats import _md5_prefix_batch

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        doc_l, j_l, txt_l = [], [], []
        for doc_id, text in zip(df["doc_id"], df["text"]):
            toks = [t for t in _WS.split(text.strip().lower()) if t]
            if not toks:
                continue
            chunks = [" ".join(toks[i:i + p])
                      for i in range(0, len(toks), p)]
            doc_l.append(np.full(len(chunks), doc_id, dtype=np.int64))
            j_l.append(np.arange(len(chunks), dtype=np.int64))
            txt_l.extend(chunks)
        if not txt_l:
            return pd.DataFrame(
                {"cshard": pd.Series([], dtype="int64"),
                 "ckey": pd.Series([], dtype="uint64"),
                 "doc_id": pd.Series([], dtype="int64"),
                 "j": pd.Series([], dtype="int64"),
                 "chunk": pd.Series([], dtype="object")})
        ck = _md5_prefix_batch(txt_l, 8).astype(np.uint64)
        return pd.DataFrame(
            {"cshard": (ck % np.uint64(n_shards)).astype("int64"),
             "ckey": ck,
             "doc_id": np.concatenate(doc_l),
             "j": np.concatenate(j_l),
             "chunk": txt_l})

    def keep_first(g: pd.DataFrame) -> pd.DataFrame:
        cols = ["doc_id", "j", "keep", "chunk", "dshard"]
        if not len(g):
            out = pd.DataFrame({c: pd.Series([], dtype="int64")
                                for c in cols})
            return out.astype({"chunk": "object"})
        s = g.sort_values(["ckey", "doc_id", "j"],
                          kind="mergesort").reset_index(drop=True)
        keep = ~s["ckey"].duplicated().to_numpy()
        return pd.DataFrame(
            {"doc_id": s["doc_id"].to_numpy(np.int64),
             "j": s["j"].to_numpy(np.int64),
             "keep": keep.astype(np.int64),
             # removed rows ship no text — hop 2 carries only survivors
             "chunk": np.where(keep, s["chunk"].to_numpy(object), ""),
             "dshard": s["doc_id"].to_numpy(np.int64) % n_shards})

    def sentinels(df: pd.DataFrame) -> pd.DataFrame:
        doc = df["doc_id"].to_numpy(np.int64)
        return pd.DataFrame(
            {"doc_id": doc,
             "j": np.full(len(doc), -1, dtype=np.int64),
             "keep": np.zeros(len(doc), dtype=np.int64),
             "chunk": np.full(len(doc), "", dtype=object),
             "dshard": doc % n_shards})

    def assemble(g: pd.DataFrame) -> pd.DataFrame:
        cols = ["doc_id", "n_chunks", "n_removed", "kept_text"]
        if not len(g):
            out = pd.DataFrame({c: pd.Series([], dtype="int64")
                                for c in cols})
            return out.astype({"kept_text": "object"})
        real = g[g["j"].to_numpy() >= 0]
        base = pd.DataFrame(
            {"doc_id": pd.unique(g["doc_id"].to_numpy())}
        ).set_index("doc_id")
        base["n_chunks"] = 0
        base["n_removed"] = 0
        base["kept_text"] = ""
        if len(real):
            nc = real.groupby("doc_id").size()
            nr = real.groupby("doc_id")["keep"].agg(
                lambda s: int((1 - s).sum()))
            kept = real[real["keep"].to_numpy() == 1].sort_values(
                ["doc_id", "j"], kind="mergesort")
            kt = kept.groupby("doc_id")["chunk"].agg(" ".join)
            base.loc[nc.index, "n_chunks"] = nc
            base.loc[nr.index, "n_removed"] = nr
            base.loc[kt.index, "kept_text"] = kt
        return pd.DataFrame(
            {"doc_id": base.index.to_numpy(np.int64),
             "n_chunks": base["n_chunks"].to_numpy(np.int64),
             "n_removed": base["n_removed"].to_numpy(np.int64),
             "kept_text": base["kept_text"].to_numpy(object)})

    decided = hash_exchange(
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(explode, batch_format="pandas", batch_size=1024),
        "cshard", n_shards, keep_first)
    sent = _docs(sf_dir, ["doc_id"]).map_batches(
        sentinels, batch_format="pandas", batch_size=65536)
    return hash_exchange(decided.union(sent), "dshard", n_shards,
                         assemble)


# ---------------- vocabulary statistics (Heaps / hapax / entropy) ----------

ENTROPY_LUT_MAX = 512


def _log2_lut_ppm() -> "np.ndarray":
    """lut[x] = round(log2(x) * 1e6) for x in 0..ENTROPY_LUT_MAX
    (lut[0] = 0, unused).  Injected VERBATIM into the DuckDB oracle as
    a VALUES list, so both engines share one fixed-point log table and
    every entropy is an exact int64 — the order_value_benford
    precedent extended from 9 digits to the token-count domain."""
    import numpy as np

    x = np.arange(ENTROPY_LUT_MAX + 1, dtype=np.float64)
    x[0] = 1.0
    return np.round(np.log2(x) * 1_000_000).astype(np.int64)


def heaps_vocab_growth(sf_dir: str, n_checkpoints: int = 10) -> pd.DataFrame:
    """Heaps'-law vocabulary growth curve: cumulative distinct-token
    count (and cumulative token total) after each 1/n-th of the corpus
    in doc_id order — the diminishing-returns audit a pretraining-data
    team reads before buying more of the same source.

    Physical plan: a token's contribution to the curve is its FIRST
    doc_id, so per-batch (token -> min doc_id) partials route through
    ONE crc32-token-shard exchange (vocab_topk's key), each shard
    min-reduces and emits its tokens bucketed by checkpoint — a
    ``n_checkpoints``-bounded histogram per shard.  Cumulative token
    totals need no shuffle at all: per-batch checkpoint-bucketed count
    partials tree-combine.  The driver sees shards x checkpoints rows,
    never a token row."""
    import pyarrow.parquet as pq

    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    cps = np.array(
        [(k * n_docs) // n_checkpoints for k in range(1, n_checkpoints + 1)],
        dtype=np.int64)

    def first_partial(df: pd.DataFrame) -> pd.DataFrame:
        first: dict = {}
        for did, text in zip(df["doc_id"], df["text"]):
            d = int(did)
            for t in split_tokens(text.lower()):
                if t and (t not in first or first[t] > d):
                    first[t] = d
        toks = list(first.keys())
        return pd.DataFrame(
            {
                "token": toks,
                "fd": np.fromiter((first[t] for t in toks),
                                  dtype=np.int64, count=len(toks)),
                "tshard": np.fromiter(
                    (zlib.crc32(t.encode()) % _N_SHARDS for t in toks),
                    dtype=np.int64, count=len(toks)),
            }
        )

    def shard_hist(g: pd.DataFrame) -> pd.DataFrame:
        fd = g.groupby("token")["fd"].min().to_numpy(np.int64)
        # vocab bucket k counts tokens first seen in (cps[k-1], cps[k]]
        # i.e. fd < cps[k] cumulative — emit per-bucket increments
        b = np.searchsorted(cps, fd, side="right")
        cnt = np.bincount(b, minlength=n_checkpoints)[:n_checkpoints]
        return pd.DataFrame(
            {"k": np.arange(1, n_checkpoints + 1, dtype=np.int64),
             "new_vocab": cnt.astype(np.int64)})

    vocab_inc = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(first_partial, batch_format="pandas", batch_size=1024)
        .groupby("tshard")
        .map_groups(shard_hist, batch_format="pandas")
        .to_pandas()
        .groupby("k", as_index=False)["new_vocab"].sum()
        .sort_values("k")
    )

    def count_partial(df: pd.DataFrame) -> pd.DataFrame:
        did = df["doc_id"].to_numpy(np.int64)
        ntok = np.fromiter(
            (sum(1 for t in split_tokens(tx.lower()) if t)
             for tx in df["text"]),
            dtype=np.int64, count=len(df))
        b = np.searchsorted(cps, did, side="right")
        inc = np.zeros(n_checkpoints, dtype=np.int64)
        np.add.at(inc, b, ntok)
        return pd.DataFrame(
            {"k": np.arange(1, n_checkpoints + 1, dtype=np.int64),
             "new_tokens": inc})

    tok_inc = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(count_partial, batch_format="pandas", batch_size=1024)
        .to_pandas()
        .groupby("k", as_index=False)["new_tokens"].sum()
        .sort_values("k")
    )
    out = vocab_inc.merge(tok_inc, on="k")
    out["docs"] = cps
    out["total_tokens"] = out["new_tokens"].cumsum()
    out["vocab_size"] = out["new_vocab"].cumsum()
    return (out[["k", "docs", "total_tokens", "vocab_size"]]
            .rename(columns={"k": "checkpoint"})
            .astype("int64"))


def hapax_stats(sf_dir: str) -> pd.DataFrame:
    """Hapax/dis-legomena profile per source (plus ``__all__``): vocab
    size, tokens occurring exactly once / exactly twice, and the hapax
    share in ppm — the tail-mass diagnostic for tokenizer training
    (a high hapax share means vocab growth is far from saturated).

    One crc32-token-shard exchange (each token's global and per-source
    counts complete inside its shard); shards emit a |sources|-bounded
    summary; the driver adds a bounded grid."""

    def counts(df: pd.DataFrame) -> pd.DataFrame:
        c: Counter = Counter()
        for src, text in zip(df["source"], df["text"]):
            for t in split_tokens(text.lower()):
                if t:
                    c[(src, t)] += 1
        keys = list(c.keys())
        return pd.DataFrame(
            {
                "source": [k[0] for k in keys],
                "token": [k[1] for k in keys],
                "cnt": np.fromiter((c[k] for k in keys),
                                   dtype=np.int64, count=len(keys)),
                "tshard": np.fromiter(
                    (zlib.crc32(k[1].encode()) % _N_SHARDS for k in keys),
                    dtype=np.int64, count=len(keys)),
            }
        )

    def shard_summary(g: pd.DataFrame) -> pd.DataFrame:
        per = g.groupby(["source", "token"], as_index=False)["cnt"].sum()
        rows = []
        for src, sub in per.groupby("source"):
            cnt = sub["cnt"].to_numpy(np.int64)
            rows.append((str(src), len(cnt), int((cnt == 1).sum()),
                         int((cnt == 2).sum())))
        gl = per.groupby("token", as_index=False)["cnt"].sum()
        cnt = gl["cnt"].to_numpy(np.int64)
        rows.append(("__all__", len(cnt), int((cnt == 1).sum()),
                     int((cnt == 2).sum())))
        return pd.DataFrame(
            rows, columns=["source", "vocab", "hapax", "dis"])

    agg = (
        _docs(sf_dir, ["source", "text"])
        .map_batches(counts, batch_format="pandas", batch_size=1024)
        .groupby("tshard")
        .map_groups(shard_summary, batch_format="pandas")
        .to_pandas()
        .groupby("source", as_index=False)[["vocab", "hapax", "dis"]].sum()
        .sort_values("source")
        .reset_index(drop=True)
    )
    agg["hapax_ppm"] = (agg["hapax"] * 1_000_000) // agg["vocab"]
    return agg.astype({"vocab": "int64", "hapax": "int64",
                       "dis": "int64", "hapax_ppm": "int64"})


def token_entropy(sf_dir: str) -> "rd.Dataset":
    """Per-document unigram entropy in exact fixed-point micro-bits:
    E_ppm = (N*lut[N] - sum_i c_i*lut[c_i]) // N with lut = the shared
    round(log2 * 1e6) table — the information-density quality signal
    (spam and keyword-stuffed pages score low, natural prose high).
    Map-only, zero shuffle; the oracle joins the SAME injected LUT, so
    every value is an exact int64 match."""
    lut = _log2_lut_ppm()

    def ent(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(np.int64)
        n_out = np.empty(len(df), dtype=np.int64)
        e_out = np.empty(len(df), dtype=np.int64)
        for i, text in enumerate(df["text"]):
            c = Counter(t for t in split_tokens(text.lower()) if t)
            cnt = np.fromiter(c.values(), dtype=np.int64, count=len(c))
            n = int(cnt.sum())
            if n > ENTROPY_LUT_MAX:
                raise ValueError(
                    f"token count {n} exceeds ENTROPY_LUT_MAX "
                    f"{ENTROPY_LUT_MAX}; widen the shared LUT")
            n_out[i] = n
            e_out[i] = (n * int(lut[n]) - int((cnt * lut[cnt]).sum())) // n
        return pd.DataFrame(
            {"doc_id": ids, "n_tokens": n_out, "entropy_ppm": e_out})

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        ent, batch_format="pandas", batch_size=1024)


# ---------------- sequential filter funnel with per-rule attribution ------

FUNNEL_RULES = ((1, "lang"), (2, "length"), (3, "repetitive"),
                (4, "exact_dup"))


def filter_funnel(sf_dir: str, keep_lang: str = "en") -> pd.DataFrame:
    """Per-rule drop attribution for the sequential curation chain
    lang -> length window -> repetition -> exact dedup — the funnel
    table every corpus-curation report leads with (how many documents
    each rule removed, IN ORDER, so rules are charged only for docs
    that survived the earlier ones).

    Physical plan: one map-only pass computes each doc's first failing
    rule (gopher_gate_batch signals + the lang column) and emits a
    4-bounded per-batch histogram; survivors' md5 text hashes route
    through ONE hash-shard exchange where each shard counts
    rows - distinct(hash) (keep-first dedup losses) — bounded partials
    only; the driver assembles a 4-row grid.  Nothing driver-side
    scales with the corpus."""
    import hashlib

    def verdict_hist(df: pd.DataFrame) -> pd.DataFrame:
        gate = gopher_gate_batch(df)
        reason = gate["fail_reason"].to_numpy()
        lang_bad = df["lang"].to_numpy() != keep_lang
        dropped = np.where(
            lang_bad, 1,
            np.where((reason == "too_short") | (reason == "too_long"), 2,
                     np.where((reason == "repetitive_unigram")
                              | (reason == "repetitive_trigram"), 3, 0)))
        cnt = np.bincount(dropped, minlength=4)[:4]
        return pd.DataFrame(
            {"stage": np.arange(4, dtype=np.int64),
             "n": cnt.astype(np.int64)})

    hist = (
        _docs(sf_dir, ["doc_id", "text", "lang"])
        .map_batches(verdict_hist, batch_format="pandas", batch_size=4096)
        .to_pandas()
        .groupby("stage", as_index=False)["n"].sum()
        .set_index("stage")["n"]
    )

    def survivor_hashes(df: pd.DataFrame) -> pd.DataFrame:
        gate = gopher_gate_batch(df)
        reason = gate["fail_reason"].to_numpy()
        ok = ((df["lang"].to_numpy() == keep_lang) & (reason == "kept"))
        sub = df[ok]
        hs = [hashlib.md5(t.encode()).hexdigest() for t in sub["text"]]
        return pd.DataFrame(
            {
                "doc_id": sub["doc_id"].to_numpy(np.int64),
                "h": hs,
                "hshard": np.fromiter(
                    (int(x[:8], 16) % _N_SHARDS for x in hs),
                    dtype=np.int64, count=len(hs)),
            }
        )

    def shard_dup_count(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"dups": [np.int64(len(g) - g["h"].nunique())]})

    dup_drops = int(
        _docs(sf_dir, ["doc_id", "text", "lang"])
        .map_batches(survivor_hashes, batch_format="pandas",
                     batch_size=4096)
        .groupby("hshard")
        .map_groups(shard_dup_count, batch_format="pandas")
        .to_pandas()["dups"].sum()
    )

    n_total = int(hist.sum())
    drops = [int(hist.get(1, 0)), int(hist.get(2, 0)),
             int(hist.get(3, 0)), dup_drops]
    rows = []
    n_in = n_total
    for (stage, rule), d in zip(FUNNEL_RULES, drops):
        rows.append((stage, rule, n_in, d, n_in - d))
        n_in -= d
    return pd.DataFrame(
        rows, columns=["stage", "rule", "n_in", "n_dropped", "n_out"]
    ).astype({"stage": "int64", "n_in": "int64",
              "n_dropped": "int64", "n_out": "int64"})


# ---------------- quality-score calibration audit ---------------------------

CAL_BASE = 3000
CAL_WIDTH = 400
CAL_NBINS = 10


def score_calibration_bins(sf_dir: str) -> pd.DataFrame:
    """Reliability diagram of the pinned linear quality model
    (``quality_lr_score``) against an independent rule-based gold
    label (the Gopher gate) — the calibration audit a learned quality
    filter ships with: per score bin, how often does the gate agree?

    Bins are fixed-width (``(score - 3000) // 400`` clamped to 10), so
    the result grid is bounded at any corpus size.  Physical plan: ONE
    pass computes both the model score and the gate verdict per batch
    and pre-reduces to a per-block (bin -> n, n_gold, n_pred) grid;
    the driver sums the bounded partials.  Output: (bin, score_lo, n,
    n_gold_pass, n_pred_pass, gold_rate_ppm, pred_rate_ppm)."""
    from tensorflow_ocr_ray.functions.textstats import quality_lr_features

    docs = _docs(sf_dir, ["doc_id", "text"])

    def grid_partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {c: pd.Series([], dtype="int64")
                 for c in ("bin", "n", "n_gold", "n_pred")})
        gop = gopher_gate_batch(df)
        feats = [quality_lr_features(t) for t in df["text"]]
        score = np.array([f[4] for f in feats], dtype=np.int64)
        pred = np.array([f[5] for f in feats], dtype=np.int64)
        gold = gop["passed"].to_numpy(np.int64)
        b = np.clip((score - CAL_BASE) // CAL_WIDTH, 0, CAL_NBINS - 1)
        out = (pd.DataFrame({"bin": b, "n": 1, "n_gold": gold,
                             "n_pred": pred})
               .groupby("bin", as_index=False).sum())
        return out.astype("int64")

    parts = docs.map_batches(
        grid_partial, batch_format="pandas", batch_size=4096
    ).to_pandas()  # <= CAL_NBINS rows per block — bounded
    if not len(parts):
        return pd.DataFrame(
            {c: pd.Series([], dtype="int64")
             for c in ("bin", "score_lo", "n", "n_gold_pass",
                       "n_pred_pass", "gold_rate_ppm", "pred_rate_ppm")})
    g = parts.groupby("bin", as_index=False).sum()
    return pd.DataFrame(
        {"bin": g["bin"].astype("int64"),
         "score_lo": (CAL_BASE + g["bin"] * CAL_WIDTH).astype("int64"),
         "n": g["n"].astype("int64"),
         "n_gold_pass": g["n_gold"].astype("int64"),
         "n_pred_pass": g["n_pred"].astype("int64"),
         "gold_rate_ppm": (g["n_gold"] * 1_000_000
                           // g["n"]).astype("int64"),
         "pred_rate_ppm": (g["n_pred"] * 1_000_000
                           // g["n"]).astype("int64")}
    )
