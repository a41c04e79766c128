"""Inverted-index-style corpus search: phrase match + BM25 top-k.

The search primitives a 100-TB training-data pipeline needs when
selecting or auditing documents by content (e.g. "which docs contain
this exact phrase" for contamination forensics, "top-k docs for these
terms" for targeted sampling).  Both are embarrassingly parallel over
the documents table — a document's tokens live in one row, so phrase
adjacency and per-doc term frequencies are map-only; the only
cross-document state is the tiny (num_docs, total_tokens, df_per_term)
statistics triple, combined from per-batch partials and broadcast back.
No shuffle of corpus-sized data anywhere.

Tokenization matches the repo's oracle convention exactly:
``text.strip().lower().split()`` == DuckDB
``string_split_regex(trim(lower(text)), '\\s+')``.

Exactness: BM25 uses the ln-free idf ratio ``(N - df + 0.5)/(df + 0.5)``
(monotone in the classic log idf per term) so every score is a fixed
chain of IEEE-double ``+ - * /`` on exact integers — written as the
SAME expression, in the same order, in the SQL oracle; scores compare
bit-identical with no rounding step.  k1 = 1.2, b = 0.75.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import ray
import ray.data as rd

from tensorflow_ocr_ray import cache

PHRASES = ("part filter", "order fast", "table hash")
BM25_TERMS = ("scan", "join", "filter")
BM25_K1 = 1.2
BM25_B = 0.75
BM25_TOPK = 20


def _docs(sf_dir: str) -> "rd.Dataset":
    return rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )


def phrase_search(sf_dir: str,
                  phrases: tuple[str, ...] = PHRASES) -> "rd.Dataset":
    """(phrase, doc_id, matches) for every document containing each
    query phrase — adjacency on whitespace tokens, overlapping matches
    counted ('x x x' has two 'x x' matches), map-only."""
    split_phrases = [tuple(p.split()) for p in phrases]

    def find(df: pd.DataFrame) -> pd.DataFrame:
        out_phrase, out_doc, out_n = [], [], []
        for doc_id, text in zip(df["doc_id"], df["text"]):
            toks = np.asarray(text.strip().lower().split(), dtype=object)
            if len(toks) < 2:
                continue
            head, tail = toks[:-1], toks[1:]
            for p, (a, b) in zip(phrases, split_phrases):
                n = int(((head == a) & (tail == b)).sum())
                if n:
                    out_phrase.append(p)
                    out_doc.append(int(doc_id))
                    out_n.append(n)
        return pd.DataFrame(
            {"phrase": pd.Series(out_phrase, dtype=object),
             "doc_id": pd.Series(out_doc, dtype="int64"),
             "matches": pd.Series(out_n, dtype="int64")}
        )

    return _docs(sf_dir).map_batches(
        find, batch_format="pandas", batch_size=4096
    )


def bm25_topk(sf_dir: str, terms: tuple[str, ...] = BM25_TERMS,
              k: int = BM25_TOPK) -> pd.DataFrame:
    """Top-k documents by BM25 (ln-free idf variant, see module doc)
    for a fixed term set: (rank, doc_id, score).

    Pass 1 — per-batch partials of (n_docs, total_tokens, df per term),
    combined driver-side (one tiny row per input block).  Pass 2 —
    per-doc scores from the broadcast stats, per-block top-k partials
    (score DESC, doc_id ASC), bounded driver merge of <= k rows/block.
    """
    terms = tuple(terms)

    def stats_partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {"n_docs": pd.Series([], dtype="int64"),
                 "total_tokens": pd.Series([], dtype="int64"),
                 **{f"df_{i}": pd.Series([], dtype="int64")
                    for i in range(len(terms))}}
            )
        dls, dfs = [], []
        for text in df["text"]:
            toks = text.strip().lower().split()
            dls.append(len(toks))
            tokset = set(toks)
            dfs.append([t in tokset for t in terms])
        row = {"n_docs": np.int64(len(df)),
               "total_tokens": np.int64(sum(dls))}
        contains = np.asarray(dfs, dtype=bool)
        for i, t in enumerate(terms):
            row[f"df_{i}"] = np.int64(
                contains[:, i].sum() if len(df) else 0)
        return pd.DataFrame([row])

    partials = _docs(sf_dir).map_batches(
        stats_partial, batch_format="pandas", batch_size=4096
    ).to_pandas()  # one row per block — bounded by block count
    n = np.float64(int(partials["n_docs"].sum()))
    t_total = np.float64(int(partials["total_tokens"].sum()))
    dfs = [np.float64(int(partials[f"df_{i}"].sum()))
           for i in range(len(terms))]
    avgdl = t_total / n
    stats_ref = ray.put((terms, dfs, n, avgdl))

    def score_block(df: pd.DataFrame) -> pd.DataFrame:
        terms_, dfs_, n_, avgdl_ = ray.get(stats_ref)
        tfs = np.zeros((len(df), len(terms_)), dtype=np.float64)
        dl = np.zeros(len(df), dtype=np.float64)
        for r, text in enumerate(df["text"]):
            toks = text.strip().lower().split()
            dl[r] = len(toks)
            for i, t in enumerate(terms_):
                tfs[r, i] = toks.count(t)
        score = np.zeros(len(df), dtype=np.float64)
        for i in range(len(terms_)):
            tf = tfs[:, i]
            # identical expression (and order) to the SQL oracle
            score = score + ((n_ - dfs_[i] + 0.5) / (dfs_[i] + 0.5)) * (
                (tf * (BM25_K1 + 1.0))
                / (tf + BM25_K1 * ((1.0 - BM25_B)
                                   + (BM25_B * dl) / avgdl_))
            )
        out = pd.DataFrame(
            {"doc_id": df["doc_id"].astype("int64").to_numpy(),
             "score": score}
        )
        order = np.lexsort((out["doc_id"].to_numpy(),
                            -out["score"].to_numpy()))
        return out.iloc[order[:k]].reset_index(drop=True)

    tops = _docs(sf_dir).map_batches(
        score_block, batch_format="pandas", batch_size=4096
    ).to_pandas()  # <= k rows per block — bounded
    order = np.lexsort((tops["doc_id"].to_numpy(),
                        -tops["score"].to_numpy()))
    final = tops.iloc[order[:k]].reset_index(drop=True)
    final.insert(0, "rank", np.arange(1, len(final) + 1, dtype=np.int64))
    return final


# ---------------- reciprocal-rank fusion of two retrieval families ---------

RRF_K = 60
RRF_DEPTH = 100
RRF_TOPK = 20
QL_MU = 2000.0


def rrf_fusion(sf_dir: str, terms: tuple[str, ...] = BM25_TERMS,
               depth: int = RRF_DEPTH, k: int = RRF_TOPK) -> pd.DataFrame:
    """Reciprocal-rank fusion of two INDEPENDENT retrieval scorers —
    BM25 (the ln-free idf variant above) and a Dirichlet-smoothed
    query-likelihood model (product form, mu = 2000: monotone-equal to
    the usual log-sum, but a fixed chain of IEEE double ops both
    engines write identically) — the standard way a retrieval stack
    combines lexical rankers without score calibration:
    ``rrf(d) = sum over rankers of 1/(60 + rank_r(d))`` over each
    ranker's top-``depth`` list, missing side contributing 0.

    Distributed shape: ONE stats pass (per-block partials of n_docs,
    total_tokens, df_t, cf_t — bounded one row per block), stats
    broadcast; ONE scoring pass emitting per-block top-``depth``
    partials for BOTH scorers at once (<= 2*depth skinny rows per
    block); driver merges O(blocks*depth) rows, fuses, returns top-k.
    Corpus text never leaves the map stage."""
    terms = tuple(terms)

    def stats_partial(df: pd.DataFrame) -> pd.DataFrame:
        dls = []
        dfs = np.zeros(len(terms), dtype=np.int64)
        cfs = np.zeros(len(terms), dtype=np.int64)
        for text in df["text"]:
            toks = text.strip().lower().split()
            dls.append(len(toks))
            for i, t in enumerate(terms):
                c = toks.count(t)
                cfs[i] += c
                dfs[i] += c > 0
        row = {"n_docs": np.int64(len(df)),
               "total_tokens": np.int64(sum(dls))}
        for i in range(len(terms)):
            row[f"df_{i}"] = dfs[i]
            row[f"cf_{i}"] = cfs[i]
        return pd.DataFrame([row])

    partials = _docs(sf_dir).map_batches(
        stats_partial, batch_format="pandas", batch_size=4096
    ).to_pandas()
    n = np.float64(int(partials["n_docs"].sum()))
    ct = np.float64(int(partials["total_tokens"].sum()))
    dfs = [np.float64(int(partials[f"df_{i}"].sum()))
           for i in range(len(terms))]
    cfs = [np.float64(int(partials[f"cf_{i}"].sum()))
           for i in range(len(terms))]
    avgdl = ct / n
    stats_ref = ray.put((terms, dfs, cfs, n, ct, avgdl))

    def score_block(df: pd.DataFrame) -> pd.DataFrame:
        terms_, dfs_, cfs_, n_, ct_, avgdl_ = ray.get(stats_ref)
        tfs = np.zeros((len(df), len(terms_)), dtype=np.float64)
        dl = np.zeros(len(df), dtype=np.float64)
        for r, text in enumerate(df["text"]):
            toks = text.strip().lower().split()
            dl[r] = len(toks)
            for i, t in enumerate(terms_):
                tfs[r, i] = toks.count(t)
        bm25 = np.zeros(len(df), dtype=np.float64)
        ql = np.ones(len(df), dtype=np.float64)
        for i in range(len(terms_)):
            tf = tfs[:, i]
            # identical expressions (and order) to the SQL oracle
            bm25 = bm25 + ((n_ - dfs_[i] + 0.5) / (dfs_[i] + 0.5)) * (
                (tf * (BM25_K1 + 1.0))
                / (tf + BM25_K1 * ((1.0 - BM25_B)
                                   + (BM25_B * dl) / avgdl_))
            )
            ql = ql * ((tf + QL_MU * cfs_[i] / ct_) / (dl + QL_MU))
        out = pd.DataFrame(
            {"doc_id": df["doc_id"].astype("int64").to_numpy(),
             "bm25": bm25, "ql": ql}
        )
        ob = np.lexsort((out["doc_id"].to_numpy(), -bm25))[:depth]
        oq = np.lexsort((out["doc_id"].to_numpy(), -ql))[:depth]
        keep = np.union1d(ob, oq)
        return out.iloc[keep].reset_index(drop=True)

    cand = _docs(sf_dir).map_batches(
        score_block, batch_format="pandas", batch_size=4096
    ).to_pandas()  # <= 2*depth rows per block — bounded
    ob = np.lexsort((cand["doc_id"].to_numpy(),
                     -cand["bm25"].to_numpy()))[:depth]
    oq = np.lexsort((cand["doc_id"].to_numpy(),
                     -cand["ql"].to_numpy()))[:depth]
    rrf = {}
    for rank, idx in enumerate(ob, start=1):
        d = int(cand["doc_id"].iat[idx])
        rrf[d] = rrf.get(d, 0.0) + 1.0 / (RRF_K + np.float64(rank))
    for rank, idx in enumerate(oq, start=1):
        d = int(cand["doc_id"].iat[idx])
        rrf[d] = rrf.get(d, 0.0) + 1.0 / (RRF_K + np.float64(rank))
    fused = pd.DataFrame(
        {"doc_id": np.fromiter(rrf.keys(), dtype=np.int64,
                               count=len(rrf)),
         "rrf": np.fromiter(rrf.values(), dtype=np.float64,
                            count=len(rrf))}
    )
    order = np.lexsort((fused["doc_id"].to_numpy(),
                        -fused["rrf"].to_numpy()))
    final = fused.iloc[order[:k]].reset_index(drop=True)
    final.insert(0, "rank", np.arange(1, len(final) + 1, dtype=np.int64))
    return final


# ---------------- positional proximity search -------------------------------

PROX_WINDOW = 5
PROX_PAIRS = (("scan", "join"), ("scan", "filter"), ("join", "filter"))


def proximity_search(sf_dir: str,
                     pairs: tuple[tuple[str, str], ...] = PROX_PAIRS,
                     window: int = PROX_WINDOW) -> "rd.Dataset":
    """Positional proximity retrieval — the query class a POSITIONAL
    inverted index exists for (phrase_search is adjacency; this is
    "terms A and B within ``window`` tokens in either direction"):
    per (doc, pair), the number of qualifying position combinations and
    the tightest gap.

    Map-only and zero-shuffle like phrase_search: token positions are a
    purely local property of one document, so each batch task emits its
    own qualifying (doc_id, term_a, term_b, matches, min_gap) rows and
    the result streams — at 100 TB this is one pruned-column pass, no
    exchange.  Per-doc work is the |occ_A| x |occ_B| broadcast-diff
    (vectorized), bounded by tf, never corpus size."""

    def find(df: pd.DataFrame) -> pd.DataFrame:
        od, oa, ob, on, og = [], [], [], [], []
        for doc_id, text in zip(df["doc_id"], df["text"]):
            toks = np.asarray(text.strip().lower().split(), dtype=object)
            if len(toks) < 2:
                continue
            for ta, tb in pairs:
                pa_ = np.flatnonzero(toks == ta)
                pb_ = np.flatnonzero(toks == tb)
                if not len(pa_) or not len(pb_):
                    continue
                gaps = np.abs(pa_[:, None] - pb_[None, :])
                hit = gaps <= window
                n = int(hit.sum())
                if n:
                    od.append(int(doc_id))
                    oa.append(ta)
                    ob.append(tb)
                    on.append(n)
                    og.append(int(gaps[hit].min()))
        return pd.DataFrame(
            {"doc_id": pd.Series(od, dtype="int64"),
             "term_a": pd.Series(oa, dtype=object),
             "term_b": pd.Series(ob, dtype=object),
             "matches": pd.Series(on, dtype="int64"),
             "min_gap": pd.Series(og, dtype="int64")}
        )

    return _docs(sf_dir).map_batches(
        find, batch_format="pandas", batch_size=4096
    )


# ---------------- NDCG retrieval-quality evaluation -------------------------

NDCG_K = 10
# 1/log2(rank+1) discounts as exact ppm integers, computed once here and
# injected verbatim into the DuckDB oracle (the log10-LUT precedent from
# order_value_benford: no transcendental is evaluated independently on
# the two sides, so fixed-point DCG sums are bit-equal).
NDCG_W_PPM = tuple(
    int(round(1_000_000 / math.log2(r + 1))) for r in range(1, NDCG_K + 1)
)


def ndcg_eval(sf_dir: str, terms: tuple[str, ...] = BM25_TERMS,
              k: int = NDCG_K) -> pd.DataFrame:
    """NDCG@k of the BM25 ranking against a graded relevance derived
    from the corpus itself — the retrieval-quality audit every ranking
    stack ships next to its scorer (ann_recall_eval's lexical twin):
    ``rel(doc) = min(total query-term tf, 3)`` grades 0-3,
    ``gain = 2^rel - 1``, discount ``1/log2(rank+1)`` via the shared
    ppm LUT, ``ndcg_ppm = 1e6 * DCG / IDCG`` (ideal ranking = the
    corpus-wide top-k by rel).

    Distributed shape: the bm25_topk stats pass, then ONE scoring pass
    whose blocks emit BOTH per-block top-k-by-score and top-k-by-rel
    partials (<= 2k skinny rows each); the driver merges O(blocks*k)
    rows and evaluates the exact integer DCG/IDCG.  Corpus text never
    leaves the map stage."""
    terms = tuple(terms)
    ranked = bm25_topk(sf_dir, terms=terms, k=k)

    def rel_partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {"doc_id": pd.Series([], dtype="int64"),
                 "rel": pd.Series([], dtype="int64")})
        rels = np.zeros(len(df), dtype=np.int64)
        ids = df["doc_id"].astype("int64").to_numpy()
        for r, text in enumerate(df["text"]):
            toks = text.strip().lower().split()
            rels[r] = min(sum(toks.count(t) for t in terms), 3)
        out = pd.DataFrame({"doc_id": ids, "rel": rels})
        order = np.lexsort((ids, -rels))[:k]
        return out.iloc[order].reset_index(drop=True)

    # per-block top-k rel partials: the ideal ranking needs only the k
    # largest relevance grades corpus-wide
    rel_tops = _docs(sf_dir).map_batches(
        rel_partial, batch_format="pandas", batch_size=4096
    ).to_pandas()
    order = np.lexsort((rel_tops["doc_id"].to_numpy(),
                        -rel_tops["rel"].to_numpy()))[:k]
    ideal = rel_tops["rel"].to_numpy()[order]

    # relevance of the RETRIEVED docs: the ranked list is k rows, so a
    # broadcast membership probe inside one more skinny pass
    want = set(int(d) for d in ranked["doc_id"])
    want_ref = ray.put(want)

    def rel_of_ranked(df: pd.DataFrame) -> pd.DataFrame:
        w = ray.get(want_ref)
        ids = df["doc_id"].astype("int64").to_numpy()
        mask = np.fromiter((int(d) in w for d in ids), dtype=bool,
                           count=len(ids))
        if not mask.any():
            return pd.DataFrame(
                {"doc_id": pd.Series([], dtype="int64"),
                 "rel": pd.Series([], dtype="int64")})
        sub = df.loc[mask]
        rels = np.fromiter(
            (min(sum(t.strip().lower().split().count(q) for q in terms), 3)
             for t in sub["text"]),
            dtype=np.int64, count=int(mask.sum()))
        return pd.DataFrame(
            {"doc_id": sub["doc_id"].astype("int64").to_numpy(),
             "rel": rels})

    got = _docs(sf_dir).map_batches(
        rel_of_ranked, batch_format="pandas", batch_size=4096
    ).to_pandas()
    rel_by_doc = dict(zip(got["doc_id"].astype(int), got["rel"].astype(int)))

    dcg = 0
    for rank, d in enumerate(ranked["doc_id"], start=1):
        gain = (1 << rel_by_doc.get(int(d), 0)) - 1
        dcg += gain * NDCG_W_PPM[rank - 1]
    idcg = sum(((1 << int(r)) - 1) * NDCG_W_PPM[i]
               for i, r in enumerate(ideal))
    ndcg_ppm = (dcg * 1_000_000) // idcg if idcg else 0
    return pd.DataFrame(
        {"k": pd.Series([k], dtype="int64"),
         "dcg_w": pd.Series([dcg], dtype="int64"),
         "idcg_w": pd.Series([idcg], dtype="int64"),
         "ndcg_ppm": pd.Series([ndcg_ppm], dtype="int64")}
    )


# ---------------- persisted inverted index (hive posting shards) -----------

IDX_N_SHARDS = 16


def build_inverted_index(sf_dir: str, index_dir: str,
                         n_shards: int = IDX_N_SHARDS) -> int:
    """Write the corpus's posting lists partitioned by md5(token) shard
    (one ``shard=N`` hive directory each) — the TEXT twin of
    ``build_lsh_index``: a term lookup then reads ONLY its term's shard
    partitions, so query cost is posting-volume-bounded, never a corpus
    scan.  Rows are (token, doc_id, tf); the build is one tokenize pass
    + a partitioned write (each output partition is independently
    resumable).  Returns the number of shard directories written."""
    import os

    from tensorflow_ocr_ray.functions.textstats import _md5_prefix_batch

    def postings(df: pd.DataFrame) -> pd.DataFrame:
        from collections import Counter

        toks_out, docs_out, tfs_out = [], [], []
        for doc_id, text in zip(df["doc_id"], df["text"]):
            c = Counter(text.strip().lower().split())
            if not c:
                continue
            toks_out.extend(c.keys())
            docs_out.extend([int(doc_id)] * len(c))
            tfs_out.extend(c.values())
        if not toks_out:
            return pd.DataFrame(
                {"shard": pd.Series([], dtype="int64"),
                 "token": pd.Series([], dtype=object),
                 "doc_id": pd.Series([], dtype="int64"),
                 "tf": pd.Series([], dtype="int64")})
        h = _md5_prefix_batch(toks_out, 8).astype(np.uint64)
        return pd.DataFrame(
            {"shard": (h % np.uint64(n_shards)).astype("int64"),
             "token": pd.Series(toks_out, dtype=object),
             "doc_id": pd.Series(docs_out, dtype="int64"),
             "tf": pd.Series(tfs_out, dtype="int64")})

    ds = _docs(sf_dir).map_batches(
        postings, batch_format="pandas", batch_size=4096
    )
    ds.write_parquet(index_dir, partition_cols=["shard"])
    return sum(1 for d in os.listdir(index_dir) if d.startswith("shard="))


def inverted_index_and(sf_dir: str,
                       terms: tuple[str, ...] = BM25_TERMS,
                       n_shards: int = IDX_N_SHARDS) -> "rd.Dataset":
    """Conjunctive (AND) term lookup over the persisted inverted index:
    documents containing EVERY query term, with the summed tf —
    (doc_id, tf_total).

    Scale shape: the query reads ONLY the |query terms| shard
    partitions the terms hash to (source-level pruning like the ANN
    probe-ring reads — at 16 shards and 3 terms, >= 13/16 of the index
    is never opened), filters to the exact terms, then routes the
    skinny postings through one doc-hash exchange where per-doc
    distinct-term counts decide membership vectorized.  The driver
    never sees a posting."""
    import os

    from tensorflow_ocr_ray.functions.textstats import _md5_prefix_batch
    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    terms = tuple(dict.fromkeys(terms))  # dedup, keep order
    index_dir = cache.build_once(
        cache.INDEX_ROOT, f"inv{n_shards}-{{fp}}",
        lambda d: build_inverted_index(sf_dir, d, n_shards),
        source=(sf_dir, "documents"))
    need = sorted(
        {int(h % np.uint64(n_shards))
         for h in _md5_prefix_batch(list(terms), 8).astype(np.uint64)})
    paths = [
        os.path.join(sd, f)
        for s in need
        if os.path.isdir(sd := os.path.join(index_dir, f"shard={s}"))
        for f in sorted(os.listdir(sd))
        if f.endswith(".parquet")
    ]
    n_route = 32
    term_set = set(terms)
    n_terms = len(term_set)

    def filter_terms(df: pd.DataFrame) -> pd.DataFrame:
        sub = df[df["token"].isin(term_set)]
        return pd.DataFrame(
            {"dshard": (sub["doc_id"].astype("int64") % n_route),
             "doc_id": sub["doc_id"].astype("int64"),
             "token": sub["token"],
             "tf": sub["tf"].astype("int64")})

    def conjunct(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame(
                {"doc_id": pd.Series([], dtype="int64"),
                 "tf_total": pd.Series([], dtype="int64")})
        agg = g.groupby("doc_id").agg(
            n=("token", "nunique"), tf_total=("tf", "sum"))
        hit = agg[agg["n"] == n_terms]
        return pd.DataFrame(
            {"doc_id": hit.index.to_numpy(np.int64),
             "tf_total": hit["tf_total"].to_numpy(np.int64)})

    if not paths:
        return rd.from_pandas(pd.DataFrame(
            {"doc_id": pd.Series([], dtype="int64"),
             "tf_total": pd.Series([], dtype="int64")}))
    postings = rd.read_parquet(paths).map_batches(
        filter_terms, batch_format="pandas", batch_size=8192
    )
    return hash_exchange(postings, "dshard", n_route, conjunct)
