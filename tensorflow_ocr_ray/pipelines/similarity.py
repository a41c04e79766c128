"""Similarity search over the ``embeddings`` table (list<float> vectors).

- ``ann_topk_brute``  — exact cosine top-k: numpy matmul per batch against
  a broadcast query vector; the baseline every ANN variant is measured
  against, and the SQL-oracle-checkable entry.
- ``ann_topk_lsh``    — random-hyperplane LSH bucketing: probes only the
  query's bucket ring instead of scanning everything; the scale path
  (bucket = partition key at 100 TB).  Recall vs brute force is asserted
  in tests.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd

import ray
import ray.data as rd

from tensorflow_ocr_ray import cache


_BCAST_CACHE: dict = {}


def _bcast_get(ref):
    """Per-worker-process cache of ``ray.get`` for small broadcast values
    (query vectors, plane matrices, centroid tables) — the task-pool
    analogue of fetching once in an actor ``__init__``.  Plain tasks on
    warm workers skip the ~1 s actor-pool spin-up a 2-actor
    ``concurrency=2`` class stage paid per query (measured: the spawn
    dominated every sub-second ANN query at bench scale)."""
    key = ref.hex()
    v = _BCAST_CACHE.get(key)
    if v is None:
        v = _BCAST_CACHE.setdefault(key, ray.get(ref))
    return v


def _emb(sf_dir: str) -> "rd.Dataset":
    return rd.read_parquet(f"{sf_dir}/embeddings.parquet")


def _query_vector(sf_dir: str, vec_id: int = 0) -> np.ndarray:
    import pyarrow.parquet as pq
    import pyarrow.compute as pc

    t = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    mask = pc.equal(t.column("vec_id"), vec_id)
    row = t.filter(mask)
    return np.asarray(row.column("embedding")[0].as_py(), dtype=np.float64)


def ann_topk_brute(sf_dir: str, k: int = 10, query_vec_id: int = 0) -> pd.DataFrame:
    """Exact cosine top-k, streaming: per-batch local top-k then a driver
    merge of ≤ k·num_batches rows (never materializes similarities for the
    whole corpus)."""
    q = _query_vector(sf_dir, query_vec_id)
    qn = q / np.linalg.norm(q)
    q_ref = ray.put(qn)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        qv = _bcast_get(q_ref)
        m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        norms = np.linalg.norm(m, axis=1)
        norms[norms == 0] = 1.0
        sims = (m @ qv) / norms
        out = pd.DataFrame(
            {"vec_id": df["vec_id"].values, "sim": np.round(sims, 4)}
        )
        out = out[out["vec_id"] != query_vec_id]
        return out.sort_values(
            ["sim", "vec_id"], ascending=[False, True]
        ).head(k)

    tops = _emb(sf_dir).map_batches(
        score, batch_format="pandas", batch_size=4096
    ).to_pandas()
    tops = tops.sort_values(["sim", "vec_id"], ascending=[False, True]).head(k)
    return tops.reset_index(drop=True).astype({"vec_id": "int64"})


def ann_topk_filtered(
    sf_dir: str, k: int = 10, query_vec_id: int = 0, label: int = 3
) -> pd.DataFrame:
    """Filtered vector search — exact cosine top-k among vectors whose
    ``label`` matches a metadata predicate (the vector-DB staple:
    "nearest docs WHERE lang='de'").  PRE-filtering, the exact flavor:
    the predicate applies before ranking, so the answer is the true
    top-k of the filtered set — post-filtering an unfiltered top-k can
    return fewer than k survivors.

    Same streaming shape as ann_topk_brute with the mask fused into
    the per-batch scorer: filter → score → local top-k, driver merges
    ≤ k·num_batches rows.  At scale a highly-selective predicate makes
    the label-partitioned index (the hive ``label=N`` layout the
    LSH/IVF indexes already use for ``code``/``cell``) the read-pruned
    path; the fused scan is the always-correct baseline."""
    q = _query_vector(sf_dir, query_vec_id)
    qn = q / np.linalg.norm(q)
    q_ref = ray.put(qn)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        keep = (df["label"].to_numpy() == label) & (
            df["vec_id"].to_numpy() != query_vec_id)
        if not keep.any():
            return pd.DataFrame(
                {"vec_id": pd.Series([], dtype="int64"),
                 "sim": pd.Series([], dtype="float64")})
        qv = _bcast_get(q_ref)
        m = np.stack(df["embedding"].to_numpy()[keep]).astype(np.float64)
        norms = np.linalg.norm(m, axis=1)
        norms[norms == 0] = 1.0
        sims = (m @ qv) / norms
        out = pd.DataFrame(
            {"vec_id": df["vec_id"].to_numpy()[keep],
             "sim": np.round(sims, 4)})
        return out.sort_values(
            ["sim", "vec_id"], ascending=[False, True]
        ).head(k)

    tops = _emb(sf_dir).map_batches(
        score, batch_format="pandas", batch_size=4096
    ).to_pandas()
    if "sim" not in tops.columns:  # every block empty -> schema lost
        return pd.DataFrame(
            {"vec_id": pd.Series([], dtype="int64"),
             "sim": pd.Series([], dtype="float64")})
    tops = tops.sort_values(
        ["sim", "vec_id"], ascending=[False, True]).head(k)
    return tops.reset_index(drop=True).astype({"vec_id": "int64"})


def ann_topk_multi(
    sf_dir: str, k: int = 5, query_vec_ids: tuple[int, ...] = (0, 1, 2, 3)
) -> pd.DataFrame:
    """Batched exact cosine top-k for a SET of queries — the realistic
    serving shape at scale: the normalized query matrix is broadcast
    once (``ray.put``) and every batch does ONE (batch x dim) @ (dim x Q)
    matmul; per-(batch, query) local top-k bounds what reaches the
    driver at k x Q x num_batches rows."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = t.column("vec_id").to_numpy()
    order = {int(v): i for i, v in enumerate(ids)}
    qm = np.stack(
        [np.asarray(t.column("embedding")[order[q]].as_py(),
                    dtype=np.float64)
         for q in query_vec_ids]
    )
    qm = qm / np.linalg.norm(qm, axis=1, keepdims=True)
    q_ref = ray.put((np.asarray(query_vec_ids, dtype=np.int64), qm))

    def multi_score(df: pd.DataFrame) -> pd.DataFrame:
        qids, qmat = _bcast_get(q_ref)
        m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        norms = np.linalg.norm(m, axis=1)
        norms[norms == 0] = 1.0
        sims = (m / norms[:, None]) @ qmat.T  # (batch, Q)
        vids = df["vec_id"].to_numpy()
        frames = []
        for j, qid in enumerate(qids):
            s = pd.DataFrame(
                {"query_id": qid, "vec_id": vids,
                 "sim": np.round(sims[:, j], 4)}
            )
            s = s[s["vec_id"] != qid]
            frames.append(
                s.sort_values(["sim", "vec_id"],
                              ascending=[False, True]).head(k)
            )
        return pd.concat(frames, ignore_index=True)

    scored = _emb(sf_dir).map_batches(
        multi_score, batch_format="pandas", batch_size=4096
    ).to_pandas()
    out = (
        scored.sort_values(["sim", "vec_id"], ascending=[False, True])
        .groupby("query_id", as_index=False, sort=True)
        .head(k)
    )
    return (
        out.sort_values(["query_id", "sim", "vec_id"],
                        ascending=[True, False, True])
        .reset_index(drop=True)
        .astype({"query_id": "int64", "vec_id": "int64"})
    )


def _lsh_planes(dim: int, n_planes: int, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.normal(size=(n_planes, dim))


def _probe_codes(q: np.ndarray, planes: np.ndarray, probes: int) -> set[int]:
    """Multiprobe code ring: the query's exact code plus the ``probes``
    Hamming-1 neighbors whose plane margin |q·p| is smallest (the planes
    the query sits closest to — the classic multiprobe ordering)."""
    n_planes = planes.shape[0]
    proj = planes @ q
    q_code = int((proj > 0).astype(np.uint32) @ (1 << np.arange(n_planes)))
    cand_codes = {q_code}
    for flip in np.argsort(np.abs(proj))[: max(0, probes)]:
        cand_codes.add(q_code ^ (1 << int(flip)))
    return cand_codes


def ann_topk_lsh(
    sf_dir: str,
    k: int = 10,
    query_vec_id: int = 0,
    n_planes: int = 8,
    probes: int = 3,
    seed: int = 11,
    auto_widen: bool = True,
) -> pd.DataFrame:
    """LSH-bucketed ANN: sign-of-projection bucket codes; search the query
    bucket plus its ``probes`` nearest Hamming-neighbor buckets (multiprobe
    by smallest plane margin).  When the probe ring holds fewer than ``k``
    candidates and ``auto_widen`` is on, the ring grows one flip at a time
    (the standard under-full ANN fallback — deterministic, widest ring =
    all Hamming-1 neighbors).  This variant scans-and-filters each batch;
    ``build_lsh_index`` + ``ann_topk_lsh_indexed`` is the scale path that
    prunes unprobed buckets at the READ (bucket = partition key)."""
    q = _query_vector(sf_dir, query_vec_id)
    planes = _lsh_planes(q.shape[0], n_planes, seed)
    # clamp: probes > n_planes would skip the loop body entirely
    for p in range(min(probes, n_planes), n_planes + 1):
        out = _lsh_scan(sf_dir, q, planes, _probe_codes(q, planes, p),
                        k, query_vec_id)
        if len(out) >= k or not auto_widen or p == n_planes:
            return out
    return out


def _lsh_scan(sf_dir, q, planes, cand_codes, k, query_vec_id):
    planes_ref = ray.put(planes)
    qn = q / np.linalg.norm(q)
    q_ref = ray.put(qn)
    codes_ref = ray.put(cand_codes)

    def bucket_score(df: pd.DataFrame) -> pd.DataFrame:
        planes_v = _bcast_get(planes_ref)
        qv = _bcast_get(q_ref)
        codes_v = _bcast_get(codes_ref)
        m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        codes = ((m @ planes_v.T) > 0).astype(np.uint32) @ (
            1 << np.arange(planes_v.shape[0])
        )
        keep = np.array([c in codes_v for c in codes])
        keep &= df["vec_id"].to_numpy() != query_vec_id
        if not keep.any():
            return pd.DataFrame({"vec_id": [], "sim": []})
        m = m[keep]
        norms = np.linalg.norm(m, axis=1)
        norms[norms == 0] = 1.0
        sims = (m @ qv) / norms
        out = pd.DataFrame(
            {
                "vec_id": df["vec_id"].to_numpy()[keep],
                "sim": np.round(sims, 4),
            }
        )
        # per-block top-k partial: the driver merge sees O(blocks * k)
        # rows, never the full probed-row score set
        return out.sort_values(
            ["sim", "vec_id"], ascending=[False, True]
        ).head(k)

    scored = _emb(sf_dir).map_batches(
        bucket_score, batch_format="pandas", batch_size=4096
    ).to_pandas()
    out = scored.sort_values(["sim", "vec_id"], ascending=[False, True]).head(k)
    return out.reset_index(drop=True).astype({"vec_id": "int64"})


def build_lsh_index(
    sf_dir: str, index_dir: str, n_planes: int = 8, seed: int = 11,
    vid_filter=None,
) -> int:
    """Write the embeddings table re-partitioned by LSH bucket code
    (one ``code=N`` hive directory per bucket).  A probed query then READS
    only its probe-ring partitions — the pruning happens at the source,
    not as a post-read filter.  Returns the number of distinct buckets.
    ``vid_filter`` (vec_id ndarray -> bool mask) restricts the rows —
    the base/delta split ann_index_append maintains."""
    import pyarrow.parquet as pq

    dim = len(
        pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["embedding"])
        .column("embedding")[0]
    )
    planes = _lsh_planes(dim, n_planes, seed)
    planes_ref = ray.put(planes)

    def code_batch(df: pd.DataFrame) -> pd.DataFrame:
        if vid_filter is not None:
            df = df[vid_filter(df["vec_id"].to_numpy(np.int64))]
            if not len(df):
                return df.assign(code=pd.Series([], dtype="int64"))
        p = ray.get(planes_ref)
        m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        codes = ((m @ p.T) > 0).astype(np.uint32) @ (
            1 << np.arange(p.shape[0])
        )
        out = df.copy()
        out["code"] = codes.astype(np.int64)
        return out

    ds = _emb(sf_dir).map_batches(code_batch, batch_format="pandas")
    ds.write_parquet(index_dir, partition_cols=["code"])
    import os

    return sum(1 for d in os.listdir(index_dir) if d.startswith("code="))


def ann_topk_lsh_indexed(
    index_dir: str,
    query: np.ndarray,
    k: int = 10,
    query_vec_id: int | None = None,
    n_planes: int = 8,
    probes: int = 3,
    seed: int = 11,
) -> pd.DataFrame:
    """ANN over a ``build_lsh_index`` table: only the probe-ring bucket
    partitions are read (missing buckets are skipped); brute-force cosine
    inside them."""
    import os

    q = np.asarray(query, dtype=np.float64)
    planes = _lsh_planes(q.shape[0], n_planes, seed)
    codes = _probe_codes(q, planes, probes)
    paths = [
        os.path.join(bucket_dir, f)
        for c in sorted(codes)
        if os.path.isdir(bucket_dir := os.path.join(index_dir, f"code={c}"))
        for f in sorted(os.listdir(bucket_dir))
        if f.endswith(".parquet")
    ]
    if not paths:
        return pd.DataFrame({"vec_id": [], "sim": []}).astype(
            {"vec_id": "int64", "sim": "float64"}
        )
    qn = q / np.linalg.norm(q)
    q_ref = ray.put(qn)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        qv = _bcast_get(q_ref)
        m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        norms = np.linalg.norm(m, axis=1)
        norms[norms == 0] = 1.0
        sims = (m @ qv) / norms
        out = pd.DataFrame(
            {"vec_id": df["vec_id"].values, "sim": np.round(sims, 4)}
        )
        if query_vec_id is not None:
            out = out[out["vec_id"] != query_vec_id]
        # per-block top-k partial -> O(blocks * k) driver merge
        return out.sort_values(
            ["sim", "vec_id"], ascending=[False, True]
        ).head(k)

    scored = rd.read_parquet(paths).map_batches(
        score, batch_format="pandas", batch_size=4096
    ).to_pandas()
    out = scored.sort_values(["sim", "vec_id"], ascending=[False, True]).head(k)
    return out.reset_index(drop=True).astype({"vec_id": "int64"})


def _ensure_index(tag: str, sf_dir: str, build) -> str:
    """Build-once cache for bucket indexes, keyed on the embeddings
    table's fingerprint: the index IS the operator at scale, so queries
    must reuse it, not rebuild per call (``cache.build_once``)."""
    return cache.build_once(cache.INDEX_ROOT, f"{tag}-{{fp}}", build,
                            source=(sf_dir, "embeddings"))


def _bucket_row_count(index_dir: str, prefix: str, code: int) -> int:
    """Rows in one hive bucket partition from parquet FOOTERS only (no
    data read) — lets the widen rule pick its probe level before the
    single data-reading query."""
    import os

    import pyarrow.parquet as pq

    d = os.path.join(index_dir, f"{prefix}={code}")
    if not os.path.isdir(d):
        return 0
    return sum(
        pq.ParquetFile(os.path.join(d, f)).metadata.num_rows
        for f in os.listdir(d)
        if f.endswith(".parquet")
    )


def _lsh_widen_level(index_dir: str, q: np.ndarray, k: int,
                     n_planes: int, p0: int, seed: int) -> int:
    """The auto-widen rule shared by the pruned query and the appended
    index: smallest probe level in [p0, n_planes] whose ring holds
    >= k candidates, from parquet FOOTER counts only (candidates
    exclude the query row — it sits in its own bucket)."""
    planes = _lsh_planes(q.shape[0], n_planes, seed)
    for p in range(p0, n_planes + 1):
        codes = _probe_codes(q, planes, p)
        n_cand = sum(
            _bucket_row_count(index_dir, "code", c) for c in codes
        ) - 1
        if n_cand >= k:
            return p
    return n_planes


def ann_topk_lsh_pruned(
    sf_dir: str,
    k: int = 10,
    query_vec_id: int = 0,
    n_planes: int = 8,
    probes: int = 3,
    seed: int = 11,
    auto_widen: bool = True,
) -> pd.DataFrame:
    """The read-pruned LSH path as a self-contained query: build (or
    reuse) the ``code=N``-partitioned bucket index once per corpus
    fingerprint, then answer from only the probe-ring partitions.  Same
    results as the scan variant (identical planes/codes); only the I/O
    shape differs — at 100 TB this touches probes+1 buckets, not the
    corpus.  The auto-widen level is chosen UP FRONT from the buckets'
    parquet-footer row counts (cheap metadata reads), so exactly one
    data-reading query runs regardless of how far the ring widens."""
    q = _query_vector(sf_dir, query_vec_id)
    index_dir = _ensure_index(
        f"lsh-p{n_planes}-s{seed}", sf_dir,
        lambda d: build_lsh_index(sf_dir, d, n_planes, seed),
    )
    p0 = min(probes, n_planes)
    p_star = n_planes
    if auto_widen:
        p_star = _lsh_widen_level(index_dir, q, k, n_planes, p0, seed)
    else:
        p_star = p0
    return ann_topk_lsh_indexed(
        index_dir, q, k, query_vec_id, n_planes, p_star, seed
    )


def ann_topk_ivf_pruned(
    sf_dir: str,
    k: int = 10,
    query_vec_id: int = 0,
    n_cells: int = 16,
    n_probe: int = 4,
    seed: int = 23,
    kmeans_iters: int = 10,
) -> pd.DataFrame:
    """The read-pruned IVF path as a self-contained query: build (or
    reuse) the ``cell=N``-partitioned index + centroids once per corpus
    fingerprint, answer from only the n_probe nearest cell partitions,
    widening the probe set when under-full."""
    import os

    q = _query_vector(sf_dir, query_vec_id)
    index_dir = _ensure_index(
        f"ivf-c{n_cells}-s{seed}-i{kmeans_iters}", sf_dir,
        lambda d: build_ivf_index(sf_dir, d, n_cells, seed, kmeans_iters),
    )
    # widen level from cell footer row counts (cf. ann_topk_lsh_pruned)
    cents = np.load(os.path.join(index_dir, "centroids.npy"))
    order = np.argsort(((cents - q) ** 2).sum(1)).tolist()
    p_star = n_cells
    n_cand = 0
    for rank, cell in enumerate(order, start=1):
        n_cand += _bucket_row_count(index_dir, "cell", int(cell))
        if rank >= min(n_probe, n_cells) and n_cand - 1 >= k:
            p_star = rank
            break
    return ann_topk_ivf_indexed(index_dir, q, k, query_vec_id, p_star)


def _dup_pair_refs(
    sf_dir: str, threshold: float = 0.4, block_size: int = 2048
) -> list:
    """Embedding-cosine near-duplicate pairs, EXACT (SQL-oracle-checkable).

    Distributed blocked matmul: the corpus is normalized into B blocks
    held in the object store (block refs, never on the driver); one Ray
    task per block pair (i ≤ j) multiplies the two blocks and emits only
    the qualifying pairs.  Driver memory = O(result), compute = O(N²/B)
    spread over the cluster — the exact-answer scale shape.  (The
    approximate path for corpora where O(N²) is off the table is LSH
    bucketing via ``build_lsh_index``.)

    Returns the UNFETCHED per-block-pair object refs, so callers choose
    whether the edges ever touch the driver (the pair query collects;
    the cluster pass feeds them straight into distributed connected
    components)."""
    import pyarrow as pa

    ds = _emb(sf_dir)

    def normalize(batch: "pa.Table") -> "pa.Table":
        df = batch.to_pandas()
        m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        n = np.linalg.norm(m, axis=1, keepdims=True)
        n[n == 0] = 1.0
        return pa.table(
            {"vec_id": pa.array(df["vec_id"], type=pa.int64()),
             "normed": pa.array(list(m / n))}
        )

    blocks = ds.map_batches(
        normalize, batch_format="pyarrow", batch_size=block_size
    ).to_arrow_refs()

    @ray.remote
    def block_pair(ta: "pa.Table", tb: "pa.Table", same: bool) -> pd.DataFrame:
        ids_a = ta.column("vec_id").to_numpy()
        ids_b = tb.column("vec_id").to_numpy()
        ma = np.stack(ta.column("normed").to_pylist())
        mb = np.stack(tb.column("normed").to_pylist())
        sims = ma @ mb.T
        if same:
            mask = np.triu(sims >= threshold, k=1)
        else:
            mask = sims >= threshold
        ia, ib = np.nonzero(mask)
        a, b = ids_a[ia], ids_b[ib]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return pd.DataFrame(
            {"vec_a": lo.astype("int64"), "vec_b": hi.astype("int64"),
             "sim": np.round(sims[ia, ib], 4)}
        )

    return [
        block_pair.remote(blocks[i], blocks[j], i == j)
        for i in range(len(blocks))
        for j in range(i, len(blocks))
    ]


def embedding_dup_pairs(
    sf_dir: str, threshold: float = 0.4, block_size: int = 2048
) -> pd.DataFrame:
    """The oracle-facing edge list: ``_dup_pair_refs`` collected and
    row-sorted (the collect is THIS wrapper's job alone — result-
    cardinality on the driver)."""
    parts = [p for p in ray.get(_dup_pair_refs(sf_dir, threshold,
                                               block_size)) if len(p)]
    if not parts:
        return pd.DataFrame(columns=["vec_a", "vec_b", "sim"]).astype(
            {"vec_a": "int64", "vec_b": "int64", "sim": "float64"}
        )
    out = pd.concat(parts, ignore_index=True)
    return (
        out.sort_values(["vec_a", "vec_b"]).reset_index(drop=True)
    )


def embedding_dup_clusters(
    sf_dir: str, threshold: float = 0.4, block_size: int = 2048
) -> pd.DataFrame:
    """Embedding-cosine near-duplicate CLUSTERS: the exact pair refs
    (``_dup_pair_refs`` — distributed blocked matmul) feed DISTRIBUTED
    min-label connected components (``stages.cc``) without the edge
    list ever touching the driver (the r3 verdict's driver union-find
    replaced).  The returned frame is clustered-docs-bounded."""
    import ray.data as rd

    from tensorflow_ocr_ray.stages.cc import connected_components

    edges = rd.from_pandas_refs(_dup_pair_refs(sf_dir, threshold,
                                               block_size))
    labels = connected_components(edges, src="vec_a", dst="vec_b")
    df = labels.to_pandas()
    if df.empty:
        return pd.DataFrame(columns=["vec_id", "cluster_rep"]).astype(
            "int64"
        )
    df = df.rename(columns={"node": "vec_id", "label": "cluster_rep"})
    return (
        df.sort_values("vec_id").reset_index(drop=True).astype("int64")
    )


def label_centroids(sf_dir: str) -> pd.DataFrame:
    """Per-label count + mean of the first embedding dim (SQL-checkable)."""
    from ray.data.aggregate import Count, Mean

    def first_dim(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "label": df["label"],
                "dim0": [float(e[0]) for e in df["embedding"]],
            }
        )

    import pyarrow.parquet as pq

    # keep the source column's physical dtype (int32 in the testdata)
    # through the groupby round-trip — pandas silently widens to int64
    src_label_dtype = (
        pq.read_schema(f"{sf_dir}/embeddings.parquet")
        .field("label").type.to_pandas_dtype()
    )
    df = (
        _emb(sf_dir)
        .map_batches(first_dim, batch_format="pandas")
        .groupby("label")
        .aggregate(Count(alias_name="n"), Mean("dim0", alias_name="m"))
        .to_pandas()
    )
    return pd.DataFrame(
        {
            "label": df["label"].astype(src_label_dtype),
            "n": df["n"].astype("int64"),
            "mean_dim0": df["m"].round(4),
        }
    )


def _ivf_centroids(
    sf_dir: str, n_cells: int, seed: int, kmeans_iters: int
) -> np.ndarray:
    """Deterministic Lloyd k-means on a driver-side sample (coarse
    quantizer training is sample-based by design — 4k vectors train 16
    cells regardless of corpus size)."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    sample = np.stack(
        [np.asarray(e, dtype=np.float64) for e in
         t.column("embedding").to_pylist()[: 4096]]
    )
    rng = np.random.Generator(np.random.PCG64(seed))
    cents = sample[rng.choice(len(sample), size=n_cells, replace=False)]
    for _ in range(kmeans_iters):
        d = ((sample[:, None, :] - cents[None, :, :]) ** 2).sum(-1)
        assign = d.argmin(1)
        for c in range(n_cells):
            members = sample[assign == c]
            if len(members):
                cents[c] = members.mean(0)
    return cents


def build_ivf_index(
    sf_dir: str,
    index_dir: str,
    n_cells: int = 16,
    seed: int = 23,
    kmeans_iters: int = 10,
) -> int:
    """Write the embeddings re-partitioned by IVF cell (hive ``cell=N``
    dirs) plus the trained centroids (``centroids.npy``) — probed
    queries then READ only their n_probe cell partitions."""
    import os

    cents = _ivf_centroids(sf_dir, n_cells, seed, kmeans_iters)
    cents_ref = ray.put(cents)

    def assign_batch(df: pd.DataFrame) -> pd.DataFrame:
        c = ray.get(cents_ref)
        m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        d = ((m[:, None, :] - c[None, :, :]) ** 2).sum(-1)
        out = df.copy()
        out["cell"] = d.argmin(1).astype(np.int64)
        return out

    ds = _emb(sf_dir).map_batches(assign_batch, batch_format="pandas")
    ds.write_parquet(index_dir, partition_cols=["cell"])
    np.save(os.path.join(index_dir, "centroids.npy"), cents)
    return sum(1 for d in os.listdir(index_dir) if d.startswith("cell="))


def ann_topk_ivf_indexed(
    index_dir: str,
    query: np.ndarray,
    k: int = 10,
    query_vec_id: int | None = None,
    n_probe: int = 4,
) -> pd.DataFrame:
    """ANN over a ``build_ivf_index`` table: only the query's n_probe
    nearest cell partitions are read; brute-force cosine inside them."""
    import os

    q = np.asarray(query, dtype=np.float64)
    cents = np.load(os.path.join(index_dir, "centroids.npy"))
    probe = np.argsort(((cents - q) ** 2).sum(1))[:n_probe].tolist()
    paths = [
        os.path.join(cell_dir, f)
        for c in sorted(probe)
        if os.path.isdir(cell_dir := os.path.join(index_dir, f"cell={c}"))
        for f in sorted(os.listdir(cell_dir))
        if f.endswith(".parquet")
    ]
    if not paths:
        return pd.DataFrame({"vec_id": [], "sim": []}).astype(
            {"vec_id": "int64", "sim": "float64"}
        )
    qn = q / np.linalg.norm(q)
    q_ref = ray.put(qn)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        qv = _bcast_get(q_ref)
        m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        norms = np.linalg.norm(m, axis=1)
        norms[norms == 0] = 1.0
        sims = (m @ qv) / norms
        out = pd.DataFrame(
            {"vec_id": df["vec_id"].values, "sim": np.round(sims, 4)}
        )
        if query_vec_id is not None:
            out = out[out["vec_id"] != query_vec_id]
        # per-block top-k partial -> O(blocks * k) driver merge
        return out.sort_values(
            ["sim", "vec_id"], ascending=[False, True]
        ).head(k)

    scored = rd.read_parquet(paths).map_batches(
        score, batch_format="pandas", batch_size=4096
    ).to_pandas()
    out = scored.sort_values(["sim", "vec_id"], ascending=[False, True]).head(k)
    return out.reset_index(drop=True).astype({"vec_id": "int64"})


def ann_topk_ivf(
    sf_dir: str,
    k: int = 10,
    query_vec_id: int = 0,
    n_cells: int = 16,
    n_probe: int = 4,
    seed: int = 23,
    kmeans_iters: int = 10,
) -> pd.DataFrame:
    """IVF ANN, scan-and-filter variant: centroids broadcast; each batch
    assigns its vectors and scores only those in the query's n_probe
    nearest cells.  ``build_ivf_index`` + ``ann_topk_ivf_indexed`` is the
    scale path that prunes unprobed cells at the READ."""
    cents = _ivf_centroids(sf_dir, n_cells, seed, kmeans_iters)
    q = _query_vector(sf_dir, query_vec_id)
    qn = q / np.linalg.norm(q)
    probe_cells = set(
        np.argsort(((cents - q) ** 2).sum(1))[:n_probe].tolist()
    )
    cents_ref = ray.put(cents)
    q_ref = ray.put(qn)
    cells_ref = ray.put(probe_cells)

    def cell_score(df: pd.DataFrame) -> pd.DataFrame:
        cents_v = _bcast_get(cents_ref)
        qv = _bcast_get(q_ref)
        cells_v = _bcast_get(cells_ref)
        m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        d = ((m[:, None, :] - cents_v[None, :, :]) ** 2).sum(-1)
        keep = np.isin(d.argmin(1), list(cells_v))
        keep &= df["vec_id"].to_numpy() != query_vec_id
        if not keep.any():
            return pd.DataFrame({"vec_id": [], "sim": []})
        m = m[keep]
        norms = np.linalg.norm(m, axis=1)
        norms[norms == 0] = 1.0
        sims = (m @ qv) / norms
        out = pd.DataFrame(
            {"vec_id": df["vec_id"].to_numpy()[keep],
             "sim": np.round(sims, 4)}
        )
        # per-block top-k partial -> O(blocks * k) driver merge
        return out.sort_values(
            ["sim", "vec_id"], ascending=[False, True]
        ).head(k)

    scored = _emb(sf_dir).map_batches(
        cell_score, batch_format="pandas", batch_size=4096
    ).to_pandas()
    out = scored.sort_values(["sim", "vec_id"], ascending=[False, True]).head(k)
    return out.reset_index(drop=True).astype({"vec_id": "int64"})


# ---------------- kNN label prediction (distributed kNN join) --------------

KNN_K = 5


def knn_label_predict(
    sf_dir: str, k: int = KNN_K, block_size: int = 2048, n_shards: int = 64
) -> "rd.Dataset":
    """Exact k-nearest-neighbour label prediction for EVERY vector: the
    majority label among its top-k cosine neighbours (rounded-sim desc,
    vec_id asc rank; vote ties break to the smallest label) — the
    all-pairs generalization of ``ann_topk_brute`` (cf. reference kNN
    classify, kd.c semantics, applied corpus-wide).

    Physical plan — a blocked kNN join, never a driver-side O(N²):
    normalized blocks live in the object store; one Ray task per
    ORDERED block pair emits each query row's local top-k against that
    target block (k rows per query per block — the global top-k is
    provably a subset of the union of per-block top-ks).  The partial
    frames become a Dataset via ``from_pandas_refs`` (refs, never
    collected), shuffle once on query-hash shards, and the merge + vote
    is vectorized inside each shard.  Driver holds only block refs and
    the final one-row-per-vector verdicts."""
    import pyarrow as pa

    ds = _emb(sf_dir)

    def normalize(batch: "pa.Table") -> "pa.Table":
        df = batch.to_pandas()
        m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        n = np.linalg.norm(m, axis=1, keepdims=True)
        n[n == 0] = 1.0
        return pa.table(
            {
                "vec_id": pa.array(df["vec_id"], type=pa.int64()),
                "label": pa.array(
                    df["label"].astype("int64"), type=pa.int64()
                ),
                "normed": pa.array(list(m / n)),
            }
        )

    blocks = ds.map_batches(
        normalize, batch_format="pyarrow", batch_size=block_size
    ).to_arrow_refs()

    @ray.remote
    def block_topk(tq: "pa.Table", tt: "pa.Table", same: bool) -> pd.DataFrame:
        q_ids = tq.column("vec_id").to_numpy()
        q_lab = tq.column("label").to_numpy()
        t_ids = tt.column("vec_id").to_numpy()
        t_lab = tt.column("label").to_numpy()
        mq = np.stack(tq.column("normed").to_pylist())
        mt = np.stack(tt.column("normed").to_pylist())
        sims = np.round(mq @ mt.T, 4)
        if same:
            np.fill_diagonal(sims, -np.inf)
        kk = min(k, sims.shape[1])
        # per-row top-k under (sim desc, nbr_id asc): lexsort keys are
        # least-significant first, so (ids, -sims) ranks by -sim then id
        order = np.lexsort(
            (np.broadcast_to(t_ids, sims.shape), -sims), axis=1
        )[:, :kk]
        rows = np.repeat(np.arange(len(q_ids)), kk)
        cols = order.ravel()
        sel = sims[rows, cols]
        keep = np.isfinite(sel)
        return pd.DataFrame(
            {
                "query_id": q_ids[rows[keep]],
                "query_label": q_lab[rows[keep]],
                "nbr_id": t_ids[cols[keep]],
                "nbr_label": t_lab[cols[keep]],
                "sim": sel[keep],
                "qshard": q_ids[rows[keep]] % n_shards,
            }
        ).astype(
            {"query_id": "int64", "query_label": "int64",
             "nbr_id": "int64", "nbr_label": "int64", "qshard": "int64"}
        )

    futs = [
        block_topk.remote(blocks[i], blocks[j], i == j)
        for i in range(len(blocks))
        for j in range(len(blocks))
    ]
    partials = rd.from_pandas_refs(futs)

    def merge_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["query_id", "sim", "nbr_id"], ascending=[True, False, True]
        )
        g = g[g.groupby("query_id").cumcount() < k]
        votes = (
            g.groupby(["query_id", "query_label", "nbr_label"],
                      as_index=False)
            .size()
            .rename(columns={"size": "votes"})
            .sort_values(
                ["query_id", "votes", "nbr_label"],
                ascending=[True, False, True],
            )
        )
        pred = votes[votes.groupby("query_id").cumcount() == 0]
        return pd.DataFrame(
            {
                "vec_id": pred["query_id"].astype("int64"),
                "pred_label": pred["nbr_label"].astype("int64"),
                "votes": pred["votes"].astype("int64"),
                "true_label": pred["query_label"].astype("int64"),
                "correct": (
                    pred["nbr_label"] == pred["query_label"]
                ).astype("int64"),
            }
        )

    return partials.groupby("qshard").map_groups(
        merge_shard, batch_format="pandas"
    )


def embedding_quantize(sf_dir: str) -> "rd.Dataset":
    """Scalar int8 quantization of the embedding table — the storage/
    bandwidth scale path for ANN (8x smaller vectors before index build).

    Two streaming passes: (1) per-dim global max-|x| — per-batch partial
    frames of |dims| rows reduced by one bounded groupby-Max, the
    |dims|-float scale vector broadcast via ray.put; (2) pure map:
    code = floor(x*127/scale + 0.5) (half-up in BOTH engines — numpy's
    round() is half-even and would diverge from SQL), emitted as exact
    integer checksums (code_sum, code_l1) per vector so the oracle hash
    compares ints.  All math in float64 (the SQL side casts DOUBLE[])."""
    from ray.data.aggregate import Max

    def dim_partials(batch: dict) -> pd.DataFrame:
        arr = np.asarray(
            [np.asarray(v, dtype=np.float64) for v in batch["embedding"]]
        )
        return pd.DataFrame(
            {
                "dim": np.arange(1, arr.shape[1] + 1, dtype=np.int64),
                "p_max": np.abs(arr).max(axis=0),
            }
        )

    scales = (
        _emb(sf_dir)
        .map_batches(dim_partials, batch_format="numpy", batch_size=4096)
        .groupby("dim")
        .aggregate(Max("p_max", alias_name="s"))
        .to_pandas()
        .sort_values("dim")
    )
    s = scales["s"].to_numpy()
    s_ref = ray.put(s)

    def quantize(batch: dict) -> pd.DataFrame:
        sc = ray.get(s_ref)
        arr = np.asarray(
            [np.asarray(v, dtype=np.float64) for v in batch["embedding"]]
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            codes = np.floor(arr * 127.0 / sc + 0.5)
        codes = np.where(sc == 0, 0.0, codes).astype(np.int64)
        return pd.DataFrame(
            {
                "vec_id": np.asarray(batch["vec_id"], dtype=np.int64),
                "code_sum": codes.sum(axis=1),
                "code_l1": np.abs(codes).sum(axis=1),
            }
        )

    return _emb(sf_dir).map_batches(
        quantize, batch_format="numpy", batch_size=4096
    )


def embedding_covariance(sf_dir: str, n_shards: int = 16) -> "rd.Dataset":
    """Exact int64 Gram/covariance statistics over the quantized
    embedding table — the sufficient-statistics step of a PCA /
    whitening pipeline, kept EXACT by running on ``embedding_quantize``
    's int8 codes (same half-up rule, same per-dim max-|x| scales), so
    the dim x dim second-moment matrix is a sum of small integers and
    the oracle hash-compares.

    Physical plan: pass 1 = the quantize scale reduction (|dims| rows
    per batch, one bounded groupby-Max, scales broadcast); pass 2 =
    per-batch ``Q.T @ Q`` int64 matmul — each block contributes ONE
    dim(dim+1)/2-row upper-triangle partial regardless of row count —
    then one tiny exchange keyed by flattened pair index sums partials.
    Nothing anywhere is proportional to corpus size except the
    streaming read; the driver holds only the |dims| scale vector."""
    from ray.data.aggregate import Max

    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    def dim_partials(batch: dict) -> pd.DataFrame:
        arr = np.asarray(
            [np.asarray(v, dtype=np.float64) for v in batch["embedding"]]
        )
        return pd.DataFrame(
            {
                "dim": np.arange(1, arr.shape[1] + 1, dtype=np.int64),
                "p_max": np.abs(arr).max(axis=0),
            }
        )

    scales = (
        _emb(sf_dir)
        .map_batches(dim_partials, batch_format="numpy", batch_size=4096)
        .groupby("dim")
        .aggregate(Max("p_max", alias_name="s"))
        .to_pandas()
        .sort_values("dim")
    )
    s_ref = ray.put(scales["s"].to_numpy())

    def gram_partial(batch: dict) -> pd.DataFrame:
        sc = ray.get(s_ref)
        arr = np.asarray(
            [np.asarray(v, dtype=np.float64) for v in batch["embedding"]]
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            codes = np.floor(arr * 127.0 / sc + 0.5)
        codes = np.where(sc == 0, 0.0, codes).astype(np.int64)
        g = codes.T @ codes  # (dim, dim) int64
        d = g.shape[0]
        iu, ju = np.triu_indices(d)
        di = (iu + 1).astype(np.int64)
        dj = (ju + 1).astype(np.int64)
        return pd.DataFrame(
            {
                "di": di,
                "dj": dj,
                "s": g[iu, ju],
                "n": np.full(len(iu), len(codes), dtype=np.int64),
                "shard": (di * d + dj) % n_shards,
            }
        )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["di", "dj"], as_index=False).agg(
            s=("s", "sum"), n=("n", "sum")
        )
        return g.astype(
            {"di": "int64", "dj": "int64", "s": "int64", "n": "int64"}
        )

    return hash_exchange(
        _emb(sf_dir).map_batches(
            gram_partial, batch_format="numpy", batch_size=4096
        ),
        "shard", n_shards, combine,
    )


def ann_range_search(sf_dir: str, threshold: float = 0.2,
                     query_vec_id: int = 0) -> "rd.Dataset":
    """Cosine RANGE search: every vector within ``threshold`` similarity
    of the query — the radius companion to ann_topk_brute.  The
    normalized query is broadcast once (ray.put); each batch does one
    matmul and emits only its survivors, so the result set (not the
    corpus) bounds what leaves the stage.  Lazy Dataset out — composes
    as a filter into downstream pipelines."""
    q = _query_vector(sf_dir, query_vec_id)
    qn = q / np.linalg.norm(q)
    q_ref = ray.put(qn)
    tau = threshold

    def range_score(df: pd.DataFrame) -> pd.DataFrame:
        qv = _bcast_get(q_ref)
        m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        norms = np.linalg.norm(m, axis=1)
        norms[norms == 0] = 1.0
        sims = (m @ qv) / norms
        keep = (sims >= tau) & (
            df["vec_id"].to_numpy() != query_vec_id
        )
        return pd.DataFrame(
            {
                "vec_id": df["vec_id"].to_numpy()[keep],
                "sim": np.round(sims[keep], 4),
            }
        )

    return _emb(sf_dir).map_batches(
        range_score, batch_format="pandas", batch_size=4096
    )


def _kmeans_codes(batch: dict, sc: np.ndarray) -> tuple[np.ndarray,
                                                        np.ndarray]:
    """int8-quantization codes for a batch (embedding_quantize's rule)."""
    arr = np.asarray(
        [np.asarray(v, dtype=np.float64) for v in batch["embedding"]]
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.floor(arr * 127.0 / sc + 0.5)
    c = np.where(sc == 0, 0.0, c).astype(np.int64)
    return np.asarray(batch["vec_id"], dtype=np.int64), c


def _kmeans_assign_codes(codes: np.ndarray,
                         cents: np.ndarray) -> tuple[np.ndarray,
                                                     np.ndarray]:
    # int64 squared euclidean; argmin picks the smallest cluster id on
    # ties, matching the oracle's ORDER BY d, cluster
    d = (
        (codes * codes).sum(axis=1, keepdims=True)
        - 2 * codes @ cents.T
        + (cents * cents).sum(axis=1)
    )
    a = d.argmin(axis=1)
    return a, d[np.arange(len(a)), a]


def _kmeans_state(sf_dir: str, k: int = 8,
                  iters: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """(per-dim scales, final integer centroids) — memoized per
    (sf_dir, k, iters) and embeddings fingerprint so kmeans_quantized /
    cluster_representatives / cluster_token_profile pay the iteration
    passes once per driver pass.  State is k x dim + dim — trivially
    broadcastable at any corpus size."""
    return cache.memo(
        "kmeans", (os.path.abspath(sf_dir), k, iters),
        cache.table_fingerprint(sf_dir, "embeddings"),
        lambda: _kmeans_fit(sf_dir, k, iters))


def _kmeans_fit(sf_dir: str, k: int,
                iters: int) -> tuple[np.ndarray, np.ndarray]:
    from ray.data.aggregate import Max

    def dim_partials(batch: dict) -> pd.DataFrame:
        arr = np.asarray(
            [np.asarray(v, dtype=np.float64) for v in batch["embedding"]]
        )
        return pd.DataFrame(
            {
                "dim": np.arange(1, arr.shape[1] + 1, dtype=np.int64),
                "p_max": np.abs(arr).max(axis=0),
            }
        )

    scales = (
        _emb(sf_dir)
        .map_batches(dim_partials, batch_format="numpy", batch_size=4096)
        .groupby("dim")
        .aggregate(Max("p_max", alias_name="s"))
        .to_pandas()
        .sort_values("dim")
    )
    s = scales["s"].to_numpy()
    s_ref = ray.put(s)

    # initial centroids: codes of vec_id 0..k-1 (k rows, driver-side)
    import pyarrow.parquet as pq_
    import pyarrow.compute as pc_

    t0 = pq_.read_table(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"])
    t0 = t0.filter(pc_.less(t0.column("vec_id"), k))
    init_ids, init_codes = _kmeans_codes(
        {"vec_id": t0.column("vec_id").to_numpy(),
         "embedding": t0.column("embedding").to_pylist()}, s
    )
    cents = init_codes[np.argsort(init_ids)]

    base = _emb(sf_dir).materialize()
    from ray.data.aggregate import Sum as _Sum

    for _ in range(iters):
        c_ref = ray.put(cents)

        def partials(batch: dict) -> pd.DataFrame:
            cc = ray.get(c_ref)
            _ids, codes = _kmeans_codes(batch, ray.get(s_ref))
            a, _d = _kmeans_assign_codes(codes, cc)
            rows = []
            for j in np.unique(a):
                m = a == j
                rows.append(
                    {"cluster": int(j), "n": int(m.sum()),
                     **{f"s{i}": v for i, v in
                        enumerate(codes[m].sum(axis=0))}}
                )
            return pd.DataFrame(rows)

        agg_cols = ["n"] + [f"s{i}" for i in range(cents.shape[1])]
        g = (
            base.map_batches(partials, batch_format="numpy",
                             batch_size=4096)
            .groupby("cluster")
            .aggregate(*[_Sum(c, alias_name=c) for c in agg_cols])
            .to_pandas()
            .set_index("cluster")
        )
        new = cents.copy()
        for j in g.index:
            n = int(g.loc[j, "n"])
            if n > 0:
                sums = g.loc[j, [f"s{i}" for i in
                                 range(cents.shape[1])]].to_numpy(
                    dtype=np.float64)
                # the exact floor(sum/n + 0.5) double expression the
                # oracle CASTs -- iteration t+1 starts bit-identical
                new[int(j)] = np.floor(sums / n + 0.5).astype(np.int64)
        cents = new

    return s, cents


def kmeans_quantized(sf_dir: str, k: int = 8,
                     iters: int = 2) -> "rd.Dataset":
    """Distributed k-means over int8-quantized embeddings — the
    iterative-algorithm shape (Lloyd's), kept EXACT so a hash-hard
    unrolled SQL oracle can check every assignment:

    - vectors are the embedding_quantize integer codes (per-dim global
      scales, half-up rounding) -> all distances are int64 squared
      euclidean, no float drift anywhere;
    - init: the codes of vec_id 0..k-1; ties in argmin break to the
      smallest cluster id (numpy argmin == SQL row_number order);
    - each iteration is ONE streaming assignment pass (centroids
      broadcast via ray.put, per-batch integer matmul) emitting k x dim
      bounded partial sums, combined by one tiny groupby — the driver
      only ever holds k x dim ints; empty clusters keep their previous
      centroid (the oracle's LEFT JOIN CASE).

    Per 100 TB: iters+1 streaming passes over the corpus, k x dim state
    broadcast per pass, nothing else materializes."""
    s, cents = _kmeans_state(sf_dir, k, iters)
    s_ref = ray.put(s)
    c_ref = ray.put(cents)

    def final(batch: dict) -> pd.DataFrame:
        ids, codes = _kmeans_codes(batch, ray.get(s_ref))
        a, d = _kmeans_assign_codes(codes, ray.get(c_ref))
        return pd.DataFrame(
            {"vec_id": ids, "cluster": a.astype(np.int64),
             "dist": d.astype(np.int64)}
        )

    return _emb(sf_dir).map_batches(final, batch_format="numpy",
                                    batch_size=4096)


def cluster_representatives(sf_dir: str, k: int = 8, iters: int = 2,
                            top: int = 3) -> pd.DataFrame:
    """Per-cluster representative selection (coreset shape): the ``top``
    members nearest each final k-means centroid, ties to smaller
    vec_id.  Per-batch local top-``top`` per cluster bounds the merge at
    k x top x num_batches rows — the global heads are a provable subset
    of the union of local heads (same argument as vocab_topk)."""
    s, cents = _kmeans_state(sf_dir, k, iters)
    s_ref = ray.put(s)
    c_ref = ray.put(cents)

    def local_heads(batch: dict) -> pd.DataFrame:
        ids, codes = _kmeans_codes(batch, ray.get(s_ref))
        a, d = _kmeans_assign_codes(codes, ray.get(c_ref))
        df = pd.DataFrame(
            {"vec_id": ids, "cluster": a.astype(np.int64),
             "dist": d.astype(np.int64)}
        ).sort_values(["cluster", "dist", "vec_id"])
        return df.groupby("cluster", as_index=False).head(top)

    heads = (
        _emb(sf_dir)
        .map_batches(local_heads, batch_format="numpy", batch_size=4096)
        .to_pandas()
        .sort_values(["cluster", "dist", "vec_id"])
    )
    out = heads.groupby("cluster", as_index=False).head(top)
    out["rank"] = out.groupby("cluster").cumcount() + 1
    return out.reset_index(drop=True).astype(
        {"cluster": "int64", "dist": "int64", "rank": "int64"}
    )


def cluster_token_profile(sf_dir: str, k: int = 8,
                          iters: int = 2,
                          n_shards: int = 64) -> pd.DataFrame:
    """Cross-table composite: per k-means cluster, how many documents
    and how many corpus tokens land in it (vec_id == doc_id by corpus
    construction) — the embedding-cluster x text-stats join a curation
    pipeline uses to profile clusters before sampling.

    Neither side is broadcast (both are corpus-sized): tagged skinny
    partials from BOTH tables meet in one id-hash shuffle
    (user_order_event_ratio's join-free FULL-OUTER pattern), merge
    in-shard, and only k rows of (cluster, n_docs, sum_tokens) leave
    each shard for the bounded final combine."""
    from ..functions.textstats import token_count  # corpus convention
    from ray.data.aggregate import Sum as _Sum

    s, cents = _kmeans_state(sf_dir, k, iters)
    s_ref = ray.put(s)
    c_ref = ray.put(cents)

    def e_rows(batch: dict) -> pd.DataFrame:
        ids, codes = _kmeans_codes(batch, ray.get(s_ref))
        a, _d = _kmeans_assign_codes(codes, ray.get(c_ref))
        return pd.DataFrame(
            {"id": ids, "cluster": a.astype(np.int64),
             "tokens": np.int64(0), "tag": np.int64(0),
             "shard": ids % n_shards}
        )

    def d_rows(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy().astype(np.int64)
        toks = np.asarray([token_count(x) for x in df["text"]],
                          dtype=np.int64)
        return pd.DataFrame(
            {"id": ids, "cluster": np.int64(-1), "tokens": toks,
             "tag": np.int64(1), "shard": ids % n_shards}
        )

    emb_side = _emb(sf_dir).map_batches(
        e_rows, batch_format="numpy", batch_size=4096
    )
    doc_side = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(d_rows, batch_format="pandas", batch_size=4096)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        e = df[df["tag"] == 0][["id", "cluster"]]
        d = df[df["tag"] == 1][["id", "tokens"]]
        j = e.merge(d, on="id", how="inner")
        g = j.groupby("cluster", as_index=False).agg(
            p_docs=("id", "size"), p_tokens=("tokens", "sum")
        )
        return g.astype({"cluster": "int64", "p_docs": "int64",
                         "p_tokens": "int64"})

    out = (
        emb_side.union(doc_side)
        .groupby("shard")
        .map_groups(merge, batch_format="pandas")
        .groupby("cluster")
        .aggregate(_Sum("p_docs", alias_name="n_docs"),
                   _Sum("p_tokens", alias_name="sum_tokens"))
        .to_pandas()
        .astype({"cluster": "int64", "n_docs": "int64",
                 "sum_tokens": "int64"})
    )
    return out.sort_values("cluster").reset_index(drop=True)


def semdedup_prune(sf_dir: str, k: int = 8, iters: int = 2,
                   dist_le: int = 140_000) -> "rd.Dataset":
    """SemDeDup-style semantic pruning (Abbas et al. 2023, arXiv
    2303.09540): k-means-cluster the embedding space, then drop any
    vector with a near-identical LOWER-ID neighbor in its own cluster —
    the curation step that removes semantic (not textual) duplicates
    before training.

    Exactness contract (same as kmeans_quantized, so the composed
    unrolled SQL oracle hash-matches): clusters come from the integer
    Lloyd's state; "near" is int64 squared euclidean over the
    embedding_quantize codes ``<= dist_le``; the keep rule is LOCAL and
    deterministic — vec x is pruned iff ∃ y in x's cluster with
    ``y.vec_id < x.vec_id`` and ``d(x,y) <= dist_le`` (keep-first, the
    paper's one-representative-per-near-group policy with id priority
    instead of its centroid-distance heuristic, which float-ties).

    Scale plan: the pairwise step runs INSIDE one cluster only — one
    cluster-hash exchange routes (vec_id, packed int8 codes), each
    shard does a blocked integer gram matrix.  SemDeDup's own recipe
    makes this safe at 100 TB: k scales with the corpus (the paper uses
    k=50k for LAION) so a cluster stays task-sized; skewed clusters
    are the key_skew_audit trigger, split by recursing k-means inside
    the fat cluster.  Returns the lazy (vec_id, cluster, keep) set —
    corpus-cardinality, stream it to a sink."""
    from tensorflow_ocr_ray.stages.exchange import hash_exchange

    s, cents = _kmeans_state(sf_dir, k, iters)
    s_ref = ray.put(s)
    c_ref = ray.put(cents)
    dim = cents.shape[1]

    def assign(batch: dict) -> pd.DataFrame:
        ids, codes = _kmeans_codes(batch, ray.get(s_ref))
        a, _d = _kmeans_assign_codes(codes, ray.get(c_ref))
        # int8 pack: quantize codes are in [-127, 127] by construction
        packed = [c.astype(np.int8).tobytes() for c in codes]
        return pd.DataFrame(
            {"vec_id": ids, "shard": a.astype(np.int64),
             "codes": packed})

    def prune(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"vec_id": "int64", "cluster": "int64", "keep": "int64"}
        if not len(df):
            return pd.DataFrame(
                {c: pd.Series([], dtype=t) for c, t in cols.items()})
        df = df.sort_values("vec_id")
        ids = df["vec_id"].to_numpy(np.int64)
        m = np.frombuffer(
            b"".join(df["codes"]), dtype=np.int8
        ).reshape(len(ids), dim).astype(np.int64)
        sq = (m * m).sum(axis=1)
        # blocked gram: rows vs the full cluster, O(block x n) memory
        keep = np.ones(len(ids), dtype=bool)
        B = 2048
        for lo in range(0, len(ids), B):
            hi = min(lo + B, len(ids))
            d = (sq[lo:hi, None] - 2 * m[lo:hi] @ m.T + sq[None, :])
            near = d <= dist_le
            # only LOWER-id (strictly earlier row) neighbors prune
            col = np.arange(len(ids))[None, :]
            row = np.arange(lo, hi)[:, None]
            keep[lo:hi] = ~(near & (col < row)).any(axis=1)
        return pd.DataFrame(
            {"vec_id": ids, "cluster": df["shard"].to_numpy(np.int64),
             "keep": keep.astype(np.int64)})

    routed = _emb(sf_dir).map_batches(
        assign, batch_format="numpy", batch_size=4096)
    return hash_exchange(routed, "shard", k, prune)


def _pq_state(sf_dir: str, m: int = 4, k: int = 8,
              iters: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """(per-dim scales, (m, k, dim/m) per-subspace integer centroids)
    for product quantization — Lloyd's run INDEPENDENTLY on each of
    ``m`` contiguous dim slices of the embedding_quantize codes, all
    subspaces advanced in the SAME streaming pass per iteration (one
    corpus read trains every codebook).  Same exactness contract as
    _kmeans_state: init = sliced codes of vec_id 0..k-1, ties to the
    smaller cluster id, empty clusters keep their centroid,
    floor(sum/n + 0.5) re-quantization."""
    return cache.memo(
        "pq", (os.path.abspath(sf_dir), m, k, iters),
        cache.table_fingerprint(sf_dir, "embeddings"),
        lambda: _pq_fit(sf_dir, m, k, iters))


def _pq_fit(sf_dir: str, m: int, k: int,
            iters: int) -> tuple[np.ndarray, np.ndarray]:
    from ray.data.aggregate import Max, Sum as _Sum

    def dim_partials(batch: dict) -> pd.DataFrame:
        arr = np.asarray(
            [np.asarray(v, dtype=np.float64) for v in batch["embedding"]]
        )
        return pd.DataFrame(
            {"dim": np.arange(1, arr.shape[1] + 1, dtype=np.int64),
             "p_max": np.abs(arr).max(axis=0)}
        )

    scales = (
        _emb(sf_dir)
        .map_batches(dim_partials, batch_format="numpy", batch_size=4096)
        .groupby("dim")
        .aggregate(Max("p_max", alias_name="s"))
        .to_pandas()
        .sort_values("dim")
    )
    s = scales["s"].to_numpy()
    dim = len(s)
    if dim % m:
        raise ValueError(f"dim {dim} not divisible by m={m}")
    sub = dim // m
    s_ref = ray.put(s)

    import pyarrow.compute as pc_
    import pyarrow.parquet as pq_

    t0 = pq_.read_table(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"])
    t0 = t0.filter(pc_.less(t0.column("vec_id"), k))
    init_ids, init_codes = _kmeans_codes(
        {"vec_id": t0.column("vec_id").to_numpy(),
         "embedding": t0.column("embedding").to_pylist()}, s
    )
    full = init_codes[np.argsort(init_ids)]
    cents = np.stack([full[:, j * sub:(j + 1) * sub] for j in range(m)])

    base = _emb(sf_dir).materialize()

    for _ in range(iters):
        c_ref = ray.put(cents)

        def partials(batch: dict) -> pd.DataFrame:
            cc = ray.get(c_ref)
            _ids, codes = _kmeans_codes(batch, ray.get(s_ref))
            rows = []
            for j in range(m):
                sl = codes[:, j * sub:(j + 1) * sub]
                a, _d = _kmeans_assign_codes(sl, cc[j])
                for cl in np.unique(a):
                    msk = a == cl
                    rows.append(
                        {"sub": j, "cluster": int(cl),
                         "n": int(msk.sum()),
                         **{f"s{i}": v for i, v in
                            enumerate(sl[msk].sum(axis=0))}}
                    )
            return pd.DataFrame(rows)

        agg_cols = ["n"] + [f"s{i}" for i in range(sub)]
        g = (
            base.map_batches(partials, batch_format="numpy",
                             batch_size=4096)
            .groupby(["sub", "cluster"])
            .aggregate(*[_Sum(c, alias_name=c) for c in agg_cols])
            .to_pandas()
        )
        new = cents.copy()
        for _, row in g.iterrows():
            n = int(row["n"])
            if n > 0:
                sums = np.asarray(
                    [row[f"s{i}"] for i in range(sub)], dtype=np.float64
                )
                new[int(row["sub"]), int(row["cluster"])] = np.floor(
                    sums / n + 0.5
                ).astype(np.int64)
        cents = new

    return s, cents


def pq_codebooks(sf_dir: str, m: int = 4, k: int = 8,
                 iters: int = 2) -> "rd.Dataset":
    """Product quantization — the billion-scale ANN compression path:
    split each embedding into ``m`` contiguous subvectors and train an
    independent k-codeword codebook per subspace (one streaming Lloyd
    pass per iteration trains all ``m`` at once), then emit each
    vector's code and exact int64 distortion per subspace —
    (vec_id, subspace, code, dist).  A vector's PQ representation is
    the m-tuple of codes (m * log2(k) bits vs dim * 32), and
    sum(dist) over subspaces is its total quantization error.  Exact
    integer arithmetic end-to-end, so the oracle — the kmeans_quantized
    unroll repeated per dim slice and UNION ALLed — hash-matches every
    assignment."""
    s, cents = _pq_state(sf_dir, m, k, iters)
    sub = cents.shape[2]
    s_ref = ray.put(s)
    c_ref = ray.put(cents)

    def assign(batch: dict) -> pd.DataFrame:
        cc = ray.get(c_ref)
        ids, codes = _kmeans_codes(batch, ray.get(s_ref))
        frames = []
        for j in range(m):
            sl = codes[:, j * sub:(j + 1) * sub]
            a, d = _kmeans_assign_codes(sl, cc[j])
            frames.append(pd.DataFrame(
                {"vec_id": ids, "subspace": np.int64(j),
                 "code": a.astype(np.int64),
                 "dist": d.astype(np.int64)}
            ))
        return pd.concat(frames, ignore_index=True)

    return _emb(sf_dir).map_batches(assign, batch_format="numpy",
                                    batch_size=4096)


def ann_topk_pq(sf_dir: str, k: int = 10, query_vec_id: int = 0,
                m: int = 4, codebook_k: int = 8,
                iters: int = 2) -> pd.DataFrame:
    """PQ-ADC nearest neighbours — the search half of pq_codebooks:
    asymmetric distance computation with the classic m x k lookup
    table (exact int64 distance from the query's code slices to every
    codeword, computed ONCE on the driver), so scoring a vector is m
    table gathers + a sum instead of a dim-length dot product.
    Returns the top-``k`` (vec_id, d_pq) by approximated distance,
    ties to the smaller vec_id; per-batch local top-k partials merge
    driver-side (the ann_topk_brute shape).  Every quantity is an
    integer, so the oracle — the per-subspace Lloyd unroll joined to
    a LUT CTE — hash-matches the full ranking."""
    s, cents = _pq_state(sf_dir, m, codebook_k, iters)
    sub = cents.shape[2]
    q = _query_vector(sf_dir, query_vec_id)
    with np.errstate(divide="ignore", invalid="ignore"):
        qc = np.floor(q * 127.0 / s + 0.5)
    qc = np.where(s == 0, 0.0, qc).astype(np.int64)
    lut = np.stack([
        ((qc[j * sub:(j + 1) * sub] - cents[j]) ** 2).sum(axis=1)
        for j in range(m)
    ])  # (m, codebook_k) int64
    s_ref = ray.put(s)
    c_ref = ray.put(cents)
    l_ref = ray.put(lut)

    def local_top(batch: dict) -> pd.DataFrame:
        cc, lu = ray.get(c_ref), ray.get(l_ref)
        ids, codes = _kmeans_codes(batch, ray.get(s_ref))
        d = np.zeros(len(ids), np.int64)
        for j in range(m):
            a, _ = _kmeans_assign_codes(
                codes[:, j * sub:(j + 1) * sub], cc[j]
            )
            d += lu[j, a]
        out = pd.DataFrame({"vec_id": ids, "d_pq": d})
        out = out[out["vec_id"] != query_vec_id]
        return out.sort_values(["d_pq", "vec_id"]).head(k)

    parts = (
        _emb(sf_dir)
        .map_batches(local_top, batch_format="numpy", batch_size=4096)
        .to_pandas()
    )
    return (
        parts.sort_values(["d_pq", "vec_id"]).head(k)
        .astype({"vec_id": "int64", "d_pq": "int64"})
        .reset_index(drop=True)
    )


def ann_topk_ivfpq(sf_dir: str, k: int = 10, query_vec_id: int = 0,
                   nprobe: int = 2, m: int = 4, codebook_k: int = 8,
                   iters: int = 2) -> pd.DataFrame:
    """IVF-pruned PQ search — the combined billion-scale serving
    shape: a coarse quantizer (kmeans_quantized's cells) restricts
    scoring to the query's ``nprobe`` nearest cells, and PQ-ADC
    (ann_topk_pq's m x k lookup table) scores only those vectors — so
    cost is (probed fraction of corpus) x (m gathers), not corpus x
    dim.  Returns top-``k`` (vec_id, cell, d_pq), ties to smaller
    vec_id; exact integer arithmetic throughout, so the oracle —
    coarse-assignment unroll + per-subspace PQ unroll + a query-cell
    CTE + the LUT gather filtered to probed cells — hash-matches.
    Recall is approximate BY DESIGN (vectors outside probed cells are
    never scored); the oracle checks the pruned computation itself."""
    cs, ccents = _kmeans_state(sf_dir, codebook_k, iters)
    ps, pcents = _pq_state(sf_dir, m, codebook_k, iters)
    sub = pcents.shape[2]
    q = _query_vector(sf_dir, query_vec_id)
    with np.errstate(divide="ignore", invalid="ignore"):
        qc = np.floor(q * 127.0 / cs + 0.5)
    qc = np.where(cs == 0, 0.0, qc).astype(np.int64)
    dq = ((qc - ccents) ** 2).sum(axis=1)
    probe = np.lexsort((np.arange(len(dq)), dq))[:nprobe]
    lut = np.stack([
        ((qc[j * sub:(j + 1) * sub] - pcents[j]) ** 2).sum(axis=1)
        for j in range(m)
    ])
    refs = tuple(map(ray.put, (cs, ccents, pcents, lut,
                               np.asarray(probe, np.int64))))

    def local_top(batch: dict) -> pd.DataFrame:
        s_, cc_, pc_, lu_, pr_ = (ray.get(r) for r in refs)
        ids, codes = _kmeans_codes(batch, s_)
        cell, _ = _kmeans_assign_codes(codes, cc_)
        msk = np.isin(cell, pr_) & (ids != query_vec_id)
        ids, codes, cell = ids[msk], codes[msk], cell[msk]
        d = np.zeros(len(ids), np.int64)
        for j in range(m):
            a, _ = _kmeans_assign_codes(
                codes[:, j * sub:(j + 1) * sub], pc_[j]
            )
            d += lu_[j, a]
        out = pd.DataFrame(
            {"vec_id": ids, "cell": cell.astype(np.int64), "d_pq": d}
        )
        return out.sort_values(["d_pq", "vec_id"]).head(k)

    parts = (
        _emb(sf_dir)
        .map_batches(local_top, batch_format="numpy", batch_size=4096)
        .to_pandas()
    )
    return (
        parts.sort_values(["d_pq", "vec_id"]).head(k)
        .astype({"vec_id": "int64", "cell": "int64", "d_pq": "int64"})
        .reset_index(drop=True)
    )


def ann_recall_eval(
    sf_dir: str, k: int = 10, query_vec_ids: tuple[int, ...] = (0, 1, 2, 3)
) -> pd.DataFrame:
    """Recall@k of the read-pruned LSH search against exact brute-force
    ground truth — the quality-audit number every approximate index
    ships with.  Ground truth for ALL queries comes from ONE corpus
    pass (``ann_topk_multi``: broadcast query matrix, per-batch local
    top-k partials); each approximate answer reads only its probe-ring
    partitions (``ann_topk_lsh_pruned``), so the audit costs one scan
    + Q metadata-pruned bucket reads regardless of corpus size.  At
    100 TB this runs over a query SAMPLE; recall is reported as the
    exact integer hits*100//k so the DuckDB oracle (both re-derivations
    joined per query) hash-matches."""
    truth = ann_topk_multi(sf_dir, k=k, query_vec_ids=query_vec_ids)
    rows = []
    for qid in query_vec_ids:
        approx = ann_topk_lsh_pruned(sf_dir, k=k, query_vec_id=qid)
        true_ids = set(truth.loc[truth["query_id"] == qid, "vec_id"])
        hits = int(sum(v in true_ids for v in approx["vec_id"]))
        rows.append((int(qid), hits, hits * 100 // k))
    return pd.DataFrame(
        rows, columns=["query_id", "hits", "recall_pct"]
    ).astype("int64")


def ann_index_append(
    sf_dir: str,
    k: int = 10,
    query_vec_id: int = 0,
    n_planes: int = 8,
    probes: int = 3,
    seed: int = 11,
) -> pd.DataFrame:
    """Incremental ANN index maintenance — the dedup_incremental of the
    similarity family: vectors arrive AFTER the index was built
    (vec_id % 10 == 0 plays the new batch), and instead of rebuilding,
    the delta pass codes ONLY the new vectors and appends their files
    into the existing ``code=N`` hive partitions (hardlinked base files
    + ``append-*`` delta files: at 100 TB the append touches |delta|
    rows while a rebuild touches the corpus).  The probe-ring reader
    and footer-count auto-widen rule see base + delta transparently,
    so the query over the appended index must equal — byte for byte —
    the from-scratch answer over the full corpus: the oracle is the
    very same generated LSH re-derivation ann_topk_lsh uses
    (hash-matching it proves the append is lossless)."""
    import os
    import shutil

    base_dir = _ensure_index(
        f"lshbase-p{n_planes}-s{seed}", sf_dir,
        lambda d: build_lsh_index(
            sf_dir, d, n_planes, seed,
            vid_filter=lambda v: v % 10 != 0),
    )

    def build_appended(d: str) -> None:
        for bucket in os.listdir(base_dir):
            if not bucket.startswith("code="):
                continue
            os.makedirs(os.path.join(d, bucket), exist_ok=True)
            for f in os.listdir(os.path.join(base_dir, bucket)):
                if f.endswith(".parquet"):
                    os.link(os.path.join(base_dir, bucket, f),
                            os.path.join(d, bucket, f))
        delta_tmp = f"{d}.delta"
        shutil.rmtree(delta_tmp, ignore_errors=True)
        build_lsh_index(sf_dir, delta_tmp, n_planes, seed,
                        vid_filter=lambda v: v % 10 == 0)
        for bucket in os.listdir(delta_tmp):
            if not bucket.startswith("code="):
                continue
            os.makedirs(os.path.join(d, bucket), exist_ok=True)
            for i, f in enumerate(sorted(
                    os.listdir(os.path.join(delta_tmp, bucket)))):
                if f.endswith(".parquet"):
                    os.rename(
                        os.path.join(delta_tmp, bucket, f),
                        os.path.join(d, bucket, f"append-{i:04d}.parquet"))
        shutil.rmtree(delta_tmp, ignore_errors=True)

    full_dir = _ensure_index(
        f"lshapp-p{n_planes}-s{seed}", sf_dir, build_appended)

    q = _query_vector(sf_dir, query_vec_id)
    p_star = _lsh_widen_level(full_dir, q, k, n_planes,
                              min(probes, n_planes), seed)
    return ann_topk_lsh_indexed(
        full_dir, q, k, query_vec_id, n_planes, p_star, seed
    )


# ---------------------------------------------------- bitext mining --------


def bitext_margin_mine(
    sf_dir: str, k: int = 4, threshold: float = 1.02
) -> pd.DataFrame:
    """Margin-based bitext mining (the parallel-corpus miner of
    Artetxe & Schwenk, "Margin-based Parallel Corpus Mining with
    Multilingual Sentence Embeddings", ACL 2019): the corpus splits
    into two "languages" (even / odd ``vec_id``); each source vector
    pairs with the target maximizing the RATIO margin
    ``cos(x,y) / ((fwd_k(x) + bwd_k(y)) / 2)`` — cosine alone
    over-accepts hubs; dividing by the mean of each side's top-k
    neighborhood normalizes hubness away.

    Plan (the blocked-matmul discipline of this module):

    1. the target side broadcasts once (``ray.put`` of the normalized
       matrix — at real scale shard it and add a partial-merge level);
    2. pass 1 streams source batches: one ``(batch × dim) @ (dim × T)``
       matmul, emitting PER-TARGET local top-k partials (≤ k·|T| rows
       per batch) that the driver merges into backward means — the
       per-block top-k convention, never a full sim matrix;
    3. pass 2 re-streams source batches with the backward means
       broadcast: forward means and the argmax-margin pair are local
       to the batch.

    Ties break toward the smaller target id (pinned by the oracle's
    ``ORDER BY margin DESC, yb``)."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = t.column("vec_id").to_numpy()
    tgt_mask = (ids % 2) == 1
    tm = np.stack(
        [np.asarray(v, dtype=np.float64)
         for v in t.column("embedding").to_pylist()])[tgt_mask]
    tn = np.linalg.norm(tm, axis=1)
    tn[tn == 0] = 1.0
    tgt_ids = ids[tgt_mask].astype(np.int64)
    t_ref = ray.put((tgt_ids, tm / tn[:, None]))

    def _src_norm(df: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
        vid = df["vec_id"].to_numpy()
        keep = (vid % 2) == 0
        if not keep.any():
            return vid[:0].astype(np.int64), np.empty((0, 1))
        m = np.stack(df["embedding"].to_numpy()[keep]).astype(np.float64)
        n = np.linalg.norm(m, axis=1)
        n[n == 0] = 1.0
        return vid[keep].astype(np.int64), m / n[:, None]

    def bwd_partial(df: pd.DataFrame) -> pd.DataFrame:
        tids, tmat = _bcast_get(t_ref)
        svid, sm = _src_norm(df)
        if not len(svid):
            return pd.DataFrame({"tid": pd.Series([], dtype="int64"),
                                 "s": pd.Series([], dtype="float64")})
        sims = sm @ tmat.T                       # (batch, T)
        kk = min(k, sims.shape[0])
        part = np.partition(sims, -kk, axis=0)[-kk:, :]  # (kk, T)
        return pd.DataFrame(
            {"tid": np.repeat(tids, kk).astype("int64"),
             "s": part.T.reshape(-1)})

    parts = _emb(sf_dir).map_batches(
        bwd_partial, batch_format="pandas", batch_size=4096).to_pandas()
    bwd = (parts.sort_values("s", ascending=False)
           .groupby("tid").head(k)
           .groupby("tid")["s"].mean())
    bwd_vec = bwd.reindex(tgt_ids).to_numpy()    # aligned to tmat rows
    b_ref = ray.put(bwd_vec)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        tids, tmat = _bcast_get(t_ref)
        bw = _bcast_get(b_ref)
        svid, sm = _src_norm(df)
        cols = ["src_id", "dst_id", "margin", "accepted"]
        if not len(svid):
            return pd.DataFrame(
                {c: pd.Series([], dtype="float64" if c == "margin"
                              else "int64") for c in cols})
        sims = sm @ tmat.T
        kk = min(k, sims.shape[1])
        fwd = np.mean(
            np.partition(sims, -kk, axis=1)[:, -kk:], axis=1)
        margin = sims / ((fwd[:, None] + bw[None, :]) / 2.0)
        # np.argmax keeps the FIRST max; tids ascend within tmat, so
        # exact ties break toward the smaller target id (oracle order)
        best = np.argmax(margin, axis=1)
        mbest = margin[np.arange(len(svid)), best]
        return pd.DataFrame(
            {"src_id": svid,
             "dst_id": tids[best].astype("int64"),
             "margin": np.round(mbest, 4),
             "accepted": (mbest > threshold).astype("int64")})

    out = _emb(sf_dir).map_batches(
        score, batch_format="pandas", batch_size=4096).to_pandas()
    return (out.sort_values("src_id").reset_index(drop=True)
            .astype({"src_id": "int64", "dst_id": "int64",
                     "accepted": "int64"}))


# ---------------------------------------------- embedding outlier audit ----


def embedding_outlier_audit(sf_dir: str) -> pd.DataFrame:
    """Per-label embedding-space quality audit: squared distance of
    every vector to ITS label centroid, rolled up per label (count,
    mean, max) with the most-outlying member — the contamination /
    mislabel screen an embedding-curation pass runs before training.

    Plan: pass 1 streams (label, count, sum-vector) partials — the
    label grid is bounded, so the driver merge is the benford
    convention; centroids broadcast once; pass 2 streams squared
    distances as per-label partials (n, sum, local max + argmax).  No
    N×N anything, two linear passes."""
    labels_sums: dict[int, tuple[int, np.ndarray]] = {}

    def centroid_partial(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for lab, g in df.groupby("label"):
            m = np.stack(g["embedding"].to_numpy()).astype(np.float64)
            rows.append({"label": int(lab), "n": len(g),
                         "vsum": m.sum(axis=0).tolist()})
        return pd.DataFrame(rows, columns=["label", "n", "vsum"])

    parts = _emb(sf_dir).map_batches(
        centroid_partial, batch_format="pandas", batch_size=4096
    ).to_pandas()
    for _, r in parts.iterrows():
        n, s = labels_sums.get(r["label"], (0, 0.0))
        labels_sums[r["label"]] = (n + int(r["n"]),
                                   s + np.asarray(r["vsum"]))
    centroids = {lab: s / n for lab, (n, s) in labels_sums.items()}
    c_ref = ray.put(centroids)

    def dist_partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = _bcast_get(c_ref)
        rows = []
        for lab, g in df.groupby("label"):
            m = np.stack(g["embedding"].to_numpy()).astype(np.float64)
            d2 = ((m - cents[int(lab)][None, :]) ** 2).sum(axis=1)
            top = int(np.lexsort((g["vec_id"].to_numpy(), -d2))[0])
            rows.append({"label": int(lab), "n": len(g),
                         "sum_d2": float(d2.sum()),
                         "max_d2": float(d2[top]),
                         "argmax_vec": int(g["vec_id"].iloc[top])})
        return pd.DataFrame(rows, columns=["label", "n", "sum_d2",
                                           "max_d2", "argmax_vec"])

    d = _emb(sf_dir).map_batches(
        dist_partial, batch_format="pandas", batch_size=4096).to_pandas()
    out_rows = []
    for lab, g in d.groupby("label"):
        # merge local maxima with the smallest-vec_id tie-break
        gi = g.sort_values(["max_d2", "argmax_vec"],
                           ascending=[False, True]).iloc[0]
        out_rows.append({
            "label": int(lab),
            "n": int(g["n"].sum()),
            "mean_dist2": round(float(g["sum_d2"].sum() / g["n"].sum()), 4),
            "max_dist2": round(float(gi["max_d2"]), 4),
            "outlier_vec_id": int(gi["argmax_vec"])})
    return (pd.DataFrame(out_rows)
            .astype({"label": "int64", "n": "int64",
                     "outlier_vec_id": "int64"})
            .sort_values("label").reset_index(drop=True))


def rerank_two_stage(sf_dir: str, k: int = 10, k1: int = 40,
                     query_vec_id: int = 0) -> pd.DataFrame:
    """Two-stage retrieval — the production ANN serving shape: a CHEAP
    first stage over-retrieves ``k1`` candidates (full-vector cosine,
    per-block top-k1 partials, exactly ann_topk_brute's plan), then an
    EXPENSIVE second stage re-scores ONLY those candidates (here: cosine
    over the even dimensions — a stand-in for a cross-encoder / larger
    model whose cost forbids running it on the corpus) and returns the
    final top-``k`` by the second score.

    Scale shape: stage 1 moves <= k1 x num_blocks skinny rows to the
    driver; stage 2 broadcasts the k1-candidate id set (tiny) and is a
    filtered map over the SAME corpus read — per-block candidate hits
    are <= k1 total, so the second pass's output is bounded by k1 rows
    regardless of corpus size.  No shuffle in either stage.  Both
    orderings use (round(sim, 4) DESC, vec_id) so the DuckDB oracle's
    candidate SET and final ranking match bit-for-bit."""
    q = _query_vector(sf_dir, query_vec_id)
    qn = q / np.linalg.norm(q)
    q_ref = ray.put(qn)

    def score1(df: pd.DataFrame) -> pd.DataFrame:
        qv = _bcast_get(q_ref)
        m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        norms = np.linalg.norm(m, axis=1)
        norms[norms == 0] = 1.0
        sims = (m @ qv) / norms
        out = pd.DataFrame(
            {"vec_id": df["vec_id"].values, "sim1": np.round(sims, 4)})
        out = out[out["vec_id"] != query_vec_id]
        return out.sort_values(["sim1", "vec_id"],
                               ascending=[False, True]).head(k1)

    cands = (
        _emb(sf_dir)
        .map_batches(score1, batch_format="pandas", batch_size=4096)
        .to_pandas()
        .sort_values(["sim1", "vec_id"], ascending=[False, True])
        .head(k1)
    )
    cand_ref = ray.put((np.sort(cands["vec_id"].to_numpy(np.int64)),
                        qn[0::2] / np.linalg.norm(qn[0::2])))

    def score2(df: pd.DataFrame) -> pd.DataFrame:
        cand_ids, q_even = _bcast_get(cand_ref)
        m_mask = np.isin(df["vec_id"].to_numpy(np.int64), cand_ids)
        df = df[m_mask]
        if not len(df):
            return pd.DataFrame(
                {"vec_id": pd.Series([], dtype="int64"),
                 "sim2": pd.Series([], dtype="float64")})
        m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        m = m[:, 0::2]
        norms = np.linalg.norm(m, axis=1)
        norms[norms == 0] = 1.0
        sims = (m @ q_even) / norms
        return pd.DataFrame(
            {"vec_id": df["vec_id"].values, "sim2": np.round(sims, 4)})

    scored2 = (
        _emb(sf_dir)
        .map_batches(score2, batch_format="pandas", batch_size=4096)
        .to_pandas()
    )
    out = cands.merge(scored2, on="vec_id")
    out = out.sort_values(["sim2", "vec_id"],
                          ascending=[False, True]).head(k)
    return (out[["vec_id", "sim1", "sim2"]]
            .reset_index(drop=True).astype({"vec_id": "int64"}))
