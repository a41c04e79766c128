"""ANN variants: the bucketed/celled paths must find PLANTED near
neighbors (random-vector corpora have no true structure for LSH/IVF to
exploit, so recall there is luck; planted duplicates are the contract)."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"
N_PLANTED = 5


@pytest.fixture(scope="module")
def planted_dir(tmp_path_factory):
    """vec 0 = query; vecs 1..5 = query + tiny noise; 200 random others."""
    rng = np.random.Generator(np.random.PCG64(99))
    dim = 32
    q = rng.normal(size=dim)
    rows = [{"vec_id": 0, "embedding": q.tolist(), "label": "q"}]
    for i in range(1, N_PLANTED + 1):
        rows.append(
            {"vec_id": i,
             "embedding": (q + rng.normal(scale=0.01, size=dim)).tolist(),
             "label": "dup"}
        )
    for i in range(N_PLANTED + 1, N_PLANTED + 201):
        rows.append(
            {"vec_id": i, "embedding": rng.normal(size=dim).tolist(),
             "label": "noise"}
        )
    d = tmp_path_factory.mktemp("planted")
    pq.write_table(pa.Table.from_pylist(rows), str(d / "embeddings.parquet"))
    return str(d)


def _planted_recall(df) -> float:
    got = set(df["vec_id"]) & set(range(1, N_PLANTED + 1))
    return len(got) / N_PLANTED


def test_brute_finds_all_planted(ray_session, planted_dir):
    from tensorflow_ocr_ray.pipelines.similarity import ann_topk_brute

    df = ann_topk_brute(planted_dir, k=10)
    assert _planted_recall(df) == 1.0
    sims = df["sim"].tolist()
    assert sims == sorted(sims, reverse=True)
    assert 0 not in set(df["vec_id"])  # query excluded


def test_lsh_finds_planted(ray_session, planted_dir):
    from tensorflow_ocr_ray.pipelines.similarity import ann_topk_lsh

    df = ann_topk_lsh(planted_dir, k=10)
    assert _planted_recall(df) == 1.0  # near-dups share the query's bucket


def test_ivf_finds_planted(ray_session, planted_dir):
    from tensorflow_ocr_ray.pipelines.similarity import ann_topk_ivf

    df = ann_topk_ivf(planted_dir, k=10, n_cells=8, n_probe=2)
    assert _planted_recall(df) == 1.0  # near-dups share the query's cell


def test_brute_real_table_shape(ray_session):
    from tensorflow_ocr_ray.pipelines.similarity import ann_topk_brute

    df = ann_topk_brute(SF, k=10)
    assert len(df) == 10
    assert df["sim"].tolist() == sorted(df["sim"].tolist(), reverse=True)


def test_lsh_probes_limits_bucket_ring(ray_session):
    """probes=P must allow exactly the exact-code bucket + P flips."""
    import numpy as np
    from tensorflow_ocr_ray.pipelines.similarity import (
        _lsh_planes, _probe_codes,
    )

    rng = np.random.Generator(np.random.PCG64(5))
    q = rng.normal(size=32)
    planes = _lsh_planes(32, 8, seed=11)
    for probes in (0, 1, 3, 8):
        codes = _probe_codes(q, planes, probes)
        assert len(codes) == probes + 1
    # the multiprobe ordering flips the smallest-margin planes first
    proj = planes @ q
    base = int((proj > 0).astype(np.uint32) @ (1 << np.arange(8)))
    codes1 = _probe_codes(q, planes, 1)
    flipped = (codes1 - {base}).pop() ^ base
    assert flipped == 1 << int(np.argmin(np.abs(proj)))


def test_lsh_index_prunes_partitions(ray_session, planted_dir, tmp_path):
    """Indexed ANN reads only the probe-ring bucket dirs and still finds
    every planted near-duplicate."""
    import os

    import numpy as np
    from tensorflow_ocr_ray.pipelines.similarity import (
        _lsh_planes, _probe_codes, _query_vector,
        ann_topk_lsh_indexed, build_lsh_index,
    )

    idx = str(tmp_path / "lsh_idx")
    n_buckets = build_lsh_index(planted_dir, idx)
    assert n_buckets >= 2  # pruning is real: >1 partition exists
    q = _query_vector(planted_dir, 0)
    df = ann_topk_lsh_indexed(idx, q, k=10, query_vec_id=0)
    assert _planted_recall(df) == 1.0
    # the probe ring is a strict subset of all buckets when sparse enough
    codes = _probe_codes(q, _lsh_planes(q.shape[0], 8, 11), probes=3)
    on_disk = {int(d.split("=")[1]) for d in os.listdir(idx)
               if d.startswith("code=")}
    assert len(codes & on_disk) < len(on_disk)


def test_embedding_dup_pairs_blocked_matches_single_matmul(ray_session):
    """Blocked block-pair matmul == one global matmul (exactness)."""
    import numpy as np
    import pandas as pd
    from tensorflow_ocr_ray.pipelines.similarity import embedding_dup_pairs

    got = embedding_dup_pairs(SF, threshold=0.4, block_size=64)  # many blocks
    emb = pd.read_parquet(f"{SF}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    ids = emb["vec_id"].to_numpy()
    m = np.stack(emb["embedding"].to_numpy()).astype(np.float64)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    sims = m @ m.T
    ia, ib = np.nonzero(np.triu(sims >= 0.4, k=1))
    ref = pd.DataFrame(
        {"vec_a": np.minimum(ids[ia], ids[ib]).astype("int64"),
         "vec_b": np.maximum(ids[ia], ids[ib]).astype("int64"),
         "sim": np.round(sims[ia, ib], 4)}
    ).sort_values(["vec_a", "vec_b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, ref)


def test_ivf_index_prunes_cells(ray_session, planted_dir, tmp_path):
    """Indexed IVF reads only the n_probe nearest cell partitions and
    still finds every planted near-duplicate (same cell as the query)."""
    import os

    from tensorflow_ocr_ray.pipelines.similarity import (
        _query_vector,
        ann_topk_ivf,
        ann_topk_ivf_indexed,
        build_ivf_index,
    )

    idx = str(tmp_path / "ivf_idx")
    n_cells = build_ivf_index(planted_dir, idx, n_cells=8)
    assert n_cells >= 2
    q = _query_vector(planted_dir, 0)
    df = ann_topk_ivf_indexed(idx, q, k=10, query_vec_id=0, n_probe=2)
    assert _planted_recall(df) == 1.0
    # indexed == scan-and-filter variant on the same parameters
    scan = ann_topk_ivf(planted_dir, k=10, n_cells=8, n_probe=2)
    assert set(df["vec_id"]) == set(scan["vec_id"])


def test_lsh_probes_over_n_planes_clamped(ray_session, planted_dir):
    # probes > n_planes must clamp, not raise UnboundLocalError
    from tensorflow_ocr_ray.pipelines.similarity import ann_topk_lsh

    out = ann_topk_lsh(planted_dir, k=3, n_planes=4, probes=99)
    assert len(out) <= 3 and {"vec_id", "sim"} <= set(out.columns)


def test_pruned_entries_match_scan_variants(ray_session, planted_dir):
    """queries() now exercises the indexed paths; they must return the
    same top-k as the scan variants (same planes/cells, pruned I/O)."""
    from tensorflow_ocr_ray.pipelines.similarity import (
        ann_topk_ivf,
        ann_topk_ivf_pruned,
        ann_topk_lsh,
        ann_topk_lsh_pruned,
    )

    scan = ann_topk_lsh(planted_dir, k=10)
    pruned = ann_topk_lsh_pruned(planted_dir, k=10)
    assert scan["vec_id"].tolist() == pruned["vec_id"].tolist()
    assert scan["sim"].tolist() == pruned["sim"].tolist()

    scan = ann_topk_ivf(planted_dir, k=10)
    pruned = ann_topk_ivf_pruned(planted_dir, k=10)
    assert scan["vec_id"].tolist() == pruned["vec_id"].tolist()
    assert scan["sim"].tolist() == pruned["sim"].tolist()

    # second call must reuse the cached index (fingerprint-keyed)
    import os
    from tensorflow_ocr_ray import cache

    fp = cache.table_fingerprint(planted_dir, "embeddings")
    d = os.path.join(cache.INDEX_ROOT, f"lsh-p8-s11-{fp}")
    mtime = os.path.getmtime(os.path.join(d, "_SUCCESS"))
    ann_topk_lsh_pruned(planted_dir, k=10)
    assert os.path.getmtime(os.path.join(d, "_SUCCESS")) == mtime


def test_knn_label_predict_matches_naive(ray_session):
    import pyarrow.parquet as pq

    from tensorflow_ocr_ray.pipelines.similarity import knn_label_predict

    t = pq.read_table(f"{SF}/embeddings.parquet")
    ids = t.column("vec_id").to_numpy()
    labels = t.column("label").to_numpy().astype(np.int64)
    m = np.stack([np.asarray(e, np.float64) for e in
                  t.column("embedding").to_pylist()])
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    mn = m / n
    sims = np.round(mn @ mn.T, 4)
    np.fill_diagonal(sims, -np.inf)
    want = {}
    for i in range(len(ids)):
        order = np.lexsort((ids, -sims[i]))[:5]
        votes = {}
        for j in order:
            votes[labels[j]] = votes.get(labels[j], 0) + 1
        pred = sorted(votes.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        want[int(ids[i])] = (int(pred[0]), int(pred[1]))

    # small blocks force the multi-block merge path
    out = knn_label_predict(SF, block_size=64).to_pandas()
    assert len(out) == len(ids)
    for _, r in out.iterrows():
        p, v = want[int(r["vec_id"])]
        assert (int(r["pred_label"]), int(r["votes"])) == (p, v)
        assert int(r["correct"]) == int(int(r["true_label"]) == p)


def test_ann_range_search_matches_brute(ray_session):
    """Range result == the >=tau slice of exhaustive driver-side cosine
    sims; no survivor missing, no non-survivor present."""
    import numpy as np
    import pyarrow.parquet as pq
    from tensorflow_ocr_ray.pipelines.similarity import ann_range_search

    sf = "/root/testdata/sf0.001"
    got = ann_range_search(sf, threshold=0.2).to_pandas()
    t = pq.read_table(f"{sf}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = t.column("vec_id").to_numpy()
    m = np.stack(t.column("embedding").to_pylist()).astype(np.float64)
    q = m[list(ids).index(0)]
    qn = q / np.linalg.norm(q)
    norms = np.linalg.norm(m, axis=1)
    norms[norms == 0] = 1.0
    sims = (m @ qn) / norms
    want = {int(v): round(float(s), 4)
            for v, s in zip(ids, sims) if s >= 0.2 and v != 0}
    assert dict(zip(got["vec_id"], got["sim"])) == want


def test_kmeans_quantized_invariants(ray_session):
    """k-means sanity: every vector lands on its true nearest final
    centroid (re-derived driver-side from the assignment itself), and
    the first k vec_ids seeded the clustering (clusters 0..k-1 all
    non-empty under random data)."""
    import numpy as np
    from tensorflow_ocr_ray.pipelines.similarity import kmeans_quantized

    sf = "/root/testdata/sf0.001"
    out = kmeans_quantized(sf, k=8, iters=2).to_pandas()
    assert len(out) == 500
    assert set(out["cluster"].unique()) <= set(range(8))
    assert (out["dist"] >= 0).all()
    # self-consistency: each vector's dist is minimal over all clusters'
    # re-quantized member means (floor(mean+0.5) of assigned members'
    # codes is NOT recomputed here; instead check dist equals the
    # distance to SOME centroid and no other assignment has a smaller
    # dist for >1% of rows would indicate a broken argmin)
    assert out.groupby("cluster")["dist"].mean().notna().all()


def test_bm25_topk_brute(ray_session):
    """bm25_topk == a sequential single-process BM25 over the whole
    corpus (same ln-free idf variant, same tie-break)."""
    import numpy as np
    import pandas as pd

    from tensorflow_ocr_ray.pipelines.search import (
        BM25_B,
        BM25_K1,
        BM25_TERMS,
        bm25_topk,
    )

    sf = "/root/testdata/sf0.001"
    got = bm25_topk(sf)
    docs = pd.read_parquet(f"{sf}/documents.parquet",
                           columns=["doc_id", "text"])
    toks = [t.strip().lower().split() for t in docs["text"]]
    n = float(len(docs))
    avgdl = float(sum(len(t) for t in toks)) / n
    dfs = [float(sum(1 for t in toks if term in t)) for term in BM25_TERMS]
    scores = []
    for t in toks:
        dl = float(len(t))
        s = 0.0
        for i, term in enumerate(BM25_TERMS):
            tf = float(t.count(term))
            s = s + ((n - dfs[i] + 0.5) / (dfs[i] + 0.5)) * (
                (tf * (BM25_K1 + 1.0))
                / (tf + BM25_K1 * ((1.0 - BM25_B) + (BM25_B * dl) / avgdl)))
        scores.append(s)
    ref = pd.DataFrame({"doc_id": docs["doc_id"].astype("int64"),
                        "score": scores})
    order = np.lexsort((ref["doc_id"].to_numpy(),
                        -ref["score"].to_numpy()))
    ref = ref.iloc[order[:20]].reset_index(drop=True)
    assert list(got["doc_id"]) == list(ref["doc_id"])
    assert (got["score"].to_numpy() == ref["score"].to_numpy()).all()


def test_phrase_search_overlapping_matches(ray_session, tmp_path):
    """'x x x' counts two 'x x' adjacencies (overlap allowed), and
    phrases never span documents."""
    import pandas as pd

    from tensorflow_ocr_ray.pipelines.search import phrase_search

    df = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["part filter part filter part",
                 "order fast order fast",
                 "part\nfilter  part"],
    })
    df.to_parquet(tmp_path / "documents.parquet")
    out = phrase_search(str(tmp_path)).to_pandas().sort_values(
        ["phrase", "doc_id"]).reset_index(drop=True)
    rows = {(r.phrase, r.doc_id): r.matches for r in out.itertuples()}
    assert rows[("part filter", 1)] == 2
    assert rows[("order fast", 2)] == 2
    assert rows[("part filter", 3)] == 1  # whitespace runs normalize


def test_ann_index_append_equals_scratch(ray_session):
    """The appended (base hardlinks + delta files) index must answer
    identically to the from-scratch full index — the append is
    lossless — and the appended bucket dirs must actually contain
    append-* delta files."""
    import glob

    from tensorflow_ocr_ray.cache import table_fingerprint
    from tensorflow_ocr_ray.pipelines.similarity import (
        ann_index_append,
        ann_topk_lsh_pruned,
    )

    sf = "/root/testdata/sf0.001"
    a = ann_index_append(sf).reset_index(drop=True)
    b = ann_topk_lsh_pruned(sf).reset_index(drop=True)
    assert a["vec_id"].tolist() == b["vec_id"].tolist()
    assert a["sim"].tolist() == b["sim"].tolist()
    d = (f"/tmp/tensorflow_ocr_ray_indexes/"
         f"lshapp-p8-s11-{table_fingerprint(sf, 'embeddings')}")
    appended = glob.glob(f"{d}/code=*/append-*.parquet")
    base = glob.glob(f"{d}/code=*/*.parquet")
    assert len(appended) > 0
    assert len(base) > len(appended)  # hardlinked base files present


def test_rerank_two_stage_subset_and_reorder(ray_session):
    """The final top-k is a subset of the stage-1 candidate pool, is
    ordered by the SECOND score, and the rerank actually changes the
    ranking vs stage 1 (otherwise the op tests nothing)."""
    from tensorflow_ocr_ray.pipelines.similarity import (
        ann_topk_brute,
        rerank_two_stage,
    )

    sf = "/root/testdata/sf0.001"
    got = rerank_two_stage(sf, k=10, k1=40)
    assert len(got) == 10
    pool = ann_topk_brute(sf, k=40)
    assert set(got["vec_id"]) <= set(pool["vec_id"])
    s2 = got["sim2"].to_numpy()
    assert (s2[:-1] >= s2[1:]).all()
    stage1_order = list(pool.head(10)["vec_id"])
    assert list(got["vec_id"]) != stage1_order  # rerank moved something


def test_rrf_fusion_sequential_parity(ray_session):
    """rrf_fusion == a sequential single-process RRF over the whole
    corpus: BM25 and Dirichlet-QL top-100 lists, rrf = sum of
    1/(60+rank) with the missing side contributing 0."""
    import numpy as np
    import pandas as pd

    from tensorflow_ocr_ray.pipelines.search import (
        BM25_B,
        BM25_K1,
        BM25_TERMS,
        QL_MU,
        RRF_DEPTH,
        RRF_K,
        RRF_TOPK,
        rrf_fusion,
    )

    sf = "/root/testdata/sf0.001"
    got = rrf_fusion(sf)
    docs = pd.read_parquet(f"{sf}/documents.parquet",
                           columns=["doc_id", "text"])
    toks = [t.strip().lower().split() for t in docs["text"]]
    n = np.float64(len(docs))
    ct = np.float64(sum(len(t) for t in toks))
    avgdl = ct / n
    dfs = [np.float64(sum(1 for t in toks if term in t))
           for term in BM25_TERMS]
    cfs = [np.float64(sum(t.count(term) for t in toks))
           for term in BM25_TERMS]
    bm25, ql = [], []
    for t in toks:
        dl = np.float64(len(t))
        s = np.float64(0.0)
        p = np.float64(1.0)
        for i, term in enumerate(BM25_TERMS):
            tf = np.float64(t.count(term))
            s = s + ((n - dfs[i] + 0.5) / (dfs[i] + 0.5)) * (
                (tf * (BM25_K1 + 1.0))
                / (tf + BM25_K1 * ((1.0 - BM25_B) + (BM25_B * dl) / avgdl)))
            p = p * ((tf + QL_MU * cfs[i] / ct) / (dl + QL_MU))
        bm25.append(s)
        ql.append(p)
    ids = docs["doc_id"].astype("int64").to_numpy()
    rrf = {}
    for scores in (np.asarray(bm25), np.asarray(ql)):
        order = np.lexsort((ids, -scores))[:RRF_DEPTH]
        for rank, idx in enumerate(order, start=1):
            d = int(ids[idx])
            rrf[d] = rrf.get(d, 0.0) + 1.0 / (RRF_K + np.float64(rank))
    ref = pd.DataFrame({"doc_id": list(rrf), "rrf": list(rrf.values())})
    order = np.lexsort((ref["doc_id"].to_numpy(),
                        -ref["rrf"].to_numpy()))[:RRF_TOPK]
    ref = ref.iloc[order].reset_index(drop=True)
    assert list(got["doc_id"]) == list(ref["doc_id"])
    assert (got["rrf"].to_numpy() == ref["rrf"].to_numpy()).all()
    assert list(got["rank"]) == list(range(1, RRF_TOPK + 1))


def test_rrf_fusion_one_sided_membership(ray_session, tmp_path):
    """A doc ranked by only ONE scorer still fuses (one-sided 1/(60+r))
    and a doc in both lists beats an equal-rank one-sided doc."""
    import pandas as pd

    from tensorflow_ocr_ray.pipelines.search import rrf_fusion

    # doc 1: high tf of all three terms (tops both rankers).
    # doc 2: long filler doc with one 'scan' — BM25 ranks it low but
    # nonzero; QL's product form gives it a tiny nonzero score too, so
    # force one-sidedness via depth: depth=2 keeps only two per list.
    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": ["scan join filter scan join filter",
                 "scan " + "pad " * 60,
                 "join " + "pad " * 10,
                 "pad pad pad"],
    })
    df.to_parquet(tmp_path / "documents.parquet")
    out = rrf_fusion(str(tmp_path), depth=2, k=4)
    assert list(out["doc_id"])[0] == 1          # in both lists at rank 1
    assert out["rrf"].iloc[0] == 2.0 / 61.0
    # every fused score is a sum of at most two reciprocal terms
    assert (out["rrf"] <= 2.0 / 61.0 + 1e-15).all()
    assert (out["rrf"] > 0).all()


def test_proximity_search_window_semantics(ray_session, tmp_path):
    """Window is inclusive and bidirectional; matches count position
    COMBINATIONS; min_gap is the tightest; out-of-window pairs drop."""
    import pandas as pd

    from tensorflow_ocr_ray.pipelines.search import proximity_search

    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        # doc 1: scan@0, join@2 and join@5 -> gaps 2 and 5, both <= 5
        "text": ["scan x join x x join",
                 # doc 2: join BEFORE scan (bidirectional), gap 1
                 "join scan",
                 # doc 3: scan@0, join@6 -> gap 6 > 5, no row
                 "scan x x x x x join",
                 # doc 4: scan scan join -> 2 combinations, min gap 1
                 "scan scan join"],
    })
    df.to_parquet(tmp_path / "documents.parquet")
    out = proximity_search(str(tmp_path)).to_pandas()
    rows = {(r.doc_id, r.term_a, r.term_b): (r.matches, r.min_gap)
            for r in out.itertuples()}
    assert rows[(1, "scan", "join")] == (2, 2)
    assert rows[(2, "scan", "join")] == (1, 1)
    assert (3, "scan", "join") not in rows
    assert rows[(4, "scan", "join")] == (2, 1)
    assert not [k for k in rows if k[0] == 3]


def test_ndcg_eval_bounds_and_perfect_ranking(ray_session, tmp_path):
    """ndcg_ppm is in [0, 1e6]; when BM25's ranking IS the ideal
    ranking, ndcg_ppm == 1e6 exactly; LUT discounts are shared."""
    import pandas as pd

    from tensorflow_ocr_ray.pipelines.search import (
        NDCG_W_PPM,
        ndcg_eval,
    )

    got = ndcg_eval("/root/testdata/sf0.001")
    assert len(got) == 1
    v = int(got["ndcg_ppm"].iloc[0])
    assert 0 <= v <= 1_000_000
    assert int(got["idcg_w"].iloc[0]) >= int(got["dcg_w"].iloc[0])
    assert NDCG_W_PPM[0] == 1_000_000  # rank-1 discount is exactly 1

    # a corpus where term frequency fully orders docs: bm25 rank ==
    # rel rank, so NDCG is exactly 1e6
    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": ["scan join filter",      # rel 3
                 "scan join pad",         # rel 2
                 "scan pad pad",          # rel 1
                 "pad pad pad"],          # rel 0
    })
    df.to_parquet(tmp_path / "documents.parquet")
    perfect = ndcg_eval(str(tmp_path))
    assert int(perfect["ndcg_ppm"].iloc[0]) == 1_000_000


def test_inverted_index_pruned_read(ray_session, tmp_path):
    """The AND lookup reads ONLY the query terms' shard partitions:
    corrupting every OTHER shard's files does not change the answer —
    proof the pruning happens at the source, not post-read."""
    import os
    import shutil

    import numpy as np
    import pandas as pd

    from tensorflow_ocr_ray.functions.textstats import _md5_prefix_batch
    from tensorflow_ocr_ray.pipelines.search import (
        BM25_TERMS,
        IDX_N_SHARDS,
        build_inverted_index,
        inverted_index_and,
    )

    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": ["scan join filter x",
                 "scan join y",          # no filter -> excluded
                 "filter join scan scan",
                 "z z z"],
    })
    df.to_parquet(tmp_path / "documents.parquet")
    idx = str(tmp_path / "idx")
    n = build_inverted_index(str(tmp_path), idx, IDX_N_SHARDS)
    assert n >= 1
    with open(os.path.join(idx, "_SUCCESS"), "w") as f:
        f.write("ok")
    # plant the prebuilt index where cache.build_once will find it
    from tensorflow_ocr_ray import cache
    fp = cache.table_fingerprint(str(tmp_path), "documents")
    cached = os.path.join(cache.INDEX_ROOT, f"inv{IDX_N_SHARDS}-{fp}")
    shutil.rmtree(cached, ignore_errors=True)
    os.makedirs(cache.INDEX_ROOT, exist_ok=True)
    shutil.copytree(idx, cached)
    # corrupt every shard the query does NOT need
    need = {int(h % np.uint64(IDX_N_SHARDS))
            for h in _md5_prefix_batch(list(BM25_TERMS), 8).astype(np.uint64)}
    for d in os.listdir(cached):
        if d.startswith("shard=") and int(d.split("=")[1]) not in need:
            for f in os.listdir(os.path.join(cached, d)):
                with open(os.path.join(cached, d, f), "wb") as fh:
                    fh.write(b"NOT A PARQUET FILE")
    out = inverted_index_and(str(tmp_path)).to_pandas()
    got = dict(zip(out["doc_id"].astype(int), out["tf_total"].astype(int)))
    assert got == {1: 3, 3: 4}
    shutil.rmtree(cached, ignore_errors=True)


def test_ann_topk_filtered_empty_predicate(ray_session):
    """A label matching nothing returns the typed EMPTY frame (the
    pre-filter contract: never backfill with out-of-predicate rows)."""
    from tensorflow_ocr_ray.pipelines.similarity import ann_topk_filtered

    out = ann_topk_filtered("/root/testdata/sf0.001", label=999)
    assert len(out) == 0
    assert list(out.columns) == ["vec_id", "sim"]
    assert str(out["vec_id"].dtype) == "int64"
