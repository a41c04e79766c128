"""Corpus-curation operators: decontamination, repetition stats,
hash split/sampling, PII scrub, sequence packing, tf-idf top terms.

Each operator also has a DuckDB oracle in ``__ray_entry__.oracle_sql()``
(checked by tools/check_oracle.py and the driver); these tests cover
semantics against hand-built corpora and single-process re-derivations,
plus the partitioning-invariance properties the distributed plans rely
on.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pandas as pd
import pytest

from tensorflow_ocr_ray.functions.textstats import _md5_64, split_tokens
from tensorflow_ocr_ray.pipelines.curation import (
    DEFAULT_RATE,
    SPLIT_RATES,
    _char_kgrams,
    hash_split_batch,
    inject_pii,
    pii_scrub_batch,
    repetition_stats_batch,
)

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    """doc 0 is the benchmark (doc_id % 41 == 0); doc 1 shares a >=20-char
    span with it; doc 2 is unrelated."""
    d = tmp_path_factory.mktemp("curation")
    shared = "the quick brown fox jumps over the lazy dog tonight"
    df = pd.DataFrame(
        {
            "doc_id": [0, 1, 2],
            "text": [
                f"benchmark prompt: {shared} end of benchmark",
                f"training doc copies {shared} plus extra words",
                "completely different content with no overlap at all here",
            ],
            "lang": ["en", "en", "de"],
            "source": ["s0", "s1", "s2"],
            "n_chars": [0, 0, 0],
        }
    )
    df["n_chars"] = df["text"].str.len()
    df.to_parquet(d / "documents.parquet")
    return str(d)


def test_decontaminate_flags_overlap(ray_session, tiny_corpus):
    from tensorflow_ocr_ray.pipelines.curation import decontaminate

    out = decontaminate(tiny_corpus).to_pandas().set_index("doc_id")
    assert 0 not in out.index  # benchmark docs are excluded
    assert bool(out.loc[1, "contaminated"])
    assert not bool(out.loc[2, "contaminated"])
    # hit count == distinct shared 20-grams, computed directly
    g0 = set(_char_kgrams(
        "benchmark prompt: the quick brown fox jumps over the lazy dog"
        " tonight end of benchmark", 20))
    g1 = set(_char_kgrams(
        "training doc copies the quick brown fox jumps over the lazy dog"
        " tonight plus extra words", 20))
    assert out.loc[1, "n_hits"] == len(g0 & g1) > 0


def test_decontaminate_real_corpus(ray_session):
    from tensorflow_ocr_ray.pipelines.curation import decontaminate

    out = decontaminate(SF).to_pandas()
    assert (out["doc_id"] % 41 != 0).all()
    assert (out["contaminated"] == (out["n_hits"] > 0)).all()
    # the corpus has real near-dups, so decontamination must fire
    assert out["contaminated"].any()


def test_repetition_stats_known_text():
    df = pd.DataFrame(
        {"doc_id": [0, 1, 2],
         "text": ["a a a b", "x y", ""]}
    )
    out = repetition_stats_batch(df).set_index("doc_id")
    # doc 0: toks [a,a,a,b] -> top uni 3/4; 2-grams [a a, a a, a b] ->
    # top 2/3; 3-grams [a a a, a a b] -> none repeated -> 0
    assert out.loc[0, "top_unigram_frac"] == 3 / 4
    assert out.loc[0, "top_bigram_frac"] == 2 / 3
    assert out.loc[0, "dup_trigram_frac"] == 0.0
    # doc 1: no 3-grams, one 2-gram
    assert out.loc[1, "top_unigram_frac"] == 1 / 2
    assert out.loc[1, "top_bigram_frac"] == 1.0
    # doc 2: empty -> all zeros
    assert (out.loc[2] == 0.0).all()


def test_repetition_dup_trigram_fires():
    text = "p q r p q r p q r"  # 3-gram 'p q r' occurs 3x of 7 grams
    out = repetition_stats_batch(
        pd.DataFrame({"doc_id": [0], "text": [text]})
    )
    toks = text.split()
    g3 = [" ".join(toks[i:i + 3]) for i in range(len(toks) - 2)]
    c = Counter(g3)
    want = sum(v for v in c.values() if v > 1) / len(g3)
    assert out.loc[0, "dup_trigram_frac"] == want > 0


def test_hash_split_deterministic_and_stratified():
    df = pd.DataFrame(
        {"doc_id": np.arange(2000), "lang": ["en", "de", "fr", "zh"] * 500}
    )
    a = hash_split_batch(df)
    b = hash_split_batch(df.sample(frac=1, random_state=0))  # any order
    merged = a.merge(b, on="doc_id", suffixes=("", "_b"))
    assert (merged["bucket"] == merged["bucket_b"]).all()
    assert (merged["split"] == merged["split_b"]).all()
    # bucket is the documented md5 function of doc_id alone
    assert (
        a["bucket"] == a["doc_id"].map(lambda d: _md5_64(str(d)) % 100)
    ).all()
    # split thresholds
    assert (a.loc[a["bucket"] < 80, "split"] == "train").all()
    assert (a.loc[a["bucket"] >= 90, "split"] == "test").all()
    # stratified rates: en keeps everything, zh keeps ~20%
    en = a[a["lang"] == "en"]
    zh = a[a["lang"] == "zh"]
    assert en["sampled"].all()
    assert 0.05 < zh["sampled"].mean() < 0.4
    # sampling is a pure function of (bucket, lang)
    for lg, grp in a.groupby("lang"):
        rate = SPLIT_RATES.get(lg, DEFAULT_RATE)
        assert (grp["sampled"] == (grp["bucket"] < rate)).all()


def test_pii_scrub_removes_everything():
    df = pd.DataFrame(
        {"doc_id": [7, 123], "text": ["hello world", "plain text"]}
    )
    out = pii_scrub_batch(df)
    for _, row in out.iterrows():
        assert "<EMAIL>" in row["scrubbed"]
        assert "<IP>" in row["scrubbed"]
        assert "<PHONE>" in row["scrubbed"]
        assert "@" not in row["scrubbed"]
        assert row["n_emails"] == 1
        assert row["n_ips"] == 1
        assert row["n_phones"] == 1
    # the injected text round-trips: original words survive scrubbing
    assert out.loc[0, "scrubbed"].startswith("hello world ")


def test_pii_patterns_in_running_text():
    t = "write to a.b+c@x-corp.co.uk; server 192.168.0.1, call 212-555-0199."
    df = pd.DataFrame({"doc_id": [0], "text": [t]})
    row = pii_scrub_batch(df).iloc[0]
    assert "a.b+c@x-corp.co.uk" not in row["scrubbed"]
    assert "192.168.0.1" not in row["scrubbed"]
    assert "212-555-0199" not in row["scrubbed"]
    assert row["n_emails"] == 2  # injected + in-text
    assert row["n_ips"] == 2
    assert row["n_phones"] == 2


def test_inject_pii_is_deterministic():
    assert inject_pii(3, "x") == inject_pii(3, "x")
    assert inject_pii(3, "x") != inject_pii(4, "x")


def test_pack_sequences_matches_single_process(ray_session):
    from tensorflow_ocr_ray.pipelines.curation import pack_sequences

    out = (
        pack_sequences(SF, capacity=512)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text"]).sort_values("doc_id")
    toks = docs["text"].map(lambda t: len(split_tokens(t))).values
    cume = np.cumsum(toks) - toks
    assert (out["tokens"].values == toks).all()
    assert (out["chunk_id"].values == cume // 512).all()
    assert (out["chunk_offset"].values == cume % 512).all()
    assert (out["chunk_offset"] < 512).all()


def test_pack_sequences_shard_invariant(ray_session):
    """The distributed prefix-sum must not depend on the shard size."""
    from tensorflow_ocr_ray.pipelines.curation import pack_sequences

    a = (pack_sequences(SF, capacity=777, shard_size=64)
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    b = (pack_sequences(SF, capacity=777, shard_size=100000)
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)


def test_tfidf_matches_single_process(ray_session):
    from tensorflow_ocr_ray.pipelines.curation import tfidf_top_terms

    out = (
        tfidf_top_terms(SF)
        .to_pandas()
        .sort_values(["doc_id", "rank"])
        .reset_index(drop=True)
    )
    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text"])
    n = len(docs)
    cnt_rows = []
    for doc_id, text in zip(docs["doc_id"], docs["text"]):
        toks = [t for t in split_tokens(text.lower()) if t]
        for tok, c in Counter(toks).items():
            cnt_rows.append((doc_id, tok, c))
    cnts = pd.DataFrame(cnt_rows, columns=["doc_id", "token", "cnt"])
    df_tbl = cnts.groupby("token")["doc_id"].size()
    cnts["score"] = (cnts["cnt"].values.astype(np.int64) * n) / cnts[
        "token"
    ].map(df_tbl).values.astype(np.int64)
    cnts = cnts.sort_values(["doc_id", "score", "token"],
                            ascending=[True, False, True])
    cnts["rank"] = cnts.groupby("doc_id").cumcount() + 1
    want = (cnts[cnts["rank"] <= 3][["doc_id", "token", "score", "rank"]]
            .reset_index(drop=True))
    pd.testing.assert_frame_equal(
        out, want.astype({"doc_id": "int64", "rank": "int64"})
    )


def test_source_gate_filters_low_mean_sources(ray_session, tmp_path):
    from tensorflow_ocr_ray.pipelines.curation import source_gate

    long = " ".join(["w"] * 80)
    short = "just a few words"
    df = pd.DataFrame(
        {
            "doc_id": [0, 1, 2, 3],
            "text": [long, long, short, short],
            "lang": ["en"] * 4,
            "source": ["good", "good", "spam", "spam"],
            "n_chars": [len(long), len(long), len(short), len(short)],
        }
    )
    df.to_parquet(tmp_path / "documents.parquet")
    out = source_gate(str(tmp_path)).to_pandas()
    assert set(out["source"]) == {"good"}
    assert sorted(out["doc_id"]) == [0, 1]
    assert (out["source_mean_tokens"] == 80.0).all()


def test_dup_span_coverage_marks_shared_spans(ray_session, tmp_path):
    from tensorflow_ocr_ray.pipelines.curation import dup_span_coverage

    shared = "x" * 30 + " shared duplicated span content " + "y" * 30
    assert len(shared) >= 50
    df = pd.DataFrame(
        {
            "doc_id": [0, 1, 2],
            "text": [
                f"prefix alpha {shared} suffix one",
                f"different beta {shared} other tail",
                "totally unique text with nothing repeated anywhere at "
                "all in this document body",
            ],
            "lang": ["en"] * 3,
            "source": ["s"] * 3,
            "n_chars": [0, 0, 0],
        }
    )
    df["n_chars"] = df["text"].str.len()
    df.to_parquet(tmp_path / "documents.parquet")
    out = (
        dup_span_coverage(str(tmp_path))
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert len(out) == 3
    # docs 0/1 share a >=50-char span -> nonzero coverage; doc 2 clean
    assert out.loc[0, "covered_chars"] >= len(shared)
    assert out.loc[1, "covered_chars"] >= len(shared)
    assert out.loc[2, "dup_positions"] == 0
    assert out.loc[2, "coverage"] == 0.0
    assert (out["coverage"] <= 1.0).all()


def test_vocab_topk_matches_single_process(ray_session):
    from tensorflow_ocr_ray.pipelines.curation import vocab_topk

    out = vocab_topk(SF).reset_index(drop=True)
    docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["text"])
    c: Counter = Counter()
    for text in docs["text"]:
        c.update(t for t in split_tokens(text.lower()) if t)
    want = (
        pd.DataFrame(sorted(c.items()), columns=["token", "cnt"])
        .sort_values(["cnt", "token"], ascending=[False, True])
        .head(100)
        .reset_index(drop=True)
    )
    want["rank"] = np.arange(1, len(want) + 1)
    pd.testing.assert_frame_equal(
        out, want.astype({"cnt": "int64", "rank": "int64"})
    )


def test_length_percentile_gate_matches_quantile_disc(ray_session):
    import duckdb

    from tensorflow_ocr_ray.pipelines.curation import (
        length_percentile_gate,
    )

    out = (
        length_percentile_gate(SF)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    want = duckdb.sql(
        f"""
        WITH q AS (
          SELECT lang, quantile_disc(n_chars, 0.05) AS lo,
                 quantile_disc(n_chars, 0.95) AS hi
          FROM '{SF}/documents.parquet' GROUP BY lang
        )
        SELECT d.doc_id, d.lang, d.n_chars,
               q.lo AS lang_lo, q.hi AS lang_hi
        FROM '{SF}/documents.parquet' d JOIN q USING (lang)
        WHERE d.n_chars BETWEEN q.lo AND q.hi
        ORDER BY d.doc_id
        """
    ).df()
    pd.testing.assert_frame_equal(out, want.astype(out.dtypes.to_dict()))


def test_gopher_gate_rules_fire():
    from tensorflow_ocr_ray.pipelines.curation import gopher_gate_batch

    df = pd.DataFrame(
        {
            "doc_id": [0, 1, 2],
            "text": [
                "too short",
                " ".join(["spam"] * 30),             # unigram-repetitive
                " ".join(f"w{i}" for i in range(40)),  # clean
            ],
        }
    )
    out = gopher_gate_batch(df).set_index("doc_id")
    assert out.loc[0, "fail_reason"] == "too_short"
    assert out.loc[1, "fail_reason"] == "repetitive_unigram"
    assert out.loc[2, "fail_reason"] == "kept"
    assert out["passed"].tolist() == [0, 0, 1]


def test_gopher_gate_discriminates_on_corpus(ray_session):
    from tensorflow_ocr_ray.pipelines.curation import gopher_gate

    out = gopher_gate(SF).to_pandas()
    counts = out["fail_reason"].value_counts()
    assert counts.get("kept", 0) > 0
    assert (out["passed"] == 0).sum() > 0  # some docs rejected


def test_doc_rarity_hand_computed(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from tensorflow_ocr_ray.pipelines.curation import doc_rarity

    # df: a->3 docs, b->2, c->1 over distinct tokens per doc
    docs = pa.Table.from_pylist(
        [
            {"doc_id": 0, "text": "a b", "lang": "en", "source": "s",
             "n_chars": 3},
            {"doc_id": 1, "text": "a a b", "lang": "en", "source": "s",
             "n_chars": 5},
            {"doc_id": 2, "text": "a c", "lang": "en", "source": "s",
             "n_chars": 3},
        ]
    )
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    out = doc_rarity(str(tmp_path)).to_pandas().set_index("doc_id").sort_index()
    assert out.loc[0, "sum_df"] == 5 and out.loc[0, "n_tokens"] == 2
    assert out.loc[1, "sum_df"] == 5 and out.loc[1, "n_tokens"] == 2
    assert out.loc[2, "sum_df"] == 4
    assert out.loc[2, "mean_df"] == 2.0


def test_mixture_rebalance_uniform_quota(ray_session):
    from tensorflow_ocr_ray.pipelines.curation import mixture_rebalance

    out = mixture_rebalance(SF).to_pandas()
    by_lang = out.groupby("lang").agg(
        n=("doc_id", "size"), kept=("kept", "sum")
    )
    quota = by_lang["n"].min()
    # the smallest language is kept in full (rate == 1)
    smallest = by_lang["n"].idxmin()
    assert by_lang.loc[smallest, "kept"] == by_lang.loc[smallest, "n"]
    # every language's kept count lands near the quota (md5 buckets are
    # uniform; tolerance covers small-sample noise)
    assert (abs(by_lang["kept"] - quota) <= 0.5 * quota + 3).all()
    # membership is a pure function of the row: rerun agrees exactly
    again = mixture_rebalance(SF).to_pandas()
    pd.testing.assert_frame_equal(
        out.sort_values("doc_id").reset_index(drop=True),
        again.sort_values("doc_id").reset_index(drop=True),
    )


def test_source_topk_docs_matches_pandas(ray_session):
    import pyarrow.parquet as pq

    from tensorflow_ocr_ray.pipelines.curation import source_topk_docs

    docs = pq.read_table(
        f"{SF}/documents.parquet", columns=["doc_id", "source", "n_chars"]
    ).to_pandas()
    want = docs.sort_values(
        ["source", "n_chars", "doc_id"], ascending=[True, False, True]
    )
    want = want[want.groupby("source").cumcount() < 3].copy()
    want["rank"] = want.groupby("source").cumcount() + 1

    out = source_topk_docs(SF).to_pandas().sort_values(
        ["source", "rank"]
    ).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        out,
        want[["source", "doc_id", "n_chars", "rank"]]
        .reset_index(drop=True)
        .astype(out.dtypes.to_dict()),
    )


def test_curation_pipeline_composes_the_pieces(ray_session):
    from tensorflow_ocr_ray.pipelines.curation import (
        PACK_CAPACITY,
        curation_pipeline,
        gopher_gate,
    )
    from tensorflow_ocr_ray.pipelines.dedup import dedup_keep_list

    out = (
        curation_pipeline(SF).to_pandas().sort_values("doc_id")
        .reset_index(drop=True)
    )
    kept = dedup_keep_list(SF).to_pandas()
    gate = gopher_gate(SF).to_pandas()
    want_ids = sorted(
        set(kept[kept["kept"] == 1]["doc_id"])
        & set(gate[gate["passed"] == 1]["doc_id"])
    )
    assert out["doc_id"].tolist() == want_ids

    # chunk assignment is the exclusive prefix-sum of the survivors
    toks = gate.set_index("doc_id").loc[want_ids, "tokens"].to_numpy()
    cume = np.cumsum(toks) - toks
    assert (out["chunk_id"].to_numpy() == cume // PACK_CAPACITY).all()
    assert (out["chunk_offset"].to_numpy() == cume % PACK_CAPACITY).all()


def test_corr_quantity_price_limbs(ray_session):
    """Limb-split exact moments == numpy corrcoef over the raw columns
    (to 1e-9) — proves the hi/lo 32-bit reassembly loses nothing."""
    import pandas as pd
    from tensorflow_ocr_ray.pipelines.relational import (
        corr_quantity_price,
    )

    sf = "/root/testdata/sf0.001"
    got = corr_quantity_price(sf).set_index("l_returnflag")
    df = pd.read_parquet(
        f"{sf}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_extendedprice"],
    )
    for t, g in df.groupby("l_returnflag"):
        import numpy as np

        q = g["l_quantity"].to_numpy()
        p = np.round(g["l_extendedprice"].to_numpy() * 100.0)
        want = np.corrcoef(q, p)[0, 1]
        assert abs(got.loc[t, "corr_qty_price"] - want) < 1e-5
        assert got.loc[t, "n"] == len(g)


def test_frequent_trigrams_brute(ray_session):
    """Gram-sharded heavy hitters == a driver-side brute count over the
    same tokenizer (every surviving gram has its exact global count)."""
    import pandas as pd
    from collections import Counter
    from tensorflow_ocr_ray.functions.textstats import split_tokens
    from tensorflow_ocr_ray.pipelines.curation import (
        frequent_trigrams, _word_grams,
    )

    sf = "/root/testdata/sf0.001"
    got = frequent_trigrams(sf).to_pandas()
    c = Counter()
    for text in pd.read_parquet(f"{sf}/documents.parquet",
                                columns=["text"])["text"]:
        toks = [t for t in split_tokens(text.lower()) if t]
        c.update(_word_grams(toks, 3))
    want = {g: n for g, n in c.items() if n >= 5}
    assert dict(zip(got["gram"], got["n"])) == want


def test_token_explode_positions(ray_session):
    """Per-doc ordinals are 1..n_tokens and the token at each position
    matches the shared tokenizer."""
    import pandas as pd
    from tensorflow_ocr_ray.functions.textstats import split_tokens
    from tensorflow_ocr_ray.pipelines.curation import token_explode

    sf = "/root/testdata/sf0.001"
    got = token_explode(sf).to_pandas()
    docs = pd.read_parquet(f"{sf}/documents.parquet",
                           columns=["doc_id", "text"])
    by_doc = {d: g.sort_values("pos") for d, g in got.groupby("doc_id")}
    for _, r in docs.head(50).iterrows():
        toks = [t for t in split_tokens(r["text"].lower()) if t]
        g = by_doc[r["doc_id"]]
        assert g["pos"].tolist() == list(range(1, len(toks) + 1))
        assert g["token"].tolist() == toks


def test_priority_sample_is_global_bottom_n(ray_session):
    """Local-heads merge == the true global bottom-100 by md5(doc_id)
    (superset argument), and the sample is scan-order-free."""
    import hashlib
    import pandas as pd
    from tensorflow_ocr_ray.pipelines.curation import priority_sample

    sf = "/root/testdata/sf0.001"
    got = priority_sample(sf)
    ids = pd.read_parquet(f"{sf}/documents.parquet",
                          columns=["doc_id"])["doc_id"]
    want = sorted(
        (hashlib.md5(str(int(d)).encode()).hexdigest(), int(d))
        for d in ids
    )[:100]
    assert list(zip(got["h"], got["doc_id"])) == want


def test_spearman_matches_scipy_style(ray_session):
    """Limb-split rank-moment rho == pandas' spearman (tie-aware) to
    1e-6 on the real corpus."""
    import pandas as pd
    from tensorflow_ocr_ray.functions.textstats import token_count
    from tensorflow_ocr_ray.pipelines.curation import spearman_rank_corr

    sf = "/root/testdata/sf0.001"
    got = spearman_rank_corr(sf)
    df = pd.read_parquet(f"{sf}/documents.parquet",
                         columns=["n_chars", "text"])
    df["tok"] = df["text"].map(token_count)
    rx = df["n_chars"].rank(method="average")
    ry = df["tok"].rank(method="average")
    want = rx.corr(ry)  # Pearson over tie-averaged ranks == Spearman
    assert abs(got["spearman_rho"].iloc[0] - want) < 1e-6
    assert got["n"].iloc[0] == len(df)


def test_token_count_batch_parity():
    """Vectorized Arrow token counting == the scalar token_count on the
    corpus plus whitespace edge cases (empty, all-space, tabs/newlines)."""
    import numpy as np
    import pyarrow.parquet as pq

    from tensorflow_ocr_ray.functions.textstats import (
        token_count,
        token_count_batch,
    )

    texts = (
        pq.read_table(
            "/root/testdata/sf0.001/documents.parquet", columns=["text"]
        ).column("text").to_pylist()
    )
    texts += ["", "  ", "a", " a  b\tc\nd ", "one two", "\t\n"]
    np.testing.assert_array_equal(
        token_count_batch(texts),
        np.array([token_count(t) for t in texts], dtype=np.int64),
    )


def test_ngram_lm_score_hand_corpus(ray_session, tmp_path):
    """Hand-checkable bigram LM: corpus 'a b', 'a b', 'a c' ->
    c1(a)=3, ppm(a,b)=666666, ppm(a,c)=333333; doc scores follow
    exactly (integer floors both sides)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from tensorflow_ocr_ray.pipelines.curation import ngram_lm_score

    pq.write_table(
        pa.table({"doc_id": [1, 2, 3], "text": ["a b", "a b", "a c"]}),
        tmp_path / "documents.parquet",
    )
    got = (ngram_lm_score(str(tmp_path)).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert got["n_bigrams"].tolist() == [1, 1, 1]
    assert got["score_ppm"].tolist() == [666666, 666666, 333333]


def test_ngram_lm_score_empty_and_single_token(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from tensorflow_ocr_ray.pipelines.curation import ngram_lm_score

    pq.write_table(
        pa.table({"doc_id": [1, 2], "text": ["", "solo"]}),
        tmp_path / "documents.parquet",
    )
    got = (ngram_lm_score(str(tmp_path)).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert got["n_bigrams"].tolist() == [0, 0]
    assert got["score_ppm"].tolist() == [0, 0]


def test_dsir_importance_truth(ray_session):
    """Independent pandas re-derivation of the DSIR screening: hashed
    buckets, smoothed ppm mass, ratio rule — no SQL involved."""
    import hashlib

    import numpy as np
    import pandas as pd

    from tensorflow_ocr_ray.pipelines.curation import (
        DSIR_BUCKETS,
        DSIR_TARGET_LANG,
        dsir_importance_weights,
    )

    sf = "/root/testdata/sf0.001"
    got = dsir_importance_weights(sf).to_pandas().set_index("doc_id")
    raw = pd.read_parquet(f"{sf}/documents.parquet",
                          columns=["doc_id", "lang", "text"])

    def bucket(tok: str) -> int:
        return int.from_bytes(
            hashlib.md5(tok.encode()).digest()[:4], "big") % DSIR_BUCKETS

    tc = np.zeros(DSIR_BUCKETS, dtype=np.int64)
    rc = np.zeros(DSIR_BUCKETS, dtype=np.int64)
    per_doc = {}
    for _, row in raw.iterrows():
        bs = [bucket(t) for t in row["text"].split(" ")]
        per_doc[row["doc_id"]] = bs
        for b in bs:
            rc[b] += 1
            if row["lang"] == DSIR_TARGET_LANG:
                tc[b] += 1
    ppm_t = (tc + 1) * 1_000_000 // (tc.sum() + DSIR_BUCKETS)
    ppm_r = (rc + 1) * 1_000_000 // (rc.sum() + DSIR_BUCKETS)

    sel_count = 0
    for doc_id, bs in per_doc.items():
        st = int(ppm_t[bs].sum())
        sr = int(ppm_r[bs].sum())
        g = got.loc[doc_id]
        assert (int(g.n_tokens), int(g.sum_t_ppm), int(g.sum_r_ppm)) \
            == (len(bs), st, sr)
        assert int(g.ratio_milli) == st * 1000 // sr
        sel_count += int(g.selected)
    # the rule actually separates: some selected, some not
    assert 0 < sel_count < len(per_doc)


def test_lm_score_terciles_reproduce_ntile(ray_session):
    """rank*3//N inside value-range shards == NTILE(3) over the global
    (score, doc_id) order — verified against a local sort."""
    import numpy as np

    from tensorflow_ocr_ray.pipelines.curation import lm_score_terciles

    got = lm_score_terciles("/root/testdata/sf0.001").to_pandas()
    n = len(got)
    assert n == 500
    order = got.sort_values(["score_ppm", "doc_id"]).reset_index(
        drop=True)
    want = (np.arange(n, dtype=np.int64) * 3) // n
    assert (order["tercile"].to_numpy() == want).all()
    sizes = got["tercile"].value_counts()
    assert sizes.max() - sizes.min() <= 1


def test_span_corruption_masks_hand_check(ray_session):
    import pandas as pd

    from tensorflow_ocr_ray.pipelines.curation import (
        MASK_LEN,
        MASK_STRIDE,
        span_corruption_masks,
    )

    sf = "/root/testdata/sf0.001"
    got = span_corruption_masks(sf).to_pandas()
    raw = pd.read_parquet(f"{sf}/documents.parquet",
                          columns=["doc_id", "text"]).set_index("doc_id")
    assert len(got) > 0
    for _, r in got.head(200).iterrows():
        toks = raw.loc[r["doc_id"], "text"].split(" ")
        assert r["end_tok"] - r["start_tok"] == MASK_LEN
        assert r["start_tok"] % MASK_STRIDE == \
            (r["doc_id"] % 4 + r["span_idx"] * MASK_STRIDE) % MASK_STRIDE
        assert r["masked_text"] == " ".join(
            toks[r["start_tok"]:r["end_tok"]])


def test_paragraph_dedup_keep_first_and_reassembly(ray_session, tmp_path):
    """Planted duplicate paragraphs: the first (doc_id, chunk_idx)
    occurrence survives, later copies are removed (including a repeat
    WITHIN one doc), and kept_text is the in-order join of survivors."""
    from tensorflow_ocr_ray.pipelines.curation import (
        PARA_TOKENS,
        paragraph_dedup,
    )

    assert PARA_TOKENS == 8
    dup = "d1 d2 d3 d4 d5 d6 d7 d8"          # one exact 8-token chunk
    uniq0 = "a1 a2 a3 a4 a5 a6 a7 a8"
    uniq1 = "b1 b2 b3 b4 b5 b6 b7 b8"
    df = pd.DataFrame(
        {
            "doc_id": [0, 1, 2, 3],
            "text": [
                f"{dup} {uniq0} {dup}",       # doc0: dup, uniq0, dup-again
                f"{uniq1} {dup}",             # doc1: uniq1, dup (removed)
                "short tail",                 # doc2: one partial chunk
                "",                           # doc3: empty -> 0 chunks
            ],
            "lang": ["en"] * 4,
            "source": ["s"] * 4,
            "n_chars": [0, 0, 0, 0],
        }
    )
    df.to_parquet(tmp_path / "documents.parquet")
    out = (
        paragraph_dedup(str(tmp_path))
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert len(out) == 4
    # doc0 keeps its FIRST dup copy; the in-doc repeat is removed
    assert out.loc[0, "n_chunks"] == 3
    assert out.loc[0, "n_removed"] == 1
    assert out.loc[0, "kept_text"] == f"{dup} {uniq0}"
    # doc1's dup copy loses to doc0's
    assert out.loc[1, "n_chunks"] == 2
    assert out.loc[1, "n_removed"] == 1
    assert out.loc[1, "kept_text"] == uniq1
    # partial tail chunk is its own paragraph, unique -> kept
    assert out.loc[2, "n_chunks"] == 1
    assert out.loc[2, "n_removed"] == 0
    assert out.loc[2, "kept_text"] == "short tail"
    # empty doc present with zero chunks
    assert out.loc[3, "n_chunks"] == 0
    assert out.loc[3, "kept_text"] == ""


def test_heaps_growth_monotone_and_total(ray_session):
    """Vocab and token curves are nondecreasing; the last checkpoint
    equals the whole-corpus totals."""
    from tensorflow_ocr_ray.pipelines.curation import (
        heaps_vocab_growth,
        vocab_topk,
    )

    sf = "/root/testdata/sf0.001"
    got = heaps_vocab_growth(sf)
    assert (got["vocab_size"].diff().dropna() >= 0).all()
    assert (got["total_tokens"].diff().dropna() >= 0).all()
    assert int(got["docs"].iloc[-1]) == 500
    # full-corpus vocab equals the distinct-token universe the
    # vocab_topk shard counts see
    import zlib

    from tensorflow_ocr_ray.pipelines.curation import hapax_stats

    hs = hapax_stats(sf)
    assert int(got["vocab_size"].iloc[-1]) == int(
        hs.loc[hs["source"] == "__all__", "vocab"].iloc[0])


def test_token_entropy_bounds(ray_session):
    """0 <= E_ppm <= lut[N] (max-entropy bound) for every doc."""
    from tensorflow_ocr_ray.pipelines.curation import (
        _log2_lut_ppm,
        token_entropy,
    )

    got = token_entropy("/root/testdata/sf0.001").to_pandas()
    lut = _log2_lut_ppm()
    assert (got["entropy_ppm"] >= 0).all()
    assert (got["entropy_ppm"] <= lut[got["n_tokens"].to_numpy()]).all()


def test_score_calibration_bins_invariants(ray_session):
    """Bin totals reconcile with the corpus; rates are exact integer
    ppm of the in-bin counts; bins are clamped to [0, 9]."""
    import pandas as pd

    from tensorflow_ocr_ray.pipelines.curation import (
        score_calibration_bins,
    )

    sf = "/root/testdata/sf0.001"
    out = score_calibration_bins(sf)
    docs = pd.read_parquet(f"{sf}/documents.parquet", columns=["doc_id"])
    assert out["n"].sum() == len(docs)
    assert out["bin"].between(0, 9).all()
    assert (out["score_lo"] == 3000 + out["bin"] * 400).all()
    assert (out["gold_rate_ppm"]
            == out["n_gold_pass"] * 1_000_000 // out["n"]).all()
    assert (out["pred_rate_ppm"]
            == out["n_pred_pass"] * 1_000_000 // out["n"]).all()
    assert (out["n_gold_pass"] <= out["n"]).all()
    assert (out["n_pred_pass"] <= out["n"]).all()
    # the model's threshold (5000) makes pred_rate a step function of
    # the bin: bins entirely below 5000 predict 0, above predict 1e6
    lo = out[out["score_lo"] + 400 <= 5000]
    hi = out[out["score_lo"] >= 5000]
    assert (lo["pred_rate_ppm"] == 0).all()
    assert (hi["pred_rate_ppm"] == 1_000_000).all()
