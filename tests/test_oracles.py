"""Driver-style oracle checks run in-repo: the Ray pipeline and its
DuckDB oracle SQL must agree (rows + values) at sf0.001.  The driver
does this at sf0.01; this guards the oracles between rounds for the
entries most likely to drift (generated SQL with injected constants)."""

import duckdb
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


def _run_oracle(sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{SF}/documents.parquet')"
    )
    return con.execute(sql).fetchdf()


def test_every_query_has_an_oracle_or_is_rows_only():
    """The registry hygiene gate: each query has an oracle or is listed in
    ROWS_ONLY (never both), so a new query cannot skip its oracle."""
    import __ray_entry__ as e

    oracles = set(e.oracle_sql())
    assert set(e.queries()) == oracles | e.ROWS_ONLY
    assert not oracles & e.ROWS_ONLY


def test_minhash_verified_pairs_oracle(ray_session):
    import __ray_entry__ as e

    got = e.queries()["minhash_verified_pairs"](SF)
    if hasattr(got, "to_pandas"):
        got = got.to_pandas()
    orc = _run_oracle(e.oracle_sql()["minhash_verified_pairs"])
    got = got.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    orc = orc.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    assert len(got) > 0  # fixture corpus must actually contain near-dups
    assert len(got) == len(orc)
    assert (got["doc_a"].to_numpy() == orc["doc_a"].to_numpy()).all()
    assert (got["doc_b"].to_numpy() == orc["doc_b"].to_numpy()).all()
    # raw IEEE doubles on both sides -> bit-identical
    assert (got["sim"].to_numpy() == orc["sim"].to_numpy()).all()


def _events_con():
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW events AS SELECT * FROM "
        f"read_parquet('{SF}/events.parquet')"
    )
    return con


def test_q16_histogram_refinement_exact(ray_session):
    """collect_limit small enough to force multiple histogram rounds;
    result must still equal DuckDB quantile_disc exactly."""
    from tensorflow_ocr_ray.pipelines.relational import q16_event_quantiles

    orc = _events_con().execute(
        "SELECT event_type, quantile_disc(value, 0.5) AS p50, "
        "quantile_disc(value, 0.9) AS p90 "
        "FROM events GROUP BY event_type ORDER BY event_type"
    ).fetchdf()
    got = q16_event_quantiles(SF, n_bins=16, collect_limit=8, max_rounds=8)
    assert got["event_type"].tolist() == orc["event_type"].tolist()
    assert (got["p50"].to_numpy() == orc["p50"].to_numpy()).all()
    assert (got["p90"].to_numpy() == orc["p90"].to_numpy()).all()


def test_q15_sharded_finalize(ray_session):
    from tensorflow_ocr_ray.pipelines.relational import q15_active_users

    orc = _events_con().execute(
        "SELECT user_id, count(*) AS events, "
        "CAST(sum(CAST(round(value*100) AS BIGINT)) AS BIGINT) AS "
        "total_value_cents FROM events GROUP BY user_id "
        "HAVING count(*) >= 5 ORDER BY user_id"
    ).fetchdf()
    got = q15_active_users(SF, min_events=5)
    assert len(got) == len(orc) > 0
    assert (got["user_id"].to_numpy() == orc["user_id"].to_numpy()).all()
    assert (got["events"].to_numpy() == orc["events"].to_numpy()).all()
    assert (got["total_value_cents"].to_numpy()
            == orc["total_value_cents"].to_numpy()).all()


def test_minhash_dedup_oracle(ray_session):
    import __ray_entry__ as e

    got = e.queries()["minhash_dedup"](SF)
    if hasattr(got, "to_pandas"):
        got = got.to_pandas()
    orc = _run_oracle(e.oracle_sql()["minhash_dedup"])
    got = got.sort_values("doc_id").reset_index(drop=True)
    orc = orc.sort_values("doc_id").reset_index(drop=True)
    assert len(got) > 0 and len(got) == len(orc)
    assert (got["doc_id"].to_numpy() == orc["doc_id"].to_numpy()).all()
    assert (got["cluster_rep"].to_numpy()
            == orc["cluster_rep"].to_numpy()).all()


def test_ann_topk_lsh_oracle(ray_session):
    import __ray_entry__ as e

    got = e.queries()["ann_topk_lsh"](SF)
    if hasattr(got, "to_pandas"):
        got = got.to_pandas()
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW embeddings AS SELECT * FROM "
        f"read_parquet('{SF}/embeddings.parquet')"
    )
    orc = con.execute(e.oracle_sql()["ann_topk_lsh"]).fetchdf()
    assert got["vec_id"].tolist() == orc["vec_id"].tolist()
    assert got["sim"].tolist() == orc["sim"].tolist()


def test_ann_topk_ivf_oracle(ray_session):
    """The IVF oracle's quantizer is corpus-dependent, so it is generated
    from the corpus it checks: ``oracle_sql(sf_dir)`` at each scale."""
    import __ray_entry__ as e

    for sf in ("/root/testdata/sf0.01", "/root/testdata/sf0.1"):
        got = e.queries()["ann_topk_ivf"](sf)
        if hasattr(got, "to_pandas"):
            got = got.to_pandas()
        con = duckdb.connect()
        con.execute(
            "CREATE VIEW embeddings AS SELECT * FROM "
            f"read_parquet('{sf}/embeddings.parquet')"
        )
        orc = con.execute(e.oracle_sql(sf)["ann_topk_ivf"]).fetchdf()
        assert got["vec_id"].tolist() == orc["vec_id"].tolist(), sf
        assert got["sim"].tolist() == orc["sim"].tolist(), sf


def test_q16_degenerate_all_equal(ray_session, tmp_path):
    """All-equal values: the histogram interval cannot shrink; the
    final collect must still return the exact quantile (the whole group
    is duplicates of one value)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from tensorflow_ocr_ray.pipelines.relational import q16_event_quantiles

    n = 5000
    t = pa.table(
        {"event_type": ["click"] * n + ["view"] * n,
         "value": [7.25] * n + [1.5] * n}
    )
    pq.write_table(t, str(tmp_path / "events.parquet"))
    got = q16_event_quantiles(str(tmp_path), n_bins=8, collect_limit=100,
                              max_rounds=3)
    assert got["event_type"].tolist() == ["click", "view"]
    assert got["p50"].tolist() == [7.25, 1.5]
    assert got["p90"].tolist() == [7.25, 1.5]


def test_embedding_dup_clusters_oracle(ray_session):
    import __ray_entry__ as e

    got = e.queries()["embedding_dup_clusters"](SF)
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW embeddings AS SELECT * FROM "
        f"read_parquet('{SF}/embeddings.parquet')"
    )
    orc = con.execute(
        e.oracle_sql()["embedding_dup_clusters"]
    ).fetchdf().sort_values("vec_id").reset_index(drop=True)
    got = got.sort_values("vec_id").reset_index(drop=True)
    assert len(got) == len(orc) > 0
    assert (got["vec_id"].to_numpy() == orc["vec_id"].to_numpy()).all()
    assert (got["cluster_rep"].to_numpy()
            == orc["cluster_rep"].to_numpy()).all()


def test_ann_topk_multi_oracle(ray_session):
    import __ray_entry__ as e

    got = e.queries()["ann_topk_multi"](SF)
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW embeddings AS SELECT * FROM "
        f"read_parquet('{SF}/embeddings.parquet')"
    )
    orc = con.execute(e.oracle_sql()["ann_topk_multi"]).fetchdf()
    key = ["query_id", "vec_id"]
    got = got.sort_values(key).reset_index(drop=True)
    orc = orc.sort_values(key).reset_index(drop=True)
    assert len(got) == len(orc) == 20  # 4 queries x k=5
    for c in ("query_id", "vec_id", "sim"):
        assert (got[c].to_numpy() == orc[c].to_numpy()).all()


@pytest.mark.parametrize(
    "name,tables",
    [
        ("user_journey", ["events"]),
        ("event_transitions", ["events"]),
        ("event_pivot", ["events"]),
        ("rollup_lineitem", ["lineitem"]),
        ("price_histogram", ["lineitem"]),
        ("winnow_dup_pairs", ["documents"]),
        ("running_total", ["events"]),
        ("range_join_orders", ["events", "orders"]),
        ("top_order_lineitems", ["orders", "lineitem"]),
        ("region_flag_revenue",
         ["lineitem", "supplier", "nation", "region"]),
        ("user_order_event_ratio", ["events", "orders"]),
        ("first_touch_attribution", ["events"]),
        ("distinct_trigram_count", ["documents"]),
        ("embedding_quantize", ["embeddings"]),
        ("winnow_dup_clusters", ["documents"]),
        ("bloom_semi_join", ["orders", "lineitem"]),
        ("first_event_per_user_day", ["events"]),
        ("user_active_streak", ["events"]),
        ("q22_region_monthly_revenue",
         ["lineitem", "orders", "customer", "nation", "region"]),
        ("above_avg_parts", ["part"]),
        ("chunk_documents", ["documents"]),
        ("event_lag_diff", ["events"]),
        ("moving_window_sum", ["events"]),
        ("ntile_events", ["events"]),
        ("median_value_cont", ["events"]),
        ("corr_quantity_price", ["lineitem"]),
        ("cube_lineitem", ["lineitem"]),
        ("frequent_trigrams", ["documents"]),
        ("token_explode", ["documents"]),
        ("ann_range_search", ["embeddings"]),
        ("kmeans_quantized", ["embeddings"]),
        ("cluster_representatives", ["embeddings"]),
        ("cluster_token_profile", ["embeddings", "documents"]),
        ("priority_sample", ["documents"]),
        ("spearman_rank_corr", ["documents"]),
        ("source_vocab_overlap", ["documents"]),
        ("doc_top_tokens", ["documents"]),
        ("user_mode_event", ["events"]),
        ("q23_returned_item_revenue",
         ["lineitem", "orders", "customer", "nation"]),
        ("next_purchase_event", ["events"]),
        ("stratified_sample_exact", ["documents"]),
        ("eval_set_builder", ["documents"]),
        ("dedup_incremental", ["documents"]),
        ("regr_price_on_quantity", ["lineitem"]),
        ("q24_view_no_purchase", ["events"]),
        ("densify_hourly_user", ["events"]),
        ("phrase_search", ["documents"]),
        ("bm25_topk", ["documents"]),
        ("rrf_fusion", ["documents"]),
        ("simhash_dup_pairs", ["documents"]),
        ("proximity_search", ["documents"]),
        ("ndcg_eval", ["documents"]),
        ("inverted_index_and", ["documents"]),
        ("score_calibration_bins", ["documents"]),
        ("media_bmp_ink", ["documents"]),
        ("profile_lineitem", ["lineitem"]),
        ("profile_events", ["events"]),
        ("media_gif_frames", ["documents"]),
        ("link_pagerank", ["documents"]),
        ("graph_components", ["documents"]),
        ("heavy_hitter_trigrams", ["documents"]),
        ("range_window_sum", ["events"]),
        ("intersect_user_days", ["events"]),
        ("embedding_covariance", ["embeddings"]),
        ("full_outer_user_day", ["orders", "events"]),
        ("graph_bfs_depth", ["documents"]),
        ("triangle_count", ["documents"]),
        ("copurchase_pairs", ["lineitem"]),
        ("edit_distance_pairs", ["documents"]),
        ("source_token_gini", ["documents"]),
        ("rolling_distinct_users", ["events"]),
        ("winsorized_mean_by_type", ["events"]),
        ("daily_anomaly_days", ["events"]),
        ("kcore_membership", ["documents"]),
        ("orders_daily_ohlc", ["orders"]),
        ("user_bitmap_activity", ["events"]),
        ("customer_rfm_segments", ["orders"]),
        ("shortest_path_weighted", ["documents"]),
        ("bigram_pmi_topk", ["documents"]),
        ("orders_skyline", ["orders"]),
        ("user_active_coverage", ["events"]),
        ("daily_count_autocov", ["events"]),
        ("langid_confusion", ["documents"]),
        ("zorder_layout_stats", ["orders"]),
        ("profile_documents", ["documents"]),
        ("mad_by_type", ["events"]),
        ("media_avi_frames", ["documents"]),
        ("minhash_cluster_size_hist", ["documents"]),
        ("doc_novel_trigrams", ["documents"]),
        ("pq_codebooks", ["embeddings"]),
        ("ann_topk_pq", ["embeddings"]),
        ("daily_cusum", ["events"]),
        ("daily_ewma", ["events"]),
        ("ann_topk_ivfpq", ["embeddings"]),
        ("media_mixed_frames", ["documents"]),
        ("tiff_metadata_extract", ["documents"]),
        ("heaps_vocab_growth", ["documents"]),
        ("hapax_stats", ["documents"]),
        ("token_entropy", ["documents"]),
        ("video_scene_cuts", ["documents"]),
        ("audio_energy_segments", ["documents"]),
        ("merge_upsert", ["orders"]),
        ("mv_delta_refresh", ["orders"]),
        ("key_skew_audit", ["orders"]),
        ("scd2_price_enrich", ["part", "lineitem"]),
        ("latest_event_snapshot", ["events"]),
        ("hll_distinct", ["orders"]),
        ("late_event_audit", ["events"]),
        ("orders_sorted_export", ["orders"]),
        ("k_anonymity_audit", ["orders"]),
        ("cross_source_dup_matrix", ["documents"]),
        ("media_augment_ink", ["documents"]),
        ("dedup_threshold_sweep", ["documents"]),
        ("contrastive_negatives", ["orders", "lineitem", "part"]),
        ("ann_index_append", ["embeddings"]),
        ("part_trending_decay", ["lineitem"]),
        ("schema_evolution_read", ["orders"]),
        ("bloom_fpr_audit", ["orders"]),
        ("user_growth_curve", ["events"]),
        ("data_quality_expectations", ["orders", "customer"]),
        ("pii_pseudonymize", ["events", "orders"]),
        ("doc_containment_pairs", ["documents"]),
        ("order_value_benford", ["orders"]),
        ("sampled_event_counts", ["events"]),
        ("graph_modularity", ["documents"]),
        ("markov_stationary", ["events"]),
        ("revenue_gini", ["orders"]),
        ("session_duration_quantiles", ["events"]),
        ("weekly_churn", ["events"]),
        ("seasonal_profile", ["events"]),
        ("basket_size_hist", ["lineitem"]),
        ("pdf_layout_text", ["documents"]),
        ("html_table_extract", ["documents"]),
        ("html_link_graph", ["documents"]),
        ("ngram_lm_score", ["documents"]),
        ("url_canonicalize", ["documents"]),
        ("redirect_resolution", ["documents"]),
        ("html_meta_extract", ["documents"]),
        ("anchor_text_index", ["documents"]),
        ("robots_gate", ["documents"]),
        ("warc_record_parse", ["documents"]),
        ("content_type_audit", ["documents"]),
        ("text_chunk_windows", ["documents"]),
        ("html_list_extract", ["documents"]),
        ("figure_caption_extract", ["documents"]),
        ("sitemap_parse", ["documents"]),
        ("rss_feed_parse", ["documents"]),
        ("pagination_chain", ["documents"]),
        ("html_markdown_render", ["documents"]),
        ("sentence_split", ["documents"]),
        ("url_template_mine", ["documents"]),
        ("dom_structure_stats", ["documents"]),
        ("language_segments", ["documents"]),
        ("crawl_frontier_dedup", ["documents"]),
        ("license_detect", ["documents"]),
        ("mojibake_audit", ["documents"]),
    ],
)
def test_new_operator_oracles(ray_session, name, tables):
    """Ordered group-concat / transition-matrix / pivot / rollup /
    histogram / winnowing-pair operators: Ray result == DuckDB oracle
    (rows, schema, exact values — doubles bit-identical by shared IEEE
    expressions, counts as int64)."""
    import __ray_entry__ as e

    got = e.queries()[name](SF)
    if hasattr(got, "to_pandas"):
        got = got.to_pandas()
    con = duckdb.connect()
    for t in tables:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{SF}/{t}.parquet')"
        )
    orc = con.execute(e.oracle_sql()[name]).fetchdf()
    cols = sorted(got.columns)
    assert cols == sorted(orc.columns)
    g = got[cols].sort_values(cols).reset_index(drop=True)
    o = orc[cols].sort_values(cols).reset_index(drop=True)
    assert len(g) == len(o) > 0
    for c in cols:
        gv, ov = g[c], o[c]
        if gv.dtype == object:
            assert (gv.astype(str) == ov.astype(str)).all(), c
        else:
            assert (gv.to_numpy() == ov.to_numpy()).all(), c


def test_merge_upsert_shard_invariance(ray_session):
    """The merged snapshot must not depend on the exchange fan-out:
    n_shards=3 (multi-key shards, inserts co-sharding with unrelated
    keys) equals n_shards=64 row-for-row."""
    from tensorflow_ocr_ray.pipelines.relational import merge_upsert

    a = (merge_upsert(SF, n_shards=3).to_pandas()
         .sort_values("key").reset_index(drop=True))
    b = (merge_upsert(SF, n_shards=64).to_pandas()
         .sort_values("key").reset_index(drop=True))
    assert len(a) == len(b) > 0
    assert (a["key"].to_numpy() == b["key"].to_numpy()).all()
    assert (a["cents"].to_numpy() == b["cents"].to_numpy()).all()
    # the changelog really fired: some deletes and some inserts
    import duckdb
    n_base = duckdb.sql(
        f"SELECT count(*) FROM read_parquet('{SF}/orders.parquet')"
    ).fetchone()[0]
    assert (a["key"] >= 2_000_000_000_000).sum() > 0
    assert (a["key"] < 2_000_000_000_000).sum() < n_base


def test_pagination_chain_shard_invariance(ray_session):
    """Chain assembly must not depend on the exchange fan-out:
    n_shards=3 equals n_shards=32 row-for-row."""
    from tensorflow_ocr_ray.pipelines.webtier import pagination_chain

    a = (pagination_chain(SF, n_shards=3).to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    b = (pagination_chain(SF, n_shards=32).to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    assert len(a) == len(b) > 0
    for c in ("doc_id", "chain_head", "chain_len", "pos"):
        assert (a[c].to_numpy() == b[c].to_numpy()).all(), c
    # every chain is contiguous and correctly ordered: pos 0..len-1
    g = a.groupby("chain_head")
    assert (g["pos"].max() + 1 == g["chain_len"].max()).all()
    assert (g["pos"].min() == 0).all()
