#!/usr/bin/env python
"""Benchmark harness.

Default: runs the headline pipelines over $GRAFT_SF_DIR (default
/root/testdata/sf0.1) with ray.init(num_cpus=$RAY_GRAFT_CPUS, default 32)
and prints ONE JSON line:
  {"metric": ..., "value": <total sec>, "unit": "sec",
   "queries": {...per-pipeline sec...}, "sf": ..., "num_cpus": N,
   "pairs_scored": N, "pairs_per_sec": N}

--scaling: runs the headline linkage pipeline in fresh subprocesses at
num_cpus=N and 4N on the same input (default N=2 → 8; override with
RAY_SCALE_LO/RAY_SCALE_HI), each subprocess tree pinned via taskset to
exactly N cores (RAY_SCALE_PIN=0 disables) so the "N-CPU cluster" level
really has N CPUs for everything — Ray control plane included — exactly
like an N-CPU node would, and reports both throughputs plus efficiency
= (t_lo/t_hi)/(hi/lo) — the in-sandbox evidence protocol for the
north_rule's N→4N cluster-size criterion (BASELINE.md).  Each level runs
BENCH_SCALE_REPS times (default 3, alternating levels) and the MIN is
used: the shared-host VM shows 2x run-to-run noise (BASELINE.md), and
min-of-reps estimates the uncontended capability at each level.

The default pair is 2→8 because the single VM's MEMORY BANDWIDTH is a
shared, fixed resource the way it never is across cluster NODES: the
--hwcal triad sweep measured 8.3 / 15.5 / 27.0 / 29.9 GB/s at
2 / 4 / 8 / 16 pinned cores in the round-2 window (a round-5 quiet
window read 28.6 / 48.9 / 76.7 / 113.6 — absolute levels swing 3-4×
with co-tenant load, the 2→8 RATIO is the stable signal) — i.e. the
hardware itself scales ~0.6-0.8× ideal from 2→8 and roughly half that
from 4→16, before any framework or algorithm enters.  On a real N→4N NODE cluster each node
brings its own memory controllers, so bandwidth scales with N; emulating
node counts with core counts is only faithful while the VM's ~30 GB/s
wall is out of reach at BOTH levels — true for 2→8, false for 4→16.  The
--scaling output therefore reports raw efficiency alongside the measured
hw_ceiling for the same core pair and the bandwidth-normalized ratio;
other pairs remain available via the env overrides.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def _init_ray(num_cpus: int):
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    import logging

    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def run_bench(sf_dir: str, num_cpus: int) -> dict:
    _init_ray(num_cpus)
    import os as _os

    import ray.data

    from pboh_entity_linking_ray.config import PipelineConfig
    from pboh_entity_linking_ray.sources.reading import read_parquet_clean
    from pboh_entity_linking_ray.pipelines import ann, relational, textops
    from pboh_entity_linking_ray.pipelines.linkage import run_linkage
    from pboh_entity_linking_ray.pipelines.linkage_queries import (
        CORPUS_CACHE,
        _turns,
    )
    from pboh_entity_linking_ray.sources.synthetic import ensure_corpus, sf_to_n_convs

    n_convs = int(_os.environ.get("BENCH_N_CONVS", "0")) or sf_to_n_convs(sf_dir)
    link_only = _os.environ.get("BENCH_LINK_ONLY") == "1"
    corpus_dir = ensure_corpus(CORPUS_CACHE, n_convs)  # untimed corpus gen

    def turns():
        return ray.data.read_parquet(f"{corpus_dir}/turns.parquet")

    # warm the page cache AND the worker pool: parquet count() alone is
    # metadata-only, so the first timed stage would pay worker spawn +
    # per-worker heavy imports (~3-4 s, measured flat across CPU levels —
    # pure serial overhead in the scaling ratio).  One untimed pass with a
    # real map_batches forces both; a live cluster has a warm pool anyway.
    def _warm(t):
        import numpy  # noqa: F401
        import polars  # noqa: F401
        return t.slice(0, 1)

    turns().map_batches(_warm, batch_format="pyarrow").count()
    if not link_only:
        read_parquet_clean(f"{sf_dir}/lineitem.parquet").count()

    queries: dict[str, float] = {}
    t0 = time.perf_counter()
    cfg = PipelineConfig()
    res = run_linkage(turns(), cfg)
    pairs_scored = res.scored.count()
    n_clusters = res.clusters.count()
    t_link = time.perf_counter() - t0
    queries["link_pipeline"] = round(t_link, 3)

    extra = {} if link_only else {
        "q01_lineitem_agg": relational.q01_lineitem_agg,
        "q04_events_hourly": relational.q04_events_hourly,
        "q05_word_count": relational.q05_word_count,
        "q10_knn_bruteforce": ann.q10_knn_bruteforce,
        "q12_ngram_jaccard_pairs": textops.q12_ngram_jaccard_pairs,
    }
    for name, fn in extra.items():
        t = time.perf_counter()
        out = fn(sf_dir)
        if hasattr(out, "count"):
            out.count()
        queries[name] = round(time.perf_counter() - t, 3)

    total = round(sum(queries.values()), 3)
    return {
        "metric": "linkage+ops wall time (headline: candidate pairs scored/sec)",
        "value": total,
        "unit": "sec",
        "queries": queries,
        "sf": os.path.basename(os.path.normpath(sf_dir)),
        "num_cpus": num_cpus,
        "pairs_scored": int(pairs_scored),
        "n_clusters": int(n_clusters),
        "pairs_per_sec": round(pairs_scored / t_link, 1),
    }


def _hwcal_worker(n_iter, q, core):
    """One pinned process streaming a private 192 MB working set
    (three 64 MB arrays) through a two-kernel triad a = b*s + c."""
    import numpy as np
    os.sched_setaffinity(0, {core})
    n = 64_000_000 // 8
    rng = np.random.default_rng(0)
    b = rng.random(n); c = rng.random(n); a = np.empty(n)
    t0 = time.perf_counter()
    for _ in range(n_iter):
        np.multiply(b, 1.1, out=a)
        a += c
    q.put(time.perf_counter() - t0)


def hwcal(levels=(2, 4, 8, 16), n_iter=20, reps=3) -> dict:
    """Aggregate streaming-memory bandwidth at each pinned core count —
    the hardware scaling ceiling any memory-bound workload inherits on
    this single VM (docstring: why the scaling pair defaults to 2→8).
    Best-of-``reps`` per level: co-tenant VMs steal bandwidth in bursts
    (observed 2-4× swings minutes apart), and the max estimates the
    uncontended capability, symmetric with the pipeline's min-of-reps."""
    import multiprocessing as mp
    out = {}
    for ncpu in levels:
        best = 0.0
        for _ in range(reps):
            q = mp.Queue()
            ps = [mp.Process(target=_hwcal_worker, args=(n_iter, q, i))
                  for i in range(ncpu)]
            for p in ps:
                p.start()
            ts = [q.get() for _ in ps]
            for p in ps:
                p.join()
            # two kernels make 5 explicit 64 MB array passes per iter
            # (r b, w a; r a, r c, w a) — write-allocate adds more, so
            # absolute GB/s is still a floor; level-to-level RATIOS (the
            # hw_ceiling use) are exact either way
            traffic = ncpu * n_iter * 5 * 64_000_000

            best = max(best, traffic / max(ts) / 1e9)
        out[ncpu] = round(best, 2)                    # GB/s aggregate
    return out


def _subprocess_run(ncpu: int, extra_env: dict | None = None,
                    pin: bool = False) -> dict:
    env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), **(extra_env or {}))
    cmd = [sys.executable, os.path.abspath(__file__)]
    if pin and os.path.exists("/usr/bin/taskset"):
        # emulate an N-CPU node faithfully: confine the WHOLE process tree
        # (driver, raylet, plasma, workers — all inherit affinity) to N
        # cores.  Without this, Ray's control-plane threads run on cores
        # outside the num_cpus budget, making the low-CPU baseline
        # unrealistically fast and the measured efficiency pessimistic
        # (BASELINE.md measurement notes).
        cmd = ["/usr/bin/taskset", "-c", f"0-{ncpu - 1}"] + cmd
    out = subprocess.run(
        cmd, env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


OPS_DEFAULT = [
    "q23_asof_join", "q24_sliding_window", "q25_interval_join",
    "q26_simhash_neardup", "q27_stratified_sample", "q28_topk_per_group",
    "q29_doc_len_quantiles", "q30_customers_without_big_orders",
    "q31_distinct_users", "q33_pivot_user_events",
    "q34_unpivot_user_events", "q35_doc_len_quantiles_by_lang",
    "q36_event_lag", "q37_events_of_big_purchasers",
    "q38_shipping_priority", "q39_order_rank", "q40_running_revenue",
    "q41_rollup_revenue", "q42_priority_timeline", "q43_nation_revenue",
    "q44_tfidf_pairs", "q45_funnel", "q46_chunk_documents",
    "q47_heavy_tokens", "q48_salted_segment_activity", "q49_chunk_dedup",
    "q50_decontaminate", "q51_pii_scrub", "q52_repetition_filter",
    "q53_pack_sequences", "q54_weighted_sample", "q55_keyword_search",
    "q56_curate_and_pack", "q57_bpe_token_count", "q58_neardup_clusters",
    "q59_group_cap_sample", "q60_pack_global", "q61_embedding_dedup",
    "q62_global_rank", "q63_grad_step", "q64_sgd_train",
    "q65_embedding_covariance", "pca_project", "q66_lm_perplexity",
    "q67_fuzzy_decontaminate", "q68_pagerank",
    "q69_label_centroid_outliers", "q70_negative_sampling",
    "q71_shared_span_pairs", "q72_bpe_pair_counts", "bpe_train",
    "q73_leakage_safe_split", "q74_mixture_allocation",
    "q75_activity_reconciliation", "q76_region_revenue",
    "q82_event_type_freq", "link_boilerplate_turns", "link_sft_pairs",
    "link_sft_corpus", "link_transition_matrix", "q83_zone_map_prune",
    "mm_wav_stats", "mm_ppm_stats",
    "q77_window_suite", "q78_cube_revenue", "q79_data_expectations",
    "q80_mad_outliers", "q81_cdc_compact",
    "semantic_dedup", "bpe_encode",
    "link_turn_quality",
    "hll_distinct_users", "quantile_sketch_value",
    "q84_triangles", "q85_skyline", "q86_user_trend",
    "q87_profile_documents", "q88_edit_distance_pairs", "q89_kcore",
    "q90_retention_cohorts", "q91_props_stats", "q92_user_features",
    "q93_embedding_quantize", "q94_audience_overlap", "q95_ab_welch",
    "q96_pmi_pairs", "q97_attribution", "q98_source_shift",
    "q99_peak_concurrency", "q100_hourly_gapfill", "q101_psi_drift",
    "q102_scd2", "q103_locf_impute", "link_blocking_quality",
    "q104_coclustered_join", "q105_clustered_merge", "q106_bfs",
    "q107_feature_hashing", "q108_annotator_agreement", "q109_debounce",
    "q110_golden_records", "q111_rolling_wau",
    "q112_revenue_concentration", "q113_wow_change",
    "q114_source_contamination",
    "link_context_windows",
    "link_topic_segments", "mm_png_stats",
    "q115_jaro_winkler_pairs", "q116_snapshot_diff",
    "q117_sorted_neighborhood", "q118_metablocking",
    "q119_fs_weights", "q120_score_calibration",
    "q121_bm25_search", "q122_review_queue", "q123_gazetteer_tag",
    "q124_ppjoin", "q125_cluster_metrics", "q126_mutual_knn",
    "q127_pr_curve", "q128_soundex_blocking", "q129_item_similarity",
    "link_tool_latency",
    "link_incremental",
    "q130_canopy", "q131_monge_elkan", "q132_key_skew",
    "link_protocol_gate", "q133_prefix_containment", "q134_rrf_fusion",
    "q135_bigram_lm",
    "q136_label_propagation", "q137_link_prediction",
    "q138_one_to_one_match", "q139_seasonal_anomaly",
    "q149_association_rules", "q150_rfm_segments", "q151_day_churn",
    "q152_k_anonymity", "q153_langid_confusion", "q154_dedup_savings",
    "link_forks", "q155_em_fs", "q156_priority_sample",
    "q140_correlation_matrix", "q141_hits", "q142_char_histogram",
    "q143_novelty_rate", "q144_transitivity_audit", "q145_cusum",
    "q146_event_trigrams", "q147_weighted_median",
    "q148_degree_assortativity",
    "q157_benford_audit", "q158_mannwhitney", "q159_ks_test",
    "q160_spearman", "q161_kruskal_wallis", "q162_wilcoxon",
    "link_cluster_digest", "link_signature_blocking_quality",
    "link_cluster_quality",
    "q163_chi_square", "q164_anova_f", "q165_bloom_decontaminate",
    "q166_replica_stability", "q167_kaplan_meier", "link_pr_curve",
    "q168_sprt", "q169_trimmed_mean", "q170_l_diversity",
    "q171_vocab_richness", "pq_encode", "ann_pq_topk",
    "link_lsh_scurve", "ann_ivfpq_topk", "q172_mcnemar",
    "q173_ltv_triangle", "q174_compression_ratio", "q175_fd_audit",
    "q176_ref_integrity", "q177_acf", "q178_partial_corr",
    "q179_cramers_v", "als_tool_factors", "q180_proportion_ci",
    "link_cluster_labels", "q181_seasonality", "als_conv_factors", "q182_powerlaw", "q183_group_mode", "kmv_jaccard", "q184_backtest", "q185_service_level", "q186_fano", "q187_conversion_window", "link_threshold_sensitivity", "q188_nysiis_blocking", "link_block_histogram", "q189_ratio_metric",
    "q190_dup_spans", "q191_crowd_adjudication", "q192_worker_stats",
    "q193_reject_republish", "q194_vote_summary",
    "q195_answers_histogram", "link_rank_histogram",
    "q196_schema_evolution_read",
    "link_lbp_convergence",
]


def main():
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

    if "--hwcal" in sys.argv:
        print(json.dumps({"triad_gbs_by_cores": hwcal()}))
        return

    if "--ops" in sys.argv:
        # wall time per non-headline operator query (positional names
        # select a subset); one warm pass first so query #1 doesn't pay
        # worker spawn
        names = [a for a in sys.argv[1:] if not a.startswith("-")]
        names = names or OPS_DEFAULT
        _init_ray(num_cpus)
        import ray.data

        from pboh_entity_linking_ray.sources.reading import read_parquet_clean

        import __ray_entry__ as e
        qs = e.queries()

        def _warm(t):
            import numpy  # noqa: F401
            import polars  # noqa: F401
            return t.slice(0, 1)

        (read_parquet_clean(f"{sf_dir}/orders.parquet")
         .map_batches(_warm, batch_format="pyarrow").count())
        ops: dict[str, float] = {}
        for name in names:
            t0 = time.perf_counter()
            out = qs[name](sf_dir)
            if hasattr(out, "count"):
                out.count()
            ops[name] = round(time.perf_counter() - t0, 3)
        print(json.dumps({"ops": ops,
                          "sf": os.path.basename(os.path.normpath(sf_dir)),
                          "num_cpus": num_cpus}))
        return

    if "--scaling" in sys.argv:
        # strong scaling on the SAME input, linkage only; a larger corpus
        # (default 250k convs) makes compute dominate the fixed barriers
        lo = int(os.environ.get("RAY_SCALE_LO", "2"))
        hi = int(os.environ.get("RAY_SCALE_HI", "8"))
        reps = int(os.environ.get("BENCH_SCALE_REPS", "3"))
        env = {"BENCH_LINK_ONLY": "1", "BENCH_REPS": "1",
               "BENCH_N_CONVS": os.environ.get("BENCH_N_CONVS", "250000")}
        pin = os.environ.get("RAY_SCALE_PIN", "1") != "0"
        runs: dict[int, list[dict]] = {lo: [], hi: []}
        for _ in range(reps):                   # alternate levels so host
            runs[hi].append(_subprocess_run(hi, env, pin))  # noise hits both
            runs[lo].append(_subprocess_run(lo, env, pin))
        best = {n: min(rs, key=lambda r: r["queries"]["link_pipeline"])
                for n, rs in runs.items()}
        t_lo = best[lo]["queries"]["link_pipeline"]
        t_hi = best[hi]["queries"]["link_pipeline"]
        eff = (t_lo / t_hi) / (hi / lo)
        # hardware ceiling for the same core pair: even a pure streaming
        # triad only scales this much on the shared-bandwidth VM
        bw = hwcal(levels=(lo, hi))
        hw_ceiling = (bw[hi] / bw[lo]) / (hi / lo)
        print(json.dumps({
            "sf": best[lo]["sf"],
            "n_lo": lo, "n_hi": hi, "cpu_pinned": pin,
            f"sec_{lo}": t_lo, f"sec_{hi}": t_hi,
            f"all_sec_{lo}": [r["queries"]["link_pipeline"] for r in runs[lo]],
            f"all_sec_{hi}": [r["queries"]["link_pipeline"] for r in runs[hi]],
            f"pairs_per_sec_{lo}": best[lo]["pairs_per_sec"],
            f"pairs_per_sec_{hi}": best[hi]["pairs_per_sec"],
            "scaling_efficiency": round(eff, 3),
            "triad_gbs": bw,
            "hw_ceiling_efficiency": round(hw_ceiling, 3),
            "bw_normalized_efficiency": round(eff / hw_ceiling, 3),
        }))
        return

    # per-query min over BENCH_REPS passes in one warm Ray session: the
    # co-tenant host shows 2-4x noise bursts (BASELINE.md), and a single
    # sample can land entirely inside one
    reps = int(os.environ.get("BENCH_REPS", "2"))
    results = [run_bench(sf_dir, num_cpus) for _ in range(reps)]
    import ray

    ray.shutdown()
    result = dict(results[0])
    # the untouched first pass (cold session): consumers can tell the
    # warm-min composite from what a single cold run actually achieved
    result["cold"] = {"queries": dict(results[0]["queries"]),
                      "value": results[0]["value"],
                      "pairs_per_sec": results[0]["pairs_per_sec"]}
    best_link = min(results, key=lambda r: r["queries"]["link_pipeline"])
    result["queries"] = {q: min(r["queries"][q] for r in results)
                        for q in result["queries"]}
    result["value"] = round(sum(result["queries"].values()), 3)
    result["pairs_per_sec"] = best_link["pairs_per_sec"]
    result["bench_reps"] = reps
    print(json.dumps(result))


if __name__ == "__main__":
    main()
