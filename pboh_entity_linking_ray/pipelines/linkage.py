"""The flagship end-to-end linkage pipeline.

read turns → canonicalize → featurize → stats (token, pair, prior →
broadcast) → block → pair-gen (salted) → dedup → attach + score (task
pool fused into the second attach join's buckets) → cluster → eval.

Every ``→`` is an optional Parquet checkpoint with a lineage manifest
(state/checkpoint.py); passing ``checkpoint_root=None`` keeps the whole
thing one lazy streaming plan.  Structural ancestor: the reference's
distributed ClueWeb path (read → key-by-doc → shuffle-group → stateful
scoring with broadcast indexes → metric reduce, reference:
src/main/scala/eval/cweb/RunLoopyAgainstAllGoogleClweb.scala:221-275).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ..config import PipelineConfig
from ..functions.grouping import buckets_for
from ..stages.blocking import add_block_keys, dedup_pairs, make_pairs
from ..stages.canonicalize import canonicalize
from ..stages.clustering import _collect, cluster_matches
from ..stages.featurize import STEM_SCHEMA, build_stem_map, featurize
from ..stages.scoring import attach_and_score
from ..stages.stats import (
    COOC_MIN_COUNT,
    PRIOR_SAMPLE_MOD,
    broadcast_stats,
    build_entity_prior_from_docs,
    build_pair_stats,
    build_token_stats,
)
from ..state.checkpoint import StageRunner


def _cluster_cpus() -> int:
    """CPUs of the Ray cluster: the floor of every exchange's bucket
    count (``buckets_for``)."""
    return int(ray.cluster_resources().get("CPU", 1))


def score_histogram(scored: ray.data.Dataset, bins: int = 20) -> list[int]:
    """Histogram of pair scores (manifest metric; analog of the reference's
    candidate-rank histograms, eval/cweb/GlobalCountersCWEB.scala:102-134)."""
    from ray.data.aggregate import Sum

    edges = np.linspace(0.0, 1.0, bins + 1)

    def h(t: pa.Table) -> pa.Table:
        counts, _ = np.histogram(np.asarray(t["score"]), bins=edges)
        return pa.table({f"h{i}": pa.array([int(c)], type=pa.int64())
                         for i, c in enumerate(counts)})

    part = scored.map_batches(h, batch_format="pyarrow")
    agg = part.aggregate(*[Sum(f"h{i}", alias_name=f"h{i}") for i in range(bins)])
    return [int(agg.get(f"h{i}") or 0) for i in range(bins)]


class LinkageResult:
    def __init__(self, conv_docs, features, token_stats, pair_stats,
                 pairs, scored, matches, clusters, n_convs,
                 stats_ref=None):
        self.conv_docs = conv_docs
        self.features = features
        self.token_stats = token_stats
        self.pair_stats = pair_stats
        self.pairs = pairs
        self.scored = scored
        self.matches = matches
        self.clusters = clusters
        self.n_convs = n_convs
        self.stats_ref = stats_ref  # broadcast BroadcastStats object ref
                                    # (re-scoring / differential baselines)


def run_linkage(
    turns: ray.data.Dataset,
    cfg: PipelineConfig | None = None,
    checkpoint_root: str | None = None,
) -> LinkageResult:
    cfg = cfg or PipelineConfig()
    runner = StageRunner(checkpoint_root)
    # every exchange of the run takes its bucket count from one rule
    # (buckets_for): canonicalize and the stem map run before the
    # conversations are counted, so they get the CPU floor
    cpus = _cluster_cpus()
    nb = buckets_for(0, cfg.rows_per_bucket, cpus)

    conv_docs = runner.run("conv_docs", lambda: canonicalize(turns, nb))
    if not runner.root:
        conv_docs = conv_docs.materialize()
    # stem dictionary: distinct tokens stemmed once CLUSTER-WIDE and
    # broadcast (~20 B/token); without it every worker re-stems the
    # vocabulary through its own cache, which anti-scales with worker
    # count (featurize measured 2.3× instead of 4× from 4→16 CPUs)
    stem_map = runner.run("stem_map", lambda: build_stem_map(
        conv_docs, cfg, num_buckets=nb))
    stem_ref = ray.put(_collect(stem_map, STEM_SCHEMA))
    features = runner.run("features",
                          lambda: featurize(conv_docs, cfg, stem_ref))
    if not runner.root:
        # several consumers (stats, blocking, count) share this lineage;
        # without Parquet checkpoints, pin the per-conv tables in the
        # object store so canonicalize/featurize run exactly once.
        # (With a checkpoint root the Parquet read-back serves this role —
        # that is the 100 TB path; materialize() is only for small runs.)
        features = features.materialize()
    # every later exchange is sized to the corpus as well
    n_convs = features.count()
    nb = buckets_for(n_convs, cfg.rows_per_bucket, cpus)

    # fused stats builds: token-level (vocab df + stream occ) and
    # pair-level (conv cooc + window cooc) each cost ONE pass over
    # features and ONE exchange (stages/stats.py)
    token_stats = runner.run(
        "token_stats", lambda: build_token_stats(features, num_buckets=nb))
    # emit_min pushes the broadcast floor INTO the aggregating shuffle
    # task: global singleton pairs (~half the key space) are dropped
    # before any downstream pass or checkpoint write
    pair_stats = runner.run(
        "pair_stats",
        lambda: build_pair_stats(features, cfg, emit_min=COOC_MIN_COUNT,
                                 num_buckets=nb))
    prior = runner.run(
        "entity_prior",
        lambda: build_entity_prior_from_docs(conv_docs, PRIOR_SAMPLE_MOD,
                                             num_buckets=nb))

    # distributed jobs run ONE AT A TIME with the whole cluster: running
    # pair generation concurrently with pair-stats measured 67 s vs 39 s
    # sequential (16 CPUs / 250k convs), and collects from two driver
    # threads sometimes aborted the process in Ray 2.49's core
    # (reference_count.cc check failure after a task cancellation).
    # broadcast_stats scans the pair stats twice: without Parquet
    # checkpoints they are pinned for it, with them each scan re-reads
    stats = broadcast_stats(
        token_stats, pair_stats if runner.root else pair_stats.materialize(),
        prior, n_convs)

    blocked = add_block_keys(features, cfg)
    pairs_raw = make_pairs(blocked, cfg, num_buckets=nb)
    pairs_lazy = dedup_pairs(pairs_raw, num_buckets=nb)
    # skinny pair rows: dedup is a cheap bucketed keep-first
    pairs = (runner.run("pairs", lambda: pairs_lazy) if runner.root
             else pairs_lazy.materialize())
    if runner.root:
        # salting accounting (north_rule: no silent drops): exact count of
        # non-emitted pairs, summed from the raw first-row markers
        from ..stages.blocking import capped_total
        runner.add_metrics("pairs", {"capped_pairs_total": capped_total(pairs_raw)})
        # missing-evidence accounting (M15 analog — the reference DROPS
        # mentions absent from its index and counts them as recall loss,
        # eval/VerifyEDAbstract.scala:49-85): convs with zero content
        # tokens keep flowing here (sig blocking + Jaro-Winkler still
        # apply) but the count is surfaced the same way.
        n_empty = features.filter(expr="n_tokens <= 0").count()
        runner.add_metrics("features", {"empty_token_convs": n_empty})
    # features re-attach via bucketed co-group joins (no driver-side
    # store), fused with scoring: the second join's bucket task scores
    # its joined rows in place (attach_and_score)
    stats_ref = ray.put(stats)
    scored = runner.run(
        "scored", lambda: attach_and_score(pairs, features, stats_ref, cfg,
                                           num_buckets=nb))
    if runner.root:
        runner.add_metrics("scored", {"score_histogram": score_histogram(scored)})
    else:
        scored = scored.materialize()  # consumed by both matches and callers

    matches = scored.filter(expr="is_match")
    # within-stage periodic round checkpoints (K4 analog): a crash during
    # the multi-round star contraction resumes from the newest frontier
    # under {root}/cc_rounds instead of round 0
    cc_root = (os.path.join(runner.root, "cc_rounds") if runner.root
               else None)
    clusters = runner.run(
        "clusters",
        lambda: cluster_matches(
            matches.select_columns(["conv_a", "conv_b"]),
            features.select_columns(["conv_id"]), nb,
            iter_checkpoint_root=cc_root,
        ).sort("conv_id"),
    )
    return LinkageResult(conv_docs, features, token_stats, pair_stats,
                         pairs, scored, matches, clusters, n_convs,
                         stats_ref=stats_ref)
