"""Incremental record linkage: attach a batch of NEW conversations to an
existing linkage run without rescoring the old corpus.

The production shape every deployed entity-resolution system needs (the
reference is batch-only — it re-runs inference over the full corpus per
dataset, ``eval/EvalOnDatasets.scala``): a nightly/streaming batch of new
transcripts must link against billions of already-clustered ones at a
cost proportional to the NEW data plus the blocks it touches, never the
base corpus's pair space.

Semantics (documented, deliberate):

- **Frozen statistics.** New pairs are scored with the BASE run's
  broadcast stats (token df, co-occurrence, priors) — corpus statistics
  drift slowly, and refreshing them is a base-run rerun by definition.
  Incremental output therefore tracks, not equals, a full rerun; the
  pytest gate pins pairwise agreement on the golden corpus.
- **Upsert.**  A batch row for a conv id the base already holds carries
  that conversation's full current transcript and REPLACES the old one:
  its base features are dropped up front (no stale probe rows, no
  self-pairs), its new matches alone place it, and its old cluster is
  re-labelled with the other members still linked (frozen evidence).
- **Old×old pairs are never re-emitted or re-scored.**  New evidence is
  new×new and new×old pairs only.  Two base clusters CAN merge when a
  new conversation bridges them.  ``stages.clustering.recluster``
  re-labels only the TOUCHED region (batch convs + members of base
  clusters they match or used to belong to) and passes every other
  base row through; on a batch of new ids this is exactly CC over the
  base label edges ∪ new match edges.
- **Deterministic.**  Same base result + same new batch → byte-identical
  clusters (hash blocking, deterministic salting stripes, min-label CC).

Scale shape: the new batch's block keys are collected (O(new × keys),
the small side by assumption) and broadcast; base blocked rows are
semi-probed per batch via ``searchsorted`` so only base rows in TOUCHED
blocks enter the pair exchange.  The base features scan is one streaming
column-pruned pass (at 100 TB, persist ``add_block_keys`` output as a
checkpoint stage and range-prune it instead — see state/clustered.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ..config import PipelineConfig
from ..functions.grouping import buckets_for
from ..stages.blocking import add_block_keys, dedup_pairs, make_pairs
from ..stages.canonicalize import canonicalize
from ..stages.clustering import _collect, recluster, rows_in
from ..stages.featurize import STEM_SCHEMA, build_stem_map, featurize
from ..stages.scoring import attach_and_score
from .linkage import LinkageResult, _cluster_cpus


_SCORED_EDGE_SCHEMA = pa.schema([("conv_a", pa.string()),
                                 ("conv_b", pa.string()),
                                 ("is_match", pa.bool_())])


class IncrementalResult:
    def __init__(self, new_features, features, pairs, scored, matches,
                 clusters, region):
        self.new_features = new_features
        self.features = features        # base rows of changed ids replaced
        self.pairs = pairs
        self.scored = scored
        self.matches = matches
        self.clusters = clusters        # conv_id → cluster_id for ALL convs
        self.region = region            # re-labelled rows (recluster)


def run_incremental(base: LinkageResult, new_turns: ray.data.Dataset,
                    cfg: PipelineConfig | None = None,
                    checkpoint_root: str | None = None) -> IncrementalResult:
    """Link ``new_turns`` against ``base`` (a completed ``run_linkage``
    result, in-memory or checkpoint-backed) and return clusters over the
    UNION of conversations.  The sorted assignment table stays lazy until
    a caller consumes it; ``region`` holds the re-labelled rows.

    ``checkpoint_root`` extends the flagship resume contract to the
    incremental path: each stage (inc_conv_docs / inc_features /
    inc_pairs / inc_scored / inc_clusters) lands as atomic Parquet +
    lineage manifest via ``StageRunner``, so a killed batch resumes from
    its last completed stage (use a DIFFERENT root per batch)."""
    from ..state.checkpoint import StageRunner

    cfg = cfg or PipelineConfig()
    runner = StageRunner(checkpoint_root)
    # the bucket rule of run_linkage: the CPU floor until the batch's
    # conversations are known, then sized to them
    cpus = _cluster_cpus()
    nb = buckets_for(0, cfg.rows_per_bucket, cpus)

    new_docs = runner.run("inc_conv_docs",
                          lambda: canonicalize(new_turns, nb))
    if not runner.root:
        new_docs = new_docs.materialize()
    # the stem map is a deterministic per-token function — rebuilding it
    # over the new vocabulary yields identical stems for shared tokens,
    # so frozen-stats scoring stays consistent with the base run
    stem_ref = ray.put(_collect(build_stem_map(new_docs, cfg,
                                               num_buckets=nb), STEM_SCHEMA))
    new_features = runner.run("inc_features",
                              lambda: featurize(new_docs, cfg, stem_ref))
    if not runner.root:
        new_features = new_features.materialize()
    # upsert: a batch row replaces the base row of the same conv id, so
    # the base features of every changed id leave the probe, the attach
    # and the folded state here, once
    new_ids = _collect(new_features.select_columns(["conv_id"]),
                       pa.schema([("conv_id", pa.string())]))["conv_id"] \
        .combine_chunks()
    nb = buckets_for(len(new_ids), cfg.rows_per_bucket, cpus)
    old_features = rows_in(base.features, "conv_id", new_ids, False)

    new_blocked = add_block_keys(new_features, cfg).materialize()
    # broadcast the new batch's key set (the small side by assumption):
    # base rows outside every touched block never enter the exchange
    touched = np.unique(np.asarray(_collect(
        new_blocked.select_columns(["own_key"]),
        pa.schema([("own_key", pa.int64())]))["own_key"]))
    keys_ref = ray.put(touched)

    def probe(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "own_key" not in t.column_names:
            return t
        keys = ray.get(keys_ref)
        if len(keys) == 0:
            return t.slice(0, 0)
        ok = np.asarray(t["own_key"], dtype=np.int64)
        pos = np.searchsorted(keys, ok)
        pos[pos == len(keys)] = 0
        return t.filter(pa.array(keys[pos] == ok))

    old_blocked = add_block_keys(old_features, cfg) \
        .map_batches(probe, batch_format="pyarrow")

    pairs = runner.run(
        "inc_pairs",
        lambda: dedup_pairs(make_pairs(new_blocked, cfg, num_buckets=nb,
                                       old_blocked=old_blocked), nb))

    feats_all = old_features.union(new_features)
    scored = runner.run(
        "inc_scored",
        lambda: attach_and_score(pairs, feats_all, base.stats_ref, cfg,
                                 num_buckets=nb))
    if not runner.root:
        scored = scored.materialize()
    matches = scored.filter(expr="is_match")

    # the match edges are filtered on the driver: Ray's filter emits a
    # zero-column block for every block without a match
    m = _collect(scored, _SCORED_EDGE_SCHEMA)
    rc = recluster(base.clusters, ray.data.from_arrow(
        m.filter(m["is_match"]).drop_columns(["is_match"])), new_ids)
    clusters = runner.run("inc_clusters", rc.assignments)

    return IncrementalResult(new_features, feats_all, pairs, scored, matches,
                             clusters, rc.region)


def fold_incremental(base: LinkageResult,
                     inc: IncrementalResult) -> LinkageResult:
    """Fold an incremental step back into a base-shaped result so the
    NEXT batch can link against it — the micro-batch streaming loop:

        state = run_linkage(batch0)
        for batch in rest:
            state = fold_incremental(state, run_incremental(state, batch))

    Features become the union with changed ids' base rows replaced (the
    next batch blocks against everything seen), clusters the updated
    assignment; the broadcast statistics remain the ORIGINAL base run's
    (the frozen-stats contract — refresh them by re-running the base
    pipeline when drift warrants, exactly like rebuilding an index).  Stage outputs that only make sense for
    one full run (token/pair stats datasets, pair lists) carry over
    from the base unchanged and should not be re-consumed."""
    clusters = inc.clusters.materialize()    # consumed per following batch
    return LinkageResult(
        base.conv_docs, inc.features, base.token_stats, base.pair_stats,
        base.pairs, inc.scored, inc.matches, clusters, clusters.count(),
        stats_ref=base.stats_ref)
