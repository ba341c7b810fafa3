"""Blocking invariants: duplicates co-block, pairs globally unique WITHOUT
a dedup shuffle (min-common-block rule), salting accounts for capped
pairs."""

import ray.data as rd

from pboh_entity_linking_ray.config import PipelineConfig
from pboh_entity_linking_ray.sources.synthetic import generate_corpus
from pboh_entity_linking_ray.stages.blocking import (
    add_block_keys,
    dedup_pairs,
    make_pairs,
)
from pboh_entity_linking_ray.stages.canonicalize import canonicalize
from pboh_entity_linking_ray.stages.featurize import featurize


def _features(corpus):
    return featurize(canonicalize(rd.from_arrow(corpus.turns), 8))


def test_true_duplicates_share_a_block(ray_session):
    corpus = generate_corpus(80, 21)
    blocked = add_block_keys(_features(corpus)).to_pandas()
    by_conv = blocked.groupby("conv_id")["block_key"].apply(set)
    labels = corpus.labels.to_pandas()
    pos = labels[labels.is_match]
    missed = sum(
        1 for _, r in pos.iterrows()
        if not (by_conv[r.conv_a] & by_conv[r.conv_b])
    )
    assert missed / max(1, len(pos)) < 0.01


def test_pairs_unique_after_dedup(ray_session):
    corpus = generate_corpus(60, 22)
    blocked = add_block_keys(_features(corpus))
    pairs = dedup_pairs(make_pairs(blocked, num_buckets=8), 8).to_pandas()
    assert pairs["pair_key"].is_unique
    assert (pairs["conv_a"] < pairs["conv_b"]).all()


def test_salting_accounts_for_capped_pairs(ray_session):
    """Unsalted blocks (m ≤ cap) pair exhaustively: capped == 0 and the
    emitted count never exceeds C(m,2).  (Salted parent blocks are split
    into hash sub-chunks pre-shuffle; their parent-level capped counts are
    a manifest-side derivation: C(n,2) − emitted.)"""
    cfg = PipelineConfig(block_cap=8)
    corpus = generate_corpus(60, 23)
    blocked = add_block_keys(_features(corpus), cfg)
    pairs = dedup_pairs(make_pairs(blocked, cfg, num_buckets=8), 8).to_pandas()
    sizes = blocked.to_pandas().groupby("block_key").size()
    for bk, grp in pairs.groupby("block_key"):
        m = int(sizes[bk])
        total = m * (m - 1) // 2
        assert len(grp) <= total
        if m <= cfg.block_cap:
            assert (grp["capped_pairs"] == 0).all()


def test_oversized_block_pair_budget(ray_session):
    """A hot block must emit far fewer than its full pair count (salting
    engaged) while small blocks pair exhaustively."""
    cfg = PipelineConfig(block_cap=8, max_pairs_per_block=40, salt_boundary=2)
    corpus = generate_corpus(120, 24)
    blocked = add_block_keys(_features(corpus), cfg)
    pairs = make_pairs(blocked, cfg, num_buckets=8).to_pandas()
    sizes = blocked.to_pandas().groupby("block_key").size()
    hot = sizes[sizes > 2 * cfg.block_cap]
    assert len(hot) > 0, "fixture should produce at least one hot block"
    emitted = pairs.groupby("block_key").size()
    for bk, m in hot.items():
        total = int(m) * (int(m) - 1) // 2
        assert emitted.get(bk, 0) <= total // 2


def test_blocker_registry_selects_families(ray_session):
    """PipelineConfig.blockers picks which key families emit (SURVEY
    §2.10 Blocker surface): signature-only emits exactly one s: key per
    conversation; the default emits lsh_bands b-keys plus s."""
    from dataclasses import replace

    import ray.data as rd

    from pboh_entity_linking_ray.config import PipelineConfig
    from pboh_entity_linking_ray.stages.blocking import add_block_keys
    from pboh_entity_linking_ray.stages.canonicalize import canonicalize
    from pboh_entity_linking_ray.stages.featurize import featurize
    from pboh_entity_linking_ray.sources.synthetic import generate_corpus

    c = generate_corpus(40, 5)
    cfg = PipelineConfig()
    feats = featurize(canonicalize(rd.from_arrow(c.turns), 8), cfg).materialize()

    sig_only = add_block_keys(
        feats, replace(cfg, blockers=("signature",))).to_pandas()
    assert len(sig_only) == 40
    assert sig_only["block_key"].str.startswith("s:").all()

    full = add_block_keys(feats, cfg).to_pandas()
    assert len(full) == 40 * (cfg.lsh_bands + 1)
