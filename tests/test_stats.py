"""Stats-build correctness vs single-process oracles."""

import numpy as np
import polars as pl
import ray.data as rd

from pboh_entity_linking_ray.functions.text import content_tokens
from pboh_entity_linking_ray.sources.synthetic import generate_corpus
from pboh_entity_linking_ray.stages.canonicalize import canonicalize
from pboh_entity_linking_ray.stages.featurize import TOKEN_HASH_SEED, featurize
from pboh_entity_linking_ray.stages.stats import (
    build_cooc,
    build_mention_prior,
    build_vocab,
)


def _conv_docs(corpus):
    return canonicalize(rd.from_arrow(corpus.turns), 8)


def test_vocab_df_matches_oracle(ray_session):
    corpus = generate_corpus(40, 41)
    conv = _conv_docs(corpus)
    vocab = build_vocab(featurize(conv)).to_pandas()

    # oracle: per-conv distinct content tokens, counted across convs
    docs = conv.to_pandas()
    from collections import Counter

    df_oracle: Counter = Counter()
    for doc in docs["mention_doc"]:
        toks = pl.Series([doc]).str.to_lowercase().str.extract_all("[a-z0-9]+")[0].to_list()
        cts = set(content_tokens(toks))
        if cts:
            hashes = pl.Series(sorted(cts)).hash(seed=TOKEN_HASH_SEED).to_numpy().astype(np.uint64)
            df_oracle.update(int(h) for h in
                             np.unique(hashes & np.uint64(0xFFFFFFFF)))

    got = {int(k): int(v) for k, v in zip(vocab["token_hash"], vocab["df"])}
    assert got == dict(df_oracle)


def test_cooc_counts_bounded_by_df(ray_session):
    corpus = generate_corpus(40, 42)
    feats = featurize(_conv_docs(corpus))
    cooc = build_cooc(feats).to_pandas()
    n_convs = 40
    assert (cooc["count"] >= 1).all()
    assert (cooc["count"] <= n_convs).all()
    # symmetric pair key: every packed key has lo<=hi in the two 32-bit halves
    keys = cooc["pair"].to_numpy().astype(np.int64).view(np.uint64)
    lo = keys >> np.uint64(32)
    hi = keys & np.uint64(0xFFFFFFFF)
    assert (lo <= hi).all()


def test_mention_prior_totals(ray_session):
    corpus = generate_corpus(30, 43)
    prior = build_mention_prior(_conv_docs(corpus)).to_pandas()
    # p̂(e|m) = freq/total must sum to 1 per mention
    sums = prior.groupby("mention").apply(
        lambda g: g["freq"].sum() / g["total"].iloc[0], include_groups=False
    )
    assert np.allclose(sums.to_numpy(), 1.0)


def test_wcooc_window_matches_naive(ray_session):
    """Windowed co-counts equal a naive per-conv ±K scan over the same
    capped stream."""
    from collections import Counter

    from pboh_entity_linking_ray.config import PipelineConfig
    from pboh_entity_linking_ray.functions.hashing import pack_pair
    from pboh_entity_linking_ray.stages.stats import build_wcooc

    corpus = generate_corpus(25, 44)
    cfg = PipelineConfig()
    feats = featurize(_conv_docs(corpus), cfg).materialize()
    got = {int(k): int(v) for k, v in
           zip(*build_wcooc(feats, cfg).to_pandas()
               [["pair", "count"]].to_numpy().T)}

    naive: Counter = Counter()
    for stream in feats.to_pandas()["stream"]:
        s = [int(x) for x in stream]
        for i in range(len(s)):
            for d in range(1, cfg.ctx_window + 1):
                if i + d < len(s) and s[i] != s[i + d]:
                    naive[pack_pair(s[i], s[i + d])] += 1
    # pair keys cross the shuffle bit-cast int64; compare unsigned
    got_u = {int(np.uint64(np.int64(k))): v for k, v in got.items()}
    assert got_u == dict(naive)


def test_entity_prior_concentration(ray_session):
    from pboh_entity_linking_ray.stages.stats import build_entity_prior

    corpus = generate_corpus(30, 45)
    prior = build_mention_prior(_conv_docs(corpus))
    ep = build_entity_prior(prior).to_pandas()
    assert (ep["conc_e4"] > 0).all() and (ep["conc_e4"] <= 10000).all()


def test_prior_entities_join_token_domain(ray_session):
    """Regression for the 64-bit/32-bit hash-domain split: every prior
    entity must be resolvable in the vocab token_hash domain."""
    corpus = generate_corpus(30, 46)
    conv = _conv_docs(corpus).materialize()
    vocab = set(build_vocab(featurize(conv)).to_pandas()["token_hash"])
    prior = build_mention_prior(conv).to_pandas()
    hit = sum(1 for e in prior["entity"] if int(e) in vocab)
    assert hit / max(1, len(prior)) > 0.99


def test_entity_prior_fused_matches_two_stage(ray_session):
    from pboh_entity_linking_ray.stages.stats import (
        build_entity_prior,
        build_entity_prior_from_docs,
    )

    corpus = generate_corpus(30, 47)
    conv = _conv_docs(corpus).materialize()
    two = (build_entity_prior(build_mention_prior(conv)).to_pandas()
           .sort_values("entity").reset_index(drop=True))
    one = (build_entity_prior_from_docs(conv, num_buckets=8).to_pandas()
           .sort_values("entity").reset_index(drop=True))
    import pandas as pd

    pd.testing.assert_frame_equal(one, two[one.columns.tolist()])
