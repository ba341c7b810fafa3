"""Stats-build correctness vs single-process oracles: the three builds
``run_linkage`` runs and the broadcast prune (``broadcast_stats``)."""

from collections import Counter

import numpy as np
import pandas as pd
import polars as pl
import pyarrow as pa
import pytest
import ray
import ray.data as rd

from pboh_entity_linking_ray.config import PipelineConfig
from pboh_entity_linking_ray.functions.hashing import pack_pair
from pboh_entity_linking_ray.functions.text import content_tokens
from pboh_entity_linking_ray.sources.synthetic import generate_corpus
from pboh_entity_linking_ray.stages import scoring, stats
from pboh_entity_linking_ray.stages.canonicalize import canonicalize
from pboh_entity_linking_ray.stages.clustering import _collect
from pboh_entity_linking_ray.stages.featurize import TOKEN_HASH_SEED, featurize
from pboh_entity_linking_ray.stages.stats import (
    COOC_TOKEN_CAP,
    PAIR_STATS_SCHEMA,
    PRIOR_SCHEMA,
    TOKEN_STATS_SCHEMA,
    _mention_prior_partial,
    broadcast_stats,
    build_entity_prior_from_docs,
    build_pair_stats,
    build_token_stats,
)

NB = 8


def _conv_docs(corpus):
    return canonicalize(rd.from_arrow(corpus.turns), NB)


def _token_stats(feats) -> pd.DataFrame:
    return _collect(build_token_stats(feats, num_buckets=NB),
                    TOKEN_STATS_SCHEMA).to_pandas()


def _pair_counts(feats, col: str, cfg=None) -> dict:
    """packed pair (unsigned) → ``col`` of build_pair_stats, rows > 0."""
    t = _collect(build_pair_stats(feats, cfg, num_buckets=NB),
                 PAIR_STATS_SCHEMA).to_pandas()
    t = t[t[col] > 0]
    # pair keys cross the shuffle bit-cast int64; compare unsigned
    return {int(np.uint64(np.int64(k))): int(v)
            for k, v in zip(t["pair"], t[col])}


def _prior_partials(conv) -> pd.DataFrame:
    """Every partial (mention, entity, freq) row the prior build's map
    side emits (small batches: one mention recurs across batches)."""
    return conv.map_batches(_mention_prior_partial, batch_format="pyarrow",
                            batch_size=4).to_pandas()


def test_vocab_df_matches_oracle(ray_session):
    corpus = generate_corpus(40, 41)
    conv = _conv_docs(corpus)
    vocab = _token_stats(featurize(conv))
    vocab = vocab[vocab["df"] > 0]

    # oracle: per-conv distinct content tokens, counted across convs
    docs = conv.to_pandas()
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
    """Conversation-level co-counts equal a naive all-pairs scan over
    each conv's bottom-k token sample, and stay within [1, N]."""
    corpus = generate_corpus(40, 42)
    feats = featurize(_conv_docs(corpus)).materialize()
    got = _pair_counts(feats, "count_conv")

    naive: Counter = Counter()
    for toks in feats.to_pandas()["tokens"]:
        s = [int(x) for x in toks][:COOC_TOKEN_CAP]
        for i in range(len(s)):
            for j in range(i + 1, len(s)):
                naive[pack_pair(s[i], s[j])] += 1
    assert got == dict(naive)
    n_convs = 40
    assert all(1 <= v <= n_convs for v in got.values())
    # symmetric pair key: every packed key has lo<=hi in the two 32-bit halves
    keys = np.array(list(got), dtype=np.uint64)
    assert ((keys >> np.uint64(32)) <= (keys & np.uint64(0xFFFFFFFF))).all()


def test_mention_prior_totals(ray_session):
    """The one-exchange prior's premise: the mention → entity map is
    functional, so every mention of the partial rows maps to exactly one
    entity and p̂(e|m) = freq/total = 1."""
    corpus = generate_corpus(30, 43)
    rows = _prior_partials(_conv_docs(corpus))
    assert len(rows) and rows["mention"].nunique() < len(rows)
    assert (rows.groupby("mention")["entity"].nunique() == 1).all()
    freq = rows.groupby(["mention", "entity"])["freq_partial"].sum()
    total = freq.groupby(level="mention").transform("sum")
    assert np.allclose((freq / total).to_numpy(), 1.0)


def test_wcooc_window_matches_naive(ray_session):
    """Windowed co-counts equal a naive per-conv ±K scan over the same
    capped stream."""
    corpus = generate_corpus(25, 44)
    cfg = PipelineConfig()
    feats = featurize(_conv_docs(corpus), cfg).materialize()
    got = _pair_counts(feats, "count_win", cfg)

    naive: Counter = Counter()
    for stream in feats.to_pandas()["stream"]:
        s = [int(x) for x in stream]
        for i in range(len(s)):
            for d in range(1, cfg.ctx_window + 1):
                if i + d < len(s) and s[i] != s[i + d]:
                    naive[pack_pair(s[i], s[i + d])] += 1
    assert got == dict(naive)


def test_entity_prior_concentration(ray_session):
    corpus = generate_corpus(30, 45)
    ep = build_entity_prior_from_docs(_conv_docs(corpus),
                                      num_buckets=NB).to_pandas()
    assert len(ep)
    assert (ep["conc_e4"] > 0).all() and (ep["conc_e4"] <= 10000).all()


def test_prior_entities_join_token_domain(ray_session):
    """Regression for the 64-bit/32-bit hash-domain split: every prior
    entity must be resolvable in the vocab token_hash domain."""
    corpus = generate_corpus(30, 46)
    conv = _conv_docs(corpus).materialize()
    tok = _token_stats(featurize(conv))
    vocab = set(tok.loc[tok["df"] > 0, "token_hash"])
    prior = build_entity_prior_from_docs(conv, num_buckets=NB).to_pandas()
    hit = sum(1 for e in prior["entity"] if int(e) in vocab)
    assert hit / max(1, len(prior)) > 0.99


def test_entity_prior_fused_matches_two_stage(ray_session):
    """The one-exchange prior equals a single-process two-stage oracle
    over the same partial rows: Σ freq per (mention, entity), then
    conc_e4 = max(freq)·10000 // Σ freq per entity."""
    corpus = generate_corpus(30, 47)
    conv = _conv_docs(corpus).materialize()
    freq = (_prior_partials(conv).groupby(["mention", "entity"])
            ["freq_partial"].sum().groupby(level="entity"))
    want = ((freq.max() * 10000 // freq.sum()).rename("conc_e4")
            .reset_index().sort_values("entity").reset_index(drop=True))
    got = (build_entity_prior_from_docs(conv, num_buckets=NB).to_pandas()
           .sort_values("entity").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want[got.columns.tolist()],
                                  check_dtype=False)


def _values(lookup, keys) -> dict:
    """key → value of the keys a broadcast lookup holds."""
    keys = np.asarray(keys, dtype=np.int64)
    vals = lookup.get(keys, default=-1)
    return {int(k): int(v) for k, v in zip(keys, vals) if v != -1}


def test_broadcast_stats_floor_and_prunes(ray_session, monkeypatch,
                                          linkage200):
    tokens = rd.from_arrow(pa.table(
        {"token_hash": [1, 2, 3, 4], "df": [1, 2, 5, 1], "occ": [1, 1, 3, 4]},
        schema=TOKEN_STATS_SCHEMA))
    prior = rd.from_arrow(pa.table(
        {"entity": [10, 11, 12], "conc_e4": [10000, 5000, 9999]},
        schema=PRIOR_SCHEMA))
    win = [7, 7, 7, 5, 5, 3, 3, 3, 2, 1, 0]
    conv = [0, 3, 1, 2, 2, 0, 5, 1, 1, 2, 4]
    keys = list(range(100, 100 + len(win)))
    pairs = rd.from_arrow(pa.table(
        {"pair": keys, "count_conv": conv, "count_win": win},
        schema=PAIR_STATS_SCHEMA))

    def wcooc_floor(budget: int) -> int:
        monkeypatch.setattr(stats, "WCOOC_MAX_PAIRS", budget)
        st = broadcast_stats(tokens, pairs, prior, 40)
        got = _values(st.wcooc, keys)
        floor = min(got.values(), default=max(win) + 1)
        # the residue is exactly every pair at or above the floor
        assert got == {k: w for k, w in zip(keys, win) if w >= floor}
        return floor

    # the smallest count whose tail fits the budget, whole tie levels
    # kept, never below the cooc floor
    assert wcooc_floor(10 ** 6) == stats.COOC_MIN_COUNT
    assert wcooc_floor(9) == 2
    assert wcooc_floor(5) == 5             # 3 × 7 + 2 × 5
    assert wcooc_floor(4) == 7             # the 5s tie: both go
    assert wcooc_floor(0) == 8             # empty

    st = broadcast_stats(tokens, pairs, prior, 40)
    assert st.n_docs == 40
    assert _values(st.vocab, [1, 2, 3, 4]) == {2: 2, 3: 5}      # df == 1 dropped
    assert _values(st.wfreq, [1, 2, 3, 4]) == {3: 3, 4: 4}
    assert st.total_occ == 7
    assert _values(st.prior, [10, 11, 12]) == {11: 5000, 12: 9999}
    assert _values(st.cooc, keys) == {k: c for k, c in zip(keys, conv)
                                      if c >= stats.COOC_MIN_COUNT}

    # a window count at the histogram cap warns (packed-lane bound)
    capped = rd.from_arrow(pa.table(
        {"pair": [1], "count_conv": [0], "count_win": [1 << 20]},
        schema=PAIR_STATS_SCHEMA))
    with pytest.warns(UserWarning, match="histogram cap"):
        broadcast_stats(tokens, capped, prior, 40)

    # the vocab and prior prunes are exact: the golden corpus's pairs
    # score identically against the unpruned tables
    res = linkage200
    seen = {}

    def capture(**tables):
        seen.update(tables)
        return scoring.BroadcastStats(**tables)

    monkeypatch.setattr(stats, "BroadcastStats", capture)
    full_prior = build_entity_prior_from_docs(
        res.conv_docs, stats.PRIOR_SAMPLE_MOD, num_buckets=NB)
    pruned = broadcast_stats(res.token_stats, res.pair_stats, full_prior,
                             res.n_convs)
    tok = _collect(res.token_stats, TOKEN_STATS_SCHEMA)
    full = scoring.BroadcastStats(**{
        **seen, "vocab": tok.select(["token_hash", "df"]),
        "prior": _collect(full_prior, PRIOR_SCHEMA)})
    assert len(full.vocab) > len(pruned.vocab)
    assert len(full.prior) > len(pruned.prior)
    joined = pa.concat_tables(
        b for b in ray.get(scoring.attach_features(
            res.pairs, res.features, num_buckets=1).to_arrow_refs())
        if b.num_rows)
    cfg = PipelineConfig()
    want = scoring.PairScorer(full, cfg)(joined)
    assert want.num_rows == res.pairs.count()
    assert scoring.PairScorer(pruned, cfg)(joined).equals(want)
