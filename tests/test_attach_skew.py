"""Flagship feature-attach skew defense: a conversation planted in ~½ of
all pairs must route the attach joins through skew_join (per-key salt),
and the output must be identical to the undefended hash_join plan."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data

from pboh_entity_linking_ray.config import PipelineConfig
from pboh_entity_linking_ray.functions import grouping
from pboh_entity_linking_ray.sources.synthetic import generate_corpus
from pboh_entity_linking_ray.stages.canonicalize import canonicalize
from pboh_entity_linking_ray.stages.clustering import _collect
from pboh_entity_linking_ray.stages.featurize import (STEM_SCHEMA,
                                                      build_stem_map,
                                                      featurize)
from pboh_entity_linking_ray.stages import scoring


@pytest.fixture(scope="module")
def feats_and_skewed_pairs(ray_session):
    cfg = PipelineConfig()
    c = generate_corpus(50, 7)
    docs = canonicalize(ray.data.from_arrow(c.turns), 8).materialize()
    stem_ref = ray.put(_collect(build_stem_map(docs, cfg, num_buckets=8),
                               STEM_SCHEMA))
    feats = featurize(docs, cfg, stem_ref).materialize()
    convs = sorted(feats.to_pandas()["conv_id"])
    hot = convs[0]
    rows = [(hot, convs[i]) for i in range(1, 41)] \
        + [(convs[i], convs[i + 1]) for i in range(1, 41)]
    pairs = pd.DataFrame(rows, columns=["conv_a", "conv_b"])
    pairs["pair_key"] = pairs["conv_a"] + "\x1f" + pairs["conv_b"]
    pairs["block_key"] = "t"
    pairs["capped_pairs"] = np.int64(0)
    pairs_ds = ray.data.from_arrow(
        pa.Table.from_pandas(pairs, preserve_index=False)).materialize()
    return feats, pairs_ds, hot


def _norm(ds):
    df = ds.to_pandas().sort_values(["conv_a", "conv_b"]) \
        .reset_index(drop=True)
    return df[sorted(df.columns)]


def test_skew_defense_engages_and_matches_plain_plan(
        feats_and_skewed_pairs, monkeypatch):
    feats, pairs_ds, hot = feats_and_skewed_pairs
    calls = []
    orig = grouping.skew_join

    def spy(left, right, on, hot_keys, *a, **kw):
        calls.append((on, dict(hot_keys)))
        return orig(left, right, on, hot_keys, *a, **kw)

    monkeypatch.setattr(grouping, "skew_join", spy)
    defended = _norm(scoring._attach(pairs_ds, feats, 16))
    # the planted conv is hot on BOTH sides' first join key (conv_a)
    assert calls and calls[0][0] == "conv_a" and hot in calls[0][1]
    # the same two joins as plain hash joins
    monkeypatch.setattr(grouping, "adaptive_skew_join", grouping.hash_join)
    plain = _norm(scoring._attach(pairs_ds, feats, 16))
    pd.testing.assert_frame_equal(defended, plain)
