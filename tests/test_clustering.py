"""Distributed connected components vs the single-process union-find oracle
(FIXTURES.md §3 oracle pattern)."""

import sys

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from pboh_entity_linking_ray.stages.clustering import (
    _LABEL_SCHEMA,
    cluster_matches,
    connected_components,
)
from pboh_entity_linking_ray.state.unionfind import cluster_edges


def _labels(out) -> dict:
    """conv_id → cluster_id of a label Dataset whose every block, the
    empty buckets' included, carries the label schema."""
    blocks = ray.get(out.to_arrow_refs())
    assert blocks and all(b.schema == _LABEL_SCHEMA for b in blocks)
    t = pa.concat_tables(blocks)
    return dict(zip(t["conv_id"].to_pylist(), t["cluster_id"].to_pylist()))


def _random_edges(rng, n_nodes, n_edges):
    nodes = [f"n{i:04d}" for i in range(n_nodes)]
    pairs = set()
    while len(pairs) < n_edges:
        i, j = rng.integers(0, n_nodes, size=2)
        if i != j:
            a, b = sorted((nodes[int(i)], nodes[int(j)]))
            pairs.add((a, b))
    return sorted(pairs)


def test_cc_matches_unionfind_oracle(ray_session):
    rng = np.random.default_rng(17)
    edges = _random_edges(rng, 120, 90)
    ds = rd.from_arrow(pa.table({
        "u": [a for a, _ in edges], "v": [b for _, b in edges],
    }))
    got = connected_components(ds, 8).to_pandas()
    expect = cluster_edges(edges)
    got_map = dict(zip(got["conv_id"], got["cluster_id"]))
    assert got_map == {k: v for k, v in expect.items()}


def test_cc_long_chain(ray_session):
    # a path graph exercises the O(log n) contraction depth
    nodes = [f"c{i:03d}" for i in range(64)]
    ds = rd.from_arrow(pa.table({"u": nodes[:-1], "v": nodes[1:]}))
    got = connected_components(ds, 8).to_pandas()
    assert set(got["cluster_id"]) == {nodes[0]}
    assert len(got) == 64


def test_cluster_matches_includes_singletons(ray_session):
    matches = rd.from_arrow(pa.table({
        "conv_a": ["a", "b"], "conv_b": ["b", "c"],
    }))
    universe = rd.from_arrow(pa.table({"conv_id": ["a", "b", "c", "d", "e"]}))
    out = cluster_matches(matches, universe, 8).to_pandas().sort_values("conv_id")
    assert dict(zip(out["conv_id"], out["cluster_id"])) == {
        "a": "a", "b": "a", "c": "a", "d": "d", "e": "e",
    }
    # no matches at 64 buckets: the edge dedup and pick_min run on
    # (mostly) empty buckets and still return their schemas
    none = rd.from_arrow(pa.table({"conv_a": pa.array([], pa.string()),
                                   "conv_b": pa.array([], pa.string())}))
    assert _labels(cluster_matches(none, universe, 64)) == {
        c: c for c in "abcde"}


def test_cc_distributed_rounds_match_local_finish(ray_session):
    """local_finish_rows=0 forces pure star-contraction rounds; the
    result must equal the hybrid (local-finish) path and the oracle.
    Three edges at 64 buckets leave most buckets empty, so the edge
    dedup, both star steps and the labelling all see empty buckets."""
    rng = np.random.default_rng(31)
    for edges, nb in ((_random_edges(rng, 100, 80), 8),
                      ([("a", "b"), ("b", "c"), ("x", "y")], 64)):
        ds = rd.from_arrow(pa.table({
            "u": [a for a, _ in edges], "v": [b for _, b in edges],
        }))
        got = _labels(connected_components(ds, nb, local_finish_rows=0))
        assert got == dict(cluster_edges(edges).items())


def test_cc_iter_checkpoint_resume(ray_session, tmp_path):
    """K4 analog (periodic weight dumps, utils/OptimizedRhosMap.scala:89-97):
    star-round frontiers checkpoint every round; a re-run against the same
    root resumes from the newest frontier — proven by feeding the resumed
    run EMPTY edges, which could only produce the full labeling if the
    checkpointed frontier (not the input) was used."""
    root = str(tmp_path / "cc_ckpt")
    nodes = [f"c{i:03d}" for i in range(48)]
    ds = rd.from_arrow(pa.table({"u": nodes[:-1], "v": nodes[1:]}))
    base = connected_components(ds, 8, local_finish_rows=0)\
        .to_pandas().sort_values("conv_id").reset_index(drop=True)
    ckpt = connected_components(
        ds, 8, local_finish_rows=0, iter_checkpoint_root=root,
        checkpoint_every=1,
    ).to_pandas().sort_values("conv_id").reset_index(drop=True)
    assert ckpt.equals(base)
    import os
    rounds = [d for d in os.listdir(root) if d.startswith("round=")]
    assert len(rounds) == 1          # older rounds pruned, newest kept

    empty = rd.from_arrow(pa.table({
        "u": pa.array([], type=pa.string()),
        "v": pa.array([], type=pa.string())}))
    resumed = connected_components(
        empty, 8, local_finish_rows=0, iter_checkpoint_root=root,
        checkpoint_every=1,
    ).to_pandas().sort_values("conv_id").reset_index(drop=True)
    assert resumed.equals(base)


def test_cc_edge_order_invariance(ray_session):
    rng = np.random.default_rng(23)
    edges = _random_edges(rng, 60, 50)
    rev = list(reversed(edges))
    ds1 = rd.from_arrow(pa.table({"u": [a for a, _ in edges], "v": [b for _, b in edges]}))
    ds2 = rd.from_arrow(pa.table({"u": [a for a, _ in rev], "v": [b for _, b in rev]}))
    g1 = connected_components(ds1, 8).to_pandas().sort_values("conv_id").reset_index(drop=True)
    g2 = connected_components(ds2, 8).to_pandas().sort_values("conv_id").reset_index(drop=True)
    assert g1.equals(g2)


def test_recluster_touched_region_and_upsert(ray_session):
    """Only touched prior clusters are re-labelled; a changed id's own
    prior row is replaced (its old cluster stays linked without it)."""
    import pyarrow as pa
    import ray.data as rd

    from pboh_entity_linking_ray.stages.clustering import recluster

    prior = rd.from_arrow(pa.table({
        "conv_id": list("abcdefgh"),
        "cluster_id": ["a", "a", "a", "d", "d", "f", "g", "g"]}))
    matches = rd.from_arrow(pa.table({"conv_a": ["d", "a"],
                                      "conv_b": ["x", "f"]}))
    rc = recluster(prior, matches, pa.array(["a", "x"]))
    got = rc.assignments().to_pandas()
    want = {"a": "a", "b": "b", "c": "b", "d": "d", "e": "d", "f": "a",
            "g": "g", "h": "g", "x": "d"}
    assert list(got["conv_id"]) == sorted(want)
    assert dict(zip(got["conv_id"], got["cluster_id"])) == want
    assert rc.region["conv_id"].to_pylist() == list("abcdefx")
    assert rc.region["prior_id"].to_pylist() == \
        ["a", "a", "a", "d", "d", "f", None]


def test_collect_fetches_only_declared_columns(ray_session, monkeypatch):
    """Blocks wider than the declared schema are projected where they
    live: the driver's fetch receives only the declared columns."""
    import pandas as pd

    from pboh_entity_linking_ray.stages import clustering

    wide = pa.table({"conv_a": ["a", "b"], "conv_b": ["c", "d"],
                     "tokens": [b"x" * 64, b"y" * 64],
                     "is_match": [True, False]})
    ds = rd.from_arrow([wide, wide.slice(1)]).union(
        rd.from_pandas(pd.DataFrame({"conv_a": ["e"], "conv_b": ["f"],
                                     "score": [0.5], "is_match": [True]})))
    schema = pa.schema([("conv_a", pa.string()), ("conv_b", pa.string()),
                        ("is_match", pa.bool_())])
    fetched = []
    get = ray.get

    def spy(refs, *args, **kwargs):
        out = get(refs, *args, **kwargs)
        if sys._getframe(1).f_code is clustering._collect.__code__:
            fetched.extend(out)
        return out

    monkeypatch.setattr(clustering.ray, "get", spy)
    got = clustering._collect(ds, schema)
    assert len(fetched) == 3
    assert all(b.column_names == schema.names for b in fetched)
    assert got.sort_by("conv_a").to_pydict() == {
        "conv_a": ["a", "b", "b", "e"], "conv_b": ["c", "d", "d", "f"],
        "is_match": [True, False, False, True]}
