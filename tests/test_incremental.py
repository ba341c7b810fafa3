"""Incremental linkage (pipelines/incremental.py): agreement with the
full-corpus run, the no-old-pair-rescoring invariant, and determinism."""

import numpy as np
import pandas as pd
import pyarrow as pa


def _pair_set(df: pd.DataFrame) -> set:
    """Co-membership pairs of a (conv_id, cluster_id) table."""
    m = df.merge(df, on="cluster_id")
    m = m[m["conv_id_x"] < m["conv_id_y"]]
    return set(zip(m["conv_id_x"], m["conv_id_y"]))


def _pair_f1(a: pd.DataFrame, b: pd.DataFrame) -> float:
    pa_, pb = _pair_set(a), _pair_set(b)
    if not pa_ and not pb:
        return 1.0
    tp = len(pa_ & pb)
    prec = tp / len(pa_) if pa_ else 1.0
    rec = tp / len(pb) if pb else 1.0
    return 0.0 if prec + rec == 0 else 2 * prec * rec / (prec + rec)


def test_incremental_linkage(ray_session):
    import ray.data as rd

    from pboh_entity_linking_ray.functions.hashing import hash_strings_u64
    from pboh_entity_linking_ray.pipelines.incremental import run_incremental
    from pboh_entity_linking_ray.pipelines.linkage import run_linkage
    from pboh_entity_linking_ray.sources.synthetic import generate_corpus

    corpus = generate_corpus(240, 7)
    turns = corpus.turns
    is_new = pa.array((hash_strings_u64(turns["conv_id"])
                       % np.uint64(5)) == 0)
    new_tbl = turns.filter(is_new)
    base_tbl = turns.filter(pa.compute.invert(is_new))
    new_ids = set(pa.compute.unique(new_tbl["conv_id"]).to_pylist())
    assert new_ids, "split produced no new conversations"

    base = run_linkage(rd.from_arrow(base_tbl))
    inc = run_incremental(base, rd.from_arrow(new_tbl))
    inc_df = inc.clusters.to_pandas()

    # universe: one row per conversation across base ∪ new
    n_convs = len(pa.compute.unique(turns["conv_id"]))
    assert len(inc_df) == n_convs
    assert inc_df["conv_id"].is_unique

    # invariant: every scored pair touches at least one NEW conversation
    sc = inc.scored.select_columns(["conv_a", "conv_b"]).to_pandas()
    assert len(sc) > 0
    assert (sc["conv_a"].isin(new_ids) | sc["conv_b"].isin(new_ids)).all()

    # agreement with the full-corpus rerun (frozen stats → tracks, not
    # equals; on the golden corpus the clusters should still align)
    full = run_linkage(rd.from_arrow(turns))
    full_df = full.clusters.to_pandas()
    assert _pair_f1(inc_df, full_df) >= 0.95

    # and with the golden clusters themselves
    gold = corpus.golden_clusters.to_pandas()
    assert _pair_f1(inc_df, gold) >= 0.95

    # determinism: identical base + batch → byte-identical clusters
    inc2 = run_incremental(base, rd.from_arrow(new_tbl))
    pd.testing.assert_frame_equal(inc_df, inc2.clusters.to_pandas())


def test_streaming_microbatch_linkage(ray_session):
    """fold_incremental composes run_incremental into a micro-batch
    stream: 3 batches processed in sequence agree with the one-shot
    full run."""
    import ray.data as rd

    from pboh_entity_linking_ray.functions.hashing import hash_strings_u64
    from pboh_entity_linking_ray.pipelines.incremental import (
        fold_incremental,
        run_incremental,
    )
    from pboh_entity_linking_ray.pipelines.linkage import run_linkage
    from pboh_entity_linking_ray.sources.synthetic import generate_corpus

    corpus = generate_corpus(210, 11)
    turns = corpus.turns
    part = (hash_strings_u64(turns["conv_id"]) % np.uint64(3)).astype(np.int64)
    batches = [turns.filter(pa.array(part == i)) for i in range(3)]
    assert all(b.num_rows for b in batches)

    state = run_linkage(rd.from_arrow(batches[0]))
    for b in batches[1:]:
        state = fold_incremental(state,
                                 run_incremental(state, rd.from_arrow(b)))

    stream_df = state.clusters.to_pandas()
    n_convs = len(pa.compute.unique(turns["conv_id"]))
    assert len(stream_df) == n_convs
    assert state.n_convs == n_convs

    full_df = run_linkage(rd.from_arrow(turns)).clusters.to_pandas()
    assert _pair_f1(stream_df, full_df) >= 0.95
    assert _pair_f1(stream_df, corpus.golden_clusters.to_pandas()) >= 0.95


def test_incremental_resume_byte_identical(ray_session, tmp_path):
    """Kill-after-inc_pairs resume over the incremental checkpoint root
    → byte-identical clusters (the flagship resume contract extended to
    the incremental path)."""
    import os
    import shutil

    import ray.data as rd

    from pboh_entity_linking_ray.functions.hashing import hash_strings_u64
    from pboh_entity_linking_ray.pipelines.incremental import run_incremental
    from pboh_entity_linking_ray.pipelines.linkage import run_linkage
    from pboh_entity_linking_ray.sources.synthetic import generate_corpus

    corpus = generate_corpus(120, 13)
    turns = corpus.turns
    is_new = pa.array((hash_strings_u64(turns["conv_id"])
                       % np.uint64(4)) == 0)
    base = run_linkage(rd.from_arrow(turns.filter(pa.compute.invert(is_new))))
    new_ds = rd.from_arrow(turns.filter(is_new))

    root = str(tmp_path / "inc_ckpt")
    first = run_incremental(base, new_ds, checkpoint_root=root) \
        .clusters.to_pandas().sort_values("conv_id").to_csv(index=False)
    manifests = set(os.listdir(os.path.join(root, "manifest")))
    assert {"inc_conv_docs.json", "inc_features.json", "inc_pairs.json",
            "inc_scored.json", "inc_clusters.json"} <= manifests

    for stage in ("inc_scored", "inc_clusters"):
        os.remove(os.path.join(root, "manifest", f"{stage}.json"))
        shutil.rmtree(os.path.join(root, f"stage={stage}"))

    second = run_incremental(base, new_ds, checkpoint_root=root) \
        .clusters.to_pandas().sort_values("conv_id").to_csv(index=False)
    assert second == first


def test_touched_region_cc_equals_full_union_cc(ray_session):
    """``recluster``'s touched-region CC is EXACT: clusters from the
    restricted CC (members of touched base clusters + batch convs,
    untouched rows passed through) must equal CC over the full union
    graph (base label edges ∪ match edges) row for row.  Second case: a
    batch that also carries conversations the base already holds (the
    upsert contract) — each conv id appears once, no pair scores a conv
    against its own stale base row, and the clusters equal full-union CC
    once the changed convs' base rows are replaced."""
    import ray.data as rd

    from pboh_entity_linking_ray.functions.hashing import hash_strings_u64
    from pboh_entity_linking_ray.pipelines.incremental import run_incremental
    from pboh_entity_linking_ray.pipelines.linkage import run_linkage
    from pboh_entity_linking_ray.sources.synthetic import generate_corpus
    from pboh_entity_linking_ray.stages.clustering import cluster_matches

    corpus = generate_corpus(200, 11)
    turns = corpus.turns
    part = hash_strings_u64(turns["conv_id"]) % np.uint64(4)
    base = run_linkage(rd.from_arrow(turns.filter(pa.array(part != 0))))
    base_df = base.clusters.to_pandas()

    for batch_parts in ((0,), (0, 1)):
        batch = turns.filter(pa.array(np.isin(part, batch_parts)))
        changed = set(pa.compute.unique(batch["conv_id"]).to_pylist())
        inc = run_incremental(base, rd.from_arrow(batch))
        got = inc.clusters.to_pandas().sort_values("conv_id") \
            .reset_index(drop=True)
        assert got["conv_id"].is_unique
        assert len(got) == len(set(base_df["conv_id"]) | changed)
        sc = inc.scored.select_columns(["conv_a", "conv_b"]).to_pandas()
        assert not (sc["conv_a"] == sc["conv_b"]).any()

        # the definition: CC over the FULL union graph; each kept base
        # row links to its cluster's least kept member (= its label when
        # no member changed)
        kept = base_df[~base_df["conv_id"].isin(changed)]
        base_edges = pa.table({
            "conv_a": kept["conv_id"].to_numpy(),
            "conv_b": kept.groupby("cluster_id")["conv_id"]
            .transform("min").to_numpy()}).cast(pa.schema(
                [("conv_a", pa.string()), ("conv_b", pa.string())]))
        universe = pa.table({"conv_id": pa.array(
            sorted(set(kept["conv_id"]) | changed), type=pa.string())})
        want = cluster_matches(
            inc.matches.select_columns(["conv_a", "conv_b"])
            .union(rd.from_arrow(base_edges)), rd.from_arrow(universe), 8) \
            .to_pandas().sort_values("conv_id").reset_index(drop=True)

        pd.testing.assert_frame_equal(got, want)


def test_empty_batch_keeps_base_clusters(ray_session, tmp_path):
    """A micro-batch with no rows scores nothing and leaves the base
    clusters unchanged, in memory (Ray hands the empty batch through as
    zero-column blocks) and checkpointed (a stage reads back with no
    blocks at all)."""
    import ray.data as rd

    from pboh_entity_linking_ray.pipelines.incremental import (
        fold_incremental, run_incremental)
    from pboh_entity_linking_ray.pipelines.linkage import run_linkage
    from pboh_entity_linking_ray.sources.synthetic import generate_corpus

    turns = generate_corpus(40, 3).turns
    base = run_linkage(rd.from_arrow(turns))
    base.clusters = base.clusters.materialize()
    want = base.clusters.to_pandas()
    for root in (None, str(tmp_path / "inc")):
        inc = run_incremental(base, rd.from_arrow(turns.slice(0, 0)),
                              checkpoint_root=root)
        assert inc.pairs.count() == 0
        assert inc.scored.count() == 0
        pd.testing.assert_frame_equal(inc.clusters.to_pandas(), want)
        pd.testing.assert_frame_equal(
            fold_incremental(base, inc).clusters.to_pandas(), want)
