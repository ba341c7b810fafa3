"""Kill-at-stage-k resume: byte-identical final clusters (north_rule)."""

import os
import shutil

import ray.data as rd

from pboh_entity_linking_ray.pipelines.linkage import run_linkage
from pboh_entity_linking_ray.sources.synthetic import generate_corpus


def _clusters_csv(res):
    return res.clusters.to_pandas().sort_values("conv_id").to_csv(index=False)


def test_resume_byte_identical(ray_session, tmp_path):
    root = str(tmp_path / "ckpt")
    corpus = generate_corpus(80, 31)
    res1 = run_linkage(rd.from_arrow(corpus.turns), checkpoint_root=root)
    first = _clusters_csv(res1)

    manifests = set(os.listdir(os.path.join(root, "manifest")))
    assert {"conv_docs.json", "features.json", "token_stats.json",
            "pair_stats.json", "entity_prior.json",
            "pairs.json", "scored.json", "clusters.json"} <= manifests

    # simulate kill after 'pairs': drop the checkpoints of later stages
    for stage in ("scored", "clusters"):
        os.remove(os.path.join(root, "manifest", f"{stage}.json"))
        shutil.rmtree(os.path.join(root, f"stage={stage}"))

    res2 = run_linkage(rd.from_arrow(corpus.turns), checkpoint_root=root)
    assert _clusters_csv(res2) == first


def test_manifest_consistency(ray_session, tmp_path):
    root = str(tmp_path / "ckpt2")
    corpus = generate_corpus(60, 32)
    res = run_linkage(rd.from_arrow(corpus.turns), checkpoint_root=root)
    import json

    with open(os.path.join(root, "manifest", "pairs.json")) as f:
        pairs_m = json.load(f)
    assert pairs_m["row_count"] == res.pairs.count()
    assert sum(p["rows"] for p in pairs_m["partitions"]) == pairs_m["row_count"]

    with open(os.path.join(root, "manifest", "scored.json")) as f:
        scored_m = json.load(f)
    hist = scored_m["metrics"]["score_histogram"]
    assert sum(hist) == scored_m["row_count"]


def test_manifest_empty_token_counter(ray_session, tmp_path):
    """M15 analog: zero-content-token convs are counted in the features
    manifest (reference drops + counts, eval/VerifyEDAbstract.scala:49-85)."""
    import json

    import pyarrow as pa

    root = str(tmp_path / "ckpt3")
    corpus = generate_corpus(40, 7)
    # two convs whose turns are pure stopwords → zero content tokens
    extra = pa.table({
        "conv_id": ["stop_a", "stop_a", "stop_b"],
        "turn_idx": pa.array([0, 1, 0], type=pa.int32()),
        "role": ["user", "assistant", "user"],
        "text": ["the of and to", "a an is it", "was we you your"],
        "tool": ["none", "none", "none"],
        "ts": pa.array([0, 1, 0], type=corpus.turns["ts"].type),
    })
    turns = pa.concat_tables([corpus.turns.select(extra.column_names), extra])
    run_linkage(rd.from_arrow(turns), checkpoint_root=root)
    with open(os.path.join(root, "manifest", "features.json")) as f:
        feats_m = json.load(f)
    assert feats_m["metrics"]["empty_token_convs"] == 2


def test_stage_write_leaves_other_tmp_dirs(ray_session, tmp_path):
    """Each build-then-rename write (a checkpointed stage, the synthetic
    corpus cache, a connected-components round checkpoint) goes to a
    private temp dir: an in-flight ``<final>.tmp`` of another writer on
    the same root neither lands in the output nor is deleted."""
    import pyarrow as pa

    from pboh_entity_linking_ray.sources.synthetic import (corpus_dir,
                                                           ensure_corpus)
    from pboh_entity_linking_ray.stages.clustering import _write_round_ckpt
    from pboh_entity_linking_ray.state.checkpoint import StageRunner

    def plant(final):
        os.makedirs(final + ".tmp")
        open(os.path.join(final + ".tmp", "sentinel"), "w").close()
        return os.path.join(final + ".tmp", "sentinel")

    runner = StageRunner(str(tmp_path / "ckpt4"))
    sentinel = plant(runner.stage_dir("rows"))
    out = runner.run("rows", lambda: rd.from_arrow(pa.table({"a": [1, 2, 3]})))
    assert sorted(out.to_pandas()["a"]) == [1, 2, 3]
    assert runner.read_manifest("rows")["row_count"] == 3
    assert os.path.exists(sentinel)

    root = str(tmp_path / "corpus")
    sentinel = plant(corpus_dir(root, 20, 3))
    d = ensure_corpus(root, 20, 3)
    assert os.path.exists(sentinel)
    assert sorted(os.listdir(d)) == ["_COMPLETE", "golden_clusters.parquet",
                                     "labels.parquet", "turns.parquet"]

    root = str(tmp_path / "cc")
    sentinel = plant(os.path.join(root, "round=4"))
    _write_round_ckpt(root, 4, rd.from_arrow(pa.table({"u": ["a"],
                                                       "v": ["b"]})))
    assert os.path.exists(sentinel)
    files = os.listdir(os.path.join(root, "round=4"))
    assert "_complete.json" in files and "sentinel" not in files
