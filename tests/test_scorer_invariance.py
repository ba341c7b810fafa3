"""The scorer is a pure function of the pair: the scored table is
byte-identical whatever the bucket count or batch split, and so are a
whole batch run and a fold whatever the cluster's CPU count (which sets
every exchange's bucket count)."""

import numpy as np
import pyarrow as pa


def _table(ds) -> pa.Table:
    import ray

    return pa.concat_tables(
        b for b in ray.get(ds.to_arrow_refs()) if b.num_rows)


def test_scores_identical_across_buckets_and_splits(linkage200, monkeypatch):
    from pboh_entity_linking_ray.config import PipelineConfig
    from pboh_entity_linking_ray.stages import scoring

    res = linkage200
    tables = [_table(scoring.attach_and_score(
        res.pairs, res.features, res.stats_ref, num_buckets=nb))
        .sort_by("pair_key") for nb in (1, 4, 64)]
    want = tables[0]
    assert want.num_rows == res.pairs.count()
    for t in tables[1:]:
        assert t.equals(want)

    # in-process: a small chunk forces many cuts, and a shuffled split
    # puts each pair in a different batch with different neighbours
    monkeypatch.setattr(scoring, "_TERM_CHUNK", 1_009)
    joined = _table(scoring.attach_features(res.pairs, res.features,
                                            num_buckets=1))
    scorer = scoring.PairScorer(res.stats_ref, PipelineConfig())
    whole = scorer(joined).select(want.column_names).sort_by("pair_key")
    assert whole.equals(want)

    perm = np.random.default_rng(5).permutation(joined.num_rows)
    shuffled = joined.take(pa.array(perm))
    split = pa.concat_tables(
        scorer(shuffled.slice(s, 701))
        for s in range(0, shuffled.num_rows, 701))
    assert split.select(want.column_names).sort_by("pair_key").equals(want)


def test_runs_identical_across_cpu_counts(corpus200, monkeypatch):
    """At 1, 4 and 32 cluster CPUs (2, 8 and 64 buckets per exchange) a
    batch run's scored and cluster tables, and a disjoint fold's scored
    table, clusters and conversation count, are byte-identical."""
    import ray.data as rd

    from pboh_entity_linking_ray.functions.hashing import hash_strings_u64
    from pboh_entity_linking_ray.pipelines import incremental, linkage

    turns = corpus200.turns
    is_new = pa.array(hash_strings_u64(turns["conv_id"]) % np.uint64(5) == 0)
    base_turns = rd.from_arrow(turns.filter(pa.compute.invert(is_new)))
    new_turns = rd.from_arrow(turns.filter(is_new))

    outs = []
    for cpus in (1, 4, 32):
        for mod in (linkage, incremental):
            monkeypatch.setattr(mod, "_cluster_cpus", lambda c=cpus: c)
        base = linkage.run_linkage(base_turns)
        base.clusters = base.clusters.materialize()
        inc = incremental.run_incremental(base, new_turns)
        folded = incremental.fold_incremental(base, inc)
        outs.append((_table(base.scored).sort_by("pair_key"),
                     _table(base.clusters),
                     _table(inc.scored).sort_by("pair_key"),
                     _table(folded.clusters), folded.n_convs))
    want = outs[0]
    assert want[2].num_rows > 0 and want[4] == 200
    for got in outs[1:]:
        assert all(g.equals(w) for g, w in zip(got[:4], want[:4]))
        assert got[4] == want[4]
