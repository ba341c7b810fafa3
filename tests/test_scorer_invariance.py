"""The scorer is a pure function of the pair: the scored table is
byte-identical whatever the bucket count or batch split."""

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
