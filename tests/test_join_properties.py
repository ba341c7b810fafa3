"""Property tests: the join implementations (bucketed hash_join,
uniformly-salted salted_join, per-key-salted skew_join /
adaptive_skew_join, map-side broadcast_join) must agree with a
pandas reference merge on arbitrary key/value tables for every how.

Few examples, seeds fixed by hypothesis derandomization under pytest;
each example builds real (small) Ray datasets, so examples are capped.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pboh_entity_linking_ray.functions.grouping import (adaptive_skew_join,
                                                        broadcast_join,
                                                        detect_hot_keys,
                                                        hash_join,
                                                        salted_join,
                                                        skew_join)

KEYS = st.lists(st.integers(min_value=-5, max_value=9),
                min_size=0, max_size=40)


def _ref(ldf: pd.DataFrame, rdf: pd.DataFrame, how: str) -> pd.DataFrame:
    if how in ("inner", "left"):
        out = ldf.merge(rdf, on="k", how=how)
    elif how == "full":
        out = ldf.merge(rdf, on="k", how="outer")
    elif how == "semi":
        out = ldf[ldf.k.isin(set(rdf.k))]
    else:                                        # anti
        out = ldf[~ldf.k.isin(set(rdf.k))]
    return out.sort_values(out.columns.tolist()).reset_index(drop=True)


def _norm(ds) -> pd.DataFrame:
    df = ds.to_pandas()
    return df.sort_values(df.columns.tolist()).reset_index(drop=True)


@pytest.mark.parametrize("how", ["inner", "left", "semi", "anti", "full"])
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lk=KEYS, rk=KEYS)
@example(lk=[1, 2, 2, 3, 5], rk=[2, 3, 3, 4])    # duplicate keys, both sides
def test_joins_agree_with_pandas(ray_session, how, lk, rk):
    ldf = pd.DataFrame({"k": np.array(lk, dtype="int64"),
                        "lv": np.arange(len(lk), dtype="int64")})
    rdf = pd.DataFrame({"k": np.array(rk, dtype="int64"),
                        "rv": np.arange(len(rk), dtype="int64") * 10})
    want = _ref(ldf, rdf, how)

    left = ray.data.from_arrow(pa.Table.from_pandas(ldf)).repartition(3)
    right_tbl = pa.Table.from_pandas(rdf)
    right = ray.data.from_arrow(right_tbl).repartition(2)

    # full outer is hash_join-only: salted_join would surface unmatched
    # right rows `salt` times (it raises), and broadcast_join's per-batch
    # small side would duplicate unmatched dimension rows across batches
    impls = [("hash", hash_join(left, right, "k", how=how, num_buckets=8))]
    if how != "full":
        impls += [
            ("salted", salted_join(left, right, "k", salt=3, how=how,
                                   num_buckets=8)),
            ("broadcast", broadcast_join(left, right_tbl, "k", how=how)),
            # per-key salt map: 0/1 hot (when present), the rest cold
            ("skew", skew_join(left, right, "k", {0: 3, 1: 2}, how=how,
                               num_buckets=8)),
        ]
    for name, got in impls:
        got_df = _norm(got)
        if len(want) == 0:
            assert len(got_df) == 0, name
            continue
        # a schema-less EMPTY right side degrades the output schema
        # (right columns unknowable — the documented schema-less-side
        # contract of grouping._join); reindex fills them with the nulls
        # pandas produces
        got_df = got_df.reindex(columns=want.columns.tolist())
        pd.testing.assert_frame_equal(got_df, want, check_dtype=False,
                                      obj=name)


@pytest.mark.parametrize("how", ["inner", "left", "semi", "anti", "full"])
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lk=KEYS, lk2=KEYS, rk=KEYS, rk2=KEYS)
def test_composite_key_hash_join_agrees_with_pandas(ray_session, how,
                                                    lk, lk2, rk, rk2):
    """hash_join on a LIST of key columns (routing by packed row-hash,
    in-bucket match on the real columns) must agree with pandas for
    every how."""
    n_l, n_r = min(len(lk), len(lk2)), min(len(rk), len(rk2))
    ldf = pd.DataFrame({"k": np.array(lk[:n_l], dtype="int64"),
                        "k2": np.array(lk2[:n_l], dtype="int64"),
                        "lv": np.arange(n_l, dtype="int64")})
    rdf = pd.DataFrame({"k": np.array(rk[:n_r], dtype="int64"),
                        "k2": np.array(rk2[:n_r], dtype="int64"),
                        "rv": np.arange(n_r, dtype="int64") * 10})
    if how in ("inner", "left"):
        want = ldf.merge(rdf, on=["k", "k2"], how=how)
    elif how == "full":
        want = ldf.merge(rdf, on=["k", "k2"], how="outer")
    else:
        keys = set(zip(rdf.k, rdf.k2))
        mask = [(a, b) in keys for a, b in zip(ldf.k, ldf.k2)]
        want = ldf[mask] if how == "semi" else ldf[[not m for m in mask]]
    want = want.sort_values(want.columns.tolist()).reset_index(drop=True)

    left = ray.data.from_arrow(pa.Table.from_pandas(ldf)).repartition(3)
    right = ray.data.from_arrow(pa.Table.from_pandas(rdf)).repartition(2)
    got = _norm(hash_join(left, right, ["k", "k2"], how=how, num_buckets=8))
    if len(want) == 0:
        assert len(got) == 0
        return
    got = got.reindex(columns=want.columns.tolist())
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_adaptive_skew_join_on_planted_hot_key(ray_session):
    """A Zipf-shaped left side: one key holds ~60% of rows.  The
    sampled detector must flag it, and the salted plan's output must be
    IDENTICAL to the plain hash join (detection steers performance
    only)."""
    rng = np.random.default_rng(11)
    hot = np.full(1200, 7, dtype=np.int64)
    cold = rng.integers(100, 400, size=800).astype(np.int64)
    lk = np.concatenate([hot, cold])
    rng.shuffle(lk)
    ldf = pd.DataFrame({"k": lk, "lv": np.arange(len(lk), dtype="int64")})
    rk = np.arange(0, 450, dtype=np.int64)
    rdf = pd.DataFrame({"k": rk, "rv": rk * 10})
    left = ray.data.from_arrow(pa.Table.from_pandas(ldf)).repartition(4)
    right = ray.data.from_arrow(pa.Table.from_pandas(rdf)).repartition(2)

    found = detect_hot_keys(left, "k", sample_frac=0.5, hot_frac=0.05,
                            num_buckets=8)
    assert 7 in found and found[7] >= 2
    assert all(s <= 16 for s in found.values())

    for how in ("inner", "left", "semi", "anti"):
        want = _norm(hash_join(left, right, "k", how=how, num_buckets=8))
        got = _norm(adaptive_skew_join(left, right, "k", how=how,
                                       num_buckets=8, sample_frac=0.5,
                                       hot_frac=0.05))
        pd.testing.assert_frame_equal(got, want, check_dtype=False, obj=how)


def test_skew_join_string_keys_and_flat_fallback(ray_session):
    """String-typed hot keys work (the salt map broadcast casts to the
    key column type), and an empty/flat hot map degrades to hash_join."""
    ldf = pd.DataFrame({"k": ["a", "a", "a", "b", "c"] * 4,
                        "lv": np.arange(20, dtype="int64")})
    rdf = pd.DataFrame({"k": ["a", "b", "d"], "rv": [1, 2, 3]})
    left = ray.data.from_arrow(pa.Table.from_pandas(ldf)).repartition(3)
    right = ray.data.from_arrow(pa.Table.from_pandas(rdf))
    want = _norm(hash_join(left, right, "k", num_buckets=4))
    got = _norm(skew_join(left, right, "k", {"a": 4}, num_buckets=4))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # salts < 2 are dropped; an all-cold map is exactly hash_join
    got2 = _norm(skew_join(left, right, "k", {"a": 1}, num_buckets=4))
    pd.testing.assert_frame_equal(got2, want, check_dtype=False)


def test_skew_and_salted_join_tolerate_fully_filtered_blocks(ray_session):
    """Ray map operators emit zero-COLUMN empty blocks when a task's
    input has no rows; skew_join/salted_join's per-side preps must pass
    them through instead of crashing on t[on] (CLAUDE.md rule)."""
    ldf = pd.DataFrame({"k": np.array([1, 1, 2, 3], dtype="int64"),
                        "lv": np.arange(4, dtype="int64")})
    rdf = pd.DataFrame({"k": np.array([1, 2, 2, 9], dtype="int64"),
                        "rv": np.arange(4, dtype="int64") * 10})
    want = _ref(ldf, rdf, "inner")

    def drop_all(t: pa.Table) -> pa.Table:
        return t.slice(0, 0)

    # one branch with real rows, one producing only empty blocks
    left = (ray.data.from_arrow(pa.Table.from_pandas(ldf)).repartition(2)
            .union(ray.data.from_arrow(pa.Table.from_pandas(ldf))
                   .map_batches(drop_all, batch_format="pyarrow")))
    right = (ray.data.from_arrow(pa.Table.from_pandas(rdf)).repartition(2)
             .union(ray.data.from_arrow(pa.Table.from_pandas(rdf))
                    .map_batches(drop_all, batch_format="pyarrow")))

    got_skew = _norm(skew_join(left, right, "k", {1: 3}, how="inner"))
    got_salted = _norm(salted_join(left, right, "k", salt=3, how="inner"))
    pd.testing.assert_frame_equal(got_skew, want, check_dtype=False)
    pd.testing.assert_frame_equal(got_salted, want, check_dtype=False)


def test_adaptive_skew_join_full_routes_to_hash_join(ray_session):
    """how='full' must be deterministic: always the plain hash_join
    (skew_join rejects it, and whether the sampled detector fires is
    data-dependent)."""
    ldf = pd.DataFrame({"k": np.array([1] * 50 + [2, 3], dtype="int64"),
                        "lv": np.arange(52, dtype="int64")})
    rdf = pd.DataFrame({"k": np.array([1, 4], dtype="int64"),
                        "rv": np.array([7, 8], dtype="int64")})
    want = _ref(ldf, rdf, "full")
    left = ray.data.from_arrow(pa.Table.from_pandas(ldf)).repartition(2)
    right = ray.data.from_arrow(pa.Table.from_pandas(rdf))
    got = _norm(adaptive_skew_join(left, right, "k", how="full",
                                   sample_frac=1.0, hot_frac=0.01))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_all_primitives_tolerate_fully_filtered_blocks(ray_session):
    """Systematic zero-COLUMN empty-block sweep (the CLAUDE.md Ray
    quirk) across the remaining shuffle/map primitives: each must
    produce the same rows as with clean input."""
    from pboh_entity_linking_ray.functions.grouping import (
        asof_join, broadcast_join, bucketed_sum, interval_join,
        range_prefix_sum, topk_per_group)

    def drop_all(t: pa.Table) -> pa.Table:
        return t.slice(0, 0)

    def with_empties(df):
        ds = ray.data.from_arrow(pa.Table.from_pandas(df)).repartition(2)
        return ds.union(ray.data.from_arrow(pa.Table.from_pandas(df))
                        .map_batches(drop_all, batch_format="pyarrow"))

    ldf = pd.DataFrame({"k": np.array([1, 1, 2, 2, 3], dtype="int64"),
                        "t": np.array([10, 20, 15, 30, 7], dtype="int64"),
                        "v": np.arange(5, dtype="int64")})
    rdf = pd.DataFrame({"k": np.array([1, 2], dtype="int64"),
                        "t": np.array([12, 14], dtype="int64"),
                        "s": np.array([100, 200], dtype="int64"),
                        "e": np.array([25, 31], dtype="int64")})

    # topk_per_group: map-side partial must pass empty blocks through
    top = _norm(topk_per_group(with_empties(ldf), "k", "v", 1))
    want_top = _norm(ray.data.from_pandas(
        ldf.sort_values("v", ascending=False).groupby("k").head(1)))
    pd.testing.assert_frame_equal(top, want_top, check_dtype=False)

    # broadcast_join
    small = pa.table({"k": pa.array([1, 3], type=pa.int64()),
                      "dim": pa.array([7, 8], type=pa.int64())})
    bj = _norm(broadcast_join(with_empties(ldf), small, "k"))
    want_bj = _norm(ray.data.from_pandas(
        ldf.merge(small.to_pandas(), on="k")))
    pd.testing.assert_frame_equal(bj, want_bj, check_dtype=False)

    # asof_join / interval_join (the two-sided join intake)
    aj = asof_join(with_empties(ldf[["k", "t", "v"]]),
                   with_empties(rdf[["k", "t", "s"]]), "k", "t")
    assert aj.count() == len(ldf)
    ij = interval_join(with_empties(ldf[["k", "t", "v"]]),
                       with_empties(rdf[["k", "t", "e"]]
                                    .rename(columns={"t": "lo"})),
                       "k", "t", "lo", "e")
    # intervals k=1:[12,25) k=2:[14,31) → points 20, 15, 30 match
    assert ij.count() == 3

    # bucketed_sum
    bs = _norm(bucketed_sum(with_empties(ldf), ["k"], "v", "sv"))
    want_bs = _norm(ray.data.from_pandas(
        ldf.groupby("k", as_index=False)["v"].sum()
        .rename(columns={"v": "sv"})))
    pd.testing.assert_frame_equal(bs, want_bs, check_dtype=False)

    # range_prefix_sum
    rp = range_prefix_sum(with_empties(ldf[["t", "v"]]), "t", "v",
                          range_width=16).to_pandas()
    want_rp = ldf.sort_values("t")
    want_rp = want_rp.assign(cum_before=want_rp["v"].cumsum()
                             - want_rp["v"])
    got = rp.sort_values("t").reset_index(drop=True)
    assert (got["cum_before"].to_numpy()
            == want_rp["cum_before"].to_numpy()).all()


def _no_schema(df: pd.DataFrame):
    """A side built only from zero-COLUMN blocks: a map that empties
    every block (the ``drop_all`` pattern, dropping the columns too), so
    the stream carries no schema at all."""
    return (ray.data.from_arrow(pa.Table.from_pandas(df)).repartition(2)
            .map_batches(lambda t: pa.table({}), batch_format="pyarrow"))


@pytest.mark.parametrize("impl", ["hash", "salted", "skew", "adaptive"])
def test_schema_less_side_keeps_fallback_contract(ray_session, impl):
    """One side with no schema has no rows: with no left schema every
    how but "full" yields no rows and "full" yields the right side as it
    is; with no right schema inner/semi keep no left row and left/anti/
    full keep every one, with the left columns only."""
    ldf = pd.DataFrame({"k": np.array([1, 2, 2], dtype="int64"),
                        "lv": np.arange(3, dtype="int64")})
    rdf = pd.DataFrame({"k": np.array([2, 3], dtype="int64"),
                        "rv": np.array([20, 30], dtype="int64")})
    join = {
        "hash": lambda l, r, how: hash_join(l, r, "k", 8, how),
        "salted": lambda l, r, how: salted_join(l, r, "k", 3, 8, how),
        "skew": lambda l, r, how: skew_join(l, r, "k", {2: 3}, 8, how),
        "adaptive": lambda l, r, how: adaptive_skew_join(
            l, r, "k", 8, how, sample_frac=1.0, hot_frac=0.01),
    }[impl]
    hows = ["inner", "left", "semi", "anti"] + \
        (["full"] if impl in ("hash", "adaptive") else [])
    for how in hows:
        left = ray.data.from_arrow(pa.Table.from_pandas(ldf)).repartition(2)
        right = ray.data.from_arrow(pa.Table.from_pandas(rdf))
        got = _norm(join(_no_schema(ldf), right, how))
        if how == "full":
            pd.testing.assert_frame_equal(got, _norm(right),
                                          check_dtype=False, obj=how)
        else:
            assert len(got) == 0, how
        got = _norm(join(left, _no_schema(rdf), how))
        if how in ("inner", "semi"):
            assert len(got) == 0, how
        else:
            assert list(got.columns) == ["k", "lv"], how
            pd.testing.assert_frame_equal(got, _norm(left),
                                          check_dtype=False, obj=how)


@pytest.mark.parametrize("join", [
    lambda l, r: salted_join(l, r, "k", salt=3),
    lambda l, r: skew_join(l, r, "k", {1: 3}),
    lambda l, r: hash_join(l, r, "k"),
])
def test_salted_and_skew_join_reject_collision_at_call(ray_session, join):
    l = ray.data.from_arrow(pa.table({"k": [1], "v": [1]}))
    r = ray.data.from_arrow(pa.table({"k": [1], "v": [2]}))
    with pytest.raises(ValueError, match="collision"):
        join(l, r)


@pytest.mark.parametrize("how", ["inner", "left", "semi", "anti", "full"])
def test_two_round_join_equals_flat(ray_session, monkeypatch, how):
    """The hierarchical two-round exchange (forced for every bucket
    count) gives the flat exchange's join output, salted too."""
    from pboh_entity_linking_ray.functions import grouping

    rng = np.random.default_rng(3)
    ldf = pd.DataFrame({"k": rng.integers(0, 60, 300).astype("int64"),
                        "lv": np.arange(300, dtype="int64")})
    rdf = pd.DataFrame({"k": np.arange(0, 50, dtype="int64"),
                        "rv": np.arange(50, dtype="int64") * 10})
    left = ray.data.from_arrow(pa.Table.from_pandas(ldf)).repartition(5)
    right = ray.data.from_arrow(pa.Table.from_pandas(rdf)).repartition(3)
    flat = _norm(hash_join(left, right, "k", 16, how))
    monkeypatch.setattr(grouping, "TWO_ROUND_THRESHOLD", 0)
    pd.testing.assert_frame_equal(_norm(hash_join(left, right, "k", 16, how)),
                                  flat)
    if how != "full":
        pd.testing.assert_frame_equal(
            _norm(skew_join(left, right, "k", {1: 4, 2: 3}, 16, how)), flat)
    pd.testing.assert_frame_equal(flat, _ref(ldf, rdf, how),
                                  check_dtype=False)
