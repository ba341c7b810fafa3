"""hash_join: bucketed co-group large×large join (no driver collect)."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from pboh_entity_linking_ray.functions.grouping import hash_join


def test_inner_join_matches_pandas(ray_session):
    left = ray.data.from_arrow(pa.table({
        "k": [1, 2, 2, 3, 5], "lv": ["a", "b", "c", "d", "e"]}))
    right = ray.data.from_arrow(pa.table({
        "k": [2, 3, 3, 4], "rv": [20, 30, 31, 40]}))
    got = (hash_join(left, right, "k").to_pandas()
           .sort_values(["k", "lv", "rv"]).reset_index(drop=True))
    import pandas as pd

    want = (left.to_pandas().merge(right.to_pandas(), on="k")
            .sort_values(["k", "lv", "rv"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got[want.columns.tolist()], want)


def test_exchange_engine_join_matches_sort_engine_join(ray_session):
    """The exchange join emits the frame the removed sort-based join did:
    a pandas merge on duplicate keys both sides, with the same column
    order (key, left columns, right columns) and dtypes."""
    left = ray.data.from_arrow(pa.table({
        "k": [1, 2, 2, 3, 5], "lv": ["a", "b", "c", "d", "e"]}))
    right = ray.data.from_arrow(pa.table({
        "k": [2, 3, 3, 4], "rv": [20, 30, 31, 40]}))
    ex = (hash_join(left, right, "k").to_pandas()
          .sort_values(["k", "lv", "rv"]).reset_index(drop=True))
    import pandas as pd

    so = (left.to_pandas().merge(right.to_pandas(), on="k")
          .sort_values(["k", "lv", "rv"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(ex, so)


def test_join_carries_list_columns(ray_session):
    """Feature re-attachment ships Arrow list columns through the join."""
    left = ray.data.from_arrow(pa.table({"k": [1, 2, 3]}))
    right = ray.data.from_arrow(pa.table({
        "k": [1, 2, 3],
        "toks": pa.array([[1, 2], [3], []], type=pa.list_(pa.uint32())),
    }))
    got = hash_join(left, right, "k").to_pandas().sort_values("k")
    assert [list(x) for x in got["toks"]] == [[1, 2], [3], []]


def test_join_rejects_column_collision(ray_session):
    l = ray.data.from_arrow(pa.table({"k": [1], "v": [1]}))
    r = ray.data.from_arrow(pa.table({"k": [1], "v": [2]}))
    with pytest.raises(ValueError, match="collision"):
        hash_join(l, r, "k")


def test_join_large_keyspace(ray_session):
    """Many keys across many blocks: every key meets exactly once."""
    n = 5000
    left = ray.data.from_arrow(pa.table({
        "k": list(range(n)), "lv": list(range(n))})).repartition(20)
    right = ray.data.from_arrow(pa.table({
        "k": list(range(0, n, 2)), "rv": list(range(0, n, 2))})).repartition(7)
    got = hash_join(left, right, "k").to_pandas()
    assert len(got) == n // 2
    assert (got["lv"].to_numpy() == got["rv"].to_numpy()).all()


def test_exchange_matches_pandas_groupby_sum(ray_session):
    """hash_exchange co-locates every key in exactly one bucket
    invocation: per-bucket sums equal a pandas groupby().sum()."""
    from pboh_entity_linking_ray.functions.grouping import hash_exchange

    rng = np.random.default_rng(7)
    t = pa.table({
        "k": rng.integers(0, 500, size=5000),
        "v": rng.integers(0, 10**9, size=5000),
    })
    ds = ray.data.from_arrow(t).repartition(7)

    def per_key_sum(bucket: pa.Table) -> pa.Table:
        import polars as pl

        return (pl.from_arrow(bucket).group_by("k")
                .agg(pl.col("v").sum().alias("s")).to_arrow())

    got = (hash_exchange(ds, "k", per_key_sum, num_buckets=16).to_pandas()
           .sort_values("k").reset_index(drop=True))
    want = (t.to_pandas().groupby("k", as_index=False)["v"].sum()
            .rename(columns={"v": "s"}))
    import pandas as pd

    # one row per key proves each key was fully co-located in ONE bucket
    pd.testing.assert_frame_equal(got, want.astype(got.dtypes.to_dict()))


def test_two_round_exchange_matches_flat(ray_session):
    """Hierarchical (two-round) hash_exchange returns exactly the flat
    exchange's rows AND bucket order at >=1024 buckets — the 100 TB ref-
    count path (functions/grouping.py: round 1 by fine//inner, round 2
    by fine%inner)."""
    from pboh_entity_linking_ray.functions.grouping import hash_exchange

    rng = np.random.default_rng(11)
    t = pa.table({
        "k": pa.array([f"c{v}" for v in rng.integers(0, 3000, size=20000)]),
        "v": rng.integers(0, 10**9, size=20000),
    })
    ds = ray.data.from_arrow(t).repartition(13)

    def per_key_sum(bucket: pa.Table) -> pa.Table:
        import polars as pl

        return (pl.from_arrow(bucket).group_by("k")
                .agg(pl.col("v").sum().alias("s"))
                .sort("k")
                .to_arrow().cast(pa.schema([("k", pa.string()),
                                            ("s", pa.int64())])))

    flat = hash_exchange(ds, "k", per_key_sum, num_buckets=1024,
                         two_round=False).to_pandas()
    two = hash_exchange(ds, "k", per_key_sum, num_buckets=1024,
                        two_round=True).to_pandas()
    import pandas as pd

    # bucket order is identical (fine-bucket major in both modes), so the
    # UNSORTED frames must already agree
    pd.testing.assert_frame_equal(flat, two)
    assert len(flat) == len(set(t["k"].to_pylist()))


def test_exchange_sparse_keys_empty_buckets(ray_session):
    """num_buckets >> distinct keys: fn receives EMPTY buckets (the
    documented contract) and the result is still exactly the per-key
    aggregate — in both flat and two-round modes."""
    from pboh_entity_linking_ray.functions.grouping import hash_exchange

    t = pa.table({"k": pa.array(["a", "b", "c"] * 50),
                  "v": pa.array(list(range(150)))})
    ds = ray.data.from_arrow(t).repartition(4)

    seen_empty = []

    def agg(bucket: pa.Table) -> pa.Table:
        import polars as pl

        if bucket.num_rows == 0:
            seen_empty.append(1)
        return (pl.from_arrow(bucket).group_by("k")
                .agg(pl.col("v").sum().alias("s"))
                .to_arrow().cast(pa.schema([("k", pa.string()),
                                            ("s", pa.int64())])))

    for mode in (False, True):
        out = (hash_exchange(ds, "k", agg, num_buckets=512, two_round=mode)
               .to_pandas().sort_values("k").reset_index(drop=True))
        assert list(out["k"]) == ["a", "b", "c"]
        assert out["s"].sum() == sum(range(150))


def test_buckets_for_sizing():
    from pboh_entity_linking_ray.functions.grouping import (
        BUCKETS_PER_CPU,
        TWO_ROUND_THRESHOLD,
        buckets_for,
    )

    # the floor: BUCKETS_PER_CPU × cluster CPUs
    assert BUCKETS_PER_CPU == 2
    assert buckets_for(0, 25_000, 1) == 2
    assert buckets_for(0, 25_000, 4) == 8
    assert buckets_for(0, 25_000, 32) == 64     # the 32-CPU bench
    assert buckets_for(100_000, 25_000, 4) == 8     # 4 needed -> floor
    # then the power of two >= rows / rows_per_bucket
    assert buckets_for(250_000, 25_000, 1) == 16
    assert buckets_for(3_200_000, 25_000, 4) == 128     # 128 x 25k
    assert buckets_for(3_200_001, 25_000, 4) == 256
    assert buckets_for(250_000, 1_000, 4) == 256
    # then the two-round threshold
    assert buckets_for(100_000_000, 25_000, 4) == 4096
    assert buckets_for(100_000_000, 25_000, 4) > TWO_ROUND_THRESHOLD


def test_topk_per_group_matches_pandas(ray_session):
    from pboh_entity_linking_ray.functions.grouping import topk_per_group

    rng = np.random.default_rng(3)
    n = 5000
    t = pa.table({
        "g": rng.integers(0, 40, n),
        "score": rng.integers(0, 50, n),        # heavy ties
        "rid": np.arange(n, dtype=np.int64),
    })
    # many small blocks so partial top-k runs per batch before the final
    ds = ray.data.from_arrow(t).repartition(16)
    got = (topk_per_group(ds, "g", "score", 5, tie_cols=["rid"])
           .to_pandas().sort_values(["g", "score", "rid"],
                                    ascending=[True, False, True])
           .reset_index(drop=True))
    exp = (t.to_pandas()
           .sort_values(["score", "rid"], ascending=[False, True])
           .groupby("g", sort=True).head(5)
           .sort_values(["g", "score", "rid"], ascending=[True, False, True])
           .reset_index(drop=True)[got.columns.tolist()])
    assert got.equals(exp)


def test_semi_and_anti_join(ray_session):
    left = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2, 3, 4], type=pa.int64()),
        "v": pa.array([10, 20, 30, 40], type=pa.int64()),
    }))
    # duplicate right keys must not duplicate semi output
    right = ray.data.from_arrow(pa.table({
        "k": pa.array([2, 2, 4, 9], type=pa.int64()),
        "w": pa.array([1, 2, 3, 4], type=pa.int64()),
    }))
    semi = (hash_join(left, right, "k", how="semi")
            .to_pandas().sort_values("k").reset_index(drop=True))
    anti = (hash_join(left, right, "k", how="anti")
            .to_pandas().sort_values("k").reset_index(drop=True))
    assert semi["k"].tolist() == [2, 4] and semi["v"].tolist() == [20, 40]
    assert anti["k"].tolist() == [1, 3] and anti["v"].tolist() == [10, 30]
    assert list(semi.columns) == ["k", "v"]   # left columns only


def test_bloom_filter_join_matches_plain(ray_session):
    """Bloom pre-filter is pure work-motion: semi and anti results are
    byte-identical to the plain hash_join, including at a tiny m_bits
    where false positives are guaranteed to occur."""
    from pboh_entity_linking_ray.functions.bloom import (
        _member_mask,
        bloom_filter_join,
        build_bloom,
    )
    from pboh_entity_linking_ray.functions.grouping import hash_join

    rng = np.random.default_rng(5)
    left = ray.data.from_arrow(pa.table({
        "k": rng.integers(0, 3000, 4000),
        "v": np.arange(4000, dtype=np.int64),
    }))
    right = ray.data.from_arrow(pa.table({
        "k": rng.integers(0, 1500, 400),
        "w": np.arange(400, dtype=np.int64),
    }))
    for how in ("semi", "anti"):
        exp = (hash_join(left, right.select_columns(["k"]), "k", how=how)
               .to_pandas().sort_values(["k", "v"]).reset_index(drop=True))
        # m_bits=4096 for 400 keys → dense filter, real false positives
        got = (bloom_filter_join(left, right.select_columns(["k"]), "k",
                                 how=how, m_bits=4096)
               .to_pandas().sort_values(["k", "v"]).reset_index(drop=True))
        assert got.equals(exp), how

    # no false negatives ever: every true member passes the mask
    words = build_bloom(right, "k", m_bits=4096)
    rk = right.to_pandas()["k"].unique()
    mask = _member_mask(pa.chunked_array([pa.array(rk)]), words, 4096)
    assert mask.all()


def test_exchange_tolerates_zero_column_empty_blocks(ray_session):
    """Ray map operators can emit zero-COLUMN empty blocks (an empty
    output bundle carries no schema).  An exchange bucket whose live
    slices are all empty must hand fn a table with the REAL schema (the
    widest part), never the schema-less one."""
    from pboh_entity_linking_ray.functions.grouping import hash_exchange

    real = pa.table({"k": pa.array(["a", "b"] * 20),
                     "v": pa.array(list(range(40)))})
    ds = ray.data.from_arrow([pa.table({}), real])

    def agg(bucket: pa.Table) -> pa.Table:
        import polars as pl

        assert bucket.num_columns == 2, "fn saw a schema-less bucket"
        return (pl.from_arrow(bucket).group_by("k")
                .agg(pl.col("v").sum().alias("s"))
                .to_arrow().cast(pa.schema([("k", pa.string()),
                                            ("s", pa.int64())])))

    for mode in (False, True):
        out = (hash_exchange(ds, "k", agg, num_buckets=64, two_round=mode)
               .to_pandas().sort_values("k").reset_index(drop=True))
        assert list(out["k"]) == ["a", "b"]
        assert out["s"].sum() == sum(range(40))


def test_chained_exchange_over_fully_empty_dataset(ray_session):
    """An exchange whose upstream produced NO rows at all (e.g. a filter
    matched nothing): Ray's map operator then emits only schema-less
    empty blocks, and a SECOND exchange downstream must flow them through
    as inert empties instead of handing fn a zero-column table."""
    import pyarrow.compute as pc

    from pboh_entity_linking_ray.functions.grouping import hash_exchange

    t = pa.table({"k": pa.array([1, 2, 3] * 20),
                  "v": pa.array(list(range(60)))})

    def nothing(b: pa.Table) -> pa.Table:
        return b.filter(pc.greater(b["v"], 10_000))   # always empty

    def ident(b: pa.Table) -> pa.Table:
        assert b.num_columns in (0, 2)
        return b

    ds = ray.data.from_arrow(t).repartition(4)
    first = hash_exchange(ds.map_batches(nothing, batch_format="pyarrow"),
                          "k", ident, num_buckets=8)
    second = hash_exchange(first.map_batches(lambda b: b,
                                             batch_format="pyarrow"),
                           "k", ident, num_buckets=8)
    assert second.count() == 0


@pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
def test_salted_join_matches_hash_join(ray_session, how):
    """salted_join must be output-identical to hash_join for every how,
    including a hot key holding most of the left side."""
    import numpy as np

    from pboh_entity_linking_ray.functions.grouping import (hash_join,
                                                            salted_join)

    rng = np.random.default_rng(3)
    n = 2000
    k = np.where(rng.random(n) < 0.5, 7, rng.integers(0, 50, size=n))
    left = ray.data.from_arrow(pa.table({
        "k": k.astype("int64"), "lv": np.arange(n)})).repartition(6)
    right = ray.data.from_arrow(pa.table({
        "k": np.arange(0, 50, 2, dtype="int64"),
        "rv": np.arange(25) * 10})).repartition(3)

    def norm(ds):
        df = ds.to_pandas()
        return (df.sort_values(df.columns.tolist())
                .reset_index(drop=True))

    import pandas as pd

    want = norm(hash_join(left, right, "k", how=how))
    got = norm(salted_join(left, right, "k", salt=5, how=how))
    pd.testing.assert_frame_equal(got, want)


def test_rekey_exchange_matches_chained(ray_session):
    """Fused rekey_exchange (groupby key1 → fn1 → regroup by key2 →
    fn2, intermediate never written as standalone blocks) returns
    exactly the rows of two chained hash_exchange calls — including
    under sparse key2 (empty second-hop buckets) and a fn1 that emits
    MORE rows than it consumes (the pair-generation shape)."""
    from pboh_entity_linking_ray.functions.grouping import (
        hash_exchange,
        rekey_exchange,
    )

    rng = np.random.default_rng(7)
    t = pa.table({
        "g": rng.integers(0, 200, size=5000),
        "x": rng.integers(0, 50, size=5000),
    })
    ds = ray.data.from_arrow(t).repartition(9)

    def gen_pairs(bucket: pa.Table) -> pa.Table:
        # per g-group: emit (x, 1) for every row plus a (g-derived, 2)
        # marker — output larger than input, new key column
        if bucket.num_rows == 0 or "g" not in bucket.column_names:
            return pa.table({"k2": pa.array([], type=pa.int64()),
                             "w": pa.array([], type=pa.int64())})
        g = np.asarray(bucket["g"], dtype=np.int64)
        x = np.asarray(bucket["x"], dtype=np.int64)
        return pa.table({
            "k2": pa.array(np.concatenate([x, g % 7])),
            "w": pa.array(np.concatenate([
                np.ones(len(x), dtype=np.int64),
                np.full(len(g), 2, dtype=np.int64)])),
        })

    def sum_k2(bucket: pa.Table) -> pa.Table:
        import polars as pl

        if bucket.num_rows == 0 or "k2" not in bucket.column_names:
            return pa.table({"k2": pa.array([], type=pa.int64()),
                             "s": pa.array([], type=pa.int64())})
        return (pl.from_arrow(bucket).group_by("k2")
                .agg(pl.col("w").sum().alias("s")).sort("k2")
                .to_arrow().cast(pa.schema([("k2", pa.int64()),
                                            ("s", pa.int64())])))

    chained = hash_exchange(
        hash_exchange(ds, "g", gen_pairs, num_buckets=8),
        "k2", sum_k2, num_buckets=16).to_pandas()
    fused = rekey_exchange(ds, "g", gen_pairs, "k2", sum_k2,
                           num_buckets1=8, num_buckets2=16).to_pandas()
    import pandas as pd

    # same hash → same bucket order → unsorted frames must agree
    pd.testing.assert_frame_equal(chained, fused)

    # sparse second key: num_buckets2 >> distinct k2 (empty buckets
    # reach fn2 and the result is unchanged up to row order)
    sparse = (rekey_exchange(ds, "g", gen_pairs, "k2", sum_k2,
                             num_buckets1=8, num_buckets2=256)
              .to_pandas().sort_values("k2").reset_index(drop=True))
    want = chained.sort_values("k2").reset_index(drop=True)
    pd.testing.assert_frame_equal(sparse, want)
