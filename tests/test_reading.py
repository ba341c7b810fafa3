"""sources/reading.py:read_parquet_clean — the metadata-clean read
wrapper every pipeline read routes through: schema stripping, column
projection, filter interplay, and the no-metadata pass-through."""

import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pds
import pyarrow.parquet as pq
import pytest

from pboh_entity_linking_ray.sources import reading
from pboh_entity_linking_ray.sources.reading import read_parquet_clean

DIRTY = "/root/testdata/sf0.001/lineitem.parquet"   # pandas-written


@pytest.fixture(scope="module")
def clean_file(tmp_path_factory):
    p = str(tmp_path_factory.mktemp("rp") / "clean.parquet")
    pq.write_table(pa.table({"a": pa.array([1, 2, 3], type=pa.int64()),
                             "b": pa.array(["x", "y", "z"])}), p)
    return p


def test_testdata_carries_unhashable_metadata():
    """Precondition the wrapper exists for: the driver's testdata schema
    has a pandas blob and hash() raises on it."""
    sch = pds.dataset(DIRTY).schema
    assert sch.metadata is not None
    with pytest.raises(TypeError):
        hash(sch)


def test_stripped_schema_is_hashable_and_row_identical(ray_session):
    ds = read_parquet_clean(DIRTY, columns=["l_orderkey", "l_quantity"])
    sch = ds.schema()
    hash(pa.schema([(f.name, t) for f, t in
                    zip(sch.base_schema, sch.base_schema.types)]))
    got = ds.to_pandas().sort_values(["l_orderkey", "l_quantity"]) \
        .reset_index(drop=True)
    want = pq.read_table(DIRTY, columns=["l_orderkey", "l_quantity"]) \
        .to_pandas().sort_values(["l_orderkey", "l_quantity"]) \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)


def test_filter_within_projection_strips_and_matches(ray_session):
    f = pds.field("l_quantity") > 25
    got = read_parquet_clean(DIRTY, columns=["l_quantity"], filter=f) \
        .to_pandas()
    want = pq.read_table(DIRTY, columns=["l_quantity"],
                         filters=[("l_quantity", ">", 25)]).to_pandas()
    assert len(got) == len(want)
    assert (got["l_quantity"].to_numpy() > 25).all()


def test_filter_outside_projection_widens_then_drops(ray_session):
    """A filter referencing a non-projected column can't ride a
    projected OUTPUT schema= (Ray rejects it) — the wrapper widens the
    read to include the filter column (so the schema strip still
    applies) and drops it in a post-read projection."""
    f = pds.field("l_quantity") > 25
    ds = read_parquet_clean(DIRTY, columns=["l_orderkey"], filter=f)
    got = ds.to_pandas()
    want = pq.read_table(DIRTY, columns=["l_orderkey", "l_quantity"],
                         filters=[("l_quantity", ">", 25)]).to_pandas()
    assert len(got) == len(want)
    assert list(got.columns) == ["l_orderkey"]
    assert sorted(got["l_orderkey"]) == sorted(want["l_orderkey"])


def test_missing_footer_column_falls_back(clean_file, ray_session, capsys):
    """A requested column absent from the file footer (hive-partition
    style) must fall back to the plain read, not KeyError."""
    import os
    import shutil

    # build a hive-partitioned copy of the dirty file so the partition
    # column exists in the dataset but not the footer
    root = os.path.join(os.path.dirname(clean_file), "hive")
    part = os.path.join(root, "pcol=7")
    os.makedirs(part, exist_ok=True)
    shutil.copy(DIRTY, os.path.join(part, "part.parquet"))
    ds = read_parquet_clean(root, columns=["l_orderkey", "pcol"])
    df = ds.to_pandas()
    assert set(df.columns) == {"l_orderkey", "pcol"}
    assert (df["pcol"].astype(int) == 7).all()


def test_schema_cache_is_bounded():
    reading._SCHEMA_CACHE.clear()
    for i in range(reading._SCHEMA_CACHE_MAX + 16):
        reading._stripped_schema(f"/nonexistent/path/{i}.parquet")
    assert len(reading._SCHEMA_CACHE) <= reading._SCHEMA_CACHE_MAX


def test_clean_file_passes_through_without_schema(clean_file, ray_session):
    """No metadata → _stripped_schema yields None and the read behaves
    exactly like ray.data.read_parquet."""
    assert reading._stripped_schema(clean_file) is None
    df = read_parquet_clean(clean_file).to_pandas().sort_values("a") \
        .reset_index(drop=True)
    assert df["a"].tolist() == [1, 2, 3]


def test_caller_schema_wins(clean_file, ray_session):
    sch = pa.schema([("a", pa.int64()), ("b", pa.string())])
    df = read_parquet_clean(clean_file, schema=sch).to_pandas()
    assert len(df) == 3


def test_schema_evolution_union_by_name(tmp_path_factory, ray_session):
    """A 100 TB table accretes columns over time: a directory holding an
    OLD shard (a, b) and a NEW shard (a, b, c) must read as one dataset
    with c null-filled on old rows — through the metadata-clean wrapper."""
    d = str(tmp_path_factory.mktemp("evolve"))
    pq.write_table(pa.table({"a": pa.array([1, 2], type=pa.int64()),
                             "b": pa.array(["x", "y"])}),
                   f"{d}/old.parquet")
    pq.write_table(pa.table({"a": pa.array([3], type=pa.int64()),
                             "b": pa.array(["z"]),
                             "c": pa.array([7], type=pa.int64())}),
                   f"{d}/new.parquet")
    # (the plain reader's behavior here depends on which fragment Ray
    # samples first — observed ArrowInvalid when the narrow shard wins;
    # union_by_name makes the read order-independent)
    df = read_parquet_clean(d, union_by_name=True).to_pandas() \
        .sort_values("a").reset_index(drop=True)
    assert list(df["a"]) == [1, 2, 3]
    assert df["c"].isna().tolist() == [True, True, False]
    # and a projected read that includes the evolved column
    df2 = read_parquet_clean(d, columns=["a", "c"], union_by_name=True) \
        .to_pandas().sort_values("a").reset_index(drop=True)
    assert df2["c"].isna().tolist() == [True, True, False]
    assert list(df2.columns) == ["a", "c"]


def test_union_by_name_filter_outside_projection(tmp_path_factory,
                                                 ray_session):
    """Divergent shards, a projection and a filter on a column outside
    it: the unified schema is widened for the filter column like a
    stripped one, and the extra column is dropped after the read."""
    d = str(tmp_path_factory.mktemp("evolve_filter"))
    pq.write_table(pa.table({"a": pa.array([1, 2], type=pa.int64()),
                             "b": pa.array(["x", "y"])}),
                   f"{d}/old.parquet")
    pq.write_table(pa.table({"a": pa.array([3, 4], type=pa.int64()),
                             "b": pa.array(["z", "w"]),
                             "c": pa.array([7, 1], type=pa.int64())}),
                   f"{d}/new.parquet")
    df = read_parquet_clean(d, columns=["a"], filter=pds.field("c") > 5,
                            union_by_name=True).to_pandas()
    assert list(df.columns) == ["a"]
    assert df["a"].tolist() == [3]
