"""Key-clustered Parquet layout with zone-map pruned reads.

The storage-layout half of the prune-at-the-read discipline: a table
range-partitioned on a clustering column into one file per key range,
with a zone-map manifest recording each file's (min, max, rows).  A
later range query opens the manifest and reads ONLY the overlapping
files — O(selectivity) bytes off storage instead of the whole table,
which at 100 TB is the difference between a scan and a lookup.

``clustered_write``:
1. exact distributed value histogram (per-batch value counts → one
   small exchange; the q29 quantile machinery — the driver sees
   O(distinct values), never rows) → ``n_files`` balanced cut points;
2. every block hash-free routes its rows by ``searchsorted`` over the
   broadcast cuts (zero-copy slices, one split task per block);
3. one write task per range sorts its rows by the clustering column
   and writes one Parquet file, returning its zone-map entry;
4. the manifest is written LAST, atomically (tmp + rename) — a crashed
   write leaves no manifest and the next run redoes it (the
   state/checkpoint.py resume contract).

Reference analog: the reference's sharded index files loaded by range
(SURVEY §2.1 loaders); here the layout is derived from data quantiles
instead of fixed shard counts.

Two layout-exploiting operators build on the manifest's recorded cut
points: ``coclustered_join`` (write a second table with the SAME cuts →
every join key shares a range index on both sides → one independent
task per aligned file pair, no exchange) and ``clustered_merge``
(LSM-style partial compaction: only delta-overlapping ranges get a
new-generation file; the manifest swaps atomically last, so a crash at
any point leaves the previous manifest pointing at intact files).
"""

from __future__ import annotations
from pboh_entity_linking_ray.sources.reading import read_parquet_clean

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data


@ray.remote
def _route_by_cuts(tbl: pa.Table, col: str, cuts: list, n: int):
    """One block → ``n`` zero-copy slices by searchsorted over the cut
    points (range i = values in (cuts[i-1], cuts[i]])."""
    if tbl.num_rows == 0:
        return tuple(tbl for _ in range(n))
    v = np.asarray(tbl[col])
    s = np.searchsorted(np.asarray(cuts), v, side="left")
    order = np.argsort(s, kind="stable")
    st = tbl.take(pa.array(order))
    counts = np.bincount(s, minlength=n)
    offs = np.concatenate(([0], np.cumsum(counts)))
    return tuple(st.slice(offs[i], counts[i]) for i in range(n))


@ray.remote
def _write_range(path: str, col: str, *parts: pa.Table) -> dict:
    """Sort one range's rows by the clustering column and write one
    Parquet file; returns its zone-map entry (no file for empty
    ranges)."""
    live = [p for p in parts if p.num_rows]
    if not live:
        return {"file": None, "rows": 0}
    t = pa.concat_tables(live).sort_by(col)
    pq.write_table(t, path)
    v = t[col]
    return {"file": os.path.basename(path), "rows": t.num_rows,
            "min": v[0].as_py(), "max": v[-1].as_py()}


def _cut_points(ds: ray.data.Dataset, col: str, n_files: int) -> list:
    """Balanced interior cut points from the exact distributed value
    histogram (per-batch counts → one small exchange → driver cumsum
    over O(distinct values) rows)."""
    from ..functions.grouping import bucketed_sum

    def counts(t: pa.Table) -> pa.Table:
        import polars as pl

        return (pl.from_arrow(t.select([col])).group_by(col)
                .len(name="c").with_columns(pl.col("c").cast(pl.Int64))
                .to_arrow())

    hist = bucketed_sum(ds.map_batches(counts, batch_format="pyarrow"),
                        [col], "c", "c").to_pandas()
    hist = hist.sort_values(col).reset_index(drop=True)
    vals = hist[col].to_numpy()
    cum = hist["c"].cumsum().to_numpy()
    total = int(cum[-1]) if len(cum) else 0
    cuts = []
    for i in range(1, n_files):
        rank = i * total // n_files
        cuts.append(vals[np.searchsorted(cum, rank, side="right")]
                    .item())
    return sorted(set(cuts))


def clustered_write(ds: ray.data.Dataset, col: str, out_dir: str,
                    n_files: int = 8, cuts: list | None = None) -> dict:
    """Write ``ds`` range-clustered on ``col`` (one sorted Parquet file
    per key range + zone-map manifest).  Idempotent: an existing
    manifest short-circuits (delete the dir to rewrite).  Returns the
    manifest dict (including the interior ``cuts``, so a SECOND table
    can be written CO-CLUSTERED by passing them back in — aligned key
    ranges make the range-k files of both tables joinable with no
    exchange, see ``coclustered_join``)."""
    man_path = os.path.join(out_dir, "manifest.json")
    if os.path.exists(man_path):
        with open(man_path) as f:
            return json.load(f)
    tmp = out_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)

    if cuts is None:
        cuts = _cut_points(ds, col, n_files)
    n = len(cuts) + 1
    blocks = ds.materialize().to_arrow_refs()
    parts = [_route_by_cuts.options(num_returns=n).remote(b, col, cuts, n)
             for b in blocks]
    if n == 1:
        parts = [[p] for p in parts]
    entries = ray.get([
        _write_range.remote(os.path.join(tmp, f"range-{k:05d}.parquet"),
                            col, *[p[k] for p in parts])
        for k in range(n)])
    manifest = {"col": col,
                "cuts": [c if not hasattr(c, "item") else c.item()
                         for c in cuts],
                "gen": 1,
                "files": [dict(e, range=k) for k, e in enumerate(entries)
                          if e["rows"] > 0]}
    with open(os.path.join(tmp, "manifest-g1.json"), "w") as f:
        json.dump(manifest, f, indent=1)
    with open(os.path.join(tmp, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.rename(tmp, out_dir)                      # manifest lands LAST
    return manifest


@ray.remote
def _merge_range(old_path: str | None, new_path: str, col: str,
                 new_name: str, k: int, *parts: pa.Table):
    """Merge one range's delta rows into its (optional) existing file:
    writes a NEW-generation file and returns its zone-map entry, or
    None when the delta has no rows for this range (nothing written —
    the old file stays live)."""
    live = [p for p in parts if p.num_rows]
    if not live:
        return None
    if old_path is not None:
        live.insert(0, pq.read_table(old_path))
    t = pa.concat_tables(live).sort_by(col)
    pq.write_table(t, new_path)
    v = t[col]
    return {"file": new_name, "rows": t.num_rows,
            "min": v[0].as_py(), "max": v[-1].as_py(), "range": k}


def clustered_merge(out_dir: str, delta: ray.data.Dataset) -> dict:
    """LSM-style PARTIAL compaction: merge a delta into an existing
    clustered layout, rewriting ONLY the range files the delta's keys
    land in.  The delta routes by the layout's recorded cut points,
    each touched range gets a new-GENERATION file (old files are never
    modified in place), the manifest is atomically swapped LAST, and
    only then are the superseded files unlinked — a crash at any point
    leaves the previous manifest pointing at intact previous-generation
    files.  Untouched ranges keep their bytes; at 100 TB an upsert of
    a narrow key band rewrites O(band) files, not the table."""
    man_path = os.path.join(out_dir, "manifest.json")
    with open(man_path) as f:
        man = json.load(f)
    col, cuts = man["col"], man["cuts"]
    gen = man.get("gen", 1) + 1
    n = len(cuts) + 1
    by_range = {e["range"]: e for e in man["files"]}

    blocks = delta.materialize().to_arrow_refs()
    parts = [_route_by_cuts.options(num_returns=n).remote(b, col, cuts, n)
             for b in blocks]
    if n == 1:
        parts = [[p] for p in parts]
    refs = []
    for k in range(n):
        old = by_range.get(k)
        old_path = os.path.join(out_dir, old["file"]) if old else None
        new_name = f"range-{k:05d}-g{gen}.parquet"
        refs.append(_merge_range.remote(
            old_path, os.path.join(out_dir, new_name), col, new_name, k,
            *[p[k] for p in parts]))
    entries = ray.get(refs)

    files, superseded = [], []
    for k in range(n):
        if entries[k] is None:
            if k in by_range:
                files.append(by_range[k])
        else:
            files.append(entries[k])
            if k in by_range:
                superseded.append(by_range[k]["file"])
    man2 = {"col": col, "cuts": cuts, "gen": gen, "files": files}
    with open(os.path.join(out_dir, f"manifest-g{gen}.json"), "w") as f:
        json.dump(man2, f, indent=1)
    tmp_man = man_path + ".tmp"
    with open(tmp_man, "w") as f:
        json.dump(man2, f, indent=1)
    os.replace(tmp_man, man_path)            # manifest swap lands LAST
    # superseded files are RETAINED: older generation manifests still
    # reference them (snapshot isolation / time travel — the Iceberg
    # pattern).  Space is reclaimed explicitly via ``vacuum``.
    del superseded
    return man2


def generations(out_dir: str) -> list[int]:
    """Generation numbers whose snapshot manifests are still present."""
    gens = []
    for name in os.listdir(out_dir):
        if name.startswith("manifest-g") and name.endswith(".json"):
            gens.append(int(name[len("manifest-g"):-len(".json")]))
    return sorted(gens)


def read_generation(out_dir: str, gen: int | None = None
                    ) -> ray.data.Dataset:
    """Time-travel read: the layout exactly as of generation ``gen``
    (default: current).  Every generation's manifest is immutable and
    its files are never rewritten in place, so a snapshot read is just
    'read the files that manifest names' — no copy-on-write, no lock;
    concurrent ``clustered_merge`` calls cannot disturb a reader that
    resolved its manifest first (the Iceberg/Delta snapshot-isolation
    contract, rebuilt on plain Parquet + JSON)."""
    name = "manifest.json" if gen is None else f"manifest-g{gen}.json"
    with open(os.path.join(out_dir, name)) as f:
        man = json.load(f)
    files = [os.path.join(out_dir, e["file"]) for e in man["files"]]
    if not files:
        return ray.data.from_items([])
    return read_parquet_clean(files)


def vacuum(out_dir: str, keep_last: int = 1) -> list[str]:
    """Reclaim space: drop all but the newest ``keep_last`` generation
    manifests and unlink every data file no retained manifest
    references.  Returns the removed file names.  Readers that already
    resolved a retained manifest are unaffected; vacuuming a snapshot a
    reader still holds is the operator's explicit call — exactly
    Iceberg's ``expire_snapshots`` contract."""
    gens = generations(out_dir)
    keep = set(gens[-keep_last:]) if keep_last > 0 else set()
    live: set[str] = set()
    for g in keep:
        with open(os.path.join(out_dir, f"manifest-g{g}.json")) as f:
            live.update(e["file"] for e in json.load(f)["files"])
    with open(os.path.join(out_dir, "manifest.json")) as f:
        live.update(e["file"] for e in json.load(f)["files"])
    removed = []
    for g in gens:
        if g not in keep:
            os.remove(os.path.join(out_dir, f"manifest-g{g}.json"))
    for name in os.listdir(out_dir):
        if name.endswith(".parquet") and name not in live:
            os.remove(os.path.join(out_dir, name))
            removed.append(name)
    return removed


@ray.remote
def _join_range(left_path: str, right_path: str, left_on: str,
                right_on: str, post) -> pa.Table:
    import polars as pl

    j = pl.read_parquet(left_path).join(
        pl.read_parquet(right_path), left_on=left_on, right_on=right_on)
    out = j.to_arrow()
    return post(out) if post is not None else out


def coclustered_join(left_dir: str, right_dir: str,
                     post=None, lo=None, hi=None) -> ray.data.Dataset:
    """EXCHANGE-FREE inner join of two co-clustered layouts: both tables
    were written with the SAME interior cut points, so every join key
    lives in the same range index on both sides and the join decomposes
    into one independent task per aligned file pair — the Hive/Spark
    bucketed-table join obtained as a storage feature.  At 100 TB this
    turns the fact⋈dim shuffle into a metadata zip plus embarrassingly
    parallel local joins.  ``post`` fuses a per-range projection or
    partial aggregate into the join task so the wide joined rows never
    leave it.  A range missing on either side joins to nothing (inner
    semantics) and is skipped.  ``lo``/``hi`` zone-map-prune BOTH
    sides at once: only aligned pairs whose key range overlaps
    [lo, hi] are even opened (a range-restricted join touches
    O(selectivity) bytes of each table; the join keys equal on both
    rows, so no residual filter is needed beyond the pair's bounds —
    callers needing exact edge trimming filter in ``post``)."""
    mans = []
    for d in (left_dir, right_dir):
        with open(os.path.join(d, "manifest.json")) as f:
            mans.append(json.load(f))
    if mans[0]["cuts"] != mans[1]["cuts"]:
        raise ValueError("layouts are not co-clustered (cut points differ)")
    def keep(e):
        return ((lo is None or e["max"] >= lo)
                and (hi is None or e["min"] <= hi))

    lmap = {e["range"]: os.path.join(left_dir, e["file"])
            for e in mans[0]["files"] if keep(e)}
    rmap = {e["range"]: os.path.join(right_dir, e["file"])
            for e in mans[1]["files"] if keep(e)}
    refs = [_join_range.remote(lmap[k], rmap[k], mans[0]["col"],
                               mans[1]["col"], post)
            for k in sorted(lmap.keys() & rmap.keys())]
    if not refs:
        return ray.data.from_items([])
    return ray.data.from_arrow_refs(refs)


def pruned_files(out_dir: str, lo, hi) -> tuple[list[str], int]:
    """Zone-map prune: the files whose [min, max] overlaps [lo, hi],
    plus the total file count (for prune-ratio reporting)."""
    with open(os.path.join(out_dir, "manifest.json")) as f:
        manifest = json.load(f)
    files = [os.path.join(out_dir, e["file"]) for e in manifest["files"]
             if e["max"] >= lo and e["min"] <= hi]
    return files, len(manifest["files"])


def pruned_read(out_dir: str, lo, hi) -> ray.data.Dataset:
    """Read only the manifest-overlapping files and apply the exact
    residual range filter per batch."""
    import pyarrow.compute as pc

    files, _ = pruned_files(out_dir, lo, hi)
    with open(os.path.join(out_dir, "manifest.json")) as f:
        col = json.load(f)["col"]
    if not files:
        return ray.data.from_items([])

    def residual(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.greater_equal(t[col], pa.scalar(lo)),
                    pc.less_equal(t[col], pa.scalar(hi)))
        return t.filter(m)

    return read_parquet_clean(files).map_batches(
        residual, batch_format="pyarrow")
