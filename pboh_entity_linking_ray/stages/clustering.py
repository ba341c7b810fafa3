"""Transitive clustering: matched pairs → connected components.

Iterative hash-partitioned union-find with NO driver-side graph and NO
large-side join: the large-star / small-star edge-contraction algorithm
("Connected Components in MapReduce and Beyond", Kiveris et al., SoCC'14)
needs only hash-partitioned groupings of the edge set per round and
converges in O(log n) rounds.  The reference has no clustering analog —
its per-document solutions are independent (SURVEY.md §4.2 item 6) — so
this operator is new, designed Ray-Data-first.

Each star step is a *bucketed, fully vectorized* polars computation
(functions/grouping.py): all edges of a node hash to one bucket, and the
per-node min/emit logic is a group-aggregate + join inside the bucket —
one Python call per bucket, never per node.

Node ids are conversation-id strings; "min" is lexicographic, making the
final ``cluster_id`` the minimum conv_id of each component (golden-fixture
contract, FIXTURES.md §3) with no extra pass.
"""

from __future__ import annotations
from pboh_entity_linking_ray.sources.reading import read_parquet_clean

import json
import os
import shutil
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Sum

from ..functions.grouping import (_stream_block_refs, dedup_keep_first,
                                  hash_exchange)
from ..state.checkpoint import private_build

_EDGE_SCHEMA = pa.schema([("u", pa.string()), ("v", pa.string())])
_LABEL_SCHEMA = pa.schema([("conv_id", pa.string()), ("cluster_id", pa.string())])
_MATCH_SCHEMA = pa.schema([("conv_a", pa.string()), ("conv_b", pa.string())])


def _doubled(edges: ray.data.Dataset) -> ray.data.Dataset:
    return edges.map_batches(
        lambda t: pa.table({
            "u": pa.concat_arrays([t["u"].combine_chunks(), t["v"].combine_chunks()]),
            "v": pa.concat_arrays([t["v"].combine_chunks(), t["u"].combine_chunks()]),
        }).cast(_EDGE_SCHEMA),
        batch_format="pyarrow",
    )


def _large_star(bucket: pa.Table) -> pa.Table:
    """Per node u: m = min(Γ(u) ∪ {u}); emit (v, m) for v ∈ Γ(u), v > u."""
    import polars as pl

    df = pl.from_arrow(bucket)
    mins = df.group_by("u").agg(pl.col("v").min().alias("mv"))
    mins = mins.with_columns(
        pl.when(pl.col("mv") < pl.col("u")).then(pl.col("mv"))
        .otherwise(pl.col("u")).alias("m")
    )
    out = (
        df.join(mins.select(["u", "m"]), on="u")
        .filter(pl.col("v") > pl.col("u"))
        .select(pl.col("v").alias("u"), pl.col("m").alias("v"))
        .unique()
    )
    return out.to_arrow().cast(_EDGE_SCHEMA)


def _small_star(bucket: pa.Table) -> pa.Table:
    """Per node u with Γ≤(u) = {v : v < u}: m = min(Γ≤ ∪ {u}) (= min Γ≤);
    emit (v, m) for v ∈ Γ≤ ∪ {u}, v ≠ m."""
    import polars as pl

    df = pl.from_arrow(bucket).filter(pl.col("v") < pl.col("u"))
    if len(df) == 0:
        return _EDGE_SCHEMA.empty_table()
    mins = df.group_by("u").agg(pl.col("v").min().alias("m"))
    nbr_emits = (
        df.join(mins, on="u")
        .filter(pl.col("v") != pl.col("m"))
        .select(pl.col("v").alias("u"), pl.col("m").alias("v"))
    )
    self_emits = mins.select(pl.col("u"), pl.col("m").alias("v"))
    out = pl.concat([nbr_emits, self_emits]).unique()
    return out.to_arrow().cast(_EDGE_SCHEMA)


def _checksum(edges: ray.data.Dataset) -> tuple[int, int]:
    def h(t: pa.Table) -> pa.Table:
        import polars as pl

        if t.num_rows == 0:
            return pa.table({"h": pa.array([], type=pa.int64()),
                             "c": pa.array([], type=pa.int64())})
        s = (pl.from_arrow(t["u"].combine_chunks()) + "\x1f"
             + pl.from_arrow(t["v"].combine_chunks())).hash(seed=3)
        # per-ROW mask then sum: the total is partition-independent (a
        # per-block xor+mask changed with block boundaries and defeated
        # the convergence check), and 28-bit terms keep any realistic
        # row count inside int64 for the Sum aggregate
        x = int((s.to_numpy().astype(np.uint64) & np.uint64(0xFFFFFFF)).sum())
        return pa.table({
            "h": pa.array([x], type=pa.int64()),
            "c": pa.array([t.num_rows], type=pa.int64()),
        })

    part = edges.map_batches(h, batch_format="pyarrow")
    agg = part.aggregate(Sum("h", alias_name="hs"), Sum("c", alias_name="cs"))
    return int(agg.get("hs") or 0), int(agg.get("cs") or 0)


def _dedup_edges(edges: ray.data.Dataset,
                 num_buckets: int) -> ray.data.Dataset:
    def key(t: pa.Table) -> pa.Table:
        return t.append_column(
            "ek", pc.binary_join_element_wise(t["u"], t["v"], "\x1f"))

    keyed = edges.map_batches(key, batch_format="pyarrow")
    return dedup_keep_first(keyed, "ek", num_buckets=num_buckets) \
        .select_columns(["u", "v"])


def _pin(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Materialize AND truncate lineage: rebuilding from the materialized
    block refs keeps the logical plan flat across iterations (a plain
    ``materialize()`` chains plans round after round until the planner
    recurses past Python's stack limit)."""
    return ray.data.from_arrow_refs(
        ds.materialize().to_arrow_refs()).materialize()


@ray.remote
def _project(block, names: list[str]) -> pa.Table:
    """A block narrowed to ``names`` where it lives (``_collect``)."""
    if not isinstance(block, pa.Table):
        block = pa.Table.from_pandas(block, preserve_index=False)
    return block.select(names)


def _collect(ds: ray.data.Dataset, schema: pa.Schema) -> pa.Table:
    """Driver-side collect of a SMALL Dataset as one ``schema`` table:
    the block refs come from the stream the exchange reads
    (``_stream_block_refs``), so no schema is fetched; a block wider
    than ``schema`` is projected by a task before the fetch, so only the
    declared columns reach the driver, and each block is cast to the
    declared ``schema`` (a fully-empty Ray map output has ZERO columns;
    pandas blocks are converted)."""
    names = set(schema.names)
    refs = [_project.remote(r, schema.names)
            if sch is not None and set(sch.names) - names else r
            for r, sch in _stream_block_refs(ds)]
    blocks = [b if isinstance(b, pa.Table)
              else pa.Table.from_pandas(b, preserve_index=False)
              for b in ray.get(refs)]
    blocks = [b.select(schema.names).cast(schema)
              for b in blocks if b.num_rows]
    return (pa.concat_tables(blocks).combine_chunks() if blocks
            else schema.empty_table())


def _local_cc(edges: pa.Table) -> pa.Table:
    """Vectorized driver-side union-find over a SMALL edge table — the
    finish step once star contraction has shrunk the frontier under
    ``local_finish_rows``.  Path-halving on int32 index arrays; node ids
    factorized to indices via np.unique so labels stay the component-min
    conv_id (same contract as the distributed rounds)."""
    if edges.num_rows == 0:
        return _LABEL_SCHEMA.empty_table()
    u = np.asarray(edges["u"]).astype(object)
    v = np.asarray(edges["v"]).astype(object)
    nodes, idx = np.unique(np.concatenate([u, v]), return_inverse=True)
    eu, ev = idx[: len(u)], idx[len(u):]
    parent = np.arange(len(nodes), dtype=np.int64)

    def find(x: np.ndarray) -> np.ndarray:
        while True:
            p = parent[x]
            done = parent[p] == p
            if done.all():
                return p
            parent[x] = parent[p]          # path halving
            x = parent[x]

    # union by min-root: iterate until no edge links two roots (≤ log n
    # sweeps; each sweep is whole-array numpy)
    while True:
        ru, rv = find(eu), find(ev)
        live = ru != rv
        if not live.any():
            break
        lo = np.minimum(ru[live], rv[live])
        hi = np.maximum(ru[live], rv[live])
        # np.minimum.at resolves duplicate hi deterministically (min wins)
        np.minimum.at(parent, hi, lo)
    roots = find(np.arange(len(nodes), dtype=np.int64))
    return pa.table({"conv_id": pa.array(nodes, type=pa.string()),
                     "cluster_id": pa.array(nodes[roots], type=pa.string())})


def _rounds(root: str) -> dict[int, str]:
    """Round checkpoint dirs (``round=<n>``) under ``root`` by round;
    in-flight temp dirs beside them are not rounds."""
    if not os.path.isdir(root):
        return {}
    return {int(d[6:]): os.path.join(root, d) for d in os.listdir(root)
            if d.startswith("round=") and d[6:].isdigit()}


def _latest_round_ckpt(root: str) -> tuple[int, str] | None:
    """Newest complete round checkpoint under ``root`` → (round, dir)."""
    done = [(r, d) for r, d in _rounds(root).items()
            if os.path.exists(os.path.join(d, "_complete.json"))]
    return max(done) if done else None


def _write_round_ckpt(root: str, rnd: int, frontier: ray.data.Dataset) -> None:
    """Atomically persist one round's edge frontier (private tmp dir +
    rename, marker written last), then drop older rounds — only the
    newest is ever resumed from, so disk stays bounded at one frontier."""
    out = os.path.join(root, f"round={rnd}")
    marker = os.path.join(out, "_complete.json")
    with private_build(out, lambda: os.path.exists(marker)) as tmp:
        frontier.write_parquet(tmp)
        with open(os.path.join(tmp, "_complete.json"), "w") as f:
            json.dump({"round": rnd}, f)
    for r, d in _rounds(root).items():
        if r != rnd:
            shutil.rmtree(d, ignore_errors=True)


def connected_components(
    edges: ray.data.Dataset, num_buckets: int, max_rounds: int = 50,
    local_finish_rows: int = 5_000_000,
    iter_checkpoint_root: str | None = None,
    checkpoint_every: int = 5,
) -> ray.data.Dataset:
    """edges(u, v) → labels(conv_id, cluster_id); only nodes present in
    edges appear (callers union in singletons).

    Hybrid: large-star/small-star rounds (each a bucketed shuffle) run
    while the frontier exceeds ``local_finish_rows``; below it the edge
    table — already contracted toward component minima, a few hundred MB
    at worst — is pulled once and finished with a vectorized union-find.
    At 100 TB the first rounds do the heavy contraction distributed; the
    driver finish replaces the last ~log(n) rounds whose per-round
    barrier latency is serial and anti-scales.

    ``iter_checkpoint_root`` enables PERIODIC mid-iteration checkpoints
    (K4 analog — the reference dumps learned weights every 20 SGD
    rounds, utils/OptimizedRhosMap.scala:89-97 / Learning.scala:345-351):
    every ``checkpoint_every`` rounds the contracted edge frontier is
    written atomically; a re-run resumes star contraction from the
    newest complete round instead of round 0.  The frontier is a valid
    re-entry point because star rounds are idempotent on their own
    output (the algorithm converges on any equivalent edge set), so a
    crash between checkpoints only repeats ≤ ``checkpoint_every`` rounds.
    """
    start_round = 0
    resumed = None
    if iter_checkpoint_root:
        os.makedirs(iter_checkpoint_root, exist_ok=True)
        resumed = _latest_round_ckpt(iter_checkpoint_root)
    if resumed is not None:
        start_round = resumed[0] + 1
        cur = _pin(read_parquet_clean(resumed[1]))
    else:
        cur = _pin(_dedup_edges(edges, num_buckets))
    prev_meta = None
    prev_sum = None
    for rnd in range(start_round, max_rounds):
        if cur.count() <= local_finish_rows:
            return ray.data.from_arrow(_local_cc(_collect(cur, _EDGE_SCHEMA)))
        # no inter-round dedup needed: each star op dedups within its
        # bucket, and bucketing by u makes that a global dedup
        ls = hash_exchange(_doubled(cur), "u", _large_star, num_buckets)
        ss = hash_exchange(_doubled(ls), "u", _small_star, num_buckets)
        cur = _pin(ss)
        if (iter_checkpoint_root and checkpoint_every > 0
                and (rnd + 1) % checkpoint_every == 0):
            _write_round_ckpt(iter_checkpoint_root, rnd, cur)
        # cheap metadata pre-check: a changed row count / byte size can't
        # be a fixpoint, so the full checksum aggregate only runs on
        # candidate-converged rounds
        meta = (cur.count(), cur.size_bytes())
        if meta == prev_meta:
            cs = _checksum(cur)
            if cs == prev_sum:
                break
            prev_sum = cs
        else:
            prev_sum = None
        prev_meta = meta

    def label(bucket: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(bucket)
        out = (
            df.group_by("u").agg(pl.col("v").min().alias("mv"))
            .with_columns(
                pl.when(pl.col("mv") < pl.col("u")).then(pl.col("mv"))
                .otherwise(pl.col("u")).alias("cluster_id"))
            .select(pl.col("u").alias("conv_id"), pl.col("cluster_id"))
        )
        return out.to_arrow().cast(_LABEL_SCHEMA)

    return hash_exchange(_doubled(cur), "u", label, num_buckets)


def cluster_matches(
    matches: ray.data.Dataset, all_convs: ray.data.Dataset, num_buckets: int,
    iter_checkpoint_root: str | None = None,
) -> ray.data.Dataset:
    """matches(conv_a, conv_b) + the full conv universe → one row per
    conversation (singletons become their own cluster)."""
    edges = matches.map_batches(
        lambda t: pa.table({"u": t["conv_a"].combine_chunks(),
                            "v": t["conv_b"].combine_chunks()}).cast(_EDGE_SCHEMA),
        batch_format="pyarrow",
    )
    labeled = connected_components(
        edges, num_buckets, iter_checkpoint_root=iter_checkpoint_root)
    self_rows = all_convs.map_batches(
        lambda t: pa.table({"conv_id": t["conv_id"].combine_chunks(),
                            "cluster_id": t["conv_id"].combine_chunks()})
        .cast(_LABEL_SCHEMA),
        batch_format="pyarrow",
    )

    def pick_min(bucket: pa.Table) -> pa.Table:
        import polars as pl

        out = (
            pl.from_arrow(bucket).group_by("conv_id")
            .agg(pl.col("cluster_id").min())
        )
        return out.to_arrow().cast(_LABEL_SCHEMA)

    return hash_exchange(labeled.union(self_rows), "conv_id", pick_min,
                         num_buckets)


class Reclustered(NamedTuple):
    """``region``: the rows ``recluster`` re-labelled, a driver table
    with ``prior_id`` (the row's cluster before the call, null if new).
    ``rest``: the untouched prior rows, passed through lazily."""
    region: pa.Table
    rest: ray.data.Dataset

    def assignments(self) -> ray.data.Dataset:
        """conv_id → cluster_id for every conversation, lazily sorted by
        conv_id (deterministic checkpoint bytes)."""
        return ray.data.from_arrow(self.region.select(_LABEL_SCHEMA.names)) \
            .union(self.rest).sort("conv_id")


def rows_in(ds: ray.data.Dataset, col: str, values: pa.Array,
            keep: bool) -> ray.data.Dataset:
    """Rows of ``ds`` whose ``col`` is (``keep``) or is not in the driver
    value set ``values``; zero-column empty blocks pass through."""
    def f(t: pa.Table) -> pa.Table:
        if col not in t.column_names:
            return t
        m = pc.is_in(t[col], value_set=values.cast(t[col].type))
        return t.filter(m if keep else pc.invert(m))

    return ds.map_batches(f, batch_format="pyarrow")


def recluster(prior: ray.data.Dataset, match_edges: ray.data.Dataset,
              changed: pa.Array) -> Reclustered:
    """Update ``prior`` (conv_id, cluster_id) with ``match_edges``
    (conv_a, conv_b) for the ``changed`` conversations (distinct string
    conv ids) — the clustering epilogue of the incremental and one-shot
    paths.

    Only the state an arriving record touches is updated (ICDE 2020
    streaming join): a prior cluster is touched when a member is a match
    endpoint or a changed id; an untouched one is disjoint from every new
    edge and already min-labelled, so it passes through.  The touched
    region is collected and clustered on the driver (``_local_cc``) over
    the match edges plus, per touched cluster, edges from each kept
    member to the least one.  A changed id's own prior row is dropped
    (upsert: its new matches alone place it); with only new ids this is
    exactly CC over prior label edges ∪ match edges."""
    edges = _collect(match_edges, _MATCH_SCHEMA) \
        .rename_columns(_EDGE_SCHEMA.names)
    keys = pc.unique(pa.chunked_array(
        [changed, *edges["u"].chunks, *edges["v"].chunks], pa.string()))
    touched = pc.unique(_collect(rows_in(prior, "conv_id", keys, True),
                                 _LABEL_SCHEMA)["cluster_id"])
    members = _collect(rows_in(prior, "cluster_id", touched, True),
                       _LABEL_SCHEMA)

    kept = members.filter(pc.invert(pc.is_in(members["conv_id"],
                                             value_set=changed)))
    star = kept.join(kept.group_by("cluster_id").aggregate(
        [("conv_id", "min")]), "cluster_id")
    labels = _local_cc(pa.concat_tables([edges, pa.table(
        {"u": star["conv_id"], "v": star["conv_id_min"]}).cast(_EDGE_SCHEMA)]))
    lone = changed.filter(pc.invert(pc.is_in(changed,
                                             value_set=labels["conv_id"])))
    region = pa.concat_tables([labels, pa.table(
        {"conv_id": lone, "cluster_id": lone}).cast(_LABEL_SCHEMA)]).join(
        members.rename_columns(["conv_id", "prior_id"]), "conv_id",
        join_type="left outer").sort_by("conv_id")
    return Reclustered(region, rows_in(prior, "cluster_id", touched, False))
