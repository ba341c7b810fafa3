"""Analytic (window / OLAP) operators: per-group ranking, running
cumulative aggregates, ROLLUP hierarchies, and grouped ordered collect.

All four follow the engine's single-exchange window recipe (the same one
``temporal.q36_event_lag`` uses for lag/lead): hash-partition on the
PARTITION BY key with ONE ``hash_exchange``, then resolve every window
function inside the bucket with a vectorized polars kernel (``rank`` /
``cum_sum`` / ``str.join`` over sorted partitions).  A window only ever
needs one key's rows co-located — never a global sort — so the shuffle
moves each row exactly once, skinny-projected.

Reference analog: the reference ranks candidate entities per mention and
accumulates per-document scores positionally (SURVEY.md §2 M10/T2-T5,
``md/MentionDetectionSpark.scala``-family top-k pruning); these queries
are the explicit SQL-window generalisation of that per-partition
rank/accumulate pattern.

Scale notes (100 TB): per-bucket work is O(n log n) sort + linear window
pass; bucket state never exceeds one bucket's rows (``buckets_for`` sizes
bucket count from the corpus).  ROLLUP's upper tiers re-aggregate the
already-tiny base tier — the driver never sees row-level data.
"""

from __future__ import annotations
from pboh_entity_linking_ray.sources.reading import read_parquet_clean

import numpy as np
import pyarrow as pa
import ray.data

from ..functions.grouping import broadcast_join, hash_exchange


def _cents(col: pa.ChunkedArray) -> pa.Array:
    """floor(x*100+0.5) as int64 — integer cents make cross-engine sums
    exact (same trick as q01/q23)."""
    return pa.array(np.floor(np.asarray(col) * 100 + 0.5).astype(np.int64))


def _orders_cents(sf_dir: str, extra: list[str] | None = None):
    cols = ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]
    cols += extra or []
    ds = read_parquet_clean(f"{sf_dir}/orders.parquet", columns=cols)

    def project(t: pa.Table) -> pa.Table:
        keep = {c: t[c] for c in cols if c != "o_totalprice"}
        keep["cents"] = _cents(t["o_totalprice"])
        return pa.table(keep)

    return ds.map_batches(project, batch_format="pyarrow")


# --- q39: per-group ranking (row_number / rank / dense_rank) ---------------

def q39_order_rank(sf_dir: str):
    """Every order with its row_number, rank, and dense_rank among the
    same customer's orders by price descending (ties broken by orderkey
    for row_number only — rank/dense_rank see true price ties, exactly
    SQL semantics).  One exchange on the customer; polars ``rank`` over
    the partition resolves all three variants in one vectorized pass."""

    def rank_bucket(t: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(t).sort(["o_custkey", "cents", "o_orderkey"],
                                   descending=[False, True, False])
        out = df.with_columns(
            rn=pl.int_range(pl.len()).over("o_custkey").cast(pl.Int64) + 1,
            rnk=pl.col("cents").rank("min", descending=True)
                  .over("o_custkey").cast(pl.Int64),
            drnk=pl.col("cents").rank("dense", descending=True)
                   .over("o_custkey").cast(pl.Int64),
        ).select(["o_orderkey", "o_custkey", "cents", "rn", "rnk", "drnk"])
        return out.to_arrow()

    return hash_exchange(_orders_cents(sf_dir), "o_custkey", rank_bucket,
                         num_buckets=16)


SQL_Q39 = """
SELECT o_orderkey, o_custkey, cents,
       row_number() OVER (PARTITION BY o_custkey
                          ORDER BY cents DESC, o_orderkey) AS rn,
       rank()       OVER w AS rnk,
       dense_rank() OVER w AS drnk
FROM (SELECT o_orderkey, o_custkey,
             CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
      FROM orders)
WINDOW w AS (PARTITION BY o_custkey ORDER BY cents DESC)
"""


# --- q40: running cumulative aggregate per partition -----------------------

def q40_running_revenue(sf_dir: str):
    """Per order: the customer's cumulative revenue and order count up to
    and including it, in (orderdate, orderkey) order — the running-total
    window family (SUM/COUNT OVER ... ROWS UNBOUNDED PRECEDING).  Exact
    integer cents; one exchange, one sorted cumulative pass per bucket."""

    def cum_bucket(t: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(t).sort(["o_custkey", "o_orderdate", "o_orderkey"])
        out = df.with_columns(
            run_cents=pl.col("cents").cum_sum().over("o_custkey"),
            run_n=(pl.int_range(pl.len()).over("o_custkey") + 1)
                  .cast(pl.Int64),
        ).select(["o_orderkey", "o_custkey", "o_orderdate",
                  "run_cents", "run_n"])
        return out.to_arrow()

    return hash_exchange(_orders_cents(sf_dir), "o_custkey", cum_bucket,
                         num_buckets=16)


SQL_Q40 = """
SELECT o_orderkey, o_custkey, o_orderdate,
       CAST(sum(cents) OVER w AS BIGINT) AS run_cents,
       count(*) OVER w AS run_n
FROM (SELECT o_orderkey, o_custkey, o_orderdate,
             CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
      FROM orders)
WINDOW w AS (PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey
             ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
"""


# --- q41: ROLLUP hierarchy (year → priority → grand total) -----------------

def _year_prio_tiers(sf_dir: str):
    """Shared body of q41 (ROLLUP) and q78 (CUBE): per-batch partial
    combine over orders (the only row-level pass) → ONE small exchange
    keyed on year whose buckets emit the (yr, prio) base tier plus their
    per-year subtotals (prio=NULL).  The finishing tiers differ per
    caller and re-aggregate only these O(years × priorities) rows."""
    import pyarrow.compute as pc

    orders = read_parquet_clean(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderdate", "o_orderpriority", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(pa.table({
            "yr": pc.cast(pc.year(t["o_orderdate"]), pa.int64()),
            "prio": t["o_orderpriority"],
            "cents": _cents(t["o_totalprice"]),
        }))
        return (df.group_by(["yr", "prio"])
                .agg(pl.col("cents").sum().alias("rev_cents"),
                     pl.len().cast(pl.Int64).alias("n_orders"))
                .to_arrow())

    def year_bucket(t: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(t)
        base = (df.group_by(["yr", "prio"])
                .agg(pl.col("rev_cents").sum(), pl.col("n_orders").sum()))
        yr = (base.group_by("yr")
              .agg(pl.col("rev_cents").sum(), pl.col("n_orders").sum())
              .with_columns(prio=pl.lit(None, dtype=pl.String)))
        return pl.concat([base, yr.select(base.columns)]).to_arrow()

    return hash_exchange(orders.map_batches(partial, batch_format="pyarrow"),
                         "yr", year_bucket, num_buckets=4)


def q41_rollup_revenue(sf_dir: str):
    """Order count and revenue by ROLLUP(year, priority): the full
    (year, priority) tier, per-year subtotals, and the grand total, with
    NULLs marking rolled-up levels exactly as SQL ROLLUP does.

    Distribution shape: per-batch partial combine (the only pass over
    row-level data) → ONE small exchange keyed on year whose buckets
    emit both the base tier and their year subtotals → the grand total
    re-aggregates the O(years) subtotal rows in a final one-bucket pass.
    The driver never touches row-level data; upper tiers cost
    O(distinct years × priorities)."""
    tiers = _year_prio_tiers(sf_dir)

    def grand(t: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(t)
        total = (df.filter(pl.col("prio").is_null())   # year subtotals only
                 .select(pl.lit(None, dtype=pl.Int64).alias("yr"),
                         pl.lit(None, dtype=pl.String).alias("prio"),
                         pl.col("rev_cents").sum(),
                         pl.col("n_orders").sum()))
        return pl.concat([df.select(total.columns), total]).to_arrow()

    # the tier table is O(years × priorities) rows — a single-bucket
    # finishing pass, not a data shuffle
    return hash_exchange(tiers, "n_orders", grand, num_buckets=1)


SQL_Q41 = """
SELECT CAST(year(o_orderdate) AS BIGINT) AS yr,
       o_orderpriority AS prio,
       CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT))
            AS BIGINT) AS rev_cents,
       count(*) AS n_orders
FROM orders
GROUP BY ROLLUP(yr, prio)
"""


# --- q78: CUBE (all grouping sets) -------------------------------------------

def q78_cube_revenue(sf_dir: str):
    """Order count and revenue by CUBE(year, priority) — all four
    grouping sets: (yr, prio), (yr), (prio), and the grand total, NULLs
    marking collapsed dimensions exactly as SQL CUBE does.

    Same physical plan as q41's ROLLUP (shared ``_year_prio_tiers``):
    the only row-level pass is the per-batch partial combine; the
    year-keyed exchange emits the base tier + per-year subtotals; the
    CUBE-only tiers — per-priority totals across years and the grand
    total — re-aggregate the O(years × priorities) BASE rows in one
    single-bucket finishing pass (cross-year sums need every year's base
    rows in one place; they are tier rows, not data)."""
    tiers = _year_prio_tiers(sf_dir)

    def cube_finish(t: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(t)
        base = df.filter(pl.col("prio").is_not_null())
        prio = (base.group_by("prio")
                .agg(pl.col("rev_cents").sum(), pl.col("n_orders").sum())
                .with_columns(yr=pl.lit(None, dtype=pl.Int64)))
        total = base.select(
            pl.lit(None, dtype=pl.Int64).alias("yr"),
            pl.lit(None, dtype=pl.String).alias("prio"),
            pl.col("rev_cents").sum(),
            pl.col("n_orders").sum())
        return pl.concat([df.select(total.columns),
                          prio.select(total.columns),
                          total]).to_arrow()

    # the tier table is O(years × priorities) rows — a single-bucket
    # finishing pass, not a data shuffle
    return hash_exchange(tiers, "n_orders", cube_finish, num_buckets=1)


SQL_Q78 = """
SELECT CAST(year(o_orderdate) AS BIGINT) AS yr,
       o_orderpriority AS prio,
       CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT))
            AS BIGINT) AS rev_cents,
       count(*) AS n_orders
FROM orders
GROUP BY CUBE(yr, prio)
"""


# --- q77: lead / first_value / last_value / ntile window suite --------------

def q77_window_suite(sf_dir: str):
    """Per event, over the user's history ordered by (ts, event_id): the
    NEXT event id (lead), the partition's first and last event ids
    (first_value / last_value over the full frame), and the event's
    quartile position (ntile(4)) — the remaining SQL window functions
    the lag recipe (temporal.q36) doesn't exercise.

    Same single-exchange shape: ONE hash exchange on user_id, then one
    vectorized polars pass per bucket — sort once, every window resolves
    over the sorted partition (`shift(-1)` / `first` / `last` /
    an exact integer ntile from the partition row index).  ntile follows
    the SQL standard: the first (n mod 4) quartiles get ⌈n/4⌉ rows."""
    events = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"])

    def win_bucket(t: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(t).sort(["user_id", "ts", "event_id"])
        n = pl.len().over("user_id")
        rn = pl.int_range(0, pl.len()).over("user_id")   # 0-based row idx
        q, r = n // 4, n % 4
        cut = r * (q + 1)                                # rows in big tiles
        ntile = (pl.when(rn < cut)
                 .then(rn // (q + 1) + 1)
                 # guard q=0 (n<4): that case always lands in the when-
                 # branch, but polars evaluates both — avoid div-by-zero
                 .otherwise(r + (rn - cut) // pl.max_horizontal(q, 1) + 1))
        out = df.with_columns(
            pl.col("event_id").shift(-1).over("user_id")
              .alias("next_event_id"),
            pl.col("event_id").first().over("user_id")
              .alias("first_event_id"),
            pl.col("event_id").last().over("user_id")
              .alias("last_event_id"),
            ntile.cast(pl.Int64).alias("ntile_4"),
        ).select(["event_id", "user_id", "next_event_id",
                  "first_event_id", "last_event_id", "ntile_4"])
        return out.to_arrow()

    return hash_exchange(events, "user_id", win_bucket, num_buckets=16)


SQL_Q77 = """
SELECT event_id, user_id,
       lead(event_id) OVER w AS next_event_id,
       first_value(event_id) OVER w AS first_event_id,
       last_value(event_id) OVER
           (PARTITION BY user_id ORDER BY ts, event_id
            ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING)
           AS last_event_id,
       CAST(ntile(4) OVER w AS BIGINT) AS ntile_4
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
"""


# --- q42: grouped ordered collect (string_agg) ------------------------------

def q42_priority_timeline(sf_dir: str):
    """Per customer: their order priorities concatenated in
    (orderdate, orderkey) order — the grouped ordered-collect family
    (string_agg / array_agg ... ORDER BY).  One exchange on the
    customer; each bucket sorts its partitions once and joins the
    strings vectorized."""
    orders = read_parquet_clean(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"])

    def collect_bucket(t: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(t).sort(["o_custkey", "o_orderdate", "o_orderkey"])
        out = (df.group_by("o_custkey", maintain_order=True)
               .agg(pl.col("o_orderpriority").str.join(",")
                    .alias("prio_seq"),
                    pl.len().cast(pl.Int64).alias("n_orders")))
        return out.to_arrow()

    return hash_exchange(orders, "o_custkey", collect_bucket, num_buckets=16)


SQL_Q42 = """
SELECT o_custkey,
       string_agg(o_orderpriority, ','
                  ORDER BY o_orderdate, o_orderkey) AS prio_seq,
       count(*) AS n_orders
FROM orders
GROUP BY o_custkey
"""


# --- q43: star-schema broadcast join (fact ⋈ small dims, no shuffle) --------

def q43_nation_revenue(sf_dir: str):
    """Revenue and order count per (nation, market segment): the orders
    fact stream broadcast-joined against the customer⋈nation dimension —
    the canonical small-side pattern.  The dims are read ONCE at the
    driver (they are bounded: nation is 25 rows; customer is the
    dimension of this star), pre-joined there, ``ray.put`` once, and
    every join actor builds its frame once in ``__init__`` — the fact
    table never shuffles.  A per-batch partial aggregate is FUSED into
    the join task (``post``), so only O(nations × segments) partial rows
    per batch leave it; one tiny exchange finishes the sum."""
    import polars as pl
    import pyarrow.parquet as pq

    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_nationkey", "c_mktsegment"])
    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"])
    dim = (pl.from_arrow(cust)
           .join(pl.from_arrow(nation),
                 left_on="c_nationkey", right_on="n_nationkey")
           .select(pl.col("c_custkey").alias("o_custkey"),
                   pl.col("n_name"), pl.col("c_mktsegment"))
           .to_arrow())

    orders = read_parquet_clean(f"{sf_dir}/orders.parquet",
                                   columns=["o_custkey", "o_totalprice"])

    def project(t: pa.Table) -> pa.Table:
        return pa.table({"o_custkey": t["o_custkey"],
                         "cents": _cents(t["o_totalprice"])})

    def partial(joined: pa.Table) -> pa.Table:
        import polars as pl

        return (pl.from_arrow(joined).group_by(["n_name", "c_mktsegment"])
                .agg(pl.col("cents").sum().alias("rev_cents"),
                     pl.len().cast(pl.Int64).alias("n_orders"))
                .to_arrow())

    def final(t: pa.Table) -> pa.Table:
        import polars as pl

        return (pl.from_arrow(t).group_by(["n_name", "c_mktsegment"])
                .agg(pl.col("rev_cents").sum(), pl.col("n_orders").sum())
                .to_arrow())

    joined = broadcast_join(
        orders.map_batches(project, batch_format="pyarrow"),
        dim, on="o_custkey", post=partial)
    return hash_exchange(joined, "n_name", final, num_buckets=4)


SQL_Q43 = """
SELECT n_name, c_mktsegment,
       CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT))
            AS BIGINT) AS rev_cents,
       count(*) AS n_orders
FROM orders
JOIN customer ON c_custkey = o_custkey
JOIN nation ON n_nationkey = c_nationkey
GROUP BY 1, 2
"""


# --- q48: skew-resilient salted join ----------------------------------------

def q48_salted_segment_activity(sf_dir: str):
    """Event count and value per (market segment, event type), joining
    the events fact against the customer dimension through
    ``salted_join`` (salt=4): each hot user's events spread across 4
    buckets while the replicated customer rows follow them — the
    skew-resilient join pattern for fact tables with heavy keys.  The
    per-batch aggregate is fused into the join bucket (``post``), so
    only O(segments × types) partial rows leave each bucket; one tiny
    exchange finishes.  Output is provably identical to the unsalted
    join (tests/test_hash_join.py parity suite)."""
    from ..functions.grouping import salted_join

    events = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type", "value"])

    def ev_project(t: pa.Table) -> pa.Table:
        return pa.table({"c_custkey": t["user_id"],
                         "event_type": t["event_type"],
                         "v_cents": _cents(t["value"])})

    cust = read_parquet_clean(f"{sf_dir}/customer.parquet",
                                 columns=["c_custkey", "c_mktsegment"])

    def partial(joined: pa.Table) -> pa.Table:
        import polars as pl

        return (pl.from_arrow(joined)
                .group_by(["c_mktsegment", "event_type"])
                .agg(pl.col("v_cents").sum().alias("sum_cents"),
                     pl.len().cast(pl.Int64).alias("n_events"))
                .to_arrow())

    def final(t: pa.Table) -> pa.Table:
        import polars as pl

        return (pl.from_arrow(t).group_by(["c_mktsegment", "event_type"])
                .agg(pl.col("sum_cents").sum(), pl.col("n_events").sum())
                .to_arrow())

    joined = salted_join(
        events.map_batches(ev_project, batch_format="pyarrow"),
        cust, on="c_custkey", salt=4, post=partial)
    return hash_exchange(joined, "c_mktsegment", final, num_buckets=4)


SQL_Q48 = """
SELECT c_mktsegment, event_type,
       CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
           AS sum_cents,
       count(*) AS n_events
FROM events JOIN customer ON c_custkey = user_id
GROUP BY 1, 2
"""


# --- q68: PageRank over the customer↔part purchase graph ---------------------

PR_ITERS = 3
PR_DAMP = 0.85     # literal mirrored into the SQL twin
PR_BASE = 0.15     # (1 − d) as the SAME double literal in both engines
PR_PART_OFF = 1_000_000   # part node ids disjoint from customer ids


PR_SHARDS = 16

_EMPTY_NODES = pa.table({"src": pa.array([], type=pa.int64()),
                         "d": pa.array([], type=pa.int64())})
_EMPTY_CONTRIB = pa.table({"dst": pa.array([], type=pa.int64()),
                           "x": pa.array([], type=pa.float64())})


def _graph_state(tbl: pa.Table | None):
    """PinnedShards init for one shard of the symmetrized edge list.
    src-routing co-locates ALL copies of a given src, so two build
    steps are local: global (src, dst) dedup and exact out-degrees —
    no dedup exchange, no degree join."""
    import polars as pl

    if tbl is None:
        return None
    df = pl.from_arrow(tbl).unique(subset=["src", "dst"])
    deg = df.group_by("src").agg(d=pl.len().cast(pl.Int64))
    return {"edges": df.join(deg, on="src", how="inner"),
            "nodes": deg.to_arrow()}


def _graph_nodes(state) -> pa.Table:
    return state["nodes"] if state is not None else _EMPTY_NODES


def _graph_contrib(state, probe: pa.Table | None) -> pa.Table:
    """One iteration's partial contributions: this shard's rank rows ⋈
    pinned edges, r/d pre-summed per dst — only O(distinct dst in
    shard) skinny rows leave the actor."""
    import polars as pl

    if state is None or probe is None:
        return _EMPTY_CONTRIB
    ranks = pl.from_arrow(probe)
    return (state["edges"].join(ranks, on="src", how="inner")
            .select(pl.col("dst"), x=pl.col("r") / pl.col("d"))
            .group_by("dst").agg(pl.col("x").sum())
            .to_arrow())


def q68_pagerank(sf_dir: str):
    """Distributed PageRank (fixed PR_ITERS power iterations, damping
    PR_DAMP) over the symmetrized customer↔part purchase graph — the
    engine's iterative-graph pattern on the ``PinnedShards`` primitive
    (functions/pinned.py): the edge topology is hash-split by src ONCE
    into ``PR_SHARDS`` pinned actor shards (``_graph_state``: local
    dedup + local degrees, since a src's every copy co-locates);
    each iteration then moves only the O(nodes) rank rows — split to the
    shards by the same hash, joined against the pinned edges in-actor
    with per-dst partial sums, and re-aggregated by ONE tiny exchange
    (``hash_exchange(dst)``) that emits the next rank DATASET.  The
    rank vector is never driver-collected (at web scale the node table
    outgrows any broadcast); the driver holds only N and O(blocks ×
    shards) refs during intake (at extreme block counts, route the
    intake through the hierarchical exchange instead).

    Symmetrizing removes dangling nodes, so no leaked-mass correction
    term is needed and the SQL twin is three chained CTE pairs.

    Graph analog of the reference's entity co-occurrence importance
    (index/EntityCooccurrenceIndex.scala popularity totals), upgraded
    from degree-counting to the stationary-distribution score."""
    import pyarrow.compute as pc

    from ..functions.grouping import hash_exchange, hash_join
    from .relational import _t

    orders = _t(sf_dir, "orders", ["o_orderkey", "o_custkey"]).map_batches(
        lambda t: pa.table({"ok": t["o_orderkey"],
                            "c": pc.cast(t["o_custkey"], pa.int64())}),
        batch_format="pyarrow")
    li = _t(sf_dir, "lineitem", ["l_orderkey", "l_partkey"]).map_batches(
        lambda t: pa.table({
            "ok": t["l_orderkey"],
            "p": pc.add(pc.cast(t["l_partkey"], pa.int64()), PR_PART_OFF),
        }),
        batch_format="pyarrow")

    def pack(t: pa.Table) -> pa.Table:
        """Join post hook: drop in-bucket duplicates (same (c,p) within
        one order bucket) so fewer rows reach the shard intake — the
        GLOBAL dedup happens for free inside each shard (src-routing
        co-locates every copy of a pair)."""
        c = np.asarray(t["c"], dtype=np.int64)
        p = np.asarray(t["p"], dtype=np.int64)
        pk = c * 100_000_000 + p
        _, first = np.unique(pk, return_index=True)
        return pa.table({
            "c": pa.array(c[first], type=pa.int64()),
            "p": pa.array(p[first], type=pa.int64()),
        })

    pairs = hash_join(li, orders, "ok", post=pack)
    edges = pairs.map_batches(
        lambda t: pa.table({"src": t["c"], "dst": t["p"]}),
        batch_format="pyarrow",
    ).union(pairs.map_batches(
        lambda t: pa.table({"src": t["p"], "dst": t["c"]}),
        batch_format="pyarrow"))

    # ONE-time intake: pin the edge list in hash-routed actor shards
    # (dedup + degrees happen inside each shard, see _graph_state)
    from ..functions.pinned import PinnedShards

    shards = PinnedShards(edges, "src", _graph_state, n_shards=PR_SHARDS)
    node_tbls = [t for t in shards.gather(_graph_nodes) if t.num_rows]
    n_nodes = sum(t.num_rows for t in node_tbls)
    if n_nodes == 0:
        return ray.data.from_arrow(pa.table({
            "node_id": pa.array([], type=pa.int64()),
            "pr_e9": pa.array([], type=pa.int64())}))

    r_init = 1.0 / n_nodes
    base = PR_BASE / n_nodes
    ranks = ray.data.from_arrow([
        pa.table({"src": t["src"],
                  "r": pa.array(np.full(t.num_rows, r_init),
                                type=pa.float64())})
        for t in node_tbls])

    def renorm(t: pa.Table) -> pa.Table:
        """Exchange bucket fn: final per-dst sum + the damping update,
        emitting next-iteration rank rows directly."""
        import polars as pl

        if t.num_rows == 0 or "dst" not in t.column_names:
            return pa.table({"src": pa.array([], type=pa.int64()),
                             "r": pa.array([], type=pa.float64())})
        df = pl.from_arrow(t).group_by("dst").agg(pl.col("x").sum())
        return pa.table({
            "src": df["dst"].cast(pl.Int64).to_arrow(),
            "r": pa.array(base + PR_DAMP * df["x"].to_numpy(),
                          type=pa.float64()),
        })

    for _ in range(PR_ITERS):
        ranks = hash_exchange(
            shards.map(ranks, _graph_contrib),
            "dst", renorm).materialize()

    return ranks.map_batches(
        lambda t: pa.table({
            "node_id": t["src"],
            "pr_e9": pa.array(
                np.floor(np.asarray(t["r"]) * 1e9 + 0.5).astype(np.int64),
                type=pa.int64()),
        }),
        batch_format="pyarrow")


def _pr_iter_sql(k: int) -> str:
    return f"""
s{k} AS (SELECT e.dst AS node, sum(r{k - 1}.r / deg.d) AS s
         FROM e JOIN r{k - 1} ON r{k - 1}.node = e.src
                JOIN deg ON deg.src = e.src
         GROUP BY e.dst),
r{k} AS (SELECT node, {PR_BASE} / nn.n + {PR_DAMP} * s AS r
         FROM s{k} CROSS JOIN nn)"""


SQL_Q68 = f"""
WITH cp AS (
  SELECT DISTINCT o.o_custkey AS c, {PR_PART_OFF} + l.l_partkey AS p
  FROM orders o JOIN lineitem l ON l.l_orderkey = o.o_orderkey
),
e AS (SELECT c AS src, p AS dst FROM cp UNION ALL SELECT p, c FROM cp),
deg AS (SELECT src, count(*) AS d FROM e GROUP BY src),
nn AS (SELECT count(*) AS n FROM deg),
r0 AS (SELECT src AS node, 1.0 / nn.n AS r FROM deg CROSS JOIN nn),
{",".join(_pr_iter_sql(k) for k in range(1, PR_ITERS + 1))}
SELECT CAST(node AS BIGINT) AS node_id,
       CAST(FLOOR(r * 1000000000 + 0.5) AS BIGINT) AS pr_e9
FROM r{PR_ITERS}
"""


# --- q84: distributed triangle counting (co-purchase graph) ----------------
#
# The purchase graph q68 ranks is bipartite (customer↔part) and therefore
# triangle-free; triangles live in the part–part CO-PURCHASE projection
# (two parts linked iff some order contains both — the reference's entity
# co-occurrence pairing, index/EntityCooccurrenceIndex.scala, read as a
# graph).  The operator is the degree-ordered node-iterator algorithm
# (Chiba–Nishizeki / "node-iterator++", the standard MapReduce triangle
# scheme): orient each edge from its (degree, id)-lower endpoint to the
# higher, generate wedges only at the rank-lowest node of the triangle,
# and close them with one semi join against the directed edge set.
# Degree-ordering bounds every out-degree by O(√m), so per-node wedge
# work is O(outdeg²) ≤ O(m) total REGARDLESS of hub skew — the same
# skew guard the blocking stage gets from salting, obtained structurally.
#
# Node ids must fit 32 bits (packed int64 pair keys, same contract as
# q12/q26); at a larger id space route the closure through the
# composite-key hash_join (q82) instead.

TRI_OFF = 1 << 32


def _copurchase_edges(sf_dir: str):
    """Distinct part–part co-purchase edges (a < b by id): per-order
    triu pairs from one l_orderkey exchange, then a packed-key exchange
    for global dedup.  Shared by q84 (triangles) and q89 (k-core)."""
    import pyarrow.compute as pc

    from ..functions.grouping import hash_exchange
    from .relational import _t

    li = _t(sf_dir, "lineitem", ["l_orderkey", "l_partkey"]).map_batches(
        lambda t: pa.table({"ok": t["l_orderkey"],
                            "p": pc.cast(t["l_partkey"], pa.int64())}),
        batch_format="pyarrow")

    def order_pairs(t: pa.Table) -> pa.Table:
        """Bucket fn for the l_orderkey exchange: distinct parts per
        order, all a<b pairs (grouped-triu idiom, cf. textops.q12)."""
        import polars as pl

        if t.num_rows == 0 or "ok" not in t.column_names:
            return pa.table({"pk": pa.array([], type=pa.int64())})
        df = pl.from_arrow(t).unique(subset=["ok", "p"]).sort(["ok", "p"])
        okv = df["ok"].to_numpy()
        pv = df["p"].to_numpy()
        starts = np.flatnonzero(np.r_[True, okv[1:] != okv[:-1]])
        sizes = np.diff(np.append(starts, len(okv)))
        ap, bp = [], []
        for m in np.unique(sizes[sizes >= 2]):
            ia, ib = np.triu_indices(int(m), k=1)
            base = starts[sizes == m]
            ap.append((base[:, None] + ia[None, :]).ravel())
            bp.append((base[:, None] + ib[None, :]).ravel())
        if not ap:
            return pa.table({"pk": pa.array([], type=pa.int64())})
        ai, bi = np.concatenate(ap), np.concatenate(bp)
        pk = pv[ai] * TRI_OFF + pv[bi]          # parts sorted in-order → a<b
        return pa.table({"pk": pa.array(np.unique(pk))})

    pair_rows = hash_exchange(li, "ok", order_pairs, num_buckets=32)

    def uniq_edges(t: pa.Table) -> pa.Table:
        """Global dedup: every copy of a pair hashes to this bucket."""
        if t.num_rows == 0 or "pk" not in t.column_names:
            return pa.table({"a": pa.array([], type=pa.int64()),
                             "b": pa.array([], type=pa.int64())})
        pk = np.unique(np.asarray(t["pk"], dtype=np.int64))
        return pa.table({"a": pa.array(pk // TRI_OFF),
                         "b": pa.array(pk % TRI_OFF)})

    return hash_exchange(pair_rows, "pk", uniq_edges, num_buckets=32)


TRI_BCAST_MAX = 50_000_000   # edges; above this the broadcast probe
#                              (8 B/edge) would strain worker heaps →
#                              fall back to the semi-join closure


def q84_triangles(sf_dir: str):
    """Per-node triangle counts over the part co-purchase graph.

    Skinny exchanges only: (1) lineitem on l_orderkey → per-order
    distinct-part triu pairs; (2) packed pair key → global edge dedup;
    (3) node → exact degrees (O(nodes) output); (4+5) two hash_joins
    re-attach endpoint degrees, the second's post hook orienting each
    edge low-rank → high-rank; then ONE exchange on the wedge center
    generates, CLOSES, and count-combines wedges inside the bucket task
    — the directed edge set (the m-row small side vs the O(m^1.5) wedge
    stream) is broadcast once as a sorted packed-key array and probed
    with ``searchsorted``, so no wedge row ever crosses an operator
    boundary; per-node partial counts (O(nodes)/bucket) feed one final
    bucketed_sum.  If the edge list outgrows TRI_BCAST_MAX the closure
    falls back to the semi hash_join on the packed directed-pair key
    (same results, one more wedge-sized exchange)."""
    from ..functions.grouping import bucketed_sum, hash_exchange, hash_join

    edges = _copurchase_edges(sf_dir)

    ends = edges.map_batches(
        lambda t: pa.table({"node": t["a"],
                            "one": pa.array(np.ones(t.num_rows,
                                                    dtype=np.int64))}),
        batch_format="pyarrow",
    ).union(edges.map_batches(
        lambda t: pa.table({"node": t["b"],
                            "one": pa.array(np.ones(t.num_rows,
                                                    dtype=np.int64))}),
        batch_format="pyarrow"))
    deg = bucketed_sum(ends, ["node"], "one", "d")

    deg_a = deg.map_batches(
        lambda t: pa.table({"a": t["node"], "da": t["d"]}),
        batch_format="pyarrow")
    deg_b = deg.map_batches(
        lambda t: pa.table({"b": t["node"], "db": t["d"]}),
        batch_format="pyarrow")

    def orient(t: pa.Table) -> pa.Table:
        """Second degree-join's post hook: direct each edge from the
        (degree, id)-lower endpoint; carry the dst's rank components so
        wedge emission can order out-neighbors without another join."""
        a = np.asarray(t["a"], dtype=np.int64)
        b = np.asarray(t["b"], dtype=np.int64)
        da = np.asarray(t["da"], dtype=np.int64)
        db = np.asarray(t["db"], dtype=np.int64)
        a_low = (da < db) | ((da == db) & (a < b))
        return pa.table({
            "src": pa.array(np.where(a_low, a, b)),
            "dst": pa.array(np.where(a_low, b, a)),
            "dd": pa.array(np.where(a_low, db, da)),
        })

    with_da = hash_join(edges, deg_a, "a", num_buckets=32)
    dir_edges = hash_join(with_da, deg_b, "b", num_buckets=32,
                          post=orient).materialize()

    def _wedge_arrays(t: pa.Table):
        """(ctr, x, y) arrays of all rank-ordered out-neighbor wedges
        in one src-keyed bucket (wedge (ctr; x, y), rank(x) < rank(y))."""
        import polars as pl

        df = pl.from_arrow(t).sort(["src", "dd", "dst"])
        srcv = df["src"].to_numpy()
        dstv = df["dst"].to_numpy()
        starts = np.flatnonzero(np.r_[True, srcv[1:] != srcv[:-1]])
        sizes = np.diff(np.append(starts, len(srcv)))
        ap, bp = [], []
        for m in np.unique(sizes[sizes >= 2]):
            ia, ib = np.triu_indices(int(m), k=1)
            base = starts[sizes == m]
            ap.append((base[:, None] + ia[None, :]).ravel())
            bp.append((base[:, None] + ib[None, :]).ravel())
        if not ap:
            z = np.array([], dtype=np.int64)
            return z, z, z
        ai, bi = np.concatenate(ap), np.concatenate(bp)
        return srcv[ai], dstv[ai], dstv[bi]

    n_edges = dir_edges.count()
    if n_edges <= TRI_BCAST_MAX:
        # broadcast closure: sorted packed directed-edge keys, probed
        # in-bucket; wedges never leave the bucket task
        from ..stages.clustering import _collect

        etbl = _collect(dir_edges, pa.schema([("src", pa.int64()),
                                              ("dst", pa.int64())]))
        pk = np.sort(np.asarray(etbl["src"], dtype=np.int64) * TRI_OFF
                     + np.asarray(etbl["dst"], dtype=np.int64))
        keys_ref = ray.put(pk)

        def close_bucket(t: pa.Table) -> pa.Table:
            if t.num_rows == 0 or "src" not in t.column_names:
                return pa.table({"node": pa.array([], type=pa.int64()),
                                 "one": pa.array([], type=pa.int64())})
            ctr, x, y = _wedge_arrays(t)
            if not len(ctr):
                return pa.table({"node": pa.array([], type=pa.int64()),
                                 "one": pa.array([], type=pa.int64())})
            keys = ray.get(keys_ref)
            wk = x * TRI_OFF + y
            pos = np.searchsorted(keys, wk)
            pos[pos == len(keys)] = 0
            hit = keys[pos] == wk
            nodes = np.concatenate([ctr[hit], x[hit], y[hit]])
            uniq, cnt = np.unique(nodes, return_counts=True)
            return pa.table({"node": pa.array(uniq),
                             "one": pa.array(cnt.astype(np.int64))})

        partials = hash_exchange(dir_edges, "src", close_bucket,
                                 num_buckets=32)
    else:    # semi-join closure: same results, wedge-sized exchange
        def wedges_bucket(t: pa.Table) -> pa.Table:
            if t.num_rows == 0 or "src" not in t.column_names:
                return pa.table({"wk": pa.array([], type=pa.int64()),
                                 "ctr": pa.array([], type=pa.int64())})
            ctr, x, y = _wedge_arrays(t)
            return pa.table({"wk": pa.array(x * TRI_OFF + y),
                             "ctr": pa.array(ctr)})

        wedges = hash_exchange(dir_edges, "src", wedges_bucket, num_buckets=32)
        probe = dir_edges.map_batches(
            lambda t: pa.table({"wk": pa.array(
                np.asarray(t["src"], dtype=np.int64) * TRI_OFF
                + np.asarray(t["dst"], dtype=np.int64))}),
            batch_format="pyarrow")
        tris = hash_join(wedges, probe, "wk", num_buckets=32, how="semi")

        def explode_nodes(t: pa.Table) -> pa.Table:
            wk = np.asarray(t["wk"], dtype=np.int64)
            ctr = np.asarray(t["ctr"], dtype=np.int64)
            return pa.table({
                "node": pa.array(np.concatenate([ctr, wk // TRI_OFF,
                                                 wk % TRI_OFF])),
                "one": pa.array(np.ones(3 * len(wk), dtype=np.int64)),
            })

        partials = tris.map_batches(explode_nodes, batch_format="pyarrow")

    counts = bucketed_sum(partials, ["node"], "one", "tri")
    return counts.map_batches(
        lambda t: pa.table({"node_id": t["node"], "tri": t["tri"]}),
        batch_format="pyarrow")


SQL_Q84 = """
WITH pp AS (
  SELECT DISTINCT l1.l_partkey AS a, l2.l_partkey AS b
  FROM lineitem l1 JOIN lineitem l2
    ON l1.l_orderkey = l2.l_orderkey AND l1.l_partkey < l2.l_partkey
),
tri AS (
  SELECT e1.a AS x, e1.b AS y, e2.b AS z
  FROM pp e1
  JOIN pp e2 ON e2.a = e1.b
  JOIN pp e3 ON e3.a = e1.a AND e3.b = e2.b
),
nodes AS (
  SELECT x AS node FROM tri
  UNION ALL SELECT y FROM tri
  UNION ALL SELECT z FROM tri
)
SELECT CAST(node AS BIGINT) AS node_id, CAST(count(*) AS BIGINT) AS tri
FROM nodes GROUP BY node
"""


# --- q89: k-core peeling (bounded-round graph degeneracy filter) -----------

KCORE_K = 70        # degree floor, mirrored into the SQL twin (peels a
#                     nontrivial fringe at BOTH test scales without
#                     collapsing the graph: ~15% at sf0.001, ~1.5% at
#                     sf0.01 before cascade)
KCORE_ROUNDS = 3    # fixed peel rounds → SQL-expressible as a CTE chain


def q89_kcore(sf_dir: str):
    """KCORE_ROUNDS rounds of k-core peeling (k = KCORE_K) on the part
    co-purchase graph: each round computes exact degrees (one O(nodes)
    ``bucketed_sum``), keeps nodes with deg ≥ k, and induces the subgraph
    with two SEMI hash_joins (src side, then dst side — semi ships only
    the kept-node key column).  Output = surviving nodes with their
    residual degree.  Fixing the round count keeps the operator
    oracle-pairable (the same chained-CTE device as q68's PageRank);
    run to fixpoint in production by looping until the edge count stops
    changing — each round is the same three skinny exchanges.  At q68's
    scale the upgrade path is identical: pin the edge shards once
    (``PinnedShards``) and ship only the per-round peeled-node deltas."""
    from ..functions.grouping import bucketed_sum, hash_join

    edges = _copurchase_edges(sf_dir).materialize()
    cur = edges.map_batches(
        lambda t: pa.table({"s": t["a"], "d": t["b"]}),
        batch_format="pyarrow",
    ).union(edges.map_batches(
        lambda t: pa.table({"s": t["b"], "d": t["a"]}),
        batch_format="pyarrow"))

    def _deg(ds):
        return bucketed_sum(
            ds.map_batches(
                lambda t: pa.table({
                    "s": t["s"],
                    "one": pa.array(np.ones(t.num_rows, dtype=np.int64))}),
                batch_format="pyarrow"),
            ["s"], "one", "deg")

    for _ in range(KCORE_ROUNDS):
        # materialize the O(nodes) kept set: both semi joins below
        # stream it
        kept = _deg(cur).filter(expr=f"deg >= {KCORE_K}").materialize()
        kept_s = kept.map_batches(lambda t: pa.table({"s": t["s"]}),
                                  batch_format="pyarrow")
        kept_d = kept.map_batches(lambda t: pa.table({"d": t["s"]}),
                                  batch_format="pyarrow")
        cur = hash_join(cur, kept_s, "s", num_buckets=16, how="semi")
        cur = hash_join(cur, kept_d, "d", num_buckets=16,
                        how="semi").materialize()

    def final_fmt(t: pa.Table) -> pa.Table:
        # a fully-peeled graph yields zero-column empty blocks — keep
        # the output schema stable (CLAUDE.md empty-block contract)
        if t.num_rows == 0 or "s" not in t.column_names:
            return pa.table({"node_id": pa.array([], type=pa.int64()),
                             "deg_res": pa.array([], type=pa.int64())})
        return pa.table({"node_id": t["s"], "deg_res": t["deg"]})

    return _deg(cur).map_batches(final_fmt, batch_format="pyarrow")


def _kcore_round_sql(r: int) -> str:
    return f"""
d{r} AS (SELECT s, count(*) AS d FROM e{r - 1} GROUP BY s),
n{r} AS (SELECT s FROM d{r} WHERE d >= {KCORE_K}),
e{r} AS (SELECT e.s, e.d FROM e{r - 1} e
         JOIN n{r} x ON e.s = x.s JOIN n{r} y ON e.d = y.s)"""


SQL_Q89 = f"""
WITH pp AS (
  SELECT DISTINCT l1.l_partkey AS a, l2.l_partkey AS b
  FROM lineitem l1 JOIN lineitem l2
    ON l1.l_orderkey = l2.l_orderkey AND l1.l_partkey < l2.l_partkey
),
e0 AS (SELECT a AS s, b AS d FROM pp UNION ALL SELECT b, a FROM pp),
{",".join(_kcore_round_sql(r) for r in range(1, KCORE_ROUNDS + 1))}
SELECT CAST(s AS BIGINT) AS node_id, CAST(count(*) AS BIGINT) AS deg_res
FROM e{KCORE_ROUNDS} GROUP BY s
"""


BFS_ROUNDS = 3       # fixed frontier expansions → CTE-chain twin
BFS_SEED_MOD = 100   # seeds: customers with c_custkey % 100 == 1

_EMPTY_BFS_N = pa.table({"n": pa.array([], type=pa.int64())})


def _bfs_state(tbl: pa.Table | None):
    """PinnedShards init for BFS: one shard's (src, dst) edges, deduped
    locally (src-routing co-locates every copy of a src's edges)."""
    import polars as pl

    if tbl is None:
        return None
    return pl.from_arrow(tbl).unique(subset=["src", "dst"])


def _bfs_neighbors(state, probe: pa.Table | None) -> pa.Table:
    """One expansion on one shard: frontier rows ⋈ pinned edges →
    this shard's DISTINCT reached neighbors (skinny O(dst) rows)."""
    import polars as pl

    if state is None or probe is None:
        return _EMPTY_BFS_N
    f = pl.from_arrow(probe)
    return (state.join(f, on="src", how="semi")
            .select(pl.col("dst").alias("n")).unique().to_arrow())


def q106_bfs(sf_dir: str):
    """Bounded-round breadth-first search over the bipartite
    customer↔part purchase graph (part ids offset by PR_PART_OFF):
    hop distance from a deterministic seed set of customers — the
    reachability / neighborhood-expansion primitive (fraud rings,
    recommendation halos) the PageRank/k-core family doesn't cover.

    The edge topology is STATIC across rounds — exactly the
    ``PinnedShards`` case (unlike q89's k-core, whose graph mutates
    each peel) — so the edges pin ONCE into src-routed actor shards
    (q68's intake) and each round ships only O(frontier) rows: route
    the frontier to the shards, per-shard distinct neighbors in-actor,
    one global distinct, one ANTI `hash_join` against the visited set.
    Frontier and visited stay O(nodes) datasets, never
    driver-collected.  Fixed `BFS_ROUNDS` keeps it oracle-pairable via
    the chained-CTE device (q68/q89); production runs to an empty
    frontier."""
    import pyarrow.compute as pc

    from ..functions.grouping import dedup_keep_first, hash_join
    from ..functions.pinned import PinnedShards
    from .relational import _t

    orders = _t(sf_dir, "orders", ["o_orderkey", "o_custkey"]).map_batches(
        lambda t: pa.table({"ok": t["o_orderkey"],
                            "c": pc.cast(t["o_custkey"], pa.int64())}),
        batch_format="pyarrow")
    li = _t(sf_dir, "lineitem", ["l_orderkey", "l_partkey"]).map_batches(
        lambda t: pa.table({
            "ok": t["l_orderkey"],
            "p": pc.add(pc.cast(t["l_partkey"], pa.int64()), PR_PART_OFF),
        }),
        batch_format="pyarrow")

    def pack(t: pa.Table) -> pa.Table:
        c = np.asarray(t["c"], dtype=np.int64)
        p = np.asarray(t["p"], dtype=np.int64)
        _, first = np.unique(c * 100_000_000 + p, return_index=True)
        return pa.table({"c": pa.array(c[first], type=pa.int64()),
                         "p": pa.array(p[first], type=pa.int64())})

    pairs = hash_join(li, orders, "ok", post=pack)
    edges = pairs.map_batches(
        lambda t: pa.table({"src": t["c"], "dst": t["p"]}),
        batch_format="pyarrow",
    ).union(pairs.map_batches(
        lambda t: pa.table({"src": t["p"], "dst": t["c"]}),
        batch_format="pyarrow"))
    shards = PinnedShards(edges, "src", _bfs_state, n_shards=PR_SHARDS)

    def seed_f(t: pa.Table) -> pa.Table:
        n = np.asarray(t["c_custkey"], dtype=np.int64)
        return pa.table({"n": pa.array(n[n % BFS_SEED_MOD == 1])})

    seeds = _t(sf_dir, "customer", ["c_custkey"]).map_batches(
        seed_f, batch_format="pyarrow").materialize()

    def _n_schema(t: pa.Table, col: str) -> pa.Table:
        if t.num_rows == 0 or col not in t.column_names:
            return pa.table({"n": pa.array([], type=pa.int64())})
        return pa.table({"n": t[col]})

    levels = [seeds]
    visited = seeds
    frontier = seeds
    for _ in range(BFS_ROUNDS):
        fr_s = frontier.map_batches(lambda t: _n_schema(t, "n")
                                    .rename_columns(["src"]),
                                    batch_format="pyarrow")
        reached = shards.map(fr_s, _bfs_neighbors).materialize()
        nb = dedup_keep_first(
            reached.map_batches(lambda t: _n_schema(t, "n"),
                                batch_format="pyarrow"), "n")
        frontier = hash_join(nb, visited, "n", num_buckets=16,
                             how="anti").materialize()
        visited = visited.union(frontier).materialize()
        levels.append(frontier)

    out = None
    for dist, lvl in enumerate(levels):
        tagged = lvl.map_batches(
            lambda t, dist=dist: _n_schema(t, "n").append_column(
                "dist", pa.array(np.full(
                    len(_n_schema(t, "n")), dist, dtype=np.int64))),
            batch_format="pyarrow")
        out = tagged if out is None else out.union(tagged)
    return out


def _bfs_round_sql(r: int) -> str:
    not_in = " AND ".join(
        f"d NOT IN (SELECT n FROM d{k})" for k in range(r))
    return f"""
d{r} AS (
  SELECT DISTINCT d AS n FROM ed JOIN d{r - 1} f ON ed.s = f.n
  WHERE {not_in}
)"""


SQL_Q106 = f"""
WITH e AS (
  SELECT DISTINCT o_custkey AS c, l_partkey + {PR_PART_OFF} AS p
  FROM orders JOIN lineitem ON o_orderkey = l_orderkey
),
ed AS (SELECT c AS s, p AS d FROM e UNION ALL SELECT p, c FROM e),
d0 AS (
  SELECT CAST(c_custkey AS BIGINT) AS n FROM customer
  WHERE c_custkey % {BFS_SEED_MOD} = 1
),
{",".join(_bfs_round_sql(r) for r in range(1, BFS_ROUNDS + 1))}
{" UNION ALL ".join(
    f"SELECT n, CAST({r} AS BIGINT) AS dist FROM d{r}"
    for r in range(BFS_ROUNDS + 1))}
"""


# --- q85: distributed skyline (Pareto-dominance filter) --------------------

def _skyline_kernel(t: pa.Table) -> pa.Table:
    """Exact 2-D skyline of one batch (minimize size AND cents): a row
    is dominated iff some other row is ≤ in both dims and < in one.
    One lexsort + per-size-group prefix minima — no pairwise work.
    Monotone: the global skyline is a subset of every batch's local
    skyline, which is what makes the two-phase plan exact."""
    if t.num_rows == 0:
        return t
    s = np.asarray(t["size"], dtype=np.int64)
    p = np.asarray(t["cents"], dtype=np.int64)
    order = np.lexsort((p, s))
    ss, pp = s[order], p[order]
    starts = np.flatnonzero(np.r_[True, ss[1:] != ss[:-1]])
    gmin = pp[starts]                       # sorted in-group → first = min
    cmin_le = np.minimum.accumulate(gmin)   # min cents over sizes ≤ this
    cmin_lt = np.r_[np.int64(1) << 62, cmin_le[:-1]]  # … over sizes <
    gidx = np.repeat(np.arange(len(starts)),
                     np.diff(np.append(starts, len(ss))))
    dom = (cmin_lt[gidx] <= pp) | (cmin_le[gidx] < pp)
    return t.take(pa.array(np.sort(order[~dom])))


def q85_skyline(sf_dir: str):
    """Skyline (Pareto frontier) of parts minimizing (size, price): the
    classic two-phase distributed plan — a vectorized per-batch local
    skyline (dominance is monotone, so the union of local skylines
    contains the global one), then one final pass over the tiny
    candidate union.  Zero shuffles of the input; the only data
    movement is the O(frontier) candidate set.  A d-dimensional or
    adversarially-large frontier would swap the final single-block pass
    for a tree of the same kernel (the G6 tree-reduce shape).

    Ties survive: two parts with identical (size, cents) do not
    strictly dominate each other — both engines keep both."""
    import pyarrow.compute as pc

    from .relational import _t

    parts = _t(sf_dir, "part",
               ["p_partkey", "p_size", "p_retailprice"]).map_batches(
        lambda t: pa.table({
            "part_id": pc.cast(t["p_partkey"], pa.int64()),
            "size": pc.cast(t["p_size"], pa.int64()),
            "cents": _cents(t["p_retailprice"]),
        }),
        batch_format="pyarrow")
    local = parts.map_batches(_skyline_kernel, batch_format="pyarrow")
    return local.repartition(1).map_batches(
        _skyline_kernel, batch_format="pyarrow", batch_size=None)


SQL_Q85 = """
WITH p AS (
  SELECT CAST(p_partkey AS BIGINT) AS part_id,
         CAST(p_size AS BIGINT) AS size,
         CAST(FLOOR(p_retailprice * 100 + 0.5) AS BIGINT) AS cents
  FROM part
)
SELECT part_id, size, cents
FROM p o
WHERE NOT EXISTS (
  SELECT 1 FROM p q
  WHERE q.size <= o.size AND q.cents <= o.cents
    AND (q.size < o.size OR q.cents < o.cents)
)
"""


# --- q129: item-item collaborative filtering ---------------------------------

CF_TOP_K = 10
CF_SCALE = 100_000_000     # e8 fixed point for the squared-cosine score


def q129_item_similarity(sf_dir: str):
    """Item-item collaborative filtering over the co-purchase graph —
    the classic recommender candidate generator (Sarwar et al. 2001 /
    Amazon item-to-item): for every part, the top-K most-similar parts
    by co-occurrence cosine ``n_ab / sqrt(n_a·n_b)`` over distinct
    orders.  Ranking uses the exact-integer SQUARED cosine
    ``n_ab²·1e8 // (n_a·n_b)`` — monotone in the cosine, so no
    sqrt/float ever crosses engines (the q96 PMI-positivity device).

    Shape: one l_orderkey exchange emits KIND-TAGGED partials (the q91
    device) — per-order distinct-part pair keys and per-order item
    keys — so pair counts and item popularities share ONE co-location
    pass; one (kind, key) sum exchange; two bucketed hash_joins attach
    the endpoint popularities to the O(pairs) table (materialized
    first — the q75/q82 schema-fetch guard); both directions then feed
    ``topk_per_group``, whose combiner forwards at most K rows per item
    per batch.  No stage ever sees more than the distinct pair space
    the orders actually witness."""
    import polars as pl

    from ..functions.grouping import (
        bucketed_sum_multi,
        hash_exchange,
        hash_join,
        topk_per_group,
    )
    from .relational import _t

    li = _t(sf_dir, "lineitem", ["l_orderkey", "l_partkey"]).map_batches(
        lambda t: pa.table({"ok": t["l_orderkey"],
                            "p": pa.compute.cast(t["l_partkey"],
                                                 pa.int64())}),
        batch_format="pyarrow")

    tagged_empty = pa.table({"kind": pa.array([], type=pa.int64()),
                             "key": pa.array([], type=pa.int64()),
                             "n_p": pa.array([], type=pa.int64())})

    def order_partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "ok" not in t.column_names:
            return tagged_empty
        df = pl.from_arrow(t).unique(subset=["ok", "p"]).sort(["ok", "p"])
        okv = df["ok"].to_numpy()
        pv = df["p"].to_numpy()
        starts = np.flatnonzero(np.r_[True, okv[1:] != okv[:-1]])
        sizes = np.diff(np.append(starts, len(okv)))
        ap, bp = [], []
        for m in np.unique(sizes[sizes >= 2]):
            ia, ib = np.triu_indices(int(m), k=1)
            base = starts[sizes == m]
            ap.append((base[:, None] + ia[None, :]).ravel())
            bp.append((base[:, None] + ib[None, :]).ravel())
        pair_keys = (np.concatenate([pv[np.concatenate(ap)] * TRI_OFF
                                     + pv[np.concatenate(bp)]])
                     if ap else np.array([], dtype=np.int64))
        # per-bucket combine: several orders in this bucket may witness
        # the same pair / item — pre-sum before the keyed exchange
        pk_u, pk_n = np.unique(pair_keys, return_counts=True)
        it_u, it_n = np.unique(pv, return_counts=True)
        return pa.table({
            "kind": pa.array(np.r_[np.zeros(len(it_u), dtype=np.int64),
                                   np.ones(len(pk_u), dtype=np.int64)]),
            "key": pa.array(np.r_[it_u, pk_u], type=pa.int64()),
            "n_p": pa.array(np.r_[it_n, pk_n.astype(np.int64)],
                            type=pa.int64()),
        })

    tagged = hash_exchange(li, "ok", order_partials, num_buckets=32)
    sums = bucketed_sum_multi(tagged, ["kind", "key"], {"n_p": "n"},
                              num_buckets=32).materialize()

    items = sums.map_batches(
        lambda t: t.filter(pa.compute.equal(t["kind"], 0)),
        batch_format="pyarrow").map_batches(
        lambda t: pa.table({"p": t["key"], "pop": t["n"]}),
        batch_format="pyarrow").materialize()
    def split_pairs(t: pa.Table) -> pa.Table:
        sub = t.filter(pa.compute.equal(t["kind"], 1))
        k = np.asarray(sub["key"], dtype=np.int64)
        return pa.table({"a": pa.array(k // TRI_OFF, type=pa.int64()),
                         "b": pa.array(k % TRI_OFF, type=pa.int64()),
                         "n_ab": sub["n"]})

    pairs = sums.map_batches(split_pairs, batch_format="pyarrow")

    pop_a = items.map_batches(
        lambda t: pa.table({"a": t["p"], "pop_a": t["pop"]}),
        batch_format="pyarrow")
    pop_b = items.map_batches(
        lambda t: pa.table({"b": t["p"], "pop_b": t["pop"]}),
        batch_format="pyarrow")

    def score_and_mirror(t: pa.Table) -> pa.Table:
        a = np.asarray(t["a"], dtype=np.int64)
        b = np.asarray(t["b"], dtype=np.int64)
        n_ab = np.asarray(t["n_ab"], dtype=np.int64)
        sc = n_ab * n_ab * CF_SCALE // (np.asarray(t["pop_a"],
                                                   dtype=np.int64)
                                        * np.asarray(t["pop_b"],
                                                     dtype=np.int64))
        return pa.table({
            "item": pa.array(np.r_[a, b], type=pa.int64()),
            "nbr": pa.array(np.r_[b, a], type=pa.int64()),
            "n_ab": pa.array(np.r_[n_ab, n_ab], type=pa.int64()),
            "score_e8": pa.array(np.r_[sc, sc], type=pa.int64()),
        })

    with_a = hash_join(pairs, pop_a, "a", num_buckets=32).materialize()
    scored = hash_join(with_a, pop_b, "b", num_buckets=32,
                       post=score_and_mirror)
    return topk_per_group(scored, "item", "score_e8", CF_TOP_K,
                          tie_cols=["nbr"], num_buckets=32)


SQL_Q129 = f"""
WITH op AS (SELECT DISTINCT l_orderkey AS ok, CAST(l_partkey AS BIGINT) AS p
            FROM lineitem),
pc AS (SELECT x.p AS a, y.p AS b, CAST(count(*) AS BIGINT) AS n_ab
       FROM op x JOIN op y ON x.ok = y.ok AND x.p < y.p
       GROUP BY 1, 2),
ic AS (SELECT p, CAST(count(*) AS BIGINT) AS pop FROM op GROUP BY p),
dir AS (
  SELECT a AS item, b AS nbr, n_ab FROM pc
  UNION ALL
  SELECT b, a, n_ab FROM pc
),
sc AS (
  SELECT item, nbr, n_ab,
         CAST(n_ab * n_ab * {CF_SCALE} // (ia.pop * ib.pop) AS BIGINT)
             AS score_e8
  FROM dir JOIN ic ia ON ia.p = dir.item JOIN ic ib ON ib.p = dir.nbr
)
SELECT item, nbr, n_ab, score_e8 FROM sc
QUALIFY row_number() OVER (PARTITION BY item
                           ORDER BY score_e8 DESC, nbr) <= {CF_TOP_K}
"""


# --- q136: synchronous label-propagation communities -----------------------

LPA_ROUNDS = 3      # fixed synchronous rounds → CTE-chain oracle twin


def _lpa_state(tbl: pa.Table | None):
    """PinnedShards init for LPA: one shard's (n, m) directed edge rows,
    routed by m (the LABEL-holder end) so a round ships only labels."""
    import polars as pl

    if tbl is None:
        return None
    return pl.from_arrow(tbl)


_EMPTY_LPA_VOTES = pa.table({"n": pa.array([], type=pa.int64()),
                             "lbl": pa.array([], type=pa.int64()),
                             "c": pa.array([], type=pa.int64())})


def _lpa_votes(state, probe: pa.Table | None) -> pa.Table:
    """One LPA round on one shard: current labels (m, lbl) ⋈ pinned
    edges (n, m) → partial per-(n, lbl) vote counts — O(shard edges)
    rows in, O(distinct (n, lbl)) skinny rows out."""
    import polars as pl

    if state is None or probe is None or probe.num_rows == 0:
        return _EMPTY_LPA_VOTES
    p = pl.from_arrow(probe)
    return (state.join(p, on="m", how="inner")
            .group_by(["n", "lbl"])
            .agg(pl.len().cast(pl.Int64).alias("c"))
            .to_arrow())


def q136_label_propagation(sf_dir: str):
    """Synchronous label-propagation community detection (Raghavan et
    al. 2007) over the part co-purchase graph, made deterministic and
    oracle-pairable: every node starts labelled with its own id; each
    of LPA_ROUNDS synchronous rounds relabels every node with the MODE
    of its neighbors' labels plus ONE self-vote (the self-loop damping
    that stops 2-coloring oscillation on bipartite-ish subgraphs),
    ties broken toward the SMALLEST label — no sequential dependency,
    identical output under any partitioning (the q130-canopy
    determinism discipline applied to an iterative algorithm).

    Shape: the edge topology is static across rounds — exactly the
    ``PinnedShards`` case (q106 BFS / q68 PageRank intake): the
    symmetrized edges pin ONCE into m-routed actor shards, and each
    round ships only the O(nodes) label table — route labels to the
    shards, per-shard polars join + partial (n, lbl) vote counts
    in-actor, then ONE skinny exchange on n that sums counts, adds the
    self-vote, and takes the argmax per node with one lexsort.  Per
    round data motion is O(nodes + distinct votes), never O(edges).

    Reference analogue: the per-mention argmax over accumulated
    candidate scores (SURVEY §2 M13 / A7's closed-form message pass) —
    LPA is that same "adopt the locally-dominant label" reduction run
    over graph rounds instead of one scoring pass."""
    import polars as pl

    from ..functions.pinned import PinnedShards

    edges = _copurchase_edges(sf_dir).materialize()
    sym = edges.map_batches(
        lambda t: pa.table({"n": t["a"], "m": t["b"]}),
        batch_format="pyarrow",
    ).union(edges.map_batches(
        lambda t: pa.table({"n": t["b"], "m": t["a"]}),
        batch_format="pyarrow"))
    shards = PinnedShards(sym, "m", _lpa_state, n_shards=PR_SHARDS)

    def init_labels(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "n" not in t.column_names:
            return pa.table({"m": pa.array([], type=pa.int64()),
                             "lbl": pa.array([], type=pa.int64())})
        u = np.unique(np.asarray(t["n"], dtype=np.int64))
        return pa.table({"m": pa.array(u), "lbl": pa.array(u)})

    # label table keyed by the ROUTING column name m = node id
    labels = hash_exchange(sym, "n", init_labels, num_buckets=16).materialize()

    def pick_mode(t: pa.Table) -> pa.Table:
        """Sum partial vote counts and take the per-node argmax
        (count desc, label asc) — one lexsort, no Python per node."""
        empty = pa.table({"m": pa.array([], type=pa.int64()),
                          "lbl": pa.array([], type=pa.int64())})
        if t.num_rows == 0 or "n" not in t.column_names:
            return empty
        df = (pl.from_arrow(t).group_by(["n", "lbl"])
              .agg(pl.col("c").sum().alias("c")))
        n = df["n"].to_numpy()
        lbl = df["lbl"].to_numpy()
        c = df["c"].to_numpy()
        order = np.lexsort((lbl, -c, n))
        ns = n[order]
        starts = np.flatnonzero(np.r_[True, ns[1:] != ns[:-1]])
        return pa.table({"m": pa.array(ns[starts]),
                         "lbl": pa.array(lbl[order][starts])})

    for _ in range(LPA_ROUNDS):
        votes = shards.map(labels, _lpa_votes)
        self_votes = labels.map_batches(
            lambda t: pa.table({
                "n": t["m"], "lbl": t["lbl"],
                "c": pa.array(np.ones(t.num_rows, dtype=np.int64))}),
            batch_format="pyarrow")
        labels = hash_exchange(votes.union(self_votes), "n", pick_mode,
                               num_buckets=16).materialize()

    return labels.map_batches(
        lambda t: pa.table({"node_id": t["m"], "community": t["lbl"]}),
        batch_format="pyarrow")


def _lpa_round_sql(r: int) -> str:
    return f"""
v{r} AS (
  SELECT s.n AS node, l.lbl, CAST(count(*) AS BIGINT) AS c
  FROM sym s JOIN l{r - 1} l ON l.node = s.m GROUP BY 1, 2
  UNION ALL
  SELECT node, lbl, 1 FROM l{r - 1}
),
c{r} AS (SELECT node, lbl, SUM(c) AS c FROM v{r} GROUP BY node, lbl),
l{r} AS (
  SELECT node, lbl FROM (
    SELECT node, lbl,
           row_number() OVER (PARTITION BY node ORDER BY c DESC, lbl) AS rn
    FROM c{r}) WHERE rn = 1
)"""


SQL_Q136 = f"""
WITH pp AS (
  SELECT DISTINCT l1.l_partkey AS a, l2.l_partkey AS b
  FROM lineitem l1 JOIN lineitem l2
    ON l1.l_orderkey = l2.l_orderkey AND l1.l_partkey < l2.l_partkey
),
sym AS (SELECT a AS n, b AS m FROM pp UNION ALL SELECT b, a FROM pp),
l0 AS (SELECT DISTINCT n AS node, n AS lbl FROM sym),
{",".join(_lpa_round_sql(r) for r in range(1, LPA_ROUNDS + 1))}
SELECT CAST(node AS BIGINT) AS node_id, CAST(lbl AS BIGINT) AS community
FROM l{LPA_ROUNDS}
"""


# --- q137: resource-allocation link prediction ------------------------------

RA_CENTER_CAP = 1000   # block-purging cap on wedge centers: a center of
#                        degree d emits d(d-1)/2 weight-(1e6//d) pairs;
#                        beyond the cap its per-pair contribution is
#                        ≤ 1e6/cap anyway (mirrored in the SQL twin)
RA_TOP = 100


def q137_link_prediction(sf_dir: str):
    """Resource-allocation link prediction (Zhou/Lü/Zhang 2009) over
    the part co-purchase graph: for every non-adjacent pair (x, y),
    score Σ_w 1/deg(w) over their common neighbors w — the link-
    prediction index that outperforms Adamic-Adar in their benchmark
    while staying EXACT in integers (weight = 1_000_000 // deg, floor
    division identical in numpy and DuckDB on non-negative operands,
    so no log() float seam).  Top RA_TOP predicted edges by (score
    desc, pair asc).

    Shape: ONE fused ``rekey_exchange`` — co-locate by wedge center
    (deg is simply the local group size, never a separate degree
    join), per center-bucket the grouped-triu idiom (q84) emits
    (packed pair, int32 weight) rows batched by group size, and the
    SAME task splits them by the pair key in-heap so the Σ deg² ≈
    150M-row wedge stream (the operator's inherent volume) crosses
    the object store exactly ONCE; the pk-side bucket fn fuses the
    exact int64 sum (radix sort + reduceat), the existing-edge ANTI
    filter (edge keys broadcast once as a sorted packed array and
    probed with searchsorted — q84's closure device; a graph whose
    edges outgrow TRI_BCAST_MAX swaps in the anti hash_join), and an
    EXACT per-bucket top-RA_TOP partial (each pk lives in exactly one
    bucket) — the global sort only ever sees O(RA_TOP × buckets)
    rows.  Centers above RA_CENTER_CAP are purged (standard
    meta-blocking block purging, q118) — their per-pair weight is
    bounded by 1e6/cap, and the cap is mirrored in the twin so both
    engines score the identical wedge set.

    Reference analogue: candidate augmentation from co-occurrence
    statistics (SURVEY §2 M9 / A4's CocitationMap) — RA is that same
    "two hops through a shared witness" candidate generator with a
    principled witness weighting."""
    import polars as pl

    from ..functions.grouping import rekey_exchange
    from ..stages.clustering import _collect

    edges = _copurchase_edges(sf_dir).materialize()
    sym = edges.map_batches(
        lambda t: pa.table({"n": t["a"], "m": t["b"]}),
        batch_format="pyarrow",
    ).union(edges.map_batches(
        lambda t: pa.table({"n": t["b"], "m": t["a"]}),
        batch_format="pyarrow"))

    empty = pa.table({"pk": pa.array([], type=pa.int64()),
                      "ra_e6": pa.array([], type=pa.int64())})

    def wedge_weights(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "n" not in t.column_names:
            return pa.table({"pk": pa.array([], type=pa.int64()),
                             "w": pa.array([], type=pa.int32())})
        df = pl.from_arrow(t).sort(["n", "m"])
        nv = df["n"].to_numpy()
        mv = df["m"].to_numpy()
        starts = np.flatnonzero(np.r_[True, nv[1:] != nv[:-1]])
        sizes = np.diff(np.append(starts, len(nv)))
        pk_l, w_l = [], []
        for d in np.unique(sizes):
            if d < 2 or d > RA_CENTER_CAP:
                continue
            ia, ib = np.triu_indices(int(d), k=1)
            base = starts[sizes == d]
            ai = (base[:, None] + ia[None, :]).ravel()
            bi = (base[:, None] + ib[None, :]).ravel()
            pk_l.append(mv[ai] * TRI_OFF + mv[bi])   # in-group sorted → x<y
            w_l.append(np.full(len(ai), 1_000_000 // int(d),
                               dtype=np.int32))
        if not pk_l:
            return pa.table({"pk": pa.array([], type=pa.int64()),
                             "w": pa.array([], type=pa.int32())})
        return pa.table({"pk": pa.array(np.concatenate(pk_l)),
                         "w": pa.array(np.concatenate(w_l))})

    def _sum_by_pk(t: pa.Table):
        """(unique pk, exact int64 Σw) of one pk-keyed bucket — radix
        sort + reduceat; each pk lives in exactly ONE bucket."""
        pk = np.asarray(t["pk"], dtype=np.int64)
        order = np.argsort(pk, kind="stable")       # radix on int64
        pks = pk[order]
        ws = np.asarray(t["w"], dtype=np.int64)[order]
        starts = np.flatnonzero(np.r_[True, pks[1:] != pks[:-1]])
        return pks[starts], np.add.reduceat(ws, starts)

    def _top_partial(upk, s):
        if len(upk) > RA_TOP:                     # exact partial: each pk
            sel = np.lexsort((upk, -s))[:RA_TOP]  # lives in ONE bucket
            upk, s = upk[sel], s[sel]
        return pa.table({"pk": pa.array(upk), "ra_e6": pa.array(s)})

    n_edges = edges.count()
    if n_edges <= TRI_BCAST_MAX:
        # broadcast anti-filter: sorted packed edge keys shipped once
        # (`ray.put`), probed with searchsorted inside the pk bucket —
        # the q84 closure device
        etbl = _collect(edges, pa.schema([("a", pa.int64()),
                                          ("b", pa.int64())]))
        edge_keys = np.sort(
            np.asarray(etbl["a"], dtype=np.int64) * TRI_OFF
            + np.asarray(etbl["b"], dtype=np.int64))
        keys_ref = ray.put(edge_keys)

        def sum_filter_top(t: pa.Table) -> pa.Table:
            if t.num_rows == 0 or "pk" not in t.column_names:
                return empty
            upk, s = _sum_by_pk(t)
            keys = ray.get(keys_ref)
            pos = np.searchsorted(keys, upk)
            pos[pos == len(keys)] = 0
            new = (keys[pos] != upk if len(keys)
                   else np.ones(len(upk), bool))
            return _top_partial(upk[new], s[new])

        partial = rekey_exchange(sym, "n", wedge_weights, "pk",
                                 sum_filter_top, 32, 32)
    else:
        # scale path (edges > TRI_BCAST_MAX): never driver-collect the
        # edge set — sum per pk in the fused exchange, then remove
        # existing edges with an ANTI hash_join on the packed pair key
        # (skinny probe: only the int64 pk column rides the exchange);
        # the per-bucket exact top-RA_TOP partial moves into the join's
        # fused `post` (pks stay unique-per-bucket after the anti join)
        from ..functions.grouping import hash_join

        def sum_pk(t: pa.Table) -> pa.Table:
            if t.num_rows == 0 or "pk" not in t.column_names:
                return empty
            upk, s = _sum_by_pk(t)
            return pa.table({"pk": pa.array(upk), "ra_e6": pa.array(s)})

        summed = rekey_exchange(sym, "n", wedge_weights, "pk",
                                sum_pk, 32, 32)
        probe = edges.map_batches(
            lambda t: pa.table({"pk": pa.array(
                np.asarray(t["a"], dtype=np.int64) * TRI_OFF
                + np.asarray(t["b"], dtype=np.int64))}),
            batch_format="pyarrow")

        def top_post(t: pa.Table) -> pa.Table:
            if t.num_rows == 0 or "pk" not in t.column_names:
                return empty
            return _top_partial(np.asarray(t["pk"], dtype=np.int64),
                                np.asarray(t["ra_e6"], dtype=np.int64))

        partial = hash_join(summed, probe, "pk", num_buckets=32,
                            how="anti", post=top_post)
    top = partial.sort(["ra_e6", "pk"],
                       descending=[True, False]).limit(RA_TOP)
    return top.map_batches(
        lambda t: pa.table({
            "a": pa.array(np.asarray(t["pk"], dtype=np.int64) // TRI_OFF),
            "b": pa.array(np.asarray(t["pk"], dtype=np.int64) % TRI_OFF),
            "ra_e6": t["ra_e6"]}),
        batch_format="pyarrow")


SQL_Q137 = f"""
WITH pp AS (
  SELECT DISTINCT l1.l_partkey AS a, l2.l_partkey AS b
  FROM lineitem l1 JOIN lineitem l2
    ON l1.l_orderkey = l2.l_orderkey AND l1.l_partkey < l2.l_partkey
),
sym AS (SELECT a AS n, b AS m FROM pp UNION ALL SELECT b, a FROM pp),
deg AS (SELECT n, CAST(count(*) AS BIGINT) AS d FROM sym GROUP BY n),
ra AS (
  SELECT s1.m AS x, s2.m AS y, SUM(1000000 // g.d) AS ra_e6
  FROM sym s1
  JOIN sym s2 ON s1.n = s2.n AND s1.m < s2.m
  JOIN deg g ON g.n = s1.n
  WHERE g.d <= {RA_CENTER_CAP}
  GROUP BY 1, 2
)
SELECT CAST(x AS BIGINT) AS a, CAST(y AS BIGINT) AS b,
       CAST(ra_e6 AS BIGINT) AS ra_e6
FROM ra
WHERE NOT EXISTS (SELECT 1 FROM pp WHERE pp.a = ra.x AND pp.b = ra.y)
ORDER BY ra_e6 DESC, a, b LIMIT {RA_TOP}
"""


# --- q141: HITS hubs/authorities on the part-supplier bipartite graph ------

_HITS_OFF = 1 << 32


def q141_hits(sf_dir: str):
    """HITS hubs/authorities (Kleinberg 1999, the public algorithm) over
    the DISTINCT part–supplier bipartite edge set, in the exact
    integer path-counting form: with h0 ≡ 1, a1[s] = deg(s),
    h1[p] = Σ_{s∈N(p)} a1[s], a2[s] = Σ_{p∈N(s)} h1[p], h2[p] = Σ a2 —
    unnormalized scores are path counts, so every value is an exact
    int64 and the SQL twin (three join+groupby rounds) matches
    hash-exactly; the production variant at more rounds would normalize
    in DOUBLE per round (overflow), traded away here for oracle
    exactness.

    Shape: edge dedup is one packed-key exchange (distinct (p,s) ≪
    lineitem); each hop is ONE bucketed join exchange with the
    per-target partial sum FUSED into the bucket task (``post=``) so
    the joined rows never cross the object store, plus one O(nodes)
    skinny regroup.  Score tables are O(nodes) rows — never broadcast,
    never driver-materialized, so billion-node graphs stream.

    Reference analog: the co-citation neighborhood scoring family
    (SURVEY §2 A4/J4) generalized to the mutual-reinforcement ranking
    the IR literature uses."""
    import pyarrow.compute as pc

    from ..functions.grouping import (bucketed_sum, hash_exchange,
                                      hash_join)
    from .relational import _t

    li = _t(sf_dir, "lineitem", ["l_partkey", "l_suppkey"]).map_batches(
        lambda t: pa.table({"pk": pc.add(
            pc.multiply(pc.cast(t["l_partkey"], pa.int64()), _HITS_OFF),
            pc.cast(t["l_suppkey"], pa.int64()))}),
        batch_format="pyarrow")

    def uniq(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "pk" not in t.column_names:
            return pa.table({"p": pa.array([], type=pa.int64()),
                             "s": pa.array([], type=pa.int64())})
        pk = np.unique(np.asarray(t["pk"], dtype=np.int64))
        return pa.table({"p": pa.array(pk // _HITS_OFF),
                         "s": pa.array(pk % _HITS_OFF)})

    dedup = li.map_batches(
        lambda t: (pa.table({"pk": pa.array(
            np.unique(np.asarray(t["pk"], dtype=np.int64)))})
            if t.num_rows and "pk" in t.column_names
            else pa.table({"pk": pa.array([], type=pa.int64())})),
        batch_format="pyarrow")
    edges = hash_exchange(dedup, "pk", uniq, num_buckets=16).materialize()

    def count_s(t: pa.Table) -> pa.Table:
        import polars as pl

        if t.num_rows == 0 or "s" not in t.column_names:
            return pa.table({"s": pa.array([], type=pa.int64()),
                             "v": pa.array([], type=pa.int64())})
        return (pl.from_arrow(t).group_by("s")
                .agg(v=pl.len().cast(pl.Int64)).to_arrow())

    a1 = hash_exchange(edges, "s", count_s, num_buckets=16)

    def _hop(scores, from_col: str, to_col: str):
        def part(t: pa.Table) -> pa.Table:
            import polars as pl

            if t.num_rows == 0 or to_col not in t.column_names:
                return pa.table({to_col: pa.array([], type=pa.int64()),
                                 "vp": pa.array([], type=pa.int64())})
            return (pl.from_arrow(t).group_by(to_col)
                    .agg(vp=pl.col("v").sum()).to_arrow())

        joined = hash_join(edges, scores, on=from_col, num_buckets=16,
                           post=part)
        return bucketed_sum(joined, [to_col], "vp", "v", num_buckets=16)

    h1 = _hop(a1, "s", "p").materialize()
    a2 = _hop(h1, "p", "s").materialize()
    h2 = _hop(a2, "s", "p")

    def tag(node_type: str, col: str):
        def f(t: pa.Table) -> pa.Table:
            _OUT = pa.schema([("node_type", pa.string()),
                              ("node_id", pa.int64()),
                              ("score", pa.int64())])
            if t.num_rows == 0 or col not in t.column_names:
                return _OUT.empty_table()
            return pa.table({
                "node_type": pa.array([node_type] * t.num_rows),
                "node_id": t[col].combine_chunks().cast(pa.int64()),
                "score": t["v"].combine_chunks().cast(pa.int64()),
            })

        return f

    parts_side = h2.map_batches(tag("part", "p"), batch_format="pyarrow")
    supp_side = a2.map_batches(tag("supplier", "s"), batch_format="pyarrow")
    return parts_side.union(supp_side)


# --- q148: degree assortativity of the co-purchase graph --------------------

def q148_degree_assortativity(sf_dir: str):
    """Degree assortativity (Newman 2002) of the part co-purchase
    graph: the Pearson correlation of (deg(u), deg(v)) over all
    DIRECTED edges — do high-degree parts co-purchase with high-degree
    parts?  Reduces to exact int64 sufficient statistics (n, Σx, Σy,
    Σxy, Σx², Σy² over directed edges; symmetry makes Σx = Σy, computed
    independently anyway), finished with the q140 mirrored float
    expression tree → e4 hash-exact.

    Shape: degrees from ONE node-keyed exchange over the symmetrized
    edge list (count = local group size); two bucketed ``hash_join``s
    attach deg(u) then deg(v) with the per-batch sufficient-statistic
    partial FUSED into the second join's bucket task (``post=``) — the
    widest (u, v, dx, dy) rows never cross the object store; a final
    O(1)-row sum.  No driver materialization of nodes or edges."""
    import polars as pl

    from ..functions.grouping import bucketed_sum_multi, hash_exchange, \
        hash_join

    edges = _copurchase_edges(sf_dir).materialize()
    sym = edges.map_batches(
        lambda t: pa.table({"n": t["a"], "m": t["b"]}),
        batch_format="pyarrow",
    ).union(edges.map_batches(
        lambda t: pa.table({"n": t["b"], "m": t["a"]}),
        batch_format="pyarrow")).materialize()

    def deg_fn(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "n" not in t.column_names:
            return pa.table({"n": pa.array([], type=pa.int64()),
                             "dx": pa.array([], type=pa.int64())})
        return (pl.from_arrow(t).group_by("n")
                .agg(dx=pl.len().cast(pl.Int64)).to_arrow())

    deg_x = hash_exchange(sym, "n", deg_fn, num_buckets=16)
    deg_y = deg_x.map_batches(
        lambda t: pa.table({"m": t["n"], "dy": t["dx"]}),
        batch_format="pyarrow")

    with_dx = hash_join(sym, deg_x, on="n", num_buckets=16)

    _PART = pa.schema([("k", pa.int64())]
                      + [(c, pa.int64())
                         for c in ("n_e", "sx", "sy", "sxy", "sxx", "syy")])

    def stat_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "dx" not in t.column_names:
            return _PART.empty_table()
        x = np.asarray(t["dx"], dtype=np.int64)
        y = np.asarray(t["dy"], dtype=np.int64)
        return pa.table({
            "k": pa.array([0], type=pa.int64()),
            "n_e": pa.array([t.num_rows], type=pa.int64()),
            "sx": pa.array([int(x.sum())], type=pa.int64()),
            "sy": pa.array([int(y.sum())], type=pa.int64()),
            "sxy": pa.array([int((x * y).sum())], type=pa.int64()),
            "sxx": pa.array([int((x * x).sum())], type=pa.int64()),
            "syy": pa.array([int((y * y).sum())], type=pa.int64()),
        })

    parts = hash_join(with_dx, deg_y, on="m", num_buckets=16,
                      post=stat_partial)
    sums = bucketed_sum_multi(
        parts, ["k"],
        {c: c for c in ("n_e", "sx", "sy", "sxy", "sxx", "syy")},
        num_buckets=1)

    def finish(t: pa.Table) -> pa.Table:
        _OUT = pa.schema([("n_edges_directed", pa.int64()),
                          ("assort_e4", pa.int64())])
        if t.num_rows == 0 or "n_e" not in t.column_names:
            return _OUT.empty_table()
        n = np.asarray(t["n_e"], dtype=np.int64).astype(np.float64)
        sx = np.asarray(t["sx"], dtype=np.int64).astype(np.float64)
        sy = np.asarray(t["sy"], dtype=np.int64).astype(np.float64)
        sxy = np.asarray(t["sxy"], dtype=np.int64).astype(np.float64)
        sxx = np.asarray(t["sxx"], dtype=np.int64).astype(np.float64)
        syy = np.asarray(t["syy"], dtype=np.int64).astype(np.float64)
        corr = (n * sxy - sx * sy) / np.sqrt(
            (n * sxx - sx * sx) * (n * syy - sy * sy))
        return pa.table({
            "n_edges_directed": pa.array(
                np.asarray(t["n_e"], dtype=np.int64)),
            "assort_e4": pa.array(np.floor(corr * 10000 + 0.5)
                                  .astype(np.int64)),
        })

    return sums.map_batches(finish, batch_format="pyarrow")


SQL_Q148 = """
WITH pp AS (
  SELECT DISTINCT l1.l_partkey AS a, l2.l_partkey AS b
  FROM lineitem l1 JOIN lineitem l2
    ON l1.l_orderkey = l2.l_orderkey AND l1.l_partkey < l2.l_partkey
),
sym AS (SELECT a AS n, b AS m FROM pp UNION ALL SELECT b, a FROM pp),
deg AS (SELECT n, CAST(count(*) AS BIGINT) AS d FROM sym GROUP BY n),
ed AS (
  SELECT dx.d AS x, dy.d AS y
  FROM sym JOIN deg dx ON sym.n = dx.n JOIN deg dy ON sym.m = dy.n
),
s AS (
  SELECT CAST(count(*) AS BIGINT) AS n,
         CAST(SUM(x) AS BIGINT) AS sx, CAST(SUM(y) AS BIGINT) AS sy,
         CAST(SUM(x * y) AS BIGINT) AS sxy,
         CAST(SUM(x * x) AS BIGINT) AS sxx,
         CAST(SUM(y * y) AS BIGINT) AS syy
  FROM ed
)
SELECT n AS n_edges_directed,
       CAST(FLOOR((CAST(n AS DOUBLE) * CAST(sxy AS DOUBLE)
                   - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE))
                  / sqrt((CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE)
                          - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE))
                         * (CAST(n AS DOUBLE) * CAST(syy AS DOUBLE)
                            - CAST(sy AS DOUBLE) * CAST(sy AS DOUBLE)))
                  * 10000 + 0.5) AS BIGINT) AS assort_e4
FROM s
"""


SQL_Q141 = """
WITH e AS (
  SELECT DISTINCT CAST(l_partkey AS BIGINT) AS p,
                  CAST(l_suppkey AS BIGINT) AS s
  FROM lineitem
),
a1 AS (SELECT s, CAST(count(*) AS BIGINT) AS v FROM e GROUP BY s),
h1 AS (SELECT e.p, CAST(SUM(a1.v) AS BIGINT) AS v
       FROM e JOIN a1 USING (s) GROUP BY e.p),
a2 AS (SELECT e.s, CAST(SUM(h1.v) AS BIGINT) AS v
       FROM e JOIN h1 USING (p) GROUP BY e.s),
h2 AS (SELECT e.p, CAST(SUM(a2.v) AS BIGINT) AS v
       FROM e JOIN a2 USING (s) GROUP BY e.p)
SELECT 'part' AS node_type, p AS node_id, v AS score FROM h2
UNION ALL
SELECT 'supplier' AS node_type, s AS node_id, v AS score FROM a2
"""


QUERIES = {
    "q129_item_similarity": (q129_item_similarity, SQL_Q129),
    "q141_hits": (q141_hits, SQL_Q141),
    "q148_degree_assortativity": (q148_degree_assortativity, SQL_Q148),
    "q39_order_rank": (q39_order_rank, SQL_Q39),
    "q40_running_revenue": (q40_running_revenue, SQL_Q40),
    "q41_rollup_revenue": (q41_rollup_revenue, SQL_Q41),
    "q77_window_suite": (q77_window_suite, SQL_Q77),
    "q78_cube_revenue": (q78_cube_revenue, SQL_Q78),
    "q42_priority_timeline": (q42_priority_timeline, SQL_Q42),
    "q43_nation_revenue": (q43_nation_revenue, SQL_Q43),
    "q48_salted_segment_activity": (q48_salted_segment_activity, SQL_Q48),
    "q68_pagerank": (q68_pagerank, SQL_Q68),
    "q84_triangles": (q84_triangles, SQL_Q84),
    "q85_skyline": (q85_skyline, SQL_Q85),
    "q89_kcore": (q89_kcore, SQL_Q89),
    "q106_bfs": (q106_bfs, SQL_Q106),
    "q136_label_propagation": (q136_label_propagation, SQL_Q136),
    "q137_link_prediction": (q137_link_prediction, SQL_Q137),
}
