"""Temporal operators Ray Data has no native form for: distributed as-of
join and event-time sliding-window aggregation.

Both are prompt-listed custom-operator families ("as-of join, range join,
windowed aggregate") and both follow the repo's bucketed co-group idiom:
hash-partition on the equality key with ONE exchange, then resolve each
bucket with a single vectorized polars kernel (``join_asof`` /
``rolling_sum_by``).  No global time sort — event-time order is only ever
needed WITHIN one key's rows, which co-locate by construction.

Reference analog: the reference keeps per-document windows positional
(context window extraction, SURVEY.md §2 M6); these queries are the
event-time generalisation a transcript pipeline needs (e.g. "state of the
account as of this turn", "activity in the 3 h before this message").

Scale notes (100 TB): both queries shuffle only the skinny projected
columns (ids + timestamp + integer-cents measure, ~32 B/row); per-bucket
work is O(n log n) sort + linear merge; window state never exceeds one
bucket.  Hot users are bounded by the per-key data itself (a window/asof
needs a key's full history co-located — the same contract as any
PARTITION BY engine); ``num_buckets`` scales with the corpus-sized rule
in ``functions.grouping``.
"""

from __future__ import annotations
from pboh_entity_linking_ray.sources.reading import read_parquet_clean

import numpy as np
import pyarrow as pa
import ray.data

from ..functions.grouping import asof_join, hash_exchange, interval_join


def _cents(col: pa.ChunkedArray) -> pa.Array:
    """floor(x*100+0.5) as int64 — float sums are order-dependent across
    engines; integer cents make both sides exact (same trick as q01)."""
    return pa.array(np.floor(np.asarray(col) * 100 + 0.5).astype(np.int64))


# --- q23: as-of join (most recent order state as of each event) -----------

def q23_asof_join(sf_dir: str):
    """For every event, the most recent order the same user placed at or
    before the event time (backward as-of match), with the order day's
    totals.  Inner flavour: events with no prior order are dropped (keeps
    the driver hash free of nullable-int representation skew)."""
    events = read_parquet_clean(f"{sf_dir}/events.parquet",
                                   columns=["event_id", "user_id", "ts"])

    orders = read_parquet_clean(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderdate", "o_orderkey", "o_totalprice"])

    def order_day(t: pa.Table) -> pa.Table:
        # partial per-batch combine; the exchange inside asof_join
        # co-locates per-user rows, where duplicates (same user, same day,
        # split across batches) collapse in the per-bucket dedup below
        import polars as pl

        df = pl.from_arrow(pa.table({
            "user_id": t["o_custkey"],
            "ts": t["o_orderdate"],
            "o_key": t["o_orderkey"],
            "cents": _cents(t["o_totalprice"]),
        }))
        out = df.group_by(["user_id", "ts"]).agg(
            pl.col("o_key").max().alias("last_orderkey"),
            pl.col("cents").sum().alias("total_cents"),
            pl.len().cast(pl.Int64).alias("n_orders"),
        )
        return out.to_arrow()

    # deterministic one-row-per-(user, day) right side: the as-of winner
    # is then unique, so the value hash is engine-independent
    right = hash_exchange(
        orders.map_batches(order_day, batch_format="pyarrow"),
        "user_id",
        lambda t: _dedup_order_day(t),
        num_buckets=16)

    joined = asof_join(events, right, by="user_id", on="ts", num_buckets=16)

    def finish(t: pa.Table) -> pa.Table:
        return t.filter(t["last_orderkey_r"].is_valid())

    return joined.map_batches(finish, batch_format="pyarrow")


def _dedup_order_day(t: pa.Table) -> pa.Table:
    import polars as pl

    return (pl.from_arrow(t).group_by(["user_id", "ts"]).agg(
        pl.col("last_orderkey").max(),
        pl.col("total_cents").sum(),
        pl.col("n_orders").sum(),
    ).to_arrow())


SQL_Q23 = """
WITH o AS (
  SELECT o_custkey AS user_id, o_orderdate AS ts,
         max(o_orderkey) AS last_orderkey,
         CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT))
              AS BIGINT) AS total_cents,
         count(*) AS n_orders
  FROM orders GROUP BY 1, 2
)
SELECT e.event_id, e.user_id, e.ts,
       o.ts AS ts_r, o.last_orderkey AS last_orderkey_r,
       o.total_cents AS total_cents_r, o.n_orders AS n_orders_r
FROM events e ASOF JOIN o
  ON e.user_id = o.user_id AND e.ts >= o.ts
"""


# --- q24: sliding event-time window (3 h trailing per user) ---------------

def q24_sliding_window(sf_dir: str):
    """Per event: count and value-sum of the same user's events in the
    trailing 3-hour window [ts - 3h, ts] (RANGE semantics — all rows at
    the boundary and at the current timestamp included).

    One hash exchange on user_id; each bucket sorts its users' rows once
    and computes both aggregates with vectorized ``rolling_sum_by``
    (closed="both" == SQL RANGE ... PRECEDING AND CURRENT ROW, including
    peer rows at the current timestamp — verified against DuckDB)."""
    events = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"])

    def project(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": t["event_id"],
            "user_id": t["user_id"],
            "ts": t["ts"],
            "v_cents": _cents(t["value"]),
        })

    def window_bucket(t: pa.Table) -> pa.Table:
        import polars as pl

        df = (pl.from_arrow(t).sort(["user_id", "ts"])
              .with_columns(__one=pl.lit(1, dtype=pl.Int64)))
        out = df.with_columns(
            w_cnt=pl.col("__one").rolling_sum_by(
                "ts", window_size="3h", closed="both").over("user_id"),
            w_sum_cents=pl.col("v_cents").rolling_sum_by(
                "ts", window_size="3h", closed="both").over("user_id"),
        ).select(["event_id", "user_id", "ts", "w_cnt", "w_sum_cents"])
        return out.to_arrow()

    return hash_exchange(
        events.map_batches(project, batch_format="pyarrow"),
        "user_id", window_bucket, num_buckets=16)


SQL_Q24 = """
SELECT event_id, user_id, ts,
       count(*) OVER w AS w_cnt,
       CAST(sum(v_cents) OVER w AS BIGINT) AS w_sum_cents
FROM (SELECT event_id, user_id, ts,
             CAST(floor(value * 100 + 0.5) AS BIGINT) AS v_cents
      FROM events)
WINDOW w AS (PARTITION BY user_id ORDER BY ts
             RANGE BETWEEN INTERVAL 3 HOUR PRECEDING AND CURRENT ROW)
"""


# --- q25: range (interval) join (events within 7 days after each order) ---

def q25_interval_join(sf_dir: str):
    """Per purchase event (the interval anchor): count and value-sum of
    the same user's events in the half-open 2 hours after the purchase,
    the purchase itself excluded.

    ``interval_join`` with the per-anchor aggregate FUSED into the bucket
    task (``post`` hook): an anchor's interval lives entirely in its
    user's bucket, so the join output collapses to one row per matched
    anchor before leaving the task — the exchange moves only skinny point
    and interval rows, never the joined cross product."""
    import datetime

    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    events = read_parquet_clean(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "value"])

    # the anchor side is its own pushed-down read: the purchase filter
    # runs at the scan and only 3 columns survive it (a shared 5-column
    # read re-executes per consumer anyway, so this costs no extra pass)
    anchors = read_parquet_clean(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts"],
        filter=pads.field("event_type") == "purchase")

    def ev_project(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t["user_id"],
            "ts": t["ts"],
            "v_cents": _cents(t["value"]),
        })

    def iv_project(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t["user_id"],
            "start": t["ts"],
            "end": pc.add(t["ts"], pa.scalar(datetime.timedelta(hours=2))),
            "anchor_id": t["event_id"],
        })

    def per_anchor(joined: pa.Table) -> pa.Table:
        import polars as pl

        return (pl.from_arrow(joined)
                .filter(pl.col("ts") > pl.col("start_r"))
                .group_by("anchor_id_r").agg(
                    pl.len().cast(pl.Int64).alias("n_follow"),
                    pl.col("v_cents").sum().alias("sum_cents"),
                ).rename({"anchor_id_r": "anchor_id"}).to_arrow())

    return interval_join(
        events.map_batches(ev_project, batch_format="pyarrow"),
        anchors.map_batches(iv_project, batch_format="pyarrow"),
        by="user_id", on="ts", start="start", end="end",
        num_buckets=16, post=per_anchor)


SQL_Q25 = """
SELECT a.event_id AS anchor_id,
       count(*) AS n_follow,
       CAST(sum(CAST(floor(e.value * 100 + 0.5) AS BIGINT)) AS BIGINT)
           AS sum_cents
FROM events a JOIN events e
  ON e.user_id = a.user_id
 AND e.ts > a.ts
 AND e.ts < a.ts + INTERVAL 2 HOUR
WHERE a.event_type = 'purchase'
GROUP BY 1
"""


# --- q36: lag/lead window (per-user previous-event gap + transition) --------

def q36_event_lag(sf_dir: str):
    """Per event: the same user's PREVIOUS event id, the gap to it in
    microseconds (exact at the column's timestamp precision), and the previous event's type (the lag/lead window
    family).  One hash exchange on the user co-locates each user's
    history; inside a bucket a vectorized polars sort + ``shift`` over
    the user partition resolves every row — the standard recipe for any
    ``lag``/``lead``/cumulative window on this engine.  Deterministic
    tie order (ts, event_id) mirrored in the SQL window's ORDER BY."""
    events = read_parquet_clean(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"])

    def lag_bucket(t: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(t).sort(["user_id", "ts", "event_id"])
        out = df.with_columns(
            pl.col("event_id").shift(1).over("user_id")
              .alias("prev_event_id"),
            ((pl.col("ts") - pl.col("ts").shift(1).over("user_id"))
             .dt.total_microseconds().cast(pl.Int64)).alias("gap_us"),
            pl.col("event_type").shift(1).over("user_id")
              .alias("prev_type"),
        ).select(["event_id", "user_id", "prev_event_id", "gap_us",
                  "prev_type"])
        return out.to_arrow()

    return hash_exchange(events, "user_id", lag_bucket, num_buckets=16)


SQL_Q36 = """
SELECT event_id, user_id,
       lag(event_id) OVER w AS prev_event_id,
       CAST(epoch_us(ts) - epoch_us(lag(ts) OVER w) AS BIGINT) AS gap_us,
       lag(event_type) OVER w AS prev_type
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
"""


# --- q45: funnel analysis (ordered event-sequence matching) -----------------

FUNNEL_STAGES = ("view", "click", "purchase")


def q45_funnel(sf_dir: str):
    """Per user: the strict-order funnel view → click → purchase — the
    earliest view, the earliest click AFTER that view, the earliest
    purchase AFTER that click, and the stage count reached (1–3).  Users
    with no view are not in the funnel.

    One hash exchange on the user; inside a bucket each stage is ONE
    vectorized conditional-min window over the user partition
    (``filter(...).min().over(user)``), each referencing the previous
    stage's timestamp — no sort, no per-row Python, O(stages · n) per
    bucket.  The general recipe for any ordered-sequence / funnel /
    retention query on this engine."""
    events = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"])

    def funnel_bucket(t: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(t)
        et = pl.col("event_type")
        df = df.with_columns(
            v_ts=pl.col("ts").filter(et == FUNNEL_STAGES[0])
                   .min().over("user_id"))
        df = df.with_columns(
            c_ts=pl.col("ts").filter((et == FUNNEL_STAGES[1])
                                     & (pl.col("ts") > pl.col("v_ts")))
                   .min().over("user_id"))
        df = df.with_columns(
            p_ts=pl.col("ts").filter((et == FUNNEL_STAGES[2])
                                     & (pl.col("ts") > pl.col("c_ts")))
                   .min().over("user_id"))
        out = (df.group_by("user_id")
               .agg(pl.col("v_ts").first(), pl.col("c_ts").first(),
                    pl.col("p_ts").first())
               .filter(pl.col("v_ts").is_not_null())
               .with_columns(
                   stage=(1 + pl.col("c_ts").is_not_null().cast(pl.Int64)
                          + pl.col("p_ts").is_not_null().cast(pl.Int64))))
        return out.to_arrow()

    return hash_exchange(events, "user_id", funnel_bucket, num_buckets=16)


SQL_Q45 = """
WITH v AS (
  SELECT user_id, min(ts) AS v_ts FROM events
  WHERE event_type = 'view' GROUP BY 1
),
c AS (
  SELECT e.user_id, min(e.ts) AS c_ts
  FROM events e JOIN v USING (user_id)
  WHERE e.event_type = 'click' AND e.ts > v.v_ts GROUP BY 1
),
p AS (
  SELECT e.user_id, min(e.ts) AS p_ts
  FROM events e JOIN c USING (user_id)
  WHERE e.event_type = 'purchase' AND e.ts > c.c_ts GROUP BY 1
)
SELECT v.user_id, v.v_ts, c.c_ts, p.p_ts,
       CAST(1 + CASE WHEN c.c_ts IS NOT NULL THEN 1 ELSE 0 END
              + CASE WHEN p.p_ts IS NOT NULL THEN 1 ELSE 0 END
            AS BIGINT) AS stage
FROM v LEFT JOIN c USING (user_id) LEFT JOIN p USING (user_id)
"""


# --- q81: last-value-wins compaction (CDC / upsert) --------------------------

def q81_cdc_compact(sf_dir: str):
    """Last-value-wins compaction of a keyed change stream — the CDC /
    upsert pattern every ingest pipeline needs: one surviving row per
    user_id, the latest by (ts, event_id) with a deterministic
    tie-break.

    Two-level shrink: each batch first compacts ITSELF (keep each key's
    latest within the batch — a vectorized sort + keep-last), so at most
    one row per (key × batch) enters the exchange; ONE hash exchange on
    the key then keeps the global latest per key.  At 100 TB the shuffle
    carries the compacted stream, not the raw one."""
    import polars as pl

    events = read_parquet_clean(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type", "value"])

    def keep_last(df: "pl.DataFrame") -> "pl.DataFrame":
        return (df.sort(["user_id", "ts", "event_id"])
                .unique(subset=["user_id"], keep="last",
                        maintain_order=True))

    def precompact(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t).with_columns(
            ((pl.col("value") * 10000 + 0.5).floor().cast(pl.Int64))
            .alias("value_e4")).drop("value")
        return keep_last(df).to_arrow()

    def bucket(t: pa.Table) -> pa.Table:
        return keep_last(pl.from_arrow(t)).to_arrow()

    pre = events.map_batches(precompact, batch_format="pyarrow")
    return hash_exchange(pre, "user_id", bucket, num_buckets=16)


SQL_Q81 = """
SELECT event_id, user_id, ts, event_type,
       CAST(floor(value * 10000 + 0.5) AS BIGINT) AS value_e4
FROM events
QUALIFY row_number() OVER
    (PARTITION BY user_id ORDER BY ts DESC, event_id DESC) = 1
"""


SCD2_OPEN_US = 4_102_444_800_000_000   # 2100-01-01: open-version sentinel


def q102_scd2(sf_dir: str):
    """Slowly-changing-dimension TYPE-2 build — the warehouse op that
    turns a keyed change stream into versioned validity intervals:
    each user's ``event_type`` attribute is run-length encoded over
    (ts, event_id) order, one row per value CHANGE with
    ``[valid_from_us, valid_to_us)`` bounds (the current version gets
    the year-2100 open sentinel, so the int64 column stays
    non-nullable across engines).  q81's CDC compaction keeps only the
    last version; this keeps the full history — the as-of lookup side
    of `asof_join`.

    ONE hash exchange on the key; run starts and interval ends are
    two vectorized shift passes inside the owning bucket (a key's
    whole history co-locates by construction).  Exact int64 µs."""
    import polars as pl

    from ..functions.grouping import hash_exchange

    ev = read_parquet_clean(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"])

    out_schema = pa.schema([("user_id", pa.int64()),
                            ("event_type", pa.large_string()),
                            ("valid_from_us", pa.int64()),
                            ("valid_to_us", pa.int64())])

    def bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return out_schema.empty_table()
        df = (pl.from_arrow(t).sort(["user_id", "ts", "event_id"])
              .with_columns(ts_us=pl.col("ts").cast(pl.Int64))
              .with_columns(
                  chg=(pl.col("event_type")
                       != pl.col("event_type").shift(1).over("user_id"))
                  .fill_null(True)))
        runs = (df.filter(pl.col("chg"))
                .with_columns(valid_from_us=pl.col("ts_us"))
                .with_columns(
                    valid_to_us=pl.col("valid_from_us").shift(-1)
                    .over("user_id").fill_null(SCD2_OPEN_US)))
        return (runs.select(["user_id", "event_type", "valid_from_us",
                             "valid_to_us"])
                .to_arrow().cast(out_schema))

    return hash_exchange(ev, "user_id", bucket, num_buckets=16)


SQL_Q102 = f"""
WITH o AS (
  SELECT user_id, event_type, epoch_us(ts) AS ts_us, event_id,
         lag(event_type) OVER w AS prev
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), r AS (
  SELECT user_id, event_type, ts_us, event_id
  FROM o WHERE prev IS NULL OR prev <> event_type
)
SELECT user_id, event_type, ts_us AS valid_from_us,
       COALESCE(lead(ts_us) OVER (PARTITION BY user_id
                                  ORDER BY ts_us, event_id),
                {SCD2_OPEN_US}) AS valid_to_us
FROM r
"""


WAU_WIN = 7          # rolling active-user window, days
_DAY_US = 86_400_000_000


def q111_rolling_wau(sf_dir: str):
    """Exact rolling 7-day active users per day (the WAU curve; swap
    the constant for DAU/MAU) — the sliding-window COUNT DISTINCT
    every growth dashboard needs and naive groupbys get wrong (a user
    active twice in one window must count once).

    Exact and distributed via the q31 co-location discipline: distinct
    (user, day) activity explodes to its WAU_WIN window-end
    memberships (vectorized tile — a bounded ×7 row blowup of the
    already-deduped activity, not of the raw events), rows route by
    USER so in-bucket `unique` is globally exact, per-bucket counts
    per window-end day then one tiny groupby-sum.  Windows with zero
    activity produce no row (mirrored: the twin has none either)."""
    import polars as pl

    from ray.data.aggregate import Sum

    from ..functions.grouping import hash_exchange

    ev = read_parquet_clean(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts"])

    def memberships(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return pa.table({"user_id": pa.array([], type=pa.int64()),
                             "wday": pa.array([], type=pa.int64())})
        u = np.asarray(t["user_id"], dtype=np.int64)
        d = np.asarray(t["ts"].cast(pa.int64())) // _DAY_US
        act = np.unique(u * 1_000_000 + d)          # distinct (user, day)
        au, ad = act // 1_000_000, act % 1_000_000
        wday = (ad[:, None] + np.arange(WAU_WIN)).ravel()
        user = np.repeat(au, WAU_WIN)
        mem = np.unique(user * 1_000_000 + wday)    # batch-level dedup
        return pa.table({"user_id": pa.array(mem // 1_000_000),
                         "wday": pa.array(mem % 1_000_000)})

    def bucket_counts(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return pa.table({"wday": pa.array([], type=pa.int64()),
                             "n_partial": pa.array([], type=pa.int64())})
        return (pl.from_arrow(t).unique()
                .group_by("wday").len(name="n_partial")
                .with_columns(pl.col("n_partial").cast(pl.Int64))
                .to_arrow())

    mem = ev.map_batches(memberships, batch_format="pyarrow")
    partials = hash_exchange(mem, "user_id", bucket_counts, num_buckets=16)
    return (partials.groupby("wday")
            .aggregate(Sum("n_partial", alias_name="wau")))


SQL_Q111 = f"""
WITH a AS (
  SELECT DISTINCT user_id,
         epoch_us(ts) // {_DAY_US} AS d
  FROM events
), m AS (
  SELECT DISTINCT user_id, d + g AS wday
  FROM a CROSS JOIN
       (SELECT unnest(generate_series(0, {WAU_WIN - 1})) AS g)
)
SELECT wday, CAST(count(*) AS BIGINT) AS wau
FROM m GROUP BY wday
"""


DEBOUNCE_SEC = 300   # suppress same-(user, type) repeats within 5 min


def q109_debounce(sf_dir: str):
    """Telemetry debouncing: drop an event when the SAME (user, type)
    fired within DEBOUNCE_SEC before it — the duplicate-suppression
    pass every event-ingest pipeline runs against retry storms and
    double-clicks (q81 keeps one row per key; this keeps every run's
    FIRST event, the time-aware variant).

    ONE user-keyed exchange (a user's history co-locates), then a
    vectorized lag over the (user, type)-partitioned (ts, event_id)
    order inside the bucket.  Exact int64 µs gap arithmetic."""
    import polars as pl

    from ..functions.grouping import hash_exchange

    ev = read_parquet_clean(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"])

    out_schema = pa.schema([("event_id", pa.int64()),
                            ("user_id", pa.int64()),
                            ("event_type", pa.large_string()),
                            ("ts_us", pa.int64())])

    def bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return out_schema.empty_table()
        df = (pl.from_arrow(t)
              .with_columns(ts_us=pl.col("ts").cast(pl.Int64))
              .sort(["user_id", "event_type", "ts_us", "event_id"])
              .with_columns(
                  gap=pl.col("ts_us")
                  - pl.col("ts_us").shift(1)
                  .over(["user_id", "event_type"])))
        kept = df.filter(pl.col("gap").is_null()
                         | (pl.col("gap") > DEBOUNCE_SEC * 1_000_000))
        return (kept.select(["event_id", "user_id", "event_type",
                             "ts_us"])
                .to_arrow().cast(out_schema))

    return hash_exchange(ev, "user_id", bucket, num_buckets=16)


SQL_Q109 = f"""
WITH o AS (
  SELECT event_id, user_id, event_type, epoch_us(ts) AS ts_us,
         epoch_us(ts) - lag(epoch_us(ts)) OVER
           (PARTITION BY user_id, event_type
            ORDER BY ts, event_id) AS gap
  FROM events
)
SELECT event_id, user_id, event_type, ts_us
FROM o WHERE gap IS NULL OR gap > {DEBOUNCE_SEC * 1_000_000}
"""


# --- q90: retention cohort matrix ------------------------------------------

def q90_retention_cohorts(sf_dir: str):
    """Classic cohort-retention matrix: users grouped by first-activity
    month, counted distinct per months-since-cohort offset.  ONE
    user-keyed exchange resolves everything exactly — a user's whole
    history co-locates, so the cohort month, the distinct active months,
    and the per-(cohort, offset) partial counts are all LOCAL to the
    bucket (a user contributes once per offset by construction); the
    per-batch (user, month) dedup combiner shrinks the exchange input
    first, and one tiny O(cohorts × offsets) sum finishes.  No distinct
    machinery crosses the wire — co-location IS the distinct."""
    import polars as pl

    from ..functions.grouping import bucketed_sum, hash_exchange

    ev = read_parquet_clean(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts"])

    def dedup_months(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return pa.table({"user_id": pa.array([], type=pa.int64()),
                             "m": pa.array([], type=pa.int64())})
        m = (np.asarray(t["ts"]).astype("datetime64[M]")
             .astype(np.int64))          # months since epoch
        return (pl.DataFrame({
            "user_id": np.asarray(t["user_id"], dtype=np.int64), "m": m})
            .unique().to_arrow())

    def cohort_bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return pa.table({"cohort": pa.array([], type=pa.string()),
                             "offset_m": pa.array([], type=pa.int64()),
                             "n": pa.array([], type=pa.int64())})
        df = (pl.from_arrow(t).unique()
              .with_columns(m0=pl.col("m").min().over("user_id")))
        out = (df.with_columns(offset_m=pl.col("m") - pl.col("m0"))
               .group_by(["m0", "offset_m"]).len(name="n")
               .with_columns(pl.col("n").cast(pl.Int64)))
        lab = (out["m0"].cast(pl.Int64).to_numpy()
               .astype("datetime64[M]").astype(str))
        return pa.table({"cohort": pa.array(lab, type=pa.string()),
                         "offset_m": out["offset_m"].to_arrow()
                         .cast(pa.int64()),
                         "n": out["n"].to_arrow()})

    partials = hash_exchange(
        ev.map_batches(dedup_months, batch_format="pyarrow"),
        "user_id", cohort_bucket, num_buckets=32)
    return bucketed_sum(partials, ["cohort", "offset_m"], "n", "n_users")


SQL_Q90 = """
WITH a AS (
  SELECT DISTINCT user_id, date_trunc('month', ts) AS m FROM events
),
f AS (SELECT user_id, min(m) AS m0 FROM a GROUP BY user_id)
SELECT strftime(f.m0, '%Y-%m') AS cohort,
       CAST(datediff('month', f.m0, a.m) AS BIGINT) AS offset_m,
       CAST(count(*) AS BIGINT) AS n_users
FROM a JOIN f USING (user_id)
GROUP BY 1, 2
"""


def q97_attribution(sf_dir: str):
    """Marketing-style purchase attribution: every purchase credits the
    user's FIRST event (acquisition touch) and the most recent
    non-purchase event strictly before it (last touch), revenue summed
    per (first_touch, last_touch) channel pair in exact cents.  ONE
    user-keyed exchange co-locates each user's whole history; inside
    the bucket both touches are pure vectorized sequence ops over the
    (ts, event_id)-sorted frame — first() per user, and a shift(1) →
    forward-fill of the non-purchase type (the carried "last marketing
    touch seen so far") — no row loop, no second shuffle; a tiny
    O(types²) sum finishes.  Purchases with no prior non-purchase
    event attribute to 'none' in both engines.

    Reference analog: the same per-key sequential-context pattern as
    the mention window extraction (SURVEY §2 M6) — order-sensitive
    state resolved locally after one co-location."""
    import polars as pl

    from ..functions.grouping import bucketed_sum_multi, hash_exchange

    ev = read_parquet_clean(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type", "value"])

    _OUT = pa.schema([("first_touch", pa.string()),
                      ("last_touch", pa.string()),
                      ("n_purch", pa.int64()), ("revenue_c", pa.int64())])

    def attribute_bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return _OUT.empty_table()
        df = pl.from_arrow(t).sort(["user_id", "ts", "event_id"])
        df = df.with_columns(
            first_touch=pl.col("event_type").first().over("user_id"),
            last_touch=pl.when(pl.col("event_type") != "purchase")
                         .then(pl.col("event_type")).otherwise(None)
                         .shift(1).forward_fill().over("user_id")
                         .fill_null("none"),
            cents=(pl.col("value") * 100 + 0.5).floor().cast(pl.Int64),
        )
        out = (df.filter(pl.col("event_type") == "purchase")
               .group_by(["first_touch", "last_touch"])
               .agg(n_purch=pl.len().cast(pl.Int64),
                    revenue_c=pl.col("cents").sum()))
        return out.to_arrow().cast(_OUT)

    partials = hash_exchange(ev, "user_id", attribute_bucket, num_buckets=32)
    return bucketed_sum_multi(partials, ["first_touch", "last_touch"],
                              {"n_purch": "n_purch",
                               "revenue_c": "revenue_c"})


SQL_Q97 = """
WITH e AS (
  SELECT event_type,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents,
         first_value(event_type) OVER w AS first_touch,
         coalesce(last_value(CASE WHEN event_type <> 'purchase'
                                  THEN event_type END IGNORE NULLS)
                  OVER (PARTITION BY user_id ORDER BY ts, event_id
                        ROWS BETWEEN UNBOUNDED PRECEDING
                        AND 1 PRECEDING),
                  'none') AS last_touch
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
               ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
)
SELECT first_touch, last_touch, CAST(count(*) AS BIGINT) AS n_purch,
       CAST(sum(cents) AS BIGINT) AS revenue_c
FROM e WHERE event_type = 'purchase' GROUP BY 1, 2
"""


# --- q139: seasonal-baseline anomaly flags ----------------------------------

ANOM_MIN_CNT = 3     # ignore hours too small to call anomalous
# flag an hour when cnt ≥ 1.5 × seasonal median; with med2 = twice the
# median (lower+upper order statistic, an exact integer) that is
# cnt·4 ≥ med2·3 — no float ever enters the rule
ANOM_NUM, ANOM_DEN = 4, 3


def q139_seasonal_anomaly(sf_dir: str):
    """Seasonal-baseline anomaly detection over the event stream — the
    observability pass every production pipeline runs on its own
    telemetry: per (event_type, hour-of-week) the MEDIAN hourly volume
    is the seasonal baseline, and an hour is flagged when its count
    reaches 1.5× that baseline.  Everything stays in exact integers:
    hours are epoch_us // 3600e6 (the exact-BIGINT device from the
    CLAUDE.md twin discipline), the baseline is med2 = lower + upper
    median order statistics (twice the median, exact for even AND odd
    group sizes), and the flag rule cnt·4 ≥ med2·3 multiplies instead
    of dividing — no float crosses the engine seam.  Unlike q80's
    global MAD gate, the baseline here is CONDITIONAL on the weekly
    season, so a busy Monday 09:00 is judged against other Monday
    09:00s, not against 03:00 lulls.

    Shape: per-batch partial (type, hour) counts → ONE skinny
    bucketed_sum (the q04 pre-aggregation discipline; the raw events
    never shuffle) → ONE exchange on event_type whose bucket kernel
    resolves the per-(type, hour-of-week) order statistics with a
    single lexsort and flags rows vectorized.  The second exchange
    moves only O(distinct type×hour) rows — at 100 TB that is still
    just hours × types."""
    import polars as pl

    from ..functions.grouping import bucketed_sum

    ev = read_parquet_clean(f"{sf_dir}/events.parquet",
                               columns=["event_type", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        h = (np.asarray(t["ts"]).astype("datetime64[us]").astype(np.int64)
             // 3_600_000_000)
        return (pl.DataFrame({
            "event_type": pl.Series(np.asarray(t["event_type"]).astype(str)),
            "h": h})
            .group_by(["event_type", "h"])
            .agg(pl.len().cast(pl.Int64).alias("cnt"))
            .to_arrow())

    hc = bucketed_sum(ev.map_batches(partial, batch_format="pyarrow"),
                      ["event_type", "h"], "cnt", "cnt",
                      num_buckets=16)

    empty = pa.table({"event_type": pa.array([], type=pa.string()),
                      "hour_idx": pa.array([], type=pa.int64()),
                      "cnt": pa.array([], type=pa.int64()),
                      "med2": pa.array([], type=pa.int64())})

    def flag(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "event_type" not in t.column_names:
            return empty
        et = np.asarray(t["event_type"]).astype(object)
        h = np.asarray(t["h"], dtype=np.int64)
        cnt = np.asarray(t["cnt"], dtype=np.int64)
        uet, et_id = np.unique(et, return_inverse=True)
        gkey = et_id.astype(np.int64) * 168 + h % 168
        order = np.lexsort((cnt, gkey))
        gs, cs = gkey[order], cnt[order]
        starts = np.flatnonzero(np.r_[True, gs[1:] != gs[:-1]])
        sizes = np.diff(np.append(starts, len(gs)))
        med2_g = cs[starts + (sizes - 1) // 2] + cs[starts + sizes // 2]
        gidx = np.cumsum(np.r_[np.int64(0),
                               (gs[1:] != gs[:-1]).astype(np.int64)])
        med2 = med2_g[gidx]
        keep = (cs * ANOM_NUM >= med2 * ANOM_DEN) & (cs >= ANOM_MIN_CNT)
        rows = order[keep]
        return pa.table({
            "event_type": pa.array(list(et[rows]), type=pa.string()),
            "hour_idx": pa.array(h[rows]),
            "cnt": pa.array(cnt[rows]),
            "med2": pa.array(med2[keep])})

    return hash_exchange(hc, "event_type", flag, num_buckets=8)


SQL_Q139 = f"""
WITH hc AS (
  SELECT event_type, epoch_us(ts) // 3600000000 AS h,
         CAST(count(*) AS BIGINT) AS cnt
  FROM events GROUP BY 1, 2
),
g AS (SELECT event_type, h % 168 AS how, h, cnt,
             row_number() OVER (PARTITION BY event_type, h % 168
                                ORDER BY cnt, h) AS rn,
             count(*) OVER (PARTITION BY event_type, h % 168) AS k
      FROM hc),
med AS (SELECT event_type, how,
               SUM(CASE WHEN rn - 1 = (k - 1) // 2 THEN cnt ELSE 0 END)
             + SUM(CASE WHEN rn - 1 = k // 2 THEN cnt ELSE 0 END) AS med2
        FROM g GROUP BY 1, 2)
SELECT g.event_type, CAST(g.h AS BIGINT) AS hour_idx, g.cnt,
       CAST(m.med2 AS BIGINT) AS med2
FROM g JOIN med m ON m.event_type = g.event_type AND m.how = g.how
WHERE g.cnt * {ANOM_NUM} >= m.med2 * {ANOM_DEN} AND g.cnt >= {ANOM_MIN_CNT}
"""


# --- q145: CUSUM change-point detection in exact integers -------------------

CUSUM_H_MULT = 4      # alarm when cusum > H_MULT × per-type hourly mean
_US_HOUR = 3_600_000_000


def q145_cusum(sf_dir: str):
    """Upper CUSUM change detection (Page 1954) over each event type's
    hourly revenue series, in EXACT integer arithmetic end to end: the
    sequential recurrence s_t = max(0, s_{t-1} + x_t − k) is replaced by
    its closed form s_t = cum_t − min(0, min_{j≤t} cum_j) with
    cum_t = Σ_{i≤t}(x_i − k) — a cumulative sum and a prefix min, both
    order-free to express and exactly mirrored by SQL window functions,
    so no float ever crosses engines.  Reference k = per-type hourly
    mean (floor), alarm threshold H = CUSUM_H_MULT·k.

    Shape: per-batch (type, hour) cent partials (combiner) → ONE
    event_type exchange (a type's hourly series co-locates by
    construction, O(hours) rows per type, never raw events) → per-type
    vectorized cumsum + running-min inside the bucket.  The scan is the
    q99/q111 distributed-scan family applied to the drift statistic."""
    import polars as pl

    ev = read_parquet_clean(f"{sf_dir}/events.parquet",
                               columns=["event_type", "ts", "value"])

    _PART = pa.schema([("event_type", pa.string()), ("hr", pa.int64()),
                       ("x_p", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "event_type" not in t.column_names:
            return _PART.empty_table()
        hr = (np.asarray(t["ts"].cast(pa.timestamp("us")), dtype="int64")
              // _US_HOUR)
        cents = np.floor(np.asarray(t["value"]) * 100
                         + 0.5).astype(np.int64)
        return (pl.DataFrame({
            "event_type": pl.from_arrow(t["event_type"].combine_chunks()),
            "hr": hr, "x_p": cents})
            .group_by(["event_type", "hr"])
            .agg(pl.col("x_p").sum()).to_arrow().cast(_PART))

    _OUT = pa.schema([("event_type", pa.string()), ("hr", pa.int64()),
                      ("cusum", pa.int64()), ("alarm", pa.int64())])

    def scan(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "event_type" not in t.column_names:
            return _OUT.empty_table()
        df = (pl.from_arrow(t).group_by(["event_type", "hr"])
              .agg(x=pl.col("x_p").sum()).sort(["event_type", "hr"]))
        et = df["event_type"].to_numpy()
        x = df["x"].to_numpy().astype(np.int64)
        starts = np.flatnonzero(np.r_[True, et[1:] != et[:-1]])
        sizes = np.diff(np.append(starts, len(et)))
        cus = np.empty(len(et), dtype=np.int64)
        alarm = np.empty(len(et), dtype=np.int64)
        for st, sz in zip(starts, sizes):      # O(types) segments, not rows
            seg = x[st:st + sz]
            k = seg.sum() // sz
            cum = np.cumsum(seg - k)
            pmin = np.minimum(np.minimum.accumulate(cum), 0)
            s = cum - pmin
            cus[st:st + sz] = s
            alarm[st:st + sz] = (s > CUSUM_H_MULT * k).astype(np.int64)
        return pa.table({
            "event_type": df["event_type"].to_arrow().cast(pa.string()),
            "hr": df["hr"].to_arrow().cast(pa.int64()),
            "cusum": pa.array(cus), "alarm": pa.array(alarm)})

    parts = ev.map_batches(partial, batch_format="pyarrow")
    return hash_exchange(parts, "event_type", scan, num_buckets=8)


SQL_Q145 = f"""
WITH h AS (
  SELECT event_type, epoch_us(ts) // {_US_HOUR} AS hr,
         CAST(SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) AS BIGINT) AS x
  FROM events GROUP BY 1, 2
),
m AS (SELECT event_type, CAST(SUM(x) // count(*) AS BIGINT) AS k
      FROM h GROUP BY 1),
c AS (
  SELECT h.event_type, hr, m.k,
         SUM(x - k) OVER (PARTITION BY h.event_type ORDER BY hr) AS cum
  FROM h JOIN m USING (event_type)
),
s AS (
  SELECT event_type, hr, k, cum,
         LEAST(0, MIN(cum) OVER (PARTITION BY event_type ORDER BY hr))
             AS pmin
  FROM c
)
SELECT event_type, hr, CAST(cum - pmin AS BIGINT) AS cusum,
       CAST(CASE WHEN cum - pmin > {CUSUM_H_MULT} * k
                 THEN 1 ELSE 0 END AS BIGINT) AS alarm
FROM s
"""


# --- q146: sequential-pattern mining (top event-type trigrams) --------------

TRIGRAM_TOP = 50


def q146_event_trigrams(sf_dir: str):
    """Top-``TRIGRAM_TOP`` consecutive event-type trigrams across user
    journeys — the sequential-pattern report behind funnel discovery
    (q45 checks ONE hypothesized order; this mines which orders exist).
    ONE fused ``rekey_exchange``: co-locate by user (per-user time sort
    + two vectorized shifts → trigram partial counts, all inside the
    bucket), re-route the O(distinct trigram) partials by trigram and
    sum — each trigram finishes in exactly one bucket, so a per-bucket
    top-``TRIGRAM_TOP`` prefilter bounds the final global sort to
    O(TOP × buckets) rows (the topk_per_group discipline)."""
    import polars as pl

    ev = read_parquet_clean(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"])

    _MID = pa.schema([("trigram", pa.string()), ("c", pa.int64())])

    def per_user(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return _MID.empty_table()
        df = (pl.from_arrow(t)
              .sort(["user_id", "ts", "event_id"])
              .with_columns(
                  e2=pl.col("event_type").shift(-1).over("user_id"),
                  e3=pl.col("event_type").shift(-2).over("user_id"))
              .drop_nulls(["e2", "e3"])
              .with_columns(trigram=pl.concat_str(
                  [pl.col("event_type"), pl.col("e2"), pl.col("e3")],
                  separator=">"))
              .group_by("trigram").agg(c=pl.len().cast(pl.Int64)))
        return df.select(["trigram", "c"]).to_arrow().cast(_MID)

    _OUT = pa.schema([("trigram", pa.string()), ("cnt", pa.int64())])

    def per_trigram(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "trigram" not in t.column_names:
            return _OUT.empty_table()
        df = (pl.from_arrow(t).group_by("trigram")
              .agg(cnt=pl.col("c").sum())
              .sort(["cnt", "trigram"], descending=[True, False])
              .head(TRIGRAM_TOP))
        return df.to_arrow().cast(_OUT)

    from ..functions.grouping import rekey_exchange

    tops = rekey_exchange(ev, "user_id", per_user, "trigram", per_trigram,
                          num_buckets1=16, num_buckets2=8)
    return tops.sort(["cnt", "trigram"], descending=[True, False]) \
               .limit(TRIGRAM_TOP)


SQL_Q146 = f"""
WITH s AS (
  SELECT event_type,
         lead(event_type, 1) OVER w AS e2,
         lead(event_type, 2) OVER w AS e3
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
)
SELECT event_type || '>' || e2 || '>' || e3 AS trigram,
       CAST(count(*) AS BIGINT) AS cnt
FROM s WHERE e3 IS NOT NULL
GROUP BY 1
ORDER BY cnt DESC, trigram
LIMIT {TRIGRAM_TOP}
"""


# --- q151: day-over-day audience-churn Jaccard -------------------------------

_US_DAY = 86_400_000_000


def q151_day_churn(sf_dir: str):
    """Day-over-day audience stability: for every consecutive day pair
    (d, d+1), the exact Jaccard of the active-user sets — the churn
    curve behind q90's cohort retention (q90 anchors to first-touch;
    this is the rolling day-to-day stickiness report).

    Shape: per-batch distinct (user, day) partials → ONE user-keyed
    exchange where a user's full day set co-locates, so both per-day
    membership counts AND consecutive-day co-membership (sorted days +
    one shifted compare, vectorized across all users) reduce to O(days)
    partial rows in the same pass → one tiny day-keyed sum → an
    O(days) driver epilogue aligns day d with d+1 (the q127 epilogue
    contract: the driver folds report-sized rows, never user rows).
    Jaccard in exact integers: 10⁴·inter // (|A|+|B|−inter)."""
    import polars as pl

    from ..functions.grouping import bucketed_sum_multi, hash_exchange

    ev = read_parquet_clean(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts"])

    _UD = pa.schema([("user_id", pa.int64()), ("day", pa.int64())])

    def ud_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return _UD.empty_table()
        day = (np.asarray(t["ts"].cast(pa.timestamp("us")), dtype="int64")
               // _US_DAY)
        return (pl.DataFrame({
            "user_id": np.asarray(t["user_id"], dtype=np.int64),
            "day": day}).unique().to_arrow().cast(_UD))

    _DP = pa.schema([("day", pa.int64()), ("a_p", pa.int64()),
                     ("i_p", pa.int64())])

    def per_user(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return _DP.empty_table()
        df = (pl.from_arrow(t).unique()
              .sort(["user_id", "day"])
              .with_columns(nxt=pl.col("day").shift(-1).over("user_id")))
        return (df.with_columns(
            a_p=pl.lit(1, dtype=pl.Int64),
            i_p=(pl.col("nxt") == pl.col("day") + 1)
                .fill_null(False).cast(pl.Int64))
            .group_by("day")
            .agg(a_p=pl.col("a_p").sum(), i_p=pl.col("i_p").sum())
            .to_arrow().cast(_DP))

    rows = ev.map_batches(ud_partial, batch_format="pyarrow")
    parts = hash_exchange(rows, "user_id", per_user, num_buckets=16)
    sums = bucketed_sum_multi(parts, ["day"], {"a_p": "a", "i_p": "i"},
                              num_buckets=2)

    tb_parts = [b for b in sums.iter_batches(batch_format="pyarrow")
                if b.num_rows]
    _OUT = pa.schema([("day", pa.int64()), ("active", pa.int64()),
                      ("active_next", pa.int64()), ("inter", pa.int64()),
                      ("jaccard_e4", pa.int64())])
    if not tb_parts:
        return _OUT.empty_table()
    tb = pa.concat_tables(tb_parts)
    order = np.argsort(np.asarray(tb["day"], dtype=np.int64))
    day = np.asarray(tb["day"], dtype=np.int64)[order]
    a = np.asarray(tb["a"], dtype=np.int64)[order]
    i = np.asarray(tb["i"], dtype=np.int64)[order]
    pos = np.searchsorted(day, day + 1)
    has_next = (pos < len(day)) & (day[np.minimum(pos, len(day) - 1)]
                                   == day + 1)
    keep = np.flatnonzero(has_next)
    b = a[pos[keep]]
    inter = i[keep]
    return pa.table({
        "day": pa.array(day[keep]),
        "active": pa.array(a[keep]),
        "active_next": pa.array(b),
        "inter": pa.array(inter),
        "jaccard_e4": pa.array(10000 * inter
                               // (a[keep] + b - inter)),
    })


SQL_Q151 = f"""
WITH ud AS (
  SELECT DISTINCT user_id, epoch_us(ts) // {_US_DAY} AS day FROM events
),
a AS (SELECT day, CAST(count(*) AS BIGINT) AS n FROM ud GROUP BY day),
i AS (
  SELECT x.day, CAST(count(*) AS BIGINT) AS inter
  FROM ud x JOIN ud y ON x.user_id = y.user_id AND y.day = x.day + 1
  GROUP BY x.day
)
SELECT a.day, a.n AS active, b.n AS active_next,
       COALESCE(i.inter, 0) AS inter,
       CAST(10000 * COALESCE(i.inter, 0)
            // (a.n + b.n - COALESCE(i.inter, 0)) AS BIGINT)
           AS jaccard_e4
FROM a JOIN a b ON b.day = a.day + 1
LEFT JOIN i ON i.day = a.day
"""


# --- q167: Kaplan-Meier user-lifetime survival curve ------------------------

def q167_kaplan_meier(sf_dir: str):
    """Kaplan-Meier survival curve of user lifetime (days from first to
    last event) with right-censoring at the observation boundary — the
    survival-analysis member the retention family lacks (q90 cohorts
    answer "how many came back at +k"; this answers "what fraction of
    lifetimes EXCEED t", correctly discounting users still active at
    corpus end, whom a naive lifetime histogram would miscount as
    churned).  Users whose last event falls on the global last day are
    censored; all others are observed churns.

    Shape: per-batch per-user (min, max) day partials → ONE user-keyed
    exchange merging them → streaming ``max()`` for the censoring
    boundary → per-batch (lifetime, churn) count partials → ONE tiny
    keyed sum → O(distinct lifetimes) driver fold.  The survival
    product is an EXACT INTEGER recurrence, never a float product:
    s_e6 ← s_e6·(n_risk−d)//n_risk per step in lifetime order (the
    twin mirrors it with a recursive CTE step-for-step), so engines
    match bit-exactly; the e6 truncation drifts from true KM by at most
    one ulp-of-e6 per step, pinned in pytest against the float
    definition."""
    import polars as pl

    from ..functions.grouping import bucketed_sum_multi, hash_exchange

    ev = read_parquet_clean(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts"])

    _U = pa.schema([("user_id", pa.int64()), ("fd", pa.int64()),
                    ("ld", pa.int64())])

    def u_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return _U.empty_table()
        day = (np.asarray(t["ts"].cast(pa.timestamp("us")), dtype="int64")
               // _US_DAY)
        return (pl.DataFrame({
            "user_id": np.asarray(t["user_id"], dtype=np.int64),
            "day": day})
            .group_by("user_id")
            .agg(fd=pl.col("day").min(), ld=pl.col("day").max())
            .to_arrow().cast(_U))

    def u_merge(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return _U.empty_table()
        return (pl.from_arrow(t).group_by("user_id")
                .agg(fd=pl.col("fd").min(), ld=pl.col("ld").max())
                .to_arrow().cast(_U))

    users = hash_exchange(ev.map_batches(u_partial, batch_format="pyarrow"),
                          "user_id", u_merge, num_buckets=16).materialize()
    gmax = int(users.max("ld"))

    _C = pa.schema([("t", pa.int64()), ("d_t", pa.int64()),
                    ("m_t", pa.int64())])

    def lt_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return _C.empty_table()
        df = pl.from_arrow(t).with_columns(
            t=pl.col("ld") - pl.col("fd"),
            ev=(pl.col("ld") < gmax).cast(pl.Int64))
        return (df.group_by("t")
                .agg(d_t=pl.col("ev").sum(), m_t=pl.len().cast(pl.Int64))
                .to_arrow().cast(_C))

    sums = bucketed_sum_multi(
        users.map_batches(lt_partial, batch_format="pyarrow"), ["t"],
        {"d_t": "d_t", "m_t": "m_t"}, num_buckets=2)
    steps = sums.to_pandas().sort_values("t").reset_index(drop=True)
    t = steps["t"].to_numpy(dtype=np.int64)
    d = steps["d_t"].to_numpy(dtype=np.int64)
    m = steps["m_t"].to_numpy(dtype=np.int64)
    n_risk = m[::-1].cumsum()[::-1]
    surv = np.empty(len(t), dtype=np.int64)
    s = np.int64(1_000_000)
    for i in range(len(t)):                  # exact-integer KM recurrence,
        s = s * (n_risk[i] - d[i]) // n_risk[i]   # lifetime order
        surv[i] = s
    return pa.table({"t": pa.array(t), "n_risk": pa.array(n_risk),
                     "d_t": pa.array(d), "m_t": pa.array(m),
                     "surv_e6": pa.array(surv)})


SQL_Q167 = f"""
WITH RECURSIVE u AS (
  SELECT user_id, epoch_us(min(ts)) // {_US_DAY} AS fd,
         epoch_us(max(ts)) // {_US_DAY} AS ld
  FROM events GROUP BY user_id
),
g AS (SELECT max(ld) AS gmax FROM u),
d AS (
  SELECT ld - fd AS t,
         CASE WHEN ld < (SELECT gmax FROM g) THEN 1 ELSE 0 END AS ev
  FROM u
),
c AS (SELECT t, CAST(sum(ev) AS BIGINT) AS d_t,
             CAST(count(*) AS BIGINT) AS m_t FROM d GROUP BY t),
o AS (
  SELECT t, d_t, m_t,
         CAST(sum(m_t) OVER (ORDER BY t DESC) AS BIGINT) AS n_risk,
         row_number() OVER (ORDER BY t) AS k
  FROM c
),
r AS (
  SELECT k, t, d_t, m_t, n_risk,
         CAST(1000000 * (n_risk - d_t) // n_risk AS BIGINT) AS surv_e6
  FROM o WHERE k = 1
  UNION ALL
  SELECT o.k, o.t, o.d_t, o.m_t, o.n_risk,
         CAST(r.surv_e6 * (o.n_risk - o.d_t) // o.n_risk AS BIGINT)
  FROM r JOIN o ON o.k = r.k + 1
)
SELECT t, n_risk, d_t, m_t, surv_e6 FROM r
"""


# --- q173: cohort LTV triangle ----------------------------------------------

_US_WEEK = 7 * _US_DAY


def q173_ltv_triangle(sf_dir: str):
    """Cohort lifetime-value triangle — per (signup-week cohort,
    week-of-age): active users, purchase revenue, and CUMULATIVE
    revenue-to-date, the table a growth model reads to project LTV from
    partial cohorts (q90 counts RETURNS; this follows the MONEY, and the
    cumulative column is what actually gets extrapolated).

    ONE user-keyed exchange does all the heavy lifting: a user's
    (week, cents) rows co-locate, the bucket fold derives the cohort
    (min week) AND that user's per-age activity/revenue contributions in
    the same pass — no join back to the event stream — then one tiny
    (cohort, age)-keyed sum and an O(weeks²) driver cumsum in (cohort,
    age) order.  Revenue in exact cents; the twin's window sum mirrors
    the integer cumulative."""
    import polars as pl

    from ..functions.grouping import bucketed_sum_multi, hash_exchange

    ev = read_parquet_clean(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts", "event_type",
                                        "value"])

    _UW = pa.schema([("user_id", pa.int64()), ("wk", pa.int64()),
                     ("cents", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return _UW.empty_table()
        wk = (np.asarray(t["ts"].cast(pa.timestamp("us")), dtype="int64")
              // _US_WEEK)
        cents = np.where(
            np.asarray(t["event_type"]) == "purchase",
            np.floor(np.asarray(t["value"]) * 100 + 0.5).astype(np.int64),
            0)
        return (pl.DataFrame({
            "user_id": np.asarray(t["user_id"], dtype=np.int64),
            "wk": wk, "cents": cents})
            .group_by(["user_id", "wk"])
            .agg(cents=pl.col("cents").sum())
            .to_arrow().cast(_UW))

    _CA = pa.schema([("cohort_week", pa.int64()), ("age", pa.int64()),
                     ("a_p", pa.int64()), ("rev_p", pa.int64())])

    def per_user(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return _CA.empty_table()
        df = (pl.from_arrow(t)
              .group_by(["user_id", "wk"]).agg(cents=pl.col("cents").sum())
              .with_columns(cw=pl.col("wk").min().over("user_id")))
        return (df.with_columns(age=pl.col("wk") - pl.col("cw"),
                                a_p=pl.lit(1, dtype=pl.Int64))
                .group_by(["cw", "age"])
                .agg(a_p=pl.col("a_p").sum(), rev_p=pl.col("cents").sum())
                .rename({"cw": "cohort_week"})
                .to_arrow().cast(_CA))

    rows = hash_exchange(ev.map_batches(partial, batch_format="pyarrow"),
                         "user_id", per_user, num_buckets=16)
    tri = bucketed_sum_multi(rows, ["cohort_week", "age"],
                             {"a_p": "n_active", "rev_p": "rev"},
                             num_buckets=2) \
        .to_pandas().sort_values(["cohort_week", "age"])
    cum = tri.groupby("cohort_week")["rev"].cumsum()
    return pa.table({
        "cohort_week": pa.array(tri["cohort_week"].to_numpy(np.int64)),
        "age": pa.array(tri["age"].to_numpy(np.int64)),
        "n_active": pa.array(tri["n_active"].to_numpy(np.int64)),
        "rev": pa.array(tri["rev"].to_numpy(np.int64)),
        "cum_rev": pa.array(cum.to_numpy(np.int64)),
    })


SQL_Q173 = f"""
WITH e AS (
  SELECT user_id, epoch_us(ts) // {_US_WEEK} AS wk,
         CASE WHEN event_type = 'purchase'
              THEN CAST(floor(value * 100 + 0.5) AS BIGINT) ELSE 0
         END AS cents
  FROM events
),
u AS (SELECT user_id, wk, CAST(sum(cents) AS BIGINT) AS cents
      FROM e GROUP BY 1, 2),
c AS (SELECT user_id, min(wk) AS cw FROM u GROUP BY user_id),
g AS (
  SELECT c.cw AS cohort_week, u.wk - c.cw AS age,
         CAST(count(*) AS BIGINT) AS n_active,
         CAST(sum(u.cents) AS BIGINT) AS rev
  FROM u JOIN c USING (user_id)
  GROUP BY 1, 2
)
SELECT cohort_week, age, n_active, rev,
       CAST(sum(rev) OVER (PARTITION BY cohort_week ORDER BY age)
            AS BIGINT) AS cum_rev
FROM g
"""


# --- q177: autocorrelation of the daily series ------------------------------

ACF_MAX_LAG = 7


def q177_acf(sf_dir: str):
    """Lag-1…7 autocorrelation of each event type's DAILY count series —
    the seasonality detector feeding q139's conditional baseline (a
    lag-7 peak says "weekly rhythm", a high lag-1 says "bursty/trending"
    — which anomaly baseline applies is exactly this question).

    Exactness: counts are exact ints; centering is done WITHOUT
    fractions as x_i = nd·n_i − tot (nd = #days, tot = Σn — a positive
    rescale leaves the correlation invariant), so numerator Σx_i·x_{i+k}
    and denominator Σx_i² are exact int64 and only the FINAL ratio runs
    in mirrored DOUBLE.  Lag alignment matches on day VALUES
    (searchsorted here, the d+k join in the twin) so calendar gaps
    never misalign positions.  Per-batch count partials → ONE tiny
    keyed sum → O(types × days) driver fold; constant series (den = 0)
    drop in BOTH engines."""
    import polars as pl

    from ..functions.grouping import bucketed_sum

    ev = read_parquet_clean(f"{sf_dir}/events.parquet",
                               columns=["event_type", "ts"])

    _PART = pa.schema([("g", pa.string()), ("d", pa.int64()),
                       ("n", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "event_type" not in t.column_names:
            return _PART.empty_table()
        d = (np.asarray(t["ts"].cast(pa.timestamp("us")), dtype="int64")
             // _US_DAY)
        return (pl.DataFrame({"g": pl.from_arrow(
            t["event_type"].combine_chunks()), "d": d})
            .group_by(["g", "d"]).agg(n=pl.len().cast(pl.Int64))
            .to_arrow().cast(_PART))

    c = (bucketed_sum(ev.map_batches(partial, batch_format="pyarrow"),
                      ["g", "d"], "n", "n")
         .to_pandas().sort_values(["g", "d"]))

    out_g, out_l, out_a = [], [], []
    for g, grp in c.groupby("g"):
        d = grp["d"].to_numpy(dtype=np.int64)
        n = grp["n"].to_numpy(dtype=np.int64)
        nd = np.int64(len(d))
        tot = np.int64(n.sum())
        x = nd * n - tot
        den = np.int64((x * x).sum())
        if den == 0:
            continue
        for k in range(1, ACF_MAX_LAG + 1):
            pos = np.searchsorted(d, d + k)
            hit = (pos < len(d)) & (d[np.minimum(pos, len(d) - 1)]
                                    == d + k)
            if not hit.any():
                continue        # lag with no aligned day pair emits no
            num = np.int64((x[hit] * x[pos[hit]]).sum())  # row (twin's
            out_g.append(g)                               # inner join)
            out_l.append(k)
            out_a.append(np.int64(np.floor(
                np.float64(num) / np.float64(den) * 1_000_000 + 0.5)))
    return pa.table({
        "event_type": pa.array(out_g, type=pa.string()),
        "lag": pa.array(out_l, type=pa.int64()),
        "acf_e6": pa.array(out_a, type=pa.int64()),
    })


SQL_Q177 = f"""
WITH c AS (
  SELECT event_type AS g, epoch_us(ts) // {_US_DAY} AS d,
         CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
),
t AS (SELECT g, CAST(count(*) AS BIGINT) AS nd,
             CAST(sum(n) AS BIGINT) AS tot FROM c GROUP BY g),
x AS (SELECT c.g, c.d, t.nd * c.n - t.tot AS x FROM c JOIN t USING (g)),
den AS (SELECT g, CAST(sum(x * x) AS BIGINT) AS den FROM x GROUP BY g),
num AS (
  SELECT a.g, k.lag, CAST(sum(a.x * b.x) AS BIGINT) AS num
  FROM x a
  CROSS JOIN (SELECT unnest(generate_series(1, {ACF_MAX_LAG})) AS lag) k
  JOIN x b ON b.g = a.g AND b.d = a.d + k.lag
  GROUP BY 1, 2
)
SELECT num.g AS event_type, CAST(num.lag AS BIGINT) AS lag,
       CAST(floor(CAST(num.num AS DOUBLE) / CAST(den.den AS DOUBLE)
                  * 1000000 + 0.5) AS BIGINT) AS acf_e6
FROM num JOIN den USING (g)
WHERE den.den > 0
"""


# --- q181: STL-lite weekly seasonality profile -------------------------------

STL_OFF = 1_000_000_000_000     # non-negativity shift for floor division


def q181_seasonality(sf_dir: str):
    """STL-lite decomposition of each event type's daily series, in
    EXACT integers: trend = centered 7-day window sum (only days whose
    full ±3-day calendar window exists — value-aligned, the q177
    device), detrended residual ×7 = 7·n − Σ₇ (scaling by 7 instead of
    dividing keeps it integer), and the SEASONAL profile = per
    day-of-week mean of the detrended residual — the decomposed answer
    to q177's "is there weekly rhythm" (HOW MUCH higher is Monday,
    trend removed, in e2 fixed point).

    The mean uses the repo's shift-before-divide device (DuckDB ``//``
    truncates, Python floors; on non-negative numerators they agree):
    floor(100·Σ/cnt) = ((Σ + OFF·cnt)·100)//cnt − OFF·100.  One
    per-batch count partial → ONE tiny keyed sum → O(types·days) driver
    fold; the twin mirrors with a range self-join requiring k7 = 7."""
    import polars as pl

    from ..functions.grouping import bucketed_sum

    ev = read_parquet_clean(f"{sf_dir}/events.parquet",
                               columns=["event_type", "ts"])

    _PART = pa.schema([("g", pa.string()), ("d", pa.int64()),
                       ("n", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "event_type" not in t.column_names:
            return _PART.empty_table()
        d = (np.asarray(t["ts"].cast(pa.timestamp("us")), dtype="int64")
             // _US_DAY)
        return (pl.DataFrame({"g": pl.from_arrow(
            t["event_type"].combine_chunks()), "d": d})
            .group_by(["g", "d"]).agg(n=pl.len().cast(pl.Int64))
            .to_arrow().cast(_PART))

    c = (bucketed_sum(ev.map_batches(partial, batch_format="pyarrow"),
                      ["g", "d"], "n", "n")
         .to_pandas().sort_values(["g", "d"]))

    out_g, out_w, out_c, out_m = [], [], [], []
    for g, grp in c.groupby("g"):
        d = grp["d"].to_numpy(dtype=np.int64)
        n = grp["n"].to_numpy(dtype=np.int64)
        s7 = np.zeros(len(d), dtype=np.int64)
        k7 = np.zeros(len(d), dtype=np.int64)
        for off in range(-3, 4):
            pos = np.searchsorted(d, d + off)
            hit = (pos < len(d)) & (d[np.minimum(pos, len(d) - 1)]
                                    == d + off)
            s7[hit] += n[pos[hit]]
            k7 += hit
        full = k7 == 7
        det = 7 * n[full] - s7[full]
        dow = (d[full] + 4) % 7
        for w in range(7):
            m = dow == w
            cnt = int(m.sum())
            if cnt == 0:
                continue
            tot = int(det[m].sum())
            out_g.append(g)
            out_w.append(w)
            out_c.append(cnt)
            out_m.append(((tot + STL_OFF * cnt) * 100) // cnt
                         - STL_OFF * 100)
    return pa.table({
        "event_type": pa.array(out_g, type=pa.string()),
        "dow": pa.array(out_w, type=pa.int64()),
        "n_days": pa.array(out_c, type=pa.int64()),
        "seasonal_x7_e2": pa.array(out_m, type=pa.int64()),
    })


SQL_Q181 = f"""
WITH c AS (
  SELECT event_type AS g, epoch_us(ts) // {_US_DAY} AS d,
         CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
),
t7 AS (
  SELECT a.g, a.d, a.n, CAST(sum(b.n) AS BIGINT) AS s7,
         CAST(count(*) AS BIGINT) AS k7
  FROM c a JOIN c b ON b.g = a.g AND b.d BETWEEN a.d - 3 AND a.d + 3
  GROUP BY 1, 2, 3
),
det AS (
  SELECT g, (d + 4) % 7 AS dow, 7 * n - s7 AS x
  FROM t7 WHERE k7 = 7
)
SELECT g AS event_type, CAST(dow AS BIGINT) AS dow,
       CAST(count(*) AS BIGINT) AS n_days,
       CAST((sum(x) + {STL_OFF} * count(*)) * 100 // count(*)
            - {STL_OFF} * 100 AS BIGINT) AS seasonal_x7_e2
FROM det GROUP BY 1, 2
"""


# --- q184: seasonal-naive backtest -------------------------------------------

def q184_backtest(sf_dir: str):
    """Backtest of the SEASONAL-NAIVE forecaster (ŷ(d) = y(d−7), the
    baseline every real forecast must beat — and the operational
    complement of q181: q181 says the weekly rhythm exists, this says
    how well "same weekday last week" actually predicts): per event
    type, MAPE and bias of the lag-7 prediction over every day with a
    d−7 observation, plus the same errors for the lag-1 naive — the
    pair tells you whether weekly structure beats simple persistence.

    All exact integers: absolute/signed error sums and Σy accumulate as
    int64, the final e4 ratios divide exact sums (weighted MAPE =
    Σ|err|/Σy — the aggregate form that tolerates zero-count days);
    day alignment by VALUE (searchsorted ↔ the twin's d−k join)."""
    import polars as pl

    from ..functions.grouping import bucketed_sum

    ev = read_parquet_clean(f"{sf_dir}/events.parquet",
                               columns=["event_type", "ts"])

    _PART = pa.schema([("g", pa.string()), ("d", pa.int64()),
                       ("n", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "event_type" not in t.column_names:
            return _PART.empty_table()
        d = (np.asarray(t["ts"].cast(pa.timestamp("us")), dtype="int64")
             // _US_DAY)
        return (pl.DataFrame({"g": pl.from_arrow(
            t["event_type"].combine_chunks()), "d": d})
            .group_by(["g", "d"]).agg(n=pl.len().cast(pl.Int64))
            .to_arrow().cast(_PART))

    c = (bucketed_sum(ev.map_batches(partial, batch_format="pyarrow"),
                      ["g", "d"], "n", "n")
         .to_pandas().sort_values(["g", "d"]))

    out = []
    for g, grp in c.groupby("g"):
        d = grp["d"].to_numpy(dtype=np.int64)
        n = grp["n"].to_numpy(dtype=np.int64)
        row = [g]
        for k in (7, 1):
            pos = np.searchsorted(d, d - k)
            hit = (pos < len(d)) & (d[np.minimum(pos, len(d) - 1)]
                                    == d - k)
            err = n[hit] - n[pos[hit]]
            ae = np.int64(np.abs(err).sum())
            tot = np.int64(n[hit].sum())
            row += [int(hit.sum()), int(10000 * ae // tot),
                    int(err.sum())]
        out.append(row)
    return pa.table({
        "event_type": pa.array([r[0] for r in out], type=pa.string()),
        "n_days_l7": pa.array([r[1] for r in out], type=pa.int64()),
        "mape_l7_e4": pa.array([r[2] for r in out], type=pa.int64()),
        "bias_l7": pa.array([r[3] for r in out], type=pa.int64()),
        "n_days_l1": pa.array([r[4] for r in out], type=pa.int64()),
        "mape_l1_e4": pa.array([r[5] for r in out], type=pa.int64()),
        "bias_l1": pa.array([r[6] for r in out], type=pa.int64()),
    })


SQL_Q184 = f"""
WITH c AS (
  SELECT event_type AS g, epoch_us(ts) // {_US_DAY} AS d,
         CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
),
l7 AS (
  SELECT a.g, CAST(count(*) AS BIGINT) AS nd,
         CAST(sum(abs(a.n - b.n)) AS BIGINT) AS ae,
         CAST(sum(a.n) AS BIGINT) AS tot,
         CAST(sum(a.n - b.n) AS BIGINT) AS bias
  FROM c a JOIN c b ON b.g = a.g AND b.d = a.d - 7 GROUP BY a.g
),
l1 AS (
  SELECT a.g, CAST(count(*) AS BIGINT) AS nd,
         CAST(sum(abs(a.n - b.n)) AS BIGINT) AS ae,
         CAST(sum(a.n) AS BIGINT) AS tot,
         CAST(sum(a.n - b.n) AS BIGINT) AS bias
  FROM c a JOIN c b ON b.g = a.g AND b.d = a.d - 1 GROUP BY a.g
)
SELECT l7.g AS event_type,
       l7.nd AS n_days_l7,
       CAST(10000 * l7.ae // l7.tot AS BIGINT) AS mape_l7_e4,
       l7.bias AS bias_l7,
       l1.nd AS n_days_l1,
       CAST(10000 * l1.ae // l1.tot AS BIGINT) AS mape_l1_e4,
       l1.bias AS bias_l1
FROM l7 JOIN l1 ON l1.g = l7.g
"""


# --- q186: over-dispersion (Fano factor) screen ------------------------------

def q186_fano(sf_dir: str):
    """Fano factor (variance/mean) of each event type's daily counts —
    the one-number over-dispersion screen: a Poisson-like arrival
    process sits near 1, bursty/clumped traffic (retry storms, batch
    jobs, campaigns) blows far above it, and under-dispersion (< 1)
    means rate limiting or scheduling.  Decides WHICH anomaly baseline
    applies before q139/q145 run (their thresholds assume a noise
    model; this measures whether the noise is Poisson at all).

    Exact int64 sufficient statistics (nd, Σn, Σn²) per type from the
    tiny daily table (ONE keyed sum); the sample-variance/mean ratio
    runs in mirrored DOUBLE on O(types) driver scalars."""
    import polars as pl

    from ..functions.grouping import bucketed_sum

    ev = read_parquet_clean(f"{sf_dir}/events.parquet",
                               columns=["event_type", "ts"])

    _PART = pa.schema([("g", pa.string()), ("d", pa.int64()),
                       ("n", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "event_type" not in t.column_names:
            return _PART.empty_table()
        d = (np.asarray(t["ts"].cast(pa.timestamp("us")), dtype="int64")
             // _US_DAY)
        return (pl.DataFrame({"g": pl.from_arrow(
            t["event_type"].combine_chunks()), "d": d})
            .group_by(["g", "d"]).agg(n=pl.len().cast(pl.Int64))
            .to_arrow().cast(_PART))

    c = (bucketed_sum(ev.map_batches(partial, batch_format="pyarrow"),
                      ["g", "d"], "n", "n")
         .to_pandas())
    g = (c.groupby("g")
         .agg(nd=("n", "size"), s=("n", "sum"),
              ss=("n", lambda x: int((x.astype("int64") ** 2).sum())))
         .sort_index())
    nd = g["nd"].to_numpy(np.float64)
    s = g["s"].to_numpy(np.float64)
    ss = g["ss"].to_numpy(np.float64)
    var = (ss - s * s / nd) / (nd - 1.0)
    fano = var / (s / nd)
    return pa.table({
        "event_type": pa.array(g.index.to_list(), type=pa.string()),
        "n_days": pa.array(g["nd"].to_numpy(np.int64)),
        "fano_e4": pa.array(np.floor(fano * 10000 + 0.5)
                            .astype(np.int64)),
    })


SQL_Q186 = f"""
WITH c AS (
  SELECT event_type AS g, epoch_us(ts) // {_US_DAY} AS d,
         CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
),
s AS (
  SELECT g, CAST(count(*) AS BIGINT) AS nd, CAST(sum(n) AS BIGINT) AS s,
         CAST(sum(n * n) AS BIGINT) AS ss
  FROM c GROUP BY g
)
SELECT g AS event_type, nd AS n_days,
       CAST(floor(((CAST(ss AS DOUBLE)
                    - CAST(s AS DOUBLE) * CAST(s AS DOUBLE)
                      / CAST(nd AS DOUBLE)) / (CAST(nd AS DOUBLE) - 1.0))
                  / (CAST(s AS DOUBLE) / CAST(nd AS DOUBLE))
                  * 10000 + 0.5) AS BIGINT) AS fano_e4
FROM s
"""


# --- q187: conversion-window rates -------------------------------------------

CONV_WINDOWS_US = (3_600_000_000, 86_400_000_000, 259_200_000_000)


def q187_conversion_window(sf_dir: str):
    """Time-bounded conversion: of the users who clicked, what share
    purchased within 1 h / 24 h / 72 h of their FIRST click — the
    windowed funnel metric (q45 checks the SEQUENCE; attribution and
    budget decisions need the clock: "converts eventually" and
    "converts same-hour" price differently).

    ONE user-keyed exchange over skinny (user, ts, is_purchase) rows —
    the q14 sessionize co-location — whose fold resolves each user
    exactly (first click epoch-µs, any purchase strictly inside each
    window) into per-bucket counter partials; exact e4 shares on O(1)
    driver scalars."""
    import polars as pl
    import pyarrow.dataset as pads

    from ..functions.grouping import hash_exchange

    ev = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type", "ts"],
        filter=pads.field("event_type").isin(["click", "purchase"]))

    _R = pa.schema([("user_id", pa.int64()), ("ts", pa.int64()),
                    ("is_p", pa.int64())])

    def rows(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return _R.empty_table()
        return pa.table({
            "user_id": pa.array(np.asarray(t["user_id"], dtype=np.int64)),
            "ts": pa.array(np.asarray(t["ts"].cast(pa.timestamp("us")),
                                      dtype="int64")),
            "is_p": pa.array((np.asarray(t["event_type"]) == "purchase")
                             .astype(np.int64)),
        }).cast(_R)

    _C = pa.schema([("n_click", pa.int64()), ("w1", pa.int64()),
                    ("w24", pa.int64()), ("w72", pa.int64())])

    def fold(t: pa.Table) -> pa.Table:
        # fully vectorized: first-click per user, one join re-attaches
        # t0 to the purchase rows, window flags fold per user — never a
        # Python loop over users
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return _C.empty_table()
        df = pl.from_arrow(t)
        t0 = (df.filter(pl.col("is_p") == 0).group_by("user_id")
              .agg(t0=pl.col("ts").min()))
        if t0.height == 0:
            return _C.empty_table()
        p = (df.filter(pl.col("is_p") == 1)
             .join(t0, on="user_id", how="inner"))
        hits = (p.group_by("user_id").agg(
            *(((pl.col("ts") > pl.col("t0"))
               & (pl.col("ts") <= pl.col("t0") + w)).any()
              .cast(pl.Int64).alias(n)
              for w, n in zip(CONV_WINDOWS_US, ("w1", "w24", "w72")))))
        return pa.table({
            "n_click": pa.array([t0.height], type=pa.int64()),
            "w1": pa.array([int(hits["w1"].sum())], type=pa.int64()),
            "w24": pa.array([int(hits["w24"].sum())], type=pa.int64()),
            "w72": pa.array([int(hits["w72"].sum())], type=pa.int64()),
        })

    s = (hash_exchange(ev.map_batches(rows, batch_format="pyarrow"),
                       "user_id", fold, num_buckets=8)
         .to_pandas().sum())
    n = int(s["n_click"])
    return pa.table({
        "n_clickers": pa.array([np.int64(n)]),
        "conv_1h": pa.array([np.int64(s["w1"])]),
        "conv_24h": pa.array([np.int64(s["w24"])]),
        "conv_72h": pa.array([np.int64(s["w72"])]),
        "rate_1h_e4": pa.array([np.int64(10000 * int(s["w1"]) // n)]),
        "rate_24h_e4": pa.array([np.int64(10000 * int(s["w24"]) // n)]),
        "rate_72h_e4": pa.array([np.int64(10000 * int(s["w72"]) // n)]),
    })


SQL_Q187 = f"""
WITH c AS (
  SELECT user_id, min(epoch_us(ts)) AS t0
  FROM events WHERE event_type = 'click' GROUP BY user_id
),
p AS (
  SELECT user_id, epoch_us(ts) AS tp
  FROM events WHERE event_type = 'purchase'
),
j AS (
  SELECT c.user_id,
         COALESCE(max(CASE WHEN p.tp > c.t0
                            AND p.tp <= c.t0 + {CONV_WINDOWS_US[0]}
                           THEN 1 ELSE 0 END), 0) AS w1,
         COALESCE(max(CASE WHEN p.tp > c.t0
                            AND p.tp <= c.t0 + {CONV_WINDOWS_US[1]}
                           THEN 1 ELSE 0 END), 0) AS w24,
         COALESCE(max(CASE WHEN p.tp > c.t0
                            AND p.tp <= c.t0 + {CONV_WINDOWS_US[2]}
                           THEN 1 ELSE 0 END), 0) AS w72
  FROM c LEFT JOIN p USING (user_id)
  GROUP BY c.user_id
)
SELECT CAST(count(*) AS BIGINT) AS n_clickers,
       CAST(sum(w1) AS BIGINT) AS conv_1h,
       CAST(sum(w24) AS BIGINT) AS conv_24h,
       CAST(sum(w72) AS BIGINT) AS conv_72h,
       CAST(10000 * sum(w1) // count(*) AS BIGINT) AS rate_1h_e4,
       CAST(10000 * sum(w24) // count(*) AS BIGINT) AS rate_24h_e4,
       CAST(10000 * sum(w72) // count(*) AS BIGINT) AS rate_72h_e4
FROM j
"""


QUERIES = {
    "q23_asof_join": (q23_asof_join, SQL_Q23),
    "q187_conversion_window": (q187_conversion_window, SQL_Q187),
    "q186_fano": (q186_fano, SQL_Q186),
    "q184_backtest": (q184_backtest, SQL_Q184),
    "q181_seasonality": (q181_seasonality, SQL_Q181),
    "q177_acf": (q177_acf, SQL_Q177),
    "q173_ltv_triangle": (q173_ltv_triangle, SQL_Q173),
    "q167_kaplan_meier": (q167_kaplan_meier, SQL_Q167),
    "q145_cusum": (q145_cusum, SQL_Q145),
    "q151_day_churn": (q151_day_churn, SQL_Q151),
    "q146_event_trigrams": (q146_event_trigrams, SQL_Q146),
    "q97_attribution": (q97_attribution, SQL_Q97),
    "q90_retention_cohorts": (q90_retention_cohorts, SQL_Q90),
    "q24_sliding_window": (q24_sliding_window, SQL_Q24),
    "q25_interval_join": (q25_interval_join, SQL_Q25),
    "q36_event_lag": (q36_event_lag, SQL_Q36),
    "q45_funnel": (q45_funnel, SQL_Q45),
    "q81_cdc_compact": (q81_cdc_compact, SQL_Q81),
    "q102_scd2": (q102_scd2, SQL_Q102),
    "q109_debounce": (q109_debounce, SQL_Q109),
    "q111_rolling_wau": (q111_rolling_wau, SQL_Q111),
    "q139_seasonal_anomaly": (q139_seasonal_anomaly, SQL_Q139),
}
