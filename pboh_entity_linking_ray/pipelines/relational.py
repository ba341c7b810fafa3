"""Oracle-checked relational/analytic queries over the testdata tables.

Each entry exercises one operator family from SURVEY.md §2 as an idiomatic
Ray Data pipeline, with an ANSI-SQL twin (DuckDB oracle) producing
identical column names and values.  These are the general query-engine
capabilities the reference exposes through its Spark jobs (groupByKey /
reduceByKey / sorts / distinct — SURVEY.md §2.6-2.8) re-expressed
Ray-Data-first.

Float aggregates are rounded on both sides (sum order differs between
engines; rounding makes the value-hash comparison stable).
"""

from __future__ import annotations
from pboh_entity_linking_ray.sources.reading import read_parquet_clean

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..functions.langid import predict_lang_expr, sql_case_expr
from ..functions.text import STOPWORDS


def _t(sf_dir: str, name: str, columns=None, filter=None):
    """Column-pruned (and optionally predicate-pushed) table read.

    ``filter`` is a ``pyarrow.dataset.Expression`` applied INSIDE the
    read tasks: row groups whose statistics exclude the predicate are
    skipped entirely and surviving row groups are filtered before the
    batch enters the object store — the 'prune at the read' lever for
    selective queries (a transform-side ``.filter`` pays the full scan
    and ships the dead rows first)."""
    return read_parquet_clean(f"{sf_dir}/{name}.parquet",
                                 columns=columns, filter=filter)


def _round_cols(tbl: pa.Table, cols: dict[str, int]) -> pa.Table:
    for c, nd in cols.items():
        i = tbl.schema.get_field_index(c)
        tbl = tbl.set_column(i, c, pc.round(tbl[c], ndigits=nd))
    return tbl


# --- q01: grouped aggregate with pre-aggregation (TPC-H Q1 shape) ----------

def q01_lineitem_agg(sf_dir: str):
    """Analog of the reference's reduceByKey word-count aggregations
    (context/WordFreqPerCorpus.scala:34-40) over numeric measures."""
    from ray.data.aggregate import Count, Sum

    import pyarrow.dataset as pads

    ds = _t(sf_dir, "lineitem",
            ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
             "l_discount", "l_shipdate"],
            filter=pads.field("l_shipdate")
            <= pd.Timestamp("1998-09-02").to_pydatetime())

    def prep(t: pa.Table) -> pa.Table:
        # integer-scaled measures: float sums are order-dependent across
        # engines; per-row floor(x*scale+0.5) then int64 sums are exact
        disc = np.asarray(t["l_extendedprice"]) * (1.0 - np.asarray(t["l_discount"]))
        t = t.append_column("qty_e2", pa.array(
            np.floor(np.asarray(t["l_quantity"]) * 100 + 0.5).astype(np.int64)))
        t = t.append_column("base_e2", pa.array(
            np.floor(np.asarray(t["l_extendedprice"]) * 100 + 0.5).astype(np.int64)))
        return t.append_column("disc_e4", pa.array(
            np.floor(disc * 10000 + 0.5).astype(np.int64)))

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("qty_e2", alias_name="sum_qty_e2"),
            Sum("base_e2", alias_name="sum_base_price_e2"),
            Sum("disc_e4", alias_name="sum_disc_price_e4"),
            Count(alias_name="count_order"),
        )
    )


SQL_Q01 = """
SELECT l_returnflag, l_linestatus,
       CAST(sum(CAST(floor(l_quantity * 100 + 0.5) AS BIGINT)) AS BIGINT)
           AS sum_qty_e2,
       CAST(sum(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
           AS sum_base_price_e2,
       CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 10000 + 0.5)
                     AS BIGINT)) AS BIGINT)                    AS sum_disc_price_e4,
       count(*)                                                AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-02'
GROUP BY l_returnflag, l_linestatus
"""


# --- q02: broadcast hash join + aggregate ----------------------------------

def q02_customer_revenue(sf_dir: str):
    """Large×large shuffle join: the per-customer aggregate is joined to
    the customer table via a bucketed co-group hash join
    (functions/grouping.py hash_join) — both sides hash-partitioned on
    the key, neither collected to the driver (reference's only join
    device beyond broadcast lookups is the groupByKey co-group,
    context/EntityWordsProbs.scala:198-202)."""
    from ray.data.aggregate import Count, Sum

    from ..functions.grouping import hash_join

    orders = _t(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def scale(t: pa.Table) -> pa.Table:
        return t.append_column("price_e2", pa.array(
            np.floor(np.asarray(t["o_totalprice"]) * 100 + 0.5).astype(np.int64)))

    agg = orders.map_batches(scale, batch_format="pyarrow").groupby(
        "o_custkey"
    ).aggregate(
        Sum("price_e2", alias_name="total_spent_e2"),
        Count(alias_name="n_orders"),
    ).rename_columns({"o_custkey": "c_custkey"})
    cust = _t(sf_dir, "customer", ["c_custkey", "c_name", "c_mktsegment"])
    return hash_join(agg, cust, "c_custkey")


SQL_Q02 = """
SELECT o_custkey AS c_custkey, c_name, c_mktsegment,
       CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
           AS total_spent_e2,
       count(*) AS n_orders
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY 1, 2, 3
"""


# --- q03: top-k by aggregate (sort + limit) --------------------------------

def q03_top_parts(sf_dir: str):
    """Top-k pattern (analog of top-64 candidate pruning,
    index_builder/LowercaseOrPruneCwikisMentionFreqIndex.scala:22-52);
    deterministic tie-break on the key."""
    from ray.data.aggregate import Sum

    ds = _t(sf_dir, "lineitem", ["l_partkey", "l_quantity"])

    def scale(t: pa.Table) -> pa.Table:
        return t.append_column("qty_e2", pa.array(
            np.floor(np.asarray(t["l_quantity"]) * 100 + 0.5).astype(np.int64)))

    agg = ds.map_batches(scale, batch_format="pyarrow").groupby(
        "l_partkey"
    ).aggregate(Sum("qty_e2", alias_name="sum_qty_e2"))
    return agg.sort(["sum_qty_e2", "l_partkey"], descending=[True, False]).limit(10)


SQL_Q03 = """
SELECT l_partkey,
       CAST(sum(CAST(floor(l_quantity * 100 + 0.5) AS BIGINT)) AS BIGINT)
           AS sum_qty_e2
FROM lineitem GROUP BY l_partkey
ORDER BY sum_qty_e2 DESC, l_partkey LIMIT 10
"""


# --- q04: event-time bucketing (pre-aggregated shuffle) --------------------

def q04_events_hourly(sf_dir: str):
    """Tumbling-window aggregate over event time expressed as
    truncate-then-groupby with per-batch partial aggregation (the
    pre-aggregation discipline of SURVEY.md §4.2)."""
    from ray.data.aggregate import Sum

    ds = _t(sf_dir, "events", ["ts", "event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        import polars as pl
        df = pl.from_arrow(t)
        out = (
            df.with_columns(pl.col("ts").dt.truncate("1h").alias("hour"))
            .with_columns(((pl.col("value") * 100 + 0.5).floor().cast(pl.Int64))
                          .alias("v_e2"))
            .group_by(["event_type", "hour"])
            .agg(pl.len().cast(pl.Int64).alias("n_partial"),
                 pl.col("v_e2").sum().alias("v_partial"))
        )
        return out.to_arrow()

    agg = ds.map_batches(partial, batch_format="pyarrow").groupby(
        ["event_type", "hour"]
    ).aggregate(
        Sum("n_partial", alias_name="n_events"),
        Sum("v_partial", alias_name="sum_value_e2"),
    )

    def finish(t: pa.Table) -> pa.Table:
        # integer-exact average: (sum_e2 * 100) // n  → e4 fixed-point
        avg = (np.asarray(t["sum_value_e2"]) * 100) // np.asarray(t["n_events"])
        t = t.append_column("avg_value_e4", pa.array(avg.astype(np.int64)))
        # groupby round-trips can demote the timestamp unit; pin to [us]
        # so the pandas dtype matches the DuckDB oracle exactly
        hi = t.schema.get_field_index("hour")
        return t.set_column(hi, "hour", pc.cast(t["hour"], pa.timestamp("us")))

    return agg.map_batches(finish, batch_format="pyarrow")


SQL_Q04 = """
SELECT event_type, date_trunc('hour', ts) AS hour,
       count(*) AS n_events,
       CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
           AS sum_value_e2,
       CAST((sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) * 100) // count(*)
            AS BIGINT) AS avg_value_e4
FROM events GROUP BY 1, 2
"""


# --- q05: flat_map word count (G1 analog) ----------------------------------

def q05_word_count(sf_dir: str):
    """The reference's WordFreqPerCorpus (flatMap tokens → reduceByKey →
    freq filter, context/WordFreqPerCorpus.scala:34-40) with per-batch
    pre-aggregation before the shuffle."""
    from ray.data.aggregate import Sum

    ds = _t(sf_dir, "documents", ["text"])

    def partial(t: pa.Table) -> pa.Table:
        import polars as pl
        toks = (
            pl.from_arrow(t["text"].combine_chunks())
            .str.to_lowercase().str.extract_all("[a-z0-9]+")
            .explode(empty_as_null=True).drop_nulls()
        )
        if len(toks) == 0:
            return pa.table({"token": pa.array([], type=pa.string()),
                             "n_partial": pa.array([], type=pa.int64())})
        vc = pl.DataFrame({"token": toks}).group_by("token").len(name="n_partial")
        return pa.table({"token": vc["token"].to_arrow(),
                         "n_partial": vc["n_partial"].cast(pl.Int64).to_arrow()})

    agg = ds.map_batches(partial, batch_format="pyarrow").groupby("token").aggregate(
        Sum("n_partial", alias_name="n")
    )
    return agg.filter(expr="n >= 5")


SQL_Q05 = """
SELECT token, count(*) AS n
FROM (SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS token
      FROM documents)
GROUP BY token HAVING count(*) >= 5
"""


# --- q06: exact dedup ------------------------------------------------------

def q06_doc_dedup_exact(sf_dir: str):
    """Exact dedup = hash-partition on content, vectorized keep-first per
    bucket (reference analog: ``.distinct`` on packed pair keys,
    EntityCooccurrenceIndex.scala:103).  The shuffle is partitioned by a
    HASH of the text (functions/grouping.py with_bucket) while the
    in-bucket group key stays the full text — collision-exact AND one
    Python call per bucket instead of per distinct document."""
    from ..functions.grouping import hash_exchange

    ds = _t(sf_dir, "documents", ["doc_id", "text"])

    def keep_min(bucket: pa.Table) -> pa.Table:
        import polars as pl

        out = (
            pl.from_arrow(bucket).group_by("text")
            .agg(pl.col("doc_id").min(),
                 pl.len().cast(pl.Int64).alias("n_copies"))
            .select(["doc_id", "n_copies"])
        )
        return out.to_arrow()

    return hash_exchange(ds, "text", keep_min)


SQL_Q06 = """
SELECT min(doc_id) AS doc_id, count(*) AS n_copies
FROM documents GROUP BY text
"""


# --- q07: per-row token statistics -----------------------------------------

def q07_token_stats(sf_dir: str):
    ds = _t(sf_dir, "documents", ["doc_id", "text"])

    def stats(t: pa.Table) -> pa.Table:
        import polars as pl
        df = pl.from_arrow(t)
        toks = pl.col("text").str.to_lowercase().str.extract_all("[a-z0-9]+")
        out = df.select(
            pl.col("doc_id"),
            toks.list.len().cast(pl.Int64).alias("n_tokens"),
            toks.list.n_unique().cast(pl.Int64).alias("n_distinct_tokens"),
            toks.list.eval(pl.element().str.len_chars()).list.sum()
                .fill_null(0).cast(pl.Int64).alias("total_token_len"),
        )
        return out.to_arrow()

    return ds.map_batches(stats, batch_format="pyarrow")


SQL_Q07 = """
SELECT doc_id,
       len(toks)                 AS n_tokens,
       len(list_distinct(toks))  AS n_distinct_tokens,
       CAST(coalesce(list_sum(list_transform(toks, x -> length(x))), 0) AS BIGINT)
           AS total_token_len
FROM (SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS toks
      FROM documents)
"""


# --- q08: quality scoring --------------------------------------------------

_STOP_SQL = "[" + ", ".join(f"'{w}'" for w in sorted(STOPWORDS)) + "]"


def quality_metrics(t: pa.Table) -> pa.Table:
    """Per-row quality metrics (length / stop-word ratio / token shape)
    with e4 fixed-point ratios via integer division → exact
    cross-engine."""
    import polars as pl

    stop = sorted(STOPWORDS)
    df = pl.from_arrow(t)
    toks = pl.col("text").str.to_lowercase().str.extract_all("[a-z0-9]+")
    out = df.select(
        pl.col("doc_id"),
        toks.list.len().cast(pl.Int64).alias("n_tokens"),
        toks.list.eval(pl.element().is_in(stop)).list.sum()
            .fill_null(0).cast(pl.Int64).alias("n_stop"),
        toks.list.eval(pl.element().str.len_chars()).list.sum()
            .fill_null(0).cast(pl.Int64).alias("total_len"),
    )
    n = out["n_tokens"].to_numpy()
    n_safe = np.maximum(n, 1)
    stop_e4 = np.where(n > 0, (out["n_stop"].to_numpy() * 10000) // n_safe, 0)
    mlen_e4 = np.where(n > 0, (out["total_len"].to_numpy() * 10000) // n_safe, 0)
    ok = (n >= 5) & (stop_e4 <= 5000) & (mlen_e4 >= 20000) & (mlen_e4 <= 120000)
    return pa.table({
        "doc_id": out["doc_id"].to_arrow(),
        "n_tokens": out["n_tokens"].to_arrow(),
        "stop_ratio_e4": pa.array(stop_e4.astype(np.int64)),
        "mean_token_len_e4": pa.array(mlen_e4.astype(np.int64)),
        "quality_ok": pa.array(ok, type=pa.bool_()),
    })


def q08_quality_score(sf_dir: str):
    """Heuristic document-quality scoring (length / stop-word ratio /
    token shape) — a training-data-pipeline staple."""
    ds = _t(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(quality_metrics, batch_format="pyarrow")


SQL_Q08 = f"""
WITH base AS (
  SELECT doc_id,
         len(toks) AS n_tokens,
         len(list_filter(toks, x -> list_contains({_STOP_SQL}, x))) AS n_stop,
         CAST(coalesce(list_sum(list_transform(toks, x -> length(x))), 0)
              AS BIGINT) AS total_len
  FROM (SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS toks
        FROM documents)
)
SELECT doc_id, n_tokens,
       CASE WHEN n_tokens > 0 THEN (n_stop * 10000) // n_tokens ELSE 0 END
           AS stop_ratio_e4,
       CASE WHEN n_tokens > 0 THEN (total_len * 10000) // n_tokens ELSE 0 END
           AS mean_token_len_e4,
       (n_tokens >= 5
        AND CASE WHEN n_tokens > 0 THEN (n_stop * 10000) // n_tokens ELSE 0 END <= 5000
        AND CASE WHEN n_tokens > 0 THEN (total_len * 10000) // n_tokens ELSE 0 END
            BETWEEN 20000 AND 120000) AS quality_ok
FROM base
"""


# --- q09: language id ------------------------------------------------------

def q09_langid(sf_dir: str):
    ds = _t(sf_dir, "documents", ["doc_id", "text"])

    def pred(t: pa.Table) -> pa.Table:
        import polars as pl
        df = pl.DataFrame({
            "doc_id": pl.from_arrow(t["doc_id"].combine_chunks()),
            "toks": pl.from_arrow(t["text"].combine_chunks())
                      .str.to_lowercase().str.extract_all("[a-z0-9]+"),
        })
        out = df.select(
            "doc_id", predict_lang_expr("toks").alias("pred_lang"))
        return out.to_arrow().cast(pa.schema([
            ("doc_id", t.schema.field("doc_id").type),
            ("pred_lang", pa.string())]))

    return ds.map_batches(pred, batch_format="pyarrow")


_LANG_INNER, _LANG_COND = sql_case_expr("toks")
SQL_Q09 = f"""
SELECT doc_id, {_LANG_COND} AS pred_lang
FROM (SELECT doc_id, {_LANG_INNER}
      FROM (SELECT doc_id, list_distinct(regexp_extract_all(lower(text),
                   '[a-z0-9]+')) AS toks FROM documents))
"""


# --- q153: langid confusion matrix ------------------------------------------

def q153_langid_confusion(sf_dir: str):
    """Confusion matrix of the q09 language identifier against the
    corpus's declared ``lang`` labels — the classifier-evaluation
    report (per (declared, predicted) cell counts) every curation
    pipeline publishes before trusting an automatic labeler.  Pure
    composition discipline: the q09 vectorized marker-argmax kernel
    runs per batch with the declared label carried through, each batch
    collapses to ≤ |langs|² partial rows, ONE tiny keyed sum finishes —
    evaluation costs one streaming pass, no shuffle of documents."""
    import polars as pl

    from ..functions.grouping import bucketed_sum
    from ..functions.langid import predict_lang_expr

    ds = _t(sf_dir, "documents", ["text", "lang"])

    _PART = pa.schema([("lang", pa.string()), ("pred_lang", pa.string()),
                       ("n_p", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "lang" not in t.column_names:
            return _PART.empty_table()
        df = pl.DataFrame({
            "lang": pl.from_arrow(t["lang"].combine_chunks()),
            "toks": pl.from_arrow(t["text"].combine_chunks())
                      .str.to_lowercase().str.extract_all("[a-z0-9]+"),
        })
        return (df.select("lang",
                          predict_lang_expr("toks").alias("pred_lang"))
                .group_by(["lang", "pred_lang"])
                .agg(n_p=pl.len().cast(pl.Int64))
                .to_arrow().cast(_PART))

    return bucketed_sum(ds.map_batches(partial, batch_format="pyarrow"),
                        ["lang", "pred_lang"], "n_p", "n_docs",
                        num_buckets=2)


def _sql_q153() -> str:
    from ..functions.langid import sql_case_expr

    inner, cond = sql_case_expr("toks")
    return f"""
SELECT lang, pred_lang, CAST(count(*) AS BIGINT) AS n_docs
FROM (SELECT lang, {cond} AS pred_lang
      FROM (SELECT lang, {inner}
            FROM (SELECT lang, list_distinct(regexp_extract_all(
                      lower(text), '[a-z0-9]+')) AS toks
                  FROM documents)))
GROUP BY 1, 2
"""


# --- q14: sessionization (windowed aggregate over an event stream) ---------

SESSION_GAP_MIN = 30


def q14_sessionize(sf_dir: str):
    """Session windows (gap > 30 min starts a new session) as a bucketed,
    fully vectorized window computation: users are hash-partitioned
    (all of one user's events meet in one bucket — the multi-node shuffle
    contract) and each bucket runs ONE polars pass of sort + per-user
    diff/cum_sum — never a Python call per user."""
    from ..functions.grouping import hash_exchange

    ds = _t(sf_dir, "events", ["event_id", "user_id", "ts"])

    def sessions(bucket: pa.Table) -> pa.Table:
        return _sessions_df(bucket).to_arrow()

    return hash_exchange(ds, "user_id", sessions)


def _sessions_df(bucket: pa.Table):
    """q14's vectorized session construction (gap > SESSION_GAP_MIN
    starts a new session) as a polars frame — shared by q14 and q99."""
    import polars as pl

    df = pl.from_arrow(bucket).sort(["user_id", "ts", "event_id"])
    gap = pl.col("ts").diff().over("user_id")
    new_s = (gap.is_null() |
             (gap > pl.duration(minutes=SESSION_GAP_MIN))).cast(pl.Int64)
    return (
        df.with_columns(new_s.alias("ns"))
        .with_columns(pl.col("ns").cum_sum().over("user_id")
                      .alias("session_idx"))
        .group_by(["user_id", "session_idx"])
        .agg(pl.len().cast(pl.Int64).alias("n_events"),
             pl.col("ts").min().alias("start_ts"),
             pl.col("ts").max().alias("end_ts"))
    )


SQL_Q14 = f"""
WITH e AS (
  SELECT user_id, event_id, ts,
         CASE WHEN lag(ts) OVER w IS NULL
                   OR ts - lag(ts) OVER w > INTERVAL {SESSION_GAP_MIN} MINUTE
              THEN 1 ELSE 0 END AS new_s
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), s AS (
  SELECT user_id, event_id, ts,
         CAST(sum(new_s) OVER (PARTITION BY user_id ORDER BY ts, event_id
                               ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_idx
  FROM e
)
SELECT user_id, session_idx, count(*) AS n_events,
       min(ts) AS start_ts, max(ts) AS end_ts
FROM s GROUP BY 1, 2
"""


def q99_peak_concurrency(sf_dir: str):
    """Peak concurrent sessions and when it first occurs — the
    sweep-line op capacity planning runs over interval data, and the
    query that exercises ``range_prefix_sum`` (the distributed scan)
    END TO END: no single task ever sees the whole delta stream.

    Sessions come from q14's shared construction (one user-keyed
    exchange).  Each session [s, e] emits two skinny int64 deltas with
    the tie-break ENCODED IN THE KEY — k = epoch_us·2 for a start
    (+1), epoch_us·2+1 for an end (−1) — so starts sort before ends at
    the same microsecond (closed intervals: a session ending exactly
    when another starts overlaps it) and equal keys always carry equal
    deltas, making the running-sum multiset order-invariant.  The
    exclusive distributed scan + the row's own delta gives inclusive
    concurrency; the global max and the first time it is reached
    finish over the skinny scan output.  The first peak row is always
    a start (+1), so its even key halves back to the exact
    microsecond."""
    import pyarrow.compute as pc

    from ..functions.grouping import hash_exchange, range_prefix_sum

    ds = _t(sf_dir, "events", ["event_id", "user_id", "ts"])

    _D = pa.schema([("k", pa.int64()), ("delta", pa.int64())])

    def deltas(bucket: pa.Table) -> pa.Table:
        import polars as pl

        if bucket.num_rows == 0 or "user_id" not in bucket.column_names:
            return _D.empty_table()
        sess = _sessions_df(bucket)
        s = sess["start_ts"].cast(pl.Int64).to_numpy().astype(np.int64)
        e = sess["end_ts"].cast(pl.Int64).to_numpy().astype(np.int64)
        k = np.concatenate([s * 2, e * 2 + 1])
        d = np.concatenate([np.ones(len(s), dtype=np.int64),
                            -np.ones(len(e), dtype=np.int64)])
        return pa.table({"k": pa.array(k), "delta": pa.array(d)})

    d = hash_exchange(ds, "user_id", deltas)
    # ~2 rows per session; 1-hour ranges keep driver state O(#hours)
    run = range_prefix_sum(d, "k", "delta", out_name="cum_before",
                           range_width=3_600_000_000 * 2)

    def incl(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "k" not in t.column_names:
            return pa.table({"k": pa.array([], type=pa.int64()),
                             "c": pa.array([], type=pa.int64())})
        c = (np.asarray(t["cum_before"], dtype=np.int64)
             + np.asarray(t["delta"], dtype=np.int64))
        return pa.table({"k": t["k"], "c": pa.array(c)})

    r = run.map_batches(incl, batch_format="pyarrow").materialize()
    peak = r.max("c")
    at_k = r.filter(expr=f"c == {peak}").min("k")
    return pa.table({"peak": pa.array([peak], type=pa.int64()),
                     "at_us": pa.array([at_k // 2], type=pa.int64())})


SQL_Q99 = f"""
WITH e AS (
  SELECT user_id, event_id, ts,
         CASE WHEN lag(ts) OVER w IS NULL
                   OR ts - lag(ts) OVER w > INTERVAL {SESSION_GAP_MIN} MINUTE
              THEN 1 ELSE 0 END AS new_s
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), s AS (
  SELECT user_id, ts,
         CAST(sum(new_s) OVER (PARTITION BY user_id ORDER BY ts, event_id
                               ROWS UNBOUNDED PRECEDING) AS BIGINT)
           AS session_idx
  FROM e
), sess AS (
  SELECT epoch_us(min(ts)) AS s_us, epoch_us(max(ts)) AS e_us
  FROM s GROUP BY user_id, session_idx
), d AS (
  SELECT s_us * 2 AS k, CAST(1 AS BIGINT) AS delta FROM sess
  UNION ALL
  SELECT e_us * 2 + 1, CAST(-1 AS BIGINT) FROM sess
), r AS (
  SELECT k, CAST(sum(delta) OVER (ORDER BY k ROWS UNBOUNDED PRECEDING)
               AS BIGINT) AS c
  FROM d
)
SELECT CAST(max(c) AS BIGINT) AS peak,
       CAST(min(CASE WHEN c = (SELECT max(c) FROM r) THEN k END) // 2
            AS BIGINT) AS at_us
FROM r
"""

def q100_hourly_gapfill(sf_dir: str):
    """Time-series densification: the dense per-type HOURLY event-count
    series between each type's first and last active hour, missing
    hours filled with zero — the gap-fill / regularization step every
    forecasting or anomaly pipeline needs before window math (a bare
    groupby(hour) silently skips empty hours, shifting every lag).

    Shape: per-batch (event_type, hour) count partials (the q04
    combiner discipline) → ONE exchange keyed on event_type → the
    owning bucket sums partials and materializes the dense calendar
    per type vectorized (np.arange + scatter; the calendar rows are
    O(span hours) per type and never exist outside that bucket).
    Exact int64 µs arithmetic; twin via DuckDB generate_series."""
    from ..functions.grouping import hash_exchange

    HOUR_US = 3_600_000_000
    ds = _t(sf_dir, "events", ["event_type", "ts"])

    def counts(t: pa.Table) -> pa.Table:
        import polars as pl

        return (pl.from_arrow(t)
                .with_columns(hr_us=(pl.col("ts").cast(pl.Int64)
                                     // HOUR_US) * HOUR_US)
                .group_by(["event_type", "hr_us"]).len(name="c")
                .with_columns(pl.col("c").cast(pl.Int64))
                .select(["event_type", "hr_us", "c"])
                .to_arrow())

    empty = pa.table({"event_type": pa.array([], type=pa.large_string()),
                      "hr_us": pa.array([], type=pa.int64()),
                      "c": pa.array([], type=pa.int64())})

    def densify(t: pa.Table) -> pa.Table:
        import polars as pl

        if t.num_rows == 0 or "event_type" not in t.column_names:
            return empty
        df = (pl.from_arrow(t).group_by(["event_type", "hr_us"])
              .agg(pl.col("c").sum()).sort(["event_type", "hr_us"]))
        types = df["event_type"].to_numpy()
        hrs = df["hr_us"].to_numpy()
        cs = df["c"].to_numpy()
        starts = np.flatnonzero(np.r_[True, types[1:] != types[:-1]])
        bounds = np.append(starts, len(types))
        out_t, out_h, out_c = [], [], []
        for s, e in zip(bounds[:-1], bounds[1:]):
            dense = np.arange(hrs[s], hrs[e - 1] + HOUR_US, HOUR_US,
                              dtype=np.int64)
            c = np.zeros(len(dense), dtype=np.int64)
            c[(hrs[s:e] - hrs[s]) // HOUR_US] = cs[s:e]
            out_t.append(np.repeat(types[s], len(dense)))
            out_h.append(dense)
            out_c.append(c)
        return pa.table({
            "event_type": pa.array(np.concatenate(out_t).tolist(),
                                   type=pa.large_string()),
            "hr_us": pa.array(np.concatenate(out_h)),
            "c": pa.array(np.concatenate(out_c)),
        })

    part = ds.map_batches(counts, batch_format="pyarrow")
    return hash_exchange(part, "event_type", densify, num_buckets=8)


SQL_Q100 = """
WITH h AS (
  SELECT event_type, epoch_us(date_trunc('hour', ts)) AS hr_us,
         count(*) AS c
  FROM events GROUP BY 1, 2
), b AS (
  SELECT event_type, min(hr_us) AS lo, max(hr_us) AS hi FROM h GROUP BY 1
), cal AS (
  SELECT event_type, unnest(generate_series(lo, hi, 3600000000)) AS hr_us
  FROM b
)
SELECT cal.event_type, cal.hr_us, COALESCE(h.c, 0) AS c
FROM cal LEFT JOIN h ON cal.event_type = h.event_type
                    AND cal.hr_us = h.hr_us
"""

def q103_locf_impute(sf_dir: str):
    """Gap-fill + LOCF imputation: q100's dense per-type hourly
    calendar carrying the hourly cents SUM, with empty hours imputed
    by the last observed hour's value (last-observation-carried-
    forward — the `locf()` of TimescaleDB / InfluxDB, the fill step
    before any differencing or forecasting math).  `observed` keeps
    the imputation mask honest.

    Same shape as q100: per-batch (type, hour, cents) partials, ONE
    exchange on the type, dense calendar + vectorized forward-fill
    (np.maximum.accumulate over observed indices) inside the owning
    bucket.  The calendar starts at each type's first ACTIVE hour, so
    there is never a leading null to invent.  Exact int64 cents."""
    from ..functions.grouping import hash_exchange

    HOUR_US = 3_600_000_000
    ds = _t(sf_dir, "events", ["event_type", "ts", "value"])

    def counts(t: pa.Table) -> pa.Table:
        import polars as pl

        if t.num_rows == 0 or "event_type" not in t.column_names:
            return pa.table({"event_type": pa.array([], pa.large_string()),
                             "hr_us": pa.array([], pa.int64()),
                             "cents": pa.array([], pa.int64())})
        return (pl.from_arrow(t)
                .with_columns(
                    hr_us=(pl.col("ts").cast(pl.Int64) // HOUR_US)
                    * HOUR_US,
                    cents=(pl.col("value") * 100 + 0.5).floor()
                    .cast(pl.Int64))
                .group_by(["event_type", "hr_us"])
                .agg(pl.col("cents").sum())
                .select(["event_type", "hr_us", "cents"])
                .to_arrow())

    out_schema = pa.schema([("event_type", pa.large_string()),
                            ("hr_us", pa.int64()),
                            ("cents_locf", pa.int64()),
                            ("observed", pa.int64())])

    def densify_fill(t: pa.Table) -> pa.Table:
        import polars as pl

        if t.num_rows == 0 or "event_type" not in t.column_names:
            return out_schema.empty_table()
        df = (pl.from_arrow(t).group_by(["event_type", "hr_us"])
              .agg(pl.col("cents").sum()).sort(["event_type", "hr_us"]))
        types = df["event_type"].to_numpy()
        hrs = df["hr_us"].to_numpy()
        cents = df["cents"].to_numpy()
        starts = np.flatnonzero(np.r_[True, types[1:] != types[:-1]])
        bounds = np.append(starts, len(types))
        out_t, out_h, out_c, out_o = [], [], [], []
        for s, e in zip(bounds[:-1], bounds[1:]):
            dense = np.arange(hrs[s], hrs[e - 1] + HOUR_US, HOUR_US,
                              dtype=np.int64)
            pos = (hrs[s:e] - hrs[s]) // HOUR_US
            obs = np.zeros(len(dense), dtype=np.int64)
            obs[pos] = 1
            vals = np.zeros(len(dense), dtype=np.int64)
            vals[pos] = cents[s:e]
            # forward-fill: index of the last observed hour ≤ this one
            # (position 0 is always observed — the calendar starts at
            # the first active hour)
            src = np.maximum.accumulate(
                np.where(obs == 1, np.arange(len(dense)), 0))
            out_t.append(np.repeat(types[s], len(dense)))
            out_h.append(dense)
            out_c.append(vals[src])
            out_o.append(obs)
        return pa.table({
            "event_type": pa.array(np.concatenate(out_t).tolist(),
                                   type=pa.large_string()),
            "hr_us": pa.array(np.concatenate(out_h)),
            "cents_locf": pa.array(np.concatenate(out_c)),
            "observed": pa.array(np.concatenate(out_o)),
        })

    part = ds.map_batches(counts, batch_format="pyarrow")
    return hash_exchange(part, "event_type", densify_fill, num_buckets=8)


SQL_Q103 = """
WITH h AS (
  SELECT event_type, epoch_us(date_trunc('hour', ts)) AS hr_us,
         CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
           AS cents
  FROM events GROUP BY 1, 2
), b AS (
  SELECT event_type, min(hr_us) AS lo, max(hr_us) AS hi FROM h GROUP BY 1
), cal AS (
  SELECT event_type, unnest(generate_series(lo, hi, 3600000000)) AS hr_us
  FROM b
)
SELECT cal.event_type, cal.hr_us,
       last_value(h.cents IGNORE NULLS)
         OVER (PARTITION BY cal.event_type ORDER BY cal.hr_us
               ROWS UNBOUNDED PRECEDING) AS cents_locf,
       CAST(CASE WHEN h.cents IS NULL THEN 0 ELSE 1 END AS BIGINT) AS observed
FROM cal LEFT JOIN h ON cal.event_type = h.event_type
                    AND cal.hr_us = h.hr_us
"""


def q104_coclustered_join(sf_dir: str):
    """Revenue per part type via an EXCHANGE-FREE co-clustered join:
    lineitem is range-clustered on l_partkey (q83's layout machinery),
    part is then written with the SAME cut points, and the join runs
    as one independent task per aligned range-file pair
    (`state/clustered.py:coclustered_join`) — the Hive/Spark
    bucketed-table join as a storage feature.  The per-range task
    fuses the revenue partial aggregate, so the wide joined rows never
    leave it; only O(ranges × types) skinny partials reach the final
    tiny groupby.  At 100 TB the fact⋈dim shuffle disappears into the
    write-time layout."""
    from ray.data.aggregate import Sum

    from ..state.clustered import clustered_write, coclustered_join

    base = os.path.join("/tmp/pboh_clustered",
                        os.path.basename(os.path.normpath(sf_dir)))
    li = _t(sf_dir, "lineitem",
            ["l_partkey", "l_extendedprice", "l_discount"])
    man = clustered_write(li, "l_partkey", base + "_li_cc", n_files=8)
    pt = _t(sf_dir, "part", ["p_partkey", "p_type"])
    clustered_write(pt, "p_partkey", base + "_part_cc", cuts=man["cuts"])

    def rev_partial(t: pa.Table) -> pa.Table:
        import polars as pl

        x = (np.asarray(t["l_extendedprice"])
             * (1.0 - np.asarray(t["l_discount"])))
        return (pl.DataFrame({
            "p_type": t["p_type"].to_pylist(),
            "rev_e4": np.floor(x * 10000 + 0.5).astype(np.int64)})
            .group_by("p_type").agg(pl.col("rev_e4").sum())
            .to_arrow())

    parts = coclustered_join(base + "_li_cc", base + "_part_cc",
                             post=rev_partial)
    return (parts.groupby("p_type")
            .aggregate(Sum("rev_e4", alias_name="revenue_e4")))


SQL_Q104 = """
SELECT p_type,
       CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 10000
                           + 0.5) AS BIGINT)) AS BIGINT) AS revenue_e4
FROM lineitem JOIN part ON l_partkey = p_partkey
GROUP BY 1
"""


Q105_LO, Q105_HI = 40, 120      # the delta's narrow key band


def q105_clustered_merge(sf_dir: str):
    """LSM-style partial compaction exercised END TO END: a base
    lineitem layout (two thirds of the rows, range-clustered on
    l_partkey) absorbs a delta confined to a narrow key band via
    `state/clustered.py:clustered_merge` — only the range files the
    band overlaps get a new generation, everything else keeps its
    bytes — then revenue per returnflag is read off the merged layout
    and must equal SQL over base ∪ delta.  The upsert-into-clustered-
    storage op of every warehouse ingest path; crash at any point
    leaves the previous manifest pointing at intact files."""
    import shutil

    from ray.data.aggregate import Sum

    from ..state.clustered import clustered_merge, clustered_write

    out = os.path.join(
        "/tmp/pboh_clustered",
        os.path.basename(os.path.normpath(sf_dir)) + "_li_merge")
    shutil.rmtree(out, ignore_errors=True)    # merge is stateful: rebuild
    li = _t(sf_dir, "lineitem",
            ["l_orderkey", "l_partkey", "l_returnflag",
             "l_extendedprice", "l_discount"])

    def base_f(t: pa.Table) -> pa.Table:
        return t.filter(pa.array(
            (np.asarray(t["l_orderkey"]) % 3) != 0))

    def delta_f(t: pa.Table) -> pa.Table:
        pk = np.asarray(t["l_partkey"])
        return t.filter(pa.array(
            ((np.asarray(t["l_orderkey"]) % 3) == 0)
            & (pk >= Q105_LO) & (pk <= Q105_HI)))

    clustered_write(li.map_batches(base_f, batch_format="pyarrow"),
                    "l_partkey", out, n_files=8)
    man = clustered_merge(
        out, li.map_batches(delta_f, batch_format="pyarrow"))

    merged = read_parquet_clean(
        [os.path.join(out, e["file"]) for e in man["files"]])

    def rev(t: pa.Table) -> pa.Table:
        x = (np.asarray(t["l_extendedprice"])
             * (1.0 - np.asarray(t["l_discount"])))
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "rev_e4": pa.array(np.floor(x * 10000 + 0.5).astype(np.int64)),
        })

    return (merged.map_batches(rev, batch_format="pyarrow")
            .groupby("l_returnflag")
            .aggregate(Sum("rev_e4", alias_name="revenue_e4")))


SQL_Q105 = f"""
SELECT l_returnflag,
       CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 10000
                           + 0.5) AS BIGINT)) AS BIGINT) AS revenue_e4
FROM lineitem
WHERE l_orderkey % 3 <> 0
   OR (l_partkey BETWEEN {Q105_LO} AND {Q105_HI})
GROUP BY 1
"""


_WEEK_US = 7 * 86_400_000_000


def q113_wow_change(sf_dir: str):
    """Period-over-period report: week-over-week revenue change per
    event type (delta cents + e4 percent change) — the BI trend table
    behind every "up 12% WoW" line.  Per-batch (type, week, cents)
    partials cross ONE exchange on the type; the ordered lag is a
    vectorized shift inside the owning bucket.  The percent change is
    computed as (cur·10⁴)//prev − 10⁴ so the integer division only
    ever sees a NON-NEGATIVE numerator — Python floors where DuckDB
    truncates, and they agree only above zero (the q93 trap)."""
    import polars as pl

    from ..functions.grouping import hash_exchange

    ds = _t(sf_dir, "events", ["ts", "event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "event_type" not in t.column_names:
            return pa.table({"event_type": pa.array([], pa.large_string()),
                             "week": pa.array([], pa.int64()),
                             "cents": pa.array([], pa.int64())})
        return (pl.from_arrow(t)
                .with_columns(
                    week=pl.col("ts").cast(pl.Int64) // _WEEK_US,
                    c=(pl.col("value") * 100 + 0.5).floor()
                    .cast(pl.Int64))
                .group_by(["event_type", "week"])
                .agg(cents=pl.col("c").sum())
                .to_arrow())

    out_schema = pa.schema([("event_type", pa.large_string()),
                            ("week", pa.int64()),
                            ("cents", pa.int64()),
                            ("prev_cents", pa.int64()),
                            ("delta_cents", pa.int64()),
                            ("pct_chg_e4", pa.int64())])

    def wow(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "event_type" not in t.column_names:
            return out_schema.empty_table()
        df = (pl.from_arrow(t).group_by(["event_type", "week"])
              .agg(pl.col("cents").sum())
              .sort(["event_type", "week"])
              .with_columns(prev_cents=pl.col("cents").shift(1)
                            .over("event_type"))
              .drop_nulls("prev_cents")
              .with_columns(
                  delta_cents=pl.col("cents") - pl.col("prev_cents"),
                  pct_chg_e4=(pl.col("cents") * 10000)
                  // pl.col("prev_cents") - 10000))
        return df.select(out_schema.names).to_arrow().cast(out_schema)

    part = ds.map_batches(partial, batch_format="pyarrow")
    return hash_exchange(part, "event_type", wow, num_buckets=8)


SQL_Q113 = f"""
WITH w AS (
  SELECT event_type, epoch_us(ts) // {_WEEK_US} AS week,
         CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
           AS cents
  FROM events GROUP BY 1, 2
)
SELECT event_type, week, cents, prev_cents,
       cents - prev_cents AS delta_cents,
       (cents * 10000) // prev_cents - 10000 AS pct_chg_e4
FROM (SELECT *, lag(cents) OVER (PARTITION BY event_type ORDER BY week)
               AS prev_cents
      FROM w)
WHERE prev_cents IS NOT NULL
"""


LORENZ_PCTS = tuple(range(10, 101, 10))
_LZ_REV_CAP = 1 << 38    # descending-order key headroom: rev < $2.7B/cust


def q112_revenue_concentration(sf_dir: str):
    """Revenue-concentration (Lorenz / Pareto) report: the share of
    total revenue held by the top p% of customers, p = 10..100 — the
    "do 20% of customers drive 80% of revenue" curve, computed with NO
    global sort: customers rank descending by revenue via the q62
    packed-key trick (ord = (CAP − rev_cents) << 24 | custkey; the
    24-bit id lane fits test scale — production widens the pack or
    two-level keys), and TWO ``range_prefix_sum`` scans over the same
    skinny table give each customer's running revenue and rank.  The
    decile rows filter out per batch; exact int64 cents end to end,
    share_e6 by integer division."""
    import polars as pl

    from ray.data.aggregate import Sum

    from ..functions.grouping import range_prefix_sum

    orders = _t(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def cents(t: pa.Table) -> pa.Table:
        x = np.asarray(t["o_totalprice"])
        return pa.table({
            "o_custkey": t["o_custkey"],
            "rev": pa.array(np.floor(x * 100 + 0.5).astype(np.int64)),
        })

    rev = (orders.map_batches(cents, batch_format="pyarrow")
           .groupby("o_custkey").aggregate(Sum("rev", alias_name="rev"))
           .materialize())
    n = rev.count()
    total = rev.sum("rev")

    def keyed(t: pa.Table) -> pa.Table:
        r = np.asarray(t["rev"], dtype=np.int64)
        k = np.asarray(t["o_custkey"], dtype=np.int64)
        return pa.table({
            "ord": pa.array(((_LZ_REV_CAP - r) << 24) | k),
            "rev": pa.array(r),
            "one": pa.array(np.ones(len(r), dtype=np.int64)),
        })

    skinny = rev.map_batches(keyed, batch_format="pyarrow").materialize()
    c = range_prefix_sum(skinny, "ord", "rev", out_name="cum_before",
                         range_width=1 << 52, num_buckets=8)
    r = range_prefix_sum(c, "ord", "one", out_name="rank0",
                         range_width=1 << 52, num_buckets=8)

    targets = {(p * n + 99) // 100: p for p in LORENZ_PCTS}

    def finish(t: pa.Table) -> pa.Table:
        empty = pa.table({"pct": pa.array([], type=pa.int64()),
                          "rank_n": pa.array([], type=pa.int64()),
                          "cum_cents": pa.array([], type=pa.int64()),
                          "share_e6": pa.array([], type=pa.int64())})
        if t.num_rows == 0 or "ord" not in t.column_names:
            return empty
        rn = np.asarray(t["rank0"], dtype=np.int64) + 1
        keep = np.isin(rn, np.fromiter(targets, dtype=np.int64))
        if not keep.any():
            return empty
        rn = rn[keep]
        cum = (np.asarray(t["cum_before"], dtype=np.int64)[keep]
               + np.asarray(t["rev"], dtype=np.int64)[keep])
        return pa.table({
            "pct": pa.array([targets[int(x)] for x in rn],
                            type=pa.int64()),
            "rank_n": pa.array(rn),
            "cum_cents": pa.array(cum),
            "share_e6": pa.array(1_000_000 * cum // total),
        })

    return r.map_batches(finish, batch_format="pyarrow")


SQL_Q112 = f"""
WITH r AS (
  SELECT o_custkey,
         CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT))
              AS BIGINT) AS rev
  FROM orders GROUP BY 1
), o AS (
  SELECT o_custkey, rev,
         row_number() OVER (ORDER BY rev DESC, o_custkey) AS rn,
         CAST(sum(rev) OVER (ORDER BY rev DESC, o_custkey
                             ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum
  FROM r
), t AS (
  SELECT CAST(sum(rev) AS BIGINT) AS total, count(*) AS n FROM r
)
SELECT CAST(p.pct AS BIGINT) AS pct, CAST(o.rn AS BIGINT) AS rank_n,
       o.cum AS cum_cents, 1000000 * o.cum // t.total AS share_e6
FROM t, (SELECT unnest([{", ".join(str(p) for p in LORENZ_PCTS)}]) AS pct) p
JOIN o ON o.rn = (p.pct * t.n + 99) // 100
"""


KAPPA_LEN_MIN = 250   # annotator A: keep iff n_chars ≥ this
KAPPA_TOK_MIN = 45    # annotator B: keep iff token count ≥ this


def q108_annotator_agreement(sf_dir: str):
    """Inter-annotator agreement (Cohen's kappa) between two
    deterministic keep/drop labelers of the documents table — the
    labeling-QA metric an RLHF / eval-annotation pipeline computes
    before trusting a label source (here the two "annotators" are the
    length gate and the lexical-token gate; in production they are two
    human passes or a human vs a model judge).

    One streaming pass: each batch emits its 2×2 confusion counts
    (4 ints), the driver sums O(batches) rows, and kappa's scalar
    float tree — po, chance agreement pe from the marginals, then
    (po − pe)/(1 − pe) — is mirrored token-for-token in the twin with
    every product CAST to DOUBLE before multiplying (int64 marginal
    products overflow near 3e9 docs; DuckDB would silently widen to
    HUGEINT and diverge) and floor-e6 quantized (the q63 device)."""
    import math

    ds = _t(sf_dir, "documents", ["text", "n_chars"])

    def confusion(t: pa.Table) -> pa.Table:
        import polars as pl

        empty = pa.table({k: pa.array([], type=pa.int64())
                          for k in ("n11", "n10", "n01", "n00")})
        if t.num_rows == 0 or "text" not in t.column_names:
            return empty
        df = pl.from_arrow(t)
        a = (df["n_chars"] >= KAPPA_LEN_MIN).to_numpy()
        b = (df["text"].str.to_lowercase()
             .str.extract_all("[a-z0-9]+").list.len()
             >= KAPPA_TOK_MIN).to_numpy()
        return pa.table({
            "n11": pa.array([int((a & b).sum())], type=pa.int64()),
            "n10": pa.array([int((a & ~b).sum())], type=pa.int64()),
            "n01": pa.array([int((~a & b).sum())], type=pa.int64()),
            "n00": pa.array([int((~a & ~b).sum())], type=pa.int64()),
        })

    c = (ds.map_batches(confusion, batch_format="pyarrow")
         .to_pandas().sum())
    n11, n10 = int(c["n11"]), int(c["n10"])
    n01, n00 = int(c["n01"]), int(c["n00"])
    n = n11 + n10 + n01 + n00
    # mirrored scalar tree (see SQL_Q108)
    po = float(n11 + n00) / float(n)
    pe = ((float(n11 + n10) * float(n11 + n01)
           + float(n01 + n00) * float(n10 + n00))
          / (float(n) * float(n)))
    kappa = (po - pe) / (1.0 - pe)
    return pa.table({
        "n": pa.array([n], type=pa.int64()),
        "n11": pa.array([n11], type=pa.int64()),
        "n10": pa.array([n10], type=pa.int64()),
        "n01": pa.array([n01], type=pa.int64()),
        "n00": pa.array([n00], type=pa.int64()),
        "po_e6": pa.array([math.floor(po * 1_000_000.0)], type=pa.int64()),
        "kappa_e6": pa.array([math.floor(kappa * 1_000_000.0)],
                             type=pa.int64()),
    })


SQL_Q108 = f"""
WITH l AS (
  SELECT CASE WHEN n_chars >= {KAPPA_LEN_MIN} THEN 1 ELSE 0 END AS a,
         CASE WHEN len(regexp_extract_all(lower(text), '[a-z0-9]+'))
                   >= {KAPPA_TOK_MIN} THEN 1 ELSE 0 END AS b
  FROM documents
), c AS (
  SELECT count(*) AS n,
         sum(CASE WHEN a = 1 AND b = 1 THEN 1 ELSE 0 END) AS n11,
         sum(CASE WHEN a = 1 AND b = 0 THEN 1 ELSE 0 END) AS n10,
         sum(CASE WHEN a = 0 AND b = 1 THEN 1 ELSE 0 END) AS n01,
         sum(CASE WHEN a = 0 AND b = 0 THEN 1 ELSE 0 END) AS n00
  FROM l
)
SELECT CAST(n AS BIGINT) AS n,
       CAST(n11 AS BIGINT) AS n11, CAST(n10 AS BIGINT) AS n10,
       CAST(n01 AS BIGINT) AS n01, CAST(n00 AS BIGINT) AS n00,
       CAST(floor(CAST(n11 + n00 AS DOUBLE) / CAST(n AS DOUBLE)
                  * 1000000.0) AS BIGINT) AS po_e6,
       CAST(floor(
         ((CAST(n11 + n00 AS DOUBLE) / CAST(n AS DOUBLE)
           - ((CAST(n11 + n10 AS DOUBLE) * CAST(n11 + n01 AS DOUBLE)
               + CAST(n01 + n00 AS DOUBLE) * CAST(n10 + n00 AS DOUBLE))
              / (CAST(n AS DOUBLE) * CAST(n AS DOUBLE))))
          / (1.0 - ((CAST(n11 + n10 AS DOUBLE) * CAST(n11 + n01 AS DOUBLE)
               + CAST(n01 + n00 AS DOUBLE) * CAST(n10 + n00 AS DOUBLE))
              / (CAST(n AS DOUBLE) * CAST(n AS DOUBLE)))))
         * 1000000.0) AS BIGINT) AS kappa_e6
FROM c
"""


PSI_NB = 20          # fixed-width value bins
PSI_BINW = 25.0      # bin width (value spans ~0..500)


def q101_psi_drift(sf_dir: str):
    """Feature-drift monitoring: per-event-type Population Stability
    Index terms of the ``value`` distribution between the corpus's
    early and late time halves — the PSI report an ML-monitoring
    pipeline computes per feature per scoring window.

    Shape: one skinny pass finds the global time midpoint (per-batch
    min/max epoch rows; the driver reduces O(batches) ints), then
    per-batch (type, half, bin) count partials cross ONE exchange on
    the type; each bucket scatters its types' exact counts into a
    dense (2 × NB) grid and computes every Laplace-smoothed PSI term
    vectorized.  Output is LONG FORM (type, bin, c_ref, c_cur,
    psi_term_e6) — no cross-bin float sum ever crosses the engine
    boundary (the per-bin scalar tree is mirrored token-for-token in
    the twin and floor-e6-quantized, the q63 device for absorbing
    transcendental last-ulp noise); total PSI is the consumer's
    exact-integer sum."""
    from ..functions.grouping import hash_exchange

    ds = _t(sf_dir, "events", ["event_type", "ts", "value"])

    def mm(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "ts" not in t.column_names:
            return pa.table({"lo": pa.array([], type=pa.int64()),
                             "hi": pa.array([], type=pa.int64())})
        e = np.asarray(t["ts"].cast(pa.int64()))
        return pa.table({"lo": pa.array([int(e.min())]),
                         "hi": pa.array([int(e.max())])})

    mmdf = (ds.select_columns(["ts"])
            .map_batches(mm, batch_format="pyarrow").to_pandas())
    mid = (int(mmdf["lo"].min()) + int(mmdf["hi"].max())) // 2

    def counts(t: pa.Table) -> pa.Table:
        import polars as pl

        if t.num_rows == 0 or "event_type" not in t.column_names:
            return pa.table({"event_type": pa.array([], pa.large_string()),
                             "half": pa.array([], pa.int64()),
                             "bin": pa.array([], pa.int64()),
                             "c": pa.array([], pa.int64())})
        return (pl.from_arrow(t)
                .with_columns(
                    half=(pl.col("ts").cast(pl.Int64) >= mid)
                    .cast(pl.Int64),
                    bin=(pl.col("value") / PSI_BINW).floor()
                    .clip(0, PSI_NB - 1).cast(pl.Int64))
                .group_by(["event_type", "half", "bin"]).len(name="c")
                .with_columns(pl.col("c").cast(pl.Int64))
                .select(["event_type", "half", "bin", "c"])
                .to_arrow())

    out_schema = pa.schema([("event_type", pa.large_string()),
                            ("bin", pa.int64()),
                            ("c_ref", pa.int64()),
                            ("c_cur", pa.int64()),
                            ("psi_term_e6", pa.int64())])

    def psi(t: pa.Table) -> pa.Table:
        import polars as pl

        if t.num_rows == 0 or "event_type" not in t.column_names:
            return out_schema.empty_table()
        df = (pl.from_arrow(t).group_by(["event_type", "half", "bin"])
              .agg(pl.col("c").sum()))
        uniq, inv = np.unique(df["event_type"].to_numpy(),
                              return_inverse=True)
        flat = np.zeros(len(uniq) * 2 * PSI_NB, dtype=np.int64)
        flat[inv * 2 * PSI_NB + df["half"].to_numpy() * PSI_NB
             + df["bin"].to_numpy()] = df["c"].to_numpy()
        c = flat.reshape(len(uniq), 2, PSI_NB)
        n0 = c[:, 0, :].sum(axis=1, keepdims=True)
        n1 = c[:, 1, :].sum(axis=1, keepdims=True)
        # mirrored float tree: p, q each ONE double division of exact
        # integers; term = ((p - q) * ln(p / q)) * 1e6, floored
        p = (c[:, 0, :] + 1.0) / (n0 + 20.0)
        q = (c[:, 1, :] + 1.0) / (n1 + 20.0)
        term = np.floor(((p - q) * np.log(p / q)) * 1_000_000.0)
        nb = np.arange(PSI_NB, dtype=np.int64)
        return pa.table({
            "event_type": pa.array(np.repeat(uniq, PSI_NB).tolist(),
                                   type=pa.large_string()),
            "bin": pa.array(np.tile(nb, len(uniq))),
            "c_ref": pa.array(c[:, 0, :].ravel()),
            "c_cur": pa.array(c[:, 1, :].ravel()),
            "psi_term_e6": pa.array(term.ravel().astype(np.int64)),
        })

    part = ds.map_batches(counts, batch_format="pyarrow")
    return hash_exchange(part, "event_type", psi, num_buckets=8)


SQL_Q101 = f"""
WITH m AS (
  SELECT (epoch_us(min(ts)) + epoch_us(max(ts))) // 2 AS mid FROM events
), c AS (
  SELECT event_type,
         CASE WHEN epoch_us(ts) >= (SELECT mid FROM m) THEN 1 ELSE 0 END
           AS half,
         LEAST(GREATEST(CAST(floor(value / {PSI_BINW}) AS BIGINT), 0),
               {PSI_NB - 1}) AS bin,
         count(*) AS cnt
  FROM events GROUP BY 1, 2, 3
), grid AS (
  SELECT t.event_type, b.bin
  FROM (SELECT DISTINCT event_type FROM events) t
  CROSS JOIN (SELECT unnest(generate_series(0, {PSI_NB - 1})) AS bin) b
), f AS (
  SELECT g.event_type, g.bin,
         COALESCE(max(CASE WHEN half = 0 THEN cnt END), 0) AS c_ref,
         COALESCE(max(CASE WHEN half = 1 THEN cnt END), 0) AS c_cur
  FROM grid g LEFT JOIN c ON g.event_type = c.event_type
                         AND g.bin = c.bin
  GROUP BY 1, 2
), n AS (
  SELECT event_type, sum(c_ref) AS n0, sum(c_cur) AS n1 FROM f GROUP BY 1
)
SELECT f.event_type, f.bin,
       CAST(f.c_ref AS BIGINT) AS c_ref,
       CAST(f.c_cur AS BIGINT) AS c_cur,
       CAST(floor(
         (((CAST(f.c_ref + 1 AS DOUBLE) / CAST(n.n0 + 20 AS DOUBLE))
           - (CAST(f.c_cur + 1 AS DOUBLE) / CAST(n.n1 + 20 AS DOUBLE)))
          * ln((CAST(f.c_ref + 1 AS DOUBLE) / CAST(n.n0 + 20 AS DOUBLE))
               / (CAST(f.c_cur + 1 AS DOUBLE)
                  / CAST(n.n1 + 20 AS DOUBLE))))
         * 1000000.0) AS BIGINT) AS psi_term_e6
FROM f JOIN n USING (event_type)
"""

# --- q35: exact per-group quantiles (fully distributed) ----------------------

QUANTILES_E4 = (2500, 5000, 7500, 9000, 9900)   # shared with q29


def q35_doc_len_quantiles_by_lang(sf_dir: str):
    """q29's exact quantiles per GROUP, with zero driver work: per-batch
    (lang, value) counts → ONE exchange keyed on the group → each bucket
    holds its groups' whole histograms and computes every quantile with
    a vectorized cumsum/searchsorted.  Same integer quantile_disc rank
    arithmetic as q29."""
    from ..functions.grouping import hash_exchange

    docs = _t(sf_dir, "documents", columns=["lang", "n_chars"])

    def counts(t: pa.Table) -> pa.Table:
        import polars as pl

        return (pl.from_arrow(t).group_by(["lang", "n_chars"])
                .len(name="c").with_columns(pl.col("c").cast(pl.Int64))
                .to_arrow())

    def bucket_quantiles(t: pa.Table) -> pa.Table:
        import polars as pl

        if t.num_rows == 0:
            return pa.table({"lang": pa.array([], type=pa.large_string()),
                             "q_e4": pa.array([], type=pa.int64()),
                             "value": pa.array([], type=pa.int64())})
        df = (pl.from_arrow(t).group_by(["lang", "n_chars"])
              .agg(pl.col("c").sum()).sort(["lang", "n_chars"]))
        langs = df["lang"].to_numpy()
        vals = df["n_chars"].to_numpy()
        cnts = df["c"].to_numpy()
        starts = np.flatnonzero(np.r_[True, langs[1:] != langs[:-1]])
        bounds = np.append(starts, len(langs))
        out_l, out_q, out_v = [], [], []
        for s, e in zip(bounds[:-1], bounds[1:]):
            cum = np.cumsum(cnts[s:e])
            n = int(cum[-1])
            for q_e4 in QUANTILES_E4:
                rank = max(1, -(-q_e4 * n // 10_000))
                out_l.append(langs[s])
                out_q.append(q_e4)
                out_v.append(int(vals[s:e][np.searchsorted(cum, rank)]))
        return pa.table({"lang": pa.array(out_l, type=pa.large_string()),
                         "q_e4": pa.array(out_q, type=pa.int64()),
                         "value": pa.array(out_v, type=pa.int64())})

    part = docs.map_batches(counts, batch_format="pyarrow")
    return hash_exchange(part, "lang", bucket_quantiles, num_buckets=16)


SQL_Q35 = f"""
SELECT lang,
       CAST(unnest([{", ".join(str(q) for q in QUANTILES_E4)}]) AS BIGINT) AS q_e4,
       unnest(quantile_disc(n_chars,
              [{", ".join(f"{q / 10_000}" for q in QUANTILES_E4)}])) AS value
FROM documents GROUP BY lang
"""


# --- q30: distributed anti join ---------------------------------------------

BIG_ORDER_MIN = 300_000


def q30_customers_without_big_orders(sf_dir: str):
    """Anti join (TPC-H Q22 shape): customers who never placed an order
    above BIG_ORDER_MIN.  The same bucketed hash exchange as the inner
    join, but only the right side's KEY column rides the shuffle (the
    probe filter is applied before the exchange) and each bucket
    resolves existence with a vectorized polars anti join — the
    distributed NOT EXISTS."""
    from ..functions.grouping import hash_join

    cust = _t(sf_dir, "customer", ["c_custkey", "c_name", "c_acctbal"])

    import pyarrow.dataset as pads

    def big(t: pa.Table) -> pa.Table:
        return t.select(["o_custkey"]).rename_columns(["c_custkey"])

    big_orders = (_t(sf_dir, "orders", ["o_custkey", "o_totalprice"],
                     filter=pads.field("o_totalprice") > BIG_ORDER_MIN)
                  .map_batches(big, batch_format="pyarrow"))
    out = hash_join(cust, big_orders, "c_custkey", how="anti")
    return out.map_batches(lambda t: _round_cols(t, {"c_acctbal": 2}),
                           batch_format="pyarrow")


SQL_Q30 = f"""
SELECT c_custkey, c_name, round(c_acctbal, 2) AS c_acctbal
FROM customer c
WHERE NOT EXISTS (SELECT 1 FROM orders o
                  WHERE o.o_custkey = c.c_custkey
                    AND o.o_totalprice > {BIG_ORDER_MIN})
"""


# --- q38: three-table join pipeline (TPC-H Q3 shape) -------------------------

Q3_SEGMENT = "BUILDING"
Q3_DATE = "1995-03-15"


def q38_shipping_priority(sf_dir: str):
    """TPC-H Q3: top unshipped orders of one market segment by revenue —
    the multi-join composition test.  Chain: lineitem pre-aggregated
    per batch THEN per orderkey (combiner before the exchange) ⋈ orders
    date-filtered and SEMI-joined to the segment's customers (only the
    key column of the build side ever shuffles) → sort + limit.  Three
    exchanges total, every one over pre-shrunk skinny rows."""
    import pyarrow.compute as pc

    from ..functions.grouping import bucketed_sum, hash_join

    import datetime

    import pyarrow.dataset as pads

    cutoff = datetime.datetime.fromisoformat(Q3_DATE)
    # predicate pushdown: the date filters run inside the read tasks
    # (row-group statistics prune whole groups at crawl scale) instead
    # of shipping dead rows to a transform-side filter
    line = _t(sf_dir, "lineitem",
              ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
              filter=pads.field("l_shipdate") > cutoff)

    def rev_partial(t: pa.Table) -> pa.Table:
        import polars as pl

        ext = np.asarray(t["l_extendedprice"])
        dis = np.asarray(t["l_discount"])
        rev = np.floor(ext * (1 - dis) * 100 + 0.5).astype(np.int64)
        return (pl.DataFrame({
            "l_orderkey": pl.from_arrow(t["l_orderkey"].combine_chunks()),
            "rev": pl.Series(rev),
        }).group_by("l_orderkey").agg(pl.col("rev").sum()).to_arrow())

    rev = bucketed_sum(line.map_batches(rev_partial, batch_format="pyarrow"),
                       ["l_orderkey"], "rev", "revenue_e2")

    cust = _t(sf_dir, "customer", ["c_custkey"],
              filter=pads.field("c_mktsegment") == Q3_SEGMENT)

    def seg(t: pa.Table) -> pa.Table:
        return t.select(["c_custkey"]).rename_columns(["o_custkey"])

    orders = _t(sf_dir, "orders",
                ["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
                filter=pads.field("o_orderdate") < cutoff)

    def o_project(t: pa.Table) -> pa.Table:
        # explicit map projection + rename in one pass
        return pa.table({"l_orderkey": t["o_orderkey"],
                         "o_orderdate": t["o_orderdate"],
                         "o_orderpriority": t["o_orderpriority"]})

    o_seg = hash_join(orders,
                      cust.map_batches(seg, batch_format="pyarrow"),
                      "o_custkey", how="semi") \
        .map_batches(o_project, batch_format="pyarrow")

    joined = hash_join(rev, o_seg, "l_orderkey")
    return joined.sort(["revenue_e2", "l_orderkey"],
                       descending=[True, False]).limit(10)


SQL_Q38 = f"""
SELECT l_orderkey,
       CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                     AS BIGINT)) AS BIGINT) AS revenue_e2,
       o_orderdate, o_orderpriority
FROM customer, orders, lineitem
WHERE c_mktsegment = '{Q3_SEGMENT}'
  AND c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND o_orderdate < DATE '{Q3_DATE}' AND l_shipdate > DATE '{Q3_DATE}'
GROUP BY l_orderkey, o_orderdate, o_orderpriority
ORDER BY revenue_e2 DESC, l_orderkey LIMIT 10
"""


# --- q37: Bloom-prefiltered semi join ----------------------------------------

BIG_PURCHASE_MIN = 150


def q37_events_of_big_purchasers(sf_dir: str):
    """All events of users who ever made a purchase above
    BIG_PURCHASE_MIN — a semi join whose probe side (every event) is the
    big one.  ``bloom_filter_join`` builds a Bloom filter of the
    qualifying users in one streaming pass, broadcasts it once, and
    drops definite-non-member probe rows BEFORE the exchange; the
    in-bucket exact join removes the Bloom's false positives, so the
    result is exactly the plain semi join / EXISTS."""
    import pyarrow.dataset as pads

    from ..functions.bloom import bloom_filter_join

    events = _t(sf_dir, "events", ["event_id", "user_id", "event_type"])

    # the probe side is its own pushed-down read: the filter runs at the
    # scan and only user_id survives it (a lazy Dataset re-executes per
    # consumer anyway, so this costs no extra pass over `events`)
    right = _t(sf_dir, "events", ["user_id"],
               filter=(pads.field("event_type") == "purchase")
               & (pads.field("value") > BIG_PURCHASE_MIN))
    return bloom_filter_join(events, right, "user_id", how="semi",
                             m_bits=1 << 20)


SQL_Q37 = f"""
SELECT event_id, user_id, event_type
FROM events e
WHERE EXISTS (SELECT 1 FROM events p
              WHERE p.user_id = e.user_id
                AND p.event_type = 'purchase'
                AND p.value > {BIG_PURCHASE_MIN})
"""


# --- q33: pivot (long → wide conditional aggregation) -----------------------

PIVOT_TYPES = ("click", "error", "purchase", "signup", "view")


def q33_pivot_user_events(sf_dir: str):
    """Pivot: one row per user with a count column per event type plus a
    total.  Per-batch partial pivot (each map task emits at most one row
    per user it saw), then ONE exchange summing all six columns — the
    fused-stats pattern; never a shuffle per pivoted column."""
    from ..functions.grouping import bucketed_sum_multi

    ev = _t(sf_dir, "events", ["user_id", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        import polars as pl

        return (pl.from_arrow(t).group_by("user_id").agg(
            *[(pl.col("event_type") == ty).sum().cast(pl.Int64)
              .alias(f"n_{ty}") for ty in PIVOT_TYPES],
            pl.len().cast(pl.Int64).alias("n_total"),
        ).to_arrow())

    part = ev.map_batches(partial, batch_format="pyarrow")
    cols = {f"n_{ty}": f"n_{ty}" for ty in PIVOT_TYPES}
    cols["n_total"] = "n_total"
    return bucketed_sum_multi(part, ["user_id"], cols)


SQL_Q33 = "SELECT user_id, " + ", ".join(
    f"CAST(sum(CASE WHEN event_type = '{ty}' THEN 1 ELSE 0 END) AS BIGINT)"
    f" AS n_{ty}" for ty in PIVOT_TYPES
) + ", count(*) AS n_total FROM events GROUP BY 1"


def q34_unpivot_user_events(sf_dir: str):
    """Unpivot (wide → long melt) of the q33 pivot — a pure streaming
    map over the wide table, no shuffle beyond the pivot's own."""

    def melt(t: pa.Table) -> pa.Table:
        import polars as pl

        out = pl.from_arrow(t).unpivot(
            on=[f"n_{ty}" for ty in PIVOT_TYPES], index="user_id",
            variable_name="event_type", value_name="n",
        ).with_columns(pl.col("event_type").str.strip_prefix("n_"))
        return out.to_arrow()

    return q33_pivot_user_events(sf_dir).map_batches(
        melt, batch_format="pyarrow")


SQL_Q34 = "WITH p AS (" + SQL_Q33 + ") " + " UNION ALL ".join(
    f"SELECT user_id, '{ty}' AS event_type, n_{ty} AS n FROM p"
    for ty in PIVOT_TYPES)


# --- q28: deterministic top-k per group -------------------------------------

TOPK_PER_GROUP_K = 3


def q28_topk_per_group(sf_dir: str):
    """Longest 3 documents per language (ties by doc_id) via the
    combiner-first ``topk_per_group`` operator: each map task forwards at
    most k rows per group, the exchange moves O(k × groups) rows."""
    from ..functions.grouping import topk_per_group

    docs = _t(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])
    return topk_per_group(docs, "lang", "n_chars", TOPK_PER_GROUP_K,
                          descending=True, tie_cols=["doc_id"])


SQL_Q28 = f"""
SELECT doc_id, lang, n_chars FROM (
  SELECT doc_id, lang, n_chars,
         row_number() OVER (PARTITION BY lang
                            ORDER BY n_chars DESC, doc_id) AS rn
  FROM documents)
WHERE rn <= {TOPK_PER_GROUP_K}
"""


# --- q29: exact distributed quantiles (QUANTILES_E4 defined at q35) ---------

def q29_doc_len_quantiles(sf_dir: str):
    """Exact quantiles of doc length, distributed: per-batch value
    counts (combiner) → one small exchange keyed on the VALUE → driver
    cumsum over the distinct-value histogram.  The driver sees
    O(distinct values) rows — the same bounded-floor pattern as the
    flagship's histogram budget search (pipelines/linkage.py) — never
    the rows themselves; a global sort-based quantile would shuffle the
    whole table instead.  Quantile index matches DuckDB quantile_disc:
    value at sorted position max(1, ceil(q·n)), computed in exact
    integer arithmetic."""
    from ..functions.grouping import bucketed_sum

    docs = _t(sf_dir, "documents", columns=["n_chars"])

    def counts(t: pa.Table) -> pa.Table:
        import polars as pl

        return (pl.from_arrow(t).group_by("n_chars")
                .len(name="c").with_columns(pl.col("c").cast(pl.Int64))
                .to_arrow())

    hist = bucketed_sum(docs.map_batches(counts, batch_format="pyarrow"),
                        ["n_chars"], "c", "c")
    h = hist.to_pandas().sort_values("n_chars").reset_index(drop=True)
    cum = h["c"].cumsum().to_numpy()
    n = int(cum[-1]) if len(cum) else 0
    if n == 0:        # empty input → the SQL twin's (q_e4, NULL) rows
        return pa.table({
            "q_e4": pa.array(list(QUANTILES_E4), type=pa.int64()),
            "value": pa.nulls(len(QUANTILES_E4), type=pa.int64())})
    vals = h["n_chars"].to_numpy()
    out_q, out_v = [], []
    for q_e4 in QUANTILES_E4:
        rank = max(1, -(-q_e4 * n // 10_000))          # ceil, exact ints
        out_q.append(q_e4)
        out_v.append(int(vals[np.searchsorted(cum, rank)]))
    return pa.table({"q_e4": pa.array(out_q, type=pa.int64()),
                     "value": pa.array(out_v, type=pa.int64())})


SQL_Q29 = f"""
SELECT CAST(unnest([{", ".join(str(q) for q in QUANTILES_E4)}]) AS BIGINT) AS q_e4,
       unnest(quantile_disc(n_chars,
              [{", ".join(f"{q / 10_000}" for q in QUANTILES_E4)}])) AS value
FROM documents
"""


# --- q75: full outer join (two-fact-table reconciliation) -------------------

def q75_activity_reconciliation(sf_dir: str):
    """FULL OUTER join of two independently-aggregated fact summaries —
    per-customer big-order spend vs per-user purchase-event activity —
    keeping keys that appear on EITHER side (customers with big orders
    but no events, and event users without big orders), with the key
    coalesced into one column (``hash_join(how="full")``; unmatched-side
    measures filled to 0 so every column stays int64).

    Both inputs pre-aggregate down to one skinny row per key BEFORE the
    join, so only O(distinct keys) rows cross the full-join exchange —
    at 100 TB the facts stream through combiners and never meet raw.

    Reference analog: the solution ⋈ ground-truth reconciliation
    (eval/EvalOnDatasets.scala) generalised to a symmetric outer merge.
    """
    from ..functions.grouping import bucketed_sum_multi, hash_join

    import pyarrow.dataset as pads

    orders = _t(sf_dir, "orders", ["o_custkey", "o_totalprice"],
                filter=pads.field("o_totalprice") >= 300000.0)

    def big_partial(t: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(pa.table({
            "c_custkey": t["o_custkey"],
            "spend_e2": pa.array(
                np.floor(np.asarray(t["o_totalprice"]) * 100 + 0.5)
                .astype(np.int64))}))
        return (df.group_by("c_custkey")
                .agg(pl.col("spend_e2").sum().alias("big_spend_e2"),
                     pl.len().cast(pl.Int64).alias("n_big_orders"))
                .to_arrow())

    # partial-combine per batch, ONE exchange per side (never a native
    # sort shuffle over the raw facts) — 6.8 s → ~3.7 s at sf0.1
    spend = bucketed_sum_multi(
        orders.map_batches(big_partial, batch_format="pyarrow"),
        ["c_custkey"], {"big_spend_e2": "big_spend_e2",
                        "n_big_orders": "n_big_orders"})

    events = _t(sf_dir, "events", ["user_id", "value"],
                filter=pads.field("event_type") == "purchase")

    def purch_partial(t: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(pa.table({
            "c_custkey": t["user_id"],
            "val_e4": pa.array(
                np.floor(np.asarray(t["value"]) * 10000 + 0.5)
                .astype(np.int64))}))
        return (df.group_by("c_custkey")
                .agg(pl.col("val_e4").sum().alias("purchase_value_e4"),
                     pl.len().cast(pl.Int64).alias("n_purchases"))
                .to_arrow())

    activity = bucketed_sum_multi(
        events.map_batches(purch_partial, batch_format="pyarrow"),
        ["c_custkey"], {"purchase_value_e4": "purchase_value_e4",
                        "n_purchases": "n_purchases"})

    joined = hash_join(spend, activity, "c_custkey", how="full")

    def fill(t: pa.Table) -> pa.Table:
        return pa.table({c: (t[c] if c == "c_custkey"
                             else pc.fill_null(t[c], 0))
                         for c in t.column_names})

    return joined.map_batches(fill, batch_format="pyarrow")


# --- q83: zone-map clustered layout + pruned range read ----------------------

Q83_LO, Q83_HI = 100, 300    # partkey range; literals mirrored in the SQL


def q83_zone_map_prune(sf_dir: str):
    """Range query over a KEY-CLUSTERED layout (state/clustered.py):
    lineitem is written once range-partitioned on l_partkey (one sorted
    file per quantile-balanced range + zone-map manifest), then the
    range query reads ONLY the overlapping files (manifest prune +
    residual filter) and aggregates revenue per returnflag — the
    prune-at-the-read discipline made a storage-layout feature: at
    100 TB the query touches O(selectivity) bytes, not the table.

    The clustered copy is cached per sf dir (idempotent manifest);
    pruning effectiveness is pinned in tests/test_clustered.py."""
    from ray.data.aggregate import Sum

    from ..state.clustered import clustered_write, pruned_read

    out_dir = os.path.join(
        "/tmp/pboh_clustered",
        f"{os.path.basename(os.path.normpath(sf_dir))}_lineitem_partkey")
    ds = _t(sf_dir, "lineitem",
            ["l_partkey", "l_returnflag", "l_extendedprice", "l_discount"])
    clustered_write(ds, "l_partkey", out_dir, n_files=8)

    def rev(t: pa.Table) -> pa.Table:
        x = (np.asarray(t["l_extendedprice"])
             * (1.0 - np.asarray(t["l_discount"])))
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "rev_e4": pa.array(np.floor(x * 10000 + 0.5).astype(np.int64)),
        })

    return (pruned_read(out_dir, Q83_LO, Q83_HI)
            .map_batches(rev, batch_format="pyarrow")
            .groupby("l_returnflag")
            .aggregate(Sum("rev_e4", alias_name="revenue_e4")))


SQL_Q83 = f"""
SELECT l_returnflag,
       CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 10000 + 0.5)
                     AS BIGINT)) AS BIGINT) AS revenue_e4
FROM lineitem
WHERE l_partkey BETWEEN {Q83_LO} AND {Q83_HI}
GROUP BY l_returnflag
"""


# --- q82: composite-key join ---------------------------------------------

def q82_event_type_freq(sf_dir: str):
    """Each event enriched with how often its (user, event_type)
    combination occurs — a join on a COMPOSITE equality key
    (``hash_join(on=["user_id", "event_type"])``): rows route by a
    packed row-hash of the key tuple, the in-bucket join matches on the
    real column list, so multi-column equality is exact with one
    exchange and no packed key in the output."""
    from ray.data.aggregate import Count

    from ..functions.grouping import hash_join

    events = _t(sf_dir, "events", ["event_id", "user_id", "event_type"])
    counts = (events.groupby(["user_id", "event_type"])
              .aggregate(Count(alias_name="type_count")))
    # materialized: the aggregate runs once, before the join streams it
    return hash_join(events, counts.materialize(),
                     ["user_id", "event_type"])


SQL_Q82 = """
SELECT e.event_id, e.user_id, e.event_type, c.type_count
FROM events e
JOIN (SELECT user_id, event_type, count(*) AS type_count
      FROM events GROUP BY 1, 2) c
USING (user_id, event_type)
"""


# --- q80: robust per-group outlier flagging (median / MAD) -------------------

MAD_K = 2   # flag |x − median| > MAD_K × MAD; literal mirrored in the SQL


def q80_mad_outliers(sf_dir: str):
    """Robust per-group outlier detection: documents whose length
    deviates from their language's median by more than MAD_K× the
    language's MAD (median absolute deviation) — the data-cleaning
    filter that survives heavy-tailed length distributions where
    mean/stddev z-scores break.

    Physical plan: per-batch (lang, n_chars) value counts (combiner) →
    ONE exchange keyed on lang; each bucket holds its languages' whole
    value histograms and derives BOTH the median and the MAD from the
    histogram alone — the abs-deviation histogram is a re-keyed
    permutation of the value histogram, so NO second pass over the data
    (q35's exact-quantile machinery, composed twice in one task).  The
    O(langs) threshold table then broadcasts into a streaming flag pass.
    Integer-exact throughout (quantile_disc rank arithmetic)."""
    from ..functions.grouping import _bcast_frame, hash_exchange

    docs = _t(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])

    def counts(t: pa.Table) -> pa.Table:
        import polars as pl

        return (pl.from_arrow(t.select(["lang", "n_chars"]))
                .group_by(["lang", "n_chars"])
                .len(name="c").with_columns(pl.col("c").cast(pl.Int64))
                .to_arrow())

    def med_mad(t: pa.Table) -> pa.Table:
        import polars as pl

        if t.num_rows == 0:
            return pa.table({"lang": pa.array([], type=pa.large_string()),
                             "lang_median": pa.array([], type=pa.int64()),
                             "lang_mad": pa.array([], type=pa.int64())})
        df = (pl.from_arrow(t).group_by(["lang", "n_chars"])
              .agg(pl.col("c").sum()).sort(["lang", "n_chars"]))
        langs = df["lang"].to_numpy()
        vals = df["n_chars"].to_numpy()
        cnts = df["c"].to_numpy()
        starts = np.flatnonzero(np.r_[True, langs[1:] != langs[:-1]])
        bounds = np.append(starts, len(langs))
        out_l, out_m, out_d = [], [], []
        for s, e in zip(bounds[:-1], bounds[1:]):
            v, c = vals[s:e], cnts[s:e]
            cum = np.cumsum(c)
            n = int(cum[-1])
            rank = (n + 1) // 2                 # quantile_disc 0.5
            med = int(v[np.searchsorted(cum, rank)])
            adev = np.abs(v - med)              # same counts, new keys
            order = np.argsort(adev, kind="stable")
            cum2 = np.cumsum(c[order])
            mad = int(adev[order][np.searchsorted(cum2, rank)])
            out_l.append(langs[s])
            out_m.append(med)
            out_d.append(mad)
        return pa.table({"lang": pa.array(out_l, type=pa.large_string()),
                         "lang_median": pa.array(out_m, type=pa.int64()),
                         "lang_mad": pa.array(out_d, type=pa.int64())})

    part = docs.map_batches(counts, batch_format="pyarrow")
    thr = pa.concat_tables(
        b.cast(pa.schema([("lang", pa.string()),
                          ("lang_median", pa.int64()),
                          ("lang_mad", pa.int64())]))
        for b in hash_exchange(part, "lang", med_mad, num_buckets=16)
        .iter_batches(batch_format="pyarrow"))
    tref = ray.put(thr)

    def flag(t: pa.Table) -> pa.Table:
        import polars as pl

        out = (pl.from_arrow(t)
               .join(_bcast_frame(tref), on="lang", how="inner")
               .filter((pl.col("n_chars") - pl.col("lang_median")).abs()
                       > MAD_K * pl.col("lang_mad")))
        return out.select(["doc_id", "lang", "n_chars",
                           "lang_median", "lang_mad"]).to_arrow()

    return docs.map_batches(flag, batch_format="pyarrow")


SQL_Q80 = f"""
WITH med AS (
  SELECT lang, CAST(quantile_disc(n_chars, 0.5) AS BIGINT) AS lang_median
  FROM documents GROUP BY lang),
dev AS (
  SELECT d.doc_id, d.lang, d.n_chars, m.lang_median,
         abs(d.n_chars - m.lang_median) AS adev
  FROM documents d JOIN med m USING (lang)),
mad AS (
  SELECT lang, CAST(quantile_disc(adev, 0.5) AS BIGINT) AS lang_mad
  FROM dev GROUP BY lang)
SELECT v.doc_id, v.lang, CAST(v.n_chars AS BIGINT) AS n_chars,
       v.lang_median, b.lang_mad
FROM dev v JOIN mad b USING (lang)
WHERE v.adev > {MAD_K} * b.lang_mad
"""


# --- q79: data-quality expectation report ------------------------------------

EXPECTED_EVENT_TYPES = ("signup", "click", "error", "view", "purchase")


def q79_data_expectations(sf_dir: str):
    """Schema/constraint expectation report over the events table — the
    data-quality gate a production ingest runs before promoting a batch:
    row count, null foreign keys, out-of-range measures, enum-domain
    violations, and duplicate primary keys, as one long-form
    (check_name, n) table.

    Every per-row check is a vectorized per-batch partial count (4
    skinny rows per batch) summed in one tiny aggregate — a 100 TB table
    produces O(batches) report rows, never a row-level shuffle.  The
    uniqueness check is the only one that needs key co-location: partial
    (event_id, c) counts ride ONE bucketed exchange and each bucket
    contributes Σ(c−1) over its duplicated keys.

    NULL semantics match SQL: a NULL event_type is not counted as an
    enum violation (NOT IN is NULL), a NULL value is not out-of-range.
    """
    from ray.data.aggregate import Sum

    from ..functions.grouping import bucketed_sum

    events = _t(sf_dir, "events", ["event_id", "user_id", "event_type",
                                   "value"])
    allowed = pa.array(EXPECTED_EVENT_TYPES)

    def partial(t: pa.Table) -> pa.Table:
        v = np.asarray(pc.fill_null(t["value"], float("nan")),
                       dtype=np.float64)
        bad_type = pc.sum(
            pc.invert(pc.is_in(t["event_type"], value_set=allowed))).as_py()
        return pa.table({
            "check_name": pa.array(["rows", "null_user_id",
                                    "negative_value", "unknown_event_type"]),
            "n": pa.array([t.num_rows, t["user_id"].null_count,
                           int((v < 0).sum()), int(bad_type or 0)],
                          type=pa.int64()),
        })

    simple = events.map_batches(partial, batch_format="pyarrow")

    def id_counts(t: pa.Table) -> pa.Table:
        import polars as pl

        return (pl.from_arrow(t.select(["event_id"]))
                .group_by("event_id").len(name="c")
                .with_columns(pl.col("c").cast(pl.Int64)).to_arrow())

    full_counts = bucketed_sum(
        events.map_batches(id_counts, batch_format="pyarrow"),
        ["event_id"], "c", "c")

    def dup_partial(t: pa.Table) -> pa.Table:
        c = np.asarray(t["c"])
        return pa.table({
            "check_name": pa.array(["duplicate_event_id"]),
            "n": pa.array([int(np.maximum(c - 1, 0).sum())], type=pa.int64()),
        })

    dup = full_counts.map_batches(dup_partial, batch_format="pyarrow")
    return simple.union(dup).groupby("check_name").aggregate(
        Sum("n", alias_name="n"))


SQL_Q79 = """
SELECT 'rows' AS check_name, count(*) AS n FROM events
UNION ALL
SELECT 'null_user_id', count(*) FILTER (WHERE user_id IS NULL) FROM events
UNION ALL
SELECT 'negative_value', count(*) FILTER (WHERE value < 0) FROM events
UNION ALL
SELECT 'unknown_event_type',
       count(*) FILTER (WHERE event_type NOT IN
           ('signup', 'click', 'error', 'view', 'purchase'))
FROM events
UNION ALL
SELECT 'duplicate_event_id', count(*) - count(DISTINCT event_id) FROM events
"""


# --- q76: TPC-H-Q5-shaped 6-table multiway join ------------------------------

def q76_region_revenue(sf_dir: str):
    """Local-supplier revenue per nation inside one region (the TPC-H Q5
    shape): region ⋈ nation ⋈ customer ⋈ orders ⋈ lineitem ⋈ supplier.

    Physical plan — TWO fact exchanges total, everything else broadcast:

    - region→nation resolved DRIVER-side (tiny dims) into an allowed
      nation set + name map;
    - customer pruned at the read (2 columns, region filter) → skinny
      (c_custkey, c_nationkey);
    - orders date-filtered and projected → (o_orderkey, c_custkey);
      ``hash_join`` #1 attaches c_nationkey, with the projection fused
      into the bucket task (``post``);
    - supplier (bounded dim) is ``ray.put`` ONCE; lineitem revenue rows
      meet join #1's output in ``hash_join`` #2 on o_orderkey, and the
      supplier probe, same-nation filter and partial revenue SUM are all
      fused into the bucket task — the wide joined rows never cross an
      operator boundary;
    - final groupby over O(nations × buckets) partial rows.

    At 100 TB: lineitem and orders stream through combiners and two
    key-partitioned exchanges; no all-to-all carries more than the
    skinny projected columns.
    """
    import pyarrow.parquet as pq
    from ray.data.aggregate import Sum

    from ..functions.grouping import _bcast_frame, hash_join

    region = pq.read_table(f"{sf_dir}/region.parquet")
    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    rkey = region.filter(pc.equal(region["r_name"], "ASIA"))["r_regionkey"]
    nat = nation.filter(pc.is_in(nation["n_regionkey"], value_set=rkey))
    name_map = dict(zip(nat["n_nationkey"].to_pylist(),
                        nat["n_name"].to_pylist()))

    import pyarrow.dataset as pads

    # region membership pushed INTO the customer scan (the driver already
    # resolved the tiny region→nation dims to a key list)
    cust = _t(sf_dir, "customer", ["c_custkey", "c_nationkey"],
              filter=pads.field("c_nationkey").isin(list(name_map)))

    orders = _t(
        sf_dir, "orders", ["o_orderkey", "o_custkey"],
        filter=(pads.field("o_orderdate")
                >= pd.Timestamp("1996-01-01").to_pydatetime())
        & (pads.field("o_orderdate")
           < pd.Timestamp("1997-01-01").to_pydatetime()))

    def o_window(t: pa.Table) -> pa.Table:
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "c_custkey": t["o_custkey"]})

    j1 = hash_join(orders.map_batches(o_window, batch_format="pyarrow"),
                   cust, "c_custkey",
                   post=lambda t: t.select(["o_orderkey", "c_nationkey"]))

    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_nationkey"])
    sup_ref = ray.put(sup.rename_columns(["l_suppkey", "s_nationkey"]))

    line = _t(sf_dir, "lineitem",
              ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"])

    def l_rev(t: pa.Table) -> pa.Table:
        rev = (np.asarray(t["l_extendedprice"])
               * (1.0 - np.asarray(t["l_discount"])))
        return pa.table({
            "o_orderkey": t["l_orderkey"],
            "l_suppkey": t["l_suppkey"],
            "rev_e4": pa.array(np.floor(rev * 10000 + 0.5).astype(np.int64)),
        })

    def fuse(t: pa.Table) -> pa.Table:
        import polars as pl

        return (pl.from_arrow(t)
                .join(_bcast_frame(sup_ref), on="l_suppkey", how="inner")
                .filter(pl.col("s_nationkey") == pl.col("c_nationkey"))
                .group_by("c_nationkey")
                .agg(pl.col("rev_e4").sum())
                .to_arrow())

    j2 = hash_join(line.map_batches(l_rev, batch_format="pyarrow"),
                   j1, "o_orderkey", post=fuse)
    agg = j2.groupby("c_nationkey").aggregate(
        Sum("rev_e4", alias_name="revenue_e4"))

    def named(t: pa.Table) -> pa.Table:
        names = [name_map[k] for k in t["c_nationkey"].to_pylist()]
        return pa.table({"n_name": pa.array(names, type=pa.string()),
                         "revenue_e4": t["revenue_e4"]})

    return agg.map_batches(named, batch_format="pyarrow")


SQL_Q76 = """
SELECT n_name,
       CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 10000 + 0.5)
                     AS BIGINT)) AS BIGINT) AS revenue_e4
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = 'ASIA'
  AND o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate <  TIMESTAMP '1997-01-01'
GROUP BY n_name
"""


SQL_Q75 = """
WITH spend AS (
  SELECT o_custkey AS c_custkey,
         CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
             AS big_spend_e2,
         count(*) AS n_big_orders
  FROM orders WHERE o_totalprice >= 300000 GROUP BY 1),
activity AS (
  SELECT user_id AS c_custkey,
         CAST(sum(CAST(floor(value * 10000 + 0.5) AS BIGINT)) AS BIGINT)
             AS purchase_value_e4,
         count(*) AS n_purchases
  FROM events WHERE event_type = 'purchase' GROUP BY 1)
SELECT COALESCE(s.c_custkey, a.c_custkey) AS c_custkey,
       COALESCE(big_spend_e2, 0)          AS big_spend_e2,
       COALESCE(n_big_orders, 0)          AS n_big_orders,
       COALESCE(purchase_value_e4, 0)     AS purchase_value_e4,
       COALESCE(n_purchases, 0)           AS n_purchases
FROM spend s FULL OUTER JOIN activity a ON s.c_custkey = a.c_custkey
"""


# --- q92: per-user feature-vector assembly (feature-store materialize) -----

Q92_SESSION_GAP_MIN = 30     # session break threshold, mirrored in SQL


def q92_user_features(sf_dir: str):
    """Wide per-user feature table — the feature-store materialization
    every behavioral ML pipeline ends in: event count, distinct event
    types, active-span days, session count (30-min-gap sessionization),
    purchase count, total purchase cents, and mean inter-event gap —
    ALL from ONE user-keyed exchange: a user's full history co-locates,
    so distinct counts, ordered gaps, and session breaks are local
    vectorized polars windows, and the output is one O(users) table.
    The q14 sessionize / q31 distinct / q86 sufficient-stat recipes
    composed into a single co-location pass."""
    import polars as pl

    from ..functions.grouping import hash_exchange

    ev = _t(sf_dir, "events",
            ["user_id", "ts", "event_type", "value"])

    def project(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return pa.table({
                "user_id": pa.array([], type=pa.int64()),
                "us": pa.array([], type=pa.int64()),
                "event_type": pa.array([], type=pa.string()),
                "cents": pa.array([], type=pa.int64())})
        return pa.table({
            "user_id": t["user_id"],
            "us": pa.array(np.asarray(t["ts"])
                           .astype("datetime64[us]").astype(np.int64)),
            "event_type": t["event_type"],
            "cents": pa.array(np.floor(
                np.asarray(t["value"]) * 100 + 0.5).astype(np.int64)),
        })

    gap_us = Q92_SESSION_GAP_MIN * 60 * 1_000_000

    def user_bucket(t: pa.Table) -> pa.Table:
        empty = pa.table({
            "user_id": pa.array([], type=pa.int64()),
            "n_events": pa.array([], type=pa.int64()),
            "n_types": pa.array([], type=pa.int64()),
            "span_days": pa.array([], type=pa.int64()),
            "n_sessions": pa.array([], type=pa.int64()),
            "n_purchases": pa.array([], type=pa.int64()),
            "purchase_cents": pa.array([], type=pa.int64()),
            "mean_gap_s": pa.array([], type=pa.int64())})
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return empty
        df = pl.from_arrow(t).sort(["user_id", "us"])
        out = (df.group_by("user_id", maintain_order=True).agg(
            n_events=pl.len().cast(pl.Int64),
            n_types=pl.col("event_type").n_unique().cast(pl.Int64),
            span_days=((pl.col("us").max() - pl.col("us").min())
                       // 86_400_000_000),
            n_sessions=(pl.col("us").diff() > gap_us)
                       .sum().cast(pl.Int64) + 1,
            n_purchases=(pl.col("event_type") == "purchase")
                        .sum().cast(pl.Int64),
            purchase_cents=pl.col("cents")
                           .filter(pl.col("event_type") == "purchase")
                           .sum().cast(pl.Int64),
            # mean inter-event gap in whole seconds (exact integer:
            # (max-min) // (n-1) // 1e6); 0 for single-event users
            mean_gap_s=pl.when(pl.len() > 1)
                        .then((pl.col("us").max() - pl.col("us").min())
                              // (pl.len().cast(pl.Int64) - 1)
                              // 1_000_000)
                        .otherwise(0).cast(pl.Int64),
        ))
        return out.to_arrow().cast(empty.schema)

    return hash_exchange(
        ev.map_batches(project, batch_format="pyarrow"),
        "user_id", user_bucket, num_buckets=32)


SQL_Q92 = f"""
SELECT CAST(user_id AS BIGINT) AS user_id,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(count(DISTINCT event_type) AS BIGINT) AS n_types,
       CAST((max(us) - min(us)) // 86400000000 AS BIGINT) AS span_days,
       CAST(sum(CASE WHEN gap_us > {Q92_SESSION_GAP_MIN * 60 * 1000000}
                     THEN 1 ELSE 0 END) + 1 AS BIGINT) AS n_sessions,
       CAST(sum(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END)
            AS BIGINT) AS n_purchases,
       CAST(coalesce(sum(CASE WHEN event_type = 'purchase'
                              THEN CAST(FLOOR(value * 100 + 0.5) AS BIGINT)
                              END), 0) AS BIGINT) AS purchase_cents,
       CAST(CASE WHEN count(*) > 1
                 THEN ((max(us) - min(us)) // (count(*) - 1)) // 1000000
                 ELSE 0 END AS BIGINT) AS mean_gap_s
FROM (
  SELECT user_id, event_type, value, epoch_us(ts) AS us,
         epoch_us(ts) - lag(epoch_us(ts)) OVER
             (PARTITION BY user_id ORDER BY ts) AS gap_us
  FROM events
)
GROUP BY user_id
"""


# --- q91: semi-structured (JSON) column extraction + stats -----------------

def q91_props_stats(sf_dir: str):
    """Per-event-type stats over a field EXTRACTED from the JSON
    ``props`` column — the semi-structured-payload discipline (every
    event pipeline carries one): vectorized ``json_path_match`` per
    batch (never a Python json.loads loop), per-batch sufficient-stat
    partials (n/sum/min/max, ≤ one row per type per batch) plus
    per-batch-deduped (type, k) rows for the EXACT distinct count, both
    riding ONE event_type-keyed exchange as a kind-tagged long table.
    The 5-key exchange is hot-key-safe because the combiner has already
    collapsed batches to O(types + distinct k) rows each."""
    import polars as pl

    from ..functions.grouping import hash_exchange

    ev = _t(sf_dir, "events", ["event_type", "props"])

    _EMPTY = pa.schema([("event_type", pa.string()), ("kind", pa.int8()),
                        ("k", pa.int64()), ("n", pa.int64()),
                        ("s", pa.int64()), ("mn", pa.int64()),
                        ("mx", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "props" not in t.column_names:
            return _EMPTY.empty_table()
        df = (pl.from_arrow(t)
              .with_columns(k=pl.col("props").str.json_path_match("$.k")
                            .cast(pl.Int64))
              .drop_nulls("k"))
        sums = (df.group_by("event_type")
                .agg(n=pl.len().cast(pl.Int64), s=pl.col("k").sum(),
                     mn=pl.col("k").min(), mx=pl.col("k").max())
                .with_columns(kind=pl.lit(0, dtype=pl.Int8),
                              k=pl.lit(0, dtype=pl.Int64)))
        uniq = (df.select(["event_type", "k"]).unique()
                .with_columns(kind=pl.lit(1, dtype=pl.Int8),
                              n=pl.lit(0, dtype=pl.Int64),
                              s=pl.lit(0, dtype=pl.Int64),
                              mn=pl.lit(0, dtype=pl.Int64),
                              mx=pl.lit(0, dtype=pl.Int64)))
        cols = ["event_type", "kind", "k", "n", "s", "mn", "mx"]
        return (pl.concat([sums.select(cols), uniq.select(cols)])
                .to_arrow().cast(_EMPTY))

    _OUT = pa.schema([("event_type", pa.string()),
                      ("n_events", pa.int64()), ("sum_k", pa.int64()),
                      ("min_k", pa.int64()), ("max_k", pa.int64()),
                      ("distinct_k", pa.int64())])

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "event_type" not in t.column_names:
            return _OUT.empty_table()
        df = pl.from_arrow(t)
        sums = (df.filter(pl.col("kind") == 0).group_by("event_type")
                .agg(n_events=pl.col("n").sum(), sum_k=pl.col("s").sum(),
                     min_k=pl.col("mn").min(), max_k=pl.col("mx").max()))
        uniq = (df.filter(pl.col("kind") == 1)
                .select(["event_type", "k"]).unique()
                .group_by("event_type").len(name="distinct_k")
                .with_columns(pl.col("distinct_k").cast(pl.Int64)))
        # cast: polars emits large_string — live and empty paths must
        # share one schema (the exchange stable-schema contract)
        return (sums.join(uniq, on="event_type", how="inner")
                .to_arrow().cast(_OUT))

    return hash_exchange(ev.map_batches(partial, batch_format="pyarrow"),
                         "event_type", finish, num_buckets=4)


SQL_Q91 = """
SELECT event_type,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(k) AS BIGINT) AS sum_k,
       CAST(min(k) AS BIGINT) AS min_k,
       CAST(max(k) AS BIGINT) AS max_k,
       CAST(count(DISTINCT k) AS BIGINT) AS distinct_k
FROM (SELECT event_type,
             CAST(json_extract_string(props, '$.k') AS BIGINT) AS k
      FROM events)
WHERE k IS NOT NULL
GROUP BY event_type
"""


# --- q196: schema-evolution read (union-by-name over divergent shards) -----


def _evolving_shards(sf_dir: str) -> tuple[str, str]:
    """Deterministic two-shard table with a schema break, built once
    beside the sf dir's cache (atomic tmp+rename): the OLD shard holds
    (doc_id, n_chars) of the even documents, the NEW shard adds the
    ``lang`` column for the odd ones — the accreted-column layout every
    long-lived 100 TB table ends up with."""
    import pyarrow.parquet as pq

    from ..state.checkpoint import private_build

    tag = os.path.basename(os.path.normpath(sf_dir))
    d = f"/tmp/pboh_ray_evolving/{tag}"
    old_p, new_p = f"{d}/old.parquet", f"{d}/new.parquet"
    def complete() -> bool:
        return os.path.exists(old_p) and os.path.exists(new_p)

    if not complete():
        t = pq.read_table(f"{sf_dir}/documents.parquet",
                          columns=["doc_id", "n_chars", "lang"])
        even = t.filter(pc.equal(pc.bit_wise_and(t["doc_id"], 1), 0))
        odd = t.filter(pc.equal(pc.bit_wise_and(t["doc_id"], 1), 1))
        with private_build(d, complete) as tmp:
            pq.write_table(even.select(["doc_id", "n_chars"]),
                           f"{tmp}/old.parquet")
            pq.write_table(odd.select(["doc_id", "n_chars", "lang"]),
                           f"{tmp}/new.parquet")
    return old_p, new_p


def q196_schema_evolution_read(sf_dir: str):
    """Schema-evolved read as an operator: a shard directory whose newer
    files accreted a ``lang`` column reads as ONE dataset via
    ``read_parquet_clean(union_by_name=True)`` (old rows null-filled),
    then a per-lang rollup — nulls folding into 'unknown' — proves every
    row of both generations survived.  DuckDB's
    ``read_parquet(union_by_name=true)`` is the exact twin."""
    import polars as pl

    from ..functions.grouping import bucketed_sum_multi
    from ..sources.reading import read_parquet_clean

    old_p, new_p = _evolving_shards(sf_dir)
    ds = read_parquet_clean(os.path.dirname(old_p), union_by_name=True)

    _PART = pa.schema([("lang", pa.string()), ("n_docs", pa.int64()),
                       ("sum_chars", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "doc_id" not in t.column_names:
            return _PART.empty_table()
        lang = t["lang"] if "lang" in t.column_names else pa.nulls(
            t.num_rows, type=pa.string())
        df = pl.DataFrame({
            "lang": pl.from_arrow(pa.chunked_array([lang.combine_chunks()])
                                  if isinstance(lang, pa.ChunkedArray)
                                  else pa.chunked_array([lang])),
            "n_chars": np.asarray(t["n_chars"], dtype=np.int64)})
        out = (df.with_columns(pl.col("lang").fill_null("unknown"))
               .group_by("lang")
               .agg(n_docs=pl.len().cast(pl.Int64),
                    sum_chars=pl.col("n_chars").sum().cast(pl.Int64)))
        return out.to_arrow().cast(_PART)

    return bucketed_sum_multi(
        ds.map_batches(partial, batch_format="pyarrow"), ["lang"],
        {"n_docs": "n_docs", "sum_chars": "sum_chars"},
        num_buckets=2).sort("lang")


EVOLVE_SQL_DIR = "/tmp/pboh_ray_evolving/sf0.01"   # the driver's
                                                   # compare scale; the
                                                   # sf0.001 pytest
                                                   # path-rewrites it


def _sql_q196() -> str:
    # shard files are a deterministic function of the sf documents
    # table, built by the Ray query before either engine reads them
    return f"""
SELECT COALESCE(lang, 'unknown') AS lang,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(n_chars) AS BIGINT) AS sum_chars
FROM read_parquet(['{EVOLVE_SQL_DIR}/old.parquet',
                   '{EVOLVE_SQL_DIR}/new.parquet'], union_by_name=true)
GROUP BY 1 ORDER BY lang
"""


# --- q116: snapshot diff (dataset-versioning added/deleted/changed) --------

DIFF_ABSENT = -1          # sentinel for "no value on this side"


def q116_snapshot_diff(sf_dir: str):
    """Snapshot diff between two dataset versions — the dataset-
    versioning primitive behind "what changed between crawl N and crawl
    N+1": emit one row per ADDED / DELETED / CHANGED key, unchanged keys
    drop.  The two versions are derived deterministically from the
    events table (v1 lacks ``event_id % 13 == 5``, v2 lacks
    ``% 11 == 3`` and bumps ``value`` by 1.0 where ``% 7 == 0``) so the
    diff has all three classes at every scale with no external data.

    Values are reduced to exact e2 integers BEFORE the join (the float
    tree ``floor(value*100 + 0.5)`` is mirrored token-for-token in the
    twin), so the exchange ships only (int64 key, int64 value) rows and
    the change test is exact integer equality.  One full-outer
    ``hash_join`` co-partitions both versions; the classify/filter step
    rides the join's ``post`` hook, so the matched bulk (unchanged rows,
    the vast majority at web scale) dies inside the bucket task and
    never crosses the object store."""
    import polars as pl

    from ..functions.grouping import hash_join

    empty = pa.table({"event_id": pa.array([], type=pa.int64()),
                      "change": pa.array([], type=pa.string()),
                      "v_old": pa.array([], type=pa.int64()),
                      "v_new": pa.array([], type=pa.int64())})

    def v_old(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"event_id": pa.array([], type=pa.int64()),
                             "v_old": pa.array([], type=pa.int64())})
        ids = np.asarray(t["event_id"], dtype=np.int64)
        val = np.asarray(t["value"], dtype=np.float64)
        keep = ids % 13 != 5
        return pa.table({
            "event_id": pa.array(ids[keep], type=pa.int64()),
            "v_old": pa.array(np.floor(val[keep] * 100 + 0.5)
                              .astype(np.int64), type=pa.int64())})

    def v_new(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"event_id": pa.array([], type=pa.int64()),
                             "v_new": pa.array([], type=pa.int64())})
        ids = np.asarray(t["event_id"], dtype=np.int64)
        val = np.asarray(t["value"], dtype=np.float64)
        keep = ids % 11 != 3
        bumped = np.where(ids % 7 == 0, val + 1.0, val)
        return pa.table({
            "event_id": pa.array(ids[keep], type=pa.int64()),
            "v_new": pa.array(np.floor(bumped[keep] * 100 + 0.5)
                              .astype(np.int64), type=pa.int64())})

    def classify(j: pa.Table) -> pa.Table:
        if j.num_rows == 0 or "event_id" not in j.column_names:
            return empty
        df = (pl.from_arrow(j)
              .filter(pl.col("v_old").is_null() | pl.col("v_new").is_null()
                      | (pl.col("v_old") != pl.col("v_new")))
              .with_columns(
                  change=pl.when(pl.col("v_new").is_null())
                           .then(pl.lit("deleted"))
                           .when(pl.col("v_old").is_null())
                           .then(pl.lit("added"))
                           .otherwise(pl.lit("changed")),
                  v_old=pl.col("v_old").fill_null(DIFF_ABSENT),
                  v_new=pl.col("v_new").fill_null(DIFF_ABSENT))
              .select(["event_id", "change", "v_old", "v_new"]))
        return df.to_arrow().cast(empty.schema)

    ev = _t(sf_dir, "events", ["event_id", "value"])
    old = ev.map_batches(v_old, batch_format="pyarrow")
    new = ev.map_batches(v_new, batch_format="pyarrow")
    return hash_join(old, new, "event_id", how="full", post=classify)


SQL_Q116 = f"""
WITH v1 AS (
  SELECT event_id, CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS v_old
  FROM events WHERE event_id % 13 != 5
),
v2 AS (
  SELECT event_id,
         CAST(FLOOR((CASE WHEN event_id % 7 = 0 THEN value + 1.0
                          ELSE value END) * 100 + 0.5) AS BIGINT) AS v_new
  FROM events WHERE event_id % 11 != 3
)
SELECT COALESCE(v1.event_id, v2.event_id) AS event_id,
       CASE WHEN v2.event_id IS NULL THEN 'deleted'
            WHEN v1.event_id IS NULL THEN 'added'
            ELSE 'changed' END AS change,
       COALESCE(v_old, {DIFF_ABSENT}) AS v_old,
       COALESCE(v_new, {DIFF_ABSENT}) AS v_new
FROM v1 FULL OUTER JOIN v2 ON v1.event_id = v2.event_id
WHERE v1.event_id IS NULL OR v2.event_id IS NULL OR v_old != v_new
"""


# --- q147: grouped weighted median ------------------------------------------

def q147_weighted_median(sf_dir: str):
    """Exact quantity-weighted median unit price per return flag — the
    grouped WEIGHTED order statistic (robust price point where each row
    counts by volume, not once).  Definition: smallest value v with
    2·cumweight(≤v) ≥ totalweight — pure integer comparisons, so both
    engines pick the identical row with no interpolation float.

    Shape: per-batch (group, value) weight partials collapse duplicates
    (prices repeat heavily) → ONE exchange keyed on the GROUP (a
    group's value histogram co-locates; O(distinct values) rows move,
    never lineitem) → per-group sort + cumsum + first-true probe,
    vectorized over all groups in the bucket with one lexsort — the
    q29 histogram-quantile discipline extended with weights."""
    import polars as pl

    from ..functions.grouping import hash_exchange

    li = _t(sf_dir, "lineitem",
            ["l_returnflag", "l_extendedprice", "l_quantity"])

    _PART = pa.schema([("grp", pa.string()), ("v", pa.int64()),
                       ("w_p", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "l_returnflag" not in t.column_names:
            return _PART.empty_table()
        return (pl.DataFrame({
            "grp": pl.from_arrow(t["l_returnflag"].combine_chunks()),
            "v": np.floor(np.asarray(t["l_extendedprice"]) * 100
                          + 0.5).astype(np.int64),
            "w_p": np.floor(np.asarray(t["l_quantity"])
                            + 0.5).astype(np.int64)})
            .group_by(["grp", "v"]).agg(pl.col("w_p").sum())
            .to_arrow().cast(_PART))

    _OUT = pa.schema([("grp", pa.string()), ("wmedian_cents", pa.int64()),
                      ("total_weight", pa.int64())])

    def pick(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "grp" not in t.column_names:
            return _OUT.empty_table()
        df = (pl.from_arrow(t).group_by(["grp", "v"])
              .agg(w=pl.col("w_p").sum()).sort(["grp", "v"]))
        g = df["grp"].to_numpy()
        v = df["v"].to_numpy().astype(np.int64)
        w = df["w"].to_numpy().astype(np.int64)
        starts = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
        cw = np.cumsum(w)
        base = np.repeat(np.r_[0, cw[starts[1:] - 1]],
                         np.diff(np.append(starts, len(g))))
        cumw = cw - base
        tot = np.repeat(np.add.reduceat(w, starts),
                        np.diff(np.append(starts, len(g))))
        ok = 2 * cumw >= tot
        # first qualifying row per group (ok is monotone within a group);
        # O(groups) loop over segments, not rows
        idx = np.asarray(
            [st + int(np.argmax(ok[st:en]))
             for st, en in zip(starts, np.append(starts[1:], len(g)))],
            dtype=np.int64)
        return pa.table({
            "grp": pa.array(g[idx].tolist(), type=pa.string()),
            "wmedian_cents": pa.array(v[idx]),
            "total_weight": pa.array(tot[idx]),
        })

    parts = li.map_batches(partial, batch_format="pyarrow")
    return hash_exchange(parts, "grp", pick, num_buckets=4)


# --- q150: RFM customer segmentation ----------------------------------------

_US_DAY = 86_400_000_000


def _qdisc_from_hist(vals: np.ndarray, cnts: np.ndarray, q: float) -> int:
    """DuckDB ``quantile_disc`` on a (sorted distinct value, count)
    histogram: the value at sorted position max(1, ceil(q·n)) — the q29
    rule, computed from O(distinct) rows instead of the rows."""
    cum = np.cumsum(cnts)
    n = int(cum[-1])
    pos = max(1, -(-int(q * 1e6) * n // 1_000_000))  # ceil(q·n) in ints
    return int(vals[np.searchsorted(cum, pos)])


def q150_rfm_segments(sf_dir: str):
    """RFM customer segmentation (recency / frequency / monetary), the
    classic CRM cube: per-user aggregates quartile-coded per dimension,
    reported as segment cells (r, f, m) with user counts and revenue.
    Quartile boundaries use the explicit quantile_disc rule (value at
    position max(1, ceil(q·n)) — q29's discipline) so both engines cut
    identically; codes are integer comparisons against the three cuts.

    Shape: per-batch user partials → ONE user-keyed exchange resolves
    (f, m, last_day) per user; per-dimension boundaries come from THREE
    O(distinct-value) histograms (the q29 device — the driver folds
    distinct values, never users); coded users collapse to ≤ 64 segment
    cells inside the same map, one tiny final sum.  No user-level data
    ever reaches the driver."""
    import polars as pl

    from ..functions.grouping import bucketed_sum_multi, hash_exchange

    ev = _t(sf_dir, "events", ["user_id", "ts", "value"])

    _UA = pa.schema([("user_id", pa.int64()), ("f", pa.int64()),
                     ("m", pa.int64()), ("last_day", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return _UA.empty_table()
        day = (np.asarray(t["ts"].cast(pa.timestamp("us")), dtype="int64")
               // _US_DAY)
        cents = np.floor(np.asarray(t["value"]) * 100
                         + 0.5).astype(np.int64)
        return (pl.DataFrame({
            "user_id": np.asarray(t["user_id"], dtype=np.int64),
            "f": np.ones(t.num_rows, dtype=np.int64),
            "m": cents, "last_day": day})
            .group_by("user_id")
            .agg(f=pl.col("f").sum(), m=pl.col("m").sum(),
                 last_day=pl.col("last_day").max())
            .select(["user_id", "f", "m", "last_day"])
            .to_arrow().cast(_UA))

    def resolve(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return _UA.empty_table()
        return (pl.from_arrow(t).group_by("user_id")
                .agg(f=pl.col("f").sum(), m=pl.col("m").sum(),
                     last_day=pl.col("last_day").max())
                .select(["user_id", "f", "m", "last_day"])
                .to_arrow().cast(_UA))

    users = hash_exchange(ev.map_batches(partial, batch_format="pyarrow"),
                          "user_id", resolve,
                          num_buckets=16).materialize()

    def hist_of(col: str, arr_fn):
        def f(t: pa.Table) -> pa.Table:
            if t.num_rows == 0 or "user_id" not in t.column_names:
                return pa.table({"v": pa.array([], type=pa.int64()),
                                 "c_p": pa.array([], type=pa.int64())})
            v = arr_fn(t)
            return (pl.DataFrame({"v": v}).group_by("v")
                    .len(name="c_p").with_columns(
                        pl.col("c_p").cast(pl.Int64)).to_arrow())

        h = bucketed_sum_multi(
            users.map_batches(f, batch_format="pyarrow"),
            ["v"], {"c_p": "c"}, num_buckets=4)
        tb = pa.concat_tables(
            [b for b in h.iter_batches(batch_format="pyarrow")
             if b.num_rows])
        order = np.argsort(np.asarray(tb["v"], dtype=np.int64))
        return (np.asarray(tb["v"], dtype=np.int64)[order],
                np.asarray(tb["c"], dtype=np.int64)[order])

    # global anchor day = max over user last_days (one tiny fold)
    lv, _lc = hist_of("last_day", lambda t: np.asarray(t["last_day"],
                                                       dtype=np.int64))
    maxd = int(lv[-1])

    rv, rc = hist_of("r", lambda t: maxd - np.asarray(t["last_day"],
                                                      dtype=np.int64))
    fv, fc = hist_of("f", lambda t: np.asarray(t["f"], dtype=np.int64))
    mv, mc = hist_of("m", lambda t: np.asarray(t["m"], dtype=np.int64))
    cuts = {
        dim: tuple(_qdisc_from_hist(v, c, q) for q in (0.25, 0.5, 0.75))
        for dim, (v, c) in {"r": (rv, rc), "f": (fv, fc),
                            "m": (mv, mc)}.items()
    }
    cuts_ref = ray.put(cuts)

    _OUT = pa.schema([("r_code", pa.int64()), ("f_code", pa.int64()),
                      ("m_code", pa.int64()), ("n_users", pa.int64()),
                      ("sum_m_cents", pa.int64())])

    def code(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return _OUT.empty_table()
        cu = ray.get(cuts_ref)

        def c3(v, ks):
            return (1 + (v > ks[0]).astype(np.int64)
                    + (v > ks[1]).astype(np.int64)
                    + (v > ks[2]).astype(np.int64))

        r = maxd - np.asarray(t["last_day"], dtype=np.int64)
        f = np.asarray(t["f"], dtype=np.int64)
        m = np.asarray(t["m"], dtype=np.int64)
        return (pl.DataFrame({
            "r_code": c3(r, cu["r"]), "f_code": c3(f, cu["f"]),
            "m_code": c3(m, cu["m"]), "n_users": np.ones_like(f),
            "sum_m_cents": m})
            .group_by(["r_code", "f_code", "m_code"])
            .agg(n_users=pl.col("n_users").sum(),
                 sum_m_cents=pl.col("sum_m_cents").sum())
            .to_arrow().cast(_OUT))

    cells = users.map_batches(code, batch_format="pyarrow")
    return bucketed_sum_multi(cells, ["r_code", "f_code", "m_code"],
                              {"n_users": "n_users",
                               "sum_m_cents": "sum_m_cents"},
                              num_buckets=2)


SQL_Q150 = f"""
WITH u AS (
  SELECT user_id, CAST(count(*) AS BIGINT) AS f,
         CAST(SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
             AS m,
         CAST(MAX(epoch_us(ts) // {_US_DAY}) AS BIGINT) AS last_day
  FROM events GROUP BY 1
),
g AS (SELECT MAX(last_day) AS maxd FROM u),
u2 AS (SELECT user_id, maxd - last_day AS r, f, m FROM u, g),
q AS (
  SELECT quantile_disc(r, 0.25) AS r1, quantile_disc(r, 0.5) AS r2,
         quantile_disc(r, 0.75) AS r3,
         quantile_disc(f, 0.25) AS f1, quantile_disc(f, 0.5) AS f2,
         quantile_disc(f, 0.75) AS f3,
         quantile_disc(m, 0.25) AS m1, quantile_disc(m, 0.5) AS m2,
         quantile_disc(m, 0.75) AS m3
  FROM u2
),
c AS (
  SELECT CAST(1 + (r > r1)::INT + (r > r2)::INT + (r > r3)::INT
              AS BIGINT) AS r_code,
         CAST(1 + (f > f1)::INT + (f > f2)::INT + (f > f3)::INT
              AS BIGINT) AS f_code,
         CAST(1 + (m > m1)::INT + (m > m2)::INT + (m > m3)::INT
              AS BIGINT) AS m_code,
         m
  FROM u2, q
)
SELECT r_code, f_code, m_code, CAST(count(*) AS BIGINT) AS n_users,
       CAST(SUM(m) AS BIGINT) AS sum_m_cents
FROM c GROUP BY 1, 2, 3
"""


SQL_Q147 = """
WITH b AS (
  SELECT l_returnflag AS grp,
         CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT) AS v,
         CAST(FLOOR(l_quantity + 0.5) AS BIGINT) AS w
  FROM lineitem
),
c AS (SELECT grp, v, CAST(SUM(w) AS BIGINT) AS w FROM b GROUP BY 1, 2),
a AS (
  SELECT grp, v,
         SUM(w) OVER (PARTITION BY grp ORDER BY v) AS cw,
         SUM(w) OVER (PARTITION BY grp) AS tw
  FROM c
)
SELECT grp, CAST(MIN(v) AS BIGINT) AS wmedian_cents,
       CAST(MIN(tw) AS BIGINT) AS total_weight
FROM a WHERE 2 * cw >= tw GROUP BY grp
"""


# --- q175: functional-dependency audit ---------------------------------------

# (table, determinant, dependent) — a mix of holding (key-determined)
# and violated candidates so both report paths are exercised
FD_CANDIDATES = (
    ("orders", "o_orderkey", "o_orderstatus"),     # holds (key)
    ("orders", "o_custkey", "o_orderpriority"),    # violated
    ("lineitem", "l_orderkey", "l_returnflag"),    # violated
    ("customer", "c_custkey", "c_mktsegment"),     # holds (key)
    ("events", "user_id", "event_type"),           # violated
)


def q175_fd_audit(sf_dir: str):
    """Functional-dependency audit (TANE-lite over a fixed candidate
    list): for each (table, A, B) candidate, does A → B hold, and for
    how many determinant values is it violated — the schema-discovery
    profile a warehouse runs before declaring constraints (q79 checks
    DECLARED expectations; this DISCOVERS which hold).

    Per candidate: in-batch distinct (A, B) partials → ONE A-keyed
    exchange whose fold counts per-A distinct-B cardinality → per-bucket
    (n_keys, n_violating) scalars → driver sum.  Everything exact
    int64; the violated fraction is e6 integer division."""
    import polars as pl

    from ..functions.grouping import hash_exchange

    rows = []
    for tbl, a, b in FD_CANDIDATES:
        _P = pa.schema([("a", pa.string()), ("b", pa.string())])

        def partial(t: pa.Table, _a=a, _b=b) -> pa.Table:
            if t.num_rows == 0 or _a not in t.column_names:
                return _P.empty_table()
            return (pl.DataFrame({
                "a": pl.from_arrow(t[_a].cast(pa.string()).combine_chunks()),
                "b": pl.from_arrow(t[_b].cast(pa.string()).combine_chunks())})
                .unique().to_arrow().cast(_P))

        _F = pa.schema([("nk", pa.int64()), ("nv", pa.int64())])

        def fold(t: pa.Table) -> pa.Table:
            if t.num_rows == 0 or "a" not in t.column_names:
                return _F.empty_table()
            g = (pl.from_arrow(t).unique()
                 .group_by("a").agg(nb=pl.col("b").n_unique()))
            return pa.table({
                "nk": pa.array([g.height], type=pa.int64()),
                "nv": pa.array([int((g["nb"] > 1).sum())],
                               type=pa.int64()),
            })

        parts = hash_exchange(
            _t(sf_dir, tbl, [a, b]).map_batches(
                partial, batch_format="pyarrow"),
            "a", fold, num_buckets=8).to_pandas()
        nk, nv = int(parts["nk"].sum()), int(parts["nv"].sum())
        rows.append((tbl, a, b, nk, nv, int(nv == 0),
                     1_000_000 * nv // nk if nk else 0))

    return pa.table({
        "tbl": pa.array([r[0] for r in rows], type=pa.string()),
        "det": pa.array([r[1] for r in rows], type=pa.string()),
        "dep": pa.array([r[2] for r in rows], type=pa.string()),
        "n_keys": pa.array([r[3] for r in rows], type=pa.int64()),
        "n_violating": pa.array([r[4] for r in rows], type=pa.int64()),
        "holds": pa.array([r[5] for r in rows], type=pa.int64()),
        "viol_e6": pa.array([r[6] for r in rows], type=pa.int64()),
    })


def _sql_fd_audit() -> str:
    parts = []
    for tbl, a, b in FD_CANDIDATES:
        parts.append(f"""
SELECT '{tbl}' AS tbl, '{a}' AS det, '{b}' AS dep,
       CAST(count(*) AS BIGINT) AS n_keys,
       CAST(count(*) FILTER (nb > 1) AS BIGINT) AS n_violating,
       CAST(CASE WHEN count(*) FILTER (nb > 1) = 0 THEN 1 ELSE 0 END
            AS BIGINT) AS holds,
       CAST(1000000 * count(*) FILTER (nb > 1) // count(*) AS BIGINT)
         AS viol_e6
FROM (SELECT CAST({a} AS VARCHAR) AS a,
             count(DISTINCT CAST({b} AS VARCHAR)) AS nb
      FROM {tbl} GROUP BY 1)""")
    return "\nUNION ALL\n".join(parts)


# --- q176: referential-integrity audit ---------------------------------------

RI_CANDIDATES = (
    ("orders", "o_custkey", "customer", "c_custkey"),
    ("lineitem", "l_orderkey", "orders", "o_orderkey"),
    ("lineitem", "l_partkey", "part", "p_partkey"),
    ("events", "user_id", "customer", "c_custkey"),
)


def q176_ref_integrity(sf_dir: str):
    """Referential-integrity audit: for each declared child→parent key
    relationship, how many DISTINCT child keys have no parent row
    (orphans) — the other half of the constraint-discovery profile
    (q175 finds FDs; this verifies the join graph a warehouse assumes).

    Per relationship ONE exchange does everything: both sides emit
    in-batch-distinct tagged key rows, the union co-locates by key, and
    the bucket fold counts distinct child keys and child-without-parent
    keys in the same pass — no pre-dedup shuffle, no join machinery,
    only 9-byte (key, side) rows ever cross the store."""
    import polars as pl

    from ..functions.grouping import hash_exchange

    rows = []
    _K = pa.schema([("k", pa.int64()), ("side", pa.int64())])
    for ctbl, ckey, ptbl, pkey in RI_CANDIDATES:
        def keys(col, side):
            def f(t: pa.Table) -> pa.Table:
                if t.num_rows == 0 or col not in t.column_names:
                    return _K.empty_table()
                u = np.unique(np.asarray(t[col].cast(pa.int64()),
                                         dtype=np.int64))
                return pa.table({
                    "k": pa.array(u),
                    "side": pa.array(np.full(len(u), side))}).cast(_K)
            return f

        both = (_t(sf_dir, ctbl, [ckey])
                .map_batches(keys(ckey, 0), batch_format="pyarrow")
                .union(_t(sf_dir, ptbl, [pkey])
                       .map_batches(keys(pkey, 1),
                                    batch_format="pyarrow")))

        _F = pa.schema([("nc", pa.int64()), ("no", pa.int64())])

        def fold(t: pa.Table) -> pa.Table:
            if t.num_rows == 0 or "k" not in t.column_names:
                return _F.empty_table()
            g = (pl.from_arrow(t).group_by("k")
                 .agg(c=(pl.col("side") == 0).any(),
                      p=(pl.col("side") == 1).any()))
            return pa.table({
                "nc": pa.array([int(g["c"].sum())], type=pa.int64()),
                "no": pa.array([int((g["c"] & ~g["p"]).sum())],
                               type=pa.int64()),
            })

        parts = hash_exchange(both, "k", fold, num_buckets=8).to_pandas()
        n_child = int(parts["nc"].sum())
        orphans = int(parts["no"].sum())
        rows.append((ctbl, ckey, ptbl, pkey, n_child, orphans,
                     1_000_000 * orphans // n_child if n_child else 0))

    return pa.table({
        "child_tbl": pa.array([r[0] for r in rows], type=pa.string()),
        "child_key": pa.array([r[1] for r in rows], type=pa.string()),
        "parent_tbl": pa.array([r[2] for r in rows], type=pa.string()),
        "parent_key": pa.array([r[3] for r in rows], type=pa.string()),
        "n_child_keys": pa.array([r[4] for r in rows], type=pa.int64()),
        "n_orphan_keys": pa.array([r[5] for r in rows], type=pa.int64()),
        "orphan_e6": pa.array([r[6] for r in rows], type=pa.int64()),
    })


def _sql_ref_integrity() -> str:
    parts = []
    for ctbl, ckey, ptbl, pkey in RI_CANDIDATES:
        parts.append(f"""
SELECT '{ctbl}' AS child_tbl, '{ckey}' AS child_key,
       '{ptbl}' AS parent_tbl, '{pkey}' AS parent_key,
       CAST(count(*) AS BIGINT) AS n_child_keys,
       CAST(count(*) FILTER (p IS NULL) AS BIGINT) AS n_orphan_keys,
       CAST(1000000 * count(*) FILTER (p IS NULL) // count(*) AS BIGINT)
         AS orphan_e6
FROM (SELECT c.k, p.k AS p
      FROM (SELECT DISTINCT CAST({ckey} AS BIGINT) AS k FROM {ctbl}) c
      LEFT JOIN (SELECT DISTINCT CAST({pkey} AS BIGINT) AS k
                 FROM {ptbl}) p USING (k))""")
    return "\nUNION ALL\n".join(parts)


QUERIES = {
    "q01_lineitem_agg": (q01_lineitem_agg, SQL_Q01),
    "q175_fd_audit": (q175_fd_audit, _sql_fd_audit()),
    "q176_ref_integrity": (q176_ref_integrity, _sql_ref_integrity()),
    "q147_weighted_median": (q147_weighted_median, SQL_Q147),
    "q150_rfm_segments": (q150_rfm_segments, SQL_Q150),
    "q153_langid_confusion": (q153_langid_confusion, _sql_q153()),
    "q116_snapshot_diff": (q116_snapshot_diff, SQL_Q116),
    "q196_schema_evolution_read": (q196_schema_evolution_read, _sql_q196()),
    "q02_customer_revenue": (q02_customer_revenue, SQL_Q02),
    "q03_top_parts": (q03_top_parts, SQL_Q03),
    "q04_events_hourly": (q04_events_hourly, SQL_Q04),
    "q05_word_count": (q05_word_count, SQL_Q05),
    "q06_doc_dedup_exact": (q06_doc_dedup_exact, SQL_Q06),
    "q07_token_stats": (q07_token_stats, SQL_Q07),
    "q08_quality_score": (q08_quality_score, SQL_Q08),
    "q09_langid": (q09_langid, SQL_Q09),
    "q14_sessionize": (q14_sessionize, SQL_Q14),
    "q99_peak_concurrency": (q99_peak_concurrency, SQL_Q99),
    "q100_hourly_gapfill": (q100_hourly_gapfill, SQL_Q100),
    "q101_psi_drift": (q101_psi_drift, SQL_Q101),
    "q103_locf_impute": (q103_locf_impute, SQL_Q103),
    "q104_coclustered_join": (q104_coclustered_join, SQL_Q104),
    "q105_clustered_merge": (q105_clustered_merge, SQL_Q105),
    "q108_annotator_agreement": (q108_annotator_agreement, SQL_Q108),
    "q112_revenue_concentration": (q112_revenue_concentration, SQL_Q112),
    "q113_wow_change": (q113_wow_change, SQL_Q113),
    "q28_topk_per_group": (q28_topk_per_group, SQL_Q28),
    "q29_doc_len_quantiles": (q29_doc_len_quantiles, SQL_Q29),
    "q30_customers_without_big_orders":
        (q30_customers_without_big_orders, SQL_Q30),
    "q33_pivot_user_events": (q33_pivot_user_events, SQL_Q33),
    "q34_unpivot_user_events": (q34_unpivot_user_events, SQL_Q34),
    "q35_doc_len_quantiles_by_lang":
        (q35_doc_len_quantiles_by_lang, SQL_Q35),
    "q37_events_of_big_purchasers":
        (q37_events_of_big_purchasers, SQL_Q37),
    "q38_shipping_priority": (q38_shipping_priority, SQL_Q38),
    "q75_activity_reconciliation":
        (q75_activity_reconciliation, SQL_Q75),
    "q76_region_revenue": (q76_region_revenue, SQL_Q76),
    "q79_data_expectations": (q79_data_expectations, SQL_Q79),
    "q80_mad_outliers": (q80_mad_outliers, SQL_Q80),
    "q82_event_type_freq": (q82_event_type_freq, SQL_Q82),
    "q83_zone_map_prune": (q83_zone_map_prune, SQL_Q83),
    "q91_props_stats": (q91_props_stats, SQL_Q91),
    "q92_user_features": (q92_user_features, SQL_Q92),
}
