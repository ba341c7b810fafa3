"""Distinct-count operators: exact grouped COUNT(DISTINCT) and a
HyperLogLog sketch for the cardinalities a 100 TB pipeline can't count
exactly (distinct URLs / users / shingles per partition).

Exact path (q31): per-batch pair dedup (combiner) → ONE hash exchange
on the member key → in-bucket dedup + partial counts → a tiny final
sum.  The exchange moves at most one row per distinct (group, member)
pair seen per map task, never the raw events.

Sketch path (``hll_distinct_users``): classic HyperLogLog (Flajolet et
al. 2007, the public algorithm) over the whole-column xxhash — per-batch
register partials, a max-merge exchange keyed on the register, and a
per-group estimate.  Register traffic is O(2^p × groups) regardless of
input size, the property that makes it the scale path.  No SQL twin
(DuckDB's approx_count_distinct uses a different sketch); pytest pins
the estimate within rel-tol of the oracle-checked exact count.
"""

from __future__ import annotations
from pboh_entity_linking_ray.sources.reading import read_parquet_clean

import numpy as np
import pyarrow as pa
import ray.data

HLL_P = 12                       # 2^12 registers per group (~1.6% RSE)
HLL_M = 1 << HLL_P


def _events(sf_dir: str):
    return read_parquet_clean(f"{sf_dir}/events.parquet",
                                 columns=["event_type", "user_id"])


def q31_distinct_users(sf_dir: str):
    """Exact distinct users per event type (grouped COUNT DISTINCT)."""
    from ray.data.aggregate import Sum

    def dedup_pairs(t: pa.Table) -> pa.Table:
        import polars as pl

        return pl.from_arrow(t).unique().to_arrow()

    def bucket_count(t: pa.Table) -> pa.Table:
        import polars as pl

        return (pl.from_arrow(t).unique()
                .group_by("event_type").len(name="n_partial")
                .with_columns(pl.col("n_partial").cast(pl.Int64))
                .to_arrow())

    from ..functions.grouping import hash_exchange

    pairs = _events(sf_dir).map_batches(dedup_pairs, batch_format="pyarrow")
    partials = hash_exchange(pairs, "user_id", bucket_count, num_buckets=64)
    return (partials.groupby("event_type")
            .aggregate(Sum("n_partial", alias_name="n_users")))


SQL_Q31 = """
SELECT event_type, count(DISTINCT user_id) AS n_users
FROM events GROUP BY 1
"""


def _clz64(x: np.ndarray) -> np.ndarray:
    """Exact vectorized count-leading-zeros for uint64 (binary search by
    shifts; float tricks misround near 2^64).  x == 0 → 63."""
    x = x.astype(np.uint64, copy=True)
    n = np.zeros(x.shape, dtype=np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        m = x < (np.uint64(1) << np.uint64(64 - s))
        n[m] += s
        x[m] <<= np.uint64(s)
    return n


def _alpha(m: int) -> float:
    return 0.7213 / (1 + 1.079 / m)


def _estimate(regs: np.ndarray) -> int:
    """Standard HLL estimator with the small-range linear-counting
    correction (the large-range correction is irrelevant at 64-bit
    hashes)."""
    m = len(regs)
    raw = _alpha(m) * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = int(np.count_nonzero(regs == 0))
    if raw <= 2.5 * m and zeros:
        return int(round(m * np.log(m / zeros)))
    return int(round(raw))


def hll_distinct_users(sf_dir: str):
    """HyperLogLog grouped distinct count — the sketch path of q31."""
    from ..functions.grouping import hash_exchange
    from ..functions.hashing import hash_strings_u64

    def partials(t: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(t).unique()          # in-batch dedup first
        if len(df) == 0:
            # same polars construction as the live path → identical
            # arrow schema (large_string) for empty and non-empty blocks
            return pl.DataFrame({
                "event_type": pl.Series([], dtype=df["event_type"].dtype),
                "reg": pl.Series([], dtype=pl.Int64),
                "rho": pl.Series([], dtype=pl.Int64),
            }).to_arrow()
        h = hash_strings_u64(
            df["user_id"].cast(pl.String), seed=0)
        reg = (h >> np.uint64(64 - HLL_P)).astype(np.int64)
        rest = h << np.uint64(HLL_P)            # remaining 64-p bits, top-aligned
        # rho = leading-zero count of the remaining bits + 1;
        # rest == 0 → all remaining bits zero → rho = 64 - p + 1
        rho = np.where(rest != 0, _clz64(rest) + 1, 64 - HLL_P + 1)
        out = (pl.DataFrame({"event_type": df["event_type"],
                             "reg": pl.Series(reg, dtype=pl.Int64),
                             "rho": pl.Series(rho, dtype=pl.Int64)})
               .group_by(["event_type", "reg"]).agg(pl.col("rho").max()))
        return out.to_arrow()

    def merge_regs(t: pa.Table) -> pa.Table:
        import polars as pl

        return (pl.from_arrow(t)
                .group_by(["event_type", "reg"]).agg(pl.col("rho").max())
                .to_arrow())

    def finish(t: pa.Table) -> pa.Table:
        import polars as pl

        if t.num_rows == 0:
            return pa.table({"event_type": pa.array([], type=pa.string()),
                             "n_users_est": pa.array([], type=pa.int64())})
        df = pl.from_arrow(t)
        types, ests = [], []
        for (ty,), g in df.group_by(["event_type"], maintain_order=True):
            regs = np.zeros(HLL_M, dtype=np.int64)
            regs[g["reg"].to_numpy()] = g["rho"].to_numpy()
            types.append(ty)
            ests.append(_estimate(regs))
        return pa.table({"event_type": pa.array(types, type=pa.string()),
                         "n_users_est": pa.array(ests, type=pa.int64())})

    rows = _events(sf_dir).map_batches(partials, batch_format="pyarrow")
    # register max-merge co-located by register id (skew-free: register
    # space is uniform by construction) …
    merged = hash_exchange(rows, "reg", merge_regs, num_buckets=64)
    # … then one tiny exchange on the group so each group's 2^p registers
    # meet in one task for the estimate
    return hash_exchange(merged, "event_type", finish, num_buckets=16)


# --- KMV Jaccard sketch ------------------------------------------------------

KMV_K = 256


def kmv_jaccard(sf_dir: str):
    """Pairwise audience-overlap Jaccard between ALL event types from
    K-minimum-values sketches (Bar-Yossef 2002) — the SIMILARITY sketch
    completing the family (HLL answers "how many distinct", KMV also
    answers "how ALIKE are two sets" from the same per-set K·8-byte
    state, mergeable like any order statistic): per type keep the K
    smallest user-id hashes; for a pair, the K smallest of the sketch
    UNION are a uniform sample of A∪B, and the fraction present in both
    sketches estimates J with SE ≈ 1/√K.

    Distributed: per-batch in-batch bottom-K partials →
    ``topk_per_group`` (ascending) so only O(types·K) skinny hash rows
    ever reach the driver; the pairwise fold is O(types²·K) driver
    work on the tiny signatures.  Sketch estimate → rows-only; pytest
    pins each estimate against q94's exact Jaccard within the sketch's
    error budget."""
    import polars as pl

    from ..functions.grouping import topk_per_group
    from ..functions.hashing import hash_strings_u64

    ev = _events(sf_dir)

    _P = pa.schema([("event_type", pa.string()), ("h", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t).unique()
        if len(df) == 0:
            return _P.empty_table()
        h = hash_strings_u64(df["user_id"].cast(pl.String), seed=7)
        # top-bit flip: an order-PRESERVING uint64→int64 bijection, so
        # "K smallest" means the same thing after the required bit-cast
        # (a plain view makes values ≥ 2^63 sort negative)
        hs = (h ^ np.uint64(1 << 63)).view(np.int64)
        out = (pl.DataFrame({"event_type": df["event_type"],
                             "h": pl.Series(hs)})
               .group_by("event_type")
               .agg(pl.col("h").sort().head(KMV_K))
               .explode("h", empty_as_null=True))
        return out.to_arrow().cast(_P)

    sk = (topk_per_group(
        ev.map_batches(partial, batch_format="pyarrow"),
        "event_type", "h", KMV_K, descending=False, num_buckets=8)
        .to_pandas())
    sigs = {g: np.sort(grp["h"].to_numpy(dtype=np.int64))
            for g, grp in sk.groupby("event_type")}   # shifted-order ints

    types = sorted(sigs)
    rows = []
    for i, a in enumerate(types):
        for b in types[i + 1:]:
            u = np.union1d(sigs[a], sigs[b])[:KMV_K]
            inter = np.isin(u, sigs[a]) & np.isin(u, sigs[b])
            rows.append((a, b, len(u), int(inter.sum()),
                         1_000_000 * int(inter.sum()) // len(u)))
    return pa.table({
        "type_a": pa.array([r[0] for r in rows], type=pa.string()),
        "type_b": pa.array([r[1] for r in rows], type=pa.string()),
        "k_union": pa.array([r[2] for r in rows], type=pa.int64()),
        "k_both": pa.array([r[3] for r in rows], type=pa.int64()),
        "jaccard_est_e6": pa.array([r[4] for r in rows],
                                   type=pa.int64()),
    })


# --- q47: Misra–Gries / SpaceSaving heavy hitters ---------------------------

HH_K = 64          # counters per summary.  The documents vocabulary is
                   # ~31 tokens, so at k=64 the sketch never compresses
                   # and the driver row is EXACT (oracle-paired); the
                   # sketch regime (k < distinct keys) is pinned by
                   # tests/test_cardinality.py against exact counts
MG_ERR_KEY = "\x00__mg_err__"   # sentinel row carrying subtracted mass


def _mg_partial(k: int):
    """Per-batch Misra–Gries compression: exact batch counts, then if
    more than ``k`` keys survive, subtract the (k+1)-th largest count
    from every counter and drop the non-positive ones.  Each key loses
    at most t, so emitting one sentinel row with t keeps the global
    undercount bound Σt mergeable by plain addition."""
    def fn(t: pa.Table) -> pa.Table:
        import polars as pl

        df = (pl.from_arrow(t).group_by("tok")
              .agg(pl.len().cast(pl.Int64).alias("cnt_lo"))
              .with_columns(err=pl.lit(0, dtype=pl.Int64)))
        if len(df) > k:
            thr = int(df["cnt_lo"].sort(descending=True)[k])
            df = (df.with_columns((pl.col("cnt_lo") - thr).alias("cnt_lo"))
                  .filter(pl.col("cnt_lo") > 0))
            df = pl.concat([df, pl.DataFrame({
                "tok": [MG_ERR_KEY],
                "cnt_lo": [0],
                "err": [thr],
            }, schema={"tok": df["tok"].dtype, "cnt_lo": pl.Int64,
                       "err": pl.Int64})])
        return df.to_arrow()

    return fn


def mg_heavy_hitters(tokens: ray.data.Dataset, k: int = HH_K,
                     top: int | None = None) -> ray.data.Dataset:
    """Distributed mergeable heavy-hitters sketch (Misra–Gries /
    SpaceSaving family; public algorithm, Misra & Gries 1982).

    Shape: per-batch compress (≤ k+1 skinny rows leave each map task
    regardless of input size — the sketch property) → ONE exchange on
    the key summing lower bounds exactly → a single-bucket finish that
    totals the subtracted mass and keeps the ``top`` largest counters.
    Output: (tok, count_lo, count_hi) with
    count_lo ≤ true count ≤ count_hi = count_lo + Σ subtracted.
    Every key whose true count exceeds Σ subtracted (≤ n/k per merge
    round) survives in at least one partial, so true heavy hitters are
    never lost.  The finish bucket sees O(k × map tasks) rows, never
    the input."""
    from ..functions.grouping import hash_exchange

    def sum_bucket(t: pa.Table) -> pa.Table:
        import polars as pl

        return (pl.from_arrow(t).group_by("tok")
                .agg(pl.col("cnt_lo").sum(), pl.col("err").sum())
                .to_arrow())

    def finish(t: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(t)
        err = int(df.filter(pl.col("tok") == MG_ERR_KEY)["err"].sum())
        out = (df.filter(pl.col("tok") != MG_ERR_KEY)
               .sort(["cnt_lo", "tok"], descending=[True, False]))
        if top is not None:
            out = out.head(top)
        return (out.with_columns(
                    count_hi=(pl.col("cnt_lo") + err).cast(pl.Int64))
                .rename({"cnt_lo": "count_lo"})
                .select(["tok", "count_lo", "count_hi"])
                .to_arrow())

    partials = tokens.map_batches(_mg_partial(k), batch_format="pyarrow")
    summed = hash_exchange(partials, "tok", sum_bucket, num_buckets=64)
    return hash_exchange(summed, "err", finish, num_buckets=1)


def q47_heavy_tokens(sf_dir: str):
    """Heavy-hitter tokens over the documents corpus via the MG sketch
    (exact regime at k=HH_K ≥ vocabulary, see HH_K note)."""
    docs = read_parquet_clean(f"{sf_dir}/documents.parquet",
                                 columns=["text"])

    def toks(t: pa.Table) -> pa.Table:
        import polars as pl

        return (pl.DataFrame({
            "tok": pl.from_arrow(t["text"].combine_chunks())
                     .str.to_lowercase().str.extract_all("[a-z0-9]+"),
        }).explode("tok", empty_as_null=True).drop_nulls("tok").to_arrow())

    return mg_heavy_hitters(docs.map_batches(toks, batch_format="pyarrow"),
                            k=HH_K)


SQL_Q47 = """
SELECT tok, count(*) AS count_lo, count(*) AS count_hi
FROM (SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS tok
      FROM documents)
GROUP BY 1
"""


# --- approximate quantiles (bounded-memory histogram sketch) ----------------

QSKETCH_BINS = 4096
QSKETCH_QS_E4 = (100, 2500, 5000, 7500, 9900)


def approx_quantiles(ds: ray.data.Dataset, col: str,
                     qs_e4=QSKETCH_QS_E4,
                     bins: int = QSKETCH_BINS) -> pa.Table:
    """Bounded-memory approximate quantiles for CONTINUOUS columns — the
    scale path beside the exact value-histogram quantiles (q29/q35),
    which are only bounded when the column has bounded distinct values.

    Two passes, both trivially mergeable: (1) per-batch min/max partials
    → tiny reduce; (2) per-batch fixed-width histogram over [mn, mx]
    (≤ ``bins`` skinny partial rows per batch regardless of input size)
    → one small exchange summing per bin → cumsum over O(bins) rows.
    The reported value is the matched bin's UPPER edge, so the error is
    one-sided and ≤ (mx − mn)/bins by construction.  Driver-side state
    is O(bins); the data is never collected or sorted."""
    from ..functions.grouping import bucketed_sum

    def mm_partial(t: pa.Table) -> pa.Table:
        v = np.asarray(t[col], dtype=np.float64)
        v = v[~np.isnan(v)]
        if len(v) == 0:
            return pa.table({"mn": pa.array([], type=pa.float64()),
                             "mx": pa.array([], type=pa.float64())})
        return pa.table({"mn": [float(v.min())], "mx": [float(v.max())]})

    mm = ds.map_batches(mm_partial, batch_format="pyarrow").to_pandas()
    if len(mm) == 0:
        return pa.table({"q_e4": pa.array(list(qs_e4), type=pa.int64()),
                         "value": pa.nulls(len(qs_e4), type=pa.float64())})
    mn, mx = float(mm["mn"].min()), float(mm["mx"].max())
    width = (mx - mn) or 1.0

    def hist_partial(t: pa.Table) -> pa.Table:
        v = np.asarray(t[col], dtype=np.float64)
        v = v[~np.isnan(v)]
        b = np.clip(((v - mn) * bins / width).astype(np.int64), 0, bins - 1)
        counts = np.bincount(b, minlength=bins)
        nz = np.flatnonzero(counts)
        return pa.table({"bin": pa.array(nz.astype(np.int64)),
                         "c": pa.array(counts[nz].astype(np.int64))})

    summed = bucketed_sum(ds.map_batches(hist_partial, batch_format="pyarrow"),
                          ["bin"], "c", "c")
    h = summed.to_pandas().sort_values("bin").reset_index(drop=True)
    cum = h["c"].cumsum().to_numpy()
    n = int(cum[-1])
    out_v = []
    for q_e4 in qs_e4:
        rank = max(1, -(-q_e4 * n // 10_000))          # ceil, exact ints
        b = int(h["bin"].to_numpy()[np.searchsorted(cum, rank)])
        out_v.append(mn + (b + 1) * width / bins)      # upper edge
    return pa.table({"q_e4": pa.array(list(qs_e4), type=pa.int64()),
                     "value": pa.array(out_v, type=pa.float64())})


def quantile_sketch_value(sf_dir: str):
    """Histogram-sketch quantiles of the continuous events.value column
    (no SQL twin — the sketch is approximate by design; pytest pins it
    within one bin width of DuckDB's exact quantiles)."""
    ds = read_parquet_clean(f"{sf_dir}/events.parquet", columns=["value"])
    return approx_quantiles(ds, "value")


# --- q87: table profiler (per-column count / nulls / distinct / range) -----

_PROF_COLS = ["doc_id", "text", "lang", "source", "n_chars"]


def q87_profile_documents(sf_dir: str):
    """Column profile of the documents table as one long-form
    (col, stat, val) report — the data-profiling utility every engine
    ships (count, null count, EXACT distinct per column, min/max of the
    numeric column).  Two streaming passes fused into one read:
    per-batch basic partials (one skinny row per column per batch →
    one O(columns)-key exchange), and per-batch pre-deduped
    (column, value) rows routed by a row hash so every copy of a value
    co-locates — the q31 exact-distinct discipline applied per column
    (the hash only ROUTES; in-bucket dedup sees real values, so the
    count is exact, not a sketch).  Shipping distinct values is the
    exactness cost; the HLL sketch (``hll_distinct_users``) is the
    scale path when approximate is acceptable."""
    import polars as pl

    from ..functions.grouping import bucketed_sum, hash_exchange

    ds = read_parquet_clean(f"{sf_dir}/documents.parquet",
                               columns=_PROF_COLS)

    def basic_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "doc_id" not in t.column_names:
            return pa.table({"col": pa.array([], type=pa.string()),
                             "n": pa.array([], type=pa.int64()),
                             "nulls": pa.array([], type=pa.int64()),
                             "mn": pa.array([], type=pa.int64()),
                             "mx": pa.array([], type=pa.int64())})
        rows = {"col": [], "n": [], "nulls": [], "mn": [], "mx": []}
        for c in _PROF_COLS:
            col = t[c]
            rows["col"].append(c)
            rows["n"].append(t.num_rows)
            rows["nulls"].append(col.null_count)
            if pa.types.is_integer(col.type) and t.num_rows:
                v = np.asarray(col.drop_null(), dtype=np.int64)
                rows["mn"].append(int(v.min()) if len(v) else None)
                rows["mx"].append(int(v.max()) if len(v) else None)
            else:
                rows["mn"].append(None)
                rows["mx"].append(None)
        return pa.table({
            "col": pa.array(rows["col"], type=pa.string()),
            "n": pa.array(rows["n"], type=pa.int64()),
            "nulls": pa.array(rows["nulls"], type=pa.int64()),
            "mn": pa.array(rows["mn"], type=pa.int64()),
            "mx": pa.array(rows["mx"], type=pa.int64()),
        })

    _BASIC = pa.schema([("col", pa.string()), ("n", pa.int64()),
                        ("nulls", pa.int64()), ("mn", pa.int64()),
                        ("mx", pa.int64())])

    def basic_bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "col" not in t.column_names:
            return _BASIC.empty_table()
        return (pl.from_arrow(t).group_by("col")
                .agg(n=pl.col("n").sum(), nulls=pl.col("nulls").sum(),
                     mn=pl.col("mn").min(), mx=pl.col("mx").max())
                .to_arrow().select(_BASIC.names).cast(_BASIC))

    basics = hash_exchange(
        ds.map_batches(basic_partial, batch_format="pyarrow"),
        "col", basic_bucket, num_buckets=4)

    _DROWS = pa.schema([("v", pa.string()), ("col", pa.string()),
                        ("rk", pa.int64())])

    def distinct_rows(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "doc_id" not in t.column_names:
            return _DROWS.empty_table()
        parts = []
        for c in _PROF_COLS:
            v = (pl.from_arrow(pa.table({"v": t[c]}))
                 .drop_nulls("v")
                 .with_columns(pl.col("v").cast(pl.Utf8))
                 .unique())
            parts.append(v.with_columns(col=pl.lit(c)))
        df = pl.concat(parts)
        return (df.with_columns(
            rk=df.hash_rows(seed=7).cast(pl.UInt64)
                 .reinterpret(signed=True))
            .to_arrow().select(_DROWS.names).cast(_DROWS))

    _DPART = pa.schema([("col", pa.string()), ("d", pa.int64())])

    def distinct_bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "col" not in t.column_names:
            return _DPART.empty_table()
        return (pl.from_arrow(t).select(["col", "v"]).unique()
                .group_by("col").len(name="d")
                .with_columns(pl.col("d").cast(pl.Int64))
                .to_arrow().cast(_DPART))

    dparts = hash_exchange(
        ds.map_batches(distinct_rows, batch_format="pyarrow"),
        "rk", distinct_bucket, num_buckets=16)
    distinct = bucketed_sum(dparts, ["col"], "d", "val")

    def basics_long(t: pa.Table) -> pa.Table:
        cols, stats, vals = [], [], []
        for i in range(t.num_rows):
            c = t["col"][i].as_py()
            for stat, src in (("count", "n"), ("nulls", "nulls")):
                cols.append(c)
                stats.append(stat)
                vals.append(t[src][i].as_py())
            for stat, src in (("min", "mn"), ("max", "mx")):
                v = t[src][i].as_py()
                if v is not None:
                    cols.append(c)
                    stats.append(stat)
                    vals.append(v)
        return pa.table({"col": pa.array(cols, type=pa.string()),
                         "stat": pa.array(stats, type=pa.string()),
                         "val": pa.array(vals, type=pa.int64())})

    def distinct_long(t: pa.Table) -> pa.Table:
        return pa.table({
            "col": t["col"],
            "stat": pa.array(["distinct"] * t.num_rows, type=pa.string()),
            "val": t["val"],
        })

    return basics.map_batches(basics_long, batch_format="pyarrow").union(
        distinct.map_batches(distinct_long, batch_format="pyarrow"))


def _prof_col_sql(c: str) -> str:
    return f"""
  SELECT '{c}' AS col, 'count' AS stat, count(*) AS val FROM documents
  UNION ALL
  SELECT '{c}', 'nulls', count(*) - count({c}) FROM documents
  UNION ALL
  SELECT '{c}', 'distinct', count(DISTINCT {c}) FROM documents"""


SQL_Q87 = f"""
SELECT col, stat, CAST(val AS BIGINT) AS val FROM (
{" UNION ALL ".join(_prof_col_sql(c) for c in _PROF_COLS)}
  UNION ALL
  SELECT 'n_chars', 'min', min(n_chars) FROM documents
  UNION ALL
  SELECT 'n_chars', 'max', max(n_chars) FROM documents
  UNION ALL
  SELECT 'doc_id', 'min', min(doc_id) FROM documents
  UNION ALL
  SELECT 'doc_id', 'max', max(doc_id) FROM documents
)
"""


# --- q94: audience-overlap (set Jaccard) matrix ----------------------------

def q94_audience_overlap(sf_dir: str):
    """Exact pairwise user-set Jaccard between event types — the
    audience-overlap matrix of every analytics stack: ONE user-keyed
    exchange (the q90 co-location discipline: a user's distinct types
    are bucket-local, so each user contributes its C(k,2) type-pair
    memberships and per-type presence exactly once), per-bucket combine
    to O(type² ) rows, one tiny final sum, then |∩|/|∪| in e4 from
    exact integers — identical doubles in both engines."""
    import polars as pl

    from ..functions.grouping import bucketed_sum_multi, hash_exchange

    def dedup(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return pa.table({"user_id": pa.array([], type=pa.int64()),
                             "event_type": pa.array([], type=pa.string())})
        return (pl.from_arrow(t).select(["user_id", "event_type"])
                .unique().to_arrow()
                .cast(pa.schema([("user_id", pa.int64()),
                                 ("event_type", pa.string())])))

    _PART = pa.schema([("ta", pa.string()), ("tb", pa.string()),
                       ("inter", pa.int64()), ("na", pa.int64())])

    def user_bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return _PART.empty_table()
        df = pl.from_arrow(t).unique().sort(["user_id", "event_type"])
        # per-user type-pair memberships (grouped-triu over tiny sets)
        users = df["user_id"].to_numpy()
        types = df["event_type"].to_numpy()
        starts = np.flatnonzero(np.r_[True, users[1:] != users[:-1]])
        sizes = np.diff(np.append(starts, len(users)))
        ap, bp = [], []
        for m in np.unique(sizes[sizes >= 2]):
            ia, ib = np.triu_indices(int(m), k=1)
            base = starts[sizes == m]
            ap.append((base[:, None] + ia[None, :]).ravel())
            bp.append((base[:, None] + ib[None, :]).ravel())
        parts = []
        if ap:
            ai, bi = np.concatenate(ap), np.concatenate(bp)
            parts.append(pl.DataFrame({"ta": types[ai], "tb": types[bi]})
                         .group_by(["ta", "tb"]).len(name="inter")
                         .with_columns(inter=pl.col("inter").cast(pl.Int64),
                                       na=pl.lit(0, dtype=pl.Int64)))
        # per-type presence counts ride the same partial stream: the
        # (type, type) self-row carries na
        parts.append(pl.DataFrame({"ta": types})
                     .group_by("ta").len(name="na")
                     .with_columns(na=pl.col("na").cast(pl.Int64),
                                   tb=pl.col("ta"),
                                   inter=pl.lit(0, dtype=pl.Int64)))
        cols = ["ta", "tb", "inter", "na"]
        return (pl.concat([p.select(cols) for p in parts])
                .to_arrow().cast(_PART))

    rows = read_parquet_clean(f"{sf_dir}/events.parquet",
                                 columns=["user_id", "event_type"]) \
        .map_batches(dedup, batch_format="pyarrow")
    partials = hash_exchange(rows, "user_id", user_bucket, num_buckets=32)
    sums = bucketed_sum_multi(partials, ["ta", "tb"],
                              {"inter": "inter", "na": "na"})

    def finish(t: pa.Table) -> pa.Table:
        _OUT = pa.schema([("ta", pa.string()), ("tb", pa.string()),
                          ("inter", pa.int64()), ("uni", pa.int64()),
                          ("jaccard_e4", pa.int64())])
        if t.num_rows == 0 or "ta" not in t.column_names:
            return _OUT.empty_table()
        df = pl.from_arrow(t)
        sizes = (df.filter(pl.col("ta") == pl.col("tb"))
                 .select(["ta", "na"]).rename({"na": "sz"}))
        out = (df.filter(pl.col("ta") != pl.col("tb"))
               .group_by(["ta", "tb"]).agg(inter=pl.col("inter").sum())
               .join(sizes, on="ta", how="inner")
               .rename({"sz": "sza"})
               .join(sizes.rename({"ta": "tb"}), on="tb", how="inner")
               .rename({"sz": "szb"})
               .with_columns(uni=pl.col("sza") + pl.col("szb")
                             - pl.col("inter"))
               .with_columns(jaccard_e4=(
                   pl.col("inter").cast(pl.Float64) * 10000.0
                   / pl.col("uni").cast(pl.Float64) + 0.5)
                   .floor().cast(pl.Int64))
               .select(["ta", "tb", "inter", "uni", "jaccard_e4"]))
        return out.to_arrow().cast(_OUT)

    # sums is tiny (≤ type² rows): finish in one single-bucket pass
    return hash_exchange(sums, "ta", finish, num_buckets=1)


SQL_Q94 = """
WITH ut AS (SELECT DISTINCT user_id, event_type FROM events),
i AS (
  SELECT a.event_type AS ta, b.event_type AS tb,
         CAST(count(*) AS BIGINT) AS inter
  FROM ut a JOIN ut b
    ON a.user_id = b.user_id AND a.event_type < b.event_type
  GROUP BY 1, 2
),
c AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n FROM ut GROUP BY 1)
SELECT i.ta, i.tb, i.inter,
       ca.n + cb.n - i.inter AS uni,
       CAST(FLOOR(10000.0 * i.inter
                  / CAST(ca.n + cb.n - i.inter AS DOUBLE) + 0.5)
            AS BIGINT) AS jaccard_e4
FROM i JOIN c ca ON ca.event_type = i.ta
       JOIN c cb ON cb.event_type = i.tb
"""


# --- q132: shuffle-key skew profiler -----------------------------------------

SKEW_TOPK = 50


def q132_key_skew(sf_dir: str):
    """Shuffle-key skew profile — the diagnostic every wide operation
    here should be planned against (CLAUDE.md: skewed keys hurt; the
    flagship blocker salts hot keys, q48 salts hot segments — THIS op
    is how an operator finds out a key needs salting before the shuffle
    melts a worker): the ``SKEW_TOPK`` hottest values of a prospective
    partition key (orders.o_custkey) with exact count, dense rank,
    per-key share and cumulative share of all rows (e6 fixed point) —
    read the cum-share column at rank k to size a salting whitelist.

    Shape: per-batch combiner counts → ONE skinny exchange summing per
    key → per-batch LOCAL top-K + one ``__total__`` sentinel per batch
    (post-exchange key sets are disjoint, so local top-Ks are exact
    partials) → a driver fold over O(K × batches) rows.  Nothing
    proportional to rows or distinct keys ever reaches the driver."""
    import polars as pl

    from ..functions.grouping import bucketed_sum

    orders = read_parquet_clean(f"{sf_dir}/orders.parquet",
                                   columns=["o_custkey"])

    def combiner(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"key": pa.array([], type=pa.int64()),
                             "cnt_p": pa.array([], type=pa.int64())})
        return (pl.from_arrow(t)
                .group_by("o_custkey")
                .agg(pl.len().cast(pl.Int64).alias("cnt_p"))
                .rename({"o_custkey": "key"})
                .select("key", "cnt_p").to_arrow()
                .cast(pa.schema([("key", pa.int64()),
                                 ("cnt_p", pa.int64())])))

    counts = bucketed_sum(orders.map_batches(combiner,
                                             batch_format="pyarrow"),
                          ["key"], "cnt_p", "cnt")

    def local_top(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "key" not in t.column_names:
            return pa.table({"key": pa.array([], type=pa.int64()),
                             "cnt": pa.array([], type=pa.int64())})
        df = (pl.from_arrow(t)
              .sort(["cnt", "key"], descending=[True, False])
              .head(SKEW_TOPK))
        total = int(np.asarray(t["cnt"], dtype=np.int64).sum())
        return pa.table({
            "key": pa.array(list(df["key"]) + [-1], type=pa.int64()),
            "cnt": pa.array(list(df["cnt"]) + [total], type=pa.int64()),
        })

    rows = counts.map_batches(local_top, batch_format="pyarrow").take_all()
    total = sum(r["cnt"] for r in rows if r["key"] == -1)
    live = sorted(((r["cnt"], r["key"]) for r in rows if r["key"] != -1),
                  key=lambda x: (-x[0], x[1]))[:SKEW_TOPK]
    cum = 0
    out = {"key": [], "cnt": [], "rank": [], "share_e6": [],
           "cum_share_e6": []}
    for rk, (cnt, key) in enumerate(live, start=1):
        cum += cnt
        out["key"].append(key)
        out["cnt"].append(cnt)
        out["rank"].append(rk)
        out["share_e6"].append(cnt * 1_000_000 // total)
        out["cum_share_e6"].append(cum * 1_000_000 // total)
    return pa.table({k: pa.array(v, type=pa.int64())
                     for k, v in out.items()})


SQL_Q132 = f"""
WITH c AS (SELECT o_custkey AS key, COUNT(*) AS cnt FROM orders GROUP BY 1),
tot AS (SELECT SUM(cnt) AS t FROM c),
r AS (SELECT key, cnt, ROW_NUMBER() OVER (ORDER BY cnt DESC, key) AS rk
      FROM c)
SELECT key, CAST(cnt AS BIGINT) AS cnt, CAST(rk AS BIGINT) AS rank,
       CAST(cnt * 1000000 // t AS BIGINT) AS share_e6,
       CAST(SUM(cnt) OVER (ORDER BY rk) * 1000000 // t AS BIGINT)
           AS cum_share_e6
FROM r, tot WHERE rk <= {SKEW_TOPK}
"""


# --- q140: Pearson correlation matrix from exact sufficient statistics -----

# lineitem's numeric columns, integerized so every sufficient statistic
# is an EXACT int64 (cross-engine float-order-of-summation immunity):
# whole units for price (cents would push Σp² past int64 at sf ≥ 1),
# e2 for the small-ratio columns, unit quantity.
_CORR_COLS = ("disc", "price", "qty", "tax")
_CORR_PAIRS = [(a, b) for i, a in enumerate(_CORR_COLS)
               for b in _CORR_COLS[i + 1:]]

_CORR_PART = pa.schema(
    [("pair", pa.string())]
    + [(c, pa.int64()) for c in ("n", "sx", "sy", "sxy", "sxx", "syy")])


def _corr_partial(t: pa.Table) -> pa.Table:
    """One row per column pair per batch: exact integer (n, Σx, Σy,
    Σxy, Σx², Σy²) partials.  6 skinny rows replace the batch."""
    if t.num_rows == 0 or "l_quantity" not in t.column_names:
        return _CORR_PART.empty_table()
    cols = {
        "qty": np.floor(np.asarray(t["l_quantity"]) + 0.5).astype(np.int64),
        "price": np.floor(np.asarray(t["l_extendedprice"])
                          + 0.5).astype(np.int64),
        "disc": np.floor(np.asarray(t["l_discount"]) * 100
                         + 0.5).astype(np.int64),
        "tax": np.floor(np.asarray(t["l_tax"]) * 100 + 0.5).astype(np.int64),
    }
    n = t.num_rows
    rows = {k: [] for k in ("pair", "n", "sx", "sy", "sxy", "sxx", "syy")}
    for cx, cy in _CORR_PAIRS:
        x, y = cols[cx], cols[cy]
        rows["pair"].append(f"{cx}|{cy}")
        rows["n"].append(n)
        rows["sx"].append(int(x.sum()))
        rows["sy"].append(int(y.sum()))
        rows["sxy"].append(int((x * y).sum()))
        rows["sxx"].append(int((x * x).sum()))
        rows["syy"].append(int((y * y).sum()))
    return pa.table({"pair": pa.array(rows["pair"], type=pa.string()),
                     **{k: pa.array(rows[k], type=pa.int64())
                        for k in ("n", "sx", "sy", "sxy", "sxx", "syy")}})


def q140_correlation_matrix(sf_dir: str):
    """Pearson correlation matrix over lineitem's four numeric columns
    (quantity / extendedprice / discount / tax) — the profiling step a
    feature-engineering pipeline runs before model training.  One
    vectorized per-batch pass reduces each batch to six exact-integer
    sufficient-statistic rows, ONE O(pairs)-key exchange sums them, and
    a closed-form finish computes corr; the float expression tree
    (DOUBLE casts before every big product, op order) is mirrored
    token-for-token in the SQL twin so the e4 floor matches hash-exactly
    (CLAUDE.md q95 discipline).  Driver never sees row data — the
    exchange carries 6 rows per map task regardless of input size.
    At extreme scale (Σprice² past int64 around sf ~100) the partial
    pass would switch to DOUBLE Welford merges; exact ints are kept here
    because they are what makes the oracle twin bit-stable."""
    from ..functions.grouping import bucketed_sum_multi

    li = read_parquet_clean(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_quantity", "l_extendedprice", "l_discount", "l_tax"])
    parts = li.map_batches(_corr_partial, batch_format="pyarrow")
    sums = bucketed_sum_multi(
        parts, ["pair"],
        {c: c for c in ("n", "sx", "sy", "sxy", "sxx", "syy")},
        num_buckets=4)

    def finish(t: pa.Table) -> pa.Table:
        _OUT = pa.schema([("col_x", pa.string()), ("col_y", pa.string()),
                          ("n", pa.int64()), ("corr_e4", pa.int64())])
        if t.num_rows == 0 or "pair" not in t.column_names:
            return _OUT.empty_table()
        n = np.asarray(t["n"], dtype=np.int64).astype(np.float64)
        sx = np.asarray(t["sx"], dtype=np.int64).astype(np.float64)
        sy = np.asarray(t["sy"], dtype=np.int64).astype(np.float64)
        sxy = np.asarray(t["sxy"], dtype=np.int64).astype(np.float64)
        sxx = np.asarray(t["sxx"], dtype=np.int64).astype(np.float64)
        syy = np.asarray(t["syy"], dtype=np.int64).astype(np.float64)
        corr = (n * sxy - sx * sy) / np.sqrt(
            (n * sxx - sx * sx) * (n * syy - sy * sy))
        pairs = t["pair"].to_pylist()          # 6 rows total, not row data
        return pa.table({
            "col_x": pa.array([p.split("|")[0] for p in pairs]),
            "col_y": pa.array([p.split("|")[1] for p in pairs]),
            "n": t["n"].combine_chunks().cast(pa.int64()),
            "corr_e4": pa.array(np.floor(corr * 10000 + 0.5)
                                .astype(np.int64)),
        })

    return sums.map_batches(finish, batch_format="pyarrow")


def _sql_q140() -> str:
    stats = []
    for c in _CORR_COLS:
        stats.append(f"SUM({c}) AS s_{c}, SUM({c} * {c}) AS ss_{c}")
    for cx, cy in _CORR_PAIRS:
        stats.append(f"SUM({cx} * {cy}) AS c_{cx}_{cy}")
    sel = []
    for cx, cy in _CORR_PAIRS:
        expr = (f"(CAST(n AS DOUBLE) * CAST(c_{cx}_{cy} AS DOUBLE)"
                f" - CAST(s_{cx} AS DOUBLE) * CAST(s_{cy} AS DOUBLE))"
                f" / sqrt((CAST(n AS DOUBLE) * CAST(ss_{cx} AS DOUBLE)"
                f" - CAST(s_{cx} AS DOUBLE) * CAST(s_{cx} AS DOUBLE))"
                f" * (CAST(n AS DOUBLE) * CAST(ss_{cy} AS DOUBLE)"
                f" - CAST(s_{cy} AS DOUBLE) * CAST(s_{cy} AS DOUBLE)))")
        sel.append(f"SELECT '{cx}' AS col_x, '{cy}' AS col_y, n,"
                   f" CAST(FLOOR({expr} * 10000 + 0.5) AS BIGINT)"
                   f" AS corr_e4 FROM s")
    return f"""
WITH b AS (
  SELECT CAST(FLOOR(l_quantity + 0.5) AS BIGINT) AS qty,
         CAST(FLOOR(l_extendedprice + 0.5) AS BIGINT) AS price,
         CAST(FLOOR(l_discount * 100 + 0.5) AS BIGINT) AS disc,
         CAST(FLOOR(l_tax * 100 + 0.5) AS BIGINT) AS tax
  FROM lineitem
),
s AS (
  SELECT CAST(count(*) AS BIGINT) AS n, {", ".join(stats)}
  FROM b
)
{" UNION ALL ".join(sel)}
"""


# --- q152: k-anonymity audit -------------------------------------------------

K_ANON = 5          # minimum group size per quasi-identifier combo


def q152_k_anonymity(sf_dir: str):
    """k-anonymity audit before a data release (Sweeney 2002): every
    quasi-identifier combination — (nation, market segment, account-
    balance band) — whose group is smaller than K_ANON, i.e. the cells
    that re-identify individuals.  Balance banding shifts cents
    non-negative BEFORE the integer division (DuckDB ``//`` truncates
    where numpy floors — CLAUDE.md trap; on non-negative operands they
    agree).  Per-batch combo partials → ONE composite-key sum exchange
    → size filter; the audit output is O(violating cells), the input
    never leaves its partition un-aggregated."""
    import polars as pl

    from ..functions.grouping import bucketed_sum

    cust = read_parquet_clean(
        f"{sf_dir}/customer.parquet",
        columns=["c_nationkey", "c_mktsegment", "c_acctbal"])

    _PART = pa.schema([("nation", pa.int64()), ("seg", pa.string()),
                       ("bal_bin", pa.int64()), ("n_p", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "c_nationkey" not in t.column_names:
            return _PART.empty_table()
        cents = np.floor(np.asarray(t["c_acctbal"]) * 100
                         + 0.5).astype(np.int64)
        return (pl.DataFrame({
            "nation": np.asarray(t["c_nationkey"].cast(pa.int64()),
                                 dtype=np.int64),
            "seg": pl.from_arrow(t["c_mktsegment"].combine_chunks()),
            "bal_bin": (cents + 1_000_000) // 100_000})
            .group_by(["nation", "seg", "bal_bin"])
            .agg(n_p=pl.len().cast(pl.Int64))
            .to_arrow().cast(_PART))

    sums = bucketed_sum(cust.map_batches(partial, batch_format="pyarrow"),
                        ["nation", "seg", "bal_bin"], "n_p", "n",
                        num_buckets=8)
    return sums.filter(expr=f"n < {K_ANON}")


SQL_Q152 = f"""
WITH q AS (
  SELECT CAST(c_nationkey AS BIGINT) AS nation,
         c_mktsegment AS seg,
         (CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT) + 1000000)
             // 100000 AS bal_bin
  FROM customer
)
SELECT nation, seg, bal_bin, CAST(count(*) AS BIGINT) AS n
FROM q GROUP BY 1, 2, 3 HAVING count(*) < {K_ANON}
"""


# --- q170: l-diversity audit -------------------------------------------------

def q170_l_diversity(sf_dir: str):
    """l-diversity audit (Machanavajjhala 2007) — the release screen
    k-anonymity (q152) cannot provide: a group of ≥K people all sharing
    ONE sensitive value still leaks it (the homogeneity attack), so for
    every quasi-identifier group (nation, segment) report the number of
    DISTINCT sensitive values (the balance band) and the top value's
    share.  A release policy reads both: l_distinct < L or
    top_share_e4 near 10⁴ → generalize further.

    Shape: q152's cell partials (ONE composite-key sum) → one tiny
    nation-keyed exchange whose fold groups cells per (nation, seg) —
    distinct count, Σn, max n, all exact int64."""
    import polars as pl

    from ..functions.grouping import bucketed_sum, hash_exchange

    cust = read_parquet_clean(
        f"{sf_dir}/customer.parquet",
        columns=["c_nationkey", "c_mktsegment", "c_acctbal"])

    _PART = pa.schema([("nation", pa.int64()), ("seg", pa.string()),
                       ("bal_bin", pa.int64()), ("n_p", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "c_nationkey" not in t.column_names:
            return _PART.empty_table()
        cents = np.floor(np.asarray(t["c_acctbal"]) * 100
                         + 0.5).astype(np.int64)
        return (pl.DataFrame({
            "nation": np.asarray(t["c_nationkey"].cast(pa.int64()),
                                 dtype=np.int64),
            "seg": pl.from_arrow(t["c_mktsegment"].combine_chunks()),
            "bal_bin": (cents + 1_000_000) // 100_000})
            .group_by(["nation", "seg", "bal_bin"])
            .agg(n_p=pl.len().cast(pl.Int64))
            .to_arrow().cast(_PART))

    cells = bucketed_sum(cust.map_batches(partial, batch_format="pyarrow"),
                         ["nation", "seg", "bal_bin"], "n_p", "m",
                         num_buckets=8)

    _OUT = pa.schema([("nation", pa.int64()), ("seg", pa.string()),
                      ("n", pa.int64()), ("l_distinct", pa.int64()),
                      ("top_share_e4", pa.int64())])

    def fold(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "nation" not in t.column_names:
            return _OUT.empty_table()
        g = (pl.from_arrow(t).group_by(["nation", "seg"])
             .agg(n=pl.col("m").sum(),
                  l_distinct=pl.len().cast(pl.Int64),
                  top=pl.col("m").max()))
        return (g.with_columns(
            top_share_e4=(10000 * pl.col("top")) // pl.col("n"))
            .drop("top").to_arrow().cast(_OUT))

    return hash_exchange(cells, "nation", fold, num_buckets=4)


SQL_Q170 = """
WITH c AS (
  SELECT CAST(c_nationkey AS BIGINT) AS nation, c_mktsegment AS seg,
         (CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT) + 1000000)
           // 100000 AS bal_bin
  FROM customer
),
g AS (SELECT nation, seg, bal_bin, CAST(count(*) AS BIGINT) AS m
      FROM c GROUP BY 1, 2, 3)
SELECT nation, seg, CAST(sum(m) AS BIGINT) AS n,
       CAST(count(*) AS BIGINT) AS l_distinct,
       CAST(10000 * max(m) // sum(m) AS BIGINT) AS top_share_e4
FROM g GROUP BY 1, 2
"""


# --- q171: vocabulary richness (Good-Turing + Chao1) -------------------------

def q171_vocab_richness(sf_dir: str):
    """Corpus vocabulary-richness report — the two classic estimates a
    crawl-growth plan reads from frequency-of-frequencies alone:
    Good-Turing unseen mass (P(next token is NEW) ≈ singletons/N, Good
    1953) and the bias-corrected Chao1 species-richness floor
    (V + s1·(s1−1)/(2·(s2+1)), Chao 1984 — "how big is the vocabulary
    we HAVEN'T finished seeing").  Both are exact integer arithmetic
    over three corpus scalars.

    Shape: q05's token-count partials → ONE vocab-keyed sum whose
    per-bucket fold emits 4 scalars (Σm, V, s1, s2) — the full count
    table never leaves its bucket — then an O(buckets) driver sum."""
    import polars as pl

    from ..functions.grouping import hash_exchange

    ds = read_parquet_clean(f"{sf_dir}/documents.parquet",
                               columns=["text"])

    _PART = pa.schema([("token", pa.string()), ("n_p", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "text" not in t.column_names:
            return _PART.empty_table()
        toks = (pl.from_arrow(t["text"].combine_chunks())
                .str.to_lowercase().str.extract_all("[a-z0-9]+")
                .explode(empty_as_null=True).drop_nulls())
        if len(toks) == 0:
            return _PART.empty_table()
        vc = pl.DataFrame({"token": toks}).group_by("token") \
               .len(name="n_p")
        return pa.table({"token": vc["token"].to_arrow().cast(pa.string()),
                         "n_p": vc["n_p"].cast(pl.Int64).to_arrow()})

    _F = pa.schema([("n_tok", pa.int64()), ("v", pa.int64()),
                    ("s1", pa.int64()), ("s2", pa.int64())])

    def fold(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "token" not in t.column_names:
            return _F.empty_table()
        m = (pl.from_arrow(t).group_by("token")
             .agg(m=pl.col("n_p").sum()))["m"].to_numpy()
        return pa.table({
            "n_tok": pa.array([int(m.sum())], type=pa.int64()),
            "v": pa.array([len(m)], type=pa.int64()),
            "s1": pa.array([int((m == 1).sum())], type=pa.int64()),
            "s2": pa.array([int((m == 2).sum())], type=pa.int64()),
        })

    parts = hash_exchange(ds.map_batches(partial, batch_format="pyarrow"),
                          "token", fold, num_buckets=16).to_pandas()
    n_tok = int(parts["n_tok"].sum())
    v = int(parts["v"].sum())
    s1 = int(parts["s1"].sum())
    s2 = int(parts["s2"].sum())
    return pa.table({
        "n_tokens": pa.array([n_tok], type=pa.int64()),
        "vocab": pa.array([v], type=pa.int64()),
        "s1": pa.array([s1], type=pa.int64()),
        "s2": pa.array([s2], type=pa.int64()),
        "unseen_e6": pa.array([1_000_000 * s1 // n_tok], type=pa.int64()),
        "chao1": pa.array([v + s1 * (s1 - 1) // (2 * (s2 + 1))],
                          type=pa.int64()),
    })


SQL_Q171 = """
WITH toks AS (
  SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS tok
  FROM documents
),
c AS (SELECT tok, CAST(count(*) AS BIGINT) AS m FROM toks GROUP BY tok)
SELECT CAST(sum(m) AS BIGINT) AS n_tokens,
       CAST(count(*) AS BIGINT) AS vocab,
       CAST(count(*) FILTER (m = 1) AS BIGINT) AS s1,
       CAST(count(*) FILTER (m = 2) AS BIGINT) AS s2,
       CAST(1000000 * (count(*) FILTER (m = 1)) // sum(m) AS BIGINT)
         AS unseen_e6,
       CAST(count(*) + (count(*) FILTER (m = 1))
            * ((count(*) FILTER (m = 1)) - 1)
            // (2 * ((count(*) FILTER (m = 2)) + 1)) AS BIGINT) AS chao1
FROM c
"""


QUERIES = {
    "q31_distinct_users": (q31_distinct_users, SQL_Q31),
    "q170_l_diversity": (q170_l_diversity, SQL_Q170),
    "q171_vocab_richness": (q171_vocab_richness, SQL_Q171),
    "q140_correlation_matrix": (q140_correlation_matrix, _sql_q140()),
    "q152_k_anonymity": (q152_k_anonymity, SQL_Q152),
    "q132_key_skew": (q132_key_skew, SQL_Q132),
    "q94_audience_overlap": (q94_audience_overlap, SQL_Q94),
    "hll_distinct_users": (hll_distinct_users, None),
    # sketch estimate → rows-only; pytest pins vs q94's exact Jaccard
    "kmv_jaccard": (kmv_jaccard, None),
    "q47_heavy_tokens": (q47_heavy_tokens, SQL_Q47),
    "quantile_sketch_value": (quantile_sketch_value, None),
    "q87_profile_documents": (q87_profile_documents, SQL_Q87),
}
