"""Distributed learning queries (SURVEY §2 G8, reference learning/
FewParamsLearning.scala): exact full-batch gradient step (oracle-paired
— the logistic kernel is SQL-expressible through ``exp``), the
iterative parameter-averaged parallel SGD built from the same kernel,
and the flagship trainer that learns the pair-scorer blend weights
from the labeled pairs and reports hand-set vs learned F1.

Feature set for the relational twins: three O(1)-scaled lineitem
columns (quantity/50, discount×10, tax×10) with label
``l_returnflag = 'R'`` — deterministic, sf-scaled, and derivable in
ANSI SQL so DuckDB can replay the identical math.  Weights are e4
fixed-point in both engines (mean over ≥60k rows; cross-engine float
sum drift is ~1e-12 relative, far inside the rounding).
"""

from __future__ import annotations
from pboh_entity_linking_ray.sources.reading import read_parquet_clean

import numpy as np
import pyarrow as pa
import ray.data

from ..stages.train import logistic_grad_step, parallel_sgd
from .relational import _t

# fixed starting point for the oracle-paired step: nonzero so the
# sigmoid actually exercises exp() in both engines
W0 = (0.05, 0.1, -0.2, 0.3)
LR = 1.0

_FEATS_SQL = """
  SELECT l_quantity / 50.0      AS x1,
         l_discount * 10.0      AS x2,
         l_tax * 10.0           AS x3,
         CASE WHEN l_returnflag = 'R' THEN 1.0 ELSE 0.0 END AS y
  FROM lineitem
"""


def _lineitem_features(sf_dir: str) -> ray.data.Dataset:
    li = _t(sf_dir, "lineitem",
            ["l_quantity", "l_discount", "l_tax", "l_returnflag"])

    def feats(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "x1": pc.divide(t["l_quantity"], 50.0),
            "x2": pc.multiply(t["l_discount"], 10.0),
            "x3": pc.multiply(t["l_tax"], 10.0),
            "y": pc.cast(pc.equal(t["l_returnflag"], "R"), pa.float64()),
        })

    return li.map_batches(feats, batch_format="pyarrow")


def q63_grad_step(sf_dir: str):
    """One exact full-batch logistic gradient step from W0 (the
    SQL-checkable core of G8; reference loss/gradient shape
    learning/FewParamsLearning.scala:694-703)."""
    w1, _loss = logistic_grad_step(_lineitem_features(sf_dir),
                                   ["x1", "x2", "x3"], "y", W0, LR)
    e4 = [int(round(v * 10000)) for v in w1]
    return pa.table({
        "w_bias_e4": pa.array([e4[0]], type=pa.int64()),
        "w_qty_e4": pa.array([e4[1]], type=pa.int64()),
        "w_disc_e4": pa.array([e4[2]], type=pa.int64()),
        "w_tax_e4": pa.array([e4[3]], type=pa.int64()),
    })


SQL_Q63 = f"""
WITH f AS ({_FEATS_SQL}),
p AS (
  SELECT y, x1, x2, x3,
         1.0 / (1.0 + exp(-({W0[0]} + {W0[1]} * x1
                            + ({W0[2]}) * x2 + {W0[3]} * x3))) AS pr
  FROM f
)
SELECT
  CAST(ROUND(10000 * ({W0[0]} - {LR} * avg(pr - y)))        AS BIGINT) AS w_bias_e4,
  CAST(ROUND(10000 * ({W0[1]} - {LR} * avg((pr - y) * x1))) AS BIGINT) AS w_qty_e4,
  CAST(ROUND(10000 * ({W0[2]} - {LR} * avg((pr - y) * x2))) AS BIGINT) AS w_disc_e4,
  CAST(ROUND(10000 * ({W0[3]} - {LR} * avg((pr - y) * x3))) AS BIGINT) AS w_tax_e4
FROM p
"""


def q64_sgd_train(sf_dir: str):
    """Parameter-averaged parallel SGD over the same feature set —
    the iterative G8 production path (block-local SGD → driver mean →
    re-broadcast per epoch).  Rows-only: the multi-epoch loop is not
    SQL-expressible; q63 oracle-checks the shared gradient kernel and
    the pytest suite checks convergence.  The block layout is pinned
    (repartition 8) so the per-epoch averages are reproducible."""
    ds = _lineitem_features(sf_dir).repartition(8)
    _w, hist = parallel_sgd(ds, ["x1", "x2", "x3"], "y",
                            epochs=4, lr=0.5, w_init=W0)
    return pa.table({
        "epoch": pa.array([h["epoch"] for h in hist], type=pa.int64()),
        "loss_e4": pa.array([int(round(h["loss"] * 10000)) for h in hist],
                            type=pa.int64()),
        "w_bias_e4": pa.array([int(round(h["w"][0] * 10000)) for h in hist],
                              type=pa.int64()),
        "w_qty_e4": pa.array([int(round(h["w"][1] * 10000)) for h in hist],
                             type=pa.int64()),
        "w_disc_e4": pa.array([int(round(h["w"][2] * 10000)) for h in hist],
                              type=pa.int64()),
        "w_tax_e4": pa.array([int(round(h["w"][3] * 10000)) for h in hist],
                             type=pa.int64()),
    })


def link_train_weights(sf_dir: str):
    """Flagship G8: learn the pair-scorer blend weights from the labeled
    pairs, then report hand-set vs learned decision quality.

    The scored stream already carries the per-pair components the
    reference's learner consumes (jw / jaccard / pboh — the analog of
    ScorerWeights' few scalars): join the broadcast gold labels in, run
    parameter-averaged SGD over (bias, jw, jaccard, pboh), and re-judge
    the SAME scored stream under the learned decision rule
    ``b + w·x ≥ 0``.  A positive learned vector maps onto a drop-in
    ``ScorerWeights``: w_jw/w_jac/pboh_weight = w₁/w₂/w₃ with
    match_threshold = −b/(w₁+w₂+w₃) — the reference's learn-then-plug
    contract (FewParamsLearning.scala → ScorerWeights)."""
    import ray

    from ..stages.evaluate import _label_table, pairwise_metrics
    from .linkage_queries import _labels, _run

    res, cfg = _run(sf_dir)
    labels = _labels(sf_dir)
    lbl_ref = ray.put(_label_table(labels))

    def labeled(t: pa.Table) -> pa.Table:
        import polars as pl

        if t.num_rows == 0:
            return pa.table({"jw": pa.array([], pa.float64()),
                             "jaccard": pa.array([], pa.float64()),
                             "pboh": pa.array([], pa.float64()),
                             "y": pa.array([], pa.float64())})
        lbl = ray.get(lbl_ref)
        df = (pl.from_arrow(t.select(["pair_key", "jw", "jaccard", "pboh"]))
              .join(pl.from_arrow(lbl), on="pair_key", how="inner")
              .with_columns(y=pl.col("gold").cast(pl.Float64))
              .select(["jw", "jaccard", "pboh", "y"]))
        return df.to_arrow()

    train_ds = res.scored.map_batches(
        labeled, batch_format="pyarrow").repartition(8)
    w, hist = parallel_sgd(train_ds, ["jw", "jaccard", "pboh"], "y",
                           epochs=6, lr=2.0, passes=2)

    b, w1, w2, w3 = (float(v) for v in w)

    def relearn(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        z = (b + w1 * t["jw"].to_numpy(zero_copy_only=False)
             + w2 * t["jaccard"].to_numpy(zero_copy_only=False)
             + w3 * t["pboh"].to_numpy(zero_copy_only=False))
        i = t.schema.get_field_index("is_match")
        return t.set_column(i, "is_match", pa.array(z >= 0.0, pa.bool_()))

    learned_scored = res.scored.map_batches(relearn, batch_format="pyarrow")
    m_hand = pairwise_metrics(res.scored, labels)
    m_learned = pairwise_metrics(learned_scored, labels)

    wsum = w1 + w2 + w3
    thresh = -b / wsum if wsum > 0 else None
    rows = [("hand", m_hand, [0.0, cfg.weights.w_jw, cfg.weights.w_jac, 1.0],
             cfg.weights.match_threshold),
            ("learned", m_learned, [b, w1, w2, w3], thresh)]
    return pa.table({
        "variant": pa.array([r[0] for r in rows]),
        "precision_e4": pa.array(
            [int(round(r[1]["precision"] * 10000)) for r in rows],
            type=pa.int64()),
        "recall_e4": pa.array(
            [int(round(r[1]["recall"] * 10000)) for r in rows],
            type=pa.int64()),
        "f1_e4": pa.array([int(round(r[1]["f1"] * 10000)) for r in rows],
                          type=pa.int64()),
        "w_bias_e4": pa.array([int(round(r[2][0] * 10000)) for r in rows],
                              type=pa.int64()),
        "w_jw_e4": pa.array([int(round(r[2][1] * 10000)) for r in rows],
                            type=pa.int64()),
        "w_jac_e4": pa.array([int(round(r[2][2] * 10000)) for r in rows],
                             type=pa.int64()),
        "w_pboh_e4": pa.array([int(round(r[2][3] * 10000)) for r in rows],
                              type=pa.int64()),
        "thresh_e4": pa.array(
            [None if r[3] is None else int(round(r[3] * 10000))
             for r in rows], type=pa.int64()),
        "final_loss_e4": pa.array(
            [None, int(round(hist[-1]["loss"] * 10000)) if hist else None],
            type=pa.int64()),
    })


# --- q86: grouped OLS trend via exact-integer sufficient statistics --------

TREND_DAY0 = 19723   # 2024-01-01 in days since the unix epoch: centering
#                      x near zero keeps every integer sum far inside
#                      int64 (x ~ 10², so Σx² ~ 10⁴·n); the literal is
#                      mirrored into the SQL twin


def q86_user_trend(sf_dir: str):
    """Per-user linear regression of event value (cents) against event
    day — the grouped-OLS pattern every feature-engineering pipeline
    needs (spend trend per user).  The whole regression reduces to five
    sufficient statistics (n, Σx, Σy, Σxy, Σx²), each an EXACT integer:
    one vectorized per-batch partial pass, ONE skinny 5-column exchange
    (``bucketed_sum_multi``), then slope/intercept finished per group
    from the exact sums — the raw events never shuffle, and both
    engines divide the SAME integers, so e6/e2 fixed-point matches
    hash-exactly.  Groups with zero x-variance (all events one day)
    are excluded in both engines (the WHERE den <> 0 twin).

    Reference analog: the per-key sufficient-statistic reduction is the
    same partial-combine shape as the SGD gradient sums
    (learning/FewParamsLearning.scala:694-703) — a closed-form model
    per key instead of one global iterative model."""
    from ..functions.grouping import bucketed_sum_multi

    ev = read_parquet_clean(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts", "value"])

    def partial(t: pa.Table) -> pa.Table:
        import polars as pl

        x = (np.asarray(t["ts"]).astype("datetime64[us]").astype(np.int64)
             // 86_400_000_000) - TREND_DAY0
        y = np.floor(np.asarray(t["value"]) * 100 + 0.5).astype(np.int64)
        df = pl.DataFrame({
            "user_id": np.asarray(t["user_id"], dtype=np.int64),
            "x": x, "y": y,
        })
        return (df.group_by("user_id")
                .agg(n=pl.len().cast(pl.Int64),
                     sx=pl.col("x").sum(),
                     sy=pl.col("y").sum(),
                     sxy=(pl.col("x") * pl.col("y")).sum(),
                     sxx=(pl.col("x") * pl.col("x")).sum())
                .to_arrow())

    sums = bucketed_sum_multi(
        ev.map_batches(partial, batch_format="pyarrow"),
        ["user_id"],
        {"n": "n", "sx": "sx", "sy": "sy", "sxy": "sxy", "sxx": "sxx"})

    def finish(t: pa.Table) -> pa.Table:
        n = np.asarray(t["n"], dtype=np.int64)
        sx = np.asarray(t["sx"], dtype=np.int64)
        sy = np.asarray(t["sy"], dtype=np.int64)
        sxy = np.asarray(t["sxy"], dtype=np.int64)
        sxx = np.asarray(t["sxx"], dtype=np.int64)
        num = (n * sxy - sx * sy).astype(np.float64)
        den = (n * sxx - sx * sx).astype(np.float64)
        keep = den != 0
        slope = num[keep] / den[keep]
        icept = (sy[keep] - slope * sx[keep]) / n[keep]
        return pa.table({
            "user_id": pa.array(np.asarray(t["user_id"],
                                           dtype=np.int64)[keep]),
            "n_events": pa.array(n[keep]),
            "slope_e6": pa.array(
                np.floor(slope * 1e6 + 0.5).astype(np.int64)),
            "icept_cents": pa.array(
                np.floor(icept + 0.5).astype(np.int64)),
        })

    return sums.map_batches(finish, batch_format="pyarrow")


SQL_Q86 = f"""
WITH e AS (
  SELECT user_id,
         CAST(FLOOR(EPOCH(ts) / 86400) AS BIGINT) - {TREND_DAY0} AS x,
         CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS y
  FROM events
),
s AS (
  SELECT user_id, CAST(count(*) AS BIGINT) AS n,
         SUM(x) AS sx, SUM(y) AS sy, SUM(x * y) AS sxy, SUM(x * x) AS sxx
  FROM e GROUP BY user_id
)
SELECT CAST(user_id AS BIGINT) AS user_id,
       n AS n_events,
       CAST(FLOOR(1000000.0 * (CAST(n * sxy - sx * sy AS DOUBLE)
                               / CAST(n * sxx - sx * sx AS DOUBLE))
                  + 0.5) AS BIGINT) AS slope_e6,
       CAST(FLOOR((CAST(sy AS DOUBLE)
                   - CAST(n * sxy - sx * sy AS DOUBLE)
                     / CAST(n * sxx - sx * sx AS DOUBLE)
                     * CAST(sx AS DOUBLE)) / CAST(n AS DOUBLE)
                  + 0.5) AS BIGINT) AS icept_cents
FROM s
WHERE n * sxx - sx * sx <> 0
"""


# --- q95: A/B experiment analysis (Welch t from sufficient statistics) -----

def q95_ab_welch(sf_dir: str):
    """Per-event-type A/B comparison (deterministic assignment
    user_id % 2) of the value metric: Welch's t statistic and mean
    difference, reduced to six EXACT integer sufficient statistics
    (n/Σy/Σy² per arm) — one vectorized partial pass, one tiny
    O(types) exchange, closed-form finish.  The float expression tree
    (casts, op order) is mirrored token-for-token in the SQL twin so
    e4/e2 fixed-point matches hash-exactly; Σy² is cast to DOUBLE
    BEFORE squaring-terms arithmetic because at corpus scale Σy·Σy
    overflows int64 (DuckDB would silently widen to HUGEINT and
    diverge)."""
    import polars as pl

    from ..functions.grouping import hash_exchange

    ev = read_parquet_clean(f"{sf_dir}/events.parquet",
                               columns=["event_type", "user_id", "value"])

    _PART = pa.schema([("event_type", pa.string()), ("grp", pa.int64()),
                       ("n", pa.int64()), ("s", pa.int64()),
                       ("ss", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "event_type" not in t.column_names:
            return _PART.empty_table()
        y = np.floor(np.asarray(t["value"]) * 100 + 0.5).astype(np.int64)
        df = pl.DataFrame({
            "event_type": pl.from_arrow(t["event_type"].combine_chunks()),
            "grp": np.asarray(t["user_id"], dtype=np.int64) % 2,
            "y": y,
        })
        return (df.group_by(["event_type", "grp"])
                .agg(n=pl.len().cast(pl.Int64), s=pl.col("y").sum(),
                     ss=(pl.col("y") * pl.col("y")).sum())
                .to_arrow().cast(_PART))

    def finish(t: pa.Table) -> pa.Table:
        _OUT = pa.schema([("event_type", pa.string()),
                          ("n_a", pa.int64()), ("n_b", pa.int64()),
                          ("dmean_e2", pa.int64()), ("t_e4", pa.int64())])
        if t.num_rows == 0 or "event_type" not in t.column_names:
            return _OUT.empty_table()
        df = (pl.from_arrow(t).group_by(["event_type", "grp"])
              .agg(n=pl.col("n").sum(), s=pl.col("s").sum(),
                   ss=pl.col("ss").sum()))
        a = df.filter(pl.col("grp") == 0)
        b = df.filter(pl.col("grp") == 1).rename(
            {"n": "nb", "s": "sb", "ss": "ssb"}).drop("grp")
        j = a.drop("grp").join(b, on="event_type", how="inner") \
             .filter((pl.col("n") > 1) & (pl.col("nb") > 1))
        if j.height == 0:
            return _OUT.empty_table()
        na = j["n"].to_numpy().astype(np.float64)
        nb = j["nb"].to_numpy().astype(np.float64)
        sa = j["s"].to_numpy().astype(np.float64)
        sb = j["sb"].to_numpy().astype(np.float64)
        ssa = j["ss"].to_numpy().astype(np.float64)
        ssb = j["ssb"].to_numpy().astype(np.float64)
        ma, mb = sa / na, sb / nb
        va = (ssa - sa * sa / na) / (na - 1)
        vb = (ssb - sb * sb / nb) / (nb - 1)
        tstat = (ma - mb) / np.sqrt(va / na + vb / nb)
        return pa.table({
            "event_type": j["event_type"].to_arrow().cast(pa.string()),
            "n_a": j["n"].to_arrow().cast(pa.int64()),
            "n_b": j["nb"].to_arrow().cast(pa.int64()),
            "dmean_e2": pa.array(np.floor(ma - mb + 0.5).astype(np.int64)),
            "t_e4": pa.array(np.floor(tstat * 10000 + 0.5)
                             .astype(np.int64)),
        })

    parts = ev.map_batches(partial, batch_format="pyarrow")
    return hash_exchange(parts, "event_type", finish, num_buckets=4)


SQL_Q95 = """
WITH e AS (
  SELECT event_type, user_id % 2 AS grp,
         CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS y
  FROM events
),
s AS (
  SELECT event_type, grp, CAST(count(*) AS BIGINT) AS n,
         SUM(y) AS sum_y, SUM(y * y) AS ss
  FROM e GROUP BY 1, 2
),
j AS (
  SELECT a.event_type,
         CAST(a.n AS DOUBLE) AS na, CAST(b.n AS DOUBLE) AS nb,
         CAST(a.sum_y AS DOUBLE) AS sa, CAST(b.sum_y AS DOUBLE) AS sb,
         CAST(a.ss AS DOUBLE) AS ssa, CAST(b.ss AS DOUBLE) AS ssb,
         a.n AS n_a, b.n AS n_b
  FROM s a JOIN s b ON a.event_type = b.event_type
  WHERE a.grp = 0 AND b.grp = 1 AND a.n > 1 AND b.n > 1
)
SELECT event_type, n_a, n_b,
       CAST(FLOOR(sa / na - sb / nb + 0.5) AS BIGINT) AS dmean_e2,
       CAST(FLOOR((sa / na - sb / nb)
                  / sqrt(((ssa - sa * sa / na) / (na - 1)) / na
                         + ((ssb - sb * sb / nb) / (nb - 1)) / nb)
                  * 10000 + 0.5) AS BIGINT) AS t_e4
FROM j
"""


# --- q157: Benford first-digit audit -----------------------------------

def q157_benford_audit(sf_dir: str):
    """Benford's-law first-digit audit of the order-amount column — the
    classic forensic/data-quality screen (Benford 1938; Nigrini 1996)
    for fabricated or truncated numeric data: naturally occurring
    amounts follow P(d) = log10(1 + 1/d), synthetic ones usually don't.

    Exact-integer discipline end to end: amounts become cents via
    floor(x·100+0.5) (the q01 device), the first digit is extracted by
    a vectorized ``searchsorted`` against the 18 powers of ten —
    integer division by 10^(digits−1), never float log10 whose boundary
    error at exact powers of ten could misclassify — per-batch ≤9-row
    digit partials flow through ONE tiny keyed sum, and the ≤9-row
    driver fold emits share_e6 = n·10⁶//N vs benford_e6 =
    floor(log10(1+1/d)·10⁶) (the nine float constants sit ≥0.01 from
    an integer boundary at e6, so both engines floor identically).

    100 TB shape: one streaming pass, O(9 × batches) partial rows, the
    driver never sees row-level data."""
    from ..functions.grouping import bucketed_sum

    orders = _t(sf_dir, "orders", ["o_totalprice"])

    _POW10 = 10 ** np.arange(1, 19, dtype=np.int64)      # 10^1 .. 10^18
    _POW_ALL = np.concatenate(([np.int64(1)], _POW10))   # 10^0 .. 10^18
    _PART = pa.schema([("digit", pa.int64()), ("n", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "o_totalprice" not in t.column_names:
            return _PART.empty_table()
        e2 = np.floor(np.asarray(t["o_totalprice"]) * 100 + 0.5) \
            .astype(np.int64)
        mag = np.searchsorted(_POW10, e2, side="right")   # digits − 1
        first = e2 // _POW_ALL[mag]
        cnt = np.bincount(first, minlength=10)[1:10]
        keep = cnt > 0
        return pa.table({
            "digit": pa.array(np.arange(1, 10, dtype=np.int64)[keep]),
            "n": pa.array(cnt[keep].astype(np.int64)),
        })

    sums = bucketed_sum(orders.map_batches(partial, batch_format="pyarrow"),
                        ["digit"], "n", "n", num_buckets=4)
    # ≤9 rows reach the driver: the fold needs N = Σn across ALL digits
    rows = sums.to_pandas()
    digit = rows["digit"].to_numpy(dtype=np.int64)
    n = rows["n"].to_numpy(dtype=np.int64)
    order = np.argsort(digit)
    digit, n = digit[order], n[order]
    total = np.int64(n.sum())
    share_e6 = n * 1_000_000 // total
    benford_e6 = np.floor(
        np.log10(1.0 + 1.0 / digit.astype(np.float64)) * 1_000_000
    ).astype(np.int64)
    return pa.table({
        "digit": pa.array(digit),
        "n": pa.array(n),
        "share_e6": pa.array(share_e6),
        "benford_e6": pa.array(benford_e6),
        "dev_e6": pa.array(share_e6 - benford_e6),
    })


SQL_Q157 = """
WITH e AS (
  SELECT CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS e2 FROM orders
),
c AS (
  SELECT CAST(substr(CAST(e2 AS VARCHAR), 1, 1) AS BIGINT) AS digit,
         CAST(count(*) AS BIGINT) AS n
  FROM e GROUP BY 1
),
t AS (SELECT CAST(sum(n) AS BIGINT) AS total FROM c)
SELECT digit, n,
       n * 1000000 // total AS share_e6,
       CAST(floor(log10(1 + 1.0 / digit) * 1000000) AS BIGINT) AS benford_e6,
       n * 1000000 // total
         - CAST(floor(log10(1 + 1.0 / digit) * 1000000) AS BIGINT) AS dev_e6
FROM c, t
"""


# --- q158/q159 shared: distinct value counts per arm --------------------

def _pc_value_counts(sf_dir: str) -> ray.data.Dataset:
    """Distinct-cents table (v, n1, n2) of the purchase (arm 1) vs click
    (arm 2) value distributions — the sufficient statistics both rank
    tests reduce to (ranks and CDFs depend only on the value multiset):
    scan-pushed event-type filter, per-batch (v, arm) count partials,
    ONE keyed sum."""
    import pyarrow.dataset as pads
    import polars as pl

    from ..functions.grouping import bucketed_sum_multi

    ev = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"],
        filter=pads.field("event_type").isin(["purchase", "click"]))

    _PART = pa.schema([("v", pa.int64()), ("n1", pa.int64()),
                       ("n2", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "value" not in t.column_names:
            return _PART.empty_table()
        v = np.floor(np.asarray(t["value"]) * 100 + 0.5).astype(np.int64)
        g1 = np.asarray(t["event_type"]) == "purchase"
        df = pl.DataFrame({"v": v,
                           "n1": g1.astype(np.int64),
                           "n2": (~g1).astype(np.int64)})
        return (df.group_by("v")
                .agg(pl.col("n1").sum(), pl.col("n2").sum())
                .to_arrow().cast(_PART))

    return bucketed_sum_multi(
        ev.map_batches(partial, batch_format="pyarrow"), ["v"],
        {"n1": "n1", "n2": "n2"})


# --- q158: Mann-Whitney U rank test -------------------------------------

def q158_mannwhitney(sf_dir: str):
    """Mann-Whitney U (Wilcoxon rank-sum) test between the purchase and
    click value distributions — the NONPARAMETRIC two-sample companion
    of q95's Welch t (rank-based, so outliers and non-normality can't
    fake significance).

    Global midranks WITHOUT a global sort: per-batch (v_cents, arm)
    count partials → ONE keyed sum gives the distinct-value table
    (ranks depend only on the value multiset) → ``range_prefix_sum``
    (the q99/q112 distributed scan) supplies each distinct value's
    exclusive cumulative count, and 2·midrank = 2·cum_before + ties + 1
    keeps every quantity integer (doubled midranks, the q139 device).
    The scan output folds to ONE row of exact int64 statistics:
    r1_x2 = Σ n1(v)·(2·cum_before+n+1), u1_x2 = r1_x2 − n1·(n1+1),
    so both engines hash-match exactly — no float ever appears.

    100 TB shape: the purchase/click filter is PUSHED INTO the scan,
    partials are O(distinct cents × batches) skinny rows, the scan
    splits across range buckets (no single-task ceiling), and the
    driver folds O(batches) partial triples."""
    from ..functions.grouping import range_prefix_sum

    distinct = _pc_value_counts(sf_dir)

    def with_n(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "v" not in t.column_names:
            return pa.schema([("v", pa.int64()), ("n1", pa.int64()),
                              ("n", pa.int64())]).empty_table()
        n = (np.asarray(t["n1"], dtype=np.int64)
             + np.asarray(t["n2"], dtype=np.int64))
        return pa.table({"v": t["v"], "n1": t["n1"], "n": pa.array(n)})

    run = range_prefix_sum(distinct.map_batches(with_n,
                                                batch_format="pyarrow"),
                           "v", "n", out_name="cum_before")

    _FOLD = pa.schema([("n1", pa.int64()), ("n", pa.int64()),
                       ("r1_x2", pa.int64())])

    def fold(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "v" not in t.column_names:
            return _FOLD.empty_table()
        n1 = np.asarray(t["n1"], dtype=np.int64)
        n = np.asarray(t["n"], dtype=np.int64)
        cb = np.asarray(t["cum_before"], dtype=np.int64)
        return pa.table({
            "n1": pa.array([np.int64(n1.sum())]),
            "n": pa.array([np.int64(n.sum())]),
            "r1_x2": pa.array([np.int64((n1 * (2 * cb + n + 1)).sum())]),
        })

    parts = run.map_batches(fold, batch_format="pyarrow").to_pandas()
    n1 = np.int64(parts["n1"].sum())
    n2 = np.int64(parts["n"].sum()) - n1
    r1_x2 = np.int64(parts["r1_x2"].sum())
    u1_x2 = r1_x2 - n1 * (n1 + 1)
    return pa.table({
        "n1": pa.array([n1]), "n2": pa.array([n2]),
        "r1_x2": pa.array([r1_x2]), "u1_x2": pa.array([u1_x2]),
    })


SQL_Q158 = """
WITH x AS (
  SELECT CAST(floor(value * 100 + 0.5) AS BIGINT) AS v,
         (event_type = 'purchase') AS g1
  FROM events WHERE event_type IN ('purchase', 'click')
),
r AS (
  SELECT g1,
         2 * (RANK() OVER (ORDER BY v))
           + (COUNT(*) OVER (PARTITION BY v)) - 1 AS mr2
  FROM x
),
s AS (
  SELECT CAST(count(*) FILTER (WHERE g1) AS BIGINT) AS n1,
         CAST(count(*) FILTER (WHERE NOT g1) AS BIGINT) AS n2,
         CAST(sum(CASE WHEN g1 THEN mr2 ELSE 0 END) AS BIGINT) AS r1_x2
  FROM r
)
SELECT n1, n2, r1_x2, r1_x2 - n1 * (n1 + 1) AS u1_x2 FROM s
"""


# --- q159: Kolmogorov-Smirnov two-sample test ----------------------------

def q159_ks_test(sf_dir: str):
    """Two-sample Kolmogorov-Smirnov D between the purchase and click
    value distributions — the CDF-distance companion of q158's rank
    test (MW detects location shift; KS detects ANY distribution
    difference, shape included).

    D = max over v of |F1(v) − F2(v)| evaluated only at the distinct
    values (the empirical CDFs are step functions, so the max lives at
    a step): the shared q158 distinct-cents table feeds TWO
    ``range_prefix_sum`` scans (exclusive cum per arm; + the row's own
    count = inclusive), and the max of the CROSS-MULTIPLIED integer
    form |c1·n2t − c2·n1t| folds per batch — no float division until
    the final single row, where d_e6 = max_diff·10⁶ // (n1t·n2t) is an
    exact integer both engines agree on.  The tiny distinct table is
    materialized once (documented small: O(distinct cents)) so the two
    scans and the totals fold don't re-execute the events pass."""
    from ..functions.grouping import range_prefix_sum

    distinct = _pc_value_counts(sf_dir).materialize()

    tot = distinct.map_batches(
        lambda t: pa.table({
            "n1": pa.array([np.int64(np.asarray(t["n1"]).sum())
                            if t.num_rows else np.int64(0)]),
            "n2": pa.array([np.int64(np.asarray(t["n2"]).sum())
                            if t.num_rows else np.int64(0)]),
        }) if "n1" in t.column_names else
        pa.table({"n1": pa.array([], type=pa.int64()),
                  "n2": pa.array([], type=pa.int64())}),
        batch_format="pyarrow").to_pandas()
    n1t, n2t = np.int64(tot["n1"].sum()), np.int64(tot["n2"].sum())

    run = range_prefix_sum(distinct, "v", "n1", out_name="cb1")
    run = range_prefix_sum(run, "v", "n2", out_name="cb2")

    _FOLD = pa.schema([("md", pa.int64())])

    def fold(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "v" not in t.column_names:
            return _FOLD.empty_table()
        c1 = (np.asarray(t["cb1"], dtype=np.int64)
              + np.asarray(t["n1"], dtype=np.int64))
        c2 = (np.asarray(t["cb2"], dtype=np.int64)
              + np.asarray(t["n2"], dtype=np.int64))
        md = np.abs(c1 * n2t - c2 * n1t).max()
        return pa.table({"md": pa.array([np.int64(md)])})

    parts = run.map_batches(fold, batch_format="pyarrow").to_pandas()
    md = np.int64(parts["md"].max())
    return pa.table({
        "n1": pa.array([n1t]), "n2": pa.array([n2t]),
        "max_cross_diff": pa.array([md]),
        "d_e6": pa.array([np.int64(md * 1_000_000 // (n1t * n2t))]),
    })


SQL_Q159 = """
WITH x AS (
  SELECT CAST(floor(value * 100 + 0.5) AS BIGINT) AS v,
         (event_type = 'purchase') AS g1
  FROM events WHERE event_type IN ('purchase', 'click')
),
d AS (
  SELECT v,
         CAST(sum(CASE WHEN g1 THEN 1 ELSE 0 END) AS BIGINT) AS n1,
         CAST(sum(CASE WHEN g1 THEN 0 ELSE 1 END) AS BIGINT) AS n2
  FROM x GROUP BY v
),
t AS (SELECT CAST(sum(n1) AS BIGINT) AS n1t,
             CAST(sum(n2) AS BIGINT) AS n2t FROM d),
c AS (
  SELECT CAST(sum(n1) OVER (ORDER BY v) AS BIGINT) AS c1,
         CAST(sum(n2) OVER (ORDER BY v) AS BIGINT) AS c2
  FROM d
),
m AS (SELECT CAST(max(abs(c1 * n2t - c2 * n1t)) AS BIGINT) AS md
      FROM c, t)
SELECT n1t AS n1, n2t AS n2, md AS max_cross_diff,
       md * 1000000 // (n1t * n2t) AS d_e6
FROM m, t
"""


# --- q160: Spearman rank correlation -------------------------------------

def q160_spearman(sf_dir: str):
    """Spearman rank correlation between order amount and order date —
    "do larger orders come later?" asked rank-wise, so outliers and
    nonlinearity can't fake a trend (the rank-based companion of q140's
    Pearson matrix).

    Per-row global midranks WITHOUT a global sort, at join scale (the
    q158 broadcast-free upgrade: the amount column's distinct table is
    O(n), so rank attachment must be a JOIN, not a broadcast): each
    column's distinct-value counts flow through ONE keyed sum +
    ``range_prefix_sum`` to a (value, 2·midrank) rank table, and TWO
    bucketed ``hash_join``s attach rx2/ry2 back to the row stream.
    Doubled midranks keep ranks integer; the six sufficient statistics
    (n, Σrx, Σry, Σrx², Σry², Σrxy) accumulate as exact int64 partials,
    and only the final single-row Pearson-on-ranks expression goes
    through DOUBLE (casts mirrored token-for-token in the twin — the
    q95 device, since Σ·Σ products overflow int64 where DuckDB would
    silently widen to HUGEINT).

    The n³-scale sums (Σrx², Σry², Σrxy grow as ~4n³/3, past int64 at
    n ≈ 1.9M rows) accumulate as TWO int64 limbs — per batch each
    product splits into (p >> 32, p & 0xFFFFFFFF) partial sums, and the
    driver reassembles exact Python ints from the O(batches) limb rows —
    while the twin's ``sum()`` widens to HUGEINT naturally; both sides
    then cast the exact integer to DOUBLE for the one-row Pearson
    finish (casts mirrored token-for-token — the q95 device).
    Remaining ceiling is per-ELEMENT: rx·ry ≤ 4n² wraps int64 at
    n ≈ 1.5e9 rows per column (pytest pins exactness at a planted
    2.5M-row rank table, past the old Σ ceiling)."""
    import polars as pl

    from ..functions.grouping import (bucketed_sum, hash_join,
                                      range_prefix_sum)

    orders = _t(sf_dir, "orders", ["o_totalprice", "o_orderdate"])

    _ROW = pa.schema([("x", pa.int64()), ("y", pa.int64())])

    def project(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "o_totalprice" not in t.column_names:
            return _ROW.empty_table()
        x = np.floor(np.asarray(t["o_totalprice"]) * 100 + 0.5) \
            .astype(np.int64)
        y = np.asarray(t["o_orderdate"]).astype("datetime64[us]") \
            .astype(np.int64)
        return pa.table({"x": pa.array(x), "y": pa.array(y)})

    rows = orders.map_batches(project, batch_format="pyarrow").materialize()

    def rank_table(col: str, out: str) -> ray.data.Dataset:
        _P = pa.schema([(col, pa.int64()), ("m", pa.int64())])

        def counts(t: pa.Table) -> pa.Table:
            if t.num_rows == 0 or col not in t.column_names:
                return _P.empty_table()
            return (pl.from_arrow(t.select([col])).group_by(col)
                    .agg(m=pl.len().cast(pl.Int64)).to_arrow().cast(_P))

        distinct = bucketed_sum(
            rows.map_batches(counts, batch_format="pyarrow"),
            [col], "m", "m")
        run = range_prefix_sum(distinct, col, "m", out_name="cb")

        def ranks(t: pa.Table) -> pa.Table:
            if t.num_rows == 0 or col not in t.column_names:
                return pa.schema([(col, pa.int64()),
                                  (out, pa.int64())]).empty_table()
            r2 = (2 * np.asarray(t["cb"], dtype=np.int64)
                  + np.asarray(t["m"], dtype=np.int64) + 1)
            return pa.table({col: t[col], out: pa.array(r2)})

        return run.map_batches(ranks, batch_format="pyarrow")

    with_rx = hash_join(rows, rank_table("x", "rx2"), "x")
    with_both = hash_join(with_rx, rank_table("y", "ry2"), "y")
    return _spearman_from_ranked(with_both)


_SPEAR_S = pa.schema([("n", pa.int64()), ("sx", pa.int64()),
                      ("sy", pa.int64()),
                      ("sxx_hi", pa.int64()), ("sxx_lo", pa.int64()),
                      ("syy_hi", pa.int64()), ("syy_lo", pa.int64()),
                      ("sxy_hi", pa.int64()), ("sxy_lo", pa.int64())])


def _spearman_from_ranked(with_both: ray.data.Dataset) -> pa.Table:
    """Pearson-on-doubled-midranks finish over a (rx2, ry2) row stream.

    The n³-scale sums accumulate exactly via the two-limb int64 split:
    per batch each nonnegative product p contributes to (Σ p>>32,
    Σ p&0xFFFFFFFF) partials — lo-limb batch sums stay < rows·2³² and
    hi limbs are tiny — and the driver reassembles arbitrary-precision
    Python ints from the O(batches) partial rows (the DuckDB twin's
    ``sum()`` widens to HUGEINT on its side).  Per-element rx·ry ≤ 4n²
    is the remaining int64 ceiling (n ≈ 1.5e9 per rank column)."""
    _M32 = np.int64(0xFFFFFFFF)

    def stats(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "rx2" not in t.column_names:
            return _SPEAR_S.empty_table()
        rx = np.asarray(t["rx2"], dtype=np.int64)
        ry = np.asarray(t["ry2"], dtype=np.int64)

        def limbs(p: np.ndarray) -> tuple:
            return (p >> 32).sum(), (p & _M32).sum()

        xxh, xxl = limbs(rx * rx)
        yyh, yyl = limbs(ry * ry)
        xyh, xyl = limbs(rx * ry)
        return pa.table({
            "n": pa.array([np.int64(len(rx))]),
            "sx": pa.array([rx.sum()]), "sy": pa.array([ry.sum()]),
            "sxx_hi": pa.array([xxh]), "sxx_lo": pa.array([xxl]),
            "syy_hi": pa.array([yyh]), "syy_lo": pa.array([yyl]),
            "sxy_hi": pa.array([xyh]), "sxy_lo": pa.array([xyl]),
        })

    p = with_both.map_batches(stats, batch_format="pyarrow").to_pandas()

    def exact(col: str) -> int:
        # O(batches) rows; Python-int fold → arbitrary precision
        return (int(p[f"{col}_hi"].astype(object).sum()) << 32) \
            + int(p[f"{col}_lo"].astype(object).sum())

    n_int = int(p["n"].sum())
    n = np.float64(n_int)
    sx, sy = np.float64(int(p["sx"].sum())), np.float64(int(p["sy"].sum()))
    sxx, syy = np.float64(exact("sxx")), np.float64(exact("syy"))
    sxy = np.float64(exact("sxy"))
    rho = (n * sxy - sx * sy) / np.sqrt((n * sxx - sx * sx)
                                        * (n * syy - sy * sy))
    return pa.table({
        "n": pa.array([np.int64(n_int)]),
        "rho_e6": pa.array([np.int64(np.floor(rho * 1_000_000 + 0.5))]),
    })


SQL_Q160 = """
WITH o AS (
  SELECT CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS x,
         epoch_us(o_orderdate) AS y
  FROM orders
),
r AS (
  SELECT 2 * (RANK() OVER (ORDER BY x))
           + (COUNT(*) OVER (PARTITION BY x)) - 1 AS rx,
         2 * (RANK() OVER (ORDER BY y))
           + (COUNT(*) OVER (PARTITION BY y)) - 1 AS ry
  FROM o
),
s AS (
  -- the n³-scale sums stay HUGEINT (the Ray side reassembles the same
  -- exact integers from two int64 limbs) and go straight to DOUBLE
  SELECT CAST(count(*) AS BIGINT) AS n,
         CAST(sum(rx) AS BIGINT) AS sx, CAST(sum(ry) AS BIGINT) AS sy,
         sum(rx * rx) AS sxx,
         sum(ry * ry) AS syy,
         sum(rx * ry) AS sxy
  FROM r
)
SELECT n,
       CAST(floor((CAST(n AS DOUBLE) * CAST(sxy AS DOUBLE)
                   - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE))
                  / sqrt((CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE)
                          - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE))
                         * (CAST(n AS DOUBLE) * CAST(syy AS DOUBLE)
                            - CAST(sy AS DOUBLE) * CAST(sy AS DOUBLE)))
                  * 1000000 + 0.5) AS BIGINT) AS rho_e6
FROM s
"""


# --- q161: Kruskal-Wallis H test ------------------------------------------

def q161_kruskal_wallis(sf_dir: str):
    """Kruskal-Wallis H across ALL event types' value distributions —
    the k-sample generalisation of q158 (one test answers "do ANY of
    the k arms differ?" without k² pairwise comparisons), with the
    standard tie correction.

    Same midrank machinery, long-form: (v_cents, type) count partials →
    ONE composite-key sum; v-level totals + ``range_prefix_sum`` give
    each distinct value's tie count and exclusive cum; ONE ``hash_join``
    re-attaches them to the long table, whose per-(type) fold emits the
    k-row sufficient statistics (n_i, R_i doubled).  Every distributed
    quantity is exact int64; the final k-term H expression runs in
    DOUBLE with the group sum ACCUMULATED IN TYPE ORDER on both engines
    (``sum(... ORDER BY g)`` in the twin, a sequential sorted-order loop
    here — float addition isn't associative, and an unordered 6-term
    sum can flip the e6 floor)."""
    import polars as pl

    from ..functions.grouping import (bucketed_sum, bucketed_sum_multi,
                                      hash_join, range_prefix_sum)

    ev = read_parquet_clean(f"{sf_dir}/events.parquet",
                               columns=["event_type", "value"])

    _PART = pa.schema([("v", pa.int64()), ("g", pa.string()),
                       ("m", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "value" not in t.column_names:
            return _PART.empty_table()
        v = np.floor(np.asarray(t["value"]) * 100 + 0.5).astype(np.int64)
        df = pl.DataFrame({"v": v, "g": pl.from_arrow(
            t["event_type"].combine_chunks())})
        return (df.group_by(["v", "g"]).agg(m=pl.len().cast(pl.Int64))
                .to_arrow().cast(_PART))

    # consumed by BOTH the v-totals pass and the rank join: materialize
    # the small distinct table (O(distinct cents × types)) so the events
    # scan runs once
    long = bucketed_sum(ev.map_batches(partial, batch_format="pyarrow"),
                        ["v", "g"], "m", "m").materialize()

    vtab = bucketed_sum(long, ["v"], "m", "n_v")
    run = range_prefix_sum(vtab, "v", "n_v", out_name="cb").materialize()

    _T = pa.schema([("tsum", pa.int64())])

    def tie_fold(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "n_v" not in t.column_names:
            return _T.empty_table()
        nv = np.asarray(t["n_v"], dtype=np.int64)
        return pa.table({"tsum": pa.array([np.int64((nv**3 - nv).sum())])})

    tsum = np.int64(run.map_batches(tie_fold, batch_format="pyarrow")
                    .to_pandas()["tsum"].sum())

    joined = hash_join(long, run, "v")

    _G = pa.schema([("g", pa.string()), ("n_i", pa.int64()),
                    ("r_x2", pa.int64())])

    def per_group(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "g" not in t.column_names:
            return _G.empty_table()
        m = np.asarray(t["m"], dtype=np.int64)
        mr2 = (2 * np.asarray(t["cb"], dtype=np.int64)
               + np.asarray(t["n_v"], dtype=np.int64) + 1)
        df = pl.DataFrame({"g": pl.from_arrow(t["g"].combine_chunks()),
                           "n_i": m, "c": m * mr2})
        return (df.group_by("g").agg(pl.col("n_i").sum(),
                                     r_x2=pl.col("c").sum())
                .to_arrow().cast(_G))

    groups = bucketed_sum_multi(
        joined.map_batches(per_group, batch_format="pyarrow"), ["g"],
        {"n_i": "n_i", "r_x2": "r_x2"},
        num_buckets=4).to_pandas().sort_values("g")

    n_i = groups["n_i"].to_numpy(dtype=np.int64)
    r_x2 = groups["r_x2"].to_numpy(dtype=np.int64)
    n = np.int64(n_i.sum())
    nd = np.float64(n)
    acc = np.float64(0.0)
    for ri, ni in zip(r_x2, n_i):            # sequential, type-sorted —
        acc += (np.float64(ri) * np.float64(ri)   # mirrors sum(ORDER BY g)
                / (4.0 * np.float64(ni)))
    h = 12.0 / (nd * (nd + 1.0)) * acc - 3.0 * (nd + 1.0)
    corr = 1.0 - np.float64(tsum) / (nd * nd * nd - nd)
    return pa.table({
        "n": pa.array([n]),
        "k": pa.array([np.int64(len(n_i))]),
        "h_corr_e6": pa.array([np.int64(np.floor(h / corr * 1_000_000
                                                 + 0.5))]),
    })


SQL_Q161 = """
WITH x AS (
  SELECT CAST(floor(value * 100 + 0.5) AS BIGINT) AS v, event_type AS g
  FROM events
),
r AS (
  SELECT g,
         2 * (RANK() OVER (ORDER BY v))
           + (COUNT(*) OVER (PARTITION BY v)) - 1 AS mr2
  FROM x
),
s AS (
  SELECT g, CAST(count(*) AS BIGINT) AS n_i,
         CAST(sum(mr2) AS BIGINT) AS r_x2
  FROM r GROUP BY g
),
t AS (SELECT CAST(sum(n_i) AS BIGINT) AS n,
             CAST(count(*) AS BIGINT) AS k FROM s),
ties AS (
  SELECT CAST(sum(tv * tv * tv - tv) AS BIGINT) AS tsum
  FROM (SELECT CAST(count(*) AS BIGINT) AS tv FROM x GROUP BY v)
),
term AS (
  SELECT sum(CAST(r_x2 AS DOUBLE) * CAST(r_x2 AS DOUBLE)
             / (4.0 * CAST(n_i AS DOUBLE)) ORDER BY g) AS tsq
  FROM s
)
SELECT n, k,
       CAST(floor(
         ((12.0 / (CAST(n AS DOUBLE) * (CAST(n AS DOUBLE) + 1.0)) * tsq
           - 3.0 * (CAST(n AS DOUBLE) + 1.0))
          / (1.0 - CAST(tsum AS DOUBLE)
                   / (CAST(n AS DOUBLE) * CAST(n AS DOUBLE)
                      * CAST(n AS DOUBLE) - CAST(n AS DOUBLE))))
         * 1000000 + 0.5) AS BIGINT) AS h_corr_e6
FROM t, ties, term
"""


# --- q162: Wilcoxon signed-rank test --------------------------------------

def q162_wilcoxon(sf_dir: str):
    """Wilcoxon signed-rank test on PAIRED per-user differences
    (purchase spend − click spend, users active in both) — the paired
    member that completes the nonparametric family (q158 MW: two
    independent samples; q161 KW: k samples; this: matched pairs, where
    using MW would throw away the per-user pairing and its power).

    Standard Pratt-free treatment: zero differences drop, |d| gets
    global midranks (doubled — the shared integer device), W⁺ = rank
    sum of the positive side, W⁻ = n(n+1)/2 − W⁺ (doubled:
    n(n+1) − w_pos_x2).  Three exchanges, all skinny: per-user
    purchase/click sums (ONE user-keyed sum over per-batch partials),
    distinct-|d| tie counts (ONE keyed sum + `range_prefix_sum`), and
    the fold join — every statistic exact int64, no float anywhere."""
    import pyarrow.dataset as pads
    import polars as pl

    from ..functions.grouping import (bucketed_sum_multi,
                                      range_prefix_sum)

    ev = read_parquet_clean(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "value"],
        filter=pads.field("event_type").isin(["purchase", "click"]))

    _U = pa.schema([("user_id", pa.int64()), ("s1", pa.int64()),
                    ("c1", pa.int64()), ("s2", pa.int64()),
                    ("c2", pa.int64())])

    def per_user_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return _U.empty_table()
        cents = np.floor(np.asarray(t["value"]) * 100 + 0.5) \
            .astype(np.int64)
        g1 = np.asarray(t["event_type"]) == "purchase"
        df = pl.DataFrame({
            "user_id": np.asarray(t["user_id"], dtype=np.int64),
            "s1": np.where(g1, cents, 0), "c1": g1.astype(np.int64),
            "s2": np.where(g1, 0, cents), "c2": (~g1).astype(np.int64),
        })
        return (df.group_by("user_id")
                .agg(pl.col("s1").sum(), pl.col("c1").sum(),
                     pl.col("s2").sum(), pl.col("c2").sum())
                .to_arrow().cast(_U))

    users = bucketed_sum_multi(
        ev.map_batches(per_user_partial, batch_format="pyarrow"),
        ["user_id"], {"s1": "s1", "c1": "c1", "s2": "s2", "c2": "c2"})

    _D = pa.schema([("absd", pa.int64()), ("m", pa.int64()),
                    ("mpos", pa.int64())])

    def diff_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "s1" not in t.column_names:
            return _D.empty_table()
        keep = ((np.asarray(t["c1"], dtype=np.int64) > 0)
                & (np.asarray(t["c2"], dtype=np.int64) > 0))
        d = (np.asarray(t["s1"], dtype=np.int64)
             - np.asarray(t["s2"], dtype=np.int64))[keep]
        d = d[d != 0]
        df = pl.DataFrame({"absd": np.abs(d),
                           "mpos": (d > 0).astype(np.int64)})
        return (df.group_by("absd")
                .agg(m=pl.len().cast(pl.Int64), mpos=pl.col("mpos").sum())
                .to_arrow().cast(_D))

    distinct = bucketed_sum_multi(
        users.map_batches(diff_partial, batch_format="pyarrow"),
        ["absd"], {"m": "m", "mpos": "mpos"})

    run = range_prefix_sum(distinct, "absd", "m", out_name="cb")

    _F = pa.schema([("n", pa.int64()), ("w_pos_x2", pa.int64())])

    def fold(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "absd" not in t.column_names:
            return _F.empty_table()
        m = np.asarray(t["m"], dtype=np.int64)
        mpos = np.asarray(t["mpos"], dtype=np.int64)
        cb = np.asarray(t["cb"], dtype=np.int64)
        return pa.table({
            "n": pa.array([np.int64(m.sum())]),
            "w_pos_x2": pa.array([np.int64((mpos * (2 * cb + m + 1))
                                           .sum())]),
        })

    p = run.map_batches(fold, batch_format="pyarrow").to_pandas()
    n = np.int64(p["n"].sum())
    wpos = np.int64(p["w_pos_x2"].sum())
    return pa.table({
        "n_pairs": pa.array([n]),
        "w_pos_x2": pa.array([wpos]),
        "w_neg_x2": pa.array([n * (n + 1) - wpos]),
    })


SQL_Q162 = """
WITH pc AS (
  SELECT user_id,
         CAST(sum(CASE WHEN event_type = 'purchase'
                       THEN CAST(floor(value * 100 + 0.5) AS BIGINT)
                       ELSE 0 END) AS BIGINT) AS s1,
         CAST(count(*) FILTER (WHERE event_type = 'purchase')
              AS BIGINT) AS c1,
         CAST(sum(CASE WHEN event_type = 'click'
                       THEN CAST(floor(value * 100 + 0.5) AS BIGINT)
                       ELSE 0 END) AS BIGINT) AS s2,
         CAST(count(*) FILTER (WHERE event_type = 'click')
              AS BIGINT) AS c2
  FROM events WHERE event_type IN ('purchase', 'click')
  GROUP BY user_id
),
d AS (
  SELECT s1 - s2 AS d FROM pc WHERE c1 > 0 AND c2 > 0 AND s1 <> s2
),
r AS (
  SELECT (d > 0) AS pos,
         2 * (RANK() OVER (ORDER BY abs(d)))
           + (COUNT(*) OVER (PARTITION BY abs(d))) - 1 AS mr2
  FROM d
)
SELECT CAST(count(*) AS BIGINT) AS n_pairs,
       CAST(sum(CASE WHEN pos THEN mr2 ELSE 0 END) AS BIGINT) AS w_pos_x2,
       CAST(count(*) AS BIGINT) * (CAST(count(*) AS BIGINT) + 1)
         - CAST(sum(CASE WHEN pos THEN mr2 ELSE 0 END) AS BIGINT)
         AS w_neg_x2
FROM r
"""


# --- q163: chi-square independence audit --------------------------------

def q163_chi_square(sf_dir: str):
    """Pearson chi-square independence audit of event_type × day-of-week
    — the categorical counterpart of the numeric drift screens (q101
    PSI, q98 source shift): is traffic mix independent of weekday, and
    WHICH cells deviate?  Emits the full contingency table with each
    cell's expected count and chi-square contribution (the standardized
    residuals analysts actually read; the global statistic is their
    plain integer sum, order-free because rounding happens per cell).

    Day-of-week comes from exact integer epoch math
    ((epoch_us // 86_400_000_000 + 4) % 7, Sunday=0 — day 0, 1970-01-01,
    was a Thursday and maps to 4) — never a calendar
    function, whose week-start convention differs across engines.  One
    vectorized count partial per batch, ONE ≤|types|·7-row keyed sum,
    driver fold on the tiny cell table for the row/column totals (they
    need every cell, and the table is O(k·7) at any corpus scale)."""
    import polars as pl

    from ..functions.grouping import bucketed_sum

    ev = read_parquet_clean(f"{sf_dir}/events.parquet",
                               columns=["event_type", "ts"])

    _PART = pa.schema([("g", pa.string()), ("dow", pa.int64()),
                       ("n", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "event_type" not in t.column_names:
            return _PART.empty_table()
        us = np.asarray(t["ts"].cast(pa.int64()), dtype=np.int64)
        dow = (us // 86_400_000_000 + 4) % 7
        df = pl.DataFrame({"g": pl.from_arrow(
            t["event_type"].combine_chunks()), "dow": dow})
        return (df.group_by(["g", "dow"]).agg(n=pl.len().cast(pl.Int64))
                .to_arrow().cast(_PART))

    cells = bucketed_sum(ev.map_batches(partial, batch_format="pyarrow"),
                         ["g", "dow"], "n", "n").to_pandas()
    cells = cells.sort_values(["g", "dow"]).reset_index(drop=True)
    n = cells["n"].to_numpy(dtype=np.int64)
    rt = cells.groupby("g")["n"].transform("sum").to_numpy(dtype=np.int64)
    ct = cells.groupby("dow")["n"].transform("sum").to_numpy(dtype=np.int64)
    nn = np.float64(n.sum())
    # expression tree mirrored token-for-token in the twin
    ex = rt.astype(np.float64) * ct.astype(np.float64) / nn
    d = n.astype(np.float64) - ex
    return pa.table({
        "event_type": pa.array(cells["g"], type=pa.string()),
        "dow": pa.array(cells["dow"].to_numpy(dtype=np.int64)),
        "n": pa.array(n),
        "exp_e2": pa.array(np.floor(ex * 100 + 0.5).astype(np.int64)),
        "chi2_e4": pa.array(np.floor(d * d / ex * 10000 + 0.5)
                            .astype(np.int64)),
    })


SQL_Q163 = """
WITH x AS (
  SELECT event_type AS g,
         (epoch_us(ts) // 86400000000 + 4) % 7 AS dow
  FROM events
),
c AS (
  SELECT g, CAST(dow AS BIGINT) AS dow, CAST(count(*) AS BIGINT) AS n
  FROM x GROUP BY 1, 2
),
e AS (
  SELECT g, dow, n,
         CAST(SUM(n) OVER (PARTITION BY g) AS DOUBLE)
           * CAST(SUM(n) OVER (PARTITION BY dow) AS DOUBLE)
           / CAST(SUM(n) OVER () AS DOUBLE) AS ex
  FROM c
)
SELECT g AS event_type, dow, n,
       CAST(floor(ex * 100 + 0.5) AS BIGINT) AS exp_e2,
       CAST(floor((CAST(n AS DOUBLE) - ex) * (CAST(n AS DOUBLE) - ex)
                  / ex * 10000 + 0.5) AS BIGINT) AS chi2_e4
FROM e
"""


# --- q164: one-way ANOVA F test -------------------------------------------

def q164_anova_f(sf_dir: str):
    """One-way ANOVA F across the k event types' value distributions —
    the parametric member completing the k-sample family (q161 KW is
    its rank-based twin; q95 Welch its 2-sample special case), plus
    eta² effect size (SSB/SST — "how much variance does the grouping
    explain", the number a mix-drift report actually wants).

    Identical distributed shape to q95: exact int64 sufficient
    statistics (n, Σy, Σy² over cents) per batch, ONE ≤k-row keyed sum,
    closed-form driver finish.  The k-term Σ s_i²/n_i fold runs in
    DOUBLE accumulated IN TYPE ORDER on both engines (``sum(... ORDER
    BY g)`` in the twin, a sequential sorted loop here).  Σy² shares
    q95's exactness ceiling: cents ≤ ~10⁴ keeps it inside int64 to
    ~10¹⁰ rows; a wider metric needs the two-limb split before this
    pattern is safe."""
    import polars as pl

    from ..functions.grouping import bucketed_sum_multi

    ev = read_parquet_clean(f"{sf_dir}/events.parquet",
                               columns=["event_type", "value"])

    _PART = pa.schema([("g", pa.string()), ("n_i", pa.int64()),
                       ("s_i", pa.int64()), ("ss_i", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "value" not in t.column_names:
            return _PART.empty_table()
        y = np.floor(np.asarray(t["value"]) * 100 + 0.5).astype(np.int64)
        df = pl.DataFrame({"g": pl.from_arrow(
            t["event_type"].combine_chunks()), "y": y})
        return (df.group_by("g")
                .agg(n_i=pl.len().cast(pl.Int64), s_i=pl.col("y").sum(),
                     ss_i=(pl.col("y") * pl.col("y")).sum())
                .to_arrow().cast(_PART))

    groups = bucketed_sum_multi(
        ev.map_batches(partial, batch_format="pyarrow"), ["g"],
        {"n_i": "n_i", "s_i": "s_i", "ss_i": "ss_i"},
        num_buckets=4).to_pandas().sort_values("g")

    n_i = groups["n_i"].to_numpy(dtype=np.int64)
    s_i = groups["s_i"].to_numpy(dtype=np.int64)
    n = np.int64(n_i.sum())
    k = np.int64(len(n_i))
    s = np.int64(s_i.sum())
    sst = np.int64(groups["ss_i"].to_numpy(dtype=np.int64).sum())
    acc = np.float64(0.0)
    for si, ni in zip(s_i, n_i):              # sequential, type-sorted —
        acc += (np.float64(si) * np.float64(si)   # mirrors sum(ORDER BY g)
                / np.float64(ni))
    nd, kd = np.float64(n), np.float64(k)
    ssb = acc - np.float64(s) * np.float64(s) / nd
    f = (ssb / (kd - 1.0)) / ((np.float64(sst) - acc) / (nd - kd))
    eta2 = ssb / (np.float64(sst)
                  - np.float64(s) * np.float64(s) / nd)
    return pa.table({
        "n": pa.array([n]),
        "k": pa.array([k]),
        "f_e4": pa.array([np.int64(np.floor(f * 10000 + 0.5))]),
        "eta2_e6": pa.array([np.int64(np.floor(eta2 * 1_000_000 + 0.5))]),
    })


SQL_Q164 = """
WITH x AS (
  SELECT event_type AS g,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS y
  FROM events
),
s AS (
  SELECT g, CAST(count(*) AS BIGINT) AS n_i,
         CAST(SUM(y) AS BIGINT) AS s_i, CAST(SUM(y * y) AS BIGINT) AS ss_i
  FROM x GROUP BY g
),
t AS (
  SELECT CAST(sum(n_i) AS BIGINT) AS n, CAST(count(*) AS BIGINT) AS k,
         CAST(sum(s_i) AS BIGINT) AS s, CAST(sum(ss_i) AS BIGINT) AS sst,
         sum(CAST(s_i AS DOUBLE) * CAST(s_i AS DOUBLE)
             / CAST(n_i AS DOUBLE) ORDER BY g) AS a
  FROM s
)
SELECT n, k,
       CAST(floor(((a - CAST(s AS DOUBLE) * CAST(s AS DOUBLE)
                        / CAST(n AS DOUBLE)) / (CAST(k AS DOUBLE) - 1.0))
                  / ((CAST(sst AS DOUBLE) - a)
                     / (CAST(n AS DOUBLE) - CAST(k AS DOUBLE)))
                  * 10000 + 0.5) AS BIGINT) AS f_e4,
       CAST(floor((a - CAST(s AS DOUBLE) * CAST(s AS DOUBLE)
                       / CAST(n AS DOUBLE))
                  / (CAST(sst AS DOUBLE) - CAST(s AS DOUBLE)
                     * CAST(s AS DOUBLE) / CAST(n AS DOUBLE))
                  * 1000000 + 0.5) AS BIGINT) AS eta2_e6
FROM t
"""


# --- q166: hash-replica stability screen -----------------------------------

REPLICA_B = 32


def q166_replica_stability(sf_dir: str):
    """Poor-man's confidence band for the mean event value via 32
    DETERMINISTIC half-sample replicas — the one-pass answer to "how
    much would this statistic move if the sample had been different?"
    without bootstrap resampling rounds: one md5 per row yields all 32
    replicas at once (bit b of the hash is replica b's independent coin
    — md5 bits are i.i.d. fair flips), so the screen costs ONE extra
    pass-width of partials, never B passes.

    Per batch: a vectorized n×32 bit-mask matrix from one hash column →
    33 (replica, n, Σy) partial rows (replica −1 = the full sample) →
    ONE ≤33-row keyed sum → driver fold sorts the 32 replica means
    (e2-floored FIRST, so the order is integer-deterministic) and
    reports the 2nd-smallest/2nd-largest as the stability band.  Each
    half-sample mean has √2× the full-sample SE, so the band brackets —
    conservatively — the estimator's own sampling noise."""
    import polars as pl

    from ..functions.grouping import bucketed_sum_multi
    from .textops import _md5_cached

    ev = read_parquet_clean(f"{sf_dir}/events.parquet",
                               columns=["event_id", "value"])

    _PART = pa.schema([("b", pa.int64()), ("n", pa.int64()),
                       ("s", pa.int64())])
    _SHIFTS = np.arange(REPLICA_B, dtype=np.uint64)

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "event_id" not in t.column_names:
            return _PART.empty_table()
        ids = np.asarray(t["event_id"], dtype=np.int64)
        h = _md5_cached({}, [str(i) for i in ids])
        y = np.floor(np.asarray(t["value"]) * 100 + 0.5).astype(np.int64)
        mask = ((h[:, None] >> _SHIFTS[None, :])
                & np.uint64(1)).astype(np.int64)
        n_b = mask.sum(axis=0)
        s_b = (y[:, None] * mask).sum(axis=0)
        return pa.table({
            "b": pa.array(np.concatenate(([-1], _SHIFTS.astype(np.int64)))),
            "n": pa.array(np.concatenate(([len(y)], n_b))),
            "s": pa.array(np.concatenate(([y.sum()], s_b))),
        }).cast(_PART)

    rows = bucketed_sum_multi(
        ev.map_batches(partial, batch_format="pyarrow"), ["b"],
        {"n": "n", "s": "s"}, num_buckets=4).to_pandas()
    full = rows[rows["b"] == -1].iloc[0]
    reps = rows[rows["b"] >= 0]
    mc = np.floor(reps["s"].to_numpy(dtype=np.float64)
                  / reps["n"].to_numpy(dtype=np.float64) * 100
                  + 0.5).astype(np.int64)
    mc.sort()
    return pa.table({
        "n": pa.array([np.int64(full["n"])]),
        "mean_c_e2": pa.array([np.int64(np.floor(
            np.float64(full["s"]) / np.float64(full["n"]) * 100 + 0.5))]),
        "lo_c_e2": pa.array([mc[1]]),
        "hi_c_e2": pa.array([mc[REPLICA_B - 2]]),
    })


SQL_Q166 = f"""
WITH x AS (
  SELECT md5_number_lower(CAST(event_id AS VARCHAR)) AS h,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS y
  FROM events
),
r AS (
  SELECT b,
         CAST(count(*) FILTER (((h >> b) & 1) = 1) AS BIGINT) AS n,
         CAST(sum(y) FILTER (((h >> b) & 1) = 1) AS BIGINT) AS s
  FROM x CROSS JOIN (SELECT unnest(generate_series(0, {REPLICA_B - 1}))
                     AS b) bs
  GROUP BY b
),
m AS (
  SELECT CAST(floor(CAST(s AS DOUBLE) / CAST(n AS DOUBLE) * 100 + 0.5)
              AS BIGINT) AS mc,
         row_number() OVER (ORDER BY CAST(floor(CAST(s AS DOUBLE)
             / CAST(n AS DOUBLE) * 100 + 0.5) AS BIGINT)) AS rk
  FROM r
),
t AS (SELECT CAST(count(*) AS BIGINT) AS n, CAST(sum(y) AS BIGINT) AS s
      FROM x)
SELECT t.n,
       CAST(floor(CAST(t.s AS DOUBLE) / CAST(t.n AS DOUBLE) * 100 + 0.5)
            AS BIGINT) AS mean_c_e2,
       (SELECT mc FROM m WHERE rk = 2) AS lo_c_e2,
       (SELECT mc FROM m WHERE rk = {REPLICA_B - 1}) AS hi_c_e2
FROM t
"""


# --- q168: sequential probability ratio test (SPRT) ------------------------

SPRT_P0, SPRT_P1 = 0.5, 0.55        # H0: arms split 50/50; H1: A gets 55%
SPRT_C1 = float(np.log(SPRT_P1 / SPRT_P0))
SPRT_C2 = float(np.log((1 - SPRT_P1) / (1 - SPRT_P0)))
SPRT_A_E6 = int(np.floor(np.log(19.0) * 1_000_000 + 0.5))  # α=β=0.05


def q168_sprt(sf_dir: str):
    """Wald's sequential probability ratio test on the purchase-arm
    split — the PEEKING-SAFE A/B monitor (Wald 1945): unlike q95's
    fixed-horizon t test, the LLR may be inspected after every day and
    the α/β guarantee still holds, with a decision typically far before
    the fixed horizon.  Each day's row carries the cumulative LLR of
    "arm A draws 55% of purchases" vs 50/50 and the
    accept-H1/accept-H0/continue verdict at α=β=0.05.

    Exactness discipline: the only distributed quantities are per-day
    arm COUNTS (one scan-pushed partial pass + ONE tiny day-keyed sum);
    cumulative counts are exact int64, each day's LLR is computed from
    them INDEPENDENTLY (na·ln(p1/p0) + nb·ln(q1/q0) — two multiplies,
    one add, no float accumulation across rows), and the ln constants
    are embedded as repr'd literals in the twin so both engines multiply
    the SAME doubles.  The verdict thresholds compare the e6-floored
    integer LLR to an integer bound — fully deterministic."""
    import polars as pl
    import pyarrow.dataset as pads

    from ..functions.grouping import bucketed_sum_multi

    ev = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"],
        filter=pads.field("event_type") == "purchase")

    _PART = pa.schema([("day", pa.int64()), ("na_d", pa.int64()),
                       ("nb_d", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return _PART.empty_table()
        day = (np.asarray(t["ts"].cast(pa.timestamp("us")), dtype="int64")
               // 86_400_000_000)
        arm = np.asarray(t["user_id"], dtype=np.int64) % 2
        df = pl.DataFrame({"day": day,
                           "na_d": (arm == 0).astype(np.int64),
                           "nb_d": (arm == 1).astype(np.int64)})
        return (df.group_by("day")
                .agg(na_d=pl.col("na_d").sum(), nb_d=pl.col("nb_d").sum())
                .to_arrow().cast(_PART))

    days = bucketed_sum_multi(
        ev.map_batches(partial, batch_format="pyarrow"), ["day"],
        {"na_d": "na_d", "nb_d": "nb_d"},
        num_buckets=2).to_pandas().sort_values("day")

    na = days["na_d"].to_numpy(dtype=np.int64).cumsum()
    nb = days["nb_d"].to_numpy(dtype=np.int64).cumsum()
    llr_e6 = np.floor((na.astype(np.float64) * SPRT_C1
                       + nb.astype(np.float64) * SPRT_C2)
                      * 1_000_000 + 0.5).astype(np.int64)
    verdict = np.where(llr_e6 >= SPRT_A_E6, "h1",
                       np.where(llr_e6 <= -SPRT_A_E6, "h0", "continue"))
    return pa.table({
        "day": pa.array(days["day"].to_numpy(dtype=np.int64)),
        "n_a": pa.array(na), "n_b": pa.array(nb),
        "llr_e6": pa.array(llr_e6),
        "verdict": pa.array(verdict.tolist(), type=pa.string()),
    })


SQL_Q168 = f"""
WITH x AS (
  SELECT epoch_us(ts) // 86400000000 AS day, user_id % 2 AS arm
  FROM events WHERE event_type = 'purchase'
),
c AS (
  SELECT day, CAST(count(*) FILTER (arm = 0) AS BIGINT) AS na_d,
         CAST(count(*) FILTER (arm = 1) AS BIGINT) AS nb_d
  FROM x GROUP BY day
),
o AS (
  SELECT day, CAST(sum(na_d) OVER (ORDER BY day) AS BIGINT) AS n_a,
         CAST(sum(nb_d) OVER (ORDER BY day) AS BIGINT) AS n_b
  FROM c
),
l AS (
  SELECT day, n_a, n_b,
         CAST(floor((CAST(n_a AS DOUBLE) * {SPRT_C1!r}
                     + CAST(n_b AS DOUBLE) * {SPRT_C2!r})
                    * 1000000 + 0.5) AS BIGINT) AS llr_e6
  FROM o
)
SELECT day, n_a, n_b, llr_e6,
       CASE WHEN llr_e6 >= {SPRT_A_E6} THEN 'h1'
            WHEN llr_e6 <= {-SPRT_A_E6} THEN 'h0'
            ELSE 'continue' END AS verdict
FROM l
"""


# --- q169: exact trimmed + winsorized mean ---------------------------------

def q169_trimmed_mean(sf_dir: str):
    """Exact 5%-trimmed and 5%-winsorized mean of the order amount — the
    robust-location members beside q80's MAD scale screen (one clipped
    invoice would drag the plain mean; these bound any point's
    influence).  Trimmed drops the k = n//20 smallest and largest
    values; winsorized replaces them with the (k+1)-th / (n−k)-th order
    statistics.  EXACT, never a sampled quantile: the distinct-cents
    table + ONE `range_prefix_sum` scan locate the three boundary order
    statistics (rank k, k+1, n−k) as the rows whose exclusive cum count
    straddles each rank; one conditional-sum pass turns them into
    below-boundary exact sums, and every output is pure int64 arithmetic
    (sum-of-middle = sum_first(n−k) − sum_first(k) with partial-tie
    credit (rank − cb)·v at each boundary).  The driver only ever sees
    O(1) boundary rows — the distinct table itself stays distributed.
    n < 20 (k = 0) yields an empty result in BOTH engines (nothing to
    trim; the twin's boundary row cb < 0 cannot exist)."""
    import polars as pl

    from ..functions.grouping import bucketed_sum, range_prefix_sum

    orders = read_parquet_clean(f"{sf_dir}/orders.parquet",
                                   columns=["o_totalprice"])

    _V = pa.schema([("v", pa.int64()), ("c", pa.int64())])

    def vpart(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "o_totalprice" not in t.column_names:
            return _V.empty_table()
        v = np.floor(np.asarray(t["o_totalprice"]) * 100
                     + 0.5).astype(np.int64)
        return (pl.DataFrame({"v": v}).group_by("v")
                .agg(c=pl.len().cast(pl.Int64)).to_arrow().cast(_V))

    dist = bucketed_sum(orders.map_batches(vpart, batch_format="pyarrow"),
                        ["v"], "c", "c").materialize()

    _T = pa.schema([("n", pa.int64())])

    def tot(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "c" not in t.column_names:
            return _T.empty_table()
        return pa.table({"n": pa.array(
            [np.asarray(t["c"], dtype=np.int64).sum()])})

    n = int(dist.map_batches(tot, batch_format="pyarrow")
            .to_pandas()["n"].sum())
    k = n // 20

    _OUT = pa.schema([("n", pa.int64()), ("k", pa.int64()),
                      ("v_lo", pa.int64()), ("v_hi", pa.int64()),
                      ("trimmed_mean_e2", pa.int64()),
                      ("winsor_mean_e2", pa.int64())])
    if k == 0:
        return _OUT.empty_table()

    run = range_prefix_sum(dist, "v", "c", out_name="cb")
    ranks = (k, k + 1, n - k)

    _B = pa.schema([("rank", pa.int64()), ("v", pa.int64()),
                    ("cb", pa.int64())])

    def boundary(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "v" not in t.column_names:
            return _B.empty_table()
        v = np.asarray(t["v"], dtype=np.int64)
        c = np.asarray(t["c"], dtype=np.int64)
        cb = np.asarray(t["cb"], dtype=np.int64)
        rows = []
        for r in ranks:
            m = np.flatnonzero((cb < r) & (r <= cb + c))
            for i in m:
                rows.append((r, v[i], cb[i]))
        if not rows:
            return _B.empty_table()
        rr, vv, cc = zip(*rows)
        return pa.table({"rank": pa.array(rr, type=pa.int64()),
                         "v": pa.array(vv, type=pa.int64()),
                         "cb": pa.array(cc, type=pa.int64())})

    b = (run.map_batches(boundary, batch_format="pyarrow")
         .to_pandas().set_index("rank"))
    v_lo, cb_lo = int(b.loc[k, "v"]), int(b.loc[k, "cb"])
    v_lo2 = int(b.loc[k + 1, "v"])
    v_hi, cb_hi = int(b.loc[n - k, "v"]), int(b.loc[n - k, "cb"])

    _S = pa.schema([("s_lo", pa.int64()), ("s_hi", pa.int64())])

    def csum(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "v" not in t.column_names:
            return _S.empty_table()
        v = np.asarray(t["v"], dtype=np.int64)
        c = np.asarray(t["c"], dtype=np.int64)
        return pa.table({
            "s_lo": pa.array([(v[v < v_lo] * c[v < v_lo]).sum()]),
            "s_hi": pa.array([(v[v < v_hi] * c[v < v_hi]).sum()]),
        }).cast(_S)

    cs = dist.map_batches(csum, batch_format="pyarrow").to_pandas()
    sb_lo = int(cs["s_lo"].sum())
    sb_hi = int(cs["s_hi"].sum())
    sum_first_k = sb_lo + (k - cb_lo) * v_lo
    sum_first_nk = sb_hi + (n - k - cb_hi) * v_hi
    ts = sum_first_nk - sum_first_k
    return pa.table({
        "n": pa.array([n], type=pa.int64()),
        "k": pa.array([k], type=pa.int64()),
        "v_lo": pa.array([v_lo2], type=pa.int64()),
        "v_hi": pa.array([v_hi], type=pa.int64()),
        "trimmed_mean_e2": pa.array([100 * ts // (n - 2 * k)],
                                    type=pa.int64()),
        "winsor_mean_e2": pa.array([100 * (ts + k * v_lo2 + k * v_hi) // n],
                                   type=pa.int64()),
    })


SQL_Q169 = """
WITH x AS (
  SELECT CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS v FROM orders
),
t AS (SELECT CAST(count(*) AS BIGINT) AS n FROM x),
d AS (SELECT v, CAST(count(*) AS BIGINT) AS c FROM x GROUP BY v),
p AS (
  SELECT v, c,
         CAST(COALESCE(sum(c) OVER (ORDER BY v ROWS BETWEEN UNBOUNDED
              PRECEDING AND 1 PRECEDING), 0) AS BIGINT) AS cb,
         CAST(COALESCE(sum(v * c) OVER (ORDER BY v ROWS BETWEEN UNBOUNDED
              PRECEDING AND 1 PRECEDING), 0) AS BIGINT) AS sb
  FROM d
),
kk AS (SELECT n, n // 20 AS k FROM t),
lo  AS (SELECT v, cb, sb FROM p, kk WHERE cb < k AND k <= cb + c),
lo2 AS (SELECT v FROM p, kk WHERE cb < k + 1 AND k + 1 <= cb + c),
hi  AS (SELECT v, cb, sb FROM p, kk WHERE cb < n - k AND n - k <= cb + c)
SELECT kk.n, kk.k, lo2.v AS v_lo, hi.v AS v_hi,
       CAST(100 * ((hi.sb + (kk.n - kk.k - hi.cb) * hi.v)
                   - (lo.sb + (kk.k - lo.cb) * lo.v))
            // (kk.n - 2 * kk.k) AS BIGINT) AS trimmed_mean_e2,
       CAST(100 * (((hi.sb + (kk.n - kk.k - hi.cb) * hi.v)
                    - (lo.sb + (kk.k - lo.cb) * lo.v))
                   + kk.k * lo2.v + kk.k * hi.v)
            // kk.n AS BIGINT) AS winsor_mean_e2
FROM kk, lo, lo2, hi
WHERE kk.k > 0
"""


# --- q172: McNemar paired-binary test ---------------------------------------

def q172_mcnemar(sf_dir: str):
    """McNemar's test on paired binary outcomes per user — does
    purchasing and clicking disagree more in one direction than the
    other?  The PAIRED BINARY member completing the test family (q95/
    q164 continuous unpaired, q162 continuous paired, q158/q161 rank,
    q163 unpaired categorical): only the DISCORDANT users (did one but
    not the other) carry information, and the statistic is
    (n01−n10)²/(n01+n10) — exact integer arithmetic end to end.

    Shape: per-batch per-user event-type count partials → ONE user-keyed
    sum (counts compose where booleans would not) → per-batch 2×2 cell
    partials over the user rows → O(4) driver fold.  Zero discordant
    users → statistic 0 in both engines (the CASE guard)."""
    import polars as pl
    import pyarrow.dataset as pads

    from ..functions.grouping import bucketed_sum_multi

    ev = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"],
        filter=pads.field("event_type").isin(["purchase", "click"]))

    _PART = pa.schema([("user_id", pa.int64()), ("np_p", pa.int64()),
                       ("nc_p", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return _PART.empty_table()
        df = pl.DataFrame({
            "user_id": np.asarray(t["user_id"], dtype=np.int64),
            "et": pl.from_arrow(t["event_type"].combine_chunks())})
        return (df.group_by("user_id")
                .agg(np_p=(pl.col("et") == "purchase").sum()
                     .cast(pl.Int64),
                     nc_p=(pl.col("et") == "click").sum().cast(pl.Int64))
                .to_arrow().cast(_PART))

    users = bucketed_sum_multi(
        ev.map_batches(partial, batch_format="pyarrow"), ["user_id"],
        {"np_p": "np_p", "nc_p": "nc_p"}, num_buckets=8)

    _C = pa.schema([("n00", pa.int64()), ("n01", pa.int64()),
                    ("n10", pa.int64()), ("n11", pa.int64())])

    def cells(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "np_p" not in t.column_names:
            return _C.empty_table()
        a = np.asarray(t["np_p"], dtype=np.int64) > 0
        b = np.asarray(t["nc_p"], dtype=np.int64) > 0
        return pa.table({
            "n00": pa.array([int((~a & ~b).sum())], type=pa.int64()),
            "n01": pa.array([int((~a & b).sum())], type=pa.int64()),
            "n10": pa.array([int((a & ~b).sum())], type=pa.int64()),
            "n11": pa.array([int((a & b).sum())], type=pa.int64()),
        })

    c = users.map_batches(cells, batch_format="pyarrow").to_pandas().sum()
    n01, n10 = int(c["n01"]), int(c["n10"])
    disc = n01 + n10
    stat = (n01 - n10) * (n01 - n10) * 10000 // disc if disc else 0
    return pa.table({
        "n00": pa.array([int(c["n00"])], type=pa.int64()),
        "n01": pa.array([n01], type=pa.int64()),
        "n10": pa.array([n10], type=pa.int64()),
        "n11": pa.array([int(c["n11"])], type=pa.int64()),
        "mcnemar_e4": pa.array([stat], type=pa.int64()),
    })


SQL_Q172 = """
WITH u AS (
  SELECT user_id,
         count(*) FILTER (event_type = 'purchase') > 0 AS a,
         count(*) FILTER (event_type = 'click') > 0 AS b
  FROM events WHERE event_type IN ('purchase', 'click')
  GROUP BY user_id
),
c AS (
  SELECT CAST(count(*) FILTER (NOT a AND NOT b) AS BIGINT) AS n00,
         CAST(count(*) FILTER (NOT a AND b) AS BIGINT) AS n01,
         CAST(count(*) FILTER (a AND NOT b) AS BIGINT) AS n10,
         CAST(count(*) FILTER (a AND b) AS BIGINT) AS n11
  FROM u
)
SELECT n00, n01, n10, n11,
       CASE WHEN n01 + n10 = 0 THEN 0
            ELSE CAST((n01 - n10) * (n01 - n10) * 10000
                      // (n01 + n10) AS BIGINT) END AS mcnemar_e4
FROM c
"""


# --- q185: shipping service-level report -------------------------------------

SLA_DAYS = (3, 7, 14)


def q185_service_level(sf_dir: str):
    """Service-level attainment by order priority: the share of orders
    whose FIRST lineitem shipped within 3 / 7 / 14 days — the SLA
    scorecard an operations review reads (q178 asks what drives the
    lag; this reports the committed thresholds).  Reuses the q178
    shape: per-order min-shipdate via ONE lineitem-keyed exchange fold,
    ONE `hash_join` with orders, then a per-batch (priority, bucket)
    count partial and ONE tiny keyed sum; shares are exact e4 integer
    divisions."""
    import polars as pl

    from ..functions.grouping import bucketed_sum_multi, hash_exchange, \
        hash_join

    li = read_parquet_clean(f"{sf_dir}/lineitem.parquet",
                               columns=["l_orderkey", "l_shipdate"])
    orders = read_parquet_clean(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderpriority", "o_orderdate"])

    _L = pa.schema([("o_orderkey", pa.int64()), ("ship_p", pa.int64())])

    def lpart(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "l_orderkey" not in t.column_names:
            return _L.empty_table()
        sd = (np.asarray(t["l_shipdate"].cast(pa.timestamp("us")),
                         dtype="int64") // 86_400_000_000)
        return (pl.DataFrame({
            "o_orderkey": np.asarray(t["l_orderkey"], dtype=np.int64),
            "ship_p": sd}).group_by("o_orderkey")
            .agg(ship_p=pl.col("ship_p").min()).to_arrow().cast(_L))

    def lmerge(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "o_orderkey" not in t.column_names:
            return _L.empty_table()
        return (pl.from_arrow(t).group_by("o_orderkey")
                .agg(ship_p=pl.col("ship_p").min()).to_arrow().cast(_L))

    per_order = hash_exchange(
        li.map_batches(lpart, batch_format="pyarrow"), "o_orderkey",
        lmerge, num_buckets=16)
    joined = hash_join(per_order, orders, "o_orderkey", num_buckets=16)

    _P = pa.schema([("prio", pa.string()), ("n_p", pa.int64()),
                    ("w3", pa.int64()), ("w7", pa.int64()),
                    ("w14", pa.int64())])

    def cells(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "o_orderpriority" not in t.column_names:
            return _P.empty_table()
        od = (np.asarray(t["o_orderdate"].cast(pa.timestamp("us")),
                         dtype="int64") // 86_400_000_000)
        lag = np.asarray(t["ship_p"], dtype=np.int64) - od
        df = pl.DataFrame({
            "prio": pl.from_arrow(t["o_orderpriority"].combine_chunks()),
            "w3": (lag <= 3).astype(np.int64),
            "w7": (lag <= 7).astype(np.int64),
            "w14": (lag <= 14).astype(np.int64),
            "n_p": np.ones(t.num_rows, dtype=np.int64)})
        return (df.group_by("prio")
                .agg(*(pl.col(c).sum() for c in ("n_p", "w3", "w7",
                                                 "w14")))
                .to_arrow().select(["prio", "n_p", "w3", "w7", "w14"])
                .cast(_P))

    s = bucketed_sum_multi(
        joined.map_batches(cells, batch_format="pyarrow"), ["prio"],
        {"n_p": "n", "w3": "w3", "w7": "w7", "w14": "w14"},
        num_buckets=2).to_pandas().sort_values("prio")
    return pa.table({
        "o_orderpriority": pa.array(s["prio"], type=pa.string()),
        "n_orders": pa.array(s["n"].to_numpy(np.int64)),
        "sla3_e4": pa.array(10000 * s["w3"].to_numpy(np.int64)
                            // s["n"].to_numpy(np.int64)),
        "sla7_e4": pa.array(10000 * s["w7"].to_numpy(np.int64)
                            // s["n"].to_numpy(np.int64)),
        "sla14_e4": pa.array(10000 * s["w14"].to_numpy(np.int64)
                             // s["n"].to_numpy(np.int64)),
    })


SQL_Q185 = """
WITH l AS (
  SELECT l_orderkey AS o_orderkey,
         epoch_us(min(l_shipdate)) // 86400000000 AS ship_d
  FROM lineitem GROUP BY 1
),
j AS (
  SELECT o.o_orderpriority AS prio,
         l.ship_d - epoch_us(o.o_orderdate) // 86400000000 AS lag
  FROM l JOIN orders o USING (o_orderkey)
)
SELECT prio AS o_orderpriority, CAST(count(*) AS BIGINT) AS n_orders,
       CAST(10000 * count(*) FILTER (lag <= 3) // count(*) AS BIGINT)
         AS sla3_e4,
       CAST(10000 * count(*) FILTER (lag <= 7) // count(*) AS BIGINT)
         AS sla7_e4,
       CAST(10000 * count(*) FILTER (lag <= 14) // count(*) AS BIGINT)
         AS sla14_e4
FROM j GROUP BY prio
"""


# --- q189: ratio metric with delta-method CI ---------------------------------

Z975 = 1.959963984540054


def q189_ratio_metric(sf_dir: str):
    """Revenue per active day, per experiment arm, with the
    DELTA-METHOD confidence interval — the correct treatment of a RATIO
    metric (R = Σx/Σy over users): user-level x and y are correlated,
    so naive per-row averaging is biased and a plain mean-CI is wrong;
    Var(R) ≈ (s²_x + R²·s²_y − 2R·s_xy)/(n·ȳ²) is the standard fix
    (Fieller/ delta method, the formula every experimentation platform
    implements).  Completes the A/B family: q95 means, q180
    proportions, q168 sequential — this is the ratio member.

    Per-user (revenue cents, active days) via ONE keyed sum, then the
    six exact int64 sufficient statistics per arm in a per-batch pass +
    tiny fold; the delta formula runs on O(arms) driver scalars in
    DOUBLE (z quantile as the shared literal).  Σx² carries the q164
    overflow ceiling note."""
    import polars as pl

    from ..functions.grouping import bucketed_sum_multi

    ev = read_parquet_clean(f"{sf_dir}/events.parquet",
                               columns=["user_id", "event_type", "ts",
                                        "value"])

    # ship the (user, day) grain: per-user DISTINCT-day counts are not
    # mergeable across batch partials, per-(user, day) sums are
    _UD = pa.schema([("user_id", pa.int64()), ("d", pa.int64()),
                     ("x_p", pa.int64())])

    def ud_part(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return _UD.empty_table()
        cents = np.where(
            np.asarray(t["event_type"]) == "purchase",
            np.floor(np.asarray(t["value"]) * 100 + 0.5).astype(np.int64),
            0)
        day = (np.asarray(t["ts"].cast(pa.timestamp("us")),
                          dtype="int64") // 86_400_000_000)
        return (pl.DataFrame({
            "user_id": np.asarray(t["user_id"], dtype=np.int64),
            "d": day, "x_p": cents})
            .group_by(["user_id", "d"]).agg(x_p=pl.col("x_p").sum())
            .to_arrow().cast(_UD))

    ud = bucketed_sum_multi(
        ev.map_batches(ud_part, batch_format="pyarrow"),
        ["user_id", "d"], {"x_p": "x"}, num_buckets=8)

    _S = pa.schema([("arm", pa.int64()), ("n", pa.int64()),
                    ("sx", pa.int64()), ("sy", pa.int64()),
                    ("sxx", pa.int64()), ("syy", pa.int64()),
                    ("sxy", pa.int64())])

    def stats(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return _S.empty_table()
        df = (pl.from_arrow(t).group_by("user_id")
              .agg(x=pl.col("x").sum(), y=pl.len().cast(pl.Int64)))
        u = df["user_id"].to_numpy()
        x = df["x"].to_numpy().astype(np.int64)
        y = df["y"].to_numpy().astype(np.int64)
        arm = u % 2
        out = pl.DataFrame({"arm": arm, "n": 1, "sx": x, "sy": y,
                            "sxx": x * x, "syy": y * y, "sxy": x * y})
        return (out.group_by("arm")
                .agg(*(pl.col(c).sum().cast(pl.Int64)
                       for c in ("n", "sx", "sy", "sxx", "syy", "sxy")))
                .to_arrow().cast(_S))

    # the (user, day) grain is already user-co-located by the exchange,
    # so the per-user fold inside `stats` is exact per batch=bucket
    s = (ud.map_batches(stats, batch_format="pyarrow", batch_size=None)
         .to_pandas().groupby("arm").sum().sort_index())

    rows = []
    for arm in (0, 1):
        n = np.float64(s.loc[arm, "n"])
        sx = np.float64(s.loc[arm, "sx"])
        sy = np.float64(s.loc[arm, "sy"])
        sxx = np.float64(s.loc[arm, "sxx"])
        syy = np.float64(s.loc[arm, "syy"])
        sxy = np.float64(s.loc[arm, "sxy"])
        r = sx / sy
        vx = (sxx - sx * sx / n) / (n - 1.0)
        vy = (syy - sy * sy / n) / (n - 1.0)
        cxy = (sxy - sx * sy / n) / (n - 1.0)
        ybar = sy / n
        se = np.sqrt((vx + r * r * vy - 2.0 * r * cxy)
                     / (n * ybar * ybar))
        rows.append((arm, int(s.loc[arm, "n"]),
                     np.int64(np.floor(r * 10000 + 0.5)),
                     np.int64(np.floor((r - Z975 * se) * 10000 + 0.5)),
                     np.int64(np.floor((r + Z975 * se) * 10000 + 0.5))))
    return pa.table({
        "arm": pa.array([r[0] for r in rows], type=pa.int64()),
        "n_users": pa.array([r[1] for r in rows], type=pa.int64()),
        "rev_per_day_e4": pa.array([r[2] for r in rows],
                                   type=pa.int64()),
        "lo_e4": pa.array([r[3] for r in rows], type=pa.int64()),
        "hi_e4": pa.array([r[4] for r in rows], type=pa.int64()),
    })


_DELTA_SE_SQL = """sqrt((((CAST(sxx AS DOUBLE) - CAST(sx AS DOUBLE)
            * CAST(sx AS DOUBLE) / CAST(n AS DOUBLE))
           / (CAST(n AS DOUBLE) - 1.0))
          + (CAST(sx AS DOUBLE) / CAST(sy AS DOUBLE))
            * (CAST(sx AS DOUBLE) / CAST(sy AS DOUBLE))
            * ((CAST(syy AS DOUBLE) - CAST(sy AS DOUBLE)
                * CAST(sy AS DOUBLE) / CAST(n AS DOUBLE))
               / (CAST(n AS DOUBLE) - 1.0))
          - 2.0 * (CAST(sx AS DOUBLE) / CAST(sy AS DOUBLE))
            * ((CAST(sxy AS DOUBLE) - CAST(sx AS DOUBLE)
                * CAST(sy AS DOUBLE) / CAST(n AS DOUBLE))
               / (CAST(n AS DOUBLE) - 1.0)))
         / (CAST(n AS DOUBLE) * (CAST(sy AS DOUBLE) / CAST(n AS DOUBLE))
            * (CAST(sy AS DOUBLE) / CAST(n AS DOUBLE))))"""

SQL_Q189 = f"""
WITH ud AS (
  SELECT user_id, epoch_us(ts) // 86400000000 AS d,
         CAST(sum(CASE WHEN event_type = 'purchase'
                       THEN CAST(floor(value * 100 + 0.5) AS BIGINT)
                       ELSE 0 END) AS BIGINT) AS x
  FROM events GROUP BY 1, 2
),
u AS (SELECT user_id, CAST(sum(x) AS BIGINT) AS x,
             CAST(count(*) AS BIGINT) AS y FROM ud GROUP BY user_id),
s AS (
  SELECT user_id % 2 AS arm, CAST(count(*) AS BIGINT) AS n,
         CAST(sum(x) AS BIGINT) AS sx, CAST(sum(y) AS BIGINT) AS sy,
         CAST(sum(x * x) AS BIGINT) AS sxx,
         CAST(sum(y * y) AS BIGINT) AS syy,
         CAST(sum(x * y) AS BIGINT) AS sxy
  FROM u GROUP BY 1
)
SELECT CAST(arm AS BIGINT) AS arm, n AS n_users,
       CAST(floor(CAST(sx AS DOUBLE) / CAST(sy AS DOUBLE) * 10000 + 0.5)
            AS BIGINT) AS rev_per_day_e4,
       CAST(floor((CAST(sx AS DOUBLE) / CAST(sy AS DOUBLE)
                   - {Z975!r} * {_DELTA_SE_SQL}) * 10000 + 0.5)
            AS BIGINT) AS lo_e4,
       CAST(floor((CAST(sx AS DOUBLE) / CAST(sy AS DOUBLE)
                   + {Z975!r} * {_DELTA_SE_SQL}) * 10000 + 0.5)
            AS BIGINT) AS hi_e4
FROM s
"""


# --- q178: partial correlation -----------------------------------------------

def q178_partial_corr(sf_dir: str):
    """Partial correlation r_xy·z between order amount (x, whole
    dollars) and shipping lag (y, days from order date to the first
    lineitem ship date), CONTROLLING for order size (z, lineitem count)
    — the confounder device q140's raw correlation matrix lacks: big
    orders both cost more and ship slower, so r_xy alone conflates
    price with size; r_xy·z = (r_xy − r_xz·r_yz)/√((1−r_xz²)(1−r_yz²))
    answers "does price itself predict lag".

    Shape: per-order (count, min shipdate) via ONE lineitem-keyed
    exchange fold → ONE `hash_join` with the orders row → a single
    streaming pass emits the 10 exact-int64 sufficient statistics (n,
    Σ of each variable, all pairwise products, all squares — dollars
    keep Σx² inside int64 to ~10⁸ orders, the q164 ceiling note) → the
    three Pearson r's and the partial in mirrored DOUBLE on O(1) driver
    scalars."""
    import polars as pl

    from ..functions.grouping import hash_exchange, hash_join

    li = read_parquet_clean(f"{sf_dir}/lineitem.parquet",
                               columns=["l_orderkey", "l_shipdate"])
    orders = read_parquet_clean(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_totalprice", "o_orderdate"])

    _L = pa.schema([("o_orderkey", pa.int64()), ("z_p", pa.int64()),
                    ("ship_p", pa.int64())])

    def lpart(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "l_orderkey" not in t.column_names:
            return _L.empty_table()
        sd = (np.asarray(t["l_shipdate"].cast(pa.timestamp("us")),
                         dtype="int64") // 86_400_000_000)
        return (pl.DataFrame({
            "o_orderkey": np.asarray(t["l_orderkey"], dtype=np.int64),
            "z_p": 1, "ship_p": sd})
            .group_by("o_orderkey")
            .agg(z_p=pl.col("z_p").sum().cast(pl.Int64),
                 ship_p=pl.col("ship_p").min())
            .to_arrow().cast(_L))

    def lmerge(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "o_orderkey" not in t.column_names:
            return _L.empty_table()
        return (pl.from_arrow(t).group_by("o_orderkey")
                .agg(z_p=pl.col("z_p").sum(), ship_p=pl.col("ship_p").min())
                .to_arrow().cast(_L))

    per_order = hash_exchange(
        li.map_batches(lpart, batch_format="pyarrow"), "o_orderkey",
        lmerge, num_buckets=16)
    joined = hash_join(per_order, orders, "o_orderkey", num_buckets=16)

    _S = pa.schema([(c, pa.int64()) for c in
                    ("n", "sx", "sy", "sz", "sxy", "sxz", "syz",
                     "sxx", "syy", "szz")])

    def stats(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "o_totalprice" not in t.column_names:
            return _S.empty_table()
        x = np.floor(np.asarray(t["o_totalprice"]) + 0.5).astype(np.int64)
        od = (np.asarray(t["o_orderdate"].cast(pa.timestamp("us")),
                         dtype="int64") // 86_400_000_000)
        y = np.asarray(t["ship_p"], dtype=np.int64) - od
        z = np.asarray(t["z_p"], dtype=np.int64)
        return pa.table({
            "n": pa.array([np.int64(len(x))]),
            "sx": pa.array([x.sum()]), "sy": pa.array([y.sum()]),
            "sz": pa.array([z.sum()]),
            "sxy": pa.array([(x * y).sum()]),
            "sxz": pa.array([(x * z).sum()]),
            "syz": pa.array([(y * z).sum()]),
            "sxx": pa.array([(x * x).sum()]),
            "syy": pa.array([(y * y).sum()]),
            "szz": pa.array([(z * z).sum()]),
        }).cast(_S)

    s = joined.map_batches(stats, batch_format="pyarrow").to_pandas().sum()
    nd = np.float64(s["n"])

    def corr(sa, sb, sab, saa, sbb):
        num = nd * np.float64(sab) - np.float64(sa) * np.float64(sb)
        da = nd * np.float64(saa) - np.float64(sa) * np.float64(sa)
        db = nd * np.float64(sbb) - np.float64(sb) * np.float64(sb)
        return num / np.sqrt(da * db)

    rxy = corr(s["sx"], s["sy"], s["sxy"], s["sxx"], s["syy"])
    rxz = corr(s["sx"], s["sz"], s["sxz"], s["sxx"], s["szz"])
    ryz = corr(s["sy"], s["sz"], s["syz"], s["syy"], s["szz"])
    part = (rxy - rxz * ryz) / np.sqrt((1.0 - rxz * rxz)
                                       * (1.0 - ryz * ryz))
    e6 = lambda v: np.int64(np.floor(v * 1_000_000 + 0.5))  # noqa: E731
    return pa.table({
        "n": pa.array([np.int64(s["n"])]),
        "rxy_e6": pa.array([e6(rxy)]), "rxz_e6": pa.array([e6(rxz)]),
        "ryz_e6": pa.array([e6(ryz)]),
        "partial_e6": pa.array([e6(part)]),
    })


SQL_Q178 = """
WITH l AS (
  SELECT l_orderkey AS o_orderkey, CAST(count(*) AS BIGINT) AS z,
         epoch_us(min(l_shipdate)) // 86400000000 AS ship_d
  FROM lineitem GROUP BY 1
),
j AS (
  SELECT CAST(floor(o.o_totalprice + 0.5) AS BIGINT) AS x,
         l.ship_d - epoch_us(o.o_orderdate) // 86400000000 AS y,
         l.z AS z
  FROM l JOIN orders o USING (o_orderkey)
),
s AS (
  SELECT CAST(count(*) AS BIGINT) AS n,
         CAST(sum(x) AS BIGINT) AS sx, CAST(sum(y) AS BIGINT) AS sy,
         CAST(sum(z) AS BIGINT) AS sz,
         CAST(sum(x * y) AS BIGINT) AS sxy,
         CAST(sum(x * z) AS BIGINT) AS sxz,
         CAST(sum(y * z) AS BIGINT) AS syz,
         CAST(sum(x * x) AS BIGINT) AS sxx,
         CAST(sum(y * y) AS BIGINT) AS syy,
         CAST(sum(z * z) AS BIGINT) AS szz
  FROM j
),
r AS (
  SELECT n,
   (CAST(n AS DOUBLE) * CAST(sxy AS DOUBLE)
     - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE))
   / sqrt((CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE)
           - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE))
        * (CAST(n AS DOUBLE) * CAST(syy AS DOUBLE)
           - CAST(sy AS DOUBLE) * CAST(sy AS DOUBLE))) AS rxy,
   (CAST(n AS DOUBLE) * CAST(sxz AS DOUBLE)
     - CAST(sx AS DOUBLE) * CAST(sz AS DOUBLE))
   / sqrt((CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE)
           - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE))
        * (CAST(n AS DOUBLE) * CAST(szz AS DOUBLE)
           - CAST(sz AS DOUBLE) * CAST(sz AS DOUBLE))) AS rxz,
   (CAST(n AS DOUBLE) * CAST(syz AS DOUBLE)
     - CAST(sy AS DOUBLE) * CAST(sz AS DOUBLE))
   / sqrt((CAST(n AS DOUBLE) * CAST(syy AS DOUBLE)
           - CAST(sy AS DOUBLE) * CAST(sy AS DOUBLE))
        * (CAST(n AS DOUBLE) * CAST(szz AS DOUBLE)
           - CAST(sz AS DOUBLE) * CAST(sz AS DOUBLE))) AS ryz
  FROM s
)
SELECT n,
       CAST(floor(rxy * 1000000 + 0.5) AS BIGINT) AS rxy_e6,
       CAST(floor(rxz * 1000000 + 0.5) AS BIGINT) AS rxz_e6,
       CAST(floor(ryz * 1000000 + 0.5) AS BIGINT) AS ryz_e6,
       CAST(floor((rxy - rxz * ryz)
                  / sqrt((1.0 - rxz * rxz) * (1.0 - ryz * ryz))
                  * 1000000 + 0.5) AS BIGINT) AS partial_e6
FROM r
"""


# --- q179: global chi-square + Cramér's V -----------------------------------

def q179_cramers_v(sf_dir: str):
    """Global chi-square statistic and Cramér's V effect size for the
    event_type × day-of-week contingency — the "how strong, not just
    how significant" companion of q163 (which reports per-cell
    residuals; V = √(χ²/(n·min(r−1,c−1))) is the [0,1] effect size a
    report can compare across tables of different shape, as eta² (q164)
    is for ANOVA).

    Order-free by construction: the global χ² is defined as the SUM OF
    q163's e4-floored per-cell contributions — an integer sum no
    engine's aggregation order can perturb — and only the final √ runs
    in mirrored DOUBLE."""
    cells = q163_chi_square(sf_dir).to_pandas()
    n = np.int64(cells["n"].sum())
    r = cells["event_type"].nunique()
    c = cells["dow"].nunique()
    chi2_e4 = np.int64(cells["chi2_e4"].sum())
    dof = np.int64((r - 1) * (c - 1))
    denom = np.float64(n) * np.float64(min(r - 1, c - 1))
    v = np.sqrt(np.float64(chi2_e4) / 10000.0 / denom)
    return pa.table({
        "n": pa.array([n]),
        "dof": pa.array([dof]),
        "chi2_e4": pa.array([chi2_e4]),
        "cramers_v_e6": pa.array([np.int64(np.floor(v * 1_000_000
                                                    + 0.5))]),
    })


def _sql_cramers_v() -> str:
    # the per-cell CTE is q163's twin verbatim — the e4 floor per cell
    # makes the global sum order-free
    return f"""
WITH cells AS ({SQL_Q163}),
t AS (
  SELECT CAST(sum(n) AS BIGINT) AS n,
         CAST(count(DISTINCT event_type) AS BIGINT) AS r,
         CAST(count(DISTINCT dow) AS BIGINT) AS c,
         CAST(sum(chi2_e4) AS BIGINT) AS chi2_e4
  FROM cells
)
SELECT n, CAST((r - 1) * (c - 1) AS BIGINT) AS dof, chi2_e4,
       CAST(floor(sqrt(CAST(chi2_e4 AS DOUBLE) / 10000.0
                       / (CAST(n AS DOUBLE)
                          * CAST(least(r - 1, c - 1) AS DOUBLE)))
                  * 1000000 + 0.5) AS BIGINT) AS cramers_v_e6
FROM t
"""


# --- ALS matrix factorization ------------------------------------------------

ALS_RANK = 4
ALS_ITERS = 5
ALS_REG = 0.1


def _als_init_items(tools: list[str]) -> np.ndarray:
    """Deterministic (hash-seeded) item-factor init — reproducible under
    any partitioning, like every other seed in this repo."""
    from ..functions.hashing import md5_lower64

    v = np.array([[(md5_lower64(f"{t}:{j}") % 1000) / 1000.0 - 0.5
                   for j in range(ALS_RANK)] for t in tools])
    return v + 0.5  # keep initial predictions positive-ish for counts


def _als_run(sf_dir: str):
    """Shared ALS driver → (tools, V, losses).  See als_tool_factors."""
    import polars as pl

    from .linkage_queries import _turns
    from ..functions.grouping import hash_exchange

    turns = _turns(sf_dir)

    _C = pa.schema([("conv_id", pa.string()), ("tool", pa.string()),
                    ("c", pa.int64())])

    def cpart(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "conv_id" not in t.column_names:
            return _C.empty_table()
        df = pl.DataFrame({
            "conv_id": pl.from_arrow(t["conv_id"].combine_chunks()),
            "tool": pl.from_arrow(t["tool"].combine_chunks())}) \
            .filter(pl.col("tool") != "")
        return (df.group_by(["conv_id", "tool"])
                .agg(c=pl.len().cast(pl.Int64)).to_arrow().cast(_C))

    def cmerge(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "conv_id" not in t.column_names:
            return _C.empty_table()
        return (pl.from_arrow(t).group_by(["conv_id", "tool"])
                .agg(c=pl.col("c").sum()).to_arrow().cast(_C))

    # conv-keyed co-location, materialized ONCE — every ALS iteration
    # re-reads these skinny (conv, tool, count) blocks
    counts = hash_exchange(
        turns.map_batches(cpart, batch_format="pyarrow"), "conv_id",
        cmerge, num_buckets=8).materialize()

    tools = sorted(set(
        v for b in counts.select_columns(["tool"])
        .iter_batches(batch_format="pyarrow")
        for v in b["tool"].to_pylist()))
    tidx = {t: i for i, t in enumerate(tools)}
    v_mat = _als_init_items(tools)
    r = ALS_RANK

    losses = []
    for _ in range(ALS_ITERS):
        ref = ray.put((v_mat, tidx))

        def step(t: pa.Table) -> pa.Table:
            """U-step for every conv in the batch (batched 4×4 normal-
            equation solves), then this batch's item partials + loss."""
            V, ti = ray.get(ref)
            _P = pa.schema([("j", pa.int64()), ("p", pa.int64()),
                            ("val", pa.float64())])
            if t.num_rows == 0 or "conv_id" not in t.column_names:
                return _P.empty_table()
            # sort first: bucket row order depends on slice arrival, and
            # float scatter-adds are order-sensitive in the last ulp
            df = pl.from_arrow(t).sort(["conv_id", "tool"]).with_columns(
                ci=pl.col("conv_id").rank("dense").cast(pl.Int64) - 1)
            ci = df["ci"].to_numpy()
            j = np.array([ti[x] for x in df["tool"].to_list()],
                         dtype=np.int64)
            c = df["c"].to_numpy().astype(np.float64)
            nconv = int(ci.max()) + 1
            vj = V[j]                                    # (rows, r)
            # per-conv A = Σ v vᵀ + λI, b = Σ c·v  (scatter-add)
            A = np.zeros((nconv, r, r))
            b = np.zeros((nconv, r))
            np.add.at(A, ci, vj[:, :, None] * vj[:, None, :])
            np.add.at(b, ci, c[:, None] * vj)
            A += ALS_REG * np.eye(r)[None]
            U = np.linalg.solve(A, b)                    # (nconv, r)
            pred = (U[ci] * vj).sum(1)
            err = c - pred
            loss = float((err * err).sum())
            # item-side partials: per tool Σ u uᵀ (flattened) and Σ c·u
            ui = U[ci]
            rows_j, rows_p, rows_v = [], [], []
            uu = ui[:, :, None] * ui[:, None, :]         # (rows, r, r)
            cu = c[:, None] * ui
            for p in range(r * r):
                s = np.zeros(len(ti))
                np.add.at(s, j, uu.reshape(len(ci), -1)[:, p])
                nz = np.flatnonzero(s)
                rows_j.extend(nz.tolist())
                rows_p.extend([p] * len(nz))
                rows_v.extend(s[nz].tolist())
            for p in range(r):
                s = np.zeros(len(ti))
                np.add.at(s, j, cu[:, p])
                nz = np.flatnonzero(s)
                rows_j.extend(nz.tolist())
                rows_p.extend([r * r + p] * len(nz))
                rows_v.extend(s[nz].tolist())
            rows_j.append(-1)
            rows_p.append(0)
            rows_v.append(loss)
            return pa.table({"j": pa.array(rows_j, type=pa.int64()),
                             "p": pa.array(rows_p, type=pa.int64()),
                             "val": pa.array(rows_v, type=pa.float64())})

        # sort before every float fold: batch arrival order is not
        # deterministic, value-sorted summation is
        # batch = whole exchange bucket (batch_size=None): a conv's rows
        # must never split across the per-batch normal-equation solve
        parts = (counts.map_batches(step, batch_format="pyarrow",
                                    batch_size=None)
                 .to_pandas().sort_values(["j", "p", "val"]))
        losses.append(float(parts.loc[parts["j"] == -1, "val"].sum()))
        agg = (parts[parts["j"] >= 0].groupby(["j", "p"])["val"].sum())
        new_v = np.empty_like(v_mat)
        for ji in range(len(tools)):
            A = np.zeros((r, r))
            bb = np.zeros(r)
            for p in range(r * r):
                A[p // r, p % r] = agg.get((ji, p), 0.0)
            for p in range(r):
                bb[p] = agg.get((ji, r * r + p), 0.0)
            new_v[ji] = np.linalg.solve(A + ALS_REG * np.eye(r), bb)
        v_mat = new_v
    return tools, v_mat, losses


def als_conv_factors(sf_dir: str):
    """The conversation-side ALS factors — each conv's rank-4 latent
    usage profile, the collaborative-signal EMBEDDING the factorization
    exists to produce (feed it to the ANN family for behavior-based
    similarity where text embeddings see only wording).  One more
    streaming pass over the materialized counts with the FINAL item
    factors broadcast: per co-located conv batch the same batched 4×4
    normal-equation solve, now emitting (conv_id, f0..f3) instead of
    item partials.  Rows-only; determinism and reconstruction quality
    are pinned via the shared `_als_run` tests."""
    import polars as pl

    from ..functions.grouping import hash_exchange
    from .linkage_queries import _turns

    tools, v_mat, _ = _als_run(sf_dir)
    tidx = {t: i for i, t in enumerate(tools)}
    ref = ray.put((v_mat, tidx))
    r = ALS_RANK

    # rebuild the co-located counts (cheap; _als_run's copy is local)
    turns = _turns(sf_dir)

    _C = pa.schema([("conv_id", pa.string()), ("tool", pa.string()),
                    ("c", pa.int64())])

    def cpart(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "conv_id" not in t.column_names:
            return _C.empty_table()
        df = pl.DataFrame({
            "conv_id": pl.from_arrow(t["conv_id"].combine_chunks()),
            "tool": pl.from_arrow(t["tool"].combine_chunks())}) \
            .filter(pl.col("tool") != "")
        return (df.group_by(["conv_id", "tool"])
                .agg(c=pl.len().cast(pl.Int64)).to_arrow().cast(_C))

    def solve_u(t: pa.Table) -> pa.Table:
        V, ti = ray.get(ref)
        _O = pa.schema([("conv_id", pa.string())]
                       + [(f"f{p}", pa.float64()) for p in range(r)])
        if t.num_rows == 0 or "conv_id" not in t.column_names:
            return _O.empty_table()
        df = (pl.from_arrow(t).group_by(["conv_id", "tool"])
              .agg(c=pl.col("c").sum())
              .sort(["conv_id", "tool"])
              .with_columns(ci=pl.col("conv_id").rank("dense")
                            .cast(pl.Int64) - 1))
        ci = df["ci"].to_numpy()
        j = np.array([ti[x] for x in df["tool"].to_list()], dtype=np.int64)
        c = df["c"].to_numpy().astype(np.float64)
        nconv = int(ci.max()) + 1
        vj = V[j]
        A = np.zeros((nconv, r, r))
        b = np.zeros((nconv, r))
        np.add.at(A, ci, vj[:, :, None] * vj[:, None, :])
        np.add.at(b, ci, c[:, None] * vj)
        A += ALS_REG * np.eye(r)[None]
        U = np.linalg.solve(A, b)
        convs = (df.unique(subset="ci", keep="first").sort("ci")
                 ["conv_id"].to_list())
        cols = {"conv_id": pa.array(convs, type=pa.string())}
        for p in range(r):
            cols[f"f{p}"] = pa.array(U[:, p])
        return pa.table(cols).cast(_O)

    return hash_exchange(
        turns.map_batches(cpart, batch_format="pyarrow"), "conv_id",
        solve_u, num_buckets=8)


def als_tool_factors(sf_dir: str):
    """Rank-4 ALS matrix factorization of the conversation × tool usage
    matrix — the canonical DISTRIBUTED alternating-least-squares shape
    (Spark MLlib's ALS): the small item side (tool factors, k×4 floats)
    is broadcast each half-iteration; the large user side never
    materializes — each co-located conv batch solves its own 4×4
    regularized normal equations (vectorized batched
    ``np.linalg.solve``) and emits O(tools·r²) item partials + a loss
    scalar, ONE tiny keyed fold closes the item update.  Per iteration:
    one streaming pass over the materialized skinny (conv, tool, count)
    blocks, zero additional shuffles.

    Iterative least squares is not SQL-expressible → rows-only; pytest
    pins monotone loss descent, determinism, and that the rank-4
    reconstruction beats the rank-0 (zero) baseline."""
    tools, v_mat, losses = _als_run(sf_dir)
    cols: dict = {"tool": pa.array(tools, type=pa.string())}
    for p in range(ALS_RANK):
        cols[f"f{p}"] = pa.array(v_mat[:, p])
    cols["final_loss_e2"] = pa.array(
        np.full(len(tools), np.int64(np.floor(losses[-1] * 100 + 0.5))))
    return pa.table(cols)


# --- q180: two-proportion z test + Wilson intervals --------------------------

def q180_proportion_ci(sf_dir: str):
    """Conversion-rate comparison done right: per arm (user_id % 2) the
    fraction of PURCHASE-DOMINANT users (more purchases than clicks — a
    scale-free rate; "has any purchase" saturates to 1.0 on a dense
    corpus), each with its WILSON score interval
    (the small-n-safe CI a normal approximation gets wrong near 0/1 —
    Wilson 1927), plus the pooled two-proportion z statistic — the
    categorical companion of q95's Welch t (means) and q168's SPRT
    (sequential).  All distributed quantities are exact int64 user
    counts (ONE user-keyed sum — per-user counts compose — then an O(2)
    cell fold); the z and interval formulas run on O(1) driver scalars
    in DOUBLE mirrored token-for-token in the twin."""
    import polars as pl

    from ..functions.grouping import bucketed_sum_multi

    ev = read_parquet_clean(f"{sf_dir}/events.parquet",
                               columns=["user_id", "event_type"])

    _PART = pa.schema([("user_id", pa.int64()), ("np_p", pa.int64()),
                       ("nc_p", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return _PART.empty_table()
        et = np.asarray(t["event_type"])
        df = pl.DataFrame({
            "user_id": np.asarray(t["user_id"], dtype=np.int64),
            "is_p": (et == "purchase").astype(np.int64),
            "is_c": (et == "click").astype(np.int64)})
        return (df.group_by("user_id")
                .agg(np_p=pl.col("is_p").sum().cast(pl.Int64),
                     nc_p=pl.col("is_c").sum().cast(pl.Int64))
                .to_arrow().cast(_PART))

    users = bucketed_sum_multi(
        ev.map_batches(partial, batch_format="pyarrow"), ["user_id"],
        {"np_p": "np_p", "nc_p": "nc_p"}, num_buckets=8)

    _C = pa.schema([("arm", pa.int64()), ("n", pa.int64()),
                    ("k", pa.int64())])

    def cells(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return _C.empty_table()
        arm = np.asarray(t["user_id"], dtype=np.int64) % 2
        conv = (np.asarray(t["np_p"], dtype=np.int64)
                > np.asarray(t["nc_p"], dtype=np.int64)).astype(np.int64)
        df = pl.DataFrame({"arm": arm, "k": conv})
        return (df.group_by("arm")
                .agg(n=pl.len().cast(pl.Int64), k=pl.col("k").sum())
                .to_arrow().cast(_C))

    c = (users.map_batches(cells, batch_format="pyarrow").to_pandas()
         .groupby("arm").sum().sort_index())
    Z = 1.959963984540054          # 97.5th normal quantile, literal

    def wilson(k, n):
        p = np.float64(k) / np.float64(n)
        d = 1.0 + Z * Z / np.float64(n)
        ctr = p + Z * Z / (2.0 * np.float64(n))
        w = Z * np.sqrt(p * (1.0 - p) / np.float64(n)
                        + Z * Z / (4.0 * np.float64(n)
                                   * np.float64(n)))
        return (ctr - w) / d, (ctr + w) / d

    n0, k0 = int(c.loc[0, "n"]), int(c.loc[0, "k"])
    n1, k1 = int(c.loc[1, "n"]), int(c.loc[1, "k"])
    pp = np.float64(k0 + k1) / np.float64(n0 + n1)
    z = ((np.float64(k0) / np.float64(n0)
          - np.float64(k1) / np.float64(n1))
         / np.sqrt(pp * (1.0 - pp) * (1.0 / np.float64(n0)
                                      + 1.0 / np.float64(n1))))
    lo0, hi0 = wilson(k0, n0)
    lo1, hi1 = wilson(k1, n1)
    e6 = lambda v: np.int64(np.floor(v * 1_000_000 + 0.5))  # noqa: E731
    return pa.table({
        "n_a": pa.array([np.int64(n0)]), "k_a": pa.array([np.int64(k0)]),
        "n_b": pa.array([np.int64(n1)]), "k_b": pa.array([np.int64(k1)]),
        "lo_a_e6": pa.array([e6(lo0)]), "hi_a_e6": pa.array([e6(hi0)]),
        "lo_b_e6": pa.array([e6(lo1)]), "hi_b_e6": pa.array([e6(hi1)]),
        "z_e4": pa.array([np.int64(np.floor(z * 10000 + 0.5))]),
    })


SQL_Q180 = """
WITH u AS (
  SELECT user_id, user_id % 2 AS arm,
         CAST(count(*) FILTER (event_type = 'purchase')
              > count(*) FILTER (event_type = 'click') AS BIGINT) AS conv
  FROM events GROUP BY user_id
),
c AS (
  SELECT arm, CAST(count(*) AS BIGINT) AS n, CAST(sum(conv) AS BIGINT)
           AS k
  FROM u GROUP BY arm
),
w AS (
  SELECT a.n AS n_a, a.k AS k_a, b.n AS n_b, b.k AS k_b,
         CAST(a.n AS DOUBLE) AS na, CAST(a.k AS DOUBLE) AS ka,
         CAST(b.n AS DOUBLE) AS nb, CAST(b.k AS DOUBLE) AS kb
  FROM c a, c b WHERE a.arm = 0 AND b.arm = 1
)
SELECT n_a, k_a, n_b, k_b,
  CAST(floor(((ka / na + 1.959963984540054 * 1.959963984540054 / (2.0 * na))
    - 1.959963984540054 * sqrt((ka / na) * (1.0 - ka / na) / na
        + 1.959963984540054 * 1.959963984540054 / (4.0 * na * na)))
    / (1.0 + 1.959963984540054 * 1.959963984540054 / na)
    * 1000000 + 0.5) AS BIGINT) AS lo_a_e6,
  CAST(floor(((ka / na + 1.959963984540054 * 1.959963984540054 / (2.0 * na))
    + 1.959963984540054 * sqrt((ka / na) * (1.0 - ka / na) / na
        + 1.959963984540054 * 1.959963984540054 / (4.0 * na * na)))
    / (1.0 + 1.959963984540054 * 1.959963984540054 / na)
    * 1000000 + 0.5) AS BIGINT) AS hi_a_e6,
  CAST(floor(((kb / nb + 1.959963984540054 * 1.959963984540054 / (2.0 * nb))
    - 1.959963984540054 * sqrt((kb / nb) * (1.0 - kb / nb) / nb
        + 1.959963984540054 * 1.959963984540054 / (4.0 * nb * nb)))
    / (1.0 + 1.959963984540054 * 1.959963984540054 / nb)
    * 1000000 + 0.5) AS BIGINT) AS lo_b_e6,
  CAST(floor(((kb / nb + 1.959963984540054 * 1.959963984540054 / (2.0 * nb))
    + 1.959963984540054 * sqrt((kb / nb) * (1.0 - kb / nb) / nb
        + 1.959963984540054 * 1.959963984540054 / (4.0 * nb * nb)))
    / (1.0 + 1.959963984540054 * 1.959963984540054 / nb)
    * 1000000 + 0.5) AS BIGINT) AS hi_b_e6,
  CAST(floor((ka / na - kb / nb)
    / sqrt(((ka + kb) / (na + nb)) * (1.0 - (ka + kb) / (na + nb))
           * (1.0 / na + 1.0 / nb)) * 10000 + 0.5) AS BIGINT) AS z_e4
FROM w
"""


# --- q182: heavy-tail exponent of user activity ------------------------------

def q182_powerlaw(sf_dir: str):
    """Power-law screen of the user-activity distribution: log-log OLS
    slope over the frequency-of-frequencies table (#users with exactly
    c events vs c) — the heavy-tail report behind every capacity and
    sampling decision (a slope near −2 says the top users dominate
    totals; near −1 says they dominate even the COUNT of events), and
    the same Zipf-style fit a corpus audit runs on token frequencies.

    Distributed quantities are exact int64 (per-user counts → ONE keyed
    sum; count-histogram → ONE tiny keyed sum); the O(distinct counts)
    driver fold accumulates the four ln-sums SEQUENTIALLY IN c ORDER
    (``sum(… ORDER BY c)`` in the twin — the q161/q164 device), and the
    closed-form slope runs on O(1) scalars in mirrored DOUBLE."""
    import polars as pl

    from ..functions.grouping import bucketed_sum

    ev = read_parquet_clean(f"{sf_dir}/events.parquet",
                               columns=["user_id"])

    _U = pa.schema([("user_id", pa.int64()), ("c_p", pa.int64())])

    def upart(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            return _U.empty_table()
        return (pl.DataFrame({"user_id": np.asarray(t["user_id"],
                                                    dtype=np.int64)})
                .group_by("user_id").agg(c_p=pl.len().cast(pl.Int64))
                .to_arrow().cast(_U))

    users = bucketed_sum(ev.map_batches(upart, batch_format="pyarrow"),
                         ["user_id"], "c_p", "c")

    _H = pa.schema([("c", pa.int64()), ("f_p", pa.int64())])

    def hpart(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "c" not in t.column_names:
            return _H.empty_table()
        return (pl.from_arrow(t).group_by("c")
                .agg(f_p=pl.len().cast(pl.Int64)).to_arrow().cast(_H))

    hist = (bucketed_sum(users.map_batches(hpart,
                                           batch_format="pyarrow"),
                         ["c"], "f_p", "f")
            .to_pandas().sort_values("c"))
    n_users = np.int64(hist["f"].sum())
    k = np.int64(len(hist))
    sx = sy = sxy = sxx = np.float64(0.0)
    for c, f in zip(hist["c"].to_numpy(np.int64),
                    hist["f"].to_numpy(np.int64)):   # sequential, c order
        x = np.log(np.float64(c))
        y = np.log(np.float64(f))
        sx += x
        sy += y
        sxy += x * y
        sxx += x * x
    kd = np.float64(k)
    slope = (kd * sxy - sx * sy) / (kd * sxx - sx * sx)
    return pa.table({
        "n_users": pa.array([n_users]),
        "n_points": pa.array([k]),
        "slope_e6": pa.array([np.int64(np.floor(slope * 1_000_000
                                                + 0.5))]),
    })


SQL_Q182 = """
WITH u AS (SELECT user_id, CAST(count(*) AS BIGINT) AS c
           FROM events GROUP BY user_id),
h AS (SELECT c, CAST(count(*) AS BIGINT) AS f FROM u GROUP BY c),
s AS (
  SELECT CAST(sum(f) AS BIGINT) AS n_users,
         CAST(count(*) AS BIGINT) AS k,
         sum(ln(CAST(c AS DOUBLE)) ORDER BY c) AS sx,
         sum(ln(CAST(f AS DOUBLE)) ORDER BY c) AS sy,
         sum(ln(CAST(c AS DOUBLE)) * ln(CAST(f AS DOUBLE))
             ORDER BY c) AS sxy,
         sum(ln(CAST(c AS DOUBLE)) * ln(CAST(c AS DOUBLE))
             ORDER BY c) AS sxx
  FROM h
)
SELECT n_users, k AS n_points,
       CAST(floor((CAST(k AS DOUBLE) * sxy - sx * sy)
                  / (CAST(k AS DOUBLE) * sxx - sx * sx)
                  * 1000000 + 0.5) AS BIGINT) AS slope_e6
FROM s
"""


# --- q183: exact per-group mode ----------------------------------------------

def q183_group_mode(sf_dir: str):
    """Exact MODE of the value distribution per event type (most
    frequent cents amount + its count) — the one classic aggregate the
    summary family still lacked (mean q95, median/quantiles q29/q147,
    trimmed q169; the mode is what a fraud screen wants for "the
    scripted amount everyone pays").  Deterministic tie-break: highest
    count, then SMALLEST value — mirrored as the twin's
    ``row_number() OVER (ORDER BY n DESC, v ASC)``.

    Shape: (type, cents) count partials → ONE composite-key sum → one
    tiny type-keyed fold picking each group's argmax — the distinct
    table never reaches the driver."""
    import polars as pl

    from ..functions.grouping import bucketed_sum, hash_exchange

    ev = read_parquet_clean(f"{sf_dir}/events.parquet",
                               columns=["event_type", "value"])

    _PART = pa.schema([("g", pa.string()), ("v", pa.int64()),
                       ("n_p", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "value" not in t.column_names:
            return _PART.empty_table()
        v = np.floor(np.asarray(t["value"]) * 100 + 0.5).astype(np.int64)
        return (pl.DataFrame({"g": pl.from_arrow(
            t["event_type"].combine_chunks()), "v": v})
            .group_by(["g", "v"]).agg(n_p=pl.len().cast(pl.Int64))
            .to_arrow().cast(_PART))

    counts = bucketed_sum(ev.map_batches(partial, batch_format="pyarrow"),
                          ["g", "v"], "n_p", "n")

    _OUT = pa.schema([("event_type", pa.string()),
                      ("mode_cents", pa.int64()), ("n_mode", pa.int64())])

    def argmax(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "g" not in t.column_names:
            return _OUT.empty_table()
        return (pl.from_arrow(t)
                .sort(["g", "n", "v"], descending=[False, True, False])
                .group_by("g", maintain_order=True).head(1)
                .rename({"g": "event_type", "v": "mode_cents",
                         "n": "n_mode"})
                .select(["event_type", "mode_cents", "n_mode"])
                .to_arrow().cast(_OUT))

    return hash_exchange(counts, "g", argmax, num_buckets=4)


SQL_Q183 = """
WITH c AS (
  SELECT event_type AS g, CAST(floor(value * 100 + 0.5) AS BIGINT) AS v,
         CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
),
r AS (
  SELECT g, v, n,
         row_number() OVER (PARTITION BY g ORDER BY n DESC, v ASC) AS rk
  FROM c
)
SELECT g AS event_type, v AS mode_cents, n AS n_mode FROM r WHERE rk = 1
"""


QUERIES = {
    "q63_grad_step": (q63_grad_step, SQL_Q63),
    "q95_ab_welch": (q95_ab_welch, SQL_Q95),
    "q157_benford_audit": (q157_benford_audit, SQL_Q157),
    "q158_mannwhitney": (q158_mannwhitney, SQL_Q158),
    "q159_ks_test": (q159_ks_test, SQL_Q159),
    "q160_spearman": (q160_spearman, SQL_Q160),
    "q161_kruskal_wallis": (q161_kruskal_wallis, SQL_Q161),
    "q162_wilcoxon": (q162_wilcoxon, SQL_Q162),
    "q163_chi_square": (q163_chi_square, SQL_Q163),
    "q164_anova_f": (q164_anova_f, SQL_Q164),
    "q166_replica_stability": (q166_replica_stability, SQL_Q166),
    "q168_sprt": (q168_sprt, SQL_Q168),
    "q169_trimmed_mean": (q169_trimmed_mean, SQL_Q169),
    "q172_mcnemar": (q172_mcnemar, SQL_Q172),
    "q178_partial_corr": (q178_partial_corr, SQL_Q178),
    "q179_cramers_v": (q179_cramers_v, _sql_cramers_v()),
    # iterative alternating least squares → rows-only; pytest pins loss
    # descent, determinism and beating the zero baseline
    "als_tool_factors": (als_tool_factors, None),
    "als_conv_factors": (als_conv_factors, None),
    "q180_proportion_ci": (q180_proportion_ci, SQL_Q180),
    "q182_powerlaw": (q182_powerlaw, SQL_Q182),
    "q183_group_mode": (q183_group_mode, SQL_Q183),
    "q185_service_level": (q185_service_level, SQL_Q185),
    "q189_ratio_metric": (q189_ratio_metric, SQL_Q189),
    "q64_sgd_train": (q64_sgd_train, None),
    "link_train_weights": (link_train_weights, None),
    "q86_user_trend": (q86_user_trend, SQL_Q86),
}
