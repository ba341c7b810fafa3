"""Output checks computed from the generator's gold tables.

Independent of the code under test: plain pyarrow over the ``labels`` and
``golden_clusters`` tables that ``generate_corpus`` writes, applied to
the linkage outputs after they are collected to this process.  A broken
output contract raises ``ContractError``; the quality figures are
returned for the benchmark to report.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray


class ContractError(Exception):
    """An op's output breaks the contract of the API that produced it."""


def collect(ds, cols: list[str]) -> pa.Table:
    """Driver-side copy of ``cols`` of a Dataset.  Empty blocks are
    skipped: a fully empty map output can be a zero-column block."""
    blocks = [b.select(cols) for b in ray.get(ds.to_arrow_refs())
              if b.num_rows]
    if not blocks:
        return pa.table({c: pa.array([], type=pa.string()) for c in cols})
    return pa.concat_tables(blocks, promote_options="default")


def _ordered_pairs(t: pa.Table) -> pa.Table:
    a, b = t["conv_a"].cast(pa.string()), t["conv_b"].cast(pa.string())
    lo = pc.less_equal(a, b)
    return pa.table({"conv_a": pc.if_else(lo, a, b),
                     "conv_b": pc.if_else(lo, b, a)})


def check_scored(scored: pa.Table, n_pairs: int) -> None:
    """Every candidate pair is scored exactly once."""
    if scored.num_rows != n_pairs:
        raise ContractError(f"pairs_scored {n_pairs} != scored rows "
                            f"{scored.num_rows}")
    keys = _ordered_pairs(scored)
    distinct = keys.group_by(["conv_a", "conv_b"]).aggregate([]).num_rows
    if distinct != scored.num_rows:
        raise ContractError(f"{scored.num_rows - distinct} duplicate "
                            f"scored pairs")


def check_assignment(clusters: pa.Table, expected_ids: pa.Array) -> None:
    """One row per expected conversation: none missing, none repeated
    (a repeated conv_id is also how a conflicting assignment shows),
    none unknown."""
    ids = clusters["conv_id"].cast(pa.string())
    n_distinct = pc.count_distinct(ids).as_py()
    if n_distinct != clusters.num_rows:
        raise ContractError(f"{clusters.num_rows - n_distinct} duplicate "
                            f"conv_id rows in the cluster assignment")
    missing = pc.sum(pc.invert(pc.is_in(expected_ids, value_set=ids))).as_py()
    unknown = pc.sum(pc.invert(pc.is_in(ids, value_set=expected_ids))).as_py()
    if missing or unknown:
        raise ContractError(f"cluster assignment: {missing} conv_ids "
                            f"missing, {unknown} unexpected")
    if pc.sum(pc.is_null(clusters["cluster_id"])).as_py():
        raise ContractError("cluster assignment has null cluster_id")


def pair_f1(scored: pa.Table, labels: pa.Table, ids: pa.Array,
            new_ids: pa.Array | None = None) -> float:
    """F1 of ``is_match`` over the gold-labelled pairs whose endpoints
    are both in ``ids`` (and, given ``new_ids``, at least one of them
    new).  A labelled pair the run never scored counts as predicted
    non-match."""
    keep = pc.and_(pc.is_in(labels["conv_a"], value_set=ids),
                   pc.is_in(labels["conv_b"], value_set=ids))
    if new_ids is not None:
        keep = pc.and_(keep, pc.or_(pc.is_in(labels["conv_a"],
                                             value_set=new_ids),
                                    pc.is_in(labels["conv_b"],
                                             value_set=new_ids)))
    gold = labels.filter(keep).select(["conv_a", "conv_b", "is_match"]) \
        .rename_columns(["conv_a", "conv_b", "gold"])
    pred = _ordered_pairs(scored).append_column(
        "pred", scored["is_match"].cast(pa.bool_()))
    j = gold.join(pred, ["conv_a", "conv_b"], join_type="left outer")
    g = j["gold"]
    p = pc.fill_null(j["pred"], False)
    tp = pc.sum(pc.and_(g, p)).as_py() or 0
    fp = pc.sum(pc.and_(pc.invert(g), p)).as_py() or 0
    fn = pc.sum(pc.and_(g, pc.invert(p))).as_py() or 0
    return 1.0 if tp + fp + fn == 0 else 2 * tp / (2 * tp + fp + fn)


def _same_cluster_pairs(counts: pa.Array) -> int:
    c = pc.cast(counts, pa.int64())
    return pc.sum(pc.divide(pc.multiply(c, pc.subtract(c, 1)), 2)).as_py() \
        or 0


def _gold_for(golden: pa.Table, ids: pa.Array) -> pa.Table:
    return golden.filter(pc.is_in(golden["conv_id"], value_set=ids)) \
        .rename_columns(["conv_id", "gold"])


def cluster_f1(clusters: pa.Table, golden: pa.Table, ids: pa.Array) -> float:
    """Pairwise co-membership F1 of the assignment over ``ids`` against
    the gold clusters restricted to ``ids``."""
    pred = clusters.select(["conv_id", "cluster_id"]) \
        .join(_gold_for(golden, ids), "conv_id")
    n_pred = _same_cluster_pairs(
        pred.group_by("cluster_id").aggregate([("conv_id", "count")])
        ["conv_id_count"])
    n_gold = _same_cluster_pairs(
        pred.group_by("gold").aggregate([("conv_id", "count")])
        ["conv_id_count"])
    tp = _same_cluster_pairs(
        pred.group_by(["cluster_id", "gold"])
        .aggregate([("conv_id", "count")])["conv_id_count"])
    return 1.0 if n_pred + n_gold == 0 else 2 * tp / (n_pred + n_gold)


def expected_cluster_ids(golden: pa.Table, ids: pa.Array) -> pa.Table:
    """conv_id → the id a correct linkage over ``ids`` assigns: the
    smallest conv_id of its gold cluster among ``ids``."""
    g = _gold_for(golden, ids)
    rep = g.group_by("gold").aggregate([("conv_id", "min")]) \
        .rename_columns(["gold", "expected"])
    return g.join(rep, "gold").select(["conv_id", "expected"])


def assign_accuracy(clusters: pa.Table, golden: pa.Table, ids: pa.Array,
                    scope: pa.Array) -> float:
    """Share of the ``scope`` conversations whose cluster_id equals the
    gold expectation over the universe ``ids``."""
    exp = expected_cluster_ids(golden, ids)
    exp = exp.filter(pc.is_in(exp["conv_id"], value_set=scope))
    j = exp.join(clusters.select(["conv_id", "cluster_id"]), "conv_id")
    if j.num_rows != len(scope):
        raise ContractError(f"{len(scope) - j.num_rows} scoped convs have "
                            f"no gold or no assignment")
    hits = pc.sum(pc.equal(j["expected"],
                           j["cluster_id"].cast(pa.string()))).as_py() or 0
    return hits / j.num_rows
