"""From-DEFINITION oracles for the statistical-test family.

The DuckDB twins in ``pipelines/training.py`` mirror the pipeline's own
formulas, so they catch execution divergence but not a wrong formula.
These tests recompute each statistic from its textbook definition
(pairwise comparisons for U, direct CDF merge for D, argsort midranks
for W/rho/H) on the raw sf0.001 parquet and require exact agreement.
"""

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

SF = "/root/testdata/sf0.001"


def _events():
    return pq.read_table(
        f"{SF}/events.parquet",
        columns=["user_id", "event_type", "value"]).to_pandas()


def _cents(v):
    return np.floor(np.asarray(v) * 100 + 0.5).astype(np.int64)


def _midranks_x2(a):
    """Doubled average ranks (1-based) of an int array, ties averaged."""
    order = np.argsort(a, kind="mergesort")
    s = a[order]
    r2 = np.empty(len(a), dtype=np.int64)
    i = 0
    while i < len(s):
        j = i
        while j < len(s) and s[j] == s[i]:
            j += 1
        r2[order[i:j]] = (i + 1) + j          # 2·(avg of i+1 .. j)
        i = j
    return r2


def test_q158_u_statistic_from_pairwise_definition(ray_session):
    from pboh_entity_linking_ray.pipelines.training import q158_mannwhitney

    ev = _events()
    x = _cents(ev.loc[ev.event_type == "purchase", "value"])
    y = _cents(ev.loc[ev.event_type == "click", "value"])
    # U1 = #{x>y} + ½#{x=y} over ALL pairs (the definition)
    gt = (x[:, None] > y[None, :]).sum()
    eq = (x[:, None] == y[None, :]).sum()
    out = q158_mannwhitney(SF).to_pandas().iloc[0]
    assert out["n1"] == len(x) and out["n2"] == len(y)
    assert out["u1_x2"] == 2 * int(gt) + int(eq)


def test_q159_ks_from_direct_cdf_merge(ray_session):
    from pboh_entity_linking_ray.pipelines.training import q159_ks_test

    ev = _events()
    x = np.sort(_cents(ev.loc[ev.event_type == "purchase", "value"]))
    y = np.sort(_cents(ev.loc[ev.event_type == "click", "value"]))
    grid = np.union1d(x, y)
    c1 = np.searchsorted(x, grid, side="right")
    c2 = np.searchsorted(y, grid, side="right")
    md = np.abs(c1.astype(np.int64) * len(y)
                - c2.astype(np.int64) * len(x)).max()
    out = q159_ks_test(SF).to_pandas().iloc[0]
    assert out["max_cross_diff"] == md
    assert out["d_e6"] == md * 1_000_000 // (len(x) * len(y))


def test_q160_spearman_from_rank_corrcoef(ray_session):
    from pboh_entity_linking_ray.pipelines.training import q160_spearman

    o = pq.read_table(f"{SF}/orders.parquet",
                      columns=["o_totalprice", "o_orderdate"]).to_pandas()
    rx = pd.Series(_cents(o["o_totalprice"])).rank(method="average")
    ry = o["o_orderdate"].rank(method="average")
    rho = np.corrcoef(rx, ry)[0, 1]
    out = q160_spearman(SF).to_pandas().iloc[0]
    assert out["n"] == len(o)
    assert abs(out["rho_e6"] - rho * 1_000_000) <= 1   # independent float path


def test_spearman_two_limb_exact_past_int64(ray_session):
    """The limb-split stats fold at a planted 2.5M-row rank table,
    where Σrx² ≈ 2.1e19 overflows int64 (the old ceiling was ~1.9M
    rows): the reassembled sums must equal the closed forms EXACTLY,
    and rho must match an arbitrary-precision oracle."""
    import pyarrow as pa
    import ray.data as rd

    from pboh_entity_linking_ray.pipelines.training import \
        _spearman_from_ranked

    n = 2_500_000
    i = np.arange(1, n + 1, dtype=np.int64)
    rx2 = 2 * i                                  # distinct singleton ranks
    ry2 = 2 * ((i * 17) % n + 1)                 # a permutation (gcd=1)
    ds = rd.from_arrow(pa.table({"rx2": pa.array(rx2),
                                 "ry2": pa.array(ry2)})) \
        .repartition(8)
    out = _spearman_from_ranked(ds).to_pandas().iloc[0]
    assert out["n"] == n

    # closed form: Σ(2i)² = 4·n(n+1)(2n+1)/6 — past int64
    sxx_exact = 4 * n * (n + 1) * (2 * n + 1) // 6
    assert sxx_exact > 2**63 - 1
    # arbitrary-precision oracle over the same planted ranks
    sx = int(rx2.astype(object).sum())
    sy = int(ry2.astype(object).sum())
    syy = int((ry2.astype(object) ** 2).sum())
    sxy = sum(int(a) * int(b) for a, b in zip(rx2, ry2))
    num = n * sxy - sx * sy
    den2 = (n * sxx_exact - sx * sx) * (n * syy - sy * sy)
    rho = float(num) / np.sqrt(float(den2))
    assert abs(out["rho_e6"] - rho * 1_000_000) <= 1


def test_q161_kw_from_textbook_formula(ray_session):
    from pboh_entity_linking_ray.pipelines.training import \
        q161_kruskal_wallis

    ev = _events()
    v = _cents(ev["value"])
    r = pd.Series(v).rank(method="average").to_numpy()
    n = len(v)
    groups = ev["event_type"].to_numpy()
    h = 12.0 / (n * (n + 1)) * sum(
        r[groups == g].sum() ** 2 / (groups == g).sum()
        for g in sorted(set(groups))) - 3 * (n + 1)
    _, t = np.unique(v, return_counts=True)
    h_corr = h / (1 - (t.astype(float) ** 3 - t).sum() / (n**3 - n))
    out = q161_kruskal_wallis(SF).to_pandas().iloc[0]
    assert out["k"] == len(set(groups)) and out["n"] == n
    assert abs(out["h_corr_e6"] - h_corr * 1_000_000) <= 1


def test_q163_chi_square_from_crosstab_definition(ray_session):
    from pboh_entity_linking_ray.pipelines.training import q163_chi_square

    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "ts"]).to_pandas()
    us = ev["ts"].astype("int64")                 # epoch µs
    dow = ((us // 86_400_000_000 + 4) % 7).astype(int)
    ct = pd.crosstab(ev["event_type"], dow)       # observed counts
    out = (q163_chi_square(SF).to_pandas()
           .set_index(["event_type", "dow"]).sort_index())
    n_total = ct.to_numpy().sum()
    for (g, d), row in out.iterrows():
        o = ct.loc[g, d]
        e = ct.loc[g].sum() * ct[d].sum() / n_total
        assert row["n"] == o
        assert abs(row["exp_e2"] - e * 100) <= 1
        assert abs(row["chi2_e4"] - (o - e) ** 2 / e * 10000) <= 1
    # every nonzero cell is present
    assert len(out) == (ct.to_numpy() > 0).sum()


def test_q164_anova_from_group_mean_definition(ray_session):
    from pboh_entity_linking_ray.pipelines.training import q164_anova_f

    ev = _events()
    y = _cents(ev["value"]).astype(float)
    g = ev["event_type"].to_numpy()
    keys = sorted(set(g))
    grand = y.mean()
    ssb = sum((g == k).sum() * (y[g == k].mean() - grand) ** 2 for k in keys)
    ssw = sum(((y[g == k] - y[g == k].mean()) ** 2).sum() for k in keys)
    n, k = len(y), len(keys)
    f = (ssb / (k - 1)) / (ssw / (n - k))
    out = q164_anova_f(SF).to_pandas().iloc[0]
    assert out["n"] == n and out["k"] == k
    assert abs(out["f_e4"] - f * 10000) <= 2
    assert abs(out["eta2_e6"] - ssb / (ssb + ssw) * 1_000_000) <= 2


def test_q166_replica_band_from_direct_recompute(ray_session):
    from pboh_entity_linking_ray.functions.hashing import md5_lower64
    from pboh_entity_linking_ray.pipelines.training import (
        REPLICA_B, q166_replica_stability)

    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_id", "value"]).to_pandas()
    y = _cents(ev["value"])
    h = np.array([md5_lower64(str(i)) for i in ev["event_id"]],
                 dtype=np.uint64)
    mc = np.sort([
        np.floor(y[m].sum() / m.sum() * 100 + 0.5).astype(np.int64)
        for b in range(REPLICA_B)
        for m in [((h >> np.uint64(b)) & np.uint64(1)) == 1]
    ])
    out = q166_replica_stability(SF).to_pandas().iloc[0]
    assert out["n"] == len(y)
    assert out["mean_c_e2"] == np.floor(y.sum() / len(y) * 100 + 0.5)
    assert out["lo_c_e2"] == mc[1]
    assert out["hi_c_e2"] == mc[REPLICA_B - 2]
    assert out["lo_c_e2"] <= out["mean_c_e2"] <= out["hi_c_e2"]


def test_q168_sprt_from_wald_definition(ray_session):
    from pboh_entity_linking_ray.pipelines.training import (
        SPRT_A_E6, SPRT_P0, SPRT_P1, q168_sprt)

    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["user_id", "event_type", "ts"]).to_pandas()
    p = ev[ev.event_type == "purchase"]
    day = (p["ts"].astype("int64") // 86_400_000_000).to_numpy()
    arm = (p["user_id"].to_numpy() % 2)
    out = q168_sprt(SF).to_pandas().sort_values("day")
    assert out["n_a"].iloc[-1] == (arm == 0).sum()
    assert out["n_b"].iloc[-1] == (arm == 1).sum()
    # per-day cumulative LLR from the textbook formula
    for _, row in out.iloc[[0, len(out) // 2, -1]].iterrows():
        na = ((arm == 0) & (day <= row["day"])).sum()
        nb = ((arm == 1) & (day <= row["day"])).sum()
        llr = na * np.log(SPRT_P1 / SPRT_P0) \
            + nb * np.log((1 - SPRT_P1) / (1 - SPRT_P0))
        assert abs(row["llr_e6"] - llr * 1_000_000) <= 1
        want = ("h1" if row["llr_e6"] >= SPRT_A_E6
                else "h0" if row["llr_e6"] <= -SPRT_A_E6 else "continue")
        assert row["verdict"] == want


def test_q169_trimmed_mean_from_sorted_definition(ray_session):
    from pboh_entity_linking_ray.pipelines.training import q169_trimmed_mean

    v = np.sort(_cents(pq.read_table(
        f"{SF}/orders.parquet", columns=["o_totalprice"])
        .to_pandas()["o_totalprice"]))
    n = len(v)
    k = n // 20
    assert k > 0
    mid = v[k:n - k]
    wins = np.concatenate([np.full(k, v[k]), mid,
                           np.full(k, v[n - k - 1])])
    out = q169_trimmed_mean(SF).to_pandas().iloc[0]
    assert out["n"] == n and out["k"] == k
    assert out["v_lo"] == v[k]          # (k+1)-th order statistic
    assert out["v_hi"] == v[n - k - 1]  # (n-k)-th order statistic
    assert out["trimmed_mean_e2"] == 100 * mid.sum() // len(mid)
    assert out["winsor_mean_e2"] == 100 * wins.sum() // n


def test_q172_mcnemar_from_direct_crosstab(ray_session):
    from pboh_entity_linking_ray.pipelines.training import q172_mcnemar

    ev = _events()
    g = ev.pivot_table(index="user_id", columns="event_type",
                       values="value", aggfunc="count").fillna(0)
    a = (g.get("purchase", 0) > 0)
    b = (g.get("click", 0) > 0)
    # restrict to users with at least one purchase or click (the scan
    # filter's universe)
    keep = a | b
    a, b = a[keep], b[keep]
    out = q172_mcnemar(SF).to_pandas().iloc[0]
    assert out["n00"] == 0                      # structurally impossible
    assert out["n01"] == int((~a & b).sum())
    assert out["n10"] == int((a & ~b).sum())
    assert out["n11"] == int((a & b).sum())
    disc = out["n01"] + out["n10"]
    want = ((out["n01"] - out["n10"]) ** 2 * 10000 // disc) if disc else 0
    assert out["mcnemar_e4"] == want


def test_q162_wilcoxon_from_argsort_midranks(ray_session):
    from pboh_entity_linking_ray.pipelines.training import q162_wilcoxon

    ev = _events()
    ev = ev[ev.event_type.isin(["purchase", "click"])].copy()
    ev["cents"] = _cents(ev["value"])
    g = ev.groupby(["user_id", "event_type"])["cents"] \
        .agg(["sum", "count"]).unstack(fill_value=0)
    both = g[(g[("count", "purchase")] > 0) & (g[("count", "click")] > 0)]
    d = (both[("sum", "purchase")] - both[("sum", "click")]).to_numpy()
    d = d[d != 0]
    r2 = _midranks_x2(np.abs(d))
    out = q162_wilcoxon(SF).to_pandas().iloc[0]
    assert out["n_pairs"] == len(d)
    assert out["w_pos_x2"] == int(r2[d > 0].sum())
    assert out["w_neg_x2"] == int(r2[d < 0].sum())


def test_q178_partial_corr_from_numpy_corrcoef(ray_session):
    from pboh_entity_linking_ray.pipelines.training import q178_partial_corr

    li = pq.read_table(f"{SF}/lineitem.parquet",
                       columns=["l_orderkey", "l_shipdate"]).to_pandas()
    od = pq.read_table(
        f"{SF}/orders.parquet",
        columns=["o_orderkey", "o_totalprice", "o_orderdate"]).to_pandas()
    g = li.groupby("l_orderkey").agg(
        z=("l_shipdate", "size"), ship=("l_shipdate", "min"))
    j = od.join(g, on="o_orderkey", how="inner")
    x = np.floor(j["o_totalprice"].to_numpy() + 0.5)
    y = (j["ship"].astype("int64") // 86_400_000_000
         - j["o_orderdate"].astype("int64") // 86_400_000_000).to_numpy()
    z = j["z"].to_numpy(dtype=float)
    rxy = np.corrcoef(x, y)[0, 1]
    rxz = np.corrcoef(x, z)[0, 1]
    ryz = np.corrcoef(y, z)[0, 1]
    want = (rxy - rxz * ryz) / np.sqrt((1 - rxz**2) * (1 - ryz**2))
    out = q178_partial_corr(SF).to_pandas().iloc[0]
    assert out["n"] == len(j)
    assert abs(out["rxy_e6"] - rxy * 1_000_000) <= 2
    assert abs(out["partial_e6"] - want * 1_000_000) <= 2
    # shipping lag correlates with order size; the partial is attenuated
    # toward zero relative to the raw r_xy
    assert abs(out["partial_e6"]) <= abs(out["rxy_e6"]) + 2


def test_q179_cramers_v_from_cells(ray_session):
    from pboh_entity_linking_ray.pipelines.training import (
        q163_chi_square, q179_cramers_v)

    cells = q163_chi_square(SF).to_pandas()
    out = q179_cramers_v(SF).to_pandas().iloc[0]
    assert out["chi2_e4"] == cells["chi2_e4"].sum()
    assert out["n"] == cells["n"].sum()
    r = cells["event_type"].nunique()
    c = cells["dow"].nunique()
    assert out["dof"] == (r - 1) * (c - 1)
    v = np.sqrt(out["chi2_e4"] / 10000 / (out["n"] * min(r - 1, c - 1)))
    assert abs(out["cramers_v_e6"] - v * 1_000_000) <= 1
    assert 0 <= out["cramers_v_e6"] <= 1_000_000


def test_q180_wilson_from_direct_formula(ray_session):
    from pboh_entity_linking_ray.pipelines.training import q180_proportion_ci

    ev = _events()
    g = ev.pivot_table(index="user_id", columns="event_type",
                       values="value", aggfunc="count").fillna(0)
    conv = (g.get("purchase", 0) > g.get("click", 0))
    arm = (g.index.to_numpy() % 2)
    out = q180_proportion_ci(SF).to_pandas().iloc[0]
    assert out["n_a"] == (arm == 0).sum()
    assert out["k_a"] == int(conv[arm == 0].sum())
    assert out["n_b"] == (arm == 1).sum()
    assert out["k_b"] == int(conv[arm == 1].sum())
    z = 1.959963984540054
    for (k, n, lo, hi) in ((out["k_a"], out["n_a"], out["lo_a_e6"],
                            out["hi_a_e6"]),
                           (out["k_b"], out["n_b"], out["lo_b_e6"],
                            out["hi_b_e6"])):
        p = k / n
        d = 1 + z * z / n
        ctr = p + z * z / (2 * n)
        w = z * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
        assert abs(lo - (ctr - w) / d * 1e6) <= 1
        assert abs(hi - (ctr + w) / d * 1e6) <= 1
        assert lo <= p * 1e6 <= hi          # interval covers the estimate


def test_q182_powerlaw_from_polyfit(ray_session):
    from pboh_entity_linking_ray.pipelines.training import q182_powerlaw

    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["user_id"]).to_pandas()
    counts = ev.groupby("user_id").size()
    hist = counts.value_counts().sort_index()
    slope = np.polyfit(np.log(hist.index.to_numpy(dtype=float)),
                       np.log(hist.to_numpy(dtype=float)), 1)[0]
    out = q182_powerlaw(SF).to_pandas().iloc[0]
    assert out["n_users"] == counts.size
    assert out["n_points"] == len(hist)
    assert abs(out["slope_e6"] - slope * 1_000_000) <= 2


def test_q183_mode_from_value_counts(ray_session):
    from pboh_entity_linking_ray.pipelines.training import q183_group_mode

    ev = _events()
    ev["cents"] = _cents(ev["value"])
    out = q183_group_mode(SF).to_pandas().set_index("event_type")
    for g, grp in ev.groupby("event_type"):
        vc = grp["cents"].value_counts()
        top = vc.max()
        want_v = min(vc[vc == top].index)      # smallest among ties
        assert out.loc[g, "mode_cents"] == want_v
        assert out.loc[g, "n_mode"] == top
    assert len(out) == ev["event_type"].nunique()


def test_q185_service_level_from_direct_lags(ray_session):
    from pboh_entity_linking_ray.pipelines.training import q185_service_level

    li = pq.read_table(f"{SF}/lineitem.parquet",
                       columns=["l_orderkey", "l_shipdate"]).to_pandas()
    od = pq.read_table(
        f"{SF}/orders.parquet",
        columns=["o_orderkey", "o_orderpriority", "o_orderdate"]).to_pandas()
    ship = li.groupby("l_orderkey")["l_shipdate"].min()
    j = od.join(ship.rename("ship"), on="o_orderkey", how="inner")
    lag = (j["ship"].astype("int64") // 86_400_000_000
           - j["o_orderdate"].astype("int64") // 86_400_000_000)
    out = (q185_service_level(SF).to_pandas()
           .set_index("o_orderpriority"))
    for prio, grp in lag.groupby(j["o_orderpriority"]):
        row = out.loc[prio]
        assert row["n_orders"] == len(grp)
        for k in (3, 7, 14):
            assert row[f"sla{k}_e4"] == 10000 * int((grp <= k).sum()) \
                // len(grp)
    # SLA attainment is monotone in the window
    assert (out["sla3_e4"] <= out["sla7_e4"]).all()
    assert (out["sla7_e4"] <= out["sla14_e4"]).all()


def test_q189_ratio_metric_from_direct_delta(ray_session):
    from pboh_entity_linking_ray.pipelines.training import (
        Z975, q189_ratio_metric)

    ev = pq.read_table(
        f"{SF}/events.parquet",
        columns=["user_id", "event_type", "ts", "value"]).to_pandas()
    ev["d"] = ev["ts"].astype("int64") // 86_400_000_000
    ev["cents"] = np.where(ev.event_type == "purchase",
                           _cents(ev["value"]), 0)
    u = (ev.groupby("user_id")
         .agg(x=("cents", "sum"), y=("d", "nunique")))
    out = q189_ratio_metric(SF).to_pandas().set_index("arm")
    for arm in (0, 1):
        g = u[u.index % 2 == arm]
        x = g["x"].to_numpy(dtype=float)
        y = g["y"].to_numpy(dtype=float)
        n = len(g)
        r = x.sum() / y.sum()
        se = np.sqrt((x.var(ddof=1) + r * r * y.var(ddof=1)
                      - 2 * r * np.cov(x, y, ddof=1)[0, 1])
                     / (n * y.mean() ** 2))
        row = out.loc[arm]
        assert row["n_users"] == n
        assert abs(row["rev_per_day_e4"] - r * 10000) <= 1
        assert abs(row["lo_e4"] - (r - Z975 * se) * 10000) <= 2
        assert abs(row["hi_e4"] - (r + Z975 * se) * 10000) <= 2
        assert row["lo_e4"] <= row["rev_per_day_e4"] <= row["hi_e4"]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
@pytest.mark.usefixtures("ray_session")
def test_spearman_limb_path_equals_plain_int_path(seed):
    """Property: on inputs comfortably INSIDE int64 the limb-split fold
    must reproduce the plain exact computation bit-for-bit (same rho_e6),
    for arbitrary tied/untied rank tables."""
    import pyarrow as pa
    import ray.data as rd

    from pboh_entity_linking_ray.pipelines.training import \
        _spearman_from_ranked

    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 400))
    rx2 = rng.integers(1, 2 * n + 1, size=n).astype(np.int64)
    ry2 = rng.integers(1, 2 * n + 1, size=n).astype(np.int64)
    if len(set(rx2)) < 2 or len(set(ry2)) < 2:
        return                                     # rho undefined
    ds = rd.from_arrow(pa.table({"rx2": pa.array(rx2),
                                 "ry2": pa.array(ry2)})).repartition(3)
    out = _spearman_from_ranked(ds).to_pandas().iloc[0]

    nn = np.float64(n)
    sx, sy = np.float64(rx2.sum()), np.float64(ry2.sum())
    sxx = np.float64((rx2 * rx2).sum())
    syy = np.float64((ry2 * ry2).sum())
    sxy = np.float64((rx2 * ry2).sum())
    den = (nn * sxx - sx * sx) * (nn * syy - sy * sy)
    if den <= 0:
        return
    rho = (nn * sxy - sx * sy) / np.sqrt(den)
    assert out["n"] == n
    assert out["rho_e6"] == np.int64(np.floor(rho * 1_000_000 + 0.5))
