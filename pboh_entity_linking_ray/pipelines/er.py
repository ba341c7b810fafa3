"""Entity-resolution blocking/scoring operators beyond the flagship's
MinHash-LSH family — the other classic candidate-generation and match-
weight techniques from the record-linkage literature, each expressed as
one or two skinny hash exchanges with vectorized in-bucket kernels:

- q117 sorted-neighborhood blocking (Hernandez & Stolfo): order-
  preserving range exchange + local sliding window, with an exact
  O(w x buckets) driver-side seam pass for cross-range pairs.
- q118 meta-blocking (Papadakis et al., common-blocks scheme): prune
  fingerprint-block candidate pairs to those sharing >= MB_MIN_CBS
  blocks, with a block-size purge cap.
- q119 Fellegi-Sunter m/u sufficient statistics: per-feature agreement
  counts conditioned on match status over blocked pairs — the exact
  integer inputs of the classic match/unmatch weight estimator.
- q120 score-calibration curve: empirical match rate per similarity
  bin over blocked pairs (reliability diagram as a dataset op).

Reference analogue: the candidate-generation + scoring split of the
blocking family (stages/blocking.py here; reference
index/MentEntsFreqIndexWrapper.scala:30-40 generates candidates from a
cheap index, loopybeliefpropagation/Scorer.scala:7-14 scores them) —
these operators are the ER-literature alternatives a user of that
pipeline would reach for.
"""

from __future__ import annotations
from pboh_entity_linking_ray.sources.reading import read_parquet_clean

import numpy as np
import pyarrow as pa
import ray.data

from ..functions.grouping import bucketed_sum, bucketed_sum_multi, hash_exchange
from ..functions.similarity import jaro_winkler_batch
from .relational import _t

# --- q117: sorted-neighborhood blocking -------------------------------------

SN_W = 5            # sliding-window width (pairs within w positions)
SN_BUCKETS = 32     # order-preserving ranges (two-char prefix cells)

_SN_EMPTY = {"a": pa.int64(), "b": pa.int64(), "dist": pa.int64()}


def _sn_prep(t: pa.Table) -> pa.Table:
    """Skinny rows + order-preserving range id from the 2-char prefix.

    The range id is MONOTONE in (p_name, p_partkey) order: names that
    differ in their first two chars sort exactly as their cells do, and
    names sharing the prefix share the cell — so ranges partition the
    global order into contiguous runs and a local sort inside each range
    reproduces the global neighborhood (TPC-H-ish names are lowercase
    ASCII; other alphabets need a wider prefix, same construction)."""
    if t.num_rows == 0:
        return pa.table({"p_partkey": pa.array([], type=pa.int64()),
                         "p_name": pa.array([], type=pa.string()),
                         "rb": pa.array([], type=pa.int64())})
    names = np.asarray(t["p_name"])
    codes = names.astype("U2").view(np.uint32).reshape(len(names), 2)
    c = np.clip(codes.astype(np.int64) - 97, 0, 25)
    cell = c[:, 0] * 26 + c[:, 1]
    return pa.table({
        "p_partkey": t["p_partkey"].cast(pa.int64()),
        "p_name": t["p_name"],
        "rb": pa.array(cell * SN_BUCKETS // 676, type=pa.int64()),
    })


def _sn_sorted(t: pa.Table):
    import polars as pl

    df = pl.from_arrow(t).sort(["rb", "p_name", "p_partkey"])
    return (df["rb"].to_numpy(), df["p_partkey"].to_numpy())


def q117_sorted_neighborhood(sf_dir: str):
    """Sorted-neighborhood candidate pairs over part names: every pair of
    parts within ``SN_W`` positions of each other in global (p_name,
    p_partkey) order, with its rank distance.

    No global sort: rows take ONE order-preserving range exchange (range
    id = 2-char-prefix cell, see ``_sn_prep``), each range sorts locally
    and emits its window pairs with w shifted vectorized comparisons.
    Cross-range pairs are closed by a seam pass that ships only the
    first/last w rows of every range plus range sizes — O(w x ranges)
    rows to the driver regardless of input size (the same seam-window
    idea as the flagship blocker's in-bucket salting,
    stages/blocking.py) — from which exact global ranks of the boundary
    rows are reconstructed."""

    def pairs_fn(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "p_partkey" not in t.column_names:
            return pa.table({k: pa.array([], type=v)
                             for k, v in _SN_EMPTY.items()})
        rb, ids = _sn_sorted(t)
        outs_a, outs_b, outs_d = [], [], []
        for d in range(1, SN_W + 1):
            if d >= len(ids):
                break
            m = rb[:-d] == rb[d:]          # stay inside one range
            outs_a.append(ids[:-d][m])
            outs_b.append(ids[d:][m])
            outs_d.append(np.full(int(m.sum()), d, dtype=np.int64))
        if not outs_a:
            return pa.table({k: pa.array([], type=v)
                             for k, v in _SN_EMPTY.items()})
        return pa.table({"a": pa.array(np.concatenate(outs_a), type=pa.int64()),
                         "b": pa.array(np.concatenate(outs_b), type=pa.int64()),
                         "dist": pa.array(np.concatenate(outs_d))})

    def frag_fn(t: pa.Table) -> pa.Table:
        empty = pa.table({"rb": pa.array([], type=pa.int64()),
                          "pos": pa.array([], type=pa.int64()),
                          "size": pa.array([], type=pa.int64()),
                          "key": pa.array([], type=pa.int64())})
        if t.num_rows == 0 or "p_partkey" not in t.column_names:
            return empty
        rb, ids = _sn_sorted(t)
        starts = np.flatnonzero(np.r_[True, rb[1:] != rb[:-1]])
        bounds = np.append(starts, len(rb))
        sizes = np.repeat(np.diff(bounds), np.diff(bounds))
        pos = np.arange(len(rb)) - np.repeat(starts, np.diff(bounds))
        keep = (pos < SN_W) | (pos >= sizes - SN_W)
        return pa.table({"rb": pa.array(rb[keep], type=pa.int64()),
                         "pos": pa.array(pos[keep]),
                         "size": pa.array(sizes[keep]),
                         "key": pa.array(ids[keep], type=pa.int64())})

    parts = _t(sf_dir, "part", ["p_partkey", "p_name"])
    skinny = parts.map_batches(_sn_prep, batch_format="pyarrow",
                               batch_size=8192)
    within = hash_exchange(skinny, "rb", pairs_fn, num_buckets=SN_BUCKETS)

    frags = hash_exchange(skinny, "rb", frag_fn,
                          num_buckets=SN_BUCKETS).take_all()
    cross = pa.table({k: pa.array([], type=v) for k, v in _SN_EMPTY.items()})
    if frags:
        rb = np.array([r["rb"] for r in frags], dtype=np.int64)
        pos = np.array([r["pos"] for r in frags], dtype=np.int64)
        size = np.array([r["size"] for r in frags], dtype=np.int64)
        key = np.array([r["key"] for r in frags], dtype=np.int64)
        # exact global rank of every boundary row: range sizes ride on
        # each fragment, so offsets are a cumsum over range ids
        ubs = np.unique(rb)
        sz = np.zeros(len(ubs), dtype=np.int64)
        sz[np.searchsorted(ubs, rb)] = size
        offs = np.concatenate(([0], np.cumsum(sz)[:-1]))
        rank = offs[np.searchsorted(ubs, rb)] + pos
        o = np.argsort(rank)
        rank, rb, key = rank[o], rb[o], key[o]
        dmat = rank[None, :] - rank[:, None]
        ii, jj = np.nonzero((dmat >= 1) & (dmat <= SN_W)
                            & (rb[None, :] != rb[:, None]))
        cross = pa.table({"a": pa.array(key[ii], type=pa.int64()),
                          "b": pa.array(key[jj], type=pa.int64()),
                          "dist": pa.array(dmat[ii, jj], type=pa.int64())})
    return within.union(ray.data.from_arrow(cross))


SQL_Q117 = f"""
WITH r AS (
  SELECT p_partkey, p_name,
         ROW_NUMBER() OVER (ORDER BY p_name, p_partkey) AS rk
  FROM part
)
SELECT x.p_partkey AS a, y.p_partkey AS b,
       CAST(y.rk - x.rk AS BIGINT) AS dist
FROM r x JOIN r y ON y.rk > x.rk AND y.rk <= x.rk + {SN_W}
"""


# --- q118: meta-blocking (common-blocks pair pruning) -----------------------

MB_CAP = 50       # block purge: fingerprints in more docs emit no pairs
MB_MIN_CBS = 2    # keep pairs sharing at least this many blocks


def q118_metablocking(sf_dir: str):
    """Meta-blocking over winnow-fingerprint blocks: candidate pairs are
    kept only if they co-occur in >= MB_MIN_CBS blocks (the common-
    blocks weighting scheme), after purging oversize blocks (> MB_CAP
    docs).  Turns a noisy one-block-is-enough candidate set into a
    multi-evidence one — the standard second stage on top of any
    redundancy-positive blocker.

    Shape: the q15 fingerprint stream -> ONE exchange on the block key
    (df = block size is exact inside the bucket) emitting packed pair
    partials via size-batched triu -> ONE pair-key sum + threshold.
    Per-block work is capped by MB_CAP, so no key can pin a core."""
    from .textops import q15_winnow_fingerprints

    def emit_pairs(t: pa.Table) -> pa.Table:
        empty = pa.table({"pair": pa.array([], type=pa.int64()),
                          "cbs_p": pa.array([], type=pa.int64())})
        if t.num_rows == 0 or "doc_id" not in t.column_names:
            return empty
        import polars as pl

        df = pl.from_arrow(t).sort(["fp_hex", "doc_id"])
        ids = df["doc_id"].to_numpy()
        fps = df["fp_hex"].to_numpy()
        starts = np.flatnonzero(np.r_[True, fps[1:] != fps[:-1]])
        bounds = np.append(starts, len(fps))
        sizes = np.diff(bounds)
        ok = (sizes >= 2) & (sizes <= MB_CAP)
        ap, bp = [], []
        for m in np.unique(sizes[ok]):
            ia, ib = np.triu_indices(int(m), k=1)
            base = bounds[:-1][ok & (sizes == m)]
            ap.append((base[:, None] + ia[None, :]).ravel())
            bp.append((base[:, None] + ib[None, :]).ravel())
        if not ap:
            return empty
        ai = np.concatenate(ap)
        bi = np.concatenate(bp)
        pair = ids[ai] * (1 << 32) + ids[bi]   # in-group sorted => a < b
        upair, cnt = np.unique(pair, return_counts=True)
        return pa.table({"pair": pa.array(upair, type=pa.int64()),
                         "cbs_p": pa.array(cnt.astype(np.int64))})

    fps = q15_winnow_fingerprints(sf_dir)
    partial = hash_exchange(fps, "fp_hex", emit_pairs)
    agg = bucketed_sum(partial, ["pair"], "cbs_p", "cbs")

    def finish(t: pa.Table) -> pa.Table:
        pair = np.asarray(t["pair"], dtype=np.int64)
        cbs = np.asarray(t["cbs"], dtype=np.int64)
        keep = cbs >= MB_MIN_CBS
        return pa.table({"a": pa.array(pair[keep] >> 32),
                         "b": pa.array(pair[keep] & 0xFFFFFFFF),
                         "cbs": pa.array(cbs[keep])})

    return agg.map_batches(finish, batch_format="pyarrow")


def _sql_q118() -> str:
    from .textops import SQL_Q15

    return f"""
WITH fp AS ({SQL_Q15}),
live AS (SELECT fp_hex FROM fp GROUP BY fp_hex HAVING COUNT(*) <= {MB_CAP})
SELECT x.doc_id AS a, y.doc_id AS b, COUNT(*) AS cbs
FROM fp x JOIN fp y ON x.fp_hex = y.fp_hex AND x.doc_id < y.doc_id
WHERE x.fp_hex IN (SELECT fp_hex FROM live)
GROUP BY 1, 2 HAVING COUNT(*) >= {MB_MIN_CBS}
"""


# --- q119 / q120: within-brand blocked pairs --------------------------------

def _brand_pairs(t: pa.Table):
    """Sorted in-bucket (brand-segmented) pair enumeration shared by the
    FS-statistics and calibration ops: returns the sorted polars frame
    plus (ai, bi) row-index arrays of every within-brand pair (a's
    p_partkey < b's by in-segment id order), triu batched by segment
    size so one Python call covers all equal-size segments."""
    import polars as pl

    df = pl.from_arrow(t).sort(["p_brand", "p_partkey"])
    brands = df["p_brand"].to_numpy()
    starts = np.flatnonzero(np.r_[True, brands[1:] != brands[:-1]])
    bounds = np.append(starts, len(brands))
    sizes = np.diff(bounds)
    ap, bp = [], []
    ok = sizes >= 2
    for m in np.unique(sizes[ok]):
        ia, ib = np.triu_indices(int(m), k=1)
        base = bounds[:-1][ok & (sizes == m)]
        ap.append((base[:, None] + ia[None, :]).ravel())
        bp.append((base[:, None] + ib[None, :]).ravel())
    if not ap:
        return df, (np.empty(0, dtype=np.int64),) * 2
    return df, (np.concatenate(ap), np.concatenate(bp))


FS_FEATURES = ("size", "type", "price")


def q119_fs_weights(sf_dir: str):
    """Fellegi-Sunter sufficient statistics over brand-blocked part
    pairs: for each comparison feature (size / type / price-cents
    agreement), the exact integer counts (agree & match, total match,
    agree & unmatch, total unmatch) from which the classic m/u
    probabilities and log2(m/u) match weights derive — match truth =
    exact name equality.  Emitting the counts rather than float weights
    keeps the op exact end-to-end (the log is a driver-side epilogue).

    One brand exchange; pairs enumerate per brand segment at int-code
    level (names/types uniqued per bucket), partial counts per bucket,
    then a 3-key sum — O(1) driver traffic."""

    def fs_partial(t: pa.Table) -> pa.Table:
        empty = pa.table({"feature": pa.array([], type=pa.string()),
                          **{c: pa.array([], type=pa.int64())
                             for c in ("m_agree", "m_total",
                                       "u_agree", "u_total")}})
        if t.num_rows == 0 or "p_partkey" not in t.column_names:
            return empty
        df, (ai, bi) = _brand_pairs(t)
        if len(ai) == 0:
            return empty
        _, name_c = np.unique(df["p_name"].to_numpy(), return_inverse=True)
        _, type_c = np.unique(df["p_type"].to_numpy(), return_inverse=True)
        size = df["p_size"].to_numpy().astype(np.int64)
        cents = np.floor(df["p_retailprice"].to_numpy() * 100
                         + 0.5).astype(np.int64)
        match = name_c[ai] == name_c[bi]
        n_m = int(match.sum())
        n_u = len(ai) - n_m
        rows = []
        for feat, agree in (("size", size[ai] == size[bi]),
                            ("type", type_c[ai] == type_c[bi]),
                            ("price", cents[ai] == cents[bi])):
            rows.append((feat, int((agree & match).sum()), n_m,
                         int((agree & ~match).sum()), n_u))
        return pa.table({
            "feature": pa.array([r[0] for r in rows]),
            "m_agree": pa.array([r[1] for r in rows], type=pa.int64()),
            "m_total": pa.array([r[2] for r in rows], type=pa.int64()),
            "u_agree": pa.array([r[3] for r in rows], type=pa.int64()),
            "u_total": pa.array([r[4] for r in rows], type=pa.int64()),
        })

    parts = _t(sf_dir, "part", ["p_partkey", "p_name", "p_brand",
                                "p_type", "p_size", "p_retailprice"])
    partial = hash_exchange(parts, "p_brand", fs_partial, num_buckets=16)
    return bucketed_sum_multi(partial, ["feature"],
                              {c: c for c in ("m_agree", "m_total",
                                              "u_agree", "u_total")},
                              num_buckets=4)


SQL_Q119 = """
WITH p AS (
  SELECT p_partkey, p_name, p_brand, p_type, p_size,
         CAST(FLOOR(p_retailprice * 100 + 0.5) AS BIGINT) AS cents
  FROM part
),
pr AS (
  SELECT x.p_name = y.p_name AS is_match,
         x.p_size = y.p_size AS ag_size,
         x.p_type = y.p_type AS ag_type,
         x.cents = y.cents AS ag_price
  FROM p x JOIN p y ON x.p_brand = y.p_brand AND x.p_partkey < y.p_partkey
)
SELECT 'size' AS feature,
       CAST(SUM(CASE WHEN is_match AND ag_size THEN 1 ELSE 0 END) AS BIGINT) AS m_agree,
       CAST(SUM(CASE WHEN is_match THEN 1 ELSE 0 END) AS BIGINT) AS m_total,
       CAST(SUM(CASE WHEN NOT is_match AND ag_size THEN 1 ELSE 0 END) AS BIGINT) AS u_agree,
       CAST(SUM(CASE WHEN NOT is_match THEN 1 ELSE 0 END) AS BIGINT) AS u_total
FROM pr
UNION ALL
SELECT 'type',
       CAST(SUM(CASE WHEN is_match AND ag_type THEN 1 ELSE 0 END) AS BIGINT),
       CAST(SUM(CASE WHEN is_match THEN 1 ELSE 0 END) AS BIGINT),
       CAST(SUM(CASE WHEN NOT is_match AND ag_type THEN 1 ELSE 0 END) AS BIGINT),
       CAST(SUM(CASE WHEN NOT is_match THEN 1 ELSE 0 END) AS BIGINT)
FROM pr
UNION ALL
SELECT 'price',
       CAST(SUM(CASE WHEN is_match AND ag_price THEN 1 ELSE 0 END) AS BIGINT),
       CAST(SUM(CASE WHEN is_match THEN 1 ELSE 0 END) AS BIGINT),
       CAST(SUM(CASE WHEN NOT is_match AND ag_price THEN 1 ELSE 0 END) AS BIGINT),
       CAST(SUM(CASE WHEN NOT is_match THEN 1 ELSE 0 END) AS BIGINT)
FROM pr
"""


def q120_score_calibration(sf_dir: str):
    """Reliability diagram of a pair scorer as a dataset op: brand-
    blocked part pairs are scored with Jaro-Winkler on names (the
    DuckDB-parity gated kernel), binned by floor(jw*10), and each bin
    reports pair count and empirical agreement rate of an independent
    signal (p_type equality) — the curve that tells a linkage operator
    where a string score is trustworthy (reference analogue: the
    scorer-vs-baseline differential of eval/EvalOnDatasets.scala:192-195
    recast as a calibration table).

    Scores are computed once per DISTINCT NAME PAIR per bucket (names
    repeat heavily; the per-pair lookup is an int gather), so the string
    DP count is O(distinct-name pairs), not O(pairs)."""

    def cal_partial(t: pa.Table) -> pa.Table:
        empty = pa.table({"bin": pa.array([], type=pa.int64()),
                          "n_pairs_p": pa.array([], type=pa.int64()),
                          "n_match_p": pa.array([], type=pa.int64())})
        if t.num_rows == 0 or "p_partkey" not in t.column_names:
            return empty
        df, (ai, bi) = _brand_pairs(t)
        if len(ai) == 0:
            return empty
        uniq, name_c = np.unique(df["p_name"].to_numpy(),
                                 return_inverse=True)
        _, type_c = np.unique(df["p_type"].to_numpy(), return_inverse=True)
        na, nb = name_c[ai], name_c[bi]
        combo = (np.minimum(na, nb).astype(np.int64) * len(uniq)
                 + np.maximum(na, nb))
        ucombo, inv = np.unique(combo, return_inverse=True)
        jw = jaro_winkler_batch([uniq[i] for i in ucombo // len(uniq)],
                                [uniq[i] for i in ucombo % len(uniq)],
                                boost_threshold=0.7)
        bins = np.floor(jw * 10).astype(np.int64)[inv]
        lab = (type_c[ai] == type_c[bi]).astype(np.int64)
        key = bins * 2 + lab
        cnt = np.bincount(key, minlength=22)
        n_all = cnt[0::2] + cnt[1::2]
        live = np.flatnonzero(n_all)
        return pa.table({"bin": pa.array(live, type=pa.int64()),
                         "n_pairs_p": pa.array(n_all[live]),
                         "n_match_p": pa.array(cnt[1::2][live])})

    parts = _t(sf_dir, "part", ["p_partkey", "p_name", "p_brand", "p_type"])
    partial = hash_exchange(parts, "p_brand", cal_partial, num_buckets=16)
    return bucketed_sum_multi(partial, ["bin"],
                              {"n_pairs_p": "n_pairs",
                               "n_match_p": "n_match"},
                              num_buckets=4)


SQL_Q120 = """
SELECT CAST(FLOOR(jaro_winkler_similarity(x.p_name, y.p_name) * 10)
            AS BIGINT) AS bin,
       CAST(COUNT(*) AS BIGINT) AS n_pairs,
       CAST(SUM(CASE WHEN x.p_type = y.p_type THEN 1 ELSE 0 END)
            AS BIGINT) AS n_match
FROM part x JOIN part y
  ON x.p_brand = y.p_brand AND x.p_partkey < y.p_partkey
GROUP BY bin
"""


# --- q128: phonetic (Soundex) blocking ---------------------------------------

# a→0 b→1 c→2 d→3 e→0 f→1 g→2 h→0 i→0 j→2 k→2 l→4 m→5 n→5 o→0 p→1
# q→2 r→6 s→2 t→3 u→0 v→1 w→0 x→2 y→0 z→2  (simplified American Soundex:
# vowels/h/w code 0 and act only as run breakers; the h/w-transparent
# refinement of archival Soundex is deliberately out of spec so both
# engines implement the IDENTICAL function)
_SOUNDEX_MAP = "01230120022455012623010202"
_SOUNDEX_TR = str.maketrans("abcdefghijklmnopqrstuvwxyz", _SOUNDEX_MAP)


def _soundex(word: str) -> str:
    """The exact function the SQL twin's translate/regexp chain computes."""
    import re

    d = word.translate(_SOUNDEX_TR)
    for c in "0123456":
        d = re.sub(f"{c}{c}+", c, d)         # per-digit run collapse
    tail = d[1:].replace("0", "")
    return word[0].upper() + (tail + "000")[:3]


def q128_soundex_blocking(sf_dir: str):
    """Phonetic blocking inventory — Soundex codes over every part-name
    word (multi-key phonetic blocking: each name token contributes a
    key), the third classic blocking-key family next to the flagship's
    MinHash-LSH bands and q117's sorted neighborhood (phonetic keys
    catch the spelling variants character-LSH misses: Robert/Rupert
    share R163).  Per code: member count, distinct head words, and the
    exact in-block pair count C(n,2) — the candidate-budget column a
    blocking-strategy comparison reads (same role as
    link_block_inventory for the LSH blocker).

    Shape: the code is a pure per-row function — encode per batch at
    the DISTINCT-WORD level (the q115 device; name words repeat
    heavily), emit O(codes) partials incl. per-batch-deduped (code,
    word) rows for the exact distinct count (the q31 co-location
    discipline), ONE skinny exchange on the code.  Scale note: Soundex
    keys are ≤ 26·7³ ≈ 9k distinct — hot codes are inherent to phonetic
    blocking and the inventory is exactly the tool that exposes them."""
    import polars as pl

    from .relational import _t

    part_schema = pa.schema([("code", pa.string()), ("n_p", pa.int64()),
                             ("word", pa.string())])

    def encode(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({f.name: pa.array([], type=f.type)
                             for f in part_schema})
        ex = (pl.DataFrame({"toks": pl.from_arrow(
                  t["p_name"].combine_chunks())
                  .str.to_lowercase().str.extract_all("[a-z]+")})
              .explode("toks", empty_as_null=True).drop_nulls("toks"))
        words = ex["toks"].to_numpy()
        uniq, inv = np.unique(words, return_inverse=True)
        codes = np.array([_soundex(u) for u in uniq])
        df = (pl.DataFrame({"code": codes[inv], "word": words})
              .group_by("code", "word")
              .agg(pl.len().cast(pl.Int64).alias("n_p")))
        return df.select("code", "n_p", "word").to_arrow().cast(part_schema)

    empty = pa.table({"code": pa.array([], type=pa.string()),
                      "n_parts": pa.array([], type=pa.int64()),
                      "n_words": pa.array([], type=pa.int64()),
                      "n_pairs": pa.array([], type=pa.int64())})

    def inventory(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "code" not in t.column_names:
            return empty
        g = (pl.from_arrow(t).group_by("code")
             .agg(pl.col("n_p").sum().alias("n_parts"),
                  pl.col("word").n_unique().cast(pl.Int64)
                    .alias("n_words"))
             .with_columns((pl.col("n_parts") * (pl.col("n_parts") - 1)
                            // 2).alias("n_pairs")))
        return g.select("code", "n_parts", "n_words", "n_pairs") \
            .to_arrow().cast(empty.schema)

    parts = _t(sf_dir, "part", ["p_name"]).map_batches(
        encode, batch_format="pyarrow")
    return hash_exchange(parts, "code", inventory, num_buckets=8)


# --- q188: NYSIIS phonetic blocking ------------------------------------------

_VOWELS = "AEIOU"


def _nysiis(word: str) -> str:
    """Standard NYSIIS code (Taft 1970), full length (no 6-char
    truncation — modern usage; the original archival spec truncates).
    Procedural multi-character rewrite rules — NOT SQL-expressible,
    which is why this family is rows-only where Soundex (q128) carries
    a translate/regexp twin."""
    w = "".join(ch for ch in word.upper() if ch.isalpha())
    if not w:
        return ""
    for pre, rep in (("MAC", "MCC"), ("KN", "NN"), ("K", "C"),
                     ("PH", "FF"), ("PF", "FF"), ("SCH", "SSS")):
        if w.startswith(pre):
            w = rep + w[len(pre):]
            break
    for suf, rep in (("EE", "Y"), ("IE", "Y"), ("DT", "D"), ("RT", "D"),
                     ("RD", "D"), ("NT", "D"), ("ND", "D")):
        if w.endswith(suf):
            w = w[:len(w) - len(suf)] + rep
            break
    key = w[0]
    prev = w[0]
    i = 1
    while i < len(w):
        ch = w[i]
        if w[i:i + 2] == "EV":
            tr, i = "AF", i + 2
        elif ch in _VOWELS:
            tr, i = "A", i + 1
        elif ch == "Q":
            tr, i = "G", i + 1
        elif ch == "Z":
            tr, i = "S", i + 1
        elif ch == "M":
            tr, i = "N", i + 1
        elif w[i:i + 2] == "KN":
            tr, i = "N", i + 2
        elif ch == "K":
            tr, i = "C", i + 1
        elif w[i:i + 3] == "SCH":
            tr, i = "SSS", i + 3
        elif w[i:i + 2] == "PH":
            tr, i = "FF", i + 2
        elif ch == "H" and (prev not in _VOWELS
                            or (i + 1 < len(w)
                                and w[i + 1] not in _VOWELS)):
            tr, i = prev, i + 1
        elif ch == "W" and prev in _VOWELS:
            tr, i = prev, i + 1
        else:
            tr, i = ch, i + 1
        for c in tr:
            if c != key[-1]:
                key += c
        prev = tr[-1] if tr else prev
    if len(key) > 1 and key.endswith("S"):
        key = key[:-1]
    if key.endswith("AY"):
        key = key[:-2] + "Y"
    if len(key) > 1 and key.endswith("A"):
        key = key[:-1]
    return key


def q188_nysiis_blocking(sf_dir: str):
    """NYSIIS phonetic blocking inventory over the part-name words —
    q128's report for the SECOND classic phonetic scheme (NYSIIS keeps
    more structure than Soundex: vowel positions collapse to A instead
    of vanishing, so blocks are finer — compare the two inventories to
    pick a phonetic blocker's recall/budget point).  Same shape as
    q128: encode at the DISTINCT-WORD level per batch, O(codes)
    partials with per-batch-deduped (code, word) rows, ONE skinny
    code-keyed exchange.  Multi-char rewrite rules are procedural → no
    SQL twin (rows-only); textbook vectors + spelling-variant collision
    pinned in pytest."""
    import polars as pl

    from .relational import _t

    part_schema = pa.schema([("code", pa.string()), ("n_p", pa.int64()),
                             ("word", pa.string())])

    def encode(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        ex = (pl.DataFrame({"toks": pl.from_arrow(
                  t["p_name"].combine_chunks())
                  .str.to_lowercase().str.extract_all("[a-z]+")})
              .explode("toks", empty_as_null=True).drop_nulls("toks"))
        words = ex["toks"].to_numpy()
        uniq, inv = np.unique(words, return_inverse=True)
        codes = np.array([_nysiis(u) for u in uniq])
        df = (pl.DataFrame({"code": codes[inv], "word": words})
              .group_by("code", "word")
              .agg(pl.len().cast(pl.Int64).alias("n_p")))
        return df.select("code", "n_p", "word").to_arrow() \
            .cast(part_schema)

    empty = pa.table({"code": pa.array([], type=pa.string()),
                      "n_parts": pa.array([], type=pa.int64()),
                      "n_words": pa.array([], type=pa.int64()),
                      "n_pairs": pa.array([], type=pa.int64())})

    def inventory(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "code" not in t.column_names:
            return empty
        g = (pl.from_arrow(t).group_by("code")
             .agg(pl.col("n_p").sum().alias("n_parts"),
                  pl.col("word").n_unique().cast(pl.Int64)
                    .alias("n_words"))
             .with_columns((pl.col("n_parts") * (pl.col("n_parts") - 1)
                            // 2).alias("n_pairs")))
        return g.select("code", "n_parts", "n_words", "n_pairs") \
            .to_arrow().cast(empty.schema)

    parts = _t(sf_dir, "part", ["p_name"]).map_batches(
        encode, batch_format="pyarrow")
    return hash_exchange(parts, "code", inventory, num_buckets=8)


_SOUNDEX_SQL_CODE = (
    "upper(substr(w, 1, 1)) || substr(replace(substr("
    "regexp_replace(regexp_replace(regexp_replace(regexp_replace("
    "regexp_replace(regexp_replace(regexp_replace("
    "translate(w, 'abcdefghijklmnopqrstuvwxyz', '" + _SOUNDEX_MAP + "'), "
    "'00+', '0', 'g'), '11+', '1', 'g'), '22+', '2', 'g'), "
    "'33+', '3', 'g'), '44+', '4', 'g'), '55+', '5', 'g'), "
    "'66+', '6', 'g'), 2), '0', '') || '000', 1, 3)"
)

SQL_Q128 = f"""
WITH h AS (
  SELECT unnest(regexp_extract_all(lower(p_name), '[a-z]+')) AS w FROM part
),
c AS (SELECT {_SOUNDEX_SQL_CODE} AS code, w FROM h)
SELECT code,
       CAST(count(*) AS BIGINT) AS n_parts,
       CAST(count(DISTINCT w) AS BIGINT) AS n_words,
       CAST(count(*) * (count(*) - 1) // 2 AS BIGINT) AS n_pairs
FROM c GROUP BY code
"""


# --- q127: precision/recall curve over score thresholds ----------------------


def q127_pr_curve(sf_dir: str):
    """Threshold-selection curve for the pair scorer: cumulative
    precision and recall of the type-agreement signal at every
    similarity-decile threshold — q120's reliability bins accumulated
    from the top, i.e. "if we auto-match at jw >= t/10, what P/R do we
    get" for each t.  The operating-point report every linkage
    deployment reads before fixing its match threshold (and the
    uncertain band q122 reviews is exactly the region where this curve
    says neither P nor R is acceptable alone).

    Shape: all pair work happens inside q120's exchange; this adds an
    O(bins) driver fold — cumulative sums over ≤ 11 exact-integer rows —
    so the curve costs nothing beyond the calibration table it reads."""
    bins: dict[int, tuple[int, int]] = {}
    for t in q120_score_calibration(sf_dir).iter_batches(
            batch_format="pyarrow"):
        for b, n, m in zip(t["bin"].to_pylist(), t["n_pairs"].to_pylist(),
                           t["n_match"].to_pylist()):
            p, q = bins.get(b, (0, 0))
            bins[b] = (p + n, q + m)
    total_match = sum(m for _, m in bins.values())
    out = []
    cum_n = cum_m = 0
    for b in sorted(bins, reverse=True):
        n, m = bins[b]
        cum_n += n
        cum_m += m
        p_e6 = cum_m * 1_000_000 // cum_n if cum_n else 0
        r_e6 = cum_m * 1_000_000 // total_match if total_match else 0
        out.append((b, cum_n, cum_m, p_e6, r_e6))
    out.sort()
    return pa.table({
        "thr_bin": pa.array([r[0] for r in out], type=pa.int64()),
        "cum_pairs": pa.array([r[1] for r in out], type=pa.int64()),
        "cum_match": pa.array([r[2] for r in out], type=pa.int64()),
        "precision_e6": pa.array([r[3] for r in out], type=pa.int64()),
        "recall_e6": pa.array([r[4] for r in out], type=pa.int64()),
    })


def _sql_q127() -> str:
    return f"""
WITH cal AS ({SQL_Q120}),
cum AS (
  SELECT bin AS thr_bin,
         SUM(n_pairs) OVER (ORDER BY bin DESC) AS cum_pairs,
         SUM(n_match) OVER (ORDER BY bin DESC) AS cum_match,
         (SELECT SUM(n_match) FROM cal) AS total_match
  FROM cal
)
SELECT thr_bin,
       CAST(cum_pairs AS BIGINT) AS cum_pairs,
       CAST(cum_match AS BIGINT) AS cum_match,
       CAST(CASE WHEN cum_pairs = 0 THEN 0
            ELSE cum_match * 1000000 // cum_pairs END AS BIGINT)
           AS precision_e6,
       CAST(CASE WHEN total_match = 0 THEN 0
            ELSE cum_match * 1000000 // total_match END AS BIGINT)
           AS recall_e6
FROM cum
"""


# --- q122: clerical-review queue ---------------------------------------------

REVIEW_LO = 8600      # uncertain band (e4): q115's floor …
REVIEW_HI = 9300      # … up to where pairs are confidently matches
REVIEW_K = 200        # review budget (pairs a human will look at)


def q122_review_queue(sf_dir: str):
    """Clerical-review sampling — the workflow step between pair
    classification and evaluation in the classic record-linkage pipeline
    (Christen 2012: blocking → comparison → classification → CLERICAL
    REVIEW → evaluation) that every production linkage system staffs:
    pairs whose similarity lands in the uncertain band
    [8600, 9300) e4 are routed to a bounded review queue,
    selected by a DETERMINISTIC md5 lottery (the q54/q59 device) so the
    queue is reproducible under any re-partitioning and re-run.

    Shape: q115's blocked scorer streams; the band filter + priority
    hash run per batch (the overwhelming majority of pairs die here);
    only the tiny banded set reaches the final sort+limit — the sort is
    O(review candidates), never O(pairs).  Reference analogue: the
    reference has no review step (its gold labels are given); this is
    the operator a user linking UNLABELED corpora needs first."""
    import polars as pl

    from .textops import _md5_cached, q115_jaro_winkler_pairs

    def band(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"a": pa.array([], type=pa.int64()),
                             "b": pa.array([], type=pa.int64()),
                             "jw_e4": pa.array([], type=pa.int64()),
                             "priority": pa.array([], type=pa.int64())})
        df = pl.from_arrow(t).filter(
            (pl.col("jw_e4") >= REVIEW_LO) & (pl.col("jw_e4") < REVIEW_HI))
        a = df["a"].to_numpy()
        b = df["b"].to_numpy()
        pri = (_md5_cached({}, [f"{x}:{y}" for x, y in zip(a, b)])
               % np.uint64(1_000_000_000)).astype(np.int64)
        return pa.table({"a": pa.array(a, type=pa.int64()),
                         "b": pa.array(b, type=pa.int64()),
                         "jw_e4": df["jw_e4"].to_arrow(),
                         "priority": pa.array(pri, type=pa.int64())})

    banded = q115_jaro_winkler_pairs(sf_dir).map_batches(
        band, batch_format="pyarrow")
    return banded.sort(["priority", "a", "b"]).limit(REVIEW_K)


def _sql_q122() -> str:
    from .textops import SQL_Q115
    return f"""
WITH s AS ({SQL_Q115})
SELECT a, b, jw_e4,
       CAST(md5_number_lower(CAST(a AS VARCHAR) || ':' || CAST(b AS VARCHAR))
            % 1000000000 AS BIGINT) AS priority
FROM s
WHERE jw_e4 >= {REVIEW_LO} AND jw_e4 < {REVIEW_HI}
ORDER BY priority, a, b
LIMIT {REVIEW_K}
"""


# --- q191/q192: crowd-adjudication fold-back --------------------------------

CROWD_WORKERS = 40    # synthetic worker pool size
CROWD_MAX_ANS = 5     # a question draws 2..5 answers (md5 lottery)
MIN_VOTES = 3         # reference: numAnswers >= 3 gate
                      # (eval/aturk/InterpretAmazonTurkResults.scala:148)

_CROWD_SCHEMA = pa.schema([
    ("a", pa.int64()), ("b", pa.int64()), ("worker_id", pa.int64()),
    ("answer", pa.string()), ("work_time", pa.int64()),
    ("empty_other", pa.int64()),
])


def _crowd_answers(sf_dir: str) -> ray.data.Dataset:
    """Deterministic multi-annotator answer table over q122's review
    queue — the recast of the reference's AMT batch-results CSV
    (eval/aturk/InterpretAmazonTurkResults.scala header block): per
    queued pair, an md5 lottery draws 2..5 answers, each with a worker
    id, an answer category (argmax/loopy/google/other + the two planted
    spam categories the reference's worker screen counts), a work time,
    and the chose-other-but-left-it-empty flag.  Everything is a pure
    md5 function of the (a, b) question key, so the SQL twin synthesizes
    the identical table.  The queue is bounded by REVIEW_K, so the
    per-row Python md5 loop (the one loop the oracle twins keep,
    textops._md5_cached) is O(review budget × 5), never O(pairs)."""
    from .textops import _md5_cached

    cache: dict = {}

    def synth(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "a" not in t.column_names:
            return _CROWD_SCHEMA.empty_table()
        a = np.asarray(t["a"], dtype=np.int64)
        b = np.asarray(t["b"], dtype=np.int64)
        qid = [f"{x}:{y}" for x, y in zip(a, b)]
        na = (2 + _md5_cached(cache, [q + "#na" for q in qid])
              % np.uint64(CROWD_MAX_ANS - 1)).astype(np.int64)
        idx = np.repeat(np.arange(len(a), dtype=np.int64), na)
        ends = np.cumsum(na)
        i_in = np.arange(len(idx), dtype=np.int64) - \
            np.repeat(ends - na, na)
        wk = (_md5_cached(cache, [f"{qid[j]}#w{i}"
                                  for j, i in zip(idx, i_in)])
              % np.uint64(CROWD_WORKERS)).astype(np.int64)
        r = (_md5_cached(cache, [f"{qid[j]}#a{i}"
                                 for j, i in zip(idx, i_in)])
             % np.uint64(100)).astype(np.int64)
        wt = (10 + _md5_cached(cache, [f"{qid[j]}#t{i}"
                                       for j, i in zip(idx, i_in)])
              % np.uint64(120)).astype(np.int64)
        oe = (_md5_cached(cache, [f"{qid[j]}#o{i}"
                                  for j, i in zip(idx, i_in)])
              % np.uint64(2)).astype(np.int64)
        cats = np.array(["argmax", "loopy", "google", "other",
                         "spam_random", "spam_candidates"], dtype=object)
        cut = np.array([40, 65, 85, 93, 97, 100], dtype=np.int64)
        answer = cats[np.searchsorted(cut, r, side="right")]
        empty_other = ((answer == "other") & (oe == 0)).astype(np.int64)
        return pa.table({
            "a": pa.array(a[idx]), "b": pa.array(b[idx]),
            "worker_id": pa.array(wk),
            "answer": pa.array(answer, type=pa.string()),
            "work_time": pa.array(wt),
            "empty_other": pa.array(empty_other),
        })

    return q122_review_queue(sf_dir).map_batches(
        synth, batch_format="pyarrow")


_Q191_OUT = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                       ("n_answers", pa.int64()),
                       ("resolution", pa.string())])


def q191_crowd_adjudication(sf_dir: str):
    """Crowd-adjudication fold-back: majority-vote resolution of the
    q122 review queue (reference ``isTheBestBy``,
    eval/aturk/InterpretAmazonTurkResults.scala:95-175 / 198-210): a
    question with ≥3 answers resolves to the answer category holding a
    STRICT plurality over every other category (any rival count ≥ the
    top blocks it — the diff=0 rule); a strict-max spam category
    resolves to 'spam' (the planted-screen answers can't win a label),
    no strict max → 'tie', <3 answers → 'unresolved'.

    Shape: the synthesized answers stream through ONE bucketed exchange
    on the question's left key (a question's answers share ``a``, so
    they co-locate), then a vectorized polars fold computes per-question
    finals — O(review budget) rows end-to-end."""
    import polars as pl

    ans = _crowd_answers(sf_dir)

    def fold(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "a" not in t.column_names:
            return _Q191_OUT.empty_table()
        df = pl.from_arrow(t)
        cnt = df.group_by(["a", "b", "answer"]).len().rename({"len": "c"})
        tot = df.group_by(["a", "b"]).agg(
            pl.len().cast(pl.Int64).alias("n_answers"))
        mx = cnt.group_by(["a", "b"]).agg(pl.col("c").max().alias("mxc"))
        top = (cnt.join(mx, on=["a", "b"])
               .filter(pl.col("c") == pl.col("mxc"))
               .group_by(["a", "b"])
               .agg(pl.len().alias("n_at_max"),
                    pl.col("answer").max().alias("top_answer")))
        res = tot.join(top, on=["a", "b"]).with_columns(
            pl.when(pl.col("n_answers") < MIN_VOTES)
            .then(pl.lit("unresolved"))
            .when(pl.col("n_at_max") > 1).then(pl.lit("tie"))
            .when(pl.col("top_answer").str.starts_with("spam"))
            .then(pl.lit("spam"))
            .otherwise(pl.col("top_answer")).alias("resolution"))
        return res.select(["a", "b", "n_answers", "resolution"]) \
            .to_arrow().cast(_Q191_OUT)

    return hash_exchange(ans, "a", fold, num_buckets=16) \
        .sort(["a", "b"])


_Q192_OUT = pa.schema([("worker_id", pa.int64()),
                       ("n_answers", pa.int64()),
                       ("avg_time_s", pa.int64()),
                       ("n_spam_random", pa.int64()),
                       ("n_spam_candidates", pa.int64()),
                       ("n_empty_other", pa.int64())])


def q192_worker_stats(sf_dir: str):
    """Per-worker quality screen over the crowd answers (reference
    worker-stats loop, eval/aturk/InterpretAmazonTurkResults.scala:
    95-125): answers given, truncated average work time (the
    reference's ``.intValue()``), planted-spam hit counts, and
    chose-other-but-empty count — the inputs of its reject/republish
    decision.  ONE bucketed exchange on worker_id, vectorized fold."""
    import polars as pl

    ans = _crowd_answers(sf_dir)

    def fold(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "worker_id" not in t.column_names:
            return _Q192_OUT.empty_table()
        df = pl.from_arrow(t)
        out = df.group_by("worker_id").agg(
            pl.len().cast(pl.Int64).alias("n_answers"),
            (pl.col("work_time").sum() // pl.len())
            .cast(pl.Int64).alias("avg_time_s"),
            (pl.col("answer") == "spam_random").sum()
            .cast(pl.Int64).alias("n_spam_random"),
            (pl.col("answer") == "spam_candidates").sum()
            .cast(pl.Int64).alias("n_spam_candidates"),
            pl.col("empty_other").sum().cast(pl.Int64)
            .alias("n_empty_other"))
        return out.to_arrow().cast(_Q192_OUT)

    return hash_exchange(ans, "worker_id", fold, num_buckets=16) \
        .sort("worker_id")


_Q194_OUT = pa.schema([("resolution", pa.string()),
                       ("n_questions", pa.int64())])


def q194_vote_summary(sf_dir: str):
    """The reference's printed majority-vote summary ("Majority vote
    for loopy: N questions", eval/aturk/InterpretAmazonTurkResults.
    scala:178-193): per resolution category, how many review questions
    landed there — the one-screen system-comparison readout of the
    whole adjudication loop.  A ≤7-row fold over q191's per-question
    output (itself one bounded exchange)."""
    import pyarrow.compute as pc

    res = q191_crowd_adjudication(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "resolution" not in t.column_names:
            return _Q194_OUT.empty_table()
        vc = pc.value_counts(t["resolution"])
        return pa.table({
            "resolution": vc.field("values").cast(pa.string()),
            "n_questions": vc.field("counts").cast(pa.int64()),
        })

    from ..functions.grouping import bucketed_sum

    return bucketed_sum(res.map_batches(partial, batch_format="pyarrow"),
                        ["resolution"], "n_questions", "n_questions",
                        num_buckets=2) \
        .sort("resolution")


def _sql_q194() -> str:
    return f"""
WITH rsv AS ({_sql_q191()})
SELECT resolution, CAST(COUNT(*) AS BIGINT) AS n_questions
FROM rsv GROUP BY resolution ORDER BY resolution
"""


_Q195_OUT = pa.schema([("n_answers", pa.int64()),
                       ("n_questions", pa.int64())])


def q195_answers_histogram(sf_dir: str):
    """The reference's answers-per-question histogram ("k workers per
    question: v questions", eval/aturk/InterpretAmazonTurkResults.
    scala:127-139) — the coverage readout that decides whether the HIT
    batch needs republishing.  Per-batch value-counts over q191's
    per-question n_answers → ONE ≤|levels|-row keyed sum."""
    import pyarrow.compute as pc

    res = q191_crowd_adjudication(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "n_answers" not in t.column_names:
            return _Q195_OUT.empty_table()
        vc = pc.value_counts(t["n_answers"])
        return pa.table({
            "n_answers": vc.field("values").cast(pa.int64()),
            "n_questions": vc.field("counts").cast(pa.int64()),
        })

    from ..functions.grouping import bucketed_sum

    return bucketed_sum(res.map_batches(partial, batch_format="pyarrow"),
                        ["n_answers"], "n_questions", "n_questions",
                        num_buckets=2) \
        .sort("n_answers")


def _sql_q195() -> str:
    return f"""
WITH rsv AS ({_sql_q191()})
SELECT n_answers, CAST(COUNT(*) AS BIGINT) AS n_questions
FROM rsv GROUP BY n_answers ORDER BY n_answers
"""


_Q193_OUT = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                       ("worker_id", pa.int64()),
                       ("reason", pa.string())])


def q193_reject_republish(sf_dir: str):
    """Reject-and-republish list — the third behavior of the reference's
    AMT interpreter (``republishEmptyOtherAssignments``,
    eval/aturk/InterpretAmazonTurkResults.scala:33-60): every assignment
    whose answer chose 'other' but left the Other text box empty is
    rejected (with the reason string) and its question goes back to the
    queue.  Pure per-batch filter over the synthesized answers — no
    exchange at all; O(review budget × 5) rows in, O(rejects) out."""
    REASON = "empty-other"

    def flag(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "empty_other" not in t.column_names:
            return _Q193_OUT.empty_table()
        import pyarrow.compute as pc

        kept = t.filter(pc.equal(t["empty_other"], 1))
        return pa.table({
            "a": kept["a"], "b": kept["b"],
            "worker_id": kept["worker_id"],
            "reason": pa.array([REASON] * kept.num_rows,
                               type=pa.string()),
        })

    return _crowd_answers(sf_dir).map_batches(
        flag, batch_format="pyarrow").sort(["a", "b", "worker_id"])


def _sql_q193() -> str:
    return f"""
WITH qq AS ({_sql_q122()}),
ansx AS ({_sql_crowd_answers()})
SELECT a, b, worker_id, 'empty-other' AS reason
FROM ansx WHERE empty_other = 1
ORDER BY a, b, worker_id
"""


def _sql_crowd_answers() -> str:
    """SQL twin of ``_crowd_answers``: the identical md5 lottery over
    the q122 queue, expanded with a range(5) cross join."""
    return f"""
SELECT q.a, q.b,
       CAST(md5_number_lower(CAST(q.a AS VARCHAR) || ':' ||
            CAST(q.b AS VARCHAR) || '#w' || CAST(t.i AS VARCHAR))
            % {CROWD_WORKERS} AS BIGINT) AS worker_id,
       CASE WHEN r < 40 THEN 'argmax' WHEN r < 65 THEN 'loopy'
            WHEN r < 85 THEN 'google' WHEN r < 93 THEN 'other'
            WHEN r < 97 THEN 'spam_random'
            ELSE 'spam_candidates' END AS answer,
       CAST(10 + md5_number_lower(CAST(q.a AS VARCHAR) || ':' ||
            CAST(q.b AS VARCHAR) || '#t' || CAST(t.i AS VARCHAR))
            % 120 AS BIGINT) AS work_time,
       CAST(CASE WHEN r >= 85 AND r < 93 AND
            md5_number_lower(CAST(q.a AS VARCHAR) || ':' ||
                CAST(q.b AS VARCHAR) || '#o' || CAST(t.i AS VARCHAR))
            % 2 = 0 THEN 1 ELSE 0 END AS BIGINT) AS empty_other
FROM qq q, range({CROWD_MAX_ANS}) t(i),
     LATERAL (SELECT CAST(md5_number_lower(CAST(q.a AS VARCHAR) || ':'
              || CAST(q.b AS VARCHAR) || '#a' || CAST(t.i AS VARCHAR))
              % 100 AS BIGINT) AS r) x
WHERE t.i < 2 + md5_number_lower(CAST(q.a AS VARCHAR) || ':' ||
      CAST(q.b AS VARCHAR) || '#na') % {CROWD_MAX_ANS - 1}
"""


def _sql_q191() -> str:
    return f"""
WITH qq AS ({_sql_q122()}),
ansx AS ({_sql_crowd_answers()}),
cnt AS (SELECT a, b, answer, CAST(COUNT(*) AS BIGINT) AS c
        FROM ansx GROUP BY a, b, answer),
tot AS (SELECT a, b, CAST(COUNT(*) AS BIGINT) AS n_answers
        FROM ansx GROUP BY a, b),
mx AS (SELECT a, b, MAX(c) AS mxc FROM cnt GROUP BY a, b),
top AS (SELECT c2.a, c2.b, COUNT(*) AS n_at_max,
               MAX(c2.answer) AS top_answer
        FROM cnt c2 JOIN mx ON c2.a = mx.a AND c2.b = mx.b
        WHERE c2.c = mx.mxc GROUP BY c2.a, c2.b)
SELECT t.a, t.b, t.n_answers,
       CASE WHEN t.n_answers < {MIN_VOTES} THEN 'unresolved'
            WHEN w.n_at_max > 1 THEN 'tie'
            WHEN w.top_answer LIKE 'spam%' THEN 'spam'
            ELSE w.top_answer END AS resolution
FROM tot t JOIN top w ON t.a = w.a AND t.b = w.b
ORDER BY t.a, t.b
"""


def _sql_q192() -> str:
    return f"""
WITH qq AS ({_sql_q122()}),
ansx AS ({_sql_crowd_answers()})
SELECT worker_id,
       CAST(COUNT(*) AS BIGINT) AS n_answers,
       CAST(CAST(SUM(work_time) AS BIGINT) // COUNT(*) AS BIGINT)
           AS avg_time_s,
       CAST(COUNT(*) FILTER (WHERE answer = 'spam_random') AS BIGINT)
           AS n_spam_random,
       CAST(COUNT(*) FILTER (WHERE answer = 'spam_candidates') AS BIGINT)
           AS n_spam_candidates,
       CAST(SUM(empty_other) AS BIGINT) AS n_empty_other
FROM ansx GROUP BY worker_id ORDER BY worker_id
"""


# --- q130: deterministic canopy assignment over the near-dup graph ----------

CANOPY_PRI_MOD = 1_000_000_000


def q130_canopy(sf_dir: str):
    """Canopy construction (McCallum/Nigam/Ungar 2000) over the document
    near-dup graph, recast for a shared-nothing engine: the classic
    algorithm's GREEDY sequential center draw is replaced by a
    deterministic one-hop leader rule — a node is a canopy center iff it
    holds the minimum (md5-priority, id) in its cheap-similarity
    neighborhood (the local-minimum device of MapReduce correlation/
    affinity clustering) — so center selection is a single co-location
    pass with no sequential dependency and identical output under any
    partitioning.  Cheap similarity = q12's stop-shingle-guarded n-gram
    Jaccard join.  Assignment keeps canopy semantics: every node joins
    the canopy of EVERY adjacent center (canopies overlap, unlike the
    partitional q58 clusters), adjacent centers cannot coexist (the
    minimum rule is antisymmetric), and a node with no adjacent center —
    centers themselves, orphans, and isolated docs — opens its own
    singleton canopy, preserving the classic invariant that every record
    lands in ≥ 1 canopy.

    Shape: q12's candidate pairs (all pair work bounded by its stop-
    shingle cap) → ONE exchange on the node key for the local-minimum
    flags (priorities are pure per-id hashes, computed in-bucket, never
    shipped) → one semi join (sym edges ⋉ centers) + one anti join
    (docs ∖ assigned) — each a skinny-key bucketed exchange.  md5 is the
    oracle-parity hash (CLAUDE.md discipline); a production run would
    swap xxhash into the same rule.

    Reference analogue: candidate-generation before scoring
    (index/MentEntsFreqIndexWrapper.scala:30-40) — canopies are the
    classic cheap-distance alternative to its exact-key candidate sets.
    """
    import polars as pl

    from ..functions.grouping import hash_join
    from .textops import _md5_cached, q12_ngram_jaccard_pairs

    sym_schema = pa.schema([("doc_id", pa.int64()), ("m", pa.int64())])

    def sym(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({f.name: pa.array([], type=f.type)
                             for f in sym_schema})
        a = np.asarray(t["doc_a"], dtype=np.int64)
        b = np.asarray(t["doc_b"], dtype=np.int64)
        return pa.table({"doc_id": pa.array(np.concatenate([a, b])),
                         "m": pa.array(np.concatenate([b, a]))})

    def center_flags(t: pa.Table) -> pa.Table:
        """Per node: is its packed (pri, id) below every neighbor's?"""
        empty = pa.table({"m": pa.array([], type=pa.int64())})
        if t.num_rows == 0 or "doc_id" not in t.column_names:
            return empty
        n_ids = np.asarray(t["doc_id"], dtype=np.int64)
        m_ids = np.asarray(t["m"], dtype=np.int64)
        uniq = np.unique(np.concatenate([n_ids, m_ids]))
        pri = (_md5_cached({}, [str(x) for x in uniq])
               % np.uint64(CANOPY_PRI_MOD)).astype(np.int64)
        packed = pri * (1 << 32) + uniq        # lexicographic (pri, id)
        pk_n = packed[np.searchsorted(uniq, n_ids)]
        pk_m = packed[np.searchsorted(uniq, m_ids)]
        o = np.argsort(n_ids, kind="stable")
        ns, pkn, pkm = n_ids[o], pk_n[o], pk_m[o]
        starts = np.flatnonzero(np.r_[True, ns[1:] != ns[:-1]])
        min_nbr = np.minimum.reduceat(pkm, starts)
        is_center = pkn[starts] < min_nbr
        return pa.table({"m": pa.array(ns[starts][is_center])})

    pairs = q12_ngram_jaccard_pairs(sf_dir)
    edges = pairs.map_batches(sym, batch_format="pyarrow")
    centers = hash_exchange(edges, "doc_id", center_flags, num_buckets=8)
    # (node, center-neighbor) assignments: edges whose far end is a center
    asg = hash_join(edges, centers, on="m", how="semi", num_buckets=8)

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id"])
    loners = hash_join(docs, asg, on="doc_id", how="anti", num_buckets=8)

    def as_canopy(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].cast(pa.int64())
        return pa.table({"doc_id": ids, "canopy": ids})

    def project(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "doc_id" not in t.column_names:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "canopy": pa.array([], type=pa.int64())})
        return pa.table({"doc_id": t["doc_id"].cast(pa.int64()),
                         "canopy": t["m"].cast(pa.int64())})

    return (asg.map_batches(project, batch_format="pyarrow")
            .union(loners.map_batches(as_canopy, batch_format="pyarrow")))


def _sql_q130() -> str:
    from .textops import SQL_Q12

    return f"""
WITH pairs AS ({SQL_Q12}),
sym AS (SELECT doc_a AS n, doc_b AS m FROM pairs
        UNION ALL SELECT doc_b, doc_a FROM pairs),
pri AS (SELECT doc_id,
               CAST(md5_number_lower(CAST(doc_id AS VARCHAR))
                    % {CANOPY_PRI_MOD} AS BIGINT) * 4294967296 + doc_id
                 AS pk
        FROM documents),
centers AS (
  SELECT pn.doc_id
  FROM pri pn
  WHERE NOT EXISTS (
    SELECT 1 FROM sym s JOIN pri pm ON pm.doc_id = s.m
    WHERE s.n = pn.doc_id AND pm.pk < pn.pk)
),
asg AS (SELECT s.n AS doc_id, s.m AS canopy
        FROM sym s WHERE s.m IN (SELECT doc_id FROM centers))
SELECT doc_id, canopy FROM asg
UNION ALL
SELECT d.doc_id, d.doc_id FROM documents d
WHERE d.doc_id NOT IN (SELECT doc_id FROM asg)
"""


# --- q131: Monge-Elkan token-level similarity scoring ------------------------

ME_MIN_E4 = 8000       # symmetric Monge-Elkan >= 0.80 (e4 fixed point)


def q131_monge_elkan(sf_dir: str):
    """Symmetric Monge-Elkan scoring over brand-blocked part pairs — the
    hybrid token/character measure the ER literature reaches for when
    fields are multi-word and word ORDER is unreliable (q115's whole-
    string Jaro-Winkler punishes token swaps; ME does not): for each
    pair, every token of one side takes its best Jaro-Winkler match on
    the other, directional means are averaged, all in exact e4 integer
    arithmetic (token jw_e4 = FLOOR(jw·10⁴ + ½); per-direction mean and
    the final average use integer division, mirrored token-for-token in
    the SQL twin — the q93/q95 fixed-point discipline).

    Shape: ONE brand exchange; in-bucket work collapses twice — pairs
    dedup to DISTINCT NAME pairs (the q115 device), then their token
    cross-products dedup to DISTINCT TOKEN pairs before the string DP
    runs (Zipfian token frequencies make this the difference between
    O(pairs·k²) and O(distinct-token-pairs) DP calls at corpus scale);
    per-pair reductions are shape-batched numpy (pairs grouped by token-
    count signature, max/sum over dense [m,la,lb] blocks, no per-pair
    Python).  Reference analogue: the per-candidate string scoring
    inside the fuzzy matcher family
    (index/MentionEntitiesFrequencyIndex.scala:82-119)."""
    import polars as pl

    from ..functions.similarity import jaro_winkler_batch

    empty = pa.table({"a": pa.array([], type=pa.int64()),
                      "b": pa.array([], type=pa.int64()),
                      "me_e4": pa.array([], type=pa.int64())})

    def me_pairs(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "p_partkey" not in t.column_names:
            return empty
        df, (ai, bi) = _brand_pairs(t)
        if len(ai) == 0:
            return empty
        ids = df["p_partkey"].to_numpy()
        uniq, name_c = np.unique(df["p_name"].to_numpy(), return_inverse=True)
        U = len(uniq)
        na_c, nb_c = name_c[ai], name_c[bi]
        combo = (np.minimum(na_c, nb_c).astype(np.int64) * U
                 + np.maximum(na_c, nb_c))           # ME is symmetric
        ucombo, inv = np.unique(combo, return_inverse=True)
        ca, cb = ucombo // U, ucombo % U

        tid_lists = [np.unique(n.split(" ")) for n in uniq]
        all_toks = np.unique(np.concatenate(tid_lists)) if U else \
            np.empty(0, dtype=object)
        T = len(all_toks)
        maxlen = max(len(tl) for tl in tid_lists)
        M = np.zeros((U, maxlen), dtype=np.int64)
        lens = np.empty(U, dtype=np.int64)
        for i, tl in enumerate(tid_lists):
            lens[i] = len(tl)
            M[i, :len(tl)] = np.searchsorted(all_toks, tl)
        la, lb = lens[ca], lens[cb]

        # pass 1: collect every needed token-id pair across shape groups
        shapes = np.unique(la * (maxlen + 1) + lb)
        crosses = []
        for sh in shapes:
            A, B = int(sh) // (maxlen + 1), int(sh) % (maxlen + 1)
            sel = (la == A) & (lb == B)
            TA, TB = M[ca[sel], :A], M[cb[sel], :B]
            crosses.append((sel, A, B,
                            (TA[:, :, None] * T + TB[:, None, :]).ravel()))
        ucp = np.unique(np.concatenate([c[3] for c in crosses]))
        jw = jaro_winkler_batch(list(all_toks[ucp // T]),
                                list(all_toks[ucp % T]),
                                boost_threshold=0.7)
        jw_e4 = np.floor(jw * 10000 + 0.5).astype(np.int64)

        # pass 2: per distinct name pair, directional means -> symmetric me
        scores = np.empty(len(ucombo), dtype=np.int64)
        for sel, A, B, flat in crosses:
            g = jw_e4[np.searchsorted(ucp, flat)].reshape(-1, A, B)
            s_ab = g.max(axis=2).sum(axis=1)   # each a-token's best match
            s_ba = g.max(axis=1).sum(axis=1)
            scores[sel] = (s_ab // A + s_ba // B) // 2
        me = scores[inv]
        keep = me >= ME_MIN_E4
        return pa.table({"a": pa.array(ids[ai[keep]], type=pa.int64()),
                         "b": pa.array(ids[bi[keep]], type=pa.int64()),
                         "me_e4": pa.array(me[keep])})

    parts = _t(sf_dir, "part", ["p_partkey", "p_name", "p_brand"])
    return hash_exchange(parts, "p_brand", me_pairs, num_buckets=16)


SQL_Q131 = f"""
WITH tok AS (
  SELECT p_partkey, unnest(list_distinct(string_split(p_name, ' '))) AS t
  FROM part
),
pr AS (
  SELECT x.p_partkey AS a, y.p_partkey AS b
  FROM part x JOIN part y
    ON x.p_brand = y.p_brand AND x.p_partkey < y.p_partkey
),
m_ab AS (
  SELECT pr.a, pr.b, ta.t,
         MAX(CAST(FLOOR(jaro_winkler_similarity(ta.t, tb.t) * 10000 + 0.5)
                  AS BIGINT)) AS m
  FROM pr JOIN tok ta ON ta.p_partkey = pr.a
          JOIN tok tb ON tb.p_partkey = pr.b
  GROUP BY pr.a, pr.b, ta.t
),
s_ab AS (SELECT a, b, SUM(m) AS s, COUNT(*) AS n FROM m_ab GROUP BY a, b),
m_ba AS (
  SELECT pr.a, pr.b, tb.t,
         MAX(CAST(FLOOR(jaro_winkler_similarity(tb.t, ta.t) * 10000 + 0.5)
                  AS BIGINT)) AS m
  FROM pr JOIN tok ta ON ta.p_partkey = pr.a
          JOIN tok tb ON tb.p_partkey = pr.b
  GROUP BY pr.a, pr.b, tb.t
),
s_ba AS (SELECT a, b, SUM(m) AS s, COUNT(*) AS n FROM m_ba GROUP BY a, b),
me AS (
  SELECT s_ab.a, s_ab.b,
         (s_ab.s // s_ab.n + s_ba.s // s_ba.n) // 2 AS me_e4
  FROM s_ab JOIN s_ba ON s_ab.a = s_ba.a AND s_ab.b = s_ba.b
)
SELECT a, b, CAST(me_e4 AS BIGINT) AS me_e4 FROM me
WHERE me_e4 >= {ME_MIN_E4}
"""


# --- q138: one-to-one match assignment (locally-dominant matching) ----------

MBM_ROUNDS = 3          # fixed mutual-best rounds → CTE-chain oracle twin
MBM_OFF = 1 << 32       # packed undirected pair key (ids < 2^31)


def q138_one_to_one_match(sf_dir: str):
    """One-to-one match assignment over the q115 Jaro-Winkler scored
    pairs — the record-linkage ASSIGNMENT step (each record may match
    at most one other record; the classic post-scoring constraint of
    Fellegi-Sunter deployments).  The sequential greedy
    sort-and-assign is replaced by MBM_ROUNDS rounds of the
    locally-dominant-edge rule (Preis 1999 / Manne-Bisseling): a pair
    is accepted iff it is the BEST pair (score desc, partner-id asc)
    for BOTH endpoints; accepted endpoints leave the pool and the rule
    repeats.  Every accepted edge is locally dominant, so the result
    is a matching the sequential greedy would also accept — computed
    with no sequential dependency and identical under any
    partitioning; bounded rounds keep it oracle-pairable (production
    loops until no pair is accepted — each round is the same two
    skinny exchanges).

    Shape per round: ONE fused ``rekey_exchange`` — co-locate by
    endpoint (per-node argmax = one lexsort, no Python per node), the
    same task re-splits the O(nodes) best-choice rows by the packed
    undirected pair key in-heap, and the pair-side fn keeps the keys
    appearing twice (both endpoints chose the pair ⟺ mutual);
    matched endpoints retire via two ANTI hash_joins that ship only
    the O(matched) key column.

    Reference analogue: the per-mention argmax entity assignment
    (SURVEY §2 M13) hardened to the bipartite-constraint case the
    reference never needs (its mentions pick entities independently;
    record linkage must not let two records claim the same partner)."""
    from ..functions.grouping import hash_join, rekey_exchange
    from .textops import q115_jaro_winkler_pairs

    pairs = q115_jaro_winkler_pairs(sf_dir).materialize()

    def best_per_node(t: pa.Table) -> pa.Table:
        empty = pa.table({"pk": pa.array([], type=pa.int64()),
                          "jw_e4": pa.array([], type=pa.int64())})
        if t.num_rows == 0 or "n" not in t.column_names:
            return empty
        n = np.asarray(t["n"], dtype=np.int64)
        p = np.asarray(t["p"], dtype=np.int64)
        jw = np.asarray(t["jw_e4"], dtype=np.int64)
        order = np.lexsort((p, -jw, n))
        ns = n[order]
        starts = np.flatnonzero(np.r_[True, ns[1:] != ns[:-1]])
        bn, bp = ns[starts], p[order][starts]
        lo, hi = np.minimum(bn, bp), np.maximum(bn, bp)
        return pa.table({"pk": pa.array(lo * MBM_OFF + hi),
                         "jw_e4": pa.array(jw[order][starts])})

    def mutual(t: pa.Table) -> pa.Table:
        """A pk holds ≤ 2 best-choice rows (one per endpoint); exactly
        2 ⟺ the choice was mutual."""
        empty = pa.table({"a": pa.array([], type=pa.int64()),
                          "b": pa.array([], type=pa.int64()),
                          "jw_e4": pa.array([], type=pa.int64())})
        if t.num_rows == 0 or "pk" not in t.column_names:
            return empty
        pk = np.sort(np.asarray(t["pk"], dtype=np.int64))
        jw = np.asarray(t["jw_e4"], dtype=np.int64)[
            np.argsort(np.asarray(t["pk"], dtype=np.int64), kind="stable")]
        starts = np.flatnonzero(np.r_[True, pk[1:] != pk[:-1]])
        two = np.diff(np.append(starts, len(pk))) == 2
        hits = starts[two]
        return pa.table({"a": pa.array(pk[hits] // MBM_OFF),
                         "b": pa.array(pk[hits] % MBM_OFF),
                         "jw_e4": pa.array(jw[hits])})

    matched_rounds = []
    for _ in range(MBM_ROUNDS):
        sym = pairs.map_batches(
            lambda t: pa.table({"n": t["a"], "p": t["b"],
                                "jw_e4": t["jw_e4"]}),
            batch_format="pyarrow",
        ).union(pairs.map_batches(
            lambda t: pa.table({"n": t["b"], "p": t["a"],
                                "jw_e4": t["jw_e4"]}),
            batch_format="pyarrow"))
        matched = rekey_exchange(sym, "n", best_per_node, "pk", mutual,
                                 16, 16).materialize()
        matched_rounds.append(matched)
        ends_a = matched.map_batches(
            lambda t: pa.table({"a": pa.array(np.r_[
                np.asarray(t["a"], dtype=np.int64),
                np.asarray(t["b"], dtype=np.int64)])}),
            batch_format="pyarrow")
        ends_b = matched.map_batches(
            lambda t: pa.table({"b": pa.array(np.r_[
                np.asarray(t["a"], dtype=np.int64),
                np.asarray(t["b"], dtype=np.int64)])}),
            batch_format="pyarrow")
        pairs = hash_join(pairs, ends_a, "a", num_buckets=16, how="anti")
        pairs = hash_join(pairs, ends_b, "b", num_buckets=16,
                          how="anti").materialize()

    out = matched_rounds[0]
    for m in matched_rounds[1:]:
        out = out.union(m)
    return out


def _mbm_round_sql(r: int) -> str:
    return f"""
s{r} AS (SELECT a AS n, b AS p, jw_e4 FROM p{r - 1}
         UNION ALL SELECT b, a, jw_e4 FROM p{r - 1}),
b{r} AS (SELECT n, p, jw_e4 FROM (
           SELECT n, p, jw_e4, row_number() OVER (
             PARTITION BY n ORDER BY jw_e4 DESC, p) AS rn
           FROM s{r}) WHERE rn = 1),
m{r} AS (SELECT x.n AS a, x.p AS b, x.jw_e4
         FROM b{r} x JOIN b{r} y ON x.p = y.n AND y.p = x.n
         WHERE x.n < x.p),
mn{r} AS (SELECT a AS n FROM m{r} UNION ALL SELECT b FROM m{r}),
p{r} AS (SELECT t.a, t.b, t.jw_e4 FROM p{r - 1} t
         WHERE t.a NOT IN (SELECT n FROM mn{r})
           AND t.b NOT IN (SELECT n FROM mn{r}))"""


def _sql_q138() -> str:
    from .textops import SQL_Q115

    rounds = ",".join(_mbm_round_sql(r) for r in range(1, MBM_ROUNDS + 1))
    final = " UNION ALL ".join(
        f"SELECT a, b, jw_e4 FROM m{r}" for r in range(1, MBM_ROUNDS + 1))
    return f"""
WITH p0 AS ({SQL_Q115}),
{rounds}
{final}
"""


# --- q144: transitivity audit of the scored match graph --------------------

def q144_transitivity_audit(sf_dir: str):
    """Per-node transitivity audit of the q115 match graph — the
    standard consistency diagnostic on a pairwise matcher before
    clustering: for every center n with matched neighbors u, v, is
    (u, v) itself matched?  Open wedges (it is not) are exactly the
    decisions connected-components clustering will force by
    transitivity without pairwise evidence; nodes with low closure are
    routed to clerical review (q122).

    Shape: ONE hash exchange on the wedge center — a center's
    symmetrized rows all land in one bucket, so wedge counts are FINAL
    there (no second shuffle): grouped-triu enumeration (q84 idiom)
    batched by degree, closure probe via the sorted packed edge-key
    array broadcast once (`ray.put`) and searchsorted per bucket —
    q84's closure device; a match graph outgrowing TRI_BCAST_MAX swaps
    in the SEMI hash_join path (wedge stream ⋉ packed edge keys, then a
    second exchange on the center finalizes the counts — no driver
    collect, no oversized broadcast).  Work per bucket is O(Σ deg²)
    with no Python per wedge.

    Reference analogue: the solution-consistency checks of
    eval/Verifier-family bulk set intersections (SURVEY §2 J6/D4),
    applied to the matcher's own output graph."""
    import polars as pl

    from ..functions.grouping import hash_exchange, hash_join
    from ..stages.clustering import _collect
    from . import analytics as _an
    from .textops import q115_jaro_winkler_pairs

    pairs = q115_jaro_winkler_pairs(sf_dir).materialize()

    sym = pairs.map_batches(
        lambda t: pa.table({"n": t["a"], "m": t["b"]}),
        batch_format="pyarrow",
    ).union(pairs.map_batches(
        lambda t: pa.table({"n": t["b"], "m": t["a"]}),
        batch_format="pyarrow"))

    _OUT = pa.schema([("node", pa.int64()), ("n_wedges", pa.int64()),
                      ("n_open", pa.int64()), ("closure_e4", pa.int64())])

    def _wedges(t: pa.Table):
        """(ctr, packed u<v key) arrays of all wedges in one
        center-keyed bucket — grouped-triu batched by degree."""
        df = pl.from_arrow(t).sort(["n", "m"])
        nv = df["n"].to_numpy()
        mv = df["m"].to_numpy()
        starts = np.flatnonzero(np.r_[True, nv[1:] != nv[:-1]])
        sizes = np.diff(np.append(starts, len(nv)))
        ctr_l, pk_l = [], []
        for d in np.unique(sizes):
            if d < 2:
                continue
            ia, ib = np.triu_indices(int(d), k=1)
            base = starts[sizes == d]
            ai = (base[:, None] + ia[None, :]).ravel()
            bi = (base[:, None] + ib[None, :]).ravel()
            pk_l.append(mv[ai] * MBM_OFF + mv[bi])  # in-group sorted → u<v
            ctr_l.append(np.repeat(nv[base], len(ia)))
        if not pk_l:
            z = np.array([], dtype=np.int64)
            return z, z
        return np.concatenate(ctr_l), np.concatenate(pk_l)

    def _finalize(ctr, closed) -> pa.Table:
        """per-node (n_wedges, n_open, closure_e4) from one bucket's
        (ctr, closed-flag) wedge arrays — all of a node's wedges are
        co-located, so the counts are FINAL."""
        order = np.argsort(ctr, kind="stable")
        cs = ctr[order]
        seg = np.flatnonzero(np.r_[True, cs[1:] != cs[:-1]])
        n_wedges = np.diff(np.append(seg, len(cs))).astype(np.int64)
        n_closed = np.add.reduceat(
            closed[order].astype(np.int64), seg)
        n_open = n_wedges - n_closed
        return pa.table({
            "node": pa.array(cs[seg], type=pa.int64()),
            "n_wedges": pa.array(n_wedges),
            "n_open": pa.array(n_open),
            "closure_e4": pa.array(10000 * n_closed // n_wedges),
        })

    n_edges = pairs.count()
    if n_edges <= _an.TRI_BCAST_MAX:
        # broadcast closure probe: sorted packed edge keys shipped once
        etbl = _collect(pairs, pa.schema([("a", pa.int64()),
                                          ("b", pa.int64())]))
        edge_keys = np.sort(
            np.asarray(etbl["a"], dtype=np.int64) * MBM_OFF
            + np.asarray(etbl["b"], dtype=np.int64))
        keys_ref = ray.put(edge_keys)

        def per_center(t: pa.Table) -> pa.Table:
            if t.num_rows == 0 or "n" not in t.column_names:
                return _OUT.empty_table()
            ctr, pk = _wedges(t)
            if not len(ctr):
                return _OUT.empty_table()
            keys = ray.get(keys_ref)
            pos = np.searchsorted(keys, pk)
            closed = ((pos < len(keys))
                      & (keys[np.minimum(pos, len(keys) - 1)] == pk))
            return _finalize(ctr, closed)

        return hash_exchange(sym, "n", per_center, num_buckets=16)

    # scale path (match graph > TRI_BCAST_MAX edges): no driver collect,
    # no oversized broadcast — ship the (ctr, pk) wedge stream, mark the
    # closed wedges with a SEMI hash_join on the packed pair key (only
    # the int64 pk column rides the probe side), then a second exchange
    # on the center finalizes the counts.
    _W = pa.schema([("ctr", pa.int64()), ("pk", pa.int64())])

    def wedge_rows(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "n" not in t.column_names:
            return _W.empty_table()
        ctr, pk = _wedges(t)
        return pa.table({"ctr": pa.array(ctr), "pk": pa.array(pk)})

    # materialize: the O(Σ deg²) wedge stream feeds BOTH the semi-join
    # probe and the closed=0 base union below — without this the whole
    # wedge-generation exchange re-executes once per consumer
    wedges = hash_exchange(sym, "n", wedge_rows, num_buckets=16) \
        .materialize()
    probe = pairs.map_batches(
        lambda t: pa.table({"pk": pa.array(
            np.asarray(t["a"], dtype=np.int64) * MBM_OFF
            + np.asarray(t["b"], dtype=np.int64))}),
        batch_format="pyarrow")
    _C = pa.schema([("ctr", pa.int64()), ("closed", pa.int64())])

    def _tag_closed(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "ctr" not in t.column_names:
            return _C.empty_table()
        return pa.table({"ctr": t["ctr"], "closed": pa.array(
            np.ones(t.num_rows, dtype=np.int64))})

    closed_w = hash_join(wedges, probe, "pk", num_buckets=16, how="semi",
                         post=_tag_closed)
    tagged = wedges.map_batches(
        lambda t: (pa.table({"ctr": t["ctr"], "closed": pa.array(
            np.zeros(t.num_rows, dtype=np.int64))})
            if "ctr" in t.column_names else _C.empty_table()),
        batch_format="pyarrow").union(closed_w)

    def count_center(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "ctr" not in t.column_names:
            return _OUT.empty_table()
        # each wedge contributes one closed=0 row, plus one closed=1 row
        # iff the semi join kept it: n_wedges = #rows-with-0, n_closed =
        # #rows-with-1, both final per center in this bucket
        ctr = np.asarray(t["ctr"], dtype=np.int64)
        cl = np.asarray(t["closed"], dtype=np.int64)
        order = np.argsort(ctr, kind="stable")
        cs, cls = ctr[order], cl[order]
        seg = np.flatnonzero(np.r_[True, cs[1:] != cs[:-1]])
        n_total = np.diff(np.append(seg, len(cs))).astype(np.int64)
        n_closed = np.add.reduceat(cls, seg)
        n_wedges = n_total - n_closed
        n_open = n_wedges - n_closed
        return pa.table({
            "node": pa.array(cs[seg], type=pa.int64()),
            "n_wedges": pa.array(n_wedges),
            "n_open": pa.array(n_open),
            "closure_e4": pa.array(10000 * n_closed // n_wedges),
        })

    return hash_exchange(tagged, "ctr", count_center, num_buckets=16)


def _sql_q144() -> str:
    from .textops import SQL_Q115

    return f"""
WITH p0 AS ({SQL_Q115}),
sym AS (SELECT a AS n, b AS m FROM p0 UNION ALL SELECT b, a FROM p0),
w AS (SELECT x.n AS ctr, x.m AS u, y.m AS v
      FROM sym x JOIN sym y ON x.n = y.n AND x.m < y.m),
o AS (SELECT w.ctr, CASE WHEN p.a IS NULL THEN 1 ELSE 0 END AS op
      FROM w LEFT JOIN p0 p ON w.u = p.a AND w.v = p.b)
SELECT ctr AS node, CAST(count(*) AS BIGINT) AS n_wedges,
       CAST(SUM(op) AS BIGINT) AS n_open,
       CAST(10000 * (count(*) - SUM(op)) // count(*) AS BIGINT)
           AS closure_e4
FROM o GROUP BY ctr
"""


# --- q155: unsupervised EM estimation of Fellegi-Sunter parameters ----------

EM_ITERS = 3          # unrolled in the SQL twin — keep the two in lockstep
EM_FEATS = ("size", "type", "price")


def q155_em_fs(sf_dir: str):
    """Splink-style UNSUPERVISED Fellegi-Sunter parameter estimation:
    expectation-maximization over brand-blocked comparison vectors with
    NO match labels (q119 is the supervised twin that peeks at name
    equality).  The 100 TB shape is the one that matters: the only pass
    over the O(pairs) comparison space folds each pair down to its
    3-bit agreement pattern and emits per-bucket pattern COUNTS — an
    8-row sufficient-statistics table — so the EM iterations run on
    O(2^k) rows regardless of data size (the same reduction Splink's
    `estimate_parameters_using_expectation_maximisation` makes).

    Fixed protocol, mirrored token-for-token in the SQL twin: init
    lambda=0.1, m_f=0.9, u_f=0.1; EM_ITERS iterations; outputs rounded
    to e4 fixed-point for cross-engine float stability."""

    def pat_partial(t: pa.Table) -> pa.Table:
        empty = pa.table({"pattern": pa.array([], type=pa.int64()),
                          "n": pa.array([], type=pa.int64())})
        if t.num_rows == 0 or "p_partkey" not in t.column_names:
            return empty
        df, (ai, bi) = _brand_pairs(t)
        if len(ai) == 0:
            return empty
        _, type_c = np.unique(df["p_type"].to_numpy(), return_inverse=True)
        size = df["p_size"].to_numpy().astype(np.int64)
        cents = np.floor(df["p_retailprice"].to_numpy() * 100
                         + 0.5).astype(np.int64)
        pid = ((size[ai] == size[bi]).astype(np.int64) * 4
               + (type_c[ai] == type_c[bi]).astype(np.int64) * 2
               + (cents[ai] == cents[bi]).astype(np.int64))
        cnt = np.bincount(pid, minlength=8)
        keep = np.flatnonzero(cnt)
        return pa.table({"pattern": pa.array(keep, type=pa.int64()),
                         "n": pa.array(cnt[keep], type=pa.int64())})

    parts = _t(sf_dir, "part", ["p_partkey", "p_brand", "p_type",
                                "p_size", "p_retailprice"])
    partial = hash_exchange(parts, "p_brand", pat_partial, num_buckets=16)
    summed = bucketed_sum(partial, ["pattern"], "n", "n",
                          num_buckets=4)

    # Driver epilogue over the 8-row pattern table (O(2^k), size-free).
    pdf = summed.to_pandas().sort_values("pattern")
    pat = pdf["pattern"].to_numpy(dtype=np.int64)
    n = pdf["n"].to_numpy(dtype=np.float64)
    g = np.stack([(pat >> 2) & 1, (pat >> 1) & 1, pat & 1]).astype(np.float64)
    lam, m, u = 0.1, np.full(3, 0.9), np.full(3, 0.1)
    for _ in range(EM_ITERS):
        # mirror the SQL float tree: lam * Π_f (g? m_f : 1-m_f), etc.
        wm = lam * np.where(g[0] == 1, m[0], 1 - m[0]) \
                 * np.where(g[1] == 1, m[1], 1 - m[1]) \
                 * np.where(g[2] == 1, m[2], 1 - m[2])
        wu = (1 - lam) * np.where(g[0] == 1, u[0], 1 - u[0]) \
                       * np.where(g[1] == 1, u[1], 1 - u[1]) \
                       * np.where(g[2] == 1, u[2], 1 - u[2])
        r = wm / (wm + wu)
        lam = (n * r).sum() / n.sum()
        m = np.array([(n * r * g[f]).sum() / (n * r).sum()
                      for f in range(3)])
        u = np.array([(n * (1 - r) * g[f]).sum() / (n * (1 - r)).sum()
                      for f in range(3)])
    params = [("lambda", lam)]
    params += [(f"m_{f}", m[i]) for i, f in enumerate(EM_FEATS)]
    params += [(f"u_{f}", u[i]) for i, f in enumerate(EM_FEATS)]
    return pa.table({
        "param": pa.array([p for p, _ in params]),
        "value_e4": pa.array([int(np.round(v * 10000)) for _, v in params],
                             type=pa.int64()),
    })


def _sql_q155() -> str:
    """EM iterations unrolled as chained scalar CTEs over the 8-row
    pattern-count table; float expression trees mirror q155_em_fs."""
    it = """
e{k} AS (
  SELECT pat.gs, pat.gt, pat.gp, pat.n,
         it{j}.lam * (CASE WHEN pat.gs = 1 THEN it{j}.ms ELSE 1 - it{j}.ms END)
                   * (CASE WHEN pat.gt = 1 THEN it{j}.mt ELSE 1 - it{j}.mt END)
                   * (CASE WHEN pat.gp = 1 THEN it{j}.mp ELSE 1 - it{j}.mp END) AS wm,
         (1 - it{j}.lam) * (CASE WHEN pat.gs = 1 THEN it{j}.us ELSE 1 - it{j}.us END)
                         * (CASE WHEN pat.gt = 1 THEN it{j}.ut ELSE 1 - it{j}.ut END)
                         * (CASE WHEN pat.gp = 1 THEN it{j}.up ELSE 1 - it{j}.up END) AS wu
  FROM pat, it{j}),
r{k} AS (SELECT gs, gt, gp, n, wm / (wm + wu) AS r FROM e{k}),
it{k} AS (
  SELECT SUM(n * r) / SUM(n) AS lam,
         SUM(n * r * gs) / SUM(n * r) AS ms,
         SUM(n * r * gt) / SUM(n * r) AS mt,
         SUM(n * r * gp) / SUM(n * r) AS mp,
         SUM(n * (1 - r) * gs) / SUM(n * (1 - r)) AS us,
         SUM(n * (1 - r) * gt) / SUM(n * (1 - r)) AS ut,
         SUM(n * (1 - r) * gp) / SUM(n * (1 - r)) AS up
  FROM r{k})"""
    iters = ",".join(it.format(k=k, j=k - 1) for k in range(1, EM_ITERS + 1))
    last = f"it{EM_ITERS}"
    outs = [("lambda", "lam"), ("m_size", "ms"), ("m_type", "mt"),
            ("m_price", "mp"), ("u_size", "us"), ("u_type", "ut"),
            ("u_price", "up")]
    sel = "\nUNION ALL ".join(
        f"SELECT '{p}' AS param, CAST(ROUND({c} * 10000) AS BIGINT)"
        f" AS value_e4 FROM {last}" for p, c in outs)
    return f"""
WITH p AS (
  SELECT p_partkey, p_brand, p_type, p_size,
         CAST(FLOOR(p_retailprice * 100 + 0.5) AS BIGINT) AS cents
  FROM part
),
pat AS (
  SELECT CASE WHEN x.p_size = y.p_size THEN 1 ELSE 0 END AS gs,
         CASE WHEN x.p_type = y.p_type THEN 1 ELSE 0 END AS gt,
         CASE WHEN x.cents = y.cents THEN 1 ELSE 0 END AS gp,
         CAST(count(*) AS DOUBLE) AS n
  FROM p x JOIN p y ON x.p_brand = y.p_brand AND x.p_partkey < y.p_partkey
  GROUP BY 1, 2, 3
),
it0 AS (SELECT CAST(0.1 AS DOUBLE) AS lam,
               CAST(0.9 AS DOUBLE) AS ms, CAST(0.9 AS DOUBLE) AS mt,
               CAST(0.9 AS DOUBLE) AS mp,
               CAST(0.1 AS DOUBLE) AS us, CAST(0.1 AS DOUBLE) AS ut,
               CAST(0.1 AS DOUBLE) AS up),
{iters}
{sel}
"""


QUERIES = {
    "q117_sorted_neighborhood": (q117_sorted_neighborhood, SQL_Q117),
    "q144_transitivity_audit": (q144_transitivity_audit, _sql_q144()),
    "q118_metablocking": (q118_metablocking, _sql_q118()),
    "q119_fs_weights": (q119_fs_weights, SQL_Q119),
    "q120_score_calibration": (q120_score_calibration, SQL_Q120),
    "q122_review_queue": (q122_review_queue, _sql_q122()),
    "q127_pr_curve": (q127_pr_curve, _sql_q127()),
    "q128_soundex_blocking": (q128_soundex_blocking, SQL_Q128),
    # procedural rewrite rules → rows-only; textbook vectors in pytest
    "q188_nysiis_blocking": (q188_nysiis_blocking, None),
    "q130_canopy": (q130_canopy, _sql_q130()),
    "q131_monge_elkan": (q131_monge_elkan, SQL_Q131),
    "q138_one_to_one_match": (q138_one_to_one_match, _sql_q138()),
    "q155_em_fs": (q155_em_fs, _sql_q155()),
    "q191_crowd_adjudication": (q191_crowd_adjudication, _sql_q191()),
    "q192_worker_stats": (q192_worker_stats, _sql_q192()),
    "q193_reject_republish": (q193_reject_republish, _sql_q193()),
    "q194_vote_summary": (q194_vote_summary, _sql_q194()),
    "q195_answers_histogram": (q195_answers_histogram, _sql_q195()),
}
