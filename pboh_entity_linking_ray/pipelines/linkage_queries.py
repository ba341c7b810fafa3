"""Flagship-pipeline stages exposed as driver-checkable queries.

The linkage corpus is not among the driver's pre-registered views, so each
callable first materializes the deterministic synthetic corpus (seed 42,
size keyed to the sf directory) under ``CORPUS_CACHE`` and the SQL twins
read it via ``read_parquet('<path>')``.  Stages whose semantics are not
SQL-expressible (MinHash with xxhash, scoring, clustering) are registered
without an oracle → the driver records the weaker rows-only check; the
oracle-capable stages (canonicalize, token df, exact dedup, md5-MinHash
LSH) get exact SQL twins.
"""

from __future__ import annotations
from pboh_entity_linking_ray.sources.reading import read_parquet_clean

import os

import numpy as np
import pyarrow as pa
import ray.data

from ..config import PipelineConfig
from ..functions.hashing import md5_lower64
from ..sources.synthetic import corpus_dir, ensure_corpus, sf_to_n_convs
from ..stages.canonicalize import canonicalize
from ..pipelines.linkage import run_linkage

CORPUS_CACHE = "/tmp/pboh_ray_corpus"
# the driver's oracle comparison runs at sf0.01 → 2000 convs
_SQL_TURNS = f"{corpus_dir(CORPUS_CACHE, 2000)}/turns.parquet/*.parquet"

# canonicalize CTE shared by every SQL twin (string_agg restores turn order)
_SQL_CONV_DOCS = f"""
conv_docs AS (
  SELECT conv_id,
         count(*)::INT AS n_turns,
         string_agg(text, chr(10) ORDER BY turn_idx) AS mention_doc,
         string_agg(role || ':' || tool, '|' ORDER BY turn_idx) AS sig
  FROM read_parquet('{_SQL_TURNS}')
  GROUP BY conv_id
)
"""


def _turns(sf_dir: str) -> ray.data.Dataset:
    d = ensure_corpus(CORPUS_CACHE, sf_to_n_convs(sf_dir))
    return read_parquet_clean(os.path.join(d, "turns.parquet"))


def _labels(sf_dir: str) -> pa.Table:
    import pyarrow.parquet as pq

    d = ensure_corpus(CORPUS_CACHE, sf_to_n_convs(sf_dir))
    return pq.read_table(os.path.join(d, "labels.parquet"))


def link_canonicalize(sf_dir: str):
    """turns → conv_docs (the per-turn ordering invariant, oracle-checked)."""
    return canonicalize(_turns(sf_dir), 64)


SQL_CANONICALIZE = f"WITH {_SQL_CONV_DOCS} SELECT * FROM conv_docs"


def link_token_df(sf_dir: str):
    """Raw-token document frequency over conversations (vocab analog
    without stemming, so the SQL twin is exact)."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        import polars as pl
        df = pl.DataFrame({
            "conv_id": pl.from_arrow(t["conv_id"].combine_chunks()),
            "toks": pl.from_arrow(t["text"].combine_chunks())
                      .str.to_lowercase().str.extract_all("[a-z0-9]+"),
        })
        out = (
            df.explode("toks", empty_as_null=True).drop_nulls()
            .unique(subset=["conv_id", "toks"])
            .rename({"toks": "token"})
        )
        return out.to_arrow()

    pairs = _turns(sf_dir).map_batches(partial, batch_format="pyarrow")
    one = pairs.groupby(["token", "conv_id"]).count().map_batches(
        lambda t: pa.table({
            "token": t["token"],
            "one": pa.array(np.ones(t.num_rows, dtype=np.int64)),
        }),
        batch_format="pyarrow",
    )
    return one.groupby("token").aggregate(Sum("one", alias_name="df"))


SQL_TOKEN_DF = f"""
SELECT token, count(DISTINCT conv_id) AS df
FROM (SELECT conv_id,
             unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS token
      FROM read_parquet('{_SQL_TURNS}'))
GROUP BY token
"""


def link_dedup_exact(sf_dir: str):
    """Exact-duplicate conversations by canonical text — hash-partitioned
    on the content, one vectorized polars pass per bucket
    (functions/grouping.py rationale: never one Python call per key)."""
    from ..functions.grouping import hash_exchange

    conv = canonicalize(_turns(sf_dir), 64)

    def keep_min(bucket: pa.Table) -> pa.Table:
        import polars as pl

        out = (
            pl.from_arrow(bucket).group_by("mention_doc")
            .agg(pl.col("conv_id").min(),
                 pl.len().cast(pl.Int64).alias("n_copies"))
            .select(["conv_id", "n_copies"])
        )
        return out.to_arrow()

    return hash_exchange(conv.select_columns(["conv_id", "mention_doc"]),
                         "mention_doc", keep_min)


SQL_DEDUP_EXACT = f"""
WITH {_SQL_CONV_DOCS}
SELECT min(conv_id) AS conv_id, count(*) AS n_copies
FROM conv_docs GROUP BY mention_doc
"""


# --- md5 MinHash-LSH candidates (oracle-exact blocking) ---------------------

MH_P = 16          # permutations
MH_BANDS = 8       # bands of r = 2
_MH_PRIME = 4294967291
_MH_MOD32 = 4294967296


def _mh_perm(j: int, h32: np.ndarray) -> np.ndarray:
    return ((2 * j + 1) * h32 + 7919 * j + 13) % _MH_PRIME


def _md5_band_keys(sf_dir: str) -> ray.data.Dataset:
    """(conv_id, band, bkey) rows on the DuckDB-reproducible md5 MinHash
    (shared by the LSH-candidates query and the block inventory)."""
    conv = canonicalize(_turns(sf_dir), 64)

    class BandKeys:
        def __init__(self):
            self.cache: dict[str, int] = {}

        def __call__(self, t: pa.Table) -> pa.Table:
            import polars as pl
            toks = (
                pl.from_arrow(t["mention_doc"].combine_chunks())
                .str.to_lowercase().str.extract_all("[a-z0-9]+")
            )
            conv_ids = t["conv_id"].to_pylist()
            out_conv, out_band, out_key = [], [], []
            js = np.arange(MH_P, dtype=np.int64)
            for ci, ts in zip(conv_ids, toks.to_list()):
                uniq = sorted(set(ts))
                if not uniq:
                    continue
                h32 = np.array(
                    [self.cache.setdefault(x, md5_lower64(x) % _MH_MOD32)
                     for x in uniq], dtype=np.int64)
                mh = np.array([_mh_perm(int(j), h32).min() for j in js],
                              dtype=np.int64)
                for b in range(MH_BANDS):
                    seg = mh[b * 2 : b * 2 + 2]
                    out_conv.append(ci)
                    out_band.append(b)
                    out_key.append(",".join(str(int(v)) for v in seg))
            return pa.table({
                "conv_id": pa.array(out_conv, type=pa.string()),
                "band": pa.array(out_band, type=pa.int64()),
                "bkey": pa.array(out_key, type=pa.string()),
            })

    return conv.map_batches(BandKeys, batch_format="pyarrow",
                            batch_size=512, concurrency=(1, 4))


def link_minhash_lsh_candidates(sf_dir: str):
    """MinHash-LSH candidate pairs with DuckDB-reproducible hashing
    (md5_number_lower % 2^32; permutations h_j = ((2j+1)h + 7919j+13) mod
    4294967291).  The engine's production blocking uses the fast xxhash
    MinHasher (stages/featurize.py); this md5 variant exists so the LSH
    *algorithm* itself is oracle-checked end-to-end."""
    keyed = _md5_band_keys(sf_dir)

    from ..functions.grouping import dedup_keep_first, hash_exchange

    def bucket_pairs(bucket: pa.Table) -> pa.Table:
        """All (band,bkey) groups of one hash bucket → pair rows, sliced
        group-at-a-time out of a sorted bucket (one Python call per
        bucket; the tiny in-group triu stays numpy)."""
        import polars as pl

        df = (pl.from_arrow(bucket)
              .unique(subset=["band", "bkey", "conv_id"])
              .sort(["band", "bkey", "conv_id"]))
        gk = (df["band"].cast(pl.String) + ":" + df["bkey"]).to_numpy()
        conv = df["conv_id"].to_numpy()
        starts = np.flatnonzero(np.r_[True, gk[1:] != gk[:-1]])
        bounds = np.append(starts, len(gk))
        ca, cb = [], []
        for s, e in zip(bounds[:-1], bounds[1:]):
            if e - s < 2:
                continue
            a, b = np.triu_indices(e - s, k=1)
            ca.append(conv[s:e][a])
            cb.append(conv[s:e][b])
        if not ca:
            return pa.table({"conv_a": pa.array([], type=pa.string()),
                             "conv_b": pa.array([], type=pa.string())})
        return pa.table({
            "conv_a": pa.array(np.concatenate(ca), type=pa.string()),
            "conv_b": pa.array(np.concatenate(cb), type=pa.string()),
        })

    cand = hash_exchange(keyed, "bkey", bucket_pairs)

    def keyed_pairs(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return t.append_column(
            "pk", pc.binary_join_element_wise(t["conv_a"], t["conv_b"], "\x1f"))

    return dedup_keep_first(
        cand.map_batches(keyed_pairs, batch_format="pyarrow"), "pk"
    ).select_columns(["conv_a", "conv_b"])


_SQL_BANDS_CTE = f"""{_SQL_CONV_DOCS},
tok AS (
  SELECT conv_id,
         unnest(list_distinct(regexp_extract_all(lower(mention_doc),
                '[a-z0-9]+'))) AS t
  FROM conv_docs
),
h AS (SELECT conv_id, md5_number_lower(t) % {_MH_MOD32} AS h32 FROM tok),
mh AS (
  SELECT conv_id, j, min(((2*j + 1) * h32 + 7919*j + 13) % {_MH_PRIME}) AS mv
  FROM h CROSS JOIN generate_series(0, {MH_P - 1}) g(j)
  GROUP BY conv_id, j
),
bands AS (
  SELECT conv_id, j // 2 AS band,
         string_agg(mv::VARCHAR, ',' ORDER BY j) AS bkey
  FROM mh GROUP BY conv_id, j // 2
)"""

SQL_MINHASH = f"""
WITH {_SQL_BANDS_CTE}
SELECT DISTINCT a.conv_id AS conv_a, b.conv_id AS conv_b
FROM bands a JOIN bands b
  ON a.band = b.band AND a.bkey = b.bkey AND a.conv_id < b.conv_id
"""


def link_block_inventory_md5(sf_dir: str):
    """Oracle-checked block inventory: (band, bkey) → member count over
    the md5-MinHash band keys (the SQL-twin-able variant of
    ``link_block_inventory``; same bands CTE as the LSH candidates)."""
    counted = _md5_band_keys(sf_dir).groupby(["band", "bkey"]).count()
    return counted.rename_columns({"count()": "n_members"})


SQL_BLOCK_INV_MD5 = f"""
WITH {_SQL_BANDS_CTE}
SELECT band, bkey, count(*) AS n_members
FROM bands GROUP BY band, bkey
"""


def link_blocking_quality(sf_dir: str):
    """Blocking-quality metrics (Christen 2012): pairs completeness and
    reduction ratio of the md5 MinHash-LSH blocker against the labeled
    gold pairs — the pre-scoring evaluation every record-linkage
    blocker needs (the flagship's F1 gate judges DECISIONS; this
    judges the candidate set itself).  PC = |cand ∩ gold| / |gold|
    (candidate recall), RR = 1 − |cand| / C(n,2) (how much of the
    quadratic pair space blocking pruned).

    The gold table is the curated eval split (q50's broadcast
    assumption): its canonical pair keys are sorted + `ray.put` once
    and every candidate batch counts hits via searchsorted, so only
    O(batches) skinny partial rows reach the driver; n_convs uses the
    q31 exact-distinct discipline.  Exact integers; e4/e6 ratios by
    integer division, mirrored in the twin."""
    import pyarrow.compute as pc

    from ..functions.grouping import hash_exchange

    cand = link_minhash_lsh_candidates(sf_dir)
    gold = _labels(sf_dir).filter(pc.field("is_match"))
    gk = np.sort(np.array([a + "\x1f" + b for a, b in
                           zip(gold["conv_a"].to_pylist(),
                               gold["conv_b"].to_pylist())]))
    gref = ray.put(gk)

    def hits(t: pa.Table) -> pa.Table:
        empty = pa.table({"n_cand": pa.array([], type=pa.int64()),
                          "n_hit": pa.array([], type=pa.int64())})
        if t.num_rows == 0 or "conv_a" not in t.column_names:
            return empty
        g = ray.get(gref) if isinstance(gref, ray.ObjectRef) else gref
        keys = np.asarray(pc.binary_join_element_wise(
            t["conv_a"], t["conv_b"], "\x1f"))
        if len(g) == 0:
            h = 0
        else:
            pos = np.clip(np.searchsorted(g, keys), 0, len(g) - 1)
            h = int((g[pos] == keys).sum())
        return pa.table({"n_cand": pa.array([t.num_rows], type=pa.int64()),
                         "n_hit": pa.array([h], type=pa.int64())})

    hp = (cand.map_batches(hits, batch_format="pyarrow").to_pandas())
    n_cand, n_hit = int(hp["n_cand"].sum()), int(hp["n_hit"].sum())

    def conv_batch(t: pa.Table) -> pa.Table:
        import polars as pl

        if t.num_rows == 0 or "conv_id" not in t.column_names:
            return pa.table({"conv_id": pa.array([], type=pa.string())})
        return pl.from_arrow(t.select(["conv_id"])).unique().to_arrow()

    def bucket_count(t: pa.Table) -> pa.Table:
        import polars as pl

        if t.num_rows == 0 or "conv_id" not in t.column_names:
            return pa.table({"n_partial": pa.array([], type=pa.int64())})
        return pa.table({"n_partial": pa.array(
            [pl.from_arrow(t)["conv_id"].n_unique()], type=pa.int64())})

    parts = hash_exchange(
        _turns(sf_dir).map_batches(conv_batch, batch_format="pyarrow"),
        "conv_id", bucket_count, num_buckets=16)
    n_convs = int(parts.to_pandas()["n_partial"].sum())

    n_gold = gold.num_rows
    total_pairs = n_convs * (n_convs - 1) // 2
    return pa.table({
        "n_convs": pa.array([n_convs], type=pa.int64()),
        "n_candidates": pa.array([n_cand], type=pa.int64()),
        "n_gold": pa.array([n_gold], type=pa.int64()),
        "n_hit": pa.array([n_hit], type=pa.int64()),
        "pc_e4": pa.array([10000 * n_hit // n_gold], type=pa.int64()),
        "rr_e6": pa.array([1_000_000 - (1_000_000 * n_cand) // total_pairs],
                          type=pa.int64()),
    })


_SQL_LABELS = f"{corpus_dir(CORPUS_CACHE, 2000)}/labels.parquet"

SQL_BLOCKING_QUALITY = f"""
WITH {_SQL_BANDS_CTE},
cand AS (
  SELECT DISTINCT a.conv_id AS conv_a, b.conv_id AS conv_b
  FROM bands a JOIN bands b
    ON a.band = b.band AND a.bkey = b.bkey AND a.conv_id < b.conv_id
),
gold AS (
  SELECT conv_a, conv_b FROM read_parquet('{_SQL_LABELS}') WHERE is_match
),
s AS (
  SELECT (SELECT count(DISTINCT conv_id)
            FROM read_parquet('{_SQL_TURNS}')) AS n_convs,
         (SELECT count(*) FROM cand) AS n_candidates,
         (SELECT count(*) FROM gold) AS n_gold,
         (SELECT count(*) FROM cand JOIN gold
            ON cand.conv_a = gold.conv_a
           AND cand.conv_b = gold.conv_b) AS n_hit
)
SELECT n_convs, n_candidates, n_gold, n_hit,
       10000 * n_hit // n_gold AS pc_e4,
       1000000 - (1000000 * n_candidates)
                 // (n_convs * (n_convs - 1) // 2) AS rr_e6
FROM s
"""


def link_signature_blocking_quality(sf_dir: str):
    """Blocking-quality metrics for the SIGNATURE scheme alone (the
    flagship blocks on MinHash-LSH bands ∪ role:tool signature keys;
    `link_blocking_quality` judges the LSH half — this judges the other,
    so the two rows together show what each scheme contributes).

    No pair is ever enumerated: |cand| = Σ_g C(m_g, 2) from the sig
    group sizes (one keyed count), and gold hits need only each gold
    pair's two sigs — the gold conv ids are broadcast (q50 discipline),
    batches ship back O(gold) (conv_id, sig) rows, and the driver
    compares sig_a == sig_b over the tiny labeled set.  Exact integers,
    the same pc_e4/rr_e6 forms as `link_blocking_quality`."""
    import pyarrow.compute as pc

    from ..functions.grouping import bucketed_sum

    docs = canonicalize(_turns(sf_dir), 64).materialize()

    _P = pa.schema([("sig", pa.string()), ("m", pa.int64())])

    def sig_counts(t: pa.Table) -> pa.Table:
        import polars as pl

        if t.num_rows == 0 or "sig" not in t.column_names:
            return _P.empty_table()
        return (pl.from_arrow(t.select(["sig"])).group_by("sig")
                .agg(m=pl.len().cast(pl.Int64)).to_arrow().cast(_P))

    groups = bucketed_sum(
        docs.map_batches(sig_counts, batch_format="pyarrow"),
        ["sig"], "m", "m")

    _F = pa.schema([("n_convs", pa.int64()), ("n_cand", pa.int64())])

    def fold(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "m" not in t.column_names:
            return _F.empty_table()
        m = np.asarray(t["m"], dtype=np.int64)
        return pa.table({"n_convs": pa.array([np.int64(m.sum())]),
                         "n_cand": pa.array([np.int64((m * (m - 1) // 2)
                                                      .sum())])})

    fp = groups.map_batches(fold, batch_format="pyarrow").to_pandas()
    n_convs = np.int64(fp["n_convs"].sum())
    n_cand = np.int64(fp["n_cand"].sum())

    gold = _labels(sf_dir).filter(pc.field("is_match"))
    ga = np.asarray(gold["conv_a"])
    gb = np.asarray(gold["conv_b"])
    gconvs = np.unique(np.concatenate([ga, gb]))
    gref = ray.put(gconvs)

    _S = pa.schema([("conv_id", pa.string()), ("sig", pa.string())])

    def gold_sigs(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "conv_id" not in t.column_names:
            return _S.empty_table()
        g = ray.get(gref) if isinstance(gref, ray.ObjectRef) else gref
        ids = np.asarray(t["conv_id"])
        pos = np.clip(np.searchsorted(g, ids), 0, len(g) - 1)
        keep = g[pos] == ids
        return t.select(["conv_id", "sig"]).filter(pa.array(keep))

    gs = docs.map_batches(gold_sigs, batch_format="pyarrow").to_pandas()
    sig_of = dict(zip(gs["conv_id"], gs["sig"]))
    n_hit = np.int64(sum(1 for a, b in zip(ga, gb)
                         if sig_of.get(a) is not None
                         and sig_of.get(a) == sig_of.get(b)))
    n_gold = np.int64(len(ga))
    return pa.table({
        "n_convs": pa.array([n_convs]),
        "n_candidates": pa.array([n_cand]),
        "n_gold": pa.array([n_gold]),
        "n_hit": pa.array([n_hit]),
        "pc_e4": pa.array([np.int64(10000 * n_hit // n_gold)]),
        "rr_e6": pa.array([np.int64(
            1_000_000 - (1_000_000 * n_cand)
            // (n_convs * (n_convs - 1) // 2))]),
    })


SQL_SIG_BLOCKING_QUALITY = f"""
WITH {_SQL_CONV_DOCS},
g AS (SELECT sig, CAST(count(*) AS BIGINT) AS m FROM conv_docs GROUP BY sig),
gold AS (
  SELECT conv_a, conv_b FROM read_parquet('{_SQL_LABELS}') WHERE is_match
),
s AS (
  SELECT (SELECT CAST(sum(m) AS BIGINT) FROM g) AS n_convs,
         (SELECT CAST(sum((m * (m - 1)) // 2) AS BIGINT) FROM g)
           AS n_candidates,
         (SELECT CAST(count(*) AS BIGINT) FROM gold) AS n_gold,
         (SELECT CAST(count(*) AS BIGINT)
            FROM gold j JOIN conv_docs a ON a.conv_id = j.conv_a
                        JOIN conv_docs b ON b.conv_id = j.conv_b
           WHERE a.sig = b.sig) AS n_hit
)
SELECT n_convs, n_candidates, n_gold, n_hit,
       10000 * n_hit // n_gold AS pc_e4,
       1000000 - (1000000 * n_candidates)
                 // (n_convs * (n_convs - 1) // 2) AS rr_e6
FROM s
"""


def cluster_quality(clusters: ray.data.Dataset,
                    golden: pa.Table) -> pa.Table:
    """B-cubed P/R/F1 + adjusted Rand of a predicted conv→cluster table
    against the golden partition (q125's machinery pointed at the
    FLAGSHIP output — the partition-level complement of the pairwise F1
    gate, which only judges same-block labeled pairs): golden labels
    broadcast once, per-batch (pred, gold) cell count partials, ONE
    keyed sum, exact-integer driver fold over O(cells) rows."""
    import polars as pl

    from ..functions.grouping import bucketed_sum_multi
    from .textops import bcubed_ari_report

    gmap_ref = ray.put(golden.select(["conv_id", "cluster_id"])
                       .rename_columns(["conv_id", "g"]))

    _C = pa.schema([("c", pa.string()), ("g", pa.string()),
                    ("n_p", pa.int64())])

    def cell_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "conv_id" not in t.column_names:
            return _C.empty_table()
        g = ray.get(gmap_ref) if isinstance(gmap_ref, ray.ObjectRef) \
            else gmap_ref
        df = (pl.from_arrow(t.select(["conv_id", "cluster_id"]))
              .rename({"cluster_id": "c"})
              .join(pl.from_arrow(g), on="conv_id", how="inner")
              .group_by(["c", "g"])
              .agg(n_p=pl.len().cast(pl.Int64)))
        return df.select("c", "g", "n_p").to_arrow().cast(_C)

    cells = bucketed_sum_multi(
        clusters.map_batches(cell_partial, batch_format="pyarrow"),
        ["c", "g"], {"n_p": "n"}, num_buckets=16)
    return bcubed_ari_report(cells)


def link_cluster_quality(sf_dir: str):
    """Partition-level quality of the flagship clusters vs the golden
    partition (rows-only: clusters are the pipeline's own output;
    exact-agreement invariant pinned in pytest)."""
    import pyarrow.parquet as pq

    res, _ = _run(sf_dir)
    d = ensure_corpus(CORPUS_CACHE, sf_to_n_convs(sf_dir))
    golden = pq.read_table(os.path.join(d, "golden_clusters.parquet"))
    return cluster_quality(res.clusters, golden)


# --- rows-only flagship stages ----------------------------------------------

_RUN_CACHE: dict[str, object] = {}


def _run(sf_dir: str):
    """Memoized flagship run per sf_dir — several queries() entries view
    different outputs of the same pipeline; one execution serves all."""
    cfg = PipelineConfig()
    res = _RUN_CACHE.get(sf_dir)
    if res is None:
        res = run_linkage(_turns(sf_dir), cfg)
        res.scored = res.scored.materialize()
        res.clusters = res.clusters.materialize()
        _RUN_CACHE[sf_dir] = res
    return res, cfg


def link_pairs_scored(sf_dir: str):
    res, _ = _run(sf_dir)
    return res.scored.select_columns(
        ["pair_key", "conv_a", "conv_b", "block_key", "jw", "jaccard",
         "pboh", "score", "is_match"]
    )


def link_clusters(sf_dir: str):
    res, _ = _run(sf_dir)
    return res.clusters


def link_block_inventory(sf_dir: str):
    from ..stages.blocking import add_block_keys, block_inventory
    from ..stages.featurize import featurize

    cfg = PipelineConfig()
    feats = featurize(canonicalize(_turns(sf_dir), 64), cfg)
    return block_inventory(add_block_keys(feats, cfg))


def link_eval_metrics(sf_dir: str):
    """Micro + macro P/R/F1 overall and per gold-cluster-size bucket
    (reference's GlobalStats report, eval/GlobalStats.scala:116-248)."""
    import pyarrow.parquet as pq

    from ..stages.evaluate import eval_report

    res, _ = _run(sf_dir)
    d = ensure_corpus(CORPUS_CACHE, sf_to_n_convs(sf_dir))
    golden = pq.read_table(os.path.join(d, "golden_clusters.parquet"))
    return eval_report(res.scored, _labels(sf_dir), golden)


def link_pr_curve(sf_dir: str):
    """Operating-point curve for the FLAGSHIP scorer: cumulative
    precision/recall over the labeled pairs at every score-decile
    threshold — q127's fold pointed at the pipeline's own scored stream
    (q127 reads the generic JW calibration table; a deployment fixes
    ``match_threshold`` from THIS curve).  The recall denominator is ALL
    labeled positives — a labeled pair the blocker never co-located
    counts as missed at every threshold, so the curve's recall ceiling
    IS the blocking recall (the PC of link_blocking_quality), visible on
    the same axis as the scorer trade-off.

    Shape: labels broadcast once (the eval-judge device), per-batch
    vectorized join + decile-bin count partials → ONE ≤11-row keyed sum
    → O(bins) exact-integer driver fold.  Consistency with the F1 gate
    is pinned in pytest: the bin at the config threshold reproduces
    ``pairwise_metrics``'s tp/(tp+fp) exactly."""
    import polars as pl
    import pyarrow.compute as pc

    from ..functions.grouping import _bcast_frame, bucketed_sum_multi
    from ..stages.evaluate import _label_table

    res, _ = _run(sf_dir)
    lbl = _label_table(_labels(sf_dir))
    total_pos = int(pc.sum(lbl["gold"]).as_py() or 0)
    lbl_ref = ray.put(lbl)

    _PART = pa.schema([("bin", pa.int64()), ("n_pairs", pa.int64()),
                       ("n_pos", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "pair_key" not in t.column_names:
            return _PART.empty_table()
        df = pl.DataFrame({
            "pair_key": pl.from_arrow(t["pair_key"].combine_chunks()),
            "bin": np.clip((np.asarray(t["score"], dtype=np.float64) * 10)
                           .astype(np.int64), 0, 10),
        }).join(_bcast_frame(lbl_ref), on="pair_key", how="inner")
        return (df.group_by("bin")
                .agg(n_pairs=pl.len().cast(pl.Int64),
                     n_pos=pl.col("gold").cast(pl.Int64).sum())
                .to_arrow().cast(_PART))

    rows = bucketed_sum_multi(
        res.scored.map_batches(partial, batch_format="pyarrow"),
        ["bin"], {"n_pairs": "n_pairs", "n_pos": "n_pos"}, num_buckets=2,
    ).to_pandas().sort_values("bin", ascending=False)

    out: list[tuple] = []
    cum_n = cum_p = 0
    for _, r in rows.iterrows():
        cum_n += int(r["n_pairs"])
        cum_p += int(r["n_pos"])
        out.append((int(r["bin"]), cum_n, cum_p,
                    cum_p * 1_000_000 // cum_n if cum_n else 0,
                    cum_p * 1_000_000 // total_pos if total_pos else 0))
    out.sort()
    return pa.table({
        "bin": pa.array([o[0] for o in out], type=pa.int64()),
        "cum_pairs": pa.array([o[1] for o in out], type=pa.int64()),
        "cum_pos": pa.array([o[2] for o in out], type=pa.int64()),
        "precision_e6": pa.array([o[3] for o in out], type=pa.int64()),
        "recall_e6": pa.array([o[4] for o in out], type=pa.int64()),
    })




LABEL_TOP_K = 5


def link_cluster_labels(sf_dir: str):
    """Human-readable LABELS for the flagship entity clusters: the
    top-5 most CHARACTERISTIC tokens per cluster by class-based TF-IDF
    (c-TF-IDF, the BERTopic labeling device: count(cluster, token) ·
    ln(N_clusters / df_clusters(token)) — frequency inside the entity,
    discounted by how many entities share the token), the column a
    review UI shows next to link_cluster_digest's counts so a human can
    tell WHAT each resolved entity is about.

    Shape: per-batch per-conv token-count partials (turn text never
    leaves its scan task) → ONE `hash_join` tags them with cluster ids
    (the digest's device — no broadcast of the O(convs) cluster map) →
    ONE (cluster, token) keyed sum → a skinny token-keyed sum for the
    cluster-df → ONE `hash_join` re-attaches df → deterministic
    `topk_per_group` (score desc, token asc).  Embeds the memoized
    flagship run → rows-only; label quality and determinism pinned in
    pytest."""
    import polars as pl

    from ..functions.grouping import (bucketed_sum, hash_join,
                                      topk_per_group)

    res, _ = _run(sf_dir)
    turns = _turns(sf_dir)

    _P = pa.schema([("conv_id", pa.string()), ("tok", pa.string()),
                    ("c", pa.int64())])

    def tok_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "conv_id" not in t.column_names:
            return _P.empty_table()
        df = pl.DataFrame({
            "conv_id": pl.from_arrow(t["conv_id"].combine_chunks()),
            "tok": pl.from_arrow(t["text"].combine_chunks())
            .str.to_lowercase().str.extract_all("[a-z0-9]+")}) \
            .explode("tok", empty_as_null=True).drop_nulls()
        if df.height == 0:
            return _P.empty_table()
        return (df.group_by(["conv_id", "tok"])
                .agg(c=pl.len().cast(pl.Int64)).to_arrow().cast(_P))

    parts = turns.map_batches(tok_partial, batch_format="pyarrow")
    tagged = hash_join(parts, res.clusters, "conv_id", num_buckets=16)

    _CT = pa.schema([("cluster_id", pa.string()), ("tok", pa.string()),
                     ("c_p", pa.int64())])

    def drop_conv(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "cluster_id" not in t.column_names:
            return _CT.empty_table()
        return pa.table({"cluster_id": t["cluster_id"], "tok": t["tok"],
                         "c_p": t["c"]}).cast(_CT)

    ct = bucketed_sum(tagged.map_batches(drop_conv,
                                         batch_format="pyarrow"),
                      ["cluster_id", "tok"], "c_p", "c").materialize()

    n_clusters = int(res.clusters.count())
    df_tok = bucketed_sum(
        ct.map_batches(
            lambda t: pa.table({
                "tok": t["tok"],
                "d_p": pa.array(np.ones(t.num_rows, dtype=np.int64))})
            if t.num_rows else pa.schema(
                [("tok", pa.string()), ("d_p", pa.int64())]).empty_table(),
            batch_format="pyarrow"),
        ["tok"], "d_p", "df")

    scored = hash_join(ct, df_tok, "tok", num_buckets=16)

    _S = pa.schema([("cluster_id", pa.string()), ("tok", pa.string()),
                    ("score_e4", pa.int64())])

    def score(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "cluster_id" not in t.column_names:
            return _S.empty_table()
        c = np.asarray(t["c"], dtype=np.float64)
        df = np.asarray(t["df"], dtype=np.float64)
        s = c * np.log(np.float64(n_clusters) / df)
        return pa.table({
            "cluster_id": t["cluster_id"], "tok": t["tok"],
            "score_e4": pa.array(np.floor(s * 10000 + 0.5)
                                 .astype(np.int64))}).cast(_S)

    return topk_per_group(
        scored.map_batches(score, batch_format="pyarrow"),
        "cluster_id", "score_e4", LABEL_TOP_K, tie_cols=["tok"],
        num_buckets=16)


def link_block_histogram(sf_dir: str):
    """Log₂-bucketed block-size histogram of the flagship blocker — the
    SKEW view the full inventory hides in 30k rows: how many blocks of
    size 2, 3–4, 5–8, …, how many members and C(n,2) candidate pairs
    each bucket contributes, and the share of the total pair budget at
    or above each size (cumulative from the top).  One glance answers
    "is the pair budget dominated by a few huge blocks" — the question
    the in-bucket salting (BLOCK caps) exists to keep bounded.

    Shape: block_inventory's keyed count → per-batch log₂-bucket
    partials → ONE ≤32-row keyed sum → exact-integer driver fold for
    the cumulative share."""
    import polars as pl

    from ..functions.grouping import bucketed_sum_multi
    from ..stages.blocking import add_block_keys, block_inventory
    from ..stages.featurize import featurize

    cfg = PipelineConfig()
    feats = featurize(canonicalize(_turns(sf_dir), 64), cfg)
    inv = block_inventory(add_block_keys(feats, cfg))

    _P = pa.schema([("b", pa.int64()), ("n_blocks", pa.int64()),
                    ("n_members", pa.int64()), ("n_pairs", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "count()" not in t.column_names:
            return _P.empty_table()
        n = np.asarray(t["count()"], dtype=np.int64)
        n = n[n >= 2]                      # singleton keys emit no pairs
        if len(n) == 0:
            return _P.empty_table()
        b = np.floor(np.log2(n)).astype(np.int64)
        return (pl.DataFrame({"b": b, "n_blocks": 1,
                              "n_members": n,
                              "n_pairs": n * (n - 1) // 2})
                .group_by("b")
                .agg(pl.col("n_blocks").sum().cast(pl.Int64),
                     pl.col("n_members").sum(), pl.col("n_pairs").sum())
                .to_arrow().cast(_P))

    h = bucketed_sum_multi(
        inv.map_batches(partial, batch_format="pyarrow"), ["b"],
        {"n_blocks": "n_blocks", "n_members": "n_members",
         "n_pairs": "n_pairs"}, num_buckets=2,
    ).to_pandas().sort_values("b", ascending=False)
    total_pairs = int(h["n_pairs"].sum())
    cum = h["n_pairs"].cumsum()
    share = (1_000_000 * cum // total_pairs) if total_pairs else cum * 0
    h = h.assign(cum_pair_share_e6=share).sort_values("b")
    return pa.table({
        "size_log2": pa.array(h["b"].to_numpy(np.int64)),
        "n_blocks": pa.array(h["n_blocks"].to_numpy(np.int64)),
        "n_members": pa.array(h["n_members"].to_numpy(np.int64)),
        "n_pairs": pa.array(h["n_pairs"].to_numpy(np.int64)),
        "cum_pair_share_from_top_e6": pa.array(
            h["cum_pair_share_e6"].to_numpy(np.int64)),
    })


THRESH_SWEEP_E2 = (50, 60, 70)


def link_threshold_sensitivity(sf_dir: str):
    """Stability of the flagship PARTITION under the match threshold —
    re-cluster the SAME scored pairs at 0.5 / 0.6 (config) / 0.7 and
    report each partition's cluster count plus its B-cubed F1 / ARI
    agreement with the config partition (the q125/`cluster_quality`
    fold): a deployment reads this before trusting entity ids near the
    operating point — a high-agreement plateau means the ids are robust
    to calibration drift; a cliff means link_pr_curve's band needs
    review.  NO re-scoring: clustering is the cheap tail, so the sweep
    re-runs ONLY star-contraction per threshold on filtered match
    edges.  (The comparison broadcasts the config partition — the
    golden-side device; at extreme scale the cell count would come from
    a cluster-keyed join instead.)"""
    import pyarrow.compute as pc

    from ..stages.clustering import cluster_matches

    res, cfg = _run(sf_dir)
    base_tbl = pa.concat_tables(
        [b for b in res.clusters.iter_batches(batch_format="pyarrow")
         if b.num_rows]).combine_chunks()
    universe = res.clusters

    rows = []
    for thr_e2 in THRESH_SWEEP_E2:
        thr = thr_e2 / 100.0

        def matches(t: pa.Table, _thr=thr) -> pa.Table:
            if t.num_rows == 0 or "score" not in t.column_names:
                return pa.schema([("conv_a", pa.string()),
                                  ("conv_b", pa.string())]).empty_table()
            keep = pc.greater_equal(t["score"], _thr)
            return t.filter(keep).select(["conv_a", "conv_b"])

        cl = cluster_matches(
            res.scored.map_batches(matches, batch_format="pyarrow"),
            universe, 64)
        rep = cluster_quality(
            cl, base_tbl.select(["conv_id", "cluster_id"])).to_pandas() \
            .set_index("metric")["value"]
        rows.append((thr_e2, int(rep["n_pred_clusters"]),
                     int(rep["bcubed_f1_e6"]), int(rep["ari_e6"])))

    return pa.table({
        "threshold_e2": pa.array([r[0] for r in rows], type=pa.int64()),
        "n_clusters": pa.array([r[1] for r in rows], type=pa.int64()),
        "b3_f1_vs_config_e6": pa.array([r[2] for r in rows],
                                       type=pa.int64()),
        "ari_vs_config_e6": pa.array([r[3] for r in rows],
                                     type=pa.int64()),
    })


def link_lsh_scurve(sf_dir: str):
    """Theoretical LSH S-curve of the FLAGSHIP band configuration —
    P(candidate | Jaccard s) = 1 − (1 − s^r)^b for the config's
    (b, r) at every 5%-similarity step: the table a blocking DESIGNER
    reads before touching `lsh_bands`/`lsh_rows` (it is exactly how the
    shipped r=1/b=24 choice is justified in config.py — miss probability
    (1−s)^24 ≤ 1% at s ≥ 0.25), published next to the MEASURED pairs
    completeness (link_blocking_quality) so theory and corpus sit on the
    same axis.  Pure closed form — the one ``queries()`` entry whose
    distributed cost is zero by design; the twin recomputes the
    identical float expression over a generated series."""
    cfg = PipelineConfig()
    b, r = cfg.lsh_bands, cfg.lsh_rows
    s = np.arange(5, 100, 5, dtype=np.int64)
    sf = s.astype(np.float64) / 100.0
    p = 1.0 - (1.0 - sf ** r) ** b
    return pa.table({
        "s_e2": pa.array(s),
        "bands": pa.array(np.full(len(s), b, dtype=np.int64)),
        "rows_per_band": pa.array(np.full(len(s), r, dtype=np.int64)),
        "p_candidate_e6": pa.array(
            np.floor(p * 1_000_000 + 0.5).astype(np.int64)),
    })


def _sql_lsh_scurve() -> str:
    cfg = PipelineConfig()
    b, r = cfg.lsh_bands, cfg.lsh_rows
    return f"""
SELECT CAST(s AS BIGINT) AS s_e2,
       CAST({b} AS BIGINT) AS bands,
       CAST({r} AS BIGINT) AS rows_per_band,
       CAST(floor((1.0 - power(1.0 - power(CAST(s AS DOUBLE) / 100.0,
                                           {r}), {b}))
                  * 1000000 + 0.5) AS BIGINT) AS p_candidate_e6
FROM (SELECT unnest(generate_series(5, 95, 5)) AS s)
"""


def cluster_digest(clusters: ray.data.Dataset,
                   turns: ray.data.Dataset) -> ray.data.Dataset:
    """Per-entity digest of a linkage result — the "entity table" a
    downstream consumer actually reads once clustering is done (the
    reference only ever emits per-mention solutions,
    eval/EvalOnDatasets.scala; the rollup is the deployment's product):
    one row per cluster with member count, total turns/chars, first and
    last activity, and a deterministic representative conversation
    (min conv_id — the q110 survivorship rule).

    Shape: per-batch per-conv turn partials (a conversation split
    across batches folds in the final exchange), ONE bucketed
    ``hash_join`` attaches cluster ids to the skinny partials, ONE
    cluster-keyed exchange folds members — turn text never crosses a
    shuffle (n_chars is computed at the scan)."""
    import polars as pl

    from ..functions.grouping import hash_exchange, hash_join

    _PART = pa.schema([("conv_id", pa.string()), ("n_turns", pa.int64()),
                       ("n_chars", pa.int64()), ("ts_min", pa.int64()),
                       ("ts_max", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "conv_id" not in t.column_names:
            return _PART.empty_table()
        df = pl.from_arrow(t.select(["conv_id", "text", "ts"]))
        return (df.with_columns(ts_us=pl.col("ts").cast(pl.Int64),
                                nc=pl.col("text").str.len_chars()
                                .cast(pl.Int64))
                .group_by("conv_id")
                .agg(n_turns=pl.len().cast(pl.Int64),
                     n_chars=pl.col("nc").sum(),
                     ts_min=pl.col("ts_us").min(),
                     ts_max=pl.col("ts_us").max())
                .to_arrow().cast(_PART))

    parts = turns.map_batches(partial, batch_format="pyarrow")
    tagged = hash_join(parts, clusters, "conv_id")

    _OUT = pa.schema([("cluster_id", pa.string()), ("n_convs", pa.int64()),
                      ("n_turns", pa.int64()), ("n_chars", pa.int64()),
                      ("ts_min", pa.int64()), ("ts_max", pa.int64()),
                      ("rep_conv", pa.string())])

    def fold(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "cluster_id" not in t.column_names:
            return _OUT.empty_table()
        return (pl.from_arrow(t).group_by("cluster_id")
                .agg(n_convs=pl.col("conv_id").n_unique().cast(pl.Int64),
                     n_turns=pl.col("n_turns").sum(),
                     n_chars=pl.col("n_chars").sum(),
                     ts_min=pl.col("ts_min").min(),
                     ts_max=pl.col("ts_max").max(),
                     rep_conv=pl.col("conv_id").min())
                .to_arrow().cast(_OUT))

    return hash_exchange(tagged, "cluster_id", fold, num_buckets=16)


def link_cluster_digest(sf_dir: str):
    """Entity digest of the flagship run (rows-only: clusters are the
    pipeline's own output, not SQL-derivable; invariants pinned in
    pytest against the golden corpus)."""
    res, _ = _run(sf_dir)
    return cluster_digest(res.clusters, _turns(sf_dir))


def link_scorer_differential(sf_dir: str):
    """Pluggable-scorer differential baseline (SURVEY §2.10/§5.2;
    reference LBP-vs-ARGMAX comparison, eval/EvalOnDatasets.scala:
    192-195): full scorer vs string-sim-only over the SAME attached pair
    set — micro P/R/F1 of both, decision overlap, and labeled score
    margins."""
    from ..stages.evaluate import scorer_differential

    res, cfg = _run(sf_dir)
    return scorer_differential(res.pairs, res.features, res.stats_ref,
                               _labels(sf_dir), cfg)


def link_scorer_lbp_differential(sf_dir: str):
    """The reference's LBP-vs-ARGMAX differential on the recast
    (eval/EvalOnDatasets.scala:192-195; CLI ``max-product|sum-product``,
    el/EL_LBP_Spark.scala:102-127): the max-product closed form
    (``full``) vs sum-product loopy BP (``SCORERS['lbp']``,
    stages/lbp.py) over the SAME attached pair set — micro P/R/F1 of
    both, decision overlap, labeled score margins."""
    from ..stages.evaluate import scorer_differential

    res, cfg = _run(sf_dir)
    return scorer_differential(res.pairs, res.features, res.stats_ref,
                               _labels(sf_dir), cfg, baseline="lbp")


RANK_BUCKETS = ((1, 1), (2, 2), (3, 3), (4, 8), (9, 16), (17, 32),
                (33, 64))   # reference bucket scheme,
                            # eval/cweb/GlobalCountersCWEB.scala:50-58


def link_rank_histogram(sf_dir: str):
    """Candidate-rank histogram (SURVEY §2 G10; reference
    GlobalCountersCWEB.scala:24-66): for every labeled TRUE pair, where
    does its counterpart rank among the query conversation's scored
    candidates, sorted by score desc (ties: partner id asc — the
    reference sorts its candidate list the same way)?  Buckets 1, 2, 3,
    4-8, 9-16, 17-32, 33-64, >64, plus ``not_in_candidates`` — labeled
    pairs the blocking stage never surfaced (the reference's
    numGoogleEntsNotInCandidatesList counter, its blocking-miss
    diagnostic).  Rows-only: the candidate set is the pipeline's own
    output, not SQL-derivable; conservation + planted-rank invariants
    pinned in pytest.

    Shape: labeled positives broadcast once as packed keys (evaluation
    labels are O(labeled pairs), small by construction); scored pairs
    re-keyed to BOTH endpoints through ONE conv-keyed exchange whose
    fold sorts each conversation's candidates and emits ≤|buckets|
    partials; one tiny keyed sum closes it."""
    import pyarrow.compute as pc

    from ..functions.grouping import bucketed_sum, hash_exchange
    from ..functions.hashing import pack_pairs_np

    res, _ = _run(sf_dir)
    labels = _labels(sf_dir)
    lt = labels.filter(pc.equal(labels["is_match"], True))

    def _conv_num(col) -> np.ndarray:
        """'conv-000834' → 834 (vectorized suffix parse)."""
        return np.char.partition(
            np.asarray(col, dtype=str), "-")[:, 2].astype(np.int64)

    la = _conv_num(lt["conv_a"])
    lb = _conv_num(lt["conv_b"])
    pos_keys = np.sort(pack_pairs_np(
        np.minimum(la, lb).astype(np.uint64),
        np.maximum(la, lb).astype(np.uint64)).view(np.int64))
    keys_ref = ray.put(pos_keys)
    n_pos = len(pos_keys)

    _ROWS = pa.schema([("q", pa.int64()), ("p", pa.int64()),
                       ("score_e9", pa.int64())])

    def rekey(t: pa.Table) -> pa.Table:
        """Each scored pair becomes two (query conv, partner, score)
        rows — the per-conversation candidate lists."""
        if t.num_rows == 0 or "conv_a" not in t.column_names:
            return _ROWS.empty_table()
        a = np.char.partition(
            np.asarray(t["conv_a"], dtype=str), "-")[:, 2].astype(np.int64)
        b = np.char.partition(
            np.asarray(t["conv_b"], dtype=str), "-")[:, 2].astype(np.int64)
        s = np.floor(np.asarray(t["score"]) * 1e9 + 0.5).astype(np.int64)
        return pa.table({
            "q": pa.array(np.concatenate([a, b])),
            "p": pa.array(np.concatenate([b, a])),
            "score_e9": pa.array(np.concatenate([s, s])),
        })

    names = [f"{lo}" if lo == hi else f"{lo}-{hi}"
             for lo, hi in RANK_BUCKETS] + [">64"]

    _PART = pa.schema([("bucket", pa.string()), ("n", pa.int64())])

    def fold(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "q" not in t.column_names:
            return _PART.empty_table()
        q = np.asarray(t["q"], dtype=np.int64)
        p = np.asarray(t["p"], dtype=np.int64)
        s = np.asarray(t["score_e9"], dtype=np.int64)
        # rank within each query conv: score desc, partner asc
        order = np.lexsort((p, -s, q))
        qs = q[order]
        newseg = np.r_[True, qs[1:] != qs[:-1]]
        seg_first = np.maximum.accumulate(
            np.where(newseg, np.arange(len(qs)), 0))
        rank = np.arange(len(qs)) - seg_first + 1          # 1-based
        # keep only the labeled-true (q, p) rows
        keys = ray.get(keys_ref)
        pk = pack_pairs_np(
            np.minimum(qs, p[order]).astype(np.uint64),
            np.maximum(qs, p[order]).astype(np.uint64)).view(np.int64)
        pos = np.searchsorted(keys, pk)
        hit = (pos < len(keys)) & (keys[np.minimum(pos, len(keys) - 1)]
                                   == pk)
        r = rank[hit]
        if not len(r):
            return _PART.empty_table()
        bidx = np.full(len(r), len(RANK_BUCKETS), dtype=np.int64)
        for i in range(len(RANK_BUCKETS) - 1, -1, -1):
            lo, hi = RANK_BUCKETS[i]
            bidx[(r >= lo) & (r <= hi)] = i
        cnt = np.bincount(bidx, minlength=len(names)).astype(np.int64)
        live = cnt > 0
        return pa.table({
            "bucket": pa.array(np.array(names, dtype=object)[live]),
            "n": pa.array(cnt[live]),
        })

    import pandas as pd

    cand_rows = res.scored.map_batches(rekey, batch_format="pyarrow")
    partials = hash_exchange(cand_rows, "q", fold, num_buckets=16)
    hist = bucketed_sum(partials, ["bucket"], "n", "n",
                        num_buckets=2).to_pandas()
    # each labeled pair is ranked from BOTH endpoints (the reference
    # counts per mention; a pair = two mentions)
    found = int(hist["n"].sum())
    missing = 2 * n_pos - found
    out = pd.concat([hist, pd.DataFrame(
        [{"bucket": "not_in_candidates", "n": missing}])],
        ignore_index=True)
    return out.sort_values("bucket").reset_index(drop=True)


def link_lbp_convergence(sf_dir: str):
    """Per-pair-size LBP convergence report (rows-only: telemetry of the
    pipeline's own inference loop, not SQL-derivable) — the reference's
    per-doc-size convergence % / avg-iteration table
    (LBPTimeConvergence.scala:7, eval/GlobalStats.scala:200-209): score
    the flagship pair set with ``SCORERS['lbp']`` and fold the per-pair
    (iters, converged, live-token) telemetry into ≤|buckets| rows."""
    from dataclasses import replace as dc_replace

    from ..stages.evaluate import lbp_convergence_report
    from ..stages.scoring import attach_features, score_pairs

    res, cfg = _run(sf_dir)
    attached = attach_features(res.pairs, res.features, 64)
    scored = score_pairs(attached, res.stats_ref,
                         dc_replace(cfg, scorer="lbp"))
    return lbp_convergence_report(scored)


def _lines_file(sf_dir: str) -> str:
    """Deterministic TSV-lines twin of the corpus turns table (S5 reader
    input), built once beside the corpus cache (atomic tmp+rename)."""
    import pyarrow.parquet as pq

    d = ensure_corpus(CORPUS_CACHE, sf_to_n_convs(sf_dir))
    p = os.path.join(d, "turn_lines.parquet")
    if not os.path.exists(p):
        import polars as pl

        t = pq.read_table(os.path.join(d, "turns.parquet"),
                          columns=["conv_id", "turn_idx", "role", "tool",
                                   "text"])
        df = pl.from_arrow(t)
        lines = df.select(pl.concat_str([
            pl.col("conv_id"), pl.col("turn_idx").cast(pl.String),
            pl.col("role"), pl.col("tool"), pl.col("text"),
        ], separator="\t").alias("text"))
        tmp = p + ".tmp"
        pq.write_table(lines.to_arrow(), tmp)
        os.replace(tmp, p)
    return p


def link_parse_lines(sf_dir: str):
    """S5 line-parser reader, oracle-checked end-to-end: TSV turn lines →
    vectorized batch parser → canonical turns schema (sources/
    text_lines.py; reference ad-hoc line parser:
    src/main/scala/learning/FewParamsLearning.scala:51-65)."""
    from ..sources.text_lines import parse_turn_lines

    return read_parquet_clean(_lines_file(sf_dir)).map_batches(
        parse_turn_lines, batch_format="pyarrow")


SQL_PARSE_LINES = f"""
SELECT split_part(text, chr(9), 1) AS conv_id,
       CAST(split_part(text, chr(9), 2) AS INTEGER) AS turn_idx,
       split_part(text, chr(9), 3) AS role,
       split_part(text, chr(9), 4) AS tool,
       split_part(text, chr(9), 5) AS text
FROM read_parquet('{corpus_dir(CORPUS_CACHE, 2000)}/turn_lines.parquet')
"""


def link_turn_quality(sf_dir: str):
    """Per-conversation transcript-quality stats — the dialogue analog
    of the documents table's q08 quality score: turn count, tool-call
    rate (e4), role-alternation violations (consecutive same-role
    turns — a malformed-transcript smell), and total text size.  ONE
    bucketed exchange on conv_id (a conversation's turns must co-locate
    for the ordered lag), then a vectorized polars window per bucket;
    same shuffle discipline as canonicalize."""
    import polars as pl

    from ..functions.grouping import hash_exchange

    turns = _turns(sf_dir).select_columns(
        ["conv_id", "turn_idx", "role", "tool", "text"])

    def per_conv(t: pa.Table) -> pa.Table:
        empty = pa.table({
            "conv_id": pa.array([], type=pa.string()),
            "n_turns": pa.array([], type=pa.int64()),
            "n_tool_turns": pa.array([], type=pa.int64()),
            "tool_rate_e4": pa.array([], type=pa.int64()),
            "n_role_repeats": pa.array([], type=pa.int64()),
            "n_chars": pa.array([], type=pa.int64()),
        })
        if t.num_rows == 0 or "conv_id" not in t.column_names:
            return empty
        df = (pl.from_arrow(t).sort(["conv_id", "turn_idx"])
              .group_by("conv_id", maintain_order=True)
              .agg(
                  n_turns=pl.len().cast(pl.Int64),
                  n_tool_turns=(pl.col("tool") != "").sum()
                                                     .cast(pl.Int64),
                  n_role_repeats=(pl.col("role")
                                  == pl.col("role").shift(1))
                  .fill_null(False).sum().cast(pl.Int64),
                  n_chars=pl.col("text").str.len_chars().sum()
                                        .cast(pl.Int64),
              )
              .with_columns(tool_rate_e4=(10_000 * pl.col("n_tool_turns"))
                            // pl.col("n_turns"))
              .select(["conv_id", "n_turns", "n_tool_turns",
                       "tool_rate_e4", "n_role_repeats", "n_chars"]))
        out = df.to_arrow()
        return out.cast(empty.schema)

    return hash_exchange(turns, "conv_id", per_conv)


SQL_TURN_QUALITY = f"""
WITH t AS (
  SELECT conv_id, turn_idx, role, tool, text,
         lag(role) OVER (PARTITION BY conv_id ORDER BY turn_idx)
             AS prev_role
  FROM read_parquet('{_SQL_TURNS}')
)
SELECT conv_id,
       CAST(count(*) AS BIGINT) AS n_turns,
       CAST(sum(CASE WHEN tool <> '' THEN 1 ELSE 0 END) AS BIGINT)
           AS n_tool_turns,
       CAST(10000 * sum(CASE WHEN tool <> '' THEN 1 ELSE 0 END)
            // count(*) AS BIGINT) AS tool_rate_e4,
       CAST(sum(CASE WHEN role = prev_role THEN 1 ELSE 0 END) AS BIGINT)
           AS n_role_repeats,
       CAST(sum(length(text)) AS BIGINT) AS n_chars
FROM t GROUP BY conv_id
"""


def link_tool_latency(sf_dir: str):
    """Per-tool execution latency over the transcripts — for every
    tool-role turn, the exact-µs gap to the NEXT turn in its
    conversation (the tool-call round-trip a transcript records), rolled
    up per tool: call count, completed count (a next turn exists), total
    / max / floor-mean latency.  The operational-telemetry view of the
    turns table an agent-platform team reads daily.

    Shape: a conversation's turns co-locate through ONE conv_id
    exchange (the canonicalize discipline — the lag needs intra-conv
    order), each bucket emits O(tools) exact-integer partials, and the
    finishing groupby moves O(buckets × tools) rows.  Timestamps cross
    engines as ``epoch_us`` exact BIGINTs; ts is monotone in turn_idx
    (corpus invariant), so every sum/mean stays non-negative and
    Python-floor == DuckDB-trunc."""
    import polars as pl

    from ..functions.grouping import hash_exchange

    turns = _turns(sf_dir).select_columns(
        ["conv_id", "turn_idx", "role", "tool", "ts"])

    partial_schema = pa.schema([
        ("tool", pa.string()), ("n_calls_p", pa.int64()),
        ("n_completed_p", pa.int64()), ("total_us_p", pa.int64()),
        ("max_us_p", pa.int64())])

    def per_conv(t: pa.Table) -> pa.Table:
        empty = pa.table({f.name: pa.array([], type=f.type)
                          for f in partial_schema})
        if t.num_rows == 0 or "conv_id" not in t.column_names:
            return empty
        df = (pl.from_arrow(t).sort(["conv_id", "turn_idx"])
              .with_columns(pl.col("ts").dt.epoch(time_unit="us")
                            .alias("us"))
              .with_columns(pl.col("us").shift(-1).over("conv_id")
                            .alias("nxt"))
              .filter(pl.col("role") == "tool")
              .with_columns((pl.col("nxt") - pl.col("us")).alias("gap")))
        g = (df.group_by("tool")
             .agg(pl.len().cast(pl.Int64).alias("n_calls_p"),
                  pl.col("gap").drop_nulls().len().cast(pl.Int64)
                    .alias("n_completed_p"),
                  pl.col("gap").sum().fill_null(0).cast(pl.Int64)
                    .alias("total_us_p"),
                  pl.col("gap").max().fill_null(0).cast(pl.Int64)
                    .alias("max_us_p")))
        return g.to_arrow().cast(partial_schema)

    # the direct exchange, not the sort groupby: with the timestamp
    # column aboard, the sort engine measured 3.8-5.2 s at sf0.1 vs
    # 1.1 s for the exchange on the identical input
    partials = hash_exchange(turns, "conv_id", per_conv)

    # the partial stream is O(buckets × tools) skinny rows — fold it on
    # the driver (the q55/q125 device) instead of paying a native
    # groupby's aggregator-pool spin-up for a dozen output rows
    acc: dict[str, list[int]] = {}
    for t in partials.iter_batches(batch_format="pyarrow"):
        for tool, nc, ncp, tot, mx in zip(
                t["tool"].to_pylist(), t["n_calls_p"].to_pylist(),
                t["n_completed_p"].to_pylist(), t["total_us_p"].to_pylist(),
                t["max_us_p"].to_pylist()):
            a = acc.setdefault(tool, [0, 0, 0, 0])
            a[0] += nc
            a[1] += ncp
            a[2] += tot
            a[3] = max(a[3], mx)
    tools = sorted(acc)
    return pa.table({
        "tool": pa.array(tools, type=pa.string()),
        "n_calls": pa.array([acc[k][0] for k in tools], type=pa.int64()),
        "n_completed": pa.array([acc[k][1] for k in tools],
                                type=pa.int64()),
        "total_us": pa.array([acc[k][2] for k in tools], type=pa.int64()),
        "max_us": pa.array([acc[k][3] for k in tools], type=pa.int64()),
        "mean_us": pa.array(
            [acc[k][2] // acc[k][1] if acc[k][1] else 0 for k in tools],
            type=pa.int64()),
    })


SQL_TOOL_LATENCY = f"""
WITH o AS (
  SELECT conv_id, role, tool, epoch_us(ts) AS us,
         lead(epoch_us(ts)) OVER (PARTITION BY conv_id ORDER BY turn_idx)
             AS nxt
  FROM read_parquet('{_SQL_TURNS}')
),
t AS (SELECT tool, nxt - us AS gap FROM o WHERE role = 'tool')
SELECT tool,
       CAST(count(*) AS BIGINT) AS n_calls,
       CAST(count(gap) AS BIGINT) AS n_completed,
       CAST(COALESCE(SUM(gap), 0) AS BIGINT) AS total_us,
       CAST(COALESCE(MAX(gap), 0) AS BIGINT) AS max_us,
       CAST(CASE WHEN count(gap) = 0 THEN 0
            ELSE SUM(gap) // count(gap) END AS BIGINT) AS mean_us
FROM t GROUP BY tool
"""


def link_boilerplate_turns(sf_dir: str, min_convs: int = 3):
    """Canned-message / boilerplate detection over the turns table: the
    exact turn texts appearing in ≥ ``min_convs`` DISTINCT conversations
    (system prompts, templated greetings, tool banners) — the transcript
    analog of the documents' stop-shingle guard, and the first thing a
    transcript curation pass strips before training.

    Per-batch partial: distinct (text, conv, occurrences-in-batch) rows
    — O(distinct pairs per batch) — cross ONE exchange keyed on the
    text; each bucket counts distinct conversations and sums
    occurrences, applying the HAVING in-bucket so only boilerplate rows
    leave."""
    import polars as pl

    from ..functions.grouping import hash_exchange

    turns = _turns(sf_dir).select_columns(["conv_id", "text"])

    def partial(t: pa.Table) -> pa.Table:
        return (pl.from_arrow(t).group_by(["text", "conv_id"])
                .len(name="n_part")
                .with_columns(pl.col("n_part").cast(pl.Int64))
                .to_arrow())

    empty = pa.table({
        "text": pa.array([], type=pa.string()),
        "n_convs": pa.array([], type=pa.int64()),
        "n_occurrences": pa.array([], type=pa.int64())})

    def bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "text" not in t.column_names:
            return empty
        df = (pl.from_arrow(t).group_by("text")
              .agg(n_convs=pl.col("conv_id").n_unique().cast(pl.Int64),
                   n_occurrences=pl.col("n_part").sum())
              .filter(pl.col("n_convs") >= min_convs))
        return df.to_arrow().cast(empty.schema)

    part = turns.map_batches(partial, batch_format="pyarrow")
    return hash_exchange(part, "text", bucket, num_buckets=16)


SQL_BOILERPLATE = f"""
SELECT text,
       CAST(count(DISTINCT conv_id) AS BIGINT) AS n_convs,
       CAST(count(*) AS BIGINT) AS n_occurrences
FROM read_parquet('{_SQL_TURNS}')
GROUP BY text
HAVING count(DISTINCT conv_id) >= 3
"""


SFT_CTX_TURNS = 3


def link_sft_pairs(sf_dir: str):
    """SFT training-pair assembly from transcripts: for every assistant
    turn (past the opening turn), the concatenation of up to the
    previous SFT_CTX_TURNS turns as ``role: text`` lines → ``context``,
    with the assistant's own text as ``target`` — the
    conversation-to-training-example op every chat-model data pipeline
    runs.

    ONE bucketed exchange on conv_id (a conversation's turns must
    co-locate, same discipline as canonicalize), then a vectorized
    polars window per bucket: sort by (conv, turn), three shifts over
    the conv partition, null-skipping concat."""
    import polars as pl

    from ..functions.grouping import hash_exchange

    turns = _turns(sf_dir).select_columns(
        ["conv_id", "turn_idx", "role", "text"])

    empty = pa.table({
        "conv_id": pa.array([], type=pa.string()),
        "turn_idx": pa.array([], type=pa.int64()),
        "context": pa.array([], type=pa.string()),
        "target": pa.array([], type=pa.string())})

    def per_conv(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "conv_id" not in t.column_names:
            return empty
        df = (pl.from_arrow(t).sort(["conv_id", "turn_idx"])
              .with_columns(
                  fmt=pl.col("role") + pl.lit(": ") + pl.col("text")))
        shifts = [pl.col("fmt").shift(k).over("conv_id").alias(f"p{k}")
                  for k in range(SFT_CTX_TURNS, 0, -1)]
        out = (df.with_columns(*shifts)
               .filter((pl.col("role") == "assistant")
                       & (pl.col("turn_idx") > 0))
               .select(
                   "conv_id",
                   pl.col("turn_idx").cast(pl.Int64),
                   pl.concat_str(
                       [pl.col(f"p{k}")
                        for k in range(SFT_CTX_TURNS, 0, -1)],
                       separator="\n", ignore_nulls=True).alias("context"),
                   pl.col("text").alias("target")))
        return out.to_arrow().cast(empty.schema)

    return hash_exchange(turns, "conv_id", per_conv)


CTX_WIN_W = 4   # turns per window
CTX_WIN_S = 2   # window stride (W/S = 2 memberships per turn)


def link_context_windows(sf_dir: str):
    """Sliding turn-window assembly for retrieval corpora: every
    conversation becomes overlapping windows of CTX_WIN_W turns at
    stride CTX_WIN_S — the conversation analog of q46's document
    chunking and the unit a RAG index embeds (link_sft_pairs cuts
    fixed context for SFT targets; this cuts the retrieval view).

    ONE bucketed exchange on conv_id, then pure vectorized frames: a
    turn at in-conv position r belongs to exactly W/S = 2 windows
    (start r−(r%S) and that minus S when ≥ 0), so membership is a
    two-frame concat — no per-window loop — and one group_by
    assembles every window's ordered text."""
    import polars as pl

    from ..functions.grouping import hash_exchange

    turns = _turns(sf_dir).select_columns(["conv_id", "turn_idx", "text"])

    empty = pa.table({
        "conv_id": pa.array([], type=pa.string()),
        "win_idx": pa.array([], type=pa.int64()),
        "n_turns": pa.array([], type=pa.int64()),
        "win_text": pa.array([], type=pa.string())})

    def per_conv(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "conv_id" not in t.column_names:
            return empty
        base = (pl.from_arrow(t).sort(["conv_id", "turn_idx"])
                .with_columns(
                    r=pl.int_range(pl.len()).over("conv_id")))
        ws1 = pl.col("r") - (pl.col("r") % CTX_WIN_S)
        m1 = base.with_columns(ws=ws1)
        m0 = (base.with_columns(ws=ws1 - CTX_WIN_S)
              .filter(pl.col("ws") >= 0))
        out = (pl.concat([m1, m0])
               .group_by(["conv_id", "ws"])
               .agg(n_turns=pl.len().cast(pl.Int64),
                    win_text=pl.col("text").sort_by("r")
                    .str.join("\n"))
               .with_columns(win_idx=(pl.col("ws") // CTX_WIN_S)
                             .cast(pl.Int64))
               .select(["conv_id", "win_idx", "n_turns", "win_text"]))
        return out.to_arrow().cast(empty.schema)

    return hash_exchange(turns, "conv_id", per_conv)


SQL_CONTEXT_WINDOWS = f"""
WITH t AS (
  SELECT conv_id, text,
         row_number() OVER (PARTITION BY conv_id ORDER BY turn_idx) - 1
           AS r
  FROM read_parquet('{_SQL_TURNS}')
), m AS (
  SELECT conv_id, text, r, r - (r % {CTX_WIN_S}) AS ws FROM t
  UNION ALL
  SELECT conv_id, text, r, r - (r % {CTX_WIN_S}) - {CTX_WIN_S} FROM t
  WHERE r - (r % {CTX_WIN_S}) - {CTX_WIN_S} >= 0
)
SELECT conv_id, CAST(ws // {CTX_WIN_S} AS BIGINT) AS win_idx,
       CAST(count(*) AS BIGINT) AS n_turns,
       string_agg(text, chr(10) ORDER BY r) AS win_text
FROM m GROUP BY conv_id, ws
"""


SQL_SFT_PAIRS = f"""
WITH w AS (
  SELECT conv_id, turn_idx, role, text,
         lag(role || ': ' || text, 3) OVER win AS p3,
         lag(role || ': ' || text, 2) OVER win AS p2,
         lag(role || ': ' || text, 1) OVER win AS p1
  FROM read_parquet('{_SQL_TURNS}')
  WINDOW win AS (PARTITION BY conv_id ORDER BY turn_idx)
)
SELECT conv_id, CAST(turn_idx AS BIGINT) AS turn_idx,
       concat_ws(chr(10), p3, p2, p1) AS context, text AS target
FROM w WHERE role = 'assistant' AND turn_idx > 0
"""


def link_transition_matrix(sf_dir: str):
    """Conversation-structure mining: the global transition matrices of
    (a) ROLE sequences over all turns and (b) TOOL sequences over the
    tool-call turns — (kind, a, b) → transition count and the number of
    distinct conversations exhibiting it.  The Markov-structure summary
    a transcript-curation pass uses to spot malformed dialogue shapes
    and dominant tool workflows.

    ONE bucketed exchange on conv_id; a conversation lives entirely in
    one bucket, so per-bucket distinct-conv counts SUM exactly across
    buckets — both matrices come out of one vectorized shift pass per
    bucket plus an O(kinds × pairs) final combine."""
    import polars as pl

    from ..functions.grouping import bucketed_sum_multi, hash_exchange

    turns = _turns(sf_dir).select_columns(
        ["conv_id", "turn_idx", "role", "tool"])

    empty = pa.table({
        "kind": pa.array([], type=pa.string()),
        "a": pa.array([], type=pa.string()),
        "b": pa.array([], type=pa.string()),
        "n_transitions": pa.array([], type=pa.int64()),
        "n_convs": pa.array([], type=pa.int64())})

    def per_bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "conv_id" not in t.column_names:
            return empty

        def trans(df: "pl.DataFrame", col: str, kind: str) -> "pl.DataFrame":
            w = (df.sort(["conv_id", "turn_idx"])
                 .with_columns(a=pl.col(col).shift(1).over("conv_id"))
                 .filter(pl.col("a").is_not_null()))
            return (w.group_by(["a", col])
                    .agg(n_transitions=pl.len().cast(pl.Int64),
                         n_convs=pl.col("conv_id").n_unique()
                         .cast(pl.Int64))
                    .rename({col: "b"})
                    .with_columns(kind=pl.lit(kind))
                    .select(["kind", "a", "b",
                             "n_transitions", "n_convs"]))

        df = pl.from_arrow(t)
        out = pl.concat([
            trans(df, "role", "role"),
            trans(df.filter(pl.col("tool") != ""), "tool", "tool"),
        ])
        return out.to_arrow().cast(empty.schema)

    part = hash_exchange(turns, "conv_id", per_bucket)
    # a conv is in exactly one bucket → summing partial n_convs is exact
    return bucketed_sum_multi(part, ["kind", "a", "b"],
                              {"n_transitions": "n_transitions",
                               "n_convs": "n_convs"},
                              num_buckets=4)


SQL_TRANSITIONS = f"""
WITH r AS (
  SELECT conv_id, role AS b,
         lag(role) OVER (PARTITION BY conv_id ORDER BY turn_idx) AS a
  FROM read_parquet('{_SQL_TURNS}')),
t AS (
  SELECT conv_id, tool AS b,
         lag(tool) OVER (PARTITION BY conv_id ORDER BY turn_idx) AS a
  FROM read_parquet('{_SQL_TURNS}') WHERE tool <> '')
SELECT 'role' AS kind, a, b,
       CAST(count(*) AS BIGINT) AS n_transitions,
       CAST(count(DISTINCT conv_id) AS BIGINT) AS n_convs
FROM r WHERE a IS NOT NULL GROUP BY a, b
UNION ALL
SELECT 'tool', a, b, CAST(count(*) AS BIGINT),
       CAST(count(DISTINCT conv_id) AS BIGINT)
FROM t WHERE a IS NOT NULL GROUP BY a, b
"""


SFT_MIN_TURNS = 4        # quality gate: conversations shorter than this
SFT_TRAIN_MOD = 8        # md5(conv) % 10 < 8 → train, else val


def link_sft_corpus(sf_dir: str):
    """The END-TO-END transcript→SFT-corpus pipeline, composed and
    oracle-paired as ONE query — what a chat-model data team actually
    ships: exact-duplicate conversations collapse to one representative,
    malformed conversations are gated out (≥SFT_MIN_TURNS turns, zero
    role repeats), boilerplate turns (text in ≥3 distinct convs) are
    stripped, surviving assistant turns become (context, target) pairs,
    and every pair carries a leakage-safe deterministic train/val split
    hashed on the conversation (duplicate convs can't straddle splits —
    they were collapsed first).

    THREE exchanges total: (1) canonicalize + keep-min-conv per doc →
    the skinny rep set; (2) text-keyed boilerplate mining (bounded by
    the stop-key argument → driver-collected + broadcast); (3) ONE
    conv_id semi-join exchange of the raw turns against the rep set,
    with the ENTIRE per-conversation tail — quality gate, boilerplate
    strip, window assembly, split hash — fused into the bucket task
    (``post``): raw turns cross the wire exactly once.

    md5 is the oracle-parity hash (functions/hashing.md5_lower64 ==
    DuckDB md5_number_lower); production paths use xxhash."""
    import polars as pl

    from ..functions.grouping import _bcast_frame, hash_join

    turns = _turns(sf_dir).select_columns(
        ["conv_id", "turn_idx", "role", "text"])

    # (1) exact-dup representatives: min conv per canonical doc
    reps = link_dedup_exact(sf_dir).map_batches(
        lambda t: t.select(["conv_id"]), batch_format="pyarrow")

    # (2) boilerplate texts — bounded (df ≥ 3 stop keys), broadcast once
    bp = pa.concat_tables(
        b.select(["text"]).cast(pa.schema([("text", pa.string())]))
        for b in link_boilerplate_turns(sf_dir)
        .iter_batches(batch_format="pyarrow"))
    bp_ref = ray.put(bp)

    empty = pa.table({
        "conv_id": pa.array([], type=pa.string()),
        "turn_idx": pa.array([], type=pa.int64()),
        "context": pa.array([], type=pa.string()),
        "target": pa.array([], type=pa.string()),
        "split": pa.array([], type=pa.string())})

    def assemble(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        df = pl.from_arrow(t).sort(["conv_id", "turn_idx"])
        # quality gate on the ORIGINAL turns of each conversation
        stats = (df.group_by("conv_id")
                 .agg(n=pl.len(),
                      reps=(pl.col("role") == pl.col("role").shift(1))
                      .fill_null(False).sum()))
        good = stats.filter((pl.col("n") >= SFT_MIN_TURNS)
                            & (pl.col("reps") == 0)).select("conv_id")
        kept = (df.join(good, on="conv_id", how="semi")
                .join(_bcast_frame(bp_ref), left_on="text",
                      right_on="text", how="anti"))
        if len(kept) == 0:
            return empty
        kept = kept.with_columns(
            fmt=pl.col("role") + pl.lit(": ") + pl.col("text"))
        shifts = [pl.col("fmt").shift(k).over("conv_id").alias(f"p{k}")
                  for k in range(3, 0, -1)]
        pairs = (kept.with_columns(*shifts)
                 .filter((pl.col("role") == "assistant")
                         & pl.col("p1").is_not_null()))
        convs = pairs["conv_id"].unique().to_list()
        lab = pl.DataFrame({
            "conv_id": convs,
            "split": ["train" if md5_lower64(c) % 10 < SFT_TRAIN_MOD
                      else "val" for c in convs]})
        out = (pairs.join(lab, on="conv_id")
               .select("conv_id", pl.col("turn_idx").cast(pl.Int64),
                       pl.concat_str([pl.col(f"p{k}")
                                      for k in range(3, 0, -1)],
                                     separator="\n",
                                     ignore_nulls=True).alias("context"),
                       pl.col("text").alias("target"), "split"))
        return out.to_arrow().cast(empty.schema)

    # (3) raw turns cross ONE exchange (semi vs reps), full tail fused
    return hash_join(turns, reps, "conv_id", how="semi", post=assemble)


SQL_SFT_CORPUS = f"""
WITH {_SQL_CONV_DOCS},
reps AS (SELECT min(conv_id) AS conv_id FROM conv_docs
         GROUP BY mention_doc),
qual AS (
  SELECT conv_id FROM (
    SELECT conv_id, count(*) AS n,
           sum(CASE WHEN role = prev_role THEN 1 ELSE 0 END) AS n_reps
    FROM (SELECT conv_id, role,
                 lag(role) OVER (PARTITION BY conv_id ORDER BY turn_idx)
                     AS prev_role
          FROM read_parquet('{_SQL_TURNS}'))
    GROUP BY conv_id)
  WHERE n >= {SFT_MIN_TURNS} AND n_reps = 0),
bp AS (SELECT text FROM read_parquet('{_SQL_TURNS}')
       GROUP BY text HAVING count(DISTINCT conv_id) >= 3),
kept AS (
  SELECT t.conv_id, t.turn_idx, t.role, t.text
  FROM read_parquet('{_SQL_TURNS}') t
  JOIN reps USING (conv_id) JOIN qual USING (conv_id)
  WHERE t.text NOT IN (SELECT text FROM bp)),
w AS (
  SELECT conv_id, turn_idx, role, text,
         lag(role || ': ' || text, 3) OVER win AS p3,
         lag(role || ': ' || text, 2) OVER win AS p2,
         lag(role || ': ' || text, 1) OVER win AS p1
  FROM kept WINDOW win AS (PARTITION BY conv_id ORDER BY turn_idx))
SELECT conv_id, CAST(turn_idx AS BIGINT) AS turn_idx,
       concat_ws(chr(10), p3, p2, p1) AS context, text AS target,
       CASE WHEN md5_number_lower(conv_id) % 10 < {SFT_TRAIN_MOD}
            THEN 'train' ELSE 'val' END AS split
FROM w WHERE role = 'assistant' AND p1 IS NOT NULL
"""


_INC_CACHE: dict[str, object] = {}


def link_incremental(sf_dir: str):
    """Incremental linkage: the deterministic ~20% slice of the corpus
    (xxhash(conv_id) % 5 == 0) arrives as a NEW batch and attaches to a
    base run over the other ~80% — clusters over the union, base pairs
    never re-scored, frozen base statistics (pipelines/incremental.py).
    rows-only: frozen-stats scoring is not SQL-expressible; pytest pins
    pairwise agreement with the full-corpus run and determinism."""
    out = _INC_CACHE.get(sf_dir)
    if out is not None:
        return out

    from ..functions.hashing import hash_strings_u64
    from .incremental import run_incremental

    def split(want_new: bool):
        def f(t: pa.Table) -> pa.Table:
            if t.num_rows == 0 or "conv_id" not in t.column_names:
                return t
            h = hash_strings_u64(t["conv_id"])
            m = (h % np.uint64(5)) == 0
            return t.filter(pa.array(m if want_new else ~m))

        return f

    turns = _turns(sf_dir)
    base_turns = turns.map_batches(split(False), batch_format="pyarrow")
    new_turns = turns.map_batches(split(True), batch_format="pyarrow")
    base = run_linkage(base_turns, PipelineConfig())
    inc = run_incremental(base, new_turns, PipelineConfig())
    out = inc.clusters.materialize()
    _INC_CACHE[sf_dir] = out
    return out


SEG_JAC_TH_E4 = 500   # consecutive-turn Jaccard below 0.05 ⇒ topic break


def link_topic_segments(sf_dir: str):
    """Conversation topic segmentation: a transcript splits where the
    token-set Jaccard between consecutive turns drops below
    SEG_JAC_TH_E4 — the curation op that bounds how many distinct
    topics one conversation mixes (feeds the SFT-corpus packer's
    context-window decisions).  ONE conv-keyed exchange co-locates
    each transcript; inside the bucket everything is vectorized list
    ops over the (conv_id, turn_idx)-sorted frame — tokenize →
    list.unique → shift(1) → set_intersection — and the similarity is
    the exact integer (inter·10⁴)//union (non-negative, so polars
    floor-div and DuckDB trunc-div agree); adjacent empty turns count
    as identical (jac 10⁴) in both engines.  Per-conv aggregates are
    final in the bucket (no second shuffle); sum_jac_e4 stays an exact
    int64 so no float reduction crosses the engine boundary."""
    import polars as pl

    from ..functions.grouping import hash_exchange

    t = _turns(sf_dir).map_batches(
        lambda b: b.select(["conv_id", "turn_idx", "text"]),
        batch_format="pyarrow")

    _OUT = pa.schema([("conv_id", pa.string()), ("n_turns", pa.int64()),
                      ("n_segments", pa.int64()),
                      ("sum_jac_e4", pa.int64())])

    def seg_bucket(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "conv_id" not in b.column_names:
            return _OUT.empty_table()
        df = (pl.from_arrow(b).sort(["conv_id", "turn_idx"])
              .with_columns(toks=pl.col("text").str.to_lowercase()
                            .str.extract_all("[a-z0-9]+").list.unique()))
        df = df.with_columns(prev=pl.col("toks").shift(1).over("conv_id"))
        df = df.with_columns(
            la=pl.col("toks").list.len().cast(pl.Int64),
            lp=pl.col("prev").list.len().cast(pl.Int64),
            inter=pl.col("toks").list.set_intersection(pl.col("prev"))
                    .list.len().cast(pl.Int64))
        df = df.with_columns(
            den=pl.col("la") + pl.col("lp") - pl.col("inter"))
        df = df.with_columns(
            jac=pl.when(pl.col("prev").is_null())
                  .then(None)
                  .when(pl.col("den") == 0).then(10000)
                  .otherwise((pl.col("inter") * 10000) // pl.col("den"))
                  .cast(pl.Int64))
        out = df.group_by("conv_id").agg(
            n_turns=pl.len().cast(pl.Int64),
            n_segments=((pl.col("jac") < SEG_JAC_TH_E4).sum()
                        .fill_null(0).cast(pl.Int64) + 1),
            sum_jac_e4=pl.col("jac").sum().fill_null(0).cast(pl.Int64))
        return out.to_arrow().cast(_OUT)

    return hash_exchange(t, "conv_id", seg_bucket, num_buckets=32)


SQL_TOPIC_SEGMENTS = f"""
WITH t AS (
  SELECT conv_id, turn_idx,
         list_distinct(regexp_extract_all(lower(text), '[a-z0-9]+'))
           AS toks
  FROM read_parquet('{_SQL_TURNS}')
),
p AS (
  SELECT conv_id, toks,
         lag(toks) OVER (PARTITION BY conv_id ORDER BY turn_idx) AS prev
  FROM t
),
j AS (
  SELECT conv_id,
         CASE
           WHEN prev IS NULL THEN NULL
           WHEN CAST(len(toks) AS BIGINT) + CAST(len(prev) AS BIGINT)
                - CAST(len(list_intersect(toks, prev)) AS BIGINT) = 0
             THEN 10000
           ELSE (CAST(len(list_intersect(toks, prev)) AS BIGINT) * 10000)
                // (CAST(len(toks) AS BIGINT) + CAST(len(prev) AS BIGINT)
                    - CAST(len(list_intersect(toks, prev)) AS BIGINT))
         END AS jac_e4
  FROM p
)
SELECT conv_id, CAST(count(*) AS BIGINT) AS n_turns,
       CAST(coalesce(sum(CASE WHEN jac_e4 < {SEG_JAC_TH_E4} THEN 1 END),
                     0) + 1 AS BIGINT) AS n_segments,
       CAST(coalesce(sum(jac_e4), 0) AS BIGINT) AS sum_jac_e4
FROM j GROUP BY 1
"""


def link_protocol_gate(sf_dir: str):
    """Transcript protocol-violation gate — the q79 data-expectations
    pattern applied to conversation STRUCTURE, emitting only offending
    conversations: a well-formed agent transcript starts with a user
    turn, ends with an assistant turn, never repeats a role back-to-back
    (link_turn_quality reports that count for every conv; this gate
    isolates the offenders), and only fires tool turns directly after an
    assistant turn (an orphan tool call is a truncated or re-ordered
    log).  The violations-only output is what makes it a 100 TB gate:
    downstream quarantine joins against O(bad convs), not O(convs).

    ONE bucketed exchange on conv_id (ordered lags need co-located
    turns), a vectorized polars window per bucket, in-bucket filter so
    clean conversations never leave the bucket task."""
    import polars as pl

    from ..functions.grouping import hash_exchange

    turns = _turns(sf_dir).select_columns(["conv_id", "turn_idx", "role"])

    empty = pa.table({
        "conv_id": pa.array([], type=pa.string()),
        "n_turns": pa.array([], type=pa.int64()),
        "same_role_adj": pa.array([], type=pa.int64()),
        "orphan_tool_turns": pa.array([], type=pa.int64()),
        "starts_nonuser": pa.array([], type=pa.int64()),
        "ends_nonassistant": pa.array([], type=pa.int64()),
    })

    def gate(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "conv_id" not in t.column_names:
            return empty
        prev = pl.col("role").shift(1)
        df = (pl.from_arrow(t).sort(["conv_id", "turn_idx"])
              .group_by("conv_id", maintain_order=True)
              .agg(
                  n_turns=pl.len().cast(pl.Int64),
                  same_role_adj=(pl.col("role") == prev)
                  .fill_null(False).sum().cast(pl.Int64),
                  orphan_tool_turns=((pl.col("role") == "tool")
                                     & (prev.fill_null("") != "assistant"))
                  .sum().cast(pl.Int64),
                  starts_nonuser=(pl.col("role").first() != "user")
                  .cast(pl.Int64),
                  ends_nonassistant=(pl.col("role").last() != "assistant")
                  .cast(pl.Int64),
              )
              .filter(pl.col("same_role_adj") + pl.col("orphan_tool_turns")
                      + pl.col("starts_nonuser")
                      + pl.col("ends_nonassistant") > 0))
        return df.to_arrow().cast(empty.schema)

    return hash_exchange(turns, "conv_id", gate)


SQL_PROTOCOL_GATE = f"""
WITH s AS (
  SELECT conv_id, role,
         LAG(role) OVER w AS prev_role,
         FIRST_VALUE(role) OVER w AS first_role,
         LAST_VALUE(role) OVER (PARTITION BY conv_id ORDER BY turn_idx
              ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING)
             AS last_role
  FROM read_parquet('{_SQL_TURNS}')
  WINDOW w AS (PARTITION BY conv_id ORDER BY turn_idx)
),
g AS (
  SELECT conv_id,
         CAST(count(*) AS BIGINT) AS n_turns,
         CAST(coalesce(sum(CASE WHEN role = prev_role THEN 1 END), 0)
              AS BIGINT) AS same_role_adj,
         CAST(coalesce(sum(CASE WHEN role = 'tool'
                    AND coalesce(prev_role, '') <> 'assistant'
                    THEN 1 END), 0) AS BIGINT) AS orphan_tool_turns,
         CAST(max(CASE WHEN first_role <> 'user' THEN 1 ELSE 0 END)
              AS BIGINT) AS starts_nonuser,
         CAST(max(CASE WHEN last_role <> 'assistant' THEN 1 ELSE 0 END)
              AS BIGINT) AS ends_nonassistant
  FROM s GROUP BY conv_id
)
SELECT * FROM g
WHERE same_role_adj + orphan_tool_turns + starts_nonuser
      + ends_nonassistant > 0
"""


# --- link_forks: forked-session detection by shared turn prefix -------------

FORK_BLOCK_CAP = 64     # skip first-turn blocks above this (boilerplate
#                         openers aren't forks; mirrored in the twin)


def link_forks(sf_dir: str):
    """Forked-session pairs: conversations that open with the SAME
    turns verbatim and then diverge — the retry / regenerate / branch
    artifact every transcript corpus accumulates, invisible to exact
    dedup (different tails) and diluted in near-dup scoring (long
    divergent tails swamp the shared head).  Reported as (conv_a,
    conv_b, shared-prefix turn count, both lengths).

    Shape: per-batch (conv_id, turn_idx, md5-hex turn hash) rows (md5
    for DuckDB parity — the one per-distinct-string Python loop the
    twins keep) → ONE fused ``rekey_exchange``: conv-keyed buckets
    assemble each conversation's fixed-width hash sequence (sort +
    ordered string join, the canonicalize idiom) and re-split in-heap
    by the FIRST turn's hash (the natural fork blocking key — any
    shared-prefix pair shares turn 1 by definition, so blocking is
    lossless); block-keyed buckets enumerate in-block pairs (blocks
    above FORK_BLOCK_CAP purged, q118 block-purging) and compute each
    pair's longest common turn prefix by comparing the sequences as
    numpy 32-byte-per-turn arrays — one vectorized compare per pair,
    never per character."""
    import hashlib

    import polars as pl

    turns = _turns(sf_dir).select_columns(["conv_id", "turn_idx", "text"])

    _ROWS = pa.schema([("conv_id", pa.string()), ("turn_idx", pa.int64()),
                       ("h", pa.string())])

    def hrows(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "text" not in t.column_names:
            return _ROWS.empty_table()
        cache: dict[str, str] = {}
        hs = []
        for x in t["text"].to_pylist():
            v = cache.get(x)
            if v is None:
                v = hashlib.md5(x.encode("utf-8")).hexdigest()
                cache[x] = v
            hs.append(v)
        return pa.table({
            "conv_id": t["conv_id"].combine_chunks().cast(pa.string()),
            "turn_idx": t["turn_idx"].combine_chunks().cast(pa.int64()),
            "h": pa.array(hs, type=pa.string())})

    _SEQ = pa.schema([("bk", pa.string()), ("conv_id", pa.string()),
                      ("n_turns", pa.int64()), ("seq", pa.string())])

    def per_conv(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "conv_id" not in t.column_names:
            return _SEQ.empty_table()
        df = (pl.from_arrow(t).sort(["conv_id", "turn_idx"])
              .group_by("conv_id", maintain_order=True)
              .agg(n_turns=pl.len().cast(pl.Int64),
                   seq=pl.col("h").str.join("")))
        return (df.with_columns(bk=pl.col("seq").str.slice(0, 32))
                .select(["bk", "conv_id", "n_turns", "seq"])
                .to_arrow().cast(_SEQ))

    _OUT = pa.schema([("conv_a", pa.string()), ("conv_b", pa.string()),
                      ("prefix_turns", pa.int64()),
                      ("n_turns_a", pa.int64()),
                      ("n_turns_b", pa.int64())])

    def per_block(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "bk" not in t.column_names:
            return _OUT.empty_table()
        df = pl.from_arrow(t).sort(["bk", "conv_id"])
        bks = df["bk"].to_numpy()
        starts = np.flatnonzero(np.r_[True, bks[1:] != bks[:-1]])
        bounds = np.append(starts, len(bks))
        convs = df["conv_id"].to_numpy()
        nts = df["n_turns"].to_numpy()
        seqs = df["seq"].to_list()
        rows = {k: [] for k in ("conv_a", "conv_b", "prefix_turns",
                                "n_turns_a", "n_turns_b")}
        for st, en in zip(bounds[:-1], bounds[1:]):
            g = en - st
            if g < 2 or g > FORK_BLOCK_CAP:
                continue
            arrs = [np.frombuffer(seqs[i].encode("ascii"), dtype="S32")
                    for i in range(st, en)]
            for i in range(g):
                for j in range(i + 1, g):
                    m = min(len(arrs[i]), len(arrs[j]))
                    eq = arrs[i][:m] == arrs[j][:m]
                    lcp = int(m if eq.all() else np.argmin(eq))
                    rows["conv_a"].append(convs[st + i])
                    rows["conv_b"].append(convs[st + j])
                    rows["prefix_turns"].append(lcp)
                    rows["n_turns_a"].append(int(nts[st + i]))
                    rows["n_turns_b"].append(int(nts[st + j]))
        return pa.table({
            "conv_a": pa.array(rows["conv_a"], type=pa.string()),
            "conv_b": pa.array(rows["conv_b"], type=pa.string()),
            "prefix_turns": pa.array(rows["prefix_turns"],
                                     type=pa.int64()),
            "n_turns_a": pa.array(rows["n_turns_a"], type=pa.int64()),
            "n_turns_b": pa.array(rows["n_turns_b"], type=pa.int64()),
        })

    from ..functions.grouping import rekey_exchange

    rows = turns.map_batches(hrows, batch_format="pyarrow")
    return rekey_exchange(rows, "conv_id", per_conv, "bk", per_block,
                          num_buckets1=16, num_buckets2=8)


SQL_FORKS = f"""
WITH seqs AS (
  SELECT conv_id, CAST(count(*) AS BIGINT) AS n_turns,
         string_agg(md5(text), '' ORDER BY turn_idx) AS seq
  FROM read_parquet('{_SQL_TURNS}') GROUP BY conv_id
),
b AS (SELECT conv_id, n_turns, seq, substr(seq, 1, 32) AS bk FROM seqs),
ok AS (SELECT bk FROM b GROUP BY bk
       HAVING count(*) BETWEEN 2 AND {FORK_BLOCK_CAP}),
p AS (
  SELECT x.conv_id AS conv_a, y.conv_id AS conv_b,
         x.seq AS xs, y.seq AS ys,
         x.n_turns AS n_turns_a, y.n_turns AS n_turns_b
  FROM b x JOIN b y ON x.bk = y.bk AND x.conv_id < y.conv_id
  JOIN ok ON ok.bk = x.bk
),
p2 AS (
  SELECT conv_a, conv_b, xs, ys, n_turns_a, n_turns_b,
         unnest(generate_series(1, least(n_turns_a, n_turns_b))) AS k
  FROM p
)
SELECT conv_a, conv_b, CAST(max(k) AS BIGINT) AS prefix_turns,
       n_turns_a, n_turns_b
FROM p2
WHERE substr(xs, 1, 32 * k) = substr(ys, 1, 32 * k)
GROUP BY 1, 2, 4, 5
"""


QUERIES = {
    "link_canonicalize": (link_canonicalize, SQL_CANONICALIZE),
    "link_forks": (link_forks, SQL_FORKS),
    "link_protocol_gate": (link_protocol_gate, SQL_PROTOCOL_GATE),
    "link_topic_segments": (link_topic_segments, SQL_TOPIC_SEGMENTS),
    "link_boilerplate_turns": (link_boilerplate_turns, SQL_BOILERPLATE),
    "link_sft_pairs": (link_sft_pairs, SQL_SFT_PAIRS),
    "link_context_windows": (link_context_windows, SQL_CONTEXT_WINDOWS),
    "link_sft_corpus": (link_sft_corpus, SQL_SFT_CORPUS),
    "link_transition_matrix": (link_transition_matrix, SQL_TRANSITIONS),
    "link_turn_quality": (link_turn_quality, SQL_TURN_QUALITY),
    "link_tool_latency": (link_tool_latency, SQL_TOOL_LATENCY),
    "link_parse_lines": (link_parse_lines, SQL_PARSE_LINES),
    "link_token_df": (link_token_df, SQL_TOKEN_DF),
    "link_dedup_exact": (link_dedup_exact, SQL_DEDUP_EXACT),
    "link_minhash_lsh_candidates": (link_minhash_lsh_candidates, SQL_MINHASH),
    "link_block_inventory_md5": (link_block_inventory_md5, SQL_BLOCK_INV_MD5),
    "link_blocking_quality": (link_blocking_quality, SQL_BLOCKING_QUALITY),
    "link_signature_blocking_quality": (link_signature_blocking_quality,
                                        SQL_SIG_BLOCKING_QUALITY),
    "link_pairs_scored": (link_pairs_scored, None),
    "link_clusters": (link_clusters, None),
    "link_block_inventory": (link_block_inventory, None),
    "link_eval_metrics": (link_eval_metrics, None),
    "link_pr_curve": (link_pr_curve, None),
    "link_lsh_scurve": (link_lsh_scurve, _sql_lsh_scurve()),
    "link_cluster_labels": (link_cluster_labels, None),
    "link_threshold_sensitivity": (link_threshold_sensitivity, None),
    "link_block_histogram": (link_block_histogram, None),
    "link_scorer_differential": (link_scorer_differential, None),
    "link_scorer_lbp_differential": (link_scorer_lbp_differential, None),
    "link_lbp_convergence": (link_lbp_convergence, None),
    "link_rank_histogram": (link_rank_histogram, None),
    "link_cluster_digest": (link_cluster_digest, None),
    "link_cluster_quality": (link_cluster_quality, None),
    "link_incremental": (link_incremental, None),
}
