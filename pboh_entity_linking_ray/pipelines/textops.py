"""Text fingerprinting / near-dup operators over the documents table.

All three operators hash tokens with DuckDB's ``md5_number_lower``
semantics (functions.hashing.md5_lower64) so each has an exact SQL twin:

- SimHash-64: bit-majority of distinct-token hashes → 64-char bitstring
  (emitted as a bitstring, not an int, to dodge int64/UBIGINT mismatches).
- Winnowing-style fingerprints: 8-token shingles, mod-p sampled (p=8),
  emitted as 16-hex strings (document fingerprinting via rolling shingle
  hashes; Schleimer et al. winnowing, simplified to mod-p selection).
- n-gram Jaccard near-dup pairs: 3-token shingle sets, inverted-index
  pair generation (groupby shingle → pairs → count shared), e4
  fixed-point Jaccard.
"""

from __future__ import annotations
from pboh_entity_linking_ray.sources.reading import read_parquet_clean

import numpy as np
import pyarrow as pa
import ray.data

from ..functions.hashing import md5_lower64

WINNOW_W = 8        # shingle width for fingerprints
WINNOW_MOD = 8      # keep fp where fp % WINNOW_MOD == 0
JAC_SHINGLE_K = 3
JAC_MIN_E4 = 200    # jaccard >= 0.02


def _docs(sf_dir: str):
    return read_parquet_clean(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])


# --- SimHash ----------------------------------------------------------------

def _md5_cached(cache: dict, values: list[str]) -> np.ndarray:
    """md5_number_lower per DISTINCT string with a process cache — the one
    Python loop the oracle twins keep (DuckDB parity needs md5)."""
    out = np.empty(len(values), dtype=np.uint64)
    for i, x in enumerate(values):
        v = cache.get(x)
        if v is None:
            v = md5_lower64(x)
            cache[x] = v
        out[i] = v
    return out


def _distinct_doc_tokens(t: pa.Table):
    """batch → polars frame (rid, tok) of DISTINCT tokens per row."""
    import polars as pl

    n = t.num_rows
    df = pl.DataFrame({
        "rid": pl.int_range(0, n, eager=True),
        "tok": pl.from_arrow(t["text"].combine_chunks())
                 .str.to_lowercase().str.extract_all("[a-z0-9]+"),
    }).explode("tok", empty_as_null=True).drop_nulls("tok") \
        .unique(subset=["rid", "tok"])
    return df


def _simhash_maj(rid: np.ndarray, hs: np.ndarray):
    """SimHash-64 bit-majority core, fully vectorized over the flat
    (row, token-hash) stream: per-row segment sums of ±1 bit contributions
    via reduceat.  Returns (segment row ids, (n_seg, 64) majority bool
    matrix, bit 0 in column 0).  Shared by the md5 oracle twin, the fast
    variant and the banded near-dup join."""
    o = np.argsort(rid, kind="stable")
    rid, hs = rid[o], hs[o]
    bits_idx = np.arange(64, dtype=np.uint64)
    signs = (2 * ((hs[:, None] >> bits_idx[None, :]) & np.uint64(1))
             .astype(np.int64) - 1)
    starts = np.flatnonzero(np.r_[True, rid[1:] != rid[:-1]])
    return rid[starts], np.add.reduceat(signs, starts, axis=0) > 0


def _simhash_bits(rid: np.ndarray, hs: np.ndarray, n_rows: int) -> list[str]:
    """Per-row SimHash as a 64-char bit string (bit 63 first); rows with
    no tokens hash to the all-zeros string."""
    out = ["0" * 64] * n_rows
    if len(rid) == 0:
        return out
    seg_rid, maj = _simhash_maj(rid, hs)
    chars = np.where(maj[:, ::-1], "1", "0")                  # bit 63 first
    for i, r in enumerate(seg_rid):
        out[int(r)] = "".join(chars[i])
    return out


def _simhash_u64(rid: np.ndarray, hs: np.ndarray, n_rows: int) -> np.ndarray:
    """Per-row SimHash as a uint64 value (same bits as ``_simhash_bits``)."""
    vals = np.zeros(n_rows, dtype=np.uint64)
    if len(rid) == 0:
        return vals
    seg_rid, maj = _simhash_maj(rid, hs)
    pw = np.uint64(1) << np.arange(64, dtype=np.uint64)
    vals[seg_rid.astype(np.int64)] = (maj * pw[None, :]).sum(
        axis=1, dtype=np.uint64)
    return vals


class SimHasher:
    """md5 oracle twin: per-DISTINCT-token md5 (process cache), vectorized
    bit-majority."""

    def __init__(self):
        self.cache: dict[str, int] = {}

    def __call__(self, t: pa.Table) -> pa.Table:
        df = _distinct_doc_tokens(t)
        hs = _md5_cached(self.cache, df["tok"].to_list())
        bits = _simhash_bits(df["rid"].to_numpy().astype(np.int64), hs,
                             t.num_rows)
        return pa.table({"doc_id": t["doc_id"],
                         "simhash_bits": pa.array(bits, type=pa.string())})


def q13_simhash(sf_dir: str):
    return _docs(sf_dir).map_batches(SimHasher, batch_format="pyarrow",
                                     batch_size=256, concurrency=(1, 4))


def simhash_fast(sf_dir: str):
    """Production SimHash: whole-column xxhash (functions.hashing
    hash_strings_u64) instead of per-string md5 — no Python loop at all.
    Same bit-majority core as the oracle twin (pytest ties them)."""
    from ..functions.hashing import hash_strings_u64

    def f(t: pa.Table) -> pa.Table:
        df = _distinct_doc_tokens(t)
        hs = (hash_strings_u64(df["tok"], seed=0) if len(df)
              else np.empty(0, dtype=np.uint64))
        bits = _simhash_bits(df["rid"].to_numpy().astype(np.int64), hs,
                             t.num_rows)
        return pa.table({"doc_id": t["doc_id"],
                         "simhash_bits": pa.array(bits, type=pa.string())})

    return _docs(sf_dir).map_batches(f, batch_format="pyarrow", batch_size=1024)


SQL_Q13 = """
WITH tok AS (
  SELECT doc_id,
         unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9]+'))) AS t
  FROM documents
),
b AS (
  SELECT doc_id, bit,
         sum(CASE WHEN (md5_number_lower(t) >> bit) & 1 = 1 THEN 1 ELSE -1 END) AS s
  FROM tok CROSS JOIN generate_series(0, 63) g(bit)
  GROUP BY doc_id, bit
)
SELECT doc_id,
       coalesce(string_agg(CASE WHEN s > 0 THEN '1' ELSE '0' END, ''
                           ORDER BY bit DESC), repeat('0', 64)) AS simhash_bits
FROM b GROUP BY doc_id
UNION ALL
SELECT doc_id, repeat('0', 64) AS simhash_bits
FROM documents
WHERE len(regexp_extract_all(lower(text), '[a-z0-9]+')) = 0
"""


# --- SimHash banded near-dup join -------------------------------------------

SIMHASH_BANDS = 4        # 4 × 16-bit bands: pigeonhole guarantees every pair
SIMHASH_MAX_HAMMING = 3  # at Hamming ≤ 3 shares at least one identical band


def q26_simhash_neardup(sf_dir: str):
    """SimHash near-duplicate JOIN — the signature stage (q13) taken to
    pairs at scale.  Each doc's 64-bit SimHash is cut into 4 × 16-bit
    bands (the LSH keys); ONE hash exchange on the band key co-locates
    every candidate pair (pigeonhole: Hamming ≤ 3 ⇒ at least one band
    identical), the bucket task generates in-band pairs with size-batched
    triu and verifies them exactly with a vectorized SWAR popcount, and
    lowest-matching-band ownership dedups across bands WITHOUT a second
    exchange (a pair is emitted only by its first matching band — both
    docs carry every band, so the owning band's bucket always sees it).

    Output is exactly {(a, b): popcount(sim_a ^ sim_b) ≤ 3} over docs
    with ≥ 1 token (zero-token docs would form an artificial all-zeros
    clique; the SQL twin excludes them the same way), which the DuckDB
    twin computes directly via BIT xor — the banding is pure execution
    strategy, invisible in the result.  md5 token hashes for oracle
    parity; ``simhash_fast``'s whole-column xxhash drops in unchanged
    for production.  At corpus scale the exchange moves 4 skinny
    (key, id, sim) rows per doc and per-bucket work is bounded by true
    near-dup cluster sizes, never the corpus."""
    from ..functions.grouping import hash_exchange
    from ..functions.hashing import popcount_u64

    NB, K = SIMHASH_BANDS, SIMHASH_MAX_HAMMING
    M16 = np.uint64(0xFFFF)

    class BandEmitter:
        def __init__(self):
            self.cache: dict[str, int] = {}

        def __call__(self, t: pa.Table) -> pa.Table:
            df = _distinct_doc_tokens(t)
            hs = _md5_cached(self.cache, df["tok"].to_list())
            rid = df["rid"].to_numpy().astype(np.int64)
            sims = _simhash_u64(rid, hs, t.num_rows)
            ids = np.asarray(t["doc_id"], dtype=np.int64)
            seen = np.zeros(t.num_rows, dtype=bool)
            seen[np.unique(rid)] = True          # drop zero-token docs
            sims, ids = sims[seen], ids[seen]
            n = len(ids)
            band = np.repeat(np.arange(NB, dtype=np.uint64), n)
            simr = np.tile(sims, NB)
            key = (band << np.uint64(16)) | \
                  ((simr >> (band * np.uint64(16))) & M16)
            return pa.table({
                "band_key": pa.array(key.view(np.int64)),
                "doc_id": pa.array(np.tile(ids, NB)),
                "sim": pa.array(simr.view(np.int64)),
            })

    rows = _docs(sf_dir).map_batches(BandEmitter, batch_format="pyarrow",
                                     batch_size=256, concurrency=(1, 4))

    EMPTY = pa.table({"doc_a": pa.array([], type=pa.int64()),
                      "doc_b": pa.array([], type=pa.int64()),
                      "hamming": pa.array([], type=pa.int64())})

    def pairs_bucket(bucket: pa.Table) -> pa.Table:
        if bucket.num_rows == 0:
            return EMPTY
        key = np.asarray(bucket["band_key"], dtype=np.int64)
        ids = np.asarray(bucket["doc_id"], dtype=np.int64)
        sims = np.asarray(bucket["sim"], dtype=np.int64)
        o = np.lexsort((ids, key))
        key, ids, sims = key[o], ids[o], sims[o]
        n = len(key)
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        bounds = np.append(starts, n)
        sizes = np.diff(bounds)
        ap, bp = [], []
        ok = sizes >= 2
        for m in np.unique(sizes[ok]):
            ia, ib = np.triu_indices(int(m), k=1)
            base = bounds[:-1][ok & (sizes == m)]
            ap.append((base[:, None] + ia[None, :]).ravel())
            bp.append((base[:, None] + ib[None, :]).ravel())
        if not ap:
            return EMPTY
        ai, bi = np.concatenate(ap), np.concatenate(bp)
        sa, sb = sims[ai].view(np.uint64), sims[bi].view(np.uint64)
        ham = popcount_u64(sa ^ sb)
        pband = key[ai] >> 16                    # this pair's band index
        keep = ham <= K
        for j in range(NB - 1):                  # lowest-band ownership
            eq = (((sa >> np.uint64(16 * j)) & M16)
                  == ((sb >> np.uint64(16 * j)) & M16))
            keep &= ~(eq & (pband > j))
        return pa.table({"doc_a": pa.array(ids[ai][keep]),
                         "doc_b": pa.array(ids[bi][keep]),
                         "hamming": pa.array(ham[keep])})

    return hash_exchange(rows, "band_key", pairs_bucket, num_buckets=64)


SQL_Q26 = f"""
WITH tok AS (
  SELECT doc_id,
         unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9]+'))) AS t
  FROM documents
),
b AS (
  SELECT doc_id, bit,
         sum(CASE WHEN (md5_number_lower(t) >> bit) & 1 = 1 THEN 1 ELSE -1 END) AS s
  FROM tok CROSS JOIN generate_series(0, 63) g(bit)
  GROUP BY doc_id, bit
),
sh AS (
  SELECT doc_id,
         string_agg(CASE WHEN s > 0 THEN '1' ELSE '0' END, ''
                    ORDER BY bit DESC)::BIT AS sig
  FROM b GROUP BY doc_id
)
SELECT a.doc_id AS doc_a, c.doc_id AS doc_b,
       CAST(bit_count(xor(a.sig, c.sig)) AS BIGINT) AS hamming
FROM sh a JOIN sh c ON a.doc_id < c.doc_id
WHERE bit_count(xor(a.sig, c.sig)) <= {SIMHASH_MAX_HAMMING}
"""


# --- Winnowing fingerprints -------------------------------------------------

def _shingles_from_exploded(df, w: int):
    """(rid, tok) EXPLODED frame → (rid, sh) DISTINCT w-token shingles,
    vectorized shift-concat (no Python loop per shingle)."""
    import polars as pl

    sh = df.with_columns(
        pl.concat_str([pl.col("tok").shift(-i).over("rid")
                       for i in range(w)], separator=" ").alias("sh")
    ).drop_nulls("sh")
    return sh.select(["rid", "sh"]).unique()


def _doc_shingles(t: pa.Table, w: int):
    """batch → polars frame (rid, sh) of DISTINCT w-token shingles per
    row."""
    import polars as pl

    n = t.num_rows
    df = pl.DataFrame({
        "rid": pl.int_range(0, n, eager=True),
        "tok": pl.from_arrow(t["text"].combine_chunks())
                 .str.to_lowercase().str.extract_all("[a-z0-9]+"),
    }).explode("tok", empty_as_null=True).drop_nulls("tok")
    return _shingles_from_exploded(df, w)


def _hex16(vals: np.ndarray) -> list[str]:
    """uint64 array → 16-char lowercase hex strings, vectorized."""
    if len(vals) == 0:
        return []
    as_bytes = vals.astype(">u8").tobytes()
    hexstr = as_bytes.hex()
    return [hexstr[i * 16:(i + 1) * 16] for i in range(len(vals))]


class Winnower:
    """md5 oracle twin of the mod-p fingerprint sampler."""

    def __init__(self):
        self.cache: dict[str, int] = {}

    def __call__(self, t: pa.Table) -> pa.Table:
        ids = np.asarray(t["doc_id"], dtype=np.int64)
        df = _doc_shingles(t, WINNOW_W)
        hs = _md5_cached(self.cache, df["sh"].to_list())
        rid = df["rid"].to_numpy().astype(np.int64)
        keep = hs % np.uint64(WINNOW_MOD) == 0
        rid, hs = rid[keep], hs[keep]
        o = np.lexsort((hs, rid))
        rid, hs = rid[o], hs[o]
        return pa.table({"doc_id": pa.array(ids[rid], type=pa.int64()),
                         "fp_hex": pa.array(_hex16(hs), type=pa.string())})


def q15_winnow_fingerprints(sf_dir: str):
    return _docs(sf_dir).map_batches(Winnower, batch_format="pyarrow",
                                     batch_size=256, concurrency=(1, 4))


def winnow_fast(sf_dir: str):
    """Production fingerprints: whole-column xxhash instead of per-shingle
    md5 — the only Python left is the hex formatting of the sampled ~1/p
    survivors.  Same shingle builder and mod-p selection as the twin."""
    from ..functions.hashing import hash_strings_u64

    def f(t: pa.Table) -> pa.Table:
        ids = np.asarray(t["doc_id"], dtype=np.int64)
        df = _doc_shingles(t, WINNOW_W)
        hs = (hash_strings_u64(df["sh"], seed=0) if len(df)
              else np.empty(0, dtype=np.uint64))
        rid = df["rid"].to_numpy().astype(np.int64)
        keep = hs % np.uint64(WINNOW_MOD) == 0
        rid, hs = rid[keep], hs[keep]
        o = np.lexsort((hs, rid))
        rid, hs = rid[o], hs[o]
        return pa.table({"doc_id": pa.array(ids[rid], type=pa.int64()),
                         "fp_hex": pa.array(_hex16(hs), type=pa.string())})

    return _docs(sf_dir).map_batches(f, batch_format="pyarrow", batch_size=1024)


SQL_Q15 = f"""
WITH sh AS (
  SELECT doc_id,
         unnest(list_distinct(list_transform(
             generate_series(1, greatest(len(toks) - {WINNOW_W - 1}, 0)),
             i -> list_aggregate(toks[i : i + {WINNOW_W - 1}], 'string_agg', ' ')
         ))) AS s
  FROM (SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS toks
        FROM documents)
)
SELECT DISTINCT doc_id,
       lower(lpad(to_hex(md5_number_lower(s)), 16, '0')) AS fp_hex
FROM sh
WHERE md5_number_lower(s) % {WINNOW_MOD} = 0
"""


# --- n-gram Jaccard near-dup pairs ------------------------------------------

JAC_STOP_DF = 1000  # shingles in more docs than this are STOP-SHINGLES and
                    # emit no pairs — the skew guard of the flagship blocker
                    # (stages/blocking.py block_cap) as an explicit operator
                    # semantic, expressed identically in the SQL twin (a
                    # stop-shingle like "the of and" would otherwise emit
                    # O(m²) pairs on one key and pin a single core)


def q12_ngram_jaccard_pairs(sf_dir: str):
    """Inverted-index near-dup join, production-shaped: vectorized polars
    shingle explode → bucketed vectorized pair emission (one Python call
    per hash bucket, triu batched by group size) → bucketed pair-count
    aggregate → fixed-point Jaccard.  The per-doc set size rides on every
    row so no second join is needed."""
    from ..functions.grouping import bucketed_sum, hash_exchange

    k = JAC_SHINGLE_K

    def explode(t: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.DataFrame({
            "doc_id": pl.from_arrow(t["doc_id"].combine_chunks()).cast(pl.Int64),
            "tok": pl.from_arrow(t["text"].combine_chunks())
                     .str.to_lowercase().str.extract_all("[a-z0-9]+"),
        }).explode("tok", empty_as_null=True).drop_nulls("tok")
        sh = df.with_columns(
            pl.concat_str([pl.col("tok").shift(-i).over("doc_id")
                           for i in range(k)], separator=" ").alias("sh")
        ).drop_nulls("sh")
        out = (
            sh.select(["doc_id", "sh"]).unique()
            .with_columns(pl.len().over("doc_id").cast(pl.Int64).alias("n_sh"))
        )
        return out.to_arrow()

    rows = _docs(sf_dir).map_batches(explode, batch_format="pyarrow",
                                     batch_size=512)

    def pairs_bucket(bucket: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(bucket).sort(["sh", "doc_id"])
        shv = df["sh"].to_numpy()
        ids = df["doc_id"].to_numpy()
        ns = df["n_sh"].to_numpy()
        n = len(shv)
        if n == 0:
            return pa.table({"pair": pa.array([], type=pa.int64()),
                             "na": pa.array([], type=pa.int64()),
                             "nb": pa.array([], type=pa.int64()),
                             "inter_p": pa.array([], type=pa.int64())})
        starts = np.flatnonzero(np.r_[True, shv[1:] != shv[:-1]])
        bounds = np.append(starts, n)
        sizes = np.diff(bounds)
        ap, bp = [], []
        ok = (sizes >= 2) & (sizes <= JAC_STOP_DF)
        for m in np.unique(sizes[ok]):
            ia, ib = np.triu_indices(int(m), k=1)
            base = bounds[:-1][ok & (sizes == m)]
            ap.append((base[:, None] + ia[None, :]).ravel())
            bp.append((base[:, None] + ib[None, :]).ravel())
        if not ap:
            return pa.table({"pair": pa.array([], type=pa.int64()),
                             "na": pa.array([], type=pa.int64()),
                             "nb": pa.array([], type=pa.int64()),
                             "inter_p": pa.array([], type=pa.int64())})
        ai = np.concatenate(ap)
        bi = np.concatenate(bp)
        pair = ids[ai] * (1 << 32) + ids[bi]     # ids sorted in-group → a<b
        # in-bucket partial count: the same pair repeats across shingles
        upair, inv, cnt = np.unique(pair, return_index=True, return_counts=True)
        return pa.table({"pair": pa.array(upair),
                         "na": pa.array(ns[ai][inv]),
                         "nb": pa.array(ns[bi][inv]),
                         "inter_p": pa.array(cnt.astype(np.int64))})

    shared = hash_exchange(rows, "sh", pairs_bucket)
    agg = bucketed_sum(shared, ["pair", "na", "nb"], "inter_p", "inter")

    def finish(t: pa.Table) -> pa.Table:
        pair = np.asarray(t["pair"], dtype=np.int64)
        na = np.asarray(t["na"], dtype=np.int64)
        nb = np.asarray(t["nb"], dtype=np.int64)
        inter = np.asarray(t["inter"], dtype=np.int64)
        jac = (inter * 10000) // (na + nb - inter)
        keep = jac >= JAC_MIN_E4
        return pa.table({
            "doc_a": pa.array(pair[keep] >> 32),
            "doc_b": pa.array(pair[keep] & 0xFFFFFFFF),
            "jac_e4": pa.array(jac[keep]),
        })

    return agg.map_batches(finish, batch_format="pyarrow")


SQL_Q12 = f"""
WITH s AS (
  SELECT doc_id, len(shs) AS n_sh, unnest(shs) AS sh
  FROM (SELECT doc_id, list_distinct(list_transform(
            generate_series(1, greatest(len(toks) - {JAC_SHINGLE_K - 1}, 0)),
            i -> list_aggregate(toks[i : i + {JAC_SHINGLE_K - 1}], 'string_agg', ' ')
        )) AS shs
        FROM (SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS toks
              FROM documents))
),
live AS (  -- stop-shingle filter: same semantic as the Ray side's JAC_STOP_DF
  SELECT sh FROM s GROUP BY sh HAVING count(*) <= {JAC_STOP_DF}
),
p AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
         any_value(a.n_sh) AS na, any_value(b.n_sh) AS nb,
         count(*) AS inter
  FROM s a JOIN s b ON a.sh = b.sh AND a.doc_id < b.doc_id
  WHERE a.sh IN (SELECT sh FROM live)
  GROUP BY 1, 2
)
SELECT doc_a, doc_b,
       CAST((inter * 10000) // (na + nb - inter) AS BIGINT) AS jac_e4
FROM p
WHERE (inter * 10000) // (na + nb - inter) >= {JAC_MIN_E4}
"""

# --- frequent token-pair mining (SURVEY.md §2.6 G5) ------------------------

FREQ_PAIR_MIN = 4      # reference mines packed pairs with freq >= 4
                       # (learning/Learning.scala:116-177)
FREQ_STOP_DF = 1000    # same stop-token guard as the jaccard join


def _explode_distinct_toks(t: pa.Table) -> pa.Table:
    """Per-batch distinct (doc_id, tok) rows — shared by q20 and q96."""
    import polars as pl

    df = pl.DataFrame({
        "doc_id": pl.from_arrow(t["doc_id"].combine_chunks()).cast(pl.Int64),
        "tok": pl.from_arrow(t["text"].combine_chunks())
                 .str.to_lowercase().str.extract_all("[a-z0-9]+"),
    }).explode("tok", empty_as_null=True).drop_nulls("tok").unique()
    return df.to_arrow()


def _pairs_bucket(bucket: pa.Table) -> pa.Table:
    """Per-doc triu token pairs batched by group size (doc-co-located
    bucket in, partial (tok_a, tok_b, n_p) counts out) — shared by q20
    and q96."""
    import polars as pl

    df = pl.from_arrow(bucket).sort(["doc_id", "tok"])
    doc = df["doc_id"].to_numpy()
    tok = df["tok"].to_numpy()
    n = len(doc)
    if n == 0:
        return pa.table({"tok_a": pa.array([], type=pa.string()),
                         "tok_b": pa.array([], type=pa.string()),
                         "n_p": pa.array([], type=pa.int64())})
    starts = np.flatnonzero(np.r_[True, doc[1:] != doc[:-1]])
    bounds = np.append(starts, n)
    sizes = np.diff(bounds)
    ap, bp = [], []
    ok = (sizes >= 2) & (sizes <= FREQ_STOP_DF)
    for m in np.unique(sizes[ok]):
        ia, ib = np.triu_indices(int(m), k=1)
        base = bounds[:-1][ok & (sizes == m)]
        ap.append((base[:, None] + ia[None, :]).ravel())
        bp.append((base[:, None] + ib[None, :]).ravel())
    if not ap:
        return pa.table({"tok_a": pa.array([], type=pa.string()),
                         "tok_b": pa.array([], type=pa.string()),
                         "n_p": pa.array([], type=pa.int64())})
    ai, bi = np.concatenate(ap), np.concatenate(bp)
    out = (pl.DataFrame({"tok_a": tok[ai], "tok_b": tok[bi]})
           .group_by(["tok_a", "tok_b"]).len(name="n_p")
           .with_columns(pl.col("n_p").cast(pl.Int64)))
    return out.to_arrow()


def q20_frequent_pairs(sf_dir: str):
    """Token pairs co-occurring (distinct, within-doc) in >= FREQ_PAIR_MIN
    documents — groupby(pair).count().filter(), the no-parameter-server
    recast of the reference's memcached-assisted frequent-pair miner."""
    from ..functions.grouping import bucketed_sum, hash_exchange

    rows = _docs(sf_dir).map_batches(_explode_distinct_toks,
                                     batch_format="pyarrow", batch_size=512)
    shared = hash_exchange(rows, "doc_id", _pairs_bucket)
    agg = bucketed_sum(shared, ["tok_a", "tok_b"], "n_p", "n_docs")
    return agg.filter(expr=f"n_docs >= {FREQ_PAIR_MIN}")


# --- q149: association rules (confidence + lift over frequent pairs) --------

def _rules_bucket(bucket: pa.Table) -> pa.Table:
    """q20's per-doc triu pair partials EXTENDED with the marginals the
    rule metrics need, all in the same doc-co-located pass: item rows
    (tok_b = '' sentinel — impossible for a real [a-z0-9]+ token) carry
    per-token live-doc counts, and one ('', '') row carries the bucket's
    live-doc count.  One exchange serves pairs, items, and N."""
    import polars as pl

    _OUT = pa.schema([("tok_a", pa.string()), ("tok_b", pa.string()),
                      ("n_p", pa.int64())])
    if bucket.num_rows == 0 or "doc_id" not in bucket.column_names:
        return _OUT.empty_table()
    df = pl.from_arrow(bucket).sort(["doc_id", "tok"])
    doc = df["doc_id"].to_numpy()
    tok = df["tok"].to_numpy()
    n = len(doc)
    starts = np.flatnonzero(np.r_[True, doc[1:] != doc[:-1]])
    bounds = np.append(starts, n)
    sizes = np.diff(bounds)
    live = sizes <= FREQ_STOP_DF
    live_rows = np.repeat(live, sizes)
    items = (pl.DataFrame({"tok_a": tok[live_rows]})
             .group_by("tok_a").len(name="n_p")
             .with_columns(tok_b=pl.lit(""),
                           n_p=pl.col("n_p").cast(pl.Int64))
             .select(["tok_a", "tok_b", "n_p"]))
    nrow = pl.DataFrame({"tok_a": [""], "tok_b": [""],
                         "n_p": [int(live.sum())]},
                        schema={"tok_a": pl.String, "tok_b": pl.String,
                                "n_p": pl.Int64})
    pairs = pl.from_arrow(_pairs_bucket(bucket))
    return pl.concat([pairs, items, nrow]).to_arrow().cast(_OUT)


def q149_association_rules(sf_dir: str):
    """Directed association rules ant → cons over q20's frequent token
    pairs, with exact-integer confidence (conf_e4 = 10⁴·c_ab // c_ant)
    and lift (lift_e6 = 10⁶·c_ab·N // (c_ant·c_cons)) — the market-
    basket step after frequent-itemset mining (Agrawal/Srikant).  ONE
    doc-co-located exchange emits pair partials AND the item/N
    marginals (sentinel rows, `_rules_bucket`), one keyed sum finishes
    all three, and the O(vocab) marginal table is collected once and
    broadcast for a per-batch polars join over the pair rows (vocab ≪
    pairs at any scale — the broadcast-small-side discipline; integer
    products stay far inside int64 up to ~10⁹ live docs, past which the
    lift term would move to the q140 mirrored-DOUBLE tree)."""
    import polars as pl

    from ..functions.grouping import bucketed_sum, hash_exchange

    rows = _docs(sf_dir).map_batches(_explode_distinct_toks,
                                     batch_format="pyarrow", batch_size=512)
    shared = hash_exchange(rows, "doc_id", _rules_bucket)
    sums = bucketed_sum(shared, ["tok_a", "tok_b"], "n_p", "c").materialize()

    def _marginals(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.equal(t["tok_b"], ""))

    side_parts = [
        b for b in sums.map_batches(_marginals, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")
        if b.num_rows]
    side = pa.concat_tables(side_parts)
    toks = side["tok_a"].to_pylist()
    cnts = np.asarray(side["c"], dtype=np.int64)
    n_live = int(cnts[toks.index("")])
    item_df = pl.DataFrame({"tok": toks, "c_item": cnts}).filter(
        pl.col("tok") != "")
    item_ref = ray.put(item_df)

    _OUT = pa.schema([("ant", pa.string()), ("cons", pa.string()),
                      ("n_pair", pa.int64()), ("n_ant", pa.int64()),
                      ("conf_e4", pa.int64()), ("lift_e6", pa.int64())])

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "tok_a" not in t.column_names:
            return _OUT.empty_table()
        df = pl.from_arrow(t).filter(
            (pl.col("tok_b") != "") & (pl.col("c") >= FREQ_PAIR_MIN))
        if df.height == 0:
            return _OUT.empty_table()
        items = ray.get(item_ref)
        both = pl.concat([
            df.select(ant="tok_a", cons="tok_b", n_pair="c"),
            df.select(ant="tok_b", cons="tok_a", n_pair="c"),
        ])
        j = (both.join(items.rename({"tok": "ant", "c_item": "n_ant"}),
                       on="ant")
             .join(items.rename({"tok": "cons", "c_item": "n_cons"}),
                   on="cons"))
        c = j["n_pair"].to_numpy().astype(np.int64)
        ca = j["n_ant"].to_numpy().astype(np.int64)
        cc = j["n_cons"].to_numpy().astype(np.int64)
        return pa.table({
            "ant": j["ant"].to_arrow().cast(pa.string()),
            "cons": j["cons"].to_arrow().cast(pa.string()),
            "n_pair": pa.array(c), "n_ant": pa.array(ca),
            "conf_e4": pa.array(10000 * c // ca),
            "lift_e6": pa.array(1_000_000 * c * n_live // (ca * cc)),
        })

    return sums.map_batches(finish, batch_format="pyarrow")


SQL_Q149 = f"""
WITH s AS (
  SELECT DISTINCT doc_id,
         unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS tok
  FROM documents
),
live AS (SELECT doc_id FROM s GROUP BY doc_id
         HAVING count(*) <= {FREQ_STOP_DF}),
sl AS (SELECT s.doc_id, s.tok FROM s JOIN live USING (doc_id)),
item AS (SELECT tok, CAST(count(*) AS BIGINT) AS c FROM sl GROUP BY tok),
nn AS (SELECT CAST(count(*) AS BIGINT) AS n FROM live),
p AS (
  SELECT a.tok AS ta, b.tok AS tb, CAST(count(*) AS BIGINT) AS c
  FROM sl a JOIN sl b ON a.doc_id = b.doc_id AND a.tok < b.tok
  GROUP BY 1, 2 HAVING count(*) >= {FREQ_PAIR_MIN}
),
d AS (SELECT ta AS ant, tb AS cons, c FROM p
      UNION ALL SELECT tb, ta, c FROM p)
SELECT d.ant, d.cons, d.c AS n_pair, ia.c AS n_ant,
       CAST(10000 * d.c // ia.c AS BIGINT) AS conf_e4,
       CAST(1000000 * d.c * nn.n // (ia.c * ic.c) AS BIGINT) AS lift_e6
FROM d JOIN item ia ON d.ant = ia.tok
       JOIN item ic ON d.cons = ic.tok, nn
"""


SQL_Q20 = f"""
WITH s AS (
  SELECT DISTINCT doc_id,
         unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS tok
  FROM documents
),
live AS (  -- same oversized-doc guard as the Ray side (FREQ_STOP_DF)
  SELECT doc_id FROM s GROUP BY doc_id HAVING count(*) <= {FREQ_STOP_DF}
)
SELECT a.tok AS tok_a, b.tok AS tok_b, count(*) AS n_docs
FROM s a JOIN s b ON a.doc_id = b.doc_id AND a.tok < b.tok
WHERE a.doc_id IN (SELECT doc_id FROM live)
GROUP BY 1, 2 HAVING count(*) >= {FREQ_PAIR_MIN}
"""


# --- q96: PMI-ranked token associations -------------------------------------


def q96_pmi_pairs(sf_dir: str):
    """Positively-associated token pairs by pointwise mutual information
    — the collocation/association miner LLM-corpus analysis runs after
    raw pair counting (q20's support counts rank "the,and" first; PMI
    normalizes by the marginals).  PMI = log(n_p·N / (df_a·df_b)) is
    monotone in the integer ratio, so the pipeline never takes the log:
    it emits the EXACT int64 numerator (n_p·N) and denominator
    (df_a·df_b) and filters to num > den (PMI > 0) — hash-exact across
    engines with no float in sight.  int64 bound: num ≤ N², safe to
    N ≈ 3e9 docs; shard the corpus above that.

    Plan shape at 100 TB: the distinct (doc_id, tok) explode streams
    once and is materialized (skinny ~20 B rows) because two
    consumers need it — the doc-bucketed pair counter (q20's triu
    machinery, one exchange on doc_id) and the marginal doc-frequency
    sum (one exchange on tok).  Pair→marginal attachment is two
    bucketed hash joins (tok_a then tok_b) — the vocabulary is
    unbounded at corpus scale so the df table is NEVER broadcast.
    N comes from parquet metadata (count() reads no data).

    Reference analog: the same frequent-pair statistics the learning
    loop mines (learning/Learning.scala:116-177) re-ranked by the
    association measure instead of raw support."""
    from ..functions.grouping import bucketed_sum, hash_exchange, hash_join

    n_total = read_parquet_clean(f"{sf_dir}/documents.parquet",
                                    columns=["doc_id"]).count()

    rows = _docs(sf_dir).map_batches(_explode_distinct_toks,
                                     batch_format="pyarrow",
                                     batch_size=512).materialize()

    # materialized: the pair counts are read by the count below and
    # by the join
    shared = hash_exchange(rows, "doc_id", _pairs_bucket)
    pairs = bucketed_sum(shared, ["tok_a", "tok_b"], "n_p", "n_p") \
        .filter(expr=f"n_p >= {FREQ_PAIR_MIN}").materialize()

    def count_df(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "tok" not in t.column_names:
            return pa.table({"tok": pa.array([], type=pa.string()),
                             "one": pa.array([], type=pa.int64())})
        return pa.table({"tok": t["tok"],
                         "one": np.ones(t.num_rows, dtype=np.int64)})

    # materialized: BOTH join sides (df_a, df_b) consume this exchange —
    # lazy it would execute twice (the q75/q82 double-execution trap)
    df = bucketed_sum(rows.map_batches(count_df, batch_format="pyarrow"),
                      ["tok"], "one", "df").materialize()

    def _as_side(t: pa.Table, side: str) -> pa.Table:
        if t.num_rows == 0 or "tok" not in t.column_names:
            return pa.table({f"tok_{side}": pa.array([], type=pa.string()),
                             f"df_{side}": pa.array([], type=pa.int64())})
        return pa.table({f"tok_{side}": t["tok"], f"df_{side}": t["df"]})

    # explicit map_batches projections (each side's empty shape is
    # declared in _as_side)
    df_a = df.map_batches(lambda t: _as_side(t, "a"), batch_format="pyarrow")
    df_b = df.map_batches(lambda t: _as_side(t, "b"), batch_format="pyarrow")

    j = hash_join(hash_join(pairs, df_a, on="tok_a").materialize(),
                  df_b, on="tok_b")

    def finish(t: pa.Table) -> pa.Table:
        _OUT = pa.schema([("tok_a", pa.string()), ("tok_b", pa.string()),
                          ("n_p", pa.int64()), ("df_a", pa.int64()),
                          ("df_b", pa.int64()), ("pmi_num", pa.int64()),
                          ("pmi_den", pa.int64())])
        if t.num_rows == 0 or "n_p" not in t.column_names:
            return _OUT.empty_table()
        num = np.asarray(t["n_p"], dtype=np.int64) * np.int64(n_total)
        den = (np.asarray(t["df_a"], dtype=np.int64)
               * np.asarray(t["df_b"], dtype=np.int64))
        keep = num > den
        return pa.table({
            "tok_a": t["tok_a"].combine_chunks().filter(pa.array(keep)),
            "tok_b": t["tok_b"].combine_chunks().filter(pa.array(keep)),
            "n_p": pa.array(np.asarray(t["n_p"], dtype=np.int64)[keep]),
            "df_a": pa.array(np.asarray(t["df_a"], dtype=np.int64)[keep]),
            "df_b": pa.array(np.asarray(t["df_b"], dtype=np.int64)[keep]),
            "pmi_num": pa.array(num[keep]), "pmi_den": pa.array(den[keep]),
        }).cast(_OUT)

    return j.map_batches(finish, batch_format="pyarrow")


SQL_Q96 = f"""
WITH s AS (
  SELECT DISTINCT doc_id,
         unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS tok
  FROM documents
),
live AS (  -- same oversized-doc guard as the Ray side (FREQ_STOP_DF)
  SELECT doc_id FROM s GROUP BY doc_id HAVING count(*) <= {FREQ_STOP_DF}
),
p AS (
  SELECT a.tok AS tok_a, b.tok AS tok_b, count(*) AS n_p
  FROM s a JOIN s b ON a.doc_id = b.doc_id AND a.tok < b.tok
  WHERE a.doc_id IN (SELECT doc_id FROM live)
  GROUP BY 1, 2 HAVING count(*) >= {FREQ_PAIR_MIN}
),
freq AS (SELECT tok, CAST(count(*) AS BIGINT) AS df FROM s GROUP BY tok),
n AS (SELECT CAST(count(*) AS BIGINT) AS n_docs FROM documents)
SELECT p.tok_a, p.tok_b, p.n_p, da.df AS df_a, db.df AS df_b,
       CAST(p.n_p * n.n_docs AS BIGINT) AS pmi_num,
       CAST(da.df * db.df AS BIGINT) AS pmi_den
FROM p CROSS JOIN n
JOIN freq da ON da.tok = p.tok_a
JOIN freq db ON db.tok = p.tok_b
WHERE p.n_p * n.n_docs > da.df * db.df
"""

# --- q98: per-source corpus-shift score (χ² vs pooled distribution) --------

CHI2_SCALE = 1_000_000   # per-term fixed-point: term = cnt²·SCALE // ctot
                         # int64-safe while cnt ≤ ~3e6 per (source, tok)


FH_DIM = 16        # hashed feature dimensions
FH_SIGN_BIT = 4    # hash bit driving the sign (disjoint from dim bits)


def q107_feature_hashing(sf_dir: str):
    """The hashing trick (Weinberger et al. 2009): every document
    becomes a FH_DIM-dimensional signed integer feature vector with
    NO vocabulary — token t adds sign(bit4(h)) to dimension h % 16,
    weighted by its term frequency.  The vocabulary-free featurizer a
    streaming ML pipeline uses when a fitted vocabulary can't exist
    yet; collisions are the accepted trade (that's the trick).

    Entirely doc-local: tokens group per (doc, dim) inside the batch
    (a documents row IS the doc), so the whole op is ONE streaming
    map_batches with ZERO shuffles and long-form exact-int output.
    md5 is the cross-engine hash family (the q13/q15 device); the
    production variant swaps in whole-column xxhash."""
    def feats(t: pa.Table) -> pa.Table:
        import polars as pl

        if t.num_rows == 0 or "doc_id" not in t.column_names:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "dim": pa.array([], type=pa.int64()),
                             "val": pa.array([], type=pa.int64())})
        df = (pl.DataFrame({
            "doc_id": pl.from_arrow(t["doc_id"].combine_chunks())
            .cast(pl.Int64),
            "tok": pl.from_arrow(t["text"].combine_chunks())
            .str.to_lowercase().str.extract_all("[a-z0-9]+"),
        }).explode("tok", empty_as_null=True).drop_nulls("tok")
            .group_by(["doc_id", "tok"]).len(name="tf"))
        hs = _md5_cached({}, df["tok"].to_list())
        dim = (hs % np.uint64(FH_DIM)).astype(np.int64)
        sign = (((hs >> np.uint64(FH_SIGN_BIT)) & np.uint64(1))
                .astype(np.int64) * 2 - 1)
        out = (pl.DataFrame({
            "doc_id": df["doc_id"],
            "dim": dim,
            "val": sign * df["tf"].cast(pl.Int64).to_numpy(),
        }).group_by(["doc_id", "dim"]).agg(pl.col("val").sum()))
        return out.to_arrow()

    return _docs(sf_dir).map_batches(feats, batch_format="pyarrow",
                                     batch_size=512)


SQL_Q107 = f"""
WITH s AS (
  SELECT doc_id,
         unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS tok
  FROM documents
), h AS (
  SELECT doc_id, md5_number_lower(tok) AS hv FROM s
)
SELECT doc_id, CAST(hv % {FH_DIM} AS BIGINT) AS dim,
       CAST(sum(CASE WHEN (hv >> {FH_SIGN_BIT}) & 1 = 1
                     THEN 1 ELSE -1 END) AS BIGINT) AS val
FROM h GROUP BY 1, 2
"""


def q98_source_shift(sf_dir: str):
    """Domain-shift scoring for corpus mixing: how far each source's
    token distribution sits from the pooled corpus, as the χ²
    homogeneity statistic — the op a training-data pipeline runs to
    spot outlier domains before fixing mixture weights (q74).

    χ² = Σ_tok (c − e)²/e with e = n_s·C/N algebraically reduces to
    (N/n_s)·Σ_tok(c²/C) − n_s, so the ONLY cross-token reduction is
    Σ(c²/C).  Floats are order-sensitive under reduction, so that sum
    is made EXACT instead: each term is the integer c²·SCALE // C
    (non-negative, so DuckDB's truncating // and polars' floor //
    agree), and exact int64 sums are order-free.  The final scalar
    expression tree over those exact integers uses only correctly-
    rounded IEEE ops (+,−,×,÷), mirrored token-for-token in the twin —
    no log/exp ever crosses the engine boundary.

    Plan shape at 100 TB: per-batch polars (tok, source) partial
    counts (the combiner — raw tokens never shuffle), ONE tok-keyed
    exchange where each bucket holds complete per-tok columns (ctot is
    local), per-source partials out, one O(sources) sum, and an
    O(sources) driver finish."""
    import polars as pl

    from ..functions.grouping import bucketed_sum_multi, hash_exchange

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet",
                                 columns=["source", "text"])

    _CNT = pa.schema([("tok", pa.string()), ("source", pa.string()),
                      ("cnt", pa.int64())])

    def count_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "text" not in t.column_names:
            return _CNT.empty_table()
        df = (pl.DataFrame({
            "source": pl.from_arrow(t["source"].combine_chunks()),
            "tok": pl.from_arrow(t["text"].combine_chunks())
                     .str.to_lowercase().str.extract_all("[a-z0-9]+"),
        }).explode("tok", empty_as_null=True).drop_nulls("tok")
          .group_by(["tok", "source"]).len(name="cnt")
          .with_columns(pl.col("cnt").cast(pl.Int64)))
        return df.select(["tok", "source", "cnt"]).to_arrow().cast(_CNT)

    cnts = docs.map_batches(count_partial, batch_format="pyarrow")

    _PART = pa.schema([("source", pa.string()), ("s_part", pa.int64()),
                       ("n_part", pa.int64()), ("t_part", pa.int64())])

    def tok_bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "tok" not in t.column_names:
            return _PART.empty_table()
        df = (pl.from_arrow(t).group_by(["tok", "source"])
              .agg(cnt=pl.col("cnt").sum()))
        df = df.with_columns(ctot=pl.col("cnt").sum().over("tok"))
        df = df.with_columns(
            term=(pl.col("cnt") * pl.col("cnt") * CHI2_SCALE)
                 // pl.col("ctot"))
        out = df.group_by("source").agg(
            s_part=pl.col("term").sum(), n_part=pl.col("cnt").sum(),
            t_part=pl.len().cast(pl.Int64))
        return out.to_arrow().cast(_PART)

    parts = hash_exchange(cnts, "tok", tok_bucket, num_buckets=64)
    per_src = bucketed_sum_multi(
        parts, ["source"],
        {"s_part": "s_scaled", "n_part": "n_s", "t_part": "n_tok"})

    pdf = per_src.to_pandas()          # O(sources) rows — tiny by design
    ns = pdf["n_s"].to_numpy().astype(np.int64)
    s = pdf["s_scaled"].to_numpy().astype(np.int64)
    n_total = np.int64(ns.sum())
    ns_d = ns.astype(np.float64)
    chi2 = np.floor(
        (np.float64(n_total) / ns_d) * (s.astype(np.float64) / 1000000.0)
        * 10000.0 - ns_d * 10000.0 + 0.5).astype(np.int64)
    return pa.table({
        "source": pa.array(pdf["source"], type=pa.string()),
        "n_s": pa.array(ns), "n_tok": pa.array(
            pdf["n_tok"].to_numpy().astype(np.int64)),
        "s_scaled": pa.array(s), "chi2_e4": pa.array(chi2)})


SQL_Q98 = f"""
WITH t AS (
  SELECT source,
         unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS tok
  FROM documents
),
c AS (SELECT source, tok, CAST(count(*) AS BIGINT) AS cnt
      FROM t GROUP BY 1, 2),
ctot AS (SELECT tok, CAST(sum(cnt) AS BIGINT) AS ctot FROM c GROUP BY 1),
ns AS (SELECT source, CAST(sum(cnt) AS BIGINT) AS n_s,
              CAST(count(*) AS BIGINT) AS n_tok
       FROM c GROUP BY 1),
n AS (SELECT CAST(sum(cnt) AS BIGINT) AS n FROM c),
s AS (SELECT c.source,
             CAST(sum((c.cnt * c.cnt * {CHI2_SCALE}) // ctot.ctot)
                  AS BIGINT) AS s_scaled
      FROM c JOIN ctot USING (tok) GROUP BY 1)
SELECT ns.source, ns.n_s, ns.n_tok, s.s_scaled,
       CAST(floor((CAST(n.n AS DOUBLE) / CAST(ns.n_s AS DOUBLE))
                  * (CAST(s.s_scaled AS DOUBLE) / 1000000.0) * 10000.0
                  - CAST(ns.n_s AS DOUBLE) * 10000.0 + 0.5)
            AS BIGINT) AS chi2_e4
FROM ns JOIN s USING (source) CROSS JOIN n
"""

# --- q22: freebase URL → wiki title (SURVEY §2 M3) --------------------------

_FB_PREFIX = "http://rdf.freebase.com/ns/wikipedia/en/"
# deterministic escape injected per doc (covers three distinct $XXXX
# codes so the unescape path is actually exercised)
_FB_ESCAPES = {0: "$0027", 1: "$0026", 2: "$002C"}


def q22_url_titles(sf_dir: str):
    """M3 port (reference utils/Utils.scala:4-30): freebase dump URL →
    wiki page title.  URLs are synthesized deterministically from each
    document's first two tokens (escape code keyed by doc_id % 3, two
    trailing junk chars like the dump lines), then run through the real
    extractor ``wiki_url_to_title`` — the oracle twin reproduces both
    construction and extraction in DuckDB string ops."""
    from ..functions.text import wiki_url_to_title

    def build(t: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.DataFrame({
            "doc_id": pl.from_arrow(t["doc_id"].combine_chunks()),
            "toks": pl.from_arrow(t["text"].combine_chunks())
                      .str.to_lowercase().str.extract_all("[a-z0-9]+"),
        }).filter(pl.col("toks").list.len() >= 2)
        df = df.with_columns(
            t1=pl.col("toks").list.get(0),
            t2=pl.col("toks").list.get(1),
            esc=(pl.col("doc_id") % 3).replace_strict(_FB_ESCAPES),
        ).with_columns(
            url=(pl.lit(_FB_PREFIX) + pl.col("t1") + pl.col("esc")
                 + pl.lit("_") + pl.col("t2") + pl.lit('">')),
        )
        out = df.select(["doc_id", "url"]).with_columns(
            title=wiki_url_to_title(df["url"]))
        return out.to_arrow().cast(pa.schema([
            ("doc_id", t.schema.field("doc_id").type),
            ("url", pa.string()), ("title", pa.string())]))

    return _docs(sf_dir).map_batches(build, batch_format="pyarrow")


SQL_Q22 = f"""
WITH two AS (
  SELECT doc_id, toks[1] AS t1, toks[2] AS t2,
         CASE doc_id % 3 WHEN 0 THEN '$0027' WHEN 1 THEN '$0026'
              ELSE '$002C' END AS esc
  FROM (SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS toks
        FROM documents)
  WHERE len(toks) >= 2
),
urls AS (
  SELECT doc_id,
         '{_FB_PREFIX}' || t1 || esc || '_' || t2 || '">' AS url
  FROM two
),
cut AS (
  SELECT doc_id, url,
         substr(e, 1, length(e) - 2) AS e
  FROM (SELECT doc_id, url,
               regexp_extract(url, 'wikipedia/en/(.*)$', 1) AS e
        FROM urls)
)
SELECT doc_id, url,
       replace(replace(replace(replace(e, '$0027', chr(39)),
               '$0026', chr(38)), '$002C', chr(44)), '_', ' ') AS title
FROM cut
"""


# --- q44: df-weighted (TF-IDF-family) similarity join -----------------------

TFIDF_STOP_DF = 1000     # terms in more docs than this carry ~no signal
                         # AND would emit O(df²) pairs — stop-term guard,
                         # same semantic as JAC_STOP_DF (mirrored in SQL)
TFIDF_W_SCALE = 100_000  # weight = tf * (W_SCALE // df): an integer-exact
                         # inverse-document-frequency surrogate — floor
                         # division keeps BOTH engines bit-identical where
                         # a float ln(N/df) could round differently
TFIDF_TOP_K = 3          # keep each doc's K most similar partners.
                         # Rank-based, NOT an absolute wdot threshold:
                         # w is df-reciprocal, so absolute scores shrink
                         # as the corpus (and every df) grows — a fixed
                         # cutoff that works at sf0.001 returns nothing
                         # at sf0.1; per-doc rank is scale-free


def q44_tfidf_pairs(sf_dir: str):
    """Sparse TF-IDF-weighted similarity join over the documents table:
    for every doc pair sharing a non-stop term, the weighted dot product
    Σ_t w_a(t)·w_b(t) with w = tf · ⌊W_SCALE/df⌋; each doc keeps its
    TOP_K highest-scoring partners (combiner-first ``topk_per_group``).

    Terms are the same 3-token shingles as q12 (NOT single words: the
    synthetic documents table has a ~31-word vocabulary, so every word
    is a stop-word — only word SEQUENCES are discriminative), but kept
    with COUNTS: tf = how often the shingle occurs in the doc.

    Same inverted-index shape as q12 but WEIGHTED: explode to
    (doc, term, tf) rows (one vectorized polars pass, whole doc in its
    row so tf is batch-local-exact), ONE exchange on the term — df is
    then exact in-bucket (each doc contributes one row per distinct
    term) so no second df-broadcast pass is needed — triu pair emission
    batched by group size with per-pair partial products, bucketed sum,
    per-doc top-k.  All arithmetic int64: max w ≈ tf·W_SCALE/2 ≈ 5e6,
    per-term product ≤ 2.5e13, dot ≤ ~1e16 — no overflow, no float
    drift.

    Scale notes (100 TB): identical profile to q12 — the exchange moves
    (doc_id, term string, tf) rows once; stop-df caps any term's pair
    fan-out at STOP_DF²/2; per-bucket work is vectorized numpy over
    group-size batches."""
    from ..functions.grouping import bucketed_sum, hash_exchange

    k = JAC_SHINGLE_K

    def explode(t: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.DataFrame({
            "doc_id": pl.from_arrow(t["doc_id"].combine_chunks()).cast(pl.Int64),
            "tok": pl.from_arrow(t["text"].combine_chunks())
                     .str.to_lowercase().str.extract_all("[a-z0-9]+"),
        }).explode("tok", empty_as_null=True).drop_nulls("tok")
        sh = df.with_columns(
            pl.concat_str([pl.col("tok").shift(-i).over("doc_id")
                           for i in range(k)], separator=" ").alias("tok")
        ).drop_nulls("tok")
        out = (sh.group_by(["doc_id", "tok"])
               .agg(pl.len().cast(pl.Int64).alias("tf")))
        return out.to_arrow()

    rows = _docs(sf_dir).map_batches(explode, batch_format="pyarrow",
                                     batch_size=512)

    empty = pa.table({"pair": pa.array([], type=pa.int64()),
                      "wdot_p": pa.array([], type=pa.int64())})

    def pairs_bucket(bucket: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(bucket).sort(["tok", "doc_id"])
        ids = df["doc_id"].to_numpy()
        tf = df["tf"].to_numpy()
        tokv = df["tok"].to_numpy()
        n = len(ids)
        if n == 0:
            return empty
        starts = np.flatnonzero(np.r_[True, tokv[1:] != tokv[:-1]])
        bounds = np.append(starts, n)
        sizes = np.diff(bounds)
        # df is exact here: all (doc, token) rows of a token co-locate
        w = tf * (TFIDF_W_SCALE // np.repeat(sizes, sizes))
        ap, bp = [], []
        ok = (sizes >= 2) & (sizes <= TFIDF_STOP_DF)
        for m in np.unique(sizes[ok]):
            ia, ib = np.triu_indices(int(m), k=1)
            base = bounds[:-1][ok & (sizes == m)]
            ap.append((base[:, None] + ia[None, :]).ravel())
            bp.append((base[:, None] + ib[None, :]).ravel())
        if not ap:
            return empty
        ai = np.concatenate(ap)
        bi = np.concatenate(bp)
        pair = ids[ai] * (1 << 32) + ids[bi]     # in-group sort → a < b
        prod = w[ai] * w[bi]
        # in-bucket partial sum: the same pair repeats across tokens
        upair, inv = np.unique(pair, return_inverse=True)
        wdot = np.zeros(len(upair), dtype=np.int64)
        np.add.at(wdot, inv, prod)
        return pa.table({"pair": pa.array(upair),
                         "wdot_p": pa.array(wdot)})

    shared = hash_exchange(rows, "tok", pairs_bucket)
    agg = bucketed_sum(shared, ["pair"], "wdot_p", "wdot")

    def unpack(t: pa.Table) -> pa.Table:
        pair = np.asarray(t["pair"], dtype=np.int64)
        return pa.table({
            "doc_a": pa.array(pair >> 32),
            "doc_b": pa.array(pair & 0xFFFFFFFF),
            "wdot": pa.array(np.asarray(t["wdot"], dtype=np.int64)),
        })

    from ..functions.grouping import topk_per_group

    return topk_per_group(agg.map_batches(unpack, batch_format="pyarrow"),
                          "doc_a", "wdot", TFIDF_TOP_K,
                          descending=True, tie_cols=["doc_b"])


SQL_Q44 = f"""
WITH tok AS (
  SELECT doc_id, tok, count(*) AS tf
  FROM (SELECT doc_id, unnest(list_transform(
            generate_series(1, greatest(len(toks) - {JAC_SHINGLE_K - 1}, 0)),
            i -> list_aggregate(toks[i : i + {JAC_SHINGLE_K - 1}],
                                'string_agg', ' '))) AS tok
        FROM (SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+')
                     AS toks
              FROM documents))
  GROUP BY 1, 2
),
w AS (
  SELECT doc_id, tok,
         tf * ({TFIDF_W_SCALE} // count(*) OVER (PARTITION BY tok)) AS w,
         count(*) OVER (PARTITION BY tok) AS df
  FROM tok
)
SELECT doc_a, doc_b, wdot FROM (
  SELECT doc_a, doc_b, wdot,
         row_number() OVER (PARTITION BY doc_a
                            ORDER BY wdot DESC, doc_b) AS rn
  FROM (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
               CAST(sum(a.w * b.w) AS BIGINT) AS wdot
        FROM w a JOIN w b ON a.tok = b.tok AND a.doc_id < b.doc_id
        WHERE a.df BETWEEN 2 AND {TFIDF_STOP_DF}
        GROUP BY 1, 2))
WHERE rn <= {TFIDF_TOP_K}
"""


# --- q46: document chunking (fixed token windows with stride) ---------------

CHUNK_SIZE = 16      # tokens per chunk
CHUNK_STRIDE = 8     # overlap = SIZE - STRIDE; tail fragments kept


def q46_chunk_documents(sf_dir: str):
    """Split every document into fixed-size overlapping token chunks —
    the context-window preparation step of any LLM training/RAG
    pipeline.  Pure per-batch flat-map (no shuffle at all): one
    vectorized polars pass tokenizes, builds the stride grid with
    ``int_ranges``, explodes, and slices each chunk out of the doc's
    token list.  Embarrassingly parallel at any scale; output rows
    carry (doc_id, chunk_id, n_toks, chunk)."""
    def chunk(t: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.DataFrame({
            "doc_id": pl.from_arrow(t["doc_id"].combine_chunks()).cast(pl.Int64),
            "toks": pl.from_arrow(t["text"].combine_chunks())
                      .str.to_lowercase().str.extract_all("[a-z0-9]+"),
        }).with_columns(n=pl.col("toks").list.len().cast(pl.Int64))
        out = (df.filter(pl.col("n") > 0)
               .with_columns(start=pl.int_ranges(0, pl.col("n"),
                                                 CHUNK_STRIDE))
               .explode("start", empty_as_null=True)
               .with_columns(
                   chunk_id=(pl.col("start") // CHUNK_STRIDE).cast(pl.Int64),
                   n_toks=pl.min_horizontal(
                       pl.lit(CHUNK_SIZE, dtype=pl.Int64),
                       pl.col("n") - pl.col("start")).cast(pl.Int64),
                   chunk=pl.col("toks").list.slice(pl.col("start"),
                                                   CHUNK_SIZE)
                           .list.join(" "),
               )
               .select(["doc_id", "chunk_id", "n_toks", "chunk"]))
        return out.to_arrow()

    return _docs(sf_dir).map_batches(chunk, batch_format="pyarrow",
                                     batch_size=512)


SQL_Q46 = f"""
SELECT doc_id,
       CAST((s - 1) // {CHUNK_STRIDE} AS BIGINT) AS chunk_id,
       CAST(least({CHUNK_SIZE}, len(toks) - s + 1) AS BIGINT) AS n_toks,
       list_aggregate(toks[s : s + {CHUNK_SIZE - 1}], 'string_agg', ' ')
           AS chunk
FROM (SELECT doc_id, toks, unnest(generate_series(1, len(toks),
             {CHUNK_STRIDE})) AS s
      FROM (SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+')
                   AS toks
            FROM documents)
      WHERE len(toks) > 0)
"""


# --- q49: chunk-level exact dedup (composed q46 → dedup_keep_first) ---------

def q49_chunk_dedup(sf_dir: str):
    """Training-data boilerplate removal: chunk every document (q46),
    then keep ONE canonical copy of each distinct chunk text — the
    lowest (doc_id, chunk_id) owner wins, deterministically.  Composed
    entirely from existing operators: the shuffle-free chunker feeds
    ``dedup_keep_first`` on the chunk text (one exchange; all copies of
    a chunk co-locate by text hash).  Overlapping strides make repeated
    boilerplate appear many times — the survivor ratio is the dedup
    win a real corpus would see."""
    from ..functions.grouping import dedup_keep_first

    chunks = q46_chunk_documents(sf_dir)
    return dedup_keep_first(chunks, "chunk",
                            order_cols=["doc_id", "chunk_id"])


SQL_Q49 = f"""
WITH chunks AS ({SQL_Q46})
SELECT doc_id, chunk_id, n_toks, chunk FROM (
  SELECT *, row_number() OVER (PARTITION BY chunk
                               ORDER BY doc_id, chunk_id) AS rn
  FROM chunks)
WHERE rn = 1
"""


# --- q58: near-dup clusters (connected components over q12 pairs) -------------

NEARDUP_MIN_E4 = 500   # cluster edges: jaccard ≥ 0.05


def q58_neardup_clusters(sf_dir: str):
    """Near-duplicate GROUPS, not just pairs: connected components over
    the q12 similarity graph at NEARDUP_MIN_E4, labels = component-min
    doc_id.  Runs the flagship star-contraction engine
    (stages/clustering.py: large-star/small-star rounds, bounded driver
    finish) — this row makes the distributed CC algorithm itself
    oracle-checked against a DuckDB recursive CTE, complementing the
    rows-only link_clusters.  doc ids travel as 20-digit zero-padded
    strings (uint64 max is 20 digits) so the engine's string-min label
    contract equals integer min for ANY int64 doc_id."""
    from ..stages.clustering import connected_components

    pairs = q12_ngram_jaccard_pairs(sf_dir)

    def to_edges(t: pa.Table) -> pa.Table:
        import polars as pl

        df = (pl.from_arrow(t)
              .filter(pl.col("jac_e4") >= NEARDUP_MIN_E4)
              .select(
                  pl.col("doc_a").cast(pl.String).str.zfill(20).alias("u"),
                  pl.col("doc_b").cast(pl.String).str.zfill(20).alias("v"),
              ))
        return df.to_arrow().cast(
            pa.schema([("u", pa.string()), ("v", pa.string())]))

    labels = connected_components(
        pairs.map_batches(to_edges, batch_format="pyarrow"), 64)

    def back(t: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(t)
        return pa.table({
            "doc_id": df["conv_id"].cast(pl.Int64).to_arrow(),
            "cluster_id": df["cluster_id"].cast(pl.Int64).to_arrow(),
        })

    return labels.map_batches(back, batch_format="pyarrow")


# the q58 CC machinery as a reusable CTE prefix (q58 = labels;
# q110 = golden records over the same clusters)
_SQL_NEARDUP_CC_CTE = f"""
WITH RECURSIVE s AS (
  SELECT doc_id, len(shs) AS n_sh, unnest(shs) AS sh
  FROM (SELECT doc_id, list_distinct(list_transform(
            generate_series(1, greatest(len(toks) - {JAC_SHINGLE_K - 1}, 0)),
            i -> list_aggregate(toks[i : i + {JAC_SHINGLE_K - 1}], 'string_agg', ' ')
        )) AS shs
        FROM (SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS toks
              FROM documents))
),
live AS (
  SELECT sh FROM s GROUP BY sh HAVING count(*) <= {JAC_STOP_DF}
),
p AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
         any_value(a.n_sh) AS na, any_value(b.n_sh) AS nb,
         count(*) AS inter
  FROM s a JOIN s b ON a.sh = b.sh AND a.doc_id < b.doc_id
  WHERE a.sh IN (SELECT sh FROM live)
  GROUP BY 1, 2
),
pairs AS (
  SELECT doc_a, doc_b FROM p
  WHERE (inter * 10000) // (na + nb - inter) >= {NEARDUP_MIN_E4}
),
edges AS (
  SELECT doc_a AS u, doc_b AS v FROM pairs
  UNION
  SELECT doc_b, doc_a FROM pairs
),
reach(node, m) AS (
  SELECT u, u FROM edges
  UNION
  SELECT e.u, r.m FROM edges e JOIN reach r ON r.node = e.v
)"""

SQL_Q58 = _SQL_NEARDUP_CC_CTE + """
SELECT CAST(node AS BIGINT) AS doc_id,
       CAST(min(m) AS BIGINT) AS cluster_id
FROM reach GROUP BY node
"""


# --- q154: dedup-savings report over the near-dup clusters -------------------

def q154_dedup_savings(sf_dir: str):
    """Dedup yield report: the cluster-size distribution of the q58
    near-dup clustering with, per size, how many documents and how many
    characters a keep-one-representative policy removes (representative
    = the cluster-label doc, the component-min id) — the capacity-
    planning number a dedup deployment is judged by before anyone flips
    it on.  Shape: q58 labels ⋈ doc lengths via ONE bucketed hash_join
    with the per-cluster partial aggregate FUSED into the bucket task,
    then one fused ``rekey_exchange``-style regroup: cluster rows →
    size-keyed histogram (O(clusters) rows, then O(sizes))."""
    import polars as pl

    from ..functions.grouping import hash_exchange, hash_join

    labels = q58_neardup_clusters(sf_dir)
    docs = read_parquet_clean(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "n_chars"])

    _CL = pa.schema([("cluster_id", pa.int64()), ("sz", pa.int64()),
                     ("dup_chars", pa.int64())])

    def per_cluster_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "cluster_id" not in t.column_names:
            return _CL.empty_table()
        df = pl.from_arrow(t).with_columns(
            dup=pl.when(pl.col("doc_id") != pl.col("cluster_id"))
                  .then(pl.col("n_chars")).otherwise(0))
        return (df.group_by("cluster_id")
                .agg(sz=pl.len().cast(pl.Int64),
                     dup_chars=pl.col("dup").sum())
                .to_arrow().cast(_CL))

    joined = hash_join(labels, docs, on="doc_id", num_buckets=16,
                       post=per_cluster_partial)

    _OUT = pa.schema([("cluster_size", pa.int64()),
                      ("n_clusters", pa.int64()),
                      ("dup_docs", pa.int64()),
                      ("dup_chars", pa.int64())])

    def resolve_cluster(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "cluster_id" not in t.column_names:
            return _OUT.empty_table()
        df = (pl.from_arrow(t).group_by("cluster_id")
              .agg(sz=pl.col("sz").sum(), dup_chars=pl.col("dup_chars")
                   .sum()))
        return (df.group_by("sz")
                .agg(n_clusters=pl.len().cast(pl.Int64),
                     dup_docs=((pl.col("sz") - 1).sum()),
                     dup_chars=pl.col("dup_chars").sum())
                .rename({"sz": "cluster_size"})
                .select(["cluster_size", "n_clusters", "dup_docs",
                         "dup_chars"])
                .to_arrow().cast(_OUT))

    # a cluster's join-bucket partials may split across doc_id buckets;
    # regroup ONCE by cluster_id and resolve sizes + the size histogram
    # partials in the same task, then a final tiny size-keyed sum
    per_cluster = hash_exchange(joined, "cluster_id", resolve_cluster,
                                num_buckets=8)

    def sum_sizes(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "cluster_size" not in t.column_names:
            return _OUT.empty_table()
        return (pl.from_arrow(t).group_by("cluster_size")
                .agg(n_clusters=pl.col("n_clusters").sum(),
                     dup_docs=pl.col("dup_docs").sum(),
                     dup_chars=pl.col("dup_chars").sum())
                .to_arrow().cast(_OUT))

    return hash_exchange(per_cluster, "cluster_size", sum_sizes, num_buckets=2)


SQL_Q154 = _SQL_NEARDUP_CC_CTE + """
, lab AS (SELECT CAST(node AS BIGINT) AS doc_id,
                 CAST(min(m) AS BIGINT) AS cluster_id
          FROM reach GROUP BY node),
cl AS (
  SELECT cluster_id, CAST(count(*) AS BIGINT) AS sz,
         CAST(SUM(CASE WHEN d.doc_id <> cluster_id THEN d.n_chars
                       ELSE 0 END) AS BIGINT) AS dup_chars
  FROM lab JOIN documents d USING (doc_id) GROUP BY cluster_id
)
SELECT sz AS cluster_size, CAST(count(*) AS BIGINT) AS n_clusters,
       CAST(SUM(sz - 1) AS BIGINT) AS dup_docs,
       CAST(SUM(dup_chars) AS BIGINT) AS dup_chars
FROM cl GROUP BY sz
"""


def q110_golden_records(sf_dir: str):
    """Survivorship / golden-record construction — the MDM merge step
    after dedup clustering: every q58 near-dup cluster collapses to
    ONE canonical record (representative = longest text, tie-break
    smallest doc_id) plus member count and total chars.  The op a
    master-data pipeline runs between "cluster the duplicates" and
    "publish the entity table"; the flagship's conv clusters get the
    same treatment in production.

    Cluster labels attach to the documents via one bucketed
    `hash_join` on doc_id (the label table is O(docs) — never
    broadcast), then ONE exchange on cluster_id resolves survivorship
    vectorized (sort + keep-first per cluster)."""
    import polars as pl

    from ..functions.grouping import hash_exchange, hash_join

    clusters = q58_neardup_clusters(sf_dir).materialize()
    docs = read_parquet_clean(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "n_chars"])

    j = hash_join(clusters, docs, on="doc_id")

    out_schema = pa.schema([("cluster_id", pa.int64()),
                            ("n_members", pa.int64()),
                            ("rep_doc_id", pa.int64()),
                            ("rep_n_chars", pa.int64()),
                            ("chars_total", pa.int64())])

    def golden(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "cluster_id" not in t.column_names:
            return out_schema.empty_table()
        df = (pl.from_arrow(t)
              .sort(["cluster_id", "n_chars", "doc_id"],
                    descending=[False, True, False]))
        out = (df.group_by("cluster_id", maintain_order=True)
               .agg(n_members=pl.len().cast(pl.Int64),
                    rep_doc_id=pl.col("doc_id").first(),
                    rep_n_chars=pl.col("n_chars").first(),
                    chars_total=pl.col("n_chars").sum()))
        return out.to_arrow().cast(out_schema)

    return hash_exchange(j, "cluster_id", golden, num_buckets=16)


SQL_Q110 = _SQL_NEARDUP_CC_CTE + """,
cl AS (
  SELECT CAST(node AS BIGINT) AS doc_id,
         CAST(min(m) AS BIGINT) AS cluster_id
  FROM reach GROUP BY node
),
j AS (
  SELECT cl.cluster_id, d.doc_id, d.n_chars
  FROM cl JOIN documents d ON cl.doc_id = d.doc_id
)
SELECT cluster_id, n_members, doc_id AS rep_doc_id,
       n_chars AS rep_n_chars, chars_total
FROM (
  SELECT cluster_id, doc_id, n_chars,
         CAST(count(*) OVER w AS BIGINT) AS n_members,
         CAST(sum(n_chars) OVER w AS BIGINT) AS chars_total,
         row_number() OVER
           (PARTITION BY cluster_id ORDER BY n_chars DESC, doc_id)
           AS rn
  FROM j
  WINDOW w AS (PARTITION BY cluster_id)
)
WHERE rn = 1
"""


# --- q57: BPE-ish token counting ---------------------------------------------

# GPT-2-style pretokenizer, restricted to the regex dialect rust-regex
# (polars) and RE2 (DuckDB) share: contraction suffixes, space-prefixed
# letter/digit runs, space-prefixed punctuation runs, whitespace runs.
# (The real GPT-2 pattern's trailing-space lookahead branch is dropped —
# neither engine supports lookahead; the count semantics are fixed HERE.)
BPE_PAT = (r"'(?:s|t|re|ve|m|ll|d)| ?\p{L}+| ?\p{N}+"
           r"| ?[^\s\p{L}\p{N}]+|\s+")


def q57_bpe_token_count(sf_dir: str):
    """Token-budget accounting per doc: BPE-ish pretokenizer count,
    whitespace-word count, and their e4 ratio (tokens-per-word — the
    fertility estimate a budget planner multiplies corpus word counts
    by).  One vectorized regex pass per batch; no shuffle."""
    def count(t: pa.Table) -> pa.Table:
        import polars as pl

        txt = pl.from_arrow(t["text"].combine_chunks())
        n_bpe = txt.str.count_matches(BPE_PAT).cast(pl.Int64)
        n_word = txt.str.count_matches(r"\S+").cast(pl.Int64)
        return pa.table({
            "doc_id": t["doc_id"].combine_chunks().cast(pa.int64()),
            "n_bpe": n_bpe.to_arrow(),
            "n_words": n_word.to_arrow(),
            "fertility_e4": (10000 * n_bpe
                             // n_word.clip(lower_bound=1)).to_arrow(),
        })

    return _docs(sf_dir).map_batches(count, batch_format="pyarrow",
                                     batch_size=2048)


_BPE_SQL = BPE_PAT.replace("'", "''")   # escape the quote for the SQL literal

SQL_Q57 = f"""
SELECT doc_id,
       CAST(len(regexp_extract_all(text, '{_BPE_SQL}')) AS BIGINT) AS n_bpe,
       CAST(len(regexp_extract_all(text, '\\S+')) AS BIGINT) AS n_words,
       CAST(10000 * len(regexp_extract_all(text, '{_BPE_SQL}'))
            // greatest(len(regexp_extract_all(text, '\\S+')), 1) AS BIGINT)
           AS fertility_e4
FROM documents
"""


# --- q71: verbatim shared-span leak pairs ------------------------------------

SPAN_W = 8         # span length in tokens — long enough to be verbatim
SPAN_DF_CAP = 16   # boilerplate guard: drop spans in > CAP docs


def q71_shared_span_pairs(sf_dir: str):
    """Doc pairs sharing ≥1 verbatim SPAN_W-token span — the poor man's
    suffix-array substring dedup (published cross-doc span-leak check):
    distinct span hashes per doc cross ONE exchange keyed on the hash, so
    each bucket sees EVERY holder of its spans and computes the exact
    doc-frequency cap in-bucket (spans in > SPAN_DF_CAP docs are
    boilerplate, dropped — mirrored in the SQL twin); surviving spans
    emit triu pairs pre-counted per bucket, and one skinny
    groupby(pair).sum finishes.  Same bucketed inverted-index discipline
    as q12, with exact-span instead of Jaccard semantics."""
    import polars as pl
    from ray.data.aggregate import Sum

    from ..functions.grouping import hash_exchange
    from ..functions.hashing import pack_pairs_np
    from .relational import _t

    def spans(t: pa.Table) -> pa.Table:
        df = _doc_shingles(t, SPAN_W)
        if len(df) == 0:
            return pa.table({"h": pa.array([], type=pa.int64()),
                             "doc_id": pa.array([], type=pa.int64())})
        ids = np.asarray(t["doc_id"], dtype=np.int64)
        return pa.table({
            "h": pa.array(_md5_cached({}, df["sh"].to_list())
                          .view(np.int64), type=pa.int64()),
            "doc_id": pa.array(ids[df["rid"].to_numpy()], type=pa.int64()),
        })

    empty = pa.table({"pk": pa.array([], type=pa.int64()),
                      "n_partial": pa.array([], type=pa.int64())})

    def bucket_pairs(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "h" not in t.column_names:
            return empty
        df = (pl.from_arrow(t).unique(subset=["h", "doc_id"])
              .sort(["h", "doc_id"]))
        h = df["h"].to_numpy()
        doc = df["doc_id"].to_numpy()
        starts = np.flatnonzero(np.r_[True, h[1:] != h[:-1]])
        sizes = np.diff(np.append(starts, len(h)))
        pks = []
        for s, size in zip(starts, sizes):
            if size < 2 or size > SPAN_DF_CAP:
                continue
            a, b = np.triu_indices(size, k=1)
            pks.append(pack_pairs_np(doc[s:s + size][a],
                                     doc[s:s + size][b]))
        if not pks:
            return empty
        vc = pl.DataFrame({"pk": np.concatenate(pks).view(np.int64)}) \
            .group_by("pk").len(name="n_partial")
        return pa.table({"pk": vc["pk"].to_arrow(),
                         "n_partial": vc["n_partial"].cast(pl.Int64)
                                                     .to_arrow()})

    sh = (_t(sf_dir, "documents", ["doc_id", "text"])
          .map_batches(spans, batch_format="pyarrow", batch_size=256))
    counts = (hash_exchange(sh, "h", bucket_pairs)
              .groupby("pk").aggregate(Sum("n_partial", alias_name="n")))

    def unpack(t: pa.Table) -> pa.Table:
        pk = np.asarray(t["pk"], dtype=np.int64).view(np.uint64)
        return pa.table({
            "doc_a": pa.array((pk >> np.uint64(32)).astype(np.int64),
                              type=pa.int64()),
            "doc_b": pa.array((pk & np.uint64(0xFFFFFFFF)).astype(np.int64),
                              type=pa.int64()),
            "n_shared_spans": t["n"],
        })

    return counts.map_batches(unpack, batch_format="pyarrow")


SQL_Q71 = f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS t
  FROM documents
),
sh AS (
  SELECT DISTINCT doc_id,
         md5_number_lower(unnest(list_distinct(list_transform(
             generate_series(1, greatest(len(t) - {SPAN_W - 1}, 0)),
             i -> list_aggregate(t[i : i + {SPAN_W - 1}], 'string_agg', ' ')
         )))) AS h
  FROM toks
),
keep AS (SELECT h FROM sh GROUP BY h
         HAVING count(*) BETWEEN 2 AND {SPAN_DF_CAP})
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       CAST(count(*) AS BIGINT) AS n_shared_spans
FROM sh a JOIN keep USING (h) JOIN sh b USING (h)
WHERE a.doc_id < b.doc_id
GROUP BY a.doc_id, b.doc_id
"""


def q114_source_contamination(sf_dir: str):
    """Cross-source contamination matrix — the corpus-governance
    report behind "how much does source A copy source B": for every
    source pair, the number of verbatim SPAN_W-token span
    co-occurrences between their documents (q71's span machinery with
    the SOURCE carried through, so the matrix needs NO doc→source
    join afterwards).  Distinct (span, doc, source) rows cross ONE
    exchange on the span hash; each bucket applies the exact
    doc-frequency boilerplate cap and counts its span groups' doc
    pairs per (least, greatest) source pair — O(sources²) partials —
    then one tiny sum finishes."""
    import polars as pl

    from ray.data.aggregate import Sum

    from ..functions.grouping import hash_exchange
    from .relational import _t

    def spans(t: pa.Table) -> pa.Table:
        empty = pa.table({"h": pa.array([], type=pa.int64()),
                          "doc_id": pa.array([], type=pa.int64()),
                          "source": pa.array([], type=pa.large_string())})
        if t.num_rows == 0 or "doc_id" not in t.column_names:
            return empty
        df = _doc_shingles(t, SPAN_W)
        if len(df) == 0:
            return empty
        rid = df["rid"].to_numpy()
        ids = np.asarray(t["doc_id"], dtype=np.int64)
        src = t["source"].to_pylist()
        return pa.table({
            "h": pa.array(_md5_cached({}, df["sh"].to_list())
                          .view(np.int64), type=pa.int64()),
            "doc_id": pa.array(ids[rid], type=pa.int64()),
            "source": pa.array([src[i] for i in rid],
                               type=pa.large_string()),
        })

    empty_p = pa.table({"src_a": pa.array([], type=pa.large_string()),
                        "src_b": pa.array([], type=pa.large_string()),
                        "n_partial": pa.array([], type=pa.int64())})

    def bucket_matrix(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "h" not in t.column_names:
            return empty_p
        df = (pl.from_arrow(t).unique(subset=["h", "doc_id"])
              .sort(["h", "doc_id"]))
        h = df["h"].to_numpy()
        src = df["source"].to_numpy()
        starts = np.flatnonzero(np.r_[True, h[1:] != h[:-1]])
        sizes = np.diff(np.append(starts, len(h)))
        sa, sb = [], []
        for s, size in zip(starts, sizes):
            if size < 2 or size > SPAN_DF_CAP:
                continue
            a, b = np.triu_indices(size, k=1)
            ga, gb = src[s:s + size][a], src[s:s + size][b]
            lo = np.minimum(ga, gb)
            hi = np.maximum(ga, gb)
            sa.append(lo)
            sb.append(hi)
        if not sa:
            return empty_p
        vc = (pl.DataFrame({"src_a": np.concatenate(sa),
                            "src_b": np.concatenate(sb)})
              .group_by(["src_a", "src_b"]).len(name="n_partial")
              .with_columns(pl.col("n_partial").cast(pl.Int64)))
        return vc.to_arrow().cast(empty_p.schema)

    sh = (_t(sf_dir, "documents", ["doc_id", "text", "source"])
          .map_batches(spans, batch_format="pyarrow", batch_size=256))
    return (hash_exchange(sh, "h", bucket_matrix)
            .groupby(["src_a", "src_b"])
            .aggregate(Sum("n_partial", alias_name="n_cooc")))


SQL_Q114 = f"""
WITH toks AS (
  SELECT doc_id, source, regexp_extract_all(lower(text), '[a-z0-9]+') AS t
  FROM documents
),
sh AS (
  SELECT DISTINCT doc_id, source,
         md5_number_lower(unnest(list_distinct(list_transform(
             generate_series(1, greatest(len(t) - {SPAN_W - 1}, 0)),
             i -> list_aggregate(t[i : i + {SPAN_W - 1}], 'string_agg', ' ')
         )))) AS h
  FROM toks
),
keep AS (SELECT h FROM sh GROUP BY h
         HAVING count(*) BETWEEN 2 AND {SPAN_DF_CAP})
SELECT least(a.source, b.source) AS src_a,
       greatest(a.source, b.source) AS src_b,
       CAST(count(*) AS BIGINT) AS n_cooc
FROM sh a JOIN keep USING (h) JOIN sh b USING (h)
WHERE a.doc_id < b.doc_id
GROUP BY 1, 2
"""


# --- q73: leakage-safe (cluster-aware) train/eval split ----------------------

SPLIT_MOD = 10   # md5(cluster) % 10 → 0=eval, 1=val, 2-9=train


def q73_leakage_safe_split(sf_dir: str):
    """Deterministic train/val/eval split that near-duplicates can never
    straddle: the split lottery hashes the q58 near-dup CLUSTER id, not
    the doc id, so every member of a dup clique lands in the same split
    (the leakage-safe-splitting discipline of published pretraining
    pipelines — splitting by doc id leaks eval content through its
    near-dups).  Composition of engine primitives: the oracle-checked CC
    clustering (q58) → one left hash_join to re-attach singletons
    (cluster = own doc_id) → the q54 md5-lottery per cluster.  md5 is
    oracle parity; production swaps xxhash."""
    from ..functions.grouping import hash_join
    from ..functions.hashing import md5_lower64
    from .relational import _t

    labels = q58_neardup_clusters(sf_dir)
    docs = _t(sf_dir, "documents", ["doc_id"])
    joined = hash_join(docs, labels.map_batches(
        lambda t: pa.table({"doc_id": t["doc_id"],
                            "cl": t["cluster_id"]}),
        batch_format="pyarrow"), "doc_id", how="left")

    def assign(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "cluster_id": pa.array([], type=pa.int64()),
                             "split": pa.array([], type=pa.string())})
        ids = np.asarray(t["doc_id"], dtype=np.int64)
        # singletons carry a null cluster from the left join → own id
        cluster = np.array(
            [ids[i] if v is None else v
             for i, v in enumerate(t["cl"].to_pylist())], dtype=np.int64)
        lot = np.array([md5_lower64(str(c)) % SPLIT_MOD for c in cluster],
                       dtype=np.int64)
        split = np.where(lot == 0, "eval",
                         np.where(lot == 1, "val", "train"))
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "cluster_id": pa.array(cluster, type=pa.int64()),
            "split": pa.array(split, type=pa.string()),
        })

    return joined.map_batches(assign, batch_format="pyarrow")


_Q58_TAIL = """SELECT CAST(node AS BIGINT) AS doc_id,
       CAST(min(m) AS BIGINT) AS cluster_id
FROM reach GROUP BY node"""

SQL_Q73 = SQL_Q58.replace(_Q58_TAIL, f"""lab AS (
  SELECT node AS doc_id, min(m) AS cluster_id FROM reach GROUP BY node
)
SELECT d.doc_id,
       CAST(COALESCE(l.cluster_id, d.doc_id) AS BIGINT) AS cluster_id,
       CASE md5_number_lower(CAST(COALESCE(l.cluster_id, d.doc_id)
                                  AS VARCHAR)) % {SPLIT_MOD}
         WHEN 0 THEN 'eval' WHEN 1 THEN 'val' ELSE 'train' END AS split
FROM documents d LEFT JOIN lab l ON l.doc_id = d.doc_id""")
# the reach CTE's closing paren must gain a comma before the lab CTE
SQL_Q73 = SQL_Q73.replace(")\nlab AS (", "),\nlab AS (")


# --- q125: cluster-quality metrics (B-cubed + ARI) ---------------------------


def bcubed_ari_report(cells_ds) -> pa.Table:
    """(pred c, gold g, count n) contingency cells → long-form B-cubed
    P/R/F1 + adjusted-Rand report (shared by q125 and the flagship
    `link_cluster_quality`).  The cell table is O(distinct cluster
    pairs) skinny rows; the metric polynomials fold on the driver in
    exact Python ints — per-cell floor(n²·10⁶/n_c) sums are order-free
    where a float mean-of-ratios isn't, and ARI is a clamped ratio of
    exact pair-count polynomials."""
    nc: dict = {}
    ng: dict = {}
    cells: list[tuple] = []
    for b in cells_ds.iter_batches(batch_format="pyarrow"):
        if b.num_rows == 0 or "c" not in b.column_names:
            continue
        for c, g, n in zip(b["c"].to_pylist(), b["g"].to_pylist(),
                           b["n"].to_pylist()):
            cells.append((c, g, n))
            nc[c] = nc.get(c, 0) + n
            ng[g] = ng.get(g, 0) + n
    nn = sum(n for _, _, n in cells)
    e6 = 1_000_000
    p_sum = sum((n * n * e6) // nc[c] for c, _, n in cells)
    r_sum = sum((n * n * e6) // ng[g] for _, g, n in cells)
    p_e6 = p_sum // nn if nn else 0
    r_e6 = r_sum // nn if nn else 0
    f1_e6 = (2 * p_e6 * r_e6) // (p_e6 + r_e6) if p_e6 + r_e6 else 0
    idx = sum(n * (n - 1) // 2 for _, _, n in cells)
    a = sum(v * (v - 1) // 2 for v in nc.values())
    b_ = sum(v * (v - 1) // 2 for v in ng.values())
    cn2 = nn * (nn - 1) // 2
    den = (a + b_) * cn2 - 2 * a * b_
    num = 2 * (idx * cn2 - a * b_)
    ari_e6 = e6 if den == 0 else (max(num, 0) * e6) // den
    out = [("n_docs", nn), ("n_pred_clusters", len(nc)),
           ("n_gold_clusters", len(ng)),
           ("bcubed_p_e6", p_e6), ("bcubed_r_e6", r_e6),
           ("bcubed_f1_e6", f1_e6), ("ari_e6", ari_e6)]
    return pa.table({
        "metric": pa.array([m for m, _ in out], type=pa.string()),
        "value": pa.array([v for _, v in out], type=pa.int64()),
    })


def q125_cluster_metrics(sf_dir: str):
    """Cluster-level ER evaluation — B-cubed precision/recall/F1 (Bagga
    & Baldwin 1998, the standard coreference/dedup cluster metric) and
    the adjusted Rand index between the q58 near-dup clustering and the
    exact TOKEN-SET reference clustering (docs with identical distinct
    token sets — same content modulo word order and repetition; the
    corpus has no byte-identical texts, which would make the reference
    all singletons and ARI degenerate), as one long-form (metric,
    value) report.  Completes the evaluation
    family: the flagship gates on PAIRWISE F1 (stages/evaluate.py,
    reference eval/Verifier.scala:24-43), link_blocking_quality scores
    the candidate set, q120 calibrates scores — this scores the final
    PARTITION.

    Everything reduces to the (pred, gold) CONTINGENCY TABLE: per-batch
    (c, g) count partials cross one keyed exchange (O(cells) ≤ O(docs)
    skinny rows), the driver folds the tiny cell table, and every metric
    is exact integer arithmetic — B-cubed terms are per-cell
    floor(n²·10⁶/n_c) sums (order-free, unlike a float mean-of-ratios),
    ARI is a ratio of exact pair-count polynomials clamped at 0 — so the
    twin matches hash-exactly with HUGEINT casts and no float ever
    crosses engines.  Singleton docs (absent from q58's edge-bearing
    labels) re-attach as their own predicted cluster via one left
    hash_join (the q73 device)."""
    import polars as pl

    from ..functions.grouping import (bucketed_sum_multi, hash_exchange,
                                      hash_join)
    from .relational import _t

    docs = _t(sf_dir, "documents", ["doc_id", "text"])

    gold_empty = pa.table({"doc_id": pa.array([], type=pa.int64()),
                           "g": pa.array([], type=pa.int64())})

    def set_key(t: pa.Table) -> pa.Table:
        """canonical distinct-token-set string per doc (the q124
        collapse key); token-less docs share the empty key."""
        df = (pl.DataFrame({
                "doc_id": pl.from_arrow(t["doc_id"].combine_chunks())
                            .cast(pl.Int64),
                "tok": pl.from_arrow(t["text"].combine_chunks())
                         .str.to_lowercase().str.extract_all("[a-z0-9]+")})
              .explode("tok", empty_as_null=True)
              .group_by("doc_id")
              .agg(pl.col("tok").drop_nulls().unique().sort()
                     .str.join(" ").alias("s"))
              .with_columns(pl.col("s").fill_null("")))
        return df.select("doc_id", "s").to_arrow().cast(
            pa.schema([("doc_id", pa.int64()), ("s", pa.string())]))

    def gold_bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "s" not in t.column_names:
            return gold_empty
        df = pl.from_arrow(t).select(
            pl.col("doc_id").cast(pl.Int64),
            pl.col("doc_id").cast(pl.Int64).min().over("s").alias("g"))
        return df.to_arrow().cast(gold_empty.schema)

    gold = hash_exchange(
        docs.map_batches(set_key, batch_format="pyarrow"),
        "s", gold_bucket, num_buckets=32).materialize()
    labels = q58_neardup_clusters(sf_dir).map_batches(
        lambda t: pa.table({"doc_id": t["doc_id"], "cl": t["cluster_id"]}),
        batch_format="pyarrow").materialize()
    both = hash_join(gold, labels, "doc_id", how="left")

    cell_empty = pa.table({"c": pa.array([], type=pa.int64()),
                           "g": pa.array([], type=pa.int64()),
                           "n_p": pa.array([], type=pa.int64())})

    def cell_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "g" not in t.column_names:
            return cell_empty
        df = (pl.from_arrow(t)
              .with_columns(pl.col("cl").fill_null(pl.col("doc_id"))
                            .cast(pl.Int64).alias("c"))
              .group_by("c", "g")
              .agg(pl.len().cast(pl.Int64).alias("n_p")))
        return df.select("c", "g", "n_p").to_arrow().cast(cell_empty.schema)

    cells_ds = bucketed_sum_multi(
        both.map_batches(cell_partial, batch_format="pyarrow"),
        ["c", "g"], {"n_p": "n"}, num_buckets=16)

    return bcubed_ari_report(cells_ds)


_SQL_Q125_TAIL = """lab AS (
  SELECT node AS doc_id, min(m) AS cluster_id FROM reach GROUP BY node
),
pg AS (
  SELECT d.doc_id,
         CAST(COALESCE(l.cluster_id, d.doc_id) AS BIGINT) AS c,
         MIN(d.doc_id) OVER (PARTITION BY COALESCE(list_aggregate(
             list_sort(list_distinct(
                 regexp_extract_all(lower(d.text), '[a-z0-9]+'))),
             'string_agg', ' '), '')) AS g
  FROM documents d LEFT JOIN lab l ON l.doc_id = d.doc_id
),
cell AS (SELECT c, g, CAST(count(*) AS HUGEINT) AS n FROM pg GROUP BY c, g),
ncs AS (SELECT c, SUM(n) AS nc FROM cell GROUP BY c),
ngs AS (SELECT g, SUM(n) AS ng FROM cell GROUP BY g),
agg AS (SELECT
    (SELECT SUM(n) FROM cell) AS nn,
    (SELECT count(*) FROM ncs) AS kc,
    (SELECT count(*) FROM ngs) AS kg,
    (SELECT SUM((n*n*1000000) // nc) FROM cell JOIN ncs USING (c)) AS p_sum,
    (SELECT SUM((n*n*1000000) // ng) FROM cell JOIN ngs USING (g)) AS r_sum,
    (SELECT SUM(n*(n-1)//2) FROM cell) AS idx,
    (SELECT SUM(nc*(nc-1)//2) FROM ncs) AS a,
    (SELECT SUM(ng*(ng-1)//2) FROM ngs) AS b
),
fin AS (SELECT nn, kc, kg, p_sum // nn AS p_e6, r_sum // nn AS r_e6,
               idx, a, b, nn*(nn-1)//2 AS cn2 FROM agg)
SELECT 'n_docs' AS metric, CAST(nn AS BIGINT) AS value FROM fin
UNION ALL SELECT 'n_pred_clusters', CAST(kc AS BIGINT) FROM fin
UNION ALL SELECT 'n_gold_clusters', CAST(kg AS BIGINT) FROM fin
UNION ALL SELECT 'bcubed_p_e6', CAST(p_e6 AS BIGINT) FROM fin
UNION ALL SELECT 'bcubed_r_e6', CAST(r_e6 AS BIGINT) FROM fin
UNION ALL SELECT 'bcubed_f1_e6',
  CAST(CASE WHEN p_e6 + r_e6 = 0 THEN 0
       ELSE (2*p_e6*r_e6) // (p_e6 + r_e6) END AS BIGINT) FROM fin
UNION ALL SELECT 'ari_e6',
  CAST(CASE WHEN (a + b)*cn2 - 2*a*b = 0 THEN 1000000
       ELSE (GREATEST(2*(idx*cn2 - a*b), 0) * 1000000)
            // ((a + b)*cn2 - 2*a*b) END AS BIGINT) FROM fin"""

SQL_Q125 = SQL_Q58.replace(_Q58_TAIL, _SQL_Q125_TAIL) \
    .replace(")\nlab AS (", "),\nlab AS (")


# --- q72 / bpe_train: BPE tokenizer induction --------------------------------

BPE_MERGES = 20


def q72_bpe_pair_counts(sf_dir: str):
    """Corpus-weighted adjacent character-pair counts — the statistic
    BPE's first merge maximizes (Sennrich et al. 2016) and the
    SQL-checkable core of ``bpe_train``.  One streaming pass: every
    batch joins its tokens into one separator-delimited byte string and
    counts adjacent in-token byte pairs with a single vectorized
    np.unique over packed u16 codes; partial counts combine through a
    tiny groupby (≤ 36² distinct pairs)."""
    import polars as pl
    from ray.data.aggregate import Sum

    from .relational import _t

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table({"l": pa.array([], type=pa.string()),
                          "r": pa.array([], type=pa.string()),
                          "n_partial": pa.array([], type=pa.int64())})
        if t.num_rows == 0 or "text" not in t.column_names:
            return empty
        toks = (pl.from_arrow(t["text"].combine_chunks())
                .str.to_lowercase().str.extract_all("[a-z0-9]+")
                .explode(empty_as_null=True).drop_nulls())
        if len(toks) == 0:
            return empty
        buf = np.frombuffer(("\x00".join(toks.to_list())).encode("ascii"),
                            dtype=np.uint8)
        if len(buf) < 2:
            return empty
        a, b = buf[:-1], buf[1:]
        keep = (a != 0) & (b != 0)
        packed = (a[keep].astype(np.uint16) << np.uint16(8)) | b[keep]
        codes, counts = np.unique(packed, return_counts=True)
        return pa.table({
            "l": pa.array([chr(c >> 8) for c in codes], type=pa.string()),
            "r": pa.array([chr(c & 0xFF) for c in codes], type=pa.string()),
            "n_partial": pa.array(counts.astype(np.int64), type=pa.int64()),
        })

    counts = (_t(sf_dir, "documents", ["text"])
              .map_batches(partial, batch_format="pyarrow")
              .map_batches(lambda t: t.append_column(
                  "pair", pa.array(
                      [f"{l}{r}" for l, r in zip(t["l"].to_pylist(),
                                                 t["r"].to_pylist())],
                      type=pa.string())), batch_format="pyarrow")
              .groupby("pair").aggregate(Sum("n_partial", alias_name="freq")))

    def unpack(t: pa.Table) -> pa.Table:
        pairs = t["pair"].to_pylist()
        return pa.table({
            "l": pa.array([p[0] for p in pairs], type=pa.string()),
            "r": pa.array([p[1] for p in pairs], type=pa.string()),
            "freq": t["freq"],
        })

    return counts.map_batches(unpack, batch_format="pyarrow")


SQL_Q72 = """
WITH toks AS (
  SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS w
  FROM documents
),
x AS (
  SELECT w, unnest(generate_series(1, length(w) - 1)) AS i FROM toks
),
p AS (SELECT substring(w, i, 1) AS l, substring(w, i + 1, 1) AS r FROM x)
SELECT l, r, CAST(count(*) AS BIGINT) AS freq
FROM p GROUP BY l, r
"""


def _sennrich_merges(wc: list[tuple[str, int]],
                     n_merges: int) -> list[tuple[int, str, str, int]]:
    """Reference BPE merge loop over a (word, count) table (Sennrich et
    al. 2016, alg. 1) with a deterministic tie-break (max freq, then
    lexicographic pair).  O(vocab) per iteration — the driver-side step
    of ``bpe_train`` (published BPE trainers run exactly this on the
    word-count table; the corpus itself is never touched again)."""
    vocab = [(tuple(w), c) for w, c in wc]
    merges: list[tuple[int, str, str, int]] = []
    for rank in range(n_merges):
        pairs: dict[tuple[str, str], int] = {}
        for syms, c in vocab:
            for i in range(len(syms) - 1):
                pairs[(syms[i], syms[i + 1])] = \
                    pairs.get((syms[i], syms[i + 1]), 0) + c
        if not pairs:
            break
        (l, r), freq = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
        merges.append((rank + 1, l, r, freq))
        lr = l + r
        new_vocab = []
        for syms, c in vocab:
            out, i = [], 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == l and syms[i + 1] == r:
                    out.append(lr)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            new_vocab.append((tuple(out), c))
        vocab = new_vocab
    return merges


def bpe_train(sf_dir: str):
    """Full BPE tokenizer induction: the distributed stage is the exact
    word-count table (q05's partial-combine discipline, no floor); the
    merge loop then runs on that O(vocab) table on the driver — the
    shape every published BPE trainer uses, since the corpus reduces to
    word types × counts before any merge math.  Emits the learned merge
    table (rnk, left, right, freq).  Rows-only: the iterative argmax is
    not SQL-expressible; q72 oracle-checks the pair statistic the first
    merge maximizes, and tests/test_textops_fast.py pins the loop
    against an independent recount."""
    import polars as pl
    from ray.data.aggregate import Sum

    from .relational import _t

    def partial(t: pa.Table) -> pa.Table:
        toks = (pl.from_arrow(t["text"].combine_chunks())
                .str.to_lowercase().str.extract_all("[a-z0-9]+")
                .explode(empty_as_null=True).drop_nulls())
        if len(toks) == 0:
            return pa.table({"w": pa.array([], type=pa.string()),
                             "n_partial": pa.array([], type=pa.int64())})
        vc = pl.DataFrame({"w": toks}).group_by("w").len(name="n_partial")
        return pa.table({"w": vc["w"].to_arrow(),
                         "n_partial": vc["n_partial"].cast(pl.Int64)
                                                     .to_arrow()})

    counts = (_t(sf_dir, "documents", ["text"])
              .map_batches(partial, batch_format="pyarrow")
              .groupby("w").aggregate(Sum("n_partial", alias_name="c")))
    wc = [(r["w"], r["c"])
          for b in counts.iter_batches(batch_format="pyarrow")
          for r in b.to_pylist()]
    merges = _sennrich_merges(sorted(wc), BPE_MERGES)
    return pa.table({
        "rnk": pa.array([m[0] for m in merges], type=pa.int64()),
        "left": pa.array([m[1] for m in merges], type=pa.string()),
        "right": pa.array([m[2] for m in merges], type=pa.string()),
        "freq": pa.array([m[3] for m in merges], type=pa.int64()),
    })


# per-WORKER-PROCESS cache of word→token-count under a given merge
# table: BPE encoding is a pure function of (merges, word), and corpus
# word TYPES repeat heavily across batches — each worker pays the
# per-type encode once, every later occurrence is a dict hit (the
# standard trick every published BPE encoder uses: encode types, not
# tokens).  Keyed by the merge-table fingerprint so different trainings
# never collide; bounded by the corpus vocabulary per key and by
# _BPE_ENC_CACHE_MAX keys (a worker serving many corpora evicts oldest).
_BPE_ENC_CACHE: dict = {}
_BPE_ENC_CACHE_MAX = 4


def _bpe_token_len(word: str, merges: tuple) -> int:
    """Token count of one word after replaying ``merges`` in rank order
    (the exact inverse of _sennrich_merges' training replacement)."""
    syms = list(word)
    for left, right in merges:
        if len(syms) < 2:
            break
        out, i, lr = [], 0, left + right
        while i < len(syms):
            if i + 1 < len(syms) and syms[i] == left and syms[i + 1] == right:
                out.append(lr)
                i += 2
            else:
                out.append(syms[i])
                i += 1
        syms = out
    return len(syms)


def bpe_encode(sf_dir: str):
    """Apply the ``bpe_train`` tokenizer to the corpus: per document,
    the word count and the exact BPE token count under the learned
    merges — the token-budget accounting a training pipeline runs after
    inducing its tokenizer (q57's regex estimate replaced by the real
    vocabulary).

    Scale shape: the merge table is O(merges) and ships in the task
    closure; each batch pretokenizes vectorized (polars extract_all),
    encodes each DISTINCT word type once (per-worker process cache —
    types repeat across batches, so steady-state encode work is ~zero),
    and joins type lengths back vectorized.  One streaming pass, no
    shuffle; only (doc_id, n_words, n_tokens_bpe) leaves the batch.
    Documents with no [a-z0-9] word are omitted (they have no tokens).

    Rows-only: depends on bpe_train's iterative merge loop; pytest pins
    the counts against an independent per-document Python re-encode."""
    import polars as pl

    from .relational import _t

    mt = bpe_train(sf_dir)
    merges = tuple(zip(mt["left"].to_pylist(), mt["right"].to_pylist()))
    mkey = hash(merges)

    def enc(t: pa.Table) -> pa.Table:
        words = (pl.from_arrow(t.select(["doc_id", "text"]))
                 .with_columns(pl.col("text").str.to_lowercase()
                               .str.extract_all("[a-z0-9]+").alias("w"))
                 .drop("text").explode("w", empty_as_null=True)
                 .drop_nulls("w"))
        if len(words) == 0:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "n_words": pa.array([], type=pa.int64()),
                             "n_tokens_bpe": pa.array([], type=pa.int64())})
        if mkey not in _BPE_ENC_CACHE and \
                len(_BPE_ENC_CACHE) >= _BPE_ENC_CACHE_MAX:
            _BPE_ENC_CACHE.pop(next(iter(_BPE_ENC_CACHE)))
        cache = _BPE_ENC_CACHE.setdefault(mkey, {})
        uniq = words["w"].unique().to_list()
        lens = []
        for w in uniq:
            n = cache.get(w)
            if n is None:
                n = cache[w] = _bpe_token_len(w, merges)
            lens.append(n)
        type_len = pl.DataFrame({"w": uniq,
                                 "tok": pl.Series(lens, dtype=pl.Int64)})
        out = (words.join(type_len, on="w")
               .group_by("doc_id")
               .agg(pl.len().cast(pl.Int64).alias("n_words"),
                    pl.col("tok").sum().alias("n_tokens_bpe")))
        return out.to_arrow()

    return _t(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        enc, batch_format="pyarrow")


# --- q88: edit-distance similarity join (PassJoin partition filter) --------

ED_K = 3                  # levenshtein threshold, mirrored into the SQL twin
ED_NSEG = ED_K + 1        # k+1 segments → one must match exactly (pigeonhole)
ED_PRE = 40               # document prefix compared (chars == bytes: ASCII)
ED_MINLEN = ED_NSEG       # below this the partition scheme degenerates


def _ed_seglens(L: np.ndarray, i: np.ndarray):
    """Start/length of segment ``i`` under the shared partition scheme
    for a string of length ``L`` (k+1 segments, longer ones first) —
    both the index side and the probe side must derive the IDENTICAL
    scheme for the filter to be complete."""
    base = L // ED_NSEG
    rem = L % ED_NSEG
    ln = base + (i < rem)
    st = i * base + np.minimum(i, rem)
    return st, ln


def _lev_matrix(pre: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Pad to an (n, ED_PRE) uint8 matrix + true lengths (candidates
    are few — the Python encode loop is over the verified pair set,
    never the corpus)."""
    la = np.array([len(s) for s in pre], dtype=np.int64)
    buf = b"".join(s.encode()[:ED_PRE].ljust(ED_PRE, b"\x00") for s in pre)
    return np.frombuffer(buf, dtype=np.uint8).reshape(-1, ED_PRE), la


def _lev_exact(A, la, B, lb) -> np.ndarray:
    """Exact Levenshtein, vectorized across the PAIR axis: the classic
    DP with both character loops scalar (ED_PRE² = 1600 steps) and every
    cell operation a numpy vector over all candidate pairs.  Padding
    bytes never influence the result: cell (i, j) depends only on
    A[:, :i] / B[:, :j] and the answer is read at (la, lb)."""
    n = len(la)
    W = A.shape[1]
    prev = np.tile(np.arange(W + 1, dtype=np.int32), (n, 1))
    ans = np.where(la == 0, lb, 10**9).astype(np.int64)
    rows = np.arange(n)
    for i in range(1, W + 1):
        cur = np.empty_like(prev)
        cur[:, 0] = i
        for j in range(1, W + 1):
            cost = (A[:, i - 1] != B[:, j - 1]).astype(np.int32)
            cur[:, j] = np.minimum(np.minimum(prev[:, j] + 1,
                                              cur[:, j - 1] + 1),
                                   prev[:, j - 1] + cost)
        hit = la == i
        if hit.any():
            ans[hit] = cur[rows[hit], lb[hit]]
        prev = cur
    return ans


def q88_edit_distance_pairs(sf_dir: str):
    """All-pairs edit-distance join: document-prefix pairs with
    Levenshtein ≤ ED_K, via the PassJoin partition filter (Li, Deng,
    Feng, Wang 2011 — the published partition-based ed-join): each
    string splits into k+1 segments, and ed ≤ k forces at least one
    segment of the SHORTER string to appear EXACTLY in the longer one,
    start-shifted by at most k (pigeonhole over the optimal alignment).
    The index side emits its k+1 (segment_idx, length, text) keys; the
    probe side emits every substring a partner of each feasible shorter
    length could contribute (≤ (k+1)·(k+1)·(2k+1) skinny rows per
    string, a CONSTANT); one composite-key ``hash_join`` equi-matches
    them — never an all-pairs comparison.  Candidates canonicalize +
    pre-dedup inside the join's post hook, globally dedup on the packed
    pair key, and verify with the exact pair-vectorized DP in the same
    bucket task.  Complements the q12/q19/q26 similarity-join family
    with character-level (typo-class) semantics.

    Skew note: a segment shared by many strings (boilerplate prefixes)
    concentrates its candidates in one bucket — the blocking stage's hot
    key problem in miniature.  At web scale strip boilerplate first
    (``link_boilerplate_turns``) or route the candidate join through
    ``salted_join``; results are unchanged because candidates are a
    superset either way and the verify step is exact.

    ASCII corpus assumption: char == byte, matching DuckDB's
    character-counting ``levenshtein`` twin."""
    import polars as pl

    from ..functions.grouping import hash_exchange, hash_join

    def _prep(t: pa.Table, idc: str, prec: str) -> "pl.DataFrame | None":
        if t.num_rows == 0 or "text" not in t.column_names:
            return None
        df = (pl.from_arrow(t)
              .with_columns(pre=pl.col("text").str.slice(0, ED_PRE))
              .drop("text")
              .filter(pl.col("pre").str.len_chars() >= ED_MINLEN))
        return df.rename({"doc_id": idc, "pre": prec})

    _SEG_EMPTY = pa.schema([("i", pa.int64()), ("l", pa.int64()),
                            ("seg", pa.string()), ("a_id", pa.int64()),
                            ("a_pre", pa.string())])
    _SUB_EMPTY = pa.schema([("i", pa.int64()), ("l", pa.int64()),
                            ("seg", pa.string()), ("b_id", pa.int64()),
                            ("b_pre", pa.string())])

    def seg_rows(t: pa.Table) -> pa.Table:
        df = _prep(t, "a_id", "a_pre")
        if df is None or df.height == 0:
            return _SEG_EMPTY.empty_table()
        L = df["a_pre"].str.len_chars().to_numpy().astype(np.int64)
        n = df.height
        rid = np.repeat(np.arange(n), ED_NSEG)
        ii = np.tile(np.arange(ED_NSEG), n)
        st, ln = _ed_seglens(L[rid], ii)
        out = pl.DataFrame({
            "a_id": df["a_id"].to_numpy()[rid],
            "a_pre": df["a_pre"].to_numpy()[rid],
            "i": ii, "l": L[rid], "st": st, "ln": ln,
        }).with_columns(
            seg=pl.col("a_pre").str.slice(pl.col("st"), pl.col("ln")))
        return (out.select(["i", "l", "seg", "a_id", "a_pre"])
                .to_arrow().cast(_SEG_EMPTY))

    def sub_rows(t: pa.Table) -> pa.Table:
        df = _prep(t, "b_id", "b_pre")
        if df is None or df.height == 0:
            return _SUB_EMPTY.empty_table()
        Lt = df["b_pre"].str.len_chars().to_numpy().astype(np.int64)
        n = df.height
        npos = 2 * ED_K + 1
        per = (ED_K + 1) * ED_NSEG * npos
        rid = np.repeat(np.arange(n), per)
        dl = np.tile(np.repeat(np.arange(ED_K + 1), ED_NSEG * npos), n)
        ii = np.tile(np.repeat(np.arange(ED_NSEG), npos), n * (ED_K + 1))
        w = np.tile(np.arange(npos), n * (ED_K + 1) * ED_NSEG)
        lp = Lt[rid] - dl                     # feasible SHORTER length
        stp, lnp = _ed_seglens(np.maximum(lp, 1), ii)
        p = stp - ED_K + w
        ok = (lp >= ED_MINLEN) & (p >= 0) & (p <= Lt[rid] - lnp)
        out = pl.DataFrame({
            "b_id": df["b_id"].to_numpy()[rid[ok]],
            "b_pre": df["b_pre"].to_numpy()[rid[ok]],
            "i": ii[ok], "l": lp[ok], "p": p[ok], "ln": lnp[ok],
        }).with_columns(
            seg=pl.col("b_pre").str.slice(pl.col("p"), pl.col("ln")))
        return (out.select(["i", "l", "seg", "b_id", "b_pre"])
                .unique(subset=["i", "l", "seg", "b_id"])
                .to_arrow().cast(_SUB_EMPTY))

    def canon(j: pa.Table) -> pa.Table:
        """Join post hook: drop self-matches, canonicalize pair order,
        in-bucket dedup — only skinny unique candidates leave."""
        df = (pl.from_arrow(j)
              .filter(pl.col("a_id") != pl.col("b_id"))
              .with_columns(
                  pk=(pl.min_horizontal("a_id", "b_id") * (1 << 32)
                      + pl.max_horizontal("a_id", "b_id")),
                  swap=pl.col("a_id") > pl.col("b_id"))
              .with_columns(
                  pre_lo=pl.when(pl.col("swap")).then(pl.col("b_pre"))
                           .otherwise(pl.col("a_pre")),
                  pre_hi=pl.when(pl.col("swap")).then(pl.col("a_pre"))
                           .otherwise(pl.col("b_pre")))
              .select(["pk", "pre_lo", "pre_hi"])
              .unique(subset="pk"))
        return df.to_arrow()

    docs = _docs(sf_dir)
    cands = hash_join(docs.map_batches(seg_rows, batch_format="pyarrow"),
                      docs.map_batches(sub_rows, batch_format="pyarrow"),
                      on=["i", "l", "seg"], num_buckets=32, post=canon)

    def verify_bucket(t: pa.Table) -> pa.Table:
        empty = pa.table({"a": pa.array([], type=pa.int64()),
                          "b": pa.array([], type=pa.int64()),
                          "dist": pa.array([], type=pa.int64())})
        if t.num_rows == 0 or "pk" not in t.column_names:
            return empty
        df = pl.from_arrow(t).unique(subset="pk")
        A, la = _lev_matrix(df["pre_lo"].to_list())
        B, lb = _lev_matrix(df["pre_hi"].to_list())
        dist = _lev_exact(A, la, B, lb)
        keep = dist <= ED_K
        pk = df["pk"].to_numpy()[keep]
        return pa.table({"a": pa.array(pk // (1 << 32)),
                         "b": pa.array(pk % (1 << 32)),
                         "dist": pa.array(dist[keep])})

    return hash_exchange(cands, "pk", verify_bucket, num_buckets=16)


SQL_Q88 = f"""
WITH p AS (
  SELECT doc_id, substr(text, 1, {ED_PRE}) AS pre
  FROM documents
  WHERE length(substr(text, 1, {ED_PRE})) >= {ED_MINLEN}
)
SELECT CAST(x.doc_id AS BIGINT) AS a, CAST(y.doc_id AS BIGINT) AS b,
       CAST(levenshtein(x.pre, y.pre) AS BIGINT) AS dist
FROM p x JOIN p y ON x.doc_id < y.doc_id
WHERE levenshtein(x.pre, y.pre) <= {ED_K}
"""


# --- q115: blocked Jaro-Winkler similarity join (ER blocking classic) ------

JW_MIN_E4 = 8600          # keep pairs with jw >= 0.86, e4 fixed point


def q115_jaro_winkler_pairs(sf_dir: str):
    """Brand-blocked Jaro-Winkler similarity join over part names — the
    classic record-linkage pairing step (block on a cheap exact key,
    score the in-block pairs with a typo-tolerant string measure;
    reference analogue: the fuzzy mention matcher family,
    index/MentionEntitiesFrequencyIndex.scala:82-119, recast with the
    Winkler measure the ER literature defaults to).  One hash exchange
    on the block key; each bucket segments by brand, enumerates in-block
    pairs at the DISTINCT-NAME level (part names repeat heavily, so the
    DP runs once per distinct name pair, not once per part pair), prunes
    with the multiset common-char upper bound
    ``jw ≤ 0.6·((c/la + c/lb + 1)/3) + 0.4`` (c ≥ jaro's matches m and
    (m−t)/m ≤ 1; boost adds at most 0.4·(1−jaro)) — a superset filter,
    the exact e4 test runs after — and scores survivors with the
    pair-axis-vectorized ``jaro_winkler_batch``.

    Oracle: DuckDB's builtin ``jaro_winkler_similarity``; the kernel's
    ``boost_threshold=0.7`` mode is bit-identical to it (50k-pair
    validation), so the e4 fixed-point floor matches exactly.

    Scale note: per-block work is O(distinct-name pairs passing the
    bound), never O(block²) string DPs; a skewed block key routes
    through the same in-bucket segmenting every blocking stage here
    uses, and the distinct-name dedup is exactly the collapsing that
    makes web-scale name corpora (Zipfian name frequencies) tractable."""
    import polars as pl

    from ..functions.grouping import hash_exchange
    from ..functions.similarity import jaro_winkler_batch
    from .relational import _t

    empty = pa.table({"a": pa.array([], type=pa.int64()),
                      "b": pa.array([], type=pa.int64()),
                      "jw_e4": pa.array([], type=pa.int64())})
    thr = JW_MIN_E4 / 10000.0

    def block_pairs(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "p_partkey" not in t.column_names:
            return empty
        df = pl.from_arrow(t).sort(["p_brand", "p_partkey"])
        ids = df["p_partkey"].to_numpy()
        brands = df["p_brand"].to_numpy()
        uniq, uidx = np.unique(df["p_name"].to_numpy(), return_inverse=True)
        starts = np.flatnonzero(np.r_[True, brands[1:] != brands[:-1]])
        sizes = np.diff(np.append(starts, len(brands)))
        ia_l, ib_l = [], []
        for s, size in zip(starts, sizes):
            if size < 2:
                continue
            ti, tj = np.triu_indices(size, k=1)
            ia_l.append(ti + s)
            ib_l.append(tj + s)
        if not ia_l:
            return empty
        ia = np.concatenate(ia_l)
        ib = np.concatenate(ib_l)
        combo = uidx[ia].astype(np.int64) * len(uniq) + uidx[ib]
        cu, inv = np.unique(combo, return_inverse=True)
        ca = cu // len(uniq)
        cb = cu % len(uniq)
        # multiset common-char upper bound (ASCII names: char == byte)
        enc = [u.encode() for u in uniq]
        lens = np.array([len(e) for e in enc], dtype=np.int64)
        cnt = np.zeros((len(uniq), 128), dtype=np.int32)
        for i, e in enumerate(enc):
            np.add.at(cnt[i], np.frombuffer(e, dtype=np.uint8), 1)
        c = np.minimum(cnt[ca], cnt[cb]).sum(axis=1)
        jaro_ub = (c / lens[ca] + c / lens[cb] + 1.0) / 3.0
        feasible = 0.6 * np.minimum(jaro_ub, 1.0) + 0.4 >= thr - 1e-9
        jw_e4 = np.zeros(len(cu), dtype=np.int64)
        if feasible.any():
            jw = jaro_winkler_batch([uniq[i] for i in ca[feasible]],
                                    [uniq[i] for i in cb[feasible]],
                                    boost_threshold=0.7)
            jw_e4[feasible] = np.floor(jw * 10000.0 + 0.5).astype(np.int64)
        keep = (jw_e4 >= JW_MIN_E4)[inv]
        return pa.table({"a": pa.array(ids[ia[keep]], type=pa.int64()),
                         "b": pa.array(ids[ib[keep]], type=pa.int64()),
                         "jw_e4": pa.array(jw_e4[inv[keep]],
                                           type=pa.int64())})

    parts = _t(sf_dir, "part", ["p_partkey", "p_name", "p_brand"])
    return hash_exchange(parts, "p_brand", block_pairs, num_buckets=32)


SQL_Q115 = f"""
WITH p AS (SELECT p_partkey, p_name, p_brand FROM part)
SELECT x.p_partkey AS a, y.p_partkey AS b,
       CAST(FLOOR(jaro_winkler_similarity(x.p_name, y.p_name) * 10000
                  + 0.5) AS BIGINT) AS jw_e4
FROM p x JOIN p y
  ON x.p_brand = y.p_brand AND x.p_partkey < y.p_partkey
WHERE CAST(FLOOR(jaro_winkler_similarity(x.p_name, y.p_name) * 10000
                 + 0.5) AS BIGINT) >= {JW_MIN_E4}
"""


# --- q124: PPJoin set-similarity join (prefix filtering) --------------------

PP_TAU_E4 = 9000          # token-set Jaccard >= 0.9, e4 fixed point


def _pp_gather(fv: np.ndarray, off: np.ndarray, sel: np.ndarray,
               limit: np.ndarray | None = None):
    """Gather variable-length slices ``fv[off[s]:off[s]+ln[s]]`` for each
    row index in ``sel`` (optionally truncated to ``limit``), returning
    the flat values plus the owning position in ``sel`` — the vectorized
    ragged gather every pair kernel here builds on."""
    ln = (off[sel + 1] - off[sel]).astype(np.int64)
    if limit is not None:
        ln = np.minimum(ln, limit)
    tot = int(ln.sum())
    base = np.repeat(off[sel], ln)
    local = np.arange(tot, dtype=np.int64) - np.repeat(np.cumsum(ln) - ln, ln)
    owner = np.repeat(np.arange(len(sel), dtype=np.int64), ln)
    return fv[base + local], owner


PP_BITSET_VOCAB_MAX = 65536   # bitset verify while vocab bitmask ≤ 8 KB/doc


def q124_ppjoin(sf_dir: str, bitset_vocab_max: int = PP_BITSET_VOCAB_MAX):
    """All-pairs token-set Jaccard >= 0.9 join via PREFIX FILTERING — the
    canonical exact set-similarity join (Bayardo et al. 2007 All-Pairs /
    Xiao et al. 2008 PPJoin), upgrading q12's df-capped inverted-index
    heuristic to the algorithm with a completeness GUARANTEE: order every
    doc's distinct tokens by ascending global df (rarest first), emit
    only the first ``n - ceil(tau*n) + 1`` tokens; if J(x,y) >= tau the
    two prefixes provably share a token, so routing prefix emissions
    through ONE token-keyed exchange generates every true pair.

    In-bucket, per token group: id-ordered pairs, the length filter
    (tau*max(n) <= min(n)), exchange-free dedup by PREFIX-MIN OWNERSHIP —
    a pair survives only in the group of the smallest rank its two
    prefixes share (the q26 lowest-band-ownership device, derivable
    locally because each emission carries its doc's full sorted rank
    list).  Ownership and exact intersection both run over per-doc
    VOCABULARY BITSETS (AND + SWAR popcount — one (pairs × words)
    vectorized pass) while the vocabulary bitmask stays small
    (``bitset_vocab_max``, default 64 Ki tokens = 8 KB/doc); a larger
    vocabulary falls back to the ragged gather + sort-merge kernel
    (same results — parity-pinned in pytest), whose cost scales with
    per-doc set size instead of vocabulary size.  Integer-exact
    threshold test ``inter*1e4 >= tau_e4*union``; no float ever crosses
    engines.

    Scale shape: pass 1 is the q55/q66 exact-df scan (driver holds
    O(vocab), broadcast once via ray.put); pass 2 emits O(prefix) skinny
    rows per doc; per-bucket work is bounded by the prefix groups —
    ascending-df ordering makes those the RAREST tokens, the algorithm's
    own skew guard.  The synthetic corpus's 31-word vocabulary is the
    adversarial case for prefix filtering (every doc's prefix hits the
    same handful of tokens, and dup cliques make the OUTPUT itself
    quadratic, as in q26) — which is exactly what the bitset kernel
    absorbs: the dominant group's ~7M candidates verify in one
    AND+popcount sweep; a web-scale vocabulary is where the prefix
    filter's pruning actually bites."""
    import polars as pl
    import ray

    from ..functions.grouping import hash_exchange

    # pass 1: exact global token df (per-doc-distinct), driver O(vocab)
    def df_part(t: pa.Table) -> pa.Table:
        g = (pl.DataFrame({"tok": pl.from_arrow(t["text"].combine_chunks())
                           .str.to_lowercase().str.extract_all("[a-z0-9]+")})
             .with_row_index("d").explode("tok", empty_as_null=True)
             .drop_nulls("tok")
             .unique(subset=["d", "tok"])
             .group_by("tok").agg(pl.len().cast(pl.Int64).alias("df")))
        return pa.table({"tok": g["tok"].to_arrow().cast(pa.string()),
                         "df": g["df"].to_arrow()})

    dfs: dict[str, int] = {}
    for b in (_docs(sf_dir)
              .map_batches(df_part, batch_format="pyarrow", batch_size=1024)
              .iter_batches(batch_format="pyarrow")):
        for tok, n in zip(b["tok"].to_pylist(), b["df"].to_pylist()):
            dfs[tok] = dfs.get(tok, 0) + n
    order = sorted(dfs, key=lambda k: (dfs[k], k))         # rarest first
    rank = {tok: i for i, tok in enumerate(order)}
    toks_sorted = np.array(sorted(order))
    rank_sorted = np.array([rank[t] for t in toks_sorted], dtype=np.int64)
    vocab_ref = ray.put((toks_sorted, rank_sorted))

    emit_schema = {"rk": pa.int64(), "doc_id": pa.int64(),
                   "n": pa.int64(), "ranks": pa.large_list(pa.int64())}

    def emit_prefix(t: pa.Table, vocab_ref) -> pa.Table:
        toks_s, rk_s = ray.get(vocab_ref)
        ex = (pl.DataFrame({
                "doc_id": pl.from_arrow(t["doc_id"].combine_chunks())
                            .cast(pl.Int64),
                "tok": pl.from_arrow(t["text"].combine_chunks())
                         .str.to_lowercase().str.extract_all("[a-z0-9]+")})
              .explode("tok", empty_as_null=True).drop_nulls("tok")
              .unique(subset=["doc_id", "tok"]))
        if ex.height == 0:
            return pa.table({c: pa.array([], type=ty)
                             for c, ty in emit_schema.items()})
        ids = ex["doc_id"].to_numpy()
        rk = rk_s[np.searchsorted(toks_s, ex["tok"].to_numpy())]
        o = np.lexsort((rk, ids))
        ids, rk = ids[o], rk[o]
        starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
        n_doc = np.diff(np.append(starts, len(ids)))       # distinct per doc
        pos = np.arange(len(ids)) - np.repeat(starts, n_doc)
        p = n_doc - (PP_TAU_E4 * n_doc + 9999) // 10000 + 1
        pref = pos < np.repeat(p, n_doc)
        doc_of = np.repeat(np.arange(len(starts)), n_doc)
        off = np.append(starts, len(ids)).astype(np.int64)
        ranks_per_doc = pa.LargeListArray.from_arrays(off, pa.array(rk))
        return pa.table({
            "rk": pa.array(rk[pref], type=pa.int64()),
            "doc_id": pa.array(ids[pref], type=pa.int64()),
            "n": pa.array(n_doc[doc_of[pref]], type=pa.int64()),
            "ranks": ranks_per_doc.take(pa.array(doc_of[pref])),
        })

    empty_out = pa.table({"a": pa.array([], type=pa.int64()),
                          "b": pa.array([], type=pa.int64()),
                          "jacc_e4": pa.array([], type=pa.int64())})

    n_vocab = len(order)
    use_bitset = n_vocab <= bitset_vocab_max

    def _minc_sortmerge(flat, off, rows_a, rows_b, lim_a, lim_b, n_pairs):
        """min common value of two ragged slices per pair (sort-merge)."""
        va, oa = _pp_gather(flat, off, rows_a, lim_a)
        vb, ob = _pp_gather(flat, off, rows_b, lim_b)
        v = np.concatenate([va, vb])
        ow = np.concatenate([oa, ob])
        so = np.lexsort((v, ow))
        v, ow = v[so], ow[so]
        dup = np.r_[False, (v[1:] == v[:-1]) & (ow[1:] == ow[:-1])]
        minc = np.full(n_pairs, np.iinfo(np.int64).max)
        np.minimum.at(minc, ow[dup], v[dup])
        return minc

    def _inter_sortmerge(flat, off, rows_a, rows_b, n_pairs):
        """exact |A∩B| per pair over the full ragged slices."""
        va, oa = _pp_gather(flat, off, rows_a)
        vb, ob = _pp_gather(flat, off, rows_b)
        v = np.concatenate([va, vb])
        ow = np.concatenate([oa, ob])
        so = np.lexsort((v, ow))
        v, ow = v[so], ow[so]
        dup = np.r_[False, (v[1:] == v[:-1]) & (ow[1:] == ow[:-1])]
        return np.bincount(ow[dup], minlength=n_pairs).astype(np.int64)

    def _bitsets(flat, off, n_rows, limit=None):
        """(rows × words) uint64 vocabulary bitmask matrix."""
        w = (n_vocab + 63) // 64
        bits = np.zeros((n_rows, w), dtype=np.uint64)
        sel = np.arange(n_rows, dtype=np.int64)
        v, ow = _pp_gather(flat, off, sel, limit)
        np.bitwise_or.at(bits, (ow, v >> 6),
                         np.uint64(1) << (v & 63).astype(np.uint64))
        return bits

    def _minc_bitset(common):
        """lowest set bit index per row of a (pairs × words) AND mask."""
        minc = np.full(common.shape[0], np.iinfo(np.int64).max)
        undecided = np.arange(common.shape[0])
        for w in range(common.shape[1]):
            word = common[undecided, w]
            has = word != 0
            if has.any():
                lsb = word[has] & (~word[has] + np.uint64(1))
                tz = np.frexp(lsb.astype(np.float64))[1] - 1
                minc[undecided[has]] = 64 * w + tz
                undecided = undecided[~has]
                if not len(undecided):
                    break
        return minc

    def bucket_pairs(t: pa.Table) -> pa.Table:
        from ..functions.hashing import popcount_u64

        if t.num_rows == 0 or "rk" not in t.column_names:
            return empty_out
        rk = np.asarray(t["rk"], dtype=np.int64)
        ids = np.asarray(t["doc_id"], dtype=np.int64)
        n = np.asarray(t["n"], dtype=np.int64)
        lists = t["ranks"].combine_chunks()
        off = np.asarray(lists.offsets, dtype=np.int64)
        flat = np.asarray(lists.values, dtype=np.int64)
        o = np.lexsort((ids, rk))
        rk, ids, n = rk[o], ids[o], n[o]
        row_of = o                                  # sorted pos → table row
        p_lim = n - (PP_TAU_E4 * n + 9999) // 10000 + 1
        if use_bitset:
            full_bits = _bitsets(flat, off, t.num_rows)[row_of]
            pref_bits = _bitsets(flat, off, t.num_rows,
                                 p_lim[np.argsort(row_of)])[row_of]
        starts = np.flatnonzero(np.r_[True, rk[1:] != rk[:-1]])
        sizes = np.diff(np.append(starts, len(rk)))
        ia_l, ib_l, gen_l = [], [], []
        for s, size in zip(starts, sizes):
            if size < 2:
                continue
            ti, tj = np.triu_indices(size, k=1)
            ia_l.append(ti + s)
            ib_l.append(tj + s)
            gen_l.append(np.full(len(ti), rk[s], dtype=np.int64))
        if not ia_l:
            return empty_out
        ia = np.concatenate(ia_l)
        ib = np.concatenate(ib_l)
        gen = np.concatenate(gen_l)
        # length filter: J >= tau forces tau*max(n) <= min(n)
        lo = np.minimum(n[ia], n[ib])
        hi = np.maximum(n[ia], n[ib])
        keep = PP_TAU_E4 * hi <= 10000 * lo
        ia, ib, gen = ia[keep], ib[keep], gen[keep]
        if not len(ia):
            return empty_out
        # prefix-min ownership: keep a candidate only where its
        # generating rank equals the smallest rank the two PREFIXES share
        if use_bitset:
            min_common = _minc_bitset(pref_bits[ia] & pref_bits[ib])
        else:
            min_common = _minc_sortmerge(
                flat, off, row_of[ia], row_of[ib],
                p_lim[ia], p_lim[ib], len(ia))
        own = gen == min_common
        ia, ib = ia[own], ib[own]
        if not len(ia):
            return empty_out
        # exact intersection over the FULL token sets of owned pairs
        if use_bitset:
            inter = popcount_u64(full_bits[ia] & full_bits[ib]) \
                .sum(axis=1).astype(np.int64)
        else:
            inter = _inter_sortmerge(flat, off, row_of[ia], row_of[ib],
                                     len(ia))
        union = n[ia] + n[ib] - inter
        ok = inter * 10000 >= PP_TAU_E4 * union
        a = np.minimum(ids[ia], ids[ib])[ok]
        b = np.maximum(ids[ia], ids[ib])[ok]
        return pa.table({
            "a": pa.array(a, type=pa.int64()),
            "b": pa.array(b, type=pa.int64()),
            "jacc_e4": pa.array(inter[ok] * 10000 // union[ok],
                                type=pa.int64()),
        })

    emissions = _docs(sf_dir).map_batches(
        emit_prefix, fn_kwargs={"vocab_ref": vocab_ref},
        batch_format="pyarrow", batch_size=1024)
    return hash_exchange(emissions, "rk", bucket_pairs, num_buckets=32)


SQL_Q124 = f"""
WITH toks AS (
  SELECT doc_id,
         list_sort(list_distinct(
             regexp_extract_all(lower(text), '[a-z0-9]+'))) AS t
  FROM documents
),
nz AS (SELECT * FROM toks WHERE len(t) > 0)
SELECT x.doc_id AS a, y.doc_id AS b,
       CAST(len(list_intersect(x.t, y.t)) * 10000
            // (len(x.t) + len(y.t) - len(list_intersect(x.t, y.t)))
            AS BIGINT) AS jacc_e4
FROM nz x JOIN nz y ON x.doc_id < y.doc_id
WHERE len(list_intersect(x.t, y.t)) * 10000
      >= {PP_TAU_E4} * (len(x.t) + len(y.t) - len(list_intersect(x.t, y.t)))
"""


# --- q133: prefix-containment dedup ------------------------------------------

PFX_MIN_CHARS = 64      # a doc participates as a prefix only at >= this length


def q133_prefix_containment(sf_dir: str):
    """Partial-duplicate detection the exact-hash dedup (q06) and the
    near-dup family (q12/q26/ann) both miss: pairs where one document is
    a STRICT PREFIX of another — truncated re-crawls, cut-off
    re-uploads, and resumed generations, the classic containment case
    in web-corpus dedup.  A doc participates as the short side only at
    ≥ ``PFX_MIN_CHARS`` chars (below that "prefix of" is noise); equal
    texts are q06's domain and excluded.

    Shape: any strict-prefix pair shares its first ``PFX_MIN_CHARS``
    chars, so that substring is a complete blocking key — ONE exchange
    on it.  In-bucket the check is NOT pairwise: texts sort
    lexicographically, and the extensions of a text t are exactly the
    contiguous run (t, t + SENTINEL) — a vectorized searchsorted per
    bucket, O(g log g + output) where a naive in-block scan is O(g²)
    (the boilerplate-header block every web corpus has would melt a
    quadratic verifier).  Output pairs carry both lengths so a
    downstream keep-longest policy is a pure filter."""
    import polars as pl

    from ..functions.grouping import hash_exchange

    empty = pa.table({"a": pa.array([], type=pa.int64()),
                      "b": pa.array([], type=pa.int64()),
                      "len_a": pa.array([], type=pa.int64()),
                      "len_b": pa.array([], type=pa.int64())})

    def prep(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "text": pa.array([], type=pa.string()),
                             "pfx": pa.array([], type=pa.string())})
        df = (pl.from_arrow(t)
              .filter(pl.col("text").str.len_chars() >= PFX_MIN_CHARS)
              .with_columns(pfx=pl.col("text").str.slice(0, PFX_MIN_CHARS)))
        return df.select("doc_id", "text", "pfx").to_arrow().cast(
            pa.schema([("doc_id", pa.int64()), ("text", pa.string()),
                       ("pfx", pa.string())]))

    def contain_pairs(t: pa.Table) -> pa.Table:
        if t.num_rows < 2 or "doc_id" not in t.column_names:
            return empty
        ids = np.asarray(t["doc_id"], dtype=np.int64)
        texts = np.asarray(t["text"], dtype=object)
        o = np.argsort(texts, kind="stable")
        srt, sids = texts[o], ids[o]
        # extensions of srt[i] live in the contiguous run (i, hi[i])
        hi = np.searchsorted(srt, np.array(
            [s + "\U0010ffff" for s in srt], dtype=object), side="left")
        runs = hi - np.arange(len(srt)) - 1
        if runs.sum() == 0:
            return empty
        ai = np.repeat(np.arange(len(srt)), runs)
        bi = np.concatenate([np.arange(i + 1, h)
                             for i, h in enumerate(hi) if h > i + 1])
        la = np.fromiter((len(s) for s in srt), dtype=np.int64,
                         count=len(srt))
        strict = la[bi] > la[ai]            # equal texts are q06's domain
        ai, bi = ai[strict], bi[strict]
        return pa.table({"a": pa.array(sids[ai]),
                         "b": pa.array(sids[bi]),
                         "len_a": pa.array(la[ai]),
                         "len_b": pa.array(la[bi])})

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])
    keyed = docs.map_batches(prep, batch_format="pyarrow")
    return hash_exchange(keyed, "pfx", contain_pairs, num_buckets=16)


SQL_Q133 = f"""
SELECT x.doc_id AS a, y.doc_id AS b,
       CAST(length(x.text) AS BIGINT) AS len_a,
       CAST(length(y.text) AS BIGINT) AS len_b
FROM documents x JOIN documents y
  ON length(x.text) >= {PFX_MIN_CHARS}
 AND length(y.text) > length(x.text)
 AND substr(y.text, 1, length(x.text)) = x.text
"""


# --- q135: bigram language model with absolute discounting -------------------

BLM_D_E2 = 75          # absolute discount D = 0.75, e2 fixed point
BLM_MIN_C = 3          # emit bigrams seen at least this often


def q135_bigram_lm(sf_dir: str):
    """Bigram language-model estimation with absolute discounting (Ney/
    Essen/Kneser 1994 — the smoothing family under Kneser-Ney) over the
    documents corpus: per surviving bigram (c ≥ ``BLM_MIN_C``), the
    discounted probability p(w2|w1) = (c12 − D)/c1 and the per-history
    backoff mass λ(w1) = D·N₁₊(w1)/c1, all in exact integer fixed point
    (D = 75 e2; p and λ e6 via integer division — both engines compute
    the IDENTICAL integers, no float log/division crosses).  The
    estimation counterpart of q66's unigram perplexity scorer and the
    training step a from-scratch data-quality LM needs.

    Shape: per-batch polars bigram combiner (docs are row-local, so a
    batch's pair counts are exact partials) → ONE (w1, w2) sum exchange
    → ONE w1-keyed exchange where c1 = Σc12 and N₁₊ = distinct
    successors are both bucket-local (co-location IS the distinct).
    The wire carries O(distinct bigrams) skinny rows, never tokens."""
    import polars as pl

    from ..functions.grouping import bucketed_sum, hash_exchange

    pair_schema = pa.schema([("w1", pa.string()), ("w2", pa.string()),
                             ("c_p", pa.int64())])

    def bigram_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({f.name: pa.array([], type=f.type)
                             for f in pair_schema})
        df = (pl.DataFrame({"toks": pl.from_arrow(
                  t["text"].combine_chunks())
                  .str.to_lowercase().str.extract_all("[a-z0-9]+")})
              .with_columns(w2s=pl.col("toks").list.shift(-1))
              .explode("toks", "w2s", empty_as_null=True)
              .drop_nulls()
              .rename({"toks": "w1", "w2s": "w2"})
              .group_by("w1", "w2")
              .agg(pl.len().cast(pl.Int64).alias("c_p")))
        return df.select("w1", "w2", "c_p").to_arrow().cast(pair_schema)

    empty = pa.table({"w1": pa.array([], type=pa.string()),
                      "w2": pa.array([], type=pa.string()),
                      "c12": pa.array([], type=pa.int64()),
                      "c1": pa.array([], type=pa.int64()),
                      "n_next": pa.array([], type=pa.int64()),
                      "p_disc_e6": pa.array([], type=pa.int64()),
                      "lambda_e6": pa.array([], type=pa.int64())})

    def history_stats(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "w1" not in t.column_names:
            return empty
        df = (pl.from_arrow(t)
              .with_columns(
                  c1=pl.col("c12").sum().over("w1"),
                  n_next=pl.col("c12").len().over("w1").cast(pl.Int64))
              .filter(pl.col("c12") >= BLM_MIN_C)
              .with_columns(
                  p_disc_e6=((pl.col("c12") * 100 - BLM_D_E2)
                             * 1_000_000) // (pl.col("c1") * 100),
                  lambda_e6=(BLM_D_E2 * pl.col("n_next") * 10_000)
                  // pl.col("c1")))
        return (df.select("w1", "w2", "c12", "c1", "n_next",
                          "p_disc_e6", "lambda_e6")
                .to_arrow().cast(empty.schema))

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet",
                                 columns=["text"])
    partial = docs.map_batches(bigram_partial, batch_format="pyarrow")
    counts = bucketed_sum(partial, ["w1", "w2"], "c_p", "c12",
                          num_buckets=16)
    return hash_exchange(counts, "w1", history_stats, num_buckets=8)


SQL_Q135 = f"""
WITH toks AS (
  SELECT regexp_extract_all(lower(text), '[a-z0-9]+') AS t FROM documents
),
bg AS (
  SELECT t[i] AS w1, t[i + 1] AS w2
  FROM toks, unnest(generate_series(1, greatest(len(t) - 1, 0))) AS u(i)
),
c AS (SELECT w1, w2, count(*) AS c12 FROM bg GROUP BY 1, 2),
h AS (SELECT w1, SUM(c12) AS c1, COUNT(*) AS n_next FROM c GROUP BY 1)
SELECT c.w1, c.w2,
       CAST(c.c12 AS BIGINT) AS c12,
       CAST(h.c1 AS BIGINT) AS c1,
       CAST(h.n_next AS BIGINT) AS n_next,
       CAST((c.c12 * 100 - {BLM_D_E2}) * 1000000 // (h.c1 * 100) AS BIGINT)
           AS p_disc_e6,
       CAST(({BLM_D_E2} * h.n_next * 10000) // h.c1 AS BIGINT) AS lambda_e6
FROM c JOIN h USING (w1)
WHERE c.c12 >= {BLM_MIN_C}
"""


QUERIES = {
    "q133_prefix_containment": (q133_prefix_containment, SQL_Q133),
    "q149_association_rules": (q149_association_rules, SQL_Q149),
    "q154_dedup_savings": (q154_dedup_savings, SQL_Q154),
    "q135_bigram_lm": (q135_bigram_lm, SQL_Q135),
    "q124_ppjoin": (q124_ppjoin, SQL_Q124),
    "q125_cluster_metrics": (q125_cluster_metrics, SQL_Q125),
    "q88_edit_distance_pairs": (q88_edit_distance_pairs, SQL_Q88),
    "q115_jaro_winkler_pairs": (q115_jaro_winkler_pairs, SQL_Q115),
    "q71_shared_span_pairs": (q71_shared_span_pairs, SQL_Q71),
    "q114_source_contamination": (q114_source_contamination, SQL_Q114),
    "q72_bpe_pair_counts": (q72_bpe_pair_counts, SQL_Q72),
    "q73_leakage_safe_split": (q73_leakage_safe_split, SQL_Q73),
    # iterative argmax merge loop → rows-only; q72 oracle-checks the
    # first-merge statistic, pytest recounts the loop independently
    "bpe_train": (bpe_train, None),
    # applies bpe_train's merges → rows-only; pytest re-encodes a doc
    # sample independently and pins the counts
    "bpe_encode": (bpe_encode, None),
    "q57_bpe_token_count": (q57_bpe_token_count, SQL_Q57),
    "q58_neardup_clusters": (q58_neardup_clusters, SQL_Q58),
    "q110_golden_records": (q110_golden_records, SQL_Q110),
    "q12_ngram_jaccard_pairs": (q12_ngram_jaccard_pairs, SQL_Q12),
    "q44_tfidf_pairs": (q44_tfidf_pairs, SQL_Q44),
    "q46_chunk_documents": (q46_chunk_documents, SQL_Q46),
    "q49_chunk_dedup": (q49_chunk_dedup, SQL_Q49),
    "q22_url_titles": (q22_url_titles, SQL_Q22),
    "q20_frequent_pairs": (q20_frequent_pairs, SQL_Q20),
    "q96_pmi_pairs": (q96_pmi_pairs, SQL_Q96),
    "q98_source_shift": (q98_source_shift, SQL_Q98),
    "q107_feature_hashing": (q107_feature_hashing, SQL_Q107),
    "q13_simhash": (q13_simhash, SQL_Q13),
    "q26_simhash_neardup": (q26_simhash_neardup, SQL_Q26),
    "q15_winnow_fingerprints": (q15_winnow_fingerprints, SQL_Q15),
    # production variants: whole-column xxhash instead of md5 — no SQL
    # twin possible (DuckDB lacks xxhash); pytest ties their algorithmic
    # cores to the oracle-checked twins (tests/test_textops_fast.py)
    "simhash_fast": (simhash_fast, None),
    "winnow_fast": (winnow_fast, None),
}
