"""Training-data curation operators over the documents table.

Three first-class curation stages a 100 TB pretraining pipeline runs
between raw ingest and tokenization, each expressed as a single
embarrassingly-parallel ``map_batches`` pass (NO shuffle — every
per-document statistic is computed inside the batch that holds the
document, so these stages stream at scan speed on any cluster size):

- q50 decontamination: flag training documents whose token-shingle sets
  overlap a benchmark/eval split.  The benchmark side of the semi-join
  is tiny at any corpus scale (eval suites are MBs, not TBs), so it is
  collected once, broadcast via ``ray.put``, and probed per batch with a
  vectorized ``searchsorted`` — the classic broadcast semi-join, never a
  shuffle.  (Reference analog: the solution ∩ ground-truth set probes of
  eval/Verifier.scala:24-43, recast as corpus hygiene.)
- q51 PII scrub: count + redact email/phone/IPv4 spans with compiled
  regexes shared by polars (rust-regex) and DuckDB (RE2) — the pattern
  subset used here (character classes, ``\\d``, ``\\b``, bounded reps)
  behaves identically in both engines, which is what makes the oracle
  twin exact.  Counts are taken on the ORIGINAL text; redaction applies
  email → phone → IP in that fixed order.
- q52 repetition filter: Gopher-style repetition statistics — duplicate
  -token fraction and most-frequent-bigram fraction, both e4 fixed-point
  via INTEGER division (``//`` in polars, ``//`` in DuckDB) so the twin
  matches bit-for-bit — plus the keep/drop verdict.

The md5 (``md5_number_lower``) hashing in q50 exists for oracle parity
(both engines join on the same 64-bit value, so even a collision is
mirrored); a production run would swap in ``hash_strings_u64`` exactly
like simhash_fast / winnow_fast do.
"""

from __future__ import annotations
from pboh_entity_linking_ray.sources.reading import read_parquet_clean

import numpy as np
import pyarrow as pa
import ray
import ray.data

from .relational import _t
from .textops import _doc_shingles, _md5_cached, _shingles_from_exploded

DECON_W = 3          # shingle width for contamination overlap
DECON_BENCH_MOD = 20  # doc_id % 20 == 0 → benchmark/eval split

# Regex subset chosen to mean the same thing in rust-regex and RE2.
PII_EMAIL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_PHONE = r"\b\d{3}[-. ]\d{3}[-. ]\d{4}\b"
PII_IP = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"

REP_DUP_MAX_E4 = 9000   # drop docs with > 90% duplicate tokens
REP_BIGRAM_MAX_E4 = 1500  # or > 15% of bigrams being one bigram


def _docs(sf_dir: str, columns=("doc_id", "text")):
    return _t(sf_dir, "documents", list(columns))


# --- q50: decontamination against a benchmark split -------------------------

def _bench_shingles(t: pa.Table) -> pa.Table:
    """Distinct md5 shingle hashes of the benchmark split of one batch."""
    ids = np.asarray(t["doc_id"], dtype=np.int64)
    bench = t.filter(pa.array(ids % DECON_BENCH_MOD == 0))
    df = _doc_shingles(bench, DECON_W)
    hs = np.unique(_md5_cached({}, df["sh"].to_list()))
    # bit-cast: Ray blocks carry int64 (uint64 ≥ 2^63 breaks Ray
    # aggregates, CLAUDE.md); the driver views back and re-sorts.
    return pa.table({"h": pa.array(hs.view(np.int64), type=pa.int64())})


# Warm-task process cache (see grouping._BCAST_CACHE for the rationale:
# plain tasks on warm workers beat an actor pool and compose/fuse freely).
# md5 hashing deliberately uses PER-CALL dicts instead: shingles and doc
# ids are mostly unique, so a process-lifetime cache would grow
# O(partition) in every warm worker for a near-zero hit rate.
_BENCH_CACHE: dict = {}


def _bench_array(ref) -> np.ndarray:
    key = ref.hex()
    arr = _BENCH_CACHE.get(key)
    if arr is None:
        arr = ray.get(ref)                       # sorted uint64 ndarray
        _BENCH_CACHE.clear()                     # one live bench set/process
        _BENCH_CACHE[key] = arr
    return arr


def _overlap_counts(train: pa.Table, bench: np.ndarray, exploded=None):
    """(n_shingles, n_overlap) int64 arrays, one entry per ``train`` row:
    distinct DECON_W-shingle count and how many of those hash into the
    sorted benchmark set (searchsorted probe).  ``exploded`` lets a fused
    caller (q56) pass the already-tokenized (rid, tok) frame so the text
    is tokenized once per batch."""
    df = (_shingles_from_exploded(exploded, DECON_W)
          if exploded is not None else _doc_shingles(train, DECON_W))
    if len(df) == 0:
        z = np.zeros(train.num_rows, dtype=np.int64)
        return z, z.copy()
    rid = df["rid"].to_numpy().astype(np.int64)
    hs = _md5_cached({}, df["sh"].to_list())
    if len(bench):
        pos = np.searchsorted(bench, hs)
        hit = ((pos < len(bench))
               & (bench[np.minimum(pos, len(bench) - 1)] == hs))
    else:
        hit = np.zeros(len(hs), dtype=bool)
    n_sh = np.bincount(rid, minlength=train.num_rows).astype(np.int64)
    n_ov = np.bincount(rid, weights=hit.astype(np.float64),
                       minlength=train.num_rows).astype(np.int64)
    return n_sh, n_ov


def _contam_probe(t: pa.Table, bench_ref) -> pa.Table:
    """Per-batch overlap of each training doc's shingle set against the
    broadcast benchmark hash set."""
    bench = _bench_array(bench_ref)
    all_ids = np.asarray(t["doc_id"], dtype=np.int64)
    train = t.filter(pa.array(all_ids % DECON_BENCH_MOD != 0))
    ids = np.asarray(train["doc_id"], dtype=np.int64)
    n_sh, n_ov = _overlap_counts(train, bench)
    keep = n_ov > 0
    n_sh, n_ov = n_sh[keep], n_ov[keep]
    return pa.table({
        "doc_id": pa.array(ids[keep], type=pa.int64()),
        "n_shingles": pa.array(n_sh, type=pa.int64()),
        "n_overlap": pa.array(n_ov, type=pa.int64()),
        "contam_e4": pa.array(10000 * n_ov // n_sh, type=pa.int64()),
    })


def _collect_bench_set(sf_dir: str):
    """Distinct md5 shingle hashes of the benchmark split, collected once
    (the small side by construction — eval suites are MBs at any corpus
    scale) and ``ray.put`` for per-batch probing."""
    parts = [
        np.asarray(b["h"]).view(np.uint64)
        for b in _docs(sf_dir)
        .map_batches(_bench_shingles, batch_format="pyarrow",
                     batch_size=256)
        .iter_batches(batch_format="pyarrow")
        if b.num_rows
    ]
    bench = (np.unique(np.concatenate(parts)) if parts
             else np.empty(0, dtype=np.uint64))
    return ray.put(bench)


def q50_decontaminate(sf_dir: str):
    """Benchmark split = doc_id % 20 == 0; emit every training doc whose
    DECON_W-token shingle set intersects the benchmark shingle set, with
    e4 fixed-point contamination fraction.  Benchmark hashes are collected
    once (the small side by construction), broadcast, and probed per batch
    — zero shuffles end to end."""
    bench_ref = _collect_bench_set(sf_dir)
    return _docs(sf_dir).map_batches(
        _contam_probe, fn_kwargs={"bench_ref": bench_ref},
        batch_format="pyarrow", batch_size=256)


# --- q165: Bloom-prefiltered decontamination (memory-bounded variant) -------

BLOOM_BITS_PER_KEY = 16   # m/n → k=8 double-hash probes, FP ≈ 5e-4
BLOOM_K = 8


def _bloom_build(keys: np.ndarray) -> np.ndarray:
    """Bloom bitmap (uint64 words, pow-2 bit count ≥ 16·n) over sorted
    uint64 keys via double hashing pos_i = (h + i·(h>>33|1)) mod m —
    the md5-derived keys are already uniform, no re-hash needed."""
    n = max(len(keys), 1)
    m = max(1 << 10, 1 << int(np.ceil(np.log2(BLOOM_BITS_PER_KEY * n))))
    bits = np.zeros(m >> 6, dtype=np.uint64)
    h2 = (keys >> np.uint64(33)) | np.uint64(1)
    mask = np.uint64(m - 1)
    for i in range(BLOOM_K):
        pos = (keys + np.uint64(i) * h2) & mask
        np.bitwise_or.at(bits, (pos >> np.uint64(6)).astype(np.int64),
                         np.uint64(1) << (pos & np.uint64(63)))
    return bits


def _bloom_probe(bits: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """Vectorized membership mask; m is recovered from the word count."""
    mask = np.uint64(len(bits) * 64 - 1)
    h2 = (hs >> np.uint64(33)) | np.uint64(1)
    ok = np.ones(len(hs), dtype=bool)
    for i in range(BLOOM_K):
        pos = (hs + np.uint64(i) * h2) & mask
        ok &= ((bits[(pos >> np.uint64(6)).astype(np.int64)]
                >> (pos & np.uint64(63))) & np.uint64(1)) != 0
    return ok


_CAND = pa.schema([("doc_id", pa.int64()), ("h", pa.int64()),
                   ("n_shingles", pa.int64())])


def _bloom_candidates(t: pa.Table, bits_ref) -> pa.Table:
    """Bloom-positive (doc_id, shingle-hash) candidate rows of one train
    batch, each carrying the doc's distinct-shingle total for the final
    denominator."""
    bits = _bench_array(bits_ref)
    all_ids = np.asarray(t["doc_id"], dtype=np.int64)
    train = t.filter(pa.array(all_ids % DECON_BENCH_MOD != 0))
    df = _doc_shingles(train, DECON_W)
    if len(df) == 0:
        return _CAND.empty_table()
    rid = df["rid"].to_numpy().astype(np.int64)
    hs = _md5_cached({}, df["sh"].to_list())
    n_sh = np.bincount(rid, minlength=train.num_rows).astype(np.int64)
    hit = _bloom_probe(bits, hs)
    rid_h = rid[hit]
    ids = np.asarray(train["doc_id"], dtype=np.int64)
    return pa.table({
        "doc_id": pa.array(ids[rid_h], type=pa.int64()),
        "h": pa.array(hs[hit].view(np.int64), type=pa.int64()),
        "n_shingles": pa.array(n_sh[rid_h], type=pa.int64()),
    })


def q165_bloom_decontaminate(sf_dir: str):
    """q50's EXACT semantics through the sketch-prefilter + survivor-
    verify pattern — the memory-bounded scale path when the benchmark
    hash set outgrows a comfortable per-worker broadcast: workers hold
    only a Bloom BITMAP (2 bytes/key here vs 8 for the exact set, and
    tunable lower), bloom-positive (doc_id, shingle) rows — true hits
    plus the ~5e-4 false-positive trickle — flow into ONE distributed
    ``hash_join`` semi-verify against the benchmark hash table, so false
    positives are removed exactly and never reach the output.  Only
    survivors cross the exchange: the shuffle is O(true overlap), not
    O(corpus shingles).

    At THIS harness's scale the bench side is driver-collectable (same
    small-side argument as q50), so the bitmap build reuses that
    collect; at 100 TB the build becomes per-batch partial bitmaps
    OR-reduced tree-wise, and the verify side stays a parquet-backed
    table — the pipeline shape here (probe → semi join → per-doc fold)
    is unchanged.  Oracle twin: SQL_Q50 verbatim (the Bloom layer is
    semantically invisible)."""
    import polars as pl

    from ..functions.grouping import hash_exchange, hash_join

    bench = ray.get(_collect_bench_set(sf_dir))
    bits_ref = ray.put(_bloom_build(bench))
    bench_ds = ray.data.from_arrow(
        pa.table({"h": pa.array(bench.view(np.int64), type=pa.int64())}))

    cands = _docs(sf_dir).map_batches(
        _bloom_candidates, fn_kwargs={"bits_ref": bits_ref},
        batch_format="pyarrow", batch_size=256)
    verified = hash_join(cands, bench_ds, "h", how="semi", num_buckets=16)

    _OUT = pa.schema([("doc_id", pa.int64()), ("n_shingles", pa.int64()),
                      ("n_overlap", pa.int64()), ("contam_e4", pa.int64())])

    def fold(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "doc_id" not in t.column_names:
            return _OUT.empty_table()
        g = (pl.from_arrow(t).group_by("doc_id")
             .agg(n_shingles=pl.col("n_shingles").first(),
                  n_overlap=pl.len().cast(pl.Int64)))
        g = g.with_columns(
            contam_e4=(10000 * pl.col("n_overlap")) // pl.col("n_shingles"))
        return g.to_arrow().cast(_OUT)

    return hash_exchange(verified, "doc_id", fold, num_buckets=16)


SQL_Q50 = f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS t
  FROM documents
),
sh AS (
  SELECT doc_id,
         md5_number_lower(unnest(list_distinct(list_transform(
             generate_series(1, greatest(len(t) - {DECON_W - 1}, 0)),
             i -> list_aggregate(t[i : i + {DECON_W - 1}], 'string_agg', ' ')
         )))) AS h
  FROM toks
),
bench AS (SELECT DISTINCT h FROM sh WHERE doc_id % {DECON_BENCH_MOD} = 0),
train AS (SELECT doc_id, h FROM sh WHERE doc_id % {DECON_BENCH_MOD} <> 0),
tot AS (SELECT doc_id, count(*) AS n_shingles FROM train GROUP BY doc_id),
ov AS (
  SELECT t.doc_id, count(*) AS n_overlap
  FROM train t JOIN bench b USING (h)
  GROUP BY t.doc_id
)
SELECT ov.doc_id,
       tot.n_shingles,
       ov.n_overlap,
       CAST(10000 * ov.n_overlap // tot.n_shingles AS BIGINT) AS contam_e4
FROM ov JOIN tot USING (doc_id)
"""


# --- q174: compression-ratio quality signal ----------------------------------

COMP_LEVEL = 6            # zlib level — fixed so the ratio is deterministic
COMP_MIN_RATIO_E4 = 12_000   # drop if compressed*1e4//raw < 1.2e4⁻¹ …
                             # i.e. raw//compressed ≥ 1.2 means "normal text";
                             # ratios ≥ ~4 flag templated/repeated content


def q174_compression_ratio(sf_dir: str):
    """Compression ratio (raw bytes / zlib bytes, e4 fixed-point) per
    document — the cheap low-entropy screen real crawl pipelines run
    beside q52's explicit repetition counters (CCNet-style: boilerplate,
    templated spam and keyword stuffing compress far better than natural
    prose; near-random noise barely compresses at all).  Flags both
    tails: ratio ≥ 4× → repetitive, ratio ≤ 1.05× → likely binary/noise.

    Embarrassingly parallel — one zlib pass per doc inside the batch
    that holds it, fixed level so the byte count (and thus the flag) is
    deterministic.  zlib is not SQL-expressible → rows-only driver
    check; pytest recomputes ratios directly and pins the flag rule."""
    def comp(t: pa.Table) -> pa.Table:
        import zlib

        _OUT = pa.schema([("doc_id", pa.int64()), ("raw_bytes", pa.int64()),
                          ("zlib_bytes", pa.int64()), ("ratio_e4", pa.int64()),
                          ("verdict", pa.string())])
        if t.num_rows == 0 or "text" not in t.column_names:
            return _OUT.empty_table()
        ids = np.asarray(t["doc_id"], dtype=np.int64)
        raws, comps = [], []
        for s in t["text"].to_pylist():
            b = (s or "").encode()
            raws.append(len(b))
            comps.append(len(zlib.compress(b, COMP_LEVEL)))
        raw = np.array(raws, dtype=np.int64)
        cz = np.maximum(np.array(comps, dtype=np.int64), 1)
        ratio = 10000 * raw // cz
        verdict = np.where(ratio >= 40000, "repetitive",
                           np.where(ratio <= 10500, "noise", "keep"))
        return pa.table({
            "doc_id": pa.array(ids), "raw_bytes": pa.array(raw),
            "zlib_bytes": pa.array(np.array(comps, dtype=np.int64)),
            "ratio_e4": pa.array(ratio),
            "verdict": pa.array(verdict.tolist(), type=pa.string()),
        })

    return _docs(sf_dir).map_batches(comp, batch_format="pyarrow",
                                     batch_size=1024)


# --- q51: PII scan + redaction -----------------------------------------------

def q51_pii_scrub(sf_dir: str):
    """Count email/phone/IPv4 matches on the raw text and emit the
    redacted text (email → phone → IP replacement order).  One vectorized
    polars pass per batch; embarrassingly parallel."""
    def scrub(t: pa.Table) -> pa.Table:
        import polars as pl

        txt = pl.from_arrow(t["text"].combine_chunks())
        out = pl.DataFrame({
            "doc_id": pl.from_arrow(t["doc_id"].combine_chunks())
                        .cast(pl.Int64),
            "n_email": txt.str.count_matches(PII_EMAIL).cast(pl.Int64),
            "n_phone": txt.str.count_matches(PII_PHONE).cast(pl.Int64),
            "n_ip": txt.str.count_matches(PII_IP).cast(pl.Int64),
            "clean_text": txt
                .str.replace_all(PII_EMAIL, "<EMAIL>")
                .str.replace_all(PII_PHONE, "<PHONE>")
                .str.replace_all(PII_IP, "<IP>"),
        })
        return out.to_arrow()

    return _docs(sf_dir).map_batches(scrub, batch_format="pyarrow",
                                     batch_size=1024)


SQL_Q51 = f"""
SELECT doc_id,
       CAST(len(regexp_extract_all(text, '{PII_EMAIL}')) AS BIGINT) AS n_email,
       CAST(len(regexp_extract_all(text, '{PII_PHONE}')) AS BIGINT) AS n_phone,
       CAST(len(regexp_extract_all(text, '{PII_IP}')) AS BIGINT) AS n_ip,
       regexp_replace(regexp_replace(regexp_replace(
           text, '{PII_EMAIL}', '<EMAIL>', 'g'),
                 '{PII_PHONE}', '<PHONE>', 'g'),
                 '{PII_IP}', '<IP>', 'g') AS clean_text
FROM documents
"""


# --- q52: repetition / boilerplate filter ------------------------------------

def _tok_list_frame(t: pa.Table):
    """batch → polars frame (rid, tok LIST column) — the single
    tokenization both repetition stats and the shingle probe derive
    from."""
    import polars as pl

    return pl.DataFrame({
        "rid": pl.int_range(0, t.num_rows, eager=True),
        "tok": pl.from_arrow(t["text"].combine_chunks())
                 .str.to_lowercase().str.extract_all("[a-z0-9]+"),
    })


def _rep_stats_batch(t: pa.Table, tok_frame=None) -> pa.Table:
    """Per-doc repetition stats for one batch (shared by q52 and the
    composed q56 chain): n_tokens, dup_e4, top_bigram_e4, keep.
    ``tok_frame`` lets a fused caller pass the (rid, tok-list) frame."""
    import polars as pl

    df = tok_frame if tok_frame is not None else _tok_list_frame(t)
    base = df.select(
        "rid",
        pl.col("tok").list.len().cast(pl.Int64).alias("n_tokens"),
        pl.col("tok").list.unique().list.len().cast(pl.Int64)
          .alias("n_distinct"),
    )
    bg = (df.explode("tok", empty_as_null=True).drop_nulls("tok")
            .with_columns(pl.concat_str(
                [pl.col("tok"), pl.col("tok").shift(-1).over("rid")],
                separator=" ").alias("bg"))
            .drop_nulls("bg")
            .group_by("rid", "bg").len()
            .group_by("rid").agg(pl.col("len").max().alias("top_bg")))
    out = (base.join(bg, on="rid", how="left")
           .with_columns(pl.col("top_bg").fill_null(0).cast(pl.Int64))
           .with_columns(
               dup_e4=pl.when(pl.col("n_tokens") > 0)
                        .then(10000 * (pl.col("n_tokens")
                                       - pl.col("n_distinct"))
                              // pl.col("n_tokens")).otherwise(0),
               top_bigram_e4=pl.when(pl.col("n_tokens") > 1)
                               .then(10000 * pl.col("top_bg")
                                     // (pl.col("n_tokens") - 1))
                               .otherwise(0),
           )
           .with_columns(keep=((pl.col("dup_e4") <= REP_DUP_MAX_E4)
                               & (pl.col("top_bigram_e4")
                                  <= REP_BIGRAM_MAX_E4))
                         .cast(pl.Int64))
           .sort("rid"))
    return pa.table({
        "doc_id": t["doc_id"].combine_chunks().cast(pa.int64()),
        "n_tokens": out["n_tokens"].to_arrow(),
        "dup_e4": out["dup_e4"].to_arrow(),
        "top_bigram_e4": out["top_bigram_e4"].to_arrow(),
        "keep": out["keep"].to_arrow(),
    })


def q52_repetition_filter(sf_dir: str):
    """Gopher-style repetition stats per doc: duplicate-token fraction and
    top-bigram fraction (both e4 via integer division) plus the keep
    verdict.  Pure per-doc math — one polars pass, no shuffle."""
    return _docs(sf_dir).map_batches(_rep_stats_batch,
                                     batch_format="pyarrow",
                                     batch_size=1024)


SQL_Q52 = f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS t
  FROM documents
),
base AS (
  SELECT doc_id, len(t) AS n_tokens, len(list_distinct(t)) AS n_distinct
  FROM toks
),
bg AS (
  SELECT doc_id,
         unnest(list_transform(
             generate_series(1, greatest(len(t) - 1, 0)),
             i -> t[i] || ' ' || t[i + 1])) AS b
  FROM toks
),
bgtop AS (
  SELECT doc_id, max(c) AS top_bg
  FROM (SELECT doc_id, b, count(*) AS c FROM bg GROUP BY doc_id, b)
  GROUP BY doc_id
)
SELECT base.doc_id,
       CAST(n_tokens AS BIGINT) AS n_tokens,
       CAST(CASE WHEN n_tokens > 0
            THEN 10000 * (n_tokens - n_distinct) // n_tokens
            ELSE 0 END AS BIGINT) AS dup_e4,
       CAST(CASE WHEN n_tokens > 1
            THEN 10000 * coalesce(top_bg, 0) // (n_tokens - 1)
            ELSE 0 END AS BIGINT) AS top_bigram_e4,
       CAST((CASE WHEN n_tokens > 0
             THEN 10000 * (n_tokens - n_distinct) // n_tokens ELSE 0 END)
                <= {REP_DUP_MAX_E4}
            AND (CASE WHEN n_tokens > 1
                 THEN 10000 * coalesce(top_bg, 0) // (n_tokens - 1)
                 ELSE 0 END) <= {REP_BIGRAM_MAX_E4} AS BIGINT) AS keep
FROM base LEFT JOIN bgtop USING (doc_id)
"""


# --- q53: training-sequence packing (concat-then-chunk) ----------------------

PACK_BUDGET = 256  # tokens per packed training sequence


def q53_pack_sequences(sf_dir: str):
    """Assign every document its (sequence id, token offset) under
    concat-then-chunk packing: documents are concatenated in doc_id order
    within each source stream and the token stream is cut every
    PACK_BUDGET tokens (docs may straddle a cut; they belong to the
    sequence their first token lands in) — the standard pretraining
    sequence-packing layout.

    Shape: one vectorized token-count pass (text never leaves the scan
    task — only the skinny (doc_id, source, n_tokens) rows move), ONE
    exchange on the packing stream key, one sorted cumulative pass per
    bucket.  The stream key (here ``source``) is the unit of sequential
    packing by definition; streams pack independently, so the operator
    scales with the number of streams regardless of corpus size."""
    from ..functions.grouping import hash_exchange

    def tok_count(t: pa.Table) -> pa.Table:
        import polars as pl

        return pl.DataFrame({
            "doc_id": pl.from_arrow(t["doc_id"].combine_chunks())
                        .cast(pl.Int64),
            "source": pl.from_arrow(t["source"].combine_chunks())
                        .cast(pl.String),
            "n_tokens": pl.from_arrow(t["text"].combine_chunks())
                          .str.to_lowercase().str.count_matches("[a-z0-9]+")
                          .cast(pl.Int64),
        }).to_arrow()

    skinny = _docs(sf_dir, columns=("doc_id", "text", "source")) \
        .map_batches(tok_count, batch_format="pyarrow", batch_size=1024)
    return hash_exchange(skinny, "source", _pack_bucket, num_buckets=8)


def _pack_bucket(t: pa.Table) -> pa.Table:
    """One sorted cumulative pass per stream bucket: (seq_id, seq_offset)
    from running token offsets (shared by q53 and the q56 chain)."""
    import polars as pl

    df = pl.from_arrow(t).sort(["source", "doc_id"])
    out = df.with_columns(
        cum_before=(pl.col("n_tokens").cum_sum().over("source")
                    - pl.col("n_tokens")),
    ).with_columns(
        seq_id=pl.col("cum_before") // PACK_BUDGET,
        seq_offset=pl.col("cum_before") % PACK_BUDGET,
    ).select(["doc_id", "source", "n_tokens", "seq_id", "seq_offset"])
    return out.to_arrow()


SQL_Q53 = f"""
WITH toks AS (
  SELECT doc_id, source,
         CAST(len(regexp_extract_all(lower(text), '[a-z0-9]+')) AS BIGINT)
             AS n_tokens
  FROM documents
),
c AS (
  SELECT doc_id, source, n_tokens,
         SUM(n_tokens) OVER (PARTITION BY source ORDER BY doc_id
                             ROWS UNBOUNDED PRECEDING) - n_tokens
             AS cum_before
  FROM toks
)
SELECT doc_id, source, n_tokens,
       CAST(cum_before // {PACK_BUDGET} AS BIGINT) AS seq_id,
       CAST(cum_before % {PACK_BUDGET} AS BIGINT) AS seq_offset
FROM c
"""


# --- q54: quality-weighted deterministic sampling -----------------------------

SAMPLE_SCALE_E4 = 20  # acceptance p_e4 = min(10000, n_chars * 20)


def q54_weighted_sample(sf_dir: str):
    """Data mixing by quality weight: keep each doc with probability
    proportional to its quality signal (here n_chars, capped at 1), decided
    by a DETERMINISTIC hash threshold — md5(doc_id) % 1e4 < p_e4 — so the
    sample is reproducible, resumable, and identical on any cluster shape
    (the property fixed-seed samplers lose under re-partitioning).  Pure
    per-row math on pruned columns; no shuffle.  md5 is the oracle-parity
    hash; a production run swaps in hash_strings_u64 (xxhash) exactly like
    simhash_fast does."""
    def pick(t: pa.Table) -> pa.Table:
        ids = np.asarray(t["doc_id"], dtype=np.int64)
        chars = np.asarray(t["n_chars"], dtype=np.int64)
        p_e4 = np.minimum(10000, chars * SAMPLE_SCALE_E4)
        hs = _md5_cached({}, [str(i) for i in ids])
        keep = (hs % np.uint64(10000)).astype(np.int64) < p_e4
        return pa.table({
            "doc_id": pa.array(ids[keep], type=pa.int64()),
            "n_chars": pa.array(chars[keep], type=pa.int64()),
            "p_e4": pa.array(p_e4[keep], type=pa.int64()),
        })

    return read_parquet_clean(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "n_chars"]) \
        .map_batches(pick, batch_format="pyarrow", batch_size=4096)


SQL_Q54 = f"""
SELECT doc_id, n_chars,
       least(10000, n_chars * {SAMPLE_SCALE_E4}) AS p_e4
FROM documents
WHERE md5_number_lower(CAST(doc_id AS VARCHAR)) % 10000
      < least(10000, n_chars * {SAMPLE_SCALE_E4})
"""


# --- q56: the composed curation chain ----------------------------------------

DECON_DROP_E4 = 2000  # drop training docs with ≥ 20% benchmark overlap


def q56_curate_and_pack(sf_dir: str):
    """The end-to-end corpus-curation chain, fused: training split →
    decontaminate (q50) → repetition filter (q52) → quality-weighted
    deterministic sample (q54) → sequence packing (q53), producing the
    packed layout of exactly the surviving documents.

    Every per-document decision (contamination probe, repetition stats,
    sample hash) happens in ONE ``map_batches`` pass — a doc is read
    once and never crosses an operator boundary until it has survived
    all three filters; only survivors' skinny (doc_id, source, n_tokens)
    rows reach the single packing exchange.  Total data movement: one
    scan + one tiny benchmark broadcast + one skinny exchange,
    regardless of corpus size."""
    from ..functions.grouping import hash_exchange

    bench_ref = _collect_bench_set(sf_dir)

    def curate(t: pa.Table) -> pa.Table:
        bench = _bench_array(bench_ref)
        all_ids = np.asarray(t["doc_id"], dtype=np.int64)
        train = t.filter(pa.array(all_ids % DECON_BENCH_MOD != 0))
        ids = np.asarray(train["doc_id"], dtype=np.int64)
        chars = np.asarray(train["n_chars"], dtype=np.int64)
        tok_frame = _tok_list_frame(train)
        exploded = (tok_frame.explode("tok", empty_as_null=True)
                    .drop_nulls("tok"))
        n_sh, n_ov = _overlap_counts(train, bench, exploded=exploded)
        contam_e4 = np.where(n_sh > 0, 10000 * n_ov // np.maximum(n_sh, 1),
                             0)
        rep = _rep_stats_batch(train, tok_frame=tok_frame)
        rep_keep = np.asarray(rep["keep"], dtype=np.int64) == 1
        p_e4 = np.minimum(10000, chars * SAMPLE_SCALE_E4)
        hs = _md5_cached({}, [str(i) for i in ids])
        sampled = (hs % np.uint64(10000)).astype(np.int64) < p_e4
        survive = (contam_e4 < DECON_DROP_E4) & rep_keep & sampled
        out = train.filter(pa.array(survive))
        return pa.table({
            "doc_id": out["doc_id"].combine_chunks().cast(pa.int64()),
            "source": out["source"].combine_chunks().cast(pa.string()),
            "n_tokens": pa.array(
                np.asarray(rep["n_tokens"], dtype=np.int64)[survive],
                type=pa.int64()),
        })

    skinny = _docs(sf_dir, columns=("doc_id", "text", "source", "n_chars")) \
        .map_batches(curate, batch_format="pyarrow", batch_size=256)
    return hash_exchange(skinny, "source", _pack_bucket, num_buckets=8)


SQL_Q56 = f"""
WITH toks AS (
  SELECT doc_id, source, n_chars,
         regexp_extract_all(lower(text), '[a-z0-9]+') AS t
  FROM documents
  WHERE doc_id % {DECON_BENCH_MOD} <> 0
),
sh AS (
  SELECT doc_id,
         md5_number_lower(unnest(list_distinct(list_transform(
             generate_series(1, greatest(len(t) - {DECON_W - 1}, 0)),
             i -> list_aggregate(t[i : i + {DECON_W - 1}], 'string_agg', ' ')
         )))) AS h
  FROM toks
),
bench AS (
  SELECT DISTINCT md5_number_lower(unnest(list_distinct(list_transform(
             generate_series(1, greatest(len(t) - {DECON_W - 1}, 0)),
             i -> list_aggregate(t[i : i + {DECON_W - 1}], 'string_agg', ' ')
         )))) AS h
  FROM (SELECT regexp_extract_all(lower(text), '[a-z0-9]+') AS t
        FROM documents WHERE doc_id % {DECON_BENCH_MOD} = 0)
),
contam AS (
  SELECT sh.doc_id,
         count(*) AS n_shingles,
         count(*) FILTER (WHERE bench.h IS NOT NULL) AS n_overlap
  FROM sh LEFT JOIN bench USING (h)
  GROUP BY sh.doc_id
),
bg AS (
  SELECT doc_id,
         unnest(list_transform(
             generate_series(1, greatest(len(t) - 1, 0)),
             i -> t[i] || ' ' || t[i + 1])) AS b
  FROM toks
),
bgtop AS (
  SELECT doc_id, max(c) AS top_bg
  FROM (SELECT doc_id, b, count(*) AS c FROM bg GROUP BY doc_id, b)
  GROUP BY doc_id
),
rep AS (
  SELECT toks.doc_id,
         CAST(len(t) AS BIGINT) AS n_tokens,
         CASE WHEN len(t) > 0
              THEN 10000 * (len(t) - len(list_distinct(t))) // len(t)
              ELSE 0 END AS dup_e4,
         CASE WHEN len(t) > 1
              THEN 10000 * coalesce(top_bg, 0) // (len(t) - 1)
              ELSE 0 END AS top_bigram_e4
  FROM toks LEFT JOIN bgtop USING (doc_id)
),
surv AS (
  SELECT toks.doc_id, toks.source, rep.n_tokens
  FROM toks
  JOIN rep USING (doc_id)
  LEFT JOIN contam USING (doc_id)
  WHERE coalesce(10000 * contam.n_overlap // contam.n_shingles, 0)
            < {DECON_DROP_E4}
    AND rep.dup_e4 <= {REP_DUP_MAX_E4}
    AND rep.top_bigram_e4 <= {REP_BIGRAM_MAX_E4}
    AND md5_number_lower(CAST(toks.doc_id AS VARCHAR)) % 10000
            < least(10000, toks.n_chars * {SAMPLE_SCALE_E4})
),
c AS (
  SELECT doc_id, source, n_tokens,
         SUM(n_tokens) OVER (PARTITION BY source ORDER BY doc_id
                             ROWS UNBOUNDED PRECEDING) - n_tokens
             AS cum_before
  FROM surv
)
SELECT doc_id, source, n_tokens,
       CAST(cum_before // {PACK_BUDGET} AS BIGINT) AS seq_id,
       CAST(cum_before % {PACK_BUDGET} AS BIGINT) AS seq_offset
FROM c
"""


# --- q60: GLOBAL sequence packing via distributed prefix sum ------------------

def q60_pack_global(sf_dir: str):
    """Sequence packing over ONE corpus-wide stream (doc_id order) —
    the case q53's per-stream exchange cannot scale: a single stream's
    cumulative sum is one task there, unbounded here.

    Uses the ``range_prefix_sum`` scan primitive: per-batch subtotals
    per doc_id RANGE (driver holds O(#ranges) rows and prefix-sums
    them), then one exchange on the range id where each bucket adds its
    broadcast base to a local cumsum — a stream of any size splits
    across range buckets.  Same (seq_id, seq_offset) contract as q53."""
    import polars as pl

    from ..functions.grouping import range_prefix_sum

    def tok_count(t: pa.Table) -> pa.Table:
        return pl.DataFrame({
            "doc_id": pl.from_arrow(t["doc_id"].combine_chunks())
                        .cast(pl.Int64),
            "n_tokens": pl.from_arrow(t["text"].combine_chunks())
                          .str.to_lowercase().str.count_matches("[a-z0-9]+")
                          .cast(pl.Int64),
        }).to_arrow()

    skinny = _docs(sf_dir).map_batches(tok_count, batch_format="pyarrow",
                                       batch_size=1024)
    cum = range_prefix_sum(skinny, "doc_id", "n_tokens",
                           range_width=64, num_buckets=8)

    def finish(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t)
        return (df.with_columns(
            seq_id=pl.col("cum_before") // PACK_BUDGET,
            seq_offset=pl.col("cum_before") % PACK_BUDGET,
        ).select(["doc_id", "n_tokens", "seq_id", "seq_offset"])
            .to_arrow())

    return cum.map_batches(finish, batch_format="pyarrow")


SQL_Q60 = f"""
WITH toks AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(lower(text), '[a-z0-9]+')) AS BIGINT)
             AS n_tokens
  FROM documents
),
c AS (
  SELECT doc_id, n_tokens,
         SUM(n_tokens) OVER (ORDER BY doc_id
                             ROWS UNBOUNDED PRECEDING) - n_tokens
             AS cum_before
  FROM toks
)
SELECT doc_id, n_tokens,
       CAST(cum_before // {PACK_BUDGET} AS BIGINT) AS seq_id,
       CAST(cum_before % {PACK_BUDGET} AS BIGINT) AS seq_offset
FROM c
"""


# --- q62: sort-free global ranking --------------------------------------------

def q62_global_rank(sf_dir: str):
    """Global rank and e4 percentile of every document by (n_chars,
    doc_id) WITHOUT a global sort: pack the ordering into one int64 key
    (n_chars << 32 | doc_id — unique by construction) and take
    ``range_prefix_sum`` of the constant 1 over it; the exclusive
    running count IS the 0-based rank.  Rank-transform/ntile at corpus
    scale for the cost of one skinny exchange — the classic use of a
    distributed scan.  Ties impossible (doc_id breaks them), so the
    rank is total and deterministic."""
    import polars as pl

    from ..functions.grouping import range_prefix_sum

    def keyed(t: pa.Table) -> pa.Table:
        ids = np.asarray(t["doc_id"], dtype=np.int64)
        chars = np.asarray(t["n_chars"], dtype=np.int64)
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "n_chars": pa.array(chars, type=pa.int64()),
            "ord": pa.array((chars << 32) | ids, type=pa.int64()),
            "one": pa.array(np.ones(len(ids), dtype=np.int64)),
        })

    docs = _t(sf_dir, "documents", ["doc_id", "n_chars"])
    n_docs = docs.count()          # parquet metadata count — no scan
    skinny = docs.map_batches(keyed, batch_format="pyarrow",
                              batch_size=4096)
    ranked = range_prefix_sum(skinny, "ord", "one", out_name="rank",
                              range_width=1 << 36, num_buckets=8)

    def finish(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t)
        return (df.with_columns(
            pct_e4=10000 * pl.col("rank") // max(n_docs, 1))
            .select(["doc_id", "n_chars", "rank", "pct_e4"])
            .to_arrow())

    return ranked.map_batches(finish, batch_format="pyarrow")


SQL_Q62 = """
SELECT doc_id, n_chars,
       CAST(row_number() OVER (ORDER BY n_chars, doc_id) - 1 AS BIGINT)
           AS rank,
       CAST(10000 * (row_number() OVER (ORDER BY n_chars, doc_id) - 1)
            // greatest((SELECT count(*) FROM documents), 1) AS BIGINT)
           AS pct_e4
FROM documents
"""


# --- q59: per-group deterministic cap (domain rebalancing) --------------------

GROUP_CAP = 15  # keep at most this many docs per source


def q59_group_cap_sample(sf_dir: str):
    """Downsample over-represented groups to at most GROUP_CAP docs each
    — the domain-rebalancing complement of fraction-based stratified
    sampling (q27 keeps a RATE per stratum; this keeps a COUNT cap).
    Selection is a deterministic hash lottery: rank docs inside each
    source by md5(doc_id) ascending (doc_id tie-break) and keep the
    first GROUP_CAP — reproducible on any partitioning, no seed state.
    Rides on ``topk_per_group``: each map task forwards ≤ cap rows per
    group it saw, so the exchange moves O(cap × groups) rows.  md5 is
    the oracle-parity hash; production swaps in ``hash_strings_u64``
    (vectorized xxhash) exactly like simhash_fast does."""
    from ..functions.grouping import topk_per_group

    def key(t: pa.Table) -> pa.Table:
        ids = np.asarray(t["doc_id"], dtype=np.int64)
        hs = _md5_cached({}, [str(i) for i in ids])
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "source": t["source"].combine_chunks().cast(pa.string()),
            # int64 bit-cast of the uint64 hash would scramble order;
            # keep the lottery rank inside int64 by dropping the top bit
            "lot": pa.array((hs >> np.uint64(1)).astype(np.int64),
                            type=pa.int64()),
        })

    keyed = read_parquet_clean(f"{sf_dir}/documents.parquet",
                                  columns=["doc_id", "source"]) \
        .map_batches(key, batch_format="pyarrow", batch_size=4096)
    capped = topk_per_group(keyed, "source", "lot", GROUP_CAP,
                            descending=False, tie_cols=["doc_id"],
                            num_buckets=8)

    def strip(t: pa.Table) -> pa.Table:
        return t.select(["doc_id", "source"])

    return capped.map_batches(strip, batch_format="pyarrow")


SQL_Q59 = f"""
WITH r AS (
  SELECT doc_id, source,
         row_number() OVER (
             PARTITION BY source
             ORDER BY md5_number_lower(CAST(doc_id AS VARCHAR)) // 2,
                      doc_id) AS rn
  FROM documents
)
SELECT doc_id, source FROM r WHERE rn <= {GROUP_CAP}
"""


# --- q66: unigram LM perplexity quality score --------------------------------

def _unigram_counts(sf_dir: str):
    """Exact corpus token counts (the q05 partial-combine discipline, no
    min-count floor) collected to the driver: the unigram vocabulary is
    the classic small-side-by-construction table (sub-GB at any corpus
    scale; a production run would add a count floor + OOV bucket to cap
    it, which this exact oracle twin deliberately omits)."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        import polars as pl

        toks = (pl.from_arrow(t["text"].combine_chunks())
                .str.to_lowercase().str.extract_all("[a-z0-9]+")
                .explode(empty_as_null=True).drop_nulls())
        if len(toks) == 0:
            return pa.table({"tok": pa.array([], type=pa.string()),
                             "n_partial": pa.array([], type=pa.int64())})
        vc = pl.DataFrame({"tok": toks}).group_by("tok").len(name="n_partial")
        return pa.table({"tok": vc["tok"].to_arrow(),
                         "n_partial": vc["n_partial"].cast(pl.Int64).to_arrow()})

    counts = (_docs(sf_dir, ("text",))
              .map_batches(partial, batch_format="pyarrow")
              .groupby("tok").aggregate(Sum("n_partial", alias_name="c")))
    import polars as pl

    parts = [pl.from_arrow(b) for b in
             counts.iter_batches(batch_format="pyarrow") if b.num_rows]
    if not parts:
        return ray.put(pl.DataFrame({"tok": pl.Series([], dtype=pl.String),
                                     "nll": pl.Series([], dtype=pl.Float64)}))
    df = pl.concat(parts)
    total = int(df["c"].sum())
    # per-token -ln p(w), precomputed once so the scoring pass is a join
    df = df.with_columns(
        nll=(-np.log(df["c"].to_numpy().astype(np.float64) / total)))
    return ray.put(df.select(["tok", "nll"]))


def q66_lm_perplexity(sf_dir: str):
    """Per-document unigram language-model quality score: mean negative
    log-probability of the document's tokens under the corpus's own
    exact unigram distribution (nll_e4; lower = more typical — the
    KenLM-style perplexity filter of published pretraining pipelines,
    degenerated to the SQL-checkable unigram case).  Two streaming
    passes: counts (partial-combine → small groupby → broadcast) and
    scoring (per-batch polars join against the broadcast vocabulary —
    no shuffle touches the documents)."""
    vocab_ref = _unigram_counts(sf_dir)

    def score(t: pa.Table) -> pa.Table:
        import polars as pl

        empty = pa.table({"doc_id": pa.array([], type=pa.int64()),
                          "n_tokens": pa.array([], type=pa.int64()),
                          "nll_e4": pa.array([], type=pa.int64())})
        if t.num_rows == 0 or "text" not in t.column_names:
            return empty
        vocab = _bench_array(vocab_ref)      # cached polars frame
        df = (pl.DataFrame({
                  "doc_id": pl.from_arrow(t["doc_id"].combine_chunks()),
                  "tok": pl.from_arrow(t["text"].combine_chunks())
                           .str.to_lowercase().str.extract_all("[a-z0-9]+"),
              }).explode("tok", empty_as_null=True).drop_nulls("tok")
              .join(vocab, on="tok", how="inner")
              .group_by("doc_id")
              .agg(n_tokens=pl.len().cast(pl.Int64),
                   m=pl.col("nll").mean()))
        if len(df) == 0:
            return empty
        return pa.table({
            "doc_id": df["doc_id"].cast(pl.Int64).to_arrow(),
            "n_tokens": df["n_tokens"].to_arrow(),
            "nll_e4": pa.array(
                np.floor(df["m"].to_numpy() * 10_000 + 0.5).astype(np.int64),
                type=pa.int64()),
        })

    return _docs(sf_dir).map_batches(score, batch_format="pyarrow",
                                     batch_size=256)


SQL_Q66 = """
WITH toks AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS tok
  FROM documents
),
c AS (SELECT tok, count(*) AS c FROM toks GROUP BY tok),
tot AS (SELECT count(*) AS n FROM toks)
SELECT t.doc_id,
       CAST(count(*) AS BIGINT) AS n_tokens,
       CAST(FLOOR(10000 * avg(-ln(c.c / tot.n)) + 0.5) AS BIGINT) AS nll_e4
FROM toks t JOIN c USING (tok) CROSS JOIN tot
GROUP BY t.doc_id
"""


# --- q74: per-source token-budget mixture allocation -------------------------

MIX_DENOM = 2   # target corpus = total_tokens // MIX_DENOM, uniform/source


def q74_mixture_allocation(sf_dir: str):
    """Data-mixing plan: given exact per-source token counts, allocate a
    uniform per-source budget (total // MIX_DENOM // n_sources) and emit
    each source's sampling rate and expected sampled tokens — the
    mixture-weighting step every pretraining run performs before
    sampling (q54 then applies the rate).  All math is INTEGER division
    so the oracle twin is bit-exact.  One partial-combine pass + a
    groupby over O(sources) rows; the driver holds only the source
    table."""
    import polars as pl
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "text" not in t.column_names:
            return pa.table({"source": pa.array([], type=pa.string()),
                             "n_partial": pa.array([], type=pa.int64())})
        df = (pl.DataFrame({
                  "source": pl.from_arrow(t["source"].combine_chunks()),
                  "n": pl.from_arrow(t["text"].combine_chunks())
                         .str.to_lowercase()
                         .str.extract_all("[a-z0-9]+").list.len()
                         .cast(pl.Int64),
              }).group_by("source").agg(n_partial=pl.col("n").sum()))
        return pa.table({"source": df["source"].to_arrow(),
                         "n_partial": df["n_partial"].to_arrow()})

    per_src = (_docs(sf_dir, ("source", "text"))
               .map_batches(partial, batch_format="pyarrow")
               .groupby("source")
               .aggregate(Sum("n_partial", alias_name="n_tokens"))
               .take_all())
    if not per_src:
        return pa.table({"source": pa.array([], type=pa.string()),
                         "n_tokens": pa.array([], type=pa.int64()),
                         "rate_e6": pa.array([], type=pa.int64()),
                         "sampled_tokens": pa.array([], type=pa.int64())})
    total = sum(p["n_tokens"] for p in per_src)
    budget = total // MIX_DENOM // len(per_src)
    rows = []
    for p in sorted(per_src, key=lambda p: p["source"]):
        rate = min(1_000_000, budget * 1_000_000 // max(1, p["n_tokens"]))
        rows.append((p["source"], p["n_tokens"], rate,
                     p["n_tokens"] * rate // 1_000_000))
    return pa.table({
        "source": pa.array([r[0] for r in rows], type=pa.string()),
        "n_tokens": pa.array([r[1] for r in rows], type=pa.int64()),
        "rate_e6": pa.array([r[2] for r in rows], type=pa.int64()),
        "sampled_tokens": pa.array([r[3] for r in rows], type=pa.int64()),
    })


SQL_Q74 = f"""
WITH t AS (
  SELECT source,
         CAST(len(regexp_extract_all(lower(text), '[a-z0-9]+')) AS BIGINT)
             AS n
  FROM documents
),
s AS (SELECT source, sum(n) AS n_tokens FROM t GROUP BY source),
g AS (SELECT sum(n_tokens) // {MIX_DENOM} // count(*) AS budget FROM s)
SELECT source,
       CAST(n_tokens AS BIGINT) AS n_tokens,
       CAST(least(1000000, budget * 1000000 // greatest(1, n_tokens))
            AS BIGINT) AS rate_e6,
       CAST(n_tokens * least(1000000,
                             budget * 1000000 // greatest(1, n_tokens))
            // 1000000 AS BIGINT) AS sampled_tokens
FROM s CROSS JOIN g
"""


# --- q67: fuzzy (MinHash-LSH) decontamination --------------------------------

FUZZY_MH_P = 16            # permutations (8 bands of r=2)
FUZZY_MH_BANDS = 8
_FMH_PRIME = 4294967291
_FMH_MOD32 = 4294967296


def _band_minhash(t: pa.Table):
    """Per-doc banded MinHash over DECON_W-token shingles, the
    link_minhash_lsh_candidates hash family (one md5 per DISTINCT
    shingle, FUZZY_MH_P cheap affine permutations, bands of r=2 packed
    mv₀·2³² + mv₁ into one uint64 per band).  Returns (doc_ids int64,
    packed (n_docs, FUZZY_MH_BANDS) uint64); docs with no shingle drop
    out, mirroring the SQL twin's empty-list unnest."""
    df = _doc_shingles(t, DECON_W).sort("rid")
    if len(df) == 0:
        return (np.empty(0, dtype=np.int64),
                np.empty((0, FUZZY_MH_BANDS), dtype=np.uint64))
    rid = df["rid"].to_numpy().astype(np.int64)
    h32 = (_md5_cached({}, df["sh"].to_list())
           % _FMH_MOD32).astype(np.int64)
    starts = np.flatnonzero(np.r_[True, rid[1:] != rid[:-1]])
    mh = np.empty((len(starts), FUZZY_MH_P), dtype=np.int64)
    for j in range(FUZZY_MH_P):
        vals = ((2 * j + 1) * h32 + 7919 * j + 13) % _FMH_PRIME
        mh[:, j] = np.minimum.reduceat(vals, starts)
    packed = ((mh[:, 0::2].astype(np.uint64) << np.uint64(32))
              | mh[:, 1::2].astype(np.uint64))
    doc_ids = np.asarray(t["doc_id"], dtype=np.int64)[rid[starts]]
    return doc_ids, packed


def _collect_bench_bands(sf_dir: str):
    """Distinct (band → packed minhash) arrays of the benchmark split,
    collected once and broadcast — same small-side-by-construction
    argument as q50's exact-shingle set."""
    def bench_rows(t: pa.Table) -> pa.Table:
        ids = np.asarray(t["doc_id"], dtype=np.int64)
        bench = t.filter(pa.array(ids % DECON_BENCH_MOD == 0))
        _, packed = _band_minhash(bench)
        band = np.repeat(np.arange(FUZZY_MH_BANDS, dtype=np.int64),
                         packed.shape[0])
        return pa.table({
            "band": pa.array(band, type=pa.int64()),
            "pk": pa.array(packed.T.ravel().view(np.int64),
                           type=pa.int64()),
        })

    per_band: list[np.ndarray] = [np.empty(0, dtype=np.uint64)
                                  for _ in range(FUZZY_MH_BANDS)]
    chunks: list[list[np.ndarray]] = [[] for _ in range(FUZZY_MH_BANDS)]
    for b in (_docs(sf_dir)
              .map_batches(bench_rows, batch_format="pyarrow",
                           batch_size=256)
              .iter_batches(batch_format="pyarrow")):
        if b.num_rows == 0:
            continue
        bands = np.asarray(b["band"], dtype=np.int64)
        pks = np.asarray(b["pk"]).view(np.uint64)
        for i in range(FUZZY_MH_BANDS):
            sel = pks[bands == i]
            if len(sel):
                chunks[i].append(sel)
    for i in range(FUZZY_MH_BANDS):
        if chunks[i]:
            per_band[i] = np.unique(np.concatenate(chunks[i]))
    return ray.put(per_band)


def q67_fuzzy_decontaminate(sf_dir: str):
    """Near-duplicate decontamination: flag training docs whose banded
    MinHash collides with the benchmark split (doc_id % 20 == 0) in ≥1
    LSH band — catching paraphrased/partial eval leakage that q50's
    exact shingle intersection misses.  Benchmark band keys are
    collected once and broadcast; training docs probe per batch with a
    per-band ``searchsorted`` — zero shuffles, like q50.  Hashing is the
    oracle-exact md5 family of link_minhash_lsh_candidates; production
    would swap in xxhash."""
    bench_ref = _collect_bench_bands(sf_dir)

    def probe(t: pa.Table) -> pa.Table:
        empty = pa.table({"doc_id": pa.array([], type=pa.int64()),
                          "n_bands_hit": pa.array([], type=pa.int64())})
        if t.num_rows == 0 or "doc_id" not in t.column_names:
            return empty
        bench = _bench_array(bench_ref)
        ids = np.asarray(t["doc_id"], dtype=np.int64)
        train = t.filter(pa.array(ids % DECON_BENCH_MOD != 0))
        doc_ids, packed = _band_minhash(train)
        if not len(doc_ids):
            return empty
        hits = np.zeros(len(doc_ids), dtype=np.int64)
        for b in range(FUZZY_MH_BANDS):
            arr = bench[b]
            if not len(arr):
                continue
            pos = np.searchsorted(arr, packed[:, b])
            hits += ((pos < len(arr))
                     & (arr[np.minimum(pos, len(arr) - 1)] == packed[:, b]))
        keep = hits > 0
        return pa.table({
            "doc_id": pa.array(doc_ids[keep], type=pa.int64()),
            "n_bands_hit": pa.array(hits[keep], type=pa.int64()),
        })

    return _docs(sf_dir).map_batches(probe, batch_format="pyarrow",
                                     batch_size=256)


SQL_Q67 = f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS t
  FROM documents
),
sh AS (
  SELECT doc_id,
         unnest(list_distinct(list_transform(
             generate_series(1, greatest(len(t) - {DECON_W - 1}, 0)),
             i -> list_aggregate(t[i : i + {DECON_W - 1}], 'string_agg', ' ')
         ))) AS s
  FROM toks
),
h AS (SELECT doc_id, md5_number_lower(s) % {_FMH_MOD32} AS h32 FROM sh),
mh AS (
  SELECT doc_id, j,
         min(((2*j + 1) * h32 + 7919*j + 13) % {_FMH_PRIME}) AS mv
  FROM h CROSS JOIN generate_series(0, {FUZZY_MH_P - 1}) g(j)
  GROUP BY doc_id, j
),
bands AS (
  SELECT doc_id, j // 2 AS band,
         string_agg(mv::VARCHAR, ',' ORDER BY j) AS bkey
  FROM mh GROUP BY doc_id, j // 2
),
bench AS (SELECT DISTINCT band, bkey FROM bands
          WHERE doc_id % {DECON_BENCH_MOD} = 0),
train AS (SELECT doc_id, band, bkey FROM bands
          WHERE doc_id % {DECON_BENCH_MOD} <> 0)
SELECT t.doc_id, CAST(count(*) AS BIGINT) AS n_bands_hit
FROM train t JOIN bench USING (band, bkey)
GROUP BY t.doc_id
"""


# --- q142: per-language character histogram ---------------------------------

_HIST_PART = pa.schema([("lang", pa.string()), ("ch", pa.string()),
                        ("cnt_p", pa.int64())])


def _char_hist_partial(t: pa.Table) -> pa.Table:
    """Per-batch (lang, char) counts: one byte-level ``np.bincount`` per
    language group (the corpus is ASCII, where bytes ≡ characters; a
    UTF-8 corpus would route through a decoded codepoint column first).
    Replaces the batch with ≤ |langs|·256 skinny partial rows."""
    import polars as pl

    if t.num_rows == 0 or "lang" not in t.column_names:
        return _HIST_PART.empty_table()
    df = pl.from_arrow(t.select(["lang", "text"]))
    langs, chs, cnts = [], [], []
    for (lv,), g in df.group_by("lang"):
        joined = g["text"].str.join("")
        buf = np.frombuffer(joined[0].encode("utf-8"), dtype=np.uint8)
        bc = np.bincount(buf, minlength=256)
        nz = np.flatnonzero(bc)
        langs.extend([lv] * len(nz))
        chs.extend(chr(c) for c in nz)
        cnts.extend(bc[nz].tolist())
    return pa.table({"lang": pa.array(langs, type=pa.string()),
                     "ch": pa.array(chs, type=pa.string()),
                     "cnt_p": pa.array(cnts, type=pa.int64())})


def q142_char_histogram(sf_dir: str):
    """Corpus character-frequency histogram per language — the unigram
    byte/char distribution langid models and compression-ratio
    estimators are fit on.  Per-batch ``np.bincount`` over the
    language-grouped byte stream collapses each batch to ≤ 256 rows per
    language, so the ONE exchange that follows moves O(langs × charset)
    rows regardless of corpus size — the canonical combiner-first
    aggregate (same discipline as q05 word count, at character
    granularity)."""
    from ..functions.grouping import bucketed_sum

    parts = _docs(sf_dir, columns=("lang", "text")).map_batches(
        _char_hist_partial, batch_format="pyarrow")
    return bucketed_sum(parts, ["lang", "ch"], "cnt_p", "cnt",
                        num_buckets=8)


SQL_Q142 = """
SELECT lang, c AS ch, CAST(count(*) AS BIGINT) AS cnt
FROM (SELECT lang, unnest(string_split(text, '')) AS c FROM documents)
GROUP BY lang, c
"""


# --- q143: per-document n-gram novelty rate ---------------------------------

NOV_W = 5           # shingle width for the novelty attribution


def _novelty_rows(t: pa.Table) -> pa.Table:
    """batch → exploded (h, doc_id) rows: per-doc DISTINCT NOV_W-token
    shingles under the md5 oracle-parity hash (bit-cast to int64 for
    Ray, CLAUDE.md uint64 rule)."""
    _OUT = pa.schema([("h", pa.int64()), ("doc_id", pa.int64())])
    if t.num_rows == 0 or "text" not in t.column_names:
        return _OUT.empty_table()
    ids = np.asarray(t["doc_id"], dtype=np.int64)
    df = _doc_shingles(t, NOV_W)
    if len(df) == 0:
        return _OUT.empty_table()
    rid = df["rid"].to_numpy().astype(np.int64)
    hs = _md5_cached({}, df["sh"].to_list())
    return pa.table({"h": pa.array(hs.view(np.int64), type=pa.int64()),
                     "doc_id": pa.array(ids[rid], type=pa.int64())})


def q143_novelty_rate(sf_dir: str):
    """Per-document content-novelty rate: the fraction of a document's
    distinct NOV_W-token shingles whose global FIRST occurrence (min
    doc_id owner) is this document — the marginal-contribution measure
    a curation pipeline uses to rank near-redundant sources (each
    shingle's credit goes to exactly one doc, so Σ novel over the
    corpus = |global distinct shingles|).

    ONE fused ``rekey_exchange``: shingle-keyed buckets resolve each
    hash's owning doc AND the per-doc row counts (totals need no second
    pass — a doc's shingle rows are its total), then the per-doc
    partials re-route by doc_id and sum.  The exploded shingle stream
    crosses the object store exactly once; the md5 keying keeps hash
    collisions identical in both engines (CLAUDE.md parity
    discipline)."""
    import polars as pl

    from ..functions.grouping import rekey_exchange

    rows = _docs(sf_dir).map_batches(_novelty_rows,
                                     batch_format="pyarrow",
                                     batch_size=256)

    _MID = pa.schema([("doc_id", pa.int64()), ("total_p", pa.int64()),
                      ("novel_p", pa.int64())])

    def per_hash(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "h" not in t.column_names:
            return _MID.empty_table()
        df = pl.from_arrow(t)
        tot = df.group_by("doc_id").agg(total_p=pl.len().cast(pl.Int64))
        win = (df.group_by("h").agg(pl.col("doc_id").min())
               .group_by("doc_id").agg(novel_p=pl.len().cast(pl.Int64)))
        out = (tot.join(win, on="doc_id", how="full", coalesce=True)
               .fill_null(0))
        return out.select(["doc_id", "total_p", "novel_p"]).to_arrow() \
                  .cast(_MID)

    _OUT = pa.schema([("doc_id", pa.int64()), ("n_shingles", pa.int64()),
                      ("n_novel", pa.int64()), ("novelty_e4", pa.int64())])

    def per_doc(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "doc_id" not in t.column_names:
            return _OUT.empty_table()
        df = (pl.from_arrow(t).group_by("doc_id")
              .agg(n_shingles=pl.col("total_p").sum(),
                   n_novel=pl.col("novel_p").sum()))
        ns = df["n_shingles"].to_numpy().astype(np.int64)
        nv = df["n_novel"].to_numpy().astype(np.int64)
        return pa.table({
            "doc_id": df["doc_id"].to_arrow().cast(pa.int64()),
            "n_shingles": pa.array(ns),
            "n_novel": pa.array(nv),
            "novelty_e4": pa.array(10000 * nv // ns),
        })

    return rekey_exchange(rows, "h", per_hash, "doc_id", per_doc,
                          num_buckets1=32, num_buckets2=16)


SQL_Q143 = f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS t
  FROM documents
),
sh AS (
  SELECT doc_id,
         md5_number_lower(unnest(list_distinct(list_transform(
             generate_series(1, greatest(len(t) - {NOV_W - 1}, 0)),
             i -> list_aggregate(t[i : i + {NOV_W - 1}], 'string_agg', ' ')
         )))) AS h
  FROM toks
),
own AS (SELECT h, min(doc_id) AS owner FROM sh GROUP BY h),
tot AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_shingles
        FROM sh GROUP BY doc_id),
nov AS (SELECT owner AS doc_id, CAST(count(*) AS BIGINT) AS n_novel
        FROM own GROUP BY owner)
SELECT t.doc_id, t.n_shingles,
       COALESCE(n.n_novel, 0) AS n_novel,
       CAST(10000 * COALESCE(n.n_novel, 0) // t.n_shingles AS BIGINT)
           AS novelty_e4
FROM tot t LEFT JOIN nov n USING (doc_id)
"""


# --- q156: priority sampling (weighted without replacement) ------------------

PRIORITY_K = 100          # sample size
PRIORITY_MOD = 999983     # prime modulus for the md5-derived uniform


def q156_priority_sample(sf_dir: str):
    """Priority sampling (Duffield-Lund-Thorup 2007): a weighted sample
    WITHOUT replacement — the complement of q54's independent Bernoulli
    thinning (which cannot bound the sample size).  Each doc gets an
    exact-integer priority w·10⁹ // u from a deterministic md5-derived
    uniform u ∈ [1, PRIORITY_MOD]; the global top-K by priority IS the
    sample.  Integer priorities (not the textbook w/u float) keep the
    op exact end-to-end and identical across engines; the estimator
    caveat (coarser u granularity) is a documented trade.

    Scale shape: one streaming pass emits a ≤K-row partial top-K per
    batch, so the final exact sort ranks O(K · batches) skinny rows —
    never the corpus.  Deterministic by construction: resumable,
    partition-independent, no seed state."""

    def partial_topk(t: pa.Table) -> pa.Table:
        ids = np.asarray(t["doc_id"], dtype=np.int64)
        w = np.asarray(t["n_chars"], dtype=np.int64)
        hs = _md5_cached({}, [str(i) for i in ids])
        u = (hs % np.uint64(PRIORITY_MOD)).astype(np.int64) + 1
        prio = w * 1_000_000_000 // u
        order = np.lexsort((ids, -prio))[:PRIORITY_K]
        return pa.table({
            "doc_id": pa.array(ids[order], type=pa.int64()),
            "n_chars": pa.array(w[order], type=pa.int64()),
            "prio": pa.array(prio[order], type=pa.int64()),
        })

    docs = _t(sf_dir, "documents", ["doc_id", "n_chars"])
    partials = docs.map_batches(partial_topk, batch_format="pyarrow",
                                batch_size=4096)
    return (partials.sort(["prio", "doc_id"], descending=[True, False])
            .limit(PRIORITY_K))


SQL_Q156 = f"""
SELECT doc_id, n_chars,
       CAST(n_chars AS BIGINT) * 1000000000
           // CAST(md5_number_lower(CAST(doc_id AS VARCHAR))
                   % {PRIORITY_MOD} + 1 AS BIGINT) AS prio
FROM documents
ORDER BY prio DESC, doc_id
LIMIT {PRIORITY_K}
"""


QUERIES = {
    "q50_decontaminate": (q50_decontaminate, SQL_Q50),
    "q142_char_histogram": (q142_char_histogram, SQL_Q142),
    "q143_novelty_rate": (q143_novelty_rate, SQL_Q143),
    "q51_pii_scrub": (q51_pii_scrub, SQL_Q51),
    "q52_repetition_filter": (q52_repetition_filter, SQL_Q52),
    "q53_pack_sequences": (q53_pack_sequences, SQL_Q53),
    "q54_weighted_sample": (q54_weighted_sample, SQL_Q54),
    "q56_curate_and_pack": (q56_curate_and_pack, SQL_Q56),
    "q59_group_cap_sample": (q59_group_cap_sample, SQL_Q59),
    "q60_pack_global": (q60_pack_global, SQL_Q60),
    "q62_global_rank": (q62_global_rank, SQL_Q62),
    "q66_lm_perplexity": (q66_lm_perplexity, SQL_Q66),
    "q74_mixture_allocation": (q74_mixture_allocation, SQL_Q74),
    "q67_fuzzy_decontaminate": (q67_fuzzy_decontaminate, SQL_Q67),
    "q156_priority_sample": (q156_priority_sample, SQL_Q156),
    # Bloom layer is semantically invisible → q50's twin verbatim
    "q165_bloom_decontaminate": (q165_bloom_decontaminate, SQL_Q50),
    # zlib not SQL-expressible → rows-only; pytest recomputes directly
    "q174_compression_ratio": (q174_compression_ratio, None),
}


# --- q190: duplicated-span coalescing (exact-substring dedup post-step) -----

SPAN_W = 5          # token width of the exact shingle probe
SPAN_STOP_DF = 1000  # shingles in more DISTINCT docs than this are
                     # boilerplate stop-shingles (the q12 guard): at corpus
                     # scale one such shingle would mark most of every doc


def q190_dup_spans(sf_dir: str):
    """Maximal duplicated-span extraction — the post-processing step of
    exact-substring training-data dedup (Lee et al. 2022, "Deduplicating
    Training Data Makes Language Models Better": after finding repeated
    fixed-width windows, adjacent/overlapping hits must coalesce into
    the maximal removable span): every SPAN_W-token shingle occurring
    in ≥ 2 DISTINCT documents marks its start position a duplicate hit,
    and per document the hits merge gaps-and-islands style (a new span
    starts when a hit begins after the previous hit's coverage ends)
    into (doc_id, span_start, span_end, n_hits) rows — 1-based token
    positions, span_end inclusive.

    Shape: positioned shingle rows (doc, pos, shingle) cross ONE
    shingle-keyed exchange — co-location makes the distinct-doc count
    exact in-bucket, so only duplicated shingles' skinny (doc, pos)
    hits re-exchange by doc for the vectorized island merge (sorted
    breaks + cumsum, no Python loop).  Shingles in more than
    SPAN_STOP_DF distinct docs are dropped as boilerplate (mirrored in
    the twin).  Production keys would be xxhash64 of the shingle; the
    oracle query ships the string so both engines compare exact
    equality.

    Reference analogue: the repeated-window machinery of winnowing
    fingerprints (SURVEY §2 beyond-ref) completed with the span-merge
    step the reference family lacks."""
    import polars as pl

    from ..functions.grouping import hash_exchange

    rows = _docs(sf_dir)

    _SH = pa.schema([("sh", pa.large_string()), ("doc_id", pa.int64()),
                     ("pos", pa.int64())])

    def positioned(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "text" not in t.column_names:
            return _SH.empty_table()
        df = pl.DataFrame({
            "doc_id": pl.from_arrow(t["doc_id"].combine_chunks())
                        .cast(pl.Int64),
            "tok": pl.from_arrow(t["text"].combine_chunks())
                     .str.to_lowercase().str.extract_all("[a-z0-9]+"),
        }).with_row_index("__r")
        ex = df.explode("tok", empty_as_null=True).drop_nulls("tok")
        ex = ex.with_columns(
            (pl.int_range(pl.len()).over("__r") + 1).alias("pos"))
        # W-token shingle at pos p: shift-concat (the q12 builder idiom)
        parts = [pl.col("tok").shift(-i).over("__r") for i in range(SPAN_W)]
        sh = ex.with_columns(
            pl.concat_str(parts, separator=" ", ignore_nulls=False)
              .alias("sh")).drop_nulls("sh")
        return sh.select(["sh", "doc_id", "pos"]).to_arrow().cast(_SH)

    _HIT = pa.schema([("doc_id", pa.int64()), ("pos", pa.int64())])

    def dup_hits(bucket: pa.Table) -> pa.Table:
        if bucket.num_rows == 0 or "sh" not in bucket.column_names:
            return _HIT.empty_table()
        df = pl.from_arrow(bucket)
        live = (df.group_by("sh")
                  .agg(pl.col("doc_id").n_unique().alias("nd"))
                  .filter((pl.col("nd") >= 2)
                          & (pl.col("nd") <= SPAN_STOP_DF)))
        out = df.join(live.select("sh"), on="sh")
        return out.select(["doc_id", "pos"]).to_arrow().cast(_HIT)

    _OUT = pa.schema([("doc_id", pa.int64()), ("span_start", pa.int64()),
                      ("span_end", pa.int64()), ("n_hits", pa.int64())])

    def islands(bucket: pa.Table) -> pa.Table:
        if bucket.num_rows == 0 or "doc_id" not in bucket.column_names:
            return _OUT.empty_table()
        doc = np.asarray(bucket["doc_id"], dtype=np.int64)
        pos = np.asarray(bucket["pos"], dtype=np.int64)
        order = np.lexsort((pos, doc))
        d, p = doc[order], pos[order]
        brk = np.r_[True, (d[1:] != d[:-1]) | (p[1:] > p[:-1] + SPAN_W)]
        starts = np.flatnonzero(brk)
        ends = np.r_[starts[1:], len(p)] - 1
        return pa.table({
            "doc_id": pa.array(d[starts]),
            "span_start": pa.array(p[starts]),
            "span_end": pa.array(p[ends] + SPAN_W - 1),
            "n_hits": pa.array((ends - starts + 1).astype(np.int64)),
        })

    sh_rows = rows.map_batches(positioned, batch_format="pyarrow",
                               batch_size=256)
    hits = hash_exchange(sh_rows, "sh", dup_hits, 32)
    return hash_exchange(hits, "doc_id", islands, 32)


SQL_Q190 = f"""
WITH t AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS toks
  FROM documents
),
sh AS (
  SELECT doc_id, CAST(i AS BIGINT) AS pos,
         list_aggregate(toks[i : i + {SPAN_W - 1}], 'string_agg', ' ') AS sh
  FROM t, UNNEST(generate_series(1, greatest(len(toks) - {SPAN_W - 1}, 0)))
       AS u(i)
),
dup AS (
  SELECT sh FROM (SELECT DISTINCT sh, doc_id FROM sh)
  GROUP BY sh HAVING count(*) BETWEEN 2 AND {SPAN_STOP_DF}
),
hits AS (
  SELECT doc_id, pos FROM sh WHERE sh IN (SELECT sh FROM dup)
),
isl AS (
  SELECT doc_id, pos,
         SUM(CASE WHEN pos > COALESCE(lag_end, -1) THEN 1 ELSE 0 END)
             OVER (PARTITION BY doc_id ORDER BY pos) AS island
  FROM (SELECT doc_id, pos,
               LAG(pos + {SPAN_W}) OVER (PARTITION BY doc_id
                                         ORDER BY pos) AS lag_end
        FROM hits)
)
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CAST(MIN(pos) AS BIGINT) AS span_start,
       CAST(MAX(pos) + {SPAN_W - 1} AS BIGINT) AS span_end,
       CAST(count(*) AS BIGINT) AS n_hits
FROM isl GROUP BY doc_id, island
"""

QUERIES["q190_dup_spans"] = (q190_dup_spans, SQL_Q190)
