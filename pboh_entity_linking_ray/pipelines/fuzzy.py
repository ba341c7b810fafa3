"""Fuzzy mention fallback — the sorted-neighbor RANGE LOOKUP (SURVEY.md
§2.3 M8 / §2.5 J3).

The reference binary-searches an unseen mention in the lexicographically
sorted 21M-mention array, scans ±20 neighbors and accepts the best
char-trigram similarity ≥ 0.5 (reference:
src/main/scala/index/MentionEntitiesFrequencyIndex.scala:123-182; sorted
array built at :66-70).  The recast holds the sorted vocabulary inside
the lookup actor (the A1 once-per-worker index pattern — range lookups
don't fit hash joins) while the query stream flows through map_batches.

The oracle twin reproduces the whole thing in SQL: the insertion point is
``count(tok < q)``, the neighbor window is rn ∈ [p-19, p+21] (exactly
numpy's searchsorted window [p-20, p+20] in 0-based indexing) and the
trigram Jaccard is spelled out over '^^'||s||'$$' padding in e4 fixed
point."""

from __future__ import annotations
from pboh_entity_linking_ray.sources.reading import read_parquet_clean

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ..functions.similarity import char_trigrams

NEIGHBORS = 20          # ± window in the sorted vocabulary
ACCEPT_SIM_E4 = 5000    # accept best neighbor at trigram jaccard >= 0.5
N_FUZZY_QUERIES = 200   # queries: middle-char-deleted typos of the first
MIN_QUERY_LEN = 8       # N sorted tokens of at least this length


def _vocab(sf_dir: str) -> np.ndarray:
    """Distinct document tokens, sorted — built as a pre-aggregated
    distinct (the stats-build pattern), collected as the in-actor index
    (the reference keeps the full sorted mention array in JVM heap)."""
    from ..functions.grouping import hash_exchange

    ds = read_parquet_clean(f"{sf_dir}/documents.parquet",
                               columns=["text"])

    def partial(t: pa.Table) -> pa.Table:
        import polars as pl

        toks = (pl.from_arrow(t["text"].combine_chunks())
                .str.to_lowercase().str.extract_all("[a-z0-9]+")
                .explode(empty_as_null=True).drop_nulls().unique())
        return pa.table({"tok": toks.to_arrow()})

    def uniq(bucket: pa.Table) -> pa.Table:
        import polars as pl

        return pl.from_arrow(bucket).unique().to_arrow()

    distinct = hash_exchange(ds.map_batches(partial, batch_format="pyarrow"),
                             "tok", uniq)
    return np.sort(distinct.to_pandas()["tok"].to_numpy())


def _typo_queries(vocab: np.ndarray) -> list[str]:
    """Deterministic unseen-ish queries: delete the 5th character of the
    first N long tokens (prefix preserved → the original stays inside the
    ±20 lexicographic window, like a real typo'd mention)."""
    longs = [t for t in vocab if len(t) >= MIN_QUERY_LEN][:N_FUZZY_QUERIES]
    return sorted({t[:4] + t[5:] for t in longs})


def _sim_e4(a: str, b: str) -> int:
    ta, tb = char_trigrams(a), char_trigrams(b)
    return (len(ta & tb) * 10000) // len(ta | tb)


def _trigram_code_sets(strs: np.ndarray):
    """DISTINCT padded-trigram codes of every string, fully vectorized:
    one byte buffer of all ``'^^'+s+'$$'`` concatenated, one strided
    24-bit code pass (``b[i]·2¹⁶+b[i+1]·2⁸+b[i+2]``), boundary-crossing
    codes masked, then one ``np.unique`` over ``owner·2²⁴+code``.
    Returns (owner array, code array) sorted by (owner, code), plus the
    distinct-count per owner."""
    # lens MUST be measured in encoded bytes, not characters — the code
    # pass below walks a UTF-8 byte buffer, and a char-measured length
    # would misalign every owner boundary after the first non-ASCII
    # string (codes then become byte-trigrams for multibyte chars, which
    # is still a consistent similarity space on both sides of each pair)
    enc = [("^^" + s + "$$").encode("utf-8") for s in strs]
    lens = np.fromiter((len(b) for b in enc), dtype=np.int64,
                       count=len(enc))
    buf = np.frombuffer(b"".join(enc), dtype=np.uint8).astype(np.int64)
    if len(buf) < 3:
        z = np.array([], dtype=np.int64)
        return z, z, np.zeros(len(strs), dtype=np.int64)
    tri = buf[:-2] * 65536 + buf[1:-1] * 256 + buf[2:]
    ends = np.cumsum(lens)
    starts = ends - lens
    # trigram at buffer position p belongs to string i iff
    # starts[i] <= p <= ends[i]-3 — build the owner id per position and
    # mask the (two per string) boundary-crossing windows
    pos = np.arange(len(tri), dtype=np.int64)
    owner = np.searchsorted(ends, pos, side="right")
    valid = pos <= ends[owner] - 3
    key = owner[valid] * (1 << 24) + tri[valid]
    uniq = np.unique(key)                      # sorted → grouped by owner
    uo = uniq >> 24
    counts = np.bincount(uo, minlength=len(strs)).astype(np.int64)
    return uo, uniq & ((1 << 24) - 1), counts


def _best_window_matches(v: np.ndarray, qs: np.ndarray):
    """Vectorized q19 probe: ONE ``searchsorted`` for every query, a
    strided ±NEIGHBORS window over the sorted vocabulary, batched
    trigram-jaccard via integer code sets (pair intersection = duplicate
    count of ``pair_id·2²⁴+code`` keys), then a grouped first-max per
    query (window candidates arrive in ascending lexicographic order,
    so first-max reproduces the reference's best-neighbor tie-break).
    Returns (qtok, match_tok, sim_e4) arrays of the accepted queries."""
    nq = len(qs)
    if nq == 0 or len(v) == 0:
        z = np.array([], dtype=object)
        return z, z, np.array([], dtype=np.int64)
    pos = np.searchsorted(v, qs)
    off = np.arange(-NEIGHBORS, NEIGHBORS + 1, dtype=np.int64)
    idx = pos[:, None] + off[None, :]
    ok = (idx >= 0) & (idx < len(v))
    flat_ok = ok.ravel()
    qid = np.repeat(np.arange(nq, dtype=np.int64), len(off))[flat_ok]
    cand = v[np.clip(idx, 0, len(v) - 1)].ravel()[flat_ok]
    winpos = np.tile(np.arange(len(off), dtype=np.int64), nq)[flat_ok]

    # code sets over the DISTINCT strings of the batch (queries ∪ cands)
    ustr, inv = np.unique(np.concatenate([qs, cand]), return_inverse=True)
    owner, codes, setsz = _trigram_code_sets(ustr)
    q_sid, c_sid = inv[:nq][qid], inv[nq:]

    # |A∩B| per pair: tag both sides' codes with the pair id and count
    # key duplicates — Σ work is O(pairs × avg set size), no Python loop
    bounds = np.concatenate([[0], np.cumsum(setsz)])

    def gather(sids):
        """grouped-arange: concat of arange(bounds[s], bounds[s+1]) per
        s in sids, fully vectorized (cumsum-of-steps idiom)."""
        lens = setsz[sids]
        nz = lens > 0
        starts, lens = bounds[sids][nz], lens[nz]
        total = int(lens.sum())
        if total == 0:
            return np.array([], dtype=np.int64)
        step = np.ones(total, dtype=np.int64)
        cum = np.cumsum(lens)
        step[0] = starts[0]
        step[cum[:-1]] = starts[1:] - (starts[:-1] + lens[:-1] - 1)
        return np.cumsum(step)

    reps_q, reps_c = setsz[q_sid], setsz[c_sid]
    pid_q = np.repeat(np.arange(len(q_sid), dtype=np.int64), reps_q)
    pid_c = np.repeat(np.arange(len(c_sid), dtype=np.int64), reps_c)
    keys = np.concatenate([
        pid_q * (1 << 24) + codes[gather(q_sid)],
        pid_c * (1 << 24) + codes[gather(c_sid)],
    ])
    ukeys, kc = np.unique(keys, return_counts=True)
    inter = np.bincount(ukeys[kc == 2] >> 24, minlength=len(q_sid)) \
        .astype(np.int64)
    union = reps_q + reps_c - inter
    sim = inter * 10000 // np.maximum(union, 1)

    # grouped first-max per query: order (qid asc, sim desc, window pos
    # asc) and keep each qid's first row
    order = np.lexsort((winpos, -sim, qid))
    first = np.flatnonzero(np.r_[True, qid[order][1:] != qid[order][:-1]])
    sel = order[first]
    keep = sim[sel] >= ACCEPT_SIM_E4
    sel = sel[keep]
    return qs[qid[sel]], cand[sel], sim[sel]


class FuzzyLookup:
    """Actor-held sorted vocabulary; per batch, ONE vectorized window
    probe (`_best_window_matches`) — no Python loop over queries or
    candidates."""

    def __init__(self, vref):
        self.vocab = ray.get(vref) if isinstance(vref, ray.ObjectRef) else vref

    def __call__(self, t: pa.Table) -> pa.Table:
        empty = pa.table({
            "qtok": pa.array([], type=pa.string()),
            "match_tok": pa.array([], type=pa.string()),
            "sim_e4": pa.array([], type=pa.int64()),
        })
        if t.num_rows == 0 or "qtok" not in t.column_names:
            return empty
        qs = np.asarray(t["qtok"].to_pylist(), dtype=object)
        out_q, out_m, out_s = _best_window_matches(self.vocab, qs)
        return pa.table({
            "qtok": pa.array(list(out_q), type=pa.string()),
            "match_tok": pa.array(list(out_m), type=pa.string()),
            "sim_e4": pa.array(out_s, type=pa.int64()),
        })


def q19_fuzzy_lookup(sf_dir: str):
    vocab = _vocab(sf_dir)
    queries = _typo_queries(vocab)
    vref = ray.put(vocab)
    qds = ray.data.from_arrow(pa.table({"qtok": pa.array(queries)}))
    return qds.map_batches(FuzzyLookup, fn_constructor_kwargs={"vref": vref},
                           batch_format="pyarrow", batch_size=512,
                           concurrency=(1, 4))


_TRI = ("list_distinct(list_transform(generate_series(1, length({x}) + 2), "
        "i -> substr('^^' || {x} || '$$', i, 3)))")

SQL_Q19 = f"""
WITH v AS (
  SELECT DISTINCT unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS tok
  FROM documents
),
sv AS (SELECT tok, row_number() OVER (ORDER BY tok) AS rn FROM v),
q AS (
  SELECT DISTINCT substr(tok, 1, 4) || substr(tok, 6) AS qtok
  FROM (SELECT tok FROM v WHERE length(tok) >= {MIN_QUERY_LEN}
        ORDER BY tok LIMIT {N_FUZZY_QUERIES})
),
pos AS (
  SELECT qtok, (SELECT count(*) FROM v WHERE tok < q.qtok) AS p FROM q
),
cand AS (
  SELECT qtok,
         sv.tok,
         CAST((len(list_intersect({_TRI.format(x='qtok')},
                                  {_TRI.format(x='sv.tok')})) * 10000)
              // len(list_distinct(list_concat({_TRI.format(x='qtok')},
                                   {_TRI.format(x='sv.tok')}))) AS BIGINT)
             AS sim_e4
  FROM pos JOIN sv ON sv.rn BETWEEN p - {NEIGHBORS - 1} AND p + {NEIGHBORS + 1}
)
SELECT qtok, tok AS match_tok, sim_e4
FROM cand
WHERE sim_e4 >= {ACCEPT_SIM_E4}
QUALIFY row_number() OVER (PARTITION BY qtok
                           ORDER BY sim_e4 DESC, tok) = 1
"""

AUG_DOC_CAP = 500   # oversized-doc guard for the within-doc n² scan


def q21_candidate_augment(sf_dir: str):
    """Candidate augmentation (SURVEY.md §2.3 M9): within one document,
    a mention STRICTLY CONTAINED in another mention inherits the
    container as an extra candidate (reference:
    index/MentEntsFreqIndexWrapper.scala:30-40 unions the containing
    mention's candidate list at frequency 1).  Documents are
    hash-partitioned; the in-bucket scan is a chunked polars self-join
    with one vectorized literal-contains pass — never a Python loop over
    token pairs."""
    from ..functions.grouping import hash_exchange

    ds = read_parquet_clean(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def explode(t: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.DataFrame({
            "doc_id": pl.from_arrow(t["doc_id"].combine_chunks())
                        .cast(pl.Int64),
            "tok": pl.from_arrow(t["text"].combine_chunks())
                     .str.to_lowercase().str.extract_all("[a-z0-9]+"),
        }).explode("tok", empty_as_null=True).drop_nulls("tok").unique()
        return df.to_arrow()

    rows = ds.map_batches(explode, batch_format="pyarrow", batch_size=512)

    out_schema = pa.schema([("doc_id", pa.int64()),
                            ("mention", pa.large_string()),
                            ("candidate", pa.large_string())])
    pair_budget = 4_000_000  # max within-doc pair rows materialized at once

    def augment(bucket: pa.Table) -> pa.Table:
        """Vectorized containment scan: per chunk of docs, ONE polars
        self-join on doc_id (bounded n² rows) and ONE vectorized
        ``str.contains(literal=True)`` — no Python loop over token pairs.
        Docs are chunked so Σ len(doc)² per join stays under
        ``pair_budget`` regardless of bucket size."""
        import polars as pl

        df = pl.from_arrow(bucket)
        live = (df.group_by("doc_id").len()
                  .filter(pl.col("len").is_between(2, AUG_DOC_CAP)))
        df = df.join(live.select("doc_id"), on="doc_id").sort("doc_id")
        if df.height == 0:
            return out_schema.empty_table()
        sizes = live.sort("doc_id")
        pairs_per_doc = (sizes["len"].cast(pl.Int64) ** 2).to_numpy()
        chunk_of_doc = np.cumsum(pairs_per_doc) // pair_budget
        doc_chunk = dict(zip(sizes["doc_id"].to_list(), chunk_of_doc))
        df = df.with_columns(
            pl.col("doc_id").replace_strict(doc_chunk).alias("__chunk"))
        outs = []
        for (_, ), part in df.partition_by("__chunk", as_dict=True).items():
            p = part.select(["doc_id", "tok"])
            joined = p.join(p.rename({"tok": "candidate"}), on="doc_id")
            hit = joined.filter(
                (pl.col("tok") != pl.col("candidate"))
                & pl.col("candidate").str.contains(pl.col("tok"),
                                                   literal=True))
            outs.append(hit.rename({"tok": "mention"}))
        out = pl.concat(outs) if outs else None
        if out is None or out.height == 0:
            return out_schema.empty_table()
        return out.select(["doc_id", "mention", "candidate"]) \
                  .to_arrow().cast(out_schema)

    return hash_exchange(rows, "doc_id", augment)


SQL_Q21 = f"""
WITH s AS (
  SELECT DISTINCT doc_id,
         unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS tok
  FROM documents
),
live AS (
  SELECT doc_id FROM s GROUP BY doc_id
  HAVING count(*) BETWEEN 2 AND {AUG_DOC_CAP}
)
SELECT a.doc_id, a.tok AS mention, b.tok AS candidate
FROM s a JOIN s b
  ON a.doc_id = b.doc_id AND a.tok <> b.tok
     AND contains(b.tok, a.tok)
WHERE a.doc_id IN (SELECT doc_id FROM live)
"""

QUERIES = {
    "q19_fuzzy_lookup": (q19_fuzzy_lookup, SQL_Q19),
    "q21_candidate_augment": (q21_candidate_augment, SQL_Q21),
}
