"""Full-text retrieval over the documents table: inverted keyword search.

q55: multi-term phrase queries against the corpus, scored with the same
integer-exact tf·⌊W/df⌋ weighting as the TF-IDF join (textops.q44) so
the DuckDB twin matches bit-for-bit (no float idf drift), ranked top-k
per query with deterministic (score DESC, doc_id ASC) tie-breaks.

Shape, 100 TB-first:
- The query set is code/config — a handful of terms.  Pass 1 computes
  each term's EXACT document frequency with per-batch partials (a doc
  lives wholly in its row, so a batch's df contribution is exact) and a
  driver-side sum over O(|terms| × blocks) tiny rows — the corpus is
  never collected.
- Pass 2 re-scans, prunes each doc's bigrams to the query-term set
  inside the batch (one vectorized polars pass — the inverted index is
  implicit, built per batch, never materialized), maps terms to the
  queries containing them, sums per (query, doc) in-batch, and feeds
  ``topk_per_group`` — whose combiner forwards at most k rows per query
  per batch, so the only exchange moves O(k × |queries|) rows.

Both passes prune at the scan (doc_id, text only).  The reference has
no retrieval operator; this extends its fuzzy mention lookup family
(index/MentEntsFreqIndexWrapper.scala) to corpus-scale ranked search.
"""

from __future__ import annotations

import pyarrow as pa

SEARCH_W_SCALE = 100_000
SEARCH_TOP_K = 10

# query_id → 2-token phrases (terms may be shared between queries)
SEARCH_QUERIES: dict[str, list[str]] = {
    "scan_ops": ["table scan", "row scan"],
    "join_ops": ["hash join", "sort merge"],
    "stream_ops": ["stream batch", "window agg"],
}
_TERMS = sorted({t for ts in SEARCH_QUERIES.values() for t in ts})


def _docs(sf_dir: str):
    from .relational import _t
    return _t(sf_dir, "documents", ["doc_id", "text"])


def _doc_term_tf(t: pa.Table):
    """polars frame (doc_id, term, tf) pruned to the query-term set."""
    import polars as pl

    df = pl.DataFrame({
        "doc_id": pl.from_arrow(t["doc_id"].combine_chunks()).cast(pl.Int64),
        "tok": pl.from_arrow(t["text"].combine_chunks())
                 .str.to_lowercase().str.extract_all("[a-z0-9]+"),
    }).explode("tok", empty_as_null=True).drop_nulls("tok")
    return (df.with_columns(
                pl.concat_str([pl.col("tok"),
                               pl.col("tok").shift(-1).over("doc_id")],
                              separator=" ").alias("term"))
            .filter(pl.col("term").is_in(_TERMS))
            .group_by("doc_id", "term").agg(pl.len().cast(pl.Int64).alias("tf")))


def _term_dfs(sf_dir: str) -> dict[str, int]:
    """Exact per-term document frequency: per-batch partials (exact,
    docs are row-local) summed on the driver — O(|terms|) state.

    Two reserved pseudo-terms ride the same partial rows so BM25 gets
    its corpus-level stats (N, Σdl) from the SAME single pass:
    ``\\x00n`` (doc count) and ``\\x00dl`` (total unigram tokens)."""
    def part(t: pa.Table) -> pa.Table:
        import polars as pl

        g = _doc_term_tf(t).group_by("term").agg(
            pl.len().cast(pl.Int64).alias("df"))
        toks = (pl.from_arrow(t["text"].combine_chunks())
                .str.to_lowercase().str.count_matches("[a-z0-9]+")
                .cast(pl.Int64))
        terms = g["term"].to_list() + ["\x00n", "\x00dl"]
        dfv = g["df"].to_list() + [t.num_rows, int(toks.sum() or 0)]
        return pa.table({"term": pa.array(terms, type=pa.string()),
                         "df": pa.array(dfv, type=pa.int64())})

    dfs: dict[str, int] = {}
    for b in (_docs(sf_dir)
              .map_batches(part, batch_format="pyarrow", batch_size=1024)
              .iter_batches(batch_format="pyarrow")):
        for term, n in zip(b["term"].to_pylist(), b["df"].to_pylist()):
            dfs[term] = dfs.get(term, 0) + n
    return dfs


def q55_keyword_search(sf_dir: str):
    from ..functions.grouping import topk_per_group

    dfs = _term_dfs(sf_dir)
    w = {t: SEARCH_W_SCALE // dfs[t] for t in dfs}          # ⌊W/df⌋, exact
    term_rows = [(q, t) for q, ts in SEARCH_QUERIES.items() for t in ts]

    def score(t: pa.Table) -> pa.Table:
        import polars as pl

        tf = _doc_term_tf(t)
        qmap = pl.DataFrame({
            "query_id": [q for q, _ in term_rows],
            "term": [t_ for _, t_ in term_rows],
            "w": pl.Series([w.get(t_, 0) for _, t_ in term_rows],
                           dtype=pl.Int64),
        })
        out = (tf.join(qmap, on="term")
               .with_columns((pl.col("tf") * pl.col("w")).alias("part"))
               .group_by("query_id", "doc_id")
               .agg(pl.col("part").sum().alias("score"))
               .sort(["query_id", "doc_id"]))
        return pa.table({
            "query_id": out["query_id"].to_arrow().cast(pa.string()),
            "doc_id": out["doc_id"].to_arrow(),
            "score": out["score"].to_arrow(),
        })

    scored = _docs(sf_dir).map_batches(score, batch_format="pyarrow",
                                       batch_size=1024)
    return topk_per_group(scored, "query_id", "score", SEARCH_TOP_K,
                          tie_cols=["doc_id"], num_buckets=8)


_SQL_QUERY_VALUES = ", ".join(
    f"('{q}', '{t}')" for q, ts in sorted(SEARCH_QUERIES.items())
    for t in ts)

SQL_Q55 = f"""
WITH q(query_id, term) AS (VALUES {_SQL_QUERY_VALUES}),
toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS t
  FROM documents
),
bg AS (
  SELECT doc_id,
         unnest(list_transform(
             generate_series(1, greatest(len(t) - 1, 0)),
             i -> t[i] || ' ' || t[i + 1])) AS term
  FROM toks
),
tf AS (
  SELECT doc_id, term, count(*) AS tf
  FROM bg
  WHERE term IN (SELECT term FROM q)
  GROUP BY doc_id, term
),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
scored AS (
  SELECT q.query_id, tf.doc_id,
         SUM(tf.tf * ({SEARCH_W_SCALE} // df.df)) AS score
  FROM q JOIN tf USING (term) JOIN df USING (term)
  GROUP BY q.query_id, tf.doc_id
),
r AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY score DESC, doc_id) AS rn
  FROM scored
)
SELECT query_id, doc_id, CAST(score AS BIGINT) AS score
FROM r WHERE rn <= {SEARCH_TOP_K}
"""


# --- q121: BM25 ranked retrieval ---------------------------------------------

BM25_K1 = 1.2
BM25_B = 0.75
BM25_K1P1 = 2.2          # k1 + 1 as ONE literal, identical in both engines
BM25_1MB = 0.25          # 1 - b, same device
BM25_TOP_K = 10


def q121_bm25_search(sf_dir: str):
    """BM25 ranked retrieval — q55's exact-integer tf·⌊W/df⌋ upgraded to
    the Okapi BM25 weighting every production search stack defaults to
    (Robertson & Zaragoza 2009): idf·tf·(k1+1)/(tf + k1·(1−b+b·dl/avgdl)).

    Same 100 TB shape as q55: pass 1 is the SAME single df scan (corpus
    N and Σdl ride the same partial rows as two reserved pseudo-terms,
    so BM25 costs no extra pass), pass 2 scores per batch against the
    O(|terms|) broadcast stats and only O(k×|queries|) rows cross the
    top-k exchange.

    Cross-engine float discipline (the q63/q101 device): the per-term
    scalar tree — ln((N−df+0.5)/(df+0.5)+1.0) times the tf
    normalization — is mirrored token-for-token in the twin (k1+1 and
    1−b pre-folded to single literals on BOTH sides), the per-(query,
    doc) sum has ≤2 terms (IEEE addition of two terms is symmetric, so
    no ordering ambiguity), and the final score is floor-e6 quantized
    BEFORE ranking so both engines rank identical integers."""
    import numpy as np

    from ..functions.grouping import topk_per_group

    dfs = _term_dfs(sf_dir)
    n_docs = dfs.pop("\x00n")
    avgdl = float(dfs.pop("\x00dl")) / n_docs
    idf = {t: float(np.log((n_docs - d + 0.5) / (d + 0.5) + 1.0))
           for t, d in dfs.items()}
    term_rows = [(q, t) for q, ts in SEARCH_QUERIES.items() for t in ts]

    def score(t: pa.Table) -> pa.Table:
        import polars as pl

        tf = _doc_term_tf(t)
        dl = pl.DataFrame({
            "doc_id": pl.from_arrow(t["doc_id"].combine_chunks())
                        .cast(pl.Int64),
            "dl": pl.from_arrow(t["text"].combine_chunks())
                    .str.to_lowercase().str.count_matches("[a-z0-9]+")
                    .cast(pl.Int64),
        })
        qmap = pl.DataFrame({
            "query_id": [q for q, _ in term_rows],
            "term": [t_ for _, t_ in term_rows],
            "idf": pl.Series([idf.get(t_, 0.0) for _, t_ in term_rows],
                             dtype=pl.Float64),
        })
        out = (tf.join(qmap, on="term").join(dl, on="doc_id")
               .with_columns(
                   (pl.col("idf")
                    * (pl.col("tf") * BM25_K1P1
                       / (pl.col("tf")
                          + BM25_K1 * (BM25_1MB
                                       + BM25_B * (pl.col("dl") / avgdl)))))
                   .alias("part"))
               .group_by("query_id", "doc_id")
               .agg(pl.col("part").sum().alias("s"))
               .with_columns((pl.col("s") * 1e6).floor().cast(pl.Int64)
                             .alias("score_e6")))
        return pa.table({
            "query_id": out["query_id"].to_arrow().cast(pa.string()),
            "doc_id": out["doc_id"].to_arrow(),
            "score_e6": out["score_e6"].to_arrow(),
        })

    scored = _docs(sf_dir).map_batches(score, batch_format="pyarrow",
                                       batch_size=1024)
    return topk_per_group(scored, "query_id", "score_e6", BM25_TOP_K,
                          tie_cols=["doc_id"], num_buckets=8)


SQL_Q121 = f"""
WITH q(query_id, term) AS (VALUES {_SQL_QUERY_VALUES}),
toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS t
  FROM documents
),
stats AS (
  SELECT count(*) AS n, CAST(SUM(len(t)) AS DOUBLE) / count(*) AS avgdl
  FROM toks
),
bg AS (
  SELECT doc_id, len(t) AS dl,
         unnest(list_transform(
             generate_series(1, greatest(len(t) - 1, 0)),
             i -> t[i] || ' ' || t[i + 1])) AS term
  FROM toks
),
tf AS (
  SELECT doc_id, term, any_value(dl) AS dl, count(*) AS tf
  FROM bg
  WHERE term IN (SELECT term FROM q)
  GROUP BY doc_id, term
),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
scored AS (
  SELECT q.query_id, tf.doc_id,
         CAST(FLOOR(SUM(
             ln((stats.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
             * (tf.tf * {BM25_K1P1}
                / (tf.tf + {BM25_K1} * ({BM25_1MB}
                                        + {BM25_B} * (tf.dl / stats.avgdl))))
         ) * 1e6) AS BIGINT) AS score_e6
  FROM q JOIN tf USING (term) JOIN df USING (term), stats
  GROUP BY q.query_id, tf.doc_id
),
r AS (
  SELECT query_id, doc_id, score_e6,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY score_e6 DESC, doc_id) AS rn
  FROM scored
)
SELECT query_id, doc_id, score_e6
FROM r WHERE rn <= {BM25_TOP_K}
"""


# --- q123: gazetteer (dictionary) tagging ------------------------------------

# label → surface forms (mixed unigram/bigram), the distant-supervision
# dictionary; code/config-sized, broadcast in the task closure
GAZETTEER: dict[str, list[str]] = {
    "operation": ["scan", "join", "sort", "merge", "filter",
                  "hash join", "table scan"],
    "performance": ["fast", "slow", "big", "small"],
    "object": ["table", "row", "column", "query", "window", "stream"],
}
_GAZ_ROWS = sorted((lab, t) for lab, ts in GAZETTEER.items() for t in ts)
_GAZ_TERMS = sorted({t for _, t in _GAZ_ROWS})


def q123_gazetteer_tag(sf_dir: str):
    """Gazetteer / dictionary tagging — the distant-supervision labeling
    op (tag every document with the entity categories whose surface
    forms appear in it; the scale-out analogue of the reference's
    mention→candidates dictionary probe,
    index/MentEntsFreqIndexWrapper.scala:19-64, pointed at a typed
    gazetteer instead of a candidate index).  Per doc and label: total
    term occurrences and distinct matched terms.

    Shape: the dictionary is code/config-sized and rides the task
    closure (a big gazetteer would be `ray.put` once — same pattern as
    the scorer's broadcast stats); matching is one vectorized polars
    pass per batch over uni+bigrams; a doc lives wholly in its rows so
    every (doc, label) aggregate is batch-local — ZERO shuffles, output
    O(docs × labels)."""
    import polars as pl

    def tag(t: pa.Table) -> pa.Table:
        toks = pl.DataFrame({
            "doc_id": pl.from_arrow(t["doc_id"].combine_chunks())
                        .cast(pl.Int64),
            "tok": pl.from_arrow(t["text"].combine_chunks())
                     .str.to_lowercase().str.extract_all("[a-z0-9]+"),
        }).explode("tok", empty_as_null=True).drop_nulls("tok")
        uni = toks.select("doc_id", pl.col("tok").alias("term"))
        bg = toks.select(
            "doc_id",
            pl.concat_str([pl.col("tok"),
                           pl.col("tok").shift(-1).over("doc_id")],
                          separator=" ").alias("term")).drop_nulls("term")
        gmap = pl.DataFrame({"label": [l for l, _ in _GAZ_ROWS],
                             "term": [t_ for _, t_ in _GAZ_ROWS]})
        out = (pl.concat([uni, bg])
               .filter(pl.col("term").is_in(_GAZ_TERMS))
               .join(gmap, on="term")
               .group_by("doc_id", "label")
               .agg(pl.len().cast(pl.Int64).alias("n_mentions"),
                    pl.col("term").n_unique().cast(pl.Int64)
                      .alias("n_terms")))
        return pa.table({
            "doc_id": out["doc_id"].to_arrow(),
            "label": out["label"].to_arrow().cast(pa.string()),
            "n_mentions": out["n_mentions"].to_arrow(),
            "n_terms": out["n_terms"].to_arrow(),
        })

    return _docs(sf_dir).map_batches(tag, batch_format="pyarrow",
                                     batch_size=1024)


_SQL_GAZ_VALUES = ", ".join(f"('{lab}', '{t}')" for lab, t in _GAZ_ROWS)

SQL_Q123 = f"""
WITH g(label, term) AS (VALUES {_SQL_GAZ_VALUES}),
toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS t
  FROM documents
),
uni AS (SELECT doc_id, unnest(t) AS term FROM toks),
bg AS (
  SELECT doc_id,
         unnest(list_transform(
             generate_series(1, greatest(len(t) - 1, 0)),
             i -> t[i] || ' ' || t[i + 1])) AS term
  FROM toks
),
m AS (SELECT * FROM uni UNION ALL SELECT * FROM bg)
SELECT m.doc_id, g.label,
       CAST(count(*) AS BIGINT) AS n_mentions,
       CAST(count(DISTINCT m.term) AS BIGINT) AS n_terms
FROM m JOIN g USING (term)
GROUP BY m.doc_id, g.label
"""


# --- q134: reciprocal-rank fusion of two rankers ------------------------------

RRF_K = 60             # the canonical RRF constant (Cormack et al. 2009)
RRF_TOP_K = 10


def q134_rrf_fusion(sf_dir: str):
    """Reciprocal-rank fusion (Cormack/Clarke/Buettcher 2009) of the two
    retrieval rankers — q55's integer tf·⌊W/df⌋ scorer and q121's BM25 —
    into one ranking per query: each list contributes
    ⌊10⁶/(RRF_K + rank)⌋ per (query, doc), summed, re-ranked.  Rank
    fusion is how production retrieval stacks combine lexical + learned
    scorers without calibrating their incomparable score scales; the
    integer-truncated contribution keeps both engines on identical
    arithmetic (the q96 exact-ordering device).

    Shape: ALL corpus work happens inside the two rankers' pipelines
    (each ends in a ``topk_per_group`` whose combiner caps the exchange
    at k rows per query per batch); fusion itself folds
    O(k × |queries|) rows on the driver — the same O(bins) epilogue
    contract as q127.  Ranks are re-derived from (score DESC, doc_id)
    inside the fold, so fusion is deterministic under any block order."""
    lists = []
    for ds, col in ((q55_keyword_search(sf_dir), "score"),
                    (q121_bm25_search(sf_dir), "score_e6")):
        rows = (ds.take_all() if hasattr(ds, "take_all")
                else ds.to_pylist())
        by_q: dict[str, list] = {}
        for r in rows:
            by_q.setdefault(r["query_id"], []).append(r)
        lists.append((by_q, col))

    acc: dict[tuple[str, int], int] = {}
    for by_q, col in lists:
        for q, rs in by_q.items():
            rs.sort(key=lambda r: (-r[col], r["doc_id"]))
            for rank, r in enumerate(rs, start=1):
                key = (q, r["doc_id"])
                acc[key] = acc.get(key, 0) + 1_000_000 // (RRF_K + rank)

    out = {"query_id": [], "doc_id": [], "rrf_e6": []}
    by_query: dict[str, list] = {}
    for (q, d), s in acc.items():
        by_query.setdefault(q, []).append((s, d))
    for q in sorted(by_query):
        for s, d in sorted(by_query[q], key=lambda x: (-x[0], x[1]))[
                :RRF_TOP_K]:
            out["query_id"].append(q)
            out["doc_id"].append(d)
            out["rrf_e6"].append(s)
    return pa.table({"query_id": pa.array(out["query_id"],
                                          type=pa.string()),
                     "doc_id": pa.array(out["doc_id"], type=pa.int64()),
                     "rrf_e6": pa.array(out["rrf_e6"], type=pa.int64())})


SQL_Q134 = f"""
WITH s55 AS ({SQL_Q55}),
s121 AS ({SQL_Q121}),
r1 AS (SELECT query_id, doc_id,
              row_number() OVER (PARTITION BY query_id
                                 ORDER BY score DESC, doc_id) AS rn
       FROM s55),
r2 AS (SELECT query_id, doc_id,
              row_number() OVER (PARTITION BY query_id
                                 ORDER BY score_e6 DESC, doc_id) AS rn
       FROM s121),
u AS (SELECT query_id, doc_id, 1000000 // ({RRF_K} + rn) AS c FROM r1
      UNION ALL
      SELECT query_id, doc_id, 1000000 // ({RRF_K} + rn) AS c FROM r2),
f AS (SELECT query_id, doc_id, SUM(c) AS rrf_e6 FROM u GROUP BY 1, 2),
rr AS (SELECT query_id, doc_id, rrf_e6,
              row_number() OVER (PARTITION BY query_id
                                 ORDER BY rrf_e6 DESC, doc_id) AS rn
       FROM f)
SELECT query_id, doc_id, CAST(rrf_e6 AS BIGINT) AS rrf_e6
FROM rr WHERE rn <= {RRF_TOP_K}
"""


QUERIES = {
    "q55_keyword_search": (q55_keyword_search, SQL_Q55),
    "q121_bm25_search": (q121_bm25_search, SQL_Q121),
    "q134_rrf_fusion": (q134_rrf_fusion, SQL_Q134),
    "q123_gazetteer_tag": (q123_gazetteer_tag, SQL_Q123),
}
