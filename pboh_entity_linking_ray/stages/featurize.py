"""Featurize: conv_docs → per-conversation blocking/scoring features.

Fully vectorized: tokens are exploded once per batch into a flat polars
frame, stop-worded with ``is_in``, Porter-stemmed once per DISTINCT token
(process-level cache — the reference's singleton-per-JVM pattern,
RunLoopyAgainstAllGoogleClweb.scala:31-42), hashed as whole columns, and
re-assembled into Arrow list columns straight from values+offsets.  A
per-document Python loop here measured ~600 core-seconds at 250k
conversations; this path is ~10×.

Emitted per conversation:
- ``jw_text``      canonical lowercased text, capped for Jaro-Winkler
- ``tokens``       bottom-k min-wise sample of distinct content-token
                   hashes (sorted uint32) — caps pair-row width, the analog
                   of the reference's top-10 candidate pruning
                   (index/MentEntsFreqIndexWrapper.scala:53-55); bottom-k
                   keeps the token-Jaccard estimator unbiased
- ``tokens_full``  the uncapped distinct token hashes (consumed ONLY by
                   the vocab build — never shuffled by blocking)
- ``n_tokens``     distinct content tokens before capping
- ``minhash``      num_perm uint64 MinHash signature over k-token shingles
- ``sig``          tool/role signature string (from canonicalize)
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..config import PipelineConfig
from ..functions.minhash import MinHasher
from ..functions.stemmer import porter_stem
from ..functions.text import STOPWORDS

TOKEN_HASH_SEED = 7
SHINGLE_HASH_SEED = 11
TOKEN_MASK = np.uint64(0xFFFFFFFF)  # token ids live in a 32-bit domain:
                                    # halves the pair-row payload; the stats
                                    # tables use the same masked domain

_MH_CACHE: dict = {}
_STEM_CACHE: dict[str, str] = {}
_STOP_LIST = sorted(STOPWORDS)


def _mh_for(cfg: PipelineConfig) -> MinHasher:
    key = (cfg.num_perm, cfg.seed)
    mh = _MH_CACHE.get(key)
    if mh is None:
        mh = MinHasher(cfg.num_perm, seed=cfg.seed)
        _MH_CACHE[key] = mh
    return mh


def _stem_series(uniq) -> list[str]:
    """Vectorized fast path: digit-bearing tokens (ids/hex blobs) are
    returned unchanged without entering Python at all; only the alpha
    vocabulary — small and cacheable — runs the Porter cascade."""
    import numpy as np

    alpha = (~uniq.str.contains("[0-9]")).to_numpy()
    toks = uniq.to_list()
    out = list(toks)
    cache = _STEM_CACHE
    for i in np.flatnonzero(alpha):
        t = toks[i]
        s = cache.get(t)
        if s is None:
            s = porter_stem(t)
            cache[t] = s
        out[i] = s
    return out


def _lists_from_sorted(rid: np.ndarray, vals: np.ndarray, n_rows: int,
                       value_type) -> pa.ListArray:
    """(row_id-sorted flat values) → Arrow list column via offsets."""
    counts = np.bincount(rid, minlength=n_rows)
    offsets = np.zeros(n_rows + 1, dtype=np.int32)
    np.cumsum(counts, out=offsets[1:])
    return pa.ListArray.from_arrays(pa.array(offsets),
                                    pa.array(vals, type=value_type))


_STEMDF_CACHE: dict = {}


def _stem_frame_for(stem_ref):
    """Once-per-process broadcast stem dictionary → polars frame."""
    import ray

    key = stem_ref.hex() if hasattr(stem_ref, "hex") else id(stem_ref)
    df = _STEMDF_CACHE.get(key)
    if df is None:
        import polars as pl

        tbl = ray.get(stem_ref) if hasattr(stem_ref, "hex") else stem_ref
        df = pl.from_arrow(tbl)
        _STEMDF_CACHE.clear()
        _STEMDF_CACHE[key] = df
    return df


class Featurizer:
    def __init__(self, cfg: PipelineConfig | None = None, stem_ref=None):
        self.cfg = cfg or PipelineConfig()
        self.mh = _mh_for(self.cfg)
        self.stem_ref = stem_ref

    def _stems(self, df, pl):
        """Attach the 'stem' column: via the broadcast stem dictionary
        (each distinct corpus token stemmed exactly ONCE cluster-wide —
        per-process caches re-stem the vocabulary in every worker, which
        anti-scales with worker count), falling back to the process cache
        for tokens outside the dictionary."""
        if self.stem_ref is None:
            uniq = df["tok"].unique(maintain_order=False)
            stem_map = pl.DataFrame({"tok": uniq,
                                     "stem": _stem_series(uniq)})
            return df.join(stem_map, on="tok", how="left",
                           maintain_order="left")
        df = df.join(_stem_frame_for(self.stem_ref), on="tok", how="left",
                     maintain_order="left")
        if df["stem"].null_count():
            miss = df.filter(pl.col("stem").is_null())["tok"].unique()
            fix = pl.DataFrame({"tok": miss, "stem": _stem_series(miss)})
            df = (df.join(fix.rename({"stem": "stem2"}), on="tok",
                          how="left", maintain_order="left")
                  .with_columns(pl.coalesce(["stem", "stem2"]).alias("stem"))
                  .drop("stem2"))
        return df

    def __call__(self, batch: pa.Table) -> pa.Table:
        import polars as pl

        cfg = self.cfg
        n = batch.num_rows
        docs = batch["mention_doc"]
        norm = pl.from_arrow(docs.combine_chunks()
                             if isinstance(docs, pa.ChunkedArray) else docs)
        norm = norm.str.to_lowercase().str.strip_chars()
        token_lists = norm.str.extract_all("[a-z0-9]+")

        # flat (rid, token) frame: stopword filter + per-distinct stemming
        df = (
            pl.DataFrame({"rid": pl.int_range(0, n, eager=True),
                          "tok": token_lists})
            .explode("tok", empty_as_null=True)
            .drop_nulls()
            .filter(~pl.col("tok").is_in(_STOP_LIST))
        )
        df = self._stems(df, pl)

        # token hashes (32-bit domain), distinct + sorted per row
        df = df.with_columns(
            (pl.col("stem").hash(seed=TOKEN_HASH_SEED) %
             (int(TOKEN_MASK) + 1)).alias("th")
        )
        tok = (
            df.select(["rid", "th"]).unique()
            .sort(["rid", "th"])
        )
        rid_t = tok["rid"].to_numpy().astype(np.int64)
        th = tok["th"].to_numpy().astype(np.uint32)
        # rank-within-row for the bottom-k cap
        newrow = np.r_[True, rid_t[1:] != rid_t[:-1]]
        first = np.maximum.accumulate(np.where(newrow, np.arange(len(rid_t)), 0))
        rank = np.arange(len(rid_t)) - first
        keep = rank < cfg.max_tokens_per_conv
        tokens_col = _lists_from_sorted(rid_t[keep], th[keep], n, pa.uint32())
        tokens_full_col = _lists_from_sorted(rid_t, th, n, pa.uint32())
        n_tokens = np.bincount(rid_t, minlength=n).astype(np.int32)

        # shingles over the stemmed token stream (order preserved by
        # explode): k-wide via shifted concat; rows with 0<cnt<k fall back
        # to one whole-row shingle (parity with functions.text.shingles)
        k = cfg.shingle_k
        sh = df.with_columns(
            pl.concat_str(
                [pl.col("stem").shift(-i).over("rid") for i in range(k)],
                separator=" ",
            ).alias("sh")
        ).drop_nulls("sh")
        sh = sh.with_columns(
            pl.col("sh").hash(seed=SHINGLE_HASH_SEED).alias("shh"))
        cnt_all = np.bincount(df["rid"].to_numpy().astype(np.int64),
                              minlength=n)
        short_rows = np.flatnonzero((cnt_all > 0) & (cnt_all < k))
        sh_rid = sh["rid"].to_numpy().astype(np.int64)
        sh_h = sh["shh"].to_numpy().astype(np.uint64)
        if len(short_rows):
            joined = (
                df.filter(pl.col("rid").is_in(short_rows.tolist()))
                .group_by("rid", maintain_order=True)
                .agg(pl.col("stem").str.join(" ").alias("sh"))
                .with_columns(pl.col("sh").hash(seed=SHINGLE_HASH_SEED)
                              .alias("shh"))
            )
            sh_rid = np.concatenate([sh_rid, joined["rid"].to_numpy().astype(np.int64)])
            sh_h = np.concatenate([sh_h, joined["shh"].to_numpy().astype(np.uint64)])
            o = np.argsort(sh_rid, kind="stable")
            sh_rid, sh_h = sh_rid[o], sh_h[o]

        # unique shingle hashes per row, then minhash over flat+lengths
        # (lexsort + neighbor mask: ~4× cheaper than np.unique(axis=0)'s
        # void-view sort at 400k shingles)
        o = np.lexsort((sh_h, sh_rid))
        sh_rid_s, sh_h_s = sh_rid[o], sh_h[o]
        keep_u = np.r_[True, (sh_rid_s[1:] != sh_rid_s[:-1])
                       | (sh_h_s[1:] != sh_h_s[:-1])]
        sh_rid_u = sh_rid_s[keep_u]
        sh_h_u = sh_h_s[keep_u]
        lengths = np.bincount(sh_rid_u, minlength=n).astype(np.int64)
        sigs = self.mh.signatures_flat(sh_h_u, lengths)

        jw_texts = norm.str.slice(0, cfg.jw_text_cap)

        # ordered stem-hash stream (repeats kept, capped) — consumed ONLY
        # by the window-context statistics build (stages/stats.py
        # build_token_stats/build_pair_stats), never shuffled by blocking
        rid_s = df["rid"].to_numpy().astype(np.int64)
        th_s = df["th"].to_numpy().astype(np.uint32)   # already masked
        pos = np.arange(len(rid_s)) - np.maximum.accumulate(
            np.where(np.r_[True, rid_s[1:] != rid_s[:-1]],
                     np.arange(len(rid_s)), 0))
        keep_s = pos < cfg.ctx_stream_cap
        stream_col = _lists_from_sorted(rid_s[keep_s], th_s[keep_s], n,
                                        pa.uint32())

        return pa.table(
            {
                "conv_id": batch["conv_id"],
                "n_turns": batch["n_turns"],
                "sig": batch["sig"],
                "jw_text": jw_texts.to_arrow(),
                "n_tokens": pa.array(n_tokens, type=pa.int32()),
                "tokens": tokens_col,
                "tokens_full": tokens_full_col,
                "stream": stream_col,
                "minhash": pa.array(list(sigs), type=pa.list_(pa.uint64())),
            }
        )


STEM_SCHEMA = pa.schema([("tok", pa.string()), ("stem", pa.string())])


def build_stem_map(conv_docs, cfg: PipelineConfig | None = None, *,
                   num_buckets: int):
    """Distinct corpus tokens → Porter stems, each stemmed exactly once
    cluster-wide (the WordFreqDict-style dictionary build,
    reference: index/WordFreqDict.scala:8-47): distinct per batch →
    bucketed global distinct → parallel stem map."""
    from ..functions.grouping import hash_exchange

    def partial(t: pa.Table) -> pa.Table:
        import polars as pl

        toks = (pl.from_arrow(t["mention_doc"].combine_chunks())
                .str.to_lowercase().str.extract_all("[a-z0-9]+")
                .explode(empty_as_null=True).drop_nulls().unique())
        return pa.table({"tok": toks.to_arrow()})

    def uniq_and_stem(bucket: pa.Table) -> pa.Table:
        import polars as pl

        toks = pl.from_arrow(bucket)["tok"].unique(maintain_order=False)
        return pa.table({"tok": toks.to_arrow().cast(pa.string()),
                         "stem": pa.array(_stem_series(toks),
                                          type=pa.string())},
                        schema=STEM_SCHEMA)

    ds = conv_docs.map_batches(partial, batch_format="pyarrow",
                               batch_size=1024)
    return hash_exchange(ds, "tok", uniq_and_stem, num_buckets)


def featurize(conv_docs, cfg: PipelineConfig | None = None, stem_ref=None):
    cfg = cfg or PipelineConfig()

    def featurize_batch(batch: pa.Table) -> pa.Table:
        return Featurizer(cfg, stem_ref)(batch)

    return conv_docs.map_batches(
        featurize_batch, batch_format="pyarrow", batch_size=1024,
    )
