"""Statistics build: the engine's analog of the reference's index files.

The reference loads pre-built TSV indexes into in-JVM Trove maps at startup
(reference: src/main/scala/index/MentionEntitiesFrequencyIndex.scala:34-77,
EntityCooccurrenceIndex.scala:108-170, WordFreqDict.scala:21-46).  Here the
same statistics are *built by the pipeline itself* from the transcript
corpus as groupby-aggregate shuffles with per-batch pre-aggregation
(partial combine inside ``map_batches`` before the small final groupby),
checkpointed as Parquet, and broadcast to scorer actors via ``ray.put``.

Tables produced (FIXTURES.md §4):
- ``vocab``         token_hash → document frequency (df) + the scalar
                    number of conversations N  (analog of WordFreqDict)
- ``mention_prior`` mention (raw token) → entity (stem hash) freq/total
                    (analog of the mention→candidates index)
- ``cooc``          packed uint64 (t1,t2) → co-conversation count
                    (analog of EntityCooccurrenceIndex; built by
                    groupby-aggregate instead of driver-side load)
popularity(e) is df(e) from ``vocab`` (analog of entity popularity,
EntityCooccurrenceIndex.scala:158-181).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from ..config import PipelineConfig
from ..functions.hashing import pack_pairs_np
from .featurize import TOKEN_HASH_SEED

# declared output schemas of the flagship stats builds (driver collects
# cast to them instead of fetching a schema)
TOKEN_STATS_SCHEMA = pa.schema([("token_hash", pa.int64()),
                                ("df", pa.int64()), ("occ", pa.int64())])
PAIR_STATS_SCHEMA = pa.schema([("pair", pa.int64()),
                               ("count_conv", pa.int64()),
                               ("count_win", pa.int64())])
PRIOR_SCHEMA = pa.schema([("entity", pa.int64()), ("conc_e4", pa.int64())])

COOC_TOKEN_CAP = 16  # bottom-k sample of tokens entering the per-conv
                     # co-occurrence cross product (bounds the pair shuffle
                     # to C(16,2)=120 rows/conv; the reference instead caps
                     # candidates at top-10, MentEntsFreqIndexWrapper.scala:53-55)


def _token_stats_partial(batch: pa.Table) -> pa.Table:
    """features batch → partial (token_hash, df) counts from the UNCAPPED
    per-conv distinct token lists the featurizer already computed — no
    re-tokenization, no re-stemming, fully vectorized."""
    tf = batch["tokens_full"]
    if isinstance(tf, pa.ChunkedArray):
        tf = tf.combine_chunks()
    flat = np.asarray(tf.flatten()).astype(np.uint32, copy=False)
    if len(flat) == 0:
        return pa.table({"token_hash": pa.array([], type=pa.int64()),
                         "df_partial": pa.array([], type=pa.int64())})
    uniq, counts = np.unique(flat, return_counts=True)
    # 32-bit token domain fits int64 directly (see featurize.TOKEN_MASK)
    return pa.table({
        "token_hash": pa.array(uniq.astype(np.int64), type=pa.int64()),
        "df_partial": pa.array(counts.astype(np.int64), type=pa.int64()),
    })


def build_vocab(features: ray.data.Dataset) -> ray.data.Dataset:
    """token_hash → df (distinct-conversation frequency), from the
    featurize output's ``tokens_full`` column."""
    from ..functions.grouping import bucketed_sum

    partial = features.map_batches(
        _token_stats_partial, batch_format="pyarrow", batch_size=512,
    )
    return bucketed_sum(partial, ["token_hash"], "df_partial", "df")


def _cooc_pair_keys(batch: pa.Table, cap: int = COOC_TOKEN_CAP) -> np.ndarray:
    """Vectorized packed pair keys of the bottom-``cap`` token sample of
    every row — triu batched by row length, no Python loop per row."""
    toks = batch["tokens"]
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    offsets = np.asarray(toks.offsets).astype(np.int64)
    offsets = offsets - offsets[0]
    flat = np.asarray(toks.flatten()).astype(np.uint64, copy=False)
    lens = np.minimum(np.diff(offsets), cap)
    starts = offsets[:-1]
    keys: list[np.ndarray] = []
    for m in np.unique(lens):
        if m < 2:
            continue
        a, b = np.triu_indices(int(m), k=1)
        base = starts[lens == m]
        ai = (base[:, None] + a[None, :]).ravel()
        bi = (base[:, None] + b[None, :]).ravel()
        keys.append(pack_pairs_np(flat[ai], flat[bi]))
    return (np.concatenate(keys) if keys else np.empty(0, dtype=np.uint64))


def _cooc_partial(batch: pa.Table, cap: int = COOC_TOKEN_CAP) -> pa.Table:
    """features batch → partial (pair_key, count) co-occurrence rows using
    the bottom-k token sample already on the feature rows (plain function
    → elastic task pool, see _token_stats_partial)."""
    flat = _cooc_pair_keys(batch, cap)
    if len(flat) == 0:
        return pa.table({"pair": pa.array([], type=pa.int64()),
                         "count_partial": pa.array([], type=pa.int64())})
    uniq, counts = np.unique(flat, return_counts=True)
    return pa.table({
        "pair": pa.array(uniq.view(np.int64), type=pa.int64()),
        "count_partial": pa.array(counts.astype(np.int64), type=pa.int64()),
    })


def build_cooc(features: ray.data.Dataset, cfg: PipelineConfig | None = None):
    """packed (t1,t2) → number of conversations containing both tokens."""

    from ..functions.grouping import bucketed_sum

    partial = features.map_batches(
        _cooc_partial, batch_format="pyarrow", batch_size=512,
    )
    return bucketed_sum(partial, ["pair"], "count_partial", "count")


def _wfreq_partial(batch: pa.Table) -> pa.Table:
    """features batch → partial (token_hash, occurrence count) over the
    ORDERED stream (repeats counted — the corpus word-frequency analog of
    WordFreqPerCorpus.scala:34-40, denominators of p̂(w))."""
    st = batch["stream"]
    if isinstance(st, pa.ChunkedArray):
        st = st.combine_chunks()
    flat = np.asarray(st.flatten()).astype(np.uint32, copy=False)
    if len(flat) == 0:
        return pa.table({"token_hash": pa.array([], type=pa.int64()),
                         "occ_partial": pa.array([], type=pa.int64())})
    uniq, counts = np.unique(flat, return_counts=True)
    return pa.table({
        "token_hash": pa.array(uniq.astype(np.int64), type=pa.int64()),
        "occ_partial": pa.array(counts.astype(np.int64), type=pa.int64()),
    })


def _wcooc_pair_keys(batch: pa.Table, window: int) -> np.ndarray:
    """Windowed pair keys: every token pairs with the next ``window``
    stream positions of the SAME conv — the ±K context-window co-count of
    the reference's p(w|e) build (EntityWordsProbs.scala:198-213, window
    extraction TextSplittingInWords.scala:62-140), built by flat
    shifted-array comparison instead of a per-mention scan."""
    st = batch["stream"]
    if isinstance(st, pa.ChunkedArray):
        st = st.combine_chunks()
    offsets = np.asarray(st.offsets).astype(np.int64)
    offsets = offsets - offsets[0]
    flat = np.asarray(st.flatten()).astype(np.uint64, copy=False)
    n_flat = len(flat)
    if n_flat == 0:
        return np.empty(0, dtype=np.uint64)
    lens = np.diff(offsets)
    row_of = np.repeat(np.arange(len(lens)), lens)
    keys_parts = []
    for d in range(1, window + 1):
        if d >= n_flat:
            break
        a = flat[:-d]
        b = flat[d:]
        ok = (row_of[:-d] == row_of[d:]) & (a != b)  # self-pairs: no signal
        keys_parts.append(pack_pairs_np(a[ok], b[ok]))
    return (np.concatenate(keys_parts) if keys_parts
            else np.empty(0, dtype=np.uint64))


def _wcooc_partial(batch: pa.Table, window: int) -> pa.Table:
    flatk = _wcooc_pair_keys(batch, window)
    if len(flatk) == 0:
        return pa.table({"pair": pa.array([], type=pa.int64()),
                         "count_partial": pa.array([], type=pa.int64())})
    uniq, counts = np.unique(flatk, return_counts=True)
    return pa.table({
        "pair": pa.array(uniq.view(np.int64), type=pa.int64()),
        "count_partial": pa.array(counts.astype(np.int64), type=pa.int64()),
    })


def build_wcooc(features: ray.data.Dataset,
                cfg: PipelineConfig | None = None) -> ray.data.Dataset:
    """packed (t1,t2) → windowed co-occurrence count (±ctx_window)."""
    from ..functions.grouping import bucketed_sum

    cfg = cfg or PipelineConfig()
    w = cfg.ctx_window

    def partial(t: pa.Table) -> pa.Table:
        return _wcooc_partial(t, w)

    p = features.map_batches(partial, batch_format="pyarrow", batch_size=512)
    return bucketed_sum(p, ["pair"], "count_partial", "count")


# --- fused flagship builds: same keys → ONE pass + ONE shuffle each ---------

def _token_stats_fused_partial(batch: pa.Table) -> pa.Table:
    """(token_hash, df_partial, occ_partial) in one pass: df from the
    distinct per-conv token lists, occ from the ordered stream."""
    import polars as pl

    a = _token_stats_partial(batch)
    b = _wfreq_partial(batch)
    out = (
        pl.concat([
            pl.from_arrow(a).with_columns(pl.lit(0, dtype=pl.Int64)
                                          .alias("occ_partial")),
            pl.from_arrow(b)
              .with_columns(pl.lit(0, dtype=pl.Int64).alias("df_partial"))
              .select(["token_hash", "df_partial", "occ_partial"]),
        ])
        .group_by("token_hash")
        .agg(pl.col("df_partial").sum(), pl.col("occ_partial").sum())
    )
    return out.to_arrow()


def build_token_stats(features: ray.data.Dataset,
                      num_buckets: int) -> ray.data.Dataset:
    """token_hash → (df, occ) — vocab and stream frequency fused into one
    exchange (bucketed_sum_multi)."""
    from ..functions.grouping import bucketed_sum_multi

    partial = features.map_batches(
        _token_stats_fused_partial, batch_format="pyarrow", batch_size=512,
    )
    return bucketed_sum_multi(partial, ["token_hash"],
                              {"df_partial": "df", "occ_partial": "occ"},
                              num_buckets)


def _pair_stats_packed_partial(batch: pa.Table, cap: int,
                               window: int) -> pa.Table:
    """(pair, packed) partial rows: the conv-level count rides the HIGH
    32 bits and the window count the LOW 32 of ONE int64 lane, so the
    exchange moves 16 B/row instead of 24 and the combiner sums a single
    column.  Exact while a pair's GLOBAL counts stay < 2^31 (conv count)
    / < 2^32 (window count): lane sums then never carry.  A stop-pair
    would need > 4.3e9 window co-hits to break this — petabyte-corpus
    territory; such a build should shard the stats by corpus partition
    (each shard's totals re-bounded) before union.  The floor-search
    consumer warns at 2^31 (pipelines/linkage.py)."""
    ck = _cooc_pair_keys(batch, cap)
    wk = _wcooc_pair_keys(batch, window)
    allk = np.concatenate([ck, wk]) if len(ck) or len(wk) else ck
    if len(allk) == 0:
        return pa.table({"pair": pa.array([], type=pa.int64()),
                         "packed": pa.array([], type=pa.int64())})
    uniq = np.unique(allk)
    ci = np.searchsorted(uniq, ck)
    wi = np.searchsorted(uniq, wk)
    cooc_c = np.bincount(ci, minlength=len(uniq)).astype(np.int64)
    wcooc_c = np.bincount(wi, minlength=len(uniq)).astype(np.int64)
    return pa.table({"pair": pa.array(uniq.view(np.int64)),
                     "packed": pa.array((cooc_c << 32) | wcooc_c)})


def build_pair_stats(features: ray.data.Dataset,
                     cfg: PipelineConfig | None = None,
                     emit_min: int = 1,
                     *, num_buckets: int) -> ray.data.Dataset:
    """pair → (count_conv, count_win) — conversation-level and windowed
    co-occurrence fused into one exchange (packed-lane combiner).

    ``emit_min`` > 1 drops keys where BOTH final counts are below it
    INSIDE the aggregating bucket — the flagship passes its broadcast
    floor (cooc_min_count) so global singletons (~half the key space at
    bench scale) never leave the shuffle task."""
    from ..functions.grouping import hash_exchange

    cfg = cfg or PipelineConfig()
    cap, window = COOC_TOKEN_CAP, cfg.ctx_window

    def partial(t: pa.Table) -> pa.Table:
        return _pair_stats_packed_partial(t, cap, window)

    def agg(t: pa.Table) -> pa.Table:
        import polars as pl

        out = (pl.from_arrow(t).group_by("pair")
               .agg(pl.col("packed").sum())
               .with_columns([
                   # packed sums are nonnegative (lane bound in the
                   # partial's docstring) → // and % split the lanes
                   # (this polars lacks Expr bit-shifts)
                   (pl.col("packed") // 0x100000000).alias("count_conv"),
                   (pl.col("packed") % 0x100000000).alias("count_win"),
               ]).drop("packed"))
        if emit_min > 1:
            out = out.filter((pl.col("count_conv") >= emit_min)
                             | (pl.col("count_win") >= emit_min))
        return out.to_arrow()

    # larger batches pre-aggregate harder before the exchange (combiner-
    # before-shuffle); at 4096 convs/batch the in-batch np.unique sees
    # ~1M window pairs and peak per-task scratch stays ~120 MB
    p = features.map_batches(partial, batch_format="pyarrow", batch_size=4096)
    # the partial map emits many well-sized blocks already — the extra
    # pre-groupby repartition exchange would only re-move ~1.5 GB
    return hash_exchange(p, "pair", agg, num_buckets)


def _mention_prior_partial(batch: pa.Table, sample_mod: int = 1) -> pa.Table:
    """conv_docs batch → partial (mention, entity=stem hash) counts.

    Analog of the mention→candidates index build (CandidatesList freq /
    total, reference: index/CandidatesList.scala:95-98): p̂(e|m) =
    freq(m→e) / Σ_e' freq(m→e').  Fully vectorized (polars explode +
    group count); Python touches only the DISTINCT mentions, through the
    featurize stem cache.  ``sample_mod`` > 1 keeps a deterministic
    1/mod hash sample of conversations — concentration statistics need no
    exhaustive scan."""
    import polars as pl

    from ..functions.hashing import hash_strings_u64
    from ..functions.text import STOPWORDS
    from .featurize import TOKEN_MASK, _stem_series

    docs = pl.from_arrow(batch["mention_doc"].combine_chunks())
    if sample_mod > 1:
        h = hash_strings_u64(
            pl.from_arrow(batch["conv_id"].combine_chunks()), seed=29)
        docs = docs.filter(pl.Series(h % np.uint64(sample_mod) == 0))
    df = (
        pl.DataFrame({"mention": docs.str.to_lowercase()
                      .str.extract_all("[a-z0-9]+")})
        .explode("mention", empty_as_null=True).drop_nulls("mention")
        .filter(~pl.col("mention").is_in(sorted(STOPWORDS)))
        .group_by("mention").len(name="freq_partial")
    )
    if len(df) == 0:
        return pa.table({"mention": pa.array([], type=pa.string()),
                         "entity": pa.array([], type=pa.int64()),
                         "freq_partial": pa.array([], type=pa.int64())})
    stems = _stem_series(df["mention"])
    # same 32-bit masked domain as featurize token hashes so prior
    # entities JOIN the vocab/cooc/stream token_hash space
    ent = (
        pl.Series("e", stems).hash(seed=TOKEN_HASH_SEED)
        .to_numpy().astype(np.uint64) % np.uint64(int(TOKEN_MASK) + 1)
    ).astype(np.int64)
    return pa.table({
        "mention": pa.array(df["mention"].to_list(), type=pa.string()),
        "entity": pa.array(ent, type=pa.int64()),
        "freq_partial": pa.array(df["freq_partial"].to_numpy().astype(np.int64),
                                 type=pa.int64()),
    })


def build_mention_prior(conv_docs: ray.data.Dataset, sample_mod: int = 1):
    """mention → (entity, freq, total); total = Σ freq over the mention."""

    from ..functions.grouping import bucketed_sum

    def partial_fn(t: pa.Table) -> pa.Table:
        return _mention_prior_partial(t, sample_mod)

    partial = conv_docs.map_batches(
        partial_fn, batch_format="pyarrow", batch_size=512,
    )
    agg = bucketed_sum(partial, ["mention", "entity"], "freq_partial", "freq")

    def _with_total(bucket: pa.Table) -> pa.Table:
        import polars as pl

        out = pl.from_arrow(bucket).with_columns(
            pl.col("freq").sum().over("mention").alias("total")
        )
        return out.to_arrow()

    from ..functions.grouping import hash_exchange

    return hash_exchange(agg, "mention", _with_total)


def build_entity_prior_from_docs(conv_docs: ray.data.Dataset,
                                 sample_mod: int = 1,
                                 *, num_buckets: int) -> ray.data.Dataset:
    """conv_docs → (entity, conc_e4) in ONE exchange: the mention→entity
    map is functional, so bucketing by entity co-locates each entity's
    whole mention group and the (mention,entity) sum AND the per-entity
    concentration both run inside the bucket (the flagship path;
    build_mention_prior/build_entity_prior remain the standalone
    two-table operators)."""
    from ..functions.grouping import hash_exchange

    def partial_fn(t: pa.Table) -> pa.Table:
        return _mention_prior_partial(t, sample_mod)

    partial = conv_docs.map_batches(partial_fn, batch_format="pyarrow",
                                    batch_size=512)

    def conc(bucket: pa.Table) -> pa.Table:
        import polars as pl

        out = (
            pl.from_arrow(bucket)
            .group_by(["mention", "entity"])
            .agg(pl.col("freq_partial").sum().alias("freq"))
            .group_by("entity")
            .agg((pl.col("freq").max() * 10000 // pl.col("freq").sum())
                 .alias("conc_e4"))
        )
        return out.to_arrow()

    return hash_exchange(partial, "entity", conc, num_buckets)


def build_entity_prior(mention_prior: ray.data.Dataset) -> ray.data.Dataset:
    """mention_prior → per-ENTITY concentration table consumed by the
    scorer: conc(e) = max_m freq(m→e) / Σ_m freq(m→e) ∈ (0, 1].

    In this recast the mention→entity map is functional (stem), so the
    reference's p̂(e|m) = freq/total (CandidatesList.scala:95-98) is
    degenerate per mention; the informative marginal is how CONCENTRATED
    an entity's mention distribution is — an entity reached by one
    dominant surface form is stronger linkage evidence than one smeared
    over many variants.  The scorer blends it into rho
    (prior_kappa + (1-prior_kappa)·conc)."""
    from ..functions.grouping import hash_exchange

    def conc(bucket: pa.Table) -> pa.Table:
        import polars as pl

        out = (
            pl.from_arrow(bucket).group_by("entity")
            .agg((pl.col("freq").max() * 10000 // pl.col("freq").sum())
                 .alias("conc_e4"))
        )
        return out.to_arrow()

    return hash_exchange(
        mention_prior.select_columns(["entity", "freq"]), "entity", conc)
