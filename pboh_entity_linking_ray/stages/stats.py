"""Statistics build: the engine's analog of the reference's index files.

The reference loads pre-built TSV indexes into in-JVM Trove maps at startup
(reference: src/main/scala/index/MentionEntitiesFrequencyIndex.scala:34-77,
EntityCooccurrenceIndex.scala:108-170, WordFreqDict.scala:21-46).  Here the
same statistics are *built by the pipeline itself* from the transcript
corpus: three builds, each ONE pass over its input with per-batch
pre-aggregation and ONE hash exchange, checkpointed as Parquet:

- ``build_token_stats``  token_hash → (df, occ): distinct-conversation
  frequency (analog of WordFreqDict; popularity(e) is df(e), analog of
  EntityCooccurrenceIndex.scala:158-181) and ordered-stream occurrences
  (WordFreqPerCorpus.scala:34-40)
- ``build_pair_stats``   packed (t1,t2) → (count_conv, count_win):
  co-conversation and ±ctx_window co-counts (analog of
  EntityCooccurrenceIndex and the p(w|e) window build)
- ``build_entity_prior_from_docs``  entity (stem hash) → conc_e4: the
  mention-prior concentration (analog of the mention→candidates index)

``broadcast_stats`` prunes them to the scorer's five broadcast tables
(``scoring.BroadcastStats``), which reach scorer workers via ``ray.put``.
"""

from __future__ import annotations

import warnings

import numpy as np
import pyarrow as pa
import ray.data

from ..config import PipelineConfig
from ..functions.hashing import pack_pairs_np
from .clustering import _collect
from .featurize import TOKEN_HASH_SEED
from .scoring import BroadcastStats

# declared output schemas of the stats builds (driver collects cast to
# them instead of fetching a schema)
TOKEN_STATS_SCHEMA = pa.schema([("token_hash", pa.int64()),
                                ("df", pa.int64()), ("occ", pa.int64())])
PAIR_STATS_SCHEMA = pa.schema([("pair", pa.int64()),
                               ("count_conv", pa.int64()),
                               ("count_win", pa.int64())])
PRIOR_SCHEMA = pa.schema([("entity", pa.int64()), ("conc_e4", pa.int64())])

# broadcast-size bounds (reference analog: the min-word-count-20 floor of
# context/WordFreqPerCorpus.scala:38)
COOC_MIN_COUNT = 2      # co-occurrence count floor for the broadcast
                        # tables; sub-floor pairs fall back to the
                        # scorer's missing-pair default (0)
WCOOC_MAX_PAIRS = 2_000_000  # windowed-cooc broadcast budget: the count
                        # floor is raised (deterministically, ties kept)
                        # until the table fits — template corpora repeat
                        # token windows across every duplicate, ballooning
                        # the raw table ~7× the conv-level one (measured
                        # 21M rows at 250k)
PRIOR_SAMPLE_MOD = 10   # the mention prior is built from a 1/mod
                        # deterministic hash sample of convs — a
                        # concentration table needs no exhaustive scan
                        # (the reference samples training data the same
                        # way, Learning.scala:128)

COOC_TOKEN_CAP = 16  # bottom-k sample of tokens entering the per-conv
                     # co-occurrence cross product (bounds the pair shuffle
                     # to C(16,2)=120 rows/conv; the reference instead caps
                     # candidates at top-10, MentEntsFreqIndexWrapper.scala:53-55)


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


def _token_counts(batch: pa.Table, col: str) -> tuple[np.ndarray, np.ndarray]:
    """Distinct token hashes of the list column ``col`` of a features
    batch (int64, sorted) and the number of entries holding each."""
    arr = batch[col]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    flat = np.asarray(arr.flatten()).astype(np.uint32, copy=False)
    uniq, counts = np.unique(flat, return_counts=True)
    # 32-bit token domain fits int64 directly (see featurize.TOKEN_MASK)
    return uniq.astype(np.int64), counts.astype(np.int64)


def _token_stats_partial(batch: pa.Table) -> pa.Table:
    """features batch → partial (token_hash, df_partial, occ_partial)
    in one pass: df from the UNCAPPED per-conv distinct token lists the
    featurizer already computed (``tokens_full``), occ from the ORDERED
    stream (repeats counted — the corpus word-frequency analog of
    WordFreqPerCorpus.scala:34-40, denominators of p̂(w))."""
    dk, dc = _token_counts(batch, "tokens_full")
    ok, oc = _token_counts(batch, "stream")
    keys = np.union1d(dk, ok)
    df = np.zeros(len(keys), dtype=np.int64)
    occ = np.zeros(len(keys), dtype=np.int64)
    df[np.searchsorted(keys, dk)] = dc
    occ[np.searchsorted(keys, ok)] = oc
    return pa.table({"token_hash": pa.array(keys, type=pa.int64()),
                     "df_partial": pa.array(df), "occ_partial": pa.array(occ)})


def build_token_stats(features: ray.data.Dataset,
                      num_buckets: int) -> ray.data.Dataset:
    """token_hash → (df, occ) — vocab and stream frequency fused into one
    exchange (bucketed_sum_multi)."""
    from ..functions.grouping import bucketed_sum_multi

    partial = features.map_batches(
        _token_stats_partial, batch_format="pyarrow", batch_size=512,
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
    (each shard's totals re-bounded) before union.  ``broadcast_stats``
    warns once a window count reaches its 2^20 histogram cap."""
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
    floor (COOC_MIN_COUNT) so global singletons (~half the key space at
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


def build_entity_prior_from_docs(conv_docs: ray.data.Dataset,
                                 sample_mod: int = 1,
                                 *, num_buckets: int) -> ray.data.Dataset:
    """conv_docs → (entity, conc_e4) in ONE exchange: the mention→entity
    map is functional, so bucketing by entity co-locates each entity's
    whole mention group and the (mention,entity) sum AND the per-entity
    concentration both run inside the bucket.

    conc(e) = max_m freq(m→e) / Σ_m freq(m→e) ∈ (0, 1], scaled by 10⁴.
    Because the map is functional (stem), the reference's p̂(e|m) =
    freq/total (CandidatesList.scala:95-98) is degenerate per mention;
    the informative marginal is how CONCENTRATED an entity's mention
    distribution is — an entity reached by one dominant surface form is
    stronger linkage evidence than one smeared over many variants.  The
    scorer blends it into rho (prior_kappa + (1-prior_kappa)·conc)."""
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


# --- the broadcast: prune the three stats tables to the scorer's five ------

_HIST_CAP = 1 << 20
_HIST_COOC_SCHEMA = pa.schema([("kind", pa.int8()), ("k", pa.int64()),
                               ("v", pa.int64())])
_WCOOC_SCHEMA = pa.schema([PAIR_STATS_SCHEMA.field("pair"),
                           PAIR_STATS_SCHEMA.field("count_win")])


def _win_hist_and_cooc(t: pa.Table) -> pa.Table:
    """pair-stats block → kind-0 rows (count_win bin, #pairs; nonzero
    bins only, counts capped at ``_HIST_CAP``) + kind-1 rows (pair,
    count_conv) of the conv-cooc residue ≥ COOC_MIN_COUNT."""
    wc = np.minimum(np.asarray(t["count_win"], dtype=np.int64), _HIST_CAP)
    h = np.bincount(wc)
    nz = np.flatnonzero(h)
    cc = np.asarray(t["count_conv"], dtype=np.int64)
    keep = cc >= COOC_MIN_COUNT
    pk = np.asarray(t["pair"], dtype=np.int64)[keep]
    kind = np.concatenate([np.zeros(len(nz), dtype=np.int8),
                           np.ones(len(pk), dtype=np.int8)])
    ks = np.concatenate([nz.astype(np.int64), pk])
    vs = np.concatenate([h[nz].astype(np.int64), cc[keep]])
    return pa.table({"kind": pa.array(kind, type=pa.int8()),
                     "k": pa.array(ks), "v": pa.array(vs)})


def broadcast_stats(token_stats: ray.data.Dataset,
                    pair_stats: ray.data.Dataset,
                    prior: ray.data.Dataset, n_convs: int) -> BroadcastStats:
    """The three stats tables → the scorer's broadcast ``BroadcastStats``.

    Stats are the small side: every table is PRUNED in the dataset and
    only the residue is collected driver-side.  df==1 tokens can never
    be shared by a pair (one conv holds them) and the scorer's
    missing-token default IS df=1, so the vocab prune is exact; so is
    the prior prune, since conc_e4 == 10000 is the scorer's
    missing-entity default.  Cooc pairs below the count floor collapse
    to the scorer's missing-pair default of 0 — at 100 TB these prunes
    keep the broadcast bounded (reference analog: the min-word-count-20
    floor of context/WordFreqPerCorpus.scala:38 and the freq>=3 load
    filter of index/WordEntityProbsIndex.scala:104).

    ``pair_stats`` stays DISTRIBUTED (at bench scale the unfloored
    table is 23M rows) and is scanned twice: ONE fused scan yields the
    histogram of count_win (O(distinct counts) rows) and the conv-cooc
    residue, whose floor is known up front; the windowed-cooc floor is
    then raised until the residue fits WCOOC_MAX_PAIRS (whole tie levels
    kept) and a second, filtered scan collects it.  A caller without a
    Parquet copy of ``pair_stats`` should pass it materialized."""
    tok = _collect(token_stats.filter(expr="df >= 2 or occ >= 2"),
                   TOKEN_STATS_SCHEMA)
    prior_tbl = _collect(prior.filter(expr="conc_e4 < 10000"), PRIOR_SCHEMA)

    fused = _collect(pair_stats.map_batches(_win_hist_and_cooc,
                                            batch_format="pyarrow"),
                     _HIST_COOC_SCHEMA)
    is_bin = np.asarray(fused["kind"]) == 0
    k, v = np.asarray(fused["k"]), np.asarray(fused["v"])
    hist = np.zeros(_HIST_CAP + 1, dtype=np.int64)
    np.add.at(hist, k[is_bin], v[is_bin])
    if hist[_HIST_CAP] > 0:
        # packed-lane combiner bound (build_pair_stats): counts near 2^31
        # would carry between lanes — surface loudly rather than corrupt
        warnings.warn("count_win at histogram cap; verify packed-lane "
                      "bound (build_pair_stats) for this corpus")
    tail = np.cumsum(hist[::-1])[::-1]     # tail[c] = #pairs count_win>=c
    floor = max(COOC_MIN_COUNT,
                int(np.searchsorted(-tail, -WCOOC_MAX_PAIRS)))
    wcooc = _collect(pair_stats.filter(expr=f"count_win >= {floor}"),
                     _WCOOC_SCHEMA)

    df, occ = np.asarray(tok["df"]), np.asarray(tok["occ"])
    return BroadcastStats(
        vocab=tok.select(["token_hash", "df"]).filter(df >= 2),
        cooc=pa.table({"pair": k[~is_bin], "count_conv": v[~is_bin]}),
        wfreq=tok.select(["token_hash", "occ"]).filter(occ >= 2),
        wcooc=wcooc, prior=prior_tbl, n_docs=n_convs)
