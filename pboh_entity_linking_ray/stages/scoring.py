"""Pair scoring: candidate pair rows → scored matches.

Features are re-attached to the SKINNY pair rows by two native
hash-shuffle joins on the conversation id (``attach_features``) — the
100 TB-safe exchange: the blocking shuffle never moves token sketches or
text, and the per-pair feature payload streams through a hash-partitioned
join instead of a driver-built O(corpus) broadcast store.

Scoring itself is THE canonical stateful stage (SURVEY.md §2.4 A1): each
worker resolves the broadcast statistics tables once — the direct
descendant of the reference's singleton-per-JVM ``AllIndexesBox`` pattern
(reference: src/main/scala/index/AllIndexesBox.scala:5-76; rationale
comment eval/cweb/RunLoopyAgainstAllGoogleClweb.scala:31-42) — and scores
Arrow batches of pairs with vectorized kernels.

Score = convex mix of
  * Jaro-Winkler on capped canonical text (batched numpy kernel),
  * token Jaccard over the bottom-k token hash sketches,
  * a squashed PBoH term  f·rho_norm + g·(2/(l-1))·Σ lambda  — the
    loopy-BP-free max-product closed form of the reference's message score
    (reference: loopybeliefpropagation/ScorerFull.scala:231-261, incl. the
    2/(l-1) pairwise normalization at :246), with l = number of shared
    salient tokens.

The whole batch is scored with flat-array segment arithmetic — padded
sort-merge intersection, bincount segment reductions — NO Python loop over
pairs.  Stats enter via ``ray.put`` object refs resolved once per worker
process — broadcast once per node, never re-shipped per batch.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ..config import PipelineConfig, ScorerWeights
from ..functions.logodds import HashLookup, npmi_pairwise, rho_idf
from ..functions.hashing import pack_pairs_np
from ..functions.similarity import jaro_winkler_batch
from .blocking import _PAIR_SCHEMA

_SENTINEL = np.uint64(0xFFFFFFFFFFFFFFFF)

_TRIU_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _triu(n: int) -> tuple[np.ndarray, np.ndarray]:
    t = _TRIU_CACHE.get(n)
    if t is None:
        t = np.triu_indices(n, k=1)
        _TRIU_CACHE[n] = t
    return t


class BroadcastStats:
    """Hash-probe views of the five broadcast stats tables, built by
    ``stages/stats.py:broadcast_stats``.

    Each table holds two int64 columns, key then value: ``vocab`` token
    → df, ``cooc`` packed pair → conversation count, ``wfreq`` token →
    stream occurrences, ``wcooc`` packed pair → window count, ``prior``
    entity → conc_e4.  Packed pair keys arrive bit-cast int64 (the
    exchange-key constraint); every lookup key is bit-cast the same way.
    Each table is a ``HashLookup`` (vectorized C hash probe) whose table
    builds lazily on first probe in each worker — measured 11× over the
    previous sorted-array searchsorted on the cooc tables, whose random
    binary-search cache misses dominated the scorer
    (functions/logodds.py:HashLookup).
    """

    def __init__(self, vocab: pa.Table, cooc: pa.Table, wfreq: pa.Table,
                 wcooc: pa.Table, prior: pa.Table, n_docs: int):
        def mk(t: pa.Table) -> HashLookup:
            return HashLookup(np.asarray(t.column(0), dtype=np.int64),
                              np.asarray(t.column(1), dtype=np.int64))

        self.vocab = mk(vocab)
        self.cooc = mk(cooc)
        self.wfreq = mk(wfreq)
        self.wcooc = mk(wcooc)
        self.prior = mk(prior)
        self.total_occ = int(np.asarray(wfreq.column(1), dtype=np.int64).sum())
        self.n_docs = int(n_docs)


def _bin_offsets_flat(arr) -> tuple[np.ndarray, np.ndarray]:
    """(large_)binary array of packed uint32 tokens → (row offsets in
    tokens, flat uint32 values) — zero-copy buffer reinterpretation."""
    bufs = arr.buffers()
    odt = np.int64 if pa.types.is_large_binary(arr.type) else np.int32
    off = np.frombuffer(bufs[1], dtype=odt)[arr.offset: arr.offset + len(arr) + 1]
    off = off.astype(np.int64)
    data = np.frombuffer(bufs[2], dtype=np.uint8)[off[0]: off[-1]]
    return (off - off[0]) // 4, data.view(np.uint32)


def _padded_tokens(col) -> tuple[np.ndarray, np.ndarray]:
    """Arrow list<uint32> (or binary-packed uint32, see
    ``_pack_tokens_binary``) column → sentinel-padded (B, W) uint64 matrix
    + per-row lengths (vectorized flat gather; no Python loop)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if pa.types.is_binary(arr.type) or pa.types.is_large_binary(arr.type):
        offsets, flat32 = _bin_offsets_flat(arr)
        flat = flat32.astype(np.uint64)
    else:
        offsets = np.asarray(arr.offsets).astype(np.int64)
        offsets = offsets - offsets[0]  # sliced arrays may not start at 0
        flat = np.asarray(arr.flatten()).astype(np.uint64, copy=False)
    lens = np.diff(offsets)
    n = len(lens)
    width = max(1, int(lens.max(initial=1)))
    mat = np.full((n, width), _SENTINEL, dtype=np.uint64)
    total = int(lens.sum())
    rows = np.repeat(np.arange(n), lens)
    pos = np.cumsum(np.r_[0, lens[:-1]])
    cols = np.arange(total) - np.repeat(pos, lens)
    mat[rows, cols] = flat
    return mat, lens


def _pack_tokens_binary(t: pa.Table) -> pa.Table:
    """list<uint32> tokens → large_binary (flat little-endian uint32
    bytes), zero-copy on the values buffer.  Ray's native hash-shuffle
    join (Arrow Acero under the hood) rejects list-typed payload columns;
    binary payload passes through, and the scorer's ``_padded_tokens``
    decodes it without copying."""
    arr = t["tokens"].combine_chunks() if isinstance(t["tokens"], pa.ChunkedArray) \
        else t["tokens"]
    off = np.asarray(arr.offsets).astype(np.int64)
    flat = np.asarray(arr.flatten()).astype(np.uint32, copy=False)
    packed = pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), len(off) - 1,
        [None, pa.py_buffer(((off - off[0]) * 4).tobytes()),
         pa.py_buffer(np.ascontiguousarray(flat).tobytes())])
    return t.set_column(t.schema.get_field_index("tokens"), "tokens", packed)


def attach_features(pairs: ray.data.Dataset, features: ray.data.Dataset,
                    num_buckets: int) -> ray.data.Dataset:
    """Skinny pair rows ⋈ per-conv features, twice (side a, side b), via
    the bucketed co-group ``hash_join`` (functions/grouping.py): both
    sides hash-partition on the conv id and every bucket joins vectorized
    with polars.  A conv id absent from the features table drops its
    pairs (inner join) instead of silently scoring against a neighbor's
    features.

    Measured against Ray Data's native hash-shuffle ``Dataset.join`` at
    bench scale (442k pairs ⋈ 20k convs, 32 CPUs): 7 s vs 36 s for the
    two joins — the native operator's per-join aggregator-actor pool
    start-up (~170 worker processes) dominates until both sides are far
    larger, while the bucketed co-group rides the ordinary task pool.
    Token sketches still ride binary-packed (smaller shuffle payload and
    a zero-copy decode in ``_padded_tokens``)."""
    return _attach(pairs, features, num_buckets)


def _attach(pairs: ray.data.Dataset, features: ray.data.Dataset,
            num_buckets: int, post=None) -> ray.data.Dataset:
    """Shared body of ``attach_features`` (post=None) and
    ``attach_and_score`` (post=the fused scorer).

    Both joins are ``adaptive_skew_join``s: each samples its LEFT key
    histogram and salts exactly the detected hot conv ids
    (``skew_join``), since a conversation appearing in a
    disproportionate share of pairs — one templated transcript blocking
    against everything — would otherwise pin its whole pair set on a
    single bucket task.  Output is identical either way (skew_join
    contract); the defense costs one sampled scan of the key column per
    join.  A pair set of zero-column empty blocks (Ray's output for an
    all-empty map) streams no schema, so both joins return it as the
    empty result."""
    feats = features.select_columns(["conv_id", "jw_text", "tokens"]) \
        .map_batches(_pack_tokens_binary, batch_format="pyarrow")
    fa = feats.rename_columns({"conv_id": "conv_a", "jw_text": "jw_a",
                               "tokens": "tokens_a"})
    fb = feats.rename_columns({"conv_id": "conv_b", "jw_text": "jw_b",
                               "tokens": "tokens_b"})
    # pair_key is derivable from (conv_a, conv_b): drop it before the two
    # exchanges and let the scorer re-emit it (~35 B/row × 2 joins
    # saved); resolved once, since the left side is read twice (the
    # skew detection pass and the join)
    skinny = pairs.select_columns(
        [c for c in _PAIR_SCHEMA.names if c != "pair_key"]).materialize()
    from ..functions.grouping import adaptive_skew_join

    # barrier between the exchanges: the second join's map side starts
    # from resolved blocks instead of dragging the first exchange's task
    # graph along (measured 29 s chained-lazy vs 18 s with the barrier)
    with_a = adaptive_skew_join(skinny, fa, "conv_a", num_buckets) \
        .materialize()
    return adaptive_skew_join(with_a, fb, "conv_b", num_buckets, post=post)


_FEATURE_COLS = ("jw_a", "jw_b", "tokens_a", "tokens_b")
_TERM_CHUNK = 262_144     # pair terms per cache-resident scorer chunk


class PairScorer:
    """The full scorer: string similarity (Jaro-Winkler + token Jaccard)
    blended with the PBoH log-odds terms (rho salience, lambda PMI,
    window-context, mention prior).

    This is one implementation of the engine's pluggable scorer surface
    (SURVEY §2.10; reference ``Scorer`` trait,
    loopybeliefpropagation/Scorer.scala:7-14): any callable class with
    this constructor signature ``(stats_ref, cfg)`` and a
    ``__call__(pa.Table) -> pa.Table`` emitting the scored-pair schema
    (pair_key, jw, jaccard, pboh, score, is_match appended to the input's
    non-feature columns) can be registered in ``SCORERS`` and selected
    via ``PipelineConfig.scorer``."""

    pboh_weight: float = 1.0   # weight of the PBoH term in the blend

    def __init__(self, stats_ref, cfg: PipelineConfig | None = None):
        self.cfg = cfg or PipelineConfig()
        self.w: ScorerWeights = self.cfg.weights
        self.stats: BroadcastStats = (
            ray.get(stats_ref) if isinstance(stats_ref, ray.ObjectRef) else stats_ref
        )

    @staticmethod
    def _shared_and_jac(A, la, B, lb):
        """Sorted-merge shared-token mask + token Jaccard for a batch of
        pairs (pure numpy, no stats needed)."""
        S = np.sort(np.concatenate([A, B], axis=1), axis=1)
        dup = (S[:, 1:] == S[:, :-1]) & (S[:, 1:] != _SENTINEL)
        n_shared = dup.sum(axis=1)
        denom = la + lb - n_shared
        jac = np.where(denom > 0, n_shared / np.maximum(denom, 1), 0.0)
        return S, dup, jac

    def _pboh_and_jac(self, A, la, B, lb) -> tuple[np.ndarray, np.ndarray]:
        w, st, cfg = self.w, self.stats, self.cfg
        n = len(la)
        log_n = np.log(max(2, st.n_docs))

        S, dup, jac = self._shared_and_jac(A, la, B, lb)

        rows = np.nonzero(dup)[0]
        sv = S[:, 1:][dup]                       # shared tokens, row-major
        if len(sv) == 0:
            return np.zeros(n), jac
        # token ids are 32-bit values → plain astype matches the int64
        # vocab keys (the packed cooc keys below stay bit-cast instead)
        df = st.vocab.get(sv.astype(np.int64), default=1)
        idf = rho_idf(df, st.n_docs)

        # top-k most-salient shared tokens per row (stable: -idf, token asc)
        order = np.lexsort((sv, -idf, rows))
        srows = rows[order]
        newseg = np.r_[True, srows[1:] != srows[:-1]]
        seg_first = np.maximum.accumulate(
            np.where(newseg, np.arange(len(srows)), 0))
        rank = np.arange(len(srows)) - seg_first
        keep = rank < cfg.top_shared_tokens
        tv = sv[order][keep]
        tdf = df[order][keep]
        tidf = idf[order][keep]
        trow = srows[keep]

        # mention-prior concentration blend (north_star's p(e|m) term):
        # an entity reached by one dominant surface form carries full
        # salience; one smeared over many variants is discounted toward
        # prior_kappa (reference rho's log p̂(e|m), ScorerFull.scala:189-193)
        if len(st.prior):
            conc = st.prior.get(tv.astype(np.int64), default=10000) / 10000.0
            tidf = tidf * (w.prior_kappa + (1.0 - w.prior_kappa) * conc)

        counts = np.bincount(trow, minlength=n)          # l per row
        rho_norm = np.zeros(n)
        nz = counts > 0
        rho_norm[nz] = (np.bincount(trow, weights=tidf, minlength=n)[nz]
                        / counts[nz]) / log_n

        # window-context occurrence stats (reference rho's p(w|e) sum,
        # ScorerFull.scala:189-193 over EntityWordsProbs windows)
        has_ctx = st.total_occ > 0
        if has_ctx:
            tocc = st.wfreq.get(tv.astype(np.int64),
                                default=1).astype(np.float64)
            log_occ = np.log(max(2, st.total_occ))

        # pairwise NPMI over each row's top tokens: flat segment triu.
        # the reference's 2/(l-1) max-product normalization times 1/l over
        # the l(l-1)/2 pair terms is exactly the pair MEAN — keeping the
        # aggregate in [-1, 1] independent of l and of corpus size.
        # Pair INDICES are built per distinct l (the triu shape is shared),
        # but the expensive stages — key packing, the two cooc hash
        # probes, NPMI — run ONCE over the concatenation: the previous
        # per-l probes re-paid the hash-table's cache footprint ~15×.
        lam_sum = np.zeros(n)
        ctx_sum = np.zeros(n)
        seg_starts = np.cumsum(np.r_[0, counts[:-1]])
        pi_parts: list[np.ndarray] = []
        pj_parts: list[np.ndarray] = []
        row_parts: list[np.ndarray] = []
        for l in np.unique(counts):
            if l < 2:
                continue
            ia, ib = _triu(int(l))
            rsel = np.flatnonzero(counts == l)
            base = seg_starts[rsel]
            pi_parts.append((base[:, None] + ia[None, :]).ravel())
            pj_parts.append((base[:, None] + ib[None, :]).ravel())
            row_parts.append(np.repeat(rsel, len(ia)))
        if pi_parts:
            pi = np.concatenate(pi_parts)
            pj = np.concatenate(pj_parts)
            prow = np.concatenate(row_parts)
            # CHUNKED pair-term math: one batch expands to ~74 pair terms
            # per pair; whole-array numpy over the expansion allocates
            # ~30 MB temporaries per op, and on this memory-bandwidth-
            # starved host that measured 26× slower than the same math
            # over cache-resident 256k chunks (npmi 2.77 s → 0.11 s at
            # 3.7M terms).  Probes and math both run per chunk; per-row
            # sums accumulate via bincount.  Chunks are cut at ROW
            # boundaries (a row's terms are contiguous in its l group),
            # so every row sums in one bincount in a fixed order and its
            # score is bit-identical whatever batch it rides in.
            lam_rowsum = np.zeros(n)
            ctx_rowsum = np.zeros(n)
            bounds = np.r_[np.flatnonzero(np.r_[True, prow[1:] != prow[:-1]]),
                           len(pi)]
            cuts = np.unique(np.r_[bounds[np.searchsorted(
                bounds, np.arange(0, len(pi), _TERM_CHUNK))], len(pi)])
            for s, e in zip(cuts[:-1], cuts[1:]):
                cpi = pi[s:e]
                cpj = pj[s:e]
                crow = prow[s:e]
                keys = pack_pairs_np(tv[cpi], tv[cpj]).view(np.int64)
                cocit = st.cooc.get(keys, default=0)
                lam = npmi_pairwise(cocit, tdf[cpi], tdf[cpj], st.n_docs, w)
                lam_rowsum += np.bincount(crow, weights=lam, minlength=n)
                if has_ctx:
                    # symmetrized log(δ·p̂(w|e)/p̂(w) + ξ): p̂(w|e) from
                    # windowed co-counts, p̂(w) from stream occurrences
                    wc = st.wcooc.get(keys, default=0).astype(np.float64)
                    oi = np.maximum(tocc[cpi], 1.0)
                    oj = np.maximum(tocc[cpj], 1.0)
                    pw_i = tocc[cpi] / st.total_occ
                    pw_j = tocc[cpj] / st.total_occ
                    ctx = 0.5 * (
                        np.log(w.delta_w_e * (wc / oi)
                               / np.maximum(pw_j, 1e-12) + w.xi)
                        + np.log(w.delta_w_e * (wc / oj)
                                 / np.maximum(pw_i, 1e-12) + w.xi))
                    ctx_rowsum += np.bincount(crow, weights=ctx, minlength=n)
            lcnt = counts.astype(np.float64)
            npair_row = lcnt * (lcnt - 1.0) / 2.0
            with np.errstate(divide="ignore", invalid="ignore"):
                lam_scale = np.where(counts >= 2,
                                     (2.0 / (lcnt - 1.0)) / lcnt, 0.0)
            lam_sum = lam_rowsum * lam_scale
            if has_ctx:
                ctx_sum = (ctx_rowsum / np.maximum(npair_row, 1.0)) / log_occ

        lam_norm = np.clip(lam_sum, 0.0, 1.0)
        lam_norm[counts < 2] = 0.0
        ctx_norm = np.clip(ctx_sum, 0.0, 1.0)
        ctx_norm[counts < 2] = 0.0
        pboh = np.clip(w.f * rho_norm + w.g * lam_norm + w.b * ctx_norm,
                       0.0, 1.0)
        pboh[counts == 0] = 0.0
        return pboh, jac

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # drop feature cols AND any pair_key the input still carries
        # (the attach drops it; the scorer re-emits it)
        drop = [c for c in (*_FEATURE_COLS, "pair_key")
                if c in batch.column_names]
        n = batch.num_rows
        if n == 0:
            out = batch.drop_columns(drop)
            out = out.append_column("pair_key",
                                    pa.array([], type=pa.string()))
            for c in ("jw", "jaccard", "pboh", "score"):
                out = out.append_column(c, pa.array([], type=pa.float64()))
            return out.append_column("is_match", pa.array([], type=pa.bool_()))

        w = self.w
        jw = jaro_winkler_batch(batch["jw_a"].to_pylist(),
                                batch["jw_b"].to_pylist())
        A, la = _padded_tokens(batch["tokens_a"])
        B, lb = _padded_tokens(batch["tokens_b"])
        pboh, jac = self._pboh_and_jac(A, la, B, lb)

        pw = self.pboh_weight
        score = (w.w_jw * jw + w.w_jac * jac + pw * pboh) / (
            w.w_jw + w.w_jac + pw)
        out = batch.drop_columns(drop)
        # recompute the pair key dropped before the attach exchanges
        out = out.append_column(
            "pair_key",
            pc.binary_join_element_wise(
                pc.cast(batch["conv_a"], pa.string()),
                pc.cast(batch["conv_b"], pa.string()), "\x1f"))
        out = out.append_column("jw", pa.array(jw, type=pa.float64()))
        out = out.append_column("jaccard", pa.array(jac, type=pa.float64()))
        out = out.append_column("pboh", pa.array(pboh, type=pa.float64()))
        out = out.append_column("score", pa.array(score, type=pa.float64()))
        out = out.append_column(
            "is_match", pa.array(score >= w.match_threshold, type=pa.bool_())
        )
        return out


class StringSimScorer(PairScorer):
    """String-similarity-only scorer — the differential baseline (the
    reference ships the same comparison as LBP vs ARGMAX,
    eval/EvalOnDatasets.scala:192-195): Jaro-Winkler + token Jaccard,
    no PBoH statistics.  The ``pboh`` output column is all-zero and the
    blend excludes it, so the Δ against the full scorer isolates exactly
    what the corpus statistics buy."""

    pboh_weight = 0.0

    def __init__(self, stats_ref=None, cfg: PipelineConfig | None = None):
        # stats are deliberately unused; the signature stays uniform so
        # the scorer is selectable via PipelineConfig.scorer alone
        self.cfg = cfg or PipelineConfig()
        self.w = self.cfg.weights
        self.stats = None

    def _pboh_and_jac(self, A, la, B, lb) -> tuple[np.ndarray, np.ndarray]:
        _, _, jac = self._shared_and_jac(A, la, B, lb)
        return np.zeros(len(la)), jac


# the pluggable-scorer registry (SURVEY §2.10): users add an entry and
# select it with PipelineConfig(scorer=<name>) — the engine analog of the
# reference's two shipped Scorer impls (ScorerFull /
# ScorerFullLearnedParams.scala:13-55)
SCORERS: dict[str, type] = {
    "full": PairScorer,
    "stringsim": StringSimScorer,
}


def register_scorer(name: str, cls: type) -> None:
    """Register a custom scorer class (constructor ``(stats_ref, cfg)``,
    callable over pyarrow pair batches — see PairScorer docstring)."""
    SCORERS[name] = cls


_SCORER_CACHE: dict[str, PairScorer] = {}


def _scorer_for(cls: type, stats_ref, cfg: PipelineConfig) -> PairScorer:
    """Once-per-worker-process scorer — the exact analog of the
    reference's singleton-per-JVM index objects
    (RunLoopyAgainstAllGoogleClweb.scala:31-42): the broadcast stats are
    ray.get()'d once per process (zero-copy numpy views into the shared
    object store) and reused by every task that lands on the worker.

    Takes the scorer CLASS (resolved from the registry on the DRIVER and
    shipped in the task closure), never a registry name: a worker
    process re-imports this module without the user's
    ``register_scorer`` call, so name resolution inside the task would
    KeyError for every custom plugin.  Cache capped at 2 entries (the
    full + baseline differential pair) so a long-lived worker never
    pins more than two broadcast stats tables."""
    ref_key = (stats_ref.hex() if isinstance(stats_ref, ray.ObjectRef)
               else str(id(stats_ref)))
    key = f"{cls.__module__}.{cls.__qualname__}:{ref_key}"
    sc = _SCORER_CACHE.get(key)
    if sc is None:
        if len(_SCORER_CACHE) >= 2:
            _SCORER_CACHE.pop(next(iter(_SCORER_CACHE)))
        sc = cls(stats_ref, cfg)
        _SCORER_CACHE[key] = sc
    return sc


def score_pairs(pairs_with_features: ray.data.Dataset, stats: BroadcastStats,
                cfg: PipelineConfig | None = None) -> ray.data.Dataset:
    """Scoring runs as an elastic task pool (plain function): Ray's actor
    pool autoscaler ramps too slowly for a stage this short, while tasks
    scale to every free CPU instantly; per-process scorer state (broadcast
    stats) is preserved via the _scorer_for singleton.  Input must carry
    the ``attach_features`` columns (jw_a/jw_b/tokens_a/tokens_b)."""
    cfg = cfg or PipelineConfig()
    stats_ref = stats if isinstance(stats, ray.ObjectRef) else ray.put(stats)
    scorer_cls = SCORERS[cfg.scorer]      # resolve on the DRIVER

    def score_batch(batch: pa.Table) -> pa.Table:
        return _scorer_for(scorer_cls, stats_ref, cfg)(batch)

    return pairs_with_features.map_batches(
        score_batch,
        batch_format="pyarrow",
        batch_size=cfg.scorer_batch_size,
    )


def attach_and_score(pairs: ray.data.Dataset, features: ray.data.Dataset,
                     stats: "BroadcastStats | ray.ObjectRef",
                     cfg: PipelineConfig | None = None,
                     *, num_buckets: int) -> ray.data.Dataset:
    """`attach_features` + `score_pairs` fused: the second feature join's
    bucket task scores its joined rows IN PLACE (hash_join ``post``
    hook), so the widest table of the pipeline — pair rows carrying both
    sides' text and token sketches — never crosses an operator boundary
    through the object store.  Output = `score_pairs` output (skinny
    scored rows).  Measured at 250k convs / 16 CPUs: the unfused
    attach→score path spends ~27 s, of which ~6 s is the extra
    materialization hop this removes."""
    cfg = cfg or PipelineConfig()
    stats_ref = stats if isinstance(stats, ray.ObjectRef) else ray.put(stats)
    scorer_cls = SCORERS[cfg.scorer]      # resolve on the DRIVER

    def score_bucket(joined: pa.Table) -> pa.Table:
        return _scorer_for(scorer_cls, stats_ref, cfg)(joined)

    return _attach(pairs, features, num_buckets, post=score_bucket)


# registers SCORERS["lbp"] (sum-product loopy BP, stages/lbp.py) — import
# at module bottom so the subclass sees a fully-initialized PairScorer
from . import lbp  # noqa: E402,F401
