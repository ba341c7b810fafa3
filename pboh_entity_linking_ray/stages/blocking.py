"""Blocking: per-conversation features → candidate pair rows (SKINNY).

Sub-steps, each a named shuffle (SURVEY.md §7.3):

1. ``add_block_keys``  — flat-emit one SKINNY row per (conversation ×
   block key): ``lsh_bands`` MinHash band keys plus one tool/role
   signature key.  Only (conv_id, mh0, own_key, block_key) are shuffled —
   ~40 B/row; features are re-attached at scoring time by two
   ``hash_join``s on the pair's conv ids (stages/scoring.py), so the
   blocking exchange never moves token sketches or text.
2. ``make_pairs``      — ONE hash-partition by key hash (an incremental
   run adds the probed base rows, flagged old); singleton pruning, size-batched vectorized pair emission, salting and capped
   accounting all run inside the receiving bucket (sizes are locally
   known — no pre-count, no broadcast, no driver collect).  **Explicit
   salting of hot blocks**: an oversized block's pair budget is
   ``max_pairs_per_block``; its chunk-local pairs plus seam windows are
   emitted and every non-emitted pair is accounted EXACTLY in
   ``capped_pairs`` (first emitted row of the block carries the count) —
   the reference instead silently skips oversized documents (reference:
   src/main/scala/eval/EvalOnDatasets.scala:172,
   eval/cweb/RunLoopyAgainstAllGoogleClweb.scala:188); the north_rule
   forbids silent drops.
3. ``dedup_pairs``     — bucketed keep-first on ``pair_key`` across
   blocks (analog of the reference's ``.distinct`` on packed int64 pair
   keys, reference: src/main/scala/index/EntityCooccurrenceIndex.scala:103);
   cheap because pair rows are ~90 B.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from ..config import PipelineConfig
_PAIR_SCHEMA = pa.schema(
    [
        ("pair_key", pa.string()),
        ("block_key", pa.string()),
        ("conv_a", pa.string()),
        ("conv_b", pa.string()),
        ("capped_pairs", pa.int64()),
    ]
)


def _minhash_blocker(emitter: "BlockKeyEmitter", batch: pa.Table,
                     sigs: np.ndarray) -> dict[str, np.ndarray]:
    """MinHash-LSH band keys: lsh_bands u64 keys per conversation."""
    cfg = emitter.cfg
    band = emitter.mh.band_keys(sigs, cfg.lsh_bands, cfg.lsh_rows)  # (n, B)
    return {f"b{b:02d}": band[:, b] for b in range(cfg.lsh_bands)}


def _signature_blocker(emitter: "BlockKeyEmitter", batch: pa.Table,
                       sigs: np.ndarray) -> dict[str, np.ndarray]:
    """Tool/role-signature key: one u64 key per conversation."""
    import polars as pl

    return {"s": pl.from_arrow(batch["sig"].combine_chunks())
                   .hash(seed=13).to_numpy().astype(np.uint64)}


# pluggable Blocker registry (SURVEY §2.10 new-engine surface, sibling of
# stages/scoring.py:SCORERS): a blocker maps a feature batch to named u64
# key columns; every key family selected in PipelineConfig.blockers emits
# one skinny (conv_id × key) row per conversation
BLOCKERS: dict[str, object] = {
    "minhash": _minhash_blocker,
    "signature": _signature_blocker,
}


def register_blocker(name: str, fn) -> None:
    """Register a custom blocker ``fn(emitter, batch, sigs) ->
    dict[key_name, uint64 ndarray]`` selectable via
    ``PipelineConfig.blockers``."""
    BLOCKERS[name] = fn


class BlockKeyEmitter:
    """features → one SKINNY row per (conv, block_key): conv_id, mh0,
    own_key, block_key; no feature column rides along."""

    def __init__(self, cfg: PipelineConfig | None = None,
                 blocker_fns: list | None = None):
        from .featurize import _mh_for

        self.cfg = cfg or PipelineConfig()
        # reuse MinHasher only for band folding of the stored signature
        self.mh = _mh_for(self.cfg)
        # blocker fns are resolved from the registry on the DRIVER
        # (add_block_keys) and shipped in the closure: a worker process
        # re-imports this module WITHOUT the user's register_blocker
        # call, so a name lookup here would KeyError for custom plugins
        self.blocker_fns = (blocker_fns if blocker_fns is not None
                            else [BLOCKERS[n] for n in self.cfg.blockers])

    def __call__(self, batch: pa.Table) -> pa.Table:
        import polars as pl

        cfg = self.cfg
        n = batch.num_rows
        if n == 0:
            # same skinny 4-column schema as the non-empty path (an
            # input-shaped empty table would break the downstream union)
            return pa.table({
                "conv_id": pa.array([], type=pa.string()),
                "mh0": pa.array([], type=pa.int64()),
                "own_key": pa.array([], type=pa.int64()),
                "block_key": pa.array([], type=pa.string()),
            })
        sigs = np.asarray(batch["minhash"].combine_chunks().flatten()).reshape(
            n, cfg.num_perm
        )
        # pluggable key families (SURVEY §2.10's Blocker surface): each
        # registered blocker maps the feature batch to named u64 key
        # columns; cfg.blockers selects which families emit
        cols: dict[str, np.ndarray] = {}
        for fn in self.blocker_fns:
            cols.update(fn(self, batch, sigs))
        names = list(cols)
        n_keys = len(names)
        # conv i emits keys [family keys…]; built COLUMN-major (all b0
        # keys, then b1, …) so each prefix+digits concat is one vectorized
        # polars kernel over the whole batch — never a Python string op
        # per emitted key
        keyed = pl.DataFrame(cols).select(
            (pl.lit(f"{c}:") + pl.col(c).cast(pl.String)).alias(c)
            for c in names
        )
        flat_keys = pl.concat([keyed[c] for c in names])
        key_hash = flat_keys.hash(seed=23).to_numpy().astype(np.uint64)
        flat_keys = flat_keys.to_arrow().cast(pa.string())
        idx = np.tile(np.arange(n), n_keys)
        # skinny projection: only identity + the mh0 used for salted-chunk
        # ordering cross the shuffle; features are re-attached by the
        # scoring joins
        out = pa.table({
            "conv_id": batch["conv_id"].take(pa.array(idx)),
            "mh0": pa.array(sigs[:, 0].view(np.int64)[idx]),
            "own_key": pa.array(key_hash.view(np.int64)),
            "block_key": flat_keys,
        })
        return out


def add_block_keys(features: ray.data.Dataset, cfg: PipelineConfig | None = None):
    cfg = cfg or PipelineConfig()
    blocker_fns = [BLOCKERS[n] for n in cfg.blockers]  # resolve on the DRIVER

    def emit(batch: pa.Table) -> pa.Table:
        return BlockKeyEmitter(cfg, blocker_fns)(batch)

    return features.map_batches(emit, batch_format="pyarrow", batch_size=1024)


_TRIU_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _triu(n: int) -> tuple[np.ndarray, np.ndarray]:
    t = _TRIU_CACHE.get(n)
    if t is None:
        t = np.triu_indices(n, k=1)
        _TRIU_CACHE[n] = t
    return t


def _salted_pair_indices(order: np.ndarray, cfg: PipelineConfig
                         ) -> tuple[np.ndarray, np.ndarray, int]:
    """Chunked (salted) pair indices for one oversized group; ``order`` is
    the group's bucket-row indices in (mh0, conv_id)-sorted order.
    Returns (i, j, capped) — capped = pairs not generated."""
    m = len(order)
    chunk_size = max(8, min(cfg.block_cap,
                            (2 * cfg.max_pairs_per_block) // m))
    chunks = [order[i : i + chunk_size] for i in range(0, m, chunk_size)]
    ii, jj = [], []
    # seam window scales down with the chunk so boundary pairs never
    # dominate the pair budget on very hot blocks
    w = min(cfg.salt_boundary, max(1, chunk_size // 2))
    for ci, chunk in enumerate(chunks):
        a, b = _triu(len(chunk))
        ii.append(chunk[a])
        jj.append(chunk[b])
        if ci + 1 < len(chunks):
            ga, gb = np.meshgrid(chunk[-w:], chunks[ci + 1][:w], indexing="ij")
            ii.append(ga.ravel())
            jj.append(gb.ravel())
    i_idx = np.concatenate(ii)
    j_idx = np.concatenate(jj)
    return i_idx, j_idx, m * (m - 1) // 2 - len(i_idx)


def _pairs_from_indices(bucket: pa.Table, i_idx: np.ndarray,
                        j_idx: np.ndarray,
                        capped_col: np.ndarray) -> pa.Table:
    """Tail of the pair emitter: canonical in-pair order + pair_key build
    from bucket row indices."""
    conv = np.asarray(bucket["conv_id"], dtype=object)
    swap = conv[i_idx] > conv[j_idx]
    ai = pa.array(np.where(swap, j_idx, i_idx))
    bi = pa.array(np.where(swap, i_idx, j_idx))

    import pyarrow.compute as pc

    conv_arr = bucket["conv_id"].combine_chunks() \
        if isinstance(bucket["conv_id"], pa.ChunkedArray) else bucket["conv_id"]
    ca2 = conv_arr.take(ai)
    cb2 = conv_arr.take(bi)
    pair_key = pc.binary_join_element_wise(ca2, cb2, "\x1f")

    return pa.table(
        {
            "pair_key": pair_key,
            "block_key": bucket["block_key"].take(ai),
            "conv_a": ca2,
            "conv_b": cb2,
            "capped_pairs": pa.array(capped_col, type=pa.int64()),
        }
    ).cast(_PAIR_SCHEMA)


def _emit_pairs_bucket(bucket: pa.Table, cfg: PipelineConfig) -> pa.Table:
    """ALL groups of a bucket → skinny pair rows in one vectorized pass.
    The bucket carries an ``is_new`` flag and arrives sorted (own_key,
    is_new DESC, mh0, conv_id) — new members lead each group.  Emits
    ONLY pairs touching at least one new conversation (new×new triu +
    new×old cross); old×old pairs were scored by the base run and are
    never re-emitted — that asymmetry is the entire incremental win.  A
    batch run tags every row new, so every group pairs in full.

    Pair-index generation is batched by (group size, new count) shape (a
    group-at-a-time implementation measured ~1.2 ms of numpy overhead
    per emitted pair).  Singleton keys and groups with zero new members
    die here, INSIDE the shuffle's receiving task, no pre-count pass.

    Oversized groups take the salted chunk+seam path for the new×new
    part and stripe the new×old cross deterministically under the same
    ``max_pairs_per_block`` budget; because the whole block is local, its
    non-emitted NEW-touching count is EXACT and rides on the group's
    FIRST pair row (0 elsewhere), so a plain Sum over raw make_pairs
    output is the global capped total (pairs-stage manifest; sum BEFORE
    dedup_pairs — dedup may drop a marker row's duplicate).  Old×old
    pairs are out of scope by definition, not "capped".  Cross-block
    duplicates are removed afterwards by ``dedup_pairs`` — cheap,
    because these rows carry no features."""
    n = bucket.num_rows
    if n == 0:
        return _PAIR_SCHEMA.empty_table()
    gk = np.asarray(bucket["own_key"], dtype=np.int64)
    newf = np.asarray(bucket["is_new"], dtype=np.int64)
    starts = np.flatnonzero(np.concatenate(([True], gk[1:] != gk[:-1])))
    bounds = np.append(starts, n)
    sizes = np.diff(bounds)
    knew = np.add.reduceat(newf, starts)

    ii_parts: list[np.ndarray] = []
    jj_parts: list[np.ndarray] = []
    cap_parts: list[np.ndarray] = []

    # vector path, batched by the (group size, new count) shape
    small = (sizes >= 2) & (knew >= 1) & (sizes <= cfg.block_cap)
    if small.any():
        shape = sizes * (cfg.block_cap + 1) + knew
        for sh in np.unique(shape[small]):
            m = int(sh // (cfg.block_cap + 1))
            k = int(sh % (cfg.block_cap + 1))
            ia, ib = _triu(k)                      # new×new
            if k < m:                              # new×old cross
                ga, gb = np.meshgrid(np.arange(k), np.arange(k, m),
                                     indexing="ij")
                ia = np.concatenate([ia, ga.ravel()])
                ib = np.concatenate([ib, gb.ravel()])
            if not len(ia):
                continue
            base = bounds[:-1][small & (shape == sh)]
            ii_parts.append((base[:, None] + ia[None, :]).ravel())
            jj_parts.append((base[:, None] + ib[None, :]).ravel())
            cap_parts.append(np.zeros(len(base) * len(ia), dtype=np.int64))

    # salted path for oversized groups
    for g in np.flatnonzero((sizes > cfg.block_cap) & (knew >= 1)):
        s, e = bounds[g], bounds[g + 1]
        k = int(knew[g])
        gi_parts, gj_parts = [], []
        capped = 0
        if k >= 2:
            if k <= cfg.block_cap:
                a, b = _triu(k)
                gi_parts.append(s + a)
                gj_parts.append(s + b)
            else:
                gi, gj, c_nn = _salted_pair_indices(np.arange(s, s + k), cfg)
                gi_parts.append(gi)
                gj_parts.append(gj)
                capped += c_nn
        n_old = int(e - s - k)
        if n_old:
            total = k * n_old
            per_new = min(n_old, max(1, cfg.max_pairs_per_block // k))
            if per_new >= n_old:
                ga, gb = np.meshgrid(np.arange(s, s + k),
                                     np.arange(s + k, e), indexing="ij")
                gi_parts.append(ga.ravel())
                gj_parts.append(gb.ravel())
            else:
                # deterministic stripe: new t starts its old window at an
                # even spread over the (mh0, conv_id)-sorted old run
                t = np.arange(k)
                start = ((t * max(1, (n_old - per_new))) //
                         max(1, k - 1 if k > 1 else 1))
                offs = np.arange(per_new)
                gi_parts.append(np.repeat(s + t, per_new))
                gj_parts.append(
                    (s + k + (start[:, None] + offs[None, :])).ravel())
                capped += total - k * per_new
        if not gi_parts:
            continue
        gi = np.concatenate(gi_parts)
        gj = np.concatenate(gj_parts)
        caps = np.zeros(len(gi), dtype=np.int64)
        if len(gi):
            caps[0] = capped
        ii_parts.append(gi)
        jj_parts.append(gj)
        cap_parts.append(caps)

    if not ii_parts:
        return _PAIR_SCHEMA.empty_table()
    return _pairs_from_indices(bucket,
                               np.concatenate(ii_parts),
                               np.concatenate(jj_parts),
                               np.concatenate(cap_parts))


def _tag_new(ds: ray.data.Dataset, is_new: int) -> ray.data.Dataset:
    def f(t: pa.Table) -> pa.Table:
        return t.append_column(
            "is_new", pa.array(np.full(t.num_rows, is_new, dtype=np.int8)))

    return ds.map_batches(f, batch_format="pyarrow")


def make_pairs(blocked: ray.data.Dataset, cfg: PipelineConfig | None = None,
               *, num_buckets: int,
               old_blocked: ray.data.Dataset | None = None):
    """ONE hash-partition of blocked rows by block-key hash; singleton
    pruning, salting and capped accounting all happen INSIDE the
    receiving bucket — every row of a key co-locates, so sizes are
    locally known, nothing is counted up front, broadcast, or collected
    to the driver.  Only pairs touching a row of ``blocked`` are emitted
    (``_emit_pairs_bucket``): ``old_blocked`` (an incremental run's
    probed base rows) joins the exchange flagged old, and old×old pairs
    never leave the bucket.

    Skew safety without pre-splitting: a hot block's emitted pairs are
    bounded by ``max_pairs_per_block`` (chunk size shrinks as the block
    grows, _salted_pair_indices), so the per-block work a bucket task can
    absorb is O(budget) regardless of block size — the reference instead
    silently skips oversized documents
    (src/main/scala/eval/EvalOnDatasets.scala:172; the north_rule forbids
    silent drops, hence the exact capped_pairs accounting)."""
    cfg = cfg or PipelineConfig()

    from ..functions.grouping import hash_exchange

    if old_blocked is not None:
        blocked = _tag_new(old_blocked, 0).union(_tag_new(blocked, 1))

    def per_bucket(bucket: pa.Table) -> pa.Table:
        if bucket.num_rows == 0:
            return _PAIR_SCHEMA.empty_table()
        import polars as pl

        if "is_new" not in bucket.column_names:    # no base rows: all new
            bucket = bucket.append_column(
                "is_new", pa.array(np.ones(bucket.num_rows, dtype=np.int8)))
        ordered = (pl.from_arrow(bucket)
                   .sort(["own_key", "is_new", "mh0", "conv_id"],
                         descending=[False, True, False, False])
                   .to_arrow().cast(bucket.schema))   # polars → large_string
        return _emit_pairs_bucket(ordered, cfg)

    return hash_exchange(blocked, "own_key", per_bucket, num_buckets)


# perfbench/tracing.py wraps the stage under this name as well
make_pairs_incremental = make_pairs


def dedup_pairs(pairs: ray.data.Dataset, num_buckets: int):
    """Keep one row per pair_key (pair-uniqueness invariant, FIXTURES.md
    §5); deterministic first-by-(pair_key, block_key), vectorized per
    hash bucket — the analog of the reference's ``.distinct`` on packed
    pair keys (EntityCooccurrenceIndex.scala:103)."""
    from ..functions.grouping import dedup_keep_first

    return dedup_keep_first(pairs, "pair_key", ["block_key"], num_buckets)


def capped_total(pairs_raw: ray.data.Dataset) -> int:
    """Exact global count of pairs NOT emitted due to salting caps — Sum
    of the first-row markers (see _emit_pairs_bucket).  Must run on the
    RAW make_pairs output (before dedup_pairs)."""
    return int(pairs_raw.sum("capped_pairs") or 0)


def block_inventory(blocked: ray.data.Dataset):
    """block_key → member count (manifest input; analog of the reference's
    per-doc-size histograms, eval/cweb/GlobalCountersCWEB.scala:102-134)."""
    return blocked.groupby("block_key").count()
