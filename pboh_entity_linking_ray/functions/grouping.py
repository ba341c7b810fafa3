"""Bucketed group processing on one shuffle engine: the direct hash
exchange (``hash_exchange``).

Ray's per-group ``groupby(key)`` UDF invokes Python once per key; at
millions of tiny groups the interpreter overhead dwarfs the work (observed
~1 ms/group → 200 s for 200k pair keys).  The idiom here: hash the key
into ``num_buckets`` coarse partitions with a two-stage MapReduce exchange
over raw Ray tasks, and run a **vectorized** per-key computation
(polars/numpy) over each bucket.  Correctness relies only on all rows of
one key landing in one bucket — exactly the hash-partitioning contract a
multi-node shuffle gives.  Every primitive below (sums, dedup, top-k and
the joins) is one ``fn`` over that exchange.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data


def _split_table(tbl: pa.Table, key_col: str, num_buckets: int,
                 inner: int = 1, stage: int = 0,
                 n_out: int | None = None) -> tuple:
    """One block → ``n_out`` slices by key hash (radix-stable argsort +
    zero-copy slice).  The fine bucket of a row is ``hash %
    num_buckets``; ``stage=0`` slices by its HIGH part (``fine //
    inner`` — the flat exchange is the ``inner=1`` case) and
    ``stage=1`` by its LOW part (``fine % inner``, the second round of
    the hierarchical exchange).  Shared by the exchange's map task and
    the fused rekey reduce."""
    import polars as pl

    if n_out is None:
        n_out = num_buckets
    if tbl.num_rows == 0:
        return tuple(tbl for _ in range(n_out))
    h = pl.from_arrow(tbl[key_col].combine_chunks()).hash(seed=17).to_numpy()
    f = (h % np.uint64(num_buckets)).astype(np.int64)
    s = (f // inner) if stage == 0 else (f % inner)
    order = np.argsort(s, kind="stable")
    sorted_tbl = tbl.take(pa.array(order))
    counts = np.bincount(s, minlength=n_out)
    offs = np.concatenate(([0], np.cumsum(counts)))
    return tuple(sorted_tbl.slice(offs[i], counts[i]) for i in range(n_out))


@ray.remote
def _exchange_split(tbl, key_col: str, num_buckets: int,
                    inner: int = 1, stage: int = 0, n_out: int | None = None,
                    prep=None):
    """Map side of the hash exchange (see ``_split_table``).  ``prep``
    (one input's per-block preparation, e.g. a join side's salt
    sub-key) runs first on every block that carries columns."""
    if not isinstance(tbl, pa.Table):          # pandas block from upstream
        tbl = pa.Table.from_pandas(tbl, preserve_index=False)
    if prep is not None and tbl.num_columns:
        tbl = prep(tbl)
    out = _split_table(tbl, key_col, num_buckets, inner, stage, n_out)
    return out if len(out) > 1 else out[0]


def _bucket_table(parts) -> pa.Table:
    """One bucket's slices of one input as a single table.  Ray's map
    operators can emit zero-COLUMN empty blocks (an empty output bundle
    carries no schema), so an all-empty bucket is represented by its
    widest slice, never blindly ``parts[0]``: sibling map tasks' slices
    carry the real schema.  No slices at all (an input with no blocks)
    gives the zero-column empty table."""
    live = [p for p in parts if p.num_rows]
    if live:
        return pa.concat_tables(live, promote_options="permissive")
    return max(parts, key=lambda p: p.num_columns) if parts else pa.table({})


@ray.remote
def _exchange_concat(*parts: pa.Table) -> pa.Table:
    """Consolidation between the two rounds of the hierarchical
    exchange: merge one outer bucket's slices from one map-task group
    into a single block (restores ~input-sized blocks so round 2's
    ref count is blocks/√B × B instead of blocks × B)."""
    return _bucket_table(parts)


@ray.remote
def _exchange_apply(fn, counts: list[int], *parts: pa.Table) -> pa.Table:
    """Reduce side: per input, concat one bucket's slices from every map
    task (``counts`` slices each, in input order), and run the
    vectorized per-bucket ``fn`` on one table per input.

    CONTRACT: ``fn`` may receive a fully-EMPTY table (sparse keys leave
    buckets with no rows) and must return the same output schema for
    empty and non-empty input."""
    tables, i = [], 0
    for c in counts:
        tables.append(_bucket_table(parts[i:i + c]))
        i += c
    if len(tables) == 1 and tables[0].num_columns == 0:
        # EVERY upstream block was a schema-less empty (a map over an
        # entirely-empty dataset emits 0-column blocks): there is no
        # schema to hand fn, so propagate the inert empty — consumers
        # treat 0-column 0-row blocks as no-ops
        return tables[0]
    return fn(*tables)


@ray.remote
def _rekey_apply(fn, key2: str, num_buckets2: int, *parts: pa.Table):
    """First-hop reduce of the fused ``rekey_exchange``: concat one
    key1-bucket's slices, run ``fn``, and split ``fn``'s OUTPUT by the
    key2 hash — the intermediate table goes straight from this task's
    heap into its consumers' fetches, never landing as standalone
    dataset blocks (saves a full write + read + re-split pass of the
    intermediate, which for wedge-sized intermediates is the dominant
    traffic)."""
    bucket = _bucket_table(parts)
    if bucket.num_columns == 0:
        # all-empty schema-less input: propagate inert empties
        return tuple(bucket for _ in range(num_buckets2))
    return _split_table(fn(bucket), key2, num_buckets2)


def rekey_exchange(ds: ray.data.Dataset, key1: str, fn1, key2: str, fn2,
                   num_buckets1: int = 32,
                   num_buckets2: int = 32) -> ray.data.Dataset:
    """Two chained hash exchanges with the intermediate FUSED:
    co-locate ``ds`` by ``key1``, run ``fn1`` per bucket, re-route
    ``fn1``'s output rows by ``key2``, run ``fn2`` per key2-bucket —
    the groupby-then-regroup shape (generate pairs per center then
    combine per pair; count per (a,b) then rank per a; ...).

    Composing two ``hash_exchange`` calls writes the full intermediate
    to the object store, reads it back, and splits it again; here the
    key1 reduce task splits its own output in-heap (``_rekey_apply``),
    so the intermediate crosses the store exactly once — for
    generation stages whose output is much larger than their input
    (wedge/pair emitters) that one saved pass is ~40% of the job's
    traffic.  Driver ref count is O(blocks + B1·B2); same fn contract
    as ``hash_exchange`` (empty tolerance, stable schema), and all
    rows of one key2 land in one output bucket."""
    cols, _ = _map_side(ds, key1, num_buckets1, False)
    if not cols[0]:
        sch = ds.schema(fetch_if_missing=False)
        if sch is None or len(sch.base_schema) == 0:
            return ds
        return ray.data.from_arrow(
            fn2(fn1(sch.base_schema.empty_table())))
    mid = [_rekey_apply.options(num_returns=num_buckets2)
           .remote(fn1, key2, num_buckets2, *cols[i])
           for i in range(num_buckets1)]
    if num_buckets2 == 1:
        mid = [[m] for m in mid]
    return _reduce_side(fn2, [[[mid[i][j] for i in range(num_buckets1)]
                               for j in range(num_buckets2)]])


# above this many buckets the flat exchange's O(blocks × buckets) ref
# count starts to dominate → switch to the two-round hierarchy
TWO_ROUND_THRESHOLD = 256


# exchange buckets per cluster CPU at the floor: every CPU gets work on
# a small input, and the per-bucket task cost stays bounded (2 × 32 CPUs
# keeps the 32-CPU bench at 64 buckets)
BUCKETS_PER_CPU = 2


def buckets_for(n_rows: int, rows_per_bucket: int, cpus: int) -> int:
    """The one bucket-count rule of the linkage exchanges: the power of
    two ≥ ``n_rows / rows_per_bucket`` (one bucket must fit a worker's
    heap), floored at ``BUCKETS_PER_CPU × cpus`` so a small input pays
    a few tasks per CPU, not a fixed 64.  Crossing TWO_ROUND_THRESHOLD
    engages the hierarchical two-round exchange automatically, so the
    same pipeline code holds from 20k conversations to 100 TB."""
    import math

    need = max(1, -(-int(n_rows) // max(1, rows_per_bucket)))
    return max(BUCKETS_PER_CPU * int(cpus), 1 << math.ceil(math.log2(need)))


def hash_exchange(ds: ray.data.Dataset, key_col: str, fn,
                  num_buckets: int = 64,
                  two_round: bool | None = None) -> ray.data.Dataset:
    """Apply ``fn(bucket_table) -> pa.Table`` once per hash bucket of
    ``key_col`` on a DIRECT MapReduce hash exchange (raw Ray tasks)
    instead of Ray Data's sort-based groupby; ``fn`` sees every row of
    each key it receives and does its own per-key vectorized logic.

    The sort shuffle is the wrong substrate for a pure hash partition: it
    samples key ranges, sorts every block, and merge-reduces — measured
    ~34 s per exchange for a 1.9M-row / 240 MB feature join at 16 CPUs,
    where the actual required work (hash, split, concat) is O(n) and
    takes ~2 s.  Each input block is split into bucket slices (one Ray
    task per block, ``num_returns`` bucket objects), and each bucket
    concatenates its slices from every map task and runs ``fn`` (one Ray
    task per bucket) — the classic two-stage shuffle, expressed in ~30
    lines because the object store IS the exchange fabric.  On a
    multi-node cluster the bucket tasks pull only their own slices (Ray
    locality-schedules against the largest input), exactly like a
    map-reduce shuffle fetch.

    **Streaming intake** (``_map_side``): input blocks are consumed
    through ``iter_internal_ref_bundles`` — split tasks launch as
    upstream operators emit blocks, overlapping the exchange's map side
    with upstream compute instead of materializing the whole input
    first; the stream's bundles also carry the input's schema.  (The
    reduce side, ``_reduce_side``, is still a barrier — that is what a
    shuffle is; the joins hand it two inputs and their bucket ``fn``
    gets one table per side.)

    **Hierarchical two-round mode** (automatic above
    ``TWO_ROUND_THRESHOLD`` buckets, or forced with ``two_round=True``):
    the flat exchange creates O(blocks × buckets) intermediate refs —
    fine to a few thousand of each, but at 100 TB-scale bucket counts
    (≥ 2k) the object-store metadata bill explodes.  Instead, round 1
    exchanges by the HIGH part of the bucket id into ``outer ≈ √B``
    coarse groups, consolidating each group's slices per ``outer``-sized
    band of map tasks back into input-sized blocks; round 2 re-splits
    those consolidated blocks by the LOW part and applies ``fn`` per
    fine bucket.  Ref count drops from O(blocks × B) to
    O(blocks × √B)·2, and no task ever holds more than ~the larger of
    (input block × outer / outer) and one fine bucket.  Measured at
    4M rows / 64 blocks / 1024 buckets / 32 CPUs: 1.2 s two-round vs
    2.8 s flat — the flat mode's 65k tiny objects cost more than the
    extra consolidation pass long before the metadata ceiling bites.

    CONTRACT: ``fn`` must tolerate an EMPTY input table (sparse keys ⇒
    empty buckets reach ``fn``) and must emit a stable schema regardless
    of input size.  All rows of one key land in one fine bucket — the
    partitioning contract every consumer assumes.  Bucket results return
    in fine-bucket order in both modes.
    """
    if two_round is None:
        two_round = num_buckets > TWO_ROUND_THRESHOLD
    parts, _ = _map_side(ds, key_col, num_buckets, two_round)
    if not parts[0]:
        # zero input blocks: honor the fn contract anyway — apply fn to
        # an empty table of the input schema so consumers see fn's
        # OUTPUT schema
        sch = ds.schema(fetch_if_missing=False)
        if sch is None or len(sch.base_schema) == 0:
            # unknown or zero-column schema: nothing to hand fn
            return ds
        return ray.data.from_arrow(fn(sch.base_schema.empty_table()))
    return _reduce_side(fn, [parts])


def _stream_block_refs(ds: ray.data.Dataset):
    """Yield ``(block_ref, schema)`` as the streaming executor produces
    them (no whole-input materialization before the exchange's map side
    starts).  ``schema`` is the block's bundle schema, None when the
    bundle carries no columns (Ray's zero-column empty blocks)."""
    for bundle in ds.iter_internal_ref_bundles():
        sch = bundle.schema
        if sch is not None and len(sch.names) == 0:
            sch = None
        for ref in bundle.block_refs:
            yield ref, sch


def _split_blocks(refs, key_col: str, num_buckets: int, inner: int,
                  stage: int, n_out: int, prep=None) -> list[list]:
    """One split task per block → per-output lists of slice refs."""
    split = _exchange_split.options(num_returns=n_out)
    cols: list[list] = [[] for _ in range(n_out)]
    for ref in refs:
        outs = split.remote(ref, key_col, num_buckets, inner, stage, n_out,
                            prep)
        for i, r in enumerate([outs] if n_out == 1 else outs):
            cols[i].append(r)
    return cols


def _map_side(ds: ray.data.Dataset, key_col: str, num_buckets: int,
              two_round: bool, prep=None) -> tuple[list[list], object]:
    """The exchange's map side for ONE input: stream ``ds`` and split
    every block by ``key_col`` (after ``prep``, see ``_exchange_split``).
    Returns ``(parts, schema)``: per fine bucket the slice refs of every
    map task (empty lists for an input with no blocks), and the first
    non-empty schema the stream carried (None when it carried none) —
    the schema comes from the stream the exchange consumes anyway, so
    no ``Dataset.schema()`` fetch runs a partial copy of the plan."""
    schema = None

    def refs():
        nonlocal schema
        for ref, sch in _stream_block_refs(ds):
            if schema is None:
                schema = sch
            yield ref

    if prep is not None:
        prep = ray.put(prep)              # shipped once, not per task
    if not two_round:
        return (_split_blocks(refs(), key_col, num_buckets, 1, 0,
                              num_buckets, prep), schema)
    outer = max(2, int(np.ceil(np.sqrt(num_buckets))))
    inner = int(np.ceil(num_buckets / outer))
    outer = int(np.ceil(num_buckets / inner))   # trim overshoot
    # round 1: block → outer coarse slices, consolidated per band of
    # ``outer`` map tasks (band width = outer keeps consolidated blocks
    # at ~input block size)
    oc = _split_blocks(refs(), key_col, num_buckets, inner, 0, outer, prep)
    # round 2: consolidated block → inner fine slices
    parts: list[list] = []
    for o in range(outer):
        cons = [_exchange_concat.remote(*oc[o][g:g + outer])
                for g in range(0, len(oc[o]), outer)]
        parts.extend(_split_blocks(cons, key_col, num_buckets, inner, 1,
                                   min(inner, num_buckets - o * inner)))
    return parts, schema


def _reduce_side(fn, inputs: list[list[list]]) -> ray.data.Dataset:
    """The exchange's reduce side: one ``_exchange_apply`` task per fine
    bucket over that bucket's slices of every input (``_map_side``
    parts).  The result is materialized over the bucket outputs, so
    reading it back runs no further Ray Data execution."""
    out_refs = [_exchange_apply.remote(fn, [len(p[b]) for p in inputs],
                                       *[r for p in inputs for r in p[b]])
                for b in range(len(inputs[0]))]
    return ray.data.from_arrow_refs(out_refs).materialize()


# perfbench/tracing.py wraps the exchange under this name as well
bucketed_groups = hash_exchange


def bucketed_sum(ds: ray.data.Dataset, key_cols: list[str], sum_col: str,
                 out_name: str, num_buckets: int = 64) -> ray.data.Dataset:
    """groupby(key).sum(sum_col) with vectorized per-bucket polars hash
    aggregation — Ray's native Aggregate builds result rows in Python per
    group (observed ~15 µs/group → 48 s for 3M co-occurrence keys)."""
    return bucketed_sum_multi(ds, key_cols, {sum_col: out_name}, num_buckets)


def bucketed_sum_multi(ds: ray.data.Dataset, key_cols: list[str],
                       sum_cols: dict[str, str],
                       num_buckets: int = 64) -> ray.data.Dataset:
    """Several sums over the same keys in ONE shuffle (fused-stats
    pattern: a second stats table over the same key space should never
    pay a second exchange)."""

    def fn(t: pa.Table) -> pa.Table:
        import polars as pl

        out = (
            pl.from_arrow(t)
            .group_by(key_cols)
            .agg(*[pl.col(c).sum().alias(o) for c, o in sum_cols.items()])
        )
        return out.to_arrow()

    return hash_exchange(ds, key_cols[0], fn, num_buckets)


SKEY_COL = "__skey"
SALT_COL = "__salt"
NSALT_COL = "__nsalt"
# i-th salt sub-key offset = i × GOLDEN mod 2^64 (computed in Python
# ints: a numpy scalar multiply would warn on the intended overflow)
_GOLDEN = 0x9E3779B97F4A7C15


def _arrow_schema(sch, op: str):
    """A join side's streamed schema as an Arrow schema (None stays
    None: the side carried no columns)."""
    if sch is not None and not isinstance(sch, pa.Schema):
        raise TypeError(f"{op} needs Arrow blocks; got {type(sch).__name__}"
                        " (map with batch_format='pyarrow')")
    return sch


def _cast_keys(t: pa.Table, types: dict) -> pa.Table:
    """Cast ``t``'s key columns to ``types`` (the right key to the left
    key's type, so both sides route and match alike)."""
    for name, typ in types.items():
        if t[name].type != typ:
            t = t.set_column(t.schema.get_field_index(name), name,
                             t[name].cast(typ))
    return t


def _key_hash(t: pa.Table, on_cols: list[str]) -> np.ndarray:
    import polars as pl

    if len(on_cols) == 1:
        h = pl.from_arrow(t[on_cols[0]].combine_chunks()).hash(seed=23)
    else:
        h = pl.from_arrow(t.select(on_cols)).hash_rows(seed=23)
    return h.to_numpy().astype(np.uint64, copy=False)


def _salt_counts(salt, on: str):
    """Per-row salt count of a block's ``on`` keys: None (every key
    once), an int (every key), or a dict key → count (those keys; the
    rest once — the map rides the object store ONCE and resolves per
    block via one polars left join, ``_bcast_frame`` cache)."""
    if salt is None:
        return None
    if isinstance(salt, int):
        return lambda t: np.full(t.num_rows, salt, dtype=np.int64)
    map_ref = ray.put(pa.table({
        on: pa.array(list(salt.keys())),
        NSALT_COL: pa.array(list(salt.values()), type=pa.int64())}))

    def counts(t: pa.Table) -> np.ndarray:
        import polars as pl

        keys = pl.from_arrow(t.select([on]).combine_chunks())
        m = _bcast_frame(map_ref)
        if m[on].dtype != keys[on].dtype:   # map keys → the column's type
            m = m.with_columns(pl.col(on).cast(keys[on].dtype))
        j = keys.join(m, on=on, how="left", maintain_order="left")
        return j[NSALT_COL].fill_null(1).to_numpy().astype(np.int64,
                                                          copy=False)

    return counts


def _join(left: ray.data.Dataset, right: ray.data.Dataset,
          on: str | list[str], num_buckets: int, how: str, post,
          salt, op: str) -> ray.data.Dataset:
    """The one body of ``hash_join``, ``salted_join`` and ``skew_join``.

    ``salt`` is the per-key salt count: None routes every key once by
    its own hash (``on`` itself, or a packed row-hash for a composite
    key); otherwise each LEFT row of a key with count s gets sub-key
    ``row % s`` and each RIGHT row of that key is replicated s times,
    one copy per sub-key, all routed by ``hash(key) + sub × GOLDEN``
    and matched on (key, sub-key) — every (left, right) match meets in
    exactly one bucket.

    Both sides run through the exchange's map side one after the other
    (left first, so the right key is cast to the left key's type before
    it is hashed); each side's per-block prep runs inside its split
    tasks.  The output schema is built from the schemas the two streams
    carried, before any reduce task starts, so a collision raises at
    call time.  A side whose stream carried no schema (Ray loses it on
    a fully-EMPTY input) has no rows: with no left schema every ``how``
    but "full" yields no rows and "full" returns the right side as it
    is; with no right schema inner/semi keep no left row, left/anti/
    full keep every one, with the left columns only (the right's are
    unknowable) and without ``post``."""
    on_cols = [on] if isinstance(on, str) else list(on)
    filtering = how in ("semi", "anti")
    keyed = salt is not None or len(on_cols) > 1
    route = SKEY_COL if keyed else on_cols[0]
    two_round = num_buckets > TWO_ROUND_THRESHOLD
    nsalt = _salt_counts(salt, on_cols[0])
    off = None
    if salt is not None:
        top = salt if isinstance(salt, int) else max(salt.values())
        off = np.array([(i * _GOLDEN) & 0xFFFFFFFFFFFFFFFF
                        for i in range(top)], dtype=np.uint64)

    def sub_keyed(t: pa.Table, sub) -> pa.Table:
        h = _key_hash(t, on_cols)
        if sub is None:
            return t.append_column(SKEY_COL, pa.array(h.view(np.int64)))
        return (t.append_column(SKEY_COL,
                                pa.array((h + off[sub]).view(np.int64)))
                .append_column(SALT_COL, pa.array(sub)))

    def prep_left(t: pa.Table) -> pa.Table:
        if salt is None:
            return sub_keyed(t, None)
        return sub_keyed(t, np.arange(t.num_rows, dtype=np.int64)
                         % nsalt(t))

    lparts, ls = _map_side(left, route, num_buckets, two_round,
                           prep_left if keyed else None)
    ls = _arrow_schema(ls, op)
    if ls is None:
        return right if how == "full" else ray.data.from_arrow(pa.table({}))
    key_types = {c: ls.field(c).type for c in on_cols}

    def prep_right(t: pa.Table) -> pa.Table:
        t = _cast_keys(t, key_types)
        if filtering:
            # semi/anti return left rows only: the right side ships its
            # KEY column(s) alone (the skinny-probe optimization)
            t = t.select(on_cols)
        if salt is None:
            return sub_keyed(t, None) if keyed else t
        ns = nsalt(t)
        idx = np.repeat(np.arange(t.num_rows, dtype=np.int64), ns)
        starts = np.repeat(np.cumsum(ns) - ns, ns)    # copy index 0..ns-1
        return sub_keyed(t.take(pa.array(idx)),
                         np.arange(len(idx), dtype=np.int64) - starts)

    rparts, rs = _map_side(right, route, num_buckets, two_round, prep_right)
    rs = _arrow_schema(rs, op)
    lf = list(zip(ls.names, ls.types))
    r_rest = [] if filtering or rs is None else \
        [(n, t) for n, t in zip(rs.names, rs.types) if n not in on_cols]
    overlap = set(ls.names) & {n for n, _ in r_rest}
    if overlap:
        raise ValueError(f"{op} column collision: {sorted(overlap)}")
    out_schema = pa.schema(lf + r_rest)
    salt_cols = [] if salt is None else [SALT_COL]
    keep_all = how not in ("inner", "semi")

    def join_bucket(lt: pa.Table, rt: pa.Table) -> pa.Table:
        import polars as pl

        if rs is None:
            return (lt if keep_all else lt.slice(0, 0)) \
                .select(ls.names).cast(out_schema)
        lhs = pl.from_arrow(lt).select(ls.names + salt_cols)
        rhs = pl.from_arrow(rt).select(on_cols + salt_cols
                                       + [n for n, _ in r_rest])
        # join on (key, sub-key): a bucket can hold right COPIES of
        # another sub-key of the same key; full outer coalesces the two
        # key columns into one so unmatched right rows keep their key
        out = lhs.join(rhs, on=on_cols + salt_cols, how=how,
                       coalesce=True if how == "full" else None)
        joined = out.select(out_schema.names).to_arrow().cast(out_schema)
        return post(joined) if post is not None else joined

    return _reduce_side(join_bucket, [lparts, rparts])


def hash_join(left: ray.data.Dataset, right: ray.data.Dataset,
              on: str | list[str],
              num_buckets: int = 64, how: str = "inner",
              post=None) -> ray.data.Dataset:
    """Distributed large×large hash join on same-named key column(s).

    ``on`` may be a LIST for a composite equality key: rows are then
    ROUTED by a packed row-hash of the key columns (hash collisions are
    harmless — they only co-locate extra rows; the in-bucket join
    matches on the real column list, so equality is exact) and the
    packed column never appears in the output.

    Both sides are hash-partitioned on ``on`` into the same buckets (one
    exchange that takes both sides' blocks), then each bucket is joined
    vectorized with polars — the bucketed co-group idiom (all rows of
    one key meet in one bucket), never a driver-side collect of either
    side.  Non-key column names must be disjoint; rename before joining.

    ``how`` ∈ {"inner", "left", "semi", "anti", "full"} (polars
    semantics); semi/anti return LEFT columns only and ship only the
    right side's key column through the exchange; "full" (full outer)
    coalesces the key so unmatched rows of EITHER side survive with one
    non-null key column.

    Output fields derive from the schemas the two input streams carry
    (``_join``): no ``Dataset.schema()`` fetch, so a lazy projection or
    rename upstream is seen exactly as its blocks are.

    Reference analog: the doc-text ⋈ anchors groupByKey co-group
    (reference: src/main/scala/context/EntityWordsProbs.scala:198-202) —
    the reference's only join device beyond broadcast lookups.

    ``post`` (optional, ``fn(pa.Table) -> pa.Table``) runs on each
    bucket's join output INSIDE the bucket task — operator fusion for a
    consumer that immediately maps the joined rows (e.g. the pair scorer):
    the wide joined table never crosses an operator boundary through the
    object store.
    """
    return _join(left, right, on, num_buckets, how, post, None, "hash_join")


def _suffix_join(left: ray.data.Dataset, right: ray.data.Dataset, by: str,
                 suffix: str, num_buckets: int, op: str, bucket_fn,
                 keep_unmatched: bool) -> ray.data.Dataset:
    """Shared plumbing of the two inequality joins (asof/interval): the
    ``_join`` intake on the equality key ``by`` with the right side's
    non-key columns renamed with ``suffix`` in its prep.  ``bucket_fn(
    lhs, rhs, out_schema)`` resolves one bucket; a side that streamed no
    schema has no rows (``keep_unmatched``: the left rows survive with
    the left columns only)."""
    two_round = num_buckets > TWO_ROUND_THRESHOLD
    lparts, ls = _map_side(left, by, num_buckets, two_round)
    ls = _arrow_schema(ls, op)
    if ls is None:
        return ray.data.from_arrow(pa.table({}))
    key_type = {by: ls.field(by).type}

    def prep_right(t: pa.Table) -> pa.Table:
        return _cast_keys(t, key_type).rename_columns(
            [n if n == by else n + suffix for n in t.column_names])

    rparts, rs = _map_side(right, by, num_buckets, two_round, prep_right)
    rs = _arrow_schema(rs, op)
    r_fields = [] if rs is None else \
        [(n + suffix, t) for n, t in zip(rs.names, rs.types) if n != by]
    overlap = set(ls.names) & {n for n, _ in r_fields}
    if overlap:
        raise ValueError(f"{op} column collision: {sorted(overlap)}")
    out_schema = pa.schema(list(zip(ls.names, ls.types)) + r_fields)

    def bucket(lt: pa.Table, rt: pa.Table) -> pa.Table:
        import polars as pl

        if rs is None:
            return (lt if keep_unmatched else lt.slice(0, 0)).cast(out_schema)
        return bucket_fn(pl.from_arrow(lt), pl.from_arrow(rt), out_schema)

    return _reduce_side(bucket, [lparts, rparts])


def asof_join(left: ray.data.Dataset, right: ray.data.Dataset, by: str,
              on: str, num_buckets: int = 64,
              suffix: str = "_r") -> ray.data.Dataset:
    """Distributed as-of join (inequality join Ray Data has no native
    operator for): each left row picks the most recent right row with
    the same ``by`` key and ``right.on <= left.on`` (backward match,
    ties on the timestamp included); unmatched left rows keep nulls
    (left join).

    Partitioning contract: both sides hash-partition on the EQUALITY
    key ``by`` into the same buckets — ONE hash exchange over both
    sides, the same co-group idiom as ``hash_join`` — so every (left,
    right) pair that could match meets in exactly one bucket; no global
    sort of either side.  Inside a bucket both sides sort by ``on`` and
    a single vectorized ``polars.join_asof`` merge resolves every left
    row (O(n log n) per bucket, merge itself linear).

    Right-side non-key columns are renamed with ``suffix``; the right
    match timestamp comes back as ``on + suffix``.  If several right
    rows share an exact (by, on) pair the one that wins is
    engine-ordering-dependent — project the right side to columns
    determined by (by, on) when exact tie determinism matters.
    """
    on_r = on + suffix

    def asof_bucket(lhs, rhs, out_schema: pa.Schema) -> pa.Table:
        import polars as pl

        tmp = "__asof_on"
        # join on a DUPLICATE of the right-on column so the matched
        # row's timestamp always survives as the plain data column
        # ``on_r`` — polars versions differ on whether join_asof keeps
        # or drops its right_on key
        rhs = rhs.sort(on_r).with_columns(pl.col(on_r).alias(tmp))
        out = lhs.sort(on).join_asof(rhs, left_on=on, right_on=tmp, by=by,
                                     strategy="backward")
        return out.select(out_schema.names).to_arrow().cast(out_schema)

    return _suffix_join(left, right, by, suffix, num_buckets, "asof_join",
                        asof_bucket, True)


def interval_join(left: ray.data.Dataset, right: ray.data.Dataset, by: str,
                  on: str, start: str, end: str, num_buckets: int = 64,
                  suffix: str = "_r", post=None) -> ray.data.Dataset:
    """Distributed range (interval) join — the second inequality join Ray
    Data lacks natively: each left point row (``by``, ``on``) matches
    every right interval row (``by``, ``start``, ``end``) with the same
    key and ``start <= on < end`` (half-open, inner join).

    Same partitioning contract as ``asof_join``: ONE hash exchange over
    both sides on the equality key co-locates every possibly-matching
    pair; inside a bucket a vectorized polars equality join on ``by``
    followed by the interval filter resolves the matches.  Per-key work
    is O(points × intervals) for that key — the join's true output bound
    when intervals overlap — so, as with any PARTITION BY engine, a key's
    full history must fit one bucket task; size ``num_buckets`` with
    ``buckets_for`` and keep hot keys' interval counts bounded upstream.

    ``post`` (``fn(pa.Table) -> pa.Table``) runs on each bucket's joined
    rows INSIDE the bucket task — the same fusion hook as ``hash_join``:
    a consumer that immediately aggregates per interval (intervals
    belong to one key, hence one bucket) collapses the join output
    before it ever crosses an operator boundary.

    Right-side non-key columns (including ``start``/``end``) come back
    renamed with ``suffix``.
    """
    start_r, end_r = start + suffix, end + suffix

    def interval_bucket(lhs, rhs, out_schema: pa.Schema) -> pa.Table:
        import polars as pl

        out = (lhs.join(rhs, on=by, how="inner")
               .filter((pl.col(on) >= pl.col(start_r))
                       & (pl.col(on) < pl.col(end_r))))
        joined = out.select(out_schema.names).to_arrow().cast(out_schema)
        return post(joined) if post is not None else joined

    return _suffix_join(left, right, by, suffix, num_buckets,
                        "interval_join", interval_bucket, False)


def dedup_keep_first(ds: ray.data.Dataset, key_col: str,
                     order_cols: list[str] | None = None,
                     num_buckets: int = 64) -> ray.data.Dataset:
    """Keep exactly one row per key, deterministically (sorted by
    key + order_cols, first wins).  Vectorized per bucket."""
    order = [key_col] + (order_cols or [])

    def fn(t: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(t)
        out = df.sort(order).unique(subset=[key_col], keep="first",
                                    maintain_order=True)
        return out.to_arrow().cast(t.schema)

    return hash_exchange(ds, key_col, fn, num_buckets)


def topk_per_group(ds: ray.data.Dataset, group_col: str, order_col: str,
                   k: int, *, descending: bool = True,
                   tie_cols: list[str] | None = None,
                   num_buckets: int = 64) -> ray.data.Dataset:
    """Deterministic top-k rows per group (ordered by ``order_col``,
    ties broken by ``tie_cols`` ascending).

    Two-level, combiner-first: a per-BATCH partial top-k runs inside
    ``map_batches`` — each map task forwards at most k rows per group it
    saw — so the exchange that follows moves O(k × groups) skinny rows,
    never the input; the per-bucket final pass resolves across batches.
    This is the grouped analog of the global partial-top-k pattern in
    ``stages/featurize.py`` / ann's per-batch top-k."""
    ties = tie_cols or []

    def cut(t: pa.Table) -> pa.Table:
        import polars as pl

        if t.num_rows == 0 or group_col not in t.column_names:
            return t       # zero-COLUMN empty map block: pass through
        df = pl.from_arrow(t)
        out = (df.sort([order_col, *ties],
                       descending=[descending] + [False] * len(ties))
               .group_by(group_col, maintain_order=True).head(k))
        return out.select(df.columns).to_arrow().cast(t.schema)

    partial = ds.map_batches(cut, batch_format="pyarrow")
    return hash_exchange(partial, group_col, cut, num_buckets)


# per-WORKER-PROCESS cache of broadcast dimension frames, keyed by the
# object ref: the first batch a worker sees pays one zero-copy plasma
# read + polars frame build, every later batch (from any task) reuses it.
# Plain tasks + a process cache beat an actor pool here: the warm Ray
# worker pool serves immediately (no per-actor spin-up/import), and the
# stage composes/fuses like any other map.  Bounded: dims are small by
# contract; evict oldest beyond a handful.
_BCAST_CACHE: dict = {}
_BCAST_CACHE_MAX = 8


def _bcast_frame(ref):
    import polars as pl

    key = ref.hex()
    rhs = _BCAST_CACHE.get(key)
    if rhs is None:
        rhs = pl.from_arrow(ray.get(ref))
        if len(_BCAST_CACHE) >= _BCAST_CACHE_MAX:
            _BCAST_CACHE.pop(next(iter(_BCAST_CACHE)))
        _BCAST_CACHE[key] = rhs
    return rhs


def broadcast_join(large: ray.data.Dataset, small: "pa.Table", on: str,
                   how: str = "inner", post=None,
                   batch_size: int | None = None) -> ray.data.Dataset:
    """Map-side (broadcast) join: a streaming large side ⋈ a bounded
    driver-resident dimension table, with NO shuffle of the large side.

    The canonical small-dimension pattern the prompt calls out: ``small``
    is ``ray.put`` into the object store ONCE; each worker process reads
    it zero-copy and builds its polars frame ONCE (``_bcast_frame``
    process cache — never per batch, never re-shipped per task); every
    large-side batch then joins locally inside ``map_batches``.
    Contrast ``hash_join``, which exchanges BOTH sides — use that when
    neither side fits in a worker's heap.

    Contract: ``small`` must fit in one worker's heap (dimension tables,
    lookup maps — NOT a second fact table); deduplication on ``on``
    is NOT required — duplicate keys multiply rows exactly like SQL.

    ``how`` ∈ {"inner", "left", "semi", "anti"} (polars semantics;
    semi/anti keep only large-side columns).  ``post`` fuses a consumer
    (e.g. a partial aggregate) into the join task so wide joined rows
    never cross an operator boundary.

    Reference analog: the reference's index wrappers resolve mentions
    against broadcast in-memory maps on every worker
    (src/main/scala/index/AllIndexesBox.scala) — this is that pattern as
    a first-class relational operator.
    """
    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(f"broadcast_join: unsupported how={how!r}")
    keep_small = [] if how in ("semi", "anti") else \
        [n for n in small.column_names if n != on]

    def check(names) -> None:
        overlap = set(names) & set(keep_small)
        if overlap:
            raise ValueError("broadcast_join column collision: "
                             f"{sorted(overlap)}")

    # known without a fetch when ``large`` is materialized; a lazy large
    # side is checked per batch instead
    sch = large.schema(fetch_if_missing=False)
    if sch is not None:
        check(sch.names)
    small_ref = ray.put(small.select([on] + keep_small))

    def join_batch(t: pa.Table) -> pa.Table:
        import polars as pl

        if on not in t.column_names:
            return t                   # zero-COLUMN empty block: inert
        check(t.column_names)
        out = (pl.from_arrow(t)
               .join(_bcast_frame(small_ref), on=on, how=how,
                     maintain_order="left").to_arrow())
        return post(out) if post is not None else out

    return large.map_batches(join_batch, batch_format="pyarrow",
                             batch_size=batch_size)


def salted_join(left: ray.data.Dataset, right: ray.data.Dataset, on: str,
                salt: int = 8, num_buckets: int = 64, how: str = "inner",
                post=None) -> ray.data.Dataset:
    """Skew-resilient variant of ``hash_join`` for HOT KEYS: a plain
    hash join puts ALL rows of one key in one bucket, so a key holding
    10% of a 100 TB fact table pins 10 TB on a single task.  Here each
    LEFT row is assigned one of ``salt`` sub-keys (round-robin per
    block) and the RIGHT side is replicated once per sub-key, so a hot
    key's left rows spread across ``salt`` buckets while every bucket
    still holds the right rows it needs — the ``_join`` body with the
    same salt count for every key.  Output is identical to
    ``hash_join`` for every ``how`` (inner/left/semi/anti).

    COST: the right side ships ``salt``× through the exchange — use
    when the right side is the small(er) side but too big for
    ``broadcast_join``, and the left carries the skew.  Same per-bucket
    fusion hook (``post``) as hash_join.

    Reference analog: the explicit document-size salting of the
    flagship blocker (stages/blocking.py) generalised to a relational
    join operator.
    """
    if how == "full":
        # right rows are replicated once per sub-key: an UNMATCHED right
        # row would surface `salt` times instead of once — full outer
        # needs the unsalted exchange
        raise ValueError("salted_join does not support how='full'; "
                         "use hash_join")
    if salt < 2:
        return hash_join(left, right, on, num_buckets, how, post)
    return _join(left, right, on, num_buckets, how, post, int(salt),
                 "salted_join")


def skew_join(left: ray.data.Dataset, right: ray.data.Dataset, on: str,
              hot_keys: dict, num_buckets: int = 64, how: str = "inner",
              post=None) -> ray.data.Dataset:
    """``hash_join`` with a PER-KEY salt map — the surgical version of
    ``salted_join``: only the keys named in ``hot_keys`` (key → salt
    count ≥ 2) are spread across sub-buckets, and the right side
    replicates each hot key's rows exactly ``salt_k`` times while COLD
    keys ship once, exactly as in a plain hash join.  ``salted_join``
    by contrast ships the ENTIRE right side ``salt``× — the right tool
    when the whole left is skew-prone; this one is the right tool when
    a handful of keys hold a disproportionate share (the Zipf reality
    of web-scale keys: one key with 10% of a 100 TB fact table pins
    10 TB on one task under a plain exchange).

    Output is identical to ``hash_join`` for every supported ``how``
    (inner/left/semi/anti): each (left row, right row) match meets in
    exactly one (key, sub-key) bucket.  ``how='full'`` is rejected —
    an unmatched hot right row would surface once per replica.
    """
    if how == "full":
        raise ValueError("skew_join does not support how='full'; "
                         "use hash_join")
    hot = {k: int(s) for k, s in hot_keys.items() if int(s) >= 2}
    if not hot:
        return hash_join(left, right, on, num_buckets, how, post)
    return _join(left, right, on, num_buckets, how, post, hot, "skew_join")


@ray.remote
def _sample_top(tbl, on: str, frac: float, top: int, seed: list[int]):
    """One block's seeded Bernoulli row sample → its ``top`` most
    frequent ``on`` keys with counts, and the sample size (None for a
    block without rows or without the column)."""
    import polars as pl

    if not isinstance(tbl, pa.Table):          # pandas block from upstream
        tbl = pa.Table.from_pandas(tbl, preserve_index=False)
    if tbl.num_rows == 0 or on not in tbl.column_names:
        return None
    col = tbl[on].combine_chunks()
    if frac < 1.0:
        col = col.filter(pa.array(
            np.random.default_rng(seed).random(len(col)) < frac))
    vc = pl.Series(on, col).value_counts(sort=True).head(top)
    return vc.with_columns(pl.col("count").cast(pl.Int64)).to_arrow(), \
        len(col)


def detect_hot_keys(ds: ray.data.Dataset, on: str, *,
                    sample_frac: float = 0.05, hot_frac: float = 0.01,
                    num_buckets: int = 64, max_salt: int = 16,
                    per_batch_top: int = 16,
                    seed: int = 7) -> dict:
    """Estimate the hot-key set of ``ds[on]`` from one cheap sampled
    pass: per block, the ``per_batch_top`` most frequent keys of a
    seeded row sample (plus the sample size), computed by one plain
    task per streamed block — O(top × blocks) skinny rows reach the
    driver, never the data, and the key type is the blocks' own.  A key
    is HOT when its sampled share is ≥ ``hot_frac``; its salt is sized
    so its rows spread to roughly the per-bucket average (share ×
    num_buckets, clamped to [2, max_salt]).

    The estimate only steers PERFORMANCE: ``skew_join`` output is
    identical whatever map this returns (a missed hot key just joins
    unsalted; a false positive pays a few duplicate right rows), so the
    sampling noise is harmless by construction — the reason this can be
    a sample instead of an exact histogram.
    """
    outs = [o for o in ray.get([
        _sample_top.remote(ref, on, sample_frac, per_batch_top, [seed, i])
        for i, (ref, _) in enumerate(_stream_block_refs(ds))])
        if o is not None]
    total = sum(n for _, n in outs)
    if total == 0:
        return {}
    counts = (pa.concat_tables([vc for vc, _ in outs],
                               promote_options="permissive")
              .group_by(on).aggregate([("count", "sum")]))
    hot = {}
    for k, c in zip(counts[on].to_pylist(),
                    counts["count_sum"].to_pylist()):
        share = c / total
        if share >= hot_frac:
            hot[k] = int(min(max_salt,
                             max(2, int(np.ceil(share * num_buckets)))))
    return hot


def adaptive_skew_join(left: ray.data.Dataset, right: ray.data.Dataset,
                       on: str, num_buckets: int = 64, how: str = "inner",
                       post=None, *, sample_frac: float = 0.05,
                       hot_frac: float = 0.01,
                       max_salt: int = 16) -> ray.data.Dataset:
    """``hash_join`` that defends itself against key skew: sample the
    LEFT side's key histogram (``detect_hot_keys``), then salt exactly
    the detected hot keys (``skew_join``) — or run the plain join when
    the histogram is flat.  The detection pass streams the left side
    once and reads only its key column; the join result is identical
    either way.

    ``how='full'`` always routes to the plain ``hash_join`` (which
    supports it) — ``skew_join`` rejects full outer, and whether the
    detector fires depends on sampling noise, so branching on it would
    make the error data-dependent.
    """
    if how == "full":
        return hash_join(left, right, on, num_buckets, how, post)
    hot = detect_hot_keys(left, on, sample_frac=sample_frac,
                          hot_frac=hot_frac, num_buckets=num_buckets,
                          max_salt=max_salt)
    if not hot:
        return hash_join(left, right, on, num_buckets, how, post)
    return skew_join(left, right, on, hot, num_buckets, how, post)


# --- distributed prefix sum (scan) -------------------------------------------

RNG_COL = "__rng"


def range_prefix_sum(ds: ray.data.Dataset, order_col: str, value_col: str,
                     out_name: str = "cum_before", *,
                     group_col: str | None = None,
                     range_width: int = 4096,
                     num_buckets: int = 64) -> ray.data.Dataset:
    """EXCLUSIVE running sum of ``value_col`` in ``order_col`` order
    (optionally per ``group_col``) — the distributed scan primitive Ray
    Data lacks.  Unlike a window over one hash bucket per group (the
    ``q53`` shape), this has NO single-task ceiling: a stream of any
    size splits across range buckets.

    Two light passes, no global sort:
    1. per-batch subtotals per (group, range) where range =
       ``order_col // range_width``, merged on the driver into exclusive
       base offsets — O(#ranges) driver state; size ``range_width`` so
       #ranges stays millions at most (at 10^10 rows, width 2^20 →
       ~10^4 ranges);
    2. ONE hash exchange on the range id; per bucket a local in-range
       sort + cumulative sum plus the broadcast base (base table read
       via the ``_bcast_frame`` per-process cache, never re-shipped).

    ``order_col`` and ``value_col`` must be integer columns; ties in
    ``order_col`` are broken by input order within a range (make
    ``order_col`` unique for fully deterministic output).
    """
    import pyarrow.compute as _pc

    keys = ([group_col] if group_col else []) + [RNG_COL]

    def subtotal(t: pa.Table) -> pa.Table:
        import polars as pl

        if t.num_rows == 0 or order_col not in t.column_names:
            return pa.table({})      # zero-COLUMN empty map block (the
                                     # driver merge filters empties)
        df = pl.from_arrow(t.select(
            ([group_col] if group_col else []) + [order_col, value_col]))
        df = df.with_columns(
            (pl.col(order_col) // range_width).alias(RNG_COL))
        return (df.group_by(keys)
                .agg(pl.col(value_col).sum().alias("__tot"))
                .to_arrow())

    # driver merge: O(groups × ranges) tiny rows
    import polars as pl

    parts = [pl.from_arrow(b) for b in ds
             .map_batches(subtotal, batch_format="pyarrow")
             .iter_batches(batch_format="pyarrow") if b.num_rows]
    if parts:
        tot = (pl.concat(parts).group_by(keys)
               .agg(pl.col("__tot").sum()).sort(keys))
        base = tot.with_columns(
            (pl.col("__tot").cum_sum() - pl.col("__tot"))
            .over(group_col).alias("__base")
            if group_col else
            (pl.col("__tot").cum_sum() - pl.col("__tot")).alias("__base")
        ).select(keys + ["__base"])
    else:
        schema = {RNG_COL: pl.Int64, "__base": pl.Int64}
        if group_col:
            schema = {group_col: pl.String, **schema}
        base = pl.DataFrame(schema=schema)
    base_ref = ray.put(base.to_arrow())

    def add_rng(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or order_col not in t.column_names:
            return t                 # scan_bucket's inert-empty guard
        rng = _pc.divide(t[order_col], range_width)
        return t.append_column(RNG_COL, _pc.cast(rng, pa.int64()))

    def scan_bucket(t: pa.Table) -> pa.Table:
        import polars as pl

        if t.num_rows == 0 and RNG_COL not in t.schema.names:
            return t  # schema-less empty block: pass through inert
        df = pl.from_arrow(t).sort(keys + [order_col])
        pb = _bcast_frame(base_ref)
        out = (df.join(pb, on=keys, how="left")
               .with_columns(pl.col("__base").fill_null(0))
               .with_columns(
                   ((pl.col(value_col).cum_sum() - pl.col(value_col))
                    .over(keys) + pl.col("__base")).alias(out_name))
               .drop([RNG_COL, "__base"]))
        return out.to_arrow()

    keyed = ds.map_batches(add_rng, batch_format="pyarrow")
    return hash_exchange(keyed, RNG_COL, scan_bucket, num_buckets)
