"""Similarity search over the embeddings table.

- Brute-force cosine top-k (``q10``): numpy matmul per Arrow batch against
  a broadcast, L2-normalized query matrix (``ray.put`` once, read per
  actor), with PARTIAL top-k inside every batch before the shuffle — the
  pre-aggregation discipline (only ≤ k rows per query leave a batch).
- Embedding-cosine near-duplicate pairs (``q11``): O(n²) broadcast
  compare, the oracle-exact small-scale baseline of the dedup family.
- LSH-bucketed top-k (``ann_lsh``) — the scale path AS A RAY PIPELINE:
  random-hyperplane signatures are computed in ``map_batches``, the
  corpus is hash-partitioned by signature bucket (groupby — never
  materialized on the driver), and each bucket group scans only the
  queries that probe it (query side broadcast: it IS the small side).
- LSH-bucketed near-dup pairs (``ann_neardup_lsh``): within-bucket
  all-pairs across L independent hyperplane tables, exact cosine verify
  in-bucket → every emitted pair is a true q11 pair (precision 1);
  recall is the standard signature-collision bound.

Cosines are emitted as e6 fixed-point ints (``floor(cos*1e6+0.5)``).
DuckDB's ``list_cosine_similarity`` accumulates in float32 (≈1e-7 off) —
not matchable — so the SQL twins spell the cosine out in float64
(``list_sum`` of per-element DOUBLE products) and the numpy side uses the
same dot/(|a||b|) formula; residual error ~1e-15 never moves an e6 bucket.
"""

from __future__ import annotations
from pboh_entity_linking_ray.sources.reading import read_parquet_clean

from functools import lru_cache

import numpy as np
import pyarrow as pa
import ray
import ray.data

N_QUERIES = 8
TOP_K = 10
NEARDUP_COS_E6 = 250_000  # cos >= 0.25
N_PLANES = 8              # top-k LSH signature bits
DUP_PLANES = 6            # near-dup tables: fewer bits, more tables
DUP_TABLES = 4


def _read_embeddings(sf_dir: str):
    return read_parquet_clean(f"{sf_dir}/embeddings.parquet",
                                 columns=["vec_id", "embedding"])


def _matrix(tbl_or_batch) -> tuple[np.ndarray, np.ndarray]:
    ids = np.asarray(tbl_or_batch["vec_id"], dtype=np.int64)
    emb = tbl_or_batch["embedding"]
    if isinstance(emb, pa.ChunkedArray):
        emb = emb.combine_chunks()
    flat = np.asarray(emb.flatten(), dtype=np.float64)
    mat = flat.reshape(len(ids), -1)
    return ids, mat


def _normalize(mat: np.ndarray) -> np.ndarray:
    return mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-30)


def _cos_e6(mat_a: np.ndarray, mat_b: np.ndarray) -> np.ndarray:
    """(na, d) × (nb, d) → (na, nb) e6 fixed-point cosines, with the same
    float64 formula as the SQL twin: dot / (|a| * |b|)."""
    dots = mat_a @ mat_b.T
    na = np.sqrt(np.sum(mat_a * mat_a, axis=1))
    nb = np.sqrt(np.sum(mat_b * mat_b, axis=1))
    cos = dots / np.maximum(na[:, None] * nb[None, :], 1e-30)
    return np.floor(cos * 1_000_000 + 0.5).astype(np.int64)


@lru_cache(maxsize=16)
def _planes(dim: int, n_planes: int, table: int) -> np.ndarray:
    """Deterministic hyperplanes — recomputed identically in every worker
    from the seed, so nothing needs broadcasting."""
    rng = np.random.Generator(np.random.PCG64(1234 + 1000 * table))
    return rng.standard_normal((dim, n_planes))


def _sig_buckets(mat: np.ndarray, n_planes: int, table: int) -> np.ndarray:
    p = _planes(mat.shape[1], n_planes, table)
    bits = (mat @ p > 0).astype(np.int64)
    return bits @ (1 << np.arange(n_planes, dtype=np.int64))


def _topk_mask(qcol: np.ndarray, cos: np.ndarray, vid: np.ndarray,
               k: int) -> np.ndarray:
    """

    Vectorized per-query top-k over flat rows: rank rows within each
    query by (-cos, vec_id) and keep rank < k."""
    order = np.lexsort((vid, -cos, qcol))
    qs = qcol[order]
    newseg = np.r_[True, qs[1:] != qs[:-1]]
    first = np.maximum.accumulate(np.where(newseg, np.arange(len(qs)), 0))
    rank = np.arange(len(qs)) - first
    mask = np.zeros(len(qcol), dtype=bool)
    mask[order[rank < k]] = True
    return mask


def _query_side(sf_dir: str, n_queries: int):
    qt = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
        filter=(pa.compute.field("vec_id") < n_queries),
    ).to_arrow_refs()
    q_tbl = pa.concat_tables([ray.get(r) for r in qt])
    q_ids, q_mat = _matrix(q_tbl)
    order = np.argsort(q_ids)
    return q_ids[order], q_mat[order]


def q10_knn_bruteforce(sf_dir: str):
    """Exact top-k cosine neighbors for the first N_QUERIES vectors."""
    from ..functions.grouping import hash_exchange

    q_ids, q_mat = _query_side(sf_dir, N_QUERIES)
    ref = ray.put((q_ids, q_mat))

    class Score:
        def __init__(self, qref):
            self.q_ids, self.q_mat = ray.get(qref) if isinstance(qref, ray.ObjectRef) else qref

        def __call__(self, t: pa.Table) -> pa.Table:
            ids, mat = _matrix(t)
            cos_e6 = _cos_e6(mat, self.q_mat)             # (batch, nq)
            nb, nq = cos_e6.shape
            qcol = np.repeat(self.q_ids[None, :], nb, axis=0).ravel()
            vcol = np.repeat(ids, nq)
            flat = cos_e6.ravel()
            keep = qcol != vcol
            qcol, vcol, flat = qcol[keep], vcol[keep], flat[keep]
            # partial top-k INSIDE the batch: at most k rows per query
            # cross the shuffle (the combiner discipline of SURVEY §4.2)
            m = _topk_mask(qcol, flat, vcol, TOP_K)
            return pa.table({
                "query_id": pa.array(qcol[m]),
                "vec_id": pa.array(vcol[m]),
                "cos_e6": pa.array(flat[m]),
            })

    scored = _read_embeddings(sf_dir).map_batches(
        Score, fn_constructor_kwargs={"qref": ref},
        batch_format="pyarrow", batch_size=4096, concurrency=(1, 4),
    )

    def topk(bucket: pa.Table) -> pa.Table:
        q = np.asarray(bucket["query_id"])
        cos = np.asarray(bucket["cos_e6"])
        vid = np.asarray(bucket["vec_id"])
        m = _topk_mask(q, cos, vid, TOP_K)
        return bucket.filter(pa.array(m))

    return hash_exchange(scored, "query_id", topk)


_COS_SQL = (
    "list_sum(list_transform(generate_series(1, len({a})), "
    "i -> {a}[i]::DOUBLE * {b}[i]::DOUBLE)) / ({na} * {nb})"
)

SQL_Q10 = f"""
WITH n AS (SELECT vec_id, embedding,
                  sqrt(list_sum(list_transform(embedding,
                       x -> x::DOUBLE * x::DOUBLE))) AS nrm
           FROM embeddings),
q AS (SELECT vec_id AS query_id, embedding AS qe, nrm AS qn
      FROM n WHERE vec_id < {N_QUERIES}),
c AS (SELECT query_id, e.vec_id,
             CAST(floor(({_COS_SQL.format(a='qe', b='e.embedding',
                                          na='qn', nb='e.nrm')})
                        * 1000000 + 0.5) AS BIGINT) AS cos_e6
      FROM q CROSS JOIN n e
      WHERE e.vec_id <> query_id)
SELECT query_id, vec_id, cos_e6 FROM c
QUALIFY row_number() OVER (PARTITION BY query_id
                           ORDER BY cos_e6 DESC, vec_id) <= {TOP_K}
"""


def q11_embedding_neardup(sf_dir: str):
    """Embedding-cosine near-duplicate pairs (vec_a < vec_b, cos ≥ τ).

    Small-scale oracle-exact form: the whole normalized matrix is
    broadcast and each batch matmuls against it — O(n²) compare but fully
    vectorized.  The 100 TB path is ``ann_neardup_lsh``: bucket by
    hyperplane signature and compare within buckets only."""
    full = pa.concat_tables(
        [ray.get(r) for r in _read_embeddings(sf_dir).to_arrow_refs()]
    )
    ids_all, mat_all = _matrix(full)
    o = np.argsort(ids_all)
    ids_all, mat_all = ids_all[o], mat_all[o]
    ref = ray.put((ids_all, mat_all))

    class NearDup:
        def __init__(self, r):
            self.ids, self.mat = ray.get(r) if isinstance(r, ray.ObjectRef) else r

        def __call__(self, t: pa.Table) -> pa.Table:
            ids, mat = _matrix(t)
            cos_e6 = _cos_e6(mat, self.mat)
            a = np.repeat(ids, len(self.ids))
            b = np.tile(self.ids, len(ids))
            flat = cos_e6.ravel()
            keep = (a < b) & (flat >= NEARDUP_COS_E6)
            return pa.table({
                "vec_a": pa.array(a[keep]), "vec_b": pa.array(b[keep]),
                "cos_e6": pa.array(flat[keep]),
            })

    return _read_embeddings(sf_dir).map_batches(
        NearDup, fn_constructor_kwargs={"r": ref},
        batch_format="pyarrow", batch_size=2048, concurrency=(1, 4),
    )


SQL_Q11 = f"""
WITH n AS (SELECT vec_id, embedding,
                  sqrt(list_sum(list_transform(embedding,
                       x -> x::DOUBLE * x::DOUBLE))) AS nrm
           FROM embeddings),
c AS (SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
             CAST(floor(({_COS_SQL.format(a='a.embedding', b='b.embedding',
                                          na='a.nrm', nb='b.nrm')})
                        * 1000000 + 0.5) AS BIGINT) AS cos_e6
      FROM n a JOIN n b ON a.vec_id < b.vec_id)
SELECT vec_a, vec_b, cos_e6 FROM c WHERE cos_e6 >= {NEARDUP_COS_E6}
"""


def ann_lsh(sf_dir: str, n_queries: int = N_QUERIES, k: int = TOP_K):
    """Approximate top-k via random-hyperplane LSH buckets — the scale
    path AS A PIPELINE: the corpus is never materialized on the driver.

    index:  map_batches computes each vector's signature bucket;
    shuffle: hash-partition by bucket (functions/grouping.py);
    probe:   each bucket group scans only the queries whose multi-probe
             set (own bucket + Hamming-1 flips) contains it, emitting a
             per-(bucket × query) partial top-k;
    reduce:  bucketed per-query top-k merge.
    Approximate → no SQL oracle; recall vs q10 is asserted in pytest."""
    from ..functions.grouping import hash_exchange

    q_ids, q_mat = _query_side(sf_dir, n_queries)
    q_mat = _normalize(q_mat)
    q_bucket = _sig_buckets(q_mat, N_PLANES, 0)
    probe_of: dict[int, list[int]] = {}
    for qi, b in enumerate(q_bucket):
        for pb in [int(b)] + [int(b) ^ (1 << p) for p in range(N_PLANES)]:
            probe_of.setdefault(pb, []).append(qi)
    qref = ray.put((q_ids, q_mat, {b: np.array(v) for b, v in probe_of.items()}))

    def add_bucket(t: pa.Table) -> pa.Table:
        _, mat = _matrix(t)
        b = _sig_buckets(_normalize(mat), N_PLANES, 0)
        return t.append_column("bucket", pa.array(b, type=pa.int64()))

    indexed = _read_embeddings(sf_dir).map_batches(
        add_bucket, batch_format="pyarrow", batch_size=4096)

    def probe(group: pa.Table) -> pa.Table:
        qi_ids, qi_mat, probes = ray.get(qref)
        empty = pa.table({"query_id": pa.array([], type=pa.int64()),
                          "vec_id": pa.array([], type=pa.int64()),
                          "cos_e6": pa.array([], type=pa.int64())})
        if group.num_rows == 0:
            return empty
        ids, mat = _matrix(group)
        bucket = np.asarray(group["bucket"])
        outs = []
        for b in np.unique(bucket):
            qsel = probes.get(int(b))
            if qsel is None:
                continue
            sel = bucket == b
            m_ids, m_mat = ids[sel], mat[sel]
            cos = _cos_e6(m_mat, qi_mat[qsel])            # (m, nq_sel)
            qcol = np.repeat(qi_ids[qsel][None, :], len(m_ids), axis=0).ravel()
            vcol = np.repeat(m_ids, len(qsel))
            flat = cos.ravel()
            keep = qcol != vcol
            qcol, vcol, flat = qcol[keep], vcol[keep], flat[keep]
            if len(qcol) == 0:
                continue
            msk = _topk_mask(qcol, flat, vcol, k)
            outs.append(pa.table({"query_id": pa.array(qcol[msk]),
                                  "vec_id": pa.array(vcol[msk]),
                                  "cos_e6": pa.array(flat[msk])}))
        return pa.concat_tables(outs) if outs else empty

    partial = hash_exchange(indexed, "bucket", probe)
    return hash_exchange(partial, "query_id",
                         lambda b: _merge_topk_bucket(b, k))


def _merge_topk_bucket(bucket: pa.Table, k: int) -> pa.Table:
    """Per-query top-k merge of partial candidate rows (a vector may
    reach one query through several probe buckets → dedup first)."""
    if bucket.num_rows == 0:
        return bucket
    import polars as pl

    df = pl.from_arrow(bucket).unique(subset=["query_id", "vec_id"])
    q = df["query_id"].to_numpy()
    cos = df["cos_e6"].to_numpy()
    vid = df["vec_id"].to_numpy()
    m = _topk_mask(q, cos, vid, k)
    return pl.DataFrame({"query_id": q[m], "vec_id": vid[m],
                         "cos_e6": cos[m]}).to_arrow()


IVF_CELLS = 32            # inverted-file cells (coarse quantizer size)
IVF_NPROBE = 4            # cells probed per query


def _hash_seeds(emb: ray.data.Dataset, k: int) -> np.ndarray:
    """Deterministic seed centroids: hash-sampled vectors (every
    ``mod``-th id), lowest ids win — reproducible under repartitioning.
    ALL ~4k sampled candidates are collected (a ``limit`` would truncate
    in block-arrival order, making the seed set layout-dependent); the
    candidate set is ~n/mod ≈ 4k skinny rows by construction."""
    n = emb.count()
    mod = max(1, n // (4 * k))

    def keep_seeds(t: pa.Table) -> pa.Table:
        ids = np.asarray(t["vec_id"], dtype=np.int64)
        return t.filter(pa.array(ids % mod == 0))

    seed_tbl = _concat_small(
        emb.map_batches(keep_seeds, batch_format="pyarrow"))
    s_ids, s_mat = _matrix(seed_tbl)
    order = np.argsort(s_ids)[:k]
    return _normalize(s_mat[order])


def _lloyd_step(emb: ray.data.Dataset, cents: np.ndarray) -> np.ndarray:
    """ONE distributed Lloyd step (spherical/cosine): every batch
    assigns its vectors to the nearest centroid and emits ≤ k partial
    (sum, count) rows — the driver only ever sees O(blocks × k) tiny
    partials, never the corpus.  Empty cells keep their old centroid."""
    sref = ray.put(cents)

    def partial(t: pa.Table) -> pa.Table:
        s = ray.get(sref)
        _, mat = _matrix(t)
        mn = _normalize(mat)
        c = np.argmax(mn @ s.T, axis=1)
        sums = np.zeros_like(s)
        np.add.at(sums, c, mn)
        counts = np.bincount(c, minlength=len(s))
        return pa.table({
            "cell": pa.array(np.arange(len(s), dtype=np.int64)),
            "cnt": pa.array(counts.astype(np.int64)),
            "vsum": pa.array(list(sums), type=pa.list_(pa.float64())),
        })

    parts = _concat_small(emb.map_batches(partial, batch_format="pyarrow",
                                          batch_size=4096))
    cell = np.asarray(parts["cell"])
    cnt = np.asarray(parts["cnt"])
    vs = np.asarray(parts["vsum"].combine_chunks().flatten(),
                    dtype=np.float64).reshape(len(cell), -1)
    sums = np.zeros_like(cents)
    np.add.at(sums, cell, vs)
    counts = np.zeros(len(cents), dtype=np.int64)
    np.add.at(counts, cell, cnt)
    live = counts > 0
    out = cents.copy()
    out[live] = sums[live] / counts[live, None]
    return _normalize(out)


def _ivf_centroids(sf_dir: str, n_cells: int) -> np.ndarray:
    """Deterministic IVF coarse quantizer: hash-sampled seed vectors +
    ONE distributed Lloyd step (shared with ``kmeans_embeddings``)."""
    emb = _read_embeddings(sf_dir)
    return _lloyd_step(emb, _hash_seeds(emb, n_cells))


KMEANS_K = 8
KMEANS_ITERS = 10
KMEANS_TOL = 1e-6


def _kmeans_centroids(emb: ray.data.Dataset, k: int = KMEANS_K,
                      iters: int = KMEANS_ITERS) -> np.ndarray:
    """Iterated distributed Lloyd with early stop — shared by
    ``kmeans_embeddings`` and ``semantic_dedup``."""
    cents = _hash_seeds(emb, k)
    for _ in range(iters):
        new = _lloyd_step(emb, cents)
        moved = float(np.max(1.0 - np.sum(new * cents, axis=1)))
        cents = new
        if moved < KMEANS_TOL:
            break
    return cents


def kmeans_embeddings(sf_dir: str, k: int = KMEANS_K,
                      iters: int = KMEANS_ITERS):
    """Distributed spherical k-means over the embedding column — the
    iterative-algorithm pattern: per-iteration cost is one streaming
    pass emitting O(blocks × k) partials (`_lloyd_step`), the driver
    holds only the k × dim centroid matrix, and iteration stops early
    when no centroid moves more than KMEANS_TOL in cosine.  The final
    assignment is one more streaming map; nothing ever materializes the
    corpus.  Deterministic (hash-sampled seeds) → rows-only driver
    check + pytest pins determinism and inertia descent."""
    emb = _read_embeddings(sf_dir)
    cref = ray.put(_kmeans_centroids(emb, k, iters))

    def assign(t: pa.Table) -> pa.Table:
        s = ray.get(cref)
        ids, mat = _matrix(t)
        mn = _normalize(mat)
        sims = mn @ s.T
        c = np.argmax(sims, axis=1)
        return pa.table({
            "vec_id": pa.array(ids.astype(np.int64)),
            "cluster": pa.array(c.astype(np.int64)),
            "sim_e6": pa.array((np.max(sims, axis=1) * 1e6)
                               .astype(np.int64)),
        })

    return emb.map_batches(assign, batch_format="pyarrow")


def semantic_dedup(sf_dir: str, tau_e6: int = NEARDUP_COS_E6,
                   k: int = KMEANS_K):
    """SemDeDup-style semantic deduplication (Abbas et al. 2023,
    arXiv:2303.09540): k-means-cluster the embedding space, then prune
    near-duplicates INSIDE each cluster only — the published recipe for
    making embedding dedup tractable at corpus scale (pair work is
    Σ|cluster|² instead of corpus²; raise ``k`` with corpus size to keep
    clusters bounded, the paper uses k ≈ √n).

    Keep rule (id-deterministic, no chaining): vector j is dropped iff
    some SAME-CLUSTER vector with a lower vec_id has cosine ≥ τ to it —
    dropped vectors still serve as comparators, so the output is
    invariant to partitioning and bucket order.

    Distribution: the assignment pass streams once over the embeddings
    emitting (vec_id, cluster, unit vector); ONE hash exchange on the
    cluster id co-locates each cluster; per bucket a CHUNKED triangular
    matmul (≤1024 rows at a time) marks drops, bounding in-bucket memory
    regardless of cluster size.  The centroid fit is the shared
    streaming Lloyd loop (O(blocks × k) partials per pass).

    Not SQL-expressible (iterative k-means) → rows-only driver check;
    the keep rule itself is pinned in pytest against an exact numpy
    reference on the pipeline's own cluster assignment."""
    emb = _read_embeddings(sf_dir)
    cref = ray.put(_kmeans_centroids(emb, k))

    def assign_vec(t: pa.Table) -> pa.Table:
        s = ray.get(cref)
        ids, mat = _matrix(t)
        mn = _normalize(mat)
        c = np.argmax(mn @ s.T, axis=1)
        return pa.table({
            "vec_id": pa.array(ids.astype(np.int64)),
            "cluster": pa.array(c.astype(np.int64)),
            "vec": pa.array(list(mn), type=pa.list_(pa.float64())),
        })

    rows = emb.map_batches(assign_vec, batch_format="pyarrow")

    def dedup_bucket(t: pa.Table) -> pa.Table:
        ids = np.asarray(t["vec_id"], dtype=np.int64)
        if len(ids) == 0:
            return pa.table({"vec_id": pa.array([], type=pa.int64()),
                             "cluster": pa.array([], type=pa.int64()),
                             "keep": pa.array([], type=pa.bool_())})
        cl = np.asarray(t["cluster"], dtype=np.int64)
        flat = np.asarray(t["vec"].combine_chunks().flatten(),
                          dtype=np.float64)
        V = flat.reshape(len(ids), -1)
        order = np.lexsort((ids, cl))
        ids, cl, V = ids[order], cl[order], V[order]
        keep = np.ones(len(ids), dtype=bool)
        bounds = np.flatnonzero(np.r_[True, cl[1:] != cl[:-1], True])
        for s0, s1 in zip(bounds[:-1], bounds[1:]):   # one run per cluster
            n = s1 - s0
            if n < 2:
                continue
            Vc = V[s0:s1]
            for j0 in range(1, n, 1024):              # chunked triangular scan
                j1 = min(j0 + 1024, n)
                block = Vc[j0:j1] @ Vc[:j1].T
                sims = np.floor(block * 1e6 + 0.5).astype(np.int64)
                allowed = (np.arange(j1)[None, :]
                           < np.arange(j0, j1)[:, None])
                hit = ((sims >= tau_e6) & allowed).any(axis=1)
                keep[s0 + j0:s0 + j1] = ~hit
        return pa.table({"vec_id": pa.array(ids),
                         "cluster": pa.array(cl),
                         "keep": pa.array(keep)})

    from ..functions.grouping import hash_exchange

    return hash_exchange(rows, "cluster", dedup_bucket, num_buckets=8)


def _concat_small(ds: ray.data.Dataset) -> pa.Table:
    refs = ds.to_arrow_refs()
    tbls = [t for t in ray.get(refs) if t.num_rows] or ray.get(refs[:1])
    return pa.concat_tables(tbls, promote_options="default")


def ann_ivf_topk(sf_dir: str, n_queries: int = N_QUERIES, k: int = TOP_K):
    """Approximate top-k via an IVF (inverted-file) coarse quantizer —
    the second scale path beside ``ann_lsh``:

    train:  deterministic seeds + one distributed Lloyd step
            (``_ivf_centroids``; partial sums inside map_batches);
    index:  map_batches assigns each vector to its nearest centroid;
    shuffle: hash-partition by cell (all of a cell's vectors co-locate);
    probe:  each cell group scans only the queries whose IVF_NPROBE
            nearest centroids include it → per-(cell × query) partial
            top-k;
    reduce: per-query top-k merge (shared with ann_lsh).
    Approximate → no SQL oracle; recall vs exact is asserted in pytest
    on the planted-cluster corpus."""
    from ..functions.grouping import hash_exchange

    cents = _ivf_centroids(sf_dir, IVF_CELLS)
    q_ids, q_mat = _query_side(sf_dir, n_queries)
    q_mat = _normalize(q_mat)
    qcos = q_mat @ cents.T                               # (nq, cells)
    nprobe = min(IVF_NPROBE, cents.shape[0])
    probe_cells = np.argsort(-qcos, axis=1)[:, :nprobe]
    probe_of: dict[int, list[int]] = {}
    for qi in range(len(q_ids)):
        for c in probe_cells[qi]:
            probe_of.setdefault(int(c), []).append(qi)
    cref = ray.put(cents)
    qref = ray.put((q_ids, q_mat,
                    {c: np.array(v) for c, v in probe_of.items()}))

    def add_cell(t: pa.Table) -> pa.Table:
        c = ray.get(cref)
        _, mat = _matrix(t)
        a = np.argmax(_normalize(mat) @ c.T, axis=1)
        return t.append_column("cell", pa.array(a.astype(np.int64)))

    indexed = _read_embeddings(sf_dir).map_batches(
        add_cell, batch_format="pyarrow", batch_size=4096)

    def probe(group: pa.Table) -> pa.Table:
        qi_ids, qi_mat, probes = ray.get(qref)
        empty = pa.table({"query_id": pa.array([], type=pa.int64()),
                          "vec_id": pa.array([], type=pa.int64()),
                          "cos_e6": pa.array([], type=pa.int64())})
        if group.num_rows == 0:
            return empty
        ids, mat = _matrix(group)
        cell = np.asarray(group["cell"])
        outs = []
        for c in np.unique(cell):
            qsel = probes.get(int(c))
            if qsel is None:
                continue
            sel = cell == c
            m_ids, m_mat = ids[sel], mat[sel]
            cos = _cos_e6(m_mat, qi_mat[qsel])
            qcol = np.repeat(qi_ids[qsel][None, :], len(m_ids), axis=0).ravel()
            vcol = np.repeat(m_ids, len(qsel))
            flat = cos.ravel()
            keep = qcol != vcol
            qcol, vcol, flat = qcol[keep], vcol[keep], flat[keep]
            if len(qcol) == 0:
                continue
            msk = _topk_mask(qcol, flat, vcol, k)
            outs.append(pa.table({"query_id": pa.array(qcol[msk]),
                                  "vec_id": pa.array(vcol[msk]),
                                  "cos_e6": pa.array(flat[msk])}))
        return pa.concat_tables(outs) if outs else empty

    partial = hash_exchange(indexed, "cell", probe)
    return hash_exchange(partial, "query_id",
                         lambda b: _merge_topk_bucket(b, k))


def ann_neardup_lsh(sf_dir: str):
    """Near-duplicate pairs via L independent hyperplane tables — the
    bucketed scale path of q11: within-bucket all-pairs with EXACT cosine
    verification (every emitted pair is a true q11 pair; recall is the
    collision probability across tables).  Dedup across tables on the
    packed pair key."""
    from ..functions.grouping import dedup_keep_first, hash_exchange

    def add_buckets(t: pa.Table) -> pa.Table:
        _, mat = _matrix(t)
        mn = _normalize(mat)
        tables = []
        for tab in range(DUP_TABLES):
            b = _sig_buckets(mn, DUP_PLANES, tab + 1)
            tables.append(t.append_column(
                "bucket", pa.array(tab * (1 << DUP_PLANES) + b,
                                   type=pa.int64())))
        return pa.concat_tables(tables)

    indexed = _read_embeddings(sf_dir).map_batches(
        add_buckets, batch_format="pyarrow", batch_size=4096)

    def pairs(group: pa.Table) -> pa.Table:
        empty = pa.table({"pair_key": pa.array([], type=pa.int64()),
                          "vec_a": pa.array([], type=pa.int64()),
                          "vec_b": pa.array([], type=pa.int64()),
                          "cos_e6": pa.array([], type=pa.int64())})
        if group.num_rows == 0:
            return empty
        ids, mat = _matrix(group)
        bucket = np.asarray(group["bucket"])
        outs = []
        for b in np.unique(bucket):
            sel = np.flatnonzero(bucket == b)
            if len(sel) < 2:
                continue
            o = sel[np.argsort(ids[sel])]
            m_ids, m_mat = ids[o], mat[o]
            cos = _cos_e6(m_mat, m_mat)
            ia, ib = np.triu_indices(len(m_ids), k=1)
            flat = cos[ia, ib]
            keep = flat >= NEARDUP_COS_E6
            if not keep.any():
                continue
            a, bb = m_ids[ia[keep]], m_ids[ib[keep]]
            outs.append(pa.table({
                "pair_key": pa.array(a * (1 << 32) + bb),
                "vec_a": pa.array(a), "vec_b": pa.array(bb),
                "cos_e6": pa.array(flat[keep]),
            }))
        return pa.concat_tables(outs) if outs else empty

    cand = hash_exchange(indexed, "bucket", pairs)
    return dedup_keep_first(cand, "pair_key").select_columns(
        ["vec_a", "vec_b", "cos_e6"])


# --- q61: embedding dedup keep-first ------------------------------------------

def q61_embedding_dedup(sf_dir: str):
    """Embedding-space dedup with a canonical representative: connected
    components over the q11 near-dup graph (cos ≥ NEARDUP_COS_E6), each
    vector labeled with its component-min vec_id and whether it IS the
    kept representative — the downstream keep-first filter is then a
    single `is_rep == 1` predicate.  Same star-contraction engine and
    20-digit zero-pad id contract as textops.q58; oracle = recursive
    min-label CTE over the identical (hash-green) q11 pair set.  Pair
    generation here is q11's oracle-exact O(n²) form because the SQL
    twin needs the exact same graph; at corpus scale feed
    ``ann_neardup_lsh`` pairs (the bucketed path) into the same CC —
    the clustering stage is size-agnostic either way."""
    from ..stages.clustering import connected_components

    pairs = q11_embedding_neardup(sf_dir)

    def to_edges(t: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(t).select(
            pl.col("vec_a").cast(pl.String).str.zfill(20).alias("u"),
            pl.col("vec_b").cast(pl.String).str.zfill(20).alias("v"),
        )
        return df.to_arrow().cast(
            pa.schema([("u", pa.string()), ("v", pa.string())]))

    labels = connected_components(
        pairs.map_batches(to_edges, batch_format="pyarrow"), 64)

    def back(t: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(t)
        return pa.table({
            "vec_id": df["conv_id"].cast(pl.Int64).to_arrow(),
            "rep_id": df["cluster_id"].cast(pl.Int64).to_arrow(),
            "is_rep": (df["conv_id"] == df["cluster_id"])
                      .cast(pl.Int64).to_arrow(),
        })

    return labels.map_batches(back, batch_format="pyarrow")


SQL_Q61 = f"""
WITH RECURSIVE n AS (
  SELECT vec_id, embedding,
         sqrt(list_sum(list_transform(embedding,
              x -> x::DOUBLE * x::DOUBLE))) AS nrm
  FROM embeddings
),
c AS (SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
             CAST(floor(({_COS_SQL.format(a='a.embedding', b='b.embedding',
                                          na='a.nrm', nb='b.nrm')})
                        * 1000000 + 0.5) AS BIGINT) AS cos_e6
      FROM n a JOIN n b ON a.vec_id < b.vec_id),
pairs AS (SELECT vec_a, vec_b FROM c WHERE cos_e6 >= {NEARDUP_COS_E6}),
edges AS (
  SELECT vec_a AS u, vec_b AS v FROM pairs
  UNION
  SELECT vec_b, vec_a FROM pairs
),
reach(node, m) AS (
  SELECT u, u FROM edges
  UNION
  SELECT e.u, r.m FROM edges e JOIN reach r ON r.node = e.v
)
SELECT CAST(node AS BIGINT) AS vec_id,
       CAST(min(m) AS BIGINT) AS rep_id,
       CAST(node = min(m) AS BIGINT) AS is_rep
FROM reach GROUP BY node
"""


# --- q65 / pca_project: distributed PCA over the embedding column -----------

PCA_CHECK_DIMS = 6   # leading sub-block the oracle twin verifies
PCA_K = 4            # components kept by the projection


def _moment_partials(sf_dir: str) -> tuple[int, np.ndarray, np.ndarray]:
    """One streaming pass → exact global first/second moments.

    Every BLOCK emits a single skinny row (n, Σx, Σxxᵀ flattened) — the
    classic distributed-covariance partial (same shape as the trainer's
    per-block rows, stages/train.py): the driver combines O(num_blocks)
    rows of d + d² floats, never any embedding.  At 100 TB this is the
    whole-dataset pass; everything after it is O(d²) driver math."""
    def part(t: pa.Table) -> pa.Table:
        empty = pa.table({
            "n": pa.array([], type=pa.int64()),
            "s": pa.array([], type=pa.list_(pa.float64())),
            "ss": pa.array([], type=pa.list_(pa.float64())),
        })
        if t.num_rows == 0 or "embedding" not in t.column_names:
            return empty
        emb = t["embedding"]
        if isinstance(emb, pa.ChunkedArray):
            emb = emb.combine_chunks()
        mat = np.asarray(emb.flatten(), dtype=np.float64).reshape(
            t.num_rows, -1)
        return pa.table({
            "n": pa.array([mat.shape[0]], type=pa.int64()),
            "s": pa.array([mat.sum(axis=0)], type=pa.list_(pa.float64())),
            "ss": pa.array([(mat.T @ mat).ravel()],
                           type=pa.list_(pa.float64())),
        })

    parts = (_read_embeddings(sf_dir)
             .map_batches(part, batch_format="pyarrow", batch_size=None)
             .take_all())
    parts = [p for p in parts if p["n"] > 0]
    if not parts:
        return 0, np.zeros(0), np.zeros((0, 0))
    n = sum(p["n"] for p in parts)
    s = np.sum([np.asarray(p["s"]) for p in parts], axis=0)
    d = len(s)
    ss = np.sum([np.asarray(p["ss"]) for p in parts], axis=0).reshape(d, d)
    return n, s, ss


def _cov_from_moments(n: int, s: np.ndarray, ss: np.ndarray) -> np.ndarray:
    """Population covariance via the avg(xy) − avg(x)avg(y) identity —
    spelled the same way as the SQL twin so e6 rounding agrees."""
    mean = s / n
    return ss / n - np.outer(mean, mean)


def q65_embedding_covariance(sf_dir: str):
    """Leading PCA_CHECK_DIMS×PCA_CHECK_DIMS block of the population
    covariance of the embedding column, as long-form (i, j, cov_e6) rows
    with 1-based i ≤ j — the SQL-checkable core of the PCA: the full d×d
    matrix comes from the SAME partials pass (``pca_project`` consumes
    it); only the oracle-verified sub-block is emitted here because the
    DuckDB twin unnests to (vec, dim, value) rows and self-joins, which
    is O(n·d²) in the oracle engine."""
    n, s, ss = _moment_partials(sf_dir)
    cov = _cov_from_moments(n, s, ss)
    i, j = np.triu_indices(PCA_CHECK_DIMS)
    vals = cov[i, j]
    return pa.table({
        "i": pa.array(i + 1, type=pa.int64()),
        "j": pa.array(j + 1, type=pa.int64()),
        "cov_e6": pa.array(
            np.floor(vals * 1_000_000 + 0.5).astype(np.int64),
            type=pa.int64()),
    })


SQL_Q65 = f"""
WITH x AS (
  SELECT vec_id,
         CAST(unnest(embedding) AS DOUBLE) AS v,
         unnest(range(1, len(embedding) + 1)) AS i
  FROM embeddings
),
f AS (SELECT vec_id, v, i FROM x WHERE i <= {PCA_CHECK_DIMS})
SELECT CAST(a.i AS BIGINT) AS i, CAST(b.i AS BIGINT) AS j,
       CAST(FLOOR(1000000 * (avg(a.v * b.v) - avg(a.v) * avg(b.v)) + 0.5)
            AS BIGINT) AS cov_e6
FROM f a JOIN f b ON a.vec_id = b.vec_id AND a.i <= b.i
GROUP BY a.i, b.i
"""


def pca_project(sf_dir: str):
    """Full distributed PCA: moments pass → driver-side eigh of the d×d
    covariance (O(d³) at d=64 — microseconds) → top-PCA_K components
    broadcast in the projection closure (K·d floats) → one streaming
    projection pass emitting (vec_id, pc1_e4..pcK_e4).

    Deterministic: eigenvectors are sign-canonicalized (largest-|coord|
    entry made positive), so the output is invariant to block layout up
    to the e4 rounding.  Rows-only — the eigendecomposition is not
    SQL-expressible; q65 oracle-checks the covariance it consumes and
    tests/test_ann.py checks the projection against numpy's full PCA."""
    n, s, ss = _moment_partials(sf_dir)
    if n == 0:
        cols = {"vec_id": pa.array([], type=pa.int64())}
        cols.update({f"pc{k + 1}_e4": pa.array([], type=pa.int64())
                     for k in range(PCA_K)})
        return ray.data.from_arrow(pa.table(cols))
    cov = _cov_from_moments(n, s, ss)
    mean = s / n
    evals, evecs = np.linalg.eigh(cov)          # ascending
    comps = evecs[:, ::-1][:, :PCA_K]           # top-K, descending λ
    flips = np.sign(comps[np.abs(comps).argmax(axis=0),
                          np.arange(PCA_K)])
    comps = comps * np.where(flips == 0, 1.0, flips)[None, :]

    def project(t: pa.Table) -> pa.Table:
        ids, mat = _matrix(t)
        proj = (mat - mean[None, :]) @ comps
        cols = {"vec_id": pa.array(ids, type=pa.int64())}
        for k in range(PCA_K):
            cols[f"pc{k + 1}_e4"] = pa.array(
                np.floor(proj[:, k] * 10_000 + 0.5).astype(np.int64),
                type=pa.int64())
        return pa.table(cols)

    return _read_embeddings(sf_dir).map_batches(
        project, batch_format="pyarrow")


# --- q69: per-label centroids + cosine-to-centroid outlier score ------------

def q69_label_centroid_outliers(sf_dir: str):
    """Embedding-space outlier scoring for labeled data cleaning: the
    per-label mean vector (class prototype) is computed in one streaming
    pass of per-block (label, n, Σx) partials — the label set is the
    small side by construction (classes, not rows) — then broadcast into
    a second pass that scores every row's cosine against its own label's
    centroid (low cos_e6 = likely mislabeled/outlier, the standard
    prototype-distance filter).  Same two-pass broadcast shape as the
    PCA moments pass; no shuffle ever touches an embedding row."""
    ds = read_parquet_clean(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding", "label"])

    def part(t: pa.Table) -> pa.Table:
        empty = pa.table({
            "label": pa.array([], type=pa.int64()),
            "n": pa.array([], type=pa.int64()),
            "s": pa.array([], type=pa.list_(pa.float64())),
        })
        if t.num_rows == 0 or "embedding" not in t.column_names:
            return empty
        ids, mat = _matrix(t)
        labels = np.asarray(t["label"], dtype=np.int64)
        order = np.argsort(labels, kind="stable")
        labels, mat = labels[order], mat[order]
        starts = np.flatnonzero(np.r_[True, labels[1:] != labels[:-1]])
        sums = np.add.reduceat(mat, starts, axis=0)
        ns = np.diff(np.append(starts, len(labels)))
        return pa.table({
            "label": pa.array(labels[starts], type=pa.int64()),
            "n": pa.array(ns, type=pa.int64()),
            "s": pa.array(list(sums), type=pa.list_(pa.float64())),
        })

    parts = (ds.map_batches(part, batch_format="pyarrow",
                            batch_size=None).take_all())
    acc: dict[int, tuple[int, np.ndarray]] = {}
    for p in parts:
        n0, s0 = acc.get(p["label"], (0, 0.0))
        acc[p["label"]] = (n0 + p["n"], s0 + np.asarray(p["s"]))
    cents = {lbl: s / n for lbl, (n, s) in acc.items()}
    cents_ref = ray.put({lbl: (c, float(np.sqrt(c @ c)))
                         for lbl, c in cents.items()})

    def score(t: pa.Table) -> pa.Table:
        empty = pa.table({"vec_id": pa.array([], type=pa.int64()),
                          "label": pa.array([], type=pa.int64()),
                          "cos_e6": pa.array([], type=pa.int64())})
        if t.num_rows == 0 or "embedding" not in t.column_names:
            return empty
        cmap = ray.get(cents_ref)
        ids, mat = _matrix(t)
        labels = np.asarray(t["label"], dtype=np.int64)
        cos = np.empty(len(ids), dtype=np.float64)
        for lbl in np.unique(labels):
            c, cn = cmap[int(lbl)]
            m = labels == lbl
            sub = mat[m]
            cos[m] = (sub @ c) / np.maximum(
                np.sqrt(np.sum(sub * sub, axis=1)) * cn, 1e-30)
        return pa.table({
            "vec_id": pa.array(ids, type=pa.int64()),
            "label": pa.array(labels, type=pa.int64()),
            "cos_e6": pa.array(
                np.floor(cos * 1_000_000 + 0.5).astype(np.int64),
                type=pa.int64()),
        })

    return ds.map_batches(score, batch_format="pyarrow")


SQL_Q69 = """
WITH x AS (
  SELECT vec_id, label,
         CAST(unnest(embedding) AS DOUBLE) AS v,
         unnest(range(1, len(embedding) + 1)) AS i
  FROM embeddings
),
c AS (SELECT label, i, avg(v) AS m FROM x GROUP BY label, i)
SELECT x.vec_id,
       CAST(x.label AS BIGINT) AS label,
       CAST(FLOOR(sum(x.v * c.m)
                  / sqrt(sum(x.v * x.v) * sum(c.m * c.m))
                  * 1000000 + 0.5) AS BIGINT) AS cos_e6
FROM x JOIN c ON c.label = x.label AND c.i = x.i
GROUP BY x.vec_id, x.label
"""


# --- q70: deterministic hash-bucket negative sampling -----------------------

NEG_K = 3         # negatives per anchor
NEG_BUCKETS = 8   # candidate-pool buckets (scale ∝ corpus, see docstring)


def q70_negative_sampling(sf_dir: str):
    """Contrastive-training negative mining: each anchor gets NEG_K
    deterministic different-label negatives drawn from its md5 bucket,
    ranked by the pair hash md5(anchor ':' neg) with neg_id tie-break —
    reproducible under ANY re-partitioning (the q54 hash-lottery
    discipline applied to pairs).

    Distributed shape: ONE exchange co-locates each bucket's rows;
    in-bucket candidate generation is O(bucket²), so NEG_BUCKETS scales
    with the corpus to pin the bucket size near a constant ≫ NEG_K —
    the pool only needs enough rows to sample from, never the whole
    corpus (locality-bounded negative sampling).  md5 is the
    oracle-parity hash; production would swap in xxhash like
    simhash_fast."""
    from ..functions.grouping import hash_exchange
    from ..functions.hashing import md5_lower64

    ds = read_parquet_clean(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "label"])

    def add_bucket(t: pa.Table) -> pa.Table:
        ids = np.asarray(t["vec_id"], dtype=np.int64)
        b = np.array([md5_lower64(str(i)) % NEG_BUCKETS for i in ids],
                     dtype=np.int64)
        return pa.table({
            "vec_id": pa.array(ids, type=pa.int64()),
            "label": pa.array(np.asarray(t["label"], dtype=np.int64),
                              type=pa.int64()),
            "b": pa.array(b, type=pa.int64()),
        })

    empty = pa.table({"anchor_id": pa.array([], type=pa.int64()),
                      "neg_id": pa.array([], type=pa.int64()),
                      "rnk": pa.array([], type=pa.int64())})

    def bucket_fn(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "b" not in t.column_names:
            return empty
        t = t.sort_by("b")
        bs = np.asarray(t["b"], dtype=np.int64)
        all_ids = np.asarray(t["vec_id"], dtype=np.int64)
        all_lbl = np.asarray(t["label"], dtype=np.int64)
        starts = np.flatnonzero(np.r_[True, bs[1:] != bs[:-1]])
        bounds = np.append(starts, len(bs))
        out_a, out_n, out_r = [], [], []
        for s, e in zip(bounds[:-1], bounds[1:]):
            ids, lbl = all_ids[s:e], all_lbl[s:e]
            ai, ni = np.nonzero(lbl[:, None] != lbl[None, :])
            if not len(ai):
                continue
            a_ids, n_ids = ids[ai], ids[ni]
            h = np.fromiter(
                (md5_lower64(f"{a}:{n}") for a, n in zip(a_ids, n_ids)),
                dtype=np.uint64, count=len(a_ids))
            order = np.lexsort((n_ids, h, a_ids))
            sa, sn = a_ids[order], n_ids[order]
            gs = np.flatnonzero(np.r_[True, sa[1:] != sa[:-1]])
            rnk = np.arange(len(sa), dtype=np.int64) - np.repeat(
                gs, np.diff(np.append(gs, len(sa)))) + 1
            keep = rnk <= NEG_K
            out_a.append(sa[keep])
            out_n.append(sn[keep])
            out_r.append(rnk[keep])
        if not out_a:
            return empty
        return pa.table({
            "anchor_id": pa.array(np.concatenate(out_a), type=pa.int64()),
            "neg_id": pa.array(np.concatenate(out_n), type=pa.int64()),
            "rnk": pa.array(np.concatenate(out_r), type=pa.int64()),
        })

    keyed = ds.map_batches(add_bucket, batch_format="pyarrow")
    return hash_exchange(keyed, "b", bucket_fn, num_buckets=NEG_BUCKETS)


SQL_Q70 = f"""
WITH v AS (
  SELECT vec_id, label,
         md5_number_lower(CAST(vec_id AS VARCHAR)) % {NEG_BUCKETS} AS b
  FROM embeddings
),
c AS (
  SELECT a.vec_id AS anchor_id, n.vec_id AS neg_id,
         md5_number_lower(CAST(a.vec_id AS VARCHAR) || ':'
                          || CAST(n.vec_id AS VARCHAR)) AS h
  FROM v a JOIN v n ON a.b = n.b AND a.label <> n.label
),
r AS (
  SELECT anchor_id, neg_id,
         row_number() OVER (PARTITION BY anchor_id
                            ORDER BY h, neg_id) AS rnk
  FROM c
)
SELECT anchor_id, neg_id, CAST(rnk AS BIGINT) AS rnk
FROM r WHERE rnk <= {NEG_K}
"""


# --- q93: vector-column arithmetic (normalize + int8 quantize) -------------

def q93_embedding_quantize(sf_dir: str):
    """Per-row vector arithmetic over the list<float> embedding column —
    the int8-quantization prep every vector-index build runs: exact e6
    fixed-point elementwise quantization, integer squared L2 norm, and a
    symmetric int8 requantization checksum (round(x_e6·127 / max|x|_e6),
    the faiss-style scalar quantizer), all pure zero-copy numpy over the
    flattened Arrow list buffer — one streaming map, no shuffle, no
    Python per row.  Every emitted number is integer arithmetic over the
    SAME e6 values in both engines, so the twin (DuckDB list_transform
    lambdas) matches hash-exactly."""
    ds = read_parquet_clean(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])

    def quant(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "vec_id" not in t.column_names:
            return pa.table({"vec_id": pa.array([], type=pa.int64()),
                             "dim": pa.array([], type=pa.int64()),
                             "norm2_e12": pa.array([], type=pa.int64()),
                             "q8_sum": pa.array([], type=pa.int64())})
        ids, mat = _matrix(t)
        e6 = np.floor(mat * 1e6 + 0.5).astype(np.int64)
        norm2 = (e6 * e6).sum(axis=1)
        amax = np.abs(e6).max(axis=1)
        amax_safe = np.maximum(amax, 1)
        # symmetric scalar quantizer: q = round(x_e6 * 127 / max|x_e6|).
        # Computed on the SHIFTED value (x + amax) so the integer
        # numerator is non-negative — Python // floors while DuckDB //
        # truncates, and they only agree on non-negative operands
        q8 = ((e6 + amax_safe[:, None]) * 254 + amax_safe[:, None]) \
            // (2 * amax_safe[:, None]) - 127
        return pa.table({
            "vec_id": pa.array(ids),
            "dim": pa.array(np.full(len(ids), mat.shape[1],
                                    dtype=np.int64)),
            "norm2_e12": pa.array(norm2),
            "q8_sum": pa.array(np.abs(q8).sum(axis=1)),
        })

    return ds.map_batches(quant, batch_format="pyarrow")


SQL_Q93 = """
WITH q AS (
  SELECT vec_id,
         list_transform(embedding,
             x -> CAST(FLOOR(CAST(x AS DOUBLE) * 1000000 + 0.5)
                       AS BIGINT)) AS e6
  FROM embeddings
),
m AS (
  SELECT vec_id, e6, len(e6) AS dim,
         greatest(list_max(list_transform(e6, x -> abs(x))), 1) AS amax
  FROM q
)
SELECT CAST(vec_id AS BIGINT) AS vec_id,
       CAST(dim AS BIGINT) AS dim,
       CAST(list_sum(list_transform(e6, x -> x * x)) AS BIGINT)
           AS norm2_e12,
       CAST(list_sum(list_transform(e6, x -> abs(
           ((x + amax) * 254 + amax) // (2 * amax) - 127
       ))) AS BIGINT) AS q8_sum
FROM m
"""


# --- q126: mutual-kNN pair filter --------------------------------------------

MKNN_K = 5


def q126_mutual_knn(sf_dir: str):
    """Mutual k-nearest-neighbor pairs: (a, b) survives only if b is in
    a's exact top-K cosine neighbors AND a is in b's — the standard
    precision filter over raw similarity edges (asymmetric neighbors are
    the classic near-dup false-positive: a boilerplate-ish vector is in
    everyone's top-K, but almost nobody is in its).

    Shape: the corpus matrix broadcasts once (the q10/q11 exact-baseline
    device — the labeled O(n·corpus) path; at scale the same mutuality
    filter composes over ann_ivf/semantic_dedup's confined neighbor
    edges), each batch computes its rows' COMPLETE directed top-K in one
    matmul + partial-top-k (a batch row sees the whole corpus, so no
    shuffle is needed for its neighbor list), and mutuality is ONE
    exchange on the packed undirected pair key — a pair key collects
    exactly 2 rows iff both directions agree."""
    from ..functions.grouping import hash_exchange

    ids_all, mat_all = _query_side(sf_dir, 1 << 62)      # whole corpus
    ref = ray.put((ids_all, mat_all))

    class Directed:
        def __init__(self, cref):
            self.ids, self.mat = ray.get(cref) \
                if isinstance(cref, ray.ObjectRef) else cref

        def __call__(self, t: pa.Table) -> pa.Table:
            ids, mat = _matrix(t)
            cos_e6 = _cos_e6(mat, self.mat)              # (batch, corpus)
            nb, nc = cos_e6.shape
            src = np.repeat(ids, nc)
            dst = np.tile(self.ids, nb)
            flat = cos_e6.ravel()
            keep = src != dst
            src, dst, flat = src[keep], dst[keep], flat[keep]
            m = _topk_mask(src, flat, dst, MKNN_K)       # batch-complete
            src, dst, flat = src[m], dst[m], flat[m]
            pk = np.minimum(src, dst) * (1 << 32) + np.maximum(src, dst)
            return pa.table({
                "pk": pa.array(pk, type=pa.int64()),
                "src": pa.array(src, type=pa.int64()),
                "dst": pa.array(dst, type=pa.int64()),
                "cos_e6": pa.array(flat, type=pa.int64()),
            })

    edges = _read_embeddings(sf_dir).map_batches(
        Directed, fn_constructor_kwargs={"cref": ref},
        batch_format="pyarrow", batch_size=4096, concurrency=(1, 4))

    empty = pa.table({"a": pa.array([], type=pa.int64()),
                      "b": pa.array([], type=pa.int64()),
                      "cos_e6": pa.array([], type=pa.int64())})

    def mutual(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "pk" not in t.column_names:
            return empty
        pk = np.asarray(t["pk"], dtype=np.int64)
        src = np.asarray(t["src"], dtype=np.int64)
        dst = np.asarray(t["dst"], dtype=np.int64)
        cos = np.asarray(t["cos_e6"], dtype=np.int64)
        _, inv, cnt = np.unique(pk, return_inverse=True, return_counts=True)
        keep = (cnt[inv] == 2) & (src < dst)   # one row per mutual pair
        return pa.table({
            "a": pa.array(src[keep], type=pa.int64()),
            "b": pa.array(dst[keep], type=pa.int64()),
            "cos_e6": pa.array(cos[keep], type=pa.int64()),
        })

    return hash_exchange(edges, "pk", mutual, num_buckets=16)


SQL_Q126 = f"""
WITH n AS (SELECT vec_id, embedding,
                  sqrt(list_sum(list_transform(embedding,
                       x -> x::DOUBLE * x::DOUBLE))) AS nrm
           FROM embeddings),
c AS (SELECT a.vec_id AS src, b.vec_id AS dst,
             CAST(floor(({_COS_SQL.format(a='a.embedding', b='b.embedding',
                                          na='a.nrm', nb='b.nrm')})
                        * 1000000 + 0.5) AS BIGINT) AS cos_e6
      FROM n a CROSS JOIN n b
      WHERE a.vec_id <> b.vec_id),
k AS (SELECT * FROM c
      QUALIFY row_number() OVER (PARTITION BY src
                                 ORDER BY cos_e6 DESC, dst) <= {MKNN_K})
SELECT x.src AS a, x.dst AS b, x.cos_e6
FROM k x JOIN k y ON y.src = x.dst AND y.dst = x.src
WHERE x.src < x.dst
"""


# --- product quantization (PQ) -----------------------------------------------

PQ_M = 8          # subspaces (64-dim embedding → 8×8-dim subvectors)
PQ_K = 16         # centroids per subspace → 4-bit codes, 4 B/vector
PQ_ITERS = 8


def _pq_train(emb: ray.data.Dataset, m: int = PQ_M, k: int = PQ_K,
              iters: int = PQ_ITERS) -> np.ndarray:
    """(m, k, dim/m) PQ codebook by per-subspace distributed Lloyd (L2):
    ALL m subspaces train in the SAME streaming pass per iteration —
    each batch assigns every subvector to its nearest subspace centroid
    and emits ≤ m·k (sum, count) partial rows; the driver folds the
    O(blocks × m × k) partials and holds only the m×k×(dim/m) codebook.
    Seeds are the hash-sampled vectors of `_hash_seeds` (deterministic
    under repartitioning), split into their subvectors."""
    seeds = _hash_seeds(emb, k)                       # (k, dim), unit-norm
    dim = seeds.shape[1]
    sub = dim // m
    cents = seeds.reshape(k, m, sub).transpose(1, 0, 2).copy()  # (m,k,sub)

    for _ in range(iters):
        ref = ray.put(cents)

        def part(t: pa.Table) -> pa.Table:
            c = ray.get(ref)                          # (m, k, sub)
            _, mat = _matrix(t)
            if mat.shape[0] == 0:
                return pa.table({"m": pa.array([], type=pa.int64()),
                                 "j": pa.array([], type=pa.int64()),
                                 "cnt": pa.array([], type=pa.int64()),
                                 "s": pa.array([], type=pa.list_(
                                     pa.float64()))})
            x = mat.reshape(mat.shape[0], m, sub)
            ms, js, cnts, sums = [], [], [], []
            for mi in range(m):
                d = ((x[:, mi, None, :] - c[mi][None, :, :]) ** 2).sum(-1)
                a = np.argmin(d, axis=1)
                for j in range(k):
                    sel = x[a == j, mi, :]
                    if len(sel):
                        ms.append(mi); js.append(j)
                        cnts.append(len(sel)); sums.append(sel.sum(0))
            return pa.table({
                "m": pa.array(ms, type=pa.int64()),
                "j": pa.array(js, type=pa.int64()),
                "cnt": pa.array(cnts, type=pa.int64()),
                "s": pa.array([list(v) for v in sums],
                              type=pa.list_(pa.float64())),
            })

        rows = emb.map_batches(part, batch_format="pyarrow").to_pandas()
        if len(rows) == 0:
            break
        new = cents.copy()
        for (mi, j), g in rows.groupby(["m", "j"]):
            tot = np.sum(np.stack(g["s"].to_numpy()), axis=0)
            new[mi, j] = tot / g["cnt"].sum()
        cents = new
    return cents


def _pq_codes(mat: np.ndarray, cents: np.ndarray) -> np.ndarray:
    """(n, dim) → packed int64 codes (4 bits per subspace)."""
    n = mat.shape[0]
    m, _, sub = cents.shape
    x = mat.reshape(n, m, sub)
    code = np.zeros(n, dtype=np.int64)
    for mi in range(m):
        d = ((x[:, mi, None, :] - cents[mi][None, :, :]) ** 2).sum(-1)
        code |= np.argmin(d, axis=1).astype(np.int64) << (4 * mi)
    return code


def pq_encode(sf_dir: str):
    """PQ-encode the embedding corpus: 64 float32 dims → ONE packed
    int64 of 8 4-bit centroid ids (64× smaller than the raw vectors) —
    the standard memory-bounded ANN representation (Jégou 2011): at
    10⁹ vectors the codes table is 12 GB where the raw floats are
    256 GB, so the scan side of a similarity query fits in page cache.
    Codebook trained by the shared streaming per-subspace Lloyd; the
    encode itself is one stateless vectorized pass.  Iterative k-means →
    rows-only driver check; round-trip quantization error and ADC
    recall are pinned in tests/test_ann.py."""
    emb = _read_embeddings(sf_dir)
    cref = ray.put(_pq_train(emb))

    def enc(t: pa.Table) -> pa.Table:
        c = ray.get(cref)
        ids, mat = _matrix(t)
        return pa.table({
            "vec_id": pa.array(ids.astype(np.int64)),
            "pq_code": pa.array(_pq_codes(mat, c)),
        })

    return emb.map_batches(enc, batch_format="pyarrow")


PQ_RERANK = 10 * TOP_K    # ADC candidate pool per query before re-rank


def ann_pq_topk(sf_dir: str, n_queries: int = N_QUERIES,
                k: int = TOP_K, rerank: int = PQ_RERANK):
    """Approximate top-k by asymmetric distance computation over PQ
    codes + exact re-rank (the production IVF-ADC shape, Jégou 2011):
    queries stay full-precision, each precomputes an (m × 16) lookup
    table of subvector-to-centroid distances, and the corpus SCAN costs
    m table lookups on a 4 B packed code per vector — no float math per
    candidate, then only the top-``rerank`` ADC pool per query (bounded
    O(nq·R) rows at ANY corpus scale) is re-scored with exact L2 from
    the raw vectors.  Same partial-top-k combiner discipline as q10
    (≤ R rows per query cross the shuffle); the candidate fetch is one
    streaming filtered pass, never a corpus materialize.  Approximate →
    rows-only driver check; pool + final recall vs the exact ranking
    are pinned in tests/test_ann.py."""
    from ..functions.grouping import hash_exchange

    emb = _read_embeddings(sf_dir)
    cents = _pq_train(emb)
    q_ids, q_mat = _query_side(sf_dir, n_queries)
    m, _, sub = cents.shape
    # (nq, m, 16) ADC tables: ||q_sub − c_mj||²
    qx = q_mat.reshape(len(q_ids), m, sub)
    lut = ((qx[:, :, None, :] - cents[None, :, :, :]) ** 2).sum(-1)
    ref = ray.put((q_ids, lut, cents))

    def score(t: pa.Table) -> pa.Table:
        qi, ql, c = ray.get(ref)
        ids, mat = _matrix(t)
        codes = _pq_codes(mat, c)
        nb, nq = len(ids), len(qi)
        # decode each subspace id and gather its LUT column: (nq, nb)
        dist = np.zeros((nq, nb), dtype=np.float64)
        for mi in range(ql.shape[1]):
            j = (codes >> (4 * mi)) & 15
            dist += ql[:, mi, :][:, j]
        d_e6 = np.floor(dist * 1_000_000 + 0.5).astype(np.int64)
        qcol = np.repeat(qi, nb)
        vcol = np.tile(ids.astype(np.int64), nq)
        flat = d_e6.ravel()
        keep = qcol != vcol
        qcol, vcol, flat = qcol[keep], vcol[keep], flat[keep]
        msk = _topk_mask(qcol, -flat, vcol, rerank)
        return pa.table({"query_id": pa.array(qcol[msk]),
                         "vec_id": pa.array(vcol[msk]),
                         "adc_e6": pa.array(flat[msk])})

    scored = emb.map_batches(score, batch_format="pyarrow",
                             batch_size=4096)

    def pool_topk(bucket: pa.Table) -> pa.Table:
        q = np.asarray(bucket["query_id"])
        d = np.asarray(bucket["adc_e6"])
        vid = np.asarray(bucket["vec_id"])
        msk = _topk_mask(q, -d, vid, rerank)
        return bucket.filter(pa.array(msk))

    pool = (hash_exchange(scored, "query_id", pool_topk)
            .to_pandas())                       # ≤ nq·R skinny rows
    return _exact_rerank(emb, pool, q_ids, q_mat, k)


def _exact_rerank(emb: ray.data.Dataset, pool, q_ids: np.ndarray,
                  q_mat: np.ndarray, k: int) -> pa.Table:
    """Exact-L2 re-rank of a bounded candidate pool: fetch ONLY the pool
    vectors (streaming filtered pass — O(nq·R) rows regardless of corpus
    size, never a corpus materialize), score on the driver."""
    cset = np.unique(pool["vec_id"].to_numpy())
    csort = np.sort(cset)
    cref = ray.put(csort)

    def fetch(t: pa.Table) -> pa.Table:
        want = ray.get(cref)
        ids = np.asarray(t["vec_id"], dtype=np.int64)
        pos = np.searchsorted(want, ids)
        hit = (pos < len(want)) & (want[np.minimum(pos, len(want) - 1)]
                                   == ids)
        return t.filter(pa.array(hit))

    vec_tbl = pa.concat_tables([
        b for b in emb.map_batches(fetch, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow") if b.num_rows])
    vids, vmat = _matrix(vec_tbl)
    vidx = {int(v): i for i, v in enumerate(vids)}

    out_q, out_v, out_d = [], [], []
    for qi, qv in zip(q_ids, q_mat):
        cand = pool.loc[pool["query_id"] == qi, "vec_id"].to_numpy()
        if len(cand) == 0:
            continue
        cm = vmat[[vidx[int(v)] for v in cand]]
        d = np.floor(((cm - qv) ** 2).sum(1) * 1_000_000
                     + 0.5).astype(np.int64)
        order = np.lexsort((cand, d))[:k]
        out_q.extend([int(qi)] * len(order))
        out_v.extend(cand[order].tolist())
        out_d.extend(d[order].tolist())
    return pa.table({"query_id": pa.array(out_q, type=pa.int64()),
                     "vec_id": pa.array(out_v, type=pa.int64()),
                     "l2_e6": pa.array(out_d, type=pa.int64())})


def ann_ivfpq_topk(sf_dir: str, n_queries: int = N_QUERIES,
                   k: int = TOP_K, rerank: int = PQ_RERANK):
    """IVF-PQ — the production composition of the two scale devices
    (Jégou 2011, the FAISS default): the IVF coarse quantizer prunes the
    SCAN (only IVF_NPROBE of IVF_CELLS lists are touched per query) and
    4-bit residual-PQ codes shrink what the scan READS (4 B/vector over
    x − c_cell, which quantizes tighter than raw vectors because the
    coarse offset is already removed).  Query: per probed cell an
    (m × 16) ADC table over the query RESIDUAL q − c_cell; candidate
    cost is m lookups; the bounded top-``rerank`` pool re-scores exact
    from raw vectors (`_exact_rerank`).

    Distribution: residual encode is one streaming pass after the coarse
    assign; the PQ codebook trains on the residual stream with the
    shared per-subspace Lloyd; ONE cell-keyed exchange co-locates each
    list; nothing materializes the corpus.  Approximate → rows-only
    driver check; recall vs exact is pinned in tests/test_ann.py."""
    from ..functions.grouping import hash_exchange

    emb = _read_embeddings(sf_dir)
    cents = _ivf_centroids(sf_dir, IVF_CELLS)            # (cells, d) unit
    cref = ray.put(cents)

    def residual(t: pa.Table) -> pa.Table:
        c = ray.get(cref)
        ids, mat = _matrix(t)
        a = np.argmax(_normalize(mat) @ c.T, axis=1)
        res = mat - c[a]
        return pa.table({
            "vec_id": pa.array(ids.astype(np.int64)),
            "cell": pa.array(a.astype(np.int64)),
            "embedding": pa.array(list(res), type=pa.list_(pa.float64())),
        })

    res_ds = emb.map_batches(residual, batch_format="pyarrow",
                             batch_size=4096).materialize()
    book = _pq_train(res_ds)
    bref = ray.put(book)

    def enc(t: pa.Table) -> pa.Table:
        b = ray.get(bref)
        ids, mat = _matrix(t)
        return pa.table({
            "vec_id": pa.array(ids.astype(np.int64)),
            "cell": pa.array(np.asarray(t["cell"], dtype=np.int64)),
            "pq_code": pa.array(_pq_codes(mat, b)),
        })

    codes = res_ds.map_batches(enc, batch_format="pyarrow",
                               batch_size=4096)

    q_ids, q_mat = _query_side(sf_dir, n_queries)
    qcos = _normalize(q_mat) @ cents.T
    nprobe = min(IVF_NPROBE, cents.shape[0])
    probe_cells = np.argsort(-qcos, axis=1)[:, :nprobe]
    m, _, sub = book.shape
    # per (query, probed cell): ADC table over the query residual
    luts: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for c in np.unique(probe_cells):
        qsel = np.unique(np.nonzero(probe_cells == c)[0])
        qres = (q_mat[qsel] - cents[int(c)]).reshape(len(qsel), m, sub)
        luts[int(c)] = (q_ids[qsel],
                        ((qres[:, :, None, :] - book[None]) ** 2).sum(-1))
    lref = ray.put(luts)

    def probe(group: pa.Table) -> pa.Table:
        lt = ray.get(lref)
        empty = pa.table({"query_id": pa.array([], type=pa.int64()),
                          "vec_id": pa.array([], type=pa.int64()),
                          "adc_e6": pa.array([], type=pa.int64())})
        if group.num_rows == 0 or "cell" not in group.column_names:
            return empty
        ids = np.asarray(group["vec_id"], dtype=np.int64)
        cell = np.asarray(group["cell"], dtype=np.int64)
        code = np.asarray(group["pq_code"], dtype=np.int64)
        outs = []
        for c in np.unique(cell):
            got = lt.get(int(c))
            if got is None:
                continue
            qi, ql = got
            sel = cell == c
            m_ids, m_code = ids[sel], code[sel]
            dist = np.zeros((len(qi), len(m_ids)), dtype=np.float64)
            for mi in range(ql.shape[1]):
                j = (m_code >> (4 * mi)) & 15
                dist += ql[:, mi, :][:, j]
            d_e6 = np.floor(dist * 1_000_000 + 0.5).astype(np.int64)
            qcol = np.repeat(qi, len(m_ids))
            vcol = np.tile(m_ids, len(qi))
            flat = d_e6.ravel()
            keep = qcol != vcol
            qcol, vcol, flat = qcol[keep], vcol[keep], flat[keep]
            if len(qcol) == 0:
                continue
            msk = _topk_mask(qcol, -flat, vcol, rerank)
            outs.append(pa.table({"query_id": pa.array(qcol[msk]),
                                  "vec_id": pa.array(vcol[msk]),
                                  "adc_e6": pa.array(flat[msk])}))
        return pa.concat_tables(outs) if outs else empty

    partial = hash_exchange(codes, "cell", probe)

    def pool_topk(bucket: pa.Table) -> pa.Table:
        q = np.asarray(bucket["query_id"])
        d = np.asarray(bucket["adc_e6"])
        vid = np.asarray(bucket["vec_id"])
        msk = _topk_mask(q, -d, vid, rerank)
        return bucket.filter(pa.array(msk))

    pool = hash_exchange(partial, "query_id", pool_topk).to_pandas()
    return _exact_rerank(emb, pool, q_ids, q_mat, k)


QUERIES = {
    "q10_knn_bruteforce": (q10_knn_bruteforce, SQL_Q10),
    "q126_mutual_knn": (q126_mutual_knn, SQL_Q126),
    "q61_embedding_dedup": (q61_embedding_dedup, SQL_Q61),
    "q11_embedding_neardup": (q11_embedding_neardup, SQL_Q11),
    "ann_lsh_topk": (ann_lsh, None),        # approximate → rows-only check
    "ann_ivf_topk": (ann_ivf_topk, None),   # approximate → rows-only check
    "ann_neardup_lsh": (ann_neardup_lsh, None),
    # PQ: iterative codebook → rows-only; quantization error + ADC
    # recall vs exact L2 pinned in tests/test_ann.py
    "pq_encode": (pq_encode, None),
    "ann_pq_topk": (ann_pq_topk, None),
    "ann_ivfpq_topk": (ann_ivfpq_topk, None),
    # iterative algorithm → rows-only check; pytest pins determinism
    # and inertia descent (tests/test_ann.py)
    "kmeans_embeddings": (kmeans_embeddings, None),
    # k-means-confined near-dup pruning (SemDeDup) → rows-only; the keep
    # rule is pinned vs an exact numpy reference in tests/test_ann.py
    "semantic_dedup": (semantic_dedup, None),
    "q65_embedding_covariance": (q65_embedding_covariance, SQL_Q65),
    "q69_label_centroid_outliers": (q69_label_centroid_outliers, SQL_Q69),
    "q70_negative_sampling": (q70_negative_sampling, SQL_Q70),
    # eigendecomposition → rows-only; q65 oracle-checks the covariance
    # it consumes, tests/test_ann.py checks the projection vs numpy
    "pca_project": (pca_project, None),
    "q93_embedding_quantize": (q93_embedding_quantize, SQL_Q93),
}
