"""Ray-Data-native record-linkage engine (PBoH recast for transcripts).

A from-scratch blocking + pairwise-scoring + transitive-clustering pipeline
over Parquet tables of multi-turn conversation transcripts
(``conv_id, turn_idx, role, text, tool, ts``), expressed as
``ray.data.Dataset`` stages over zero-copy Arrow batches.

Structural ancestor (capabilities only, no code): dalab/pboh-entity-linking
(/root/reference) — per-document loopy-BP entity linking over in-JVM
hash-map indexes. Here the per-doc LBP is replaced by a loopy-BP-free
max-product pairwise log-odds scored inside the second feature-attach
join's bucket tasks (a task pool, no actors), each worker process caching
the broadcast Arrow statistics tables (see SURVEY.md §2.3 M11-M13), and
clusters come from iterative hash-partitioned connected components.
"""

import os as _os

# Every Ray task gets 1 CPU; an unpinned polars would still size its rayon
# pool to the MACHINE's cores, so 32 concurrent 1-CPU tasks spawn ~1000
# threads and the map stages run SLOWER at higher parallelism (measured:
# canonicalize 5.0 s @ 8 CPUs → 6.8 s @ 32).  This module is imported in
# every worker before polars is, so the pin lands before the pool exists.
_os.environ.setdefault("POLARS_MAX_THREADS", "1")
# BLAS pools have the same machine-sized default
_os.environ.setdefault("OMP_NUM_THREADS", "1")
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def _pin_arrow_in_workers() -> None:
    """Pin pyarrow's per-process compute pool to the task's 1-CPU slot.

    Arrow sizes its pool to the MACHINE's cores per process; N 1-CPU Ray
    workers on one node otherwise run N×cores compute threads, so a job
    at ray.init(num_cpus=2) still consumes most of the box (measured:
    the linkage pipeline at 2 CPUs ran within 11% of its 4-CPU time).
    Only workers are pinned — the driver keeps Arrow's default pool for
    its small fan-in conversions.  This import runs in every worker
    before the first batch (UDF deserialization imports the package).
    """
    try:
        import ray as _ray
        from ray._private.worker import WORKER_MODE as _WM

        if (_ray.is_initialized()
                and _ray._private.worker.global_worker.mode == _WM):
            import pyarrow as _pa

            _pa.set_cpu_count(1)
            # Arrow's separate IO pool (8/process) is deliberately NOT
            # pinned: its threads wait on reads rather than compute, and
            # pinning it measurably slowed every parallelism level
            # (t16 58s → 70s) without making low-CPU baselines more
            # honest — see BASELINE.md measurement notes.
    except Exception:       # never let env pinning break an import
        pass


_pin_arrow_in_workers()

__version__ = "0.1.0"
