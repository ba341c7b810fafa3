#!/usr/bin/env python
"""Scale-proof run of the flagship linkage pipeline (BASELINE.md §scale).

Runs the end-to-end flagship at ``--n-convs`` (default 250k ≈ 12.5× the
sf0.1 bench corpus, the "sf1.0+" point) on a fresh Ray session and
reports ONE JSON line: wall time, pairs/s, cluster count, the pairwise
F1 gate vs the corpus labels, exchange bucket count + whether the
two-round hierarchical exchange engaged, and peak RSS of the whole
process tree (driver + raylet + workers, sampled from /proc).

Two recorded configurations evidence the 100× claims:
  * default            — production bucket sizing (flat exchange)
  * --rows-per-bucket 500 — forces bucket count past TWO_ROUND_THRESHOLD
    so the hierarchical two-round exchange carries the SAME workload
    (identical F1 required) — the shuffle topology a 100 TB run uses.

Usage: python tools/scaleproof.py [--n-convs N] [--rows-per-bucket R]
       [--num-cpus C]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _tree_rss_mb() -> float:
    """Sum RSS (MB) over every process we can read — on this
    single-purpose VM that is the driver + Ray tree (plus a few
    O(10 MB) system daemons, noise at the GB scale reported)."""
    total = 0
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/statm") as f:
                total += int(f.read().split()[1])
        except (OSError, IndexError, ValueError):
            continue
    return total * os.sysconf("SC_PAGE_SIZE") / 1e6


class PeakSampler(threading.Thread):
    def __init__(self, interval: float = 0.5):
        super().__init__(daemon=True)
        self.peak = 0.0
        self.stop = threading.Event()
        self.interval = interval

    def run(self):
        while not self.stop.is_set():
            self.peak = max(self.peak, _tree_rss_mb())
            self.stop.wait(self.interval)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-convs", type=int, default=250_000)
    ap.add_argument("--rows-per-bucket", type=int, default=None)
    ap.add_argument("--num-cpus", type=int,
                    default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    args = ap.parse_args()

    import ray

    ray.init(address="local", num_cpus=args.num_cpus,
             include_dashboard=False, logging_level="ERROR")
    import logging

    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    import pyarrow.parquet as pq
    import ray.data as rd

    from pboh_entity_linking_ray.config import PipelineConfig
    from pboh_entity_linking_ray.functions.grouping import (
        TWO_ROUND_THRESHOLD, buckets_for)
    from pboh_entity_linking_ray.pipelines.linkage import run_linkage
    from pboh_entity_linking_ray.pipelines.linkage_queries import CORPUS_CACHE
    from pboh_entity_linking_ray.sources.synthetic import ensure_corpus
    from pboh_entity_linking_ray.stages.evaluate import pairwise_metrics

    d = ensure_corpus(CORPUS_CACHE, args.n_convs)      # untimed, cached

    cfg = PipelineConfig()
    if args.rows_per_bucket is not None:
        from dataclasses import replace

        cfg = replace(cfg, rows_per_bucket=args.rows_per_bucket)
    nb = buckets_for(args.n_convs, cfg.rows_per_bucket, args.num_cpus)

    def turns():
        return rd.read_parquet(f"{d}/turns.parquet")

    def _warm(t):
        import numpy  # noqa: F401
        import polars  # noqa: F401
        return t.slice(0, 1)

    turns().map_batches(_warm, batch_format="pyarrow").count()

    sampler = PeakSampler()
    sampler.start()
    t0 = time.perf_counter()
    res = run_linkage(turns(), cfg)
    pairs = res.scored.materialize()
    n_pairs = pairs.count()
    n_clusters = res.clusters.count()
    wall = time.perf_counter() - t0
    sampler.stop.set()

    labels = pq.read_table(f"{d}/labels.parquet")
    m = pairwise_metrics(pairs, labels)

    print(json.dumps({
        "n_convs": args.n_convs,
        "num_cpus": args.num_cpus,
        "rows_per_bucket": cfg.rows_per_bucket,
        "num_buckets": nb,
        "two_round_engaged": nb > TWO_ROUND_THRESHOLD,
        "wall_sec": round(wall, 2),
        "pairs_scored": int(n_pairs),
        "pairs_per_sec": round(n_pairs / wall, 1),
        "n_clusters": int(n_clusters),
        "f1": m["f1"],
        "precision": m["precision"],
        "recall": m["recall"],
        "peak_rss_mb": round(sampler.peak, 1),
    }))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
