"""Per-stage Ray Data stats for any queries() entry — the "read
ds.stats() and iterate" loop as a one-liner.

Usage: python tools/stagestats.py <query> [sf_dir]

Runs the query, materializes its result, and prints Ray's operator-level
wall/CPU/rows breakdown (`Dataset.stats()`), so a slow stage is visible
by name instead of guessed at.  Note: queries built on the direct
hash exchange run their shuffle inside raw Ray tasks — those stages
appear in total wall time and in the per-layer spans of a traced
benchmark run (`python3 perfbench/run.py --trace 1`), not in
Dataset.stats().
"""
from __future__ import annotations

import os
import sys
import time


def main() -> None:
    name = sys.argv[1]
    sf_dir = sys.argv[2] if len(sys.argv) > 2 else "/root/testdata/sf0.1"

    import ray

    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    import __ray_entry__ as e

    fn = e.queries()[name]
    t0 = time.perf_counter()
    res = fn(sf_dir)
    if isinstance(res, ray.data.Dataset):
        res = res.materialize()
        wall = time.perf_counter() - t0
        print(res.stats())
    else:
        wall = time.perf_counter() - t0
        print(f"(non-Dataset result: {type(res).__name__} — no stats)")
    print(f"\n== {name} total wall: {wall:.2f}s ==")
    ray.shutdown()


if __name__ == "__main__":
    main()
