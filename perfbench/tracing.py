"""Per-layer spans and exact exchange counts for the traced run.

Everything here works from outside the package: ``Tracer.install``
replaces the public stage functions, the pipeline entry points and the
``functions.grouping`` shuffle primitives with wrappers in every package
module that binds them (module attributes, including the import-time
bindings in ``stages.canonicalize`` and ``stages.clustering``), and
``uninstall`` puts the originals back.

- A stage wrapper materializes the stage's output inside its span, so
  lazy work is charged to the stage that defines it rather than to the
  consumer that happens to execute it.  That is a trace-only change of
  the execution plan; its cost shows as ``trace_overhead_s``.
- An exchange wrapper only counts: it calls straight through, so the
  laziness of the primitive is unchanged.  A primitive called from
  inside another (``dedup_keep_first`` → ``bucketed_groups`` →
  ``hash_exchange``) is one exchange and is counted once, at the
  outermost call, with that call's ``num_buckets``.
- Row counts are taken after the traced op from the outputs the spans
  kept, so counting never lands inside a span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.compute as pc
import ray

PKG = "pboh_entity_linking_ray"

# (module, function) → span name; outputs are materialized in the span
STAGES = {
    ("stages.canonicalize", "canonicalize"): "canonicalize",
    ("stages.featurize", "build_stem_map"): "stem_map",
    ("stages.featurize", "featurize"): "featurize",
    ("stages.stats", "build_token_stats"): "token_stats",
    ("stages.stats", "build_pair_stats"): "pair_stats",
    ("stages.stats", "build_entity_prior_from_docs"): "prior",
    ("stages.blocking", "add_block_keys"): "block_keys",
    ("stages.blocking", "make_pairs"): "make_pairs",
    ("stages.blocking", "make_pairs_incremental"): "make_pairs",
    ("stages.blocking", "dedup_pairs"): "dedup_pairs",
    ("stages.scoring", "attach_and_score"): "score",
    ("stages.clustering", "cluster_matches"): "cluster",
}
PIPELINES = {
    ("pipelines.linkage", "run_linkage"): "run_linkage",
    ("pipelines.incremental", "run_incremental"): "run_incremental",
    ("pipelines.incremental", "fold_incremental"): "fold_incremental",
    ("pipelines.console", "link_one"): "link_one",
}
EXCHANGES = ("hash_exchange", "bucketed_groups", "hash_join", "skew_join",
             "dedup_keep_first", "bucketed_sum", "bucketed_sum_multi")

# name → (unit, better); the per_layer list of BENCHMARK.json
LAYER_METRICS = {
    "stages.canonicalize.s": ("s", "lower"),
    "stages.canonicalize.rows": ("count", "lower"),
    "stages.featurize.stem_map_s": ("s", "lower"),
    "stages.featurize.s": ("s", "lower"),
    "stages.stats.token_s": ("s", "lower"),
    "stages.stats.pair_s": ("s", "lower"),
    "stages.stats.prior_s": ("s", "lower"),
    "stages.stats.pair_rows": ("count", "lower"),
    "stages.blocking.keys_s": ("s", "lower"),
    "stages.blocking.pairs_s": ("s", "lower"),
    "stages.blocking.dedup_s": ("s", "lower"),
    "stages.blocking.raw_pairs": ("count", "lower"),
    "stages.blocking.capped_pairs": ("count", "lower"),
    "stages.blocking.dedup_ratio": ("ratio", "higher"),
    "stages.scoring.s": ("s", "lower"),
    "stages.scoring.rows": ("count", "lower"),
    "stages.scoring.match_rows": ("count", "lower"),
    "stages.clustering.s": ("s", "lower"),
    "stages.clustering.clusters": ("count", "lower"),
    "functions.grouping.calls": ("count", "lower"),
    "functions.grouping.buckets": ("count", "lower"),
    "pipelines.linkage.driver_s": ("s", "lower"),
    "pipelines.incremental.s": ("s", "lower"),
    "pipelines.incremental.pairs": ("count", "lower"),
    "pipelines.console.s": ("s", "lower"),
    "pipelines.console.filter_s": ("s", "lower"),
    "pipelines.console.accuracy": ("ratio", "higher"),
    "state.checkpoint.stage_s": ("s", "lower"),
    "state.checkpoint.self_s": ("s", "lower"),
    "state.checkpoint.bytes": ("B", "lower"),
    "trace_overhead_s": ("s", "lower"),
}


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    out: object = None        # materialized stage output (deferred counts)

    @property
    def dur(self) -> float:
        return self.end - self.start


def _blocks(ds) -> list[pa.Table]:
    """Non-empty blocks of a materialized Dataset (a fully empty map
    output can be a zero-column block)."""
    return [b for b in ray.get(ds.to_arrow_refs()) if b.num_rows]


def _column(ds, col: str) -> pa.ChunkedArray:
    chunks = [c for b in _blocks(ds) for c in b[col].chunks]
    return pa.chunked_array(chunks, type=chunks[0].type) if chunks \
        else pa.chunked_array([], type=pa.null())


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.exchanges: list[tuple[str, int]] = []
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------
    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        sp = Span(name, stack[-1] if stack else None, time.perf_counter())
        self.spans.append(sp)
        stack.append(len(self.spans) - 1)
        return sp

    def _close(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        self._stack().pop()

    def _stage(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sp = self._open(name)
            try:
                sp.out = fn(*args, **kwargs).materialize()
            finally:
                self._close(sp)
            return sp.out
        return wrapper

    def _pipeline(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sp = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sp)
        return wrapper

    def _exchange(self, fn, name):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = getattr(self._local, "depth", 0)
            if depth == 0:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.exchanges.append(
                    (name, int(bound.arguments["num_buckets"])))
            self._local.depth = depth + 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._local.depth = depth
        return wrapper

    def _checkpointed(self, run):
        @functools.wraps(run)
        def wrapper(runner, *args, **kwargs):
            if not runner.root:
                return run(runner, *args, **kwargs)
            sp = self._open("checkpoint")
            try:
                return run(runner, *args, **kwargs)
            finally:
                self._close(sp)
        return wrapper

    # --- patching --------------------------------------------------------
    def install(self) -> None:
        swap = {}                     # id(original) → wrapper
        for table, make in ((STAGES, self._stage),
                            (PIPELINES, self._pipeline)):
            for (mod, attr), name in table.items():
                fn = getattr(importlib.import_module(f"{PKG}.{mod}"), attr)
                swap[id(fn)] = make(fn, name)
        grouping = importlib.import_module(f"{PKG}.functions.grouping")
        for attr in EXCHANGES:
            fn = getattr(grouping, attr)
            swap[id(fn)] = self._exchange(fn, attr)
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == PKG
                                   or mname.startswith(PKG + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in swap:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, swap[id(val)])
        runner = importlib.import_module(f"{PKG}.state.checkpoint").StageRunner
        self._restore.append((runner, "run", runner.run))
        runner.run = self._checkpointed(runner.run)

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._restore):
            setattr(owner, attr, val)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --- summary ---------------------------------------------------------
    def _children_s(self, i: int) -> float:
        return sum(s.dur for s in self.spans if s.parent == i)

    def _under(self, i: int, name: str) -> bool:
        p = self.spans[i].parent
        while p is not None:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values over every span recorded (the traced ops)."""
        by = defaultdict(list)
        for i, s in enumerate(self.spans):
            by[s.name].append(i)

        def total(name):
            return sum(self.spans[i].dur for i in by[name])

        def self_s(name):
            return sum(self.spans[i].dur - self._children_s(i)
                       for i in by[name])

        def rows(name, only=lambda i: True):
            return sum(self.spans[i].out.count() for i in by[name] if only(i))

        def col_sum(name, col):
            return sum(int(pc.sum(_column(self.spans[i].out, col)).as_py()
                           or 0) for i in by[name])

        raw = rows("make_pairs")
        clusters = sum(
            pc.count_distinct(_column(self.spans[i].out, "cluster_id")).as_py()
            for i in by["cluster"] if self.spans[i].out.count())
        return {
            "stages.canonicalize.s": total("canonicalize"),
            "stages.canonicalize.rows": rows("canonicalize"),
            "stages.featurize.stem_map_s": total("stem_map"),
            "stages.featurize.s": total("featurize"),
            "stages.stats.token_s": total("token_stats"),
            "stages.stats.pair_s": total("pair_stats"),
            "stages.stats.prior_s": total("prior"),
            "stages.stats.pair_rows": rows("pair_stats"),
            "stages.blocking.keys_s": total("block_keys"),
            "stages.blocking.pairs_s": total("make_pairs"),
            "stages.blocking.dedup_s": total("dedup_pairs"),
            "stages.blocking.raw_pairs": raw,
            "stages.blocking.capped_pairs": col_sum("make_pairs",
                                                    "capped_pairs"),
            "stages.blocking.dedup_ratio": (rows("dedup_pairs") / raw
                                            if raw else 0.0),
            "stages.scoring.s": total("score"),
            "stages.scoring.rows": rows("score"),
            "stages.scoring.match_rows": col_sum("score", "is_match"),
            "stages.clustering.s": total("cluster"),
            "stages.clustering.clusters": clusters,
            "functions.grouping.calls": len(self.exchanges),
            "functions.grouping.buckets": sum(b for _, b in self.exchanges),
            "pipelines.linkage.driver_s": self_s("run_linkage"),
            "pipelines.incremental.s": total("run_incremental"),
            "pipelines.incremental.pairs": rows(
                "dedup_pairs", lambda i: self._under(i, "run_incremental")),
            "pipelines.console.s": total("link_one"),
            "pipelines.console.filter_s": self_s("link_one"),
            "state.checkpoint.stage_s": total("checkpoint"),
            "state.checkpoint.self_s": self_s("checkpoint"),
        }

    def span_records(self) -> list[dict]:
        t0 = min((s.start for s in self.spans), default=0.0)
        return [{"id": i, "name": s.name, "parent": s.parent,
                 "start_s": round(s.start - t0, 6),
                 "dur_s": round(s.dur, 6)}
                for i, s in enumerate(self.spans)]
