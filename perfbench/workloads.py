"""The benchmark's workloads: set-up, one timed op, and that op's checks.

Each workload is a closed loop with one client: the benchmark issues the
next op only after the previous one returned.  Inputs come from
``generate_corpus(n, seed)``; held-out conversations are drawn by the
same seed.

- ``batch_link``: the nightly dedup job.  Set-up writes the corpus to
  Parquet; one op is ``run_linkage`` over it plus counting the pairs,
  the scored rows and the clusters.  Pair-heavy; runs every flagship
  stage.
- ``stream_fold``: the checkpointed write path.  Set-up builds a base
  with ``run_linkage``; one op is ``run_incremental`` on a batch of new
  held-out conversations with a fresh ``checkpoint_root``, followed by
  ``fold_incremental``.  The next op links against the folded state, so
  the state grows; at ``--seconds 10`` a run makes one fold.  Every batch
  holds only conversation ids the state has not seen, which is
  ``run_incremental``'s documented contract.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data

import oracle

SIZES = {
    "full": {"batch_convs": 4000, "base_convs": 1000, "fold_convs": 200,
             "folds": 4},
    # drives every workload, the traced run and the checks in minutes
    "smoke": {"batch_convs": 200, "base_convs": 200, "fold_convs": 20,
              "folds": 1},
}
MAX_BATCH_OPS = 64


@dataclass
class Checked:
    convs: int                       # conversations the op linked
    pairs: int                       # pairs the op scored
    quality: dict[str, float]
    layers: dict[str, float] = field(default_factory=dict)


def _dir_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(root) for f in files)


def _ids(values) -> pa.Array:
    return pa.array(sorted(values), type=pa.string())


class BatchLink:
    name = "batch_link"

    def __init__(self, seed: int, size: dict, work: str):
        self.seed, self.n, self.work = seed, size["batch_convs"], work

    def setup(self) -> None:
        from pboh_entity_linking_ray.sources.synthetic import ensure_corpus

        d = ensure_corpus(self.work, self.n, self.seed)
        self.turns_dir = os.path.join(d, "turns.parquet")
        self.labels = pq.read_table(os.path.join(d, "labels.parquet"))
        self.golden = pq.read_table(os.path.join(d,
                                                 "golden_clusters.parquet"))
        self.ids = self.golden["conv_id"].combine_chunks()

    def has_op(self, i: int) -> bool:
        return i < MAX_BATCH_OPS

    def op(self, i: int):
        from pboh_entity_linking_ray.pipelines import linkage
        from pboh_entity_linking_ray.sources.reading import read_parquet_clean

        res = linkage.run_linkage(read_parquet_clean(self.turns_dir))
        n_pairs = res.pairs.count()
        res.scored.count()
        clusters = res.clusters.materialize()
        clusters.count()
        return res.scored, clusters, n_pairs

    def check(self, i: int, out) -> Checked:
        scored_ds, clusters_ds, n_pairs = out
        scored = oracle.collect(scored_ds, ["conv_a", "conv_b", "is_match"])
        oracle.check_scored(scored, n_pairs)
        clusters = oracle.collect(clusters_ds, ["conv_id", "cluster_id"])
        oracle.check_assignment(clusters, self.ids)
        return Checked(self.n, scored.num_rows, {
            "pair_f1": oracle.pair_f1(scored, self.labels, self.ids),
            "cluster_f1": oracle.cluster_f1(clusters, self.golden, self.ids),
            "assign_accuracy": oracle.assign_accuracy(
                clusters, self.golden, self.ids, self.ids),
        })

    def probe(self):
        return None


class StreamFold:
    name = "stream_fold"

    def __init__(self, seed: int, size: dict, work: str):
        self.seed, self.work = seed, work
        self.n_base, self.n_fold = size["base_convs"], size["fold_convs"]
        self.folds = size["folds"]

    def setup(self) -> None:
        from pboh_entity_linking_ray.pipelines import linkage
        from pboh_entity_linking_ray.sources.synthetic import generate_corpus

        c = generate_corpus(self.n_base + self.folds * self.n_fold,
                            self.seed)
        self.labels, self.golden = c.labels, c.golden_clusters
        all_ids = self.golden["conv_id"].to_pylist()
        rng = np.random.default_rng(self.seed)
        held = [all_ids[k] for k in
                rng.choice(len(all_ids), self.folds * self.n_fold,
                           replace=False)]
        self.batches = [held[k * self.n_fold:(k + 1) * self.n_fold]
                        for k in range(self.folds)]
        self.base_ids = sorted(set(all_ids) - set(held))
        turns = c.turns
        self.batch_turns = [
            turns.filter(pc.is_in(turns["conv_id"], value_set=_ids(b)))
            for b in self.batches]
        base_turns = turns.filter(pc.is_in(turns["conv_id"],
                                           value_set=_ids(self.base_ids)))
        base = linkage.run_linkage(ray.data.from_arrow(base_turns))
        base.clusters = base.clusters.materialize()
        self.turns = turns
        self.states = {0: base}        # state before op i

    def has_op(self, i: int) -> bool:
        return i < self.folds and i in self.states

    def op(self, i: int):
        from pboh_entity_linking_ray.pipelines import incremental

        root = tempfile.mkdtemp(prefix=f"fold{i}-", dir=self.work)
        state = self.states[i]
        inc = incremental.run_incremental(
            state, ray.data.from_arrow(self.batch_turns[i]),
            checkpoint_root=root)
        folded = incremental.fold_incremental(state, inc)
        folded.clusters.count()
        self.states[i + 1] = folded
        return inc, folded, root

    def check(self, i: int, out) -> Checked:
        inc, folded, root = out
        new = _ids(self.batches[i])
        universe = _ids(self.base_ids + [c for b in self.batches[:i + 1]
                                         for c in b])
        scored = oracle.collect(inc.scored, ["conv_a", "conv_b", "is_match"])
        oracle.check_scored(scored, inc.pairs.count())
        clusters = oracle.collect(folded.clusters, ["conv_id", "cluster_id"])
        oracle.check_assignment(clusters, universe)
        return Checked(len(new), scored.num_rows, {
            "pair_f1": oracle.pair_f1(scored, self.labels, universe, new),
            "cluster_f1": oracle.cluster_f1(clusters, self.golden, universe),
            "assign_accuracy": oracle.assign_accuracy(
                clusters, self.golden, universe, new),
        }, {"state.checkpoint.bytes": _dir_bytes(root)})

    def probe(self):
        """One ``link_one`` call against the base, for the traced run:
        a held-out conversation from the last batch, a duplicate of a
        base cluster on even seeds and a novel one on odd seeds (either
        kind when the batch lacks the other).  Returns (call, check)."""
        from pboh_entity_linking_ray.pipelines import console

        base_ids = _ids(self.base_ids)
        held = self.golden.filter(pc.is_in(
            self.golden["conv_id"], value_set=_ids(self.batches[-1])))
        base_clusters = self.golden.filter(pc.is_in(
            self.golden["conv_id"], value_set=base_ids))["cluster_id"]
        dup = pc.is_in(held["cluster_id"], value_set=base_clusters)
        want = dup if self.seed % 2 == 0 else pc.invert(dup)
        pick = held.filter(want) if pc.any(want).as_py() else held
        probe_id = pick["conv_id"][0].as_py()
        exp = oracle.expected_cluster_ids(
            self.golden, pa.concat_arrays([base_ids, _ids([probe_id])]))
        expected = exp.filter(pc.equal(exp["conv_id"], probe_id)) \
            ["expected"][0].as_py()
        transcript = self.turns.filter(pc.equal(self.turns["conv_id"],
                                                probe_id))
        base = self.states[0]

        def call():
            return console.link_one(transcript, base)

        def check(out) -> Checked:
            if out["conv_id"] != probe_id:
                raise oracle.ContractError(
                    f"link_one returned conv_id {out['conv_id']!r} for "
                    f"probe {probe_id!r}")
            return Checked(1, int(out["n_candidates"]), {}, {
                "pipelines.console.accuracy":
                    float(out["cluster_id"] == expected)})

        return call, check


WORKLOADS = {w.name: w for w in (BatchLink, StreamFold)}
