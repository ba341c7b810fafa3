"""Canonicalize: turns → per-conversation mention documents.

Analog of the reference's document assembly — grouping annotation lines by
document key and rebuilding each document on the executor (reference:
src/main/scala/eval/cweb/RunLoopyAgainstAllGoogleClweb.scala:246-257
``groupByKey(256).map(solveOneSmallFile)``).  Expressed as a bucketed
hash-partition (functions/grouping.py) with a fully vectorized polars
group-aggregate per bucket — one Python call per bucket, not per
conversation.

Per-turn ordering invariant (input_hint): rows may arrive in any order;
each bucket is sorted by (conv_id, turn_idx) before the ordered string
aggregation, so joining ``mention_doc`` on ``\\n`` reproduces every turn's
text byte-for-byte (Ray Data guarantees no intra-group order —
SURVEY.md §2.9).

The tool/role signature ``sig`` — the ordered ``role:tool`` sequence — is
the cheap deterministic blocking key.
"""

from __future__ import annotations

import pyarrow as pa
import ray.data

from ..functions.grouping import hash_exchange

TURN_SEP = "\n"

_SCHEMA = pa.schema([
    ("conv_id", pa.string()),
    ("n_turns", pa.int32()),
    ("mention_doc", pa.string()),
    ("sig", pa.string()),
])


def _assemble(bucket: pa.Table) -> pa.Table:
    import polars as pl

    df = pl.from_arrow(bucket)
    out = (
        df.sort(["conv_id", "turn_idx"])
        .group_by("conv_id", maintain_order=True)
        .agg(
            pl.len().cast(pl.Int32).alias("n_turns"),
            pl.col("text").str.join(TURN_SEP).alias("mention_doc"),
            (pl.col("role") + ":" + pl.col("tool")).str.join("|").alias("sig"),
        )
    )
    return out.to_arrow().cast(_SCHEMA)


def canonicalize(turns: ray.data.Dataset, num_buckets: int) -> ray.data.Dataset:
    """turns(conv_id, turn_idx, role, text, tool, ts) → conv_docs.

    Column-prunes before the shuffle: ``ts`` never leaves the read.
    """
    pruned = turns.select_columns(["conv_id", "turn_idx", "role", "text", "tool"])
    return hash_exchange(pruned, "conv_id", _assemble, num_buckets)
