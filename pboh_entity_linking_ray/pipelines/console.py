"""One-shot programmatic linking — the console/API surface.

The reference exposes ``EntityLinkingAPI(line_mentions, …) →
Array[Annotation]`` (console_el/ConsoleEntityLinking.scala:114-138): one
input in, its resolved annotations out, against the pre-built indexes
held in ``allIndexesBox``.  The recast's analog links ONE conversation
transcript against a completed base linkage run: the transcript's
cluster assignment out, plus its scored candidate pairs (the
per-annotation scores of the reference's verifier output).

Built on the incremental path's frozen-stats attach
(pipelines/incremental.py): the single conversation is canonicalized,
featurized and blocked exactly like a batch of one, scored with the
BASE run's broadcast statistics, and ``recluster`` re-labels the base
clusters it touches — so a transcript that bridges two base clusters
merges them, exactly as a full rerun would.  A transcript whose conv_id
the base already holds replaces that conversation and re-links it (the
incremental upsert contract).

Cost shape: O(base features in TOUCHED blocks) — the probe broadcast
semi-filter keeps every untouched base block out of the pair exchange,
so a one-transcript call on a billion-conversation base ships only the
handful of blocks the transcript's keys hit (at 100 TB, back the
features scan with the clustered layout in state/clustered.py and this
becomes an O(blocks-touched) range read).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import ray.data

from ..config import PipelineConfig
from .incremental import run_incremental
from .linkage import LinkageResult

TURN_COLS = ("conv_id", "turn_idx", "role", "text", "tool")


def _as_turns_table(transcript) -> pa.Table:
    """Accept a pyarrow Table, pandas DataFrame, or list[dict] of turn
    rows (the ``turns`` input schema: conv_id, turn_idx, role, text,
    tool); missing ``tool`` defaults to ''."""
    if isinstance(transcript, pa.Table):
        t = transcript
    elif isinstance(transcript, pd.DataFrame):
        t = pa.Table.from_pandas(transcript, preserve_index=False)
    else:
        t = pa.Table.from_pylist(list(transcript))
    if "tool" not in t.column_names:
        t = t.append_column(
            "tool", pa.array([""] * t.num_rows, type=pa.string()))
    missing = [c for c in TURN_COLS if c not in t.column_names]
    if missing:
        raise ValueError(f"transcript is missing turn columns {missing}")
    conv_ids = t["conv_id"].unique()
    if len(conv_ids) != 1:
        raise ValueError(
            f"link_one expects exactly ONE conversation, got "
            f"{len(conv_ids)} distinct conv_ids")
    return t.select(list(TURN_COLS))


def link_one(transcript, base: LinkageResult,
             cfg: PipelineConfig | None = None) -> dict:
    """Link one conversation transcript against a completed base run.

    Returns ``{"conv_id", "cluster_id", "matched" (bool: joined an
    existing cluster or bridged clusters), "n_candidates" (pairs
    scored), "pairs" (pandas: conv_a, conv_b, score columns, is_match),
    "merged_clusters" (base cluster ids now unified with this
    conversation)}``.

    Reference analog: ``EntityLinkingAPI`` one-shot resolution against
    the prebuilt index box (console_el/ConsoleEntityLinking.scala:
    114-138); the smoke-test pattern of its console loop is mirrored in
    tests/test_console_api.py."""
    turns = _as_turns_table(transcript)
    conv_id = turns["conv_id"][0].as_py()

    inc = run_incremental(base, ray.data.from_arrow(turns), cfg)

    pairs = inc.scored.to_pandas()
    if "conv_a" not in pairs.columns:      # no candidate pair at all —
        pairs = pd.DataFrame(              # empty blocks are column-less
            {"conv_a": pd.Series(dtype=str),
             "conv_b": pd.Series(dtype=str),
             "score": pd.Series(dtype=float),
             "is_match": pd.Series(dtype=bool)})
    mine = pairs[(pairs["conv_a"] == conv_id)
                 | (pairs["conv_b"] == conv_id)].reset_index(drop=True)

    # the re-labelled region holds this conversation's whole cluster and
    # each member's base cluster: no pass over the assignment table
    region = inc.region.to_pandas()
    cluster_id = region.loc[region["conv_id"] == conv_id,
                            "cluster_id"].iloc[0]
    members = region[(region["cluster_id"] == cluster_id)
                     & (region["conv_id"] != conv_id)]
    merged = sorted(set(members["prior_id"].dropna()))

    matched = bool((mine["is_match"]).any()) if len(mine) else False
    return {
        "conv_id": conv_id,
        "cluster_id": cluster_id,
        "matched": matched,
        "n_candidates": int(len(mine)),
        "pairs": mine,
        "merged_clusters": merged,
    }
