"""Per-turn text-equality invariant (the input_hint per-row invariant):
splitting mention_doc on the turn separator reproduces every turn's text
byte-for-byte in turn_idx order, regardless of input row order."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from pboh_entity_linking_ray.sources.synthetic import generate_corpus
from pboh_entity_linking_ray.stages.canonicalize import TURN_SEP, canonicalize


def _expected_docs(turns: pa.Table) -> dict[str, list[str]]:
    df = turns.to_pandas().sort_values(["conv_id", "turn_idx"])
    return df.groupby("conv_id")["text"].apply(list).to_dict()


def test_per_turn_text_equality(ray_session):
    corpus = generate_corpus(60, 11)
    out = canonicalize(rd.from_arrow(corpus.turns), 8).to_pandas()
    expected = _expected_docs(corpus.turns)
    assert len(out) == len(expected)
    for _, row in out.iterrows():
        assert row["mention_doc"].split(TURN_SEP) == expected[row["conv_id"]]
        assert row["n_turns"] == len(expected[row["conv_id"]])


def test_row_order_invariance(ray_session):
    corpus = generate_corpus(40, 13)
    t = corpus.turns
    perm = np.random.default_rng(99).permutation(t.num_rows)
    shuffled = t.take(pa.array(perm))
    a = canonicalize(rd.from_arrow(t), 8).to_pandas().sort_values("conv_id").reset_index(drop=True)
    b = canonicalize(rd.from_arrow(shuffled), 8).to_pandas().sort_values("conv_id").reset_index(drop=True)
    assert a.equals(b)


def test_sig_reflects_roles_and_tools(ray_session):
    corpus = generate_corpus(40, 13)
    out = canonicalize(rd.from_arrow(corpus.turns), 8).to_pandas()
    df = corpus.turns.to_pandas().sort_values(["conv_id", "turn_idx"])
    expected_sig = df.groupby("conv_id").apply(
        lambda g: "|".join(r + ":" + t for r, t in zip(g["role"], g["tool"])),
        include_groups=False,
    )
    for _, row in out.iterrows():
        assert row["sig"] == expected_sig[row["conv_id"]]
