"""Deterministic synthetic transcript corpus (FIXTURES.md §1-3).

Generates the ``turns`` input table (exactly the ``input_hint`` schema:
conv_id:string, turn_idx:int32, role:string, text:string, tool:string,
ts:timestamp[us]), the ``labels`` gold pair table and the
``golden_clusters`` table.  Analog of the reference's evaluation corpora
with gold annotations (reference: src/main/scala/eval/datasets/AIDA.scala
loads documents + ground-truth entities); here cluster membership is known
at generation time because duplicates are paraphrase-perturbed copies of
template conversations.

All randomness flows from ``numpy.random.PCG64`` seeded by content-stable
integers — NO wall clock, NO python ``hash`` — so every run (and every
process) produces byte-identical tables.  Turn rows are emitted in a
deterministic shuffled order: the engine must restore per-conv order by
``turn_idx`` (the per-turn ordering invariant, SURVEY.md §2.9).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.hashing import pair_key_str, stable_u64

_ROLES_CYCLE = ("user", "assistant")
_TOOLS = [
    "search", "browser", "python", "bash", "calculator", "calendar",
    "email", "files", "weather", "translate", "maps", "notes",
]
# Small pool of tool-call signatures shared across templates so that
# non-matching conversations can land in the same signature block
# (labels need negative pairs that share a blocking key).
_N_SIGNATURES = 6

_BASE_TS_US = 1_700_000_000_000_000  # fixed epoch-us base


def _mk_vocab(rng: np.random.Generator, n_words: int) -> list[str]:
    """Pronounceable pseudo-words, deterministic from rng."""
    cons = list("bcdfgklmnprstvz")
    vow = list("aeiou")
    max_syll = 3 if n_words < 3000 else 4  # enough combination space
    words = set()
    out = []
    while len(out) < n_words:
        n_syll = int(rng.integers(2, max_syll + 1))
        w = "".join(
            cons[int(rng.integers(len(cons)))] + vow[int(rng.integers(len(vow)))]
            for _ in range(n_syll)
        )
        if w not in words:
            words.add(w)
            out.append(w)
    return out


@dataclass
class Corpus:
    turns: pa.Table
    labels: pa.Table
    golden_clusters: pa.Table


def generate_corpus(n_convs: int = 200, seed: int = 42) -> Corpus:
    rng = np.random.Generator(np.random.PCG64(seed))
    # topic vocabulary grows with corpus size (Heaps-law-ish): keeps each
    # template's topic words rare at every scale, so idf / co-occurrence
    # statistics behave like real web-scale text instead of collapsing
    # once every word is frequent
    n_topic = max(780, 2 * n_convs)
    vocab = _mk_vocab(rng, 120 + n_topic)
    common = vocab[:120]                  # shared filler words
    topic_words = vocab[120:]

    # tool-call signatures: (role, tool) pattern reused across templates
    signatures = []
    for _ in range(_N_SIGNATURES):
        n_turns = int(rng.integers(5, 11))
        roles, tools = [], []
        for t in range(n_turns):
            if rng.random() < 0.25:
                roles.append("tool")
                tools.append(_TOOLS[int(rng.integers(len(_TOOLS)))])
            else:
                roles.append(_ROLES_CYCLE[t % 2])
                tools.append("")
        signatures.append((roles, tools))

    # templates: each owns a topic slice and one signature; one template per
    # cluster (a reused template would plant identical-content convs in
    # different gold clusters → impossible gold negatives)
    n_templates = n_convs
    templates = []
    for ti in range(n_templates):
        trng = np.random.Generator(np.random.PCG64(stable_u64(f"tmpl:{seed}:{ti}")))
        topic = [topic_words[int(i)] for i in
                 trng.choice(len(topic_words), size=30, replace=False)]
        sig_id = int(trng.integers(_N_SIGNATURES))
        roles, tools = signatures[sig_id]
        turns_text = []
        for _t in range(len(roles)):
            n_words = int(trng.integers(8, 26))
            words = [
                topic[int(trng.integers(len(topic)))]
                if trng.random() < 0.6
                else common[int(trng.integers(len(common)))]
                for _ in range(n_words)
            ]
            turns_text.append(words)
        templates.append({"topic": topic, "sig_id": sig_id, "roles": roles,
                          "tools": tools, "turns": turns_text})

    # cluster sizes: ~55% singletons, rest 2-6 variants, until n_convs used
    assignments = []  # (template_idx, variant_idx)
    ti = 0
    while len(assignments) < n_convs:
        t = ti
        trng = np.random.Generator(np.random.PCG64(stable_u64(f"csz:{seed}:{t}:{ti}")))
        size = 1 if trng.random() < 0.55 else int(trng.integers(2, 7))
        size = min(size, n_convs - len(assignments))
        for v in range(size):
            assignments.append((t, v, ti))   # ti = cluster ordinal (unique)
        ti += 1

    conv_ids = [f"conv-{i:06d}" for i in range(len(assignments))]
    # deterministic shuffle of conv_id → assignment so cluster members are
    # not id-adjacent
    perm = np.random.Generator(np.random.PCG64(seed + 1)).permutation(len(assignments))
    assignments = [assignments[int(p)] for p in perm]

    rows_conv, rows_idx, rows_role, rows_text, rows_tool, rows_ts = [], [], [], [], [], []
    cluster_of: dict[str, int] = {}
    sig_of: dict[str, int] = {}
    for ci, (t, v, cluster) in enumerate(assignments):
        conv_id = conv_ids[ci]
        cluster_of[conv_id] = cluster
        tmpl = templates[t]
        sig_of[conv_id] = tmpl["sig_id"]
        crng = np.random.Generator(np.random.PCG64(stable_u64(f"conv:{seed}:{conv_id}")))
        out_idx = 0
        for turn_i, words in enumerate(tmpl["turns"]):
            if v > 0:
                kept = []
                for w in words:
                    r = crng.random()
                    if r < 0.04:            # drop
                        continue
                    if r < 0.12:            # substitute
                        kept.append(vocab[int(crng.integers(len(vocab)))])
                    else:
                        kept.append(w)
                words = kept or words[:1]
            rows_conv.append(conv_id)
            rows_idx.append(out_idx)
            rows_role.append(tmpl["roles"][turn_i])
            rows_text.append(" ".join(words))
            rows_tool.append(tmpl["tools"][turn_i])
            rows_ts.append(_BASE_TS_US + ci * 3_600_000_000 + out_idx * 60_000_000)
            out_idx += 1

    # deterministic shuffled row order (engine must sort by turn_idx)
    order = np.random.Generator(np.random.PCG64(seed + 2)).permutation(len(rows_conv))
    turns = pa.table(
        {
            "conv_id": pa.array(np.array(rows_conv, dtype=object)[order], type=pa.string()),
            "turn_idx": pa.array(np.array(rows_idx)[order], type=pa.int32()),
            "role": pa.array(np.array(rows_role, dtype=object)[order], type=pa.string()),
            "text": pa.array(np.array(rows_text, dtype=object)[order], type=pa.string()),
            "tool": pa.array(np.array(rows_tool, dtype=object)[order], type=pa.string()),
            "ts": pa.array(np.array(rows_ts)[order], type=pa.timestamp("us")),
        }
    )

    # golden clusters: cluster_id = min conv_id of the cluster
    by_cluster: dict[int, list[str]] = {}
    for cid, cl in cluster_of.items():
        by_cluster.setdefault(cl, []).append(cid)
    gc_conv, gc_cluster = [], []
    for members in by_cluster.values():
        rep = min(members)
        for m in members:
            gc_conv.append(m)
            gc_cluster.append(rep)
    o = np.argsort(np.array(gc_conv, dtype=object))
    golden = pa.table({
        "conv_id": pa.array([gc_conv[int(i)] for i in o], type=pa.string()),
        "cluster_id": pa.array([gc_cluster[int(i)] for i in o], type=pa.string()),
    })

    # labels: all positive within-cluster pairs + sampled same-signature
    # negatives (pairs that will share the signature blocking key)
    la, lb, lm, lk = [], [], [], []
    for members in by_cluster.values():
        ms = sorted(members)
        for i in range(len(ms)):
            for j in range(i + 1, len(ms)):
                la.append(ms[i]); lb.append(ms[j]); lm.append(True)
                lk.append(f"sig:{sig_of[ms[i]]}")
    by_sig: dict[int, list[str]] = {}
    for cid, s in sig_of.items():
        by_sig.setdefault(s, []).append(cid)
    nrng = np.random.Generator(np.random.PCG64(seed + 3))
    n_neg = len(la)
    sig_keys = sorted(by_sig)
    seen = set(zip(la, lb))
    attempts = 0
    while n_neg > 0 and attempts < 20 * len(la) + 1000:
        attempts += 1
        s = sig_keys[int(nrng.integers(len(sig_keys)))]
        group = by_sig[s]
        if len(group) < 2:
            continue
        i, j = nrng.choice(len(group), size=2, replace=False)
        a, b = sorted((group[int(i)], group[int(j)]))
        if cluster_of[a] == cluster_of[b] or (a, b) in seen:
            continue
        seen.add((a, b))
        la.append(a); lb.append(b); lm.append(False); lk.append(f"sig:{s}")
        n_neg -= 1
    o = np.lexsort((np.array(lb, dtype=object), np.array(la, dtype=object)))
    labels = pa.table({
        "conv_a": pa.array([la[int(i)] for i in o], type=pa.string()),
        "conv_b": pa.array([lb[int(i)] for i in o], type=pa.string()),
        "is_match": pa.array([lm[int(i)] for i in o], type=pa.bool_()),
        "block_key": pa.array([lk[int(i)] for i in o], type=pa.string()),
    })
    return Corpus(turns=turns, labels=labels, golden_clusters=golden)


# --- cached on-disk corpus keyed by (n_convs, seed) --------------------------

CORPUS_VERSION = 3  # bump to invalidate cached corpora on generator changes

TURN_SHARDS = 16    # turns are written as a DIRECTORY of part files so the
                    # read parallelizes (a single parquet file reads as one
                    # task — measured as a fixed ~3-4 s serial prefix on
                    # EVERY pipeline at 250k convs); DuckDB twins read the
                    # same shards via a glob


def corpus_dir(root: str, n_convs: int, seed: int = 42) -> str:
    return os.path.join(root, f"corpus_v{CORPUS_VERSION}_n{n_convs}_s{seed}")


def ensure_corpus(root: str, n_convs: int, seed: int = 42) -> str:
    """Write turns/labels/golden_clusters parquet under root (idempotent,
    atomic via a private tmp dir + rename) and return the directory."""
    from ..state.checkpoint import private_build

    d = corpus_dir(root, n_convs, seed)
    done = os.path.join(d, "_COMPLETE")
    if os.path.exists(done):
        return d
    corpus = generate_corpus(n_convs, seed)
    with private_build(d, lambda: os.path.exists(done)) as tmp:
        tdir = os.path.join(tmp, "turns.parquet")
        os.makedirs(tdir)
        n_rows = corpus.turns.num_rows
        step = max(1, -(-n_rows // TURN_SHARDS))
        for i in range(0, TURN_SHARDS):
            part = corpus.turns.slice(i * step, step)
            if part.num_rows == 0:
                break
            pq.write_table(part, os.path.join(tdir, f"part-{i:02d}.parquet"))
        pq.write_table(corpus.labels, os.path.join(tmp, "labels.parquet"))
        pq.write_table(corpus.golden_clusters,
                       os.path.join(tmp, "golden_clusters.parquet"))
        with open(os.path.join(tmp, "_COMPLETE"), "w") as f:
            f.write("ok")
    return d


def sf_to_n_convs(sf_dir: str) -> int:
    """Map a testdata sf dir to a corpus size (rows scale with sf)."""
    name = os.path.basename(os.path.normpath(sf_dir))
    scale = {"sf0.001": 200, "sf0.01": 2000, "sf0.1": 20000}
    return scale.get(name, 2000)
