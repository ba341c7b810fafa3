"""Pipeline configuration.

The scalar model weights mirror the reference's shipped defaults
(reference: src/main/scala/el/EL_LBP_Spark.scala:111-117 hard-codes
g=0.5, b=0.075, delta_w_e=1.0, xi=0.5, delta_cocit=0.5,
cocit_e_e_param=0.01); the blocking / salting / cap knobs replace the
reference's silent doc-size drops (eval/EvalOnDatasets.scala:172) with
explicit, manifest-accounted skew controls.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ScorerWeights:
    """Scalar weights of the pairwise scorer.

    Analog of the reference's ScorerWeights
    (loopybeliefpropagation/ScorerWeights.scala:3-44): a handful of
    scalars, broadcast to every scorer actor.
    """

    f: float = 1.0            # weight of the unary (rho / salience) term
    g: float = 0.5            # weight of the pairwise (lambda / PMI) term
    h: float = 0.17           # popularity-discount exponent inside lambda
    b: float = 0.075          # context-term weight inside rho (reference
                              # b=0.075, EL_LBP_Spark.scala:111-117)
    delta_w_e: float = 1.0    # p(w|e) numerator discount factor (reference
                              # delta_w_e=1.0)
    xi: float = 0.5           # context smoothing mass (reference xi=0.5;
                              # constant Jelinek-Mercer mass instead of the
                              # reference's per-entity absolute discount)
    prior_kappa: float = 0.5  # floor of the mention-prior concentration
                              # blend in rho: rho(e) *= kappa+(1-kappa)*conc(e)
    delta_cocit: float = 0.5  # absolute discount on co-occurrence counts
    cocit_e_e_param: float = 0.01  # smoothing mass for unseen pairs
    w_jw: float = 1.0         # Jaro-Winkler string-similarity weight
    w_jac: float = 1.0        # token-Jaccard weight
    match_threshold: float = 0.60  # calibrated on the golden fixture corpus
    lambda_floor: float = -10.0    # finite analog of the reference's -1000
                                   # no-cocitation floor (ScorerFull.scala:222-226)


@dataclass(frozen=True)
class PipelineConfig:
    # --- blocking ---
    num_perm: int = 64          # minhash permutations
    lsh_bands: int = 24         # number of LSH bands
    lsh_rows: int = 1           # rows per band; r=1 because measured
                                # non-duplicate pairs share ~zero shingles
                                # (miss prob (1-s)^bands ≤ 1% at s=0.25)
    shingle_k: int = 3          # token-shingle width fed to minhash
    block_cap: int = 256        # max members of one block before salting
    max_pairs_per_block: int = 50_000  # pair budget for a salted block: the
                                # chunk size is derived so emitted pairs stay
                                # under this budget regardless of block size
    salt_boundary: int = 16     # cross-chunk boundary window (last W of
                                # chunk i × first W of chunk i+1 in the
                                # minhash-sorted order)
    # --- per-conv feature caps (bound pair-row width; analog of the
    # reference's top-10 candidate pruning, MentEntsFreqIndexWrapper.scala:53-55)
    max_tokens_per_conv: int = 64    # bottom-k token sketch attached to
                                     # pair rows for scoring (uint32 hashes
                                     # — 256 B/conv bounds the payload of
                                     # the two feature-attach joins)
    jw_text_cap: int = 48            # chars of canonical text used for
                                     # Jaro-Winkler; JW is O(L·window) pure
                                     # Python per pair — 48 chars keeps the
                                     # kernel ~0.1 ms/pair while the prefix
                                     # still separates match/non-match
    top_shared_tokens: int = 16      # shared tokens entering the lambda sum
    ctx_window: int = 4              # ±window (in stream positions) of the
                                     # p(w|e) statistics (reference K=50
                                     # words, EntityWordsProbs.scala:37 —
                                     # transcripts are denser, so smaller)
    ctx_stream_cap: int = 256        # ordered-stream tokens kept per conv
                                     # for the window statistics build
    # --- execution ---
    scorer_batch_size: int = 4096
    rows_per_bucket: int = 25_000   # exchange sizing (functions/grouping.py:
                                # buckets_for): ~keyed rows per hash
                                # bucket above the CPU floor; past 256
                                # buckets the two-round exchange engages
                                # automatically
    # --- pluggable scoring (SURVEY §2.10; reference Scorer trait,
    # loopybeliefpropagation/Scorer.scala:7-14 with ScorerFull /
    # ScorerFullLearnedParams as the two shipped impls) ---
    scorer: str = "full"        # key into stages.scoring.SCORERS; "full"
                                # = string-sim + PBoH stats, "stringsim"
                                # = the reference's ARGMAX-style baseline
                                # (string similarity only)
    blockers: tuple = ("minhash", "signature")
                                # keys into stages.blocking.BLOCKERS —
                                # which block-key families emit candidate
                                # rows (SURVEY §2.10 Blocker surface)
    # --- weights ---
    weights: ScorerWeights = field(default_factory=ScorerWeights)
    # --- determinism ---
    seed: int = 42
