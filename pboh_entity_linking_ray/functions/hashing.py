"""Deterministic hashing primitives.

Python's builtin ``hash`` is salted per process, so every key that crosses a
task boundary (block keys, pair keys, cluster reps, routing buckets) goes
through the stable hashes here. Golden fixtures and resume-after-failure
depend on byte-stable outputs (SURVEY.md §4.2 item 7).

The packed 64-bit unordered-pair key is the direct analog of the reference's
``compressTwoInts(min, max)`` packed long
(reference: src/main/scala/utils/Utils.scala:37-43, round-trip property
checked at utils/Utils.scala:45-54).
"""

from __future__ import annotations

import hashlib

import numpy as np
import polars as pl

U32_MASK = 0xFFFFFFFF
U64_MASK = 0xFFFFFFFFFFFFFFFF


def stable_u64(s: str | bytes) -> int:
    """64-bit stable hash of a string (blake2b, process-independent)."""
    if isinstance(s, str):
        s = s.encode("utf-8")
    return int.from_bytes(hashlib.blake2b(s, digest_size=8).digest(), "little")


def hash_strings_u64(values, *, seed: int = 0) -> np.ndarray:
    """Vectorized stable 64-bit hash of a string column → uint64 ndarray.

    Uses polars' xxhash-based ``Series.hash`` (deterministic for a fixed
    polars version and seed — no per-process salt) so the hot path never
    loops Python rows.  ``values`` may be a list, numpy array, pyarrow
    Array/ChunkedArray or polars Series.
    """
    s = pl.Series("v", values) if not isinstance(values, pl.Series) else values
    return s.hash(seed=seed).to_numpy().astype(np.uint64)


def md5_lower64(s: str) -> int:
    """Exactly DuckDB's ``md5_number_lower``: the little-endian uint64 of
    the LAST 8 bytes of the md5 digest.  Used ONLY by oracle-parity
    queries (the hot path uses the vectorized xxhash in
    ``hash_strings_u64``); keeping both engines on the same hash lets the
    DuckDB oracle reproduce MinHash/SimHash results bit-for-bit.
    """
    return int.from_bytes(hashlib.md5(s.encode("utf-8")).digest()[8:], "little")


def pack_pair(a: int, b: int) -> int:
    """Pack two uint32 ids into one uint64 unordered-pair key (min in the
    high half) — analog of the reference's compressTwoInts."""
    lo, hi = (a, b) if a <= b else (b, a)
    return ((lo & U32_MASK) << 32) | (hi & U32_MASK)


def unpack_pair(key: int) -> tuple[int, int]:
    return (key >> 32) & U32_MASK, key & U32_MASK


def pack_pairs_np(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized pack of two uint64 arrays' low 32 bits into unordered
    uint64 pair keys."""
    a = a.astype(np.uint64) & np.uint64(U32_MASK)
    b = b.astype(np.uint64) & np.uint64(U32_MASK)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    return (lo << np.uint64(32)) | hi


def pair_key_str(a: str, b: str) -> str:
    """Canonical unordered string pair key (lexicographic min first)."""
    return f"{a}\x1f{b}" if a <= b else f"{b}\x1f{a}"


def popcount_u64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit population count (SWAR; numpy < 2.0 has no
    ``bitwise_count``).  Returns int64 counts."""
    x = x.astype(np.uint64, copy=True)
    x -= (x >> np.uint64(1)) & np.uint64(0x5555555555555555)
    x = (x & np.uint64(0x3333333333333333)) + \
        ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)) \
        .astype(np.int64)
