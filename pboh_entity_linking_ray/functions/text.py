"""Vectorized text normalization / tokenization.

Capability analogs of the reference's normalizer and tokenizer
(reference: src/main/scala/utils/Normalizer.scala:9-11 normalizeLowercase;
src/main/scala/context/TextSplittingInWords.scala:15-45 splitDocInWords;
src/main/scala/context/StopWords.scala:5-71), expressed over Arrow/polars
string columns instead of per-string Scala loops.

IMPORTANT oracle contract: ``TOKEN_PATTERN`` must stay equal to the regex
used in every DuckDB oracle query (``regexp_extract_all(lower(text),
'[a-z0-9]+')``) — the driver's correctness gate hashes Ray vs SQL outputs.
"""

from __future__ import annotations

import polars as pl
import pyarrow as pa

from .stemmer import porter_stem

TOKEN_PATTERN = "[a-z0-9]+"

# A compact English stop-word list (reference keeps a ~70-entry list,
# context/StopWords.scala:5-71; ours is independent and much smaller —
# fixture text is synthetic).
STOPWORDS: frozenset[str] = frozenset(
    """a an and are as at be but by for from had has have he her his i if in
    into is it its me my no not of on or our she so that the their them they
    this to was we were what when which who will with you your""".split()
)


def to_polars(col) -> pl.Series:
    """Zero-copy-ish conversion of a pyarrow column to a polars Series."""
    if isinstance(col, pl.Series):
        return col
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return pl.from_arrow(col) if isinstance(col, pa.Array) else pl.Series(col)


def normalize_series(col) -> pl.Series:
    """Lowercase + trim (analog of normalizeLowercase + trim callers)."""
    return to_polars(col).str.to_lowercase().str.strip_chars()


def wiki_url_to_title(col) -> pl.Series:
    """Freebase/Wikipedia URL → page title (SURVEY §2 M3; reference
    ``extractWikipURL``, utils/Utils.scala:4-30): take the path after
    ``wikipedia/en/``, drop the 2 trailing junk characters the freebase
    dump lines carry, unescape freebase's ``$XXXX`` sequences (the
    UTF-16 code unit as 4 hex digits), and turn underscores into spaces.

    NOTE: the reference loop as written never advances past a non-'$'
    character and feeds '$'+3 chars to parseInt — it cannot run as
    printed; we implement the documented freebase escape format it
    plainly intends ('$' + 4 hex digits).

    Vectorized end-to-end: extract/slice/underscore passes are polars
    kernels, and the ``$XXXX`` unescape is one literal ``replace_all``
    per DISTINCT escape code found in the column (a handful of
    codepoints in real dumps) — the same distinct-escape trick as
    ``normalize_title_series``'s percent-decoder, never per-row
    Python."""
    s = to_polars(col)
    ent = (
        pl.DataFrame({"u": s})
        .select(e=pl.col("u").str.extract(r"wikipedia/en/(.*)$", 1))
        .select(e=pl.col("e").str.slice(0, pl.col("e").str.len_chars() - 2))
    )["e"]
    # empty_as_null pinned: polars 2.0 flips the default, which would
    # turn no-escape rows into empty lists and change explode() output
    escapes = (ent.str.extract_all(r"\$[0-9A-Fa-f]{4}")
               .list.explode(empty_as_null=True)
               .drop_nulls().unique().to_list())
    for esc in escapes:
        ent = ent.str.replace_all(esc, chr(int(esc[1:], 16)), literal=True)
    return ent.str.replace_all("_", " ", literal=True)


_HTML_ENTITIES = {"&amp;": "&", "&lt;": "<", "&gt;": ">", "&quot;": '"',
                  "&#39;": "'", "&apos;": "'", "&nbsp;": " "}


def normalize_title_series(col) -> pl.Series:
    """Canonicalize escaped identifier strings (tool names, link targets).

    Capability analog of the reference's ``processTargetLink`` wiki-title
    canonicalizer (reference: src/main/scala/utils/Normalizer.scala:15-34):
    HTML-unescape applied TWICE (double-escaped corpora), ``_`` → space,
    trim, percent-decode, first-letter capitalize.  All passes are
    vectorized polars string kernels; percent-decoding uses a literal
    replace per distinct %XX byte found in the column (identifier columns
    contain at most a handful), never a per-row Python call.
    """
    s = to_polars(col)
    for _ in range(2):                       # double-unescape, like the ref
        for ent, ch in _HTML_ENTITIES.items():
            s = s.str.replace_all(ent, ch, literal=True)
    s = s.str.replace_all("_", " ", literal=True).str.strip_chars()
    hexes = (s.str.extract_all(r"%[0-9A-Fa-f]{2}")
             .explode(empty_as_null=True).drop_nulls()
             .unique().to_list())
    for h in hexes:
        try:
            s = s.str.replace_all(h, bytes.fromhex(h[1:]).decode("latin-1"),
                                  literal=True)
        except ValueError:
            pass
    return s.str.slice(0, 1).str.to_uppercase() + s.str.slice(1)


def tokenize_series(col) -> pl.Series:
    """Lowercase text column → list<str> tokens matching TOKEN_PATTERN."""
    return (
        to_polars(col)
        .str.to_lowercase()
        .str.extract_all(TOKEN_PATTERN)
    )


def content_tokens(tokens: list[str]) -> list[str]:
    """Stop-word-filtered, Porter-stemmed tokens (order preserved)."""
    return [porter_stem(t) for t in tokens if t not in STOPWORDS]


def shingles(tokens: list[str], k: int) -> list[str]:
    """k-token shingles; for short docs falls back to the tokens."""
    if len(tokens) < k:
        return [" ".join(tokens)] if tokens else []
    return [" ".join(tokens[i : i + k]) for i in range(len(tokens) - k + 1)]
