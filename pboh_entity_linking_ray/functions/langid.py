"""Marker-word language identification (n-gram-free heuristic).

A deliberately SQL-expressible language-ID: count distinct marker words per
language in the token set, predict the argmax (ties → 'und').  The marker
lists are tiny and fixed so the DuckDB oracle can reproduce the decision
exactly.  Capability analog of the reference's stop-word machinery
(context/StopWords.scala) repurposed as a classifier for training-data
pipelines.
"""

from __future__ import annotations

LANG_MARKERS: dict[str, tuple[str, ...]] = {
    "en": ("the", "and", "of", "to", "is", "that", "with", "for"),
    "de": ("der", "die", "das", "und", "ist", "nicht", "mit", "ein"),
    "fr": ("le", "la", "les", "et", "est", "que", "pour", "dans"),
    "es": ("el", "la", "los", "que", "es", "con", "para", "una"),
}
LANG_ORDER = ("en", "de", "fr", "es")  # deterministic tie-break order


def predict_lang_expr(tokens_col: str):
    """Vectorized polars expression over a list<str> token column → the
    predicted language (marker-set intersection counts, strict argmax in
    LANG_ORDER, all-zero → 'und') — one kernel pass per batch, never a
    Python call per document."""
    import polars as pl

    c = {lang: pl.col(tokens_col)
                 .list.set_intersection(list(marks)).list.len()
         for lang, marks in LANG_MARKERS.items()}
    best = pl.max_horizontal(*c.values())
    expr = pl.lit("und")
    # reverse order: earlier languages overwrite later ones on ties
    for lang in reversed(LANG_ORDER):
        expr = pl.when(c[lang] == best).then(pl.lit(lang)).otherwise(expr)
    return pl.when(best == 0).then(pl.lit("und")).otherwise(expr)


def sql_case_expr(tokens_col: str) -> str:
    """DuckDB expression computing the same prediction over a list column
    of tokens.  Strict argmax in LANG_ORDER with 'und' for all-zero."""
    counts = {
        lang: "(" + " + ".join(
            f"CASE WHEN list_contains({tokens_col}, '{m}') THEN 1 ELSE 0 END"
            for m in marks
        ) + ")"
        for lang, marks in LANG_MARKERS.items()
    }
    c = {k: f"c_{k}" for k in counts}
    inner = ", ".join(f"{expr} AS {c[k]}" for k, expr in counts.items())
    # argmax with first-wins tie-break in LANG_ORDER, 0 → 'und'
    cond = (
        f"CASE WHEN greatest({c['en']},{c['de']},{c['fr']},{c['es']}) = 0 THEN 'und' "
        f"WHEN {c['en']} >= {c['de']} AND {c['en']} >= {c['fr']} AND {c['en']} >= {c['es']} THEN 'en' "
        f"WHEN {c['de']} >= {c['fr']} AND {c['de']} >= {c['es']} THEN 'de' "
        f"WHEN {c['fr']} >= {c['es']} THEN 'fr' ELSE 'es' END"
    )
    return inner, cond
