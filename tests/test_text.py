"""Tokenizer / stemmer / shingle unit tests.  The tokenizer must match the
DuckDB oracle expression regexp_extract_all(lower(text), '[a-z0-9]+')."""

import duckdb
import polars as pl

from pboh_entity_linking_ray.functions.stemmer import porter_stem
from pboh_entity_linking_ray.functions.text import (
    STOPWORDS,
    content_tokens,
    normalize_series,
    shingles,
    tokenize_series,
)

SAMPLES = [
    "Hello, World! 42 times",
    "  MIXED-case_and  punct;; ",
    "",
    "über niño 中文 emoji 🙂 tab\tnewline\nend",
    "a1b2c3",
]


def test_tokenizer_matches_duckdb_oracle():
    ours = tokenize_series(pl.Series(SAMPLES)).to_list()
    con = duckdb.connect()
    theirs = [
        con.execute(
            "select regexp_extract_all(lower(?), '[a-z0-9]+')", [s]
        ).fetchone()[0]
        for s in SAMPLES
    ]
    assert ours == theirs


def test_normalize():
    out = normalize_series(pl.Series(["  Foo BAR  ", "x"])).to_list()
    assert out == ["foo bar", "x"]


def test_porter_stem_known_values():
    # classic examples from the Porter paper
    cases = {
        "caresses": "caress", "ponies": "poni", "ties": "ti",
        "caress": "caress", "cats": "cat", "feed": "feed",
        "agreed": "agre", "plastered": "plaster", "motoring": "motor",
        "sing": "sing", "conflated": "conflat", "troubled": "troubl",
        "sized": "size", "hopping": "hop", "happy": "happi",
        "relational": "relat", "conditional": "condit",
        "triplicate": "triplic", "formative": "form",
        "revival": "reviv", "adjustable": "adjust", "effective": "effect",
        "probate": "probat", "rate": "rate", "cease": "ceas",
    }
    for w, expect in cases.items():
        assert porter_stem(w) == expect, (w, porter_stem(w), expect)


def test_content_tokens_filters_stopwords():
    toks = ["the", "running", "dogs", "and", "cats"]
    out = content_tokens(toks)
    assert "the" not in out and "and" not in out
    assert out == [porter_stem("running"), porter_stem("dogs"), porter_stem("cats")]
    assert "the" in STOPWORDS


def test_shingles():
    assert shingles(["a", "b", "c", "d"], 3) == ["a b c", "b c d"]
    assert shingles(["a", "b"], 3) == ["a b"]
    assert shingles([], 3) == []


def test_wiki_url_to_title_m3():
    """M3 (reference utils/Utils.scala:4-30): path extract after
    wikipedia/en/, 2-char tail drop, $XXXX (4 hex) unescape,
    underscores to spaces."""
    import polars as pl

    from pboh_entity_linking_ray.functions.text import wiki_url_to_title

    urls = pl.Series([
        'http://rdf.freebase.com/ns/wikipedia/en/Apple$0027s_Law">',
        'http://rdf.freebase.com/ns/wikipedia/en/Plain_Title">',
        'http://rdf.freebase.com/ns/wikipedia/en/A$0026B$002CC">',
        'http://rdf.freebase.com/ns/wikipedia/en/Unicode$00E9_x">',
    ])
    out = wiki_url_to_title(urls).to_list()
    assert out == ["Apple's Law", "Plain Title", "A&B,C", "Unicodeé x"]


def test_kernels_raise_no_warning():
    """Every text kernel runs clean under warnings-as-errors: the
    ``explode`` calls pin ``empty_as_null`` (today's behaviour), so the
    Polars default flip neither warns nor changes rows that have no
    match (no escape, no token)."""
    import warnings

    from pboh_entity_linking_ray.functions.text import (
        normalize_title_series,
        wiki_url_to_title,
    )

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert tokenize_series(pl.Series(SAMPLES)).to_list()[2] == []
        assert normalize_series(pl.Series([" A b "])).to_list() == ["a b"]
        assert normalize_title_series(
            pl.Series(["a%20b_c", "plain", "&amp;amp;x", ""])).to_list() \
            == ["A b c", "Plain", "&x", ""]
        assert wiki_url_to_title(pl.Series([
            'http://rdf.freebase.com/ns/wikipedia/en/A$0026B">',
            'http://rdf.freebase.com/ns/wikipedia/en/Plain">',
        ])).to_list() == ["A&B", "Plain"]
        assert content_tokens(["the", "running"]) == ["run"]
        assert shingles(["a", "b"], 1) == ["a", "b"]
