"""TSV line-parser source (S5): schema parity with the parquet reader and
malformed-line tolerance."""

import pyarrow as pa

from pboh_entity_linking_ray.sources.text_lines import (
    TURNS_SCHEMA,
    parse_turn_lines,
    read_turns_tsv,
)


def test_parse_turn_lines_schema_and_filtering():
    lines = pa.table({"text": [
        "c1\t0\tuser\tnone\thello world",
        "c1\t1\tassistant\tsearch\tfound it",
        "garbage line without tabs",
        "c2\tnotanint\tuser\tnone\tbad idx",
        "c2\t0\tuser\tnone\tok",
    ]})
    out = parse_turn_lines(lines)
    assert out.schema == TURNS_SCHEMA
    assert out.num_rows == 3
    assert out["conv_id"].to_pylist() == ["c1", "c1", "c2"]
    assert out["turn_idx"].to_pylist() == [0, 1, 0]
    assert out["text"].to_pylist() == ["hello world", "found it", "ok"]


def test_read_turns_tsv_roundtrip(tmp_path, ray_session):
    p = tmp_path / "turns.tsv"
    p.write_text("a\t0\tuser\tnone\tfirst\n"
                 "a\t1\tassistant\tgrep\tsecond\n"
                 "b\t0\tuser\tnone\tthird\n")
    ds = read_turns_tsv(str(p))
    df = ds.to_pandas().sort_values(["conv_id", "turn_idx"])
    assert list(df["text"]) == ["first", "second", "third"]
    # source-agnostic: canonicalize consumes it directly
    from pboh_entity_linking_ray.stages.canonicalize import canonicalize

    conv = canonicalize(ds, 8).to_pandas().set_index("conv_id")
    assert conv.loc["a", "mention_doc"] == "first\nsecond"


def test_normalize_title_series():
    """M2 analog: double-HTML-unescape, _→space, %-decode, capitalize
    (reference: utils/Normalizer.scala:15-34)."""
    import polars as pl

    from pboh_entity_linking_ray.functions.text import normalize_title_series

    got = normalize_title_series(pl.Series([
        "barack_obama",
        "AT&amp;amp;T",          # double-escaped &
        "rock %26 roll",         # percent-encoded &
        "  spaced_out  ",
        "&quot;quoted&quot;",
    ])).to_list()
    assert got == ["Barack obama", "AT&T", "Rock & roll", "Spaced out",
                   '"quoted"']


def test_read_turns_tsv_normalize_tools(tmp_path, ray_session):
    p = tmp_path / "turns.tsv"
    p.write_text("a\t0\tuser\tweb_search\thello\n"
                 "a\t1\tassistant\tgrep%20files\tworld\n")
    df = (read_turns_tsv(str(p), normalize_tools=True)
          .to_pandas().sort_values("turn_idx"))
    assert list(df["tool"]) == ["Web search", "Grep files"]


def test_reader_registry_tsv_matches_parquet(tmp_path, ray_session):
    """Dataset-plugin surface (SURVEY §2.10 row 1): the tsv reader opened
    through the registry yields the same turns as the parquet reader."""
    import os

    import pyarrow.parquet as pq

    from pboh_entity_linking_ray.sources import READERS, read_turns
    from pboh_entity_linking_ray.sources.synthetic import generate_corpus

    assert set(READERS) >= {"parquet", "tsv"}
    c = generate_corpus(30, 3)
    pdir = os.path.join(str(tmp_path), "turns.parquet")
    pq.write_table(c.turns, pdir)
    lines = [
        f"{r['conv_id']}\t{r['turn_idx']}\t{r['role']}\t{r['tool']}\t{r['text']}"
        for r in c.turns.select(
            ["conv_id", "turn_idx", "role", "tool", "text"]).to_pylist()
    ]
    tpath = os.path.join(str(tmp_path), "turns.tsv")
    with open(tpath, "w") as f:
        f.write("\n".join(lines) + "\n")

    cols = ["conv_id", "turn_idx", "role", "text", "tool"]
    a = (read_turns(pdir, "parquet").to_pandas()[cols]
         .astype({"turn_idx": "int32"})
         .sort_values(cols).reset_index(drop=True))
    b = (read_turns(tpath, "tsv").to_pandas()[cols]
         .sort_values(cols).reset_index(drop=True))
    import pandas as pd

    pd.testing.assert_frame_equal(a, b)


def test_register_reader_plugin(ray_session):
    """A registered custom reader is reachable through read_turns."""
    import pyarrow as pa
    import ray.data as rd

    from pboh_entity_linking_ray.sources import read_turns, register_reader

    def tiny(path):
        return rd.from_arrow(pa.table({
            "conv_id": ["c1"], "turn_idx": pa.array([0], type=pa.int32()),
            "role": ["user"], "text": [path], "tool": [""]}))

    register_reader("tiny", tiny)
    out = read_turns("hello", "tiny").to_pandas()
    assert list(out["text"]) == ["hello"]


def test_jsonl_and_csv_readers_match_tsv(tmp_path, ray_session):
    """All structured readers land on the identical canonical schema and
    values for the same logical rows."""
    import json

    from pboh_entity_linking_ray.sources import read_turns

    rows = [
        {"conv_id": "c1", "turn_idx": 0, "role": "user",
         "tool": "", "text": "hello there"},
        {"conv_id": "c1", "turn_idx": 1, "role": "assistant",
         "tool": "search", "text": "hi!"},
        {"conv_id": "c2", "turn_idx": 0, "role": "user",
         "tool": "", "text": "bye, comma"},
    ]
    jp = tmp_path / "t.jsonl"
    jp.write_text("".join(json.dumps(r) + "\n" for r in rows))
    cp = tmp_path / "t.csv"
    cp.write_text("conv_id,turn_idx,role,tool,text\n" + "".join(
        f'{r["conv_id"]},{r["turn_idx"]},{r["role"]},{r["tool"]},'
        f'"{r["text"]}"\n' for r in rows))

    j = read_turns(str(jp), "jsonl").to_pandas().sort_values(
        ["conv_id", "turn_idx"]).reset_index(drop=True)
    c = read_turns(str(cp), "csv").to_pandas().sort_values(
        ["conv_id", "turn_idx"]).reset_index(drop=True)
    assert list(j.columns) == ["conv_id", "turn_idx", "role", "text", "tool"]
    assert list(c.columns) == list(j.columns)
    assert j["text"].tolist() == ["hello there", "hi!", "bye, comma"]
    # CSV reads empty strings as nulls; compare on the non-optional cols
    for col in ("conv_id", "turn_idx", "role", "text"):
        assert j[col].tolist() == c[col].tolist()


def test_jsonl_reader_missing_optional_column(tmp_path, ray_session):
    from pboh_entity_linking_ray.sources import read_turns

    jp = tmp_path / "t.jsonl"
    jp.write_text('{"conv_id": "c", "turn_idx": 0, "role": "user", '
                  '"text": "x", "extra": 9}\n')
    out = read_turns(str(jp), "jsonl").to_pandas()
    assert out["tool"].isna().all()           # missing optional → nulls
    assert "extra" not in out.columns         # extras dropped


def test_reader_registry_jsonl_gz_matches_parquet(tmp_path, ray_session):
    """Gzip JSONL through the registry yields the same turns as the
    parquet reader (decompression happens inside the read tasks)."""
    import gzip
    import json
    import os

    import pandas as pd
    import pyarrow.parquet as pq

    from pboh_entity_linking_ray.sources import READERS, read_turns
    from pboh_entity_linking_ray.sources.synthetic import generate_corpus

    assert "jsonl.gz" in READERS
    c = generate_corpus(30, 3)
    pdir = os.path.join(str(tmp_path), "turns.parquet")
    pq.write_table(c.turns, pdir)
    gz = os.path.join(str(tmp_path), "turns.jsonl.gz")
    rows = c.turns.select(
        ["conv_id", "turn_idx", "role", "text", "tool"]).to_pylist()
    with gzip.open(gz, "wt") as f:
        for r in rows:
            f.write(json.dumps(r) + "\n")

    cols = ["conv_id", "turn_idx", "role", "text", "tool"]
    a = (read_turns(pdir, "parquet").to_pandas()[cols]
         .sort_values(cols).reset_index(drop=True))
    b = (read_turns(gz, "jsonl.gz").to_pandas()[cols]
         .sort_values(cols).reset_index(drop=True))
    pd.testing.assert_frame_equal(
        a.astype({"turn_idx": "int64"}), b.astype({"turn_idx": "int64"}))


def test_orc_and_feather_readers_match_parquet(tmp_path, ray_session):
    """ORC and Arrow-IPC files through the registry yield the same turns
    as the parquet reader (decode happens inside the read tasks; ts —
    the full canonical schema — survives both containers)."""
    import os

    import pandas as pd
    from pyarrow import feather, orc

    from pboh_entity_linking_ray.sources import READERS, read_turns
    from pboh_entity_linking_ray.sources.synthetic import generate_corpus

    c = generate_corpus(30, 3)
    paths = {}
    d = str(tmp_path)
    orc.write_table(c.turns, os.path.join(d, "turns.orc"))
    feather.write_feather(c.turns, os.path.join(d, "turns.feather"))
    paths["orc"] = os.path.join(d, "turns.orc")
    paths["feather"] = os.path.join(d, "turns.feather")

    want = (c.turns.to_pandas()
            .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True))
    for fmt, p in paths.items():
        assert fmt in READERS
        got = (read_turns(p, fmt).to_pandas()
               .sort_values(["conv_id", "turn_idx"])
               .reset_index(drop=True))
        pd.testing.assert_frame_equal(got[want.columns.tolist()], want,
                                      check_dtype=False)


def test_writer_registry_roundtrips(tmp_path, ray_session):
    """Every format with both a writer and a reader round-trips the
    turns exactly (write through WRITERS, read back through READERS)."""
    import os

    import pandas as pd
    import ray.data

    from pboh_entity_linking_ray.sources import (READERS, WRITERS,
                                                 read_turns, write_turns)
    from pboh_entity_linking_ray.sources.synthetic import generate_corpus

    c = generate_corpus(25, 5)
    cols = ["conv_id", "turn_idx", "role", "text", "tool"]
    ds = ray.data.from_arrow(c.turns.select(cols))
    want = (c.turns.select(cols).to_pandas()
            .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True))
    for fmt in ("parquet", "jsonl", "jsonl.gz", "csv", "tsv"):
        assert fmt in WRITERS and fmt in READERS
        out = os.path.join(str(tmp_path), f"turns_{fmt.replace('.', '_')}")
        write_turns(ds, out, fmt)
        got = (read_turns(out, fmt).to_pandas()
               .sort_values(["conv_id", "turn_idx"])
               .reset_index(drop=True))
        pd.testing.assert_frame_equal(got[cols], want, check_dtype=False)


def test_writer_roundtrip_adversarial_text(tmp_path, ray_session):
    """jsonl and csv sinks must round-trip ARBITRARY text — quotes,
    commas, newlines, unicode, leading/trailing space (tsv documents
    its no-tab/newline contract and is exempt)."""
    import os

    import pandas as pd
    import pyarrow as pa
    import ray.data

    from pboh_entity_linking_ray.sources import read_turns, write_turns

    texts = ['plain', 'with,comma', 'with "quotes"', "line\nbreak",
             'uniçødé ☃', '  padded  ', 'tab\\escape',
             "single'quote", '{"json": "looking"}', '']
    tbl = pa.table({
        "conv_id": pa.array([f"c{i:02d}" for i in range(len(texts))]),
        "turn_idx": pa.array([0] * len(texts), type=pa.int32()),
        "role": pa.array(["user"] * len(texts)),
        "text": pa.array(texts),
        "tool": pa.array([""] * len(texts)),
    })
    ds = ray.data.from_arrow(tbl)
    want = tbl.to_pandas().sort_values("conv_id").reset_index(drop=True)
    for fmt in ("jsonl", "csv"):
        out = os.path.join(str(tmp_path), f"adv_{fmt}")
        write_turns(ds, out, fmt)
        got = (read_turns(out, fmt).to_pandas()
               .sort_values("conv_id").reset_index(drop=True))
        pd.testing.assert_frame_equal(
            got[want.columns.tolist()], want, check_dtype=False)
