"""Metadata-clean parquet reads.

The driver-generated testdata parquet embeds a ``b'pandas'`` schema-
metadata blob (written by pandas), and ``hash(pyarrow.Schema)`` raises
``unhashable type: 'dict'`` on such a schema.  Ray Data hashes block
schemas to dedup them before unifying (``transform_pyarrow.unify_schemas``
early-exit) — with the blob aboard every read task logs ``Failed to hash
the schemas (for deduplication)`` and falls back to the full unify on
every block build.

``read_parquet_clean`` is a drop-in replacement for
``ray.data.read_parquet`` that probes the file-footer schema once on the
driver and, when (and only when) a metadata blob is present, forwards a
stripped ``schema=`` so every downstream block schema is hashable again.
Files written without pandas metadata (all of this repo's own outputs)
pass through with ``schema=None`` — zero behavior change.

Ray treats ``schema=`` as the OUTPUT schema, so it must be projected to
``columns`` when given.  A ``filter`` referencing a column outside that
projection is handled by widening the read to ``columns ∪ filter-cols``
(so the forwarded schema stays consistent with the scan output) and
dropping the extras in a post-read projection — every read shape is
metadata-clean.  Columns absent from the file footer (e.g. hive
partition columns Ray synthesizes) force a plain ``schema=None``
passthrough — never let the cosmetic fix break a read.
"""

from __future__ import annotations

import ray.data

__all__ = ["read_parquet_clean"]

# path-keyed memo of the driver-side footer probe; bounded so a long
# process that rewrites paths with new schemas can't pin stale entries
# forever (FIFO eviction is fine — the probe is cheap to redo)
_SCHEMA_CACHE: dict = {}
_SCHEMA_CACHE_MAX = 256


def _stripped_schema(paths):
    """Footer schema with schema- and field-level metadata removed, or
    None when the file carries none (or the probe fails — never let the
    cosmetic fix break a read)."""
    key = tuple(paths) if isinstance(paths, (list, tuple)) else paths
    if key in _SCHEMA_CACHE:
        return _SCHEMA_CACHE[key]
    out = None
    try:
        import pyarrow as pa
        import pyarrow.dataset as pds

        sch = pds.dataset(paths).schema
        if sch.metadata is not None or any(
                f.metadata is not None for f in sch):
            out = pa.schema([f.remove_metadata() for f in sch])
    except Exception:
        out = None
    if len(_SCHEMA_CACHE) >= _SCHEMA_CACHE_MAX:
        _SCHEMA_CACHE.pop(next(iter(_SCHEMA_CACHE)))
    _SCHEMA_CACHE[key] = out
    return out


def _filter_cols_outside(flt, sch, columns) -> list:
    """Best-effort: schema field names OUTSIDE the projection that the
    filter expression appears to reference.  ``pyarrow.dataset.
    Expression`` exposes no field-name API, so scan its repr for
    word-boundary occurrences of the non-projected names — a spurious
    hit (inside a literal, say) just means we read one extra column and
    drop it post-read."""
    import re

    s = str(flt)
    return [f.name for f in sch
            if f.name not in columns
            and re.search(rf"\b{re.escape(f.name)}\b", s)]


def _unified_schema(paths):
    """Metadata-free union-by-name schema over EVERY file footer —
    pyarrow/Ray default to the FIRST fragment's schema, so a directory
    whose newer shards accreted columns fails outright.  Driver-side
    cost is one footer read per file (small, but O(files): callers
    opt in via ``union_by_name=True``)."""
    import pyarrow as pa
    import pyarrow.dataset as pds

    schemas = [frag.physical_schema.remove_metadata()
               for frag in pds.dataset(paths).get_fragments()]
    uni = pa.unify_schemas(schemas)
    return pa.schema([f.remove_metadata() for f in uni])


def read_parquet_clean(paths, *, columns=None, schema=None,
                       union_by_name: bool = False, **kw):
    """``ray.data.read_parquet`` with hashable (metadata-free) schemas.

    Same signature and semantics; only adds a stripped ``schema=`` when
    the caller didn't pass one and the file footer carries metadata.
    ``union_by_name=True`` additionally unifies DIVERGENT file schemas
    (schema evolution: newer shards with extra columns) and null-fills
    the missing columns on old rows — the plain reader raises; the
    unified schema then takes the same projection, filter widening and
    footer fallback as a stripped one."""
    drop_after = None
    if schema is None:
        sch = (_unified_schema(paths) if union_by_name
               else _stripped_schema(paths))
        flt = kw.get("filter")
        if sch is not None:
            read_cols = columns
            if columns is not None and flt is not None:
                extra = _filter_cols_outside(flt, sch, columns)
                if extra:
                    read_cols = list(columns) + extra
                    drop_after = list(columns)
            if read_cols is not None:
                footer_names = set(sch.names)
                if all(c in footer_names for c in read_cols):
                    import pyarrow as pa

                    schema = pa.schema([sch.field(c) for c in read_cols])
                    columns = read_cols
                else:
                    # a requested column isn't in the footer (hive
                    # partition column, etc.) — plain passthrough
                    drop_after = None
            else:
                schema = sch
    ds = ray.data.read_parquet(paths, columns=columns, schema=schema, **kw)
    if drop_after is not None:
        keep = list(drop_after)

        def _project(t):
            return t.select([c for c in keep if c in t.column_names])

        ds = ds.map_batches(_project, batch_format="pyarrow")
    return ds
