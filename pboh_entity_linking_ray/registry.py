"""Single source of truth for the driver-facing query registry.

Every pipelines module exports ``QUERIES = {name: (fn, sql_or_None)}``;
this module aggregates them ONCE so ``__ray_entry__.py``, the oracle
parity tests, the bench ``--ops`` sweep and the ``--query`` CLI all see
the same inventory (previously each kept its own module tuple and had
to be updated in lockstep).

Reference analog: the dataset/driver dispatch in
``eval/EvalOnDatasets.scala`` — one routing table for every runnable
pipeline, recast as a dict of sf_dir-callables.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from pboh_entity_linking_ray.pipelines import (
    analytics,
    ann,
    cardinality,
    curation,
    er,
    fuzzy,
    linkage_queries,
    multimodal,
    relational,
    sampling,
    search,
    temporal,
    textops,
    training,
)

PIPELINE_MODULES = (
    relational, textops, sampling, temporal, analytics, fuzzy, ann,
    multimodal, cardinality, curation, er, search, training,
    linkage_queries,
)


def all_queries() -> dict[str, tuple[Callable[[str], Any], str | None]]:
    """name → (callable(sf_dir), duckdb_sql_or_None), across all modules."""
    out: dict[str, tuple[Callable[[str], Any], str | None]] = {}
    for mod in PIPELINE_MODULES:
        out.update(mod.QUERIES)
    return out
