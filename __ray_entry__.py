"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship record-linkage pipeline on the deterministic
synthetic transcript corpus sized for sf0.001 and returns the clusters
table.  ``queries()`` exposes every query in ``registry.all_queries()``
(the flagship linkage stages and the registered query families listed
there); ``oracle_sql()`` carries the DuckDB twin for each SQL-expressible
entry.

Ray is initialised by the driver BEFORE this module is imported — nothing
here (or in the library) calls ``ray.init`` / ``ray.shutdown``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from pboh_entity_linking_ray.pipelines import linkage_queries
from pboh_entity_linking_ray.registry import all_queries

_ALL = all_queries()


def entry() -> Any:
    """Flagship pipeline at sf0.001 scale → clusters table."""
    return linkage_queries.link_clusters("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    return {name: fn for name, (fn, _sql) in _ALL.items()}


def oracle_sql() -> dict[str, str]:
    return {name: sql for name, (_fn, sql) in _ALL.items() if sql is not None}
