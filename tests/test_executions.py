"""Ray Data executions per flagship op.

On a lazy Dataset, Ray 2.49's ``Dataset.schema()`` (and so
``to_arrow_refs()``) runs a ``limit(1)`` copy of the plan and cancels it
once a row arrives.  The linkage path reads schemas from the streams it
consumes or declares them, so none of its ops may run such a job; the
total number of executions per op is pinned as an upper bound.  The
count patches ``StreamingExecutor.execute`` and walks each DAG for a
limit operator of 1.

The tail check: a fold and a ``link_one`` must not log Ray Data's
"Operator produced a RefBundle with a different schema" warning (a map
that emits zero-column blocks next to real ones)."""

import logging

import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.data
from ray.data._internal.execution.operators.limit_operator import \
    LimitOperator
from ray.data._internal.execution.streaming_executor import \
    StreamingExecutor

from pboh_entity_linking_ray.pipelines.console import link_one
from pboh_entity_linking_ray.pipelines.incremental import (fold_incremental,
                                                           run_incremental)
from pboh_entity_linking_ray.pipelines.linkage import run_linkage
from pboh_entity_linking_ray.sources.synthetic import generate_corpus


@pytest.fixture
def executions(monkeypatch):
    """List of one bool per execution: does its DAG hold a limit(1)?"""
    log = []
    orig = StreamingExecutor.execute

    def execute(self, dag, *args, **kwargs):
        seen, stack, lim1 = set(), [dag], False
        while stack:
            op = stack.pop()
            if id(op) not in seen:
                seen.add(id(op))
                lim1 |= isinstance(op, LimitOperator) and op._limit == 1
                stack.extend(op.input_dependencies)
        log.append(lim1)
        return orig(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", execute)
    return log


@pytest.fixture(scope="module")
def split_corpus(ray_session):
    """A 200-conv base run, 40 new convs and one held-out transcript."""
    c = generate_corpus(241, 7)
    ids = sorted(set(c.turns["conv_id"].to_pylist()))

    def turns(sel):
        return c.turns.filter(pc.is_in(c.turns["conv_id"],
                                       value_set=pa.array(sel)))

    base = run_linkage(ray.data.from_arrow(turns(ids[:200])))
    base.features = base.features.materialize()
    base.clusters = base.clusters.materialize()
    return c, base, turns(ids[200:240]), turns(ids[240:])


def _fold(base, new):
    return fold_incremental(base, run_incremental(
        base, ray.data.from_arrow(new)))


def test_run_linkage_runs_no_limit1_job(split_corpus, executions):
    c = split_corpus[0]
    run_linkage(ray.data.from_arrow(c.turns))
    assert sum(executions) == 0
    assert len(executions) <= 19          # 30 when schemas were fetched


def test_fold_runs_no_limit1_job(split_corpus, executions):
    _, base, new, _ = split_corpus
    _fold(base, new)
    assert sum(executions) == 0
    assert len(executions) <= 15          # 27 when schemas were fetched


def test_link_one_runs_no_limit1_job(split_corpus, executions):
    _, base, _, one = split_corpus
    link_one(one, base)
    assert sum(executions) == 0
    assert len(executions) <= 14          # 26 when schemas were fetched


def test_fold_and_link_one_log_no_schema_divergence(split_corpus):
    _, base, new, one = split_corpus
    records = []

    class Grab(logging.Handler):
        def emit(self, record):
            records.append(record.getMessage())

    lg = logging.getLogger("ray.data")
    handler, level = Grab(), lg.level
    lg.addHandler(handler)
    lg.setLevel(logging.WARNING)
    try:
        _fold(base, new)
        link_one(one, base)
    finally:
        lg.removeHandler(handler)
        lg.setLevel(level)
    assert not [m for m in records if "different schema" in m]
