"""``plan_joins`` against the straightforward greedy loop it replaces.

The reference below rescans every remaining join for every unbound alias
at every step and re-sorts the unbound aliases each time.  The planner
must pick the same start alias, the same steps with the same connecting
join indices, and the same residual joins.
"""

from __future__ import annotations

import random

import pytest

from repro.core import SquidConfig, SquidSystem
from repro.core.lookup import ExampleLookupError
from repro.datasets import imdb
from repro.eval.sampling import sample_example_sets
from repro.sql.ast import ColumnRef, IntersectQuery, JoinCondition, Query, TableRef
from repro.sql.engine.vectorized import plan_joins
from repro.workloads import imdb_queries


def reference_order(query, aliases, estimated_size):
    start = min(aliases, key=estimated_size)
    bound = {start}
    remaining = list(range(len(query.joins)))
    steps = []
    while len(bound) < len(aliases):
        chosen = None
        connecting = []
        for alias in sorted(
            (a for a in aliases if a not in bound), key=estimated_size
        ):
            connecting = [
                i
                for i in remaining
                if query.joins[i].touches(alias)
                and query.joins[i].other_side(alias).table in bound
            ]
            if connecting:
                chosen = alias
                break
        if chosen is None:
            chosen = min((a for a in aliases if a not in bound), key=estimated_size)
            connecting = []
        steps.append((chosen, tuple(connecting)))
        bound.add(chosen)
        consumed = [query.joins[i] for i in connecting]
        remaining = [i for i in remaining if query.joins[i] not in consumed]
    return start, steps, tuple(remaining)


def assert_same_order(query, sizes):
    aliases = {t.alias: t.name for t in query.tables}
    plan = plan_joins(query, aliases, sizes.__getitem__)
    start, steps, residuals = reference_order(query, list(aliases), sizes.__getitem__)
    assert plan.start == start
    assert [(step.alias, step.connecting) for step in plan.steps] == steps
    assert plan.residuals == residuals


def random_query(rng):
    n = rng.randint(1, 9)
    aliases = [f"t{i}" for i in range(n)]
    joins = []
    for _ in range(rng.randint(0, 2 * n)):
        left, right = rng.choice(aliases), rng.choice(aliases)
        cols = ("a", "b")
        join = JoinCondition(
            ColumnRef(left, rng.choice(cols)), ColumnRef(right, rng.choice(cols))
        )
        joins.append(join)
        if rng.random() < 0.2:  # a duplicated condition
            joins.append(join)
    query = Query(
        select=(ColumnRef(aliases[0], "a"),),
        tables=tuple(TableRef("r", alias) for alias in aliases),
        joins=tuple(joins),
    )
    sizes = {alias: rng.randint(0, 4) for alias in aliases}  # many ties
    return query, sizes


def test_random_queries():
    for seed in range(400):
        assert_same_order(*random_query(random.Random(seed)))


@pytest.fixture(scope="module")
def imdb_system():
    db = imdb.generate(imdb.ImdbSize.small())
    return SquidSystem.build(db, imdb.metadata(), SquidConfig())


def test_abduced_queries(imdb_system):
    db = imdb_system.adb.db
    checked = 0
    for workload in imdb_queries.build_registry():
        values = workload.ground_truth_examples(db)
        for examples in sample_example_sets(values, 4, 2, seed=3):
            try:
                result = imdb_system.discover(examples)
            except ExampleLookupError:
                continue
            for query in (result.query, result.keyed_query, result.original_query):
                blocks = query.blocks if isinstance(query, IntersectQuery) else [query]
                for block in blocks:
                    sizes = {t.alias: len(db.relation(t.name)) for t in block.tables}
                    assert_same_order(block, sizes)
                    checked += 1
    assert checked > 20
