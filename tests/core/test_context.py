"""Tests for semantic context discovery (§6.1.2)."""

from __future__ import annotations

import pytest

from repro.core import SquidConfig, discover_contexts
from repro.core.context import _normalized_selectivity
from repro.core.properties import FamilyKind


def scanned_normalized_selectivity(adb, family, value, theta):
    """Reference: one Python pass over the derived relation's rows."""
    relation = adb.db.relation(family.derived_table)
    entity_col = relation.column(family.derived_entity_col)
    value_col = relation.column(family.derived_value_col)
    count_col = relation.column("count")
    totals = {}
    hits = {}
    for rid in relation.row_ids():
        key = entity_col[rid]
        count = float(count_col[rid])
        totals[key] = totals.get(key, 0.0) + count
        if value_col[rid] == value:
            hits[key] = count
    n = adb.entity_count(family.entity)
    if n == 0:
        return 0.0
    satisfied = sum(
        1
        for key, hit in hits.items()
        if totals.get(key, 0.0) > 0 and hit / totals[key] >= theta
    )
    return satisfied / n


def contexts_by_attr(context_set):
    out = {}
    for ctx, filt in zip(context_set.contexts, context_set.filters):
        out.setdefault(ctx.prop.family.attribute, []).append((ctx, filt))
    return out


class TestFigure6Scenario:
    """Tom Cruise + Clint Eastwood: gender=Male and age in [50, 90]."""

    def test_shared_categorical_context(self, people_adb):
        cs = discover_contexts(people_adb, "person", [1, 2])
        by_attr = contexts_by_attr(cs)
        (ctx, filt), = by_attr["gender"]
        assert ctx.prop.value == "Male"
        assert ctx.prop.theta is None
        assert ctx.example_count == 2
        assert filt.selectivity == pytest.approx(3 / 6)

    def test_minimal_numeric_range(self, people_adb):
        cs = discover_contexts(people_adb, "person", [1, 2])
        by_attr = contexts_by_attr(cs)
        (ctx, filt), = by_attr["age"]
        assert ctx.prop.value == (50, 90)
        assert filt.selectivity == pytest.approx(5 / 6)

    def test_unshared_value_produces_no_context(self, people_adb):
        # Tom Cruise (Male) + Julia Roberts (Female): no gender context
        cs = discover_contexts(people_adb, "person", [1, 4])
        by_attr = contexts_by_attr(cs)
        assert "gender" not in by_attr
        # but age is shared exactly: both 50 -> degenerate range
        (ctx, _), = by_attr["age"]
        assert ctx.prop.value == (50, 50)

    def test_single_example_tightest_bounds(self, people_adb):
        cs = discover_contexts(people_adb, "person", [5])
        by_attr = contexts_by_attr(cs)
        (ctx, _), = by_attr["age"]
        assert ctx.prop.value == (29, 29)

    def test_numeric_slack_widens_range(self, people_adb):
        config = SquidConfig(numeric_slack=0.1)
        cs = discover_contexts(people_adb, "person", [1, 2], config)
        (ctx, _), = contexts_by_attr(cs)["age"]
        low, high = ctx.prop.value
        assert low < 50 and high > 90


class TestDerivedContexts:
    def test_theta_is_minimum_across_examples(self, mini_adb):
        # Jim Carrey: 3 comedies; Eddie Murphy: 2 -> θmin = 2
        cs = discover_contexts(mini_adb, "person", [1, 2])
        by_attr = contexts_by_attr(cs)
        genre_ctxs = by_attr["genre"]
        comedy = [
            (c, f) for c, f in genre_ctxs if c.prop.label == "Comedy"
        ]
        (ctx, filt), = comedy
        assert ctx.prop.theta == 2.0
        assert filt.theta == 2.0

    def test_value_must_be_shared_by_all(self, mini_adb):
        # Jim Carrey has Drama (Big Fish); Eddie Murphy does not
        cs = discover_contexts(mini_adb, "person", [1, 2])
        genre_labels = {
            c.prop.label
            for c in cs.contexts
            if c.prop.family.attribute == "genre"
        }
        assert genre_labels == {"Comedy"}

    def test_missing_property_skips_family(self, mini_adb):
        # a person with no movies at all has no derived contexts
        mini_adb.db.insert("person", (99, "No Movies", "Male", 1980))
        cs = discover_contexts(mini_adb, "person", [1, 99])
        attrs = {c.prop.family.attribute for c in cs.contexts}
        assert "genre" not in attrs
        assert "movie" not in attrs

    def test_entity_valued_context(self, mini_adb):
        # Big Fish & The Hours share Meryl Streep
        cs = discover_contexts(mini_adb, "movie", [7, 8])
        by_attr = contexts_by_attr(cs)
        person_ctxs = by_attr.get("person", [])
        labels = {c.prop.label for c, _ in person_ctxs}
        assert "Meryl Streep" in labels

    def test_filters_parallel_contexts(self, mini_adb):
        cs = discover_contexts(mini_adb, "person", [1, 2])
        assert len(cs.contexts) == len(cs.filters)
        for ctx, filt in zip(cs.contexts, cs.filters):
            assert ctx.prop is filt.prop


class TestNormalizedAssociation:
    def test_theta_becomes_fraction(self, mini_adb):
        config = SquidConfig(normalize_association=True, tau_a=0.3)
        cs = discover_contexts(mini_adb, "person", [1, 2], config)
        comedy = [
            f
            for c, f in zip(cs.contexts, cs.filters)
            if c.prop.family.attribute == "genre" and c.prop.label == "Comedy"
        ]
        (filt,) = comedy
        # Jim: 3 comedy of 4 genre-slots (Comedy 3, Drama 1) -> 0.75
        # Eddie: 2 of 2 -> 1.0; θmin = 0.75
        assert filt.theta == pytest.approx(0.75)

    def test_normalized_selectivity_counts_fractions(self, mini_adb):
        config = SquidConfig(normalize_association=True, tau_a=0.3)
        cs = discover_contexts(mini_adb, "person", [1, 2], config)
        comedy = [
            f
            for c, f in zip(cs.contexts, cs.filters)
            if c.prop.family.attribute == "genre" and c.prop.label == "Comedy"
        ]
        (filt,) = comedy
        # fraction >= 0.75 holders: Jim (0.75), Eddie (1.0) of 6 persons
        assert filt.selectivity == pytest.approx(2 / 6)

    def test_selectivity_matches_row_scan(self, mini_adb):
        config = SquidConfig(normalize_association=True, tau_a=0.3)
        checked = 0
        for keys in ([1, 2], [3, 4], [5, 6], [1, 5], [2, 3, 4]):
            cs = discover_contexts(mini_adb, "person", keys, config)
            for ctx, filt in zip(cs.contexts, cs.filters):
                family = ctx.prop.family
                if not family.kind.is_derived or ctx.prop.theta is None:
                    continue
                assert filt.selectivity == scanned_normalized_selectivity(
                    mini_adb, family, ctx.prop.value, ctx.prop.theta
                )
                checked += 1
        assert checked > 0

    def test_selectivity_sweep_matches_row_scan(self, mini_adb):
        for family in mini_adb.discovery.families:
            if not family.kind.is_derived:
                continue
            stats = mini_adb.statistics.get(family)
            relation = mini_adb.db.relation(family.derived_table)
            values = relation.distinct_values(family.derived_value_col)
            for value in values + [-1]:
                for theta in (0.1, 0.25, 1 / 3, 0.5, 0.75, 0.9, 1.0):
                    assert _normalized_selectivity(
                        mini_adb, family, value, theta, stats
                    ) == scanned_normalized_selectivity(
                        mini_adb, family, value, theta
                    ), (family.key, value, theta)
