"""Semantic properties, property families, filters, and contexts (Section 3).

A *semantic property* is the triple p = ⟨A, V, θ⟩: attribute A, value (or
value range) V, and association strength θ (⊥ for basic properties).  A
*property family* groups all properties over the same attribute of the same
entity and carries the SQL plumbing needed to turn a property into
predicates; a *filter* φp is the structured-language representation of a
property; a *semantic context* x = (p, |E|) records that p was observed
across an example set of a given size (Section 4.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional, Tuple, Union


class FamilyKind(enum.Enum):
    """How a property family attaches to its entity."""

    DIRECT_CATEGORICAL = "direct_categorical"
    """Categorical attribute stored on the entity table (e.g. gender)."""

    DIRECT_NUMERIC = "direct_numeric"
    """Numeric attribute stored on the entity table (e.g. age, year)."""

    FK_DIM = "fk_dim"
    """FK attribute of the entity pointing at a dimension (person.country_id)."""

    FACT_DIM = "fact_dim"
    """Dimension associated through one fact table (movie —movietogenre→
    genre); a *basic* property: the entity either has the value or not."""

    FACT_ATTR = "fact_attr"
    """Attribute stored on an associating table itself
    (academics —research→ research.interest, the paper's Example 1.1);
    a *basic* property reached through one key--foreign-key join."""

    DERIVED_ENTITY = "derived_entity"
    """Entity-valued association through one fact table with a count
    (person —castinfo→ movie), optionally qualified (e.g. by role)."""

    DERIVED_DIM = "derived_dim"
    """Depth-2 derived property: aggregate of a basic property of an
    associated entity (persontogenre: #movies of each genre per person)."""

    @property
    def is_basic(self) -> bool:
        """Basic properties have θ = ⊥ (Section 3.1)."""
        return self in _BASIC_KINDS

    @property
    def is_derived(self) -> bool:
        """Derived properties carry an association strength θ."""
        return not self.is_basic

    @property
    def is_numeric(self) -> bool:
        """Whether property values are numeric ranges."""
        return self is FamilyKind.DIRECT_NUMERIC


_BASIC_KINDS = frozenset(
    {
        FamilyKind.DIRECT_CATEGORICAL,
        FamilyKind.DIRECT_NUMERIC,
        FamilyKind.FK_DIM,
        FamilyKind.FACT_DIM,
        FamilyKind.FACT_ATTR,
    }
)


@dataclass(frozen=True)
class PropertyFamily:
    """All semantic properties over one attribute of one entity.

    The SQL plumbing fields describe how to reach the attribute from the
    entity table; unused fields stay empty for a given kind.
    """

    entity: str
    kind: FamilyKind
    attribute: str
    """Human-readable label, e.g. ``gender``, ``genre``, ``movie[Actor]``."""

    column: str = ""
    """DIRECT_*: the attribute column on the entity table.
    DERIVED_DIM over a raw attribute: the value column of the αDB relation."""

    dim_table: str = ""
    dim_key: str = ""
    dim_label: str = ""
    """Dimension (or entity) table supplying values, with key and label."""

    fk_column: str = ""
    """FK_DIM: the FK column on the entity table."""

    fact_table: str = ""
    fact_entity_col: str = ""
    fact_dim_col: str = ""
    """FACT_DIM: fact table plus its FK columns to entity and dimension."""

    derived_table: str = ""
    derived_entity_col: str = ""
    derived_value_col: str = ""
    """DERIVED_*: the materialised αDB relation and its columns."""

    mid_table: str = ""
    """DERIVED_DIM: the associated entity the property aggregates over."""

    value_is_ref: bool = False
    """Whether stored values are keys into ``dim_table`` (vs raw values)."""

    @property
    def key(self) -> Tuple[str, str]:
        """Stable identity of the family: (entity, attribute)."""
        return (self.entity, self.attribute)

    def __str__(self) -> str:
        return f"{self.entity}.{self.attribute}[{self.kind.value}]"


#: V in ⟨A, V, θ⟩: a scalar for categorical properties, an inclusive
#: (low, high) pair for numeric ranges, or a frozenset for the optional
#: categorical disjunction of footnote 7.
PropertyValue = Union[int, float, str, bool, Tuple[Any, Any], frozenset]


@dataclass(frozen=True)
class SemanticProperty:
    """p = ⟨A, V, θ⟩ over a concrete family.

    ``theta`` is ``None`` (⊥) for basic properties.  For value-reference
    families ``value`` is a dimension key and ``label`` its readable form.
    """

    family: PropertyFamily
    value: PropertyValue
    theta: Optional[float] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.family.kind.is_basic and self.theta is not None:
            raise ValueError("basic properties have theta = ⊥")
        if self.family.kind.is_derived and self.theta is None:
            raise ValueError("derived properties require theta")
        if not self.label:
            display = self.display_value()
            object.__setattr__(self, "label", display)

    def display_value(self) -> str:
        """Readable form of V (dimension label or the raw value)."""
        if self.label:
            return self.label
        if isinstance(self.value, tuple):
            low, high = self.value
            return f"[{low}, {high}]"
        if isinstance(self.value, frozenset):
            return "{" + ", ".join(sorted(map(str, self.value))) + "}"
        return str(self.value)

    def notation(self) -> str:
        """The paper's ⟨A, V, θ⟩ notation, for logs and examples."""
        theta = "⊥" if self.theta is None else f"{self.theta:g}"
        return f"⟨{self.family.attribute}, {self.display_value()}, {theta}⟩"


@dataclass(frozen=True)
class Filter:
    """A semantic property filter φp (Section 3.1).

    Carries the statistics the abduction model needs alongside the
    property itself: the filter's selectivity ψ(φ) under the base query
    and its domain coverage (Appendix A).
    """

    prop: SemanticProperty
    selectivity: float
    domain_coverage: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.selectivity <= 1.0:
            raise ValueError(f"selectivity out of range: {self.selectivity}")
        if not 0.0 <= self.domain_coverage <= 1.0 + 1e-9:
            raise ValueError(f"domain coverage out of range: {self.domain_coverage}")

    @property
    def family(self) -> PropertyFamily:
        """The filter's property family."""
        return self.prop.family

    @property
    def theta(self) -> Optional[float]:
        """Association strength of the underlying property."""
        return self.prop.theta

    def notation(self) -> str:
        """φ⟨A, V, θ⟩ rendering, for logs and examples."""
        return f"φ{self.prop.notation()}"


@dataclass(frozen=True)
class SemanticContext:
    """x = (p, |E|): property p observed across all |E| examples."""

    prop: SemanticProperty
    example_count: int

    def __post_init__(self) -> None:
        if self.example_count < 1:
            raise ValueError("a context needs at least one example")

    def notation(self) -> str:
        """The paper's (p, |E|) rendering."""
        return f"({self.prop.notation()}, {self.example_count})"
