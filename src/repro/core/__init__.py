"""SQuID core: the paper's primary contribution.

Offline (Section 5): :mod:`discovery`, :mod:`derived`, :mod:`statistics`,
orchestrated by :class:`~repro.core.adb.AbductionReadyDatabase`.

Online (Sections 4 & 6): :mod:`lookup`, :mod:`disambiguation`,
:mod:`context`, :mod:`priors`, :mod:`abduction`, :mod:`base_query`,
orchestrated by :class:`~repro.core.squid.SquidSystem`.
"""

from .abduction import AbductionResult, FilterDecision, abduce, brute_force_best_subset
from .adb import AbductionReadyDatabase, AdbBuildReport
from .base_query import build_adb_query, build_base_query, build_original_query
from .config import SquidConfig
from .context import ContextSet, discover_contexts
from .disambiguation import DisambiguationResult, disambiguate
from .discovery import DerivedRecipe, DiscoveryResult as SchemaDiscoveryResult
from .discovery import discover_families
from .lookup import EntityMatch, ExampleLookupError, lookup_examples
from .metadata import AdbMetadata, DimensionSpec, EntitySpec, QualifierSpec
from .priors import (
    PriorBreakdown,
    association_strength_impact,
    domain_selectivity_impact,
    filter_prior,
    outlier_impact,
    sample_skewness,
)
from .properties import (
    FamilyKind,
    Filter,
    PropertyFamily,
    SemanticContext,
    SemanticProperty,
)
from .pipeline import (
    AbductionStage,
    ConstructionStage,
    ContextStage,
    DisambiguationStage,
    LookupStage,
    PipelineContext,
    Stage,
)
from .recommend import Recommendation, borderline_decisions, recommend_examples
from .session import BatchOutcome, DiscoverySession
from .squid import DiscoveryResult, DiscoveryTimings, SquidSystem
from .workers import (
    ForkWorkerPool,
    ThreadWorkerPool,
    WorkerPool,
    create_worker_pool,
    database_fingerprint,
)

__all__ = [
    "AbductionReadyDatabase",
    "AbductionResult",
    "AbductionStage",
    "AdbBuildReport",
    "AdbMetadata",
    "BatchOutcome",
    "ConstructionStage",
    "ContextSet",
    "ContextStage",
    "DerivedRecipe",
    "DimensionSpec",
    "DisambiguationResult",
    "DisambiguationStage",
    "DiscoveryResult",
    "DiscoverySession",
    "DiscoveryTimings",
    "EntityMatch",
    "EntitySpec",
    "ExampleLookupError",
    "FamilyKind",
    "Filter",
    "FilterDecision",
    "ForkWorkerPool",
    "LookupStage",
    "PipelineContext",
    "PriorBreakdown",
    "PropertyFamily",
    "QualifierSpec",
    "Recommendation",
    "SchemaDiscoveryResult",
    "Stage",
    "SemanticContext",
    "SemanticProperty",
    "SquidConfig",
    "SquidSystem",
    "ThreadWorkerPool",
    "WorkerPool",
    "abduce",
    "association_strength_impact",
    "borderline_decisions",
    "recommend_examples",
    "brute_force_best_subset",
    "create_worker_pool",
    "database_fingerprint",
    "build_adb_query",
    "build_base_query",
    "build_original_query",
    "disambiguate",
    "discover_contexts",
    "discover_families",
    "domain_selectivity_impact",
    "filter_prior",
    "lookup_examples",
    "outlier_impact",
    "sample_skewness",
]
