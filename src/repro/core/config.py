"""SQuID configuration: the paper's tunable parameters plus ablation knobs.

The four headline parameters and their defaults come from Appendix E
(Figure 21): base filter prior ρ = 0.1, domain-coverage penalty γ = 2,
association-strength threshold τa = 5, skewness threshold τs = 2.0.

Additional knobs expose design decisions the paper discusses in prose:

* ``eta`` — the domain-coverage threshold η of Appendix A below which a
  filter is not penalised at all.
* ``outlier_k`` — the ``k`` of the mean/standard-deviation outlier rule
  of Appendix B (``a_i`` is an outlier if ``a_i - mean > k*s``), with
  ``k >= 2``.
* ``entity_dim_tau_a`` — τa applied to derived families whose value
  dimension is itself an entity (movies↔persons, publications↔authors).
  Such association strengths are inherently ~1, so the global τa would
  reject them outright; the paper's IQ5/DQ4 results show these filters
  must survive (see DESIGN.md §5).
* ``normalize_association`` — Section 7.4's case-study variant where θ is
  the *fraction* of an entity's associations rather than the raw count.
* ``max_fact_depth`` — Section 5 restricts derived-property discovery to
  a depth of two fact tables; exposed for the ablation benchmark.
* ``numeric_slack`` — ablation of Definition 3.2's tightest-bound choice:
  widens numeric ranges by this relative slack.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..sql.engine import (
    DEFAULT_BACKEND,
    DEFAULT_CACHE_SIZE,
    DEFAULT_SHARD_MIN_ROWS,
    available_backends,
)


def validate_fanout(jobs: int, executor: str) -> None:
    """Validate worker-pool settings (shared by config and sessions)."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if executor not in ("thread", "process"):
        raise ValueError(
            f"executor must be 'thread' or 'process', got {executor!r}"
        )


@dataclass(frozen=True)
class SquidConfig:
    """All tunable parameters of the SQuID pipeline."""

    # --- probabilistic abduction model (Figure 21 defaults) -----------
    rho: float = 0.1
    """Base filter prior ρ ∈ (0, 1): default prior of including a filter."""

    gamma: float = 2.0
    """Domain-coverage penalty γ >= 0 (Appendix A); 0 disables δ."""

    tau_a: float = 5.0
    """Association-strength threshold τa: derived filters with θ < τa are
    labelled insignificant (α = 0)."""

    tau_s: float = 2.0
    """Skewness threshold τs for the outlier impact λ (Appendix B)."""

    # --- secondary model parameters ------------------------------------
    eta: float = 0.25
    """Domain-coverage fraction η below which δ(φ) = 1 (Appendix A)."""

    outlier_k: float = 2.0
    """Constant k >= 2 of the outlier test ``θ - mean > k * stddev``."""

    entity_dim_tau_a: float = 1.0
    """τa override for derived families with entity-valued dimensions."""

    normalize_association: bool = False
    """Use fractional association strengths (Section 7.4 case studies)."""

    # --- offline discovery ---------------------------------------------
    max_fact_depth: int = 2
    """Maximum number of fact tables on a derived-property path (§5)."""

    # --- online behaviour ------------------------------------------------
    disambiguate: bool = True
    """Resolve ambiguous example-to-entity mappings (§6.1.1)."""

    max_disjunction: int = 0
    """Footnote 7's optional disjunction for categorical attributes: when
    the examples do not share a single value of a single-valued categorical
    family, allow a filter over the (tightest) observed value set, up to
    this many values.  0 disables disjunction (the paper's default
    exposition)."""

    max_disambiguation_combinations: int = 2048
    """Exhaustive assignment search cap; beyond it, fall back to greedy."""

    numeric_slack: float = 0.0
    """Relative widening of numeric range filters (ablation of Def. 3.2)."""

    prune_redundant_filters: bool = False
    """Drop abduced filters whose removal leaves the result set unchanged.

    With whole-output example sets (the closed-world QRE setting of
    Section 7.5) ψ(φ)^|E| vanishes for *every* shared context, so Algorithm
    1 includes them all; this Occam's-razor pass keeps the emitted query as
    simple as possible, as the paper's Theorem 1 discussion prescribes."""

    max_example_warn: int = 100
    """Soft cap: above this many examples a ValueError is raised (QBE
    users provide few examples; this guards against misuse)."""

    # --- execution backend -----------------------------------------------
    backend: str = DEFAULT_BACKEND
    """Execution backend for αDB queries: ``interpreted`` (the reference
    row-at-a-time engine), ``vectorized`` (numpy kernels over cached
    column arrays; the default), or ``sqlite`` (an in-memory SQLite
    mirror)."""

    query_cache_size: int = DEFAULT_CACHE_SIZE
    """LRU entries of the shared query-result cache keyed on formatted
    SQL (0 disables caching).  The Occam's-razor pruning pass and
    evaluation reruns re-execute identical queries; the cache makes those
    repeats free."""

    shards: int = 0
    """Probe-side shard workers of the ``sharded`` engine.  0 means auto:
    the machine's cores, capped at 8."""

    shard_min_rows: int = DEFAULT_SHARD_MIN_ROWS
    """Activation threshold of the sharded engine: a block only fans out
    when its estimated carried work (start rows × aliases) reaches this
    many row-gathers; smaller blocks stay on the single-process
    vectorized path."""

    analyze: bool = False
    """Statically verify every query before execution (the
    :mod:`repro.analysis` plan verifier as a pre-execution gate):
    error-severity findings — unknown references, type-incompatible
    joins/predicates, statically unsatisfiable conjunctions,
    engine-defined GROUP BY projections — reject the query with a
    :class:`~repro.analysis.PlanVerificationError` before any engine
    runs it; warnings only count in the ``analyze_*`` stats.  Verdicts
    are memoized per (formatted SQL, relation stamps), so the warm-plan
    overhead is one dict probe."""

    # --- batch discovery / worker fan-out --------------------------------
    jobs: int = 1
    """Default worker-pool width of :class:`~repro.core.session.
    DiscoverySession`: independent (example set × candidate base query)
    work units fan out across this many workers.  1 keeps the sequential
    reference path."""

    executor: str = "thread"
    """Worker pool flavour for ``jobs > 1``: ``thread`` (shared αDB, best
    when the vectorized kernels dominate) or ``process`` (fork-based,
    true CPU parallelism; falls back to threads where fork is
    unavailable)."""

    def __post_init__(self) -> None:
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must be in (0, 1), got {self.rho}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.eta <= 0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if self.tau_a < 0:
            raise ValueError(f"tau_a must be >= 0, got {self.tau_a}")
        if self.outlier_k < 0:
            raise ValueError(f"outlier_k must be >= 0, got {self.outlier_k}")
        if self.max_fact_depth not in (1, 2):
            raise ValueError("max_fact_depth must be 1 or 2")
        if self.backend not in available_backends():
            raise ValueError(
                f"backend must be one of {', '.join(available_backends())}, "
                f"got {self.backend!r}"
            )
        if self.query_cache_size < 0:
            raise ValueError(
                f"query_cache_size must be >= 0, got {self.query_cache_size}"
            )
        if self.shards < 0:
            raise ValueError(f"shards must be >= 0, got {self.shards}")
        if self.shard_min_rows < 0:
            raise ValueError(
                f"shard_min_rows must be >= 0, got {self.shard_min_rows}"
            )
        validate_fanout(self.jobs, self.executor)

    def with_overrides(self, **kwargs) -> "SquidConfig":
        """A copy of this config with selected fields replaced."""
        return replace(self, **kwargs)

    @classmethod
    def default(cls) -> "SquidConfig":
        """The paper's default configuration (Figure 21)."""
        return cls()

    @classmethod
    def optimistic(cls) -> "SquidConfig":
        """Closed-world / QRE configuration (Section 7.5).

        For query reverse engineering "there is no need to drop
        coincidental filters", so SQuID is made optimistic: high filter
        prior, low association-strength threshold, no domain-coverage
        penalty, and no skew gating.
        """
        return cls(
            rho=0.9,
            gamma=0.0,
            tau_a=1.0,
            tau_s=-1.0,
            entity_dim_tau_a=1.0,
            prune_redundant_filters=True,
        )

    @classmethod
    def case_study(cls) -> "SquidConfig":
        """Section 7.4 configuration with normalised association strength."""
        return cls(normalize_association=True, tau_a=0.3, entity_dim_tau_a=0.05)
