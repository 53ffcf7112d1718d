"""The pre-execution verification gate over any execution backend.

:class:`AnalyzingBackend` decorates an :class:`ExecutionBackend` the way
:class:`CachingBackend` does, but instead of memoizing *results* it
memoizes *verdicts*: before a query reaches the engine it runs
:func:`repro.analysis.plan.verify_query` against the live schema, raises
:class:`PlanVerificationError` on any error-severity finding, and counts
warnings without blocking.  Verdicts are cached per
``(formatted SQL, relation stamps)`` exactly like query results, so the
steady-state cost of the gate on a warm plan is one dict probe.

Wrap order matters: ``CachingBackend(AnalyzingBackend(engine))`` keeps
the result cache outermost so cache *hits* skip re-verification too,
while ``SquidSystem.backend_stats()`` still reaches the gate counters
through the ``inner`` chain.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from ..sql.ast import AnyQuery
from ..sql.engine.base import CacheStamp, ExecutionBackend, tables_of
from ..sql.formatter import format_query
from ..sql.result import ResultSet
from ..relational.errors import UnknownTableError
from .diagnostics import Diagnostic, PlanVerificationError
from .plan import verify_query

#: Bound on the verdict memo (verdicts are tiny; this is ample).
DEFAULT_VERDICT_MEMO = 512


class AnalyzingBackend(ExecutionBackend):
    """Decorator that statically verifies every query before execution."""

    def __init__(
        self,
        inner: ExecutionBackend,
        *,
        memo_entries: int = DEFAULT_VERDICT_MEMO,
    ) -> None:
        super().__init__(inner.db)
        self.inner = inner
        self.name = inner.name
        self._memo_entries = memo_entries
        # formatted SQL -> (stamp, diagnostics); mutated under _lock.
        self._verdicts: "OrderedDict[str, Tuple[CacheStamp, Tuple[Diagnostic, ...]]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self.analyzed = 0
        self.memo_hits = 0
        self.rejected = 0
        self.warned = 0

    def _verify(self, query: AnyQuery) -> Tuple[Diagnostic, ...]:
        """The memoized verdict for ``query`` against the current stamps."""
        key = format_query(query)
        try:
            stamp: Optional[CacheStamp] = tuple(
                (name, self.db.relation(name).uid, self.db.relation(name).version)
                for name in tables_of(query)
            )
        except UnknownTableError:
            # Unverifiable stamp == unknown table: verify uncached so the
            # PLAN001 rejection is raised (and re-raised on every retry).
            stamp = None
        if stamp is not None:
            with self._lock:
                entry = self._verdicts.get(key)
                if entry is not None and entry[0] == stamp:
                    self.memo_hits += 1
                    self._verdicts.move_to_end(key)
                    return entry[1]
        diagnostics = tuple(verify_query(self.db, query))
        with self._lock:
            self.analyzed += 1
            if any(not d.is_error for d in diagnostics):
                self.warned += 1
            if stamp is not None:
                self._verdicts[key] = (stamp, diagnostics)
                self._verdicts.move_to_end(key)
                while len(self._verdicts) > self._memo_entries:
                    self._verdicts.popitem(last=False)
        return diagnostics

    def execute(self, query: AnyQuery) -> ResultSet:
        diagnostics = self._verify(query)
        if any(d.is_error for d in diagnostics):
            with self._lock:
                self.rejected += 1
            raise PlanVerificationError(diagnostics)
        return self.inner.execute(query)

    def stats(self) -> Dict[str, int]:
        """Gate counters merged over the inner engine's stats."""
        inner_stats = getattr(self.inner, "stats", None)
        merged: Dict[str, int] = dict(inner_stats()) if callable(inner_stats) else {}
        with self._lock:
            merged.update(
                analyze_checked=self.analyzed,
                analyze_memo_hits=self.memo_hits,
                analyze_rejected=self.rejected,
                analyze_warned=self.warned,
            )
        return merged

    def close(self) -> None:
        with self._lock:
            self._verdicts.clear()
        self.inner.close()
