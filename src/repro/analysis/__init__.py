"""Static analysis for the SQuID reproduction: plan verifier + linter.

Two halves, one diagnostic vocabulary:

* :mod:`repro.analysis.plan` — a **static query-plan verifier** that
  checks :class:`~repro.sql.ast.Query` / ``IntersectQuery`` ASTs against
  a database schema *before* any engine executes them.  Every check emits a structured
  :class:`~repro.analysis.diagnostics.Diagnostic` with a stable
  ``PLAN0xx`` code; :class:`~repro.analysis.gate.AnalyzingBackend`
  turns the verifier into an optional pre-execution gate
  (``SquidConfig.analyze`` / ``--analyze``).

* :mod:`repro.analysis.lint` — a **codebase invariant linter** built on
  CPython's :mod:`ast`, enforcing repo-specific contracts generic
  linters cannot see (lock discipline around shared counters,
  version-stamp bumps on relation mutation, ``(uid, version)`` stamp
  pairing, execution-backend contract completeness, seeded-randomness
  discipline in the synth sampling paths, copy-on-write warm-state
  immutability inside worker units).  ``tools/lint_repro.py`` is the
  CLI driver; CI runs it on every PR.

See ``docs/analysis.md`` for the full diagnostic-code catalog.
"""

from __future__ import annotations

from .diagnostics import (
    Diagnostic,
    PlanVerificationError,
    Severity,
    errors_of,
    format_diagnostics,
)
from .gate import AnalyzingBackend
from .plan import PLAN_CODES, verify_query

__all__ = [
    "AnalyzingBackend",
    "Diagnostic",
    "PLAN_CODES",
    "PlanVerificationError",
    "Severity",
    "errors_of",
    "format_diagnostics",
    "verify_query",
]
