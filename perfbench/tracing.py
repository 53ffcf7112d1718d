"""In-memory spans recorded from the benchmark's own files.

The traced run wraps each layer's public function by rebinding the name
its caller imports (``repro.core.pipeline.discover_contexts`` and so on)
and wraps a few per-instance entry points (the server's ``handle``, the
session's ``discover`` and ``discover_async``, the backends' ``execute``).  The program's
source is untouched; :meth:`Tracer.uninstall` restores every binding.

A span is (name, start, end, parent, request id, count).  The current
span lives in a context variable, and the traced event loop copies the
context into executor threads, so work a request hands to a thread is
still parented to that request.  A layer's self time is its duration
minus the union of its children's intervals.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro import serve
from repro.core import adb as adb_module
from repro.core import pipeline, session, squid

#: (span id, request id) of the innermost open span.
_CURRENT: contextvars.ContextVar[Tuple[int, int]] = contextvars.ContextVar(
    "perfbench_span", default=(0, 0)
)


@dataclass
class Span:
    span_id: int
    parent: int
    request: int
    name: str
    start: int
    end: int
    count: float = 0.0
    """A layer-specific count measured where the work happens."""

    extra: float = 0.0
    """A second count (abduction: filters considered)."""


def _lookup_count(args, result):
    return len(result), 0.0


def _context_count(args, result):
    return len(result.filters), 0.0


def _abduction_count(args, result):
    return len(result.selected), len(result.decisions)


def _prune_count(args, result):
    return len(args[3]) - len(result), 0.0


#: Module-level names rebound in the traced run: (module, attribute,
#: span name, counter).  A counter maps (args, result) to (count, extra).
FUNCTIONS = (
    (pipeline, "lookup_examples", "lookup", _lookup_count),
    (pipeline, "disambiguate", "disambiguation", None),
    (pipeline, "discover_contexts", "context", _context_count),
    (pipeline, "abduce", "abduction", _abduction_count),
    (pipeline, "prune_redundant", "prune", _prune_count),
    (pipeline, "build_adb_query", "base_query", None),
    (pipeline, "build_original_query", "base_query", None),
    (squid, "discover_sequential", "pipeline", None),
    (session, "discover_sequential", "pipeline", None),
    (serve, "sequential_response", "serve.handle", None),
    (serve, "encode_response", "serve.encode", None),
    (adb_module, "discover_families", "adb.build.discover", None),
    (adb_module, "materialize_all", "adb.build.materialize", None),
    (adb_module, "compute_statistics", "adb.build.statistics", None),
    (adb_module, "InvertedColumnIndex", "adb.build.inverted", None),
)


class Tracer:
    """Records spans while installed; holds them until the run ends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._restore: List[Tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _open(self, request: Optional[int] = None) -> Tuple[Span, Any]:
        parent, parent_request = _CURRENT.get()
        span_id = next(self._ids)
        req = parent_request if request is None else request
        span = Span(span_id, parent, req, "", 0, 0)
        token = _CURRENT.set((span_id, req))
        return span, token

    def _close(self, span: Span, token: Any, name: str, start: int) -> None:
        span.end = time.perf_counter_ns()
        span.start = start
        span.name = name
        _CURRENT.reset(token)
        self.spans.append(span)

    def wrap(self, fn: Callable, name: str, counter=None) -> Callable:
        """A synchronous wrapper recording one ``name`` span per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, token = self._open()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span, token, name, start)
            if counter is not None:
                span.count, span.extra = counter(args, result)
            return result

        return traced

    def wrap_async(self, fn: Callable, name: str) -> Callable:
        """A coroutine wrapper recording one ``name`` span per await."""

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            span, token = self._open()
            start = time.perf_counter_ns()
            try:
                return await fn(*args, **kwargs)
            finally:
                self._close(span, token, name, start)

        return traced

    @contextmanager
    def span(self, name: str, request: Optional[int] = None) -> Iterator[Span]:
        """A span opened by the benchmark itself; ``request`` starts a
        new request root instead of inheriting the current one."""
        span, token = self._open(request)
        start = time.perf_counter_ns()
        try:
            yield span
        finally:
            self._close(span, token, name, start)

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def _rebind(self, owner: Any, attr: str, value: Any) -> None:
        had_own = attr in vars(owner)
        self._restore.append((owner, attr, getattr(owner, attr), had_own))
        setattr(owner, attr, value)

    def install_functions(self) -> None:
        """Rebind every layer function named in :data:`FUNCTIONS`."""
        for module, attr, name, counter in FUNCTIONS:
            self._rebind(module, attr, self.wrap(getattr(module, attr), name, counter))

    def install_system(self, system, server=None) -> None:
        """Wrap the per-instance entry points of a built system/server."""
        backend = system.backend
        self._rebind(backend, "execute", self.wrap(backend.execute, "engine.cache"))
        inner = getattr(backend, "inner", None)
        if inner is not None:
            self._rebind(inner, "execute", self.wrap(inner.execute, "engine.execute"))
        if server is not None:
            self._rebind(server, "handle", self.wrap_async(server.handle, "serve.handle"))
            sess = server.session
            self._rebind(sess, "discover", self.wrap(sess.discover, "session.discover"))
            self._rebind(
                sess, "discover_async",
                self.wrap_async(sess.discover_async, "session.discover"),
            )
            abackend = server.async_backend
            self._rebind(
                abackend, "execute",
                self.wrap_async(abackend.execute, "engine.async"),
            )

    def uninstall(self) -> None:
        """Restore every rebound name, newest first."""
        while self._restore:
            owner, attr, value, had_own = self._restore.pop()
            if had_own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)


def context_loop_factory() -> asyncio.AbstractEventLoop:
    """An event loop whose executor calls run in a copy of the caller's
    context, so spans opened in executor threads find their request."""
    loop = asyncio.new_event_loop()
    plain = loop.run_in_executor

    def run_in_executor(executor, func, *args):
        ctx = contextvars.copy_context()
        return plain(executor, functools.partial(ctx.run, func, *args))

    loop.run_in_executor = run_in_executor  # type: ignore[method-assign]
    return loop


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def _covered(intervals: List[Tuple[int, int]], start: int, end: int) -> int:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: List[Span]) -> Dict[int, int]:
    """Self time (ns) of every span: duration minus its children's union."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: (span.end - span.start)
        - _covered(children.get(span.span_id, []), span.start, span.end)
        for span in spans
    }


#: The summary row of a span name that never occurred.
EMPTY_ROW = {"calls": 0, "self_ms": 0.0, "total_ms": 0.0, "count": 0.0,
             "extra": 0.0, "in_prune": 0}


def summarize(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, self and total ms, summed counts, and how
    many of its spans ran inside a ``prune`` span."""
    selfs = self_times(spans)
    by_id = {span.span_id: span for span in spans}
    out: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = out.setdefault(span.name, dict(EMPTY_ROW))
        row["calls"] += 1
        row["self_ms"] += selfs[span.span_id] / 1e6
        row["total_ms"] += (span.end - span.start) / 1e6
        row["count"] += span.count
        row["extra"] += span.extra
        parent = by_id.get(span.parent)
        while parent is not None:
            if parent.name == "prune":
                row["in_prune"] += 1
                break
            parent = by_id.get(parent.parent)
    return out
