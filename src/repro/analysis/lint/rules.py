"""The lint rules.  Each rule is a function ``(Model) -> [Diagnostic]``.

Rules are deliberately *repo-shaped*: they encode contracts this
codebase documents in docstrings (lock ownership, stamp discipline,
fork-time copy-on-write) rather than universal Python style.  A new
rule is one function plus a ``LINT0xx`` entry in :data:`LINT_CODES` and
a registration in :data:`ALL_RULES`; see ``docs/analysis.md``.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

from ..diagnostics import Diagnostic, Severity
from .model import ClassInfo, FileModel, Model, attr_chain, call_name

#: Code -> one-line contract (the catalog; mirrored in docs/analysis.md).
LINT_CODES: Dict[str, str] = {
    "LINT001": "shared counters of lock-owning classes mutate under the lock",
    "LINT002": "version-stamped container mutations bump the stamp",
    "LINT003": ".version stamp reads are paired with .uid",
    "LINT004": "concrete ExecutionBackends implement execute/stats/name",
    "LINT005": "synth sampling paths use only seeded randomness",
    "LINT006": "worker units never mutate copy-on-write warm state",
}


def _diag(code: str, message: str, path: str, node: ast.AST) -> Diagnostic:
    return Diagnostic(
        code=code,
        severity=Severity.ERROR,
        message=message,
        span=f"{path}:{getattr(node, 'lineno', 0)}",
    )


def _functions(tree: ast.AST) -> Iterable[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.X`` → ``"X"``, else None."""
    chain = attr_chain(node)
    if chain is not None and len(chain) == 2 and chain[0] == "self":
        return chain[1]
    return None


# ---------------------------------------------------------------------------
# LINT001 — lock discipline around shared counters
# ---------------------------------------------------------------------------
def _with_holds_lock(node: ast.AST, lock_attrs: Set[str]) -> bool:
    """Whether a ``with`` item acquires one of the class's locks (or any
    lock-named object — module-level ``_FORK_LOCK`` style)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            if sub.attr in lock_attrs or "lock" in sub.attr.lower():
                return True
        elif isinstance(sub, ast.Name) and "lock" in sub.id.lower():
            return True
    return False


def _counter_targets(info: ClassInfo) -> Set[str]:
    """Attributes whose mutation must be locked: the int counters plus
    container counters (dict/list-of-int tallies built in __init__)."""
    targets = set(info.int_counters)
    init = next(
        (
            m
            for m in info.methods()
            if getattr(m, "name", None) == "__init__"
        ),
        None,
    )
    if init is None:
        return targets
    for node in ast.walk(init):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        attr = _self_attr(node.targets[0])
        if attr is None:
            continue
        value = node.value
        if isinstance(value, (ast.Dict, ast.DictComp, ast.List, ast.ListComp)):
            targets.add(attr)
        elif isinstance(value, ast.Call) and call_name(value.func) in {
            "dict",
            "list",
            "defaultdict",
            "Counter",
            "OrderedDict",
        }:
            targets.add(attr)
        elif isinstance(value, ast.BinOp) and isinstance(value.op, ast.Mult):
            targets.add(attr)  # the `[0] * workers` tally idiom
    return targets


def _scan_locked(
    body: Sequence[ast.stmt],
    locked: bool,
    lock_attrs: Set[str],
    on_unlocked: Callable[[ast.stmt], None],
) -> None:
    """Walk statements tracking whether a class lock is held lexically."""
    for stmt in body:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            inner = locked or any(
                _with_holds_lock(item.context_expr, lock_attrs)
                for item in stmt.items
            )
            _scan_locked(stmt.body, inner, lock_attrs, on_unlocked)
            continue
        if not locked and isinstance(stmt, ast.AugAssign):
            on_unlocked(stmt)
        for field_body in ("body", "orelse", "finalbody", "handlers"):
            sub = getattr(stmt, field_body, None)
            if not sub:
                continue
            if field_body == "handlers":
                for handler in sub:
                    _scan_locked(
                        handler.body, locked, lock_attrs, on_unlocked
                    )
            else:
                _scan_locked(sub, locked, lock_attrs, on_unlocked)


def rule_lint001(model: Model) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    # (a) in-class: counters of a lock-owning class mutate under its lock.
    for fm in model.files:
        for info in fm.classes:
            if not info.lock_attrs:
                continue
            counters = _counter_targets(info)
            for method in info.methods():
                if method.name == "__init__":
                    continue

                def flag(stmt: ast.stmt) -> None:
                    target = stmt.target
                    attr = _self_attr(target)
                    if attr is None and isinstance(target, ast.Subscript):
                        attr = _self_attr(target.value)
                    if attr in counters:
                        out.append(
                            _diag(
                                "LINT001",
                                f"{info.name}.{attr} is a shared counter "
                                f"guarded by {sorted(info.lock_attrs)}; "
                                f"mutation in {method.name}() is outside "
                                "the lock",
                                fm.path,
                                stmt,
                            )
                        )

                _scan_locked(method.body, False, info.lock_attrs, flag)
    # (b) cross-object: nobody reaches around another object's lock.
    for fm in model.files:
        for node in ast.walk(fm.tree):
            if not isinstance(node, ast.AugAssign):
                continue
            chain = attr_chain(node.target)
            if chain is None or len(chain) < 2 or chain[0] == "self":
                continue
            owners = model.guarded_counters.get(chain[-1])
            if owners:
                out.append(
                    _diag(
                        "LINT001",
                        f"direct mutation of {'.'.join(chain)} reaches "
                        f"around the lock of {sorted(owners)[0]}; add a "
                        "locked method on the owner instead",
                        fm.path,
                        node,
                    )
                )
    return out


# ---------------------------------------------------------------------------
# LINT002 — version-stamp bumps on mutation
# ---------------------------------------------------------------------------
_MUTATOR_METHODS = {
    "append",
    "extend",
    "insert",
    "add",
    "update",
    "clear",
    "pop",
    "popitem",
    "remove",
    "discard",
    "setdefault",
}


def _is_cacheish(attr: str) -> bool:
    return "cache" in attr or attr == "_version"


def _tainted_locals(method: ast.AST) -> Set[str]:
    """Local names bound from stored-data attributes of ``self`` (e.g.
    ``for store, v in zip(self._columns, values)`` taints ``store``)."""

    def self_data_ref(expr: ast.AST) -> bool:
        for sub in ast.walk(expr):
            attr = _self_attr(sub)
            if attr is not None and not _is_cacheish(attr):
                return True
        return False

    def names_of(target: ast.AST) -> Iterable[str]:
        for sub in ast.walk(target):
            if isinstance(sub, ast.Name):
                yield sub.id

    tainted: Set[str] = set()
    for node in ast.walk(method):
        if isinstance(node, ast.Assign) and self_data_ref(node.value):
            for target in node.targets:
                tainted.update(names_of(target))
        elif isinstance(node, (ast.For, ast.AsyncFor)) and self_data_ref(
            node.iter
        ):
            tainted.update(names_of(node.target))
    return tainted


def rule_lint002(model: Model) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for fm in model.files:
        for info in fm.classes:
            if not info.has_version_stamp:
                continue
            for method in info.methods():
                if method.name == "__init__":
                    continue
                tainted = _tainted_locals(method)
                mutations: List[ast.AST] = []
                bumps = False
                for node in ast.walk(method):
                    if isinstance(node, (ast.Assign, ast.AugAssign)):
                        targets = (
                            node.targets
                            if isinstance(node, ast.Assign)
                            else [node.target]
                        )
                        for target in targets:
                            if _self_attr(target) == "_version":
                                bumps = True
                            elif isinstance(target, ast.Subscript):
                                base = target.value
                                attr = _self_attr(base)
                                if attr is not None and not _is_cacheish(attr):
                                    mutations.append(node)
                                elif (
                                    isinstance(base, ast.Name)
                                    and base.id in tainted
                                ):
                                    mutations.append(node)
                    elif isinstance(node, ast.Call) and isinstance(
                        node.func, ast.Attribute
                    ):
                        if node.func.attr not in _MUTATOR_METHODS:
                            continue
                        receiver = node.func.value
                        attr = _self_attr(receiver)
                        if attr is not None and not _is_cacheish(attr):
                            mutations.append(node)
                        elif (
                            isinstance(receiver, ast.Name)
                            and receiver.id in tainted
                        ):
                            mutations.append(node)
                if mutations and not bumps:
                    out.append(
                        _diag(
                            "LINT002",
                            f"{info.name}.{method.name}() mutates stored "
                            "data but never bumps self._version; stamped "
                            "caches would serve stale results",
                            fm.path,
                            mutations[0],
                        )
                    )
    return out


# ---------------------------------------------------------------------------
# LINT003 — (uid, version) stamp pairing
# ---------------------------------------------------------------------------
def rule_lint003(model: Model) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for fm in model.files:
        for func in _functions(fm.tree):
            version_reads: List[ast.Attribute] = []
            has_uid = False
            for node in ast.walk(func):
                if not isinstance(node, ast.Attribute):
                    continue
                if isinstance(node.value, ast.Name) and node.value.id == "self":
                    continue  # self._version internals are the stamp source
                if node.attr == "version":
                    version_reads.append(node)
                elif node.attr == "uid":
                    has_uid = True
            if version_reads and not has_uid:
                out.append(
                    _diag(
                        "LINT003",
                        f"{func.name}() reads .version without the paired "
                        ".uid — a bare version aliases across re-created "
                        "same-name tables",
                        fm.path,
                        version_reads[0],
                    )
                )
    return out


# ---------------------------------------------------------------------------
# LINT004 — ExecutionBackend contract completeness
# ---------------------------------------------------------------------------
_BACKEND_ROOT = "ExecutionBackend"
_BACKEND_SURFACE = ("execute", "stats")


def rule_lint004(model: Model) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for fm in model.files:
        for info in fm.classes:
            if info.name == _BACKEND_ROOT or info.is_abstract:
                continue
            if not model.inherits_from(info, _BACKEND_ROOT):
                continue
            chain = model.ancestry(info)
            for required in _BACKEND_SURFACE:
                concrete = any(
                    required in a.method_names
                    and required not in a.abstract_methods
                    for a in chain
                )
                if not concrete:
                    out.append(
                        _diag(
                            "LINT004",
                            f"{info.name} is a concrete {_BACKEND_ROOT} "
                            f"without a {required}() implementation",
                            fm.path,
                            info.node,
                        )
                    )
            names_it = any(
                a.sets_instance_name for a in chain if a.name != _BACKEND_ROOT
            )
            if not names_it:
                out.append(
                    _diag(
                        "LINT004",
                        f"{info.name} never sets its engine name (class "
                        "attribute or self.name); stats and routing "
                        "reports would show 'abstract'",
                        fm.path,
                        info.node,
                    )
                )
    return out


# ---------------------------------------------------------------------------
# LINT005 — seeded-randomness discipline in synth sampling paths
# ---------------------------------------------------------------------------
_CLOCK_ATTRS = {
    "time": {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns"},
    "datetime": {"now", "utcnow", "today"},
    "os": {"urandom"},
    "uuid": {"uuid1", "uuid4"},
}


def _synth_scoped(path: str) -> bool:
    parts = path.replace("\\", "/").split("/")
    return "synth" in parts


def rule_lint005(model: Model) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for fm in model.files:
        if not _synth_scoped(fm.path):
            continue
        module_aliases: Dict[str, str] = {}  # local alias -> module name
        from_random: Set[str] = set()
        for node in ast.walk(fm.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    module_aliases[alias.asname or root] = root
            elif isinstance(node, ast.ImportFrom) and node.module:
                root = node.module.split(".")[0]
                if root == "random":
                    for alias in node.names:
                        from_random.add(alias.asname or alias.name)
        for node in ast.walk(fm.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            if chain is not None and len(chain) >= 2:
                module = module_aliases.get(chain[0])
                if module == "random":
                    if not (chain[-1] == "Random" and node.args):
                        out.append(
                            _diag(
                                "LINT005",
                                f"{'.'.join(chain)}() draws from the "
                                "process-global RNG; use make_rng(seed, "
                                "label) so scenarios stay seed-"
                                "deterministic",
                                fm.path,
                                node,
                            )
                        )
                elif module in _CLOCK_ATTRS and chain[-1] in _CLOCK_ATTRS[module]:
                    out.append(
                        _diag(
                            "LINT005",
                            f"{'.'.join(chain)}() injects wall-clock/"
                            "entropy nondeterminism into a sampling path",
                            fm.path,
                            node,
                        )
                    )
                elif module == "numpy" and "random" in chain:
                    if not (chain[-1] == "default_rng" and node.args):
                        out.append(
                            _diag(
                                "LINT005",
                                f"{'.'.join(chain)}() uses numpy's global "
                                "or unseeded RNG in a sampling path",
                                fm.path,
                                node,
                            )
                        )
            elif isinstance(node.func, ast.Name) and node.func.id in from_random:
                if not (node.func.id == "Random" and node.args):
                    out.append(
                        _diag(
                            "LINT005",
                            f"{node.func.id}() came from the random module "
                            "unseeded; use make_rng(seed, label)",
                            fm.path,
                            node,
                        )
                    )
    return out


# ---------------------------------------------------------------------------
# LINT006 — copy-on-write warm state stays immutable in worker units
# ---------------------------------------------------------------------------
#: Functions/classes whose bodies run inside pool workers (forked children
#: or pool threads) against the fork-shipped warm state.
WORKER_UNIT_SCOPES = {
    "_WorkerCore",
    "_ShardWorker",
    "_fork_worker_main",
    "_thread_main",
    "_fork_task_main",
    "_run_shard",
}

#: Names that carry the warm state into worker scopes.
_WARM_NAMES = {"adb", "backend", "db"}

_WARM_MUTATORS = _MUTATOR_METHODS | {
    "insert_dict",
    "bulk_load",
    "create_table",
    "drop_table",
}


def _warm_rooted(chain: Optional[List[str]]) -> bool:
    if chain is None:
        return False
    if chain[0] == "self":
        return len(chain) > 2 and chain[1] in _WARM_NAMES
    return len(chain) > 1 and chain[0] in _WARM_NAMES


def _warm_in_expr(expr: ast.AST) -> bool:
    for sub in ast.walk(expr):
        chain = attr_chain(sub)
        if chain is None:
            continue
        if chain[0] == "self" and len(chain) >= 2 and chain[1] in _WARM_NAMES:
            return True
        if chain[0] in _WARM_NAMES and len(chain) >= 1:
            return True
    return False


def rule_lint006(model: Model) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for fm in model.files:
        scopes: List[ast.AST] = []
        for node in ast.walk(fm.tree):
            if (
                isinstance(
                    node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
                )
                and node.name in WORKER_UNIT_SCOPES
            ):
                scopes.append(node)
        for scope in scopes:
            for node in ast.walk(scope):
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        base = (
                            target.value
                            if isinstance(target, ast.Subscript)
                            else target
                        )
                        if _warm_rooted(attr_chain(base)):
                            out.append(
                                _diag(
                                    "LINT006",
                                    "worker unit writes into fork-shipped "
                                    "warm state; copy-on-write pages would "
                                    "silently diverge from the parent",
                                    fm.path,
                                    node,
                                )
                            )
                elif isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute
                ):
                    if node.func.attr not in _WARM_MUTATORS:
                        continue
                    receiver = node.func.value
                    if _warm_rooted(attr_chain(receiver)) or (
                        attr_chain(receiver) is None
                        and _warm_in_expr(receiver)
                    ):
                        out.append(
                            _diag(
                                "LINT006",
                                f"worker unit calls .{node.func.attr}() on "
                                "fork-shipped warm state; mutation must "
                                "happen in the parent (which restarts "
                                "pools on change)",
                                fm.path,
                                node,
                            )
                        )
    return out


ALL_RULES: List[Callable[[Model], List[Diagnostic]]] = [
    rule_lint001,
    rule_lint002,
    rule_lint003,
    rule_lint004,
    rule_lint005,
    rule_lint006,
]
