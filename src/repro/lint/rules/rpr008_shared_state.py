"""RPR008: module-level mutable state written at runtime in library code.

Pool workers get a *copy* of every imported module (fork) or a freshly
re-imported one (spawn).  A module-level global that is mutated at runtime
therefore diverges silently between parent and workers: counters undercount,
caches miss, and — worst for this reproduction — anything feeding results or
RNG state through such a global becomes dependent on worker count.  The
process-local ``_STATS`` drift in ``repro.experiments.parallel`` is the
canonical in-tree example.

Any library module can end up imported inside a worker, so the rule checks
every one of them.  It reports each module-level global that is rebound via
a ``global`` statement or mutated in place (attribute / subscript stores,
``AugAssign``, mutating method calls) inside a function of its module.  One
diagnostic per global, anchored at its *definition*, so a single justified
suppression allowlists a deliberately process-local value.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import FileContext
from repro.lint.rules import Rule

__all__ = ["SharedMutableStateRule"]

#: Method names that mutate their receiver in place.
_MUTATORS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "clear", "sort", "reverse",
        "add", "discard", "update", "setdefault", "popitem",
    }
)

_MUTABLE_VALUES = (
    ast.Dict,
    ast.List,
    ast.Set,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.Call,
)

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _root_name(node: ast.expr) -> str:
    """Leftmost ``Name`` of an attribute/subscript chain (``_STATS.retries``)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else ""


def _module_globals(tree: ast.Module) -> dict[str, ast.stmt]:
    """Names bound at module top level -> the statement that binds them."""
    bound: dict[str, ast.stmt] = {}
    for statement in tree.body:
        if isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name):
                    bound[target.id] = statement
        elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
            bound[statement.target.id] = statement
    return bound


def _local_bindings(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names bound locally in ``fn`` (they shadow module globals)."""
    args = fn.args
    bound = {
        arg.arg
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)
    }
    if args.vararg:
        bound.add(args.vararg.arg)
    if args.kwarg:
        bound.add(args.kwarg.arg)
    declared_global: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound.add(node.target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for name_node in ast.walk(node.target):
                if isinstance(name_node, ast.Name):
                    bound.add(name_node.id)
    return bound - declared_global


class SharedMutableStateRule(Rule):
    code = "RPR008"
    name = "shared-state"
    summary = (
        "module-level mutable globals must not be written at runtime in "
        "library code, which pool workers import"
    )
    invariant = (
        "Worker processes see a fork-time copy (or spawn-time re-import) of "
        "every module, so writes to module-level globals are process-local: "
        "parent and workers silently diverge, and any result or RNG state "
        "routed through such a global varies with worker count.  Mutable "
        "library globals must be read-only after import, or carry a "
        "justified suppression documenting their process-local semantics."
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not ctx.is_library:
            return
        module_globals = _module_globals(ctx.tree)
        mutable = {
            name: statement
            for name, statement in module_globals.items()
            if self._is_mutable_definition(statement)
        }
        writes: dict[str, tuple[int, str]] = {}  # global -> (line, description)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, _FUNCTION_NODES):
                continue
            locals_ = _local_bindings(node)
            for name, line, kind in self._writes_in(node, locals_):
                if name not in module_globals:
                    continue
                if kind != "global-rebind" and name not in mutable:
                    continue
                previous = writes.get(name)
                if previous is None or line < previous[0]:
                    writes[name] = (line, f"{kind} in {node.name}() line {line}")
        for name in sorted(writes):
            line, description = writes[name]
            yield ctx.diagnostic(
                module_globals[name],
                self.code,
                f"module-level global '{name}' in library module "
                f"'{ctx.module}' is written at runtime ({description}); "
                "workers mutate their own process-local copy, so state "
                "silently diverges with worker count — pass state through "
                "task payloads/results, or suppress with a justification "
                "documenting the parent-only semantics",
            )

    def _is_mutable_definition(self, statement: ast.stmt) -> bool:
        value = getattr(statement, "value", None)
        return isinstance(value, _MUTABLE_VALUES)

    def _writes_in(
        self, fn: ast.FunctionDef | ast.AsyncFunctionDef, locals_: set[str]
    ) -> Iterator[tuple[str, int, str]]:
        """(name, line, kind) for every candidate global write inside ``fn``."""
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                for name in node.names:
                    yield name, node.lineno, "global-rebind"
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        name = _root_name(target)
                        if name and name not in locals_:
                            yield name, node.lineno, "in-place store"
            elif isinstance(node, ast.AugAssign):
                if isinstance(node.target, (ast.Attribute, ast.Subscript)):
                    name = _root_name(node.target)
                    if name and name not in locals_:
                        yield name, node.lineno, "augmented store"
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in _MUTATORS:
                    name = _root_name(node.func.value)
                    if name and name not in locals_:
                        yield name, node.lineno, f".{node.func.attr}() call"
