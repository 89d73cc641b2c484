"""RC004 — analyzer/metrics state must be picklable.

Analyzer state objects and metrics snapshots cross the process pool:
``init_state`` results are folded in workers, partial states ship back to
the parent, and :func:`repro.engine.runner.parallel_map` pickles bound
functions.  A lambda, nested-closure, lock, open file handle, or live
generator stored on such state dies inside :mod:`pickle` at fan-out time
— usually only when ``--workers > 1``, which is exactly when nobody is
looking.

Scope: functions named ``init_state`` / ``consume`` / ``merge`` anywhere,
plus every method of classes named ``*State``.  Flagged there:

* lambdas / generator expressions assigned to object attributes;
* ``open(...)`` results or synchronization primitives
  (``threading.Lock`` & co.) assigned to object attributes;
* synchronization-primitive construction anywhere in scope;
* ``init_state`` returning a value with a lambda / generator expression
  structurally embedded (call arguments are not descended into, so
  ``sorted(key=lambda …)`` stays legal).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Union

from ..finding import Finding
from ..registry import Module, Rule, register
from .common import (
    LOCK_CONSTRUCTORS,
    STATE_SCOPE_NAMES,
    FunctionNode,
    iter_scope_functions,
    iter_state_classes,
    walk_skipping_calls,
)

__all__ = ["UnpicklableStateRule"]

_LOCK_CONSTRUCTORS = LOCK_CONSTRUCTORS

_EMBEDDED_UNPICKLABLE = (ast.Lambda, ast.GeneratorExp)


def _unpicklable_value(module: Module, value: ast.AST) -> Optional[str]:
    """Why ``value`` cannot cross the pool, or None."""
    if isinstance(value, ast.Lambda):
        return "a lambda (unpicklable)"
    if isinstance(value, ast.GeneratorExp):
        return "a live generator (unpicklable)"
    if isinstance(value, ast.Call):
        qualname = module.imports.resolve(value.func)
        if qualname in _LOCK_CONSTRUCTORS:
            return f"a {qualname}() (unpicklable synchronization primitive)"
        if isinstance(value.func, ast.Name) and value.func.id == "open":
            return "an open file handle (unpicklable)"
    return None


@register
class UnpicklableStateRule(Rule):
    id = "RC004"
    description = "state crossing the process pool must be picklable"
    severity = "error"
    hint = (
        "keep state to plain data (numbers, strings, dicts, arrays, "
        "dataclasses); hold module-level functions instead of lambdas and "
        "reopen files inside the worker"
    )

    def check(self, module: Module) -> Iterator[Finding]:
        seen: Set[int] = set()
        scopes: List[Union[FunctionNode, ast.ClassDef]] = list(
            iter_scope_functions(module.nodes, STATE_SCOPE_NAMES)
        )
        for cls in iter_state_classes(module.nodes):
            scopes.extend(
                n for n in cls.body
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
            scopes.append(cls)
        for scope in scopes:
            if id(scope) in seen:
                continue
            seen.add(id(scope))
            yield from self._check_scope(module, scope)

    def _check_scope(
        self, module: Module, scope: Union[FunctionNode, ast.ClassDef]
    ) -> Iterator[Finding]:
        scope_name = scope.name
        if isinstance(scope, ast.ClassDef):
            # Methods are checked as their own scopes; walk only the
            # class-level statements here to avoid duplicate findings.
            nodes = [
                n
                for stmt in scope.body
                if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                for n in ast.walk(stmt)
            ]
        else:
            nodes = list(ast.walk(scope))
        for node in nodes:
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                value = node.value
                if value is None or not any(
                    isinstance(t, ast.Attribute) for t in targets
                ):
                    continue
                reason = _unpicklable_value(module, value)
                if reason is not None:
                    yield module.finding(
                        self, value,
                        f"attribute assignment in {scope_name} stores {reason}",
                    )
            elif isinstance(node, ast.Call):
                qualname = module.imports.resolve(node.func)
                if qualname in _LOCK_CONSTRUCTORS:
                    yield module.finding(
                        self, node,
                        f"{qualname}() constructed in {scope_name} — "
                        "synchronization primitives cannot cross the pool",
                    )
            elif (
                isinstance(node, ast.Return)
                and node.value is not None
                and isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
                and scope.name == "init_state"
            ):
                for sub in walk_skipping_calls(node.value):
                    if isinstance(sub, _EMBEDDED_UNPICKLABLE):
                        kind = (
                            "a lambda" if isinstance(sub, ast.Lambda)
                            else "a live generator"
                        )
                        yield module.finding(
                            self, sub,
                            f"init_state returns state embedding {kind} — it "
                            "will fail to pickle at fan-out",
                        )
