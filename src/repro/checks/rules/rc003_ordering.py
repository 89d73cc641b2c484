"""RC003 — no unordered iteration in merge paths.

The engine guarantees bit-identical results at any worker count by
merging partial states **in sorted unit order** and iterating
deterministic structures.  A ``for x in set(...)`` inside
``Analyzer.consume`` / ``merge`` / ``finalize`` or the metrics
``snapshot`` / ``merge_snapshot`` paths reintroduces hash-order
dependence: the set's iteration order varies with insertion history (and,
for strings, with ``PYTHONHASHSEED``), so floating-point accumulation and
tie-breaking can drift between runs.  Wrap the iterable in ``sorted(...)``
or keep an ordered structure instead.  Plain ``dict`` iteration is *not*
flagged — insertion order is deterministic when the inserts are — but
sets and frozensets always are.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..finding import Finding
from ..registry import Module, Rule, register
from .common import MERGE_SCOPE_NAMES, iter_scope_functions

__all__ = ["UnorderedMergeIterationRule"]

#: Wrappers that make iteration order irrelevant or explicit.
_ORDERING = frozenset({"sorted"})
#: Wrappers that pass their first argument's order straight through.
_TRANSPARENT = frozenset({"enumerate", "list", "tuple", "reversed", "iter"})
#: Constructors whose result iterates in hash order.
_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})
#: Set methods whose result iterates in hash order.
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)
#: Binary operators that combine sets into sets.
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def _is_set_producing(expr: ast.AST) -> bool:
    """Evidently produces a set (or dict keys view, which ops into a set)."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        if isinstance(expr.func, ast.Name) and expr.func.id in _SET_CONSTRUCTORS:
            return True
        if isinstance(expr.func, ast.Attribute) and expr.func.attr in (
            _SET_METHODS | {"keys"}
        ):
            return True
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, _SET_OPS):
        return _is_set_producing(expr.left) or _is_set_producing(expr.right)
    return False


def _unordered_iterable(expr: ast.AST) -> Optional[str]:
    """Why ``expr`` iterates in hash order, or None when it is safe."""
    while isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        name = expr.func.id
        if name in _ORDERING:
            return None
        if name in _TRANSPARENT and expr.args:
            expr = expr.args[0]
            continue
        if name in _SET_CONSTRUCTORS:
            return f"{name}(...) iterates in hash order"
        break
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return "set literal iterates in hash order"
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and expr.func.attr in _SET_METHODS
    ):
        return f".{expr.func.attr}(...) returns a set (hash order)"
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, _SET_OPS):
        # dict | dict merges stay ordered; flag only when a side is
        # evidently a set (or a keys view, whose set-ops yield sets).
        if _is_set_producing(expr.left) or _is_set_producing(expr.right):
            return "set arithmetic yields a set (hash order)"
    return None


@register
class UnorderedMergeIterationRule(Rule):
    id = "RC003"
    description = "merge paths must iterate deterministically ordered structures"
    severity = "error"
    hint = "wrap the iterable in sorted(...) or accumulate into an ordered structure"

    def check(self, module: Module) -> Iterator[Finding]:
        for func in iter_scope_functions(module.nodes, MERGE_SCOPE_NAMES):
            for node in ast.walk(func):
                iters = []
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iters.append(node.iter)
                elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                    iters.extend(gen.iter for gen in node.generators)
                for it in iters:
                    reason = _unordered_iterable(it)
                    if reason is not None:
                        yield module.finding(
                            self, it,
                            f"iteration over an unordered structure in "
                            f"{func.name}(): {reason}",
                        )
