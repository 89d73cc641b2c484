"""Shared AST helpers for the rule pack."""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterable, Iterator, Tuple, Union

__all__ = [
    "FunctionNode",
    "MERGE_SCOPE_NAMES",
    "attribute_chain",
    "iter_scope_functions",
]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Function names that form the engine's deterministic merge paths — the
#: :class:`repro.engine.analyzer.Analyzer` fold operations plus the
#: metrics snapshot/merge pair workers use to ship counters home.
MERGE_SCOPE_NAMES: FrozenSet[str] = frozenset(
    {"consume", "merge", "finalize", "merge_snapshot", "snapshot"}
)


def iter_scope_functions(
    nodes: Iterable[ast.AST], names: FrozenSet[str]
) -> Iterator[FunctionNode]:
    """Every (sync or async) function in ``nodes`` whose name is in ``names``."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in names:
            yield node


def attribute_chain(node: ast.AST) -> Tuple[str, ...]:
    """The dotted parts of a ``Name``/``Attribute`` chain, outermost last."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return tuple(reversed(parts))
