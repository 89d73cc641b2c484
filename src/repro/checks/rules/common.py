"""Shared AST helpers for the rule pack."""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterable, Iterator, Tuple, Union

__all__ = [
    "FunctionNode",
    "LOCK_CONSTRUCTORS",
    "MERGE_SCOPE_NAMES",
    "STATE_SCOPE_NAMES",
    "attribute_chain",
    "iter_scope_functions",
    "iter_state_classes",
    "walk_skipping_calls",
]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Canonical names of synchronization-primitive constructors whose results
#: cannot cross the process pool (shared by RC004 and the project model).
LOCK_CONSTRUCTORS: FrozenSet[str] = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Event",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "multiprocessing.Lock",
        "multiprocessing.RLock",
    }
)

#: Function names that form the engine's deterministic merge paths — the
#: :class:`repro.engine.analyzer.Analyzer` fold operations plus the
#: metrics snapshot/merge pair workers use to ship counters home.
MERGE_SCOPE_NAMES: FrozenSet[str] = frozenset(
    {"consume", "merge", "finalize", "merge_snapshot", "snapshot"}
)

#: Function names whose return values / mutations cross the process pool
#: and therefore must stay picklable.
STATE_SCOPE_NAMES: FrozenSet[str] = frozenset({"init_state", "consume", "merge"})


def iter_scope_functions(
    nodes: Iterable[ast.AST], names: FrozenSet[str]
) -> Iterator[FunctionNode]:
    """Every (sync or async) function in ``nodes`` whose name is in ``names``."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in names:
            yield node


def iter_state_classes(nodes: Iterable[ast.AST]) -> Iterator[ast.ClassDef]:
    """Classes named ``*State`` — the conventional analyzer-state carriers."""
    for node in nodes:
        if isinstance(node, ast.ClassDef) and node.name.endswith("State"):
            yield node


def walk_skipping_calls(expr: ast.AST) -> Iterator[ast.AST]:
    """Walk an expression tree without descending into call arguments.

    Used to spot unpicklables *structurally embedded* in a returned value
    (``return {"f": lambda: 0}``) while ignoring short-lived ones consumed
    by a call on the way out (``return sorted(xs, key=lambda x: x[0])``).
    """
    yield expr
    if isinstance(expr, ast.Call):
        return
    for child in ast.iter_child_nodes(expr):
        yield from walk_skipping_calls(child)


def attribute_chain(node: ast.AST) -> Tuple[str, ...]:
    """The dotted parts of a ``Name``/``Attribute`` chain, outermost last."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return tuple(reversed(parts))
