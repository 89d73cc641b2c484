"""RC005 — no silently swallowed exceptions.

A malformed trace row that raises inside an analyzer must surface, not
vanish: TraceTracker-style silent divergence (a pipeline that "works" on
corrupt input) invalidates every downstream number.  This rule flags

* bare ``except:`` anywhere (it catches ``KeyboardInterrupt`` and
  ``SystemExit`` too), and
* ``except Exception:`` / ``except BaseException:`` handlers whose body
  is only ``pass`` / ``...`` — the classic swallow.

Handlers that *do* something (log, count, re-raise, fall back with
``continue`` at a designated chunk-fallback site) are not flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..finding import Finding
from ..registry import Module, Rule, register

__all__ = ["SwallowedExceptionRule"]

_BROAD = frozenset({"Exception", "BaseException"})


def _body_is_noop(body) -> bool:
    return all(
        isinstance(stmt, ast.Pass)
        or (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        )
        for stmt in body
    )


@register
class SwallowedExceptionRule(Rule):
    id = "RC005"
    description = "exceptions must not be silently swallowed"
    severity = "error"
    hint = (
        "catch the narrowest exception that can actually occur, and handle "
        "it (log / count / fall back) rather than pass"
    )

    def check(self, module: Module) -> Iterator[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield module.finding(
                    self, node,
                    "bare except: catches everything, including "
                    "KeyboardInterrupt and SystemExit",
                )
            elif (
                isinstance(node.type, ast.Name)
                and node.type.id in _BROAD
                and _body_is_noop(node.body)
            ):
                yield module.finding(
                    self, node,
                    f"except {node.type.id}: pass swallows malformed-input "
                    "errors silently",
                )
