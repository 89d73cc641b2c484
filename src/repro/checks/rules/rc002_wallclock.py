"""RC002 — no wall-clock reads in pure analysis paths.

Analyzer folds, statistics, and cache simulations must be functions of
their *inputs*; a ``time.time()`` or ``datetime.now()`` in a pure path
makes results depend on when the run happened, which silently breaks the
bit-identical-at-any-``--workers`` guarantee.  Observability modules are
allowlisted by default (``*/obs/*``) — timing *measurement* is their job
— and monotonic clocks (``time.perf_counter`` / ``time.monotonic``) are
not flagged anywhere, because instrumented durations never feed analysis
results.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..finding import Finding
from ..registry import Module, Rule, register

__all__ = ["WallClockRule"]

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.ctime",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@register
class WallClockRule(Rule):
    id = "RC002"
    description = "pure analysis paths must not read the wall clock"
    severity = "error"
    hint = (
        "derive timestamps from trace data; for instrumentation use "
        "time.perf_counter via repro.obs, which is allowlisted"
    )
    default_exclude = ("*/obs/*",)

    def check(self, module: Module) -> Iterator[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            qualname = module.imports.resolve(node.func)
            if qualname in _WALL_CLOCK:
                yield module.finding(
                    self, node,
                    f"wall-clock read {qualname}() makes this path's output "
                    "depend on when it ran",
                )
