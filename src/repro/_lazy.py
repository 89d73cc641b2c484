"""Lazy package roots (PEP 562).

A package root re-exports its public names without importing the
modules that define them: the first access of a name imports its module
and caches the value in the package namespace, so later accesses are
plain attribute reads.  Importing one leaf module therefore no longer
loads all of its siblings.

Each root keeps its static imports in an ``if TYPE_CHECKING:`` block (the
one import path type checkers and the RC006 lint read) and hands the same
table to :func:`lazy_exports`::

    if TYPE_CHECKING:
        from . import ledger
        from .dataset import TraceDataset, VolumeTrace
        from .tracing import disable as disable_tracing

    __getattr__, __dir__ = lazy_exports(__name__, {
        ".": ("ledger",),
        ".dataset": ("TraceDataset", "VolumeTrace"),
        ".tracing": ("disable as disable_tracing",),
    })

Each key is the relative module of one ``from <key> import ...`` line and
each entry a name, or ``"attr as name"``, exactly as that line spells it.
A key of dots alone (``from . import ledger``) names submodules.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


def _absolute(module: str, package: str) -> str:
    """Absolute name of the relative module ``module`` (``..x.y``) in ``package``."""
    rest = module.lstrip(".")
    level = len(module) - len(rest)
    base = package.rsplit(".", level - 1)[0] if level > 1 else package
    return f"{base}.{rest}" if rest else base


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """Module ``__getattr__`` and ``__dir__`` resolving ``table`` on first access.

    The returned ``__getattr__`` carries the flattened table as its
    ``exports`` attribute: ``{public name: (absolute module, attribute)}``,
    with an empty attribute for a submodule itself.  A resolved value is
    cached in the package namespace, so each name pays the lookup once.
    Modules load through ``__import__``, so ``python -X importtime``
    reports them like any other import.
    """
    exports: Dict[str, Tuple[str, str]] = {}
    for module, names in table.items():
        base = _absolute(module, package)
        for entry in names:
            attr, _, public = entry.partition(" as ")
            if module.strip("."):
                exports[public or attr] = (base, attr)
            else:
                exports[public or attr] = (f"{base}.{attr}", "")
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        try:
            module, attr = exports[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        __import__(module)
        value = sys.modules[module]
        if attr:
            value = getattr(value, attr)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    __getattr__.exports = exports  # type: ignore[attr-defined]
    return __getattr__, __dir__
