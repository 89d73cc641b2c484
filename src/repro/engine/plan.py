"""Query planning: declared column sets and predicate pushdown.

The paper's analyses are narrow projections — load intensity touches
timestamps and op flags, spatial locality touches offsets, update
intervals touch offsets and timestamps — yet without a plan every
analyzer receives every column of every chunk.  A :class:`QueryPlan`
captures, per run, the union of what the analyzers actually need:

* **columns** — the union of each analyzer's declared
  ``required_columns`` (plus whatever the predicate below must read).
  The store reader then maps only those ``.npy`` segments and
  text-path chunks prune the rest, so an analyzer touching an
  undeclared column fails loudly
  (:class:`~repro.engine.chunks.ColumnPrunedError`) instead of silently
  widening its footprint.
* **predicate** — a :class:`RowPredicate` (time window, volume set, op
  kind) pushed down the data path: the store skips whole entries and
  chunks its zone maps prove disjoint, and both paths mask surviving
  chunks row-wise.

The **pruned-equals-filtered contract**: for any predicate, a pruned
run produces results bit-identical to an unpruned run over the
pre-filtered rows, at any worker count and chunk size.  Pruning only
ever removes rows the predicate excludes and columns no analyzer
declared — never reorders, never rebatches per-volume row streams.

This module is pure planning — no I/O, no chunk types — so both the
engine and the store import it without cycles.  Plans and predicates
are small frozen (picklable) values that travel to pool workers next to
the analyzers.

Analyzers opt in by exposing an optional ``required_columns``
attribute — an iterable of column names out of :data:`ALL_COLUMNS`, or
``None`` for all columns (absence means "everything", which keeps
pre-plan analyzers working unchanged).  Read it through
:func:`analyzer_columns` rather than ``getattr`` so validation stays in
one place.  The run-level :class:`RowPredicate` is the one row filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional, Tuple

import numpy as np

__all__ = [
    "ALL_COLUMNS",
    "CORE_COLUMNS",
    "OP_READ",
    "OP_WRITE",
    "RowPredicate",
    "QueryPlan",
    "analyzer_columns",
    "plan_for",
]

#: Columns every chunk carries (in canonical order).
CORE_COLUMNS: Tuple[str, ...] = ("timestamps", "offsets", "sizes", "is_write")
#: All plannable column names, canonical order (``response_times`` is
#: optional per trace format).
ALL_COLUMNS: Tuple[str, ...] = CORE_COLUMNS + ("response_times",)

#: ``RowPredicate.op`` values.
OP_READ = "read"
OP_WRITE = "write"


@dataclass(frozen=True)
class RowPredicate:
    """A conjunctive row filter: time window AND volume set AND op kind.

    Attributes:
        since: keep rows with ``timestamp >= since`` (None: unbounded).
        until: keep rows with ``timestamp < until`` (None: unbounded).
            The half-open ``[since, until)`` window matches
            :func:`repro.trace.filters.filter_time_range`.
        volumes: keep rows of these volume ids only (None: all volumes).
            Normalized to a sorted, deduplicated tuple; an *empty* tuple
            is a valid predicate that selects nothing.
        op: ``"read"`` / ``"write"`` to keep one op kind (None: both).
    """

    since: Optional[float] = None
    until: Optional[float] = None
    volumes: Optional[Tuple[str, ...]] = None
    op: Optional[str] = None

    def __post_init__(self) -> None:
        if self.op is not None and self.op not in (OP_READ, OP_WRITE):
            raise ValueError(f"op must be {OP_READ!r} or {OP_WRITE!r}, got {self.op!r}")
        if self.since is not None:
            object.__setattr__(self, "since", float(self.since))
        if self.until is not None:
            object.__setattr__(self, "until", float(self.until))
        if self.volumes is not None:
            object.__setattr__(
                self, "volumes", tuple(sorted({str(v) for v in self.volumes}))
            )

    # -- structure ---------------------------------------------------------

    def is_null(self) -> bool:
        """True when this predicate matches every row."""
        return (
            self.since is None
            and self.until is None
            and self.volumes is None
            and self.op is None
        )

    @property
    def needs_timestamps(self) -> bool:
        return self.since is not None or self.until is not None

    @property
    def needs_ops(self) -> bool:
        return self.op is not None

    def columns_needed(self) -> Tuple[str, ...]:
        """Columns that must be materialized to evaluate the row mask."""
        needed = []
        if self.needs_timestamps:
            needed.append("timestamps")
        if self.needs_ops:
            needed.append("is_write")
        return tuple(needed)

    # -- evaluation --------------------------------------------------------

    def allows_volume(self, volume_id: str) -> bool:
        return self.volumes is None or volume_id in self.volumes

    def row_mask(
        self,
        timestamps: Optional[np.ndarray],
        is_write: Optional[np.ndarray],
    ) -> Optional[np.ndarray]:
        """Boolean keep-mask over one batch, or None when all rows pass.

        Evaluates the time-window and op parts only (the volume part is
        per-chunk, see :meth:`allows_volume`); pass the arrays named by
        :meth:`columns_needed`, None for the rest.
        """
        mask: Optional[np.ndarray] = None
        if self.since is not None:
            assert timestamps is not None
            mask = timestamps >= self.since
        if self.until is not None:
            assert timestamps is not None
            part = timestamps < self.until
            mask = part if mask is None else mask & part
        if self.op is not None:
            assert is_write is not None
            part = np.asarray(is_write) if self.op == OP_WRITE else ~np.asarray(is_write)
            mask = part if mask is None else mask & part
        return mask

    # -- zone-map pruning (statistics, not rows) ---------------------------

    def overlaps_window(self, min_ts: float, max_ts: float) -> bool:
        """Could any row in a span with this timestamp range match?"""
        if self.until is not None and min_ts >= self.until:
            return False
        if self.since is not None and max_ts < self.since:
            return False
        return True

    def matches_op_mix(self, n_rows: int, n_writes: int) -> bool:
        """Could any row in a span with this op mix match the op filter?"""
        if self.op == OP_WRITE:
            return n_writes > 0
        if self.op == OP_READ:
            return n_rows - n_writes > 0
        return True


@dataclass(frozen=True)
class QueryPlan:
    """What one engine run needs from the data path.

    Attributes:
        columns: the union of every analyzer's declared columns plus
            whatever the predicate must read, as a canonically-ordered
            tuple; ``None`` means all columns (no pruning).
        predicate: the pushed-down row filter shared by the whole run;
            ``None`` means serve every row.
    """

    columns: Optional[Tuple[str, ...]] = None
    predicate: Optional[RowPredicate] = None

    def __post_init__(self) -> None:
        if self.columns is not None:
            names = {str(c) for c in self.columns}
            unknown = names - set(ALL_COLUMNS)
            if unknown:
                raise ValueError(
                    f"unknown column(s) {sorted(unknown)}; expected a subset of {ALL_COLUMNS}"
                )
            if names == set(ALL_COLUMNS):
                object.__setattr__(self, "columns", None)
            else:
                object.__setattr__(
                    self, "columns", tuple(c for c in ALL_COLUMNS if c in names)
                )
        if self.predicate is not None and self.predicate.is_null():
            object.__setattr__(self, "predicate", None)

    def is_noop(self) -> bool:
        """True when this plan neither prunes columns nor filters rows."""
        return self.columns is None and self.predicate is None

    def wants(self, column: str) -> bool:
        """Should served chunks carry ``column``?"""
        return self.columns is None or column in self.columns

    def load_columns(self) -> Optional[Tuple[str, ...]]:
        """Columns the reader must materialize: the served set plus the
        predicate's inputs (canonical order); None means all."""
        if self.columns is None:
            return None
        needed = set(self.columns)
        if self.predicate is not None:
            needed.update(self.predicate.columns_needed())
        return tuple(c for c in ALL_COLUMNS if c in needed)


def analyzer_columns(analyzer: Any) -> Optional[Tuple[str, ...]]:
    """An analyzer's declared ``required_columns`` (canonical order), or
    None when it declares nothing (= needs everything, the back-compat
    default for analyzers written before query planning)."""
    declared = getattr(analyzer, "required_columns", None)
    if declared is None:
        return None
    names = {str(c) for c in declared}
    unknown = names - set(ALL_COLUMNS)
    if unknown:
        raise ValueError(
            f"analyzer {getattr(analyzer, 'name', analyzer)!r} declares unknown "
            f"column(s) {sorted(unknown)}; expected a subset of {ALL_COLUMNS}"
        )
    return tuple(c for c in ALL_COLUMNS if c in names)


def plan_for(
    analyzers: Iterable[Any], predicate: Optional[RowPredicate] = None
) -> Optional[QueryPlan]:
    """The plan of one run: what to load, what to push down.

    * ``columns``: the union of every analyzer's declaration plus the
      predicate's inputs; one undeclared analyzer widens it to all.
    * ``predicate``: the run-level ``predicate``, pushed down as is.

    Returns None when there is nothing to plan (every column needed, no
    predicate) — callers then skip plan plumbing entirely.
    """
    analyzers = list(analyzers)
    column_sets = [analyzer_columns(a) for a in analyzers]
    if predicate is not None and predicate.is_null():
        predicate = None

    columns: Optional[Tuple[str, ...]] = None
    if analyzers and all(cols is not None for cols in column_sets):
        needed = set()
        for cols in column_sets:
            needed.update(cols or ())
        if predicate is not None:
            needed.update(predicate.columns_needed())
        columns = tuple(c for c in ALL_COLUMNS if c in needed)

    if columns is None and predicate is None:
        return None
    return QueryPlan(columns=columns, predicate=predicate)
