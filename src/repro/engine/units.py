"""Cost-aware work units: split big files so stragglers stop serializing runs.

The engine's historical unit of work is one trace file.  On skewed
directories (the fleet norm — the paper's volumes differ by orders of
magnitude) that makes parallel wall-clock proportional to the *largest
file*, not the total work: every other worker idles while one chews the
4.8M-row straggler.  This module plans finer units:

* **warm (store-backed) files** larger than ``split_rows`` become
  ``rows``-kind :class:`WorkUnit` sub-units over manifest row ranges,
  carved on zone-map span boundaries
  (:func:`repro.store.manifest.aligned_row_splits`) so zone pruning over
  a sub-unit stays as tight as over whole-file chunks;
* **cold text files** split on byte offsets snapped to line boundaries
  by a cheap binary pre-scan (``bytes`` kind, carrying the global line
  number of the range's first line so header handling, fault injection,
  and error messages stay byte-identical to a whole-file parse);
* everything else (small files, ``.gz`` streams, unreadable paths)
  stays a plain ``str`` path — labels, checkpoint keys, and behavior
  unchanged from unsplit runs.

Each unit carries a **cost estimate** for longest-processing-time-first
dispatch: manifest row counts for warm units, byte lengths for cold ones
(cold parsing is far more expensive per row, so bytes-vs-rows also
biases mixed runs the right way).  ``engine.units_split`` counts the
extra sub-units created and ``engine.unit_cost_estimate`` records every
unit's estimate.

Determinism: results are merged in canonical (file, range) order no
matter how units are dispatched, so splitting never reorders any
per-volume row stream.  See DESIGN.md ("Execution backends &
scheduling") for the exact contract — including the one caveat for
capacity-bounded sketches, whose merge tree (not their input rows)
depends on the split configuration.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple, Union

from ..obs import metrics
from ..resilience import ON_ERROR_STRICT, ParseErrors, validate_on_error
from .chunks import DEFAULT_CHUNK_SIZE, Chunk, _line_spans, iter_chunks
from .plan import QueryPlan

if TYPE_CHECKING:  # runtime import is lazy: repro.store imports the engine
    from ..store import StoreConfig

__all__ = [
    "KIND_BYTES",
    "KIND_ROWS",
    "SplitServeError",
    "WorkUnit",
    "checkpoint_key",
    "file_cost",
    "plan_units",
    "unit_chunks",
]

KIND_ROWS = "rows"  # lo/hi are store row indices
KIND_BYTES = "bytes"  # lo/hi are text byte offsets (line-aligned)

#: A line of any supported trace format is at least this many bytes, so a
#: file can only exceed ``split_rows`` lines if it exceeds
#: ``split_rows * _MIN_BYTES_PER_LINE`` bytes — the gate that spares
#: small files the pre-scan read.
_MIN_BYTES_PER_LINE = 8

#: Binary pre-scan block size (one read syscall per block).
_SCAN_BLOCK = 1 << 22


class SplitServeError(RuntimeError):
    """A ``rows`` sub-unit could not be served from the store.

    Row coordinates only exist in store space (the text file's surviving
    lines are unknowable without parsing), so there is no text fallback
    for a range unit — failing loudly beats silently re-reading the
    whole file from every sub-unit.
    """


@dataclass(frozen=True)
class WorkUnit:
    """One schedulable slice of a trace file.

    ``[lo, hi)`` is a row range (``rows`` kind, store-backed) or a
    line-aligned byte range (``bytes`` kind, text path).
    ``start_lineno`` is the physical line number of the first line in a
    byte range, so per-line semantics (header detection, fault
    injection, error messages) match the whole-file parse exactly.
    ``cost`` is the LPT dispatch estimate — rows for warm units, bytes
    for cold ones.
    """

    path: str
    lo: int
    hi: int
    kind: str = KIND_ROWS
    cost: float = 0.0
    start_lineno: int = 1

    @property
    def unit_label(self) -> str:
        """Display label (picked up by :func:`repro.resilience.unit_label`)."""
        return f"{os.path.basename(self.path)}[{self.kind}:{self.lo}:{self.hi}]"

    def checkpoint_key(self) -> str:
        """Stable per-run identity for checkpoint manifests."""
        return f"{os.path.abspath(self.path)}[{self.kind}:{self.lo}:{self.hi}]"


def checkpoint_key(unit: Union[str, WorkUnit]) -> str:
    """Checkpoint identity of any unit; plain paths keep their historical
    absolute-path keys, so unsplit checkpoints stay back-compatible."""
    if isinstance(unit, str):
        return os.path.abspath(unit)
    return unit.checkpoint_key()


def file_cost(path: str) -> float:
    """Dispatch cost of a whole-file unit: its byte size (0 if unstattable)."""
    try:
        return float(os.path.getsize(path))
    except OSError:
        return 0.0


def _scan_split_offsets(path: str, split_rows: int) -> Tuple[List[Tuple[int, int]], int]:
    """Pre-scan a text file for line-aligned byte boundaries.

    Returns ``(bounds, size)`` where each bound is ``(byte_offset,
    lineno)`` — the offset of the first byte after the terminator of
    physical line ``lineno - 1``, recorded every ``split_rows`` physical
    lines — and ``size`` is the total bytes read.  Lines end as the
    parser ends them (:func:`~repro.engine.chunks._line_spans`); no
    decode, so the scan costs a small fraction of a parse.
    """
    bounds: List[Tuple[int, int]] = []
    lines = offset = 0
    carry = b""
    with open(path, "rb") as fh:
        while True:
            data = fh.read(_SCAN_BLOCK)
            buf = carry + data
            nexts = _line_spans(buf, not data)[3]
            for i in range((-lines - 1) % split_rows, len(nexts), split_rows):
                bounds.append((offset + int(nexts[i]), lines + i + 2))
            used = int(nexts[-1]) if len(nexts) else 0
            lines, offset, carry = lines + len(nexts), offset + used, buf[used:]
            if not data:
                return bounds, offset


def _split_cold(path: str, size: float, split_rows: int) -> List[WorkUnit]:
    """Byte-range sub-units for one cold text file ([] = keep whole)."""
    if path.endswith(".gz"):
        return []  # a gzip stream has no seekable line-aligned offsets
    if size <= split_rows * _MIN_BYTES_PER_LINE:
        return []  # provably fewer than split_rows lines; skip the scan
    try:
        bounds, total = _scan_split_offsets(path, split_rows)
    except OSError:
        return []
    starts = [(0, 1)] + [b for b in bounds if b[0] < total]
    if len(starts) < 2:
        return []
    units = []
    for j, (b_lo, lineno) in enumerate(starts):
        b_hi = starts[j + 1][0] if j + 1 < len(starts) else total
        units.append(
            WorkUnit(path, b_lo, b_hi, KIND_BYTES, cost=float(b_hi - b_lo),
                     start_lineno=lineno)
        )
    return units


def _split_warm(path: str, n_rows: int, zone_rows: Optional[int],
                chunk_size: int, split_rows: int) -> List[WorkUnit]:
    """Row-range sub-units for one store-backed file ([] = keep whole)."""
    from ..store import aligned_row_splits

    bounds = aligned_row_splits(n_rows, split_rows, zone_rows or chunk_size)
    if not bounds:
        return []
    edges = [0, *bounds, n_rows]
    return [
        WorkUnit(path, lo, hi, KIND_ROWS, cost=float(hi - lo))
        for lo, hi in zip(edges[:-1], edges[1:])
    ]


def plan_units(
    paths: Sequence[str],
    fmt: str = "alicloud",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    split_rows: int = 0,
    store: Optional["StoreConfig"] = None,
    on_error: str = ON_ERROR_STRICT,
    skip_header: bool = True,
) -> Tuple[List[Union[str, WorkUnit]], List[float]]:
    """Plan the run's work units and their dispatch costs.

    Returns ``(units, costs)`` in canonical order: files in the given
    order, each file's sub-units in ascending range order — the merge
    order that keeps results deterministic.  ``costs[i]`` estimates
    ``units[i]`` for LPT dispatch (manifest rows warm, bytes cold).

    With a store, a file is row-split when a fresh entry exists; a big
    file with no usable entry is ingested here first when
    ``store.build`` is set (one-time cost — every later run is warm), and
    byte-split like a cold file otherwise.  Small files keep their plain
    path units and, under ``store.build``, still ingest lazily inside
    their worker exactly as before.
    """
    from ..store import ENTRY_FRESH, build_entry, entry_status

    on_error = validate_on_error(on_error)
    if split_rows < 0:
        raise ValueError("split_rows must be >= 0")
    reg = metrics.get_registry()
    units_split = reg.counter("engine.units_split")
    cost_hist = reg.histogram("engine.unit_cost_estimate")
    units: List[Union[str, WorkUnit]] = []
    costs: List[float] = []

    def emit(file_units: List[WorkUnit], path: str, whole_cost: float) -> None:
        if not file_units:
            units.append(path)
            costs.append(whole_cost)
            cost_hist.observe(whole_cost)
            return
        units_split.inc(len(file_units) - 1)
        for u in file_units:
            units.append(u)
            costs.append(u.cost)
            cost_hist.observe(u.cost)

    for path in paths:
        size = file_cost(path)
        if split_rows == 0:
            emit([], path, size)
            continue
        manifest = None
        if store is not None:
            status, entry = entry_status(path, store, fmt, skip_header, on_error)
            if status == ENTRY_FRESH and entry is not None:
                manifest = entry.manifest
            elif store.build and size > split_rows * _MIN_BYTES_PER_LINE:
                # Big enough to be worth splitting: ingest now so row
                # coordinates exist.  A failed build (full disk, racing
                # writer) falls back to the cold split below.
                try:
                    _, manifest = build_entry(
                        path, fmt=fmt, store_dir=store.dir, chunk_size=chunk_size,
                        skip_header=skip_header, on_error=on_error,
                    )
                except (OSError, ValueError):
                    manifest = None
        if manifest is not None:
            if manifest.n_rows <= split_rows:
                emit([], path, float(manifest.n_rows))
                continue
            zone_rows = manifest.zones.zone_rows if manifest.zones else None
            emit(
                _split_warm(path, manifest.n_rows, zone_rows, chunk_size, split_rows),
                path,
                float(manifest.n_rows),
            )
            continue
        emit(_split_cold(path, size, split_rows), path, size)
    return units, costs


def unit_chunks(
    unit: Union[str, WorkUnit],
    fmt: str = "alicloud",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    skip_header: bool = True,
    on_error: str = ON_ERROR_STRICT,
    errors: Optional[ParseErrors] = None,
    store: Optional["StoreConfig"] = None,
    plan: Optional[QueryPlan] = None,
) -> Iterator[Chunk]:
    """Stream one unit's chunks: whole file, store row range, or byte range.

    Plain paths behave exactly like :func:`repro.engine.chunks.iter_chunks`.
    ``rows`` units are served from the store only (building / verifying /
    self-healing the entry like any warm serve); there is no text
    fallback, so an unservable range raises :class:`SplitServeError`.
    ``bytes`` units parse their byte range through the text path with the
    store disabled (their store entry, if any, is keyed in rows).
    """
    if isinstance(unit, str):
        return iter_chunks(
            unit, fmt=fmt, chunk_size=chunk_size, skip_header=skip_header,
            on_error=on_error, errors=errors, store=store, plan=plan,
        )
    if unit.kind == KIND_ROWS:
        if store is None:
            raise SplitServeError(
                f"row-range unit {unit.unit_label} requires a store configuration"
            )
        from ..store import try_serve

        served = try_serve(
            unit.path, fmt, chunk_size, skip_header, validate_on_error(on_error),
            errors, store, plan=plan, row_range=(unit.lo, unit.hi),
        )
        if served is None:
            raise SplitServeError(
                f"cannot serve rows [{unit.lo}, {unit.hi}) of {unit.path!r}: no "
                f"fresh store entry and no rebuild possible (store.build off, "
                f"unwritable store, or incompatible policy) — re-plan the run"
            )
        return served
    return iter_chunks(
        unit.path, fmt=fmt, chunk_size=chunk_size, skip_header=skip_header,
        on_error=on_error, errors=errors, store=None, plan=plan,
        byte_range=(unit.lo, unit.hi), start_lineno=unit.start_lineno,
    )
