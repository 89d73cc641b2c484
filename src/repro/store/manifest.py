"""Store entry manifests: the content-addressed cache contract.

One store entry mirrors one source trace file as columnar ``.npy``
segments plus a JSON manifest.  The manifest carries everything needed to
decide — without touching the text file's contents — whether the entry
still speaks for the source:

* a **source stamp** (absolute path, byte size, ``mtime_ns``) taken when
  the entry was built; any change to the file invalidates the entry;
* the **parser version** (bumped whenever text-parse semantics change)
  and the **store format version** (bumped whenever the on-disk layout
  changes);
* the **parse configuration** (trace format, header handling, error
  policy) the columns were produced under;
* the ingest's **fault ledger** — the exact count of malformed lines
  dropped and the bounded quarantine sample — so a warm run reproduces
  the cold run's error accounting bit for bit;
* **zone maps** (:class:`ZoneMaps`) — per-span min/max timestamp and
  offset, row and write counts over fixed ``zone_rows`` row spans, plus
  per-volume ``[first, last]`` row ranges — statistics the reader uses
  to prove whole chunks disjoint from a query predicate and skip them
  without touching their bytes;
* per-segment **byte sizes and sha256 hashes** (v3+) — the integrity
  surface ``repro store verify`` scrubs and ``--verify-store`` checks
  before trusting an mmap, so bit rot is detected instead of silently
  analyzed.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from ..resilience import QuarantineRecord

__all__ = [
    "STORE_FORMAT_VERSION",
    "UPGRADEABLE_VERSIONS",
    "PARSER_VERSION",
    "MANIFEST_NAME",
    "COLUMN_FILES",
    "CODES_FILE",
    "RESPONSE_FILE",
    "SourceStamp",
    "ZoneMaps",
    "ZoneStats",
    "Manifest",
    "aligned_row_splits",
    "entry_dir",
    "segment_files",
    "compatible_policy",
]

#: On-disk layout version; bump when the segment layout changes.
#: v2: manifests carry zone maps and per-volume row ranges (query
#: planning); v1 entries read as stale and rebuild on first use.
#: v3: manifests carry per-segment byte sizes and sha256 hashes
#: (integrity scrubbing); the segment layout itself is unchanged, so v2
#: entries upgrade in place (hashes computed from the existing segments)
#: instead of rebuilding — see ``repro.store.scrub.upgrade_entry``.
STORE_FORMAT_VERSION = 3

#: Prior versions whose segment layout matches the current one, making an
#: in-place manifest upgrade (no re-parse) sufficient.
UPGRADEABLE_VERSIONS = frozenset({2})

#: Version of the text-parse semantics the columns were produced by.
#: Bump whenever :mod:`repro.engine.chunks` / :mod:`repro.trace.reader`
#: change what a line parses to — every existing entry then reads as
#: stale and is rebuilt on first use.
#: v2: line 1 is a header only with the format's field count, requests
#: ending past int64 are rejected, and an opcode with a trailing NUL is
#: malformed; v1 entries may hold rows parsed the old way.
#: v3: a batch parsed row by row rounds each tick count to float64 before
#: dividing, as the byte parser does; v2 fallback batches could differ in
#: the last bit of 19-digit timestamps.
PARSER_VERSION = 3

MANIFEST_NAME = "manifest.json"

#: Always-present column segments, in canonical order.
COLUMN_FILES = {
    "timestamps": "timestamps.npy",
    "offsets": "offsets.npy",
    "sizes": "sizes.npy",
    "is_write": "is_write.npy",
}
#: Per-row volume codes (present only when the file holds >1 volume).
CODES_FILE = "vol_codes.npy"
#: Response-time column (present for formats that carry service times).
RESPONSE_FILE = "response_times.npy"


def entry_dir(store_dir: str, path: str) -> str:
    """The entry directory for one source file.

    Keyed by the source's absolute path (basename kept readable, a short
    path digest appended so same-named files in different directories
    sharing one ``--store-dir`` never collide).
    """
    abspath = os.path.abspath(path)
    digest = hashlib.sha256(abspath.encode("utf-8")).hexdigest()[:12]
    return os.path.join(store_dir, f"{os.path.basename(abspath)}-{digest}")


@dataclass(frozen=True)
class SourceStamp:
    """Identity of the source text file at build time."""

    path: str
    size: int
    mtime_ns: int

    @classmethod
    def of(cls, path: str) -> "SourceStamp":
        st = os.stat(path)
        return cls(path=os.path.abspath(path), size=st.st_size, mtime_ns=st.st_mtime_ns)


@dataclass
class ZoneMaps:
    """Per-span statistics over fixed ``zone_rows`` row spans.

    Zone ``i`` summarizes file-order rows ``[i * zone_rows,
    (i + 1) * zone_rows)``; list index is the zone index.  The reader
    aggregates zones over any row range (:meth:`window`) to bound what a
    chunk *could* contain, so a predicate provably matching nothing in
    the bound lets the whole chunk be skipped unread.  Statistics only —
    rows are never consulted, so the bound stays correct at any serving
    chunk size.
    """

    zone_rows: int
    min_ts: List[float]
    max_ts: List[float]
    min_off: List[int]
    max_off: List[int]
    n_rows: List[int]
    n_writes: List[int]

    def window(self, lo: int, hi: int) -> "ZoneStats":
        """Aggregate statistics of the zones covering rows ``[lo, hi)``.

        The covering zones may extend past the range, so the result is a
        superset bound: anything true of no row in the bound is true of
        no row in the range.
        """
        zi0 = lo // self.zone_rows
        zi1 = min((hi - 1) // self.zone_rows + 1, len(self.min_ts))
        return ZoneStats(
            min_ts=min(self.min_ts[zi0:zi1]),
            max_ts=max(self.max_ts[zi0:zi1]),
            min_off=min(self.min_off[zi0:zi1]),
            max_off=max(self.max_off[zi0:zi1]),
            n_rows=sum(self.n_rows[zi0:zi1]),
            n_writes=sum(self.n_writes[zi0:zi1]),
        )


def aligned_row_splits(n_rows: int, split_rows: int, zone_rows: int) -> List[int]:
    """Interior row boundaries splitting ``[0, n_rows)`` into ~``split_rows``
    pieces, snapped to ``zone_rows`` multiples.

    Boundaries on zone-span edges keep :meth:`ZoneMaps.window` bounds over
    a sub-range exactly as tight as over whole-file chunking (a window
    never has to include a zone the range only grazes).  Returns ``[]``
    when the range fits in one piece or ``split_rows`` is off (<= 0).
    """
    if split_rows <= 0 or n_rows <= split_rows:
        return []
    step = split_rows
    if zone_rows > 0:
        step = max(1, round(split_rows / zone_rows)) * zone_rows
    return list(range(step, n_rows, step))


@dataclass(frozen=True)
class ZoneStats:
    """One aggregated zone-map window (see :meth:`ZoneMaps.window`)."""

    min_ts: float
    max_ts: float
    min_off: int
    max_off: int
    n_rows: int
    n_writes: int


@dataclass
class Manifest:
    """Everything a warm run needs to trust and serve one entry."""

    source: SourceStamp
    fmt: str
    skip_header: bool
    on_error: str
    n_rows: int
    volumes: List[str]  # sorted unique volume ids; codes index into this
    has_response: bool
    has_codes: bool
    dropped: int = 0
    quarantine: List[QuarantineRecord] = field(default_factory=list)
    fallback_batches: int = 0
    #: Zone-map statistics over fixed row spans (None for empty entries).
    zones: Optional[ZoneMaps] = None
    #: volume id -> [first, last] file-order row index of that volume's
    #: rows (its rows need not be contiguous; this is the hull).
    volume_rows: Dict[str, List[int]] = field(default_factory=dict)
    #: segment filename -> byte size at build time (v3+; empty for older
    #: entries until upgraded).
    column_bytes: Dict[str, int] = field(default_factory=dict)
    #: segment filename -> sha256 hex digest of its bytes (v3+).
    column_hashes: Dict[str, str] = field(default_factory=dict)
    store_format_version: int = STORE_FORMAT_VERSION
    parser_version: int = PARSER_VERSION

    def source_fresh(self, path: str) -> bool:
        """True when the source stamp (size + mtime) still matches ``path``.

        The stamp-only half of :meth:`is_fresh` — version-agnostic, so the
        in-place v2 upgrade can check the source hasn't changed before
        trusting the old segments.
        """
        try:
            st = os.stat(path)
        except OSError:
            return False
        return st.st_size == self.source.size and st.st_mtime_ns == self.source.mtime_ns

    def is_fresh(self, path: str) -> bool:
        """True when this entry still mirrors ``path`` exactly.

        Checks the source stamp (size + mtime), the store layout version,
        and the parser version; the error policy is a *compatibility*
        question, not a freshness one (see :func:`compatible_policy`).
        """
        if self.store_format_version != STORE_FORMAT_VERSION:
            return False
        if self.parser_version != PARSER_VERSION:
            return False
        return self.source_fresh(path)

    def to_json(self) -> str:
        payload: Dict[str, Any] = asdict(self)
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Manifest":
        raw = json.loads(text)
        raw["source"] = SourceStamp(**raw["source"])
        raw["quarantine"] = [QuarantineRecord(**q) for q in raw.get("quarantine", [])]
        zones = raw.get("zones")
        raw["zones"] = ZoneMaps(**zones) if zones else None
        raw.setdefault("volume_rows", {})
        raw.setdefault("column_bytes", {})
        raw.setdefault("column_hashes", {})
        return cls(**raw)

    @classmethod
    def load(cls, entry: str) -> Optional["Manifest"]:
        """Read an entry's manifest; ``None`` when absent or unreadable."""
        manifest_path = os.path.join(entry, MANIFEST_NAME)
        try:
            with open(manifest_path, "r", encoding="utf-8") as fh:
                return cls.from_json(fh.read())
        except (OSError, ValueError, KeyError, TypeError):
            return None


def segment_files(manifest: Manifest) -> List[str]:
    """The ``.npy`` segment filenames this entry must hold, in canonical
    order — the scrub/verify surface."""
    names = list(COLUMN_FILES.values())
    if manifest.has_response:
        names.append(RESPONSE_FILE)
    if manifest.has_codes:
        names.append(CODES_FILE)
    return names


def compatible_policy(manifest: Manifest, on_error: str) -> bool:
    """Can an entry built under ``manifest.on_error`` serve ``on_error``?

    The surviving rows — and the exactness of the fault ledger — decide:

    * same policy: always;
    * a clean build (``dropped == 0``): any policy parses a clean file to
      the same rows, so the entry serves all three;
    * ``skip`` served from a ``quarantine`` build: same surviving rows,
      and the exact dropped count is known (samples are simply unused);
    * everything else (``strict`` over a dirty entry, ``quarantine`` from
      a sample-less ``skip`` build): incompatible — the caller falls back
      to the text parser or rebuilds.
    """
    from ..resilience import ON_ERROR_QUARANTINE, ON_ERROR_SKIP

    if manifest.on_error == on_error or manifest.dropped == 0:
        return True
    return on_error == ON_ERROR_SKIP and manifest.on_error == ON_ERROR_QUARANTINE
