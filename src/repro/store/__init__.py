"""repro.store — memory-mapped columnar trace store: parse once, mmap forever.

Every figure, table, and benchmark run used to re-parse the same text
traces from scratch; text decode and int casts dominated wall time on
multi-million-request fleets.  The store breaks that cycle with a
per-file binary columnar cache:

* **ingest** (:func:`ingest_dir` / ``repro ingest``, or transparent
  on-first-use conversion) parses each ``.csv``/``.csv.gz`` through the
  engine's exact chunked parsers once and persists the columns —
  timestamps / offsets / sizes / is_write / response_times plus a
  per-volume code index — as ``.npy`` segments with a JSON manifest;
* the **manifest** (:mod:`repro.store.manifest`) is content-addressed:
  source path, size, mtime, trace format, parser version, and error
  policy all participate, so stale or differently-parsed entries
  invalidate automatically;
* **serving** (:mod:`repro.store.reader`) hands the engine read-only
  ``np.memmap`` views — zero text parsing, zero copies until an analyzer
  slices — through the same ``Chunk`` stream the text path produces, so
  results stay bit-identical at any worker count; each column's header
  and byte size are checked against the manifest before it is mapped,
  and a column that fails is quarantined and rebuilt like a corrupt
  entry;
* the ingest's **fault ledger** (dropped-line counts, quarantine
  samples) is persisted in the manifest and replayed on warm runs, so
  cached results keep exact error accounting;
* **integrity** (:mod:`repro.store.scrub`): v3 manifests record each
  segment's byte size and sha256; ``repro store verify`` scrubs a store
  (``--deep`` re-hashes bytes), and serving with ``StoreConfig.verify``
  quarantines corrupt entries and self-heals them by rebuilding from the
  source text — v2 entries upgrade in place on first touch.

Quickstart::

    from repro.store import StoreConfig, ingest_dir
    from repro.engine import StreamingProfileAnalyzer, run

    ingest_dir("traces/", fmt="alicloud", workers=4)      # parse once
    store = StoreConfig()                                  # .repro-store/
    result = run("traces/", [StreamingProfileAnalyzer()],
                 workers=4, store=store)                   # mmap forever
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .builder import IngestFileReport, build_entry, ingest_dir, ingest_file
    from .config import DEFAULT_STORE_DIRNAME, StoreConfig
    from .manifest import (
        MANIFEST_NAME,
        PARSER_VERSION,
        STORE_FORMAT_VERSION,
        UPGRADEABLE_VERSIONS,
        Manifest,
        SourceStamp,
        ZoneMaps,
        ZoneStats,
        aligned_row_splits,
        compatible_policy,
        entry_dir,
        segment_files,
    )
    from .reader import (
        ENTRY_FRESH,
        ENTRY_INCOMPATIBLE,
        ENTRY_MISS,
        ENTRY_STALE,
        StoreEntry,
        entry_status,
        serve_chunks,
        serve_range,
        try_serve,
    )
    from .scrub import (
        EntryIssue,
        EntryReport,
        ScrubReport,
        file_sha256,
        load_current_manifest,
        scrub_store,
        upgrade_entry,
        verify_entry,
    )

__all__ = [
    "DEFAULT_STORE_DIRNAME",
    "StoreConfig",
    "MANIFEST_NAME",
    "PARSER_VERSION",
    "STORE_FORMAT_VERSION",
    "UPGRADEABLE_VERSIONS",
    "Manifest",
    "SourceStamp",
    "ZoneMaps",
    "ZoneStats",
    "aligned_row_splits",
    "compatible_policy",
    "entry_dir",
    "segment_files",
    "IngestFileReport",
    "build_entry",
    "ingest_file",
    "ingest_dir",
    "ENTRY_FRESH",
    "ENTRY_INCOMPATIBLE",
    "ENTRY_MISS",
    "ENTRY_STALE",
    "StoreEntry",
    "entry_status",
    "serve_chunks",
    "serve_range",
    "try_serve",
    "EntryIssue",
    "EntryReport",
    "ScrubReport",
    "file_sha256",
    "load_current_manifest",
    "scrub_store",
    "upgrade_entry",
    "verify_entry",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".builder": ("IngestFileReport", "build_entry", "ingest_dir", "ingest_file"),
    ".config": ("DEFAULT_STORE_DIRNAME", "StoreConfig"),
    ".manifest": (
        "MANIFEST_NAME", "PARSER_VERSION", "STORE_FORMAT_VERSION",
        "UPGRADEABLE_VERSIONS", "Manifest", "SourceStamp", "ZoneMaps", "ZoneStats",
        "aligned_row_splits", "compatible_policy", "entry_dir", "segment_files",
    ),
    ".reader": (
        "ENTRY_FRESH", "ENTRY_INCOMPATIBLE", "ENTRY_MISS", "ENTRY_STALE", "StoreEntry",
        "entry_status", "serve_chunks", "serve_range", "try_serve",
    ),
    ".scrub": (
        "EntryIssue", "EntryReport", "ScrubReport", "file_sha256",
        "load_current_manifest", "scrub_store", "upgrade_entry", "verify_entry",
    ),
})
