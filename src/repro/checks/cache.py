"""Content-hash-keyed incremental cache for the lint driver.

The whole-program pass re-reads every file on every run; parsing and
summarizing are what make it slow.  This cache persists, per source
file, the per-file findings (post-noqa) and the project summary under
``.repro/checks-cache/`` so a warm ``repro lint`` on an unchanged tree
reparses nothing.

An entry is valid only when three keys match:

* the SHA-256 of the file's bytes — any edit invalidates that file;
* the rule-pack fingerprint — a digest over every ``repro.checks``
  source file (and :data:`repro.checks.project.SUMMARY_VERSION`), so
  editing a rule or the summary schema invalidates *everything*;
* the per-file config key — enabled rules, effective severities and
  the ``--select`` set as they apply to that path, so flipping a rule
  off in ``pyproject.toml`` does not serve stale findings.

Entries are one JSON file each, named by a hash of the source path, and
written atomically (tmp + ``os.replace``) so a crashed run can never
leave a half-written entry.  Invalid entries are overwritten in place,
which bounds growth at one entry per linted path.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Dict, List, Optional, Tuple

from ..lint_parser import DEFAULT_CACHE_DIR
from .finding import Finding

__all__ = ["DEFAULT_CACHE_DIR", "SummaryCache", "rules_fingerprint"]

_FINDING_FIELDS = ("path", "line", "col", "rule", "severity", "message", "hint")

_fingerprint: Optional[str] = None


def rules_fingerprint() -> str:
    """Digest of the checks package's own sources + summary version.

    Computed once per process; editing any rule, the driver, or the
    project model changes the fingerprint and therefore invalidates
    every cache entry — the "rules version" key from the issue.
    """
    global _fingerprint
    if _fingerprint is None:
        digest = hashlib.sha256()
        from .project import SUMMARY_VERSION

        digest.update(f"summary-v{SUMMARY_VERSION}".encode("utf-8"))
        package_dir = os.path.dirname(os.path.abspath(__file__))
        for dirpath, dirnames, filenames in os.walk(package_dir):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                full = os.path.join(dirpath, name)
                digest.update(os.path.relpath(full, package_dir).encode("utf-8"))
                with open(full, "rb") as fh:
                    digest.update(fh.read())
        _fingerprint = digest.hexdigest()
    return _fingerprint


class SummaryCache:
    """Per-file parse/summary artifacts with hit/miss accounting."""

    def __init__(self, directory: str = DEFAULT_CACHE_DIR) -> None:
        self.directory = directory
        self.hits = 0
        self.misses = 0

    def _entry_path(self, path: str) -> str:
        name = hashlib.sha1(path.encode("utf-8")).hexdigest()[:24]
        return os.path.join(self.directory, f"{name}.json")

    def load(
        self, path: str, content_hash: str, config_key: str
    ) -> Optional[Tuple[List[Finding], Optional[Dict[str, Any]]]]:
        """(findings, summary) when the entry matches all keys, else None.

        Counts a hit or a miss; callers must follow a miss with
        :meth:`store` so the next run hits.
        """
        entry = self._read(self._entry_path(path))
        if (
            entry is None
            or entry.get("path") != path
            or entry.get("content_hash") != content_hash
            or entry.get("fingerprint") != rules_fingerprint()
            or entry.get("config_key") != config_key
        ):
            self.misses += 1
            return None
        findings = [
            Finding(**{name: f[name] for name in _FINDING_FIELDS})
            for f in entry.get("findings", [])
        ]
        self.hits += 1
        return findings, entry.get("summary")

    def store(
        self,
        path: str,
        content_hash: str,
        config_key: str,
        findings: List[Finding],
        summary: Optional[Dict[str, Any]],
    ) -> None:
        entry = {
            "path": path,
            "content_hash": content_hash,
            "fingerprint": rules_fingerprint(),
            "config_key": config_key,
            "findings": [f.to_dict() for f in findings],
            "summary": summary,
        }
        os.makedirs(self.directory, exist_ok=True)
        target = self._entry_path(path)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh, sort_keys=True)
            os.replace(tmp, target)
        except OSError:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    @staticmethod
    def _read(entry_path: str) -> Optional[Dict[str, Any]]:
        try:
            with open(entry_path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, ValueError):
            return None  # absent or corrupt entries are plain misses
        return loaded if isinstance(loaded, dict) else None
