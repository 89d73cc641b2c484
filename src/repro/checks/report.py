"""Finding reports: human text and machine JSON.

The JSON document is the CI artifact::

    {
      "version": 3,
      "counts": {"total": 2, "error": 2, "warning": 0, "by_rule": {"RC001": 2}},
      "findings": [{"path": ..., "line": ..., "col": ..., "rule": ...,
                    "severity": ..., "message": ..., "hint": ...}, ...]
    }
"""

from __future__ import annotations

import json
from typing import Any, Dict, Sequence

from .finding import SEVERITIES, Finding

__all__ = ["exit_code", "format_json", "format_text", "report_dict"]

#: Schema version of the JSON report (3: dropped the "cache" stats block).
JSON_VERSION = 3


def report_dict(findings: Sequence[Finding]) -> Dict[str, Any]:
    by_rule: Dict[str, int] = {}
    for f in findings:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    counts: Dict[str, Any] = {"total": len(findings)}
    for severity in SEVERITIES:
        counts[severity] = sum(1 for f in findings if f.severity == severity)
    counts["by_rule"] = {rule: by_rule[rule] for rule in sorted(by_rule)}
    return {
        "version": JSON_VERSION,
        "counts": counts,
        "findings": [f.to_dict() for f in sorted(findings)],
    }


def format_json(findings: Sequence[Finding]) -> str:
    return json.dumps(report_dict(findings), indent=2, sort_keys=True)


def format_text(findings: Sequence[Finding]) -> str:
    if not findings:
        return "repro lint: no findings"
    lines = [str(f) for f in sorted(findings)]
    errors = sum(1 for f in findings if f.severity == "error")
    warnings = len(findings) - errors
    lines.append(f"repro lint: {errors} error(s), {warnings} warning(s)")
    return "\n".join(lines)


def exit_code(findings: Sequence[Finding]) -> int:
    """Nonzero iff any error-severity finding survived suppression."""
    return 1 if any(f.severity == "error" for f in findings) else 0
