"""In-memory spans and their Chrome trace-event export (standard library only).

A span records name, start, end, parent and workload.  Self time is the
span's duration minus the time its children cover; children of one span
never overlap here (the traced pass is single-threaded), so that is their
summed duration.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterator, List, Sequence


class Tracer:
    """Spans of one traced pass, in start order."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = {
            "name": name,
            "start": perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def finished(self) -> List[Dict[str, Any]]:
        """The spans, each with its ``self_s`` filled in."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return [dict(s, self_s=s["end"] - s["start"] - c) for s, c in zip(self.spans, child)]


def chrome_trace(spans: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Finished spans as a Chrome trace-event document, one lane per workload.

    Open the file at https://ui.perfetto.dev; each slice's ``args`` hold
    its parent's index, its workload and its self time.
    """
    lanes: Dict[str, int] = {}
    for s in spans:
        lanes.setdefault(s["workload"], len(lanes) + 1)
    events: List[Dict[str, Any]] = [
        {"ph": "M", "name": "process_name", "pid": 1, "args": {"name": "benchmark"}}
    ]
    for workload, tid in lanes.items():
        events.append(
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": tid, "args": {"name": workload}}
        )
    t0 = min((s["start"] for s in spans), default=0.0)
    for i, s in enumerate(spans):
        events.append({
            "name": s["name"],
            "cat": "layer",
            "ph": "X",
            "ts": round((s["start"] - t0) * 1e6, 3),
            "dur": round((s["end"] - s["start"]) * 1e6, 3),
            "pid": 1,
            "tid": lanes[s["workload"]],
            "args": {"index": i, "parent": s["parent"], "workload": s["workload"],
                     "self_us": round(s["self_s"] * 1e6, 3)},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
