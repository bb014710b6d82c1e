"""Spans recorded around the benchmark's calls into each layer.

A span records its name, start, end, parent span and the run id. Spans
are kept in memory and written once, when the run ends. A span's self
time is its duration minus the time its children cover. Work the program
does inside another call (such as the analysis passes inside
``MaterializedProgram``) cannot be seen from outside; the benchmark times
it by calling the same public function again, in a span marked as a
replay, which is never made the child of the call it stands for.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class Tracer:
    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: List[Dict] = []
        self._open: List[int] = []

    def span(self, name: str, replay: bool = False):
        """A context manager timing one call; a no-op while disabled."""
        if not self.enabled:
            return nullcontext()
        return self._span(name, replay)

    @contextmanager
    def _span(self, name: str, replay: bool) -> Iterator[None]:
        record = {
            "id": len(self.spans),
            "run": self.run_id,
            "name": name,
            "parent": None if replay or not self._open else self._open[-1],
            "replay": replay,
            "start_ns": 0,
            "end_ns": 0,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start_ns"] = time.perf_counter_ns()
        try:
            yield
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def self_times_ns(self) -> List[int]:
        """Per span: duration minus the time covered by its children.

        The benchmark is single-threaded, so children of one span never
        overlap and their durations add up."""
        covered = [0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end_ns"] - span["start_ns"]
        return [s["end_ns"] - s["start_ns"] - c for s, c in zip(self.spans, covered)]

    def durations(self, name: str) -> List[float]:
        """Durations in seconds of every span with this name."""
        return [(s["end_ns"] - s["start_ns"]) / 1e9 for s in self.spans if s["name"] == name]

    def median(self, name: str) -> float:
        values = self.durations(name)
        return statistics.median(values) if values else 0.0

    def write(self, path: Path, header: Optional[Dict] = None) -> None:
        spans = [dict(s, self_ns=own) for s, own in zip(self.spans, self.self_times_ns())]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"header": header or {}, "spans": spans}), encoding="utf-8")
