"""In-memory spans for the traced benchmark run.

A span records a name, its start and end (``time.perf_counter`` seconds),
the index of the span that was open when it started, and the run id. Spans
are kept in memory and written out once, when the run ends. A span's self
time is its duration minus the part of its interval that its child spans
cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.run_id))
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index].end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name."""
        children: Dict[int, List[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out: Dict[str, float] = {}
        for i, s in enumerate(self.spans):
            covered = _union_length(
                [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(i, [])]
            )
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - covered
        return out

    def write(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans], indent=0) + "\n")


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
