"""In-memory span recorder for the traced run.

Spans are recorded *from the harness's side of the boundary*, around the
calls into each layer's public functions — spans inside the program are
a later change (ROADMAP item 2).  A span is ``(name, start, end, parent,
op)``; spans of one operation share ``op``.  They stay in memory during
the run and are written to ``out/trace-<workload>.jsonl`` at exit; a
layer's **self time** is its span minus the part its children cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Dict, List, Optional

from common import median


class Tracer:
    """Records a tree of timed spans with the least machinery that keeps
    the per-span cost near two clock reads (a class-based context
    manager; ``contextlib`` generators cost ~3x as much per span)."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, op id, class name]
        self.spans: List[list] = []
        self._stack: List[int] = []

    def span(self, name: str, op: Optional[int] = None,
             cls: Optional[str] = None) -> "_Span":
        return _Span(self, name, op, cls)

    def record(self, name: str, start: float, end: float, parent: int = -1,
               op: Optional[int] = None, cls: Optional[str] = None) -> int:
        """Add a finished span measured elsewhere (a child process's own
        report, another thread); returns its index for use as a parent."""
        self.spans.append([name, start, end, parent, op, cls])
        return len(self.spans) - 1

    # -- analysis --------------------------------------------------------
    def durations_us(self, name: str, cls: Optional[str] = None) -> List[float]:
        """Durations of every finished span called ``name`` (optionally
        only those recorded under class ``cls``), in microseconds."""
        return [
            (s[2] - s[1]) * 1e6 for s in self.spans
            if s[0] == name and s[2] is not None and (cls is None or s[5] == cls)
        ]

    def self_time_us(self) -> Dict[str, float]:
        """Median self time per span name: duration minus child spans."""
        child_total = defaultdict(float)
        for s in self.spans:
            if s[3] >= 0 and s[2] is not None:
                child_total[s[3]] += s[2] - s[1]
        per_name = defaultdict(list)
        for index, s in enumerate(self.spans):
            if s[2] is not None:
                per_name[s[0]].append((s[2] - s[1] - child_total[index]) * 1e6)
        return {name: median(values) for name, values in sorted(per_name.items())}

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            for index, (name, start, end, parent, op, cls) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent if parent >= 0 else None,
                    "op": op, "class": cls,
                }) + "\n")


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: Tracer, name: str, op, cls) -> None:
        self.tracer = tracer
        stack = tracer._stack
        if stack:
            parent = stack[-1]
            top = tracer.spans[parent]
            op = top[4] if op is None else op
            cls = top[5] if cls is None else cls
        else:
            parent = -1
        self.index = len(tracer.spans)
        tracer.spans.append([name, 0.0, None, parent, op, cls])

    def __enter__(self) -> "_Span":
        self.tracer._stack.append(self.index)
        self.tracer.spans[self.index][1] = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        self.tracer.spans[self.index][2] = end
        self.tracer._stack.pop()
