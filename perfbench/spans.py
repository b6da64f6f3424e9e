"""In-memory request tracing for the benchmark's traced runs.

A span records its name, start, end, parent span and request id. Spans
are kept in a list and summarised when the run ends. They wrap the calls
the benchmark makes into each layer's public functions; nothing inside
the program is instrumented. A layer's self time is its span's duration
minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

clock = time.perf_counter

#: (span id, request id) of the span the running code is inside
_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)


@dataclass(frozen=True)
class Span:
    id: int
    parent: Optional[int]
    rid: Optional[int]
    name: str
    start: float
    end: float


class Tracer:
    """Collects spans; ``span`` nests through a context variable."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)

    def current(self) -> Optional[Tuple[int, Optional[int]]]:
        return _CURRENT.get()

    def add(self, name: str, start: float, end: float, parent: Optional[int], rid: Optional[int]) -> int:
        """Record a span measured elsewhere."""
        span_id = next(self._ids)
        # list.append is atomic, so decode threads may record too.
        self.spans.append(Span(span_id, parent, rid, name, start, end))
        return span_id

    @contextlib.contextmanager
    def span(self, name: str, rid: Optional[int] = None, start: Optional[float] = None):
        current = _CURRENT.get()
        parent = current[0] if current is not None else None
        if rid is None and current is not None:
            rid = current[1]
        span_id = next(self._ids)
        token = _CURRENT.set((span_id, rid))
        began = clock() if start is None else start
        try:
            yield span_id
        finally:
            _CURRENT.reset(token)
            self.spans.append(Span(span_id, parent, rid, name, began, clock()))

    def wrap(self, owner, attr: str, name: str) -> None:
        """Shadow ``owner.attr`` with a version that runs inside a span."""
        inner = getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(owner, attr, traced)


class NullTracer:
    """The untraced runs' tracer: records nothing, wraps nothing."""

    spans: List[Span] = []

    def current(self):
        return None

    def add(self, *args, **kwargs) -> int:
        return 0

    def span(self, name, rid=None, start=None):
        return contextlib.nullcontext()

    def wrap(self, owner, attr, name) -> None:
        pass


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.id] = (span.end - span.start) - covered
    return result


def summarize(spans: List[Span], root: str) -> Dict[str, float]:
    """Per-stage self time and the unattributed share of ``root`` spans.

    Returns ``{"<stage>": mean self ms per root}`` for every span name
    under a root, plus ``unattributed_share``: the roots' own self time
    over their total duration, that is, the part of end-to-end time no
    stage accounts for.
    """
    own = self_times(spans)
    by_name: Dict[str, float] = defaultdict(float)
    roots = [s for s in spans if s.name == root]
    total = sum(s.end - s.start for s in roots)
    for span in spans:
        if span.rid is not None:
            by_name[span.name] += own[span.id]
    count = max(1, len(roots))
    summary = {name: 1e3 * value / count for name, value in by_name.items()}
    summary["unattributed_share"] = (
        sum(own[s.id] for s in roots) / total if total > 0 else 0.0
    )
    return summary
