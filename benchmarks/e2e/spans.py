"""The benchmark's own spans, stitched over the program's recorded span tree.

The benchmark wraps every public call it makes into the program
(``from_text``, ``ground``, ``build_mrf``, ``run_map`` ...) in a span of
its own: name, start, end, parent, and the operation it belongs to.  When
the program runs with ``InferenceConfig(tracing="on")`` its
``RecordingTracer`` holds a second tree (``request`` > ``setup`` >
``ground`` ...); :func:`stitch` hangs each of that tree's roots under the
benchmark span that caused it, giving one tree per run on one clock
(``repro.utils.clock.wall_now``, which worker processes share).

Self time of a span = its duration minus the part of its interval covered
by its children (children of one span may overlap — two pool workers run
at once — so the covered part is the union of the child intervals).
"""

from __future__ import annotations

import re
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.utils.clock import wall_now

_COMPONENT_NAME = re.compile(r"^component\[\d+\]$")


@dataclass
class BenchSpan:
    """One node of the stitched tree (benchmark- or program-recorded)."""

    span_id: int
    parent_id: Optional[int]
    name: str
    source: str  # "bench" | "program"
    start: float
    end: float = 0.0
    op: Optional[int] = None
    attributes: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return max(self.end - self.start, 0.0)

    def as_dict(self) -> Dict[str, object]:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "source": self.source,
            "start": self.start,
            "end": self.end,
            "op": self.op,
            "attributes": self.attributes,
        }


class SpanRecorder:
    """In-memory recorder of the benchmark's spans (per-thread nesting).

    ``enabled=False`` makes :meth:`span` a no-op, so the untraced and the
    traced run execute the same benchmark code.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._spans: List[BenchSpan] = []
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, **attributes: object) -> Iterator[Optional[BenchSpan]]:
        if not self.enabled:
            yield None
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        with self._lock:
            span = BenchSpan(
                span_id=len(self._spans) + 1,
                parent_id=parent.span_id if parent else None,
                name=name,
                source="bench",
                start=wall_now(),
                op=attributes.pop("op", parent.op if parent else None),
                attributes=dict(attributes),
            )
            self._spans.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = wall_now()
            stack.pop()

    def spans(self) -> List[BenchSpan]:
        with self._lock:
            return list(self._spans)


def stitch(
    bench: List[BenchSpan], tracer, request_seeds: Dict[int, int]
) -> List[BenchSpan]:
    """Append one program tracer's spans to ``bench``, parented under it.

    A program span keeps its recorded parent; a program root is hung
    under the innermost benchmark span whose interval contains it — for
    ``request`` roots, the one issued with the same request seed
    (``request_seeds``: request id -> seed, from the session's request
    log), which is what tells two concurrent clients' requests apart.
    """
    offset = max((span.span_id for span in bench), default=0)
    hosts = [span for span in bench if span.source == "bench"]
    stitched: List[BenchSpan] = []
    by_id: Dict[int, BenchSpan] = {}
    for recorded in tracer.spans():
        end = recorded.wall_end if recorded.wall_end is not None else recorded.wall_start
        span = BenchSpan(
            span_id=recorded.span_id + offset,
            parent_id=None if recorded.parent_id is None else recorded.parent_id + offset,
            name=recorded.name,
            source="program",
            start=recorded.wall_start,
            end=end,
            attributes=dict(recorded.attributes),
        )
        if recorded.request_id is not None:
            span.attributes["request_id"] = recorded.request_id
        if span.parent_id is None:
            seed = request_seeds.get(recorded.request_id)
            host = _innermost_host(hosts, span, seed)
            if host is not None:
                span.parent_id = host.span_id
                span.op = host.op
        else:
            parent = by_id.get(span.parent_id)
            span.op = parent.op if parent else None
        by_id[span.span_id] = span
        stitched.append(span)
    bench.extend(stitched)
    return bench


def _innermost_host(
    hosts: List[BenchSpan], span: BenchSpan, seed: Optional[int]
) -> Optional[BenchSpan]:
    best: Optional[BenchSpan] = None
    for host in hosts:
        if host.start > span.start or host.end < span.end:
            continue
        if seed is not None and host.attributes.get("seed", seed) != seed:
            continue
        if best is None or host.duration <= best.duration:
            best = host
    return best


def aggregate_name(name: str) -> str:
    """``component[17]`` -> ``component``: one row per kind of span."""
    return "component" if _COMPONENT_NAME.match(name) else name


def _covered(intervals: Iterable[Tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: List[BenchSpan]) -> Dict[int, float]:
    """Self seconds of every span, keyed by span id."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append((span.start, span.end))
    return {
        span.span_id: span.duration
        - _covered(children.get(span.span_id, ()), span.start, span.end)
        for span in spans
    }


def per_op_self_seconds(spans: List[BenchSpan]) -> Dict[str, Dict[int, float]]:
    """``{span name: {op index: summed self seconds}}`` over measured ops."""
    own = self_times(spans)
    table: Dict[str, Dict[int, float]] = {}
    for span in spans:
        if span.op is None:
            continue
        row = table.setdefault(aggregate_name(span.name), {})
        row[span.op] = row.get(span.op, 0.0) + own[span.span_id]
    return table


def folded(spans: List[BenchSpan]) -> List[BenchSpan]:
    """The tree as written to ``trace-*.json``: task spans folded by kind.

    A request over 3,000 components records 12,000 spans; the file keeps
    one ``component`` span per dispatch (``count``, ``total_seconds``, and
    the interval from the first start to the last end) with one folded
    child per worker phase.  Metrics are computed before folding.
    """
    kept: List[BenchSpan] = []
    groups: Dict[Tuple[Optional[int], str], BenchSpan] = {}
    folded_into: Dict[int, int] = {}
    for span in spans:  # parents come before their children
        name = aggregate_name(span.name)
        parent = folded_into.get(span.parent_id, span.parent_id)
        if name != "component" and span.parent_id not in folded_into:
            kept.append(span)
            continue
        group = groups.get((parent, name))
        if group is None:
            group = BenchSpan(
                span.span_id, parent, name, span.source, span.start, span.end,
                span.op, {"count": 0, "total_seconds": 0.0},
            )
            groups[(parent, name)] = group
            kept.append(group)
        group.start = min(group.start, span.start)
        group.end = max(group.end, span.end)
        group.attributes["count"] += 1
        group.attributes["total_seconds"] += span.duration
        folded_into[span.span_id] = group.span_id
    return kept
