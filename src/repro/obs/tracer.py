"""Span tracing: nested, cross-process-stitchable operation records.

A :class:`Span` is one named interval on two timelines at once — the
monotonic wall clock (:func:`repro.utils.clock.wall_now`, a system-wide
``perf_counter`` so worker-process timestamps stitch onto the parent's
without translation) and, when the tracer is given a read-only simulated
clock source, the deterministic simulated clock.  Spans nest: each
recording thread keeps an ambient stack, so ``with tracer.span("setup")``
inside ``with tracer.span("request")`` parents automatically, and
post-hoc spans (:meth:`RecordingTracer.record_span`) default their parent
to the ambient span of the recording thread.  That is how worker-side
task records — shipped back through the pool's completion-token queue —
are stitched under the request that dispatched them: the scheduler
replays them *in component order* from the request's own thread.

Two implementations share the interface:

* :class:`NullTracer` — the default.  Every method is a no-op returning
  shared singletons, so traced call sites cost one attribute lookup and
  one method call when tracing is off.
* :class:`RecordingTracer` — thread-safe append-only span log.

The purity contract (enforced by the ``obs-purity`` analysis rule and the
trace-on/trace-off parity suite): tracers never draw randomness, never
advance or charge any clock — the simulated source is *read* via a
caller-supplied zero-argument callable — and never touch session state,
so tracing on vs off cannot perturb a single result bit.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional

from repro.utils.clock import wall_now


class Span:
    """One recorded operation: a named interval with attributes.

    ``wall_start`` / ``wall_end`` are absolute monotonic timestamps;
    ``simulated_start`` / ``simulated_end`` are simulated-clock readings
    (zero when the tracer has no simulated source).  ``request_id`` is
    set on request root spans; descendants resolve theirs through the
    parent chain (:meth:`RecordingTracer.request_id_of`).
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "request_id",
        "wall_start",
        "wall_end",
        "simulated_start",
        "simulated_end",
        "attributes",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int] = None,
        request_id: Optional[int] = None,
        wall_start: float = 0.0,
        wall_end: Optional[float] = None,
        simulated_start: float = 0.0,
        simulated_end: Optional[float] = None,
        attributes: Optional[Dict[str, object]] = None,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.request_id = request_id
        self.wall_start = wall_start
        self.wall_end = wall_end
        self.simulated_start = simulated_start
        self.simulated_end = simulated_end
        self.attributes: Dict[str, object] = attributes if attributes is not None else {}

    @property
    def wall_duration(self) -> float:
        if self.wall_end is None:
            return 0.0
        return self.wall_end - self.wall_start

    def annotate(self, **attributes: object) -> "Span":
        """Attach attributes after the span was opened (e.g. the request
        id, which is only known once setup assigns one)."""
        for key, value in attributes.items():
            if key == "request_id":
                self.request_id = int(value)  # type: ignore[arg-type]
            else:
                self.attributes[key] = value
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id}, "
            f"request={self.request_id}, wall={self.wall_duration:.6f}s)"
        )


class _NullSpan:
    """The shared do-nothing span: context manager and span in one."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        return False

    def annotate(self, **attributes: object) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The default tracer: records nothing, costs (almost) nothing.

    Every call site can be written unconditionally — ``with
    tracer.span(...)`` — and pays one method call returning a shared
    no-op singleton.  ``now()`` returns 0.0 so disabled call sites never
    read the wall clock at all.
    """

    enabled = False

    def now(self) -> float:
        return 0.0

    def span(self, name: str, **attributes: object) -> _NullSpan:
        return _NULL_SPAN

    def record_span(
        self,
        name: str,
        wall_start: float,
        wall_end: float,
        parent: object = None,
        request_id: Optional[int] = None,
        **attributes: object,
    ) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, **attributes: object) -> _NullSpan:
        return _NULL_SPAN

    def current_span(self) -> None:
        return None

    def spans(self) -> List[Span]:
        return []

    def request_spans(self, request_id: int) -> List[Span]:
        return []


class _SpanContext:
    """Context manager opening one recorded span on the ambient stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "RecordingTracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        span = self._span
        span.wall_end = wall_now()
        span.simulated_end = self._tracer._simulated()
        if exc_type is not None:
            span.attributes["error"] = getattr(exc_type, "__name__", str(exc_type))
        self._tracer._pop(span)
        return False


class RecordingTracer:
    """Thread-safe span recorder with ambient (per-thread) nesting.

    ``simulated_now`` is an optional zero-argument callable *reading* a
    simulated clock (e.g. ``database.clock.now``); the tracer never
    advances or charges it.  Spans are kept in an append-only list in
    recording order; tree structure lives in ``parent_id`` links.
    """

    enabled = True

    def __init__(self, simulated_now: Optional[Callable[[], float]] = None) -> None:
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._by_id: Dict[int, Span] = {}
        self._next_id = 1
        self._local = threading.local()
        self._simulated_now = simulated_now
        self.origin = wall_now()

    # -- clocks --------------------------------------------------------

    def now(self) -> float:
        """The monotonic wall clock (absolute, cross-process-consistent)."""
        return wall_now()

    def _simulated(self) -> float:
        if self._simulated_now is None:
            return 0.0
        return self._simulated_now()

    # -- ambient stack -------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def current_span(self) -> Optional[Span]:
        """The innermost open span of the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- recording -----------------------------------------------------

    def _allocate(
        self,
        name: str,
        parent_id: Optional[int],
        request_id: Optional[int],
        wall_start: float,
        wall_end: Optional[float],
        simulated_start: float,
        simulated_end: Optional[float],
        attributes: Dict[str, object],
    ) -> Span:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            span = Span(
                name,
                span_id,
                parent_id=parent_id,
                request_id=request_id,
                wall_start=wall_start,
                wall_end=wall_end,
                simulated_start=simulated_start,
                simulated_end=simulated_end,
                attributes=attributes,
            )
            self._by_id[span_id] = span
            self._spans.append(span)
        return span

    def span(
        self, name: str, request_id: Optional[int] = None, **attributes: object
    ) -> _SpanContext:
        """Open a nested span: ``with tracer.span("setup") as span: ...``.

        The parent is the calling thread's ambient span; the end
        timestamps are captured when the ``with`` block exits.
        """
        parent = self.current_span()
        span = self._allocate(
            name,
            parent_id=parent.span_id if parent is not None else None,
            request_id=request_id,
            wall_start=wall_now(),
            wall_end=None,
            simulated_start=self._simulated(),
            simulated_end=None,
            attributes=dict(attributes),
        )
        return _SpanContext(self, span)

    def record_span(
        self,
        name: str,
        wall_start: float,
        wall_end: float,
        parent: object = None,
        request_id: Optional[int] = None,
        **attributes: object,
    ) -> Span:
        """Record a completed span post-hoc (worker stitching).

        ``parent`` is a :class:`Span`, a span id, or ``None`` (the
        calling thread's ambient span).  The wall timestamps are the
        caller's — typically captured in a worker process on the shared
        monotonic timeline.
        """
        if parent is None:
            ambient = self.current_span()
            parent_id = ambient.span_id if ambient is not None else None
        elif isinstance(parent, Span):
            parent_id = parent.span_id
        else:
            parent_id = int(parent)  # type: ignore[arg-type]
        simulated = self._simulated()
        return self._allocate(
            name,
            parent_id=parent_id,
            request_id=request_id,
            wall_start=wall_start,
            wall_end=wall_end,
            simulated_start=simulated,
            simulated_end=simulated,
            attributes=dict(attributes),
        )

    def instant(self, name: str, **attributes: object) -> Span:
        """Record a zero-duration marker at the current instant."""
        timestamp = wall_now()
        return self.record_span(name, timestamp, timestamp, **attributes)

    # -- queries -------------------------------------------------------

    def spans(self) -> List[Span]:
        """Snapshot of every recorded span, in recording order."""
        with self._lock:
            return list(self._spans)

    def parent_of(self, span: Span) -> Optional[Span]:
        if span.parent_id is None:
            return None
        with self._lock:
            return self._by_id.get(span.parent_id)

    def request_id_of(self, span: Span) -> Optional[int]:
        """The request a span belongs to: nearest ancestor's request id."""
        seen = set()
        current: Optional[Span] = span
        while current is not None:
            if current.request_id is not None:
                return current.request_id
            if current.parent_id is None or current.parent_id in seen:
                return None
            seen.add(current.parent_id)
            current = self.parent_of(current)
        return None

    def request_spans(self, request_id: int) -> List[Span]:
        """Every span attributed to one request, in recording order."""
        return [
            span for span in self.spans() if self.request_id_of(span) == request_id
        ]

    def request_ids(self) -> List[int]:
        """The request ids seen on root spans, ascending."""
        ids = {
            span.request_id for span in self.spans() if span.request_id is not None
        }
        return sorted(ids)


__all__ = ["NullTracer", "RecordingTracer", "Span"]
