"""The partition scheduler: dispatch component work on a parallel backend.

This is the execution layer behind ``parallel_backend``
(:func:`repro.parallel.resolve_parallel_backend`).  It has one entry
point, :func:`run_component_request`, and one dispatch loop.  A request
is described once — a component search
(:class:`~repro.inference.component_walksat.ComponentSearchRequest`: MAP
and Gauss-Seidel's first pass) or an MC-SAT sample request
(:class:`~repro.inference.mcsat.ComponentSampleRequest`) — and shipped
as chunks of component indices.  The request supplies the three things
that differ: its per-component work estimate (the chunk cuts), its
``run_chunk`` and its bulk read of the result regions, so results never
come back as an object per component.

The components (typically straight from a
:class:`~repro.partitioning.loader.LoadPlan` batch, flattened in batch
order) run

* **largest-first** — components are dispatched in decreasing ``size()``
  order (ties by lower index), the classic list-scheduling heuristic the
  simulated Table 7 model already uses, so stragglers start early;
* on one executor per resolved backend — ``serial`` is a strictly
  sequential loop in the calling thread (reusing the caller's cached
  kernel states); ``processes`` is the work-stealing loop over the
  shared-memory :class:`~repro.parallel.pool.WorkerPool`: the pool's task
  queue is a shared cursor over the largest-first order, every worker
  pulls the next chunk the moment it finishes its current one, and
  results ship back through the pool's shared-memory result regions;
* **in chunks** on the processes backend — the stealing loop cuts the
  largest-first order into consecutive chunks by estimated work
  (:func:`chunk_boundaries`, guided self-scheduling: each chunk takes a
  fixed share of the work still undispatched, so chunks shrink to single
  components at the tail) and the pool moves one message per chunk each
  way.  Thousands of tiny components cost a few dozen queue round-trips
  and a few dozen ``run_chunk`` entries; a handful of coarse ones still
  travel one by one.  The worker that takes a chunk
  owns its components, so stealing happens between chunks.

**Deadline accounting is post-hoc bookkeeping, not completion order.**
When ``deadline_seconds`` is set, the components that count are decided
by a rule that references only deterministic quantities: dispatch
position ``p`` is *counted* iff the left-to-right sum of the simulated
costs of positions ``0..p-1`` stays below the deadline — exactly the
spend a single worker executing the dispatch order sequentially would
have accumulated when it reached ``p``.  Everything past the first
excluded position gets the caller's placeholder result, *even if a
worker already ran it* (an over-eager execution is discarded, its
derived RNG stream touched nothing else).  Because the rule never
mentions workers or completion order, deadline outcomes are
bit-identical across ``serial | processes`` and across worker counts.
Simulated costs are nonnegative, so the prefix sums are monotone and the
cutoff becomes *provable* mid-run as soon as the known prefix crosses
the deadline; dispatch stops submitting there, and with a deadline the
chunks are single components and the in-flight window is capped at
``workers``, so at most ``workers - 1`` results are ever discarded.

Results are always returned **in component order** regardless of
completion order, and every aggregate (sequential simulated seconds,
list-scheduling makespan) is computed in the same order as the serial
path, so seeded runs are bit-for-bit identical across backends and
worker counts (``tests/test_parallel_parity.py``).  The execution
telemetry (per-worker component counts on :class:`ScheduledOutcome`; the
``scheduler.steals`` counter and the pool's ``pool.*`` shipping counters
in the metrics registry) is the one deliberately nondeterministic part —
it reports what actually happened on the machine.
"""

from __future__ import annotations

import functools
import operator
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.inference.scheduling import ParallelOutcome, _list_schedule_makespan
from repro.mrf.graph import MRF
from repro.obs.tracer import NullTracer
from repro.parallel.buffers import ResultBufferSet
from repro.parallel.pool import (
    Chunk,
    ChunkContext,
    ComponentOutcome,
    SHIPPED_PICKLE,
    SHIPPED_SHM,
    SHIPPING_COUNTERS,
    WorkerPool,
)
from repro.utils.clock import wall_now
from repro.utils.timer import Stopwatch


class ScheduledOutcome(ParallelOutcome):
    """A :class:`ParallelOutcome` plus the scheduler's dispatch record.

    ``dispatch_order`` and ``skipped`` are deterministic (part of the
    parity contract); the remaining fields are execution telemetry —
    ``executed`` components actually ran, of which ``discarded`` finished
    past the deadline cutoff and were replaced by placeholders;
    ``worker_task_counts`` maps worker id → components run (empty on the
    serial path, which records no per-worker attribution).  Steals and
    the result-shipping split are counted once, in the metrics registry
    (``scheduler.steals``, ``pool.*``).
    """

    def __init__(
        self,
        *args,
        dispatch_order=None,
        skipped=None,
        executed: int = 0,
        discarded: int = 0,
        worker_task_counts=None,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.dispatch_order: List[int] = dispatch_order or []
        self.skipped: List[int] = skipped or []
        self.executed = executed
        self.discarded = discarded
        self.worker_task_counts: Dict[int, int] = worker_task_counts or {}


def dispatch_order(components: Sequence[MRF]) -> List[int]:
    """Largest-first component order (ties broken by lower index)."""
    return sorted(range(len(components)), key=lambda i: (-components[i].size(), i))


#: Guided self-scheduling: a chunk takes ``1 / (CHUNK_SHARE * workers)`` of
#: the estimated work not yet dispatched.  2 leaves half of the work to
#: rebalance after every worker's first chunk.
CHUNK_SHARE = 2


def chunk_boundaries(work: Sequence[int], workers: int) -> List[Tuple[int, int]]:
    """Cut dispatch positions ``0..len(work)`` into consecutive chunks.

    ``work[p]`` is the estimated work of dispatch position ``p``.  Each
    chunk ``(start, stop)`` takes positions while their summed work stays
    within ``remaining / (CHUNK_SHARE * workers)`` — always at least one —
    so early chunks are fat, the tail is single components, and a position
    heavier than the share travels alone.  Every position lands in
    exactly one chunk and order is preserved.
    """
    chunks: List[Tuple[int, int]] = []
    remaining = sum(work)
    divisor = CHUNK_SHARE * max(workers, 1)
    start = 0
    while start < len(work):
        taken = work[start]
        stop = start + 1
        while stop < len(work) and (taken + work[stop]) * divisor <= remaining:
            taken += work[stop]
            stop += 1
        chunks.append((start, stop))
        remaining -= taken
        start = stop
    return chunks


def deadline_cutoff(
    costs: Sequence[Optional[float]], deadline: Optional[float]
) -> Optional[int]:
    """First dispatch position the deadline excludes, if provable.

    ``costs`` holds the simulated seconds of each dispatch position
    (``None`` while unknown).  Position ``p`` is counted iff the
    left-to-right sum of positions ``0..p-1`` is below the deadline; the
    sums are monotone (costs are nonnegative), so the first crossing is
    final the moment every position before it is known — returning a
    cutoff here is therefore sound even while later chunks are still in
    flight.  Returns ``None`` when there is no deadline, or no cutoff is
    provable yet (an unknown cost precedes any crossing).
    """
    if deadline is None:
        return None
    spent = 0.0
    for position, cost in enumerate(costs):
        if spent >= deadline:
            return position
        if cost is None:
            return None
        spent += cost
    return None


class _Dispatch:
    """The bookkeeping of one scheduled run.

    Dispatch order, the per-position simulated costs, per-worker
    attribution, the stealing loop, the post-hoc deadline rule and the
    outcome record — the same for every request kind.
    """

    def __init__(
        self,
        components: Sequence[MRF],
        backend: str,
        workers: int,
        deadline: Optional[float],
        pool: Optional[WorkerPool],
        request_id: int,
        tracer,
    ) -> None:
        if workers <= 0:
            raise ValueError("workers must be positive")
        if backend not in ("serial", "processes"):
            raise ValueError(
                f"unknown scheduler backend {backend!r}; expected 'serial' or 'processes'"
            )
        if backend == "processes":
            if pool is not None and not pool.matches(components):
                raise ValueError(
                    "the provided worker pool was forked over different components"
                )
        else:
            pool = None
        self.components = components
        self.backend = backend
        self.workers = workers
        self.deadline = deadline
        self.pool = pool
        self.owns_pool = False
        self.request_id = request_id
        self.tracer = tracer if tracer is not None else NullTracer()
        self.traced = self.tracer.enabled
        self.order, self.position_of = (
            pool.memo(("dispatch-order",), lambda: _order_and_positions(components))
            if pool is not None
            else _order_and_positions(components)
        )
        self.costs: List[Optional[float]] = [None] * len(self.order)
        self.worker_counts: Dict[int, int] = {}
        #: component index -> worker id, where attribution is known
        self.worker_of: Dict[int, int] = {}
        #: component index -> {"worker", "channel"?, "events"} phase records
        self.task_events: Dict[int, dict] = {}
        #: [first collect start, last collect end] on the processes backend
        self.ship_window: List[Optional[float]] = [None, None]
        self.executed = 0
        self.chunks_sent = 0
        #: The pool's shipping counters when this run started with it.
        self.ship_mark: Optional[Tuple[float, ...]] = None
        self.stopwatch = Stopwatch()

    def start_pool(self) -> WorkerPool:
        """The lent pool, or an ephemeral one this run shuts down."""
        if self.pool is None:
            self.pool = WorkerPool(self.components, self.workers)
            self.owns_pool = True
        self.ship_mark = self.pool.metrics.counters(SHIPPING_COUNTERS)
        return self.pool

    def shipped(self) -> Tuple[int, ...]:
        """This run's ``(shm, pickle, shm bytes)``: pool registry deltas."""
        if self.ship_mark is None:
            return (0, 0, 0)
        now = self.pool.metrics.counters(SHIPPING_COUNTERS)
        return tuple(int(after - before) for after, before in zip(now, self.ship_mark))

    def record(self, worker_id: int, finished, attributed: bool = True) -> None:
        """Note finished ``(index, simulated seconds)`` pairs of one worker."""
        count = 0
        for index, cost in finished:
            self.costs[self.position_of[index]] = cost
            self.worker_of[index] = worker_id
            count += 1
        self.executed += count
        if attributed:
            self.worker_counts[worker_id] = self.worker_counts.get(worker_id, 0) + count

    def steal(self, chunks: Sequence[Tuple[int, int]], window: int, submit, collect) -> None:
        """The stealing loop on the forked pool.

        The pool's task queue *is* the shared cursor: chunks of the
        largest-first order enter it in order and whichever worker frees
        up first takes the head.  ``submit(indices)`` queues one chunk;
        ``collect()`` blocks for one of this request's completion messages
        and returns ``(worker id, finished (index, simulated seconds)
        pairs)``.  At most ``window`` positions are in flight past the
        completed ones, and nothing past a provable deadline cutoff is
        submitted.
        """
        order = self.order
        sent = 0
        submitted = 0
        completed = 0
        while True:
            cutoff = deadline_cutoff(self.costs, self.deadline)
            limit = len(order) if cutoff is None else min(cutoff, len(order))
            while (
                sent < len(chunks)
                and chunks[sent][1] <= limit
                and chunks[sent][1] - completed <= window
            ):
                start, submitted = chunks[sent]
                submit(order[start:submitted])
                sent += 1
            if completed >= submitted:
                break
            collect_start = wall_now() if self.traced else 0.0
            worker_id, finished = collect()
            if self.traced:
                if self.ship_window[0] is None:
                    self.ship_window[0] = collect_start
                self.ship_window[1] = wall_now()
            finished = list(finished)
            completed += len(finished)
            self.record(worker_id, finished)
        self.chunks_sent = sent

    def counted(self) -> List[int]:
        """The counted prefix of the dispatch order (the post-hoc rule)."""
        counted: List[int] = []
        spent = 0.0
        deadline = self.deadline
        for position, index in enumerate(self.order):
            if deadline is not None and spent >= deadline:
                break
            cost = self.costs[position]
            if cost is None:
                raise RuntimeError(
                    "internal scheduler error: counted dispatch position "
                    f"{position} (component {index}) never executed"
                )
            counted.append(index)
            spent += cost
        return counted

    def release_pool(self) -> None:
        """Close out the request on the pool (runs in a ``finally``).

        A request that leaves chunks in flight shuts the pool down there.
        """
        pool = self.pool
        if self.backend == "processes" and pool is not None:
            pool.finish_request()
        if pool is not None and self.owns_pool:
            pool.shutdown()

    def outcome(
        self,
        results,
        durations: Sequence[float],
        counted: List[int],
        skipped: List[int],
        discarded_indices: set,
        metrics,
    ) -> ScheduledOutcome:
        """Emit the run's spans and metrics and build its record."""
        if self.traced:
            _emit_task_spans(
                self.tracer,
                self.order,
                self.task_events,
                self.worker_of,
                self.costs,
                discarded_indices,
                self.ship_window,
                self.backend,
                self.shipped(),
            )
        participating = len(self.worker_counts)
        steals = max(0, self.executed - participating) if participating else 0
        wall_seconds = self.stopwatch.total
        if metrics is not None:
            metrics.increment("scheduler.tasks_executed", self.executed)
            metrics.increment("scheduler.tasks_discarded", len(discarded_indices))
            metrics.increment("scheduler.tasks_skipped", len(skipped))
            metrics.increment("scheduler.steals", steals)
            metrics.increment("scheduler.chunks_dispatched", self.chunks_sent)
            metrics.observe("scheduler.dispatch_wall_seconds", wall_seconds)
        return ScheduledOutcome(
            results=results,
            wall_seconds=wall_seconds,
            sequential_simulated_seconds=functools.reduce(operator.add, durations, 0.0),
            parallel_simulated_seconds=_list_schedule_makespan(durations, self.workers),
            dispatch_order=counted,
            skipped=sorted(skipped),
            executed=self.executed,
            discarded=len(discarded_indices),
            worker_task_counts=self.worker_counts,
        )


def _order_and_positions(components: Sequence[MRF]) -> Tuple[List[int], Dict[int, int]]:
    order = dispatch_order(components)
    return order, {index: position for position, index in enumerate(order)}


def run_component_request(
    components: Sequence[MRF],
    request,
    backend: str,
    workers: int = 1,
    deadline_seconds: Optional[float] = None,
    local_states=None,
    placeholder: Optional[Callable[[int], ComponentOutcome]] = None,
    pool: Optional[WorkerPool] = None,
    request_id: int = 0,
    tracer=None,
    metrics=None,
) -> ScheduledOutcome:
    """Run one request over the components, returning results in component order.

    ``request`` describes the whole request once: a
    :class:`~repro.inference.component_walksat.ComponentSearchRequest` or
    a :class:`~repro.inference.mcsat.ComponentSampleRequest`.  It supplies

    * ``chunk_work(components, order)`` — the estimated work of every
      dispatch position, from which the chunk cuts are made (and
      ``plan_key``, under which a lent pool caches them);
    * ``run_chunk(indices, context, traced)`` — the one loop over a
      chunk's components, in a worker on the ``processes`` backend, in
      this thread against a private copy of the result regions on
      ``serial``; it returns ``(simulated seconds per index, fallbacks,
      shm bytes, events)``;
    * ``read_results(components, buffers, overrides)`` — the one bulk
      read of every region after the last chunk, with ``overrides``
      (component index → :class:`ComponentOutcome`) standing in for the
      results that did not fit their region and for the components a
      deadline skipped.  The outcome's ``results`` is what it returns.

    ``local_states`` supplies the caller's cached kernel states — one per
    component — either as a sequence or as a zero-argument callable; it
    is only consulted (and a callable only invoked) on the serial
    backend.  ``placeholder`` builds the outcome of a component the
    deadline excluded (it must not consume the run's RNG streams — each
    component owns a derived stream, so skipping one never shifts
    another's).

    ``pool`` lends a caller-owned :class:`WorkerPool` (the engine
    session's persistent pool) to the ``processes`` backend: the pool must
    have been forked over exactly these component objects, it is *not*
    shut down here (the owner keeps it warm across calls), and it is
    ignored on the serial backend.  Without it the scheduler builds an
    ephemeral pool whose shared-memory segment is released in a
    ``finally`` even when a chunk raises.  On a lent pool the dispatch
    order and the chunk cuts are cached with the pool.

    ``request_id`` names the session request this run belongs to; every
    chunk carries it, and the pool refuses a reply tagged for any other
    request (see :class:`~repro.parallel.pool.WorkerPool`).

    ``tracer`` / ``metrics`` are the injected observability surfaces
    (defaulting to no-ops).  With a recording tracer, every executed
    component gets a post-hoc ``component[i]`` span — emitted from *this*
    thread in dispatch order, so the merged order is deterministic even
    though completion order is not — stitched with the phase events
    ``run_chunk`` returned, plus one ``ship`` span covering the result
    collection.  Pure read-side telemetry: no RNG, no simulated-clock
    mutation, bit-identical results traced or not.
    """
    run = _Dispatch(
        components, backend, workers, deadline_seconds, pool, request_id, tracer
    )
    if backend == "processes":
        local_states = None
    elif callable(local_states):
        local_states = local_states()
    traced = run.traced
    order = run.order
    fallbacks: Dict[int, ComponentOutcome] = {}
    buffers: Optional[ResultBufferSet] = None

    def note_events(worker_id: int, indices, events, channel: Optional[str]) -> None:
        for index, phases in zip(indices, events):
            info = {"worker": worker_id, "events": phases}
            if channel is not None:
                info["channel"] = SHIPPED_PICKLE if index in fallbacks else channel
            run.task_events[index] = info

    try:
        with run.stopwatch.measure():
            if backend == "serial":
                # Strictly sequential in dispatch order, stopping exactly
                # at the deadline rule — the same search loop as a worker.
                buffers = ResultBufferSet.pack(components, shared=False)
                context = ChunkContext(components, buffers, local_states=local_states)
                spent = 0.0
                if deadline_seconds is None:
                    chunks = [(0, len(order))]
                else:
                    chunks = _single_chunks(len(order))
                for start, stop in chunks:
                    if deadline_seconds is not None and spent >= deadline_seconds:
                        break
                    indices = order[start:stop]
                    costs, returned, _nbytes, events = request.run_chunk(
                        indices, context, traced
                    )
                    fallbacks.update(returned)
                    run.record(0, zip(indices, costs), attributed=False)
                    if events is not None:
                        note_events(0, indices, events, None)
                    spent = functools.reduce(operator.add, costs, spent)
            else:
                pool = run.start_pool()
                buffers = pool.result_buffers
                if deadline_seconds is None:
                    chunks = pool.memo(
                        ("chunks", request.plan_key, workers),
                        lambda: chunk_boundaries(
                            request.chunk_work(components, order), workers
                        ),
                    )
                    window = len(order)
                else:
                    chunks = _single_chunks(len(order))
                    window = max(workers, 1)

                def collect():
                    worker_id, indices, costs, returned, events = pool.next_chunk(
                        request_id
                    )
                    fallbacks.update(returned)
                    if events is not None:
                        note_events(worker_id, indices, events, SHIPPED_SHM)
                    return worker_id, zip(indices, costs)

                run.steal(
                    chunks,
                    window,
                    lambda indices: pool.submit(
                        Chunk(request_id, list(indices), request, traced=traced)
                    ),
                    collect,
                )
            counted = run.counted()
            skipped = order[len(counted):]
            discarded = {
                index for index in skipped if run.costs[run.position_of[index]] is not None
            }
            if skipped and placeholder is None:
                raise RuntimeError(
                    "deadline skipped components but no placeholder was provided"
                )
            overrides = {index: placeholder(index) for index in skipped}
            for index, outcome in fallbacks.items():
                overrides.setdefault(index, outcome)
            # The bulk read: before release_pool, which may shut the pool down.
            results = request.read_results(components, buffers, overrides)
    finally:
        run.release_pool()
        if backend == "serial" and buffers is not None:
            buffers.destroy()

    costs = run.costs
    position_of = run.position_of
    durations = [
        overrides[index].simulated_seconds
        if index in overrides
        else costs[position_of[index]]
        for index in range(len(components))
    ]
    return run.outcome(results, durations, counted, skipped, discarded, metrics)


def _single_chunks(count: int) -> List[Tuple[int, int]]:
    """One chunk per dispatch position (deadline runs)."""
    return [(position, position + 1) for position in range(count)]


def _emit_task_spans(
    tracer,
    order: Sequence[int],
    task_event_map: Dict[int, dict],
    worker_of: Dict[int, int],
    costs: List[Optional[float]],
    discarded_indices: set,
    ship_window: List[Optional[float]],
    backend: str,
    shipped: Sequence[int],
) -> None:
    """Stitch the run's component spans under the ambient (request) span.

    Emitted post-hoc from the request's own thread, iterating dispatch
    positions in order — the merged span order is deterministic no matter
    which worker finished when.  The phase events ``run_chunk`` returned
    become child spans of their component's span; ``shipped`` is the
    run's ``(shm, pickle, shm bytes)`` split for the ``ship`` span.
    """
    for position, index in enumerate(order):
        info = task_event_map.get(index)
        if info is None:
            continue  # excluded by the deadline before anyone ran it
        events = info["events"]
        walls = (events[0]["start"], events[-1]["end"])
        attributes = {
            "component": index,
            "position": position,
            "backend": backend,
        }
        worker = worker_of.get(index, info["worker"])
        if worker is not None:
            attributes["worker"] = worker
        if "channel" in info:
            attributes["channel"] = info["channel"]
        cost = costs[position]
        if cost is not None:
            attributes["simulated_seconds"] = cost
        if index in discarded_indices:
            attributes["discarded"] = True
        task_span = tracer.record_span(
            f"component[{index}]", walls[0], walls[1], **attributes
        )
        for event in events:
            tracer.record_span(
                    event["name"],
                    event["start"],
                    event["end"],
                    parent=task_span,
                    worker=info["worker"],
                )
    if ship_window[0] is not None and ship_window[1] is not None:
        ship_start, ship_end = ship_window[0], ship_window[1]
    else:
        now = tracer.now()
        ship_start = ship_end = now
    shm, pickle, shm_bytes = shipped
    tracer.record_span(
        "ship",
        ship_start,
        ship_end,
        backend=backend,
        shm=shm,
        pickle=pickle,
        shm_bytes=shm_bytes,
    )
