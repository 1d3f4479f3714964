"""The partition scheduler: dispatch component tasks on a parallel backend.

This is the execution layer behind ``parallel_backend``
(:func:`repro.parallel.resolve_parallel_backend`): it takes the caller's
components (typically straight from a :class:`~repro.partitioning.loader.LoadPlan`
batch, flattened in batch order) and one :class:`ComponentTask` per
component, and runs them

* **largest-first** — components are dispatched in decreasing ``size()``
  order (ties by lower index), the classic list-scheduling heuristic the
  simulated Table 7 model already uses, so stragglers start early;
* on one executor per resolved backend — ``serial`` is the executable
  specification, a strictly sequential loop in the calling thread
  (reusing the caller's cached kernel states); ``processes`` is the
  work-stealing loop over the shared-memory
  :class:`~repro.parallel.pool.WorkerPool`: the pool's task queue is a
  shared cursor over the largest-first order, every worker pulls the next
  chunk the moment it finishes its current one, and results ship back
  through the pool's shared-memory result regions;
* **in chunks** on the processes backend — the stealing loop cuts the
  largest-first order into consecutive chunks by estimated work
  (:func:`chunk_boundaries`, guided self-scheduling: each chunk takes a
  fixed share of the work still undispatched, so chunks shrink to single
  tasks at the tail) and the pool moves one message per chunk each way.
  Thousands of tiny components cost a few dozen queue round-trips; a
  handful of coarse ones still travel one by one.  The worker that takes
  a chunk owns its tasks, so stealing happens between chunks.

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
chunks are single tasks and the in-flight window is capped at
``workers``, so at most ``workers - 1`` results are ever discarded.

Results are always returned **in component order** regardless of
completion order, and every aggregate (sequential simulated seconds,
list-scheduling makespan) is computed in the same order as the serial
path, so seeded runs are bit-for-bit identical across backends and
worker counts (``tests/test_parallel_parity.py``).  The
telemetry on :class:`ScheduledOutcome` (steal counts, per-worker task
counts, shm-vs-pickled shipping) is the one deliberately nondeterministic
part — it reports what actually happened on the machine.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.inference.scheduling import ParallelOutcome, _list_schedule_makespan
from repro.mrf.graph import MRF
from repro.obs.tracer import NullTracer
from repro.parallel.pool import (
    ComponentOutcome,
    ComponentTask,
    WorkerPool,
    execute_component_task,
)
from repro.utils.clock import wall_now
from repro.utils.timer import Stopwatch


class ScheduledOutcome(ParallelOutcome):
    """A :class:`ParallelOutcome` plus the scheduler's dispatch record.

    ``dispatch_order`` and ``skipped`` are deterministic (part of the
    parity contract); the remaining fields are execution telemetry —
    ``executed`` tasks actually ran, of which ``discarded`` finished past
    the deadline cutoff and were replaced by placeholders; ``steals`` is
    how many tasks a worker pulled beyond its first (0 on the serial
    path, which records no per-worker attribution);
    ``worker_task_counts`` maps worker id → tasks executed;
    ``shm_shipped`` / ``pickle_shipped`` / ``shm_bytes`` report the
    result-shipping split on the processes backend, counted per request
    (a warm pool's lifetime totals never bleed into one request's
    record).
    """

    def __init__(
        self,
        *args,
        dispatch_order=None,
        skipped=None,
        executed: int = 0,
        discarded: int = 0,
        steals: int = 0,
        worker_task_counts=None,
        shm_shipped: int = 0,
        pickle_shipped: int = 0,
        shm_bytes: int = 0,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.dispatch_order: List[int] = dispatch_order or []
        self.skipped: List[int] = skipped or []
        self.executed = executed
        self.discarded = discarded
        self.steals = steals
        self.worker_task_counts: Dict[int, int] = worker_task_counts or {}
        self.shm_shipped = shm_shipped
        self.pickle_shipped = pickle_shipped
        self.shm_bytes = shm_bytes


def dispatch_order(components: Sequence[MRF]) -> List[int]:
    """Largest-first component order (ties broken by lower index)."""
    return sorted(range(len(components)), key=lambda i: (-components[i].size(), i))


#: Guided self-scheduling: a chunk takes ``1 / (CHUNK_SHARE * workers)`` of
#: the estimated work not yet dispatched.  2 leaves half of the work to
#: rebalance after every worker's first chunk.
CHUNK_SHARE = 2


def task_work(task: ComponentTask, component: MRF) -> int:
    """Estimated work of one task: component size × allocated flips/samples."""
    if task.walksat is not None:
        steps = task.walksat.max_flips
    elif task.mcsat is not None:
        steps = task.mcsat.samples + task.mcsat.burn_in
    else:
        steps = 1
    return component.size() * max(steps, 1)


def chunk_boundaries(work: Sequence[int], workers: int) -> List[Tuple[int, int]]:
    """Cut dispatch positions ``0..len(work)`` into consecutive chunks.

    ``work[p]`` is the estimated work of dispatch position ``p``.  Each
    chunk ``(start, stop)`` takes positions while their summed work stays
    within ``remaining / (CHUNK_SHARE * workers)`` — always at least one —
    so early chunks are fat, the tail is single tasks, and a position
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
    cutoff here is therefore sound even while later tasks are still in
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


def run_component_tasks(
    components: Sequence[MRF],
    tasks: Sequence[ComponentTask],
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
    """Run one task per component, returning results in component order.

    ``local_states`` supplies the caller's cached kernel states — one per
    component, for the WalkSAT state-reuse lifecycle — either as a
    sequence or as a zero-argument callable; it is only consulted (and a
    callable only invoked) on the serial backend, so callers never
    build states the processes backend would ignore.  ``placeholder``
    builds the outcome of a component the deadline excluded (it must not
    consume the run's RNG streams — each component owns a derived stream,
    so skipping one never shifts another's).

    ``pool`` lends a caller-owned :class:`WorkerPool` (the engine
    session's persistent pool) to the ``processes`` backend: the pool must
    have been forked over exactly these component objects, it is *not*
    shut down here (the owner keeps it warm across calls), and it is
    ignored on the serial backend.  Without it the scheduler builds
    an ephemeral pool whose shared-memory segment is released in a
    ``finally`` even when a task raises.

    Deadline-bounded runs count the components chosen by the post-hoc
    prefix rule (see the module docstring): identical across backends
    *and* worker counts.

    ``request_id`` names the admitted request this run belongs to; every
    task is stamped with it, so a shared persistent pool can multiplex
    several concurrent requests' task streams (each request keeps its own
    largest-first cursor, deadline accounting and completion drain —
    whichever worker frees up next simply takes the head of whichever
    stream reaches the shared queue first).  Because dispatch order, the
    derived per-component seeds, and the post-hoc counting rule are all
    per-request, an interleaved run's outcome is bit-identical to running
    the request alone.

    ``tracer`` / ``metrics`` are the injected observability surfaces
    (defaulting to no-ops).  With a recording tracer, every executed
    task gets a post-hoc ``component[i]`` span — emitted from *this*
    thread in dispatch order, so the merged order is deterministic even
    though completion order is not — stitched with the worker-side
    phase events shipped on the completion tokens, plus one ``ship``
    span covering the result drain.  Pure read-side telemetry: no RNG,
    no simulated-clock mutation, bit-identical results traced or not.
    """
    if len(tasks) != len(components):
        raise ValueError("one task per component is required")
    if workers <= 0:
        raise ValueError("workers must be positive")
    if backend not in ("serial", "processes"):
        raise ValueError(
            f"unknown scheduler backend {backend!r}; expected 'serial' or 'processes'"
        )
    if backend == "processes":
        local_states = None
        if pool is not None and not pool.matches(components):
            raise ValueError(
                "the provided worker pool was forked over different components"
            )
    else:
        pool = None
        if callable(local_states):
            local_states = local_states()
    if tracer is None:
        tracer = NullTracer()
    traced = tracer.enabled
    for task in tasks:
        task.request_id = request_id
        task.trace_events = traced
    order = dispatch_order(components)
    position_of = {index: position for position, index in enumerate(order)}
    slots: List[Optional[ComponentOutcome]] = [None] * len(tasks)
    costs: List[Optional[float]] = [None] * len(order)
    worker_counts: Dict[int, int] = {}
    #: component index -> (wall start, wall end) for serial-loop tasks
    task_walls: List[Optional[Tuple[float, float]]] = [None] * len(tasks)
    #: component index -> worker id, where attribution is known
    worker_of: Dict[int, int] = {}
    #: [first drain start, last drain end] on the processes backend
    ship_window: List[Optional[float]] = [None, None]
    task_event_map: Dict[int, dict] = {}
    executed = 0
    stopwatch = Stopwatch()

    owns_pool = False
    shm_shipped = pickle_shipped = shm_bytes = 0
    chunks_sent = 0

    def run_local(index: int) -> ComponentOutcome:
        state = local_states[index] if local_states is not None else None
        return execute_component_task(tasks[index], components[index], state)

    if traced:
        inner_run_local = run_local

        def run_local(index: int) -> ComponentOutcome:
            start = wall_now()
            outcome = inner_run_local(index)
            task_walls[index] = (start, wall_now())
            return outcome

    def record(outcome: ComponentOutcome) -> None:
        slots[outcome.index] = outcome
        costs[position_of[outcome.index]] = outcome.simulated_seconds

    try:
        with stopwatch.measure():
            if backend == "serial":
                # The executable specification: strictly sequential in
                # dispatch order, stopping exactly at the deadline rule.
                spent = 0.0
                for position, index in enumerate(order):
                    if deadline_seconds is not None and spent >= deadline_seconds:
                        break
                    outcome = run_local(index)
                    executed += 1
                    record(outcome)
                    worker_of[index] = 0
                    spent += outcome.simulated_seconds
            else:
                if pool is None:
                    pool = WorkerPool(components, workers)
                    owns_pool = True
                executed, chunks_sent = _run_processes_steal(
                    order, tasks, components, pool, workers, deadline_seconds,
                    costs, slots, position_of, worker_counts, request_id,
                    worker_of=worker_of,
                    ship_window=ship_window if traced else None,
                )

            # Post-hoc bookkeeping: the counted prefix of the dispatch
            # order, by the deterministic rule (module docstring).
            counted: List[int] = []
            spent = 0.0
            for position, index in enumerate(order):
                if deadline_seconds is not None and spent >= deadline_seconds:
                    break
                cost = costs[position]
                if cost is None:
                    raise RuntimeError(
                        "internal scheduler error: counted dispatch position "
                        f"{position} (component {index}) never executed"
                    )
                counted.append(index)
                spent += cost

            skipped: List[int] = []
            discarded = 0
            discarded_indices: set = set()
            for index in order[len(counted):]:
                if slots[index] is not None:
                    discarded += 1
                    discarded_indices.add(index)
                skipped.append(index)
                if placeholder is None:
                    raise RuntimeError(
                        "deadline skipped components but no placeholder was provided"
                    )
                slots[index] = placeholder(index)
    finally:
        if backend == "processes" and pool is not None:
            # Pull the workers' span records before finish_request wipes
            # the request's stash, then close out the admission: collect
            # the shipping counters attributable to exactly this request
            # and free its result bank for the next one.
            if traced:
                task_event_map = pool.take_task_events(request_id)
            shm_shipped, pickle_shipped, shm_bytes = pool.finish_request(request_id)
        if pool is not None and owns_pool:
            pool.shutdown()

    if traced:
        _emit_task_spans(
            tracer,
            order,
            task_walls,
            task_event_map,
            worker_of,
            costs,
            discarded_indices,
            ship_window,
            backend,
            shm_shipped,
            pickle_shipped,
            shm_bytes,
        )

    durations = [slot.simulated_seconds for slot in slots]
    participating = len(worker_counts)
    steals = max(0, executed - participating) if participating else 0
    if metrics is not None:
        metrics.increment("scheduler.tasks_executed", executed)
        metrics.increment("scheduler.tasks_discarded", discarded)
        metrics.increment("scheduler.tasks_skipped", len(skipped))
        metrics.increment("scheduler.steals", steals)
        metrics.increment("scheduler.chunks_dispatched", chunks_sent)
        metrics.observe("scheduler.dispatch_wall_seconds", stopwatch.total)
    return ScheduledOutcome(
        results=[slot.result for slot in slots],
        wall_seconds=stopwatch.total,
        sequential_simulated_seconds=sum(durations),
        parallel_simulated_seconds=_list_schedule_makespan(durations, workers),
        dispatch_order=counted,
        skipped=sorted(skipped),
        executed=executed,
        discarded=discarded,
        steals=steals,
        worker_task_counts=worker_counts,
        shm_shipped=shm_shipped,
        pickle_shipped=pickle_shipped,
        shm_bytes=shm_bytes,
    )


def _emit_task_spans(
    tracer,
    order: Sequence[int],
    task_walls: List[Optional[Tuple[float, float]]],
    task_event_map: Dict[int, dict],
    worker_of: Dict[int, int],
    costs: List[Optional[float]],
    discarded_indices: set,
    ship_window: List[Optional[float]],
    backend: str,
    shm_shipped: int,
    pickle_shipped: int,
    shm_bytes: int,
) -> None:
    """Stitch the run's task spans under the ambient (request) span.

    Emitted post-hoc from the request's own thread, iterating dispatch
    positions in order — the merged span order is deterministic no matter
    which worker finished when.  Worker-side phase events (shipped on the
    completion tokens) become child spans of their task's span.
    """
    for position, index in enumerate(order):
        walls = task_walls[index]
        info = task_event_map.get(index)
        events = info["events"] if info else None
        if walls is None and events:
            walls = (events[0]["start"], events[-1]["end"])
        if walls is None:
            continue  # excluded by the deadline before anyone ran it
        attributes = {
            "component": index,
            "position": position,
            "backend": backend,
        }
        worker = worker_of.get(index, info["worker"] if info else None)
        if worker is not None:
            attributes["worker"] = worker
        if info is not None:
            attributes["channel"] = info["channel"]
        cost = costs[position]
        if cost is not None:
            attributes["simulated_seconds"] = cost
        if index in discarded_indices:
            attributes["discarded"] = True
        task_span = tracer.record_span(
            f"component[{index}]", walls[0], walls[1], **attributes
        )
        if events:
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
    tracer.record_span(
        "ship",
        ship_start,
        ship_end,
        backend=backend,
        shm=shm_shipped,
        pickle=pickle_shipped,
        shm_bytes=shm_bytes,
    )


def _run_processes_steal(
    order: Sequence[int],
    tasks: Sequence[ComponentTask],
    components: Sequence[MRF],
    pool: WorkerPool,
    workers: int,
    deadline: Optional[float],
    costs: List[Optional[float]],
    slots: List[Optional[ComponentOutcome]],
    position_of: Dict[int, int],
    worker_counts: Dict[int, int],
    request_id: int = 0,
    worker_of: Optional[Dict[int, int]] = None,
    ship_window: Optional[List[Optional[float]]] = None,
) -> Tuple[int, int]:
    """The stealing loop on the forked pool: ``(tasks completed, chunks sent)``.

    The pool's task queue *is* the shared cursor: chunks of the
    largest-first order enter it in order and whichever worker frees up
    first takes the head.  Without a deadline the order is cut by
    :func:`chunk_boundaries` and every chunk is submitted up-front
    (maximum stealing, zero parent involvement until completions); with
    one, every chunk is a single task and the in-flight window is capped
    at ``workers``, so no more than ``workers - 1`` tasks can ever run
    past the provable cutoff.

    Under concurrent admission the same queue multiplexes several
    requests' streams — this loop submits only its own request's chunks
    and drains only its own completions (:meth:`WorkerPool.next_outcome`
    parks other requests' tokens for their draining threads), so the
    per-request cursor, window and deadline accounting are untouched by
    interleaving.
    """
    if deadline is None:
        chunks = chunk_boundaries(
            [task_work(tasks[index], components[index]) for index in order], workers
        )
        window = len(order)
    else:
        chunks = [(position, position + 1) for position in range(len(order))]
        window = max(workers, 1)
    sent = 0
    submitted = 0
    completed = 0
    while True:
        cutoff = deadline_cutoff(costs, deadline)
        limit = len(order) if cutoff is None else min(cutoff, len(order))
        while (
            sent < len(chunks)
            and chunks[sent][1] <= limit
            and chunks[sent][1] - completed <= window
        ):
            start, submitted = chunks[sent]
            pool.submit_chunk([tasks[index] for index in order[start:submitted]])
            sent += 1
        if completed >= submitted:
            break
        drain_start = wall_now() if ship_window is not None else 0.0
        outcome, worker_id = pool.next_outcome(request_id)
        if ship_window is not None:
            if ship_window[0] is None:
                ship_window[0] = drain_start
            ship_window[1] = wall_now()
        completed += 1
        slots[outcome.index] = outcome
        costs[position_of[outcome.index]] = outcome.simulated_seconds
        worker_counts[worker_id] = worker_counts.get(worker_id, 0) + 1
        if worker_of is not None:
            worker_of[outcome.index] = worker_id
    return completed, sent
