"""The multiprocess worker pool (and its serial stand-in).

Two kinds of work travel through the pool, both in **chunks** — one
queue message per batch of one request's components, one reply message
back:

* **Component search** (MAP) travels as a :class:`SearchChunk`: the
  request's description, built once by the parent (shared options, cost
  model, base seed, per-component flip allocation — a
  :class:`~repro.inference.component_walksat.ComponentSearchRequest`),
  plus the chunk's component indices.  The worker runs the chunk through
  the request's one search loop against a :class:`ChunkContext` — its
  fork-inherited component list, its cached kernel states and steppers,
  one reusable RNG — writing every result into the component's
  shared-memory region, and answers with a single token for the chunk.
  The serial backend runs the same loop in-process against a private
  copy of the regions.  Nothing is built per component on the parent
  side: after the last chunk it reads every region at once
  (:meth:`~repro.parallel.buffers.ResultBufferSet.read_walksat_columns`).
* **Task lists** (MC-SAT components, Gauss-Seidel partitions) travel as
  lists of :class:`ComponentTask`, each naming a component by index and
  carrying its own run parameters; :func:`execute_component_task` runs
  one, on every backend, and each task answers with its own token
  ``(index, payload, error, channel, events)`` inside the chunk's reply
  (:meth:`WorkerPool.next_outcome` hands them out one by one).

Workers index the component list they inherited through ``fork`` — the
parent's own MRF objects, never shipped, pickled or decoded — build a
component's flat view and kernel state the first time they run it (so a
cold request's state construction is split over the workers) and cache
it.

Finished results ship back through shared memory, not pickling: every
pool packs a :class:`~repro.parallel.buffers.ResultBufferSet` — one
reserved region per component — and workers write each result in place.
A result that does not fit its region (oversized trace, unexpected atom
set) rides the reply pickled instead, counted but never truncated;
:meth:`WorkerPool.finish_request` hands the scheduler the shipping
counters of the request that just ran, with
:attr:`WorkerPool.shm_shipped` / :attr:`WorkerPool.pickle_shipped` /
:attr:`WorkerPool.shm_bytes` accumulating pool-lifetime totals.

A pool serves one request at a time (the engine session's lock
serializes them).  Every chunk carries its request id, and every reply
echoes it: a reply tagged for any other request than the running
one is a fault — it raises ``RuntimeError`` and shuts the pool down,
never consumed.  A request that ends with chunks still in flight shuts
the pool down too, so the next request forks a clean one.

Because every component's search draws on a stream derived only from the
run seed and its index, results are bit-for-bit identical across
backends, worker counts and chunk cuts; only wall-clock time changes.
Workers are forked, so the pool refuses to start when the ``fork``
start method is unavailable (callers resolve ``auto`` to ``serial``
there).
"""

from __future__ import annotations

import gc
import logging
import multiprocessing
import queue as queue_module
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.inference.mcsat import MCSat, MCSatOptions
from repro.inference.state import SearchState
from repro.inference.walksat import WalkSAT, WalkSATOptions
from repro.mrf.graph import MRF
from repro.obs.metrics import MetricsRegistry
from repro.parallel.buffers import ResultBufferSet
from repro.utils.clock import CostModel, SimulatedClock, wall_now, wall_sleep
from repro.utils.rng import RandomSource

_logger = logging.getLogger(__name__)


@dataclass
class ComponentTask:
    """One unit of work: search (or sample) one component.

    ``index`` is the component's position in the caller's component list —
    it names the worker's fork-inherited MRF and the shared-memory result
    region on the processes backend, and the result slot on every backend.
    ``seed`` is the derived child-stream seed
    (``parent_rng.spawn(index + 1).seed``), computed by the caller so the
    stream is a pure function of the run seed and the component id,
    independent of which worker runs the task or when.

    ``request_id`` tags the task with the request it belongs to; the
    reply echoes it and the pool checks it against the running request.
    It never feeds the search itself, so it cannot perturb results.
    """

    index: int
    kind: str  # "walksat" | "mcsat"
    seed: Optional[int]
    walksat: Optional[WalkSATOptions] = None
    mcsat: Optional[MCSatOptions] = None
    cost_model: CostModel = field(default_factory=CostModel)
    initial_assignment: Optional[Dict[int, bool]] = None
    request_id: int = 0
    #: When True, the worker timestamps its phases (state setup, kernel
    #: search, result shipping) on the shared monotonic clock and ships
    #: them on the completion token — bounded by
    #: ``WORKER_TASK_EVENT_BUDGET`` — for the request's span tree.
    #: Pure telemetry: never read by the search itself.
    trace_events: bool = False


@dataclass
class ComponentOutcome:
    """A task's result plus its deterministic simulated duration."""

    index: int
    result: object  # WalkSATResult | MarginalResult
    simulated_seconds: float


@dataclass
class SearchChunk:
    """One chunk of a component-search request: the request plus indices.

    ``request`` describes the whole request once (a
    :class:`~repro.inference.component_walksat.ComponentSearchRequest`:
    shared options, cost model, base seed, flip allocation); the chunk
    adds only the component indices it covers; ``traced`` asks for
    per-component phase events.
    """

    request_id: int
    indices: List[int]
    request: object
    traced: bool = False


class ChunkContext:
    """What a chunk runs against, on either backend.

    The component list, the result regions, the kernel states and one
    reusable RNG that the chunk runner reseeds per component.  A worker's context lives as
    long as the worker and draws states from its bounded cache; the
    serial backend's lives for one run over the caller's ``local_states``
    (or fresh states when there are none).

    :meth:`slot` hands out ``[state, noise, stepper]`` lists: the chunk
    runner keeps the stepper it built for a state there, valid for the
    next search of that state with the same noise because steppers bind
    this context's RNG and the state's in-place buffers.
    """

    def __init__(
        self,
        components: Sequence[MRF],
        results: ResultBufferSet,
        states: Optional["BoundedStateCache"] = None,
        local_states: Optional[Sequence[object]] = None,
        stall_seconds: float = 0.0,
    ) -> None:
        self.components = components
        self.results = results
        self.rng = RandomSource(0)
        self.stall_seconds = stall_seconds
        self._states = states if states is not None else BoundedStateCache()
        self._local_states = local_states
        self._local_slots: Dict[int, list] = {}

    def slot(self, index: int) -> list:
        """The ``[state, noise, stepper]`` slot of component ``index``."""
        if self._local_states is None:
            return _cached_slot(self._states, index, self.components[index])
        slot = self._local_slots.get(index)
        if slot is None:
            slot = self._local_slots[index] = [self._local_states[index], None, None]
        return slot


def execute_component_task(
    task: ComponentTask, mrf: MRF, state=None
) -> ComponentOutcome:
    """Run one task against a component MRF (the task path's executor).

    The task path carries MC-SAT components and Gauss-Seidel partitions;
    component search travels as :class:`SearchChunk` instead.  For
    WalkSAT tasks this is the per-component spec of the component search:
    a fresh :class:`WalkSAT` over the task's derived RNG stream and its
    own simulated clock, run on a (reused or fresh) kernel state —
    ``run_on_state`` rewrites reused states in place at the start of every
    try, so a cached state is bit-identical to a fresh one.
    """
    if task.kind == "walksat":
        options = task.walksat
        if state is None:
            state = SearchState(mrf)
        clock = SimulatedClock(task.cost_model)
        searcher = WalkSAT(options, RandomSource(task.seed), clock)
        result = searcher.run_on_state(state, task.initial_assignment)
        return ComponentOutcome(task.index, result, clock.now())
    if task.kind == "mcsat":
        sampler = MCSat(task.mcsat, RandomSource(task.seed))
        result = sampler.run(mrf, task.initial_assignment)
        return ComponentOutcome(task.index, result, 0.0)
    raise ValueError(f"unknown component task kind {task.kind!r}")


# ----------------------------------------------------------------------
# The worker process
# ----------------------------------------------------------------------

#: Budget of a worker's kernel-state cache, in partitioner size units
#: (Σ ``MRF.size()`` of the cached components).  A persistent pool
#: serving many requests would otherwise grow one kernel state per
#: component it ever touched; the bound is on what the states weigh, not
#: on how many there are, so a session of thousands of tiny components
#: keeps every state resident while a few giant ones still evict.
#: Evicting the least recently used state is bit-safe because
#: ``run_on_state`` rewrites reused states in place at the start of every
#: try — a rebuilt state is identical.
WORKER_STATE_CACHE_UNITS = 1_000_000

#: Completion-token channel tags (the only payloads besides errors).
SHIPPED_SHM = "shm"
SHIPPED_PICKLE = "pickle"
#: A search chunk's single token: its results are in the regions, plus
#: any fallbacks riding the token.
SHIPPED_CHUNK = "chunk"

#: Upper bound on span/event records one task may ship on its completion
#: token.  Worker tracing rides the same queue as completion tokens, so
#: the budget keeps a traced task's token small and its cost bounded no
#: matter what the worker instruments.
WORKER_TASK_EVENT_BUDGET = 8


class BoundedStateCache:
    """An LRU map for worker-side kernel states, bounded by size units.

    Every entry weighs its component's ``MRF.size()``; the least recently
    used entries are evicted while the total exceeds ``budget``, except
    that the newest entry is always admitted (a component larger than
    the whole budget is cached alone).  ``hits`` / ``misses`` count
    :meth:`get` outcomes for the ``pool.state_cache_*`` metrics.
    """

    def __init__(self, budget: int = WORKER_STATE_CACHE_UNITS) -> None:
        self.budget = max(1, budget)
        self.units = 0
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[int, Tuple[object, int]]" = OrderedDict()

    def get(self, key: int) -> Optional[object]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return entry[0]

    def put(self, key: int, state: object, units: int) -> None:
        previous = self._entries.pop(key, None)
        if previous is not None:
            self.units -= previous[1]
        self._entries[key] = (state, units)
        self.units += units
        while self.units > self.budget and len(self._entries) > 1:
            _, (_, evicted_units) = self._entries.popitem(last=False)
            self.units -= evicted_units

    def __len__(self) -> int:
        return len(self._entries)


def _cached_slot(states: BoundedStateCache, index: int, mrf: MRF) -> list:
    """The cached ``[state, noise, stepper]`` slot of a component (built on a miss)."""
    slot = states.get(index)
    if slot is None:
        slot = [SearchState(mrf), None, None]
        states.put(index, slot, mrf.size())
    return slot


def _worker_run_chunk(chunk: SearchChunk, context: ChunkContext) -> tuple:
    """Run one search chunk; return its single completion token.

    The token is ``(indices, payload, error, channel, events)`` with
    ``payload = (simulated seconds per index, fallbacks, shm bytes)`` —
    see :meth:`~repro.inference.component_walksat.ComponentSearchRequest.run_chunk`.
    A chunk that raises answers with an error token naming its first
    component; the parent fails the request on it.
    """
    try:
        costs, fallbacks, shm_bytes, events = chunk.request.run_chunk(
            chunk.indices, context, chunk.traced
        )
    except Exception as error:  # surface, don't hang the parent
        return (chunk.indices, None, repr(error), SHIPPED_CHUNK, None)
    return (chunk.indices, (costs, fallbacks, shm_bytes), None, SHIPPED_CHUNK, events)


def _worker_run_task(
    task: ComponentTask,
    components: Sequence[MRF],
    results: ResultBufferSet,
    states: BoundedStateCache,
) -> tuple:
    """Execute one task of a chunk and return its completion token.

    The token is ``(index, payload, error, channel, events)``: a result
    written into the component's shared-memory region is acknowledged
    with ``payload=None`` and channel ``"shm"``; when the region refuses
    it (result too large for the reservation) the full outcome rides the
    token instead, tagged ``"pickle"``.  ``events`` is the
    bounded per-task span list when the task asked to be traced, else
    ``None``.
    """
    traced = task.trace_events
    setup_start = wall_now() if traced else 0.0
    mrf = components[task.index]
    state = None
    if task.kind == "walksat":
        state = _cached_slot(states, task.index, mrf)[0]
    search_start = wall_now() if traced else 0.0
    outcome = execute_component_task(task, mrf, state)
    search_end = wall_now() if traced else 0.0
    shipped_shm = results.write_outcome(
        task.index, outcome.result, outcome.simulated_seconds, mrf.atom_ids
    )
    events = None
    if traced:
        ship_end = wall_now()
        events = [
            {"name": "state-setup", "start": setup_start, "end": search_start},
            {"name": "kernel-search", "start": search_start, "end": search_end},
            {"name": "ship-result", "start": search_end, "end": ship_end},
        ][:WORKER_TASK_EVENT_BUDGET]
    if shipped_shm:
        return (task.index, None, None, SHIPPED_SHM, events)
    return (task.index, outcome, None, SHIPPED_PICKLE, events)


def _worker_main(
    components: Sequence[MRF],
    results: ResultBufferSet,
    task_queue,
    result_queue,
    worker_id: int,
    stall_seconds: float,
) -> None:
    """Worker loop: take a chunk, run it, answer with one message.

    ``components`` and ``results`` are ``Process`` arguments, which under
    the ``fork`` start method are inherited, never pickled: the component
    MRFs *are* the parent's objects as of the fork.  Kernel states (and
    with them the MRFs' flat views) are built on a component's first use
    here and cached per component, bounded by
    ``WORKER_STATE_CACHE_UNITS`` — so a component re-dispatched across
    rounds (or across a persistent session's requests) reuses its state
    exactly like the serial driver does.

    A queue item is one chunk of one request, in one of two shapes:

    * a :class:`SearchChunk` (component search) runs through the
      request's chunk runner — one search loop over the chunk's
      components, one reused RNG, results written into the regions — and
      answers with a single token for the whole chunk;
    * a non-empty list of :class:`ComponentTask` (MC-SAT components,
      Gauss-Seidel partitions) runs task by task through
      :func:`_worker_run_task` and answers with one token per task.  A
      task that raises ends its chunk: the tokens of the tasks finished
      before it are still delivered, followed by an error token for
      exactly that task.

    The reply is a single ``(request_id, worker_id, tokens, cache_hits,
    cache_misses)`` message, sent only *after* every region write of the
    chunk completes, so the parent's reads are ordered-after the writes
    without any locking.  ``stall_seconds`` is the injected-slow-worker
    test hook: it delays this worker before every component, forcing
    maximal stealing skew while leaving results untouched.

    The first call is ``gc.freeze()``, as the :mod:`gc` docs advise for
    ``fork`` without ``exec``: the parent's heap, inherited whole, moves to
    the permanent generation, so the worker's collections walk only what
    the worker allocates — a full collection would otherwise visit every
    inherited object and copy-on-write-fault the pages they sit on.  A
    worker told to stop does not wait to flush replies nobody will read
    (a pool shut down after a fault leaves them on the queue).
    """
    gc.freeze()
    result_queue.cancel_join_thread()
    states = BoundedStateCache()
    context = ChunkContext(components, results, states, stall_seconds=stall_seconds)
    try:
        while True:
            chunk = task_queue.get()
            if chunk is None:
                break
            hits, misses = states.hits, states.misses
            if isinstance(chunk, SearchChunk):
                request_id = chunk.request_id
                tokens = [_worker_run_chunk(chunk, context)]
            else:
                request_id = chunk[0].request_id
                tokens = []
                for task in chunk:
                    if stall_seconds > 0.0:
                        wall_sleep(stall_seconds)
                    try:
                        tokens.append(_worker_run_task(task, components, results, states))
                    except BaseException as error:  # surface, don't hang the parent
                        tokens.append((task.index, None, repr(error), None, None))
                        break
            result_queue.put(
                (
                    request_id,
                    worker_id,
                    tokens,
                    states.hits - hits,
                    states.misses - misses,
                )
            )
    finally:
        results.close()


class WorkerPool:
    """A pool of forked workers over one component list and its result regions.

    The pool is reusable across runs (the engine session keeps one alive
    between requests — workers' cached kernel states stay warm, and the
    result region is reused request after request) and is a context
    manager: ``with WorkerPool(...) as pool`` guarantees the shared-memory
    segment is unlinked even when the run raises.  The constructor itself
    cleans up on failure: whether shared-memory allocation, queue
    construction or a process start raises, ``/dev/shm`` is left as it
    was found.  Workers hold the component list and the result regions as
    of the fork, so neither is ever rebound or repacked on a live pool —
    build a new pool (the ``fork-pool-lifecycle`` analysis rule enforces
    this).  It runs one request at a time: the caller submits one
    request's chunks, drains them and calls :meth:`finish_request` before
    the next request starts.

    ``trace_capacity`` overrides the per-component result-region trace
    sizing (tests force the pickled fallback with a tiny capacity);
    ``stall_worker`` is the injected-slow-worker test hook: ``(worker
    index, seconds)`` delays that worker before every task it takes.
    """

    def __init__(
        self,
        components: Sequence[MRF],
        workers: int,
        trace_capacity: Optional[int] = None,
        stall_worker: Optional[Tuple[int, float]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        context = multiprocessing.get_context("fork")
        #: What every worker inherits at fork time and the parent reads
        #: ``atom_ids`` off when it rebuilds a shipped result.
        self._components: List[MRF] = list(components)
        # The only shared-memory allocation: if it raises there is nothing
        # to undo, and everything after it is covered by the ``try`` below.
        self.result_buffers = ResultBufferSet.pack(components, trace_capacity)
        self._closed = False
        #: Dotted-name counters (``pool.*``) — shared with the owning
        #: session's registry when one is injected, private otherwise so
        #: the counters are always present for tests and summaries.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._processes: List[multiprocessing.process.BaseProcess] = []
        #: Shipping telemetry, cumulative over the pool's lifetime; the
        #: running request's own ``[shm, pickle, bytes]`` counters (see
        #: :meth:`finish_request`) are what the scheduler reports.
        self.shm_shipped = 0
        self.pickle_shipped = 0
        self.shm_bytes = 0
        self._shipping = [0, 0, 0]
        self._pickle_warned = False
        #: Chunk messages of the running request submitted, not yet answered.
        self._pending = 0
        #: component index -> submitted, not yet collected task
        self._inflight: Dict[int, ComponentTask] = {}
        #: Task-path completion tokens unpacked from replies, not yet collected.
        self._tokens: Deque[tuple] = deque()
        #: Worker-emitted span records, stashed per component index until
        #: the scheduler stitches them (:meth:`take_task_events`).
        self._task_events: Dict[int, dict] = {}
        #: See :meth:`memo`.
        self._memo: Dict[Tuple, object] = {}
        try:
            self._tasks = context.Queue()
            self._results = context.Queue()
            self.workers = max(1, min(workers, len(components) or 1))
            for worker_id in range(self.workers):
                stall_seconds = 0.0
                if stall_worker is not None and stall_worker[0] == worker_id:
                    stall_seconds = float(stall_worker[1])
                self._processes.append(
                    context.Process(
                        target=_worker_main,
                        args=(
                            self._components,
                            self.result_buffers,
                            self._tasks,
                            self._results,
                            worker_id,
                            stall_seconds,
                        ),
                        daemon=True,
                    )
                )
            for process in self._processes:
                process.start()
        except BaseException:
            # Undo a partial start: without this, the shared-memory
            # segment (and any already-forked workers) would leak.
            for process in self._processes:
                if process.is_alive():
                    process.terminate()
                    process.join()
            self._closed = True
            self.result_buffers.destroy()
            raise

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.shutdown()

    def matches(self, components: Sequence[MRF]) -> bool:
        """True when this live pool was forked over exactly these components.

        Identity comparison, element-wise: the workers hold a fork-time
        snapshot of the component MRFs, so reuse is only sound for the
        same objects (the session invalidates the pool when grounding
        produces new ones).  A pool shut down after a fault matches
        nothing, so its owner forks a fresh one.
        """
        if self._closed or len(components) != len(self._components):
            return False
        return all(
            ours is theirs for ours, theirs in zip(self._components, components)
        )

    def submit_chunk(self, tasks: Sequence[ComponentTask]) -> None:
        """Queue one chunk — a batch of one request's tasks — as one message."""
        if not tasks:
            raise ValueError("a chunk needs at least one task")
        request_id = tasks[0].request_id
        if any(task.request_id != request_id for task in tasks):
            raise ValueError("a chunk carries the tasks of exactly one request")
        for task in tasks:
            self._inflight[task.index] = task
        self._pending += 1
        self._tasks.put(list(tasks))

    def submit_search_chunk(self, chunk: SearchChunk) -> None:
        """Queue one component-search chunk as one message.

        Its results come back through :meth:`next_chunk`.
        """
        if not chunk.indices:
            raise ValueError("a chunk needs at least one component")
        self._pending += 1
        self._tasks.put(chunk)

    def memo(self, key: Tuple, build: Callable[[], object]) -> object:
        """A value derived from this pool's component list, built once per key.

        Request plans that depend only on the component list and a few
        request parameters (the dispatch order, a flip allocation, chunk
        cuts) are cached with the pool forked over that list, so a warm
        request does not recompute them.
        """
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build()
        return value

    def next_chunk(self, request_id: int = 0) -> Tuple[int, List[int], List[float], Dict[int, ComponentOutcome], object]:
        """Collect one finished search chunk of ``request_id``.

        Returns ``(worker id, indices, simulated seconds per index,
        fallbacks, events)``: the chunk's results sit in the result
        regions, except the ``fallbacks`` (component index → outcome) that
        did not fit theirs.  Raises ``RuntimeError`` (after shutting the
        pool down) when the chunk failed.
        """
        worker_id, tokens = self._receive(request_id)
        indices, payload, error, _channel, events = tokens[0]
        if error is not None:
            self.shutdown()
            raise RuntimeError(
                f"parallel component search failed: chunk from component "
                f"{indices[0]}: {error}"
            )
        costs, fallbacks, nbytes = payload
        self._count_shipped(len(indices) - len(fallbacks), nbytes, sorted(fallbacks))
        return worker_id, indices, costs, fallbacks, events

    def _count_shipped(self, shm: int, nbytes: int, pickled: Sequence[int]) -> None:
        """Count shipped results — ``pickled`` lists the fallback indices.

        Updates the pool-lifetime totals, the running request's ``[shm,
        pickle, bytes]`` counters and the ``pool.*`` metrics, and warns
        once per request about the pickled fallback.
        """
        shipping = self._shipping
        self.shm_shipped += shm
        self.shm_bytes += nbytes
        self.pickle_shipped += len(pickled)
        shipping[0] += shm
        shipping[1] += len(pickled)
        shipping[2] += nbytes
        if shm:
            self.metrics.increment("pool.shm_shipped", shm)
            self.metrics.increment("pool.shm_bytes", nbytes)
        if pickled:
            self.metrics.increment("pool.pickle_shipped", len(pickled))
            if not self._pickle_warned:
                self._pickle_warned = True
                _logger.warning(
                    "pickled-fallback shipping: component=%d result did not "
                    "fit its shared-memory region; falling back to the "
                    "pickled queue",
                    pickled[0],
                )

    def next_outcome(self, request_id: int = 0) -> Tuple[ComponentOutcome, int]:
        """Collect one finished task of ``request_id``: ``(outcome, worker id)``.

        Blocks until one of the request's in-flight tasks is reported
        complete (the work-stealing drain: the scheduler reacts to each
        completion as it arrives).
        """
        if not self._tokens:
            worker_id, tokens = self._receive(request_id)
            self._tokens.extend((worker_id, token) for token in tokens)
        worker_id, (index, payload, error, channel, events) = self._tokens.popleft()
        task = self._inflight.pop(index, None)
        if events is not None:
            self._task_events[index] = {
                "worker": worker_id,
                "channel": channel,
                "events": events,
            }
        if error is not None:
            self.shutdown()
            raise RuntimeError(f"parallel component task failed: component {index}: {error}")
        if channel == SHIPPED_SHM:
            if task is None:
                raise RuntimeError(
                    f"completion token for component {index} of request "
                    f"{request_id} has no in-flight task record"
                )
            trace_label = (
                task.walksat.trace_label if task.walksat is not None else ""
            )
            result, simulated_seconds = self.result_buffers.read_outcome(
                index, self._components[index].atom_ids, trace_label
            )
            self._count_shipped(1, self.result_buffers.outcome_nbytes(index), ())
            return ComponentOutcome(index, result, simulated_seconds), worker_id
        self._count_shipped(0, 0, (index,))
        return payload, worker_id

    def _receive(self, request_id: int) -> Tuple[int, list]:
        """Wait for the next reply; it must be ``request_id``'s.

        Returns ``(worker id, tokens)``.  The wait is a timed ``get`` so a
        worker dying without replying (OOM kill, segfault in an extension
        — mid-chunk included) surfaces as a ``RuntimeError`` instead of
        blocking the parent forever — ``_worker_main`` only converts
        *Python* exceptions into error tokens.  A reply tagged for another
        request is a fault (a stale reply from a request that did not
        finish cleanly): it shuts the pool down and raises.
        """
        while True:
            try:
                message = self._results.get(timeout=0.5)
                break
            except queue_module.Empty:
                dead = [p for p in self._processes if not p.is_alive()]
                if dead:
                    self.shutdown()
                    raise RuntimeError(
                        f"{len(dead)} parallel worker(s) died before replying "
                        f"(exit codes {[p.exitcode for p in dead]})"
                    )
        owner, worker_id, tokens, cache_hits, cache_misses = message
        if owner != request_id:
            self.shutdown()
            raise RuntimeError(
                f"reply tagged for request {owner} while request "
                f"{request_id} is running"
            )
        self._pending -= 1
        self.metrics.increment("pool.state_cache_hits", cache_hits)
        self.metrics.increment("pool.state_cache_misses", cache_misses)
        return worker_id, tokens

    def take_task_events(self) -> Dict[int, dict]:
        """Pop the worker-emitted span records of the running request's tasks.

        Returns ``{component index: {"worker", "channel", "events"}}`` —
        the scheduler stitches these under the request's span tree in
        deterministic component order.  Only populated for tasks that
        asked to be traced (``ComponentTask.trace_events``).
        """
        taken, self._task_events = self._task_events, {}
        return taken

    def finish_request(self) -> Tuple[int, int, int]:
        """Close out the running request: return and reset its counters.

        Returns the ``(shm_shipped, pickle_shipped, shm_bytes)`` shipped
        for exactly this request, so a warm pool's telemetry never bleeds
        across requests.  A request that ends with chunks still in flight
        (an exception in the parent, a failed chunk) shuts the pool down:
        their replies would otherwise reach the next request.
        """
        if self._pending:
            self.shutdown()
        self._pending = 0
        self._inflight.clear()
        self._tokens.clear()
        self._task_events.clear()
        self._pickle_warned = False
        shipped, self._shipping = self._shipping, [0, 0, 0]
        return shipped[0], shipped[1], shipped[2]

    def drain(self, count: int, request_id: int = 0) -> List[ComponentOutcome]:
        """Collect ``count`` results of one request (any completion order)."""
        return [self.next_outcome(request_id)[0] for _ in range(count)]

    def shutdown(self) -> None:
        if self._closed:
            return
        self._closed = True
        for _ in self._processes:
            self._tasks.put(None)
        for process in self._processes:
            process.join()
        self.result_buffers.destroy()
