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
pool packs a :class:`~repro.parallel.buffers.ResultBufferSet` —
one reserved region per component per *result bank* — and workers write
each result in place.  A result that does not fit its region (oversized
trace, unexpected atom set) rides the reply pickled instead, counted but
never truncated; shipping telemetry is kept per admitted request
(:meth:`WorkerPool.finish_request` hands the scheduler counters
attributable to exactly one request) with :attr:`WorkerPool.shm_shipped`
/ :attr:`WorkerPool.pickle_shipped` / :attr:`WorkerPool.shm_bytes` still
accumulating pool-lifetime totals.

Concurrent admission: every chunk is tagged with its request id, so one
pool can multiplex several requests' chunk streams over the same worker
set and shared task queue.  Each admitted request checks out a private
result bank for its lifetime; a reply that belongs to another request is
parked as a block for that request's draining thread, so every request
sees exactly its own completions in completion order — the same stream
it would see running alone.

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
import threading
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

    ``request_id`` tags the task with the admitted request it belongs to
    — the pool routes the completion token back to whichever thread is
    draining that request.  ``result_bank`` is assigned by the pool at
    submit time: the request's private copy of the shared-memory result
    regions (``-1`` forces the pickled fallback when no bank is free).
    Neither field feeds the search itself, so they cannot perturb
    results.
    """

    index: int
    kind: str  # "walksat" | "mcsat"
    seed: Optional[int]
    walksat: Optional[WalkSATOptions] = None
    mcsat: Optional[MCSatOptions] = None
    cost_model: CostModel = field(default_factory=CostModel)
    initial_assignment: Optional[Dict[int, bool]] = None
    request_id: int = 0
    result_bank: int = 0
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
    adds only the component indices it covers.  ``bank`` is assigned by
    the pool at submit time, like :attr:`ComponentTask.result_bank`;
    ``traced`` asks for per-component phase events.
    """

    request_id: int
    indices: List[int]
    request: object
    bank: int = 0
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
            chunk.indices, context, chunk.bank, chunk.traced
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
    written into the task's ``(component, result bank)`` shared-memory
    region is acknowledged with ``payload=None`` and channel ``"shm"``;
    when the region refuses it (result too large for the reservation) —
    or the task carries no bank (``result_bank < 0``) — the full outcome
    rides the token instead, tagged ``"pickle"``.  ``events`` is the
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
    shipped_shm = task.result_bank >= 0 and results.write_outcome(
        task.index,
        outcome.result,
        outcome.simulated_seconds,
        mrf.atom_ids,
        bank=task.result_bank,
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
    inherited object and copy-on-write-fault the pages they sit on.
    """
    gc.freeze()
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
    this).

    ``trace_capacity`` overrides the per-component result-region trace
    sizing (tests force the pickled fallback with a tiny capacity);
    ``stall_worker`` is the injected-slow-worker test hook: ``(worker
    index, seconds)`` delays that worker before every task it takes;
    ``result_banks`` is the number of requests that may be in flight at
    once — each gets a private copy of the result regions (a request
    admitted beyond the bank count still runs, shipping its results
    through the pickled fallback).
    """

    def __init__(
        self,
        components: Sequence[MRF],
        workers: int,
        trace_capacity: Optional[int] = None,
        stall_worker: Optional[Tuple[int, float]] = None,
        result_banks: int = 1,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        context = multiprocessing.get_context("fork")
        #: What every worker inherits at fork time and the parent reads
        #: ``atom_ids`` off when it rebuilds a shipped result.
        self._components: List[MRF] = list(components)
        # The only shared-memory allocation: if it raises there is nothing
        # to undo, and everything after it is covered by the ``try`` below.
        self.result_buffers = ResultBufferSet.pack(
            components, trace_capacity, banks=result_banks
        )
        self._closed = False
        #: Dotted-name counters (``pool.*``) — shared with the owning
        #: session's registry when one is injected, private otherwise so
        #: the counters are always present for tests and summaries.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._processes: List[multiprocessing.process.BaseProcess] = []
        #: Shipping telemetry, cumulative over the pool's lifetime;
        #: per-request counters (see :meth:`finish_request`) are what the
        #: scheduler reports, so interleaved requests stay attributable.
        self.shm_shipped = 0
        self.pickle_shipped = 0
        self.shm_bytes = 0
        #: request id -> component index -> submitted, not yet collected task
        self._inflight: Dict[int, Dict[int, ComponentTask]] = {}
        #: request id -> completion tokens unpacked from chunk messages and
        #: not yet collected: a request's own drain queues them here, and
        #: so does a thread draining a *different* request (parking the
        #: whole block for its owner).
        self._ready: Dict[int, Deque[tuple]] = {}
        self._route_lock = threading.Lock()
        #: Wakes request threads the instant a block is parked for them;
        #: one thread at a time (the elected drainer) blocks on the
        #: results queue so a parked token never waits out a poll cycle.
        self._route_cond = threading.Condition(self._route_lock)
        self._drainer_busy = False
        self._bank_of: Dict[int, int] = {}
        self._free_banks: List[int] = list(range(max(1, result_banks)))
        self._request_shipping: Dict[int, List[int]] = {}
        #: Worker-emitted span records, stashed per ``(request, index)``
        #: until the scheduler stitches them (:meth:`take_task_events`).
        self._task_events: Dict[Tuple[int, int], dict] = {}
        self._pickle_warned: set = set()
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
        """True when this pool was forked over exactly these components.

        Identity comparison, element-wise: the workers hold a fork-time
        snapshot of the component MRFs, so reuse is only sound for the
        same objects (the session invalidates the pool when grounding
        produces new ones).
        """
        if self._closed or len(components) != len(self._components):
            return False
        return all(
            ours is theirs for ours, theirs in zip(self._components, components)
        )

    def submit_chunk(self, tasks: Sequence[ComponentTask]) -> None:
        """Queue one chunk — a batch of one request's tasks — as one message.

        The request's first chunk checks out a private bank for the
        request's lifetime (returned by :meth:`finish_request`); when
        every bank is taken its tasks are tagged ``-1`` and their results
        ride the pickled fallback — correct, just slower.  Exhaustion is
        never silent: it counts ``pool.bank_exhausted`` and logs one
        structured warning per starved request.
        """
        if not tasks:
            raise ValueError("a chunk needs at least one task")
        request_id = tasks[0].request_id
        if any(task.request_id != request_id for task in tasks):
            raise ValueError("a chunk carries the tasks of exactly one request")
        with self._route_lock:
            bank = self._checkout_bank(request_id)
            inflight = self._inflight.setdefault(request_id, {})
            for task in tasks:
                task.result_bank = bank
                inflight[task.index] = task
        self._tasks.put(list(tasks))

    def submit_search_chunk(self, chunk: SearchChunk) -> None:
        """Queue one component-search chunk as one message.

        The bank rules are :meth:`submit_chunk`'s; the chunk's results
        come back through :meth:`next_chunk`.
        """
        if not chunk.indices:
            raise ValueError("a chunk needs at least one component")
        with self._route_lock:
            chunk.bank = self._checkout_bank(chunk.request_id)
        self._tasks.put(chunk)

    def _checkout_bank(self, request_id: int) -> int:
        """The request's result bank, checked out on its first chunk.

        Called under the routing lock.  ``-1`` means every bank is taken:
        the request's results ride the pickled fallback.
        """
        bank = self._bank_of.get(request_id)
        if bank is not None:
            return bank
        bank = self._free_banks.pop(0) if self._free_banks else -1
        self._bank_of[request_id] = bank
        if bank >= 0:
            self.metrics.increment("pool.bank_checkouts")
        else:
            self.metrics.increment("pool.bank_exhausted")
            _logger.warning(
                "result-bank exhaustion: request_id=%d has no free result bank "
                "(banks=%d); results will ship via the pickled fallback",
                request_id,
                self.result_buffers.banks,
            )
        return bank

    def bank_of(self, request_id: int) -> int:
        """The result bank the request's chunks were submitted with."""
        with self._route_lock:
            return self._bank_of.get(request_id, -1)

    def memo(self, key: Tuple, build: Callable[[], object]) -> object:
        """A value derived from this pool's component list, built once per key.

        Request plans that depend only on the component list and a few
        request parameters (the dispatch order, a flip allocation, chunk
        cuts) are cached with the pool forked over that list, so a warm
        request does not recompute them.
        """
        with self._route_lock:
            value = self._memo.get(key)
        if value is None:
            value = build()
            with self._route_lock:
                value = self._memo.setdefault(key, value)
        return value

    def next_chunk(self, request_id: int) -> Tuple[int, List[int], List[float], Dict[int, ComponentOutcome], object]:
        """Collect one finished search chunk of ``request_id``.

        Returns ``(worker id, indices, simulated seconds per index,
        fallbacks, events)``: the chunk's results sit in the request's
        result regions, except the ``fallbacks`` (component index →
        outcome) that did not fit theirs.  Raises ``RuntimeError`` (after
        shutting the pool down) when the chunk failed.
        """
        indices, payload, error, worker_id, channel, events = self._route_token(request_id)
        if error is not None:
            self.shutdown()
            raise RuntimeError(
                f"parallel component search failed: chunk from component "
                f"{indices[0]}: {error}"
            )
        costs, fallbacks, nbytes = payload
        self._count_shipped(
            request_id, len(indices) - len(fallbacks), nbytes, sorted(fallbacks)
        )
        return worker_id, indices, costs, fallbacks, events

    def _count_shipped(
        self, request_id: int, shm: int, nbytes: int, pickled: Sequence[int]
    ) -> None:
        """Count shipped results — ``pickled`` lists the fallback indices.

        Updates the pool-lifetime totals, the request's ``[shm, pickle,
        bytes]`` counters and the ``pool.*`` metrics, and warns once per
        request about the pickled fallback.
        """
        with self._route_lock:
            shipping = self._request_shipping.setdefault(request_id, [0, 0, 0])
            self.shm_shipped += shm
            self.shm_bytes += nbytes
            self.pickle_shipped += len(pickled)
            shipping[0] += shm
            shipping[1] += len(pickled)
            shipping[2] += nbytes
            warn_fallback = bool(pickled) and request_id not in self._pickle_warned
            if warn_fallback:
                self._pickle_warned.add(request_id)
        if shm:
            self.metrics.increment("pool.shm_shipped", shm)
            self.metrics.increment("pool.shm_bytes", nbytes)
        if pickled:
            self.metrics.increment("pool.pickle_shipped", len(pickled))
        if warn_fallback:
            _logger.warning(
                "pickled-fallback shipping: request_id=%d component=%d result "
                "did not ship via shared memory (exhausted bank or oversized "
                "result); falling back to the pickled queue",
                request_id,
                pickled[0],
            )

    def next_outcome(self, request_id: int = 0) -> Tuple[ComponentOutcome, int]:
        """Collect one finished task of ``request_id``: ``(outcome, worker id)``.

        Blocks until one of *this request's* in-flight tasks is reported
        complete (the work-stealing drain: the scheduler reacts to each
        completion as it arrives).  Chunk messages belonging to
        other admitted requests are parked for their own draining
        threads (see :meth:`_route_token`), so each request observes
        exactly the completion stream it would see running alone.
        """
        index, payload, error, worker_id, channel, events = self._route_token(request_id)
        with self._route_lock:
            task = self._inflight.get(request_id, {}).pop(index, None)
            if events is not None:
                self._task_events[(request_id, index)] = {
                    "worker": worker_id,
                    "channel": channel,
                    "events": events,
                }
        if error is not None:
            self.shutdown()
            raise RuntimeError(f"parallel component task failed: component {index}: {error}")
        if channel == SHIPPED_SHM:
            if task is None:
                # The token names a task this pool never recorded in
                # flight — an internal routing error.  Guessing a bank
                # would read another request's live result region, so
                # fail loudly instead.
                raise RuntimeError(
                    f"completion token for component {index} of request "
                    f"{request_id} has no in-flight task record"
                )
            bank = task.result_bank
            trace_label = (
                task.walksat.trace_label if task.walksat is not None else ""
            )
            result, simulated_seconds = self.result_buffers.read_outcome(
                index, self._components[index].atom_ids, trace_label, bank=bank
            )
            nbytes = self.result_buffers.outcome_nbytes(index, bank=bank)
            self._count_shipped(request_id, 1, nbytes, ())
            return ComponentOutcome(index, result, simulated_seconds), worker_id
        self._count_shipped(request_id, 0, 0, (index,))
        return payload, worker_id

    def _route_token(self, request_id: int) -> tuple:
        """Return the next completion token belonging to ``request_id``.

        Tokens are ``(index, payload, error, worker id, channel, events)``,
        unpacked from the workers' per-chunk completion messages onto the
        owning request's ready queue.  One thread at a time — the elected
        drainer — blocks on the shared results queue; every other
        admitted request's thread waits on the routing condition
        instead.  A drainer that pulls a message of a different request
        parks its tokens as one block on the owner's queue and wakes
        everyone, so the owner claims them immediately rather than
        waiting out a poll cycle.  The drainer polls with a timeout so a
        worker dying without replying (OOM kill, segfault in an
        extension — mid-chunk included) surfaces as a RuntimeError
        instead of blocking the parent forever — ``_worker_main`` only
        converts *Python* exceptions into error tokens.
        """
        woken = False
        while True:
            claimed = None
            with self._route_cond:
                while True:
                    ready = self._ready.get(request_id)
                    if ready:
                        claimed = ready.popleft()
                        break
                    if not self._drainer_busy:
                        self._drainer_busy = True
                        woken = False
                        break
                    # Timed wait for liveness: if the drainer dies with an
                    # exception after the notify, someone must take over.
                    self._route_cond.wait(timeout=0.5)
                    woken = True
            if claimed is not None:
                if woken:
                    self.metrics.increment("pool.parked_token_wakeups")
                return claimed
            message = None
            try:
                try:
                    message = self._results.get(timeout=0.5)
                except queue_module.Empty:
                    dead = [p for p in self._processes if not p.is_alive()]
                    if dead:
                        self.shutdown()
                        raise RuntimeError(
                            f"{len(dead)} parallel worker(s) died before replying "
                            f"(exit codes {[p.exitcode for p in dead]})"
                        )
            finally:
                with self._route_cond:
                    self._drainer_busy = False
                    if message is not None:
                        owner, worker_id, tokens, cache_hits, cache_misses = message
                        self._ready.setdefault(owner, deque()).extend(
                            (index, payload, error, worker_id, channel, events)
                            for index, payload, error, channel, events in tokens
                        )
                    self._route_cond.notify_all()
            if message is not None:
                if owner != request_id:
                    self.metrics.increment("pool.parked_tokens", len(tokens))
                self.metrics.increment("pool.state_cache_hits", cache_hits)
                self.metrics.increment("pool.state_cache_misses", cache_misses)

    def take_task_events(self, request_id: int) -> Dict[int, dict]:
        """Pop the worker-emitted span records of one request's tasks.

        Returns ``{component index: {"worker", "channel", "events"}}`` —
        the scheduler stitches these under the request's span tree in
        deterministic component order.  Only populated for tasks that
        asked to be traced (``ComponentTask.trace_events``).
        """
        with self._route_lock:
            taken = {
                key[1]: self._task_events.pop(key)
                for key in [k for k in self._task_events if k[0] == request_id]
            }
        return taken

    def finish_request(self, request_id: int) -> Tuple[int, int, int]:
        """Close out one admitted request: return its bank and counters.

        Returns the ``(shm_shipped, pickle_shipped, shm_bytes)`` shipped
        for exactly this request — the scheduler reports these, so a
        warm pool's telemetry never bleeds across requests — and frees
        the request's result bank for the next admission.  A request that
        failed mid-chunk leaves nothing behind either: its uncollected
        tokens and in-flight records are dropped here.
        """
        with self._route_lock:
            bank = self._bank_of.pop(request_id, None)
            if bank is not None and bank >= 0:
                self._free_banks.append(bank)
                self._free_banks.sort()
            self._ready.pop(request_id, None)
            self._inflight.pop(request_id, None)
            self._pickle_warned.discard(request_id)
            for key in [k for k in self._task_events if k[0] == request_id]:
                del self._task_events[key]
            shm, pickled, nbytes = self._request_shipping.pop(request_id, (0, 0, 0))
        return shm, pickled, nbytes

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
