"""The multiprocess worker pool (and its serial stand-in).

One kind of message travels through the pool: a :class:`Chunk` — one
queue message per batch of one request's components, one reply message
back.  A chunk is the request's description, built once by the parent,
plus the chunk's component indices:

* a component search (MAP, and Gauss-Seidel's first pass) is a
  :class:`~repro.inference.component_walksat.ComponentSearchRequest`:
  shared options, cost model, base seed, per-component flip allocation
  and stream salts;
* an MC-SAT request is a
  :class:`~repro.inference.mcsat.ComponentSampleRequest`: the sampler
  options and the base seed.

The worker runs the chunk through the request's ``run_chunk`` against a
:class:`ChunkContext` — its fork-inherited component list, its cached
kernel states and steppers, one reusable RNG — writing every result into
the component's shared-memory region, and answers with a single token
for the chunk.  The serial backend runs the same ``run_chunk`` in-process
against a private copy of the regions.  Nothing is built per component
on the parent side: after the last chunk the request reads every region
at once.

Workers index the component list they inherited through ``fork`` — the
parent's own MRF objects, never shipped, pickled or decoded — build a
component's flat view and kernel state the first time they run it (so a
cold request's state construction is split over the workers) and cache
it.

Finished results ship back through shared memory, not pickling: every
pool packs a :class:`~repro.parallel.buffers.ResultBufferSet` — one
reserved region per component — and workers write each result in place.
A search result that does not fit its region (oversized trace) rides the
reply pickled instead, counted but never truncated.  The pool counts what
it ships once, in its metrics registry (:data:`SHIPPING_COUNTERS`); a
request's own share is the difference of two readings around it.

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
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.inference.state import SearchState
from repro.mrf.graph import MRF
from repro.obs.metrics import MetricsRegistry
from repro.parallel.buffers import ResultBufferSet
from repro.utils.rng import RandomSource

_logger = logging.getLogger(__name__)


@dataclass
class ComponentOutcome:
    """One component's result object plus its deterministic simulated duration.

    What a chunk returns for a search result that did not fit its region,
    and what a deadline placeholder supplies for a component it skipped.
    """

    index: int
    result: object  # WalkSATResult
    simulated_seconds: float


@dataclass
class Chunk:
    """One chunk of a request: the request's description plus indices.

    ``request`` describes the whole request once (a
    :class:`~repro.inference.component_walksat.ComponentSearchRequest`
    or a :class:`~repro.inference.mcsat.ComponentSampleRequest`); the
    chunk adds only the component indices it covers; ``traced`` asks for
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

#: Span ``channel`` attributes: how a component's result reached the parent.
SHIPPED_SHM = "shm"
SHIPPED_PICKLE = "pickle"

#: The registry counters of what a pool ships: results through shared
#: memory, results pickled on the reply, and shared-memory bytes.
SHIPPING_COUNTERS = ("pool.shm_shipped", "pool.pickle_shipped", "pool.shm_bytes")


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


def _worker_run_chunk(chunk: Chunk, context: ChunkContext) -> tuple:
    """Run one chunk; return its completion token.

    The token is ``(indices, payload, error, events)`` with ``payload =
    (simulated seconds per index, fallbacks, shm bytes)`` — see
    :meth:`~repro.inference.component_walksat.ComponentSearchRequest.run_chunk`.
    A chunk that raises answers with an error token naming its first
    component; the parent fails the request on it.
    """
    try:
        costs, fallbacks, shm_bytes, events = chunk.request.run_chunk(
            chunk.indices, context, chunk.traced
        )
    except Exception as error:  # surface, don't hang the parent
        return (chunk.indices, None, repr(error), None)
    return (chunk.indices, (costs, fallbacks, shm_bytes), None, events)


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

    A queue item is one :class:`Chunk` of one request.  It runs through
    the request's ``run_chunk`` — one loop over the chunk's components,
    one reused RNG, results written into the regions — and answers with
    a single token for the whole chunk (:func:`_worker_run_chunk`).

    The reply is a single ``(request_id, worker_id, token, cache_hits,
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
            token = _worker_run_chunk(chunk, context)
            result_queue.put(
                (
                    chunk.request_id,
                    worker_id,
                    token,
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
    request's chunks, collects their replies and calls :meth:`finish_request` before
    the next request starts.

    ``trace_capacity`` overrides the per-component result-region trace
    sizing (tests force the pickled fallback with a tiny capacity);
    ``stall_worker`` is the injected-slow-worker test hook: ``(worker
    index, seconds)`` delays that worker before every component it runs.
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
        #: engine's registry when one is injected, private otherwise so
        #: the counters are always present for tests and summaries.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._processes: List[multiprocessing.process.BaseProcess] = []
        self._pickle_warned = False
        #: Chunk messages of the running request submitted, not yet answered.
        self._pending = 0
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

    def submit(self, chunk: Chunk) -> None:
        """Queue one chunk as one message; collect it with :meth:`next_chunk`."""
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
        """Collect one finished chunk of ``request_id``.

        Returns ``(worker id, indices, simulated seconds per index,
        fallbacks, events)``: the chunk's results sit in the result
        regions, except the ``fallbacks`` (component index → outcome) that
        did not fit theirs.  Raises ``RuntimeError`` (after shutting the
        pool down) when the chunk failed.
        """
        worker_id, token = self._receive(request_id)
        indices, payload, error, events = token
        if error is not None:
            self.shutdown()
            raise RuntimeError(
                f"parallel component work failed: chunk from component "
                f"{indices[0]}: {error}"
            )
        costs, fallbacks, nbytes = payload
        self._count_shipped(len(indices) - len(fallbacks), nbytes, sorted(fallbacks))
        return worker_id, indices, costs, fallbacks, events

    def _count_shipped(self, shm: int, nbytes: int, pickled: Sequence[int]) -> None:
        """Count shipped results — ``pickled`` lists the fallback indices.

        Updates the ``pool.*`` counters and warns once per request about
        the pickled fallback.
        """
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

    def _receive(self, request_id: int) -> Tuple[int, tuple]:
        """Wait for the next reply; it must be ``request_id``'s.

        Returns ``(worker id, token)``.  The wait is a timed ``get`` so a
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
        owner, worker_id, token, cache_hits, cache_misses = message
        if owner != request_id:
            self.shutdown()
            raise RuntimeError(
                f"reply tagged for request {owner} while request "
                f"{request_id} is running"
            )
        self._pending -= 1
        self.metrics.increment("pool.state_cache_hits", cache_hits)
        self.metrics.increment("pool.state_cache_misses", cache_misses)
        return worker_id, token

    def finish_request(self) -> None:
        """Close out the running request.

        A request that ends with chunks still in flight (an exception in
        the parent, a failed chunk) shuts the pool down: their replies
        would otherwise reach the next request.
        """
        if self._pending:
            self.shutdown()
        self._pending = 0
        self._pickle_warned = False

    def shutdown(self) -> None:
        if self._closed:
            return
        self._closed = True
        for _ in self._processes:
            self._tasks.put(None)
        for process in self._processes:
            process.join()
        self.result_buffers.destroy()
