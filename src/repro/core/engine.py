"""The Tuffy engine: grounding + partitioning + search, end to end.

The engine reproduces the pipeline of the paper's Section 3:

1. **Grounding** (Section 3.1): the program's clauses are grounded bottom-up
   by compiling each clause to a relational query executed by the embedded
   engine (or top-down, for the Alchemy-style baseline).
2. **Hybrid architecture** (Section 3.2): the ground clauses are loaded from
   the clause table into memory and searched with WalkSAT.
3. **Partitioning** (Sections 3.3-3.4): the MRF is split into connected
   components (array labelling); components are packed into memory-budget-sized
   batches for loading, searched independently with a weighted round-robin
   flip budget (optionally in parallel), and components that still exceed
   the memory budget are further split with the greedy partitioner and
   searched with Gauss-Seidel sweeps.

One :class:`TuffyEngine` is a long-lived session.  It owns the
*session-lived* state (database, atom registry, grounding result, MRF,
component decomposition and its split, kernel states, persistent
:class:`~repro.parallel.pool.WorkerPool`), and each request gets its own
:class:`InferenceRequest` (seed, RNG, timer, simulated-clock share), so
repeated :meth:`TuffyEngine.run_map` / :meth:`TuffyEngine.run_marginal`
calls reuse everything that has not changed.

Determinism contract
--------------------
A warm request with seed ``S`` is bit-identical — assignments, costs,
flips, marginals — to a cold engine's run with seed ``S``, on every
``parallel_backend`` and worker count (``tests/test_session_parity.py``).
Every piece of reused state is either immutable between requests (the
grounding result, the component MRFs, the Gauss-Seidel partitions) or
fully rewritten before use (WalkSAT rewrites a reused kernel state at
attempt 0); each request draws a fresh ``RandomSource(seed)``.  The
*first* request also matches the cold run's simulated seconds exactly;
later requests may report fewer, because the simulated buffer cache
absorbs repeated clause-table scans.

Serving
-------
Every request takes one path, :meth:`TuffyEngine._serve`: under the
engine lock it runs ``plan`` inside the ``setup`` span and ``search``
inside the ``search`` span, with one strategy per mode — components,
monolithic, marginal — then ``finish`` builds the
:class:`~repro.core.results.InferenceResult` and the request-log entry.
One request runs at a time: :meth:`run_map` / :meth:`run_marginal` on
the caller's thread, :meth:`submit_map` / :meth:`submit_marginal`
futures in submission order on one executor thread (their ``admission``
span is the wait in that queue).  :meth:`add_evidence`, :meth:`ground`
and :meth:`close` take the same lock, so they wait for the running
request.

Delta-grounding
---------------
:meth:`add_evidence` / :meth:`remove_evidence` mutate the program *and*
the registry in lockstep, bumping only the touched predicate's version
counter; the next :meth:`ground` replays every clause whose predicates
are unchanged and re-runs only the affected relational queries
(:class:`~repro.grounding.bottom_up.GroundingDeltaReport`).  Components
whose atoms and clauses are unchanged are adopted from the previous
decomposition so their caches survive.  The registry's state is a pure
function of (the program at first registry build, the ordered
``add_evidence`` / ``remove_evidence`` calls): a comparator must *replay
the same call sequence* on a fresh engine.

Pool lifecycle
--------------
The persistent pool is keyed on the component list it was forked over
(identity per element).  It is never rebuilt in place — a grounding
change tears it down and the next request forks a fresh one (the
``fork-pool-lifecycle`` analysis rule enforces this).  Unclosed engines
shut the pool and the request executor down at garbage collection via
``weakref.finalize``; call :meth:`close` (or use the engine as a context
manager) for deterministic teardown.
"""

from __future__ import annotations

import functools
import math
import threading
import weakref
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Callable, Deque, Dict, List, NamedTuple, Optional, Tuple

from repro.core.config import InferenceConfig
from repro.core.program import MLNProgram
from repro.core.results import InferenceResult
from repro.grounding.atoms import AtomRegistry
from repro.grounding.bottom_up import BottomUpGrounder, GroundingDeltaReport
from repro.grounding.lazy import active_closure
from repro.grounding.result import GroundingResult
from repro.grounding.top_down import TopDownGrounder
from repro.inference.component_walksat import ComponentAwareWalkSAT
from repro.inference.mcsat import MarginalResult, MCSat, MCSatOptions
from repro.inference.state import SearchState
from repro.inference.walksat import WalkSAT, WalkSATOptions
from repro.mrf.components import ComponentDecomposition, connected_components
from repro.mrf.cost import assignment_cost
from repro.mrf.graph import MRF
from repro.obs.events import Series, merge_series
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NullTracer, RecordingTracer
from repro.parallel import resolve_parallel_backend
from repro.parallel.merge import gauss_seidel_refine
from repro.parallel.pool import WorkerPool
from repro.partitioning.greedy import GreedyPartitioner
from repro.partitioning.loader import BatchLoader
from repro.rdbms.database import Database
from repro.utils.clock import SimulatedClock
from repro.utils.memory import MemoryModel
from repro.utils.rng import RandomSource
from repro.utils.timer import Timer

#: Request-log keys read as registry deltas over the request's own call.
_LOGGED_COUNTERS = {
    "steals": "scheduler.steals",
    "shm_shipped": "pool.shm_shipped",
    "pickle_shipped": "pool.pickle_shipped",
}


def _shutdown_holder(holder: Dict[str, object]) -> None:
    """GC-time teardown (module-level so ``finalize`` holds no engine ref).

    The request executor stops first — queued requests are cancelled, a
    running one may still need the pool — then the pool's workers and
    shared memory go.
    """
    executor = holder.get("executor")
    if executor is not None:
        holder["executor"] = None
        executor.shutdown(wait=True, cancel_futures=True)
    pool = holder.get("pool")
    if pool is not None:
        holder["pool"] = None
        pool.shutdown()


@dataclass(frozen=True)
class SessionStats:
    """A snapshot of the ``session.*`` counters: work reused vs redone."""

    requests: int = 0
    map_requests: int = 0
    marginal_requests: int = 0
    ground_runs: int = 0
    delta_ground_runs: int = 0
    pool_launches: int = 0
    components_adopted: int = 0
    components_rebuilt: int = 0


@dataclass
class InferenceRequest:
    """Per-request state: nothing in here survives to the next request.

    The RNG stream and timer are private, and the simulated database
    seconds are accounted per request: ``ground_mark`` is the grounding
    share captured when the request began, ``db_simulated`` accumulates
    this request's own loading charges.  ``counters_mark`` holds the
    logged registry counters at the start, so the request log reports
    this request's own share of them.
    """

    seed: int
    rng: RandomSource
    timer: Timer = field(default_factory=Timer)
    request_id: int = 0
    kind: str = "map"
    deadline_seconds: Optional[float] = None
    db_simulated: float = 0.0
    ground_mark: float = 0.0
    counters_mark: Tuple[float, ...] = ()


@dataclass
class _Found:
    """What one mode's search found; :meth:`TuffyEngine._finish` adds the rest.

    ``costs`` are added, in order, onto the evidence-violation cost;
    ``simulated_seconds`` onto the request's simulated database seconds.
    """

    label: str
    assignment: Dict[int, bool]
    costs: List[float]
    component_count: int
    flips: int = 0
    trace: Optional[Series] = None
    simulated_seconds: float = 0.0
    peak_state_units: int = 0
    marginals: Optional[MarginalResult] = None


class _Oversized(NamedTuple):
    """A component over the size bound, with its Gauss-Seidel partitions."""

    component: MRF
    partitions: List[List[int]]
    largest_partition: int


class TuffyEngine:
    """End-to-end MAP and marginal inference with the Tuffy architecture.

    A long-lived session over one program: requests run one at a time
    (see the module docstring's *Serving* section) and reuse the
    grounding, MRF, components, kernel states and worker pool.
    """

    def __init__(
        self,
        program: MLNProgram,
        config: Optional[InferenceConfig] = None,
        database: Optional[Database] = None,
    ) -> None:
        self.program = program
        self.config = config or InferenceConfig()
        self.database = database or Database(
            clock=SimulatedClock(self.config.cost_model),
            optimizer_options=self.config.optimizer_options,
        )
        self.memory_model = MemoryModel()
        self.timer = Timer()
        #: Injected observability surfaces (never module-global).  The
        #: tracer *reads* the simulated clock and never advances it; with
        #: tracing off every traced call site pays one no-op call on the
        #: shared ``NullTracer``, and results are bit-identical either way
        #: (the obs parity suite proves it).  The registry is the one
        #: counter of every fact the engine reports.
        self.metrics = MetricsRegistry()
        if self.config.tracing_enabled:
            self.tracer = RecordingTracer(simulated_now=self.database.clock.now)
        else:
            self.tracer = NullTracer()
        #: Bounded summaries of recently finished requests (telemetry
        #: only — nothing in here feeds back into inference).
        self._request_log: Deque[Dict[str, object]] = deque(maxlen=64)
        self.grounding_result: Optional[GroundingResult] = None
        self.mrf: Optional[MRF] = None
        self.components: Optional[ComponentDecomposition] = None
        self._previous_components: Optional[ComponentDecomposition] = None
        self.last_ground_report: Optional[GroundingDeltaReport] = None

        self._registry: Optional[AtomRegistry] = None
        self._grounder: Optional[BottomUpGrounder] = None
        self._ground_version: Optional[int] = None
        #: Simulated seconds the database clock had accumulated when the
        #: current grounding finished — the grounding share of every warm
        #: request's simulated time.
        self._ground_clock_mark: float = 0.0
        #: The components plan's grounding-lived part: the in-budget
        #: components and the oversized ones with their partitions.
        self._split: Optional[Tuple[List[MRF], List[_Oversized]]] = None
        #: Kernel states reused across requests: ``"components"`` (one per
        #: component, serial backend) and ``"monolithic"`` (the full MRF).
        #: Reuse is bit-safe because WalkSAT rewrites a state at attempt 0.
        self._states: Dict[str, object] = {}
        # Held by each request from setup through finish, and by every
        # state change.  Reentrant because the pipeline stages call each
        # other (serve -> ground -> build_mrf ...).
        self._lock = threading.RLock()
        self._next_request_id = 0
        # The pool and request executor live in a plain dict so
        # ``weakref.finalize`` can tear them down after the engine is
        # collected without keeping it alive.  The executor's one thread
        # starts on the first submit.
        self._pool_holder: Dict[str, object] = {
            "pool": None,
            "executor": ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="session-request"
            ),
        }
        self._finalizer = weakref.finalize(self, _shutdown_holder, self._pool_holder)
        self._closed = False

    @property
    def session(self) -> "TuffyEngine":
        """The engine itself (the engine *is* the session).

        Kept only for ``benchmarks/e2e``, which reads
        ``engine.session.registry()`` / ``.last_ground_report``; ROADMAP
        item 10 deletes it together with those reads.
        """
        return self

    @property
    def stats(self) -> SessionStats:
        """A snapshot of the ``session.*`` counters of :attr:`metrics`."""
        counter = self.metrics.counter
        return SessionStats(
            **{
                entry.name: int(counter(f"session.{entry.name}"))
                for entry in fields(SessionStats)
            }
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Finish the running request, cancel queued ones, tear down.

        The running request completes; submitted requests that have not
        started raise ``CancelledError``.  Idempotent; ``submit_*`` /
        ``run_*`` raise afterwards (a closed engine's resources are gone
        and would otherwise be silently — and permanently — recreated).
        """
        self._closed = True
        executor = self._pool_holder.get("executor")
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)
        with self._lock:
            self._finalizer()

    def __enter__(self) -> "TuffyEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Evidence deltas
    # ------------------------------------------------------------------

    def registry(self) -> AtomRegistry:
        """The atom registry (built lazily from the program)."""
        with self._lock:
            if self._registry is None:
                self._registry = self.program.build_atom_registry()
            return self._registry

    def add_evidence(self, predicate_name: str, arguments, truth: bool = True):
        """Add one evidence fact to the program *and* the live registry.

        Forces the registry into existence first so its state is a pure
        function of (program at first build, ordered ``add_evidence`` /
        ``remove_evidence`` calls).  The touched predicate's version
        counter is bumped; the next :meth:`ground` re-runs only the
        clauses reading that predicate.
        """
        with self._lock:
            registry = self.registry()
            atom = self.program.add_evidence(predicate_name, arguments, truth)
            registry.register(atom, truth)
            return atom

    def remove_evidence(self, predicate_name: str, arguments):
        """Retract one evidence fact from the program *and* the registry.

        The atom's id is stable — the registry keeps the record and flips
        its truth (``None`` open-world, ``False`` closed-world); the next
        :meth:`ground` reloads that predicate's atom table and re-runs
        only the clauses reading it.
        """
        with self._lock:
            registry = self.registry()
            atom = self.program.remove_evidence(predicate_name, arguments)
            registry.remove_evidence(atom)
            return atom

    # ------------------------------------------------------------------
    # Pipeline stages (session-lived, delta-aware)
    # ------------------------------------------------------------------

    def ground(self) -> GroundingResult:
        """Ground the program, replaying unchanged clauses from cache."""
        with self._lock:
            registry = self.registry()
            if (
                self.grounding_result is not None
                and self._ground_version == registry.version
            ):
                return self.grounding_result
            config = self.config
            is_delta = self.grounding_result is not None
            clauses = self.program.clauses()
            with self.timer.measure("grounding"), self.tracer.span(
                "ground", delta=is_delta, strategy=config.grounding_strategy
            ):
                if config.grounding_strategy == "bottom-up":
                    result = self._bottom_up_grounder().ground(clauses, registry)
                    self.last_ground_report = self._bottom_up_grounder().last_report
                else:
                    grounder = TopDownGrounder(
                        merge_duplicates=True,
                        memory_model=self.memory_model,
                    )
                    result = grounder.ground(clauses, registry)
                    self.last_ground_report = None
            if config.use_lazy_closure:
                closure = active_closure(result.clauses)
                result = GroundingResult(
                    atoms=result.atoms,
                    clauses=closure.as_store(),
                    seconds=result.seconds,
                    per_clause=result.per_clause,
                    intermediate_tuples=result.intermediate_tuples,
                    strategy=result.strategy,
                )
            self.grounding_result = result
            self._ground_version = registry.version
            self._ground_clock_mark = self.database.clock.now()
            self.metrics.increment("session.ground_runs")
            if is_delta:
                self.metrics.increment("session.delta_ground_runs")
            # The clause store's share of the per-clause ``seconds``: what
            # is left of them is the relational queries themselves.
            self.metrics.increment(
                "grounding.ingest_seconds",
                sum(stats.ingest_seconds for stats in result.per_clause),
            )
            report = self.last_ground_report
            if report is not None:
                # Replay-cache effectiveness: clauses replayed from cache
                # vs relational queries actually re-executed.
                self.metrics.increment(
                    "grounding.replay_hits", report.clauses_replayed
                )
                self.metrics.increment(
                    "grounding.replay_misses", report.queries_executed
                )
            self._invalidate_derived()
            return result

    def build_mrf(self) -> MRF:
        """Build (and cache) the ground MRF for the current grounding."""
        with self._lock:
            grounding = self.ground()
            if self.mrf is None:
                with self.tracer.span("build-mrf"):
                    self.mrf = MRF.from_store(grounding.clauses)
            return self.mrf

    def detect_components(self) -> ComponentDecomposition:
        """Detect components, adopting unchanged ones from the last grounding."""
        with self._lock:
            mrf = self.build_mrf()
            if self.components is None:
                with self.timer.measure("component_detection"), self.tracer.span(
                    "component-detection"
                ):
                    decomposition = connected_components(mrf)
                self._adopt_components(decomposition)
                self.components = decomposition
            return self.components

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------

    def run_map(
        self, seed: Optional[int] = None, deadline_seconds: Optional[float] = None
    ) -> InferenceResult:
        """Run the full MAP pipeline and return the best world found.

        ``seed`` overrides ``config.seed`` and ``deadline_seconds``
        overrides ``config.deadline_seconds`` for this request only;
        repeated calls are warm requests.
        """
        return self._serve("map", seed, deadline_seconds)

    def run_marginal(self, seed: Optional[int] = None) -> InferenceResult:
        """Estimate marginal probabilities with MC-SAT (Appendix A.5).

        Like the MAP pipeline, marginal inference decomposes over the
        MRF's connected components (each is an independent MC-SAT chain
        with a seed-derived RNG stream): with partitioning enabled the
        components are sampled through the ``parallel_backend`` seam.
        Results are bit-identical across parallel backends and worker
        counts.
        """
        return self._serve("marginal", seed, None)

    def submit_map(
        self, seed: Optional[int] = None, deadline_seconds: Optional[float] = None
    ) -> "Future[InferenceResult]":
        """Queue one MAP request without blocking; returns a future.

        Submitted requests are served one at a time, in submission
        order; each result is bit-identical to running the same request
        alone.
        """
        return self._submit("map", seed, deadline_seconds)

    def submit_marginal(self, seed: Optional[int] = None) -> "Future[InferenceResult]":
        """Queue one MC-SAT marginal request without blocking; returns a future."""
        return self._submit("marginal", seed, None)

    # ------------------------------------------------------------------
    # The request pipeline: plan -> search -> finish
    # ------------------------------------------------------------------

    def _serve(
        self,
        kind: str,
        seed: Optional[int],
        deadline_seconds: Optional[float],
        submitted_at: float = 0.0,
    ) -> InferenceResult:
        """One request: plan in ``setup``, search in ``search``, then finish.

        All of it under the engine lock.  ``submitted_at`` is the tracer
        timestamp :meth:`_submit` captured — the gap to serve start is
        the request's ``admission`` span (its wait in the queue).
        """
        with self.tracer.span("request", kind=kind) as root:
            if submitted_at:
                self.tracer.record_span("admission", submitted_at, self.tracer.now())
            with self._lock:
                self._check_open()
                with self.tracer.span("setup"):
                    grounding = self.ground()
                    mrf = self.build_mrf()
                    request = self._begin_request(seed, kind, deadline_seconds)
                    root.annotate(request_id=request.request_id)
                    if kind == "marginal":
                        search = self._plan_marginal(mrf, request)
                    elif self.config.use_partitioning:
                        search = self._plan_components(mrf, request)
                    else:
                        search = self._plan_monolithic(mrf, request)
                with self.tracer.span("search"):
                    with request.timer.measure("search"):
                        found = search()
                    return self._finish(request, grounding, found)

    def _plan_components(
        self, mrf: MRF, request: InferenceRequest
    ) -> Callable[[], _Found]:
        """Tuffy: component-aware search, with Algorithm 3 for oversized parts."""
        config = self.config
        decomposition = self.detect_components()
        size_bound = self._size_bound()
        small, oversized = self._split_components(decomposition, size_bound)

        # Batch loading of the in-budget components (I/O accounting only) —
        # charged to the request, like every per-request database access.
        with request.timer.measure("loading"), self.tracer.span(
            "loading", components=len(small)
        ):
            if small:
                budget = size_bound if size_bound is not None else float(mrf.size() + 1)
                loader = BatchLoader(self.database, budget, self.memory_model)
                mark = self.database.clock.now()
                load_plan = loader.load(small, batched=True)
                request.db_simulated += self.database.clock.now() - mark

        search_small = None
        if small:
            with self.tracer.span("pool-checkout"):
                pool = self._pool_for(small)
            states = None
            if pool is None:
                # The serial backend reuses kernel states across warm
                # requests; the processes backend keeps the equivalent
                # cache inside each pool worker.
                states = self._states.get("components")
                if states is None or len(states) != len(small):
                    states = [SearchState(component) for component in small]
                    self._states["components"] = states
            # A fresh searcher per request: its options and RNG are
            # request-specific, so it must never be shared.
            searcher = ComponentAwareWalkSAT(
                options=WalkSATOptions(
                    max_flips=config.max_flips,
                    max_tries=config.max_tries,
                    noise=config.noise,
                    deadline_seconds=request.deadline_seconds,
                    trace_label="tuffy",
                ),
                rng=request.rng,
                workers=config.workers,
                cost_model=config.cost_model,
                parallel_backend=config.parallel_backend,
                tracer=self.tracer,
                metrics=self.metrics,
            )
            search_small = functools.partial(
                searcher.run,
                small,
                total_flips=config.max_flips,
                pool=pool,
                local_states=states,
                request_id=request.request_id,
            )
            small_peak_units = int(load_plan.peak_batch_size())

        def search() -> _Found:
            found = _Found("tuffy", {}, [], decomposition.component_count)
            traces: List[Series] = []
            if search_small is not None:
                outcome = search_small()
                found.assignment.update(outcome.best_assignment)
                found.costs.append(outcome.best_cost)
                found.flips += outcome.flips
                traces.append(outcome.trace)
                found.simulated_seconds += (
                    outcome.parallel_simulated_seconds
                    if config.workers > 1
                    else outcome.simulated_seconds
                )
                found.peak_state_units = small_peak_units
            for index, part in enumerate(oversized):
                # Partition-parallel first pass + Gauss-Seidel cut repair.
                # The conditioned partition MRFs are fresh objects per call,
                # so the persistent pool (forked over the components) is
                # never lent here.
                outcome = gauss_seidel_refine(
                    part.component,
                    part.partitions,
                    options=WalkSATOptions(
                        max_flips=config.max_flips,
                        noise=config.noise,
                        trace_label=f"gauss-seidel-{index}",
                    ),
                    rng=request.rng.spawn(1000 + index),
                    rounds=config.gauss_seidel_rounds,
                    clock=SimulatedClock(config.cost_model),
                    parallel_backend=config.parallel_backend,
                    workers=config.workers,
                )
                found.assignment.update(outcome.best_assignment)
                found.costs.append(outcome.best_cost)
                found.flips += outcome.flips
                traces.append(outcome.trace)
                found.simulated_seconds += outcome.trace.final_time
                found.peak_state_units = max(
                    found.peak_state_units, part.largest_partition
                )
            found.trace = merge_series(traces, label="tuffy")
            found.peak_state_units = max(found.peak_state_units, 1)
            return found

        return search

    def _plan_monolithic(
        self, mrf: MRF, request: InferenceRequest
    ) -> Callable[[], _Found]:
        """Tuffy-p: one WalkSAT over the whole MRF (no partitioning)."""
        config = self.config
        options = WalkSATOptions(
            max_flips=config.max_flips,
            max_tries=config.max_tries,
            noise=config.noise,
            target_cost=config.target_cost,
            deadline_seconds=request.deadline_seconds,
            trace_label="tuffy-p",
        )
        # Warm path: reuse the full-MRF kernel state across requests.
        state = self._states.get("monolithic")
        if state is None:
            state = self._states["monolithic"] = SearchState(mrf)

        def search() -> _Found:
            clock = SimulatedClock(config.cost_model)
            outcome = WalkSAT(options, request.rng, clock).run_on_state(state, None)
            return _Found(
                "tuffy-p",
                outcome.best_assignment,
                [outcome.best_cost],
                1,
                flips=outcome.flips,
                trace=outcome.trace,
                simulated_seconds=clock.now(),
                peak_state_units=mrf.size(),
            )

        return search

    def _plan_marginal(
        self, mrf: MRF, request: InferenceRequest
    ) -> Callable[[], _Found]:
        """MC-SAT over the components (or the whole MRF)."""
        config = self.config
        sampler = MCSat(
            MCSatOptions(samples=config.mcsat_samples, burn_in=config.mcsat_burn_in),
            request.rng,
        )
        decomposition = self.detect_components() if config.use_partitioning else None
        # With partitioning disabled the decomposition is *not* computed for
        # this request; report one an earlier request already paid for,
        # else the single monolithic search graph.
        known = decomposition if decomposition is not None else self.components
        component_count = known.component_count if known is not None else 1
        components = pool = None
        if decomposition is not None and decomposition.component_count > 1:
            components = decomposition.components
            pool = self._pool_for(components)

        def search() -> _Found:
            if components is not None:
                marginals = sampler.run_components(
                    components,
                    parallel_backend=config.parallel_backend,
                    workers=config.workers,
                    pool=pool,
                    request_id=request.request_id,
                    tracer=self.tracer,
                    metrics=self.metrics,
                )
            else:
                marginals = sampler.run(mrf)
            assignment = marginals.most_likely()
            cost = assignment_cost(mrf, assignment, hard_as_infinite=False)
            return _Found(
                "tuffy-mcsat", assignment, [cost], component_count, marginals=marginals
            )

        return search

    def _finish(
        self, request: InferenceRequest, grounding: GroundingResult, found: _Found
    ) -> InferenceResult:
        """Build the request's result and fold it into the log and registry."""
        # The grounding share plus this request's own loading charges: the
        # value a cold run with the same seed would report.
        database_seconds = request.ground_mark + request.db_simulated
        cost = grounding.clauses.evidence_violation_cost
        for term in found.costs:
            cost += term
        trace = found.trace
        if trace is None:
            trace = Series()
        else:
            trace.grounding_seconds = database_seconds
        # Session phases (grounding, component detection) + request phases.
        phases = {**self.timer.breakdown(), **request.timer.breakdown()}
        result = InferenceResult(
            label=found.label,
            assignment=found.assignment,
            cost=cost,
            atoms=grounding.atoms,
            grounding=grounding,
            flips=found.flips,
            component_count=found.component_count,
            phase_seconds=phases,
            simulated_seconds=database_seconds + found.simulated_seconds,
            trace=trace,
            memory=self.memory_model.snapshot(),
            peak_memory_bytes=self.config.bytes_per_state_unit * found.peak_state_units,
            marginals=found.marginals,
        )
        counters = self.metrics.counters(_LOGGED_COUNTERS.values())
        entry: Dict[str, object] = {
            "request_id": request.request_id,
            "kind": request.kind,
            "seed": request.seed,
            "cost": result.cost,
            "flips": result.flips,
            "components": result.component_count,
            "phase_seconds": dict(phases),
            "simulated_seconds": result.simulated_seconds,
        }
        for key, now, mark in zip(_LOGGED_COUNTERS, counters, request.counters_mark):
            entry[key] = int(now - mark)
        self._request_log.append(entry)
        for phase, seconds in phases.items():
            self.metrics.observe(f"request.phase.{phase}", seconds)
        self.metrics.observe("request.simulated_seconds", result.simulated_seconds)
        return result

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _submit(
        self, kind: str, seed: Optional[int], deadline_seconds: Optional[float]
    ) -> "Future[InferenceResult]":
        """Queue :meth:`_serve` on the request executor.

        Never takes the engine lock, so a submit does not wait for the
        running request.
        """
        self._check_open()
        return self._pool_holder["executor"].submit(
            self._serve, kind, seed, deadline_seconds, self.tracer.now()
        )

    def _check_open(self) -> None:
        """Refuse requests after :meth:`close` (its pool and executor are gone)."""
        if self._closed:
            raise RuntimeError("cannot submit a request to a closed TuffyEngine")

    def _begin_request(
        self, seed: Optional[int], kind: str, deadline_seconds: Optional[float]
    ) -> InferenceRequest:
        """Open a request context."""
        request_seed = self.config.seed if seed is None else seed
        self.metrics.increment("session.requests")
        self.metrics.increment(f"session.{kind}_requests")
        self._next_request_id += 1
        return InferenceRequest(
            seed=request_seed,
            rng=RandomSource(request_seed),
            request_id=self._next_request_id,
            kind=kind,
            deadline_seconds=(
                self.config.deadline_seconds
                if deadline_seconds is None
                else deadline_seconds
            ),
            ground_mark=self._ground_clock_mark,
            counters_mark=self.metrics.counters(_LOGGED_COUNTERS.values()),
        )

    def request_log(self) -> List[Dict[str, object]]:
        """Summaries of recently finished requests, oldest first.

        Bounded (the last 64); each entry carries the request's phase
        seconds, result-shipping split (shared-memory vs pickled) and
        steal count — the registry's counters over the request's own
        call, and the rows behind the CLI's ``--session-concurrent``
        summary table.
        """
        return list(self._request_log)

    def metrics_snapshot(self) -> MetricsRegistry:
        """Refresh the ``io.*`` gauges and return the metrics registry.

        Counters and histograms accumulate live; the gauges mirror the
        database's I/O statistics at call time.
        """
        for name, value in self.database.io_statistics().as_dict().items():
            self.metrics.set_gauge(f"io.{name}", float(value))
        return self.metrics

    def _bottom_up_grounder(self) -> BottomUpGrounder:
        if self._grounder is None:
            config = self.config
            self._grounder = BottomUpGrounder(
                database=self.database,
                optimizer_options=config.optimizer_options,
                merge_duplicates=True,
                memory_model=self.memory_model,
                enable_replay_cache=config.delta_grounding,
                tracer=self.tracer,
            )
        return self._grounder

    def _invalidate_derived(self) -> None:
        """Drop grounding-derived caches after a (re)ground.

        The old decomposition is kept around so :meth:`detect_components`
        can adopt unchanged components; the split (with its Gauss-Seidel
        partitions) and the kernel states go.  The pool is torn down
        immediately — its workers hold the old components as of their
        fork and its result regions were sized for them; neither is ever
        rebuilt in place.
        """
        self.mrf = None
        self._previous_components = self.components
        self.components = None
        self._split = None
        self._states.clear()
        pool = self._pool_holder["pool"]
        if pool is not None:
            self._pool_holder["pool"] = None
            pool.shutdown()

    def _adopt_components(self, decomposition: ComponentDecomposition) -> None:
        """Swap in old component MRFs whose structure is unchanged.

        Adoption preserves the old objects' flat/vector-view caches.
        Bit-parity is unaffected: a component's search depends only on its
        clause literals and weights, which the signature pins exactly.
        """
        previous = self._previous_components
        self._previous_components = None
        if previous is None:
            return
        by_signature = {
            self._component_signature(component): component
            for component in previous.components
        }
        for index, component in enumerate(decomposition.components):
            adopted = by_signature.get(self._component_signature(component))
            if adopted is not None:
                decomposition.components[index] = adopted
                self.metrics.increment("session.components_adopted")
            else:
                self.metrics.increment("session.components_rebuilt")

    @staticmethod
    def _component_signature(component: MRF):
        columns = component.columns()
        return (
            tuple(component.atom_ids),
            columns.offsets.tobytes(),
            columns.literals.tobytes(),
            columns.weights.tobytes(),
        )

    def _split_components(
        self, decomposition: ComponentDecomposition, size_bound: Optional[float]
    ) -> Tuple[List[MRF], List[_Oversized]]:
        """The small/oversized split and the partitions, cached per grounding.

        When nothing is oversized the "small" list *is*
        ``decomposition.components`` — the same object every request — so
        the pool's ``matches()`` check stays warm and the MAP and
        marginal paths share one pool.  The greedy partitioner is
        deterministic and Gauss-Seidel never mutates its partitions, so
        they are computed once per grounding.
        """
        if self._split is None:
            partitioner = GreedyPartitioner(
                size_bound if size_bound is not None else math.inf
            )
            oversized: List[_Oversized] = []
            small: List[MRF] = []
            for component in decomposition.components:
                if size_bound is not None and component.size() > size_bound:
                    partitioning = partitioner.partition(component)
                    oversized.append(
                        _Oversized(
                            component,
                            partitioning.atom_partitions,
                            max(partitioning.sizes(component), default=component.size()),
                        )
                    )
                else:
                    small.append(component)
            if not oversized:
                small = decomposition.components
            self._split = (small, oversized)
        return self._split

    def _pool_for(self, components: List[MRF]) -> Optional[WorkerPool]:
        """The persistent pool for these components, or ``None``.

        Lends a pool only when the backend resolves to ``processes`` for
        this task count.  A pool forked over a different component list —
        or shut down after a fault — is replaced by a freshly forked one
        (never rebuilt in place).
        """
        config = self.config
        resolved = resolve_parallel_backend(
            config.parallel_backend,
            workers=config.workers,
            task_count=len(components),
        )
        if resolved != "processes":
            return None
        pool = self._pool_holder["pool"]
        if pool is not None and pool.matches(components):
            return pool
        if pool is not None:
            self._pool_holder["pool"] = None
            pool.shutdown()
        pool = WorkerPool(components, config.workers, metrics=self.metrics)
        self._pool_holder["pool"] = pool
        self.metrics.increment("session.pool_launches")
        return pool

    def _size_bound(self) -> Optional[float]:
        """Translate the memory budget into a partition size bound (in units)."""
        if self.config.memory_budget_bytes is None:
            return None
        return max(
            self.config.memory_budget_bytes / self.config.bytes_per_state_unit, 1.0
        )
