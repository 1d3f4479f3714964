"""Long-lived engine sessions: the warm request path.

A cold :class:`~repro.core.engine.TuffyEngine` run pays for everything on
every call: grounding, MRF construction, component detection, kernel-state
allocation and — on the ``processes`` backend — forking a worker pool and
reserving its shared-memory result regions.  :class:`EngineSession` splits
that into *session-lived* state (database, atom registry, grounding result,
MRF, component decomposition, persistent :class:`~repro.parallel.pool.WorkerPool`)
and *per-request* state (:class:`InferenceRequest`: seed, RNG, timer,
simulated clock), so repeated MAP or marginal requests reuse everything
that has not changed.

Determinism contract
--------------------
A warm request with seed ``S`` is bit-identical — assignments, costs,
flips, marginals — to a cold engine run with seed ``S``, on every
``parallel_backend`` and worker count (``tests/test_session_parity.py``).
This holds because every piece of reused state is either immutable
between requests (the grounding result, the component MRFs) or fully
rewritten before use (WalkSAT rewrites a reused kernel state at attempt 0
via ``randomize``/``reset``; each request draws a fresh
``RandomSource(seed)``).  The *first* request also matches the cold run's
simulated seconds exactly; later requests may report fewer, because the
simulated buffer cache absorbs repeated clause-table scans — less I/O is
the point of the warm path, and the deterministic search clock is
unchanged.

Concurrent admission
--------------------
:meth:`submit_map` / :meth:`submit_marginal` admit up to
``config.max_inflight_requests`` requests at once (futures); the blocking
:meth:`run_map` / :meth:`run_marginal` are ``submit`` + ``result()``.
Interleaved requests share the persistent pool (whose shared-memory
result region holds one *bank* per admitted request), the grounding
caches and the kernel-state lease, but each request is self-contained:
its own RNG stream, timer, simulated-time accounting and telemetry.  The
contract extends verbatim: every request's MAP assignment, marginals,
skipped set and scheduling outcome are bit-identical whether the request
runs alone or interleaved with others, on every backend and worker
count — concurrency only changes wall-clock time.

Two rules make that hold.  *Setup is serialized, search is concurrent*:
everything that touches session state (grounding, loading, pool
checkout, lease checkout, stats) happens under the session lock, while
the search itself — the long part — runs outside it.  *Live state is
leased, never shared*: reusable kernel states live in a
:class:`SearchStateLease`; a request checks them out exclusively, and a
concurrent request that finds the lease empty builds its own fresh
states (bit-identical, because WalkSAT fully rewrites states at attempt
0).  A re-ground drains in-flight searches before invalidating derived
state, so buffers are never torn down under a running request.

Delta-grounding
---------------
:meth:`add_evidence` / :meth:`remove_evidence` mutate the program *and*
the session's registry in lockstep, bumping only the touched predicate's
version counter.  The next :meth:`ground` then replays every clause
whose predicates are unchanged from the grounder's replay cache and
re-runs only the affected relational queries
(:class:`~repro.grounding.bottom_up.GroundingDeltaReport` records the
split).  Components whose atoms and clauses are unchanged are adopted
from the previous decomposition so their caches survive the delta.
Retraction keeps the atom record (ids are stable) and flips its truth:
``None`` for open-world predicates (the atom becomes a search variable
again) and ``False`` for closed-world ones, whose unlisted atoms are
implicitly false — see :meth:`~repro.grounding.atoms.AtomRegistry.remove_evidence`.

The evidence-delta determinism contract: the registry's state is a pure
function of (the program at first registry build, the ordered
``add_evidence`` / ``remove_evidence`` calls).  A comparator must *replay
the same call sequence* on a fresh session — building a cold engine from
the final program text would register the delta atoms in a different
order and get different atom ids.

Pool lifecycle
--------------
The persistent pool is keyed on the component list it was forked over
(identity per element): its workers search the component objects they
inherited at fork time.  A pool is never rebuilt in place — a grounding
change tears it down and the next request forks a fresh one (the
``fork-pool-lifecycle`` analysis rule enforces this).
Unclosed sessions shut their pool (and the admission executor) down at
garbage collection via ``weakref.finalize``; call :meth:`close` (or use
the session as a context manager) for deterministic teardown.
"""

from __future__ import annotations

import math
import threading
import weakref
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.config import InferenceConfig
from repro.core.program import MLNProgram
from repro.core.results import InferenceResult
from repro.grounding.atoms import AtomRegistry
from repro.grounding.bottom_up import BottomUpGrounder, GroundingDeltaReport
from repro.grounding.lazy import active_closure
from repro.grounding.result import GroundingResult
from repro.grounding.top_down import TopDownGrounder
from repro.inference.component_walksat import ComponentAwareWalkSAT
from repro.inference.mcsat import MCSat, MCSatOptions
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


def _shutdown_holder(holder: Dict[str, object]) -> None:
    """GC-time teardown (module-level so ``finalize`` holds no session ref).

    The admission executor drains first — in-flight requests may still
    need the pool — then the pool's workers and shared memory go.
    """
    executor = holder.get("executor")
    if executor is not None:
        holder["executor"] = None
        executor.shutdown(wait=True)
    pool = holder.get("pool")
    if pool is not None:
        holder["pool"] = None
        pool.shutdown()


@dataclass
class SessionStats:
    """Counters describing how much work the session reused vs redid."""

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

    Fully self-contained so concurrently admitted requests cannot
    interfere: the RNG stream and timer are private, and the simulated
    database seconds are accounted per request (``ground_mark`` is the
    grounding share captured at admission; ``db_simulated`` accumulates
    this request's own loading charges) instead of being derived from the
    shared clock's motion, which another in-flight request could advance.
    ``session_phases`` snapshots the session timer at the end of this
    request's setup (so phases its own setup recorded — component
    detection on a fresh grounding — are included) and never again, so a
    concurrent re-ground is not billed to this request's phase report.
    """

    seed: int
    rng: RandomSource
    timer: Timer = field(default_factory=Timer)
    request_id: int = 0
    kind: str = "map"
    deadline_seconds: Optional[float] = None
    db_simulated: float = 0.0
    ground_mark: float = 0.0
    session_phases: Dict[str, float] = field(default_factory=dict)


class SearchStateLease:
    """Checked-out/returned cache of reusable kernel search states.

    The warm path reuses kernel states across requests (WalkSAT rewrites
    them at attempt 0, so reuse is bit-safe) — but a *live* state must
    never be shared by two in-flight requests.  The lease makes reuse
    exclusive: :meth:`checkout` hands the cached entry to exactly one
    request (a concurrent request finds the slot empty and builds fresh
    states via ``builder``), and :meth:`checkin` returns it when the
    request finishes.  If two requests check in under the same key the
    first one wins and the other states are dropped — correctness never
    depends on which states are cached, only on exclusivity.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[str, object] = {}

    def checkout(self, key: str, builder: Callable[[], object]):
        """Take exclusive ownership of the cached entry, or build fresh."""
        with self._lock:
            cached = self._entries.pop(key, None)
        if cached is not None:
            return cached
        return builder()

    def checkin(self, key: str, value: object) -> None:
        """Return a checked-out (or freshly built) entry to the cache."""
        with self._lock:
            self._entries.setdefault(key, value)

    def invalidate(self) -> None:
        """Drop every cached entry (after a re-ground)."""
        with self._lock:
            self._entries.clear()

    def held(self, key: str) -> bool:
        """Whether an entry is currently cached (i.e. *not* checked out)."""
        with self._lock:
            return key in self._entries


@dataclass
class _RequestPlan:
    """Everything a request's search phase needs, assembled under the lock.

    The serve methods build the plan during the serialized setup phase
    and then search outside the lock using only the plan, the request and
    immutable session state — no session attribute is written past this
    point (the ``req-state-isolation`` analysis rule checks that).
    """

    lease_key: Optional[str] = None
    leased_value: object = None
    decomposition: Optional[ComponentDecomposition] = None
    size_bound: Optional[float] = None
    small: List[MRF] = field(default_factory=list)
    oversized: List[MRF] = field(default_factory=list)
    load_plan: object = None
    pool: Optional[WorkerPool] = None
    searcher: Optional[ComponentAwareWalkSAT] = None
    options: Optional[WalkSATOptions] = None
    sampler: object = None


class EngineSession:
    """Long-lived inference state shared by a sequence of requests.

    Owns the database, atom registry, grounding result, MRF, component
    decomposition and (on the ``processes`` backend) the persistent worker
    pool; :class:`~repro.core.engine.TuffyEngine` is a thin per-request
    driver over one of these.  Up to ``config.max_inflight_requests``
    submitted requests may be in flight at once (see the module
    docstring's *Concurrent admission* section).
    """

    #: Methods that run per-request code: their bodies must not write any
    #: session-level attribute (reads and calls into the sanctioned
    #: plumbing methods are fine).  The ``req-state-isolation`` analysis
    #: rule enforces this so a request can never corrupt another's state.
    _request_scoped_methods = (
        "_serve_map",
        "_serve_marginal",
        "_prepare_partitioned",
        "_prepare_monolithic",
        "_prepare_marginal",
        "_search_partitioned",
        "_search_monolithic",
        "_search_marginal",
    )

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
        self.stats = SessionStats()
        #: Injected observability surfaces (never module-global).  The
        #: tracer *reads* the simulated clock through a zero-arg callable
        #: and never advances it; with tracing off every traced call site
        #: pays one no-op method call on the shared ``NullTracer``
        #: singletons, and results are bit-identical either way (the obs
        #: parity suite proves it).
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
        self._split: Optional[Tuple[List[MRF], List[MRF]]] = None
        self._state_lease = SearchStateLease()
        # Serializes session-state mutation (grounding, loading, pool and
        # lease checkout).  Reentrant because the pipeline stages call
        # each other (serve -> ground -> build_mrf ...).
        self._lock = threading.RLock()
        # Guards the in-flight search count.  Deliberately separate from
        # ``_lock``: a finishing search only ever takes ``_search_gate``,
        # so ``ground()`` can wait for the drain *while holding*
        # ``_lock`` without deadlocking.
        self._search_gate = threading.Condition(threading.Lock())
        self._active_searches = 0
        self._next_request_id = 0
        # The pool and admission executor live in a plain dict so
        # ``weakref.finalize`` can tear them down after the session is
        # collected without keeping the session alive (tests rarely close
        # engines explicitly).
        self._pool_holder: Dict[str, object] = {"pool": None, "executor": None}
        self._finalizer = weakref.finalize(self, _shutdown_holder, self._pool_holder)
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Drain in-flight requests and tear down executor + pool.

        Idempotent; ``submit_*`` / ``run_*`` raise afterwards (a closed
        session's resources are gone and would otherwise be silently —
        and permanently — recreated).
        """
        self._closed = True
        self._finalizer()

    def __enter__(self) -> "EngineSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Evidence deltas
    # ------------------------------------------------------------------

    def registry(self) -> AtomRegistry:
        """The session's atom registry (built lazily from the program)."""
        with self._lock:
            if self._registry is None:
                self._registry = self.program.build_atom_registry()
            return self._registry

    def add_evidence(self, predicate_name: str, arguments, truth: bool = True):
        """Add one evidence fact to the program *and* the live registry.

        Forces the registry into existence first so its state is a pure
        function of (program at first build, ordered ``add_evidence`` /
        ``remove_evidence`` calls) — the replayable contract the delta
        parity suite relies on.  The touched predicate's version counter
        is bumped; the next :meth:`ground` re-runs only the clauses
        reading that predicate.
        """
        with self._lock:
            registry = self.registry()
            atom = self.program.add_evidence(predicate_name, arguments, truth)
            registry.register(atom, truth)
            return atom

    def remove_evidence(self, predicate_name: str, arguments):
        """Retract one evidence fact from the program *and* the registry.

        The mirror of :meth:`add_evidence` and part of the same replayable
        call sequence.  The atom's id is stable — the registry keeps the
        record and flips its truth (``None`` open-world, ``False``
        closed-world); the predicate version bump makes the next
        :meth:`ground` reload that predicate's atom table and re-run only
        the clauses reading it.
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
        """Ground the program, replaying unchanged clauses from cache.

        A re-ground first waits for every in-flight search to finish:
        the derived state about to be invalidated (pool shared memory,
        leased kernel states) must never be torn down under a running
        request.  New requests cannot start setup meanwhile because this
        method holds the session lock.
        """
        with self._lock:
            registry = self.registry()
            if (
                self.grounding_result is not None
                and self._ground_version == registry.version
            ):
                return self.grounding_result
            self._drain_searches()
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
            self.stats.ground_runs += 1
            self.metrics.increment("session.ground_runs")
            if is_delta:
                self.stats.delta_ground_runs += 1
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

    def submit_map(
        self, seed: Optional[int] = None, deadline_seconds: Optional[float] = None
    ) -> "Future[InferenceResult]":
        """Admit one MAP request; returns a future with its result.

        Up to ``config.max_inflight_requests`` submitted requests run
        interleaved over the shared session state.  ``deadline_seconds``
        overrides ``config.deadline_seconds`` for this request only.
        """
        return self._admission_executor().submit(
            self._serve_map, seed, deadline_seconds, self.tracer.now()
        )

    def submit_marginal(
        self, seed: Optional[int] = None, sampler_factory=None
    ) -> "Future[InferenceResult]":
        """Admit one MC-SAT marginal request; returns a future."""
        return self._admission_executor().submit(
            self._serve_marginal, seed, sampler_factory, self.tracer.now()
        )

    def run_map(
        self, seed: Optional[int] = None, deadline_seconds: Optional[float] = None
    ) -> InferenceResult:
        """Run one MAP request against the warm session state (blocking)."""
        return self.submit_map(seed, deadline_seconds).result()

    def run_marginal(
        self, seed: Optional[int] = None, sampler_factory=None
    ) -> InferenceResult:
        """Run one MC-SAT marginal request against the warm session state.

        ``sampler_factory`` defaults to :class:`~repro.inference.mcsat.MCSat`;
        the engine passes its module-global so tests can monkeypatch it.
        """
        return self.submit_marginal(seed, sampler_factory).result()

    # ------------------------------------------------------------------
    # Request serving (request-scoped: no session-state writes)
    # ------------------------------------------------------------------

    def _serve_map(
        self,
        seed: Optional[int],
        deadline_seconds: Optional[float],
        submitted_at: float = 0.0,
    ) -> InferenceResult:
        """One MAP request: serialized setup, then search outside the lock.

        ``submitted_at`` is the tracer timestamp :meth:`submit_map`
        captured at admission — the gap to serve start is recorded as the
        request's ``admission`` span (queue wait behind other in-flight
        requests).
        """
        with self.tracer.span("request", kind="map") as root:
            if submitted_at:
                self.tracer.record_span("admission", submitted_at, self.tracer.now())
            with self._lock:
                with self.tracer.span("setup"):
                    grounding = self.ground()
                    mrf = self.build_mrf()
                    request = self._begin_request(seed, "map", deadline_seconds)
                    root.annotate(request_id=request.request_id)
                    if self.config.use_partitioning:
                        plan = self._prepare_partitioned(mrf, request)
                        search = self._search_partitioned
                    else:
                        plan = self._prepare_monolithic(mrf, request)
                        search = self._search_monolithic
                self._snapshot_session_phases(request)
                self._enter_search()
            try:
                with self.tracer.span("search"):
                    return search(plan, mrf, grounding, request)
            finally:
                self._finish_request(plan)

    def _serve_marginal(
        self, seed: Optional[int], sampler_factory, submitted_at: float = 0.0
    ) -> InferenceResult:
        """One marginal request: serialized setup, then search outside the lock."""
        with self.tracer.span("request", kind="marginal") as root:
            if submitted_at:
                self.tracer.record_span("admission", submitted_at, self.tracer.now())
            with self._lock:
                with self.tracer.span("setup"):
                    grounding = self.ground()
                    mrf = self.build_mrf()
                    request = self._begin_request(seed, "marginal", None)
                    root.annotate(request_id=request.request_id)
                    plan = self._prepare_marginal(request, sampler_factory)
                self._snapshot_session_phases(request)
                self._enter_search()
            try:
                with self.tracer.span("search"):
                    return self._search_marginal(plan, mrf, grounding, request)
            finally:
                self._finish_request(plan)

    def _prepare_partitioned(self, mrf: MRF, request: InferenceRequest) -> _RequestPlan:
        """Assemble a partitioned-MAP plan (runs under the session lock)."""
        config = self.config
        decomposition = self.detect_components()
        size_bound = self._size_bound()
        small_components, oversized = self._split_components(decomposition, size_bound)
        plan = _RequestPlan(
            decomposition=decomposition,
            size_bound=size_bound,
            small=small_components,
            oversized=oversized,
        )

        # Batch loading of the in-budget components (I/O accounting only) —
        # charged to the request, like every per-request database access.
        with request.timer.measure("loading"), self.tracer.span(
            "loading", components=len(small_components)
        ):
            if small_components:
                budget = size_bound if size_bound is not None else float(mrf.size() + 1)
                loader = BatchLoader(self.database, budget, self.memory_model)
                mark = self.database.clock.now()
                plan.load_plan = loader.load(small_components, batched=True)
                request.db_simulated += self.database.clock.now() - mark

        if small_components:
            with self.tracer.span("pool-checkout"):
                plan.pool = self._pool_for(small_components)
            plan.options = WalkSATOptions(
                max_flips=config.max_flips,
                max_tries=config.max_tries,
                noise=config.noise,
                deadline_seconds=request.deadline_seconds,
                trace_label="tuffy",
            )
            # A fresh searcher per request: its options and RNG are
            # request-specific, so it must never be shared.
            plan.searcher = ComponentAwareWalkSAT(
                options=plan.options,
                rng=request.rng,
                workers=config.workers,
                cost_model=config.cost_model,
                parallel_backend=config.parallel_backend,
                tracer=self.tracer,
                metrics=self.metrics,
            )
            resolved = resolve_parallel_backend(
                config.parallel_backend,
                workers=config.workers,
                task_count=len(small_components),
            )
            if resolved != "processes":
                # The serial backend reuses kernel states across warm
                # requests via the lease; the processes backend keeps the
                # equivalent cache inside each pool worker.
                key = "components"
                with self.tracer.span("lease-checkout") as lease_span:
                    states = self._state_lease.checkout(
                        key, lambda: [SearchState(component) for component in small_components]
                    )
                    if len(states) != len(small_components):
                        states = [SearchState(component) for component in small_components]
                    lease_span.annotate(states=len(states))
                plan.lease_key = key
                plan.leased_value = states
        return plan

    def _prepare_monolithic(self, mrf: MRF, request: InferenceRequest) -> _RequestPlan:
        """Assemble a monolithic (Tuffy-p) plan (runs under the session lock)."""
        config = self.config
        options = WalkSATOptions(
            max_flips=config.max_flips,
            max_tries=config.max_tries,
            noise=config.noise,
            target_cost=config.target_cost,
            deadline_seconds=request.deadline_seconds,
            trace_label="tuffy-p",
        )
        # Warm path: reuse the full-MRF kernel state across requests via
        # the lease.  Safe for bit-parity because attempt 0 of
        # run_on_state fully rewrites it (randomize with random_restarts,
        # reset otherwise); safe for concurrency because checkout is
        # exclusive — an interleaved request builds its own state.
        key = "monolithic"
        state = self._state_lease.checkout(key, lambda: SearchState(mrf))
        return _RequestPlan(lease_key=key, leased_value=state, options=options)

    def _prepare_marginal(
        self, request: InferenceRequest, sampler_factory
    ) -> _RequestPlan:
        """Assemble an MC-SAT plan (runs under the session lock)."""
        config = self.config
        factory = sampler_factory if sampler_factory is not None else MCSat
        sampler = factory(
            MCSatOptions(
                samples=config.mcsat_samples,
                burn_in=config.mcsat_burn_in,
            ),
            request.rng,
        )
        decomposition = (
            self.detect_components() if config.use_partitioning else None
        )
        plan = _RequestPlan(decomposition=decomposition, sampler=sampler)
        if decomposition is not None and decomposition.component_count > 1:
            plan.pool = self._pool_for(decomposition.components)
        return plan

    def _search_partitioned(
        self,
        plan: _RequestPlan,
        mrf: MRF,
        grounding: GroundingResult,
        request: InferenceRequest,
    ) -> InferenceResult:
        """Tuffy: component-aware search, with Algorithm 3 for oversized parts."""
        config = self.config
        assignment: Dict[int, bool] = {}
        total_cost = grounding.clauses.evidence_violation_cost
        total_flips = 0
        traces: List[Series] = []
        simulated_search_seconds = 0.0
        peak_state_units = 0
        steals = 0
        shm_shipped = 0
        pickle_shipped = 0

        with request.timer.measure("search"):
            if plan.small:
                component_outcome = plan.searcher.run(
                    plan.small,
                    total_flips=config.max_flips,
                    pool=plan.pool,
                    local_states=plan.leased_value,
                    request_id=request.request_id,
                )
                assignment.update(component_outcome.best_assignment)
                total_cost += component_outcome.best_cost
                total_flips += component_outcome.flips
                steals = component_outcome.steals
                shm_shipped = component_outcome.shm_shipped
                pickle_shipped = component_outcome.pickle_shipped
                traces.append(component_outcome.trace)
                simulated_search_seconds += (
                    component_outcome.parallel_simulated_seconds
                    if config.workers > 1
                    else component_outcome.simulated_seconds
                )
                if plan.load_plan is not None:
                    peak_state_units = int(
                        max(peak_state_units, plan.load_plan.peak_batch_size())
                    )
                else:
                    peak_state_units = max(
                        peak_state_units,
                        max((c.size() for c in plan.small), default=0),
                    )

            for index, component in enumerate(plan.oversized):
                partitioner = GreedyPartitioner(
                    plan.size_bound if plan.size_bound is not None else math.inf
                )
                partitioning = partitioner.partition(component)
                # Partition-parallel first pass + Gauss-Seidel cut repair.
                # The conditioned partition MRFs are fresh objects per call,
                # so the persistent pool (forked over the session's
                # components) is never lent here.
                outcome = gauss_seidel_refine(
                    component,
                    partitioning.atom_partitions,
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
                assignment.update(outcome.best_assignment)
                total_cost += outcome.best_cost
                total_flips += outcome.flips
                traces.append(outcome.trace)
                simulated_search_seconds += outcome.trace.final_time
                largest_partition = max(
                    partitioning.sizes(component), default=component.size()
                )
                peak_state_units = max(peak_state_units, largest_partition)

        trace = merge_series(traces, label="tuffy")
        trace.grounding_seconds = self._database_simulated(request)
        result = InferenceResult(
            label="tuffy",
            assignment=assignment,
            cost=total_cost,
            atoms=grounding.atoms,
            grounding=grounding,
            flips=total_flips,
            component_count=plan.decomposition.component_count,
            phase_seconds=self._phase_seconds(request),
            simulated_seconds=self._database_simulated(request)
            + simulated_search_seconds,
            trace=trace,
            memory=self.memory_model.snapshot(),
            peak_memory_bytes=config.bytes_per_state_unit * max(peak_state_units, 1),
        )
        self._log_request(
            request,
            result,
            steals=steals,
            shm_shipped=shm_shipped,
            pickle_shipped=pickle_shipped,
        )
        return result

    def _search_monolithic(
        self,
        plan: _RequestPlan,
        mrf: MRF,
        grounding: GroundingResult,
        request: InferenceRequest,
    ) -> InferenceResult:
        """Tuffy-p: one WalkSAT over the whole MRF (no partitioning)."""
        config = self.config
        clock = SimulatedClock(config.cost_model)
        with request.timer.measure("search"):
            searcher = WalkSAT(plan.options, request.rng, clock)
            outcome = searcher.run_on_state(plan.leased_value, None)
        trace = outcome.trace
        trace.grounding_seconds = self._database_simulated(request)
        peak_state_bytes = config.bytes_per_state_unit * mrf.size()
        result = InferenceResult(
            label="tuffy-p",
            assignment=outcome.best_assignment,
            cost=outcome.best_cost + grounding.clauses.evidence_violation_cost,
            atoms=grounding.atoms,
            grounding=grounding,
            flips=outcome.flips,
            component_count=1,
            phase_seconds=self._phase_seconds(request),
            simulated_seconds=self._database_simulated(request) + clock.now(),
            trace=trace,
            memory=self.memory_model.snapshot(),
            peak_memory_bytes=peak_state_bytes,
        )
        self._log_request(request, result)
        return result

    def _search_marginal(
        self,
        plan: _RequestPlan,
        mrf: MRF,
        grounding: GroundingResult,
        request: InferenceRequest,
    ) -> InferenceResult:
        """MC-SAT over the components (or the whole MRF)."""
        config = self.config
        decomposition = plan.decomposition
        with request.timer.measure("search"):
            if decomposition is not None and decomposition.component_count > 1:
                marginals = plan.sampler.run_components(
                    decomposition.components,
                    parallel_backend=config.parallel_backend,
                    workers=config.workers,
                    pool=plan.pool,
                    request_id=request.request_id,
                    tracer=self.tracer,
                    metrics=self.metrics,
                )
            else:
                marginals = plan.sampler.run(mrf)
        assignment = marginals.most_likely()
        cost = assignment_cost(mrf, assignment, hard_as_infinite=False)
        # With partitioning disabled the decomposition is *not* computed for
        # this request; reuse one an earlier request already paid for, else
        # report the single monolithic search graph.
        if decomposition is not None:
            component_count = decomposition.component_count
        elif self.components is not None:
            component_count = self.components.component_count
        else:
            component_count = 1
        result = InferenceResult(
            label="tuffy-mcsat",
            assignment=assignment,
            cost=cost + grounding.clauses.evidence_violation_cost,
            atoms=grounding.atoms,
            grounding=grounding,
            component_count=component_count,
            phase_seconds=self._phase_seconds(request),
            simulated_seconds=self._database_simulated(request),
            memory=self.memory_model.snapshot(),
            marginals=marginals,
        )
        self._log_request(request, result)
        return result

    # ------------------------------------------------------------------
    # Session plumbing
    # ------------------------------------------------------------------

    def _admission_executor(self) -> ThreadPoolExecutor:
        """The lazily-created request executor (admission width = config).

        Refuses after :meth:`close`: the finalizer has already torn the
        executor and pool down, so a late submit would silently recreate
        both with nothing left to ever shut them down again.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot submit a request to a closed EngineSession")
            executor = self._pool_holder.get("executor")
            if executor is None:
                executor = ThreadPoolExecutor(
                    max_workers=self.config.max_inflight_requests,
                    thread_name_prefix="session-request",
                )
                self._pool_holder["executor"] = executor
            return executor

    def _begin_request(
        self, seed: Optional[int], kind: str, deadline_seconds: Optional[float]
    ) -> InferenceRequest:
        """Open a request context (runs under the session lock)."""
        request_seed = self.config.seed if seed is None else seed
        self.stats.requests += 1
        self.metrics.increment("session.requests")
        if kind == "map":
            self.stats.map_requests += 1
            self.metrics.increment("session.map_requests")
        else:
            self.stats.marginal_requests += 1
            self.metrics.increment("session.marginal_requests")
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
            session_phases=dict(self.timer.breakdown()),
        )

    def _enter_search(self) -> None:
        """Count this request as in-flight (still under the session lock)."""
        with self._search_gate:
            self._active_searches += 1

    def _finish_request(self, plan: Optional[_RequestPlan]) -> None:
        """Check leased state back in and release the in-flight slot.

        Check-in happens *before* the slot release: a re-ground waiting in
        :meth:`_drain_searches` proceeds only after the lease is whole
        again, so its ``invalidate`` drops every state.
        """
        if plan is not None and plan.lease_key is not None:
            self._state_lease.checkin(plan.lease_key, plan.leased_value)
        with self._search_gate:
            self._active_searches -= 1
            self._search_gate.notify_all()

    def _drain_searches(self) -> None:
        """Wait until no search is in flight (called holding the session lock).

        The finish path (:meth:`_finish_request`) never takes the session
        lock, so waiting here while holding it cannot deadlock.
        """
        with self._search_gate:
            while self._active_searches:
                self._search_gate.wait()

    def _log_request(
        self,
        request: InferenceRequest,
        result: InferenceResult,
        steals: int = 0,
        shm_shipped: int = 0,
        pickle_shipped: int = 0,
    ) -> None:
        """Fold one finished request into the log and the metrics registry.

        Sanctioned plumbing for the request-scoped search methods: it
        mutates only the bounded request log and the (thread-safe)
        metrics registry — telemetry no other request ever reads back
        into its inference path.
        """
        phases = dict(result.phase_seconds)
        self._request_log.append(
            {
                "request_id": request.request_id,
                "kind": request.kind,
                "seed": request.seed,
                "cost": result.cost,
                "flips": result.flips,
                "components": result.component_count,
                "phase_seconds": phases,
                "simulated_seconds": result.simulated_seconds,
                "steals": steals,
                "shm_shipped": shm_shipped,
                "pickle_shipped": pickle_shipped,
            }
        )
        for phase, seconds in phases.items():
            self.metrics.observe(f"request.phase.{phase}", seconds)
        self.metrics.observe("request.simulated_seconds", result.simulated_seconds)

    def request_log(self) -> List[Dict[str, object]]:
        """Summaries of recently finished requests, oldest first.

        Bounded (the session keeps the last 64); each entry carries the
        request's phase seconds, result-shipping split (shared-memory vs
        pickled) and steal count — the rows behind the CLI's
        ``--session-concurrent`` summary table.
        """
        return list(self._request_log)

    def metrics_snapshot(self) -> MetricsRegistry:
        """Refresh the session/io gauges and return the metrics registry.

        Counters and histograms accumulate live; the gauges mirror
        session stats and the database's I/O statistics at call time.
        """
        stats = self.stats
        self.metrics.set_gauge("session.pool_launches", float(stats.pool_launches))
        self.metrics.set_gauge(
            "session.components_adopted", float(stats.components_adopted)
        )
        self.metrics.set_gauge(
            "session.components_rebuilt", float(stats.components_rebuilt)
        )
        for name, value in self.database.io_statistics().as_dict().items():
            self.metrics.set_gauge(f"io.{name}", float(value))
        return self.metrics

    def _database_simulated(self, request: InferenceRequest) -> float:
        """Simulated database seconds visible to this request.

        The grounding share (captured at admission) plus whatever this
        request itself charged to the database clock during loading — so
        request N sees the same value a cold run with the same seed
        would, even when other requests advance the shared clock
        concurrently.
        """
        return request.ground_mark + request.db_simulated

    def _snapshot_session_phases(self, request: InferenceRequest) -> None:
        """Re-snapshot the session timer at the end of this request's setup.

        Runs under the session lock, after plan preparation: session
        phases this request itself triggered — ``component_detection``
        on a fresh grounding — land in its phase report, while phases a
        *later* request records (a concurrent re-ground) stay out.
        """
        request.session_phases = dict(self.timer.breakdown())

    def _phase_seconds(self, request: InferenceRequest) -> Dict[str, float]:
        """Session phases as of this request's setup + request phases."""
        return {**request.session_phases, **request.timer.breakdown()}

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
        can adopt unchanged components; the pool is torn down immediately —
        its workers hold the old components as of their fork and its result
        regions were sized for them; neither is ever rebuilt in place.  Safe
        against in-flight requests because :meth:`ground` drains them first.
        """
        self.mrf = None
        self._previous_components = self.components
        self.components = None
        self._split = None
        self._state_lease.invalidate()
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
                self.stats.components_adopted += 1
            else:
                self.stats.components_rebuilt += 1

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
    ) -> Tuple[List[MRF], List[MRF]]:
        """The small/oversized split, cached with stable list identity.

        When nothing is oversized the "small" list *is*
        ``decomposition.components`` — the same object every request — so
        the pool's ``matches()`` check stays warm and the MAP and
        marginal paths share one pool.
        """
        if self._split is None:
            oversized: List[MRF] = []
            small: List[MRF] = []
            for component in decomposition.components:
                if size_bound is not None and component.size() > size_bound:
                    oversized.append(component)
                else:
                    small.append(component)
            if not oversized:
                small = decomposition.components
            self._split = (small, oversized)
        return self._split

    def _pool_for(self, components: List[MRF]) -> Optional[WorkerPool]:
        """The persistent pool for these components, or ``None``.

        Lends a pool only when the backend actually resolves to
        ``processes`` for this task count and ``persistent_pool`` is on.
        A pool forked over a different component list is torn down and a
        fresh one forked (never rebuilt in place) — but only after every
        in-flight search has drained: a concurrently admitted request may
        still be reading the old pool's shared-memory result regions, and
        ``shutdown`` destroys them (the same guard :meth:`ground` applies
        before :meth:`_invalidate_derived`).  Setup is serialized under
        the session lock and the caller has not yet entered its own
        search, so the drain cannot wait on itself.  The pool is packed
        with one result bank per admissible request so interleaved
        requests ship results through disjoint shared-memory regions.
        """
        config = self.config
        if not config.persistent_pool:
            return None
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
            self._drain_searches()
            self._pool_holder["pool"] = None
            pool.shutdown()
        pool = WorkerPool(
            components,
            config.workers,
            result_banks=config.max_inflight_requests,
            metrics=self.metrics,
        )
        self._pool_holder["pool"] = pool
        self.stats.pool_launches += 1
        return pool

    def _size_bound(self) -> Optional[float]:
        """Translate the memory budget into a partition size bound (in units)."""
        if self.config.memory_budget_bytes is None:
            return None
        return max(
            self.config.memory_budget_bytes / self.config.bytes_per_state_unit, 1.0
        )
