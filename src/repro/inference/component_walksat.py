"""Component-aware WalkSAT (paper, Section 3.3).

Because the cost function decomposes over the connected components of the
MRF, it suffices to minimise each component independently; the paper shows
(Theorem 3.1) that doing so can be exponentially faster than running one
search over the whole graph, because a monolithic search keeps "breaking"
already-optimal components.

``ComponentAwareWalkSAT`` runs WalkSAT on each component with a weighted
round-robin flip budget, keeps the best state found *per component*, and
combines them into a global assignment.  Component tasks run behind the
``parallel_backend`` seam (``auto`` | ``serial`` | ``processes``, see
:mod:`repro.parallel`): each component's search draws its RNG from a
stream derived only from the run seed and the component index, so the
merged result is bit-for-bit identical on every backend and worker count
— including deadline-bounded runs, whose skipped set is decided by
post-hoc bookkeeping over the simulated per-component costs rather than
by completion order.  The ``processes``
backend ships component structure through shared memory and searches on
all cores (the real Table 7 parallelism), shipping results back through
a shared-memory result region; results carry wall-clock and simulated
timings either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.inference.scheduling import (
    ParallelOutcome,
    run_components,
    weighted_flip_allocation,
)
from repro.inference.state import SearchState, make_search_state
from repro.inference.walksat import WalkSATOptions, WalkSATResult
from repro.mrf.components import ComponentDecomposition, connected_components
from repro.mrf.graph import MRF
from repro.obs.events import RateMeter, Series
from repro.utils.clock import CostModel
from repro.utils.rng import RandomSource


@dataclass
class ComponentSearchResult:
    """Combined result of the per-component searches.

    The telemetry fields (``steals``, ``worker_task_counts``,
    ``shm_shipped``, ``pickle_shipped``) are per-request — the scheduler
    counts them for exactly this run even when a shared persistent pool
    is interleaving several admitted requests.
    """

    best_assignment: Dict[int, bool]
    best_cost: float
    component_results: List[WalkSATResult]
    flips: int
    wall_seconds: float
    simulated_seconds: float
    parallel_simulated_seconds: float
    trace: Series = field(default_factory=Series)
    skipped_components: List[int] = field(default_factory=list)
    steals: int = 0
    worker_task_counts: Dict[int, int] = field(default_factory=dict)
    shm_shipped: int = 0
    pickle_shipped: int = 0

    @property
    def component_count(self) -> int:
        return len(self.component_results)

    @property
    def flips_per_second(self) -> float:
        return RateMeter(self.flips, self.wall_seconds).flips_per_second


class ComponentAwareWalkSAT:
    """Runs WalkSAT independently on each component of the MRF."""

    def __init__(
        self,
        options: Optional[WalkSATOptions] = None,
        rng: Optional[RandomSource] = None,
        workers: int = 1,
        cost_model: Optional[CostModel] = None,
        parallel_backend: str = "auto",
        tracer=None,
        metrics=None,
    ) -> None:
        from repro.obs.tracer import NullTracer

        self.options = options or WalkSATOptions()
        self.rng = rng or RandomSource(0)
        self.workers = workers
        self.cost_model = cost_model or CostModel()
        self.parallel_backend = parallel_backend
        #: Injected observability (never module-global): read-side only,
        #: so a recording tracer is bit-identical to the default no-op.
        self.tracer = tracer if tracer is not None else NullTracer()
        self.metrics = metrics
        # State-reuse lifecycle: one kernel state per component, cached with
        # the decomposition and reset in place between rounds, instead of
        # rebuilding every buffer each run() call.  Keyed by the identity of
        # the last source (which also pins the component MRFs alive);
        # assumes, like MRF.flat_view, that sources are not mutated.  The
        # processes backend keeps the equivalent cache inside each worker.
        self._cached_source: Optional[object] = None
        self._cached_components: List[MRF] = []
        self._cached_states: List[SearchState] = []

    def run(
        self,
        source: MRF | ComponentDecomposition | Sequence[MRF],
        total_flips: Optional[int] = None,
        initial_assignment: Optional[Mapping[int, bool]] = None,
        pool=None,
        local_states: Optional[Sequence[SearchState]] = None,
        request_id: int = 0,
    ) -> ComponentSearchResult:
        """Search every component and merge the per-component best states.

        ``pool`` lends a caller-owned persistent worker pool (the engine
        session's) to the ``processes`` backend; see
        :func:`repro.inference.scheduling.run_components`.

        ``local_states`` supplies caller-owned kernel states (one per
        component) for the serial backend — the engine session
        passes a checked-out lease here so two concurrently admitted
        requests never run on the same live :class:`SearchState`; when
        omitted, this instance's own per-component cache is used (safe
        because the session builds one searcher per request).
        ``request_id`` tags the tasks so a shared pool routes
        completions back to this request.
        """
        from repro.parallel.merge import merge_walksat_results
        from repro.parallel.pool import ComponentOutcome, ComponentTask

        components = self._components(source)
        budget = total_flips if total_flips is not None else self.options.max_flips
        allocation = weighted_flip_allocation(components, budget)

        tasks: List[ComponentTask] = []
        for index, (component, flips) in enumerate(zip(components, allocation)):
            tasks.append(
                ComponentTask(
                    index=index,
                    kind="walksat",
                    seed=self.rng.spawn(index + 1).seed,
                    walksat=self._component_options(index, flips),
                    cost_model=self.cost_model,
                    initial_assignment=self._restricted(component, initial_assignment),
                )
            )

        def placeholder(index: int) -> ComponentOutcome:
            # A component the deadline kept from dispatching contributes its
            # initial (reset) state: zero flips, zero tries, no randomness.
            state = make_search_state(
                components[index],
                tasks[index].initial_assignment,
                backend=self.options.kernel_backend,
            )
            result = WalkSATResult(
                best_assignment=state.assignment_dict(),
                best_cost=state.cost,
                flips=0,
                tries=0,
                seconds=0.0,
            )
            return ComponentOutcome(index, result, 0.0)

        with self.tracer.span("dispatch", components=len(components)):
            outcome: ParallelOutcome = run_components(
                components,
                tasks,
                parallel_backend=self.parallel_backend,
                workers=self.workers,
                deadline_seconds=self.options.deadline_seconds,
                # Lazy: built (and cached) only when the resolved backend is
                # serial — the processes backend caches states per worker.
                local_states=(
                    local_states
                    if local_states is not None
                    else lambda: self._component_states(components)
                ),
                placeholder=placeholder,
                pool=pool,
                request_id=request_id,
                tracer=self.tracer,
                metrics=self.metrics,
            )

        component_results: List[WalkSATResult] = list(outcome.results)  # type: ignore[arg-type]
        with self.tracer.span("merge", components=len(component_results)):
            best_assignment, best_cost, total_flips_done, trace = merge_walksat_results(
                component_results, trace_label="tuffy"
            )
        return ComponentSearchResult(
            best_assignment=best_assignment,
            best_cost=best_cost,
            component_results=component_results,
            flips=total_flips_done,
            wall_seconds=outcome.wall_seconds,
            simulated_seconds=outcome.sequential_simulated_seconds,
            parallel_simulated_seconds=outcome.parallel_simulated_seconds,
            trace=trace,
            skipped_components=list(getattr(outcome, "skipped", [])),
            steals=int(getattr(outcome, "steals", 0)),
            worker_task_counts=dict(getattr(outcome, "worker_task_counts", {})),
            shm_shipped=int(getattr(outcome, "shm_shipped", 0)),
            pickle_shipped=int(getattr(outcome, "pickle_shipped", 0)),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _components(
        self, source: MRF | ComponentDecomposition | Sequence[MRF]
    ) -> List[MRF]:
        if source is self._cached_source:
            return self._cached_components
        if isinstance(source, MRF):
            components = connected_components(source).components
        elif isinstance(source, ComponentDecomposition):
            components = list(source.components)
        else:
            components = list(source)
        self._cached_source = source
        self._cached_components = components
        self._cached_states = []
        return components

    def _component_states(self, components: Sequence[MRF]) -> List[SearchState]:
        """The cached per-component kernel states (built on first use).

        Built in the calling thread so worker tasks only ever touch their
        own, fully-constructed state.
        """
        if len(self._cached_states) != len(components):
            backend = self.options.kernel_backend
            self._cached_states = [
                make_search_state(component, backend=backend)
                for component in components
            ]
        return self._cached_states

    def _component_options(self, index: int, flips: int) -> WalkSATOptions:
        # Each component stops once it hits zero cost (its own optimum, since
        # the cost decomposes over components) unless the caller asked for an
        # explicit target, which is honored as-is per component.
        target_cost = (
            self.options.target_cost if self.options.target_cost is not None else 0.0
        )
        return WalkSATOptions(
            max_flips=max(flips, 1),
            max_tries=self.options.max_tries,
            noise=self.options.noise,
            target_cost=target_cost,
            random_restarts=self.options.random_restarts,
            flip_cost_event=self.options.flip_cost_event,
            trace_label=f"component-{index}",
            kernel_backend=self.options.kernel_backend,
        )

    @staticmethod
    def _restricted(
        component: MRF, initial_assignment: Optional[Mapping[int, bool]]
    ) -> Optional[Dict[int, bool]]:
        if not initial_assignment:
            return None
        component_atoms = set(component.atom_ids)
        return {
            atom_id: value
            for atom_id, value in initial_assignment.items()
            if atom_id in component_atoms
        }
