"""Component-aware WalkSAT (paper, Section 3.3).

Because the cost function decomposes over the connected components of the
MRF, it suffices to minimise each component independently; the paper shows
(Theorem 3.1) that doing so can be exponentially faster than running one
search over the whole graph, because a monolithic search keeps "breaking"
already-optimal components.

``ComponentAwareWalkSAT`` runs WalkSAT on each component with a weighted
round-robin flip budget, keeps the best state found *per component*, and
combines them into a global assignment.  The searches run behind the
``parallel_backend`` seam (``auto`` | ``serial`` | ``processes``, see
:mod:`repro.parallel`): each component's search draws its RNG from a
stream derived only from the run seed and the component index, so the
merged result is bit-for-bit identical on every backend and worker count
— including deadline-bounded runs, whose skipped set is decided by
post-hoc bookkeeping over the simulated per-component costs rather than
by completion order.  The ``processes`` backend searches on all cores
(the real Table 7 parallelism).

A request costs per chunk, not per component.  The parent describes it
once (:class:`ComponentSearchRequest`: shared options, cost model, base
seed and a flip allocation cached with the worker pool); a chunk is that
description plus component indices, and
:meth:`ComponentSearchRequest.run_chunk` — the one search loop, in a
worker or in-process on ``serial`` — reseeds one RNG per component,
reuses each state's stepper, runs the flip loop shared with
:meth:`WalkSAT.run_on_state` and writes results into the component's
result region.  The parent then reads every region at once and merges
the columns; :attr:`ComponentSearchResult.component_results` builds the
per-component objects only when read.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.inference.scheduling import weighted_flip_allocation
from repro.inference.state import SearchState
from repro.inference.walksat import WalkSATOptions, WalkSATResult, walksat_tries
from repro.mrf.components import ComponentDecomposition, connected_components
from repro.mrf.graph import MRF
from repro.obs.events import RateMeter, Series, SeriesPoint
from repro.utils.clock import CostModel, SimulatedClock, wall_now, wall_sleep
from repro.utils.rng import RandomSource, child_seed

if TYPE_CHECKING:
    from repro.parallel.buffers import ResultBufferSet
    from repro.parallel.merge import WalkSATColumns


@dataclass
class ComponentSearchResult:
    """Combined result of the per-component searches.

    ``columns`` holds every component's result as flat columns (see
    :class:`~repro.parallel.merge.WalkSATColumns`);
    :attr:`component_results` builds the per-component
    :class:`WalkSATResult` list from them on first read.  Steals and the
    result-shipping split are counted in the metrics registry
    (``scheduler.steals``, ``pool.*``), not here.
    """

    best_assignment: Dict[int, bool]
    best_cost: float
    columns: "WalkSATColumns"
    flips: int
    wall_seconds: float
    simulated_seconds: float
    parallel_simulated_seconds: float
    trace: Series = field(default_factory=Series)
    skipped_components: List[int] = field(default_factory=list)

    @cached_property
    def component_results(self) -> List[WalkSATResult]:
        return self.columns.results()

    @property
    def component_count(self) -> int:
        return len(self.columns)

    @property
    def flips_per_second(self) -> float:
        return RateMeter(self.flips, self.wall_seconds).flips_per_second


@dataclass
class ComponentSearchRequest:
    """One component-search request, described once for all its chunks.

    The parent builds it once per request; every chunk message is this
    description plus the chunk's component indices.  Component ``i``
    searches ``allocation[i]`` flips (at least one) on the stream
    ``RandomSource(seed).spawn(salt)`` with its own simulated clock
    under ``cost_model``; the salt is ``salts[i]``, or ``i + 1`` when
    ``salts`` is ``None`` (Gauss-Seidel's first pass salts its
    partitions ``500_001 + partition``).  ``options`` supplies what every
    component shares (tries, noise, restarts, target cost, flip event).
    ``budget`` is the total the allocation splits, the key its cached
    plans are stored under.
    """

    options: WalkSATOptions
    cost_model: CostModel
    seed: Optional[int]
    allocation: Sequence[int]
    budget: int
    initial_assignment: Optional[Dict[int, bool]] = None
    salts: Optional[Sequence[int]] = None

    @property
    def plan_key(self) -> Tuple:
        """What a pool caches this request's chunk cuts under."""
        return ("search", self.budget)

    def chunk_work(self, components: Sequence[MRF], order: Sequence[int]) -> List[int]:
        """Estimated work per dispatch position: size × allocated flips."""
        allocation = self.allocation
        return [components[index].size() * max(allocation[index], 1) for index in order]

    def read_results(
        self,
        components: Sequence[MRF],
        buffers: "ResultBufferSet",
        overrides: Mapping[int, object],
    ) -> "WalkSATColumns":
        """Every component's result, in component order, as columns.

        One bulk read when every result sits in its region; otherwise the
        per-component objects (region reads, ``overrides`` for fallbacks
        and placeholders) folded into columns.
        """
        from repro.parallel.merge import WalkSATColumns

        if not overrides:
            return buffers.read_walksat_columns()
        results = []
        for index, component in enumerate(components):
            outcome = overrides.get(index)
            if outcome is None:
                result, _seconds = buffers.read_outcome(
                    index, component.atom_ids, f"component-{index}"
                )
            else:
                result = outcome.result
            results.append(result)
        return WalkSATColumns.from_results(results)

    def run_chunk(self, indices: Sequence[int], context, traced: bool):
        """Search the chunk's components: one search loop, on either backend.

        Per component the loop reseeds the context's one RNG (the stream
        ``RandomSource(seed)`` would start), reuses the stepper kept with
        the component's cached state, runs :func:`walksat_tries` — the
        flip loop of :meth:`WalkSAT.run_on_state` — and writes the best
        values and trace triples into the component's result region.  A
        result that does not fit its region is returned as a
        :class:`~repro.parallel.pool.ComponentOutcome` instead.

        Returns ``(simulated seconds per index, fallbacks by index, bytes
        written, events)``; ``events`` holds each component's
        ``state-setup`` / ``kernel-search`` / ``ship-result`` phases when
        ``traced``, else it is ``None``.  Results equal
        :meth:`WalkSAT.run_on_state` on each component's own stream and
        simulated clock, bit for bit.
        """
        from repro.parallel.buffers import RESULT_HEADER_SLOTS
        from repro.parallel.pool import ComponentOutcome

        options = self.options
        noise = options.noise
        allocation = self.allocation
        target = options.target_cost
        seed = self.seed
        salts = self.salts
        initial = self.initial_assignment
        components = context.components
        results = context.results
        rng = context.rng
        stall = context.stall_seconds
        clock = SimulatedClock(self.cost_model)
        costs: List[float] = []
        fallbacks: Dict[int, object] = {}
        events: Optional[List[list]] = [] if traced else None
        written = 0
        for index in indices:
            if stall > 0.0:
                wall_sleep(stall)
            setup_start = wall_now()
            mrf = components[index]
            slot = context.slot(index)
            state = slot[0]
            rng.reseed(child_seed(seed, index + 1 if salts is None else salts[index]))
            clock.restart()
            points: list = []
            restricted = (
                None
                if initial is None
                else {atom: initial[atom] for atom in mrf.atom_ids if atom in initial}
            )
            search_start = wall_now()
            best, best_cost, flips, tries, reached, hitting, step = walksat_tries(
                state,
                rng,
                clock,
                options,
                allocation[index],
                target,
                restricted,
                points,
                array("b", state.assignment),
                state.checkpoint_values,
                slot[2] if slot[1] == noise else None,
            )
            search_end = wall_now()
            slot[1] = noise
            slot[2] = step
            simulated = clock.now()
            seconds = search_end - search_start
            if results.write_walksat(
                index, best, points, best_cost, simulated, flips, tries,
                seconds, reached, hitting,
            ):
                written += 8 * (RESULT_HEADER_SLOTS + len(best) + 3 * len(points))
            else:
                trace = Series(f"component-{index}")
                trace.points = [SeriesPoint(*point) for point in points]
                fallbacks[index] = ComponentOutcome(
                    index,
                    WalkSATResult(
                        best_assignment=dict(zip(mrf.atom_ids, map(bool, best))),
                        best_cost=best_cost,
                        flips=flips,
                        tries=tries,
                        seconds=seconds,
                        trace=trace,
                        reached_target=reached,
                        hitting_time=hitting,
                    ),
                    simulated,
                )
            costs.append(simulated)
            if events is not None:
                events.append(
                    [
                        {"name": "state-setup", "start": setup_start, "end": search_start},
                        {"name": "kernel-search", "start": search_start, "end": search_end},
                        {"name": "ship-result", "start": search_end, "end": wall_now()},
                    ]
                )
        return costs, fallbacks, written, events


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
        session's) to the ``processes`` backend, which also keeps the
        request's flip allocation, dispatch order and chunk cuts cached
        for the next request; see
        :func:`repro.parallel.scheduler.run_component_request`.

        ``local_states`` supplies caller-owned kernel states (one per
        component) for the serial backend — the engine session passes
        the states it keeps across requests; when omitted, this
        instance's own per-component cache is used.  ``request_id`` tags
        the chunks; the pool checks every reply against it.
        """
        from repro.parallel import resolve_parallel_backend
        from repro.parallel.pool import ComponentOutcome
        from repro.parallel.scheduler import run_component_request

        components = self._components(source)
        budget = total_flips if total_flips is not None else self.options.max_flips
        backend = resolve_parallel_backend(
            self.parallel_backend, workers=self.workers, task_count=len(components)
        )
        if backend != "processes":
            pool = None
        if pool is not None:
            allocation = pool.memo(
                ("flip-allocation", budget),
                lambda: _allocation(components, budget),
            )
        else:
            allocation = _allocation(components, budget)
        options = self.options
        # Each component stops once it hits zero cost (its own optimum, since
        # the cost decomposes over components) unless the caller asked for an
        # explicit target, which is honored as-is per component.
        request = ComponentSearchRequest(
            options=WalkSATOptions(
                max_tries=options.max_tries,
                noise=options.noise,
                target_cost=(
                    options.target_cost if options.target_cost is not None else 0.0
                ),
                random_restarts=options.random_restarts,
                flip_cost_event=options.flip_cost_event,
                trace_label="component",
            ),
            cost_model=self.cost_model,
            seed=self.rng.seed,
            allocation=allocation,
            budget=budget,
            initial_assignment=dict(initial_assignment) if initial_assignment else None,
        )

        def placeholder(index: int) -> ComponentOutcome:
            # A component the deadline kept from dispatching contributes its
            # initial (reset) state: zero flips, zero tries, no randomness.
            state = SearchState(
                components[index], self._restricted(components[index], initial_assignment)
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
            outcome = run_component_request(
                components,
                request,
                backend,
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

        columns = outcome.results
        with self.tracer.span("merge", components=len(columns)):
            best_assignment, best_cost, total_flips_done, trace = columns.merge("tuffy")
        return ComponentSearchResult(
            best_assignment=best_assignment,
            best_cost=best_cost,
            columns=columns,
            flips=total_flips_done,
            wall_seconds=outcome.wall_seconds,
            simulated_seconds=outcome.sequential_simulated_seconds,
            parallel_simulated_seconds=outcome.parallel_simulated_seconds,
            trace=trace,
            skipped_components=list(outcome.skipped),
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
            self._cached_states = [SearchState(component) for component in components]
        return self._cached_states

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


def _allocation(components: Sequence[MRF], budget: int) -> Sequence[int]:
    """Each component's flips: the weighted share, at least one.

    An ``array('q')``: every chunk message carries it, and it pickles as
    one byte string.
    """
    return array(
        "q", [max(flips, 1) for flips in weighted_flip_allocation(components, budget)]
    )
