"""Chunked component search == the per-component spec, bit for bit.

A component-search request travels as one description plus chunks of
component indices, runs through one search loop per chunk
(:meth:`ComponentSearchRequest.run_chunk`) and comes back through one
bulk read of the result regions.  The spec is the per-component path it
replaced: one :class:`ComponentTask` per component, run by
``WalkSAT.run_on_state`` on a fresh ``RandomSource`` and simulated
clock (:func:`execute_component_task`), placeholders for what a
deadline skips, merged component by component.  Every field
is compared — assignments with their dict order, costs, flips, tries,
hitting times, traces and simulated seconds — except the wall-clock
``seconds``.
"""

import math
import random
import threading

import pytest

from repro.grounding.clause_table import GroundClauseStore
from repro.inference.component_walksat import (
    ComponentAwareWalkSAT,
    ComponentSearchRequest,
    _allocation,
)
from repro.inference.scheduling import weighted_flip_allocation
from repro.inference.state import SearchState
from repro.inference.walksat import WalkSATOptions, WalkSATResult
from repro.mrf import graph
from repro.mrf.graph import MRF
from repro.obs.events import merge_series
from repro.parallel import processes_available
from repro.parallel.buffers import ResultBufferSet
from repro.parallel.merge import WalkSATColumns
from repro.parallel.pool import (
    ChunkContext,
    ComponentOutcome,
    ComponentTask,
    WorkerPool,
    execute_component_task,
)
from repro.parallel.scheduler import dispatch_order
from repro.utils.clock import CostModel
from repro.utils.rng import RandomSource

BACKENDS = [
    backend for backend in ("serial", "processes")
    if backend != "processes" or processes_available()
]
needs_fork = pytest.mark.skipif(
    not processes_available(), reason="fork start method unavailable"
)


def mixed_components(count=24, seed=0):
    """Small components of varied shape: some solvable, some conflicted."""
    rng = random.Random(seed)
    components = []
    for index in range(count):
        base = 1 + 100 * index
        atoms = list(range(base, base + rng.randint(1, 6)))
        store = GroundClauseStore()
        for left, right in zip(atoms, atoms[1:]):
            store.add((left, -right) if rng.random() < 0.5 else (left, right), 1.5)
        for atom in atoms:
            store.add((atom,), round(rng.uniform(0.1, 2.0), 2))
            if rng.random() < 0.5:
                store.add((-atom,), round(rng.uniform(0.1, 2.0), 2))
        components.append(MRF.from_store(store))
    return components


def spec_results(components, options, seed, budget, cost_model, initial=None):
    """Per-component outcomes of the spec path, in component order."""
    target = options.target_cost if options.target_cost is not None else 0.0
    outcomes = []
    for index, (component, flips) in enumerate(
        zip(components, weighted_flip_allocation(components, budget))
    ):
        restricted = None
        if initial:
            atoms = set(component.atom_ids)
            restricted = {a: v for a, v in initial.items() if a in atoms}
        task = ComponentTask(
            index=index,
            kind="walksat",
            seed=RandomSource(seed).spawn(index + 1).seed,
            walksat=WalkSATOptions(
                max_flips=max(flips, 1),
                max_tries=options.max_tries,
                noise=options.noise,
                target_cost=target,
                random_restarts=options.random_restarts,
                trace_label=f"component-{index}",
            ),
            cost_model=cost_model,
            initial_assignment=restricted,
        )
        outcomes.append(execute_component_task(task, component))
    return outcomes


def spec_search(components, options, seed, budget, cost_model=None, initial=None):
    """The spec's merged result, deadline rule and placeholders included."""
    cost_model = cost_model or CostModel()
    outcomes = spec_results(components, options, seed, budget, cost_model, initial)
    deadline = options.deadline_seconds
    spent = 0.0
    counted = set()
    for index in dispatch_order(components):
        if deadline is not None and spent >= deadline:
            break
        counted.add(index)
        spent += outcomes[index].simulated_seconds
    results = []
    for index, outcome in enumerate(outcomes):
        if index in counted:
            results.append(outcome.result)
            continue
        restricted = None
        if initial:
            atoms = set(components[index].atom_ids)
            restricted = {a: v for a, v in initial.items() if a in atoms}
        state = SearchState(components[index], restricted)
        results.append(
            WalkSATResult(state.assignment_dict(), state.cost, 0, 0, 0.0)
        )
    return results, spec_merge(results), outcomes


def spec_merge(results):
    """The component-order combine, written out as the loop it specifies."""
    assignment = {}
    cost = 0.0
    flips = 0
    for result in results:
        assignment.update(result.best_assignment)
        if not math.isinf(result.best_cost):
            cost += result.best_cost
        flips += result.flips
    return assignment, cost, flips, merge_series([r.trace for r in results], "tuffy")


def fields(result):
    return (
        list(result.best_assignment.items()),
        result.best_cost,
        result.flips,
        result.tries,
        result.reached_target,
        result.hitting_time,
        result.trace.label,
        [(p.time, p.cost, p.flips) for p in result.trace.points],
    )


def assert_matches_spec(result, spec):
    results, (assignment, cost, flips, trace), _outcomes = spec
    assert list(result.best_assignment.items()) == list(assignment.items())
    assert result.best_cost == cost
    assert result.flips == flips
    assert [(p.time, p.cost, p.flips) for p in result.trace.points] == [
        (p.time, p.cost, p.flips) for p in trace.points
    ]
    assert [fields(r) for r in result.component_results] == [fields(r) for r in results]


def search(components, options, seed, budget, backend, **kwargs):
    return ComponentAwareWalkSAT(
        options, RandomSource(seed), workers=2, parallel_backend=backend
    ).run(components, total_flips=budget, **kwargs)


class TestChunkRunnerAgainstSpec:
    """``run_chunk`` over arbitrary chunk cuts, read back in bulk."""

    def _run_chunks(self, components, request, cuts, context, regions):
        costs = {}
        fallbacks = {}
        for indices in cuts:
            chunk_costs, returned, nbytes, events = request.run_chunk(
                indices, context, 0, False
            )
            assert events is None
            assert nbytes > 0 or returned
            costs.update(zip(indices, chunk_costs))
            fallbacks.update(returned)
        return costs, fallbacks

    @pytest.mark.parametrize("seed", range(4))
    def test_random_chunk_cuts(self, seed):
        components = mixed_components(seed=seed)
        budget = 600
        options = WalkSATOptions(max_flips=budget, max_tries=2)
        spec = spec_results(components, options, seed, budget, CostModel())
        request = ComponentSearchRequest(
            options=WalkSATOptions(max_tries=2, target_cost=0.0),
            cost_model=CostModel(),
            seed=seed,
            allocation=_allocation(components, budget),
            budget=budget,
        )
        regions = ResultBufferSet.pack(components, shared=False)
        context = ChunkContext(components, regions)
        try:
            rng = random.Random(seed)
            # Two passes over one context: the second reuses every cached
            # state and stepper, as a warm worker does.
            for _ in range(2):
                indices = list(range(len(components)))
                rng.shuffle(indices)
                cuts = []
                while indices:
                    size = rng.randint(1, 7)
                    cuts.append(indices[:size])
                    indices = indices[size:]
                costs, fallbacks = self._run_chunks(
                    components, request, cuts, context, regions
                )
                assert fallbacks == {}
                columns = regions.read_walksat_columns(0)
                got = columns.results()
                for index, outcome in enumerate(spec):
                    assert fields(got[index]) == fields(outcome.result)
                    assert costs[index] == outcome.simulated_seconds
        finally:
            regions.destroy()

    def test_states_and_steppers_reused_across_requests(self):
        # A warm worker keeps each state's stepper; a request with another
        # noise (or seed, or budget) must still search like the spec.
        components = mixed_components(seed=9)
        regions = ResultBufferSet.pack(components, shared=False)
        context = ChunkContext(components, regions)
        indices = list(range(len(components)))
        try:
            for seed, noise, budget in ((1, 0.5, 700), (2, 0.1, 700), (3, 0.1, 300), (3, 0.5, 300)):
                spec = spec_results(
                    components, WalkSATOptions(noise=noise), seed, budget, CostModel()
                )
                request = ComponentSearchRequest(
                    options=WalkSATOptions(noise=noise, target_cost=0.0),
                    cost_model=CostModel(),
                    seed=seed,
                    allocation=_allocation(components, budget),
                            budget=budget,
                )
                request.run_chunk(indices, context, 0, False)
                got = regions.read_walksat_columns(0).results()
                assert [fields(r) for r in got] == [fields(o.result) for o in spec]
        finally:
            regions.destroy()

    def test_merge_of_columns_equals_the_loop(self):
        components = mixed_components(count=40, seed=11)
        spec = spec_search(components, WalkSATOptions(), 11, 5000)
        assignment, cost, flips, trace = WalkSATColumns.from_results(spec[0]).merge()
        want_assignment, want_cost, want_flips, want_trace = spec[1]
        assert list(assignment.items()) == list(want_assignment.items())
        assert (cost, flips) == (want_cost, want_flips)
        assert trace.points == want_trace.points

    def test_tiny_trace_capacity_returns_fallbacks(self):
        components = mixed_components(count=6, seed=3)
        spec = spec_results(components, WalkSATOptions(), 3, 300, CostModel())
        request = ComponentSearchRequest(
            options=WalkSATOptions(target_cost=0.0),
            cost_model=CostModel(),
            seed=3,
            allocation=_allocation(components, 300),
            budget=300,
        )
        regions = ResultBufferSet.pack(components, trace_capacity=0, shared=False)
        try:
            costs, fallbacks, nbytes, _events = request.run_chunk(
                list(range(len(components))), ChunkContext(components, regions), 0, False
            )
        finally:
            regions.destroy()
        assert nbytes == 0
        assert sorted(fallbacks) == list(range(len(components)))
        for index, outcome in enumerate(spec):
            assert isinstance(fallbacks[index], ComponentOutcome)
            assert fields(fallbacks[index].result) == fields(outcome.result)
            assert fallbacks[index].simulated_seconds == costs[index]


class TestComponentSearchAgainstSpec:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", (0, 5))
    @pytest.mark.parametrize("threshold", (10**9, 0), ids=("loop", "bincount"))
    def test_default_search(self, backend, seed, threshold, monkeypatch):
        """On both count-initialisation paths of the search state."""
        monkeypatch.setattr(graph, "NUMPY_VIEW_MIN_CLAUSES", threshold)
        components = mixed_components(seed=seed)
        options = WalkSATOptions(max_flips=2000)
        result = search(components, options, seed, 2000, backend)
        assert_matches_spec(result, spec_search(components, options, seed, 2000))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_flip_allocations(self, backend):
        components = mixed_components(count=30, seed=1)
        options = WalkSATOptions(max_flips=len(components))
        result = search(components, options, 1, len(components), backend)
        spec = spec_search(components, options, 1, len(components))
        assert all(outcome.result.flips <= 1 for outcome in spec[2])
        assert_matches_spec(result, spec)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_target_hits_at_zero_flips(self, backend):
        components = mixed_components(seed=2)
        options = WalkSATOptions(max_flips=500, target_cost=1e9)
        result = search(components, options, 2, 500, backend)
        spec = spec_search(components, options, 2, 500)
        assert all(r.reached_target and r.hitting_time == 0 for r in spec[0])
        assert result.flips == 0
        assert_matches_spec(result, spec)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_restarts_and_initial_assignment(self, backend):
        components = mixed_components(seed=4)
        initial = {
            atom: atom % 3 == 0 for component in components for atom in component.atom_ids
        }
        for restarts in (True, False):
            options = WalkSATOptions(max_flips=900, max_tries=3, random_restarts=restarts)
            result = search(components, options, 4, 900, backend, initial_assignment=initial)
            assert_matches_spec(
                result, spec_search(components, options, 4, 900, initial=initial)
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("deadline", (0.0, 0.002, 0.01))
    def test_deadline_runs(self, backend, deadline):
        components = mixed_components(seed=6)
        options = WalkSATOptions(max_flips=4000, deadline_seconds=deadline)
        result = search(components, options, 6, 4000, backend)
        spec = spec_search(components, options, 6, 4000)
        assert_matches_spec(result, spec)
        skipped = [i for i, r in enumerate(spec[0]) if r.tries == 0]
        assert result.skipped_components == skipped

    @needs_fork
    def test_pickled_fallback_with_tiny_trace_capacity(self):
        components = mixed_components(seed=7)
        options = WalkSATOptions(max_flips=1500)
        with WorkerPool(components, 2, trace_capacity=1) as pool:
            result = search(components, options, 7, 1500, "processes", pool=pool)
        assert result.pickle_shipped > 0
        assert result.shm_shipped + result.pickle_shipped == len(components)
        assert_matches_spec(result, spec_search(components, options, 7, 1500))

    @needs_fork
    @pytest.mark.parametrize("banks", (2, 1))
    def test_two_interleaved_requests(self, banks):
        # With one bank, a request admitted while the other holds it
        # ships every result through the pickled fallback.
        components = mixed_components(count=40, seed=8)
        options = WalkSATOptions(max_flips=3000)
        results = {}
        with WorkerPool(components, 2, result_banks=banks) as pool:

            def serve(request_id, seed):
                results[request_id] = ComponentAwareWalkSAT(
                    options, RandomSource(seed), workers=2, parallel_backend="processes"
                ).run(components, total_flips=3000, pool=pool, request_id=request_id)

            threads = [
                threading.Thread(target=serve, args=(request_id, 10 + request_id))
                for request_id in (1, 2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert pool._inflight == {} and pool._ready == {}
        for request_id in (1, 2):
            shipped = results[request_id].shm_shipped
            assert shipped + results[request_id].pickle_shipped == len(components)
            assert shipped == len(components) or banks == 1
            assert_matches_spec(
                results[request_id],
                spec_search(components, options, 10 + request_id, 3000),
            )
