"""Work-stealing dispatch and shared-memory result shipping.

The determinism suite for the steal scheduler: the same seed produces
identical assignments, marginals and deadline reports under worker counts
1/2/4 and under an injected slow worker (one pool worker stalled via the
test hook, forcing maximal stealing skew).  Plus
the result-shipping layer: shared-memory round-trips are exact, oversized
results fall back to the pickled queue gracefully (counted, never
truncated), and the scheduler reports the shipping split.
"""

import pytest

from repro.grounding.clause_table import GroundClauseStore
from repro.inference.component_walksat import ComponentAwareWalkSAT
from repro.inference.mcsat import MCSat, MCSatOptions
from repro.inference.scheduling import run_components
from repro.inference.walksat import WalkSATOptions
from repro.mrf.graph import MRF
from repro.parallel import processes_available
from repro.parallel.buffers import ResultBufferSet
from repro.parallel.pool import (
    ComponentOutcome,
    ComponentTask,
    WorkerPool,
    execute_component_task,
)
from repro.parallel.scheduler import deadline_cutoff, run_component_tasks
from repro.utils.rng import RandomSource

BACKENDS = [
    backend for backend in ("serial", "processes")
    if backend != "processes" or processes_available()
]
WORKER_COUNTS = (1, 2, 4)


def conflicted_chain(n_atoms, first_atom=1, weight=1.0):
    """A chain component that never reaches zero cost (predictable flips)."""
    store = GroundClauseStore()
    atoms = list(range(first_atom, first_atom + n_atoms))
    for left, right in zip(atoms, atoms[1:]):
        store.add((left, right), weight)
    for atom in atoms:
        store.add((atom,), weight)
        store.add((-atom,), weight * 0.8)
    return MRF.from_store(store)


def imbalanced_components():
    """One giant plus several tiny components — the stealing stress shape."""
    sizes = [14, 3, 3, 2, 2, 2]
    components = []
    base = 1
    for size in sizes:
        components.append(conflicted_chain(size, first_atom=base))
        base += 1000
    return components


def walksat_tasks(components, flips=400):
    rng = RandomSource(7)
    return [
        ComponentTask(
            index=index,
            kind="walksat",
            seed=rng.spawn(index + 1).seed,
            walksat=WalkSATOptions(max_flips=flips, trace_label=f"component-{index}"),
        )
        for index in range(len(components))
    ]


def mcsat_tasks(components, samples=6, burn_in=2):
    rng = RandomSource(7)
    return [
        ComponentTask(
            index=index,
            kind="mcsat",
            seed=rng.spawn(index + 1).seed,
            mcsat=MCSatOptions(samples=samples, burn_in=burn_in),
        )
        for index in range(len(components))
    ]


def result_fields(result):
    """Comparable projection of a WalkSATResult (trace included).

    ``seconds`` is wall-clock and excluded — it is the one field that
    legitimately differs between executions of the same seeded search.
    """
    return (
        result.best_assignment,
        result.best_cost,
        result.flips,
        result.tries,
        result.reached_target,
        result.hitting_time,
        result.trace.label,
        result.trace.grounding_seconds,
        [(p.time, p.cost, p.flips) for p in result.trace.points],
    )


class TestDeadlineCutoff:
    def test_no_deadline_never_cuts(self):
        assert deadline_cutoff([1.0, 2.0], None) is None

    def test_unknown_cost_blocks_proof(self):
        # Position 1's cost is unknown, so no crossing at or before it is
        # provable yet.
        assert deadline_cutoff([1.0, None, 1.0], 5.0) is None

    def test_cutoff_stable_once_provable(self):
        # The prefix 0..1 crosses the deadline whatever position 2 costs.
        assert deadline_cutoff([2.0, 3.0, None], 4.0) == 2
        assert deadline_cutoff([2.0, 3.0, 100.0], 4.0) == 2

    def test_zero_deadline_cuts_at_zero(self):
        assert deadline_cutoff([None, None], 0.0) == 0

    def test_budget_covering_everything(self):
        assert deadline_cutoff([1.0, 1.0], 10.0) is None


class TestStealDeterminism:
    """Same seed => identical results across backends and workers."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_map_search_matches_serial_reference(self, backend, workers):
        components = imbalanced_components()
        reference = ComponentAwareWalkSAT(
            WalkSATOptions(max_flips=600),
            RandomSource(11),
            workers=1,
            parallel_backend="serial",
        ).run(components, total_flips=600)
        result = ComponentAwareWalkSAT(
            WalkSATOptions(max_flips=600),
            RandomSource(11),
            workers=workers,
            parallel_backend=backend,
        ).run(components, total_flips=600)
        assert result.best_assignment == reference.best_assignment
        assert result.best_cost == reference.best_cost
        assert result.flips == reference.flips

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_marginals_match_serial_reference(self, backend):
        components = imbalanced_components()[:3]
        reference = MCSat(
            MCSatOptions(samples=6, burn_in=2), RandomSource(5)
        ).run_components(components, parallel_backend="serial", workers=1)
        result = MCSat(
            MCSatOptions(samples=6, burn_in=2), RandomSource(5)
        ).run_components(components, parallel_backend=backend, workers=2)
        assert result.probabilities == reference.probabilities

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_deadline_report_independent_of_workers(self, backend, workers):
        components = imbalanced_components()
        result = ComponentAwareWalkSAT(
            WalkSATOptions(max_flips=600, deadline_seconds=1e-9),
            RandomSource(11),
            workers=workers,
            parallel_backend=backend,
        ).run(components, total_flips=600)
        reference = ComponentAwareWalkSAT(
            WalkSATOptions(max_flips=600, deadline_seconds=1e-9),
            RandomSource(11),
            workers=1,
            parallel_backend="serial",
        ).run(components, total_flips=600)
        label = f"{backend}/workers={workers}"
        assert result.skipped_components == reference.skipped_components, label
        assert result.best_assignment == reference.best_assignment, label
        assert result.best_cost == reference.best_cost, label

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_uniform_components_match_serial_reference(self, backend, workers):
        # Two dozen similar chains: the stealing loop cuts the order into
        # multi-task chunks, unlike the single-task tail of the giant shape.
        components = uniform_components()
        reference = ComponentAwareWalkSAT(
            WalkSATOptions(max_flips=2400),
            RandomSource(13),
            workers=1,
            parallel_backend="serial",
        ).run(components, total_flips=2400)
        result = ComponentAwareWalkSAT(
            WalkSATOptions(max_flips=2400),
            RandomSource(13),
            workers=workers,
            parallel_backend=backend,
        ).run(components, total_flips=2400)
        assert result.best_assignment == reference.best_assignment
        assert list(result.best_assignment) == list(reference.best_assignment)
        assert result.best_cost == reference.best_cost
        assert result.flips == reference.flips
        assert result.simulated_seconds == reference.simulated_seconds

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_marginals_independent_of_workers(self, backend, workers):
        components = imbalanced_components()
        reference = MCSat(
            MCSatOptions(samples=6, burn_in=2), RandomSource(9)
        ).run_components(components, parallel_backend="serial", workers=1)
        result = MCSat(
            MCSatOptions(samples=6, burn_in=2), RandomSource(9)
        ).run_components(components, parallel_backend=backend, workers=workers)
        assert result.probabilities == reference.probabilities
        assert list(result.probabilities) == list(reference.probabilities)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_mid_run_deadline_report_independent_of_workers(self, backend, workers):
        components = imbalanced_components()
        full = ComponentAwareWalkSAT(
            WalkSATOptions(max_flips=600), RandomSource(11), parallel_backend="serial"
        ).run(components, total_flips=600)
        # A deadline three quarters into the sequential spend: some positions
        # after the first count, the tail is skipped.
        deadline = 0.75 * full.simulated_seconds
        reference = ComponentAwareWalkSAT(
            WalkSATOptions(max_flips=600, deadline_seconds=deadline),
            RandomSource(11),
            workers=1,
            parallel_backend="serial",
        ).run(components, total_flips=600)
        assert 0 < len(reference.skipped_components) < len(components) - 1
        result = ComponentAwareWalkSAT(
            WalkSATOptions(max_flips=600, deadline_seconds=deadline),
            RandomSource(11),
            workers=workers,
            parallel_backend=backend,
        ).run(components, total_flips=600)
        label = f"{backend}/workers={workers}"
        assert result.skipped_components == reference.skipped_components, label
        assert result.best_assignment == reference.best_assignment, label
        assert result.best_cost == reference.best_cost, label
        assert result.flips == reference.flips, label
        for index in reference.skipped_components:
            assert result.component_results[index].flips == 0, label


def uniform_components(count=24):
    """``count`` disjoint chains of 2..7 atoms (sizes repeat, so ties too)."""
    return [
        conflicted_chain(2 + index % 6, first_atom=1 + 1000 * index)
        for index in range(count)
    ]


@pytest.mark.skipif(not processes_available(), reason="fork not available")
class TestSlowWorker:
    """An injected stall changes who runs what, never what comes out."""

    def test_processes_steal_with_stalled_worker(self):
        components = imbalanced_components()
        reference = run_component_tasks(
            components, walksat_tasks(components), backend="serial", workers=1
        )
        with WorkerPool(components, 2, stall_worker=(0, 0.02)) as pool:
            outcome = run_component_tasks(
                components,
                walksat_tasks(components),
                backend="processes",
                workers=2,
                pool=pool,
            )
        for got, want in zip(outcome.results, reference.results):
            assert result_fields(got) == result_fields(want)
        # The healthy worker picked up the slack: every task ran, and the
        # per-worker attribution accounts for all of them.
        assert outcome.executed == len(components)
        assert sum(outcome.worker_task_counts.values()) == len(components)

    def test_stalled_worker_does_not_change_deadline_report(self):
        components = imbalanced_components()
        reference = run_component_tasks(
            components,
            walksat_tasks(components),
            backend="serial",
            workers=1,
            deadline_seconds=1e-9,
            placeholder=_zero_placeholder(components),
        )
        with WorkerPool(components, 4, stall_worker=(1, 0.02)) as pool:
            outcome = run_component_tasks(
                components,
                walksat_tasks(components),
                backend="processes",
                workers=4,
                deadline_seconds=1e-9,
                placeholder=_zero_placeholder(components),
                pool=pool,
            )
        assert outcome.skipped == reference.skipped
        assert outcome.dispatch_order == reference.dispatch_order
        for got, want in zip(outcome.results, reference.results):
            assert result_fields(got) == result_fields(want)


def _zero_placeholder(components):
    from repro.inference.state import SearchState
    from repro.inference.walksat import WalkSATResult

    def placeholder(index):
        state = SearchState(components[index])
        result = WalkSATResult(
            best_assignment=state.assignment_dict(),
            best_cost=state.cost,
            flips=0,
            tries=0,
            seconds=0.0,
        )
        return ComponentOutcome(index, result, 0.0)

    return placeholder


@pytest.mark.skipif(not processes_available(), reason="fork not available")
class TestResultShipping:
    def test_walksat_results_ship_via_shared_memory(self):
        components = imbalanced_components()
        tasks = walksat_tasks(components)
        expected = [
            execute_component_task(task, component)
            for task, component in zip(tasks, components)
        ]
        with WorkerPool(components, 2) as pool:
            outcome = run_component_tasks(
                components, tasks, backend="processes", workers=2, pool=pool
            )
            assert pool.shm_shipped == len(components)
            assert pool.pickle_shipped == 0
            assert pool.shm_bytes > 0
        assert outcome.shm_shipped == len(components)
        assert outcome.pickle_shipped == 0
        assert outcome.shm_bytes > 0
        for got, want in zip(outcome.results, expected):
            assert result_fields(got) == result_fields(want.result)

    def test_marginal_results_ship_via_shared_memory(self):
        components = imbalanced_components()[:3]
        tasks = mcsat_tasks(components)
        expected = [
            execute_component_task(task, component)
            for task, component in zip(tasks, components)
        ]
        with WorkerPool(components, 2) as pool:
            outcome = run_component_tasks(
                components, tasks, backend="processes", workers=2, pool=pool
            )
            assert pool.shm_shipped == len(components)
            assert pool.pickle_shipped == 0
        for got, want in zip(outcome.results, expected):
            assert got.probabilities == want.result.probabilities
            assert got.samples == want.result.samples
            assert got.burn_in == want.result.burn_in

    def test_oversized_trace_falls_back_to_pickle(self):
        components = imbalanced_components()
        tasks = walksat_tasks(components)
        expected = [
            execute_component_task(task, component)
            for task, component in zip(tasks, components)
        ]
        assert any(len(out.result.trace.points) > 0 for out in expected)
        # A zero-capacity trace region cannot hold any trace point, so
        # every result must take the pickled path — bit-identically.
        with WorkerPool(components, 2, trace_capacity=0) as pool:
            outcome = run_component_tasks(
                components, tasks, backend="processes", workers=2, pool=pool
            )
            assert pool.pickle_shipped == len(components)
            assert pool.shm_shipped == 0
        assert outcome.pickle_shipped == len(components)
        assert outcome.shm_shipped == 0
        for got, want in zip(outcome.results, expected):
            assert result_fields(got) == result_fields(want.result)

    def test_result_region_roundtrip_is_exact(self):
        components = imbalanced_components()[:2]
        tasks = walksat_tasks(components)
        buffers = ResultBufferSet.pack(components)
        try:
            for task, component in zip(tasks, components):
                outcome = execute_component_task(task, component)
                wrote = buffers.write_outcome(
                    task.index, outcome.result, outcome.simulated_seconds,
                    component.atom_ids,
                )
                assert wrote
                rebuilt, simulated = buffers.read_outcome(
                    task.index, component.atom_ids,
                    trace_label=task.walksat.trace_label,
                )
                assert simulated == outcome.simulated_seconds
                assert result_fields(rebuilt) == result_fields(outcome.result)
                # Dict insertion order is part of the parity contract.
                assert list(rebuilt.best_assignment) == list(
                    outcome.result.best_assignment
                )
        finally:
            buffers.destroy()


class TestTelemetry:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_scheduler_reports_execution_counts(self, backend):
        components = imbalanced_components()
        outcome = run_component_tasks(
            components,
            walksat_tasks(components),
            backend=backend,
            workers=2,
        )
        assert outcome.executed == len(components)
        assert outcome.discarded == 0
        assert outcome.steals >= 0
        if backend == "serial":
            # No per-worker attribution on the sequential spec loop.
            assert outcome.steals == 0
        else:
            assert sum(outcome.worker_task_counts.values()) == len(components)

    @pytest.mark.parametrize("backend", ("threads", "auto"))
    def test_unresolved_backend_is_rejected(self, backend):
        components = imbalanced_components()[:2]
        with pytest.raises(ValueError):
            run_component_tasks(
                components, walksat_tasks(components), backend=backend, workers=2
            )
