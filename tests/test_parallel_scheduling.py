"""The partition scheduler: worker start, dispatch order, deadline handling.

Covers the pieces under the ``parallel_backend`` seam that the parity
suite does not: workers search the parent's own component objects (one
shared-memory segment per pool, for results only), dispatch is
largest-first, ``scheduling.run_components`` honors the
deadline by post-hoc bookkeeping (a dispatch position counts iff the
summed simulated costs of the positions before it stay under the
deadline — identical across backends and worker counts),
and the Gauss-Seidel refinement merge is backend-independent.
"""

import math
import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grounding.clause_table import GroundClauseStore
from repro.inference.component_walksat import ComponentAwareWalkSAT
from repro.inference.scheduling import run_components
from repro.inference.walksat import WalkSATOptions
from repro.mrf.graph import MRF
from repro.parallel import processes_available
from repro.parallel.buffers import ResultBufferSet
from repro.parallel.merge import gauss_seidel_refine
from repro.obs.metrics import MetricsRegistry
from repro.parallel import pool as pool_module
from repro.parallel.pool import (
    BoundedStateCache,
    ComponentOutcome,
    ComponentTask,
    WorkerPool,
    execute_component_task,
)
from repro.parallel.scheduler import (
    CHUNK_SHARE,
    _Dispatch,
    _single_chunks,
    chunk_boundaries,
    deadline_cutoff,
    dispatch_order,
    run_component_tasks,
    task_work,
)
from repro.partitioning.greedy import GreedyPartitioner
from repro.utils.rng import RandomSource

BACKENDS = [
    backend for backend in ("serial", "processes")
    if backend != "processes" or processes_available()
]


def conflicted_chain(n_atoms, first_atom=1, weight=1.0):
    """A chain component whose optimum cost is strictly positive.

    Unit clauses push every atom both ways, so WalkSAT never reaches zero
    violated clauses and spends its whole flip budget — which makes the
    simulated durations (and therefore deadline behaviour) predictable.
    """
    store = GroundClauseStore()
    atoms = list(range(first_atom, first_atom + n_atoms))
    for left, right in zip(atoms, atoms[1:]):
        store.add((left, right), weight)
    for atom in atoms:
        store.add((atom,), weight)
        store.add((-atom,), weight * 0.8)
    return MRF.from_store(store)


def sized_components():
    """Three disjoint components with strictly decreasing sizes."""
    return [
        conflicted_chain(9, first_atom=1),
        conflicted_chain(5, first_atom=100),
        conflicted_chain(2, first_atom=200),
    ]


def walksat_tasks(components, flips=300, noise=0.5):
    rng = RandomSource(0)
    return [
        ComponentTask(
            index=index,
            kind="walksat",
            seed=rng.spawn(index + 1).seed,
            walksat=WalkSATOptions(max_flips=flips, noise=noise),
        )
        for index in range(len(components))
    ]


def zero_flip_placeholder(components):
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


def weighted_components():
    """``sized_components`` plus one with a hard and a negative clause."""
    store = GroundClauseStore()
    store.add((300, 301), math.inf)
    store.add((-301, 302), -2.5)
    return sized_components() + [MRF.from_store(store)]


class TestForkInheritedComponents:
    """Workers index the parent's component list; nothing is shipped down."""

    @pytest.mark.skipif(
        not processes_available(), reason="fork start method unavailable"
    )
    def test_pool_owns_exactly_one_segment_and_unlinks_it(self):
        before = set(os.listdir("/dev/shm"))
        pool = WorkerPool(weighted_components(), 2)
        try:
            assert len(set(os.listdir("/dev/shm")) - before) == 1
        finally:
            pool.shutdown()
        assert set(os.listdir("/dev/shm")) == before

    def test_worker_searches_the_parents_component_object(self, monkeypatch):
        components = weighted_components()
        searched = []
        real = execute_component_task

        def spy(task, mrf, state=None):
            searched.append((mrf, state))
            return real(task, mrf, state)

        monkeypatch.setattr(pool_module, "execute_component_task", spy)
        results = ResultBufferSet.pack(components)
        try:
            states = BoundedStateCache()
            for task in walksat_tasks(components):
                assert components[task.index]._flat_view is None
                pool_module._worker_run_task(task, components, results, states)
        finally:
            results.destroy()
        # The task ran on the very object the parent holds, and its flat
        # view was built by the worker's first use, not ahead of it.
        for (mrf, state), component in zip(searched, components):
            assert mrf is component
            assert state.mrf is component
            assert component._flat_view is not None

    @pytest.mark.skipif(
        not processes_available(), reason="fork start method unavailable"
    )
    def test_forked_worker_searches_identically(self):
        components = weighted_components()
        tasks = walksat_tasks(components)
        with WorkerPool(components, 2) as pool:
            pool.submit_chunk(tasks)
            shipped = {
                outcome.index: outcome for outcome in pool.drain(len(tasks))
            }
            pool.finish_request(0)
        for task in tasks:
            local = execute_component_task(task, components[task.index])
            remote = shipped[task.index]
            assert remote.result.best_assignment == local.result.best_assignment
            assert list(remote.result.best_assignment) == components[task.index].atom_ids
            assert remote.result.best_cost == local.result.best_cost
            assert remote.result.flips == local.result.flips
            assert remote.simulated_seconds == local.simulated_seconds


class TestDispatchOrder:
    def test_largest_first_with_stable_ties(self):
        components = sized_components()
        assert dispatch_order(components) == [0, 1, 2]
        assert dispatch_order(list(reversed(components))) == [2, 1, 0]
        same = [conflicted_chain(3, first_atom=base) for base in (1, 100, 200)]
        assert dispatch_order(same) == [0, 1, 2]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_scheduler_records_dispatch_order(self, backend):
        components = list(reversed(sized_components()))
        outcome = run_components(
            components,
            walksat_tasks(components),
            parallel_backend=backend,
            workers=2,
        )
        assert outcome.dispatch_order == [2, 1, 0]
        assert outcome.skipped == []

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", (1, 4))
    def test_many_component_order_and_results_independent_of_workers(
        self, backend, workers
    ):
        components = many_components(12)
        expected = [
            execute_component_task(task, component)
            for task, component in zip(walksat_tasks(components), components)
        ]
        outcome = run_components(
            components,
            walksat_tasks(components),
            parallel_backend=backend,
            workers=workers,
        )
        assert outcome.dispatch_order == dispatch_order(components)
        assert outcome.skipped == []
        # Results come back in component order, whoever ran them.
        for got, want in zip(outcome.results, expected):
            assert got.best_assignment == want.result.best_assignment
            assert got.best_cost == want.result.best_cost
            assert got.flips == want.result.flips
        assert outcome.sequential_simulated_seconds == pytest.approx(
            sum(want.simulated_seconds for want in expected)
        )


class TestChunkBoundaries:
    """The guided self-scheduling cut of a dispatch order into chunks."""

    @given(
        work=st.lists(st.integers(min_value=1, max_value=10**9), max_size=200),
        workers=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_position_in_exactly_one_chunk_in_order(self, work, workers):
        chunks = chunk_boundaries(work, workers)
        covered = [position for start, stop in chunks for position in range(start, stop)]
        assert covered == list(range(len(work)))
        assert all(stop > start for start, stop in chunks)
        # A multi-task chunk never exceeds its share of the work that was
        # still undispatched when it was cut.
        remaining = sum(work)
        for start, stop in chunks:
            taken = sum(work[start:stop])
            if stop - start > 1:
                assert taken * CHUNK_SHARE * workers <= remaining
            remaining -= taken

    def test_equal_tasks_shrink_to_single_task_chunks(self):
        chunks = chunk_boundaries([5] * 3000, 2)
        lengths = [stop - start for start, stop in chunks]
        assert lengths[0] == 3000 // (CHUNK_SHARE * 2)
        assert lengths == sorted(lengths, reverse=True)
        assert lengths[-CHUNK_SHARE * 2:] == [1] * (CHUNK_SHARE * 2)
        # Thousands of tasks travel in a few dozen messages.
        assert len(chunks) < 40

    def test_single_task_is_one_chunk(self):
        assert chunk_boundaries([7], 4) == [(0, 1)]
        assert chunk_boundaries([], 4) == []

    def test_task_heavier_than_the_share_travels_alone(self):
        # Largest-first: the giant leads, and is more than 1/(2*2) of the work.
        chunks = chunk_boundaries([1000, 10, 10, 10, 10, 10, 10, 10, 10], 2)
        assert chunks[0] == (0, 1)
        assert chunks[1] == (1, 3)

    def test_coarse_request_keeps_single_task_tail(self):
        lengths = [stop - start for start, stop in chunk_boundaries([60] * 48, 2)]
        assert sum(lengths) == 48
        assert max(lengths) == 48 // (CHUNK_SHARE * 2)
        assert lengths.count(1) >= CHUNK_SHARE * 2

    def test_task_work_is_size_times_allocated_steps(self):
        from repro.inference.mcsat import MCSatOptions

        component = conflicted_chain(5)
        walksat = ComponentTask(
            index=0, kind="walksat", seed=0, walksat=WalkSATOptions(max_flips=300)
        )
        mcsat = ComponentTask(
            index=0, kind="mcsat", seed=0, mcsat=MCSatOptions(samples=6, burn_in=2)
        )
        assert task_work(walksat, component) == component.size() * 300
        assert task_work(mcsat, component) == component.size() * 8


def many_components(count=24):
    """``count`` disjoint chains of 2..7 atoms (sizes repeat, so ties too)."""
    return [
        conflicted_chain(2 + index % 6, first_atom=1 + 100 * index)
        for index in range(count)
    ]


def outcome_fields(outcome):
    """Comparable projection of a ComponentOutcome (trace included)."""
    result = outcome.result
    return (
        outcome.index,
        outcome.simulated_seconds,
        result.best_assignment,
        result.best_cost,
        result.flips,
        result.tries,
        [(p.time, p.cost, p.flips) for p in result.trace.points],
    )


@pytest.mark.skipif(not processes_available(), reason="fork start method unavailable")
class TestChunkedPool:
    """One pool message per chunk, one completion message back."""

    def test_chunked_run_matches_serial_and_counts_chunks(self):
        components = many_components()
        expected = [
            execute_component_task(task, component)
            for task, component in zip(walksat_tasks(components), components)
        ]
        metrics = MetricsRegistry()
        with WorkerPool(components, 1, metrics=metrics) as pool:
            for _ in range(2):
                outcome = run_component_tasks(
                    components, walksat_tasks(components), backend="processes",
                    workers=2, pool=pool, metrics=metrics,
                )
                assert outcome.dispatch_order == dispatch_order(components)
                assert outcome.skipped == []
                assert outcome.executed == len(components)
                for got, want in zip(outcome.results, expected):
                    assert got.best_assignment == want.result.best_assignment
                    assert got.best_cost == want.result.best_cost
                    assert got.flips == want.result.flips
        counters = metrics.as_dict()["counters"]
        tasks = walksat_tasks(components)
        chunks = chunk_boundaries(
            [
                task_work(tasks[index], components[index])
                for index in dispatch_order(components)
            ],
            2,
        )
        assert 1 < len(chunks) < len(components)
        assert counters["scheduler.chunks_dispatched"] == 2 * len(chunks)
        # Tasks are still counted one by one.
        assert counters["scheduler.tasks_executed"] == 2 * len(components)
        assert counters["pool.shm_shipped"] == 2 * len(components)
        # One worker: the first request builds every state, the second
        # finds every state resident.
        assert counters["pool.state_cache_misses"] == len(components)
        assert counters["pool.state_cache_hits"] == len(components)

    def test_deadline_run_sends_single_task_chunks(self):
        components = many_components(8)
        tasks = walksat_tasks(components)
        costs = [
            execute_component_task(task, component).simulated_seconds
            for task, component in zip(tasks, components)
        ]
        order = dispatch_order(components)
        # The deadline falls strictly inside the run: after three positions.
        deadline = sum(costs[index] for index in order[:3])
        metrics = MetricsRegistry()
        outcome = run_component_tasks(
            components, walksat_tasks(components), backend="processes", workers=2,
            deadline_seconds=deadline,
            placeholder=zero_flip_placeholder(components), metrics=metrics,
        )
        assert outcome.dispatch_order == order[:3]
        assert outcome.skipped == sorted(order[3:])
        counters = metrics.as_dict()["counters"]
        # One message per task.  How far past the cutoff dispatch ran
        # depends on which worker finishes first (a straggler at position
        # 0 lets the whole order through); TestScriptedSteal pins that.
        assert counters["scheduler.chunks_dispatched"] == outcome.executed
        assert outcome.executed >= 3

    def test_chunk_ships_some_results_via_shm_and_others_pickled(self):
        components = many_components(12)
        tasks = walksat_tasks(components)
        expected = [
            execute_component_task(task, component)
            for task, component in zip(tasks, components)
        ]
        trace_lengths = [len(out.result.trace.points) for out in expected]
        capacity = sorted(trace_lengths)[len(trace_lengths) // 2 - 1]
        fits = [length <= capacity for length in trace_lengths]
        assert any(fits) and not all(fits)
        with WorkerPool(components, 2, trace_capacity=capacity) as pool:
            pool.submit_chunk(walksat_tasks(components))  # one message, one worker
            outcomes = {}
            for _ in components:
                outcome, _worker = pool.next_outcome()
                outcomes[outcome.index] = outcome
            assert pool.finish_request(0)[:2] == (fits.count(True), fits.count(False))
        for index, want in enumerate(expected):
            assert outcome_fields(outcomes[index]) == outcome_fields(want)

    def test_error_mid_chunk_delivers_finished_tokens_then_fails_cleanly(self):
        components = many_components(6)
        tasks = walksat_tasks(components)
        for task in tasks:
            task.request_id = 7
        tasks[2] = ComponentTask(index=2, kind="bogus", seed=0, request_id=7)
        expected = [
            execute_component_task(task, component)
            for task, component in zip(tasks[:2], components)
        ]
        pool = WorkerPool(components, 2)
        try:
            pool.submit_chunk(tasks)
            # The two tasks finished before the failing one are delivered.
            for want in expected:
                outcome, _worker = pool.next_outcome(7)
                assert outcome_fields(outcome) == outcome_fields(want)
            # The error names exactly the failing task ...
            with pytest.raises(RuntimeError, match="component 2.*bogus"):
                pool.next_outcome(7)
            # ... and the request closes out clean: no in-flight records
            # (the chunk's never-run tasks included), no queued tokens,
            # the bank back on the free list.
            assert pool.finish_request(7) == (2, 0, pool.shm_bytes)
            assert 7 not in pool._inflight
            assert 7 not in pool._ready
            assert 7 not in pool._bank_of
            assert pool._free_banks == [0]
        finally:
            pool.shutdown()

    def test_scheduler_surfaces_mid_chunk_error_and_frees_the_bank(self):
        components = many_components(6)
        tasks = walksat_tasks(components)
        tasks[3] = ComponentTask(index=3, kind="bogus", seed=0)
        with WorkerPool(components, 2) as pool:
            with pytest.raises(RuntimeError, match="component 3"):
                run_component_tasks(
                    components, tasks, backend="processes", workers=2, pool=pool,
                    request_id=5,
                )
            assert pool._inflight == {}
            assert pool._bank_of == {}
            assert pool._free_banks == [0]

    def test_worker_dying_mid_chunk_surfaces_through_liveness_poll(self, monkeypatch):
        components = many_components(4)
        real = pool_module.execute_component_task

        def dying(task, mrf, state=None):
            if task.index == 1:
                os._exit(3)  # no reply, no cleanup: an OOM kill's shape
            return real(task, mrf, state)

        # Patched before the fork, so the workers inherit it.
        monkeypatch.setattr(pool_module, "execute_component_task", dying)
        pool = WorkerPool(components, 1)
        try:
            pool.submit_chunk(walksat_tasks(components))
            started = time.monotonic()
            with pytest.raises(RuntimeError, match="died before replying"):
                pool.next_outcome()
            assert time.monotonic() - started < 10.0
            pool.finish_request(0)
            assert pool._inflight == {}
        finally:
            pool.shutdown()

    def test_chunk_must_be_one_requests_nonempty_batch(self):
        components = many_components(2)
        tasks = walksat_tasks(components)
        tasks[1].request_id = 9
        with WorkerPool(components, 1) as pool:
            with pytest.raises(ValueError):
                pool.submit_chunk([])
            with pytest.raises(ValueError):
                pool.submit_chunk(tasks)


class TestScriptedSteal:
    """``_Dispatch.steal`` driven by a scripted submit / drain, no pool.

    Eight single-task chunks of cost 1.0, a deadline of 3.0 (so the
    cutoff is position 3 once positions 0-2 are known) and a window of
    two positions past the completed *count*.
    """

    def steal(self, straggler):
        components = many_components(8)
        run = _Dispatch(components, "serial", 2, 3.0, None, 0, None)
        position_of = run.position_of
        in_flight = []
        submitted = []

        def submit(indices):
            cutoff = deadline_cutoff(run.costs, run.deadline)
            for index in indices:
                position = position_of[index]
                # Nothing at or past a provable cutoff goes out.
                assert cutoff is None or position < cutoff
                submitted.append(position)
                in_flight.append(index)

        def drain():
            # In submission order, except that position 0 (when it
            # straggles) finishes only once nothing else is in flight.
            ready = [
                index for index in in_flight
                if not (straggler and position_of[index] == 0)
            ] or in_flight
            index = ready[0]
            in_flight.remove(index)
            return 0, [(index, 1.0)]

        run.steal(_single_chunks(len(components)), 2, submit, drain)
        return run, submitted

    def test_in_order_run_stops_one_past_the_window_at_the_cutoff(self):
        run, submitted = self.steal(straggler=False)
        # Position 3 went out before position 2 finished, while no cutoff
        # was provable yet; nothing went out after that.
        assert submitted == [0, 1, 2, 3]
        assert run.chunks_sent == run.executed == 4
        assert run.counted() == run.order[:3]

    def test_straggler_at_position_zero_lets_the_whole_order_through(self):
        run, submitted = self.steal(straggler=True)
        # The window counts completed tasks, not a completed prefix, and
        # no cutoff is provable while position 0 is unknown.
        assert submitted == list(range(8))
        assert run.chunks_sent == run.executed == 8
        assert run.counted() == run.order[:3]


class TestDeadlineHandling:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_expired_deadline_stops_all_dispatch(self, backend):
        components = sized_components()
        tasks = walksat_tasks(components)
        outcome = run_components(
            components,
            tasks,
            parallel_backend=backend,
            workers=2,
            deadline_seconds=0.0,
            placeholder=zero_flip_placeholder(components),
        )
        assert outcome.skipped == [0, 1, 2]
        assert outcome.dispatch_order == []
        assert all(result.flips == 0 for result in outcome.results)
        assert outcome.sequential_simulated_seconds == 0.0

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_tiny_deadline_counts_only_first_position(self, backend, workers):
        components = sized_components()
        tasks = walksat_tasks(components)
        outcome = run_components(
            components,
            tasks,
            parallel_backend=backend,
            workers=workers,
            deadline_seconds=1e-9,
            placeholder=zero_flip_placeholder(components),
        )
        # Post-hoc rule: position 0 always counts (zero spend before it);
        # its cost alone exceeds the tiny deadline, so everything after is
        # skipped — on every backend and worker count.
        assert outcome.dispatch_order == dispatch_order(components)[:1]
        assert outcome.skipped == [1, 2]
        for index, result in enumerate(outcome.results):
            if index == 0:
                assert result.flips > 0
            else:
                assert result.flips == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_component_walksat_deadline_is_deterministic(self, backend):
        components = sized_components()
        searcher = ComponentAwareWalkSAT(
            WalkSATOptions(max_flips=900, deadline_seconds=1e-9),
            RandomSource(0),
            parallel_backend=backend,
        )
        result = searcher.run(components, total_flips=900)
        # workers=1: exactly the largest component ran; the others carry
        # their deterministic initial (all-false-reset) placeholder state.
        assert result.skipped_components == [1, 2]
        assert result.component_results[0].flips > 0
        assert result.component_results[1].flips == 0
        assert result.component_results[2].flips == 0
        assert set(result.best_assignment) == {
            atom for component in components for atom in component.atom_ids
        }
        reference = ComponentAwareWalkSAT(
            WalkSATOptions(max_flips=900, deadline_seconds=1e-9),
            RandomSource(0),
            parallel_backend="serial",
        ).run(components, total_flips=900)
        assert result.best_assignment == reference.best_assignment
        assert result.best_cost == reference.best_cost

    def test_deadline_run_identical_across_backends_and_workers(self):
        """The strengthened contract: the deadline outcome is decided by
        post-hoc bookkeeping over the simulated costs, so it is identical
        across backends *and* worker counts."""
        components = sized_components()
        reference = ComponentAwareWalkSAT(
            WalkSATOptions(max_flips=900, deadline_seconds=1e-9),
            RandomSource(0),
            workers=1,
            parallel_backend="serial",
        ).run(components, total_flips=900)
        assert reference.skipped_components == [1, 2]
        for backend in BACKENDS:
            for workers in (1, 2, 4):
                result = ComponentAwareWalkSAT(
                    WalkSATOptions(max_flips=900, deadline_seconds=1e-9),
                    RandomSource(0),
                    workers=workers,
                    parallel_backend=backend,
                ).run(components, total_flips=900)
                label = f"{backend}/workers={workers}"
                assert result.best_assignment == reference.best_assignment, label
                assert result.best_cost == reference.best_cost, label
                assert result.skipped_components == reference.skipped_components

    def test_no_deadline_dispatches_everything(self):
        components = sized_components()
        outcome = run_components(
            components,
            walksat_tasks(components),
            parallel_backend="serial",
            workers=1,
        )
        assert outcome.skipped == []
        assert all(result.flips > 0 for result in outcome.results)

    def test_missing_placeholder_is_an_error(self):
        components = sized_components()
        with pytest.raises(RuntimeError):
            run_components(
                components,
                walksat_tasks(components),
                parallel_backend="serial",
                workers=1,
                deadline_seconds=0.0,
            )


class TestTaskErrors:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bad_task_kind_surfaces(self, backend):
        components = sized_components()
        tasks = walksat_tasks(components)
        tasks[1] = ComponentTask(index=1, kind="bogus", seed=0)
        with pytest.raises((ValueError, RuntimeError)):
            run_components(
                components, tasks, parallel_backend=backend, workers=2
            )


class TestGaussSeidelRefine:
    def _oversized(self):
        return conflicted_chain(16), GreedyPartitioner(24)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_refine_backend_independent(self, backend):
        mrf, partitioner = self._oversized()
        partitions = partitioner.partition(mrf).atom_partitions
        assert len(partitions) > 1
        reference = gauss_seidel_refine(
            mrf,
            partitions,
            options=WalkSATOptions(max_flips=800),
            rng=RandomSource(3),
            rounds=2,
        )
        result = gauss_seidel_refine(
            mrf,
            partitions,
            options=WalkSATOptions(max_flips=800),
            rng=RandomSource(3),
            rounds=2,
            parallel_backend=backend,
            workers=2,
        )
        assert result.best_assignment == reference.best_assignment
        assert result.best_cost == reference.best_cost
        assert result.flips == reference.flips

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", (1, 4))
    def test_refine_independent_of_workers(self, backend, workers):
        mrf, partitioner = self._oversized()
        partitions = partitioner.partition(mrf).atom_partitions
        reference = gauss_seidel_refine(
            mrf,
            partitions,
            options=WalkSATOptions(max_flips=800),
            rng=RandomSource(5),
            rounds=3,
        )
        result = gauss_seidel_refine(
            mrf,
            partitions,
            options=WalkSATOptions(max_flips=800),
            rng=RandomSource(5),
            rounds=3,
            parallel_backend=backend,
            workers=workers,
        )
        assert result.best_assignment == reference.best_assignment
        assert result.best_cost == reference.best_cost
        assert result.flips == reference.flips
        assert result.cut_clause_count == reference.cut_clause_count

    def test_refine_covers_all_atoms_and_counts_cut(self):
        mrf, partitioner = self._oversized()
        partitions = partitioner.partition(mrf).atom_partitions
        result = gauss_seidel_refine(
            mrf,
            partitions,
            options=WalkSATOptions(max_flips=800),
            rng=RandomSource(0),
            rounds=2,
        )
        assert set(result.best_assignment) == set(mrf.atom_ids)
        assert result.cut_clause_count >= 1
        assert result.flips > 0
        assert result.best_cost < math.inf
