"""Tests for WalkSAT, the RDBMS-backed variant, tracing and scheduling."""

import math

import pytest

from reference_kernel import ReferenceWalkSAT
from repro.datasets.example1 import example1_mrf
from repro.grounding.clause_table import GroundClauseStore
from repro.inference.rdbms_walksat import RDBMSWalkSAT
from repro.inference.scheduling import (
    ParallelOutcome,
    _list_schedule_makespan,
    weighted_flip_allocation,
)
from repro.inference.walksat import WalkSAT, WalkSATOptions, expected_hitting_time
from repro.mrf.components import connected_components
from repro.mrf.cost import assignment_cost
from repro.mrf.graph import MRF
from repro.obs.events import RateMeter, Series, merge_series
from repro.rdbms.database import Database
from repro.utils.clock import CostModel, SimulatedClock
from repro.utils.rng import RandomSource


def satisfiable_mrf():
    """A small satisfiable weighted SAT instance (optimal cost 0)."""
    store = GroundClauseStore()
    store.add((1, 2), 1.0)
    store.add((-1, 3), 1.0)
    store.add((-2, -3), 1.0)
    store.add((2, 3), 1.0)
    return MRF.from_store(store)


class TestWalkSATOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            WalkSATOptions(noise=1.5)
        with pytest.raises(ValueError):
            WalkSATOptions(max_flips=0)


class TestWalkSAT:
    def test_finds_zero_cost_solution(self):
        result = WalkSAT(WalkSATOptions(max_flips=5000), RandomSource(0)).run(satisfiable_mrf())
        assert result.best_cost == pytest.approx(0.0)
        assert result.flips > 0
        # The returned assignment really has that cost.
        recomputed = assignment_cost(satisfiable_mrf(), result.best_assignment)
        assert recomputed == pytest.approx(0.0)

    def test_deterministic_given_seed(self):
        options = WalkSATOptions(max_flips=200)
        first = WalkSAT(options, RandomSource(7)).run(example1_mrf(5))
        second = WalkSAT(options, RandomSource(7)).run(example1_mrf(5))
        assert first.best_cost == second.best_cost
        assert first.best_assignment == second.best_assignment

    def test_target_cost_stops_early(self):
        options = WalkSATOptions(max_flips=100_000, target_cost=5.0)
        result = WalkSAT(options, RandomSource(1)).run(example1_mrf(5))
        assert result.reached_target
        assert result.best_cost <= 5.0
        assert result.flips < 100_000

    def test_deadline_on_simulated_clock(self):
        clock = SimulatedClock(CostModel(memory_flip=1.0))
        options = WalkSATOptions(max_flips=10_000, deadline_seconds=50.0)
        result = WalkSAT(options, RandomSource(2), clock).run(example1_mrf(20))
        assert result.flips <= 51

    def test_trace_is_monotone_nonincreasing(self):
        result = WalkSAT(WalkSATOptions(max_flips=2000), RandomSource(3)).run(example1_mrf(8))
        costs = [point.cost for point in result.trace.points]
        assert costs == sorted(costs, reverse=True)

    def test_multiple_tries_restart(self):
        options = WalkSATOptions(max_flips=50, max_tries=3)
        result = WalkSAT(options, RandomSource(4)).run(example1_mrf(4))
        assert result.tries >= 1
        assert result.flips <= 150

    def test_initial_assignment_used(self):
        mrf = example1_mrf(3)
        optimal = {atom: True for atom in mrf.atom_ids}
        options = WalkSATOptions(max_flips=10, target_cost=3.0, random_restarts=False)
        result = WalkSAT(options, RandomSource(5)).run(mrf, optimal)
        assert result.best_cost == pytest.approx(3.0)

    def test_expected_hitting_time_positive(self):
        mean = expected_hitting_time(example1_mrf(2), target_cost=2.0, runs=5, max_flips=500, seed=1)
        assert 0 <= mean <= 500


class _FixedRandom(RandomSource):
    """``random()`` always returns a fixed value; other draws stay seeded."""

    def __init__(self, value, seed=0):
        super().__init__(seed)
        self._value = value

    def random(self):
        return self._value


class _NoPickRandom(_FixedRandom):
    """Fails the test if the random (non-greedy) branch is ever taken."""

    def pick(self, items):
        raise AssertionError("random flip taken despite noise=0.0")


def greedy_test_state():
    """All-false state where the greedy choice is unambiguous.

    Clause (1, 2) is violated.  Flipping atom 1 repairs it but breaks the
    weight-5 clause (-1,), so greedy must flip atom 2 (delta -1 vs +4).
    """
    store = GroundClauseStore()
    store.add((1, 2), 1.0)
    store.add((-1,), 5.0)
    from repro.inference.state import SearchState

    state = SearchState(MRF.from_store(store))
    violated = state.violated_clause_indices()
    assert violated == [0]
    return state


class TestNoiseBoundary:
    """Regression: ``rng.random() <= noise`` made noise=0.0 take a random
    flip whenever the RNG returned exactly 0.0 (on the seed WalkSAT loop's
    atom choice; ``TestKernelStepperNoiseBoundary`` pins the stepper)."""

    def test_zero_noise_is_purely_greedy(self):
        state = greedy_test_state()
        searcher = ReferenceWalkSAT(WalkSATOptions(noise=0.0), _NoPickRandom(0.0))
        position = searcher._choose_atom(state, 0)
        assert state.atom_id_at(position) == 2

    def test_full_noise_is_purely_random(self):
        state = greedy_test_state()

        class PickFirst(_FixedRandom):
            def pick(self, items):
                return items[0]

        # random() returns just under 1.0; noise=1.0 must take the random
        # branch, which here picks atom 1 (the greedy choice is atom 2).
        searcher = ReferenceWalkSAT(WalkSATOptions(noise=1.0), PickFirst(1.0 - 2**-53))
        position = searcher._choose_atom(state, 0)
        assert state.atom_id_at(position) == 1


class _RawStub:
    """Stands in for rng._random inside the kernel stepper."""

    def __init__(self, value):
        self.value = value

    def getrandbits(self, _bits):
        return 0  # always selects index 0 of the sampled sequence

    def random(self):
        return self.value


class _StubSource:
    def __init__(self, raw):
        self._raw = raw

    def raw(self):
        return self._raw


class TestKernelStepperNoiseBoundary:
    """The same noise-boundary regression, at the kernel's hot entry point."""

    def test_zero_noise_stepper_is_greedy(self):
        state = greedy_test_state()
        state.make_walksat_stepper(_StubSource(_RawStub(0.0)), noise=0.0)()
        assert state.value_of(2) is True  # greedy flip
        assert state.value_of(1) is False

    def test_full_noise_stepper_is_random(self):
        state = greedy_test_state()
        # random() just below 1.0 with noise=1.0 takes the random branch,
        # whose getrandbits stub picks the clause's first atom (atom 1).
        state.make_walksat_stepper(_StubSource(_RawStub(1.0 - 2**-53)), noise=1.0)()
        assert state.value_of(1) is True
        assert state.value_of(2) is False

    def test_stepper_raises_on_satisfied_state(self):
        state = greedy_test_state()
        step = state.make_walksat_stepper(_StubSource(_RawStub(0.0)), noise=0.0)
        step()  # repairs the only violated clause
        assert not state.has_violations()
        with pytest.raises(ValueError):
            step()


class TestInitialTargetCost:
    """Regression: a try whose *initial* state already meets target_cost
    must report reached_target with a zero-flip hitting time."""

    def test_initial_state_meeting_target(self):
        mrf = example1_mrf(3)
        optimal = {atom: True for atom in mrf.atom_ids}  # cost 3 (the optimum)
        options = WalkSATOptions(
            max_flips=1000, target_cost=3.0, random_restarts=False
        )
        result = WalkSAT(options, RandomSource(0)).run(mrf, optimal)
        assert result.reached_target
        assert result.hitting_time == 0
        assert result.flips == 0
        assert result.best_cost == pytest.approx(3.0)

    def test_expected_hitting_time_zero_when_target_trivial(self):
        # The cost can never exceed the total |weight| (9 here), so every
        # random initial state is already at the target: the mean must be
        # exactly 0 flips, not max_flips.
        mean = expected_hitting_time(
            example1_mrf(3), target_cost=9.0, runs=4, max_flips=200, seed=3
        )
        assert mean == pytest.approx(0.0)


class TestDeadlineAcrossRestarts:
    """Regressions for deadline/target handling in run_on_state: the
    deadline must be honored mid-try and must stop the restart loop, and
    the result can never surface the pre-randomized placeholder with
    best_cost == inf."""

    def test_deadline_expired_at_entry_returns_finite_best(self):
        clock = SimulatedClock(CostModel(memory_flip=1.0))
        clock.advance(100.0)  # already past the deadline before the run
        options = WalkSATOptions(
            max_flips=1_000, max_tries=5, deadline_seconds=50.0
        )
        mrf = example1_mrf(5)
        result = WalkSAT(options, RandomSource(0), clock).run(mrf)
        assert result.flips == 0
        assert result.tries == 1  # the deadline also stops the restarts
        assert math.isfinite(result.best_cost)
        # The best assignment is the first randomized state, not the
        # pre-randomized placeholder: its recomputed cost matches.
        recomputed = assignment_cost(mrf, result.best_assignment, hard_as_infinite=False)
        assert recomputed == pytest.approx(result.best_cost)

    def test_deadline_mid_try_stops_flips_and_restarts(self):
        clock = SimulatedClock(CostModel(memory_flip=1.0))
        options = WalkSATOptions(
            max_flips=30, max_tries=4, deadline_seconds=50.0
        )
        result = WalkSAT(options, RandomSource(2), clock).run(example1_mrf(20))
        # 30 flips in try one, then the deadline lands mid-try-two.
        assert result.flips <= 51
        assert result.tries <= 2
        assert math.isfinite(result.best_cost)

    def test_deadline_mid_try_same_result_as_single_try(self):
        """Once the deadline passes, extra allowed tries must not change
        the outcome."""
        mrf = example1_mrf(10)

        def run(max_tries):
            clock = SimulatedClock(CostModel(memory_flip=1.0))
            options = WalkSATOptions(
                max_flips=100, max_tries=max_tries, deadline_seconds=40.0
            )
            return WalkSAT(options, RandomSource(3), clock).run(mrf)

        single = run(1)
        many = run(6)
        assert single.best_cost == many.best_cost
        assert single.best_assignment == many.best_assignment
        assert single.flips == many.flips

    def test_best_cost_finite_even_on_hard_only_mrf(self):
        store = GroundClauseStore()
        store.add((1, 2), math.inf)
        store.add((-1, -2), math.inf)
        mrf = MRF.from_store(store)
        options = WalkSATOptions(max_flips=10, max_tries=2)
        result = WalkSAT(options, RandomSource(0)).run(mrf)
        assert math.isfinite(result.best_cost)
        assert set(result.best_assignment) == set(mrf.atom_ids)


class TestRDBMSWalkSAT:
    def test_reaches_same_quality_but_pays_io(self):
        mrf = satisfiable_mrf()
        database = Database()
        searcher = RDBMSWalkSAT(
            database, WalkSATOptions(max_flips=300, trace_label="tuffy-mm"), RandomSource(0)
        )
        result = searcher.run(mrf)
        assert result.best_cost == pytest.approx(0.0)
        assert database.clock.now() > 0.0
        assert database.io_statistics().page_writes > 0

    def test_simulated_flip_rate_orders_of_magnitude_slower(self):
        """Reproduces the Table 3 gap: in-memory search performs vastly more
        flips per simulated second than the RDBMS-backed search."""
        mrf = example1_mrf(30)
        memory_clock = SimulatedClock()
        memory_result = WalkSAT(WalkSATOptions(max_flips=2000), RandomSource(0), memory_clock).run(mrf)
        memory_rate = memory_result.flips / max(memory_clock.now(), 1e-12)

        database = Database()
        rdbms_result = RDBMSWalkSAT(
            database, WalkSATOptions(max_flips=50), RandomSource(0)
        ).run(mrf)
        rdbms_rate = rdbms_result.flips / max(database.clock.now(), 1e-12)
        assert memory_rate / rdbms_rate > 1000

    def test_deadline_respected(self):
        database = Database()
        options = WalkSATOptions(max_flips=10_000, deadline_seconds=0.5)
        result = RDBMSWalkSAT(database, options, RandomSource(1)).run(example1_mrf(10))
        assert database.clock.now() >= 0.5
        assert result.flips < 10_000

    def test_deadline_stops_restart_loop(self):
        """Regression: a deadline hit mid-try must end the run; with more
        tries allowed the result must be identical to a single-try run."""

        def run(max_tries):
            options = WalkSATOptions(
                max_flips=10_000, max_tries=max_tries, deadline_seconds=0.5
            )
            return RDBMSWalkSAT(Database(), options, RandomSource(1)).run(
                example1_mrf(10)
            )

        single = run(1)
        many = run(3)
        assert single.best_cost == many.best_cost
        assert single.best_assignment == many.best_assignment
        assert single.flips == many.flips


class TestTracing:
    def test_record_keeps_only_improvements(self):
        trace = Series("t")
        trace.record(0.0, 10.0)
        trace.record(1.0, 12.0)
        trace.record(2.0, 5.0)
        assert [point.cost for point in trace.points] == [10.0, 5.0]
        assert trace.best_cost == 5.0

    def test_cost_at_accounts_for_grounding_offset(self):
        trace = Series("t", grounding_seconds=10.0)
        trace.record(0.0, 8.0)
        trace.record(5.0, 3.0)
        assert math.isinf(trace.cost_at(9.0))
        assert trace.cost_at(10.0) == 8.0
        assert trace.cost_at(15.0) == 3.0

    def test_shifted(self):
        trace = Series("t")
        trace.record(1.0, 4.0)
        shifted = trace.shifted(2.0)
        assert shifted.points[0].time == pytest.approx(3.0)

    def test_merge_traces_sums_component_bests(self):
        first = Series("a")
        first.record(0.0, 5.0)
        first.record(2.0, 1.0)
        second = Series("b")
        second.record(1.0, 4.0)
        merged = merge_series([first, second])
        assert merged.points[-1].cost == pytest.approx(5.0)
        # Before the second component reports anything the sum is undefined.
        assert all(point.time >= 1.0 for point in merged.points)

    def test_flip_rate_meter(self):
        meter = RateMeter()
        meter.record(100, 2.0)
        meter.record(300, 2.0)
        assert meter.flips_per_second == pytest.approx(100.0)
        assert RateMeter().flips_per_second == 0.0


def _component(atoms: int, clauses: int) -> MRF:
    """An MRF with the given atom and clause counts (for allocation tests)."""
    from repro.grounding.clause_table import GroundClause

    clause_list = [
        GroundClause(index + 1, (1,), 1.0) for index in range(clauses)
    ]
    return MRF.from_clauses(clause_list, extra_atoms=range(1, atoms + 1))


class TestScheduling:
    def test_weighted_allocation_proportional(self):
        components = connected_components(example1_mrf(4)).components
        allocation = weighted_flip_allocation(components, 1000)
        assert len(allocation) == 4
        assert sum(allocation) == 1000
        assert all(share >= 1 for share in allocation)

    def test_weighted_allocation_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            weighted_flip_allocation([], 0)

    def test_allocation_conserves_budget_exactly(self):
        """Regression: per-component round() could over- or under-spend the
        budget by up to one flip per component.  Three equal thirds of 100
        rounded to 33 each (99 flips); largest remainder spends exactly 100."""
        components = [_component(1, 1), _component(1, 1), _component(1, 1)]
        allocation = weighted_flip_allocation(components, 100)
        assert sum(allocation) == 100
        # Rounding-up overspend case: 5 components at 1/2 + 9/2 atoms.
        components = [_component(3, 1) for _ in range(5)]
        allocation = weighted_flip_allocation(components, 7)
        assert sum(allocation) == 7

    def test_allocation_property_over_random_mixes(self):
        """Property-style: for random component mixes the shares always sum
        to exactly total_flips, are non-negative, and every non-trivial
        component gets >= 1 flip whenever the budget permits."""
        rng = RandomSource(0)
        for _trial in range(200):
            count = rng.randint(1, 12)
            components = [
                _component(rng.randint(0, 50), rng.randint(0, 3))
                for _ in range(count)
            ]
            total = rng.randint(1, 5000)
            shares = weighted_flip_allocation(components, total)
            assert len(shares) == count
            assert sum(shares) == (
                total if any(c.atom_count for c in components) else 0
            )
            assert all(share >= 0 for share in shares)
            nontrivial = [
                index
                for index, component in enumerate(components)
                if component.atom_count > 0 and component.clause_count > 0
            ]
            if total >= len(nontrivial):
                assert all(shares[index] >= 1 for index in nontrivial)

    def test_allocation_is_deterministic_and_proportional(self):
        components = [_component(10, 1), _component(30, 1), _component(60, 1)]
        shares = weighted_flip_allocation(components, 1000)
        assert shares == [100, 300, 600]
        assert weighted_flip_allocation(components, 1000) == shares

    def test_list_schedule_makespan_and_speedup(self):
        durations = [3.0, 1.0, 2.0]
        assert _list_schedule_makespan(durations, 1) == pytest.approx(6.0)
        assert _list_schedule_makespan(durations, 2) == pytest.approx(3.0)
        assert _list_schedule_makespan([], 2) == 0.0
        outcome = ParallelOutcome(
            results=durations,
            wall_seconds=0.0,
            sequential_simulated_seconds=sum(durations),
            parallel_simulated_seconds=_list_schedule_makespan(durations, 2),
        )
        assert outcome.simulated_speedup == pytest.approx(2.0)
