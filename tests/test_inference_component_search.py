"""Tests for component-aware WalkSAT, Gauss-Seidel search, SampleSAT and MC-SAT."""

import math

import numpy as np
import pytest

from repro.datasets.example1 import example1_mrf, example1_optimal_cost
from repro.datasets.example2 import example2_mrf
from repro.grounding.clause_table import GroundClause, GroundClauseStore
from repro.inference.component_walksat import ComponentAwareWalkSAT
from repro.inference.gauss_seidel import GaussSeidelSearch
from repro.inference.mcsat import MCSat, MCSatOptions, _BatchedSelection
from repro.inference.samplesat import ConstraintPool, SampleSAT, SampleSATOptions
from repro.inference.state import SearchState
from repro.inference.walksat import WalkSAT, WalkSATOptions
from repro.mrf.components import connected_components
from repro.mrf.cost import assignment_cost
from repro.mrf.graph import MRF
from repro.utils.rng import RandomSource


class TestComponentAwareWalkSAT:
    def test_reaches_optimum_on_example1(self):
        mrf = example1_mrf(12)
        searcher = ComponentAwareWalkSAT(WalkSATOptions(max_flips=4000), RandomSource(0))
        result = searcher.run(mrf)
        assert result.component_count == 12
        assert result.best_cost == pytest.approx(example1_optimal_cost(12))
        recomputed = assignment_cost(mrf, result.best_assignment, hard_as_infinite=False)
        assert recomputed == pytest.approx(result.best_cost)

    def test_accepts_precomputed_components(self):
        mrf = example1_mrf(5)
        decomposition = connected_components(mrf)
        result = ComponentAwareWalkSAT(rng=RandomSource(1)).run(decomposition, total_flips=2000)
        assert result.component_count == 5

    def test_component_aware_beats_monolithic_with_equal_budget(self):
        """The Theorem 3.1 phenomenon: with the same flip budget, the
        component-aware search reaches a better (or equal) cost than the
        monolithic search, and on enough components strictly better."""
        mrf = example1_mrf(30)
        budget = 3000
        component_result = ComponentAwareWalkSAT(
            WalkSATOptions(max_flips=budget), RandomSource(0)
        ).run(mrf, total_flips=budget)
        monolithic = WalkSAT(WalkSATOptions(max_flips=budget), RandomSource(0)).run(mrf)
        assert component_result.best_cost <= monolithic.best_cost
        assert component_result.best_cost == pytest.approx(example1_optimal_cost(30))
        assert monolithic.best_cost > example1_optimal_cost(30)

    def test_parallel_workers_produce_valid_result(self):
        mrf = example1_mrf(16)
        result = ComponentAwareWalkSAT(
            WalkSATOptions(max_flips=2000), RandomSource(2), workers=4
        ).run(mrf)
        assert result.best_cost == pytest.approx(example1_optimal_cost(16))
        assert result.parallel_simulated_seconds <= result.simulated_seconds + 1e-9

    def test_trace_merges_components(self):
        result = ComponentAwareWalkSAT(
            WalkSATOptions(max_flips=1000), RandomSource(3)
        ).run(example1_mrf(4))
        assert result.trace.points
        assert result.trace.best_cost == pytest.approx(example1_optimal_cost(4))


class TestComponentTargetCost:
    """Regression: _make_task hardcoded target_cost=0.0, ignoring the
    caller's WalkSATOptions.target_cost."""

    def test_explicit_target_cost_is_honored(self):
        mrf = example1_mrf(4)
        # Any assignment of one component costs at most 3 (its total
        # |weight|), so a per-component target of 50 is met by the very
        # first state of every try: zero flips everywhere.
        searcher = ComponentAwareWalkSAT(
            WalkSATOptions(max_flips=500, target_cost=50.0), RandomSource(0)
        )
        result = searcher.run(mrf)
        assert all(r.reached_target for r in result.component_results)
        assert result.flips == 0

    def test_default_target_remains_component_optimum(self):
        mrf = example1_mrf(4)
        searcher = ComponentAwareWalkSAT(
            WalkSATOptions(max_flips=2000), RandomSource(0)
        )
        result = searcher.run(mrf)
        # Component cost can never reach 0 on example1 (optimum is 1), so
        # with the default target the budget is spent searching.
        assert result.flips > 0
        assert result.best_cost == pytest.approx(example1_optimal_cost(4))

    def test_initial_assignment_still_restricted_per_component(self):
        mrf = example1_mrf(4)
        optimal = {atom: True for atom in mrf.atom_ids}
        searcher = ComponentAwareWalkSAT(
            WalkSATOptions(max_flips=400, random_restarts=False), RandomSource(1)
        )
        result = searcher.run(mrf, initial_assignment=optimal)
        assert result.best_cost == pytest.approx(example1_optimal_cost(4))
        assert result.best_assignment == optimal


class TestGaussSeidelSearch:
    def test_example2_reaches_low_cost(self):
        mrf, side_one, side_two = example2_mrf(4)
        searcher = GaussSeidelSearch(
            WalkSATOptions(max_flips=4000), RandomSource(0), rounds=4
        )
        result = searcher.run(mrf, [side_one, side_two])
        # Optimum: each pair violates exactly one clause (the negative one).
        assert result.best_cost <= 8.5
        assert result.cut_clause_count == 1
        assert result.rounds == 4
        recomputed = assignment_cost(mrf, result.best_assignment, hard_as_infinite=False)
        assert recomputed == pytest.approx(result.best_cost)

    def test_partitions_must_cover_and_not_overlap(self):
        mrf, side_one, side_two = example2_mrf(2)
        searcher = GaussSeidelSearch(rng=RandomSource(0))
        with pytest.raises(ValueError):
            searcher.run(mrf, [side_one])
        with pytest.raises(ValueError):
            searcher.run(mrf, [side_one, side_one + side_two])

    def test_single_partition_equivalent_to_plain_search(self):
        mrf = example1_mrf(3)
        searcher = GaussSeidelSearch(WalkSATOptions(max_flips=2000), RandomSource(1), rounds=2)
        result = searcher.run(mrf, [list(mrf.atom_ids)])
        assert result.best_cost == pytest.approx(example1_optimal_cost(3))

    def test_invalid_rounds(self):
        with pytest.raises(ValueError):
            GaussSeidelSearch(rounds=0)


def sample_constraints(clauses, atom_ids, seed):
    """SampleSAT over a search state of the clauses as constraints."""
    state = SearchState(MRF.from_clauses(clauses, extra_atoms=atom_ids))
    found = SampleSAT(rng=RandomSource(seed)).sample_prepared(state)
    return state.checkpoint_dict() if found else state.assignment_dict()


class TestSampleSAT:
    def test_satisfies_simple_constraints(self):
        store = GroundClauseStore()
        store.add((1, 2), 1.0)
        store.add((-1, 3), 1.0)
        clauses = store.clauses()
        sample = sample_constraints(clauses, [1, 2, 3], 0)
        for clause in clauses:
            satisfied = any(
                sample[abs(l)] == (l > 0) for l in clause.literals
            )
            assert satisfied

    def test_option_validation(self):
        with pytest.raises(ValueError):
            SampleSATOptions(walksat_probability=2.0)
        with pytest.raises(ValueError):
            SampleSATOptions(temperature=0.0)

    def test_different_seeds_explore_different_states(self):
        store = GroundClauseStore()
        store.add((1, 2), 1.0)
        clauses = store.clauses()
        samples = {
            tuple(sorted(sample_constraints(clauses, [1, 2], seed).items()))
            for seed in range(12)
        }
        assert len(samples) > 1


class TestMCSat:
    def _biased_mrf(self):
        """Atom 1 is strongly preferred true, atom 2 strongly preferred false."""
        store = GroundClauseStore()
        store.add((1,), 3.0)
        store.add((-2,), 3.0)
        store.add((1, 2), 0.5)
        return MRF.from_store(store)

    def test_marginals_follow_weights(self):
        result = MCSat(MCSatOptions(samples=80, burn_in=10), RandomSource(0)).run(self._biased_mrf())
        assert result.probability(1) > 0.7
        assert result.probability(2) < 0.3
        assert result.samples == 80

    def test_hard_clauses_always_respected(self):
        store = GroundClauseStore()
        store.add((1,), math.inf)
        store.add((-2,), 1.0)
        mrf = MRF.from_store(store)
        result = MCSat(MCSatOptions(samples=30, burn_in=5), RandomSource(1)).run(mrf)
        assert result.probability(1) == pytest.approx(1.0)

    def test_most_likely_thresholding(self):
        result = MCSat(MCSatOptions(samples=40, burn_in=5), RandomSource(2)).run(self._biased_mrf())
        world = result.most_likely()
        assert world[1] is True
        assert world[2] is False

    def test_option_validation(self):
        with pytest.raises(ValueError):
            MCSatOptions(samples=0)
        with pytest.raises(ValueError):
            MCSatOptions(burn_in=-1)


class TestMCSatClauseSelection:
    """Selection edge cases around hard and negative weights, on the
    program's selection (``_BatchedSelection``) and the constraint rows of
    the pool's state: hard clauses of either sign are constrained without
    consuming randomness, and a hard negative clause is constrained even
    when the current world satisfies it (regression: it used to be
    silently dropped from M, and the unsatisfied case burned an rng draw on
    a keep probability that is always 1)."""

    @staticmethod
    def _select(clauses, flags, seed=0):
        """The step's constraint rows, and whether the rng went untouched."""
        rng = RandomSource(seed)
        before = rng.raw().getstate()
        mrf = MRF.from_clauses(clauses)
        selected = _BatchedSelection(mrf).select(rng, np.array(flags, dtype=bool))
        state = ConstraintPool(mrf).state_for(selected)
        columns = state.mrf.columns()
        rows = [
            GroundClause(0, tuple(literals), weight)
            for literals, weight in zip(columns.literal_rows(), columns.weights)
        ]
        return rows, before == rng.raw().getstate()

    def test_hard_negative_satisfied_is_constrained_to_stay_unsatisfied(self):
        clause = GroundClause(1, (1, -2), -math.inf)
        selected, untouched = self._select([clause], [True])
        assert [c.literals for c in selected] == [(-1,), (2,)]
        assert all(c.weight == 1.0 for c in selected)
        assert untouched  # hard clauses never consume randomness

    def test_hard_negative_unsatisfied_is_constrained_without_a_draw(self):
        clause = GroundClause(1, (1, -2), -math.inf)
        selected, untouched = self._select([clause], [False])
        assert [c.literals for c in selected] == [(-1,), (2,)]
        assert untouched

    def test_hard_positive_is_selected_without_a_draw(self):
        clause = GroundClause(1, (1, 2), math.inf)
        for satisfied in (True, False):
            selected, untouched = self._select([clause], [satisfied])
            assert [c.literals for c in selected] == [(1, 2)]
            assert untouched

    def test_soft_negative_unsatisfied_draws_exactly_once(self):
        # Large |weight|: keep probability 1 - exp(-3) ~ 0.95, so seed 0's
        # first draw selects it; the unit negations follow in literal order.
        clause = GroundClause(1, (1, -2), -3.0)
        selected, untouched = self._select([clause], [False])
        assert not untouched
        assert [c.literals for c in selected] == [(-1,), (2,)]
        reference = RandomSource(0)
        reference.random()  # exactly one draw consumed
        rng = RandomSource(0)
        _BatchedSelection(MRF.from_clauses([clause])).select(rng, np.array([False]))
        assert rng.raw().getstate() == reference.raw().getstate()

    def test_soft_negative_satisfied_is_skipped_without_a_draw(self):
        clause = GroundClause(1, (1, -2), -3.0)
        selected, untouched = self._select([clause], [True])
        assert selected == []
        assert untouched

    def test_hard_negative_clause_respected_end_to_end(self):
        """With (1 v 2) hard-negative, every sampled world must keep both
        atoms false no matter how hard the soft clauses push them true."""
        clauses = [
            GroundClause(1, (1, 2), -math.inf),
            GroundClause(2, (1,), 2.0),
            GroundClause(3, (2,), 1.5),
        ]
        mrf = MRF.from_clauses(clauses)
        result = MCSat(MCSatOptions(samples=40, burn_in=5), RandomSource(0)).run(mrf)
        assert result.probability(1) == pytest.approx(0.0)
        assert result.probability(2) == pytest.approx(0.0)
