"""Tests for the incremental WalkSAT search state."""

import functools
import math
import operator

import pytest
from hypothesis import given, settings, strategies as st

from repro.grounding.clause_table import GroundClauseStore
from repro.inference.state import SearchState
from repro.mrf import graph
from repro.mrf.cost import assignment_cost
from repro.mrf.graph import MRF
from repro.utils.rng import RandomSource


def small_mrf():
    store = GroundClauseStore()
    store.add((1, 2), 1.0, "a")
    store.add((-1, 3), 2.0, "b")
    store.add((-2, -3), 0.5, "c")
    store.add((2,), -1.0, "neg")
    return MRF.from_store(store)


def hard_mrf():
    store = GroundClauseStore()
    store.add((1,), math.inf)
    store.add((-1, 2), 1.0)
    return MRF.from_store(store)


class TestSearchStateBasics:
    def test_initial_all_false_cost(self):
        state = SearchState(small_mrf())
        # all-false: (1,2) violated (1.0); (-1,3) satisfied; (-2,-3) satisfied;
        # (2,) negative-weight clause unsatisfied -> not violated.
        assert state.cost == pytest.approx(1.0)
        assert state.violated_count() == 1
        assert state.true_cost() == pytest.approx(1.0)

    def test_initial_assignment_respected(self):
        state = SearchState(small_mrf(), {1: True, 2: False, 3: False})
        assert state.value_of(1) is True
        # (1,2) satisfied; (-1,3) violated (2.0); (-2,-3) satisfied; (2,) fine.
        assert state.cost == pytest.approx(2.0)

    def test_flip_updates_cost_incrementally(self):
        state = SearchState(small_mrf())
        delta = state.flip_atom_id(2)
        # Flipping atom 2 to True: (1,2) repaired (-1.0), (-2,-3) still
        # satisfied via -3, (2,) becomes satisfied -> violated (+1.0).
        assert delta == pytest.approx(0.0)
        assert state.cost == pytest.approx(1.0)
        assert state.flips == 1

    def test_delta_cost_matches_flip(self):
        state = SearchState(small_mrf())
        for atom_id in (1, 2, 3):
            position = state._position[atom_id]
            predicted = state.delta_cost(position)
            before = state.cost
            actual = state.flip(position)
            assert actual == pytest.approx(predicted)
            assert state.cost == pytest.approx(before + actual)
            state.flip(position)  # restore

    def test_hard_clause_penalty_and_true_cost(self):
        state = SearchState(hard_mrf())
        assert state.true_cost() == math.inf
        assert state.cost >= 10.0
        state.flip_atom_id(1)
        assert state.true_cost() == pytest.approx(1.0)

    def test_reset_and_randomize(self):
        state = SearchState(small_mrf())
        state.flip_atom_id(1)
        state.reset()
        assert state.assignment_dict() == {1: False, 2: False, 3: False}
        assert state.cost == pytest.approx(1.0)
        state.randomize(RandomSource(0))
        assert state.violated_count() >= 0  # bookkeeping remains consistent
        recomputed = assignment_cost(state.mrf, state.assignment_dict(), hard_as_infinite=False)
        assert state.cost == pytest.approx(recomputed)

    def test_sample_violated_clause(self):
        state = SearchState(small_mrf())
        clause_index = state.sample_violated_clause(RandomSource(1))
        assert clause_index in state.violated_clause_indices()
        assert state.clause(clause_index).literals == (1, 2)

    def test_sample_with_no_violations_raises(self):
        store = GroundClauseStore()
        store.add((-1,), 1.0)
        state = SearchState(MRF.from_store(store))
        assert not state.has_violations()
        with pytest.raises(ValueError):
            state.sample_violated_clause(RandomSource(0))

    def test_clause_atom_positions_distinct(self):
        store = GroundClauseStore(merge_duplicates=False)
        store.add((1, 1, 2), 1.0)
        state = SearchState(MRF.from_store(store))
        assert len(state.clause_atom_positions(0)) == 2


class TestSearchStateInvariants:
    """The incremental bookkeeping must always agree with a full recount."""

    @given(
        st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=40),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_incremental_cost_matches_recomputation(self, flips, seed):
        rng = RandomSource(seed)
        store = GroundClauseStore(merge_duplicates=False)
        # A fixed, somewhat adversarial clause set over 6 atoms.
        store.add((1, 2, -3), 1.0)
        store.add((-1, 4), 2.0)
        store.add((3, -5), 0.5)
        store.add((5, 6), -1.5)
        store.add((-6, -2), 0.7)
        store.add((4,), -0.3)
        mrf = MRF.from_store(store)
        state = SearchState(mrf)
        state.randomize(rng)
        for atom_id in flips:
            state.flip_atom_id(atom_id)
            expected = assignment_cost(mrf, state.assignment_dict(), hard_as_infinite=False)
            assert state.cost == pytest.approx(expected)
            expected_violated = sum(
                1
                for index in range(mrf.clause_count)
                if state._is_violated(index)
            )
            assert state.violated_count() == expected_violated


class TestLeftFoldCosts:
    """Costs add left to right in clause order on both count paths.

    Builtin ``sum()`` compensates float rounding since Python 3.12, so a
    path summing with it would report ``1e16 + 2`` here while the loop
    reports ``1e16``.
    """

    def test_loop_and_bincount_costs_equal_the_left_fold(self, monkeypatch):
        store = GroundClauseStore()
        for atom, weight in ((1, 1e16), (2, 1.0), (3, 1.0)):
            store.add((atom,), weight)
        mrf = MRF.from_store(store)
        fold = functools.reduce(operator.add, [1e16, 1.0, 1.0], 0.0)
        loop = SearchState(mrf)
        monkeypatch.setattr(graph, "NUMPY_VIEW_MIN_CLAUSES", 0)
        bincount = SearchState(MRF.from_store(store))
        assert loop._counts is None and bincount._counts is not None
        assert loop.violated_count() == bincount.violated_count() == 3
        assert loop.cost == bincount.cost == fold == 1e16
        loop.reset()
        bincount.reset()
        assert loop.cost == bincount.cost == fold
        assert mrf.total_soft_weight() == fold
