"""Tests for the atom registry and the ground-clause store."""

import math

import pytest

from repro.grounding.atoms import AtomRegistry
from repro.grounding.clause_table import GroundClause, GroundClauseStore
from repro.logic.predicates import Predicate, make_atom
from repro.rdbms.database import Database

CAT = Predicate("cat", ("paper", "category"))
REFERS = Predicate("refers", ("paper", "paper"), closed_world=True)


class TestAtomRegistry:
    def test_ids_start_at_one_and_are_stable(self):
        registry = AtomRegistry()
        first = registry.register(make_atom(CAT, ["P1", "DB"]))
        second = registry.register(make_atom(CAT, ["P1", "AI"]))
        again = registry.register(make_atom(CAT, ["P1", "DB"]))
        assert (first, second, again) == (1, 2, 1)
        assert len(registry) == 2

    def test_truth_update_and_conflict(self):
        registry = AtomRegistry()
        atom = make_atom(CAT, ["P1", "DB"])
        registry.register(atom)
        registry.register(atom, True)
        assert registry.truth(1) is True
        with pytest.raises(ValueError):
            registry.register(atom, False)

    def test_lookup(self):
        registry = AtomRegistry()
        registry.register(make_atom(CAT, ["P1", "DB"]), True)
        assert registry.lookup("cat", ("P1", "DB")) == 1
        assert registry.lookup("cat", ("P1", "AI")) is None

    def test_query_vs_evidence_views(self):
        registry = AtomRegistry()
        registry.register(make_atom(CAT, ["P1", "DB"]), True)
        registry.register(make_atom(CAT, ["P2", "DB"]))
        registry.register(make_atom(REFERS, ["P1", "P2"]), True)
        assert registry.query_atom_ids() == [2]
        assert registry.evidence_atom_ids() == [1, 3]
        assert registry.count_by_predicate() == {"cat": 2, "refers": 1}
        assert len(registry.records_for_predicate(CAT)) == 2

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            AtomRegistry().record(1)


class TestGroundClause:
    def test_zero_literal_id_rejected(self):
        with pytest.raises(ValueError):
            GroundClause(1, (0,), 1.0)

    def test_satisfaction_and_violation(self):
        clause = GroundClause(1, (1, -2), 2.0)
        assignment = [None, False, True]  # 1-indexed
        assert clause.is_satisfied(assignment) is False
        assert clause.is_violated(assignment) is True
        assert clause.violation_cost(assignment) == 2.0
        assignment[1] = True
        assert clause.is_satisfied(assignment) is True
        assert clause.is_violated(assignment) is False

    def test_negative_weight_violated_when_satisfied(self):
        clause = GroundClause(1, (1,), -1.5)
        assert clause.is_violated([None, True]) is True
        assert clause.is_violated([None, False]) is False
        assert clause.violation_cost([None, True]) == 1.5

    def test_hard_flag_and_atom_ids(self):
        clause = GroundClause(1, (3, -5), math.inf)
        assert clause.is_hard
        assert clause.atom_ids == (3, 5)


class TestGroundClauseStore:
    def test_duplicate_merging_sums_weights(self):
        store = GroundClauseStore()
        store.add((1, -2), 1.0, "F1")
        store.add((-2, 1), 2.5, "F1")
        assert len(store) == 1
        assert store[0].weight == pytest.approx(3.5)

    def test_merging_disabled(self):
        store = GroundClauseStore(merge_duplicates=False)
        store.add((1, -2), 1.0)
        store.add((1, -2), 1.0)
        assert len(store) == 2

    def test_hard_clauses_not_merged(self):
        store = GroundClauseStore()
        store.add((1,), math.inf)
        store.add((1,), math.inf)
        assert len(store) == 2

    def test_empty_clause_contributes_constant_cost(self):
        store = GroundClauseStore()
        assert store.add((), 2.0) is None
        assert store.add((), -3.0) is None
        assert store.evidence_violation_cost == pytest.approx(2.0)
        assert len(store) == 0

    def test_tautologies_skipped(self):
        store = GroundClauseStore()
        assert store.add((1, -1), 5.0) is None
        assert store.tautologies == 1
        assert len(store) == 0

    def test_atom_ids_and_totals(self):
        store = GroundClauseStore()
        store.add((1, -3), 1.0)
        store.add((2,), math.inf)
        assert store.atom_ids() == [1, 2, 3]
        assert store.total_literals() == 3
        assert store.hard_clause_count() == 1

    def test_database_round_trip(self):
        database = Database()
        store = GroundClauseStore()
        store.add((1, -2, 3), 1.5, "F2")
        store.add((4,), math.inf, "F4")
        store.store_in_database(database)
        loaded = GroundClauseStore.load_from_database(database)
        assert len(loaded) == 2
        assert loaded[0].literals == (1, -2, 3)
        assert loaded[0].weight == pytest.approx(1.5)
        assert loaded[0].source == "F2"
        assert loaded[1].is_hard

    def test_database_round_trip_keeps_weight_signs_and_sources(self):
        # A negative hard clause ("must stay false") used to come back as a
        # positive one: the table spelled every infinite weight +1e300.
        database = Database()
        store = GroundClauseStore(merge_duplicates=False)
        for literals, weight, source in (
            ((1, -2), math.inf, "hard"),
            ((3,), -math.inf, "never"),
            ((-4, 5), -0.75, "negative"),
            ((6,), 2.5, None),
            ((7, 8, -9), 0.1, "positive"),
        ):
            store.add(literals, weight, source)
        store.store_in_database(database)
        loaded = GroundClauseStore.load_from_database(database)
        assert [(c.clause_id, c.literals, c.weight, c.source) for c in loaded] == [
            (1, (1, -2), math.inf, "hard"),
            (2, (3,), -math.inf, "never"),
            (3, (-4, 5), -0.75, "negative"),
            (4, (6,), 2.5, None),
            (5, (7, 8, -9), 0.1, "positive"),
        ]

    def test_store_overwrites_previous_contents(self):
        database = Database()
        first = GroundClauseStore()
        first.add((1,), 1.0)
        first.store_in_database(database)
        second = GroundClauseStore()
        second.add((2,), 2.0)
        second.add((3,), 3.0)
        second.store_in_database(database)
        assert len(GroundClauseStore.load_from_database(database)) == 2
