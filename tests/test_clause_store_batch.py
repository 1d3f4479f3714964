"""GroundClauseStore batch ingest: semantics identical to repeated add calls.

``add_matrix`` takes a batch of rows as a 0-padded literal matrix.  Given
rows padded to one width (every column pair checked), or one first-order
clause's matrix with only its same-atom column pairs, as the batched
grounding consumer hands it, it must match ``add`` exactly: duplicate
merging, sequential weight summing, hard-clause handling, tautology/empty
accounting and clause ordering, also when row and batch adds are mixed in
one store — and it may not modify the matrix it is given.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.grounding.clause_table import GroundClauseStore


def padded(rows):
    """The rows as an ``add_matrix`` input: left-aligned, 0-padded, int64."""
    width = max((len(row) for row in rows), default=0)
    return np.array(
        [list(row) + [0] * (width - len(row)) for row in rows], dtype=np.int64
    ).reshape(len(rows), width)


def store_state(store):
    return {
        "clauses": [
            (clause.clause_id, clause.literals, clause.weight, clause.source)
            for clause in store
        ],
        "evidence_violation_cost": store.evidence_violation_cost,
        "tautologies": store.tautologies,
        "satisfied_by_evidence": store.satisfied_by_evidence,
        "atom_ids": store.atom_ids(),
        "total_literals": store.total_literals(),
        "hard_clauses": store.hard_clause_count(),
    }


def assert_batch_matches_sequential(batches, merge_duplicates=True):
    """Apply batches via add() row by row and via add_matrix; compare."""
    reference = GroundClauseStore(merge_duplicates=merge_duplicates)
    store = GroundClauseStore(merge_duplicates=merge_duplicates)
    for rows, weight, source in batches:
        stored = sum(reference.add(row, weight, source) is not None for row in rows)
        assert store.add_matrix(padded(rows), weight, source) == stored
    assert store_state(store) == store_state(reference)


class TestPaddedMatrixSemantics:
    def test_merges_duplicates_and_sums_weights(self):
        rows = [(1, -2), (3,), (1, -2), (-2, 1), (3,)]
        assert_batch_matches_sequential([(rows, 1.5, "r")])

    def test_merge_order_and_ids_match_first_occurrence(self):
        rows = [(5, 6), (7,), (5, 6), (8,), (7,), (5, 6)]
        assert_batch_matches_sequential([(rows, 0.25, None)])

    def test_hard_clauses_never_merge(self):
        rows = [(1, 2), (1, 2), (3,)]
        assert_batch_matches_sequential([(rows, math.inf, "hard")])

    def test_soft_after_hard_same_literals(self):
        store_batches = [
            ([(1, 2)], math.inf, "hard"),
            ([(1, 2), (1, 2)], 2.0, "soft"),
        ]
        assert_batch_matches_sequential(store_batches)

    def test_negative_and_infinite_weights(self):
        assert_batch_matches_sequential(
            [
                ([(1,), (1,), (-1, 2)], -0.75, "neg"),
                ([(2, 3)], -math.inf, "neg-hard"),
            ]
        )

    def test_empty_rows_charge_evidence_cost(self):
        rows = [(), (1,), (), (2,)]
        assert_batch_matches_sequential([(rows, 0.5, None)])
        assert_batch_matches_sequential([(rows, -0.5, None)])
        assert_batch_matches_sequential([(rows, math.inf, None)])

    def test_tautologies_and_duplicate_literals(self):
        rows = [(1, -1), (2, 2), (2, 2, -2), (3, 3), (4, -5)]
        assert_batch_matches_sequential([(rows, 1.0, "t")])

    def test_merge_duplicates_disabled(self):
        rows = [(1, 2), (1, 2), (2, 1), (1, -1), ()]
        assert_batch_matches_sequential([(rows, 1.0, None)], merge_duplicates=False)

    def test_cross_batch_and_cross_source_merging(self):
        assert_batch_matches_sequential(
            [
                ([(1, 2), (3,)], 1.0, "a"),
                ([(2, 1), (3,), (4,)], 2.0, "b"),
                ([(3,), (1, 2)], 0.5, "c"),
            ]
        )

    def test_weight_summing_is_sequential_addition(self):
        # 0.1 cannot be represented exactly; repeated addition and
        # count*weight differ in the last ulp, and add_matrix must take the
        # sequential route the row engine takes.
        rows = [(9,)] * 7
        weight = 0.1
        sequential = GroundClauseStore()
        for row in rows:
            sequential.add(row, weight)
        store = GroundClauseStore()
        store.add_matrix(padded(rows), weight)
        assert store[0].weight == sequential[0].weight

    def test_empty_batch(self):
        store = GroundClauseStore()
        assert store.add_matrix(padded([]), 1.0) == 0
        assert len(store) == 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_randomized_batches_match_sequential(self, seed):
        rng = random.Random(seed)
        batches = []
        for _ in range(rng.randint(1, 4)):
            rows = []
            for _ in range(rng.randint(0, 25)):
                length = rng.randint(0, 4)
                rows.append(
                    tuple(
                        rng.choice([1, -1]) * rng.randint(1, 5) for _ in range(length)
                    )
                )
            weight = rng.choice([0.5, 1.0, -1.25, math.inf, 2.0])
            batches.append((rows, weight, rng.choice([None, "s1", "s2"])))
        assert_batch_matches_sequential(
            batches, merge_duplicates=rng.random() < 0.8
        )


class TestMatrixInput:
    def test_interior_zeros_are_dropped_literals(self):
        store = GroundClauseStore()
        matrix = np.array([[1, 0, 2], [0, 0, 3], [2, 0, 1], [0, 0, 0]], dtype=np.int64)
        reference = GroundClauseStore()
        stored = sum(
            reference.add(row, 0.5) is not None for row in [(1, 2), (3,), (2, 1), ()]
        )
        assert store.add_matrix(matrix, 0.5) == stored
        assert store_state(store) == store_state(reference)

    def test_nested_lists_are_read_as_int64(self):
        from_lists = GroundClauseStore()
        from_lists.add_matrix([[1, -2], [-2, 1], [3, 0]], 0.25, "R")
        from_padded = GroundClauseStore()
        from_padded.add_matrix(padded([(1, -2), (-2, 1), (3,)]), 0.25, "R")
        assert store_state(from_lists) == store_state(from_padded)

    def test_pairs_that_cover_every_repeat_match_the_default(self):
        # Only columns 0 and 2 can hold the same atom, so only that pair is
        # checked; the rows repeat (row 0) or negate (row 1) across it.
        matrix = np.array([[1, 2, 1], [1, 3, -1], [4, 5, 6]], dtype=np.int64)
        narrowed = GroundClauseStore()
        narrowed.add_matrix(matrix, 1.0, repeat_pairs=[(0, 2)], tautology_pairs=[(0, 2)])
        default = GroundClauseStore()
        default.add_matrix(matrix, 1.0)
        assert store_state(narrowed) == store_state(default)
        assert (narrowed.tautologies, narrowed.repeated_literals) == (1, 1)
        assert [clause.literals for clause in narrowed] == [(1, 2), (4, 5, 6)]


class TestRecordSatisfied:
    def test_counted_batches(self):
        store = GroundClauseStore()
        store.record_satisfied_by_evidence()
        store.record_satisfied_by_evidence(41)
        assert store.satisfied_by_evidence == 42


# ----------------------------------------------------------------------
# Mixed ingest: add, padded rows and clause matrices into one store
# ----------------------------------------------------------------------

#: Per predicate, two disjoint atom pools: the atoms a literal over one of
#: two different constants can ground to.  Small, so rows collide often.
_POOLS = {
    (0, "A"): (1, 2),
    (0, "B"): (3, 4),
    (1, "A"): (5, 6),
    (1, "B"): (7, 8),
}

#: Inexact sums, both signs, hard weights of both signs, and 1e308, whose
#: merges overflow to a hard weight that must never be merged into.
_WEIGHTS = [0.1, 1 / 3, -0.7, 2.5, 1e308, -1e308, math.inf, -math.inf]


def clause_pairs(shape):
    """``same_atom_pairs`` of a clause shape ``[(predicate, constant, positive)]``.

    Columns over one predicate and one constant pool can hold the same
    atom; columns over different constants cannot, and are not listed.
    """
    repeat_pairs, tautology_pairs = [], []
    for j, (predicate, constant, positive) in enumerate(shape):
        for i, (other_predicate, other_constant, other_positive) in enumerate(shape[:j]):
            if (predicate, constant) == (other_predicate, other_constant):
                pairs = repeat_pairs if positive == other_positive else tautology_pairs
                pairs.append((i, j))
    return repeat_pairs, tautology_pairs


@st.composite
def clause_batches(draw):
    """One first-order clause's ground rows: ``(matrix, repeat_pairs, tautology_pairs)``."""
    shape = draw(
        st.lists(
            st.tuples(st.sampled_from([0, 1]), st.sampled_from("AB"), st.booleans()),
            min_size=1,
            max_size=4,
        )
    )
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        row = []
        for predicate, constant, positive in shape:
            if draw(st.integers(0, 4)) == 0:
                row.append(0)  # decided by the evidence
            else:
                atom = draw(st.sampled_from(_POOLS[predicate, constant]))
                row.append(atom if positive else -atom)
        rows.append(row)
    matrix = np.array(rows, dtype=np.int64).reshape(len(rows), len(shape))
    return (matrix, *clause_pairs(shape))


_ROW = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3, 5, -5]), max_size=3)

_OPERATION = st.one_of(
    st.tuples(st.just("add"), _ROW),
    st.tuples(st.just("padded"), st.lists(_ROW, max_size=10)),
    st.tuples(st.just("add_matrix"), clause_batches()),
)


def matrix_rows(matrix):
    """The clause rows a literal matrix stands for (its non-zero entries)."""
    return [[literal for literal in row if literal] for row in matrix.tolist()]


def full_state(store):
    state = store_state(store)
    state["weights"] = [clause.weight.hex() for clause in store]
    state["evidence_violation_cost"] = store.evidence_violation_cost.hex()
    state["repeated_literals"] = store.repeated_literals
    state["merge_targets"] = [store.merge_target(clause.literals) for clause in store]
    return state


def apply_mixed(operations, merge_duplicates):
    """Run the operations through one store, and row by row through another."""
    store = GroundClauseStore(merge_duplicates=merge_duplicates)
    reference = GroundClauseStore(merge_duplicates=merge_duplicates)
    for (kind, payload), weight, source in operations:
        if kind == "add":
            rows = [payload]
            clause = store.add(payload, weight, source)
            returned = int(clause is not None)
        else:
            if kind == "padded":
                payload = (padded(payload), None, None)
            matrix, repeat_pairs, tautology_pairs = payload
            rows = matrix_rows(matrix)
            given = matrix.copy()
            returned = store.add_matrix(
                matrix, weight, source, repeat_pairs, tautology_pairs
            )
            # The replay cache hands the same matrix in again.
            assert np.array_equal(matrix, given) and matrix.dtype == given.dtype
        expected = sum(reference.add(row, weight, source) is not None for row in rows)
        assert returned == expected, kind
    return store, reference


class TestMixedIngest:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                _OPERATION, st.sampled_from(_WEIGHTS), st.sampled_from([None, "R1", "R2"])
            ),
            min_size=1,
            max_size=8,
        ),
        st.booleans(),
    )
    def test_mixed_ingest_equals_row_by_row_add(self, operations, merge_duplicates):
        store, reference = apply_mixed(operations, merge_duplicates)
        assert full_state(store) == full_state(reference)
        assert store.columns == reference.columns

    @staticmethod
    def assert_matrix_matches(matrix, weight, shape, before=()):
        repeat_pairs, tautology_pairs = clause_pairs(shape)
        operations = [(("add", row), w, None) for row, w in before]
        matrix = np.array(matrix, dtype=np.int64)
        operations.append((("add_matrix", (matrix, repeat_pairs, tautology_pairs)), weight, "R"))
        store, reference = apply_mixed(operations, merge_duplicates=True)
        assert full_state(store) == full_state(reference)
        return store

    def test_three_equal_same_predicate_columns(self):
        shape = [(0, "A", True)] * 3
        store = self.assert_matrix_matches(
            [[1, 1, 1], [1, 2, 1], [2, 1, 1], [0, 1, 1]], 0.1, shape
        )
        # (2, 1) is the literal set of (1, 2): it merges into that row.
        assert [clause.literals for clause in store] == [(1,), (1, 2)]
        assert store.repeated_literals == 5

    def test_same_predicate_columns_over_different_constants(self):
        # Columns 0 and 1 (constants A, B) share no atom, so only the pair
        # (0, 2) is checked; rows still merge across column orders.
        shape = [(0, "A", True), (0, "B", True), (0, "A", False)]
        store = self.assert_matrix_matches(
            [[1, 3, -2], [2, 3, -1], [1, 4, -1], [2, 3, -1]], 1.0, shape
        )
        assert store.tautologies == 1

    def test_tautologies_and_in_batch_duplicates(self):
        shape = [(1, "A", True), (1, "A", False)]
        store = self.assert_matrix_matches(
            [[5, -5], [5, -6], [6, -5], [5, -6], [0, -6], [5, -6]], 1 / 3, shape
        )
        assert store.tautologies == 1
        assert [clause.literals for clause in store] == [(5, -6), (6, -5), (-6,)]

    def test_merges_into_earlier_rows_and_never_into_hard_rows(self):
        shape = [(0, "A", True), (0, "B", False)]
        before = [((1, -3), 0.5), ((-4, 2), math.inf), ((2, -3), -0.7)]
        store = self.assert_matrix_matches(
            [[1, -3], [2, -4], [2, -3], [1, -3]], 0.1, shape, before
        )
        # (1, -3) merged twice, (2, -4) started a new row beside the hard one.
        assert len(store) == 4 and store[3].literals == (2, -4)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_overflow_to_infinity(self, sign):
        shape = [(0, "A", True)]
        self.assert_matrix_matches(
            [[1], [1], [2], [1], [1]], sign * 1e308, shape, [((1,), sign * 1e308)]
        )

    def test_row_indexed_by_a_batch_that_overflows_later_is_not_merged_into(self):
        # Row (1, 2) enters the array index finite, overflows to a hard
        # weight in a later batch, and the batch after that must start a
        # new row instead of merging into it.
        shape = [(0, "A", True), (0, "B", True)]
        repeat_pairs, tautology_pairs = clause_pairs(shape)
        operations = [
            (("add_matrix", (np.array([[1, 3]]), repeat_pairs, tautology_pairs)), 1e308, "R"),
            (("add_matrix", (np.array([[1, 3]]), repeat_pairs, tautology_pairs)), 1e308, "R"),
            (("add_matrix", (np.array([[3, 1]]), repeat_pairs, tautology_pairs)), 0.5, "R"),
        ]
        store, reference = apply_mixed(operations, merge_duplicates=True)
        assert full_state(store) == full_state(reference)
        assert [clause.weight for clause in store] == [math.inf, 0.5]

    @pytest.mark.parametrize("weight", [0.1, -0.5, math.inf, -math.inf])
    def test_empty_rows(self, weight):
        shape = [(0, "A", True), (1, "B", False)]
        store = self.assert_matrix_matches([[0, 0], [1, 0], [0, 0], [0, -7]], weight, shape)
        expected = 0.1 + 0.1 if weight == 0.1 else 0.0
        assert store.evidence_violation_cost == expected
