"""GroundClauseStore.add_batch: semantics identical to repeated add calls.

``add_batch`` has two implementations under one contract — the plain
Python loop (list inputs), and the vectorized numpy path (array inputs) —
and the batched grounding consumer depends on all of them matching ``add``
exactly: duplicate merging, sequential weight summing, hard-clause
handling, tautology/empty accounting and clause ordering.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.grounding.clause_table import GroundClauseStore


def flatten(rows):
    flat = [literal for row in rows for literal in row]
    lengths = [len(row) for row in rows]
    return flat, lengths


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


def input_variants(rows):
    """The same batch as list input and as numpy input."""
    flat, lengths = flatten(rows)
    return [
        ("list", flat, lengths),
        ("array", np.asarray(flat, dtype=np.int64), np.asarray(lengths, dtype=np.int64)),
    ]


def assert_batch_matches_sequential(batches, merge_duplicates=True):
    """Apply batches via add() and via each add_batch input form; compare."""
    reference = GroundClauseStore(merge_duplicates=merge_duplicates)
    expected_stored = []
    for rows, weight, source in batches:
        stored = 0
        for row in rows:
            if reference.add(row, weight, source) is not None:
                stored += 1
        expected_stored.append(stored)
    expected = store_state(reference)

    variant_names = {name for rows, _, _ in batches for name, _, _ in input_variants(rows)}
    for variant in sorted(variant_names):
        store = GroundClauseStore(merge_duplicates=merge_duplicates)
        returned = []
        for rows, weight, source in batches:
            for name, flat, lengths in input_variants(rows):
                if name != variant:
                    continue
                returned.append(store.add_batch(flat, lengths, weight, source))
        assert store_state(store) == expected, f"variant {variant}"
        assert returned == expected_stored, f"variant {variant}"


class TestAddBatchSemantics:
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
        # count*weight differ in the last ulp, and add_batch must take the
        # sequential route the row engine takes.
        rows = [(9,)] * 7
        weight = 0.1
        sequential = GroundClauseStore()
        for row in rows:
            sequential.add(row, weight)
        for name, flat, lengths in input_variants(rows):
            store = GroundClauseStore()
            store.add_batch(flat, lengths, weight)
            assert store[0].weight == sequential[0].weight, name

    def test_length_mismatch_raises_before_mutation(self):
        store = GroundClauseStore()
        with pytest.raises(ValueError):
            store.add_batch([1, 2, 3], [2, 2], 1.0)
        assert len(store) == 0 and store.evidence_violation_cost == 0.0
        with pytest.raises(ValueError):
            store.add_batch(
                np.asarray([1, 2, 3], dtype=np.int64),
                np.asarray([2, 2], dtype=np.int64),
                1.0,
            )
        assert len(store) == 0 and store.evidence_violation_cost == 0.0

    def test_empty_batch(self):
        store = GroundClauseStore()
        assert store.add_batch([], [], 1.0) == 0
        assert (
            store.add_batch(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 1.0)
            == 0
        )
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


class TestRecordSatisfied:
    def test_counted_batches(self):
        store = GroundClauseStore()
        store.record_satisfied_by_evidence()
        store.record_satisfied_by_evidence(41)
        assert store.satisfied_by_evidence == 42
