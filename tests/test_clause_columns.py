"""The columnar clause store, and the views built from its columns.

* Ingest: the numpy ``add_batch`` path leaves the store exactly as repeated
  scalar ``add`` calls leave it (``add`` is the spec) — clause ids, literal
  order, weights bit for bit across batches and rules, hard rows, the
  constant cost of empty rows, tautologies, satisfied-by-evidence counts.
* Views: the flat and vector views of store-backed component MRFs (built
  from CSR columns by numpy) equal the views of list-built MRFs of the same
  clauses built by the per-literal reference loop below.
* Design guard: ground → build → detect → one search state per component
  constructs no ``GroundClause`` at all.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.inference.vector_kernel as vector_kernel
import repro.mrf.graph as graph
from repro.datasets import DatasetScale, load_dataset
from repro.datasets.example1 import example1_store
from repro.grounding.bottom_up import BottomUpGrounder
from repro.grounding.clause_table import GroundClause, GroundClauseStore
from repro.inference.state import make_search_state
from repro.inference.vector_kernel import VectorMRFView
from repro.mrf.components import connected_components
from repro.mrf.graph import MRF


def fingerprint(store):
    """Everything a store holds, floats by their bits."""
    return {
        "rows": [
            (clause.clause_id, clause.literals, clause.weight.hex(), clause.source)
            for clause in store
        ],
        "merge_targets": [store.merge_target(clause.literals) for clause in store],
        "evidence_violation_cost": store.evidence_violation_cost.hex(),
        "tautologies": store.tautologies,
        "satisfied_by_evidence": store.satisfied_by_evidence,
    }


#: Small atom ids, and two ids so large that rows of two or more of them
#: cannot be grouped as one int64 number (the store falls back to bytes).
_atom = st.sampled_from([1, 2, 3, 4, 5, 6, 2**40, 2**40 + 1])
_literal = _atom.flatmap(lambda atom: st.sampled_from((atom, -atom)))
#: Inexact sums (0.1, 1/3), signs, hard weights of both signs, and 1e308,
#: whose merges overflow to a hard weight that must never be merged into.
_weight = st.sampled_from([0.1, 1 / 3, -0.7, 2.5, -1e-3, 1e308, math.inf, -math.inf])
_batch = st.tuples(
    st.lists(st.lists(_literal, max_size=4), max_size=30),
    _weight,
    st.sampled_from([None, "R1", "R2"]),
    st.integers(min_value=0, max_value=3),
)


class TestColumnarIngest:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_batch, min_size=1, max_size=5), st.booleans())
    def test_batches_equal_repeated_scalar_adds(self, batches, merge_duplicates):
        reference = GroundClauseStore(merge_duplicates=merge_duplicates)
        columnar = GroundClauseStore(merge_duplicates=merge_duplicates)
        for rows, weight, source, satisfied in batches:
            stored = sum(reference.add(row, weight, source) is not None for row in rows)
            reference.record_satisfied_by_evidence(satisfied)
            flat = np.asarray([literal for row in rows for literal in row], dtype=np.int64)
            lengths = np.asarray([len(row) for row in rows], dtype=np.int64)
            assert columnar.add_batch(flat, lengths, weight, source) == stored
            columnar.record_satisfied_by_evidence(satisfied)
        assert fingerprint(columnar) == fingerprint(reference)
        assert columnar.columns == reference.columns

    def test_repeated_literals_keep_first_occurrence_order(self):
        store = GroundClauseStore()
        rows = [(3, -1, 3, 2), (2, 3, -1), (5, 5)]
        flat = np.asarray([literal for row in rows for literal in row], dtype=np.int64)
        store.add_batch(flat, np.asarray([4, 3, 2]), 0.1)
        assert [(c.literals, c.weight) for c in store] == [((3, -1, 2), 0.1 + 0.1), ((5,), 0.1)]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_row_that_overflowed_to_hard_is_not_merged_into(self, sign):
        columnar = GroundClauseStore()
        columnar.add_batch(np.asarray([1, 2, 2, 1]), np.asarray([2, 2]), sign * 1e308)
        columnar.add_batch(np.asarray([1, 2]), np.asarray([2]), 0.5)
        reference = GroundClauseStore()
        for literals, weight in (((1, 2), sign * 1e308), ((2, 1), sign * 1e308), ((1, 2), 0.5)):
            reference.add(literals, weight)
        assert [c.weight for c in columnar] == [sign * math.inf, 0.5]
        assert fingerprint(columnar) == fingerprint(reference)

    def test_overflow_inside_a_batch_starts_a_new_row_as_add_does(self):
        # add: (1,) at 1e308, (2,), (1,) merges to inf, the next (1,) finds
        # a hard row and starts a new one.
        store = GroundClauseStore()
        store.add_batch(np.asarray([1, 2, 1, 1]), np.asarray([1, 1, 1, 1]), 1e308)
        assert [(c.clause_id, c.literals, c.weight) for c in store] == [
            (1, (1,), math.inf),
            (2, (2,), 1e308),
            (3, (1,), 1e308),
        ]

    def test_an_mrf_reads_the_sealed_store_columns_in_place(self):
        store = GroundClauseStore()
        store.add((1, -2), 0.5)
        mrf = MRF.from_store(store)
        assert mrf.columns() is store.columns
        with pytest.raises(RuntimeError):
            store.add((3,), 1.0)
        with pytest.raises(RuntimeError):
            store.add_batch(np.asarray([3]), np.asarray([1]), 1.0)
        assert len(store) == 1 and mrf.clause_count == 1

    def test_cross_rule_merge_adds_in_batch_order(self):
        store = GroundClauseStore()
        store.add_batch(np.asarray([1, 2, 1, 2]), np.asarray([2, 2]), 0.1, "R1")
        store.add_batch(np.asarray([2, 1, 3]), np.asarray([2, 1]), 1 / 3, "R2")
        assert store[0].weight == (0.1 + 0.1) + 1 / 3
        assert (store[0].source, store[1].source) == ("R1", "R2")


def reference_flat_relations(mrf):
    """The per-literal loop the flat view was built by before the columns."""
    position = {atom_id: index for index, atom_id in enumerate(mrf.atom_ids)}
    clause_codes, clause_positions = [], []
    adjacency = [[] for _ in mrf.atom_ids]
    for clause_index, clause in enumerate(mrf.clauses):
        codes, distinct = [], []
        for literal in clause.literals:
            atom_position = position[abs(literal)]
            codes.append(atom_position + 1 if literal > 0 else -(atom_position + 1))
            if atom_position not in distinct:
                distinct.append(atom_position)
            adjacency[atom_position].append((clause_index, literal > 0))
        clause_codes.append(tuple(codes))
        clause_positions.append(tuple(distinct))
    return tuple(clause_codes), tuple(clause_positions), tuple(map(tuple, adjacency))


def flat_relations(view):
    """A flat view's codes, every clause's candidates and adjacency."""
    candidates = tuple(map(view.clause_atom_positions, range(len(view.candidates))))
    return tuple(view.clause_codes), candidates, tuple(view.adjacency)


def reference_vector_arrays(mrf, thresholds):
    """``VectorMRFView``'s arrays as the per-clause loops built them."""
    clause_codes, clause_positions, adjacency = reference_flat_relations(mrf)
    pos, expect, owner = [], [], []
    for clause_index, codes in enumerate(clause_codes):
        for code in codes:
            pos.append(abs(code) - 1)
            expect.append(1 if code > 0 else 0)
            owner.append(clause_index)
    tables = {}
    for threshold in thresholds:
        tables[threshold] = {}
        for clause_index, candidates in enumerate(clause_positions):
            if len(candidates) < 2:
                continue
            if sum(len(adjacency[position]) for position in candidates) < threshold:
                continue
            entries = [
                (position, 1 if positive else 0, other, slot)
                for slot, position in enumerate(candidates)
                for other, positive in adjacency[position]
            ]
            tables[threshold][clause_index] = (
                [entry[0] for entry in entries],
                [entry[1] for entry in entries],
                [entry[2] for entry in entries],
                [entry[3] for entry in entries],
                len(candidates),
            )
    updates = [
        ([clause for clause, _ in entries], [1 if positive else -1 for _, positive in entries])
        for entries in adjacency
    ]
    negated = [clause.weight < 0 for clause in mrf.clauses]
    return (pos, expect, owner, negated), tables, updates


@functools.lru_cache(maxsize=None)
def grounded_columns(dataset):
    """``(columns, atom_ids)`` of every component of a small grounding."""
    if dataset == "example1":
        store = example1_store(20)
    else:
        factor = {"RC": 1, "IE": 1, "LP": 0.5, "ER": 0.5}[dataset]
        program = load_dataset(dataset, DatasetScale(factor=factor, seed=2)).program
        store = BottomUpGrounder(execution_backend="columnar").ground(
            program.clauses(), program.build_atom_registry()
        ).clauses
    return [
        (component.columns(), component.atom_ids)
        for component in connected_components(store).components
    ]


def assert_arrays(array, expected, dtype):
    assert array.dtype == dtype
    assert array.tolist() == list(expected)


class TestViewsFromColumns:
    @pytest.mark.parametrize("all_numpy", [False, True])
    @pytest.mark.parametrize("dataset", ["example1", "RC", "IE", "LP", "ER"])
    def test_store_backed_views_equal_list_built_views(self, dataset, all_numpy, monkeypatch):
        if all_numpy:
            monkeypatch.setattr(graph, "NUMPY_VIEW_MIN_CLAUSES", 0)
        thresholds = (0, 128)
        for columns, atom_ids in grounded_columns(dataset):
            component = MRF(columns=columns, atom_ids=list(atom_ids))
            listed = MRF.from_clauses(component.clauses, extra_atoms=atom_ids)
            assert listed.atom_ids == component.atom_ids
            expected_flat = reference_flat_relations(listed)
            literals, tables, updates = reference_vector_arrays(listed, thresholds)
            for mrf in (component, MRF.from_clauses(component.clauses, extra_atoms=atom_ids)):
                view = mrf.flat_view()
                assert flat_relations(view) == expected_flat
                vector = VectorMRFView(mrf)
                for array, values, dtype in zip(
                    (vector.lit_pos, vector.lit_expect, vector.lit_clause, vector.negated),
                    literals,
                    (np.intp, np.int8, np.intp, bool),
                ):
                    assert_arrays(array, values, dtype)
                for threshold in thresholds:
                    monkeypatch.setattr(vector_kernel, "GREEDY_MIN_ENTRIES", threshold)
                    built = VectorMRFView(mrf).greedy_tables()
                    assert list(built) == list(tables[threshold])
                    for clause_index, table in built.items():
                        *arrays, count = table
                        *reference, reference_count = tables[threshold][clause_index]
                        assert count == reference_count
                        for array, values, dtype in zip(
                            arrays, reference, (np.intp, np.int8, np.intp, np.intp)
                        ):
                            assert_arrays(array, values, dtype)
                assert len(vector.atom_updates()) == len(updates)
                for (indices, signs), (reference_indices, reference_signs) in zip(
                    vector.atom_updates(), updates
                ):
                    assert_arrays(indices, reference_indices, np.intp)
                    assert_arrays(signs, reference_signs, np.int32)

    def test_repeated_atoms_in_list_built_clauses(self, monkeypatch):
        monkeypatch.setattr(graph, "NUMPY_VIEW_MIN_CLAUSES", 0)
        clauses = [
            GroundClause(1, (3, -3, 5), 1.0),
            GroundClause(2, (2, 2), -0.5),
            GroundClause(3, (5, 2, 5, -3), math.inf),
        ]
        mrf = MRF.from_clauses(clauses, extra_atoms=[9])
        view = mrf.flat_view()
        assert flat_relations(view) == reference_flat_relations(mrf)
        # Candidate adjacency totals: 6 and 9 entries for clauses 1 and 3.
        thresholds = range(11)
        _, tables, _ = reference_vector_arrays(mrf, thresholds)
        for threshold in thresholds:
            monkeypatch.setattr(vector_kernel, "GREEDY_MIN_ENTRIES", threshold)
            assert list(VectorMRFView(mrf).greedy_tables()) == list(tables[threshold])

    def test_one_position_pass_per_component(self, monkeypatch):
        """The decomposition's positions feed the flat view, whose arrays
        feed the vector view: nothing searches for a literal's atom again."""
        monkeypatch.setattr(graph, "NUMPY_VIEW_MIN_CLAUSES", 0)
        columns, atom_ids = max(grounded_columns("RC"), key=lambda part: len(part[0]))
        component = connected_components(
            MRF(columns=columns, atom_ids=list(atom_ids))
        ).components[0]
        handed_over = component.literal_atom_positions()
        view = component.flat_view()
        vector = VectorMRFView(component)
        assert view.arrays.positions is handed_over
        assert vector.lit_pos is handed_over
        assert vector.lit_clause is view.arrays.owners
        assert vector.degrees is view.arrays.degrees

    def test_candidates_are_built_on_first_read(self, monkeypatch):
        monkeypatch.setattr(graph, "NUMPY_VIEW_MIN_CLAUSES", 0)
        mrf = MRF.from_clauses(
            [
                GroundClause(1, (3, -3, 5), 1.0),
                GroundClause(2, (2, 5), -0.5),
                GroundClause(3, (5, 2, 5, -3), 2.0),
            ]
        )
        view = mrf.flat_view()
        assert view.candidates == [None, None, None]
        assert view.clause_atom_positions(2) == (2, 0, 1)
        assert view.candidates == [None, None, (2, 0, 1)]
        state = make_search_state(mrf, backend="flat")
        assert state.clause_atom_positions(0) == (1, 2)
        assert view.candidates == [(1, 2), None, (2, 0, 1)]

    def test_literal_over_an_unknown_atom_raises(self, monkeypatch):
        monkeypatch.setattr(graph, "NUMPY_VIEW_MIN_CLAUSES", 0)
        mrf = MRF(clauses=[GroundClause(1, (1, -4), 1.0)], atom_ids=[1, 2])
        with pytest.raises(KeyError):
            mrf.flat_view()


def test_component_labels_do_not_depend_on_clause_order():
    """Labelling hooks roots edge by edge; which atoms end up together
    must not depend on the order the clauses (and so the edges) come in."""
    for dataset in ("RC", "IE"):
        rows = [row for columns, _ in grounded_columns(dataset) for row in columns.rows()]
        forward = connected_components(MRF.from_clauses(rows))
        backward = connected_components(MRF.from_clauses(rows[::-1]))
        assert [c.atom_ids for c in backward.components] == [
            c.atom_ids for c in forward.components
        ]
        assert list(backward.atom_to_component.items()) == list(
            forward.atom_to_component.items()
        )
        for reordered, component in zip(backward.components, forward.components):
            assert reordered.clauses == component.clauses[::-1]


class TestDesignGuard:
    def test_cold_path_constructs_no_ground_clause(self, monkeypatch):
        """The columns go from the grounder's arrays to the search states
        without one Python object per clause: a change that re-materialises
        clause objects on the cold path fails here, not only in the
        benchmark."""
        constructed = []
        original = GroundClause.__post_init__

        def counting(clause):
            constructed.append(clause.clause_id)
            original(clause)

        monkeypatch.setattr(GroundClause, "__post_init__", counting)
        program = load_dataset("RC", DatasetScale(factor=1, seed=0)).program
        grounding = BottomUpGrounder(execution_backend="columnar").ground(
            program.clauses(), program.build_atom_registry()
        )
        mrf = MRF.from_store(grounding.clauses)
        # Flat views by the per-literal loop, then by numpy.
        for numpy_view_min_clauses in (graph.NUMPY_VIEW_MIN_CLAUSES, 0):
            monkeypatch.setattr(graph, "NUMPY_VIEW_MIN_CLAUSES", numpy_view_min_clauses)
            decomposition = connected_components(mrf)
            for backend in ("flat", "vectorized"):
                states = [
                    make_search_state(component, backend=backend)
                    for component in decomposition.components
                ]
                assert len(states) == decomposition.component_count > 1
        assert constructed == []
        # The counter sees row views: reading one constructs one.
        assert grounding.clauses[0].clause_id == 1
        assert constructed == [1]
