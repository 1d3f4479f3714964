"""Tests for the MRF graph, cost function, union-find and components."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.example1 import example1_mrf, example1_optimal_cost, example1_store
from repro.grounding.clause_table import GroundClause, GroundClauseStore
from repro.mrf.components import ComponentDecomposition, connected_components
from repro.mrf.cost import (
    all_false_assignment,
    assignment_cost,
    clause_satisfied,
    clause_violated,
    cost_decomposes_over_components,
    violated_clauses,
)
from repro.mrf.graph import MRF
from repro.mrf.union_find import UnionFind


class _ReferenceUnionFind:
    """The union-find as it was before ``union_sequence`` (the oracle's)."""

    def __init__(self, elements=()):
        self._parent = {}
        self._size = {}
        for element in elements:
            self.add(element)

    def add(self, element):
        if element not in self._parent:
            self._parent[element] = element
            self._size[element] = 1

    def find(self, element):
        root = element
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[element] != root:
            self._parent[element], element = root, self._parent[element]
        return root

    def union(self, left, right):
        self.add(left)
        self.add(right)
        left_root = self.find(left)
        right_root = self.find(right)
        if left_root == right_root:
            return left_root
        if self._size[left_root] < self._size[right_root]:
            left_root, right_root = right_root, left_root
        self._parent[right_root] = left_root
        self._size[left_root] += self._size[right_root]
        return left_root

    def groups(self):
        result = {}
        for element in self._parent:
            result.setdefault(self.find(element), []).append(element)
        return result


def reference_connected_components(source):
    """``connected_components`` as it was before the single-scan rewrite.

    Pairwise unions over a deduplicated ``clause.atom_ids``, a second scan
    to bucket clauses, component MRFs re-derived by ``from_clauses`` —
    kept verbatim as the oracle for component order, per-component clause
    order, ``atom_ids`` and ``atom_to_component``.
    """
    mrf = source if isinstance(source, MRF) else MRF.from_store(source)
    union_find = _ReferenceUnionFind(mrf.atom_ids)
    for clause in mrf.clauses:
        atom_ids = list(dict.fromkeys(clause.atom_ids))
        for left, right in zip(atom_ids, atom_ids[1:]):
            union_find.union(left, right)

    groups = union_find.groups()
    clause_groups = {root: [] for root in groups}
    for clause in mrf.clauses:
        root = union_find.find(clause.atom_ids[0])
        clause_groups[root].append(clause)

    decomposition = ComponentDecomposition()
    ordered_roots = sorted(groups, key=lambda root: min(groups[root]))
    for index, root in enumerate(ordered_roots):
        component = MRF.from_clauses(clause_groups[root], extra_atoms=groups[root])
        decomposition.components.append(component)
        for atom_id in groups[root]:
            decomposition.atom_to_component[atom_id] = index
    return decomposition


#: Clauses over a small atom universe so that merges, repeated atoms inside
#: a clause (``(3, -3, 5)``, ``(2, 2)``) and unit clauses are all common.
_literals = st.integers(min_value=1, max_value=14).flatmap(
    lambda atom: st.sampled_from((atom, -atom))
)
_clause_literals = st.lists(st.lists(_literals, min_size=1, max_size=4), max_size=25)


def small_store():
    store = GroundClauseStore()
    store.add((1, -2), 1.0, "a")
    store.add((2, 3), 2.0, "b")
    store.add((4,), math.inf, "hard")
    store.add((5, -6), -0.5, "neg")
    return store


class TestUnionFind:
    def test_union_and_find(self):
        dsu = UnionFind(range(5))
        dsu.union(0, 1)
        dsu.union(3, 4)
        assert dsu.connected(0, 1)
        assert not dsu.connected(1, 3)
        assert dsu.component_size(0) == 2
        assert dsu.component_count() == 3

    def test_groups(self):
        dsu = UnionFind()
        dsu.union("a", "b")
        dsu.add("c")
        groups = dsu.groups()
        assert sorted(len(members) for members in groups.values()) == [1, 2]

    def test_find_unknown_raises(self):
        with pytest.raises(KeyError):
            UnionFind().find("nope")

    def test_union_sequence_requires_registered_elements(self):
        dsu = UnionFind(range(3))
        assert dsu.union_sequence(()) is None
        assert dsu.union_sequence((2,)) == 2
        with pytest.raises(KeyError):
            dsu.union_sequence((0, 7))

    @given(
        st.lists(
            st.lists(st.integers(0, 15), min_size=1, max_size=5), max_size=30
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_union_sequence_picks_the_roots_pairwise_union_picks(self, sequences):
        """Same by-size root choice as ``union(e0, e1); union(e1, e2); ...``."""
        ours = UnionFind(range(16))
        reference = _ReferenceUnionFind(range(16))
        for sequence in sequences:
            root = ours.union_sequence(sequence)
            for left, right in zip(sequence, sequence[1:]):
                reference.union(left, right)
            assert root == reference.find(sequence[0])
        assert ours.groups() == reference.groups()
        assert list(ours.groups()) == list(reference.groups())

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_connectivity_matches_reference(self, edges):
        """Union-find must agree with a straightforward graph traversal."""
        import networkx as nx

        dsu = UnionFind(range(21))
        graph = nx.Graph()
        graph.add_nodes_from(range(21))
        for left, right in edges:
            dsu.union(left, right)
            graph.add_edge(left, right)
        reference = {frozenset(c) for c in nx.connected_components(graph)}
        ours = {frozenset(members) for members in dsu.groups().values()}
        assert ours == reference


class TestMRFGraph:
    def test_from_store_answers_adjacency_queries(self):
        mrf = MRF.from_store(small_store())
        assert mrf.atom_count == 6
        assert mrf.clause_count == 4
        assert mrf.total_literals() == 7
        assert mrf.size() == 13
        assert mrf.degree(2) == 2
        assert set(mrf.clauses_of_atom(2)) == {0, 1}
        assert mrf.neighbors(2) == frozenset({1, 3})

    def test_adjacency_is_built_on_first_use_and_once(self):
        clauses = small_store().clauses()
        for mrf in (MRF.from_store(small_store()), MRF.from_clauses(clauses)):
            assert mrf._adjacency is None  # construction builds none
            assert mrf.degree(2) == 2
            built = mrf._adjacency
            assert built is not None
            mrf.clauses_of_atom(3)
            mrf.neighbors(5)
            assert mrf._adjacency is built

    def test_equality_ignores_which_accessor_ran(self):
        left = MRF.from_store(small_store())
        right = MRF.from_store(small_store())
        assert left == right
        assert left.degree(2) == 2
        assert left == right and right._adjacency is None

    @given(_clause_literals, st.lists(st.integers(15, 18), max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_lazy_adjacency_matches_a_direct_scan(self, literal_lists, extra_atoms):
        clauses = [
            GroundClause(index + 1, tuple(literals), 1.0)
            for index, literals in enumerate(literal_lists)
        ]
        mrf = MRF.from_clauses(clauses, extra_atoms=extra_atoms)
        for atom_id in mrf.atom_ids:
            mentioning = [
                index
                for index, clause in enumerate(clauses)
                if atom_id in clause.atom_ids
            ]
            assert mrf.clauses_of_atom(atom_id) == mentioning
            assert mrf.degree(atom_id) == len(mentioning)
            together = {a for index in mentioning for a in clauses[index].atom_ids}
            assert mrf.neighbors(atom_id) == frozenset(together - {atom_id})
        assert mrf.degree(99) == 0 and mrf.clauses_of_atom(99) == []

    def test_subgraph_and_cut(self):
        mrf = MRF.from_store(small_store())
        sub = mrf.subgraph({1, 2})
        assert sub.clause_count == 1
        assert sub.atom_count == 2
        cut = mrf.cut_clauses({2})
        assert {clause.literals for clause in cut} == {(1, -2), (2, 3)}

    def test_total_soft_weight_excludes_hard(self):
        mrf = MRF.from_store(small_store())
        assert mrf.total_soft_weight() == pytest.approx(3.5)

    def test_extra_atoms_become_isolated_nodes(self):
        mrf = MRF.from_clauses([GroundClause(1, (1,), 1.0)], extra_atoms=[7])
        assert 7 in mrf.atom_ids
        assert mrf.degree(7) == 0


class TestCostFunction:
    def test_clause_satisfaction(self):
        clause = GroundClause(1, (1, -2), 1.0)
        assert clause_satisfied(clause, {1: True, 2: True})
        assert not clause_satisfied(clause, {1: False, 2: True})
        assert clause_violated(clause, {1: False, 2: True})

    def test_negative_weight_violation(self):
        clause = GroundClause(1, (1,), -2.0)
        assert clause_violated(clause, {1: True})
        assert not clause_violated(clause, {1: False})

    def test_missing_atoms_default_false(self):
        clause = GroundClause(1, (-3,), 1.0)
        assert clause_satisfied(clause, {})

    def test_assignment_cost_with_hard_clauses(self):
        mrf = MRF.from_store(small_store())
        assignment = all_false_assignment(mrf)
        assert assignment_cost(mrf, assignment) == math.inf
        finite = assignment_cost(mrf, assignment, hard_as_infinite=False, hard_penalty=100.0)
        # Violations when all false: clause b (2,3), hard clause (4,); the
        # negative clause (5,-6) is satisfied via -6, hence also violated.
        assert finite == pytest.approx(2.0 + 100.0 + 0.5)
        assert len(violated_clauses(mrf, assignment)) == 3

    def test_cost_decomposes_over_components(self):
        mrf = example1_mrf(6)
        decomposition = connected_components(mrf)
        assert decomposition.component_count == 6
        assignment = {atom: bool(atom % 2) for atom in mrf.atom_ids}
        total = assignment_cost(mrf, assignment, hard_as_infinite=False)
        split = cost_decomposes_over_components(decomposition.components, assignment)
        assert split == pytest.approx(total)

    @given(st.integers(min_value=0, max_value=2 ** 12 - 1))
    @settings(max_examples=64, deadline=None)
    def test_cost_decomposition_property(self, bits):
        """cost_G(I) == sum_i cost_{G_i}(I_i) for every assignment (paper §3.3)."""
        mrf = example1_mrf(6)
        assignment = {atom: bool((bits >> (atom - 1)) & 1) for atom in mrf.atom_ids}
        decomposition = connected_components(mrf)
        total = assignment_cost(mrf, assignment, hard_as_infinite=False)
        split = cost_decomposes_over_components(decomposition.components, assignment)
        assert split == pytest.approx(total)


class TestComponents:
    def test_example1_component_structure(self):
        decomposition = connected_components(example1_store(10))
        assert decomposition.component_count == 10
        assert all(component.atom_count == 2 for component in decomposition.components)
        assert all(component.clause_count == 3 for component in decomposition.components)
        # Each component: 2 atoms + 4 literal occurrences = size 6.
        assert decomposition.sizes() == [6] * 10
        largest = decomposition.largest()
        assert largest is not None and largest.size() == 6

    def test_atom_to_component_mapping(self):
        decomposition = connected_components(example1_store(3))
        for component_index, component in enumerate(decomposition.components):
            for atom_id in component.atom_ids:
                assert decomposition.component_of_atom(atom_id) == component_index

    def test_single_component_when_fully_connected(self):
        store = GroundClauseStore()
        store.add((1, 2), 1.0)
        store.add((2, 3), 1.0)
        store.add((3, 4), 1.0)
        assert connected_components(store).component_count == 1

    def test_sorted_by_size(self):
        store = GroundClauseStore()
        store.add((1, 2), 1.0)
        store.add((2, 3), 1.0)
        store.add((10,), 1.0)
        ordered = connected_components(store).sorted_by_size()
        assert ordered[0].atom_count >= ordered[-1].atom_count

    @staticmethod
    def _assert_same_decomposition(ours, reference):
        assert len(ours.components) == len(reference.components)
        for component, expected in zip(ours.components, reference.components):
            assert component.atom_ids == expected.atom_ids
            # Clause ids, literal order, weights and sources, row by row.
            assert component.clauses == expected.clauses
            assert component == expected
        # Dict order included: it is the order atoms were assigned in.
        assert list(ours.atom_to_component.items()) == list(
            reference.atom_to_component.items()
        )

    @given(_clause_literals, st.lists(st.integers(1, 20), max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_single_scan_matches_reference_on_mrfs(self, literal_lists, extra_atoms):
        # Clause objects built directly: repeated atoms inside a clause
        # survive (the store would drop or merge them).
        clauses = [
            GroundClause(index + 1, tuple(literals), float(index % 3) - 0.5)
            for index, literals in enumerate(literal_lists)
        ]
        mrf = MRF.from_clauses(clauses, extra_atoms=extra_atoms)
        self._assert_same_decomposition(
            connected_components(mrf), reference_connected_components(mrf)
        )

    @given(_clause_literals)
    @settings(max_examples=100, deadline=None)
    def test_single_scan_matches_reference_on_stores(self, literal_lists):
        store = GroundClauseStore()
        for literals in literal_lists:
            store.add(literals, 1.0)
        self._assert_same_decomposition(
            connected_components(store), reference_connected_components(store)
        )

    def test_single_scan_matches_reference_on_datasets(self):
        from repro.datasets import DatasetScale, load_dataset
        from repro.grounding.bottom_up import BottomUpGrounder

        for name in ("RC", "IE", "ER"):
            program = load_dataset(name, DatasetScale(factor=0.5, seed=2)).program
            grounding = BottomUpGrounder().ground(
                program.clauses(), program.build_atom_registry()
            )
            mrf = MRF.from_store(grounding.clauses)
            self._assert_same_decomposition(
                connected_components(mrf), reference_connected_components(mrf)
            )

    def test_example1_optimal_cost_helper(self):
        assert example1_optimal_cost(7) == 7.0


def _chain(order):
    """Two-literal clauses linking consecutive atoms of ``order``."""
    return MRF.from_clauses(
        [
            GroundClause(index + 1, (left, -right), 1.0 + index % 3)
            for index, (left, right) in enumerate(zip(order, order[1:]))
        ]
    )


class TestLabellingWorstCases:
    """Inputs that make label propagation slow or expose ordering slips.

    Each decomposition must equal the union-find reference: the same
    components in the same order, the same ``atom_ids`` and clause order
    per component, and ``atom_to_component`` in the same order.
    """

    CHAIN_ATOMS = 100_000

    def _assert_matches_reference(self, mrf):
        TestComponents._assert_same_decomposition(
            connected_components(mrf), reference_connected_components(mrf)
        )

    def test_chain_in_random_id_order(self):
        import random
        import time

        order = list(range(1, self.CHAIN_ATOMS + 1))
        random.Random(7).shuffle(order)
        mrf = _chain(order)
        mrf.columns()
        started = time.perf_counter()
        decomposition = connected_components(mrf)
        # Min-label propagation needs one round per chain link (about 90 s
        # here); hooking and shortcutting need a dozen rounds.
        assert time.perf_counter() - started < 2.0
        assert decomposition.component_count == 1
        self._assert_matches_reference(mrf)

    def test_chain_in_zigzag_id_order(self):
        half = self.CHAIN_ATOMS // 2
        order = [atom for pair in zip(range(1, half + 1), range(2 * half, half, -1)) for atom in pair]
        mrf = _chain(order)
        assert connected_components(mrf).component_count == 1
        self._assert_matches_reference(mrf)

    @pytest.mark.parametrize("center", [1, 500])
    def test_star(self, center):
        leaves = [atom for atom in range(1, 501) if atom != center]
        mrf = MRF.from_clauses(
            [GroundClause(leaf, (leaf, center), 1.0) for leaf in leaves]
            + [GroundClause(1000, (600, 601), 1.0)]
        )
        assert connected_components(mrf).component_count == 2
        self._assert_matches_reference(mrf)

    def test_isolated_atoms(self):
        mrf = MRF.from_clauses(
            [GroundClause(1, (5, -9), 1.0), GroundClause(2, (7,), -1.0)],
            extra_atoms=[1, 3, 8, 12],
        )
        decomposition = connected_components(mrf)
        assert [component.atom_ids for component in decomposition.components] == [
            [1], [3], [5, 9], [7], [8], [12]
        ]
        assert [component.clause_count for component in decomposition.components] == [
            0, 0, 1, 1, 0, 0
        ]
        self._assert_matches_reference(mrf)

    def test_clauses_that_repeat_an_atom(self):
        mrf = MRF.from_clauses(
            [
                GroundClause(1, (3, -3, 5), 1.0),
                GroundClause(2, (2, 2), -0.5),
                GroundClause(3, (4, 4, -4), 2.0),
                GroundClause(4, (5, 6, 5, -3), math.inf),
                GroundClause(5, (2, -7, 2), 1.0),
            ]
        )
        assert connected_components(mrf).component_count == 3
        self._assert_matches_reference(mrf)

    def test_atom_ids_not_ascending(self):
        listed = MRF.from_clauses(
            [
                GroundClause(1, (10, -2), 1.0),
                GroundClause(2, (7, 3), 1.0),
                GroundClause(3, (2, 30), -1.0),
                GroundClause(4, (3,), 1.0),
            ],
            extra_atoms=[1, 50],
        )
        for atom_ids in (listed.atom_ids[::-1], [7, 50, 2, 1, 30, 3, 10]):
            mrf = MRF(columns=listed.columns(), atom_ids=atom_ids)
            decomposition = connected_components(mrf)
            assert [component.atom_ids for component in decomposition.components] == [
                [1], [2, 10, 30], [3, 7], [50]
            ]
            self._assert_matches_reference(mrf)
            # Each component's handed-over positions index its own atom ids.
            for component in decomposition.components:
                literals = component.columns().literals
                assert [
                    component.atom_ids[position]
                    for position in component.literal_atom_positions().tolist()
                ] == [abs(literal) for literal in literals]
