"""Tests for the greedy partitioner, bin packing, loading and the tradeoff
estimator."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.example1 import example1_mrf
from repro.datasets.example2 import example2_mrf
from repro.grounding.clause_table import GroundClauseStore
from repro.mrf.components import connected_components
from repro.mrf.graph import MRF
from repro.partitioning.binpacking import Bin, first_fit_decreasing, packing_quality
from repro.partitioning.bisection import bisection_cost, random_balanced_bisection
from repro.partitioning.greedy import GreedyPartitioner
from repro.partitioning.loader import BatchLoader
from repro.partitioning.tradeoff import partitioning_benefit
from repro.rdbms.database import Database
from repro.utils.rng import RandomSource


def chain_mrf(n_atoms=20, weight_step=True):
    """A path graph: clause i connects atoms i and i+1."""
    store = GroundClauseStore()
    for index in range(1, n_atoms):
        weight = float(index) if weight_step else 1.0
        store.add((index, index + 1), weight)
    return MRF.from_store(store)


class TestGreedyPartitioner:
    def test_infinite_bound_recovers_components(self):
        mrf = example1_mrf(5)
        partitioning = GreedyPartitioner(math.inf).partition(mrf)
        assert partitioning.partition_count == 5
        assert partitioning.cut_size == 0
        components = connected_components(mrf)
        assert sorted(map(sorted, partitioning.atom_partitions)) == sorted(
            sorted(c.atom_ids) for c in components.components
        )

    def test_size_bound_respected(self):
        mrf = chain_mrf(30)
        bound = 12
        partitioning = GreedyPartitioner(bound).partition(mrf)
        assert partitioning.partition_count > 1
        for size in partitioning.sizes(mrf):
            assert size <= bound

    def test_every_clause_assigned_or_cut(self):
        mrf = chain_mrf(25)
        partitioning = GreedyPartitioner(10).partition(mrf)
        assert len(partitioning.clause_assignment) + partitioning.cut_size == mrf.clause_count

    def test_partitions_cover_all_atoms_disjointly(self):
        mrf = chain_mrf(25)
        partitioning = GreedyPartitioner(10).partition(mrf)
        covered = [atom for atoms in partitioning.atom_partitions for atom in atoms]
        assert sorted(covered) == sorted(mrf.atom_ids)

    def test_kept_clauses_lie_inside_their_partition_and_cut_ones_span_two(self):
        mrf = chain_mrf(25)
        partitioning = GreedyPartitioner(10).partition(mrf)
        owner = {
            atom: index
            for index, atoms in enumerate(partitioning.atom_partitions)
            for atom in atoms
        }
        for clause_index, partition_index in partitioning.clause_assignment.items():
            literals = mrf.clauses[clause_index].literals
            assert {owner[abs(literal)] for literal in literals} == {partition_index}
        assert partitioning.cut_size > 0
        for clause_index in partitioning.cut_clauses:
            literals = mrf.clauses[clause_index].literals
            assert len({owner[abs(literal)] for literal in literals}) > 1

    def test_sizes_count_atoms_plus_literals(self):
        # Unbounded, a 10-atom path is one partition: 10 atoms, 9 clauses of
        # two literals each.
        mrf = chain_mrf(10)
        partitioning = GreedyPartitioner(math.inf).partition(mrf)
        assert partitioning.sizes(mrf) == [10 + 2 * 9]

    def test_high_weight_clauses_preferred(self):
        # Clause weights increase along the chain; the partitioner should cut
        # lower-weight clauses rather than the heaviest ones.
        mrf = chain_mrf(20, weight_step=True)
        partitioning = GreedyPartitioner(15).partition(mrf)
        assert partitioning.cut_size > 0
        cut_weights = [abs(mrf.clauses[i].weight) for i in partitioning.cut_clauses]
        kept_weights = [abs(mrf.clauses[i].weight) for i in partitioning.clause_assignment]
        assert min(kept_weights) >= 1.0
        assert max(cut_weights) < max(kept_weights)

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            GreedyPartitioner(0)

    @given(st.integers(min_value=4, max_value=40), st.integers(min_value=4, max_value=20))
    @settings(max_examples=30, deadline=None)
    def test_size_bound_property(self, atoms, bound):
        mrf = chain_mrf(atoms)
        partitioning = GreedyPartitioner(bound).partition(mrf)
        assert all(size <= max(bound, 3) for size in partitioning.sizes(mrf))
        covered = sorted(a for atoms_ in partitioning.atom_partitions for a in atoms_)
        assert covered == sorted(mrf.atom_ids)


class TestBinPacking:
    def test_ffd_respects_capacity(self):
        bins = first_fit_decreasing([7, 5, 3, 3, 2], capacity=10, size_of=float)
        assert all(bin_.used <= 10 for bin_ in bins)
        assert sum(len(bin_) for bin_ in bins) == 5

    def test_ffd_is_reasonably_tight(self):
        sizes = [4, 4, 4, 4, 4, 4]
        bins = first_fit_decreasing(sizes, capacity=8, size_of=float)
        assert len(bins) == 3

    def test_oversized_items_get_their_own_bin(self):
        bins = first_fit_decreasing([15, 2], capacity=10, size_of=float)
        assert len(bins) == 2
        assert any(bin_.used > 10 for bin_ in bins)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            first_fit_decreasing([1], capacity=0, size_of=float)

    def test_bin_add_checks_capacity(self):
        bin_ = Bin(capacity=5)
        bin_.add("a", 3)
        with pytest.raises(ValueError):
            bin_.add("b", 3)
        assert bin_.free == 2

    def test_packing_quality(self):
        bins = first_fit_decreasing([5, 5], capacity=5, size_of=float)
        count, fill = packing_quality(bins)
        assert count == 2 and fill == pytest.approx(1.0)
        assert packing_quality([]) == (0, 0.0)

    @given(
        st.lists(st.integers(min_value=1, max_value=9), min_size=0, max_size=30),
        st.integers(min_value=10, max_value=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_ffd_properties(self, sizes, capacity):
        bins = first_fit_decreasing(sizes, capacity=capacity, size_of=float)
        # Every item is packed exactly once.
        packed = sorted(item for bin_ in bins for item in bin_.items)
        assert packed == sorted(sizes)
        # No bin exceeds capacity (items are all <= capacity here).
        assert all(bin_.used <= capacity for bin_ in bins)
        # FFD guarantee: uses at most ceil(2 * sum / capacity) + 1 bins (a
        # loose but universally valid bound that catches gross regressions).
        if sizes:
            assert len(bins) <= math.ceil(2 * sum(sizes) / capacity) + 1


class TestBatchLoader:
    def _database_with_clause_table(self, mrf):
        # A one-page buffer pool so every clause-table scan pays real
        # (simulated) I/O instead of hitting a warm cache.
        database = Database(page_size=16, buffer_pool_pages=1)
        store = GroundClauseStore()
        for clause in mrf.clauses:
            store.add(clause.literals, clause.weight, clause.source)
        store.store_in_database(database)
        return database

    def test_batched_fewer_scans_than_one_by_one(self):
        mrf = example1_mrf(40)
        components = connected_components(mrf).components
        batched_db = self._database_with_clause_table(mrf)
        batched = BatchLoader(batched_db, memory_budget=100.0).load(components, batched=True)
        one_by_one_db = self._database_with_clause_table(mrf)
        one_by_one = BatchLoader(one_by_one_db, memory_budget=100.0).load(
            components, batched=False
        )
        assert batched.batch_count < one_by_one.batch_count
        assert one_by_one.batch_count == len(components)
        assert batched.component_count == len(components)
        assert batched.scans < one_by_one.scans
        assert batched.simulated_seconds < one_by_one.simulated_seconds

    def test_peak_batch_size_within_budget(self):
        mrf = example1_mrf(20)
        components = connected_components(mrf).components
        database = self._database_with_clause_table(mrf)
        plan = BatchLoader(database, memory_budget=50.0).load(components)
        assert plan.peak_batch_size() <= 50.0

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            BatchLoader(Database(), memory_budget=0)


class TestBisection:
    def test_cost_counts_spanning_clauses(self):
        mrf = chain_mrf(6, weight_step=False)
        # Splitting a path in the middle cuts exactly one clause.
        assert bisection_cost(mrf, {1, 2, 3}) == 1
        assert bisection_cost(mrf, set(mrf.atom_ids)) == 0
        # The natural split of Example 2 cuts exactly one clause.
        example, side_one, _ = example2_mrf(4)
        assert bisection_cost(example, side_one) == 1

    def test_random_bisection_is_balanced(self):
        mrf = chain_mrf(10, weight_step=False)
        one, two = random_balanced_bisection(mrf, RandomSource(0))
        assert abs(len(one) - len(two)) <= 1
        assert sorted(one + two) == sorted(mrf.atom_ids)


class TestTradeoffEstimator:
    def test_component_partitioning_is_beneficial(self):
        mrf = example1_mrf(12)
        partitioning = GreedyPartitioner(math.inf).partition(mrf)
        estimate = partitioning_benefit(mrf, partitioning, steps_per_round=1000)
        assert estimate.is_beneficial
        assert estimate.cut_clauses == 0

    def test_heavy_cut_is_detrimental(self):
        mrf = chain_mrf(12, weight_step=False)
        partitioning = GreedyPartitioner(4).partition(mrf)
        estimate = partitioning_benefit(
            mrf, partitioning, steps_per_round=10_000, positive_cost_components=1
        )
        assert estimate.slowdown_term > 0
        assert not estimate.is_beneficial

    def test_invalid_steps(self):
        mrf = chain_mrf(5)
        partitioning = GreedyPartitioner(math.inf).partition(mrf)
        with pytest.raises(ValueError):
            partitioning_benefit(mrf, partitioning, steps_per_round=0)

    def test_estimate_terms_match_the_formula(self):
        """W = 2^(N/3) - T * |cut| / |E| on a crafted partitioning."""
        mrf = chain_mrf(12, weight_step=False)  # 11 clauses
        partitioning = GreedyPartitioner(8).partition(mrf)
        estimate = partitioning_benefit(mrf, partitioning, steps_per_round=100)
        assert estimate.total_clauses == 11
        assert estimate.cut_clauses == partitioning.cut_size
        assert estimate.positive_components == partitioning.partition_count
        assert estimate.speedup_term == pytest.approx(
            2.0 ** (partitioning.partition_count / 3.0)
        )
        assert estimate.slowdown_term == pytest.approx(
            100 * partitioning.cut_size / 11
        )
        assert estimate.benefit == pytest.approx(
            estimate.speedup_term - estimate.slowdown_term
        )

    def test_positive_component_override_flips_the_verdict(self):
        """The caller's knowledge of zero-cost components changes the call:
        the same cut is worth paying for many positive-cost components and
        not for a single one."""
        mrf = chain_mrf(40, weight_step=False)
        partitioning = GreedyPartitioner(6).partition(mrf)
        assert partitioning.partition_count >= 8
        optimistic = partitioning_benefit(mrf, partitioning, steps_per_round=150)
        pessimistic = partitioning_benefit(
            mrf, partitioning, steps_per_round=150, positive_cost_components=1
        )
        assert optimistic.is_beneficial
        assert not pessimistic.is_beneficial
        assert optimistic.slowdown_term == pessimistic.slowdown_term

    def test_exponent_cap_keeps_the_estimate_finite(self):
        mrf = example1_mrf(400)
        partitioning = GreedyPartitioner(math.inf).partition(mrf)
        estimate = partitioning_benefit(
            mrf, partitioning, steps_per_round=10, cap_exponent=60.0
        )
        assert estimate.speedup_term == 2.0 ** 60
        assert math.isfinite(estimate.benefit)
        assert estimate.is_beneficial

    def test_empty_mrf_has_zero_slowdown(self):
        mrf = MRF.from_clauses([])
        partitioning = GreedyPartitioner(math.inf).partition(mrf)
        estimate = partitioning_benefit(mrf, partitioning, steps_per_round=10)
        assert estimate.slowdown_term == 0.0
        assert estimate.cut_clauses == 0
