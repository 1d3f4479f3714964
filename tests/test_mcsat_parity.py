"""MC-SAT parity: ``MCSat.run`` vs the scalar loop of ``mcsat_oracle``.

The MC-SAT pipeline (numpy clause selection, constraint states taken from
one packed constraint table, vector marginal accumulation) must be
*bit-for-bit* identical to the scalar loop in ``tests/mcsat_oracle.py``,
the executable specification: same RNG stream, same constraint sets, same
sample sequence, same marginals.  These tests drive both with identical
seeds over MLNs covering every clause kind (positive/negative, soft/hard,
duplicate literals), and compare every observable.  A sample request's
chunks (:class:`ComponentSampleRequest`) are checked against the
per-component runs of ``component_oracle``.

The ``count_path`` fixture runs each test on both of the search state's
count-initialisation paths (``NUMPY_VIEW_MIN_CLAUSES`` patched to 0 or to
a huge value); the reference is always the oracle on the loop path.
"""

import math
import random

import pytest

import mcsat_oracle
from component_oracle import mcsat_marginals
from mcsat_oracle import constraint_pieces, soft_indices
from repro.grounding.clause_table import GroundClause, GroundClauseStore
from repro.inference.mcsat import (
    ComponentSampleRequest,
    MCSat,
    MCSatOptions,
    _BatchedSelection,
)
from repro.inference.samplesat import (
    ConstraintPool,
    SampleSAT,
    SampleSATOptions,
    hard_constraint_prefix,
)
from repro.inference.state import SearchState, count_arrays
from repro.mrf import graph
from repro.mrf.graph import MRF
from repro.parallel.buffers import ResultBufferSet
from repro.parallel.pool import ChunkContext
from repro.utils.rng import RandomSource

#: ``NUMPY_VIEW_MIN_CLAUSES`` values forcing each count-initialisation path.
LOOP, BINCOUNT = 10**9, 0


@pytest.fixture(params=[LOOP, BINCOUNT], ids=["loop", "bincount"])
def count_path(request, monkeypatch):
    monkeypatch.setattr(graph, "NUMPY_VIEW_MIN_CLAUSES", request.param)
    return request.param


def sampler_options(samples=25, burn_in=5):
    return dict(samples=samples, burn_in=burn_in)


def biased_mrf() -> MRF:
    store = GroundClauseStore()
    store.add((1,), 3.0)
    store.add((-2,), 3.0)
    store.add((1, 2), 0.5)
    return MRF.from_store(store)


def negative_weight_mrf() -> MRF:
    """Soft negative weights plus a hard positive and a hard negative clause."""
    clauses = [
        GroundClause(1, (1, 2), 1.5),
        GroundClause(2, (-1, 3), -0.7),
        GroundClause(3, (2,), math.inf),
        GroundClause(4, (3, 4), -math.inf),
        GroundClause(5, (1, -4), 0.9),
        GroundClause(6, (-2, -3), -1.2),
        GroundClause(7, (4, 5), 0.0),
    ]
    return MRF.from_clauses(clauses, extra_atoms=range(1, 7))


def random_mln(seed: int, atoms: int = 10, clause_count: int = 40) -> MRF:
    """Randomized MLN with every weight kind, duplicate literals included."""
    rng = RandomSource(seed)
    clauses = []
    for clause_id in range(1, clause_count + 1):
        size = rng.randint(1, 3)
        literals = []
        for _ in range(size):
            atom = rng.randint(1, atoms)
            literals.append(atom if rng.coin() else -atom)
        weight_kind = rng.randint(0, 11)
        if weight_kind == 0:
            weight = math.inf
        elif weight_kind == 1:
            weight = -math.inf
        elif weight_kind <= 4:
            weight = -(round(rng.random() * 2, 3) + 0.1)
        else:
            weight = round(rng.random() * 2, 3) + 0.1
        clauses.append(GroundClause(clause_id, tuple(literals), weight))
    return MRF.from_clauses(clauses, extra_atoms=range(1, atoms + 1))


MLNS = {
    "example1-biased": biased_mrf,
    "negative-weights": negative_weight_mrf,
    "random-0": lambda: random_mln(0),
    "random-1": lambda: random_mln(1, atoms=8, clause_count=60),
}


def assert_run_matches_spec(make_mrf, monkeypatch, count_path, seed=0, initial=None, **run):
    """``MCSat.run`` on ``count_path`` equals the scalar spec on the loop."""
    options = MCSatOptions(**run)
    monkeypatch.setattr(graph, "NUMPY_VIEW_MIN_CLAUSES", LOOP)
    reference = mcsat_oracle.run_mcsat(options, RandomSource(seed), make_mrf(), initial)
    monkeypatch.setattr(graph, "NUMPY_VIEW_MIN_CLAUSES", count_path)
    result = MCSat(options, RandomSource(seed)).run(make_mrf(), initial)
    assert result.probabilities == reference.probabilities
    assert result.samples == reference.samples
    assert result.burn_in == reference.burn_in


class TestPipelineParity:
    @pytest.mark.parametrize("mln", sorted(MLNS))
    def test_marginals_bit_identical_to_scalar_spec(self, mln, count_path, monkeypatch):
        """Exact dict equality of MarginalResult.probabilities — any stream
        divergence in selection, constraint construction or accumulation
        would show up here."""
        assert_run_matches_spec(MLNS[mln], monkeypatch, count_path, **sampler_options())

    @pytest.mark.parametrize("seed", range(4))
    def test_parity_across_seeds(self, seed, count_path, monkeypatch):
        assert_run_matches_spec(
            MLNS["random-0"], monkeypatch, count_path, seed=seed, **sampler_options(15, 3)
        )

    def test_parity_with_initial_assignment(self, count_path, monkeypatch):
        assert_run_matches_spec(
            MLNS["negative-weights"],
            monkeypatch,
            count_path,
            seed=7,
            initial={1: True, 3: True, 5: False},
            **sampler_options(15, 2),
        )

    def test_small_mrf_steps_through_the_constraint_pool(self, monkeypatch):
        """Every MRF, however few its clauses, samples on constraint
        states from the pool: one pipeline at every size."""
        built = []
        state_for = ConstraintPool.state_for

        def recording(pool, selected):
            built.append(len(selected))
            return state_for(pool, selected)

        monkeypatch.setattr(ConstraintPool, "state_for", recording)
        mrf = random_mln(5, atoms=6, clause_count=10)
        assert mrf.clause_count == 10
        MCSat(MCSatOptions(samples=6, burn_in=2), RandomSource(0)).run(mrf)
        assert len(built) == 8


class TestBatchedSelection:
    """The batched selection must reproduce the scalar spec clause-for-clause
    and draw-for-draw."""

    @pytest.mark.parametrize("seed", range(6))
    def test_selection_matches_scalar_spec(self, seed, count_path):
        mrf = random_mln(seed + 100, atoms=9, clause_count=50)
        world_rng = RandomSource(seed)
        world = {atom_id: world_rng.coin() for atom_id in mrf.atom_ids}
        evaluator = SearchState(mrf, world)
        flags = evaluator.satisfaction_flags()

        scalar_rng = RandomSource(seed + 1)
        scalar = mcsat_oracle.select_clauses(scalar_rng, mrf.clauses, flags)

        batched_rng = RandomSource(seed + 1)
        selection = _BatchedSelection(mrf)
        selected = selection.select(batched_rng, evaluator.satisfaction_array())

        # Identical RNG stream consumption.
        assert batched_rng.raw().getstate() == scalar_rng.raw().getstate()

        # Identical constraint sets, in order: the scalar list is the hard
        # prefix plus the selected soft clauses' constraint literals, and
        # the pool's state holds exactly those rows.
        expected = [clause.literals for clause in hard_constraint_prefix(mrf.clauses)]
        for index in selected:
            expected.extend(
                piece.literals for piece in constraint_pieces(mrf.clauses[index])
            )
        assert [clause.literals for clause in scalar] == expected
        assert all(clause.weight == 1.0 for clause in scalar)
        state = ConstraintPool(mrf).state_for(selected)
        assert [tuple(row) for row in state.mrf.columns().literal_rows()] == expected

    def test_zero_weight_clauses_never_selected_or_drawn(self):
        clauses = [GroundClause(1, (1, 2), 0.0), GroundClause(2, (1,), 0.0)]
        mrf = MRF.from_clauses(clauses, extra_atoms=(1, 2))
        rng = RandomSource(0)
        before = rng.raw().getstate()
        assert mcsat_oracle.select_clauses(rng, mrf.clauses, [True, True]) == []
        assert rng.raw().getstate() == before
        selection = _BatchedSelection(mrf)
        assert selection.soft_indices.size == 0


def spec_constraints(mrf, selected):
    """The spec's constraint list: the hard prefix, then each selected soft
    clause's pieces in parent clause order."""
    constraints = hard_constraint_prefix(mrf.clauses)
    for index in selected:
        constraints.extend(constraint_pieces(mrf.clauses[index]))
    return constraints


class TestConstraintPool:
    """Pooled constraint states must be structurally element-for-element
    identical to what the spec path (MRF.from_clauses + fresh flat view)
    builds, so every downstream RNG consumer sees the same world."""

    @pytest.mark.parametrize("seed", range(5))
    def test_pooled_state_structure_matches_spec_path(self, seed, count_path):
        mrf = random_mln(seed + 200, atoms=8, clause_count=45)
        pool = ConstraintPool(mrf)
        select_rng = RandomSource(seed)
        selected = [index for index in soft_indices(mrf) if select_rng.coin(0.4)]
        pooled = pool.state_for(selected)

        # The spec path: wrap the same constraints and rebuild from scratch.
        spec_clauses = spec_constraints(mrf, selected)
        spec_state = SearchState(
            MRF.from_clauses(
                [
                    GroundClause(i + 1, clause.literals, 1.0, clause.source)
                    for i, clause in enumerate(spec_clauses)
                ],
                extra_atoms=mrf.atom_ids,
            )
        )

        assert pooled.atom_ids == spec_state.atom_ids
        assert pooled.hard_penalty == spec_state.hard_penalty
        assert list(pooled._abs_weight) == list(spec_state._abs_weight)
        assert pooled._negated == spec_state._negated
        view = pooled.mrf.flat_view()
        spec_view = spec_state.mrf.flat_view()
        assert list(view.clause_codes) == list(spec_view.clause_codes)
        assert [
            view.clause_atom_positions(index) for index in range(len(view.candidates))
        ] == [
            spec_view.clause_atom_positions(index)
            for index in range(len(spec_view.candidates))
        ]
        assert [list(entries) for entries in view.adjacency] == [
            list(entries) for entries in spec_view.adjacency
        ]
        if count_path == BINCOUNT:
            # The pooled state's count arrays, built from the taken rows,
            # are the ones the spec path derives from its own columns.
            built = view.counts
            assert built is not None
            for pooled_array, spec_array in zip(built, count_arrays(spec_state.mrf)):
                assert pooled_array.tolist() == spec_array.tolist()

        # Same randomize stream -> same violated set and cost.
        pooled.randomize(RandomSource(seed + 1))
        spec_state.randomize(RandomSource(seed + 1))
        assert pooled.assignment_dict() == spec_state.assignment_dict()
        assert pooled._violated_list == spec_state._violated_list
        assert pooled.cost == spec_state.cost

    def test_prefix_state_reused_between_empty_selections(self, count_path):
        mrf = negative_weight_mrf()
        pool = ConstraintPool(mrf)
        first = pool.state_for([])
        second = pool.state_for([])
        assert first is second
        # A non-empty selection builds a fresh state.
        assert pool.state_for(soft_indices(mrf)[:1]) is not first

    def test_sample_prepared_matches_sample(self, count_path):
        """SampleSAT over a pooled state must replay the spec path's exact
        trajectory (same RNG stream, same returned world)."""
        for seed in range(5):
            mrf = random_mln(seed + 300, atoms=8, clause_count=40)
            pool = ConstraintPool(mrf)
            soft = soft_indices(mrf)
            selected = soft[:: max(1, seed)] if soft else []

            spec_sampler = SampleSAT(SampleSATOptions(max_flips=400), RandomSource(seed))
            spec_world = mcsat_oracle.sample(
                spec_sampler, spec_constraints(mrf, selected), mrf.atom_ids
            )

            pooled_sampler = SampleSAT(SampleSATOptions(max_flips=400), RandomSource(seed))
            state = pool.state_for(selected)
            found = pooled_sampler.sample_prepared(state)
            pooled_world = state.checkpoint_dict() if found else state.assignment_dict()
            assert pooled_world == spec_world
            assert (
                spec_sampler.rng.raw().getstate() == pooled_sampler.rng.raw().getstate()
            )


class TestEvaluatorHandoff:
    def test_reset_from_values_matches_dict_reset(self, count_path):
        mrf = random_mln(42, atoms=9, clause_count=30)
        by_dict = SearchState(mrf)
        by_buffer = SearchState(mrf)
        source = SearchState(mrf)
        source.randomize(RandomSource(3))
        by_dict.reset(source.assignment_dict())
        by_buffer.reset_from_values(source.assignment)
        assert by_dict.assignment_dict() == by_buffer.assignment_dict()
        assert by_dict._violated_list == by_buffer._violated_list
        assert by_dict.cost == by_buffer.cost

    def test_reset_from_values_rejects_misaligned_buffer(self):
        mrf = biased_mrf()
        state = SearchState(mrf)
        with pytest.raises(ValueError):
            state.reset_from_values([1, 0, 1])


class TestHardConstraintPrefix:
    def test_prefix_covers_both_hard_signs(self):
        clauses = [
            GroundClause(1, (1, 2), math.inf),
            GroundClause(2, (3,), 1.0),
            GroundClause(3, (2, -4), -math.inf),
        ]
        prefix = hard_constraint_prefix(clauses)
        assert [clause.literals for clause in prefix] == [(1, 2), (-2,), (4,)]
        assert all(clause.weight == 1.0 for clause in prefix)
        assert [clause.clause_id for clause in prefix] == [1, 2, 3]


def disjoint_components(count=5):
    """Random MLNs of every weight kind, shifted onto disjoint atom ranges."""
    components = []
    for index in range(count):
        mrf = random_mln(index, atoms=6 + index, clause_count=20 + 5 * index)
        offset = 100 * index
        clauses = [
            GroundClause(
                clause.clause_id,
                tuple(lit + offset if lit > 0 else lit - offset for lit in clause.literals),
                clause.weight,
            )
            for clause in mrf.clauses
        ]
        components.append(
            MRF.from_clauses(clauses, extra_atoms=[atom + offset for atom in mrf.atom_ids])
        )
    return components


class TestSampleChunk:
    """A sample request's chunks == the oracle's per-component MC-SAT runs."""

    @pytest.mark.parametrize("seed", (0, 3))
    def test_random_chunk_cuts_match_the_oracle(self, seed, count_path, monkeypatch):
        """The chunks run on ``count_path``; the oracle on the loop path."""
        options = MCSatOptions(samples=8, burn_in=3)
        monkeypatch.setattr(graph, "NUMPY_VIEW_MIN_CLAUSES", LOOP)
        reference, _parts = mcsat_marginals(disjoint_components(), options, seed)
        monkeypatch.setattr(graph, "NUMPY_VIEW_MIN_CLAUSES", count_path)
        components = disjoint_components()
        request = ComponentSampleRequest(options, seed)
        regions = ResultBufferSet.pack(components, shared=False)
        try:
            context = ChunkContext(components, regions)
            indices = list(range(len(components)))
            random.Random(seed).shuffle(indices)
            for cut in (indices[:2], indices[2:3], indices[3:]):
                costs, fallbacks, nbytes, events = request.run_chunk(cut, context, True)
                assert costs == [0.0] * len(cut) and fallbacks == {} and nbytes > 0
                assert [[e["name"] for e in phases] for phases in events] == [
                    ["state-setup", "kernel-search", "ship-result"]
                ] * len(cut)
            result = request.read_results(components, regions, {})
        finally:
            regions.destroy()
        assert list(result.probabilities.items()) == list(reference.probabilities.items())
        assert (result.samples, result.burn_in) == (reference.samples, reference.burn_in)
