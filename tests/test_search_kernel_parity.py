"""Kernel parity: the search state vs the seed reference kernel.

The flat-array kernel must be *semantically identical* to the seed kernel
(``tests/reference_kernel.py``): same costs, same flip deltas, same
violated-set ordering (which seeded runs depend on, because the violated
clause is drawn with ``rng.pick`` from that list), the same RNG stream
position, and the same best-assignment tracking.  These tests drive both
with identical randomized MRFs and identical seeds and compare every
observable after every step.

The ``kernel`` fixture runs each test on both count-initialisation paths:
``NUMPY_VIEW_MIN_CLAUSES`` patched to 0 puts these tiny MRFs on the
``np.bincount`` path (and their flat views on the numpy build), patched
to a huge value keeps every MRF on the Python loop.  The state-reuse
lifecycle tests pin that reusing one state (and one stepper) across
restarts is indistinguishable from building fresh states.
"""

import math

import pytest

from repro.grounding.clause_table import GroundClause
from repro.inference.component_walksat import ComponentAwareWalkSAT
from reference_kernel import ReferenceSearchState, ReferenceWalkSAT
from repro.inference.state import SearchState
from repro.inference.walksat import WalkSAT, WalkSATOptions
from repro.mrf import graph
from repro.mrf.graph import MRF
from repro.utils.rng import RandomSource


#: ``NUMPY_VIEW_MIN_CLAUSES`` values forcing each count-initialisation path.
COUNT_PATHS = [
    pytest.param(10**9, id="loop"),
    pytest.param(0, id="bincount"),
]


@pytest.fixture(params=COUNT_PATHS)
def kernel(request, monkeypatch):
    """The search-state class, with every MRF on one count path."""
    monkeypatch.setattr(graph, "NUMPY_VIEW_MIN_CLAUSES", request.param)
    return SearchState


def random_mrf(seed: int, atoms: int = 8, clause_count: int = 24) -> MRF:
    """A randomized MRF with soft, negative, hard and duplicate-literal
    clauses (built from raw GroundClauses so store-level normalisation does
    not sanitise the adversarial cases away)."""
    rng = RandomSource(seed)
    clauses = []
    for clause_id in range(1, clause_count + 1):
        size = rng.randint(1, 3)
        literals = []
        for _ in range(size):
            atom = rng.randint(1, atoms)
            literals.append(atom if rng.coin() else -atom)
        weight_kind = rng.randint(0, 9)
        if weight_kind == 0:
            weight = math.inf
        elif weight_kind <= 3:
            weight = -(round(rng.random() * 3, 3) + 0.1)
        else:
            weight = round(rng.random() * 3, 3) + 0.1
        clauses.append(GroundClause(clause_id, tuple(literals), weight))
    return MRF.from_clauses(clauses, extra_atoms=range(1, atoms + 1))


def assert_states_agree(reference: ReferenceSearchState, state: SearchState) -> None:
    assert state.cost == pytest.approx(reference.cost, rel=1e-12, abs=1e-12)
    # Exact list (not set) equality: the violated-clause *ordering* feeds
    # rng.pick, so it must be reproduced bit-for-bit.
    assert state._violated_list == reference._violated_list
    assert state.assignment_dict() == reference.assignment_dict()
    assert state.violated_count() == reference.violated_count()


class TestKernelParity:
    def test_initialisation_and_structure(self, kernel):
        for seed in range(10):
            mrf = random_mrf(seed)
            reference = ReferenceSearchState(mrf)
            state = kernel(mrf)
            assert (state._counts is not None) == (graph.NUMPY_VIEW_MIN_CLAUSES == 0)
            assert state.hard_penalty == reference.hard_penalty
            assert_states_agree(reference, state)
            for clause_index in range(mrf.clause_count):
                assert list(state.clause_atom_positions(clause_index)) == list(
                    reference.clause_atom_positions(clause_index)
                )

    def test_randomize_consumes_identical_rng(self, kernel):
        for seed in range(10):
            mrf = random_mrf(seed + 50)
            reference = ReferenceSearchState(mrf)
            state = kernel(mrf)
            reference.randomize(RandomSource(seed))
            state.randomize(RandomSource(seed))
            assert_states_agree(reference, state)

    def test_flip_and_delta_parity_over_random_walks(self, kernel):
        for seed in range(15):
            mrf = random_mrf(seed, atoms=9, clause_count=30)
            reference = ReferenceSearchState(mrf)
            state = kernel(mrf)
            reference.randomize(RandomSource(seed))
            state.randomize(RandomSource(seed))
            walk = RandomSource(seed + 1000)
            for _step in range(80):
                for position in range(len(mrf.atom_ids)):
                    assert state.delta_cost(position) == pytest.approx(
                        reference.delta_cost(position), rel=1e-12, abs=1e-12
                    )
                position = walk.randint(0, len(mrf.atom_ids) - 1)
                delta_reference = reference.flip(position)
                delta_state = state.flip(position)
                assert delta_state == pytest.approx(
                    delta_reference, rel=1e-12, abs=1e-12
                )
                assert state.flips == reference.flips
                assert_states_agree(reference, state)
            assert state.true_cost() == pytest.approx(reference.true_cost())

    def test_checkpoint_tracks_best_assignment(self, kernel):
        mrf = random_mrf(3, atoms=6, clause_count=18)
        reference = ReferenceSearchState(mrf)
        state = kernel(mrf)
        reference.randomize(RandomSource(3))
        state.randomize(RandomSource(3))
        walk = RandomSource(99)
        for step in range(60):
            position = walk.randint(0, len(mrf.atom_ids) - 1)
            reference.flip(position)
            state.flip(position)
            if step % 7 == 0:
                reference.checkpoint()
                state.checkpoint()
                assert state.checkpoint_dict() == reference.checkpoint_dict()
        # The snapshot stays pinned at the last checkpoint, not the current
        # state.
        assert state.checkpoint_dict() == reference.checkpoint_dict()

    def test_checkpoint_after_journal_overflow(self, kernel):
        """More flips than atoms between checkpoints forces the full-copy
        fallback; the snapshot must still equal the assignment at
        checkpoint time."""
        mrf = random_mrf(7, atoms=4, clause_count=10)
        state = kernel(mrf)
        state.randomize(RandomSource(7))
        walk = RandomSource(11)
        for _ in range(50):  # far more flips than the 4-atom journal limit
            state.flip(walk.randint(0, len(mrf.atom_ids) - 1))
        state.checkpoint()
        assert state.checkpoint_dict() == state.assignment_dict()
        state.flip(0)
        assert state.checkpoint_dict() != state.assignment_dict()

    def test_satisfaction_flags_parity(self, kernel):
        """After the initialisation and after every flip, as a list and as
        the numpy array MC-SAT's batched selection reads."""
        mrf = random_mrf(9, atoms=7, clause_count=20)
        reference = ReferenceSearchState(mrf)
        state = kernel(mrf)
        reference.randomize(RandomSource(9))
        state.randomize(RandomSource(9))
        expected = [count > 0 for count in reference._sat_count]
        assert state.satisfaction_flags() == expected
        assert state.satisfaction_array().tolist() == expected
        walk = RandomSource(10)
        for _ in range(20):
            position = walk.randint(0, len(mrf.atom_ids) - 1)
            reference.flip(position)
            state.flip(position)
            expected = [count > 0 for count in reference._sat_count]
            assert state.satisfaction_flags() == expected
            assert state.satisfaction_array().tolist() == expected

    def test_randomize_leaves_the_rng_at_the_same_position(self, kernel):
        """Both count paths draw exactly one random() per atom."""
        for seed in range(5):
            mrf = random_mrf(seed + 70)
            reference_rng, state_rng = RandomSource(seed), RandomSource(seed)
            ReferenceSearchState(mrf).randomize(reference_rng)
            kernel(mrf).rerandomize(state_rng)
            assert state_rng.random() == reference_rng.random()

    def test_walksat_runs_identically_on_all_kernels(self, kernel):
        """End-to-end: the same seed drives WalkSAT (the kernel's stepper)
        to the same costs and the same best assignment as the seed WalkSAT
        loop on the seed kernel (multiple tries, so the restart/rerandomize
        path is exercised too)."""
        for seed in range(8):
            mrf = random_mrf(seed + 200, atoms=10, clause_count=32)
            options = WalkSATOptions(max_flips=300, max_tries=2, noise=0.5)
            result_reference = ReferenceWalkSAT(options, RandomSource(seed)).run_on_state(
                ReferenceSearchState(mrf)
            )
            result_state = WalkSAT(options, RandomSource(seed)).run_on_state(
                kernel(mrf)
            )
            assert result_state.best_cost == pytest.approx(
                result_reference.best_cost, rel=1e-12, abs=1e-12
            )
            assert result_state.flips == result_reference.flips
            assert result_state.tries == result_reference.tries
            assert result_state.best_assignment == result_reference.best_assignment

    def test_reset_parity_with_partial_assignment(self, kernel):
        mrf = random_mrf(21)
        reference = ReferenceSearchState(mrf)
        state = kernel(mrf)
        partial = {1: True, 3: True, 999: True}  # unknown atoms are ignored
        reference.reset(partial)
        state.reset(partial)
        assert_states_agree(reference, state)
        assert state.value_of(1) is True
        assert state.value_of(2) is False


class TestStateReuseLifecycle:
    """reset/rerandomize rewrite buffers in place, so one state — and one
    stepper closure — survives any number of restarts with results
    bit-for-bit identical to building everything fresh."""

    def test_lifecycle_keeps_buffer_identity(self, kernel):
        state = kernel(random_mrf(31))
        buffer = state.assignment
        violated = state._violated_list
        state.randomize(RandomSource(1))
        state.reset({1: True})
        state.rerandomize(RandomSource(2))
        assert state.assignment is buffer
        assert state._violated_list is violated

    def test_rerandomize_matches_fresh_randomize(self, kernel):
        for seed in range(6):
            mrf = random_mrf(seed + 400)
            reused = kernel(mrf)
            rng = RandomSource(seed)
            for _restart in range(4):
                fresh = kernel(mrf)
                # One shared stream for the reused state, a cloned prefix
                # consumer for the fresh one: randomize must consume exactly
                # one coin per atom either way.
                fresh_rng = RandomSource(seed)
                for _ in range(_restart * len(mrf.atom_ids)):
                    fresh_rng.coin()
                reused.rerandomize(rng)
                fresh.randomize(fresh_rng)
                assert reused.assignment_dict() == fresh.assignment_dict()
                assert reused.cost == fresh.cost
                assert reused._violated_list == fresh._violated_list

    def test_one_stepper_survives_restarts(self, kernel):
        """Stepping a reused state (stepper created once) must replay the
        exact trajectory of a fresh state + fresh stepper per restart."""
        for seed in range(6):
            mrf = random_mrf(seed + 500, atoms=9, clause_count=28)
            reused = kernel(mrf)
            rng_reused = RandomSource(seed)
            rng_fresh = RandomSource(seed)
            reused.rerandomize(rng_reused)
            fresh = kernel(mrf)
            fresh.rerandomize(rng_fresh)
            step_reused = reused.make_walksat_stepper(rng_reused, noise=0.5)
            for _restart in range(3):
                step_fresh = fresh.make_walksat_stepper(rng_fresh, noise=0.5)
                for _ in range(60):
                    if not reused.has_violations():
                        break
                    assert step_reused() == step_fresh()
                    assert reused.assignment_dict() == fresh.assignment_dict()
                    assert reused._violated_list == fresh._violated_list
                reused.rerandomize(rng_reused)
                fresh = kernel(mrf)
                fresh.rerandomize(rng_fresh)

    def test_component_state_cache_is_bit_identical(self):
        """ComponentAwareWalkSAT reuses one state per component across
        run() calls; every run must equal a cold searcher's run exactly."""
        mrf = random_mrf(77, atoms=12, clause_count=36)
        options = WalkSATOptions(max_flips=200, max_tries=2)
        caching = ComponentAwareWalkSAT(options, RandomSource(3))
        first = caching.run(mrf, total_flips=400)
        second = caching.run(mrf, total_flips=400)  # cached states, reset in place
        cold = ComponentAwareWalkSAT(options, RandomSource(3)).run(mrf, total_flips=400)
        for warm in (first, second):
            assert warm.best_cost == cold.best_cost
            assert warm.flips == cold.flips
            assert warm.best_assignment == cold.best_assignment
        # The cache really was reused (same state objects, same components).
        assert caching._cached_states  # populated
        assert caching.run(mrf, total_flips=400).best_cost == cold.best_cost


class TestDefaultThreshold:
    def test_large_mrf_runs_identically_to_the_reference(self):
        """At the shipped threshold a 400-clause MRF takes the bincount
        path and a 24-clause one the loop; both match the seed WalkSAT
        loop on the seed kernel."""
        for mrf in (random_mrf(3, atoms=40, clause_count=400), random_mrf(4)):
            options = WalkSATOptions(max_flips=400, max_tries=3, noise=0.5)
            expected = ReferenceWalkSAT(options, RandomSource(5)).run_on_state(
                ReferenceSearchState(mrf)
            )
            result = WalkSAT(options, RandomSource(5)).run(mrf)
            assert result.best_cost == expected.best_cost
            assert result.flips == expected.flips
            assert result.best_assignment == expected.best_assignment
