"""Session parity: warm requests are bit-identical to cold runs.

The session architecture's determinism contract
(:mod:`repro.core.session`): the Nth request on a warm
:class:`~repro.core.session.EngineSession` — reused grounding, MRF,
component decomposition, kernel states and (on the ``processes`` backend)
worker pool — returns bit-for-bit the same assignments, costs, flips,
marginals and simulated seconds as a fresh engine running once with the
same seed, across every parallel backend and worker count.  After an
evidence delta, parity is against a fresh session *replaying the same
call sequence* (registry build, then the ordered ``add_evidence`` calls)
— and the delta re-grounds only the clauses touching changed predicates,
asserted via the grounding delta report's counters.
"""

import os

import pytest
from row_oracle import ground_by_rows

from repro.core.config import InferenceConfig
from repro.core.engine import TuffyEngine
from repro.core.program import MLNProgram
from repro.datasets import DatasetScale, load_dataset
from repro.datasets.example1 import example1_mrf
from repro.mrf.components import connected_components
from repro.parallel import processes_available
from repro.parallel import pool as pool_module
from repro.parallel import buffers as buffers_module
from repro.parallel.buffers import ResultBufferSet
from repro.parallel.pool import BoundedStateCache, WorkerPool

BACKENDS = [
    backend for backend in ("serial", "processes")
    if backend != "processes" or processes_available()
]
WORKER_COUNTS = (1, 2, 4)

PROGRAM_TEXT = """
*wrote(author, paper)
*refers(paper, paper)
cat(paper, category)
5 cat(p, c1), cat(p, c2) => c1 = c2
1 wrote(x, p1), wrote(x, p2), cat(p1, c) => cat(p2, c)
2 cat(p1, c), refers(p1, p2) => cat(p2, c)
-1 cat(p, "Networking")
"""

EVIDENCE_TEXT = """
wrote(Joe, P1)
wrote(Joe, P2)
wrote(Jake, P3)
refers(P1, P3)
cat(P2, "DB")
"""

TWO_ISLANDS_TEXT = """
*link(node, node)
label(node, tag)
2 link(a, b), label(a, t) => label(b, t)
-0.5 label(n, "Bad")
"""

TWO_ISLANDS_EVIDENCE = """
link(A1, A2)
link(B1, B2)
label(A1, "Good")
"""


def figure1_program():
    program = MLNProgram.from_text(PROGRAM_TEXT, EVIDENCE_TEXT)
    program.add_constants("category", ["DB", "AI", "Networking"])
    return program


def two_islands_program():
    program = MLNProgram.from_text(TWO_ISLANDS_TEXT, TWO_ISLANDS_EVIDENCE)
    program.add_constants("tag", ["Good", "Bad"])
    return program


def _rc_config(**overrides):
    defaults = dict(seed=0, max_flips=1500)
    defaults.update(overrides)
    return InferenceConfig(**defaults)


def _rc_program():
    return load_dataset("RC", DatasetScale(factor=0.25, seed=0)).program


def _assert_same_map(result, reference, key=None, include_simulated=False):
    assert result.assignment == reference.assignment, key
    assert result.cost == reference.cost, key
    assert result.flips == reference.flips, key
    assert result.component_count == reference.component_count, key
    if include_simulated:
        assert result.simulated_seconds == reference.simulated_seconds, key
    else:
        # A warm request never pays *more* simulated I/O than a cold run —
        # the simulated buffer cache can only absorb repeated scans.
        assert result.simulated_seconds <= reference.simulated_seconds, key


class TestWarmMapParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_third_request_matches_cold_run(self, backend, workers):
        config = _rc_config(parallel_backend=backend, workers=workers)
        cold = TuffyEngine(_rc_program(), config).run_map()
        with TuffyEngine(_rc_program(), _rc_config(parallel_backend=backend, workers=workers)) as engine:
            first = engine.run_map()
            _assert_same_map(first, cold, key=(backend, workers), include_simulated=True)
            warm = None
            for _request in range(2):
                warm = engine.run_map()
            _assert_same_map(warm, cold, key=(backend, workers))
            assert {"grounding", "search"} <= set(warm.phase_seconds)
            assert engine.stats.ground_runs == 1

    def test_per_request_seed_override_matches_cold_seed(self):
        cold = TuffyEngine(_rc_program(), _rc_config(seed=7)).run_map()
        with TuffyEngine(_rc_program(), _rc_config(seed=0)) as engine:
            engine.run_map()  # warm up on the default seed
            warm = engine.run_map(seed=7)
            _assert_same_map(warm, cold)

    def test_monolithic_requests_reuse_state_bit_identically(self):
        config = InferenceConfig(seed=0, max_flips=5000, use_partitioning=False)
        cold = TuffyEngine(figure1_program(), config).run_map()
        with TuffyEngine(
            figure1_program(),
            InferenceConfig(seed=0, max_flips=5000, use_partitioning=False),
        ) as engine:
            warm = None
            for _request in range(3):
                warm = engine.run_map()
            _assert_same_map(warm, cold)
            # The full-MRF kernel state is cached across requests (checked
            # back into the lease once no request holds it).
            assert engine.session._state_lease.held("monolithic")


class TestWarmMarginalParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_third_request_matches_cold_run(self, backend):
        config = _rc_config(parallel_backend=backend, workers=2, mcsat_samples=20)
        cold = TuffyEngine(_rc_program(), config).run_marginal()
        with TuffyEngine(
            _rc_program(),
            _rc_config(parallel_backend=backend, workers=2, mcsat_samples=20),
        ) as engine:
            warm = None
            for _request in range(3):
                warm = engine.run_marginal()
            assert warm.marginals.probabilities == cold.marginals.probabilities, backend
            assert warm.assignment == cold.assignment, backend
            assert warm.cost == cold.cost, backend
            assert warm.simulated_seconds == cold.simulated_seconds, backend

    def test_no_partitioning_reports_one_component_without_detection(self):
        # Regression: run_marginal used to *unconditionally* run component
        # detection just to report the count, even with partitioning off.
        config = InferenceConfig(
            seed=0, use_partitioning=False, mcsat_samples=10
        )
        engine = TuffyEngine(figure1_program(), config)
        result = engine.run_marginal()
        assert engine.components is None  # detection never ran
        assert result.component_count == 1

    def test_no_partitioning_reuses_existing_decomposition(self):
        config = InferenceConfig(
            seed=0, use_partitioning=False, mcsat_samples=10
        )
        engine = TuffyEngine(two_islands_program(), config)
        detected = engine.detect_components().component_count
        assert detected > 1
        result = engine.run_marginal()
        assert result.component_count == detected


class TestEvidenceDelta:
    def test_delta_regrounds_only_clauses_touching_changed_predicate(self):
        with TuffyEngine(figure1_program(), InferenceConfig(seed=0, max_flips=3000)) as engine:
            engine.run_map()
            first = engine.session.last_ground_report
            assert not first.is_delta
            assert first.queries_executed == 4
            assert first.clauses_replayed == 0
            # Delta on 'wrote': only the co-author rule reads it; the other
            # three clauses replay and only the wrote table reloads.
            engine.add_evidence("wrote", ("Jake", "P2"))
            engine.run_map()
            report = engine.session.last_ground_report
            assert report.is_delta
            assert report.queries_executed == 1
            assert report.clauses_replayed == 3
            assert report.atom_tables_loaded == 1
            assert report.atom_tables_reused == 2
            assert engine.stats.ground_runs == 2
            assert engine.stats.delta_ground_runs == 1

    def test_delta_request_matches_replaying_comparator(self):
        def drive(config):
            engine = TuffyEngine(figure1_program(), config)
            engine.ground()  # fix the registry before the delta, per contract
            engine.add_evidence("wrote", ("Jake", "P2"))
            map_result = engine.run_map()
            marginal_result = engine.run_marginal()
            engine.close()
            return map_result, marginal_result

        # Warm session: grounds once, deltas, re-grounds via clause replay.
        with TuffyEngine(figure1_program(), InferenceConfig(seed=0, max_flips=3000)) as warm_engine:
            warm_engine.run_map()
            warm_engine.add_evidence("wrote", ("Jake", "P2"))
            warm_map = warm_engine.run_map()
            warm_marginal = warm_engine.run_marginal()

        # Comparator 1: fresh session replaying the same call sequence.
        replay_map, replay_marginal = drive(InferenceConfig(seed=0, max_flips=3000))
        # Comparator 2: replay cache disabled — every clause re-executes its
        # relational query, proving replayed stores match executed stores.
        full_map, full_marginal = drive(
            InferenceConfig(seed=0, max_flips=3000, delta_grounding=False)
        )

        for other in (replay_map, full_map):
            assert warm_map.assignment == other.assignment
            assert warm_map.cost == other.cost
            assert warm_map.flips == other.flips
        for other in (replay_marginal, full_marginal):
            assert warm_marginal.marginals.probabilities == other.marginals.probabilities

    def test_delta_adopts_structurally_unchanged_components(self):
        with TuffyEngine(two_islands_program(), InferenceConfig(seed=0, max_flips=2000)) as engine:
            first = engine.run_map()
            assert first.component_count > 1
            # Fixing a label on island B rewrites B's ground clauses but
            # leaves island A structurally identical — A's MRF is adopted.
            engine.add_evidence("label", ("B1", "Good"))
            engine.run_map()
            assert engine.stats.components_adopted >= 1
            assert engine.stats.components_rebuilt >= 1


class TestEvidenceRetraction:
    """remove_evidence mirrors add_evidence: same delta machinery, same contract."""

    def test_retraction_regrounds_only_clauses_touching_changed_predicate(self):
        with TuffyEngine(figure1_program(), InferenceConfig(seed=0, max_flips=3000)) as engine:
            engine.run_map()
            # Retract a 'wrote' fact: only the co-author rule reads it; the
            # other three clauses replay and only the wrote table reloads —
            # the exact counters of the add-evidence delta.
            atom = engine.remove_evidence("wrote", ("Joe", "P2"))
            engine.run_map()
            report = engine.session.last_ground_report
            assert report.is_delta
            assert report.queries_executed == 1
            assert report.clauses_replayed == 3
            assert report.atom_tables_loaded == 1
            assert report.atom_tables_reused == 2
            assert engine.stats.ground_runs == 2
            assert engine.stats.delta_ground_runs == 1
            # 'wrote' is closed-world: the record survives with the
            # closed-world default truth, never as a query variable.
            registry = engine.session.registry()
            atom_id = registry.lookup("wrote", atom.argument_values())
            assert registry.truth(atom_id) is False

    def test_open_world_retraction_reopens_the_atom_as_a_variable(self):
        with TuffyEngine(figure1_program(), InferenceConfig(seed=0, max_flips=3000)) as engine:
            engine.run_map()
            # 'cat' is open-world and read by all four clauses: everything
            # re-executes, and only the cat atom table reloads.
            atom = engine.remove_evidence("cat", ("P2", "DB"))
            result = engine.run_map()
            report = engine.session.last_ground_report
            # Every clause reads 'cat', so nothing replays (is_delta False).
            assert report.queries_executed == 4
            assert report.clauses_replayed == 0
            assert report.atom_tables_loaded == 1
            assert report.atom_tables_reused == 2
            registry = engine.session.registry()
            atom_id = registry.lookup("cat", atom.argument_values())
            assert registry.truth(atom_id) is None
            # The retracted atom is a search variable again.
            assert atom_id in result.assignment

    def test_retraction_matches_replaying_comparator(self):
        def drive(config):
            engine = TuffyEngine(figure1_program(), config)
            engine.ground()  # fix the registry before the delta, per contract
            engine.remove_evidence("wrote", ("Joe", "P2"))
            map_result = engine.run_map()
            marginal_result = engine.run_marginal()
            engine.close()
            return map_result, marginal_result

        with TuffyEngine(figure1_program(), InferenceConfig(seed=0, max_flips=3000)) as warm_engine:
            warm_engine.run_map()
            warm_engine.remove_evidence("wrote", ("Joe", "P2"))
            warm_map = warm_engine.run_map()
            warm_marginal = warm_engine.run_marginal()

        # Comparator 1: fresh session replaying the same call sequence.
        replay_map, replay_marginal = drive(InferenceConfig(seed=0, max_flips=3000))
        # Comparator 2: replay cache disabled — every clause re-executes its
        # relational query, proving replayed stores match executed stores.
        full_map, full_marginal = drive(
            InferenceConfig(seed=0, max_flips=3000, delta_grounding=False)
        )

        for other in (replay_map, full_map):
            assert warm_map.assignment == other.assignment
            assert warm_map.cost == other.cost
            assert warm_map.flips == other.flips
        for other in (replay_marginal, full_marginal):
            assert warm_marginal.marginals.probabilities == other.marginals.probabilities

    def test_add_then_retract_round_trip_is_replayable(self):
        def drive(config):
            engine = TuffyEngine(figure1_program(), config)
            engine.ground()
            engine.add_evidence("wrote", ("Jake", "P2"))
            engine.remove_evidence("wrote", ("Jake", "P2"))
            result = engine.run_map()
            engine.close()
            return result

        warm = drive(InferenceConfig(seed=0, max_flips=3000))
        replay = drive(InferenceConfig(seed=0, max_flips=3000))
        assert warm.assignment == replay.assignment
        assert warm.cost == replay.cost
        assert warm.flips == replay.flips

    def test_retract_then_reassert_restores_the_original_result(self):
        # Re-asserting a retracted closed-world fact must not trip the
        # conflicting-evidence check: the retraction default (False) is
        # not asserted evidence.  The round trip lands back on the
        # original result (atom ids are stable across the cycle).
        with TuffyEngine(figure1_program(), InferenceConfig(seed=0, max_flips=3000)) as engine:
            baseline = engine.run_map()
            engine.remove_evidence("wrote", ("Joe", "P2"))
            engine.run_map()
            engine.add_evidence("wrote", ("Joe", "P2"))
            restored = engine.run_map()
            assert restored.assignment == baseline.assignment
            assert restored.cost == baseline.cost
            assert restored.flips == baseline.flips
            assert engine.stats.ground_runs == 3

    def test_retracting_unknown_fact_raises(self):
        from repro.core.errors import ProgramError

        with TuffyEngine(figure1_program(), InferenceConfig(seed=0, max_flips=3000)) as engine:
            with pytest.raises(ProgramError):
                engine.remove_evidence("wrote", ("Nobody", "P999"))


@pytest.mark.skipif(not processes_available(), reason="fork start method unavailable")
def _store_fingerprint(store):
    return (
        [
            (clause.clause_id, clause.literals, clause.weight, clause.source)
            for clause in store
        ],
        store.evidence_violation_cost,
        store.tautologies,
        store.satisfied_by_evidence,
    )


class TestBatchReplayParity:
    """A recorded ``add_batch`` event replays to the store a re-run builds.

    Two sessions walk the same add/retract schedule, one replaying
    unchanged clauses from its recorded events (batches as batches), the
    other re-executing every relational query; after every step their
    clause stores must be bit-identical.
    """

    #: dataset -> a closed-world predicate only some of its rules read.
    DELTA_PREDICATE = {"RC": "refers", "IE": "next", "ER": "simMed"}

    @pytest.mark.parametrize("grounding", ["columnar", "row"])
    @pytest.mark.parametrize("dataset", sorted(DELTA_PREDICATE))
    def test_replayed_store_equals_reexecuted_store(self, dataset, grounding, monkeypatch):
        # ``row`` grounds through the row oracle, whose per-binding ``add``
        # calls are recorded and replayed as such.
        expected_event = "add_batch"
        if grounding == "row":
            ground_by_rows(monkeypatch)
            expected_event = "add"

        def program():
            return load_dataset(dataset, DatasetScale(factor=0.5, seed=1)).program

        predicate = self.DELTA_PREDICATE[dataset]
        fact = next(
            fact.atom.argument_values()
            for fact in program().evidence
            if fact.atom.predicate.name == predicate
        )
        schedule = [
            ("remove_evidence", fact),
            ("add_evidence", fact),
            ("remove_evidence", fact),
        ]
        base = dict(seed=0)
        with TuffyEngine(program(), InferenceConfig(**base)) as replaying, TuffyEngine(
            program(), InferenceConfig(delta_grounding=False, **base)
        ) as reexecuting:
            assert _store_fingerprint(replaying.ground().clauses) == _store_fingerprint(
                reexecuting.ground().clauses
            )
            recorded = replaying.session._bottom_up_grounder()._replay
            assert any(
                kind == expected_event
                for replay in recorded.values()
                for kind, _payload in replay.events
            )
            for step, (call, arguments) in enumerate(schedule):
                getattr(replaying, call)(predicate, arguments)
                getattr(reexecuting, call)(predicate, arguments)
                replayed = replaying.ground()
                executed = reexecuting.ground()
                report = replaying.session.last_ground_report
                assert report.clauses_replayed > 0, (dataset, step)
                assert reexecuting.session.last_ground_report.clauses_replayed == 0
                assert _store_fingerprint(replayed.clauses) == _store_fingerprint(
                    executed.clauses
                ), (dataset, step)
                assert [
                    (stats.ground_clauses, stats.pruned_bindings, stats.intermediate_tuples)
                    for stats in replayed.per_clause
                ] == [
                    (stats.ground_clauses, stats.pruned_bindings, stats.intermediate_tuples)
                    for stats in executed.per_clause
                ], (dataset, step)


class TestPersistentPool:
    def test_pool_forked_once_and_shared_across_request_kinds(self):
        config = _rc_config(
            parallel_backend="processes", workers=2, mcsat_samples=10
        )
        with TuffyEngine(_rc_program(), config) as engine:
            engine.run_map()
            engine.run_map()
            engine.run_marginal()
            assert engine.stats.pool_launches == 1
        assert engine.session._pool_holder["pool"] is None

    def test_evidence_delta_tears_down_and_reforks_the_pool(self):
        config = InferenceConfig(
            seed=0, max_flips=2000, parallel_backend="processes", workers=2
        )
        with TuffyEngine(two_islands_program(), config) as engine:
            engine.run_map()
            assert engine.stats.pool_launches == 1
            engine.add_evidence("label", ("B1", "Good"))
            engine.run_map()
            assert engine.stats.pool_launches == 2

    def test_tiny_component_session_keeps_worker_states_resident(self):
        # Hundreds of tiny components weigh little in size units, so every
        # kernel state a worker builds stays cached across warm requests
        # (a bound on the number of entries would evict most of them).
        dataset = load_dataset("IE", DatasetScale(factor=4, seed=0))
        config = InferenceConfig(
            seed=0, max_flips=4000, parallel_backend="processes", workers=2
        )
        with TuffyEngine(dataset.program, config) as engine:
            for seed in range(3):
                engine.run_map(seed=seed)
            count = len(engine.components.components)
            counters = engine.metrics_snapshot().as_dict()["counters"]
        assert count > 200
        hits = counters["pool.state_cache_hits"]
        misses = counters["pool.state_cache_misses"]
        assert hits + misses == 3 * count
        # No eviction: a (worker, component) pair misses at most once; and
        # three requests over two workers revisit every component.
        assert misses <= 2 * count
        assert hits >= count
        assert counters["scheduler.chunks_dispatched"] < 3 * count

    def test_persistent_pool_off_never_launches_a_session_pool(self):
        config = _rc_config(
            parallel_backend="processes", workers=2, persistent_pool=False
        )
        with TuffyEngine(_rc_program(), config) as engine:
            engine.run_map()
            engine.run_map()
            assert engine.stats.pool_launches == 0


class TestWorkerPoolLifecycle:
    @pytest.fixture()
    def components(self):
        return connected_components(example1_mrf(8)).components

    @pytest.mark.skipif(
        not processes_available(), reason="fork start method unavailable"
    )
    def test_context_manager_shuts_down_on_exit(self, components):
        with WorkerPool(components, 2) as pool:
            assert pool.matches(components)
        assert pool._closed
        assert not pool.matches(components)

    def test_constructor_failure_destroys_shared_memory(self, components, monkeypatch):
        destroyed = []
        original_destroy = ResultBufferSet.destroy

        def spying_destroy(self):
            destroyed.append(True)
            original_destroy(self)

        class ExplodingContext:
            def Queue(self):
                raise RuntimeError("queue construction failed")

        monkeypatch.setattr(ResultBufferSet, "destroy", spying_destroy)
        monkeypatch.setattr(
            pool_module.multiprocessing,
            "get_context",
            lambda method: ExplodingContext(),
        )
        with pytest.raises(RuntimeError, match="queue construction failed"):
            WorkerPool(components, 2)
        assert destroyed, "shared-memory segment leaked on constructor failure"

    @pytest.mark.skipif(
        not processes_available(), reason="fork start method unavailable"
    )
    @pytest.mark.parametrize("failing_allocation", [1, 2])
    def test_shm_allocation_failure_leaves_dev_shm_unchanged(
        self, components, monkeypatch, failing_allocation
    ):
        # Regression: a second segment's allocation used to fail *outside*
        # the constructor's cleanup, leaking the first.  However many
        # segments a pool allocates (today: one), a failure at any of
        # them must leave /dev/shm as it was found.
        before = set(os.listdir("/dev/shm"))
        real = buffers_module.shared_memory.SharedMemory
        allocations = []

        def flaky(*args, **kwargs):
            allocations.append(kwargs)
            if len(allocations) == failing_allocation:
                raise OSError(28, "No space left on device")
            return real(*args, **kwargs)

        monkeypatch.setattr(buffers_module.shared_memory, "SharedMemory", flaky)
        try:
            pool = WorkerPool(components, 2)
        except OSError:
            pass
        else:
            pool.shutdown()
        assert set(os.listdir("/dev/shm")) == before

    @pytest.mark.skipif(
        not processes_available(), reason="fork start method unavailable"
    )
    def test_process_start_failure_leaves_dev_shm_unchanged(
        self, components, monkeypatch
    ):
        before = set(os.listdir("/dev/shm"))
        fork = pool_module.multiprocessing.get_context("fork")
        started = []

        class SecondStartFails(fork.Process):
            def start(self):
                if started:
                    raise OSError(11, "Resource temporarily unavailable")
                super().start()
                started.append(self)

        class Context:
            Queue = staticmethod(fork.Queue)
            Process = SecondStartFails

        monkeypatch.setattr(
            pool_module.multiprocessing, "get_context", lambda method: Context()
        )
        with pytest.raises(OSError, match="temporarily unavailable"):
            WorkerPool(components, 2)
        assert set(os.listdir("/dev/shm")) == before
        assert len(started) == 1 and not started[0].is_alive()


class TestBoundedStateCache:
    """The worker kernel-state cache is bounded by size units, not entries."""

    def test_evicts_least_recently_used_by_units(self):
        cache = BoundedStateCache(budget=10)
        for index in range(5):
            cache.put(index, object(), units=4)
        # 5 x 4 units against a budget of 10: the two newest remain.
        assert len(cache) == 2
        assert cache.units == 8
        assert cache.get(2) is None
        assert cache.get(3) is not None
        assert cache.get(4) is not None

    def test_many_tiny_entries_stay_resident(self):
        cache = BoundedStateCache(budget=1000)
        for index in range(500):
            cache.put(index, object(), units=2)
        assert len(cache) == 500
        cache.put(500, object(), units=2)
        assert len(cache) == 500
        assert cache.get(0) is None

    def test_get_refreshes_recency(self):
        cache = BoundedStateCache(budget=2)
        first, second, third = object(), object(), object()
        cache.put(1, first, units=1)
        cache.put(2, second, units=1)
        assert cache.get(1) is first  # refresh 1; 2 becomes LRU
        cache.put(3, third, units=1)
        assert cache.get(2) is None
        assert cache.get(1) is first

    def test_entry_larger_than_budget_is_admitted_alone(self):
        cache = BoundedStateCache(budget=10)
        small, giant = object(), object()
        cache.put(1, small, units=3)
        cache.put(2, giant, units=50)
        assert len(cache) == 1
        assert cache.units == 50
        assert cache.get(2) is giant
        cache.put(3, small, units=3)
        assert cache.get(2) is None
        assert cache.units == 3

    def test_replacing_an_entry_reweighs_it(self):
        cache = BoundedStateCache(budget=10)
        cache.put(1, object(), units=6)
        cache.put(1, object(), units=2)
        assert len(cache) == 1
        assert cache.units == 2

    def test_hits_and_misses_are_counted(self):
        cache = BoundedStateCache(budget=10)
        assert cache.get(1) is None
        cache.put(1, object(), units=1)
        cache.get(1)
        cache.get(1)
        assert (cache.hits, cache.misses) == (2, 1)

    def test_default_budget_is_the_module_constant(self):
        assert pool_module.WORKER_STATE_CACHE_UNITS >= 1
        assert BoundedStateCache().budget == pool_module.WORKER_STATE_CACHE_UNITS
