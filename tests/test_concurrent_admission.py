"""Concurrent request admission: interleaved requests equal their solo runs.

The session's concurrency contract (:mod:`repro.core.session`): up to
``max_inflight_requests`` submitted requests run interleaved over the
shared session state — persistent pool, shared-memory result banks,
grounding caches, kernel-state lease — and every request's MAP
assignment, marginals, skipped set and telemetry are bit-identical to
running the same request alone.  Checked across parallel backends and
worker counts, including a per-request deadline and
an injected slow worker (the ``stall_worker`` hook) forcing maximal
interleaving skew on a shared pool.
"""

import threading

import pytest

from repro.cli import main
from repro.core.config import InferenceConfig
from repro.core.engine import TuffyEngine
from repro.datasets import DatasetScale, load_dataset
from repro.grounding.clause_table import GroundClauseStore
from repro.inference.walksat import WalkSATOptions
from repro.mrf.graph import MRF
from repro.parallel import processes_available
from repro.parallel.pool import ComponentTask, WorkerPool
from repro.parallel.scheduler import run_component_tasks
from repro.utils.rng import RandomSource

BACKENDS = [
    backend for backend in ("serial", "processes")
    if backend != "processes" or processes_available()
]
WORKER_COUNTS = (1, 2, 4)


def _program():
    return load_dataset("RC", DatasetScale(factor=0.25, seed=0)).program


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


def _delta_program():
    from repro.core.program import MLNProgram

    program = MLNProgram.from_text(PROGRAM_TEXT, EVIDENCE_TEXT)
    program.add_constants("category", ["DB", "AI", "Networking"])
    return program


def _config(**overrides):
    defaults = dict(seed=0, max_flips=1500, mcsat_samples=20)
    defaults.update(overrides)
    return InferenceConfig(**defaults)


def _assert_same_map(result, reference, key=None):
    assert result.assignment == reference.assignment, key
    assert result.cost == reference.cost, key
    assert result.flips == reference.flips, key
    assert result.component_count == reference.component_count, key
    # An interleaved request never pays *more* simulated I/O than its solo
    # run — concurrent setup is serialized and the buffer cache can only
    # absorb repeated scans.
    assert result.simulated_seconds <= reference.simulated_seconds, key


def _assert_same_marginal(result, reference, key=None):
    assert result.marginals.probabilities == reference.marginals.probabilities, key
    assert result.assignment == reference.assignment, key
    assert result.cost == reference.cost, key


class TestConcurrentAdmissionParity:
    """K mixed in-flight requests, each bit-equal to its solo run."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_mixed_inflight_requests_match_solo_runs(self, backend, workers):
        solo_map_0 = TuffyEngine(_program(), _config(
            parallel_backend=backend, workers=workers)).run_map(seed=0)
        solo_map_7 = TuffyEngine(_program(), _config(
            parallel_backend=backend, workers=workers)).run_map(seed=7)
        solo_marginal = TuffyEngine(_program(), _config(
            parallel_backend=backend, workers=workers)).run_marginal(seed=3)
        solo_deadline = TuffyEngine(_program(), _config(
            parallel_backend=backend, workers=workers)).run_map(
            seed=5, deadline_seconds=1e-9)

        with TuffyEngine(_program(), _config(
            parallel_backend=backend, workers=workers, max_inflight_requests=4,
        )) as engine:
            futures = [
                engine.submit_map(seed=0),
                engine.submit_map(seed=7),
                engine.submit_marginal(seed=3),
                engine.submit_map(seed=5, deadline_seconds=1e-9),
            ]
            got = [future.result() for future in futures]

        key = (backend, workers)
        _assert_same_map(got[0], solo_map_0, key)
        _assert_same_map(got[1], solo_map_7, key)
        _assert_same_marginal(got[2], solo_marginal, key)
        _assert_same_map(got[3], solo_deadline, key)

    def test_repeat_interleaved_batches_stay_warm(self):
        # Two consecutive concurrent batches: the second reuses grounding,
        # components and leased states, and still matches the solo run.
        solo = TuffyEngine(_program(), _config(workers=2)).run_map(seed=0)
        with TuffyEngine(_program(), _config(
            workers=2, max_inflight_requests=2,
        )) as engine:
            for _batch in range(2):
                futures = [engine.submit_map(seed=0) for _ in range(2)]
                for future in futures:
                    _assert_same_map(future.result(), solo)
            assert engine.stats.requests == 4
            assert engine.stats.ground_runs == 1

    def test_interleaved_requests_straddle_an_evidence_delta(self):
        # A delta between two batches drains in-flight requests, re-grounds
        # once, and the next batch matches a replayed solo session.
        replay = TuffyEngine(_delta_program(), _config(workers=2))
        replay.run_map(seed=0)
        replay.add_evidence("wrote", ("Jake", "P1"))
        expected = replay.run_map(seed=0)

        with TuffyEngine(_delta_program(), _config(
            workers=2, max_inflight_requests=2,
        )) as engine:
            futures = [engine.submit_map(seed=0) for _ in range(2)]
            for future in futures:
                future.result()
            engine.add_evidence("wrote", ("Jake", "P1"))
            futures = [engine.submit_map(seed=0) for _ in range(2)]
            for future in futures:
                _assert_same_map(future.result(), expected)
            assert engine.stats.ground_runs == 2


class TestSessionGuards:
    """Lifecycle and accounting edges of the admission path."""

    def test_submit_after_close_raises(self):
        engine = TuffyEngine(_delta_program(), _config())
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.submit_map(seed=0)
        with pytest.raises(RuntimeError, match="closed"):
            engine.submit_marginal(seed=0)

    def test_first_request_reports_component_detection_phase(self):
        # Component detection runs during the first request's setup, after
        # admission — its time must still land in that request's report.
        with TuffyEngine(_program(), _config(workers=2)) as engine:
            result = engine.run_map(seed=0)
        assert "component_detection" in result.phase_seconds

    def test_mismatched_pool_teardown_waits_for_inflight_searches(self, monkeypatch):
        # Regression: _pool_for used to shut a mismatched pool down while
        # another admitted request was still draining its shared-memory
        # result regions.  The teardown must wait for the drain.
        from repro.core import session as session_module
        from repro.core.session import EngineSession

        session = EngineSession(_delta_program(), _config(
            parallel_backend="processes", workers=2))
        events = []

        class OldPool:
            def matches(self, components):
                return False

            def shutdown(self):
                events.append(("shutdown", session._active_searches))

        class FreshPool:
            def __init__(self, components, workers, result_banks=1, metrics=None):
                events.append(("forked", len(components)))

            def shutdown(self):
                pass

        monkeypatch.setattr(session_module, "WorkerPool", FreshPool)
        monkeypatch.setattr(
            session_module, "resolve_parallel_backend", lambda *a, **k: "processes"
        )
        session._pool_holder["pool"] = OldPool()
        session._enter_search()  # a concurrent request mid-search

        done = threading.Event()

        def swap_pool():
            session._pool_for([object(), object()])
            done.set()

        thread = threading.Thread(target=swap_pool)
        thread.start()
        try:
            assert not done.wait(0.2), "teardown did not wait for the drain"
            assert events == []
        finally:
            session._finish_request(None)
            thread.join(timeout=5.0)
        assert done.is_set()
        assert events == [("shutdown", 0), ("forked", 2)]


def conflicted_chain(n_atoms, first_atom=1, weight=1.0):
    """A chain component that never reaches zero cost (predictable flips)."""
    store = GroundClauseStore()
    atoms = list(range(first_atom, first_atom + n_atoms))
    for left, right in zip(atoms, atoms[1:]):
        store.add((left, right), weight)
    for atom in atoms:
        store.add((atom,), weight)
        store.add((-atom,), weight * 0.8)
    return MRF.from_store(store)


def imbalanced_components():
    sizes = [14, 3, 3, 2, 2, 2]
    components = []
    base = 1
    for size in sizes:
        components.append(conflicted_chain(size, first_atom=base))
        base += 1000
    return components


def walksat_tasks(components, flips=400):
    rng = RandomSource(7)
    return [
        ComponentTask(
            index=index,
            kind="walksat",
            seed=rng.spawn(index + 1).seed,
            walksat=WalkSATOptions(max_flips=flips, trace_label=f"component-{index}"),
        )
        for index in range(len(components))
    ]


def result_fields(result):
    return (
        result.best_assignment,
        result.best_cost,
        result.flips,
        result.tries,
        result.trace.label,
        [(p.time, p.cost, p.flips) for p in result.trace.points],
    )


@pytest.mark.skipif(not processes_available(), reason="fork not available")
class TestSharedPoolMultiplexing:
    """Two requests drive one pool at once; tokens route per request."""

    def _drive_concurrently(self, pool, components, request_ids):
        reference = run_component_tasks(
            components, walksat_tasks(components), backend="serial", workers=1
        )
        outcomes = {}
        errors = []

        def drive(request_id):
            try:
                outcomes[request_id] = run_component_tasks(
                    components,
                    walksat_tasks(components),
                    backend="processes",
                    workers=2,
                    pool=pool,
                    request_id=request_id,
                )
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=drive, args=(request_id,))
            for request_id in request_ids
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        return reference, outcomes

    def test_interleaved_requests_with_stalled_worker(self):
        components = imbalanced_components()
        with WorkerPool(
            components, 2, stall_worker=(0, 0.02), result_banks=2
        ) as pool:
            reference, outcomes = self._drive_concurrently(
                pool, components, (1, 2)
            )
        for request_id, outcome in outcomes.items():
            for got, want in zip(outcome.results, reference.results):
                assert result_fields(got) == result_fields(want), request_id
            # Shipping counters are attributed per request, not cumulative
            # across the pool's lifetime.
            assert outcome.shm_shipped == len(components), request_id
            assert outcome.pickle_shipped == 0, request_id
            assert outcome.executed == len(components), request_id

    def test_bank_exhaustion_falls_back_to_pickle(self):
        # One result bank, two in-flight requests: whichever request misses
        # the bank ships every result through the pickled queue — slower,
        # never wrong.
        components = imbalanced_components()
        with WorkerPool(components, 2, result_banks=1) as pool:
            reference, outcomes = self._drive_concurrently(
                pool, components, (1, 2)
            )
        shipped = []
        for request_id, outcome in outcomes.items():
            for got, want in zip(outcome.results, reference.results):
                assert result_fields(got) == result_fields(want), request_id
            assert (
                outcome.shm_shipped + outcome.pickle_shipped == len(components)
            ), request_id
            shipped.append((outcome.shm_shipped, outcome.pickle_shipped))
        total_shm = sum(shm for shm, _pickled in shipped)
        total_pickled = sum(pickled for _shm, pickled in shipped)
        assert total_shm + total_pickled == 2 * len(components)

    def test_other_requests_chunk_message_is_parked_as_a_block(self):
        # One worker, so completion messages arrive in submission order:
        # request 1's chunk answers first, and the thread draining request
        # 2 is the one that reads it — the whole block is parked for its
        # owner, who then collects it without touching the queue.
        components = imbalanced_components()
        reference = run_component_tasks(
            components, walksat_tasks(components), backend="serial", workers=1
        )
        chunks = {}
        for request_id in (1, 2):
            chunks[request_id] = walksat_tasks(components)
            for task in chunks[request_id]:
                task.request_id = request_id
        with WorkerPool(components, 1, result_banks=2) as pool:
            pool.submit_chunk(chunks[1])
            pool.submit_chunk(chunks[2][:4])
            pool.submit_chunk(chunks[2][4:])
            counters = lambda: pool.metrics.as_dict()["counters"]
            first, _worker = pool.next_outcome(2)
            assert counters()["pool.parked_tokens"] == len(components)
            assert len(pool._ready[1]) == len(components)
            assert first.index == 0
            # Request 1 collects its parked block while request 2's second
            # chunk message is still on the queue (or not even produced).
            got = {}
            for _ in components:
                outcome, _worker = pool.next_outcome(1)
                got[outcome.index] = outcome
            assert sorted(got) == list(range(len(components)))
            for index, want in enumerate(reference.results):
                assert result_fields(got[index].result) == result_fields(want)
            assert counters()["pool.parked_tokens"] == len(components)
            # Request 2's own messages are queued locally, never "parked".
            rest = [pool.next_outcome(2)[0].index for _ in components[1:]]
            assert rest == [1, 2, 3, 4, 5]
            assert counters()["pool.parked_tokens"] == len(components)
            assert pool.finish_request(1)[0] == len(components)
            assert pool.finish_request(2)[0] == len(components)
            assert pool._inflight == {} and pool._ready == {}

    def test_interleaved_chunked_requests_match_solo(self):
        # Enough components that each request travels in multi-task
        # chunks; two threads drain one pool, parking each other's blocks.
        components = [
            conflicted_chain(2 + index % 5, first_atom=1 + 100 * index)
            for index in range(40)
        ]
        with WorkerPool(components, 2, result_banks=2) as pool:
            reference, outcomes = self._drive_concurrently(
                pool, components, (1, 2)
            )
            counters = pool.metrics.as_dict()["counters"]
            assert pool._inflight == {} and pool._ready == {}
        assert counters["pool.shm_shipped"] == 2 * len(components)
        for request_id, outcome in outcomes.items():
            assert outcome.dispatch_order == reference.dispatch_order
            for got, want in zip(outcome.results, reference.results):
                assert result_fields(got) == result_fields(want), request_id
            assert outcome.shm_shipped == len(components), request_id
            assert sum(outcome.worker_task_counts.values()) == len(components)

    def test_shm_token_without_inflight_record_raises(self):
        # Regression: a shm completion token with no in-flight record used
        # to default to bank 0 — another request's live result region.
        components = [conflicted_chain(3)]
        with WorkerPool(components, 1) as pool:
            task = walksat_tasks(components)[0]
            pool.submit_chunk([task])
            with pool._route_lock:
                pool._inflight.clear()
            with pytest.raises(RuntimeError, match="no in-flight task record"):
                pool.next_outcome(task.request_id)

    def test_warm_sequential_requests_report_per_request_shipping(self):
        # Regression for the stale-telemetry bug: the second warm request
        # used to report the pool-lifetime cumulative counters.
        components = imbalanced_components()
        with WorkerPool(components, 2, result_banks=1) as pool:
            for request_id in (1, 2):
                outcome = run_component_tasks(
                    components,
                    walksat_tasks(components),
                    backend="processes",
                    workers=2,
                    pool=pool,
                    request_id=request_id,
                )
                assert outcome.shm_shipped == len(components), request_id
                assert outcome.pickle_shipped == 0, request_id
                assert (
                    sum(outcome.worker_task_counts.values()) == len(components)
                ), request_id
            # The pool-lifetime counters do accumulate.
            assert pool.shm_shipped == 2 * len(components)


class TestConcurrentCLI:
    def test_session_concurrent_prints_aggregate_throughput(self, capsys):
        status = main([
            "dataset", "RC", "--scale", "0.2", "--max-flips", "500",
            "--session-requests", "3", "--session-concurrent", "3",
        ])
        captured = capsys.readouterr().out
        assert status == 0
        assert "# session (concurrent)" in captured
        assert "aggregate req/sec" in captured
        assert "in-flight" in captured
