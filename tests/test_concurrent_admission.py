"""Submitted requests: served one at a time, each equal to its solo run.

The engine's serving contract (:mod:`repro.core.engine`): a blocking
``run_map`` / ``run_marginal`` is served on the caller's thread, and
``submit_map`` / ``submit_marginal`` futures are served in submission
order by one executor thread, each holding the session lock from setup
through merge.  Every request's MAP assignment, marginals, skipped set
and simulated accounting are bit-identical to running the same request
alone — checked across parallel backends and worker counts, with a
per-request deadline, across an evidence delta, and on the fault paths:
a failing request, a dying worker, ``close()`` with queued futures, and a
reply tagged for the wrong request — each on both request forms that
cross the pool, a MAP search and an MC-SAT sample request.  Every fault
test waits with a bound and checks that the shared-memory segments it
created are gone.
"""

import os
import threading
import time
from concurrent.futures import CancelledError

import pytest

from component_oracle import run_tasks, search_request, walksat_tasks
from repro.cli import main
from repro.core.config import InferenceConfig
from repro.core.engine import TuffyEngine
from repro.datasets import DatasetScale, load_dataset
from repro.grounding.clause_table import GroundClauseStore
from repro.inference.component_walksat import (
    ComponentAwareWalkSAT,
    ComponentSearchRequest,
)
from repro.inference.mcsat import ComponentSampleRequest, MCSat, MCSatOptions
from repro.inference.state import SearchState
from repro.inference.walksat import WalkSATOptions
from repro.mrf.graph import MRF
from repro.parallel import processes_available
from repro.parallel.buffers import ResultBufferSet
from repro.parallel.pool import SHIPPING_COUNTERS, Chunk, WorkerPool
from repro.parallel.scheduler import run_component_request
from repro.utils.rng import RandomSource

BACKENDS = [
    backend for backend in ("serial", "processes")
    if backend != "processes" or processes_available()
]
WORKER_COUNTS = (1, 2, 4)
needs_fork = pytest.mark.skipif(not processes_available(), reason="fork not available")

#: Upper bound on any single wait in the fault tests.
WAIT_SECONDS = 60.0


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
    # A warm request never pays *more* simulated I/O than its solo run —
    # the buffer cache can only absorb repeated scans.
    assert result.simulated_seconds <= reference.simulated_seconds, key


def _assert_same_marginal(result, reference, key=None):
    assert result.marginals.probabilities == reference.marginals.probabilities, key
    assert result.assignment == reference.assignment, key
    assert result.cost == reference.cost, key


@pytest.fixture
def shm_segments(monkeypatch):
    """Names of the shared-memory segments packed during the test.

    Recorded at pack time, so the check at teardown sees only this test's
    own segments, never another process's.
    """
    created = []
    pack = ResultBufferSet.pack

    def recording(*args, **kwargs):
        buffers = pack(*args, **kwargs)
        name = getattr(buffers._shm, "name", None)
        if name is not None:
            created.append(name)
        return buffers

    monkeypatch.setattr(ResultBufferSet, "pack", staticmethod(recording))
    yield created
    left = [name for name in created if os.path.exists(f"/dev/shm/{name}")]
    assert not left, f"shared-memory segments left behind: {left}"


#: The two request forms that cross the pool: the session verb that
#: submits one, and the request class whose chunks it ships.
FORMS = {
    "map": ("submit_map", ComponentSearchRequest),
    "marginal": ("submit_marginal", ComponentSampleRequest),
}


def _patch_run_chunk(monkeypatch, before, request_class=ComponentSearchRequest):
    """Call ``before(request)`` ahead of every chunk of ``request_class``.

    Patched on the class before any pool forks, so workers inherit it.
    """
    real = request_class.run_chunk

    def patched(self, indices, context, traced):
        before(self)
        return real(self, indices, context, traced)

    monkeypatch.setattr(request_class, "run_chunk", patched)


def _assert_same(form, result, reference, key=None):
    if form == "map":
        _assert_same_map(result, reference, key)
    else:
        _assert_same_marginal(result, reference, key)


class TestFifoParity:
    """K mixed submitted requests, each bit-equal to its solo run."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_mixed_submitted_requests_match_solo_runs(self, backend, workers):
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
            parallel_backend=backend, workers=workers,
        )) as engine:
            futures = [
                engine.submit_map(seed=0),
                engine.submit_map(seed=7),
                engine.submit_marginal(seed=3),
                engine.submit_map(seed=5, deadline_seconds=1e-9),
            ]
            got = [future.result(timeout=WAIT_SECONDS) for future in futures]
            assert engine.request_log()[-1]["request_id"] == 4

        key = (backend, workers)
        _assert_same_map(got[0], solo_map_0, key)
        _assert_same_map(got[1], solo_map_7, key)
        _assert_same_marginal(got[2], solo_marginal, key)
        _assert_same_map(got[3], solo_deadline, key)

    def test_repeat_submitted_batches_stay_warm(self):
        # Two consecutive batches: the second reuses grounding, components
        # and the pool, and still matches the solo run.
        solo = TuffyEngine(_program(), _config(workers=2)).run_map(seed=0)
        with TuffyEngine(_program(), _config(workers=2)) as engine:
            for _batch in range(2):
                futures = [engine.submit_map(seed=0) for _ in range(2)]
                for future in futures:
                    _assert_same_map(future.result(timeout=WAIT_SECONDS), solo)
            assert engine.stats.requests == 4
            assert engine.stats.ground_runs == 1
            assert engine.stats.pool_launches <= 1

    def test_requests_straddle_an_evidence_delta_in_call_order(self):
        # Requests finished before the delta see the old evidence; a
        # blocking and a submitted request after it both match a replayed
        # solo session, and the session re-grounds exactly once.
        replay = TuffyEngine(_delta_program(), _config(workers=2))
        before = replay.run_map(seed=0)
        replay.add_evidence("wrote", ("Jake", "P1"))
        expected = replay.run_map(seed=0)

        with TuffyEngine(_delta_program(), _config(workers=2)) as engine:
            futures = [engine.submit_map(seed=0) for _ in range(2)]
            for future in futures:
                _assert_same_map(future.result(timeout=WAIT_SECONDS), before)
            engine.add_evidence("wrote", ("Jake", "P1"))
            _assert_same_map(engine.run_map(seed=0), expected)
            _assert_same_map(
                engine.submit_map(seed=0).result(timeout=WAIT_SECONDS), expected
            )
            assert engine.stats.ground_runs == 2


class TestSessionGuards:
    """Lifecycle and accounting edges of the serving path."""

    def test_submit_after_close_raises(self):
        engine = TuffyEngine(_delta_program(), _config())
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.submit_map(seed=0)
        with pytest.raises(RuntimeError, match="closed"):
            engine.submit_marginal(seed=0)
        with pytest.raises(RuntimeError, match="closed"):
            engine.run_map(seed=0)

    def test_first_request_reports_component_detection_phase(self):
        # Component detection runs during the first request's setup — its
        # time must land in that request's report.
        with TuffyEngine(_program(), _config(workers=2)) as engine:
            result = engine.run_map(seed=0)
        assert "component_detection" in result.phase_seconds

    def test_blocking_request_runs_on_the_callers_thread(self, monkeypatch):
        threads = []
        _patch_run_chunk(monkeypatch, lambda request: threads.append(threading.get_ident()))
        with TuffyEngine(_program(), _config(parallel_backend="serial")) as engine:
            engine.run_map(seed=0)
            caller = len(threads)
            engine.submit_map(seed=0).result(timeout=WAIT_SECONDS)
        assert caller and set(threads[:caller]) == {threading.get_ident()}
        assert threading.get_ident() not in threads[caller:]

    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_close_finishes_running_request_and_cancels_queued_ones(
        self, form, monkeypatch
    ):
        entered = threading.Event()
        release = threading.Event()

        def hold_seed_zero(request):
            if request.seed == 0:
                entered.set()
                assert release.wait(WAIT_SECONDS)

        verb, request_class = FORMS[form]
        config = dict(parallel_backend="serial", mcsat_samples=5)
        with TuffyEngine(_program(), _config(**config)) as solo_engine:
            solo = getattr(solo_engine, verb)(seed=0).result(timeout=WAIT_SECONDS)
        _patch_run_chunk(monkeypatch, hold_seed_zero, request_class)
        engine = TuffyEngine(_program(), _config(**config))
        running = getattr(engine, verb)(seed=0)
        assert entered.wait(WAIT_SECONDS)
        # Submitting never waits for the running request.
        queued = [engine.submit_map(seed=7), engine.submit_marginal(seed=3)]
        assert not any(future.done() for future in queued)

        closer = threading.Thread(target=engine.close)
        closer.start()
        deadline = time.monotonic() + WAIT_SECONDS
        while not all(future.cancelled() for future in queued):
            assert time.monotonic() < deadline, "close() did not cancel queued requests"
            time.sleep(0.01)
        assert not running.done()
        release.set()
        closer.join(WAIT_SECONDS)
        assert not closer.is_alive(), "close() hung"

        _assert_same(form, running.result(timeout=WAIT_SECONDS), solo)
        for future in queued:
            with pytest.raises(CancelledError):
                future.result(timeout=WAIT_SECONDS)
        with pytest.raises(RuntimeError, match="closed"):
            engine.submit_map(seed=0)

    @needs_fork
    def test_mismatched_pool_is_shut_down_before_the_next_fork(
        self, monkeypatch, shm_segments
    ):
        # A request over a different component list replaces the pool:
        # the old one is shut down (workers joined, segment unlinked)
        # before the new one forks, and a matching request reuses it.
        events = []
        fork, shutdown = WorkerPool.__init__, WorkerPool.shutdown

        def recording_fork(pool, components, *args, **kwargs):
            fork(pool, components, *args, **kwargs)
            events.append(("forked", len(components)))

        def recording_shutdown(pool):
            if not pool._closed:
                events.append(("shutdown", len(pool._components)))
            shutdown(pool)

        monkeypatch.setattr(WorkerPool, "__init__", recording_fork)
        monkeypatch.setattr(WorkerPool, "shutdown", recording_shutdown)
        first, second = imbalanced_components(), imbalanced_components()[:4]
        with TuffyEngine(_delta_program(), _config(
            parallel_backend="processes", workers=2,
        )) as engine:
            old = engine._pool_for(first)
            new = engine._pool_for(second)
            assert new is not old and new.matches(second)
            assert old._closed and not old.matches(first)
            assert not os.path.exists(f"/dev/shm/{shm_segments[0]}")
            assert engine._pool_for(second) is new
            assert engine.stats.pool_launches == 2
        assert events == [
            ("forked", 6), ("shutdown", 6), ("forked", 4), ("shutdown", 4),
        ]


class TestFaultPaths:
    """A fault fails exactly its own request; later requests are clean."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_failing_request_fails_only_its_future(
        self, backend, form, monkeypatch, shm_segments
    ):
        def fail_seed_13(request):
            if request.seed == 13:
                raise ValueError("injected kernel failure")

        verb, request_class = FORMS[form]
        config = dict(parallel_backend=backend, workers=2, mcsat_samples=5)
        solo = {}
        for seed in (0, 7):
            with TuffyEngine(_program(), _config(**config)) as engine:
                solo[seed] = getattr(engine, verb)(seed=seed).result(timeout=WAIT_SECONDS)
        _patch_run_chunk(monkeypatch, fail_seed_13, request_class)
        with TuffyEngine(_program(), _config(**config)) as engine:
            submit = getattr(engine, verb)
            futures = [submit(seed=0), submit(seed=13), submit(seed=7)]
            _assert_same(form, futures[0].result(timeout=WAIT_SECONDS), solo[0])
            with pytest.raises((RuntimeError, ValueError), match="injected kernel failure"):
                futures[1].result(timeout=WAIT_SECONDS)
            _assert_same(form, futures[2].result(timeout=WAIT_SECONDS), solo[7])
            if backend == "processes":
                # The failed request shut its pool down; the request behind
                # it ran on a freshly forked one.
                assert engine.stats.pool_launches == 2
            assert engine.stats.requests == 3

    @needs_fork
    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_dead_worker_fails_only_its_request(self, form, monkeypatch, shm_segments):
        # A worker that exits without replying (as after an OOM kill) is
        # found by the timed wait for its reply: only that request fails,
        # and the one behind it runs on a freshly forked pool.
        def exit_on_seed_13(request):
            if request.seed == 13:
                os._exit(3)

        verb, request_class = FORMS[form]
        config = dict(parallel_backend="processes", workers=2, mcsat_samples=5)
        with TuffyEngine(_program(), _config(**config)) as engine:
            solo = getattr(engine, verb)(seed=7).result(timeout=WAIT_SECONDS)
        _patch_run_chunk(monkeypatch, exit_on_seed_13, request_class)
        with TuffyEngine(_program(), _config(**config)) as engine:
            failing = getattr(engine, verb)(seed=13)
            behind = getattr(engine, verb)(seed=7)
            with pytest.raises(RuntimeError, match="died before replying"):
                failing.result(timeout=WAIT_SECONDS)
            _assert_same(form, behind.result(timeout=WAIT_SECONDS), solo)
            assert engine.stats.pool_launches == 2
            assert engine.stats.requests == 2

    @needs_fork
    @pytest.mark.parametrize("path", ("sample", "search"))
    def test_reply_tagged_for_another_request_raises(self, path, shm_segments):
        components = imbalanced_components()
        with WorkerPool(components, 2) as pool:
            # A reply left behind by request 99, ahead of request 1's own.
            pool._results.put((99, 0, None, 0, 0))
            started = time.monotonic()
            with pytest.raises(RuntimeError, match="tagged for request 99"):
                if path == "sample":
                    MCSat(MCSatOptions(samples=4, burn_in=1), RandomSource(7)).run_components(
                        components, parallel_backend="processes", workers=2,
                        pool=pool, request_id=1,
                    )
                else:
                    ComponentAwareWalkSAT(
                        WalkSATOptions(max_flips=400), RandomSource(7), workers=2,
                        parallel_backend="processes",
                    ).run(components, pool=pool, request_id=1)
            assert time.monotonic() - started < WAIT_SECONDS
            # The stale reply was never consumed as a result: the pool is
            # shut down and matches nothing, so its owner forks afresh.
            assert not pool.matches(components)
        assert len(shm_segments) == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_deadline_zero_on_a_warm_session_sends_no_chunk(self, backend, shm_segments):
        # Every component gets its placeholder (the reset state, 0 flips)
        # without a chunk leaving the parent, the pool's segment stays as
        # it was, and the next request is a fresh session's, bit for bit.
        config = dict(parallel_backend=backend, workers=2)
        with TuffyEngine(_program(), _config(**config)) as fresh:
            want = fresh.run_map(seed=7)
        packed = len(shm_segments)
        with TuffyEngine(_program(), _config(**config)) as engine:
            engine.run_map(seed=0)  # warm: grounding, components and pool
            segments = list(shm_segments)
            counters = engine.metrics_snapshot().as_dict()["counters"]
            before = (counters["scheduler.chunks_dispatched"], counters["scheduler.tasks_executed"])
            result = engine.run_map(seed=5, deadline_seconds=0.0)
            counters = engine.metrics_snapshot().as_dict()["counters"]
            after = (counters["scheduler.chunks_dispatched"], counters["scheduler.tasks_executed"])
            assert after == before
            assert result.flips == 0
            for component in engine.detect_components().components:
                for atom, value in SearchState(component).assignment_dict().items():
                    assert result.assignment[atom] == value
            assert shm_segments == segments
            assert all(os.path.exists(f"/dev/shm/{name}") for name in segments[packed:])
            _assert_same_map(engine.run_map(seed=7), want)

    @needs_fork
    def test_failed_pool_allocation_fails_only_its_request(
        self, monkeypatch, shm_segments
    ):
        # The pool's shared-memory allocation fails (say, /dev/shm is full)
        # inside ``_pool_for``: the request raises on its own call or
        # future, no segment leaks, the engine holds no pool, and the
        # request behind it forks a fresh one.
        config = dict(parallel_backend="processes", workers=2)
        fact = ("wrote", ("Jake", "P1"))
        with TuffyEngine(_delta_program(), _config(**config)) as replay:
            replay.run_map(seed=0)
            replay.add_evidence(*fact)
            want = replay.run_map(seed=7)
        failures = []
        pack = ResultBufferSet.pack

        def failing_pack(*args, **kwargs):
            if failures:
                failures.pop()
                raise OSError(28, "No space left on device")
            return pack(*args, **kwargs)

        monkeypatch.setattr(ResultBufferSet, "pack", staticmethod(failing_pack))
        with TuffyEngine(_delta_program(), _config(**config)) as engine:
            engine.run_map(seed=0)  # the first pool
            engine.add_evidence(*fact)  # the delta tears it down
            failures.extend(["call", "future"])
            with pytest.raises(OSError, match="No space left"):
                engine.run_map(seed=7)
            assert engine._pool_holder["pool"] is None
            futures = [engine.submit_map(seed=7), engine.submit_map(seed=7)]
            with pytest.raises(OSError, match="No space left"):
                futures[0].result(timeout=WAIT_SECONDS)
            _assert_same_map(futures[1].result(timeout=WAIT_SECONDS), want)
            assert engine.stats.pool_launches == 2
            assert engine.stats.requests == 4

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_evidence_added_behind_a_running_request_reaches_the_queued_one(
        self, backend, monkeypatch, shm_segments
    ):
        # ``add_evidence`` is called while request 1 runs and request 2 is
        # queued: it waits for request 1, and request 2 — started only once
        # the call holds the lock — grounds the new fact.
        config = dict(parallel_backend=backend, workers=2)
        fact = ("wrote", ("Jake", "P1"))
        with TuffyEngine(_delta_program(), _config(**config)) as replay:
            before = replay.run_map(seed=0)
            replay.add_evidence(*fact)
            want = replay.run_map(seed=7)

        engine = TuffyEngine(_delta_program(), _config(**config))
        running, release, adding = threading.Event(), threading.Event(), threading.Event()
        finish, serve, add = engine._finish, engine._serve, engine.program.add_evidence

        def held_finish(request, grounding, found):
            if request.request_id == 1:
                running.set()
                assert release.wait(WAIT_SECONDS)
            return finish(request, grounding, found)

        def gated_serve(kind, seed, *rest):
            if seed == 7:
                assert adding.wait(WAIT_SECONDS)
            return serve(kind, seed, *rest)

        def recording_add(*args, **kwargs):
            adding.set()
            return add(*args, **kwargs)

        monkeypatch.setattr(engine, "_finish", held_finish)
        monkeypatch.setattr(engine, "_serve", gated_serve)
        monkeypatch.setattr(engine.program, "add_evidence", recording_add)
        with engine:
            first = engine.submit_map(seed=0)
            assert running.wait(WAIT_SECONDS)
            queued = engine.submit_map(seed=7)
            adder = threading.Thread(target=engine.add_evidence, args=fact)
            adder.start()
            # The call waits for the running request.
            assert not adding.wait(0.05)
            release.set()
            adder.join(WAIT_SECONDS)
            assert not adder.is_alive(), "add_evidence hung"
            _assert_same_map(first.result(timeout=WAIT_SECONDS), before)
            _assert_same_map(queued.result(timeout=WAIT_SECONDS), want)
            assert engine.stats.ground_runs == 2

    @needs_fork
    def test_request_leaving_chunks_in_flight_shuts_its_pool_down(self, shm_segments):
        # Every result rides the reply pickled (no trace fits a region),
        # so the one unread reply is larger than a pipe holds.
        components = [
            conflicted_chain(400, first_atom=1 + 1000 * index) for index in range(60)
        ]
        with WorkerPool(components, 1, trace_capacity=0) as pool:
            pool.submit(
                Chunk(0, list(range(len(components))), search_request(components, 7, 20))
            )
            deadline = time.monotonic() + WAIT_SECONDS
            while pool._results.empty():
                assert time.monotonic() < deadline, "the worker never replied"
                time.sleep(0.01)
            # The request ends (say, its parent thread raised) without
            # reading the reply: the pool shuts down rather than hand the
            # reply to the next request, and its worker exits regardless.
            closer = threading.Thread(target=pool.finish_request, daemon=True)
            closer.start()
            closer.join(WAIT_SECONDS)
            assert not closer.is_alive(), "shutting the pool down hung"
            assert not pool.matches(components)
        assert len(shm_segments) == 1


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


def run(components, backend, workers=2, **kwargs):
    """A chunked search request: 400 flips per component on seed 7's streams."""
    return run_component_request(
        components, search_request(components, 7, 400), backend, workers=workers,
        **kwargs,
    )


def shipped_by(pool, action):
    """``action()``'s result and its ``(shm, pickle, shm bytes)`` on ``pool``."""
    before = pool.metrics.counters(SHIPPING_COUNTERS)
    result = action()
    after = pool.metrics.counters(SHIPPING_COUNTERS)
    return result, tuple(int(a - b) for a, b in zip(after, before))


def oracle_run(components):
    """The per-component task oracle of :func:`run`."""
    tasks = walksat_tasks(components, 7, 400)
    for task in tasks:
        task.walksat.trace_label = f"component-{task.index}"
    return run_tasks(components, tasks)


def result_fields(result):
    return (
        result.best_assignment,
        result.best_cost,
        result.flips,
        result.tries,
        result.trace.label,
        [(p.time, p.cost, p.flips) for p in result.trace.points],
    )


@needs_fork
class TestSharedPoolRequests:
    """Consecutive requests on one warm pool, each equal to its solo run."""

    def test_chunked_requests_back_to_back_match_solo(self):
        # Enough components that each request travels in multi-task chunks.
        components = [
            conflicted_chain(2 + index % 5, first_atom=1 + 100 * index)
            for index in range(40)
        ]
        reference = oracle_run(components)
        with WorkerPool(components, 2) as pool:
            outcomes = {
                request_id: shipped_by(pool, lambda: run(
                    components, "processes", pool=pool, request_id=request_id
                ))
                for request_id in (1, 2)
            }
            counters = pool.metrics.as_dict()["counters"]
            assert pool._pending == 0
        assert counters["pool.shm_shipped"] == 2 * len(components)
        for request_id, (outcome, shipped) in outcomes.items():
            assert outcome.dispatch_order == reference.dispatch_order
            for got, want in zip(outcome.results.results(), reference.results):
                assert result_fields(got) == result_fields(want), request_id
            assert shipped[:2] == (len(components), 0), request_id
            assert sum(outcome.worker_task_counts.values()) == len(components)

    def test_warm_sequential_requests_report_per_request_shipping(self):
        # Regression for the stale-telemetry bug: the second warm request
        # used to report the pool-lifetime cumulative counters.  Each
        # request's share is the registry delta over its own call.
        components = imbalanced_components()
        with WorkerPool(components, 2) as pool:
            for request_id in (1, 2):
                outcome, shipped = shipped_by(pool, lambda: run(
                    components, "processes", pool=pool, request_id=request_id
                ))
                assert shipped[:2] == (len(components), 0), request_id
                assert (
                    sum(outcome.worker_task_counts.values()) == len(components)
                ), request_id
            # The pool's counters do accumulate.
            assert pool.metrics.counter("pool.shm_shipped") == 2 * len(components)

    def test_back_to_back_requests_with_stalled_worker(self):
        # A slow worker changes which worker runs what, never the results.
        components = imbalanced_components()
        reference = oracle_run(components)
        with WorkerPool(components, 2, stall_worker=(0, 0.02)) as pool:
            for request_id in (1, 2):
                outcome, shipped = shipped_by(pool, lambda: run(
                    components, "processes", pool=pool, request_id=request_id
                ))
                for got, want in zip(outcome.results.results(), reference.results):
                    assert result_fields(got) == result_fields(want), request_id
                assert shipped[:2] == (len(components), 0), request_id
                assert outcome.executed == len(components), request_id


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
        assert "FIFO, one at a time" in captured
