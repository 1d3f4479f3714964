"""Parallel-backend parity: results must not depend on the vehicle.

The determinism contract of ``repro.parallel`` (see its module docstring):
per-component RNG streams derive only from the run seed and the component
index, and merges happen in component order — so MAP best assignments and
MC-SAT marginals are **bit-for-bit identical** across the
``serial``/``processes`` backends and across worker counts (1, 2, 4), on
example1, RC and IE — with and without a deadline (whose skipped set is
post-hoc bookkeeping, independent of backend and workers).  The backend
is purely a wall-clock decision.
"""

import pytest

from repro.core.config import InferenceConfig
from repro.core.engine import TuffyEngine
from repro.datasets import DatasetScale, load_dataset
from repro.datasets.example1 import example1_mrf
from repro.inference.component_walksat import ComponentAwareWalkSAT
from repro.inference.mcsat import MCSat, MCSatOptions
from repro.inference.walksat import WalkSATOptions
from repro.mrf.components import connected_components
from repro.obs.metrics import MetricsRegistry
from repro.parallel import (
    PARALLEL_BACKENDS,
    available_parallel_backends,
    processes_available,
    resolve_parallel_backend,
)
from repro.parallel.pool import ComponentOutcome, ComponentTask
from repro.parallel.scheduler import (
    chunk_boundaries,
    dispatch_order,
    run_component_tasks,
    task_work,
)
from repro.utils.rng import RandomSource

BACKENDS = [
    backend for backend in ("serial", "processes")
    if backend != "processes" or processes_available()
]
WORKER_COUNTS = (1, 2, 4)


def _dataset_components(name: str, factor: float):
    dataset = load_dataset(name, DatasetScale(factor=factor, seed=0))
    engine = TuffyEngine(dataset.program, InferenceConfig(seed=0))
    return engine.detect_components().components


@pytest.fixture(scope="module")
def workloads():
    return {
        "example1": connected_components(example1_mrf(10)).components,
        "RC": _dataset_components("RC", 0.25),
        "IE": _dataset_components("IE", 0.2),
    }


class TestMapParity:
    @pytest.mark.parametrize("workload", ("example1", "RC", "IE"))
    def test_best_assignment_bit_identical(self, workloads, workload):
        components = workloads[workload]
        assert len(components) > 1
        reference = ComponentAwareWalkSAT(
            WalkSATOptions(max_flips=2000),
            RandomSource(0),
            parallel_backend="serial",
        ).run(components, total_flips=2000)
        for backend in BACKENDS:
            for workers in WORKER_COUNTS:
                result = ComponentAwareWalkSAT(
                    WalkSATOptions(max_flips=2000),
                    RandomSource(0),
                    workers=workers,
                    parallel_backend=backend,
                ).run(components, total_flips=2000)
                key = (workload, backend, workers)
                assert result.best_assignment == reference.best_assignment, key
                assert result.best_cost == reference.best_cost, key
                assert result.flips == reference.flips, key
                # Per-component outcomes agree too (not just the merge).
                assert [r.best_cost for r in result.component_results] == [
                    r.best_cost for r in reference.component_results
                ], key
                # The deterministic simulated accounting is also identical.
                assert result.simulated_seconds == reference.simulated_seconds, key

    @pytest.mark.parametrize("workload", ("example1", "RC"))
    @pytest.mark.parametrize("deadline", (None, 1e-9))
    def test_deadline_runs_bit_identical(self, workloads, workload, deadline):
        components = workloads[workload]
        reference = ComponentAwareWalkSAT(
            WalkSATOptions(max_flips=2000, deadline_seconds=deadline),
            RandomSource(0),
            parallel_backend="serial",
        ).run(components, total_flips=2000)
        for backend in BACKENDS:
            for workers in WORKER_COUNTS:
                result = ComponentAwareWalkSAT(
                    WalkSATOptions(max_flips=2000, deadline_seconds=deadline),
                    RandomSource(0),
                    workers=workers,
                    parallel_backend=backend,
                ).run(components, total_flips=2000)
                key = (workload, backend, workers, deadline)
                assert result.best_assignment == reference.best_assignment, key
                assert result.best_cost == reference.best_cost, key
                assert result.flips == reference.flips, key
                assert result.skipped_components == reference.skipped_components, key

    def test_engine_map_parity_across_backends(self):
        results = {}
        for backend in BACKENDS:
            dataset = load_dataset("IE", DatasetScale(factor=0.15, seed=0))
            engine = TuffyEngine(
                dataset.program,
                InferenceConfig(
                    seed=0, max_flips=1500, workers=2, parallel_backend=backend
                ),
            )
            outcome = engine.run_map()
            results[backend] = (outcome.assignment, outcome.cost, outcome.flips)
        reference = results["serial"]
        for backend, payload in results.items():
            assert payload == reference, backend


def _walksat_tasks(components, flips=300):
    rng = RandomSource(11)
    return [
        ComponentTask(
            index=index,
            kind="walksat",
            seed=rng.spawn(index + 1).seed,
            walksat=WalkSATOptions(max_flips=flips, trace_label=f"component-{index}"),
        )
        for index in range(len(components))
    ]


def _result_fields(result):
    """Everything deterministic about a WalkSATResult (``seconds`` is wall)."""
    return (
        result.best_assignment,
        result.best_cost,
        result.flips,
        result.tries,
        result.reached_target,
        result.hitting_time,
        result.trace.label,
        [(p.time, p.cost, p.flips) for p in result.trace.points],
    )


@pytest.mark.skipif(not processes_available(), reason="fork start method unavailable")
class TestChunkedDispatchParity:
    """Chunked pool dispatch == the serial executable specification.

    Bit-for-bit — assignments, costs, flips, traces, ``dispatch_order``,
    ``skipped`` and the simulated accounting — on example1, RC and IE,
    at 1/2/4 workers, with and without a deadline that falls inside the
    run (the no-deadline runs travel in multi-task chunks, the deadline
    runs in single-task chunks through the same loop).
    """

    @pytest.mark.parametrize("workload", ("example1", "RC", "IE"))
    @pytest.mark.parametrize("with_deadline", (False, True))
    def test_chunked_equals_serial(self, workloads, workload, with_deadline):
        from repro.inference.state import SearchState
        from repro.inference.walksat import WalkSATResult

        components = workloads[workload]

        def placeholder(index):
            state = SearchState(components[index])
            result = WalkSATResult(
                best_assignment=state.assignment_dict(), best_cost=state.cost,
                flips=0, tries=0, seconds=0.0,
            )
            return ComponentOutcome(index, result, 0.0)

        def run(backend, workers, deadline, metrics=None):
            return run_component_tasks(
                components, _walksat_tasks(components), backend=backend,
                workers=workers, deadline_seconds=deadline,
                placeholder=placeholder, metrics=metrics,
            )

        full = run("serial", 1, None)
        order = dispatch_order(components)
        assert full.dispatch_order == order
        deadline = None
        if with_deadline:
            # Half of the full run's simulated spend: a cutoff mid-order.
            deadline = full.sequential_simulated_seconds / 2
        for workers in WORKER_COUNTS:
            reference = run("serial", workers, deadline)
            if with_deadline:
                assert 0 < len(reference.skipped) < len(components)
            metrics = MetricsRegistry()
            result = run("processes", workers, deadline, metrics)
            key = (workload, workers, deadline)
            assert result.dispatch_order == reference.dispatch_order, key
            assert result.skipped == reference.skipped, key
            assert [_result_fields(r) for r in result.results] == [
                _result_fields(r) for r in reference.results
            ], key
            assert (
                result.sequential_simulated_seconds
                == reference.sequential_simulated_seconds
            ), key
            assert (
                result.parallel_simulated_seconds
                == reference.parallel_simulated_seconds
            ), key
            chunks = metrics.as_dict()["counters"][
                "scheduler.chunks_dispatched"
            ]
            if with_deadline:
                assert chunks == result.executed, key
            else:
                tasks = _walksat_tasks(components)
                cut = chunk_boundaries(
                    [task_work(tasks[i], components[i]) for i in order], workers
                )
                assert chunks == len(cut), key
                if workers == 1:
                    assert chunks < len(components), key


class TestMarginalParity:
    @pytest.mark.parametrize("workload", ("example1", "RC", "IE"))
    def test_marginals_bit_identical(self, workloads, workload):
        components = workloads[workload]
        reference = MCSat(
            MCSatOptions(samples=6, burn_in=2), RandomSource(0)
        ).run_components(components, parallel_backend="serial")
        for backend in BACKENDS:
            for workers in WORKER_COUNTS:
                result = MCSat(
                    MCSatOptions(samples=6, burn_in=2), RandomSource(0)
                ).run_components(components, parallel_backend=backend, workers=workers)
                assert result.probabilities == reference.probabilities, (
                    workload,
                    backend,
                    workers,
                )
                assert result.samples == reference.samples

    def test_engine_marginal_parity_across_backends(self):
        results = {}
        for backend in BACKENDS:
            dataset = load_dataset("IE", DatasetScale(factor=0.15, seed=0))
            engine = TuffyEngine(
                dataset.program,
                InferenceConfig(
                    seed=0,
                    mcsat_samples=5,
                    mcsat_burn_in=1,
                    workers=2,
                    parallel_backend=backend,
                ),
            )
            results[backend] = engine.run_marginal().marginals.probabilities
        reference = results["serial"]
        for backend, probabilities in results.items():
            assert probabilities == reference, backend


class TestBackendResolution:
    def test_constants_and_availability(self):
        assert PARALLEL_BACKENDS == ("auto", "serial", "processes")
        assert "serial" in available_parallel_backends()

    def test_auto_falls_back_to_serial_without_parallelism(self):
        # Single component: the pool cannot win, regardless of workers.
        assert resolve_parallel_backend("auto", workers=4, task_count=1) == "serial"
        # Single worker: nothing to parallelise.
        assert resolve_parallel_backend("auto", workers=1, task_count=8) == "serial"

    def test_auto_falls_back_to_serial_without_fork(self, monkeypatch):
        import repro.parallel

        monkeypatch.setattr(repro.parallel, "processes_available", lambda: False)
        assert resolve_parallel_backend("auto", workers=4, task_count=8) == "serial"
        assert repro.parallel.available_parallel_backends() == ("serial",)
        with pytest.raises(RuntimeError):
            resolve_parallel_backend("processes", workers=4, task_count=8)

    def test_auto_engages_processes_when_parallelism_exists(self):
        if not processes_available():
            pytest.skip("fork start method unavailable")
        assert resolve_parallel_backend("auto", workers=4, task_count=8) == "processes"

    def test_explicit_backends_are_honoured(self):
        assert resolve_parallel_backend("serial", workers=4, task_count=8) == "serial"
        if processes_available():
            assert (
                resolve_parallel_backend("processes", workers=1, task_count=1)
                == "processes"
            )

    def test_unknown_backend_rejected(self):
        for backend in ("cluster", "threads"):
            with pytest.raises(ValueError):
                resolve_parallel_backend(backend)

    def test_config_validates_parallel_backend(self):
        from repro.core.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            InferenceConfig(parallel_backend="cluster")
        assert InferenceConfig(parallel_backend="processes").parallel_backend == (
            "processes"
        )

    def test_config_rejects_threads_backend(self):
        from repro.core.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            InferenceConfig(parallel_backend="threads")

    @pytest.mark.parametrize(
        "workers, task_count", ((1, 1), (1, 8), (4, 1), (2, 2), (4, 8))
    )
    def test_auto_needs_workers_components_and_fork(self, workers, task_count):
        parallel = workers > 1 and task_count > 1 and processes_available()
        assert resolve_parallel_backend(
            "auto", workers=workers, task_count=task_count
        ) == ("processes" if parallel else "serial")

    @pytest.mark.parametrize("backend", ("wave", "steal", "", "Serial", "THREADS"))
    def test_config_rejects_names_outside_the_seam(self, backend):
        from repro.core.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="unknown parallel backend"):
            InferenceConfig(parallel_backend=backend)
        with pytest.raises(ValueError):
            resolve_parallel_backend(backend)

    def test_config_has_no_dispatch_field(self):
        with pytest.raises(TypeError):
            InferenceConfig(parallel_dispatch="steal")
