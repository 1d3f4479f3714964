"""Non-perturbation and span-tree shape of the observability subsystem.

The tracing contract: a recording tracer observes, never acts.  Results
— assignments, costs, flips, marginals, the RNG stream position and the
simulated clock — are **bit-identical** with tracing on vs off, across
parallel backends and worker counts (``obs-purity``
enforces the static half of this; these tests prove the dynamic half).

Shape tests pin the stitched span tree: every worker task span resolves
to its request's root span, worker-side phase spans hang under their
component span, and the post-hoc emission order is deterministic.
"""

import logging

import pytest
from row_oracle import ground_by_rows

from repro.core.config import InferenceConfig
from repro.core.session import EngineSession
from repro.datasets import DatasetScale, load_dataset
from repro.datasets.example1 import example1_mrf
from repro.grounding.bottom_up import BottomUpGrounder
from repro.inference.component_walksat import ComponentAwareWalkSAT
from repro.inference.walksat import WalkSATOptions
from repro.mrf.components import connected_components
from repro.obs import MetricsRegistry, RecordingTracer
from repro.parallel import processes_available
from repro.parallel.pool import ComponentTask, WorkerPool
from repro.rdbms.column_batch import ColumnBatch
from repro.utils.rng import RandomSource

BACKENDS = [
    backend for backend in ("serial", "processes")
    if backend != "processes" or processes_available()
]
WORKER_COUNTS = (1, 4)


def _dataset_components(name, factor):
    dataset = load_dataset(name, DatasetScale(factor=factor, seed=0))
    from repro.core.engine import TuffyEngine

    return TuffyEngine(dataset.program, InferenceConfig(seed=0)).detect_components().components


@pytest.fixture(scope="module")
def workloads():
    return {
        "example1": connected_components(example1_mrf(10)).components,
        "RC": _dataset_components("RC", 0.25),
    }


def _driver_fields(result):
    """Everything about a ComponentSearchResult except wall-clock time."""
    return (
        result.best_assignment,
        result.best_cost,
        result.flips,
        result.simulated_seconds,
        result.parallel_simulated_seconds,
        result.skipped_components,
        [(r.best_assignment, r.best_cost, r.flips) for r in result.component_results],
    )


def _run(components, backend, workers, tracer=None):
    rng = RandomSource(0)
    result = ComponentAwareWalkSAT(
        WalkSATOptions(max_flips=1500),
        rng,
        workers=workers,
        parallel_backend=backend,
        tracer=tracer,
        metrics=MetricsRegistry() if tracer is not None else None,
    ).run(components, total_flips=1500)
    # The RNG stream position after the run is part of the contract: a
    # tracer that drew even one number would shift this value.
    return _driver_fields(result), rng.random()


class TestTraceParity:
    @pytest.mark.parametrize("workload", ("example1", "RC"))
    def test_driver_results_identical_traced_or_not(self, workloads, workload):
        components = workloads[workload]
        for backend in BACKENDS:
            for workers in WORKER_COUNTS:
                untraced, rng_after = _run(components, backend, workers)
                traced, traced_rng_after = _run(
                    components, backend, workers, tracer=RecordingTracer()
                )
                key = (workload, backend, workers)
                assert traced == untraced, key
                assert traced_rng_after == rng_after, key

    def test_session_map_and_marginal_bit_identical(self):
        # Whole-session parity: MAP assignment, marginals, phase-relevant
        # simulated clock — all bit-identical with tracing off vs on.
        def run(tracing):
            dataset = load_dataset("RC", DatasetScale(factor=0.25, seed=0))
            config = InferenceConfig(
                seed=0,
                max_flips=1500,
                workers=2,
                mcsat_samples=8,
                mcsat_burn_in=2,
                tracing=tracing,
            )
            with EngineSession(dataset.program, config) as session:
                map_result = session.run_map()
                marginal_result = session.run_marginal()
                return (
                    map_result.assignment,
                    map_result.cost,
                    map_result.flips,
                    map_result.simulated_seconds,
                    marginal_result.marginals.probabilities,
                    marginal_result.cost,
                    session.database.clock.now(),
                )

        assert run("on") == run("off")


class TestSpanTreeShape:
    def _traced_session_run(self, backend, workers):
        dataset = load_dataset("RC", DatasetScale(factor=0.25, seed=0))
        config = InferenceConfig(
            seed=0,
            max_flips=1000,
            workers=workers,
            parallel_backend=backend,
            tracing="on",
        )
        with EngineSession(dataset.program, config) as session:
            session.run_map()
            tracer = session.tracer
        return tracer

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_task_spans_resolve_to_their_request_root(self, backend):
        tracer = self._traced_session_run(backend, workers=2)
        assert tracer.request_ids() == [1]
        spans = tracer.request_spans(1)
        names = [span.name for span in spans]
        for expected in ("request", "setup", "search", "dispatch", "merge", "ship"):
            assert expected in names, expected
        component_spans = [s for s in spans if s.name.startswith("component[")]
        assert component_spans
        roots = [s for s in spans if s.name == "request"]
        assert len(roots) == 1
        for span in component_spans:
            assert tracer.request_id_of(span) == 1
        if backend == "processes":
            # Worker-side phase spans hang under their component span.
            by_id = {span.span_id: span for span in spans}
            worker_spans = [s for s in spans if s.name == "kernel-search"]
            assert len(worker_spans) == len(component_spans)
            for span in worker_spans:
                parent = by_id[span.parent_id]
                assert parent.name.startswith("component[")
                assert "worker" in span.attributes

    def test_join_output_is_read_before_clause_ingest_opens(self, monkeypatch):
        # Reading a join's output gathers it through the join's selection:
        # relational work, which must not be booked as clause ingest.
        tracer = RecordingTracer()
        reads = []
        original = ColumnBatch.column_codes

        def column_codes(batch, position):
            current = tracer.current_span()
            assert current is None or current.name != "clause-ingest"
            reads.append(position)
            return original(batch, position)

        monkeypatch.setattr(ColumnBatch, "column_codes", column_codes)
        program = load_dataset("RC", DatasetScale(factor=1, seed=0)).program
        grounding = BottomUpGrounder(tracer=tracer).ground(
            program.clauses(), program.build_atom_registry()
        )
        assert reads and len(grounding.clauses) > 0
        assert any(span.name == "clause-ingest" for span in tracer.spans())

    def test_clause_ingest_is_split_out_of_the_ground_span(self):
        # Each first-order clause's query time is (relational query) +
        # (clause-store ingest); the ingest half is visible three ways
        # that must agree: per-clause stats, child spans of ``ground``,
        # and one session metric.  A delta's replayed clauses are all
        # ingest.
        dataset = load_dataset("RC", DatasetScale(factor=0.25, seed=0))
        config = InferenceConfig(seed=0, tracing="on")
        with EngineSession(dataset.program, config) as session:
            grounding = session.ground()
            spans = session.tracer.spans()
            (ground,) = [span for span in spans if span.name == "ground"]
            ingests = [span for span in spans if span.name == "clause-ingest"]
            assert ingests and all(s.parent_id == ground.span_id for s in ingests)
            assert [s.attributes["clause"] for s in ingests] == [
                stats.clause_name for stats in grounding.per_clause if stats.sql
            ]
            for stats in grounding.per_clause:
                assert 0.0 <= stats.ingest_seconds <= stats.seconds
            total = sum(stats.ingest_seconds for stats in grounding.per_clause)
            assert total > 0.0
            assert session.metrics.counter("grounding.ingest_seconds") == total
            # The span sits inside the stopwatch, around the same call.
            assert 0.0 < sum(s.wall_duration for s in ingests) <= total

            fact = next(
                f.atom.argument_values()
                for f in dataset.program.evidence
                if f.atom.predicate.name == "wrote"
            )
            session.remove_evidence("wrote", fact)
            delta = session.ground()
            replayed = [
                span
                for span in session.tracer.spans()
                if span.name == "clause-ingest" and span.attributes.get("replayed")
            ]
            assert len(replayed) == session.last_ground_report.clauses_replayed > 0
            replayed_names = {span.attributes["clause"] for span in replayed}
            for stats in delta.per_clause:
                if stats.clause_name in replayed_names:
                    assert stats.ingest_seconds == stats.seconds

    @pytest.mark.parametrize("backend", ["columnar", "row"])
    def test_clause_ingest_spans_attribute_rows_per_rule(self, backend, monkeypatch):
        # Each clause-ingest span says what its rule's rows did in the
        # store; summed over the spans, that is the store itself.  The
        # ``row`` case grounds through the row oracle.
        if backend == "row":
            ground_by_rows(monkeypatch)
        dataset = load_dataset("RC", DatasetScale(factor=0.25, seed=0))
        config = InferenceConfig(seed=0, tracing="on")
        with EngineSession(dataset.program, config) as session:

            def check(grounding, spans):
                stats = {s.clause_name: s for s in grounding.per_clause}
                for span in spans:
                    clause = stats[span.attributes["clause"]]
                    assert span.attributes["rows_in"] == (
                        clause.ground_clauses + clause.pruned_bindings
                    )
                    assert span.attributes["rows_stored"] + span.attributes[
                        "rows_merged"
                    ] == clause.ground_clauses
                    assert min(span.attributes[key] for key in ATTRIBUTES) >= 0
                store = grounding.clauses
                assert sum(s.attributes["rows_stored"] for s in spans) == len(store)
                assert sum(s.attributes["tautologies"] for s in spans) == store.tautologies
                assert (
                    sum(s.attributes["repeats_dropped"] for s in spans)
                    == store.repeated_literals
                )

            ATTRIBUTES = (
                "rows_in", "rows_stored", "rows_merged", "tautologies", "repeats_dropped"
            )
            grounding = session.ground()
            check(grounding, [s for s in session.tracer.spans() if s.name == "clause-ingest"])
            assert grounding.clauses.tautologies > 0
            fact = next(
                f.atom.argument_values()
                for f in dataset.program.evidence
                if f.atom.predicate.name == "wrote"
            )
            seen = len(session.tracer.spans())
            session.remove_evidence("wrote", fact)
            delta = session.ground()
            spans = [s for s in session.tracer.spans()[seen:] if s.name == "clause-ingest"]
            assert any(s.attributes.get("replayed") for s in spans)
            check(delta, spans)

    def test_stitched_order_is_deterministic(self):
        # The last backend is the forked pool when fork is available: the
        # one whose completion order varies run to run.
        first = self._traced_session_run(BACKENDS[-1], workers=4)
        second = self._traced_session_run(BACKENDS[-1], workers=4)
        names_first = [span.name for span in first.request_spans(1)]
        names_second = [span.name for span in second.request_spans(1)]
        assert names_first == names_second
        # Component spans are emitted post-hoc in dispatch order, not
        # completion order — the sequence cannot depend on worker timing.
        components = [n for n in names_first if n.startswith("component[")]
        assert components == sorted(components, key=lambda n: int(n[10:-1]))

    def test_concurrent_requests_get_disjoint_complete_trees(self):
        dataset = load_dataset("RC", DatasetScale(factor=0.25, seed=0))
        config = InferenceConfig(
            seed=0, max_flips=800, workers=2, max_inflight_requests=4, tracing="on"
        )
        with EngineSession(dataset.program, config) as session:
            futures = [session.submit_map() for _ in range(4)]
            results = [future.result() for future in futures]
            tracer = session.tracer
        assert len({repr(sorted(r.assignment.items())) for r in results}) == 1
        assert tracer.request_ids() == [1, 2, 3, 4]
        for request_id in (1, 2, 3, 4):
            names = [span.name for span in tracer.request_spans(request_id)]
            for expected in ("request", "admission", "setup", "search", "dispatch"):
                assert expected in names, (request_id, expected)


@pytest.mark.skipif(
    "processes" not in BACKENDS, reason="fork start method unavailable"
)
class TestBankExhaustionSurfacing:
    def test_exhaustion_counts_metrics_and_warns(self, caplog):
        components = [
            connected_components(example1_mrf(6)).components[0],
            connected_components(example1_mrf(6)).components[1],
        ]
        registry = MetricsRegistry()
        task_a = ComponentTask(
            index=0, kind="walksat", seed=11,
            walksat=WalkSATOptions(max_flips=50), request_id=1,
        )
        task_b = ComponentTask(
            index=1, kind="walksat", seed=12,
            walksat=WalkSATOptions(max_flips=50), request_id=2,
        )
        with caplog.at_level(logging.WARNING, logger="repro.parallel.pool"):
            with WorkerPool(components, 1, result_banks=1, metrics=registry) as pool:
                pool.submit_chunk([task_a])  # takes the only bank
                pool.submit_chunk([task_b])  # exhausted: bank -1, pickled fallback
                outcome_a, _ = pool.next_outcome(1)
                outcome_b, _ = pool.next_outcome(2)
                pool.finish_request(1)
                pool.finish_request(2)
        assert outcome_a.result.best_assignment
        assert outcome_b.result.best_assignment
        assert registry.counter("pool.bank_checkouts") == 1.0
        assert registry.counter("pool.bank_exhausted") == 1.0
        assert registry.counter("pool.pickle_shipped") >= 1.0
        warnings = [r.message for r in caplog.records]
        assert any("result-bank exhaustion" in message for message in warnings)
        assert any("pickled fallback" in message for message in warnings)
