"""Per-layer metrics of one traced run (layer = package under ``src/repro``).

Three sources, all outside ``src/``:

* *benchmark spans* — durations of the public calls the benchmark made
  itself (``from_text``, ``ground``, ``build_mrf`` ...);
* *program spans and counters* — median self time per operation of the
  spans the program records under ``tracing="on"``, and its registry;
* *staged calls* — a layer's public function timed directly on the
  workload's own components (median of up to three calls, stopping once
  a stage has used 1.5 s).

A layer the workload's requests never enter reports 0: ``lp_dense_map``
has one component, so ``auto`` resolves to serial and every ``parallel.*``
number is 0 there; MAP workloads never run MC-SAT; and so on.  The zeros
are the "this workload bypasses that layer" half of the design.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List, Tuple

from repro.inference.component_walksat import ComponentAwareWalkSAT
from repro.inference.mcsat import MCSat, MCSatOptions
from repro.inference.state import make_search_state
from repro.inference.walksat import WalkSAT, WalkSATOptions
from repro.parallel.pool import WorkerPool
from repro.utils.rng import RandomSource

from benchmarks.e2e.spans import BenchSpan, per_op_self_seconds
from benchmarks.e2e.workloads import WORKERS, WorkloadRun

STAGE_REPEATS = 3
STAGE_BUDGET_SECONDS = 1.5
#: The staged serial-vs-pool comparison runs MC-SAT chains a sixth as long
#: as a request's (10 of 60 steps): long enough to dwarf dispatch.
STAGED_CHAIN_SHARE = 6


def _staged(call: Callable[[], object], repeats: int) -> Tuple[float, object]:
    """Median seconds of up to ``repeats`` calls, and the last call's value."""
    seconds: List[float] = []
    value = None
    while len(seconds) < repeats and sum(seconds) < STAGE_BUDGET_SECONDS:
        started = time.perf_counter()
        value = call()
        seconds.append(time.perf_counter() - started)
    return statistics.median(seconds), value


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    run: WorkloadRun,
    spans: List[BenchSpan],
    plain_latencies: List[float],
    traced_latencies: List[float],
) -> Dict[str, float]:
    engine = run.engines[-1]
    kind = run.workload.kind
    metrics: Dict[str, float] = {}

    # -- benchmark spans: the public calls the benchmark made ------------
    own_spans = [span for span in spans if span.source == "bench"]

    def bench(name: str, **match: object) -> float:
        return _median(
            [
                span.duration
                for span in own_spans
                if span.name == name
                and all(span.attributes.get(k) == v for k, v in match.items())
            ]
        )

    counts = run.counts
    metrics["logic.parse_s"] = bench("from_text")
    metrics["logic.clausify_s"] = bench("clausify")
    metrics["grounding.registry_s"] = bench("registry")
    metrics["grounding.ground_s"] = bench("ground", delta=False)
    metrics["grounding.delta_ground_s"] = bench("ground", delta=True)
    metrics["grounding.ground_clauses"] = float(counts["ground_clauses"])
    metrics["grounding.clauses_per_s"] = _ratio(
        counts["ground_clauses"], metrics["grounding.ground_s"]
    )
    metrics["grounding.pruned_bindings"] = float(counts["pruned_bindings"])
    metrics["mrf.build_s"] = bench("build_mrf", delta=kind == "delta")
    metrics["mrf.components_s"] = bench("detect_components", delta=kind == "delta")

    def delta_grounds(attribute: str) -> float:
        return sum(
            span.attributes.get(attribute, 0)
            for span in own_spans
            if span.name == "ground" and span.attributes.get("delta")
        )

    metrics["grounding.replay_hit_ratio"] = _ratio(
        delta_grounds("clauses_replayed"), delta_grounds("clauses_total")
    )
    metrics["grounding.atom_tables_reused_ratio"] = _ratio(
        delta_grounds("atom_tables_reused"),
        delta_grounds("atom_tables_reused") + delta_grounds("atom_tables_loaded"),
    )

    # -- rdbms: counts taken where the joins and page reads happen -------
    metrics["rdbms.query_s"] = counts["query_seconds"]
    metrics["rdbms.intermediate_tuples"] = float(counts["intermediate_tuples"])
    metrics["rdbms.page_reads"] = float(counts["page_reads"])
    metrics["rdbms.buffer_hit_ratio"] = _ratio(
        counts["buffer_hits"], counts["buffer_hits"] + counts["buffer_misses"]
    )

    components = engine.components.components
    metrics["mrf.components"] = float(len(components))
    metrics["mrf.largest_component_atoms"] = float(
        max(len(component.atom_ids) for component in components)
    )
    stats = engine.stats
    metrics["mrf.components_adopted_ratio"] = _ratio(
        stats.components_adopted, stats.components_adopted + stats.components_rebuilt
    )

    # -- program spans: median self seconds per measured operation -------
    table = per_op_self_seconds(spans)
    ops = sorted({span.op for span in spans if span.op is not None})

    def program(*names: str) -> float:
        return _median(
            [sum(table.get(name, {}).get(op, 0.0) for name in names) for op in ops]
        )

    metrics["partitioning.load_s"] = program("loading")
    metrics["inference.lease_checkout_s"] = program("lease-checkout")
    metrics["inference.worker_state_setup_s"] = program("state-setup")
    metrics["inference.worker_kernel_search_s"] = program("kernel-search")
    metrics["parallel.pool_checkout_s"] = program("pool-checkout")
    metrics["parallel.dispatch_self_s"] = program("dispatch")
    metrics["parallel.ship_wait_s"] = program("ship")
    metrics["core.merge_s"] = program("merge")
    metrics["core.request_self_s"] = program("request", "setup", "search")
    metrics["core.admission_wait_s"] = program("admission")
    worker_seconds = sum(
        span.duration
        for span in spans
        if span.op is not None
        and span.name in ("state-setup", "kernel-search", "ship-result")
    )
    # MAP requests dispatch inside a ``dispatch`` span; marginal requests
    # have none, and their ``search`` span is the dispatch.
    dispatch_name = "search" if kind == "marginal" else "dispatch"
    dispatch_seconds = sum(
        span.duration
        for span in spans
        if span.op is not None and span.name == dispatch_name
    )
    metrics["parallel.worker_busy_share"] = _ratio(
        worker_seconds, WORKERS * dispatch_seconds
    )

    counters = engine.metrics_snapshot().as_dict()["counters"]
    shm = counters.get("pool.shm_shipped", 0.0)
    metrics["parallel.shm_shipped_share"] = _ratio(
        shm, shm + counters.get("pool.pickle_shipped", 0.0)
    )
    requests = counters.get("session.requests", 0.0)
    metrics["parallel.steals"] = _ratio(counters.get("scheduler.steals", 0.0), requests)
    metrics["parallel.bank_exhausted"] = _ratio(
        counters.get("pool.bank_exhausted", 0.0), requests
    )

    program_spans = sum(1 for s in spans if s.source == "program" and s.op is not None)
    metrics["obs.spans_per_request"] = _ratio(program_spans, len(ops))
    metrics["obs.traced_request_p50_s"] = _median(traced_latencies)
    metrics["obs.tracing_overhead_ratio"] = _ratio(
        _median(traced_latencies), _median(plain_latencies)
    )

    metrics.update(_staged_calls(run, components))
    return metrics


def _staged_calls(run: WorkloadRun, components) -> Dict[str, float]:
    """Time the layer functions a request of this kind goes through."""
    workload = run.workload
    marginal = workload.kind == "marginal"
    seed = run.request_seed(0)
    repeats = 1 if run.smoke else STAGE_REPEATS
    metrics = dict.fromkeys(
        (
            "inference.state_build_s",
            "inference.walksat_search_s",
            "inference.walksat_flips_per_s",
            "inference.component_flips_per_s",
            "inference.mcsat_samples_per_s",
            "parallel.pool_launch_s",
            "parallel.dispatch_s",
            "parallel.tasks_per_s",
            "parallel.dispatch_overhead_ratio",
        ),
        0.0,
    )
    options = WalkSATOptions(max_flips=run.max_flips, trace_label="tuffy")

    if marginal:
        largest = max(components, key=lambda component: component.size())
        seconds, _ = _staged(
            lambda: MCSat(
                MCSatOptions(samples=run.mcsat_samples, burn_in=run.mcsat_burn_in),
                RandomSource(seed),
            ).run(largest),
            repeats,
        )
        metrics["inference.mcsat_samples_per_s"] = run.mcsat_samples / seconds
    else:
        started = time.perf_counter()
        states = [make_search_state(component) for component in components]
        metrics["inference.state_build_s"] = time.perf_counter() - started
        if len(components) == 1:
            seconds, result = _staged(
                lambda: WalkSAT(options, RandomSource(seed)).run_on_state(states[0]),
                repeats,
            )
            metrics["inference.walksat_search_s"] = seconds
            metrics["inference.walksat_flips_per_s"] = result.flips / seconds

    if len(components) == 1:
        return metrics

    short_chains = MCSatOptions(
        samples=max(run.mcsat_samples // STAGED_CHAIN_SHARE, 1),
        burn_in=max(run.mcsat_burn_in // STAGED_CHAIN_SHARE, 1),
    )

    def search(backend: str, pool=None):
        if marginal:
            return MCSat(short_chains, RandomSource(seed)).run_components(
                components, parallel_backend=backend, workers=WORKERS, pool=pool
            )
        return ComponentAwareWalkSAT(
            options, RandomSource(seed), workers=WORKERS, parallel_backend=backend
        ).run(
            components,
            total_flips=run.max_flips,
            pool=pool,
            local_states=states if backend == "serial" else None,
        )

    serial_seconds, outcome = _staged(lambda: search("serial"), repeats)
    if not marginal:
        metrics["inference.component_flips_per_s"] = outcome.flips / serial_seconds

    def launch() -> None:
        WorkerPool(components, WORKERS).shutdown()

    metrics["parallel.pool_launch_s"], _ = _staged(launch, repeats)
    with WorkerPool(components, WORKERS) as pool:
        search("processes", pool)  # workers build their MRFs and states once
        pooled_seconds, _ = _staged(lambda: search("processes", pool), repeats)
    metrics["parallel.dispatch_s"] = pooled_seconds
    metrics["parallel.tasks_per_s"] = len(components) / pooled_seconds
    metrics["parallel.dispatch_overhead_ratio"] = pooled_seconds / serial_seconds
    return metrics
