"""The six workloads: what one operation is, and how its result is checked.

Every workload runs ``InferenceConfig(workers=2)`` with all seams on their
defaults.  The benchmark drives the program only through its public calls
and wraps each in a span (:mod:`benchmarks.e2e.spans`); the same code runs
traced and untraced — untraced, the recorder is a no-op.

The pipeline stages a request would run lazily (``ground`` → ``build_mrf``
→ ``detect_components``) are called explicitly first, each in its own
span: the session caches them, so the work done per operation is the
same as a bare ``run_map``, and the benchmark's spans give every stage a
duration without touching ``src/``.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.config import InferenceConfig
from repro.core.engine import TuffyEngine
from repro.mrf.cost import assignment_cost

from benchmarks.e2e.inputs import generated_program, rc_delta_facts, render_rc_text
from benchmarks.e2e.spans import SpanRecorder

WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # cold | warm | concurrent | delta | marginal
    dataset: str
    factor: float
    smoke_factor: float
    max_flips: int = 100_000
    clients: int = 1
    #: Extra warm requests in set-up after the cold one.  The first warm
    #: MAP request is slower than the rest (workers fill their caches);
    #: a marginal request has no such effect, and costs 2.7 s.
    warmups: int = 1
    #: Operations re-executed after the measured phase; their digests must
    #: repeat.  ``delta`` operations depend on session history and cannot
    #: be replayed in place: the traced run replays them on a fresh session.
    replays: int = 1
    #: Set-ups per measured run (``setup_s`` is their median): three; two
    #: where one costs over 3 s, to leave the run's time to the phase.
    setups: int = 3


MCSAT_SAMPLES = 50
MCSAT_BURN_IN = 10

#: Why each workload exists is recorded in README.md (and, for the three
#: the driver gates, in BENCHMARK.json); sizes and request parameters here.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "rc_cold_map", "cold", "RC", factor=4, smoke_factor=1,
            max_flips=50_000, setups=7,  # set-up is only the text rendering: 0.05 s
        ),
        Workload("lp_dense_map", "warm", "LP", factor=2, smoke_factor=1),
        Workload("ie_warm_map", "warm", "IE", factor=50, smoke_factor=2, setups=2),
        Workload(
            "ie_concurrent_map", "concurrent", "IE", factor=50, smoke_factor=2,
            clients=2, setups=2,
        ),
        Workload(
            "rc_delta_map", "delta", "RC", factor=4, smoke_factor=1,
            max_flips=50_000, replays=0,
        ),
        Workload(
            "rc_warm_marginal", "marginal", "RC", factor=2, smoke_factor=1,
            warmups=0, setups=2,
        ),
    )
}


def result_digest(result) -> Dict[str, object]:
    """Cost, flips and a SHA-256 of the ordered assignment bits / marginals."""
    sha = hashlib.sha256()
    if result.marginals is not None:
        probabilities = result.marginals.probabilities
        for atom_id in sorted(probabilities):
            sha.update(f"{atom_id}:{probabilities[atom_id]!r};".encode())
    else:
        assignment = result.assignment
        sha.update(bytes(assignment[atom_id] for atom_id in sorted(assignment)))
    return {"cost": result.cost, "flips": result.flips, "sha256": sha.hexdigest()}


def oracle_problem(
    engine: TuffyEngine, result, max_flips: int, mcsat_samples: int
) -> Optional[str]:
    """Check a result against the engine's MRF; ``None`` when it holds.

    Independent of the search: the reported cost must be the MLN cost of
    the returned world recomputed clause by clause, every MRF atom must be
    decided, and the flip budget respected.
    """
    mrf = engine.mrf
    atoms = set(mrf.atom_ids)
    if result.marginals is not None:
        probabilities = result.marginals.probabilities
        if set(probabilities) != atoms:
            return "marginals do not cover the MRF's atoms"
        if not all(0.0 <= p <= 1.0 for p in probabilities.values()):
            return "marginal outside [0, 1]"
        if result.marginals.samples != mcsat_samples:
            return f"{result.marginals.samples} samples, expected {mcsat_samples}"
        return None
    if not atoms <= set(result.assignment):
        return "assignment leaves MRF atoms undecided"
    if not 0 <= result.flips <= max_flips:
        return f"{result.flips} flips outside the budget of {max_flips}"
    recomputed = (
        assignment_cost(mrf, result.assignment, hard_as_infinite=False)
        + engine.grounding_result.clauses.evidence_violation_cost
    )
    if not math.isclose(recomputed, result.cost, rel_tol=1e-9, abs_tol=1e-6):
        return f"reported cost {result.cost!r}, recomputed {recomputed!r}"
    return None


class WorkloadRun:
    """One workload's inputs and session(s), traced or not.

    ``open()`` is the set-up (input generation; for every kind but
    ``cold``, the cold first request and the warm-ups), ``operate(i)`` one
    operation, ``close()`` the teardown.  In a traced run every engine
    used is kept in ``engines`` so its tracer and registry can be read
    afterwards.
    """

    def __init__(self, workload: Workload, seed: int, smoke: bool, traced: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.factor = workload.smoke_factor if smoke else workload.factor
        # Smoke runs check the plumbing, not the search: a tenth of the work.
        self.max_flips = workload.max_flips // 10 if smoke else workload.max_flips
        self.mcsat_samples = 3 if smoke else MCSAT_SAMPLES
        self.mcsat_burn_in = 1 if smoke else MCSAT_BURN_IN
        self.traced = traced
        self.spans = SpanRecorder(enabled=traced)
        self.text = None
        self.engine: Optional[TuffyEngine] = None
        self.engines: List[TuffyEngine] = []
        self.delta_facts = ()
        self.warmup_seconds: List[float] = []
        #: Counts the program made, read at a fixed point (the end of
        #: set-up, or of a cold operation) so that they repeat exactly
        #: however many operations the clock then allows.
        self.counts: Dict[str, float] = {}

    def config(self) -> InferenceConfig:
        workload = self.workload
        return InferenceConfig(
            workers=WORKERS,
            max_flips=self.max_flips,
            mcsat_samples=self.mcsat_samples,
            mcsat_burn_in=self.mcsat_burn_in,
            max_inflight_requests=workload.clients,
            tracing="on" if self.traced else "off",
        )

    def request_seed(self, index: int) -> int:
        return 1000 * self.seed + index

    # -- lifecycle -----------------------------------------------------

    def open(self) -> None:
        workload = self.workload
        if workload.dataset == "RC":
            with self.spans.span("render_text"):
                self.text = render_rc_text(self.factor, self.seed)
        if workload.kind == "cold":
            return
        self.engine = self._start_engine()
        if workload.kind == "delta":
            self.delta_facts = rc_delta_facts(self.engine.program)
        # Seeds 999, 998, ... sit outside the range operations use.
        for offset in range(1 + workload.warmups):
            seed = self.request_seed(999 - offset)
            started = time.perf_counter()
            self._request(self.engine, seed)
            self.warmup_seconds.append(time.perf_counter() - started)
        self._read_counts(self.engine)

    def close(self) -> None:
        engine, self.engine = self.engine, None
        if engine is not None:
            with self.spans.span("close"):
                engine.close()

    # -- operations ----------------------------------------------------

    def operate(self, index: int):
        """Run operation ``index``; returns ``(engine, result)``."""
        kind = self.workload.kind
        seed = self.request_seed(index)
        with self.spans.span("op", op=index, seed=seed):
            if kind == "cold":
                engine = self._start_engine()
                try:
                    result = self._request(engine, seed)
                finally:
                    with self.spans.span("close"):
                        engine.close()
                self._read_counts(engine)
                return engine, result
            if kind == "delta":
                self._apply_delta(index)
                self._run_stages(self.engine, delta=True)
            return self.engine, self._request(self.engine, seed)

    def _read_counts(self, engine: TuffyEngine) -> None:
        if not self.traced:
            return
        grounding = engine.grounding_result
        io = engine.database.io_statistics()
        self.counts = {
            "ground_clauses": len(grounding.clauses),
            "pruned_bindings": grounding.pruned_bindings,
            "query_seconds": sum(stats.seconds for stats in grounding.per_clause),
            "intermediate_tuples": grounding.intermediate_tuples,
            "page_reads": io.page_reads,
            "buffer_hits": io.buffer_hits,
            "buffer_misses": io.buffer_misses,
        }

    def _apply_delta(self, index: int) -> None:
        """Add the refers fact, retract it, add the cat fact, retract it, ..."""
        predicate, arguments = self.delta_facts[(index // 2) % 2]
        if index % 2 == 0:
            with self.spans.span("add_evidence", predicate=predicate):
                self.engine.add_evidence(predicate, arguments)
        else:
            with self.spans.span("remove_evidence", predicate=predicate):
                self.engine.remove_evidence(predicate, arguments)

    def _start_engine(self) -> TuffyEngine:
        spans = self.spans
        workload = self.workload
        if self.text is not None:
            with spans.span("from_text"):
                program = self.text.parse()
        else:
            with spans.span("generate"):
                program = generated_program(workload.dataset, self.factor, self.seed)
        with spans.span("clausify"):
            program.clauses()
        engine = TuffyEngine(program, self.config())
        if self.traced:
            self.engines.append(engine)
        try:
            with spans.span("registry"):
                engine.session.registry()
            self._run_stages(engine, delta=False)
        except BaseException:
            engine.close()
            raise
        return engine

    def _run_stages(self, engine: TuffyEngine, delta: bool) -> None:
        spans = self.spans
        with spans.span("ground", delta=delta) as span:
            engine.ground()
            report = engine.session.last_ground_report
            if span is not None and report is not None:
                span.attributes.update(
                    clauses_total=report.clauses_total,
                    clauses_replayed=report.clauses_replayed,
                    atom_tables_loaded=report.atom_tables_loaded,
                    atom_tables_reused=report.atom_tables_reused,
                )
        with spans.span("build_mrf", delta=delta):
            engine.build_mrf()
        with spans.span("detect_components", delta=delta):
            engine.detect_components()

    def _request(self, engine: TuffyEngine, seed: int):
        kind = self.workload.kind
        if kind == "marginal":
            with self.spans.span("run_marginal", seed=seed):
                return engine.run_marginal(seed=seed)
        if kind == "concurrent":
            with self.spans.span("submit_map", seed=seed):
                return engine.submit_map(seed=seed).result()
        with self.spans.span("run_map", seed=seed):
            return engine.run_map(seed=seed)

    def solo_request(self, index: int):
        """The same request outside the admission path (``ie_warm_map``'s)."""
        return self.engine.run_map(seed=self.request_seed(index))
