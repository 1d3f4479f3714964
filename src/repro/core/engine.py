"""The Tuffy engine: grounding + partitioning + search, end to end.

The engine reproduces the pipeline of the paper's Section 3:

1. **Grounding** (Section 3.1): the program's clauses are grounded bottom-up
   by compiling each clause to a relational query executed by the embedded
   engine (or top-down, for the Alchemy-style baseline).
2. **Hybrid architecture** (Section 3.2): the ground clauses are loaded from
   the clause table into memory and searched with WalkSAT.
3. **Partitioning** (Sections 3.3-3.4): the MRF is split into connected
   components (array labelling); components are packed into memory-budget-sized
   batches for loading, searched independently with a weighted round-robin
   flip budget (optionally in parallel), and components that still exceed
   the memory budget are further split with the greedy partitioner and
   searched with Gauss-Seidel sweeps.

Since the session refactor the engine is a thin per-request driver over an
:class:`~repro.core.session.EngineSession`, which owns every piece of
long-lived state (database, atom registry, grounding result, MRF,
component decomposition, persistent worker pool).  Repeated
:meth:`TuffyEngine.run_map` / :meth:`TuffyEngine.run_marginal` calls are
warm requests: they reuse the session state and are bit-identical to a
cold run with the same seed (``tests/test_session_parity.py``).
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import InferenceConfig
from repro.core.program import MLNProgram
from repro.core.results import InferenceResult
from repro.core.session import EngineSession, SessionStats
from repro.grounding.result import GroundingResult
from repro.inference.mcsat import MCSat
from repro.mrf.components import ComponentDecomposition
from repro.mrf.graph import MRF
from repro.rdbms.database import Database
from repro.utils.memory import MemoryModel
from repro.utils.timer import Timer


class TuffyEngine:
    """End-to-end MAP and marginal inference with the Tuffy architecture."""

    def __init__(
        self,
        program: MLNProgram,
        config: Optional[InferenceConfig] = None,
        database: Optional[Database] = None,
    ) -> None:
        self.program = program
        self.session = EngineSession(program, config, database)
        self.config = self.session.config

    # ------------------------------------------------------------------
    # Session-owned state (exposed for compatibility and inspection)
    # ------------------------------------------------------------------

    @property
    def database(self) -> Database:
        return self.session.database

    @property
    def memory_model(self) -> MemoryModel:
        return self.session.memory_model

    @property
    def timer(self) -> Timer:
        return self.session.timer

    @property
    def grounding_result(self) -> Optional[GroundingResult]:
        return self.session.grounding_result

    @property
    def mrf(self) -> Optional[MRF]:
        return self.session.mrf

    @property
    def components(self) -> Optional[ComponentDecomposition]:
        return self.session.components

    @property
    def stats(self) -> SessionStats:
        return self.session.stats

    @property
    def tracer(self):
        """The session's injected tracer (``NullTracer`` unless enabled)."""
        return self.session.tracer

    @property
    def metrics(self):
        """The session's metrics registry (always live)."""
        return self.session.metrics

    def request_log(self):
        """Bounded summaries of recently finished requests."""
        return self.session.request_log()

    def metrics_snapshot(self):
        """Refresh session/io gauges and return the metrics registry."""
        return self.session.metrics_snapshot()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Tear down the session's persistent worker pool.  Idempotent."""
        self.session.close()

    def __enter__(self) -> "TuffyEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Pipeline stages
    # ------------------------------------------------------------------

    def ground(self) -> GroundingResult:
        """Run (and cache) the grounding phase."""
        return self.session.ground()

    def build_mrf(self) -> MRF:
        """Build (and cache) the ground MRF."""
        return self.session.build_mrf()

    def detect_components(self) -> ComponentDecomposition:
        """Detect (and cache) the MRF's connected components."""
        return self.session.detect_components()

    # ------------------------------------------------------------------
    # Evidence deltas
    # ------------------------------------------------------------------

    def add_evidence(self, predicate_name: str, arguments, truth: bool = True):
        """Add one evidence fact; the next request delta-regrounds."""
        return self.session.add_evidence(predicate_name, arguments, truth)

    def remove_evidence(self, predicate_name: str, arguments):
        """Retract one evidence fact; the next request delta-regrounds."""
        return self.session.remove_evidence(predicate_name, arguments)

    # ------------------------------------------------------------------
    # Inference requests
    # ------------------------------------------------------------------

    def run_map(
        self, seed: Optional[int] = None, deadline_seconds: Optional[float] = None
    ) -> InferenceResult:
        """Run the full MAP pipeline and return the best world found.

        ``seed`` overrides ``config.seed`` and ``deadline_seconds``
        overrides ``config.deadline_seconds`` for this request only;
        repeated calls are warm requests on the underlying session.
        """
        return self.session.run_map(seed=seed, deadline_seconds=deadline_seconds)

    def submit_map(
        self, seed: Optional[int] = None, deadline_seconds: Optional[float] = None
    ):
        """Admit one MAP request without blocking; returns a future.

        Up to ``config.max_inflight_requests`` submitted requests run
        interleaved over the session; each result is bit-identical to
        running the same request alone.
        """
        return self.session.submit_map(seed=seed, deadline_seconds=deadline_seconds)

    def submit_marginal(self, seed: Optional[int] = None):
        """Admit one MC-SAT marginal request without blocking; returns a future."""
        return self.session.submit_marginal(seed=seed, sampler_factory=MCSat)

    def run_marginal(self, seed: Optional[int] = None) -> InferenceResult:
        """Estimate marginal probabilities with MC-SAT (Appendix A.5).

        Like the MAP pipeline, marginal inference decomposes over the
        MRF's connected components (each is an independent MC-SAT chain
        with a seed-derived RNG stream): with partitioning enabled the
        components are sampled through the ``parallel_backend`` seam, so
        multi-component workloads use every worker.  Results are
        bit-identical across parallel backends and worker counts.
        """
        # The module-global is looked up at call time so tests can
        # monkeypatch ``repro.core.engine.MCSat``.
        return self.session.run_marginal(seed=seed, sampler_factory=MCSat)
