"""Inference configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.errors import ConfigurationError
from repro.parallel import PARALLEL_BACKENDS
from repro.rdbms.optimizer import OptimizerOptions
from repro.utils.clock import CostModel


@dataclass
class InferenceConfig:
    """All knobs of the Tuffy pipeline.

    Grounding
    ---------
    ``grounding_strategy`` is ``"bottom-up"`` (the Tuffy approach, default)
    or ``"top-down"`` (the Alchemy-style nested-loop baseline);
    ``optimizer_options`` exposes the relational planner's lesion knobs
    (join algorithms, join order, predicate pushdown), the only choices
    the relational engine makes — its one execution model runs every plan
    as column batches; ``use_lazy_closure`` applies the Appendix A.3
    active closure to the ground clauses before search.  Soft ground clauses
    over the same literal set are always merged into one, their weights
    added.

    Search
    ------
    ``max_flips`` is the total WalkSAT budget (shared across components with
    weighted round-robin), ``noise`` the random-flip probability,
    ``max_tries`` the number of restarts, ``use_partitioning`` toggles
    component-aware search (Tuffy vs Tuffy-p in the paper), and
    ``memory_budget_bytes`` — when set — bounds partition sizes, triggering
    Algorithm 3 plus Gauss-Seidel sweeps for components that exceed it;
    ``bytes_per_state_unit`` converts that budget into a partition size.
    ``workers`` sets the number of parallel component searches and
    ``parallel_backend`` the vehicle that runs them (``"auto"`` engages
    the shared-memory multiprocess pool whenever there is parallelism to
    exploit — more than one worker and more than one component — and
    falls back to ``"serial"`` otherwise; ``"serial"`` / ``"processes"``
    force one).  ``processes`` dispatches largest-first with work
    stealing — workers pull the next component the moment they finish.
    Results are bit-identical across parallel backends and worker
    counts; only wall-clock time changes.
    When ``deadline_seconds`` is set (zero or more simulated seconds),
    the components that count are decided by post-hoc bookkeeping over
    the per-component simulated costs (dispatch position ``p`` counts iff
    the summed costs of the positions before it stay under the deadline),
    so even the deadline outcome is identical across backends and worker
    counts.

    Marginal inference
    ------------------
    ``mcsat_samples`` (positive) / ``mcsat_burn_in`` (zero or more)
    control MC-SAT when :meth:`repro.core.engine.TuffyEngine.run_marginal`
    is used.

    Every numeric knob is checked here, so a bad value is a
    :class:`~repro.core.errors.ConfigurationError` at construction, never
    a failure (or a silently empty run) at request time.

    Sessions
    --------
    One :class:`~repro.core.engine.TuffyEngine` is a long-lived session:
    on the ``processes`` backend it keeps its worker pool alive between
    requests, so repeated runs skip the fork + shared-memory repack and
    workers keep their per-component caches warm.  ``delta_grounding``
    enables the per-predicate replay cache so an evidence delta re-grounds
    only the clauses touching changed predicates.  Both preserve the
    determinism contract: a warm request with seed S is bit-identical to a
    cold run with seed S.  An engine serves one request at a time:
    ``run_map`` / ``run_marginal`` on the caller's thread, and
    ``submit_map`` / ``submit_marginal`` futures in submission order.
    ``max_inflight_requests`` has no effect; it is kept, with its
    positivity check, only because the benchmark harness still passes
    it, and ROADMAP item 10 deletes it together with that caller.

    Observability
    -------------
    ``tracing`` selects the session's tracer: ``"auto"`` (record iff
    ``trace_out`` is set), ``"on"`` (always record), ``"off"`` (the no-op
    ``NullTracer``).  Tracing is non-perturbing by contract — results are
    bit-identical traced or not (the obs parity suite proves it).
    ``trace_out`` writes the recorded span tree as Chrome trace-event
    JSON (loadable in Perfetto) when the run finishes; ``metrics_out``
    dumps the session's metrics registry (JSON when the path ends in
    ``.json``, text otherwise).
    """

    seed: int = 0
    # Grounding.
    grounding_strategy: str = "bottom-up"
    optimizer_options: OptimizerOptions = field(default_factory=OptimizerOptions)
    use_lazy_closure: bool = False
    # Search.
    max_flips: int = 100_000
    max_tries: int = 1
    noise: float = 0.5
    use_partitioning: bool = True
    memory_budget_bytes: Optional[int] = None
    bytes_per_state_unit: int = 64
    gauss_seidel_rounds: int = 3
    workers: int = 1
    parallel_backend: str = "auto"
    target_cost: Optional[float] = None
    deadline_seconds: Optional[float] = None
    # Marginal inference.
    mcsat_samples: int = 100
    mcsat_burn_in: int = 10
    # Sessions (warm request path).
    delta_grounding: bool = True
    max_inflight_requests: int = 1
    # Observability.
    tracing: str = "auto"
    trace_out: Optional[str] = None
    metrics_out: Optional[str] = None
    # Cost model of the simulated clock.
    cost_model: CostModel = field(default_factory=CostModel)

    def __post_init__(self) -> None:
        if self.grounding_strategy not in ("bottom-up", "top-down"):
            raise ConfigurationError(
                f"unknown grounding strategy {self.grounding_strategy!r}"
            )
        if self.max_flips <= 0:
            raise ConfigurationError("max_flips must be positive")
        if self.max_tries <= 0:
            raise ConfigurationError("max_tries must be positive")
        if not 0.0 <= self.noise <= 1.0:
            raise ConfigurationError("noise must be within [0, 1]")
        if self.workers <= 0:
            raise ConfigurationError("workers must be positive")
        if self.parallel_backend not in PARALLEL_BACKENDS:
            raise ConfigurationError(
                f"unknown parallel backend {self.parallel_backend!r}; "
                f"expected one of {PARALLEL_BACKENDS}"
            )
        if self.memory_budget_bytes is not None and self.memory_budget_bytes <= 0:
            raise ConfigurationError("memory_budget_bytes must be positive when set")
        if self.bytes_per_state_unit <= 0:
            raise ConfigurationError("bytes_per_state_unit must be positive")
        if self.deadline_seconds is not None and self.deadline_seconds < 0:
            raise ConfigurationError("deadline_seconds cannot be negative")
        if self.gauss_seidel_rounds <= 0:
            raise ConfigurationError("gauss_seidel_rounds must be positive")
        if self.mcsat_samples <= 0:
            raise ConfigurationError("mcsat_samples must be positive")
        if self.mcsat_burn_in < 0:
            raise ConfigurationError("mcsat_burn_in cannot be negative")
        if self.max_inflight_requests <= 0:
            raise ConfigurationError("max_inflight_requests must be positive")
        if self.tracing not in ("auto", "on", "off"):
            raise ConfigurationError(
                f"unknown tracing mode {self.tracing!r}; "
                "expected one of ('auto', 'on', 'off')"
            )
        # Combinations that would silently ignore one of their settings.
        if self.tracing == "off" and self.trace_out is not None:
            raise ConfigurationError(
                "trace_out needs tracing 'auto' or 'on': with tracing 'off' "
                "no span is recorded, so the trace would be empty"
            )
        if self.memory_budget_bytes is not None and not self.use_partitioning:
            raise ConfigurationError(
                "memory_budget_bytes needs use_partitioning: the monolithic "
                "search never splits the MRF, so the budget would be ignored"
            )

    @property
    def tracing_enabled(self) -> bool:
        """Whether the session should record spans (vs the no-op tracer)."""
        if self.tracing == "on":
            return True
        if self.tracing == "off":
            return False
        return self.trace_out is not None
