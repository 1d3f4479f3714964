"""The Alchemy-style baseline engine.

Alchemy (the reference MLN system the paper benchmarks against) differs from
Tuffy in three ways that matter for the experiments:

* **Grounding** is top-down: nested loops over bindings in rule order, with
  no join reordering, no hash joins and no pushdown — orders of magnitude
  slower on join-heavy programs (Table 2, Table 6).
* **Memory**: the entire grounding computation, including its intermediate
  state, lives in RAM, so the peak footprint is the peak of grounding, not
  of search (Table 4).
* **Search** is one WalkSAT over the whole MRF; it keeps a single global
  best state and is unaware of components, which Theorem 3.1 shows costs it
  an exponential number of extra steps on fragmented MRFs (Table 5,
  Figures 5 and 8).

The engine exposes the same result type as :class:`~repro.core.engine.TuffyEngine`
so benchmark harnesses can compare them directly.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import InferenceConfig
from repro.core.program import MLNProgram
from repro.core.results import InferenceResult
from repro.grounding.result import GroundingResult
from repro.grounding.top_down import TopDownGrounder
from repro.inference.walksat import WalkSAT, WalkSATOptions
from repro.mrf.graph import MRF
from repro.utils.clock import SimulatedClock
from repro.utils.memory import MemoryModel
from repro.utils.rng import RandomSource
from repro.utils.timer import Timer


class AlchemyEngine:
    """Top-down grounding + monolithic in-memory WalkSAT."""

    def __init__(
        self,
        program: MLNProgram,
        config: Optional[InferenceConfig] = None,
    ) -> None:
        self.program = program
        base = config or InferenceConfig()
        # Alchemy has no RDBMS and no partitioning regardless of the config.
        self.config = base
        self.memory_model = MemoryModel()
        self.timer = Timer()
        self.grounding_result: Optional[GroundingResult] = None
        self.mrf: Optional[MRF] = None

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------

    def ground(self) -> GroundingResult:
        """Top-down grounding, holding all intermediate state in memory."""
        if self.grounding_result is not None:
            return self.grounding_result
        clauses = self.program.clauses()
        atoms = self.program.build_atom_registry()
        grounder = TopDownGrounder(
            merge_duplicates=True,
            memory_model=self.memory_model,
        )
        with self.timer.measure("grounding"):
            self.grounding_result = grounder.ground(clauses, atoms)
        return self.grounding_result

    def build_mrf(self) -> MRF:
        if self.mrf is None:
            self.mrf = MRF.from_store(self.ground().clauses)
        return self.mrf

    def run_map(self) -> InferenceResult:
        """Ground, then run a single component-blind WalkSAT."""
        config = self.config
        grounding = self.ground()
        mrf = self.build_mrf()
        clock = SimulatedClock(config.cost_model)
        options = WalkSATOptions(
            max_flips=config.max_flips,
            max_tries=config.max_tries,
            noise=config.noise,
            target_cost=config.target_cost,
            deadline_seconds=config.deadline_seconds,
            trace_label="alchemy",
        )
        with self.timer.measure("search"):
            outcome = WalkSAT(options, RandomSource(config.seed), clock).run(mrf)

        # Alchemy's peak RAM is the grounding peak (intermediate state) plus
        # the search state over the whole MRF.
        search_state_bytes = config.bytes_per_state_unit * mrf.size()
        peak_memory = self.memory_model.peak_bytes + search_state_bytes
        trace = outcome.trace
        trace.grounding_seconds = grounding.seconds
        return InferenceResult(
            label="alchemy",
            assignment=outcome.best_assignment,
            cost=outcome.best_cost + grounding.clauses.evidence_violation_cost,
            atoms=grounding.atoms,
            grounding=grounding,
            flips=outcome.flips,
            component_count=1,
            phase_seconds=self.timer.breakdown(),
            simulated_seconds=clock.now(),
            trace=trace,
            memory=self.memory_model.snapshot(),
            peak_memory_bytes=peak_memory,
        )
