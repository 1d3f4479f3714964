"""Inference results returned by the engines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.grounding.atoms import AtomRegistry
from repro.grounding.result import GroundingResult
from repro.inference.mcsat import MarginalResult
from repro.logic.predicates import GroundAtom
from repro.obs.events import Series
from repro.utils.memory import MemoryReport


@dataclass
class InferenceResult:
    """The outcome of a MAP (or marginal) inference run.

    ``assignment`` maps atom ids to truth values for every query atom; the
    helpers below translate back to ground atoms via the atom registry.
    ``cost`` is the MLN cost of the returned world (evidence-violation
    constant included).  ``phase_seconds`` breaks the wall-clock time down by
    pipeline phase, and ``trace`` is the best-cost-over-time curve used by
    the figure benchmarks.
    """

    label: str
    assignment: Dict[int, bool]
    cost: float
    atoms: AtomRegistry
    grounding: GroundingResult
    flips: int = 0
    component_count: int = 1
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    simulated_seconds: float = 0.0
    trace: Series = field(default_factory=Series)
    memory: Optional[MemoryReport] = None
    peak_memory_bytes: int = 0
    marginals: Optional[MarginalResult] = None

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------

    def truth_of(self, predicate_name: str, arguments: List[str]) -> Optional[bool]:
        """Truth of a specific atom in the returned world.

        Evidence atoms return their evidence value; query atoms return the
        inferred value; unknown atoms return ``None``.
        """
        atom_id = self.atoms.lookup(predicate_name, arguments)
        if atom_id is None:
            return None
        record = self.atoms.record(atom_id)
        if record.truth is not None:
            return record.truth
        return self.assignment.get(atom_id, False)

    def true_atoms(self, predicate_name: Optional[str] = None) -> List[GroundAtom]:
        """Query atoms inferred true (optionally restricted to one predicate)."""
        result = []
        for atom_id, value in sorted(self.assignment.items()):
            if not value:
                continue
            record = self.atoms.record(atom_id)
            if record.truth is not None:
                continue
            if predicate_name is None or record.atom.predicate.name == predicate_name:
                result.append(record.atom)
        return result

    @property
    def total_seconds(self) -> float:
        return sum(self.phase_seconds.values())

    @property
    def grounding_seconds(self) -> float:
        return self.phase_seconds.get("grounding", 0.0)

    @property
    def search_seconds(self) -> float:
        return self.phase_seconds.get("search", 0.0)

    @property
    def flips_per_second(self) -> float:
        search = self.search_seconds
        return self.flips / search if search > 0 else 0.0

    def summary(self) -> Dict[str, object]:
        """A flat summary used by reports and benchmark tables."""
        return {
            "label": self.label,
            "cost": self.cost,
            "flips": self.flips,
            "components": self.component_count,
            "atoms": len(self.atoms),
            "query_atoms": len(self.atoms.query_atom_ids()),
            "ground_clauses": self.grounding.ground_clause_count,
            "grounding_seconds": round(self.grounding_seconds, 4),
            "search_seconds": round(self.search_seconds, 4),
            "simulated_seconds": round(self.simulated_seconds, 4),
            "peak_memory_mb": round(self.peak_memory_bytes / (1024.0 * 1024.0), 3),
        }
