"""The output of a grounding run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.grounding.atoms import AtomRegistry
from repro.grounding.clause_table import GroundClauseStore


@dataclass
class ClauseGroundingStats:
    """Per first-order-clause grounding statistics.

    ``pruned_bindings`` counts the bindings whose ground clause was already
    satisfied by the evidence (Appendix A.3 pruning); ``intermediate_tuples``
    counts the tuples the clause's relational query pushed through its join
    operators (hash-join build+probe rows, nested-loop comparisons) — the
    state that lives inside the RDBMS rather than the inference process,
    the asymmetry behind the paper's Table 4.  ``ingest_seconds`` is the
    part of ``seconds`` spent after the relational query returned, turning
    its result into clause-store entries (evidence pruning of the result
    rows plus ``add`` / ``add_batch``; a replayed clause is all ingest) —
    ``seconds - ingest_seconds`` is what a better join order could save.
    """

    clause_name: str
    ground_clauses: int
    pruned_bindings: int
    seconds: float
    sql: Optional[str] = None
    intermediate_tuples: int = 0
    ingest_seconds: float = 0.0


@dataclass
class GroundingResult:
    """Everything the search phase needs, plus grounding diagnostics."""

    atoms: AtomRegistry
    clauses: GroundClauseStore
    seconds: float = 0.0
    per_clause: List[ClauseGroundingStats] = field(default_factory=list)
    intermediate_tuples: int = 0
    strategy: str = "bottom-up"

    @property
    def ground_clause_count(self) -> int:
        return len(self.clauses)

    @property
    def atom_count(self) -> int:
        return len(self.atoms)

    @property
    def query_atom_count(self) -> int:
        return len(self.atoms.query_atom_ids())

    @property
    def pruned_bindings(self) -> int:
        """Total bindings pruned as satisfied-by-evidence, across clauses."""
        return sum(stats.pruned_bindings for stats in self.per_clause)

    def summary(self) -> Dict[str, float]:
        """A flat dictionary used by reports and benchmarks."""
        return {
            "strategy": self.strategy,
            "seconds": self.seconds,
            "atoms": self.atom_count,
            "query_atoms": self.query_atom_count,
            "ground_clauses": self.ground_clause_count,
            "literals": self.clauses.total_literals(),
            "hard_clauses": self.clauses.hard_clause_count(),
            "pruned_bindings": self.pruned_bindings,
            "intermediate_tuples": self.intermediate_tuples,
        }
