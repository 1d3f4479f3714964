"""Batch loading of MRF components from the clause table.

After grounding, the clause table lives in the RDBMS.  Running inference on
each component separately would re-scan (or at least re-seek) the clause
table once per component; with thousands of tiny components (the IE dataset
in the paper) that I/O dominates.  The batch loader instead packs components
into memory-budget-sized batches with First-Fit-Decreasing and loads each
batch with a single pass, which is the optimisation behind Table 7.

The loader charges its I/O to the database's simulated clock, so benchmarks
can report the deterministic cost of both strategies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.grounding.clause_table import CLAUSE_TABLE_NAME
from repro.mrf.graph import MRF
from repro.rdbms.database import Database
from repro.utils.memory import MemoryModel


@dataclass
class LoadPlan:
    """The loading schedule: batches of components plus accounting."""

    batches: List[List[MRF]] = field(default_factory=list)
    batch_sizes: List[float] = field(default_factory=list)
    memory_budget: float = 0.0
    scans: int = 0
    simulated_seconds: float = 0.0

    @property
    def batch_count(self) -> int:
        return len(self.batches)

    @property
    def component_count(self) -> int:
        return sum(len(batch) for batch in self.batches)

    def peak_batch_size(self) -> float:
        return max(self.batch_sizes, default=0.0)


class BatchLoader:
    """Loads components from the clause table in memory-bounded batches."""

    def __init__(
        self,
        database: Database,
        memory_budget: float,
        memory_model: Optional[MemoryModel] = None,
        clause_table: str = CLAUSE_TABLE_NAME,
    ) -> None:
        if memory_budget <= 0:
            raise ValueError("memory_budget must be positive")
        self.database = database
        self.memory_budget = memory_budget
        self.memory_model = memory_model
        self.clause_table = clause_table

    # ------------------------------------------------------------------
    # Planning and loading
    # ------------------------------------------------------------------

    def plan(self, components: Sequence[MRF], batched: bool = True) -> LoadPlan:
        """Group components into batches (or one batch per component)."""
        from repro.partitioning.binpacking import first_fit_decreasing

        plan = LoadPlan(memory_budget=self.memory_budget)
        if batched:
            bins = first_fit_decreasing(
                list(components), self.memory_budget, lambda component: float(component.size())
            )
            for bin_ in bins:
                plan.batches.append(list(bin_.items))  # type: ignore[arg-type]
                plan.batch_sizes.append(bin_.used)
        else:
            for component in components:
                plan.batches.append([component])
                plan.batch_sizes.append(float(component.size()))
        return plan

    def load(self, components: Sequence[MRF], batched: bool = True) -> LoadPlan:
        """Execute the plan, charging one clause-table scan per batch."""
        plan = self.plan(components, batched=batched)
        before = self.database.clock.now()
        for batch in plan.batches:
            self._scan_clause_table()
            plan.scans += 1
            if self.memory_model is not None:
                literals = sum(component.total_literals() for component in batch)
                clauses = sum(component.clause_count for component in batch)
                atoms = sum(component.atom_count for component in batch)
                self.memory_model.charge_clauses(clauses, literals, category="loaded_batch")
                self.memory_model.charge_atoms(atoms, category="loaded_batch_atoms")
                self.memory_model.release("loaded_batch")
                self.memory_model.release("loaded_batch_atoms")
        plan.simulated_seconds = self.database.clock.now() - before
        return plan

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _scan_clause_table(self) -> None:
        """Charge one sequential pass over the persisted clause table.

        The pass reads every page through the buffer pool; no row is built.
        """
        if not self.database.has_table(self.clause_table):
            return
        table = self.database.table(self.clause_table)
        if table.storage is not None:
            table.storage.charge_scan(table.name)
