"""RDBMS-backed WalkSAT — the paper's Tuffy-mm variant (Appendix B.2).

When the ground MRF does not fit in main memory, Tuffy falls back to running
the search *inside* the RDBMS.  The paper reports that this is three to five
orders of magnitude slower per flip (Table 3), because every step performs
random accesses to on-disk clause and atom data, each paying page-I/O and
MVCC overhead.

This implementation reproduces that architecture against the embedded
engine: the clause table and the atom assignment table live in the storage
manager, and each WalkSAT step

* scans the clause table to find the violated clauses (sequential page
  reads charged to the simulated clock),
* evaluates candidate flips by re-reading the affected clauses (random page
  reads), and
* writes the flipped atom back (a random page write).

Correctness is identical to the in-memory search (same algorithm, same
RNG); only the charged cost differs, which is exactly the comparison the
paper makes.  (The Python-side bookkeeping reuses the flat-array
:class:`~repro.inference.state.SearchState` kernel plus a precomputed
atom -> clause index, so the *wall-clock* cost of simulating the slow
architecture no longer scales with the full clause table per flip — the
simulated clock still charges the scans and random page reads the on-disk
architecture would pay.)
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.grounding.clause_table import GroundClauseStore, table_weight
from repro.inference.state import SearchState
from repro.inference.walksat import WalkSATOptions, WalkSATResult
from repro.mrf.graph import MRF
from repro.obs.events import Series
from repro.rdbms.database import Database
from repro.rdbms.schema import TableSchema
from repro.rdbms.types import ColumnType
from repro.utils.clock import SimulatedClock, WallClock
from repro.utils.rng import RandomSource

ATOM_TABLE = "search_atoms"
CLAUSE_TABLE = "search_clauses"


@dataclass
class _StoredClause:
    """Location and content of one clause row in the storage manager."""

    page: int
    slot: int
    literals: Tuple[int, ...]
    weight: float
    is_hard: bool


class RDBMSWalkSAT:
    """WalkSAT whose working state lives in the relational storage layer."""

    def __init__(
        self,
        database: Optional[Database] = None,
        options: Optional[WalkSATOptions] = None,
        rng: Optional[RandomSource] = None,
    ) -> None:
        self.database = database or Database()
        self.options = options or WalkSATOptions(max_flips=1_000, trace_label="tuffy-mm")
        self.rng = rng or RandomSource(0)
        self.clock: SimulatedClock = self.database.clock

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(
        self,
        mrf: MRF,
        initial_assignment: Optional[Mapping[int, bool]] = None,
    ) -> WalkSATResult:
        wall = WallClock()
        atom_locations, clause_rows = self._load_tables(mrf)
        assignment = {atom_id: False for atom_id in mrf.atom_ids}
        if initial_assignment:
            for atom_id, value in initial_assignment.items():
                if atom_id in assignment:
                    assignment[atom_id] = bool(value)

        soft_total = functools.reduce(
            operator.add, (abs(c.weight) for c in mrf.clauses if not c.is_hard), 0.0
        )
        hard_penalty = max(10.0 * soft_total, 10.0)
        # The in-memory kernel mirrors the on-disk state so the Python-side
        # bookkeeping is incremental; the *simulated* clock is still charged
        # exactly what the on-disk architecture would pay (full sequential
        # clause scans per step, random page reads per candidate flip).
        state = SearchState(mrf, assignment, hard_penalty=hard_penalty)
        page_count = len({clause.page for clause in clause_rows})
        atom_clause_index: Dict[int, List[int]] = {atom_id: [] for atom_id in mrf.atom_ids}
        for index, clause in enumerate(clause_rows):
            for atom_id in sorted({abs(literal) for literal in clause.literals}):
                if atom_id in atom_clause_index:
                    atom_clause_index[atom_id].append(index)
        atom_page_counts = {
            atom_id: len({clause_rows[i].page for i in indices})
            for atom_id, indices in atom_clause_index.items()
        }

        trace = Series(self.options.trace_label)
        best_cost = math.inf
        best_assignment = dict(assignment)
        flips = 0
        options = self.options

        for _try in range(options.max_tries):
            if options.random_restarts and initial_assignment is None:
                for atom_id in assignment:
                    assignment[atom_id] = self.rng.coin()
                state.reset(assignment)
            for _flip in range(options.max_flips):
                if options.deadline_seconds is not None and self.clock.now() >= options.deadline_seconds:
                    break
                # One pass over the on-disk clause table (sequential reads).
                self.clock.charge("sequential_page_read", count=page_count)
                cost = state.cost
                if cost < best_cost:
                    best_cost = cost
                    best_assignment = dict(assignment)
                    trace.record_improvement(self.clock.now(), best_cost, flips)
                if options.target_cost is not None and best_cost <= options.target_cost:
                    break
                if not state.has_violations():
                    break
                # Violated rows in clause-table order, as the scan produced.
                violated = [
                    clause_rows[i] for i in sorted(state.violated_clause_indices())
                ]
                clause = self.rng.pick(violated)
                atom_id = self._choose_atom(
                    clause, clause_rows, assignment, hard_penalty,
                    atom_clause_index, atom_page_counts,
                )
                assignment[atom_id] = not assignment[atom_id]
                state.flip_atom_id(atom_id)
                self._write_atom(atom_locations[atom_id], atom_id, assignment[atom_id])
                flips += 1
                self.clock.charge("rdbms_flip_overhead")
            if options.target_cost is not None and best_cost <= options.target_cost:
                break
            # A deadline hit mid-try must also stop the restart loop; the
            # simulated clock never rolls back, so later tries could only
            # burn further past the deadline.
            if (
                options.deadline_seconds is not None
                and self.clock.now() >= options.deadline_seconds
            ):
                break

        # Account for the final state as well.
        self.clock.charge("sequential_page_read", count=page_count)
        if state.cost < best_cost:
            best_cost = state.cost
            best_assignment = dict(assignment)
            trace.record_improvement(self.clock.now(), best_cost, flips)

        return WalkSATResult(
            best_assignment=best_assignment,
            best_cost=best_cost,
            flips=flips,
            tries=1,
            seconds=wall.elapsed(),
            trace=trace,
        )

    # ------------------------------------------------------------------
    # Storage interaction
    # ------------------------------------------------------------------

    def _load_tables(
        self, mrf: MRF
    ) -> Tuple[Dict[int, Tuple[int, int]], List[_StoredClause]]:
        """Materialise the atom and clause tables in the storage manager."""
        atom_schema = TableSchema.of(("aid", ColumnType.INTEGER), ("value", ColumnType.BOOLEAN))
        clause_schema = GroundClauseStore.table_schema()
        for name, schema in ((ATOM_TABLE, atom_schema), (CLAUSE_TABLE, clause_schema)):
            if self.database.has_table(name):
                self.database.table(name).truncate()
            else:
                self.database.create_table(name, schema)

        storage = self.database.storage
        atom_locations: Dict[int, Tuple[int, int]] = {}
        atom_table = self.database.table(ATOM_TABLE)
        for atom_id in mrf.atom_ids:
            row = atom_table.schema.validate_row((atom_id, False))
            atom_table.rows.append(row)
            atom_locations[atom_id] = storage.append_row(ATOM_TABLE, row)

        clause_rows: List[_StoredClause] = []
        clause_table = self.database.table(CLAUSE_TABLE)
        for clause in mrf.clauses:
            row = clause_table.schema.validate_row(
                (
                    clause.clause_id,
                    " ".join(str(literal) for literal in clause.literals),
                    table_weight(clause.weight),
                    clause.source or "",
                )
            )
            clause_table.rows.append(row)
            page, slot = storage.append_row(CLAUSE_TABLE, row)
            clause_rows.append(
                _StoredClause(page, slot, clause.literals, clause.weight, clause.is_hard)
            )
        return atom_locations, clause_rows

    def _choose_atom(
        self,
        clause: _StoredClause,
        clause_rows: List[_StoredClause],
        assignment: Dict[int, bool],
        hard_penalty: float,
        atom_clause_index: Dict[int, List[int]],
        atom_page_counts: Dict[int, int],
    ) -> int:
        atom_ids = sorted({abs(literal) for literal in clause.literals})
        if len(atom_ids) == 1:
            return atom_ids[0]
        # Strict comparison, matching the in-memory WalkSAT noise semantics.
        if self.rng.random() < self.options.noise:
            return self.rng.pick(atom_ids)
        best_atom = atom_ids[0]
        best_delta = self._delta_cost(
            best_atom, clause_rows, assignment, hard_penalty,
            atom_clause_index, atom_page_counts,
        )
        for atom_id in atom_ids[1:]:
            delta = self._delta_cost(
                atom_id, clause_rows, assignment, hard_penalty,
                atom_clause_index, atom_page_counts,
            )
            if delta < best_delta:
                best_delta = delta
                best_atom = atom_id
        return best_atom

    def _delta_cost(
        self,
        atom_id: int,
        clause_rows: List[_StoredClause],
        assignment: Dict[int, bool],
        hard_penalty: float,
        atom_clause_index: Dict[int, List[int]],
        atom_page_counts: Dict[int, int],
    ) -> float:
        """Cost delta of flipping one atom; re-reads the clauses that mention it.

        The precomputed atom -> clause index replaces the seed's full scan of
        the clause table; the charged page reads (the pages containing the
        affected clauses) are identical.
        """
        delta = 0.0
        for index in atom_clause_index.get(atom_id, ()):
            clause = clause_rows[index]
            weight = hard_penalty if clause.is_hard else abs(clause.weight)
            before = self._violated(clause, assignment)
            assignment[atom_id] = not assignment[atom_id]
            after = self._violated(clause, assignment)
            assignment[atom_id] = not assignment[atom_id]
            if before and not after:
                delta -= weight
            elif not before and after:
                delta += weight
        # Random reads of the pages containing the affected clauses.
        self.clock.charge("page_read", count=atom_page_counts.get(atom_id, 0))
        return delta

    @staticmethod
    def _violated(clause: _StoredClause, assignment: Dict[int, bool]) -> bool:
        satisfied = any(
            assignment.get(abs(literal), False) == (literal > 0)
            for literal in clause.literals
        )
        return satisfied if clause.weight < 0 else not satisfied

    def _write_atom(self, location: Tuple[int, int], atom_id: int, value: bool) -> None:
        page, slot = location
        self.database.storage.write_row(ATOM_TABLE, page, slot, (atom_id, value))
