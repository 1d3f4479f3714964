"""Ground clauses and the clause store (the paper's table ``C(cid, lits, weight)``).

A ground clause is a weighted disjunction over *signed atom ids*: ``+aid``
means the clause contains the atom positively, ``-aid`` negatively.  Only
atoms whose truth value is unknown appear; literals already decided by the
evidence are resolved at grounding time (a satisfied literal removes the
whole clause, an unsatisfied one is dropped from the disjunction).

Duplicate ground clauses over the same literal set are merged by summing
their weights, which is what both Alchemy and Tuffy do, and which keeps the
search cost function identical while shrinking the clause table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.rdbms.database import Database
from repro.rdbms.schema import TableSchema
from repro.rdbms.types import ColumnType

try:  # gated dependency: add_batch has a vectorized path for numpy inputs
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None  # type: ignore[assignment]

CLAUSE_TABLE_NAME = "ground_clauses"


@dataclass(slots=True)
class GroundClause:
    """A single ground clause.

    ``literals`` is a tuple of non-zero signed atom ids; ``weight`` may be
    negative (the clause is violated when *satisfied*) or infinite (hard).
    ``source`` names the first-order rule this clause was instantiated from.
    Slotted: grounding materialises these by the hundreds of thousands.
    """

    clause_id: int
    literals: Tuple[int, ...]
    weight: float
    source: Optional[str] = None

    def __post_init__(self) -> None:
        if any(literal == 0 for literal in self.literals):
            raise ValueError("literal ids must be non-zero signed integers")

    @property
    def is_hard(self) -> bool:
        return math.isinf(self.weight)

    @property
    def atom_ids(self) -> Tuple[int, ...]:
        return tuple(abs(literal) for literal in self.literals)

    def is_satisfied(self, assignment: Sequence[bool]) -> bool:
        """Whether the clause is satisfied under a 1-indexed truth assignment.

        ``assignment`` is indexable by atom id (index 0 is unused).
        """
        for literal in self.literals:
            value = assignment[abs(literal)]
            if (literal > 0 and value) or (literal < 0 and not value):
                return True
        return False

    def is_violated(self, assignment: Sequence[bool]) -> bool:
        """Violation in the paper's sense: w>0 and unsatisfied, or w<0 and satisfied."""
        satisfied = self.is_satisfied(assignment)
        if self.weight >= 0:
            return not satisfied
        return satisfied

    def violation_cost(self, assignment: Sequence[bool]) -> float:
        return abs(self.weight) if self.is_violated(assignment) else 0.0


class GroundClauseStore:
    """An append-only collection of ground clauses with duplicate merging."""

    def __init__(self, merge_duplicates: bool = True) -> None:
        self.merge_duplicates = merge_duplicates
        self._clauses: List[GroundClause] = []
        self._by_key: Dict[Tuple[int, ...], int] = {}
        self.evidence_violation_cost = 0.0
        self.satisfied_by_evidence = 0
        self.tautologies = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add(
        self,
        literals: Sequence[int],
        weight: float,
        source: Optional[str] = None,
    ) -> Optional[GroundClause]:
        """Add a ground clause, merging with an existing identical one.

        Returns the stored clause, or ``None`` when the clause was empty
        (fully decided by evidence) and only affected the constant cost.
        """
        # Repeated identical literals in a disjunction are redundant; dropping
        # them keeps the cost function identical and makes the stored clause
        # independent of the order groundings were produced in.
        literals = tuple(dict.fromkeys(literals))
        if not literals:
            # An empty clause cannot be satisfied by any assignment: if its
            # weight is positive it contributes a constant violation cost.
            if weight > 0 and not math.isinf(weight):
                self.evidence_violation_cost += weight
            return None
        if len({abs(literal) for literal in literals}) < len(literals):
            # The clause contains both an atom and its negation: it is a
            # tautology, satisfied in every world, and carries no information.
            self.tautologies += 1
            return None
        if self.merge_duplicates and not math.isinf(weight):
            # ``literals`` is already duplicate-free, so sorting it gives the
            # canonical key directly.
            key = tuple(sorted(literals))
            existing_index = self._by_key.get(key)
            if existing_index is not None:
                existing = self._clauses[existing_index]
                if not existing.is_hard:
                    existing.weight += weight
                    return existing
            clause = GroundClause(len(self._clauses) + 1, literals, weight, source)
            self._clauses.append(clause)
            self._by_key[key] = len(self._clauses) - 1
            return clause
        clause = GroundClause(len(self._clauses) + 1, literals, weight, source)
        self._clauses.append(clause)
        return clause

    def add_batch(
        self,
        flat_literals: Sequence[int],
        row_lengths: Sequence[int],
        weight: float,
        source: Optional[str] = None,
    ) -> int:
        """Add many ground clauses of one first-order clause at once.

        ``flat_literals`` holds the signed literals of every clause
        back-to-back; ``row_lengths`` gives each clause's literal count, in
        order.  Semantics — duplicate merging, weight summing, hard-clause
        handling, tautology/empty-clause accounting and clause ordering —
        are exactly those of calling :meth:`add` once per row (the batched
        grounding consumer relies on this; the test suite enforces it).
        Returns the number of rows that stored or merged a clause
        (i.e. for which :meth:`add` returned a clause).

        When the inputs are numpy arrays, per-row canonicalisation
        (literal dedup, tautology detection, duplicate-row grouping) runs
        vectorized and the Python loop touches only distinct clauses.
        Weight merging remains *sequential addition* (never a
        count-times-weight product), so results stay bit-identical to
        repeated ``add`` calls.
        """
        if np is not None and isinstance(flat_literals, np.ndarray):
            return self._add_batch_arrays(
                flat_literals, np.asarray(row_lengths, dtype=np.int64), weight, source
            )
        # Inlined fast path of :meth:`add`: the weight classification and
        # attribute lookups are hoisted out of the per-row loop (the batch
        # shares one weight/source).  tests/test_clause_store_batch.py
        # cross-checks this loop against repeated ``add`` calls.
        if sum(row_lengths) != len(flat_literals):
            raise ValueError(
                f"row_lengths cover {sum(row_lengths)} literals, got {len(flat_literals)}"
            )
        clauses = self._clauses
        by_key = self._by_key
        hard = math.isinf(weight)
        merge = self.merge_duplicates and not hard
        charge_empty = weight > 0 and not hard
        stored = 0
        offset = 0
        for length in row_lengths:
            end = offset + length
            literals = tuple(dict.fromkeys(flat_literals[offset:end]))
            offset = end
            if not literals:
                if charge_empty:
                    self.evidence_violation_cost += weight
                continue
            if len({abs(literal) for literal in literals}) < len(literals):
                self.tautologies += 1
                continue
            if merge:
                key = tuple(sorted(literals))
                existing_index = by_key.get(key)
                if existing_index is not None:
                    existing = clauses[existing_index]
                    if not existing.is_hard:
                        existing.weight += weight
                        stored += 1
                        continue
                clauses.append(GroundClause(len(clauses) + 1, literals, weight, source))
                by_key[key] = len(clauses) - 1
            else:
                clauses.append(GroundClause(len(clauses) + 1, literals, weight, source))
            stored += 1
        return stored

    def _add_batch_arrays(
        self,
        flat: "np.ndarray",
        lengths: "np.ndarray",
        weight: float,
        source: Optional[str],
    ) -> int:
        """Vectorized :meth:`add_batch` over numpy inputs.

        Canonicalisation (intra-row literal dedup, tautology detection,
        duplicate-row grouping) runs on a 0-padded ``(rows, max_len)``
        literal matrix; the Python loop then visits each *distinct* clause
        once, in first-occurrence order — which assigns the same clause ids
        and performs the same sequential weight additions as row-at-a-time
        :meth:`add` calls.
        """
        row_count = len(lengths)
        if int(lengths.sum()) != len(flat):
            raise ValueError(
                f"row_lengths cover {int(lengths.sum())} literals, got {len(flat)}"
            )
        if row_count == 0:
            return 0
        hard = math.isinf(weight)
        merge = self.merge_duplicates and not hard
        alive = lengths > 0
        empty_rows = row_count - int(alive.sum())
        if empty_rows and weight > 0 and not hard:
            cost = self.evidence_violation_cost
            for _ in range(empty_rows):
                cost += weight
            self.evidence_violation_cost = cost
        if empty_rows == row_count:
            return 0

        max_len = int(lengths.max())
        offsets = np.concatenate(([0], np.cumsum(lengths[:-1])))
        padded = np.zeros((row_count, max_len), dtype=np.int64)
        padded[
            np.repeat(np.arange(row_count), lengths),
            np.arange(len(flat)) - np.repeat(offsets, lengths),
        ] = flat
        # Intra-row duplicate literals (0 is the pad, never a literal):
        # zero out repeats until every sorted row is repeat-free.
        canonical = np.sort(padded, axis=1)
        has_duplicates = np.zeros(row_count, dtype=bool)
        while True:
            repeats = (canonical[:, 1:] == canonical[:, :-1]) & (canonical[:, 1:] != 0)
            repeat_rows = repeats.any(axis=1)
            if not repeat_rows.any():
                break
            has_duplicates |= repeat_rows
            canonical[:, 1:][repeats] = 0
            canonical = np.sort(canonical, axis=1)
        # Tautologies: an atom surviving with both signs.
        abs_sorted = np.sort(np.abs(canonical), axis=1)
        tautological = (
            (abs_sorted[:, 1:] == abs_sorted[:, :-1]) & (abs_sorted[:, 1:] != 0)
        ).any(axis=1) & alive
        self.tautologies += int(tautological.sum())
        keep = alive & ~tautological
        kept_rows = np.nonzero(keep)[0]
        if len(kept_rows) == 0:
            return 0

        flat_list = flat.tolist()
        offsets_list = offsets.tolist()
        lengths_list = lengths.tolist()
        clauses = self._clauses

        def row_literals(row: int) -> Tuple[int, ...]:
            start = offsets_list[row]
            literals = tuple(flat_list[start : start + lengths_list[row]])
            if has_duplicates[row]:
                literals = tuple(dict.fromkeys(literals))
            return literals

        if not merge:
            for row in kept_rows.tolist():
                clauses.append(
                    GroundClause(len(clauses) + 1, row_literals(row), weight, source)
                )
            return len(kept_rows)

        # Group identical canonical rows: the padded sorted rows are an
        # injective encoding of the literal sets (zeros are pads).
        if max_len == 1:
            group_ids = canonical[kept_rows, 0]
        else:
            from repro.rdbms.column_batch import composite_codes

            key_matrix = canonical[kept_rows]
            group_ids = composite_codes(
                [key_matrix[:, column] for column in range(max_len)]
            )
        order = np.argsort(group_ids, kind="stable")
        sorted_ids = group_ids[order]
        boundary = np.empty(len(sorted_ids), dtype=bool)
        boundary[0] = True
        boundary[1:] = sorted_ids[1:] != sorted_ids[:-1]
        group_starts = np.nonzero(boundary)[0]
        group_counts = np.diff(np.append(group_starts, len(sorted_ids)))
        # Stable sort keeps each group's rows ascending, so the run head is
        # the group's first occurrence; process groups in that global order.
        first_rows = kept_rows[order[group_starts]]
        by_key = self._by_key
        for group in np.argsort(first_rows, kind="stable").tolist():
            row = int(first_rows[group])
            count = int(group_counts[group])
            literals = row_literals(row)
            key = tuple(sorted(literals))
            existing_index = by_key.get(key)
            if existing_index is not None:
                existing = clauses[existing_index]
                if not existing.is_hard:
                    merged_weight = existing.weight
                    for _ in range(count):
                        merged_weight += weight
                    existing.weight = merged_weight
                    continue
            clause = GroundClause(len(clauses) + 1, literals, weight, source)
            if count > 1:
                merged_weight = clause.weight
                for _ in range(count - 1):
                    merged_weight += weight
                clause.weight = merged_weight
            clauses.append(clause)
            by_key[key] = len(clauses) - 1
        return len(kept_rows)

    def record_satisfied_by_evidence(self, count: int = 1) -> None:
        self.satisfied_by_evidence += count

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._clauses)

    def __iter__(self) -> Iterator[GroundClause]:
        return iter(self._clauses)

    def __getitem__(self, index: int) -> GroundClause:
        return self._clauses[index]

    def clauses(self) -> List[GroundClause]:
        return list(self._clauses)

    def atom_ids(self) -> List[int]:
        """All distinct atom ids referenced by any clause, sorted."""
        seen = set()
        for clause in self._clauses:
            seen.update(map(abs, clause.literals))
        return sorted(seen)

    def total_literals(self) -> int:
        return sum(len(clause.literals) for clause in self._clauses)

    def hard_clause_count(self) -> int:
        return sum(1 for clause in self._clauses if clause.is_hard)

    # ------------------------------------------------------------------
    # RDBMS persistence
    # ------------------------------------------------------------------

    @staticmethod
    def table_schema() -> TableSchema:
        """Schema of the clause table ``C(cid, lits, weight)`` (paper §3.1)."""
        return TableSchema.of(
            ("cid", ColumnType.INTEGER),
            ("lits", ColumnType.TEXT),
            ("weight", ColumnType.REAL),
            ("source", ColumnType.TEXT),
        )

    def store_in_database(self, database: Database, table_name: str = CLAUSE_TABLE_NAME) -> None:
        """Materialise the clause store into an RDBMS table."""
        if not database.has_table(table_name):
            database.create_table(table_name, self.table_schema())
        else:
            database.table(table_name).truncate()
        rows = [
            (
                clause.clause_id,
                " ".join(map(str, clause.literals)),
                1e300 if clause.is_hard else float(clause.weight),
                clause.source or "",
            )
            for clause in self._clauses
        ]
        # The rows above are constructed schema-exact (INTEGER, TEXT, REAL,
        # TEXT), so take the validation-free load path; invalidate statistics
        # like Database.bulk_load would.
        database.table(table_name).bulk_load_validated(rows)
        database.statistics.invalidate(table_name)

    @classmethod
    def load_from_database(
        cls, database: Database, table_name: str = CLAUSE_TABLE_NAME
    ) -> "GroundClauseStore":
        """Re-read a clause store previously written with :meth:`store_in_database`."""
        store = cls(merge_duplicates=False)
        table = database.table(table_name)
        cid_pos = table.schema.position("cid")
        lits_pos = table.schema.position("lits")
        weight_pos = table.schema.position("weight")
        source_pos = table.schema.position("source")
        for row in table.scan(charge_io=True):
            literals = tuple(int(token) for token in row[lits_pos].split())
            weight = row[weight_pos]
            if weight >= 1e300:
                weight = math.inf
            store._clauses.append(
                GroundClause(row[cid_pos], literals, weight, row[source_pos] or None)
            )
        return store
