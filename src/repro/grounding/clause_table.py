"""Ground clauses and the clause store (the paper's table ``C(cid, lits, weight)``).

A ground clause is a weighted disjunction over *signed atom ids*: ``+aid``
means the clause contains the atom positively, ``-aid`` negatively.  Only
atoms whose truth value is unknown appear; literals already decided by the
evidence are resolved at grounding time (a satisfied literal removes the
whole clause, an unsatisfied one is dropped from the disjunction).

Duplicate ground clauses over the same literal set are merged by summing
their weights, which is what both Alchemy and Tuffy do, and which keeps the
search cost function identical while shrinking the clause table.

The table is held as columns (:class:`ClauseColumns`): one flat literal
array with row offsets (CSR), a weight column, clause ids and a source
index — the relation loaded into memory arrays once (paper §3.2–3.3).  The
store appends the grounder's arrays to those columns without creating a
Python object per row, and the MRF, its components and the search kernels'
views read the same columns.  :class:`GroundClause` is a *row view*, built
on demand by ``store[i]``, iteration and ``clauses()`` for the API, the
reference kernel, MC-SAT's constraint templates and the tests.

Persistence (:meth:`GroundClauseStore.store_in_database`) writes the table
``C(cid, lits, weight, source)`` by page count: the storage manager charges
the pages, page writes and simulated seconds of the full row load from the
row count, and :func:`clause_table_rows` renders the rows (``lits`` as
text) only for a reader that asks for them —
:meth:`GroundClauseStore.load_from_database` or any row scan.  The batch
loader's passes and the grounding of a cold request never do.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from itertools import accumulate, compress, repeat
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.rdbms.database import Database
from repro.rdbms.schema import TableSchema
from repro.rdbms.types import ColumnType

CLAUSE_TABLE_NAME = "ground_clauses"

#: How the clause table's REAL column spells an infinite weight: the sign
#: is kept, so a negative hard clause ("must stay false") reads back as one.
HARD_WEIGHT_SENTINEL = 1e300

#: Rows rendered per step when the clause table's rows are built.
_PERSIST_CHUNK_ROWS = 4096


@dataclass(slots=True)
class GroundClause:
    """A single ground clause (a row view of the clause table).

    ``literals`` is a tuple of non-zero signed atom ids; ``weight`` may be
    negative (the clause is violated when *satisfied*) or infinite (hard).
    ``source`` names the first-order rule this clause was instantiated from.
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


@dataclass(slots=True, eq=False)
class ClauseColumns:
    """Clause rows as columns — the one representation below the grounder.

    Row ``i`` has literals ``literals[offsets[i]:offsets[i + 1]]`` (signed
    atom ids, ``array('q')``), weight ``weights[i]`` (``array('d')``), id
    ``clause_ids[i]`` and source ``sources[source_index[i]]``.  Every
    column is one stdlib ``array`` allocation: no per-row Python objects
    for the garbage collector to walk (or for a forked worker to touch),
    and numpy reads a column in place with ``np.frombuffer``.
    """

    literals: array = field(default_factory=lambda: array("q"))
    offsets: array = field(default_factory=lambda: array("q", [0]))
    weights: array = field(default_factory=lambda: array("d"))
    clause_ids: array = field(default_factory=lambda: array("q"))
    source_index: array = field(default_factory=lambda: array("i"))
    sources: List[Optional[str]] = field(default_factory=list)

    @classmethod
    def pack(cls, clauses: Iterable[GroundClause]) -> "ClauseColumns":
        """Columns holding the given clauses, in order."""
        columns = cls()
        literals = columns.literals
        offsets = columns.offsets
        weights = columns.weights
        clause_ids = columns.clause_ids
        source_index = columns.source_index
        source_ids: Dict[Optional[str], int] = {}
        for clause in clauses:
            literals.extend(clause.literals)
            offsets.append(len(literals))
            weights.append(clause.weight)
            clause_ids.append(clause.clause_id)
            source_index.append(source_ids.setdefault(clause.source, len(source_ids)))
        columns.sources = list(source_ids)
        return columns

    def __len__(self) -> int:
        return len(self.weights)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClauseColumns):
            return NotImplemented
        return (
            self.offsets == other.offsets
            and self.literals == other.literals
            and self.weights == other.weights
            and self.clause_ids == other.clause_ids
            and [self.sources[i] for i in self.source_index]
            == [other.sources[i] for i in other.source_index]
        )

    __hash__ = None  # type: ignore[assignment]

    def row(self, index: int) -> GroundClause:
        """Row ``index`` as a :class:`GroundClause` (a fresh view)."""
        offsets = self.offsets
        return GroundClause(
            self.clause_ids[index],
            tuple(self.literals[offsets[index] : offsets[index + 1]]),
            self.weights[index],
            self.sources[self.source_index[index]],
        )

    def __iter__(self) -> Iterator[GroundClause]:
        """Every row as a fresh :class:`GroundClause`, built one at a time."""
        return map(self.row, range(len(self)))

    def rows(self) -> List[GroundClause]:
        """Every row as a :class:`GroundClause`, in order."""
        return list(self)

    def literal_rows(self) -> List[List[int]]:
        """Each row's literals as a list, in order."""
        literals = self.literals.tolist()
        bounds = self.offsets.tolist()
        return [literals[start:end] for start, end in zip(bounds, bounds[1:])]

    def take(self, order: Sequence[int]) -> "ClauseColumns":
        """The rows at ``order`` (row indices), in that order."""
        return self._take(np.asarray(order, dtype=np.intp))[0]

    def _take(self, order: "np.ndarray") -> Tuple["ClauseColumns", "np.ndarray"]:
        """:meth:`take`, plus the literal gather it made (old index per new literal)."""
        offsets = np.frombuffer(self.offsets, dtype=np.int64)
        lengths = np.diff(offsets)[order]
        new_offsets = np.zeros(len(order) + 1, dtype=np.int64)
        np.cumsum(lengths, out=new_offsets[1:])
        gather = np.repeat(offsets[:-1][order] - new_offsets[:-1], lengths) + np.arange(
            new_offsets[-1]
        )
        taken = ClauseColumns(
            _gathered(self.literals, gather),
            array("q", new_offsets.tobytes()),
            _gathered(self.weights, order),
            _gathered(self.clause_ids, order),
            _gathered(self.source_index, order),
            self.sources,
        )
        return taken, gather

    def partition(
        self, labels: Sequence[int], count: int, literal_values: "np.ndarray"
    ) -> List[Tuple["ClauseColumns", "np.ndarray"]]:
        """Split the rows by label (``0 .. count - 1``), keeping row order.

        One stable reorder of every column, then each part is a contiguous
        slice of it (offsets rebased to the part's first literal).
        ``literal_values`` is a per-literal array aligned with ``literals``;
        each part comes with its literals' slice of it.
        """
        keyed = np.asarray(labels, dtype=np.intp)
        sizes = np.bincount(keyed, minlength=count).tolist()
        whole, gather = self._take(np.argsort(keyed, kind="stable"))
        values = literal_values[gather]
        offsets = whole.offsets
        starts = list(accumulate(sizes, initial=0))
        # Each row's end, relative to the first literal of its part.
        bounds = np.frombuffer(offsets, dtype=np.int64)
        ends = array("q", (bounds[1:] - np.repeat(bounds[starts[:-1]], sizes)).tobytes())
        zero = array("q", [0])
        return [
            (
                ClauseColumns(
                    whole.literals[offsets[start] : offsets[stop]],
                    zero + ends[start:stop],
                    whole.weights[start:stop],
                    whole.clause_ids[start:stop],
                    whole.source_index[start:stop],
                    self.sources,
                ),
                values[offsets[start] : offsets[stop]],
            )
            for start, stop in zip(starts, starts[1:])
        ]

    def distinct_atoms(self) -> List[int]:
        """All distinct atom ids referenced by any row, sorted."""
        return np.unique(np.abs(np.frombuffer(self.literals, dtype=np.int64))).tolist()


def row_keys(rows: "np.ndarray") -> "np.ndarray":
    """One sortable key per row of a non-empty int64 matrix, equal iff the rows are.

    The row read as the digits of one base-``span`` int64 when that fits
    (sorting int64 is several times faster), else the row's bytes.
    """
    low = int(rows.min())
    span = int(rows.max()) - low + 1
    if span ** rows.shape[1] >= 2**63:
        return np.ascontiguousarray(rows).view(f"V{8 * rows.shape[1]}").ravel()
    keys = np.zeros(len(rows), dtype=np.int64)
    for column in rows.T:
        keys = keys * span + (column - low)
    return keys


def _gathered(column: array, index: "np.ndarray") -> array:
    """``column[index]`` as a new array of the same type."""
    values = np.frombuffer(column, dtype=column.typecode)[index]
    return array(column.typecode, values.tobytes())


class GroundClauseStore:
    """An append-only clause table, held as :class:`ClauseColumns`.

    Rows with the same literal *set* merge by summing weights (when
    ``merge_duplicates``).  ``_index`` finds them: it maps a row's
    canonical key — its sorted distinct literals as int64 bytes — to the
    row.  Hard rows are never merged into; clause ids are ``row + 1``.
    :meth:`seal` ends construction: the MRF built from a store reads its
    columns in place, so they must not change afterwards.
    """

    def __init__(self, merge_duplicates: bool = True) -> None:
        self.merge_duplicates = merge_duplicates
        self.columns = ClauseColumns()
        self._index: Optional[Dict[bytes, int]] = {}
        self._source_ids: Dict[Optional[str], int] = {}
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
        This is the specification :meth:`add_batch` is held to.
        """
        self._check_open()
        row = self._add_row(literals, weight, source)
        return None if row is None else self.columns.row(row)

    def _add_row(
        self, literals: Sequence[int], weight: float, source: Optional[str]
    ) -> Optional[int]:
        """:meth:`add` without the row view; returns the row stored or merged into."""
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
        if not self.merge_duplicates or math.isinf(weight):
            return self._append(literals, weight, source)
        # ``literals`` is already duplicate-free, so sorting it gives the
        # canonical key directly.
        key = array("q", sorted(literals)).tobytes()
        weights = self.columns.weights
        index = self._index
        existing = index.get(key)  # type: ignore[union-attr]
        if existing is not None and not math.isinf(weights[existing]):
            weights[existing] += weight
            return existing
        row = self._append(literals, weight, source)
        index[key] = row  # type: ignore[index]
        return row

    def seal(self) -> None:
        """End construction: no more clauses, and the merge index is dropped.

        Called by readers that share the columns (``MRF.from_store``) —
        the arrays then never change under them — and idempotent.
        """
        self._index = None

    def _check_open(self) -> None:
        if self._index is None:
            raise RuntimeError("the clause store is sealed: an MRF reads its columns")

    def _append(
        self,
        literals: Sequence[int],
        weight: float,
        source: Optional[str],
        clause_id: Optional[int] = None,
    ) -> int:
        if any(literal == 0 for literal in literals):
            raise ValueError("literal ids must be non-zero signed integers")
        columns = self.columns
        row = len(columns.weights)
        columns.literals.extend(literals)
        columns.offsets.append(len(columns.literals))
        columns.weights.append(weight)
        columns.clause_ids.append(row + 1 if clause_id is None else clause_id)
        columns.source_index.append(self._source_id(source))
        return row

    def _source_id(self, source: Optional[str]) -> int:
        source_id = self._source_ids.get(source)
        if source_id is None:
            source_id = self._source_ids[source] = len(self.columns.sources)
            self.columns.sources.append(source)
        return source_id

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
        vectorized and new rows are appended to the columns as array
        slices.  Weight merging remains *sequential addition* (never a
        count-times-weight product or a pairwise reduction), so results
        stay bit-identical to repeated ``add`` calls.
        """
        self._check_open()
        if isinstance(flat_literals, np.ndarray):
            return self._add_batch_arrays(
                flat_literals, np.asarray(row_lengths, dtype=np.int64), weight, source
            )
        if sum(row_lengths) != len(flat_literals):
            raise ValueError(
                f"row_lengths cover {sum(row_lengths)} literals, got {len(flat_literals)}"
            )
        stored = 0
        offset = 0
        for length in row_lengths:
            end = offset + length
            if self._add_row(flat_literals[offset:end], weight, source) is not None:
                stored += 1
            offset = end
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
        literal matrix.  Distinct rows are then visited in first-occurrence
        order — which assigns the same clause ids and performs the same
        sequential weight additions as row-at-a-time :meth:`add` calls —
        but only rows that merge (into an earlier batch's row, or with
        their own repeats) take a Python step; new rows are appended to
        the columns in one gather.  A batch in which a merged weight
        overflows to infinity is stored row by row instead.
        """
        row_count = len(lengths)
        if int(lengths.sum()) != len(flat):
            raise ValueError(
                f"row_lengths cover {int(lengths.sum())} literals, got {len(flat)}"
            )
        if row_count == 0:
            return 0
        flat = flat.astype(np.int64, copy=False)
        if not flat.all():
            raise ValueError("literal ids must be non-zero signed integers")
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

        # A stored row keeps its grounded literal order minus repeats
        # (first occurrence wins, as ``dict.fromkeys`` in ``add``).
        literal_keep = None
        repeated = np.nonzero(has_duplicates & keep)[0]
        if len(repeated):
            literal_keep = np.ones(len(flat), dtype=bool)
            for row in repeated.tolist():
                start = int(offsets[row])
                seen = set()
                for position in range(start, start + int(lengths[row])):
                    literal = int(flat[position])
                    if literal in seen:
                        literal_keep[position] = False
                    seen.add(literal)

        if not merge:
            self._append_rows(
                flat, offsets, lengths, kept_rows, literal_keep, weight, source
            )
            return len(kept_rows)

        # Group identical rows, one distinct-literal count at a time.  A
        # row's sorted nonzero literals as bytes are its merge key — the
        # key ``add`` builds for the same set; ``np.unique`` sorts stably,
        # so each group's head is its first occurrence.
        widths = (canonical != 0).sum(axis=1)[kept_rows]
        index = self._index
        weights = self.columns.weights
        merges: List[Tuple[int, float]] = []
        new_heads = []
        new_counts = []
        new_keys: List[bytes] = []
        for width in np.unique(widths).tolist():
            members = kept_rows[widths == width]
            block = canonical[members]
            literals = np.ascontiguousarray(block[block != 0].reshape(len(members), width))
            _, first, counts = np.unique(
                row_keys(literals), return_index=True, return_counts=True
            )
            keys = literals[first].view(f"V{8 * width}").ravel().tolist()
            fresh = np.ones(len(keys), dtype=bool)
            if index:  # (never None here: add_batch checked the store is open)
                # Groups whose literal set an earlier batch stored merge
                # into that row: the only groups that take a step in Python.
                found = np.fromiter(
                    map(index.get, keys, repeat(-1)), dtype=np.int64, count=len(keys)
                )
                for group in np.nonzero(found >= 0)[0].tolist():
                    row = int(found[group])
                    merged = weights[row]
                    if math.isinf(merged):
                        continue  # a hard row is never merged into
                    fresh[group] = False
                    for _ in range(int(counts[group])):
                        merged += weight
                    merges.append((row, merged))
            new_heads.append(members[first][fresh])
            new_counts.append(counts[fresh])
            new_keys.extend(compress(keys, fresh.tolist()))

        # New rows are stored in first-occurrence order, which numbers them
        # exactly as row-at-a-time ``add`` calls would.
        heads = np.concatenate(new_heads)
        order = np.argsort(heads)
        counts = np.concatenate(new_counts)[order]
        # A new row's weight is ``weight`` added to itself ``count - 1``
        # times in sequence — one value per distinct count.
        new_weights = np.full(len(order), weight)
        for count in np.unique(counts).tolist():
            merged = weight
            for _ in range(count - 1):
                merged += weight
            new_weights[counts == count] = merged
        if np.isinf(new_weights).any() or any(math.isinf(m) for _, m in merges):
            # A sum overflowed to a hard weight.  ``add`` would have started
            # a new row at the occurrence that overflowed; nothing is stored
            # yet, so take the kept rows one ``add`` at a time instead.
            for row in kept_rows.tolist():
                start = int(offsets[row])
                self._add_row(flat[start : start + int(lengths[row])].tolist(), weight, source)
            return len(kept_rows)
        for row, merged in merges:
            weights[row] = merged
        first_new = len(self.columns)
        self._append_rows(
            flat, offsets, lengths, heads[order], literal_keep, new_weights, source
        )
        rows = np.empty(len(order), dtype=np.int64)
        rows[order] = np.arange(first_new, first_new + len(order))
        index.update(zip(new_keys, rows.tolist()))
        return len(kept_rows)

    def _append_rows(
        self,
        flat: "np.ndarray",
        offsets: "np.ndarray",
        lengths: "np.ndarray",
        rows: "np.ndarray",
        literal_keep: Optional["np.ndarray"],
        weights: "np.ndarray | float",
        source: Optional[str],
    ) -> None:
        """Append batch rows (indices into ``offsets``/``lengths``) as new clauses."""
        row_lengths = lengths[rows]
        out_starts = np.cumsum(row_lengths) - row_lengths
        gather = np.repeat(offsets[rows] - out_starts, row_lengths) + np.arange(
            int(row_lengths.sum())
        )
        if literal_keep is not None:
            kept = literal_keep[gather]
            gather = gather[kept]
            owners = np.repeat(np.arange(len(rows)), row_lengths)[kept]
            row_lengths = np.bincount(owners, minlength=len(rows))
        columns = self.columns
        first = len(columns)
        base = columns.offsets[-1]
        columns.literals.frombytes(flat[gather].tobytes())
        columns.offsets.frombytes((base + np.cumsum(row_lengths, dtype=np.int64)).tobytes())
        columns.weights.frombytes(
            np.broadcast_to(np.asarray(weights, dtype=np.float64), len(rows)).tobytes()
        )
        columns.clause_ids.frombytes(
            np.arange(first + 1, first + 1 + len(rows), dtype=np.int64).tobytes()
        )
        columns.source_index.frombytes(
            np.full(len(rows), self._source_id(source), dtype=np.intc).tobytes()
        )

    def record_satisfied_by_evidence(self, count: int = 1) -> None:
        self.satisfied_by_evidence += count

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[GroundClause]:
        return iter(self.columns)

    def __getitem__(self, index: int) -> GroundClause:
        count = len(self.columns)
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError("clause index out of range")
        return self.columns.row(index)

    def clauses(self) -> List[GroundClause]:
        return self.columns.rows()

    def atom_ids(self) -> List[int]:
        """All distinct atom ids referenced by any clause, sorted."""
        return self.columns.distinct_atoms()

    def total_literals(self) -> int:
        return len(self.columns.literals)

    def hard_clause_count(self) -> int:
        return sum(map(math.isinf, self.columns.weights))

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
        """Persist the clause store as the RDBMS table ``C(cid, lits, weight, source)``.

        The load is charged from the row count: the same pages, page writes
        and simulated seconds as writing every row.  The row tuples — the
        ``lits`` text above all — are built only if a reader asks for rows
        (:meth:`load_from_database`, a row scan); a reader that only pays
        for a pass, like the batch loader, never builds them.  The rows are
        taken from a copy of the columns made here, so the table holds what
        the store held at this call.
        """
        if not database.has_table(table_name):
            database.create_table(table_name, self.table_schema())
        else:
            database.table(table_name).truncate()
        columns = self.columns
        snapshot = ClauseColumns(
            columns.literals[:],
            columns.offsets[:],
            columns.weights[:],
            columns.clause_ids[:],
            columns.source_index[:],
            list(columns.sources),
        )
        database.table(table_name).bulk_load_deferred(
            len(snapshot), lambda: clause_table_rows(snapshot)
        )
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
            if abs(weight) >= HARD_WEIGHT_SENTINEL:
                weight = math.copysign(math.inf, weight)
            store._append(literals, weight, row[source_pos] or None, row[cid_pos])
        return store


def clause_table_rows(columns: ClauseColumns) -> List[Tuple[int, str, float, str]]:
    """The clause table's rows: ``(cid, lits, weight, source)``, schema-exact.

    ``lits`` is the signed literals as space-separated text, ``weight`` as
    :func:`table_weight` stores it and ``source`` the rule name (``""`` for
    none).  Built a chunk at a time, so only one chunk's literal strings
    are alive at once.
    """
    bounds = columns.offsets.tolist()
    source_texts = [source or "" for source in columns.sources]
    rows: List[Tuple[int, str, float, str]] = []
    for low in range(0, len(columns), _PERSIST_CHUNK_ROWS):
        high = min(low + _PERSIST_CHUNK_ROWS, len(columns))
        base = bounds[low]
        texts = list(map(str, columns.literals[base : bounds[high]]))
        lits = [
            " ".join(texts[start - base : end - base])
            for start, end in zip(bounds[low:high], bounds[low + 1 : high + 1])
        ]
        rows.extend(
            zip(
                columns.clause_ids[low:high],
                lits,
                map(table_weight, columns.weights[low:high]),
                map(source_texts.__getitem__, columns.source_index[low:high]),
            )
        )
    return rows


def table_weight(weight: float) -> float:
    """A weight as the clause table's REAL column stores it (hard = ±sentinel)."""
    if math.isinf(weight):
        return math.copysign(HARD_WEIGHT_SENTINEL, weight)
    return float(weight)
