"""Ground clauses and the clause store (the paper's table ``C(cid, lits, weight)``).

A ground clause is a weighted disjunction over *signed atom ids*: ``+aid``
means the clause contains the atom positively, ``-aid`` negatively.  Only
atoms whose truth value is unknown appear; literals already decided by the
evidence are resolved at grounding time (a satisfied literal removes the
whole clause, an unsatisfied one is dropped from the disjunction).

Duplicate ground clauses over the same literal set are merged by summing
their weights, which is what both Alchemy and Tuffy do, and which keeps the
search cost function identical while shrinking the clause table.  The
grounder hands over one first-order clause's rows at a time as a literal
matrix (:meth:`GroundClauseStore.add_matrix`), and duplicates are found
through an array index of packed literal-set keys (:class:`_MergeIndex`).

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
from itertools import accumulate
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.rdbms.column_batch import sorted_distinct
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

    def take(self, order: Sequence[int]) -> Tuple["ClauseColumns", "np.ndarray"]:
        """The rows at ``order`` (row indices), in that order, plus the
        literal gather it made (the old index of every new literal)."""
        order = np.asarray(order, dtype=np.intp)
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
        whole, gather = self.take(np.argsort(keyed, kind="stable"))
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
        return sorted_distinct(np.abs(np.frombuffer(self.literals, dtype=np.int64))).tolist()


def _gathered(column: array, index: "np.ndarray") -> array:
    """``column[index]`` as a new array of the same type."""
    values = np.frombuffer(column, dtype=column.typecode)[index]
    return array(column.typecode, values.tobytes())


def _sequential_sums(
    starts: "np.ndarray", additions: "np.ndarray", weight: float
) -> "np.ndarray":
    """Each ``starts[i]`` with ``weight`` added ``additions[i]`` times, in sequence.

    The sum repeated :meth:`GroundClauseStore.add` calls make — never a
    ``count * weight`` product or a pairwise reduction, which can differ
    in the last bit.  The entries that add ``count`` times take ``count``
    vector steps together, so the steps total the sum of the distinct
    counts, at most the rows that were added.
    """
    totals = starts.copy()
    for count in np.flatnonzero(np.bincount(additions, minlength=1)[1:]).tolist():
        members = additions == count + 1
        values = totals[members]
        for _ in range(count + 1):
            values += weight
        totals[members] = values
    return totals


class _MergeIndex:
    """The merge index as arrays: where a row with a given literal set lives.

    A row's key is its literal *set*: with ``bound`` at least every
    indexed ``|literal|``, each literal maps to the digit
    ``literal + bound + 1`` (``0`` marks no literal), and a row's digits,
    sorted, read as one base-``2 * bound + 2`` int64 — leading zeros add
    nothing, so a row keys the same at any matrix width.  Rows too wide for
    an int64 key use the bytes of their sorted digits instead.  ``keys``
    and ``rows`` hold, per *slot*, the indexed keys sorted by ``(key,
    row)`` and their rows: slot ``0`` for every width whose keys fit an
    int64, slot ``w`` for a wider width ``w``.  ``covered`` is how many of
    the store's rows the index has taken in; only rows with a finite weight
    go in.

    At most one row per literal set has a finite weight (a row is only
    ever added when the set's earlier rows are hard), and it is that
    set's newest row — so a lookup takes the *last* entry of its key, and
    the index is a pure function of the columns.
    """

    __slots__ = ("bound", "keys", "rows", "covered")

    def __init__(self) -> None:
        self.bound = 0
        self.keys: Dict[int, "np.ndarray"] = {}
        self.rows: Dict[int, "np.ndarray"] = {}
        self.covered = 0

    def row_keys(
        self, matrix: "np.ndarray", present: "np.ndarray", widths: "np.ndarray"
    ) -> List[Tuple[int, Optional["np.ndarray"], "np.ndarray"]]:
        """The keys of a literal matrix's rows, as ``(slot, members, keys)`` groups.

        ``present`` marks the literals of each row and ``widths`` counts
        them.  One group per slot; ``members`` indexes its rows, ``None``
        meaning every row (rows without literals get a key too, which
        callers ignore).
        """
        offset = self.bound + 1
        digits = [
            (matrix[:, column] + offset) * present[:, column]
            for column in range(matrix.shape[1])
            if present[:, column].any()
        ]
        digits = _sorted_columns(digits)
        span = 2 * self.bound + 2
        limit = 1
        while span ** (limit + 1) < 2**63:
            limit += 1
        keys = _horner(digits, span)
        if int(widths.max()) <= limit:
            return [(0, None, keys)]
        # Some rows are too wide for an int64 key (their numbers above
        # wrapped around): one group of bytes keys per such width.
        narrow = widths <= limit
        groups: List[Tuple[int, Optional["np.ndarray"], "np.ndarray"]] = []
        if narrow.any():
            groups.append((0, np.flatnonzero(narrow), keys[narrow]))
        block = np.stack(digits, axis=1)
        for width in np.flatnonzero(np.bincount(widths[~narrow])).tolist():
            members = np.flatnonzero(widths == width)
            rows = np.ascontiguousarray(block[members, len(digits) - width :])
            groups.append((width, members, rows.view(f"V{8 * width}").ravel()))
        return groups

    def lookup(self, slot: int, keys: "np.ndarray") -> Tuple["np.ndarray", Optional["np.ndarray"]]:
        """The newest indexed row holding each key (``-1`` where none does).

        Also returns where each key would be inserted (``None`` for an
        empty slot), for :meth:`insert`.
        """
        stored = self.keys.get(slot)
        if stored is None:
            return np.full(len(keys), -1, dtype=np.int64), None
        at = np.searchsorted(stored, keys, side="right")
        last = np.maximum(at - 1, 0)
        return np.where(stored[last] == keys, self.rows[slot][last], -1), at

    def insert(
        self,
        slot: int,
        keys: "np.ndarray",
        rows: "np.ndarray",
        at: Optional["np.ndarray"] = None,
    ) -> None:
        """Take in rows newer than every indexed row, with their keys (sorted).

        ``at`` is where :meth:`lookup` placed the keys, when the slot has
        not changed since.
        """
        stored = self.keys.get(slot)
        if stored is None:
            self.keys[slot], self.rows[slot] = keys, rows
            return
        if at is None:
            at = np.searchsorted(stored, keys, side="right")
        # A merge of two sorted runs; a new key goes after its equals.
        at = at + np.arange(len(keys))
        old = np.ones(len(stored) + len(keys), dtype=bool)
        old[at] = False
        merged_keys = np.empty(len(old), dtype=stored.dtype)
        merged_keys[at] = keys
        merged_keys[old] = stored
        merged_rows = np.empty(len(old), dtype=np.int64)
        merged_rows[at] = rows
        merged_rows[old] = self.rows[slot]
        self.keys[slot], self.rows[slot] = merged_keys, merged_rows

    def catch_up(self, columns: ClauseColumns, bound: int) -> None:
        """Take in the rows appended since the last call; make room for ``bound``.

        A larger ``bound`` changes every key, so the index is then rebuilt
        from the columns (the bound at least doubles each time, so that
        happens a logarithmic number of times).
        """
        start = self.covered
        end = len(columns)
        literals = np.frombuffer(columns.literals, dtype=np.int64)
        appended = literals[columns.offsets[start] :]
        if len(appended):
            bound = max(bound, int(np.abs(appended).max()))
        del appended
        if bound > self.bound:
            self.bound = 1 << max(bound, 2 * self.bound).bit_length()
            self.keys.clear()
            self.rows.clear()
            start = 0
        self.covered = end
        rows = np.arange(start, end)[
            np.isfinite(np.frombuffer(columns.weights, dtype=np.float64)[start:])
        ]
        if not len(rows):
            return
        offsets = np.frombuffer(columns.offsets, dtype=np.int64)
        starts = offsets[rows]
        widths = offsets[rows + 1] - starts
        del offsets
        present = np.arange(int(widths.max())) < widths[:, None]
        matrix = np.zeros(present.shape, dtype=np.int64)
        gather = np.repeat(starts - np.cumsum(widths) + widths, widths)
        matrix[present] = literals[gather + np.arange(len(gather))]
        del literals
        for slot, members, keys in self.row_keys(matrix, present, widths):
            group = rows if members is None else rows[members]
            order = np.argsort(keys, kind="stable")
            self.insert(slot, keys[order], group[order])


def _sorted_columns(columns: List["np.ndarray"]) -> List["np.ndarray"]:
    """Columns of equal length, reordered within each row to ascend left to right.

    Odd-even transposition: ``len(columns)`` rounds of column-wide
    minimum / maximum steps (a clause has few literals).
    """
    columns = list(columns)
    for step in range(len(columns)):
        for low in range(step % 2, len(columns) - 1, 2):
            left, right = columns[low], columns[low + 1]
            columns[low], columns[low + 1] = np.minimum(left, right), np.maximum(left, right)
    return columns


def _horner(digits: List["np.ndarray"], span: int) -> "np.ndarray":
    """Digit columns (most significant first) read as base-``span`` int64 numbers."""
    keys = digits[0].copy()
    for column in digits[1:]:
        keys *= span
        keys += column
    return keys


def _distinct(keys: "np.ndarray") -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """``np.unique(keys, return_index=True, return_counts=True)``, by one quicksort.

    The first occurrence of each key is the least position among its
    equals, so an unstable sort serves.
    """
    order = np.argsort(keys)
    ordered = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    first = np.minimum.reduceat(order, starts)
    counts = np.diff(np.append(starts, len(keys)))
    return ordered[starts], first, counts


class GroundClauseStore:
    """An append-only clause table, held as :class:`ClauseColumns`.

    Rows with the same literal *set* merge by summing weights (when
    ``merge_duplicates``); hard rows are never merged into, and clause ids
    are ``row + 1``.  The merge index is derived from the columns: the
    batch paths read it as arrays (:class:`_MergeIndex`), and the
    row-at-a-time :meth:`add` as a dict from a row's canonical key — its
    sorted literals as int64 bytes — built from the columns on first use.
    Each view takes in the rows the other appended when it is next read.
    :meth:`seal` ends construction: the MRF built from a store reads its
    columns in place, so they must not change afterwards.
    """

    def __init__(self, merge_duplicates: bool = True) -> None:
        self.merge_duplicates = merge_duplicates
        self.columns = ClauseColumns()
        self._sealed = False
        self._merge_index = _MergeIndex()
        self._row_index: Dict[bytes, int] = {}
        #: Rows the dict view has taken in.
        self._row_index_covered = 0
        self._source_ids: Dict[Optional[str], int] = {}
        self.evidence_violation_cost = 0.0
        self.satisfied_by_evidence = 0
        self.tautologies = 0
        #: Literals dropped because they repeat an earlier one of their row.
        self.repeated_literals = 0

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
        This is the specification :meth:`add_matrix` is held to.
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
        given = len(literals)
        literals = tuple(dict.fromkeys(literals))
        self.repeated_literals += given - len(literals)
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
        index = self._row_index_view()
        existing = index.get(key)
        if existing is not None and not math.isinf(weights[existing]):
            weights[existing] += weight
            return existing
        row = self._append(literals, weight, source)
        index[key] = row
        self._row_index_covered = row + 1
        return row

    def _row_index_view(self) -> Dict[bytes, int]:
        """The merge index as a dict, after taking in the rows appended since."""
        index = self._row_index
        columns = self.columns
        weights = columns.weights
        literals = columns.literals
        offsets = columns.offsets
        for row in range(self._row_index_covered, len(columns)):
            if not math.isinf(weights[row]):
                key = array("q", sorted(literals[offsets[row] : offsets[row + 1]])).tobytes()
                index[key] = row
        self._row_index_covered = len(columns)
        return index

    def merge_target(self, literals: Sequence[int]) -> Optional[int]:
        """The row a clause with these literals would merge into, if any.

        ``None`` when merging is off or the store is sealed, and when no
        row holds the literal set or its row is hard.  Read through the
        array index, as the batch paths read it.
        """
        distinct = list(dict.fromkeys(literals))
        if not self.merge_duplicates or self._sealed or not distinct:
            return None
        matrix = np.array([distinct], dtype=np.int64)
        present = matrix != 0
        index = self._merge_index
        index.catch_up(self.columns, int(np.abs(matrix).max()))
        [(slot, _, keys)] = index.row_keys(matrix, present, present.sum(axis=1))
        row = int(index.lookup(slot, keys)[0][0])
        if row < 0 or math.isinf(self.columns.weights[row]):
            return None
        return row

    def seal(self) -> None:
        """End construction: no more clauses, and the merge index is dropped.

        Called by readers that share the columns (``MRF.from_store``) —
        the arrays then never change under them — and idempotent.
        """
        self._sealed = True
        self._merge_index = _MergeIndex()
        self._row_index = {}

    def _check_open(self) -> None:
        if self._sealed:
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

    def add_matrix(
        self,
        matrix: "np.ndarray",
        weight: float,
        source: Optional[str] = None,
        repeat_pairs: Optional[Sequence[Tuple[int, int]]] = None,
        tautology_pairs: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> int:
        """Add the ground rows of one first-order clause, as a literal matrix.

        Row ``r`` of the ``(rows, k)`` int64 ``matrix`` is the clause whose
        literals are the row's non-zero entries in column order (``0``
        marks a literal the evidence dropped).  ``repeat_pairs`` lists the
        column pairs ``(i, j)``, ``i < j``, that can hold the same literal
        and ``tautology_pairs`` those that can hold an atom and its
        negation (:func:`~repro.grounding.compiler.same_atom_pairs`);
        ``None`` means every pair can.  The result — rows, ids, literal
        order, weight bits, counters — is exactly that of :meth:`add` per
        row, and so is the return value.  ``matrix`` is never modified (a
        replayed grounding hands the same array in again).

        Per pair and row, one int64 comparison finds a repeat (the later
        column is dropped) or a tautology (the row is).  Rows are then
        keyed by their literal sets (:meth:`_MergeIndex.row_keys`), grouped
        by one sort, looked up in the index with ``np.searchsorted``, and
        new rows are appended in first-occurrence order in one gather;
        weight merges stay sequential additions.  A batch in which a merged
        weight overflows to infinity is stored row by row instead.
        """
        self._check_open()
        matrix = np.asarray(matrix, dtype=np.int64)
        row_count, k = matrix.shape
        if row_count == 0:
            return 0
        if repeat_pairs is None or tautology_pairs is None:
            every = [(i, j) for j in range(k) for i in range(j)]
            repeat_pairs = every if repeat_pairs is None else repeat_pairs
            tautology_pairs = every if tautology_pairs is None else tautology_pairs
        given = matrix != 0
        tautological = np.zeros(row_count, dtype=bool)
        for i, j in tautology_pairs:
            tautological |= (matrix[:, i] == -matrix[:, j]) & given[:, i]
        present = given
        if repeat_pairs:
            # A later column equal to an earlier one is dropped (first
            # occurrence wins, as ``dict.fromkeys`` in ``add``).
            present = given.copy()
            for i, j in repeat_pairs:
                present[:, j] &= (matrix[:, i] != matrix[:, j]) | ~given[:, i]
        widths = np.zeros(row_count, dtype=np.int64)
        for column in range(k):
            widths += present[:, column]
        self.repeated_literals += int(np.count_nonzero(given)) - int(widths.sum())
        empty_rows = row_count - int(np.count_nonzero(widths))
        hard = math.isinf(weight)
        if empty_rows and weight > 0 and not hard:
            cost = self.evidence_violation_cost
            for _ in range(empty_rows):
                cost += weight
            self.evidence_violation_cost = cost
        self.tautologies += int(np.count_nonzero(tautological))
        keep = (widths > 0) & ~tautological
        kept = np.flatnonzero(keep)
        if len(kept) == 0:
            return 0
        if not self.merge_duplicates or hard:
            self._append_rows(matrix, present, widths, keep, weight, source)
            return len(kept)

        index = self._merge_index
        index.catch_up(self.columns, max(int(matrix.max()), -int(matrix.min())))
        current = np.frombuffer(self.columns.weights, dtype=np.float64)
        new_heads, new_counts, new_keys = [], [], []
        merge_rows, merge_counts = [], []
        for slot, members, keys in index.row_keys(matrix, present, widths):
            if members is None:
                group, keys = kept, keys[kept]
            else:
                chosen = keep[members]
                group, keys = members[chosen], keys[chosen]
                if not len(group):
                    continue
            keys, first, counts = _distinct(keys)
            found, at = index.lookup(slot, keys)
            hit = found >= 0
            # A hard row is never merged into: its group starts a new row.
            hit[hit] = np.isfinite(current[found[hit]])
            merge_rows.append(found[hit])
            merge_counts.append(counts[hit])
            fresh = ~hit
            new_heads.append(group[first[fresh]])
            new_counts.append(counts[fresh])
            new_keys.append((slot, keys[fresh], None if at is None else at[fresh]))
        merge_rows = np.concatenate(merge_rows)
        merged = _sequential_sums(current[merge_rows], np.concatenate(merge_counts), weight)
        del current
        heads = np.concatenate(new_heads)
        # A new row's weight is ``weight`` added to itself ``count - 1`` times.
        new_weights = _sequential_sums(
            np.full(len(heads), weight), np.concatenate(new_counts) - 1, weight
        )
        if np.isinf(merged).any() or np.isinf(new_weights).any():
            # A sum overflowed to a hard weight.  ``add`` would have started
            # a new row at the occurrence that overflowed; nothing is stored
            # yet, so take the kept rows one ``add`` at a time instead.
            for row in kept.tolist():
                self._add_row(matrix[row][present[row]].tolist(), weight, source)
            return len(kept)
        if len(merge_rows):
            weights = np.frombuffer(self.columns.weights, dtype=np.float64)
            weights[merge_rows] = merged
            del weights
        # New rows are stored in first-occurrence order — row order of
        # their heads — which numbers them as row-at-a-time ``add`` would.
        is_head = np.zeros(row_count, dtype=bool)
        is_head[heads] = True
        head_weights = np.empty(row_count)
        head_weights[heads] = new_weights
        row_of = np.cumsum(is_head) + (len(self.columns) - 1)
        self._append_rows(matrix, present, widths, is_head, head_weights[is_head], source)
        start = 0
        for slot, keys, at in new_keys:
            index.insert(slot, keys, row_of[heads[start : start + len(keys)]], at)
            start += len(keys)
        index.covered = len(self.columns)
        return len(kept)

    def _append_rows(
        self,
        matrix: "np.ndarray",
        present: "np.ndarray",
        widths: "np.ndarray",
        chosen: "np.ndarray",
        weights: "np.ndarray | float",
        source: Optional[str],
    ) -> None:
        """Append the ``chosen`` matrix rows as new clauses, in row order."""
        columns = self.columns
        first = len(columns)
        base = columns.offsets[-1]
        row_widths = widths[chosen]
        count = len(row_widths)
        # Row-major: the rows in order, each row's literals in column order.
        columns.literals.frombytes(matrix[present & chosen[:, None]].tobytes())
        columns.offsets.frombytes((base + np.cumsum(row_widths)).tobytes())
        columns.weights.frombytes(
            np.broadcast_to(np.asarray(weights, dtype=np.float64), count).tobytes()
        )
        columns.clause_ids.frombytes(
            np.arange(first + 1, first + 1 + count, dtype=np.int64).tobytes()
        )
        columns.source_index.frombytes(
            np.full(count, self._source_id(source), dtype=np.intc).tobytes()
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
