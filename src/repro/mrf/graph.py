"""The MRF graph structure consumed by the search phase.

An :class:`MRF` is clause columns (:class:`ClauseColumns`, the clause
table as CSR arrays) plus an atom-id list, and nothing else is built when
one is constructed: ``from_store`` shares the store's columns (sealing
the store) and reads the atom ids off them with one ``np.unique``.  What
the consumers need on top is derived on first use and cached on the
object: the literals' atom positions (unless a component decomposition
handed them over), the position-indexed :class:`MRFFlatView` when the
first search state is made — on the processes backend, in the worker
that first runs the component — the clause list (row views, for MC-SAT, partitioning,
Gauss-Seidel and the cost oracle) when ``clauses`` is first read, the atom
→ clause adjacency when ``clauses_of_atom`` / ``degree`` / ``neighbors`` is
first asked.  An MRF built from a clause list (``from_clauses``) packs its
columns once, when something first needs them.
"""

from __future__ import annotations

import functools
import math
import operator
from array import array
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.grounding.clause_table import ClauseColumns, GroundClause, GroundClauseStore

#: Views of MRFs with at least this many clauses are built by numpy, and
#: search states over them initialise their counts with numpy; below it,
#: the per-literal Python loops are faster (SampleSAT constraint sets,
#: the thousands of tiny IE components).  Above it both view builds cost
#: about the same, and numpy's atom-major allocation of the adjacency makes
#: the flip loop faster.  Both views hold the same relations (the
#: numpy-built one makes a clause's candidate tuple on first read).
NUMPY_VIEW_MIN_CLAUSES = 256


def literal_positions(literals: "np.ndarray", atom_ids: Sequence[int]) -> "np.ndarray":
    """Position in ``atom_ids`` of each literal's atom (``KeyError`` if absent)."""
    atoms = np.asarray(atom_ids, dtype=np.int64)
    magnitudes = np.abs(literals)
    if not len(magnitudes):
        return np.zeros(0, dtype=np.intp)
    if not len(atoms):
        raise KeyError(int(magnitudes[0]))
    low = int(atoms.min())
    span = int(atoms.max()) - low + 1
    if span <= 4 * len(atoms):
        # The usual case, ids from one registry: a direct lookup table.
        table = np.zeros(span, dtype=np.intp)
        table[atoms - low] = np.arange(len(atoms))
        positions = table[np.clip(magnitudes - low, 0, span - 1)]
    else:
        sorter = np.argsort(atoms, kind="stable")
        slots = np.searchsorted(atoms, magnitudes, sorter=sorter)
        positions = sorter[np.minimum(slots, len(atoms) - 1)]
    missing = np.nonzero(atoms[positions] != magnitudes)[0]
    if len(missing):
        raise KeyError(int(magnitudes[missing[0]]))
    return positions


class LiteralArrays(NamedTuple):
    """An MRF's literal column as position-indexed arrays (clause order).

    ``positions`` is each literal's atom position, ``owners`` its clause
    index, ``degrees`` the literal count of each atom position, and
    ``repeats`` the indices of the literals whose atom already occurs
    earlier in their clause (usually empty).
    """

    positions: "np.ndarray"
    owners: "np.ndarray"
    degrees: "np.ndarray"
    repeats: "np.ndarray"


def literal_arrays(
    positions: "np.ndarray", offsets: "np.ndarray", atom_count: int
) -> Tuple[LiteralArrays, "np.ndarray"]:
    """The :class:`LiteralArrays` of a literal column, plus its atom-major order.

    The order is one stable argsort by atom position: each atom's
    occurrences, in clause (then literal) order.
    """
    owners = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    # numpy sorts 16-bit keys stably by radix, several times faster.
    keys = positions.astype(np.uint16) if atom_count <= 1 << 16 else positions
    order = np.argsort(keys, kind="stable")
    sorted_positions = positions[order]
    sorted_owners = owners[order]
    repeats = order[1:][
        (sorted_positions[1:] == sorted_positions[:-1]) & (sorted_owners[1:] == sorted_owners[:-1])
    ]
    degrees = np.bincount(positions, minlength=atom_count)
    return LiteralArrays(positions, owners, degrees, repeats), order


class MRFFlatView:
    """Flat, cache-friendly arrays describing an MRF's clause/atom structure.

    The WalkSAT kernel (:class:`repro.inference.state.SearchState`) indexes
    atoms and clauses by dense *positions* rather than ids.  This view maps
    between the two and holds, once per MRF, the relations the kernel's
    hot loops read:

    * ``adjacency`` (built eagerly) — the atom → clause relation as
      per-atom tuples of ``(clause_index, positive)`` pairs, entries in
      clause order (which the kernel relies on for reproducible
      violated-set ordering).  The per-flip loops unpack these pre-built
      pairs, reusing the stored index object; a signed-code encoding here
      would allocate a fresh int per entry when decoding (measurably
      slower in CPython).
    * ``clause_atom_positions(i)`` — the distinct atom positions of clause
      ``i`` in first-occurrence order (the clause's flip candidates),
      deduplicated once instead of on every WalkSAT step.  A numpy-built
      view makes each tuple on its first read and keeps it in
      ``candidates`` (``None`` until then): a search reads the candidates
      of the violated clauses it picks, a small share of all clauses.
    * ``clause_codes`` (built on first read) — the clause → literal
      relation as per-clause tuples of signed codes: a literal over atom
      position ``p`` is the int ``+(p + 1)`` (positive occurrence) or
      ``-(p + 1)`` (negative), so the loop count initialisation iterates
      plain ints.  The numpy count initialisation never reads it.
    * ``arrays`` — the :class:`LiteralArrays` (positions, owners, degrees,
      repeats) of a numpy-built view; ``None`` for a row-built one.
    * ``counts`` — what the numpy count initialisation reads, cached here
      by :func:`repro.inference.state.count_arrays` (``None`` until then).

    MRFs with at least ``NUMPY_VIEW_MIN_CLAUSES`` clauses are built by
    numpy from the MRF's columns.  The literals' atom positions come from
    :meth:`MRF.literal_atom_positions` — handed over by the component
    decomposition, else one :func:`literal_positions` pass — and one
    stable argsort by position gives the atom-major adjacency, whose pairs
    are then allocated atom by atom: each atom's entries sit together in
    memory, which the flip loop walks.  Smaller MRFs take the equivalent
    per-literal loop, which builds every relation eagerly.

    A view is built only by :meth:`MRF.flat_view`, lazily, and cached; it
    assumes the MRF is not mutated afterwards.  All buffers are read-only shared
    state: every :class:`SearchState` over the same MRF reuses one view
    (the lazily filled entries are idempotent, so concurrent readers at
    worst build the same tuple twice).
    """

    __slots__ = (
        "atom_ids",
        "atom_position",
        "candidates",
        "adjacency",
        "arrays",
        "counts",
        "_clause_codes",
        "_literals",
        "_offsets",
    )

    def __init__(self, mrf: "MRF") -> None:
        self.atom_ids: List[int] = list(mrf.atom_ids)
        position = {atom_id: index for index, atom_id in enumerate(self.atom_ids)}
        self.atom_position: Dict[int, int] = position
        self.arrays: Optional[LiteralArrays] = None
        self.counts: Optional[Tuple["np.ndarray", ...]] = None
        if mrf.clause_count >= NUMPY_VIEW_MIN_CLAUSES:
            self._build_from_columns(mrf.columns(), mrf.literal_atom_positions())
        else:
            self._build_from_rows(mrf.literal_rows(), position)

    def clause_atom_positions(self, clause_index: int) -> Tuple[int, ...]:
        """The distinct atom positions of a clause, in first-occurrence order."""
        candidates = self.candidates[clause_index]
        if candidates is None:
            start, end = self._offsets[clause_index], self._offsets[clause_index + 1]
            positions = self.arrays.positions[start:end].tolist()  # type: ignore[union-attr]
            candidates = tuple(dict.fromkeys(positions))
            self.candidates[clause_index] = candidates
        return candidates

    @property
    def clause_codes(self) -> Sequence[Tuple[int, ...]]:
        # Idempotent, so two threads racing here both build the same tuples.
        if self._clause_codes is None:
            positions = self.arrays.positions  # type: ignore[union-attr]
            codes = np.where(self._literals > 0, positions + 1, -(positions + 1)).tolist()
            bounds = self._offsets.tolist()
            self._clause_codes = tuple(
                [tuple(codes[start:end]) for start, end in zip(bounds, bounds[1:])]
            )
        return self._clause_codes

    def _build_from_rows(
        self, rows: Iterable[Sequence[int]], position: Dict[int, int]
    ) -> None:
        clause_codes: List[Tuple[int, ...]] = []
        clause_positions: List[Optional[Tuple[int, ...]]] = []
        adjacency_lists: List[List[Tuple[int, bool]]] = [[] for _ in self.atom_ids]
        for clause_index, literals in enumerate(rows):
            codes: List[int] = []
            distinct: List[int] = []
            for literal in literals:
                atom_position = position[abs(literal)]
                codes.append(atom_position + 1 if literal > 0 else -(atom_position + 1))
                if atom_position not in distinct:
                    distinct.append(atom_position)
                adjacency_lists[atom_position].append((clause_index, literal > 0))
            clause_codes.append(tuple(codes))
            clause_positions.append(tuple(distinct))

        self._clause_codes: Optional[Sequence[Tuple[int, ...]]] = tuple(clause_codes)
        self.candidates: List[Optional[Tuple[int, ...]]] = clause_positions
        self.adjacency: Sequence[Tuple[Tuple[int, bool], ...]] = tuple(
            tuple(entries) for entries in adjacency_lists
        )

    def _build_from_columns(self, columns: ClauseColumns, positions: "np.ndarray") -> None:
        literals = np.frombuffer(columns.literals, dtype=np.int64)
        offsets = np.frombuffer(columns.offsets, dtype=np.int64)
        clause_count = len(offsets) - 1
        self.arrays, order = literal_arrays(positions, offsets, len(self.atom_ids))
        self._literals = literals
        self._offsets = columns.offsets
        self._clause_codes = None
        self.candidates = [None] * clause_count

        # One int object per clause, shared by all of its entries (gathered
        # as object references).
        clause_indices = np.arange(clause_count).astype(object)
        pairs = list(
            zip(
                clause_indices[self.arrays.owners[order]].tolist(),
                (literals[order] > 0).tolist(),
            )
        )
        atom_bounds = np.zeros(len(self.atom_ids) + 1, dtype=np.int64)
        np.cumsum(self.arrays.degrees, out=atom_bounds[1:])
        atom_bounds = atom_bounds.tolist()
        self.adjacency = tuple(
            [tuple(pairs[start:end]) for start, end in zip(atom_bounds, atom_bounds[1:])]
        )


class MRF:
    """A ground MRF: atoms (nodes) and weighted ground clauses (hyperedges).

    ``atom_ids`` is the set of query-atom ids appearing in the clauses (plus
    any isolated atoms explicitly added).  The clauses are held either as
    :class:`ClauseColumns` (``from_store``, components) or as a list
    (``from_clauses``); :meth:`columns` and :attr:`clauses` give either form,
    deriving the other on first use.  Everything derived — the columns or
    clause list, the literals' atom positions (``positions``, which a
    component decomposition passes in), the search kernel's flat view,
    the atom → clause adjacency behind :meth:`clauses_of_atom` — is
    a cache and excluded from
    ``==``, which compares atom ids and clause rows.  An MRF is not mutated
    after construction.
    """

    __slots__ = (
        "atom_ids",
        "_clauses",
        "_columns",
        "_positions",
        "_adjacency",
        "_flat_view",
    )

    def __init__(
        self,
        clauses: Optional[Sequence[GroundClause]] = None,
        atom_ids: Iterable[int] = (),
        columns: Optional[ClauseColumns] = None,
        positions: Optional["np.ndarray"] = None,
    ) -> None:
        if clauses is not None and columns is not None:
            raise ValueError("give an MRF clauses or columns, not both")
        self.atom_ids: List[int] = atom_ids if isinstance(atom_ids, list) else list(atom_ids)
        if columns is None and not isinstance(clauses, list):
            clauses = list(clauses or ())
        self._clauses: Optional[List[GroundClause]] = clauses  # type: ignore[assignment]
        self._columns = columns
        # Each literal's position in atom_ids (see literal_atom_positions).
        self._positions = positions
        self._adjacency: Optional[Dict[int, List[int]]] = None
        self._flat_view: Optional[MRFFlatView] = None

    __hash__ = None  # type: ignore[assignment]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.atom_ids == other.atom_ids and self.columns() == other.columns()

    @classmethod
    def from_store(
        cls, store: GroundClauseStore, extra_atoms: Iterable[int] = ()
    ) -> "MRF":
        """The MRF over a store's clauses, reading its columns in place.

        Seals the store: the columns are shared, so it takes no more
        clauses afterwards.
        """
        store.seal()
        atom_ids = store.columns.distinct_atoms()
        extra = list(extra_atoms)
        if extra:
            atom_ids = sorted(set(atom_ids).union(extra))
        return cls(columns=store.columns, atom_ids=atom_ids)

    @classmethod
    def from_clauses(
        cls, clauses: Sequence[GroundClause], extra_atoms: Iterable[int] = ()
    ) -> "MRF":
        atom_ids: Set[int] = set(extra_atoms)
        for clause in clauses:
            atom_ids.update(map(abs, clause.literals))
        return cls(clauses=list(clauses), atom_ids=sorted(atom_ids))

    # ------------------------------------------------------------------
    # The two clause forms
    # ------------------------------------------------------------------

    @property
    def clauses(self) -> List[GroundClause]:
        """The clauses as :class:`GroundClause` row views (built once, cached)."""
        if self._clauses is None:
            self._clauses = self._columns.rows()  # type: ignore[union-attr]
        return self._clauses

    def iter_clauses(self) -> Iterator[GroundClause]:
        """The clauses one at a time, for one-pass readers (the cost oracle).

        Row views built on the fly are not cached, so reading an MRF once
        does not keep a Python object per clause alive.
        """
        if self._clauses is not None:
            return iter(self._clauses)
        return iter(self._columns)  # type: ignore[arg-type]

    def columns(self) -> ClauseColumns:
        """The clauses as columns (packed once from a clause list)."""
        if self._columns is None:
            self._columns = ClauseColumns.pack(self._clauses)  # type: ignore[arg-type]
        return self._columns

    def literal_rows(self) -> Sequence[Sequence[int]]:
        """Each clause's literals, in clause order, in whichever form is at hand."""
        if self._columns is None:
            return [clause.literals for clause in self._clauses]  # type: ignore[union-attr]
        return self._columns.literal_rows()

    def weight_column(self) -> array:
        """The clause weights, in clause order (``array('d')``).

        Read from the columns; an MRF that only has a clause list reads it
        off the list without packing.
        """
        if self._columns is None:
            return array("d", [clause.weight for clause in self._clauses])  # type: ignore[union-attr]
        return self._columns.weights

    def literal_atom_positions(self) -> "np.ndarray":
        """Each literal's position in ``atom_ids``, in column order.

        The component decomposition hands these over from its one position
        pass; otherwise one :func:`literal_positions` pass finds them, once.
        """
        if self._positions is None:
            literals = np.frombuffer(self.columns().literals, dtype=np.int64)
            self._positions = literal_positions(literals, self.atom_ids)
        return self._positions

    def _atom_clauses(self) -> Dict[int, List[int]]:
        """Atom id → indices of the clauses mentioning it, built on first use."""
        adjacency = self._adjacency
        if adjacency is None:
            adjacency = {atom_id: [] for atom_id in self.atom_ids}
            for index, literals in enumerate(self.literal_rows()):
                # Order-preserving dedup (literal order), not set order.
                for atom_id in dict.fromkeys(map(abs, literals)):
                    adjacency.setdefault(atom_id, []).append(index)
            self._adjacency = adjacency
        return adjacency

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def atom_count(self) -> int:
        return len(self.atom_ids)

    @property
    def clause_count(self) -> int:
        if self._columns is None:
            return len(self._clauses)  # type: ignore[arg-type]
        return len(self._columns.weights)

    def total_literals(self) -> int:
        if self._columns is None:
            return sum(len(clause.literals) for clause in self._clauses)  # type: ignore[union-attr]
        return len(self._columns.literals)

    def size(self) -> int:
        """The size measure used by the partitioner (atoms + literals)."""
        return self.atom_count + self.total_literals()

    def flat_view(self) -> MRFFlatView:
        """The flat-array view of this MRF, built lazily and cached."""
        if self._flat_view is None:
            self._flat_view = MRFFlatView(self)
        return self._flat_view

    def clauses_of_atom(self, atom_id: int) -> List[int]:
        """Indices (into ``clauses``) of the clauses mentioning an atom."""
        return self._atom_clauses().get(atom_id, [])

    def degree(self, atom_id: int) -> int:
        return len(self._atom_clauses().get(atom_id, ()))

    def total_soft_weight(self) -> float:
        return functools.reduce(
            operator.add,
            (abs(weight) for weight in self.weight_column() if not math.isinf(weight)),
            0.0,
        )

    # ------------------------------------------------------------------
    # Subgraphs
    # ------------------------------------------------------------------

    def subgraph(self, atom_subset: Iterable[int]) -> "MRF":
        """The induced sub-MRF: clauses all of whose atoms are in the subset."""
        subset = set(atom_subset)
        clauses = [
            clause
            for clause in self.clauses
            if all(atom_id in subset for atom_id in clause.atom_ids)
        ]
        return MRF.from_clauses(clauses, extra_atoms=subset)

    def cut_clauses(self, atom_subset: Iterable[int]) -> List[GroundClause]:
        """Clauses spanning the subset boundary (some atoms in, some out)."""
        subset = set(atom_subset)
        result = []
        for clause in self.clauses:
            inside = sum(1 for atom_id in clause.atom_ids if atom_id in subset)
            if 0 < inside < len(set(clause.atom_ids)):
                result.append(clause)
        return result

    def neighbors(self, atom_id: int) -> FrozenSet[int]:
        """Atoms sharing at least one clause with the given atom."""
        neighbors: Set[int] = set()
        for clause_index in self._atom_clauses().get(atom_id, ()):
            neighbors.update(self.clauses[clause_index].atom_ids)
        neighbors.discard(atom_id)
        return frozenset(neighbors)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MRF(atoms={self.atom_count}, clauses={self.clause_count})"
