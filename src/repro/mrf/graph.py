"""The MRF graph structure consumed by the search phase.

An :class:`MRF` is two lists — ground clauses and atom ids — and nothing
else is built when one is constructed: ``from_store`` / ``from_clauses``
visit each clause once, to collect its atoms.  What the consumers need on
top is derived on first use and cached on the object: the position-indexed
:class:`MRFFlatView` (and the numpy view over it) when the first search
state is made — on the processes backend, in the worker that first runs
the component — the atom → clause adjacency when ``clauses_of_atom`` /
``degree`` / ``neighbors`` is first asked, the literal total on the first
``size()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.grounding.clause_table import GroundClause, GroundClauseStore


class MRFFlatView:
    """Flat, cache-friendly arrays describing an MRF's clause/atom structure.

    The WalkSAT kernel (:class:`repro.inference.state.SearchState`) indexes
    atoms and clauses by dense *positions* rather than ids.  This view maps
    between the two and precomputes, once per MRF, the flattened relations
    the kernel's hot loops need:

    * ``clause_codes`` — the clause → literal relation as per-clause
      tuples of signed codes: a literal over atom position ``p`` is the
      int ``+(p + 1)`` (positive occurrence) or ``-(p + 1)`` (negative),
      so satisfied-count initialisation iterates plain ints.
    * ``adjacency`` — the atom → clause relation as per-atom tuples of
      ``(clause_index, positive)`` pairs, entries in clause order (which
      the kernel relies on for reproducible violated-set ordering).  The
      per-flip loops unpack these pre-built pairs, reusing the stored
      index object; a signed-code encoding here would allocate a fresh
      int per entry when decoding (measurably slower in CPython).
    * ``clause_atom_positions`` — the distinct atom positions of each
      clause in first-occurrence order, deduplicated once here instead of
      on every WalkSAT step.

    A view is built lazily by :meth:`MRF.flat_view` and cached; it assumes
    the MRF is not mutated afterwards.  All buffers are read-only shared
    state: every :class:`SearchState` over the same MRF reuses one view.
    """

    __slots__ = (
        "atom_ids",
        "atom_position",
        "clause_codes",
        "clause_atom_positions",
        "adjacency",
    )

    @classmethod
    def from_parts(
        cls,
        atom_ids: List[int],
        atom_position: Dict[int, int],
        clause_codes: Sequence[Tuple[int, ...]],
        clause_atom_positions: Sequence[Tuple[int, ...]],
        adjacency: Sequence[Sequence[Tuple[int, bool]]],
    ) -> "MRFFlatView":
        """Assemble a view from prebuilt pieces, bypassing the per-literal scan.

        Callers (the SampleSAT constraint pool) derive the pieces from an
        existing view over the same atom universe, so the invariants — codes
        reference positions in ``atom_ids`` order, adjacency entries appear
        in clause order — must already hold.  All arguments are adopted
        without copying and must be treated as read-only afterwards.
        """
        view = cls.__new__(cls)
        view.atom_ids = atom_ids
        view.atom_position = atom_position
        view.clause_codes = clause_codes
        view.clause_atom_positions = clause_atom_positions
        view.adjacency = adjacency
        return view

    def __init__(self, mrf: "MRF") -> None:
        self.atom_ids: List[int] = list(mrf.atom_ids)
        position = {atom_id: index for index, atom_id in enumerate(self.atom_ids)}
        self.atom_position: Dict[int, int] = position

        clause_codes: List[Tuple[int, ...]] = []
        clause_positions: List[Tuple[int, ...]] = []
        adjacency_lists: List[List[Tuple[int, bool]]] = [[] for _ in self.atom_ids]
        for clause_index, clause in enumerate(mrf.clauses):
            codes: List[int] = []
            distinct: List[int] = []
            for literal in clause.literals:
                atom_position = position[abs(literal)]
                codes.append(atom_position + 1 if literal > 0 else -(atom_position + 1))
                if atom_position not in distinct:
                    distinct.append(atom_position)
                adjacency_lists[atom_position].append((clause_index, literal > 0))
            clause_codes.append(tuple(codes))
            clause_positions.append(tuple(distinct))

        self.clause_codes: Tuple[Tuple[int, ...], ...] = tuple(clause_codes)
        self.clause_atom_positions: Tuple[Tuple[int, ...], ...] = tuple(clause_positions)
        self.adjacency: Tuple[Tuple[Tuple[int, bool], ...], ...] = tuple(
            tuple(entries) for entries in adjacency_lists
        )


@dataclass
class MRF:
    """A ground MRF: atoms (nodes) and weighted ground clauses (hyperedges).

    ``atom_ids`` is the set of query-atom ids appearing in the clauses (plus
    any isolated atoms explicitly added).  Everything derived from the two
    lists — the search kernels' flat/vector views, the atom → clause
    adjacency behind :meth:`clauses_of_atom`, the literal total — is a cache
    built on first use and excluded from ``==``.
    """

    clauses: List[GroundClause] = field(default_factory=list)
    atom_ids: List[int] = field(default_factory=list)
    _adjacency: Optional[Dict[int, List[int]]] = field(
        default=None, repr=False, compare=False
    )
    _flat_view: Optional[MRFFlatView] = field(default=None, repr=False, compare=False)
    # Lazily-built numpy structure shared by every vectorized search state
    # over this MRF (owned by repro.inference.vector_kernel, cached here so
    # its lifetime matches the MRF's, like _flat_view).
    _vector_view: Optional[object] = field(default=None, repr=False, compare=False)
    # ``(len(clauses), total literals)``: the schedulers, the bin-packer and
    # the loader ask for ``size()`` several times per request; a changed
    # clause count invalidates it.
    _literal_total: Optional[Tuple[int, int]] = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def from_store(
        cls, store: GroundClauseStore, extra_atoms: Iterable[int] = ()
    ) -> "MRF":
        atom_ids = set(store.atom_ids())
        atom_ids.update(extra_atoms)
        return cls(clauses=store.clauses(), atom_ids=sorted(atom_ids))

    @classmethod
    def from_clauses(
        cls, clauses: Sequence[GroundClause], extra_atoms: Iterable[int] = ()
    ) -> "MRF":
        atom_ids: Set[int] = set(extra_atoms)
        for clause in clauses:
            atom_ids.update(map(abs, clause.literals))
        return cls(clauses=list(clauses), atom_ids=sorted(atom_ids))

    def _atom_clauses(self) -> Dict[int, List[int]]:
        """Atom id → indices of the clauses mentioning it, built on first use."""
        adjacency = self._adjacency
        if adjacency is None:
            adjacency = {atom_id: [] for atom_id in self.atom_ids}
            for index, clause in enumerate(self.clauses):
                # Order-preserving dedup (literal order), not set order.
                for atom_id in dict.fromkeys(map(abs, clause.literals)):
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
        return len(self.clauses)

    def total_literals(self) -> int:
        cached = self._literal_total
        if cached is None or cached[0] != len(self.clauses):
            cached = (
                len(self.clauses),
                sum(len(clause.literals) for clause in self.clauses),
            )
            self._literal_total = cached
        return cached[1]

    def size(self) -> int:
        """The size measure used by the partitioner (atoms + literals)."""
        return self.atom_count + self.total_literals()

    def flat_view(self) -> MRFFlatView:
        """The flat-array view of this MRF, built lazily and cached.

        The view (and everything derived from it) assumes the clause list is
        no longer mutated once the first search state has been constructed.
        """
        if self._flat_view is None:
            self._flat_view = MRFFlatView(self)
        return self._flat_view

    def clauses_of_atom(self, atom_id: int) -> List[int]:
        """Indices (into ``clauses``) of the clauses mentioning an atom."""
        return self._atom_clauses().get(atom_id, [])

    def degree(self, atom_id: int) -> int:
        return len(self._atom_clauses().get(atom_id, ()))

    def total_soft_weight(self) -> float:
        return sum(abs(clause.weight) for clause in self.clauses if not clause.is_hard)

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
