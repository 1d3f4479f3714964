"""Connected-component detection over the ground MRF (paper, Section 3.3).

Components are found by a single pass over the clause table that merges
the atoms of every clause in a union-find structure — the procedure the
paper describes.  The pass reads the MRF's literal column: a clause's
atoms are a slice of it, and clauses over the same atom set (the same
atoms with other signs, from other rules) are merged once.  Which atoms
end up together — all the decomposition depends on — does not depend on
the order sets are merged in.  Every clause then belongs to its first
atom's component, and the clause columns are reordered once, stably, by
that label: each component's clauses are a contiguous slice of the
reordered columns, in their original order.  A component's atom set *is*
its union-find group, so component MRFs are columns plus atom ids —
arrays, not clause objects, which is what forked workers inherit.  The
decomposition exposes each component as its own
:class:`~repro.mrf.graph.MRF` plus a per-component size, which is what the
bin-packing batch loader and the component-aware search consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.grounding.clause_table import ClauseColumns, GroundClauseStore, row_keys
from repro.mrf.graph import MRF, literal_positions
from repro.mrf.union_find import UnionFind

#: Atom sets the union pass turns into Python lists per block.
_SCAN_BLOCK_SETS = 8192


@dataclass
class ComponentDecomposition:
    """The set of connected components of an MRF."""

    components: List[MRF] = field(default_factory=list)
    atom_to_component: Dict[int, int] = field(default_factory=dict)

    @property
    def component_count(self) -> int:
        return len(self.components)

    def component_of_atom(self, atom_id: int) -> int:
        return self.atom_to_component[atom_id]

    def sizes(self) -> List[int]:
        return [component.size() for component in self.components]

    def largest(self) -> Optional[MRF]:
        if not self.components:
            return None
        return max(self.components, key=lambda component: component.size())

    def sorted_by_size(self, descending: bool = True) -> List[MRF]:
        return sorted(self.components, key=lambda component: component.size(), reverse=descending)


def connected_components(source: MRF | GroundClauseStore) -> ComponentDecomposition:
    """Split an MRF (or a clause store) into its connected components."""
    mrf = source if isinstance(source, MRF) else MRF.from_store(source)
    columns = mrf.columns()
    union_find = UnionFind(mrf.atom_ids)
    union_sequence = union_find.union_sequence
    for atoms in _atom_sets(columns):
        union_sequence(atoms)

    groups = union_find.groups()
    # Deterministic ordering: components sorted by their smallest atom id.
    ordered_roots = sorted(groups, key=lambda root: min(groups[root]))
    decomposition = ComponentDecomposition()
    atom_to_component = decomposition.atom_to_component
    for index, root in enumerate(ordered_roots):
        for atom_id in groups[root]:
            atom_to_component[atom_id] = index
    parts = columns.partition(
        _first_atom_labels(columns, mrf.atom_ids, atom_to_component), len(ordered_roots)
    )
    for index, root in enumerate(ordered_roots):
        decomposition.components.append(
            MRF(columns=parts[index], atom_ids=sorted(groups[root]))
        )
    return decomposition


def _atom_sets(columns: ClauseColumns) -> Iterator[Sequence[int]]:
    """The distinct atom sets (sorted) of the clauses with two or more literals."""
    atoms = np.abs(np.frombuffer(columns.literals, dtype=np.int64))
    offsets = np.frombuffer(columns.offsets, dtype=np.int64)
    lengths = np.diff(offsets)
    for width in np.unique(lengths[lengths > 1]).tolist():
        starts = offsets[:-1][lengths == width]
        rows = np.sort(atoms[starts[:, None] + np.arange(width)], axis=1)
        _, first = np.unique(row_keys(rows), return_index=True)
        distinct = rows[first]
        # A block at a time, so only one block's atom ids are Python ints
        # at once; the sets are zipped from columns, as tuples that die
        # young (no container per set outlives its union).
        for block in range(0, len(distinct), _SCAN_BLOCK_SETS):
            yield from zip(*distinct[block : block + _SCAN_BLOCK_SETS].T.tolist())


def _first_atom_labels(
    columns: ClauseColumns, atom_ids: List[int], atom_to_component: Dict[int, int]
) -> Sequence[int]:
    """Each clause's component: its first atom's."""
    offsets = np.frombuffer(columns.offsets, dtype=np.int64)
    if (offsets[1:] == offsets[:-1]).any():
        raise ValueError("a clause without literals belongs to no component")
    component_at = np.fromiter(
        map(atom_to_component.__getitem__, atom_ids), dtype=np.intp, count=len(atom_ids)
    )
    first_literals = np.frombuffer(columns.literals, dtype=np.int64)[offsets[:-1]]
    return component_at[literal_positions(first_literals, atom_ids)]
