"""Connected-component detection over the ground MRF (paper, Section 3.3).

Components are found by a single scan of the clause table that merges the
atoms of every clause in a union-find structure — exactly the procedure the
paper describes — followed by one bucketing pass that drops each clause
into the component its atoms were merged into.  Every clause is visited
once per pass and read straight off ``clause.literals``; a component's
atom set *is* its union-find group, so component MRFs are constructed
directly rather than re-derived from their clauses.  The decomposition exposes each
component as its own :class:`~repro.mrf.graph.MRF` plus a per-component
size, which is what the bin-packing batch loader and the component-aware
search consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.grounding.clause_table import GroundClause, GroundClauseStore
from repro.mrf.graph import MRF
from repro.mrf.union_find import UnionFind


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
    union_find = UnionFind(mrf.atom_ids)
    union_sequence = union_find.union_sequence
    # Atoms are merged in literal order (never set order, which is
    # hash-dependent): the merge order feeds union-find root selection.
    # Each clause remembers the root it merged into — a member of its
    # component — so the bucketing pass needs no second look at literals.
    anchors = [union_sequence(map(abs, clause.literals)) for clause in mrf.clauses]

    groups = union_find.groups()
    clause_groups: Dict[object, List[GroundClause]] = {root: [] for root in groups}
    find = union_find.find
    for clause, anchor in zip(mrf.clauses, anchors):
        clause_groups[find(anchor)].append(clause)

    decomposition = ComponentDecomposition()
    # Deterministic ordering: components sorted by their smallest atom id.
    ordered_roots = sorted(groups, key=lambda root: min(groups[root]))
    for index, root in enumerate(ordered_roots):
        decomposition.components.append(
            MRF(clauses=clause_groups[root], atom_ids=sorted(groups[root]))
        )
        for atom_id in groups[root]:
            decomposition.atom_to_component[atom_id] = index
    return decomposition
