"""Connected-component detection over the ground MRF (paper, Section 3.3).

The paper finds components with one scan of the clause table; here the
scan is array labelling over the MRF's literal column.  One pass
(:func:`~repro.mrf.graph.literal_positions`) gives every literal's atom
position, and every clause contributes the edges from its first atom to
its other atoms.  Labelling
then alternates two array steps (Shiloach–Vishkin style):

* **hooking** — every root that shares an edge with a smaller root
  points at the smallest such root (one ``np.minimum.at`` over the edges
  that still cross two trees);
* **shortcutting** — pointer jumping (``parent = parent[parent]``) until
  every tree is a star, so each atom's parent is its root again.

A root hooks only onto a smaller root, so no cycle can form and each
component's root ends as its smallest atom position.  A root that does
not hook in one round (every neighbour is larger) has a neighbour that
hooks onto a root no larger than it, so it hooks in the next round: the
number of trees in a component at least halves every two rounds, which
bounds the rounds by ``2 log2(atoms)`` (a 100,000-atom chain in random id
order takes 11).  Plain min-label propagation — every atom takes the
smallest label among its neighbours — was rejected: a label moves one
edge per round, so it needs as many rounds as the component's diameter
(26,734 on that chain, 90 s).

Components are ordered by their smallest atom id.  Every clause belongs
to its first atom's component, and the clause columns are reordered once,
stably, by that label: each component's clauses are a contiguous slice of
the reordered columns, in their original order.  The position pass is
reused for the components too: each component MRF is handed its literals'
positions in its own (ascending) atom-id list, so its first search state
does not search for them again.  Component MRFs are columns plus atom ids —
arrays, not clause objects, which is what forked workers inherit.  The
decomposition exposes each component as its own
:class:`~repro.mrf.graph.MRF` plus a per-component size, which is what the
bin-packing batch loader and the component-aware search consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.grounding.clause_table import GroundClauseStore
from repro.mrf.graph import MRF, literal_positions


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
    offsets = np.frombuffer(columns.offsets, dtype=np.int64)
    if (offsets[1:] == offsets[:-1]).any():
        raise ValueError("a clause without literals belongs to no component")
    ids = np.asarray(mrf.atom_ids, dtype=np.int64)
    positions = literal_positions(np.frombuffer(columns.literals, dtype=np.int64), mrf.atom_ids)
    roots = _root_labels(positions, offsets, len(ids))

    # Components by smallest atom id: each root's first appearance when
    # the atoms are read in id order.
    by_id = np.argsort(ids, kind="stable")
    _, first_seen = np.unique(roots[by_id], return_index=True)
    ordered_roots = roots[by_id][np.sort(first_seen)]
    count = len(ordered_roots)
    rank = np.empty(len(ids), dtype=np.intp)
    rank[ordered_roots] = np.arange(count)
    component = rank[roots]

    # Each component's atoms ascending by id, and every atom's position
    # in its component's list.
    members = np.lexsort((ids, component))
    sizes = np.bincount(component, minlength=count)
    starts = np.zeros(count + 1, dtype=np.intp)
    np.cumsum(sizes, out=starts[1:])
    local = np.empty(len(ids), dtype=np.intp)
    local[members] = np.arange(len(ids)) - starts[component[members]]
    # Gathered as object references: the components' atom ids and the
    # index below are the MRF's own int objects, not new ones per atom.
    atom_objects = np.array(mrf.atom_ids, dtype=object)
    member_ids = atom_objects[members].tolist()
    bounds = starts.tolist()

    decomposition = ComponentDecomposition()
    # Atoms assigned component by component, each component's in the
    # MRF's atom order.
    in_atom_order = np.argsort(component, kind="stable")
    indices = np.arange(count).astype(object)
    decomposition.atom_to_component = dict(
        zip(atom_objects[in_atom_order].tolist(), indices[component[in_atom_order]].tolist())
    )
    parts = columns.partition(component[positions[offsets[:-1]]], count, local[positions])
    for index, (part, part_positions) in enumerate(parts):
        decomposition.components.append(
            MRF(
                columns=part,
                atom_ids=member_ids[bounds[index] : bounds[index + 1]],
                positions=part_positions,
            )
        )
    return decomposition


def _root_labels(positions: "np.ndarray", offsets: "np.ndarray", atom_count: int) -> "np.ndarray":
    """Each atom position's component root: the smallest position in it.

    ``positions`` holds every literal's atom position and ``offsets`` the
    clause bounds over it (the CSR layout of :class:`ClauseColumns`).
    Hooking and shortcutting as in the module docstring; atoms in no
    clause are their own roots.
    """
    parent = np.arange(atom_count)
    firsts = np.repeat(positions[offsets[:-1]], np.diff(offsets))
    edges = firsts != positions
    left, right = firsts[edges], positions[edges]
    while len(left):
        left_root, right_root = parent[left], parent[right]
        crossing = left_root != right_root
        left, right = left[crossing], right[crossing]
        if not len(left):
            break
        left_root, right_root = left_root[crossing], right_root[crossing]
        np.minimum.at(
            parent,
            np.maximum(left_root, right_root),
            np.minimum(left_root, right_root),
        )
        while True:
            grandparent = parent[parent]
            if (grandparent == parent).all():
                break
            parent = grandparent
    return parent
