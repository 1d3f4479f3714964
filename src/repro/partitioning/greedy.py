"""The greedy MRF partitioner (the paper's Algorithm 3, Appendix B.7).

The partitioner is inspired by Kruskal's minimum-spanning-tree algorithm: it
scans the clauses in descending order of ``|weight|`` and adds each clause's
hyperedge to the partition graph unless doing so would grow a connected
component beyond the size bound β.  High-weight clauses are therefore the
least likely to be cut, which heuristically minimises the weighted cut size.

The size of a partition is measured, as in the paper, as the total number of
atoms plus literals assigned to it; β = ∞ reduces the algorithm to plain
connected-component detection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

from repro.grounding.clause_table import GroundClause
from repro.mrf.graph import MRF
from repro.mrf.union_find import UnionFind


@dataclass
class Partitioning:
    """The output of the partitioner.

    ``atom_partitions`` holds the atom ids of every partition;
    ``clause_assignment`` maps each clause (by position in the source MRF's
    clause list) to the partition owning it, and ``cut_clauses`` lists the
    positions of clauses spanning more than one partition.
    """

    atom_partitions: List[List[int]] = field(default_factory=list)
    clause_assignment: Dict[int, int] = field(default_factory=dict)
    cut_clauses: List[int] = field(default_factory=list)
    size_bound: float = math.inf

    @property
    def partition_count(self) -> int:
        return len(self.atom_partitions)

    @property
    def cut_size(self) -> int:
        return len(self.cut_clauses)

    def sizes(self, mrf: MRF) -> List[int]:
        """Size (atoms + literals) of each partition."""
        totals = [len(atoms) for atoms in self.atom_partitions]
        for clause_index, partition_index in self.clause_assignment.items():
            totals[partition_index] += len(mrf.clauses[clause_index].literals)
        return totals


class GreedyPartitioner:
    """Algorithm 3: weight-ordered agglomerative partitioning with a size bound."""

    def __init__(self, size_bound: float = math.inf) -> None:
        if size_bound <= 0:
            raise ValueError("size_bound must be positive")
        self.size_bound = size_bound

    def partition(self, mrf: MRF) -> Partitioning:
        """Partition the MRF's atoms subject to the size bound."""
        union_find = UnionFind(mrf.atom_ids)
        # Size of the component containing each root: atoms + assigned literals.
        component_size: Dict[object, int] = {atom_id: 1 for atom_id in mrf.atom_ids}

        ordered = sorted(
            range(len(mrf.clauses)),
            key=lambda index: (
                -self._effective_weight(mrf.clauses[index]),
                index,
            ),
        )
        merged_clauses: List[int] = []
        cut_clauses: List[int] = []

        for clause_index in ordered:
            clause = mrf.clauses[clause_index]
            atom_ids = sorted(set(clause.atom_ids))
            roots = {union_find.find(atom_id) for atom_id in atom_ids}
            combined = sum(component_size[root] for root in roots) + len(clause.literals)
            if combined > self.size_bound and len(roots) > 1:
                cut_clauses.append(clause_index)
                continue
            if combined > self.size_bound and len(roots) == 1:
                # The clause lives inside one component that is already at the
                # bound; adding its literals would overflow, so it is cut.
                cut_clauses.append(clause_index)
                continue
            # Merge the components and account for the clause's literals.
            component_size[union_find.union_sequence(atom_ids)] = combined
            merged_clauses.append(clause_index)

        groups = union_find.groups()
        ordered_roots = sorted(groups, key=lambda root: min(groups[root]))
        root_to_partition = {root: index for index, root in enumerate(ordered_roots)}
        atom_partitions = [sorted(groups[root]) for root in ordered_roots]

        clause_assignment: Dict[int, int] = {}
        for clause_index in merged_clauses:
            clause = mrf.clauses[clause_index]
            root = union_find.find(clause.atom_ids[0])
            clause_assignment[clause_index] = root_to_partition[root]

        return Partitioning(
            atom_partitions=atom_partitions,
            clause_assignment=clause_assignment,
            cut_clauses=sorted(cut_clauses),
            size_bound=self.size_bound,
        )

    @staticmethod
    def _effective_weight(clause: GroundClause) -> float:
        # Hard clauses sort first (they must not be cut if at all possible).
        if clause.is_hard:
            return math.inf
        return abs(clause.weight)
