"""The ground Markov Random Field (MRF).

The grounding phase outputs a weighted SAT problem; viewed as a hypergraph
whose nodes are atoms and whose hyperedges are ground clauses, this is the
Markov Random Field of the MLN (paper, Appendix A.2).  This package provides
the graph structure, the cost function the search minimises, connected-
component detection by array labelling (paper, Section 3.3) and the
union-find the greedy partitioner merges with.
"""

from repro.mrf.components import ComponentDecomposition, connected_components
from repro.mrf.cost import assignment_cost, violated_clauses
from repro.mrf.graph import MRF
from repro.mrf.union_find import UnionFind

__all__ = [
    "ComponentDecomposition",
    "MRF",
    "UnionFind",
    "assignment_cost",
    "connected_components",
    "violated_clauses",
]
