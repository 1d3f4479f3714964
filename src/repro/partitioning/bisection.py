"""Balanced bisection of the MRF hypergraph (paper, Section 3.4 / Theorem 3.2).

The paper defines the *cost* of a balanced bisection ``(V1, V2)`` as the
number of hyperedges (clauses) touching both sides and proves that finding a
minimum-cost balanced bisection of an MLN-generated MRF is NP-hard (by
reduction from graph minimum bisection).  The library therefore does not try
to solve it exactly; this module provides the cost function itself and a
random balanced bisection, which the partitioning ablation benchmark
compares against Algorithm 3's greedy cut.
"""

from __future__ import annotations

from typing import Iterable, List, Set, Tuple

from repro.mrf.graph import MRF
from repro.utils.rng import RandomSource


def bisection_cost(mrf: MRF, side_one: Iterable[int]) -> int:
    """Number of clauses with atoms on both sides of the bisection."""
    inside: Set[int] = set(side_one)
    cost = 0
    for clause in mrf.clauses:
        atom_ids = set(clause.atom_ids)
        in_count = sum(1 for atom_id in atom_ids if atom_id in inside)
        if 0 < in_count < len(atom_ids):
            cost += 1
    return cost


def random_balanced_bisection(
    mrf: MRF, rng: RandomSource
) -> Tuple[List[int], List[int]]:
    """A uniformly random split of the atoms into two equal-size halves."""
    atoms = list(mrf.atom_ids)
    rng.shuffle(atoms)
    half = len(atoms) // 2
    return sorted(atoms[:half]), sorted(atoms[half:])
