"""The MLN cost function over truth assignments (paper, Equation 1).

``cost(I) = sum over violated ground clauses of |weight|``, where a clause
with positive weight is violated when unsatisfied and a clause with negative
weight is violated when satisfied.  Hard clauses contribute ``inf`` when
violated, which MAP search treats as "never acceptable".
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Dict, Iterable, List, Mapping, Sequence

from repro.grounding.clause_table import GroundClause
from repro.mrf.graph import MRF


def _truth_of(assignment: Mapping[int, bool], atom_id: int) -> bool:
    """Truth of an atom under an assignment; missing atoms default to False."""
    return bool(assignment.get(atom_id, False))


def clause_satisfied(clause: GroundClause, assignment: Mapping[int, bool]) -> bool:
    """Whether the clause (a disjunction) is satisfied under the assignment."""
    for literal in clause.literals:
        value = _truth_of(assignment, abs(literal))
        if (literal > 0 and value) or (literal < 0 and not value):
            return True
    return False


def clause_violated(clause: GroundClause, assignment: Mapping[int, bool]) -> bool:
    """Violation in the paper's sense (sign-aware)."""
    satisfied = clause_satisfied(clause, assignment)
    return (not satisfied) if clause.weight >= 0 else satisfied


def assignment_cost(
    clauses: Iterable[GroundClause] | MRF,
    assignment: Mapping[int, bool],
    hard_as_infinite: bool = True,
    hard_penalty: float = 1e6,
) -> float:
    """Total cost of an assignment.

    With ``hard_as_infinite`` (the default) a violated hard clause makes the
    cost infinite; otherwise it contributes ``hard_penalty``, which is how
    the search scores candidate flips without drowning in infinities.
    """
    clause_list = clauses.iter_clauses() if isinstance(clauses, MRF) else clauses
    total = 0.0
    for clause in clause_list:
        if not clause_violated(clause, assignment):
            continue
        if clause.is_hard:
            if hard_as_infinite:
                return math.inf
            total += hard_penalty
        else:
            total += abs(clause.weight)
    return total


def violated_clauses(
    clauses: Iterable[GroundClause] | MRF, assignment: Mapping[int, bool]
) -> List[GroundClause]:
    """The violated clauses themselves (used by tests and diagnostics)."""
    clause_list = clauses.iter_clauses() if isinstance(clauses, MRF) else clauses
    return [clause for clause in clause_list if clause_violated(clause, assignment)]


def cost_decomposes_over_components(
    components: Sequence[MRF], assignment: Mapping[int, bool]
) -> float:
    """Sum of per-component costs; equals the global cost when the components
    partition the clause set (the identity the paper's Section 3.3 relies on)."""
    return functools.reduce(
        operator.add,
        (
            assignment_cost(component, assignment, hard_as_infinite=False)
            for component in components
        ),
        0.0,
    )


def all_false_assignment(mrf: MRF) -> Dict[int, bool]:
    """The all-false starting assignment over the MRF's atoms."""
    return {atom_id: False for atom_id in mrf.atom_ids}
