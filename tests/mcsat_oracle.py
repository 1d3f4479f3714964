"""The scalar MC-SAT loop: the executable specification of ``MCSat.run``.

One Python pass over the clause list per step selects the constraints
(:func:`select_clauses`), SampleSAT then runs on a state built from
scratch over exactly those constraints (:func:`sample`), and worlds hand
off and count as dicts.  ``MCSat.run`` (numpy selection, constraint states
taken from one packed table, int-vector accumulation) must consume the
identical RNG stream and return bit-identical marginals; the parity suite
(``tests/test_mcsat_parity.py``) checks it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence

from repro.grounding.clause_table import GroundClause
from repro.inference.mcsat import MarginalResult, MCSatOptions
from repro.inference.samplesat import SampleSAT, hard_constraint_prefix
from repro.inference.state import SearchState
from repro.mrf.graph import MRF
from repro.utils.rng import RandomSource


def constraint_pieces(clause: GroundClause) -> List[GroundClause]:
    """What selecting a soft clause adds: the clause itself when its weight
    is positive, else the unit negation of each of its literals."""
    if clause.weight > 0:
        return [GroundClause(clause.clause_id, clause.literals, 1.0, clause.source)]
    return [
        GroundClause(clause.clause_id, (-literal,), 1.0, clause.source)
        for literal in clause.literals
    ]


def soft_indices(mrf: MRF) -> List[int]:
    """The parent indices of the clauses a step may select (soft, nonzero)."""
    return [
        index
        for index, clause in enumerate(mrf.clauses)
        if not clause.is_hard and clause.weight != 0
    ]


def select_clauses(
    rng: RandomSource, clauses: Sequence[GroundClause], satisfied_flags: Sequence[bool]
) -> List[GroundClause]:
    """The random clause subset M for one MC-SAT step.

    ``satisfied_flags`` gives the literal-level satisfaction of every
    clause under the current world, in clause order.  Hard clauses form
    the always-selected prefix and consume no randomness; soft clauses are
    then considered in clause order, drawing ``rng.random()`` once per
    eligible clause (positive and satisfied, or negative and unsatisfied).
    """
    selected = hard_constraint_prefix(clauses)
    next_id = len(selected) + 1
    for clause, satisfied in zip(clauses, satisfied_flags):
        weight = clause.weight
        if clause.is_hard:
            continue
        if (weight > 0 and satisfied) or (weight < 0 and not satisfied):
            if rng.random() < 1.0 - math.exp(-abs(weight)):
                for piece in constraint_pieces(clause):
                    selected.append(GroundClause(next_id, piece.literals, 1.0, piece.source))
                    next_id += 1
    return selected


def sample(
    sampler: SampleSAT,
    clauses: Sequence[GroundClause],
    atom_ids: Sequence[int],
    initial_assignment: Optional[Mapping[int, bool]] = None,
) -> Dict[int, bool]:
    """SampleSAT over a state built from scratch over the clauses.

    The clauses are constraints (renumbered, weighted 1.0); the run starts
    from ``initial_assignment``, or from a random world when it is None.
    """
    constraints = [
        GroundClause(index + 1, clause.literals, 1.0, clause.source)
        for index, clause in enumerate(clauses)
    ]
    state = SearchState(
        MRF.from_clauses(constraints, extra_atoms=atom_ids), initial_assignment
    )
    if initial_assignment is None:
        state.randomize(sampler.rng)
    if sampler.run_moves(state):
        return state.checkpoint_dict()
    return state.assignment_dict()


def run_mcsat(
    options: MCSatOptions,
    rng: RandomSource,
    mrf: MRF,
    initial_assignment: Optional[Mapping[int, bool]] = None,
) -> MarginalResult:
    """``MCSat(options, rng).run(mrf, initial_assignment)``, one clause at a time."""
    sampler = SampleSAT(options.samplesat, rng.spawn(97))
    evaluator = SearchState(mrf)
    atom_ids = list(mrf.atom_ids)
    current = sample(sampler, hard_constraint_prefix(mrf.clauses), atom_ids, initial_assignment)
    true_counts: Dict[int, int] = {atom_id: 0 for atom_id in atom_ids}
    kept_samples = 0
    for iteration in range(options.samples + options.burn_in):
        evaluator.reset(current)
        constraints = select_clauses(rng, mrf.clauses, evaluator.satisfaction_flags())
        current = sample(sampler, constraints, atom_ids)
        if iteration >= options.burn_in:
            kept_samples += 1
            for atom_id in atom_ids:
                if current.get(atom_id, False):
                    true_counts[atom_id] += 1
    probabilities = {
        atom_id: true_counts[atom_id] / kept_samples if kept_samples else 0.0
        for atom_id in atom_ids
    }
    return MarginalResult(probabilities, kept_samples, options.burn_in)
