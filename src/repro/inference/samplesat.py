"""SampleSAT: near-uniform sampling of satisfying assignments.

MC-SAT (Appendix A.5 of the paper) requires, at every step, a sample drawn
near-uniformly from the assignments satisfying a chosen subset of clauses.
SampleSAT (Wei, Erenrich and Selman, 2004) achieves this by mixing WalkSAT
moves (which drive towards satisfaction) with simulated-annealing moves
(which give the chain its near-uniform stationary behaviour).

Two details matter for ergodicity of the enclosing MC-SAT chain:

* the sampler keeps moving for a number of *mixing steps* after it first
  satisfies the constraints, so atoms that the constraints do not pin down
  get re-randomised rather than frozen at their previous values, and
* it returns the most recent *satisfying* assignment it visited (falling
  back to the current state only if it never satisfied everything).

Every move runs on the one :class:`~repro.inference.state.SearchState`
kernel.  MC-SAT's per-step constraint states are ordinary search states
over rows of one packed constraint table (:class:`ConstraintPool`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.grounding.clause_table import ClauseColumns, GroundClause
from repro.inference.state import SearchState
from repro.mrf.graph import MRF, literal_positions
from repro.utils.rng import RandomSource


@dataclass
class SampleSATOptions:
    """Tuning parameters for SampleSAT."""

    max_flips: int = 3_000
    mixing_steps: int = 200
    walksat_probability: float = 0.5
    temperature: float = 0.5
    noise: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.walksat_probability <= 1.0:
            raise ValueError("walksat_probability must be within [0, 1]")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.max_flips <= 0:
            raise ValueError("max_flips must be positive")
        if self.mixing_steps < 0:
            raise ValueError("mixing_steps cannot be negative")


class SampleSAT:
    """Samples an assignment satisfying (as many as possible of) the clauses."""

    def __init__(
        self,
        options: Optional[SampleSATOptions] = None,
        rng: Optional[RandomSource] = None,
    ) -> None:
        self.options = options or SampleSATOptions()
        self.rng = rng or RandomSource(0)

    def sample_prepared(self, state: SearchState) -> bool:
        """Randomize and run the move loop on a prepared constraint state.

        Consumes one coin per atom for the restart, then the move loop's
        draws.  Returns whether a satisfying assignment was found; the
        state's checkpoint snapshot holds the most recent satisfying
        assignment when it was.
        """
        state.randomize(self.rng)
        return self.run_moves(state)

    def run_moves(self, state: SearchState) -> bool:
        """The SampleSAT move loop over an initialised constraint state.

        Mixes WalkSAT and annealing moves until the flip budget runs out or
        the chain has kept moving for ``mixing_steps`` steps after reaching
        a satisfying assignment.  The most recent satisfying assignment is
        retained through the kernel's flip journal (one checkpoint per
        satisfying step is O(1) amortised) instead of a full dict copy per
        step; returns whether one was ever found.
        """
        options = self.options
        found_satisfying = False
        steps_while_satisfied = 0
        for _step in range(options.max_flips):
            if not state.has_violations():
                state.checkpoint()
                found_satisfying = True
                steps_while_satisfied += 1
                if steps_while_satisfied > options.mixing_steps:
                    break
                self._annealing_move(state)
                continue
            steps_while_satisfied = 0
            if self.rng.random() < options.walksat_probability:
                self._walksat_move(state)
            else:
                self._annealing_move(state)
        return found_satisfying

    # ------------------------------------------------------------------
    # Moves
    # ------------------------------------------------------------------

    def _walksat_move(self, state: SearchState) -> None:
        # Deliberately NOT the kernel's walksat stepper: that primitive
        # short-circuits single-atom clauses without drawing rng.random(),
        # whereas this sampler has always drawn it unconditionally —
        # swapping would silently change every seeded MC-SAT stream.  The
        # kernel still accelerates the pieces (precomputed positions, fast
        # delta/flip).
        clause_index = state.sample_violated_clause(self.rng)
        positions = state.clause_atom_positions(clause_index)
        # Strict comparison, matching WalkSAT: noise=0.0 is purely greedy.
        if self.rng.random() < self.options.noise:
            position = self.rng.pick(positions)
        else:
            # The positions are distinct, so min() keeps the first minimum.
            position = min(positions, key=state.delta_cost)
        state.flip(position)

    def _annealing_move(self, state: SearchState) -> None:
        position = self.rng.randint(0, len(state.atom_ids) - 1)
        delta = state.delta_cost(position)
        if delta <= 0 or self.rng.random() < math.exp(-delta / self.options.temperature):
            state.flip(position)


# ----------------------------------------------------------------------
# MC-SAT's constraint states
# ----------------------------------------------------------------------


def constraint_rows(clause: GroundClause) -> List[Tuple[int, ...]]:
    """The constraint literals selecting a clause adds to an MC-SAT step.

    A positive clause must stay satisfied: it is one constraint, itself.  A
    negative clause must stay unsatisfied: every literal must stay false,
    one unit constraint (the literal's negation) per literal.
    """
    if clause.weight > 0:
        return [clause.literals]
    return [(-literal,) for literal in clause.literals]


def hard_constraint_prefix(clauses: Sequence[GroundClause]) -> List[GroundClause]:
    """The always-selected constraint prefix of an MC-SAT step.

    The :func:`constraint_rows` of every hard clause, in clause order,
    renumbered from 1 and weighted 1.0.  Every selection, the initial
    state's included, starts with exactly this prefix.
    """
    prefix: List[GroundClause] = []
    for clause in clauses:
        if clause.is_hard:
            for literals in constraint_rows(clause):
                prefix.append(GroundClause(len(prefix) + 1, literals, 1.0, clause.source))
    return prefix


class ConstraintPool:
    """Every constraint an MC-SAT step over one MRF can select, packed once.

    The table lists, in the order a selection lists them, the hard prefix
    (:func:`hard_constraint_prefix`) and then each soft clause's
    :func:`constraint_rows` in parent clause order; every row weighs 1.0.
    ``owners`` maps each row to its parent clause, the prefix rows to an
    extra slot that every step keeps.  A step's constraint state is an
    ordinary :class:`SearchState` over the kept rows, taken from the table
    in order, over the parent's atom ids: its flat view, count arrays and
    hard penalty (``max(10 * rows, 10)``) are built the way every state
    builds them.  A prefix-only selection reuses one cached state.
    """

    def __init__(self, mrf: MRF) -> None:
        clauses = mrf.clauses
        rows = hard_constraint_prefix(clauses)
        self._prefix_rows = np.arange(len(rows))
        owners = [len(clauses)] * len(rows)
        for index, clause in enumerate(clauses):
            if clause.is_hard or clause.weight == 0:
                continue
            for literals in constraint_rows(clause):
                rows.append(GroundClause(clause.clause_id, literals, 1.0, clause.source))
                owners.append(index)
        self._atom_ids = mrf.atom_ids
        self._table = ClauseColumns.pack(rows)
        self._positions = literal_positions(
            np.frombuffer(self._table.literals, dtype=np.int64), self._atom_ids
        )
        self._owners = np.asarray(owners, dtype=np.intp)
        self._keep = np.zeros(len(clauses) + 1, dtype=bool)
        self._keep[-1] = True
        self._prefix_state: Optional[SearchState] = None

    def prefix_state(
        self, initial_assignment: Optional[Mapping[int, bool]] = None
    ) -> SearchState:
        """The cached state over the prefix-only constraint set.

        Built on first use; later calls reuse it, resetting in place when an
        initial assignment is given (callers about to randomize skip that).
        """
        if self._prefix_state is None:
            self._prefix_state = self._state(self._prefix_rows, initial_assignment)
        elif initial_assignment is not None:
            self._prefix_state.reset(initial_assignment)
        return self._prefix_state

    def state_for(self, selected_soft: Sequence[int]) -> SearchState:
        """A constraint state for the prefix plus the selected soft clauses.

        ``selected_soft`` holds parent-MRF clause indices of soft clauses.
        An empty selection reuses the cached prefix state.
        """
        if not len(selected_soft):
            return self.prefix_state()
        keep = self._keep.copy()
        keep[selected_soft] = True
        return self._state(np.flatnonzero(keep[self._owners]))

    def _state(
        self, rows: "np.ndarray", initial_assignment: Optional[Mapping[int, bool]] = None
    ) -> SearchState:
        columns, gather = self._table.take(rows)
        mrf = MRF(columns=columns, atom_ids=self._atom_ids, positions=self._positions[gather])
        return SearchState(mrf, initial_assignment)
