"""The seed (pre-flat-array) search kernel: the test oracle of the kernel.

:class:`ReferenceSearchState` is the list-of-tuples implementation that
:class:`repro.inference.state.SearchState` replaced, kept nearly verbatim
as the executable specification.  :class:`ReferenceWalkSAT` drives it the
way the seed code did — one ``sample_violated_clause`` / :func:`pick_atom`
/ ``flip`` call sequence per step, a fresh ``randomize`` per restart —
where ``WalkSAT`` runs the kernel's own stepper.  The kernel-parity suites
drive both with identical seeds and assert bit-for-bit equal costs, deltas,
violated-set ordering and search results, on both of the kernel's
count-initialisation paths.

It implements the same public API as the kernel, including the
``checkpoint``/``checkpoint_dict`` pair — realised here the way the seed
code tracked the best assignment: a full dictionary copy per checkpoint.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Dict, List, Mapping, Optional, Tuple

from repro.grounding.clause_table import GroundClause
from repro.inference.walksat import WalkSATOptions, WalkSATResult
from repro.mrf.graph import MRF
from repro.obs.events import Series, SeriesPoint
from repro.utils.clock import SimulatedClock
from repro.utils.rng import RandomSource


class ReferenceSearchState:
    """The seed WalkSAT bookkeeping (lists of tuples, dict-backed sets)."""

    def __init__(
        self,
        mrf: MRF,
        initial_assignment: Optional[Mapping[int, bool]] = None,
        hard_penalty: Optional[float] = None,
    ) -> None:
        self.mrf = mrf
        self.atom_ids: List[int] = list(mrf.atom_ids)
        self._position: Dict[int, int] = {
            atom_id: index for index, atom_id in enumerate(self.atom_ids)
        }
        clause_count = len(mrf.clauses)

        soft_total = functools.reduce(
            operator.add, (abs(c.weight) for c in mrf.clauses if not c.is_hard), 0.0
        )
        self.hard_penalty = (
            hard_penalty if hard_penalty is not None else max(10.0 * soft_total, 10.0)
        )

        self._abs_weight: List[float] = [
            self.hard_penalty if clause.is_hard else abs(clause.weight)
            for clause in mrf.clauses
        ]
        self._negated: List[bool] = [clause.weight < 0 for clause in mrf.clauses]

        self._clause_literals: List[List[Tuple[int, bool]]] = []
        for clause in mrf.clauses:
            literals = [
                (self._position[abs(literal)], literal > 0) for literal in clause.literals
            ]
            self._clause_literals.append(literals)

        self._adjacency: List[List[Tuple[int, bool]]] = [[] for _ in self.atom_ids]
        for clause_index, literals in enumerate(self._clause_literals):
            for atom_position, positive in literals:
                self._adjacency[atom_position].append((clause_index, positive))

        self.assignment: List[bool] = [False] * len(self.atom_ids)
        if initial_assignment:
            for atom_id, value in initial_assignment.items():
                position = self._position.get(atom_id)
                if position is not None:
                    self.assignment[position] = bool(value)

        self._sat_count: List[int] = [0] * clause_count
        self._violated_list: List[int] = []
        self._violated_position: Dict[int, int] = {}
        self._checkpoint_assignment: Dict[int, bool] = {}
        self.cost = 0.0
        self.flips = 0
        self._initialise_counts()

    # ------------------------------------------------------------------
    # Initialisation
    # ------------------------------------------------------------------

    def _initialise_counts(self) -> None:
        self._sat_count = [0] * len(self._clause_literals)
        self._violated_list.clear()
        self._violated_position.clear()
        self.cost = 0.0
        for clause_index, literals in enumerate(self._clause_literals):
            count = 0
            for atom_position, positive in literals:
                value = self.assignment[atom_position]
                if value == positive:
                    count += 1
            self._sat_count[clause_index] = count
            if self._is_violated(clause_index):
                self._add_violated(clause_index)
                self.cost += self._abs_weight[clause_index]
        self._checkpoint_assignment = self.assignment_dict()

    def reset(self, assignment: Optional[Mapping[int, bool]] = None) -> None:
        self.assignment = [False] * len(self.atom_ids)
        if assignment:
            for atom_id, value in assignment.items():
                position = self._position.get(atom_id)
                if position is not None:
                    self.assignment[position] = bool(value)
        self._initialise_counts()

    def randomize(self, rng: RandomSource) -> None:
        self.assignment = [rng.coin() for _ in self.atom_ids]
        self._initialise_counts()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _is_violated(self, clause_index: int) -> bool:
        satisfied = self._sat_count[clause_index] > 0
        return satisfied if self._negated[clause_index] else not satisfied

    def violated_count(self) -> int:
        return len(self._violated_list)

    def has_violations(self) -> bool:
        return bool(self._violated_list)

    def sample_violated_clause(self, rng: RandomSource) -> int:
        if not self._violated_list:
            raise ValueError("no violated clauses to sample")
        return rng.pick(self._violated_list)

    def clause_atom_positions(self, clause_index: int) -> List[int]:
        seen: List[int] = []
        for atom_position, _positive in self._clause_literals[clause_index]:
            if atom_position not in seen:
                seen.append(atom_position)
        return seen

    def atom_id_at(self, position: int) -> int:
        return self.atom_ids[position]

    def value_of(self, atom_id: int) -> bool:
        return self.assignment[self._position[atom_id]]

    def assignment_dict(self) -> Dict[int, bool]:
        return {atom_id: self.assignment[i] for i, atom_id in enumerate(self.atom_ids)}

    def true_cost(self) -> float:
        total = 0.0
        for clause_index, clause in enumerate(self.mrf.clauses):
            if self._is_violated(clause_index):
                if clause.is_hard:
                    return math.inf
                total += abs(clause.weight)
        return total

    def soft_cost(self) -> float:
        return self.cost

    # ------------------------------------------------------------------
    # Flips
    # ------------------------------------------------------------------

    def delta_cost(self, atom_position: int) -> float:
        value = self.assignment[atom_position]
        delta = 0.0
        for clause_index, positive in self._adjacency[atom_position]:
            was_violated = self._is_violated(clause_index)
            currently_true = value == positive
            new_count = self._sat_count[clause_index] + (-1 if currently_true else 1)
            satisfied = new_count > 0
            now_violated = satisfied if self._negated[clause_index] else not satisfied
            if was_violated and not now_violated:
                delta -= self._abs_weight[clause_index]
            elif not was_violated and now_violated:
                delta += self._abs_weight[clause_index]
        return delta

    def flip(self, atom_position: int) -> float:
        value = self.assignment[atom_position]
        self.assignment[atom_position] = not value
        delta = 0.0
        for clause_index, positive in self._adjacency[atom_position]:
            was_violated = self._is_violated(clause_index)
            currently_true = value == positive
            self._sat_count[clause_index] += -1 if currently_true else 1
            now_violated = self._is_violated(clause_index)
            if was_violated and not now_violated:
                self._remove_violated(clause_index)
                delta -= self._abs_weight[clause_index]
            elif not was_violated and now_violated:
                self._add_violated(clause_index)
                delta += self._abs_weight[clause_index]
        self.cost += delta
        self.flips += 1
        return delta

    def flip_atom_id(self, atom_id: int) -> float:
        return self.flip(self._position[atom_id])

    # ------------------------------------------------------------------
    # Checkpointing (seed semantics: a full copy every time)
    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        self._checkpoint_assignment = self.assignment_dict()

    def checkpoint_dict(self) -> Dict[int, bool]:
        return dict(self._checkpoint_assignment)

    # ------------------------------------------------------------------
    # Violated-set maintenance
    # ------------------------------------------------------------------

    def _add_violated(self, clause_index: int) -> None:
        if clause_index in self._violated_position:
            return
        self._violated_position[clause_index] = len(self._violated_list)
        self._violated_list.append(clause_index)

    def _remove_violated(self, clause_index: int) -> None:
        position = self._violated_position.pop(clause_index, None)
        if position is None:
            return
        last = self._violated_list.pop()
        if position < len(self._violated_list):
            self._violated_list[position] = last
            self._violated_position[last] = position

    def violated_clause_indices(self) -> List[int]:
        return list(self._violated_list)

    def clause(self, clause_index: int) -> GroundClause:
        return self.mrf.clauses[clause_index]


def pick_atom(state, clause_index: int, rng: RandomSource, noise: float) -> int:
    """Pick the atom of a violated clause to flip (random vs greedy)."""
    positions = state.clause_atom_positions(clause_index)
    if len(positions) == 1:
        return positions[0]
    # Strict comparison: noise=0.0 must be purely greedy even when the
    # RNG returns exactly 0.0, and noise=1.0 purely random.
    if rng.random() < noise:
        return rng.pick(positions)
    best_position = positions[0]
    best_delta = state.delta_cost(best_position)
    for position in positions[1:]:
        delta = state.delta_cost(position)
        if delta < best_delta:
            best_delta = delta
            best_position = position
    return best_position


class ReferenceWalkSAT:
    """``WalkSAT.run_on_state`` as the seed code drove a state.

    Any state with the reference kernel's API will do (the kernel's own
    :class:`~repro.inference.state.SearchState` too).  Flip costs are
    charged to the simulated clock one flip at a time.
    """

    def __init__(
        self,
        options: WalkSATOptions,
        rng: RandomSource,
        clock: Optional[SimulatedClock] = None,
    ) -> None:
        self.options = options
        self.rng = rng
        self.clock = clock or SimulatedClock()

    def _choose_atom(self, state, clause_index: int) -> int:
        return pick_atom(state, clause_index, self.rng, self.options.noise)

    def run_on_state(
        self, state, initial_assignment: Optional[Mapping[int, bool]] = None
    ) -> WalkSATResult:
        options, rng, clock = self.options, self.rng, self.clock
        target, deadline = options.target_cost, options.deadline_seconds
        best = state.assignment_dict()
        best_cost = math.inf
        total_flips = tries = 0
        reached_target = False
        hitting_time: Optional[int] = None
        points: List[Tuple[float, float, int]] = []
        for attempt in range(options.max_tries):
            tries += 1
            if options.random_restarts and (attempt > 0 or initial_assignment is None):
                state.randomize(rng)
            else:
                state.reset(initial_assignment)
            try_improved = False
            if state.cost < best_cost:
                best_cost = state.cost
                state.checkpoint()
                try_improved = True
                points.append((clock.now(), best_cost, total_flips))
            if target is not None and best_cost <= target:
                reached_target = True
                if hitting_time is None:
                    hitting_time = total_flips
            else:
                for _flip in range(options.max_flips):
                    if not state.has_violations():
                        break
                    if deadline is not None and clock.now() >= deadline:
                        break
                    clause_index = state.sample_violated_clause(rng)
                    state.flip(self._choose_atom(state, clause_index))
                    total_flips += 1
                    clock.charge(options.flip_cost_event)
                    if state.cost < best_cost:
                        best_cost = state.cost
                        state.checkpoint()
                        try_improved = True
                        points.append((clock.now(), best_cost, total_flips))
                        if hitting_time is None and target is not None and best_cost <= target:
                            hitting_time = total_flips
                    if target is not None and best_cost <= target:
                        reached_target = True
                        break
            if try_improved:
                best = state.checkpoint_dict()
            if reached_target or (deadline is not None and clock.now() >= deadline):
                break
            if not state.has_violations():
                break
        trace = Series(options.trace_label)
        trace.points = [SeriesPoint(*point) for point in points]
        return WalkSATResult(
            best_assignment=best,
            best_cost=best_cost,
            flips=total_flips,
            tries=tries,
            seconds=0.0,
            trace=trace,
            reached_target=reached_target,
            hitting_time=hitting_time,
        )
