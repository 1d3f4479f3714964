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
kernel.  MC-SAT's batched pipeline builds its per-step constraint states
through a :class:`ConstraintPool`, which assembles them from structure
cached per parent clause — including, for constraint sets large enough to
initialise their counts with numpy, the literal arrays that path reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.grounding.clause_table import GroundClause
from repro.inference.state import SearchState, counts_by_numpy
from repro.mrf.graph import MRF, MRFFlatView
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

    def sample(
        self,
        clauses: Sequence[GroundClause],
        atom_ids: Sequence[int],
        initial_assignment: Optional[Mapping[int, bool]] = None,
    ) -> Dict[int, bool]:
        """Return an assignment satisfying the clauses (best-effort).

        All clauses are treated as *constraints*: their weights are ignored
        and the sampler simply tries to satisfy every one of them, starting
        from ``initial_assignment`` (or a random state).
        """
        constraints = [
            GroundClause(index + 1, clause.literals, 1.0, clause.source)
            for index, clause in enumerate(clauses)
        ]
        mrf = MRF.from_clauses(constraints, extra_atoms=atom_ids)
        state = SearchState(mrf, initial_assignment)
        if initial_assignment is None:
            state.randomize(self.rng)
        if self.run_moves(state):
            return state.checkpoint_dict()
        return state.assignment_dict()

    def sample_prepared(self, state: SearchState) -> bool:
        """Randomize and run the move loop on a prepared constraint state.

        The bulk-pipeline entry point: MC-SAT assembles the constraint state
        through a :class:`ConstraintPool` (reusing cached structure) and
        hands it here.  Consumes exactly the same RNG stream as
        :meth:`sample` without an initial assignment — one coin per atom for
        the restart, then the move loop — so pooled and spec paths are
        seed-for-seed interchangeable.  Returns whether a satisfying
        assignment was found; the state's checkpoint snapshot holds the most
        recent satisfying assignment when it was.
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
# Pooled constraint-state construction (MC-SAT's per-iteration fast path)
# ----------------------------------------------------------------------


def hard_constraint_prefix(clauses: Sequence[GroundClause]) -> List[GroundClause]:
    """The always-selected constraint prefix of an MC-SAT step.

    In clause order: a hard positive clause is kept as-is (it must stay
    satisfied), a hard negative clause contributes the unit negation of each
    of its literals (it must stay unsatisfied).  Constraints are renumbered
    from 1 and weighted 1.0, the form SampleSAT expects.  Every selection —
    including the initial state's — starts with exactly this prefix; this
    function is the single source of that expansion (the scalar selection
    spec and :class:`ConstraintPool` both consume it).
    """
    prefix: List[GroundClause] = []
    for clause in clauses:
        if not clause.is_hard:
            continue
        if clause.weight > 0:
            prefix.append(
                GroundClause(len(prefix) + 1, clause.literals, 1.0, clause.source)
            )
        else:
            for literal in clause.literals:
                prefix.append(
                    GroundClause(len(prefix) + 1, (-literal,), 1.0, clause.source)
                )
    return prefix


class _SoftTemplate:
    """Prebuilt constraint pieces for one soft clause of the parent MRF.

    Selecting a positive-weight clause contributes the clause itself as one
    constraint; selecting a negative-weight clause contributes one unit
    constraint per literal (the literal's negation).  Either way the pieces
    — signed-code tuples, distinct-position tuples and weight-1 clause
    objects — are fixed per parent clause, so they are built once and
    concatenated per iteration.
    """

    __slots__ = ("codes", "positions", "clauses")

    def __init__(self, codes, positions, clauses) -> None:
        self.codes = codes
        self.positions = positions
        self.clauses = clauses


class ConstraintPool:
    """Reusable constraint-state machinery over one MRF's atom universe.

    MC-SAT builds one SampleSAT constraint state per iteration, always over
    the *same* atom universe (the parent MRF's atoms) and always containing
    the same always-selected hard-clause prefix.  The spec path rebuilds
    everything from scratch each time (``MRF.from_clauses`` + a fresh flat
    view + a fresh search state); this pool caches what never changes —

    * the atom order and position map (shared with the parent's flat view),
    * the hard prefix's codes/positions/adjacency and weight-1 clauses,
    * per-soft-clause constraint templates (:class:`_SoftTemplate`),

    and assembles each iteration's state directly from those pieces.  The
    assembled structure is element-for-element identical to what the spec
    path builds — same atom order, same constraint order (hard prefix first,
    then selected soft clauses in parent clause order), same adjacency entry
    order — so seeded SampleSAT streams are bit-identical (the MC-SAT
    parity suite pins this).  When an iteration selects nothing beyond the
    prefix, one cached prefix state is reused and re-randomized in place,
    mirroring the kernel's state-reuse lifecycle.
    """

    def __init__(self, mrf: MRF) -> None:
        view = mrf.flat_view()
        self._atom_ids = view.atom_ids
        self._atom_position = view.atom_position

        # The prefix constraints come from the one authoritative expansion;
        # only their flat encoding (codes in the parent's atom order) is
        # derived here.
        prefix_clauses = hard_constraint_prefix(mrf.clauses)
        position = view.atom_position
        prefix_codes: List[Tuple[int, ...]] = []
        prefix_positions: List[Tuple[int, ...]] = []
        for constraint in prefix_clauses:
            codes = tuple(
                position[literal] + 1 if literal > 0 else -(position[-literal] + 1)
                for literal in constraint.literals
            )
            distinct: List[int] = []
            for code in codes:
                atom_position = abs(code) - 1
                if atom_position not in distinct:
                    distinct.append(atom_position)
            prefix_codes.append(codes)
            prefix_positions.append(tuple(distinct))

        templates: Dict[int, _SoftTemplate] = {}
        for index, clause in enumerate(mrf.clauses):
            codes = view.clause_codes[index]
            if clause.is_hard:
                continue
            if clause.weight > 0:
                templates[index] = _SoftTemplate(
                    (codes,),
                    (view.clause_atom_positions(index),),
                    (GroundClause(clause.clause_id, clause.literals, 1.0, clause.source),),
                )
            elif clause.weight < 0:
                templates[index] = _SoftTemplate(
                    tuple((-code,) for code in codes),
                    tuple((abs(code) - 1,) for code in codes),
                    tuple(
                        GroundClause(clause.clause_id, (-literal,), 1.0, clause.source)
                        for literal in clause.literals
                    ),
                )
        self._prefix_codes = prefix_codes
        self._prefix_positions = prefix_positions
        self._prefix_clauses = prefix_clauses
        self._templates = templates

        adjacency: List[List[Tuple[int, bool]]] = [[] for _ in self._atom_ids]
        for clause_index, codes in enumerate(prefix_codes):
            for code in codes:
                if code > 0:
                    adjacency[code - 1].append((clause_index, True))
                else:
                    adjacency[-code - 1].append((clause_index, False))
        self._prefix_adjacency: Tuple[Tuple[Tuple[int, bool], ...], ...] = tuple(
            tuple(entries) for entries in adjacency
        )
        self._prefix_state: Optional[SearchState] = None
        # Literal-array fragments for the numpy count arrays, built on the
        # first constraint set large enough to need them.
        self._lit_fragments: Optional[dict] = None

    @property
    def prefix_clauses(self) -> List[GroundClause]:
        """The always-selected constraint prefix (read-only)."""
        return self._prefix_clauses

    def prefix_state(
        self, initial_assignment: Optional[Mapping[int, bool]] = None
    ) -> SearchState:
        """The cached state over the prefix-only constraint set.

        Built on first use; later calls reuse it, resetting in place when an
        initial assignment is given (callers about to randomize skip that).
        """
        if self._prefix_state is None:
            mrf = self._shell_mrf(
                self._prefix_codes,
                self._prefix_positions,
                self._prefix_clauses,
                self._prefix_adjacency,
            )
            self._seed_count_arrays(mrf, ())
            self._prefix_state = SearchState(
                mrf,
                initial_assignment,
                hard_penalty=self._constraint_penalty(len(self._prefix_clauses)),
            )
        elif initial_assignment is not None:
            self._prefix_state.reset(initial_assignment)
        return self._prefix_state

    def state_for(self, selected_soft: Sequence[int]) -> SearchState:
        """A constraint state for the prefix plus the selected soft clauses.

        ``selected_soft`` holds parent-MRF clause indices of the selected
        soft clauses, ascending (i.e. parent clause order).  An empty
        selection reuses the cached prefix state.
        """
        if not len(selected_soft):
            return self.prefix_state()
        codes = list(self._prefix_codes)
        positions = list(self._prefix_positions)
        clauses = list(self._prefix_clauses)
        adjacency: List[List[Tuple[int, bool]]] = [
            list(entries) for entries in self._prefix_adjacency
        ]
        clause_index = len(codes)
        templates = self._templates
        for index in selected_soft:
            template = templates[index]
            positions.extend(template.positions)
            clauses.extend(template.clauses)
            for constraint_codes in template.codes:
                codes.append(constraint_codes)
                for code in constraint_codes:
                    if code > 0:
                        adjacency[code - 1].append((clause_index, True))
                    else:
                        adjacency[-code - 1].append((clause_index, False))
                clause_index += 1
        mrf = self._shell_mrf(codes, positions, clauses, adjacency)
        self._seed_count_arrays(mrf, selected_soft)
        return SearchState(mrf, hard_penalty=self._constraint_penalty(len(clauses)))

    @staticmethod
    def _constraint_penalty(clause_count: int) -> float:
        """The hard penalty a fresh state over weight-1.0 constraints computes.

        Bit-identical to the spec path's ``max(10.0 * soft_total, 10.0)``
        (``soft_total`` is an exact integer-valued float there), passed
        explicitly so the pooled path skips the per-clause weight sum.
        """
        return max(10.0 * clause_count, 10.0)

    def _seed_count_arrays(self, mrf: MRF, selected_soft: Sequence[int]) -> None:
        """Seed the shell's count arrays when its counts use numpy.

        The shell's view is assembled from parts and holds no literal
        arrays for :func:`~repro.inference.state.count_arrays` to read, so
        they are concatenated from fragments cached per parent clause; a
        no-op for shells small enough for the loop.
        """
        if not counts_by_numpy(mrf):
            return
        fragments = self._lit_fragments
        if fragments is None:
            fragments = self._lit_fragments = self._build_lit_fragments()
        lit_pos = list(fragments["prefix_pos"])
        lit_expect = list(fragments["prefix_expect"])
        lit_clause = list(fragments["prefix_clause"])
        clause_index = len(self._prefix_codes)
        template_fragments = fragments["templates"]
        for index in selected_soft:
            pos, expect, sizes = template_fragments[index]
            lit_pos.extend(pos)
            lit_expect.extend(expect)
            for size in sizes:
                lit_clause.extend([clause_index] * size)
                clause_index += 1
        # Constraints all weigh 1.0: no clause is negated.
        mrf._flat_view.counts = (  # type: ignore[union-attr]
            np.asarray(lit_pos, dtype=np.intp),
            np.asarray(lit_clause, dtype=np.intp),
            np.asarray(lit_expect, dtype=bool),
            np.zeros(clause_index, dtype=bool),
        )

    def _build_lit_fragments(self) -> dict:
        """Per-parent-clause literal-array pieces for the count arrays."""

        def expand(code_groups):
            pos: List[int] = []
            expect: List[int] = []
            sizes: List[int] = []
            for constraint_codes in code_groups:
                sizes.append(len(constraint_codes))
                for code in constraint_codes:
                    if code > 0:
                        pos.append(code - 1)
                        expect.append(1)
                    else:
                        pos.append(-code - 1)
                        expect.append(0)
            return pos, expect, sizes

        prefix_pos, prefix_expect, prefix_sizes = expand(self._prefix_codes)
        prefix_clause: List[int] = []
        for clause_index, size in enumerate(prefix_sizes):
            prefix_clause.extend([clause_index] * size)
        return {
            "prefix_pos": prefix_pos,
            "prefix_expect": prefix_expect,
            "prefix_clause": prefix_clause,
            "templates": {
                index: expand(template.codes)
                for index, template in self._templates.items()
            },
        }

    def _shell_mrf(self, codes, positions, clauses, adjacency) -> MRF:
        """An MRF shell over prebuilt flat structure.

        The shell skips ``MRF.from_clauses``'s atom-set union/sort; only
        the flat view (which is all the search kernel reads) is populated.
        """
        mrf = MRF(clauses=clauses, atom_ids=self._atom_ids)
        mrf._flat_view = MRFFlatView.from_parts(
            self._atom_ids, self._atom_position, codes, positions, adjacency
        )
        return mrf
