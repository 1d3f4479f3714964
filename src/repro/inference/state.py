"""The WalkSAT search state: one flat-array kernel.

WalkSAT needs, at every step: a uniformly random violated clause, the cost
change each candidate flip would cause, and an O(degree) update when an atom
is flipped.  :class:`SearchState` is that hot loop, and it is built like a
kernel — the in-memory half of the hybrid architecture (paper, Section 3.2),
kept deliberately close to flat, cache-friendly data:

* **Flat arrays.**  The truth assignment (``array('b')``) and per-clause
  effective |weight| (``array('d')``, derived from the MRF's weight
  column with C-level ``map``/``sum`` passes, never from clause objects)
  are dense buffers indexed by atom/clause position.  The per-clause
  satisfied-literal counts are a
  dense position-indexed *list*: it is read and written on every
  adjacency entry of every flip, and CPython list indexing is about twice
  as fast as ``array`` indexing (arrays unbox on access), which measurably
  moves flips/sec.  Hard clauses are mapped to a large finite penalty so
  the search can still rank flips that repair hard violations.
* **Shared flat structure.**  The clause → literal and atom → clause
  relations come from the MRF's cached :class:`~repro.mrf.graph.MRFFlatView`
  (per-clause signed literal-code tuples and per-atom
  ``(clause, polarity)`` adjacency tuples, all position-indexed, built
  from the MRF's clause columns), so nothing is allocated per step and
  every state over the same MRF shares one copy.  The distinct atom
  positions of each clause are deduplicated once per MRF, when a step
  first picks the clause, instead of on every step.
* **Count initialisation by size.**  ``reset`` / ``rerandomize`` (every
  WalkSAT restart, every MC-SAT iteration) recompute every clause's
  satisfied count.  MRFs with at least
  :data:`~repro.mrf.graph.NUMPY_VIEW_MIN_CLAUSES` clauses do it with one
  ``np.bincount`` over the view's literal arrays; smaller ones (SampleSAT
  constraint sets, the thousands of tiny IE components) loop over the
  clause codes, which is faster there.  Both paths give the same counts,
  violated-set order and cost, bit for bit: the cost is summed left to
  right in clause order either way.
* **Violated set.**  A list plus position map, so sampling, insertion and
  removal are all O(1).  It is touched only when a clause's satisfied
  count crosses zero, and entries are maintained in the exact order the
  seed kernel produced, keeping seeded runs bit-for-bit reproducible
  (see ``tests/test_search_kernel_parity.py``).
* **Flip journal.**  Every flip appends its atom position to a journal;
  :meth:`checkpoint` re-synchronises a retained snapshot of the
  assignment by replaying the toggles recorded since the previous
  checkpoint.  Callers (WalkSAT, SampleSAT) therefore track the best-seen
  assignment in O(flips since the last improvement) instead of copying
  the whole assignment on every improvement.  If the journal overflows
  (more flips than atoms since the last checkpoint) it falls back to one
  full copy.
* **In-place lifecycle.**  :meth:`reset`, :meth:`randomize` and
  :meth:`rerandomize` rewrite the buffers in place instead of rebinding
  them, so a stepper closure (and the numpy view over the assignment)
  survives every WalkSAT restart — drivers build one stepper per run and
  per-component searches cache one state per component.

The seed list-of-tuples kernel is kept as the executable specification in
``tests/reference_kernel.py``; the RDBMS-backed search wraps the same
bookkeeping but charges simulated I/O per access (see
:mod:`repro.inference.rdbms_walksat`).
"""

from __future__ import annotations

import functools
import math
import operator
from array import array
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.grounding.clause_table import GroundClause
from repro.mrf import graph
from repro.mrf.graph import MRF
from repro.utils.rng import RandomSource


def counts_by_numpy(mrf: MRF) -> bool:
    """Whether states over this MRF initialise their counts with numpy.

    The one size decision of the kernel (see the module doc).
    """
    return mrf.clause_count >= graph.NUMPY_VIEW_MIN_CLAUSES


def count_arrays(mrf: MRF) -> Tuple["np.ndarray", ...]:
    """``(positions, owners, positive, negated)`` for numpy count initialisation.

    Each literal's atom position and clause index (the flat view's
    :class:`~repro.mrf.graph.LiteralArrays`, which a view of an MRF this
    large holds) and whether it is positive; per clause, whether its
    weight is negative.  Read off the MRF's columns once and cached on the
    flat view.
    """
    view = mrf.flat_view()
    if view.counts is None:
        columns = mrf.columns()
        view.counts = (
            view.arrays.positions,  # type: ignore[union-attr]
            view.arrays.owners,  # type: ignore[union-attr]
            np.frombuffer(columns.literals, dtype=np.int64) > 0,
            np.frombuffer(columns.weights, dtype=np.float64) < 0,
        )
    return view.counts


class SearchState:
    """Mutable WalkSAT bookkeeping over one MRF (see the module doc)."""

    def __init__(
        self,
        mrf: MRF,
        initial_assignment: Optional[Mapping[int, bool]] = None,
        hard_penalty: Optional[float] = None,
    ) -> None:
        self.mrf = mrf
        view = mrf.flat_view()
        self._view = view
        self.atom_ids: List[int] = view.atom_ids
        self._position: Dict[int, int] = view.atom_position

        weights = mrf.weight_column().tolist()
        magnitudes = list(map(abs, weights))
        inf = math.inf
        hard_count = magnitudes.count(inf)
        if hard_penalty is not None:
            self.hard_penalty = hard_penalty
        else:
            # Sequential, in clause order.
            soft = [m for m in magnitudes if m != inf] if hard_count else magnitudes
            self.hard_penalty = max(
                10.0 * functools.reduce(operator.add, soft, 0.0), 10.0
            )

        # Effective |weight| used for cost bookkeeping (hard -> large penalty).
        if hard_count:
            penalty = self.hard_penalty
            magnitudes = [penalty if m == inf else m for m in magnitudes]
        self._abs_weight = array("d", magnitudes)
        # A clause with negative weight is violated when satisfied
        # (``0.0 > weight``, mapped in C).
        self._negated: List[bool] = list(map((0.0).__gt__, weights))

        # Shared per-MRF structure (see MRFFlatView; the clause codes are
        # read off the view by _initialise_counts).  A clause's candidate
        # positions are built on first read: ``None`` in _candidates until
        # view.clause_atom_positions makes them.
        self._candidates = view.candidates
        self._adjacency = view.adjacency

        atom_count = len(self.atom_ids)
        self.assignment = array("b", bytes(atom_count))
        # The numpy path's arrays, and its view over the assignment buffer
        # (valid for the state's lifetime: the buffer is rewritten in place).
        self._counts = None
        if counts_by_numpy(mrf):
            self._counts = count_arrays(mrf)
            self._assign_np = np.frombuffer(self.assignment, dtype=np.int8)
        if initial_assignment:
            position = self._position
            assignment = self.assignment
            for atom_id, value in initial_assignment.items():
                index = position.get(atom_id)
                if index is not None:
                    assignment[index] = 1 if value else 0

        self._sat_count = [0] * len(weights)
        self._violated_list: List[int] = []
        self._violated_position: Dict[int, int] = {}
        self._journal: List[int] = []
        self._journal_limit = atom_count
        self._journal_stale = False
        self.flips = 0
        # _initialise_counts sets cost, the violated set and the journal's
        # _best snapshot from the assignment built above.
        self._initialise_counts()

    # ------------------------------------------------------------------
    # Initialisation
    # ------------------------------------------------------------------

    def _literal_counts(self) -> "np.ndarray":
        """Every clause's satisfied-literal count, by one ``np.bincount``."""
        positions, owners, positive, negated = self._counts  # type: ignore[misc]
        return np.bincount(
            owners, weights=self._assign_np[positions] == positive, minlength=len(negated)
        ).astype(np.int64)

    def _initialise_counts(self) -> None:
        assignment = self.assignment
        sat_count = self._sat_count
        abs_weight = self._abs_weight
        violated_list = self._violated_list
        violated_position = self._violated_position
        violated_position.clear()
        if self._counts is not None:
            counts = self._literal_counts()
            sat_count[:] = counts.tolist()
            # Violated: positive-weight clause with no satisfied literal, or
            # negated clause that is satisfied.
            violated_list[:] = np.nonzero((counts > 0) == self._counts[3])[0].tolist()
            violated_position.update(zip(violated_list, range(len(violated_list))))
            # Left to right in clause order, like the loop below (builtin
            # sum() compensates float rounding since Python 3.12).
            self.cost = functools.reduce(
                operator.add, map(abs_weight.__getitem__, violated_list), 0.0
            )
        else:
            negated = self._negated
            violated_list.clear()
            cost = 0.0
            for clause_index, codes in enumerate(self._view.clause_codes):
                count = 0
                for code in codes:
                    if code > 0:
                        if assignment[code - 1]:
                            count += 1
                    elif not assignment[-code - 1]:
                        count += 1
                sat_count[clause_index] = count
                if (count > 0) == negated[clause_index]:
                    violated_position[clause_index] = len(violated_list)
                    violated_list.append(clause_index)
                    cost += abs_weight[clause_index]
            self.cost = cost
        self._journal.clear()
        self._journal_stale = False
        self._best = array("b", assignment)

    def reset(self, assignment: Optional[Mapping[int, bool]] = None) -> None:
        """Reset the assignment (default all-false) and recompute bookkeeping.

        The assignment buffer is rewritten *in place*, so steppers created
        by :meth:`make_walksat_stepper` stay valid across resets.
        """
        current = self.assignment
        current[:] = array("b", bytes(len(current)))
        if assignment:
            position = self._position
            for atom_id, value in assignment.items():
                index = position.get(atom_id)
                if index is not None:
                    current[index] = 1 if value else 0
        self._initialise_counts()

    def rerandomize(self, rng: RandomSource) -> None:
        """Draw a uniformly random assignment *in place* (restart reuse).

        Consumes exactly one ``rng.coin()`` per atom, the same stream as the
        seed kernel's ``randomize``, but keeps the assignment buffer (and
        therefore any stepper closure bound to it) alive, so one stepper
        survives every WalkSAT restart.
        """
        assignment = self.assignment
        if self._counts is not None:
            # One raw random() per atom is the draw coin() makes.
            raw_random = rng.raw().random
            count = len(assignment)
            draws = np.fromiter(
                (raw_random() for _ in range(count)), dtype=np.float64, count=count
            )
            self._assign_np[:] = draws < 0.5
        else:
            coin = rng.coin
            for index in range(len(assignment)):
                assignment[index] = 1 if coin() else 0
        self._initialise_counts()

    def randomize(self, rng: RandomSource) -> None:
        """Draw a uniformly random assignment (WalkSAT's per-try restart)."""
        self.rerandomize(rng)

    def reset_from_values(self, values: Sequence[int]) -> None:
        """Reset from a position-aligned 0/1 buffer (same atom order).

        The bulk counterpart of :meth:`reset`: callers that already hold an
        assignment buffer in this state's atom order (e.g. MC-SAT handing a
        SampleSAT result to the satisfaction evaluator over the same atom
        universe) skip the per-atom dict probing entirely.
        """
        assignment = self.assignment
        if len(values) != len(assignment):
            raise ValueError(
                f"buffer length {len(values)} does not match atom count {len(assignment)}"
            )
        assignment[:] = array("b", values)
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
        """A uniformly random violated clause index."""
        if not self._violated_list:
            raise ValueError("no violated clauses to sample")
        return rng.pick(self._violated_list)

    def clause_atom_positions(self, clause_index: int) -> Sequence[int]:
        """Distinct atom positions appearing in a clause.

        Returns the view's per-clause tuple (first-occurrence order, built
        on first read and shared across all states over the same MRF).
        """
        return self._view.clause_atom_positions(clause_index)

    def atom_id_at(self, position: int) -> int:
        return self.atom_ids[position]

    def value_of(self, atom_id: int) -> bool:
        return bool(self.assignment[self._position[atom_id]])

    def assignment_dict(self) -> Dict[int, bool]:
        assignment = self.assignment
        return {
            atom_id: bool(assignment[index])
            for index, atom_id in enumerate(self.atom_ids)
        }

    def satisfaction_flags(self) -> List[bool]:
        """Literal-level satisfaction of every clause, in clause order.

        Unlike :meth:`_is_violated` this ignores weight signs; a clause is
        satisfied when at least one of its literals is true (used by MC-SAT
        when selecting its per-step constraint subset).
        """
        return [count > 0 for count in self._sat_count]

    def satisfaction_array(self) -> "np.ndarray":
        """:meth:`satisfaction_flags` as a numpy bool array.

        MC-SAT's batched selection combines it directly with its
        per-clause eligibility masks.
        """
        if self._counts is None:
            return np.array(self.satisfaction_flags(), dtype=bool)
        return self._literal_counts() > 0

    def true_cost(self) -> float:
        """Cost with hard violations counted at infinity (reporting form)."""
        total = 0.0
        for weight, count, negated in zip(
            self.mrf.weight_column(), self._sat_count, self._negated
        ):
            if (count > 0) == negated:  # violated
                if math.isinf(weight):
                    return math.inf
                total += abs(weight)
        return total

    def soft_cost(self) -> float:
        """Cost using the finite hard penalty (the search's internal metric)."""
        return self.cost

    # ------------------------------------------------------------------
    # Flips
    # ------------------------------------------------------------------

    def delta_cost(self, atom_position: int) -> float:
        """Cost change if the atom at this position were flipped."""
        value = self.assignment[atom_position]
        sat_count = self._sat_count
        abs_weight = self._abs_weight
        negated = self._negated
        delta = 0.0
        for clause_index, positive in self._adjacency[atom_position]:
            currently_true = value if positive else not value
            # The violated status only changes when the satisfied count
            # crosses zero; the direction depends on the weight sign.
            if currently_true:
                if sat_count[clause_index] == 1:  # would drop to zero
                    if negated[clause_index]:
                        delta -= abs_weight[clause_index]
                    else:
                        delta += abs_weight[clause_index]
            elif sat_count[clause_index] == 0:  # would rise from zero
                if negated[clause_index]:
                    delta += abs_weight[clause_index]
                else:
                    delta -= abs_weight[clause_index]
        return delta

    def flip(self, atom_position: int) -> float:
        """Flip an atom, updating all bookkeeping; returns the cost delta."""
        assignment = self.assignment
        value = assignment[atom_position]
        assignment[atom_position] = 0 if value else 1
        sat_count = self._sat_count
        abs_weight = self._abs_weight
        negated = self._negated
        violated_list = self._violated_list
        violated_position = self._violated_position
        delta = 0.0
        for clause_index, positive in self._adjacency[atom_position]:
            currently_true = value if positive else not value
            count = sat_count[clause_index]
            if currently_true:
                sat_count[clause_index] = count - 1
                if count == 1:  # dropped to zero satisfied literals
                    if negated[clause_index]:
                        # Negated clause became unsatisfied: repaired.
                        spot = violated_position.pop(clause_index, None)
                        if spot is not None:
                            last = violated_list.pop()
                            if spot < len(violated_list):
                                violated_list[spot] = last
                                violated_position[last] = spot
                        delta -= abs_weight[clause_index]
                    else:
                        if clause_index not in violated_position:
                            violated_position[clause_index] = len(violated_list)
                            violated_list.append(clause_index)
                        delta += abs_weight[clause_index]
            else:
                sat_count[clause_index] = count + 1
                if count == 0:  # rose from zero satisfied literals
                    if negated[clause_index]:
                        if clause_index not in violated_position:
                            violated_position[clause_index] = len(violated_list)
                            violated_list.append(clause_index)
                        delta += abs_weight[clause_index]
                    else:
                        spot = violated_position.pop(clause_index, None)
                        if spot is not None:
                            last = violated_list.pop()
                            if spot < len(violated_list):
                                violated_list[spot] = last
                                violated_position[last] = spot
                        delta -= abs_weight[clause_index]
        self.cost += delta
        self.flips += 1
        journal = self._journal
        if len(journal) < self._journal_limit:
            journal.append(atom_position)
        else:
            self._journal_stale = True
        return delta

    def flip_atom_id(self, atom_id: int) -> float:
        return self.flip(self._position[atom_id])

    def make_walksat_stepper(self, rng: RandomSource, noise: float):
        """A zero-argument closure performing one WalkSAT step per call.

        This is the kernel's hottest entry point: every buffer and RNG
        method is bound into the closure once, so a step pays a single
        call frame and no attribute lookups.  :meth:`reset`,
        :meth:`rerandomize` and :meth:`randomize` all rewrite the bound
        buffers in place, so one stepper survives any number of restarts
        (the state-reuse lifecycle WalkSAT relies on).
        Each call performs one step and returns the updated cost; stepping
        a state with no violated clauses raises ValueError, like
        :meth:`sample_violated_clause`.

        ``random.choice`` is unrolled to its exact definition
        (``seq[_randbelow(len(seq))]``, with ``_randbelow`` itself unrolled
        to the rejection loop over ``getrandbits``), so the stream consumed
        is identical to the seed kernel's ``rng.pick`` calls.
        """
        raw = rng.raw()
        getrandbits = raw.getrandbits
        rng_random = raw.random
        assignment = self.assignment
        sat_count = self._sat_count
        abs_weight = self._abs_weight
        negated = self._negated
        adjacency = self._adjacency
        candidates = self._candidates
        clause_atom_positions = self._view.clause_atom_positions
        violated_list = self._violated_list
        violated_position = self._violated_position
        journal = self._journal
        journal_limit = self._journal_limit
        journal_append = journal.append

        def step() -> float:
            # random.choice(violated_list), unrolled.
            n = len(violated_list)
            if not n:
                raise ValueError("no violated clauses to sample")
            k = n.bit_length()
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            clause_index = violated_list[r]
            positions = candidates[clause_index]
            if positions is None:
                positions = clause_atom_positions(clause_index)
            if len(positions) == 1:
                position = positions[0]
            elif rng_random() < noise:
                # random.choice(positions), unrolled.
                n = len(positions)
                k = n.bit_length()
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                position = positions[r]
            else:
                # Inline delta_cost per candidate; first strict minimum wins.
                position = positions[0]
                best_delta = None
                for candidate in positions:
                    value = assignment[candidate]
                    delta = 0.0
                    for clause_index, positive in adjacency[candidate]:
                        currently_true = value if positive else not value
                        if currently_true:
                            if sat_count[clause_index] == 1:
                                if negated[clause_index]:
                                    delta -= abs_weight[clause_index]
                                else:
                                    delta += abs_weight[clause_index]
                        elif sat_count[clause_index] == 0:
                            if negated[clause_index]:
                                delta += abs_weight[clause_index]
                            else:
                                delta -= abs_weight[clause_index]
                    if best_delta is None or delta < best_delta:
                        best_delta = delta
                        position = candidate

            # Inline flip (same bookkeeping, same ordering, as flip()).
            value = assignment[position]
            assignment[position] = 0 if value else 1
            delta = 0.0
            for clause_index, positive in adjacency[position]:
                currently_true = value if positive else not value
                count = sat_count[clause_index]
                if currently_true:
                    sat_count[clause_index] = count - 1
                    if count == 1:
                        if negated[clause_index]:
                            spot = violated_position.pop(clause_index, None)
                            if spot is not None:
                                last = violated_list.pop()
                                if spot < len(violated_list):
                                    violated_list[spot] = last
                                    violated_position[last] = spot
                            delta -= abs_weight[clause_index]
                        else:
                            if clause_index not in violated_position:
                                violated_position[clause_index] = len(violated_list)
                                violated_list.append(clause_index)
                            delta += abs_weight[clause_index]
                else:
                    sat_count[clause_index] = count + 1
                    if count == 0:
                        if negated[clause_index]:
                            if clause_index not in violated_position:
                                violated_position[clause_index] = len(violated_list)
                                violated_list.append(clause_index)
                            delta += abs_weight[clause_index]
                        else:
                            spot = violated_position.pop(clause_index, None)
                            if spot is not None:
                                last = violated_list.pop()
                                if spot < len(violated_list):
                                    violated_list[spot] = last
                                    violated_position[last] = spot
                            delta -= abs_weight[clause_index]
            cost = self.cost + delta
            self.cost = cost
            self.flips += 1
            if len(journal) < journal_limit:
                journal_append(position)
            else:
                self._journal_stale = True
            return cost

        return step

    # ------------------------------------------------------------------
    # Checkpointing (the flip journal)
    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Record the current assignment as the retained snapshot.

        O(flips since the previous checkpoint): the snapshot is brought up
        to date by replaying the journal's toggles (an atom flipped an even
        number of times nets out).  Falls back to one full copy when the
        journal overflowed.  ``reset``/``randomize`` re-seed the snapshot
        to the fresh assignment.
        """
        journal = self._journal
        if self._journal_stale:
            self._best = array("b", self.assignment)
            self._journal_stale = False
        else:
            best = self._best
            for position in journal:
                best[position] ^= 1
        del journal[:]

    def checkpoint_dict(self) -> Dict[int, bool]:
        """The snapshot recorded by the most recent :meth:`checkpoint`."""
        best = self._best
        return {
            atom_id: bool(best[index]) for index, atom_id in enumerate(self.atom_ids)
        }

    def checkpoint_values(self) -> Sequence[int]:
        """The checkpoint snapshot as a position-aligned 0/1 buffer.

        The bulk counterpart of :meth:`checkpoint_dict` (same atom order as
        :attr:`assignment`); callers must treat it as read-only, and a later
        :meth:`checkpoint`/:meth:`reset` may rewrite it in place.  This is
        the hand-off contract the MC-SAT pipeline feeds into
        :meth:`reset_from_values`.
        """
        return self._best

    # ------------------------------------------------------------------
    # Violated-set access
    # ------------------------------------------------------------------

    def violated_clause_indices(self) -> List[int]:
        return list(self._violated_list)

    def clause(self, clause_index: int) -> GroundClause:
        return self.mrf.clauses[clause_index]


# The e2e benchmark's layer timings import the kernel under this name.
make_search_state = SearchState
