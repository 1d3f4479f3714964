"""Vectorized (numpy) search-kernel backend behind the ``SearchState`` API.

This is the second full kernel implementation queued up by the ROADMAP's
search-kernel line: the same WalkSAT bookkeeping as the flat-array kernel,
accelerated with numpy where batching pays, and **bit-for-bit identical** in
search semantics (``tests/test_search_kernel_parity.py`` drives both
backends and the seed reference kernel with identical seeds).

What is vectorized, and why only that:

* **Restart/reset bookkeeping.**  ``_initialise_counts`` computes every
  clause's satisfied-literal count with one ``np.bincount`` over a flat
  literal CSR and derives the violated set with one comparison, instead of
  a Python loop over every literal.  This is the dominant cost of
  ``reset``/``rerandomize`` (the state-reuse lifecycle calls them on every
  WalkSAT restart and every MC-SAT iteration).
* **Batched greedy ``delta_cost``.**  The WalkSAT greedy step evaluates the
  cost delta of every distinct atom of one violated clause.  The scalar
  kernel walks each candidate's adjacency separately; this backend batches
  all candidates into one flattened gather + ``np.bincount`` so the
  adjacency walk is shared.  Numpy dispatch overhead beats the scalar loop
  only when the batch is large: the measured crossover on this container is
  ~120 adjacency entries, so batching engages per clause only at
  ``GREEDY_MIN_ENTRIES`` and above, and the stepper falls back to the exact
  scalar loop below it.  On sparse MRFs (no clause above the threshold) the
  stepper *is* the flat kernel's stepper — zero per-step overhead.
* **Whole-state queries.**  ``satisfaction_flags`` (MC-SAT's per-iteration
  scan) and ``delta_cost_batch`` use the numpy mirrors when they are in
  sync, falling back to the scalar implementations otherwise.

The per-MRF structure (:class:`VectorMRFView`) reuses the flat view's
literal arrays — positions, owners, atom degrees — and reads ``negated``
off the weight column; which clauses get batched-greedy tables is decided
for all clauses at once from those degrees.

Parity-critical numerics: per-candidate deltas are summed with
``np.bincount``, whose accumulation is a simple left-to-right loop in entry
order — the same float addition order as the scalar kernel.  ``np.sum`` and
``np.add.reduceat`` use pairwise summation and would *not* be bit-identical;
do not substitute them (the ``det-float-sum`` analysis rule flags them in
the deterministic core).  Non-crossing entries contribute ``±0.0``, which
never changes an IEEE-754 running sum's value.
"""

from __future__ import annotations

import functools
import operator
from array import array
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.inference.state import SearchState
from repro.mrf.graph import MRF, literal_arrays
from repro.utils.rng import RandomSource

#: Per-clause candidate-adjacency size (sum of candidate atom degrees) at
#: which the batched numpy greedy overtakes the scalar loop.  Measured
#: crossover ~120 entries on the reference container; kept a little above
#: it so borderline clauses stay on the (predictable) scalar path.
#: Selection only — the batched and scalar greedy paths are bit-identical.
GREEDY_MIN_ENTRIES = 128


class VectorMRFView:
    """Per-MRF numpy structure shared by every :class:`VectorSearchState`.

    Built lazily once per MRF (cached on ``mrf._vector_view``, mirroring
    ``MRF.flat_view``) and treated as read-only shared state:

    * ``lit_pos`` / ``lit_expect`` / ``lit_clause`` — the clause → literal
      relation flattened to parallel arrays (atom position, expected truth
      value for the literal to hold, owning clause index), driving the
      one-shot satisfied-count initialisation.  Positions and owners are
      the flat view's :class:`~repro.mrf.graph.LiteralArrays` (derived
      here only when the flat view was row-built), as are the atom
      ``degrees`` and the in-clause ``repeats`` that decide greedy tables.
    * ``negated`` — per-clause "violated when satisfied" flags.
    * ``greedy_tables()`` — per-clause batched-greedy gather tables for
      every clause whose candidate adjacency reaches
      ``GREEDY_MIN_ENTRIES`` (built on first call; weight-dependent arrays
      live on the states, because ``hard_penalty`` differs per state).
    * ``atom_updates()`` — per-atom ``(clause_indices, signs)`` arrays for
      keeping the satisfied-count mirror in sync after a flip with one
      ``np.add.at`` (built on first call).
    """

    __slots__ = (
        "clause_count",
        "lit_pos",
        "lit_expect",
        "lit_clause",
        "negated",
        "degrees",
        "repeats",
        "_flat",
        "_greedy_tables",
        "_atom_updates",
    )

    def __init__(self, mrf: MRF) -> None:
        flat = mrf.flat_view()
        self._flat = flat
        columns = mrf.columns()
        self.clause_count = len(columns)
        arrays = flat.arrays
        if arrays is None:
            arrays, _ = literal_arrays(
                mrf.literal_atom_positions(),
                np.frombuffer(columns.offsets, dtype=np.int64),
                len(flat.atom_ids),
            )
        self.lit_pos, self.lit_clause, self.degrees, self.repeats = arrays
        self.lit_expect = (np.frombuffer(columns.literals, dtype=np.int64) > 0).astype(np.int8)
        self.negated = np.frombuffer(columns.weights, dtype=np.float64) < 0
        self._greedy_tables: Optional[Dict[int, tuple]] = None
        self._atom_updates: Optional[List[Tuple["np.ndarray", "np.ndarray"]]] = None

    def greedy_tables(self) -> Dict[int, tuple]:
        """Gather tables for clauses whose candidate adjacency is large.

        For each qualifying clause: ``(entry_pos, entry_expect,
        entry_clause, owner, candidate_count)`` where the entry arrays are
        the concatenated adjacency of the clause's distinct atoms (candidate
        by candidate, each candidate's entries in clause order — the same
        order the scalar loop accumulates in) and ``owner`` maps each entry
        back to its candidate slot for the ``np.bincount`` reduction.
        Which clauses qualify is decided for all of them at once from
        arrays: a clause's candidates are its literals minus the repeats,
        its candidate adjacency the sum of their atoms' degrees.
        """
        if self._greedy_tables is not None:
            return self._greedy_tables
        flat = self._flat
        adjacency = flat.adjacency
        positions, owners = self.lit_pos, self.lit_clause
        if len(self.repeats):
            distinct = np.ones(len(positions), dtype=bool)
            distinct[self.repeats] = False
            positions, owners = positions[distinct], owners[distinct]
        candidate_counts = np.bincount(owners, minlength=self.clause_count)
        # Integer-valued float64 sums: exact.
        totals = np.bincount(
            owners, weights=self.degrees[positions], minlength=self.clause_count
        )
        eligible = np.nonzero((candidate_counts >= 2) & (totals >= GREEDY_MIN_ENTRIES))[0]
        tables: Dict[int, tuple] = {}
        for clause_index in eligible.tolist():
            candidates = flat.clause_atom_positions(clause_index)
            entry_pos: List[int] = []
            entry_expect: List[int] = []
            entry_clause: List[int] = []
            owner: List[int] = []
            for slot, position in enumerate(candidates):
                for other_clause, positive in adjacency[position]:
                    entry_pos.append(position)
                    # The literal over this atom is currently true when the
                    # assignment equals the literal's polarity.
                    entry_expect.append(1 if positive else 0)
                    entry_clause.append(other_clause)
                    owner.append(slot)
            tables[clause_index] = (
                np.asarray(entry_pos, dtype=np.intp),
                np.asarray(entry_expect, dtype=np.int8),
                np.asarray(entry_clause, dtype=np.intp),
                np.asarray(owner, dtype=np.intp),
                len(candidates),
            )
        self._greedy_tables = tables
        return tables

    def atom_updates(self) -> List[Tuple["np.ndarray", "np.ndarray"]]:
        """Per-atom ``(clause_indices, signs)`` for the flip mirror update.

        Flipping an atom whose value was False changes each adjacent
        clause's satisfied count by ``+sign`` (``sign`` is +1 for a positive
        occurrence, -1 for a negative one); a True value changes it by
        ``-sign``.  Duplicate occurrences of the atom in one clause appear
        as separate entries, which is why the caller must apply these with
        ``np.add.at``/``np.subtract.at`` (fancy ``+=`` would drop them).
        """
        if self._atom_updates is None:
            # Atom-major order (stable: each atom's entries in clause order,
            # as in the flat view's adjacency), split at atom boundaries.
            order = np.argsort(self.lit_pos, kind="stable")
            bounds = np.cumsum(np.bincount(self.lit_pos, minlength=len(self._flat.atom_ids)))
            indices = np.split(self.lit_clause[order], bounds[:-1])
            signs = np.split(
                np.where(self.lit_expect[order] == 1, 1, -1).astype(np.int32), bounds[:-1]
            )
            self._atom_updates = list(zip(indices, signs))
        return self._atom_updates


def vector_view(mrf: MRF) -> VectorMRFView:
    """The (cached) per-MRF numpy view; builds it on first use."""
    view = getattr(mrf, "_vector_view", None)
    if view is None:
        view = VectorMRFView(mrf)
        mrf._vector_view = view
    return view


class ConstraintVectorView(VectorMRFView):
    """A :class:`VectorMRFView` assembled from prebuilt literal arrays.

    Used by the SampleSAT constraint pool for its throwaway per-iteration
    constraint MRFs: the literal arrays are concatenated from fragments
    cached per parent clause instead of re-scanned literal by literal, and
    ``negated`` is constant (constraints are all weight-1.0 clauses).

    Batched-greedy tables are disabled (the table cache starts out empty,
    so ``degrees`` and ``repeats`` are never read): their one-time
    per-clause adjacency scan and gather-table build cannot amortize over a
    constraint state that lives for a single SampleSAT call.  Disabling
    them is a pure performance decision — the scalar greedy it falls back
    to is bit-identical (the kernel parity suite proves both paths equal).
    """

    __slots__ = ()

    def __init__(self, flat_view, lit_pos, lit_expect, lit_clause, clause_count) -> None:
        self._flat = flat_view
        self.clause_count = clause_count
        self.lit_pos = lit_pos
        self.lit_expect = lit_expect
        self.lit_clause = lit_clause
        self.negated = np.zeros(clause_count, dtype=bool)
        self.degrees = self.repeats = None
        self._greedy_tables = {}
        self._atom_updates = None


class VectorSearchState(SearchState):
    """Flat-array kernel with numpy-accelerated bulk paths (see module doc).

    All scalar bookkeeping (assignment buffer, satisfied-count list,
    violated set, flip journal) is inherited unchanged, so every base-class
    method keeps its exact semantics; numpy enters only through the
    overridden bulk operations and the stepper's batched greedy path.
    """

    def __init__(
        self,
        mrf: MRF,
        initial_assignment: Optional[Mapping[int, bool]] = None,
        hard_penalty: Optional[float] = None,
    ) -> None:
        # Set up the shared view before super().__init__, which calls the
        # overridden _initialise_counts.
        self._vv = vector_view(mrf)
        self._greedy: Dict[int, tuple] = {}
        super().__init__(mrf, initial_assignment, hard_penalty)
        tables = self._vv.greedy_tables()
        if tables:
            abs_weight = np.frombuffer(self._abs_weight, dtype=np.float64)
            signed = np.where(self._vv.negated, -abs_weight, abs_weight)
            for clause_index, table in tables.items():
                entry_pos, entry_expect, entry_clause, owner, count = table
                entry_sw = signed[entry_clause]
                self._greedy[clause_index] = (
                    entry_pos,
                    entry_expect,
                    entry_clause,
                    owner,
                    count,
                    entry_sw,
                    -entry_sw,
                )
        self._atom_updates = self._vv.atom_updates() if self._greedy else None

    # ------------------------------------------------------------------
    # Vectorized bulk initialisation
    # ------------------------------------------------------------------

    def _initialise_counts(self) -> None:
        vv = self._vv
        # Zero-copy views over the scalar buffers (stable for the state's
        # lifetime: the lifecycle rewrites them in place, never rebinds).
        assign_np = getattr(self, "_assign_np", None)
        if assign_np is None:
            assign_np = np.frombuffer(self.assignment, dtype=np.int8)
            self._assign_np = assign_np
        if len(vv.lit_clause):
            currently_true = assign_np[vv.lit_pos] == vv.lit_expect
            counts = np.bincount(
                vv.lit_clause, weights=currently_true, minlength=vv.clause_count
            ).astype(np.int32)
        else:
            counts = np.zeros(vv.clause_count, dtype=np.int32)
        # Refill the mirror in place: live steppers hold a reference to it,
        # so restarts must not rebind (mirroring the in-place lifecycle of
        # the scalar buffers).
        mirror = getattr(self, "_sat_np", None)
        if mirror is None:
            self._sat_np = counts
        else:
            mirror[:] = counts
        self._sat_count[:] = counts.tolist()
        violated = np.nonzero((counts > 0) == vv.negated)[0]
        violated_list = self._violated_list
        violated_position = self._violated_position
        violated_list[:] = violated.tolist()
        violated_position.clear()
        violated_position.update(zip(violated_list, range(len(violated_list))))
        # Sequential left-to-right sum in clause order: parity with the
        # scalar kernel's accumulation loop (builtin sum() is not one: it
        # compensates float rounding since Python 3.12).
        self.cost = functools.reduce(
            operator.add, map(self._abs_weight.__getitem__, violated_list), 0.0
        )
        self._journal.clear()
        self._journal_stale = False
        self._best = array("b", self.assignment)
        # The numpy satisfied-count mirror is valid at this flip count;
        # scalar flips outside the mirror-maintaining paths invalidate it.
        self._sat_np_flips = self.flips

    def rerandomize(self, rng: RandomSource) -> None:
        """Uniformly random assignment, bulk-written through the numpy view.

        Consumes exactly one ``rng.random()`` per atom — the same underlying
        draw the scalar kernel's per-atom ``rng.coin()`` makes (``coin`` is
        ``random() < 0.5``), so seeded streams are unchanged; only the
        per-atom Python loop is replaced by one ``fromiter`` + comparison.
        """
        raw_random = rng.raw().random
        count = len(self.assignment)
        draws = np.fromiter(
            (raw_random() for _ in range(count)), dtype=np.float64, count=count
        )
        # _assign_np exists after __init__'s _initialise_counts call.
        self._assign_np[:] = draws < 0.5
        self._initialise_counts()

    # ------------------------------------------------------------------
    # Mirror maintenance
    # ------------------------------------------------------------------

    def _mirror_synced(self) -> bool:
        return self._sat_np_flips == self.flips

    def flip(self, atom_position: int) -> float:
        if self._atom_updates is None:
            return super().flip(atom_position)
        value = self.assignment[atom_position]
        delta = super().flip(atom_position)
        if self._mirror_was_synced:
            indices, signs = self._atom_updates[atom_position]
            if value:
                np.subtract.at(self._sat_np, indices, signs)
            else:
                np.add.at(self._sat_np, indices, signs)
            self._sat_np_flips = self.flips
        return delta

    @property
    def _mirror_was_synced(self) -> bool:
        # After super().flip() bumped self.flips, the mirror was in sync
        # iff it matched the pre-flip count.
        return self._sat_np_flips == self.flips - 1

    # ------------------------------------------------------------------
    # Vectorized queries
    # ------------------------------------------------------------------

    def satisfaction_flags(self) -> List[bool]:
        if self._mirror_synced():
            return (self._sat_np > 0).tolist()
        return super().satisfaction_flags()

    # repro: allow(seam-kernel-api): vectorized-only extension consumed by the
    # MC-SAT batched selection; flat states expose satisfaction_flags and the
    # selection pipeline feature-detects this fast path (test_mcsat_parity.py
    # pins both paths to identical streams).
    def satisfaction_array(self) -> "np.ndarray":
        """:meth:`satisfaction_flags` as a numpy bool array (fresh copy).

        The MC-SAT batched selection combines this directly with its
        per-clause eligibility masks, skipping the list materialisation.
        """
        if self._mirror_synced():
            return self._sat_np > 0
        return np.asarray(super().satisfaction_flags(), dtype=bool)

    def delta_cost_batch(self, clause_index: int) -> List[float]:
        table = self._greedy.get(clause_index)
        if table is None or not self._mirror_synced():
            return super().delta_cost_batch(clause_index)
        entry_pos, entry_expect, entry_clause, owner, count, sw, neg_sw = table
        currently_true = self._assign_np[entry_pos] == entry_expect
        crossing = self._sat_np[entry_clause] == currently_true
        contrib = np.where(currently_true, sw, neg_sw) * crossing
        return np.bincount(owner, weights=contrib, minlength=count).tolist()

    # ------------------------------------------------------------------
    # The hot loop
    # ------------------------------------------------------------------

    def make_walksat_stepper(self, rng: RandomSource, noise: float):
        """One WalkSAT step per call, with numpy-batched greedy choices.

        On MRFs where no clause meets ``GREEDY_MIN_ENTRIES`` this returns
        the scalar kernel's stepper unchanged (same closure, same speed).
        Otherwise the returned closure is the scalar stepper plus two
        additions: qualifying clauses take the batched greedy path, and
        every flip keeps the numpy satisfied-count mirror in sync with one
        ``np.add.at``.
        """
        greedy_tables = self._greedy
        if not greedy_tables:
            return super().make_walksat_stepper(rng, noise)

        raw = rng.raw()
        getrandbits = raw.getrandbits
        rng_random = raw.random
        assignment = self.assignment
        assign_np = self._assign_np
        sat_count = self._sat_count
        sat_np = self._sat_np
        abs_weight = self._abs_weight
        negated = self._negated
        adjacency = self._adjacency
        atom_updates = self._atom_updates
        candidates = self._candidates
        clause_atom_positions = self._view.clause_atom_positions
        violated_list = self._violated_list
        violated_position = self._violated_position
        journal = self._journal
        journal_limit = self._journal_limit
        journal_append = journal.append
        greedy_get = greedy_tables.get
        bincount = np.bincount
        where = np.where
        add_at = np.add.at
        subtract_at = np.subtract.at

        def step() -> float:
            # random.choice(violated_list), unrolled (same RNG stream as the
            # seed kernel's rng.pick).
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
                table = greedy_get(clause_index)
                if table is not None:
                    # Batched greedy: one shared adjacency gather for all
                    # candidates; bincount accumulates per candidate in the
                    # scalar loop's exact addition order; argmin returns the
                    # first minimum, matching "first strict minimum wins".
                    entry_pos, entry_expect, entry_clause, owner, count, sw, neg_sw = table
                    currently_true = assign_np[entry_pos] == entry_expect
                    crossing = sat_np[entry_clause] == currently_true
                    contrib = where(currently_true, sw, neg_sw) * crossing
                    deltas = bincount(owner, weights=contrib, minlength=count)
                    position = positions[int(deltas.argmin())]
                else:
                    # Inline scalar delta per candidate (clause below the
                    # batching threshold); first strict minimum wins.
                    position = positions[0]
                    best_delta = None
                    for candidate in positions:
                        value = assignment[candidate]
                        delta = 0.0
                        for other_clause, positive in adjacency[candidate]:
                            currently_true = value if positive else not value
                            if currently_true:
                                if sat_count[other_clause] == 1:
                                    if negated[other_clause]:
                                        delta -= abs_weight[other_clause]
                                    else:
                                        delta += abs_weight[other_clause]
                            elif sat_count[other_clause] == 0:
                                if negated[other_clause]:
                                    delta += abs_weight[other_clause]
                                else:
                                    delta -= abs_weight[other_clause]
                        if best_delta is None or delta < best_delta:
                            best_delta = delta
                            position = candidate

            # Inline flip (same bookkeeping and ordering as the scalar
            # kernel), plus the one-call numpy mirror update.
            value = assignment[position]
            assignment[position] = 0 if value else 1
            delta = 0.0
            for other_clause, positive in adjacency[position]:
                currently_true = value if positive else not value
                count = sat_count[other_clause]
                if currently_true:
                    sat_count[other_clause] = count - 1
                    if count == 1:
                        if negated[other_clause]:
                            spot = violated_position.pop(other_clause, None)
                            if spot is not None:
                                last = violated_list.pop()
                                if spot < len(violated_list):
                                    violated_list[spot] = last
                                    violated_position[last] = spot
                            delta -= abs_weight[other_clause]
                        else:
                            if other_clause not in violated_position:
                                violated_position[other_clause] = len(violated_list)
                                violated_list.append(other_clause)
                            delta += abs_weight[other_clause]
                else:
                    sat_count[other_clause] = count + 1
                    if count == 0:
                        if negated[other_clause]:
                            if other_clause not in violated_position:
                                violated_position[other_clause] = len(violated_list)
                                violated_list.append(other_clause)
                            delta += abs_weight[other_clause]
                        else:
                            spot = violated_position.pop(other_clause, None)
                            if spot is not None:
                                last = violated_list.pop()
                                if spot < len(violated_list):
                                    violated_list[spot] = last
                                    violated_position[last] = spot
                            delta -= abs_weight[other_clause]
            indices, signs = atom_updates[position]
            if value:
                subtract_at(sat_np, indices, signs)
            else:
                add_at(sat_np, indices, signs)
            cost = self.cost + delta
            self.cost = cost
            self.flips += 1
            self._sat_np_flips = self.flips
            if len(journal) < journal_limit:
                journal_append(position)
            else:
                self._journal_stale = True
            return cost

        return step
