"""MC-SAT marginal inference (paper, Appendix A.5).

MC-SAT is a slice sampler over possible worlds: at every step it selects a
random subset ``M`` of the ground clauses that the current world satisfies
(a clause with weight ``w > 0`` is selected with probability
``1 - exp(-w)``; hard clauses are always selected), then draws the next
world near-uniformly from the assignments satisfying every clause in ``M``
using SampleSAT.  Averaging atom truth values across samples estimates the
marginal probabilities.

Negative-weight ground clauses are selected, when currently *unsatisfied*,
as constraints requiring the clause to stay unsatisfied — the clause's
negation, a conjunction of unit literals, is added to ``M``.  Hard clauses
of either sign are *always* constrained, without consuming randomness: a
``+inf`` clause must stay satisfied, a ``-inf`` clause must stay
unsatisfied regardless of the current world (a hard negative clause the
current world satisfies marks a zero-probability world the chain must leave,
not a constraint to drop).

Two interchangeable sampling pipelines exist, and :meth:`MCSat.run` picks
one per MRF by the kernel's size test
(:func:`repro.inference.state.counts_by_numpy`, the same test that picks
the search state's count initialisation):

* the **scalar loop** (:meth:`MCSat._run_scalar` + :meth:`_select_clauses`)
  — the executable specification, and the faster pipeline for small MRFs:
  a Python pass over the clause list per iteration, dict-based world
  hand-off, per-atom marginal counting;
* the **batched pipeline** (:meth:`MCSat._run_batched`), for MRFs of at
  least ``NUMPY_VIEW_MIN_CLAUSES`` clauses — per-run numpy selection
  tables combined with the evaluator's satisfaction mask
  (:class:`_BatchedSelection`), pooled constraint-state construction
  (:class:`repro.inference.samplesat.ConstraintPool`), and marginal
  accumulation as one int-vector add per kept sample.

Both consume the identical RNG stream — selection draws ``rng.random()``
only for eligible clauses, in clause order — so seeded marginals are
bit-for-bit identical whichever pipeline runs (``tests/test_mcsat_parity.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.grounding.clause_table import GroundClause
from repro.inference.samplesat import (
    ConstraintPool,
    SampleSAT,
    SampleSATOptions,
    hard_constraint_prefix,
)
from repro.inference.state import SearchState, counts_by_numpy
from repro.mrf.graph import MRF
from repro.utils.rng import RandomSource


@dataclass
class MarginalResult:
    """Estimated marginal probabilities of atoms being true."""

    probabilities: Dict[int, float]
    samples: int
    burn_in: int

    def probability(self, atom_id: int) -> float:
        return self.probabilities.get(atom_id, 0.0)

    def most_likely(self, threshold: float = 0.5) -> Dict[int, bool]:
        """Threshold the marginals into a hard assignment."""
        return {atom_id: p >= threshold for atom_id, p in self.probabilities.items()}


@dataclass
class MCSatOptions:
    """Tuning parameters for MC-SAT."""

    samples: int = 100
    burn_in: int = 10
    samplesat: SampleSATOptions = field(default_factory=SampleSATOptions)

    def __post_init__(self) -> None:
        if self.samples <= 0:
            raise ValueError("samples must be positive")
        if self.burn_in < 0:
            raise ValueError("burn_in cannot be negative")


class _BatchedSelection:
    """Per-run numpy tables for MC-SAT clause selection.

    Built once per :meth:`MCSat.run`: the soft clauses' parent indices,
    their signs, and their selection probabilities ``1 - exp(-|w|)``.  The
    probabilities are computed with ``math.exp`` — the same libm call the
    scalar loop makes — because ``np.exp`` may differ in the last ulp and a
    draw landing between the two values would silently fork the seeded
    stream.

    Each iteration, :meth:`select` combines the tables with the evaluator's
    satisfaction mask into the eligible set (positive and satisfied, or
    negative and unsatisfied), draws ``rng.random()`` once per eligible
    clause *in clause order* (the exact stream the scalar loop consumes),
    and returns the selected parent indices for the constraint pool.
    """

    def __init__(self, mrf: MRF) -> None:
        import numpy as np

        self._np = np
        soft_indices: List[int] = []
        positive: List[bool] = []
        probabilities: List[float] = []
        for index, clause in enumerate(mrf.clauses):
            if clause.is_hard or clause.weight == 0:
                continue
            soft_indices.append(index)
            positive.append(clause.weight > 0)
            probabilities.append(1.0 - math.exp(-abs(clause.weight)))
        self.soft_indices = np.asarray(soft_indices, dtype=np.intp)
        self.positive = np.asarray(positive, dtype=bool)
        self.probabilities = np.asarray(probabilities, dtype=np.float64)

    def select(self, rng: RandomSource, satisfied: "object") -> "object":
        """Parent indices of the selected soft clauses (ascending)."""
        np = self._np
        soft_satisfied = satisfied[self.soft_indices]
        positive = self.positive
        eligible = np.nonzero(
            (positive & soft_satisfied) | (~positive & ~soft_satisfied)
        )[0]
        count = int(eligible.size)
        if not count:
            return eligible
        rng_random = rng.raw().random
        draws = np.fromiter(
            (rng_random() for _ in range(count)), dtype=np.float64, count=count
        )
        return self.soft_indices[eligible[draws < self.probabilities[eligible]]]


class MCSat:
    """The MC-SAT sampler."""

    def __init__(
        self,
        options: Optional[MCSatOptions] = None,
        rng: Optional[RandomSource] = None,
    ) -> None:
        self.options = options or MCSatOptions()
        self.rng = rng or RandomSource(0)

    def run_components(
        self,
        components: Sequence[MRF],
        parallel_backend: str = "auto",
        workers: int = 1,
        pool=None,
        request_id: int = 0,
        tracer=None,
        metrics=None,
    ) -> MarginalResult:
        """Estimate marginals component by component, optionally in parallel.

        The MRF's distribution factorises over its connected components, so
        each component is an independent MC-SAT chain.  Every component
        samples on an RNG stream derived from the run seed and its index
        (``rng.spawn(index + 1)``), and each per-component run goes through
        the same per-MRF pipeline choice as :meth:`run` — so the merged
        marginals are bit-identical across ``parallel_backend`` values and
        worker counts (the parallel parity suite proves it), and the
        ``processes`` backend samples the components on all cores.
        ``request_id`` tags the tasks with the admitted session request
        they serve, so a shared persistent pool routes completions back
        to this request when several are in flight.
        """
        from repro.inference.scheduling import run_components as dispatch_components
        from repro.parallel.merge import merge_marginal_results
        from repro.parallel.pool import ComponentTask

        components = list(components)
        if len(components) == 1:
            return self.run(components[0])
        tasks = [
            ComponentTask(
                index=index,
                kind="mcsat",
                seed=self.rng.child_seed(index + 1),
                mcsat=self.options,
            )
            for index in range(len(components))
        ]
        outcome = dispatch_components(
            components, tasks, parallel_backend=parallel_backend, workers=workers,
            pool=pool, request_id=request_id,
            tracer=tracer, metrics=metrics,
        )
        return merge_marginal_results(
            outcome.results, self.options.samples, self.options.burn_in
        )

    def run(self, mrf: MRF, initial_assignment: Optional[Mapping[int, bool]] = None) -> MarginalResult:
        """Estimate marginal probabilities of every atom in the MRF."""
        options = self.options
        sampler = SampleSAT(options.samplesat, self.rng.spawn(97))
        # One kernel state over the full MRF evaluates every clause's
        # satisfaction in a single pass per iteration; on large MRFs both
        # the per-iteration reset and the satisfaction scan are numpy passes.
        evaluator = SearchState(mrf)
        if counts_by_numpy(mrf):
            return self._run_batched(mrf, sampler, evaluator, initial_assignment)
        return self._run_scalar(mrf, sampler, evaluator, initial_assignment)

    # ------------------------------------------------------------------
    # The scalar pipeline (executable specification)
    # ------------------------------------------------------------------

    def _run_scalar(
        self,
        mrf: MRF,
        sampler: SampleSAT,
        evaluator: SearchState,
        initial_assignment: Optional[Mapping[int, bool]],
    ) -> MarginalResult:
        options = self.options
        atom_ids = list(mrf.atom_ids)

        # Initial state: enforce the hard constraints starting from
        # ``initial_assignment`` (or all-false).
        current = sampler.sample(
            hard_constraint_prefix(mrf.clauses), atom_ids, initial_assignment
        )

        true_counts: Dict[int, int] = {atom_id: 0 for atom_id in atom_ids}
        kept_samples = 0
        total_iterations = options.samples + options.burn_in
        for iteration in range(total_iterations):
            evaluator.reset(current)
            constraints = self._select_clauses(
                mrf.clauses, evaluator.satisfaction_flags()
            )
            # The ideal MC-SAT step draws uniformly from the assignments
            # satisfying M, independently of the current state; starting
            # SampleSAT from a fresh random state approximates that and
            # mixes far better than warm-starting from the current world.
            current = sampler.sample(constraints, atom_ids, None)
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

    # ------------------------------------------------------------------
    # The batched pipeline
    # ------------------------------------------------------------------

    def _run_batched(
        self,
        mrf: MRF,
        sampler: SampleSAT,
        evaluator: SearchState,
        initial_assignment: Optional[Mapping[int, bool]],
    ) -> MarginalResult:
        """The batched sampling loop: numpy selection, pooled states,
        vector accumulation.  Consumes the identical RNG stream and returns
        bit-identical probabilities to :meth:`_run_scalar`; every stage is
        a bulk operation over position-aligned buffers (the constraint
        states share the parent MRF's atom order, so worlds hand off as
        flat 0/1 buffers instead of dicts)."""
        import numpy as np

        options = self.options
        pool = ConstraintPool(mrf)
        selection = _BatchedSelection(mrf)

        state = pool.prefix_state(initial_assignment)
        if initial_assignment is None:
            found = sampler.sample_prepared(state)
        else:
            found = sampler.run_moves(state)
        current = state.checkpoint_values() if found else state.assignment

        true_counts = np.zeros(len(mrf.atom_ids), dtype=np.int64)
        kept_samples = 0
        total_iterations = options.samples + options.burn_in
        for iteration in range(total_iterations):
            # ``current`` aliases the previous constraint state's buffer;
            # it is consumed (by the reset) before the pool may reuse and
            # rewrite that state below.
            evaluator.reset_from_values(current)
            selected = selection.select(self.rng, evaluator.satisfaction_array())
            state = pool.state_for(selected)
            found = sampler.sample_prepared(state)
            current = state.checkpoint_values() if found else state.assignment
            if iteration >= options.burn_in:
                kept_samples += 1
                true_counts += np.frombuffer(current, dtype=np.int8)

        counts = true_counts.tolist()
        probabilities = {
            atom_id: counts[index] / kept_samples if kept_samples else 0.0
            for index, atom_id in enumerate(mrf.atom_ids)
        }
        return MarginalResult(probabilities, kept_samples, options.burn_in)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _select_clauses(
        self, clauses: Sequence[GroundClause], satisfied_flags: Sequence[bool]
    ) -> List[GroundClause]:
        """The random clause subset M for one MC-SAT step (scalar spec).

        ``satisfied_flags`` gives the literal-level satisfaction of every
        clause under the current world, in clause order (as produced by
        :meth:`SearchState.satisfaction_flags`).  Hard clauses form the
        always-selected prefix and consume no randomness; soft clauses are
        then considered in clause order, drawing ``rng.random()`` once per
        eligible clause — the stream contract the batched selection
        reproduces.
        """
        selected = hard_constraint_prefix(clauses)
        next_id = len(selected) + 1
        for clause, satisfied in zip(clauses, satisfied_flags):
            weight = clause.weight
            if clause.is_hard:
                continue
            if weight > 0 and satisfied:
                if self.rng.random() < 1.0 - math.exp(-weight):
                    selected.append(
                        GroundClause(next_id, clause.literals, 1.0, clause.source)
                    )
                    next_id += 1
            elif weight < 0 and not satisfied:
                if self.rng.random() < 1.0 - math.exp(-abs(weight)):
                    # Require the clause to remain unsatisfied: every literal
                    # must stay false, i.e. add the negation of each literal
                    # as a unit constraint.
                    for literal in clause.literals:
                        selected.append(
                            GroundClause(next_id, (-literal,), 1.0, clause.source)
                        )
                        next_id += 1
        return selected
