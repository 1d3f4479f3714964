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

Each step runs three bulk stages over position-aligned buffers: the
selection (:class:`_BatchedSelection`, per-run numpy tables combined with
the evaluator's satisfaction mask), a constraint state over the selected
rows of one packed constraint table
(:class:`repro.inference.samplesat.ConstraintPool`), and marginal
accumulation as one int-vector add per kept sample.  The constraint states
share the parent MRF's atom order, so worlds hand off as flat 0/1 buffers.
The scalar loop in ``tests/mcsat_oracle.py`` is the executable
specification; seeded marginals equal it bit for bit
(``tests/test_mcsat_parity.py``).

Over several components, :meth:`MCSat.run_components` describes the run
once as a :class:`ComponentSampleRequest` and hands it to the partition
scheduler, which ships it in chunks like a component search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.inference.samplesat import ConstraintPool, SampleSAT, SampleSATOptions
from repro.inference.state import SearchState
from repro.mrf.graph import MRF
from repro.utils.clock import wall_now, wall_sleep
from repro.utils.rng import RandomSource, child_seed

if TYPE_CHECKING:
    from repro.parallel.buffers import ResultBufferSet


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


@dataclass
class ComponentSampleRequest:
    """One MC-SAT request over components, described once for all its chunks.

    Every chunk message is this description plus component indices.
    Component ``i`` runs :meth:`MCSat.run` with ``options`` on the stream
    ``RandomSource(seed).spawn(i + 1)``; its probabilities go into its
    result region, and the parent reads every region back at once.
    """

    options: MCSatOptions
    seed: Optional[int]

    @property
    def plan_key(self) -> Tuple:
        """What a pool caches this request's chunk cuts under."""
        return ("sample", self.options.samples + self.options.burn_in)

    def chunk_work(self, components: Sequence[MRF], order: Sequence[int]) -> List[int]:
        """Estimated work per dispatch position: size × sampling iterations."""
        steps = max(self.options.samples + self.options.burn_in, 1)
        return [components[index].size() * steps for index in order]

    def run_chunk(self, indices: Sequence[int], context, traced: bool):
        """Sample the chunk's components; the same return shape as a search chunk.

        Returns ``(simulated seconds per index, fallbacks, bytes written,
        events)``: sampling charges no simulated time and every result
        fits its region, so the seconds are zero and there are no
        fallbacks.  ``events`` holds each component's ``state-setup`` /
        ``kernel-search`` / ``ship-result`` phases when ``traced``.
        """
        from repro.parallel.buffers import RESULT_HEADER_SLOTS

        components = context.components
        results = context.results
        stall = context.stall_seconds
        events: Optional[List[list]] = [] if traced else None
        written = 0
        for index in indices:
            if stall > 0.0:
                wall_sleep(stall)
            setup_start = wall_now()
            mrf = components[index]
            sampler = MCSat(self.options, RandomSource(child_seed(self.seed, index + 1)))
            search_start = wall_now()
            probabilities = sampler.run(mrf).probabilities
            search_end = wall_now()
            results.write_marginals(index, [probabilities[atom] for atom in mrf.atom_ids])
            written += 8 * (RESULT_HEADER_SLOTS + mrf.atom_count)
            if events is not None:
                events.append(
                    [
                        {"name": "state-setup", "start": setup_start, "end": search_start},
                        {"name": "kernel-search", "start": search_start, "end": search_end},
                        {"name": "ship-result", "start": search_end, "end": wall_now()},
                    ]
                )
        return [0.0] * len(indices), {}, written, events

    def read_results(
        self,
        components: Sequence[MRF],
        buffers: "ResultBufferSet",
        overrides: Mapping[int, object],
    ) -> "MarginalResult":
        """The joint marginals: every region in one read, in component order.

        There are no ``overrides``: sampling has no deadline placeholders
        and every result fits its region.
        """
        return MarginalResult(
            buffers.read_marginals(), self.options.samples, self.options.burn_in
        )


class _BatchedSelection:
    """Per-run numpy tables for MC-SAT clause selection.

    Built once per :meth:`MCSat.run`: the soft clauses' parent indices,
    their signs, and their selection probabilities ``1 - exp(-|w|)``.  The
    probabilities are computed with ``math.exp`` — the same libm call the
    scalar specification makes — because ``np.exp`` may differ in the last
    ulp and a draw landing between the two values would silently fork the
    seeded stream.

    Each iteration, :meth:`select` combines the tables with the evaluator's
    satisfaction mask into the eligible set (positive and satisfied, or
    negative and unsatisfied), draws ``rng.random()`` once per eligible
    clause *in clause order*, and returns the selected parent indices for
    the constraint pool.  Hard clauses are the pool's always-kept prefix
    and consume no randomness.
    """

    def __init__(self, mrf: MRF) -> None:
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
        (``rng.spawn(index + 1)``) and runs :meth:`run` — so the merged
        marginals are bit-identical across ``parallel_backend`` values and
        worker counts (the parallel parity suite proves it), and the
        ``processes`` backend samples the components on all cores.
        The run travels as one :class:`ComponentSampleRequest` through
        :func:`repro.parallel.scheduler.run_component_request`;
        ``request_id`` tags its chunks with the session request they
        serve, and the pool checks every reply against it.
        """
        from repro.parallel import resolve_parallel_backend
        from repro.parallel.scheduler import run_component_request

        components = list(components)
        if len(components) == 1:
            return self.run(components[0])
        backend = resolve_parallel_backend(
            parallel_backend, workers=workers, task_count=len(components)
        )
        return run_component_request(
            components,
            ComponentSampleRequest(self.options, self.rng.seed),
            backend,
            workers=workers,
            pool=pool,
            request_id=request_id,
            tracer=tracer,
            metrics=metrics,
        ).results

    def run(self, mrf: MRF, initial_assignment: Optional[Mapping[int, bool]] = None) -> MarginalResult:
        """Estimate marginal probabilities of every atom in the MRF."""
        options = self.options
        sampler = SampleSAT(options.samplesat, self.rng.spawn(97))
        # One kernel state over the full MRF evaluates every clause's
        # satisfaction in a single pass per iteration.
        evaluator = SearchState(mrf)
        pool = ConstraintPool(mrf)
        selection = _BatchedSelection(mrf)

        # Initial state: enforce the hard constraints starting from
        # ``initial_assignment`` (or a random world).
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
            # The ideal MC-SAT step draws uniformly from the assignments
            # satisfying M, independently of the current state; starting
            # SampleSAT from a fresh random state approximates that and
            # mixes far better than warm-starting from the current world.
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
