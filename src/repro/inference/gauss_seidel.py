"""Partition-aware search via the Gauss-Seidel scheme (paper, Section 3.4).

When a single MRF component is too large for the memory budget, the
partitioner (Algorithm 3) splits it into parts that *share clauses* (the
cut).  The Gauss-Seidel scheme then iterates over the parts: part ``i`` is
searched while every other part is frozen at its current assignment, so cut
clauses become conditioned clauses over part ``i`` only.  After ``T`` rounds
the concatenation of the per-part states is returned.

This is the technique Example 2 of the paper motivates; it trades the
exponential hitting-time blow-up of a joint search for a small number of
sweeps over the parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set

from repro.grounding.clause_table import GroundClause
from repro.inference.state import SearchState
from repro.inference.walksat import WalkSAT, WalkSATOptions
from repro.mrf.graph import MRF
from repro.obs.events import Series
from repro.utils.clock import SimulatedClock
from repro.utils.rng import RandomSource


def conditioned_mrf(
    mrf: MRF, atom_set: Set[int], assignment: Mapping[int, bool]
) -> MRF:
    """Clauses restricted to one partition, with outside atoms frozen.

    The conditioning step both the Gauss-Seidel sweeps and the parallel
    partition first pass (:func:`repro.parallel.merge.gauss_seidel_refine`)
    build their per-partition search problems from.
    """
    conditioned: List[GroundClause] = []
    next_id = 1
    for clause in mrf.clauses:
        inside = [literal for literal in clause.literals if abs(literal) in atom_set]
        if not inside:
            continue
        outside = [literal for literal in clause.literals if abs(literal) not in atom_set]
        satisfied_outside = any(
            assignment.get(abs(literal), False) == (literal > 0) for literal in outside
        )
        if satisfied_outside:
            if clause.weight >= 0:
                # Already satisfied regardless of this partition: drop it.
                continue
            # A satisfied negative-weight clause stays violated no matter
            # what this partition does; it adds a constant and is dropped.
            continue
        conditioned.append(
            GroundClause(next_id, tuple(inside), clause.weight, clause.source)
        )
        next_id += 1
    return MRF.from_clauses(conditioned, extra_atoms=atom_set)


@dataclass
class GaussSeidelResult:
    """Outcome of a Gauss-Seidel partition-aware search."""

    best_assignment: Dict[int, bool]
    best_cost: float
    rounds: int
    flips: int
    trace: Series = field(default_factory=Series)
    cut_clause_count: int = 0


class GaussSeidelSearch:
    """Coordinate-descent over MRF partitions, WalkSAT inside each part."""

    def __init__(
        self,
        options: Optional[WalkSATOptions] = None,
        rng: Optional[RandomSource] = None,
        rounds: int = 3,
        clock: Optional[SimulatedClock] = None,
    ) -> None:
        if rounds <= 0:
            raise ValueError("rounds must be positive")
        self.options = options or WalkSATOptions()
        self.rng = rng or RandomSource(0)
        self.rounds = rounds
        self.clock = clock or SimulatedClock()

    def run(
        self,
        full_mrf: MRF,
        partitions: Sequence[Sequence[int]],
        initial_assignment: Optional[Mapping[int, bool]] = None,
    ) -> GaussSeidelResult:
        """Search ``full_mrf`` using the given atom partitions.

        ``partitions`` is a list of disjoint atom-id collections covering the
        MRF's atoms (as produced by the greedy partitioner).
        """
        partition_sets = [set(partition) for partition in partitions]
        self._validate_partitions(full_mrf, partition_sets)
        assignment: Dict[int, bool] = {atom_id: False for atom_id in full_mrf.atom_ids}
        if initial_assignment:
            for atom_id, value in initial_assignment.items():
                if atom_id in assignment:
                    assignment[atom_id] = bool(value)

        cut_clauses = self._count_cut_clauses(full_mrf, partition_sets)
        trace = Series("gauss-seidel")
        # The global cost is maintained incrementally by a kernel state over
        # the full MRF: accepting a part's result costs
        # O(changed atoms x degree) instead of a full recount per update.
        # hard_penalty matches assignment_cost(hard_as_infinite=False).
        global_state = SearchState(full_mrf, assignment, hard_penalty=1e6)
        best_cost = global_state.cost
        best_assignment = dict(assignment)
        trace.record_improvement(self.clock.now(), best_cost)
        total_flips = 0

        flips_per_part = max(self.options.max_flips // max(len(partition_sets), 1), 1)
        for _round in range(self.rounds):
            for index, atom_set in enumerate(partition_sets):
                conditioned = self._conditioned_mrf(full_mrf, atom_set, assignment)
                if conditioned.clause_count == 0:
                    continue
                options = WalkSATOptions(
                    max_flips=flips_per_part,
                    max_tries=1,
                    noise=self.options.noise,
                    target_cost=0.0,
                    random_restarts=False,
                    flip_cost_event=self.options.flip_cost_event,
                    trace_label=f"partition-{index}",
                )
                searcher = WalkSAT(options, self.rng.spawn(index + 1), self.clock)
                local_initial = {
                    atom_id: assignment[atom_id]
                    for atom_id in conditioned.atom_ids
                    if atom_id in assignment
                }
                result = searcher.run(conditioned, local_initial)
                total_flips += result.flips
                for atom_id, value in result.best_assignment.items():
                    if atom_id in atom_set and assignment[atom_id] != value:
                        assignment[atom_id] = value
                        global_state.flip_atom_id(atom_id)
                global_cost = global_state.cost
                if global_cost < best_cost:
                    best_cost = global_cost
                    best_assignment = dict(assignment)
                    trace.record_improvement(self.clock.now(), best_cost, total_flips)

        return GaussSeidelResult(
            best_assignment=best_assignment,
            best_cost=best_cost,
            rounds=self.rounds,
            flips=total_flips,
            trace=trace,
            cut_clause_count=cut_clauses,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _validate_partitions(self, mrf: MRF, partition_sets: Sequence[Set[int]]) -> None:
        covered: Set[int] = set()
        for atom_set in partition_sets:
            overlap = covered & atom_set
            if overlap:
                raise ValueError(f"partitions overlap on atoms {sorted(overlap)[:5]}")
            covered |= atom_set
        missing = set(mrf.atom_ids) - covered
        if missing:
            raise ValueError(
                f"partitions do not cover {len(missing)} atoms (e.g. {sorted(missing)[:5]})"
            )

    def _count_cut_clauses(self, mrf: MRF, partition_sets: Sequence[Set[int]]) -> int:
        def part_of(atom_id: int) -> int:
            for index, atom_set in enumerate(partition_sets):
                if atom_id in atom_set:
                    return index
            return -1

        count = 0
        for clause in mrf.clauses:
            parts = {part_of(atom_id) for atom_id in clause.atom_ids}
            if len(parts) > 1:
                count += 1
        return count

    def _conditioned_mrf(
        self, mrf: MRF, atom_set: Set[int], assignment: Mapping[int, bool]
    ) -> MRF:
        return conditioned_mrf(mrf, atom_set, assignment)
