"""Deterministic merging of per-component (and per-partition) results.

Every parallel backend returns its per-component results in component
order (see :mod:`repro.parallel.scheduler`), and every component's search
runs on an RNG stream derived only from the run seed and a per-component
salt (``rng.child_seed(index + 1)``).  Merging is therefore pure
bookkeeping — the combined assignment, cost, flips and trace are
bit-for-bit identical to the serial backend regardless of worker count or
completion order:

* :class:`WalkSATColumns` — the component-search combine: union of
  per-component best assignments, costs summed in component order (float
  addition order matters for bit-parity), traces merged with
  :func:`~repro.obs.events.merge_series_columns`.  The columns come from
  one bulk read of the result regions, so a request of thousands of
  components builds no per-component result object to merge them.
  (The MC-SAT combine needs no code here: components are disjoint atom
  sets, so one bulk read of the marginal regions in component order is
  the joint estimate — :meth:`~repro.parallel.buffers.ResultBufferSet.read_marginals`.)
* :func:`gauss_seidel_refine` — the *partition* combine for oversized
  components (Algorithm 3): partitions share cut clauses, so after an
  embarrassingly parallel first pass (each partition searched with the
  others frozen at the initial assignment, as one chunked search
  request), the merged state seeds Gauss-Seidel rounds across the cut
  atoms (:class:`~repro.inference.gauss_seidel.GaussSeidelSearch`
  unchanged), which reconciles the cut deterministically.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.inference.gauss_seidel import (
    GaussSeidelResult,
    GaussSeidelSearch,
    conditioned_mrf,
)
from repro.inference.walksat import WalkSATOptions, WalkSATResult
from repro.mrf.graph import MRF
from repro.obs.events import Series, SeriesPoint, merge_series_columns
from repro.utils.clock import CostModel, SimulatedClock
from repro.utils.rng import RandomSource


class WalkSATColumns:
    """Per-component WalkSAT results as flat columns, in component order.

    Two constructors fill it: the parent's one bulk read of every result
    region (:meth:`~repro.parallel.buffers.ResultBufferSet.read_walksat_columns`)
    and :meth:`from_results` over result objects (when pickled fallbacks
    or deadline placeholders stand in for some regions).  :meth:`merge` combines the
    columns without building a per-component object; :meth:`results`
    builds the per-component :class:`WalkSATResult` list only when a
    caller asks for it.

    Component ``i`` owns the atoms ``atom_ids[value_offsets[i]:value_offsets[i + 1]]``
    (with their best ``values``, in the component's atom order) and the
    trace points ``trace_offsets[i]:trace_offsets[i + 1]`` of the three
    ``trace_*`` columns.
    """

    def __init__(
        self,
        atom_ids: Sequence[int],
        values: Sequence[bool],
        value_offsets: Sequence[int],
        best_costs: Sequence[float],
        flips: Sequence[int],
        tries: Sequence[int],
        seconds: Sequence[float],
        reached_target: Sequence[bool],
        hitting_times: Sequence[Optional[int]],
        grounding_seconds: Sequence[float],
        trace_offsets: Sequence[int],
        trace_times: Sequence[float],
        trace_costs: Sequence[float],
        trace_flips: Sequence[int],
        results: Optional[List[WalkSATResult]] = None,
    ) -> None:
        self.atom_ids = atom_ids
        self.values = values
        self.value_offsets = value_offsets
        self.best_costs = best_costs
        self.flips = flips
        self.tries = tries
        self.seconds = seconds
        self.reached_target = reached_target
        self.hitting_times = hitting_times
        self.grounding_seconds = grounding_seconds
        self.trace_offsets = trace_offsets
        self.trace_times = trace_times
        self.trace_costs = trace_costs
        self.trace_flips = trace_flips
        self._results = results

    @classmethod
    def from_results(cls, results: Sequence[WalkSATResult]) -> "WalkSATColumns":
        """Columns over result objects (which :meth:`results` returns)."""
        atom_ids: List[int] = []
        values: List[bool] = []
        value_offsets = [0]
        trace_times: List[float] = []
        trace_costs: List[float] = []
        trace_flips: List[int] = []
        trace_offsets = [0]
        for result in results:
            atom_ids.extend(result.best_assignment)
            values.extend(result.best_assignment.values())
            value_offsets.append(len(atom_ids))
            for point in result.trace.points:
                trace_times.append(point.time)
                trace_costs.append(point.cost)
                trace_flips.append(point.flips)
            trace_offsets.append(len(trace_times))
        return cls(
            atom_ids,
            values,
            value_offsets,
            [result.best_cost for result in results],
            [result.flips for result in results],
            [result.tries for result in results],
            [result.seconds for result in results],
            [result.reached_target for result in results],
            [result.hitting_time for result in results],
            [result.trace.grounding_seconds for result in results],
            trace_offsets,
            trace_times,
            trace_costs,
            trace_flips,
            results=list(results),
        )

    def __len__(self) -> int:
        return len(self.best_costs)

    def merge(self, trace_label: str = "tuffy"):
        """Combine the components: ``(assignment, cost, flips, trace)``.

        The assignment is the union of the per-component best values in
        component and atom order; costs are summed left to right in
        component order, skipping infinite ones (a component whose every
        try died before finding a finite state); traces are merged by
        :func:`~repro.obs.events.merge_series_columns`.
        """
        assignment = dict(zip(self.atom_ids, self.values))
        isinf = math.isinf
        cost = functools.reduce(
            operator.add, [c for c in self.best_costs if not isinf(c)], 0.0
        )
        lengths = np.diff(np.asarray(self.trace_offsets, dtype=np.int64))
        owners = np.repeat(np.arange(len(self), dtype=np.int64), lengths).tolist()
        trace = merge_series_columns(
            self.trace_times, owners, self.trace_costs, len(self), label=trace_label
        )
        return assignment, cost, sum(self.flips), trace

    def results(self) -> List[WalkSATResult]:
        """The per-component results (built on the first call).

        Columns read from the result regions label component ``i``'s
        trace ``component-i``, the label its search ran under.
        """
        if self._results is None:
            atom_ids, values = self.atom_ids, self.values
            value_offsets, trace_offsets = self.value_offsets, self.trace_offsets
            results = []
            for index in range(len(self)):
                low, high = value_offsets[index], value_offsets[index + 1]
                trace = Series(
                    f"component-{index}",
                    grounding_seconds=self.grounding_seconds[index],
                )
                first, last = trace_offsets[index], trace_offsets[index + 1]
                trace.points = [
                    SeriesPoint(time, cost, flips)
                    for time, cost, flips in zip(
                        self.trace_times[first:last],
                        self.trace_costs[first:last],
                        self.trace_flips[first:last],
                    )
                ]
                results.append(
                    WalkSATResult(
                        best_assignment=dict(
                            zip(atom_ids[low:high], values[low:high])
                        ),
                        best_cost=self.best_costs[index],
                        flips=self.flips[index],
                        tries=self.tries[index],
                        seconds=self.seconds[index],
                        trace=trace,
                        reached_target=self.reached_target[index],
                        hitting_time=self.hitting_times[index],
                    )
                )
            self._results = results
        return self._results


def gauss_seidel_refine(
    full_mrf: MRF,
    partitions: Sequence[Sequence[int]],
    options: WalkSATOptions,
    rng: RandomSource,
    rounds: int,
    clock: Optional[SimulatedClock] = None,
    parallel_backend: str = "serial",
    workers: int = 1,
    initial_assignment: Optional[Mapping[int, bool]] = None,
) -> GaussSeidelResult:
    """Partition-parallel first pass, then Gauss-Seidel rounds on the cut.

    Pass one searches every partition *independently* — each partition's
    conditioned MRF freezes the other partitions at the initial assignment
    (all-false by default), so the searches touch disjoint atoms and can
    run on any parallel backend.  The pass is one
    :class:`~repro.inference.component_walksat.ComponentSearchRequest`
    over the conditioned MRFs that have clauses: each partition gets
    ``max_flips // partitions`` flips and draws its RNG from
    ``rng.spawn(500_001 + partition)`` (salted away from the streams the
    Gauss-Seidel sweeps spawn per part).  The conditioned MRFs are new
    objects on every call, so the ``processes`` backend forks an
    ephemeral pool over them.  The merged assignment then seeds
    the standard Gauss-Seidel sweeps — sequential by construction (part
    ``i`` conditions on the fresh state of parts ``< i``) — which repair
    the cut clauses the first pass ignored.  Deterministic for a given
    seed on every backend and worker count.
    """
    from repro.inference.component_walksat import ComponentSearchRequest
    from repro.parallel import resolve_parallel_backend
    from repro.parallel.scheduler import run_component_request

    partition_sets = [set(partition) for partition in partitions]
    assignment: Dict[int, bool] = {atom_id: False for atom_id in full_mrf.atom_ids}
    if initial_assignment:
        for atom_id, value in initial_assignment.items():
            if atom_id in assignment:
                assignment[atom_id] = bool(value)

    seidel = GaussSeidelSearch(options, rng, rounds=rounds, clock=clock)
    conditioned: List[MRF] = [
        conditioned_mrf(full_mrf, atom_set, assignment)
        for atom_set in partition_sets
    ]
    flips_per_part = max(options.max_flips // max(len(partition_sets), 1), 1)
    active = [index for index, mrf in enumerate(conditioned) if mrf.clause_count > 0]
    first_pass_flips = 0
    if active:
        request = ComponentSearchRequest(
            options=WalkSATOptions(
                max_flips=flips_per_part,
                max_tries=1,
                noise=options.noise,
                target_cost=0.0,
                random_restarts=False,
                flip_cost_event=options.flip_cost_event,
            ),
            cost_model=CostModel(),
            seed=rng.seed,
            allocation=[flips_per_part] * len(active),
            budget=options.max_flips,
            initial_assignment=dict(assignment),
            salts=[500_001 + index for index in active],
        )
        parts = [conditioned[index] for index in active]
        backend = resolve_parallel_backend(
            parallel_backend, workers=workers, task_count=len(parts)
        )
        columns = run_component_request(parts, request, backend, workers=workers).results
        offsets = columns.value_offsets
        for position, index in enumerate(active):
            atom_set = partition_sets[index]
            low, high = offsets[position], offsets[position + 1]
            for atom_id, value in zip(columns.atom_ids[low:high], columns.values[low:high]):
                if atom_id in atom_set:
                    assignment[atom_id] = value
        first_pass_flips = sum(columns.flips)

    refined = seidel.run(full_mrf, partitions, initial_assignment=assignment)
    return GaussSeidelResult(
        best_assignment=refined.best_assignment,
        best_cost=refined.best_cost,
        rounds=refined.rounds,
        flips=refined.flips + first_pass_flips,
        trace=refined.trace,
        cut_clause_count=refined.cut_clause_count,
    )
