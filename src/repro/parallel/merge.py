"""Deterministic merging of per-component (and per-partition) results.

Every parallel backend returns its per-component results in component
order (see :mod:`repro.parallel.scheduler`), and every component's search
runs on an RNG stream derived only from the run seed and the component id
(``rng.spawn(index + 1)``).  Merging is therefore pure bookkeeping — the
combined assignment, cost, flips and trace are bit-for-bit identical to
the serial backend regardless of worker count or completion order:

* :func:`merge_walksat_results` — the component-search combine: union of
  per-component best assignments, costs summed in component order (float
  addition order matters for bit-parity), traces merged with the existing
  :func:`~repro.obs.events.merge_series`.
* :func:`merge_marginal_results` — the MC-SAT combine: components are
  disjoint atom sets, so the union of per-component marginal dictionaries
  (in component order) is the joint marginal estimate.
* :func:`gauss_seidel_refine` — the *partition* combine for oversized
  components (Algorithm 3): partitions share cut clauses, so after an
  embarrassingly parallel first pass (each partition searched with the
  others frozen at the initial assignment), the merged state seeds
  Gauss-Seidel rounds across the cut atoms
  (:class:`~repro.inference.gauss_seidel.GaussSeidelSearch` unchanged),
  which reconciles the cut deterministically.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence

from repro.inference.gauss_seidel import (
    GaussSeidelResult,
    GaussSeidelSearch,
    conditioned_mrf,
)
from repro.inference.mcsat import MarginalResult
from repro.inference.walksat import WalkSATOptions, WalkSATResult
from repro.mrf.graph import MRF
from repro.obs.events import merge_series
from repro.utils.clock import SimulatedClock
from repro.utils.rng import RandomSource


def merge_walksat_results(
    results: Sequence[WalkSATResult], trace_label: str = "tuffy"
):
    """Combine per-component WalkSAT results (component order).

    Returns ``(best_assignment, best_cost, total_flips, trace)``; infinite
    per-component costs (a component whose every try died before finding a
    finite state) are excluded from the sum, like the serial driver.
    """
    best_assignment: Dict[int, bool] = {}
    best_cost = 0.0
    total_flips = 0
    for result in results:
        best_assignment.update(result.best_assignment)
        if not math.isinf(result.best_cost):
            best_cost += result.best_cost
        total_flips += result.flips
    trace = merge_series([result.trace for result in results], label=trace_label)
    return best_assignment, best_cost, total_flips, trace


def merge_marginal_results(
    results: Sequence[MarginalResult], samples: int, burn_in: int
) -> MarginalResult:
    """Combine per-component marginal estimates into one result.

    Components partition the atom set, so the dictionaries are disjoint;
    they are merged in component order for a deterministic iteration
    order.  ``samples``/``burn_in`` are the per-component settings (every
    component draws the same number of samples).
    """
    probabilities: Dict[int, float] = {}
    for result in results:
        probabilities.update(result.probabilities)
    return MarginalResult(probabilities, samples, burn_in)


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
    pool=None,
) -> GaussSeidelResult:
    """Partition-parallel first pass, then Gauss-Seidel rounds on the cut.

    Pass one searches every partition *independently* — each partition's
    conditioned MRF freezes the other partitions at the initial assignment
    (all-false by default), so the tasks touch disjoint atoms and can run
    on any parallel backend; each partition draws its RNG from
    ``rng.spawn(500_000 + index + 1)`` (salted away from the streams the
    Gauss-Seidel sweeps spawn per part).  The merged assignment then seeds
    the standard Gauss-Seidel sweeps — sequential by construction (part
    ``i`` conditions on the fresh state of parts ``< i``) — which repair
    the cut clauses the first pass ignored.  Deterministic for a given
    seed on every backend and worker count.
    """
    from repro.inference.scheduling import run_components
    from repro.parallel.pool import ComponentTask

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
        part_options = WalkSATOptions(
            max_flips=flips_per_part,
            max_tries=1,
            noise=options.noise,
            target_cost=0.0,
            random_restarts=False,
            flip_cost_event=options.flip_cost_event,
            trace_label="partition-pass",
            kernel_backend=options.kernel_backend,
        )
        tasks = []
        for index in active:
            local_initial = {
                atom_id: assignment[atom_id]
                for atom_id in conditioned[index].atom_ids
                if atom_id in assignment
            }
            tasks.append(
                ComponentTask(
                    index=len(tasks),
                    kind="walksat",
                    seed=rng.spawn(500_000 + index + 1).seed,
                    walksat=part_options,
                    initial_assignment=local_initial,
                )
            )
        # The conditioned MRFs are fresh objects each call, so a lent pool
        # can only be used when the caller packed it from exactly them
        # (run_component_tasks verifies identity and otherwise raises);
        # an ephemeral processes pool is torn down in the scheduler's
        # ``finally`` even when a partition task raises.
        outcome = run_components(
            [conditioned[index] for index in active],
            tasks,
            parallel_backend=parallel_backend,
            workers=workers,
            pool=pool,
        )
        for index, result in zip(active, outcome.results):
            first_pass_flips += result.flips
            atom_set = partition_sets[index]
            for atom_id, value in result.best_assignment.items():
                if atom_id in atom_set:
                    assignment[atom_id] = value

    refined = seidel.run(full_mrf, partitions, initial_assignment=assignment)
    return GaussSeidelResult(
        best_assignment=refined.best_assignment,
        best_cost=refined.best_cost,
        rounds=refined.rounds,
        flips=refined.flips + first_pass_flips,
        trace=refined.trace,
        cut_clause_count=refined.cut_clause_count,
    )
