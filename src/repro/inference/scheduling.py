"""Scheduling of per-component searches: flip allocation and parallelism.

The paper runs WalkSAT on each MRF component with a *weighted round-robin*
policy — component ``G_i`` receives ``total_flips * |G_i| / |G|`` steps — and
uses a worker pool to process loaded components in parallel (Section 3.3,
Table 7).  This module provides the flip-allocation policy, the
simulated-time model of parallel execution (list-scheduling makespan, so
speed-ups can be reported deterministically), and :func:`run_components`
— the ``parallel_backend`` seam that hands per-component tasks to the
partition scheduler (:mod:`repro.parallel.scheduler`), including the true
multiprocess shared-memory backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.mrf.graph import MRF


def weighted_flip_allocation(components: Sequence[MRF], total_flips: int) -> List[int]:
    """Split a flip budget across components proportionally to their atom count.

    Largest-remainder (Hamilton) apportionment: each component's ideal
    share is ``total_flips * |G_i| / |G|``; every component gets the floor
    of its share, and the flips left over go one each to the largest
    fractional remainders (ties broken by lower index, so the result is
    deterministic).  The shares always sum to *exactly* ``total_flips`` —
    the previous per-component ``round()`` could over- or under-spend the
    budget by up to one flip per component.

    Every non-trivial component (at least one atom and one clause) is then
    guaranteed at least one flip, mirroring the weighted round-robin
    scheduling of Section 3.3; the top-up flips are taken from the largest
    shares so the total is conserved.  If the budget is smaller than the
    number of non-trivial components the guarantee is impossible; the
    components with the largest shares keep their single flips.
    """
    if total_flips <= 0:
        raise ValueError("total_flips must be positive")
    total_atoms = sum(component.atom_count for component in components)
    if total_atoms == 0:
        return [0 for _ in components]

    shares: List[int] = []
    remainders: List[Tuple[float, int]] = []
    for index, component in enumerate(components):
        ideal = total_flips * component.atom_count / total_atoms
        floor = int(ideal)
        shares.append(floor)
        # Sort key: largest remainder first, then lower index.
        remainders.append((-(ideal - floor), index))
    leftover = total_flips - sum(shares)
    for _remainder, index in sorted(remainders)[:leftover]:
        shares[index] += 1

    # Top up zero-share non-trivial components from the largest shares.  A
    # donor is any component that can spare a flip: one holding more than a
    # single flip, or a trivial component (no clauses to search) holding at
    # least one.  This makes the >=1 guarantee hold whenever
    # total_flips >= (number of non-trivial components).
    nontrivial_flags = [
        component.atom_count > 0 and component.clause_count > 0
        for component in components
    ]
    for index, is_nontrivial in enumerate(nontrivial_flags):
        if not is_nontrivial or shares[index] > 0:
            continue
        donor = max(
            (
                candidate
                for candidate in range(len(shares))
                if shares[candidate] > (1 if nontrivial_flags[candidate] else 0)
            ),
            key=lambda candidate: (shares[candidate], -candidate),
            default=None,
        )
        if donor is None:
            break
        shares[donor] -= 1
        shares[index] = 1
    return shares


@dataclass
class ParallelOutcome:
    """Results of running tasks with a (possibly simulated) worker pool."""

    results: List[object]
    wall_seconds: float
    sequential_simulated_seconds: float
    parallel_simulated_seconds: float

    @property
    def simulated_speedup(self) -> float:
        if self.parallel_simulated_seconds <= 0:
            return 1.0
        return self.sequential_simulated_seconds / self.parallel_simulated_seconds


def _list_schedule_makespan(durations: Sequence[float], workers: int) -> float:
    """Makespan of greedy list scheduling of the given task durations."""
    if not durations:
        return 0.0
    loads = [0.0] * max(workers, 1)
    for duration in sorted(durations, reverse=True):
        index = loads.index(min(loads))
        loads[index] += duration
    return max(loads)


def run_components(
    components: Sequence[MRF],
    tasks: Sequence["object"],
    parallel_backend: str = "auto",
    workers: int = 1,
    deadline_seconds: Optional[float] = None,
    local_states=None,
    placeholder: Optional[Callable[[int], object]] = None,
    pool=None,
    request_id: int = 0,
    tracer=None,
    metrics=None,
):
    """Run one :class:`~repro.parallel.pool.ComponentTask` per component.

    The parallel seam of the component drivers: resolves
    ``parallel_backend`` (``auto`` | ``serial`` | ``processes``, see
    :func:`repro.parallel.resolve_parallel_backend`) and hands the tasks
    to the partition scheduler
    (:func:`repro.parallel.scheduler.run_component_tasks`), which
    dispatches them largest-first — sequentially on ``serial``,
    work-stealing on ``processes`` — and returns results in component
    order.  ``deadline_seconds`` is honored by
    post-hoc bookkeeping over the per-component simulated costs — a
    dispatch position counts iff the summed costs of the positions
    before it stay under the deadline — so the set of skipped
    components (each receiving ``placeholder(index)``) is bit-identical
    across backends *and* worker counts.
    ``local_states`` may be a sequence of cached kernel states or a
    zero-arg callable building them; it is consulted only on the serial
    backend.  ``pool`` lends a caller-owned persistent
    :class:`~repro.parallel.pool.WorkerPool` to the ``processes``
    backend (the caller keeps ownership — it is not shut down here) and
    is ignored on the serial backend.  ``request_id``
    names the admitted session request this run serves — a shared
    persistent pool uses it to route completions back to the right
    request when several are in flight.  ``tracer`` / ``metrics`` are
    the injected observability surfaces, forwarded to the scheduler
    (no-ops when omitted; never consulted by the search itself).
    """
    from repro.parallel import resolve_parallel_backend
    from repro.parallel.scheduler import run_component_tasks

    resolved = resolve_parallel_backend(
        parallel_backend, workers=workers, task_count=len(components)
    )
    return run_component_tasks(
        components,
        tasks,
        backend=resolved,
        workers=workers,
        deadline_seconds=deadline_seconds,
        local_states=local_states,
        placeholder=placeholder,
        pool=pool,
        request_id=request_id,
        tracer=tracer,
        metrics=metrics,
    )
