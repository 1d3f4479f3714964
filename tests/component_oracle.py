"""The per-component task path: the oracle the chunked requests are checked against.

Component work crosses the worker pool only as chunked requests: a
:class:`~repro.inference.component_walksat.ComponentSearchRequest` (MAP,
Gauss-Seidel's first pass) or a
:class:`~repro.inference.mcsat.ComponentSampleRequest` (MC-SAT), each run
by one ``run_chunk`` loop and read back in bulk.  This module keeps the
path they replaced, written out one component at a time:

* :class:`ComponentTask` names one component and carries its own seed,
  options and initial assignment;
* :func:`execute_component_task` runs one — a fresh
  ``WalkSAT.run_on_state`` on the task's stream and simulated clock, or a
  fresh ``MCSat.run``;
* :func:`run_tasks` runs a task list strictly in largest-first dispatch
  order under the post-hoc deadline rule, with placeholders for what the
  deadline skips;
* :func:`mcsat_marginals` and :func:`gauss_seidel_first_pass` are the
  per-component MC-SAT run and Gauss-Seidel's task pass, merged in
  component order.

Nothing here is fast or shared with the program: it is the spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.inference.component_walksat import ComponentSearchRequest
from repro.inference.gauss_seidel import conditioned_mrf
from repro.inference.mcsat import MarginalResult, MCSat, MCSatOptions
from repro.inference.state import SearchState
from repro.inference.walksat import WalkSAT, WalkSATOptions, WalkSATResult
from repro.mrf.graph import MRF
from repro.parallel.pool import ComponentOutcome
from repro.parallel.scheduler import dispatch_order
from repro.utils.clock import CostModel, SimulatedClock
from repro.utils.rng import RandomSource, child_seed


@dataclass
class ComponentTask:
    """One unit of work: search (or sample) one component.

    ``index`` is the component's position in the component list; ``seed``
    is its derived child-stream seed (``RandomSource(run seed).spawn(salt)``).
    """

    index: int
    kind: str  # "walksat" | "mcsat"
    seed: Optional[int]
    walksat: Optional[WalkSATOptions] = None
    mcsat: Optional[MCSatOptions] = None
    cost_model: CostModel = field(default_factory=CostModel)
    initial_assignment: Optional[Dict[int, bool]] = None


def execute_component_task(
    task: ComponentTask, mrf: MRF, state=None
) -> ComponentOutcome:
    """Run one task against its component MRF."""
    if task.kind == "walksat":
        if state is None:
            state = SearchState(mrf)
        clock = SimulatedClock(task.cost_model)
        searcher = WalkSAT(task.walksat, RandomSource(task.seed), clock)
        result = searcher.run_on_state(state, task.initial_assignment)
        return ComponentOutcome(task.index, result, clock.now())
    if task.kind == "mcsat":
        sampler = MCSat(task.mcsat, RandomSource(task.seed))
        return ComponentOutcome(task.index, sampler.run(mrf, task.initial_assignment), 0.0)
    raise ValueError(f"unknown component task kind {task.kind!r}")


def walksat_tasks(
    components: Sequence[MRF], seed: int, flips: int, **options
) -> List[ComponentTask]:
    """One WalkSAT task per component: ``flips`` each, on stream ``index + 1``."""
    return [
        ComponentTask(
            index=index,
            kind="walksat",
            seed=child_seed(seed, index + 1),
            walksat=WalkSATOptions(max_flips=flips, **options),
        )
        for index in range(len(components))
    ]


def search_request(
    components: Sequence[MRF], seed: int, flips: int, **options
) -> ComponentSearchRequest:
    """The chunked request equal to :func:`walksat_tasks` with the same arguments."""
    return ComponentSearchRequest(
        options=WalkSATOptions(max_flips=flips, **options),
        cost_model=CostModel(),
        seed=seed,
        allocation=[flips] * len(components),
        budget=flips,
    )


def zero_flip_placeholder(components: Sequence[MRF]) -> Callable[[int], ComponentOutcome]:
    """A deadline placeholder: the component's reset state, zero flips."""

    def placeholder(index: int) -> ComponentOutcome:
        state = SearchState(components[index])
        result = WalkSATResult(
            best_assignment=state.assignment_dict(),
            best_cost=state.cost,
            flips=0,
            tries=0,
            seconds=0.0,
        )
        return ComponentOutcome(index, result, 0.0)

    return placeholder


@dataclass
class TaskRun:
    """What :func:`run_tasks` returns, in component order."""

    outcomes: List[ComponentOutcome]
    dispatch_order: List[int]
    skipped: List[int]

    @property
    def results(self) -> list:
        return [outcome.result for outcome in self.outcomes]

    @property
    def sequential_simulated_seconds(self) -> float:
        total = 0.0
        for outcome in self.outcomes:
            total += outcome.simulated_seconds
        return total


def run_tasks(
    components: Sequence[MRF],
    tasks: Sequence[ComponentTask],
    deadline_seconds: Optional[float] = None,
    placeholder: Optional[Callable[[int], ComponentOutcome]] = None,
) -> TaskRun:
    """Run the tasks one by one in dispatch order, stopping at the deadline rule.

    Dispatch position ``p`` counts iff the summed simulated costs of
    positions ``0..p-1`` stay below the deadline; every other component
    gets ``placeholder(index)``.
    """
    outcomes: List[Optional[ComponentOutcome]] = [None] * len(components)
    counted: List[int] = []
    spent = 0.0
    for index in dispatch_order(components):
        if deadline_seconds is not None and spent >= deadline_seconds:
            break
        outcome = execute_component_task(tasks[index], components[index])
        outcomes[index] = outcome
        counted.append(index)
        spent += outcome.simulated_seconds
    skipped = sorted(set(range(len(components))) - set(counted))
    for index in skipped:
        outcomes[index] = placeholder(index)
    return TaskRun(outcomes, counted, skipped)


def mcsat_marginals(
    components: Sequence[MRF], options: MCSatOptions, seed: int
) -> Tuple[MarginalResult, List[MarginalResult]]:
    """Per-component MC-SAT on streams ``index + 1``, merged in component order.

    Returns the merged result and the per-component ones.
    """
    results = [
        execute_component_task(
            ComponentTask(index, "mcsat", child_seed(seed, index + 1), mcsat=options),
            component,
        ).result
        for index, component in enumerate(components)
    ]
    probabilities: Dict[int, float] = {}
    for result in results:
        probabilities.update(result.probabilities)
    return MarginalResult(probabilities, options.samples, options.burn_in), results


def gauss_seidel_first_pass(
    full_mrf: MRF,
    partitions: Sequence[Sequence[int]],
    options: WalkSATOptions,
    rng: RandomSource,
    initial_assignment: Optional[Mapping[int, bool]] = None,
) -> Tuple[Dict[int, bool], int, List[WalkSATResult]]:
    """Gauss-Seidel's first pass as one task per partition.

    Each partition with clauses is searched on its conditioned MRF (the
    other partitions frozen at the initial assignment) for ``max_flips //
    partitions`` flips, one try, no restarts, target cost 0, on the stream
    ``rng.spawn(500_000 + partition + 1)``.  Returns the merged
    assignment, the pass's flips and the per-partition results.
    """
    partition_sets = [set(partition) for partition in partitions]
    assignment = {atom_id: False for atom_id in full_mrf.atom_ids}
    for atom_id, value in (initial_assignment or {}).items():
        if atom_id in assignment:
            assignment[atom_id] = bool(value)
    conditioned = [
        conditioned_mrf(full_mrf, atom_set, assignment) for atom_set in partition_sets
    ]
    flips_per_part = max(options.max_flips // max(len(partition_sets), 1), 1)
    part_options = WalkSATOptions(
        max_flips=flips_per_part,
        max_tries=1,
        noise=options.noise,
        target_cost=0.0,
        random_restarts=False,
        flip_cost_event=options.flip_cost_event,
    )
    results = []
    for index, mrf in enumerate(conditioned):
        if mrf.clause_count == 0:
            continue
        task = ComponentTask(
            index=index,
            kind="walksat",
            seed=rng.child_seed(500_000 + index + 1),
            walksat=part_options,
            initial_assignment={
                atom_id: assignment[atom_id]
                for atom_id in mrf.atom_ids
                if atom_id in assignment
            },
        )
        results.append((index, execute_component_task(task, mrf).result))
    flips = 0
    for index, result in results:
        flips += result.flips
        for atom_id, value in result.best_assignment.items():
            if atom_id in partition_sets[index]:
                assignment[atom_id] = value
    return assignment, flips, [result for _index, result in results]
