"""WalkSAT (Algorithm 1 of the paper) for MAP inference.

The algorithm repeatedly picks a random violated clause and "fixes" it by
flipping one of its atoms: with probability ``noise`` a random atom of the
clause, otherwise the atom whose flip decreases the total cost the most.
The best assignment seen across all tries is returned.

Stopping conditions: a flip budget (``max_flips`` per try, ``max_tries``
restarts), an optional cost target, an optional deadline on the supplied
clock, or reaching zero violated clauses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.inference.state import SearchState
from repro.mrf.graph import MRF
from repro.obs.events import RateMeter, Series, SeriesPoint
from repro.utils.clock import SimulatedClock, WallClock
from repro.utils.rng import RandomSource


@dataclass
class WalkSATOptions:
    """Tuning parameters for WalkSAT.

    ``noise`` is the probability of a random (rather than greedy) flip; the
    paper's Algorithm 1 uses 0.5.  ``flip_cost_event`` is the simulated-clock
    event charged per flip (``"memory_flip"`` for the in-memory search).
    """

    max_flips: int = 100_000
    max_tries: int = 1
    noise: float = 0.5
    target_cost: Optional[float] = None
    deadline_seconds: Optional[float] = None
    random_restarts: bool = True
    flip_cost_event: str = "memory_flip"
    trace_label: str = "walksat"

    def __post_init__(self) -> None:
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError("noise must be within [0, 1]")
        if self.max_flips <= 0 or self.max_tries <= 0:
            raise ValueError("max_flips and max_tries must be positive")


@dataclass
class WalkSATResult:
    """The outcome of a WalkSAT run."""

    best_assignment: Dict[int, bool]
    best_cost: float
    flips: int
    tries: int
    seconds: float
    trace: Series = field(default_factory=Series)
    reached_target: bool = False
    hitting_time: Optional[int] = None

    @property
    def flips_per_second(self) -> float:
        return RateMeter(self.flips, self.seconds).flips_per_second


class WalkSAT:
    """The in-memory WalkSAT search used by Tuffy's hybrid architecture."""

    def __init__(
        self,
        options: Optional[WalkSATOptions] = None,
        rng: Optional[RandomSource] = None,
        clock: Optional[SimulatedClock] = None,
    ) -> None:
        self.options = options or WalkSATOptions()
        self.rng = rng or RandomSource(0)
        self.clock = clock or SimulatedClock()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(
        self,
        mrf: MRF,
        initial_assignment: Optional[Mapping[int, bool]] = None,
    ) -> WalkSATResult:
        """Search the MRF for a low-cost assignment."""
        return self.run_on_state(SearchState(mrf, initial_assignment), initial_assignment)

    def run_on_state(
        self,
        state: SearchState,
        initial_assignment: Optional[Mapping[int, bool]] = None,
    ) -> WalkSATResult:
        """Search using an existing state (lets callers reuse bookkeeping)."""
        options = self.options
        wall = WallClock()
        points: List[Tuple[float, float, int]] = []
        best_assignment, best_cost, flips, tries, reached_target, hitting_time, _ = (
            walksat_tries(
                state,
                self.rng,
                self.clock,
                options,
                options.max_flips,
                options.target_cost,
                initial_assignment,
                points,
                state.assignment_dict(),
                state.checkpoint_dict,
            )
        )
        trace = Series(options.trace_label)
        trace.points = [SeriesPoint(*point) for point in points]
        return WalkSATResult(
            best_assignment=best_assignment,
            best_cost=best_cost,
            flips=flips,
            tries=tries,
            seconds=wall.elapsed(),
            trace=trace,
            reached_target=reached_target,
            hitting_time=hitting_time,
        )


def walksat_tries(
    state: SearchState,
    rng: RandomSource,
    clock: SimulatedClock,
    options: WalkSATOptions,
    max_flips: int,
    target: Optional[float],
    initial_assignment: Optional[Mapping[int, bool]],
    points: List[Tuple[float, float, int]],
    best: Any,
    snapshot: Callable[[], Any],
    step: Optional[Callable[[], float]] = None,
) -> Tuple[Any, float, int, int, bool, Optional[int], Optional[Callable[[], float]]]:
    """The WalkSAT try and flip loop: every WalkSAT search runs through here.

    :meth:`WalkSAT.run_on_state` and the component chunk runner
    (:meth:`repro.inference.component_walksat.ComponentSearchRequest.run_chunk`)
    both call it.  ``options`` supplies the tries, noise, restart policy,
    flip event and deadline; ``max_flips`` and ``target`` are passed apart
    so that one options object can serve components with different
    budgets.  Every best-cost improvement appends ``(simulated time, cost,
    flips)`` to ``points``.  ``best`` is what to report when no try
    improves on an infinite cost; ``snapshot()`` reads the best
    assignment at the end of each try that improved.  ``step`` is a
    stepper the caller kept from an earlier call on the same state, RNG
    and noise (``None`` builds one).

    Returns ``(best, best cost, flips, tries, reached target, hitting
    time, stepper)``.
    """
    best_cost = math.inf
    total_flips = 0
    tries = 0
    reached_target = False
    hitting_time: Optional[int] = None

    # State-reuse lifecycle: randomize, rerandomize and reset rewrite the
    # state's buffers in place, so one stepper (created lazily below)
    # survives every try.
    deadline = options.deadline_seconds
    charge = clock.charge
    flip_event = options.flip_cost_event

    for attempt in range(options.max_tries):
        tries += 1
        if attempt == 0:
            if initial_assignment is None and options.random_restarts:
                state.randomize(rng)
            else:
                state.reset(initial_assignment)
        elif options.random_restarts:
            state.rerandomize(rng)
        else:
            state.reset(initial_assignment)
        if step is None:
            step = state.make_walksat_stepper(rng, options.noise)

        # Improvements are tracked through the state's flip journal:
        # checkpoint() is O(flips since the last improvement) and the
        # best assignment is read once per try instead of per improvement.
        try_improved = False
        if state.cost < best_cost:
            best_cost = state.cost
            state.checkpoint()
            try_improved = True
            points.append((clock.now(), best_cost, total_flips))

        if target is not None and best_cost <= target:
            # A try whose starting state already meets the target is a
            # zero-flip hit; without this, expected_hitting_time would
            # wrongly charge it the full flip budget.
            reached_target = True
            if hitting_time is None:
                hitting_time = total_flips
        else:
            # Hot loop: everything per-flip is either the kernel's own
            # stepper (sample + choose + flip in one call) or a
            # pre-bound local, so no wrapper frames are paid per step.
            # The violated list's identity is stable across resets, so
            # its truthiness is the has_violations() check.  Flip costs
            # are charged to the simulated clock in batches, flushed
            # before every clock observation (deadline check, trace
            # record, loop exit), so observable times are identical to
            # charging per flip.
            violated_list = state._violated_list
            pending_charges = 0
            for _flip in range(max_flips):
                if not violated_list:
                    break
                if deadline is not None:
                    if pending_charges:
                        charge(flip_event, pending_charges)
                        pending_charges = 0
                    if clock.now() >= deadline:
                        break
                cost = step()
                total_flips += 1
                pending_charges += 1
                if cost < best_cost:
                    charge(flip_event, pending_charges)
                    pending_charges = 0
                    best_cost = cost
                    state.checkpoint()
                    try_improved = True
                    points.append((clock.now(), best_cost, total_flips))
                    if (
                        hitting_time is None
                        and target is not None
                        and best_cost <= target
                    ):
                        hitting_time = total_flips
                if target is not None and best_cost <= target:
                    reached_target = True
                    break
            if pending_charges:
                charge(flip_event, pending_charges)
        if try_improved:
            best = snapshot()
        if reached_target or (deadline is not None and clock.now() >= deadline):
            break
        if not state.has_violations():
            break

    return best, best_cost, total_flips, tries, reached_target, hitting_time, step


def expected_hitting_time(
    mrf: MRF,
    target_cost: float,
    runs: int,
    max_flips: int,
    seed: int = 0,
    noise: float = 0.5,
) -> float:
    """Empirical mean number of flips WalkSAT needs to reach a target cost.

    Used by the Theorem 3.1 experiments (Example 1 / Figure 8): runs that do
    not reach the target within ``max_flips`` contribute ``max_flips`` flips,
    so the estimate is a lower bound on the true expectation.
    """
    total = 0.0
    for run in range(runs):
        options = WalkSATOptions(
            max_flips=max_flips,
            max_tries=1,
            noise=noise,
            target_cost=target_cost,
        )
        result = WalkSAT(options, RandomSource(seed + run)).run(mrf)
        if result.hitting_time is not None:
            total += result.hitting_time
        else:
            total += max_flips
    return total / max(runs, 1)
