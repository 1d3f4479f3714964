"""Time/cost series and rate meters — the event model behind the Figure 3–8
benchmarks.

:class:`Series` is a monotone-best cost-over-time curve sampled on the
simulated clock (the paper's time-cost plots); :class:`RateMeter` counts
flips against elapsed time and :func:`merge_series` sums per-component
curves into one.  Every search loop and benchmark imports them from here.

Two recording entry points exist on purpose:

* :meth:`Series.record` — gated, drops non-improving points.  The
  defensive public API.
* :meth:`Series.record_improvement` — ungated.  Hot search loops
  (``walksat.py``, ``rdbms_walksat.py``, ``gauss_seidel.py``) already test ``cost < best_cost`` before recording,
  so the gate inside :meth:`record` was a duplicate comparison per
  improvement; those paths call this instead.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np


@dataclass
class SeriesPoint:
    """One sample: simulated time, best cost so far, cumulative flips."""

    time: float
    cost: float
    flips: int = 0


@dataclass
class Series:
    """A monotone-best cost-over-time curve on the simulated clock.

    ``label`` names the system being traced (e.g. ``"tuffy"``,
    ``"alchemy"``) so benchmark harnesses can overlay curves.
    """

    label: str = ""
    points: List[SeriesPoint] = field(default_factory=list)
    grounding_seconds: float = 0.0

    def record(self, time: float, cost: float, flips: int = 0) -> None:
        """Record a sample if it improves on (or starts) the series."""
        if not self.points or cost < self.points[-1].cost:
            self.points.append(SeriesPoint(time, cost, flips))

    def record_improvement(self, time: float, cost: float, flips: int = 0) -> None:
        """Record a sample the caller has already established improves.

        Skips the improvement gate of :meth:`record` — hot loops check
        ``cost < best_cost`` themselves before calling.
        """
        self.points.append(SeriesPoint(time, cost, flips))

    def record_final(self, time: float, cost: float, flips: int = 0) -> None:
        """Record the final observation even when it does not improve."""
        self.points.append(SeriesPoint(time, cost, flips))

    @property
    def best_cost(self) -> float:
        return min((point.cost for point in self.points), default=math.inf)

    @property
    def final_time(self) -> float:
        return self.points[-1].time if self.points else 0.0

    def cost_at(self, time: float) -> float:
        """Best cost achieved at or before the given time (inf before start)."""
        best = math.inf
        for point in self.points:
            if point.time + self.grounding_seconds <= time and point.cost < best:
                best = point.cost
        return best

    def shifted(self, offset: float) -> "Series":
        """A copy with every timestamp shifted (used to add grounding time)."""
        copy = type(self)(self.label, grounding_seconds=self.grounding_seconds)
        copy.points = [
            SeriesPoint(point.time + offset, point.cost, point.flips)
            for point in self.points
        ]
        return copy

    def as_rows(self) -> List[Tuple[float, float]]:
        return [(point.time, point.cost) for point in self.points]


@dataclass
class RateMeter:
    """Counts flips against elapsed time to report flips/second."""

    flips: int = 0
    seconds: float = 0.0

    def record(self, flips: int, seconds: float) -> None:
        self.flips += flips
        self.seconds += seconds

    @property
    def flips_per_second(self) -> float:
        if self.seconds <= 0:
            return 0.0
        return self.flips / self.seconds


def merge_series(traces: Sequence[Series], label: str = "") -> Series:
    """Merge per-component series into one global best-cost curve.

    Component searches run independently; at any time the global best cost
    is the sum of each component's best cost so far.  The merged series
    samples the union of all component timestamps and is undefined
    (omitted) until every component has reported at least one point.
    """
    times: List[float] = []
    owners: List[int] = []
    costs: List[float] = []
    for index, trace in enumerate(traces):
        for point in trace.points:
            times.append(point.time)
            owners.append(index)
            costs.append(point.cost)
    return merge_series_columns(times, owners, costs, len(traces), label)


def merge_series_columns(
    times: Sequence[float],
    owners: Sequence[int],
    costs: Sequence[float],
    count: int,
    label: str = "",
) -> Series:
    """:func:`merge_series` over flat point columns instead of ``Series``.

    Entry ``k`` is the point ``(times[k], costs[k])`` of trace
    ``owners[k]`` (``0 <= owner < count``); entries come in trace order,
    and in point order within a trace — the order :func:`merge_series`
    lays them out in.  The result is the same series, point for point.
    Pass lists: the merged points carry the given time and cost objects.
    """
    merged = Series(label)
    if not count:
        return merged
    # One sweep over the time-sorted points (stable, so equal timestamps
    # keep trace order): a running best per trace plus a count of traces
    # that have no finite best yet.
    order = np.argsort(np.asarray(times, dtype=np.float64), kind="stable").tolist()
    sorted_times = [times[k] for k in order]
    sorted_owners = [owners[k] for k in order]
    sorted_costs = [costs[k] for k in order]
    bests = [math.inf] * count
    undefined = count
    isinf = math.isinf
    record = merged.record_final
    entries = len(sorted_times)
    position = 0
    while position < entries:
        timestamp = sorted_times[position]
        while position < entries and sorted_times[position] == timestamp:
            index = sorted_owners[position]
            cost = sorted_costs[position]
            best = bests[index]
            if cost < best:
                undefined += isinf(cost) - isinf(best)
                bests[index] = cost
            position += 1
        if not undefined:
            # Left-to-right float sum in trace order (not sum()/fsum):
            # every emitted total is bit-identical to the per-trace loop.
            record(timestamp, functools.reduce(operator.add, bests, 0.0))
    return merged


__all__ = ["RateMeter", "Series", "SeriesPoint", "merge_series", "merge_series_columns"]
