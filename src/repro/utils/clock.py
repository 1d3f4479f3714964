"""Wall-clock and simulated clocks.

The paper's experiments compare systems by wall-clock time on a fixed 2011
testbed.  Re-running those experiments on arbitrary hardware would make the
absolute numbers meaningless, so the library measures two things:

* wall-clock time, for "is this implementation actually fast" sanity, and
* a *simulated* clock, advanced by deterministic amounts per modelled event
  (one WalkSAT flip, one buffer-pool page miss, one partition load), which
  reproduces the *shape* of the paper's comparisons deterministically.

Both expose the same ``now()`` / ``elapsed()`` interface so the tracing code
does not care which one it is given.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


def wall_now() -> float:
    """The monotonic wall clock, as an absolute :func:`time.perf_counter` value.

    The sanctioned wall-clock *read* for code under the ``det-wallclock``
    analysis rule — used only by observability timestamps (span starts and
    ends), never by anything that feeds results.  The value is on the
    system-wide monotonic timeline, so timestamps taken in forked worker
    processes stitch onto the parent's without translation.
    """
    return time.perf_counter()


def wall_sleep(seconds: float) -> None:
    """Block the calling thread for ``seconds`` of real time.

    The sanctioned wall-clock sleep for code under the ``det-wallclock``
    analysis rule (the deterministic core must not call ``time.*``
    directly).  It is used only for *pacing* — the worker pool's injected
    slow-worker test hook — never for anything that feeds results, so
    determinism is unaffected.
    """
    if seconds > 0:
        time.sleep(seconds)


class WallClock:
    """A clock backed by :func:`time.perf_counter`."""

    def __init__(self) -> None:
        self._start = time.perf_counter()

    def now(self) -> float:
        """Seconds since the clock was created."""
        return time.perf_counter() - self._start

    def elapsed(self) -> float:
        """Alias of :meth:`now` for symmetry with :class:`SimulatedClock`."""
        return self.now()

    def restart(self) -> None:
        """Reset the origin of the clock."""
        self._start = time.perf_counter()


@dataclass
class CostModel:
    """Per-event costs (in simulated seconds) for the simulated clock.

    Defaults are chosen to mirror the relative magnitudes reported in the
    paper: an in-memory WalkSAT flip is on the order of microseconds, a
    random page access through the RDBMS layer is on the order of
    milliseconds (Appendix C.1 argues ~10 ms per random I/O), and loading a
    partition from the clause table costs per-page sequential I/O.
    """

    memory_flip: float = 1e-5
    rdbms_flip_overhead: float = 1e-2
    page_read: float = 5e-3
    page_write: float = 5e-3
    sequential_page_read: float = 5e-4
    tuple_cpu: float = 5e-8


class SimulatedClock:
    """A deterministic clock advanced explicitly by modelled events."""

    def __init__(self, cost_model: CostModel | None = None) -> None:
        self.cost_model = cost_model or CostModel()
        self._time = 0.0
        self._events: dict[str, int] = {}

    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._time

    def elapsed(self) -> float:
        """Alias of :meth:`now`."""
        return self._time

    def advance(self, seconds: float) -> None:
        """Advance the clock by an arbitrary number of simulated seconds."""
        if seconds < 0:
            raise ValueError("cannot advance a clock backwards")
        self._time += seconds

    def charge(self, event: str, count: int = 1) -> None:
        """Advance the clock by the cost of ``count`` events of a given kind.

        ``event`` must be the name of a :class:`CostModel` field.
        """
        unit = getattr(self.cost_model, event)
        self._time += unit * count
        self._events[event] = self._events.get(event, 0) + count

    def event_counts(self) -> dict[str, int]:
        """Return how many events of each kind have been charged."""
        return dict(self._events)

    def restart(self) -> None:
        """Reset simulated time and event counters."""
        self._time = 0.0
        self._events.clear()


@dataclass
class HybridClock:
    """Pairs a wall clock with a simulated clock.

    Inference loops charge simulated events while also exposing real elapsed
    time; experiment harnesses choose which axis to report.
    """

    simulated: SimulatedClock = field(default_factory=SimulatedClock)
    wall: WallClock = field(default_factory=WallClock)

    def now(self) -> float:
        return self.simulated.now()

    def elapsed(self) -> float:
        return self.simulated.elapsed()

    def charge(self, event: str, count: int = 1) -> None:
        self.simulated.charge(event, count)

    def wall_elapsed(self) -> float:
        return self.wall.elapsed()
