"""The metrics registry: counters, gauges and histograms under dotted names.

One :class:`MetricsRegistry` per engine is the one counter of every fact
the layers report, under stable dotted names — ``pool.shm_shipped``,
``scheduler.steals``, ``grounding.replay_hits``, ``session.requests``,
``io.page_reads`` — so one dump answers "what happened".  A per-request
value (the request log's shipping split, a ``ship`` span's attributes) is
the difference of two :meth:`MetricsRegistry.counters` readings around
that request, never a second copy of the count.

Histograms keep bounded aggregates (count/total/min/max), never raw
samples, so a registry's footprint is independent of request volume.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, Iterable, List, Optional, Tuple


class MetricsRegistry:
    """Thread-safe named counters, gauges and histogram aggregates."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, List[float]] = {}

    # -- writes --------------------------------------------------------

    def increment(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to the counter ``name`` (creating it at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to its latest value."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Fold one sample into the histogram ``name``."""
        value = float(value)
        with self._lock:
            aggregate = self._histograms.get(name)
            if aggregate is None:
                self._histograms[name] = [1.0, value, value, value]
            else:
                aggregate[0] += 1.0
                aggregate[1] += value
                if value < aggregate[2]:
                    aggregate[2] = value
                if value > aggregate[3]:
                    aggregate[3] = value

    # -- reads ---------------------------------------------------------

    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0.0)

    def counters(self, names: Iterable[str]) -> Tuple[float, ...]:
        """Several counters at once; subtract two readings for a delta."""
        with self._lock:
            return tuple(self._counters.get(name, 0.0) for name in names)

    def gauge(self, name: str) -> Optional[float]:
        with self._lock:
            return self._gauges.get(name)

    def histogram(self, name: str) -> Optional[Dict[str, float]]:
        with self._lock:
            aggregate = self._histograms.get(name)
            if aggregate is None:
                return None
            count, total, low, high = aggregate
        return {
            "count": count,
            "total": total,
            "min": low,
            "max": high,
            "mean": total / count if count else 0.0,
        }

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        """A nested snapshot: ``{"counters": ..., "gauges": ..., "histograms": ...}``."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            names = list(self._histograms)
        histograms = {name: self.histogram(name) for name in names}
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def render_text(self) -> str:
        """Sorted human-readable lines, one metric per line."""
        snapshot = self.as_dict()
        lines: List[str] = []
        for name in sorted(snapshot["counters"]):
            lines.append(f"counter {name} {snapshot['counters'][name]:g}")
        for name in sorted(snapshot["gauges"]):
            lines.append(f"gauge {name} {snapshot['gauges'][name]:g}")
        for name in sorted(snapshot["histograms"]):
            h = snapshot["histograms"][name]
            lines.append(
                f"histogram {name} count={h['count']:g} mean={h['mean']:g} "
                f"min={h['min']:g} max={h['max']:g}"
            )
        return "\n".join(lines)

    def render_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


__all__ = ["MetricsRegistry"]
