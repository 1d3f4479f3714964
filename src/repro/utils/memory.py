"""Memory accounting.

The paper's Table 4 and Table 5 compare peak RAM usage of Alchemy (which must
hold the grounding intermediate state in memory) against Tuffy (which only
needs memory for the search phase, and with partitioning only for the largest
batch of components).  Measuring a Python process RSS would mostly reflect
interpreter overhead, so the library models memory analytically:

* :func:`deep_sizeof` gives a recursive ``sys.getsizeof`` estimate of actual
  Python objects (used in tests and for sanity checks), and
* :class:`MemoryModel` charges logical bytes per atom, per ground-clause
  literal and per intermediate grounding tuple, which is what the paper's
  footprint comparison is actually about.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Set


def deep_sizeof(obj: Any, _seen: Set[int] | None = None) -> int:
    """Recursively estimate the in-memory size of a Python object in bytes.

    Cycles are handled via an id-set; shared sub-objects are counted once.
    """
    seen = _seen if _seen is not None else set()
    identity = id(obj)
    if identity in seen:
        return 0
    seen.add(identity)
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        size += sum(
            deep_sizeof(key, seen) + deep_sizeof(value, seen)
            for key, value in obj.items()
        )
    elif isinstance(obj, (list, tuple, set, frozenset)):
        size += sum(deep_sizeof(item, seen) for item in obj)
    elif hasattr(obj, "__dict__"):
        size += deep_sizeof(vars(obj), seen)
    elif hasattr(obj, "__slots__"):
        size += sum(
            deep_sizeof(getattr(obj, slot), seen)
            for slot in obj.__slots__
            if hasattr(obj, slot)
        )
    return size


@dataclass
class MemoryReport:
    """A snapshot of modelled memory usage, in bytes, per logical category."""

    categories: Dict[str, int] = field(default_factory=dict)

    def total(self) -> int:
        return sum(self.categories.values())

    def megabytes(self) -> float:
        return self.total() / (1024.0 * 1024.0)

    def merge(self, other: "MemoryReport") -> "MemoryReport":
        merged = dict(self.categories)
        for key, value in other.categories.items():
            merged[key] = merged.get(key, 0) + value
        return MemoryReport(merged)

    def __getitem__(self, key: str) -> int:
        return self.categories.get(key, 0)


@dataclass
class MemoryModel:
    """Analytic per-object byte costs used to model RAM footprints.

    The constants approximate the per-record costs of a compact C++
    implementation (as Alchemy is) rather than of CPython objects; what
    matters for reproducing the paper is that the *same* constants are used
    for every system being compared, so the ratios are meaningful.
    """

    bytes_per_atom: int = 16
    bytes_per_literal: int = 8
    bytes_per_clause: int = 32
    bytes_per_intermediate_tuple: int = 48
    bytes_per_evidence_tuple: int = 24

    def __post_init__(self) -> None:
        self._peak = 0
        self._current: Dict[str, int] = {}

    def charge(self, category: str, amount_bytes: int) -> None:
        """Add modelled bytes under a category and update the peak."""
        self._current[category] = self._current.get(category, 0) + amount_bytes
        self._update_peak()

    def release(self, category: str) -> None:
        """Release all modelled bytes under a category."""
        self._current.pop(category, None)

    def charge_atoms(self, count: int, category: str = "atoms") -> None:
        self.charge(category, count * self.bytes_per_atom)

    def charge_clauses(
        self, clause_count: int, literal_count: int, category: str = "clauses"
    ) -> None:
        self.charge(
            category,
            clause_count * self.bytes_per_clause
            + literal_count * self.bytes_per_literal,
        )

    def charge_intermediate(self, tuple_count: int, category: str = "grounding") -> None:
        self.charge(category, tuple_count * self.bytes_per_intermediate_tuple)

    def snapshot(self) -> MemoryReport:
        return MemoryReport(dict(self._current))

    @property
    def peak_bytes(self) -> int:
        return self._peak

    @property
    def current_bytes(self) -> int:
        return sum(self._current.values())

    def reset(self) -> None:
        self._peak = 0
        self._current.clear()

    def _update_peak(self) -> None:
        self._peak = max(self._peak, self.current_bytes)


def clause_table_bytes(literal_counts: Iterable[int], model: MemoryModel | None = None) -> int:
    """Size of a ground clause table given the literal count of each clause."""
    model = model or MemoryModel()
    total = 0
    count = 0
    for literals in literal_counts:
        total += model.bytes_per_clause + literals * model.bytes_per_literal
        count += 1
    return total
