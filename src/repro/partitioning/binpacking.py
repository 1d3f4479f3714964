"""First-Fit-Decreasing bin packing of components into memory batches.

The paper (Section 3.3, "Efficient Data Loading") groups MRF components into
batches so each batch fits the memory budget and the number of batches — and
therefore the number of loading passes over the clause table — is minimised.
This is the classic bin-packing problem; the paper implements First Fit
Decreasing, and so do we.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple, TypeVar

T = TypeVar("T")


@dataclass
class Bin:
    """One batch: the packed items and their total size."""

    capacity: float
    items: List[object] = field(default_factory=list)
    used: float = 0.0

    def fits(self, size: float) -> bool:
        return self.used + size <= self.capacity

    def add(self, item: object, size: float) -> None:
        if not self.fits(size):
            raise ValueError("item does not fit in this bin")
        self.items.append(item)
        self.used += size

    @property
    def free(self) -> float:
        return self.capacity - self.used

    def __len__(self) -> int:
        return len(self.items)


def first_fit_decreasing(
    items: Sequence[T],
    capacity: float,
    size_of: Callable[[T], float],
) -> List[Bin]:
    """Pack items into the fewest bins First-Fit-Decreasing can manage.

    Items larger than the capacity get a dedicated over-full bin each (the
    loader falls back to Gauss-Seidel/The RDBMS search for those), so the
    function never fails.
    """
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    bins: List[Bin] = []
    oversized: List[Bin] = []
    ordered = sorted(items, key=size_of, reverse=True)
    for item in ordered:
        size = size_of(item)
        if size > capacity:
            bin_ = Bin(capacity)
            bin_.items.append(item)
            bin_.used = size
            oversized.append(bin_)
            continue
        for bin_ in bins:
            if bin_.fits(size):
                bin_.add(item, size)
                break
        else:
            bin_ = Bin(capacity)
            bin_.add(item, size)
            bins.append(bin_)
    return oversized + bins


def packing_quality(bins: Sequence[Bin]) -> Tuple[int, float]:
    """(number of bins, average fill fraction) — used by tests and reports."""
    if not bins:
        return 0, 0.0
    fills = [bin_.used / bin_.capacity for bin_ in bins if bin_.capacity > 0]
    return len(bins), functools.reduce(operator.add, fills, 0.0) / len(fills) if fills else 0.0
