"""Partitioning: splitting the ground MRF to fit memory and speed up search.

* :mod:`repro.partitioning.greedy` — Algorithm 3 of the paper: a
  Kruskal-style greedy partitioner that scans clauses in descending
  ``|weight|`` order and merges their atoms into partitions bounded by a
  size budget β;
* :mod:`repro.partitioning.binpacking` — First-Fit-Decreasing bin packing of
  components into memory-budget-sized batches (the loading optimisation of
  Section 3.3);
* :mod:`repro.partitioning.loader` — the batch loader, which charges the I/O
  of reading each batch from the clause table exactly once versus once per
  component (Table 7);
* :mod:`repro.partitioning.bisection` — balanced-bisection cost, the
  quantity Theorem 3.2 shows is NP-hard to minimise, and the random
  balanced bisection the partitioning ablation compares Algorithm 3 with;
* :mod:`repro.partitioning.tradeoff` — the Appendix B.8 estimator of the
  benefit (or detriment) of a partitioning.
"""

from repro.partitioning.binpacking import Bin, first_fit_decreasing
from repro.partitioning.bisection import bisection_cost, random_balanced_bisection
from repro.partitioning.greedy import GreedyPartitioner, Partitioning
from repro.partitioning.loader import BatchLoader, LoadPlan
from repro.partitioning.tradeoff import partitioning_benefit

__all__ = [
    "BatchLoader",
    "Bin",
    "GreedyPartitioner",
    "LoadPlan",
    "Partitioning",
    "bisection_cost",
    "first_fit_decreasing",
    "partitioning_benefit",
    "random_balanced_bisection",
]
