"""``python -m benchmarks.e2e compare A.json B.json``: judge B against A.

A and B are documents the whole-set mode wrote (A the parent commit, B
the change).  Every (workload, end-to-end metric) pair gets one row and a
verdict from the metric's bound in ``BENCHMARK.json``:

* ``worse``      B's median is worse than A's by more than the bound;
* ``better``     B's median is better than A's by more than the bound;
* ``within``     neither;
* ``unresolved`` the run-to-run spread of either side (distance between
  the quartiles of its ``--sets`` values, as a share of their median) is
  wider than the bound — unless every value of B reads better than every
  value of A, which spread cannot explain.

Any operation that failed in B is ``worse`` (the bound on ``failed_share``
is 0).  Counts the program makes (ground clauses, join tuples, components,
result digests) repeat exactly on one commit; they are listed as ``same``
or ``changed``, which is information and not a verdict.  Exit status is
non-zero when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List

from benchmarks.e2e import load_contract

EXACT_COUNTS = ("grounding.ground_clauses", "rdbms.intermediate_tuples", "mrf.components")


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    first, _median, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def verdict(a: List[float], b: List[float], better: str, bound: float) -> Dict[str, object]:
    sign = 1.0 if better == "lower" else -1.0
    base, changed = statistics.median(a), statistics.median(b)
    worse_by = sign * (changed - base) / base
    widest = max(spread(a), spread(b))
    all_better = max(sign * value for value in b) < min(sign * value for value in a)
    if widest > bound and not all_better:
        word = "unresolved"
    elif worse_by > bound:
        word = "worse"
    elif worse_by < -bound:
        word = "better"
    else:
        word = "within"
    return {"a": base, "b": changed, "worse_by": worse_by, "spread": widest, "verdict": word}


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    a_doc, b_doc = documents
    contract = load_contract()

    worse = 0
    print(f"{'workload':<18} {'metric':<28} {'A':>12} {'B':>12} {'worse by':>9} {'spread':>7} {'bound':>6}  verdict")
    for name, b_workload in b_doc["workloads"].items():
        a_workload = a_doc["workloads"].get(name)
        if a_workload is None:
            print(f"{name:<18} only in B")
            continue
        for metric in contract["end_to_end"]:
            key = metric["name"]
            row = verdict(
                a_workload["end_to_end"][key]["values"],
                b_workload["end_to_end"][key]["values"],
                metric["better"],
                metric["bound"],
            )
            worse += row["verdict"] == "worse"
            print(
                f"{name:<18} {key:<28} {row['a']:>12.5g} {row['b']:>12.5g} "
                f"{row['worse_by']:>+9.1%} {row['spread']:>7.1%} {metric['bound']:>6.0%}  {row['verdict']}"
            )
        failed = "worse" if b_workload["failed"] else "within"
        worse += failed == "worse"
        print(
            f"{name:<18} {'failed_share':<28} {a_workload['failed_share']:>12.5g} "
            f"{b_workload['failed_share']:>12.5g} {'':>9} {'':>7} {'0':>6}  {failed}"
        )
        for key in EXACT_COUNTS:
            a_count = a_workload["per_layer"][key]["value"]
            b_count = b_workload["per_layer"][key]["value"]
            same = "same" if a_count == b_count else "changed"
            print(f"{name:<18} {key:<28} {a_count:>12.0f} {b_count:>12.0f} {'':>9} {'':>7} {'':>6}  {same}")
        shared = set(a_workload["digests"]) & set(b_workload["digests"])
        differing = sum(a_workload["digests"][s] != b_workload["digests"][s] for s in shared)
        same = "same" if not differing else f"changed ({differing})"
        print(f"{name:<18} {'result digests':<28} {len(shared):>12} {len(shared):>12} {'':>9} {'':>7} {'':>6}  {same}")
    return 1 if worse else 0
