"""Table 2 — grounding time, Alchemy (top-down) vs Tuffy (bottom-up).

The paper reports grounding times of 48/13/3913/23891 seconds for Alchemy
against 6/13/40/106 seconds for Tuffy on LP/IE/RC/ER: bottom-up grounding in
the RDBMS wins by up to a factor of 225, with the gap largest on the
join-heavy datasets (RC, ER).  This benchmark reruns both grounding
strategies on the generated workloads — bottom-up on the relational
engine's default execution backend — and reports wall-clock seconds plus
the speed-up factor; the expected shape is Tuffy >= Alchemy everywhere, and
a clearly larger factor on RC/ER than on IE.

Usage::

    python benchmarks/bench_table2_grounding.py             # full run
    python benchmarks/bench_table2_grounding.py --quick     # LP and RC at half scale
"""

from __future__ import annotations

import argparse
import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (_ROOT, os.path.join(_ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.harness import DATASETS, emit, fresh_dataset, render_table
from repro.grounding.bottom_up import BottomUpGrounder
from repro.grounding.top_down import TopDownGrounder


def _grounding_fingerprint(result):
    """A cheap identity of the ground *problem*, comparable across strategies.

    Statistics like satisfied-by-evidence counts legitimately differ between
    top-down (which enumerates satisfied bindings) and bottom-up (which
    prunes them inside the SQL), so only the resulting clause set is
    fingerprinted here.
    """
    return (
        result.ground_clause_count,
        result.clauses.total_literals(),
        round(sum(abs(clause.weight) for clause in result.clauses if not clause.is_hard), 6),
    )


def ground_dataset(name, scale=1.0, repeats=1):
    """Best-of-``repeats`` seconds of each strategy, and the clause count."""

    def run(make_grounder):
        best_seconds = None
        result = None
        for _ in range(repeats):
            dataset = fresh_dataset(name, scale)
            clauses = dataset.program.clauses()
            atoms = dataset.program.build_atom_registry()
            grounder = make_grounder()
            started = time.perf_counter()
            result = grounder.ground(clauses, atoms)
            elapsed = time.perf_counter() - started
            best_seconds = elapsed if best_seconds is None else min(best_seconds, elapsed)
        return result, best_seconds

    top_down, top_down_seconds = run(TopDownGrounder)
    bottom_up, bottom_up_seconds = run(BottomUpGrounder)
    # Both strategies must ground to the same problem.
    assert _grounding_fingerprint(top_down) == _grounding_fingerprint(bottom_up), name
    return top_down_seconds, bottom_up_seconds, bottom_up.ground_clause_count


def collect_rows(scale=1.0, datasets=None, repeats=1):
    return [
        (name, *ground_dataset(name, scale=scale, repeats=repeats))
        for name in datasets or DATASETS
    ]


def render(rows, scale):
    table_rows = [
        (
            name,
            round(top_down, 3),
            round(bottom_up, 3),
            round(top_down / max(bottom_up, 1e-9), 1),
            clause_count,
        )
        for name, top_down, bottom_up, clause_count in rows
    ]
    title = "Table 2 — grounding time (seconds, wall clock)"
    if scale != 1.0:
        title += f" [dataset scale x{scale:g}]"
    return render_table(
        title,
        ["dataset", "Alchemy (top-down)", "Tuffy (bottom-up)", "speed-up", "#ground clauses"],
        table_rows,
    )


def test_table2_grounding_time(benchmark):
    """pytest-benchmark entry point: the paper's Table 2 shape."""
    rows = benchmark.pedantic(collect_rows, rounds=1, iterations=1)
    emit("table2_grounding", render(rows, scale=1.0))
    speedups = {
        name: top_down / max(bottom_up, 1e-9) for name, top_down, bottom_up, _ in rows
    }
    # Bottom-up grounding must never lose, and must win clearly on the
    # join-heavy datasets (the paper's RC and ER columns).
    assert all(speedup >= 1.0 for speedup in speedups.values())
    assert speedups["ER"] > 2.0 or speedups["RC"] > 2.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="reduced datasets (LP, RC) at half scale"
    )
    parser.add_argument(
        "--scale", type=float, default=1.0, help="dataset generator scale factor"
    )
    parser.add_argument(
        "--repeats", type=int, default=1, help="timing repeats per grounder (best-of)"
    )
    parser.add_argument(
        "--datasets",
        default=None,
        help="comma-separated workload subset (default: LP,IE,RC,ER; "
        "ER grows very fast with --scale)",
    )
    args = parser.parse_args(argv)

    if args.datasets:
        datasets = tuple(token.strip().upper() for token in args.datasets.split(","))
    elif args.quick:
        datasets = ("LP", "RC")
    else:
        datasets = None
    scale = (0.5 if args.quick else 1.0) * args.scale
    rows = collect_rows(scale=scale, datasets=datasets, repeats=args.repeats)
    quick_run = args.quick or args.datasets or scale != 1.0
    emit("table2_grounding_quick" if quick_run else "table2_grounding", render(rows, scale))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
