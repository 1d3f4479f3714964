"""``python -m benchmarks.e2e``: the end-to-end + per-layer benchmark.

Three ways in:

* ``--workload W --seed S --seconds T --trace 0|1`` — one workload, one
  run; the last line of output is the result object ``BENCHMARK.json``'s
  contract describes (end-to-end metrics untraced, per-layer traced).
  ``BENCHMARK.json`` lists the three workloads the driver gates; the other
  three run the same way.
* no ``--workload`` — the whole set: all six workloads untraced, then
  traced, cross-workload ratios, one document under ``results/``.
* ``compare A.json B.json`` — judge B against A with ``BENCHMARK.json``'s
  bounds (:mod:`benchmarks.e2e.compare`).

The package adds ``src/`` to ``sys.path`` and pins ``REPRO_AUTOTUNE=off``
itself, before ``repro`` is imported: the ``auto`` backend thresholds must
not depend on an import-time micro-probe of the host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional

from benchmarks.e2e import HERE, RESULTS_DIR, ROOT, load_contract  # noqa: E402

SOURCE = os.path.join(ROOT, "src")
os.environ["REPRO_AUTOTUNE"] = "off"
if SOURCE not in sys.path:
    sys.path.insert(0, SOURCE)

from benchmarks.e2e.procguard import ChildFailed, Guard  # noqa: E402

EXPECTED_PATH = os.path.join(HERE, "expected.json")
#: The driver allows a run 180 s; a child that hangs is stopped before that.
CHILD_TIMEOUT_SECONDS = 150.0
SUITE_SECONDS = 20.0
SMOKE_OPS = 2
EXPECTED_OPS = {"full": 8, "smoke": SMOKE_OPS}
EXPECTED_SEED = 0


def parse_arguments(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__)
    parser.add_argument("--workload", help="run this one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=0, help="dataset seed; request seeds are 1000*seed + i")
    parser.add_argument("--seconds", type=float, default=None, help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: the traced/staged run")
    parser.add_argument("--ops", type=int, default=None, help="operations per client instead of --seconds")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, two operations per client")
    parser.add_argument("--sets", type=int, default=1, help="whole-set mode: untraced runs per workload")
    parser.add_argument("--expected", default=EXPECTED_PATH, help="digest file to check results against")
    parser.add_argument("--write-expected", action="store_true", help="regenerate expected.json")
    parser.add_argument("--out", default=None, help="whole-set mode: where to write the document")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    arguments = parser.parse_args(argv)
    if arguments.smoke and arguments.ops is None:
        arguments.ops = SMOKE_OPS
    return arguments


def child_report(
    guard: Guard, workload: str, arguments: argparse.Namespace, trace: int
) -> Dict[str, object]:
    """Start one workload child, reap it, return its report."""
    argv = [
        "-m", "benchmarks.e2e", "--child",
        "--workload", workload,
        "--seed", str(arguments.seed),
        "--seconds", repr(arguments.seconds),
        "--trace", str(trace),
        "--expected", arguments.expected,
    ]
    if arguments.ops is not None:
        argv += ["--ops", str(arguments.ops)]
    if arguments.smoke:
        argv.append("--smoke")
    output = guard.run_child(argv, CHILD_TIMEOUT_SECONDS, ROOT)
    lines = output.strip().splitlines()
    if not lines:
        raise ChildFailed(f"{workload}: the child printed no report")
    return json.loads(lines[-1])


def with_units(
    values: Dict[str, float], declared: List[Dict[str, str]]
) -> Dict[str, Dict[str, object]]:
    """Attach ``BENCHMARK.json``'s units; the two name sets must be equal."""
    units = {metric["name"]: metric["unit"] for metric in declared}
    emitted = set(values)
    if emitted != set(units):
        raise SystemExit(
            "metrics emitted and metrics declared in BENCHMARK.json differ: "
            f"only emitted {sorted(emitted - set(units))}, "
            f"only declared {sorted(set(units) - emitted)}"
        )
    return {
        name: {"value": value, "unit": units[name]} for name, value in values.items()
    }


def print_metrics(workload: str, metrics: Dict[str, Dict[str, object]], n: int) -> None:
    for name, metric in metrics.items():
        print(f"{workload:<18} {name:<36} {metric['value']:>14.6g} {metric['unit']:<6} n={n}")


def print_raw(workload: str, info: Dict[str, object], n: int) -> None:
    """The timed metrics as the clock read them, and the host factor used."""
    for name, value in info["raw"].items():
        print(f"{workload:<18} {name + ' (raw clock)':<36} {value:>14.6g}        n={n}")
    print(f"{workload:<18} {'host_factor_p50 (1 = quiet host)':<36} {info['host_factor_p50']:>14.6g} ratio  n={n}")


def report_problems(workload: str, report: Dict[str, object]) -> None:
    for problem in report["problems"]:
        print(f"{workload}: FAILED {problem}", file=sys.stderr)


# -- one workload, one run (the driver's form) --------------------------


def run_one(arguments: argparse.Namespace) -> int:
    from benchmarks.e2e.workloads import WORKLOADS

    contract = load_contract()
    if arguments.workload not in WORKLOADS:
        print(f"benchmarks.e2e: unknown workload {arguments.workload!r}; one of {list(WORKLOADS)}", file=sys.stderr)
        return 2
    if arguments.seconds is None:
        arguments.seconds = contract["run_seconds"]
    with Guard() as guard:
        report = child_report(guard, arguments.workload, arguments, arguments.trace)
    if arguments.trace:
        metrics = with_units(report["metrics"], contract["per_layer"])
    else:
        metrics = with_units(report["metrics"], contract["end_to_end"])
    print_metrics(arguments.workload, metrics, report["ops"])
    if not arguments.trace:
        print_raw(arguments.workload, report["info"], report["ops"])
    failed_share = report["failed"] / report["attempted"]
    print(f"{arguments.workload:<18} {'failed_share':<36} {failed_share:>14.6g} ratio  n={report['attempted']}")
    report_problems(arguments.workload, report)
    for leftover in guard.leftovers:
        print(f"LEFT BEHIND: {leftover}", file=sys.stderr)
    if guard.leftovers:
        return 1
    print(
        json.dumps(
            {
                "correct": report["failed"] == 0,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


# -- the whole set ------------------------------------------------------


def source_loc() -> Dict[str, int]:
    """Source lines per package under ``src/repro`` (tracked as a number)."""
    package_root = os.path.join(SOURCE, "repro")
    counts: Dict[str, int] = {}
    for directory, _subdirectories, files in os.walk(package_root):
        relative = os.path.relpath(directory, package_root)
        package = "repro" if relative == "." else relative.split(os.sep)[0]
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name), encoding="utf-8") as handle:
                    counts[package] = counts.get(package, 0) + sum(1 for _ in handle)
    return dict(sorted(counts.items()))


def current_commit() -> str:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def run_set(arguments: argparse.Namespace) -> int:
    import numpy

    from benchmarks.e2e.workloads import WORKLOADS

    contract = load_contract()
    if arguments.seconds is None:
        arguments.seconds = SUITE_SECONDS
    document: Dict[str, object] = {
        "benchmark": "e2e",
        "metadata": {
            "commit": current_commit(),
            "timestamp": time.strftime("%Y%m%dT%H%M%S"),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "REPRO_AUTOTUNE": os.environ["REPRO_AUTOTUNE"],
            "seed": arguments.seed,
            "seconds": arguments.seconds,
            "smoke": arguments.smoke,
            "sets": arguments.sets,
            "source_loc": source_loc(),
        },
        "workloads": {},
    }
    def reports(name: str):
        runs = [child_report(guard, name, arguments, 0) for _ in range(arguments.sets)]
        return runs, child_report(guard, name, arguments, 1)

    failed = 0
    # A smoke run checks plumbing, not speed: two workloads at a time.
    with ThreadPoolExecutor(2 if arguments.smoke else 1) as jobs, Guard() as guard:
        for name, (runs, traced) in zip(WORKLOADS, jobs.map(reports, WORKLOADS)):
            end_to_end = with_units(
                {
                    metric: statistics.median(run["metrics"][metric] for run in runs)
                    for metric in runs[0]["metrics"]
                },
                contract["end_to_end"],
            )
            for metric, entry in end_to_end.items():
                entry["values"] = [run["metrics"][metric] for run in runs]
            per_layer = with_units(traced["metrics"], contract["per_layer"])
            attempted = sum(run["attempted"] for run in runs) + traced["attempted"]
            failures = sum(run["failed"] for run in runs) + traced["failed"]
            failed += failures
            document["workloads"][name] = {
                "ops": [run["ops"] for run in runs],
                "traced_ops": traced["ops"],
                "attempted": attempted,
                "failed": failures,
                "failed_share": failures / attempted,
                "end_to_end": end_to_end,
                "per_layer": per_layer,
                "raw": {
                    metric: statistics.median(run["info"]["raw"][metric] for run in runs)
                    for metric in runs[0]["info"]["raw"]
                },
                "info": runs[-1]["info"],
                "digests": runs[-1]["digests"],
                "trace": traced["info"]["trace"],
            }
            print_metrics(name, end_to_end, runs[-1]["ops"])
            print_raw(name, runs[-1]["info"], runs[-1]["ops"])
            print(f"{name:<18} {'failed_share':<36} {failures / attempted:>14.6g} ratio  n={attempted}")
            print(f"{name:<18} {'request_p69_s (information only)':<36} {runs[-1]['info']['request_p69_s']:>14.6g} s      n={runs[-1]['ops']}")
            print_metrics(name, per_layer, traced["ops"])
            for run in runs + [traced]:
                report_problems(name, run)
    failed += check_concurrent_equals_solo(document["workloads"])
    document["derived"] = derived_ratios(document["workloads"])
    for name, entry in document["derived"].items():
        print(f"{'(all)':<18} {name:<36} {entry['value']:>14.6g} {entry['unit']:<6} {entry['of']}")
    document["leftovers"] = guard.leftovers
    for leftover in guard.leftovers:
        print(f"LEFT BEHIND: {leftover}", file=sys.stderr)
    path = arguments.out or os.path.join(
        RESULTS_DIR,
        f"run-{document['metadata']['commit']}-{document['metadata']['timestamp']}.json",
    )
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "x", encoding="utf-8") as handle:  # never overwritten
        json.dump(document, handle, indent=1)
        handle.write("\n")
    print(f"wrote {os.path.relpath(path)}")
    return 1 if failed or guard.leftovers else 0


def check_concurrent_equals_solo(workloads: Dict[str, Dict[str, object]]) -> int:
    """``ie_concurrent_map`` must equal ``ie_warm_map`` seed for seed."""
    solo = workloads["ie_warm_map"]["digests"]
    concurrent = workloads["ie_concurrent_map"]["digests"]
    differing = [
        seed for seed in sorted(set(solo) & set(concurrent)) if solo[seed] != concurrent[seed]
    ]
    for seed in differing:
        print(f"ie_concurrent_map: FAILED seed {seed} differs from ie_warm_map", file=sys.stderr)
    return len(differing)


def derived_ratios(workloads: Dict[str, Dict[str, object]]) -> Dict[str, Dict[str, object]]:
    """Ratios that take two workloads; every one is given with its base.

    Taken from the raw clock readings: ``ie_concurrent_map`` has no
    host-speed correction, and a ratio needs both sides on one scale.
    """

    def metric(workload: str, name: str) -> float:
        return workloads[workload]["raw"][name]

    cold = metric("rc_cold_map", "request_p50_s")
    return {
        "core.concurrent_over_serial": {
            "value": metric("ie_concurrent_map", "requests_per_s") / metric("ie_warm_map", "requests_per_s"),
            "unit": "ratio",
            "of": "raw requests_per_s: ie_concurrent_map / ie_warm_map",
        },
        "core.delta_over_cold": {
            "value": metric("rc_delta_map", "request_p50_s") / cold,
            "unit": "ratio",
            "of": "raw request_p50_s: rc_delta_map / rc_cold_map",
        },
        "core.warm_over_cold": {
            "value": workloads["rc_delta_map"]["info"]["warm_request_s"] / cold,
            "unit": "ratio",
            "of": "rc_delta_map's set-up warm request / rc_cold_map raw request_p50_s",
        },
    }


# -- expected digests ---------------------------------------------------


def write_expected(arguments: argparse.Namespace) -> int:
    from benchmarks.e2e.inputs import check_rc_text_parity
    from benchmarks.e2e.workloads import WORKLOADS

    parity = check_rc_text_parity(WORKLOADS["rc_cold_map"].factor, EXPECTED_SEED, 50_000)
    print(f"RC text vs generator (clauses, MAP cost): {parity}")
    if not parity["equal"]:
        return 1
    arguments.seed = EXPECTED_SEED
    arguments.seconds = 0.0
    arguments.expected = ""
    document: Dict[str, object] = {"rc_text_parity": parity}
    with Guard() as guard:
        for scale, ops in EXPECTED_OPS.items():
            arguments.smoke = scale == "smoke"
            arguments.ops = ops
            digests = {}
            for name in WORKLOADS:
                report = child_report(guard, name, arguments, 0)
                report_problems(name, report)
                if report["failed"]:
                    return 1
                by_seed = report["digests"]
                digests[name] = [by_seed[seed] for seed in sorted(by_seed, key=int)]
                print(f"{scale} {name}: {len(digests[name])} digests")
            document[scale] = {"seed": EXPECTED_SEED, "digests": digests}
    if guard.leftovers:
        print(f"LEFT BEHIND: {guard.leftovers}", file=sys.stderr)
        return 1
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        from benchmarks.e2e.compare import main as compare_main

        return compare_main(argv[1:])
    arguments = parse_arguments(argv)
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"benchmarks.e2e: no program to measure: {SOURCE}/repro is missing", file=sys.stderr)
        return 2
    if arguments.child:
        from benchmarks.e2e.child import main as child_main

        return child_main(arguments)
    if arguments.write_expected:
        return write_expected(arguments)
    if arguments.workload:
        return run_one(arguments)
    return run_set(arguments)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ChildFailed as error:
        print(f"benchmarks.e2e: {error}", file=sys.stderr)
        sys.exit(1)
