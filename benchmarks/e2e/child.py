"""One workload, run in its own process: the measured run or the traced run.

``measured_run`` is what a user sees: set-up (several times, median
reported), a closed loop of operations for ``seconds`` with tracing off,
every result checked.  ``traced_run`` replays the first operations
untraced and then traced on fresh sessions, checks that the digests
agree, reads the program's span tree and registry, times the remaining
layer calls directly (:mod:`benchmarks.e2e.layers`) and writes the
stitched trace.  Either returns a JSON-ready report; the parent
(:mod:`benchmarks.e2e.__main__`) prints it.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import resource
import signal
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from benchmarks.e2e import RESULTS_DIR, layers
from benchmarks.e2e.hostspeed import host_factor
from benchmarks.e2e.spans import folded, stitch
from benchmarks.e2e.workloads import (
    WORKLOADS,
    WorkloadRun,
    oracle_problem,
    result_digest,
)

#: ``requests_per_s`` is the median rate of this many consecutive slices
#: of the measured phase: one stall of the host spoils one slice, not the run.
RATE_SLICES = 3
#: A session that keeps failing would otherwise spin through the phase.
MAX_FAILURES = 10


@dataclass
class OpRecord:
    index: int
    seed: int
    seconds: float = 0.0
    #: When the operation returned, on the phase's clock (result checks excluded).
    done: float = 0.0
    #: The host's slowness around the operation (:mod:`.hostspeed`); 1.0 =
    #: quiet, and always 1.0 with concurrent clients.
    host: float = 1.0
    digest: Optional[Dict[str, object]] = None
    problem: Optional[str] = None


def run_phase(
    run: WorkloadRun,
    seconds: float,
    ops: Optional[int],
    expected: Optional[List[Dict[str, object]]],
    min_ops: int = 3,
) -> Dict[str, object]:
    """Closed loop: each client sends its next operation when the last returns.

    Runs ``ops`` operations in all when given, else until ``seconds`` have
    gone by (and at least ``min_ops`` per client).  A single client times the
    host-speed kernel and checks each result between operations, off the
    clock; concurrent clients keep their results and the check follows the
    phase, so nothing competes with the other client's request for a core.
    """
    workload = run.workload
    clients = workload.clients
    inline = clients == 1
    lock = threading.Lock()
    records: List[OpRecord] = []
    held = {}
    state = {"next": 0, "failures": 0, "off_clock_seconds": 0.0, "stop": False}
    started = time.perf_counter()

    def finished() -> bool:
        if state["stop"] or state["failures"] >= MAX_FAILURES:
            return True
        if ops is not None:
            return state["next"] >= ops
        clocked = time.perf_counter() - started - state["off_clock_seconds"]
        return clocked >= seconds and state["next"] >= min_ops * clients

    def check(engine, result, record: OpRecord) -> None:
        record.digest = result_digest(result)
        record.problem = oracle_problem(
            engine, result, run.max_flips, run.mcsat_samples
        )
        if record.problem is None and expected and record.index < len(expected):
            if record.digest != expected[record.index]:
                record.problem = (
                    f"digest {record.digest} differs from expected.json "
                    f"{expected[record.index]}"
                )

    def client() -> None:
        if inline:
            off_clock = time.perf_counter()
            host_before = host_factor()
            state["off_clock_seconds"] += time.perf_counter() - off_clock
        while True:
            with lock:
                if finished():
                    return
                index = state["next"]
                state["next"] += 1
            record = OpRecord(index, run.request_seed(index))
            op_started = time.perf_counter()
            try:
                engine, result = run.operate(index)
            except Exception as error:  # a failed operation is a result, not a crash
                record.problem = f"raised {error!r}"
            returned = time.perf_counter()
            record.seconds = returned - op_started
            record.done = returned - started - state["off_clock_seconds"]
            if record.problem:
                with lock:
                    state["failures"] += 1
                    records.append(record)
                continue
            if inline:
                off_clock = time.perf_counter()
                host_after = host_factor()
                record.host = (host_before + host_after) / 2.0
                host_before = host_after
                check(engine, result, record)
                state["off_clock_seconds"] += time.perf_counter() - off_clock
            else:
                held[index] = (engine, result)
            with lock:
                records.append(record)

    threads = [threading.Thread(target=client, name=f"client-{i}") for i in range(clients)]
    for thread in threads:
        thread.start()
    try:
        for thread in threads:
            thread.join()
    finally:
        # On SIGTERM the join above raises: let each client finish the
        # operation it is in, and hand out no more, before engines close.
        state["stop"] = True
        for thread in threads:
            thread.join()
    wall = time.perf_counter() - started - state["off_clock_seconds"]
    records.sort(key=lambda record: record.index)
    for record in records:
        if record.index in held:
            check(*held.pop(record.index), record)
    return {"records": records, "wall": wall}


def replay_problems(run: WorkloadRun, records: List[OpRecord]) -> List[str]:
    """Re-execute the first operations; a seeded result must repeat.

    For the concurrent workload the replay is the plain blocking request,
    so this is also "interleaved == alone, seed for seed".
    """
    problems = []
    for record in records[: run.workload.replays]:
        if record.digest is None:
            continue
        if run.workload.kind == "concurrent":
            result = run.solo_request(record.index)
        else:
            _engine, result = run.operate(record.index)
        again = result_digest(result)
        if again != record.digest:
            problems.append(
                f"op {record.index} (seed {record.seed}) gave {record.digest}, "
                f"replayed {again}"
            )
    return problems


def sliced_rate(records: List[OpRecord], corrected: bool, slices: int = RATE_SLICES) -> float:
    """Operations completed per second: the median over consecutive slices.

    The operations, in the order they returned, are cut into ``slices``
    runs of (nearly) equal length; a slice lasts from the return that
    closed the previous one to its own last return.  ``corrected``: the
    time between two returns counts at the speed of a quiet host, i.e.
    divided by the host factor of the operation that returned.
    """
    ordered = sorted(records, key=lambda record: record.done)
    gaps = []
    previous = 0.0
    for record in ordered:
        gaps.append((record.done - previous) / (record.host if corrected else 1.0))
        previous = record.done
    slices = min(slices, len(gaps))
    bounds = [len(gaps) * number // slices for number in range(slices + 1)]
    return statistics.median(
        (last - first) / sum(gaps[first:last]) for first, last in zip(bounds, bounds[1:])
    )


def peak_rss_mb() -> float:
    """Max of this process's peak RSS and its reaped workers' (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, reaped) / 1024.0


def _percentile(values: List[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(int(share * len(ordered)), len(ordered) - 1)]


def _report(
    records: List[OpRecord], attempted: int, extra_problems: List[str]
) -> Dict[str, object]:
    problems = [
        f"op {record.index} (seed {record.seed}): {record.problem}"
        for record in records
        if record.problem
    ] + extra_problems
    return {
        "attempted": attempted,
        "failed": min(len(problems), attempted),
        "problems": problems[:20],
        "digests": {
            str(record.seed): record.digest for record in records if record.digest
        },
    }


def measured_run(
    name: str,
    seed: int,
    seconds: float,
    ops: Optional[int],
    smoke: bool,
    expected: Optional[List[Dict[str, object]]],
) -> Dict[str, object]:
    workload = WORKLOADS[name]
    setups: List[float] = []
    setup_hosts: List[float] = []
    run = None
    try:
        for repeat in range(1 if smoke else workload.setups):
            if run is not None:
                run.close()
            run = WorkloadRun(workload, seed, smoke, traced=False)
            host_before = host_factor()
            started = time.perf_counter()
            run.open()
            setups.append(time.perf_counter() - started)
            setup_hosts.append((host_before + host_factor()) / 2.0)
        phase = run_phase(run, seconds, ops, expected)
        records: List[OpRecord] = phase["records"]
        replays = replay_problems(run, records)
    finally:
        if run is not None:
            run.close()
    latencies = [record.seconds for record in records]
    attempted = len(records) + min(workload.replays, len(records))
    report = _report(records, attempted, replays)
    report["ops"] = len(records)
    # Timed metrics at the speed of a quiet host (see hostspeed.py) ...
    report["metrics"] = {
        "setup_s": statistics.median(
            seconds / host for seconds, host in zip(setups, setup_hosts)
        ),
        "request_p50_s": statistics.median(
            record.seconds / record.host for record in records
        ),
        "requests_per_s": sliced_rate(records, corrected=True),
        "peak_rss_mb": peak_rss_mb(),
    }
    report["info"] = {
        # ... and as the clock read them.
        "raw": {
            "setup_s": statistics.median(setups),
            "request_p50_s": statistics.median(latencies),
            "requests_per_s": sliced_rate(records, corrected=False),
        },
        "host_factor_p50": statistics.median(record.host for record in records),
        "request_p69_s": _percentile(latencies, 0.69),
        "whole_phase_requests_per_s": len(records) / phase["wall"],
        "setup_samples_s": setups,
        "warm_request_s": run.warmup_seconds[-1] if run.warmup_seconds else None,
        "latencies_s": latencies,
        "host_factors": [record.host for record in records],
    }
    return report


def traced_run(
    name: str,
    seed: int,
    seconds: float,
    ops: Optional[int],
    smoke: bool,
    expected: Optional[List[Dict[str, object]]],
) -> Dict[str, object]:
    workload = WORKLOADS[name]
    plain = WorkloadRun(workload, seed, smoke, traced=False)
    try:
        plain.open()
        plain_records = run_phase(plain, seconds / 4.0, ops, expected, min_ops=2)["records"]
    finally:
        plain.close()

    traced = WorkloadRun(workload, seed, smoke, traced=True)
    try:
        traced.open()
        traced_records = run_phase(traced, 0.0, len(plain_records), expected)["records"]
        spans = traced.spans.spans()
        for engine in traced.engines:
            seeds = {entry["request_id"]: entry["seed"] for entry in engine.request_log()}
            stitch(spans, engine.tracer, seeds)
        metrics = layers.per_layer_metrics(
            traced,
            spans,
            [record.seconds for record in plain_records],
            [record.seconds for record in traced_records],
        )
    finally:
        traced.close()

    by_seed = {record.seed: record.digest for record in plain_records}
    mismatches = [
        f"op {record.index} (seed {record.seed}): traced {record.digest}, "
        f"untraced {by_seed.get(record.seed)}"
        for record in traced_records
        if record.digest != by_seed.get(record.seed)
    ]
    both = plain_records + traced_records
    report = _report(both, len(both), mismatches)
    report["ops"] = len(traced_records)
    report["metrics"] = metrics
    os.makedirs(RESULTS_DIR, exist_ok=True)
    trace_path = os.path.join(RESULTS_DIR, f"trace-{name}.json")
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": name,
                "seed": seed,
                "clock": "time.perf_counter seconds, shared with worker processes",
                "spans": [span.as_dict() for span in folded(spans)],
            },
            handle,
        )
        handle.write("\n")
    report["info"] = {"trace": os.path.relpath(trace_path)}
    return report


def _raise_exit(signum, _frame) -> None:
    raise SystemExit(128 + signum)


def main(arguments) -> int:
    """Entry point of the child process; prints one JSON report line."""
    expected = None
    if arguments.expected:
        with open(arguments.expected, encoding="utf-8") as handle:
            recorded = json.load(handle)["smoke" if arguments.smoke else "full"]
        if arguments.seed == recorded["seed"]:
            expected = recorded["digests"][arguments.workload]
    runner = traced_run if arguments.trace else measured_run
    clients = WORKLOADS[arguments.workload].clients
    # SIGTERM from the parent unwinds through the ``finally`` blocks that
    # close every engine, so workers are joined and segments unlinked.
    signal.signal(signal.SIGTERM, _raise_exit)
    report = runner(
        arguments.workload,
        arguments.seed,
        arguments.seconds,
        None if arguments.ops is None else arguments.ops * clients,
        arguments.smoke,
        expected,
    )
    leftovers = multiprocessing.active_children()
    if leftovers:
        report["problems"].append(f"child processes still alive: {leftovers}")
        report["failed"] += 1
    print(json.dumps(report))
    return 0
