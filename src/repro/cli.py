"""Command-line interface.

Three subcommands mirror how the original Tuffy binary was used:

``repro-tuffy infer -i prog.mln -e evidence.db``
    Run MAP (or, with ``--marginal``, MC-SAT marginal) inference on a
    program and evidence file written in the Alchemy-style syntax, printing
    the inferred atoms (or marginal probabilities).

``repro-tuffy dataset RC``
    Generate one of the built-in benchmark workloads (LP, IE, RC, ER) and
    run inference on it, printing the run summary.

``repro-tuffy stats -i prog.mln -e evidence.db``
    Print the Table-1 style statistics of a program without running
    inference.

The CLI is a thin shell around :class:`repro.core.TuffyEngine`; everything
it does is available programmatically.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

from repro.baselines import AlchemyEngine
from repro.core import InferenceConfig, MLNProgram, ReproError, TuffyEngine
from repro.datasets import DATASET_NAMES, DatasetScale, load_dataset
from repro.logic.parser import MLNSyntaxError
from repro.obs import write_chrome_trace, write_metrics
from repro.utils.timer import Stopwatch


def _positive(convert, kind: str):
    """An argparse ``type`` accepting only finite values above zero."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = 0
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be a positive {kind}, got {text!r}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-tuffy",
        description="MAP and marginal inference in Markov Logic Networks (Tuffy reproduction).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    infer = subparsers.add_parser("infer", help="run inference on a program/evidence file pair")
    _add_program_arguments(infer)
    _add_inference_arguments(infer)
    infer.add_argument(
        "--predicate",
        default=None,
        help="only print atoms of this predicate (default: all query predicates)",
    )

    dataset = subparsers.add_parser("dataset", help="run inference on a built-in benchmark workload")
    dataset.add_argument("name", choices=sorted(DATASET_NAMES), help="workload name")
    dataset.add_argument(
        "--scale", type=_positive(float, "number"), default=1.0, help="generator scale factor"
    )
    _add_inference_arguments(dataset)
    dataset.add_argument(
        "--baseline",
        action="store_true",
        help="also run the Alchemy-style baseline and print the comparison",
    )

    stats = subparsers.add_parser("stats", help="print dataset statistics of a program")
    _add_program_arguments(stats)
    return parser


def _add_program_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-i", "--program", required=True, help="path to the .mln program file")
    parser.add_argument("-e", "--evidence", default=None, help="path to the .db evidence file")


def _add_inference_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--max-flips", type=int, default=100_000, help="total WalkSAT flip budget")
    parser.add_argument("--workers", type=int, default=1, help="parallel component searches")
    parser.add_argument(
        "--parallel-backend",
        choices=("auto", "serial", "processes"),
        default="auto",
        help="how per-component searches run (auto engages the shared-memory "
        "multiprocess pool when workers > 1 and the MRF has several "
        "components; results are bit-identical across backends)",
    )
    parser.add_argument(
        "--no-partitioning",
        action="store_true",
        help="disable component-aware search (the paper's Tuffy-p mode)",
    )
    parser.add_argument(
        "--memory-budget-kb",
        type=int,
        default=None,
        help="memory budget in KB; components larger than this are split (Algorithm 3)",
    )
    parser.add_argument(
        "--marginal",
        action="store_true",
        help="run MC-SAT marginal inference instead of MAP",
    )
    parser.add_argument("--mcsat-samples", type=int, default=100, help="MC-SAT sample count")
    parser.add_argument(
        "--session-requests",
        type=_positive(int, "integer"),
        default=1,
        metavar="N",
        help="repeat the inference request N times on one warm engine "
        "session (grounding, MRF, components and the worker pool are "
        "reused; every request uses the same seed, so all N results are "
        "bit-identical) and print per-request timings plus requests/sec",
    )
    parser.add_argument(
        "--max-inflight-requests",
        type=_positive(int, "integer"),
        default=1,
        metavar="N",
        help="session admission width: how many submitted requests may be "
        "in flight at once (every result is bit-identical whether the "
        "request runs alone or interleaved)",
    )
    parser.add_argument(
        "--session-concurrent",
        type=_positive(int, "integer"),
        default=1,
        metavar="N",
        help="submit the --session-requests requests through the session's "
        "admission queue with N in flight at a time (implies "
        "--max-inflight-requests N) and print a metrics summary table "
        "instead of per-request timings",
    )
    parser.add_argument(
        "--tracing",
        choices=("auto", "on", "off"),
        default="auto",
        help="span tracing mode (auto records iff --trace-out is given; "
        "tracing is non-perturbing — results are bit-identical on or off)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the recorded span tree as Chrome trace-event JSON "
        "(open in Perfetto or chrome://tracing)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="dump the session metrics registry (JSON when PATH ends in "
        ".json, text otherwise)",
    )


def _config_from_arguments(arguments: argparse.Namespace) -> InferenceConfig:
    return InferenceConfig(
        seed=arguments.seed,
        max_flips=arguments.max_flips,
        workers=arguments.workers,
        parallel_backend=arguments.parallel_backend,
        use_partitioning=not arguments.no_partitioning,
        memory_budget_bytes=(
            arguments.memory_budget_kb * 1024 if arguments.memory_budget_kb else None
        ),
        mcsat_samples=arguments.mcsat_samples,
        max_inflight_requests=max(
            arguments.max_inflight_requests, arguments.session_concurrent
        ),
        tracing=getattr(arguments, "tracing", "auto"),
        trace_out=getattr(arguments, "trace_out", None),
        metrics_out=getattr(arguments, "metrics_out", None),
    )


def _load_program(arguments: argparse.Namespace) -> MLNProgram:
    with open(arguments.program, encoding="utf-8") as handle:
        program_text = handle.read()
    evidence_text = ""
    if arguments.evidence:
        with open(arguments.evidence, encoding="utf-8") as handle:
            evidence_text = handle.read()
    return MLNProgram.from_text(program_text, evidence_text)


def _print_summary(result, stream) -> None:
    for key, value in result.summary().items():
        print(f"{key:>20}: {value}", file=stream)


def _run_inference(program: MLNProgram, arguments: argparse.Namespace, stream) -> int:
    requests = arguments.session_requests
    concurrent = arguments.session_concurrent
    with TuffyEngine(program, _config_from_arguments(arguments)) as engine:
        request_seconds = []
        batch_seconds = None
        if concurrent > 1:
            # Admit every request through the session's queue with
            # ``concurrent`` in flight; all results are bit-identical (same
            # seed), so printing the last one is printing all of them.
            watch = Stopwatch()
            with watch.measure():
                submit = engine.submit_marginal if arguments.marginal else engine.submit_map
                futures = [submit() for _request in range(requests)]
                result = [future.result() for future in futures][-1]
            batch_seconds = watch.total
        else:
            for _request in range(requests):
                watch = Stopwatch()
                with watch.measure():
                    if arguments.marginal:
                        result = engine.run_marginal()
                    else:
                        result = engine.run_map()
                request_seconds.append(watch.total)
        if arguments.marginal:
            print("# marginal probabilities (P(atom) >= 0.01)", file=stream)
            atoms = engine.grounding_result.atoms
            for atom_id, probability in sorted(result.marginals.probabilities.items()):
                if probability >= 0.01:
                    print(f"{probability:.3f}\t{atoms.record(atom_id).atom}", file=stream)
        else:
            predicate = getattr(arguments, "predicate", None)
            print("# atoms inferred true", file=stream)
            for atom in result.true_atoms(predicate):
                print(atom, file=stream)
        print("#", file=stream)
        _print_summary(result, stream)
        if batch_seconds is not None:
            _print_concurrent_summary(
                engine, requests, concurrent, batch_seconds, stream
            )
        elif requests > 1:
            _print_session_summary(engine, request_seconds, stream)
        trace_out = getattr(arguments, "trace_out", None)
        if trace_out:
            write_chrome_trace(engine.tracer, trace_out)
            print(f"# trace written to {trace_out}", file=stream)
        metrics_out = getattr(arguments, "metrics_out", None)
        if metrics_out:
            write_metrics(engine.metrics_snapshot(), metrics_out)
            print(f"# metrics written to {metrics_out}", file=stream)
    return 0


def _print_session_summary(engine: TuffyEngine, request_seconds, stream) -> None:
    """Per-request timings of a ``--session-requests`` repeat run."""
    print("# session", file=stream)
    for index, seconds in enumerate(request_seconds):
        label = "cold" if index == 0 else "warm"
        print(f"{f'request {index} ({label})':>20}: {seconds:.4f}s", file=stream)
    warm = request_seconds[1:]
    if warm and sum(warm) > 0:
        print(f"{'warm requests/sec':>20}: {len(warm) / sum(warm):.2f}", file=stream)
    stats = engine.stats
    print(f"{'ground runs':>20}: {stats.ground_runs}", file=stream)
    print(f"{'pool launches':>20}: {stats.pool_launches}", file=stream)


def _print_concurrent_summary(
    engine: TuffyEngine, requests: int, concurrent: int, batch_seconds, stream
) -> None:
    """Metrics-registry summary of a ``--session-concurrent`` batch run.

    Aggregate throughput first, then the registry's shipping/steal
    counters, then one table row per finished request (phase seconds,
    result-shipping split, steals) from the session's request log.
    """
    print("# session (concurrent)", file=stream)
    print(f"{'requests':>20}: {requests}", file=stream)
    print(f"{'in-flight':>20}: {concurrent}", file=stream)
    print(f"{'batch wall':>20}: {batch_seconds:.4f}s", file=stream)
    if batch_seconds > 0:
        print(
            f"{'aggregate req/sec':>20}: {requests / batch_seconds:.2f}", file=stream
        )
    metrics = engine.metrics_snapshot()
    print(f"{'ground runs':>20}: {metrics.counter('session.ground_runs'):g}", file=stream)
    print(f"{'pool launches':>20}: {engine.stats.pool_launches}", file=stream)
    print(
        f"{'result shipping':>20}: "
        f"shm={metrics.counter('pool.shm_shipped'):g} "
        f"pickled={metrics.counter('pool.pickle_shipped'):g} "
        f"shm_bytes={metrics.counter('pool.shm_bytes'):g}",
        file=stream,
    )
    print(f"{'steals':>20}: {metrics.counter('scheduler.steals'):g}", file=stream)
    log = engine.request_log()
    if log:
        print("# per-request", file=stream)
        print(
            f"{'req':>4} {'kind':>8} {'cost':>12} {'ground':>9} {'load':>9} "
            f"{'search':>9} {'steals':>6} {'ship(shm/pkl)':>13}",
            file=stream,
        )
        for entry in log:
            phases = entry["phase_seconds"]
            ship = f"{entry['shm_shipped']}/{entry['pickle_shipped']}"
            print(
                f"{entry['request_id']:>4} {entry['kind']:>8} "
                f"{entry['cost']:>12.2f} "
                f"{phases.get('grounding', 0.0):>9.4f} "
                f"{phases.get('loading', 0.0):>9.4f} "
                f"{phases.get('search', 0.0):>9.4f} "
                f"{entry['steals']:>6} {ship:>13}",
                file=stream,
            )


def _command_infer(arguments: argparse.Namespace, stream) -> int:
    return _run_inference(_load_program(arguments), arguments, stream)


def _command_dataset(arguments: argparse.Namespace, stream) -> int:
    dataset = load_dataset(arguments.name, DatasetScale(factor=arguments.scale, seed=arguments.seed))
    print(f"# workload: {dataset.name} — {dataset.description}", file=stream)
    status = _run_inference(dataset.program, arguments, stream)
    if getattr(arguments, "baseline", False):
        baseline_dataset = load_dataset(
            arguments.name, DatasetScale(factor=arguments.scale, seed=arguments.seed)
        )
        baseline = AlchemyEngine(baseline_dataset.program, _config_from_arguments(arguments))
        result = baseline.run_map()
        print("# Alchemy-style baseline", file=stream)
        _print_summary(result, stream)
    return status


def _command_stats(arguments: argparse.Namespace, stream) -> int:
    program = _load_program(arguments)
    for key, value in program.statistics().as_dict().items():
        print(f"{key:>20}: {value}", file=stream)
    return 0


def main(argv: Optional[Sequence[str]] = None, stream=None) -> int:
    """CLI entry point; returns the process exit status.

    Invalid input — a rejected configuration or a malformed program — is
    reported like an argparse usage error: one ``repro-tuffy: error:``
    line on stderr and exit status 2, no traceback.
    """
    stream = stream or sys.stdout
    parser = build_parser()
    arguments = parser.parse_args(argv)
    handlers = {
        "infer": _command_infer,
        "dataset": _command_dataset,
        "stats": _command_stats,
    }
    try:
        return handlers[arguments.command](arguments, stream)
    except (ReproError, MLNSyntaxError) as error:
        print(f"{parser.prog}: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
