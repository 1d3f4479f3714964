"""Tests for the command-line interface."""

import dataclasses
import importlib
import io
import sys

import pytest
from row_oracle import ground_by_rows

from repro.cli import build_parser, main
from repro.core.config import InferenceConfig
from repro.parallel import processes_available

PROGRAM_TEXT = """
*wrote(author, paper)
cat(paper, category)
1 wrote(x, p1), wrote(x, p2), cat(p1, c) => cat(p2, c)
-1 cat(p, "Networking")
"""

EVIDENCE_TEXT = """
wrote(Joe, P1)
wrote(Joe, P2)
cat(P1, "DB")
"""


#: Two independent components, so ``auto`` with two workers forks a pool.
ISLANDS_TEXT = """
*link(node, node)
label(node)
2 link(a, b), label(a) => label(b)
-0.5 label(n)
"""

ISLANDS_EVIDENCE = """
link(A1, A2)
link(B1, B2)
label(A1)
"""


@pytest.fixture
def program_files(tmp_path):
    program = tmp_path / "prog.mln"
    evidence = tmp_path / "prog.db"
    program.write_text(PROGRAM_TEXT)
    evidence.write_text(EVIDENCE_TEXT)
    return str(program), str(evidence)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_dataset_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dataset", "UNKNOWN"])

    def test_execution_backend_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["dataset", "RC", "--execution-backend", "row"])
        assert exit_info.value.code == 2
        error = capsys.readouterr().err
        assert error.startswith("usage:")
        assert "unrecognized arguments: --execution-backend row" in error

    def test_kernel_backend_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["dataset", "RC", "--kernel-backend", "vectorized"])
        assert exit_info.value.code == 2
        error = capsys.readouterr().err
        assert error.startswith("usage:")
        assert "unrecognized arguments: --kernel-backend vectorized" in error

    def test_parallel_backend_choices(self):
        arguments = build_parser().parse_args(
            ["dataset", "IE", "--parallel-backend", "processes", "--workers", "4"]
        )
        assert arguments.parallel_backend == "processes"
        assert build_parser().parse_args(["dataset", "IE"]).parallel_backend == "auto"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dataset", "IE", "--parallel-backend", "cluster"])

    def test_every_backend_seam_reaches_the_engine(self, monkeypatch):
        # Derived from the config, so a new ``*_backend`` seam is covered
        # without editing this test: each one needs a ``--x-backend`` flag
        # whose every choice reaches InferenceConfig, and the engine must
        # hand that value to the seam's resolver (``resolve_x_backend`` in
        # ``repro.x``) and run on what the resolver returned.
        from repro.cli import _config_from_arguments
        from repro.core.engine import TuffyEngine
        from repro.core.program import MLNProgram

        names = [f.name for f in dataclasses.fields(InferenceConfig)]
        seams = [name for name in names if name.endswith("_backend")]
        assert seams, "InferenceConfig declares no *_backend seam"
        dataset = build_parser()._subparsers._group_actions[0].choices["dataset"]
        for name in seams:
            flag = "--" + name.replace("_", "-")
            assert flag in dataset._option_string_actions, f"no {flag} CLI flag"
            package = importlib.import_module("repro." + name[: -len("_backend")])
            resolver = getattr(package, "resolve_" + name)
            calls = []

            def spy(requested, *args, **kwargs):
                resolved = resolver(requested, *args, **kwargs)
                calls.append((requested, resolved))
                return resolved

            for module in list(sys.modules.values()):
                if getattr(module, "resolve_" + name, None) is resolver:
                    monkeypatch.setattr(module, "resolve_" + name, spy)
            for choice in dataset._option_string_actions[flag].choices:
                if choice == "processes" and not processes_available():
                    continue
                arguments = build_parser().parse_args(
                    ["dataset", "IE", flag, choice, "--workers", "2"]
                )
                config = _config_from_arguments(arguments)
                assert getattr(config, name) == choice, (name, choice)
                program = MLNProgram.from_text(ISLANDS_TEXT, ISLANDS_EVIDENCE)
                calls.clear()
                with TuffyEngine(
                    program, dataclasses.replace(config, max_flips=200, tracing="on")
                ) as engine:
                    engine.run_map()
                    ran = {
                        span.attributes["backend"]
                        for span in engine.tracer.spans()
                        if "backend" in span.attributes
                    }
                assert calls, (name, choice)
                assert {requested for requested, _ in calls} == {choice}, name
                assert ran and ran <= {resolved for _, resolved in calls}, (name, choice)

    def test_parallel_backend_threaded_into_config(self):
        from repro.cli import _config_from_arguments

        arguments = build_parser().parse_args(
            ["dataset", "IE", "--parallel-backend", "serial", "--workers", "3"]
        )
        config = _config_from_arguments(arguments)
        assert config.parallel_backend == "serial"
        assert config.workers == 3

    @pytest.mark.parametrize("backend", ("auto", "serial", "processes"))
    def test_each_parallel_backend_choice_reaches_config(self, backend):
        from repro.cli import _config_from_arguments

        arguments = build_parser().parse_args(
            ["dataset", "IE", "--parallel-backend", backend]
        )
        assert _config_from_arguments(arguments).parallel_backend == backend

    @pytest.mark.parametrize(
        "flags",
        (
            ["--parallel-backend", "threads"],
            ["--parallel-dispatch", "wave"],
        ),
    )
    def test_removed_parallel_options_are_usage_errors(self, flags, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["dataset", "IE", *flags])
        assert raised.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestBadInput:
    """Invalid input is one ``error:`` line on stderr and exit 2, no traceback."""

    @pytest.mark.parametrize(
        "flags, message",
        (
            (["--max-flips", "0"], "max_flips must be positive"),
            (["--workers", "0"], "workers must be positive"),
            (["--mcsat-samples", "0"], "mcsat_samples must be positive"),
        ),
    )
    def test_rejected_configuration(self, flags, message, capsys):
        status = main(["dataset", "RC", "--scale", "0.1", *flags], stream=io.StringIO())
        assert status == 2
        err = capsys.readouterr().err
        assert err == f"repro-tuffy: error: {message}\n"

    @pytest.mark.parametrize(
        "dataset, flags, message",
        (
            (
                "IE",
                ["--tracing", "off", "--trace-out", "unused-trace.json"],
                "trace_out needs tracing 'auto' or 'on'",
            ),
            (
                "ER",
                ["--no-partitioning", "--memory-budget-kb", "2"],
                "memory_budget_bytes needs use_partitioning",
            ),
        ),
    )
    def test_ignored_flag_combination_rejected(self, dataset, flags, message, capsys):
        output = io.StringIO()
        status = main(
            ["dataset", dataset, "--scale", "0.1", "--max-flips", "200", *flags],
            stream=output,
        )
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro-tuffy: error: {message}")
        assert err.count("\n") == 1
        assert "# atoms inferred true" not in output.getvalue()

    @pytest.mark.parametrize(
        "flags, message",
        (
            (["--max-flips", "0"], "max_flips must be positive"),
            (["--workers", "0"], "workers must be positive"),
            (["--mcsat-samples", "0"], "mcsat_samples must be positive"),
        ),
    )
    def test_rejected_configuration_on_infer(
        self, program_files, flags, message, capsys
    ):
        program, evidence = program_files
        status = main(
            ["infer", "-i", program, "-e", evidence, *flags], stream=io.StringIO()
        )
        assert status == 2
        assert capsys.readouterr().err == f"repro-tuffy: error: {message}\n"

    @pytest.mark.parametrize(
        "flags, message",
        (
            (["--max-flips", "-5"], "max_flips must be positive"),
            (["--workers", "-2"], "workers must be positive"),
            (["--mcsat-samples", "-1"], "mcsat_samples must be positive"),
            (["--memory-budget-kb", "-1"], "memory_budget_bytes must be positive when set"),
        ),
    )
    def test_negative_values_rejected(self, flags, message, capsys):
        status = main(["dataset", "RC", "--scale", "0.1", *flags], stream=io.StringIO())
        assert status == 2
        assert capsys.readouterr().err == f"repro-tuffy: error: {message}\n"

    @pytest.mark.parametrize(
        "flag, value, kind",
        (
            ("--scale", "0", "number"),
            ("--scale", "-1", "number"),
            ("--scale", "inf", "number"),
            ("--session-requests", "0", "integer"),
            ("--session-requests", "-2", "integer"),
            ("--session-concurrent", "0", "integer"),
            ("--session-concurrent", "two", "integer"),
        ),
    )
    def test_bad_counts_are_usage_errors(self, flag, value, kind, capsys):
        """Rejected by argparse, not silently clamped to 1."""
        output = io.StringIO()
        with pytest.raises(SystemExit) as raised:
            main(["dataset", "RC", "--scale", "0.1", flag, value], stream=output)
        assert raised.value.code == 2
        assert output.getvalue() == ""
        err = capsys.readouterr().err
        expected = f"argument {flag}: must be a positive {kind}, got {value!r}"
        assert err.endswith(f"repro-tuffy dataset: error: {expected}\n")
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ("ER", "IE", "LP", "RC"))
    def test_rejected_configuration_prints_nothing_on_stdout_for_any_dataset(
        self, name, capsys
    ):
        output = io.StringIO()
        status = main(["dataset", name, "--scale", "0.1", "--workers", "0"], stream=output)
        assert status == 2
        # The workload banner may print; no inference output follows it.
        assert "# atoms inferred true" not in output.getvalue()
        assert capsys.readouterr().err == "repro-tuffy: error: workers must be positive\n"

    @pytest.mark.parametrize(
        "program_text, fragment",
        (
            (
                "wrote(author, paper)\n1 wrote(x, p) =>\n",
                "unexpected end of rule",
            ),
            (
                "wrote(author, paper)\nwrote(x, p) => wrote(p, x)\n",
                "rule must either start with a weight",
            ),
            (
                "wrote(author, paper)\n1 wrote(x, p) @ wrote(p, x)\n",
                "unexpected character",
            ),
        ),
    )
    def test_malformed_program(self, tmp_path, program_text, fragment, capsys):
        program = tmp_path / "bad.mln"
        program.write_text(program_text)
        status = main(["infer", "-i", str(program)], stream=io.StringIO())
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-tuffy: error: line 2: ")
        assert fragment in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "evidence_text, fragment",
        (
            ("wrote(Joe)\n", "has 1 arguments, predicate wrote expects 2 (column 1)"),
            ("wrote Joe\n", "malformed evidence atom 'wrote Joe' (column 1)"),
            ("dog(Rex)\n", "unknown predicate 'dog' (column 1)"),
            ('wrote(Joe, "P1)\n', "malformed evidence atom"),
        ),
    )
    def test_malformed_evidence(self, tmp_path, evidence_text, fragment, capsys):
        program = tmp_path / "prog.mln"
        evidence = tmp_path / "prog.db"
        program.write_text("wrote(author, paper)\n1 wrote(x, p) => wrote(p, x)\n")
        evidence.write_text(evidence_text)
        status = main(
            ["infer", "-i", str(program), "-e", str(evidence)], stream=io.StringIO()
        )
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-tuffy: error: line 1: ")
        assert fragment in err
        assert err.count("\n") == 1

    def test_stats_on_malformed_program(self, tmp_path, capsys):
        program = tmp_path / "bad.mln"
        program.write_text("wrote(author, paper)\n1 wrote(x, p) =>\n")
        output = io.StringIO()
        status = main(["stats", "-i", str(program)], stream=output)
        assert status == 2
        assert output.getvalue() == ""
        err = capsys.readouterr().err
        assert err == "repro-tuffy: error: line 2: unexpected end of rule\n"

    def test_unknown_predicate_in_program(self, tmp_path, capsys):
        program = tmp_path / "bad.mln"
        program.write_text("wrote(author, paper)\n1 wrote(x, p) => cites(p, x)\n")
        status = main(["infer", "-i", str(program)], stream=io.StringIO())
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-tuffy: error: ")
        assert "cites" in err
        assert err.count("\n") == 1 and "Traceback" not in err


class TestStatsCommand:
    def test_prints_table1_fields(self, program_files):
        program, evidence = program_files
        output = io.StringIO()
        status = main(["stats", "-i", program, "-e", evidence], stream=output)
        assert status == 0
        text = output.getvalue()
        assert "#relations" in text and "#query atoms" in text


class TestInferCommand:
    def test_map_inference_matches_row_oracle_grounding(self, program_files, monkeypatch):
        program, evidence = program_files
        outputs = {}
        for grounding in ("columnar", "row"):
            if grounding == "row":
                ground_by_rows(monkeypatch)
            output = io.StringIO()
            status = main(
                ["infer", "-i", program, "-e", evidence, "--max-flips", "2000"],
                stream=output,
            )
            assert status == 0
            text = output.getvalue()
            atoms_section = text.split("\n#\n")[0]
            cost_lines = [line for line in text.splitlines() if "cost" in line]
            outputs[grounding] = (atoms_section, cost_lines)
        # Identical inferred atoms and cost; only wall-clock lines may differ.
        assert outputs["row"] == outputs["columnar"]

    def test_map_inference_on_forced_parallel_backends(self, program_files):
        from repro.parallel import processes_available

        program, evidence = program_files
        backends = ["serial"] + (
            ["processes"] if processes_available() else []
        )
        outputs = {}
        for backend in backends:
            output = io.StringIO()
            status = main(
                [
                    "infer", "-i", program, "-e", evidence,
                    "--max-flips", "2000",
                    "--workers", "2",
                    "--parallel-backend", backend,
                ],
                stream=output,
            )
            assert status == 0
            text = output.getvalue()
            atoms_section = text.split("\n#\n")[0]
            cost_lines = [line for line in text.splitlines() if "cost" in line]
            outputs[backend] = (atoms_section, cost_lines)
        # Identical inferred atoms and cost on every parallel backend.
        for backend in backends[1:]:
            assert outputs[backend] == outputs["serial"]

    def test_map_inference_prints_atoms_and_summary(self, program_files):
        program, evidence = program_files
        output = io.StringIO()
        status = main(
            ["infer", "-i", program, "-e", evidence, "--max-flips", "5000", "--seed", "1"],
            stream=output,
        )
        assert status == 0
        text = output.getvalue()
        assert "# atoms inferred true" in text
        assert "cat(P2, DB)" in text
        assert "cost" in text

    def test_predicate_filter(self, program_files):
        program, evidence = program_files
        output = io.StringIO()
        main(
            ["infer", "-i", program, "-e", evidence, "--max-flips", "2000", "--predicate", "cat"],
            stream=output,
        )
        for line in output.getvalue().splitlines():
            if line and not line.startswith("#") and "(" in line and ":" not in line:
                assert line.startswith("cat(")

    def test_marginal_inference(self, program_files):
        program, evidence = program_files
        output = io.StringIO()
        status = main(
            [
                "infer", "-i", program, "-e", evidence,
                "--marginal", "--mcsat-samples", "10",
            ],
            stream=output,
        )
        assert status == 0
        assert "# marginal probabilities" in output.getvalue()

    def test_marginal_inference_prints_the_seeded_marginals(self, program_files):
        program, evidence = program_files
        output = io.StringIO()
        status = main(
            [
                "infer", "-i", program, "-e", evidence,
                "--marginal", "--mcsat-samples", "12",
            ],
            stream=output,
        )
        assert status == 0
        # The probability lines of the seeded run; only the wall-clock
        # summary lines after them vary.
        assert output.getvalue().split("\n#\n")[0] == (
            "# marginal probabilities (P(atom) >= 0.01)\n"
            "0.250\tcat(P1, Networking)\n"
            "0.750\tcat(P2, DB)\n"
            "0.083\tcat(P2, Networking)"
        )


class TestDatasetCommand:
    def test_runs_builtin_dataset(self):
        output = io.StringIO()
        status = main(
            ["dataset", "RC", "--scale", "0.4", "--max-flips", "3000"], stream=output
        )
        assert status == 0
        text = output.getvalue()
        assert "workload: RC" in text
        assert "components" in text

    def test_baseline_comparison(self):
        output = io.StringIO()
        status = main(
            ["dataset", "IE", "--scale", "0.3", "--max-flips", "2000", "--baseline"],
            stream=output,
        )
        assert status == 0
        assert "# Alchemy-style baseline" in output.getvalue()

    def test_no_partitioning_and_memory_budget_flags(self):
        output = io.StringIO()
        status = main(
            [
                "dataset", "RC", "--scale", "0.3", "--max-flips", "2000",
                "--no-partitioning",
            ],
            stream=output,
        )
        assert status == 0
        output = io.StringIO()
        status = main(
            [
                "dataset", "ER", "--scale", "0.6", "--max-flips", "2000",
                "--memory-budget-kb", "16",
            ],
            stream=output,
        )
        assert status == 0


class TestObservabilityFlags:
    def test_trace_and_metrics_outputs(self, program_files, tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        program, evidence = program_files
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        output = io.StringIO()
        status = main(
            [
                "infer", "-i", program, "-e", evidence, "--max-flips", "500",
                "--trace-out", str(trace_path), "--metrics-out", str(metrics_path),
            ],
            stream=output,
        )
        assert status == 0
        text = output.getvalue()
        assert f"# trace written to {trace_path}" in text
        assert f"# metrics written to {metrics_path}" in text
        payload = json.loads(trace_path.read_text())
        assert validate_chrome_trace(payload) == []
        names = {event["name"] for event in payload["traceEvents"]}
        assert {"request", "setup", "search"} <= names
        metrics = json.loads(metrics_path.read_text())
        assert metrics["counters"]["session.requests"] == 1.0
        assert "io.page_reads" in metrics["gauges"]

    def test_tracing_off_with_trace_out_is_rejected(
        self, program_files, tmp_path, capsys
    ):
        # It used to print "# trace written" over a file of zero events.
        program, evidence = program_files
        trace_path = tmp_path / "trace.json"
        output = io.StringIO()
        status = main(
            [
                "infer", "-i", program, "-e", evidence, "--max-flips", "200",
                "--tracing", "off", "--trace-out", str(trace_path),
            ],
            stream=output,
        )
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-tuffy: error: trace_out needs tracing")
        assert err.count("\n") == 1
        assert not trace_path.exists()
        assert output.getvalue() == ""

    def test_concurrent_summary_prints_metrics_table(self):
        output = io.StringIO()
        status = main(
            [
                "dataset", "RC", "--scale", "0.2", "--max-flips", "500",
                "--session-requests", "3", "--session-concurrent", "3",
            ],
            stream=output,
        )
        assert status == 0
        text = output.getvalue()
        assert "# session (concurrent)" in text
        assert "result shipping" in text
        assert "steals" in text
        assert "# per-request" in text
        assert "ship(shm/pkl)" in text
        # One table row per admitted request, tagged by request id.
        for request_id in ("1", "2", "3"):
            assert any(
                line.split() and line.split()[0] == request_id
                for line in text.splitlines()
            ), request_id
