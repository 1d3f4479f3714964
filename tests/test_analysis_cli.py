"""End-to-end tests for ``python -m repro.analysis``: exit codes, rule
listing and the quiet summary.  The inline suppression is the one escape
hatch; a baseline file beside the scan root is not read."""

import json
from pathlib import Path
from textwrap import dedent
from typing import Dict, List

import pytest

from repro.analysis.cli import build_parser, main
from repro.analysis.framework import run_analysis

CLEAN = """\
    def f(xs):
        return sorted(set(xs))
    """

VIOLATING = """\
    def f(xs):
        return list(set(xs))
    """


def write_tree(root: Path, files: Dict[str, str]) -> Path:
    for rel, code in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(dedent(code), encoding="utf-8")
    return root


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path: Path, capsys) -> None:
        root = write_tree(tmp_path / "src", {"mod.py": CLEAN})
        assert main([str(root)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_violations_exit_one(self, tmp_path: Path, capsys) -> None:
        root = write_tree(tmp_path / "src", {"mod.py": VIOLATING})
        # A baseline file that lists the finding grandfathers nothing: only
        # an inline suppression silences a finding.
        (finding,) = run_analysis([root]).findings
        listed = {"rule": finding.rule, "path": finding.path, "message": finding.message,
                  "count": 1, "justification": "reviewed"}
        (tmp_path / "analysis_baseline.json").write_text(
            json.dumps({"version": 1, "findings": [listed]}), encoding="utf-8"
        )
        assert main([str(root)]) == 1
        out = capsys.readouterr().out
        assert "[det-set-iter]" in out and "mod.py:2" in out

    def test_missing_path_exits_two(self, tmp_path: Path, capsys) -> None:
        assert main([str(tmp_path / "nope")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_unknown_select_rule_exits_two(self, tmp_path: Path, capsys) -> None:
        root = write_tree(tmp_path / "src", {"mod.py": CLEAN})
        assert main([str(root), "--select", "not-a-rule"]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_list_rules(self, capsys) -> None:
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "det-set-iter" in out and "obs-purity" in out
        assert "repro: allow(" in out


class TestQuiet:
    def test_quiet_prints_only_summary(self, tmp_path: Path, capsys) -> None:
        root = write_tree(tmp_path / "src", {"mod.py": VIOLATING})
        assert main([str(root), "-q"]) == 1
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1 and out[0].startswith("repro.analysis:")


class TestSummary:
    def test_suppressed_finding_is_counted_and_the_run_is_clean(
        self, tmp_path: Path, capsys
    ) -> None:
        root = write_tree(tmp_path / "src", {"mod.py": """\
            def f(xs):
                return list(set(xs))  # repro: allow(det-set-iter): sorted by caller
            """})
        assert main([str(root)]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s), 1 suppressed" in out
        assert "[det-set-iter]" not in out

    def test_bad_suppression_alone_exits_one(self, tmp_path: Path, capsys) -> None:
        root = write_tree(tmp_path / "src", {"mod.py": """\
            def f(xs):
                return sorted(xs)  # repro: allow(det-set-iter): stale comment
            """})
        assert main([str(root)]) == 1
        assert "[bad-suppression]" in capsys.readouterr().out

    def test_unparseable_file_exits_one(self, tmp_path: Path, capsys) -> None:
        root = write_tree(tmp_path / "src", {"mod.py": "def broken(:\n"})
        assert main([str(root)]) == 1
        assert "[parse-error]" in capsys.readouterr().out

    def test_select_ignores_blank_entries(self, tmp_path: Path, capsys) -> None:
        root = write_tree(tmp_path / "src", {"mod.py": VIOLATING})
        assert main([str(root), "--select", " det-set-iter, ,"]) == 1
        assert "1 rules: 1 finding(s)" in capsys.readouterr().out

    def test_a_run_writes_no_file(self, tmp_path: Path, capsys) -> None:
        root = write_tree(tmp_path / "src", {"mod.py": VIOLATING, "ok.py": CLEAN})
        before = sorted(path for path in tmp_path.rglob("*"))
        assert main([str(root)]) == 1
        assert sorted(path for path in tmp_path.rglob("*")) == before


class TestOptions:
    def test_default_scan_path_is_src(self) -> None:
        assert build_parser().parse_args([]).paths == ["src"]

    @pytest.mark.parametrize(
        "retired",
        [
            ["--baseline", "analysis_baseline.json"],
            ["--no-baseline"],
            ["--update-baseline"],
            ["--json-out", "findings.json"],
        ],
        ids=["baseline", "no-baseline", "update-baseline", "json-out"],
    )
    def test_retired_flag_is_a_usage_error(
        self, tmp_path: Path, capsys, retired: List[str]
    ) -> None:
        root = write_tree(tmp_path / "src", {"mod.py": CLEAN})
        with pytest.raises(SystemExit) as exit_info:
            main([str(root), *retired])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["src"]
