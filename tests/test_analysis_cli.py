"""End-to-end tests for ``python -m repro.analysis``: exit codes, baseline
resolution, ``--update-baseline`` and the machine-readable ``--json-out``
document (which mirrors the benchmark result shape)."""

import json
from pathlib import Path
from textwrap import dedent
from typing import Dict

from repro.analysis.cli import main

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
        assert "0 new finding(s)" in capsys.readouterr().out

    def test_violations_exit_one(self, tmp_path: Path, capsys) -> None:
        root = write_tree(tmp_path / "src", {"mod.py": VIOLATING})
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

    def test_unreadable_baseline_exits_one(self, tmp_path: Path, capsys) -> None:
        root = write_tree(tmp_path / "src", {"mod.py": CLEAN})
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert main([str(root), "--baseline", str(bad)]) == 1
        assert "cannot load baseline" in capsys.readouterr().err

    def test_list_rules(self, capsys) -> None:
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "det-set-iter" in out and "seam-config-threading" in out
        assert "repro: allow(" in out


class TestBaselineFlow:
    def test_update_baseline_then_clean_run(self, tmp_path: Path, capsys) -> None:
        root = write_tree(tmp_path / "src", {"mod.py": VIOLATING})
        baseline = tmp_path / "analysis_baseline.json"

        assert main([str(root), "--baseline", str(baseline), "--update-baseline"]) == 0
        assert baseline.exists()
        document = json.loads(baseline.read_text())
        assert document["version"] == 1 and len(document["findings"]) == 1

        capsys.readouterr()
        assert main([str(root), "--baseline", str(baseline)]) == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_default_baseline_found_beside_scan_root(self, tmp_path: Path) -> None:
        root = write_tree(tmp_path / "src", {"mod.py": VIOLATING})
        assert main([str(root), "--update-baseline"]) == 0
        assert (tmp_path / "analysis_baseline.json").exists()
        # No --baseline flag: the default is resolved next to the scan root.
        assert main([str(root)]) == 0

    def test_no_baseline_overrides_default(self, tmp_path: Path) -> None:
        root = write_tree(tmp_path / "src", {"mod.py": VIOLATING})
        assert main([str(root), "--update-baseline"]) == 0
        assert main([str(root), "--no-baseline"]) == 1

    def test_stale_entries_warn_but_do_not_fail(self, tmp_path: Path, capsys) -> None:
        root = write_tree(tmp_path / "src", {"mod.py": VIOLATING})
        baseline = tmp_path / "b.json"
        assert main([str(root), "--baseline", str(baseline), "--update-baseline"]) == 0
        (root / "mod.py").write_text(dedent(CLEAN), encoding="utf-8")
        capsys.readouterr()
        assert main([str(root), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "stale baseline entry" in out and "1 stale" in out


class TestJsonOut:
    def test_document_shape_matches_benchmark_convention(self, tmp_path: Path) -> None:
        root = write_tree(tmp_path / "src", {"mod.py": VIOLATING})
        out_path = tmp_path / "results" / "ANALYSIS_findings.json"
        assert main([str(root), "--no-baseline", "--json-out", str(out_path)]) == 1

        document = json.loads(out_path.read_text())
        assert set(document) == {"benchmark", "metadata", "rows"}
        assert document["benchmark"] == "analysis"
        metadata = document["metadata"]
        assert metadata["files_scanned"] == 1
        assert metadata["baseline"] is None
        assert metadata["counts"]["new"] == 1
        assert "det-set-iter" in metadata["rules"]
        (row,) = document["rows"]
        assert set(row) == {"rule", "path", "line", "column", "message"}
        assert row["rule"] == "det-set-iter" and row["path"] == "mod.py"

    def test_clean_run_writes_empty_rows(self, tmp_path: Path) -> None:
        root = write_tree(tmp_path / "src", {"mod.py": CLEAN})
        out_path = tmp_path / "out.json"
        assert main([str(root), "--no-baseline", "--json-out", str(out_path)]) == 0
        assert json.loads(out_path.read_text())["rows"] == []


class TestQuiet:
    def test_quiet_prints_only_summary(self, tmp_path: Path, capsys) -> None:
        root = write_tree(tmp_path / "src", {"mod.py": VIOLATING})
        assert main([str(root), "-q"]) == 1
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1 and out[0].startswith("repro.analysis:")
