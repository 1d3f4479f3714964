"""Regression gate: the repository's own ``src`` tree stays analyzer-clean.

This is the same check ``scripts/check.sh`` runs, expressed as a test so the
tier-1 suite fails the moment a change introduces a new determinism,
fork-safety or seam-conformance violation (or lets the checked-in baseline /
inline suppressions rot).
"""

import json
from pathlib import Path

from repro.analysis.baseline import Baseline
from repro.analysis.cli import main
from repro.analysis.framework import run_analysis

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
BASELINE = REPO_ROOT / "analysis_baseline.json"


class TestLiveTree:
    def test_src_is_clean_modulo_baseline(self, capsys) -> None:
        exit_code = main([str(SRC), "--baseline", str(BASELINE)])
        output = capsys.readouterr().out
        assert exit_code == 0, f"analyzer found new violations:\n{output}"

    def test_baseline_has_no_stale_entries(self) -> None:
        report = run_analysis([SRC])
        match = Baseline.load(BASELINE).apply(report.findings)
        stale = [entry.key() for entry in match.stale]
        assert stale == [], f"stale baseline entries (delete them): {stale}"

    def test_baseline_entries_are_all_justified(self) -> None:
        document = json.loads(BASELINE.read_text(encoding="utf-8"))
        assert document["version"] == 1
        for entry in document["findings"]:
            assert entry["justification"].strip(), entry

    def test_every_live_suppression_is_used(self) -> None:
        # bad-suppression (which covers unused/unknown/unjustified
        # suppressions) is never baselined, so a clean run proves hygiene.
        report = run_analysis([SRC])
        hygiene = [f for f in report.findings if f.rule == "bad-suppression"]
        assert hygiene == [], [f.render() for f in hygiene]

    def test_all_twelve_rules_are_registered(self) -> None:
        report = run_analysis([SRC], select=None)
        assert report.rule_ids == sorted(report.rule_ids)
        assert set(report.rule_ids) == {
            "det-set-iter", "det-float-sum", "det-raw-random", "det-wallclock",
            "det-id-hash-order", "fork-module-state", "fork-pool-lifecycle",
            "fork-shm-publish", "fork-task-closure", "obs-purity",
            "req-state-isolation", "seam-config-threading",
        }
