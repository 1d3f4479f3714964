"""Regression gate: the repository's own ``src`` tree stays analyzer-clean.

This is the same check ``scripts/check.sh`` runs, expressed as a test so the
tier-1 suite fails the moment a change introduces a new determinism,
fork-safety or observability-purity violation (or lets an inline suppression
rot).
"""

from pathlib import Path

from repro.analysis.cli import main
from repro.analysis.framework import run_analysis

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


class TestLiveTree:
    def test_src_is_clean(self, capsys) -> None:
        exit_code = main([str(SRC)])
        output = capsys.readouterr().out
        assert exit_code == 0, f"analyzer found violations:\n{output}"

    def test_every_live_suppression_is_used(self) -> None:
        # bad-suppression covers unused, unknown-rule and unjustified
        # suppressions, so a clean run proves hygiene.
        report = run_analysis([SRC])
        hygiene = [f for f in report.findings if f.rule == "bad-suppression"]
        assert hygiene == [], [f.render() for f in hygiene]

    def test_all_ten_rules_are_registered(self) -> None:
        report = run_analysis([SRC], select=None)
        assert report.rule_ids == sorted(report.rule_ids)
        assert set(report.rule_ids) == {
            "det-set-iter", "det-float-sum", "det-raw-random", "det-wallclock",
            "det-id-hash-order", "fork-module-state", "fork-pool-lifecycle",
            "fork-shm-publish", "fork-task-closure", "obs-purity",
        }
