"""Command-line entry point: ``python -m repro.analysis <paths>``.

Exit codes
----------
* ``0`` — clean: no findings beyond the baseline (suppressions honoured).
* ``1`` — violations: new findings, malformed suppressions, or an
  unreadable baseline.
* ``2`` — usage errors (argparse).

The default baseline is ``analysis_baseline.json`` next to the scanned
root (i.e. the repository root when scanning ``src``); pass ``--baseline``
to point elsewhere or ``--no-baseline`` to see every finding.
``--json-out`` records the findings in the same machine-readable document
shape the benchmarks use (``{"benchmark", "metadata", "rows"}`` — see
``benchmarks/results/README.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.analysis.baseline import Baseline, BaselineMatch
from repro.analysis.framework import AnalysisReport, all_rules, run_analysis

#: File name of the default baseline, resolved next to the scan root.
DEFAULT_BASELINE_NAME = "analysis_baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Determinism & parity linter: AST-based invariant checks over the "
            "search kernel and the parallel backend seam (see ROADMAP.md, "
            "'Invariants to preserve')."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to scan (default: src)",
    )
    parser.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help=f"baseline file (default: {DEFAULT_BASELINE_NAME} beside the scan root)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file; report every finding",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="write the current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--json-out", default=None, metavar="PATH",
        help="also write machine-readable findings JSON to this path",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list every registered rule and exit",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="print only the summary line",
    )
    return parser


def _list_rules() -> int:
    by_family: Dict[str, List[str]] = {}
    for rule in all_rules():
        line = f"  {rule.id:<22} {rule.description}"
        by_family.setdefault(rule.family, []).append(line)
    for family in sorted(by_family):
        print(f"{family}:")
        for line in by_family[family]:
            print(line)
    print(
        "\nSuppress a finding with '# repro: allow(<rule>): <justification>' "
        "on (or directly above) the offending line; the justification is "
        "required."
    )
    return 0


def _resolve_baseline_path(
    arguments: argparse.Namespace, report: AnalysisReport
) -> Optional[Path]:
    if arguments.no_baseline:
        return None
    if arguments.baseline is not None:
        return Path(arguments.baseline)
    candidate = report.root.parent / DEFAULT_BASELINE_NAME
    if candidate.exists() or arguments.update_baseline:
        return candidate
    return None


def _write_json(
    path: Path,
    report: AnalysisReport,
    match: BaselineMatch,
    baseline_path: Optional[Path],
) -> None:
    document = {
        "benchmark": "analysis",
        "metadata": {
            "root": str(report.root),
            "rules": report.rule_ids,
            "baseline": str(baseline_path) if baseline_path is not None else None,
            "files_scanned": report.file_count,
            "counts": {
                "new": len(match.new),
                "baselined": len(match.baselined),
                "suppressed": len(report.suppressed),
                "stale_baseline_entries": len(match.stale),
            },
        },
        "rows": [finding.to_json() for finding in match.new],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"[json] wrote {path}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    arguments = parser.parse_args(argv)
    if arguments.list_rules:
        return _list_rules()

    select = None
    if arguments.select is not None:
        select = [part.strip() for part in arguments.select.split(",") if part.strip()]

    paths = [Path(path) for path in arguments.paths]
    missing = [str(path) for path in paths if not path.exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2

    try:
        report = run_analysis(paths, select=select)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    baseline_path = _resolve_baseline_path(arguments, report)

    if arguments.update_baseline:
        if baseline_path is None:  # pragma: no cover - argparse default guards this
            print("error: --update-baseline needs a baseline path", file=sys.stderr)
            return 2
        baseline = Baseline.from_findings(
            report.findings,
            justification="grandfathered by --update-baseline; review and justify",
        )
        baseline.save(baseline_path)
        print(
            f"wrote {len(baseline.entries)} baseline entr"
            f"{'y' if len(baseline.entries) == 1 else 'ies'} to {baseline_path}"
        )
        return 0

    match = BaselineMatch(new=list(report.findings))
    if baseline_path is not None:
        try:
            baseline = Baseline.load(baseline_path)
        except (OSError, ValueError, KeyError) as error:
            print(f"error: cannot load baseline: {error}", file=sys.stderr)
            return 1
        match = baseline.apply(report.findings)

    if not arguments.quiet:
        for finding in match.new:
            print(finding.render())
        for entry in match.stale:
            print(
                f"warning: stale baseline entry [{entry.rule}] {entry.path}: "
                f"{entry.message!r} no longer matches; remove it"
            )

    if arguments.json_out is not None:
        _write_json(Path(arguments.json_out), report, match, baseline_path)

    print(
        f"repro.analysis: {report.file_count} files, "
        f"{len(report.rule_ids)} rules: "
        f"{len(match.new)} new finding(s), {len(match.baselined)} baselined, "
        f"{len(report.suppressed)} suppressed, {len(match.stale)} stale "
        "baseline entr" + ("y" if len(match.stale) == 1 else "ies")
    )
    return 1 if match.new else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
