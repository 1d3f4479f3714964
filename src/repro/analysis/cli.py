"""Command-line entry point: ``python -m repro.analysis <paths>``.

Exit codes
----------
* ``0`` — clean: no findings (suppressions honoured).
* ``1`` — violations: findings, or malformed, unknown-rule or unused
  suppressions.
* ``2`` — usage errors (argparse, a missing path, an unknown rule id).

The one escape hatch is the inline ``# repro: allow(<rule>): <why>``
comment; every other finding fails the run.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.analysis.framework import all_rules, run_analysis


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

    if not arguments.quiet:
        for finding in report.findings:
            print(finding.render())

    print(
        f"repro.analysis: {report.file_count} files, "
        f"{len(report.rule_ids)} rules: "
        f"{len(report.findings)} finding(s), {len(report.suppressed)} suppressed"
    )
    return 1 if report.findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
