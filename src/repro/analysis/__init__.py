"""Static analysis for the determinism and backend-parity invariants.

Every result this reproduction reports is certified by bit-for-bit parity
suites: across the ``parallel_backend`` seam, between the search kernel's
two count-initialisation paths and its test-side seed kernel, and between
the relational engine and its test-side row oracle.  The invariants that
make that parity possible —
deterministic iteration order, sequential float accumulation, seed-derived
RNG streams, fork-safe shared-memory access, a pure observability layer —
are enforced here as purpose-built AST rules rather than left to review.

Run it as ``python -m repro.analysis src`` (wired into ``scripts/check.sh``
as a gating stage); see ``--list-rules`` for the rule families and
ROADMAP.md ("Static analysis") for how rules map to the invariant list.
"""

from repro.analysis.baseline import Baseline, BaselineEntry, BaselineMatch
from repro.analysis.framework import (
    AnalysisReport,
    Finding,
    Project,
    Rule,
    RULE_REGISTRY,
    SourceFile,
    Suppression,
    all_rules,
    register,
    run_analysis,
)

__all__ = [
    "AnalysisReport",
    "Baseline",
    "BaselineEntry",
    "BaselineMatch",
    "Finding",
    "Project",
    "RULE_REGISTRY",
    "Rule",
    "SourceFile",
    "Suppression",
    "all_rules",
    "register",
    "run_analysis",
]
