"""The AST-walker framework behind the determinism & parity linter.

The analyzer turns the ROADMAP's "Invariants to preserve" list into
machine-checked rules over the source tree.  This module is the rule-agnostic
half: it loads every Python file under the scanned roots, parses it once,
indexes ``# repro: allow(<rule>): <justification>`` suppression comments, and
runs every registered :class:`Rule` against each :class:`SourceFile`.

Suppressions
------------
A finding is silenced by a comment on the same line, or by a standalone
comment on the line(s) immediately above the offending statement::

    atoms = list(component_atoms)  # repro: allow(det-set-iter): ids, sorted below

    # repro: allow(fork-module-state): per-process cache, never shared back
    _WORKER_CACHE.update(fresh)

Several rules may share one comment (``allow(rule-a, rule-b): why``).  The
justification text after the colon is *required*: a suppression without one
(or naming an unknown rule, or matching no finding) is itself reported under
the ``bad-suppression`` rule, so the escape hatch cannot silently rot.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Dict, Iterator, List, Optional, Sequence, Tuple, Type

#: Matches one suppression comment anywhere in a physical line.
SUPPRESSION_RE = re.compile(
    r"#\s*repro:\s*allow\(\s*(?P<rules>[A-Za-z0-9_\s,-]+?)\s*\)(?:\s*:\s*(?P<why>.*\S))?\s*$"
)

#: Rule id used for suppression-hygiene findings (always enforced).
BAD_SUPPRESSION = "bad-suppression"

#: Rule id used when a file cannot be parsed at all.
PARSE_ERROR = "parse-error"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    column: int
    message: str

    def key(self) -> Tuple[str, str, str]:
        """The location-independent identity used for baseline matching.

        Line/column are deliberately excluded so unrelated edits above a
        grandfathered finding do not invalidate the baseline.
        """
        return (self.rule, self.path, self.message)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.column}: [{self.rule}] {self.message}"

    def to_json(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
        }


@dataclass(frozen=True)
class Suppression:
    """One parsed ``# repro: allow(...)`` comment."""

    comment_line: int
    effective_line: int
    rules: Tuple[str, ...]
    justification: str


class SourceFile:
    """A parsed Python source file plus its suppression index."""

    def __init__(self, root: Path, path: Path) -> None:
        self.path = path
        self.rel_path = path.relative_to(root).as_posix()
        self.text = path.read_text(encoding="utf-8")
        self.lines: List[str] = self.text.splitlines()
        self.tree: Optional[ast.Module] = None
        self.parse_error: Optional[Finding] = None
        try:
            self.tree = ast.parse(self.text, filename=str(path))
        except SyntaxError as error:
            self.parse_error = Finding(
                rule=PARSE_ERROR,
                path=self.rel_path,
                line=error.lineno or 1,
                column=error.offset or 0,
                message=f"cannot parse file: {error.msg}",
            )
        self.suppressions: List[Suppression] = []
        self._suppressed_rules_by_line: Dict[int, List[Suppression]] = {}
        self._scan_suppressions()
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None

    # ------------------------------------------------------------------
    # Suppressions
    # ------------------------------------------------------------------

    def _scan_suppressions(self) -> None:
        """Index real ``# repro: allow(...)`` comments (tokenizer-accurate).

        Comments are extracted with :mod:`tokenize` rather than by line
        regex alone, so suppression examples inside docstrings and string
        literals are never mistaken for live suppressions.
        """
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(self.text).readline))
        except (tokenize.TokenError, IndentationError, SyntaxError):
            return
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = SUPPRESSION_RE.search(token.string)
            if match is None:
                continue
            rules = tuple(
                part.strip() for part in match.group("rules").split(",") if part.strip()
            )
            justification = (match.group("why") or "").strip()
            comment_line = token.start[0]
            line = self.lines[comment_line - 1] if comment_line <= len(self.lines) else ""
            if line[: token.start[1]].strip():
                effective_line = comment_line  # trailing comment
            else:
                effective_line = self._next_code_line(comment_line)
            suppression = Suppression(comment_line, effective_line, rules, justification)
            self.suppressions.append(suppression)
            self._suppressed_rules_by_line.setdefault(effective_line, []).append(suppression)

    def _next_code_line(self, start_index: int) -> int:
        """1-based line number of the next non-blank, non-comment line."""
        for index in range(start_index, len(self.lines)):
            stripped = self.lines[index].strip()
            if stripped and not stripped.startswith("#"):
                return index + 1
        return start_index  # dangling comment at EOF; hygiene will flag it

    def suppression_for(self, finding: Finding) -> Optional[Suppression]:
        for suppression in self._suppressed_rules_by_line.get(finding.line, []):
            if finding.rule in suppression.rules:
                return suppression
        return None

    # ------------------------------------------------------------------
    # AST helpers shared by rules
    # ------------------------------------------------------------------

    def parents(self) -> Dict[ast.AST, ast.AST]:
        """Child → parent map over the file's AST, built once on demand."""
        if self._parents is None:
            parents: Dict[ast.AST, ast.AST] = {}
            if self.tree is not None:
                for node in ast.walk(self.tree):
                    for child in ast.iter_child_nodes(node):
                        parents[child] = node
            self._parents = parents
        return self._parents

    def walk(self) -> Iterator[ast.AST]:
        if self.tree is None:
            return iter(())
        return ast.walk(self.tree)

    def segments(self) -> Tuple[str, ...]:
        """Path segments of the file relative to the scan root."""
        return tuple(self.rel_path.split("/"))

    def in_directory(self, *names: str) -> bool:
        """True when any parent directory (not the filename) matches a name."""
        return any(segment in names for segment in self.segments()[:-1])

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        column = getattr(node, "col_offset", 0)
        return Finding(rule=rule, path=self.rel_path, line=line, column=column, message=message)


class Project:
    """Every scanned source file, addressable by relative-path suffix."""

    def __init__(self, root: Path, files: Sequence[SourceFile]) -> None:
        self.root = root
        self.files: List[SourceFile] = list(files)

    def find(self, rel_suffix: str) -> Optional[SourceFile]:
        """The unique file whose relative path ends with the given suffix."""
        matches = [
            source
            for source in self.files
            if source.rel_path == rel_suffix or source.rel_path.endswith("/" + rel_suffix)
        ]
        if len(matches) == 1:
            return matches[0]
        return None


class Rule:
    """Base class of every analyzer rule.

    Subclasses set the class-level metadata and override :meth:`check`.
    Rules must be stateless: one instance is reused across all files.
    """

    id: ClassVar[str] = ""
    family: ClassVar[str] = ""
    description: ClassVar[str] = ""

    def applies_to(self, source: SourceFile) -> bool:
        return True

    def check(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        return iter(())


RULE_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_cls.id:
        raise ValueError(f"rule {rule_cls.__name__} has no id")
    if rule_cls.id in RULE_REGISTRY:
        raise ValueError(f"duplicate rule id {rule_cls.id!r}")
    RULE_REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


def all_rules() -> List[Rule]:
    """One instance of every registered rule, in id order."""
    import repro.analysis.rules  # noqa: F401  (registration side effect)

    return [RULE_REGISTRY[rule_id]() for rule_id in sorted(RULE_REGISTRY)]


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Every ``.py`` file under the given files/directories, sorted."""
    seen: Dict[Path, None] = {}
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            seen.setdefault(path.resolve())
        elif path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if "__pycache__" in candidate.parts:
                    continue
                seen.setdefault(candidate.resolve())
    return iter(seen)


@dataclass
class AnalysisReport:
    """The outcome of one analyzer run, before baseline filtering."""

    root: Path
    rule_ids: List[str]
    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    file_count: int = 0

    def sorted_findings(self) -> List[Finding]:
        return sorted(self.findings, key=lambda f: (f.path, f.line, f.rule, f.message))


def _scan_root(paths: Sequence[Path]) -> Path:
    """The directory relative paths are reported against.

    A single directory argument (the common case, ``python -m repro.analysis
    src``) anchors everything at that directory; otherwise the common parent
    of all arguments is used.
    """
    resolved = [path.resolve() for path in paths]
    if len(resolved) == 1 and resolved[0].is_dir():
        return resolved[0]
    candidates = [path if path.is_dir() else path.parent for path in resolved]
    common = candidates[0]
    for candidate in candidates[1:]:
        while not candidate.is_relative_to(common):
            common = common.parent
    return common


def run_analysis(
    paths: Sequence[Path],
    select: Optional[Sequence[str]] = None,
) -> AnalysisReport:
    """Run every (selected) rule over the given paths.

    Returns the raw report: genuine findings (with suppressed ones split
    out), plus suppression-hygiene findings.  Baseline filtering is layered
    on top by the CLI so programmatic callers see everything.
    """
    root = _scan_root(paths)
    sources = [SourceFile(root, path) for path in iter_python_files(paths)]
    project = Project(root, sources)

    rules = all_rules()
    if select is not None:
        wanted = set(select)
        unknown = wanted - set(RULE_REGISTRY)
        if unknown:
            raise ValueError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
        rules = [rule for rule in rules if rule.id in wanted]

    report = AnalysisReport(root=root, rule_ids=[rule.id for rule in rules])
    report.file_count = len(sources)

    raw: List[Finding] = []
    for source in sources:
        if source.parse_error is not None:
            raw.append(source.parse_error)
            continue
        for rule in rules:
            if rule.applies_to(source):
                raw.extend(rule.check(source, project))

    # Split suppressed findings out and track which suppressions fired.
    used: Dict[Tuple[str, int, int], None] = {}
    for finding in raw:
        source = project.find(finding.path)
        suppression = source.suppression_for(finding) if source is not None else None
        if suppression is not None:
            used.setdefault((finding.path, suppression.comment_line, id(suppression)))
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)

    report.findings.extend(
        _suppression_hygiene(project, used, full_rule_set=select is None)
    )
    report.findings = report.sorted_findings()
    return report


def _suppression_hygiene(
    project: Project,
    used: Dict[Tuple[str, int, int], None],
    full_rule_set: bool,
) -> Iterator[Finding]:
    """Findings for malformed, unknown-rule and unused suppressions.

    The unused-suppression check only runs when every rule was active
    (``--select`` would otherwise make valid suppressions look unused).
    """
    known = set(RULE_REGISTRY) | {BAD_SUPPRESSION, PARSE_ERROR}
    for source in project.files:
        for suppression in source.suppressions:
            where = Finding(
                rule=BAD_SUPPRESSION,
                path=source.rel_path,
                line=suppression.comment_line,
                column=0,
                message="",
            )
            if not suppression.justification:
                yield Finding(
                    rule=BAD_SUPPRESSION,
                    path=where.path,
                    line=where.line,
                    column=0,
                    message=(
                        "suppression is missing its justification; write "
                        "'# repro: allow(<rule>): <why this is safe>'"
                    ),
                )
                continue
            unknown = [rule for rule in suppression.rules if rule not in known]
            if unknown:
                yield Finding(
                    rule=BAD_SUPPRESSION,
                    path=where.path,
                    line=where.line,
                    column=0,
                    message=f"suppression names unknown rule(s): {', '.join(unknown)}",
                )
                continue
            key = (source.rel_path, suppression.comment_line, id(suppression))
            if full_rule_set and key not in used:
                yield Finding(
                    rule=BAD_SUPPRESSION,
                    path=where.path,
                    line=where.line,
                    column=0,
                    message=(
                        "unused suppression (no "
                        + ", ".join(suppression.rules)
                        + " finding on the suppressed line); delete it"
                    ),
                )
