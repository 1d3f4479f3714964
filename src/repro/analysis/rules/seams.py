"""Seam-conformance rules: structural checks across the backend seams.

Unlike the per-file determinism rules, these inspect several files at once:
``seam-config-threading`` pins the configuration seams — every
``*_backend`` option declared on :class:`InferenceConfig`
(``core/config.py``) must be exposed as a CLI flag, forwarded into the
config construction in ``cli.py``, and actually read by
``core/engine.py`` — a backend knob that silently stops being threaded
through any of those layers is a parity bug waiting for a workload.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator, List, Optional, Set, Tuple

from repro.analysis.framework import Finding, Project, Rule, SourceFile, register


def _find_class(source: Optional[SourceFile], name: str) -> Optional[ast.ClassDef]:
    if source is None or source.tree is None:
        return None
    for node in source.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


@register
class ConfigThreadingRule(Rule):
    """Every *_backend config option threaded CLI -> InferenceConfig -> engine."""

    id: ClassVar[str] = "seam-config-threading"
    family: ClassVar[str] = "seam-conformance"
    description: ClassVar[str] = (
        "each *_backend field of InferenceConfig (core/config.py) must be "
        "exposed as the matching --x-backend CLI flag, forwarded into the "
        "InferenceConfig(...) construction in cli.py, and read (config.x) "
        "by the engine side (core/engine.py or core/session.py, the "
        "per-request driver and the session that backs it), so every seam "
        "stays selectable end to end."
    )

    _CONFIG_FILE = "core/config.py"
    _CLI_FILE = "cli.py"
    #: The engine side of the seam: a backend read may live in the thin
    #: per-request driver or in the session that owns the long-lived state.
    _ENGINE_FILES: Tuple[str, ...] = ("core/engine.py", "core/session.py")

    def check_project(self, project: Project) -> Iterator[Finding]:
        config_source = project.find(self._CONFIG_FILE)
        config_class = _find_class(config_source, "InferenceConfig")
        if config_source is None or config_class is None:
            return
        fields = self._backend_fields(config_class)
        if not fields:
            return
        cli_source = project.find(self._CLI_FILE)
        engine_sources = [
            source
            for source in (project.find(path) for path in self._ENGINE_FILES)
            if source is not None
        ]
        cli_flags = _string_constants(cli_source)
        cli_config_kwargs = _call_keywords(cli_source, "InferenceConfig")
        engine_attrs: Set[str] = set()
        for source in engine_sources:
            engine_attrs |= _attribute_names(source)
        for name, node in fields:
            flag = "--" + name.replace("_", "-")
            if cli_source is not None:
                if flag not in cli_flags:
                    yield config_source.finding(
                        node, self.id,
                        f"config option '{name}' has no '{flag}' CLI flag in "
                        f"{cli_source.rel_path}",
                    )
                if name not in cli_config_kwargs:
                    yield config_source.finding(
                        node, self.id,
                        f"config option '{name}' is not forwarded into "
                        f"InferenceConfig(...) by {cli_source.rel_path}",
                    )
            if engine_sources and name not in engine_attrs:
                reader_names = " or ".join(
                    source.rel_path for source in engine_sources
                )
                yield config_source.finding(
                    node, self.id,
                    f"config option '{name}' is never read by "
                    f"{reader_names}; the seam is not wired into the "
                    "engine",
                )

    def _backend_fields(
        self, config_class: ast.ClassDef
    ) -> List[Tuple[str, ast.AST]]:
        fields: List[Tuple[str, ast.AST]] = []
        for node in config_class.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if node.target.id.endswith("_backend"):
                    fields.append((node.target.id, node))
        return fields


def _string_constants(source: Optional[SourceFile]) -> Set[str]:
    constants: Set[str] = set()
    if source is None:
        return constants
    for node in source.walk():
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            constants.add(node.value)
    return constants


def _call_keywords(source: Optional[SourceFile], callee: str) -> Set[str]:
    """Keyword-argument names of every call to the given callee name."""
    keywords: Set[str] = set()
    if source is None:
        return keywords
    for node in source.walk():
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == callee:
                for keyword in node.keywords:
                    if keyword.arg is not None:
                        keywords.add(keyword.arg)
    return keywords


def _attribute_names(source: Optional[SourceFile]) -> Set[str]:
    attributes: Set[str] = set()
    if source is None:
        return attributes
    for node in source.walk():
        if isinstance(node, ast.Attribute):
            attributes.add(node.attr)
    return attributes


__all__ = ["ConfigThreadingRule"]
