"""Purity of the observability layer (``repro.obs``).

Tracing and metrics must be *non-perturbing*: turning a tracer on cannot
change a single result bit.  The parity suite proves that dynamically;
``obs-purity`` enforces the static side of the contract — observability
code may observe, never act:

* no randomness: importing ``random`` / ``secrets`` or the repo's
  ``RandomSource`` from inside ``repro/obs`` means an exporter or tracer
  could consume RNG state the search depends on;
* no engine state: importing ``repro.core.engine`` would let obs code
  reach back into the layer it is supposed to watch (the dependency must
  point one way: engine → obs);
* no clock mutation: ``.advance(...)`` / ``.charge(...)`` calls are the
  simulated clock's write API — obs code reads the clock through a
  caller-supplied zero-argument callable and must never move it.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator

from repro.analysis.framework import Finding, Project, Rule, SourceFile, register

#: Modules observability code must never import (randomness and the
#: engine layer it observes).
_FORBIDDEN_IMPORTS = (
    "random",
    "secrets",
    "repro.utils.rng",
    "repro.core.engine",
)

#: Names whose import marks an RNG dependency regardless of module path.
_FORBIDDEN_NAMES = ("RandomSource",)

#: Attribute calls that mutate a simulated clock.
_CLOCK_MUTATORS = ("advance", "charge")


def _imported_module(node: ast.AST) -> Iterator[str]:
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.name
    elif isinstance(node, ast.ImportFrom) and node.module is not None:
        yield node.module


@register
class ObsPurityRule(Rule):
    """Observability code drawing randomness, touching engine state or
    advancing a clock."""

    id: ClassVar[str] = "obs-purity"
    family: ClassVar[str] = "observability"
    description: ClassVar[str] = (
        "repro/obs code must be purely observational: no random/secrets/"
        "RandomSource imports (tracing may never consume RNG state the "
        "search depends on), no repro.core.engine imports (the "
        "dependency points engine -> obs, never back), and no "
        ".advance()/.charge() calls (the simulated clock is read through "
        "a caller-supplied callable, never moved). Tracing on vs off must "
        "be bit-identical; this rule pins the static half of that "
        "contract."
    )

    def applies_to(self, source: SourceFile) -> bool:
        return source.in_directory("obs")

    def check(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        if source.tree is None:
            return
        for node in source.walk():
            for module in _imported_module(node):
                root = module.split(".")[0]
                if module in _FORBIDDEN_IMPORTS or root in ("random", "secrets"):
                    yield source.finding(
                        node,
                        self.id,
                        f"obs code imports {module!r}: observability must "
                        "not draw randomness or reach into the engine "
                        "layer it observes",
                    )
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name in _FORBIDDEN_NAMES:
                        yield source.finding(
                            node,
                            self.id,
                            f"obs code imports {alias.name}: tracers and "
                            "exporters must never hold an RNG",
                        )
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _CLOCK_MUTATORS
            ):
                yield source.finding(
                    node,
                    self.id,
                    f"obs code calls .{node.func.attr}(...): the simulated "
                    "clock is read-only from the observability layer "
                    "(use the injected zero-arg reader)",
                )
