"""Seeded input builders for the end-to-end benchmark.

Every input is a pure function of ``(dataset, factor, seed)``: the seed is
the benchmark's ``--seed`` and feeds ``DatasetScale(seed=...)``, so the
program under test only ever sees generated inputs.

RC is handed to the program the way a command-line user hands it over: as
Alchemy ``.mln`` / ``.db`` text that :meth:`MLNProgram.from_text` parses.
The renderer below writes the evidence lines in an order that reproduces
the generator's domain order (papers cluster by cluster), so the parsed
program grounds to the same clauses as ``load_dataset("RC", ...)`` —
:func:`check_rc_text_parity` proves it.  LP and IE stay generator-built:
IE registers its query atoms explicitly, which the text syntax cannot say.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.config import InferenceConfig
from repro.core.engine import TuffyEngine
from repro.core.program import MLNProgram
from repro.datasets import DatasetScale, load_dataset
from repro.datasets.rc import RC_RULES

RC_DECLARATIONS = "*wrote(author, paper)\n*refers(paper, paper)\ncat(paper, category)\n"


@dataclass(frozen=True)
class TextInput:
    """An Alchemy-text program: what ``repro-tuffy infer -i X -e Y`` reads."""

    program_text: str
    evidence_text: str

    def parse(self) -> MLNProgram:
        return MLNProgram.from_text(self.program_text, self.evidence_text, name="RC")


def render_rc_text(factor: float, seed: int) -> TextInput:
    """Render the generated RC dataset as Alchemy program + evidence text."""
    program = load_dataset("RC", DatasetScale(factor=factor, seed=seed)).program
    lines = []
    for fact in program.evidence:
        atom = fact.atom
        arguments = list(atom.argument_values())
        if atom.predicate.name == "cat":
            arguments[1] = f'"{arguments[1]}"'
        sign = "" if fact.truth else "!"
        lines.append(f"{sign}{atom.predicate.name}({', '.join(arguments)})")
    return TextInput(RC_DECLARATIONS + RC_RULES, "\n".join(lines) + "\n")


def generated_program(dataset: str, factor: float, seed: int) -> MLNProgram:
    """A generator-built program (LP, IE)."""
    return load_dataset(dataset, DatasetScale(factor=factor, seed=seed)).program


def rc_delta_facts(program: MLNProgram) -> Tuple[Tuple[str, Tuple[str, str]], ...]:
    """The two facts ``rc_delta_map`` alternately adds and retracts.

    A ``refers`` edge between two papers of the first cluster (read by one
    of the four clause queries, so three replay) and a ``cat`` label on an
    unlabelled paper (read by all four).  Both are chosen from the program
    itself, so they exist at every seed and scale.
    """
    papers = [constant.value for constant in program.domains["paper"]]
    existing = {
        (fact.atom.predicate.name, fact.atom.argument_values())
        for fact in program.evidence
    }
    refers = next(
        ("refers", (first, second))
        for first in papers[:5]
        for second in reversed(papers[:5])
        if first != second and ("refers", (first, second)) not in existing
    )
    labelled = {arguments[0] for name, arguments in existing if name == "cat"}
    unlabelled = next(paper for paper in papers if paper not in labelled)
    return (refers, ("cat", (unlabelled, "DB")))


def check_rc_text_parity(factor: float, seed: int, max_flips: int) -> Dict[str, object]:
    """Ground and solve RC from text and from the generator; compare.

    Returns both clause counts and MAP costs (at request seed 0) plus an
    ``equal`` flag — 74,776 clauses / cost 36.0 at factor 4, seed 0.
    """
    outcomes = {}
    for label, program in (
        ("text", render_rc_text(factor, seed).parse()),
        ("generated", generated_program("RC", factor, seed)),
    ):
        engine = TuffyEngine(program, InferenceConfig(max_flips=max_flips))
        try:
            result = engine.run_map(seed=0)
            outcomes[label] = (len(engine.grounding_result.clauses), result.cost)
        finally:
            engine.close()
    return {
        "text": outcomes["text"],
        "generated": outcomes["generated"],
        "equal": outcomes["text"] == outcomes["generated"],
    }
