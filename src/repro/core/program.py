"""The MLN program: predicates, rules, evidence, domains and query atoms.

An :class:`MLNProgram` can be built programmatically (the dataset generators
do this) or parsed from Alchemy-style text (see
:mod:`repro.logic.parser`).  It owns everything the grounding phase needs:

* predicate declarations (closed-world evidence predicates vs open-world
  query predicates),
* weighted first-order rules, converted on demand to clausal form,
* typed constant domains, accumulated from evidence and query atoms,
* the evidence database, and
* the set of query atoms — either listed explicitly or generated as the
  Cartesian product of the argument domains of each open-world predicate.
  A constant that only a rule names belongs to its type's domain too (as
  in Alchemy): the Cartesian product takes it after the evidence-derived
  values, so it never moves an evidence-derived atom's id.

The evidence database is held as columns (:class:`FactColumns`): parsed
evidence text and ``add_evidence`` append each fact's predicate, truth
value and argument strings to arrays and lists — no object per fact — and
:meth:`MLNProgram.build_atom_registry` registers them, and the Cartesian
query atoms, a column at a time.  ``program.evidence`` still iterates as
:class:`EvidenceAtom` row views.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import ProgramError
from repro.grounding.atoms import UNKNOWN, AtomRegistry
from repro.logic.clauses import ClauseSet, HARD_WEIGHT, WeightedClause
from repro.logic.domains import Domain, DomainRegistry
from repro.logic.formulas import Formula, to_clausal_form
from repro.logic.parser import MLNParser, ParsedRule
from repro.logic.predicates import GroundAtom, Predicate, PredicateRegistry, make_atom
from repro.logic.terms import Constant


@dataclass
class DatasetStatistics:
    """The quantities reported in Table 1 of the paper."""

    relations: int
    rules: int
    entities: int
    evidence_tuples: int
    query_atoms: int

    def as_dict(self) -> Dict[str, int]:
        return {
            "#relations": self.relations,
            "#rules": self.rules,
            "#entities": self.entities,
            "#evidence tuples": self.evidence_tuples,
            "#query atoms": self.query_atoms,
        }


@dataclass
class EvidenceAtom:
    """One evidence fact (a row view of :class:`FactColumns`)."""

    atom: GroundAtom
    truth: bool


class FactColumns:
    """Ground facts as columns, in insertion order: no object per fact.

    Fact ``i`` is an atom of ``predicates[which[i]]`` with truth code
    ``truth[i]`` (``1`` true, ``0`` false, ``-1`` unknown); its arguments
    are row ``r`` of ``arguments[which[i]]`` — one list of strings per
    argument position — where ``r`` counts that predicate's earlier
    facts.  Retracted facts stay in the columns, marked in ``_removed``.
    Iteration yields :class:`EvidenceAtom` row views of the live facts.
    """

    def __init__(self) -> None:
        self.predicates: List[Predicate] = []
        self._slots: Dict[str, int] = {}
        self.which = array("i")
        self.truth = array("b")
        self.arguments: List[List[List[str]]] = []
        self._removed: set = set()
        #: ``(predicate name, arguments) -> live fact indices``, ascending;
        #: built by the first :meth:`remove`.
        self._index: Optional[Dict[Tuple[str, Tuple[str, ...]], List[int]]] = None

    def _slot(self, predicate: Predicate) -> int:
        slot = self._slots.get(predicate.name)
        if slot is None:
            slot = self._slots[predicate.name] = len(self.predicates)
            self.predicates.append(predicate)
            self.arguments.append([[] for _ in range(predicate.arity)])
        return slot

    def append(self, predicate: Predicate, arguments: Sequence[str], truth: int) -> None:
        """Append one fact (``arguments`` of the predicate's arity)."""
        slot = self._slots.get(predicate.name)
        if slot is None:
            slot = self._slot(predicate)
        if self._index is not None:
            key = (predicate.name, tuple(arguments))
            self._index.setdefault(key, []).append(len(self.which))
        self.which.append(slot)
        self.truth.append(truth)
        for column, value in zip(self.arguments[slot], arguments):
            column.append(value)

    def remove(self, predicate: Predicate, arguments: Sequence[str]) -> bool:
        """Retract the first live fact over this atom; ``False`` if there is none."""
        if self._index is None:
            self._index = {}
            for fact, (name, values, _) in enumerate(self._rows()):
                if fact not in self._removed:
                    self._index.setdefault((name, values), []).append(fact)
        facts = self._index.get((predicate.name, tuple(arguments)))
        if not facts:
            return False
        self._removed.add(facts.pop(0))
        return True

    def _rows(self) -> Iterator[Tuple[str, Tuple[str, ...], int]]:
        """``(predicate name, arguments, truth code)`` of every fact, removed ones too."""
        taken = [0] * len(self.predicates)
        for slot, truth in zip(self.which, self.truth):
            row = taken[slot]
            taken[slot] = row + 1
            yield (
                self.predicates[slot].name,
                tuple(column[row] for column in self.arguments[slot]),
                truth,
            )

    def __len__(self) -> int:
        return len(self.which) - len(self._removed)

    def __iter__(self) -> Iterator[EvidenceAtom]:
        removed = self._removed
        # One Constant per distinct value, shared by the views built here.
        constants: Dict[str, Constant] = {}
        taken = [0] * len(self.predicates)
        for fact, (slot, truth) in enumerate(zip(self.which, self.truth)):
            row = taken[slot]
            taken[slot] = row + 1
            if fact in removed:
                continue
            arguments = []
            for column in self.arguments[slot]:
                value = column[row]
                constant = constants.get(value)
                if constant is None:
                    constant = constants[value] = Constant(value)
                arguments.append(constant)
            yield EvidenceAtom(GroundAtom(self.predicates[slot], tuple(arguments)), truth == 1)

    def register_into(self, registry: AtomRegistry) -> None:
        """Register every live fact, in order (one :meth:`AtomRegistry.register_columns`)."""
        which = np.array(self.which, dtype=np.intp)
        truths = np.array(self.truth, dtype=np.int8)
        encode = registry.encoder.encode_values
        codes = [
            np.stack([encode(column) for column in columns], axis=1)
            if columns
            else np.empty((int((which == slot).sum()), 0), dtype=np.int64)
            for slot, columns in enumerate(self.arguments)
        ]
        if self._removed:
            live = np.ones(len(which), dtype=bool)
            live[list(self._removed)] = False
            codes = [matrix[live[which == slot]] for slot, matrix in enumerate(codes)]
            which, truths = which[live], truths[live]
        registry.register_columns(self.predicates, which, codes, truths)


class MLNProgram:
    """A Markov Logic Network program."""

    def __init__(self, name: str = "mln") -> None:
        self.name = name
        self.predicates = PredicateRegistry()
        self.domains = DomainRegistry()
        self.rules: List[ParsedRule] = []
        self._direct_clauses: List[WeightedClause] = []
        self.evidence = FactColumns()
        self.query_atoms: List[GroundAtom] = []
        self._clause_cache: Optional[ClauseSet] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_text(
        cls,
        program_text: str,
        evidence_text: str = "",
        name: str = "mln",
    ) -> "MLNProgram":
        """Parse a program (and optionally evidence) from Alchemy-style text."""
        parser = MLNParser()
        parsed = parser.parse_program(program_text)
        program = cls(name)
        for predicate in parsed.predicates:
            program.declare_predicate(predicate)
        for index, rule in enumerate(parsed.rules, start=1):
            rule.name = rule.name or f"R{index}"
            program.rules.append(rule)
            program._clause_cache = None
        if evidence_text:
            program._add_evidence_rows(parser.evidence_rows(evidence_text))
        return program

    def _add_evidence_rows(
        self, rows: Iterable[Tuple[str, Tuple[str, ...], bool]]
    ) -> None:
        """Append parsed evidence rows, updating the typed domains.

        The bulk form of :meth:`add_evidence` (same facts, same domain
        order) for rows the parser has already checked against the
        declarations.
        """
        targets: Dict[str, Tuple[Predicate, List[Domain]]] = {}
        append = self.evidence.append
        for name, arguments, truth in rows:
            target = targets.get(name)
            if target is None:
                predicate = self.predicates.get(name)
                domains = [self.domains.domain(t) for t in predicate.arg_types]
                target = targets[name] = (predicate, domains)
            predicate, domains = target
            append(predicate, arguments, truth)
            for domain, value in zip(domains, arguments):
                domain.add_value(value)

    def declare_predicate(self, predicate: Predicate) -> Predicate:
        """Register a predicate declaration."""
        return self.predicates.declare(predicate)

    def declare(self, name: str, arg_types: Sequence[str], closed_world: bool = False) -> Predicate:
        """Shorthand for declaring a predicate from its parts."""
        return self.declare_predicate(Predicate(name, tuple(arg_types), closed_world))

    def add_rule(self, formula: Formula, weight: float, name: Optional[str] = None) -> None:
        """Add a first-order rule as a formula with a weight."""
        rule_name = name or f"R{len(self.rules) + len(self._direct_clauses) + 1}"
        self.rules.append(ParsedRule(formula, weight, rule_name))
        self._clause_cache = None

    def add_hard_rule(self, formula: Formula, name: Optional[str] = None) -> None:
        self.add_rule(formula, HARD_WEIGHT, name)

    def add_rule_text(self, text: str) -> None:
        """Add a rule written in the Alchemy-style syntax."""
        parser = MLNParser()
        for predicate in self.predicates:
            parser._predicates[predicate.name] = predicate
        rule = parser.parse_rule_text(text)
        rule.name = f"R{len(self.rules) + len(self._direct_clauses) + 1}"
        self.rules.append(rule)
        self._clause_cache = None

    def add_clause(self, clause: WeightedClause) -> None:
        """Add a rule already in clausal form (used by dataset generators)."""
        self._direct_clauses.append(clause)
        self._clause_cache = None

    def add_evidence(
        self, predicate_name: str, arguments: Sequence[str], truth: bool = True
    ) -> GroundAtom:
        """Add one evidence fact, updating the typed domains."""
        predicate = self._predicate(predicate_name)
        atom = self._register_constants(predicate, arguments)
        self.evidence.append(predicate, arguments, int(truth))
        return atom

    def remove_evidence(
        self, predicate_name: str, arguments: Sequence[str]
    ) -> GroundAtom:
        """Retract one evidence fact (the mirror of :meth:`add_evidence`).

        The fact must exist.  The typed domains keep any constants the
        fact introduced — domains only ever grow, matching the closed
        finite-domain semantics (the constants may appear in other facts
        or query atoms).
        """
        predicate = self._predicate(predicate_name)
        atom = make_atom(predicate, arguments)
        if not self.evidence.remove(predicate, atom.argument_values()):
            raise ProgramError(f"no evidence fact {atom} to remove")
        return atom

    def add_query_atom(self, predicate_name: str, arguments: Sequence[str]) -> GroundAtom:
        """Explicitly add one query atom (an unknown the search must decide)."""
        predicate = self._predicate(predicate_name)
        if predicate.closed_world:
            raise ProgramError(
                f"predicate {predicate_name!r} is closed-world; it cannot have query atoms"
            )
        atom = self._register_constants(predicate, arguments)
        self.query_atoms.append(atom)
        return atom

    def add_constants(self, type_name: str, values: Iterable[str]) -> None:
        """Add constants to a typed domain without adding evidence."""
        self.domains.add_constants(type_name, values)

    # ------------------------------------------------------------------
    # Derived artifacts
    # ------------------------------------------------------------------

    def clauses(self) -> ClauseSet:
        """The program in clausal form (cached)."""
        if self._clause_cache is None:
            clause_set = ClauseSet()
            for rule in self.rules:
                converted = to_clausal_form(
                    rule.formula, rule.weight, rule.name, self.domains
                )
                clause_set.extend(converted)
            clause_set.extend(self._direct_clauses)
            self._clause_cache = clause_set
        return self._clause_cache

    def build_atom_registry(self, generate_query_atoms: str = "cartesian") -> AtomRegistry:
        """Build the atom registry the grounders consume.

        ``generate_query_atoms`` is ``"cartesian"`` (every open-world
        predicate gets one atom per combination of its argument domains —
        matching the closed finite-domain semantics of MLNs) or
        ``"explicit"`` (only atoms added via :meth:`add_query_atom`).
        """
        if generate_query_atoms not in ("cartesian", "explicit"):
            raise ProgramError(
                f"unknown query atom generation mode {generate_query_atoms!r}"
            )
        registry = AtomRegistry()
        self.evidence.register_into(registry)
        if self.query_atoms:
            queries = FactColumns()
            for atom in self.query_atoms:
                queries.append(atom.predicate, atom.argument_values(), UNKNOWN)
            queries.register_into(registry)
        if generate_query_atoms == "cartesian":
            rule_constants = self.rule_constants()
            for predicate in self.predicates.query_predicates():
                self._register_cartesian_atoms(predicate, registry, rule_constants)
        return registry

    def rule_constants(self) -> Dict[str, List[str]]:
        """Per type, the constants the clauses name in that type's argument positions.

        In clause order, each once — a pure function of the rules.
        """
        constants: Dict[str, Dict[str, None]] = {}
        for clause in self.clauses():
            for literal in clause.literals:
                for type_name, argument in zip(literal.predicate.arg_types, literal.arguments):
                    if isinstance(argument, Constant):
                        constants.setdefault(type_name, {})[argument.value] = None
        return {type_name: list(values) for type_name, values in constants.items()}

    def _register_cartesian_atoms(
        self,
        predicate: Predicate,
        registry: AtomRegistry,
        rule_constants: Dict[str, List[str]],
    ) -> None:
        domains = []
        for type_name in predicate.arg_types:
            values = self.domains[type_name].values() if type_name in self.domains else []
            known = set(values)
            values += [value for value in rule_constants.get(type_name, ()) if value not in known]
            if not values:
                # No constants of this type are known: the predicate has no
                # possible groundings beyond those already registered.
                return
            domains.append(registry.encoder.encode_values(values))
        # Rows in ``itertools.product`` order: the last argument varies fastest.
        grids = np.meshgrid(*domains, indexing="ij") if domains else []
        rows = np.stack([grid.ravel() for grid in grids], axis=1) if grids else np.empty((1, 0))
        registry.register_columns(
            [predicate],
            np.zeros(len(rows), dtype=np.intp),
            [rows],
            np.full(len(rows), UNKNOWN, dtype=np.int8),
        )

    def statistics(self) -> DatasetStatistics:
        """Dataset statistics in the shape of the paper's Table 1."""
        registry = self.build_atom_registry()
        return DatasetStatistics(
            relations=len(self.predicates),
            rules=len(self.rules) + len(self._direct_clauses),
            entities=self.domains.total_constants(),
            evidence_tuples=len(self.evidence),
            query_atoms=len(registry.query_atom_ids()),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _predicate(self, name: str) -> Predicate:
        try:
            return self.predicates.get(name)
        except KeyError as error:
            raise ProgramError(str(error)) from error

    def _register_constants(
        self, predicate: Predicate, arguments: Sequence[str]
    ) -> GroundAtom:
        """Add the arguments to their typed domains; returns the atom over them.

        The atom's constants are the domains' own, not fresh copies.
        """
        if len(arguments) != predicate.arity:
            raise ProgramError(
                f"predicate {predicate.name} expects {predicate.arity} arguments, "
                f"got {len(arguments)}"
            )
        domain = self.domains.domain
        return GroundAtom(
            predicate,
            tuple(
                domain(type_name).intern(value)
                for type_name, value in zip(predicate.arg_types, arguments)
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MLNProgram({self.name!r}, predicates={len(self.predicates)}, "
            f"rules={len(self.rules) + len(self._direct_clauses)}, "
            f"evidence={len(self.evidence)})"
        )
