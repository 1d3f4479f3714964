"""Tests for MLNProgram, InferenceConfig and InferenceResult."""

import pytest

from repro.core.config import InferenceConfig
from repro.core.errors import ConfigurationError, ProgramError
from repro.core.engine import TuffyEngine
from repro.core.program import MLNProgram
from repro.logic.formulas import PredicateFormula
from repro.logic.terms import Constant, Variable

PROGRAM_TEXT = """
*wrote(author, paper)
cat(paper, category)
2 wrote(x, p), cat(p, c) => cat(p, c)
-1 cat(p, "Networking")
"""


class TestMLNProgram:
    def test_from_text_builds_predicates_and_rules(self):
        program = MLNProgram.from_text(PROGRAM_TEXT, "wrote(Joe, P1)")
        assert len(program.predicates) == 2
        assert len(program.rules) == 2
        assert len(program.evidence) == 1
        assert len(program.clauses()) == 2

    def test_declare_and_add_rule_programmatically(self):
        program = MLNProgram("manual")
        cat = program.declare("cat", ["paper", "category"])
        program.add_rule(
            PredicateFormula(cat, (Variable("p"), Constant("DB"))), 1.5, name="bias"
        )
        program.add_hard_rule(PredicateFormula(cat, (Constant("P1"), Constant("DB"))))
        clauses = program.clauses()
        assert len(clauses) == 2
        assert clauses.hard_clauses()

    def test_add_rule_text_requires_known_predicates(self):
        program = MLNProgram()
        program.declare("cat", ["paper", "category"])
        program.add_rule_text("1.5 cat(p, c1), cat(p, c2) => c1 = c2")
        assert len(program.clauses()) == 1

    def test_evidence_updates_domains(self):
        program = MLNProgram.from_text(PROGRAM_TEXT)
        program.add_evidence("wrote", ("Ann", "P7"))
        assert program.domains["author"].constants()[-1].value == "Ann"
        assert program.domains["paper"].constants()[-1].value == "P7"

    def test_evidence_arity_checked(self):
        program = MLNProgram.from_text(PROGRAM_TEXT)
        with pytest.raises(ProgramError):
            program.add_evidence("wrote", ("only-one",))

    def test_unknown_predicate_rejected(self):
        program = MLNProgram()
        with pytest.raises(ProgramError):
            program.add_evidence("nope", ("A",))

    def test_query_atoms_rejected_for_closed_world(self):
        program = MLNProgram.from_text(PROGRAM_TEXT)
        with pytest.raises(ProgramError):
            program.add_query_atom("wrote", ("Joe", "P1"))

    def test_cartesian_atom_generation(self):
        program = MLNProgram.from_text(PROGRAM_TEXT, "wrote(Joe, P1)\nwrote(Ann, P2)")
        program.add_constants("category", ["DB", "AI"])
        registry = program.build_atom_registry()
        # 2 papers x 3 categories (DB, AI and the rule's Networking) query
        # atoms + 2 evidence atoms.
        assert len(registry.query_atom_ids()) == 6
        assert len(registry.evidence_atom_ids()) == 2

    def test_explicit_atom_generation(self):
        program = MLNProgram.from_text(PROGRAM_TEXT, "wrote(Joe, P1)")
        program.add_constants("category", ["DB", "AI"])
        program.add_query_atom("cat", ("P1", "DB"))
        registry = program.build_atom_registry(generate_query_atoms="explicit")
        assert len(registry.query_atom_ids()) == 1

    def test_invalid_generation_mode(self):
        program = MLNProgram.from_text(PROGRAM_TEXT)
        with pytest.raises(ProgramError):
            program.build_atom_registry("everything")

    def test_empty_domain_skips_generation(self):
        program = MLNProgram()
        program.declare("cat", ["paper", "category"])
        registry = program.build_atom_registry()
        assert len(registry) == 0

    def test_statistics_shape(self):
        program = MLNProgram.from_text(PROGRAM_TEXT, "wrote(Joe, P1)")
        program.add_constants("category", ["DB"])
        statistics = program.statistics()
        row = statistics.as_dict()
        assert row["#relations"] == 2
        assert row["#rules"] == 2
        assert row["#evidence tuples"] == 1
        # cat(P1, DB) and cat(P1, Networking): the rule's constant is in
        # the category domain.
        assert row["#query atoms"] == 2
        assert row["#entities"] == 3

    def test_rule_constant_joins_its_domain_after_the_evidence(self):
        program = MLNProgram.from_text(
            '*wrote(author, paper)\ncat(paper, category)\n1 wrote(x, p) => cat(p, "A")\n',
            "wrote(A1, P1)\n",
        )
        assert "category" not in program.domains
        assert program.rule_constants() == {"category": ["A"]}
        with TuffyEngine(program, InferenceConfig(seed=0)) as engine:
            grounding = engine.ground()
            assert [
                (str(grounding.atoms.atom(literal)), clause.weight)
                for clause in grounding.clauses
                for literal in clause.literals
            ] == [("cat(P1, A)", 1.0)]

    def test_rule_constant_keeps_evidence_atom_ids(self):
        # Networking already occurs in the evidence: the domain order, and
        # so every atom id, is what the evidence alone gives.
        evidence = "wrote(Joe, P1)\ncat(P1, Networking)\ncat(P2, DB)\n"
        with_rule = MLNProgram.from_text(PROGRAM_TEXT, evidence).build_atom_registry()
        without_rule = MLNProgram.from_text(
            "*wrote(author, paper)\ncat(paper, category)\n", evidence
        ).build_atom_registry()
        assert [str(record.atom) for record in with_rule] == [
            str(record.atom) for record in without_rule
        ]

    def test_clause_cache_invalidation(self):
        program = MLNProgram.from_text(PROGRAM_TEXT)
        first = len(program.clauses())
        program.add_rule_text("1 cat(p, c) => cat(p, c)")
        assert len(program.clauses()) == first + 1


class TestInferenceConfig:
    def test_defaults_valid(self):
        config = InferenceConfig()
        assert config.grounding_strategy == "bottom-up"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"grounding_strategy": "sideways"},
            {"max_flips": 0},
            {"noise": 1.5},
            {"workers": 0},
            {"memory_budget_bytes": 0},
            {"gauss_seidel_rounds": 0},
            {"mcsat_samples": 0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            InferenceConfig(**kwargs)
