"""Tests for the Alchemy-style program/evidence parser."""

import math

import pytest

from repro.logic.formulas import Exists, Implication
from repro.logic.parser import MLNParser, MLNSyntaxError, parse_evidence, parse_program
from repro.logic.terms import Constant, Variable

PROGRAM = """
// Figure 1 of the paper
*wrote(author, paper)
*refers(paper, paper)
cat(paper, category)

5   cat(p, c1), cat(p, c2) => c1 = c2
1   wrote(x, p1), wrote(x, p2), cat(p1, c) => cat(p2, c)
2   cat(p1, c), refers(p1, p2) => cat(p2, c)
-1  cat(p, "Networking")
cat(p, c1), cat(p, c2) => c1 = c2.
"""

EVIDENCE = """
wrote(Joe, P1)
wrote(Joe, P2)   // a comment
refers(P1, P3)
!cat(P3, "AI")
"""


class TestProgramParsing:
    def test_declarations(self):
        program = parse_program(PROGRAM)
        names = {predicate.name: predicate for predicate in program.predicates}
        assert set(names) == {"wrote", "refers", "cat"}
        assert names["wrote"].closed_world is True
        assert names["cat"].closed_world is False
        assert names["cat"].arg_types == ("paper", "category")

    def test_rule_count_and_weights(self):
        program = parse_program(PROGRAM)
        assert len(program.rules) == 5
        weights = [rule.weight for rule in program.rules]
        assert weights[:4] == [5.0, 1.0, 2.0, -1.0]
        assert math.isinf(weights[4])

    def test_rules_are_implications(self):
        program = parse_program(PROGRAM)
        assert isinstance(program.rules[0].formula, Implication)

    def test_constant_vs_variable_convention(self):
        program = parse_program(PROGRAM)
        # -1 cat(p, "Networking"): p is a variable, "Networking" a constant.
        formula = program.rules[3].formula
        assert formula.arguments[0] == Variable("p")
        assert formula.arguments[1] == Constant("Networking")

    def test_rule_without_weight_or_period_rejected(self):
        text = "cat(paper, category)\ncat(p, c1), cat(p, c2) => c1 = c2"
        with pytest.raises(MLNSyntaxError):
            parse_program(text)

    def test_unknown_predicate_rejected(self):
        with pytest.raises(MLNSyntaxError):
            parse_program("cat(paper, category)\n1 dog(p) => cat(p, c)")

    def test_wrong_arity_rejected(self):
        with pytest.raises(MLNSyntaxError):
            parse_program("cat(paper, category)\n1 cat(p) => cat(p, c)")

    def test_negation_and_disjunction(self):
        text = "cat(paper, category)\n1 !cat(p, c1) v cat(p, c2)"
        program = parse_program(text)
        assert len(program.rules) == 1

    def test_exist_quantifier(self):
        text = "*wrote(author, paper)\n*paper(paper, url)\npaper(p, u) => EXIST x wrote(x, p)."
        program = parse_program(text)
        formula = program.rules[0].formula
        assert isinstance(formula, Implication)
        assert isinstance(formula.conclusion, Exists)

    def test_redeclaration_of_predicate_treated_as_rule_error(self):
        # Mentioning a known predicate with lower-case args but no weight and
        # no period is an invalid rule, not a second declaration.
        text = "cat(paper, category)\ncat(paper, category)"
        with pytest.raises(MLNSyntaxError):
            parse_program(text)

    def test_malformed_character_rejected(self):
        with pytest.raises(MLNSyntaxError):
            parse_program("cat(paper, category)\n1 cat(p, c) => cat(p, c) @")

    def test_parse_rule_text_with_explicit_weight(self):
        parser = MLNParser()
        parser.parse_program("cat(paper, category)")
        rule = parser.parse_rule_text("cat(p, c1) => cat(p, c2)", weight=2.5)
        assert rule.weight == 2.5


class TestEvidenceParsing:
    def test_truth_values_and_quotes(self):
        program = parse_program(PROGRAM)
        evidence = parse_evidence(EVIDENCE, program)
        assert len(evidence) == 4
        assert evidence[0].predicate_name == "wrote"
        assert evidence[0].arguments == ("Joe", "P1")
        assert evidence[0].truth is True
        assert evidence[3].predicate_name == "cat"
        assert evidence[3].arguments == ("P3", "AI")
        assert evidence[3].truth is False

    def test_arity_validation_against_program(self):
        program = parse_program(PROGRAM)
        with pytest.raises(MLNSyntaxError):
            parse_evidence("wrote(Joe)", program)

    def test_malformed_atom_rejected(self):
        with pytest.raises(MLNSyntaxError):
            parse_evidence("wrote Joe P1")

    def test_evidence_without_program_is_unchecked(self):
        evidence = parse_evidence("anything(A, B, C)")
        assert evidence[0].predicate_name == "anything"
        assert evidence[0].arguments == ("A", "B", "C")

    def test_comments_and_blank_lines_ignored(self):
        evidence = parse_evidence("\n// comment only\n\nwrote(Joe, P1)\n")
        assert len(evidence) == 1


class TestQuotedConstants:
    """Comment markers and commas inside quotes belong to the constant."""

    DECLARATIONS = "*wrote(author, paper)\ncat(paper, category)\n"

    @pytest.mark.parametrize(
        "line, arguments",
        (
            ('cat(P1, "C#")', ("P1", "C#")),
            ('cat(P1, "a//b")  // a real comment', ("P1", "a//b")),
            ('cat(P1, "a, b")', ("P1", "a, b")),
            ("cat(P1, 'x # y')  # comment", ("P1", "x # y")),
            ('cat(P1, "f(x)")', ("P1", "f(x)")),
            ("cat(P1, O'Brien)  // x", ("P1", "O'Brien")),
            ("cat(\"it's, ok\", O'Brien) # x", ("it's, ok", "O'Brien")),
        ),
    )
    def test_evidence(self, line, arguments):
        from repro.core.program import MLNProgram

        program = MLNProgram.from_text(self.DECLARATIONS, line + "\n")
        (fact,) = list(program.evidence)
        assert fact.atom.argument_values() == arguments
        assert parse_evidence(line)[0].arguments == arguments

    def test_rule_constant_with_comment_marker(self):
        program = parse_program(self.DECLARATIONS + '-1 cat(p, "C#")  // weight on C#\n')
        (rule,) = program.rules
        assert rule.weight == -1.0
        assert Constant("C#") in rule.formula.arguments

    def test_unterminated_quote_is_malformed(self):
        with pytest.raises(MLNSyntaxError, match="malformed evidence atom"):
            parse_evidence('cat(P1, "AI)')


class TestErrorLocation:
    """Evidence errors name the line, the column and the offending token."""

    PROGRAM = "*wrote(author, paper)\ncat(paper, category)\n"

    def parse(self, evidence):
        parser = MLNParser()
        parser.parse_program(self.PROGRAM)
        return list(parser.evidence_rows(evidence))

    @pytest.mark.parametrize(
        "evidence, line, column, token, fragment",
        (
            ("wrote(Joe, P1)\n  dog(Rex)\n", 2, 3, "dog", "unknown predicate 'dog'"),
            ("wrote(Joe, P1)\n\n!wrote(Joe)\n", 3, 2, "wrote(Joe)", "has 1 arguments"),
            ("   wrote Joe\n", 1, 4, "wrote Joe", "malformed evidence atom"),
        ),
    )
    def test_evidence_errors(self, evidence, line, column, token, fragment):
        with pytest.raises(MLNSyntaxError) as raised:
            self.parse(evidence)
        error = raised.value
        assert (error.line_number, error.column, error.token) == (line, column, token)
        assert str(error) == f"line {line}: {error.args[0][len(f'line {line}: '):]}"
        assert fragment in str(error) and str(error).endswith(f"(column {column})")

    def test_program_unknown_predicate_is_located(self):
        with pytest.raises(MLNSyntaxError) as raised:
            parse_program(self.PROGRAM + "1  cat(p, c) => dog(p)\n")
        error = raised.value
        assert (error.line_number, error.column, error.token) == (3, 17, "dog")

    def test_from_text_rejects_undeclared_evidence_predicates(self):
        from repro.core.program import MLNProgram

        with pytest.raises(MLNSyntaxError, match="line 1: unknown predicate 'dog'"):
            MLNProgram.from_text(self.PROGRAM, "dog(Rex)\n")
