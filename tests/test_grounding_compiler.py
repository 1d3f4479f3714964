"""Tests for the clause -> conjunctive-query compiler (Algorithm 2)."""

import pytest

from repro.grounding.bottom_up import predicate_table_schema
from repro.grounding.compiler import (
    ClauseCompilationError,
    GroundingCompiler,
    same_atom_pairs,
)
from repro.logic.clauses import WeightedClause
from repro.logic.literals import Literal
from repro.logic.predicates import Predicate
from repro.logic.terms import Constant, Variable

CAT = Predicate("cat", ("paper", "category"))
REFERS = Predicate("refers", ("paper", "paper"), closed_world=True)
SAME = Predicate("same", ("paper", "paper"))

P, P1, P2, C, C1, C2 = (Variable(n) for n in ("p", "p1", "p2", "c", "c1", "c2"))


def compile_clause(clause):
    return GroundingCompiler().compile(clause)


class TestCompilation:
    def test_f3_shape(self):
        clause = WeightedClause(
            (
                Literal(CAT, (P1, C), positive=False),
                Literal(REFERS, (P1, P2), positive=False),
                Literal(CAT, (P2, C), positive=True),
            ),
            2.0,
            "F3",
        )
        compilation = compile_clause(clause)
        query = compilation.query
        assert [relation.table_name for relation in query.relations] == [
            "pred_cat",
            "pred_refers",
            "pred_cat",
        ]
        # Shared variables become join conditions: p1 (t0-t1), p2 (t1-t2), c (t0-t2).
        joins = {(condition.left, condition.right) for condition in query.join_conditions}
        assert ("t0.arg0", "t1.arg0") in joins
        assert ("t1.arg1", "t2.arg0") in joins
        assert ("t0.arg1", "t2.arg1") in joins
        # Pruning filters: negated literals need truth IS DISTINCT FROM FALSE,
        # the positive head needs truth IS DISTINCT FROM TRUE.
        filters = {(f.column, f.value) for f in query.constant_filters if f.operator == "is_distinct_from"}
        assert ("t0.truth", False) in filters
        assert ("t1.truth", False) in filters
        assert ("t2.truth", True) in filters
        # Outputs carry aid and truth for every literal.
        assert len(query.projection) == 6
        assert compilation.sql is not None and "SELECT" in compilation.sql

    def test_constant_argument_becomes_filter(self):
        clause = WeightedClause((Literal(CAT, (P, Constant("Networking"))),), -1.0, "F5")
        query = compile_clause(clause).query
        constants = {(f.column, f.operator, f.value) for f in query.constant_filters}
        assert ("t0.arg1", "=", "Networking") in constants

    def test_equality_constraint_becomes_inequality_filter(self):
        clause = WeightedClause(
            (
                Literal(CAT, (P, C1), positive=False),
                Literal(CAT, (P, C2), positive=False),
            ),
            5.0,
            "F1",
            ((C1, C2, True),),
        )
        query = compile_clause(clause).query
        comparisons = {(c.left, c.operator, c.right) for c in query.column_comparisons}
        assert ("t0.arg1", "!=", "t1.arg1") in comparisons

    def test_negative_equality_becomes_equality_filter(self):
        clause = WeightedClause(
            (Literal(CAT, (P, C1), positive=False), Literal(CAT, (P, C2), positive=False)),
            1.0,
            equalities=((C1, C2, False),),
        )
        query = compile_clause(clause).query
        comparisons = {(c.left, c.operator, c.right) for c in query.column_comparisons}
        assert ("t0.arg1", "=", "t1.arg1") in comparisons

    def test_constant_equality_trivially_satisfied(self):
        clause = WeightedClause(
            (Literal(CAT, (P, C1)),),
            1.0,
            equalities=((Constant("A"), Constant("A"), True),),
        )
        compilation = compile_clause(clause)
        assert compilation.trivially_satisfied
        assert compilation.query is None

    def test_constant_inequality_drops_out(self):
        clause = WeightedClause(
            (Literal(CAT, (P, C1)),),
            1.0,
            equalities=((Constant("A"), Constant("B"), True),),
        )
        compilation = compile_clause(clause)
        assert not compilation.trivially_satisfied
        assert compilation.query is not None
        assert compilation.query.column_comparisons == []

    def test_equality_with_constant_side(self):
        clause = WeightedClause(
            (Literal(CAT, (P, C1)),),
            1.0,
            equalities=((C1, Constant("DB"), True),),
        )
        query = compile_clause(clause).query
        constants = {(f.column, f.operator, f.value) for f in query.constant_filters}
        assert ("t0.arg1", "!=", "DB") in constants

    def test_unbound_equality_variable_rejected(self):
        clause = WeightedClause(
            (Literal(CAT, (P, C1)),),
            1.0,
            equalities=((C1, C2, True),),
        )
        with pytest.raises(ClauseCompilationError):
            compile_clause(clause)

    def test_repeated_variable_within_literal(self):
        clause = WeightedClause((Literal(SAME, (P, P)),), 1.0)
        query = compile_clause(clause).query
        comparisons = {(c.left, c.operator, c.right) for c in query.column_comparisons}
        assert ("t0.arg0", "=", "t0.arg1") in comparisons

    def test_equality_only_clause_has_no_query(self):
        clause = WeightedClause((), 1.0, equalities=((Constant("A"), Constant("B"), True),))
        compilation = compile_clause(clause)
        assert compilation.query is None
        assert compilation.trivially_satisfied

    def test_compile_all(self):
        clauses = [
            WeightedClause((Literal(CAT, (P, C)),), 1.0),
            WeightedClause((Literal(REFERS, (P1, P2), positive=False),), 2.0),
        ]
        compilations = GroundingCompiler().compile_all(clauses)
        assert len(compilations) == 2


class TestSameAtomPairs:
    """Only literals of one predicate whose arguments can agree are listed."""

    WROTE = Predicate("wrote", ("author", "paper"), closed_world=True)

    def test_rc_rules(self):
        x = Variable("x")
        f1 = WeightedClause(
            (Literal(CAT, (P, C1), positive=False), Literal(CAT, (P, C2), positive=False)),
            5.0,
            equalities=((C1, C2, True),),
        )
        f2 = WeightedClause(
            (
                Literal(self.WROTE, (x, P1), positive=False),
                Literal(self.WROTE, (x, P2), positive=False),
                Literal(CAT, (P1, C), positive=False),
                Literal(CAT, (P2, C)),
            ),
            1.0,
        )
        f3 = WeightedClause(
            (
                Literal(CAT, (P1, C), positive=False),
                Literal(REFERS, (P1, P2), positive=False),
                Literal(CAT, (P2, C)),
            ),
            2.0,
        )
        # F1's ``c1 = c2`` disjunct keeps its two cat literals apart.
        assert same_atom_pairs(f1) == ([], [])
        assert same_atom_pairs(f2) == ([(0, 1)], [(2, 3)])
        assert same_atom_pairs(f3) == ([], [(0, 2)])
        compilation = compile_clause(f2)
        assert (compilation.repeat_pairs, compilation.tautology_pairs) == ([(0, 1)], [(2, 3)])

    def test_different_constants_never_meet(self):
        clause = WeightedClause(
            (
                Literal(CAT, (P, Constant("DB"))),
                Literal(CAT, (P, Constant("AI"))),
                Literal(CAT, (P1, C), positive=False),
                Literal(CAT, (P1, Constant("DB"))),
            ),
            1.0,
        )
        assert same_atom_pairs(clause) == ([(0, 3)], [(0, 2), (1, 2), (2, 3)])

    def test_negative_equality_does_not_keep_apart(self):
        # ``c1 != c2`` as a disjunct keeps the bindings where c1 = c2.
        clause = WeightedClause(
            (Literal(CAT, (P, C1)), Literal(CAT, (P, C2))),
            1.0,
            equalities=((C1, C2, False),),
        )
        assert same_atom_pairs(clause) == ([(0, 1)], [])


class TestPredicateTableSchema:
    def test_schema_shape(self):
        schema = predicate_table_schema(CAT)
        assert schema.column_names == ["aid", "arg0", "arg1", "truth"]
