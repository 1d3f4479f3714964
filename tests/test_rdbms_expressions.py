"""Tests for filter/join expressions."""

import pytest

from row_oracle import bind
from repro.rdbms.expressions import (
    And,
    ColumnRef,
    Comparison,
    Const,
    IsNull,
    Not,
    Or,
    column_equals,
    columns_equal,
    conjunction,
)
from repro.rdbms.schema import TableSchema
from repro.rdbms.types import ColumnType

SCHEMA = TableSchema.of(
    ("a", ColumnType.INTEGER), ("b", ColumnType.INTEGER), ("t", ColumnType.TRUTH)
)


def evaluate(expression, row):
    return bind(expression, SCHEMA)(row)


class TestBasicExpressions:
    def test_const_and_column(self):
        assert evaluate(Const(5), (1, 2, None)) == 5
        assert evaluate(ColumnRef("b"), (1, 2, None)) == 2

    def test_comparisons(self):
        assert evaluate(Comparison("=", ColumnRef("a"), Const(1)), (1, 2, None)) is True
        assert evaluate(Comparison("!=", ColumnRef("a"), ColumnRef("b")), (1, 2, None)) is True
        assert evaluate(Comparison("<", ColumnRef("a"), ColumnRef("b")), (1, 2, None)) is True
        assert evaluate(Comparison(">=", ColumnRef("a"), Const(1)), (1, 2, None)) is True

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            Comparison("~", ColumnRef("a"), Const(1))

    def test_null_comparisons_are_false(self):
        assert evaluate(Comparison("=", ColumnRef("t"), Const(True)), (1, 2, None)) is False
        assert evaluate(Comparison("!=", ColumnRef("t"), Const(True)), (1, 2, None)) is False

    def test_null_safe_distinct_from(self):
        distinct = Comparison("is_distinct_from", ColumnRef("t"), Const(True))
        assert evaluate(distinct, (1, 2, None)) is True
        assert evaluate(distinct, (1, 2, False)) is True
        assert evaluate(distinct, (1, 2, True)) is False
        same = Comparison("is_not_distinct_from", ColumnRef("t"), Const(None))
        assert evaluate(same, (1, 2, None)) is True

    def test_is_null(self):
        assert evaluate(IsNull(ColumnRef("t")), (1, 2, None)) is True
        assert evaluate(IsNull(ColumnRef("t"), negated=True), (1, 2, None)) is False

    def test_boolean_connectives(self):
        both = And.of(
            Comparison("=", ColumnRef("a"), Const(1)),
            Comparison("=", ColumnRef("b"), Const(2)),
        )
        either = Or.of(
            Comparison("=", ColumnRef("a"), Const(9)),
            Comparison("=", ColumnRef("b"), Const(2)),
        )
        assert evaluate(both, (1, 2, None)) is True
        assert evaluate(either, (1, 2, None)) is True
        assert evaluate(Not(both), (1, 2, None)) is False
        assert evaluate(And(()), (0, 0, None)) is True
        assert evaluate(Or(()), (0, 0, None)) is False

    def test_referenced_columns(self):
        expression = And.of(column_equals("a", 1), columns_equal("a", "b"))
        assert expression.referenced_columns() == ["a", "a", "b"]

    def test_conjunction_helper(self):
        assert isinstance(conjunction([]), And)
        single = column_equals("a", 1)
        assert conjunction([single]) is single
        assert isinstance(conjunction([single, column_equals("b", 2)]), And)


class TestSqlRendering:
    def test_comparison_sql(self):
        assert column_equals("a", 1).to_sql() == "a = 1"
        assert Comparison("!=", ColumnRef("a"), Const("x")).to_sql() == "a <> 'x'"
        assert (
            Comparison("is_distinct_from", ColumnRef("t"), Const(True)).to_sql()
            == "t IS DISTINCT FROM TRUE"
        )

    def test_connective_sql(self):
        text = And.of(column_equals("a", 1), Not(column_equals("b", 2))).to_sql()
        assert "AND" in text and "NOT" in text
        assert And(()).to_sql() == "TRUE"
        assert Or(()).to_sql() == "FALSE"

    def test_isnull_sql(self):
        assert IsNull(ColumnRef("t")).to_sql() == "t IS NULL"
        assert IsNull(ColumnRef("t"), negated=True).to_sql() == "t IS NOT NULL"
