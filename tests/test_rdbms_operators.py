"""Tests for the physical operators, including join-algorithm equivalence.

``run`` executes a plan on the engine; the join-equivalence property also
checks each join algorithm against the row oracle.
"""

import pytest
from hypothesis import given, settings, strategies as st
from row_oracle import execute_plan, rows as oracle_rows

from repro.rdbms.expressions import ColumnRef, Comparison, Const, columns_equal
from repro.rdbms.operators import (
    Distinct,
    Filter,
    HashJoin,
    NestedLoopJoin,
    Project,
    SortMergeJoin,
    TableScan,
)
from repro.rdbms.schema import TableSchema
from repro.rdbms.table import Table
from repro.rdbms.types import ColumnType


def run(plan):
    return execute_plan(plan).rows


def make_table(name, columns, rows):
    schema = TableSchema.of(*columns)
    table = Table(name, schema)
    table.bulk_load(rows)
    return table


@pytest.fixture
def orders():
    return make_table(
        "orders",
        [("oid", ColumnType.INTEGER), ("cust", ColumnType.TEXT), ("total", ColumnType.INTEGER)],
        [(1, "ann", 10), (2, "bob", 25), (3, "ann", 5), (4, "eve", 40)],
    )


@pytest.fixture
def customers():
    return make_table(
        "customers",
        [("name", ColumnType.TEXT), ("city", ColumnType.TEXT)],
        [("ann", "NYC"), ("bob", "LA"), ("cat", "SF")],
    )


class TestScanFilterProject:
    def test_scan_qualifies_columns(self, orders):
        scan = TableScan(orders, "o")
        assert scan.output_schema.column_names == ["o.oid", "o.cust", "o.total"]
        assert len(run(scan)) == 4

    def test_filter(self, orders):
        scan = TableScan(orders, "o")
        filtered = Filter(scan, Comparison(">", ColumnRef("o.total"), Const(9)))
        assert [row[0] for row in run(filtered)] == [1, 2, 4]

    def test_project_with_rename(self, orders):
        plan = Project(TableScan(orders, "o"), ["o.cust", "o.total"], ["customer", "amount"])
        assert plan.output_schema.column_names == ["customer", "amount"]
        assert run(plan)[0] == ("ann", 10)

    def test_project_length_mismatch(self, orders):
        with pytest.raises(ValueError):
            Project(TableScan(orders, "o"), ["o.cust"], ["a", "b"])

    def test_explain_is_nested_text(self, orders):
        plan = Project(Filter(TableScan(orders, "o"), Comparison(">", ColumnRef("o.total"), Const(9))), ["o.oid"])
        text = plan.explain()
        assert "Project" in text and "Filter" in text and "SeqScan" in text


class TestJoins:
    def _expected_join(self, orders, customers):
        expected = set()
        for order in orders:
            for customer in customers:
                if order[1] == customer[0]:
                    expected.add(order + customer)
        return expected

    def test_all_join_algorithms_agree(self, orders, customers):
        expected = self._expected_join(orders.rows, customers.rows)
        nested = NestedLoopJoin(
            TableScan(orders, "o"), TableScan(customers, "c"), columns_equal("o.cust", "c.name")
        )
        hashed = HashJoin(
            TableScan(orders, "o"), TableScan(customers, "c"), ["o.cust"], ["c.name"]
        )
        merged = SortMergeJoin(
            TableScan(orders, "o"), TableScan(customers, "c"), ["o.cust"], ["c.name"]
        )
        assert set(run(nested)) == expected
        assert set(run(hashed)) == expected
        assert set(run(merged)) == expected

    def test_join_with_nulls_dropped(self):
        left = make_table("l", [("k", ColumnType.TEXT)], [("a",), (None,)])
        right = make_table("r", [("k", ColumnType.TEXT)], [("a",), (None,)])
        hashed = HashJoin(TableScan(left, "l"), TableScan(right, "r"), ["l.k"], ["r.k"])
        merged = SortMergeJoin(TableScan(left, "l"), TableScan(right, "r"), ["l.k"], ["r.k"])
        assert run(hashed) == [("a", "a")]
        assert run(merged) == [("a", "a")]

    def test_hash_join_requires_keys(self, orders, customers):
        with pytest.raises(ValueError):
            HashJoin(TableScan(orders, "o"), TableScan(customers, "c"), [], [])

    def test_residual_condition(self, orders, customers):
        hashed = HashJoin(
            TableScan(orders, "o"),
            TableScan(customers, "c"),
            ["o.cust"],
            ["c.name"],
            residual=Comparison(">", ColumnRef("o.total"), Const(9)),
        )
        assert {row[0] for row in run(hashed)} == {1, 2}

    def test_cross_product_when_no_condition(self, orders, customers):
        cross = NestedLoopJoin(TableScan(orders, "o"), TableScan(customers, "c"))
        assert len(run(cross)) == len(orders) * len(customers)

    def test_duplicate_keys_produce_all_pairs(self):
        left = make_table("l", [("k", ColumnType.TEXT)], [("a",), ("a",)])
        right = make_table("r", [("k", ColumnType.TEXT)], [("a",), ("a",), ("a",)])
        for join_class in (HashJoin, SortMergeJoin):
            join = join_class(TableScan(left, "l"), TableScan(right, "r"), ["l.k"], ["r.k"])
            assert len(run(join)) == 6


class TestOtherOperators:
    @pytest.mark.parametrize(
        "values, expected",
        [([1, 2, 1, 3, 2], [1, 2, 3]), ([None, 1, None, 1], [None, 1])],
    )
    def test_distinct_preserves_first_occurrence(self, values, expected):
        table = make_table("d", [("x", ColumnType.INTEGER)], [(value,) for value in values])
        assert run(Distinct(TableScan(table, "d"))) == [(value,) for value in expected]


@st.composite
def join_instances(draw):
    keys = st.integers(min_value=0, max_value=4)
    left = draw(st.lists(st.tuples(keys, st.integers(0, 9)), min_size=0, max_size=12))
    right = draw(st.lists(st.tuples(keys, st.integers(0, 9)), min_size=0, max_size=12))
    return left, right


class TestJoinEquivalenceProperty:
    """Hash join and sort-merge join must agree with nested loop on any input,
    and each join must give the row oracle's rows in the oracle's order."""

    @given(join_instances())
    @settings(max_examples=60, deadline=None)
    def test_equivalence(self, instance):
        left_rows, right_rows = instance
        left = make_table("l", [("k", ColumnType.INTEGER), ("v", ColumnType.INTEGER)], left_rows)
        right = make_table("r", [("k", ColumnType.INTEGER), ("v", ColumnType.INTEGER)], right_rows)
        nested = NestedLoopJoin(
            TableScan(left, "l"), TableScan(right, "r"), columns_equal("l.k", "r.k")
        )
        hashed = HashJoin(TableScan(left, "l"), TableScan(right, "r"), ["l.k"], ["r.k"])
        merged = SortMergeJoin(TableScan(left, "l"), TableScan(right, "r"), ["l.k"], ["r.k"])
        expected = sorted(run(nested))
        assert sorted(run(hashed)) == expected
        assert sorted(run(merged)) == expected
        for join in (nested, hashed, merged):
            assert run(join) == oracle_rows(join)
