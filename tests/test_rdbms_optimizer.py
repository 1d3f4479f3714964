"""Tests for the conjunctive-query optimizer, statistics and SQL rendering."""

import pytest
from hypothesis import given, settings, strategies as st
from row_oracle import execute_query

from repro.rdbms.database import Database
from repro.rdbms.operators import HashJoin, SortMergeJoin
from repro.rdbms.optimizer import (
    ConjunctiveQuery,
    OptimizerOptions,
    QueryError,
)
from repro.rdbms.schema import TableSchema
from repro.rdbms.sql import render_select
from repro.rdbms.stats import (
    StatisticsCatalog,
    TableStatistics,
    estimate_filter_selectivity,
    estimate_join_cardinality,
)
from repro.rdbms.types import ColumnType


def build_database():
    db = Database()
    db.create_table(
        "wrote",
        TableSchema.of(
            ("aid", ColumnType.INTEGER),
            ("author", ColumnType.TEXT),
            ("paper", ColumnType.TEXT),
            ("truth", ColumnType.TRUTH),
        ),
    )
    db.create_table(
        "cat",
        TableSchema.of(
            ("aid", ColumnType.INTEGER),
            ("paper", ColumnType.TEXT),
            ("category", ColumnType.TEXT),
            ("truth", ColumnType.TRUTH),
        ),
    )
    db.bulk_load(
        "wrote",
        [(1, "joe", "p1", True), (2, "joe", "p2", True), (3, "ann", "p3", True)],
    )
    db.bulk_load(
        "cat",
        [
            (10, "p1", "db", None),
            (11, "p2", "db", None),
            (12, "p3", "ai", True),
            (13, "p1", "ai", None),
        ],
    )
    return db


def join_query(distinct=False):
    query = ConjunctiveQuery(distinct=distinct)
    query.add_relation("t0", "wrote")
    query.add_relation("t1", "cat")
    query.add_join("t0.paper", "t1.paper")
    query.add_output("t0.aid", "wrote_aid")
    query.add_output("t1.aid", "cat_aid")
    return query


class TestConjunctiveQueryValidation:
    def test_duplicate_alias_rejected(self):
        query = ConjunctiveQuery()
        query.add_relation("t0", "wrote")
        with pytest.raises(QueryError):
            query.add_relation("t0", "cat")

    def test_unknown_alias_in_join_rejected(self):
        query = ConjunctiveQuery()
        query.add_relation("t0", "wrote")
        query.add_join("t0.paper", "t9.paper")
        query.add_output("t0.aid")
        with pytest.raises(QueryError):
            query.validate()

    def test_empty_projection_rejected(self):
        query = ConjunctiveQuery()
        query.add_relation("t0", "wrote")
        with pytest.raises(QueryError):
            query.validate()

    def test_no_relations_rejected(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery().validate()


class TestOptimizerPlans:
    def test_join_results_identical_across_lesion_settings(self):
        db = build_database()
        query = join_query()
        expected = sorted(execute_query(db, query, OptimizerOptions.full_optimizer()).rows)
        for options in (
            OptimizerOptions.fixed_join_order(),
            OptimizerOptions.nested_loop_only(),
            OptimizerOptions(enable_hash_join=False),
        ):
            assert sorted(execute_query(db, query, options).rows) == expected
        assert expected  # non-empty join

    def test_full_optimizer_uses_hash_join(self):
        db = build_database()
        plan = db.plan(join_query(), OptimizerOptions.full_optimizer())
        assert "HashJoin" in plan.explain()

    def test_nested_loop_only_never_uses_hash_or_merge(self):
        db = build_database()
        plan = db.plan(join_query(), OptimizerOptions.nested_loop_only())
        text = plan.explain()
        assert "HashJoin" not in text and "SortMergeJoin" not in text

    def test_sort_merge_selected_when_hash_disabled(self):
        db = build_database()
        plan = db.plan(join_query(), OptimizerOptions(enable_hash_join=False))
        assert "SortMergeJoin" in plan.explain()

    def test_fixed_join_order_respects_declaration(self):
        db = build_database()
        plan = db.plan(join_query(), OptimizerOptions.fixed_join_order())
        assert plan.join_order == ["t0", "t1"]

    def test_greedy_order_starts_with_most_selective(self):
        db = build_database()
        query = join_query()
        query.add_constant_filter("t1.category", "=", "ai")
        plan = db.plan(query, OptimizerOptions.full_optimizer())
        assert plan.join_order[0] == "t1"

    def test_constant_filters_applied_with_and_without_pushdown(self):
        db = build_database()
        query = join_query()
        query.add_constant_filter("t1.category", "=", "db")
        with_pushdown = execute_query(db, query, OptimizerOptions(enable_predicate_pushdown=True))
        without_pushdown = execute_query(db, query, OptimizerOptions(enable_predicate_pushdown=False))
        assert sorted(with_pushdown.rows) == sorted(without_pushdown.rows)
        assert len(with_pushdown.rows) == 2

    def test_column_comparison_residual(self):
        db = build_database()
        query = ConjunctiveQuery()
        query.add_relation("t0", "cat")
        query.add_relation("t1", "cat")
        query.add_join("t0.paper", "t1.paper")
        query.add_column_comparison("t0.category", "!=", "t1.category")
        query.add_output("t0.aid")
        query.add_output("t1.aid")
        rows = execute_query(db, query).rows
        assert (10, 13) in rows and (13, 10) in rows
        assert all(left != right for left, right in rows)

    def test_distinct(self):
        db = build_database()
        query = ConjunctiveQuery(distinct=True)
        query.add_relation("t0", "cat")
        query.add_output("t0.category", "category")
        assert sorted(execute_query(db, query).rows) == [("ai",), ("db",)]

    def test_cross_product_when_no_join_condition(self):
        db = build_database()
        query = ConjunctiveQuery()
        query.add_relation("t0", "wrote")
        query.add_relation("t1", "cat")
        query.add_output("t0.aid")
        query.add_output("t1.aid")
        assert len(execute_query(db, query).rows) == 12

    def test_unknown_table_raises(self):
        db = build_database()
        query = ConjunctiveQuery()
        query.add_relation("t0", "missing")
        query.add_output("t0.aid")
        with pytest.raises(QueryError):
            db.plan(query)


class TestStatistics:
    def test_analyze_counts_distinct_and_nulls(self):
        db = build_database()
        statistics = db.analyze("cat")
        assert statistics.row_count == 4
        assert statistics.column("paper").distinct_values == 3
        assert statistics.column("truth").null_fraction == pytest.approx(0.75)

    def test_unknown_column_defaults(self):
        statistics = TableStatistics(row_count=10)
        assert statistics.column("anything").distinct_values == 10

    def test_filter_selectivity(self):
        db = build_database()
        statistics = db.analyze("cat")
        selectivity = estimate_filter_selectivity(statistics, ["category"])
        assert 0.0 < selectivity <= 0.5

    def test_join_cardinality(self):
        assert estimate_join_cardinality(100, 100, 10, 20) == pytest.approx(500.0)
        assert estimate_join_cardinality(1, 1, 1, 1) == 1.0

    def test_catalog_reanalyzes_on_growth(self):
        db = build_database()
        catalog = StatisticsCatalog()
        table = db.table("cat")
        first = catalog.get_or_analyze(table)
        table.bulk_load([(14, "p9", "db", None)])
        second = catalog.get_or_analyze(table)
        assert second.row_count == first.row_count + 1


class TestSqlRendering:
    def test_render_select_shape(self):
        query = join_query()
        query.add_constant_filter("t0.truth", "is_distinct_from", True)
        sql = render_select(query)
        assert sql.startswith("SELECT t0.aid AS wrote_aid")
        assert "FROM wrote t0, cat t1" in sql
        assert "t0.paper = t1.paper" in sql
        assert "IS DISTINCT FROM TRUE" in sql
        assert sql.endswith(";")

    def test_distinct_rendered(self):
        sql = render_select(join_query(distinct=True))
        assert "SELECT DISTINCT" in sql


class TestExecutor:
    def test_query_result_helpers(self):
        db = build_database()
        result = execute_query(db, join_query())
        assert len(result) == 4
        assert set(result.column("wrote_aid")) == {1, 2, 3}
        assert result.as_dicts()[0].keys() == {"wrote_aid", "cat_aid"}


@st.composite
def random_two_table_instances(draw):
    small = st.integers(min_value=0, max_value=3)
    left = draw(st.lists(st.tuples(small, small), min_size=0, max_size=10))
    right = draw(st.lists(st.tuples(small, small), min_size=0, max_size=10))
    return left, right


class TestOptimizerEquivalenceProperty:
    """All planner settings must return the same multiset of rows."""

    @given(random_two_table_instances())
    @settings(max_examples=40, deadline=None)
    def test_plans_agree(self, instance):
        left_rows, right_rows = instance
        db = Database()
        schema = TableSchema.of(("k", ColumnType.INTEGER), ("v", ColumnType.INTEGER))
        db.create_table("left_t", schema)
        db.create_table("right_t", schema)
        db.bulk_load("left_t", left_rows)
        db.bulk_load("right_t", right_rows)
        query = ConjunctiveQuery()
        query.add_relation("a", "left_t")
        query.add_relation("b", "right_t")
        query.add_join("a.k", "b.k")
        query.add_output("a.v")
        query.add_output("b.v")
        reference = sorted(execute_query(db, query, OptimizerOptions.nested_loop_only()).rows)
        for options in (OptimizerOptions.full_optimizer(), OptimizerOptions(enable_hash_join=False)):
            assert sorted(execute_query(db, query, options).rows) == reference
