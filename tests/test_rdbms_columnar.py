"""The columnar engine against the row oracle: operator- and plan-level parity.

Every test drives the same plan (or expression) through the tuple-at-a-time
oracle (``row_oracle``) and the engine and asserts *ordered* equality — the
engine reproduces the iterator model's output order exactly, which the
grounding pipeline relies on for bit-identical results.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from row_oracle import execute_plan, execute_query, rows as oracle_rows

from repro.rdbms.column_batch import (
    NULL_CODE,
    ColumnarContext,
    ValueEncoder,
    composite_codes,
    first_occurrence_indices,
    hash_join_indices,
    sorted_distinct,
)
from repro.grounding.bottom_up import plan_intermediate_tuples
from repro.rdbms.database import Database
from repro.rdbms.expressions import (
    And,
    ColumnRef,
    Comparison,
    Const,
    IsNull,
    Not,
    Or,
)
from repro.rdbms.operators import (
    Distinct,
    Filter,
    HashJoin,
    NestedLoopJoin,
    Project,
    SortMergeJoin,
    TableScan,
    iter_plan,
)
from repro.rdbms.optimizer import ConjunctiveQuery, OptimizerOptions
from repro.rdbms.schema import TableSchema
from repro.rdbms.table import Table
from repro.rdbms.types import ColumnType


def make_table(name, columns, rows):
    schema = TableSchema.of(*columns)
    table = Table(name, schema)
    table.bulk_load(rows)
    return table


@pytest.fixture
def people():
    return make_table(
        "people",
        [("pid", ColumnType.INTEGER), ("name", ColumnType.TEXT), ("city", ColumnType.TEXT)],
        [
            (1, "ann", "NYC"),
            (2, "bob", None),
            (3, "cat", "LA"),
            (4, "dan", "NYC"),
            (5, "eve", "SF"),
            (6, "ann", "LA"),
        ],
    )


@pytest.fixture
def visits():
    return make_table(
        "visits",
        [("vid", ColumnType.INTEGER), ("city", ColumnType.TEXT), ("score", ColumnType.INTEGER)],
        [
            (10, "NYC", 3),
            (11, "LA", 1),
            (12, "NYC", 7),
            (13, None, 9),
            (14, "SF", 2),
            (15, "LA", 4),
        ],
    )


def run_both(plan_factory):
    """Run a freshly built plan on the oracle and on the engine.

    Separate plan instances keep operator counters independent so they can
    be compared too.
    """
    row_plan = plan_factory()
    col_plan = plan_factory()
    rows = oracle_rows(row_plan)
    cols = execute_plan(col_plan).rows
    return rows, cols, row_plan, col_plan


class TestEncoder:
    def test_codes_are_value_equality(self):
        encoder = ValueEncoder()
        codes = encoder.encode_values(["a", "b", "a", None, 1, True, 1.0])
        assert codes[0] == codes[2]
        assert codes[3] == NULL_CODE
        # dict semantics: 1 == True == 1.0 share one code, like Python ==.
        assert codes[4] == codes[5] == codes[6]
        assert encoder.decode_list(codes[:4]) == ["a", "b", "a", None]

    def test_lookup_without_interning(self):
        encoder = ValueEncoder()
        encoder.encode_values(["x"])
        before = len(encoder)
        assert encoder.lookup("nope") not in (encoder.lookup("x"), NULL_CODE)
        assert len(encoder) == before


class TestKernels:
    def test_composite_codes_group_by_all_columns(self):
        a = np.array([1, 1, 2, 1], dtype=np.int64)
        b = np.array([5, 5, 5, 6], dtype=np.int64)
        gid = composite_codes([a, b])
        assert gid[0] == gid[1]
        assert len({gid[0], gid[2], gid[3]}) == 3

    def test_first_occurrence_preserves_order(self):
        gids = np.array([7, 3, 7, 3, 9], dtype=np.int64)
        assert first_occurrence_indices(gids).tolist() == [0, 1, 4]

    def test_hash_join_indices_probe_major_build_order(self):
        left = [np.array([1, 2, 1], dtype=np.int64)]
        right = [np.array([1, 1, 2], dtype=np.int64)]
        left_idx, right_idx, build_count = hash_join_indices(left, right)
        assert build_count == 3
        assert left_idx.tolist() == [0, 0, 1, 2, 2]
        assert right_idx.tolist() == [0, 1, 2, 0, 1]

    def test_hash_join_nulls_never_match(self):
        left = [np.array([1, NULL_CODE], dtype=np.int64)]
        right = [np.array([NULL_CODE, 1], dtype=np.int64)]
        left_idx, right_idx, build_count = hash_join_indices(left, right)
        assert build_count == 1
        assert left_idx.tolist() == [0]
        assert right_idx.tolist() == [1]


class TestSortedDistinct:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=-5, max_value=5), max_size=30))
    def test_equals_np_unique(self, values):
        array = np.asarray(values, dtype=np.int64)
        result = sorted_distinct(array)
        assert result.dtype == array.dtype
        assert result.tolist() == np.unique(array).tolist()

    def test_reads_a_strided_column(self):
        codes = np.array([[3, 1], [1, 1], [3, 2]], dtype=np.int64)
        assert sorted_distinct(codes[:, 0]).tolist() == [1, 3]
        assert sorted_distinct(codes[:, 1]).tolist() == [1, 2]


class TestExpressionParity:
    EXPRESSIONS = [
        Comparison("=", ColumnRef("p.city"), Const("NYC")),
        Comparison("!=", ColumnRef("p.city"), Const("NYC")),
        Comparison("is_distinct_from", ColumnRef("p.city"), Const("NYC")),
        Comparison("is_not_distinct_from", ColumnRef("p.city"), Const(None)),
        Comparison("<", ColumnRef("p.pid"), Const(4)),
        Comparison(">=", ColumnRef("p.name"), Const("cat")),
        IsNull(ColumnRef("p.city")),
        IsNull(ColumnRef("p.city"), negated=True),
        And.of(
            Comparison(">", ColumnRef("p.pid"), Const(1)),
            Comparison("=", ColumnRef("p.city"), Const("LA")),
        ),
        Or.of(
            Comparison("=", ColumnRef("p.name"), Const("ann")),
            IsNull(ColumnRef("p.city")),
        ),
        Not(Comparison("=", ColumnRef("p.city"), Const("NYC"))),
        And(()),
        Or(()),
    ]

    @pytest.mark.parametrize("expression", EXPRESSIONS, ids=lambda e: e.to_sql())
    def test_filter_matches_row_engine(self, people, expression):
        rows, cols, _, _ = run_both(
            lambda: Filter(TableScan(people, "p"), expression)
        )
        assert rows == cols


class TestOperatorParity:
    def test_scan(self, people):
        rows, cols, row_plan, col_plan = run_both(lambda: TableScan(people, "p"))
        assert rows == cols
        assert row_plan.rows_scanned == col_plan.rows_scanned == len(people)

    def test_project_with_rename(self, people):
        rows, cols, _, _ = run_both(
            lambda: Project(TableScan(people, "p"), ["p.city", "p.pid"], ["c", "i"])
        )
        assert rows == cols

    def test_hash_join_order_and_counters(self, people, visits):
        def build():
            return HashJoin(
                TableScan(people, "p"),
                TableScan(visits, "v"),
                ["p.city"],
                ["v.city"],
            )

        rows, cols, row_plan, col_plan = run_both(build)
        assert rows == cols
        assert row_plan.build_rows == col_plan.build_rows
        assert row_plan.probe_rows == col_plan.probe_rows

    def test_hash_join_with_residual(self, people, visits):
        rows, cols, _, _ = run_both(
            lambda: HashJoin(
                TableScan(people, "p"),
                TableScan(visits, "v"),
                ["p.city"],
                ["v.city"],
                residual=Comparison(">", ColumnRef("v.score"), Const(2)),
            )
        )
        assert rows == cols

    def test_nested_loop_join(self, people, visits):
        def build():
            return NestedLoopJoin(
                TableScan(people, "p"),
                TableScan(visits, "v"),
                Comparison("=", ColumnRef("p.city"), ColumnRef("v.city")),
            )

        rows, cols, row_plan, col_plan = run_both(build)
        assert rows == cols
        assert row_plan.comparisons == col_plan.comparisons

    def test_nested_loop_cross_product(self, people, visits):
        rows, cols, _, _ = run_both(
            lambda: NestedLoopJoin(TableScan(people, "p"), TableScan(visits, "v"))
        )
        assert rows == cols

    def test_sort_merge_join(self, people, visits):
        rows, cols, _, _ = run_both(
            lambda: SortMergeJoin(
                TableScan(people, "p"),
                TableScan(visits, "v"),
                ["p.city"],
                ["v.city"],
            )
        )
        assert rows == cols

    def test_distinct_keeps_first_occurrence(self, people):
        rows, cols, _, _ = run_both(
            lambda: Distinct(Project(TableScan(people, "p"), ["p.city"]))
        )
        assert rows == cols

    def test_filter_counts_rows_out(self, people):
        rows, cols, row_plan, col_plan = run_both(
            lambda: Filter(TableScan(people, "p"), IsNull(ColumnRef("p.city"), negated=True))
        )
        assert rows == cols
        assert row_plan.rows_out == col_plan.rows_out == 5

    def test_sort_merge_join_with_residual(self, people, visits):
        rows, cols, _, _ = run_both(
            lambda: SortMergeJoin(
                TableScan(people, "p"),
                TableScan(visits, "v"),
                ["p.city"],
                ["v.city"],
                residual=Comparison("<", ColumnRef("p.pid"), ColumnRef("v.score")),
            )
        )
        assert rows == cols and rows

    def test_distinct_over_a_join(self, people, visits):
        rows, cols, _, _ = run_both(
            lambda: Distinct(
                Project(
                    HashJoin(
                        TableScan(people, "p"), TableScan(visits, "v"), ["p.city"], ["v.city"]
                    ),
                    ["p.city", "v.city"],
                )
            )
        )
        assert rows == cols == [("NYC", "NYC"), ("LA", "LA"), ("SF", "SF")]

    def test_nested_loop_over_an_empty_side(self, people):
        empty = make_table("none", [("x", ColumnType.INTEGER)], [])
        for left, right in ((people, empty), (empty, people)):
            rows, cols, row_plan, col_plan = run_both(
                lambda: NestedLoopJoin(TableScan(left, "l"), TableScan(right, "r"))
            )
            assert rows == cols == []
            assert row_plan.comparisons == col_plan.comparisons == 0

    def test_empty_table(self):
        empty = make_table("empty", [("x", ColumnType.INTEGER)], [])
        rows, cols, _, _ = run_both(
            lambda: Filter(
                TableScan(empty, "e"), Comparison("=", ColumnRef("e.x"), Const(1))
            )
        )
        assert rows == cols == []


class TestRandomizedPlanParity:
    """Property test: random data, every optimizer plan shape, ordered parity."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_planned_query_parity(self, seed):
        rng = random.Random(seed)
        db = Database()
        values = [f"v{i}" for i in range(rng.randint(2, 6))]

        def random_rows(count, arity):
            return [
                tuple(
                    [index]
                    + [rng.choice(values + [None]) for _ in range(arity)]
                    + [rng.choice([True, False, None])]
                )
                for index in range(count)
            ]

        schema2 = TableSchema.of(
            ("aid", ColumnType.INTEGER),
            ("arg0", ColumnType.TEXT),
            ("arg1", ColumnType.TEXT),
            ("truth", ColumnType.TRUTH),
        )
        db.create_table("r", schema2)
        db.bulk_load("r", random_rows(rng.randint(0, 40), 2))
        db.create_table("s", schema2)
        db.bulk_load("s", random_rows(rng.randint(0, 40), 2))

        query = ConjunctiveQuery()
        query.add_relation("t0", "r")
        query.add_relation("t1", "s")
        query.add_join("t0.arg1", "t1.arg0")
        if rng.random() < 0.5:
            query.add_constant_filter("t0.truth", "is_distinct_from", True)
        if rng.random() < 0.5:
            query.add_constant_filter("t1.arg1", "=", rng.choice(values))
        if rng.random() < 0.5:
            query.add_column_comparison("t0.arg0", "!=", "t1.arg1")
        query.add_output("t0.aid", "a0")
        query.add_output("t1.aid", "a1")
        query.add_output("t1.truth", "tr")
        query.distinct = rng.random() < 0.3

        for options in (
            OptimizerOptions.full_optimizer(),
            OptimizerOptions.fixed_join_order(),
            OptimizerOptions.nested_loop_only(),
            OptimizerOptions(enable_hash_join=False),  # sort-merge join
            OptimizerOptions(enable_predicate_pushdown=False),
        ):
            oracle_plan, engine_plan = db.plan(query, options), db.plan(query, options)
            assert oracle_rows(oracle_plan) == execute_plan(engine_plan, db.executor).rows
            assert plan_intermediate_tuples(oracle_plan.root) == plan_intermediate_tuples(
                engine_plan.root
            )


class TestIOAccountingParity:
    def test_columnar_scan_charges_same_pages(self):
        def fresh_db():
            db = Database(page_size=16)
            schema = TableSchema.of(
                ("aid", ColumnType.INTEGER), ("arg0", ColumnType.TEXT), ("truth", ColumnType.TRUTH)
            )
            db.create_table("p", schema)
            db.bulk_load(
                "p", [(i, f"c{i % 7}", (True, False, None)[i % 3]) for i in range(100)]
            )
            return db

        def query():
            q = ConjunctiveQuery()
            q.add_relation("t0", "p")
            q.add_relation("t1", "p")
            q.add_join("t0.arg0", "t1.arg0")
            q.add_constant_filter("t0.truth", "is_distinct_from", True)
            q.add_output("t0.aid", "a0")
            q.add_output("t1.aid", "a1")
            return q

        stats = {}
        options = OptimizerOptions(charge_io=True)
        for backend, run in (("row", oracle_rows), ("columnar", execute_plan)):
            db = fresh_db()
            db.reset_io_statistics()
            run(db.plan(query(), options))
            stats[backend] = db.io_statistics().as_dict()
        assert stats["row"] == stats["columnar"]

    def test_columnar_rescan_charges_every_execution(self):
        db = Database(page_size=16)
        schema = TableSchema.of(("x", ColumnType.INTEGER),)
        db.create_table("n", schema)
        db.bulk_load("n", [(i,) for i in range(64)])
        q = ConjunctiveQuery()
        q.add_relation("t0", "n")
        q.add_output("t0.x", "x")
        options = OptimizerOptions(charge_io=True)
        db.reset_io_statistics()
        execute_query(db, q, options)
        first = db.io_statistics().page_reads
        execute_query(db, q, options)
        # The column cache avoids re-encoding but never avoids I/O charges.
        assert db.io_statistics().page_reads == 2 * first


class TestPlanWalk:
    def test_iter_plan_visits_every_operator(self, people, visits):
        plan = Filter(
            HashJoin(
                TableScan(people, "p"), TableScan(visits, "v"), ["p.city"], ["v.city"]
            ),
            Comparison(">", ColumnRef("v.score"), Const(0)),
        )
        kinds = {type(op).__name__ for op in iter_plan(plan)}
        assert kinds == {"Filter", "HashJoin", "TableScan"}


class TestTableVersioning:
    def test_mutations_invalidate_column_cache(self, people):
        context = ColumnarContext()
        first = context.table_columns(people)
        assert context.table_columns(people) is first  # cached
        people.insert((7, "fred", "SF"))
        second = context.table_columns(people)
        assert second is not first
        assert len(second[0]) == len(people)
        people.truncate()
        assert len(context.table_columns(people)[0]) == 0
