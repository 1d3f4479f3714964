"""Physical query operators, evaluated as column batches.

Every operator exposes ``output_schema`` (a
:class:`~repro.rdbms.schema.TableSchema` whose column names are alias
qualified, e.g. ``t0.aid``) and ``batch(context)``, which evaluates the
whole subtree as :class:`~repro.rdbms.column_batch.ColumnBatch` column
arrays: scans materialize (cached, dictionary-encoded) columns once per
table, filters evaluate vectorized masks, joins emit gather indices
instead of concatenated tuples.  The operators are exactly the ones the
optimizer plans.

The output is in tuple-at-a-time order: the rows, row order, operator
counters and per-page I/O charges of the textbook iterator model, which
lives in ``tests/row_oracle.py`` as the test oracle over the same plan
trees.  The grounding pipeline derives clause ids from row order.

The three join algorithms — nested-loop, hash and sort-merge — are all
implemented because the paper's lesion study (Table 6) shows that the choice
of join algorithm is the single biggest factor in Tuffy's grounding speed;
the optimizer picks among them subject to the lesion knobs.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.rdbms.column_batch import (
    ColumnBatch,
    ColumnarContext,
    composite_codes,
    concat_batches,
    empty_batch,
    first_occurrence_indices,
    hash_join_indices,
)
from repro.rdbms.expressions import Expression
from repro.rdbms.schema import Column, TableSchema
from repro.rdbms.table import Table

#: Upper bound on the number of candidate pairs a columnar nested-loop join
#: materialises at once (the index arrays are processed in outer-row blocks).
NESTED_LOOP_BLOCK_PAIRS = 1 << 18


def iter_plan(root: "PhysicalOperator") -> Iterator["PhysicalOperator"]:
    """Every operator of a plan tree (root included), in no particular order."""
    stack = [root]
    while stack:
        operator = stack.pop()
        yield operator
        for attribute in ("child", "left", "right"):
            node = getattr(operator, attribute, None)
            if isinstance(node, PhysicalOperator):
                stack.append(node)


class PhysicalOperator:
    """Base class for physical operators."""

    output_schema: TableSchema

    def batch(self, context: ColumnarContext) -> ColumnBatch:
        """Evaluate the subtree as a column batch."""
        raise NotImplementedError

    def explain(self, indent: int = 0) -> str:
        """A one-operator-per-line textual plan, like ``EXPLAIN``."""
        raise NotImplementedError


def _value_sort_non_null(
    batch: ColumnBatch, key_positions: Sequence[int], encoder
) -> "np.ndarray":
    """Row positions with no NULL key, stably sorted by decoded key values.

    Sort-merge needs *value* order (the merge compares keys with ``<``),
    which dictionary codes cannot provide, so this decodes the keys and
    sorts with Python's stable sort on the decoded tuples.
    """
    decoded = [encoder.decode_list(batch.column_codes(p)) for p in key_positions]
    valid = [
        i
        for i in range(batch.length)
        if all(column[i] is not None for column in decoded)
    ]
    valid.sort(key=lambda i: tuple(column[i] for column in decoded))
    return np.asarray(valid, dtype=np.intp)


def _qualified_schema(table: Table, alias: str) -> TableSchema:
    return TableSchema(
        tuple(
            Column(f"{alias}.{column.name}", column.column_type)
            for column in table.schema.columns
        )
    )


class TableScan(PhysicalOperator):
    """Sequential scan of a base table under an alias."""

    def __init__(self, table: Table, alias: str, charge_io: bool = False) -> None:
        self.table = table
        self.alias = alias
        self.charge_io = charge_io
        self.output_schema = _qualified_schema(table, alias)
        self.rows_scanned = 0

    def batch(self, context: ColumnarContext) -> ColumnBatch:
        if self.charge_io and self.table.storage is not None:
            # The column cache makes re-materialisation free, but every scan
            # still pays the same per-page charges as a row scan.
            self.table.storage.charge_scan(self.table.name)
        self.rows_scanned += len(self.table)
        return ColumnBatch(self.output_schema, context.table_columns(self.table))

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        return f"{pad}SeqScan {self.table.name} AS {self.alias} (rows={len(self.table)})"


class Filter(PhysicalOperator):
    """Keeps only rows satisfying an expression."""

    def __init__(self, child: PhysicalOperator, expression: Expression) -> None:
        self.child = child
        self.expression = expression
        self.output_schema = child.output_schema
        self.rows_out = 0

    def batch(self, context: ColumnarContext) -> ColumnBatch:
        child = self.child.batch(context)
        evaluate = self.expression.bind_batch(self.child.output_schema, context.encoder)
        result = child.filter(evaluate(child))
        self.rows_out += result.length
        return result

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        return (
            f"{pad}Filter ({self.expression.to_sql()})\n"
            + self.child.explain(indent + 1)
        )


class Project(PhysicalOperator):
    """Projects (and optionally renames) a subset of columns."""

    def __init__(
        self,
        child: PhysicalOperator,
        columns: Sequence[str],
        output_names: Optional[Sequence[str]] = None,
    ) -> None:
        self.child = child
        self.columns = list(columns)
        names = list(output_names) if output_names is not None else self.columns
        if len(names) != len(self.columns):
            raise ValueError("output_names must match columns in length")
        self._positions = [child.output_schema.position(column) for column in self.columns]
        source_columns = [child.output_schema.column(column) for column in self.columns]
        self.output_schema = TableSchema(
            tuple(
                Column(name, source.column_type)
                for name, source in zip(names, source_columns)
            )
        )

    def batch(self, context: ColumnarContext) -> ColumnBatch:
        return self.child.batch(context).select_columns(
            self._positions, self.output_schema
        )

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        return (
            f"{pad}Project [{', '.join(self.columns)}]\n"
            + self.child.explain(indent + 1)
        )


class NestedLoopJoin(PhysicalOperator):
    """The naive join: for each outer row, scan the (materialised) inner side."""

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        condition: Optional[Expression] = None,
    ) -> None:
        self.left = left
        self.right = right
        self.condition = condition
        self.output_schema = left.output_schema.concat(right.output_schema)
        self.comparisons = 0

    def batch(self, context: ColumnarContext) -> ColumnBatch:
        # The inner (right) side runs before the outer side, as in the
        # iterator model: the same page-access order, so the same charges.
        inner = self.right.batch(context).materialize()
        outer = self.left.batch(context).materialize()
        outer_count, inner_count = outer.length, inner.length
        self.comparisons += outer_count * inner_count
        schema = self.output_schema
        if outer_count == 0 or inner_count == 0:
            return empty_batch(schema)
        evaluate = (
            self.condition.bind_batch(schema, context.encoder)
            if self.condition is not None
            else None
        )
        inner_range = np.arange(inner_count, dtype=np.intp)
        block = max(1, NESTED_LOOP_BLOCK_PAIRS // inner_count)
        kept_left: List["np.ndarray"] = []
        kept_right: List["np.ndarray"] = []
        for start in range(0, outer_count, block):
            stop = min(start + block, outer_count)
            left_idx = np.repeat(np.arange(start, stop, dtype=np.intp), inner_count)
            right_idx = np.tile(inner_range, stop - start)
            if evaluate is not None:
                chunk = concat_batches(
                    outer.take(left_idx), inner.take(right_idx), schema
                )
                mask = evaluate(chunk)
                left_idx = left_idx[mask]
                right_idx = right_idx[mask]
            kept_left.append(left_idx)
            kept_right.append(right_idx)
        return concat_batches(
            outer.take(np.concatenate(kept_left)),
            inner.take(np.concatenate(kept_right)),
            schema,
        )

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        condition = self.condition.to_sql() if self.condition is not None else "TRUE"
        return (
            f"{pad}NestedLoopJoin ON {condition}\n"
            + self.left.explain(indent + 1)
            + "\n"
            + self.right.explain(indent + 1)
        )


class HashJoin(PhysicalOperator):
    """Equality hash join, building on the right side.

    ``left_keys`` / ``right_keys`` are column names in the respective child
    schemas; ``residual`` is an optional extra condition evaluated on the
    concatenated row (for non-equality parts of the join predicate).
    """

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        left_keys: Sequence[str],
        right_keys: Sequence[str],
        residual: Optional[Expression] = None,
    ) -> None:
        if len(left_keys) != len(right_keys) or not left_keys:
            raise ValueError("hash join requires matching, non-empty key lists")
        self.left = left
        self.right = right
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        self.residual = residual
        self.output_schema = left.output_schema.concat(right.output_schema)
        self._left_positions = [left.output_schema.position(key) for key in self.left_keys]
        self._right_positions = [right.output_schema.position(key) for key in self.right_keys]
        self.build_rows = 0
        self.probe_rows = 0

    def batch(self, context: ColumnarContext) -> ColumnBatch:
        # Build (right) side first, as in the iterator model.
        build = self.right.batch(context).materialize()
        probe = self.left.batch(context).materialize()
        self.probe_rows += probe.length
        left_idx, right_idx, build_count = hash_join_indices(
            [probe.column_codes(p) for p in self._left_positions],
            [build.column_codes(p) for p in self._right_positions],
        )
        self.build_rows += build_count
        combined = concat_batches(
            probe.take(left_idx), build.take(right_idx), self.output_schema
        )
        if self.residual is not None:
            evaluate = self.residual.bind_batch(self.output_schema, context.encoder)
            combined = combined.filter(evaluate(combined))
        return combined

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        keys = ", ".join(
            f"{left} = {right}" for left, right in zip(self.left_keys, self.right_keys)
        )
        return (
            f"{pad}HashJoin ON {keys}\n"
            + self.left.explain(indent + 1)
            + "\n"
            + self.right.explain(indent + 1)
        )


class SortMergeJoin(PhysicalOperator):
    """Equality join by sorting both inputs on the join keys and merging."""

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        left_keys: Sequence[str],
        right_keys: Sequence[str],
        residual: Optional[Expression] = None,
    ) -> None:
        if len(left_keys) != len(right_keys) or not left_keys:
            raise ValueError("sort-merge join requires matching, non-empty key lists")
        self.left = left
        self.right = right
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        self.residual = residual
        self.output_schema = left.output_schema.concat(right.output_schema)
        self._left_positions = [left.output_schema.position(key) for key in self.left_keys]
        self._right_positions = [right.output_schema.position(key) for key in self.right_keys]

    def batch(self, context: ColumnarContext) -> ColumnBatch:
        left = self.left.batch(context).materialize()
        right = self.right.batch(context).materialize()
        left_sorted = _value_sort_non_null(left, self._left_positions, context.encoder)
        right_sorted = _value_sort_non_null(right, self._right_positions, context.encoder)
        # On the sorted sides equal keys are contiguous, so probing the
        # sorted left against grouped sorted right reproduces the merge
        # loop's output order (left-run-major, right rows in sorted order).
        left_pairs, right_pairs, _ = hash_join_indices(
            [left.column_codes(p)[left_sorted] for p in self._left_positions],
            [right.column_codes(p)[right_sorted] for p in self._right_positions],
        )
        combined = concat_batches(
            left.take(left_sorted[left_pairs]),
            right.take(right_sorted[right_pairs]),
            self.output_schema,
        )
        if self.residual is not None:
            evaluate = self.residual.bind_batch(self.output_schema, context.encoder)
            combined = combined.filter(evaluate(combined))
        return combined

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        keys = ", ".join(
            f"{left} = {right}" for left, right in zip(self.left_keys, self.right_keys)
        )
        return (
            f"{pad}SortMergeJoin ON {keys}\n"
            + self.left.explain(indent + 1)
            + "\n"
            + self.right.explain(indent + 1)
        )


class Distinct(PhysicalOperator):
    """Removes duplicate rows (hash based, preserves first occurrence order)."""

    def __init__(self, child: PhysicalOperator) -> None:
        self.child = child
        self.output_schema = child.output_schema

    def batch(self, context: ColumnarContext) -> ColumnBatch:
        child = self.child.batch(context).materialize()
        if child.length == 0:
            return child
        group_ids = composite_codes(
            [child.column_codes(i) for i in range(len(child.columns))]
        )
        return child.take(first_occurrence_indices(group_ids))

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        return f"{pad}Distinct\n" + self.child.explain(indent + 1)
