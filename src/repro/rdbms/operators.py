"""Physical query operators (iterator + batch models).

Every operator exposes ``output_schema`` (a
:class:`~repro.rdbms.schema.TableSchema` whose column names are alias
qualified, e.g. ``t0.aid``) and supports two execution models off the same
plan tree:

* the **iterator model** — operators are iterable, yielding plain tuples;
  the executor drains the root operator.  This is the executable
  specification of the engine's semantics.
* the **batch model** — ``batch(context)`` evaluates the whole subtree as
  :class:`~repro.rdbms.column_batch.ColumnBatch` column arrays: scans
  materialize (cached, dictionary-encoded) columns once per table, filters
  evaluate vectorized masks, joins emit gather indices instead of
  concatenated tuples.  Batch evaluation is *order-identical* to the
  iterator model (same rows, same order, same operator counters, same I/O
  charges for plans without ``Limit``), which the columnar parity suite
  enforces — the grounding pipeline depends on it for bit-identical
  results across backends.

The three join algorithms — nested-loop, hash and sort-merge — are all
implemented because the paper's lesion study (Table 6) shows that the choice
of join algorithm is the single biggest factor in Tuffy's grounding speed;
the optimizer picks among them subject to the lesion knobs.
"""

from __future__ import annotations

import functools
import operator
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.rdbms.column_batch import (
    ColumnBatch,
    ColumnarContext,
    composite_codes,
    concat_batches,
    empty_batch,
    first_occurrence_indices,
    group_slices,
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

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        raise NotImplementedError

    def rows(self) -> List[Tuple[Any, ...]]:
        """Materialise the full output (convenience for tests and executor)."""
        return list(iter(self))

    def batch(self, context: ColumnarContext) -> ColumnBatch:
        """Evaluate the subtree as a column batch.

        The base implementation is the row-engine fallback: drain the
        operator through the iterator model and re-encode the result.  It
        keeps the batch model total over future operator additions at
        row-engine speed (every current operator overrides it with a
        native batch implementation).
        """
        return context.batch_from_rows(self.output_schema, self.rows())

    def explain(self, indent: int = 0) -> str:
        """A one-operator-per-line textual plan, like ``EXPLAIN``."""
        raise NotImplementedError


def _value_sort_non_null(
    batch: ColumnBatch, key_positions: Sequence[int], encoder
) -> "np.ndarray":
    """Row positions with no NULL key, stably sorted by decoded key values.

    Sort-merge needs *value* order (the merge compares keys with ``<``),
    which dictionary codes cannot provide, so this decodes the keys and
    sorts with Python — the same comparisons, stability and cost profile as
    the iterator model's sort.
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

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        for row in self.table.scan(charge_io=self.charge_io):
            self.rows_scanned += 1
            yield row

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
        self._evaluator = expression.bind(child.output_schema)
        self.rows_out = 0

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        evaluate = self._evaluator
        for row in self.child:
            if evaluate(row):
                self.rows_out += 1
                yield row

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

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        positions = self._positions
        for row in self.child:
            yield tuple(row[position] for position in positions)

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
        self._evaluator = condition.bind(self.output_schema) if condition is not None else None
        self.comparisons = 0

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        inner_rows = self.right.rows()
        evaluate = self._evaluator
        for outer in self.left:
            for inner in inner_rows:
                self.comparisons += 1
                combined = outer + inner
                if evaluate is None or evaluate(combined):
                    yield combined

    def batch(self, context: ColumnarContext) -> ColumnBatch:
        # The iterator model materialises the inner (right) side before
        # draining the outer side; evaluating right first preserves the
        # page-access order for I/O accounting parity.
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
        self._residual_evaluator = (
            residual.bind(self.output_schema) if residual is not None else None
        )
        self.build_rows = 0
        self.probe_rows = 0

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        buckets: Dict[Tuple[Any, ...], List[Tuple[Any, ...]]] = {}
        for row in self.right:
            key = tuple(row[position] for position in self._right_positions)
            if any(part is None for part in key):
                continue
            buckets.setdefault(key, []).append(row)
            self.build_rows += 1
        evaluate = self._residual_evaluator
        for row in self.left:
            self.probe_rows += 1
            key = tuple(row[position] for position in self._left_positions)
            if any(part is None for part in key):
                continue
            for match in buckets.get(key, ()):
                combined = row + match
                if evaluate is None or evaluate(combined):
                    yield combined

    def batch(self, context: ColumnarContext) -> ColumnBatch:
        # Build (right) side first, like the iterator model.
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
        self._residual_evaluator = (
            residual.bind(self.output_schema) if residual is not None else None
        )

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        def sort_key(positions: List[int]) -> Callable[[Tuple[Any, ...]], Tuple[Any, ...]]:
            return lambda row: tuple(row[position] for position in positions)

        left_rows = [
            row
            for row in self.left.rows()
            if all(row[position] is not None for position in self._left_positions)
        ]
        right_rows = [
            row
            for row in self.right.rows()
            if all(row[position] is not None for position in self._right_positions)
        ]
        left_rows.sort(key=sort_key(self._left_positions))
        right_rows.sort(key=sort_key(self._right_positions))
        evaluate = self._residual_evaluator

        left_index = 0
        right_index = 0
        while left_index < len(left_rows) and right_index < len(right_rows):
            left_key = tuple(left_rows[left_index][p] for p in self._left_positions)
            right_key = tuple(right_rows[right_index][p] for p in self._right_positions)
            if left_key < right_key:
                left_index += 1
                continue
            if left_key > right_key:
                right_index += 1
                continue
            # Collect the runs of equal keys on both sides and emit the product.
            left_end = left_index
            while (
                left_end < len(left_rows)
                and tuple(left_rows[left_end][p] for p in self._left_positions) == left_key
            ):
                left_end += 1
            right_end = right_index
            while (
                right_end < len(right_rows)
                and tuple(right_rows[right_end][p] for p in self._right_positions) == right_key
            ):
                right_end += 1
            for i in range(left_index, left_end):
                for j in range(right_index, right_end):
                    combined = left_rows[i] + right_rows[j]
                    if evaluate is None or evaluate(combined):
                        yield combined
            left_index = left_end
            right_index = right_end

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

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        seen: set = set()
        for row in self.child:
            if row in seen:
                continue
            seen.add(row)
            yield row

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


class Sort(PhysicalOperator):
    """Sorts the child output on the given columns (ascending)."""

    def __init__(self, child: PhysicalOperator, columns: Sequence[str]) -> None:
        self.child = child
        self.columns = list(columns)
        self.output_schema = child.output_schema
        self._positions = [child.output_schema.position(column) for column in self.columns]

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        rows = self.child.rows()
        rows.sort(key=lambda row: tuple(row[position] for position in self._positions))
        return iter(rows)

    def batch(self, context: ColumnarContext) -> ColumnBatch:
        child = self.child.batch(context).materialize()
        # Sort on decoded values (code order is first-occurrence order) with
        # Python's stable sort, matching the iterator model bit for bit.
        decoded = [
            context.encoder.decode_list(child.column_codes(p)) for p in self._positions
        ]
        order = sorted(
            range(child.length), key=lambda i: tuple(column[i] for column in decoded)
        )
        return child.take(np.asarray(order, dtype=np.intp))

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        return f"{pad}Sort [{', '.join(self.columns)}]\n" + self.child.explain(indent + 1)


class Limit(PhysicalOperator):
    """Stops after the first N rows."""

    def __init__(self, child: PhysicalOperator, count: int) -> None:
        if count < 0:
            raise ValueError("limit must be non-negative")
        self.child = child
        self.count = count
        self.output_schema = child.output_schema

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        produced = 0
        for row in self.child:
            if produced >= self.count:
                return
            produced += 1
            yield row

    def batch(self, context: ColumnarContext) -> ColumnBatch:
        # Batch evaluation is eager: the child runs fully (so its counters
        # and I/O charges differ from the early-stopping iterator model)
        # and the batch is truncated afterwards.  Output rows are identical.
        child = self.child.batch(context)
        return child.take(np.arange(min(self.count, child.length), dtype=np.intp))

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        return f"{pad}Limit {self.count}\n" + self.child.explain(indent + 1)


_AGGREGATES: Dict[str, Callable[[List[Any]], Any]] = {
    "count": lambda values: len(values),
    # A left fold, like every float sum of the core (builtin sum()
    # compensates float rounding since Python 3.12).
    "sum": lambda values: functools.reduce(operator.add, values, 0),
    "min": lambda values: min(values) if values else None,
    "max": lambda values: max(values) if values else None,
    "collect": lambda values: tuple(values),
}


class Aggregate(PhysicalOperator):
    """Group-by aggregation.

    ``aggregates`` is a list of ``(function, input_column, output_name)``
    triples; supported functions are count, sum, min, max and collect
    (PostgreSQL's ``array_agg``, which the paper's grounding uses for
    existential quantifiers).
    """

    def __init__(
        self,
        child: PhysicalOperator,
        group_by: Sequence[str],
        aggregates: Sequence[Tuple[str, str, str]],
    ) -> None:
        self.child = child
        self.group_by = list(group_by)
        self.aggregates = list(aggregates)
        for function, _, _ in self.aggregates:
            if function not in _AGGREGATES:
                raise ValueError(f"unsupported aggregate function {function!r}")
        self._group_positions = [child.output_schema.position(c) for c in self.group_by]
        self._aggregate_positions = [
            child.output_schema.position(input_column)
            for _, input_column, _ in self.aggregates
        ]
        columns = [child.output_schema.column(c) for c in self.group_by]
        from repro.rdbms.types import ColumnType

        output_columns = [Column(column.name, column.column_type) for column in columns]
        output_columns.extend(
            Column(output_name, ColumnType.TEXT) for _, _, output_name in self.aggregates
        )
        self.output_schema = TableSchema(tuple(output_columns))

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        groups: Dict[Tuple[Any, ...], List[Tuple[Any, ...]]] = {}
        order: List[Tuple[Any, ...]] = []
        for row in self.child:
            key = tuple(row[position] for position in self._group_positions)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(row)
        for key in order:
            rows = groups[key]
            outputs: List[Any] = list(key)
            for (function, _, _), position in zip(self.aggregates, self._aggregate_positions):
                values = [row[position] for row in rows if row[position] is not None]
                outputs.append(_AGGREGATES[function](values))
            yield tuple(outputs)

    def batch(self, context: ColumnarContext) -> ColumnBatch:
        """Native batch grouping (``array_agg`` & friends).

        Group ids are computed vectorized over the key code columns and
        grouped with one stable argsort (:func:`group_slices`), so the
        Python work left is one aggregate-function call per group — no
        per-row dict fills.  Output order (groups by first occurrence,
        members in row order) and NULL handling (NULL keys group as
        ordinary values; NULL aggregate inputs are dropped) match the
        iterator model exactly.
        """
        child = self.child.batch(context).materialize()
        n = child.length
        if n == 0:
            return empty_batch(self.output_schema)
        if self._group_positions:
            gids = composite_codes(
                [child.column_codes(p) for p in self._group_positions]
            )
        else:
            gids = np.zeros(n, dtype=np.int64)
        groups = group_slices(gids)
        # group_slices orders groups by first member position, so this is
        # exactly one first row per group, aligned with `groups`.
        first_rows = first_occurrence_indices(gids)
        columns = [
            child.column_codes(position)[first_rows]
            for position in self._group_positions
        ]
        encoder = context.encoder
        for (function, _, _), position in zip(
            self.aggregates, self._aggregate_positions
        ):
            decoded = encoder.decode_list(child.column_codes(position))
            aggregate = _AGGREGATES[function]
            outputs = []
            for _gid, members in groups:
                values = [
                    decoded[row] for row in members.tolist() if decoded[row] is not None
                ]
                outputs.append(aggregate(values))
            columns.append(encoder.encode_values(outputs))
        return ColumnBatch(self.output_schema, columns)

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        spec = ", ".join(f"{fn}({col}) AS {name}" for fn, col, name in self.aggregates)
        return (
            f"{pad}Aggregate GROUP BY [{', '.join(self.group_by)}] [{spec}]\n"
            + self.child.explain(indent + 1)
        )


class Materialize(PhysicalOperator):
    """Wraps precomputed rows as an operator (used by the executor and tests)."""

    def __init__(self, schema: TableSchema, rows: Iterable[Tuple[Any, ...]]) -> None:
        self.output_schema = schema
        self._rows = list(rows)

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return iter(self._rows)

    def batch(self, context: ColumnarContext) -> ColumnBatch:
        return context.batch_from_rows(self.output_schema, self._rows)

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        return f"{pad}Materialize (rows={len(self._rows)})"
