"""Query execution: run a physical plan as column batches.

The executor evaluates a :class:`~repro.rdbms.optimizer.PlannedQuery`
with ``root.batch(context)`` over one shared
:class:`~repro.rdbms.column_batch.ColumnarContext` (the dictionary
encoder and the encoded base-column cache).  :meth:`Executor.execute`
decodes the output to rows; :meth:`Executor.execute_batch` hands the
encoded columns to consumers that work on columns (the grounder).  The
output order, operator counters and I/O charges are those of the
tuple-at-a-time iterator model, which ``tests/row_oracle.py`` keeps as
the test oracle over the same plan trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.rdbms.column_batch import ColumnBatch, ColumnarContext, ValueEncoder
from repro.rdbms.operators import PhysicalOperator
from repro.rdbms.optimizer import PlannedQuery
from repro.rdbms.schema import TableSchema
from repro.utils.timer import Stopwatch


@dataclass
class QueryResult:
    """The materialised output of a query execution."""

    schema: TableSchema
    rows: List[Tuple[Any, ...]]
    elapsed_seconds: float

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def column(self, name: str) -> List[Any]:
        position = self.schema.position(name)
        return [row[position] for row in self.rows]

    def as_dicts(self) -> List[dict]:
        names = self.schema.column_names
        return [dict(zip(names, row)) for row in self.rows]


@dataclass
class ColumnarQueryResult:
    """The output of a query execution as encoded columns, not tuples.

    The grounder reads ``column_codes`` and decodes with ``encoder``.
    """

    schema: TableSchema
    batch: ColumnBatch
    encoder: ValueEncoder
    elapsed_seconds: float

    def column_codes(self, name: str):
        return self.batch.column_codes(self.schema.position(name))


class Executor:
    """Runs plans on the columnar engine, timing the execution."""

    def __init__(self) -> None:
        self._context: Optional[ColumnarContext] = None

    def columnar_context(self, encoder: Optional[ValueEncoder] = None) -> ColumnarContext:
        """The executor's shared columnar state (encoder + column caches).

        ``encoder`` is the dictionary to adopt if the context does not
        exist yet — a producer that encodes its tables itself (the
        grounder, with the atom registry's dictionary) passes its own so
        its codes need no translation.  An existing context keeps its own.
        """
        if self._context is None:
            self._context = ColumnarContext(encoder)
        return self._context

    def execute(self, plan: PhysicalOperator | PlannedQuery) -> QueryResult:
        """Execute a plan, decoding its output to rows."""
        root = plan.root if isinstance(plan, PlannedQuery) else plan
        context = self.columnar_context()
        stopwatch = Stopwatch()
        with stopwatch.measure():
            rows = root.batch(context).to_rows(context.encoder)
        return QueryResult(root.output_schema, rows, stopwatch.total)

    def execute_batch(
        self, plan: PhysicalOperator | PlannedQuery
    ) -> ColumnarQueryResult:
        """Execute a plan, returning undecoded columns."""
        root = plan.root if isinstance(plan, PlannedQuery) else plan
        context = self.columnar_context()
        stopwatch = Stopwatch()
        with stopwatch.measure():
            batch = root.batch(context)
        return ColumnarQueryResult(
            root.output_schema, batch, context.encoder, stopwatch.total
        )
