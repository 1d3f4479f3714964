"""Query execution: drain a physical plan into rows, columns, or a table.

The executor runs either of two engines off the same
:class:`~repro.rdbms.optimizer.PlannedQuery`:

* the **row engine** — the original tuple-at-a-time iterator model, kept as
  the executable specification of the engine's semantics;
* the **columnar engine** — batch-at-a-time evaluation over
  :class:`~repro.rdbms.column_batch.ColumnBatch` arrays, order-identical to
  the row engine (the parity suite proves identical rows, in identical
  order, for every optimizer plan shape).

Backend selection mirrors the search kernel's ``resolve_backend`` seam:
``execution_backend`` is ``auto`` | ``row`` | ``columnar``, where ``auto``
resolves to ``columnar`` iff the plan scans at least one base table with
>= :data:`COLUMNAR_AUTO_MIN_ROWS` rows (below that the numpy dispatch and
dictionary-encoding overheads cannot amortize; the crossover was measured
on the generated grounding workloads).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.rdbms.column_batch import ColumnBatch, ColumnarContext, ValueEncoder
from repro.rdbms.operators import PhysicalOperator, TableScan, iter_plan
from repro.rdbms.optimizer import PlannedQuery
from repro.rdbms.schema import TableSchema
from repro.rdbms.table import Table
from repro.utils.timer import Stopwatch

#: Valid values for the ``execution_backend`` option of the executor, the
#: Database facade, the bottom-up grounder and the engine config.
EXECUTION_BACKENDS = ("auto", "row", "columnar")

#: Under ``auto``, the columnar engine engages only when some base table of
#: the plan has at least this many rows.  Measured on this container with a
#: cold two-way self-join (one-time dictionary encoding included): break-even
#: at ~64 rows, ~1.7x ahead at 128, 2-5x beyond; with the per-table column
#: cache warm (one query per MLN clause over shared atom tables) it wins at
#: every size.  Kept a little above the cold break-even so tiny tables stay
#: on the (allocation-free) row engine, mirroring VECTOR_AUTO_MIN_CLAUSES
#: in the search kernel.  Selection only: results are identical on both
#: engines.
COLUMNAR_AUTO_MIN_ROWS = 128


def resolve_execution_backend(
    plan: PhysicalOperator | PlannedQuery, backend: str = "auto"
) -> str:
    """Resolve a requested backend name to a concrete one for this plan.

    ``auto`` picks ``columnar`` when the plan scans a base table of at
    least ``COLUMNAR_AUTO_MIN_ROWS`` rows, else ``row``.
    Both backends produce identical results (the parity suite enforces it),
    so the choice is purely a performance decision.
    """
    if backend not in EXECUTION_BACKENDS:
        raise ValueError(
            f"unknown execution backend {backend!r}; expected one of {EXECUTION_BACKENDS}"
        )
    if backend != "auto":
        return backend
    root = plan.root if isinstance(plan, PlannedQuery) else plan
    largest = max(
        (len(op.table) for op in iter_plan(root) if isinstance(op, TableScan)),
        default=0,
    )
    return "columnar" if largest >= COLUMNAR_AUTO_MIN_ROWS else "row"


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
    """The output of a columnar execution: encoded columns, not tuples.

    Consumers that can work on columns directly (the batched grounding
    consumer) read ``column_codes``; ``to_rows``/``column`` decode back to
    the row representation.
    """

    schema: TableSchema
    batch: ColumnBatch
    encoder: ValueEncoder
    elapsed_seconds: float

    def __len__(self) -> int:
        return self.batch.length

    def column_codes(self, name: str):
        return self.batch.column_codes(self.schema.position(name))

    def column(self, name: str) -> List[Any]:
        return self.encoder.decode_list(self.column_codes(name))

    def to_rows(self) -> List[Tuple[Any, ...]]:
        return self.batch.to_rows(self.encoder)


class Executor:
    """Runs plans on the resolved execution backend, timing the execution."""

    def __init__(self, execution_backend: str = "auto") -> None:
        if execution_backend not in EXECUTION_BACKENDS:
            raise ValueError(
                f"unknown execution backend {execution_backend!r}; "
                f"expected one of {EXECUTION_BACKENDS}"
            )
        self.execution_backend = execution_backend
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

    def resolve_backend(
        self, plan: PhysicalOperator | PlannedQuery, backend: Optional[str] = None
    ) -> str:
        return resolve_execution_backend(plan, backend or self.execution_backend)

    def execute(
        self,
        plan: PhysicalOperator | PlannedQuery,
        backend: Optional[str] = None,
    ) -> QueryResult:
        root = plan.root if isinstance(plan, PlannedQuery) else plan
        resolved = self.resolve_backend(root, backend)
        stopwatch = Stopwatch()
        if resolved == "columnar":
            context = self.columnar_context()
            with stopwatch.measure():
                rows = root.batch(context).to_rows(context.encoder)
        else:
            with stopwatch.measure():
                rows = root.rows()
        return QueryResult(root.output_schema, rows, stopwatch.total)

    def execute_batch(
        self, plan: PhysicalOperator | PlannedQuery
    ) -> ColumnarQueryResult:
        """Execute on the columnar engine, returning undecoded columns."""
        root = plan.root if isinstance(plan, PlannedQuery) else plan
        context = self.columnar_context()
        stopwatch = Stopwatch()
        with stopwatch.measure():
            batch = root.batch(context)
        return ColumnarQueryResult(
            root.output_schema, batch, context.encoder, stopwatch.total
        )

    def execute_into(
        self,
        plan: PhysicalOperator | PlannedQuery,
        target: Table,
        truncate: bool = False,
        backend: Optional[str] = None,
    ) -> QueryResult:
        """Execute a plan and bulk-load the result into an existing table.

        The target table's schema must have the same number of columns as the
        plan output; values are coerced to the target column types, which is
        how the grounding pipeline writes ground clauses into the clause
        table.
        """
        result = self.execute(plan, backend=backend)
        if truncate:
            target.truncate()
        target.bulk_load(result.rows)
        return result
