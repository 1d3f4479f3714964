"""The Database facade: catalog + storage + optimizer + executor.

This is the object the grounding layer talks to, playing the role PostgreSQL
plays for Tuffy.  It intentionally exposes a narrow interface: create and
bulk-load tables, plan and run conjunctive queries, and report I/O
statistics.  The grounder runs its plans through ``executor.execute_batch``
to read the output as encoded columns.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Sequence

from repro.rdbms.catalog import Catalog
from repro.rdbms.executor import Executor, QueryResult
from repro.rdbms.optimizer import ConjunctiveQuery, Optimizer, OptimizerOptions, PlannedQuery
from repro.rdbms.schema import TableSchema
from repro.rdbms.sql import render_select
from repro.rdbms.stats import StatisticsCatalog, TableStatistics
from repro.rdbms.storage import BufferPool, IOStatistics, StorageManager
from repro.rdbms.table import Table
from repro.utils.clock import SimulatedClock


class Database:
    """An embedded relational database instance."""

    def __init__(
        self,
        page_size: int = 128,
        buffer_pool_pages: int = 4096,
        clock: Optional[SimulatedClock] = None,
        optimizer_options: Optional[OptimizerOptions] = None,
    ) -> None:
        self.clock = clock or SimulatedClock()
        self.buffer_pool = BufferPool(buffer_pool_pages, clock=self.clock)
        self.storage = StorageManager(page_size=page_size, buffer_pool=self.buffer_pool)
        self.catalog = Catalog(storage=self.storage)
        self.statistics = StatisticsCatalog()
        self.optimizer = Optimizer(
            self.catalog.tables(), self.statistics, optimizer_options or OptimizerOptions()
        )
        self.executor = Executor()

    # ------------------------------------------------------------------
    # DDL / DML
    # ------------------------------------------------------------------

    def create_table(self, name: str, schema: TableSchema, replace: bool = False) -> Table:
        return self.catalog.create_table(name, schema, replace=replace)

    def drop_table(self, name: str) -> None:
        self.catalog.drop_table(name)
        self.statistics.invalidate(name)

    def table(self, name: str) -> Table:
        return self.catalog.table(name)

    def has_table(self, name: str) -> bool:
        return name in self.catalog

    def bulk_load(self, name: str, rows: Iterable[Sequence[Any]]) -> int:
        """Bulk-load rows into a table, invalidating its cached statistics.

        Statistics are recomputed lazily by the optimizer's
        ``get_or_analyze`` on the next query that touches the table, so
        loads into tables no query ever reads (e.g. the persisted ground
        clause table) never pay the analyze scan.
        """
        table = self.catalog.table(name)
        count = table.bulk_load(rows)
        self.statistics.invalidate(name)
        return count

    def analyze(self, name: str) -> TableStatistics:
        return self.statistics.analyze(self.catalog.table(name))

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------

    def plan(
        self, query: ConjunctiveQuery, options: Optional[OptimizerOptions] = None
    ) -> PlannedQuery:
        return self.optimizer.plan(query, options)

    def execute(
        self, query: ConjunctiveQuery, options: Optional[OptimizerOptions] = None
    ) -> QueryResult:
        planned = self.optimizer.plan(query, options)
        return self.executor.execute(planned)

    def explain(
        self, query: ConjunctiveQuery, options: Optional[OptimizerOptions] = None
    ) -> str:
        return self.optimizer.plan(query, options).explain()

    def to_sql(self, query: ConjunctiveQuery) -> str:
        """The SQL text Tuffy would have sent to PostgreSQL for this query."""
        return render_select(query)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def io_statistics(self) -> IOStatistics:
        return self.storage.stats

    def reset_io_statistics(self) -> None:
        self.storage.stats.reset()

    def table_sizes(self) -> Dict[str, int]:
        return {table.name: len(table) for table in self.catalog}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Database(tables={self.catalog.table_names()})"
