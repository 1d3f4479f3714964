"""Table statistics and cardinality estimation.

The optimizer needs rough estimates of how many rows survive a filter and
how many rows a join produces.  We use the textbook System-R style model:

* selectivity of ``column = constant`` is ``1 / distinct(column)``,
* selectivity of a join predicate ``R.a = S.b`` is
  ``1 / max(distinct(R.a), distinct(S.b))``,
* independent predicates multiply.

These estimates drive greedy join ordering; they do not need to be precise,
only to rank alternatives sensibly — which is also all the paper relies on
from PostgreSQL.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.rdbms.column_batch import NULL_CODE, sorted_distinct
from repro.rdbms.table import Table


@dataclass
class ColumnStatistics:
    """Per-column statistics: distinct values and null fraction."""

    distinct_values: int
    null_fraction: float

    def equality_selectivity(self) -> float:
        """Estimated fraction of rows matching ``column = constant``."""
        if self.distinct_values <= 0:
            return 1.0
        return (1.0 - self.null_fraction) / self.distinct_values


@dataclass
class TableStatistics:
    """Statistics for one table, computed in a single pass."""

    row_count: int
    columns: Dict[str, ColumnStatistics] = field(default_factory=dict)

    @classmethod
    def analyze(cls, table: Table) -> "TableStatistics":
        if table.encoded is not None:
            return cls._analyze_codes(table)
        row_count = len(table)
        columns: Dict[str, ColumnStatistics] = {}
        for column in table.schema.column_names:
            position = table.schema.position(column)
            values = [row[position] for row in table.rows]
            non_null = [value for value in values if value is not None]
            distinct = len(set(non_null))
            null_fraction = 0.0 if row_count == 0 else 1.0 - len(non_null) / row_count
            columns[column] = ColumnStatistics(distinct, null_fraction)
        return cls(row_count, columns)

    @classmethod
    def _analyze_codes(cls, table: Table) -> "TableStatistics":
        """:meth:`analyze` over a table's pre-encoded columns.

        Code equality is value equality, so distinct non-null codes count
        distinct non-null values; the rows are never built.
        """
        row_count = len(table)
        columns: Dict[str, ColumnStatistics] = {}
        for column, codes in zip(table.schema.column_names, table.encoded):
            present = codes[codes != NULL_CODE]
            distinct = len(sorted_distinct(present))
            null_fraction = 0.0 if row_count == 0 else 1.0 - len(present) / row_count
            columns[column] = ColumnStatistics(distinct, null_fraction)
        return cls(row_count, columns)

    def column(self, name: str) -> ColumnStatistics:
        if name not in self.columns:
            return ColumnStatistics(distinct_values=max(self.row_count, 1), null_fraction=0.0)
        return self.columns[name]


class StatisticsCatalog:
    """Caches :class:`TableStatistics` per table (like ``ANALYZE`` output)."""

    def __init__(self) -> None:
        self._statistics: Dict[str, TableStatistics] = {}

    def analyze(self, table: Table) -> TableStatistics:
        statistics = TableStatistics.analyze(table)
        self._statistics[table.name] = statistics
        return statistics

    def get(self, table_name: str) -> Optional[TableStatistics]:
        return self._statistics.get(table_name)

    def get_or_analyze(self, table: Table) -> TableStatistics:
        existing = self._statistics.get(table.name)
        if existing is not None and existing.row_count == len(table):
            return existing
        return self.analyze(table)

    def invalidate(self, table_name: str) -> None:
        self._statistics.pop(table_name, None)


def estimate_filter_selectivity(
    statistics: TableStatistics, equality_columns: list[str]
) -> float:
    """Combined selectivity of constant-equality filters on the given columns."""
    selectivity = 1.0
    for column in equality_columns:
        selectivity *= statistics.column(column).equality_selectivity()
    return max(selectivity, 1e-9)


def estimate_join_cardinality(
    left_rows: float,
    right_rows: float,
    left_distinct: int,
    right_distinct: int,
) -> float:
    """Estimated output size of an equality join."""
    denominator = max(left_distinct, right_distinct, 1)
    return max(left_rows * right_rows / denominator, 1.0)
