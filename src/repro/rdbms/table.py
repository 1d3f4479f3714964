"""Tables: schema + rows, optionally backed by the storage manager.

A table's rows may be *deferred*: a producer that can say how many rows it
loads, and build them on request, calls :meth:`Table.bulk_load_deferred`.
The storage manager charges the load from the row count alone (the same
pages, page writes and simulated seconds a row-by-row load pays), and the
row tuples are built the first time a reader asks for ``rows`` — a row
scan, the row execution engine, ``iter(table)``.  A deferred load may also
hand over the table's columns already encoded in the owning database's
columnar dictionary (``encoded``), which the columnar engine reads in place
of encoding the rows; the atom tables of the bottom-up grounder are loaded
this way, straight from the atom registry's columns.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.rdbms.schema import TableSchema
from repro.rdbms.storage import StorageManager

class Table:
    """A named relation.

    Rows are stored as plain tuples in insertion order.  When a
    :class:`~repro.rdbms.storage.StorageManager` is attached, rows are also
    materialised into pages so that scans and random accesses are charged to
    the buffer pool; the in-memory list remains the source of truth for
    correctness, the pages exist for cost accounting and for the Tuffy-mm
    search path.
    """

    def __init__(
        self,
        name: str,
        schema: TableSchema,
        storage: Optional[StorageManager] = None,
    ) -> None:
        self.name = name
        self.schema = schema
        self.storage = storage
        self._rows: List[Tuple[Any, ...]] = []
        #: Deferred loads not yet built: ``(first row number, count, build)``.
        self._pending: List[Tuple[int, int, Callable[[], List[Tuple[Any, ...]]]]] = []
        self._pending_count = 0
        #: The whole table's columns, one code array per schema column in
        #: the owning executor's dictionary, pre-encoded by the producer
        #: (see :meth:`bulk_load_deferred`); cleared by any other mutation.
        self.encoded: Optional[List[Any]] = None
        #: Bumped on every mutation; the columnar executor keys its encoded
        #: column cache on it to detect stale materialisations.
        self.version = 0
        #: Optional logical-contents stamp (see :meth:`stamp_contents`):
        #: producers that fully rebuild the table from some versioned
        #: source record ``(source id, source version, ...)`` here and skip
        #: the rebuild — leaving ``version`` untouched, so downstream
        #: caches (the encoded-column cache) stay warm — when the stamp
        #: still matches.  Any mutation clears it.
        self.contents_stamp: Optional[Tuple[Any, ...]] = None
        if storage is not None:
            storage.create_table(name)

    @property
    def rows(self) -> List[Tuple[Any, ...]]:
        """Every row, in order (deferred rows are built here, once)."""
        if self._pending:
            self._build_pending()
        return self._rows

    def _build_pending(self) -> None:
        pending, self._pending = self._pending, []
        self._pending_count = 0
        for first, count, build in pending:
            rows = build()
            if len(rows) != count:
                raise RuntimeError(
                    f"deferred load of {self.name!r} built {len(rows)} rows, promised {count}"
                )
            self._rows.extend(rows)
            if self.storage is not None:
                self.storage.fill_rows(self.name, first, rows)

    def _mutated(self) -> None:
        self.version += 1
        self.contents_stamp = None
        self.encoded = None

    def stamp_contents(self, stamp: Tuple[Any, ...]) -> None:
        """Record the logical source the current rows were built from."""
        self.contents_stamp = stamp

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(self, row: Sequence[Any]) -> Tuple[Any, ...]:
        """Validate, coerce and append a single row."""
        validated = self.schema.validate_row(row)
        self.rows.append(validated)
        self._mutated()
        if self.storage is not None:
            self.storage.append_row(self.name, validated)
        return validated

    def bulk_load(self, rows: Iterable[Sequence[Any]]) -> int:
        """Append many rows (the standard bulk-loading path for evidence).

        Returns the number of rows loaded.
        """
        validate = self.schema.validate_row
        validated_rows = [validate(row) for row in rows]
        count = len(validated_rows)
        self.rows.extend(validated_rows)
        if count:
            self._mutated()
        if self.storage is not None and validated_rows:
            self.storage.bulk_load(self.name, validated_rows)
        return count

    def bulk_load_deferred(
        self,
        count: int,
        build: Callable[[], List[Tuple[Any, ...]]],
        encoded: Optional[List[Any]] = None,
    ) -> int:
        """Append ``count`` rows that ``build()`` constructs when first read.

        The storage manager charges the load now, from ``count`` alone.
        ``build`` must return exactly ``count`` tuples that already conform
        to the schema (the caller owns the type contract, checked once per
        column rather than once per value) and must not depend on state
        that changes after this call.  ``encoded`` — the table's complete
        contents as code arrays in the owning executor's dictionary
        (:meth:`~repro.rdbms.executor.Executor.columnar_context`) — may
        only accompany a load into an empty table.
        """
        if encoded is not None and len(self):
            raise ValueError("pre-encoded columns must describe the whole table")
        if not count:
            return 0
        first = len(self)
        if self.storage is not None:
            self.storage.reserve_rows(self.name, count)
        self._pending.append((first, count, build))
        self._pending_count += count
        self._mutated()
        self.encoded = encoded
        return count

    def truncate(self) -> None:
        self._rows.clear()
        self._pending.clear()
        self._pending_count = 0
        self._mutated()
        if self.storage is not None:
            self.storage.drop_table(self.name)
            self.storage.create_table(self.name)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows) + self._pending_count

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return iter(self.rows)

    def scan(self, charge_io: bool = False) -> Iterator[Tuple[Any, ...]]:
        """Iterate over all rows, optionally via the storage manager."""
        rows = self.rows
        if charge_io and self.storage is not None:
            return self.storage.scan(self.name)
        return iter(rows)

    def column_values(self, column: str) -> List[Any]:
        """All values of one column, in row order."""
        position = self.schema.position(column)
        return [row[position] for row in self.rows]

    def distinct_count(self, column: str) -> int:
        """Number of distinct non-null values in a column."""
        position = self.schema.position(column)
        return len({row[position] for row in self.rows if row[position] is not None})

    def select(self, predicate) -> List[Tuple[Any, ...]]:
        """Rows satisfying a Python predicate over ``{column: value}`` dicts."""
        names = self.schema.column_names
        return [row for row in self.rows if predicate(dict(zip(names, row)))]

    def as_dicts(self) -> List[Dict[str, Any]]:
        """All rows as dictionaries (testing/debug helper)."""
        names = self.schema.column_names
        return [dict(zip(names, row)) for row in self.rows]

    def page_count(self, page_size: int = 128) -> int:
        """Number of pages this table occupies (for the cost model)."""
        if self.storage is not None:
            return self.storage.page_count(self.name)
        return (len(self) + page_size - 1) // page_size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name!r}, rows={len(self)})"
