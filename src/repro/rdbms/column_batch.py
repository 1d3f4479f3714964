"""Columnar batches: the data representation of the batch execution backend.

The row engine executes a plan as a tree of Python tuple iterators; this
module provides the columnar alternative the executor can run off the very
same :class:`~repro.rdbms.optimizer.PlannedQuery`:

* :class:`ValueEncoder` — a shared dictionary encoding.  Every value the
  engine touches is interned to a small ``int64`` code (``None`` maps to
  :data:`NULL_CODE`).  Because the dictionary is shared across all tables
  and queries of one executor, *code equality is exactly Python value
  equality* (``dict`` lookup uses ``hash``/``==``, the same relation the
  row engine's evaluators use), so equality filters, hash joins and
  duplicate elimination run entirely on integer arrays.  Ordering
  comparisons and sorts decode back to the original values, because code
  order is first-occurrence order, not value order.
* :class:`ColumnBatch` — one column array per schema column plus a
  *selection vector*: filters compose selections instead of copying column
  data, and joins emit gather indices instead of concatenated tuples.
* :class:`ColumnarContext` — per-executor state: the shared encoder and a
  per-table cache of encoded base columns (invalidated by the table's
  ``version`` counter), so a grounding run that issues one query per MLN
  clause pays the encoding cost once per table, not per query.  A table
  loaded with pre-encoded columns (the grounder's atom tables, straight
  from the atom registry, whose dictionary the grounder shares with the
  executor) is not encoded at all.
* The vectorized join/group kernels (:func:`hash_join_indices`,
  :func:`composite_codes`, :func:`first_occurrence_indices`).  They are
  carefully *order-preserving* — probe-major output with build rows in
  insertion order, stable grouping, first-occurrence dedup — so the
  columnar engine reproduces the row engine's output **order**, not just
  its multiset (the grounding pipeline derives clause ids from row order).
"""

from __future__ import annotations

import weakref
from itertools import repeat
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.rdbms.schema import TableSchema

#: Code of SQL NULL / unknown truth.  Never present in the encoder's
#: dictionary; every encoded column may contain it.
NULL_CODE = -1

#: Returned by :meth:`ValueEncoder.lookup` for a value that was never
#: encoded.  Never present in a column array, so comparing a column against
#: it yields all-False — exactly the semantics of comparing against a
#: constant that matches no row.
MISSING_CODE = -2

#: :meth:`ValueEncoder.decode_int64`'s mark for a value that is not an integer.
_NOT_AN_INTEGER = np.iinfo(np.int64).min


class ValueEncoder:
    """Shared dictionary encoding of arbitrary (hashable) values.

    Codes are assigned by first occurrence and never change, so arrays
    encoded at different times remain comparable.  ``bool``/``int``/``float``
    values that compare equal share a code (``dict`` semantics), which is
    precisely the equality relation the row engine's ``==`` uses.
    """

    __slots__ = ("_codes", "_values", "_mirror", "_integers")

    def __init__(self) -> None:
        self._codes: Dict[Any, int] = {}
        # Slot 0 decodes NULL_CODE (indexing is ``code + 1``).
        self._values: List[Any] = [None]
        self._mirror: Optional["np.ndarray"] = None
        # ``_values`` as int64 (``_NOT_AN_INTEGER`` where a value is not
        # one), extended as values are interned; see :meth:`decode_int64`.
        self._integers = np.empty(0, dtype=np.int64)

    def __len__(self) -> int:
        return len(self._codes)

    def encode_scalar(self, value: Any) -> int:
        """The code of one value, interning it if unseen."""
        if value is None:
            return NULL_CODE
        code = self._codes.get(value)
        if code is None:
            code = len(self._codes)
            self._codes[value] = code
            self._values.append(value)
            self._mirror = None
        return code

    def lookup(self, value: Any) -> int:
        """The code of a value without interning (``MISSING_CODE`` if unseen)."""
        if value is None:
            return NULL_CODE
        return self._codes.get(value, MISSING_CODE)

    def encode_values(self, values: Sequence[Any]) -> "np.ndarray":
        """Encode a whole column to an ``int64`` code array.

        Unseen values are interned in first-occurrence order — the codes
        repeated :meth:`encode_scalar` calls would assign — and the lookups
        run as one ``map`` over the column, not a Python loop.
        """
        values = values if isinstance(values, list) else list(values)
        table = self._codes
        fresh = [
            value
            for value in dict.fromkeys(values)
            if value is not None and value not in table
        ]
        if fresh:
            table.update(zip(fresh, range(len(table), len(table) + len(fresh))))
            self._values.extend(fresh)
            self._mirror = None
        return np.fromiter(
            map(table.get, values, repeat(NULL_CODE)), dtype=np.int64, count=len(values)
        )

    def translate(self, codes: "np.ndarray", source: "ValueEncoder") -> "np.ndarray":
        """Codes of another encoder's values, re-encoded into this one."""
        if source is self:
            return codes
        mapping = np.append(self.encode_values(source._values[1:]), NULL_CODE)
        # NULL_CODE (-1) indexes the appended NULL entry.
        return mapping[np.asarray(codes, dtype=np.int64)]

    def decode_scalar(self, code: int) -> Any:
        if code == NULL_CODE:
            return None
        return self._values[code + 1]

    def decode(self, codes: "np.ndarray") -> "np.ndarray":
        """Decode a code array to an object array of the original values."""
        mirror = self._mirror
        if mirror is None or len(mirror) != len(self._values):
            mirror = np.empty(len(self._values), dtype=object)
            mirror[:] = self._values
            self._mirror = mirror
        return mirror[np.asarray(codes, dtype=np.int64) + 1]

    def decode_list(self, codes: "np.ndarray") -> List[Any]:
        return self.decode(codes).tolist()

    def decode_int64(self, codes: "np.ndarray") -> "np.ndarray":
        """Decode codes of integer values straight to an ``int64`` array.

        :meth:`decode` without an object array per call: the dictionary's
        values are mirrored as int64 once, each call converting only those
        interned since the last.  Raises ``ValueError`` if a code decodes
        to ``None`` or to a value that is not an integer.
        """
        integers = self._integers
        if len(integers) < len(self._values):
            values = self._values[len(integers) :]
            fresh = np.fromiter(values, dtype=object, count=len(values))
            is_integer = np.fromiter(
                map(isinstance, values, repeat(int)), dtype=bool, count=len(values)
            )
            extension = np.full(len(fresh), _NOT_AN_INTEGER, dtype=np.int64)
            extension[is_integer] = fresh[is_integer].astype(np.int64)
            integers = self._integers = np.concatenate((integers, extension))
        decoded = integers[np.asarray(codes, dtype=np.int64) + 1]
        if (decoded == _NOT_AN_INTEGER).any():
            raise ValueError("decode_int64: a code decodes to a non-integer value")
        return decoded


class ColumnBatch:
    """A batch of rows in columnar form.

    ``columns`` holds one ``int64`` code array per schema column, all of
    the same base length; ``selection`` (when set) is an index array into
    those base arrays giving the batch's logical rows, in order.  Filters
    and gathers compose the selection; ``materialize`` applies it.
    """

    __slots__ = ("schema", "columns", "selection", "_gathered")

    def __init__(
        self,
        schema: TableSchema,
        columns: Sequence["np.ndarray"],
        selection: Optional["np.ndarray"] = None,
    ) -> None:
        self.schema = schema
        self.columns = list(columns)
        self.selection = selection
        self._gathered: Dict[int, "np.ndarray"] = {}

    @property
    def length(self) -> int:
        if self.selection is not None:
            return len(self.selection)
        return len(self.columns[0]) if self.columns else 0

    def column_codes(self, position: int) -> "np.ndarray":
        """The code array of one column with the selection applied."""
        column = self.columns[position]
        if self.selection is None:
            return column
        gathered = self._gathered.get(position)
        if gathered is None:
            gathered = column[self.selection]
            self._gathered[position] = gathered
        return gathered

    def filter(self, mask: "np.ndarray") -> "ColumnBatch":
        """Keep the rows where ``mask`` is True (stable)."""
        if self.selection is None:
            selection = np.nonzero(mask)[0]
        else:
            selection = self.selection[mask]
        return ColumnBatch(self.schema, self.columns, selection)

    def take(self, indices: "np.ndarray") -> "ColumnBatch":
        """Gather rows by position within the batch (duplicates allowed)."""
        indices = np.asarray(indices, dtype=np.intp)
        if self.selection is None:
            selection = indices
        else:
            selection = self.selection[indices]
        return ColumnBatch(self.schema, self.columns, selection)

    def materialize(self) -> "ColumnBatch":
        """Apply the selection, yielding a batch with identity selection."""
        if self.selection is None:
            return self
        return ColumnBatch(
            self.schema, [self.column_codes(i) for i in range(len(self.columns))]
        )

    def select_columns(
        self, positions: Sequence[int], schema: TableSchema
    ) -> "ColumnBatch":
        """Project to a subset (or reordering) of columns under a new schema."""
        return ColumnBatch(schema, [self.columns[p] for p in positions], self.selection)

    def to_rows(self, encoder: ValueEncoder) -> List[Tuple[Any, ...]]:
        """Decode the batch back to the row engine's list-of-tuples form."""
        if self.length == 0:
            return []
        decoded = [
            encoder.decode_list(self.column_codes(i)) for i in range(len(self.columns))
        ]
        return list(zip(*decoded))


def concat_batches(
    left: ColumnBatch, right: ColumnBatch, schema: TableSchema
) -> ColumnBatch:
    """Combine two equal-length batches side by side (join output)."""
    left = left.materialize()
    right = right.materialize()
    return ColumnBatch(schema, left.columns + right.columns)


def empty_batch(schema: TableSchema) -> ColumnBatch:
    return ColumnBatch(schema, [np.empty(0, dtype=np.int64) for _ in range(len(schema))])


class ColumnarContext:
    """Per-executor columnar state: the encoder and the base-column cache."""

    def __init__(self, encoder: Optional[ValueEncoder] = None) -> None:
        self.encoder = encoder if encoder is not None else ValueEncoder()
        self._table_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def table_columns(self, table) -> List["np.ndarray"]:
        """Encoded base columns of a table, cached per table version."""
        version = getattr(table, "version", None)
        cached = self._table_cache.get(table)
        if (
            cached is not None
            and cached[0] == version
            and cached[1] == len(table)
        ):
            return cached[2]
        columns = getattr(table, "encoded", None)
        if columns is None:
            # No producer handed over encoded columns: encode the rows.
            rows = table.rows
            columns = [
                self.encoder.encode_values([row[position] for row in rows])
                for position in range(len(table.schema))
            ]
        self._table_cache[table] = (version, len(table), columns)
        return columns

    def batch_from_rows(
        self, schema: TableSchema, rows: Iterable[Tuple[Any, ...]]
    ) -> ColumnBatch:
        """Encode precomputed rows (fallback operators, ``Materialize``)."""
        rows = list(rows)
        columns = [
            self.encoder.encode_values([row[position] for row in rows])
            for position in range(len(schema))
        ]
        return ColumnBatch(schema, columns)


# ----------------------------------------------------------------------
# Vectorized kernels (all order-preserving; see module docstring)
# ----------------------------------------------------------------------


def composite_codes(key_columns: Sequence["np.ndarray"]) -> "np.ndarray":
    """Collapse several code columns into one comparable group-id column.

    Two rows receive the same group id iff they agree on every key column
    (including NULLs, which behave as an ordinary distinct value — the
    semantics duplicate elimination needs).  Group ids are dense ranks in
    an arbitrary but internally consistent order; they are suitable for
    grouping and equality, not for ordering by value.
    """
    gid = np.asarray(key_columns[0], dtype=np.int64)
    for nxt in key_columns[1:]:
        n = len(gid)
        if n == 0:
            return gid
        order = np.lexsort((nxt, gid))
        sorted_a = gid[order]
        sorted_b = nxt[order]
        boundary = np.empty(n, dtype=bool)
        boundary[0] = True
        boundary[1:] = (sorted_a[1:] != sorted_a[:-1]) | (sorted_b[1:] != sorted_b[:-1])
        ranks = np.cumsum(boundary) - 1
        gid = np.empty(n, dtype=np.int64)
        gid[order] = ranks
    return gid


def first_occurrence_indices(gids: "np.ndarray") -> "np.ndarray":
    """Row positions of the first occurrence of each group id, in row order."""
    n = len(gids)
    if n == 0:
        return np.empty(0, dtype=np.intp)
    order = np.argsort(gids, kind="stable")
    sorted_gids = gids[order]
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    boundary[1:] = sorted_gids[1:] != sorted_gids[:-1]
    return np.sort(order[boundary])


def group_slices(gids: "np.ndarray") -> List[Tuple[int, "np.ndarray"]]:
    """Group rows by group id, in first-occurrence order.

    Returns ``(gid, member_row_positions)`` pairs where groups appear in
    the order their first row appears and each group's members are in row
    order — exactly the nesting the row engine's dict-based ``Aggregate``
    produces.  One stable argsort instead of a Python dict fill.
    """
    n = len(gids)
    if n == 0:
        return []
    order = np.argsort(gids, kind="stable")
    sorted_gids = gids[order]
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    boundary[1:] = sorted_gids[1:] != sorted_gids[:-1]
    starts = np.nonzero(boundary)[0]
    ends = np.append(starts[1:], n)
    groups = [
        (int(sorted_gids[start]), order[start:end])
        for start, end in zip(starts, ends)
    ]
    # First-occurrence order == ascending first member position.
    groups.sort(key=lambda item: int(item[1][0]))
    return groups


def hash_join_indices(
    left_keys: Sequence["np.ndarray"], right_keys: Sequence["np.ndarray"]
) -> Tuple["np.ndarray", "np.ndarray", int]:
    """Equality-join two sides on code columns, emitting gather indices.

    Returns ``(left_idx, right_idx, build_count)`` where the pairs
    reproduce the row engine's hash join output order exactly: probe
    (left) rows in their original order, and for each probe row its build
    (right) matches in build-side insertion order.  Rows with a NULL in
    any key column never match (both sides); ``build_count`` is the number
    of non-NULL-key build rows (the row engine's ``build_rows`` counter).
    """
    n_left = len(left_keys[0])
    left_valid = np.ones(n_left, dtype=bool)
    for column in left_keys:
        left_valid &= column != NULL_CODE
    right_valid = np.ones(len(right_keys[0]), dtype=bool)
    for column in right_keys:
        right_valid &= column != NULL_CODE
    build_count = int(right_valid.sum())
    empty = np.empty(0, dtype=np.intp)
    if build_count == 0 or not left_valid.any():
        return empty, empty, build_count

    if len(left_keys) == 1:
        gid_left = np.asarray(left_keys[0], dtype=np.int64)
        gid_right = np.asarray(right_keys[0], dtype=np.int64)
    else:
        combined = composite_codes(
            [np.concatenate((l, r)) for l, r in zip(left_keys, right_keys)]
        )
        gid_left = combined[:n_left]
        gid_right = combined[n_left:]

    build_rows = np.nonzero(right_valid)[0]
    build_gids = gid_right[build_rows]
    order = np.argsort(build_gids, kind="stable")
    sorted_rows = build_rows[order]
    sorted_gids = build_gids[order]
    boundary = np.empty(len(sorted_gids), dtype=bool)
    boundary[0] = True
    boundary[1:] = sorted_gids[1:] != sorted_gids[:-1]
    group_starts = np.nonzero(boundary)[0]
    group_keys = sorted_gids[group_starts]
    group_counts = np.diff(np.append(group_starts, len(sorted_gids)))

    probe_rows = np.nonzero(left_valid)[0]
    probe_gids = gid_left[probe_rows]
    positions = np.searchsorted(group_keys, probe_gids)
    clipped = np.minimum(positions, len(group_keys) - 1)
    matched = group_keys[clipped] == probe_gids
    counts = np.where(matched, group_counts[clipped], 0)
    total = int(counts.sum())
    if total == 0:
        return empty, empty, build_count

    left_idx = np.repeat(probe_rows, counts)
    starts = np.repeat(group_starts[clipped], counts)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    within = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
    right_idx = sorted_rows[starts + within]
    return left_idx.astype(np.intp), right_idx.astype(np.intp), build_count
