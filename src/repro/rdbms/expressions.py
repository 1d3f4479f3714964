"""Expression trees for filters and join conditions.

``bind`` evaluates an expression against a row and a schema (column names
resolve to positions at bind time for speed); it is the per-row semantics
the test-side row oracle evaluates plans with.  The grounding compiler
only produces comparisons, conjunctions and negations, but the full set
here keeps the engine usable as a standalone component and exercised by
its own tests.

Each node also supports ``bind_batch``, the columnar twin of ``bind``: it
compiles the expression to a vectorized evaluator over a
:class:`~repro.rdbms.column_batch.ColumnBatch`, returning a boolean numpy
mask (predicates) or a code array (value nodes).  Equality and null-safe
comparisons run directly on dictionary codes — code equality is value
equality because the encoder is shared — while ordering comparisons decode
back to values, preserving ``bind``'s Python comparison semantics
exactly (including "NULL compares False" for the standard operators).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Sequence, Tuple

import numpy as np

from repro.rdbms.column_batch import NULL_CODE
from repro.rdbms.schema import TableSchema
from repro.rdbms.types import format_value

BoundEvaluator = Callable[[Tuple[Any, ...]], Any]

#: A compiled batch evaluator: ColumnBatch -> bool mask | code array | scalar code.
BatchEvaluator = Callable[[Any], Any]


def _as_code_array(result: Any, batch, encoder) -> Any:
    """Coerce a batch evaluation result to codes (array or scalar).

    Boolean masks (nested predicates used as comparison operands) are
    re-encoded through the shared dictionary so True/False compare like the
    Python values they are.
    """
    if isinstance(result, np.ndarray) and result.dtype == bool:
        true_code = encoder.encode_scalar(True)
        false_code = encoder.encode_scalar(False)
        return np.where(result, true_code, false_code)
    return result


def _as_mask(result: Any, batch, encoder) -> "np.ndarray":
    """Coerce a batch evaluation result to a boolean mask (Python truthiness)."""
    n = batch.length
    if isinstance(result, np.ndarray):
        if result.dtype == bool:
            return result
        return np.fromiter(
            (bool(value) for value in encoder.decode_list(result)), dtype=bool, count=n
        )
    return np.full(n, bool(encoder.decode_scalar(result)), dtype=bool)


def _decoded_values(result: Any, batch, encoder) -> List[Any]:
    """Decode a batch evaluation result to a per-row list of Python values."""
    if isinstance(result, np.ndarray):
        if result.dtype == bool:
            return result.tolist()
        return encoder.decode_list(result)
    return [encoder.decode_scalar(result)] * batch.length


class Expression:
    """Base class for expression nodes."""

    def bind(self, schema: TableSchema) -> BoundEvaluator:
        """Return a fast row -> value evaluator for the given schema."""
        raise NotImplementedError

    def bind_batch(self, schema: TableSchema, encoder) -> BatchEvaluator:
        """Return a vectorized ColumnBatch evaluator for the given schema."""
        raise NotImplementedError

    def referenced_columns(self) -> List[str]:
        """Names of the columns the expression reads."""
        raise NotImplementedError

    def to_sql(self) -> str:
        """Render the expression as SQL text (documentation/debugging)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Expression):
    """A literal constant."""

    value: Any

    def bind(self, schema: TableSchema) -> BoundEvaluator:
        value = self.value
        return lambda row: value

    def bind_batch(self, schema: TableSchema, encoder) -> BatchEvaluator:
        code = encoder.encode_scalar(self.value)
        return lambda batch: code

    def referenced_columns(self) -> List[str]:
        return []

    def to_sql(self) -> str:
        return format_value(self.value)


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A reference to a column by (possibly alias-qualified) name."""

    name: str

    def bind(self, schema: TableSchema) -> BoundEvaluator:
        position = schema.position(self.name)
        return lambda row: row[position]

    def bind_batch(self, schema: TableSchema, encoder) -> BatchEvaluator:
        position = schema.position(self.name)
        return lambda batch: batch.column_codes(position)

    def referenced_columns(self) -> List[str]:
        return [self.name]

    def to_sql(self) -> str:
        return self.name


_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

# Null-safe comparisons treat NULL as an ordinary (distinct) value, which is
# what the grounding pruning predicates need: ``truth IS DISTINCT FROM TRUE``
# keeps rows whose truth value is FALSE *or* NULL (unknown).
_NULL_SAFE_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "is_distinct_from": lambda a, b: a != b,
    "is_not_distinct_from": lambda a, b: a == b,
}


@dataclass(frozen=True)
class Comparison(Expression):
    """A binary comparison between two sub-expressions.

    Comparisons involving NULL evaluate to ``False``, except the null-safe
    operators ``is_distinct_from`` / ``is_not_distinct_from`` (SQL's ``IS
    [NOT] DISTINCT FROM``) and the dedicated ``IS NULL`` forms provided by
    :class:`IsNull`.
    """

    operator: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.operator not in _COMPARATORS and self.operator not in _NULL_SAFE_COMPARATORS:
            raise ValueError(f"unsupported comparison operator {self.operator!r}")

    def bind(self, schema: TableSchema) -> BoundEvaluator:
        left = self.left.bind(schema)
        right = self.right.bind(schema)
        if self.operator in _NULL_SAFE_COMPARATORS:
            compare_null_safe = _NULL_SAFE_COMPARATORS[self.operator]
            return lambda row: compare_null_safe(left(row), right(row))
        compare = _COMPARATORS[self.operator]

        def evaluate(row: Tuple[Any, ...]) -> bool:
            left_value = left(row)
            right_value = right(row)
            if left_value is None or right_value is None:
                return False
            return compare(left_value, right_value)

        return evaluate

    def bind_batch(self, schema: TableSchema, encoder) -> BatchEvaluator:
        left = self.left.bind_batch(schema, encoder)
        right = self.right.bind_batch(schema, encoder)
        operator = self.operator

        if operator in ("=", "!=", "is_distinct_from", "is_not_distinct_from"):
            # Equality-family comparisons run directly on dictionary codes:
            # shared-encoder code equality is exactly Python value equality.
            null_safe = operator in _NULL_SAFE_COMPARATORS
            negated = operator in ("!=", "is_distinct_from")

            def evaluate(batch) -> "np.ndarray":
                left_codes = _as_code_array(left(batch), batch, encoder)
                right_codes = _as_code_array(right(batch), batch, encoder)
                if negated:
                    result = left_codes != right_codes
                else:
                    result = left_codes == right_codes
                if not null_safe:
                    # Standard comparisons are False when either side is NULL.
                    result = (
                        result
                        & (left_codes != NULL_CODE)
                        & (right_codes != NULL_CODE)
                    )
                if not isinstance(result, np.ndarray):
                    result = np.full(batch.length, bool(result), dtype=bool)
                return result

            return evaluate

        # Ordering comparisons: code order is first-occurrence order, not
        # value order, so decode and compare with Python semantics.
        compare = _COMPARATORS[operator]

        def evaluate_ordering(batch) -> "np.ndarray":
            left_values = _decoded_values(left(batch), batch, encoder)
            right_values = _decoded_values(right(batch), batch, encoder)
            return np.fromiter(
                (
                    a is not None and b is not None and compare(a, b)
                    for a, b in zip(left_values, right_values)
                ),
                dtype=bool,
                count=batch.length,
            )

        return evaluate_ordering

    def referenced_columns(self) -> List[str]:
        return self.left.referenced_columns() + self.right.referenced_columns()

    def to_sql(self) -> str:
        operator = {
            "!=": "<>",
            "is_distinct_from": "IS DISTINCT FROM",
            "is_not_distinct_from": "IS NOT DISTINCT FROM",
        }.get(self.operator, self.operator)
        return f"{self.left.to_sql()} {operator} {self.right.to_sql()}"


@dataclass(frozen=True)
class IsNull(Expression):
    """``expr IS NULL`` (or ``IS NOT NULL`` when ``negated``)."""

    operand: Expression
    negated: bool = False

    def bind(self, schema: TableSchema) -> BoundEvaluator:
        operand = self.operand.bind(schema)
        negated = self.negated
        return lambda row: (operand(row) is not None) if negated else (operand(row) is None)

    def bind_batch(self, schema: TableSchema, encoder) -> BatchEvaluator:
        operand = self.operand.bind_batch(schema, encoder)
        negated = self.negated

        def evaluate(batch) -> "np.ndarray":
            codes = _as_code_array(operand(batch), batch, encoder)
            result = (codes != NULL_CODE) if negated else (codes == NULL_CODE)
            if not isinstance(result, np.ndarray):
                result = np.full(batch.length, bool(result), dtype=bool)
            return result

        return evaluate

    def referenced_columns(self) -> List[str]:
        return self.operand.referenced_columns()

    def to_sql(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"{self.operand.to_sql()} {suffix}"


@dataclass(frozen=True)
class And(Expression):
    """Conjunction of any number of sub-expressions (true when empty)."""

    operands: Tuple[Expression, ...]

    @classmethod
    def of(cls, *operands: Expression) -> "And":
        return cls(tuple(operands))

    def bind(self, schema: TableSchema) -> BoundEvaluator:
        bound = [operand.bind(schema) for operand in self.operands]
        return lambda row: all(evaluate(row) for evaluate in bound)

    def bind_batch(self, schema: TableSchema, encoder) -> BatchEvaluator:
        bound = [operand.bind_batch(schema, encoder) for operand in self.operands]

        def evaluate(batch) -> "np.ndarray":
            result = np.ones(batch.length, dtype=bool)
            for operand in bound:
                result &= _as_mask(operand(batch), batch, encoder)
            return result

        return evaluate

    def referenced_columns(self) -> List[str]:
        names: List[str] = []
        for operand in self.operands:
            names.extend(operand.referenced_columns())
        return names

    def to_sql(self) -> str:
        if not self.operands:
            return "TRUE"
        return " AND ".join(f"({operand.to_sql()})" for operand in self.operands)


@dataclass(frozen=True)
class Or(Expression):
    """Disjunction of any number of sub-expressions (false when empty)."""

    operands: Tuple[Expression, ...]

    @classmethod
    def of(cls, *operands: Expression) -> "Or":
        return cls(tuple(operands))

    def bind(self, schema: TableSchema) -> BoundEvaluator:
        bound = [operand.bind(schema) for operand in self.operands]
        return lambda row: any(evaluate(row) for evaluate in bound)

    def bind_batch(self, schema: TableSchema, encoder) -> BatchEvaluator:
        bound = [operand.bind_batch(schema, encoder) for operand in self.operands]

        def evaluate(batch) -> "np.ndarray":
            result = np.zeros(batch.length, dtype=bool)
            for operand in bound:
                result |= _as_mask(operand(batch), batch, encoder)
            return result

        return evaluate

    def referenced_columns(self) -> List[str]:
        names: List[str] = []
        for operand in self.operands:
            names.extend(operand.referenced_columns())
        return names

    def to_sql(self) -> str:
        if not self.operands:
            return "FALSE"
        return " OR ".join(f"({operand.to_sql()})" for operand in self.operands)


@dataclass(frozen=True)
class Not(Expression):
    """Logical negation."""

    operand: Expression

    def bind(self, schema: TableSchema) -> BoundEvaluator:
        operand = self.operand.bind(schema)
        return lambda row: not operand(row)

    def bind_batch(self, schema: TableSchema, encoder) -> BatchEvaluator:
        operand = self.operand.bind_batch(schema, encoder)
        return lambda batch: ~_as_mask(operand(batch), batch, encoder)

    def referenced_columns(self) -> List[str]:
        return self.operand.referenced_columns()

    def to_sql(self) -> str:
        return f"NOT ({self.operand.to_sql()})"


def conjunction(expressions: Sequence[Expression]) -> Expression:
    """Combine expressions with AND, simplifying the 0- and 1-element cases."""
    expressions = [expression for expression in expressions if expression is not None]
    if not expressions:
        return And(())
    if len(expressions) == 1:
        return expressions[0]
    return And(tuple(expressions))


def column_equals(column: str, value: Any) -> Comparison:
    """Shorthand for ``column = constant`` filters."""
    return Comparison("=", ColumnRef(column), Const(value))


def columns_equal(left: str, right: str) -> Comparison:
    """Shorthand for ``left = right`` join conditions."""
    return Comparison("=", ColumnRef(left), ColumnRef(right))
