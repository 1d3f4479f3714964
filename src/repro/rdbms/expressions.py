"""Expression trees for filters and join conditions.

The grounding compiler only produces comparisons, conjunctions and
negations, but the full set here keeps the engine usable as a standalone
component and exercised by its own tests.

Each node supports ``bind_batch``: it compiles the expression to a
vectorized evaluator over a :class:`~repro.rdbms.column_batch.ColumnBatch`,
returning a boolean numpy mask (predicates) or a code array (value nodes).
Equality and null-safe comparisons run directly on dictionary codes — code
equality is value equality because the encoder is shared — while ordering
comparisons decode back to values, preserving Python comparison semantics
exactly (including "NULL compares False" for the standard operators).  The
per-row semantics (``bind`` in ``tests/row_oracle.py``) are the
specification the batch evaluators are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Sequence, Tuple

import numpy as np

from repro.rdbms.column_batch import NULL_CODE
from repro.rdbms.schema import TableSchema
from repro.rdbms.types import format_value

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
