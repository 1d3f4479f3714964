"""Compiling an MLN clause to a relational query (the paper's Algorithm 2).

For a clause ``F = l_1 v ... v l_k`` the compiled query joins the atom table
of each literal's predicate (one alias ``t0 ... tk-1`` per literal), with:

* a WHERE predicate per literal implementing the evidence pruning of
  Appendix A.3 — a positive literal requires ``truth IS DISTINCT FROM TRUE``
  (rows already true in the evidence would satisfy the clause, so their
  groundings can be discarded), a negative literal requires
  ``truth IS DISTINCT FROM FALSE``;
* join conditions equating the argument columns of literals that share a
  variable;
* equality filters for constant arguments; and
* conditions derived from the clause's ``=`` / ``!=`` constraints (a ground
  clause whose equality constraint already holds is satisfied and therefore
  pruned).

The SELECT list carries, for every literal, the atom id and the truth value
so the grounder can drop literals that the evidence has already decided.

The compilation also records, once per clause, which literal pairs can
ground to the *same atom* (:func:`same_atom_pairs`): only two literals of
one predicate can, and not when a position holds two different constants
or two variables the query keeps apart.  These pairs are the only source
of repeated literals (same sign) and tautologies (opposite signs) in the
clause's ground rows, so the clause store checks them instead of
canonicalising every row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.logic.clauses import WeightedClause
from repro.logic.literals import Literal
from repro.logic.predicates import Predicate
from repro.logic.terms import Constant, Variable
from repro.rdbms.optimizer import ConjunctiveQuery


class ClauseCompilationError(ValueError):
    """Raised when a clause cannot be expressed as a conjunctive query."""


@dataclass
class CompiledLiteral:
    """Metadata the grounder needs for one literal of a compiled clause."""

    index: int
    alias: str
    literal: Literal
    aid_output: str
    truth_output: str


@dataclass
class ClauseCompilation:
    """The result of compiling one first-order clause.

    ``query`` is ``None`` when the clause is trivially satisfied for every
    binding (e.g. a constant equality constraint that always holds), in
    which case grounding produces nothing for it.  ``repeat_pairs`` and
    ``tautology_pairs`` are :func:`same_atom_pairs` of the clause: the
    literal index pairs ``(i, j)``, ``i < j``, that can ground to the same
    atom with the same sign and with opposite signs.
    """

    clause: WeightedClause
    query: Optional[ConjunctiveQuery]
    literals: List[CompiledLiteral] = field(default_factory=list)
    trivially_satisfied: bool = False
    repeat_pairs: List[Tuple[int, int]] = field(default_factory=list)
    tautology_pairs: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def sql(self) -> Optional[str]:
        if self.query is None:
            return None
        from repro.rdbms.sql import render_select

        return render_select(self.query)


def predicate_table_name(predicate: Predicate) -> str:
    """Name of the atom table backing a predicate."""
    return predicate.table_name()


def argument_column(position: int) -> str:
    """Column name of the ``position``-th argument in an atom table."""
    return f"arg{position}"


def same_atom_pairs(
    clause: WeightedClause,
) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
    """The literal pairs of a clause that can ground to the same atom.

    Returns ``(repeat_pairs, tautology_pairs)``: index pairs ``(i, j)``,
    ``i < j``, of literals over one predicate whose arguments can be
    equal in a grounding — split into same-sign pairs (a repeated literal)
    and opposite-sign pairs (a tautology).  A pair is left out when some
    position holds two different constants, or two variables that a
    ``v1 = v2`` disjunct of the clause keeps apart (its query keeps only
    the bindings where they differ).  No other pair of the clause's
    literals can ever ground to the same atom.
    """
    apart = {
        frozenset((left, right))
        for left, right, positive in clause.equalities
        if positive and isinstance(left, Variable) and isinstance(right, Variable)
    }
    repeat_pairs: List[Tuple[int, int]] = []
    tautology_pairs: List[Tuple[int, int]] = []
    literals = clause.literals
    for j, second in enumerate(literals):
        for i, first in enumerate(literals[:j]):
            if first.predicate.name != second.predicate.name:
                continue
            if any(
                (
                    isinstance(a, Constant)
                    and isinstance(b, Constant)
                    and a.value != b.value
                )
                or frozenset((a, b)) in apart
                for a, b in zip(first.arguments, second.arguments)
            ):
                continue
            pairs = repeat_pairs if first.positive == second.positive else tautology_pairs
            pairs.append((i, j))
    return repeat_pairs, tautology_pairs


class GroundingCompiler:
    """Compiles weighted clauses into conjunctive queries over atom tables."""

    def compile(self, clause: WeightedClause) -> ClauseCompilation:
        """Compile a single clause (Algorithm 2 in the paper)."""
        if not clause.literals:
            # A clause that is only equality constraints has no groundings
            # over atom tables; it is either trivially satisfied or a
            # constant violation, both of which the grounder handles.
            return ClauseCompilation(clause, None, [], trivially_satisfied=True)
        query = ConjunctiveQuery()
        compiled_literals: List[CompiledLiteral] = []
        variable_columns: Dict[Variable, str] = {}

        for index, literal in enumerate(clause.literals):
            alias = f"t{index}"
            query.add_relation(alias, predicate_table_name(literal.predicate))
            self._add_pruning_filter(query, alias, literal)
            self._bind_arguments(query, alias, literal, variable_columns)
            aid_output = f"aid_{index}"
            truth_output = f"truth_{index}"
            query.add_output(f"{alias}.aid", aid_output)
            query.add_output(f"{alias}.truth", truth_output)
            compiled_literals.append(
                CompiledLiteral(index, alias, literal, aid_output, truth_output)
            )

        trivially_satisfied = self._add_equality_constraints(
            query, clause, variable_columns
        )
        if trivially_satisfied:
            return ClauseCompilation(clause, None, compiled_literals, trivially_satisfied=True)
        repeat_pairs, tautology_pairs = same_atom_pairs(clause)
        return ClauseCompilation(
            clause, query, compiled_literals, False, repeat_pairs, tautology_pairs
        )

    def compile_all(self, clauses) -> List[ClauseCompilation]:
        return [self.compile(clause) for clause in clauses]

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _add_pruning_filter(
        self, query: ConjunctiveQuery, alias: str, literal: Literal
    ) -> None:
        satisfied_value = True if literal.positive else False
        query.add_constant_filter(f"{alias}.truth", "is_distinct_from", satisfied_value)

    def _bind_arguments(
        self,
        query: ConjunctiveQuery,
        alias: str,
        literal: Literal,
        variable_columns: Dict[Variable, str],
    ) -> None:
        for position, argument in enumerate(literal.arguments):
            column = f"{alias}.{argument_column(position)}"
            if isinstance(argument, Constant):
                query.add_constant_filter(column, "=", argument.value)
            elif isinstance(argument, Variable):
                first_column = variable_columns.get(argument)
                if first_column is None:
                    variable_columns[argument] = column
                elif first_column.split(".", 1)[0] == alias:
                    # Same-alias repetition (e.g. r(x, x)): a plain column
                    # comparison, not a join condition.
                    query.add_column_comparison(first_column, "=", column)
                else:
                    query.add_join(first_column, column)
            else:  # pragma: no cover - the term union is closed
                raise ClauseCompilationError(f"unsupported term {argument!r}")

    def _add_equality_constraints(
        self,
        query: ConjunctiveQuery,
        clause: WeightedClause,
        variable_columns: Dict[Variable, str],
    ) -> bool:
        """Add conditions for ``=`` / ``!=`` constraints.

        Returns ``True`` when a constant constraint makes the clause
        trivially satisfied for every binding (no groundings needed).
        """
        for left, right, positive in clause.equalities:
            left_is_variable = isinstance(left, Variable)
            right_is_variable = isinstance(right, Variable)
            if left_is_variable and left not in variable_columns:
                raise ClauseCompilationError(
                    f"equality constraint references unbound variable {left}"
                )
            if right_is_variable and right not in variable_columns:
                raise ClauseCompilationError(
                    f"equality constraint references unbound variable {right}"
                )
            if not left_is_variable and not right_is_variable:
                equal = left.value == right.value
                # A satisfied constraint satisfies the whole (disjunctive)
                # clause; an unsatisfied one simply drops out.
                if (equal and positive) or (not equal and not positive):
                    return True
                continue
            # The clause is *satisfied* when the constraint holds, so we keep
            # only the bindings where it does not hold.
            if left_is_variable and right_is_variable:
                operator = "!=" if positive else "="
                query.add_column_comparison(
                    variable_columns[left], operator, variable_columns[right]
                )
            else:
                variable, constant = (left, right) if left_is_variable else (right, left)
                operator = "!=" if positive else "="
                query.add_constant_filter(
                    variable_columns[variable], operator, constant.value
                )
        return False
