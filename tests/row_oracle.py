"""The tuple-at-a-time evaluator over the engine's physical plans: the test oracle.

``repro.rdbms`` runs every plan as column batches.  This module runs the
same plan trees the textbook way (the Volcano iterator model): each
operator is a generator over its children's tuples.  The parity suites
compare the engine against it: rows and row order, the operators'
counters, ``intermediate_tuples`` and the page charges of charged scans.
Children are drained in the order the engine evaluates them — a join's
right input first, except sort-merge — so the buffer pool sees the same
page sequence.

:class:`RowOracleGrounder` grounds with it: each clause's query through
:func:`rows`, each binding through the per-literal evidence outcome and
one ``GroundClauseStore.add`` — the specification of the grounder's
columnar consumer.  :func:`ground_by_rows` puts it under a whole
engine.

:func:`execute_plan` / :func:`execute_query` are the other side of the
comparison: the engine's ``execute_batch`` output decoded to rows, as a
:class:`QueryResult`.  Only tests read the engine's output as rows.
"""

from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Tuple

from repro.core import engine as engine_module
from repro.grounding.bottom_up import (
    BottomUpGrounder,
    _ingest_attributes,
    _RecordingStore,
    _store_counts,
    plan_intermediate_tuples,
)
from repro.grounding.pruning import LiteralOutcome, literal_outcome
from repro.grounding.result import ClauseGroundingStats
from repro.rdbms.executor import Executor
from repro.rdbms.operators import (
    Distinct,
    Filter,
    HashJoin,
    NestedLoopJoin,
    Project,
    SortMergeJoin,
    TableScan,
)
from repro.rdbms.schema import TableSchema
from repro.utils.timer import Stopwatch

Row = Tuple[Any, ...]


def rows(operator) -> List[Row]:
    """The full output of a plan (a root operator or a ``PlannedQuery``)."""
    return list(iterate(getattr(operator, "root", operator)))


def iterate(operator) -> Iterator[Row]:
    return _ITERATORS[type(operator)](operator)


def _scan(scan: TableScan) -> Iterator[Row]:
    for row in scan.table.scan(charge_io=scan.charge_io):
        scan.rows_scanned += 1
        yield row


def _filter(node: Filter) -> Iterator[Row]:
    evaluate = node.expression.bind(node.child.output_schema)
    for row in iterate(node.child):
        if evaluate(row):
            node.rows_out += 1
            yield row


def _project(node: Project) -> Iterator[Row]:
    positions = [node.child.output_schema.position(column) for column in node.columns]
    for row in iterate(node.child):
        yield tuple(row[position] for position in positions)


def _nested_loop(join: NestedLoopJoin) -> Iterator[Row]:
    inner_rows = rows(join.right)
    condition = join.condition
    evaluate = condition.bind(join.output_schema) if condition is not None else None
    for outer in iterate(join.left):
        for inner in inner_rows:
            join.comparisons += 1
            combined = outer + inner
            if evaluate is None or evaluate(combined):
                yield combined


def _keys(join, side: str) -> List[int]:
    schema = getattr(join, side).output_schema
    return [schema.position(key) for key in getattr(join, f"{side}_keys")]


def _residual(join):
    return join.residual.bind(join.output_schema) if join.residual is not None else None


def _hash_join(join: HashJoin) -> Iterator[Row]:
    left_positions, right_positions = _keys(join, "left"), _keys(join, "right")
    buckets = {}
    for row in iterate(join.right):
        key = tuple(row[position] for position in right_positions)
        if any(part is None for part in key):
            continue
        buckets.setdefault(key, []).append(row)
        join.build_rows += 1
    evaluate = _residual(join)
    for row in iterate(join.left):
        join.probe_rows += 1
        key = tuple(row[position] for position in left_positions)
        if any(part is None for part in key):
            continue
        for match in buckets.get(key, ()):
            combined = row + match
            if evaluate is None or evaluate(combined):
                yield combined


def _sort_merge(join: SortMergeJoin) -> Iterator[Row]:
    def sorted_non_null(side: str):
        positions = _keys(join, side)
        keyed = [
            (tuple(row[position] for position in positions), row)
            for row in rows(getattr(join, side))
        ]
        keyed = [pair for pair in keyed if None not in pair[0]]
        keyed.sort(key=lambda pair: pair[0])
        return keyed

    left, right = sorted_non_null("left"), sorted_non_null("right")
    evaluate = _residual(join)
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i][0] < right[j][0]:
            i += 1
        elif left[i][0] > right[j][0]:
            j += 1
        else:
            # Emit the product of the two runs of equal keys.
            key = left[i][0]
            i_end, j_end = i, j
            while i_end < len(left) and left[i_end][0] == key:
                i_end += 1
            while j_end < len(right) and right[j_end][0] == key:
                j_end += 1
            for _, outer in left[i:i_end]:
                for _, inner in right[j:j_end]:
                    combined = outer + inner
                    if evaluate is None or evaluate(combined):
                        yield combined
            i, j = i_end, j_end


def _distinct(node: Distinct) -> Iterator[Row]:
    seen = set()
    for row in iterate(node.child):
        if row not in seen:
            seen.add(row)
            yield row


_ITERATORS = {
    TableScan: _scan,
    Filter: _filter,
    Project: _project,
    NestedLoopJoin: _nested_loop,
    HashJoin: _hash_join,
    SortMergeJoin: _sort_merge,
    Distinct: _distinct,
}


@dataclass
class QueryResult:
    """A plan's engine output, decoded to rows."""

    schema: TableSchema
    rows: List[Row]
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


def execute_plan(plan, executor: Optional[Executor] = None) -> QueryResult:
    """Run a plan (a root operator or a ``PlannedQuery``) on the engine, as rows."""
    result = (executor or Executor()).execute_batch(plan)
    return QueryResult(
        result.schema, result.batch.to_rows(result.encoder), result.elapsed_seconds
    )


def execute_query(db, query, options=None) -> QueryResult:
    """Plan a conjunctive query on ``db`` and run it on its engine, as rows."""
    return execute_plan(db.plan(query, options), db.executor)


def consume_rows(clause, compilation, schema, result_rows, store) -> Tuple[int, int]:
    """Ingest a clause's query rows one binding at a time.

    ``produced`` counts bindings that stored (or merged into) a ground
    clause; ``pruned`` counts bindings the evidence decided — satisfied
    outcomes, clauses left empty after dropping decided literals, and
    tautologies.
    """
    literals = [
        (
            schema.position(literal.aid_output),
            schema.position(literal.truth_output),
            literal.literal.positive,
        )
        for literal in compilation.literals
    ]
    produced = pruned = 0
    for row in result_rows:
        ground: List[int] = []
        satisfied = False
        for aid_position, truth_position, positive in literals:
            outcome = literal_outcome(row[truth_position], positive)
            if outcome is LiteralOutcome.SATISFIES:
                satisfied = True
                break
            if outcome is LiteralOutcome.UNKNOWN:
                atom_id = row[aid_position]
                ground.append(atom_id if positive else -atom_id)
        if satisfied:
            store.record_satisfied_by_evidence()
            pruned += 1
        elif store.add(ground, clause.weight, clause.name) is not None:
            produced += 1
        else:
            pruned += 1
    return produced, pruned


class RowOracleGrounder(BottomUpGrounder):
    """The bottom-up grounder with each clause's query run by the oracle."""

    def _ground_clause(self, clause, atoms, store) -> ClauseGroundingStats:
        name = clause.name or str(clause)
        stopwatch, ingest = Stopwatch(), Stopwatch()
        with stopwatch.measure():
            compilation = self._compiler.compile(clause)
            if compilation.query is None:
                return ClauseGroundingStats(
                    clause_name=name,
                    ground_clauses=0,
                    pruned_bindings=0,
                    seconds=stopwatch.total,
                    sql=None,
                )
            planned = self.database.plan(compilation.query, self.optimizer_options)
            result_rows = rows(planned)
            counted = store.store if isinstance(store, _RecordingStore) else store
            with ingest.measure(), self.tracer.span("clause-ingest", clause=name) as span:
                before = _store_counts(counted)
                produced, pruned = consume_rows(
                    clause, compilation, planned.root.output_schema, result_rows, store
                )
                span.annotate(
                    **_ingest_attributes(counted, before, produced + pruned, produced)
                )
        return ClauseGroundingStats(
            clause_name=name,
            ground_clauses=produced,
            pruned_bindings=pruned,
            seconds=stopwatch.total,
            sql=compilation.sql,
            intermediate_tuples=plan_intermediate_tuples(planned.root),
            ingest_seconds=ingest.total,
        )


def ground_by_rows(monkeypatch) -> None:
    """Make engines ground through the oracle (pytest ``monkeypatch``)."""
    monkeypatch.setattr(engine_module, "BottomUpGrounder", RowOracleGrounder)
