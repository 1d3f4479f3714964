"""Bottom-up (RDBMS-based) grounding — the paper's Section 3.1.

The grounder materialises one atom table per predicate in the embedded
relational engine, compiles every first-order clause into a conjunctive
query (Algorithm 2) and lets the engine's optimizer choose join order and
join algorithms.  The query results are turned into ground clauses with the
evidence-pruning rules of Appendix A.3 applied.

Each clause's query runs on the relational engine's column batches
(:mod:`repro.rdbms.executor`).  The per-literal evidence-outcome logic
(:func:`repro.grounding.pruning.literal_outcome`) is evaluated over whole
aid/truth columns at once and the surviving rows reach the store as one
fixed ``(rows, literals)`` matrix of int64 signed atom ids, through
:meth:`~repro.grounding.clause_table.GroundClauseStore.add_matrix` — no
per-row Python object between the relational engine's arrays and the
clause table's arrays.  Repeated literals and tautologies can only come
from the literal pairs the compilation lists as able to ground to the
same atom (:func:`~repro.grounding.compiler.same_atom_pairs`), so the
store checks those pairs instead of canonicalising every row.  The
specification is row-at-a-time: each binding's outcomes by
``literal_outcome`` and one ``GroundClauseStore.add`` per surviving
binding.  The grounding parity suite runs that spec over the test-side
row oracle (``tests/row_oracle.py``) and checks the same clauses, order
and statistics.

Delta-grounding
---------------
With ``enable_replay_cache=True`` (the engine session's mode) the grounder
records, per first-order clause, the exact sequence of clause-store events
its query produced (every ``add`` literal tuple, every ``add_matrix`` batch
as one event holding its matrix, and every satisfied-by-evidence count)
together with a snapshot of the per-predicate registry versions the clause
depends on.  On a later ``ground()`` over the same registry, a clause
whose predicates are all unchanged is **replayed** from that record
instead of re-running its relational query; only clauses touching a
changed predicate re-execute.  Replay issues the identical call sequence —
a matrix goes back through ``add_matrix`` as a matrix — so the resulting
store is bit-for-bit identical to a full reground.
``last_report`` exposes the per-run counters (queries executed vs clauses
replayed, atom tables loaded vs reused) that the session benchmark and the
delta-grounding tests assert on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.grounding.atoms import AtomRegistry
from repro.grounding.clause_table import GroundClauseStore
from repro.grounding.compiler import (
    ClauseCompilation,
    GroundingCompiler,
    argument_column,
    predicate_table_name,
)
from repro.grounding.result import ClauseGroundingStats, GroundingResult
from repro.logic.clauses import WeightedClause
from repro.logic.predicates import Predicate
from repro.obs.tracer import NullTracer
from repro.rdbms.column_batch import NULL_CODE, ValueEncoder, sorted_distinct
from repro.rdbms.database import Database
from repro.rdbms.operators import HashJoin, NestedLoopJoin, iter_plan
from repro.rdbms.optimizer import OptimizerOptions
from repro.rdbms.schema import TableSchema
from repro.rdbms.types import ColumnType
from repro.utils.memory import MemoryModel
from repro.utils.timer import Stopwatch


def predicate_table_schema(predicate: Predicate) -> TableSchema:
    """Schema of the atom table for a predicate: aid, arguments, truth."""
    columns = [("aid", ColumnType.INTEGER)]
    columns.extend(
        (argument_column(position), ColumnType.TEXT) for position in range(predicate.arity)
    )
    columns.append(("truth", ColumnType.TRUTH))
    return TableSchema.of(*columns)


def atom_table_columns(
    atoms: AtomRegistry, predicate: Predicate, encoder: ValueEncoder
) -> Tuple[List["np.ndarray"], Callable[[], List[Tuple[object, ...]]]]:
    """A predicate's atom table, from the registry's columns.

    Returns the table's columns encoded in ``encoder`` (aid, arguments,
    truth — :func:`predicate_table_schema` order, atoms in id order) and a
    function building the same rows as tuples, for a reader that wants
    rows.  The schema is checked once per column: ids are integers by
    construction, truth codes map to ``True`` / ``False`` / ``None``, and
    an argument column holding a non-string constant is coerced to TEXT
    as a row load would.
    """
    atom_ids, codes, truth = atoms.predicate_columns(predicate)
    values = []
    columns = [encoder.encode_values(atom_ids.tolist())]
    for position in range(predicate.arity):
        column = codes[:, position]
        if not all(type(value) is str for value in atoms.encoder.decode(sorted_distinct(column))):
            text = [str(value) for value in atoms.encoder.decode_list(column)]
            column = atoms.encoder.encode_values(text)
        values.append(column)
        columns.append(encoder.translate(column, atoms.encoder))
    truth_codes = np.array(
        [NULL_CODE, encoder.encode_scalar(False), encoder.encode_scalar(True)], dtype=np.int64
    )
    columns.append(truth_codes[truth.astype(np.intp) + 1])

    def build_rows() -> List[Tuple[object, ...]]:
        truths = np.array([None, False, True], dtype=object)[truth.astype(np.intp) + 1]
        return list(
            zip(
                atom_ids.tolist(),
                *(atoms.encoder.decode_list(column) for column in values),
                truths.tolist(),
            )
        )

    return columns, build_rows


def plan_intermediate_tuples(root) -> int:
    """Tuples pushed through a plan's join operators during one execution.

    Hash joins report build + probe rows, nested-loop joins report pair
    comparisons — the intermediate state a real RDBMS holds on behalf of
    the grounding process (the paper's Table 4 asymmetry).
    """
    total = 0
    for operator in iter_plan(root):
        if isinstance(operator, HashJoin):
            total += operator.build_rows + operator.probe_rows
        elif isinstance(operator, NestedLoopJoin):
            total += operator.comparisons
    return total


@dataclass
class GroundingDeltaReport:
    """Counters of one ``ground()`` run: what re-executed vs replayed."""

    clauses_total: int = 0
    queries_executed: int = 0
    clauses_replayed: int = 0
    atom_tables_loaded: int = 0
    atom_tables_reused: int = 0

    @property
    def is_delta(self) -> bool:
        return self.clauses_replayed > 0


@dataclass
class _ClauseReplay:
    """Cached outcome of one clause's grounding query.

    ``events`` is the ordered clause-store call sequence the query
    produced: ``("add", literal_tuple)``, ``("add_batch", (matrix,
    repeat_pairs, tautology_pairs))`` — one :meth:`GroundClauseStore.add_matrix`
    call — and ``("satisfied", count)`` entries, replayed
    verbatim so the store state is bit-identical to a re-executed query.
    Validity is pinned to the clause *object*, the registry identity, and
    the per-predicate version snapshot.
    """

    clause: WeightedClause
    registry_token: int
    predicate_versions: Dict[str, int]
    events: List[Tuple[str, object]]
    produced: int
    pruned: int
    sql: Optional[str]
    intermediate_tuples: int


class _RecordingStore:
    """Forwards to a clause store while recording the event stream.

    Only the three mutating entry points of grounding are wrapped: the
    columnar consumer's ``add_matrix`` and satisfied counts, and the
    row-at-a-time ``add`` of its specification (the test-side row oracle
    grounds through this recorder too).  A matrix is recorded by
    reference: the columnar consumer builds a fresh one per query and the
    store never modifies what it is given, so a replay hands
    ``add_matrix`` exactly what the query did.
    """

    def __init__(self, store: GroundClauseStore) -> None:
        self.store = store
        self.events: List[Tuple[str, object]] = []

    def add(self, literals, weight, source=None):
        self.events.append(("add", tuple(literals)))
        return self.store.add(literals, weight, source)

    def record_satisfied_by_evidence(self, count: int = 1) -> None:
        self.events.append(("satisfied", count))
        self.store.record_satisfied_by_evidence(count)

    def add_matrix(self, matrix, weight, source=None, repeat_pairs=None, tautology_pairs=None):
        self.events.append(("add_batch", (matrix, repeat_pairs, tautology_pairs)))
        return self.store.add_matrix(matrix, weight, source, repeat_pairs, tautology_pairs)


def _store_counts(store: GroundClauseStore) -> Tuple[int, int, int]:
    """The store counters a ``clause-ingest`` span reports the change of."""
    return len(store), store.tautologies, store.repeated_literals


def _ingest_attributes(
    store: GroundClauseStore, before: Tuple[int, int, int], rows_in: int, produced: int
) -> Dict[str, int]:
    """What one clause's ingest did to the store, as span attributes.

    ``rows_in`` query rows, of which ``produced`` stored or merged a
    clause: ``rows_stored`` as new rows, ``rows_merged`` into an earlier
    row; ``tautologies`` rows dropped as such, and ``repeats_dropped``
    literals dropped as repeats of an earlier literal of their row.
    """
    rows, tautologies, repeats = _store_counts(store)
    stored = rows - before[0]
    return {
        "rows_in": rows_in,
        "rows_stored": stored,
        "rows_merged": produced - stored,
        "tautologies": tautologies - before[1],
        "repeats_dropped": repeats - before[2],
    }


@dataclass
class BottomUpGrounder:
    """Grounds MLN clauses by running relational queries in the engine.

    Parameters
    ----------
    database:
        The engine instance to use; a fresh one is created when omitted.
    optimizer_options:
        Planner knobs (see :class:`~repro.rdbms.optimizer.OptimizerOptions`);
        the lesion-study benchmark passes the restricted settings here.
    merge_duplicates:
        Merge identical ground clauses by summing weights (the default, and
        what Tuffy does).
    persist_clause_table:
        Also write the resulting clause table into the database, mirroring
        Tuffy's ``C(cid, lits, weight)`` table.
    memory_model:
        Optional analytic memory model; the bottom-up grounder charges only
        the size of the *result* (ground clauses), because intermediate
        join state lives inside the RDBMS, not in the inference process —
        this is the asymmetry behind the paper's Table 4.
    enable_replay_cache:
        Record per-clause event streams so later ``ground()`` calls replay
        clauses whose predicates are unchanged (delta-grounding; used by
        :class:`~repro.core.session.EngineSession`).  Off by default — the
        cache holds a copy of the grounding output, which one-shot callers
        should not pay for.
    tracer:
        Where the per-clause ``clause-ingest`` spans go (the session's
        tracer); the no-op tracer when omitted.
    """

    database: Optional[Database] = None
    optimizer_options: Optional[OptimizerOptions] = None
    merge_duplicates: bool = True
    persist_clause_table: bool = True
    memory_model: Optional[MemoryModel] = None
    enable_replay_cache: bool = False
    tracer: object = field(default_factory=NullTracer)

    def __post_init__(self) -> None:
        if self.database is None:
            self.database = Database()
        self._compiler = GroundingCompiler()
        self._replay: Dict[int, _ClauseReplay] = {}
        self.last_report: Optional[GroundingDeltaReport] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def ground(
        self,
        clauses: Iterable[WeightedClause],
        atoms: AtomRegistry,
    ) -> GroundingResult:
        """Ground all clauses against the given atom registry."""
        clauses = list(clauses)
        report = GroundingDeltaReport(clauses_total=len(clauses))
        total = Stopwatch()
        with total.measure():
            self._load_atom_tables(clauses, atoms, report)
            store = GroundClauseStore(merge_duplicates=self.merge_duplicates)
            per_clause: List[ClauseGroundingStats] = []
            for index, clause in enumerate(clauses):
                per_clause.append(
                    self._ground_clause_cached(index, clause, atoms, store, report)
                )
            if self.persist_clause_table:
                store.store_in_database(self.database)
        self.last_report = report
        if self.memory_model is not None:
            self.memory_model.charge_clauses(
                len(store), store.total_literals(), category="clause_table"
            )
            self.memory_model.charge_atoms(len(atoms), category="atoms")
        result = GroundingResult(
            atoms=atoms,
            clauses=store,
            seconds=total.total,
            per_clause=per_clause,
            intermediate_tuples=sum(stats.intermediate_tuples for stats in per_clause),
            strategy="bottom-up",
        )
        return result

    def compiled_sql(self, clauses: Iterable[WeightedClause]) -> Dict[str, str]:
        """The SQL text for each clause (for documentation and tests)."""
        statements: Dict[str, str] = {}
        for clause in clauses:
            compilation = self._compiler.compile(clause)
            if compilation.sql is not None:
                statements[clause.name or str(clause)] = compilation.sql
        return statements

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _load_atom_tables(
        self,
        clauses: Sequence[WeightedClause],
        atoms: AtomRegistry,
        report: GroundingDeltaReport,
    ) -> None:
        predicates: Dict[str, Predicate] = {}
        for clause in clauses:
            for predicate in clause.predicates():
                predicates[predicate.name] = predicate
        # The registry's dictionary becomes the columnar engine's (unless
        # the engine already has one), so the argument ids need no encoding.
        encoder = self.database.executor.columnar_context(atoms.encoder).encoder
        for predicate in predicates.values():
            table_name = predicate_table_name(predicate)
            schema = predicate_table_schema(predicate)
            # An atom table is a pure function of the registry's records
            # for its predicate, so it (and everything keyed on its
            # version — notably the columnar engine's encoded-column
            # cache) can be reused across ground() calls as long as *that
            # predicate* has not changed.  The stamp pins the source
            # registry and the predicate's own version counter — an
            # evidence delta reloads only the touched predicates' tables;
            # any direct table mutation clears the stamp.
            stamp = (
                "atom-registry",
                atoms.identity_token,
                predicate.name,
                atoms.predicate_version(predicate.name),
            )
            if self.database.has_table(table_name):
                table = self.database.table(table_name)
                if table.contents_stamp == stamp:
                    report.atom_tables_reused += 1
                    continue
                table.truncate()
            else:
                table = self.database.create_table(table_name, schema)
            columns, build_rows = atom_table_columns(atoms, predicate, encoder)
            table.bulk_load_deferred(len(columns[0]), build_rows, columns)
            self.database.statistics.invalidate(table_name)
            table.stamp_contents(stamp)
            report.atom_tables_loaded += 1

    def _ground_clause_cached(
        self,
        index: int,
        clause: WeightedClause,
        atoms: AtomRegistry,
        store: GroundClauseStore,
        report: GroundingDeltaReport,
    ) -> ClauseGroundingStats:
        """Replay an unchanged clause from cache, or re-run (and record) it."""
        versions = atoms.predicate_versions(
            predicate.name for predicate in clause.predicates()
        )
        if self.enable_replay_cache:
            cached = self._replay.get(index)
            if (
                cached is not None
                and cached.clause is clause
                and cached.registry_token == atoms.identity_token
                and cached.predicate_versions == versions
            ):
                report.clauses_replayed += 1
                return self._replay_clause(clause, cached, store)
        recorder: Optional[_RecordingStore] = None
        target = store
        if self.enable_replay_cache:
            recorder = _RecordingStore(store)
            target = recorder  # type: ignore[assignment]
        stats = self._ground_clause(clause, atoms, target)
        report.queries_executed += 1
        if recorder is not None:
            self._replay[index] = _ClauseReplay(
                clause=clause,
                registry_token=atoms.identity_token,
                predicate_versions=versions,
                events=recorder.events,
                produced=stats.ground_clauses,
                pruned=stats.pruned_bindings,
                sql=stats.sql,
                intermediate_tuples=stats.intermediate_tuples,
            )
        return stats

    def _replay_clause(
        self,
        clause: WeightedClause,
        cached: _ClauseReplay,
        store: GroundClauseStore,
    ) -> ClauseGroundingStats:
        """Re-issue a cached event stream against a fresh store.

        The store ends bit-identical to re-running the query: same ``add``
        / ``add_matrix`` calls in the same order with the same literals and
        weights (identical floats, so duplicate-merge sums are unchanged),
        same satisfied-by-evidence count.  The cached statistics are what
        the query would report; only ``seconds`` reflects the (cheap)
        replay, all of which is ingest.
        """
        name = clause.name or str(clause)
        stopwatch = Stopwatch()
        with stopwatch.measure(), self.tracer.span(
            "clause-ingest", clause=name, replayed=True
        ) as span:
            before = _store_counts(store)
            for kind, payload in cached.events:
                if kind == "add":
                    store.add(payload, clause.weight, clause.name)
                elif kind == "add_batch":
                    matrix, repeat_pairs, tautology_pairs = payload
                    store.add_matrix(
                        matrix, clause.weight, clause.name, repeat_pairs, tautology_pairs
                    )
                else:
                    store.record_satisfied_by_evidence(payload)
            span.annotate(
                **_ingest_attributes(
                    store, before, cached.produced + cached.pruned, cached.produced
                )
            )
        return ClauseGroundingStats(
            clause_name=name,
            ground_clauses=cached.produced,
            pruned_bindings=cached.pruned,
            seconds=stopwatch.total,
            sql=cached.sql,
            intermediate_tuples=cached.intermediate_tuples,
            ingest_seconds=stopwatch.total,
        )

    def _ground_clause(
        self,
        clause: WeightedClause,
        atoms: AtomRegistry,
        store: GroundClauseStore,
    ) -> ClauseGroundingStats:
        name = clause.name or str(clause)
        stopwatch = Stopwatch()
        ingest = Stopwatch()
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
            result = self.database.executor.execute_batch(planned)
            # Reading the join output gathers it through the join's
            # selection: relational work, done before the ingest clock.
            aid_columns = [
                result.column_codes(literal.aid_output) for literal in compilation.literals
            ]
            truth_columns = [
                result.column_codes(literal.truth_output) for literal in compilation.literals
            ]
            # The relational query ends here; what follows is the clause
            # store's share of ``seconds``.
            counted = store.store if isinstance(store, _RecordingStore) else store
            with ingest.measure(), self.tracer.span("clause-ingest", clause=name) as span:
                before = _store_counts(counted)
                produced, pruned = self._consume_columns(
                    clause, compilation, result.encoder, aid_columns, truth_columns, store
                )
                span.annotate(
                    **_ingest_attributes(counted, before, produced + pruned, produced)
                )
            intermediate = plan_intermediate_tuples(planned.root)
        return ClauseGroundingStats(
            clause_name=name,
            ground_clauses=produced,
            pruned_bindings=pruned,
            seconds=stopwatch.total,
            sql=compilation.sql,
            intermediate_tuples=intermediate,
            ingest_seconds=ingest.total,
        )

    def _consume_columns(
        self,
        clause: WeightedClause,
        compilation: ClauseCompilation,
        encoder: ValueEncoder,
        aid_columns: Sequence["np.ndarray"],
        truth_columns: Sequence["np.ndarray"],
        store: GroundClauseStore,
    ) -> Tuple[int, int]:
        """Literal outcomes over a query's whole aid/truth code columns.

        ``aid_columns`` / ``truth_columns`` hold one code array per
        literal of ``compilation``, in ``encoder``'s dictionary.  The rows
        no literal satisfies become one ``(rows, literals)`` matrix of
        signed atom ids (``0`` where the evidence decided the literal), in
        result order and literal order, handed to
        :meth:`~repro.grounding.clause_table.GroundClauseStore.add_matrix`
        with the clause's same-atom literal pairs.  Returns ``(produced,
        pruned)``: bindings that stored or merged a ground clause, and
        bindings the evidence decided — satisfied rows, rows left empty
        and tautologies (the top-down grounder's accounting).
        """
        row_count = len(truth_columns[0]) if truth_columns else 0
        if row_count == 0:
            return 0, 0
        # The evidence truth values are True/False/None; their dictionary
        # codes (MISSING when a value never occurs) classify every literal
        # of every row with two comparisons per literal column.
        true_code = encoder.lookup(True)
        false_code = encoder.lookup(False)
        satisfied = np.zeros(row_count, dtype=bool)
        for literal, truth_codes in zip(compilation.literals, truth_columns):
            satisfied |= truth_codes == (true_code if literal.literal.positive else false_code)
        satisfied_count = int(satisfied.sum())
        if satisfied_count:
            store.record_satisfied_by_evidence(satisfied_count)
        if satisfied_count == row_count:
            return 0, satisfied_count
        alive = None if satisfied_count == 0 else ~satisfied
        matrix = np.empty(
            (row_count - satisfied_count, len(truth_columns)), dtype=np.int64, order="F"
        )
        for position, (literal, aid_codes, truth_codes) in enumerate(
            zip(compilation.literals, aid_columns, truth_columns)
        ):
            if alive is not None:
                truth_codes, aid_codes = truth_codes[alive], aid_codes[alive]
            aids = encoder.decode_int64(aid_codes)
            np.multiply(
                aids,
                (truth_codes == NULL_CODE) * (1 if literal.literal.positive else -1),
                out=matrix[:, position],
            )
        produced = store.add_matrix(
            matrix,
            clause.weight,
            clause.name,
            compilation.repeat_pairs,
            compilation.tautology_pairs,
        )
        return produced, row_count - produced
