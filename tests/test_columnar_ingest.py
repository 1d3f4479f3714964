"""The path from evidence text to the grounder's tables, held as columns.

* Registry: :meth:`AtomRegistry.register_columns` (a batch of rows over
  several predicates) leaves the registry exactly as one scalar
  ``register`` per row does — ids, truth values, conflicts, retraction,
  closed-world defaults, per-predicate versions.
* Evidence: parsed text and ``add_evidence`` fill the same fact columns;
  ``remove_evidence`` finds facts through the index, and iteration stays
  in insertion order.
* Tables: a deferred load charges what a row load charges and builds its
  rows once, on the first read; pre-encoded columns analyze like rows.
* I/O parity: ground → batch loads → Tuffy-mm search → clause-table
  reload charges the pages, writes and simulated seconds pinned here from
  the row-by-row persistence.
* Design guard: a cold RC request on the columnar path builds no
  ``GroundAtom``, no ``AtomRecord`` and no table row tuple.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from row_oracle import RowOracleGrounder

from benchmarks.e2e.inputs import render_rc_text
from repro.core.config import InferenceConfig
from repro.core.engine import TuffyEngine
from repro.core.program import MLNProgram
from repro.datasets import DatasetScale, load_dataset
from repro.grounding.atoms import UNKNOWN, AtomRecord, AtomRegistry, truth_value
from repro.grounding.bottom_up import BottomUpGrounder
from repro.grounding.clause_table import GroundClauseStore
from repro.inference.rdbms_walksat import RDBMSWalkSAT
from repro.inference.walksat import WalkSATOptions
from repro.logic.predicates import GroundAtom, Predicate, make_atom
from repro.mrf.components import connected_components
from repro.mrf.graph import MRF
from repro.partitioning.loader import BatchLoader
from repro.rdbms.database import Database
from repro.rdbms.schema import TableSchema
from repro.rdbms.stats import TableStatistics
from repro.rdbms.types import ColumnType
from repro.utils.rng import RandomSource

PREDICATES = (
    Predicate("flag", ()),
    Predicate("p", ("t",)),
    Predicate("q", ("t", "t"), closed_world=True),
    Predicate("r", ("t", "u", "t")),
)
CONSTANTS = ("A", "B", "C")


def fingerprint(registry):
    """Everything observable about a registry."""
    return {
        "records": [
            (r.atom_id, r.atom.predicate.name, r.atom.argument_values(), r.truth)
            for r in registry
        ],
        "version": registry.version,
        "versions": registry.predicate_versions(p.name for p in PREDICATES),
        "query": registry.query_atom_ids(),
        "evidence": registry.evidence_atom_ids(),
        "counts": registry.count_by_predicate(),
    }


def apply_scalar(registry, rows):
    for predicate, values, code in rows:
        registry.register(make_atom(predicate, values), truth_value(code))


def apply_columns(registry, rows):
    """``rows`` as one ``register_columns`` batch."""
    present = list(dict.fromkeys(predicate for predicate, _, _ in rows))
    slot = {predicate.name: k for k, predicate in enumerate(present)}
    which = [slot[predicate.name] for predicate, _, _ in rows]
    codes = []
    for wanted in present:
        matrix = [
            [registry.encoder.encode_scalar(value) for value in values]
            for predicate, values, _ in rows
            if predicate.name == wanted.name
        ]
        codes.append(np.array(matrix, dtype=np.int64).reshape(len(matrix), wanted.arity))
    registry.register_columns(present, which, codes, [code for _, _, code in rows])


row = st.sampled_from(PREDICATES).flatmap(
    lambda predicate: st.tuples(
        st.just(predicate),
        st.tuples(*[st.sampled_from(CONSTANTS)] * predicate.arity),
        st.sampled_from((UNKNOWN, 0, 1)),
    )
)
step = st.one_of(
    st.tuples(st.just("batch"), st.lists(row, max_size=25)),
    st.tuples(st.just("retract"), st.integers(min_value=0, max_value=40)),
)


def run(steps, batched):
    """Apply the steps; returns the fingerprint and the errors raised."""
    registry = AtomRegistry()
    errors = []
    for kind, payload in steps:
        if kind == "batch":
            try:
                (apply_columns if batched else apply_scalar)(registry, payload)
            except ValueError as error:
                errors.append(str(error))
        else:
            evidence = registry.evidence_atom_ids()
            if evidence:
                atom = registry.atom(evidence[payload % len(evidence)])
                registry.remove_evidence(atom)
    return fingerprint(registry), errors


class TestRegisterColumns:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(step, max_size=6))
    def test_batches_equal_repeated_scalar_registers(self, steps):
        assert run(steps, batched=True) == run(steps, batched=False)

    def test_ids_follow_first_occurrence_across_predicates(self):
        p, q = PREDICATES[1], PREDICATES[2]
        rows = [(q, ("A", "B"), 1), (p, ("A",), UNKNOWN), (q, ("A", "B"), 1), (p, ("B",), 0)]
        registry = AtomRegistry()
        apply_columns(registry, rows)
        assert [r.atom_id for r in registry] == [1, 2, 3]
        assert [str(r.atom) for r in registry] == ["q(A, B)", "p(A)", "p(B)"]
        assert [r.truth for r in registry] == [True, None, False]

    def test_conflict_raises_at_the_row_register_would(self):
        p = PREDICATES[1]
        rows = [(p, ("A",), 1), (p, ("B",), UNKNOWN), (p, ("A",), 0), (p, ("C",), 1)]
        registry = AtomRegistry()
        with pytest.raises(ValueError, match=r"conflicting evidence for atom p\(A\)"):
            apply_columns(registry, rows)
        # Rows before the conflict are registered, later ones are not.
        assert [str(r.atom) for r in registry] == ["p(A)", "p(B)"]

    def test_closed_world_retraction_is_a_default_not_evidence(self):
        q = PREDICATES[2]
        registry = AtomRegistry()
        apply_columns(registry, [(q, ("A", "B"), 1)])
        registry.remove_evidence(make_atom(q, ("A", "B")))
        assert registry.truth(1) is False
        # Re-asserting either value is allowed once, through the batch too.
        apply_columns(registry, [(q, ("A", "B"), 1)])
        assert registry.truth(1) is True
        assert registry.predicate_version("q") == 3

    def test_a_batch_names_each_predicate_once(self):
        p = PREDICATES[1]
        registry = AtomRegistry()
        with pytest.raises(ValueError, match="once"):
            registry.register_columns([p, p], [0, 1], [np.zeros((1, 1)), np.zeros((1, 1))], [0, 0])

    def test_records_are_fresh_views(self):
        registry = AtomRegistry()
        registry.register(make_atom(PREDICATES[1], ("A",)), True)
        first, second = registry.record(1), registry.record(1)
        assert first == second and first is not second
        assert isinstance(first, AtomRecord) and first.atom == make_atom(PREDICATES[1], ("A",))


PROGRAM_TEXT = """
*wrote(author, paper)
cat(paper, category)
1 wrote(x, p1), wrote(x, p2), cat(p1, c) => cat(p2, c)
"""


class TestEvidenceColumns:
    FACTS = [
        ("wrote", ("Joe", "P1"), True),
        ("cat", ("P1", "DB"), True),
        ("wrote", ("Ann", "P2"), True),
        ("cat", ("P2", "C#"), False),
        ("wrote", ("Joe", "P1"), True),
        ("cat", ("P3", "a, b"), True),
    ]

    def text(self):
        lines = []
        for name, (first, second), truth in self.FACTS:
            lines.append(f'{"" if truth else "!"}{name}({first}, "{second}")  // note')
        return "\n".join(lines) + "\n"

    def by_calls(self):
        program = MLNProgram.from_text(PROGRAM_TEXT)
        for name, arguments, truth in self.FACTS:
            program.add_evidence(name, arguments, truth)
        return program

    def test_text_and_calls_build_the_same_program(self):
        parsed = MLNProgram.from_text(PROGRAM_TEXT, self.text())
        built = self.by_calls()
        assert fingerprint_program(parsed) == fingerprint_program(built)
        assert [(f.atom.predicate.name, f.atom.argument_values(), f.truth) for f in parsed.evidence] == [
            (name, arguments, truth) for name, arguments, truth in self.FACTS
        ]

    def test_remove_takes_the_first_live_fact_in_order(self):
        program = self.by_calls()
        spec = list(self.FACTS)
        for name, arguments in (("wrote", ("Joe", "P1")), ("cat", ("P2", "C#"))):
            program.remove_evidence(name, arguments)
            spec.remove(next(f for f in spec if f[:2] == (name, arguments)))
            program.add_evidence("wrote", ("Bo", "P9"))
            spec.append(("wrote", ("Bo", "P9"), True))
            assert [
                (f.atom.predicate.name, f.atom.argument_values(), f.truth) for f in program.evidence
            ] == spec
            assert len(program.evidence) == len(spec)
        program.remove_evidence("wrote", ("Joe", "P1"))
        with pytest.raises(Exception, match="no evidence fact"):
            program.remove_evidence("wrote", ("Joe", "P1"))

    def test_retraction_reaches_the_registry(self):
        program = self.by_calls()
        program.remove_evidence("cat", ("P1", "DB"))
        registry = program.build_atom_registry()
        assert registry.truth(registry.lookup("cat", ("P1", "DB"))) is None


def fingerprint_program(program):
    registry = program.build_atom_registry()
    return (
        [(r.atom_id, str(r.atom), r.truth) for r in registry],
        {name: program.domains[name].values() for name in program.domains.type_names()},
        len(program.evidence),
    )


class TestDeferredTables:
    SCHEMA = TableSchema.of(("a", ColumnType.INTEGER), ("b", ColumnType.TEXT))

    def test_charges_like_a_row_load_and_builds_once(self):
        rows = [(i, f"v{i % 7}") for i in range(300)]
        eager, deferred = Database(page_size=16), Database(page_size=16)
        eager.create_table("t", self.SCHEMA).bulk_load(rows)
        built = []
        table = deferred.create_table("t", self.SCHEMA)
        table.bulk_load_deferred(len(rows), lambda: built.append(1) or list(rows))
        assert len(table) == 300 and table.page_count() == 19 and built == []
        assert deferred.io_statistics().as_dict() == eager.io_statistics().as_dict()
        assert list(table.scan(charge_io=True)) == rows == list(eager.table("t").scan(charge_io=True))
        assert deferred.io_statistics().as_dict() == eager.io_statistics().as_dict()
        assert list(table) == rows and built == [1]

    def test_later_inserts_follow_the_deferred_rows(self):
        database = Database(page_size=4)
        table = database.create_table("t", self.SCHEMA)
        table.bulk_load_deferred(3, lambda: [(1, "a"), (2, "b"), (3, "c")])
        table.insert((4, "d"))
        assert [row[0] for row in table.rows] == [1, 2, 3, 4]
        assert [row[0] for row in database.storage.scan("t")] == [1, 2, 3, 4]
        table.truncate()
        assert len(table) == 0 and table.rows == []

    def test_encoded_columns_analyze_like_rows(self):
        from repro.rdbms.column_batch import ValueEncoder

        rows = [(i % 5, None if i % 3 == 0 else f"v{i % 4}") for i in range(40)]
        encoder = ValueEncoder()
        columns = [encoder.encode_values([row[p] for row in rows]) for p in range(2)]
        database = Database()
        table = database.create_table("t", self.SCHEMA)
        table.bulk_load_deferred(len(rows), lambda: list(rows), columns)
        from_codes = TableStatistics.analyze(table)
        table.insert((9, "z"))  # any other mutation drops the encoded columns
        assert table.encoded is None
        table.truncate()
        table.bulk_load(rows)
        assert TableStatistics.analyze(table) == from_codes


#: The row-by-row persistence's charges on RC and IE (factor 1, seed 0):
#: (page reads, page writes, buffer hits, buffer misses, simulated clock)
#: after ground, a batched and an unbatched load, a Tuffy-mm search on
#: the first component, and a clause-table reload.
IO_PARITY = {
    "RC": [
        (0, 34, 0, 0, "0x0.0p+0"),
        (104, 34, 78, 26, "0x1.a9fbe76c8b43ep-7"),
        (728, 34, 702, 26, "0x1.a9fbe76c8b43ep-7"),
        (763, 69, 736, 27, "0x1.b0a3d70a3d710p-1"),
        (789, 69, 762, 27, "0x1.b0a3d70a3d710p-1"),
    ],
    "IE": [
        (0, 23, 0, 0, "0x0.0p+0"),
        (26, 23, 13, 13, "0x1.a9fbe76c8b43cp-8"),
        (806, 23, 793, 13, "0x1.a9fbe76c8b43cp-8"),
        (816, 33, 802, 14, "0x1.d1eb851eb8522p-3"),
        (829, 33, 815, 14, "0x1.d1eb851eb8522p-3"),
    ],
}


@pytest.mark.parametrize(
    "grounder", [BottomUpGrounder, RowOracleGrounder], ids=["columnar", "row"]
)
@pytest.mark.parametrize("dataset", sorted(IO_PARITY))
def test_clause_table_io_is_charged_as_before(dataset, grounder):
    def charges():
        io = database.io_statistics()
        return (io.page_reads, io.page_writes, io.buffer_hits, io.buffer_misses, database.clock.now().hex())

    program = load_dataset(dataset, DatasetScale(factor=1, seed=0)).program
    database = Database(buffer_pool_pages=64)
    grounding = grounder(database=database).ground(
        program.clauses(), program.build_atom_registry()
    )
    seen = [charges()]
    components = connected_components(MRF.from_store(grounding.clauses)).components
    for batched in (True, False):
        BatchLoader(database, memory_budget=2000.0).load(components, batched=batched)
        seen.append(charges())
    RDBMSWalkSAT(database, WalkSATOptions(max_flips=200), RandomSource(1)).run(components[0])
    seen.append(charges())
    reloaded = GroundClauseStore.load_from_database(database)
    seen.append(charges())
    assert seen == IO_PARITY[dataset]
    assert reloaded.columns == grounding.clauses.columns


def test_cold_request_builds_no_atom_objects_or_table_rows(monkeypatch):
    """Text to tables without one Python object per fact, atom or row:
    a change that re-materialises them on the cold path fails here."""
    text = render_rc_text(1, 0)
    built = []
    for cls in (GroundAtom, AtomRecord):
        original = cls.__init__

        def counting(self, *args, _original=original, _cls=cls, **kwargs):
            built.append(_cls.__name__)
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    config = InferenceConfig(max_flips=2000)
    with TuffyEngine(text.parse(), config) as engine:
        engine.run_map(seed=0)
        tables = list(engine.database.catalog)
        assert {table.name for table in tables} >= {"ground_clauses", "pred_cat"}
        assert all(table._rows == [] for table in tables)
        assert built == []
        # The counters see views: reading one builds one.
        assert engine.grounding_result.atoms.record(1).atom_id == 1
    assert built == ["GroundAtom", "AtomRecord"]
