"""Tests for the bottom-up and top-down grounders, including the
property-based equivalence check between the two strategies."""


import pytest
from hypothesis import given, settings, strategies as st

from repro.core.program import MLNProgram
from repro.datasets.synthetic import random_program
from repro.grounding.bottom_up import BottomUpGrounder
from repro.grounding.lazy import active_closure
from repro.grounding.pruning import LiteralOutcome, equality_satisfies_clause, literal_outcome
from repro.grounding.top_down import TopDownGrounder
from repro.logic.predicates import Predicate
from repro.rdbms.optimizer import OptimizerOptions
from repro.utils.memory import MemoryModel

FIGURE1_PROGRAM = """
*wrote(author, paper)
*refers(paper, paper)
cat(paper, category)
5 cat(p, c1), cat(p, c2) => c1 = c2
1 wrote(x, p1), wrote(x, p2), cat(p1, c) => cat(p2, c)
2 cat(p1, c), refers(p1, p2) => cat(p2, c)
-1 cat(p, "Networking")
"""

FIGURE1_EVIDENCE = """
wrote(Joe, P1)
wrote(Joe, P2)
wrote(Jake, P3)
refers(P1, P3)
cat(P2, "DB")
"""


def figure1_program():
    program = MLNProgram.from_text(FIGURE1_PROGRAM, FIGURE1_EVIDENCE)
    program.add_constants("category", ["DB", "AI", "Networking"])
    return program


def canonical(store):
    """A comparable form of a clause store: sorted (literal-set, weight) pairs."""
    return sorted(
        (tuple(sorted(clause.literals)), round(clause.weight, 6)) for clause in store
    )


class TestBottomUpGrounder:
    def test_figure1_grounding(self):
        program = figure1_program()
        grounder = BottomUpGrounder()
        result = grounder.ground(program.clauses(), program.build_atom_registry())
        assert result.strategy == "bottom-up"
        assert result.ground_clause_count > 0
        # Every literal references a query atom (evidence is resolved away).
        query_ids = set(result.atoms.query_atom_ids())
        for clause in result.clauses:
            assert set(clause.atom_ids) <= query_ids
        # F1 instances pair distinct categories of the same paper; when one of
        # the two atoms is already true in the evidence the clause shrinks to
        # a single literal (the evidence literal is resolved away).
        f1_clauses = [c for c in result.clauses if c.source and c.source.startswith("R1")]
        assert f1_clauses
        assert all(1 <= len(c.literals) <= 2 for c in f1_clauses)

    def test_clause_table_persisted(self):
        program = figure1_program()
        grounder = BottomUpGrounder()
        result = grounder.ground(program.clauses(), program.build_atom_registry())
        assert grounder.database.has_table("ground_clauses")
        assert len(grounder.database.table("ground_clauses")) == len(result.clauses)

    def test_compiled_sql_per_clause(self):
        program = figure1_program()
        grounder = BottomUpGrounder()
        statements = grounder.compiled_sql(program.clauses())
        assert len(statements) == 4
        assert all("SELECT" in sql for sql in statements.values())

    def test_memory_model_charges_only_results(self):
        program = figure1_program()
        model = MemoryModel()
        grounder = BottomUpGrounder(memory_model=model)
        grounder.ground(program.clauses(), program.build_atom_registry())
        snapshot = model.snapshot()
        assert snapshot["clause_table"] > 0
        assert snapshot["grounding"] == 0

    def test_lesion_settings_produce_same_ground_clauses(self):
        program = figure1_program()
        reference = None
        for options in (
            OptimizerOptions.full_optimizer(),
            OptimizerOptions.fixed_join_order(),
            OptimizerOptions.nested_loop_only(),
        ):
            grounder = BottomUpGrounder(optimizer_options=options)
            result = grounder.ground(program.clauses(), program.build_atom_registry())
            shape = canonical(result.clauses)
            if reference is None:
                reference = shape
            else:
                assert shape == reference


class TestAtomTableReuse:
    """Atom tables (and the columnar encoded-column cache keyed on their
    version) are reused across ground() calls while the atom registry is
    unchanged, and rebuilt the moment it mutates."""

    def _grounder_and_program(self):
        from repro.rdbms.database import Database

        program = figure1_program()
        database = Database()
        grounder = BottomUpGrounder(database=database)
        return grounder, program, database

    def test_registry_version_tracks_mutations(self):
        program = figure1_program()
        atoms = program.build_atom_registry()
        version = atoms.version
        # Re-registering known atoms with known truth changes nothing.
        record = next(iter(atoms))
        atoms.register(record.atom, record.truth)
        assert atoms.version == version
        # A truth value moving from unknown to fixed bumps the version.
        query_record = atoms.record(atoms.query_atom_ids()[0])
        atoms.register(query_record.atom, True)
        assert atoms.version == version + 1

    def test_tables_reused_while_registry_unchanged(self):
        grounder, program, database = self._grounder_and_program()
        clauses = program.clauses()
        atoms = program.build_atom_registry()
        first = grounder.ground(clauses, atoms)
        table = database.table("pred_cat")
        version_after_first = table.version
        second = grounder.ground(clauses, atoms)
        # No truncate + reload: the table version (the columnar cache key)
        # is untouched, and the grounding is identical.
        assert table.version == version_after_first
        assert canonical(first.clauses) == canonical(second.clauses)

    def test_encoded_column_cache_survives_reground(self):
        from repro.rdbms.database import Database

        program = figure1_program()
        database = Database()
        grounder = BottomUpGrounder(database=database)
        clauses = program.clauses()
        atoms = program.build_atom_registry()
        grounder.ground(clauses, atoms)
        context = database.executor.columnar_context()
        table = database.table("pred_cat")
        cached = context.table_columns(table)
        grounder.ground(clauses, atoms)
        # Same encoded arrays, not a re-encoded copy.
        assert context.table_columns(table) is cached

    def test_registry_mutation_invalidates_and_regrounds(self):
        grounder, program, database = self._grounder_and_program()
        clauses = program.clauses()
        atoms = program.build_atom_registry()
        first = grounder.ground(clauses, atoms)
        table = database.table("pred_cat")
        version_after_first = table.version
        # New evidence: cat(P3, "AI") becomes fixed-true.
        record = atoms.record(atoms.lookup("cat", ("P3", "AI")))
        atoms.register(record.atom, True)
        second = grounder.ground(clauses, atoms)
        assert table.version > version_after_first  # reloaded
        assert canonical(first.clauses) != canonical(second.clauses)
        # The new evidence atom no longer appears as a query literal.
        evidence_id = record.atom_id
        for clause in second.clauses:
            assert evidence_id not in {abs(l) for l in clause.literals}

    def test_distinct_registries_never_share_tables(self):
        grounder, program, database = self._grounder_and_program()
        clauses = program.clauses()
        first = grounder.ground(clauses, program.build_atom_registry())
        other_program = figure1_program()
        other_atoms = other_program.build_atom_registry()
        table = database.table("pred_cat")
        version_after_first = table.version
        grounder.ground(other_program.clauses(), other_atoms)
        # Same logical contents but a different registry object: reloaded.
        assert table.version > version_after_first


class TestTopDownGrounder:
    def test_matches_bottom_up_on_figure1(self):
        program = figure1_program()
        bottom_up = BottomUpGrounder().ground(program.clauses(), program.build_atom_registry())
        top_down = TopDownGrounder().ground(program.clauses(), program.build_atom_registry())
        assert canonical(top_down.clauses) == canonical(bottom_up.clauses)
        assert top_down.strategy == "top-down"

    def test_counts_intermediate_tuples(self):
        program = figure1_program()
        model = MemoryModel()
        result = TopDownGrounder(memory_model=model).ground(
            program.clauses(), program.build_atom_registry()
        )
        assert result.intermediate_tuples > result.ground_clause_count
        assert model.snapshot()["grounding"] > 0

    def test_unbound_equality_variable_rejected(self):
        from repro.logic.clauses import WeightedClause
        from repro.logic.literals import Literal
        from repro.logic.terms import Variable

        predicate = Predicate("p", ("obj",))
        clause = WeightedClause(
            (Literal(predicate, (Variable("x"),)),),
            1.0,
            equalities=((Variable("x"), Variable("unbound"), True),),
        )
        program = MLNProgram()
        program.declare_predicate(predicate)
        program.add_constants("obj", ["A"])
        program.add_clause(clause)
        with pytest.raises(ValueError):
            TopDownGrounder().ground(program.clauses(), program.build_atom_registry())


class TestGrounderEquivalenceProperty:
    """Bottom-up and top-down grounding must agree on random programs."""

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_equivalence_on_random_programs(self, seed):
        program = random_program(seed=seed, n_predicates=2, domain_size=3, n_clauses=3)
        atoms_bottom = program.build_atom_registry()
        atoms_top = program.build_atom_registry()
        bottom_up = BottomUpGrounder(persist_clause_table=False).ground(
            program.clauses(), atoms_bottom
        )
        top_down = TopDownGrounder().ground(program.clauses(), atoms_top)
        assert canonical(bottom_up.clauses) == canonical(top_down.clauses)
        assert bottom_up.clauses.evidence_violation_cost == pytest.approx(
            top_down.clauses.evidence_violation_cost
        )


class TestPruningHelpers:
    def test_literal_outcomes(self):
        assert literal_outcome(None, True) is LiteralOutcome.UNKNOWN
        assert literal_outcome(True, True) is LiteralOutcome.SATISFIES
        assert literal_outcome(False, True) is LiteralOutcome.DROPPED
        assert literal_outcome(False, False) is LiteralOutcome.SATISFIES
        assert literal_outcome(True, False) is LiteralOutcome.DROPPED

    def test_equality_satisfaction(self):
        assert equality_satisfies_clause("A", "A", True)
        assert not equality_satisfies_clause("A", "B", True)
        assert equality_satisfies_clause("A", "B", False)
        assert not equality_satisfies_clause("A", "A", False)


class TestActiveClosure:
    def test_seed_clauses_are_those_violated_when_all_false(self):
        from repro.grounding.clause_table import GroundClauseStore

        store = GroundClauseStore()
        store.add((1,), 1.0)        # violated when all false -> active
        store.add((-2, 3), 1.0)     # satisfied by atom 2 being false -> inactive seed
        closure = active_closure(store)
        assert 1 in closure.atoms
        sources = {clause.literals for clause in closure.clauses}
        assert (1,) in sources

    def test_chain_activation(self):
        from repro.grounding.clause_table import GroundClauseStore

        store = GroundClauseStore()
        store.add((1,), 1.0)          # activates atom 1
        store.add((-1, 2), 1.0)       # can only be violated once atom 1 is active
        store.add((-3, 4), 1.0)       # never activatable: atom 3 stays false
        closure = active_closure(store)
        literal_sets = {clause.literals for clause in closure.clauses}
        assert (1,) in literal_sets
        assert (-1, 2) in literal_sets
        assert (-3, 4) not in literal_sets
        assert closure.atoms == frozenset({1, 2})

    def test_negative_weight_clause_active_when_satisfiable(self):
        from repro.grounding.clause_table import GroundClauseStore

        store = GroundClauseStore()
        store.add((-5, 6), -1.0)
        closure = active_closure(store)
        assert len(closure.clauses) == 1

    def test_as_store_round_trip(self):
        from repro.grounding.clause_table import GroundClauseStore

        store = GroundClauseStore()
        store.add((1, 2), 1.0, "F")
        closure = active_closure(store)
        rebuilt = closure.as_store()
        assert len(rebuilt) == 1
        assert rebuilt[0].source == "F"
