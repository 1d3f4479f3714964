"""End-to-end grounding parity: the columnar engine vs the row oracle.

The acceptance bar for the grounder is *bit-identical* ``GroundingResult``s
against the tuple-at-a-time specification (``row_oracle.RowOracleGrounder``:
the oracle's rows, one ``add`` per binding): the same ground clauses
(literals in the same order, same weights from the same sequence of
floating-point merges, same sources), assigned the same clause ids in the
same order, with the same store-level and per-clause statistics and the
same page charges — on every optimizer plan shape the lesion study
exercises, across the paper's workloads.
"""

import pytest
from row_oracle import RowOracleGrounder, ground_by_rows

from repro.core import InferenceConfig, MLNProgram, TuffyEngine
from repro.datasets import DatasetScale, load_dataset
from repro.grounding.bottom_up import BottomUpGrounder
from repro.rdbms.database import Database
from repro.rdbms.optimizer import OptimizerOptions

# The paper's running example (Figure 1 / Example 1): authors, citations
# and paper categories, with an equality-constrained rule.
EXAMPLE1_PROGRAM = """
*wrote(author, paper)
*refers(paper, paper)
cat(paper, category)
5 cat(p, c1), cat(p, c2) => c1 = c2
1 wrote(x, p1), wrote(x, p2), cat(p1, c) => cat(p2, c)
2 cat(p1, c), refers(p1, p2) => cat(p2, c)
-1 cat(p, "Networking")
"""

EXAMPLE1_EVIDENCE = """
wrote(Joe, P1)
wrote(Joe, P2)
wrote(Jake, P3)
refers(P1, P3)
cat(P2, "DB")
"""

PLAN_SHAPES = {
    "full-optimizer": OptimizerOptions.full_optimizer,
    "fixed-join-order": OptimizerOptions.fixed_join_order,
    "nested-loop-only": OptimizerOptions.nested_loop_only,
    "sort-merge-charged": lambda: OptimizerOptions(enable_hash_join=False, charge_io=True),
}


def example1_program():
    program = MLNProgram.from_text(EXAMPLE1_PROGRAM, EXAMPLE1_EVIDENCE)
    program.add_constants("category", ["DB", "AI", "Networking"])
    return program


def dataset_program(name):
    return load_dataset(name, DatasetScale(factor=0.5, seed=0)).program


PROGRAMS = {
    "example1": example1_program,
    "IE": lambda: dataset_program("IE"),
    "LP": lambda: dataset_program("LP"),
    "RC": lambda: dataset_program("RC"),
    "ER": lambda: dataset_program("ER"),
}


def grounding_snapshot(result):
    """Everything observable about a grounding except wall-clock times."""
    store = result.clauses
    return {
        "clauses": [
            (clause.clause_id, clause.literals, clause.weight, clause.source)
            for clause in store
        ],
        "satisfied_by_evidence": store.satisfied_by_evidence,
        "evidence_violation_cost": store.evidence_violation_cost,
        "tautologies": store.tautologies,
        "per_clause": [
            (
                stats.clause_name,
                stats.ground_clauses,
                stats.pruned_bindings,
                stats.intermediate_tuples,
                stats.sql,
            )
            for stats in result.per_clause
        ],
        "intermediate_tuples": result.intermediate_tuples,
        "pruned_bindings": result.pruned_bindings,
        "strategy": result.strategy,
        "summary": {
            key: value for key, value in result.summary().items() if key != "seconds"
        },
    }


GROUNDERS = {"row": RowOracleGrounder, "columnar": BottomUpGrounder}


def ground_with(program_factory, backend, options):
    """A grounding, plus the database's page charges and simulated clock."""
    program = program_factory()
    database = Database(buffer_pool_pages=64)
    grounder = GROUNDERS[backend](database=database, optimizer_options=options)
    result = grounder.ground(program.clauses(), program.build_atom_registry())
    return result, (database.io_statistics().as_dict(), database.clock.now().hex())


class TestGroundingBitIdentical:
    @pytest.mark.parametrize("program_name", sorted(PROGRAMS))
    @pytest.mark.parametrize("plan_shape", sorted(PLAN_SHAPES))
    def test_row_and_columnar_grounding_identical(self, program_name, plan_shape):
        factory = PROGRAMS[program_name]
        options = PLAN_SHAPES[plan_shape]()
        row, row_io = ground_with(factory, "row", options)
        columnar, columnar_io = ground_with(factory, "columnar", options)
        assert grounding_snapshot(row) == grounding_snapshot(columnar)
        assert row_io == columnar_io

    def test_default_options_on_tiny_tables_identical(self):
        row, row_io = ground_with(example1_program, "row", None)
        columnar, columnar_io = ground_with(example1_program, "columnar", None)
        assert grounding_snapshot(row) == grounding_snapshot(columnar)
        assert row_io == columnar_io


class TestEngineThreading:
    def test_engine_runs_map(self):
        config = InferenceConfig(seed=0, max_flips=500, use_partitioning=False)
        engine = TuffyEngine(example1_program(), config)
        result = engine.run_map()
        assert result.cost >= 0.0

    def test_map_results_identical_to_row_oracle(self, monkeypatch):
        def run():
            engine = TuffyEngine(example1_program(), InferenceConfig(seed=7, max_flips=2000))
            result = engine.run_map()
            return result.cost, result.assignment

        columnar = run()
        ground_by_rows(monkeypatch)
        assert run() == columnar

    def test_config_has_no_execution_backend(self):
        with pytest.raises(TypeError):
            InferenceConfig(execution_backend="row")


class TestPrunedBindingsSurfaced:
    # A program whose bindings get fully decided by the evidence: the
    # binding x=A of ``e(x) => f(x)`` drops both literals (e(A) true,
    # f(A) explicitly false) and becomes an empty, evidence-violated
    # clause; x=B is pruned inside the query (f(B) satisfies).  The second
    # rule grounds to tautologies ``!q(x) v q(x)`` for every unknown atom.
    PRUNE_PROGRAM = """
    *e(thing)
    *f(thing)
    q(thing)
    1 e(x) => f(x)
    1 q(x) => q(x)
    """
    PRUNE_EVIDENCE = """
    e(A)
    e(B)
    f(B)
    !f(A)
    """

    def _ground(self, backend):
        program = MLNProgram.from_text(self.PRUNE_PROGRAM, self.PRUNE_EVIDENCE)
        grounder = GROUNDERS[backend]()
        return grounder.ground(program.clauses(), program.build_atom_registry())

    @pytest.mark.parametrize("backend", ["row", "columnar"])
    def test_bottom_up_counts_evidence_decided_bindings(self, backend):
        result = self._ground(backend)
        assert result.pruned_bindings > 0
        assert result.summary()["pruned_bindings"] == result.pruned_bindings
        assert result.clauses.evidence_violation_cost > 0
        assert result.clauses.tautologies > 0

    def test_pruned_bindings_identical_across_backends(self):
        row = grounding_snapshot(self._ground("row"))
        columnar = grounding_snapshot(self._ground("columnar"))
        assert row == columnar
