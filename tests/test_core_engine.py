"""End-to-end tests of TuffyEngine and the Alchemy baseline engine."""

import math

import pytest

from repro.baselines.alchemy import AlchemyEngine
from repro.core.config import InferenceConfig
from repro.core.engine import TuffyEngine
from repro.core.program import MLNProgram
from repro.datasets import DatasetScale, load_dataset
from repro.mrf.cost import assignment_cost
from repro.parallel import processes_available

PROGRAM_TEXT = """
*wrote(author, paper)
*refers(paper, paper)
cat(paper, category)
5 cat(p, c1), cat(p, c2) => c1 = c2
1 wrote(x, p1), wrote(x, p2), cat(p1, c) => cat(p2, c)
2 cat(p1, c), refers(p1, p2) => cat(p2, c)
-1 cat(p, "Networking")
"""

EVIDENCE_TEXT = """
wrote(Joe, P1)
wrote(Joe, P2)
wrote(Jake, P3)
refers(P1, P3)
cat(P2, "DB")
"""


def figure1_program():
    program = MLNProgram.from_text(PROGRAM_TEXT, EVIDENCE_TEXT)
    program.add_constants("category", ["DB", "AI", "Networking"])
    return program


class TestTuffyEngine:
    def test_map_inference_classifies_papers(self):
        engine = TuffyEngine(figure1_program(), InferenceConfig(seed=0, max_flips=30_000))
        result = engine.run_map()
        # Papers linked by authorship / citation inherit the evidence labels.
        assert result.truth_of("cat", ["P1", "DB"]) is True
        assert result.truth_of("cat", ["P3", "DB"]) is True
        assert result.truth_of("cat", ["P1", "Networking"]) is False
        # Evidence atoms keep their evidence value.
        assert result.truth_of("cat", ["P2", "DB"]) is True
        assert result.truth_of("cat", ["P9", "DB"]) is None

    def test_reported_cost_matches_assignment(self):
        engine = TuffyEngine(figure1_program(), InferenceConfig(seed=1, max_flips=20_000))
        result = engine.run_map()
        mrf = engine.build_mrf()
        recomputed = assignment_cost(mrf, result.assignment, hard_as_infinite=False)
        recomputed += engine.grounding_result.clauses.evidence_violation_cost
        assert result.cost == pytest.approx(recomputed)

    def test_partitioned_and_monolithic_agree_on_quality(self):
        partitioned = TuffyEngine(
            figure1_program(), InferenceConfig(seed=0, max_flips=20_000, use_partitioning=True)
        ).run_map()
        monolithic = TuffyEngine(
            figure1_program(), InferenceConfig(seed=0, max_flips=20_000, use_partitioning=False)
        ).run_map()
        assert partitioned.cost <= monolithic.cost + 1e-9
        assert partitioned.label == "tuffy"
        assert monolithic.label == "tuffy-p"

    def test_top_down_strategy_equivalent_grounding(self):
        bottom_up = TuffyEngine(figure1_program(), InferenceConfig(seed=0, max_flips=1000))
        top_down = TuffyEngine(
            figure1_program(),
            InferenceConfig(seed=0, max_flips=1000, grounding_strategy="top-down"),
        )
        a = bottom_up.ground()
        b = top_down.ground()
        assert a.ground_clause_count == b.ground_clause_count
        assert a.strategy == "bottom-up" and b.strategy == "top-down"

    def test_lazy_closure_never_grows_clause_count(self):
        plain = TuffyEngine(figure1_program(), InferenceConfig(seed=0, max_flips=100))
        lazy = TuffyEngine(
            figure1_program(), InferenceConfig(seed=0, max_flips=100, use_lazy_closure=True)
        )
        assert lazy.ground().ground_clause_count <= plain.ground().ground_clause_count

    def test_memory_budget_triggers_further_partitioning(self):
        config = InferenceConfig(seed=0, max_flips=5_000, memory_budget_bytes=64 * 30)
        engine = TuffyEngine(figure1_program(), config)
        result = engine.run_map()
        assert result.cost < math.inf
        assert result.peak_memory_bytes <= 64 * 40  # bounded by roughly the budget

    def test_phase_breakdown_and_summary(self):
        engine = TuffyEngine(figure1_program(), InferenceConfig(seed=0, max_flips=2_000))
        result = engine.run_map()
        assert "grounding" in result.phase_seconds
        assert "search" in result.phase_seconds
        summary = result.summary()
        assert summary["components"] == result.component_count
        assert summary["ground_clauses"] > 0
        assert result.flips > 0

    def test_run_marginal_produces_probabilities(self):
        config = InferenceConfig(seed=0, mcsat_samples=20, mcsat_burn_in=5)
        engine = TuffyEngine(figure1_program(), config)
        result = engine.run_marginal()
        assert result.marginals is not None
        probabilities = result.marginals.probabilities
        assert probabilities
        assert all(0.0 <= p <= 1.0 for p in probabilities.values())
        # The strongly supported atom should have a high marginal.
        atom_id = engine.grounding_result.atoms.lookup("cat", ("P1", "DB"))
        assert result.marginals.probability(atom_id) >= 0.5

    def test_marginals_identical_on_both_count_paths(self, monkeypatch):
        """The loop and the bincount count initialisation (and with them
        MC-SAT's scalar and batched pipelines) give the same marginals."""
        from repro.mrf import graph

        results = {}
        for threshold in (10**9, 0):
            monkeypatch.setattr(graph, "NUMPY_VIEW_MIN_CLAUSES", threshold)
            config = InferenceConfig(seed=0, mcsat_samples=15, mcsat_burn_in=3)
            result = TuffyEngine(figure1_program(), config).run_marginal()
            results[threshold] = result.marginals.probabilities
        assert results[10**9] == results[0]

    @pytest.mark.parametrize(
        "field, value",
        (
            ("max_tries", 0),
            ("mcsat_burn_in", -5),
            ("bytes_per_state_unit", 0),
            ("deadline_seconds", -1.0),
            ("max_inflight_requests", 0),
        ),
    )
    def test_out_of_range_value_rejected_at_construction(self, field, value):
        """Each of these used to fail (or silently skip work) only at request time."""
        from repro.core.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match=field):
            InferenceConfig(**{field: value}, memory_budget_bytes=1000)

    @pytest.mark.parametrize(
        "overrides, message",
        (
            (dict(tracing="off", trace_out="trace.json"), "trace_out needs tracing"),
            (
                dict(use_partitioning=False, memory_budget_bytes=2048),
                "memory_budget_bytes needs use_partitioning",
            ),
        ),
    )
    def test_ignored_setting_combination_rejected(self, overrides, message):
        """Each combination used to run while silently ignoring one setting."""
        from repro.core.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match=message):
            InferenceConfig(**overrides)

    @pytest.mark.parametrize(
        "overrides",
        (
            dict(tracing="auto", trace_out="trace.json"),
            dict(tracing="on", trace_out="trace.json"),
            dict(tracing="off"),
            dict(use_partitioning=True, memory_budget_bytes=2048),
            dict(use_partitioning=False),
        ),
    )
    def test_neighbouring_combinations_stay_legal(self, overrides):
        InferenceConfig(**overrides)

    def test_zero_deadline_and_burn_in_are_legal(self):
        config = InferenceConfig(deadline_seconds=0, mcsat_burn_in=0)
        assert config.deadline_seconds == 0 and config.mcsat_burn_in == 0

    def test_true_atoms_only_query_atoms(self):
        engine = TuffyEngine(figure1_program(), InferenceConfig(seed=0, max_flips=10_000))
        result = engine.run_map()
        names = {str(atom) for atom in result.true_atoms("cat")}
        assert "cat(P2, DB)" not in names  # evidence, not a query atom
        assert any(name.startswith("cat(P1") for name in names)


class TestAlchemyEngine:
    def test_runs_and_reports_memory_peak(self):
        engine = AlchemyEngine(figure1_program(), InferenceConfig(seed=0, max_flips=10_000))
        result = engine.run_map()
        assert result.label == "alchemy"
        assert result.component_count == 1
        assert result.cost < math.inf
        assert result.peak_memory_bytes > 0

    def test_alchemy_grounding_slower_or_equal_and_memory_larger(self):
        program = figure1_program()
        tuffy = TuffyEngine(program, InferenceConfig(seed=0, max_flips=1_000))
        alchemy = AlchemyEngine(figure1_program(), InferenceConfig(seed=0, max_flips=1_000))
        tuffy_result = tuffy.run_map()
        alchemy_result = alchemy.run_map()
        # The analytic memory model must charge Alchemy for intermediate
        # grounding state that Tuffy leaves inside the RDBMS.
        assert alchemy_result.memory["grounding"] > 0
        assert tuffy_result.memory["grounding"] == 0
        assert alchemy_result.peak_memory_bytes > tuffy_result.peak_memory_bytes

    def test_same_ground_mrf_as_tuffy(self):
        tuffy = TuffyEngine(figure1_program(), InferenceConfig(seed=0, max_flips=100))
        alchemy = AlchemyEngine(figure1_program(), InferenceConfig(seed=0, max_flips=100))
        assert tuffy.ground().ground_clause_count == alchemy.ground().ground_clause_count


@pytest.mark.skipif(not processes_available(), reason="fork not available")
class TestEphemeralPoolLaunches:
    def test_budgeted_warm_requests_count_their_first_pass_pools(self):
        """A budgeted request on processes forks one ephemeral pool for
        Gauss-Seidel's first pass: the scheduler counts it in the session's
        registry, apart from the session's persistent pool launches."""
        program = load_dataset("ER", DatasetScale(factor=0.5, seed=2)).program
        config = InferenceConfig(
            seed=2,
            max_flips=8000,
            memory_budget_bytes=2048,
            workers=2,
            parallel_backend="processes",
        )
        with TuffyEngine(program, config) as engine:
            engine.run_map()
            launches = engine.stats.pool_launches
            ephemeral = engine.metrics.counter("scheduler.ephemeral_pool_launches")
            for _ in range(3):
                engine.run_map()
            assert engine.metrics.counter("scheduler.ephemeral_pool_launches") == ephemeral + 3
            assert engine.stats.pool_launches == launches
