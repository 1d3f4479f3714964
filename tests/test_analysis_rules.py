"""Per-rule tests for the determinism & parity linter.

Each rule gets a positive fixture (the violation fires), a negative fixture
(conforming code stays clean) and, for the per-file rules, a suppressed
fixture (``# repro: allow(...)`` silences it).  Fixtures are written into a
``tmp_path`` tree shaped like ``src/repro`` so the directory-scoped rules
(``fork-*``, ``det-wallclock``, ``obs-purity``) see the paths they key on.
"""

from pathlib import Path
from textwrap import dedent
from typing import Dict, List, Optional, Sequence

import pytest

from repro.analysis.framework import (
    BAD_SUPPRESSION,
    PARSE_ERROR,
    AnalysisReport,
    Finding,
    run_analysis,
)


def analyze(
    tmp_path: Path,
    files: Dict[str, str],
    select: Optional[Sequence[str]] = None,
) -> AnalysisReport:
    """Write the fixture files under a fresh root and run the analyzer."""
    root = tmp_path / "tree"
    for rel, code in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(dedent(code), encoding="utf-8")
    return run_analysis([root], select=select)


def rules_fired(report: AnalysisReport) -> List[str]:
    return sorted({finding.rule for finding in report.findings})


def messages(report: AnalysisReport, rule: str) -> List[str]:
    return [f.message for f in report.findings if f.rule == rule]


class TestUnorderedIteration:
    def test_for_loop_over_set_literal_fires(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"mod.py": """\
            def f(xs):
                out = []
                for x in {1, 2, 3}:
                    out.append(x)
                return out
            """})
        assert rules_fired(report) == ["det-set-iter"]

    def test_comprehension_and_list_of_set_fire(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"mod.py": """\
            def f(xs):
                a = [x for x in set(xs)]
                b = list(frozenset(xs))
                return a, b
            """})
        assert len(messages(report, "det-set-iter")) == 2

    def test_sorted_set_and_ordered_dedup_are_clean(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"mod.py": """\
            def f(xs):
                a = sorted(set(xs))
                b = list(dict.fromkeys(xs))
                c = max(list(set(xs)))
                for x in xs:
                    pass
                return a, b, c
            """})
        assert report.findings == []

    def test_trailing_suppression_with_justification(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"mod.py": """\
            def f(xs):
                return [x for x in set(xs)]  # repro: allow(det-set-iter): sorted by caller
            """})
        assert report.findings == []
        assert len(report.suppressed) == 1

    def test_standalone_suppression_covers_next_statement(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"mod.py": """\
            def f(xs):
                # repro: allow(det-set-iter): membership only, order irrelevant
                members = list(set(xs))
                return members
            """})
        assert report.findings == []
        assert len(report.suppressed) == 1


class TestUnorderedFloatSum:
    def test_sum_over_set_fires(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"mod.py": """\
            import math

            def f(ws):
                return sum(set(ws)) + math.fsum({1.0, 2.0})
            """})
        assert len(messages(report, "det-float-sum")) == 2

    def test_generator_driven_by_set_fires(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"mod.py": """\
            def f(ws):
                return sum(w * 2.0 for w in set(ws))
            """})
        assert rules_fired(report) == ["det-float-sum"]

    def test_counting_generator_and_ordered_sum_are_clean(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"mod.py": """\
            def f(ws):
                count = sum(1 for w in set(ws))
                total = sum(sorted(ws))
                return count + total
            """})
        assert report.findings == []

    def test_numpy_pairwise_reductions_fire_in_the_core(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"inference/kernel.py": """\
            import numpy
            import numpy as np
            from numpy import dot

            def f(w, starts):
                total = np.sum(w) + numpy.mean(w) + dot(w, w)
                return total, np.add.reduce(w), np.add.reduceat(w, starts)
            """})
        found = messages(report, "det-float-sum")
        assert len(found) == 5
        assert any("np.add.reduceat()" in message for message in found)

    def test_sequential_forms_and_non_core_files_are_clean(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {
            "cli.py": """\
                import numpy as np

                def f(w):
                    return np.sum(w)
                """,
            "mrf/views.py": """\
                import numpy as np

                def f(flags, owners, w):
                    count = flags.sum()
                    totals = np.bincount(owners, weights=w)
                    return count, totals, sum(w.tolist())
                """,
        })
        assert report.findings == []

    def test_integer_count_is_suppressible(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"grounding/count.py": """\
            import numpy as np

            def f(mask):
                return np.sum(mask)  # repro: allow(det-float-sum): boolean count, exact
            """})
        assert report.findings == []
        assert len(report.suppressed) == 1


class TestRawRandom:
    def test_module_random_and_entropy_sources_fire(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"mod.py": """\
            import os
            import random
            import uuid

            def f():
                return random.random(), os.urandom(8), uuid.uuid4()
            """})
        assert len(messages(report, "det-raw-random")) == 3

    def test_from_import_use_fires(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"mod.py": """\
            from random import shuffle

            def f(xs):
                shuffle(xs)
            """})
        assert rules_fired(report) == ["det-raw-random"]

    def test_rng_wrapper_module_is_sanctioned(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"utils/rng.py": """\
            import random

            def make(seed):
                return random.Random(seed)
            """})
        assert report.findings == []

    def test_injected_rng_attribute_is_clean(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"mod.py": """\
            def f(rng, xs):
                return rng.shuffle(xs)
            """})
        assert report.findings == []


class TestWallClock:
    def test_time_read_in_scoped_dir_fires(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"inference/loop.py": """\
            import time

            def f():
                return time.perf_counter()
            """})
        assert rules_fired(report) == ["det-wallclock"]

    def test_time_read_outside_scope_is_clean(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"cli.py": """\
            import time

            def f():
                return time.perf_counter()
            """})
        assert report.findings == []


class TestIdHashOrder:
    def test_sort_keyed_on_identity_fires(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"mod.py": """\
            def f(xs):
                xs.sort(key=id)
                return sorted(xs, key=lambda x: hash(x))
            """})
        assert len(messages(report, "det-id-hash-order")) == 2

    def test_stable_key_is_clean(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"mod.py": """\
            def f(atoms):
                return sorted(atoms, key=lambda a: a.atom_id)
            """})
        assert report.findings == []


class TestForkModuleState:
    def test_worker_mutating_module_global_fires(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"parallel/pool.py": """\
            _CACHE = {}

            def _worker_run(task):
                _CACHE[task.component_id] = task
                _CACHE.update({})
            """})
        assert len(messages(report, "fork-module-state")) == 2

    def test_request_run_chunk_mutating_module_global_fires(self, tmp_path: Path) -> None:
        # Every forked worker runs a request's run_chunk, wherever the
        # request class lives.
        report = analyze(tmp_path, {"inference/sampler.py": """\
            _SEEN = []

            class SampleRequest:
                def run_chunk(self, indices, context, traced):
                    _SEEN.extend(indices)
                    return [], {}, 0, None
            """})
        assert rules_fired(report) == ["fork-module-state"]

    def test_global_declaration_fires(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"parallel/pool.py": """\
            _RESULTS = []

            def _worker_loop(queue):
                global _RESULTS
                _RESULTS = []
            """})
        assert rules_fired(report) == ["fork-module-state"]

    def test_local_state_and_non_worker_are_clean(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"inference/search.py": """\
            _CACHE = {}

            class SearchRequest:
                def run_chunk(self, indices, context, traced):
                    local = {}
                    for index in indices:
                        local[index] = context.slot(index)
                    return local

                def read_results(self, components, buffers, overrides):
                    _CACHE[len(components)] = buffers

            def coordinator_only(task):
                _CACHE[task.component_id] = task
            """})
        assert report.findings == []

    def test_same_code_outside_worker_dirs_is_clean(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"core/pool.py": """\
            _CACHE = {}

            class Request:
                def run_chunk(self, indices, context, traced):
                    _CACHE[len(indices)] = context
            """})
        assert report.findings == []


class TestSharedMemoryPublish:
    def test_write_after_publication_fires(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"parallel/buffers.py": """\
            class ComponentBuffer:
                def __init__(self, shm, n):
                    self._ints = shm.buf.cast("q")
                    self._ints[0] = n

                def poke(self, index, value):
                    self._ints[index] = value
            """})
        found = messages(report, "fork-shm-publish")
        assert len(found) == 1 and "'poke'" in found[0] or "poke" in found[0]

    def test_alias_write_fires(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"parallel/buffers.py": """\
            class ComponentBuffer:
                def __init__(self, shm):
                    self._ints = shm.buf.cast("q")

                def rewrite(self, values):
                    view = self._ints
                    view[0] = values[0]
            """})
        assert rules_fired(report) == ["fork-shm-publish"]

    def test_packing_writes_are_allowed(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"parallel/buffers.py": """\
            class ComponentBuffer:
                def __init__(self, shm, values):
                    self._ints = shm.buf.cast("q")
                    self._pack_all(values)

                def pack(self, values):
                    self._ints[0] = len(values)

                def _pack_all(self, values):
                    for index, value in enumerate(values):
                        self._ints[index] = value

                def read(self, index):
                    return self._ints[index]
            """})
        assert report.findings == []

    def test_sanctioned_result_writer_is_clean(self, tmp_path: Path) -> None:
        # The result-shipping carve-out: a method named in
        # `_result_region_writers` may write shm attributes whose names
        # contain 'result' — directly or through a local alias.
        report = analyze(tmp_path, {"parallel/buffers.py": """\
            class ResultBufferSet:
                _result_region_writers = ("write_outcome",)

                def __init__(self, shm):
                    self._result_ints = shm.buf.cast("q")
                    self._result_floats = shm.buf.cast("d")

                def write_outcome(self, index, value):
                    ints = self._result_ints
                    ints[index] = value
                    self._result_floats[index] = float(value)
            """})
        assert report.findings == []

    def test_sanctioned_writer_still_flagged_on_non_result_buffers(
        self, tmp_path: Path
    ) -> None:
        # The sanction covers only result regions: the same method writing
        # a structure buffer is still a publish-after-pack violation.
        report = analyze(tmp_path, {"parallel/buffers.py": """\
            class ResultBufferSet:
                _result_region_writers = ("write_outcome",)

                def __init__(self, shm):
                    self._ints = shm.buf.cast("q")
                    self._result_ints = shm.buf.cast("q")

                def write_outcome(self, index, value):
                    self._result_ints[index] = value
                    self._ints[index] = value
            """})
        found = messages(report, "fork-shm-publish")
        assert len(found) == 1
        assert "'_ints'" in found[0]

    def test_unsanctioned_method_writing_result_region_fires(
        self, tmp_path: Path
    ) -> None:
        report = analyze(tmp_path, {"parallel/buffers.py": """\
            class ResultBufferSet:
                _result_region_writers = ("write_outcome",)

                def __init__(self, shm):
                    self._result_ints = shm.buf.cast("q")

                def clobber(self, index, value):
                    self._result_ints[index] = value
            """})
        found = messages(report, "fork-shm-publish")
        assert len(found) == 1
        assert "'clobber'" in found[0]


class TestPoolTaskClosure:
    def test_lambda_and_nested_function_fire(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"mod.py": """\
            def dispatch(pool, tasks):
                def handler(task):
                    return task.run()

                helper = lambda task: task.run()
                pool.submit(lambda: 1)
                pool.apply_async(handler, tasks)
                pool.submit(helper, tasks)
            """})
        assert len(messages(report, "fork-task-closure")) == 3

    def test_process_target_lambda_fires(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"mod.py": """\
            from multiprocessing import Process

            def spawn():
                return Process(target=lambda: None)
            """})
        assert rules_fired(report) == ["fork-task-closure"]

    def test_module_level_function_is_clean(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"mod.py": """\
            def run_task(task):
                return task.run()

            def dispatch(pool, tasks):
                pool.apply_async(run_task, tasks)
            """})
        assert report.findings == []


class TestPoolLifecycle:
    #: The shape of the real pool: one packed buffer set (results only),
    #: annotated bindings, and the component list handed to the workers
    #: as a ``Process`` argument.
    POOL_INIT = """\
            class WorkerPool:
                def __init__(self, context, components, workers):
                    self._components: List[MRF] = list(components)
                    self.result_buffers = ResultBufferSet.pack(components)
                    self._processes: List[object] = []
                    for worker_id in range(workers):
                        self._processes.append(
                            context.Process(
                                target=_worker_main,
                                args=(self._components, self.result_buffers, worker_id),
                            )
                        )
"""

    def test_repacking_live_pool_fires(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"parallel/pool.py": self.POOL_INIT + """\

                def rebind(self, components):
                    self.result_buffers = fresh_buffers(components)

                def repack(self, components):
                    ResultBufferSet.pack(components)
            """})
        found = messages(report, "fork-pool-lifecycle")
        assert len(found) == 2
        assert any("rebinds self.result_buffers" in message for message in found)
        assert any("repacks shared-memory buffers" in message for message in found)

    def test_packing_in_init_and_shutdown_are_clean(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"parallel/pool.py": self.POOL_INIT + """\

                def matches(self, components):
                    return len(components) == len(self._components)

                def shutdown(self):
                    for process in self._processes:
                        process.join()
                    self.result_buffers.destroy()
            """})
        assert report.findings == []

    def test_rebinding_fork_inherited_components_fires(self, tmp_path: Path) -> None:
        # The workers index their fork-time snapshot of the list while the
        # parent reads ``atom_ids`` off its own: a rebind (plain or
        # annotated) desynchronises them exactly like a repack would.
        report = analyze(tmp_path, {"parallel/pool.py": self.POOL_INIT + """\

                def adopt(self, components):
                    self._components = list(components)

                def adopt_annotated(self, components):
                    self._components: List[MRF] = list(components)
            """})
        found = messages(report, "fork-pool-lifecycle")
        assert len(found) == 2
        assert all("rebinds self._components" in message for message in found)

    def test_any_buffers_attribute_marks_a_pool(self, tmp_path: Path) -> None:
        # No attribute is literally called ``buffers``: the rule must not
        # depend on that name to recognise a pool.
        report = analyze(tmp_path, {"parallel/pool.py": """\
            class Pool:
                def __init__(self, components, workers):
                    self.outcome_buffers_v2 = ResultBufferSet.pack(components)
                    self._processes = [spawn() for _ in range(workers)]

                def rebind(self, components):
                    self.outcome_buffers_v2 = fresh_buffers(components)
            """})
        found = messages(report, "fork-pool-lifecycle")
        assert len(found) == 1
        assert "rebinds self.outcome_buffers_v2" in found[0]

    def test_live_worker_pool_is_recognised(self) -> None:
        # The rule is only as good as its pool detector: the real
        # WorkerPool must be seen, with its fork-time state protected.
        import ast

        from repro.analysis.rules.fork import PoolLifecycleRule
        from repro.parallel import pool as pool_module

        tree = ast.parse(Path(pool_module.__file__).read_text())
        rule = PoolLifecycleRule()
        (worker_pool,) = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name == "WorkerPool"
        ]
        assert rule._is_pool_class(worker_pool)
        inherited = rule._fork_inherited_attributes(rule._find_init(worker_pool))
        assert {"_components", "result_buffers"} <= inherited

    def test_non_pool_class_and_other_dirs_are_clean(self, tmp_path: Path) -> None:
        repacker = """\
            class BufferCache:
                def __init__(self, components):
                    self.result_buffers = ResultBufferSet.pack(components)

                def refresh(self, components):
                    self.result_buffers = ResultBufferSet.pack(components)
            """
        report = analyze(
            tmp_path,
            {"parallel/buffers.py": repacker, "inference/pool.py": repacker},
        )
        assert messages(report, "fork-pool-lifecycle") == []


class TestSuppressionHygiene:
    def test_missing_justification_is_reported(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"mod.py": """\
            def f(xs):
                return list(set(xs))  # repro: allow(det-set-iter)
            """})
        assert rules_fired(report) == [BAD_SUPPRESSION]
        assert "missing its justification" in messages(report, BAD_SUPPRESSION)[0]
        # The finding itself is still silenced (rule name matched the line).
        assert len(report.suppressed) == 1

    def test_unknown_rule_is_reported(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"mod.py": """\
            def f():
                return 1  # repro: allow(no-such-rule): because
            """})
        assert rules_fired(report) == [BAD_SUPPRESSION]
        assert "unknown rule" in messages(report, BAD_SUPPRESSION)[0]

    def test_unused_suppression_is_reported(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"mod.py": """\
            def f(xs):
                return sorted(xs)  # repro: allow(det-set-iter): stale comment
            """})
        assert rules_fired(report) == [BAD_SUPPRESSION]
        assert "unused suppression" in messages(report, BAD_SUPPRESSION)[0]

    def test_unused_check_skipped_under_select(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"mod.py": """\
            def f(xs):
                return sorted(xs)  # repro: allow(det-set-iter): stale comment
            """}, select=["det-raw-random"])
        assert report.findings == []

    def test_docstring_example_is_not_a_suppression(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"mod.py": '''\
            """Docs showing the syntax:

                x = list(s)  # repro: allow(det-set-iter): example only
            """

            def f(xs):
                return sorted(xs)
            '''})
        assert report.findings == []
        assert report.suppressed == []


class TestParseError:
    def test_unparseable_file_is_reported(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"mod.py": "def broken(:\n"})
        assert rules_fired(report) == [PARSE_ERROR]


class TestSelect:
    def test_unknown_rule_id_raises(self, tmp_path: Path) -> None:
        with pytest.raises(ValueError, match="unknown rule id"):
            analyze(tmp_path, {"mod.py": "x = 1\n"}, select=["nope"])

    def test_select_restricts_rules(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"mod.py": """\
            import random

            def f(xs):
                random.shuffle(xs)
                return list(set(xs))
            """}, select=["det-set-iter"])
        assert rules_fired(report) == ["det-set-iter"]


class TestObsPurity:
    def test_random_import_in_obs_fires(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"repro/obs/tracer.py": """\
            import random

            def jitter():
                return random.random()
            """}, select=["obs-purity"])
        assert rules_fired(report) == ["obs-purity"]
        assert "randomness" in messages(report, "obs-purity")[0]

    def test_rng_and_engine_imports_fire(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"repro/obs/export.py": """\
            from repro.utils.rng import RandomSource
            from repro.core.engine import TuffyEngine
            """}, select=["obs-purity"])
        fired = messages(report, "obs-purity")
        assert len(fired) >= 2
        assert any("RandomSource" in message for message in fired)
        assert any("repro.core.engine" in message for message in fired)

    def test_clock_mutation_fires(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"repro/obs/tracer.py": """\
            def finish(span, clock):
                clock.advance(1.0)
                clock.charge("scan", 4)
            """}, select=["obs-purity"])
        assert len(messages(report, "obs-purity")) == 2

    def test_clean_obs_module_passes(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"repro/obs/tracer.py": """\
            import threading

            from repro.utils.clock import wall_now

            class Tracer:
                def __init__(self, simulated_now=None):
                    self._lock = threading.Lock()
                    self._simulated_now = simulated_now

                def now(self):
                    return wall_now()

                def read_simulated(self):
                    if self._simulated_now is None:
                        return 0.0
                    return self._simulated_now()
            """}, select=["obs-purity"])
        assert report.findings == []

    def test_rule_is_scoped_to_obs_directory(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"repro/inference/walksat.py": """\
            import random

            def f():
                return random.random()
            """}, select=["obs-purity"])
        assert report.findings == []

    def test_suppression_comment_silences(self, tmp_path: Path) -> None:
        report = analyze(tmp_path, {"repro/obs/debug.py": """\
            import random  # repro: allow(obs-purity): debug-only sampler

            def sample():
                return random.random()
            """}, select=["obs-purity"])
        assert report.findings == []
        assert report.suppressed
