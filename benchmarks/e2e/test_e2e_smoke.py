"""Smoke test of the benchmark itself, at ``--smoke`` scale (IE 2, RC 1, LP 1).

Runs the real command in a subprocess, as the driver does: all six
workloads untraced and traced, two operations per client.  No timing is
asserted — only that every declared metric is emitted (and nothing else),
results are correct, a wrong expected digest is caught, and nothing is
left running or in ``/dev/shm``.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
HERE = os.path.dirname(os.path.abspath(__file__))


def run_benchmark(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", *arguments],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke_document(tmp_path_factory):
    path = tmp_path_factory.mktemp("e2e") / "smoke.json"
    shm_before = set(os.listdir("/dev/shm"))
    completed = run_benchmark("--smoke", "--seed", "0", "--out", str(path))
    assert completed.returncode == 0, completed.stderr
    assert set(os.listdir("/dev/shm")) == shm_before
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def test_every_declared_metric_is_emitted_and_finite(contract, smoke_document):
    # The driver gates three of the six workloads; the whole set runs them all.
    assert len(smoke_document["workloads"]) == 6
    assert {w["name"] for w in contract["workloads"]} <= set(smoke_document["workloads"])
    for workload in smoke_document["workloads"].values():
        for section in ("end_to_end", "per_layer"):
            declared = {metric["name"]: metric["unit"] for metric in contract[section]}
            emitted = workload[section]
            assert set(emitted) == set(declared)
            for name, metric in emitted.items():
                assert math.isfinite(metric["value"]), name
                assert metric["unit"] == declared[name]
        for metric in workload["end_to_end"].values():
            assert metric["value"] > 0


def test_results_are_correct_and_nothing_is_left_behind(smoke_document):
    assert smoke_document["leftovers"] == []
    for name, workload in smoke_document["workloads"].items():
        assert workload["failed_share"] == 0, name
        assert workload["attempted"] >= 4
    solo = smoke_document["workloads"]["ie_warm_map"]["digests"]
    concurrent = smoke_document["workloads"]["ie_concurrent_map"]["digests"]
    assert solo and all(concurrent[seed] == digest for seed, digest in solo.items())
    assert set(smoke_document["derived"]) == {
        "core.concurrent_over_serial", "core.delta_over_cold", "core.warm_over_cold",
    }


def test_layers_a_workload_bypasses_report_zero(smoke_document):
    dense = smoke_document["workloads"]["lp_dense_map"]["per_layer"]
    assert dense["mrf.components"]["value"] == 1
    assert dense["parallel.dispatch_s"]["value"] == 0
    assert dense["inference.walksat_flips_per_s"]["value"] > 0
    pooled = smoke_document["workloads"]["ie_warm_map"]["per_layer"]
    assert pooled["parallel.tasks_per_s"]["value"] > 0
    assert pooled["inference.mcsat_samples_per_s"]["value"] == 0
    delta = smoke_document["workloads"]["rc_delta_map"]["per_layer"]
    assert 0 < delta["grounding.replay_hit_ratio"]["value"] < 1
    assert delta["mrf.components_adopted_ratio"]["value"] > 0.5


def test_a_wrong_expected_digest_is_a_failed_operation(tmp_path):
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        expected = json.load(handle)
    expected["smoke"]["digests"]["lp_dense_map"][0]["flips"] += 1
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(expected), encoding="utf-8")
    completed = run_benchmark(
        "--workload", "lp_dense_map", "--seed", "0", "--smoke", "--trace", "0",
        "--expected", str(corrupted),
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
