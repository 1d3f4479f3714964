"""Shared helpers for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper.  The
helpers here keep them uniform: dataset construction at a fixed benchmark
scale, simple aligned-text rendering of tables and time-cost series, and a
tiny cache so that several benchmarks can reuse the same generated dataset
within one pytest session.

Conventions
-----------
* Scales are chosen so the whole ``pytest benchmarks/ --benchmark-only`` run
  finishes in a few minutes on a laptop.
* "Time" columns report the deterministic simulated clock where the paper's
  claim is about architecture (I/O vs memory), and wall-clock seconds where
  the claim is about actual computation on the same machine (grounding).
* Absolute values are not expected to match the paper (different hardware,
  different data scale); the *shape* — who wins and by roughly what factor —
  is what each benchmark asserts and prints.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Sequence, Tuple

from repro.core import InferenceConfig
from repro.datasets import Dataset, DatasetScale, load_dataset
from repro.obs.events import Series

BENCHMARK_SEED = 0
DATASETS = ("LP", "IE", "RC", "ER")

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

_dataset_cache: Dict[Tuple[str, float], Dataset] = {}


def emit(name: str, text: str) -> None:
    """Print a benchmark artifact and persist it under ``benchmarks/results``.

    pytest captures stdout by default, so each benchmark also writes its
    rendered table/series to a text file; EXPERIMENTS.md points at these.
    """
    print()
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


def benchmark_dataset(name: str, factor: float = 1.0) -> Dataset:
    """Return (and cache) a dataset at the benchmark scale."""
    key = (name.upper(), factor)
    if key not in _dataset_cache:
        _dataset_cache[key] = load_dataset(name, DatasetScale(factor=factor, seed=BENCHMARK_SEED))
    return _dataset_cache[key]


def fresh_dataset(name: str, factor: float = 1.0) -> Dataset:
    """A non-cached dataset (for benchmarks that mutate engine state)."""
    return load_dataset(name, DatasetScale(factor=factor, seed=BENCHMARK_SEED))


def default_config(**overrides) -> InferenceConfig:
    """The configuration shared by the search benchmarks."""
    parameters = dict(seed=BENCHMARK_SEED, max_flips=20_000)
    parameters.update(overrides)
    return InferenceConfig(**parameters)


def render_table(title: str, headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned text table (the printed reproduction of a paper table)."""
    materialized = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [title]
    lines.append("  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)))
    lines.append("  ".join("-" * width for width in widths))
    for row in materialized:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_series(title: str, traces: Dict[str, Series], points: int = 8) -> str:
    """Render time-cost traces as a compact table of sampled points."""
    lines = [title]
    for label, trace in traces.items():
        sampled = trace.points
        if len(sampled) > points:
            step = max(len(sampled) // points, 1)
            sampled = sampled[::step] + [trace.points[-1]]
        series = ", ".join(
            f"({point.time + trace.grounding_seconds:.3g}s, {point.cost:.4g})" for point in sampled
        )
        lines.append(f"  {label:12s} {series}")
    return "\n".join(lines)


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.01:
            return f"{cell:.3g}"
        return f"{cell:.3f}".rstrip("0").rstrip(".")
    return str(cell)
