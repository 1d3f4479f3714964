"""The public API of the library.

A typical MAP-inference session looks like::

    from repro.core import MLNProgram, TuffyEngine, InferenceConfig

    program = MLNProgram.from_text(PROGRAM_TEXT, EVIDENCE_TEXT)
    engine = TuffyEngine(program, InferenceConfig(seed=0, max_flips=100_000))
    result = engine.run_map()
    for atom in result.true_atoms("cat"):
        print(atom)

:class:`MLNProgram` holds the first-order program (predicates, rules,
evidence, domains); :class:`TuffyEngine` runs the Tuffy pipeline — bottom-up
grounding in the relational engine, component detection, optional
partitioning, and in-memory (component-aware) WalkSAT — and returns an
:class:`InferenceResult`.  One engine is a long-lived session: repeated
requests reuse its grounding, components and worker pool, and
``engine.stats`` (a :class:`SessionStats`) snapshots its ``session.*``
counters.
"""

from repro.core.config import InferenceConfig
from repro.core.engine import SessionStats, TuffyEngine
from repro.core.errors import ConfigurationError, ProgramError, ReproError
from repro.core.program import DatasetStatistics, MLNProgram
from repro.core.results import InferenceResult

__all__ = [
    "ConfigurationError",
    "DatasetStatistics",
    "InferenceConfig",
    "InferenceResult",
    "MLNProgram",
    "ProgramError",
    "ReproError",
    "SessionStats",
    "TuffyEngine",
]
