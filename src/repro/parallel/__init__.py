"""Multiprocess partition-inference subsystem.

The repo's one backend seam:

``parallel_backend = auto | serial | processes``

selects the vehicle that runs per-component inference tasks.  ``serial``
runs them in the calling thread (the executable specification), and
``processes`` forks a worker pool whose workers search
the component MRFs they inherited from the parent at fork time — nothing
is shipped down, each worker builds a component's kernel state the first
time it runs it — with the existing WalkSAT / MC-SAT drivers unchanged
(:mod:`repro.parallel.pool`), shipping results back through a
per-component shared-memory result region
(:mod:`repro.parallel.buffers`).  Dispatch (largest-first
work-stealing) lives in :mod:`repro.parallel.scheduler`;
deterministic result merging in :mod:`repro.parallel.merge`.  Tasks
cross the process boundary in **chunks**: the stealing loop cuts the
largest-first order into consecutive batches by estimated work (fat
first, single tasks at the tail), the pool moves one queue message per
chunk each way, and workers steal whole chunks — so a request of
thousands of tiny components pays for a few dozen round-trips, not
thousands, while every result, span and steal is still accounted per
task.

**Determinism contract**: each component's task runs on an RNG stream
derived only from the run seed and the component index, and every merge
is performed in component order — so MAP assignments and marginals are
bit-for-bit identical across backends and worker counts
(``tests/test_parallel_parity.py`` proves it on example1, RC and IE).
The backend choice is purely a wall-clock decision.  This holds for
``deadline_seconds`` too: the components that count are decided by
post-hoc bookkeeping over the per-component simulated costs (dispatch
position ``p`` counts iff the summed costs of the positions before it
stay under the deadline — the spend of a single sequential worker), not
by completion order, so the deadline outcome is the same on every
backend and worker count.

This module keeps only the seam itself (constants + resolution) so that
importing it from the config layer costs nothing; the heavy pieces import
lazily.
"""

from __future__ import annotations

import multiprocessing

#: Valid values for the ``parallel_backend`` option of the component
#: search drivers, the engine config and the CLI.
PARALLEL_BACKENDS = ("auto", "serial", "processes")


def processes_available() -> bool:
    """Whether the forked worker-pool backend can run on this platform.

    The pool hands workers its shared-memory buffer set by fork
    inheritance (no attach-by-name, no resource-tracker races), so the
    ``fork`` start method is required — available on Linux/BSD, not on
    Windows (and not under some restricted environments).
    """
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - platform probing
        return False


def available_parallel_backends() -> tuple:
    """The parallel backends usable in this environment, in preference order."""
    if processes_available():
        return ("serial", "processes")
    return ("serial",)


def resolve_parallel_backend(
    backend: str = "auto", workers: int = 1, task_count: int = 2
) -> str:
    """Resolve a requested backend name to a concrete one for this run.

    ``auto`` picks ``processes`` when there is parallelism to exploit —
    more than one worker *and* more than one component — and the platform
    supports the forked pool; otherwise (a single component, a single
    worker, or no ``fork``) it falls back to ``serial``, where there is
    no pool spin-up cost to repay.  All
    backends are bit-identical in results, so the choice is purely a
    performance decision.
    """
    if backend not in PARALLEL_BACKENDS:
        raise ValueError(
            f"unknown parallel backend {backend!r}; expected one of {PARALLEL_BACKENDS}"
        )
    if backend == "processes":
        if not processes_available():
            raise RuntimeError(
                "processes parallel backend requested but the fork start "
                "method is not available on this platform"
            )
        return backend
    if backend != "auto":
        return backend
    if workers > 1 and task_count > 1 and processes_available():
        return "processes"
    return "serial"
