"""How fast is the host right now?  A fixed reference kernel, timed.

The benchmark runs on a two-core slice of a shared host whose speed drifts
by 1.3–1.6× for minutes at a time (other tenants on the sibling threads):
the same ``rc_cold_map`` request reads 1.9 s in one run and 2.7 s in the
next.  No run length the driver's time limit allows averages that out, so
the timed end-to-end metrics are reported at the speed of a quiet host:
around every operation (and every set-up) the client times this kernel —
12 ms of pure Python that never changes and touches nothing of
the program — and divides the operation's time by ``host_factor()``, the
kernel's time as a multiple of its time on the quiet box.  README.md,
"Host-speed correction", has what that buys (medians of 25 operations
of ``lp_dense_map`` through a slow spell: quartile spread 25 % raw, 6 %
corrected).

The raw times are kept beside the corrected ones (``info.raw``); ratios of
two workloads and every per-layer metric use raw times, and a run with
concurrent clients is not corrected (the kernel would compete with the
other client's request).
"""

from __future__ import annotations

import statistics
import time

#: The kernel's time on this box in its quiet spells (of 400 readings the
#: fastest twentieth took 12.0 ms, the fastest quarter 12.5 ms).  A
#: constant, so that corrected times of different runs, days and commits
#: share one scale.
QUIET_SECONDS = 0.0122


def reference_seconds() -> float:
    """Time the fixed kernel once: 100,000 turns of an interpreter loop.

    Interpreter-bound like the program itself; of the kernels tried
    (this loop, numpy arithmetic and sorting, a 64 MB gather, a 32 MB
    stream, and their mixes) it followed the program's slow spells best.
    """
    started = time.perf_counter()
    total = 0
    table = {}
    for i in range(100_000):
        total += i * i % 7
        table[i & 1023] = total
    return time.perf_counter() - started


def host_factor() -> float:
    """The host's slowness now: 1.0 when quiet, 1.5 in a slow spell.

    The median of three timings (40 ms in all).
    """
    return statistics.median(reference_seconds() for _ in range(3)) / QUIET_SECONDS
