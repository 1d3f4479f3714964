"""Shared-memory result regions for the multiprocess inference pool.

Only one direction of the process backend's traffic needs a buffer.
*Down*, nothing is shipped at all: workers are forked from the parent
(the only start method the backend supports — see
:func:`repro.parallel.resolve_parallel_backend`) and therefore already
hold every component MRF the pool was built over; a task names its
component by index into that fork-inherited list.  *Up*,
:class:`ResultBufferSet` reserves a per-component *result region* (atom
values, trace slots, hitting/flip counters) in one
:class:`multiprocessing.shared_memory.SharedMemory` segment at pack time;
workers write finished results in place and the result queue carries only
a tiny completion token — no pickling of large assignments or marginal
vectors.

Regions are packed and read with the stdlib ``memoryview`` machinery.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import List, Optional, Sequence, Tuple

from repro.inference.mcsat import MarginalResult
from repro.inference.walksat import WalkSATResult
from repro.mrf.graph import MRF
from repro.obs.events import Series, SeriesPoint

#: Fixed per-component result header, in 8-byte elements.  Slots are read
#: through whichever cast (int/float) matches the field:
#: 0 kind (0 = empty, 1 = walksat, 2 = mcsat) · 1 best_cost (f) ·
#: 2 simulated_seconds (f) · 3 flips · 4 tries · 5 seconds (f) ·
#: 6 reached_target · 7 hitting_time (-1 = None) · 8 trace_len ·
#: 9 samples · 10 burn_in · 11 grounding_seconds (f) · 12-15 reserved.
RESULT_HEADER_SLOTS = 16

_KIND_EMPTY = 0
_KIND_WALKSAT = 1
_KIND_MCSAT = 2

#: Hard cap on the per-component trace region (slots of 3 elements each).
#: A WalkSAT trace records one point per best-cost improvement plus the
#: final observation, so the default sizing below covers real runs with
#: room to spare; anything larger falls back to the pickled queue.
RESULT_TRACE_CAP = 4096

#: Per-component result directory entry: ``(base_off, n_atoms,
#: trace_capacity)`` with ``base_off`` in 8-byte elements.  The value
#: region (``n_atoms`` elements right after the header) holds the atom
#: values — 0/1 ints for a MAP assignment, probability doubles for
#: marginals — in the component's packed ``atom_ids`` order; the trace
#: region holds ``trace_capacity`` ``(time, cost, flips)`` triples.
ResultDirectoryEntry = Tuple[int, int, int]


def _default_trace_capacity(n_atoms: int, n_clauses: int) -> int:
    return min(RESULT_TRACE_CAP, 64 + 2 * (n_atoms + n_clauses))


class ResultBufferSet:
    """Per-component result regions in one shared-memory segment.

    The parent sizes one region per component at pack time (atom values
    + trace slots + a fixed header), workers *write a finished result in
    place* and send only a tiny completion token through the result queue
    — no pickling of large assignments or marginal vectors.  A result that
    does not fit its reserved region (an oversized trace, an unexpected
    atom set) is never truncated: :meth:`write_outcome` refuses and the
    worker falls back to the pickled queue (the pool counts how often).

    Worker-side writes to a published segment are exactly what the
    ``fork-shm-publish`` rule exists to forbid — but here they are the
    design: each region is written by exactly one worker (the one that
    ran the component's task) strictly before the parent reads it (the
    completion token establishes the ordering), so there is no race and
    no nondeterminism.  The rule sanctions precisely this via the
    ``_result_region_writers`` marker below: the named methods may write
    result-region attributes (and nothing else).

    Concurrent request admission adds one more dimension: a segment
    packed with ``banks=N`` holds ``N`` independent copies of the whole
    per-component layout, so up to ``N`` in-flight requests can each
    have a live result for the *same* component index without
    clobbering each other.  Every write/read names its ``(index, bank)``
    pair; the pool assigns each admitted request a private bank for the
    duration of its run.
    """

    #: Sanctioned result-region writers (see the ``fork-shm-publish``
    #: rule): only these methods may write the ``*result*`` buffers.
    _result_region_writers = ("write_outcome",)

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        directory: List[ResultDirectoryEntry],
        owner: bool,
        banks: int = 1,
        bank_stride: int = 0,
    ) -> None:
        self._shm = shm
        self.directory = directory
        self._owner = owner
        self.banks = banks
        self._bank_stride = bank_stride
        self._result_ints = shm.buf.cast("q")
        self._result_floats = shm.buf.cast("d")

    @classmethod
    def pack(
        cls,
        components: Sequence[MRF],
        trace_capacity: Optional[int] = None,
        banks: int = 1,
    ) -> "ResultBufferSet":
        """Reserve ``banks`` result regions per component.

        ``trace_capacity`` overrides the per-component trace sizing (the
        fallback tests use a tiny capacity to force the pickled path);
        ``banks`` is the number of independent full copies of the layout
        — one per concurrently admitted request.
        """
        directory: List[ResultDirectoryEntry] = []
        total = 0
        for component in components:
            n_atoms = component.atom_count
            capacity = (
                _default_trace_capacity(n_atoms, component.clause_count)
                if trace_capacity is None
                else max(0, trace_capacity)
            )
            directory.append((total, n_atoms, capacity))
            total += RESULT_HEADER_SLOTS + n_atoms + 3 * capacity
        banks = max(1, banks)
        shm = shared_memory.SharedMemory(
            create=True, size=max(total, 1) * banks * 8
        )
        return cls(shm, directory, owner=True, banks=banks, bank_stride=total)

    def _region(self, index: int, bank: int) -> ResultDirectoryEntry:
        """The ``(base, n_atoms, capacity)`` triple for ``(index, bank)``."""
        if not 0 <= bank < self.banks:
            raise IndexError(f"result bank {bank} outside 0..{self.banks - 1}")
        base, n_atoms, capacity = self.directory[index]
        return base + bank * self._bank_stride, n_atoms, capacity

    # ------------------------------------------------------------------
    # Writing (worker side)
    # ------------------------------------------------------------------

    def write_outcome(
        self,
        index: int,
        result: object,
        simulated_seconds: float,
        atom_ids: Sequence[int],
        bank: int = 0,
    ) -> bool:
        """Ship one finished result through the component's region.

        Returns ``False`` — leaving the region untouched — whenever the
        result does not fit or does not match the packed atom set; the
        caller then falls back to the pickled queue.  Values are written
        in ``atom_ids`` (packed atom) order, which is exactly the
        insertion order of the driver-built result dictionaries, so the
        parent-side reconstruction is bit-identical, dict order included.
        ``bank`` selects the admitted request's private copy of the
        region, so interleaved requests never overwrite each other.
        """
        base, n_atoms, capacity = self._region(index, bank)
        ints = self._result_ints
        floats = self._result_floats
        value_off = base + RESULT_HEADER_SLOTS
        trace_off = value_off + n_atoms
        if isinstance(result, WalkSATResult):
            points = result.trace.points
            if len(points) > capacity:
                return False
            if len(result.best_assignment) != n_atoms or n_atoms != len(atom_ids):
                return False
            try:
                values = [result.best_assignment[atom_id] for atom_id in atom_ids]
            except KeyError:
                return False
            for position, value in enumerate(values):
                ints[value_off + position] = 1 if value else 0
            for slot, point in enumerate(points):
                floats[trace_off + 3 * slot] = point.time
                floats[trace_off + 3 * slot + 1] = point.cost
                ints[trace_off + 3 * slot + 2] = point.flips
            floats[base + 1] = result.best_cost
            floats[base + 2] = simulated_seconds
            ints[base + 3] = result.flips
            ints[base + 4] = result.tries
            floats[base + 5] = result.seconds
            ints[base + 6] = 1 if result.reached_target else 0
            ints[base + 7] = -1 if result.hitting_time is None else result.hitting_time
            ints[base + 8] = len(points)
            floats[base + 11] = result.trace.grounding_seconds
            ints[base] = _KIND_WALKSAT
            return True
        if isinstance(result, MarginalResult):
            if len(result.probabilities) != n_atoms or n_atoms != len(atom_ids):
                return False
            try:
                values = [result.probabilities[atom_id] for atom_id in atom_ids]
            except KeyError:
                return False
            for position, probability in enumerate(values):
                floats[value_off + position] = probability
            floats[base + 2] = simulated_seconds
            ints[base + 9] = result.samples
            ints[base + 10] = result.burn_in
            ints[base] = _KIND_MCSAT
            return True
        return False

    # ------------------------------------------------------------------
    # Reading (parent side)
    # ------------------------------------------------------------------

    def read_outcome(
        self,
        index: int,
        atom_ids: Sequence[int],
        trace_label: str = "",
        bank: int = 0,
    ) -> Tuple[object, float]:
        """Rebuild ``(result, simulated_seconds)`` from a written region.

        ``atom_ids`` must be the component's packed atom order (the
        parent reads it off the component MRF it packed); ``trace_label``
        restores the label the worker's driver options carried — labels
        travel with the task, not the region.  ``bank`` must match the
        bank the completion token's task was submitted with.
        """
        base, n_atoms, _capacity = self._region(index, bank)
        ints = self._result_ints
        floats = self._result_floats
        kind = ints[base]
        value_off = base + RESULT_HEADER_SLOTS
        trace_off = value_off + n_atoms
        if kind == _KIND_WALKSAT:
            assignment = {
                atom_id: bool(ints[value_off + position])
                for position, atom_id in enumerate(atom_ids)
            }
            trace = Series(
                label=trace_label, grounding_seconds=floats[base + 11]
            )
            trace.points = [
                SeriesPoint(
                    time=floats[trace_off + 3 * slot],
                    cost=floats[trace_off + 3 * slot + 1],
                    flips=ints[trace_off + 3 * slot + 2],
                )
                for slot in range(ints[base + 8])
            ]
            hitting = ints[base + 7]
            result: object = WalkSATResult(
                best_assignment=assignment,
                best_cost=floats[base + 1],
                flips=ints[base + 3],
                tries=ints[base + 4],
                seconds=floats[base + 5],
                trace=trace,
                reached_target=bool(ints[base + 6]),
                hitting_time=None if hitting < 0 else hitting,
            )
            return result, floats[base + 2]
        if kind == _KIND_MCSAT:
            probabilities = {
                atom_id: floats[value_off + position]
                for position, atom_id in enumerate(atom_ids)
            }
            result = MarginalResult(
                probabilities, samples=ints[base + 9], burn_in=ints[base + 10]
            )
            return result, floats[base + 2]
        raise RuntimeError(
            f"result region {index} read before any worker wrote it (kind {kind})"
        )

    def outcome_nbytes(self, index: int, bank: int = 0) -> int:
        """Bytes the last shipped result actually occupied (telemetry)."""
        base, n_atoms, _capacity = self._region(index, bank)
        trace_len = self._result_ints[base + 8]
        return 8 * (RESULT_HEADER_SLOTS + n_atoms + 3 * trace_len)

    def __len__(self) -> int:
        return len(self.directory)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release this process's view (workers call this on shutdown)."""
        self._result_ints.release()
        self._result_floats.release()
        self._shm.close()

    def destroy(self) -> None:
        """Release and unlink the segment (owner only, after the run)."""
        self.close()
        if self._owner:
            self._shm.unlink()
