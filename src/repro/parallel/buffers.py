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
one small reply per chunk — no pickling of large assignments or marginal
vectors.  The serial backend packs the same layout into a private buffer
(``shared=False``), so both backends write and read results one way.

Regions are written with stdlib ``memoryview`` slice copies.  The parent
reads a component-search request back in one pass
(:meth:`ResultBufferSet.read_walksat_columns`): numpy gathers over every
region at once, no object per component.
"""

from __future__ import annotations

from array import array
from multiprocessing import shared_memory
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.inference.mcsat import MarginalResult
from repro.inference.walksat import WalkSATResult
from repro.mrf.graph import MRF
from repro.obs.events import Series, SeriesPoint
from repro.parallel.merge import WalkSATColumns

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


class _LocalSegment:
    """A private in-process buffer shaped like a ``SharedMemory`` segment."""

    def __init__(self, size: int) -> None:
        self.buf = memoryview(bytearray(size))

    def close(self) -> None:
        self.buf.release()

    def unlink(self) -> None:
        pass


class ResultBufferSet:
    """Per-component result regions in one shared-memory segment.

    The parent sizes one region per component at pack time (atom values
    + trace slots + a fixed header), workers *write a finished result in
    place* and send only one small reply per chunk through the result
    queue — no pickling of large assignments or marginal vectors.  A
    result that does not fit its reserved region (an oversized trace, an
    unexpected atom set) is never truncated: :meth:`write_walksat` /
    :meth:`write_outcome` refuse and the worker falls back to the pickled
    queue (the pool counts how often).  The parent reads a search
    request's regions back in one pass (:meth:`read_walksat_columns`);
    task-path results are read one by one (:meth:`read_outcome`).

    Worker-side writes to a published segment are exactly what the
    ``fork-shm-publish`` rule exists to forbid — but here they are the
    design: each region is written by exactly one worker (the one that
    ran the component's task) strictly before the parent reads it (the
    chunk's reply establishes the ordering), so there is no race and
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
    _result_region_writers = ("write_outcome", "write_walksat")

    def __init__(
        self,
        shm,
        directory: List[ResultDirectoryEntry],
        owner: bool,
        banks: int = 1,
        bank_stride: int = 0,
        components: Sequence[MRF] = (),
    ) -> None:
        self._shm = shm
        self.directory = directory
        self._owner = owner
        self.banks = banks
        self._bank_stride = bank_stride
        self._result_ints = shm.buf.cast("q")
        self._result_floats = shm.buf.cast("d")
        #: The packed components, for the parent's bulk-read layout.
        self._components = components
        self._layout: Optional[tuple] = None

    @classmethod
    def pack(
        cls,
        components: Sequence[MRF],
        trace_capacity: Optional[int] = None,
        banks: int = 1,
        shared: bool = True,
    ) -> "ResultBufferSet":
        """Reserve ``banks`` result regions per component.

        ``trace_capacity`` overrides the per-component trace sizing (the
        fallback tests use a tiny capacity to force the pickled path);
        ``banks`` is the number of independent full copies of the layout
        — one per concurrently admitted request.  ``shared=False`` packs
        a private in-process buffer instead of a shared-memory segment
        (the serial backend's regions).
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
        size = max(total, 1) * banks * 8
        shm = (
            shared_memory.SharedMemory(create=True, size=size)
            if shared
            else _LocalSegment(size)
        )
        return cls(
            shm,
            directory,
            owner=True,
            banks=banks,
            bank_stride=total,
            components=components,
        )

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
            try:
                values = [result.best_assignment[atom_id] for atom_id in atom_ids]
            except KeyError:
                return False
            if len(result.best_assignment) != n_atoms:
                return False
            return self.write_walksat(
                index,
                values,
                [(point.time, point.cost, point.flips) for point in result.trace.points],
                result.best_cost,
                simulated_seconds,
                result.flips,
                result.tries,
                result.seconds,
                result.reached_target,
                result.hitting_time,
                bank=bank,
                grounding_seconds=result.trace.grounding_seconds,
            )
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

    def write_walksat(
        self,
        index: int,
        values: Sequence[int],
        points: Sequence[Tuple[float, float, int]],
        best_cost: float,
        simulated_seconds: float,
        flips: int,
        tries: int,
        seconds: float,
        reached_target: bool,
        hitting_time: Optional[int],
        bank: int = 0,
        grounding_seconds: float = 0.0,
    ) -> bool:
        """Write one WalkSAT result from its parts, with slice copies.

        ``values`` are the best 0/1 atom values in the component's packed
        atom order; ``points`` the trace's ``(time, cost, flips)``
        triples.  Returns ``False`` — leaving the region untouched — when
        the trace exceeds the region's capacity or the values do not
        match its atom count.
        """
        base, n_atoms, capacity = self._region(index, bank)
        count = len(points)
        if count > capacity or len(values) != n_atoms:
            return False
        ints = self._result_ints
        floats = self._result_floats
        value_off = base + RESULT_HEADER_SLOTS
        trace_off = value_off + n_atoms
        ints[value_off:trace_off] = array("q", values)
        if count:
            times, costs, point_flips = zip(*points)
            stop = trace_off + 3 * count
            floats[trace_off:stop:3] = array("d", times)
            floats[trace_off + 1 : stop : 3] = array("d", costs)
            ints[trace_off + 2 : stop : 3] = array("q", point_flips)
        floats[base + 1] = best_cost
        floats[base + 2] = simulated_seconds
        ints[base + 3] = flips
        ints[base + 4] = tries
        floats[base + 5] = seconds
        ints[base + 6] = 1 if reached_target else 0
        ints[base + 7] = -1 if hitting_time is None else hitting_time
        ints[base + 8] = count
        floats[base + 11] = grounding_seconds
        ints[base] = _KIND_WALKSAT
        return True

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

    def read_walksat_columns(self, bank: int = 0) -> WalkSATColumns:
        """Read every component's WalkSAT result of ``bank`` in one pass.

        The parent's bulk read after a component-search request: numpy
        gathers over all regions at once give the header fields, the best
        values (in component, then packed atom order) and the used trace
        slots, so no object is built per component.  Every region must
        hold a WalkSAT result.
        """
        if not 0 <= bank < self.banks:
            raise IndexError(f"result bank {bank} outside 0..{self.banks - 1}")
        bases, trace_starts, value_slots, atom_ids, value_offsets = self._bulk_layout()
        shift = bank * self._bank_stride
        bases = bases + shift
        ints = np.frombuffer(self._result_ints, dtype=np.int64)
        floats = ints.view(np.float64)
        header = bases[:, None] + np.arange(12, dtype=np.int64)
        header_ints = ints[header]
        header_floats = floats[header]
        values = ints[value_slots + shift]
        if np.any(header_ints[:, 0] != _KIND_WALKSAT):
            raise RuntimeError(f"result bank {bank} holds a region no search wrote")
        lengths = header_ints[:, 8]
        trace_offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=trace_offsets[1:])
        slots = np.repeat(
            trace_starts + shift - 3 * trace_offsets[:-1], lengths
        ) + 3 * np.arange(trace_offsets[-1], dtype=np.int64)
        trace_times = floats[slots].tolist()
        trace_costs = floats[slots + 1].tolist()
        trace_flips = ints[slots + 2].tolist()
        del ints, floats  # release the buffer export before returning
        return WalkSATColumns(
            atom_ids,
            (values != 0).tolist(),
            value_offsets,
            header_floats[:, 1].tolist(),
            header_ints[:, 3].tolist(),
            header_ints[:, 4].tolist(),
            header_floats[:, 5].tolist(),
            (header_ints[:, 6] != 0).tolist(),
            [None if hitting < 0 else hitting for hitting in header_ints[:, 7].tolist()],
            header_floats[:, 11].tolist(),
            trace_offsets.tolist(),
            trace_times,
            trace_costs,
            trace_flips,
        )

    def _bulk_layout(self) -> tuple:
        """Gather indices of the bulk read, computed once (parent side)."""
        if self._layout is None:
            directory = np.asarray(self.directory, dtype=np.int64).reshape(-1, 3)
            bases = directory[:, 0]
            n_atoms = directory[:, 1]
            value_offsets = np.zeros(len(n_atoms) + 1, dtype=np.int64)
            np.cumsum(n_atoms, out=value_offsets[1:])
            value_slots = np.repeat(
                bases + RESULT_HEADER_SLOTS - value_offsets[:-1], n_atoms
            ) + np.arange(value_offsets[-1], dtype=np.int64)
            atom_ids = [
                atom_id
                for component in self._components
                for atom_id in component.atom_ids
            ]
            if len(atom_ids) != value_offsets[-1]:
                raise RuntimeError("result regions were packed without their components")
            self._layout = (
                bases,
                bases + RESULT_HEADER_SLOTS + n_atoms,
                value_slots,
                atom_ids,
                value_offsets.tolist(),
            )
        return self._layout

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
