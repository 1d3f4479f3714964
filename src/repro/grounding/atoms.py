"""The atom registry: ground atoms, their ids and their evidence truth values.

Every ground atom (a possible instantiation of a predicate) receives a
globally unique positive integer id.  Ids are positive so that a *signed*
atom id can encode a ground literal: ``+aid`` for a positive literal,
``-aid`` for a negated one — the same convention the paper's clause table
uses for its ``lits`` array.

An atom carries a three-valued truth attribute:

* ``True`` / ``False`` — fixed by the evidence;
* ``None`` — unknown; these are the random variables the search flips.

The registry is held as columns, one set per predicate — the atom
relation of the paper's §3.1, not one object per atom: atom ids, the
argument constants as ids in the registry's dictionary
(:attr:`AtomRegistry.encoder`, a
:class:`~repro.rdbms.column_batch.ValueEncoder` the bottom-up grounder
shares with the columnar executor, so its atom tables need no encoding)
and an int8 truth column (``1`` true, ``0`` false, ``-1`` unknown).  The
``(predicate, arguments) → id`` index is keyed on the packed argument
ids and built only when a scalar lookup needs it.  :class:`AtomRecord`
and :class:`~repro.logic.predicates.GroundAtom` are *row views*, built on
demand by :meth:`AtomRegistry.record`, iteration and
:meth:`AtomRegistry.records_for_predicate`.

Two ways in, held to the same result: the scalar :meth:`AtomRegistry.register`
(one atom — the specification) and :meth:`AtomRegistry.register_columns`
(a batch of rows over several predicates, in order), which assigns the
ids, truth values and version counts repeated ``register`` calls would.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.logic.predicates import GroundAtom, Predicate, make_atom
from repro.rdbms.column_batch import ValueEncoder

#: The truth column's codes.
UNKNOWN, FALSE, TRUE = -1, 0, 1


def truth_code(truth: Optional[bool]) -> int:
    """A truth value as the truth column stores it."""
    return UNKNOWN if truth is None else int(truth)


def truth_value(code: int) -> Optional[bool]:
    """The inverse of :func:`truth_code`."""
    return None if code == UNKNOWN else bool(code)


def pack_keys(codes: "np.ndarray") -> "np.ndarray":
    """One index key per row of an ``(n, arity)`` argument-id matrix.

    Up to two arguments the ids pack into one int64 (ids stay below
    ``2**32``: they number the distinct values of one dictionary); wider
    rows use their int64 bytes.  ``.tolist()`` gives the index's keys.
    """
    rows, arity = codes.shape
    if arity == 0:
        return np.zeros(rows, dtype=np.int64)
    if arity == 1:
        return codes[:, 0].copy()
    if arity == 2:
        return (codes[:, 0] << 32) | codes[:, 1]
    return np.ascontiguousarray(codes).view(f"V{8 * arity}").ravel()


def pack_key(codes: Sequence[int]) -> object:
    """The index key of one row of argument ids."""
    return pack_keys(np.array(codes, dtype=np.int64).reshape(1, len(codes))).tolist()[0]


@dataclass
class AtomRecord:
    """One registered atom (a row view): its id, identity and evidence truth value."""

    atom_id: int
    atom: GroundAtom
    truth: Optional[bool]


class _PredicateAtoms:
    """One predicate's atoms as columns, in id order."""

    __slots__ = ("predicate", "arity", "atom_ids", "codes", "truth", "index")

    def __init__(self, predicate: Predicate) -> None:
        self.predicate = predicate
        self.arity = predicate.arity
        self.atom_ids = array("q")
        #: Argument ids, row-major (``arity`` per atom).
        self.codes = array("q")
        self.truth = array("b")
        #: ``pack_key(argument ids) -> row``; built on first scalar use.
        self.index: Optional[Dict[object, int]] = None

    def __len__(self) -> int:
        return len(self.atom_ids)

    def code_matrix(self) -> "np.ndarray":
        """A copy of the argument ids as an ``(atoms, arity)`` matrix."""
        return np.array(self.codes, dtype=np.int64).reshape(len(self), self.arity)

    def key_index(self) -> Dict[object, int]:
        if self.index is None:
            self.index = dict(zip(pack_keys(self.code_matrix()).tolist(), range(len(self))))
        return self.index


class AtomRegistry:
    """Assigns dense ids to ground atoms and records evidence truth values.

    The registry carries a **version counter**, bumped whenever its
    logical contents change (a new atom, or a truth value moving from
    unknown to fixed).  Consumers that materialise derived state from the
    registry — the bottom-up grounder's atom tables and, through them, the
    columnar engine's encoded-column cache — key their caches on
    ``(identity_token, version)`` so repeated ``ground()`` calls over an
    unchanged registry skip the rebuild entirely.

    Alongside the global counter the registry keeps one version counter
    **per predicate**, bumped only when that predicate's atoms or truth
    values change.  This is the delta-grounding seam: an evidence delta on
    one predicate invalidates only the atom tables and clause groundings
    that touch it (see :class:`~repro.grounding.bottom_up.BottomUpGrounder`),
    everything else replays from cache.
    """

    _next_token = 0

    def __init__(self) -> None:
        #: The dictionary the argument ids index into.
        self.encoder = ValueEncoder()
        self._predicates: List[_PredicateAtoms] = []
        self._slots: Dict[str, int] = {}
        #: Per atom id - 1: its predicate's slot and its row there.
        self._slot_of = array("i")
        self._row_of = array("q")
        self._version = 0
        self._predicate_versions: Dict[str, int] = {}
        #: Closed-world atoms whose ``False`` is the retraction default,
        #: not asserted evidence — re-registering them with a truth value
        #: is a re-assertion, never a conflict.
        self._defaulted: set = set()
        AtomRegistry._next_token += 1
        self._identity_token = AtomRegistry._next_token

    @property
    def version(self) -> int:
        """Monotone counter of logical mutations (new atoms, truth changes)."""
        return self._version

    def predicate_version(self, predicate_name: str) -> int:
        """Monotone counter of mutations touching one predicate's atoms."""
        return self._predicate_versions.get(predicate_name, 0)

    def predicate_versions(
        self, predicate_names: Iterable[str]
    ) -> Dict[str, int]:
        """Snapshot of the per-predicate counters for the named predicates."""
        return {name: self.predicate_version(name) for name in predicate_names}

    def _bump(self, predicate_name: str, count: int = 1) -> None:
        self._version += count
        self._predicate_versions[predicate_name] = (
            self._predicate_versions.get(predicate_name, 0) + count
        )

    @property
    def identity_token(self) -> int:
        """A process-unique id for this registry (never reused, unlike ``id()``)."""
        return self._identity_token

    def _slot(self, predicate: Predicate) -> int:
        slot = self._slots.get(predicate.name)
        if slot is None:
            slot = self._slots[predicate.name] = len(self._predicates)
            self._predicates.append(_PredicateAtoms(predicate))
        return slot

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(self, atom: GroundAtom, truth: Optional[bool] = None) -> int:
        """Register an atom (idempotently) and return its id.

        Registering an already-known atom with a non-``None`` truth value
        updates the stored truth value; conflicting evidence (True vs False
        for the same atom) raises ``ValueError``.
        """
        encode = self.encoder.encode_scalar
        codes = tuple(encode(value) for value in atom.argument_values())
        return self._register_codes(self._slot(atom.predicate), codes, truth)

    def _register_codes(
        self, slot: int, codes: Tuple[int, ...], truth: Optional[bool]
    ) -> int:
        atoms = self._predicates[slot]
        name = atoms.predicate.name
        key = pack_key(codes)
        index = atoms.key_index()
        row = index.get(key)
        if row is None:
            row = len(atoms)
            atom_id = len(self._slot_of) + 1
            atoms.atom_ids.append(atom_id)
            atoms.codes.extend(codes)
            atoms.truth.append(truth_code(truth))
            index[key] = row
            self._slot_of.append(slot)
            self._row_of.append(row)
            self._bump(name)
            return atom_id
        atom_id = atoms.atom_ids[row]
        if truth is not None:
            current = truth_value(atoms.truth[row])
            retracted = atom_id in self._defaulted
            if current is not None and current != truth and not retracted:
                raise ValueError(f"conflicting evidence for atom {self.atom(atom_id)}")
            if current != truth or retracted:
                atoms.truth[row] = truth_code(truth)
                self._defaulted.discard(atom_id)
                self._bump(name)
        return atom_id

    def register_columns(
        self,
        predicates: Sequence[Predicate],
        which: Sequence[int],
        codes: Sequence["np.ndarray"],
        truths: Sequence[int],
    ) -> None:
        """Register a batch of rows over several predicates, in order.

        Row ``i`` is an atom of ``predicates[which[i]]`` with truth code
        ``truths[i]`` (see :func:`truth_code`); ``codes[k]`` holds the
        argument ids (in :attr:`encoder`) of predicate ``k``'s rows, one
        row each, in batch order.  The registry ends exactly as calling
        :meth:`register` once per row in order leaves it — ids by first
        occurrence across predicates, truth values, version counts.  Rows
        that conflict, or that set the truth of an atom registered before
        the batch, are rare: a batch holding one is registered row by row.
        ``predicates`` must name distinct predicates.
        """
        which = np.asarray(which, dtype=np.intp)
        truths = np.asarray(truths, dtype=np.int8)
        if len({predicate.name for predicate in predicates}) != len(predicates):
            raise ValueError("a batch names each predicate once")
        plans = []
        for k, predicate in enumerate(predicates):
            positions = np.nonzero(which == k)[0]
            if not len(positions):
                continue
            slot = self._slot(predicate)
            atoms = self._predicates[slot]
            matrix = np.asarray(codes[k], dtype=np.int64).reshape(len(positions), atoms.arity)
            keys, first, inverse = np.unique(
                pack_keys(matrix), return_index=True, return_inverse=True
            )
            row_truths = truths[positions]
            has_true = np.zeros(len(keys), dtype=bool)
            has_true[inverse[row_truths == TRUE]] = True
            has_false = np.zeros(len(keys), dtype=bool)
            has_false[inverse[row_truths == FALSE]] = True
            fixed = has_true | has_false
            if (has_true & has_false).any():
                return self._register_rows(predicates, which, codes, truths)
            new = np.ones(len(keys), dtype=bool)
            if len(atoms):
                index = atoms.key_index()
                found = np.fromiter(
                    map(index.get, keys.tolist(), repeat(-1)), dtype=np.int64, count=len(keys)
                )
                if (fixed & (found >= 0)).any():
                    return self._register_rows(predicates, which, codes, truths)
                new = found < 0
            # A new atom's truth is its group's fixed value, if any; it was
            # set at the first row (one bump) or later (a second one).
            final = np.where(has_true, TRUE, np.where(has_false, FALSE, UNKNOWN))
            bumps = int(new.sum()) + int((new & fixed & (row_truths[first] == UNKNOWN)).sum())
            plans.append(
                (slot, bumps, positions[first[new]], keys[new], matrix[first[new]], final[new])
            )
        for slot, bumps, *_ in plans:
            if bumps:
                self._bump(self._predicates[slot].predicate.name, bumps)
        if not plans:
            return
        # Ids by first occurrence across the whole batch.
        heads = np.concatenate([plan[2] for plan in plans])
        base = len(self._slot_of)
        ids = np.empty(len(heads), dtype=np.int64)
        ids[np.argsort(heads)] = np.arange(base + 1, base + 1 + len(heads))
        slot_of = np.empty(len(heads), dtype=np.intc)
        row_of = np.empty(len(heads), dtype=np.int64)
        start = 0
        for slot, _, group_heads, keys, matrix, final in plans:
            atoms = self._predicates[slot]
            group_ids = ids[start : start + len(group_heads)]
            start += len(group_heads)
            order = np.argsort(group_ids)
            rows = np.arange(len(atoms), len(atoms) + len(order))
            slot_of[group_ids[order] - base - 1] = slot
            row_of[group_ids[order] - base - 1] = rows
            atoms.atom_ids.frombytes(group_ids[order].tobytes())
            atoms.codes.frombytes(np.ascontiguousarray(matrix[order]).tobytes())
            atoms.truth.frombytes(final[order].astype(np.int8).tobytes())
            if atoms.index is not None:
                atoms.index.update(zip(keys[order].tolist(), rows.tolist()))
        self._slot_of.frombytes(slot_of.tobytes())
        self._row_of.frombytes(row_of.tobytes())

    def _register_rows(self, predicates, which, codes, truths) -> None:
        """:meth:`register_columns` one row at a time (the spec's order)."""
        slots = [self._slot(predicate) for predicate in predicates]
        rows = [
            np.asarray(matrix, dtype=np.int64).reshape(-1, predicate.arity).tolist()
            if predicate.arity
            else [[]] * int((which == k).sum())
            for k, (predicate, matrix) in enumerate(zip(predicates, codes))
        ]
        taken = [0] * len(predicates)
        for k, code in zip(which.tolist(), truths.tolist()):
            row = rows[k][taken[k]]
            taken[k] += 1
            self._register_codes(slots[k], tuple(row), truth_value(code))

    def remove_evidence(self, atom: GroundAtom) -> int:
        """Retract an evidence atom's truth value, keeping its id stable.

        An open-world predicate's atom reverts to ``truth = None`` — it
        becomes a search variable again.  A closed-world predicate's atom
        reverts to ``truth = False``: unlisted atoms of a closed-world
        predicate are implicitly false (that is how the grounders treat
        them — they only ever see the registered rows), so retraction
        means falling back to the closed-world default, never to unknown
        (``None`` would illegally create a query variable for a predicate
        that cannot have one).  The predicate's version counter is bumped
        either way, so the next grounding reloads its atom table and
        re-runs exactly the clauses reading it.
        """
        atom_id = self.lookup(atom.predicate.name, atom.argument_values())
        if atom_id is None:
            raise KeyError(f"cannot retract unregistered atom {atom}")
        atoms = self._predicates[self._slot_of[atom_id - 1]]
        row = self._row_of[atom_id - 1]
        if atoms.truth[row] == UNKNOWN:
            raise ValueError(f"atom {atom} carries no evidence to retract")
        atoms.truth[row] = FALSE if atom.predicate.closed_world else UNKNOWN
        if atom.predicate.closed_world:
            self._defaulted.add(atom_id)
        self._bump(atom.predicate.name)
        return atom_id

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def lookup(self, predicate_name: str, arguments: Sequence[str]) -> Optional[int]:
        """Return the id of an atom, or ``None`` if it was never registered."""
        slot = self._slots.get(predicate_name)
        if slot is None:
            return None
        atoms = self._predicates[slot]
        codes = tuple(map(self.encoder.lookup, arguments))
        if len(codes) != atoms.arity or any(code < 0 for code in codes):
            return None
        row = atoms.key_index().get(pack_key(codes))
        return None if row is None else atoms.atom_ids[row]

    def record(self, atom_id: int) -> AtomRecord:
        """Atom ``atom_id`` as an :class:`AtomRecord` (a fresh row view)."""
        if not 1 <= atom_id <= len(self._slot_of):
            raise KeyError(f"unknown atom id {atom_id}")
        atoms = self._predicates[self._slot_of[atom_id - 1]]
        row = self._row_of[atom_id - 1]
        arity = atoms.arity
        decode = self.encoder.decode_scalar
        values = [decode(code) for code in atoms.codes[row * arity : (row + 1) * arity]]
        return AtomRecord(
            atom_id, make_atom(atoms.predicate, values), truth_value(atoms.truth[row])
        )

    def truth(self, atom_id: int) -> Optional[bool]:
        if not 1 <= atom_id <= len(self._slot_of):
            raise KeyError(f"unknown atom id {atom_id}")
        atoms = self._predicates[self._slot_of[atom_id - 1]]
        return truth_value(atoms.truth[self._row_of[atom_id - 1]])

    def atom(self, atom_id: int) -> GroundAtom:
        return self.record(atom_id).atom

    def __len__(self) -> int:
        return len(self._slot_of)

    def __iter__(self) -> Iterator[AtomRecord]:
        return map(self.record, range(1, len(self) + 1))

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def predicate_columns(
        self, predicate: Predicate
    ) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
        """Copies of one predicate's columns, in id order.

        ``(atom ids, argument ids as an (atoms, arity) matrix in`` :attr:`encoder`
        ``, truth codes)``.
        """
        slot = self._slots.get(predicate.name)
        if slot is None:
            return (
                np.empty(0, dtype=np.int64),
                np.empty((0, predicate.arity), dtype=np.int64),
                np.empty(0, dtype=np.int8),
            )
        atoms = self._predicates[slot]
        return (
            np.array(atoms.atom_ids, dtype=np.int64),
            atoms.code_matrix(),
            np.array(atoms.truth, dtype=np.int8),
        )

    def _ids_where(self, query: bool) -> List[int]:
        parts = [
            np.frombuffer(atoms.atom_ids, dtype=np.int64)[
                (np.frombuffer(atoms.truth, dtype=np.int8) == UNKNOWN) == query
            ]
            for atoms in self._predicates
            if len(atoms)
        ]
        if not parts:
            return []
        return np.sort(np.concatenate(parts)).tolist()

    def query_atom_ids(self) -> List[int]:
        """Ids of unknown (non-evidence) atoms — the search variables."""
        return self._ids_where(True)

    def evidence_atom_ids(self) -> List[int]:
        return self._ids_where(False)

    def count_by_predicate(self) -> Dict[str, int]:
        """Atoms per predicate, predicates in the order of their first atom."""
        present = [atoms for atoms in self._predicates if len(atoms)]
        present.sort(key=lambda atoms: atoms.atom_ids[0])
        return {atoms.predicate.name: len(atoms) for atoms in present}

    def records_for_predicate(self, predicate: Predicate) -> List[AtomRecord]:
        slot = self._slots.get(predicate.name)
        if slot is None:
            return []
        return [self.record(atom_id) for atom_id in self._predicates[slot].atom_ids]
