"""The three size crossovers that steer the ``auto`` paths.

Each crossover is a plain module constant: the vectorized search kernel
(``VECTOR_AUTO_MIN_CLAUSES``), batched greedy (``GREEDY_MIN_ENTRIES``)
and the numpy-built flat view (``NUMPY_VIEW_MIN_CLAUSES``).  These tests
pin its value and its boundary: an input one below the constant takes the
slow (scalar) path, an input exactly at it the fast (numpy) path.  Both paths
are bit-identical in results (the parity suites prove that), so a moved
constant changes speed, never output — which is why it must move only on
purpose.
"""

from repro.grounding.clause_table import GroundClause
from repro.inference.state import VECTOR_AUTO_MIN_CLAUSES, resolve_backend
from repro.inference.vector_kernel import GREEDY_MIN_ENTRIES, VectorSearchState
from repro.mrf.graph import MRF, NUMPY_VIEW_MIN_CLAUSES


def chain_mrf(clause_count):
    """``clause_count`` two-atom clauses over a chain of atoms."""
    return MRF.from_clauses(
        [GroundClause(index, (index + 1, -(index + 2)), 1.0) for index in range(clause_count)]
    )


def greedy_probe_mrf(entries):
    """An MRF whose clause 0, ``(1, 2)``, has ``entries`` adjacency entries.

    A clause's candidate adjacency is the sum of its atoms' degrees; each
    extra clause ``(1, k)`` or ``(2, k)`` adds one to atom 1's or 2's.
    """
    clauses = [GroundClause(0, (1, 2), 1.0)]
    for extra in range(entries - 2):
        anchor = 1 if extra % 2 == 0 else 2
        clauses.append(GroundClause(extra + 1, (anchor, -(extra + 3)), 0.5))
    return MRF.from_clauses(clauses)


def test_crossover_constants():
    assert VECTOR_AUTO_MIN_CLAUSES == 256
    assert GREEDY_MIN_ENTRIES == 128
    assert NUMPY_VIEW_MIN_CLAUSES == 256


def test_vector_kernel_crossover_boundary():
    below = chain_mrf(VECTOR_AUTO_MIN_CLAUSES - 1)
    at = chain_mrf(VECTOR_AUTO_MIN_CLAUSES)
    assert below.clause_count == VECTOR_AUTO_MIN_CLAUSES - 1
    assert resolve_backend(below, "auto") == "flat"
    assert resolve_backend(at, "auto") == "vectorized"


def test_greedy_batching_crossover_boundary():
    below = VectorSearchState(greedy_probe_mrf(GREEDY_MIN_ENTRIES - 1))
    at = VectorSearchState(greedy_probe_mrf(GREEDY_MIN_ENTRIES))
    assert 0 not in below._greedy  # scalar greedy loop
    assert 0 in at._greedy  # batched numpy gather
    *_, candidate_count, _, _ = at._greedy[0]
    assert candidate_count == 2


def test_numpy_flat_view_crossover_boundary():
    below = chain_mrf(255)
    at = chain_mrf(256)
    assert (below.clause_count, at.clause_count) == (
        NUMPY_VIEW_MIN_CLAUSES - 1,
        NUMPY_VIEW_MIN_CLAUSES,
    )
    # Row-built: the per-literal loop, every candidate tuple built eagerly.
    assert below.flat_view().arrays is None
    assert None not in below.flat_view().candidates
    # Numpy-built from the columns: literal arrays, candidates on first read.
    assert at.flat_view().arrays is not None
    assert set(at.flat_view().candidates) == {None}
