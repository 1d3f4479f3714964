"""The size crossover that steers the search kernel.

It is one plain module constant, ``NUMPY_VIEW_MIN_CLAUSES``: MRFs with at
least that many clauses get a numpy-built flat view and search states
that initialise their counts with ``np.bincount`` (MC-SAT's constraint
states included; MC-SAT itself has one pipeline at every size).  These tests pin its value and its boundary: an input one below
the constant takes the slow (loop) path, an input exactly at it the fast
(numpy) path.  Both paths are bit-identical in results (the parity suites
prove that), so a moved constant changes speed, never output — which is
why it must move only on purpose.
"""

from repro.grounding.clause_table import GroundClause
from repro.inference.state import SearchState, counts_by_numpy
from repro.mrf.graph import MRF, NUMPY_VIEW_MIN_CLAUSES


def chain_mrf(clause_count):
    """``clause_count`` two-atom clauses over a chain of atoms."""
    return MRF.from_clauses(
        [GroundClause(index, (index + 1, -(index + 2)), 1.0) for index in range(clause_count)]
    )


def test_crossover_constant():
    assert NUMPY_VIEW_MIN_CLAUSES == 256


def test_count_initialisation_crossover_boundary():
    below = chain_mrf(255)
    at = chain_mrf(256)
    assert (below.clause_count, at.clause_count) == (
        NUMPY_VIEW_MIN_CLAUSES - 1,
        NUMPY_VIEW_MIN_CLAUSES,
    )
    assert not counts_by_numpy(below)
    assert counts_by_numpy(at)
    assert SearchState(below)._counts is None  # the Python loop
    assert SearchState(at)._counts is not None  # one np.bincount


def test_numpy_flat_view_crossover_boundary():
    below = chain_mrf(255)
    at = chain_mrf(256)
    # Row-built: the per-literal loop, every candidate tuple built eagerly.
    assert below.flat_view().arrays is None
    assert None not in below.flat_view().candidates
    # Numpy-built from the columns: literal arrays, candidates on first read.
    assert at.flat_view().arrays is not None
    assert set(at.flat_view().candidates) == {None}
