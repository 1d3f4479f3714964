"""Grounding: from a weighted first-order program to a ground MRF.

Grounding instantiates every MLN clause over the constants of the domain,
prunes instantiations that the evidence already satisfies (Appendix A.3 of
the paper), and produces a table of *ground clauses* over *atoms* — the
weighted SAT problem that the search phase minimises.

Two grounders are provided:

* :class:`~repro.grounding.bottom_up.BottomUpGrounder` — Tuffy's approach:
  each clause is compiled (Algorithm 2) into a relational query over the
  per-predicate atom tables and executed by the :mod:`repro.rdbms` engine,
  so join ordering, join algorithms and predicate pushdown are chosen by
  the optimizer.  Each query runs on the engine's resolved *execution
  backend* (``auto | row | columnar``); on the columnar backend, query
  results stay as numpy columns end to end — per-literal evidence outcomes
  are evaluated over whole aid/truth columns at once and the surviving
  rows reach the clause store as one signed-literal matrix per clause,
  through :meth:`~repro.grounding.clause_table.GroundClauseStore.add_matrix`.  Both
  backends produce bit-identical :class:`~repro.grounding.result.GroundingResult`s
  (``tests/test_grounding_columnar_parity.py``).
* :class:`~repro.grounding.top_down.TopDownGrounder` — the Alchemy-style
  baseline: nested loops over variable bindings with per-binding lookups.

Both produce identical sets of ground clauses (a property the test suite
checks on randomly generated programs), differing only in cost.
"""

from repro.grounding.atoms import AtomRegistry, AtomRecord
from repro.grounding.bottom_up import BottomUpGrounder
from repro.grounding.clause_table import GroundClause, GroundClauseStore
from repro.grounding.compiler import ClauseCompilation, GroundingCompiler
from repro.grounding.lazy import active_closure
from repro.grounding.result import GroundingResult
from repro.grounding.top_down import TopDownGrounder

__all__ = [
    "AtomRecord",
    "AtomRegistry",
    "BottomUpGrounder",
    "ClauseCompilation",
    "GroundClause",
    "GroundClauseStore",
    "GroundingCompiler",
    "GroundingResult",
    "TopDownGrounder",
    "active_closure",
]
