"""Search and sampling algorithms for MAP and marginal MLN inference.

* :mod:`repro.inference.state` — incremental WalkSAT bookkeeping (satisfied
  literal counts, violated-clause set, O(1) flips);
* :mod:`repro.inference.walksat` — the WalkSAT local search of Algorithm 1;
* :mod:`repro.inference.rdbms_walksat` — the RDBMS-backed search (Tuffy-mm,
  Appendix B.2), which pays simulated I/O per step;
* :mod:`repro.inference.component_walksat` — component-aware WalkSAT with
  weighted round-robin scheduling (Section 3.3);
* :mod:`repro.inference.gauss_seidel` — partition-aware search over split
  components (Section 3.4);
* :mod:`repro.inference.mcsat` / :mod:`repro.inference.samplesat` — marginal
  inference (Appendix A.5);
* :mod:`repro.inference.scheduling` — round-robin and parallel execution of
  per-component searches.
"""

from repro.inference.component_walksat import ComponentAwareWalkSAT, ComponentSearchResult
from repro.inference.gauss_seidel import GaussSeidelSearch
from repro.inference.mcsat import MCSat, MarginalResult
from repro.inference.rdbms_walksat import RDBMSWalkSAT
from repro.inference.samplesat import SampleSAT
from repro.inference.state import SearchState
from repro.inference.walksat import WalkSAT, WalkSATOptions, WalkSATResult

__all__ = [
    "ComponentAwareWalkSAT",
    "ComponentSearchResult",
    "GaussSeidelSearch",
    "MCSat",
    "MarginalResult",
    "RDBMSWalkSAT",
    "SampleSAT",
    "SearchState",
    "WalkSAT",
    "WalkSATOptions",
    "WalkSATResult",
]
