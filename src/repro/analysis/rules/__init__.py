"""Rule families of the determinism & parity linter.

Importing this package registers every rule with
:data:`repro.analysis.framework.RULE_REGISTRY`; the families are

* :mod:`repro.analysis.rules.determinism` — hash-order iteration, raw RNG,
  wall-clock reads and unordered float accumulation;
* :mod:`repro.analysis.rules.fork` — fork-safety of the parallel
  backend (module state, shared-memory publication, pool lifecycle,
  picklable submissions);
* :mod:`repro.analysis.rules.obs` — purity of the observability layer
  (no randomness, no session-state reach-back, no clock mutation).
"""

from repro.analysis.rules import determinism, fork, obs

__all__ = ["determinism", "fork", "obs"]
