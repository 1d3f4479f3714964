"""The repo's one end-to-end + per-layer benchmark (see README.md here).

Run from the repository root::

    python3 -m benchmarks.e2e --seed 0                  # all six workloads
    python3 -m benchmarks.e2e --workload ie_warm_map --seed 3 --seconds 26 --trace 0
    python3 -m benchmarks.e2e compare A.json B.json
"""

import json
import os
from typing import Dict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS_DIR = os.path.join(HERE, "results")


def load_contract() -> Dict[str, object]:
    """``BENCHMARK.json``: the one place metric names, units and bounds live."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)
