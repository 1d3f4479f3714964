#!/usr/bin/env bash
# Repo check: byte-compile everything, run the static-analysis gate
# (the determinism & parity linter, plus ruff/mypy when installed), run
# the tier-1 test suite (see ROADMAP.md; it includes every backend
# parity suite), then the observability gates (obs-purity, a traced IE
# run whose Chrome trace must validate) and one traced run each of the
# ie_warm_map and rc_cold_map end-to-end workloads.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== compileall =="
python -m compileall -q src

echo "== static analysis (determinism & parity linter; gating) =="
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.analysis src

if command -v ruff >/dev/null 2>&1; then
  echo "== ruff (pyproject.toml config) =="
  ruff check src tests benchmarks
else
  echo "== ruff not installed; skipping (tree is kept ruff-clean regardless) =="
fi

if command -v mypy >/dev/null 2>&1; then
  echo "== mypy (strict on repro.analysis / repro.utils) =="
  MYPYPATH=src mypy -p repro.analysis -p repro.utils
else
  echo "== mypy not installed; skipping (strict scope: repro.analysis, repro.utils) =="
fi

echo "== tier-1 tests (includes the kernel and MC-SAT parity suites on both count paths) =="
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -x -q

# Observability: the obs-purity rule alone (fast re-run over the obs
# layer) and an end-to-end traced run on IE whose Chrome trace must pass
# the structural validator.  Tracing overhead is measured per workload
# by the e2e benchmark (obs.tracing_overhead_ratio).
echo "== obs-purity rule (observability layer static gate) =="
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.analysis src --select obs-purity
OBS_TRACE="$(mktemp -t obs_trace_XXXXXX.json)"
OBS_METRICS="$(mktemp -t obs_metrics_XXXXXX.json)"
E2E_OUT="$(mktemp -t e2e_traced_XXXXXX.txt)"
trap 'rm -f "${OBS_TRACE}" "${OBS_METRICS}" "${E2E_OUT}"' EXIT
echo "== traced IE run + Chrome trace validation =="
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli dataset IE --scale 0.3 \
  --max-flips 2000 --workers 2 --session-requests 4 --session-concurrent 2 \
  --trace-out "${OBS_TRACE}" --metrics-out "${OBS_METRICS}" >/dev/null
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python - "${OBS_TRACE}" "${OBS_METRICS}" <<'PYEOF'
import json, sys
from repro.obs import validate_chrome_trace
payload = json.load(open(sys.argv[1]))
problems = validate_chrome_trace(payload)
if problems:
    sys.exit("invalid Chrome trace:\n  " + "\n  ".join(problems))
lanes = {e["tid"] for e in payload["traceEvents"]}
if not {1, 2, 3, 4} <= lanes:
    sys.exit(f"expected a lane per request, got tids {sorted(lanes)}")
metrics = json.load(open(sys.argv[2]))
if metrics["counters"].get("session.requests") != 4.0:
    sys.exit(f"metrics dump missing session.requests=4: {metrics['counters']}")
print(f"trace OK: {len(payload['traceEvents'])} events across request lanes {sorted(lanes)}")
PYEOF
# One traced run of an e2e workload on every check log: the run must exit
# 0 and report "correct": true; the named per-layer metrics are printed.
# A NAME=VALUE argument is a count the run must report exactly.
e2e_traced_run() {
  local workload="$1"
  shift
  python3 -m benchmarks.e2e --workload "${workload}" --seed 0 --seconds 8 --trace 1 >"${E2E_OUT}"
  python3 - "${E2E_OUT}" "${workload}" "$@" <<'PYEOF'
import json, sys
path, workload, *names = sys.argv[1:]
result = json.loads(open(path).read().splitlines()[-1])
if not result["correct"] or result["failed"]:
    sys.exit(f"{workload}: correct={result['correct']} failed={result['failed']}/{result['attempted']}")
for name in names:
    name, _, expected = name.partition("=")
    metric = result["metrics"][name]
    print(f"{workload}  {name:<40} {metric['value']:.4f} {metric['unit']}")
    if expected and metric["value"] != float(expected):
        sys.exit(f"{workload}: {name} is {metric['value']:g}, expected {expected}")
PYEOF
}

# The pool-vs-serial number: the many-tiny-components workload (3,000 IE
# components, 2 workers).  dispatch_overhead_ratio is pooled seconds /
# serial seconds on the same components (< 1: the pool wins),
# worker_busy_share the workers' busy share of the dispatch wall,
# worker_state_setup_s the per-request worker state rebuilding (~0 warm).
# The last three are where a warm request's per-component bookkeeping
# sits: the parent's merge, the parent's own dispatch work (chunk
# messages, the bulk result read) and the workers' search loops.
echo "== e2e benchmark: ie_warm_map traced run (pool vs serial) =="
e2e_traced_run ie_warm_map \
  parallel.dispatch_overhead_ratio parallel.worker_busy_share inference.worker_state_setup_s \
  core.merge_s parallel.dispatch_self_s inference.worker_kernel_search_s

# The cold request, stage by stage: the one-shot workload (RC, 74,776
# ground clauses, 96 components, 2 workers).  The six numbers are where
# a cold request's time goes before the first flip — grounding, MRF
# build, component detection, pool checkout (fork), the workers'
# first-use state construction and the same construction staged in one
# process; parse and registry are the text-to-columns stages before them.
# The workers' kernel search sits beside their state set-up: the cold
# path is lean once set-up reads below search.
# The four counts must repeat exactly: a clause store that drops or
# duplicates a row changes the first two, an atom table that differs
# changes the join sizes, and a clause table charged differently changes
# the page reads.
echo "== e2e benchmark: rc_cold_map traced run (the stages before the first flip) =="
e2e_traced_run rc_cold_map \
  logic.parse_s grounding.registry_s \
  grounding.ground_s mrf.build_s mrf.components_s parallel.pool_checkout_s \
  inference.worker_state_setup_s inference.worker_kernel_search_s inference.state_build_s \
  grounding.ground_clauses=74776 mrf.components=96 \
  rdbms.intermediate_tuples=155254 rdbms.page_reads=585

echo "== check.sh OK =="
