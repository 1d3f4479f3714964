#!/usr/bin/env bash
# Golden check for behaviour-preserving changes.
#
#   scripts/golden.sh <base-rev>
#
# Clones <base-rev> of this repository into a temporary directory, runs the
# same CLI commands on it and on this working tree (the commands of the
# verify notes: MAP on RC, IE over the process pool, monolithic LP, MC-SAT
# marginals on IE and ER under a 2 KB memory budget — each of these two also
# over the process pool, and ER once more as three requests on one warm
# engine — and `infer -i/-e` on the program of tests/test_cli.py), masks the
# wall-clock and memory lines (and the session summary's per-request
# timings) and diffs the outputs.  Exits non-zero on any difference.  Then prints the
# `src/repro` line count per package for both trees.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: scripts/golden.sh <base-rev>" >&2
  exit 2
fi
repo="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

git clone -q --no-checkout "$repo" "$work/base"
git -C "$work/base" checkout -q "$1"

# The `infer` inputs: tests/test_cli.py's program and evidence texts.
python3 - "$repo/tests/test_cli.py" "$work" <<'EOF'
import ast
import pathlib
import sys

tree = ast.parse(pathlib.Path(sys.argv[1]).read_text())
texts = {
    target.id: node.value.value
    for node in tree.body
    if isinstance(node, ast.Assign)
    for target in node.targets
    if isinstance(target, ast.Name) and target.id in ("PROGRAM_TEXT", "EVIDENCE_TEXT")
}
work = pathlib.Path(sys.argv[2])
(work / "prog.mln").write_text(texts["PROGRAM_TEXT"])
(work / "prog.db").write_text(texts["EVIDENCE_TEXT"])
EOF

COMMANDS=(
  "dataset RC --max-flips 20000 --seed 3"
  "dataset IE --scale 0.5 --max-flips 20000 --seed 3 --workers 4 --parallel-backend processes"
  "dataset LP --max-flips 15000 --seed 7 --no-partitioning"
  "dataset IE --scale 0.3 --max-flips 4000 --seed 5 --marginal --mcsat-samples 20"
  "dataset IE --scale 0.3 --max-flips 4000 --seed 5 --marginal --mcsat-samples 20 --workers 2 --parallel-backend processes"
  "dataset ER --scale 0.5 --max-flips 8000 --seed 2 --memory-budget-kb 2"
  "dataset ER --scale 0.5 --max-flips 8000 --seed 2 --memory-budget-kb 2 --workers 2 --parallel-backend processes"
  "dataset ER --scale 0.5 --max-flips 8000 --seed 2 --memory-budget-kb 2 --session-requests 3 --workers 2 --parallel-backend processes"
  "infer -i $work/prog.mln -e $work/prog.db --max-flips 2000"
)

# run_tree <tree> <output file>: every command's masked output, in order.
run_tree() {
  local command
  for command in "${COMMANDS[@]}"; do
    echo "\$ repro-tuffy $command"
    # shellcheck disable=SC2086  # the command string is split on purpose
    (cd "$1" && PYTHONPATH=src python3 -m repro.cli $command 2>&1) \
      | sed -E -e 's/^([^:]*(seconds|peak_memory_mb)[^:]*):.*$/\1: <masked>/' \
        -e 's/^( *(request [0-9]+ \((cold|warm)\)|warm requests\/sec)):.*$/\1: <masked>/'
  done >"$2"
}

run_tree "$work/base" "$work/base.txt"
run_tree "$repo" "$work/new.txt"

status=0
if diff -u "$work/base.txt" "$work/new.txt"; then
  echo "golden: no difference in ${#COMMANDS[@]} commands ($(wc -l <"$work/new.txt") lines)"
else
  echo "golden: outputs differ" >&2
  status=1
fi

python3 - "$work/base" "$repo" <<'EOF'
import collections
import pathlib
import subprocess
import sys


def package_lines(root):
    listed = subprocess.run(
        ["git", "-C", root, "ls-files", "-co", "--exclude-standard", "src/repro/*.py"],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    counts = collections.Counter()
    for name in listed:
        path = pathlib.Path(root, name)
        if path.is_file():
            parts = pathlib.Path(name).parts
            counts[parts[2] if len(parts) > 3 else "(modules)"] += len(
                path.read_text().splitlines()
            )
    return counts


base, new = package_lines(sys.argv[1]), package_lines(sys.argv[2])
print(f"{'src/repro':<14}{'base':>8}{'new':>8}{'change':>8}")
for package in sorted(set(base) | set(new)):
    print(f"{package:<14}{base[package]:>8}{new[package]:>8}{new[package] - base[package]:>+8}")
total_base, total_new = sum(base.values()), sum(new.values())
print(f"{'total':<14}{total_base:>8}{total_new:>8}{total_new - total_base:>+8}")
EOF
exit "$status"
