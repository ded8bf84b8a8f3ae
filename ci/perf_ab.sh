#!/usr/bin/env bash
# Interleaved A/B run of the repository benchmark: this checkout (the
# change) against BASE_REV (the parent). BASE_REV is checked out with
# `git worktree add` in a temp dir. Each BENCHMARK.json workload then runs
# PAIRS times on each side through `python3 perfbench/run.py --workload W`,
# alternating which side runs first in a pair so that host drift falls on
# both sides alike. For every end-to-end metric the script prints each
# side's median, quartiles and spread ((q3 - q1) / median), and the
# change/parent ratio of the medians. Failed or incorrect runs are left
# out; a side whose figures rest on fewer than PAIRS runs shows its run
# count as n=K. Where a side's spread is wider than the metric's bound in
# BENCHMARK.json, the ratio cannot tell a change from noise: read that
# metric as unresolved. Each checkout builds its own .bench_build/ before
# the first timed run; nothing under perfbench/ or BENCHMARK.json is
# edited. The worktree is removed on exit.
#
# Usage: ci/perf_ab.sh BASE_REV [PAIRS]        (PAIRS defaults to 10)
#        PERF_AB_SECONDS=N shortens each run (run.py --seconds N; the
#        default is BENCHMARK.json's run_seconds).
set -euo pipefail

cd "$(dirname "$0")/.."
CHANGE_DIR="$PWD"
BASE_REV="${1:?usage: ci/perf_ab.sh BASE_REV [PAIRS]}"
PAIRS="${2:-10}"
SECONDS_ARGS=()
if [[ -n "${PERF_AB_SECONDS:-}" ]]; then
  SECONDS_ARGS=(--seconds "$PERF_AB_SECONDS")
fi

WORK="$(mktemp -d "${TMPDIR:-/tmp}/perf_ab.XXXXXX")"
BASE_DIR="$WORK/base"
RESULTS="$WORK/results.jsonl"
cleanup() {
  git -C "$CHANGE_DIR" worktree remove --force "$BASE_DIR" 2>/dev/null || true
  git -C "$CHANGE_DIR" worktree prune
  rm -rf "$WORK"
}
trap cleanup EXIT
git worktree add --detach --quiet "$BASE_DIR" "$BASE_REV"

WORKLOADS=$(python3 -c 'import json
for w in json.load(open("BENCHMARK.json"))["workloads"]: print(w["name"])')

# Build both sides up front so no timed pair pays for a compile.
build() {
  (cd "$1" && python3 -c 'import sys; sys.path.insert(0, "perfbench")
import run; run.build()')
}
build "$CHANGE_DIR"
build "$BASE_DIR"

run_side() {  # side dir workload pair
  local line
  if line=$(cd "$2" &&
            python3 perfbench/run.py --workload "$3" "${SECONDS_ARGS[@]}" |
              tail -n 1) && [[ -n "$line" ]]; then
    printf '{"side": "%s", "workload": "%s", "pair": %s, "result": %s}\n' \
      "$1" "$3" "$4" "$line" >> "$RESULTS"
    echo "perf_ab: $3 pair $4 $1 done" >&2
  else
    printf '{"side": "%s", "workload": "%s", "pair": %s, "result": null}\n' \
      "$1" "$3" "$4" >> "$RESULTS"
    echo "perf_ab: $3 pair $4 $1 FAILED" >&2
  fi
}

for workload in $WORKLOADS; do
  for ((pair = 1; pair <= PAIRS; ++pair)); do
    if ((pair % 2)); then
      run_side change "$CHANGE_DIR" "$workload" "$pair"
      run_side parent "$BASE_DIR" "$workload" "$pair"
    else
      run_side parent "$BASE_DIR" "$workload" "$pair"
      run_side change "$CHANGE_DIR" "$workload" "$pair"
    fi
  done
done

python3 - "$RESULTS" "$BASE_REV" "$PAIRS" <<'EOF'
import json
import statistics
import sys

results = [json.loads(line) for line in open(sys.argv[1])]
pairs = int(sys.argv[3])
bench = json.load(open("BENCHMARK.json"))
print(f"perf_ab: change (working tree) vs parent ({sys.argv[2]}); "
      "median [q1, q3] spread over the pairs")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


for w in bench["workloads"]:
    name = w["name"]
    runs = {side: [r for r in results
                   if r["workload"] == name and r["side"] == side]
            for side in ("parent", "change")}
    failed = {side: sum(r["result"] is None or not r["result"]["correct"]
                        for r in rs) for side, rs in runs.items()}
    print(f"\n{name}: {len(runs['change'])} pairs; failed or incorrect "
          f"runs: parent {failed['parent']}, change {failed['change']}")
    print(f"  {'metric':<12} {'parent':>38} {'change':>38} {'ratio':>7}  "
          "bound")
    for spec in bench["end_to_end"]:
        metric = spec["name"]
        sides = {}
        for side, rs in runs.items():
            values = [r["result"]["metrics"][metric]["value"] for r in rs
                      if r["result"] is not None and r["result"]["correct"]
                      and metric in r["result"]["metrics"]]
            if not values:
                continue
            q1, m, q3 = quartiles(values)
            cell = f"{m:.4g} [{q1:.4g}, {q3:.4g}] {(q3 - q1) / m if m else 0:.3f}"
            if len(values) < pairs:
                cell += f" n={len(values)}"
            sides[side] = (m, cell)
        if len(sides) < 2:
            print(f"  {metric:<12} (not measured on both sides)")
            continue
        parent, change = sides["parent"][0], sides["change"][0]
        ratio = change / parent if parent else float("inf")
        print(f"  {metric:<12} {sides['parent'][1]:>38} "
              f"{sides['change'][1]:>38} {ratio:>7.3f}  {spec['bound']}")
EOF
