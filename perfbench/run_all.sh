#!/usr/bin/env bash
# Run the four benchmark workloads, each in its own process, and keep one
# JSON result per run for `main.exe compare` / `main.exe baseline`.
#
#   bash perfbench/run_all.sh OUT_DIR                  seed 7, untraced
#   bash perfbench/run_all.sh OUT_DIR --seed 3         another input seed
#   bash perfbench/run_all.sh OUT_DIR --trace 1        per-layer ledgers
#   bash perfbench/run_all.sh OUT_DIR --runs 5         five runs per workload
#
# Results land in OUT_DIR/<workload>-s<seed>-t<trace>-r<run>.json; the
# harness's own report for each run is printed as it goes.
set -euo pipefail
if [ $# -lt 1 ]; then
  echo "usage: $0 OUT_DIR [--seed N] [--trace 0|1] [--runs N]" >&2
  exit 2
fi
out=$1
shift
seed=7
trace=0
runs=1
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed=$2; shift 2 ;;
    --trace) trace=$2; shift 2 ;;
    --runs) runs=$2; shift 2 ;;
    *) echo "unknown option $1" >&2; exit 2 ;;
  esac
done
here=$(cd "$(dirname "$0")" && pwd)
mkdir -p "$out"
out=$(cd "$out" && pwd)
# a run with incorrect output still writes its result: keep going, and
# exit non-zero at the end
status=0
for run in $(seq 1 "$runs"); do
  for w in scimark-full interactive-corpus random-sweep serve-resume; do
    bash "$here/run.sh" --workload "$w" --seed "$seed" --trace "$trace" \
      --json "$out/$w-s$seed-t$trace-r$run.json" || status=1
  done
done
exit $status
