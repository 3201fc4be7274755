#!/usr/bin/env bash
# Build the benchmark harness from source, then run it with the given
# arguments from the repository root:
#
#   bash perfbench/run.sh --workload scimark-full --seed 7 --seconds 20 --trace 0
#   bash perfbench/run.sh compare DIR_A DIR_B
#
# Build output goes to stderr, so the last line of stdout is the harness's
# JSON result.  Without the repository's sources next to this directory the
# build fails and the script exits non-zero without a result.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
