#!/usr/bin/env bash
# Build the benchmark from this checkout's sources, then run one
# workload (see perfbench/main.ml for the arguments):
#   bash perfbench/run.sh --workload campaign-serial --seed 1 --seconds 20 --trace 0
# The build log goes to stderr; stdout carries only the benchmark's
# output, whose last line is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
