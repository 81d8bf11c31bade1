#!/bin/sh
# Builds the benchmark harness and the fst binary from source, then runs
# one workload. Run from the root of a checkout:
#   sh perfbench/run.sh --workload fsim-tail --seed 1 --seconds 15 --trace 0
# Build output goes to stderr; stdout ends with the result line.
set -e
cd "$(dirname "$0")/.."
# Keep every build artifact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . ./perfbench/perfbench.exe ./bin/fst.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
