#!/bin/sh
# Builds the benchmark program from source and runs it. From the
# repository root:
#   sh perfbench/run.sh --workload pa-join --seed 1 --seconds 20 --trace 0
# The build writes only under _build/ (the shared dune cache is off); its
# output goes to stderr so that the last line of stdout stays the result.
set -u
cd "$(dirname "$0")/.." || exit 2
DUNE_CACHE=disabled dune build --root . ./perfbench/bench.exe 1>&2 || exit 3
exec ./_build/default/perfbench/bench.exe "$@"
