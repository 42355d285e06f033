#!/usr/bin/env bash
# Build the benchmark from source, then run it.  From the repository root:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# The build goes to stderr, so the result JSON stays the last line of stdout.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
