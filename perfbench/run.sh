#!/usr/bin/env bash
# Build the benchmark from this checkout's sources, then run it.
#
#   bash perfbench/run.sh --workload zoo-compile --seed 7 --seconds 30 --trace 0
#
# The build log goes to stderr; the last line of stdout is the result
# JSON.  Everything is written under ./_build.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/elkbench.exe 1>&2
exec ./_build/default/perfbench/elkbench.exe "$@"
