#!/bin/sh
# Build the benchmark from source with dune, then run it. Every
# argument is passed through:
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr, so the last line of stdout is the
# benchmark's JSON result. The shared dune cache is off so that the
# build writes only under the tree's own _build.
cd "$(dirname "$0")/.." || exit 2
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: needs the full source tree (dune-project and lib/ are missing)" >&2
  exit 2
fi
dune build --root . --cache=disabled ./perfbench/main.exe 1>&2 || exit 2
exec ./_build/default/perfbench/main.exe "$@"
