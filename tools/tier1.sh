#!/bin/sh
# Tier-1 gate: everything a PR must keep green.
#   1. full build (libs, binaries, benches, examples, tests, tools)
#   2. the whole test suite, including the typestate negative-compilation
#      suite (test/typestate) and the contract non-vacuity tests
#   3. smrlint, the source-level protocol/style gate (tools/lint)
#   4. dune-file formatting (@fmt is restricted to dune files in
#      dune-project because ocamlformat is not in the build image)
#   5. six fixed-seed smoke runs, each checked by `benchcheck CONTRACT
#      FILE` against its named JSON contract (json, churn, seg, kv, alloc,
#      tournament; tools/benchcheck/contracts.ml says what each requires).
#      Figures write to _build/smoke (`popbench --fig NAME --out DIR`), so
#      the committed repo-root baselines are not overwritten.
# Run from the repository root: sh tools/tier1.sh
set -e
cd "$(dirname "$0")/.."
dune build
dune runtest
dune build @lint
dune build @fmt
out="$(pwd)/_build/smoke"
rm -rf "$out"
mkdir -p "$out"
trap 'rm -rf "$out"' EXIT
popbench=./_build/default/bin/popbench.exe
check=./_build/default/tools/benchcheck/benchcheck.exe
$popbench --ds hml --smr epoch-pop -t 2 -d 0.2 --json "$out/json.json" > /dev/null
$check json "$out/json.json"
$popbench --ds hml --smr hp-pop -t 4 -d 0.5 \
  --churn 1,1,1 --ping-timeout 20 --sanitize --seed 7 \
  --json "$out/churn.json" > /dev/null
$check churn "$out/churn.json"
for fig in seg kv alloc; do
  $popbench --fig $fig --out "$out" > /dev/null
  $check $fig "$out/BENCH_$fig.json"
done
$popbench --fig tournament --smrs ebr,hyaline-1s \
  --scenarios stall-poll,crash,kv-skew --out "$out" > /dev/null
$check tournament "$out/BENCH_tournament.json"
echo "tier-1: ok"
