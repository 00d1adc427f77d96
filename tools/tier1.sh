#!/bin/sh
# Tier-1 gate: everything a PR must keep green.
#   1. full build (libs, binaries, benches, examples, tests, tools)
#   2. the whole test suite, including the typestate negative-compilation
#      suite (test/typestate) and the contract non-vacuity tests
#   3. smrlint, the source-level protocol/style gate (tools/lint)
#   4. dune-file formatting (@fmt is restricted to dune files in
#      dune-project because ocamlformat is not in the build image)
#   5. twenty fixed-seed smoke runs, each checked by `benchcheck CONTRACT
#      FILE` against its named JSON contract (json four times:
#      hml/epoch-pop, a sanitized hmht/nbr, a sanitized hmht/hp-pop
#      over 65,536 keys, the update-heavy benchmark shape, and a
#      sanitized hml/nbr under Figure 4's long-running reads; churn once
#      per ping-round scheme, so every caller's handshake-timeout
#      fallback runs, and for hp, he, ebr, hyaline-1, hyaline-1s and
#      ibr, so every Hp_family, Epoch_family and Hyaline_family scheme
#      runs deregister sanitized under churn; seg, kv, alloc, tournament;
#      tools/benchcheck/contracts.ml says what each requires).
#      Figures write to _build/smoke (`popbench --fig NAME --out DIR`), so
#      the committed repo-root baselines are not overwritten.
#   6. popbench rejects a flag pair that no single load can hold:
#      --zipf without --kv, and --inserts with --kv.
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
$popbench --ds hmht --smr nbr --sanitize -t 2 -d 0.2 --json "$out/hmht.json" > /dev/null
$check json "$out/hmht.json"
$popbench --ds hmht --smr hp-pop --sanitize -s 65536 -t 2 -d 0.2 --json "$out/hmht-pop.json" > /dev/null
$check json "$out/hmht-pop.json"
$popbench --ds hml --smr nbr --long-running-reads -t 4 -s 4096 --reclaim-freq 16 --sanitize \
  -d 0.3 --json "$out/lrr.json" > /dev/null
$check json "$out/lrr.json"
for smr in hp-pop he-pop epoch-pop hp-asym cadence nbr hp he ebr hyaline-1 hyaline-1s ibr; do
  $popbench --ds hml --smr $smr -t 4 -d 0.5 \
    --churn 1,1,1 --ping-timeout 20 --sanitize --seed 7 \
    --json "$out/churn-$smr.json" > /dev/null
  $check churn "$out/churn-$smr.json"
done
for fig in seg kv alloc; do
  $popbench --fig $fig --out "$out" > /dev/null
  $check $fig "$out/BENCH_$fig.json"
done
$popbench --fig tournament --smrs ebr,hyaline-1s \
  --scenarios stall-poll,crash,kv-skew --out "$out" > /dev/null
$check tournament "$out/BENCH_tournament.json"
if $popbench --zipf 0.99 -d 0.01 > /dev/null 2>&1; then
  echo "tier-1: popbench ran --zipf without --kv instead of rejecting it" >&2
  exit 1
fi
if $popbench --kv --inserts 90 -d 0.01 > /dev/null 2>&1; then
  echo "tier-1: popbench ran --inserts with --kv instead of rejecting it" >&2
  exit 1
fi
echo "tier-1: ok"
