#!/usr/bin/env bash
# Show that a change keeps every program output byte-identical to its
# parent: build both checkouts, run the same output set in each, and
# compare every file and exit code with cmp.
#
#   git archive <parent-commit> | tar -x -C PARENT_DIR
#   tools/same_outputs.sh PARENT_DIR
#
# PARENT_DIR must lie outside this checkout. Outputs go to a fresh
# directory under ${TMPDIR:-/tmp}, named on the last line. Exit status:
# 0 when everything matches, 1 on any difference, 2 on a usage or build
# error. The two sides run concurrently; `bin/main.exe all` dominates
# the wall time (about four minutes a side on one core).
#
# The set:
# - the JSONL trace and stdout of trace, chaos, attack and load (steady
#   and burst, plus load's --json summary), all with --check-invariants,
#   at seeds 7 and 11;
# - the stdout of scale without its memory line (heap sizes and CPU time
#   depend on the host), security fig3a table2, efficiency --cdf at seeds
#   42 and 7, ablation, the four examples and `bin/main.exe all`;
# - the deterministic outputs (`.det`, through jq) of one octobench child
#   per workload that BENCHMARK.json lists, at seeds 7 and 11: the
#   benchmark's own counts, which time and memory figures leave out.
set -euo pipefail

if [ $# -ne 1 ] || [ ! -d "$1" ]; then
  echo "usage: $0 PARENT_DIR" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
here=$(cd "$(dirname "$0")/.." && pwd)
out=$(mktemp -d "${TMPDIR:-/tmp}/same_outputs.XXXXXX")

examples="quickstart anon_messaging attacker_hunt churny_store"
workloads=$(jq -r '.workloads[].name' "$here/BENCHMARK.json")
targets="./bin/main.exe ./octobench/octobench.exe"
for ex in $examples; do targets="$targets ./examples/$ex.exe"; done
for root in "$parent" "$here"; do
  # shellcheck disable=SC2086
  (cd "$root" && dune build $targets) || { echo "build failed in $root" >&2; exit 2; }
done

# [run NAME CMD...] records CMD's stdout, stderr and exit code as NAME.*
# in the current directory.
run() {
  local name=$1
  shift
  set +e
  "$@" >"$name.out" 2>"$name.err"
  echo $? >"$name.code"
  set -e
}

# [side ROOT DIR] runs the whole set with ROOT's binaries inside DIR, so
# the output paths the programs print are the same on both sides.
side() {
  local main=$1/_build/default/bin/main.exe ex=$1/_build/default/examples
  local bench=$1/_build/default/octobench/octobench.exe
  mkdir -p "$2"
  cd "$2"
  for seed in 7 11; do
    run "trace.$seed" "$main" trace -n 60 --duration 60 --check-invariants --seed "$seed" \
      --trace "trace.$seed.jsonl"
    run "chaos.$seed" "$main" chaos -n 40 --duration 120 --check-invariants --seed "$seed" \
      --trace "chaos.$seed.jsonl"
    run "attack.$seed" "$main" attack -n 40 --duration 180 --check-invariants --seed "$seed" \
      --trace "attack.$seed.jsonl"
    for regime in steady burst; do
      run "load-$regime.$seed" "$main" load --regime "$regime" -n 60 --queries 2000 \
        --check-invariants --seed "$seed" --trace "load-$regime.$seed.jsonl" \
        --json "load-$regime.$seed.json"
    done
  done
  run scale "$main" scale -n 2000 --duration 120
  sed -i '/^scale  *memory /d' scale.out
  run security "$main" security fig3a table2 -n 150 --duration 250
  for seed in 42 7; do
    run "efficiency.$seed" "$main" efficiency --cdf --seed "$seed"
  done
  run ablation "$main" ablation -n 150 --duration 200 --trials 60
  for name in $examples; do
    run "$name" "$ex/$name.exe"
  done
  for seed in 7 11; do
    for wl in $workloads; do
      run "octobench-$wl.$seed" bash -c \
        'set -o pipefail; "$1" --child "$2" --seed "$3" | jq -c .det' _ "$bench" "$wl" "$seed"
    done
  done
  run all "$main" all
}

side "$parent" "$out/parent" &
pid=$!
side "$here" "$out/change"
wait "$pid"

status=0
files=$( (cd "$out/parent" && ls; cd "$out/change" && ls) | sort -u)
for f in $files; do
  if cmp -s "$out/parent/$f" "$out/change/$f"; then
    echo "same     $f"
  else
    echo "DIFFERS  $f"
    status=1
  fi
done
echo "outputs in $out"
exit "$status"
