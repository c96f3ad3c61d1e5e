#!/bin/bash
# Regenerates every table and figure (see EXPERIMENTS.md). ~15-30 min.
# Also refreshes the committed bench baselines (BENCH_faults.json,
# BENCH_mux.json, BENCH_storm.json, BENCH_relaymesh.json,
# BENCH_adaptive.json) and gates the fresh numbers
# against the previous ones with check_bench (strict 20% throughput / 2x
# recovery rule, plus the exact invariants: one-link-per-peer mux,
# walks==pairs storm, the relaymesh structural gates — 4-relay scaling
# >= 2x, BUSY engagement under skew, exactly-once FIFO across a relay
# kill — and the adaptive controller-vs-static floors).
#
# A step that fails (a figure that panics, a gate that trips) does not
# stop the run: every step still runs, the failed ones are listed at the
# end and the exit status is non-zero if there were any.
set -u
cd "$(dirname "$0")"
BIN=./target/release
FAILED=""

step() { # label cmd...
  local label=$1; shift
  echo "################################################################"
  echo "### $label"
  echo "################################################################"
  "$@" || FAILED="$FAILED\n  $label (exit $?)"
  echo
}

step table1_matrix "$BIN/table1_matrix" "$@"
for fig in lan latency crossover fig9 fig10 adaptive autotune; do
  step "figures $fig" "$BIN/figures" $fig "$@"
done
for exp in establishment deployment relay; do
  step "multisite $exp" "$BIN/multisite" $exp "$@"
done
step "bench_suite ack" "$BIN/bench_suite" ack "$@"

# Snapshot the previous baselines so the regression gate compares the new
# full runs against what was committed before this invocation.
rm -rf target/bench-base && mkdir -p target/bench-base
cp BENCH_*.json target/bench-base/

for suite in faults mux storm relaymesh adaptive; do
  step "bench_suite $suite (writes BENCH_$suite.json)" "$BIN/bench_suite" $suite
done
step "check_bench (fresh full runs vs previous baselines)" \
  "$BIN/check_bench" --all --fresh-dir . --base-dir target/bench-base --tolerance 0.2

if [ -n "$FAILED" ]; then
  printf 'run_benches: failed steps:%b\n' "$FAILED"
  exit 1
fi
echo "run_benches: every step succeeded"
