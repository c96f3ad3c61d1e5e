#!/bin/bash
# Regenerates every table and figure (see EXPERIMENTS.md). ~15-30 min.
# Also refreshes the committed bench baselines (BENCH_datapath.json,
# BENCH_faults.json, BENCH_mux.json, BENCH_storm.json,
# BENCH_relaymesh.json, BENCH_adaptive.json) and gates the fresh numbers
# against the previous ones with check_bench (strict 20% throughput / 2x
# recovery rule, plus the exact invariants: one-link-per-peer mux,
# walks==pairs storm, the relaymesh structural gates — 4-relay scaling
# >= 2x, BUSY engagement under skew, exactly-once FIFO across a relay
# kill — and the adaptive controller-vs-static floors).
set -u
cd "$(dirname "$0")"
BIN=./target/release
for b in table1_matrix lan_aggregation establishment_delay latency_streams \
         qualitative_deployment compression_crossover relay_bottleneck \
         fig9_amsterdam_rennes fig10_delft_sophia adaptive_compression \
         autotune_streams bench_ack; do
  echo "################################################################"
  echo "### $b"
  echo "################################################################"
  "$BIN/$b" "$@"
  echo
done

# Snapshot the previous baselines so the regression gate compares the new
# full runs against what was committed before this invocation.
rm -rf target/bench-base && mkdir -p target/bench-base
cp BENCH_*.json target/bench-base/

echo "################################################################"
echo "### bench_datapath (writes BENCH_datapath.json)"
echo "################################################################"
"$BIN/bench_datapath"
echo

echo "################################################################"
echo "### bench_faults (writes BENCH_faults.json)"
echo "################################################################"
"$BIN/bench_faults"
echo

echo "################################################################"
echo "### bench_mux (writes BENCH_mux.json)"
echo "################################################################"
"$BIN/bench_mux"
echo

echo "################################################################"
echo "### bench_storm (writes BENCH_storm.json)"
echo "################################################################"
"$BIN/bench_storm"
echo

echo "################################################################"
echo "### bench_relay_mesh (writes BENCH_relaymesh.json)"
echo "################################################################"
"$BIN/bench_relay_mesh"
echo

echo "################################################################"
echo "### bench_adaptive (writes BENCH_adaptive.json)"
echo "################################################################"
"$BIN/bench_adaptive"
echo

echo "################################################################"
echo "### check_bench (fresh full runs vs previous baselines)"
echo "################################################################"
"$BIN/check_bench" --all --fresh-dir . --base-dir target/bench-base --tolerance 0.2
