#!/bin/bash
# Repo gate, organized as named stages:
#
#   fmt     cargo fmt --check
#   clippy  cargo clippy --workspace --all-targets -D warnings, then the
#           repository's own rules: no `Instant::now` / `SystemTime` in
#           crates/, src/, tests/ or examples/ — host time is gridbench's to
#           read — no `std::env::var` in the five product crates' src, and
#           no link-frame field coded outside crates/core/src/wire.rs
#   golden  golden wire-trace gate: re-run the traced scenarios and
#           byte-diff their digests against tests/golden/*.trace.
#           `./ci.sh --bless` (or `--stage golden --bless`) regenerates
#           the snapshots instead of failing and prints, per overwritten
#           file, each changed run's counters old -> new, or "unchanged"
#           (commit the diff, quote the log).
#   bench   quick bench-regression gate: every bench with a committed
#           BENCH_*.json baseline runs --quick, then check_bench --all
#           verifies the fresh set matches the baseline set one-to-one
#           (a bench missing from this stage is itself a failure) and
#           applies each suite's typed gates (loose tolerance — quick
#           runs are noisier; the structural invariants stay exact:
#           mux links/walks==1, storm walks==pairs, relaymesh 4-relay
#           scaling >= 2x + BUSY engagement + failover FIFO). Then
#           `figures crossover --levels`, which asserts the paper's "only
#           level 1 pays" as an inequality.
#   faults  fault-matrix smoke under three fixed RNG seeds, over the
#           faults, storm, relay_mesh and adaptive suites
#           (NETGRID_TEST_SEED shifts every Sim seed; the replay
#           command is printed on failure).
#   test    full workspace test suite (debug); the gridzip and gridcrypt
#           suites again in release, where the vectorised ChaCha20 pass
#           and the bounds-check-free matcher loops actually exist, and
#           the wire-codec properties (core's prop.rs) with them, where
#           arithmetic on a peer's lengths wraps instead of panicking; then,
#           where `taskset` exists, the scheduler's own tests and the root
#           scheduler, relay and relay park-count smokes again on one CPU,
#           the regime gridbench measures.
#
# `./ci.sh` runs everything in the order above (golden and bench build
# the release workspace first). `./ci.sh --stage bench` runs one stage;
# repeat or comma-separate to pick several (`--stage fmt,clippy`);
# `./ci.sh --stage list` prints the stage names and exits.
# Every run ends with a per-stage wall-clock summary and the sizes
# ROADMAP tracks: lines in crates/*/src outside bench/src/bin, the bench
# bins' count, crates/bench as a whole, and the vendored stand-ins.
# run_benches.sh covers the full (slow) perf side separately.
set -eu
cd "$(dirname "$0")"

BLESS=0
STAGES=""
while [ $# -gt 0 ]; do
  case "$1" in
    --bless) BLESS=1 ;;
    --stage) shift; STAGES="$STAGES ${1//,/ }" ;;
    --stage=*) a=${1#--stage=}; STAGES="$STAGES ${a//,/ }" ;;
    *) echo "ci.sh: unknown argument $1 (try --stage fmt|clippy|golden|bench|faults|test, --bless)"; exit 2 ;;
  esac
  shift
done
ALL_STAGES="fmt clippy golden bench faults test"
[ -z "$STAGES" ] && STAGES="$ALL_STAGES"
for s in $STAGES; do
  case "$s" in
    fmt|clippy|golden|bench|faults|test) ;;
    list) for n in $ALL_STAGES; do echo "$n"; done; exit 0 ;;
    *) echo "ci.sh: unknown stage '$s' (fmt|clippy|golden|bench|faults|test, or 'list' to print them)"; exit 2 ;;
  esac
done

BIN=./target/release
GOLD=tests/golden
FRESH=target/golden
mkdir -p "$FRESH"

# The release workspace build backs the golden and bench stages (a no-op
# for the second of them).
ensure_build() {
  echo "--- cargo build --release --workspace"
  cargo build --release --workspace
}

stage_fmt() {
  cargo fmt --check
}

stage_clippy() {
  cargo clippy --workspace --all-targets -- -D warnings
  # Nothing in the workspace reads the host clock: a read per event is a
  # fifth of a bulk run's CPU, and every number it could feed is gridbench's.
  if grep -rnE 'Instant::now|SystemTime' crates/ src/ tests/ examples/; then
    echo "host clock read in the workspace (lines above); measure from benchmark/ instead"
    return 1
  fi
  # A simulation's behaviour is its arguments': no switch in the environment.
  if grep -rn 'std::env::var' crates/{simnet,simtcp,gridzip,gridcrypt,core}/src; then
    echo "environment read in a product crate (lines above); pass it in instead"
    return 1
  fi
  # What a data link carries is wire.rs's to encode and decode: the port
  # pump, the session layer and the node call its codec (the varints in
  # port.rs are the application's own, in ReadMessage / WriteMessage).
  if grep -nE 'read_varint|varint::put_slice|RESUME_FLAG|mux::' crates/core/src/{port,session,node}.rs; then
    echo "data-link field coded outside wire.rs (lines above); use its codec"
    return 1
  fi
}

stage_golden() {
  ensure_build
  # Each entry: trace-name :: command. The digest file hashes every packet
  # event of every run in the binary, so any wire-level divergence fails.
  run_trace() { # name cmd...
    local name=$1; shift
    echo "--- $name: $*"
    NETGRID_TRACE="$FRESH/$name.trace" "$@" > /dev/null
  }
  run_trace fig9_quick "$BIN/figures" fig9 --quick
  run_trace mux_pair "$BIN/bench_suite" mux --pair
  # table1's golden is the binary's full stdout (method matrix +
  # establishment outcomes), which pins the same simulations at the
  # application level.
  echo "--- table1: $BIN/table1_matrix (stdout snapshot)"
  "$BIN/table1_matrix" > "$FRESH/table1.trace"

  local fail=0 t
  for t in fig9_quick mux_pair table1; do
    if [ "$BLESS" = 1 ]; then
      if cmp -s "$GOLD/$t.trace" "$FRESH/$t.trace"; then
        echo "bless $t: unchanged"
        continue
      fi
      # Size the re-bless in the log: each changed run's counters, old ->
      # new, as the digest holds them (a stdout snapshot has none and
      # shows as changed lines).
      echo "bless $t: $GOLD/$t.trace overwritten"
      [ -f "$GOLD/$t.trace" ] && awk '
        NR == FNR { old[FNR] = $0; next }
        $0 != old[FNR] && /^run=/ {
          o = old[FNR]; n = $0
          sub(/ hash=.*/, "", o); sub(/ hash=.*/, "", n); sub(/^run=[0-9]+ /, "", n)
          print "  " o "\n" (o == $1 " " n ? "    -> unchanged (hash only)" : "    -> " n)
        }
        $0 != old[FNR] && !/^run=|^total / { print "  line " FNR ": " old[FNR] " -> " $0 }
      ' "$GOLD/$t.trace" "$FRESH/$t.trace"
      cp "$FRESH/$t.trace" "$GOLD/$t.trace"
    elif ! cmp -s "$GOLD/$t.trace" "$FRESH/$t.trace"; then
      echo "GOLDEN TRACE DIFF: $t"
      diff "$GOLD/$t.trace" "$FRESH/$t.trace" | head -20 || true
      fail=1
    else
      echo "golden $t: identical"
    fi
  done
  if [ "$fail" = 1 ]; then
    echo "wire traces diverged from tests/golden/. If the change is intended,"
    echo "re-run './ci.sh --bless' and commit the updated snapshots."
    return 1
  fi
}

stage_bench() {
  ensure_build
  # Fresh quick runs land in their own dir under the baseline names, so
  # check_bench --all can pair them with the repo-root BENCH_*.json set
  # and fail (exit 2) on any bench missing from this stage.
  local QUICK="$FRESH/bench"
  rm -rf "$QUICK" && mkdir -p "$QUICK"
  local suite
  for suite in faults mux storm relaymesh adaptive; do
    "$BIN/bench_suite" $suite --quick --out "$QUICK/BENCH_$suite.json" > /dev/null
  done
  # Quick runs shorten the workload only, so structural gates hold; the
  # drift tolerance is loose. run_benches.sh applies the strict 20% gate on
  # full runs.
  "$BIN/check_bench" --all --fresh-dir "$QUICK" --tolerance 0.35
  # E6's level claim (sim clock, exact): exits non-zero unless level 1
  # beats plain TCP at 4 MB/s and every deeper level is slower.
  "$BIN/figures" crossover --levels > /dev/null
}

stage_faults() {
  local seed suite
  for seed in 0 7 13; do
    for suite in faults storm relay_mesh adaptive; do
      echo "--- NETGRID_TEST_SEED=$seed --test $suite"
      if ! NETGRID_TEST_SEED=$seed cargo test -q -p netgrid --test "$suite" --release; then
        echo "FAULT MATRIX FAILED: suite $suite under NETGRID_TEST_SEED=$seed"
        echo "replay with: NETGRID_TEST_SEED=$seed cargo test -p netgrid --test $suite"
        return 1
      fi
    done
  done
}

stage_test() {
  cargo test -q --workspace
  # The kernels' differential and boundary tests against release codegen.
  cargo test -q --release -p gridzip -p gridcrypt
  cargo test -q --release -p netgrid --test prop
  # CI machines have >= 2 cores, gridbench pins every rep to one: there a
  # granted thread runs only once its granter sleeps, a different
  # interleaving of the same handoff. First CPU of the allowed set.
  if command -v taskset > /dev/null; then
    local cpu
    cpu=$(taskset -cp $$ | sed 's/.*: *//; s/[,-].*//')
    echo "--- scheduler tests pinned to CPU $cpu"
    taskset -c "$cpu" cargo test -q --release -p gridsim-net
    taskset -c "$cpu" cargo test -q --release --test scheduler
    # The relay's reader -> shard worker -> client pump handoffs interleave
    # differently there too; the park counts must not.
    taskset -c "$cpu" cargo test -q --release --test relay --test relay_parks
  fi
}

SUMMARY=""
t_total=$SECONDS
for s in $STAGES; do
  echo "=== stage $s ==="
  t0=$SECONDS
  # In a subshell of its own, not as the left side of `||`: there bash
  # ignores `set -e` and a stage would report its last command only.
  set +e
  (set -e; "stage_$s")
  rc=$?
  set -e
  dt=$((SECONDS - t0))
  if [ "$rc" != 0 ]; then
    SUMMARY="$SUMMARY$(printf '  %-8s %5ss  FAILED' "$s" "$dt")\n"
    printf 'ci summary (wall clock):\n%b' "$SUMMARY"
    exit "$rc"
  fi
  SUMMARY="$SUMMARY$(printf '  %-8s %5ss  ok' "$s" "$dt")\n"
done
printf 'ci summary (wall clock):\n%b' "$SUMMARY"
printf '  %-8s %5ss\n' total $((SECONDS - t_total))
src_lines=$(find crates/*/src -name '*.rs' -not -path 'crates/bench/src/bin/*' -print0 | xargs -0 cat | wc -l)
echo "source size: $src_lines lines in crates/*/src outside bench/src/bin"
bins=(crates/bench/src/bin/*)
bench_lines=$(find crates/bench -name '*.rs' -print0 | xargs -0 cat | wc -l)
echo "bench: ${#bins[@]} bins / $bench_lines lines in crates/bench (src + bins)"
vendor_lines=$(find vendor -name '*.rs' -print0 | xargs -0 cat | wc -l)
echo "vendor: $vendor_lines lines in vendor/"
echo "ci: all stages passed"
