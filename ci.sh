#!/bin/bash
# Repo gate, organized as named stages:
#
#   fmt     cargo fmt --check
#   clippy  cargo clippy --workspace --all-targets -D warnings, then the
#           repository's own rules: no `Instant::now` / `SystemTime` in
#           crates/, src/, tests/ or examples/ — host time is gridbench's to
#           read — no `std::env::var` in the five product crates' src, no
#           link-frame field coded outside crates/core/src/wire/, no
#           control frame parsed or opcode named outside it either, no
#           request table, reply stash or redial loop outside link.rs, no
#           second way to wait on a simulated socket in simtcp (each is
#           its poll under `ctx::park_io`; sock.rs parks nowhere else), no
#           second read or write path (a blocking read or write is a poll
#           plus one park, `ctx::park_io`, which blockio.rs calls only in
#           BlockWrite::write_block, BlockRead::read_chunks_min,
#           BlockWriter's passthrough and Parked, and a raw frame has
#           one decoder; the retired twins' names),
#           every stream polled, reading and writing (no `pollable` in
#           crates/*/src, no `ctx::blocking` nor a blocking `consume(` in
#           blockio.rs, and no daemon in the drivers), one
#           GTLS handshake path (no `map_inner` or `gtls-hs` in
#           crates/*/src, no task spawned in drivers/mod.rs), no timer
#           named in simtcp's host stack, no second single-flight beside a
#           data link's write gate, no exactly-once bookkeeping
#           outside resume.rs (the retired watermark twins' names), no
#           probe field or accessor beside
#           the world's metrics registry, no second event queue beside
#           the scheduler's (nor a lock around its hooks or clock), no
#           Fig-4 method's internals named in node.rs (they live in
#           crates/core/src/establish/), no poll loop that sleeps
#           (`wait_until`) in crates/core/src, no fire-and-forget
#           `call_at` in crates/core/src outside tests (a deadline is a
#           `Timer` owned by the record it guards, cancelled with it, so
#           it never asks whether it still applies), no OS thread started in
#           simnet, simtcp or core outside the scheduler's workers
#           (runtime.rs), and no task that takes a worker before its
#           first blocking poll (`start_thread` called from `drive`
#           alone, no `Job::Body` or `type Body`); no blocking
#           `.accept()` in core outside tests (an accept loop awaits
#           `poll_accept`); every worker core takes on the allow-list: each
#           `spawn_daemon` and blocking section (`ctx::blocking`,
#           `blocking(`) in non-test crates/core/src is a listed (file fn)
#           site — the path controller and rpc's tasks — and each listed
#           site exists, so the list only shrinks; SOCKS's messages are
#           decoded from bytes read whole (no `impl Read` in
#           wire/socks.rs); every frame has one path: no `send_inline` fork
#           in core, no `inline` parameter on a `fn dispatch`, no
#           `parks()` in relay/client.rs and no `exit_parks` in port.rs;
#           one writer per relay connection, its shard's worker (no
#           `SimMutex` or `poll_lock` in relay/server.rs); no hand-written
#           inline step in core (`spawn_steps`, `Next<`, `spawn_inline`,
#           `Step::`), the receive pump an async body that only
#           `add_link` starts, with no `ctx::park` in port.rs; and no
#           `unsafe` in a product crate's non-test code outside
#           crates/simnet/src/sync.rs, nor an OS mutex back around the
#           scheduler's state or the world (the baton is their lock)
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
#           command is printed on failure); then the exactly-once
#           machine's exhaustive checker (crates/core/src/resume.rs) over
#           its wider scopes, in release, printing each scope's state
#           count (libtest prints the wall time).
#   test    full workspace test suite (debug, as tier 1's `cargo test -q`
#           is; the baton cells' ownership checks run in every build);
#           the gridzip and gridcrypt suites again in release, where
#           the vectorised ChaCha20 pass and the bounds-check-free
#           matcher loops actually exist, and the wire-codec
#           properties (core's prop.rs) with them, where arithmetic on
#           a peer's lengths wraps instead of panicking; then,
#           where `taskset` exists, the scheduler's own tests and the root
#           scheduler, relay and relay park-count smokes again on one CPU,
#           the regime gridbench measures; with them the connection storm
#           and E10's establishment budget, whose ticketed name-service
#           replies interleave differently when pinned, and simtcp and GTLS
#           over it, whose staged socket waits do too.
#
# `./ci.sh` runs everything in the order above (golden and bench build
# the release workspace first). `./ci.sh --stage bench` runs one stage;
# repeat or comma-separate to pick several (`--stage fmt,clippy`);
# `./ci.sh --stage list` prints the stage names and exits.
# Every run ends with a per-stage wall-clock summary and the sizes
# ROADMAP tracks: lines in crates/*/src outside bench/src/bin (all of
# them, and the non-test ones above each file's first top-level
# `#[cfg(test)]`), the bench bins' count, crates/bench as a whole, and the
# vendored stand-ins.
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

# The functions of Rust file $2 whose bodies match the regex $1, one name
# per matching line, space-separated.
fns_calling() {
  awk -v pat="$1" '
    match($0, /fn [A-Za-z_0-9]+/) { f = substr($0, RSTART + 3, RLENGTH - 3) }
    $0 ~ pat { printf "%s%s", sep, f; sep = " " }
  ' "$2"
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
  # What a data link carries is wire/'s to encode and decode: the port
  # pump, the session layer and the node call its codec (the varints in
  # port.rs are the application's own, in ReadMessage / WriteMessage).
  if grep -nE 'read_varint|varint::put_slice|RESUME_FLAG|mux::' crates/core/src/{port,session,node}.rs; then
    echo "data-link field coded outside wire/ (lines above); use its codec"
    return 1
  fi
  # Which sequence numbers are delivered, acknowledged and retained is
  # resume.rs's (DESIGN.md §7a): the session layer, the pump and recovery
  # call its machines and keep no watermark of their own.
  if grep -nE 'AckCell|ack_cells|wire_seq|advance_wire|prepare_replay|fn prune|fetch_max' \
    crates/core/src/{port,session,node}.rs; then
    echo "exactly-once bookkeeping outside resume.rs (lines above); call TxChannel / RxChannel"
    return 1
  fi
  # So is every control protocol (relay, envelope, name service, node
  # service, rpc, SOCKS): one enum each, decoded whole; handlers match on
  # its values and name no opcode, reply flag or SOCKS constant.
  if grep -nE 'FrameReader::new|FrameWriter::new|relay_op|inner_op|mod op\b|svc::|const (VER|CMD_CONNECT|ATYP_V4|REP_)' \
    crates/core/src/relay/*.rs crates/core/src/{nameservice,node,port,rpc,socks,session}.rs; then
    echo "control frame parsed outside wire/; match on its codec's enum"
    return 1
  fi
  # How a service link is dialed, read, redialed and answered is link.rs's:
  # no second request table, reply stash or reconnect loop beside it.
  if grep -rnE 'struct Waiters|early:|fn redial|RECONNECT_' crates/core/src --exclude=link.rs; then
    echo "link supervision outside link.rs (lines above); use ServiceLink / Pending / Backoff"
    return 1
  fi
  # A socket call waits one way: its demand staged on the TCB, serviced at
  # event time (`Tcb::write_staged` / `read_staged`). No per-ACK waker lists beside it.
  if grep -rnE 'read_wakers|write_wakers|LegacyPark' crates/simtcp/src; then
    echo "a second socket wait path in simtcp (lines above); stage on the TCB instead"
    return 1
  fi
  # ... and parks one way: its poll under `ctx::park_io`, which reports
  # the would-block an inline caller sees as one park. No loop of its own.
  if [ -n "$(fns_calling 'ctx::park\(' crates/simtcp/src/sock.rs)" ]; then
    echo "sock.rs parks outside ctx::park_io: $(fns_calling 'ctx::park\(' crates/simtcp/src/sock.rs)"
    return 1
  fi
  # A source is read and a sink written one way (DESIGN.md §5b): through
  # its poll, blocking as that poll plus one park (`ctx::park_io`) — in the
  # traits' read_chunks_min and write_block, BlockWriter's passthrough or
  # the Parked top of a stack — and a raw frame through one decoder,
  # BlockReader::frame. No twin of either comes back, nor simtcp's scalar
  # staging beside its block path.
  if grep -rnE 'read_frame_within|fn polling|read_some_staged|write_some_staged|collect_read_some|write_all_blocking' crates/*/src; then
    echo "a second read path (lines above); poll, and block through BlockRead::read_chunks_min / ctx::park_io"
    return 1
  fi
  local blockio_parks
  blockio_parks="$(fns_calling 'ctx::park(_io)?\(' crates/core/src/drivers/blockio.rs)"
  if [ "$blockio_parks" != "write_block read_chunks_min write write flush" ]; then
    echo "blockio.rs parks outside BlockWrite::write_block / BlockRead::read_chunks_min /"
    echo "  BlockWriter::write / Parked: $blockio_parks"
    return 1
  fi
  # Every stream polls, reading and writing (DESIGN.md §5b): no source
  # says whether it can be, no stack is read in a blocking section or
  # charged by a blocking `consume` in blockio.rs, and no stream's reader
  # or writer holds a thread — the drivers start no daemon.
  local driver_daemons
  driver_daemons=$(for f in crates/core/src/drivers/*.rs; do fns_calling 'spawn_daemon\(' "$f"; echo; done | xargs)
  if grep -rn 'pollable' crates/*/src || grep -nE 'ctx::blocking|\bconsume\(' crates/core/src/drivers/blockio.rs \
    || [ -n "$driver_daemons" ]; then
    echo "a stream layer that cannot be polled (lines above), or a daemon in the drivers: [$driver_daemons]"
    return 1
  fi
  # A GTLS handshake resumes like its records (DESIGN.md §5b): it is
  # state in the SecureStream, polled over the link that does not park, so
  # no blocking twin of the link wraps it for the handshake and no stream
  # is moved across after it; and every stream count runs its handshakes
  # in the task that assembles the stack, so drivers/mod.rs starts no task.
  if grep -rnE 'map_inner|gtls-hs' crates/*/src \
    || grep -nE '\bspawn(_daemon|_async)?\(' crates/core/src/drivers/mod.rs; then
    echo "a second handshake path or a task per handshake (lines above); poll SecureStream::poll_handshake in secure_wires"
    return 1
  fi
  # The receive pump is one async body (DESIGN.md §6a), started in
  # `add_link` alone (`AckSender::send`'s task is the CACK's, an async body
  # too), and nothing in port.rs parks: what waits is awaited.
  if [ "$(fns_calling 'spawn_(daemon|async)\(' crates/core/src/port.rs)" != "send add_link" ] \
    || [ -n "$(fns_calling 'ctx::park\(' crates/core/src/port.rs)" ]; then
    echo "port.rs starts a task outside AckSender::send / add_link, or parks:"
    echo "  spawns in: $(fns_calling 'spawn_(daemon|async)\(' crates/core/src/port.rs)"
    echo "  parks in: $(fns_calling 'ctx::park\(' crates/core/src/port.rs)"
    return 1
  fi
  # Which timers a connection has and what each one does is the TCB's: the
  # host stack schedules the events Tcb::timer_events asks for and hands
  # each back to Tcb::on_timer.
  if grep -nE 'rtx_timer|persist_timer|tw_timer|on_rto|on_persist|on_time_wait_expire|Timer::Rtx|Timer::Persist|Timer::TimeWait' crates/simtcp/src/stack.rs; then
    echo "the stack schedules timers it does not name (lines above); ask the Tcb instead"
    return 1
  fi
  # A data link's write gate orders its writes and is its recovery's single
  # flight (GridNode::on_link): no round counter or waiter list beside it.
  if grep -rnE 'RecoveryCtl|RecoveryRole|begin_recovery|incarnation' crates/core/src; then
    echo "second single-flight beside the link gate (lines above); recover under the gate instead"
    return 1
  fi
  # A count is a name in the world's metrics registry (DESIGN.md §12),
  # not a field with its own accessor and forwarders.
  if grep -rnE 'fn establishment_walks|fn link_recoveries|fn walk_peak|fn park_stats|fn path_telemetry|WalkGauge|busy_throttles:|open_frames:|PATH_STATS_RING' crates/*/src; then
    echo "probe beside the metrics registry (lines above); count with SchedHandle::metric_add instead"
    return 1
  fi
  # Each Fig-4 method is one connector in establish/, beside its responder
  # half; node.rs only walks them. A wait with a deadline parks on its
  # condition plus one sim-time wake, never a sleep-and-look loop.
  if grep -nE 'splice_initiate|predict_endpoints|socks_connect|retry_addr_in_use|PendingSplice|SPLICE_PORT_BASE|fn try_method' crates/core/src/node.rs \
    || grep -rn 'wait_until' crates/core/src; then
    echo "a method's internals in node.rs, or a sleeping poll loop (lines above); use establish/'s connectors and a Timer wake"
    return 1
  fi
  # A deadline lives in the record it guards, as a Timer (SchedHandle::timer)
  # that dies with it: no fire-and-forget call_at that must look up whether
  # it still applies, nor one that fires after its wait is over.
  local calls
  calls=$(find crates/core/src -name '*.rs' -print0 \
    | xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } /call_at\(/ { print FILENAME ":" FNR ": " $0 }')
  if [ -n "$calls" ]; then
    echo "$calls"
    echo "a fire-and-forget call_at in core (lines above); keep a SchedHandle::timer in the record it guards"
    return 1
  fi
  # A packet in flight waits in its link's FIFO, and the scheduler holds
  # one event per busy link, the head's, in the place the packet took when
  # it was sent: no heap kept in step with the scheduler's, no slot table
  # beside the FIFOs, and hooks and the clock are read without a lock of
  # their own.
  if grep -nE 'BinaryHeap|PendingDelivery|in_flight|free_slots|push_delivery' \
    crates/simnet/src/world.rs crates/simnet/src/link.rs \
    || grep -nE 'hooks: Mutex|hooks\.lock|state\.lock\(\)\.now' crates/simnet/src/runtime.rs; then
    echo "a second event queue or slot table (lines above); a packet in flight lives in its link's FIFO, and the scheduler holds one entry per busy link"
    return 1
  fi
  # A task that needs a thread gets one of the scheduler's workers
  # (runtime.rs): no OS thread of its own in the product crates' non-test
  # code.
  local threads
  threads=$(find crates/{simnet,simtcp,core}/src -name '*.rs' ! -name runtime.rs -print0 \
    | xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } /thread::(spawn|Builder)/ { print FILENAME ":" FNR ": " $0 }')
  if [ -n "$threads" ]; then
    echo "$threads"
    echo "an OS thread started outside the scheduler's workers (lines above); spawn a task instead"
    return 1
  fi
  # The scheduler's state and the world are baton-owned cells (DESIGN.md
  # §6): their soundness argument lives in sync.rs, and no other product
  # code needs one; nor does an OS lock come back around either.
  local unsafes
  unsafes=$(find crates/{simnet,simtcp,gridzip,gridcrypt,core}/src -name '*.rs' ! -path crates/simnet/src/sync.rs -print0 \
    | xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } /(^|[^A-Za-z_])unsafe([^A-Za-z_]|$)/ { print FILENAME ":" FNR ": " $0 }')
  if [ -n "$unsafes" ] || grep -rnE 'Mutex<(World|SchedState)>' crates/ src/ tests/ examples/; then
    echo "$unsafes"
    echo "unsafe outside sync.rs, or an OS mutex around the scheduler's state or the world (lines above); borrow the BatonCell"
    return 1
  fi
  # Every task is a future (DESIGN.md §6a): a closure task is one blocking
  # section, which takes a worker when a poll in `drive` reaches it, never
  # at spawn, and no second job form comes back beside the future.
  if [ "$(fns_calling '(\.|::)start_thread\(' crates/simnet/src/runtime.rs)" != "drive" ] \
    || grep -nE 'Job::Body|type Body' crates/simnet/src/runtime.rs; then
    echo "a worker taken outside drive, or a closure job beside the future:" \
      "start_thread called in [$(fns_calling '(\.|::)start_thread\(' crates/simnet/src/runtime.rs)]"
    return 1
  fi
  # An accept loop waits on its listener alone, so it is an async task
  # awaiting `poll_accept` (link.rs's `next_conn`): no blocking accept in
  # core's non-test code.
  local accepts
  accepts=$(find crates/core/src -name '*.rs' -print0 \
    | xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } /\.accept\(\)/ { print FILENAME ":" FNR ": " $0 }')
  if [ -n "$accepts" ]; then
    echo "$accepts"
    echo "a blocking accept in core (lines above); await next_conn in an async task instead"
    return 1
  fi
  # What still takes a worker in core (DESIGN.md §6a): every `spawn_daemon`
  # and every blocking section (`ctx::blocking`, `blocking(`) in non-test
  # crates/core/src is one of these (file fn) sites. Every other task is an
  # async body over the polls that exist — the accept loops and acceptors,
  # the SOCKS handshake and tunnel, the service links' pumps and redials,
  # the service handlers and CACK senders, the relay and the name server,
  # the receive pump and its RECONFIG. A site not listed fails, and so does
  # a listed one that is gone: the list only shrinks with the code.
  local allowed sites
  allowed="crates/core/src/node.rs spawn_path_controller
crates/core/src/rpc.rs connect
crates/core/src/rpc.rs serve"
  sites=$(find crates/core/src -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { f = "" }
    /^#\[cfg\(test\)\]/ { nextfile }
    match($0, /fn [A-Za-z_0-9]+/) { f = substr($0, RSTART + 3, RLENGTH - 3) }
    $0 !~ /^ *\/\// && /spawn_daemon\(|(^|[^A-Za-z_])blocking\(/ { print FILENAME " " f }
  ' | LC_ALL=C sort -u)
  if [ "$sites" != "$allowed" ]; then
    diff <(echo "$allowed") <(echo "$sites") | grep '^[<>]' \
      | sed 's/^>/  not listed:/; s/^</  listed, gone:/'
    echo "a worker taken at a site the allow-list does not name, or a listed site gone (lines above);"
    echo "  await the poll instead, or take the gone site off the list"
    return 1
  fi
  # A SOCKS message is read whole by its async reader (socks.rs) and decoded
  # from those bytes: no blocking `Read` path beside it in the codec.
  if grep -n 'impl Read' crates/core/src/wire/socks.rs; then
    echo "a blocking SOCKS reader in the codec (lines above); decode the bytes socks.rs reads"
    return 1
  fi
  # Each frame has one path (DESIGN.md §6a): no inline twin of a relay
  # handler (`send_inline`), no `inline` fork of a service link's dispatch
  # nor a refusal to promote (`parks()` in relay/client.rs), and no
  # `exit_parks` section at the receive pump's end.
  local dispatch_inline
  dispatch_inline=$(find crates/core/src -name '*.rs' -print0 | xargs -0 awk '
    /fn dispatch/ { sig = 1; text = "" }
    sig { text = text $0 }
    sig && /[{;]/ { sig = 0; if (text ~ /[(,] *inline *:/) print FILENAME ":" FNR ": " text }
  ')
  if [ -n "$dispatch_inline" ] || grep -rn 'send_inline' crates/core/src \
    || grep -n 'parks()' crates/core/src/relay/client.rs || grep -n 'exit_parks' crates/core/src/port.rs; then
    echo "$dispatch_inline"
    echo "a second path per frame, forked on whether it may park (lines above); await the poll instead"
    return 1
  fi
  # A relay connection has one writer, its shard's worker (DESIGN.md
  # §10): whoever decides a BUSY, READY or NOPEER owes it to the worker's
  # control slot, so no writer lock comes back beside it.
  if grep -nE 'SimMutex|poll_lock' crates/core/src/relay/server.rs; then
    echo "a second writer on a relay connection; queue it to the shard's worker"
    return 1
  fi
  # A task that must not block is an async body: no hand-written step
  # (the retired spawn_steps / Next<S>, spawn_inline / Step) anywhere in
  # core, tests included.
  local steps
  steps=$(grep -rnE 'spawn_steps|Next<|spawn_inline|Step::' crates/core/src || true)
  if [ -n "$steps" ]; then
    echo "$steps"
    echo "a hand-written inline step in crates/core/src (lines above); spawn it with SchedHandle::spawn_async"
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
  echo "--- exactly-once checker, wider scopes (release)"
  cargo test -q --release -p netgrid --lib resume::tests::wider_scopes -- --ignored --nocapture
}

stage_test() {
  # A debug build, like tier 1's `cargo test -q`, so simtcp's debug_assert
  # invariants run; the baton cells' ownership checks run in every build.
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
    # So do the name-service link's pipelined replies: the storm's 16
    # concurrent walks must still overlap, and each method keep its
    # round-trip budget.
    taskset -c "$cpu" cargo test -q --release --test establish_budget
    taskset -c "$cpu" cargo test -q --release -p netgrid --test storm
    # A granted thread runs only after its granter sleeps, so a staged
    # socket pickup interleaves differently there.
    taskset -c "$cpu" cargo test -q --release -p gridsim-tcp
    taskset -c "$cpu" cargo test -q --release -p gridcrypt --test gtls_over_simtcp
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
src_files() { find crates/*/src -name '*.rs' -not -path 'crates/bench/src/bin/*' -print0; }
src_lines=$(src_files | xargs -0 cat | wc -l)
nontest_lines=$(src_files | xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n }' \
  | awk '{ n += $1 } END { print n }')
echo "source size: $src_lines lines in crates/*/src outside bench/src/bin, $nontest_lines of them non-test"
bins=(crates/bench/src/bin/*)
bench_lines=$(find crates/bench -name '*.rs' -print0 | xargs -0 cat | wc -l)
echo "bench: ${#bins[@]} bins / $bench_lines lines in crates/bench (src + bins)"
vendor_lines=$(find vendor -name '*.rs' -print0 | xargs -0 cat | wc -l)
echo "vendor: $vendor_lines lines in vendor/"
echo "ci: all stages passed"
