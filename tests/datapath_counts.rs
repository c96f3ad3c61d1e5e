//! Tier-1 gate on the block data path's counts: what the sending host's
//! TCP emits and copies for a fixed transfer, and what each layer
//! allocates per 32 KiB block. The simulation decides the first two, so
//! they are asserted exactly and hold on any host, in debug and release;
//! a sender that re-fragments or re-copies, or a pool that stops
//! recycling, fails here (EXPERIMENTS.md, PR 23, has both seen to). Nothing is timed: what a layer costs on the host
//! clock is gridbench's `layers` pass to say (EXPERIMENTS.md "Micro-
//! benchmarks" maps each old `BENCH_datapath.json` row to its successor).
//!
//! Scenarios:
//!   * `sched/*`             — the scheduler alone: one slice per block
//!   * `tcb/transfer`        — raw Tcb<->Tcb pump, app writes via `&[u8]`
//!   * `e2e/tcp_block_plain` — full sim, plain TCP_Block stack
//!   * `e2e/stripe4`         — full sim, 4 parallel streams
//!   * `e2e/gtls`            — full sim, plain stack under GTLS
//!   * `stage/*`             — a driver-stack stage alone over a null sink

use bytes::Bytes;
use gridsim_net::{Ip, NodeId, Sim, SimQueue, SimTime, SockAddr};
use gridsim_tcp::tcb::{ReadOutcome, Tcb, WriteOutcome};
use gridsim_tcp::TcpConfig;
use netgrid::drivers::{BlockWrite, BlockWriter, StripeWriter};
use netgrid::{BlockPool, CpuModel, CpuRates, HostCpu, StackSpec};
use netgrid_bench::{measure_bandwidth, BwRun, Wan};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call goes to `System` with the caller's arguments
// unchanged; the counter is a statistic and guards nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The stack's aggregation block: the unit every row is counted in.
const BLOCK: usize = 32 * 1024;

/// Run `scenario` over `bytes` of payload and hold its allocations per
/// block to `recorded` (the last `BENCH_datapath.json`) plus a half: room
/// for the one allocation per spawned thread that libtest's output capture
/// adds (0.25 per block on the e2e rows), none for a per-block `Box` coming
/// back (+1 on any row) or a pool that stopped recycling (+0.49 on
/// `stage/gridzip`, whose output is what draws pooled blocks).
fn allocs_within<T>(row: &str, bytes: usize, recorded: f64, scenario: impl FnOnce() -> T) -> T {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = scenario();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let per_block = allocs as f64 / (bytes / BLOCK) as f64;
    assert!(
        per_block <= recorded + 0.5,
        "{row}: {allocs} allocations, {per_block:.1} per block against {recorded} recorded"
    );
    out
}

const T0: SimTime = SimTime(0);

/// Raw TCB data path: app bytes in, segments across, app bytes out.
fn tcb_transfer(total: usize) {
    let cfg = TcpConfig {
        send_buf: 256 * 1024,
        recv_buf: 256 * 1024,
        nodelay: true,
        ..TcpConfig::default()
    };
    let la = SockAddr::new(Ip::new(1, 0, 0, 1), 1000);
    let ra = SockAddr::new(Ip::new(2, 0, 0, 1), 2000);
    let mut a = Tcb::client(cfg, la, ra, 1, T0);
    let syn = a.take_out().remove(0);
    let mut b = Tcb::server(cfg, ra, la, 2, &syn, T0);
    let chunk = vec![0xABu8; 64 * 1024];
    let mut sink = vec![0u8; 64 * 1024];
    let (mut sent, mut rcvd) = (0usize, 0usize);
    while rcvd < total {
        if a.is_established() && sent < total {
            let want = chunk.len().min(total - sent);
            if let WriteOutcome::Wrote(n) = a.try_write(T0, &chunk[..want]).unwrap() {
                sent += n;
            }
        }
        for s in a.take_out() {
            b.on_segment(T0, s);
        }
        for s in b.take_out() {
            a.on_segment(T0, s);
        }
        while let ReadOutcome::Read(n) = b.try_read(T0, &mut sink).unwrap() {
            rcvd += n;
        }
    }
    assert_eq!(rcvd, total);
}

/// Slices per `sched/*` run; each stands for one block changing hands.
const SCHED_SLICES: usize = 65_536;

/// One task yielding to itself: every slice is a trip through the scheduler
/// loop that ends where it began, with no thread switch.
fn sched_yield_self() {
    let sim = Sim::new(3);
    sim.spawn("yielder", || {
        for _ in 0..SCHED_SLICES {
            gridsim_net::ctx::yield_now();
        }
    });
    sim.run();
}

/// Two tasks answering each other over a pair of one-slot queues: every
/// slice ends in a park and one grant, a stack switch.
fn sched_pingpong2() {
    let sim = Sim::new(3);
    let ping = SimQueue::<usize>::bounded(1);
    let pong = SimQueue::<usize>::bounded(1);
    let (ping2, pong2) = (ping.clone(), pong.clone());
    sim.spawn("echo", move || {
        while let Some(v) = ping2.pop() {
            pong2.push(v).unwrap();
        }
    });
    sim.spawn("client", move || {
        for i in 0..SCHED_SLICES / 2 {
            ping.push(i).unwrap();
            assert_eq!(pong.pop(), Some(i));
        }
        ping.close();
    });
    sim.run();
}

const E2E_MSG: usize = 256 * 1024;
const E2E_MSGS: usize = 32;

/// Full-stack run over a fat low-latency link with free CPU and 1 MiB
/// windows; returns the sending host's (segments sent, bytes copied) when
/// the receiver took the last message.
fn e2e_run(spec: StackSpec) -> (u64, u64) {
    let wan = Wan {
        name: "bench-lan",
        capacity: 1e9,
        rtt: Duration::from_millis(2),
        loss: 0.0,
        queue: 8 << 20,
    };
    let mut run = BwRun::new(wan, spec, E2E_MSG);
    run.total_bytes = E2E_MSG * E2E_MSGS;
    run.rates = CpuRates::unlimited();
    run.window = 1 << 20;
    let point = measure_bandwidth(&run);
    (point.segs_sent, point.bytes_copied)
}

/// Discarding sink: the stage rows count framing, pool and slicing, not a
/// capture buffer.
struct NullSink;

impl Write for NullSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}
impl BlockWrite for NullSink {}

/// Run `stage` as the one task of a simulation of its own.
fn in_sim(stage: impl FnOnce() + Send + 'static) {
    let sim = Sim::new(3);
    sim.spawn("stage", stage);
    sim.run();
}

fn write_all_blocks(mut w: impl BlockWrite, blocks: &[Bytes]) {
    for b in blocks {
        w.write_block(b.clone()).unwrap();
    }
    w.flush().unwrap();
}

/// Aggregation stage alone: pooled blocks through `BlockWriter` framing.
fn stage_agg(blocks: Vec<Bytes>) {
    in_sim(move || write_all_blocks(BlockWriter::new(NullSink, BlockPool::new(BLOCK)), &blocks));
}

/// Striping stage alone: 4 per-stream writer tasks splitting the run.
fn stage_stripe4(blocks: Vec<Bytes>) {
    in_sim(move || {
        let cpu = HostCpu::new(CpuModel::new(), NodeId(0), CpuRates::unlimited());
        let streams: Vec<Box<dyn BlockWrite + Send>> =
            (0..4).map(|_| Box::new(NullSink) as _).collect();
        let copy_rate = cpu.rates.copy;
        let w = StripeWriter::with_pool(
            streams,
            BlockPool::new(BLOCK),
            cpu,
            copy_rate,
            &gridsim_net::ctx::handle(),
        );
        write_all_blocks(w, &blocks);
        gridsim_net::ctx::sleep(Duration::from_millis(1));
    });
}

/// Compression stage alone: level-1 LZSS over aggregation framing.
fn stage_gridzip(blocks: Vec<Bytes>) {
    in_sim(move || {
        let agg = BlockWriter::new(NullSink, BlockPool::new(BLOCK));
        write_all_blocks(
            gridzip::CompressWriter::with_block_size(agg, 1, BLOCK),
            &blocks,
        )
    });
}

/// One `#[test]`: the allocation counter is process-wide, so it must see
/// one scenario at a time.
#[test]
fn datapath_counts_are_the_recorded_ones() {
    let sched_bytes = SCHED_SLICES * BLOCK;
    allocs_within("sched/yield_self", sched_bytes, 0.0, sched_yield_self);
    allocs_within("sched/pingpong2", sched_bytes, 0.0, sched_pingpong2);

    let tcb_bytes = 16 << 20;
    allocs_within("tcb/transfer", tcb_bytes, 6.0, || tcb_transfer(tcb_bytes));

    // The totals behind `segs_per_block` 23.88 / `copied_per_block` 190.4
    // (plain) and 24.05 / 1536.2 (stripe4) over the run's 256 blocks. More
    // segments: the sender fragments what it used to send whole (under
    // striping, flushing the message header ahead of its payload does it).
    // More bytes copied: a payload is being carved by memcpy, not by
    // refcount.
    let e2e_bytes = E2E_MSG * E2E_MSGS;
    let plain = allocs_within("e2e/tcp_block_plain", e2e_bytes, 8.3, || {
        e2e_run(StackSpec::plain())
    });
    assert_eq!(
        plain,
        (6114, 48749),
        "e2e/tcp_block_plain (segs_sent, bytes_copied)"
    );
    let stripe4 = allocs_within("e2e/stripe4", e2e_bytes, 13.2, || {
        e2e_run(StackSpec::plain().with_streams(4))
    });
    assert_eq!(
        stripe4,
        (6157, 393258),
        "e2e/stripe4 (segs_sent, bytes_copied)"
    );
    // Every GTLS record crosses the scalar `write_some` / `read_some` path.
    // A write is one copy of the record, written as one block: it enters
    // the send queue as one chunk that refills grow in place, so few
    // carves straddle chunks. More bytes copied: a record is being queued
    // as a copied head plus a separately staged tail again.
    let gtls = allocs_within("e2e/gtls", e2e_bytes, 57.6, || {
        e2e_run(StackSpec::plain().with_security())
    });
    assert_eq!(gtls, (6136, 9991986), "e2e/gtls (segs_sent, bytes_copied)");

    // Compressible grid payload, cut into pooled blocks outside the counted
    // region: a stage's allocations are its own.
    let stage_bytes = 8 << 20;
    let data = gridzip::synth::grid_payload(stage_bytes, gridzip::synth::GRID_REDUNDANCY, 11);
    let pool = BlockPool::new(BLOCK);
    let blocks: Vec<Bytes> = data
        .chunks(BLOCK)
        .map(|c| {
            let mut b = pool.checkout();
            b.extend_from_slice(c);
            b.freeze()
        })
        .collect();
    type Stage = fn(Vec<Bytes>);
    let stages: [(&str, f64, Stage); 3] = [
        ("stage/agg", 0.1, stage_agg),
        ("stage/stripe4", 0.2, stage_stripe4),
        ("stage/gridzip", 0.6, stage_gridzip),
    ];
    for (row, recorded, stage) in stages {
        let blocks = blocks.clone();
        allocs_within(row, stage_bytes, recorded, || stage(blocks));
    }
}
