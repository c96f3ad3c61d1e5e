//! Host-side throughput of the block data path (not a paper figure).
//!
//! Unlike the figure/table binaries — which report *simulated* bandwidth —
//! this bench measures the **host wall-clock** cost of pushing blocks
//! through the driver stack and the simulated TCP: blocks/sec and
//! allocations/block, and on the e2e rows the sender's TCP segments/block
//! and bytes copied/block (simulation-determined, so a re-fragmenting or
//! re-copying sender fails the gate on any host). It is the regression
//! harness for the zero-copy block pipeline; results land in
//! `BENCH_datapath.json`.
//!
//! Scenarios:
//!   * `sched/*`             — the scheduler alone (layer L0): one slice per
//!     32 KiB block, so `blocks_per_sec` is slices per second
//!   * `tcb/transfer`        — raw Tcb<->Tcb pump, app writes via `&[u8]`
//!   * `e2e/tcp_block_plain` — full sim, plain TCP_Block stack (headline)
//!   * `e2e/stripe4`         — full sim, 4 parallel streams
//!   * `stage/*`             — each driver-stack stage in isolation (null
//!     sink, no transport): where inside the stack a regression lives
//!
//! Simulated time is pinned by the figure binaries (byte-identical traces);
//! this harness only watches the host-side cost of producing them.

use bytes::Bytes;
use criterion::{Criterion, Throughput};
use gridsim_net::SimTime;
use gridsim_tcp::tcb::{ReadOutcome, Tcb, WriteOutcome};
use gridsim_tcp::TcpConfig;
use netgrid::drivers::{BlockWrite, BlockWriter, StripeWriter};
use netgrid::{BlockPool, CpuModel, CpuRates, HostCpu, StackSpec};
use netgrid_bench::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Counting allocator: allocations/block is the pool's success metric.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

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

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

const T0: SimTime = SimTime(0);

fn la() -> gridsim_net::SockAddr {
    gridsim_net::SockAddr::new(gridsim_net::Ip::new(1, 0, 0, 1), 1000)
}
fn ra() -> gridsim_net::SockAddr {
    gridsim_net::SockAddr::new(gridsim_net::Ip::new(2, 0, 0, 1), 2000)
}

fn pump(a: &mut Tcb, b: &mut Tcb) {
    loop {
        let out_a = a.take_out();
        let out_b = b.take_out();
        if out_a.is_empty() && out_b.is_empty() {
            break;
        }
        for s in out_a {
            b.on_segment(T0, s);
        }
        for s in out_b {
            a.on_segment(T0, s);
        }
    }
}

/// Raw TCB data path: app bytes in, segments across, app bytes out.
fn tcb_transfer(total: usize) -> usize {
    let cfg = TcpConfig {
        send_buf: 256 * 1024,
        recv_buf: 256 * 1024,
        nodelay: true,
        ..TcpConfig::default()
    };
    let mut a = Tcb::client(cfg, la(), ra(), 1, T0);
    let syn = a.take_out().remove(0);
    let mut b = Tcb::server(cfg, ra(), la(), 2, &syn, T0);
    pump(&mut a, &mut b);
    assert!(a.is_established() && b.is_established());
    let chunk = vec![0xABu8; 64 * 1024];
    let mut sink = vec![0u8; 64 * 1024];
    let (mut sent, mut rcvd) = (0usize, 0usize);
    while rcvd < total {
        if sent < total {
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
    rcvd
}

/// Slices per `sched/*` run; each stands for one 32 KiB block changing hands.
const SCHED_SLICES: usize = 65_536;

/// One task yielding to itself: every slice is a trip through the scheduler
/// loop that ends where it began, with no thread switch.
fn sched_yield_self() {
    let sim = gridsim_net::Sim::new(3);
    sim.spawn("yielder", || {
        for _ in 0..SCHED_SLICES {
            gridsim_net::ctx::yield_now();
        }
    });
    sim.run();
}

/// Two tasks answering each other over a pair of one-slot queues: every
/// slice ends in a park and one cross-thread grant.
fn sched_pingpong2() {
    let sim = gridsim_net::Sim::new(3);
    let ping = gridsim_net::SimQueue::<usize>::bounded(1);
    let pong = gridsim_net::SimQueue::<usize>::bounded(1);
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

/// Full-stack run over a fat low-latency link with free CPU: host time is
/// dominated by the data path, not the simulated WAN.
fn e2e_run(spec: &StackSpec, msg_size: usize, n_msgs: usize) -> BwPoint {
    let wan = Wan {
        name: "bench-lan",
        capacity: 1e9,
        rtt: Duration::from_millis(2),
        loss: 0.0,
        queue: 8 << 20,
    };
    let mut run = BwRun::new(wan, spec.clone(), msg_size);
    run.total_bytes = msg_size * n_msgs;
    run.rates = netgrid::CpuRates::unlimited();
    run.window = 1 << 20;
    let point = measure_bandwidth(&run);
    assert!(point.bandwidth > 0.0);
    point
}

// ----------------------------------------------------- per-stage benches

/// Discarding sink: stage benches measure framing/pool/slicing cost, not
/// the memcpy into a capture buffer.
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

/// Stage unit: the stack's aggregation block.
const STAGE_BLOCK: usize = 32 * 1024;

/// Cut a payload into pooled full-size blocks once; runs clone the handles
/// (refcount, alloc-free), so per-iteration allocations belong to the
/// stage under test.
fn stage_blocks(data: &[u8], pool: &BlockPool) -> Vec<Bytes> {
    data.chunks(STAGE_BLOCK)
        .map(|c| {
            let mut b = pool.checkout();
            b.extend_from_slice(c);
            b.freeze()
        })
        .collect()
}

/// Aggregation stage alone: pooled blocks through `BlockWriter` framing.
fn stage_agg(blocks: &[Bytes]) {
    let sim = gridsim_net::Sim::new(3);
    let blocks = blocks.to_vec();
    sim.spawn("agg", move || {
        let mut w = BlockWriter::new(NullSink, BlockPool::new(STAGE_BLOCK));
        for b in &blocks {
            w.write_block(b.clone()).unwrap();
        }
        w.flush().unwrap();
    });
    sim.run();
}

/// Striping stage alone: 4 per-stream daemons splitting the run.
fn stage_stripe4(blocks: &[Bytes]) {
    let sim = gridsim_net::Sim::new(3);
    let blocks = blocks.to_vec();
    sim.spawn("stripe", move || {
        let cpu = HostCpu::new(
            CpuModel::new(),
            gridsim_net::NodeId(0),
            CpuRates::unlimited(),
        );
        let streams: Vec<Box<dyn BlockWrite + Send>> =
            (0..4).map(|_| Box::new(NullSink) as _).collect();
        let copy_rate = cpu.rates.copy;
        let mut w = StripeWriter::with_pool(
            streams,
            BlockPool::new(STAGE_BLOCK),
            cpu,
            copy_rate,
            &gridsim_net::ctx::handle(),
        );
        for b in &blocks {
            w.write_block(b.clone()).unwrap();
        }
        w.flush().unwrap();
        drop(w);
        gridsim_net::ctx::sleep(Duration::from_millis(1));
    });
    sim.run();
}

/// Compression stage alone: LZSS over aggregation framing.
fn stage_gridzip(blocks: &[Bytes]) {
    let sim = gridsim_net::Sim::new(3);
    let blocks = blocks.to_vec();
    sim.spawn("zip", move || {
        let agg = BlockWriter::new(NullSink, BlockPool::new(STAGE_BLOCK));
        let mut w = gridzip::CompressWriter::with_block_size(agg, 1, STAGE_BLOCK);
        for b in &blocks {
            w.write_block(b.clone()).unwrap();
        }
        w.flush().unwrap();
    });
    sim.run();
}

/// Record-seal stage alone: the AEAD cost GTLS pays per block.
fn stage_crypt(blocks: &[Bytes]) {
    let key = [7u8; gridcrypt::aead::KEY_LEN];
    let mut nonce = [0u8; 12];
    let mut buf = vec![0u8; STAGE_BLOCK];
    for (i, b) in blocks.iter().enumerate() {
        buf[..b.len()].copy_from_slice(b);
        nonce[..8].copy_from_slice(&(i as u64).to_le_bytes());
        let tag = gridcrypt::seal_in_place(&key, &nonce, &[], &mut buf[..b.len()]);
        std::hint::black_box(tag);
    }
}

struct Entry {
    id: String,
    median_ns: f64,
    bytes: u64,
    allocs_per_run: u64,
    /// e2e rows: (segments sent, bytes copied) by the sending host's TCP —
    /// simulation-determined, so `check_bench` gates them exactly.
    tcp: Option<(u64, u64)>,
}

/// Time `run` as row `group/name` for `secs` of measurement over `bytes` of
/// payload, then run it once more under the allocation counter; what that
/// last run returns is the row's TCP (segments, bytes copied), if any.
fn bench_row(
    c: &mut Criterion,
    entries: &mut Vec<Entry>,
    (group, name, secs, bytes): (&str, &str, u64, u64),
    mut run: impl FnMut() -> Option<(u64, u64)>,
) {
    let mut g = c.benchmark_group(group);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(secs));
    g.sample_size(10);
    g.throughput(Throughput::Bytes(bytes));
    g.bench_function(name, |b| b.iter(&mut run));
    g.finish();
    let a0 = allocs();
    let tcp = run();
    let allocs_per_run = allocs() - a0;
    let r = c.results().last().unwrap();
    entries.push(Entry {
        id: r.id.clone(),
        median_ns: r.median_ns,
        bytes,
        allocs_per_run,
        tcp,
    });
}

fn main() {
    let cli = Cli::from_env();
    let quick = cli.quick();
    let mut c = Criterion::default();
    let mut entries: Vec<Entry> = Vec::new();

    // Scale: big enough to dominate setup cost, small enough to iterate.
    // Quick mode shortens measurement *time* only — per-run work is
    // identical, so quick medians stay comparable to committed baselines.
    let tcb_bytes = 16usize << 20;
    let e2e_msg = 256 * 1024;
    let e2e_msgs = 32;
    let e2e_bytes = (e2e_msg * e2e_msgs) as u64;

    let secs = |quick_secs, full_secs| if quick { quick_secs } else { full_secs };

    let sched_bytes = (SCHED_SLICES * STAGE_BLOCK) as u64;
    let scheds: [(&str, fn()); 2] = [
        ("yield_self", sched_yield_self),
        ("pingpong2", sched_pingpong2),
    ];
    for (name, run) in scheds {
        let row = ("sched", name, secs(1, 3), sched_bytes);
        bench_row(&mut c, &mut entries, row, || {
            run();
            None
        });
    }

    let row = ("tcb", "transfer", secs(1, 3), tcb_bytes as u64);
    bench_row(&mut c, &mut entries, row, || {
        std::hint::black_box(tcb_transfer(tcb_bytes));
        None
    });

    for (name, spec) in [
        ("tcp_block_plain", StackSpec::plain()),
        ("stripe4", StackSpec::plain().with_streams(4)),
    ] {
        let row = ("e2e", name, secs(2, 6), e2e_bytes);
        bench_row(&mut c, &mut entries, row, || {
            let point = e2e_run(&spec, e2e_msg, e2e_msgs);
            Some((point.segs_sent, point.bytes_copied))
        });
    }

    // Per-stage breakdown: the same run through each stack stage in
    // isolation. Compressible grid payload so gridzip does real work;
    // every stage sees identical input blocks.
    {
        let stage_bytes = 8usize << 20;
        let data = gridzip::synth::grid_payload(stage_bytes, gridzip::synth::GRID_REDUNDANCY, 11);
        let pool = BlockPool::new(STAGE_BLOCK);
        let blocks = stage_blocks(&data, &pool);
        type StageFn = fn(&[Bytes]);
        let stages: [(&str, StageFn); 4] = [
            ("agg", stage_agg),
            ("stripe4", stage_stripe4),
            ("gridzip", stage_gridzip),
            ("crypt", stage_crypt),
        ];
        for (name, run) in stages {
            let row = ("stage", name, secs(1, 3), stage_bytes as u64);
            bench_row(&mut c, &mut entries, row, || {
                run(&blocks);
                None
            });
        }
    }

    // BENCH_datapath.json: one object per scenario. blocks/sec uses the
    // stack's 32 KiB aggregation block as the unit.
    let block = 32 * 1024u64;
    let rows: Vec<JsonRow> = entries
        .iter()
        .map(|e| {
            let bps = e.bytes as f64 / (e.median_ns * 1e-9);
            let n_blocks = (e.bytes / block) as f64;
            let row = JsonRow::default()
                .text("id", &e.id)
                .num("median_ns", format_args!("{:.0}", e.median_ns))
                .num("bytes", e.bytes)
                .num("mb_per_sec", format_args!("{:.2}", bps / 1e6))
                .num("blocks_per_sec", format_args!("{:.0}", bps / block as f64))
                .num("allocs_per_run", e.allocs_per_run)
                .num(
                    "allocs_per_block",
                    format_args!("{:.1}", e.allocs_per_run as f64 / n_blocks),
                );
            match e.tcp {
                None => row,
                Some((segs, copied)) => row
                    .num(
                        "segs_per_block",
                        format_args!("{:.2}", segs as f64 / n_blocks),
                    )
                    .num(
                        "copied_per_block",
                        format_args!("{:.1}", copied as f64 / n_blocks),
                    ),
            }
        })
        .collect();
    print!("{}", write_json(&cli.out("BENCH_datapath.json"), &rows));
}
