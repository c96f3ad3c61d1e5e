//! The paper's curves and the two-site experiments around them, one
//! subcommand each (EXPERIMENTS.md has paper-vs-measured for every one):
//!
//! * `fig9 [--loss P] [--quick]` — **E3, Figure 9**: bandwidth per method
//!   between Amsterdam and Rennes, the high-latency *low-bandwidth* WAN
//!   (1.6 MB/s, 30 ms). `--loss` varies the bottleneck loss rate (drives
//!   the plain-TCP gap, DESIGN.md §5); `--quick` runs fewer message sizes
//!   at 3 MiB per point instead of 48 MiB.
//! * `fig10 [--window-cap BYTES] [--block-size BYTES] [--quick]` — **E4,
//!   Figure 10**: Delft—Sophia, the high-latency *high-bandwidth* WAN
//!   (9 MB/s, 43 ms), where the 64 KiB OS window binds. `--window-cap`
//!   lifts the socket-buffer limit and watches one stream approach
//!   capacity; `--block-size` sets the striping unit.
//! * `crossover [--levels]` — **E6, §4.3/§6**: "compression could improve
//!   the bandwidth for networks with a capacity up to 6 MB/s; beyond this
//!   threshold, compression degrades the performance". `--levels` also
//!   sweeps every level at 4 MB/s and exits non-zero unless "only the
//!   first level of compression turned out to be useful" holds: level 1
//!   beats plain TCP and every deeper level is slower than the one before.
//! * `autotune [--quick]`, `adaptive` — **§8 future work**: every rung of
//!   the live `PathController`'s stripe / compression ladder measured
//!   offline and selected with the controller's own `tune::pick_best`;
//!   `adaptive` then runs the controller against that pick (DESIGN.md §11).
//! * `latency` — **E8, §6**: "With 4 parallel streams, the bandwidth
//!   reached 1.5 MB/s (93%), while the latency remained unchanged."
//! * `lan [--write-size BYTES] [--syscall-us MICROS]` — **E5, §4.1**:
//!   user-space aggregation with an explicit flush against per-write
//!   sends, and what Nagle's TCP_DELAY adds to a write-write-read.

use gridsim_net::{topology, Sim, SimTime};
use gridsim_tcp::SimHost;
use netgrid::drivers::{BlockWrite, BlockWriter};
use netgrid::tune::{pick_best, COMPRESSION_LADDER, STRIPE_LADDER};
use netgrid::{
    BlockPool, ConnectivityProfile, CpuRates, GridNode, PathControlConfig, PathParams, StackSpec,
};
use netgrid_bench::*;
use parking_lot::Mutex;
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

/// One figure's table: a row per message size, a `width`-wide column per
/// stack, each cell one `measure_bandwidth` point of `run(spec, size)`.
fn sweep_table(
    methods: &[(&str, StackSpec)],
    sizes: &[usize],
    width: usize,
    run: impl Fn(&StackSpec, usize) -> BwRun,
) {
    print!("{:>9} |", "msg size");
    for (name, _) in methods {
        print!(" {name:>width$} |");
    }
    println!();
    println!("{}", "-".repeat(11 + methods.len() * (width + 3)));
    let cell = width - 6;
    for &size in sizes {
        print!("{size:>9} |");
        for (_, spec) in methods {
            let p = measure_bandwidth(&run(spec, size));
            print!(" {:>cell$} MB/s |", fmt_mb(p.bandwidth));
        }
        println!();
    }
}

fn capacity_line(wan: &Wan) {
    println!();
    println!(
        "simulation (100% link utilization): {} MB/s",
        fmt_mb(wan.capacity)
    );
    println!();
}

fn fig9(cli: &Cli) {
    let mut wan = amsterdam_rennes();
    if let Some(loss) = cli.value("--loss") {
        wan.loss = loss;
    }
    let quick = cli.quick();
    // The paper's x axis: 16 KiB .. 4 MiB.
    let sizes: &[usize] = if quick {
        &[65_536, 1_048_576]
    } else {
        &[16_384, 65_536, 262_144, 1_048_576, 4_194_304]
    };
    let methods = [
        ("Plain TCP", StackSpec::plain()),
        ("Compression", StackSpec::plain().with_compression(1)),
        ("Parallel Streams (4)", StackSpec::plain().with_streams(4)),
        (
            "Compression + Parallel Streams",
            StackSpec::plain().with_streams(4).with_compression(1),
        ),
    ];
    print_header(
        "Figure 9: bandwidth vs message size, Amsterdam-Rennes emulation",
        &wan,
    );
    sweep_table(&methods, sizes, 30, |spec, size| {
        let mut run = BwRun::new(wan.clone(), spec.clone(), size);
        // 0.4 % loss: below ~48 MiB a point samples too few loss
        // events to tell two TCP variants apart (EXPERIMENTS.md E3).
        run.total_bytes = if quick { 3 << 20 } else { 48 << 20 };
        run
    });
    capacity_line(&wan);
    println!("Paper reference points (at large messages):");
    println!("  plain TCP 0.90 MB/s (56%) | 4 streams 1.50 (93%) | compression 3.25 (203%) | comp+par 3.40");
}

fn fig10(cli: &Cli) {
    let mut wan = delft_sophia();
    let window: u32 = cli.value("--window-cap").unwrap_or(64 * 1024);
    let block: u32 = cli.value("--block-size").unwrap_or(32 * 1024);
    let quick = cli.quick();
    let lifted = window != 64 * 1024;
    // The paper's x axis: 6^6, 6^7, 6^8 bytes.
    let sizes: &[usize] = if quick {
        &[279_936]
    } else {
        &[46_656, 279_936, 1_679_616]
    };
    let base = StackSpec::plain().with_block_size(block);
    let mut methods = vec![("plain TCP", base.clone())];
    // The window ablation answers one question: does a single stream
    // approach capacity once the OS cap is lifted? (Striping with huge
    // windows just oversubscribes the bottleneck queue.)
    if !lifted {
        methods.extend([
            ("4 streams", base.clone().with_streams(4)),
            ("8 streams", base.clone().with_streams(8)),
            ("compression", base.clone().with_compression(1)),
            (
                "compression + 4 streams",
                base.clone().with_streams(4).with_compression(1),
            ),
        ]);
    }
    print_header(
        "Figure 10: bandwidth vs message size, Delft-Sophia emulation",
        &wan,
    );
    if lifted {
        // Buffer the bottleneck for the bigger windows, or Reno's
        // slow-start overshoot turns the ablation into a loss study.
        wan.queue = wan.queue.max(2 * window);
        println!(
            "(ablation: OS window cap = {window} bytes, bottleneck queue {} bytes)",
            wan.queue
        );
    }
    let point = |wan: &Wan, spec: &StackSpec, size| {
        let mut run = BwRun::new(wan.clone(), spec.clone(), size);
        run.window = window;
        run.total_bytes = if quick { 12 << 20 } else { 48 << 20 };
        if window > 64 * 1024 {
            run.total_bytes = 80 << 20; // amortize the longer slow-start ramp
        }
        run
    };
    sweep_table(&methods, sizes, 24, |spec, size| point(&wan, spec, size));
    if window > 64 * 1024 {
        // The paper's §4.2 in one contrast: "even with TCP-modifications
        // like window scaling, achieving good TCP performance on a
        // high-latency WAN is still difficult, due to TCP's inert recovery
        // from lost packets."
        let p = measure_bandwidth(&point(&wan.clone().lossless(), &base, 1 << 20));
        println!();
        println!(
            "same window, ZERO loss: {} MB/s — the big window only helps on a clean path;",
            fmt_mb(p.bandwidth)
        );
        println!("with real loss, Reno's linear recovery squanders it (paper §4.2), which is");
        println!("why parallel streams (independent recovery per stream) win.");
    }
    capacity_line(&wan);
    println!("Paper reference points (large messages):");
    println!("  plain 1.70 (19%) | 4 streams 4.60 (51%) | 8 streams 7.95 (88%)");
    println!("  compression 5.0 | compression+parallel 3.5  (both below 8 streams: CPU-bound)");
}

/// Sweeps link capacity at a low RTT (so the OS window is not the binding
/// constraint) and compares plain TCP against compression at level 1.
/// With the 2004-era CPU model (level-1 compression ≈5.5 MB/s input) the
/// crossover falls at capacity ≈ CPU rate, i.e. ≈5.5 MB/s.
fn crossover(cli: &Cli) {
    let point = |capacity: f64, spec: StackSpec| {
        let wan = Wan {
            name: "sweep",
            capacity,
            rtt: Duration::from_millis(10),
            loss: 0.0,
            queue: 512 * 1024,
        };
        let mut run = BwRun::new(wan, spec, 1 << 20);
        run.total_bytes = 10 << 20;
        measure_bandwidth(&run).bandwidth
    };
    println!("Compression crossover sweep (RTT 10 ms, no loss, window not binding)");
    println!(
        "CPU model: level-1 compression {:.1} MB/s input (2004-era)",
        CpuRates::default().compress_l1 / 1e6
    );
    println!("{}", "=".repeat(72));
    println!(
        "{:>10} | {:>12} | {:>12} | {:>8} | winner",
        "capacity", "plain TCP", "compression", "gain"
    );
    println!("{}", "-".repeat(72));
    let mut crossover: Option<f64> = None;
    let mut prev_gain = f64::MAX;
    for cap_mb in [0.5, 1.0, 1.6, 2.5, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0] {
        let plain = point(cap_mb * 1e6, StackSpec::plain());
        let comp = point(cap_mb * 1e6, StackSpec::plain().with_compression(1));
        let gain = comp / plain;
        if prev_gain >= 1.0 && gain < 1.0 && crossover.is_none() {
            crossover = Some(cap_mb);
        }
        prev_gain = gain;
        println!(
            "{:>7.1} MB | {:>7} MB/s | {:>7} MB/s | {:>7.2}x | {}",
            cap_mb,
            fmt_mb(plain),
            fmt_mb(comp),
            gain,
            if gain >= 1.0 { "compression" } else { "plain" },
        );
    }
    println!();
    match crossover {
        Some(c) => println!(
            "crossover: compression stops paying between the sample below and {c:.1} MB/s \
             (paper: \"up to 6 MB/s\")"
        ),
        None => println!("no crossover in the swept range"),
    }

    if cli.flag("--levels") {
        println!();
        println!("Compression level sweep at 4 MB/s capacity (paper §4.3: only level 1 pays)");
        println!("{}", "-".repeat(72));
        println!("{:>6} | {:>12} | {:>14}", "level", "bandwidth", "CPU rate");
        let plain = point(4e6, StackSpec::plain());
        let mut bws = Vec::new();
        for level in 1..=gridzip::MAX_LEVEL {
            let bw = point(4e6, StackSpec::plain().with_compression(level));
            println!(
                "{:>6} | {:>7} MB/s | {:>9.2} MB/s",
                level,
                fmt_mb(bw),
                CpuRates::default().compress_at_level(level) / 1e6
            );
            bws.push(bw);
        }
        println!("{:>6} | {:>7} MB/s |", "plain", fmt_mb(plain));
        if bws[0] <= plain || bws.windows(2).any(|w| w[0] <= w[1]) {
            eprintln!("FAIL: level 1 must beat plain and each level the next");
            std::process::exit(1);
        }
    }
}

/// Probe-gain margin shared with the live controller (`PROBE_GAIN_PCT` in
/// `tune.rs`): a costlier rung must beat the cheaper one by this much to be
/// worth keeping.
const GAIN_PCT: u64 = 8;

/// Measure every rung of a tuning ladder on `wan`, a printed line each, and
/// select as the controller's probe policy does: the cheapest rung within
/// the probe-gain margin of the best rate. Returns the pick and its rate.
fn ladder_pick(
    wan: &Wan,
    rungs: impl Iterator<Item = (String, StackSpec, PathParams)>,
    msg_size: usize,
    total_bytes: usize,
) -> (PathParams, u64) {
    let mut results: Vec<(PathParams, u64)> = Vec::new();
    for (label, spec, params) in rungs {
        let mut run = BwRun::new(wan.clone(), spec, msg_size);
        run.total_bytes = total_bytes;
        let p = measure_bandwidth(&run);
        println!("  {label} {:>7} MB/s", fmt_mb(p.bandwidth));
        results.push((params, p.bandwidth as u64));
    }
    let chosen = pick_best(&results, GAIN_PCT).expect("non-empty sweep");
    let rate = results.iter().find(|(p, _)| *p == chosen).expect("picked");
    (chosen, rate.1)
}

/// The shape to expect: on the low-BDP Amsterdam—Rennes link a few streams
/// suffice (they only mask loss); on the high-BDP Delft—Sophia link
/// throughput climbs until the aggregate windows cover the path, then
/// flattens — `pick_best` refuses the flat tail that raw argmax would buy
/// CPU for.
fn autotune(cli: &Cli) {
    let quick = cli.quick();
    let counts: &[u16] = if quick { &[1, 4, 8] } else { &STRIPE_LADDER };
    println!("Parallel-stream autotuning sweep (64 KiB OS windows)");
    println!("{}", "=".repeat(64));
    for wan in [amsterdam_rennes(), delft_sophia()] {
        println!(
            "\n{} — capacity {:.1} MB/s, RTT {} ms, loss {:.2}%:",
            wan.name,
            wan.capacity / 1e6,
            wan.rtt.as_millis(),
            wan.loss * 100.0
        );
        let rungs = counts.iter().map(|&n| {
            let params = PathParams {
                stripes: n,
                ..PathParams::default()
            };
            (format!("{n:>3} streams:"), streams(n), params)
        });
        let total = if quick { 8 << 20 } else { 24 << 20 };
        let (chosen, rate) = ladder_pick(&wan, rungs, 512 * 1024, total);
        println!(
            "  pick_best({GAIN_PCT}%): {} streams at {} MB/s ({:.0}% of capacity) — \
             cheapest within the probe-gain margin",
            chosen.stripes,
            fmt_mb(rate as f64),
            100.0 * rate as f64 / wan.capacity
        );
    }
    println!();
    println!("paper [20] (Vazhkudai et al.) predicted transfer parameters offline; here the");
    println!("runtime can simply measure — the same ladder and selection rule drive the live");
    println!("session-layer controller (GridEnv::with_path_control).");
}

/// The plain stack over `n` parallel streams.
fn streams(n: u16) -> StackSpec {
    if n == 1 {
        StackSpec::plain()
    } else {
        StackSpec::plain().with_streams(n)
    }
}

/// The controller (default configuration, link established with level-1
/// compression) should track the offline pick on each link: compression on
/// the slow Amsterdam—Rennes path, plain on a fast path (where fixed
/// compression is CPU-bound).
fn adaptive(_: &Cli) {
    let level_name = |level: Option<u8>| match level {
        None => "plain TCP".to_string(),
        Some(l) => format!("fixed compression({l})"),
    };
    let fast = Wan {
        name: "fast-path",
        capacity: 9e6,
        rtt: Duration::from_millis(10), // low RTT: window not binding
        loss: 0.0,
        queue: 640 * 1024,
    };
    // Lossless: isolate the compression trade-off from loss recovery.
    let slow = amsterdam_rennes().lossless();

    println!("Adaptive compression (paper §8 future work, live path controller)");
    println!("{}", "=".repeat(72));
    for wan in [slow, fast] {
        println!(
            "\n{} — capacity {:.1} MB/s, RTT {} ms:",
            wan.name,
            wan.capacity / 1e6,
            wan.rtt.as_millis()
        );
        let rungs = COMPRESSION_LADDER.iter().map(|&level| {
            let spec = match level {
                None => StackSpec::plain(),
                Some(l) => StackSpec::plain().with_compression(l),
            };
            let params = PathParams {
                compression_level: level,
                ..PathParams::default()
            };
            (format!("{:<28}", level_name(level)), spec, params)
        });
        let (chosen, best_rate) = ladder_pick(&wan, rungs, 1 << 20, 12 << 20);
        println!(
            "  pick_best({GAIN_PCT}%): {} — cheapest within the probe-gain margin",
            level_name(chosen.compression_level)
        );

        let mut run = BwRun::new(wan.clone(), StackSpec::plain().with_compression(1), 1 << 20);
        run.total_bytes = 12 << 20;
        run.path_control = Some(PathControlConfig::default());
        let controlled = measure_bandwidth(&run);
        println!(
            "  {:<28} {:>7} MB/s — {:.0}% of the offline pick",
            "path controller from z1",
            fmt_mb(controlled.bandwidth),
            100.0 * controlled.bandwidth / best_rate as f64
        );
    }
    println!();
    println!("expected: controller ~ compression on the slow link; on the fast one it sheds");
    println!("compression only once the send buffer idles, which 64 KiB windows never allow.");
}

/// One-way small-message latency over the Amsterdam—Rennes emulation: a
/// 64-byte message's delivery time is dominated by the path delay, and
/// striping must not add to it (the first block simply travels on one of
/// the streams).
fn one_way_latency(n_streams: u16) -> Duration {
    // Lossless: latency measurement, not loss recovery.
    let wan = amsterdam_rennes().lossless();
    let sim = Sim::new(5);
    let (env, ha, hb) = measurement_world(&sim, &wan, 64 * 1024);
    let spec = streams(n_streams);
    let n_pings = 16usize;
    let sent_at: Arc<Mutex<Vec<SimTime>>> = Arc::new(Mutex::new(Vec::new()));
    let recv_at: Arc<Mutex<Vec<SimTime>>> = Arc::new(Mutex::new(Vec::new()));
    {
        let env = env.clone();
        let recv_at = Arc::clone(&recv_at);
        sim.spawn("recv", move || {
            let node = GridNode::join(&env, hb, "recv", ConnectivityProfile::open()).unwrap();
            let rp = node.create_receive_port("lat", spec).unwrap();
            for _ in 0..n_pings {
                rp.receive().unwrap();
                recv_at.lock().push(gridsim_net::ctx::now());
            }
        });
    }
    {
        let sent_at = Arc::clone(&sent_at);
        sim.spawn("send", move || {
            gridsim_net::ctx::sleep(Duration::from_millis(100));
            let node = GridNode::join(&env, ha, "send", ConnectivityProfile::open()).unwrap();
            let mut sp = node.create_send_port();
            sp.connect("lat").unwrap();
            for _ in 0..n_pings {
                // Quiescent gap so each message sees an idle pipe.
                gridsim_net::ctx::sleep(Duration::from_millis(100));
                sent_at.lock().push(gridsim_net::ctx::now());
                sp.send(&[0u8; 64]).unwrap();
            }
            sp.close().unwrap();
        });
    }
    sim.run();
    let sent = sent_at.lock();
    let recv = recv_at.lock();
    assert_eq!(sent.len(), recv.len());
    // Skip the first ping (slow-start / connection warm-up).
    let total: Duration = sent
        .iter()
        .zip(recv.iter())
        .skip(1)
        .map(|(s, r)| r.since(*s))
        .sum();
    total / (sent.len() as u32 - 1)
}

fn latency(_: &Cli) {
    let wan = amsterdam_rennes();
    print_header("Latency vs stream count (small 64-byte messages)", &wan);
    println!("{:>8} | {:>14}", "streams", "one-way latency");
    println!("{}", "-".repeat(28));
    for n in [1u16, 2, 4, 8] {
        let l = one_way_latency(n);
        println!("{n:>8} | {:>11.3} ms", l.as_secs_f64() * 1e3);
    }
    println!();
    println!(
        "path one-way delay: {:.1} ms — paper: \"the latency remained unchanged\" with 4 streams",
        wan.rtt.as_secs_f64() * 1e3 / 2.0
    );
}

/// Two hosts on one 100 Mbit/s Ethernet segment.
fn lan_pair(sim: &Sim) -> (SimHost, SimHost) {
    let (a, b) = sim.net().with(topology::lan_pair);
    let net = sim.net();
    (SimHost::new(&net, a), SimHost::new(&net, b))
}

/// A writer charging the per-call socket overhead in simulated time.
struct CostedWriter<'a> {
    s: &'a gridsim_tcp::TcpStream,
    syscall: Duration,
}

impl Write for CostedWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        gridsim_net::ctx::sleep(self.syscall);
        self.s.write_all_blocking(buf)?;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
// A block handed down is one socket call: the default `write_block`.
impl BlockWrite for CostedWriter<'_> {}

/// LAN throughput of `write_size`-byte application writes. Each socket
/// write call is charged `syscall` (50 µs by default — 2004-era Java socket
/// write: JNI transition + kernel copy), which is exactly the cost the
/// TCP_Block driver's 32 KiB aggregation amortizes.
fn lan_throughput(write_size: usize, aggregate: bool, syscall: Duration) -> f64 {
    let total: usize = 8 << 20;
    let sim = Sim::new(77);
    let (ha, hb) = lan_pair(&sim);
    let b_ip = hb.ip();
    let done = Arc::new(Mutex::new(None));
    let d2 = Arc::clone(&done);
    sim.spawn("recv", move || {
        let l = hb.listen(7000).unwrap();
        let s = l.accept().unwrap();
        let mut buf = vec![0u8; 64 * 1024];
        let mut got = 0usize;
        while got < total {
            let n = s.read_some(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            got += n;
        }
        *d2.lock() = Some(gridsim_net::ctx::now());
    });
    sim.spawn("send", move || {
        let s = ha.connect(gridsim_net::SockAddr::new(b_ip, 7000)).unwrap();
        s.set_nodelay(true).unwrap();
        let chunk = vec![0xa5u8; write_size];
        let costed = CostedWriter { s: &s, syscall };
        // TCP_Block: the product's aggregation driver, one syscall per
        // 32 KiB block; otherwise one syscall per small application write.
        let mut w: Box<dyn Write> = if aggregate {
            Box::new(BlockWriter::new(costed, BlockPool::new(32 * 1024)))
        } else {
            Box::new(costed)
        };
        let mut left = total;
        while left > 0 {
            let n = chunk.len().min(left);
            w.write_all(&chunk[..n]).unwrap();
            left -= n;
        }
        w.flush().unwrap();
        drop(w);
        s.shutdown_write().unwrap();
    });
    sim.run();
    let end = done.lock().take().expect("receiver finished");
    total as f64 / end.as_secs_f64()
}

/// Write-write-read latency: the server echoes after receiving 2 bytes.
/// Nagle holds the second small write until the first is ACKed, adding a
/// full RTT — the "adds significantly to the latency" of §4.1.
fn ww_read_latency(nodelay: bool) -> Duration {
    let sim = Sim::new(78);
    let (ha, hb) = lan_pair(&sim);
    let b_ip = hb.ip();
    let out = Arc::new(Mutex::new(Duration::ZERO));
    let o2 = Arc::clone(&out);
    sim.spawn("echo", move || {
        let l = hb.listen(7001).unwrap();
        let mut s = l.accept().unwrap();
        s.set_nodelay(true).unwrap();
        use std::io::Read;
        let mut buf = [0u8; 2];
        for _ in 0..10 {
            if s.read_exact(&mut buf).is_err() {
                return;
            }
            s.write_all_blocking(&[0xee]).unwrap();
        }
    });
    sim.spawn("client", move || {
        let s = ha.connect(gridsim_net::SockAddr::new(b_ip, 7001)).unwrap();
        s.set_nodelay(nodelay).unwrap();
        let mut buf = [0u8; 1];
        let mut total = Duration::ZERO;
        let rounds = 10;
        for _ in 0..rounds {
            let t0 = gridsim_net::ctx::now();
            // Two separate small writes: with Nagle, the second waits for
            // the ACK of the first.
            s.write_all_blocking(&[1]).unwrap();
            s.write_all_blocking(&[2]).unwrap();
            s.read_some(&mut buf).unwrap();
            total += gridsim_net::ctx::now().since(t0);
        }
        *o2.lock() = total / rounds;
    });
    sim.run();
    let d = *out.lock();
    d
}

fn lan(cli: &Cli) {
    let write_size: usize = cli.value("--write-size").unwrap_or(256);
    let syscall = Duration::from_micros(cli.value("--syscall-us").unwrap_or(50));
    println!("Section 4.1: 100 Mbit/s Ethernet LAN (12.5 MB/s raw)");
    println!("{}", "=".repeat(78));

    println!(
        "\nThroughput, {write_size}-byte application writes, {} µs per socket call:",
        syscall.as_micros()
    );
    let naive = lan_throughput(write_size, false, syscall);
    let block = lan_throughput(write_size, true, syscall);
    println!(
        "  per-write send (no aggregation)          {:>7} MB/s",
        fmt_mb(naive)
    );
    println!(
        "  TCP_Block (32 KiB aggregation + flush)   {:>7} MB/s",
        fmt_mb(block)
    );
    println!(
        "  paper: ~11.8 MB/s with aggregation; aggregation gain here: {:.1}x",
        block / naive
    );

    println!("\nWrite-write-read latency (small messages):");
    let nagle = ww_read_latency(false);
    let nodelay = ww_read_latency(true);
    println!(
        "  Nagle on  (TCP_DELAY): {:>8.3} ms",
        nagle.as_secs_f64() * 1e3
    );
    println!(
        "  TCP_NODELAY:           {:>8.3} ms",
        nodelay.as_secs_f64() * 1e3
    );
    println!(
        "  paper: TCP_DELAY \"adds significantly to the latency\" — here {:.1}x",
        nagle.as_secs_f64() / nodelay.as_secs_f64()
    );
}

fn main() {
    Cli::from_env().dispatch(
        "figures",
        &[
            ("fig9", fig9),
            ("fig10", fig10),
            ("crossover", crossover),
            ("autotune", autotune),
            ("adaptive", adaptive),
            ("latency", latency),
            ("lan", lan),
        ],
    );
    trace::flush();
}
