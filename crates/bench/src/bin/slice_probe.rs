//! Scheduler microbench: host cost of one task slice (a trip through the
//! scheduler loop in `yield_now`), plus the grant/event budget of the
//! e2e datapath scenario. Not a paper figure — this watches the simulator
//! itself, the denominator of every host-side number in BENCH_datapath.
//!
//! Run: `cargo run --release -p netgrid-bench --bin slice_probe`

use gridsim_net::runtime::{host_event_ns, host_work_counters, park_stats};
use gridsim_net::{ctx, Sim};
use netgrid::StackSpec;
use netgrid_bench::*;
use std::time::{Duration, Instant};

fn main() {
    // 1. Raw slice cost: one task yielding to itself (no thread switch).
    const YIELDS: u32 = 200_000;
    let sim = Sim::new(0);
    sim.spawn("yielder", || {
        for _ in 0..YIELDS {
            ctx::yield_now();
        }
    });
    let t0 = Instant::now();
    sim.run();
    let dt = t0.elapsed();
    println!(
        "yield_now x{YIELDS}: {:?} = {:.2} us/slice",
        dt,
        dt.as_secs_f64() * 1e6 / YIELDS as f64
    );

    // 1a. Floor: bare two-thread ping-pong via atomic + yield on this host.
    {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        const ROUNDS: u32 = 100_000;
        let flag = Arc::new(AtomicU32::new(0));
        let f2 = Arc::clone(&flag);
        let t0 = Instant::now();
        let h = std::thread::spawn(move || {
            for i in 0..ROUNDS {
                while f2.load(Ordering::Acquire) != 2 * i + 1 {
                    std::thread::yield_now();
                }
                f2.store(2 * i + 2, Ordering::Release);
            }
        });
        for i in 0..ROUNDS {
            flag.store(2 * i + 1, Ordering::Release);
            while flag.load(Ordering::Acquire) != 2 * i + 2 {
                std::thread::yield_now();
            }
        }
        h.join().unwrap();
        let dt = t0.elapsed();
        println!(
            "bare ping-pong x{ROUNDS}: {:?} = {:.2} us/round-trip",
            dt,
            dt.as_secs_f64() * 1e6 / ROUNDS as f64
        );
    }

    // 1b. Raw event dispatch cost: schedule-then-drain closure events.
    {
        const EVENTS: u32 = 200_000;
        let sim = Sim::new(0);
        let t0 = Instant::now();
        sim.net().with(|w| {
            for i in 0..EVENTS {
                w.schedule_at(gridsim_net::SimTime(i as u64), |_| {});
            }
        });
        sim.run();
        let dt = t0.elapsed();
        println!(
            "call events x{EVENTS}: {:?} = {:.2} us/event",
            dt,
            dt.as_secs_f64() * 1e6 / EVENTS as f64
        );
    }

    // 2. Slice/event budget of the headline e2e scenario.
    let wan = Wan {
        name: "bench-lan",
        capacity: 1e9,
        rtt: Duration::from_millis(2),
        loss: 0.0,
        queue: 8 << 20,
    };
    let msg = 256 * 1024;
    let msgs = 32;
    let mut run = BwRun::new(wan, StackSpec::plain(), msg);
    run.total_bytes = msg * msgs;
    run.rates = netgrid::CpuRates::unlimited();
    run.window = 1 << 20;
    // Back-to-back repeats: catches cross-run interference (threads from a
    // finished sim still winding down compete for the two host cores).
    for i in 0..3 {
        let t = Instant::now();
        let p = measure_bandwidth(&run);
        println!(
            "e2e warm run {i}: {:?} ({:.2} MB/s sim)",
            t.elapsed(),
            p.bandwidth / 1e6
        );
    }
    let parks0: std::collections::HashMap<&str, u64> = park_stats().into_iter().collect();
    let (s0, e0) = host_work_counters();
    let en0 = host_event_ns();
    let t0 = Instant::now();
    let point = measure_bandwidth(&run);
    let dt = t0.elapsed();
    let (s1, e1) = host_work_counters();
    let en1 = host_event_ns();
    println!("park reasons (this run):");
    for (reason, n) in park_stats() {
        let before = parks0.get(reason).copied().unwrap_or(0);
        if n > before {
            println!("  {:>8}  {}", n - before, reason);
        }
    }

    // Packet-hop accounting: rerun the same scenario with the world kept
    // alive so link/world counters can be read afterwards.
    {
        use netgrid::{ConnectivityProfile, GridNode};
        let sim = gridsim_net::Sim::new(run.seed);
        let (env, ha, hb) = measurement_world(&sim, &run.wan, run.window);
        let env = env.with_rates(run.rates);
        let n_msgs = run.total_bytes / run.msg_size;
        let payload = gridzip::synth::grid_payload(run.msg_size, run.redundancy, run.seed);
        let env_b = env.clone();
        let spec = run.spec.clone();
        sim.spawn("receiver", move || {
            let node = GridNode::join(&env_b, hb, "recv", ConnectivityProfile::open()).unwrap();
            let rp = node.create_receive_port("bw", spec).unwrap();
            for _ in 0..n_msgs {
                rp.receive().unwrap();
            }
        });
        let env_a = env.clone();
        sim.spawn("sender", move || {
            gridsim_net::ctx::sleep(Duration::from_millis(100));
            let node = GridNode::join(&env_a, ha, "send", ConnectivityProfile::open()).unwrap();
            let mut sp = node.create_send_port();
            sp.connect("bw").unwrap();
            for _ in 0..n_msgs {
                sp.send(&payload).unwrap();
            }
            sp.close().unwrap();
        });
        sim.run();
        let (delivered, forwarded) = env.net.with(|w| (w.stats.delivered, w.stats.forwarded));
        println!("world: delivered {delivered}, forwarded {forwarded} (pkt-hop events = delivered + forwarded)");
        env.net.with(|w| {
            for i in 0..w.n_link_dirs() {
                let s = w.link_stats(gridsim_net::LinkDirId(i));
                if s.tx_packets > 0 {
                    println!(
                        "  link dir {i}: {} pkts, {} bytes, avg {:.0} B/pkt",
                        s.tx_packets,
                        s.tx_bytes,
                        s.tx_bytes as f64 / s.tx_packets as f64
                    );
                }
            }
        });
    }
    let (grants, events) = (s1 - s0, e1 - e0);
    let segs = (msg * msgs / 1448) as u64;
    println!(
        "e2e plain: {:?}, {} cross-thread grants, {} events ({} data segments)",
        dt, grants, events, segs
    );
    println!(
        "  {:.2} grants/segment, {:.2} events/segment",
        grants as f64 / segs as f64,
        events as f64 / segs as f64,
    );
    let event_ns = en1 - en0;
    println!(
        "  time split: events {:.3}s ({:.2} us each), tasks + handoffs {:.3}s",
        event_ns as f64 * 1e-9,
        event_ns as f64 * 1e-3 / events as f64,
        dt.as_secs_f64() - event_ns as f64 * 1e-9
    );
    assert!(point.bandwidth > 0.0);
}
