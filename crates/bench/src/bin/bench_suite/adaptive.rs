//! Adaptive path control benchmark: a WAN whose capacity ramps 1 -> 10
//! MB/s mid-transfer, measured under three static stack configurations
//! and under the live session-layer control loop (DESIGN.md §11).
//!
//! The scenario is built so no single static configuration is good on
//! both sides of the ramp: at 1 MB/s the path is capacity-bound and
//! compression multiplies goodput, while at 10 MB/s with paper-era
//! 64 KiB windows a single stream is window-limited and striping wins.
//! The controller must shed compression and walk the stripe ladder up
//! as the ramp passes — `check_bench` gates that it lands
//! within 0.9x of the best static run and at least 1.5x above the
//! worst. Writes `BENCH_adaptive.json`.

use super::*;
use netgrid::{PathControlConfig, PathParams, StackSpec};
use parking_lot::Mutex;
use std::sync::Arc;

/// Payload bytes per message (after the varint sequence number).
const MSG: usize = 32 * 1024;
/// End-of-run sentinel sequence number.
const DONE: u64 = u64::MAX;
/// Phase A capacity (bytes/sec): capacity-bound, compression pays.
const CAP_LOW: f64 = 1.0e6;
/// Phase B capacity: far above one 64 KiB window at this RTT, so the
/// paper's parallel streams are the only way to fill the pipe.
const CAP_HIGH: f64 = 10.0e6;

struct Scenario {
    /// The ramp starts this long into the run.
    ramp_at: Duration,
    /// ...and reaches CAP_HIGH this much later (in 5 discrete steps).
    ramp_for: Duration,
    /// Senders stop producing at this sim-time offset.
    send_for: Duration,
}

impl Scenario {
    fn new(quick: bool) -> Scenario {
        if quick {
            // Same phase-A/phase-B time split as the full run, halved:
            // the static baselines are regime-weighted, so changing the
            // split would change which static wins, not just the noise.
            Scenario {
                ramp_at: Duration::from_millis(2500),
                ramp_for: Duration::from_millis(500),
                send_for: Duration::from_millis(5500),
            }
        } else {
            Scenario {
                ramp_at: Duration::from_millis(5000),
                ramp_for: Duration::from_millis(1000),
                send_for: Duration::from_millis(11000),
            }
        }
    }
}

struct RunOut {
    bytes: u64,
    secs: f64,
    final_stripes: u16,
    final_compression: i64,
    /// RECONFIG epochs burned on the path (0 for the static runs).
    epochs: u64,
}

impl RunOut {
    fn mb_s(&self) -> f64 {
        self.bytes as f64 / self.secs / 1e6
    }
}

/// One measured run: `spec` is the establishment stack; `start` (if set)
/// is applied by an immediate manual reconfigure, and `control` turns the
/// session-layer loop on. Goodput is application bytes over the span from
/// first send to last delivery, exactly-once FIFO asserted throughout.
fn run_one(sc: &Scenario, spec: StackSpec, start: Option<PathParams>, control: bool) -> RunOut {
    let wan = Wan {
        name: "ramp-wan",
        capacity: CAP_LOW,
        rtt: Duration::from_millis(40),
        loss: 0.0,
        queue: 1 << 20,
    };
    let sim = Sim::new(42);
    let (env, ha, hb) = measurement_world(&sim, &wan, 64 * 1024);
    let env = if control {
        env.with_path_control(PathControlConfig {
            interval: Duration::from_millis(50),
            cooldown: 1,
        })
    } else {
        env
    };
    // Ramp only the bottleneck uplink (both directions); the fat backbone
    // and receiver-side links stay out of the way.
    let net = sim.net();
    net.with(|w| {
        let mut plan = FaultPlan::new();
        for l in w.path_links(ha.node(), hb.node()) {
            if w.link_mut(l).params.bandwidth_bps <= CAP_LOW * 1.5 {
                plan = plan.bandwidth_ramp(sc.ramp_at, l, CAP_HIGH, sc.ramp_for, 5);
            }
        }
        w.install_faults(plan);
    });

    let done = Arc::new(Mutex::new((0u64, None::<gridsim_net::SimTime>)));
    let env_b = env.clone();
    let spec_b = spec.clone();
    let d = Arc::clone(&done);
    sim.spawn("receiver", move || {
        let node = join_open(&env_b, hb, "recv");
        let rp = node.create_receive_port("ramp", spec_b).unwrap();
        let mut expect = 0u64;
        loop {
            let mut m = rp.receive().unwrap();
            let seq = m.read_u64().unwrap();
            if seq == DONE {
                break;
            }
            assert_eq!(seq, expect, "exactly-once FIFO violated");
            expect += 1;
            let mut g = d.lock();
            g.0 += (m.remaining().len() + 8) as u64;
            g.1 = Some(gridsim_net::ctx::now());
        }
    });
    let t0 = Arc::new(Mutex::new(None::<gridsim_net::SimTime>));
    let finals = Arc::new(Mutex::new(None::<(PathParams, u64)>));
    let env_a = env.clone();
    let ts = Arc::clone(&t0);
    let fp = Arc::clone(&finals);
    let send_for = sc.send_for;
    sim.spawn("sender", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(100));
        let node = join_open(&env_a, ha, "send");
        let mut sp = node.create_send_port();
        sp.connect("ramp").unwrap();
        if let Some(p) = start {
            sp.reconfigure(p).unwrap();
        }
        let payload = gridzip::synth::grid_payload(MSG, gridzip::synth::GRID_REDUNDANCY, 42);
        let begin = gridsim_net::ctx::now();
        *ts.lock() = Some(begin);
        let mut i = 0u64;
        while gridsim_net::ctx::now().since(begin) < send_for {
            let mut m = sp.message();
            m.write_u64(i);
            m.write_bytes(&payload);
            m.finish().unwrap();
            i += 1;
        }
        *fp.lock() = sp
            .path_params(0)
            .map(|p| (p, sp.path_epoch(0).unwrap_or(0)));
        let mut m = sp.message();
        m.write_u64(DONE);
        m.finish().unwrap();
        sp.close().unwrap();
    });
    sim.run();
    let (bytes, last) = *done.lock();
    let start_t = t0.lock().expect("sender started");
    let last = last.expect("receiver saw data");
    let (p, epochs) = finals.lock().take().unwrap_or_default();
    RunOut {
        bytes,
        secs: last.since(start_t).as_secs_f64(),
        final_stripes: p.stripes,
        final_compression: p.compression_level.map(i64::from).unwrap_or(-1),
        epochs,
    }
}

pub fn run(cli: &Cli) {
    let sc = Scenario::new(cli.quick());
    println!(
        "Adaptive control: capacity ramp {:.0} -> {:.0} MB/s at t={:?} over {:?}, 40 ms RTT, 64 KiB windows",
        CAP_LOW / 1e6,
        CAP_HIGH / 1e6,
        sc.ramp_at,
        sc.ramp_for
    );

    // Static points: one per regime plus the do-nothing floor. The
    // controller run establishes with 8 dialed connections (its stripe
    // headroom), squeezes down to 1 compressed stripe, and adapts.
    let ctl_start = PathParams {
        stripes: 1,
        block_size: 32 * 1024,
        compression_level: Some(1),
    };
    let runs: [(&str, StackSpec, Option<PathParams>, bool); 4] = [
        ("static-plain-1", StackSpec::plain(), None, false),
        (
            "static-comp-1",
            StackSpec::plain().with_compression(1),
            None,
            false,
        ),
        (
            "static-stripe-8",
            StackSpec::plain().with_streams(8),
            None,
            false,
        ),
        (
            "controller",
            StackSpec::plain().with_streams(8),
            Some(ctl_start),
            true,
        ),
    ];
    let mut outs = Vec::new();
    for (id, spec, start, control) in runs {
        let o = run_one(&sc, spec, start, control);
        println!(
            "{id:>16}: {:>6.2} MB/s  ({:.1} MB in {:.2} s, final stripes={} compression={} epochs={})",
            o.mb_s(),
            o.bytes as f64 / 1e6,
            o.secs,
            o.final_stripes,
            o.final_compression,
            o.epochs
        );
        outs.push((id, o));
    }
    let statics: Vec<f64> = outs
        .iter()
        .filter(|(id, _)| *id != "controller")
        .map(|(_, o)| o.mb_s())
        .collect();
    let best = statics.iter().cloned().fold(f64::MIN, f64::max);
    let worst = statics.iter().cloned().fold(f64::MAX, f64::min);
    let ctl = outs.last().map(|(_, o)| o.mb_s()).unwrap();
    println!(
        "controller {ctl:.2} MB/s vs static best {best:.2} / worst {worst:.2} \
         ({:.2}x best, {:.2}x worst)",
        ctl / best,
        ctl / worst
    );

    let rows: Vec<JsonRow> = outs
        .iter()
        .map(|(id, o)| {
            JsonRow::default()
                .text("id", id)
                .num("mb_s", format_args!("{:.3}", o.mb_s()))
                .num("bytes", o.bytes)
                .num("secs", format_args!("{:.3}", o.secs))
                .num("stripes", o.final_stripes)
                .num("compression", o.final_compression)
                .num("epochs", o.epochs)
        })
        .collect();
    write_json(&cli.out("BENCH_adaptive.json"), &rows);
}
