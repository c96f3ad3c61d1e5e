//! Session-layer multiplexing benchmark: N same-spec channels between one
//! node pair must share exactly ONE established data link. Measures channel
//! setup latency (first connect pays the Figure-4 walk, the rest ride the
//! cached link), verifies the link count stays at one, and times recovery
//! after a mid-transfer path flap — one flap, one re-establishment, every
//! channel replayed. Writes `BENCH_mux.json`.
//!
//! `--pair` runs a small deterministic 2-channel transfer instead of the
//! matrix; together with `NETGRID_TRACE` it produces the `mux_pair` golden
//! wire trace that pins the tagged-frame mux protocol at the packet level.

use gridsim_net::{FaultPlan, Sim, SimTime};
use gridsim_tcp::TcpConfig;
use netgrid::StackSpec;
use netgrid_bench::*;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Payload bytes per message (after the two varint header words).
const MSG: usize = 256;
/// Messages per channel, sent in `GAP`-spaced rounds so the transfer spans
/// the flap window.
const MSGS: u64 = 56;
const GAP: Duration = Duration::from_millis(100);
const DOWN: Duration = Duration::from_millis(1200);

/// The flap must land after ALL channels are connected but well inside the
/// send window. Batched establishment makes setup near-constant in N (one
/// lookup + one walk + one OPEN for the whole batch), so a fixed flap
/// time works for every row and keeps them comparable.
fn flap_at(_channels: u64) -> Duration {
    Duration::from_millis(1500)
}

struct RunOut {
    setup_ms: f64,
    links: u64,
    walks: u64,
    total_ms: f64,
    recovery_ms: f64,
}

fn wan() -> Wan {
    Wan {
        name: "mux-wan",
        capacity: 1.6e6,
        rtt: Duration::from_millis(30),
        loss: 0.0,
        queue: 320 * 1024,
    }
}

/// Endpoint TCP config that aborts a dead path in about a second, so the
/// 1.2 s flap deterministically crosses the abort threshold and exercises
/// one link recovery (instead of riding TCP retransmission).
fn endpoint_cfg(window: u32) -> TcpConfig {
    TcpConfig {
        send_buf: window,
        recv_buf: window,
        initial_rto: Duration::from_millis(200),
        min_rto: Duration::from_millis(200),
        max_rto: Duration::from_millis(400),
        max_rto_strikes: 2,
        ..TcpConfig::default()
    }
}

fn run_one(channels: u64) -> RunOut {
    let wan = wan();
    let sim = Sim::new(44);
    let window = 64 * 1024;
    let (env, ha, hb) = measurement_world(&sim, &wan, window);
    let cfg = endpoint_cfg(window);
    ha.set_tcp_config(cfg);
    hb.set_tcp_config(cfg);
    let net = sim.net();
    let flap = flap_at(channels);
    let links = net.with(|w| w.path_links(ha.node(), hb.node()));
    let plan = links
        .iter()
        .fold(FaultPlan::new(), |p, &l| p.flap(flap, l, DOWN));
    net.with(|w| w.install_faults(plan));

    let times: Arc<parking_lot::Mutex<Vec<SimTime>>> =
        Arc::new(parking_lot::Mutex::new(Vec::new()));
    let t = times.clone();
    let env_b = env.clone();
    sim.spawn("receiver", move || {
        let node =
            netgrid::GridNode::join(&env_b, hb, "recv", netgrid::ConnectivityProfile::open())
                .unwrap();
        let rp = node.create_receive_port("mux", StackSpec::plain()).unwrap();
        let mut next: HashMap<u64, u64> = HashMap::new();
        for _ in 0..channels * MSGS {
            let mut m = rp.receive().unwrap();
            let tag = m.read_u64().unwrap();
            let seq = m.read_u64().unwrap();
            let want = next.entry(tag).or_insert(0);
            assert_eq!(seq, *want, "exactly-once FIFO violated on channel {tag}");
            *want += 1;
            t.lock().push(gridsim_net::ctx::now());
        }
    });
    // setup_ms, links after connect, walks — reported from inside the
    // sender task where the probes live.
    let probe_out: Arc<parking_lot::Mutex<Option<(f64, u64, u64)>>> =
        Arc::new(parking_lot::Mutex::new(None));
    let probes = probe_out.clone();
    let env_a = env.clone();
    sim.spawn("sender", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(100));
        let node =
            netgrid::GridNode::join(&env_a, ha, "send", netgrid::ConnectivityProfile::open())
                .unwrap();
        let t0 = gridsim_net::ctx::now();
        // One batched attach: the whole matrix row pays one name-service
        // lookup, one establishment walk and one OPEN frame.
        let mut ports = node.connect_batch("mux", channels as usize).unwrap();
        let setup_ms = gridsim_net::ctx::now().since(t0).as_secs_f64() * 1e3;
        assert!(
            gridsim_net::ctx::now() < SimTime::ZERO + flap,
            "setup overran the flap schedule — raise the per-channel budget"
        );
        *probes.lock() = Some((
            setup_ms,
            node.data_link_count() as u64,
            node.establishment_walks(),
        ));
        let body = vec![0xa5u8; MSG];
        for seq in 0..MSGS {
            for (tag, sp) in ports.iter_mut().enumerate() {
                let mut m = sp.message();
                m.write_u64(tag as u64);
                m.write_u64(seq);
                m.write_bytes(&body);
                m.finish().unwrap();
            }
            gridsim_net::ctx::sleep(GAP);
        }
        for sp in ports.drain(..) {
            sp.close().unwrap();
        }
        assert_eq!(node.data_link_count(), 0, "last close did not GC the link");
        if channels > 0 {
            assert_eq!(
                node.link_recoveries(),
                1,
                "one flap must cost exactly one link recovery"
            );
        }
    });
    let outcome = sim.run_for(Duration::from_secs(300));
    let times = times.lock();
    assert_eq!(
        times.len() as u64,
        channels * MSGS,
        "transfer did not complete (outcome {outcome:?}, channels {channels})"
    );
    let (setup_ms, links, walks) = probe_out.lock().expect("sender never reported probes");
    // An empty round list (channels == 0) delivers nothing: emit a zero
    // row instead of panicking on `times.last()`.
    let (total_ms, recovery_ms) = match (times.first(), times.last()) {
        (Some(first), Some(last)) => {
            let total_ms = last.since(*first).as_secs_f64() * 1e3;
            let restore = SimTime::ZERO + flap + DOWN;
            let recovery_ms = times
                .iter()
                .find(|t| **t >= restore)
                .map(|t| t.since(restore).as_secs_f64() * 1e3)
                .unwrap_or(f64::NAN);
            (total_ms, recovery_ms)
        }
        _ => (0.0, 0.0),
    };
    RunOut {
        setup_ms,
        links,
        walks,
        total_ms,
        recovery_ms,
    }
}

/// Deterministic 2-channel mux transfer for the `mux_pair` golden trace:
/// two send ports to one receive port over one shared link, fixed payloads,
/// no faults. Any change to the tagged-frame wire protocol shifts packet
/// contents and fails the golden gate.
fn pair_trace() {
    let wan = wan();
    let sim = Sim::new(7);
    let (env, ha, hb) = measurement_world(&sim, &wan, 64 * 1024);
    let env_b = env.clone();
    sim.spawn("receiver", move || {
        let node =
            netgrid::GridNode::join(&env_b, hb, "recv", netgrid::ConnectivityProfile::open())
                .unwrap();
        let rp = node
            .create_receive_port("pair", StackSpec::plain())
            .unwrap();
        let mut next = [0u64; 2];
        for _ in 0..16 {
            let mut m = rp.receive().unwrap();
            let tag = m.read_u64().unwrap() as usize;
            let seq = m.read_u64().unwrap();
            assert_eq!(seq, next[tag], "pair trace FIFO violated");
            next[tag] += 1;
        }
        assert_eq!(next, [8, 8]);
    });
    let env_a = env.clone();
    sim.spawn("sender", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(100));
        let node =
            netgrid::GridNode::join(&env_a, ha, "send", netgrid::ConnectivityProfile::open())
                .unwrap();
        let mut sp0 = node.create_send_port();
        sp0.connect("pair").unwrap();
        let mut sp1 = node.create_send_port();
        sp1.connect("pair").unwrap();
        assert_eq!(node.data_link_count(), 1);
        for seq in 0..8u64 {
            for (tag, sp) in [&mut sp0, &mut sp1].into_iter().enumerate() {
                let mut m = sp.message();
                m.write_u64(tag as u64);
                m.write_u64(seq);
                m.write_bytes(&[0x5a; 128]);
                m.finish().unwrap();
            }
            gridsim_net::ctx::sleep(Duration::from_millis(25));
        }
        sp0.close().unwrap();
        sp1.close().unwrap();
    });
    let outcome = sim.run_for(Duration::from_secs(60));
    println!("pair trace: 2 channels x 8 messages over one link ({outcome:?})");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if has_flag(&args, "--pair") {
        pair_trace();
        trace::flush();
        return;
    }
    let quick = has_flag(&args, "--quick");
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_mux.json".into());
    println!(
        "Mux: N channels over one link, {MSGS} x {MSG} B per channel, \
         1.6 MB/s / 30 ms RTT, one 1.2 s path flap mid-transfer"
    );
    let matrix: &[u64] = if quick { &[1, 8] } else { &[1, 8, 64] };
    let mut outs = Vec::new();
    for &n in matrix {
        let o = run_one(n);
        println!(
            "channels={n:>3}  setup={:>7.1} ms  links={}  walks={}  total={:>8.1} ms  recovery_after_restore={:>7.1} ms",
            o.setup_ms, o.links, o.walks, o.total_ms, o.recovery_ms
        );
        outs.push((n, o));
    }
    let mut json = String::from("[\n");
    for (i, (n, o)) in outs.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"channels\": {}, \"setup_ms\": {:.1}, \"links\": {}, \"walks\": {}, \"total_ms\": {:.1}, \"recovery_ms\": {:.1}}}{}\n",
            n,
            o.setup_ms,
            o.links,
            o.walks,
            o.total_ms,
            o.recovery_ms,
            if i + 1 == outs.len() { "" } else { "," }
        ));
    }
    json.push_str("]\n");
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    eprintln!("wrote {out_path}");
    trace::flush();
}
