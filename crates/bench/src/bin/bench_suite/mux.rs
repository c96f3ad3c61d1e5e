//! Session-layer multiplexing: N same-spec channels between one node pair
//! must share exactly ONE established data link. Measures channel setup
//! latency (one batched attach pays one name-service lookup, one Figure-4
//! walk and one OPEN frame for the whole row), verifies the link count
//! stays at one, and times recovery after a mid-transfer path flap — one
//! flap, one re-establishment, every channel replayed. Writes
//! `BENCH_mux.json`.
//!
//! `--pair` runs a small deterministic 2-channel transfer instead of the
//! matrix; together with `NETGRID_TRACE` it produces the `mux_pair` golden
//! wire trace that pins the tagged-frame mux protocol at the packet level.

use super::*;
use netgrid::StackSpec;
use std::sync::Arc;

/// Payload bytes per message (after the two varint header words).
const MSG: usize = 256;
/// Messages per channel, sent in `GAP`-spaced rounds so the transfer spans
/// the flap window.
const MSGS: u64 = 56;
const GAP: Duration = Duration::from_millis(100);
/// The flap must land after ALL channels are connected but well inside the
/// send window. Batched establishment makes setup near-constant in N, so a
/// fixed flap time works for every row and keeps them comparable.
const FLAP_AT: Duration = Duration::from_millis(1500);
const DOWN: Duration = Duration::from_millis(1200);
/// Abort a dead path in about a second, so the 1.2 s flap deterministically
/// crosses the abort threshold and exercises one link recovery (instead of
/// riding TCP retransmission).
const ABORT: (Duration, u32) = (Duration::from_millis(400), 2);

struct RunOut {
    setup_ms: f64,
    links: u64,
    walks: u64,
    total_ms: f64,
    recovery_ms: f64,
}

fn run_one(channels: u64) -> RunOut {
    let sim = Sim::new(44);
    let (env, ha, hb) = flap_world(&sim, 64 * 1024, ABORT, Some((FLAP_AT, DOWN)));

    let times: Arc<parking_lot::Mutex<Vec<SimTime>>> =
        Arc::new(parking_lot::Mutex::new(Vec::new()));
    let t = times.clone();
    let env_b = env.clone();
    sim.spawn("receiver", move || {
        let node = join_open(&env_b, hb, "recv");
        let rp = node.create_receive_port("mux", StackSpec::plain()).unwrap();
        let mut fifo = TaggedFifo::default();
        for _ in 0..channels * MSGS {
            fifo.check(&mut rp.receive().unwrap(), "exactly-once");
            t.lock().push(gridsim_net::ctx::now());
        }
    });
    // setup_ms, links after connect, walks — reported from inside the
    // sender task where the probes live.
    let probe_out: Arc<parking_lot::Mutex<Option<(f64, u64, u64)>>> =
        Arc::new(parking_lot::Mutex::new(None));
    let probes = probe_out.clone();
    sim.spawn("sender", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(100));
        let node = join_open(&env, ha, "send");
        let t0 = gridsim_net::ctx::now();
        let mut ports = node.connect_batch("mux", channels as usize).unwrap();
        let setup_ms = gridsim_net::ctx::now().since(t0).as_secs_f64() * 1e3;
        assert!(
            gridsim_net::ctx::now() < SimTime::ZERO + FLAP_AT,
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
    let restore = SimTime::ZERO + FLAP_AT + DOWN;
    let (total_ms, recovery_ms) = span_and_recovery_ms(&times, Some(restore));
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
    let wan = amsterdam_rennes().lossless();
    let sim = Sim::new(7);
    let (env, ha, hb) = measurement_world(&sim, &wan, 64 * 1024);
    let env_b = env.clone();
    sim.spawn("receiver", move || {
        let node = join_open(&env_b, hb, "recv");
        let rp = node
            .create_receive_port("pair", StackSpec::plain())
            .unwrap();
        let mut fifo = TaggedFifo::default();
        for _ in 0..16 {
            fifo.check(&mut rp.receive().unwrap(), "pair trace");
        }
        assert_eq!(fifo.0, [(0, 8), (1, 8)].into());
    });
    sim.spawn("sender", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(100));
        let node = join_open(&env, ha, "send");
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

pub fn run(cli: &Cli) {
    if cli.flag("--pair") {
        return pair_trace();
    }
    println!(
        "Mux: N channels over one link, {MSGS} x {MSG} B per channel, \
         1.6 MB/s / 30 ms RTT, one 1.2 s path flap mid-transfer"
    );
    let matrix: &[u64] = if cli.quick() { &[1, 8] } else { &[1, 8, 64] };
    let mut rows = Vec::new();
    for &n in matrix {
        let o = run_one(n);
        println!(
            "channels={n:>3}  setup={:>7.1} ms  links={}  walks={}  total={:>8.1} ms  recovery_after_restore={:>7.1} ms",
            o.setup_ms, o.links, o.walks, o.total_ms, o.recovery_ms
        );
        rows.push(
            JsonRow::default()
                .num("channels", n)
                .num("setup_ms", format_args!("{:.1}", o.setup_ms))
                .num("links", o.links)
                .num("walks", o.walks)
                .num("total_ms", format_args!("{:.1}", o.total_ms))
                .num("recovery_ms", format_args!("{:.1}", o.recovery_ms)),
        );
    }
    write_json(&cli.out("BENCH_mux.json"), &rows);
}
