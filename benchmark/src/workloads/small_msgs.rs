//! `small_msgs`: per-message cost is everything and bytes nothing. Two
//! firewalled sites on the lossy Amsterdam–Rennes path, spliced via the
//! relay. Phase `pingpong` is a closed loop of small round trips over a
//! ping port and a pong port, one outstanding; phase `stream` pushes small
//! one-way messages. The two pull opposite ways on any batching or flush
//! change, and the loss puts RTO recovery in the latency tail.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gridsim_net::ctx;
use netgrid::{CpuRates, GridNode, ReceivePort, SendPort, StackSpec};
use parking_lot::Mutex;

use super::{one_way, traced_connect, Harness, Rep, Slot};
use crate::check::{Content, Payloads, Verifier};
use crate::trace;
use crate::worlds::{self, SiteKind};

const ROUND_TRIPS: u32 = 24_000;
/// Ping and pong size, bytes.
const PING_SIZE: usize = 256;
const STREAM_MSGS: u32 = 48_000;
/// Streamed message size, bytes.
const STREAM_SIZE: usize = 1024;
const KIND: SiteKind = SiteKind::Firewalled;

/// One node's ends of the two channels.
struct Ends {
    tx: SendPort,
    rx: ReceivePort,
}

pub fn run(seed: u64) -> Rep {
    let pings = Arc::new(Payloads::new(seed, PING_SIZE, Content::Random));
    let streamed = Arc::new(Payloads::new(seed ^ 1, STREAM_SIZE, Content::Random));
    let h = Harness::new(seed);
    let world = worlds::two_sites(
        &h.sim,
        worlds::AMSTERDAM_RENNES,
        KIND,
        64 * 1024,
        CpuRates::default(),
    );
    let (profile_a, profile_b) = KIND.profiles();

    // Both nodes join and publish a port, then each connects to the
    // other's: "ping" carries left → right, "pong" right → left.
    let left: Slot<Ends> = Slot::default();
    let right: Slot<Ends> = Slot::default();
    for (name, host, profile, port, slot) in [
        ("left", world.a, profile_a, "pong", left.clone()),
        ("right", world.b, profile_b, "ping", right.clone()),
    ] {
        let env = world.env.clone();
        h.sim.spawn(format!("join-{name}"), move || {
            let node = trace::span("join", trace::NO_OP, || {
                GridNode::join(&env, host, name, profile).expect("node joins")
            });
            let rx = trace::span("create_receive_port", trace::NO_OP, || {
                node.create_receive_port(port, StackSpec::plain())
                    .expect("port registers")
            });
            slot.put(Ends {
                tx: node.create_send_port(),
                rx,
            });
        });
    }
    h.setup("join");
    let methods = Arc::new(Mutex::new(Vec::new()));
    for (i, (peer_port, slot)) in [("ping", left.clone()), ("pong", right.clone())]
        .into_iter()
        .enumerate()
    {
        let mut ends = slot.take();
        let methods = Arc::clone(&methods);
        h.sim.spawn(format!("connect-{peer_port}"), move || {
            let m = traced_connect(&mut ends.tx, peer_port, i as u64).expect("connects");
            methods.lock().push((i, m));
            slot.put(ends);
        });
    }
    h.setup("establish");

    // Phase 1: closed-loop round trips, one outstanding.
    let n = ROUND_TRIPS;
    let verifier = Arc::new(Mutex::new(Verifier::new(&[n, n])));
    let lat = Arc::new(Mutex::new(Vec::new()));
    let span_ns = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    {
        let mut ends = left.take();
        let (pings, verifier, lat, span_ns, errors, back) = (
            Arc::clone(&pings),
            Arc::clone(&verifier),
            Arc::clone(&lat),
            Arc::clone(&span_ns),
            Arc::clone(&errors),
            left.clone(),
        );
        h.sim.spawn("pinger", move || {
            let mut src = pings.source();
            let mut seen = Vec::with_capacity(n as usize);
            let start = ctx::now().as_nanos();
            for i in 0..n {
                let t0 = ctx::now().as_nanos();
                let msg = src.message(0, i);
                let sent = trace::span("send", i as u64, || ends.tx.send(msg));
                let got = trace::span("receive", i as u64, || ends.rx.receive());
                match (sent, got) {
                    (Ok(()), Ok(m)) => {
                        verifier.lock().check(&pings, m.as_slice());
                        seen.push(ctx::now().as_nanos() - t0);
                    }
                    _ => {
                        errors.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                }
            }
            span_ns.store(ctx::now().as_nanos() - start, Ordering::Relaxed);
            *lat.lock() = seen;
            back.put(ends);
        });
    }
    {
        let mut ends = right.take();
        let (pings, verifier, errors, back) = (
            Arc::clone(&pings),
            Arc::clone(&verifier),
            Arc::clone(&errors),
            right.clone(),
        );
        h.sim.spawn("ponger", move || {
            let mut src = pings.source();
            for i in 0..n {
                let Ok(m) = trace::span("receive", i as u64, || ends.rx.receive()) else {
                    errors.fetch_add(1, Ordering::Relaxed);
                    break;
                };
                verifier.lock().check(&pings, m.as_slice());
                let msg = src.message(1, i);
                if trace::span("send", i as u64, || ends.tx.send(msg)).is_err() {
                    errors.fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
            back.put(ends);
        });
    }
    let mut pingpong = h.timed("pingpong");
    pingpong.ops = n as u64;
    pingpong.failed_ops =
        (verifier.lock().failed(true) + errors.load(Ordering::Relaxed)).min(n as u64);
    pingpong.bytes = 2 * n as u64 * PING_SIZE as u64;
    pingpong.sim_ns = span_ns.load(Ordering::Relaxed);
    pingpong.lat_ns = std::mem::take(&mut *lat.lock());
    pingpong.lat_ns.sort_unstable();
    pingpong.senders = 2;
    pingpong.receivers = 2;

    // Phase 2: one-way stream of small messages over the ping channel.
    let (l, r) = (left.take(), right.take());
    let (stream, (tx, rx)) = one_way(
        &h,
        "stream",
        (l.tx, r.rx),
        &streamed,
        STREAM_MSGS,
        STREAM_SIZE,
    );
    let (l, r) = (Ends { tx, ..l }, Ends { rx, ..r });

    // Senders close first, so no receive port vanishes under a live link.
    {
        h.sim.spawn("close", move || {
            let _ = trace::span("close", trace::NO_OP, || l.tx.close());
            let _ = trace::span("close", trace::NO_OP, || r.tx.close());
            l.rx.close();
            r.rx.close();
        });
    }
    h.setup("teardown");

    let mut methods = std::mem::take(&mut *methods.lock());
    methods.sort_unstable();
    let methods: Vec<_> = methods.into_iter().map(|(_, m)| m).collect();
    Rep {
        op_phase: 0,
        byte_phase: 1,
        phases: vec![pingpong, stream],
        fallbacks: methods
            .iter()
            .filter(|m| **m != KIND.expected_method())
            .count() as u64,
        methods,
        compressed: false,
        secure: false,
    }
}
