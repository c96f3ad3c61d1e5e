//! `grid_mesh`: the E7 four-site deployment. The Fig. 4 walk, the name
//! service, relay service links and forwarding, SOCKS, NAT and firewall
//! state do the work and the datapath kernels almost none. Phase `churn`
//! is establishment after establishment; phase `bulk` moves data over all
//! twelve ordered pairs at once, three of them through the relay.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gridsim_net::ctx;
use netgrid::{EstablishMethod, GridNode, SendPort, StackSpec};
use parking_lot::Mutex;

use super::{traced_connect, Harness, Rep, Slot};
use crate::check::{Content, Payloads, Verifier};
use crate::trace;
use crate::worlds::{self, e7_method, MESH_SITES};

const SITES: usize = MESH_SITES.len();
/// connect → one message → close, per ordered pair.
const CHURN_PER_PAIR: u32 = 50;
/// Size of the message each churn connection carries, bytes.
const CHURN_MSG: usize = 64;
/// Messages per ordered pair in the bulk phase (≈4 MiB per pair).
const BULK_PER_PAIR: u32 = 256;
/// Bulk message size, bytes.
const BULK_MSG: usize = 16 * 1024;

/// Ordered pairs `(from, to)`, `from != to`, in a fixed order.
fn pairs() -> impl Iterator<Item = (usize, usize)> {
    (0..SITES).flat_map(|i| (0..SITES).filter(move |&j| j != i).map(move |j| (i, j)))
}

/// Stream id of an ordered pair's churn messages; its bulk messages use
/// `BULK_BASE +` that, so the drains can tell the phases apart.
fn stream_of(from: usize, to: usize) -> u32 {
    (from * SITES + to) as u32
}
const BULK_BASE: u32 = (SITES * SITES) as u32;

fn port_of(site: usize) -> String {
    format!("port-{}", MESH_SITES[site])
}

/// One establishment of the churn phase. Ordered by pair, then turn, so
/// the list is the same whatever order the tasks finished in.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Connect {
    stream: u32,
    turn: u32,
    method: EstablishMethod,
    sim_ns: u64,
}

/// What the receive side of every node shares.
struct Sink {
    churn: Payloads,
    bulk: Payloads,
    churn_check: Mutex<Verifier>,
    bulk_check: Mutex<Verifier>,
    /// Send time of each bulk message, by `[pair][seq]`.
    bulk_sent_at: Vec<Vec<AtomicU64>>,
    bulk_lat: Mutex<Vec<u64>>,
    last_recv: AtomicU64,
}

pub fn run(seed: u64) -> Rep {
    let h = Harness::new(seed);
    let mesh = worlds::e7_mesh(&h.sim);

    // Messages expected per stream id: churn streams first, bulk above.
    let expect = |base: u32, per_pair: u32| -> Vec<u32> {
        let mut v = vec![0; 2 * SITES * SITES];
        for (i, j) in pairs() {
            v[(base + stream_of(i, j)) as usize] = per_pair;
        }
        v
    };
    let sink = Arc::new(Sink {
        churn: Payloads::new(seed, CHURN_MSG, Content::Random),
        bulk: Payloads::new(seed ^ 1, BULK_MSG, Content::Random),
        churn_check: Mutex::new(Verifier::new(&expect(0, CHURN_PER_PAIR))),
        bulk_check: Mutex::new(Verifier::new(&expect(BULK_BASE, BULK_PER_PAIR))),
        bulk_sent_at: (0..SITES * SITES)
            .map(|_| (0..BULK_PER_PAIR).map(|_| AtomicU64::new(0)).collect())
            .collect(),
        bulk_lat: Mutex::new(Vec::new()),
        last_recv: AtomicU64::new(0),
    });

    // Every node joins, publishes its port and starts draining it.
    let nodes: Vec<Slot<GridNode>> = (0..SITES).map(|_| Slot::default()).collect();
    for (i, (host, profile)) in mesh.hosts.iter().zip(&mesh.profiles).enumerate() {
        let (env, host, profile) = (mesh.env.clone(), host.clone(), profile.clone());
        let (slot, sink) = (nodes[i].clone(), Arc::clone(&sink));
        h.sim.spawn(format!("join-{}", MESH_SITES[i]), move || {
            let node = trace::span("join", trace::NO_OP, || {
                GridNode::join(&env, host, MESH_SITES[i], profile).expect("node joins")
            });
            let rp = trace::span("create_receive_port", trace::NO_OP, || {
                node.create_receive_port(&port_of(i), StackSpec::plain())
                    .expect("port registers")
            });
            slot.put(node);
            ctx::handle().spawn_daemon(format!("drain-{}", MESH_SITES[i]), move || {
                while let Ok(m) = trace::span("receive", trace::NO_OP, || rp.receive()) {
                    let now = ctx::now().as_nanos();
                    let msg = m.as_slice();
                    let is_bulk = msg.len() >= 4
                        && u32::from_le_bytes(msg[..4].try_into().expect("4 bytes")) >= BULK_BASE;
                    if !is_bulk {
                        sink.churn_check.lock().check(&sink.churn, msg);
                        continue;
                    }
                    if let Some((s, seq)) = sink.bulk_check.lock().check(&sink.bulk, msg) {
                        let sent = &sink.bulk_sent_at[(s - BULK_BASE) as usize][seq as usize];
                        sink.bulk_lat
                            .lock()
                            .push(now - sent.load(Ordering::Relaxed));
                    }
                    sink.last_recv.store(now, Ordering::Relaxed);
                }
            });
        });
    }
    h.setup("join");
    let nodes: Vec<GridNode> = nodes.iter().map(Slot::take).collect();

    // Phase 1: on every ordered pair, connect → one message → close, over
    // and over. Each close tears the pair's link down, so each connect
    // walks Fig. 4 afresh.
    let connects: Arc<Mutex<Vec<Connect>>> = Arc::new(Mutex::new(Vec::new()));
    let errors = Arc::new(AtomicU64::new(0));
    let churn_span = Arc::new(Mutex::new((u64::MAX, 0u64)));
    for (i, j) in pairs() {
        let node = nodes[i].clone();
        let (sink, connects, errors, churn_span) = (
            Arc::clone(&sink),
            Arc::clone(&connects),
            Arc::clone(&errors),
            Arc::clone(&churn_span),
        );
        h.sim.spawn(
            format!("churn-{}-{}", MESH_SITES[i], MESH_SITES[j]),
            move || {
                let mut src = sink.churn.source();
                let stream = stream_of(i, j);
                let start = ctx::now().as_nanos();
                for k in 0..CHURN_PER_PAIR {
                    let op = (stream as u64) << 32 | k as u64;
                    let t0 = ctx::now().as_nanos();
                    let mut sp = node.create_send_port();
                    let Ok(method) = traced_connect(&mut sp, &port_of(j), op) else {
                        errors.fetch_add(1, Ordering::Relaxed);
                        continue;
                    };
                    connects.lock().push(Connect {
                        stream,
                        turn: k,
                        method,
                        sim_ns: ctx::now().as_nanos() - t0,
                    });
                    let msg = src.message(stream, k);
                    let sent = trace::span("send", op, || sp.send(msg));
                    let closed = trace::span("close", op, || sp.close());
                    if sent.is_err() || closed.is_err() {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
                let mut span = churn_span.lock();
                span.0 = span.0.min(start);
                span.1 = span.1.max(ctx::now().as_nanos());
            },
        );
    }
    let mut churn = h.timed("churn");
    let mut connects = std::mem::take(&mut *connects.lock());
    connects.sort_unstable();
    churn.ops = (pairs().count() as u32 * CHURN_PER_PAIR) as u64;
    // Churn connections are separate channels: exactly-once is promised
    // across them, arrival order is not.
    churn.failed_ops =
        (sink.churn_check.lock().failed(false) + errors.load(Ordering::Relaxed)).min(churn.ops);
    churn.bytes = churn.ops * CHURN_MSG as u64;
    let span = *churn_span.lock();
    churn.sim_ns = span.1.saturating_sub(span.0);
    churn.lat_ns = connects.iter().map(|c| c.sim_ns).collect();
    churn.lat_ns.sort_unstable();
    churn.senders = pairs().count() as u32;
    churn.receivers = SITES as u32;
    let mut methods: Vec<EstablishMethod> = connects.iter().map(|c| c.method).collect();
    let mut fallbacks = connects
        .iter()
        .filter(|c| c.method != e7_method(c.stream as usize / SITES, c.stream as usize % SITES))
        .count() as u64;

    // Phase 2: all pairs move data at once. Connect first, untimed.
    let ports: Vec<Slot<SendPort>> = pairs().map(|_| Slot::default()).collect();
    let bulk_methods = Arc::new(Mutex::new(Vec::new()));
    for (p, (i, j)) in pairs().enumerate() {
        let node = nodes[i].clone();
        let (slot, bulk_methods) = (ports[p].clone(), Arc::clone(&bulk_methods));
        h.sim.spawn(format!("connect-{p}"), move || {
            let mut sp = node.create_send_port();
            let op = (BULK_BASE as u64 + stream_of(i, j) as u64) << 32;
            let m = traced_connect(&mut sp, &port_of(j), op).expect("bulk pair connects");
            bulk_methods.lock().push((stream_of(i, j), m));
            slot.put(sp);
        });
    }
    h.setup("establish");
    let mut bulk_methods = std::mem::take(&mut *bulk_methods.lock());
    bulk_methods.sort_unstable();
    fallbacks += bulk_methods
        .iter()
        .filter(|(s, m)| *m != e7_method(*s as usize / SITES, *s as usize % SITES))
        .count() as u64;
    methods.extend(bulk_methods.iter().map(|(_, m)| *m));

    let errors = Arc::new(AtomicU64::new(0));
    let first_send = Arc::new(AtomicU64::new(u64::MAX));
    for (p, (i, j)) in pairs().enumerate() {
        let mut sp = ports[p].take();
        let (sink, errors, first_send, back) = (
            Arc::clone(&sink),
            Arc::clone(&errors),
            Arc::clone(&first_send),
            ports[p].clone(),
        );
        h.sim.spawn(format!("bulk-{p}"), move || {
            let mut src = sink.bulk.source();
            let stream = BULK_BASE + stream_of(i, j);
            first_send.fetch_min(ctx::now().as_nanos(), Ordering::Relaxed);
            for k in 0..BULK_PER_PAIR {
                sink.bulk_sent_at[stream_of(i, j) as usize][k as usize]
                    .store(ctx::now().as_nanos(), Ordering::Relaxed);
                let msg = src.message(stream, k);
                let op = (stream as u64) << 32 | k as u64;
                if trace::span("send", op, || sp.send(msg)).is_err() {
                    errors.fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
            back.put(sp);
        });
    }
    let mut bulk = h.timed("bulk");
    bulk.ops = (pairs().count() as u32 * BULK_PER_PAIR) as u64;
    bulk.failed_ops = sink
        .bulk_check
        .lock()
        .failed(true)
        .max(errors.load(Ordering::Relaxed));
    bulk.bytes = bulk.ops * BULK_MSG as u64;
    bulk.sim_ns = sink
        .last_recv
        .load(Ordering::Relaxed)
        .saturating_sub(first_send.load(Ordering::Relaxed));
    bulk.lat_ns = std::mem::take(&mut *sink.bulk_lat.lock());
    bulk.lat_ns.sort_unstable();
    bulk.senders = pairs().count() as u32;
    bulk.receivers = SITES as u32;

    for slot in &ports {
        let sp = slot.take();
        h.sim.spawn("close", move || {
            let _ = trace::span("close", trace::NO_OP, || sp.close());
        });
    }
    h.setup("teardown");

    Rep {
        op_phase: 0,
        byte_phase: 1,
        phases: vec![churn, bulk],
        methods,
        fallbacks,
        compressed: false,
        secure: false,
    }
}
