//! The five workloads. Each `run` is one repetition: it builds a fresh
//! simulated world from the seed, drives a fixed amount of work through
//! the product's public API in a closed loop, checks every delivery, and
//! returns what it measured on both clocks.
//!
//! Sizes are fixed here and never scaled to the machine: host-clock
//! numbers from two commits are comparable because the work is the same.

pub mod bulk;
pub mod grid_mesh;
pub mod small_msgs;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use gridsim_net::{ctx, LinkDirId, Sim};
use netgrid::{EstablishMethod, ReceivePort, SendPort};
use parking_lot::Mutex;

use crate::check::{Payloads, Verifier};
use crate::sys;
use crate::trace::{self, PacketCounts, PacketTap};

/// Names are final: later issues cite `metric@workload`.
pub const NAMES: [&str; 5] = [
    "bulk_plain",
    "bulk_bigwin",
    "wan_integrated",
    "small_msgs",
    "grid_mesh",
];

/// Run one repetition of the named workload.
pub fn run(name: &str, seed: u64) -> Option<Rep> {
    Some(match name {
        "bulk_plain" => bulk::run(&bulk::plain(), seed),
        "bulk_bigwin" => bulk::run(&bulk::bigwin(), seed),
        "wan_integrated" => bulk::run(&bulk::wan_integrated(), seed),
        "small_msgs" => small_msgs::run(seed),
        "grid_mesh" => grid_mesh::run(seed),
        _ => return None,
    })
}

/// What one timed phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    pub name: &'static str,
    /// Operations attempted: messages, round trips or connects.
    pub ops: u64,
    /// Operations that failed, or were lost, duplicated, corrupted or
    /// (where FIFO is promised) reordered.
    pub failed_ops: u64,
    /// Application bytes delivered.
    pub bytes: u64,
    /// Process CPU time of the phase's `sim.run()`.
    pub cpu_ns: u64,
    pub wall_ns: u64,
    /// Simulated time from the first operation's start to the last one's
    /// completion.
    pub sim_ns: u64,
    /// Simulated latency of every operation, ascending.
    pub lat_ns: Vec<u64>,
    /// Tasks that send / receive concurrently (for the span shares).
    pub senders: u32,
    pub receivers: u32,
    /// Counts taken at the phase boundaries; traced run only.
    pub traced: Option<PhaseCounts>,
}

/// Counts between the two boundaries of a timed phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseCounts {
    pub packets: PacketCounts,
    /// Wire bytes the busiest link direction carried, and its capacity.
    pub busiest_link_bytes: u64,
    pub busiest_link_bps: f64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// What one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Phase whose operations `host_us_per_op` and the latency
    /// percentiles describe, and phase whose bytes `host_mbps` and
    /// `sim_goodput_mbps` describe (the same one for single-phase
    /// workloads).
    pub op_phase: usize,
    pub byte_phase: usize,
    pub phases: Vec<Phase>,
    /// Establishment method of every connect, in a deterministic order.
    pub methods: Vec<EstablishMethod>,
    /// Connects whose method differs from the one the deployment's
    /// matrix records.
    pub fallbacks: u64,
    /// Whether the driver stack compresses / encrypts (for the ladder).
    pub compressed: bool,
    pub secure: bool,
}

/// The four establishment methods: the key their counts and latencies
/// are reported under, and the name of a connect span that ended so.
pub const METHODS: [(EstablishMethod, &str, &str); 4] = [
    (
        EstablishMethod::ClientServer,
        "clientserver",
        "connect.clientserver",
    ),
    (EstablishMethod::Splicing, "splicing", "connect.splicing"),
    (EstablishMethod::Proxy, "proxy", "connect.proxy"),
    (EstablishMethod::Routed, "routed", "connect.routed"),
];

/// `SendPort::connect` under a span named after the method it returns.
pub fn traced_connect(sp: &mut SendPort, port: &str, op: u64) -> std::io::Result<EstablishMethod> {
    trace::span_named(op, || {
        let r = sp.connect(port);
        let name = r.as_ref().map_or("connect.failed", |m| {
            let known = METHODS.iter().find(|(method, ..)| method == m);
            known.expect("all four methods are listed").2
        });
        (r, name)
    })
}

/// The timed phase `name`: one sender streams messages `0..n` of stream 0
/// of `payloads` through `tx`, one receiver takes them from `rx` and checks
/// each. Hands the ports back with what the phase measured.
pub fn one_way(
    h: &Harness,
    name: &'static str,
    (mut tx, rx): (SendPort, ReceivePort),
    payloads: &Arc<Payloads>,
    n: u32,
    msg_size: usize,
) -> (Phase, (SendPort, ReceivePort)) {
    let sent_at: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
    let verifier = Arc::new(Mutex::new(Verifier::new(&[n])));
    let lat = Arc::new(Mutex::new(Vec::new()));
    let last_recv = Arc::new(AtomicU64::new(0));
    let send_errors = Arc::new(AtomicU64::new(0));
    let tx_back: Slot<SendPort> = Slot::default();
    let rx_back: Slot<ReceivePort> = Slot::default();
    {
        let (payloads, verifier, lat, sent_at, last_recv, back) = (
            Arc::clone(payloads),
            Arc::clone(&verifier),
            Arc::clone(&lat),
            Arc::clone(&sent_at),
            Arc::clone(&last_recv),
            rx_back.clone(),
        );
        h.sim.spawn("receiver", move || {
            let mut seen = Vec::with_capacity(n as usize);
            for i in 0..n {
                let Ok(m) = trace::span("receive", i as u64, || rx.receive()) else {
                    break;
                };
                let now = ctx::now().as_nanos();
                if let Some((_, seq)) = verifier.lock().check(&payloads, m.as_slice()) {
                    seen.push(now - sent_at[seq as usize].load(Ordering::Relaxed));
                }
                last_recv.store(now, Ordering::Relaxed);
            }
            *lat.lock() = seen;
            back.put(rx);
        });
    }
    {
        let (payloads, sent_at, errors, back) = (
            Arc::clone(payloads),
            Arc::clone(&sent_at),
            Arc::clone(&send_errors),
            tx_back.clone(),
        );
        h.sim.spawn("sender", move || {
            let mut src = payloads.source();
            for i in 0..n {
                sent_at[i as usize].store(ctx::now().as_nanos(), Ordering::Relaxed);
                let msg = src.message(0, i);
                if trace::span("send", i as u64, || tx.send(msg)).is_err() {
                    errors.fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
            back.put(tx);
        });
    }
    let mut phase = h.timed(name);
    phase.ops = n as u64;
    // A failed send shows as missing messages too: count it once.
    phase.failed_ops = verifier
        .lock()
        .failed(true)
        .max(send_errors.load(Ordering::Relaxed));
    phase.bytes = n as u64 * msg_size as u64;
    phase.sim_ns = last_recv
        .load(Ordering::Relaxed)
        .saturating_sub(sent_at[0].load(Ordering::Relaxed));
    phase.lat_ns = std::mem::take(&mut *lat.lock());
    phase.lat_ns.sort_unstable();
    phase.senders = 1;
    phase.receivers = 1;
    (phase, (tx_back.take(), rx_back.take()))
}

/// A value handed from one `sim.run()` phase to the next.
pub struct Slot<T>(Arc<Mutex<Option<T>>>);

impl<T> Clone for Slot<T> {
    fn clone(&self) -> Self {
        Slot(Arc::clone(&self.0))
    }
}

impl<T> Default for Slot<T> {
    fn default() -> Self {
        Slot(Arc::new(Mutex::new(None)))
    }
}

impl<T> Slot<T> {
    pub fn put(&self, v: T) {
        *self.0.lock() = Some(v);
    }
    pub fn take(&self) -> T {
        self.0
            .lock()
            .take()
            .expect("an earlier phase filled the slot")
    }
}

/// Drives one simulation through named phases and measures the timed ones.
pub struct Harness {
    pub sim: Sim,
    tap: Option<PacketTap>,
}

impl Harness {
    pub fn new(seed: u64) -> Harness {
        let sim = Sim::new(seed);
        let tap = trace::enabled().then(|| PacketTap::install(&sim));
        Harness { sim, tap }
    }

    /// Run until idle, untimed (lands in `setup_s`).
    pub fn setup(&self, name: &'static str) {
        trace::phase(&self.sim, name, || self.sim.run());
    }

    /// Run until idle, timed on the host clocks. The caller fills in what
    /// the tasks measured on the simulated clock.
    pub fn timed(&self, name: &'static str) -> Phase {
        let before = self.tap.as_ref().map(|t| (t.snapshot(), self.link_bytes()));
        let allocs0 = trace::alloc_counts();
        let wall0 = Instant::now();
        let cpu0 = sys::process_cpu_ns();
        trace::phase(&self.sim, name, || self.sim.run());
        let cpu_ns = sys::process_cpu_ns() - cpu0;
        let wall_ns = wall0.elapsed().as_nanos() as u64;
        let allocs1 = trace::alloc_counts();
        let traced = before.map(|(packets0, links0)| {
            let tap = self.tap.as_ref().expect("tap installed");
            // Busiest = highest carried share of its own capacity.
            let (bytes, bps) = self
                .link_bytes()
                .into_iter()
                .zip(links0)
                .map(|((b1, bps), (b0, _))| (b1 - b0, bps))
                .max_by(|a, b| (a.0 as f64 / a.1).total_cmp(&(b.0 as f64 / b.1)))
                .unwrap_or((0, 1.0));
            PhaseCounts {
                packets: tap.snapshot().since(&packets0),
                busiest_link_bytes: bytes,
                busiest_link_bps: bps,
                allocs: allocs1.0 - allocs0.0,
                alloc_bytes: allocs1.1 - allocs0.1,
            }
        });
        Phase {
            name,
            cpu_ns,
            wall_ns,
            traced,
            ..Phase::default()
        }
    }

    /// (wire bytes sent, capacity in bytes/s) of every link direction.
    fn link_bytes(&self) -> Vec<(u64, f64)> {
        self.sim.net().with(|w| {
            (0..w.n_link_dirs())
                .map(|i| {
                    let id = LinkDirId(i);
                    (
                        w.link_stats(id).tx_bytes,
                        w.link_mut(id).params.bandwidth_bps,
                    )
                })
                .collect()
        })
    }
}
