//! Spans and counts for the traced run.
//!
//! Everything here is recorded from the benchmark's own files, around its
//! calls into the product's public API; nothing inside the product is
//! touched. End-to-end metrics are always measured with tracing off: when
//! [`enable`] was not called, [`span`] is one relaxed load and a call.
//!
//! Spans sit in a pre-sized in-memory `Vec` and are written out when the
//! repetition ends.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use gridsim_net::{ctx, Packet, Sim, SimTime, TraceKind};
use gridsim_tcp::Segment;
use parking_lot::Mutex;

use crate::json::Value;

/// One call into a layer. `parent` is the span that caused it (0 = none);
/// the spans of one message, round trip or connect share `op`.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub op: u64,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    pub sim_start_ns: u64,
    pub sim_end_ns: u64,
}

impl Span {
    pub fn host_ns(&self) -> u64 {
        self.host_end_ns - self.host_start_ns
    }
    pub fn sim_ns(&self) -> u64 {
        self.sim_end_ns - self.sim_start_ns
    }
}

/// `op` of spans that belong to no single operation (joins, phases).
pub const NO_OP: u64 = u64::MAX;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();
/// The open phase span: parent of every span a task opens at top level.
static PHASE: AtomicU32 = AtomicU32::new(0);

thread_local! {
    /// Open spans of this thread (each simulated task is its own thread).
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Turn span recording on for the rest of the process.
pub fn enable(capacity: usize) {
    EPOCH.get_or_init(Instant::now);
    SPANS.lock().reserve(capacity);
    ENABLED.store(true, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn host_ns() -> u64 {
    EPOCH.get().expect("tracing enabled").elapsed().as_nanos() as u64
}

fn open(name: &'static str, op: u64, sim_ns: u64) -> u32 {
    let parent = OPEN
        .with(|o| o.borrow().last().copied())
        .unwrap_or_else(|| PHASE.load(Ordering::Relaxed));
    let id = {
        let mut spans = SPANS.lock();
        let id = spans.len() as u32 + 1;
        spans.push(Span {
            id,
            parent,
            name,
            op,
            host_start_ns: host_ns(),
            host_end_ns: 0,
            sim_start_ns: sim_ns,
            sim_end_ns: 0,
        });
        id
    };
    OPEN.with(|o| o.borrow_mut().push(id));
    id
}

fn close(id: u32, sim_ns: u64) {
    OPEN.with(|o| o.borrow_mut().pop());
    let end = host_ns();
    let mut spans = SPANS.lock();
    let s = &mut spans[id as usize - 1];
    s.host_end_ns = end;
    s.sim_end_ns = sim_ns;
}

/// Record a span around `f`, called from inside a simulated task.
#[inline]
pub fn span<R>(name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = open(name, op, ctx::now().as_nanos());
    let r = f();
    close(id, ctx::now().as_nanos());
    r
}

/// Like [`span`], for a call whose kind is known only when it returns (a
/// connect's establishment method): `f` also returns the name to record.
#[inline]
pub fn span_named<R>(op: u64, f: impl FnOnce() -> (R, &'static str)) -> R {
    if !enabled() {
        return f().0;
    }
    let id = open("", op, ctx::now().as_nanos());
    let (r, name) = f();
    close(id, ctx::now().as_nanos());
    SPANS.lock()[id as usize - 1].name = name;
    r
}

/// Record a span around one `sim.run()` phase, from the main thread. It
/// becomes the parent of the spans tasks open while it runs.
pub fn phase<R>(sim: &Sim, name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = open(name, NO_OP, sim.now().as_nanos());
    let outer = PHASE.swap(id, Ordering::Relaxed);
    let r = f();
    PHASE.store(outer, Ordering::Relaxed);
    close(id, sim.now().as_nanos());
    r
}

/// All spans recorded so far. A span still open (a drain daemon parked in
/// its last `receive`) is returned with zero length.
pub fn take_spans() -> Vec<Span> {
    let mut spans = std::mem::take(&mut *SPANS.lock());
    for s in spans.iter_mut().filter(|s| s.host_end_ns == 0) {
        s.host_end_ns = s.host_start_ns;
        s.sim_end_ns = s.sim_start_ns;
    }
    spans
}

/// Self time of each span on the host clock: its duration minus the part
/// of that interval its child spans cover. Children of one span may
/// overlap (tasks parked inside calls at the same time), so the covered
/// part is the union of the child intervals, clipped to the parent.
pub fn self_host_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != 0 {
            let p = &spans[s.parent as usize - 1];
            let lo = s.host_start_ns.max(p.host_start_ns);
            let hi = s.host_end_ns.min(p.host_end_ns);
            if lo < hi {
                children[s.parent as usize - 1].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if lo < hi {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.host_ns() - covered
        })
        .collect()
}

/// Spans as JSON, self time included.
pub fn spans_json(spans: &[Span]) -> Value {
    let own = self_host_ns(spans);
    Value::Arr(
        spans
            .iter()
            .zip(own)
            .map(|(s, own)| {
                let mut v = Value::obj()
                    .with("id", s.id as u64)
                    .with("parent", s.parent as u64)
                    .with("name", s.name);
                if s.op != NO_OP {
                    v.set("op", s.op);
                }
                v.with("host_start_ns", s.host_start_ns)
                    .with("host_end_ns", s.host_end_ns)
                    .with("host_self_ns", own)
                    .with("sim_start_ns", s.sim_start_ns)
                    .with("sim_end_ns", s.sim_end_ns)
            })
            .collect(),
    )
}

// ------------------------------------------------------------ allocations

/// Counting global allocator, armed only in the traced run. Disarmed it
/// costs one relaxed load per allocation.
pub struct CountingAlloc;

static ALLOC_ARMED: AtomicBool = AtomicBool::new(false);
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain atomics and allocate nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ALLOC_ARMED.load(Ordering::Relaxed) {
            ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ALLOC_ARMED.load(Ordering::Relaxed) {
            ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

pub fn arm_alloc_counter() {
    ALLOC_ARMED.store(true, Ordering::Relaxed);
}

/// (allocations, bytes requested) since the counter was armed.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOC_COUNT.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

// ---------------------------------------------------------------- packets

/// Packet dispositions seen by `World::set_tracer`, plus what the TCP
/// senders put on the wire.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PacketCounts {
    pub sent: u64,
    pub forwarded: u64,
    pub delivered: u64,
    pub drop_loss: u64,
    pub drop_queue: u64,
    pub drop_firewall: u64,
    pub drop_nat: u64,
    pub drop_other: u64,
    /// TCP segments carrying payload, as originated (`Sent`).
    pub data_segs: u64,
    pub data_seg_bytes: u64,
    /// TCP segments with ACK set and no payload, SYN or FIN.
    pub pure_acks: u64,
}

impl PacketCounts {
    pub fn since(&self, earlier: &PacketCounts) -> PacketCounts {
        PacketCounts {
            sent: self.sent - earlier.sent,
            forwarded: self.forwarded - earlier.forwarded,
            delivered: self.delivered - earlier.delivered,
            drop_loss: self.drop_loss - earlier.drop_loss,
            drop_queue: self.drop_queue - earlier.drop_queue,
            drop_firewall: self.drop_firewall - earlier.drop_firewall,
            drop_nat: self.drop_nat - earlier.drop_nat,
            drop_other: self.drop_other - earlier.drop_other,
            data_segs: self.data_segs - earlier.data_segs,
            data_seg_bytes: self.data_seg_bytes - earlier.data_seg_bytes,
            pure_acks: self.pure_acks - earlier.pure_acks,
        }
    }
}

/// Handle to the counts a world's tracer keeps.
#[derive(Clone, Default)]
pub struct PacketTap(Arc<Mutex<PacketCounts>>);

impl PacketTap {
    /// Install a counting tracer on this simulation's world. A pure
    /// observation: it draws no randomness and schedules nothing.
    pub fn install(sim: &Sim) -> PacketTap {
        let tap = PacketTap::default();
        let counts = Arc::clone(&tap.0);
        sim.net().with(move |w| {
            w.set_tracer(Box::new(
                move |_t: SimTime, kind: TraceKind, pkt: &Packet| {
                    let mut c = counts.lock();
                    match kind {
                        TraceKind::Sent => {
                            c.sent += 1;
                            if let Some(seg) = pkt.payload_as::<Segment>() {
                                if !seg.data.is_empty() {
                                    c.data_segs += 1;
                                    c.data_seg_bytes += seg.data.len() as u64;
                                } else if seg.flags.ack && !seg.flags.syn && !seg.flags.fin {
                                    c.pure_acks += 1;
                                }
                            }
                        }
                        TraceKind::Forwarded => c.forwarded += 1,
                        TraceKind::Delivered => c.delivered += 1,
                        TraceKind::DropLoss => c.drop_loss += 1,
                        TraceKind::DropQueue => c.drop_queue += 1,
                        TraceKind::DropFirewall => c.drop_firewall += 1,
                        TraceKind::DropNat => c.drop_nat += 1,
                        TraceKind::DropNoRoute
                        | TraceKind::DropNotLocal
                        | TraceKind::DropNoHandler
                        | TraceKind::DropLinkDown => c.drop_other += 1,
                    }
                },
            ));
        });
        tap
    }

    pub fn snapshot(&self) -> PacketCounts {
        *self.0.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u32, parent: u32, host: (u64, u64)) -> Span {
        Span {
            id,
            parent,
            name: "t",
            op: NO_OP,
            host_start_ns: host.0,
            host_end_ns: host.1,
            sim_start_ns: 0,
            sim_end_ns: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_union_of_children() {
        let spans = vec![
            s(1, 0, (0, 100)),  // root
            s(2, 1, (10, 30)),  // child
            s(3, 1, (20, 50)),  // overlaps child 2: union is 10..50
            s(4, 1, (60, 70)),  // disjoint
            s(5, 2, (12, 18)),  // grandchild: counts against 2, not 1
            s(6, 1, (90, 120)), // runs past the parent: clipped to 90..100
        ];
        let own = self_host_ns(&spans);
        assert_eq!(own[0], 100 - (40 + 10 + 10));
        assert_eq!(own[1], 20 - 6);
        assert_eq!(own[2], 30);
        assert_eq!(own[3], 10);
        assert_eq!(own[4], 6);
        assert_eq!(own[5], 30);
    }

    #[test]
    fn a_span_without_children_is_all_self_time() {
        let spans = vec![s(1, 0, (5, 25))];
        assert_eq!(self_host_ns(&spans), vec![20]);
        assert!(self_host_ns(&[]).is_empty());
    }

    #[test]
    fn span_json_carries_op_only_when_set() {
        let mut a = s(1, 0, (0, 10));
        a.op = 7;
        let v = spans_json(&[a, s(2, 1, (2, 4))]);
        assert_eq!(v.arr()[0].need_num("op"), Ok(7.0));
        assert_eq!(v.arr()[0].need_num("host_self_ns"), Ok(8.0));
        assert!(v.arr()[1].get("op").is_none());
    }
}
