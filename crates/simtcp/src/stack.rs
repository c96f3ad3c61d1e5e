//! Per-host TCP stack: the connection table, listeners, ephemeral ports and
//! the glue between [`crate::tcb::Tcb`] state machines and the simulated
//! world (packet emission, timer scheduling, RSTs for unknown tuples).

use bytes::Bytes;
use gridsim_net::{proto, Ip, NodeId, Packet, SockAddr, Waker, World};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::sync::Arc;

use crate::seg::{Flags, Segment};
use crate::tcb::{Tcb, TcpConfig};

/// Identifier of a connection within one host's stack.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ConnId(pub u64);

/// First ephemeral port. NAT external ports start at 40000, so the ranges
/// never collide.
const EPHEMERAL_BASE: u16 = 10_000;
const EPHEMERAL_SPAN: u16 = 20_000;

/// A passive listener.
pub struct ListenerState {
    pub backlog: usize,
    pub pending: VecDeque<ConnId>,
    pub accept_wakers: Vec<Waker>,
    pub closed: bool,
}

/// Per-host protocol state, stored in the world via
/// [`World::take_proto_state`] under protocol number 6.
pub struct TcpHost {
    pub node: NodeId,
    pub default_cfg: TcpConfig,
    next_conn: u64,
    next_iss: u64,
    next_ephemeral: u16,
    pub conns: HashMap<ConnId, Tcb>,
    by_tuple: HashMap<(SockAddr, SockAddr), ConnId>,
    pub listeners: HashMap<u16, ListenerState>,
    bound_ports: HashSet<u16>,
    /// Recycled segment boxes: every received packet returns its payload
    /// box here, and every emitted segment takes one, so at steady state
    /// the data/ACK round trip allocates nothing. Bounded so a one-off
    /// burst cannot pin memory forever. The boxes themselves are the
    /// pooled resource — they become `Packet` payloads as-is — so
    /// flattening to `Vec<Segment>` would defeat the recycling.
    #[allow(clippy::vec_box)]
    seg_pool: Vec<Box<Segment>>,
    /// Scratch buffer for draining `Tcb::out` without reallocating the
    /// per-connection vector on every flush.
    out_scratch: Vec<Segment>,
}

impl TcpHost {
    pub fn new(node: NodeId) -> TcpHost {
        TcpHost {
            node,
            default_cfg: TcpConfig::default(),
            next_conn: 0,
            next_iss: 1_000_000,
            next_ephemeral: EPHEMERAL_BASE,
            conns: HashMap::new(),
            by_tuple: HashMap::new(),
            listeners: HashMap::new(),
            bound_ports: HashSet::new(),
            seg_pool: Vec::new(),
            out_scratch: Vec::new(),
        }
    }

    /// Box `seg`, reusing a pooled allocation when one is available.
    fn boxed_seg(&mut self, seg: Segment) -> Box<Segment> {
        match self.seg_pool.pop() {
            Some(mut b) => {
                *b = seg;
                b
            }
            None => Box::new(seg),
        }
    }

    /// Return a payload box to the pool (best effort, bounded).
    fn recycle(&mut self, pkt: Packet) {
        if self.seg_pool.len() < 4096 {
            if let Some(b) = pkt.take_payload::<Segment>() {
                self.seg_pool.push(b);
            }
        }
    }

    /// Install the global TCP dispatcher on a world (idempotent).
    pub fn register_dispatch(w: &mut World) {
        if w.proto_registered(proto::TCP) {
            return;
        }
        w.register_proto(
            proto::TCP,
            Arc::new(|w: &mut World, node: NodeId, pkt: Packet| {
                with_host(w, node, |host, w| host.on_packet(w, pkt));
            }),
        );
    }

    fn alloc_iss(&mut self) -> u64 {
        self.next_iss += 64_000;
        self.next_iss
    }

    fn alloc_conn(&mut self) -> ConnId {
        self.next_conn += 1;
        ConnId(self.next_conn)
    }

    /// Allocate an ephemeral port not currently bound or in use towards any
    /// peer. Exhaustion is a retryable condition, not a crash: a connection
    /// storm that burns through the span gets `AddrInUse` and can back off
    /// until closes recycle ports.
    pub fn alloc_ephemeral(&mut self, local_ip: Ip) -> io::Result<u16> {
        for _ in 0..EPHEMERAL_SPAN {
            let p = self.next_ephemeral;
            self.next_ephemeral = if self.next_ephemeral >= EPHEMERAL_BASE + EPHEMERAL_SPAN - 1 {
                EPHEMERAL_BASE
            } else {
                self.next_ephemeral + 1
            };
            let used = self.bound_ports.contains(&p)
                || self
                    .by_tuple
                    .keys()
                    .any(|(l, _)| l.port == p && (l.ip == local_ip || l.ip.is_unspecified()));
            if !used {
                return Ok(p);
            }
        }
        Err(io::Error::new(
            io::ErrorKind::AddrInUse,
            format!("ephemeral port space exhausted on node {:?}", self.node),
        ))
    }

    // ---------------- outbound API used by sockets ----------------

    /// Start an active open. Returns the new connection id.
    pub fn start_connect(
        &mut self,
        w: &mut World,
        cfg: TcpConfig,
        local: SockAddr,
        remote: SockAddr,
    ) -> io::Result<ConnId> {
        let tuple = (local, remote);
        if self.by_tuple.contains_key(&tuple) {
            return Err(io::ErrorKind::AddrInUse.into());
        }
        let id = self.alloc_conn();
        let iss = self.alloc_iss();
        let tcb = Tcb::client(cfg, local, remote, iss, w.sched().now());
        self.by_tuple.insert(tuple, id);
        self.conns.insert(id, tcb);
        self.flush_conn(w, id);
        Ok(id)
    }

    /// Open a listener.
    pub fn start_listen(&mut self, port: u16, backlog: usize) -> io::Result<()> {
        if self.listeners.contains_key(&port) || self.bound_ports.contains(&port) {
            return Err(io::ErrorKind::AddrInUse.into());
        }
        self.listeners.insert(
            port,
            ListenerState {
                backlog,
                pending: VecDeque::new(),
                accept_wakers: Vec::new(),
                closed: false,
            },
        );
        Ok(())
    }

    /// Tear down a listener; pending un-accepted connections are aborted.
    pub fn close_listener(&mut self, w: &mut World, port: u16) {
        if let Some(mut l) = self.listeners.remove(&port) {
            l.closed = true;
            for w2 in l.accept_wakers.drain(..) {
                w2.wake();
            }
            let pending: Vec<ConnId> = l.pending.drain(..).collect();
            for id in pending {
                if let Some(tcb) = self.conns.get_mut(&id) {
                    tcb.abort();
                }
                self.flush_conn(w, id);
            }
        }
    }

    // ---------------- packet path ----------------

    fn on_packet(&mut self, w: &mut World, pkt: Packet) {
        let Some(seg) = pkt.payload_as::<Segment>() else {
            return; // not a TCP segment; ignore
        };
        let seg = seg.clone();
        let local = pkt.dst;
        let remote = pkt.src;
        self.recycle(pkt);
        // Exact tuple match first; then a wildcard-bound local IP.
        let id = self
            .by_tuple
            .get(&(local, remote))
            .or_else(|| {
                self.by_tuple
                    .get(&(SockAddr::new(Ip::UNSPECIFIED, local.port), remote))
            })
            .copied();
        if let Some(id) = id {
            let now = w.sched().now();
            if let Some(tcb) = self.conns.get_mut(&id) {
                let was_established = tcb.is_established();
                tcb.on_segment(now, seg);
                if tcb.take_established() && !was_established {
                    self.notify_established(id, local.port);
                }
            }
            self.flush_conn(w, id);
            self.reap(id);
            return;
        }
        // No connection: maybe a listener?
        if seg.flags.syn && !seg.flags.ack {
            let listener_room = self
                .listeners
                .get(&local.port)
                .map(|l| !l.closed && l.pending.len() < l.backlog);
            match listener_room {
                Some(true) => {
                    let id = self.alloc_conn();
                    let iss = self.alloc_iss();
                    let cfg = self.default_cfg;
                    let now = w.sched().now();
                    let mut tcb = Tcb::server(cfg, local, remote, iss, &seg, now);
                    tcb.from_listener = Some(local.port);
                    self.by_tuple.insert((local, remote), id);
                    self.conns.insert(id, tcb);
                    self.flush_conn(w, id);
                    return;
                }
                // Backlog overflow: silently drop (the client retries).
                Some(false) => return,
                None => {}
            }
        }
        // Closed port: answer with RST (unless the packet is itself a RST).
        if !seg.flags.rst {
            let rst: Segment = Segment {
                flags: if seg.flags.ack {
                    Flags::RST
                } else {
                    Flags {
                        rst: true,
                        ack: true,
                        ..Flags::default()
                    }
                },
                seq: if seg.flags.ack { seg.ack } else { 0 },
                ack: seg.seq_end(),
                wnd: 0,
                data: Bytes::new(),
            };
            let b = self.boxed_seg(rst);
            w.send_from(self.node, Packet::new(local, remote, proto::TCP, b));
        }
    }

    fn notify_established(&mut self, id: ConnId, local_port: u16) {
        let parent = self.conns.get(&id).and_then(|t| t.from_listener);
        if parent.is_some() {
            if let Some(l) = self.listeners.get_mut(&local_port) {
                l.pending.push_back(id);
                for w in l.accept_wakers.drain(..) {
                    w.wake();
                }
            }
        }
    }

    /// Emit queued segments and sync timers for one connection.
    pub fn flush_conn(&mut self, w: &mut World, id: ConnId) {
        let now = w.sched().now();
        let mut out = std::mem::take(&mut self.out_scratch);
        let Some(tcb) = self.conns.get_mut(&id) else {
            self.out_scratch = out;
            return;
        };
        // Service staged I/O *before* draining `out`: freed window space is
        // refilled and arrived bytes handed to a parked reader at event
        // time, so any segments they generate leave in this same flush,
        // after the event's own segments — exactly the order the legacy
        // woken-task path produced with per-ACK/per-segment wakeups.
        tcb.service_pending(now);
        let (local, remote) = (tcb.local, tcb.remote);
        let node = self.node;
        tcb.drain_out_into(&mut out);
        for seg in out.drain(..) {
            let b = self.boxed_seg(seg);
            w.send_from(node, Packet::new(local, remote, proto::TCP, b));
        }
        self.out_scratch = out;
        // Timer sync: make sure an event exists at or before each armed
        // deadline. A deadline moved later rides the already-outstanding
        // event, which lazily reschedules itself on firing.
        let Some(tcb) = self.conns.get_mut(&id) else {
            return;
        };
        for which in [Timer::Rtx, Timer::Persist, Timer::TimeWait] {
            let slot = match which {
                Timer::Rtx => &mut tcb.rtx_timer,
                Timer::Persist => &mut tcb.persist_timer,
                Timer::TimeWait => &mut tcb.tw_timer,
            };
            if let Some(deadline) = slot.deadline {
                let at = deadline.max(now);
                if slot.covered.is_none_or(|c| c > at) {
                    slot.covered = Some(at);
                    w.schedule_at(at, move |w| {
                        with_host(w, node, |host, w| host.on_timer(w, id, which));
                    });
                }
            }
        }
    }

    fn on_timer(&mut self, w: &mut World, id: ConnId, which: Timer) {
        let now = w.sched().now();
        let node = self.node;
        let Some(tcb) = self.conns.get_mut(&id) else {
            return;
        };
        let slot = match which {
            Timer::Rtx => &mut tcb.rtx_timer,
            Timer::Persist => &mut tcb.persist_timer,
            Timer::TimeWait => &mut tcb.tw_timer,
        };
        if slot.covered == Some(now) {
            slot.covered = None;
        }
        match slot.deadline {
            // Due: fall through and fire. Firing always disarms or moves
            // the deadline strictly later, so a second event landing at the
            // same instant cannot fire twice.
            Some(d) if d <= now => {}
            // Deadline moved later since this event was scheduled: push the
            // firing forward instead (the lazy half of the scheme).
            Some(d) => {
                if slot.covered.is_none_or(|c| c > d) {
                    slot.covered = Some(d);
                    w.schedule_at(d, move |w| {
                        with_host(w, node, |host, w| host.on_timer(w, id, which));
                    });
                }
                return;
            }
            // Disarmed while the event was in flight.
            None => return,
        }
        match which {
            Timer::Rtx => tcb.on_rto(now),
            Timer::Persist => tcb.on_persist(now),
            Timer::TimeWait => {
                tcb.on_time_wait_expire();
                // Expiry is terminal; clear the deadline so the sync pass
                // does not schedule another (no-op) firing.
                tcb.tw_timer.disarm();
            }
        }
        self.flush_conn(w, id);
        self.reap(id);
    }

    /// Remove fully closed connections from the tables.
    fn reap(&mut self, id: ConnId) {
        let remove = match self.conns.get(&id) {
            // Keep errored connections around until the socket handle
            // observes the error, unless the handle is already gone.
            Some(tcb) => {
                tcb.state == crate::tcb::State::Closed && (tcb.error().is_none() || tcb.detached)
            }
            None => false,
        };
        if remove {
            self.drop_conn(id);
        }
    }

    /// Forget a connection entirely (socket handle dropped).
    pub fn drop_conn(&mut self, id: ConnId) {
        if let Some(tcb) = self.conns.remove(&id) {
            self.by_tuple.remove(&(tcb.local, tcb.remote));
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Timer {
    Rtx,
    Persist,
    TimeWait,
}

/// Simulate a process/host crash at the TCP level: every connection fails
/// with `ConnectionReset` (waking parked readers and writers), listeners
/// wake their accept waiters, and the whole stack state is dropped. A
/// restarted service simply binds again on the fresh stack; packets from
/// old connections arriving afterwards hit an empty connection table and
/// are answered with RST, so remote peers learn of the crash quickly.
pub fn crash_node(w: &mut World, node: NodeId) {
    let Some(boxed) = w.take_proto_state(node, proto::TCP) else {
        return;
    };
    let mut host = boxed.downcast::<TcpHost>().expect("proto state type");
    for tcb in host.conns.values_mut() {
        tcb.crash();
    }
    for l in host.listeners.values_mut() {
        l.closed = true;
        for waker in l.accept_wakers.drain(..) {
            waker.wake();
        }
    }
    // The state is intentionally not put back: the next packet or socket
    // call sees a brand-new stack.
}

/// Run `f` with the host's TCP state temporarily taken out of the world
/// (installing a fresh stack on first use).
pub fn with_host<R>(
    w: &mut World,
    node: NodeId,
    f: impl FnOnce(&mut TcpHost, &mut World) -> R,
) -> R {
    let mut boxed = match w.take_proto_state(node, proto::TCP) {
        Some(b) => b.downcast::<TcpHost>().expect("proto state type"),
        None => Box::new(TcpHost::new(node)),
    };
    let r = f(&mut boxed, w);
    w.put_proto_state(node, proto::TCP, boxed);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhausting the ephemeral span must surface a retryable `AddrInUse`
    /// (not a panic), and releasing ports must make allocation work again.
    #[test]
    fn ephemeral_exhaustion_is_retryable_and_recycles() {
        let mut h = TcpHost::new(NodeId(0));
        let ip = Ip(0x0a00_0001);
        for p in EPHEMERAL_BASE..EPHEMERAL_BASE + EPHEMERAL_SPAN {
            h.bound_ports.insert(p);
        }
        let err = h.alloc_ephemeral(ip).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse);
        // A second attempt fails the same way — the allocator must not
        // corrupt its cursor while exhausted.
        assert_eq!(
            h.alloc_ephemeral(ip).unwrap_err().kind(),
            io::ErrorKind::AddrInUse
        );
        // Recycle a few ports: allocation succeeds again and hands back
        // ports from the freed set.
        for p in [EPHEMERAL_BASE + 7, EPHEMERAL_BASE + 8] {
            h.bound_ports.remove(&p);
        }
        let a = h.alloc_ephemeral(ip).unwrap();
        h.bound_ports.insert(a);
        let b = h.alloc_ephemeral(ip).unwrap();
        assert_ne!(a, b);
        assert!((a == EPHEMERAL_BASE + 7 || a == EPHEMERAL_BASE + 8) && b != a);
    }
}
