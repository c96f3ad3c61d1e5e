//! The simulated internet: nodes (hosts and gateways), links, routing and
//! the packet forwarding engine, including firewall and NAT processing at
//! gateways.
//!
//! The [`World`] lives behind a single mutex shared by all simulated tasks
//! and scheduled events. Because the runtime executes exactly one thread at
//! a time, the mutex is never contended; it only provides `Send` plumbing.

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Weak};

use crate::addr::{Ip, SockAddr};
use crate::firewall::{Direction, Firewall, FirewallPolicy, Verdict};
use crate::link::{LinkDir, LinkDirId, LinkParams, LinkStats};
use crate::nat::{Nat, NatKind};
use crate::packet::Packet;
use crate::runtime::{HookId, SchedHandle};
use crate::time::SimTime;
use std::collections::BinaryHeap;

/// Identifier of a node in the world.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Interface trust level, used by gateways to decide when traffic crosses
/// the security boundary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Trust {
    Inside,
    Outside,
}

/// One attachment point of a node to a link.
#[derive(Debug)]
pub struct Iface {
    /// The outgoing direction of the attached link.
    pub link_out: LinkDirId,
    /// The node at the other end.
    pub peer: NodeId,
    pub trust: Trust,
}

/// A routing table entry: longest prefix match selects the out interface.
#[derive(Debug, Clone, Copy)]
pub struct RouteEntry {
    pub prefix: Ip,
    pub len: u8,
    pub iface: usize,
}

/// Role of a node.
pub enum NodeKind {
    Host,
    Gateway {
        firewall: Firewall,
        nat: Option<Nat>,
    },
}

/// A node: host or gateway.
pub struct NodeState {
    pub name: String,
    pub addrs: Vec<Ip>,
    pub kind: NodeKind,
    pub ifaces: Vec<Iface>,
    pub routes: Vec<RouteEntry>,
    proto_state: HashMap<u8, Box<dyn Any + Send>>,
}

impl NodeState {
    fn route_for(&self, dst: Ip) -> Option<usize> {
        self.routes
            .iter()
            .filter(|r| dst.in_prefix(r.prefix, r.len))
            .max_by_key(|r| r.len)
            .map(|r| r.iface)
    }

    /// Does this node own address `ip`?
    pub fn owns(&self, ip: Ip) -> bool {
        self.addrs.contains(&ip)
    }
}

/// Packet disposition counters for the whole world.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorldStats {
    pub delivered: u64,
    pub forwarded: u64,
    pub drop_no_route: u64,
    pub drop_firewall: u64,
    pub drop_nat: u64,
    pub drop_loss: u64,
    pub drop_queue: u64,
    pub drop_not_local: u64,
    pub drop_no_handler: u64,
    pub drop_link_down: u64,
}

/// Why a packet was dropped or what happened to it — fed to the optional
/// tracer for debugging and tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    Sent,
    Forwarded,
    Delivered,
    DropNoRoute,
    DropFirewall,
    DropNat,
    DropLoss,
    DropQueue,
    DropNotLocal,
    DropNoHandler,
    DropLinkDown,
}

type Tracer = Box<dyn Fn(SimTime, TraceKind, &Packet) + Send>;
type ProtoDispatch = Arc<dyn Fn(&mut World, NodeId, Packet) + Send + Sync>;

/// The simulated internet.
pub struct World {
    sched: SchedHandle,
    self_ref: Weak<Mutex<World>>,
    /// In-flight packets ordered by (arrival time, schedule order). Each
    /// entry is paired with one `Hook` event in the scheduler, so pops
    /// track event firings one-to-one; keeping the packets here instead
    /// of inside boxed event closures makes the per-hop cost a heap push.
    deliveries: BinaryHeap<PendingDelivery>,
    delivery_seq: u64,
    delivery_hook: HookId,
    nodes: Vec<NodeState>,
    links: Vec<LinkDir>,
    dispatch: HashMap<u8, ProtoDispatch>,
    rng: StdRng,
    pub stats: WorldStats,
    tracer: Option<Tracer>,
}

/// Where an in-flight packet lands when its delivery event fires.
enum Delivery {
    /// Came over a link: run gateway processing, then deliver or forward.
    Arrive { node: NodeId, iface: usize },
    /// Loopback / own-address send: skip the forwarding engine.
    Local { node: NodeId },
}

/// One in-flight packet, ordered like the scheduler's event heap:
/// earliest arrival first, schedule order breaking ties — so popping the
/// minimum on each hook firing dispatches exactly the packet that event
/// was scheduled for.
struct PendingDelivery {
    at: SimTime,
    seq: u64,
    to: Delivery,
    pkt: Packet,
}

impl PartialEq for PendingDelivery {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for PendingDelivery {}
impl PartialOrd for PendingDelivery {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingDelivery {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Inverted: BinaryHeap is a max-heap, we pop the earliest.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Shared handle to the world plus its scheduler: the object every socket,
/// protocol stack and topology builder holds.
#[derive(Clone)]
pub struct Net {
    sched: SchedHandle,
    world: Arc<Mutex<World>>,
}

impl Net {
    /// Create an empty world bound to a scheduler.
    pub fn new(sched: SchedHandle, seed: u64) -> Net {
        let world = Arc::new_cyclic(|weak: &Weak<Mutex<World>>| {
            let hook_ref = weak.clone();
            let delivery_hook = sched.register_hook(move || {
                if let Some(m) = hook_ref.upgrade() {
                    let mut w = m.lock();
                    if let Some(pd) = w.deliveries.pop() {
                        match pd.to {
                            Delivery::Arrive { node, iface } => w.arrive(node, iface, pd.pkt),
                            Delivery::Local { node } => w.local_deliver(node, pd.pkt),
                        }
                    }
                }
            });
            Mutex::new(World {
                sched: sched.clone(),
                self_ref: weak.clone(),
                deliveries: BinaryHeap::new(),
                delivery_seq: 0,
                delivery_hook,
                nodes: Vec::new(),
                links: Vec::new(),
                dispatch: HashMap::new(),
                rng: StdRng::seed_from_u64(seed),
                stats: WorldStats::default(),
                tracer: None,
            })
        });
        Net { sched, world }
    }

    /// Run `f` with exclusive access to the world.
    pub fn with<R>(&self, f: impl FnOnce(&mut World) -> R) -> R {
        f(&mut self.world.lock())
    }

    /// The scheduler handle.
    pub fn sched(&self) -> &SchedHandle {
        &self.sched
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }
}

impl World {
    // ---------------- topology construction ----------------

    /// Add a host with the given addresses.
    pub fn add_host(&mut self, name: impl Into<String>, addrs: Vec<Ip>) -> NodeId {
        self.add_node(name.into(), addrs, NodeKind::Host)
    }

    /// Add a gateway (router with firewall and optional NAT). `outside_ip`
    /// is the public address; with NAT it is also the NAT's external
    /// address. `inside_ip` is its address on the site network.
    pub fn add_gateway(
        &mut self,
        name: impl Into<String>,
        inside_ip: Ip,
        outside_ip: Ip,
        policy: FirewallPolicy,
        nat: Option<NatKind>,
    ) -> NodeId {
        let nat = nat.map(|k| Nat::new(k, outside_ip));
        self.add_node(
            name.into(),
            vec![inside_ip, outside_ip],
            NodeKind::Gateway {
                firewall: Firewall::new(policy),
                nat,
            },
        )
    }

    fn add_node(&mut self, name: String, addrs: Vec<Ip>, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(NodeState {
            name,
            addrs,
            kind,
            ifaces: Vec::new(),
            routes: Vec::new(),
            proto_state: HashMap::new(),
        });
        id
    }

    /// Connect two nodes with a bidirectional link, possibly asymmetric.
    /// Returns the interface index created on each node.
    pub fn connect_with(
        &mut self,
        a: NodeId,
        trust_a: Trust,
        b: NodeId,
        trust_b: Trust,
        a_to_b: LinkParams,
        b_to_a: LinkParams,
    ) -> (usize, usize) {
        let ab = LinkDirId(self.links.len());
        let iface_b = self.nodes[b.0].ifaces.len();
        self.links.push(LinkDir {
            params: a_to_b,
            to_node: b,
            to_iface: iface_b,
            busy_until: SimTime::ZERO,
            up: true,
            stats: LinkStats::default(),
        });
        let ba = LinkDirId(self.links.len());
        let iface_a = self.nodes[a.0].ifaces.len();
        self.links.push(LinkDir {
            params: b_to_a,
            to_node: a,
            to_iface: iface_a,
            busy_until: SimTime::ZERO,
            up: true,
            stats: LinkStats::default(),
        });
        self.nodes[a.0].ifaces.push(Iface {
            link_out: ab,
            peer: b,
            trust: trust_a,
        });
        self.nodes[b.0].ifaces.push(Iface {
            link_out: ba,
            peer: a,
            trust: trust_b,
        });
        (iface_a, iface_b)
    }

    /// Symmetric link with both ends trusted (LAN/backbone use).
    pub fn connect(&mut self, a: NodeId, b: NodeId, params: LinkParams) -> (usize, usize) {
        self.connect_with(a, Trust::Inside, b, Trust::Inside, params, params)
    }

    /// Add a prefix route.
    pub fn route(&mut self, node: NodeId, prefix: Ip, len: u8, iface: usize) {
        self.nodes[node.0]
            .routes
            .push(RouteEntry { prefix, len, iface });
    }

    /// Add a default route (0.0.0.0/0).
    pub fn default_route(&mut self, node: NodeId, iface: usize) {
        self.route(node, Ip::UNSPECIFIED, 0, iface);
    }

    // ---------------- accessors ----------------

    pub fn node(&self, id: NodeId) -> &NodeState {
        &self.nodes[id.0]
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Primary address of a node.
    pub fn addr_of(&self, id: NodeId) -> Ip {
        self.nodes[id.0].addrs[0]
    }

    /// Source address a node should use towards `dst` (multi-homed hosts
    /// like gateways have both a site-private and a public address):
    /// prefer an address on the same /24 as the destination, then a public
    /// address for public destinations, then the primary address.
    pub fn source_ip_for(&self, id: NodeId, dst: Ip) -> Ip {
        let addrs = &self.nodes[id.0].addrs;
        if let Some(&a) = addrs.iter().find(|a| dst.in_prefix(**a, 24)) {
            return a;
        }
        if !dst.is_private() {
            if let Some(&a) = addrs.iter().find(|a| !a.is_private()) {
                return a;
            }
        }
        addrs[0]
    }

    /// Look up a node by name (test/diagnostic helper).
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name == name).map(NodeId)
    }

    /// Stats of one link direction.
    pub fn link_stats(&self, id: LinkDirId) -> LinkStats {
        self.links[id.0].stats
    }

    /// Number of link directions in the world (valid `LinkDirId`s are
    /// `0..n_link_dirs()`).
    pub fn n_link_dirs(&self) -> usize {
        self.links.len()
    }

    // ---------------- fault injection ----------------

    /// Mutable access to one link direction (fault injection: loss bursts,
    /// parameter changes).
    pub fn link_mut(&mut self, id: LinkDirId) -> &mut LinkDir {
        &mut self.links[id.0]
    }

    /// Administrative up/down of one link direction. While down, every
    /// packet offered to the link is dropped (counted as
    /// [`WorldStats::drop_link_down`]); packets already propagating still
    /// arrive, like photons in flight on a cut fibre.
    pub fn set_link_up(&mut self, id: LinkDirId, up: bool) {
        self.links[id.0].up = up;
    }

    /// The link directions on the routed path from `a` to `b` *and* back,
    /// following each hop's routing table (bounded at 32 hops). Used to
    /// partition two nodes that are not directly adjacent.
    pub fn path_links(&self, a: NodeId, b: NodeId) -> Vec<LinkDirId> {
        let mut out = Vec::new();
        for (from, to) in [(a, b), (b, a)] {
            let dst = self.addr_of(to);
            let mut cur = from;
            for _ in 0..32 {
                if cur == to || self.nodes[cur.0].owns(dst) {
                    break;
                }
                let Some(iface) = self.nodes[cur.0].route_for(dst) else {
                    break;
                };
                let link = self.nodes[cur.0].ifaces[iface].link_out;
                out.push(link);
                cur = self.links[link.0].to_node;
            }
        }
        out.sort_by_key(|l| l.0);
        out.dedup();
        out
    }

    /// Schedule every event of a [`crate::fault::FaultPlan`] on the
    /// simulation clock.
    pub fn install_faults(&mut self, plan: crate::fault::FaultPlan) {
        plan.install(self);
    }

    /// Deterministic RNG for protocol use (loss draws, NAT ports...).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// The scheduler handle.
    pub fn sched(&self) -> &SchedHandle {
        &self.sched
    }

    /// Install a tracer called for every packet disposition.
    pub fn set_tracer(&mut self, t: Tracer) {
        self.tracer = Some(t);
    }

    // ---------------- protocol plumbing ----------------

    /// Register the dispatch function for an IP protocol number.
    pub fn register_proto(&mut self, proto: u8, f: ProtoDispatch) {
        self.dispatch.insert(proto, f);
    }

    /// Is a dispatcher registered for `proto`?
    pub fn proto_registered(&self, proto: u8) -> bool {
        self.dispatch.contains_key(&proto)
    }

    /// Take a node's per-protocol state out of the world (put it back with
    /// [`World::put_proto_state`]). The take/put dance lets protocol code
    /// borrow its own state mutably while still sending packets through
    /// `&mut World`.
    pub fn take_proto_state(&mut self, node: NodeId, proto: u8) -> Option<Box<dyn Any + Send>> {
        self.nodes[node.0].proto_state.remove(&proto)
    }

    pub fn put_proto_state(&mut self, node: NodeId, proto: u8, st: Box<dyn Any + Send>) {
        self.nodes[node.0].proto_state.insert(proto, st);
    }

    /// Schedule `f(world)` at absolute simulated time `at`.
    pub fn schedule_at(&self, at: SimTime, f: impl FnOnce(&mut World) + Send + 'static) {
        let weak = self.self_ref.clone();
        self.sched.call_at(at, move || {
            if let Some(m) = weak.upgrade() {
                f(&mut m.lock());
            }
        });
    }

    /// Schedule `f(world)` after `d` of simulated time.
    pub fn schedule_after(
        &self,
        d: std::time::Duration,
        f: impl FnOnce(&mut World) + Send + 'static,
    ) {
        self.schedule_at(self.sched.now() + d, f);
    }

    /// Queue `pkt` for dispatch at `at` (≥ now). The paired hook event
    /// shares the scheduler's tie-break sequence, so delivery order is
    /// identical to scheduling a closure per hop — without the per-hop
    /// allocation.
    fn push_delivery(&mut self, at: SimTime, to: Delivery, pkt: Packet) {
        let seq = self.delivery_seq;
        self.delivery_seq += 1;
        self.deliveries.push(PendingDelivery { at, seq, to, pkt });
        self.sched.call_hook_at(at, self.delivery_hook);
    }

    fn trace(&self, kind: TraceKind, pkt: &Packet) {
        if let Some(t) = &self.tracer {
            t(self.sched.now(), kind, pkt);
        }
    }

    // ---------------- forwarding engine ----------------

    /// Emit a packet originating at `node`. Routes it towards its
    /// destination; delivery happens via scheduled events.
    pub fn send_from(&mut self, node: NodeId, pkt: Packet) {
        self.trace(TraceKind::Sent, &pkt);
        // Local delivery (loopback or own address).
        if self.nodes[node.0].owns(pkt.dst.ip) {
            let at = self.sched.now();
            self.push_delivery(at, Delivery::Local { node }, pkt);
            return;
        }
        self.emit(node, pkt);
    }

    /// Route + transmit one packet out of `node` (already past middlebox
    /// processing if any).
    fn emit(&mut self, node: NodeId, pkt: Packet) {
        let Some(iface) = self.nodes[node.0].route_for(pkt.dst.ip) else {
            self.stats.drop_no_route += 1;
            self.trace(TraceKind::DropNoRoute, &pkt);
            return;
        };
        let link_id = self.nodes[node.0].ifaces[iface].link_out;
        let now = self.sched.now();
        let wire_len = pkt.wire_len();
        let link = &mut self.links[link_id.0];
        if !link.up {
            self.stats.drop_link_down += 1;
            self.trace(TraceKind::DropLinkDown, &pkt);
            return;
        }
        let Some(deliver_at) = link.admit(now, wire_len) else {
            self.stats.drop_queue += 1;
            self.trace(TraceKind::DropQueue, &pkt);
            return;
        };
        let loss = link.params.loss;
        if loss > 0.0 && self.rng.random::<f64>() < loss {
            self.links[link_id.0].stats.lost_packets += 1;
            self.stats.drop_loss += 1;
            self.trace(TraceKind::DropLoss, &pkt);
            return;
        }
        let (to_node, to_iface) = {
            let l = &self.links[link_id.0];
            (l.to_node, l.to_iface)
        };
        self.push_delivery(
            deliver_at,
            Delivery::Arrive {
                node: to_node,
                iface: to_iface,
            },
            pkt,
        );
    }

    /// A packet arrived at `node` on interface `iface`.
    fn arrive(&mut self, node: NodeId, iface: usize, mut pkt: Packet) {
        let in_trust = self.nodes[node.0].ifaces[iface].trust;
        let is_gateway = matches!(self.nodes[node.0].kind, NodeKind::Gateway { .. });

        if is_gateway {
            // 1. Inbound NAT translation: packets from the untrusted side
            //    addressed to an active mapping are rewritten to the
            //    internal endpoint (DNAT happens before filtering).
            if in_trust == Trust::Outside {
                let translated = match &self.nodes[node.0].kind {
                    NodeKind::Gateway { nat: Some(nat), .. } if pkt.dst.ip == nat.external_ip() => {
                        nat.inbound(pkt.dst.port, pkt.src)
                    }
                    _ => None,
                };
                if let Some(internal) = translated {
                    pkt.dst = internal;
                    // Filter on the inside view of the flow.
                    if self.gateway_filter(node, Direction::OutsideToInside, pkt.dst, pkt.src)
                        == Verdict::Drop
                    {
                        self.stats.drop_firewall += 1;
                        self.trace(TraceKind::DropFirewall, &pkt);
                        return;
                    }
                    self.stats.forwarded += 1;
                    self.trace(TraceKind::Forwarded, &pkt);
                    self.emit(node, pkt);
                    return;
                }
                // NAT present but no admitting mapping: packets aimed at
                // the NAT allocation range are silently dropped, as real
                // NAT boxes do (delivering them to the gateway's own stack
                // would elicit an RST and break splicing retries). Lower
                // ports may belong to gateway-hosted services (relay,
                // SOCKS) and fall through to local delivery.
                let nat_range_hit = match &self.nodes[node.0].kind {
                    NodeKind::Gateway { nat: Some(nat), .. } => {
                        pkt.dst.ip == nat.external_ip() && pkt.dst.port >= crate::nat::NAT_PORT_BASE
                    }
                    _ => false,
                };
                if nat_range_hit {
                    self.stats.drop_nat += 1;
                    self.trace(TraceKind::DropNat, &pkt);
                    return;
                }
            }

            // 2. Local delivery to a gateway-hosted service.
            if self.nodes[node.0].owns(pkt.dst.ip) {
                self.local_deliver(node, pkt);
                return;
            }

            // 3. Forwarding across the gateway.
            let Some(out_iface) = self.nodes[node.0].route_for(pkt.dst.ip) else {
                self.stats.drop_no_route += 1;
                self.trace(TraceKind::DropNoRoute, &pkt);
                return;
            };
            let out_trust = self.nodes[node.0].ifaces[out_iface].trust;
            match (in_trust, out_trust) {
                (Trust::Inside, Trust::Outside) => {
                    if self.gateway_filter(node, Direction::InsideToOutside, pkt.src, pkt.dst) == Verdict::Drop {
                        self.stats.drop_firewall += 1;
                        self.trace(TraceKind::DropFirewall, &pkt);
                        return;
                    }
                    // Outbound NAT translation (SNAT after filtering).
                    let new_src = {
                        // Split borrows: take the RNG by raw parts.
                        let World { nodes, rng, .. } = self;
                        match &mut nodes[node.0].kind {
                            NodeKind::Gateway { nat: Some(nat), .. } => {
                                Some(nat.outbound(pkt.src, pkt.dst, rng))
                            }
                            _ => None,
                        }
                    };
                    if let Some(s) = new_src {
                        pkt.src = s;
                    }
                }
                (Trust::Outside, Trust::Inside)
                    // Un-NATed packet crossing inwards (site without NAT):
                    // plain conntrack filtering.
                    if self.gateway_filter(node, Direction::OutsideToInside, pkt.dst, pkt.src) == Verdict::Drop => {
                        self.stats.drop_firewall += 1;
                        self.trace(TraceKind::DropFirewall, &pkt);
                        return;
                    }
                // Same-trust forwarding (router inside a site or on the
                // backbone): no filtering.
                _ => {}
            }
            self.stats.forwarded += 1;
            self.trace(TraceKind::Forwarded, &pkt);
            self.emit(node, pkt);
            return;
        }

        // Plain host.
        if self.nodes[node.0].owns(pkt.dst.ip) {
            self.local_deliver(node, pkt);
        } else {
            self.stats.drop_not_local += 1;
            self.trace(TraceKind::DropNotLocal, &pkt);
        }
    }

    fn gateway_filter(
        &mut self,
        node: NodeId,
        dir: Direction,
        inside: SockAddr,
        outside: SockAddr,
    ) -> Verdict {
        match &mut self.nodes[node.0].kind {
            NodeKind::Gateway { firewall, .. } => firewall.filter(dir, inside, outside),
            NodeKind::Host => Verdict::Accept,
        }
    }

    fn local_deliver(&mut self, node: NodeId, pkt: Packet) {
        self.stats.delivered += 1;
        self.trace(TraceKind::Delivered, &pkt);
        match self.dispatch.get(&pkt.proto).cloned() {
            Some(f) => f(self, node, pkt),
            None => {
                self.stats.drop_no_handler += 1;
                self.trace(TraceKind::DropNoHandler, &pkt);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{proto, RawBytes};
    use crate::runtime::Scheduler;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    fn pkt(src: SockAddr, dst: SockAddr, n: usize) -> Packet {
        Packet::new(src, dst, proto::UDP, Box::new(RawBytes(vec![0u8; n])))
    }

    /// Two hosts joined by one link; a registered dispatcher counts
    /// deliveries.
    fn two_hosts(params: LinkParams) -> (Scheduler, Net, NodeId, NodeId, Arc<AtomicU64>) {
        let sched = Scheduler::new();
        let net = Net::new(sched.handle(), 42);
        let delivered = Arc::new(AtomicU64::new(0));
        let d2 = Arc::clone(&delivered);
        let (a, b) = net.with(|w| {
            let a = w.add_host("a", vec![Ip::new(1, 0, 0, 1)]);
            let b = w.add_host("b", vec![Ip::new(2, 0, 0, 1)]);
            let (ia, ib) = w.connect(a, b, params);
            w.default_route(a, ia);
            w.default_route(b, ib);
            w.register_proto(
                proto::UDP,
                Arc::new(move |_w, _n, _p| {
                    d2.fetch_add(1, Ordering::SeqCst);
                }),
            );
            (a, b)
        });
        (sched, net, a, b, delivered)
    }

    #[test]
    fn end_to_end_delivery_with_correct_timing() {
        let (sched, net, a, b, delivered) =
            two_hosts(LinkParams::mbps(1.0, Duration::from_millis(10)));
        let dst = SockAddr::new(Ip::new(2, 0, 0, 1), 80);
        let src = SockAddr::new(Ip::new(1, 0, 0, 1), 1234);
        net.with(|w| w.send_from(a, pkt(src, dst, 980)));
        sched.run();
        assert_eq!(delivered.load(Ordering::SeqCst), 1);
        // 1000 wire bytes at 1 MB/s = 1 ms, + 10 ms propagation.
        assert_eq!(sched.now().as_nanos(), 11_000_000);
        let _ = b;
    }

    #[test]
    fn no_route_drops() {
        let (sched, net, a, _b, delivered) = two_hosts(LinkParams::mbps(1.0, Duration::ZERO));
        let dst = SockAddr::new(Ip::new(9, 9, 9, 9), 80);
        let src = SockAddr::new(Ip::new(1, 0, 0, 1), 1234);
        net.with(|w| {
            w.nodes[a.0].routes.clear();
            w.send_from(a, pkt(src, dst, 100));
            assert_eq!(w.stats.drop_no_route, 1);
        });
        sched.run();
        assert_eq!(delivered.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn loopback_delivers_locally() {
        let (sched, net, a, _b, delivered) =
            two_hosts(LinkParams::mbps(1.0, Duration::from_millis(10)));
        let me = SockAddr::new(Ip::new(1, 0, 0, 1), 80);
        net.with(|w| w.send_from(a, pkt(me, me, 100)));
        sched.run();
        assert_eq!(delivered.load(Ordering::SeqCst), 1);
        assert_eq!(sched.now().as_nanos(), 0, "loopback has no link delay");
    }

    #[test]
    fn lossy_link_drops_deterministically() {
        let (sched, net, a, _b, delivered) = two_hosts(
            LinkParams::mbps(10.0, Duration::ZERO)
                .with_loss(0.5)
                .with_queue(1 << 30),
        );
        let dst = SockAddr::new(Ip::new(2, 0, 0, 1), 80);
        let src = SockAddr::new(Ip::new(1, 0, 0, 1), 1);
        net.with(|w| {
            for _ in 0..1000 {
                w.send_from(a, pkt(src, dst, 100));
            }
        });
        sched.run();
        let got = delivered.load(Ordering::SeqCst);
        assert!((350..650).contains(&got), "~50% loss expected, got {got}");
        net.with(|w| {
            let l = w.link_stats(LinkDirId(0));
            assert_eq!(l.lost_packets + got, 1000);
        });
    }

    /// Build host A -- gwA(firewall) -- WAN -- host B and check unsolicited
    /// inbound is filtered while replies flow.
    #[test]
    fn gateway_firewall_blocks_unsolicited() {
        let sched = Scheduler::new();
        let net = Net::new(sched.handle(), 1);
        let delivered = Arc::new(AtomicU64::new(0));
        let d2 = Arc::clone(&delivered);
        let (a, _gw, b) = net.with(|w| {
            let a = w.add_host("a", vec![Ip::new(192, 168, 1, 10)]);
            let gw = w.add_gateway(
                "gw",
                Ip::new(192, 168, 1, 1),
                Ip::new(130, 37, 0, 1),
                FirewallPolicy::StatefulOutbound,
                None,
            );
            let b = w.add_host("b", vec![Ip::new(131, 1, 0, 10)]);
            let lan = LinkParams::mbps(12.0, Duration::from_micros(100));
            let wan = LinkParams::mbps(1.0, Duration::from_millis(15));
            let (ia, gw_in) = w.connect_with(a, Trust::Inside, gw, Trust::Inside, lan, lan);
            let (gw_out, ib) = w.connect_with(gw, Trust::Outside, b, Trust::Inside, wan, wan);
            w.default_route(a, ia);
            w.default_route(b, ib);
            w.default_route(gw, gw_out);
            w.route(gw, Ip::new(192, 168, 1, 0), 24, gw_in);
            w.register_proto(
                proto::UDP,
                Arc::new(move |_w, _n, _p| {
                    d2.fetch_add(1, Ordering::SeqCst);
                }),
            );
            (a, gw, b)
        });
        let a_addr = SockAddr::new(Ip::new(192, 168, 1, 10), 5000);
        let b_addr = SockAddr::new(Ip::new(131, 1, 0, 10), 6000);
        // Unsolicited inbound: dropped at the firewall.
        net.with(|w| w.send_from(b, pkt(b_addr, a_addr, 100)));
        sched.run();
        assert_eq!(delivered.load(Ordering::SeqCst), 0);
        net.with(|w| assert_eq!(w.stats.drop_firewall, 1));
        // Outbound first, then the reply is admitted.
        net.with(|w| w.send_from(a, pkt(a_addr, b_addr, 100)));
        sched.run();
        net.with(|w| w.send_from(b, pkt(b_addr, a_addr, 100)));
        sched.run();
        assert_eq!(
            delivered.load(Ordering::SeqCst),
            2,
            "outbound + reply delivered"
        );
    }

    /// NAT gateway: outbound traffic is source-rewritten; replies to the
    /// mapping are translated back; private addresses never cross the WAN.
    #[test]
    fn gateway_nat_translates_both_ways() {
        let sched = Scheduler::new();
        let net = Net::new(sched.handle(), 1);
        let seen: Arc<Mutex<Vec<(NodeId, SockAddr, SockAddr)>>> = Arc::new(Mutex::new(Vec::new()));
        let s2 = Arc::clone(&seen);
        let nat_ext = Ip::new(131, 9, 0, 1);
        let (a, b) = net.with(|w| {
            let a = w.add_host("a", vec![Ip::new(10, 0, 0, 10)]);
            let gw = w.add_gateway(
                "natgw",
                Ip::new(10, 0, 0, 1),
                nat_ext,
                FirewallPolicy::Open,
                Some(NatKind::FullCone),
            );
            let b = w.add_host("b", vec![Ip::new(131, 1, 0, 10)]);
            let p = LinkParams::mbps(10.0, Duration::from_millis(1));
            let (ia, gw_in) = w.connect_with(a, Trust::Inside, gw, Trust::Inside, p, p);
            let (gw_out, ib) = w.connect_with(gw, Trust::Outside, b, Trust::Inside, p, p);
            w.default_route(a, ia);
            w.default_route(b, ib);
            w.default_route(gw, gw_out);
            w.route(gw, Ip::new(10, 0, 0, 0), 8, gw_in);
            w.register_proto(
                proto::UDP,
                Arc::new(move |_w, n, p| {
                    s2.lock().push((n, p.src, p.dst));
                }),
            );
            (a, b)
        });
        let a_priv = SockAddr::new(Ip::new(10, 0, 0, 10), 5000);
        let b_pub = SockAddr::new(Ip::new(131, 1, 0, 10), 6000);
        net.with(|w| w.send_from(a, pkt(a_priv, b_pub, 100)));
        sched.run();
        let (at_b_src, mapped_port) = {
            let s = seen.lock();
            assert_eq!(s.len(), 1);
            let (n, src, dst) = s[0];
            assert_eq!(n, b);
            assert_eq!(dst, b_pub);
            assert_eq!(src.ip, nat_ext, "source rewritten to NAT external IP");
            (src, src.port)
        };
        // Reply to the mapping reaches the private host, translated back.
        net.with(|w| w.send_from(b, pkt(b_pub, at_b_src, 50)));
        sched.run();
        {
            let s = seen.lock();
            assert_eq!(s.len(), 2);
            let (n, src, dst) = s[1];
            assert_eq!(n, a);
            assert_eq!(src, b_pub);
            assert_eq!(
                dst, a_priv,
                "destination rewritten back to internal endpoint"
            );
        }
        let _ = mapped_port;
    }

    #[test]
    fn strict_firewall_blocks_outbound_to_non_proxy() {
        let sched = Scheduler::new();
        let net = Net::new(sched.handle(), 1);
        let a = net.with(|w| {
            let a = w.add_host("a", vec![Ip::new(192, 168, 1, 10)]);
            let gw = w.add_gateway(
                "gw",
                Ip::new(192, 168, 1, 1),
                Ip::new(130, 37, 0, 1),
                FirewallPolicy::Strict {
                    allowed_remotes: vec![Ip::new(131, 0, 0, 9)],
                },
                None,
            );
            let b = w.add_host("b", vec![Ip::new(131, 1, 0, 10)]);
            let p = LinkParams::mbps(10.0, Duration::from_millis(1));
            let (ia, gw_in) = w.connect_with(a, Trust::Inside, gw, Trust::Inside, p, p);
            let (gw_out, ib) = w.connect_with(gw, Trust::Outside, b, Trust::Inside, p, p);
            w.default_route(a, ia);
            w.default_route(b, ib);
            w.default_route(gw, gw_out);
            w.route(gw, Ip::new(192, 168, 1, 0), 24, gw_in);
            a
        });
        let a_addr = SockAddr::new(Ip::new(192, 168, 1, 10), 5000);
        let b_addr = SockAddr::new(Ip::new(131, 1, 0, 10), 6000);
        net.with(|w| w.send_from(a, pkt(a_addr, b_addr, 100)));
        sched.run();
        net.with(|w| assert_eq!(w.stats.drop_firewall, 1));
    }
}
