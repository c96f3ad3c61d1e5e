//! The grid node runtime: identity, registration, service links, and the
//! integrated connection establishment that the paper contributes —
//! client/server, TCP splicing with NAT port prediction, SOCKS proxies and
//! relay-routed messages behind one API, chosen by the Figure-4 decision
//! tree with runtime fallback.
//!
//! Establishment feeds the *session layer* ([`crate::session`]): the node
//! keeps a [`LinkTable`] of established data links keyed by
//! `(peer node, stack spec)`, and every channel between one node pair
//! rides ONE shared, supervised link. Concurrent `connect()`s to the same
//! peer are deduplicated to a single Figure-4 walk, and a link failure
//! triggers ONE re-establishment that replays every attached channel.
//! There is one establishment path (`connect()` is a batch of one) and one
//! stream preamble, written by `send_preamble` and read by
//! `handle_incoming_tcp`; its layout is [`crate::wire`]'s.

use gridcrypt::SecureConfig;
use gridsim_net::{Net, SchedHandle, SockAddr};
use gridsim_tcp::{ConnectOpts, SimHost, TcpConfig, TcpStream};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use crate::cpu::{CpuModel, CpuRates, HostCpu};
use crate::drivers::{build_sender, PathParams, RawLink, SecurityContext, StackSpec};
use crate::establish::{choose_methods, EstablishMethod, LinkKey, LinkPurpose};
use crate::nameservice::{GridId, NsClient, PortRecord};
use crate::port::{
    AckCell, AckSender, ReceivePort, ReceivePortInner, RxShared, SendConnection, SendPort,
};
use crate::profile::{ConnectivityProfile, FirewallClass, NatClass};
use crate::relay::{RelayClient, RelayDelegate, RoutedStream};
use crate::session::{Channel, Claim, LinkIo, LinkTable, RecoveryRole, SharedLink, WalkGauge};
use crate::socks::socks_connect;
use crate::tune::{PathControlConfig, PathController};
use crate::wire::{
    read_frame, stream_slot, Frame, FrameReader, FrameWriter, Preamble, ReconfigAck, ResumeMeta,
    ResumeReply,
};

/// Reconnect schedule for failed data links: attempts and backoff.
const RECOVER_ATTEMPTS: u32 = 8;
const RECOVER_BASE: Duration = Duration::from_millis(50);
const RECOVER_DELAY_CAP: Duration = Duration::from_secs(2);
/// How long a sender waits for the receiver's reply on stream 0 (the
/// delivered counts after a resume preamble, the ack of a RECONFIG) before
/// abandoning the attempt (polled, so a second failure right there cannot
/// wedge it).
const RESUME_REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// Service-request deadline used during recovery, where the peer may have
/// died mid-request. Fault-free establishment passes no deadline (and thus
/// schedules no timer events).
const RECOVER_SVC_TIMEOUT: Duration = Duration::from_secs(5);

/// First local port used for receive-port data listeners.
const DATA_PORT_BASE: u16 = 20_000;
/// First local port used for spliced connections (distinct from the
/// ephemeral range 10000+, data listeners 20000+, NAT mappings 40000+).
const SPLICE_PORT_BASE: u16 = 31_000;

/// How receive-side pumps resolve OPEN frames (and resume extras) to
/// receive ports by name: a weak hook back into the node's port table.
pub(crate) type PortResolver = Arc<dyn Fn(&str) -> Option<Arc<ReceivePortInner>> + Send + Sync>;

/// Shared environment of one grid deployment: where the name service and
/// relay live, plus the security and CPU models.
#[derive(Clone)]
pub struct GridEnv {
    pub net: Net,
    pub ns_addr: SockAddr,
    pub relay_addr: Option<SockAddr>,
    /// Ordered failover relays dialed (after `relay_addr`) when the
    /// current relay stays dead past the redial backoff. Every node must
    /// share the order so failed-over peers converge on the same relay.
    pub relay_fallbacks: Vec<SockAddr>,
    /// The virtual organization's shared secret, for GTLS stacks.
    pub psk: Vec<u8>,
    pub cpu: CpuModel,
    pub rates: CpuRates,
    /// Per-channel resend-buffer byte budget (replay window).
    pub resend_budget: usize,
    /// Receiver cumulative-ack cadence: one CACK service frame per this
    /// many delivered bytes. `usize::MAX` disables the ack protocol.
    pub ack_bytes: usize,
    /// When set, every established data link gets a [`PathController`]
    /// daemon sampling its transport telemetry and issuing live RECONFIGs
    /// (DESIGN.md §11). Off by default: fault-free wire traces stay
    /// byte-identical unless a deployment opts in.
    pub path_control: Option<PathControlConfig>,
    walks: Arc<WalkGauge>,
}

impl GridEnv {
    pub fn new(net: Net, ns_addr: SockAddr) -> GridEnv {
        GridEnv {
            net,
            ns_addr,
            relay_addr: None,
            relay_fallbacks: Vec::new(),
            psk: b"netgrid-vo-secret".to_vec(),
            cpu: CpuModel::new(),
            rates: CpuRates::default(),
            resend_budget: crate::port::RESEND_BUDGET,
            ack_bytes: crate::port::ACK_BYTES_DEFAULT,
            path_control: None,
            walks: Arc::default(),
        }
    }

    /// Highest number of Figure-4 walks in flight at once, across every
    /// node joined through this environment or a clone of it.
    pub fn walk_peak(&self) -> u64 {
        self.walks.peak()
    }

    pub fn with_relay(mut self, relay: SockAddr) -> Self {
        self.relay_addr = Some(relay);
        self
    }

    /// Configure an ordered relay list: the first is the primary every
    /// node dials at join; the rest are failover targets.
    ///
    /// Relays that do not peer with each other ([`crate::spawn_relay`]) are
    /// separate islands: every node must share the same order, so
    /// failed-over peers converge on one relay. Meshed relays
    /// ([`crate::spawn_relay_mesh`] with `peers`) lift that: nodes may home
    /// at different relays (or permute the list for load spreading), and a
    /// node that fails over to its backup is route-around-able by live
    /// senders through the mesh routing table — their channels stay up and
    /// recover in place rather than tearing down.
    pub fn with_relays(mut self, relays: &[SockAddr]) -> Self {
        self.relay_addr = relays.first().copied();
        self.relay_fallbacks = relays.get(1..).unwrap_or_default().to_vec();
        self
    }

    pub fn with_psk(mut self, psk: impl Into<Vec<u8>>) -> Self {
        self.psk = psk.into();
        self
    }

    pub fn with_rates(mut self, rates: CpuRates) -> Self {
        self.rates = rates;
        self
    }

    /// Cap the per-channel resend buffer. The ack cadence follows (an
    /// eighth of the cap, at least 16 KiB) so continuous pruning keeps
    /// steady-state usage under the cap instead of hitting eviction. The
    /// cadence must leave room for in-flight pipe buffering on top of the
    /// unacked window — the routed path traverses four socket buffers.
    pub fn with_resend_budget(mut self, bytes: usize) -> Self {
        self.resend_budget = bytes.max(1);
        self.ack_bytes = (bytes / 8).max(16 * 1024);
        self
    }

    /// Override the ack cadence independently of the resend budget.
    pub fn with_ack_bytes(mut self, bytes: usize) -> Self {
        self.ack_bytes = bytes.max(1);
        self
    }

    /// Enable the session-layer path control loop: each data link gets a
    /// deterministic [`PathController`] that samples transport telemetry
    /// and reconfigures stripe count, block size and compression live.
    pub fn with_path_control(mut self, cfg: PathControlConfig) -> Self {
        self.path_control = Some(cfg);
        self
    }
}

/// Handed to receive ports so their accept paths can build stacks.
#[derive(Clone)]
pub struct NodeCtx {
    pub cpu: HostCpu,
    pub sched: SchedHandle,
    pub psk: Vec<u8>,
    pub seed_base: u64,
    /// Resolves receive-port names for mux routing (OPEN frames, resume
    /// extras).
    pub(crate) resolve: PortResolver,
}

impl NodeCtx {
    /// Security context for a stack, if the spec asks for one.
    pub fn security(&self, spec: &StackSpec) -> Option<SecurityContext> {
        spec.secure.then(|| SecurityContext {
            config: SecureConfig::new(self.psk.clone()),
            seed: self.seed_base,
        })
    }
}

pub(crate) struct NodeInner {
    env: GridEnv,
    host: SimHost,
    name: String,
    id: GridId,
    profile: ConnectivityProfile,
    ns: NsClient,
    relay: Option<RelayClient>,
    cpu: HostCpu,
    ports: Mutex<HashMap<String, Arc<ReceivePortInner>>>,
    next_data_port: AtomicU64,
    next_splice_port: AtomicU64,
    next_channel: AtomicU64,
    /// Numbers this node's RPC reply ports. Per node, not per process: the
    /// number is in the port's name and the name is on the wire.
    next_rpc_client: AtomicU64,
    seed_base: u64,
    /// Serializes NAT-mapping-creating operations on this node so that
    /// splicing port predictions hold: a symmetric NAT allocates one
    /// external port per outbound flow, so any concurrent connection
    /// between "predict" and "SYN" would shift the counter.
    nat_gate: NatGate,
    /// Responder-side splice negotiations awaiting the initiator's GO.
    pending_splices: Mutex<HashMap<u64, PendingSplice>>,
    /// Cumulative-ack watermarks of this node's open send channels, keyed
    /// by channel id, advanced by incoming CACK service frames.
    ack_cells: Mutex<HashMap<u64, Arc<AckCell>>>,
    /// The session layer's cache of established data links (at most one
    /// per peer + stack spec).
    links: LinkTable,
    /// OPEN control frames this node has written — the batching probe: a
    /// batch of N attaches must cost one frame, not N.
    open_frames: AtomicU64,
    /// Receive-side per-channel state shared across this node's receive
    /// ports (delivered watermarks + ack bookkeeping): mux links can carry
    /// channels of several ports, and a resume can re-anchor a channel on
    /// a different port's listener.
    rx: Arc<RxShared>,
}

struct PendingSplice {
    port: Arc<ReceivePortInner>,
    my_ports: Vec<u16>,
    total: u16,
    /// This negotiation holds the NAT gate until GO/ABORT.
    holds_gate: bool,
}

/// A FIFO gate (non-RAII mutex) that can be held across separate service
/// handler invocations.
#[derive(Default)]
struct NatGate {
    state: Mutex<(bool, std::collections::VecDeque<gridsim_net::Waker>)>,
}

impl NatGate {
    fn acquire(&self) {
        loop {
            {
                let mut st = self.state.lock();
                if !st.0 {
                    st.0 = true;
                    return;
                }
                st.1.push_back(gridsim_net::ctx::waker());
            }
            gridsim_net::ctx::park("nat gate");
        }
    }
    fn release(&self) {
        let mut st = self.state.lock();
        st.0 = false;
        if let Some(w) = st.1.pop_front() {
            w.wake();
        }
    }
}

/// One walk of the Figure-4 decision tree: the methods still to try, in
/// the tree's order, and what became of the ones tried.
struct Walk {
    methods: std::vec::IntoIter<EstablishMethod>,
    /// Every failed method's own error, in walk order.
    failed: Vec<String>,
    /// The last failure's kind; the kind of the walk's error.
    kind: io::ErrorKind,
}

impl Walk {
    fn new(methods: Vec<EstablishMethod>) -> Walk {
        Walk {
            methods: methods.into_iter(),
            failed: Vec::new(),
            kind: io::ErrorKind::NotFound,
        }
    }

    fn failed(&mut self, why: String, kind: io::ErrorKind) {
        self.kind = kind;
        self.failed.push(why);
    }

    /// `what` failed, and why: each step's error.
    fn into_error(self, what: String) -> io::Error {
        let why = if self.failed.is_empty() {
            "no establishment method applicable".to_string()
        } else {
            self.failed.join("; ")
        };
        io::Error::new(self.kind, format!("{what}: {why}"))
    }
}

/// A node participating in the grid.
#[derive(Clone)]
pub struct GridNode {
    inner: Arc<NodeInner>,
}

impl GridNode {
    /// Join the grid: register with the name service and connect the
    /// service link to the relay (if one is configured). Must run inside a
    /// simulated task on the node's host.
    pub fn join(
        env: &GridEnv,
        host: SimHost,
        name: &str,
        profile: ConnectivityProfile,
    ) -> io::Result<GridNode> {
        // A strictly firewalled site reaches public services only through
        // its own proxy.
        let via_proxy = if profile.firewall == FirewallClass::Strict {
            profile.socks_proxy
        } else {
            None
        };
        let ns = NsClient::new(host.clone(), env.ns_addr, via_proxy);
        // Publish the ordered relay list only when there are fallbacks —
        // single-relay deployments keep their registration frames (and
        // wire traces) byte-identical.
        let mut relay_list: Vec<SockAddr> = Vec::new();
        if !env.relay_fallbacks.is_empty() {
            relay_list.extend(env.relay_addr);
            relay_list.extend(env.relay_fallbacks.iter().copied());
        }
        let id = ns.register(name, &profile, &relay_list)?;
        let relay = match env.relay_addr {
            Some(addr) => {
                let mut addrs = vec![addr];
                addrs.extend(env.relay_fallbacks.iter().copied());
                Some(RelayClient::connect_multi(&host, addrs, via_proxy, id)?)
            }
            None => None,
        };
        let seed_base = env.net.with(|w| rand::Rng::random::<u64>(w.rng()));
        let cpu = HostCpu::new(env.cpu.clone(), host.node(), env.rates);
        let inner = Arc::new(NodeInner {
            env: env.clone(),
            host,
            name: name.to_string(),
            id,
            profile,
            ns,
            relay: relay.clone(),
            cpu,
            ports: Mutex::new(HashMap::new()),
            next_data_port: AtomicU64::new(DATA_PORT_BASE as u64),
            next_splice_port: AtomicU64::new(SPLICE_PORT_BASE as u64),
            next_channel: AtomicU64::new(1),
            next_rpc_client: AtomicU64::new(1),
            seed_base,
            nat_gate: NatGate::default(),
            pending_splices: Mutex::new(HashMap::new()),
            ack_cells: Mutex::new(HashMap::new()),
            links: LinkTable::new(Arc::clone(&env.walks)),
            open_frames: AtomicU64::new(0),
            rx: RxShared::new(),
        });
        let node = GridNode { inner };
        if let Some(r) = relay {
            r.set_delegate(Arc::new(NodeDelegate {
                inner: Arc::downgrade(&node.inner),
            }));
        }
        Ok(node)
    }

    /// Join with an automatically detected connectivity profile (paper §8
    /// future work): the node classifies its own NAT via STUN-style probes
    /// and tests inbound reachability with a name-service connect-back.
    /// Sites that require a SOCKS proxy must still use [`GridNode::join`]
    /// with an explicit profile (a strictly-proxied node cannot probe).
    pub fn join_auto(env: &GridEnv, host: SimHost, name: &str) -> io::Result<GridNode> {
        let ns = NsClient::new(host.clone(), env.ns_addr, None);
        let profile = ns.detect_profile()?;
        Self::join(env, host, name, profile)
    }

    pub fn id(&self) -> GridId {
        self.inner.id
    }

    pub fn name(&self) -> &str {
        &self.inner.name
    }

    pub fn profile(&self) -> &ConnectivityProfile {
        &self.inner.profile
    }

    pub fn host(&self) -> &SimHost {
        &self.inner.host
    }

    pub fn ns(&self) -> &NsClient {
        &self.inner.ns
    }

    pub fn cpu(&self) -> &HostCpu {
        &self.inner.cpu
    }

    /// Established data links right now (the session layer's link cache).
    /// N same-spec channels to one peer count as ONE link here.
    pub fn data_link_count(&self) -> usize {
        self.inner.links.ready_count()
    }

    /// Fresh Figure-4 establishment walks this node has run — the
    /// single-flight dedupe probe: racing `connect()`s to the same peer
    /// must not add more than one.
    pub fn establishment_walks(&self) -> u64 {
        self.inner.links.walks()
    }

    /// Completed link-level recoveries: each re-established ONE shared
    /// link and replayed every channel attached to it.
    pub fn link_recoveries(&self) -> u64 {
        self.inner.links.recoveries()
    }

    /// Times the relay BUSY-throttled this node's routed writes — the
    /// typed-backpressure probe.
    pub fn relay_busy_throttles(&self) -> u64 {
        self.inner.relay.as_ref().map_or(0, |r| r.busy_throttles())
    }

    /// OPEN control frames written by this node's senders — the batching
    /// probe. A fresh link's anchor channel rides the stream preamble (no
    /// frame); every later attach, of one channel or a batch of N, costs
    /// exactly one OPEN.
    pub fn open_control_frames(&self) -> u64 {
        self.inner.open_frames.load(Ordering::Relaxed)
    }

    fn ctx(&self) -> NodeCtx {
        let weak = Arc::downgrade(&self.inner);
        NodeCtx {
            cpu: self.inner.cpu.clone(),
            sched: self.inner.env.net.sched().clone(),
            psk: self.inner.env.psk.clone(),
            seed_base: self.inner.seed_base,
            resolve: Arc::new(move |name: &str| {
                weak.upgrade()
                    .and_then(|inner| inner.ports.lock().get(name).cloned())
            }),
        }
    }

    pub(crate) fn alloc_rpc_client(&self) -> u64 {
        self.inner.next_rpc_client.fetch_add(1, Ordering::Relaxed)
    }

    fn alloc_channel(&self) -> u64 {
        (self.inner.id << 24) | self.inner.next_channel.fetch_add(1, Ordering::Relaxed)
    }

    /// Does this node need the NAT gate at all? Only symmetric NATs
    /// allocate one external port per *flow*, so only they make port
    /// predictions order-sensitive. A cone NAT maps per internal endpoint:
    /// concurrent flows cannot shift each other's mappings, so gating them
    /// would only serialize a connection storm for nothing — walks to
    /// unrelated peers run concurrently (single-flight stays per-LinkKey).
    fn nat_serializes(&self) -> bool {
        matches!(
            self.inner.profile.nat,
            Some(NatClass::SymmetricPredictable | NatClass::SymmetricRandom)
        )
    }

    /// Run `f` while holding the NAT gate (no-op unless the node's NAT
    /// makes mapping creation order-sensitive — see [`Self::nat_serializes`]).
    fn nat_gated<R>(&self, f: impl FnOnce() -> R) -> R {
        if self.nat_serializes() {
            self.inner.nat_gate.acquire();
            let r = f();
            self.inner.nat_gate.release();
            r
        } else {
            f()
        }
    }

    fn alloc_splice_ports(&self, n: u16) -> Vec<u16> {
        (0..n)
            .map(|_| self.inner.next_splice_port.fetch_add(1, Ordering::Relaxed) as u16)
            .collect()
    }

    // ------------------------------------------------------------ ports

    /// Create a named receive port with the given driver-stack spec. The
    /// spec is registered in the name service, so senders assemble the
    /// matching stack automatically.
    pub fn create_receive_port(&self, name: &str, spec: StackSpec) -> io::Result<ReceivePort> {
        let data_port = self.inner.next_data_port.fetch_add(1, Ordering::Relaxed) as u16;
        let listener = self.inner.host.listen(data_port)?;
        let listen_addr = SockAddr::new(self.inner.host.ip(), data_port);
        self.nat_gated(|| {
            self.inner
                .ns
                .register_port(self.inner.id, name, Some(listen_addr), &spec.encode())
        })?;
        // The receive port acks over the service link when one exists;
        // without a relay the watermark still travels in resume replies.
        let ack = match &self.inner.relay {
            Some(r) if self.inner.env.ack_bytes != usize::MAX => Some(AckSender {
                relay: r.clone(),
                sched: self.inner.env.net.sched().clone(),
                every: self.inner.env.ack_bytes,
            }),
            _ => None,
        };
        let inner = ReceivePortInner::new(name.to_string(), spec, ack, Arc::clone(&self.inner.rx));
        self.inner
            .ports
            .lock()
            .insert(name.to_string(), Arc::clone(&inner));
        // Accept loop: native-TCP connections (client/server and proxied).
        let port = Arc::clone(&inner);
        let node = self.clone();
        let sched = self.inner.env.net.sched().clone();
        let sched2 = sched.clone();
        sched.spawn_daemon(format!("rp-accept-{name}"), move || loop {
            let Ok(stream) = listener.accept() else { break };
            let port = Arc::clone(&port);
            let node = node.clone();
            sched2.spawn_daemon("rp-incoming", move || {
                let _ = node.handle_incoming_tcp(&port, stream);
            });
        });
        Ok(ReceivePort {
            node: self.clone(),
            inner,
        })
    }

    /// Create a send port (connect it with [`SendPort::connect`]).
    pub fn create_send_port(&self) -> SendPort {
        SendPort::new(self.clone())
    }

    pub(crate) fn forget_port(&self, name: &str) {
        self.inner.ports.lock().remove(name);
    }

    /// Read the stream preamble and register the link with the port.
    fn handle_incoming_tcp(
        &self,
        port: &Arc<ReceivePortInner>,
        stream: TcpStream,
    ) -> io::Result<()> {
        stream.set_nodelay(true)?;
        let pre = Preamble::decode(&read_frame(&mut stream.clone())?)?;
        port.add_link(&self.ctx(), pre, RawLink::Tcp(stream))
    }

    // ------------------------------------------------- establishment

    /// Establish a data connection to a named receive port: a batch of
    /// one. Used by [`SendPort::connect`].
    pub(crate) fn establish_connection(&self, port_name: &str) -> io::Result<SendConnection> {
        let mut conns = self.establish_connections_batch(port_name, 1)?;
        Ok(conns.pop().expect("a batch of one"))
    }

    /// Open `count` channels to the named receive port in one batch,
    /// returning one single-connection [`SendPort`] per channel —
    /// semantically identical to `count` separate `connect()`s, but the
    /// whole batch pays ONE name-service lookup, ONE link claim (a single
    /// Figure-4 walk when the link is fresh) and ONE `OPEN` control
    /// frame, where sequential connects pay a lookup round trip and an
    /// OPEN frame per channel.
    pub fn connect_batch(&self, port_name: &str, count: usize) -> io::Result<Vec<SendPort>> {
        let conns = self.establish_connections_batch(port_name, count)?;
        Ok(conns
            .into_iter()
            .map(|conn| SendPort::with_connection(self.clone(), conn))
            .collect())
    }

    /// The one establishment path. The session layer deduplicates: resolve
    /// the peer once and claim the link once (single-flight per link key);
    /// if an established link to that peer with the same stack spec
    /// exists, every channel attaches to it, announced by one OPEN frame,
    /// instead of re-running the Figure-4 walk.
    fn establish_connections_batch(
        &self,
        port_name: &str,
        count: usize,
    ) -> io::Result<Vec<SendConnection>> {
        if count == 0 {
            return Ok(Vec::new());
        }
        let (rec, peer_profile, _peer_name) =
            self.nat_gated(|| self.inner.ns.lookup_port(port_name))?;
        let spec = StackSpec::decode(&rec.stack)?;
        let key = LinkKey::new(rec.owner, &spec);
        let channels: Vec<u64> = (0..count).map(|_| self.alloc_channel()).collect();
        let new_chan =
            |ch: u64| Arc::new(Channel::new(ch, port_name, self.inner.env.resend_budget));
        let conns: Vec<SendConnection> = loop {
            match self.inner.links.claim(&key) {
                Claim::Ready(link) => {
                    let chans: Vec<Arc<Channel>> = channels.iter().copied().map(new_chan).collect();
                    let attached = chans
                        .iter()
                        .take_while(|c| link.attach(Arc::clone(c)))
                        .count();
                    if attached < chans.len() {
                        // The link is tearing down; undo the partial batch,
                        // GC the stale entry and re-claim (next round
                        // establishes fresh).
                        for c in &chans[..attached] {
                            link.detach(c.channel);
                        }
                        self.inner.links.remove(&key, &link);
                        continue;
                    }
                    if let Err(e) = self.announce_channels(&link, &chans) {
                        for c in &chans {
                            link.detach(c.channel);
                        }
                        self.gc_link_if_empty(&key, &link);
                        return Err(e);
                    }
                    break chans
                        .into_iter()
                        .map(|chan| SendConnection {
                            link: Arc::clone(&link),
                            chan,
                        })
                        .collect();
                }
                Claim::Mine => {
                    // The first channel anchors the walk (announced by the
                    // stream preamble itself); the rest of the batch rides
                    // one OPEN frame behind it.
                    let result = self.establish_link(
                        &key,
                        &rec,
                        &peer_profile,
                        &spec,
                        channels[0],
                        port_name,
                    );
                    self.inner.links.walk_done();
                    let anchor = match result {
                        Ok(conn) => {
                            self.inner.links.fulfill(&key, &conn.link);
                            conn
                        }
                        Err(e) => {
                            self.inner.links.abandon(&key);
                            return Err(e);
                        }
                    };
                    let link = Arc::clone(&anchor.link);
                    let extras: Vec<Arc<Channel>> =
                        channels[1..].iter().copied().map(new_chan).collect();
                    // A just-established link still holds its anchor, so it
                    // cannot be closing: attach cannot fail here.
                    for c in &extras {
                        assert!(link.attach(Arc::clone(c)), "fresh link refused attach");
                    }
                    if let Err(e) = self.announce_channels(&link, &extras) {
                        for c in &extras {
                            link.detach(c.channel);
                        }
                        return Err(e);
                    }
                    let mut conns = vec![anchor];
                    conns.extend(extras.into_iter().map(|chan| SendConnection {
                        link: Arc::clone(&link),
                        chan,
                    }));
                    break conns;
                }
            }
        };
        // Register the channels' ack watermarks so CACK service frames
        // arriving on the relay pump reach them. Survives recovery: the
        // cell rides the channel, not the link.
        self.inner.ack_cells.lock().extend(
            conns
                .iter()
                .map(|c| (c.chan.channel, Arc::clone(&c.chan.acked))),
        );
        Ok(conns)
    }

    /// Unregister a closed channel's ack watermark.
    pub(crate) fn release_channel(&self, channel: u64) {
        self.inner.ack_cells.lock().remove(&channel);
    }

    /// Announce channels joining an established link with ONE `OPEN`
    /// control frame. The whole frame is rewritten after any recovery
    /// observed mid-open: a recovery whose replay snapshot predated our
    /// attach did not announce us, and the receiver treats every entry
    /// idempotently, so always-rewrite is safe.
    fn announce_channels(&self, link: &Arc<SharedLink>, chans: &[Arc<Channel>]) -> io::Result<()> {
        if chans.is_empty() {
            return Ok(());
        }
        let open = Frame::Open(
            chans
                .iter()
                .map(|c| (c.channel, c.peer_port.clone()))
                .collect(),
        );
        loop {
            let seen = link.incarnation();
            let wrote = {
                let mut io = link.io();
                io.healthy() && io.write_control(&open).is_ok()
            };
            if wrote {
                self.inner.open_frames.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            self.recover_link(link, seen)?;
        }
    }

    /// One full walk of the decision tree for a fresh link, anchored at
    /// `channel`.
    fn establish_link(
        &self,
        key: &LinkKey,
        rec: &PortRecord,
        peer_profile: &ConnectivityProfile,
        spec: &StackSpec,
        channel: u64,
        port_name: &str,
    ) -> io::Result<SendConnection> {
        self.inner.links.note_walk();
        let mut walk = Walk::new(choose_methods(
            &self.inner.profile,
            peer_profile,
            LinkPurpose::Data,
        ));
        let Some((method, io, _)) = self.walk_on(&mut walk, rec, peer_profile, spec, channel, None)
        else {
            let what = format!("all establishment methods failed for '{port_name}'");
            return Err(walk.into_error(what));
        };
        let chan = Arc::new(Channel::new(
            channel,
            port_name,
            self.inner.env.resend_budget,
        ));
        let link = Arc::new(SharedLink::new(
            key.clone(),
            spec.clone(),
            method,
            io,
            channel,
        ));
        link.attach(Arc::clone(&chan));
        self.spawn_path_controller(&link);
        Ok(SendConnection { link, chan })
    }

    /// The Figure-4 walk, for a fresh link (`resume` is `None`) and for a
    /// recovery alike: go on down `walk`'s methods to the next one that
    /// establishes its raw links and assembles the sender stack over
    /// them (after the receiver's resume reply, when resuming — returned
    /// beside the stack). A method that does not leaves its error in
    /// `walk`; `None` when none is left.
    fn walk_on(
        &self,
        walk: &mut Walk,
        rec: &PortRecord,
        peer_profile: &ConnectivityProfile,
        spec: &StackSpec,
        channel: u64,
        resume: Option<&ResumeMeta>,
    ) -> Option<(EstablishMethod, LinkIo, Vec<u64>)> {
        while let Some(method) = walk.methods.next() {
            let built = self
                .try_method(method, rec, peer_profile, spec, channel, resume)
                .and_then(|(links, total)| self.build_link_io(links, total, spec, resume));
            match built {
                Ok((io, deliveries)) => return Some((method, io, deliveries)),
                Err(e) => walk.failed(format!("{method}: {e}"), e.kind()),
            }
        }
        None
    }

    /// Read the resume reply (if resuming) and assemble the sender stack.
    /// The reply carries one delivered count per channel the preamble
    /// listed (anchor first, then the extras in preamble order).
    fn build_link_io(
        &self,
        links: Vec<RawLink>,
        total: u16,
        spec: &StackSpec,
        resume: Option<&ResumeMeta>,
    ) -> io::Result<(LinkIo, Vec<u64>)> {
        let deliveries = match resume {
            // The receiver replies once every stream arrived.
            Some(meta) => {
                let frame = read_reply(&links[0], "resume reply")?;
                ResumeReply::decode(&frame, 1 + meta.extras.len())?.0
            }
            None => Vec::new(),
        };
        let spec_eff = spec.clone().with_streams(total.max(1));
        let ctx = self.ctx();
        let sec = ctx.security(&spec_eff);
        let probes = links.clone();
        let (writer, pool, term) =
            build_sender(links, &spec_eff, self.inner.cpu.clone(), sec.as_ref())?;
        Ok((
            LinkIo {
                writer,
                pool,
                active: probes.len(),
                links: probes,
                term,
            },
            deliveries,
        ))
    }

    // -------------------------------------------- live reconfiguration

    /// Switch a link's path parameters live (DESIGN.md §11): flush the
    /// current stack to a frame boundary, tell the receiver with a
    /// `RECONFIG` frame, wait for its delivered-watermark ack, and rebuild
    /// the sender stack from the new parameters — all without tearing the
    /// raw connections down. Returns `false` if the link already runs
    /// `params` (no wire traffic).
    ///
    /// On any wire failure mid-exchange the two ends may disagree about
    /// the committed format, so the error path funnels into link
    /// recovery: a full re-establishment resynchronizes both sides at the
    /// establishment spec (exactly-once delivery preserved by the resume
    /// replay), and the caller may retry later.
    pub(crate) fn reconfigure_link(
        &self,
        link: &Arc<SharedLink>,
        params: PathParams,
    ) -> io::Result<bool> {
        let seen = link.incarnation();
        match self.try_reconfigure(link, params) {
            Ok(done) => Ok(done),
            // Parameter validation failed before anything hit the wire.
            Err(e) if e.kind() == io::ErrorKind::InvalidInput => Err(e),
            Err(e) => {
                let _ = self.recover_link(link, seen);
                Err(e)
            }
        }
    }

    /// One reconfiguration attempt, entirely under the write gate so no
    /// channel writer can interleave a message between the old and new
    /// stack formats.
    fn try_reconfigure(&self, link: &Arc<SharedLink>, params: PathParams) -> io::Result<bool> {
        let mut io = link.io();
        if params == link.path_params() {
            return Ok(false);
        }
        // Stripes can only be spread over connections establishment
        // actually dialed; parked spares beyond `active` are reusable.
        if !params.valid_for(io.links.len()) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "reconfig {} invalid for {} raw link(s)",
                    params.describe(),
                    io.links.len()
                ),
            ));
        }
        if !io.healthy() {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "link down before reconfig",
            ));
        }
        // The epoch is burned even if this attempt dies: the receiver can
        // always order frames, and recovery never rewinds it.
        let epoch = link.next_path_epoch();
        io.write_reconfig(epoch, params)?;
        // Block for the receiver's ack: it proves the receiver consumed
        // every old-format byte and swapped.
        let ack = ReconfigAck::decode(&read_reply(&io.links[0], "reconfig ack")?)?;
        if ack.epoch != epoch {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("reconfig ack epoch {}, expected {epoch}", ack.epoch),
            ));
        }
        // The ack carries the receiver's delivered watermarks — the
        // exactly-once handshake. Everything we wrote happened-before the
        // RECONFIG frame, so these cover every sent message; advancing
        // the ack cells prunes the resend buffers for free.
        let chans = link.replay_order();
        for (ch, delivered) in ack.delivered {
            if let Some(c) = chans.iter().find(|c| c.channel == ch) {
                c.acked.advance(delivered);
            }
        }
        // Rebuild the sender stack over the first `stripes` connections;
        // the rest stay parked (healthy() ignores them). GTLS stacks
        // re-handshake deterministically from the per-stream salt.
        let spec_eff = link.spec.clone().with_path(params);
        let ctx = self.ctx();
        let sec = ctx.security(&spec_eff);
        let raw: Vec<RawLink> = io.links[..params.stripes as usize].to_vec();
        let (writer, pool, term) =
            build_sender(raw, &spec_eff, self.inner.cpu.clone(), sec.as_ref())?;
        io.writer = writer;
        io.pool = pool;
        io.term = term;
        io.active = params.stripes as usize;
        link.set_path_params(params);
        Ok(true)
    }

    /// Start the per-link control daemon, if the environment opted in:
    /// sample transport telemetry every `interval`, feed the deterministic
    /// [`PathController`], and apply whatever it decides. Exits when the
    /// last channel detaches from the link.
    fn spawn_path_controller(&self, link: &Arc<SharedLink>) {
        let Some(cfg) = self.inner.env.path_control else {
            return;
        };
        let node = self.clone();
        let weak = Arc::downgrade(link);
        let sched = self.ctx().sched;
        sched.spawn_daemon("path-ctl", move || {
            let mut ctl: Option<PathController> = None;
            loop {
                gridsim_net::ctx::sleep(cfg.interval);
                let Some(link) = weak.upgrade() else { break };
                if link.channel_count() == 0 {
                    break;
                }
                let now = gridsim_net::ctx::now().as_nanos() / 1_000;
                let sample = link.sample_stats(now);
                let ctl = ctl.get_or_insert_with(|| PathController::new(link.path_params(), cfg));
                // A recovery may have reset the live parameters behind our
                // back; resync before and after deciding.
                ctl.applied(link.path_params());
                if let Some(p) = ctl.on_sample(sample) {
                    let _ = node.reconfigure_link(&link, p);
                    ctl.applied(link.path_params());
                }
            }
        });
    }

    // ------------------------------------------------- the data path

    /// Send one message payload on a channel. The fast path writes under
    /// the link's FIFO gate; a detected failure (before or during the
    /// write) funnels into the link's single-flight recovery, whose replay
    /// covers this message — the `wire_seq` check notices that and skips
    /// the duplicate write.
    pub(crate) fn send_on(&self, c: &SendConnection, payload: &bytes::Bytes) -> io::Result<()> {
        let seq = c.chan.retain(payload);
        loop {
            let seen = c.link.incarnation();
            let (wrote, contended) = {
                let mut io = c.link.io();
                if c.chan.wire_seq() > seq {
                    // A recovery replayed this message while we waited on
                    // the gate.
                    return Ok(());
                }
                let ok = io.healthy() && io.write_msg(c.chan.channel, payload).is_ok();
                (ok, c.link.io_contended())
            };
            if wrote {
                c.chan.advance_wire(seq + 1);
                if contended {
                    // Releasing the gate wakes the front waiter, but the
                    // wake is an event: without yielding here, the next
                    // send_on call re-locks the free gate first and a
                    // queued OPEN starves behind the entire data run.
                    gridsim_net::ctx::yield_now();
                }
                return Ok(());
            }
            self.recover_link(&c.link, seen)?;
        }
    }

    /// Flush a channel, announce its clean close, and wait for the bytes
    /// to leave the host; then detach it (tearing the link down if it was
    /// the last channel) and unregister its ack watermark.
    pub(crate) fn close_channel(&self, c: &SendConnection) -> io::Result<()> {
        let r = self.graceful_close(&c.link, &c.chan);
        if c.link.attached(c.chan.channel) {
            c.link.detach(c.chan.channel);
        }
        self.gc_link_if_empty(&c.link.key, &c.link);
        self.release_channel(c.chan.channel);
        r
    }

    /// Abrupt release (port dropped without `close()`): detach without
    /// touching the wire — exactly what dropping a dedicated stack did
    /// before the session layer.
    pub(crate) fn drop_channel(&self, c: &SendConnection) {
        if c.link.attached(c.chan.channel) {
            c.link.detach(c.chan.channel);
        }
        self.gc_link_if_empty(&c.link.key, &c.link);
        self.release_channel(c.chan.channel);
    }

    fn graceful_close(&self, link: &Arc<SharedLink>, chan: &Arc<Channel>) -> io::Result<()> {
        loop {
            if !link.attached(chan.channel) {
                return Ok(());
            }
            let seen = link.incarnation();
            let r = {
                let mut io = link.io();
                let res = io.writer.flush();
                let channel = chan.channel;
                let res = res.and_then(|()| io.write_control(&Frame::Close { channel }));
                // Settle under the gate: no concurrent writer can queue
                // fresh bytes between our CLOSE and the drain check.
                res.and_then(|()| io.settle())
            };
            match r {
                Ok(()) => return Ok(()),
                Err(_) => self.recover_link(link, seen)?,
            }
        }
    }

    fn gc_link_if_empty(&self, key: &LinkKey, link: &Arc<SharedLink>) {
        if link.channel_count() == 0 {
            self.inner.links.remove(key, link);
        }
    }

    // ------------------------------------------------- link recovery

    /// Funnel a failed write into the link's single-flight recovery:
    /// exactly one task re-establishes and replays all channels; everyone
    /// else parks until that round completes (or learns a completed round
    /// already covered them).
    pub(crate) fn recover_link(&self, link: &Arc<SharedLink>, seen: u64) -> io::Result<()> {
        match link.begin_recovery(seen) {
            RecoveryRole::Recovered => Ok(()),
            RecoveryRole::Failed(e) => Err(e),
            RecoveryRole::Recoverer => {
                let result = self.do_recover_link(link);
                match &result {
                    Ok(()) => self.inner.links.note_recovery(),
                    // A dead link must not be handed to new claimants;
                    // attached channels keep their state and retry
                    // recovery on their next send.
                    Err(_) => self.inner.links.remove(&link.key, link),
                }
                link.finish_recovery(&result);
                result
            }
        }
    }

    /// Re-establish a failed shared link in place: back off, walk the
    /// decision tree again (possibly landing on a *different* method —
    /// e.g. spliced before the failure, routed after), learn the
    /// receiver's delivered count for EVERY attached channel, and replay
    /// the retained gaps. Exactly-once holds because the receiver drops
    /// anything below its per-channel watermark.
    fn do_recover_link(&self, link: &Arc<SharedLink>) -> io::Result<()> {
        // Whatever killed the data link may also have silently killed the
        // idle relay service link (an abort whose RST the outage
        // swallowed). Probe it now so incoming service traffic — the
        // receiver's CACKs in particular — finds us registered again.
        if let Some(relay) = &self.inner.relay {
            relay.nudge();
        }
        let peer_desc = link
            .replay_order()
            .first()
            .map(|c| c.peer_port.clone())
            .unwrap_or_default();
        let mut delay = RECOVER_BASE;
        // The last attempt's walk: what each of its methods ran into.
        let mut walk = Walk::new(Vec::new());
        for _ in 0..RECOVER_ATTEMPTS {
            gridsim_net::ctx::sleep(delay);
            delay = (delay * 2).min(RECOVER_DELAY_CAP);
            let chans = link.replay_order();
            let Some(anchor) = chans.first() else {
                // Every channel detached while we backed off: nothing to
                // recover. The link stays dead and gets GC'd by the last
                // detach.
                return Ok(());
            };
            // Re-anchor on the surviving head channel (the original anchor
            // may have closed); establishment dials ITS receive port.
            link.set_anchor(anchor.channel);
            let gen = link.next_gen();
            let extras: Vec<(u64, String)> = chans[1..]
                .iter()
                .map(|c| (c.channel, c.peer_port.clone()))
                .collect();
            let plan = ResumeMeta { gen, extras };
            let (rec, peer_profile, _) =
                match self.nat_gated(|| self.inner.ns.lookup_port(&anchor.peer_port)) {
                    Ok(x) => x,
                    Err(e) => {
                        walk = Walk::new(Vec::new());
                        walk.failed(e.to_string(), e.kind());
                        continue;
                    }
                };
            walk = Walk::new(choose_methods(
                &self.inner.profile,
                &peer_profile,
                LinkPurpose::Data,
            ));
            while let Some((method, io, deliveries)) = self.walk_on(
                &mut walk,
                &rec,
                &peer_profile,
                &link.spec,
                anchor.channel,
                Some(&plan),
            ) {
                // Validate every channel's replay BEFORE swapping the
                // stack in: a resume-bounds violation (evicted gap,
                // impossible watermark) is fatal and must not be retried.
                let replays = chans
                    .iter()
                    .zip(&deliveries)
                    .map(|(c, &e)| c.prepare_replay(e))
                    .collect::<io::Result<Vec<_>>>()?;
                let active = io.active as u16;
                match self.swap_and_replay(link, io, &chans, &replays) {
                    Ok(()) => {
                        link.set_method(method);
                        // Live path parameters reset to the establishment
                        // spec (with the stripe count the method actually
                        // delivered — routed links carry one stream). The
                        // epoch is NOT rewound; the path controller
                        // re-issues its tuning from scratch.
                        link.set_path_params(PathParams {
                            stripes: active.max(1),
                            ..link.spec.path
                        });
                        link.bump_incarnation();
                        return Ok(());
                    }
                    // Replay write failure: the fresh link died too.
                    // Messages stay retained; walk on, then another attempt.
                    Err(e) => walk.failed(format!("{method}: replay: {e}"), e.kind()),
                }
            }
        }
        let what =
            format!("could not recover link to '{peer_desc}' after {RECOVER_ATTEMPTS} attempts");
        Err(walk.into_error(what))
    }

    /// Swap the fresh stack in and replay every channel's retained gap
    /// through it, all under the write gate so concurrent senders observe
    /// either the dead stack or the fully replayed one.
    fn swap_and_replay(
        &self,
        link: &Arc<SharedLink>,
        new_io: LinkIo,
        chans: &[Arc<Channel>],
        replays: &[Vec<bytes::Bytes>],
    ) -> io::Result<()> {
        let mut io = link.io();
        *io = new_io;
        for (c, msgs) in chans.iter().zip(replays) {
            for p in msgs {
                io.write_msg(c.channel, p)?;
            }
        }
        Ok(())
    }

    /// Attempt one establishment method; returns the raw links in stream
    /// order plus the effective stream count.
    fn try_method(
        &self,
        method: EstablishMethod,
        rec: &PortRecord,
        peer_profile: &ConnectivityProfile,
        spec: &StackSpec,
        channel: u64,
        resume: Option<&ResumeMeta>,
    ) -> io::Result<(Vec<RawLink>, u16)> {
        match method {
            EstablishMethod::ClientServer => {
                let listener = rec.listener.ok_or_else(|| {
                    io::Error::new(io::ErrorKind::AddrNotAvailable, "port has no listener")
                })?;
                let mut links = Vec::with_capacity(spec.streams() as usize);
                for idx in 0..spec.streams() {
                    // Storm hardening: transient ephemeral-port exhaustion
                    // (AddrInUse) retries outside the NAT gate, so a
                    // symmetric-NAT node never sleeps while holding it.
                    let s = crate::establish::factory::retry_addr_in_use(|| {
                        self.nat_gated(|| self.inner.host.connect(listener))
                    })?;
                    self.send_preamble(&s, channel, idx, spec.streams(), resume)?;
                    links.push(RawLink::Tcp(s));
                }
                Ok((links, spec.streams()))
            }
            EstablishMethod::Proxy => {
                let listener = rec.listener.ok_or_else(|| {
                    io::Error::new(io::ErrorKind::AddrNotAvailable, "port has no listener")
                })?;
                // Use the target's site proxy to reach inward; fall back to
                // our own proxy for a strictly firewalled initiator.
                let proxy = if !peer_profile.accepts_inbound() {
                    peer_profile.socks_proxy
                } else {
                    self.inner.profile.socks_proxy
                }
                .ok_or_else(|| {
                    io::Error::new(io::ErrorKind::AddrNotAvailable, "no SOCKS proxy available")
                })?;
                let mut links = Vec::with_capacity(spec.streams() as usize);
                for idx in 0..spec.streams() {
                    let s = self.nat_gated(|| socks_connect(&self.inner.host, proxy, listener))?;
                    self.send_preamble(&s, channel, idx, spec.streams(), resume)?;
                    links.push(RawLink::Tcp(s));
                }
                Ok((links, spec.streams()))
            }
            EstablishMethod::Splicing => {
                // NAT port prediction races with any concurrent outbound
                // traffic on the same site (each connection consumes
                // mappings); like real NAT-traversal systems, retry with a
                // staggered backoff before falling back down the tree.
                let mut last = None;
                for attempt in 0..3u32 {
                    if attempt > 0 {
                        let stagger =
                            Duration::from_millis(200 * attempt as u64 + (channel % 7) * 50);
                        gridsim_net::ctx::sleep(stagger);
                    }
                    match self.splice_initiate(rec, spec, channel, resume) {
                        Ok(links) => return Ok((links, spec.streams())),
                        Err(e) => last = Some(e),
                    }
                }
                Err(last.expect("at least one attempt"))
            }
            EstablishMethod::Routed => {
                let relay = self.relay()?;
                let pre = Preamble {
                    channel,
                    idx: 0,
                    total: 1,
                    resume: resume.cloned(),
                };
                let stream = relay.open_stream(rec.owner, &rec.name, pre.routed_channel())?;
                if let Some(fields) = pre.resume_frame() {
                    fields.send(&mut stream.clone())?;
                }
                Ok((vec![RawLink::Routed(stream)], 1))
            }
        }
    }

    fn relay(&self) -> io::Result<&RelayClient> {
        self.inner.relay.as_ref().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                "no relay configured (needed for brokering/routing)",
            )
        })
    }

    fn send_preamble(
        &self,
        s: &TcpStream,
        channel: u64,
        idx: u16,
        total: u16,
        resume: Option<&ResumeMeta>,
    ) -> io::Result<()> {
        s.set_nodelay(true)?;
        let resume = resume.cloned();
        let pre = Preamble {
            channel,
            idx,
            total,
            resume,
        };
        pre.frame().send(&mut s.clone())
    }

    /// TCP configuration used for spliced connects: bounded retries so a
    /// failed prediction falls through to a retry or the next method in a
    /// few seconds.
    fn splice_cfg(&self) -> TcpConfig {
        TcpConfig {
            syn_retries: 2,
            ..self.inner.host.tcp_config()
        }
    }

    /// Compute the public endpoints peers must dial for our upcoming
    /// connects from `local_ports` (paper §6's NAT port prediction).
    fn predict_endpoints(&self, local_ports: &[u16]) -> io::Result<Vec<SockAddr>> {
        match self.inner.profile.nat {
            None => Ok(local_ports
                .iter()
                .map(|&p| SockAddr::new(self.inner.host.ip(), p))
                .collect()),
            Some(NatClass::Cone) => {
                // One probe per port: the cone mapping persists for any
                // destination.
                local_ports
                    .iter()
                    .map(|&p| self.inner.ns.probe_observed(Some(p), false))
                    .collect()
            }
            Some(NatClass::SymmetricPredictable) => {
                // One probe from an ephemeral port reveals the allocation
                // counter; our next `n` outbound connections (in order)
                // will take the following ports.
                let observed = self.inner.ns.probe_observed(None, false)?;
                Ok((0..local_ports.len() as u16)
                    .map(|i| SockAddr::new(observed.ip, observed.port + 1 + i))
                    .collect())
            }
            Some(NatClass::SymmetricRandom) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unpredictable NAT: splicing not possible",
            )),
        }
    }

    /// Initiator side of brokered TCP splicing (paper Fig. 7), three
    /// messages over the service link:
    ///
    /// 1. `SPLICE_REQ {channel, port, total}` — the responder predicts its
    ///    public endpoints (holding its NAT gate if NATted) and replies.
    /// 2. The initiator predicts its own endpoints and **emits its SYNs
    ///    before releasing its NAT gate** — the predict→SYN window is
    ///    therefore race-free on this side.
    /// 3. `SPLICE_GO {channel, initiator endpoints}` — the responder
    ///    connects (and releases its gate).
    fn splice_initiate(
        &self,
        rec: &PortRecord,
        spec: &StackSpec,
        channel: u64,
        resume: Option<&ResumeMeta>,
    ) -> io::Result<Vec<RawLink>> {
        let relay = self.relay()?.clone();
        let total = spec.streams();
        // During recovery the responder may have died mid-negotiation;
        // bound the brokering round-trips so the tree can fall through.
        let svc_timeout = resume.map(|_| RECOVER_SVC_TIMEOUT);
        // 1. Request: responder allocates + predicts.
        let req = FrameWriter::new()
            .u8(svc::SPLICE_REQ)
            .u64(channel)
            .str(&rec.name)
            .u64(total as u64)
            .into_bytes();
        let rsp = relay.service_request_timeout(rec.owner, &req, svc_timeout)?;
        let mut r = FrameReader::new(&rsp);
        if r.u8()? != 1 {
            let msg = r.str().unwrap_or_default();
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("splice refused: {msg}"),
            ));
        }
        let n = r.u64()? as usize;
        if n != total as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "endpoint count mismatch",
            ));
        }
        let peer_eps: Vec<SockAddr> = (0..n).map(|_| r.addr()).collect::<io::Result<_>>()?;

        // 2. Predict and emit SYNs under the NAT gate.
        let natted = self.nat_serializes();
        if natted {
            self.inner.nat_gate.acquire();
        }
        let launched = (|| -> io::Result<(Vec<TcpStream>, Vec<SockAddr>)> {
            let my_ports = self.alloc_splice_ports(total);
            let my_eps = self.predict_endpoints(&my_ports)?;
            let cfg = self.splice_cfg();
            let mut streams = Vec::with_capacity(total as usize);
            for (&lp, &ep) in my_ports.iter().zip(&peer_eps) {
                streams.push(self.inner.host.connect_start(
                    ep,
                    ConnectOpts {
                        local_port: Some(lp),
                        cfg: Some(cfg),
                    },
                )?);
            }
            Ok((streams, my_eps))
        })();
        if natted {
            self.inner.nat_gate.release();
        }
        let (streams, my_eps) = match launched {
            Ok(x) => x,
            Err(e) => {
                // Tell the responder to abandon the negotiation (it may be
                // holding its NAT gate).
                let abort = FrameWriter::new()
                    .u8(svc::SPLICE_ABORT)
                    .u64(channel)
                    .into_bytes();
                let _ = relay.service_request(rec.owner, &abort);
                return Err(e);
            }
        };

        // 3. GO: the responder connects towards us.
        let mut go = FrameWriter::new()
            .u8(svc::SPLICE_GO)
            .u64(channel)
            .u64(my_eps.len() as u64);
        for ep in &my_eps {
            go = go.addr(*ep);
        }
        let go_rsp = relay.service_request_timeout(rec.owner, &go.into_bytes(), svc_timeout)?;
        let mut r = FrameReader::new(&go_rsp);
        if r.u8()? != 1 {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "splice GO refused",
            ));
        }

        // Wait for establishment, then send the stream preambles.
        let mut links = Vec::with_capacity(streams.len());
        for (idx, stream) in streams.into_iter().enumerate() {
            stream.wait_established()?;
            self.send_preamble(&stream, channel, idx as u16, total, resume)?;
            links.push(RawLink::Tcp(stream));
        }
        Ok(links)
    }

    // -------------------------------------------- responder-side splice

    /// Handle `SPLICE_REQ`: allocate ports, predict endpoints (taking the
    /// NAT gate, held until GO/ABORT), reply with the predictions.
    fn handle_splice_request(&self, _from: GridId, r: &mut FrameReader<'_>) -> io::Result<Vec<u8>> {
        let channel = r.u64()?;
        let port_name = r.str()?;
        let (_, total) = stream_slot(0, r.u64()?)?;
        let port = self
            .inner
            .ports
            .lock()
            .get(&port_name)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "unknown receive port"))?;
        if !self.inner.profile.splice_capable() {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "this side cannot splice",
            ));
        }
        // A duplicate REQ for the same channel is a retry whose response
        // was lost to a relay failover: drop the stale negotiation (and
        // its gate hold) instead of deadlocking on a second acquire.
        if let Some(p) = self.inner.pending_splices.lock().remove(&channel) {
            if p.holds_gate {
                self.inner.nat_gate.release();
            }
        }
        let natted = self.nat_serializes();
        if natted {
            self.inner.nat_gate.acquire();
        }
        let predicted = (|| -> io::Result<(Vec<u16>, Vec<SockAddr>)> {
            let my_ports = self.alloc_splice_ports(total);
            let eps = self.predict_endpoints(&my_ports)?;
            Ok((my_ports, eps))
        })();
        let (my_ports, my_endpoints) = match predicted {
            Ok(x) => x,
            Err(e) => {
                if natted {
                    self.inner.nat_gate.release();
                }
                return Err(e);
            }
        };
        self.inner.pending_splices.lock().insert(
            channel,
            PendingSplice {
                port,
                my_ports,
                total,
                holds_gate: natted,
            },
        );
        let mut w = FrameWriter::new().u8(1).u64(my_endpoints.len() as u64);
        for ep in &my_endpoints {
            w = w.addr(*ep);
        }
        Ok(w.into_bytes())
    }

    /// Handle `SPLICE_GO`: emit our SYNs towards the initiator's endpoints
    /// (mappings land on the predicted ports because the gate was held
    /// since REQ), then release the gate.
    fn handle_splice_go(&self, _from: GridId, r: &mut FrameReader<'_>) -> io::Result<Vec<u8>> {
        let channel = r.u64()?;
        let n = r.u64()? as usize;
        let peer_eps: Vec<SockAddr> = (0..n).map(|_| r.addr()).collect::<io::Result<_>>()?;
        let pending = self
            .inner
            .pending_splices
            .lock()
            .remove(&channel)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no pending splice"))?;
        let result = (|| -> io::Result<()> {
            if peer_eps.len() != pending.total as usize || peer_eps.len() != pending.my_ports.len()
            {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "endpoint count mismatch",
                ));
            }
            let cfg = self.splice_cfg();
            let sched = self.inner.env.net.sched().clone();
            for (i, (&lp, &ep)) in pending.my_ports.iter().zip(&peer_eps).enumerate() {
                let stream = self.inner.host.connect_start(
                    ep,
                    ConnectOpts {
                        local_port: Some(lp),
                        cfg: Some(cfg),
                    },
                )?;
                let node = self.clone();
                let port = Arc::clone(&pending.port);
                sched.spawn_daemon(format!("splice-accept-{i}"), move || {
                    if stream.wait_established().is_err() {
                        return;
                    }
                    // Same as an accepted connection: read the initiator's
                    // preamble.
                    let _ = node.handle_incoming_tcp(&port, stream);
                });
            }
            Ok(())
        })();
        if pending.holds_gate {
            self.inner.nat_gate.release();
        }
        result.map(|()| FrameWriter::new().u8(1).into_bytes())
    }

    /// Handle `CACK{channel, delivered}` from a receive port: advance the
    /// matching send channel's cumulative-ack watermark. Unknown channels
    /// (already closed) still ack — the frame is advisory and a stale CACK
    /// needs no error.
    fn handle_cack(&self, r: &mut FrameReader<'_>) -> io::Result<Vec<u8>> {
        let channel = r.u64()?;
        let delivered = r.u64()?;
        if let Some(cell) = self.inner.ack_cells.lock().get(&channel) {
            cell.advance(delivered);
        }
        Ok(FrameWriter::new().u8(1).into_bytes())
    }

    /// Handle `SPLICE_ABORT`: drop the pending negotiation and free the gate.
    fn handle_splice_abort(&self, r: &mut FrameReader<'_>) -> io::Result<Vec<u8>> {
        let channel = r.u64()?;
        if let Some(p) = self.inner.pending_splices.lock().remove(&channel) {
            if p.holds_gate {
                self.inner.nat_gate.release();
            }
        }
        Ok(FrameWriter::new().u8(1).into_bytes())
    }
}

/// Service-message opcodes (carried in SVC_REQ payloads).
pub(crate) mod svc {
    pub const SPLICE_REQ: u8 = 1;
    pub const SPLICE_GO: u8 = 2;
    pub const SPLICE_ABORT: u8 = 3;
    /// Receiver-driven cumulative ack: `CACK {channel, delivered}`.
    pub const CACK: u8 = 4;
}

/// The relay delegate: routes service requests and routed-link opens into
/// the node runtime.
struct NodeDelegate {
    inner: Weak<NodeInner>,
}

impl NodeDelegate {
    fn node(&self) -> Option<GridNode> {
        self.inner.upgrade().map(|inner| GridNode { inner })
    }
}

impl RelayDelegate for NodeDelegate {
    fn on_service_request(&self, from: GridId, payload: &[u8]) -> Vec<u8> {
        let Some(node) = self.node() else {
            return FrameWriter::new().u8(0).str("node gone").into_bytes();
        };
        let mut r = FrameReader::new(payload);
        let result = match r.u8() {
            Ok(svc::SPLICE_REQ) => node.handle_splice_request(from, &mut r),
            Ok(svc::SPLICE_GO) => node.handle_splice_go(from, &mut r),
            Ok(svc::SPLICE_ABORT) => node.handle_splice_abort(&mut r),
            Ok(svc::CACK) => node.handle_cack(&mut r),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "unknown service request",
            )),
        };
        match result {
            Ok(rsp) => rsp,
            Err(e) => FrameWriter::new().u8(0).str(&e.to_string()).into_bytes(),
        }
    }

    fn on_open(
        &self,
        _from: GridId,
        port_name: &str,
        channel: u64,
        stream: RoutedStream,
    ) -> Result<(), String> {
        let Some(node) = self.node() else {
            return Err("node gone".into());
        };
        let port = node
            .inner
            .ports
            .lock()
            .get(port_name)
            .cloned()
            .ok_or_else(|| format!("unknown receive port '{port_name}'"))?;
        // Admitted. Reading the resume fields (a resumed link's first stream
        // frame) and assembling the stack block, so they run in a task; the
        // opener hears of a failure there through a late refusal.
        gridsim_net::ctx::handle().spawn_daemon("routed-open", move || {
            let link = RawLink::Routed(stream.clone());
            let opened = Preamble::decode_routed(channel, || read_frame(&mut stream.clone()))
                .and_then(|pre| port.add_link(&node.ctx(), pre, link));
            if let Err(e) = opened {
                stream.refuse(&e.to_string());
            }
        });
        Ok(())
    }
}

/// Read the frame the receiver writes raw on stream 0 (`l0`), in the
/// reverse direction, to answer a resume preamble or a RECONFIG. Polls
/// readability first: a plain blocking read on a link that dies again
/// right here would park forever.
fn read_reply(l0: &RawLink, what: &str) -> io::Result<Vec<u8>> {
    let readable = || match l0 {
        RawLink::Tcp(s) => s.readable(),
        RawLink::Routed(s) => s.readable(),
    };
    if !wait_until(RESUME_REPLY_TIMEOUT, Duration::from_millis(10), readable) {
        return Err(io::Error::new(
            io::ErrorKind::TimedOut,
            format!("no {what} from receiver"),
        ));
    }
    read_frame(&mut l0.clone())
}

/// Block the calling task until `cond` holds or `timeout` elapses; polls at
/// the given interval.
fn wait_until(timeout: Duration, poll: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = gridsim_net::ctx::now() + timeout;
    while gridsim_net::ctx::now() < deadline {
        if cond() {
            return true;
        }
        gridsim_net::ctx::sleep(poll);
    }
    cond()
}
