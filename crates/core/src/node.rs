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
//! triggers ONE re-establishment that replays every attached channel
//! from the receiver's RESUME reply ([`crate::resume`]).
//! There is one establishment path (`connect()` is a batch of one): the
//! walk ([`GridNode::walk_on`]) runs the methods' connectors, which live in
//! [`crate::establish`] with their responder halves.

use gridcrypt::SecureConfig;
use gridsim_net::{Metric, Net, SchedHandle, SockAddr};
use gridsim_tcp::SimHost;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use crate::cpu::{CpuModel, CpuRates, HostCpu};
use crate::drivers::{build_sender, PathParams, RawLink, SecurityContext, StackSpec};
use crate::establish::factory::{NatGate, Splices};
use crate::establish::{self, BrokeredSocketFactory, EstablishMethod, LinkKey, Target, Walk};
use crate::link::{next_conn, Backoff};
use crate::nameservice::{GridId, NsClient};
use crate::port::{AckSender, ReceivePort, ReceivePortInner, RxShared, SendConnection, SendPort};
use crate::profile::{ConnectivityProfile, FirewallClass};
use crate::relay::{RelayClient, RelayDelegate, RoutedStream, SvcReply};
use crate::session::{Channel, Claim, LinkIo, LinkTable, SharedLink};
use crate::tune::{PathControlConfig, PathController};
use crate::wire::{link_frame, Frame, Put, ReconfigAck, ResumeMeta, ResumeReply};
use crate::wire::{SvcMsg, Wire};

/// Reconnect schedule for failed data links.
pub(crate) const RECOVER: Backoff = Backoff::ms(8, 50, 2000);
/// How long a sender waits for the receiver's reply on stream 0 (the
/// delivered counts after a resume preamble, the ack of a RECONFIG) before
/// abandoning the attempt: a sim-time deadline on the read, so a second
/// failure right there cannot wedge it.
const RESUME_REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Figure-4 walks in flight across the world, and the most at once.
const WALKS_IN_FLIGHT: Metric = Metric("world", None, "walks_in_flight");
const WALK_PEAK: Metric = Metric("world", None, "walk_peak");

/// First local port used for receive-port data listeners.
const DATA_PORT_BASE: u16 = 20_000;

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
        }
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
    name: String,
    id: GridId,
    cpu: HostCpu,
    ports: Mutex<HashMap<String, Arc<ReceivePortInner>>>,
    next_data_port: AtomicU64,
    next_channel: AtomicU64,
    /// Numbers this node's RPC reply ports. Per node, not per process: the
    /// number is in the port's name and the name is on the wire.
    next_rpc_client: AtomicU64,
    seed_base: u64,
    /// The node's host, profile and service links, with what its Figure-4
    /// methods share: the NAT gate, splice ports and negotiations.
    brokered: BrokeredSocketFactory,
    /// This node's open send channels by id, each beside the one receiver
    /// whose CACK frames it takes.
    senders: Mutex<HashMap<u64, (GridId, Arc<Channel>)>>,
    /// The session layer's cache of established data links (at most one
    /// per peer + stack spec).
    links: LinkTable,
    /// The receive side of every channel this node's ports carry.
    rx: Arc<Mutex<RxShared>>,
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
        let gate = NatGate::for_profile(&profile);
        let ns = NsClient::new(host.clone(), env.ns_addr, via_proxy).under(Arc::clone(&gate));
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
            name: name.to_string(),
            id,
            cpu,
            ports: Mutex::new(HashMap::new()),
            next_data_port: AtomicU64::new(DATA_PORT_BASE as u64),
            next_channel: AtomicU64::new(1),
            next_rpc_client: AtomicU64::new(1),
            seed_base,
            brokered: BrokeredSocketFactory {
                host,
                profile,
                ns,
                relay: relay.clone(),
                gate,
                splices: Splices::default(),
            },
            senders: Mutex::new(HashMap::new()),
            links: LinkTable::new(env.net.sched().clone(), Metric("node", Some(id), "links")),
            rx: Arc::default(),
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
        &self.inner.brokered.profile
    }

    pub fn host(&self) -> &SimHost {
        &self.inner.brokered.host
    }

    pub fn ns(&self) -> &NsClient {
        &self.inner.brokered.ns
    }

    pub fn cpu(&self) -> &HostCpu {
        &self.inner.cpu
    }

    /// Count one more of this node's `node/<id>/<name>` (DESIGN.md §12).
    fn count(&self, name: &'static str) {
        let sched = self.inner.env.net.sched();
        sched.metric_add(Metric("node", Some(self.inner.id), name), 1);
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

    /// A fresh channel id; its high bits are ours, which is how a splice
    /// responder tells the initiator's messages from anyone else's.
    fn alloc_channel(&self) -> u64 {
        (self.inner.id << 24) | self.inner.next_channel.fetch_add(1, Ordering::Relaxed)
    }

    // ------------------------------------------------------------ ports

    /// Create a named receive port with the given driver-stack spec. The
    /// spec is registered in the name service, so senders assemble the
    /// matching stack automatically.
    pub fn create_receive_port(&self, name: &str, spec: StackSpec) -> io::Result<ReceivePort> {
        let data_port = self.inner.next_data_port.fetch_add(1, Ordering::Relaxed) as u16;
        let listener = self.inner.brokered.host.listen(data_port)?;
        let listen_addr = SockAddr::new(self.inner.brokered.host.ip(), data_port);
        let ns = &self.inner.brokered.ns;
        ns.register_port(self.inner.id, name, Some(listen_addr), &spec.encode())?;
        // The receive port acks over the service link when one exists;
        // without a relay the watermark still travels in resume replies.
        let ack = match &self.inner.brokered.relay {
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
        let sched = self.inner.env.net.sched();
        let sched2 = sched.clone();
        sched.spawn_async(format!("rp-accept-{name}"), async move {
            while let Ok(stream) = next_conn(&listener).await {
                let (port, ctx) = (Arc::clone(&port), node.ctx());
                sched2.spawn_async("rp-incoming", async move {
                    let _ = establish::accept(&ctx, &port, stream).await;
                });
            }
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
        let (rec, profile, _peer_name) = self.inner.brokered.ns.lookup_port(port_name)?;
        let target = Target { rec, profile };
        let spec = StackSpec::decode(&target.rec.stack)?;
        let key = LinkKey::new(target.rec.owner, &spec);
        let channels: Vec<u64> = (0..count).map(|_| self.alloc_channel()).collect();
        let conns: Vec<SendConnection> = loop {
            let (link, mut conns) = match self.inner.links.claim(&key) {
                Claim::Ready(link) => (link, Vec::new()),
                Claim::Mine => {
                    // The first channel anchors the walk, announced by the
                    // stream preamble itself. The fresh link is then
                    // attached to like a cached one. Walks to different
                    // peers run concurrently, which the world's peak shows.
                    self.count("walks");
                    let sched = self.inner.env.net.sched();
                    sched.metric_max(WALK_PEAK, sched.metric_add(WALKS_IN_FLIGHT, 1));
                    let result = self.establish_link(&key, &target, &spec, channels[0], port_name);
                    sched.metric_add(WALKS_IN_FLIGHT, -1);
                    match result {
                        Ok(anchor) => {
                            self.inner.links.fulfill(&key, &anchor.link);
                            (Arc::clone(&anchor.link), vec![anchor])
                        }
                        Err(e) => {
                            self.inner.links.abandon(&key);
                            return Err(e);
                        }
                    }
                }
            };
            let chans: Vec<Arc<Channel>> = channels[conns.len()..]
                .iter()
                .map(|&ch| Arc::new(Channel::new(ch, port_name, self.inner.env.resend_budget)))
                .collect();
            // A link holding an anchor is never closing: only a cached one
            // that is tearing down refuses, and then the next round
            // establishes fresh.
            if !link.attach(&chans) {
                self.inner.links.remove(&key, &link);
                continue;
            }
            // The rest of the batch rides one OPEN frame.
            if let Err(e) = self.announce_channels(&link, &chans) {
                for c in conns.iter().map(|c| &c.chan).chain(&chans) {
                    link.detach(c.channel);
                }
                self.gc_link_if_empty(&key, &link);
                return Err(e);
            }
            conns.extend(chans.into_iter().map(|chan| SendConnection {
                link: Arc::clone(&link),
                chan,
            }));
            break conns;
        };
        // Register the channels so the receiver's CACK service frames
        // arriving on the relay pump reach them, whatever link they ride.
        self.inner.senders.lock().extend(
            conns
                .iter()
                .map(|c| (c.chan.channel, (key.peer, Arc::clone(&c.chan)))),
        );
        Ok(conns)
    }

    /// Announce channels joining an established link with ONE `OPEN`
    /// control frame. The whole frame is rewritten after a recovery: one
    /// whose resume preamble predated our attach did not announce us, and
    /// the receiver treats every entry idempotently, so always-rewrite is
    /// safe.
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
        self.on_link(link, true, |io| {
            io.check()?;
            io.write_control(&open)
        })?;
        self.count("open_frames");
        Ok(())
    }

    /// One full walk of the decision tree for a fresh link, anchored at
    /// `channel`.
    fn establish_link(
        &self,
        key: &LinkKey,
        target: &Target,
        spec: &StackSpec,
        channel: u64,
        port_name: &str,
    ) -> io::Result<SendConnection> {
        let mut walk = Walk::data(&self.inner.brokered.profile, &target.profile);
        let Some((method, io, _)) = self.walk_on(&mut walk, target, spec, channel, None) else {
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
        link.attach(std::slice::from_ref(&chan));
        self.spawn_path_controller(&link);
        Ok(SendConnection { link, chan })
    }

    /// The Figure-4 walk, for a fresh link (`resume` is `None`) and for a
    /// recovery alike: go on down `walk`'s methods to the next one whose
    /// connector establishes its raw links, and assemble the sender stack
    /// over them (after the receiver's resume reply, when resuming —
    /// returned beside the stack). A method that fails leaves its error in
    /// `walk`; `None` when none is left. The only node code that knows the
    /// methods exist.
    fn walk_on(
        &self,
        walk: &mut Walk,
        target: &Target,
        spec: &StackSpec,
        channel: u64,
        resume: Option<&ResumeMeta>,
    ) -> Option<(EstablishMethod, LinkIo, Vec<u64>)> {
        while let Some(method) = walk.methods.next() {
            let connect = method.connector();
            let built = connect(&self.inner.brokered, target, spec, channel, resume)
                .and_then(|links| self.build_link_io(links, spec, resume));
            match built {
                Ok((io, deliveries)) => return Some((method, io, deliveries)),
                Err(e) => walk.failed(format!("{method}: {e}"), e.kind()),
            }
        }
        None
    }

    /// Read the resume reply (if resuming) and assemble the sender stack
    /// over as many streams as the method delivered (a routed link has
    /// one). The reply carries one delivered count per channel the
    /// preamble listed (anchor first, then the extras in preamble order).
    fn build_link_io(
        &self,
        links: Vec<RawLink>,
        spec: &StackSpec,
        resume: Option<&ResumeMeta>,
    ) -> io::Result<(LinkIo, Vec<u64>)> {
        let deliveries = match resume {
            // The receiver replies once every stream arrived.
            Some(meta) => {
                let reply = link_frame(&links[0], RESUME_REPLY_TIMEOUT, "resume reply");
                let frame = gridsim_net::ctx::block_on(reply)?;
                ResumeReply::decode(&frame, 1 + meta.extras.len())?.0
            }
            None => Vec::new(),
        };
        let n = links.len();
        let io = self.stack(links, n, &spec.clone().with_streams((n as u16).max(1)))?;
        Ok((io, deliveries))
    }

    /// Assemble the sender stack `spec` asks for over the first `stripes`
    /// of `links`; the rest stay parked (`healthy()` ignores them). GTLS
    /// stacks handshake deterministically from the per-stream salt.
    fn stack(&self, links: Vec<RawLink>, stripes: usize, spec: &StackSpec) -> io::Result<LinkIo> {
        let (raw, sec) = (links[..stripes].to_vec(), self.ctx().security(spec));
        let (writer, term) = build_sender(raw, spec, self.inner.cpu.clone(), sec.as_ref())?;
        Ok(LinkIo {
            writer,
            active: stripes,
            links,
            term,
        })
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
    /// replay). The attempt is not repeated; the caller may retry later.
    pub(crate) fn reconfigure_link(
        &self,
        link: &Arc<SharedLink>,
        params: PathParams,
    ) -> io::Result<bool> {
        self.on_link(link, false, |io| self.try_reconfigure(link, io, params))
    }

    /// One reconfiguration attempt, entirely under the write gate (`io`)
    /// so no channel writer can interleave a message between the old and
    /// new stack formats.
    fn try_reconfigure(
        &self,
        link: &Arc<SharedLink>,
        io: &mut LinkIo,
        params: PathParams,
    ) -> io::Result<bool> {
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
        io.check()?;
        // The epoch is burned even if this attempt dies: the receiver can
        // always order frames, and recovery never rewinds it.
        let epoch = link.next_path_epoch();
        io.write_reconfig(epoch, params)?;
        // Block for the receiver's ack: it proves the receiver consumed
        // every old-format byte and swapped.
        let ack = link_frame(&io.links[0], RESUME_REPLY_TIMEOUT, "reconfig ack");
        let ack = gridsim_net::ctx::block_on(ack)?;
        let ack = ReconfigAck::decode(&ack)?;
        if ack.epoch != epoch {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("reconfig ack epoch {}, expected {epoch}", ack.epoch),
            ));
        }
        // The ack carries the receiver's delivered watermarks — the
        // exactly-once handshake. Everything we wrote happened-before the
        // RECONFIG frame, so these cover every sent message, and each
        // prunes its channel's resend buffer.
        let chans = link.replay_order();
        for (ch, delivered) in ack.delivered {
            if let Some(c) = chans.iter().find(|c| c.channel == ch) {
                self.ack(c, delivered);
            }
        }
        // Rebuild the sender stack over the first `stripes` connections.
        let spec = link.spec.clone().with_path(params);
        *io = self.stack(io.links.clone(), params.stripes as usize, &spec)?;
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
                let sample = || {
                    node.count("path_samples");
                    link.sample_stats(gridsim_net::ctx::now().as_nanos() / 1_000)
                };
                let first = sample();
                let ctl = ctl.get_or_insert_with(|| PathController::new(link.path_params(), cfg));
                // A recovery may have reset the live parameters behind our
                // back; resync before and after deciding.
                ctl.applied(link.path_params());
                if let Some(p) = ctl.on_sample(first) {
                    let _ = node.reconfigure_link(&link, p);
                    ctl.applied(link.path_params());
                    // The next window starts once the swap is done.
                    ctl.on_sample(sample());
                }
            }
        });
    }

    // ------------------------------------------------- the data path

    /// Send one message payload on a channel, written under the link's
    /// FIFO gate. A failure before or during the write is recovered in
    /// place ([`on_link`](Self::on_link)), and the recovery's replay covers
    /// this message: the machine then no longer owes it, and the duplicate
    /// write is skipped.
    pub(crate) fn send_on(&self, c: &SendConnection, payload: &bytes::Bytes) -> io::Result<()> {
        let seq = c.chan.tx.lock().send(payload);
        let contended = self.on_link(&c.link, true, |io| {
            if !c.chan.tx.lock().owes(seq) {
                return Ok(false);
            }
            io.check()?;
            io.write_msg(c.chan.channel, payload)?;
            c.chan.tx.lock().written(seq);
            Ok(c.link.io_contended())
        })?;
        if contended {
            // Releasing the gate wakes the front waiter, but the wake is an
            // event: without yielding here, the next send_on call re-locks
            // the free gate first and a queued OPEN starves behind the
            // entire data run.
            gridsim_net::ctx::yield_now();
        }
        Ok(())
    }

    /// Flush a channel, announce its clean close, and wait for the bytes
    /// to leave the host; then release it like [`drop_channel`](Self::drop_channel).
    pub(crate) fn close_channel(&self, c: &SendConnection) -> io::Result<()> {
        let channel = c.chan.channel;
        let r = self.on_link(&c.link, true, |io| {
            io.writer.flush()?;
            io.write_control(&Frame::Close { channel })?;
            // Drain under the gate: no concurrent writer can queue fresh
            // bytes between our CLOSE and the drain check.
            io.drain()
        });
        self.drop_channel(c);
        r
    }

    /// Abrupt release (port dropped without `close()`): detach without
    /// touching the wire (tearing the link down if it was the last
    /// channel) and stop taking the channel's CACKs.
    pub(crate) fn drop_channel(&self, c: &SendConnection) {
        c.link.detach(c.chan.channel);
        self.gc_link_if_empty(&c.link.key, &c.link);
        self.inner.senders.lock().remove(&c.chan.channel);
    }

    fn gc_link_if_empty(&self, key: &LinkKey, link: &Arc<SharedLink>) {
        if link.channel_count() == 0 {
            self.inner.links.remove(key, link);
        }
    }

    // ------------------------------------------------- link recovery

    /// The one way to act on a shared link: run `op` under the link's write
    /// gate. When `op` fails, the task keeps the gate and recovers the link
    /// in place, so every other writer waits in the gate's FIFO and finds
    /// the recovered stack. Then `op` runs again on it if `retry`;
    /// otherwise `op`'s own error is returned. `InvalidInput` is the
    /// caller's mistake, caught before anything hit the wire, and is
    /// returned as is. A task that waited on the gate through a failed
    /// recovery returns that recovery's error instead of walking again; a
    /// call made after it walks a fresh ladder.
    fn on_link<T>(
        &self,
        link: &Arc<SharedLink>,
        retry: bool,
        mut op: impl FnMut(&mut LinkIo) -> io::Result<T>,
    ) -> io::Result<T> {
        let failures = link.failures();
        let mut io = link.io();
        loop {
            if let Some(e) = link.failed_since(failures) {
                return Err(e);
            }
            let e = match op(&mut io) {
                Err(e) if e.kind() != io::ErrorKind::InvalidInput => e,
                done => return done,
            };
            let recovered = self.recover_link(link, &mut io);
            if !retry {
                return Err(e);
            }
            recovered?;
        }
    }

    /// Recover a failed shared link under its write gate (`io`), count a
    /// success, and record a failure on the link for the writers queued
    /// behind it. A dead link must not be handed to new claimants; its
    /// attached channels keep their state and walk a fresh ladder on their
    /// next send.
    fn recover_link(&self, link: &Arc<SharedLink>, io: &mut LinkIo) -> io::Result<()> {
        let result = self.do_recover_link(link, io);
        match &result {
            Ok(()) => self.count("recoveries"),
            Err(e) => {
                self.inner.links.remove(&link.key, link);
                link.note_failure(e);
            }
        }
        result
    }

    /// Re-establish a failed shared link in place: back off, walk the
    /// decision tree again (possibly landing on a *different* method —
    /// e.g. spliced before the failure, routed after), learn the
    /// receiver's delivered count for EVERY attached channel, and replay
    /// the retained gaps. Exactly-once holds because the receiver drops
    /// anything below its per-channel watermark.
    fn do_recover_link(&self, link: &Arc<SharedLink>, cur: &mut LinkIo) -> io::Result<()> {
        // Whatever killed the data link may also have silently killed the
        // idle relay service link (an abort whose RST the outage
        // swallowed). Probe it now so incoming service traffic — the
        // receiver's CACKs in particular — finds us registered again.
        if let Some(relay) = &self.inner.brokered.relay {
            gridsim_net::ctx::block_on(relay.nudge());
        }
        let peer_desc = link
            .replay_order()
            .first()
            .map(|c| c.peer_port.clone())
            .unwrap_or_default();
        // The last attempt's walk: what each of its methods ran into.
        let mut walk = Walk::default();
        for delay in RECOVER.delays() {
            gridsim_net::ctx::sleep(delay);
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
            let target = match self.inner.brokered.ns.lookup_port(&anchor.peer_port) {
                Ok((rec, profile, _)) => Target { rec, profile },
                Err(e) => {
                    walk = Walk::default();
                    walk.failed(e.to_string(), e.kind());
                    continue;
                }
            };
            walk = Walk::data(&self.inner.brokered.profile, &target.profile);
            let (spec, anchor) = (&link.spec, anchor.channel);
            while let Some((method, fresh, deliveries)) =
                self.walk_on(&mut walk, &target, spec, anchor, Some(&plan))
            {
                // Validate every channel's replay BEFORE swapping the
                // stack in: a resume-bounds violation (evicted gap,
                // impossible watermark) is fatal and must not be retried.
                // It aborts the fresh link: a clean end would tell the
                // receiver that none of its channels resumes, and it would
                // forget their watermarks.
                let replays = chans
                    .iter()
                    .zip(&deliveries)
                    .map(|(c, &e)| c.tx.lock().resume(c.channel, e))
                    .collect::<io::Result<Vec<_>>>()
                    .inspect_err(|_| fresh.links.iter().for_each(RawLink::abort))?;
                let active = fresh.active as u16;
                match cur.swap_and_replay(fresh, &chans, &replays) {
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
                        return Ok(());
                    }
                    // Replay write failure: the fresh link died too.
                    // Messages stay retained; walk on, then another attempt.
                    Err(e) => walk.failed(format!("{method}: replay: {e}"), e.kind()),
                }
            }
        }
        let attempts = RECOVER.attempts;
        let what = format!("could not recover link to '{peer_desc}' after {attempts} attempts");
        Err(walk.into_error(what))
    }

    /// Handle `CACK{channel, delivered}`: the matching send channel takes
    /// it if `from` is that channel's receiver. Anything else (a closed
    /// channel, another sender) still gets an ack: the frame is advisory
    /// and a stale CACK needs no error.
    fn handle_cack(&self, from: GridId, channel: u64, delivered: u64) -> io::Result<()> {
        let senders = self.inner.senders.lock();
        if let Some((_, c)) = senders.get(&channel).filter(|(peer, _)| *peer == from) {
            self.ack(c, delivered);
        }
        Ok(())
    }

    /// A receiver's watermark for `c`, from a CACK or a RECONFIG ack; one
    /// beyond what was sent is refused and counted (`node/<id>/bad_acks`).
    fn ack(&self, c: &Channel, delivered: u64) {
        if !c.tx.lock().ack(delivered) {
            self.count("bad_acks");
        }
    }
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
    fn on_service_request<'a>(&'a self, from: GridId, payload: &'a [u8]) -> SvcReply<'a> {
        fn reply<T: Wire>(r: io::Result<T>) -> Vec<u8> {
            r.map_err(|e| e.to_string()).encode().into_bytes()
        }
        Box::pin(async move {
            let Some(node) = self.node() else {
                return reply::<()>(Err(io::Error::other("node gone")));
            };
            // The splice responder's port lookups and accept tasks need the
            // node's context; a CACK does not build one.
            let f = &node.inner.brokered;
            match SvcMsg::decode(&payload.to_vec().into()) {
                Ok(SvcMsg::SpliceReq {
                    channel,
                    port,
                    streams,
                }) => {
                    let ctx = node.ctx();
                    reply(establish::on_request(f, &ctx, from, channel, &port, streams).await)
                }
                Ok(SvcMsg::SpliceGo { channel, endpoints }) => {
                    reply(establish::on_go(f, &node.ctx(), from, channel, &endpoints))
                }
                Ok(SvcMsg::SpliceAbort { channel }) => reply(establish::on_abort(f, from, channel)),
                Ok(SvcMsg::Cack { channel, delivered }) => {
                    reply(node.handle_cack(from, channel, delivered))
                }
                Err(e) => reply::<()>(Err(e)),
            }
        })
    }

    fn on_open(
        &self,
        _from: GridId,
        port_name: &str,
        channel: u64,
        stream: RoutedStream,
    ) -> Result<(), String> {
        let node = self.node().ok_or("node gone")?;
        establish::on_open(node.ctx(), port_name, channel, stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spawn_name_service;
    use gridsim_net::{topology, FaultPlan, Sim};
    use gridsim_tcp::TcpConfig;

    /// A CACK from the channel's own receiver that claims more than was
    /// sent is refused and counted. Taken, it pruned every retained
    /// message, and the flap after it failed `ResendOverflow` instead of
    /// replaying them.
    #[test]
    fn a_cack_beyond_what_was_sent_is_refused_and_the_flap_after_it_replays() {
        const MSGS: u64 = 50;
        let ms = Duration::from_millis;
        let sim = Sim::new(11);
        let net = sim.net();
        let (a, b) = net.with(topology::lan_pair);
        let (ha, hb) = (SimHost::new(&net, a), SimHost::new(&net, b));
        // A dead path is found in about a second.
        let fast = TcpConfig {
            initial_rto: ms(200),
            min_rto: ms(200),
            max_rto: ms(400),
            max_rto_strikes: 2,
            ..TcpConfig::default()
        };
        ha.set_tcp_config(fast);
        hb.set_tcp_config(fast);
        let links = net.with(|w| w.path_links(a, b));
        let plan = (links.into_iter()).fold(FaultPlan::new(), |p, l| p.flap(ms(1500), l, ms(1200)));
        net.with(|w| w.install_faults(plan));
        let env = GridEnv::new(net.clone(), SockAddr::new(hb.ip(), 563));
        let env_b = env.clone();
        let receiver = sim.spawn("receiver", move || {
            spawn_name_service(&hb, 563).unwrap();
            let node = GridNode::join(&env_b, hb, "recv", ConnectivityProfile::open()).unwrap();
            let rp = node.create_receive_port("sink", StackSpec::plain());
            let rp = rp.unwrap();
            for i in 0..MSGS {
                let mut m = rp.receive().unwrap();
                assert_eq!(m.read_u64().unwrap(), i, "exactly-once FIFO violated");
            }
        });
        let sender = sim.spawn("sender", move || {
            gridsim_net::ctx::sleep(ms(100));
            let node = GridNode::join(&env, ha, "send", ConnectivityProfile::open()).unwrap();
            let mut sp = node.create_send_port();
            sp.connect("sink").unwrap();
            let channel = sp.connections()[0].2;
            let receiver = node.ns().lookup_port("sink").unwrap().0.owner;
            for i in 0..MSGS {
                if i == 5 {
                    node.handle_cack(receiver, channel, 1 << 40).unwrap();
                }
                let mut m = sp.message();
                m.write_u64(i);
                m.finish().unwrap();
                gridsim_net::ctx::sleep(ms(40));
            }
            sp.close().unwrap();
            let count =
                |name| gridsim_net::ctx::handle().metric(Metric("node", Some(node.id()), name));
            assert_eq!((count("bad_acks"), count("recoveries")), (1, 1));
        });
        sim.run();
        assert!(receiver.is_finished() && sender.is_finished());
    }
}
