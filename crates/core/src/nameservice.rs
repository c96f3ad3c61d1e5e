//! The Ibis Name Service (paper §5): the registry that lets nodes bootstrap
//! connectivity — it stores node records and receive-port locations, and
//! doubles as a STUN-like "observed address" service for NAT port
//! prediction (the paper's splicing through "known and predictable port
//! translation" needs exactly this).
//!
//! Protocol: length-prefixed request frames, each answered by one reply
//! frame, in order, on the connection it arrived on. A client keeps one
//! persistent outbound connection — its *bootstrap link* (paper §5) — and
//! pipelines every request on it ([`NsClient`]), so a lookup costs one
//! round trip and no new NAT flow. Only NAT-prediction probes (`OBSERVED`)
//! open fresh connections: what they measure is the mapping a new flow
//! gets. The server's accept loops and readers are async tasks, and every
//! request, CONNECT_BACK's dial included, is answered in its reader's poll.
//!
//! The server listens on two consecutive ports; probing both from the same
//! local port distinguishes cone NAT (same external port observed twice)
//! from symmetric NAT (two different mappings) — the STUN-style behaviour
//! discovery the paper lists under future work ("automated selection of the
//! proper communication methods").

use bytes::Bytes;
use gridsim_net::ctx;
use gridsim_net::SockAddr;
use gridsim_tcp::{ConnectOpts, SimHost, TcpConfig, TcpStream};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::io::{self};
use std::sync::Arc;

use crate::establish::factory::{BootstrapSocketFactory, NatGate};
use crate::link::{next_conn, Backoff, LinkOwner, Pending, ServiceLink};
use crate::profile::{ConnectivityProfile, NatClass};
use crate::wire::{FrameStream, FrameWriter, NsRequest, Put, Reply, Wire};
pub use crate::wire::{NodeRecord, PortRecord};

/// A registered node's identity.
pub type GridId = u64;

/// Nodes are numbered from 1 as they register, and never unregister.
#[derive(Default)]
struct NsState {
    nodes: HashMap<GridId, NodeRecord>,
    /// Ordered, so a LIST_PORTS reply is the same bytes on every run.
    ports: BTreeMap<String, PortRecord>,
}

/// Spawn the name service on `host`, listening on `port` and `port + 1`.
pub fn spawn_name_service(host: &SimHost, port: u16) -> io::Result<()> {
    let state = Arc::new(Mutex::new(NsState::default()));
    for p in [port, port + 1] {
        let listener = host.listen(p)?;
        let (state, host2) = (Arc::clone(&state), host.clone());
        let accept = async move {
            while let Ok(conn) = next_conn(&listener).await {
                let (state, host) = (Arc::clone(&state), host2.clone());
                ctx::handle().spawn_async("ns-conn", NsConn { state, host, conn }.serve());
            }
        };
        host.net()
            .sched()
            .spawn_async(format!("ns-accept-{p}"), accept);
    }
    Ok(())
}

/// One client connection: requests in, replies out, in order.
struct NsConn {
    state: Arc<Mutex<NsState>>,
    host: SimHost,
    conn: TcpStream,
}

impl NsConn {
    /// Answer requests until the client closes; a request that does not
    /// decode ends the connection.
    async fn serve(self) {
        let mut requests = FrameStream::new(self.conn.clone());
        loop {
            let read = ctx::wait_io(|| requests.poll_frame()).await;
            let Ok(req) = read.and_then(|r| NsRequest::decode(&r)) else {
                return;
            };
            let reply = self.answer(req).await.into_frame();
            let written = ctx::wait_io(|| self.conn.poll_write_block(&reply)).await;
            if written.is_err() {
                return;
            }
        }
    }

    /// The reply to `req`; only CONNECT_BACK's, a dial, waits.
    async fn answer(&self, req: NsRequest) -> FrameWriter {
        let state = &self.state;
        match req {
            NsRequest::Register { node } => {
                let mut st = state.lock();
                let id = st.nodes.len() as GridId + 1;
                st.nodes.insert(id, node);
                Reply::Ok(id).encode()
            }
            NsRequest::RegisterPort { port } => {
                let mut st = state.lock();
                let taken = st.ports.contains_key(&port.name);
                if !taken {
                    st.ports.insert(port.name.clone(), port);
                }
                let why = || "port name already registered".to_string();
                (!taken).then_some(()).ok_or_else(why).encode()
            }
            NsRequest::UnregisterPort { name } => {
                state.lock().ports.remove(&name);
                Reply::Ok(()).encode()
            }
            NsRequest::LookupPort { name } => {
                let st = state.lock();
                let port = st.ports.get(&name).ok_or("unknown port");
                let found = port.and_then(|p| {
                    let owner = st.nodes.get(&p.owner).ok_or("owner vanished")?;
                    let mut port = p.clone();
                    port.name = owner.name.clone();
                    Ok((port, owner.profile.clone()))
                });
                found.map_err(str::to_string).encode()
            }
            NsRequest::LookupNode { id } => {
                let node = state.lock().nodes.get(&id).cloned();
                node.ok_or_else(|| "unknown node".to_string()).encode()
            }
            // STUN-like: tell the caller how we see it (post-NAT).
            NsRequest::Observed => Reply::Ok(self.conn.peer_addr()).encode(),
            NsRequest::ConnectBack { target } => {
                // Short-fused attempt: one SYN retry is enough to separate
                // "reachable" from "firewalled" (refused counts as
                // reachable at the network layer — a host answered).
                let cfg = TcpConfig {
                    syn_retries: 1,
                    ..self.host.tcp_config()
                };
                let opts = ConnectOpts {
                    local_port: None,
                    cfg: Some(cfg),
                };
                let outcome = match self.host.connect_start(target, opts) {
                    Ok(conn) => ctx::wait_io(|| conn.poll_established()).await,
                    Err(e) => Err(e),
                };
                let refused = |e: io::Error| e.kind() == io::ErrorKind::ConnectionRefused;
                Reply::Ok(outcome.map_or_else(refused, |()| true)).encode()
            }
            NsRequest::ListPorts => {
                let names: Vec<_> = state.lock().ports.keys().cloned().collect();
                Reply::Ok(names).encode()
            }
        }
    }
}

/// Client handle over the node's *bootstrap link* (paper §5): one
/// persistent connection to the name service, built by the bootstrap
/// socket factory (paper Fig. 8) on the first request and shared by every
/// clone of the handle; the last handle closes it. NAT-prediction probes
/// are the exception: each is a fresh connection, because what it
/// measures is the mapping a new flow gets.
#[derive(Clone)]
pub struct NsClient {
    host: SimHost,
    ns_addr: SockAddr,
    /// Dial through this SOCKS proxy (for strictly firewalled sites).
    via_proxy: Option<SockAddr>,
    /// No ladder: a lost link stays down until the next request dials it.
    link: Arc<ServiceLink>,
    tickets: Tickets,
}

/// The link's requests, pipelined: filed under the connection they went out
/// on, and taken under the writer lock, in the order they go out. The
/// server answers a connection's requests in that order, so each reply is
/// the oldest outstanding ticket's. A reply with no ticket outstanding kills
/// the connection: it is out of step with its requests, and every later
/// reply would reach the wrong one.
#[derive(Clone)]
struct Tickets {
    pending: Arc<Pending<Bytes>>,
    /// Dials under the owning node's NAT gate: the link creates a NAT flow.
    factory: BootstrapSocketFactory,
}

impl LinkOwner for Tickets {
    fn dial(&self, addr: SockAddr) -> io::Result<TcpStream> {
        self.factory.connect(addr)
    }

    fn dispatch(&self, gen: u64, frame: &Bytes, _inline: bool) -> io::Result<()> {
        if self.pending.resolve_oldest(gen, frame.clone()) {
            return Ok(());
        }
        let stray = "name service: reply with no request outstanding";
        Err(io::Error::new(io::ErrorKind::InvalidData, stray))
    }

    fn lost(&self, gen: u64) {
        self.pending.reset(|tag| tag == gen);
    }
}

impl NsClient {
    pub fn new(host: SimHost, ns_addr: SockAddr, via_proxy: Option<SockAddr>) -> NsClient {
        let tickets = Tickets {
            pending: Arc::new(Pending::new()),
            factory: BootstrapSocketFactory::new(host.clone(), via_proxy),
        };
        NsClient {
            host,
            ns_addr,
            via_proxy,
            link: ServiceLink::new("ns-link".into(), vec![ns_addr], Backoff::ms(0, 0, 0)),
            tickets,
        }
    }

    /// This client, its link dialed under `gate` (a symmetric-NAT node's).
    pub(crate) fn under(mut self, gate: Arc<NatGate>) -> NsClient {
        self.tickets.factory = self.tickets.factory.under(gate);
        self
    }

    pub fn addr(&self) -> SockAddr {
        self.ns_addr
    }

    /// Send one request on the link and wait for its reply. A request that
    /// dies in flight returns `ConnectionReset` and is not resent:
    /// REGISTER and REGISTER_PORT are not idempotent.
    ///
    /// Lock order: the link's writer, then the NAT gate (taken by the
    /// dial, once per attempt). No holder of the gate issues a link
    /// request — the probes it covers dial their own connections.
    fn request<T: Wire>(&self, req: NsRequest) -> io::Result<T> {
        let (pending, frame) = (&self.tickets.pending, req.encode());
        let ticket = self.link.send(&self.tickets, |stream, gen| {
            let ticket = pending.next_id();
            pending
                .post(ticket, gen, || frame.send(stream))
                .map(|()| ticket)
        })?;
        answer(&pending.wait(ticket, "ns reply")?)
    }

    /// Register this node; returns its grid-wide id. `relays` is the
    /// node's ordered relay list (primary first) — pass an empty slice to
    /// omit the field, which keeps the frame identical to older clients'
    /// (single-relay deployments don't publish).
    pub fn register(
        &self,
        name: &str,
        profile: &ConnectivityProfile,
        relays: &[SockAddr],
    ) -> io::Result<GridId> {
        let node = NodeRecord {
            name: name.into(),
            profile: profile.clone(),
            relays: relays.to_vec(),
        };
        self.request(NsRequest::Register { node })
    }

    /// Register a receive port.
    pub fn register_port(
        &self,
        owner: GridId,
        name: &str,
        listener: Option<SockAddr>,
        stack: &[u8],
    ) -> io::Result<()> {
        let port = PortRecord {
            owner,
            name: name.to_string(),
            listener,
            stack: stack.to_vec(),
        };
        self.request(NsRequest::RegisterPort { port })
    }

    pub fn unregister_port(&self, name: &str) -> io::Result<()> {
        self.request(NsRequest::UnregisterPort { name: name.into() })
    }

    /// Look up a receive port: returns (record, owner profile, owner name).
    pub fn lookup_port(&self, name: &str) -> io::Result<(PortRecord, ConnectivityProfile, String)> {
        let lookup = NsRequest::LookupPort { name: name.into() };
        let (mut port, profile): (PortRecord, _) = self.request(lookup)?;
        let owner_name = std::mem::replace(&mut port.name, name.into());
        Ok((port, profile, owner_name))
    }

    /// Look up a node by id.
    pub fn lookup_node(&self, id: GridId) -> io::Result<NodeRecord> {
        self.request(NsRequest::LookupNode { id })
    }

    /// All registered port names (diagnostics).
    pub fn list_ports(&self) -> io::Result<Vec<String>> {
        self.request(NsRequest::ListPorts)
    }

    /// Ask the name service to attempt a connection back to `target` and
    /// report whether it succeeded — the firewall-detection probe.
    fn connect_back(&self, target: SockAddr) -> io::Result<bool> {
        self.request(NsRequest::ConnectBack { target })
    }

    /// Probe the observed (post-NAT) address of a connection made from
    /// `local_port`. `second_server` probes the NS's second listener.
    pub fn probe_observed(
        &self,
        local_port: Option<u16>,
        second_server: bool,
    ) -> io::Result<SockAddr> {
        let target = if second_server {
            SockAddr::new(self.ns_addr.ip, self.ns_addr.port + 1)
        } else {
            self.ns_addr
        };
        // Probes are cheap short-lived connections; keep SYN retries low.
        let cfg = TcpConfig {
            syn_retries: 2,
            ..self.host.tcp_config()
        };
        let mut stream = match self.via_proxy {
            // Observed-through-proxy shows the proxy, which is what a
            // strict-firewall site genuinely looks like from outside. Like
            // every probe it dials outside the gate: a predictor probes
            // while holding it.
            Some(_) => {
                BootstrapSocketFactory::new(self.host.clone(), self.via_proxy).connect(target)?
            }
            None => self.host.connect_opts(
                target,
                ConnectOpts {
                    local_port,
                    cfg: Some(cfg),
                },
            )?,
        };
        NsRequest::Observed.encode().send(&mut stream)?;
        answer(&FrameStream::new(stream).next_frame()?)
    }

    /// Fully automated connectivity-profile discovery (paper §8 future
    /// work: "the automated selection of the proper communication methods
    /// for given WAN settings"). Classifies the NAT STUN-style, then uses a
    /// [`NsClient::connect_back`] probe to detect inbound filtering.
    ///
    /// A node configured to reach the outside only through a SOCKS proxy
    /// cannot probe its own position (everything it sees is the proxy); it
    /// is reported as a strict-firewall profile directly.
    pub fn detect_profile(&self) -> io::Result<ConnectivityProfile> {
        use crate::profile::FirewallClass;
        if self.via_proxy.is_some() {
            return Ok(ConnectivityProfile {
                firewall: FirewallClass::Strict,
                nat: None,
                private_addr: self.host.ip().is_private(),
                socks_proxy: self.via_proxy,
            });
        }
        if let Some(class) = self.detect_nat(9950)? {
            return Ok(ConnectivityProfile {
                firewall: FirewallClass::None,
                nat: Some(class),
                private_addr: true,
                socks_proxy: None,
            });
        }
        // No NAT: is unsolicited inbound filtered?
        let probe_port = 9951;
        let listener = self.host.listen(probe_port)?;
        let reachable = self.connect_back(SockAddr::new(self.host.ip(), probe_port))?;
        drop(listener);
        Ok(ConnectivityProfile {
            firewall: if reachable {
                FirewallClass::None
            } else {
                FirewallClass::Stateful
            },
            nat: None,
            private_addr: false,
            socks_proxy: None,
        })
    }

    /// STUN-style NAT behaviour discovery: probe both NS listeners from one
    /// local port and compare the observed mappings.
    pub fn detect_nat(&self, probe_port: u16) -> io::Result<Option<NatClass>> {
        let my_ip = self.host.ip();
        let o1 = self.probe_observed(Some(probe_port), false)?;
        if o1.ip == my_ip {
            return Ok(None); // no translation at all
        }
        let o2 = self.probe_observed(Some(probe_port), true)?;
        if o1.port == o2.port {
            // Same mapping for two destinations: cone.
            return Ok(Some(NatClass::Cone));
        }
        // Symmetric: check whether allocation looks sequential.
        if o2.port == o1.port.wrapping_add(1) {
            Ok(Some(NatClass::SymmetricPredictable))
        } else {
            Ok(Some(NatClass::SymmetricRandom))
        }
    }
}

/// The body of a name-service reply; a refusal is `NotFound`.
fn answer<T: Wire>(rsp: &Bytes) -> io::Result<T> {
    let refused = |why| io::Error::new(io::ErrorKind::NotFound, format!("name service: {why}"));
    Reply::<T>::decode(rsp)?.map_err(refused)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsim_net::{topology, Sim};
    use std::time::Duration;

    /// The link's connection dies under a lookup in flight, and the next
    /// lookup runs before the pump has noticed. That lookup dials a fresh
    /// connection and gets its record; the one in flight on the dead
    /// connection ends in `ConnectionReset` instead of parking.
    #[test]
    fn a_lookup_that_beats_the_pump_to_a_dead_link_dials_afresh() {
        let sim = Sim::new(1);
        let net = sim.net();
        let (a, b) = net.with(topology::lan_pair);
        let (ha, hb) = (SimHost::new(&net, a), SimHost::new(&net, b));
        let ns_addr = SockAddr::new(hb.ip(), 500);
        let client = sim.spawn("client", move || {
            spawn_name_service(&hb, 500).unwrap();
            let ns = NsClient::new(ha, ns_addr, None);
            let id = ns.register("a", &ConnectivityProfile::open(), &[]).unwrap();
            ns.register_port(id, "p", None, b"").unwrap();
            let racing = ns.clone();
            let in_flight = gridsim_net::ctx::handle().spawn("lookup", move || {
                racing.lookup_port("p").map(|_| ()).unwrap_err().kind()
            });
            gridsim_net::ctx::sleep(Duration::from_micros(1)); // its request is out
            let abort = |s: &mut TcpStream, _| {
                s.abort();
                io::Result::Ok(())
            };
            ns.link.send(&ns.tickets, abort).unwrap();
            assert_eq!(ns.lookup_port("p").unwrap().0.owner, id);
            assert_eq!(in_flight.join(), io::ErrorKind::ConnectionReset);
        });
        sim.run();
        assert!(client.is_finished());
    }
}
