//! The Ibis Name Service (paper §5): the registry that lets nodes bootstrap
//! connectivity — it stores node records and receive-port locations, and
//! doubles as a STUN-like "observed address" service for NAT port
//! prediction (the paper's splicing through "known and predictable port
//! translation" needs exactly this).
//!
//! Protocol: one length-prefixed request frame per connection-turn;
//! clients open a fresh connection per request (requests are rare —
//! registration and lookups — and this keeps firewalled clients simple:
//! every request is an ordinary outbound client/server connection).
//!
//! The server listens on two consecutive ports; probing both from the same
//! local port distinguishes cone NAT (same external port observed twice)
//! from symmetric NAT (two different mappings) — the STUN-style behaviour
//! discovery the paper lists under future work ("automated selection of the
//! proper communication methods").

use bytes::Bytes;
use gridsim_net::SockAddr;
use gridsim_tcp::{ConnectOpts, SimHost, TcpConfig, TcpStream};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::io::{self};
use std::sync::Arc;

use crate::establish::factory::BootstrapSocketFactory;
use crate::profile::{ConnectivityProfile, NatClass};
use crate::wire::{FrameReader, FrameStream, FrameWriter};

/// A registered node's identity.
pub type GridId = u64;

/// Request opcodes.
mod op {
    pub const REGISTER: u8 = 1;
    pub const REGISTER_PORT: u8 = 2;
    pub const LOOKUP_PORT: u8 = 3;
    pub const LOOKUP_NODE: u8 = 4;
    pub const OBSERVED: u8 = 5;
    pub const LIST_PORTS: u8 = 6;
    pub const UNREGISTER_PORT: u8 = 7;
    /// Reachability probe: "try to open a TCP connection to this address
    /// and tell me whether it worked" — lets a node discover whether it is
    /// behind a firewall that blocks unsolicited inbound connections.
    pub const CONNECT_BACK: u8 = 8;
}

/// What the name service knows about a node.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeRecord {
    pub id: GridId,
    pub name: String,
    pub profile: ConnectivityProfile,
    /// The node's ordered relay list (primary first), published only by
    /// nodes configured with failover relays. Peers and operators can read
    /// which relays a node will converge on after a failover.
    pub relays: Vec<SockAddr>,
}

/// What the name service knows about a receive port.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortRecord {
    pub owner: GridId,
    pub name: String,
    /// The owner's data listener (site-local address; directly reachable
    /// only if the owner accepts inbound, via its site proxy otherwise).
    pub listener: Option<SockAddr>,
    /// Opaque encoded stack spec (drivers::StackSpec).
    pub stack: Vec<u8>,
}

impl NodeRecord {
    /// `[name][profile]` and, only when the node registered one (so every
    /// other record keeps its bytes), the relay list — as a registration
    /// carries the record and as a lookup returns it.
    pub fn put(
        w: FrameWriter,
        name: &str,
        profile: &ConnectivityProfile,
        relays: &[SockAddr],
    ) -> FrameWriter {
        let w = profile.encode(w.str(name));
        if relays.is_empty() {
            w
        } else {
            w.addrs(relays)
        }
    }

    pub fn get(id: GridId, r: &mut FrameReader<'_>) -> io::Result<NodeRecord> {
        let name = r.str()?;
        let profile = ConnectivityProfile::decode(r)?;
        let relays = if r.is_empty() { Vec::new() } else { r.addrs()? };
        Ok(NodeRecord {
            id,
            name,
            profile,
            relays,
        })
    }
}

impl PortRecord {
    /// `[owner][label][listener][stack]`. The label is the port's name in
    /// a registration and its owner's in a lookup reply, whose asker knows
    /// the port's.
    pub fn put(&self, label: &str, w: FrameWriter) -> FrameWriter {
        w.u64(self.owner)
            .str(label)
            .opt_addr(self.listener)
            .bytes(&self.stack)
    }

    /// Decode what [`put`](Self::put) wrote; `name` holds the label.
    pub fn get(r: &mut FrameReader<'_>) -> io::Result<PortRecord> {
        Ok(PortRecord {
            owner: r.u64()?,
            name: r.str()?,
            listener: r.opt_addr()?,
            stack: r.bytes()?.to_vec(),
        })
    }
}

#[derive(Default)]
struct NsState {
    next_id: GridId,
    nodes: HashMap<GridId, NodeRecord>,
    by_name: HashMap<String, GridId>,
    /// Ordered, so a LIST_PORTS reply is the same bytes on every run.
    ports: BTreeMap<String, PortRecord>,
}

/// Spawn the name service on `host`, listening on `port` and `port + 1`.
pub fn spawn_name_service(host: &SimHost, port: u16) -> io::Result<()> {
    let state = Arc::new(Mutex::new(NsState {
        next_id: 1,
        ..Default::default()
    }));
    for p in [port, port + 1] {
        let listener = host.listen(p)?;
        let state = Arc::clone(&state);
        let host2 = host.clone();
        let sched = host.net().sched().clone();
        let sched2 = sched.clone();
        sched.spawn_daemon(format!("ns-accept-{p}"), move || loop {
            let Ok(conn) = listener.accept() else { break };
            let state = Arc::clone(&state);
            let host3 = host2.clone();
            sched2.spawn_daemon("ns-conn", move || {
                let _ = serve_conn(&state, &host3, conn);
            });
        });
    }
    Ok(())
}

fn serve_conn(state: &Mutex<NsState>, host: &SimHost, conn: TcpStream) -> io::Result<()> {
    let (mut stream, mut requests) = (conn.clone(), FrameStream::new(conn.clone()));
    loop {
        let req = match requests.next_frame() {
            Ok(f) => f,
            Err(_) => return Ok(()), // client closed
        };
        let mut r = FrameReader::new(&req);
        let reply = match r.u8()? {
            op::REGISTER => {
                let mut st = state.lock();
                let id = st.next_id;
                let node = NodeRecord::get(id, &mut r)?;
                st.next_id += 1;
                st.by_name.insert(node.name.clone(), id);
                st.nodes.insert(id, node);
                FrameWriter::new().u8(1).u64(id)
            }
            op::REGISTER_PORT => {
                let port = PortRecord::get(&mut r)?;
                let mut st = state.lock();
                if st.ports.contains_key(&port.name) {
                    FrameWriter::new().u8(0).str("port name already registered")
                } else {
                    st.ports.insert(port.name.clone(), port);
                    FrameWriter::new().u8(1)
                }
            }
            op::UNREGISTER_PORT => {
                let name = r.str()?;
                state.lock().ports.remove(&name);
                FrameWriter::new().u8(1)
            }
            op::LOOKUP_PORT => {
                let name = r.str()?;
                let st = state.lock();
                match st.ports.get(&name).map(|p| (p, st.nodes.get(&p.owner))) {
                    Some((p, Some(n))) => {
                        n.profile.encode(p.put(&n.name, FrameWriter::new().u8(1)))
                    }
                    Some((_, None)) => FrameWriter::new().u8(0).str("owner vanished"),
                    None => FrameWriter::new().u8(0).str("unknown port"),
                }
            }
            op::LOOKUP_NODE => {
                let id = r.u64()?;
                let st = state.lock();
                match st.nodes.get(&id) {
                    Some(n) => {
                        NodeRecord::put(FrameWriter::new().u8(1), &n.name, &n.profile, &n.relays)
                    }
                    None => FrameWriter::new().u8(0).str("unknown node"),
                }
            }
            op::OBSERVED => {
                // STUN-like: tell the caller how we see it (post-NAT).
                FrameWriter::new().u8(1).addr(conn.peer_addr())
            }
            op::CONNECT_BACK => {
                let target = r.addr()?;
                // Short-fused attempt: one SYN retry is enough to separate
                // "reachable" from "firewalled" (refused counts as
                // reachable at the network layer — a host answered).
                let cfg = TcpConfig {
                    syn_retries: 1,
                    ..host.tcp_config()
                };
                let outcome = host.connect_opts(
                    target,
                    ConnectOpts {
                        local_port: None,
                        cfg: Some(cfg),
                    },
                );
                let reachable = match outcome {
                    Ok(_) => true,
                    Err(e) => e.kind() == io::ErrorKind::ConnectionRefused,
                };
                FrameWriter::new().u8(1).u8(reachable as u8)
            }
            op::LIST_PORTS => {
                let st = state.lock();
                let mut w = FrameWriter::new().u8(1).u64(st.ports.len() as u64);
                for name in st.ports.keys() {
                    w = w.str(name);
                }
                w
            }
            _ => FrameWriter::new().u8(0).str("unknown opcode"),
        };
        reply.send(&mut stream)?;
    }
}

/// Client handle: opens one connection per request, built by the
/// bootstrap socket factory (paper Fig. 8).
#[derive(Clone)]
pub struct NsClient {
    host: SimHost,
    ns_addr: SockAddr,
    factory: BootstrapSocketFactory,
    /// Dial through this SOCKS proxy (for strictly firewalled sites).
    via_proxy: Option<SockAddr>,
}

impl NsClient {
    pub fn new(host: SimHost, ns_addr: SockAddr, via_proxy: Option<SockAddr>) -> NsClient {
        let factory = BootstrapSocketFactory::new(host.clone(), via_proxy);
        NsClient {
            host,
            ns_addr,
            factory,
            via_proxy,
        }
    }

    pub fn addr(&self) -> SockAddr {
        self.ns_addr
    }

    fn dial(&self, addr: SockAddr) -> io::Result<TcpStream> {
        self.factory.connect(addr)
    }

    fn request(&self, frame: FrameWriter) -> io::Result<Bytes> {
        let mut stream = self.dial(self.ns_addr)?;
        frame.send(&mut stream)?;
        FrameStream::new(stream).next_frame()
    }

    fn request_ok(&self, frame: FrameWriter) -> io::Result<Bytes> {
        let rsp = self.request(frame)?;
        let mut r = FrameReader::new(&rsp);
        if r.u8()? == 1 {
            Ok(rsp)
        } else {
            let msg = r.str().unwrap_or_else(|_| "request failed".into());
            Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("name service: {msg}"),
            ))
        }
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
        let w = FrameWriter::new().u8(op::REGISTER);
        let rsp = self.request_ok(NodeRecord::put(w, name, profile, relays))?;
        let mut r = FrameReader::new(&rsp);
        r.u8()?;
        r.u64()
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
        self.request_ok(port.put(name, FrameWriter::new().u8(op::REGISTER_PORT)))?;
        Ok(())
    }

    pub fn unregister_port(&self, name: &str) -> io::Result<()> {
        self.request_ok(FrameWriter::new().u8(op::UNREGISTER_PORT).str(name))?;
        Ok(())
    }

    /// Look up a receive port: returns (record, owner profile).
    pub fn lookup_port(&self, name: &str) -> io::Result<(PortRecord, ConnectivityProfile, String)> {
        let rsp = self.request_ok(FrameWriter::new().u8(op::LOOKUP_PORT).str(name))?;
        let mut r = FrameReader::new(&rsp);
        r.u8()?;
        let mut port = PortRecord::get(&mut r)?;
        let owner_name = std::mem::replace(&mut port.name, name.to_string());
        let profile = ConnectivityProfile::decode(&mut r)?;
        Ok((port, profile, owner_name))
    }

    /// Look up a node by id.
    pub fn lookup_node(&self, id: GridId) -> io::Result<NodeRecord> {
        let rsp = self.request_ok(FrameWriter::new().u8(op::LOOKUP_NODE).u64(id))?;
        let mut r = FrameReader::new(&rsp);
        r.u8()?;
        NodeRecord::get(id, &mut r)
    }

    /// All registered port names (diagnostics).
    pub fn list_ports(&self) -> io::Result<Vec<String>> {
        let rsp = self.request_ok(FrameWriter::new().u8(op::LIST_PORTS))?;
        let mut r = FrameReader::new(&rsp);
        r.u8()?;
        let n = r.u64()? as usize;
        (0..n).map(|_| r.str()).collect()
    }

    /// Ask the name service to attempt a connection back to `target` and
    /// report whether it succeeded — the firewall-detection probe.
    fn connect_back(&self, target: SockAddr) -> io::Result<bool> {
        let rsp = self.request_ok(FrameWriter::new().u8(op::CONNECT_BACK).addr(target))?;
        let mut r = FrameReader::new(&rsp);
        r.u8()?;
        Ok(r.u8()? != 0)
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
            Some(_) => {
                // Observed-through-proxy shows the proxy, which is what a
                // strict-firewall site genuinely looks like from outside.
                self.dial(target)?
            }
            None => self.host.connect_opts(
                target,
                ConnectOpts {
                    local_port,
                    cfg: Some(cfg),
                },
            )?,
        };
        FrameWriter::new().u8(op::OBSERVED).send(&mut stream)?;
        let rsp = FrameStream::new(stream).next_frame()?;
        let mut r = FrameReader::new(&rsp);
        r.u8()?;
        r.addr()
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
