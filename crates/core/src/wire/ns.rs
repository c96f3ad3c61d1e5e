//! The name service's protocol (paper §5, DESIGN.md §13): one
//! [`NsRequest`] per frame, each answered by one [`Reply`](super::Reply)
//! frame whose body type the request names, and the records both carry.

use gridsim_net::SockAddr;
use std::io;

use super::{bad, protocol, wire, FrameReader, FrameWriter, Put, Wire};
use crate::profile::{ConnectivityProfile, FirewallClass, NatClass};

/// What the name service knows about a node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeRecord {
    pub name: String,
    pub profile: ConnectivityProfile,
    /// The node's ordered relay list (primary first), published only by
    /// nodes configured with failover relays. Peers and operators can read
    /// which relays a node will converge on after a failover.
    pub relays: Vec<SockAddr>,
}

// `[name][profile]` and, only when the node registered one (so every other
// record keeps its bytes), the relay list.
wire!(<> NodeRecord, |w, v| {
    let w = v.profile.put(w.str(&v.name));
    if v.relays.is_empty() { w } else { v.relays.put(w) }
}, |r| {
    let (name, profile) = (r.str()?, Wire::get(r)?);
    let relays = if r.is_empty() { Vec::new() } else { Wire::get(r)? };
    Ok(NodeRecord { name, profile, relays })
});

/// What the name service knows about a receive port.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortRecord {
    pub owner: u64,
    pub name: String,
    /// The owner's data listener (site-local address; directly reachable
    /// only if the owner accepts inbound, via its site proxy otherwise).
    pub listener: Option<SockAddr>,
    /// Opaque encoded stack spec (drivers::StackSpec).
    pub stack: Vec<u8>,
}

// `[owner][name][listener][stack]`. In a lookup's reply `name` holds the
// owner's name: the asker knows the port's.
wire!(<> PortRecord, |w, v| {
    w.u64(v.owner).str(&v.name).opt_addr(v.listener).bytes(&v.stack)
}, |r| {
    let (owner, name, listener) = (r.u64()?, r.str()?, r.opt_addr()?);
    Ok(PortRecord { owner, name, listener, stack: r.bytes()?.to_vec() })
});

// `[firewall][nat][private][proxy]`, each class numbered as declared, 0
// for no NAT.
wire!(<> ConnectivityProfile, |w, v| {
    let nat = v.nat.map_or(0, |n| n as u8 + 1);
    v.private_addr.put(w.u8(v.firewall as u8).u8(nat)).opt_addr(v.socks_proxy)
}, |r| {
    use {FirewallClass as F, NatClass as N};
    let fw = [F::None, F::Stateful, F::Strict].get(r.u8()? as usize).copied();
    let firewall = fw.ok_or_else(|| bad("bad firewall class"))?;
    let nats = [None, Some(N::Cone), Some(N::SymmetricPredictable), Some(N::SymmetricRandom)];
    let nat = *nats.get(r.u8()? as usize).ok_or_else(|| bad("bad nat class"))?;
    let (private_addr, socks_proxy) = (bool::get(r)?, r.opt_addr()?);
    Ok(ConnectivityProfile { firewall, nat, private_addr, socks_proxy })
});

protocol! {
    /// One name-service request; the reply's body type is in each comment.
    pub enum NsRequest {
        /// Register a node: `Reply<u64>`, its grid-wide id.
        Register = 1 { node: NodeRecord },
        /// `Reply<()>`: refused if the port name is taken.
        RegisterPort = 2 { port: PortRecord },
        /// `Reply<(PortRecord, ConnectivityProfile)>`: the port, its `name`
        /// holding the owner's, and the owner's profile.
        LookupPort = 3 { name: String },
        /// `Reply<NodeRecord>`.
        LookupNode = 4 { id: u64 },
        /// `Reply<SockAddr>`: the asker as the service sees it, post-NAT.
        Observed = 5,
        /// `Reply<Vec<String>>`: every registered port name, sorted.
        ListPorts = 6,
        /// `Reply<()>`.
        UnregisterPort = 7 { name: String },
        /// `Reply<bool>`: could the service connect to `target`? (Is a
        /// firewall blocking inbound?)
        ConnectBack = 8 { target: SockAddr },
    }
}
