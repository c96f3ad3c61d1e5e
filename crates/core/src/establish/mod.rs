//! Connection establishment methods and the method decision tree
//! (paper Section 3, Table 1 and Figure 4): one connector per method, each
//! beside its responder half — client/server and proxy in `direct`,
//! splicing in `splice`, routed messages in `routed` — over the socket
//! factories of `factory`.

pub mod decision;
mod direct;
pub mod factory;
mod routed;
mod splice;

use std::io;

pub(crate) use decision::Walk;
pub use decision::{choose_methods, LinkPurpose};
pub(crate) use direct::accept;
pub use factory::BootstrapSocketFactory;
pub(crate) use factory::BrokeredSocketFactory;
pub(crate) use routed::on_open;
pub(crate) use splice::{on_abort, on_go, on_request};

use crate::drivers::{RawLink, StackSpec};
use crate::nameservice::PortRecord;
use crate::profile::ConnectivityProfile;
use crate::wire::ResumeMeta;

/// The receive port a connector dials, as the name service reported it.
pub(crate) struct Target {
    pub rec: PortRecord,
    /// Its owner's profile.
    pub profile: ConnectivityProfile,
}

/// A Figure-4 method's initiator half: the raw links to the target, one per
/// stream in stream order, each carrying its preamble — anchored at the
/// channel, with the resume fields when resuming.
pub(crate) type Connector = fn(
    &BrokeredSocketFactory,
    &Target,
    &StackSpec,
    u64,
    Option<&ResumeMeta>,
) -> io::Result<Vec<RawLink>>;

/// Identity of a shared data link in the session layer: establishment is
/// keyed by `(peer node, stack equivalence class)`, so every channel whose
/// [`StackSpec`] encodes identically rides one established link
/// to that peer. The spec is compared in its wire encoding — the same bytes
/// the name service distributes — which makes "equivalent" exact: any field
/// that changes the assembled driver stack changes the key.
///
/// [`StackSpec`]: crate::drivers::StackSpec
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct LinkKey {
    /// The receive-port owner's grid id.
    pub peer: crate::nameservice::GridId,
    /// The receive port's registered stack spec, encoded.
    pub spec: Vec<u8>,
}

impl LinkKey {
    pub fn new(peer: crate::nameservice::GridId, spec: &crate::drivers::StackSpec) -> LinkKey {
        LinkKey {
            peer,
            spec: spec.encode(),
        }
    }
}

/// The four establishment methods of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EstablishMethod {
    /// Standard TCP client/server handshake (paper §3.1).
    ClientServer,
    /// Simultaneous SYN / TCP splicing, brokered over service links
    /// (paper §3.2).
    Splicing,
    /// A SOCKS-style TCP proxy on a gateway (paper §3.3).
    Proxy,
    /// Routed messages through an application-level relay (paper §3.3).
    Routed,
}

/// The qualitative properties of Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MethodProperties {
    /// Works between sites whose firewalls block incoming connections.
    pub crosses_firewalls: bool,
    /// NAT support: "no"/"client"/"partial"/"yes" in the paper's wording.
    pub nat_support: NatSupport,
    /// Usable without any pre-existing connection between the hosts.
    pub for_bootstrap: bool,
    /// Produces a native TCP socket composable with the utilization methods.
    pub native_tcp: bool,
    /// Data passes through an intermediate relay host.
    pub relayed: bool,
    /// Requires negotiation over a pre-existing (service) connection.
    pub needs_brokering: bool,
}

/// Table 1's "NAT support" column values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NatSupport {
    /// Only the client may be behind NAT.
    ClientOnly,
    /// Works only with predictable port translation.
    Partial,
    /// Fully supported.
    Yes,
}

impl std::fmt::Display for NatSupport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NatSupport::ClientOnly => write!(f, "client"),
            NatSupport::Partial => write!(f, "partial"),
            NatSupport::Yes => write!(f, "yes"),
        }
    }
}

impl EstablishMethod {
    /// The paper's Table 1, row by row.
    pub fn properties(self) -> MethodProperties {
        match self {
            EstablishMethod::ClientServer => MethodProperties {
                crosses_firewalls: false,
                nat_support: NatSupport::ClientOnly,
                for_bootstrap: true,
                native_tcp: true,
                relayed: false,
                needs_brokering: false,
            },
            EstablishMethod::Splicing => MethodProperties {
                crosses_firewalls: true,
                nat_support: NatSupport::Partial,
                for_bootstrap: false,
                native_tcp: true,
                relayed: false,
                needs_brokering: true,
            },
            EstablishMethod::Proxy => MethodProperties {
                crosses_firewalls: true,
                nat_support: NatSupport::Yes,
                for_bootstrap: false,
                native_tcp: true,
                relayed: true,
                needs_brokering: true,
            },
            EstablishMethod::Routed => MethodProperties {
                crosses_firewalls: true,
                nat_support: NatSupport::Yes,
                for_bootstrap: true,
                native_tcp: false,
                relayed: true,
                needs_brokering: false,
            },
        }
    }

    /// Paper §3.4 precedence: "client/server TCP, TCP splicing, TCP proxy,
    /// routed messages".
    pub const PRECEDENCE: [EstablishMethod; 4] = [
        EstablishMethod::ClientServer,
        EstablishMethod::Splicing,
        EstablishMethod::Proxy,
        EstablishMethod::Routed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            EstablishMethod::ClientServer => "client/server",
            EstablishMethod::Splicing => "TCP splicing",
            EstablishMethod::Proxy => "TCP proxy",
            EstablishMethod::Routed => "routed messages",
        }
    }

    /// This method's connector.
    pub(crate) fn connector(self) -> Connector {
        match self {
            EstablishMethod::ClientServer => direct::connect::<false>,
            EstablishMethod::Splicing => splice::splicing,
            EstablishMethod::Proxy => direct::connect::<true>,
            EstablishMethod::Routed => routed::routed,
        }
    }
}

impl std::fmt::Display for EstablishMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 1, transcribed: the code must state exactly what the paper
    /// states.
    #[test]
    fn table1_matches_paper() {
        use EstablishMethod::*;
        let t = |m: EstablishMethod| m.properties();
        // Crosses firewalls: no yes yes yes
        assert!(!t(ClientServer).crosses_firewalls);
        assert!(t(Splicing).crosses_firewalls);
        assert!(t(Proxy).crosses_firewalls);
        assert!(t(Routed).crosses_firewalls);
        // NAT support: client partial yes yes
        assert_eq!(t(ClientServer).nat_support, NatSupport::ClientOnly);
        assert_eq!(t(Splicing).nat_support, NatSupport::Partial);
        assert_eq!(t(Proxy).nat_support, NatSupport::Yes);
        assert_eq!(t(Routed).nat_support, NatSupport::Yes);
        // For bootstrap: yes no no yes
        assert!(t(ClientServer).for_bootstrap);
        assert!(!t(Splicing).for_bootstrap);
        assert!(!t(Proxy).for_bootstrap);
        assert!(t(Routed).for_bootstrap);
        // Native TCP: yes yes yes no
        assert!(t(ClientServer).native_tcp);
        assert!(t(Splicing).native_tcp);
        assert!(t(Proxy).native_tcp);
        assert!(!t(Routed).native_tcp);
        // Relayed: no no yes yes
        assert!(!t(ClientServer).relayed);
        assert!(!t(Splicing).relayed);
        assert!(t(Proxy).relayed);
        assert!(t(Routed).relayed);
        // Needs brokering: no yes yes no
        assert!(!t(ClientServer).needs_brokering);
        assert!(t(Splicing).needs_brokering);
        assert!(t(Proxy).needs_brokering);
        assert!(!t(Routed).needs_brokering);
    }
}
