//! Connectivity profiles: what a node knows about its own position in the
//! network (paper Section 3.4's decision inputs — firewall, NAT, bootstrap).

use gridsim_net::SockAddr;

/// The node's site firewall, as relevant to connection establishment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FirewallClass {
    /// No inbound filtering: the node can accept client/server connections.
    None,
    /// Stateful outbound-only firewall: inbound blocked, outbound free —
    /// TCP splicing crosses it (paper Fig. 2).
    Stateful,
    /// The paper's "severe firewall": outbound only through the site proxy.
    Strict,
}

/// What the node knows about its NAT, in the terms that matter for splicing
/// port prediction (paper §6: splicing works "only with NAT gateways based
/// on a known and predictable port translation rule").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NatClass {
    /// Cone NAT: one external port per internal endpoint — the observed
    /// mapping is directly reusable.
    Cone,
    /// Symmetric NAT with sequential allocation: the next mapping is
    /// predictable from a probe.
    SymmetricPredictable,
    /// Symmetric NAT with random allocation: prediction fails; splicing is
    /// not attempted (the paper's "not fully standards-compliant" NATs).
    SymmetricRandom,
}

impl NatClass {
    pub fn predictable(self) -> bool {
        !matches!(self, NatClass::SymmetricRandom)
    }
}

/// A node's connectivity profile: the decision-tree inputs plus the
/// information peers need to reach it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConnectivityProfile {
    pub firewall: FirewallClass,
    pub nat: Option<NatClass>,
    /// The node's addresses are RFC 1918 private (unroutable from outside
    /// without NAT or a relay).
    pub private_addr: bool,
    /// SOCKS proxy on the site gateway, if the site operates one.
    pub socks_proxy: Option<SockAddr>,
}

impl ConnectivityProfile {
    /// A fully open, publicly addressed node.
    pub fn open() -> ConnectivityProfile {
        ConnectivityProfile {
            firewall: FirewallClass::None,
            nat: None,
            private_addr: false,
            socks_proxy: None,
        }
    }

    /// Behind a stateful firewall, public addresses.
    pub fn firewalled() -> ConnectivityProfile {
        ConnectivityProfile {
            firewall: FirewallClass::Stateful,
            ..ConnectivityProfile::open()
        }
    }

    /// Behind NAT (implies private addressing).
    pub fn natted(class: NatClass) -> ConnectivityProfile {
        ConnectivityProfile {
            firewall: FirewallClass::None,
            nat: Some(class),
            private_addr: true,
            socks_proxy: None,
        }
    }

    /// Builder: site SOCKS proxy.
    pub fn with_proxy(mut self, proxy: SockAddr) -> Self {
        self.socks_proxy = Some(proxy);
        self
    }

    /// Can this node accept a plain client/server TCP connection from an
    /// arbitrary remote host?
    pub fn accepts_inbound(&self) -> bool {
        self.firewall == FirewallClass::None && self.nat.is_none() && !self.private_addr
    }

    /// Can this node initiate a direct outbound TCP connection to an
    /// arbitrary public host?
    pub fn can_dial_out(&self) -> bool {
        self.firewall != FirewallClass::Strict
    }

    /// Does splicing stand a chance from/to this node? A strict firewall
    /// forbids it; an unpredictable NAT defeats port prediction.
    pub fn splice_capable(&self) -> bool {
        self.firewall != FirewallClass::Strict && self.nat.map(|n| n.predictable()).unwrap_or(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{Put, Wire};
    use gridsim_net::Ip;

    #[test]
    fn encode_decode_roundtrip() {
        let profiles = [
            ConnectivityProfile::open(),
            ConnectivityProfile::firewalled(),
            ConnectivityProfile::natted(NatClass::Cone),
            ConnectivityProfile::natted(NatClass::SymmetricRandom)
                .with_proxy(SockAddr::new(Ip::new(131, 9, 0, 1), 1080)),
            ConnectivityProfile {
                firewall: FirewallClass::Strict,
                nat: None,
                private_addr: false,
                socks_proxy: Some(SockAddr::new(Ip::new(131, 9, 0, 1), 1080)),
            },
        ];
        for p in profiles {
            let bytes = bytes::Bytes::from(p.encode().into_bytes());
            assert_eq!(ConnectivityProfile::decode(&bytes).unwrap(), p);
        }
    }

    #[test]
    fn capability_predicates() {
        assert!(ConnectivityProfile::open().accepts_inbound());
        assert!(!ConnectivityProfile::firewalled().accepts_inbound());
        assert!(ConnectivityProfile::firewalled().splice_capable());
        assert!(ConnectivityProfile::natted(NatClass::SymmetricPredictable).splice_capable());
        assert!(!ConnectivityProfile::natted(NatClass::SymmetricRandom).splice_capable());
        let strict = ConnectivityProfile {
            firewall: FirewallClass::Strict,
            nat: None,
            private_addr: false,
            socks_proxy: None,
        };
        assert!(!strict.can_dial_out());
        assert!(!strict.splice_capable());
    }
}
