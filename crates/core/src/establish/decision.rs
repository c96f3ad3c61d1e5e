//! The connection-method decision tree (paper Figure 4), generalized to an
//! ordered candidate list so the factory can fall back at runtime — the
//! paper's §6 reports exactly such fallbacks (splicing failing on
//! non-compliant NATs, reverting to a SOCKS proxy).

use std::io;

use crate::profile::ConnectivityProfile;

use super::EstablishMethod;

/// What the connection is for (paper Section 2's connection classes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkPurpose {
    /// Bootstrap: no pre-existing connection, so no brokering possible.
    Bootstrap,
    /// Data (or service) connection: service links exist for negotiation.
    Data,
}

/// Compute the ordered list of establishment methods to attempt from
/// `initiator` towards `target`, following Figure 4:
///
/// ```text
/// bootstrap? ──yes──► client/server possible? ──► client/server, else routed
///     │no
/// firewall/NAT in the way? ──no──► client/server
///     │yes
/// NAT compatible with splicing? ──yes──► TCP splicing (then proxy, routed)
///     │no
/// proxy available? ──yes──► TCP proxy (then routed)
///     │no
/// routed messages
/// ```
pub fn choose_methods(
    initiator: &ConnectivityProfile,
    target: &ConnectivityProfile,
    purpose: LinkPurpose,
) -> Vec<EstablishMethod> {
    let mut out = Vec::with_capacity(3);

    // Client/server works when the target accepts unsolicited inbound TCP
    // and the initiator may dial out. (An initiator behind NAT is fine —
    // Table 1's "NAT support: client".)
    let client_server_ok = target.accepts_inbound() && initiator.can_dial_out();

    if purpose == LinkPurpose::Bootstrap {
        // Without a pre-existing connection only non-brokered methods
        // qualify (Table 1 "usable for bootstrap").
        if client_server_ok {
            out.push(EstablishMethod::ClientServer);
        }
        out.push(EstablishMethod::Routed);
        return out;
    }

    if client_server_ok {
        out.push(EstablishMethod::ClientServer);
        return out;
    }

    // Splicing: both ends must be able to emit outbound SYNs and have
    // predictable (or absent) NAT mappings.
    if initiator.splice_capable() && target.splice_capable() {
        out.push(EstablishMethod::Splicing);
    }

    // Proxy: a SOCKS proxy on the target's gateway lets the initiator reach
    // inward; one on the initiator's gateway lets a strictly firewalled
    // initiator reach out. Either unlocks the method (for a target that is
    // itself reachable or proxied).
    let proxy_reaches_target = target.socks_proxy.is_some() || target.accepts_inbound();
    let initiator_can_reach_proxy = initiator.can_dial_out() || initiator.socks_proxy.is_some();
    if proxy_reaches_target && initiator_can_reach_proxy {
        out.push(EstablishMethod::Proxy);
    }

    // Routed messages always work as the last resort (paper §3.3: "every
    // node connected to the Internet ... can connect to the relay").
    out.push(EstablishMethod::Routed);
    out
}

/// One walk of the Figure-4 decision tree: the methods still to try, in
/// the tree's order, and what became of the ones tried.
#[derive(Default)]
pub(crate) struct Walk {
    pub methods: std::vec::IntoIter<EstablishMethod>,
    /// Every failed method's own error, in walk order.
    failed: Vec<String>,
    /// The last failure's kind; the kind of the walk's error (`NotFound`
    /// when nothing failed).
    kind: Option<io::ErrorKind>,
}

impl Walk {
    /// A data link's walk from `initiator` to `target`.
    pub(crate) fn data(initiator: &ConnectivityProfile, target: &ConnectivityProfile) -> Walk {
        let methods = choose_methods(initiator, target, LinkPurpose::Data).into_iter();
        Walk {
            methods,
            ..Walk::default()
        }
    }

    pub(crate) fn failed(&mut self, why: String, kind: io::ErrorKind) {
        self.kind = Some(kind);
        self.failed.push(why);
    }

    /// `what` failed, and why: each step's error.
    pub(crate) fn into_error(self, what: String) -> io::Error {
        let why = if self.failed.is_empty() {
            "no establishment method applicable".to_string()
        } else {
            self.failed.join("; ")
        };
        let kind = self.kind.unwrap_or(io::ErrorKind::NotFound);
        io::Error::new(kind, format!("{what}: {why}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{FirewallClass, NatClass};
    use gridsim_net::{Ip, SockAddr};

    fn proxy() -> SockAddr {
        SockAddr::new(Ip::new(131, 9, 0, 1), 1080)
    }

    #[test]
    fn open_to_open_is_client_server() {
        let p = ConnectivityProfile::open();
        assert_eq!(
            choose_methods(&p, &p, LinkPurpose::Data),
            vec![EstablishMethod::ClientServer]
        );
    }

    #[test]
    fn firewalled_target_prefers_splicing() {
        // Paper Fig. 4: firewall in the way, no NAT incompatibility →
        // splicing first.
        let open = ConnectivityProfile::open();
        let fw = ConnectivityProfile::firewalled();
        let methods = choose_methods(&open, &fw, LinkPurpose::Data);
        assert_eq!(methods[0], EstablishMethod::Splicing);
        assert_eq!(*methods.last().unwrap(), EstablishMethod::Routed);
    }

    #[test]
    fn double_firewall_prefers_splicing() {
        let fw = ConnectivityProfile::firewalled();
        let methods = choose_methods(&fw, &fw, LinkPurpose::Data);
        assert_eq!(methods[0], EstablishMethod::Splicing);
    }

    #[test]
    fn predictable_nat_still_splices() {
        let nat = ConnectivityProfile::natted(NatClass::SymmetricPredictable);
        let fw = ConnectivityProfile::firewalled();
        let methods = choose_methods(&nat, &fw, LinkPurpose::Data);
        assert_eq!(methods[0], EstablishMethod::Splicing);
    }

    #[test]
    fn random_nat_skips_splicing_uses_proxy() {
        // The paper's §6 fallback: broken NAT → SOCKS proxy.
        let nat = ConnectivityProfile::natted(NatClass::SymmetricRandom);
        let fw_with_proxy = ConnectivityProfile::firewalled().with_proxy(proxy());
        let methods = choose_methods(&nat, &fw_with_proxy, LinkPurpose::Data);
        assert!(!methods.contains(&EstablishMethod::Splicing));
        assert_eq!(methods[0], EstablishMethod::Proxy);
    }

    #[test]
    fn random_nat_no_proxy_falls_to_routed() {
        let nat = ConnectivityProfile::natted(NatClass::SymmetricRandom);
        let fw = ConnectivityProfile::firewalled();
        let methods = choose_methods(&nat, &fw, LinkPurpose::Data);
        assert_eq!(methods, vec![EstablishMethod::Routed]);
    }

    #[test]
    fn strict_firewall_initiator_needs_own_proxy() {
        let strict = ConnectivityProfile {
            firewall: FirewallClass::Strict,
            nat: None,
            private_addr: false,
            socks_proxy: Some(proxy()),
        };
        let open = ConnectivityProfile::open();
        let methods = choose_methods(&strict, &open, LinkPurpose::Data);
        // Cannot dial out directly, cannot splice; its own proxy works.
        assert!(!methods.contains(&EstablishMethod::ClientServer));
        assert!(!methods.contains(&EstablishMethod::Splicing));
        assert_eq!(methods[0], EstablishMethod::Proxy);
    }

    #[test]
    fn bootstrap_to_open_is_client_server() {
        let fw = ConnectivityProfile::firewalled();
        let open = ConnectivityProfile::open();
        assert_eq!(
            choose_methods(&fw, &open, LinkPurpose::Bootstrap),
            vec![EstablishMethod::ClientServer, EstablishMethod::Routed]
        );
    }

    #[test]
    fn bootstrap_to_firewalled_is_routed_only() {
        // Fig. 4 leftmost branch: bootstrap + no direct reachability.
        let open = ConnectivityProfile::open();
        let fw = ConnectivityProfile::firewalled();
        assert_eq!(
            choose_methods(&open, &fw, LinkPurpose::Bootstrap),
            vec![EstablishMethod::Routed]
        );
    }

    #[test]
    fn every_profile_pair_has_at_least_one_method() {
        // Routed messages guarantee universal connectivity (§6: "we were
        // able to establish a connection from every node to every other
        // node").
        let profiles = [
            ConnectivityProfile::open(),
            ConnectivityProfile::firewalled(),
            ConnectivityProfile::natted(NatClass::Cone),
            ConnectivityProfile::natted(NatClass::SymmetricRandom),
        ];
        for a in &profiles {
            for b in &profiles {
                for purpose in [LinkPurpose::Bootstrap, LinkPurpose::Data] {
                    assert!(!choose_methods(a, b, purpose).is_empty());
                }
            }
        }
    }
}
