//! Network Address Translation models.
//!
//! The paper reports (Section 6) that TCP splicing works through NAT "only
//! with NAT gateways based on a known and predictable port translation rule"
//! and that several non-compliant implementations forced a fall-back to a
//! SOCKS proxy. To reproduce that spectrum we implement the classic NAT
//! behaviour taxonomy: full cone, (address-)restricted cone, port-restricted
//! cone, and symmetric NAT with either sequential (predictable) or random
//! port allocation.

use rand::Rng;

use crate::addr::{Ip, SockAddr};
use crate::hash::{FastMap, FastSet};

/// NAT behaviour variants.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NatKind {
    /// One external port per internal endpoint; anyone may send to it.
    FullCone,
    /// One external port per internal endpoint; inbound allowed only from
    /// *addresses* the internal endpoint has contacted.
    RestrictedCone,
    /// As restricted cone, but inbound must match a contacted (address,
    /// port) pair.
    PortRestricted,
    /// A fresh external port per (internal endpoint, destination) pair,
    /// allocated sequentially — the "known and predictable port translation
    /// rule" for which the paper's splicing-with-prediction works.
    SymmetricSequential,
    /// As above but ports are drawn randomly: splicing port prediction
    /// fails, forcing the SOCKS fall-back observed in the paper.
    SymmetricRandom,
}

impl NatKind {
    /// Does this NAT allocate one mapping per destination?
    fn is_symmetric(self) -> bool {
        matches!(
            self,
            NatKind::SymmetricSequential | NatKind::SymmetricRandom
        )
    }

    /// Is the external port of the *next* mapping predictable from observing
    /// a previous one?
    pub fn predictable(self) -> bool {
        !matches!(self, NatKind::SymmetricRandom)
    }
}

/// Key identifying a mapping: internal endpoint, plus the destination for
/// symmetric NATs.
type MapKey = (SockAddr, Option<SockAddr>);

#[derive(Debug)]
struct Mapping {
    internal: SockAddr,
    /// Remote endpoints the internal host has sent to through this mapping.
    remotes: FastSet<SockAddr>,
}

/// The NAT translation table of one gateway.
#[derive(Debug)]
pub struct Nat {
    kind: NatKind,
    ext_ip: Ip,
    next_port: u16,
    by_key: FastMap<MapKey, u16>,
    by_external: FastMap<u16, Mapping>,
}

/// Range from which NAT external ports are allocated.
pub const NAT_PORT_BASE: u16 = 40_000;
pub const NAT_PORT_SPAN: u16 = 20_000;

/// The port a sequential NAT tries after `port`: the next one up, and
/// [`NAT_PORT_BASE`] again after the top of the port space. A port
/// predictor that has observed one mapping follows the same rule.
pub fn next_sequential_port(port: u16) -> u16 {
    port.checked_add(1).unwrap_or(NAT_PORT_BASE)
}

impl Nat {
    pub fn new(kind: NatKind, ext_ip: Ip) -> Nat {
        Nat {
            kind,
            ext_ip,
            next_port: NAT_PORT_BASE,
            by_key: FastMap::default(),
            by_external: FastMap::default(),
        }
    }

    pub fn kind(&self) -> NatKind {
        self.kind
    }

    /// External (public) address of the NAT.
    pub fn external_ip(&self) -> Ip {
        self.ext_ip
    }

    fn map_key(&self, internal: SockAddr, dst: SockAddr) -> MapKey {
        if self.kind.is_symmetric() {
            (internal, Some(dst))
        } else {
            (internal, None)
        }
    }

    fn alloc_port(&mut self, rng: &mut impl Rng) -> u16 {
        match self.kind {
            NatKind::SymmetricRandom => loop {
                let p = NAT_PORT_BASE + rng.random_range(0..NAT_PORT_SPAN);
                if !self.by_external.contains_key(&p) {
                    return p;
                }
            },
            _ => {
                // Sequential allocation; skip ports still in use.
                loop {
                    let p = self.next_port;
                    self.next_port = next_sequential_port(p);
                    if !self.by_external.contains_key(&p) {
                        return p;
                    }
                }
            }
        }
    }

    /// Translate an outbound packet: returns the new source endpoint.
    /// Creates a mapping on first use and records the destination for
    /// cone-filtering.
    pub fn outbound(&mut self, src: SockAddr, dst: SockAddr, rng: &mut impl Rng) -> SockAddr {
        let key = self.map_key(src, dst);
        let port = match self.by_key.get(&key) {
            Some(&p) => p,
            None => {
                let p = self.alloc_port(rng);
                self.by_key.insert(key, p);
                self.by_external.insert(
                    p,
                    Mapping {
                        internal: src,
                        remotes: FastSet::default(),
                    },
                );
                p
            }
        };
        self.by_external
            .get_mut(&port)
            .expect("mapping exists")
            .remotes
            .insert(dst);
        SockAddr::new(self.ext_ip, port)
    }

    /// Translate an inbound packet addressed to `ext_port` from `src`.
    /// Returns the internal endpoint if the NAT's filtering rule admits the
    /// packet, `None` to drop it.
    pub fn inbound(&self, ext_port: u16, src: SockAddr) -> Option<SockAddr> {
        let m = self.by_external.get(&ext_port)?;
        let admit = match self.kind {
            NatKind::FullCone => true,
            NatKind::RestrictedCone => m.remotes.iter().any(|r| r.ip == src.ip),
            NatKind::PortRestricted | NatKind::SymmetricSequential | NatKind::SymmetricRandom => {
                m.remotes.contains(&src)
            }
        };
        admit.then_some(m.internal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }
    fn int(p: u16) -> SockAddr {
        SockAddr::new(Ip::new(192, 168, 1, 10), p)
    }
    fn ext(a: u8, p: u16) -> SockAddr {
        SockAddr::new(Ip::new(130, 37, 0, a), p)
    }

    /// A sequential NAT's allocations follow `next_sequential_port` also
    /// where its counter wraps from the top of the port space to its base:
    /// what a port predictor that observed the first of them computes.
    #[test]
    fn sequential_allocation_wraps_by_the_successor_rule() {
        let mut r = rng();
        let mut nat = Nat::new(NatKind::SymmetricSequential, Ip::new(131, 1, 1, 1));
        nat.next_port = u16::MAX - 2;
        let ports: Vec<u16> = (1..=5)
            .map(|i| nat.outbound(int(5000), ext(i, 80), &mut r).port)
            .collect();
        let rule: Vec<u16> =
            std::iter::successors(Some(ports[0]), |&p| Some(next_sequential_port(p)))
                .take(5)
                .collect();
        assert_eq!(ports, rule);
        assert_eq!(ports[3], NAT_PORT_BASE);
    }

    #[test]
    fn full_cone_reuses_mapping_and_admits_anyone() {
        let mut r = rng();
        let mut nat = Nat::new(NatKind::FullCone, Ip::new(131, 1, 1, 1));
        let m1 = nat.outbound(int(5000), ext(1, 80), &mut r);
        let m2 = nat.outbound(int(5000), ext(2, 80), &mut r);
        assert_eq!(m1, m2, "full cone: one mapping per internal endpoint");
        // Unrelated host may send inbound.
        assert_eq!(nat.inbound(m1.port, ext(9, 1234)), Some(int(5000)));
    }

    #[test]
    fn restricted_cone_filters_by_address() {
        let mut r = rng();
        let mut nat = Nat::new(NatKind::RestrictedCone, Ip::new(131, 1, 1, 1));
        let m = nat.outbound(int(5000), ext(1, 80), &mut r);
        assert_eq!(
            nat.inbound(m.port, ext(1, 9999)),
            Some(int(5000)),
            "same address, any port"
        );
        assert_eq!(nat.inbound(m.port, ext(2, 80)), None, "different address");
    }

    #[test]
    fn port_restricted_requires_exact_remote() {
        let mut r = rng();
        let mut nat = Nat::new(NatKind::PortRestricted, Ip::new(131, 1, 1, 1));
        let m = nat.outbound(int(5000), ext(1, 80), &mut r);
        assert_eq!(nat.inbound(m.port, ext(1, 80)), Some(int(5000)));
        assert_eq!(nat.inbound(m.port, ext(1, 81)), None);
    }

    #[test]
    fn symmetric_allocates_per_destination_sequentially() {
        let mut r = rng();
        let mut nat = Nat::new(NatKind::SymmetricSequential, Ip::new(131, 1, 1, 1));
        let m1 = nat.outbound(int(5000), ext(1, 80), &mut r);
        let m2 = nat.outbound(int(5000), ext(2, 80), &mut r);
        assert_ne!(m1.port, m2.port, "symmetric: one mapping per destination");
        assert_eq!(m2.port, m1.port + 1, "sequential allocation is predictable");
        // Port prediction scenario: observe m1, predict m1.port+1 for the
        // next destination — exactly what brokered splicing relies on.
    }

    #[test]
    fn symmetric_random_is_not_sequential() {
        let mut r = rng();
        let mut nat = Nat::new(NatKind::SymmetricRandom, Ip::new(131, 1, 1, 1));
        let ports: Vec<u16> = (0..8)
            .map(|i| nat.outbound(int(5000), ext(i as u8 + 1, 80), &mut r).port)
            .collect();
        let sequential = ports.windows(2).all(|w| w[1] == w[0] + 1);
        assert!(
            !sequential,
            "random allocation must not look sequential: {ports:?}"
        );
        assert_eq!(nat.by_external.len(), 8);
    }

    #[test]
    fn inbound_without_mapping_is_dropped() {
        let nat = Nat::new(NatKind::FullCone, Ip::new(131, 1, 1, 1));
        assert_eq!(nat.inbound(45000, ext(1, 1)), None);
    }

    #[test]
    fn kind_predicates() {
        assert!(NatKind::SymmetricSequential.is_symmetric());
        assert!(NatKind::SymmetricSequential.predictable());
        assert!(!NatKind::SymmetricRandom.predictable());
        assert!(!NatKind::FullCone.is_symmetric());
        assert!(NatKind::FullCone.predictable());
    }
}
