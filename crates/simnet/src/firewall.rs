//! Stateful firewall model.
//!
//! Mirrors the behaviour the paper describes in Section 3.2: "most firewalls
//! are stateful: they usually allow all outgoing packets and drop all
//! incoming packets, except packets belonging to an already established
//! connection". The conntrack table is keyed on the flow 4-tuple, so a
//! simultaneous-SYN (TCP splicing) exchange opens both firewalls — each sees
//! its own host's SYN as an *outgoing* connection — exactly the mechanism of
//! the paper's Figure 2.

use std::collections::HashSet;

use crate::addr::{Ip, SockAddr};

/// Firewall policy of a gateway, applied to traffic crossing between its
/// trusted (inside) and untrusted (outside) interfaces.
#[derive(Clone, Debug, PartialEq)]
pub enum FirewallPolicy {
    /// No filtering.
    Open,
    /// Allow all outgoing packets; allow incoming packets only when they
    /// belong to a flow first seen outgoing (the common stateful firewall).
    StatefulOutbound,
    /// The paper's "severe firewall": even outgoing connections are blocked
    /// unless the remote endpoint is one of the allow-listed hosts (a
    /// well-controlled proxy). Incoming follows conntrack as usual.
    Strict { allowed_remotes: Vec<Ip> },
}

/// Direction of a packet crossing the gateway.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    InsideToOutside,
    OutsideToInside,
}

/// Flow key: (inside endpoint, outside endpoint).
pub type FlowKey = (SockAddr, SockAddr);

/// Conntrack table plus policy.
#[derive(Debug)]
pub struct Firewall {
    policy: FirewallPolicy,
    established: HashSet<FlowKey>,
}

/// Verdict for one packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Accept,
    Drop,
}

impl Firewall {
    pub fn new(policy: FirewallPolicy) -> Firewall {
        Firewall {
            policy,
            established: HashSet::new(),
        }
    }

    pub fn policy(&self) -> &FirewallPolicy {
        &self.policy
    }

    /// Filter a packet crossing the gateway. `inside` / `outside` are the
    /// endpoints as seen on the *inside* network (i.e. after inbound NAT
    /// translation, before outbound translation).
    pub fn filter(&mut self, dir: Direction, inside: SockAddr, outside: SockAddr) -> Verdict {
        match dir {
            Direction::InsideToOutside => {
                if let FirewallPolicy::Strict { allowed_remotes } = &self.policy {
                    if !allowed_remotes.contains(&outside.ip) {
                        return Verdict::Drop;
                    }
                }
                // Outgoing packets establish (or refresh) flow state.
                self.established.insert((inside, outside));
                Verdict::Accept
            }
            Direction::OutsideToInside => match self.policy {
                FirewallPolicy::Open => Verdict::Accept,
                FirewallPolicy::StatefulOutbound | FirewallPolicy::Strict { .. } => {
                    if self.established.contains(&(inside, outside)) {
                        Verdict::Accept
                    } else {
                        Verdict::Drop
                    }
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sa(a: u8, p: u16) -> SockAddr {
        SockAddr::new(Ip::new(10, 0, 0, a), p)
    }
    fn pub_sa(a: u8, p: u16) -> SockAddr {
        SockAddr::new(Ip::new(130, 37, 0, a), p)
    }

    #[test]
    fn stateful_blocks_unsolicited_inbound() {
        let mut fw = Firewall::new(FirewallPolicy::StatefulOutbound);
        assert_eq!(
            fw.filter(Direction::OutsideToInside, sa(1, 80), pub_sa(9, 5555)),
            Verdict::Drop
        );
    }

    #[test]
    fn stateful_allows_reply_of_outbound_flow() {
        let mut fw = Firewall::new(FirewallPolicy::StatefulOutbound);
        assert_eq!(
            fw.filter(Direction::InsideToOutside, sa(1, 4000), pub_sa(9, 80)),
            Verdict::Accept
        );
        assert_eq!(
            fw.filter(Direction::OutsideToInside, sa(1, 4000), pub_sa(9, 80)),
            Verdict::Accept
        );
        // A different remote port is a different flow.
        assert_eq!(
            fw.filter(Direction::OutsideToInside, sa(1, 4000), pub_sa(9, 81)),
            Verdict::Drop
        );
    }

    #[test]
    fn splicing_scenario_opens_both_sides() {
        // Paper Fig. 2 (right): each firewall treats its own host's SYN as an
        // outgoing connection, then accepts the peer's SYN as part of it.
        let mut fw_a = Firewall::new(FirewallPolicy::StatefulOutbound);
        let mut fw_b = Firewall::new(FirewallPolicy::StatefulOutbound);
        let a = pub_sa(1, 4001);
        let b = pub_sa(2, 4002);
        // Host A's SYN leaves firewall A...
        assert_eq!(
            fw_a.filter(Direction::InsideToOutside, a, b),
            Verdict::Accept
        );
        // ...and host B's simultaneous SYN leaves firewall B.
        assert_eq!(
            fw_b.filter(Direction::InsideToOutside, b, a),
            Verdict::Accept
        );
        // Each SYN is then accepted inbound at the other side.
        assert_eq!(
            fw_b.filter(Direction::OutsideToInside, b, a),
            Verdict::Accept
        );
        assert_eq!(
            fw_a.filter(Direction::OutsideToInside, a, b),
            Verdict::Accept
        );
    }

    #[test]
    fn strict_blocks_outbound_except_proxy() {
        let proxy = Ip::new(130, 37, 0, 9);
        let mut fw = Firewall::new(FirewallPolicy::Strict {
            allowed_remotes: vec![proxy],
        });
        assert_eq!(
            fw.filter(Direction::InsideToOutside, sa(1, 4000), pub_sa(1, 80)),
            Verdict::Drop
        );
        assert_eq!(
            fw.filter(
                Direction::InsideToOutside,
                sa(1, 4000),
                SockAddr::new(proxy, 1080)
            ),
            Verdict::Accept
        );
        // Replies from the proxy flow back in.
        assert_eq!(
            fw.filter(
                Direction::OutsideToInside,
                sa(1, 4000),
                SockAddr::new(proxy, 1080)
            ),
            Verdict::Accept
        );
    }

    #[test]
    fn open_policy_accepts_everything() {
        let mut fw = Firewall::new(FirewallPolicy::Open);
        assert_eq!(
            fw.filter(Direction::OutsideToInside, sa(1, 1), pub_sa(1, 1)),
            Verdict::Accept
        );
        assert_eq!(
            fw.filter(Direction::InsideToOutside, sa(1, 1), pub_sa(1, 1)),
            Verdict::Accept
        );
        assert_eq!(fw.established.len(), 1);
    }
}
