//! The whole plain stack (port + session + drivers over simtcp) on the
//! `bulk_plain` world at a quarter of that workload's size, direct and
//! then forced through the relay — the top two rungs of the ladder.

use super::Metrics;
use crate::workloads::bulk::{self, BulkCfg};
use crate::worlds::SiteKind;

/// 256 KiB messages per run (64 MiB direct, 32 MiB routed).
const DIRECT_MSGS: u32 = 256;
const ROUTED_MSGS: u32 = 128;

pub fn run(seed: u64) -> Metrics {
    let direct = bulk::run(
        &BulkCfg {
            msgs: DIRECT_MSGS,
            ..bulk::plain()
        },
        seed,
    );
    let routed = bulk::run(
        &BulkCfg {
            kind: SiteKind::RandomNatToFirewalled,
            msgs: ROUTED_MSGS,
            ..bulk::plain()
        },
        seed,
    );
    for rep in [&direct, &routed] {
        assert_eq!(rep.phases[0].failed_ops, 0, "every message arrives intact");
        assert_eq!(
            rep.fallbacks, 0,
            "established as intended: {:?}",
            rep.methods
        );
    }
    let ns_per_byte = |p: &crate::workloads::Phase| p.cpu_ns as f64 / p.bytes as f64;
    let (d, r) = (&direct.phases[0], &routed.phases[0]);
    vec![
        ("stack.plain_ns_per_byte", ns_per_byte(d)),
        ("relay.routed_ns_per_byte", ns_per_byte(r)),
        (
            "relay.routed_sim_goodput_mbps",
            r.bytes as f64 / 1e6 / (r.sim_ns as f64 / 1e9),
        ),
    ]
}
