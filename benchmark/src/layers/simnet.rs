//! simnet alone: the scheduler's handoff and event dispatch, and one
//! packet crossing one hop.

use std::time::Duration;

use gridsim_net::{ctx, Sim, SimTime, SockAddr};
use gridsim_tcp::SimHost;
use netgrid::CpuRates;

use super::{cpu_ns, Metrics};
use crate::worlds::{self, SiteKind};

const YIELDS: u32 = 200_000;
const EVENTS: u32 = 200_000;
/// Datagram payload that makes a full 1500-byte-class packet, as a TCP
/// segment at full MSS does.
const DATAGRAM: usize = 1448;
const DATAGRAMS: u32 = 40_000;
/// Datagrams per burst; a burst fits the 512 KiB LAN queue many times over.
const BURST: u32 = 64;

pub fn run(seed: u64) -> Metrics {
    // One task handing the baton back and forth with the scheduler.
    let sim = Sim::new(seed);
    sim.spawn("yielder", || {
        for _ in 0..YIELDS {
            ctx::yield_now();
        }
    });
    let (handoff, _) = cpu_ns(|| sim.run());

    // Closure events, scheduled then drained.
    let sim = Sim::new(seed);
    sim.net().with(|w| {
        for i in 0..EVENTS {
            w.schedule_at(SimTime(i as u64), |_| {});
        }
    });
    let (events, _) = cpu_ns(|| sim.run());

    // Full-size datagrams across the `bulk_plain` topology, to a port
    // nobody listens on: every hop's cost and no receiver's.
    let sim = Sim::new(seed);
    let world = worlds::two_sites(
        &sim,
        worlds::CLEAN_FAST,
        SiteKind::Open,
        64 * 1024,
        CpuRates::unlimited(),
    );
    let stats = |sim: &Sim| sim.net().with(|w| (w.stats.delivered, w.stats.forwarded));
    let before = stats(&sim);
    let (a, b): (SimHost, SimHost) = (world.a, world.b);
    sim.spawn("blaster", move || {
        let sock = a.udp_bind(4000).expect("binds");
        let dst = SockAddr::new(b.ip(), 4001);
        let data = vec![0x5au8; DATAGRAM];
        // Pace bursts at the LAN's 12.5 MB/s so no queue overflows.
        let gap = Duration::from_secs_f64((BURST as usize * (DATAGRAM + 28)) as f64 / 12.5e6);
        for _ in 0..DATAGRAMS / BURST {
            for _ in 0..BURST {
                sock.send_to(&data, dst).expect("sends");
            }
            ctx::sleep(gap);
        }
    });
    let (hops_ns, _) = cpu_ns(|| sim.run());
    let after = stats(&sim);
    let delivered = after.0 - before.0;
    let hop_events = delivered + (after.1 - before.1);
    assert_eq!(delivered, DATAGRAMS as u64, "every datagram arrives");

    vec![
        ("simnet.handoff_ns", handoff as f64 / YIELDS as f64),
        ("simnet.event_ns", events as f64 / EVENTS as f64),
        ("simnet.pkt_hop_ns", hops_ns as f64 / hop_events as f64),
    ]
}
