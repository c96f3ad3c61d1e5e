//! Deterministic fault injection: scheduled link flaps and bandwidth
//! ramps. (A host or relay crash is `gridsim_tcp::crash_node`.)
//!
//! A [`FaultPlan`] is a list of events with simulation-time offsets. When
//! installed on a [`World`] every event becomes an ordinary scheduled
//! callback on the discrete-event clock, so runs with the same seed and the
//! same plan replay identically. A plan with no events leaves the world
//! untouched: the fault machinery consumes no RNG draws and adds no
//! per-packet work beyond one boolean test, keeping fault-free wire traces
//! byte-identical.
//!
//! ```
//! use gridsim_net::{FaultPlan, LinkDirId, Sim};
//! use std::time::Duration;
//!
//! let sim = Sim::new(7);
//! // ... build a topology ...
//! # use gridsim_net::{Ip, LinkParams};
//! # sim.net().with(|w| {
//! #     let a = w.add_host("a", vec![Ip::new(1, 0, 0, 1)]);
//! #     let b = w.add_host("b", vec![Ip::new(2, 0, 0, 1)]);
//! #     w.connect(a, b, LinkParams::mbps(1.0, Duration::from_millis(5)));
//! # });
//! let plan = FaultPlan::new()
//!     .flap(Duration::from_secs(1), LinkDirId(0), Duration::from_millis(500))
//!     .bandwidth_ramp(Duration::from_secs(3), LinkDirId(0), 4e6, Duration::from_secs(1), 4);
//! sim.net().with(|w| w.install_faults(plan));
//! ```

use std::time::Duration;

use crate::link::LinkDirId;
use crate::world::World;

/// One scheduled fault event. `at` is an offset from the moment the plan is
/// installed (usually simulation start).
#[derive(Clone, Debug)]
enum FaultEvent {
    Flap {
        at: Duration,
        link: LinkDirId,
        down_for: Duration,
    },
    BandwidthRamp {
        at: Duration,
        link: LinkDirId,
        to_bps: f64,
        duration: Duration,
        steps: u32,
    },
}

/// A deterministic schedule of network faults (see module docs).
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Flap: down at `at`, back up `down_for` later.
    pub fn flap(mut self, at: Duration, link: LinkDirId, down_for: Duration) -> FaultPlan {
        self.events.push(FaultEvent::Flap { at, link, down_for });
        self
    }

    /// Linearly ramp one link direction's capacity from whatever it is at
    /// `at` to `to_bps` over `duration`, in `steps` discrete moves. The
    /// starting capacity is sampled when the ramp begins, so ramps compose
    /// with earlier steps on the same link. The final step lands exactly on
    /// `to_bps` at `at + duration`.
    pub fn bandwidth_ramp(
        mut self,
        at: Duration,
        link: LinkDirId,
        to_bps: f64,
        duration: Duration,
        steps: u32,
    ) -> FaultPlan {
        assert!(to_bps > 0.0, "bandwidth must be positive");
        assert!(steps > 0, "ramp needs at least one step");
        self.events.push(FaultEvent::BandwidthRamp {
            at,
            link,
            to_bps,
            duration,
            steps,
        });
        self
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Schedule every event relative to the current simulated time.
    pub(crate) fn install(self, w: &World) {
        for ev in self.events {
            match ev {
                FaultEvent::Flap { at, link, down_for } => {
                    w.schedule_after(at, move |w| {
                        w.set_link_up(link, false);
                        w.schedule_after(down_for, move |w| w.set_link_up(link, true));
                    });
                }
                FaultEvent::BandwidthRamp {
                    at,
                    link,
                    to_bps,
                    duration,
                    steps,
                } => {
                    w.schedule_after(at, move |w| {
                        let from = w.link_mut(link).params.bandwidth_bps;
                        for i in 1..=steps {
                            let frac = f64::from(i) / f64::from(steps);
                            let bps = from + (to_bps - from) * frac;
                            let when = duration.mul_f64(frac);
                            w.schedule_after(when, move |w| {
                                w.link_mut(link).params.bandwidth_bps = bps;
                            });
                        }
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Ip, SockAddr};
    use crate::packet::{proto, Packet, RawBytes};
    use crate::runtime::Scheduler;
    use crate::world::Net;
    use crate::LinkParams;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn pkt(n: usize) -> Packet {
        Packet::new(
            SockAddr::new(Ip::new(1, 0, 0, 1), 1),
            SockAddr::new(Ip::new(2, 0, 0, 1), 2),
            proto::UDP,
            Box::new(RawBytes(vec![0u8; n])),
        )
    }

    fn two_hosts() -> (Scheduler, Net, Arc<AtomicU64>) {
        let sched = Scheduler::new();
        let net = Net::new(sched.handle(), 1);
        let delivered = Arc::new(AtomicU64::new(0));
        let d2 = Arc::clone(&delivered);
        net.with(|w| {
            let a = w.add_host("a", vec![Ip::new(1, 0, 0, 1)]);
            let b = w.add_host("b", vec![Ip::new(2, 0, 0, 1)]);
            let (ia, ib) = w.connect(a, b, LinkParams::mbps(1.0, Duration::from_millis(1)));
            w.default_route(a, ia);
            w.default_route(b, ib);
            w.register_proto(
                proto::UDP,
                Arc::new(move |_w, _n, _p| {
                    d2.fetch_add(1, Ordering::SeqCst);
                }),
            );
        });
        (sched, net, delivered)
    }

    #[test]
    fn flap_drops_then_recovers() {
        let (sched, net, delivered) = two_hosts();
        let plan = FaultPlan::new().flap(
            Duration::from_millis(10),
            LinkDirId(0),
            Duration::from_millis(20),
        );
        net.with(|w| {
            w.install_faults(plan);
            // One packet before, one during, one after the flap.
            for at in [0u64, 15, 40] {
                w.schedule_after(Duration::from_millis(at), |w| {
                    let a = w.find_node("a").unwrap();
                    w.send_from(a, pkt(100));
                });
            }
        });
        sched.run();
        assert_eq!(delivered.load(Ordering::SeqCst), 2);
        net.with(|w| assert_eq!(w.stats.drop_link_down, 1));
    }

    #[test]
    fn bandwidth_ramp_reaches_target_through_midpoint() {
        let (sched, net, _delivered) = two_hosts();
        // 1 MB/s -> 5 MB/s over 40ms in 4 steps, starting at t=10ms.
        let plan = FaultPlan::new().bandwidth_ramp(
            Duration::from_millis(10),
            LinkDirId(0),
            5e6,
            Duration::from_millis(40),
            4,
        );
        net.with(|w| w.install_faults(plan));
        // Halfway through the ramp (after step 2 of 4 at t=30ms).
        sched.run_until(crate::SimTime::ZERO + Duration::from_millis(31));
        net.with(|w| {
            let bw = w.link_mut(LinkDirId(0)).params.bandwidth_bps;
            assert!((bw - 3e6).abs() < 1.0, "midpoint bandwidth {bw}");
        });
        sched.run();
        net.with(|w| {
            let bw = w.link_mut(LinkDirId(0)).params.bandwidth_bps;
            assert!((bw - 5e6).abs() < 1.0, "final bandwidth {bw}");
        });
    }

    #[test]
    fn path_links_covers_multi_hop_routes() {
        let sched = Scheduler::new();
        let net = Net::new(sched.handle(), 1);
        net.with(|w| {
            let a = w.add_host("a", vec![Ip::new(1, 0, 0, 1)]);
            let r = w.add_host("r", vec![Ip::new(3, 0, 0, 1)]);
            let b = w.add_host("b", vec![Ip::new(2, 0, 0, 1)]);
            let p = LinkParams::mbps(1.0, Duration::from_millis(1));
            let (ia, ra) = w.connect(a, r, p);
            let (rb, ib) = w.connect(r, b, p);
            w.default_route(a, ia);
            w.default_route(b, ib);
            w.route(r, Ip::new(1, 0, 0, 0), 8, ra);
            w.route(r, Ip::new(2, 0, 0, 0), 8, rb);
            let links = w.path_links(a, b);
            assert_eq!(links.len(), 4, "two hops, both directions: {links:?}");
        });
    }
}
