//! Deterministic fault injection: scheduled link flaps, loss bursts,
//! partitions and node (host/relay) kill-restart.
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
//! # let (a, b) = sim.net().with(|w| {
//! #     let a = w.add_host("a", vec![Ip::new(1, 0, 0, 1)]);
//! #     let b = w.add_host("b", vec![Ip::new(2, 0, 0, 1)]);
//! #     w.connect(a, b, LinkParams::mbps(1.0, Duration::from_millis(5)));
//! #     (a, b)
//! # });
//! let plan = FaultPlan::new()
//!     .flap(Duration::from_secs(1), LinkDirId(0), Duration::from_millis(500))
//!     .loss_burst(Duration::from_secs(3), LinkDirId(0), 0.5, Duration::from_secs(1))
//!     .partition(Duration::from_secs(5), a, b, Duration::from_secs(1));
//! sim.net().with(|w| w.install_faults(plan));
//! ```

use std::time::Duration;

use crate::link::LinkDirId;
use crate::world::{NodeId, World};

/// One scheduled fault event. `at` is an offset from the moment the plan is
/// installed (usually simulation start).
#[derive(Clone, Debug)]
enum FaultEvent {
    Flap {
        at: Duration,
        link: LinkDirId,
        down_for: Duration,
    },
    LossBurst {
        at: Duration,
        link: LinkDirId,
        loss: f64,
        duration: Duration,
    },
    Partition {
        at: Duration,
        a: NodeId,
        b: NodeId,
        down_for: Duration,
    },
    NodeDown {
        at: Duration,
        node: NodeId,
        down_for: Duration,
    },
    DelayStep {
        at: Duration,
        link: LinkDirId,
        delay: Duration,
    },
    BandwidthRamp {
        at: Duration,
        link: LinkDirId,
        to_bps: f64,
        duration: Duration,
        steps: u32,
    },
    DelayRamp {
        at: Duration,
        link: LinkDirId,
        to_delay: Duration,
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

    /// Raise the link's loss probability to `loss` for `duration`, then
    /// restore whatever it was before the burst.
    pub fn loss_burst(
        mut self,
        at: Duration,
        link: LinkDirId,
        loss: f64,
        duration: Duration,
    ) -> FaultPlan {
        assert!((0.0..=1.0).contains(&loss), "loss must be in [0,1]");
        self.events.push(FaultEvent::LossBurst {
            at,
            link,
            loss,
            duration,
        });
        self
    }

    /// Sever every link on the routed path between `a` and `b` (both
    /// directions) for `down_for`.
    pub fn partition(
        mut self,
        at: Duration,
        a: NodeId,
        b: NodeId,
        down_for: Duration,
    ) -> FaultPlan {
        self.events
            .push(FaultEvent::Partition { at, a, b, down_for });
        self
    }

    /// Kill a node at the network level — every incident link drops packets
    /// — and restore it `down_for` later. Combine with protocol-level crash
    /// helpers (e.g. `gridsim_tcp::crash_node`) to also wipe endpoint state.
    pub fn node_down(mut self, at: Duration, node: NodeId, down_for: Duration) -> FaultPlan {
        self.events
            .push(FaultEvent::NodeDown { at, node, down_for });
        self
    }

    /// Set one link direction's propagation delay to `delay` at `at` and
    /// leave it there.
    pub fn delay_step(mut self, at: Duration, link: LinkDirId, delay: Duration) -> FaultPlan {
        self.events.push(FaultEvent::DelayStep { at, link, delay });
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

    /// Linearly ramp one link direction's propagation delay to `to_delay`
    /// over `duration`, in `steps` discrete moves (see [`bandwidth_ramp`]
    /// for sampling semantics).
    ///
    /// [`bandwidth_ramp`]: FaultPlan::bandwidth_ramp
    pub fn delay_ramp(
        mut self,
        at: Duration,
        link: LinkDirId,
        to_delay: Duration,
        duration: Duration,
        steps: u32,
    ) -> FaultPlan {
        assert!(steps > 0, "ramp needs at least one step");
        self.events.push(FaultEvent::DelayRamp {
            at,
            link,
            to_delay,
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
                FaultEvent::LossBurst {
                    at,
                    link,
                    loss,
                    duration,
                } => {
                    w.schedule_after(at, move |w| {
                        let prev = w.link_mut(link).params.loss;
                        w.link_mut(link).params.loss = loss;
                        w.schedule_after(duration, move |w| {
                            w.link_mut(link).params.loss = prev;
                        });
                    });
                }
                FaultEvent::Partition { at, a, b, down_for } => {
                    w.schedule_after(at, move |w| {
                        let links = w.path_links(a, b);
                        for &l in &links {
                            w.set_link_up(l, false);
                        }
                        w.schedule_after(down_for, move |w| {
                            for &l in &links {
                                w.set_link_up(l, true);
                            }
                        });
                    });
                }
                FaultEvent::NodeDown { at, node, down_for } => {
                    w.schedule_after(at, move |w| {
                        w.set_node_up(node, false);
                        w.schedule_after(down_for, move |w| w.set_node_up(node, true));
                    });
                }
                FaultEvent::DelayStep { at, link, delay } => {
                    w.schedule_after(at, move |w| {
                        w.link_mut(link).params.delay = delay;
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
                FaultEvent::DelayRamp {
                    at,
                    link,
                    to_delay,
                    duration,
                    steps,
                } => {
                    w.schedule_after(at, move |w| {
                        let from = w.link_mut(link).params.delay;
                        for i in 1..=steps {
                            let frac = f64::from(i) / f64::from(steps);
                            let d = if to_delay >= from {
                                from + (to_delay - from).mul_f64(frac)
                            } else {
                                from - (from - to_delay).mul_f64(frac)
                            };
                            let when = duration.mul_f64(frac);
                            w.schedule_after(when, move |w| {
                                w.link_mut(link).params.delay = d;
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

    fn two_hosts() -> (Scheduler, Net, crate::world::NodeId, Arc<AtomicU64>) {
        let sched = Scheduler::new();
        let net = Net::new(sched.handle(), 1);
        let delivered = Arc::new(AtomicU64::new(0));
        let d2 = Arc::clone(&delivered);
        let a = net.with(|w| {
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
            a
        });
        (sched, net, a, delivered)
    }

    #[test]
    fn flap_drops_then_recovers() {
        let (sched, net, a, delivered) = two_hosts();
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
        let _ = a;
    }

    #[test]
    fn loss_burst_restores_previous_loss() {
        let (sched, net, _a, _delivered) = two_hosts();
        let plan = FaultPlan::new().loss_burst(
            Duration::from_millis(5),
            LinkDirId(0),
            1.0,
            Duration::from_millis(10),
        );
        net.with(|w| w.install_faults(plan));
        sched.run_until(crate::SimTime::ZERO + Duration::from_millis(6));
        net.with(|w| assert_eq!(w.link_mut(LinkDirId(0)).params.loss, 1.0));
        sched.run();
        net.with(|w| assert_eq!(w.link_mut(LinkDirId(0)).params.loss, 0.0));
    }

    #[test]
    fn node_down_severs_both_directions() {
        let (sched, net, a, delivered) = two_hosts();
        net.with(|w| {
            let plan =
                FaultPlan::new().node_down(Duration::from_millis(5), a, Duration::from_millis(10));
            w.install_faults(plan);
            w.schedule_after(Duration::from_millis(8), |w| {
                let b = w.find_node("b").unwrap();
                let mut p = pkt(100);
                std::mem::swap(&mut p.src, &mut p.dst);
                w.send_from(b, p);
            });
        });
        sched.run();
        assert_eq!(delivered.load(Ordering::SeqCst), 0);
        net.with(|w| {
            assert_eq!(w.stats.drop_link_down, 1);
            assert!(w.link_up(LinkDirId(0)) && w.link_up(LinkDirId(1)));
        });
    }

    #[test]
    fn bandwidth_ramp_reaches_target_through_midpoint() {
        let (sched, net, _a, _delivered) = two_hosts();
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
    fn delay_step_and_ramp_apply() {
        let (sched, net, _a, _delivered) = two_hosts();
        let plan = FaultPlan::new()
            .delay_step(
                Duration::from_millis(5),
                LinkDirId(0),
                Duration::from_millis(20),
            )
            .delay_ramp(
                Duration::from_millis(10),
                LinkDirId(0),
                Duration::from_millis(4),
                Duration::from_millis(16),
                4,
            );
        net.with(|w| w.install_faults(plan));
        sched.run_until(crate::SimTime::ZERO + Duration::from_millis(6));
        net.with(|w| {
            assert_eq!(
                w.link_mut(LinkDirId(0)).params.delay,
                Duration::from_millis(20)
            );
        });
        sched.run();
        // Ramp down from 20ms (sampled at t=10ms) to 4ms.
        net.with(|w| {
            assert_eq!(
                w.link_mut(LinkDirId(0)).params.delay,
                Duration::from_millis(4)
            );
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
