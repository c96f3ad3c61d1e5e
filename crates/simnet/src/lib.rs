//! # gridsim-net — deterministic discrete-event network simulator
//!
//! The substrate underneath the NetIbis (HPDC 2004) reproduction: a
//! packet-level simulated internet with
//!
//! * a deterministic cooperative [`runtime`] where simulated processes are
//!   OS threads scheduled one at a time in virtual time,
//! * point-to-point [`link`]s with bandwidth, propagation delay, random loss
//!   and drop-tail queues,
//! * gateways combining a stateful [`firewall`] (allow out, drop unsolicited
//!   in) and the full [`nat`] behaviour taxonomy (full cone → symmetric with
//!   sequential or random port allocation),
//! * [`topology`] builders for the paper's scenarios: WAN host pairs and
//!   multi-site grids joined by a public backbone.
//!
//! Transport protocols (TCP with simultaneous open, UDP) live in the
//! companion crate `gridsim-tcp` and plug in through
//! [`world::World::register_proto`].
//!
//! ## Example
//!
//! ```
//! use gridsim_net::{Sim, LinkParams, topology};
//! use std::time::Duration;
//!
//! let sim = Sim::new(42);
//! let (a, b) = sim.net().with(|w| {
//!     topology::wan_pair(w, LinkParams::mbps(1.6, Duration::from_millis(15)))
//! });
//! sim.spawn("hello", move || {
//!     gridsim_net::ctx::sleep(Duration::from_millis(5));
//! });
//! sim.run();
//! assert_eq!(sim.now().as_nanos(), 5_000_000);
//! # let _ = (a, b);
//! ```

pub mod addr;
pub mod fault;
pub mod firewall;
pub mod link;
pub mod nat;
pub mod packet;
pub mod runtime;
pub mod sync;
pub mod time;
pub mod topology;
pub mod world;

pub use addr::{Ip, SockAddr};
pub use fault::FaultPlan;
pub use firewall::{Firewall, FirewallPolicy};
pub use link::{LinkDirId, LinkParams, LinkStats};
pub use nat::{Nat, NatKind};
pub use packet::{proto, Packet, Payload, RawBytes};
pub use runtime::{ctx, JoinHandle, RunOutcome, SchedHandle, Scheduler, TaskId, Waker};
pub use sync::{SimMutex, SimMutexGuard, SimQueue};
pub use time::SimTime;
pub use world::{Net, NodeId, TraceKind, Trust, World, WorldStats};

use std::time::Duration;

/// Facade bundling a [`Scheduler`] and a [`Net`] (world handle): one
/// simulation run.
pub struct Sim {
    sched: Scheduler,
    net: Net,
}

impl Sim {
    /// Create a simulation with the given RNG seed (drives link loss, NAT
    /// port draws, and anything protocols pull from [`World::rng`]).
    ///
    /// [`World::rng`]: world::World::rng
    pub fn new(seed: u64) -> Sim {
        let sched = Scheduler::new();
        let net = Net::new(sched.handle(), seed);
        Sim { sched, net }
    }

    /// Handle to the world, cheap to clone into tasks.
    pub fn net(&self) -> Net {
        self.net.clone()
    }

    /// Spawn a simulated process.
    pub fn spawn<F, T>(&self, name: impl Into<String>, f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        self.sched.spawn(name, f)
    }

    /// Run until idle; panics on deadlock with per-task diagnostics.
    pub fn run(&self) -> RunOutcome {
        self.sched.run()
    }

    /// Run for at most `d` of simulated time.
    pub fn run_for(&self, d: Duration) -> RunOutcome {
        self.sched.run_for(d)
    }

    /// Run until the given absolute time.
    pub fn run_until(&self, t: SimTime) -> RunOutcome {
        self.sched.run_until(t)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// How many times this simulation's tasks have parked, by `ctx::park`
    /// reason, sorted by descending count.
    pub fn park_stats(&self) -> Vec<(&'static str, u64)> {
        self.sched.handle().park_stats()
    }

    /// The underlying scheduler.
    pub fn scheduler(&self) -> &Scheduler {
        &self.sched
    }
}
