//! The session layer's regression suites, one subcommand each; all but
//! `ack` write the `BENCH_<suite>.json` rows that `check_bench` gates
//! (`--out PATH` to write elsewhere, `--quick` for the CI-sized matrix).
//! None is a paper figure: they pin what the paper's runtime promises
//! under stress — recovery, sharing, storms, relay scaling, adaptation.
//!
//! * `faults` — flap the WAN path mid-transfer: stall, recovery time,
//!   exactly-once FIFO, and a hard resend cap through a 5 s outage.
//! * `mux [--pair]` — N same-spec channels between one node pair share ONE
//!   data link found by ONE walk, before and after a flap. `--pair` runs
//!   the small 2-channel transfer behind the `mux_pair` golden trace.
//! * `storm` — N clients behind one NAT batch-connect to N receivers
//!   behind one firewall at the same instant: one walk per pair.
//! * `relaymesh` — routed pairs over 1, 2 and 4 meshed relays (DESIGN.md
//!   §10), a one-hot skew round and a relay kill mid-transfer.
//! * `adaptive` — a capacity ramp under three static stacks and under the
//!   live path controller (DESIGN.md §11).
//! * `ack` — cumulative-ACK cadence against resend-buffer memory.

use gridsim_net::{FaultPlan, Sim, SimTime};
use gridsim_tcp::{SimHost, TcpConfig};
use netgrid::{ConnectivityProfile, GridEnv, GridNode, ReadMessage};
use netgrid_bench::*;
use std::collections::HashMap;
use std::time::Duration;

mod ack;
mod adaptive;
mod faults;
mod mux;
mod relaymesh;
mod storm;

/// The fault suites' two-site world: a lossless 1.6 MB/s, 30 ms path
/// between hosts with `window`-byte socket buffers whose TCP gives up on a
/// dead path after `strikes` timeouts of at most `max_rto` — so a short
/// outage recovers by retransmission and a long one goes through abort,
/// re-establishment and replay. With `flap`, every link of the path is
/// down from `flap.0` for `flap.1`.
fn flap_world(
    sim: &Sim,
    window: u32,
    (max_rto, strikes): (Duration, u32),
    flap: Option<(Duration, Duration)>,
) -> (GridEnv, SimHost, SimHost) {
    let wan = amsterdam_rennes().lossless();
    let (env, ha, hb) = measurement_world(sim, &wan, window);
    let cfg = TcpConfig {
        send_buf: window,
        recv_buf: window,
        initial_rto: Duration::from_millis(200),
        min_rto: Duration::from_millis(200),
        max_rto,
        max_rto_strikes: strikes,
        ..TcpConfig::default()
    };
    ha.set_tcp_config(cfg);
    hb.set_tcp_config(cfg);
    if let Some((at, down)) = flap {
        sim.net().with(|w| {
            let plan = w
                .path_links(ha.node(), hb.node())
                .iter()
                .fold(FaultPlan::new(), |p, &l| p.flap(at, l, down));
            w.install_faults(plan);
        });
    }
    (env, ha, hb)
}

/// Join the grid from an open, publicly addressed host.
fn join_open(env: &GridEnv, host: SimHost, name: &str) -> GridNode {
    GridNode::join(env, host, name, ConnectivityProfile::open()).unwrap()
}

/// Receiver-side exactly-once FIFO check for messages that start with a
/// `(channel tag, sequence number)` pair.
#[derive(Default)]
struct TaggedFifo(HashMap<u64, u64>);

impl TaggedFifo {
    fn check(&mut self, m: &mut ReadMessage, suite: &str) {
        let tag = m.read_u64().unwrap();
        let seq = m.read_u64().unwrap();
        let want = self.0.entry(tag).or_insert(0);
        assert_eq!(seq, *want, "{suite} FIFO violated on channel {tag}");
        *want += 1;
    }
}

/// From delivery timestamps: the first-to-last span, and how long after
/// `restore` (when the path came back) the next delivery arrived, in ms.
/// A run that delivered nothing reports zeros.
fn span_and_recovery_ms(times: &[SimTime], restore: Option<SimTime>) -> (f64, f64) {
    let (Some(first), Some(last)) = (times.first(), times.last()) else {
        return (0.0, 0.0);
    };
    let recovery = restore.map_or(0.0, |restore| {
        times
            .iter()
            .find(|t| **t >= restore)
            .map_or(f64::NAN, |t| t.since(restore).as_secs_f64() * 1e3)
    });
    (last.since(*first).as_secs_f64() * 1e3, recovery)
}

fn main() {
    Cli::from_env().dispatch(
        "bench_suite",
        &[
            ("faults", faults::run),
            ("mux", mux::run),
            ("storm", storm::run),
            ("relaymesh", relaymesh::run),
            ("adaptive", adaptive::run),
            ("ack", ack::run),
        ],
    );
    trace::flush();
}
