//! What a routed frame costs in scheduler trips (DESIGN.md §5c, §10): the
//! relay's reader, its shard worker and both clients state whole-frame
//! demands and write whole frames, so a frame parks them a handful of
//! times, not once per segment and ACK. All four are inline tasks (§6a),
//! whose `Blocked` counts as the park their thread forms made: these
//! counts did not move when they stopped being threads, only
//! `sched/grants` did.

use gridsim_net::{topology, LinkParams, Metric, NatKind, Sim, SockAddr};
use gridsim_tcp::SimHost;
use netgrid::relay::ROUTED_CHUNK;
use netgrid::{
    spawn_name_service, spawn_relay, ConnectivityProfile, EstablishMethod, GridEnv, GridNode,
    NatClass, StackSpec,
};
use std::collections::BTreeMap;
use std::time::Duration;

const MESSAGES: usize = 32;
const MESSAGE: usize = 32 * 1024;

/// Byte `i` of message `m`: no two messages, and no two 251-byte stretches
/// of one, look alike.
fn pattern(m: usize, i: usize) -> u8 {
    (m * 31 + i % 251) as u8
}

/// `task/parks/<reason>` in a snapshot of the world's metrics registry.
fn parks(snapshot: &BTreeMap<Metric, i64>, reason: &'static str) -> i64 {
    let name = Metric("task/parks", None, reason);
    snapshot.get(&name).copied().unwrap_or(0)
}

#[test]
fn a_routed_frame_parks_its_tasks_a_handful_of_times() {
    let sim = Sim::new(42);
    let net = sim.net();
    // The E7 sites' uplinks; a symmetric NAT facing a firewall leaves only
    // the relay.
    let wan = LinkParams::mbps(2.0, Duration::from_millis(8));
    let (srv, a, b) = net.with(|w| {
        let specs = [
            topology::SiteSpec::natted("a", 1, NatKind::SymmetricRandom, wan),
            topology::SiteSpec::firewalled("b", 1, wan),
        ];
        let mut grid = topology::Grid::build(w, &specs);
        let (srv, _) = grid.add_public_host(w, "services");
        (srv, grid.sites[0].hosts[0], grid.sites[1].hosts[0])
    });
    let (hsrv, ha, hb) = (
        SimHost::new(&net, srv),
        SimHost::new(&net, a),
        SimHost::new(&net, b),
    );
    let (ns, relay) = (SockAddr::new(hsrv.ip(), 563), SockAddr::new(hsrv.ip(), 600));
    sim.spawn("services", move || {
        spawn_name_service(&hsrv, 563).unwrap();
        spawn_relay(&hsrv, 600).unwrap();
    });
    sim.run();
    let env = GridEnv::new(net, ns).with_relay(relay);

    let env_b = env.clone();
    let receiver = sim.spawn("recv", move || {
        let profile = ConnectivityProfile::firewalled();
        let node = GridNode::join(&env_b, hb, "recv", profile).unwrap();
        let rp = node
            .create_receive_port("bulk", StackSpec::plain())
            .unwrap();
        for m in 0..MESSAGES {
            let mut msg = rp.receive().unwrap();
            let got = msg.read_bytes(MESSAGE).unwrap();
            let exact = got.iter().enumerate().all(|(i, &b)| b == pattern(m, i));
            assert!(exact, "message {m} arrived damaged");
        }
    });
    // Counted from the established link on: what the frames cost, not the
    // name-service and brokering exchanges before them.
    let (at_start, start) = std::sync::mpsc::channel();
    sim.spawn("send", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(200));
        let profile = ConnectivityProfile::natted(NatClass::SymmetricRandom);
        let node = GridNode::join(&env, ha, "send", profile).unwrap();
        let mut sp = node.create_send_port();
        assert_eq!(sp.connect("bulk").unwrap(), EstablishMethod::Routed);
        at_start.send(gridsim_net::ctx::handle().metrics()).unwrap();
        for m in 0..MESSAGES {
            let payload: Vec<u8> = (0..MESSAGE).map(|i| pattern(m, i)).collect();
            sp.send(&payload).unwrap();
        }
        sp.close().unwrap();
    });
    sim.run();
    assert!(receiver.is_finished(), "receiver did not get every message");

    // The phase's deltas: two snapshots subtracted.
    let (before, after) = (start.recv().unwrap(), sim.scheduler().handle().metrics());
    let frames = (MESSAGES * MESSAGE / ROUTED_CHUNK) as f64;
    let per_frame = |reason| (parks(&after, reason) - parks(&before, reason)) as f64 / frames;
    let (reads, writes) = (per_frame("tcp read"), per_frame("tcp write"));
    // Two readers and two writers handle each frame (sender, relay in and
    // out, receiver): 2.06 and 1.27 parks, the same on every run. Reading
    // and writing a segment at a time they took 11.3 and 10.5.
    assert!(
        reads <= 2.5,
        "{reads:.2} `tcp read` parks per {ROUTED_CHUNK}-byte frame"
    );
    assert!(
        writes <= 1.5,
        "{writes:.2} `tcp write` parks per {ROUTED_CHUNK}-byte frame"
    );
}
