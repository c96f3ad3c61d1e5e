//! Tier-1 smoke for the `gridsim-net` scheduler as the upper layers use it:
//! dozens of task threads passing one baton, each running the event loop
//! while it waits. Which thread drives must not show on the simulated
//! clock, on the wire, or in delivery order.

use gridsim_net::{topology, LinkParams, NatKind, Sim, SockAddr};
use gridsim_tcp::SimHost;
use netgrid::{
    spawn_name_service, spawn_relay, ConnectivityProfile, EstablishMethod, GridEnv, GridNode,
    NatClass, StackSpec,
};
use std::time::Duration;

const NS: u16 = 563;
const RELAY: u16 = 600;

/// Name service and relay on a public host, sites `a` and `b` as given.
fn world(sim: &Sim, specs: &[topology::SiteSpec]) -> (GridEnv, SimHost, SimHost) {
    let net = sim.net();
    let (srv, a, b) = net.with(|w| {
        let mut grid = topology::Grid::build(w, specs);
        let (srv, _) = grid.add_public_host(w, "services");
        (srv, grid.sites[0].hosts[0], grid.sites[1].hosts[0])
    });
    let hsrv = SimHost::new(&net, srv);
    let env = GridEnv::new(net.clone(), SockAddr::new(hsrv.ip(), NS))
        .with_relay(SockAddr::new(hsrv.ip(), RELAY));
    sim.spawn("services", move || {
        spawn_name_service(&hsrv, NS).unwrap();
        spawn_relay(&hsrv, RELAY).unwrap();
    });
    sim.run();
    (env, SimHost::new(&net, a), SimHost::new(&net, b))
}

/// Body of message `i`: distinct per message, compressible like grid data.
fn body(i: u64, len: usize) -> Vec<u8> {
    gridzip::synth::grid_payload(len, gridzip::synth::GRID_REDUNDANCY, i)
}

/// `n` numbered messages of `len` bytes from `a` to `b`; the receiver checks
/// that each arrives once, whole and in order.
fn transfer(
    sim: &Sim,
    (env, ha, hb): (GridEnv, SimHost, SimHost),
    (pa, pb): (ConnectivityProfile, ConnectivityProfile),
    spec: StackSpec,
    n: u64,
    len: usize,
) -> EstablishMethod {
    let env_b = env.clone();
    let receiver = sim.spawn("receiver", move || {
        let node = GridNode::join(&env_b, hb, "recv", pb).unwrap();
        let rp = node.create_receive_port("sink", spec).unwrap();
        for want in 0..n {
            let mut m = rp.receive().unwrap();
            assert_eq!(m.read_u64().unwrap(), want, "out of order or repeated");
            assert!(
                m.read_bytes(len).unwrap() == body(want, len),
                "message {want} torn"
            );
        }
    });
    let sender = sim.spawn("sender", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(200));
        let node = GridNode::join(&env, ha, "send", pa).unwrap();
        let mut sp = node.create_send_port();
        let method = sp.connect("sink").unwrap();
        for i in 0..n {
            let mut m = sp.message();
            m.write_u64(i);
            m.write_bytes(&body(i, len));
            m.finish().unwrap();
        }
        sp.close().unwrap();
        method
    });
    sim.run();
    assert!(receiver.is_finished(), "receiver did not get every message");
    let out = std::sync::Arc::new(parking_lot::Mutex::new(None));
    let o = out.clone();
    sim.spawn("collect", move || *o.lock() = Some(sender.join()));
    sim.run();
    let method = out.lock().take().expect("sender finished");
    method
}

#[test]
fn same_seed_gives_the_same_clock_and_packet_count() {
    fn run_once() -> (u64, u64, u64) {
        let sim = Sim::new(42);
        let wan = LinkParams::mbps(8.0, Duration::from_millis(12)).with_loss(0.002);
        let open = |name| topology::SiteSpec::open(name, 1, wan);
        let hosts = world(&sim, &[open("a"), open("b")]);
        let spec = StackSpec::plain()
            .with_streams(4)
            .with_compression(1)
            .with_security();
        let open = ConnectivityProfile::open;
        transfer(&sim, hosts, (open(), open()), spec, 24, 64 * 1024);
        let (delivered, forwarded) = sim.net().with(|w| (w.stats.delivered, w.stats.forwarded));
        (sim.now().as_nanos(), delivered, forwarded)
    }
    let first = run_once();
    assert!(first.1 > 500, "the transfer crossed the WAN: {first:?}");
    assert_eq!(run_once(), first, "same seed, different run");
}

#[test]
fn relay_routed_pair_delivers_exactly_once_fifo() {
    let sim = Sim::new(7);
    let wan = LinkParams::mbps(2.0, Duration::from_millis(10));
    let hosts = world(
        &sim,
        &[
            topology::SiteSpec::natted("broken", 1, NatKind::SymmetricRandom, wan),
            topology::SiteSpec::firewalled("walled", 1, wan),
        ],
    );
    let profiles = (
        ConnectivityProfile::natted(NatClass::SymmetricRandom),
        ConnectivityProfile::firewalled(),
    );
    let method = transfer(&sim, hosts, profiles, StackSpec::plain(), 64, 4096);
    assert_eq!(method, EstablishMethod::Routed);
}
