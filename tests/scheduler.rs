//! Tier-1 smoke for the `gridsim-net` scheduler as the upper layers use it:
//! dozens of task threads passing one baton, each running the event loop
//! while it waits. Which thread drives must not show on the simulated
//! clock, on the wire, or in delivery order.

use gridsim_net::{topology, LinkParams, NatKind, Sim, SockAddr, GRANTS, THREADS};
use gridsim_tcp::SimHost;
use netgrid::{
    spawn_name_service, spawn_proxy, spawn_relay, ConnectivityProfile, EstablishMethod, GridEnv,
    GridNode, NatClass, StackSpec,
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

/// A SOCKS proxy on the gateway of site `site`, listening on its public
/// address, which is returned.
fn proxy_on_gateway(sim: &Sim, site: &str) -> SockAddr {
    let net = sim.net();
    let (gw, public) = net.with(|w| {
        let gw = w
            .find_node(&format!("{site}-gw"))
            .expect("the site's gateway");
        (gw, w.node(gw).addrs[1])
    });
    let gw = SimHost::new(&net, gw);
    sim.spawn("proxy", move || spawn_proxy(&gw, 1080).unwrap());
    sim.run();
    SockAddr::new(public, 1080)
}

/// An open site `a` and a site `b` behind a random symmetric NAT whose
/// gateway runs a SOCKS proxy, with their profiles: `a` reaches `b`
/// through the proxy, `b` reaches `a` directly.
fn proxied_world(
    sim: &Sim,
) -> (
    (GridEnv, SimHost, SimHost),
    (ConnectivityProfile, ConnectivityProfile),
) {
    let wan = LinkParams::mbps(8.0, Duration::from_millis(12));
    let hosts = world(
        sim,
        &[
            topology::SiteSpec::open("a", 1, wan),
            topology::SiteSpec::natted("b", 1, NatKind::SymmetricRandom, wan),
        ],
    );
    let proxy = proxy_on_gateway(sim, "b");
    let profile_b = ConnectivityProfile::natted(NatClass::SymmetricRandom).with_proxy(proxy);
    (hosts, (ConnectivityProfile::open(), profile_b))
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

/// Cross-thread baton grants so far in the calling task's world.
fn grants() -> i64 {
    gridsim_net::ctx::handle().metric(GRANTS)
}

/// `rounds` closed-loop round trips of `len` bytes between two nodes over
/// `hosts`, after one warm-up: the grants they cost, read on the pinger.
fn ping_pong(
    sim: &Sim,
    (env, ha, hb): (GridEnv, SimHost, SimHost),
    (pa, pb): (ConnectivityProfile, ConnectivityProfile),
    rounds: u64,
    len: usize,
) -> (EstablishMethod, i64) {
    let env_b = env.clone();
    sim.spawn("echo", move || {
        let node = GridNode::join(&env_b, hb, "echo", pb).unwrap();
        let rp = node
            .create_receive_port("ping", StackSpec::plain())
            .unwrap();
        gridsim_net::ctx::sleep(Duration::from_millis(400));
        let mut sp = node.create_send_port();
        sp.connect("pong").unwrap();
        while let Ok(m) = rp.receive() {
            sp.send(m.as_slice()).unwrap();
        }
    });
    let pinger = sim.spawn("ping", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(200));
        let node = GridNode::join(&env, ha, "ping", pa).unwrap();
        let rp = node
            .create_receive_port("pong", StackSpec::plain())
            .unwrap();
        let mut sp = node.create_send_port();
        let method = sp.connect("ping").unwrap();
        let mut round_trip = |i: u64| {
            sp.send(&body(i, len)).unwrap();
            assert!(rp.receive().unwrap().as_slice() == body(i, len));
        };
        round_trip(0);
        let before = grants();
        (1..=rounds).for_each(&mut round_trip);
        (method, grants() - before)
    });
    sim.run_for(Duration::from_secs(600));
    let out = std::sync::Arc::new(parking_lot::Mutex::new(None));
    let o = out.clone();
    sim.spawn("collect", move || *o.lock() = Some(pinger.join()));
    sim.run_for(Duration::from_secs(1));
    let spent = out.lock().take().expect("pinger finished");
    spent
}

/// Where the receive pump runs (DESIGN.md §6a): over one plain stream it is
/// an inline task, stepped by whoever delivered its bytes, so a message
/// costs one thread switch — to the task that receives it. With the pump
/// on a thread of its own each message took two: driver → pump → receiver.
#[test]
fn a_round_trip_over_a_direct_link_costs_two_grants() {
    const ROUNDS: u64 = 100;
    let sim = Sim::new(42);
    let wan = LinkParams::mbps(8.0, Duration::from_millis(12));
    let open = |name| topology::SiteSpec::open(name, 1, wan);
    let hosts = world(&sim, &[open("a"), open("b")]);
    let open = ConnectivityProfile::open;
    let (method, spent) = ping_pong(&sim, hosts, (open(), open()), ROUNDS, 256);
    assert_eq!(method, EstablishMethod::ClientServer);
    assert_eq!(spent, 2 * ROUNDS as i64, "grants over {ROUNDS} round trips");
}

/// The same through the relay: its reader and shard worker and each end's
/// relay client still take their turns, eight switches a round trip; the
/// pumps, polling their routed streams, no longer do (ten with them).
#[test]
fn a_round_trip_through_the_relay_costs_its_pinned_grants() {
    const ROUNDS: u64 = 100;
    let sim = Sim::new(42);
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
    let (method, spent) = ping_pong(&sim, hosts, profiles, ROUNDS, 256);
    assert_eq!(method, EstablishMethod::Routed);
    assert_eq!(spent, 8 * ROUNDS as i64, "grants over {ROUNDS} round trips");
}

/// Through a SOCKS proxy: its two pumps are inline tasks, stepped by whoever
/// delivered their bytes, so they cost no switch. What is left is the
/// direct link's two; with the pumps on threads of their own it was three.
#[test]
fn a_round_trip_over_a_proxied_link_costs_two_grants() {
    const ROUNDS: u64 = 100;
    let sim = Sim::new(42);
    let (hosts, profiles) = proxied_world(&sim);
    let (method, spent) = ping_pong(&sim, hosts, profiles, ROUNDS, 256);
    assert_eq!(method, EstablishMethod::Proxy);
    assert_eq!(spent, 2 * ROUNDS as i64, "grants over {ROUNDS} round trips");
}

/// A proxied connect → send → close starts tasks on both nodes and on the
/// proxy (the handshake, the receive side's handlers), all finished by the
/// close: after one warm-up round every one of them runs on a worker an
/// earlier round left idle, so the rounds start no OS thread.
#[test]
fn proxied_connects_after_a_warm_up_start_no_threads() {
    const ROUNDS: u64 = 50;
    let sim = Sim::new(42);
    let ((env, ha, hb), (pa, pb)) = proxied_world(&sim);
    let env_b = env.clone();
    sim.spawn("receiver", move || {
        let node = GridNode::join(&env_b, hb, "recv", pb).unwrap();
        let rp = node
            .create_receive_port("sink", StackSpec::plain())
            .unwrap();
        gridsim_net::ctx::handle().spawn_daemon("drain", move || {
            while let Ok(m) = rp.receive() {
                drop(m);
            }
        });
        // Stays joined for the rounds.
        gridsim_net::ctx::sleep(Duration::from_secs(3600));
    });
    let threads = || gridsim_net::ctx::handle().metric(THREADS);
    let started = sim.spawn("sender", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(200));
        let node = GridNode::join(&env, ha, "send", pa).unwrap();
        let round = |i: u64| {
            let mut sp = node.create_send_port();
            assert_eq!(sp.connect("sink").unwrap(), EstablishMethod::Proxy);
            sp.send(&body(i, 256)).unwrap();
            sp.close().unwrap();
            gridsim_net::ctx::sleep(Duration::from_secs(1));
        };
        round(0);
        let before = threads();
        (1..=ROUNDS).for_each(round);
        threads() - before
    });
    sim.run_for(Duration::from_secs(600));
    let out = std::sync::Arc::new(parking_lot::Mutex::new(None));
    let o = out.clone();
    sim.spawn("collect", move || *o.lock() = Some(started.join()));
    sim.run_for(Duration::from_secs(1));
    let started = out.lock().take().expect("sender finished");
    assert_eq!(started, 0, "threads started over {ROUNDS} rounds");
}
