//! Tier-1 smoke for the `gridsim-net` scheduler as the upper layers use it:
//! dozens of task stacks passing one baton, each running the event loop
//! while it waits. Which stack drives must not show on the simulated
//! clock, on the wire, or in delivery order.

use gridsim_net::{
    topology, LinkParams, Metric, NatKind, RunOutcome, Sim, SockAddr, GRANTS, STACKS,
};
use gridsim_tcp::SimHost;
use netgrid::{
    spawn_name_service, spawn_proxy, spawn_relay, spawn_relay_mesh, ConnectivityProfile,
    EstablishMethod, GridEnv, GridNode, NatClass, PathParams, RelayConfig, SendPort, StackSpec,
};
use std::collections::BTreeMap;
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

/// What a phase cost in the calling task's world: every registry name
/// that moved, two snapshots subtracted.
fn spent_since(before: &BTreeMap<Metric, i64>) -> BTreeMap<Metric, i64> {
    let now = gridsim_net::ctx::handle().metrics();
    let moved = now
        .into_iter()
        .map(|(name, v)| (name, v - before.get(&name).unwrap_or(&0)));
    moved.filter(|&(_, d)| d != 0).collect()
}

/// `rounds` closed-loop round trips of `len` bytes between two nodes over
/// `hosts`, both ports on `spec`, after one warm-up: what they cost, read
/// on the pinger. With `reconfig`, the ping link is then reconfigured to
/// it, warmed up once more and measured again: a second phase.
fn round_trips(
    sim: &Sim,
    (env, ha, hb): (GridEnv, SimHost, SimHost),
    (pa, pb): (ConnectivityProfile, ConnectivityProfile),
    spec: StackSpec,
    rounds: u64,
    len: usize,
    reconfig: Option<PathParams>,
) -> (EstablishMethod, Vec<BTreeMap<Metric, i64>>) {
    let env_b = env.clone();
    let spec_b = spec.clone();
    sim.spawn("echo", move || {
        let node = GridNode::join(&env_b, hb, "echo", pb).unwrap();
        let rp = node.create_receive_port("ping", spec_b).unwrap();
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
        let rp = node.create_receive_port("pong", spec).unwrap();
        let mut sp = node.create_send_port();
        let method = sp.connect("ping").unwrap();
        let round_trip = |sp: &mut SendPort, i: u64| {
            sp.send(&body(i, len)).unwrap();
            assert!(rp.receive().unwrap().as_slice() == body(i, len));
        };
        let phase = |sp: &mut SendPort| {
            round_trip(sp, 0);
            let before = gridsim_net::ctx::handle().metrics();
            (1..=rounds).for_each(|i| round_trip(sp, i));
            spent_since(&before)
        };
        let mut phases = vec![phase(&mut sp)];
        if let Some(params) = reconfig {
            let changed = sp.reconfigure(params).unwrap();
            assert!(changed, "the reconfig changed nothing");
            phases.push(phase(&mut sp));
        }
        (method, phases)
    });
    sim.run_for(Duration::from_secs(600));
    let out = std::sync::Arc::new(parking_lot::Mutex::new(None));
    let o = out.clone();
    sim.spawn("collect", move || *o.lock() = Some(pinger.join()));
    sim.run_for(Duration::from_secs(1));
    let spent = out.lock().take().expect("pinger finished");
    spent
}

/// [`round_trips`] on plain stacks: the grants they cost.
fn ping_pong(
    sim: &Sim,
    hosts: (GridEnv, SimHost, SimHost),
    profiles: (ConnectivityProfile, ConnectivityProfile),
    rounds: u64,
    len: usize,
) -> (EstablishMethod, i64) {
    let plain = StackSpec::plain();
    let (method, phases) = round_trips(sim, hosts, profiles, plain, rounds, len, None);
    (method, phases[0][&GRANTS])
}

/// Where the receive pump runs (DESIGN.md §6a): over one plain stream it is
/// an inline task, polled by whoever delivered its bytes, so a message
/// costs one thread switch — to the task that receives it. With the pump
/// on a thread of its own each message took two: driver → pump → receiver.
#[test]
fn a_round_trip_over_a_direct_link_costs_two_grants() {
    const ROUNDS: u64 = 100;
    let sim = Sim::new(42);
    let hosts = open_pair(&sim);
    let open = ConnectivityProfile::open;
    let (method, spent) = ping_pong(&sim, hosts, (open(), open()), ROUNDS, 256);
    assert_eq!(method, EstablishMethod::ClientServer);
    assert_eq!(spent, 2 * ROUNDS as i64, "grants over {ROUNDS} round trips");
}

/// Two open sites on an 8 Mbit/s, 12 ms path: direct links.
fn open_pair(sim: &Sim) -> (GridEnv, SimHost, SimHost) {
    let wan = LinkParams::mbps(8.0, Duration::from_millis(12));
    let open = |name| topology::SiteSpec::open(name, 1, wan);
    world(sim, &[open("a"), open("b")])
}

/// A RECONFIG is awaited in the receive pump's poll (DESIGN.md §6a), so a
/// round trip after the block size changed costs what one before it did.
/// A pump that stayed on a thread for the rest of its life after a
/// RECONFIG cost three.
#[test]
fn a_round_trip_after_a_reconfig_costs_two_grants() {
    const ROUNDS: u64 = 100;
    let sim = Sim::new(42);
    let hosts = open_pair(&sim);
    let open = ConnectivityProfile::open;
    let smaller = PathParams {
        block_size: 16 * 1024,
        ..PathParams::default()
    };
    let (method, phases) = round_trips(
        &sim,
        hosts,
        (open(), open()),
        StackSpec::plain(),
        ROUNDS,
        256,
        Some(smaller),
    );
    assert_eq!(method, EstablishMethod::ClientServer);
    let grants: Vec<i64> = phases.iter().map(|p| p[&GRANTS]).collect();
    assert_eq!(
        grants,
        [2 * ROUNDS as i64; 2],
        "before and after the RECONFIG"
    );
}

/// Over GTLS the pump polls its stack like a plain one (DESIGN.md §6a): a
/// record read and its CPU charge each resume where they would block, so
/// the pump is inline and a warm round trip costs the direct link's two
/// grants (four while each read was a blocking section on a worker). The
/// parks are the ones a pump on a thread made, by name: per message one
/// receive, two CPU-charge sleeps and two socket reads; the rounds start no
/// thread.
#[test]
fn a_round_trip_over_a_gtls_link_costs_its_pinned_grants_and_parks() {
    const ROUNDS: u64 = 100;
    let sim = Sim::new(42);
    let hosts = open_pair(&sim);
    let open = ConnectivityProfile::open;
    let gtls = StackSpec::plain().with_security();
    let (method, phases) = round_trips(&sim, hosts, (open(), open()), gtls, ROUNDS, 256, None);
    assert_eq!(method, EstablishMethod::ClientServer);
    let spent = &phases[0];
    let parks: Vec<String> = (spent.iter())
        .filter(|(name, _)| name.0 == "task/parks")
        .map(|(name, v)| format!("{name} {v}"))
        .collect();
    assert_eq!(
        spent[&GRANTS],
        2 * ROUNDS as i64,
        "grants over {ROUNDS} round trips"
    );
    let expect = ["queue pop 200", "sleep 400", "tcp read 400"].map(|p| format!("task/parks/{p}"));
    assert_eq!(parks, expect, "parks over {ROUNDS} round trips");
    assert_eq!(
        spent.get(&STACKS),
        None,
        "stacks mapped over {ROUNDS} rounds"
    );
}

/// Over `wan_integrated`'s stack — four streams, each under GTLS, and
/// gridzip level 1 above them — every layer of a stream resumes where it
/// would block, reading and writing, so the pump and each stream's reader
/// and writer are inline tasks. A warm round trip costs the direct link's
/// two grants; with each stream's writer a task on a worker it cost four,
/// and eight with the pump's reads and the stream readers on workers too.
/// The parks are the ones the threads made, by name, and the rounds start
/// no thread.
#[test]
fn a_round_trip_over_a_compressed_striped_gtls_link_costs_its_pinned_grants_and_parks() {
    const ROUNDS: u64 = 100;
    let sim = Sim::new(42);
    let hosts = open_pair(&sim);
    let open = ConnectivityProfile::open;
    let wan = StackSpec::plain()
        .with_streams(4)
        .with_compression(1)
        .with_security();
    let (method, phases) = round_trips(&sim, hosts, (open(), open()), wan, ROUNDS, 256, None);
    assert_eq!(method, EstablishMethod::ClientServer);
    let spent = &phases[0];
    let parks: Vec<String> = (spent.iter())
        .filter(|(name, _)| name.0 == "task/parks")
        .map(|(name, v)| format!("{name} {v}"))
        .collect();
    assert_eq!(
        spent[&GRANTS],
        2 * ROUNDS as i64,
        "grants over {ROUNDS} round trips"
    );
    let expect = ["queue pop 600", "sleep 2800", "tcp read 800"].map(|p| format!("task/parks/{p}"));
    assert_eq!(parks, expect, "parks over {ROUNDS} round trips");
    assert_eq!(
        spent.get(&STACKS),
        None,
        "stacks mapped over {ROUNDS} rounds"
    );
}

/// Over four plain streams the same: each stream's writer is an inline
/// task, woken by the block pushed into its queue, so a warm round trip
/// costs the direct link's two grants (four with the writers on workers),
/// and the rounds start no thread.
#[test]
fn a_round_trip_over_a_plain_four_stream_link_costs_two_grants() {
    const ROUNDS: u64 = 100;
    let sim = Sim::new(42);
    let hosts = open_pair(&sim);
    let open = ConnectivityProfile::open;
    let four = StackSpec::plain().with_streams(4);
    let (method, phases) = round_trips(&sim, hosts, (open(), open()), four, ROUNDS, 256, None);
    assert_eq!(method, EstablishMethod::ClientServer);
    assert_eq!(
        phases[0][&GRANTS],
        2 * ROUNDS as i64,
        "grants over {ROUNDS} round trips"
    );
    assert_eq!(
        phases[0].get(&STACKS),
        None,
        "stacks mapped over {ROUNDS} rounds"
    );
}

/// The same through the relay: its per-connection reader and shard
/// writers, and each end's relay-client pump, are inline tasks too
/// (DESIGN.md §6a), polled by whoever delivered their bytes, so a routed
/// round trip costs the direct link's two switches. With those four on
/// threads of their own it cost eight, and ten with the receive pumps.
#[test]
fn a_round_trip_through_the_relay_costs_two_grants() {
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
    assert_eq!(spent, 2 * ROUNDS as i64, "grants over {ROUNDS} round trips");
}

/// `n` relays on public hosts, fully meshed (each lists every other as a
/// peer), and the name service on another, spawned from the root, beside
/// the sites `specs`: the name service's and the relays' addresses, and
/// each site's first host.
fn mesh_world(
    sim: &Sim,
    n: usize,
    specs: &[topology::SiteSpec],
) -> (SockAddr, Vec<SockAddr>, Vec<SimHost>) {
    let net = sim.net();
    let (srv, relays, firsts) = net.with(|w| {
        let mut grid = topology::Grid::build(w, specs);
        let (srv, _) = grid.add_public_host(w, "services");
        let relays: Vec<_> = (0..n)
            .map(|i| grid.add_public_host(w, &format!("relay{i}")).0)
            .collect();
        let firsts: Vec<_> = grid.sites.iter().map(|s| s.hosts[0]).collect();
        (srv, relays, firsts)
    });
    let host = |n| SimHost::new(&net, n);
    let hsrv = host(srv);
    spawn_name_service(&hsrv, NS).unwrap();
    let relays: Vec<SimHost> = relays.into_iter().map(host).collect();
    let addrs: Vec<SockAddr> = relays
        .iter()
        .map(|h| SockAddr::new(h.ip(), RELAY))
        .collect();
    for (i, h) in relays.iter().enumerate() {
        let cfg = RelayConfig {
            mesh_id: i as u64 + 1,
            peers: addrs.iter().copied().filter(|a| a.ip != h.ip()).collect(),
            ..RelayConfig::default()
        };
        spawn_relay_mesh(h, RELAY, cfg).unwrap();
    }
    let firsts = firsts.into_iter().map(host).collect();
    (SockAddr::new(hsrv.ip(), NS), addrs, firsts)
}

/// Three full-meshed relays with no client, for 5 s: each dials its two
/// peers and reads every mesh link, its own dials' and the accepted ones,
/// in async tasks polled by the root, so the mesh starts no thread and
/// takes no grant. With each dial a daemon and each accepted link served
/// in a blocking section it started 12 threads and took 25 grants.
#[test]
fn a_relay_mesh_starts_no_thread() {
    let sim = Sim::new(42);
    mesh_world(&sim, 3, &[]);
    sim.run_for(Duration::from_secs(5));
    let h = sim.scheduler().handle();
    assert_eq!(h.metric(STACKS), 0, "stacks mapped by the mesh");
    assert_eq!(h.metric(GRANTS), 0, "grants in the mesh's 5 s");
}

/// 64 × 64 KiB routed from a node homed at one relay of a two-relay mesh
/// to one homed at the other: every frame crosses the mesh link, read by
/// the one relay reader and written by a shard writer, and the relay
/// clients' pumps dispatch each frame, in async tasks, and so is the
/// routed link accepted and assembled. The two threads left are the
/// test's sender and receiver.
#[test]
fn a_routed_transfer_across_a_relay_mesh_starts_only_its_ends_threads() {
    const MESSAGES: u64 = 64;
    const LEN: usize = 64 * 1024;
    let sim = Sim::new(42);
    let wan = LinkParams::mbps(8.0, Duration::from_millis(10));
    let (ns, relays, hosts) = mesh_world(
        &sim,
        2,
        &[
            topology::SiteSpec::natted("senders", 1, NatKind::SymmetricRandom, wan),
            topology::SiteSpec::firewalled("receivers", 1, wan),
        ],
    );
    let (net, ha, hb) = (sim.net(), hosts[0].clone(), hosts[1].clone());
    let homed = |order: [SockAddr; 2]| GridEnv::new(net.clone(), ns).with_relays(&order);
    let (env_a, env_b) = (homed([relays[0], relays[1]]), homed([relays[1], relays[0]]));
    let receiver = sim.spawn("receiver", move || {
        let profile = ConnectivityProfile::firewalled();
        let node = GridNode::join(&env_b, hb, "recv", profile).unwrap();
        let rp = node
            .create_receive_port("across", StackSpec::plain())
            .unwrap();
        for want in 0..MESSAGES {
            let mut m = rp.receive().unwrap();
            assert_eq!(m.read_u64().unwrap(), want, "out of order or repeated");
            assert!(
                m.read_bytes(LEN).unwrap() == body(want, LEN),
                "message {want} torn"
            );
        }
    });
    sim.spawn("sender", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(200));
        let profile = ConnectivityProfile::natted(NatClass::SymmetricRandom);
        let node = GridNode::join(&env_a, ha, "send", profile).unwrap();
        let mut sp = node.create_send_port();
        assert_eq!(sp.connect("across").unwrap(), EstablishMethod::Routed);
        for i in 0..MESSAGES {
            let mut m = sp.message();
            m.write_u64(i);
            m.write_bytes(&body(i, LEN));
            m.finish().unwrap();
        }
        sp.close().unwrap();
    });
    sim.run();
    assert!(receiver.is_finished(), "receiver did not get every message");
    let h = sim.scheduler().handle();
    assert_eq!(h.metric(STACKS), 2, "stacks mapped");
    assert_eq!(h.metric(GRANTS), 129, "grants");
}

/// `rounds` connect → send → close rounds from `a` to a receive port on
/// `b` declaring `spec`, each a fresh send port, one message and a second's
/// pause, after one warm-up round: what they cost, read on the sender.
fn connect_rounds(
    sim: &Sim,
    (env, ha, hb): (GridEnv, SimHost, SimHost),
    (pa, pb): (ConnectivityProfile, ConnectivityProfile),
    method: EstablishMethod,
    spec: StackSpec,
    rounds: u64,
) -> BTreeMap<Metric, i64> {
    let env_b = env.clone();
    sim.spawn("receiver", move || {
        let node = GridNode::join(&env_b, hb, "recv", pb).unwrap();
        let rp = node.create_receive_port("sink", spec).unwrap();
        gridsim_net::ctx::handle().spawn_daemon("drain", move || {
            while let Ok(m) = rp.receive() {
                drop(m);
            }
        });
        // Stays joined for the rounds.
        gridsim_net::ctx::sleep(Duration::from_secs(3600));
    });
    let spent = sim.spawn("sender", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(200));
        let node = GridNode::join(&env, ha, "send", pa).unwrap();
        let round = |i: u64| {
            let mut sp = node.create_send_port();
            assert_eq!(sp.connect("sink").unwrap(), method);
            sp.send(&body(i, 256)).unwrap();
            sp.close().unwrap();
            gridsim_net::ctx::sleep(Duration::from_secs(1));
        };
        round(0);
        let before = gridsim_net::ctx::handle().metrics();
        (1..=rounds).for_each(round);
        spent_since(&before)
    });
    sim.run_for(Duration::from_secs(600));
    let out = std::sync::Arc::new(parking_lot::Mutex::new(None));
    let o = out.clone();
    sim.spawn("collect", move || *o.lock() = Some(spent.join()));
    sim.run_for(Duration::from_secs(1));
    let spent = out.lock().take().expect("sender finished");
    spent
}

/// A warmed-up routed connect → send → close, as `grid_mesh`'s churn makes
/// them: the name-service lookup, the brokering through the relay, the
/// OPEN, one message and the close. Every reader on the way — both name
/// service links' and the name server's, both relay pumps and the relay's
/// readers and shard writers — is an inline task, every frame dispatched
/// in its poll, and so is the routed link's acceptor, which assembles the
/// receiver there; what switches is the sender and the receiver's message
/// drain: two switches a round, where the acceptor on a worker took four.
#[test]
fn a_routed_connect_send_close_round_costs_its_pinned_grants() {
    const ROUNDS: u64 = 20;
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
    let spent = connect_rounds(
        &sim,
        hosts,
        profiles,
        EstablishMethod::Routed,
        StackSpec::plain(),
        ROUNDS,
    );
    assert_eq!(
        spent[&GRANTS],
        2 * ROUNDS as i64,
        "grants over {ROUNDS} rounds"
    );
}

/// A warmed-up client/server connect → send → close: the lookup, the dial,
/// the receive port's accept, one message and the close. The port's accept
/// loop is an async task, polled where the connection completes, which
/// parks once a round under `tcp accept`, and so is the accepted
/// connection's acceptor, which reads its preamble and assembles the
/// receiver in its poll. Two switches a round, the sender's and the
/// drain's; with the acceptor on a worker it took three, and four with the
/// accept loop on a thread of its own.
#[test]
fn a_client_server_connect_send_close_round_costs_its_pinned_grants() {
    const ROUNDS: u64 = 20;
    let sim = Sim::new(42);
    let open = ConnectivityProfile::open;
    let method = EstablishMethod::ClientServer;
    let spent = connect_rounds(
        &sim,
        open_pair(&sim),
        (open(), open()),
        method,
        StackSpec::plain(),
        ROUNDS,
    );
    let accepts = Metric("task/parks", None, "tcp accept");
    assert_eq!(
        spent[&GRANTS],
        2 * ROUNDS as i64,
        "grants over {ROUNDS} rounds"
    );
    assert_eq!(
        spent[&accepts], ROUNDS as i64,
        "accept parks over {ROUNDS} rounds"
    );
    assert_eq!(
        spent.get(&STACKS),
        None,
        "stacks mapped over {ROUNDS} rounds"
    );
}

/// The same over four streams, each under GTLS: each end runs the four
/// handshakes in the task that assembles its stack, polled in one loop over
/// the links that do not park, each stream's writer is an inline task, and
/// the receiver's acceptors and its assembly are too, so a round costs the
/// client/server connect's two switches — and no `join`. With the
/// acceptors on workers it cost 11, with the writers on workers 28, and 58
/// with a task per stream's handshake, joined in stream order.
#[test]
fn a_gtls_four_stream_connect_send_close_round_costs_its_pinned_grants() {
    const ROUNDS: u64 = 20;
    let sim = Sim::new(42);
    let open = ConnectivityProfile::open;
    let method = EstablishMethod::ClientServer;
    let spec = StackSpec::plain().with_streams(4).with_security();
    let spent = connect_rounds(
        &sim,
        open_pair(&sim),
        (open(), open()),
        method,
        spec,
        ROUNDS,
    );
    assert_eq!(
        spent[&GRANTS],
        2 * ROUNDS as i64,
        "grants over {ROUNDS} rounds"
    );
    let joins = Metric("task/parks", None, "join");
    assert_eq!(spent.get(&joins), None, "join parks over {ROUNDS} rounds");
    assert_eq!(
        spent.get(&STACKS),
        None,
        "stacks mapped over {ROUNDS} rounds"
    );
}

/// Through a SOCKS proxy: its two pumps are inline tasks, polled by whoever
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
/// close and all async tasks: after one warm-up round the rounds start no
/// OS thread.
#[test]
fn proxied_connects_after_a_warm_up_start_no_threads() {
    const ROUNDS: u64 = 50;
    let sim = Sim::new(42);
    let (hosts, profiles) = proxied_world(&sim);
    let spent = connect_rounds(
        &sim,
        hosts,
        profiles,
        EstablishMethod::Proxy,
        StackSpec::plain(),
        ROUNDS,
    );
    let started = spent.get(&STACKS).copied().unwrap_or(0);
    assert_eq!(started, 0, "stacks mapped over {ROUNDS} rounds");
}

/// Two firewalled sites on `grid_mesh`'s 2 MB/s, 8 ms uplinks: spliced
/// links, brokered over the relay.
fn firewalled_pair(sim: &Sim) -> (GridEnv, SimHost, SimHost) {
    let wan = LinkParams::mbps(16.0, Duration::from_millis(8));
    let walled = |name| topology::SiteSpec::firewalled(name, 1, wan);
    world(sim, &[walled("a"), walled("b")])
}

/// A warmed-up spliced connect → send → close, as `grid_mesh`'s churn
/// makes them between its firewalled sites: the lookup, the SPLICE_REQ and
/// SPLICE_GO, each answered by a service handler on the responder, the
/// simultaneous open, one message and the close. Each handler is an async
/// task awaiting its reply's send, and so is the initiator's relay pump, so
/// a round costs the client/server connect's two switches and starts no
/// thread; with the handlers on workers it cost six.
#[test]
fn a_spliced_connect_send_close_round_costs_its_pinned_grants() {
    const ROUNDS: u64 = 20;
    let sim = Sim::new(42);
    let walled = ConnectivityProfile::firewalled;
    let spent = connect_rounds(
        &sim,
        firewalled_pair(&sim),
        (walled(), walled()),
        EstablishMethod::Splicing,
        StackSpec::plain(),
        ROUNDS,
    );
    assert_eq!(
        spent[&GRANTS],
        2 * ROUNDS as i64,
        "grants over {ROUNDS} rounds"
    );
    assert_eq!(
        spent.get(&STACKS),
        None,
        "stacks mapped over {ROUNDS} rounds"
    );
}

/// The same through a SOCKS proxy: the proxy serves each client's
/// greeting, request and upstream dial in an async task (`socks-conn`), so
/// a round costs two switches, where the handshake on a worker cost six.
#[test]
fn a_proxied_connect_send_close_round_costs_its_pinned_grants() {
    const ROUNDS: u64 = 20;
    let sim = Sim::new(42);
    let (hosts, profiles) = proxied_world(&sim);
    let spent = connect_rounds(
        &sim,
        hosts,
        profiles,
        EstablishMethod::Proxy,
        StackSpec::plain(),
        ROUNDS,
    );
    assert_eq!(
        spent[&GRANTS],
        2 * ROUNDS as i64,
        "grants over {ROUNDS} rounds"
    );
}

/// A routed transfer's CACKs, one per 64 KiB delivered: the receiver's
/// `cack-send` and the sender's `svc-handler` are async tasks, each
/// awaiting its service round trip or its answer's send, so the CACKs add
/// no grant and start no thread to the same transfer without them. With
/// both on workers the 64 CACKs cost 1 268 grants and 121 threads.
#[test]
fn a_routed_transfers_cacks_take_no_grant_and_start_no_thread() {
    let run = |ack_bytes: usize| {
        let sim = Sim::new(42);
        let wan = LinkParams::mbps(8.0, Duration::from_millis(10));
        let (mut env, ha, hb) = world(
            &sim,
            &[
                topology::SiteSpec::natted("broken", 1, NatKind::SymmetricRandom, wan),
                topology::SiteSpec::firewalled("walled", 1, wan),
            ],
        );
        env.ack_bytes = ack_bytes;
        let profiles = (
            ConnectivityProfile::natted(NatClass::SymmetricRandom),
            ConnectivityProfile::firewalled(),
        );
        let method = transfer(
            &sim,
            (env, ha, hb),
            profiles,
            StackSpec::plain(),
            64,
            64 * 1024,
        );
        assert_eq!(method, EstablishMethod::Routed);
        let h = sim.scheduler().handle();
        let cacks = h.metric(Metric("task/parks", None, "relay svc rsp"));
        [cacks, h.metric(GRANTS), h.metric(STACKS)]
    };
    let [none, grants, threads] = run(usize::MAX);
    assert_eq!(none, 0, "CACKs with acks off");
    assert_eq!(
        run(64 * 1024),
        [64, grants, threads],
        "[CACKs, grants, stacks]"
    );
}

/// `n` numbered messages of 4 KiB from `a` to `b` over `spec`, the link
/// reconfigured to `params` halfway, once the receiver has taken the first
/// half: what the reconfiguration cost, read on the sender, whose thread
/// drives the run while it waits. The receiver
/// checks that each message arrives once, whole and in order.
fn reconfigured_midway(
    sim: &Sim,
    (env, ha, hb): (GridEnv, SimHost, SimHost),
    (pa, pb): (ConnectivityProfile, ConnectivityProfile),
    spec: StackSpec,
    params: PathParams,
) -> (EstablishMethod, BTreeMap<Metric, i64>) {
    const N: u64 = 40;
    const LEN: usize = 4096;
    let env_b = env.clone();
    let receiver = sim.spawn("receiver", move || {
        let node = GridNode::join(&env_b, hb, "recv", pb).unwrap();
        let rp = node.create_receive_port("sink", spec).unwrap();
        for want in 0..N {
            let mut m = rp.receive().unwrap();
            assert_eq!(m.read_u64().unwrap(), want, "out of order or repeated");
            assert!(m.read_bytes(LEN).unwrap() == body(want, LEN), "torn");
        }
    });
    let sender = sim.spawn("sender", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(200));
        let node = GridNode::join(&env, ha, "send", pa).unwrap();
        let mut sp = node.create_send_port();
        let method = sp.connect("sink").unwrap();
        let send = |sp: &mut SendPort, i: u64| {
            let mut m = sp.message();
            m.write_u64(i);
            m.write_bytes(&body(i, LEN));
            m.finish().unwrap();
        };
        (0..N / 2).for_each(|i| send(&mut sp, i));
        gridsim_net::ctx::sleep(Duration::from_secs(1));
        let before = gridsim_net::ctx::handle().metrics();
        assert!(
            sp.reconfigure(params).unwrap(),
            "the reconfig changed nothing"
        );
        let spent = spent_since(&before);
        (N / 2..N).for_each(|i| send(&mut sp, i));
        sp.close().unwrap();
        (method, spent)
    });
    sim.run_for(Duration::from_secs(600));
    assert!(receiver.is_finished(), "receiver did not get every message");
    let out = std::sync::Arc::new(parking_lot::Mutex::new(None));
    let o = out.clone();
    sim.spawn("collect", move || *o.lock() = Some(sender.join()));
    sim.run_for(Duration::from_secs(1));
    let spent = out.lock().take().expect("sender finished");
    spent
}

/// Does `spent` hold `want` and nothing else, each name as the registry
/// prints it?
fn named<const N: usize>(spent: &BTreeMap<Metric, i64>, want: [(&str, i64); N]) -> bool {
    spent
        .iter()
        .map(|(m, &n)| (m.to_string(), n))
        .eq(want.map(|(m, n)| (m.into(), n)))
}

/// A RECONFIG over a routed link: the receive pump quiesces, acks on the
/// stream and rebuilds its receiver in its poll, so the exchange costs
/// only parks and starts no thread: no grant, as the sender's thread is
/// the one left to drive. As a blocking section the pump took a worker
/// for it.
#[test]
fn a_reconfig_over_a_routed_link_is_acked_and_rebuilt_in_the_pumps_poll() {
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
    let smaller = PathParams {
        block_size: 16 * 1024,
        ..PathParams::default()
    };
    let (method, spent) = reconfigured_midway(&sim, hosts, profiles, StackSpec::plain(), smaller);
    assert_eq!(method, EstablishMethod::Routed);
    let parks = [("task/parks/queue pop", 4), ("task/parks/tcp read", 4)];
    assert!(
        named(&spent, parks),
        "no thread or grant, only parks: {spent:?}"
    );
}

/// The same over four streams under GTLS, down to two: the pump awaits
/// the retired stripes' queues, acks on stream 0 and runs the two new
/// handshakes in its poll.
#[test]
fn a_reconfig_over_a_gtls_four_stream_link_is_acked_and_rebuilt_in_the_pumps_poll() {
    let sim = Sim::new(42);
    let open = ConnectivityProfile::open;
    let spec = StackSpec::plain().with_streams(4).with_security();
    let two = PathParams {
        stripes: 2,
        ..PathParams::default()
    };
    let (method, spent) = reconfigured_midway(&sim, open_pair(&sim), (open(), open()), spec, two);
    assert_eq!(method, EstablishMethod::ClientServer);
    let parks = [
        ("task/parks/queue pop", 5),
        ("task/parks/sleep", 15),
        ("task/parks/tcp read", 20),
    ];
    assert!(
        named(&spent, parks),
        "no thread or grant, only parks: {spent:?}"
    );
}

/// A routed close waits for its stream's drain (a SYNC the peer answers in
/// a round trip) and leaves no wake behind: parked afterwards under a
/// reason of its own, the sender is woken once, by its own event three
/// seconds later. A SYNC-resend wake armed for one second after the SYNC
/// and left to fire woke it a second time.
#[test]
fn a_finished_drain_leaves_no_wake_behind() {
    let sim = Sim::new(42);
    let wan = LinkParams::mbps(2.0, Duration::from_millis(10));
    let (env, ha, hb) = world(
        &sim,
        &[
            topology::SiteSpec::natted("broken", 1, NatKind::SymmetricRandom, wan),
            topology::SiteSpec::firewalled("walled", 1, wan),
        ],
    );
    let env_b = env.clone();
    sim.spawn("receiver", move || {
        let node = GridNode::join(&env_b, hb, "recv", ConnectivityProfile::firewalled()).unwrap();
        let rp = node
            .create_receive_port("sink", StackSpec::plain())
            .unwrap();
        while let Ok(m) = rp.receive() {
            drop(m);
        }
    });
    let sender = sim.spawn("sender", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(200));
        let profile = ConnectivityProfile::natted(NatClass::SymmetricRandom);
        let node = GridNode::join(&env, ha, "send", profile).unwrap();
        let mut sp = node.create_send_port();
        assert_eq!(sp.connect("sink").unwrap(), EstablishMethod::Routed);
        sp.send(&body(0, 256)).unwrap();
        sp.close().unwrap();
        let (h, waker) = (gridsim_net::ctx::handle(), gridsim_net::ctx::waker());
        let until = h.now() + Duration::from_secs(3);
        h.call_at(until, move || waker.wake());
        while h.now() < until {
            gridsim_net::ctx::park("after close");
        }
        h.metric(Metric("task/parks", None, "after close"))
    });
    sim.run_for(Duration::from_secs(60));
    let out = std::sync::Arc::new(parking_lot::Mutex::new(None));
    let o = out.clone();
    sim.spawn("collect", move || *o.lock() = Some(sender.join()));
    sim.run_for(Duration::from_secs(1));
    let parks = out.lock().take().expect("sender finished");
    assert_eq!(parks, 1, "parks after the close");
}

/// An idle run ends at its last real event. Quickstart's exchange: two open
/// sites, three messages over a client/server link, then the close. Every
/// deadline met on the way, the accepted stream's 10 s preamble deadline
/// among them, is cancelled with the record it guards, so `run` returns
/// within one initial RTO (1 s) of the last delivery: at the last of
/// simtcp's own timer events, which ride their slots (DESIGN.md §5d). A met
/// deadline that still fired kept the run going for 10 s after the accept.
#[test]
fn an_idle_run_ends_at_its_last_real_event() {
    let sim = Sim::new(42);
    let wan = LinkParams::mbps(2.0, Duration::from_millis(10));
    let open = |name| topology::SiteSpec::open(name, 1, wan);
    let (env, ha, hb) = world(&sim, &[open("site-a"), open("site-b")]);
    let (env_b, last) = (
        env.clone(),
        std::sync::Arc::new(parking_lot::Mutex::new(None)),
    );
    let delivered = last.clone();
    sim.spawn("bob", move || {
        let node = GridNode::join(&env_b, hb, "bob", ConnectivityProfile::open()).unwrap();
        let rp = node
            .create_receive_port("inbox", StackSpec::plain())
            .unwrap();
        for i in 1..=3 {
            assert_eq!(rp.receive().unwrap().as_slice(), body(i, 64));
        }
        *delivered.lock() = Some(gridsim_net::ctx::now());
    });
    sim.spawn("alice", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(100));
        let node = GridNode::join(&env, ha, "alice", ConnectivityProfile::open()).unwrap();
        let mut sp = node.create_send_port();
        assert_eq!(sp.connect("inbox").unwrap(), EstablishMethod::ClientServer);
        for i in 1..=3 {
            sp.send(&body(i, 64)).unwrap();
        }
        sp.close().unwrap();
    });
    assert_eq!(sim.run(), RunOutcome::Idle);
    let last = last.lock().take().expect("bob received all three");
    let tail = sim.now() - last;
    assert!(
        tail < Duration::from_secs(1),
        "the run ended {tail:?} after the last delivery"
    );
}
