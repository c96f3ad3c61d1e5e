//! Relay-mesh end-to-end tests (DESIGN.md §10): a client homed at relay A
//! reaching a peer homed at relay B through relay-to-relay forwarding,
//! route-around after a mid-transfer relay kill, and the sharded
//! forwarding plane's typed backpressure isolating a slow receiver.

use gridsim_net::{topology, FaultPlan, LinkParams, NatKind, Sim, SockAddr};
use gridsim_tcp::{crash_node, SimHost, TcpConfig};
use netgrid::{
    spawn_name_service, spawn_relay_mesh, ConnectivityProfile, EstablishMethod, GridNode,
    RelayConfig, StackSpec,
};
use std::sync::Arc;
use std::time::Duration;

const NS_PORT: u16 = 563;
const RELAY_PORT: u16 = 600;

/// Base RNG seed shifted by `NETGRID_TEST_SEED` (when set) so CI can sweep
/// this whole file across fixed seeds, as it does for faults and storm.
fn seed(base: u64) -> u64 {
    let shift: u64 = std::env::var("NETGRID_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let s = base.wrapping_add(shift.wrapping_mul(1000));
    eprintln!("effective sim seed: {s} (base {base}, NETGRID_TEST_SEED shift {shift})");
    s
}

fn fast_abort() -> TcpConfig {
    TcpConfig {
        initial_rto: Duration::from_millis(200),
        min_rto: Duration::from_millis(200),
        max_rto: Duration::from_millis(400),
        max_rto_strikes: 2,
        ..TcpConfig::default()
    }
}

fn wan() -> LinkParams {
    LinkParams::mbps(4.0, Duration::from_millis(10))
}

/// NAT + firewall profiles that force the Routed method, so every byte
/// rides the relay mesh under test.
fn routed_profiles() -> (ConnectivityProfile, ConnectivityProfile) {
    (
        ConnectivityProfile::natted(netgrid::NatClass::SymmetricRandom),
        ConnectivityProfile::firewalled(),
    )
}

/// A world with `n_relays` meshed relays on their own public hosts (full
/// mesh: each lists every other as a peer), the name service on a separate
/// public host, one sender site (symmetric NAT) and one receiver site
/// (stateful firewall) with `hosts_per_site` hosts each. All public hosts
/// get the fast-abort TCP config so mesh-link death is detected in about a
/// second, matching the endpoints. `queue_frames` overrides the relays'
/// default shard-queue depth.
#[allow(clippy::type_complexity)]
fn mesh_world(
    sim: &Sim,
    n_relays: usize,
    hosts_per_site: usize,
    queue_frames: Option<usize>,
) -> (
    gridsim_net::Net,
    SockAddr,
    Vec<SockAddr>,
    Vec<gridsim_net::NodeId>,
    Vec<SimHost>,
    Vec<SimHost>,
) {
    mesh_world_cfg(
        sim,
        n_relays,
        hosts_per_site,
        queue_frames,
        Some(fast_abort()),
    )
}

/// [`mesh_world`] with an explicit relay-host TCP config. `None` keeps the
/// default (patient) config, so a mesh-path flap delays peer traffic by
/// retransmission instead of killing the peer links — the regime where a
/// ROUTE_QUERY can time out and its reply straggle in late.
#[allow(clippy::type_complexity)]
fn mesh_world_cfg(
    sim: &Sim,
    n_relays: usize,
    hosts_per_site: usize,
    queue_frames: Option<usize>,
    relay_tcp: Option<TcpConfig>,
) -> (
    gridsim_net::Net,
    SockAddr,
    Vec<SockAddr>,
    Vec<gridsim_net::NodeId>,
    Vec<SimHost>,
    Vec<SimHost>,
) {
    let net = sim.net();
    let (srv, relay_nodes, senders, receivers) = net.with(|w| {
        let mut grid = topology::Grid::build(
            w,
            &[
                topology::SiteSpec::natted(
                    "senders",
                    hosts_per_site,
                    NatKind::SymmetricRandom,
                    wan(),
                ),
                topology::SiteSpec::firewalled("receivers", hosts_per_site, wan()),
            ],
        );
        let (srv, _) = grid.add_public_host(w, "services");
        let relay_nodes: Vec<_> = (0..n_relays)
            .map(|i| grid.add_public_host(w, &format!("relay{i}")).0)
            .collect();
        (
            srv,
            relay_nodes,
            grid.sites[0].hosts.clone(),
            grid.sites[1].hosts.clone(),
        )
    });
    let hsrv = SimHost::new(&net, srv);
    let relay_hosts: Vec<SimHost> = relay_nodes.iter().map(|&n| SimHost::new(&net, n)).collect();
    let relay_addrs: Vec<SockAddr> = relay_hosts
        .iter()
        .map(|h| SockAddr::new(h.ip(), RELAY_PORT))
        .collect();
    if let Some(cfg) = relay_tcp {
        for h in &relay_hosts {
            h.set_tcp_config(cfg);
        }
    }
    let ns_addr = SockAddr::new(hsrv.ip(), NS_PORT);
    let hsrv2 = hsrv.clone();
    let spawn_hosts = relay_hosts.clone();
    let spawn_addrs = relay_addrs.clone();
    sim.spawn("services", move || {
        spawn_name_service(&hsrv2, NS_PORT).unwrap();
        for (i, h) in spawn_hosts.iter().enumerate() {
            let peers: Vec<SockAddr> = spawn_addrs
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &a)| a)
                .collect();
            let mut cfg = RelayConfig {
                mesh_id: i as u64 + 1,
                peers,
                ..RelayConfig::default()
            };
            cfg.queue_frames = queue_frames.unwrap_or(cfg.queue_frames);
            spawn_relay_mesh(h, RELAY_PORT, cfg).unwrap();
        }
    });
    sim.run();
    let hsend: Vec<SimHost> = senders.iter().map(|&n| SimHost::new(&net, n)).collect();
    let hrecv: Vec<SimHost> = receivers.iter().map(|&n| SimHost::new(&net, n)).collect();
    for h in hsend.iter().chain(hrecv.iter()) {
        h.set_tcp_config(fast_abort());
    }
    (net, ns_addr, relay_addrs, relay_nodes, hsend, hrecv)
}

/// An env homed at `relays[home]`, keeping the rest as ordered fallbacks.
/// Different nodes homing at different relays is exactly what meshing
/// adds: unmeshed relays need every node to share one order.
fn env_homed(
    net: &gridsim_net::Net,
    ns_addr: SockAddr,
    relays: &[SockAddr],
    home: usize,
) -> netgrid::GridEnv {
    let order: Vec<SockAddr> = relays[home..]
        .iter()
        .chain(relays[..home].iter())
        .copied()
        .collect();
    netgrid::GridEnv::new(net.clone(), ns_addr).with_relays(&order)
}

/// Sequenced a→b transfer where the two ends are homed at different
/// relays. One assert covers no-loss, no-duplicate, no-reorder.
fn cross_relay_roundtrip(
    sim: &Sim,
    env_a: netgrid::GridEnv,
    env_b: netgrid::GridEnv,
    ha: SimHost,
    hb: SimHost,
    port_name: &'static str,
    msgs: u64,
) {
    let (pa, pb) = routed_profiles();
    let recv = sim.spawn("receiver", move || {
        let node = GridNode::join(&env_b, hb, &format!("{port_name}-recv"), pb).unwrap();
        let rp = node
            .create_receive_port(port_name, StackSpec::plain())
            .unwrap();
        for i in 0..msgs {
            let mut m = rp.receive().unwrap();
            assert_eq!(m.read_u64().unwrap(), i, "exactly-once FIFO violated");
            let payload = m.read_bytes(64).unwrap();
            assert!(payload.iter().all(|&b| b == 0x5a));
        }
    });
    let send = sim.spawn("sender", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(200));
        let node = GridNode::join(&env_a, ha, &format!("{port_name}-send"), pa).unwrap();
        let mut sp = node.create_send_port();
        let method = sp.connect(port_name).unwrap();
        assert_eq!(
            method,
            EstablishMethod::Routed,
            "profiles must force Routed"
        );
        for i in 0..msgs {
            let mut m = sp.message();
            m.write_u64(i);
            m.write_bytes(&[0x5au8; 64]);
            m.finish().unwrap();
            gridsim_net::ctx::sleep(Duration::from_millis(40));
        }
        sp.close().unwrap();
    });
    sim.run();
    assert!(
        recv.is_finished(),
        "receiver wedged (cross-relay mesh path)"
    );
    assert!(send.is_finished(), "sender wedged (cross-relay mesh path)");
}

/// A client registered at relay 1 reaches a peer registered at relay 2:
/// the SENDs hop relay-to-relay over the mesh (push-propagated routing
/// table), with strict FIFO end to end.
#[test]
fn mesh_cross_relay_roundtrip() {
    let sim = Sim::new(seed(61));
    let (net, ns_addr, relays, _nodes, hsend, hrecv) = mesh_world(&sim, 2, 1, None);
    let env_a = env_homed(&net, ns_addr, &relays, 0);
    let env_b = env_homed(&net, ns_addr, &relays, 1);
    cross_relay_roundtrip(
        &sim,
        env_a,
        env_b,
        hsend[0].clone(),
        hrecv[0].clone(),
        "mesh-pair",
        30,
    );
}

/// Kill the RECEIVER's home relay mid-transfer. The receiver fails over to
/// the surviving relay; the sender — whose own relay connection never
/// drops — must route around through the mesh (stale route invalidated,
/// streams re-opened by session recovery) and deliver exactly-once FIFO
/// without tearing its channel down.
#[test]
fn mesh_relay_kill_routes_around() {
    let sim = Sim::new(seed(62));
    let (net, ns_addr, relays, relay_nodes, hsend, hrecv) = mesh_world(&sim, 2, 1, None);
    let env_a = env_homed(&net, ns_addr, &relays, 0);
    let env_b = env_homed(&net, ns_addr, &relays, 1);
    let victim = relay_nodes[1];
    net.with(|w| {
        w.schedule_after(Duration::from_millis(1500), move |w| crash_node(w, victim));
    });
    cross_relay_roundtrip(
        &sim,
        env_a,
        env_b,
        hsend[0].clone(),
        hrecv[0].clone(),
        "mesh-kill",
        50,
    );
}

/// One sender, two receivers, ONE sharded relay with a small shard queue:
/// a receiver that drains slowly must throttle only the traffic towards it
/// (typed BUSY/READY), while the same sender's transfer to a fast receiver
/// completes unimpeded — the head-of-line isolation the sharding buys.
#[test]
fn mesh_slow_receiver_does_not_block_fast_pair() {
    let sim = Sim::new(seed(63));
    let (net, ns_addr, relays, _nodes, hsend, hrecv) = mesh_world(&sim, 1, 2, Some(8));
    let env = env_homed(&net, ns_addr, &relays, 0);
    let (pa, pb) = routed_profiles();

    const SLOW_MSGS: u64 = 30;
    const FAST_MSGS: u64 = 40;
    let slow_done = Arc::new(parking_lot::Mutex::new(None::<gridsim_net::SimTime>));
    let fast_done = Arc::new(parking_lot::Mutex::new(None::<gridsim_net::SimTime>));

    {
        let env = env.clone();
        let hb = hrecv[0].clone();
        let pb = pb.clone();
        let done = slow_done.clone();
        sim.spawn("slow-recv", move || {
            let node = GridNode::join(&env, hb, "slow-recv", pb).unwrap();
            let rp = node
                .create_receive_port("slow", StackSpec::plain())
                .unwrap();
            for i in 0..SLOW_MSGS {
                let mut m = rp.receive().unwrap();
                assert_eq!(m.read_u64().unwrap(), i, "slow pair FIFO violated");
                // Drain far slower than the sender offers.
                gridsim_net::ctx::sleep(Duration::from_millis(80));
            }
            *done.lock() = Some(gridsim_net::ctx::now());
        });
    }
    {
        let env = env.clone();
        let hb = hrecv[1].clone();
        let done = fast_done.clone();
        sim.spawn("fast-recv", move || {
            let node = GridNode::join(&env, hb, "fast-recv", pb).unwrap();
            let rp = node
                .create_receive_port("fast", StackSpec::plain())
                .unwrap();
            for i in 0..FAST_MSGS {
                let mut m = rp.receive().unwrap();
                assert_eq!(m.read_u64().unwrap(), i, "fast pair FIFO violated");
            }
            *done.lock() = Some(gridsim_net::ctx::now());
        });
    }

    // One sender node drives both pairs; the bulk pump to the slow
    // receiver runs as its own sim task so BUSY parks it without stalling
    // the fast pump.
    let throttles = Arc::new(parking_lot::Mutex::new(0u64));
    {
        let env = env.clone();
        let ha = hsend[0].clone();
        let throttles = throttles.clone();
        sim.spawn("sender", move || {
            gridsim_net::ctx::sleep(Duration::from_millis(200));
            let node = GridNode::join(&env, ha, "mixed-send", pa).unwrap();
            let mut sp_slow = node.create_send_port();
            assert_eq!(sp_slow.connect("slow").unwrap(), EstablishMethod::Routed);
            let mut sp_fast = node.create_send_port();
            assert_eq!(sp_fast.connect("fast").unwrap(), EstablishMethod::Routed);
            let slow_node = node.clone();
            let throttles = throttles.clone();
            gridsim_net::ctx::handle().spawn("pump-slow", move || {
                // Bulk writes as fast as the relay lets them through: this
                // is what fills the slow receiver's shard queue and draws
                // BUSY.
                for i in 0..SLOW_MSGS {
                    let mut m = sp_slow.message();
                    m.write_u64(i);
                    m.write_bytes(&vec![0xa5u8; 16 * 1024]);
                    m.finish().unwrap();
                }
                sp_slow.close().unwrap();
                *throttles.lock() = slow_node.relay_busy_throttles();
            });
            // Start the fast pump after the slow pair is already congested.
            gridsim_net::ctx::sleep(Duration::from_millis(400));
            for i in 0..FAST_MSGS {
                let mut m = sp_fast.message();
                m.write_u64(i);
                m.write_bytes(&[0x5au8; 64]);
                m.finish().unwrap();
                gridsim_net::ctx::sleep(Duration::from_millis(5));
            }
            sp_fast.close().unwrap();
        });
    }
    sim.run();

    let slow_t = slow_done.lock().expect("slow pair never finished");
    let fast_t = fast_done.lock().expect("fast pair never finished");
    assert!(
        *throttles.lock() > 0,
        "small shard queue + slow receiver must draw BUSY throttles"
    );
    assert!(
        fast_t < slow_t,
        "fast pair ({fast_t:?}) must not be head-of-line-blocked behind the slow pair ({slow_t:?})"
    );
}

/// ROUTE_QUERY where every peer denies: the receiver is homed at relay 1
/// ONLY (no fallbacks) and its relay is crashed, so once the peers prune
/// the dead relay's routes, the sender's pulls come back all-deny and each
/// connect attempt fails with a retryable error — never a panic, never a
/// wedge, and no ghost route resurrects the dead registration.
#[test]
fn mesh_route_query_miss_all_deny() {
    let sim = Sim::new(seed(64));
    let (net, ns_addr, relays, relay_nodes, hsend, hrecv) = mesh_world(&sim, 3, 1, None);
    let env_a = env_homed(&net, ns_addr, &relays, 0);
    // The receiver gets NO fallback relays: when its home dies it can
    // never re-register, so the mesh has genuinely lost the route.
    let env_b = netgrid::GridEnv::new(net.clone(), ns_addr).with_relays(&relays[1..2]);
    let (pa, pb) = routed_profiles();
    let victim = relay_nodes[1];
    net.with(|w| {
        w.schedule_after(Duration::from_millis(900), move |w| crash_node(w, victim));
    });
    let hb = hrecv[0].clone();
    sim.spawn("receiver", move || {
        let node = GridNode::join(&env_b, hb, "lost-recv", pb).unwrap();
        let rp = node
            .create_receive_port("lost", StackSpec::plain())
            .unwrap();
        // Stay registered until well after the crash, then bow out: the
        // name-service record survives, so the sender's connects resolve
        // the port and fail at the ROUTING layer — the pull path under
        // test. Holding the port open forever would park this task and
        // trip the sim's deadlock detector instead.
        gridsim_net::ctx::sleep(Duration::from_millis(2000));
        drop(rp);
    });
    let ha = hsend[0].clone();
    let errors = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let errs = Arc::clone(&errors);
    let send = sim.spawn("sender", move || {
        // Join after the peers declared the dead relay gone (fast-abort
        // detection plus pruning), so every attempt exercises the pull
        // path: no route locally, ROUTE_QUERY out, all peers deny.
        gridsim_net::ctx::sleep(Duration::from_millis(2500));
        let node = GridNode::join(&env_a, ha, "lost-send", pa).unwrap();
        for _ in 0..3 {
            let mut sp = node.create_send_port();
            match sp.connect("lost") {
                Ok(_) => errs.lock().push(None),
                Err(e) => errs.lock().push(Some(e.kind())),
            }
            gridsim_net::ctx::sleep(Duration::from_millis(400));
        }
    });
    sim.run();
    assert!(send.is_finished(), "sender wedged on all-deny route query");
    let errors = errors.lock();
    assert_eq!(errors.len(), 3);
    for e in errors.iter() {
        let kind = e.expect("connect to an unroutable node must fail");
        assert!(
            matches!(
                kind,
                std::io::ErrorKind::ConnectionRefused
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::TimedOut
            ),
            "all-deny must surface a retryable error, got {kind:?}"
        );
    }
}

/// ROUTE_QUERY that outlives its window: a mesh-path flap (relays keep the
/// patient default TCP config, so the peer links survive by
/// retransmission) delays the query past ROUTE_QUERY_TIMEOUT — the sender
/// sees a retryable NOPEER — and the positive reply straggles in after
/// the window closed. The late reply must not panic the relay or install
/// a route nobody asked for; once the path heals, a retry connects and a
/// sequenced transfer completes exactly-once.
#[test]
fn mesh_route_query_timeout_late_reply() {
    let sim = Sim::new(seed(65));
    let (net, ns_addr, relays, relay_nodes, hsend, hrecv) = mesh_world_cfg(&sim, 2, 1, None, None);
    let env_a = env_homed(&net, ns_addr, &relays, 0);
    let env_b = env_homed(&net, ns_addr, &relays, 1);
    let (pa, pb) = routed_profiles();
    // Flap ONLY the relay-to-relay path: registrations and client traffic
    // to each home relay stay clean; what is delayed is the ADD broadcast
    // and the query/reply exchange between the relays.
    let links = net.with(|w| w.path_links(relay_nodes[0], relay_nodes[1]));
    let plan = links.iter().fold(FaultPlan::new(), |p, &l| {
        p.flap(Duration::from_millis(300), l, Duration::from_millis(1500))
    });
    net.with(|w| w.install_faults(plan));
    const MSGS: u64 = 20;
    let recv = sim.spawn("receiver", move || {
        // Register at relay 1 while the mesh path is down: the ADD
        // broadcast towards relay 0 is stuck in retransmission.
        gridsim_net::ctx::sleep(Duration::from_millis(400));
        let node = GridNode::join(&env_b, hrecv[0].clone(), "late-recv", pb).unwrap();
        let rp = node
            .create_receive_port("late", StackSpec::plain())
            .unwrap();
        for i in 0..MSGS {
            let mut m = rp.receive().unwrap();
            assert_eq!(m.read_u64().unwrap(), i, "exactly-once FIFO violated");
        }
    });
    let failures = Arc::new(parking_lot::Mutex::new(0u32));
    let fails = Arc::clone(&failures);
    let send = sim.spawn("sender", move || {
        // Connect mid-flap: relay 0 has no route yet, so it pulls — and
        // the query cannot round-trip before the window closes.
        gridsim_net::ctx::sleep(Duration::from_millis(800));
        let node = GridNode::join(&env_a, hsend[0].clone(), "late-send", pa).unwrap();
        let mut sp = loop {
            let mut sp = node.create_send_port();
            match sp.connect("late") {
                Ok(_) => break sp,
                Err(_) => {
                    *fails.lock() += 1;
                    gridsim_net::ctx::sleep(Duration::from_millis(400));
                }
            }
        };
        for i in 0..MSGS {
            let mut m = sp.message();
            m.write_u64(i);
            m.finish().unwrap();
        }
        sp.close().unwrap();
    });
    sim.run();
    assert!(recv.is_finished(), "receiver wedged after late route reply");
    assert!(send.is_finished(), "sender wedged after late route reply");
    assert!(
        *failures.lock() >= 1,
        "the mid-flap connect should have timed out at least once"
    );
}
