//! Fault-injection end-to-end tests: link flaps mid-transfer under every
//! establishment method (exactly-once FIFO recovery), relay crash handling,
//! and relay registry regressions (stale unregister, innocent senders).

use bytes::Bytes;
use gridsim_net::{topology, FaultPlan, LinkParams, Metric, NatKind, Sim, SockAddr};
use gridsim_tcp::{crash_node, SimHost, TcpConfig};
use netgrid::wire::{read_frame, Put, RelayMsg, Reply, SvcMsg, Wire};
use netgrid::{
    spawn_name_service, spawn_proxy, spawn_relay, spawn_relay_mesh, ConnectivityProfile,
    EstablishMethod, GridNode, NsClient, RelayClient, RelayConfig, RelayDelegate, StackSpec,
};
use std::sync::Arc;
use std::time::Duration;

const NS_PORT: u16 = 563;
const RELAY_PORT: u16 = 600;
const SOCKS_PORT: u16 = 1080;

/// Base RNG seed shifted by `NETGRID_TEST_SEED` (when set) so CI can sweep
/// this whole file across fixed seeds. The effective seed is printed —
/// the harness shows it on failure, making any failing run reproducible
/// with `NETGRID_TEST_SEED=<n> cargo test --test faults`.
fn seed(base: u64) -> u64 {
    let shift: u64 = std::env::var("NETGRID_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let s = base.wrapping_add(shift.wrapping_mul(1000));
    eprintln!("effective sim seed: {s} (base {base}, NETGRID_TEST_SEED shift {shift})");
    s
}

/// Endpoint TCP config that detects a dead path in about a second instead
/// of minutes, so flap tests exercise abort + re-establishment quickly.
fn fast_abort() -> TcpConfig {
    TcpConfig {
        initial_rto: Duration::from_millis(200),
        min_rto: Duration::from_millis(200),
        max_rto: Duration::from_millis(400),
        max_rto_strikes: 2,
        ..TcpConfig::default()
    }
}

/// Build a grid from `specs` plus a public services host running the name
/// service and relay (and optionally a SOCKS proxy on site 1's gateway).
/// Returns the env, one host per site, and the proxy address if spawned.
fn fault_world(
    sim: &Sim,
    specs: Vec<topology::SiteSpec>,
    with_proxy: bool,
) -> (netgrid::GridEnv, SimHost, SimHost, Option<SockAddr>) {
    let net = sim.net();
    let (srv, a, b, gw_b) = net.with(|w| {
        let mut grid = topology::Grid::build(w, &specs);
        let (srv, _) = grid.add_public_host(w, "services");
        (
            srv,
            grid.sites[0].hosts[0],
            grid.sites[1].hosts[0],
            grid.sites[1].gateway,
        )
    });
    let hsrv = SimHost::new(&net, srv);
    let ha = SimHost::new(&net, a);
    let hb = SimHost::new(&net, b);
    let env = netgrid::GridEnv::new(net.clone(), SockAddr::new(hsrv.ip(), NS_PORT))
        .with_relay(SockAddr::new(hsrv.ip(), RELAY_PORT));
    let proxy_addr =
        with_proxy.then(|| SockAddr::new(net.with(|w| w.node(gw_b).addrs[1]), SOCKS_PORT));
    let hgw = SimHost::new(&net, gw_b);
    let hsrv2 = hsrv.clone();
    sim.spawn("services", move || {
        spawn_name_service(&hsrv2, NS_PORT).unwrap();
        spawn_relay(&hsrv2, RELAY_PORT).unwrap();
        if with_proxy {
            spawn_proxy(&hgw, SOCKS_PORT).unwrap();
        }
    });
    sim.run();
    (env, ha, hb, proxy_addr)
}

fn wan() -> LinkParams {
    LinkParams::mbps(2.0, Duration::from_millis(10))
}

/// Send `msgs` sequenced messages a→b. The receiver asserts strict
/// `0..msgs` order: one assert covers no-loss, no-duplicate, and
/// no-reorder at once. Returns the establishment method used.
#[allow(clippy::too_many_arguments)]
fn sequenced_roundtrip(
    sim: &Sim,
    env: &netgrid::GridEnv,
    ha: SimHost,
    hb: SimHost,
    port_name: &'static str,
    profile_a: ConnectivityProfile,
    profile_b: ConnectivityProfile,
    msgs: u64,
) -> EstablishMethod {
    let env_b = env.clone();
    let recv = sim.spawn("receiver", move || {
        let node = GridNode::join(&env_b, hb, &format!("{port_name}-recv"), profile_b).unwrap();
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
    let env_a = env.clone();
    let send = sim.spawn("sender", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(200));
        let node = GridNode::join(&env_a, ha, &format!("{port_name}-send"), profile_a).unwrap();
        let mut sp = node.create_send_port();
        let method = sp.connect(port_name).unwrap();
        for i in 0..msgs {
            let mut m = sp.message();
            m.write_u64(i);
            m.write_bytes(&[0x5au8; 64]);
            m.finish().unwrap();
            gridsim_net::ctx::sleep(Duration::from_millis(40));
        }
        sp.close().unwrap();
        method
    });
    sim.run();
    assert!(recv.is_finished(), "receiver wedged after link flap");
    assert!(send.is_finished(), "sender wedged after link flap");
    let out = Arc::new(parking_lot::Mutex::new(None));
    let o = out.clone();
    sim.spawn("collect", move || {
        recv.join();
        *o.lock() = Some(send.join());
    });
    sim.run();
    let got = out.lock().take().unwrap();
    got
}

/// Flap the whole a↔b path mid-transfer (which also cuts both endpoints
/// off from the services host — relay and name service included) at 1.5 s,
/// restore at 2.7 s: squarely inside the transfer window.
#[allow(clippy::too_many_arguments)]
fn flap_roundtrip(
    sim: &Sim,
    env: &netgrid::GridEnv,
    ha: SimHost,
    hb: SimHost,
    port_name: &'static str,
    profile_a: ConnectivityProfile,
    profile_b: ConnectivityProfile,
    expect: EstablishMethod,
) {
    ha.set_tcp_config(fast_abort());
    hb.set_tcp_config(fast_abort());
    let net = ha.net().clone();
    let links = net.with(|w| w.path_links(ha.node(), hb.node()));
    let plan = links.iter().fold(FaultPlan::new(), |p, &l| {
        p.flap(Duration::from_millis(1500), l, Duration::from_millis(1200))
    });
    net.with(|w| w.install_faults(plan));
    let got = sequenced_roundtrip(sim, env, ha, hb, port_name, profile_a, profile_b, 50);
    assert_eq!(got, expect);
}

#[test]
fn flap_recovers_client_server() {
    let sim = Sim::new(seed(31));
    let (env, ha, hb, _) = fault_world(
        &sim,
        vec![
            topology::SiteSpec::open("site-a", 1, wan()),
            topology::SiteSpec::open("site-b", 1, wan()),
        ],
        false,
    );
    flap_roundtrip(
        &sim,
        &env,
        ha,
        hb,
        "flap-cs",
        ConnectivityProfile::open(),
        ConnectivityProfile::open(),
        EstablishMethod::ClientServer,
    );
}

#[test]
fn flap_recovers_splicing() {
    let sim = Sim::new(seed(32));
    let (env, ha, hb, _) = fault_world(
        &sim,
        vec![
            topology::SiteSpec::firewalled("vu", 1, wan()),
            topology::SiteSpec::firewalled("rennes", 1, wan()),
        ],
        false,
    );
    flap_roundtrip(
        &sim,
        &env,
        ha,
        hb,
        "flap-splice",
        ConnectivityProfile::firewalled(),
        ConnectivityProfile::firewalled(),
        EstablishMethod::Splicing,
    );
}

#[test]
fn flap_recovers_proxy() {
    let sim = Sim::new(seed(33));
    let (env, ha, hb, proxy_addr) = fault_world(
        &sim,
        vec![
            topology::SiteSpec::natted("broken", 1, NatKind::SymmetricRandom, wan()),
            topology::SiteSpec::firewalled("vu", 1, wan()),
        ],
        true,
    );
    flap_roundtrip(
        &sim,
        &env,
        ha,
        hb,
        "flap-proxy",
        ConnectivityProfile::natted(netgrid::NatClass::SymmetricRandom),
        ConnectivityProfile::firewalled().with_proxy(proxy_addr.unwrap()),
        EstablishMethod::Proxy,
    );
}

#[test]
fn flap_recovers_routed() {
    let sim = Sim::new(seed(34));
    let (env, ha, hb, _) = fault_world(
        &sim,
        vec![
            topology::SiteSpec::natted("broken", 1, NatKind::SymmetricRandom, wan()),
            topology::SiteSpec::firewalled("vu", 1, wan()),
        ],
        false,
    );
    flap_roundtrip(
        &sim,
        &env,
        ha,
        hb,
        "flap-routed",
        ConnectivityProfile::natted(netgrid::NatClass::SymmetricRandom),
        ConnectivityProfile::firewalled(),
        EstablishMethod::Routed,
    );
}

// ------------------------------------------------------- relay regressions

/// Say `msg` on a raw relay connection: the tests below speak the relay's
/// protocol directly.
fn say(s: &gridsim_tcp::TcpStream, msg: RelayMsg) {
    msg.encode().send(&mut s.clone()).unwrap();
}

/// The next frame on a raw relay connection.
fn heard(s: &gridsim_tcp::TcpStream) -> std::io::Result<RelayMsg> {
    RelayMsg::decode(&read_frame(&mut s.clone())?.into())
}

/// A reconnecting client must not be unregistered by its stale predecessor:
/// when the old serve loop finally exits, the registry entry now belongs to
/// the new connection and must survive.
#[test]
fn relay_stale_connection_does_not_unregister_successor() {
    let sim = Sim::new(seed(35));
    let (_env, ha, _hb, _) = fault_world(
        &sim,
        vec![
            topology::SiteSpec::open("site-a", 1, wan()),
            topology::SiteSpec::open("site-b", 1, wan()),
        ],
        false,
    );
    let relay_addr = _env.relay_addr.unwrap();
    let done = sim.spawn("scenario", move || {
        let hello = |s: &gridsim_tcp::TcpStream, id: u64| say(s, RelayMsg::Hello { id });
        let c1 = ha.connect(relay_addr).unwrap();
        hello(&c1, 7);
        gridsim_net::ctx::sleep(Duration::from_millis(50));
        // Reconnect as the same id: supersedes c1 in the registry.
        let c2 = ha.connect(relay_addr).unwrap();
        hello(&c2, 7);
        gridsim_net::ctx::sleep(Duration::from_millis(50));
        // The stale connection dies; its serve loop exits and must leave
        // c2's registration alone.
        c1.shutdown_write().unwrap();
        gridsim_net::ctx::sleep(Duration::from_millis(200));
        let c3 = ha.connect(relay_addr).unwrap();
        hello(&c3, 9);
        let inner = Bytes::from_static(b"ping");
        say(
            &c3,
            RelayMsg::Send {
                to: 7,
                inner: inner.clone(),
            },
        );
        let delivered = RelayMsg::Recv { from: 9, inner };
        assert_eq!(heard(&c2).unwrap(), delivered, "expected delivery");
    });
    sim.run();
    assert!(done.is_finished(), "raw relay scenario wedged");
}

/// Registry churn across a two-relay mesh: the same GridId rapidly
/// registers, unregisters, and re-registers while bouncing between both
/// relays. Epoch-guarded routing (DESIGN.md §10) must converge on the
/// LATEST registration — stale connections, whether still open
/// (superseded) or closed mid-churn, must never be delivered to.
#[test]
fn relay_mesh_churn_never_delivers_to_stale_registration() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let sim = Sim::new(seed(38));
    let net = sim.net();
    let (srv1, srv2, a) = net.with(|w| {
        let mut grid = topology::Grid::build(w, &[topology::SiteSpec::open("site-a", 1, wan())]);
        let (srv1, _) = grid.add_public_host(w, "relay1");
        let (srv2, _) = grid.add_public_host(w, "relay2");
        (srv1, srv2, grid.sites[0].hosts[0])
    });
    let h1 = SimHost::new(&net, srv1);
    let h2 = SimHost::new(&net, srv2);
    let ha = SimHost::new(&net, a);
    let r1 = SockAddr::new(h1.ip(), RELAY_PORT);
    let r2 = SockAddr::new(h2.ip(), RELAY_PORT);
    let (h1b, h2b) = (h1.clone(), h2.clone());
    sim.spawn("relays", move || {
        spawn_relay_mesh(
            &h1b,
            RELAY_PORT,
            RelayConfig {
                mesh_id: 1,
                peers: vec![r2],
                ..RelayConfig::default()
            },
        )
        .unwrap();
        spawn_relay_mesh(
            &h2b,
            RELAY_PORT,
            RelayConfig {
                mesh_id: 2,
                peers: vec![r1],
                ..RelayConfig::default()
            },
        )
        .unwrap();
    });
    sim.run();

    let stale_got = Arc::new(AtomicBool::new(false));
    let flag = stale_got.clone();
    let sched = net.sched().clone();
    let done = sim.spawn("churn", move || {
        let hello = |s: &gridsim_tcp::TcpStream, id: u64| say(s, RelayMsg::Hello { id });
        // Any frame arriving on a superseded connection is a correctness
        // bug; park a reader on each one we leave behind.
        let watch_stale = |s: gridsim_tcp::TcpStream, tag: usize| {
            let flag = flag.clone();
            sched.spawn_daemon(format!("stale-{tag}"), move || {
                while let Ok(msg) = heard(&s) {
                    if let RelayMsg::Recv { .. } = msg {
                        eprintln!("stale registration #{tag} got a delivery");
                        flag.store(true, Ordering::SeqCst);
                    }
                }
            });
        };
        // Churn id=7 across both relays: odd rounds home at r2, even at
        // r1. Half the stale conns are killed (unregister), half stay
        // open (supersede-in-place).
        let mut cur = ha.connect(r1).unwrap();
        hello(&cur, 7);
        for round in 1..=5usize {
            gridsim_net::ctx::sleep(Duration::from_millis(30));
            let next = ha.connect(if round % 2 == 1 { r2 } else { r1 }).unwrap();
            hello(&next, 7);
            let prev = std::mem::replace(&mut cur, next);
            if round % 2 == 0 {
                prev.shutdown_write().unwrap();
            } else {
                watch_stale(prev, round);
            }
        }
        // Let routes settle, then send from a client homed at r1; the
        // final registration lives at r2, so this crosses the mesh.
        gridsim_net::ctx::sleep(Duration::from_millis(200));
        let cs = ha.connect(r1).unwrap();
        hello(&cs, 9);
        let inner = Bytes::from_static(b"fresh");
        say(
            &cs,
            RelayMsg::Send {
                to: 7,
                inner: inner.clone(),
            },
        );
        let delivered = RelayMsg::Recv { from: 9, inner };
        assert_eq!(heard(&cur).unwrap(), delivered, "expected delivery");
        // Give any mis-routed duplicate time to surface before judging.
        gridsim_net::ctx::sleep(Duration::from_millis(300));
    });
    sim.run();
    assert!(done.is_finished(), "mesh churn scenario wedged");
    assert!(
        !stale_got.load(std::sync::atomic::Ordering::SeqCst),
        "a stale registration received a delivery after being superseded"
    );
}

/// Immediate echo for a service delegate.
struct Echo;
impl RelayDelegate for Echo {
    fn on_service_request(&self, _from: u64, payload: &[u8]) -> Vec<u8> {
        payload.to_vec()
    }
    fn on_open(
        &self,
        _from: u64,
        _port: &str,
        _channel: u64,
        _stream: netgrid::RoutedStream,
    ) -> Result<(), String> {
        Err("no ports".into())
    }
}

/// A peer that dies mid-request must not tear down the innocent sender's
/// relay connection, and a NOPEER must fail only the request it echoes —
/// other outstanding requests to the same dead peer keep their own fate.
#[test]
fn relay_dead_peer_fails_precisely_and_spares_sender() {
    let sim = Sim::new(seed(36));
    let net = sim.net();
    let (srv, a, b, c) = net.with(|w| {
        let mut grid = topology::Grid::build(
            w,
            &[
                topology::SiteSpec::open("x", 1, wan()),
                topology::SiteSpec::open("y", 1, wan()),
                topology::SiteSpec::open("z", 1, wan()),
            ],
        );
        let (srv, _) = grid.add_public_host(w, "services");
        (
            srv,
            grid.sites[0].hosts[0],
            grid.sites[1].hosts[0],
            grid.sites[2].hosts[0],
        )
    });
    let hsrv = SimHost::new(&net, srv);
    let ha = SimHost::new(&net, a);
    let hb = SimHost::new(&net, b);
    let hc = SimHost::new(&net, c);
    let relay_addr = SockAddr::new(hsrv.ip(), RELAY_PORT);
    let hsrv2 = hsrv.clone();
    sim.spawn("services", move || {
        spawn_relay(&hsrv2, RELAY_PORT).unwrap();
    });
    sim.run();

    // B registers with the raw protocol and never answers: a silent peer
    // with no reconnect logic, so `crash_node` leaves it dead for good.
    let sched = net.sched().clone();
    let hb2 = hb.clone();
    sched.spawn_daemon("silent-b", move || {
        let cb = hb2.connect(relay_addr).unwrap();
        say(&cb, RelayMsg::Hello { id: 7 });
        loop {
            gridsim_net::ctx::park("hold relay conn");
        }
    });

    let client_a = Arc::new(parking_lot::Mutex::new(None::<RelayClient>));
    let slot = client_a.clone();
    sim.spawn("setup", move || {
        let rc = RelayClient::connect(&ha, relay_addr, None, 1).unwrap();
        rc.set_delegate(Arc::new(Echo));
        // C's pump daemon keeps its own clone alive, so dropping `rb`
        // here does not stop it from serving echoes.
        let rb = RelayClient::connect(&hc, relay_addr, None, 9).unwrap();
        rb.set_delegate(Arc::new(Echo));
        *slot.lock() = Some(rc);
    });
    sim.run();
    let rc = client_a.lock().take().unwrap();

    // req1: outstanding when B dies; must end in its *own* timeout, not be
    // collateral damage of a later request's NOPEER.
    let rc1 = rc.clone();
    let req1 = sim.spawn("req1", move || {
        rc1.service_request_timeout(7, b"first", Some(Duration::from_secs(5)))
            .unwrap_err()
            .kind()
    });
    // B dies at 0.5 s. The relay only notices asynchronously, once a write
    // towards B is answered with RST and its serve loop errors out.
    {
        let b_node = hb.node();
        net.with(|w| {
            w.schedule_after(Duration::from_millis(500), move |w| crash_node(w, b_node));
        });
    }
    // req2 at 0.6 s: the sacrificial detector. The relay's forward write
    // still succeeds into the socket buffer, so no NOPEER comes back; the
    // RST it provokes evicts B. req2 then dies by its own timeout.
    let rc2 = rc.clone();
    let req2 = sim.spawn("req2", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(600));
        rc2.service_request_timeout(7, b"second", Some(Duration::from_secs(1)))
            .unwrap_err()
            .kind()
    });
    // req3 at 1.5 s: B is evicted by now, so the relay echoes NOPEER and
    // the failure is immediate — and scoped to req3 alone.
    let rc3 = rc.clone();
    let req3 = sim.spawn("req3", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(1500));
        let t0 = gridsim_net::ctx::now();
        let kind = rc3.service_request(7, b"third").unwrap_err().kind();
        let dt = gridsim_net::ctx::now().since(t0);
        assert!(
            dt < Duration::from_millis(200),
            "NOPEER should fail fast, took {dt:?}"
        );
        kind
    });
    // req4 at 1.6 s to the living C: A's relay connection must have
    // survived B's death (the innocent-sender guarantee).
    let rc4 = rc.clone();
    let req4 = sim.spawn("req4", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(1600));
        rc4.service_request(9, b"alive?").unwrap()
    });
    sim.run();
    for (name, h) in [("req1", &req1), ("req2", &req2), ("req3", &req3)] {
        assert!(h.is_finished(), "{name} wedged");
    }
    assert!(req4.is_finished(), "req4 wedged");
    let out = Arc::new(parking_lot::Mutex::new(None));
    let o = out.clone();
    sim.spawn("collect", move || {
        *o.lock() = Some((req1.join(), req2.join(), req3.join(), req4.join()));
    });
    sim.run();
    let (k1, k2, k3, r4) = out.lock().take().unwrap();
    assert_eq!(k3, std::io::ErrorKind::NotFound, "req3 expects NOPEER");
    assert_eq!(
        k1,
        std::io::ErrorKind::TimedOut,
        "req1 must keep its own fate"
    );
    assert_eq!(
        k2,
        std::io::ErrorKind::TimedOut,
        "req2 times out, no NOPEER"
    );
    assert_eq!(r4, b"alive?", "sender connection must survive peer death");
}

// ------------------------------------------------------- relay failover

/// Like `fault_world`, but connectivity services are spread over three
/// public hosts: the name service on its own host and a relay on each of
/// two others. Every node registers the ordered relay pair, so killing the
/// primary exercises client-side redial failover to the secondary.
/// Returns the env, one host per site, and the two relay node ids.
fn failover_world(
    sim: &Sim,
    specs: Vec<topology::SiteSpec>,
) -> (
    netgrid::GridEnv,
    SimHost,
    SimHost,
    gridsim_net::NodeId,
    gridsim_net::NodeId,
) {
    let net = sim.net();
    let (srv, r1, r2, a, b) = net.with(|w| {
        let mut grid = topology::Grid::build(w, &specs);
        let (srv, _) = grid.add_public_host(w, "services");
        let (r1, _) = grid.add_public_host(w, "relay1");
        let (r2, _) = grid.add_public_host(w, "relay2");
        (srv, r1, r2, grid.sites[0].hosts[0], grid.sites[1].hosts[0])
    });
    let hsrv = SimHost::new(&net, srv);
    let hr1 = SimHost::new(&net, r1);
    let hr2 = SimHost::new(&net, r2);
    let ha = SimHost::new(&net, a);
    let hb = SimHost::new(&net, b);
    let relays = [
        SockAddr::new(hr1.ip(), RELAY_PORT),
        SockAddr::new(hr2.ip(), RELAY_PORT),
    ];
    let env =
        netgrid::GridEnv::new(net.clone(), SockAddr::new(hsrv.ip(), NS_PORT)).with_relays(&relays);
    sim.spawn("services", move || {
        spawn_name_service(&hsrv, NS_PORT).unwrap();
        spawn_relay(&hr1, RELAY_PORT).unwrap();
        spawn_relay(&hr2, RELAY_PORT).unwrap();
    });
    sim.run();
    (env, ha, hb, r1, r2)
}

/// NAT + firewall profiles that force the Routed method, so the transfer
/// itself rides the relay being killed.
fn routed_profiles() -> (ConnectivityProfile, ConnectivityProfile) {
    (
        ConnectivityProfile::natted(netgrid::NatClass::SymmetricRandom),
        ConnectivityProfile::firewalled(),
    )
}

fn routed_specs() -> Vec<topology::SiteSpec> {
    vec![
        topology::SiteSpec::natted("broken", 1, NatKind::SymmetricRandom, wan()),
        topology::SiteSpec::firewalled("vu", 1, wan()),
    ]
}

/// Crash the primary relay host mid-routed-transfer: both endpoints must
/// redial to the secondary relay (re-HELLO, re-register the service link)
/// and the stream must resume with the exact byte sequence — strict FIFO,
/// no loss, no duplicates.
#[test]
fn relay_failover_mid_routed_transfer() {
    let sim = Sim::new(seed(51));
    let (env, ha, hb, r1, _r2) = failover_world(&sim, routed_specs());
    ha.set_tcp_config(fast_abort());
    hb.set_tcp_config(fast_abort());
    let net = ha.net().clone();
    net.with(|w| {
        w.schedule_after(Duration::from_millis(1500), move |w| crash_node(w, r1));
    });
    let (pa, pb) = routed_profiles();
    let got = sequenced_roundtrip(&sim, &env, ha, hb, "failover-routed", pa, pb, 50);
    assert_eq!(got, EstablishMethod::Routed);
}

/// Both relays dead: the transfer cannot recover, but it must fail with a
/// clean retryable I/O error on the sender — never a wedge, never a panic,
/// and never a protocol-corruption error. The receiver polls so the test
/// itself cannot deadlock, and asserts the delivered prefix stayed FIFO.
#[test]
fn relay_failover_all_relays_dead_errors_cleanly() {
    let sim = Sim::new(seed(52));
    let (env, ha, hb, r1, r2) = failover_world(&sim, routed_specs());
    ha.set_tcp_config(fast_abort());
    hb.set_tcp_config(fast_abort());
    let net = ha.net().clone();
    net.with(|w| {
        w.schedule_after(Duration::from_millis(1500), move |w| {
            crash_node(w, r1);
            crash_node(w, r2);
        });
    });
    let (pa, pb) = routed_profiles();
    let env_b = env.clone();
    let recv = sim.spawn("receiver", move || {
        let node = GridNode::join(&env_b, hb, "dead-recv", pb).unwrap();
        let rp = node
            .create_receive_port("dead-relays", StackSpec::plain())
            .unwrap();
        let deadline = gridsim_net::ctx::now() + Duration::from_secs(60);
        let mut next = 0u64;
        while gridsim_net::ctx::now() < deadline {
            while let Some(mut m) = rp.try_receive() {
                assert_eq!(m.read_u64().unwrap(), next, "FIFO violated before cutoff");
                next += 1;
            }
            gridsim_net::ctx::sleep(Duration::from_millis(250));
        }
    });
    let env_a = env.clone();
    let send = sim.spawn("sender", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(200));
        let node = GridNode::join(&env_a, ha, "dead-send", pa).unwrap();
        let mut sp = node.create_send_port();
        assert_eq!(sp.connect("dead-relays").unwrap(), EstablishMethod::Routed);
        let mut err = None;
        for i in 0..200u64 {
            let mut m = sp.message();
            m.write_u64(i);
            m.write_bytes(&[0x5au8; 64]);
            if let Err(e) = m.finish() {
                err = Some(e);
                break;
            }
            gridsim_net::ctx::sleep(Duration::from_millis(40));
        }
        let err = match err {
            Some(e) => e,
            None => sp
                .close()
                .expect_err("send must fail with every relay dead"),
        };
        err.kind()
    });
    sim.run();
    assert!(recv.is_finished(), "receiver wedged with all relays dead");
    assert!(send.is_finished(), "sender wedged with all relays dead");
    let out = Arc::new(parking_lot::Mutex::new(None));
    let o = out.clone();
    sim.spawn("collect", move || {
        recv.join();
        *o.lock() = Some(send.join());
    });
    sim.run();
    let kind = out.lock().take().unwrap();
    assert_ne!(
        kind,
        std::io::ErrorKind::InvalidData,
        "relay loss must surface as a retryable transport error, not corruption"
    );
}

// ------------------------------------------- bounded resend under a cap

/// Resend-buffer cap for the bounded-memory tests: far below the 8 MiB
/// default so the ack cadence (cap/8 = 32 KiB) does real work.
const CAP: usize = 256 * 1024;

/// `fast_abort` plus small socket buffers. The resend floor is whatever
/// the path itself buffers (the routed pipe crosses four sockets plus the
/// ack round-trip) — with default 64 KiB buffers that floor already
/// exceeds a 256 KiB cap, so the cap tests model hosts tuned for bounded
/// memory: 16 KiB per socket.
fn small_buffers() -> TcpConfig {
    TcpConfig {
        send_buf: 16 * 1024,
        recv_buf: 16 * 1024,
        ..fast_abort()
    }
}

/// The node owning `ip` (used for the relay host, which `fault_world` does
/// not hand back).
fn node_by_ip(net: &gridsim_net::Net, ip: gridsim_net::Ip) -> gridsim_net::NodeId {
    net.with(|w| {
        (0..w.node_count())
            .map(gridsim_net::NodeId)
            .find(|&n| w.node(n).addrs.contains(&ip))
    })
    .expect("no host owns the relay ip")
}

/// Apply `cfg` to the host owning `ip`.
fn tcp_config_by_ip(net: &gridsim_net::Net, ip: gridsim_net::Ip, cfg: TcpConfig) {
    SimHost::new(net, node_by_ip(net, ip)).set_tcp_config(cfg);
}

/// Send forty 16 KiB messages (640 KiB — 2.5× the cap) through a 5 s
/// full-path outage. Recovery must replay exactly once from the ack point,
/// and the resend buffer's *pre-eviction* peak must stay within the cap:
/// proof the cumulative-ack protocol, not the eviction cliff, bounded it.
#[allow(clippy::too_many_arguments)]
fn capped_flap_roundtrip(
    sim: &Sim,
    env: &netgrid::GridEnv,
    ha: SimHost,
    hb: SimHost,
    port_name: &'static str,
    profile_a: ConnectivityProfile,
    profile_b: ConnectivityProfile,
    expect: EstablishMethod,
) {
    let net = ha.net().clone();
    let links = net.with(|w| w.path_links(ha.node(), hb.node()));
    let plan = links.iter().fold(FaultPlan::new(), |p, &l| {
        p.flap(Duration::from_millis(1500), l, Duration::from_millis(5000))
    });
    net.with(|w| w.install_faults(plan));
    capped_roundtrip(sim, env, ha, hb, port_name, profile_a, profile_b, expect);
}

/// The transfer + assertions behind [`capped_flap_roundtrip`], with no
/// fault plan of its own — callers install whatever outage schedule they
/// want first.
#[allow(clippy::too_many_arguments)]
fn capped_roundtrip(
    sim: &Sim,
    env: &netgrid::GridEnv,
    ha: SimHost,
    hb: SimHost,
    port_name: &'static str,
    profile_a: ConnectivityProfile,
    profile_b: ConnectivityProfile,
    expect: EstablishMethod,
) {
    ha.set_tcp_config(small_buffers());
    hb.set_tcp_config(small_buffers());
    if let Some(relay) = env.relay_addr {
        tcp_config_by_ip(ha.net(), relay.ip, small_buffers());
    }
    let msgs = 40u64;
    let env_b = env.clone();
    let recv = sim.spawn("receiver", move || {
        let node = GridNode::join(&env_b, hb, &format!("{port_name}-recv"), profile_b).unwrap();
        let rp = node
            .create_receive_port(port_name, StackSpec::plain())
            .unwrap();
        for i in 0..msgs {
            let mut m = rp.receive().unwrap();
            assert_eq!(m.read_u64().unwrap(), i, "exactly-once FIFO violated");
        }
    });
    let env_a = env.clone();
    let send = sim.spawn("sender", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(200));
        let node = GridNode::join(&env_a, ha, &format!("{port_name}-send"), profile_a).unwrap();
        let mut sp = node.create_send_port();
        let method = sp.connect(port_name).unwrap();
        let payload = vec![0x5au8; 16 * 1024 - 8];
        for i in 0..msgs {
            let mut m = sp.message();
            m.write_u64(i);
            m.write_bytes(&payload);
            m.finish().unwrap();
        }
        let stats = sp.resend_stats();
        sp.close().unwrap();
        (method, stats)
    });
    sim.run();
    assert!(recv.is_finished(), "receiver wedged through 5 s outage");
    assert!(send.is_finished(), "sender wedged through 5 s outage");
    let out = Arc::new(parking_lot::Mutex::new(None));
    let o = out.clone();
    sim.spawn("collect", move || {
        recv.join();
        *o.lock() = Some(send.join());
    });
    sim.run();
    let (method, stats) = out.lock().take().unwrap();
    assert_eq!(method, expect);
    for (cur, peak) in stats {
        assert!(
            peak <= CAP,
            "resend peak {peak} exceeded the {CAP} byte cap (current {cur})"
        );
    }
}

#[test]
fn capped_resend_survives_outage_client_server() {
    let sim = Sim::new(seed(61));
    let (env, ha, hb, _) = fault_world(
        &sim,
        vec![
            topology::SiteSpec::open("site-a", 1, wan()),
            topology::SiteSpec::open("site-b", 1, wan()),
        ],
        false,
    );
    capped_flap_roundtrip(
        &sim,
        &env.with_resend_budget(CAP),
        ha,
        hb,
        "cap-cs",
        ConnectivityProfile::open(),
        ConnectivityProfile::open(),
        EstablishMethod::ClientServer,
    );
}

#[test]
fn capped_resend_survives_outage_splicing() {
    let sim = Sim::new(seed(62));
    let (env, ha, hb, _) = fault_world(
        &sim,
        vec![
            topology::SiteSpec::firewalled("vu", 1, wan()),
            topology::SiteSpec::firewalled("rennes", 1, wan()),
        ],
        false,
    );
    capped_flap_roundtrip(
        &sim,
        &env.with_resend_budget(CAP),
        ha,
        hb,
        "cap-splice",
        ConnectivityProfile::firewalled(),
        ConnectivityProfile::firewalled(),
        EstablishMethod::Splicing,
    );
}

#[test]
fn capped_resend_survives_outage_proxy() {
    let sim = Sim::new(seed(63));
    let (env, ha, hb, proxy_addr) = fault_world(
        &sim,
        vec![
            topology::SiteSpec::natted("broken", 1, NatKind::SymmetricRandom, wan()),
            topology::SiteSpec::firewalled("vu", 1, wan()),
        ],
        true,
    );
    capped_flap_roundtrip(
        &sim,
        &env.with_resend_budget(CAP),
        ha,
        hb,
        "cap-proxy",
        ConnectivityProfile::natted(netgrid::NatClass::SymmetricRandom),
        ConnectivityProfile::firewalled().with_proxy(proxy_addr.unwrap()),
        EstablishMethod::Proxy,
    );
}

#[test]
fn capped_resend_survives_outage_routed() {
    let sim = Sim::new(seed(64));
    let (env, ha, hb, _) = fault_world(&sim, routed_specs(), false);
    let (pa, pb) = routed_profiles();
    capped_flap_roundtrip(
        &sim,
        &env.with_resend_budget(CAP),
        ha,
        hb,
        "cap-routed",
        pa,
        pb,
        EstablishMethod::Routed,
    );
}

// ------------------------------------------------- routed close contract

/// `close()` on a Routed link must confirm receipt by the *peer*, not by the
/// relay host. The relay→receiver leg goes dark just before the sender
/// writes its last three messages; the sender's own leg to the relay stays
/// clean, so every byte is acknowledged by the relay host and a close that
/// only drained that connection would report success for messages still
/// sitting in the relay. Property: `close() == Ok` ⇒ all three delivered,
/// FIFO. (Here the receiver is idle, never notices its half-open service
/// link and so never re-registers: the close ends in a typed error.)
#[test]
fn routed_close_waits_for_the_receiver() {
    let sim = Sim::new(seed(66));
    let (env, ha, hb, _) = fault_world(&sim, routed_specs(), false);
    let net = ha.net().clone();
    let relay = node_by_ip(&net, env.relay_addr.unwrap().ip);
    for h in [&ha, &hb, &SimHost::new(&net, relay)] {
        h.set_tcp_config(fast_abort());
    }
    let plan = net.with(|w| {
        let keep = w.path_links(relay, ha.node());
        let cut = w.path_links(relay, hb.node());
        cut.into_iter()
            .filter(|l| !keep.contains(l))
            .fold(FaultPlan::new(), |p, l| {
                p.flap(Duration::from_millis(950), l, Duration::from_secs(3))
            })
    });
    net.with(|w| w.install_faults(plan));
    let (pa, pb) = routed_profiles();
    let got = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let (env_b, got_b) = (env.clone(), got.clone());
    net.sched().spawn_daemon("receiver", move || {
        let node = GridNode::join(&env_b, hb, "close-recv", pb).unwrap();
        let rp = node
            .create_receive_port("close-routed", StackSpec::plain())
            .unwrap();
        while let Ok(mut m) = rp.receive() {
            got_b.lock().push(m.read_u64().unwrap());
        }
    });
    let send = sim.spawn("sender", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(200));
        let node = GridNode::join(&env, ha, "close-send", pa).unwrap();
        let mut sp = node.create_send_port();
        assert_eq!(sp.connect("close-routed").unwrap(), EstablishMethod::Routed);
        gridsim_net::ctx::sleep(Duration::from_millis(800));
        for i in 0..3u64 {
            let mut m = sp.message();
            m.write_u64(i);
            m.write_bytes(&[0x5au8; 4096 - 8]);
            m.finish().unwrap();
        }
        (sp.close(), gridsim_net::ctx::now())
    });
    sim.run();
    assert!(send.is_finished(), "sender wedged in close()");
    let out = Arc::new(parking_lot::Mutex::new(None));
    let o = out.clone();
    sim.spawn("collect", move || *o.lock() = Some(send.join()));
    sim.run();
    let (closed, at) = out.lock().take().unwrap();
    let got = got.lock().clone();
    if closed.is_ok() {
        assert_eq!(
            got,
            [0, 1, 2],
            "close() returned Ok at {at:?} but the receiver got {} of 3",
            got.len()
        );
    }
}

/// A silently dead bootstrap link: the name-service host's access link goes
/// dark — no RST — with three lookups in flight on the node's link. TCP
/// aborts the connection after its strikes at the RTO ceiling; each lookup
/// ends in `ConnectionReset`, the retryable kind, within that budget. Once
/// the link heals, the next lookup dials a fresh connection and succeeds.
#[test]
fn silent_ns_partition_fails_lookups_within_the_abort_budget() {
    let sim = Sim::new(seed(67));
    let specs = vec![
        topology::SiteSpec::open("site-a", 1, wan()),
        topology::SiteSpec::open("site-b", 1, wan()),
    ];
    let (env, ha, hb, _) = fault_world(&sim, specs, false);
    let tcp = fast_abort();
    ha.set_tcp_config(tcp);
    // First expiry at most at the ceiling, then one per strike there.
    let budget = tcp.max_rto * (tcp.max_rto_strikes + 1);
    let net = ha.net().clone();
    let ns_host = node_by_ip(&net, env.ns_addr.ip);
    let access: Vec<_> = net.with(|w| {
        let to_a = w.path_links(ns_host, ha.node());
        let to_b = w.path_links(ns_host, hb.node());
        to_a.into_iter().filter(|l| to_b.contains(l)).collect()
    });
    let outage = Duration::from_secs(3);
    let done = sim.spawn("client", move || {
        let ns = NsClient::new(ha.clone(), env.ns_addr, None);
        let id = ns.register("a", &ConnectivityProfile::open(), &[]).unwrap();
        ns.register_port(id, "p", None, b"").unwrap();
        let ports = || {
            let node = ha.node();
            let net = ha.net();
            net.with(|w| {
                gridsim_tcp::stack::with_host(w, node, |h, _| {
                    h.conns
                        .values()
                        .map(|tcb| tcb.local.port)
                        .collect::<Vec<_>>()
                })
            })
        };
        let dead = ports();
        let plan = access
            .iter()
            .fold(FaultPlan::new(), |p, &l| p.flap(Duration::ZERO, l, outage));
        net.with(|w| w.install_faults(plan));
        let t0 = gridsim_net::ctx::now();
        let lookups: Vec<_> = (0..3)
            .map(|_| {
                let ns = ns.clone();
                gridsim_net::ctx::handle().spawn("lookup", move || {
                    let kind = ns.lookup_port("p").unwrap_err().kind();
                    (kind, gridsim_net::ctx::now() - t0)
                })
            })
            .collect();
        for lookup in lookups {
            let (kind, took) = lookup.join();
            assert_eq!(kind, std::io::ErrorKind::ConnectionReset);
            assert!(
                took <= budget,
                "lookup failed after {took:?}, budget {budget:?}"
            );
        }
        gridsim_net::ctx::sleep(outage);
        let (rec, _, _) = ns.lookup_port("p").expect("lookup after the outage");
        assert_eq!(rec.owner, id);
        assert!(
            ports().iter().any(|p| !dead.contains(p)),
            "no fresh connection"
        );
    });
    sim.run();
    assert!(done.is_finished());
}

/// A splice responder behind a symmetric NAT holds its NAT gate from the
/// initiator's SPLICE_REQ until the GO. An initiator that asks and then
/// goes silent (dead, or its GO lost) must not keep that gate forever: the
/// responder drops the negotiation at its GO deadline (10 s), and its own
/// next dial, parked behind the gate until then, goes through.
#[test]
fn unanswered_splice_request_releases_the_nat_gate() {
    const GO_DEADLINE: Duration = Duration::from_secs(10);
    let sim = Sim::new(seed(68));
    let specs = vec![
        topology::SiteSpec::natted("nat", 1, NatKind::SymmetricSequential, wan()),
        topology::SiteSpec::open("site-b", 1, wan()),
    ];
    let (env, ha, hb, _) = fault_world(&sim, specs, false);
    let relay_addr = env.relay_addr.unwrap();
    let responder_id = gridsim_net::SimQueue::bounded(1);
    let asked = gridsim_net::SimQueue::bounded(1);
    let env_b = env.clone();
    sim.spawn("open", move || {
        let node = GridNode::join(&env_b, hb, "open", ConnectivityProfile::open()).unwrap();
        let rp = node
            .create_receive_port("open-port", StackSpec::plain())
            .unwrap();
        assert_eq!(rp.receive().unwrap().read_u64().unwrap(), 7);
    });
    let (id_tx, asked_rx) = (responder_id.clone(), asked.clone());
    let ha2 = ha.clone();
    let responder = sim.spawn("responder", move || {
        let profile = ConnectivityProfile::natted(netgrid::NatClass::SymmetricPredictable);
        let node = GridNode::join(&env, ha2, "responder", profile).unwrap();
        node.create_receive_port("splice-port", StackSpec::plain())
            .unwrap();
        id_tx.push(node.id()).unwrap();
        asked_rx.pop().unwrap();
        let t0 = gridsim_net::ctx::now();
        let mut sp = node.create_send_port();
        assert_eq!(
            sp.connect("open-port").unwrap(),
            EstablishMethod::ClientServer
        );
        let waited = gridsim_net::ctx::now() - t0;
        let mut m = sp.message();
        m.write_u64(7);
        m.finish().unwrap();
        sp.close().unwrap();
        waited
    });
    // An initiator that asks and never says GO.
    sim.spawn("initiator", move || {
        let to = responder_id.pop().unwrap();
        let rc = RelayClient::connect(&ha, relay_addr, None, 9_999).unwrap();
        let req = SvcMsg::SpliceReq {
            channel: 9_999 << 24 | 1,
            port: "splice-port".into(),
            streams: 1,
        };
        let rsp = rc.service_request(to, &req.encode().into_bytes()).unwrap();
        assert_eq!(
            refusal::<Vec<SockAddr>>(rsp),
            None,
            "the responder predicts its endpoint"
        );
        asked.push(()).unwrap();
    });
    sim.run();
    let out = Arc::new(parking_lot::Mutex::new(None));
    let o = out.clone();
    sim.spawn("collect", move || *o.lock() = Some(responder.join()));
    sim.run();
    let waited = out.lock().take().unwrap();
    assert!(
        waited > GO_DEADLINE / 2,
        "connect took {waited:?}: the REQ never held the gate"
    );
    assert!(
        waited <= GO_DEADLINE + Duration::from_secs(1),
        "connect took {waited:?} behind the gate"
    );
}

/// The reason a node's service reply, its body a `T`, gives for refusing;
/// `None` if it accepted.
fn refusal<T: Wire>(rsp: Vec<u8>) -> Option<String> {
    Reply::<T>::decode(&rsp.into()).unwrap().err()
}

/// A firewalled splice responder with a one-stream port `one`, kept alive
/// while raw relay clients on the other site's host, given its id and the
/// relay, run `ask`.
fn ask_splice_responder(seed: u64, ask: impl FnOnce(u64, SockAddr, SimHost) + Send + 'static) {
    let sim = Sim::new(seed);
    let specs = vec![
        topology::SiteSpec::open("site-a", 1, wan()),
        topology::SiteSpec::firewalled("site-b", 1, wan()),
    ];
    let (env, ha, hb, _) = fault_world(&sim, specs, false);
    let relay_addr = env.relay_addr.unwrap();
    let responder = gridsim_net::SimQueue::bounded(1);
    let r = responder.clone();
    sim.spawn("responder", move || {
        let node = GridNode::join(&env, hb, "responder", ConnectivityProfile::firewalled());
        let node = node.unwrap();
        let port = node.create_receive_port("one", StackSpec::plain());
        assert!(r.push((node, port.unwrap())).is_ok());
    });
    let done = sim.spawn("initiator", move || {
        let (node, _port) = responder.pop().unwrap();
        ask(node.id(), relay_addr, ha);
    });
    sim.run();
    assert!(done.is_finished());
}

/// An honest initiator asks for the registered port's own stream count, so
/// a SPLICE_REQ for more is refused before the responder allocates a port
/// or sends a probe.
#[test]
fn a_splice_request_for_more_streams_than_the_port_has_is_refused() {
    ask_splice_responder(seed(70), |to, relay, host| {
        let rc = RelayClient::connect(&host, relay, None, 9_998).unwrap();
        let req = SvcMsg::SpliceReq {
            channel: 9_998 << 24 | 1,
            port: "one".into(),
            streams: 2,
        };
        let rsp = rc.service_request(to, &req.encode().into_bytes());
        let why = refusal::<Vec<SockAddr>>(rsp.unwrap());
        assert!(
            why.as_ref().is_some_and(|w| w.contains("stream count")),
            "{why:?}"
        );
    });
}

/// A splice channel's high bits are its initiator's grid id, so only the
/// node that opened a negotiation can say GO to it.
#[test]
fn a_splice_go_from_anyone_but_the_initiator_is_refused() {
    ask_splice_responder(seed(71), |to, relay, host| {
        let channel = 9_996 << 24 | 1;
        let first = RelayClient::connect(&host, relay, None, 9_996).unwrap();
        let port = "one".into();
        let req = SvcMsg::SpliceReq {
            channel,
            port,
            streams: 1,
        };
        let rsp = first
            .service_request(to, &req.encode().into_bytes())
            .unwrap();
        assert_eq!(
            refusal::<Vec<SockAddr>>(rsp),
            None,
            "the initiator's own REQ"
        );
        let second = RelayClient::connect(&host, relay, None, 9_995).unwrap();
        let endpoints = vec![SockAddr::new(host.ip(), 31_000)];
        let go = SvcMsg::SpliceGo { channel, endpoints };
        let why = refusal::<()>(
            second
                .service_request(to, &go.encode().into_bytes())
                .unwrap(),
        );
        assert!(
            why.as_ref().is_some_and(|w| w.contains("sender's channel")),
            "{why:?}"
        );
    });
}

/// A CACK advances a channel's watermark only when its receiver sends it: a
/// third party's would prune messages the receiver never got, and the next
/// recovery would then fail `ResendOverflow`.
#[test]
fn a_cack_from_anyone_but_the_receiver_prunes_nothing() {
    let sim = Sim::new(seed(72));
    let specs = vec![
        topology::SiteSpec::open("site-a", 1, wan()),
        topology::SiteSpec::open("site-b", 1, wan()),
    ];
    let (mut env, ha, hb, _) = fault_world(&sim, specs, false);
    // The receiver acks nothing itself: only the third party could prune.
    env.ack_bytes = usize::MAX;
    let relay_addr = env.relay_addr.unwrap();
    let env_b = env.clone();
    sim.spawn("receiver", move || {
        let node = GridNode::join(&env_b, hb, "acked-recv", ConnectivityProfile::open()).unwrap();
        let rp = node.create_receive_port("acked", StackSpec::plain());
        let rp = rp.unwrap();
        for _ in 0..5 {
            rp.receive().unwrap();
        }
    });
    let done = sim.spawn("sender", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(200));
        let profile = ConnectivityProfile::open();
        let node = GridNode::join(&env, ha.clone(), "acked-send", profile).unwrap();
        let mut sp = node.create_send_port();
        sp.connect("acked").unwrap();
        for _ in 0..4 {
            sp.send(&[0x5a; 64]).unwrap();
        }
        let before = sp.resend_stats()[0];
        let third = RelayClient::connect(&ha, relay_addr, None, 9_997).unwrap();
        let channel = sp.connections()[0].2;
        let cack = SvcMsg::Cack {
            channel,
            delivered: 4,
        };
        third
            .service_request(node.id(), &cack.encode().into_bytes())
            .unwrap();
        // Pruning happens as the next message is retained.
        sp.send(&[0x5a; 64]).unwrap();
        let after = sp.resend_stats()[0];
        assert!(after.0 > before.0, "pruned from {before:?} to {after:?}");
        sp.close().unwrap();
    });
    sim.run();
    assert!(done.is_finished());
}

/// A failed recovery is shared, not repeated. Two channels of one link each
/// have a sender when the receiver's host dies for good: one sender walks the
/// `RECOVER` ladder while the other waits for it, and both get its error at
/// the same instant, with no recovery counted. A send made after that
/// failure is a new attempt and walks a fresh ladder.
#[test]
fn a_failed_recovery_fails_its_waiters_and_the_next_send_walks_again() {
    // The sum of `RECOVER`'s delays: 50 + 100 + … + 2000 + 2000 ms.
    const LADDER: Duration = Duration::from_millis(7150);
    let sim = Sim::new(seed(69));
    let specs = vec![
        topology::SiteSpec::open("site-a", 1, wan()),
        topology::SiteSpec::open("site-b", 1, wan()),
    ];
    let (env, ha, hb, _) = fault_world(&sim, specs, false);
    ha.set_tcp_config(fast_abort());
    hb.set_tcp_config(fast_abort());
    let net = ha.net().clone();
    let doomed = hb.node();
    let env_b = env.clone();
    net.sched().spawn_daemon("receiver", move || {
        let node = GridNode::join(&env_b, hb, "doomed-recv", ConnectivityProfile::open()).unwrap();
        let rp = node
            .create_receive_port("doomed", StackSpec::plain())
            .unwrap();
        while rp.receive().is_ok() {}
    });
    net.with(|w| w.schedule_after(Duration::from_secs(1), move |w| crash_node(w, doomed)));
    let done = sim.spawn("sender", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(200));
        let node = GridNode::join(&env, ha, "doomed-send", ConnectivityProfile::open()).unwrap();
        let senders: Vec<_> = node
            .connect_batch("doomed", 2)
            .unwrap()
            .into_iter()
            .map(|mut sp| {
                gridsim_net::ctx::handle().spawn("channel", move || {
                    let err = loop {
                        if let Err(e) = sp.send(&[0x5a; 64]) {
                            break e;
                        }
                        gridsim_net::ctx::sleep(Duration::from_millis(40));
                    };
                    (err.kind(), gridsim_net::ctx::now(), sp)
                })
            })
            .collect();
        let mut failed: Vec<_> = senders.into_iter().map(|s| s.join()).collect();
        assert_eq!(
            (failed[0].0, failed[0].1),
            (failed[1].0, failed[1].1),
            "one ladder: one error kind at one instant"
        );
        let recoveries = Metric("node", Some(node.id()), "recoveries");
        assert_eq!(gridsim_net::ctx::handle().metric(recoveries), 0);
        let t0 = gridsim_net::ctx::now();
        assert!(failed[0].2.send(&[0x5a; 64]).is_err());
        let took = gridsim_net::ctx::now() - t0;
        assert!(took >= LADDER, "the third send failed after {took:?}");
    });
    sim.run();
    assert!(done.is_finished());
}

// ----------------------------------------------------- property: no wedge

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary bounded flap schedules — any subset of the a↔b path links,
    /// overlapping outages included — never deadlock the runtime and never
    /// break exactly-once FIFO delivery. Schedules start after connection
    /// establishment (~0.4 s) and every outage is shorter than the recovery
    /// budget, so delivery must always complete.
    #[test]
    fn random_flap_schedules_never_wedge(
        flaps in proptest::collection::vec(
            (500u64..2500, 100u64..800, any::<u8>()),
            1..4,
        ),
    ) {
        let sim = Sim::new(seed(41));
        let (env, ha, hb, _) = fault_world(
            &sim,
            vec![
                topology::SiteSpec::open("site-a", 1, wan()),
                topology::SiteSpec::open("site-b", 1, wan()),
            ],
            false,
        );
        ha.set_tcp_config(fast_abort());
        hb.set_tcp_config(fast_abort());
        let net = ha.net().clone();
        let links = net.with(|w| w.path_links(ha.node(), hb.node()));
        let mut plan = FaultPlan::new();
        for &(at, down, mask) in &flaps {
            for (i, &l) in links.iter().enumerate() {
                if mask & (1 << (i % 8)) != 0 {
                    plan = plan.flap(
                        Duration::from_millis(at),
                        l,
                        Duration::from_millis(down),
                    );
                }
            }
        }
        net.with(|w| w.install_faults(plan));
        sequenced_roundtrip(
            &sim,
            &env,
            ha,
            hb,
            "prop-flap",
            ConnectivityProfile::open(),
            ConnectivityProfile::open(),
            20,
        );
    }

    /// CACK frames ride best-effort service round-trips, so arbitrary flap
    /// schedules lose, delay, and reorder them freely. Whatever happens to
    /// the acks, delivery must stay exactly-once FIFO and the resend
    /// buffer's pre-eviction peak must stay within the 256 KiB cap — a
    /// dropped ack may defer pruning by one cadence, never unbound it.
    #[test]
    fn random_cack_loss_keeps_resend_bounded(
        flaps in proptest::collection::vec(
            (600u64..3000, 100u64..800, any::<u8>()),
            1..4,
        ),
        case_seed in 0u64..64,
    ) {
        let sim = Sim::new(seed(71).wrapping_add(case_seed));
        let (env, ha, hb, _) = fault_world(
            &sim,
            vec![
                topology::SiteSpec::open("site-a", 1, wan()),
                topology::SiteSpec::open("site-b", 1, wan()),
            ],
            false,
        );
        ha.set_tcp_config(fast_abort());
        hb.set_tcp_config(fast_abort());
        let net = ha.net().clone();
        let links = net.with(|w| w.path_links(ha.node(), hb.node()));
        let mut plan = FaultPlan::new();
        for &(at, down, mask) in &flaps {
            for (i, &l) in links.iter().enumerate() {
                if mask & (1 << (i % 8)) != 0 {
                    plan = plan.flap(
                        Duration::from_millis(at),
                        l,
                        Duration::from_millis(down),
                    );
                }
            }
        }
        net.with(|w| w.install_faults(plan));
        capped_roundtrip(
            &sim,
            &env.with_resend_budget(CAP),
            ha,
            hb,
            "prop-cack",
            ConnectivityProfile::open(),
            ConnectivityProfile::open(),
            EstablishMethod::ClientServer,
        );
    }
}

/// A receiver that never answers: the port's record names a listener that
/// takes every byte and writes none. A RECONFIG there fails with
/// `TimedOut` at the reply deadline and recovers the link. The recovery's
/// proxied attempt waits the same deadline for its resume reply, fails
/// with it, and the walk goes on to routed messages, which reach the real
/// port: both messages arrive once, in order.
#[test]
fn a_receiver_that_never_answers_times_out_and_the_walk_goes_on() {
    const REPLY_DEADLINE: Duration = Duration::from_secs(10);
    let sim = Sim::new(seed(69));
    let specs = vec![
        topology::SiteSpec::natted("broken", 1, NatKind::SymmetricRandom, wan()),
        topology::SiteSpec::firewalled("vu", 1, wan()),
    ];
    let (env, ha, hb, proxy) = fault_world(&sim, specs, true);
    let profile_b = ConnectivityProfile::firewalled().with_proxy(proxy.unwrap());
    let ready = gridsim_net::SimQueue::bounded(1);
    let (env_b, ready_tx) = (env.clone(), ready.clone());
    let recv = sim.spawn("receiver", move || {
        let node = GridNode::join(&env_b, hb.clone(), "mute-recv", profile_b).unwrap();
        let rp = node
            .create_receive_port("mute", StackSpec::plain())
            .unwrap();
        let mute = hb.listen(7000).unwrap();
        gridsim_net::ctx::handle().spawn_daemon("mute", move || {
            while let Ok(mut conn) = mute.accept() {
                gridsim_net::ctx::handle().spawn_daemon("mute-conn", move || {
                    let mut buf = [0u8; 4096];
                    while std::io::Read::read(&mut conn, &mut buf).is_ok_and(|n| n > 0) {}
                });
            }
        });
        let (ns, spec) = (node.ns(), StackSpec::plain().encode());
        ns.unregister_port("mute").unwrap();
        let mute_addr = SockAddr::new(hb.ip(), 7000);
        ns.register_port(node.id(), "mute", Some(mute_addr), &spec)
            .unwrap();
        ready_tx.push(()).unwrap();
        for i in 0..2u64 {
            let got = rp.receive().unwrap().read_u64().unwrap();
            assert_eq!(got, i, "exactly-once FIFO violated");
        }
    });
    let send = sim.spawn("sender", move || {
        ready.pop().unwrap();
        let profile = ConnectivityProfile::natted(netgrid::NatClass::SymmetricRandom);
        let node = GridNode::join(&env, ha, "mute-send", profile).unwrap();
        let mut sp = node.create_send_port();
        assert_eq!(sp.connect("mute").unwrap(), EstablishMethod::Proxy);
        let send = |sp: &mut netgrid::SendPort, i: u64| {
            let mut m = sp.message();
            m.write_u64(i);
            m.finish().unwrap();
        };
        send(&mut sp, 0);
        let compressed = netgrid::PathParams {
            compression_level: Some(1),
            ..sp.path_params(0).unwrap()
        };
        let t0 = gridsim_net::ctx::now();
        let err = sp.reconfigure(compressed).unwrap_err();
        let took = gridsim_net::ctx::now() - t0;
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut, "{err}");
        assert_eq!(sp.connections()[0].1, EstablishMethod::Routed);
        send(&mut sp, 1);
        sp.close().unwrap();
        took
    });
    sim.run();
    assert!(recv.is_finished(), "receiver wedged");
    let out = Arc::new(parking_lot::Mutex::new(None));
    let o = out.clone();
    sim.spawn("collect", move || *o.lock() = Some(send.join()));
    sim.run();
    let took = out.lock().take().unwrap();
    // The ack's deadline, then the resume reply's, then a routed walk step.
    assert!(
        took >= 2 * REPLY_DEADLINE && took < 2 * REPLY_DEADLINE + Duration::from_secs(1),
        "reconfig plus recovery took {took:?}"
    );
}
