//! Behavioral tests of the netgrid runtime: error paths, message ordering
//! guarantees, and runtime fallback when a profile turns out to be wrong.

use gridsim_net::{topology, LinkParams, NatKind, Sim, SockAddr};
use gridsim_tcp::SimHost;
use netgrid::{
    spawn_name_service, spawn_relay, ConnectivityProfile, EstablishMethod, GridEnv, GridNode,
    NatClass, StackSpec,
};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

const NS: u16 = 563;
const RELAY: u16 = 600;

fn world(sim: &Sim, specs: &[topology::SiteSpec]) -> (GridEnv, Vec<gridsim_net::NodeId>) {
    let net = sim.net();
    let (srv, hosts) = net.with(|w| {
        let mut grid = gridsim_net::topology::Grid::build(w, specs);
        let (srv, _) = grid.add_public_host(w, "services");
        let hosts: Vec<_> = grid.sites.iter().map(|s| s.hosts[0]).collect();
        (srv, hosts)
    });
    let hsrv = SimHost::new(&net, srv);
    let env = GridEnv::new(net.clone(), SockAddr::new(hsrv.ip(), NS))
        .with_relay(SockAddr::new(hsrv.ip(), RELAY));
    sim.spawn("services", move || {
        spawn_name_service(&hsrv, NS).unwrap();
        spawn_relay(&hsrv, RELAY).unwrap();
    });
    sim.run();
    (env, hosts)
}

#[test]
fn connect_to_unknown_port_is_not_found() {
    let sim = Sim::new(90);
    let wan = LinkParams::mbps(2.0, Duration::from_millis(5));
    let (env, hosts) = world(&sim, &[topology::SiteSpec::open("a", 1, wan)]);
    let net = env.net.clone();
    let done = sim.spawn("t", move || {
        let node = GridNode::join(
            &env,
            SimHost::new(&net, hosts[0]),
            "a0",
            ConnectivityProfile::open(),
        )
        .unwrap();
        let mut sp = node.create_send_port();
        let err = sp.connect("no-such-port").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
        // Sending while unconnected is an error too.
        assert_eq!(
            sp.send(b"x").unwrap_err().kind(),
            std::io::ErrorKind::NotConnected
        );
    });
    sim.run();
    assert!(done.is_finished());
}

#[test]
fn duplicate_port_names_rejected_grid_wide() {
    let sim = Sim::new(91);
    let wan = LinkParams::mbps(2.0, Duration::from_millis(5));
    let (env, hosts) = world(
        &sim,
        &[
            topology::SiteSpec::open("a", 1, wan),
            topology::SiteSpec::open("b", 1, wan),
        ],
    );
    let net = env.net.clone();
    let done = sim.spawn("t", move || {
        let na = GridNode::join(
            &env,
            SimHost::new(&net, hosts[0]),
            "a0",
            ConnectivityProfile::open(),
        )
        .unwrap();
        let nb = GridNode::join(
            &env,
            SimHost::new(&net, hosts[1]),
            "b0",
            ConnectivityProfile::open(),
        )
        .unwrap();
        let _p = na
            .create_receive_port("shared-name", StackSpec::plain())
            .unwrap();
        // The name service owns the namespace: the second registration
        // fails even though it is a different node.
        assert!(nb
            .create_receive_port("shared-name", StackSpec::plain())
            .is_err());
    });
    sim.run();
    assert!(done.is_finished());
}

/// A node whose profile *claims* a predictable NAT but whose actual NAT
/// allocates randomly: splicing attempts fail at runtime and the
/// connection falls back down the decision tree to routed messages —
/// the paper's §6 experience in code ("not fully standards-compliant, and
/// did not let TCP splicing connections across").
#[test]
fn misdeclared_nat_falls_back_at_runtime() {
    let sim = Sim::new(92);
    let wan = LinkParams::mbps(2.0, Duration::from_millis(5));
    let (env, hosts) = world(
        &sim,
        &[
            topology::SiteSpec::natted("liar", 1, NatKind::SymmetricRandom, wan),
            topology::SiteSpec::firewalled("honest", 1, wan),
        ],
    );
    let net = env.net.clone();
    let delivered = Arc::new(Mutex::new(None));
    {
        let env = env.clone();
        let host = SimHost::new(&net, hosts[1]);
        let delivered = Arc::clone(&delivered);
        sim.spawn("recv", move || {
            let node =
                GridNode::join(&env, host, "honest0", ConnectivityProfile::firewalled()).unwrap();
            let rp = node
                .create_receive_port("sink", StackSpec::plain())
                .unwrap();
            *delivered.lock() = Some(rp.receive().unwrap().into_vec());
        });
    }
    let method = Arc::new(Mutex::new(None));
    {
        let env = env.clone();
        let host = SimHost::new(&net, hosts[0]);
        let method = Arc::clone(&method);
        sim.spawn("send", move || {
            gridsim_net::ctx::sleep(Duration::from_millis(100));
            // The WRONG profile: claims predictable, NAT is random.
            let node = GridNode::join(
                &env,
                host,
                "liar0",
                ConnectivityProfile::natted(NatClass::SymmetricPredictable),
            )
            .unwrap();
            let mut sp = node.create_send_port();
            let m = sp.connect("sink").unwrap();
            *method.lock() = Some(m);
            sp.send(b"made it anyway").unwrap();
            sp.close().unwrap();
        });
    }
    sim.run();
    assert_eq!(
        delivered.lock().take().as_deref(),
        Some(&b"made it anyway"[..])
    );
    // Splicing was attempted (profile says predictable) but cannot work;
    // the runtime fallback must land on routed messages.
    assert_eq!(*method.lock(), Some(EstablishMethod::Routed));
    // The fallback costs splice attempts (~7 s each + retries) — verify we
    // actually went through them rather than skipping.
    assert!(
        sim.now().as_secs_f64() > 5.0,
        "splice attempts should have been made"
    );
}

/// FIFO ordering: messages on one connection arrive in send order, even
/// over 4 parallel streams with loss.
#[test]
fn message_order_is_fifo_over_striped_lossy_link() {
    let sim = Sim::new(93);
    let wan = LinkParams::mbps(2.0, Duration::from_millis(5))
        .with_loss(0.01)
        .with_queue(512 * 1024);
    let (env, hosts) = world(
        &sim,
        &[
            topology::SiteSpec::open("a", 1, wan),
            topology::SiteSpec::open("b", 1, wan),
        ],
    );
    let net = env.net.clone();
    const N: u32 = 200;
    let got: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
    {
        let env = env.clone();
        let host = SimHost::new(&net, hosts[1]);
        let got = Arc::clone(&got);
        sim.spawn("recv", move || {
            let node = GridNode::join(&env, host, "b0", ConnectivityProfile::open()).unwrap();
            let rp = node
                .create_receive_port("ordered", StackSpec::plain().with_streams(4))
                .unwrap();
            for _ in 0..N {
                let mut m = rp.receive().unwrap();
                got.lock().push(m.read_u32().unwrap());
            }
        });
    }
    {
        let env = env.clone();
        let host = SimHost::new(&net, hosts[0]);
        sim.spawn("send", move || {
            gridsim_net::ctx::sleep(Duration::from_millis(100));
            let node = GridNode::join(&env, host, "a0", ConnectivityProfile::open()).unwrap();
            let mut sp = node.create_send_port();
            sp.connect("ordered").unwrap();
            for i in 0..N {
                let mut m = sp.message();
                m.write_u32(i);
                m.write_bytes(&vec![i as u8; 3000]);
                m.finish().unwrap();
            }
            sp.close().unwrap();
        });
    }
    sim.run();
    assert_eq!(*got.lock(), (0..N).collect::<Vec<_>>());
}

/// try_receive is non-blocking and queue-accurate.
#[test]
fn try_receive_and_queue_accounting() {
    let sim = Sim::new(94);
    let wan = LinkParams::mbps(4.0, Duration::from_millis(2));
    let (env, hosts) = world(
        &sim,
        &[
            topology::SiteSpec::open("a", 1, wan),
            topology::SiteSpec::open("b", 1, wan),
        ],
    );
    let net = env.net.clone();
    let checked = Arc::new(Mutex::new(false));
    {
        let env = env.clone();
        let host = SimHost::new(&net, hosts[1]);
        let checked = Arc::clone(&checked);
        sim.spawn("recv", move || {
            let node = GridNode::join(&env, host, "b0", ConnectivityProfile::open()).unwrap();
            let rp = node
                .create_receive_port("tryrecv", StackSpec::plain())
                .unwrap();
            assert!(rp.try_receive().is_none(), "nothing sent yet");
            // Wait until three messages are queued.
            while rp.queued() < 3 {
                gridsim_net::ctx::sleep(Duration::from_millis(20));
            }
            for expect in [1u32, 2, 3] {
                let mut m = rp.try_receive().expect("queued message");
                assert_eq!(m.read_u32().unwrap(), expect);
            }
            assert!(rp.try_receive().is_none());
            *checked.lock() = true;
        });
    }
    {
        let env = env.clone();
        let host = SimHost::new(&net, hosts[0]);
        sim.spawn("send", move || {
            gridsim_net::ctx::sleep(Duration::from_millis(100));
            let node = GridNode::join(&env, host, "a0", ConnectivityProfile::open()).unwrap();
            let mut sp = node.create_send_port();
            sp.connect("tryrecv").unwrap();
            for i in [1u32, 2, 3] {
                let mut m = sp.message();
                m.write_u32(i);
                m.finish().unwrap();
            }
            sp.close().unwrap();
        });
    }
    sim.run();
    assert!(*checked.lock());
}

/// Two firewalled sites and no relay: neither brokered method can work,
/// and the error says what each one ran into.
#[test]
fn failed_connect_names_every_method_it_tried() {
    let sim = Sim::new(95);
    let wan = LinkParams::mbps(2.0, Duration::from_millis(5));
    let (mut env, hosts) = world(
        &sim,
        &[
            topology::SiteSpec::firewalled("a", 1, wan),
            topology::SiteSpec::firewalled("b", 1, wan),
        ],
    );
    env.relay_addr = None;
    let net = env.net.clone();
    let (env_b, host_b) = (env.clone(), SimHost::new(&net, hosts[1]));
    sim.spawn("b", move || {
        let node = GridNode::join(&env_b, host_b, "b0", ConnectivityProfile::firewalled()).unwrap();
        let _rp = node
            .create_receive_port("walled", StackSpec::plain())
            .unwrap();
        gridsim_net::ctx::sleep(Duration::from_secs(5));
    });
    let done = sim.spawn("a", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(200));
        let host_a = SimHost::new(&net, hosts[0]);
        let node = GridNode::join(&env, host_a, "a0", ConnectivityProfile::firewalled()).unwrap();
        let err = node
            .create_send_port()
            .connect("walled")
            .unwrap_err()
            .to_string();
        assert!(
            err.starts_with("all establishment methods failed for 'walled': ")
                && err.contains("TCP splicing: no relay")
                && err.contains("; routed messages: no relay"),
            "{err}"
        );
    });
    sim.run();
    assert!(done.is_finished());
}
