//! Tier-1 smoke for the relay (DESIGN.md §10): one relay keeps a slow
//! receiver's backlog from stalling an unrelated pair and tells the hot
//! sender so with a typed BUSY; two meshed relays join clients that are
//! homed at different ones.

use gridsim_net::{topology, LinkParams, NatKind, Net, Sim, SimTime, SockAddr};
use gridsim_tcp::SimHost;
use netgrid::{
    spawn_name_service, spawn_relay, spawn_relay_mesh, ConnectivityProfile, EstablishMethod,
    GridEnv, GridNode, NatClass, RelayConfig, StackSpec,
};
use std::time::Duration;

const NS: u16 = 563;
const RELAY: u16 = 600;

/// `n_relays` relays (fully meshed when more than one) and the name
/// service on public hosts; a symmetric-NAT site of senders and a
/// firewalled site of receivers, `pairs` hosts each, so every pair can only
/// be Routed. Returns the relay addresses, senders and receivers.
fn world(
    sim: &Sim,
    n_relays: usize,
    pairs: usize,
) -> (Net, SockAddr, Vec<SockAddr>, Vec<SimHost>, Vec<SimHost>) {
    let net = sim.net();
    let wan = LinkParams::mbps(8.0, Duration::from_millis(10));
    let (srv, relays, senders, receivers) = net.with(|w| {
        let specs = [
            topology::SiteSpec::natted("senders", pairs, NatKind::SymmetricRandom, wan),
            topology::SiteSpec::firewalled("receivers", pairs, wan),
        ];
        let mut grid = topology::Grid::build(w, &specs);
        let (srv, _) = grid.add_public_host(w, "services");
        let relays: Vec<_> = (0..n_relays)
            .map(|i| grid.add_public_host(w, &format!("relay{i}")).0)
            .collect();
        let (s, r) = (grid.sites[0].hosts.clone(), grid.sites[1].hosts.clone());
        (srv, relays, s, r)
    });
    let host = |n| SimHost::new(&net, n);
    let hsrv = host(srv);
    let ns = SockAddr::new(hsrv.ip(), NS);
    let relay_hosts: Vec<SimHost> = relays.into_iter().map(host).collect();
    let addrs: Vec<SockAddr> = relay_hosts
        .iter()
        .map(|h| SockAddr::new(h.ip(), RELAY))
        .collect();
    let all = addrs.clone();
    sim.spawn("services", move || {
        spawn_name_service(&hsrv, NS).unwrap();
        if let [only] = &relay_hosts[..] {
            return spawn_relay(only, RELAY).unwrap();
        }
        for (i, h) in relay_hosts.iter().enumerate() {
            let cfg = RelayConfig {
                mesh_id: i as u64 + 1,
                peers: all.iter().copied().filter(|a| a.ip != h.ip()).collect(),
                ..RelayConfig::default()
            };
            spawn_relay_mesh(h, RELAY, cfg).unwrap();
        }
    });
    sim.run();
    let senders = senders.into_iter().map(host).collect();
    let receivers = receivers.into_iter().map(host).collect();
    (net, ns, addrs, senders, receivers)
}

/// What one pair reports once `sim.run()` returns: when the receiver had
/// everything, and how often the relay throttled the sender.
type Outcome = std::sync::Arc<parking_lot::Mutex<(Option<SimTime>, u64)>>;

/// Start `n` numbered messages of `len` bytes from `ha` to `hb` over port
/// `port`, the sender starting at `start`, the receiver pausing `pause`
/// after each message. The receiver checks exactly-once FIFO delivery.
fn start_pair(
    sim: &Sim,
    (env_a, ha): (GridEnv, SimHost),
    (env_b, hb): (GridEnv, SimHost),
    port: &'static str,
    (n, len): (u64, usize),
    start: Duration,
    pause: Duration,
) -> Outcome {
    let outcome = Outcome::default();
    let out = outcome.clone();
    sim.spawn(format!("{port}-recv"), move || {
        let profile = ConnectivityProfile::firewalled();
        let node = GridNode::join(&env_b, hb, &format!("{port}-recv"), profile).unwrap();
        let rp = node.create_receive_port(port, StackSpec::plain()).unwrap();
        for want in 0..n {
            let mut m = rp.receive().unwrap();
            assert_eq!(
                m.read_u64().unwrap(),
                want,
                "{port}: lost, repeated or out of order"
            );
            assert!(m.read_bytes(len).unwrap().iter().all(|&b| b == want as u8));
            gridsim_net::ctx::sleep(pause);
        }
        out.lock().0 = Some(gridsim_net::ctx::now());
    });
    let out = outcome.clone();
    sim.spawn(format!("{port}-send"), move || {
        gridsim_net::ctx::sleep(start);
        let profile = ConnectivityProfile::natted(NatClass::SymmetricRandom);
        let node = GridNode::join(&env_a, ha, &format!("{port}-send"), profile).unwrap();
        let mut sp = node.create_send_port();
        assert_eq!(sp.connect(port).unwrap(), EstablishMethod::Routed);
        for i in 0..n {
            let mut m = sp.message();
            m.write_u64(i);
            m.write_bytes(&vec![i as u8; len]);
            m.finish().unwrap();
        }
        sp.close().unwrap();
        out.lock().1 = node.relay_busy_throttles();
    });
    outcome
}

#[test]
fn slow_receiver_throttles_its_sender_and_nobody_else() {
    let sim = Sim::new(11);
    let (net, ns, relays, senders, receivers) = world(&sim, 1, 2);
    let env = GridEnv::new(net, ns).with_relay(relays[0]);
    let end = |hosts: &[SimHost], i: usize| (env.clone(), hosts[i].clone());
    // Bulk into a receiver that takes 100 ms over each message: the backlog
    // fills the port's 64-message queue, the stream's, the sockets, and
    // then climbs into the relay's shard queue.
    let hot = start_pair(
        &sim,
        end(&senders, 0),
        end(&receivers, 0),
        "slow",
        (256, 16 * 1024),
        Duration::from_millis(200),
        Duration::from_millis(100),
    );
    // A second pair starts once the first is backed up.
    let other = start_pair(
        &sim,
        end(&senders, 1),
        end(&receivers, 1),
        "fast",
        (40, 64),
        Duration::from_secs(4),
        Duration::ZERO,
    );
    sim.run();
    let (hot_done, hot_throttles) = *hot.lock();
    let (other_done, other_throttles) = *other.lock();
    let hot_done = hot_done.expect("slow pair finished");
    let other_done = other_done.expect("fast pair finished");
    assert!(
        hot_throttles >= 1,
        "the relay never told the hot sender BUSY"
    );
    assert_eq!(other_throttles, 0, "BUSY reached a sender it was not about");
    // Started at 4 s, the fast pair needs well under a second of its own;
    // the slow one is busy for 256 x 100 ms.
    assert!(
        other_done.as_nanos() < 6_000_000_000 && other_done < hot_done,
        "the fast pair ({other_done:?}) waited for the slow one ({hot_done:?})"
    );
}

#[test]
fn ends_homed_at_different_relays_reach_each_other() {
    let sim = Sim::new(12);
    let (net, ns, relays, senders, receivers) = world(&sim, 2, 1);
    let homed = |order: [SockAddr; 2]| GridEnv::new(net.clone(), ns).with_relays(&order);
    let pair = start_pair(
        &sim,
        (homed([relays[0], relays[1]]), senders[0].clone()),
        (homed([relays[1], relays[0]]), receivers[0].clone()),
        "across",
        (40, 4096),
        Duration::from_millis(200),
        Duration::ZERO,
    );
    sim.run();
    assert!(
        pair.lock().0.is_some(),
        "receiver did not get every message"
    );
}

/// Hostile bytes on a relay connection (ROADMAP aim 3): each malformed
/// stream ends in a typed error in the relay's reader — the relay hangs up
/// on that connection, and on no other — while a routed pair through the
/// same relay keeps delivering exactly once, in order.
#[test]
fn malformed_frames_end_their_own_connection_only() {
    use gridzip::varint;
    use netgrid::wire::{FrameWriter, MAX_FRAME};
    const OP_HELLO: u8 = 1;

    let sim = Sim::new(13);
    let (net, ns, relays, senders, receivers) = world(&sim, 1, 2);
    let env = GridEnv::new(net, ns).with_relay(relays[0]);
    let bystander = start_pair(
        &sim,
        (env.clone(), senders[0].clone()),
        (env, receivers[0].clone()),
        "bystander",
        (400, 4096),
        Duration::from_millis(200),
        Duration::from_millis(10),
    );
    let (hostile, relay) = (senders[1].clone(), relays[0]);
    let varint_of = |v: u64| {
        let mut bytes = Vec::new();
        varint::put(&mut bytes, v);
        bytes
    };
    // (what, the bytes, is the connection HELLO'd first, does the relay
    // hang up on the bytes alone)
    let huge = [varint_of(MAX_FRAME as u64), vec![7; 10]].concat();
    let cases: Vec<(&str, Vec<u8>, bool, bool)> = vec![
        ("1 MiB declared, 10 bytes sent", huge.clone(), true, false),
        ("1 MiB declared as the first frame", huge, false, false),
        ("all-continuation varint", vec![0x80; 10], true, true),
        (
            "length over MAX_FRAME",
            varint_of(MAX_FRAME as u64 + 1),
            false,
            true,
        ),
        ("zero-length frame", vec![0], true, true),
        ("zero-length first frame", vec![0], false, true),
    ];
    let done = sim.spawn("hostile", move || {
        // Mid-transfer: the bystander streams from 0.3 s to past 4 s, the
        // six cases take until 2.8 s.
        gridsim_net::ctx::sleep(Duration::from_millis(500));
        for (i, (what, bytes, hello, fatal)) in cases.into_iter().enumerate() {
            let s = hostile.connect(relay).unwrap();
            if hello {
                let hello = FrameWriter::new().u8(OP_HELLO).u64(9000 + i as u64);
                hello.send(&mut s.clone()).unwrap();
            }
            s.write_all_blocking(&bytes).unwrap();
            if !fatal {
                // A frame that is still arriving is no error: the relay
                // waits (holding the ten bytes, not the declared MiB) until
                // the connection ends inside the frame.
                gridsim_net::ctx::sleep(Duration::from_secs(1));
                assert!(!s.readable(), "{what}: relay answered or hung up early");
                s.shutdown_write().unwrap();
            }
            let hung_up = matches!(s.read_some(&mut [0u8; 16]), Ok(0) | Err(_));
            assert!(
                hung_up,
                "{what}: the relay sent bytes instead of hanging up"
            );
        }
    });
    sim.run();
    assert!(
        done.is_finished(),
        "a malformed stream wedged its connection"
    );
    assert!(
        bystander.lock().0.is_some(),
        "the bystander pair did not get every message"
    );
}
