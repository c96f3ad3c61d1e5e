//! Session-layer tests: channel multiplexing over shared data links.
//!
//! The invariants under test, per DESIGN.md §8:
//! - N same-spec channels between one node pair ride exactly ONE
//!   established link (`node/<id>/links`), found by exactly ONE Figure-4
//!   walk (`node/<id>/walks`) even under racing connects.
//! - Channel close is refcounted: the last detach tears the link down and
//!   GCs the table entry; a later connect establishes fresh.
//! - Different stack specs (e.g. stream counts) key separate links.
//! - Mux routing is cross-port: channels to different receive ports on the
//!   same peer share one link, and messages land on the right port.
//! - One mid-transfer flap triggers ONE recovery that replays every
//!   attached channel, preserving per-channel exactly-once FIFO.

use gridsim_net::{topology, FaultPlan, LinkParams, Metric, Sim, SockAddr};
use gridsim_tcp::{SimHost, TcpConfig};
use netgrid::{
    spawn_name_service, spawn_relay, ConnectivityProfile, EstablishMethod, GridNode, SendPort,
    StackSpec,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

const NS_PORT: u16 = 563;
const RELAY_PORT: u16 = 600;

/// Base RNG seed shifted by `NETGRID_TEST_SEED` (when set) so CI can sweep
/// this whole file across fixed seeds.
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

fn wan() -> LinkParams {
    LinkParams::mbps(4.0, Duration::from_millis(10))
}

/// Two open sites + a public services host (name service + relay).
fn world(sim: &Sim) -> (netgrid::GridEnv, SimHost, SimHost) {
    let net = sim.net();
    let (srv, a, b) = net.with(|w| {
        let mut grid = topology::Grid::build(
            w,
            &[
                topology::SiteSpec::open("site-a", 1, wan()),
                topology::SiteSpec::open("site-b", 1, wan()),
            ],
        );
        let (srv, _) = grid.add_public_host(w, "services");
        (srv, grid.sites[0].hosts[0], grid.sites[1].hosts[0])
    });
    let hsrv = SimHost::new(&net, srv);
    let ha = SimHost::new(&net, a);
    let hb = SimHost::new(&net, b);
    let env = netgrid::GridEnv::new(net.clone(), SockAddr::new(hsrv.ip(), NS_PORT))
        .with_relay(SockAddr::new(hsrv.ip(), RELAY_PORT));
    sim.spawn("services", move || {
        spawn_name_service(&hsrv, NS_PORT).unwrap();
        spawn_relay(&hsrv, RELAY_PORT).unwrap();
    });
    sim.run();
    (env, ha, hb)
}

/// Receive `total` tagged messages from one port and assert strict
/// per-tag FIFO: each tag's payload sequence must be exactly `0..count`.
fn assert_tagged_fifo(rp: &netgrid::ReceivePort, expect: &HashMap<u64, u64>) {
    let total: u64 = expect.values().sum();
    let mut seen: HashMap<u64, u64> = HashMap::new();
    for _ in 0..total {
        let mut m = rp.receive().unwrap();
        let tag = m.read_u64().unwrap();
        let seq = m.read_u64().unwrap();
        let next = seen.entry(tag).or_insert(0);
        assert_eq!(seq, *next, "exactly-once FIFO violated on channel {tag}");
        *next += 1;
    }
    for (tag, count) in expect {
        assert_eq!(seen.get(tag), Some(count), "channel {tag} lost messages");
    }
}

/// `node/<id>/<name>` from the world's metrics registry, read in a task.
fn metric(node: &GridNode, name: &'static str) -> i64 {
    gridsim_net::ctx::handle().metric(Metric("node", Some(node.id()), name))
}

fn send_tagged(sp: &mut SendPort, tag: u64, seq: u64) {
    let mut m = sp.message();
    m.write_u64(tag);
    m.write_u64(seq);
    m.write_bytes(&[0xa5u8; 64]);
    m.finish().unwrap();
}

/// Four channels to the same receive port share one established link and
/// one establishment walk; interleaved sends stay per-channel FIFO; the
/// last close tears the link down.
#[test]
fn channels_share_one_link_fifo() {
    const N_CH: u64 = 4;
    const MSGS: u64 = 10;
    let sim = Sim::new(seed(81));
    let (env, ha, hb) = world(&sim);
    let env_b = env.clone();
    let recv = sim.spawn("receiver", move || {
        let node = GridNode::join(&env_b, hb, "rx", ConnectivityProfile::open()).unwrap();
        let rp = node
            .create_receive_port("mux-share", StackSpec::plain())
            .unwrap();
        let expect: HashMap<u64, u64> = (0..N_CH).map(|t| (t, MSGS)).collect();
        assert_tagged_fifo(&rp, &expect);
    });
    let send = sim.spawn("sender", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(200));
        let node = GridNode::join(&env, ha, "tx", ConnectivityProfile::open()).unwrap();
        let mut ports: Vec<SendPort> = Vec::new();
        for _ in 0..N_CH {
            let mut sp = node.create_send_port();
            assert_eq!(
                sp.connect("mux-share").unwrap(),
                EstablishMethod::ClientServer
            );
            ports.push(sp);
        }
        assert_eq!(metric(&node, "walks"), 1, "connects were not deduped");
        assert_eq!(metric(&node, "links"), 1, "channels did not share a link");
        for seq in 0..MSGS {
            for (tag, sp) in ports.iter_mut().enumerate() {
                send_tagged(sp, tag as u64, seq);
            }
            gridsim_net::ctx::sleep(Duration::from_millis(20));
        }
        for sp in ports.drain(..) {
            sp.close().unwrap();
        }
        assert_eq!(metric(&node, "links"), 0, "last close did not GC the link");
        assert_eq!(metric(&node, "recoveries"), 0);
    });
    sim.run();
    assert!(recv.is_finished(), "receiver wedged");
    assert!(send.is_finished(), "sender wedged");
}

/// Two tasks racing `connect()` to the same port at the same sim instant
/// produce one walk and one link (the loser parks on the in-flight
/// establishment and attaches to its result); closing is refcounted — the
/// first close leaves the link up, the second tears it down.
#[test]
fn racing_connects_single_flight_and_refcounted_release() {
    let sim = Sim::new(seed(82));
    let (env, ha, hb) = world(&sim);
    let env_b = env.clone();
    let recv = sim.spawn("receiver", move || {
        let node = GridNode::join(&env_b, hb, "rx", ConnectivityProfile::open()).unwrap();
        let rp = node
            .create_receive_port("mux-race", StackSpec::plain())
            .unwrap();
        let expect: HashMap<u64, u64> = [(0, 1), (1, 1)].into();
        assert_tagged_fifo(&rp, &expect);
    });
    // One shared sender node; two racer tasks hit `connect()` at the same
    // sim instant. Everything runs in one sim batch, staggered by sleeps:
    // join at 200 ms, racers at 400 ms, closer at 900 ms.
    let node_cell: Arc<parking_lot::Mutex<Option<GridNode>>> =
        Arc::new(parking_lot::Mutex::new(None));
    let ports: Arc<parking_lot::Mutex<Vec<SendPort>>> =
        Arc::new(parking_lot::Mutex::new(Vec::new()));
    let nc = Arc::clone(&node_cell);
    sim.spawn("join", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(200));
        let node = GridNode::join(&env, ha, "tx", ConnectivityProfile::open()).unwrap();
        *nc.lock() = Some(node);
    });
    let racers: Vec<_> = (0..2u64)
        .map(|tag| {
            let nc = Arc::clone(&node_cell);
            let ports = Arc::clone(&ports);
            sim.spawn(format!("racer-{tag}"), move || {
                gridsim_net::ctx::sleep(Duration::from_millis(400));
                let node = nc.lock().clone().expect("node joined by 400ms");
                let mut sp = node.create_send_port();
                sp.connect("mux-race").unwrap();
                send_tagged(&mut sp, tag, 0);
                // Keep the port open until both racers finished, so the
                // refcount assertions below see both channels attached.
                ports.lock().push(sp);
            })
        })
        .collect();
    let nc = Arc::clone(&node_cell);
    let closer = sim.spawn("closer", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(900));
        let node = nc.lock().clone().unwrap();
        assert_eq!(metric(&node, "walks"), 1, "race ran two walks");
        assert_eq!(metric(&node, "links"), 1, "race created two links");
        let mut ps = ports.lock();
        let first = ps.pop().unwrap();
        let second = ps.pop().unwrap();
        drop(ps);
        first.close().unwrap();
        assert_eq!(
            metric(&node, "links"),
            1,
            "close of ONE channel tore down the shared link"
        );
        second.close().unwrap();
        assert_eq!(metric(&node, "links"), 0, "last close did not GC the link");
    });
    sim.run();
    for r in &racers {
        assert!(r.is_finished(), "racer wedged in claim");
    }
    assert!(recv.is_finished(), "receiver wedged");
    assert!(closer.is_finished(), "closer wedged");
}

/// Two receive ports of one peer registered at different stream counts
/// have different specs, so their channels get a link each: the session
/// layer never multiplexes across stacks that would assemble differently.
#[test]
fn different_stream_counts_use_separate_links() {
    let sim = Sim::new(seed(83));
    let (env, ha, hb) = world(&sim);
    let env_b = env.clone();
    let recv = sim.spawn("receiver", move || {
        let node = GridNode::join(&env_b, hb, "rx", ConnectivityProfile::open()).unwrap();
        let rp1 = node
            .create_receive_port("mux-specs-1", StackSpec::plain())
            .unwrap();
        let rp2 = node
            .create_receive_port("mux-specs-2", StackSpec::plain().with_streams(2))
            .unwrap();
        assert_tagged_fifo(&rp1, &[(0, 1)].into());
        assert_tagged_fifo(&rp2, &[(1, 1)].into());
    });
    let send = sim.spawn("sender", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(200));
        let node = GridNode::join(&env, ha, "tx", ConnectivityProfile::open()).unwrap();
        let mut sp1 = node.create_send_port();
        sp1.connect("mux-specs-1").unwrap();
        let mut sp2 = node.create_send_port();
        sp2.connect("mux-specs-2").unwrap();
        assert_eq!(
            metric(&node, "links"),
            2,
            "different stream counts must not share a link"
        );
        assert_eq!(metric(&node, "walks"), 2);
        send_tagged(&mut sp1, 0, 0);
        send_tagged(&mut sp2, 1, 0);
        sp1.close().unwrap();
        sp2.close().unwrap();
        assert_eq!(metric(&node, "links"), 0);
    });
    sim.run();
    assert!(recv.is_finished(), "receiver wedged");
    assert!(send.is_finished(), "sender wedged");
}

/// Channels to two DIFFERENT receive ports on the same peer (same spec)
/// share one link; the mux OPEN frames carry the port names, so each
/// message still lands on the right port.
#[test]
fn mux_routes_across_receive_ports() {
    let sim = Sim::new(seed(84));
    let (env, ha, hb) = world(&sim);
    let env_b = env.clone();
    let recv = sim.spawn("receiver", move || {
        let node = GridNode::join(&env_b, hb, "rx", ConnectivityProfile::open()).unwrap();
        let rp_a = node
            .create_receive_port("route-a", StackSpec::plain())
            .unwrap();
        let rp_b = node
            .create_receive_port("route-b", StackSpec::plain())
            .unwrap();
        let m = rp_a.receive().unwrap();
        assert_eq!(m.as_slice(), b"to-a", "wrong message routed to route-a");
        let m = rp_b.receive().unwrap();
        assert_eq!(m.as_slice(), b"to-b", "wrong message routed to route-b");
    });
    let send = sim.spawn("sender", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(200));
        let node = GridNode::join(&env, ha, "tx", ConnectivityProfile::open()).unwrap();
        let mut sp_a = node.create_send_port();
        sp_a.connect("route-a").unwrap();
        let mut sp_b = node.create_send_port();
        sp_b.connect("route-b").unwrap();
        assert_eq!(
            metric(&node, "links"),
            1,
            "same-spec channels to one peer must share a link across ports"
        );
        assert_eq!(metric(&node, "walks"), 1);
        sp_a.send(b"to-a").unwrap();
        sp_b.send(b"to-b").unwrap();
        sp_a.close().unwrap();
        sp_b.close().unwrap();
    });
    sim.run();
    assert!(recv.is_finished(), "receiver wedged");
    assert!(send.is_finished(), "sender wedged");
}

/// After the last channel tears the link down, a later connect finds no
/// cached entry and runs a fresh walk.
#[test]
fn reconnect_after_teardown_walks_again() {
    let sim = Sim::new(seed(85));
    let (env, ha, hb) = world(&sim);
    let env_b = env.clone();
    let recv = sim.spawn("receiver", move || {
        let node = GridNode::join(&env_b, hb, "rx", ConnectivityProfile::open()).unwrap();
        let rp = node
            .create_receive_port("mux-regc", StackSpec::plain())
            .unwrap();
        let expect: HashMap<u64, u64> = [(0, 1), (1, 1)].into();
        assert_tagged_fifo(&rp, &expect);
    });
    let send = sim.spawn("sender", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(200));
        let node = GridNode::join(&env, ha, "tx", ConnectivityProfile::open()).unwrap();
        let mut sp = node.create_send_port();
        sp.connect("mux-regc").unwrap();
        send_tagged(&mut sp, 0, 0);
        sp.close().unwrap();
        assert_eq!(metric(&node, "links"), 0);
        let mut sp = node.create_send_port();
        sp.connect("mux-regc").unwrap();
        assert_eq!(
            metric(&node, "walks"),
            2,
            "a torn-down link must not be reused"
        );
        send_tagged(&mut sp, 1, 0);
        sp.close().unwrap();
    });
    sim.run();
    assert!(recv.is_finished(), "receiver wedged");
    assert!(send.is_finished(), "sender wedged");
}

/// Eight channels mid-transfer, one path flap: exactly ONE link recovery
/// re-establishes and replays ALL channels (no per-channel walks), and
/// every channel's delivery stays exactly-once FIFO.
#[test]
fn one_flap_one_recovery_replays_all_channels() {
    const N_CH: u64 = 8;
    const MSGS: u64 = 40;
    let sim = Sim::new(seed(86));
    let (env, ha, hb) = world(&sim);
    ha.set_tcp_config(fast_abort());
    hb.set_tcp_config(fast_abort());
    let net = ha.net().clone();
    let links = net.with(|w| w.path_links(ha.node(), hb.node()));
    let plan = links.iter().fold(FaultPlan::new(), |p, &l| {
        p.flap(Duration::from_millis(1500), l, Duration::from_millis(1200))
    });
    net.with(|w| w.install_faults(plan));
    let env_b = env.clone();
    let recv = sim.spawn("receiver", move || {
        let node = GridNode::join(&env_b, hb, "rx", ConnectivityProfile::open()).unwrap();
        let rp = node
            .create_receive_port("mux-flap", StackSpec::plain())
            .unwrap();
        let expect: HashMap<u64, u64> = (0..N_CH).map(|t| (t, MSGS)).collect();
        assert_tagged_fifo(&rp, &expect);
    });
    let send = sim.spawn("sender", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(200));
        let node = GridNode::join(&env, ha, "tx", ConnectivityProfile::open()).unwrap();
        let mut ports: Vec<SendPort> = Vec::new();
        for _ in 0..N_CH {
            let mut sp = node.create_send_port();
            sp.connect("mux-flap").unwrap();
            ports.push(sp);
        }
        assert_eq!(metric(&node, "links"), 1);
        for seq in 0..MSGS {
            for (tag, sp) in ports.iter_mut().enumerate() {
                send_tagged(sp, tag as u64, seq);
            }
            gridsim_net::ctx::sleep(Duration::from_millis(40));
        }
        for sp in ports.drain(..) {
            sp.close().unwrap();
        }
        assert_eq!(
            metric(&node, "walks"),
            1,
            "recovery must not re-walk per channel"
        );
        assert_eq!(
            metric(&node, "recoveries"),
            1,
            "one flap must cost exactly one link recovery"
        );
        assert_eq!(metric(&node, "links"), 0);
    });
    sim.run();
    assert!(recv.is_finished(), "receiver wedged after flap");
    assert!(send.is_finished(), "sender wedged after flap");
}

// ------------------------------------------- property: mux exactly-once

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary send interleavings of three channels over one mux link,
    /// with one mid-transfer path flap at an arbitrary time: per-channel
    /// exactly-once FIFO always holds and nothing wedges.
    #[test]
    fn prop_mux_interleavings_exactly_once_fifo(
        order in proptest::collection::vec(0u64..3, 12..36),
        flap_at in 500u64..2200,
        down in 100u64..900,
    ) {
        let sim = Sim::new(seed(87));
        let (env, ha, hb) = world(&sim);
        ha.set_tcp_config(fast_abort());
        hb.set_tcp_config(fast_abort());
        let net = ha.net().clone();
        let links = net.with(|w| w.path_links(ha.node(), hb.node()));
        let plan = links.iter().fold(FaultPlan::new(), |p, &l| {
            p.flap(Duration::from_millis(flap_at), l, Duration::from_millis(down))
        });
        net.with(|w| w.install_faults(plan));
        let mut expect: HashMap<u64, u64> = HashMap::new();
        for &tag in &order {
            *expect.entry(tag).or_insert(0) += 1;
        }
        let env_b = env.clone();
        let expect_rx = expect.clone();
        let recv = sim.spawn("receiver", move || {
            let node = GridNode::join(&env_b, hb, "rx", ConnectivityProfile::open()).unwrap();
            let rp = node
                .create_receive_port("mux-prop", StackSpec::plain())
                .unwrap();
            assert_tagged_fifo(&rp, &expect_rx);
        });
        let send = sim.spawn("sender", move || {
            gridsim_net::ctx::sleep(Duration::from_millis(200));
            let node = GridNode::join(&env, ha, "tx", ConnectivityProfile::open()).unwrap();
            let mut ports: Vec<SendPort> = Vec::new();
            for _ in 0..3 {
                let mut sp = node.create_send_port();
                sp.connect("mux-prop").unwrap();
                ports.push(sp);
            }
            prop_assert_eq!(metric(&node, "links"), 1);
            let mut seqs = [0u64; 3];
            for &tag in &order {
                send_tagged(&mut ports[tag as usize], tag, seqs[tag as usize]);
                seqs[tag as usize] += 1;
                gridsim_net::ctx::sleep(Duration::from_millis(35));
            }
            for sp in ports.drain(..) {
                sp.close().unwrap();
            }
            Ok(())
        });
        sim.run();
        prop_assert!(recv.is_finished(), "receiver wedged");
        prop_assert!(send.is_finished(), "sender wedged");
    }
}

/// Batched frame coalescing must not hold mux control frames hostage to a
/// bulk data run: a channel OPEN is flushed the moment it is written
/// (DESIGN.md §5c), so late-joining channels finish setup while a large
/// run from another channel is still on the wire. Regression test for the
/// 64-channel setup outlier: with OPENs deferred behind the run, the late
/// channels would only complete after the bulk transfer drains.
#[test]
fn opens_not_delayed_behind_bulk_data_run() {
    const BULK_MSGS: u64 = 256;
    const BULK_LEN: usize = 32 * 1024; // 8 MiB total: several sim-seconds of run
    const LATE_CH: u64 = 8;
    const LATE_AT_MS: u64 = 1_500;
    let sim = Sim::new(seed(86));
    let (env, ha, hb) = world(&sim);

    let t_ctl: Arc<parking_lot::Mutex<Option<u64>>> = Arc::new(parking_lot::Mutex::new(None));
    let t_bulk: Arc<parking_lot::Mutex<Option<u64>>> = Arc::new(parking_lot::Mutex::new(None));
    let rx_cell: Arc<parking_lot::Mutex<Option<GridNode>>> =
        Arc::new(parking_lot::Mutex::new(None));

    let env_b = env.clone();
    let rxc = Arc::clone(&rx_cell);
    sim.spawn("rx-join", move || {
        let node = GridNode::join(&env_b, hb, "rx", ConnectivityProfile::open()).unwrap();
        *rxc.lock() = Some(node);
    });
    let rxc = Arc::clone(&rx_cell);
    let tb = Arc::clone(&t_bulk);
    let rx_bulk = sim.spawn("rx-bulk", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(300));
        let node = rxc.lock().clone().expect("rx node joined");
        let rp = node
            .create_receive_port("bulk-bg", StackSpec::plain())
            .unwrap();
        for _ in 0..BULK_MSGS {
            rp.receive().unwrap();
        }
        *tb.lock() = Some(gridsim_net::ctx::now().0);
    });
    let rxc = Arc::clone(&rx_cell);
    let tc = Arc::clone(&t_ctl);
    let rx_ctl = sim.spawn("rx-ctl", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(300));
        let node = rxc.lock().clone().expect("rx node joined");
        let rp = node
            .create_receive_port("late-ctl", StackSpec::plain())
            .unwrap();
        let expect: HashMap<u64, u64> = (0..LATE_CH).map(|t| (t, 1)).collect();
        assert_tagged_fifo(&rp, &expect);
        *tc.lock() = Some(gridsim_net::ctx::now().0);
    });

    let tx_cell: Arc<parking_lot::Mutex<Option<GridNode>>> =
        Arc::new(parking_lot::Mutex::new(None));
    let env_a = env.clone();
    let txc = Arc::clone(&tx_cell);
    sim.spawn("tx-join", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(200));
        let node = GridNode::join(&env_a, ha, "tx", ConnectivityProfile::open()).unwrap();
        *txc.lock() = Some(node);
    });
    let txc = Arc::clone(&tx_cell);
    let tx_bulk = sim.spawn("tx-bulk", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(500));
        let node = txc.lock().clone().expect("tx node joined");
        let mut sp = node.create_send_port();
        sp.connect("bulk-bg").unwrap();
        let body = vec![0x5au8; BULK_LEN];
        for _ in 0..BULK_MSGS {
            let mut m = sp.message();
            m.write_bytes(&body);
            m.finish().unwrap();
        }
        sp.close().unwrap();
    });
    let txc = Arc::clone(&tx_cell);
    let tx_late = sim.spawn("tx-late", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(LATE_AT_MS));
        let node = txc.lock().clone().expect("tx node joined");
        let mut ports: Vec<SendPort> = Vec::new();
        for tag in 0..LATE_CH {
            let mut sp = node.create_send_port();
            sp.connect("late-ctl").unwrap();
            send_tagged(&mut sp, tag, 0);
            ports.push(sp);
        }
        assert_eq!(
            metric(&node, "links"),
            1,
            "late channels opened a second link"
        );
        for sp in ports.drain(..) {
            sp.close().unwrap();
        }
    });

    sim.run();
    assert!(rx_bulk.is_finished(), "bulk receiver wedged");
    assert!(rx_ctl.is_finished(), "ctl receiver wedged");
    assert!(tx_bulk.is_finished(), "bulk sender wedged");
    assert!(tx_late.is_finished(), "late sender wedged");
    let t_ctl = t_ctl.lock().expect("ctl time recorded");
    let t_bulk = t_bulk.lock().expect("bulk time recorded");
    assert!(
        t_ctl < t_bulk,
        "late channels only finished after the bulk run ({t_ctl} ns vs {t_bulk} ns)"
    );
    // The 8 late setups ride message-granularity gaps in the run: they
    // must complete in well under half the remaining bulk time, not at
    // its tail.
    let late_ns = LATE_AT_MS * 1_000_000;
    assert!(
        (t_ctl - late_ns) * 2 < t_bulk - late_ns,
        "late setup took {} ms of the {} ms the bulk run had left — OPENs were \
         delayed behind the data run",
        (t_ctl - late_ns) / 1_000_000,
        (t_bulk - late_ns) / 1_000_000
    );
}
