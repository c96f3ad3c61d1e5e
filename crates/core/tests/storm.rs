//! Connection-storm tests: batched channel establishment and many nodes
//! racing `connect()` at the same sim instant.
//!
//! The invariants under test (DESIGN.md §9):
//! - Establishment walks == distinct `LinkKey`s, storm or not: 16 nodes
//!   hitting ONE peer cost one walk per node; one node hitting 16 distinct
//!   peers costs 16 walks — run CONCURRENTLY, not serialized by any global
//!   ordering.
//! - Batched establishment announces N channels with ONE `OPEN`
//!   control frame (the fresh link's anchor rides the stream preamble);
//!   sequential connects still cost one OPEN each.
//! - A mid-storm flap costs each affected link exactly one recovery and
//!   preserves per-channel exactly-once FIFO.

use gridsim_net::{topology, FaultPlan, LinkParams, Metric, Sim, SockAddr};
use gridsim_tcp::{SimHost, TcpConfig};
use netgrid::{
    spawn_name_service, spawn_relay, ConnectivityProfile, GridNode, SendPort, StackSpec,
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

/// Two open sites with `a` and `b` hosts + a public services host.
fn world_n(sim: &Sim, a: usize, b: usize) -> (netgrid::GridEnv, Vec<SimHost>, Vec<SimHost>) {
    let net = sim.net();
    let (srv, ha, hb) = net.with(|w| {
        let mut grid = topology::Grid::build(
            w,
            &[
                topology::SiteSpec::open("site-a", a, wan()),
                topology::SiteSpec::open("site-b", b, wan()),
            ],
        );
        let (srv, _) = grid.add_public_host(w, "services");
        (
            srv,
            grid.sites[0].hosts.clone(),
            grid.sites[1].hosts.clone(),
        )
    });
    let hsrv = SimHost::new(&net, srv);
    let ha = ha.iter().map(|&h| SimHost::new(&net, h)).collect();
    let hb = hb.iter().map(|&h| SimHost::new(&net, h)).collect();
    let env = netgrid::GridEnv::new(net.clone(), SockAddr::new(hsrv.ip(), NS_PORT))
        .with_relay(SockAddr::new(hsrv.ip(), RELAY_PORT));
    sim.spawn("services", move || {
        spawn_name_service(&hsrv, NS_PORT).unwrap();
        spawn_relay(&hsrv, RELAY_PORT).unwrap();
    });
    sim.run();
    (env, ha, hb)
}

/// Receive tagged messages from one port and assert strict per-tag FIFO.
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

/// 16 sender NODES race `connect()` to one peer at the same sim instant.
/// Each node holds its own link table, so the storm costs one walk and one
/// link PER NODE (walks == distinct (sender, LinkKey) pairs), and every
/// channel stays FIFO.
#[test]
fn sixteen_nodes_storm_one_peer() {
    const N: usize = 16;
    const MSGS: u64 = 3;
    let sim = Sim::new(seed(91));
    let (env, ha, hb) = world_n(&sim, N, 1);
    let env_b = env.clone();
    let hb0 = hb[0].clone();
    let recv = sim.spawn("receiver", move || {
        let node = GridNode::join(&env_b, hb0, "rx", ConnectivityProfile::open()).unwrap();
        let rp = node
            .create_receive_port("storm-one", StackSpec::plain())
            .unwrap();
        let expect: HashMap<u64, u64> = (0..N as u64).map(|t| (t, MSGS)).collect();
        assert_tagged_fifo(&rp, &expect);
    });
    let senders: Vec<_> = ha
        .into_iter()
        .enumerate()
        .map(|(i, host)| {
            let env = env.clone();
            sim.spawn(format!("storm-send-{i}"), move || {
                // All joins and connects fire at the same instant.
                gridsim_net::ctx::sleep(Duration::from_millis(200));
                let node =
                    GridNode::join(&env, host, &format!("tx-{i}"), ConnectivityProfile::open())
                        .unwrap();
                let mut sp = node.create_send_port();
                sp.connect("storm-one").unwrap();
                for seq in 0..MSGS {
                    send_tagged(&mut sp, i as u64, seq);
                }
                sp.close().unwrap();
                assert_eq!(metric(&node, "walks"), 1, "node {i} walked twice");
                assert_eq!(metric(&node, "links"), 0, "node {i} leaked its link");
            })
        })
        .collect();
    sim.run();
    assert!(recv.is_finished(), "receiver wedged");
    for (i, s) in senders.iter().enumerate() {
        assert!(s.is_finished(), "sender {i} wedged in the storm");
    }
}

/// One node races `connect()` to 16 DISTINCT peers: 16 distinct LinkKeys,
/// so exactly 16 walks — and they must run concurrently (single-flight is
/// per-LinkKey, not global). The in-flight gauge proves the overlap.
#[test]
fn sixteen_distinct_peers_walk_concurrently() {
    const N: usize = 16;
    let sim = Sim::new(seed(92));
    let (env, ha, hb) = world_n(&sim, 1, N);
    let receivers: Vec<_> = hb
        .into_iter()
        .enumerate()
        .map(|(i, host)| {
            let env = env.clone();
            sim.spawn(format!("recv-{i}"), move || {
                let node =
                    GridNode::join(&env, host, &format!("rx-{i}"), ConnectivityProfile::open())
                        .unwrap();
                let rp = node
                    .create_receive_port(&format!("storm-peer-{i}"), StackSpec::plain())
                    .unwrap();
                let expect: HashMap<u64, u64> = [(i as u64, 1)].into();
                assert_tagged_fifo(&rp, &expect);
            })
        })
        .collect();
    let node_cell: Arc<parking_lot::Mutex<Option<GridNode>>> =
        Arc::new(parking_lot::Mutex::new(None));
    let ports: Arc<parking_lot::Mutex<Vec<SendPort>>> =
        Arc::new(parking_lot::Mutex::new(Vec::new()));
    let nc = Arc::clone(&node_cell);
    let env_a = env.clone();
    let ha0 = ha[0].clone();
    sim.spawn("join", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(200));
        let node = GridNode::join(&env_a, ha0, "tx", ConnectivityProfile::open()).unwrap();
        *nc.lock() = Some(node);
    });
    let racers: Vec<_> = (0..N as u64)
        .map(|i| {
            let nc = Arc::clone(&node_cell);
            let ports = Arc::clone(&ports);
            sim.spawn(format!("racer-{i}"), move || {
                gridsim_net::ctx::sleep(Duration::from_millis(400));
                let node = nc.lock().clone().expect("node joined by 400ms");
                let mut sp = node.create_send_port();
                sp.connect(&format!("storm-peer-{i}")).unwrap();
                send_tagged(&mut sp, i, 0);
                ports.lock().push(sp);
            })
        })
        .collect();
    let nc = Arc::clone(&node_cell);
    let closer = sim.spawn("closer", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(1500));
        let node = nc.lock().clone().unwrap();
        assert_eq!(
            metric(&node, "walks"),
            N as i64,
            "walks must equal distinct LinkKeys"
        );
        assert_eq!(
            metric(&node, "links"),
            N as i64,
            "distinct peers must not share links"
        );
        // All 16 racers park inside their walks before any completes, so
        // serialized establishment — the old global claim ordering — would
        // cap this world's peak at 1.
        let peak = Metric("world", None, "walk_peak");
        assert_eq!(
            gridsim_net::ctx::handle().metric(peak),
            N as i64,
            "walks to distinct peers were serialized"
        );
        for sp in ports.lock().drain(..) {
            sp.close().unwrap();
        }
        assert_eq!(metric(&node, "links"), 0, "close did not GC the links");
    });
    sim.run();
    for (i, r) in racers.iter().enumerate() {
        assert!(r.is_finished(), "racer {i} wedged in claim");
    }
    for (i, r) in receivers.iter().enumerate() {
        assert!(r.is_finished(), "receiver {i} wedged");
    }
    assert!(closer.is_finished(), "closer wedged");
}

/// `connect_batch` announces the whole batch with ONE control frame (the
/// anchor channel rides the fresh link's stream preamble, the 15 extras
/// ride one OPEN) — where sequential connects cost one OPEN frame
/// per post-anchor channel. No duplicate OPENs, one walk, one link.
#[test]
fn batch_connect_one_open_frame() {
    const N: usize = 16;
    const MSGS: u64 = 2;
    let sim = Sim::new(seed(93));
    let (env, ha, hb) = world_n(&sim, 1, 1);
    let env_b = env.clone();
    let hb0 = hb[0].clone();
    let recv = sim.spawn("receiver", move || {
        let node = GridNode::join(&env_b, hb0, "rx", ConnectivityProfile::open()).unwrap();
        let rp = node
            .create_receive_port("storm-batch", StackSpec::plain())
            .unwrap();
        // Batch round, then sequential round: same tag set both times.
        for _ in 0..2 {
            let expect: HashMap<u64, u64> = (0..N as u64).map(|t| (t, MSGS)).collect();
            assert_tagged_fifo(&rp, &expect);
        }
    });
    let env_a = env.clone();
    let ha0 = ha[0].clone();
    let send = sim.spawn("sender", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(200));
        let node = GridNode::join(&env_a, ha0, "tx", ConnectivityProfile::open()).unwrap();
        // Round 1: batched. One walk, one link, ONE control frame.
        let mut ports = node.connect_batch("storm-batch", N).unwrap();
        assert_eq!(metric(&node, "walks"), 1, "batch ran extra walks");
        assert_eq!(metric(&node, "links"), 1, "batch split across links");
        assert_eq!(
            metric(&node, "open_frames"),
            1,
            "a batch of {N} must cost exactly one OPEN frame"
        );
        for seq in 0..MSGS {
            for (tag, sp) in ports.iter_mut().enumerate() {
                send_tagged(sp, tag as u64, seq);
            }
        }
        for sp in ports.drain(..) {
            sp.close().unwrap();
        }
        assert_eq!(metric(&node, "links"), 0, "batch close did not GC the link");
        // Round 2: sequential connects to the SAME port. The first connect
        // establishes fresh (anchor on the preamble, no frame); each of the
        // other 15 costs one OPEN.
        let mut ports = Vec::new();
        for _ in 0..N {
            let mut sp = node.create_send_port();
            sp.connect("storm-batch").unwrap();
            ports.push(sp);
        }
        assert_eq!(
            metric(&node, "open_frames"),
            1 + (N as i64 - 1),
            "sequential connects must cost one OPEN per post-anchor channel"
        );
        for seq in 0..MSGS {
            for (tag, sp) in ports.iter_mut().enumerate() {
                send_tagged(sp, tag as u64, seq);
            }
        }
        for sp in ports.drain(..) {
            sp.close().unwrap();
        }
    });
    sim.run();
    assert!(recv.is_finished(), "receiver wedged");
    assert!(send.is_finished(), "sender wedged");
}

/// Empty and single-element batches: count 0 returns no ports (and costs
/// nothing); count 1 degenerates to the plain single-OPEN wire format.
#[test]
fn batch_connect_degenerate_sizes() {
    let sim = Sim::new(seed(94));
    let (env, ha, hb) = world_n(&sim, 1, 1);
    let env_b = env.clone();
    let hb0 = hb[0].clone();
    sim.spawn("receiver", move || {
        let node = GridNode::join(&env_b, hb0, "rx", ConnectivityProfile::open()).unwrap();
        let rp = node
            .create_receive_port("storm-degen", StackSpec::plain())
            .unwrap();
        let expect: HashMap<u64, u64> = [(7, 1)].into();
        assert_tagged_fifo(&rp, &expect);
    });
    let env_a = env.clone();
    let ha0 = ha[0].clone();
    let send = sim.spawn("sender", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(200));
        let node = GridNode::join(&env_a, ha0, "tx", ConnectivityProfile::open()).unwrap();
        let empty = node.connect_batch("storm-degen", 0).unwrap();
        assert!(empty.is_empty());
        assert_eq!(metric(&node, "walks"), 0, "empty batch ran a walk");
        let mut one = node.connect_batch("storm-degen", 1).unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(metric(&node, "walks"), 1);
        send_tagged(&mut one[0], 7, 0);
        for sp in one.drain(..) {
            sp.close().unwrap();
        }
    });
    sim.run();
    assert!(send.is_finished(), "sender wedged");
}

/// Four nodes storm one receiver with a batch of four channels each; ONE
/// path flap lands mid-transfer. Each affected link recovers exactly once
/// and every one of the 16 channels keeps exactly-once FIFO.
#[test]
fn mid_storm_flap_exactly_once_fifo() {
    const NODES: usize = 4;
    const CHANS: usize = 4;
    const MSGS: u64 = 24;
    const GAP: Duration = Duration::from_millis(100);
    const DOWN: Duration = Duration::from_millis(1200);
    let sim = Sim::new(seed(95));
    let (env, ha, hb) = world_n(&sim, NODES, 1);
    for h in ha.iter().chain(hb.iter()) {
        h.set_tcp_config(fast_abort());
    }
    let net = sim.net();
    // Flap the full path of sender 0: its uplink plus the backbone + site-b
    // links every other sender shares, mid-transfer.
    let links = net.with(|w| w.path_links(ha[0].node(), hb[0].node()));
    let plan = links.iter().fold(FaultPlan::new(), |p, &l| {
        p.flap(Duration::from_millis(800), l, DOWN)
    });
    net.with(|w| w.install_faults(plan));
    let env_b = env.clone();
    let hb0 = hb[0].clone();
    let recv = sim.spawn("receiver", move || {
        let node = GridNode::join(&env_b, hb0, "rx", ConnectivityProfile::open()).unwrap();
        let rp = node
            .create_receive_port("storm-flap", StackSpec::plain())
            .unwrap();
        let expect: HashMap<u64, u64> = (0..NODES as u64)
            .flat_map(|n| (0..CHANS as u64).map(move |c| (n * 100 + c, MSGS)))
            .collect();
        assert_tagged_fifo(&rp, &expect);
    });
    let senders: Vec<_> = ha
        .into_iter()
        .enumerate()
        .map(|(i, host)| {
            let env = env.clone();
            sim.spawn(format!("flap-send-{i}"), move || {
                gridsim_net::ctx::sleep(Duration::from_millis(200));
                let node =
                    GridNode::join(&env, host, &format!("tx-{i}"), ConnectivityProfile::open())
                        .unwrap();
                let mut ports = node.connect_batch("storm-flap", CHANS).unwrap();
                assert_eq!(metric(&node, "walks"), 1);
                for seq in 0..MSGS {
                    for (c, sp) in ports.iter_mut().enumerate() {
                        send_tagged(sp, i as u64 * 100 + c as u64, seq);
                    }
                    gridsim_net::ctx::sleep(GAP);
                }
                for sp in ports.drain(..) {
                    sp.close().unwrap();
                }
                assert_eq!(
                    metric(&node, "recoveries"),
                    1,
                    "node {i}: one flap must cost exactly one recovery"
                );
            })
        })
        .collect();
    sim.run();
    assert!(recv.is_finished(), "receiver wedged");
    for (i, s) in senders.iter().enumerate() {
        assert!(s.is_finished(), "sender {i} wedged across the flap");
    }
}
