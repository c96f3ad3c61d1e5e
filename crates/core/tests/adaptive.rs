//! Live path reconfiguration end-to-end: manual RECONFIG swaps at frame
//! boundaries, exactly-once FIFO across a swap that collides with a link
//! flap, and the opt-in session-layer control loop probing stripe count
//! up on a window-limited WAN path (DESIGN.md §11).

use gridsim_net::{topology, FaultPlan, LinkParams, Sim, SockAddr};
use gridsim_tcp::{SimHost, TcpConfig};
use netgrid::{
    spawn_name_service, spawn_relay, ConnectivityProfile, GridNode, PathControlConfig, PathParams,
    StackSpec,
};
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

fn fast_abort() -> TcpConfig {
    TcpConfig {
        initial_rto: Duration::from_millis(200),
        min_rto: Duration::from_millis(200),
        max_rto: Duration::from_millis(400),
        max_rto_strikes: 2,
        ..TcpConfig::default()
    }
}

/// Two open sites over `wan`, plus a public services host (name service +
/// relay).
fn world(sim: &Sim, wan: LinkParams) -> (netgrid::GridEnv, SimHost, SimHost) {
    let net = sim.net();
    let (srv, a, b) = net.with(|w| {
        let mut grid = topology::Grid::build(
            w,
            &[
                topology::SiteSpec::open("site-a", 1, wan),
                topology::SiteSpec::open("site-b", 1, wan),
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

/// Receive `msgs` sequenced messages, asserting strict FIFO exactly-once.
fn spawn_sequenced_receiver(
    sim: &Sim,
    env: &netgrid::GridEnv,
    hb: SimHost,
    port_name: &'static str,
    spec: StackSpec,
    msgs: u64,
    payload: usize,
) -> gridsim_net::JoinHandle<()> {
    let env_b = env.clone();
    sim.spawn("receiver", move || {
        let node = GridNode::join(
            &env_b,
            hb,
            &format!("{port_name}-recv"),
            ConnectivityProfile::open(),
        )
        .unwrap();
        let rp = node.create_receive_port(port_name, spec).unwrap();
        for i in 0..msgs {
            let mut m = rp.receive().unwrap();
            assert_eq!(m.read_u64().unwrap(), i, "exactly-once FIFO violated");
            assert_eq!(m.remaining().len(), payload);
        }
    })
}

/// Manual reconfiguration mid-stream: re-stripe, shrink the block, toggle
/// compression on and off again — FIFO order must hold across every swap
/// and the live parameters must track each committed change.
#[test]
fn reconfigure_switches_live_preserving_fifo() {
    let sim = Sim::new(seed(71));
    let (env, ha, hb) = world(&sim, LinkParams::mbps(4.0, Duration::from_millis(10)));
    let spec = StackSpec::plain().with_streams(4);
    let recv = spawn_sequenced_receiver(&sim, &env, hb, "reconf", spec, 60, 2048);
    let env_a = env.clone();
    let send = sim.spawn("sender", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(200));
        let node = GridNode::join(&env_a, ha, "reconf-send", ConnectivityProfile::open()).unwrap();
        let mut sp = node.create_send_port();
        sp.connect("reconf").unwrap();
        let phases: [Option<PathParams>; 3] = [
            // Drop to 2 stripes, halve the block, compress.
            Some(PathParams {
                stripes: 2,
                block_size: 16 * 1024,
                compression_level: Some(1),
            }),
            // Back up to 4 stripes, plain.
            Some(PathParams {
                stripes: 4,
                block_size: 32 * 1024,
                compression_level: None,
            }),
            None,
        ];
        let mut i = 0u64;
        for phase in phases {
            for _ in 0..20 {
                let mut m = sp.message();
                m.write_u64(i);
                m.write_bytes(&[0x5au8; 2048]);
                m.finish().unwrap();
                i += 1;
            }
            if let Some(params) = phase {
                assert!(sp.reconfigure(params).unwrap(), "reconfig was a no-op");
                assert_eq!(sp.path_params(0), Some(params));
            }
        }
        sp.close().unwrap();
    });
    sim.run();
    assert!(recv.is_finished(), "receiver wedged across reconfig");
    assert!(send.is_finished(), "sender wedged across reconfig");
}

/// A RECONFIG that collides with a path flap: the ack never arrives, the
/// attempt funnels into link recovery (full resume replay), and
/// exactly-once FIFO still holds end to end. Reconfiguring again after
/// the path heals succeeds.
#[test]
fn reconfigure_under_flap_exactly_once() {
    let sim = Sim::new(seed(72));
    let (env, ha, hb) = world(&sim, LinkParams::mbps(2.0, Duration::from_millis(10)));
    ha.set_tcp_config(fast_abort());
    hb.set_tcp_config(fast_abort());
    let net = ha.net().clone();
    let links = net.with(|w| w.path_links(ha.node(), hb.node()));
    let plan = links.iter().fold(FaultPlan::new(), |p, &l| {
        p.flap(Duration::from_millis(1500), l, Duration::from_millis(1200))
    });
    net.with(|w| w.install_faults(plan));
    let spec = StackSpec::plain().with_streams(2);
    let recv = spawn_sequenced_receiver(&sim, &env, hb, "reconf-flap", spec, 50, 64);
    let env_a = env.clone();
    let reconf_results = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let results = Arc::clone(&reconf_results);
    let send = sim.spawn("sender", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(200));
        let node =
            GridNode::join(&env_a, ha, "reconf-flap-send", ConnectivityProfile::open()).unwrap();
        let mut sp = node.create_send_port();
        sp.connect("reconf-flap").unwrap();
        for i in 0..50u64 {
            let mut m = sp.message();
            m.write_u64(i);
            m.write_bytes(&[0x5au8; 64]);
            m.finish().unwrap();
            gridsim_net::ctx::sleep(Duration::from_millis(40));
            if i == 30 || i == 45 {
                // i == 30 lands at ~1.6 s: inside the outage. The attempt
                // may fail (recovery resynchronizes) or succeed after the
                // recovery replay; either way order must survive. i == 45
                // runs on the healed path and must succeed.
                let r = sp.reconfigure(PathParams {
                    stripes: 1,
                    block_size: 8 * 1024,
                    compression_level: None,
                });
                results.lock().push((i, r.is_ok()));
            }
        }
        sp.close().unwrap();
    });
    sim.run();
    assert!(recv.is_finished(), "receiver wedged after flap + reconfig");
    assert!(send.is_finished(), "sender wedged after flap + reconfig");
    let results = reconf_results.lock();
    assert_eq!(results.len(), 2);
    // The post-heal attempt must succeed: either the mid-flap one already
    // committed (second is then a cheap no-op, Ok(false)) or the link
    // recovered to the establishment spec and the second swap applies.
    assert!(results[1].1, "reconfig on healed path failed");
}

/// The opt-in control loop on a window-limited WAN (high
/// bandwidth-delay product, default socket buffers): starting from one
/// active stripe with three parked spares, sustained send pressure makes
/// the controller probe the stripe ladder up, and each kept probe is a
/// real goodput win. FIFO holds across every controller-issued swap.
#[test]
fn controller_probes_stripes_up_live() {
    let sim = Sim::new(seed(73));
    // ~9 MB/s at 43 ms RTT: BDP far above the default send buffer, so a
    // single stream is window-limited — the regime where the paper's
    // parallel streams pay off.
    let (env, ha, hb) = world(&sim, LinkParams::mbps(72.0, Duration::from_millis(43)));
    let env = env.with_path_control(PathControlConfig {
        interval: Duration::from_millis(100),
        cooldown: 2,
    });
    let spec = StackSpec::plain().with_streams(4);
    const MSGS: u64 = 300;
    const PAYLOAD: usize = 32 * 1024;
    let recv = spawn_sequenced_receiver(&sim, &env, hb, "ctl", spec, MSGS, PAYLOAD);
    let env_a = env.clone();
    let final_params = Arc::new(parking_lot::Mutex::new(None));
    let fp = Arc::clone(&final_params);
    let send = sim.spawn("sender", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(200));
        let node = GridNode::join(&env_a, ha, "ctl-send", ConnectivityProfile::open()).unwrap();
        let mut sp = node.create_send_port();
        sp.connect("ctl").unwrap();
        // Establishment dialed 4 connections; squeeze down to one active
        // stripe. The controller's headroom probe walks back up.
        sp.reconfigure(PathParams {
            stripes: 1,
            block_size: 32 * 1024,
            compression_level: None,
        })
        .unwrap();
        for i in 0..MSGS {
            let mut m = sp.message();
            m.write_u64(i);
            m.write_bytes(&[0x5au8; PAYLOAD]);
            m.finish().unwrap();
        }
        *fp.lock() = sp.path_params(0);
        // The control loop leaves an audit trail: committed swaps burn
        // epochs and every decision came from a telemetry sample.
        assert!(
            sp.path_epoch(0).unwrap() > 0,
            "controller changed params without burning an epoch"
        );
        let ring = sp.path_telemetry(0).unwrap();
        assert!(
            !ring.is_empty(),
            "path control on but telemetry ring is empty"
        );
        assert!(
            ring.windows(2).all(|w| w[0].at_micros <= w[1].at_micros),
            "telemetry ring out of order"
        );
        sp.close().unwrap();
    });
    sim.run();
    assert!(recv.is_finished(), "receiver wedged under path control");
    assert!(send.is_finished(), "sender wedged under path control");
    let params = final_params.lock().take().expect("sender recorded params");
    assert!(
        params.stripes > 1,
        "controller never probed stripes up: {params:?}"
    );
}
