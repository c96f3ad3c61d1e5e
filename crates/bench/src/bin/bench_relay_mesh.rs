//! Relay-mesh benchmark (DESIGN.md §10): M sender nodes → M receiver
//! nodes forced onto the Routed method, across 1, 2 and 4 meshed relays
//! with pair i homed at relay i mod k. Each relay sits on its own
//! constrained uplink, so aggregate routed throughput should GROW with
//! relay count — the scaling the sharded forwarding plane + mesh buys
//! over the single shared relay. Two extra rounds probe the failure
//! modes: a one-hot skew round (every pair homed at one relay of four,
//! shard queues saturate, typed BUSY throttles must fire) and a
//! mid-transfer relay-kill round (exactly-once FIFO across failover).
//! Writes `BENCH_relaymesh.json`.

use gridsim_net::{topology, LinkParams, NatKind, Sim, SimTime, SockAddr};
use gridsim_tcp::{crash_node, SimHost};
use netgrid::{
    spawn_name_service, spawn_relay_mesh, ConnectivityProfile, EstablishMethod, GridEnv, GridNode,
    NatClass, RelayConfig, StackSpec,
};
use netgrid_bench::*;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// Per-relay uplink: the shared resource every routed byte crosses twice.
fn relay_uplink() -> LinkParams {
    LinkParams::mbps(4.0, Duration::from_millis(1)).with_queue(1 << 20)
}

/// Site uplinks are deliberately generous: the relays must be the
/// bottleneck for the spread round to measure mesh scaling.
fn site_wan() -> LinkParams {
    LinkParams::mbps(50.0, Duration::from_millis(5)).with_queue(1 << 20)
}

struct MeshWorld {
    sim: Sim,
    net: gridsim_net::Net,
    ns_addr: SockAddr,
    relay_addrs: Vec<SockAddr>,
    relay_nodes: Vec<gridsim_net::NodeId>,
    send_hosts: Vec<SimHost>,
    recv_hosts: Vec<SimHost>,
}

/// Build `pairs` sender/receiver sites plus `relays` meshed relays, each
/// relay on its own public host behind [`relay_uplink`]. `queue_frames`
/// overrides the relays' default shard-queue depth.
fn build_world(seed: u64, relays: usize, pairs: usize, queue_frames: Option<usize>) -> MeshWorld {
    let sim = Sim::new(seed);
    trace::install(&sim);
    let net = sim.net();
    let mut specs = Vec::new();
    for i in 0..pairs {
        specs.push(topology::SiteSpec::natted(
            &format!("s{i}"),
            1,
            NatKind::SymmetricRandom,
            site_wan(),
        ));
        specs.push(topology::SiteSpec::firewalled(
            &format!("r{i}"),
            1,
            site_wan(),
        ));
    }
    let (srv, relay_nodes, sends, recvs) = net.with(|w| {
        let mut grid = topology::Grid::build(w, &specs);
        let (srv, _) = grid.add_public_host(w, "services");
        let relay_nodes: Vec<_> = (0..relays)
            .map(|i| {
                grid.add_public_host_with(w, &format!("relay{i}"), relay_uplink())
                    .0
            })
            .collect();
        let sends: Vec<_> = (0..pairs).map(|i| grid.sites[2 * i].hosts[0]).collect();
        let recvs: Vec<_> = (0..pairs).map(|i| grid.sites[2 * i + 1].hosts[0]).collect();
        (srv, relay_nodes, sends, recvs)
    });
    let hsrv = SimHost::new(&net, srv);
    let relay_hosts: Vec<SimHost> = relay_nodes.iter().map(|&n| SimHost::new(&net, n)).collect();
    let relay_addrs: Vec<SockAddr> = relay_hosts
        .iter()
        .map(|h| SockAddr::new(h.ip(), RELAY_PORT))
        .collect();
    let ns_addr = SockAddr::new(hsrv.ip(), NS_PORT);
    let spawn_addrs = relay_addrs.clone();
    sim.spawn("services", move || {
        spawn_name_service(&hsrv, NS_PORT).unwrap();
        for (i, h) in relay_hosts.iter().enumerate() {
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
    MeshWorld {
        send_hosts: sends.iter().map(|&n| SimHost::new(&net, n)).collect(),
        recv_hosts: recvs.iter().map(|&n| SimHost::new(&net, n)).collect(),
        sim,
        net,
        ns_addr,
        relay_addrs,
        relay_nodes,
    }
}

/// Env homed at `relays[home]`, with the rest as ordered fallbacks.
fn env_homed(w: &MeshWorld, home: usize) -> GridEnv {
    let order: Vec<SockAddr> = w.relay_addrs[home..]
        .iter()
        .chain(w.relay_addrs[..home].iter())
        .copied()
        .collect();
    GridEnv::new(w.net.clone(), w.ns_addr).with_relays(&order)
}

fn profiles() -> (ConnectivityProfile, ConnectivityProfile) {
    (
        ConnectivityProfile::natted(NatClass::SymmetricRandom),
        ConnectivityProfile::firewalled(),
    )
}

struct SpreadOut {
    mb_s: f64,
    busy_throttles: u64,
}

/// `pairs` bulk transfers of `bytes` each; `home(i)` picks the relay pair
/// i registers at (both ends — spread keeps pairs relay-local, skew
/// funnels everyone through relay 0). Returns aggregate goodput.
fn run_bulk(
    seed: u64,
    relays: usize,
    pairs: usize,
    bytes: usize,
    queue_frames: Option<usize>,
    home: impl Fn(usize) -> usize,
) -> SpreadOut {
    let w = build_world(seed, relays, pairs, queue_frames);
    let (send_profile, recv_profile) = profiles();
    let t0 = Arc::new(Mutex::new(None::<SimTime>));
    let finished: Arc<Mutex<Vec<SimTime>>> = Arc::new(Mutex::new(Vec::new()));
    let busy: Arc<Mutex<u64>> = Arc::new(Mutex::new(0));
    for i in 0..pairs {
        let env = env_homed(&w, home(i) % relays);
        let host = w.recv_hosts[i].clone();
        let profile = recv_profile.clone();
        let finished = finished.clone();
        w.sim.spawn(format!("recv{i}"), move || {
            let node = GridNode::join(&env, host, &format!("recv{i}"), profile).unwrap();
            let rp = node
                .create_receive_port(&format!("sink{i}"), StackSpec::plain())
                .unwrap();
            let mut got = 0usize;
            while got < bytes {
                got += rp.receive().unwrap().len();
            }
            finished.lock().push(gridsim_net::ctx::now());
        });
    }
    for i in 0..pairs {
        let env = env_homed(&w, home(i) % relays);
        let host = w.send_hosts[i].clone();
        let profile = send_profile.clone();
        let t0 = t0.clone();
        let busy = busy.clone();
        w.sim.spawn(format!("send{i}"), move || {
            gridsim_net::ctx::sleep(Duration::from_millis(150));
            let node = GridNode::join(&env, host, &format!("send{i}"), profile).unwrap();
            let mut sp = node.create_send_port();
            let m = sp.connect(&format!("sink{i}")).unwrap();
            assert_eq!(m, EstablishMethod::Routed, "profiles must force Routed");
            t0.lock().get_or_insert(gridsim_net::ctx::now());
            let chunk = vec![0x7fu8; 32 * 1024];
            let mut left = bytes;
            while left > 0 {
                let n = chunk.len().min(left);
                sp.send(&chunk[..n]).unwrap();
                left -= n;
            }
            sp.close().unwrap();
            *busy.lock() += node.relay_busy_throttles();
        });
    }
    let outcome = w.sim.run_for(Duration::from_secs(600));
    let ends = finished.lock();
    assert_eq!(
        ends.len(),
        pairs,
        "not every pair finished (outcome {outcome:?})"
    );
    let start = t0.lock().expect("no sender started");
    let last = ends.iter().copied().max().unwrap();
    let busy_throttles = *busy.lock();
    drop(ends);
    SpreadOut {
        mb_s: (pairs * bytes) as f64 / last.since(start).as_secs_f64() / (1 << 20) as f64,
        busy_throttles,
    }
}

/// Sequenced transfer across 2 relays with the receiver's home relay
/// killed mid-stream: returns 1 if the full strict-FIFO sequence arrived
/// exactly once after route-around, 0 otherwise.
fn run_kill(seed: u64, msgs: u64) -> u64 {
    let w = build_world(seed, 2, 1, None);
    let (send_profile, recv_profile) = profiles();
    let victim = w.relay_nodes[1];
    w.net.with(|win| {
        win.schedule_after(Duration::from_millis(1500), move |win| {
            crash_node(win, victim)
        });
    });
    let fifo_ok = Arc::new(Mutex::new(false));
    {
        let env = env_homed(&w, 1);
        let host = w.recv_hosts[0].clone();
        let ok = fifo_ok.clone();
        w.sim.spawn("recv-kill", move || {
            let node = GridNode::join(&env, host, "recv-kill", recv_profile).unwrap();
            let rp = node
                .create_receive_port("sink-kill", StackSpec::plain())
                .unwrap();
            for i in 0..msgs {
                let mut m = rp.receive().unwrap();
                if m.read_u64().unwrap() != i {
                    return; // FIFO violated: leave fifo_ok false
                }
            }
            *ok.lock() = true;
        });
    }
    {
        let env = env_homed(&w, 0);
        let host = w.send_hosts[0].clone();
        w.sim.spawn("send-kill", move || {
            gridsim_net::ctx::sleep(Duration::from_millis(150));
            let node = GridNode::join(&env, host, "send-kill", send_profile).unwrap();
            let mut sp = node.create_send_port();
            assert_eq!(sp.connect("sink-kill").unwrap(), EstablishMethod::Routed);
            for i in 0..msgs {
                let mut m = sp.message();
                m.write_u64(i);
                m.write_bytes(&[0x5au8; 256]);
                m.finish().unwrap();
                gridsim_net::ctx::sleep(Duration::from_millis(40));
            }
            sp.close().unwrap();
        });
    }
    w.sim.run_for(Duration::from_secs(600));
    let ok = *fifo_ok.lock();
    u64::from(ok)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = has_flag(&args, "--quick");
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_relaymesh.json".into());
    let pairs = if quick { 4 } else { 8 };
    let bytes = if quick { 1 << 19 } else { 2 << 20 };
    let kill_msgs = if quick { 40 } else { 80 };
    println!(
        "Relay mesh: {pairs} routed pairs over k meshed relays (4 MB/s uplink each), \
         pair i homed at relay i mod k"
    );
    let mut rows: Vec<String> = Vec::new();
    let mut spread = Vec::new();
    for &k in &[1usize, 2, 4] {
        let o = run_bulk(47, k, pairs, bytes, None, |i| i);
        println!(
            "spread  relays={k}  pairs={pairs}  aggregate={:>8} MB/s",
            fmt_mb(o.mb_s * (1 << 20) as f64)
        );
        rows.push(format!(
            "  {{\"round\": \"spread\", \"relays\": {k}, \"pairs\": {pairs}, \"mb_s\": {:.3}}}",
            o.mb_s
        ));
        spread.push(o.mb_s);
    }
    // One-hot skew: four relays up, every pair funneled through relay 0
    // with small shard queues — typed backpressure must engage.
    let skew = run_bulk(47, 4, pairs, bytes, Some(16), |_| 0);
    println!(
        "skew    relays=4  pairs={pairs}  aggregate={:>8} MB/s  busy_throttles={}",
        fmt_mb(skew.mb_s * (1 << 20) as f64),
        skew.busy_throttles
    );
    rows.push(format!(
        "  {{\"round\": \"skew\", \"relays\": 4, \"pairs\": {pairs}, \"mb_s\": {:.3}, \"busy_throttles\": {}}}",
        skew.mb_s, skew.busy_throttles
    ));
    let fifo_ok = run_kill(48, kill_msgs);
    println!("kill    relays=2  msgs={kill_msgs}  fifo_ok={fifo_ok}");
    rows.push(format!(
        "  {{\"round\": \"kill\", \"relays\": 2, \"pairs\": 1, \"msgs\": {kill_msgs}, \"fifo_ok\": {fifo_ok}}}"
    ));
    println!(
        "scaling: 4-relay/1-relay = {:.2}x (mesh pays off past 2x)",
        spread[2] / spread[0]
    );
    let json = format!("[\n{}\n]\n", rows.join(",\n"));
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    eprintln!("wrote {out_path}");
    trace::flush();
}
