//! Relay mesh (DESIGN.md §10): M sender nodes → M receiver nodes forced
//! onto the Routed method, across 1, 2 and 4 meshed relays with pair i
//! homed at relay i mod k. Each relay sits on its own constrained uplink,
//! so aggregate routed throughput should GROW with relay count — the
//! scaling the sharded forwarding plane + mesh buys over the single shared
//! relay. Two extra rounds probe the failure modes: a one-hot skew round
//! (every pair homed at one relay of four, shard queues saturate, typed
//! BUSY throttles must fire) and a mid-transfer relay-kill round
//! (exactly-once FIFO across failover). Writes `BENCH_relaymesh.json`.

use super::*;
use gridsim_net::{topology::SiteSpec, LinkParams, NatKind, SockAddr};
use gridsim_tcp::crash_node;
use netgrid::{EstablishMethod, NatClass, StackSpec};
use parking_lot::Mutex;
use std::sync::Arc;

/// `pairs` sender/receiver sites (sender i at site 2i, its receiver at
/// 2i + 1) plus `relays` meshed relays, each on its own public host. The
/// relay uplink is the shared resource every routed byte crosses twice;
/// site uplinks are deliberately generous, so the relays are the
/// bottleneck and the spread round measures mesh scaling. `queue_frames`
/// overrides the relays' default shard-queue depth.
fn build_world(sim: &Sim, relays: usize, pairs: usize, queue_frames: Option<usize>) -> GridWorld {
    let site_wan = LinkParams::mbps(50.0, Duration::from_millis(5)).with_queue(1 << 20);
    let relay_uplink = LinkParams::mbps(4.0, Duration::from_millis(1)).with_queue(1 << 20);
    let specs: Vec<SiteSpec> = (0..pairs)
        .flat_map(|i| {
            [
                SiteSpec::natted(&format!("s{i}"), 1, NatKind::SymmetricRandom, site_wan),
                SiteSpec::firewalled(&format!("r{i}"), 1, site_wan),
            ]
        })
        .collect();
    let services = Services {
        relay_hosts: Some((relays, relay_uplink)),
        queue_frames,
        ..Services::default()
    };
    grid_world(sim, &specs, services)
}

/// Env homed at relay `home`, with the rest as ordered fallbacks.
fn env_homed(w: &GridWorld, home: usize) -> GridEnv {
    let mut order: Vec<SockAddr> = w.relays.iter().map(|&(_, addr)| addr).collect();
    order.rotate_left(home);
    GridEnv::new(w.env.net.clone(), w.env.ns_addr).with_relays(&order)
}

/// Profiles that leave a pair only the relay: a symmetric NAT facing a
/// stateful firewall.
fn profiles() -> (ConnectivityProfile, ConnectivityProfile) {
    (
        ConnectivityProfile::natted(NatClass::SymmetricRandom),
        ConnectivityProfile::firewalled(),
    )
}

struct BulkOut {
    mb_s: f64,
    busy_throttles: u64,
}

/// `pairs` bulk transfers of `bytes` each; `home(i)` picks the relay pair
/// i registers at (both ends — spread keeps pairs relay-local, skew
/// funnels everyone through relay 0). Returns aggregate goodput.
fn run_bulk(
    relays: usize,
    pairs: usize,
    bytes: usize,
    queue_frames: Option<usize>,
    home: impl Fn(usize) -> usize,
) -> BulkOut {
    let sim = Sim::new(47);
    let w = build_world(&sim, relays, pairs, queue_frames);
    let (send_profile, recv_profile) = profiles();
    let t0 = Arc::new(Mutex::new(None::<SimTime>));
    let finished: Arc<Mutex<Vec<SimTime>>> = Arc::new(Mutex::new(Vec::new()));
    let busy: Arc<Mutex<u64>> = Arc::new(Mutex::new(0));
    for i in 0..pairs {
        let env = env_homed(&w, home(i) % relays);
        let host = w.host(2 * i + 1, 0);
        let profile = recv_profile.clone();
        let finished = finished.clone();
        sim.spawn(format!("recv{i}"), move || {
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
        let host = w.host(2 * i, 0);
        let profile = send_profile.clone();
        let t0 = t0.clone();
        let busy = busy.clone();
        sim.spawn(format!("send{i}"), move || {
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
    let outcome = sim.run_for(Duration::from_secs(600));
    let ends = finished.lock();
    assert_eq!(
        ends.len(),
        pairs,
        "not every pair finished (outcome {outcome:?})"
    );
    let start = t0.lock().expect("no sender started");
    let last = ends.iter().copied().max().unwrap();
    let busy_throttles = *busy.lock();
    BulkOut {
        mb_s: (pairs * bytes) as f64 / last.since(start).as_secs_f64() / (1 << 20) as f64,
        busy_throttles,
    }
}

/// Sequenced transfer across 2 relays with the receiver's home relay
/// killed mid-stream: returns 1 if the full strict-FIFO sequence arrived
/// exactly once after route-around, 0 otherwise.
fn run_kill(msgs: u64) -> u64 {
    let sim = Sim::new(48);
    let w = build_world(&sim, 2, 1, None);
    let (send_profile, recv_profile) = profiles();
    let victim = w.relays[1].0;
    w.env.net.with(|win| {
        win.schedule_after(Duration::from_millis(1500), move |win| {
            crash_node(win, victim)
        });
    });
    let fifo_ok = Arc::new(Mutex::new(false));
    {
        let env = env_homed(&w, 1);
        let host = w.host(1, 0);
        let ok = fifo_ok.clone();
        sim.spawn("recv-kill", move || {
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
        let host = w.host(0, 0);
        sim.spawn("send-kill", move || {
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
    sim.run_for(Duration::from_secs(600));
    let ok = *fifo_ok.lock();
    u64::from(ok)
}

pub fn run(cli: &Cli) {
    let quick = cli.quick();
    let pairs = if quick { 4 } else { 8 };
    let bytes = if quick { 1 << 19 } else { 2 << 20 };
    let kill_msgs = if quick { 40 } else { 80 };
    println!(
        "Relay mesh: {pairs} routed pairs over k meshed relays (4 MB/s uplink each), \
         pair i homed at relay i mod k"
    );
    let mut rows = Vec::new();
    let mut spread = Vec::new();
    let round = |name: &str, relays: usize, pairs: usize| {
        JsonRow::default()
            .text("round", name)
            .num("relays", relays)
            .num("pairs", pairs)
    };
    for k in [1usize, 2, 4] {
        let o = run_bulk(k, pairs, bytes, None, |i| i);
        println!(
            "spread  relays={k}  pairs={pairs}  aggregate={:>8} MB/s",
            fmt_mb(o.mb_s * (1 << 20) as f64)
        );
        rows.push(round("spread", k, pairs).num("mb_s", format_args!("{:.3}", o.mb_s)));
        spread.push(o.mb_s);
    }
    // One-hot skew: four relays up, every pair funneled through relay 0
    // with small shard queues — typed backpressure must engage.
    let skew = run_bulk(4, pairs, bytes, Some(16), |_| 0);
    println!(
        "skew    relays=4  pairs={pairs}  aggregate={:>8} MB/s  busy_throttles={}",
        fmt_mb(skew.mb_s * (1 << 20) as f64),
        skew.busy_throttles
    );
    rows.push(
        round("skew", 4, pairs)
            .num("mb_s", format_args!("{:.3}", skew.mb_s))
            .num("busy_throttles", skew.busy_throttles),
    );
    let fifo_ok = run_kill(kill_msgs);
    println!("kill    relays=2  msgs={kill_msgs}  fifo_ok={fifo_ok}");
    rows.push(
        round("kill", 2, 1)
            .num("msgs", kill_msgs)
            .num("fifo_ok", fifo_ok),
    );
    println!(
        "scaling: 4-relay/1-relay = {:.2}x (mesh pays off past 2x)",
        spread[2] / spread[0]
    );
    write_json(&cli.out("BENCH_relaymesh.json"), &rows);
}
