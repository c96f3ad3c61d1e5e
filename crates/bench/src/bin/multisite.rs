//! The experiments that need more than two open sites — firewalls, NATs, a
//! SOCKS proxy, a relay with a link of its own — one subcommand each:
//!
//! * `establishment` — **E10, §2/§3.4**: "methods without brokering are
//!   preferable over the ones requiring it, since the latter are likely to
//!   exhibit a higher connection establishment delay due to the
//!   negotiation phase." The simulated time of `SendPort::connect` for
//!   each establishment method on equivalent 10 ms-RTT paths.
//! * `deployment` — **E7, §6 qualitative results**: "In all cases, we were
//!   able to establish a connection from every node to every other node
//!   without opening ports in firewalls." Four sites: two behind stateful
//!   firewalls, one behind a predictable (sequential) symmetric NAT, one
//!   behind a broken (random) NAT whose gateway runs a SOCKS proxy; the
//!   matrix shows the method the runtime settled on for every pair.
//! * `relay [--pairs N]` — **E9, §3.4**: "the relay itself is likely to be
//!   a bottleneck, lowering the achievable bandwidth [and] likely to raise
//!   the communication latency." n concurrent pairs over direct
//!   client/server links against the same pairs forced through the relay,
//!   plus the added latency of one relay hop.

use gridsim_net::{topology::SiteSpec, LinkParams, NatKind, Sim, SimTime};
use netgrid::{ConnectivityProfile, EstablishMethod, GridNode, NatClass, StackSpec};
use netgrid_bench::*;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

fn establishment(_: &Cli) {
    let rtt_ms = E10_RTT.as_secs_f64() * 1e3;
    println!("Connection establishment delay per method ({rtt_ms:.0} ms RTT paths)");
    println!("{}", "=".repeat(72));
    println!(
        "{:<36} | {:>12} | {:>6} | {:>10}",
        "scenario", "delay", "RTTs", "brokered"
    );
    println!("{}", "-".repeat(72));
    for sc in &e10_scenarios() {
        let (d, m) = connect_delay(sc);
        assert_eq!(m, sc.expect, "scenario '{}' used {m}", sc.name);
        println!(
            "{:<36} | {:>9.1} ms | {:>6.1} | {:>10}",
            sc.name,
            d.as_secs_f64() * 1e3,
            d.as_secs_f64() / E10_RTT.as_secs_f64(),
            if m.properties().needs_brokering {
                "yes"
            } else {
                "no"
            }
        );
    }
    println!();
    println!("paper §3.4: brokered methods pay a negotiation phase on top of the handshake");
}

fn deployment(_: &Cli) {
    let sim = Sim::new(2004);
    let wan = LinkParams::mbps(2.0, Duration::from_millis(8));
    let names = ["amsterdam", "rennes", "berlin", "poznan"];
    let specs = [
        SiteSpec::firewalled(names[0], 1, wan),
        SiteSpec::firewalled(names[1], 1, wan),
        SiteSpec::natted(names[2], 1, NatKind::SymmetricSequential, wan),
        SiteSpec::natted(names[3], 1, NatKind::SymmetricRandom, wan),
    ];
    // The broken-NAT site operates a SOCKS proxy on its gateway (the
    // paper's fallback for non-compliant NATs).
    let services = Services {
        proxy_site: Some(3),
        ..Services::default()
    };
    let world = grid_world(&sim, &specs, services);
    let poznan_proxy = gridsim_net::SockAddr::new(world.sites[3].gateway_public_ip, SOCKS_PORT);
    let profiles = [
        ConnectivityProfile::firewalled(),
        ConnectivityProfile::firewalled(),
        ConnectivityProfile::natted(NatClass::SymmetricPredictable),
        ConnectivityProfile::natted(NatClass::SymmetricRandom).with_proxy(poznan_proxy),
    ];

    let n = names.len();
    type Matrix = BTreeMap<(usize, usize), Result<EstablishMethod, String>>;
    let results: Arc<Mutex<Matrix>> = Arc::new(Mutex::new(BTreeMap::new()));
    let nodes: Arc<Mutex<Vec<Option<GridNode>>>> = Arc::new(Mutex::new(vec![None; n]));

    // Phase 1: every node joins and publishes its receive port.
    for (i, profile) in profiles.into_iter().enumerate() {
        let env = world.env.clone();
        let host = world.host(i, 0);
        let name = names[i];
        let nodes = Arc::clone(&nodes);
        sim.spawn(format!("join-{name}"), move || {
            let node = GridNode::join(&env, host, name, profile).unwrap();
            let rp = node
                .create_receive_port(&format!("port-{name}"), StackSpec::plain())
                .unwrap();
            nodes.lock()[i] = Some(node);
            // Drain forever: each peer sends one message.
            gridsim_net::ctx::handle().spawn_daemon(format!("drain-{name}"), move || loop {
                if rp.receive().is_err() {
                    break;
                }
            });
        });
    }
    sim.run();

    // Phase 2: all-pairs connections.
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let results = Arc::clone(&results);
            let nodes = Arc::clone(&nodes);
            let to = names[j];
            sim.spawn(format!("conn-{}-{}", names[i], to), move || {
                let node = nodes.lock()[i].clone().expect("node joined");
                let mut sp = node.create_send_port();
                let outcome = match sp.connect(&format!("port-{to}")) {
                    Ok(m) => {
                        sp.send(format!("hello from {i}").as_bytes()).unwrap();
                        let _ = sp.close();
                        Ok(m)
                    }
                    Err(e) => Err(e.to_string()),
                };
                results.lock().insert((i, j), outcome);
            });
        }
    }
    sim.run();

    println!("Qualitative deployment: all-pairs connectivity, no firewall ports opened");
    println!("sites: amsterdam (stateful fw), rennes (stateful fw), berlin (symmetric NAT,");
    println!("       sequential ports), poznan (symmetric NAT, random ports + site SOCKS proxy)");
    println!("{}", "=".repeat(78));
    print!("{:<12}", "from \\ to");
    for to in names {
        print!("{to:>16}");
    }
    println!();
    println!("{}", "-".repeat(78));
    let results = results.lock();
    let mut failures = 0;
    for (i, from) in names.iter().enumerate() {
        print!("{from:<12}");
        for j in 0..n {
            if i == j {
                print!("{:>16}", "-");
                continue;
            }
            match &results[&(i, j)] {
                Ok(m) => print!(
                    "{:>16}",
                    match m {
                        EstablishMethod::ClientServer => "client/server",
                        EstablishMethod::Splicing => "splicing",
                        EstablishMethod::Proxy => "socks proxy",
                        EstablishMethod::Routed => "routed",
                    }
                ),
                Err(_) => {
                    failures += 1;
                    print!("{:>16}", "FAILED");
                }
            }
        }
        println!();
    }
    println!();
    if failures == 0 {
        println!(
            "all {} pairs connected (paper: \"in all cases, we were able to establish",
            n * (n - 1)
        );
        println!("a connection from every node to every other node\")");
    } else {
        println!("{failures} pair(s) FAILED — regression against the paper's qualitative result!");
        std::process::exit(1);
    }
}

/// Run `pairs` transfers of `bytes` each; `force_routed` makes every pair
/// unsplicable so the decision tree lands on routed messages. Returns the
/// aggregate goodput, pair 0's first-message latency and the method used.
fn relay_run(pairs: usize, bytes: usize, force_routed: bool) -> (f64, Duration, EstablishMethod) {
    let sim = Sim::new(9);
    let wan = LinkParams::mbps(4.0, Duration::from_millis(5)).with_queue(1 << 20);
    // Sender i at site 2i, its receiver at site 2i + 1.
    let specs: Vec<SiteSpec> = (0..pairs)
        .flat_map(|i| {
            [
                SiteSpec::open(&format!("s{i}"), 1, wan),
                SiteSpec::open(&format!("r{i}"), 1, wan),
            ]
        })
        .collect();
    // The relay gets its own host with a finite uplink: its link is the
    // shared resource every routed byte crosses twice (in and out).
    let relay_uplink = LinkParams::mbps(8.0, Duration::from_millis(1)).with_queue(1 << 20);
    let services = Services {
        relay_hosts: Some((1, relay_uplink)),
        ..Services::default()
    };
    let world = grid_world(&sim, &specs, services);

    // An unsplicable profile (random NAT, no proxy anywhere) forces routed
    // messages for data links while remaining able to join.
    let (send_profile, recv_profile) = if force_routed {
        (
            ConnectivityProfile::natted(NatClass::SymmetricRandom),
            ConnectivityProfile::firewalled(),
        )
    } else {
        (ConnectivityProfile::open(), ConnectivityProfile::open())
    };

    let t0 = Arc::new(Mutex::new(SimTime::ZERO));
    let finished: Arc<Mutex<Vec<SimTime>>> = Arc::new(Mutex::new(Vec::new()));
    let method = Arc::new(Mutex::new(None));
    let ping_sent = Arc::new(Mutex::new(SimTime::ZERO));
    let ping_recv = Arc::new(Mutex::new(SimTime::ZERO));
    for i in 0..pairs {
        let env = world.env.clone();
        let host = world.host(2 * i + 1, 0);
        let profile = recv_profile.clone();
        let finished = Arc::clone(&finished);
        let ping_recv = Arc::clone(&ping_recv);
        sim.spawn(format!("recv{i}"), move || {
            let node = GridNode::join(&env, host, &format!("recv{i}"), profile).unwrap();
            let rp = node
                .create_receive_port(&format!("sink{i}"), StackSpec::plain())
                .unwrap();
            let mut got = 0usize;
            let mut first = true;
            while got < bytes {
                got += rp.receive().unwrap().len();
                if first && i == 0 {
                    *ping_recv.lock() = gridsim_net::ctx::now();
                    first = false;
                }
            }
            finished.lock().push(gridsim_net::ctx::now());
        });
    }
    for i in 0..pairs {
        let env = world.env.clone();
        let host = world.host(2 * i, 0);
        let profile = send_profile.clone();
        let t0 = Arc::clone(&t0);
        let method = Arc::clone(&method);
        let ping_sent = Arc::clone(&ping_sent);
        sim.spawn(format!("send{i}"), move || {
            gridsim_net::ctx::sleep(Duration::from_millis(150));
            let node = GridNode::join(&env, host, &format!("send{i}"), profile).unwrap();
            let mut sp = node.create_send_port();
            let m = sp.connect(&format!("sink{i}")).unwrap();
            *method.lock() = Some(m);
            if i == 0 {
                // One small message first: delivery latency measured at the
                // receiver.
                *ping_sent.lock() = gridsim_net::ctx::now();
                sp.send(&[1u8; 64]).unwrap();
            }
            *t0.lock() = gridsim_net::ctx::now();
            let chunk = vec![0x7fu8; 64 * 1024];
            let mut left = bytes - if i == 0 { 64 } else { 0 };
            while left > 0 {
                let n = chunk.len().min(left);
                sp.send(&chunk[..n]).unwrap();
                left -= n;
            }
            sp.close().unwrap();
        });
    }
    sim.run();
    let start = *t0.lock();
    let ends = finished.lock();
    let last = ends.iter().copied().max().unwrap();
    let aggregate = (pairs * bytes) as f64 / last.since(start).as_secs_f64();
    let m = method.lock().unwrap();
    let lat = ping_recv.lock().since(*ping_sent.lock());
    (aggregate, lat, m)
}

fn relay(cli: &Cli) {
    let max_pairs: usize = cli.value("--pairs").unwrap_or(4);
    println!("Relay bottleneck: n pairs, 4 MB/s per site uplink, relay on the backbone");
    println!("{}", "=".repeat(72));
    println!(
        "{:>6} | {:>18} | {:>18} | {:>8}",
        "pairs", "direct aggregate", "routed aggregate", "ratio"
    );
    println!("{}", "-".repeat(72));
    for pairs in 1..=max_pairs {
        let bytes = 8 << 20;
        let (direct, _, dm) = relay_run(pairs, bytes, false);
        let (routed, _, rm) = relay_run(pairs, bytes, true);
        assert_eq!(dm, EstablishMethod::ClientServer);
        assert_eq!(rm, EstablishMethod::Routed);
        println!(
            "{pairs:>6} | {:>13} MB/s | {:>13} MB/s | {:>7.2}x",
            fmt_mb(direct),
            fmt_mb(routed),
            direct / routed
        );
    }
    let (_, direct_lat, _) = relay_run(1, 1 << 20, false);
    let (_, routed_lat, _) = relay_run(1, 1 << 20, true);
    println!();
    println!(
        "small-message latency: direct {:.2} ms, routed {:.2} ms (+{:.2} ms relay hop)",
        direct_lat.as_secs_f64() * 1e3,
        routed_lat.as_secs_f64() * 1e3,
        (routed_lat.as_secs_f64() - direct_lat.as_secs_f64()) * 1e3
    );
    println!();
    println!("paper §3.4: the relay \"is likely to be a bottleneck, lowering the achievable");
    println!("bandwidth\" and \"likely to raise the communication latency\"");
    println!();
    println!("note: at low pair counts the relay can WIN on bandwidth — splitting one");
    println!("window-limited TCP path into two half-RTT legs is the split-TCP/PEP effect;");
    println!("the bottleneck emerges once the relay link saturates (pairs >= 3 above).");
}

fn main() {
    Cli::from_env().dispatch(
        "multisite",
        &[
            ("establishment", establishment),
            ("deployment", deployment),
            ("relay", relay),
        ],
    );
}
