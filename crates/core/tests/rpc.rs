//! RPC-over-ports tests: request/reply across heterogeneous establishment
//! methods, concurrency, and bigger-than-one-block payloads.

use gridsim_net::{topology, LinkParams, Sim, SockAddr};
use gridsim_tcp::SimHost;
use netgrid::{
    rpc, spawn_name_service, spawn_relay, ConnectivityProfile, GridEnv, GridNode, RpcClient,
};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

const NS: u16 = 563;
const RELAY: u16 = 600;

fn grid(sim: &Sim, specs: &[topology::SiteSpec]) -> (GridEnv, Vec<gridsim_net::NodeId>) {
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
fn rpc_roundtrip_between_firewalled_sites() {
    let sim = Sim::new(41);
    let wan = LinkParams::mbps(2.0, Duration::from_millis(8));
    let (env, hosts) = grid(
        &sim,
        &[
            topology::SiteSpec::firewalled("srv", 1, wan),
            topology::SiteSpec::firewalled("cli", 1, wan),
        ],
    );
    let net = env.net.clone();
    {
        let env = env.clone();
        let host = SimHost::new(&net, hosts[0]);
        sim.spawn("server", move || {
            let node =
                GridNode::join(&env, host, "server", ConnectivityProfile::firewalled()).unwrap();
            rpc::serve(
                &node,
                "echo-upper",
                Arc::new(|req: &[u8]| req.to_ascii_uppercase()),
            )
            .unwrap();
        });
    }
    let result = Arc::new(Mutex::new(None));
    {
        let env = env.clone();
        let host = SimHost::new(&net, hosts[1]);
        let result = Arc::clone(&result);
        sim.spawn("client", move || {
            gridsim_net::ctx::sleep(Duration::from_millis(200));
            let node =
                GridNode::join(&env, host, "client", ConnectivityProfile::firewalled()).unwrap();
            let client = RpcClient::connect(&node, "echo-upper").unwrap();
            let rsp = client.call(b"hello rpc over spliced links").unwrap();
            *result.lock() = Some(rsp);
        });
    }
    sim.run();
    assert_eq!(
        result.lock().take().as_deref(),
        Some(&b"HELLO RPC OVER SPLICED LINKS"[..])
    );
}

#[test]
fn concurrent_calls_multiplex_correctly() {
    let sim = Sim::new(42);
    let wan = LinkParams::mbps(4.0, Duration::from_millis(5));
    let (env, hosts) = grid(
        &sim,
        &[
            topology::SiteSpec::open("srv", 1, wan),
            topology::SiteSpec::open("cli", 1, wan),
        ],
    );
    let net = env.net.clone();
    {
        let env = env.clone();
        let host = SimHost::new(&net, hosts[0]);
        sim.spawn("server", move || {
            let node = GridNode::join(&env, host, "server", ConnectivityProfile::open()).unwrap();
            // Handler with variable latency: later requests may finish
            // first — the id-based matching must not mix up responses.
            rpc::serve(
                &node,
                "square",
                Arc::new(|req: &[u8]| {
                    let v = u64::from_le_bytes(req.try_into().unwrap());
                    gridsim_net::ctx::sleep(Duration::from_millis(200 - (v * 20).min(190)));
                    (v * v).to_le_bytes().to_vec()
                }),
            )
            .unwrap();
        });
    }
    let results: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    {
        let env = env.clone();
        let host = SimHost::new(&net, hosts[1]);
        let results = Arc::clone(&results);
        sim.spawn("client", move || {
            gridsim_net::ctx::sleep(Duration::from_millis(200));
            let node = GridNode::join(&env, host, "client", ConnectivityProfile::open()).unwrap();
            let client = RpcClient::connect(&node, "square").unwrap();
            let handles: Vec<_> = (1u64..=6)
                .map(|v| {
                    let client = client.clone();
                    gridsim_net::ctx::handle().spawn(format!("call{v}"), move || {
                        let rsp = client.call(&v.to_le_bytes()).unwrap();
                        (v, u64::from_le_bytes(rsp.try_into().unwrap()))
                    })
                })
                .collect();
            for h in handles {
                results.lock().push(h.join());
            }
        });
    }
    sim.run();
    let mut got = results.lock().clone();
    got.sort();
    assert_eq!(got, (1u64..=6).map(|v| (v, v * v)).collect::<Vec<_>>());
}

#[test]
fn large_payloads_cross_intact() {
    let sim = Sim::new(43);
    let wan = LinkParams::mbps(4.0, Duration::from_millis(5));
    let (env, hosts) = grid(
        &sim,
        &[
            topology::SiteSpec::open("srv", 1, wan),
            topology::SiteSpec::open("cli", 1, wan),
        ],
    );
    let net = env.net.clone();
    {
        let env = env.clone();
        let host = SimHost::new(&net, hosts[0]);
        sim.spawn("server", move || {
            let node = GridNode::join(&env, host, "server", ConnectivityProfile::open()).unwrap();
            rpc::serve(
                &node,
                "digest",
                Arc::new(|req: &[u8]| gridcrypt::sha256::sha256(req).to_vec()),
            )
            .unwrap();
        });
    }
    let ok = Arc::new(Mutex::new(false));
    {
        let env = env.clone();
        let host = SimHost::new(&net, hosts[1]);
        let ok = Arc::clone(&ok);
        sim.spawn("client", move || {
            gridsim_net::ctx::sleep(Duration::from_millis(200));
            let node = GridNode::join(&env, host, "client", ConnectivityProfile::open()).unwrap();
            let client = RpcClient::connect(&node, "digest").unwrap();
            let blob = gridzip::synth::grid_payload(800_000, 0.5, 3);
            let rsp = client.call(&blob).unwrap();
            assert_eq!(rsp, gridcrypt::sha256::sha256(&blob).to_vec());
            *ok.lock() = true;
        });
    }
    sim.run();
    assert!(*ok.lock());
}

/// The reply port's name goes on the wire in every call, so a simulation's
/// packets must not depend on how many clients the process made before it:
/// the first client of a fresh node is client 1, in every `Sim`.
#[test]
fn reply_port_name_counts_per_node_not_per_process() {
    let ports_after_first_client = || {
        let sim = Sim::new(44);
        let wan = LinkParams::mbps(4.0, Duration::from_millis(5));
        let (env, hosts) = grid(
            &sim,
            &[
                topology::SiteSpec::open("srv", 1, wan),
                topology::SiteSpec::open("cli", 1, wan),
            ],
        );
        let net = env.net.clone();
        let (env_s, host_s) = (env.clone(), SimHost::new(&net, hosts[0]));
        sim.spawn("server", move || {
            let node =
                GridNode::join(&env_s, host_s, "server", ConnectivityProfile::open()).unwrap();
            rpc::serve(&node, "echo", Arc::new(|req: &[u8]| req.to_vec())).unwrap();
        });
        let host_c = SimHost::new(&net, hosts[1]);
        let ports = Arc::new(Mutex::new(Vec::new()));
        let out = Arc::clone(&ports);
        sim.spawn("client", move || {
            gridsim_net::ctx::sleep(Duration::from_millis(200));
            let node = GridNode::join(&env, host_c, "client", ConnectivityProfile::open()).unwrap();
            let client = RpcClient::connect(&node, "echo").unwrap();
            assert_eq!(client.call(b"ping").unwrap(), b"ping");
            *out.lock() = node.ns().list_ports().unwrap();
        });
        sim.run();
        let ports = ports.lock().clone();
        ports
    };
    let ports = ports_after_first_client();
    assert!(
        ports.iter().any(|p| p == "rpc-rsp-client-1"),
        "first client's reply port: {ports:?}"
    );
    assert_eq!(ports_after_first_client(), ports);
}
