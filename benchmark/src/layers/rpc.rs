//! netgrid's request/reply layer: echo calls between two open sites.
//! None of the five workloads uses it; the number is recorded so that a
//! change to `rpc` has one.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use gridsim_net::Sim;
use netgrid::rpc::{self, Handler};
use netgrid::{CpuRates, GridNode, RpcClient};

use super::{cpu_ns, Metrics};
use crate::workloads::Slot;
use crate::worlds::{self, SiteKind};

const CALLS: u32 = 2000;
const KIND: SiteKind = SiteKind::Open;

pub fn run(seed: u64) -> Metrics {
    let sim = Sim::new(seed);
    let world = worlds::two_sites(
        &sim,
        worlds::CLEAN_FAST,
        KIND,
        64 * 1024,
        CpuRates::unlimited(),
    );
    let (profile_a, profile_b) = KIND.profiles();
    let (env, host) = (world.env.clone(), world.b);
    sim.spawn("server", move || {
        let node = GridNode::join(&env, host, "server", profile_b).expect("joins");
        let echo: Handler = Arc::new(|req: &[u8]| req.to_vec());
        rpc::serve(&node, "echo", echo).expect("serves");
    });
    sim.run();
    let client: Slot<RpcClient> = Slot::default();
    let (env, host, slot) = (world.env.clone(), world.a, client.clone());
    sim.spawn("client-join", move || {
        let node = GridNode::join(&env, host, "client", profile_a).expect("joins");
        slot.put(RpcClient::connect(&node, "echo").expect("connects"));
    });
    sim.run();

    let answered = Arc::new(AtomicU32::new(0));
    let (client, count) = (client.take(), Arc::clone(&answered));
    sim.spawn("caller", move || {
        for i in 0..CALLS {
            let req = i.to_le_bytes();
            if client.call(&req).is_ok_and(|rsp| rsp == req) {
                count.fetch_add(1, Ordering::Relaxed);
            }
        }
    });
    let (ns, _) = cpu_ns(|| sim.run());
    assert_eq!(answered.load(Ordering::Relaxed), CALLS, "every call echoes");
    vec![("rpc.call_host_us", ns as f64 / 1e3 / CALLS as f64)]
}
