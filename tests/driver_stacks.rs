//! Tier-1 smoke for the driver stacks: 1 MiB through `GridNode` ports over
//! a LAN pair on each link-utilization method of the paper's §4 and on all
//! of them together must arrive byte-exact and in order.

use gridsim_net::{topology, Sim, SockAddr};
use gridsim_tcp::SimHost;
use netgrid::{spawn_name_service, ConnectivityProfile, GridEnv, GridNode, StackSpec};
use std::time::Duration;

const NS: u16 = 563;
const TOTAL: usize = 1 << 20;
/// Not a divisor of any block size, so messages straddle blocks.
const MSG: usize = 24_000;

fn pattern(i: usize) -> u8 {
    (i ^ (i >> 8) ^ (i >> 16)) as u8
}

fn transfer(spec: StackSpec) {
    let name = spec.describe();
    let sim = Sim::new(21);
    let net = sim.net();
    let (a, b) = net.with(topology::lan_pair);
    let (ha, hb) = (SimHost::new(&net, a), SimHost::new(&net, b));
    let env = GridEnv::new(net.clone(), SockAddr::new(hb.ip(), NS));

    let (env_b, name_b) = (env.clone(), name.clone());
    let receiver = sim.spawn("receiver", move || {
        spawn_name_service(&hb, NS).unwrap();
        let node = GridNode::join(&env_b, hb, "recv", ConnectivityProfile::open()).unwrap();
        let rp = node.create_receive_port("sink", spec).unwrap();
        let mut got = 0;
        while got < TOTAL {
            let m = rp.receive().unwrap();
            let body = m.as_slice();
            assert_eq!(body.len(), MSG.min(TOTAL - got), "{name_b}: message cut");
            for (k, &byte) in body.iter().enumerate() {
                assert_eq!(byte, pattern(got + k), "{name_b}: byte {}", got + k);
            }
            got += body.len();
        }
    });
    let sender = sim.spawn("sender", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(100));
        let node = GridNode::join(&env, ha, "send", ConnectivityProfile::open()).unwrap();
        let mut sp = node.create_send_port();
        sp.connect("sink").unwrap();
        let data: Vec<u8> = (0..TOTAL).map(pattern).collect();
        for msg in data.chunks(MSG) {
            sp.send(msg).unwrap();
        }
        sp.close().unwrap();
    });
    sim.run();
    assert!(
        receiver.is_finished() && sender.is_finished(),
        "{name}: transfer did not complete"
    );
}

#[test]
fn every_driver_stack_delivers_byte_exact_fifo() {
    let plain = StackSpec::plain;
    for spec in [
        plain(),
        plain().with_streams(4),
        plain().with_compression(1),
        plain().with_security(),
        plain().with_streams(4).with_compression(1).with_security(),
    ] {
        transfer(spec);
    }
}
