//! Connection storm: the "morning login rush". N client nodes behind ONE
//! shared cone NAT simultaneously join the grid and open a batch of
//! channels each to N receiver nodes behind ONE shared stateful firewall,
//! all brokered by one public name service + relay. Reports the aggregate
//! setup time (storm start to last batch connected), the total
//! establishment walk count (must equal the number of distinct
//! sender→peer pairs — the single-flight dedupe under contention) and the
//! peak number of walks in flight (the concurrency the session layer
//! actually achieved; serialized establishment would pin it at 1).
//! Writes `BENCH_storm.json`.

use super::*;
use gridsim_net::{topology::SiteSpec, LinkParams, NatKind};
use netgrid::{NatClass, StackSpec};
use std::sync::Arc;

/// Channels each client opens to its peer, in one `connect_batch`.
const CHANNELS: usize = 4;
/// Messages per channel after the storm settles (proves delivery).
const MSGS: u64 = 8;

struct RunOut {
    walks: u64,
    peak_walks: u64,
    setup_ms: f64,
}

fn run_one(nodes: usize) -> RunOut {
    let sim = Sim::new(44);
    let wan = LinkParams::mbps(4.0, Duration::from_millis(10));
    let specs = [
        SiteSpec::natted("clients", nodes, NatKind::FullCone, wan),
        SiteSpec::firewalled("servers", nodes, wan),
    ];
    let world = grid_world(&sim, &specs, Services::default());

    // Receivers come up first (ports must be registered before the storm),
    // then every client joins AND connects at the same instant.
    for i in 0..nodes {
        let env = world.env.clone();
        let host = world.host(1, i);
        sim.spawn(format!("recv-{i}"), move || {
            let profile = ConnectivityProfile::firewalled();
            let node = GridNode::join(&env, host, &format!("recv-{i}"), profile).unwrap();
            let rp = node
                .create_receive_port(&format!("storm-{i}"), StackSpec::plain())
                .unwrap();
            let mut fifo = TaggedFifo::default();
            for _ in 0..CHANNELS as u64 * MSGS {
                fifo.check(&mut rp.receive().unwrap(), "storm");
            }
        });
    }
    sim.run_for(Duration::from_secs(2));

    // walks per client node + last-connect time, reported from the tasks.
    type Probe = (u64, SimTime);
    let probes: Arc<parking_lot::Mutex<Vec<Probe>>> = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let t0 = Arc::new(parking_lot::Mutex::new(None::<SimTime>));
    for i in 0..nodes {
        let env = world.env.clone();
        let host = world.host(0, i);
        let probes = probes.clone();
        let t0 = t0.clone();
        sim.spawn(format!("send-{i}"), move || {
            t0.lock().get_or_insert(gridsim_net::ctx::now());
            let profile = ConnectivityProfile::natted(NatClass::Cone);
            let node = GridNode::join(&env, host, &format!("send-{i}"), profile).unwrap();
            let mut ports = node.connect_batch(&format!("storm-{i}"), CHANNELS).unwrap();
            probes
                .lock()
                .push((node.establishment_walks(), gridsim_net::ctx::now()));
            for seq in 0..MSGS {
                for (tag, sp) in ports.iter_mut().enumerate() {
                    let mut m = sp.message();
                    m.write_u64(tag as u64);
                    m.write_u64(seq);
                    m.write_bytes(&[0xa5u8; 64]);
                    m.finish().unwrap();
                }
                gridsim_net::ctx::sleep(Duration::from_millis(20));
            }
            for sp in ports.drain(..) {
                sp.close().unwrap();
            }
        });
    }
    let outcome = sim.run_for(Duration::from_secs(600));
    let probes = probes.lock();
    assert_eq!(
        probes.len(),
        nodes,
        "not every client finished its batch connect (outcome {outcome:?})"
    );
    let start = t0.lock().expect("no sender started");
    let last = probes.iter().map(|(_, t)| *t).max().unwrap();
    RunOut {
        walks: probes.iter().map(|(w, _)| w).sum(),
        peak_walks: world.env.walk_peak(),
        setup_ms: last.since(start).as_secs_f64() * 1e3,
    }
}

pub fn run(cli: &Cli) {
    println!(
        "Storm: N clients behind one cone NAT batch-connect ({CHANNELS} channels each) \
         to N receivers behind one firewall via one relay, simultaneously"
    );
    let matrix: &[usize] = if cli.quick() { &[4, 8] } else { &[4, 8, 16] };
    let mut rows = Vec::new();
    for &n in matrix {
        let o = run_one(n);
        // One distinct sender→peer pair per client node.
        println!(
            "nodes={n:>3}  pairs={n:>3}  walks={:>3}  peak_in_flight={:>3}  aggregate_setup={:>8.1} ms",
            o.walks, o.peak_walks, o.setup_ms
        );
        rows.push(
            JsonRow::default()
                .num("nodes", n)
                .num("pairs", n)
                .num("walks", o.walks)
                .num("peak_walks", o.peak_walks)
                .num("setup_ms", format_args!("{:.1}", o.setup_ms)),
        );
    }
    write_json(&cli.out("BENCH_storm.json"), &rows);
}
