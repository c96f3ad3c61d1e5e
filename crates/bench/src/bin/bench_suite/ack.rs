//! Cumulative-ACK cadence sweep: how the receiver's `CACK` interval trades
//! steady-state resend-buffer memory against service-link chatter.
//!
//! One 16 MiB transfer (256 x 64 KiB messages) over the fast Delft—Sophia
//! WAN per cadence point. For each point we report the sender's *peak*
//! resend-buffer occupancy (sampled before eviction, so it shows what the
//! acks actually bounded) and the simulated goodput. The `disabled` row
//! (no CACKs at all) shows the alternative: the buffer grows until the
//! 8 MiB eviction cliff clamps it — bounded only by forgetting data that
//! a recovery might still need.
//!
//! Not a paper figure; this is the regression harness for the PR-3
//! ACK/flow-control protocol. Fault-free wire traces on the *data* path
//! are unaffected by cadence (CACKs ride the service link), but this
//! binary is not part of the golden-trace set since the service-link
//! packet mix varies by design.

use super::*;
use netgrid::StackSpec;
use std::sync::Arc;

const MSG: usize = 64 * 1024;
const MSGS: u64 = 256;

struct Out {
    peak: usize,
    mb_per_sec: f64,
}

fn run_one(ack_bytes: usize) -> Out {
    let sim = Sim::new(42);
    let (env, ha, hb) = measurement_world(&sim, &delft_sophia(), 1 << 20);
    let env = env.with_ack_bytes(ack_bytes);

    let env_b = env.clone();
    sim.spawn("receiver", move || {
        let node = join_open(&env_b, hb, "recv");
        let rp = node.create_receive_port("ack", StackSpec::plain()).unwrap();
        for i in 0..MSGS {
            let mut m = rp.receive().unwrap();
            assert_eq!(m.read_u64().unwrap(), i, "FIFO violated");
        }
    });

    type SenderOut = Option<(Vec<(usize, usize)>, f64)>;
    let out: Arc<parking_lot::Mutex<SenderOut>> = Arc::new(parking_lot::Mutex::new(None));
    let slot = out.clone();
    let env_a = env.clone();
    sim.spawn("sender", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(100));
        let node = join_open(&env_a, ha, "send");
        let mut sp = node.create_send_port();
        sp.connect("ack").unwrap();
        let t0 = gridsim_net::ctx::now();
        let body = vec![0xACu8; MSG - 8];
        for i in 0..MSGS {
            let mut m = sp.message();
            m.write_u64(i);
            m.write_bytes(&body);
            m.finish().unwrap();
        }
        let stats = sp.resend_stats();
        sp.close().unwrap();
        let secs = gridsim_net::ctx::now().since(t0).as_secs_f64();
        *slot.lock() = Some((stats, secs));
    });
    sim.run();
    let (stats, secs) = out.lock().take().expect("transfer did not complete");
    Out {
        peak: stats.iter().map(|&(_, p)| p).max().unwrap_or(0),
        mb_per_sec: (MSGS as usize * MSG) as f64 / secs / 1e6,
    }
}

pub fn run(_: &Cli) {
    let points = [
        ("disabled", usize::MAX),
        ("4 MiB", 4 << 20),
        ("1 MiB", 1 << 20),
        ("256 KiB", 256 * 1024),
        ("64 KiB", 64 * 1024),
    ];
    println!(
        "ACK cadence sweep: {} MiB over {} ({:.0} MB/s, {} ms RTT), 8 MiB resend budget",
        (MSGS as usize * MSG) >> 20,
        delft_sophia().name,
        delft_sophia().capacity / 1e6,
        delft_sophia().rtt.as_millis()
    );
    println!(
        "{:>10}  {:>16}  {:>12}",
        "cadence", "peak resend KiB", "MB/s"
    );
    for (label, ack_bytes) in points {
        let o = run_one(ack_bytes);
        println!("{label:>10}  {:>16}  {:>12.2}", o.peak / 1024, o.mb_per_sec);
    }
}
