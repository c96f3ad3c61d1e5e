//! Fault recovery: flap the WAN path mid-transfer and measure how long
//! delivery stalls, how fast it resumes after the link returns, and that
//! the received byte stream is identical to the fault-free run
//! (exactly-once FIFO). Short flaps ride TCP retransmission; long ones
//! cross the abort threshold and exercise detection + re-establishment +
//! replay. Writes `BENCH_faults.json`.

use super::*;
use netgrid::StackSpec;
use std::sync::Arc;

/// Payload bytes per message (after the varint sequence number).
const MSG: usize = 64 * 1024;
const MSGS: u64 = 240;
/// The flap starts here, well inside the transfer.
const FLAP_AT: Duration = Duration::from_millis(2000);
/// Endpoint failure detection: abort after ~3 s of dead air.
const ABORT: (Duration, u32) = (Duration::from_millis(800), 3);

struct RunOut {
    total_ms: f64,
    stall_ms: f64,
    recovery_ms: f64,
}

fn run_one(down_ms: u64) -> RunOut {
    let sim = Sim::new(42);
    let down = Duration::from_millis(down_ms);
    let flap = (down_ms > 0).then_some((FLAP_AT, down));
    let (env, ha, hb) = flap_world(&sim, 64 * 1024, ABORT, flap);

    let times: Arc<parking_lot::Mutex<Vec<SimTime>>> =
        Arc::new(parking_lot::Mutex::new(Vec::new()));
    let t = times.clone();
    let env_b = env.clone();
    sim.spawn("receiver", move || {
        let node = join_open(&env_b, hb, "recv");
        let rp = node.create_receive_port("bw", StackSpec::plain()).unwrap();
        for i in 0..MSGS {
            let mut m = rp.receive().unwrap();
            assert_eq!(m.read_u64().unwrap(), i, "exactly-once FIFO violated");
            let body = m.read_bytes(MSG).unwrap();
            assert!(
                body.iter().all(|&b| b == i as u8),
                "payload of message {i} corrupted"
            );
            t.lock().push(gridsim_net::ctx::now());
        }
    });
    sim.spawn("sender", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(100));
        let node = join_open(&env, ha, "send");
        let mut sp = node.create_send_port();
        sp.connect("bw").unwrap();
        for i in 0..MSGS {
            let mut m = sp.message();
            m.write_u64(i);
            m.write_bytes(&vec![i as u8; MSG]);
            m.finish().unwrap();
        }
        sp.close().unwrap();
    });
    let outcome = sim.run_for(Duration::from_secs(300));
    let times = times.lock();
    assert_eq!(
        times.len() as u64,
        MSGS,
        "transfer did not complete (outcome {outcome:?}, down {down_ms} ms)"
    );
    let restore = flap.map(|(at, down)| SimTime::ZERO + at + down);
    let (total_ms, recovery_ms) = span_and_recovery_ms(&times, restore);
    let stall_ms = times
        .windows(2)
        .map(|w| w[1].since(w[0]).as_secs_f64() * 1e3)
        .fold(0.0f64, f64::max);
    RunOut {
        total_ms,
        stall_ms,
        recovery_ms,
    }
}

/// Recovery under a hard resend cap: a 256 KiB budget (32 KiB ack cadence)
/// through a 5 s outage, on hosts with 16 KiB socket buffers so the pipe
/// itself fits the cap. Asserts the transfer completes exactly-once AND
/// that the resend buffer's pre-eviction peak stayed within the cap —
/// i.e. the cumulative-ack protocol, not eviction, bounded memory, and
/// recovery never needed an evicted message (no `ResendOverflow`).
fn cap_check() {
    const CAP: usize = 256 * 1024;
    const CAP_MSG: usize = 16 * 1024;
    const CAP_MSGS: u64 = 40;
    let sim = Sim::new(43);
    let flap = (FLAP_AT, Duration::from_millis(5000));
    let (env, ha, hb) = flap_world(&sim, 16 * 1024, ABORT, Some(flap));
    let env = env.with_resend_budget(CAP);

    let env_b = env.clone();
    sim.spawn("receiver", move || {
        let node = join_open(&env_b, hb, "recv");
        let rp = node.create_receive_port("cap", StackSpec::plain()).unwrap();
        for i in 0..CAP_MSGS {
            let mut m = rp.receive().unwrap();
            assert_eq!(m.read_u64().unwrap(), i, "exactly-once FIFO violated");
        }
    });
    let peak_out = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let peaks = peak_out.clone();
    sim.spawn("sender", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(100));
        let node = join_open(&env, ha, "send");
        let mut sp = node.create_send_port();
        sp.connect("cap").unwrap();
        let body = vec![0xC4u8; CAP_MSG - 8];
        for i in 0..CAP_MSGS {
            let mut m = sp.message();
            m.write_u64(i);
            m.write_bytes(&body);
            m.finish().unwrap();
        }
        *peaks.lock() = sp.resend_stats();
        sp.close().unwrap();
    });
    let outcome = sim.run_for(Duration::from_secs(120));
    let peaks = peak_out.lock();
    assert!(
        !peaks.is_empty(),
        "cap-check transfer did not complete (outcome {outcome:?})"
    );
    let peak = peaks.iter().map(|&(_, p)| p).max().unwrap();
    assert!(
        peak <= CAP,
        "resend peak {peak} exceeded the {CAP} byte cap"
    );
    println!(
        "cap-check: {CAP_MSGS} x {} KiB through a 5 s outage with a {} KiB resend cap: \
         recovered exactly-once, peak resend {} KiB",
        CAP_MSG / 1024,
        CAP / 1024,
        peak / 1024
    );
}

pub fn run(cli: &Cli) {
    println!(
        "Fault recovery: {MSGS} x {} KiB over 1.6 MB/s / 30 ms RTT, path flaps at t=2 s",
        MSG / 1024
    );
    let downs: &[u64] = if cli.quick() {
        &[0, 2000]
    } else {
        &[0, 500, 1000, 2000, 5000]
    };
    let mut rows = Vec::new();
    for &d in downs {
        let o = run_one(d);
        println!(
            "down={:>4} ms  total={:>8.1} ms  longest_stall={:>7.1} ms  recovery_after_restore={:>7.1} ms",
            d, o.total_ms, o.stall_ms, o.recovery_ms
        );
        rows.push(
            JsonRow::default()
                .num("down_ms", d)
                .num("bytes", MSGS * MSG as u64)
                .num("total_ms", format_args!("{:.1}", o.total_ms))
                .num("stall_ms", format_args!("{:.1}", o.stall_ms))
                .num("recovery_ms", format_args!("{:.1}", o.recovery_ms)),
        );
    }
    write_json(&cli.out("BENCH_faults.json"), &rows);
    cap_check();
}
