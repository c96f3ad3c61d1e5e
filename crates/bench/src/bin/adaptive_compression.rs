//! **Extension (paper §8 future work)**: adaptive compression — "the
//! dynamic enabling or disabling of compression will then become possible".
//!
//! Measures every rung of the compression ladder
//! (`tune::COMPRESSION_LADDER`) on a slow and a fast WAN, selects with the
//! shared `tune::pick_best` rule, and compares the live `PathController`
//! (DESIGN.md §11; `GridEnv::with_path_control`, default configuration,
//! link established with level-1 compression) against that offline
//! optimum. The controller should track the pick on each link:
//! compression on the slow Amsterdam—Rennes path, plain on a fast path
//! (where fixed compression is CPU-bound).

use netgrid::tune::{pick_best, COMPRESSION_LADDER};
use netgrid::{PathControlConfig, PathParams, StackSpec};
use netgrid_bench::*;
use std::time::Duration;

/// Probe-gain margin shared with the live controller's default.
const GAIN_PCT: u64 = 8;

fn level_name(level: Option<u8>) -> String {
    match level {
        None => "plain TCP".into(),
        Some(l) => format!("fixed compression({l})"),
    }
}

fn main() {
    let fast = Wan {
        name: "fast-path",
        capacity: 9e6,
        rtt: Duration::from_millis(10), // low RTT: window not binding
        loss: 0.0,
        queue: 640 * 1024,
    };
    let mut slow = amsterdam_rennes();
    slow.loss = 0.0; // isolate the compression trade-off from loss recovery

    println!("Adaptive compression (paper §8 future work, live path controller)");
    println!("{}", "=".repeat(72));
    for wan in [slow, fast] {
        println!(
            "\n{} — capacity {:.1} MB/s, RTT {} ms:",
            wan.name,
            wan.capacity / 1e6,
            wan.rtt.as_millis()
        );
        let mut results: Vec<(PathParams, u64)> = Vec::new();
        for &level in &COMPRESSION_LADDER {
            let spec = match level {
                None => StackSpec::plain(),
                Some(l) => StackSpec::plain().with_compression(l),
            };
            let params = PathParams {
                compression_level: level,
                ..PathParams::default()
            };
            let mut run = BwRun::new(wan.clone(), spec, 1 << 20);
            run.total_bytes = 12 << 20;
            let p = measure_bandwidth(&run);
            println!(
                "  {:<28} {:>7} MB/s",
                level_name(level),
                fmt_mb(p.bandwidth)
            );
            results.push((params, p.bandwidth as u64));
        }
        let chosen = pick_best(&results, GAIN_PCT).expect("non-empty sweep");
        let best_rate = results
            .iter()
            .find(|(p, _)| *p == chosen)
            .map(|&(_, r)| r)
            .unwrap();
        println!(
            "  pick_best({GAIN_PCT}%): {} — cheapest within the probe-gain margin",
            level_name(chosen.compression_level)
        );

        let mut run = BwRun::new(wan.clone(), StackSpec::plain().with_compression(1), 1 << 20);
        run.total_bytes = 12 << 20;
        run.path_control = Some(PathControlConfig::default());
        let controlled = measure_bandwidth(&run);
        println!(
            "  {:<28} {:>7} MB/s — {:.0}% of the offline pick",
            "path controller from z1",
            fmt_mb(controlled.bandwidth),
            100.0 * controlled.bandwidth / best_rate as f64
        );
    }
    println!();
    println!("expected: controller ~ compression on the slow link; on the fast one it sheds");
    println!("compression only once the send buffer idles, which 64 KiB windows never allow.");
}
