//! **E6 — §4.3/§6 compression crossover**: "compression could improve the
//! bandwidth for networks with a capacity up to 6 MB/s; beyond this
//! threshold, compression degrades the performance, with the CPUs used in
//! this particular case."
//!
//! Sweeps link capacity at a low RTT (so the OS window is not the binding
//! constraint) and compares plain TCP against compression at level 1.
//! With the 2004-era CPU model (level-1 compression ≈5.5 MB/s input) the
//! crossover falls at capacity ≈ CPU rate, i.e. ≈5.5 MB/s.
//!
//! Usage: `compression_crossover [--levels]`
//!   `--levels` additionally sweeps every compression level on a mid-speed
//!              link and exits non-zero unless the paper's sentence holds
//!              ("only the first level of compression turned out to be
//!              useful"): level 1 beats plain TCP there and every deeper
//!              level is strictly slower than the one before

use netgrid::{CpuRates, StackSpec};
use netgrid_bench::*;
use std::time::Duration;

fn point(capacity: f64, spec: StackSpec) -> f64 {
    let wan = Wan {
        name: "sweep",
        capacity,
        rtt: Duration::from_millis(10),
        loss: 0.0,
        queue: 512 * 1024,
    };
    let mut run = BwRun::new(wan, spec, 1 << 20);
    run.total_bytes = 10 << 20;
    measure_bandwidth(&run).bandwidth
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    println!("Compression crossover sweep (RTT 10 ms, no loss, window not binding)");
    println!(
        "CPU model: level-1 compression {:.1} MB/s input (2004-era)",
        CpuRates::default().compress_l1 / 1e6
    );
    println!("{}", "=".repeat(72));
    println!(
        "{:>10} | {:>12} | {:>12} | {:>8} | winner",
        "capacity", "plain TCP", "compression", "gain"
    );
    println!("{}", "-".repeat(72));
    let mut crossover: Option<f64> = None;
    let mut prev_gain = f64::MAX;
    for cap_mb in [0.5, 1.0, 1.6, 2.5, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0] {
        let plain = point(cap_mb * 1e6, StackSpec::plain());
        let comp = point(cap_mb * 1e6, StackSpec::plain().with_compression(1));
        let gain = comp / plain;
        if prev_gain >= 1.0 && gain < 1.0 && crossover.is_none() {
            crossover = Some(cap_mb);
        }
        prev_gain = gain;
        println!(
            "{:>7.1} MB | {:>7} MB/s | {:>7} MB/s | {:>7.2}x | {}",
            cap_mb,
            fmt_mb(plain),
            fmt_mb(comp),
            gain,
            if gain >= 1.0 { "compression" } else { "plain" },
        );
    }
    println!();
    match crossover {
        Some(c) => println!(
            "crossover: compression stops paying between the sample below and {c:.1} MB/s \
             (paper: \"up to 6 MB/s\")"
        ),
        None => println!("no crossover in the swept range"),
    }

    if has_flag(&args, "--levels") {
        println!();
        println!("Compression level sweep at 4 MB/s capacity (paper §4.3: only level 1 pays)");
        println!("{}", "-".repeat(72));
        println!("{:>6} | {:>12} | {:>14}", "level", "bandwidth", "CPU rate");
        let plain = point(4e6, StackSpec::plain());
        let mut bws = Vec::new();
        for level in 1..=gridzip::MAX_LEVEL {
            let bw = point(4e6, StackSpec::plain().with_compression(level));
            println!(
                "{:>6} | {:>7} MB/s | {:>9.2} MB/s",
                level,
                fmt_mb(bw),
                CpuRates::default().compress_at_level(level) / 1e6
            );
            bws.push(bw);
        }
        println!("{:>6} | {:>7} MB/s |", "plain", fmt_mb(plain));
        if bws[0] <= plain || bws.windows(2).any(|w| w[0] <= w[1]) {
            eprintln!("FAIL: level 1 must beat plain and each level the next");
            std::process::exit(1);
        }
    }
}
