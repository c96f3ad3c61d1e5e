//! **E3 — Figure 9**: "Bandwidth obtained with various methods between
//! Amsterdam and Rennes" — the high-latency, *low-bandwidth* WAN
//! (1.6 MB/s, 30 ms).
//!
//! Paper series and headline numbers: plain TCP 0.9 MB/s (56% of
//! capacity), 4 parallel streams 1.5 MB/s (93%), compression 3.25 MB/s
//! (203%), compression + parallel streams 3.4 MB/s peak.
//!
//! Usage: `fig9_amsterdam_rennes [--loss 0.004] [--quick]`
//!   `--loss`  ablation: vary the bottleneck loss rate (drives the plain
//!             TCP gap — see DESIGN.md §5)
//!   `--quick` fewer message sizes, 3 MiB per point instead of 48 MiB

use netgrid::StackSpec;
use netgrid_bench::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut wan = amsterdam_rennes();
    if let Some(l) = arg_value(&args, "--loss") {
        wan.loss = l.parse().expect("--loss takes a probability");
    }
    let quick = has_flag(&args, "--quick");

    // The paper's x axis: 16 KiB .. 4 MiB.
    let sizes: &[usize] = if quick {
        &[65_536, 1_048_576]
    } else {
        &[16_384, 65_536, 262_144, 1_048_576, 4_194_304]
    };
    let methods: Vec<(&str, StackSpec)> = vec![
        ("Plain TCP", StackSpec::plain()),
        ("Compression", StackSpec::plain().with_compression(1)),
        ("Parallel Streams (4)", StackSpec::plain().with_streams(4)),
        (
            "Compression + Parallel Streams",
            StackSpec::plain().with_streams(4).with_compression(1),
        ),
    ];

    print_header(
        "Figure 9: bandwidth vs message size, Amsterdam-Rennes emulation",
        &wan,
    );
    print!("{:>9} |", "msg size");
    for (name, _) in &methods {
        print!(" {name:>30} |");
    }
    println!();
    println!("{}", "-".repeat(11 + methods.len() * 33));
    for &size in sizes {
        print!("{size:>9} |");
        for (_, spec) in &methods {
            let mut run = BwRun::new(wan.clone(), spec.clone(), size);
            // 0.4 % loss: below ~48 MiB a point samples too few loss
            // events to tell two TCP variants apart (EXPERIMENTS.md E3).
            run.total_bytes = if quick { 3 << 20 } else { 48 << 20 };
            let p = measure_bandwidth(&run);
            print!(" {:>24} MB/s |", fmt_mb(p.bandwidth));
        }
        println!();
    }
    println!();
    println!(
        "simulation (100% link utilization): {} MB/s",
        fmt_mb(wan.capacity)
    );
    println!();
    println!("Paper reference points (at large messages):");
    println!("  plain TCP 0.90 MB/s (56%) | 4 streams 1.50 (93%) | compression 3.25 (203%) | comp+par 3.40");
    trace::flush();
}
