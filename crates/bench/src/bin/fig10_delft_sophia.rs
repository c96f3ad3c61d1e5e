//! **E4 — Figure 10**: "Bandwidth obtained with TCP and parallel streams
//! between Delft and Sophia" — the high-latency, *high-bandwidth* WAN
//! (9 MB/s, 43 ms), where the 64 KiB OS window is the binding constraint.
//!
//! Paper series: plain TCP 1.7 MB/s (19% of capacity), 4 streams 4.6 MB/s
//! (51%), 8 streams 7.95 MB/s (88%). Section 6 adds: compression 5 MB/s
//! (a *degradation* relative to 8 streams) and compression+parallel
//! 3.5 MB/s on this link.
//!
//! Usage: `fig10_delft_sophia [--window-cap BYTES] [--block-size BYTES] [--quick]`
//!   `--window-cap` ablation: raise the OS socket-buffer limit and watch a
//!                  single stream approach capacity (DESIGN.md §5)
//!   `--block-size` ablation: striping unit size

use netgrid::StackSpec;
use netgrid_bench::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut wan = delft_sophia();
    let window: u32 = arg_value(&args, "--window-cap")
        .map(|s| s.parse().expect("--window-cap takes bytes"))
        .unwrap_or(64 * 1024);
    let block: u32 = arg_value(&args, "--block-size")
        .map(|s| s.parse().expect("--block-size takes bytes"))
        .unwrap_or(32 * 1024);
    let quick = has_flag(&args, "--quick");

    // The paper's x axis: 6^6, 6^7, 6^8 bytes.
    let sizes: &[usize] = if quick {
        &[279_936]
    } else {
        &[46_656, 279_936, 1_679_616]
    };
    let base = StackSpec::plain().with_block_size(block);
    let methods: Vec<(&str, StackSpec)> = if window != 64 * 1024 {
        // The window ablation answers one question: does a single stream
        // approach capacity once the OS cap is lifted? (Striping with huge
        // windows just oversubscribes the bottleneck queue.)
        vec![("plain TCP", base.clone())]
    } else {
        vec![
            ("plain TCP", base.clone()),
            ("4 streams", base.clone().with_streams(4)),
            ("8 streams", base.clone().with_streams(8)),
            ("compression", base.clone().with_compression(1)),
            (
                "compression + 4 streams",
                base.clone().with_streams(4).with_compression(1),
            ),
        ]
    };

    print_header(
        "Figure 10: bandwidth vs message size, Delft-Sophia emulation",
        &wan,
    );
    if window != 64 * 1024 {
        // Buffer the bottleneck for the bigger windows, or Reno's
        // slow-start overshoot turns the ablation into a loss study.
        wan.queue = wan.queue.max(2 * window);
        println!(
            "(ablation: OS window cap = {window} bytes, bottleneck queue {} bytes)",
            wan.queue
        );
    }
    print!("{:>9} |", "msg size");
    for (name, _) in &methods {
        print!(" {name:>24} |");
    }
    println!();
    println!("{}", "-".repeat(11 + methods.len() * 27));
    for &size in sizes {
        print!("{size:>9} |");
        for (_, spec) in &methods {
            let mut run = BwRun::new(wan.clone(), spec.clone(), size);
            run.window = window;
            run.total_bytes = if quick { 12 << 20 } else { 48 << 20 };
            if window > 64 * 1024 {
                run.total_bytes = 80 << 20; // amortize the longer slow-start ramp
            }
            let p = measure_bandwidth(&run);
            print!(" {:>18} MB/s |", fmt_mb(p.bandwidth));
        }
        println!();
    }
    if window > 64 * 1024 {
        // The paper's §4.2 in one contrast: "even with TCP-modifications
        // like window scaling, achieving good TCP performance on a
        // high-latency WAN is still difficult, due to TCP's inert recovery
        // from lost packets."
        let mut lossless = wan.clone();
        lossless.loss = 0.0;
        let mut run = BwRun::new(lossless, StackSpec::plain().with_block_size(block), 1 << 20);
        run.window = window;
        run.total_bytes = 80 << 20;
        let p = measure_bandwidth(&run);
        println!();
        println!(
            "same window, ZERO loss: {} MB/s — the big window only helps on a clean path;",
            fmt_mb(p.bandwidth)
        );
        println!("with real loss, Reno's linear recovery squanders it (paper §4.2), which is");
        println!("why parallel streams (independent recovery per stream) win.");
    }
    println!();
    println!(
        "simulation (100% link utilization): {} MB/s",
        fmt_mb(wan.capacity)
    );
    println!();
    println!("Paper reference points (large messages):");
    println!("  plain 1.70 (19%) | 4 streams 4.60 (51%) | 8 streams 7.95 (88%)");
    println!("  compression 5.0 | compression+parallel 3.5  (both below 8 streams: CPU-bound)");
}
