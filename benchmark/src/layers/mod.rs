//! The `layers` pass: each layer's public functions called directly, on
//! the input of the workload the layer matters to, with nothing above it
//! running. One file per layer; each file's `use` block is that layer's
//! part of the pinned-API list (README.md).
//!
//! Every `run` returns `(metric name, value)` pairs and checks its own
//! outputs (bytes delivered, round trips of compress → decompress and
//! seal → open); a failed check panics, which fails the benchmark.

pub mod drivers;
pub mod gridcrypt;
pub mod gridzip;
pub mod rpc;
pub mod simnet;
pub mod simtcp;
pub mod stack;

use crate::sys;

pub type Metrics = Vec<(&'static str, f64)>;

/// Layer groups, each run in a process of its own.
pub const GROUPS: [&str; 7] = [
    "simnet",
    "simtcp",
    "gridzip",
    "gridcrypt",
    "drivers",
    "stack",
    "rpc",
];

pub fn run(group: &str, seed: u64) -> Option<Metrics> {
    Some(match group {
        "simnet" => simnet::run(seed),
        "simtcp" => simtcp::run(seed),
        "gridzip" => gridzip::run(seed),
        "gridcrypt" => gridcrypt::run(seed),
        "drivers" => drivers::run(seed),
        "stack" => stack::run(seed),
        "rpc" => rpc::run(seed),
        _ => return None,
    })
}

/// Process CPU nanoseconds `f` took, all threads.
pub fn cpu_ns<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let t0 = sys::process_cpu_ns();
    let r = f();
    (sys::process_cpu_ns() - t0, r)
}
