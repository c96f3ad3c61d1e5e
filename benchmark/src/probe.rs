//! Machine-speed probes: three fixed loops of the benchmark's own — none of
//! the product's code — that every repetition times before and after its
//! workload, so the runner can tell how fast the machine was while that run
//! was measured.
//!
//! On a shared sandbox the same pinned, deterministic work costs up to a
//! third more CPU time from one minute to the next (README.md has the
//! measurements): a neighbour on the same physical core, on the memory bus
//! or in the hypervisor slows everything that runs, the probes included.
//! Host-clock metrics are therefore scaled by the run's median probe time
//! relative to [`NOMINAL_NS`]. Three loops, because the three resources
//! drift independently and the simulator leans on all of them: arithmetic
//! over cache-resident data, copying memory, and handing a baton between
//! two threads through the kernel.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use crate::check::checksum;
use crate::sys;

/// What each loop costs on the sandbox this benchmark was first run on, on
/// a typical minute. Only ratios to these are ever used, so on another
/// machine every host number shifts by one constant factor.
pub const NOMINAL_NS: [f64; 3] = [30e6, 30e6, 30e6];

const ALU_BUF: usize = 64 * 1024;
const ALU_PASSES: u64 = 11_000;
const COPY_BUF: usize = 16 << 20;
const COPY_PASSES: usize = 19;
const HANDOFFS: u32 = 22_000;

/// CPU nanoseconds of the arithmetic, copy and handoff loops, in that
/// order. About 90 ms in all.
pub fn run() -> [u64; 3] {
    [alu(), copy(), handoff()]
}

/// How slow the machine was: the mean of the three loops' times over
/// their nominal times. 1.0 = nominal, 1.3 = everything takes 30 % longer.
pub fn slowdown(probe_ns: [f64; 3]) -> f64 {
    probe_ns
        .iter()
        .zip(NOMINAL_NS)
        .map(|(ns, nominal)| ns / nominal)
        .sum::<f64>()
        / 3.0
}

fn alu() -> u64 {
    let buf: Vec<u8> = (0..ALU_BUF as u32).map(|i| (i * 7) as u8).collect();
    let t0 = sys::process_cpu_ns();
    let mut acc = 0u64;
    for i in 0..ALU_PASSES {
        acc ^= checksum(std::hint::black_box(&buf)).wrapping_add(i);
    }
    std::hint::black_box(acc);
    sys::process_cpu_ns() - t0
}

fn copy() -> u64 {
    let src = vec![1u8; COPY_BUF];
    let mut dst = vec![0u8; COPY_BUF];
    // Touch every page first: page faults are not what is being timed.
    dst.copy_from_slice(&src);
    let t0 = sys::process_cpu_ns();
    for _ in 0..COPY_PASSES {
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
    }
    sys::process_cpu_ns() - t0
}

/// Two threads on the one pinned CPU passing a turn back and forth, each
/// yielding until the other has moved: the simulator's single-core baton.
fn handoff() -> u64 {
    let turn = Arc::new(AtomicU32::new(0));
    let theirs = Arc::clone(&turn);
    let t0 = sys::process_cpu_ns();
    let partner = std::thread::spawn(move || {
        for i in 0..HANDOFFS {
            while theirs.load(Ordering::Acquire) != 2 * i + 1 {
                std::thread::yield_now();
            }
            theirs.store(2 * i + 2, Ordering::Release);
        }
    });
    for i in 0..HANDOFFS {
        turn.store(2 * i + 1, Ordering::Release);
        while turn.load(Ordering::Acquire) != 2 * i + 2 {
            std::thread::yield_now();
        }
    }
    partner.join().expect("the partner only counts");
    sys::process_cpu_ns() - t0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_mean_ratio_to_nominal() {
        assert_eq!(slowdown(NOMINAL_NS), 1.0);
        let [a, b, c] = NOMINAL_NS;
        assert!((slowdown([a * 1.3, b * 1.3, c * 1.3]) - 1.3).abs() < 1e-12);
        assert!((slowdown([a * 2.0, b, c]) - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn every_loop_takes_measurable_time() {
        for ns in run() {
            assert!(ns > 1_000_000, "a probe loop ran in {ns} ns");
        }
    }
}
