//! Per-host CPU model.
//!
//! Filter drivers (compression, encryption) consume host CPU. In 2004 that
//! CPU was the bottleneck that made compression counter-productive above
//! ~6 MB/s of link capacity (paper §6). The simulator's tasks execute in
//! zero simulated time by default, so drivers explicitly charge simulated
//! CPU time here: each host is a FIFO resource — concurrent consumers
//! serialize, which also models the compression/striping CPU contention the
//! paper observed when combining both methods on a fast link.

use gridsim_net::{ctx, NodeId, SimTime};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// 2004-era throughput rates, in bytes per second of host CPU time.
#[derive(Clone, Copy, Debug)]
pub struct CpuRates {
    /// Compression input rate at level 1 (the paper's crossover implies
    /// ≈5.5 MB/s on their hardware).
    pub compress_l1: f64,
    /// Decompression input rate (compressed bytes; decompression is much
    /// cheaper than compression).
    pub decompress: f64,
    /// Symmetric encryption/decryption rate.
    pub crypt: f64,
    /// Per-byte copy cost of user-space data movement (striping, buffer
    /// aggregation). High, but not free on 2004 JVMs.
    pub copy: f64,
}

impl Default for CpuRates {
    fn default() -> Self {
        CpuRates {
            compress_l1: 5.5e6,
            decompress: 24e6,
            crypt: 30e6,
            copy: 120e6,
        }
    }
}

impl CpuRates {
    /// Compression rate at a given level: deeper match search costs more,
    /// mirroring the paper's observation that only level 1 is worthwhile.
    pub fn compress_at_level(&self, level: u8) -> f64 {
        let factor = match level.clamp(1, gridzip::MAX_LEVEL) {
            1 => 1.0,
            2 => 1.35,
            3 => 1.8,
            4 => 2.5,
            5 => 3.4,
            _ => 4.6,
        };
        self.compress_l1 / factor
    }

    /// An "infinitely fast" CPU: disables the model (for isolating network
    /// effects in tests).
    pub fn unlimited() -> CpuRates {
        CpuRates {
            compress_l1: f64::INFINITY,
            decompress: f64::INFINITY,
            crypt: f64::INFINITY,
            copy: f64::INFINITY,
        }
    }
}

#[derive(Default)]
struct CpuState {
    busy_until: HashMap<NodeId, SimTime>,
    consumed: HashMap<NodeId, Duration>,
}

/// Shared CPU accounting across all hosts of one simulation.
#[derive(Clone, Default)]
pub struct CpuModel {
    state: Arc<Mutex<CpuState>>,
}

impl CpuModel {
    pub fn new() -> CpuModel {
        CpuModel::default()
    }

    /// Charge `bytes` of work at `rate` bytes/sec to `node`'s CPU, blocking
    /// the calling task for queueing + service time. Must be called from a
    /// simulated task.
    pub fn consume(&self, node: NodeId, bytes: usize, rate: f64) {
        if bytes == 0 || !rate.is_finite() {
            return;
        }
        let service = Duration::from_secs_f64(bytes as f64 / rate);
        let now = ctx::now();
        let end = {
            let mut st = self.state.lock();
            let start = st
                .busy_until
                .get(&node)
                .copied()
                .unwrap_or(SimTime::ZERO)
                .max(now);
            let end = start + service;
            st.busy_until.insert(node, end);
            *st.consumed.entry(node).or_default() += service;
            end
        };
        ctx::sleep(end - now);
    }

    /// Total CPU time charged to a node so far (diagnostics/benchmarks).
    pub fn consumed(&self, node: NodeId) -> Duration {
        self.state
            .lock()
            .consumed
            .get(&node)
            .copied()
            .unwrap_or_default()
    }
}

/// A handle binding the model to one host, carried by driver stacks.
#[derive(Clone)]
pub struct HostCpu {
    model: CpuModel,
    node: NodeId,
    pub rates: CpuRates,
}

impl HostCpu {
    pub fn new(model: CpuModel, node: NodeId, rates: CpuRates) -> HostCpu {
        HostCpu { model, node, rates }
    }

    /// Charge `bytes` at `rate` to this host.
    pub fn consume(&self, bytes: usize, rate: f64) {
        self.model.consume(self.node, bytes, rate);
    }

    pub fn consumed(&self) -> Duration {
        self.model.consumed(self.node)
    }

    pub fn node(&self) -> NodeId {
        self.node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsim_net::Sim;

    #[test]
    fn consume_advances_time_by_service() {
        let sim = Sim::new(1);
        let model = CpuModel::new();
        let m = model.clone();
        sim.spawn("worker", move || {
            // 1 MB at 5.5 MB/s ≈ 181.8 ms.
            m.consume(NodeId(0), 1 << 20, 5.5e6);
            let t = ctx::now().as_secs_f64();
            assert!((0.18..0.20).contains(&t), "t = {t}");
        });
        sim.run();
    }

    #[test]
    fn concurrent_consumers_serialize() {
        let sim = Sim::new(1);
        let model = CpuModel::new();
        for i in 0..2 {
            let m = model.clone();
            sim.spawn(format!("w{i}"), move || {
                m.consume(NodeId(0), 1_000_000, 10e6); // 100 ms each
            });
        }
        sim.run();
        // One CPU: 2 × 100 ms = 200 ms total, not 100 ms.
        assert_eq!(sim.now().as_nanos(), 200_000_000);
        assert_eq!(model.consumed(NodeId(0)), Duration::from_millis(200));
    }

    #[test]
    fn different_hosts_run_in_parallel() {
        let sim = Sim::new(1);
        let model = CpuModel::new();
        for i in 0..2 {
            let m = model.clone();
            sim.spawn(format!("w{i}"), move || {
                m.consume(NodeId(i), 1_000_000, 10e6);
            });
        }
        sim.run();
        assert_eq!(sim.now().as_nanos(), 100_000_000, "separate CPUs overlap");
    }

    #[test]
    fn unlimited_rates_are_free() {
        let sim = Sim::new(1);
        let model = CpuModel::new();
        let m = model.clone();
        sim.spawn("w", move || {
            m.consume(NodeId(0), 10 << 20, f64::INFINITY);
            assert_eq!(ctx::now().as_nanos(), 0);
        });
        sim.run();
    }

    #[test]
    fn level_scaling_is_monotone() {
        let r = CpuRates::default();
        for l in 1..gridzip::MAX_LEVEL {
            assert!(r.compress_at_level(l) > r.compress_at_level(l + 1));
        }
    }
}
