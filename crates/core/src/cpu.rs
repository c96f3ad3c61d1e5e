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

/// Shared CPU accounting across all hosts of one simulation: when each
/// node's CPU is next free.
#[derive(Clone, Default)]
pub struct CpuModel {
    busy_until: Arc<Mutex<HashMap<NodeId, SimTime>>>,
}

impl CpuModel {
    pub fn new() -> CpuModel {
        CpuModel::default()
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

    /// Queue `bytes` of work at `rate` bytes/sec on this host's CPU
    /// without waiting: when it ends (now, for free work), the calling task
    /// woken then by the event `ctx::sleep` schedules, so the charge is
    /// waited out by polling `ctx::reached`.
    pub fn begin(&self, bytes: usize, rate: f64) -> SimTime {
        let now = ctx::now();
        if bytes == 0 || !rate.is_finite() {
            return now;
        }
        let service = Duration::from_secs_f64(bytes as f64 / rate);
        let mut busy = self.model.busy_until.lock();
        let end = busy.get(&self.node).map_or(now, |&free| free.max(now)) + service;
        busy.insert(self.node, end);
        if end > now {
            ctx::wake_at(end);
        }
        end
    }

    pub fn node(&self) -> NodeId {
        self.node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsim_net::Sim;

    /// A charge that blocks: `begin`, then its poll plus one park.
    struct Host(HostCpu);

    impl Host {
        fn consume(&self, bytes: usize, rate: f64) {
            let end = self.0.begin(bytes, rate);
            ctx::park_io(|| ctx::reached(end)).unwrap();
        }
    }

    fn host(model: &CpuModel, node: usize) -> Host {
        Host(HostCpu::new(
            model.clone(),
            NodeId(node),
            CpuRates::default(),
        ))
    }

    #[test]
    fn consume_advances_time_by_service() {
        let sim = Sim::new(1);
        let model = CpuModel::new();
        let m = host(&model, 0);
        sim.spawn("worker", move || {
            // 1 MB at 5.5 MB/s ≈ 181.8 ms.
            m.consume(1 << 20, 5.5e6);
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
            let m = host(&model, 0);
            sim.spawn(format!("w{i}"), move || {
                m.consume(1_000_000, 10e6); // 100 ms each
            });
        }
        sim.run();
        // One CPU: 2 × 100 ms = 200 ms total, not 100 ms.
        assert_eq!(sim.now().as_nanos(), 200_000_000);
    }

    #[test]
    fn different_hosts_run_in_parallel() {
        let sim = Sim::new(1);
        let model = CpuModel::new();
        for i in 0..2 {
            let m = host(&model, i);
            sim.spawn(format!("w{i}"), move || {
                m.consume(1_000_000, 10e6);
            });
        }
        sim.run();
        assert_eq!(sim.now().as_nanos(), 100_000_000, "separate CPUs overlap");
    }

    #[test]
    fn unlimited_rates_are_free() {
        let sim = Sim::new(1);
        let model = CpuModel::new();
        let m = host(&model, 0);
        sim.spawn("w", move || {
            m.consume(10 << 20, f64::INFINITY);
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
