//! netgrid's driver stages alone, over sinks that discard: TCP_Block
//! aggregation framing, and four-way striping.

use std::io::{self, Write};
use std::time::Duration;

use bytes::Bytes;
use gridsim_net::{ctx, NodeId, Sim};
use netgrid::drivers::{BlockWrite, BlockWriter, StripeWriter};
use netgrid::{BlockPool, CpuModel, CpuRates, HostCpu};

use super::{cpu_ns, Metrics};
use crate::check::{Content, Payloads};

const BLOCK: usize = 32 * 1024;
const MSG: usize = 256 * 1024;
/// Passes over the 2 MiB payload set (128 MiB per stage).
const PASSES: usize = 64;

/// Discards, so a stage's framing, pooling and slicing are what is timed.
struct NullSink;

impl Write for NullSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}
impl BlockWrite for NullSink {}

pub fn run(seed: u64) -> Metrics {
    let data = Payloads::new(seed, MSG, Content::Grid).concat_bodies();
    // Pooled full-size blocks, cut once; the stages clone the handles.
    let pool = BlockPool::new(BLOCK);
    let blocks: Vec<Bytes> = data
        .chunks(BLOCK)
        .map(|c| {
            let mut b = pool.checkout();
            b.extend_from_slice(c);
            b.freeze()
        })
        .collect();
    let total = (PASSES * data.len()) as f64;

    let sim = Sim::new(seed);
    let input = blocks.clone();
    sim.spawn("agg", move || {
        let mut w = BlockWriter::new(NullSink, BlockPool::new(BLOCK));
        for _ in 0..PASSES {
            for b in &input {
                w.write_block(b.clone()).expect("null sink accepts");
            }
        }
        w.flush().expect("null sink flushes");
    });
    let (agg_ns, _) = cpu_ns(|| sim.run());

    let sim = Sim::new(seed);
    let input = blocks;
    sim.spawn("stripe", move || {
        let cpu = HostCpu::new(CpuModel::new(), NodeId(0), CpuRates::unlimited());
        let streams: Vec<Box<dyn BlockWrite + Send>> =
            (0..4).map(|_| Box::new(NullSink) as _).collect();
        let copy_rate = cpu.rates.copy;
        let mut w = StripeWriter::with_pool(
            streams,
            BlockPool::new(BLOCK),
            cpu,
            copy_rate,
            &ctx::handle(),
        );
        for _ in 0..PASSES {
            for b in &input {
                w.write_block(b.clone()).expect("null sinks accept");
            }
        }
        w.flush().expect("null sinks flush");
        drop(w);
        // Let the per-stream daemons drain their queues.
        ctx::sleep(Duration::from_millis(1));
    });
    let (stripe_ns, _) = cpu_ns(|| sim.run());

    vec![
        ("drivers.agg_ns_per_byte", agg_ns as f64 / total),
        ("drivers.stripe4_ns_per_byte", stripe_ns as f64 / total),
    ]
}
