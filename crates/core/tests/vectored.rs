//! Property test for the demand-stated drain (DESIGN.md §5c):
//! `BlockRead::read_chunks_min` must recover the same bytes as the
//! one-byte-demand `read_chunks` loop for arbitrary block-size and demand
//! sequences, on every driver stack. Stating the demand may change how
//! many host calls carry the bytes — never which bytes, in what order.

use bytes::Bytes;
use netgrid::drivers::{
    BlockRead, BlockReader, BlockWrite, BlockWriter, StripeReader, StripeWriter,
};
use netgrid::{BlockPool, CpuModel, CpuRates, HostCpu};
use proptest::prelude::*;
use std::io::{self, Read, Write};
use std::sync::Arc;
use std::time::Duration;

/// In-memory sink capturing exactly the byte stream a raw link would see.
#[derive(Clone)]
struct SharedSink(Arc<parking_lot::Mutex<Vec<u8>>>);

impl SharedSink {
    fn new() -> SharedSink {
        SharedSink(Arc::new(parking_lot::Mutex::new(Vec::new())))
    }
    fn take(&self) -> Vec<u8> {
        std::mem::take(&mut self.0.lock())
    }
}

impl Write for SharedSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}
impl BlockWrite for SharedSink {}

struct SliceReader(io::Cursor<Vec<u8>>);

impl Read for SliceReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.0.read(buf)
    }
}
impl BlockRead for SliceReader {}

/// Deterministic mixed-entropy payload.
fn payload(len: usize, seed: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let mut x = seed | 1;
    while out.len() < len {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if x & 3 == 0 {
            let run = (x >> 8) as usize % 48 + 1;
            let b = (x >> 16) as u8;
            for _ in 0..run.min(len - out.len()) {
                out.push(b);
            }
        } else {
            out.push((x >> 24) as u8);
        }
    }
    out
}

/// Cut `data` into pooled `Bytes` blocks of the given sizes.
fn cut_blocks(data: &[u8], sizes: &[usize], pool: &BlockPool) -> Vec<Bytes> {
    let mut blocks = Vec::new();
    let mut off = 0;
    for &s in sizes {
        let n = s.min(data.len() - off);
        let mut b = pool.checkout();
        b.extend_from_slice(&data[off..off + n]);
        blocks.push(b.freeze());
        off += n;
        if off == data.len() {
            break;
        }
    }
    if off < data.len() {
        let mut b = pool.checkout();
        b.extend_from_slice(&data[off..]);
        blocks.push(b.freeze());
    }
    blocks
}

/// The driver stacks under test. GTLS record framing sits below the block
/// layer and routes both paths through the same sealed-record writer, so
/// the block-layer stacks are where the two drains could diverge.
#[derive(Clone, Copy, Debug)]
enum Stack {
    /// Single-stream aggregation (TCP_Block).
    Agg,
    /// 4-way striping with per-stream daemons.
    Stripe4,
    /// LZSS compression over aggregation.
    Gridzip,
}

const STACKS: [Stack; 3] = [Stack::Agg, Stack::Stripe4, Stack::Gridzip];

/// Push `blocks` through `stack`, one `write_block` each. Returns each
/// sink's captured byte stream.
fn capture(stack: Stack, blocks: &[Bytes], block_size: usize) -> Vec<Vec<u8>> {
    let sim = gridsim_net::Sim::new(11);
    let out: Arc<parking_lot::Mutex<Vec<Vec<u8>>>> = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let out2 = Arc::clone(&out);
    let blocks = blocks.to_vec();
    sim.spawn("writer", move || {
        let pool = BlockPool::new(block_size);
        let n_sinks = match stack {
            Stack::Stripe4 => 4,
            _ => 1,
        };
        let sinks: Vec<SharedSink> = (0..n_sinks).map(|_| SharedSink::new()).collect();
        let mut w: Box<dyn BlockWrite + Send> = match stack {
            Stack::Agg => Box::new(BlockWriter::new(sinks[0].clone(), pool.clone())),
            Stack::Stripe4 => {
                let cpu = HostCpu::new(
                    CpuModel::new(),
                    gridsim_net::NodeId(0),
                    CpuRates::unlimited(),
                );
                let streams: Vec<Box<dyn BlockWrite + Send>> = sinks
                    .iter()
                    .map(|s| Box::new(s.clone()) as Box<dyn BlockWrite + Send>)
                    .collect();
                let copy_rate = cpu.rates.copy;
                Box::new(StripeWriter::with_pool(
                    streams,
                    pool.clone(),
                    cpu,
                    copy_rate,
                    &gridsim_net::ctx::handle(),
                ))
            }
            Stack::Gridzip => {
                let agg = BlockWriter::new(sinks[0].clone(), pool.clone());
                Box::new(gridzip::CompressWriter::with_block_size(agg, 3, block_size))
            }
        };
        for b in &blocks {
            w.write_block(b.clone()).unwrap();
        }
        w.flush().unwrap();
        drop(w); // stripe: close queues so daemons drain and exit
        gridsim_net::ctx::sleep(Duration::from_millis(1));
        *out2.lock() = sinks.iter().map(|s| s.take()).collect();
    });
    sim.run();
    let captured = out.lock().clone();
    captured
}

/// Reassemble a payload from captured streams via the demand-stating
/// drain API (`read_chunks_min`) or the scalar `read_chunks` loop.
fn drain(
    stack: Stack,
    streams: Vec<Vec<u8>>,
    block_size: usize,
    demands: &[(usize, usize)],
    vectored: bool,
) -> Vec<u8> {
    let sim = gridsim_net::Sim::new(13);
    let out = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let out2 = Arc::clone(&out);
    let demands = demands.to_vec();
    sim.spawn("reader", move || {
        let readers: Vec<Box<dyn BlockRead + Send>> = streams
            .into_iter()
            .map(|v| Box::new(SliceReader(io::Cursor::new(v))) as Box<dyn BlockRead + Send>)
            .collect();
        let mut r: Box<dyn BlockRead + Send> = match stack {
            Stack::Agg => {
                let [one] = <[_; 1]>::try_from(readers).ok().unwrap();
                Box::new(BlockReader::new(one, block_size))
            }
            Stack::Stripe4 => Box::new(StripeReader::new(readers, &gridsim_net::ctx::handle())),
            Stack::Gridzip => {
                let [one] = <[_; 1]>::try_from(readers).ok().unwrap();
                Box::new(gridzip::DecompressReader::new(BlockReader::new(
                    one, block_size,
                )))
            }
        };
        let mut got: Vec<Bytes> = Vec::new();
        let mut i = 0;
        loop {
            let (min, max) = demands[i % demands.len()];
            i += 1;
            let n = if vectored {
                r.read_chunks_min(min, max, &mut got).unwrap()
            } else {
                r.read_chunks(max, &mut got).unwrap()
            };
            if n == 0 {
                break;
            }
        }
        let mut bytes = Vec::new();
        for c in &got {
            bytes.extend_from_slice(c);
        }
        *out2.lock() = bytes;
    });
    sim.run();
    let got = out.lock().clone();
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The demand-stating drain (`read_chunks_min`) recovers the same
    /// payload as the scalar chunk loop from identical wire streams, for
    /// arbitrary (min, max) demand sequences, on every stack.
    #[test]
    fn vectored_drain_matches_scalar(
        sizes in proptest::collection::vec(1usize..4000, 1..12),
        block_size in 256usize..4096,
        demands in proptest::collection::vec((1usize..6000, 1usize..6000), 1..8),
        seed in any::<u64>(),
    ) {
        let total: usize = sizes.iter().sum();
        let data = payload(total, seed);
        let pool = BlockPool::new(block_size.max(8));
        let blocks = cut_blocks(&data, &sizes, &pool);
        for stack in STACKS {
            let wire = capture(stack, &blocks, block_size);
            let scalar = drain(stack, wire.clone(), block_size, &demands, false);
            let vectored = drain(stack, wire, block_size, &demands, true);
            prop_assert_eq!(&scalar, &data, "scalar drain corrupted payload on {:?}", stack);
            prop_assert_eq!(&vectored, &data, "vectored drain corrupted payload on {:?}", stack);
        }
    }
}
