//! Property tests for the pooled zero-copy block pipeline: payloads pushed
//! through the stripe driver and the gridzip stream layer come back
//! byte-identical, and the pool never hands the same backing buffer to two
//! live users (the aliasing invariant the `Bytes::from_owner` recycling in
//! `netgrid::pool` relies on).

use bytes::Bytes;
use netgrid::drivers::{BlockRead, BlockWrite, StripeReader, StripeWriter};
use netgrid::{BlockPool, CpuModel, CpuRates, HostCpu};
use proptest::prelude::*;
use std::io::{self, Read, Write};
use std::sync::Arc;
use std::time::Duration;

/// In-memory stream half used as a stripe sink: accumulates bytes under a
/// lock so the test can replay them into a reader afterwards.
#[derive(Clone)]
struct SharedSink(Arc<parking_lot::Mutex<Vec<u8>>>);

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

/// Replay side: a cursor over one captured stream.
struct SliceReader(io::Cursor<Vec<u8>>);

impl Read for SliceReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.0.read(buf)
    }
}
impl BlockRead for SliceReader {}

/// Deterministic payload with a mix of runs and noise, `len` bytes.
fn payload(len: usize, seed: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let mut x = seed | 1;
    while out.len() < len {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if x & 3 == 0 {
            let run = (x >> 8) as usize % 64 + 1;
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

/// Write `data` through a pooled StripeWriter over `n_streams` in-memory
/// streams (alternating the copying `Write` path and the zero-copy
/// `write_block` path per `chunks`), then reassemble via StripeReader.
fn stripe_roundtrip(data: &[u8], n_streams: usize, block: usize, chunks: &[usize]) -> Vec<u8> {
    let sim = gridsim_net::Sim::new(7);
    let out = Arc::new(parking_lot::Mutex::new(None::<Vec<u8>>));
    let out2 = Arc::clone(&out);
    let data = data.to_vec();
    let chunks = chunks.to_vec();
    sim.spawn("roundtrip", move || {
        let cpu = HostCpu::new(CpuModel::new(), gridsim_net::NodeId(0), CpuRates::default());
        let sinks: Vec<SharedSink> = (0..n_streams)
            .map(|_| SharedSink(Arc::new(parking_lot::Mutex::new(Vec::new()))))
            .collect();
        let streams: Vec<Box<dyn BlockWrite + Send>> = sinks
            .iter()
            .map(|s| Box::new(s.clone()) as Box<dyn BlockWrite + Send>)
            .collect();
        let pool = BlockPool::new(block);
        let copy_rate = cpu.rates.copy;
        let mut w = StripeWriter::with_pool(
            streams,
            pool.clone(),
            cpu,
            copy_rate,
            &gridsim_net::ctx::handle(),
        );
        let mut off = 0usize;
        let mut i = 0usize;
        while off < data.len() {
            let n = chunks[i % chunks.len()].min(data.len() - off);
            let piece = &data[off..off + n];
            if i.is_multiple_of(2) {
                // Pooled handoff: stage in a pool buffer, freeze, write_block.
                let mut b = pool.checkout();
                b.extend_from_slice(piece);
                w.write_block(b.freeze()).unwrap();
            } else {
                w.write_all(piece).unwrap();
            }
            off += n;
            i += 1;
        }
        w.flush().unwrap();
        drop(w); // closes the per-stream queues; daemons drain and exit
        gridsim_net::ctx::sleep(Duration::from_millis(1));
        let captured: Vec<Vec<u8>> = sinks.iter().map(|s| s.0.lock().clone()).collect();
        let readers: Vec<Box<dyn BlockRead + Send>> = captured
            .into_iter()
            .map(|v| Box::new(SliceReader(io::Cursor::new(v))) as Box<dyn BlockRead + Send>)
            .collect();
        let mut r = StripeReader::new(readers, &gridsim_net::ctx::handle());
        // Its `read` does not park: read blocking through the chunk API.
        let mut back = Vec::new();
        while r.read_chunks(64 * 1024, &mut back).unwrap() > 0 {}
        *out2.lock() = Some(back.concat());
    });
    sim.run();
    let got = out.lock().take().expect("roundtrip task finished");
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// pool -> stripe(n) -> reassembly is byte-identical for arbitrary
    /// payload sizes, stream counts, striping units, and chunking patterns.
    #[test]
    fn stripe_reassembles_pooled_blocks(
        len in 0usize..100_000,
        n_streams in 2usize..5,
        block_kb in 1usize..33,
        seed in any::<u64>(),
        c1 in 1usize..50_000,
        c2 in 1usize..50_000,
    ) {
        let data = payload(len, seed);
        let back = stripe_roundtrip(&data, n_streams, block_kb * 1024, &[c1, c2]);
        prop_assert_eq!(back, data);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// pool -> gridzip compress -> decompress is byte-identical: pooled
    /// blocks handed to the compression filter survive framing and the
    /// stored fallback at every level.
    #[test]
    fn gridzip_roundtrips_pooled_blocks(
        len in 0usize..60_000,
        level in 1..=gridzip::MAX_LEVEL,
        block_kb in 1usize..17,
        seed in any::<u64>(),
    ) {
        let data = payload(len, seed);
        let pool = BlockPool::new(16 * 1024);
        let mut w = gridzip::CompressWriter::with_block_size(Vec::new(), level, block_kb * 1024);
        let mut off = 0;
        while off < data.len() {
            let n = (16 * 1024).min(data.len() - off);
            let mut b = pool.checkout();
            b.extend_from_slice(&data[off..off + n]);
            w.write_block(b.freeze()).unwrap();
            off += n;
        }
        let framed = w.finish().unwrap();
        let mut r = gridzip::DecompressReader::new(io::Cursor::new(framed));
        let mut back = Vec::new();
        r.read_to_end(&mut back).unwrap();
        prop_assert_eq!(back, data);
    }

    /// The pool never hands out a buffer that is still referenced: live
    /// checkouts and frozen blocks (including slices keeping the owner
    /// alive) all have distinct backing storage, and recycling only occurs
    /// after the last reference drops.
    #[test]
    fn pool_never_aliases_live_buffers(
        ops in proptest::collection::vec((any::<u8>(), 1usize..4096), 1..60),
    ) {
        let pool = BlockPool::with_max_free(4096, 16);
        let mut live_bufs: Vec<netgrid::BlockBuf> = Vec::new();
        let mut live_bytes: Vec<Bytes> = Vec::new();
        for (op, size) in ops {
            match op % 4 {
                // Check out a fresh buffer and fill it.
                0 => {
                    let mut b = pool.checkout();
                    b.extend_from_slice(&vec![0xA5u8; size]);
                    live_bufs.push(b);
                }
                // Freeze a checkout into a shared block, keep a slice too.
                1 => {
                    if let Some(b) = live_bufs.pop() {
                        if !b.is_empty() {
                            let bytes = b.freeze();
                            let half = bytes.slice(0..bytes.len() / 2);
                            live_bytes.push(bytes);
                            if !half.is_empty() {
                                live_bytes.push(half);
                            }
                        }
                    }
                }
                // Drop the oldest frozen block (may recycle its storage).
                2 => {
                    if !live_bytes.is_empty() {
                        live_bytes.remove(0);
                    }
                }
                // Drop an unfrozen checkout (recycles immediately).
                _ => {
                    live_bufs.pop();
                }
            }
            // Invariant: no two live handles share backing storage. Slices
            // of the same Bytes share an owner but never overlap a pool
            // handout, so compare buffer start pointers of *distinct*
            // allocations: every BlockBuf start must be unique, and no
            // BlockBuf may alias a live frozen block's storage.
            let buf_ptrs: Vec<*const u8> = live_bufs.iter().map(|b| b.as_ptr()).collect();
            for (i, p) in buf_ptrs.iter().enumerate() {
                for q in &buf_ptrs[i + 1..] {
                    prop_assert_ne!(*p, *q, "two live checkouts share storage");
                }
                for bytes in &live_bytes {
                    let start = bytes.as_ptr() as usize;
                    let end = start + bytes.len();
                    prop_assert!(
                        (*p as usize) < start || (*p as usize) >= end,
                        "live checkout aliases a referenced frozen block"
                    );
                }
            }
        }
        // Once everything is dropped, storage is recycled for reuse.
        let before = pool.stats();
        live_bufs.clear();
        live_bytes.clear();
        let b = pool.checkout();
        let after = pool.stats();
        prop_assert!(after.hits > before.hits || pool.free_len() == 0 || before.misses == 0);
        drop(b);
    }
}
