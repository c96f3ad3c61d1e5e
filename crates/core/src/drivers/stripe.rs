//! Parallel TCP streams (paper §4.2): "sender and receiver have to fragment
//! and multiplex the data over the underlying, individual TCP streams".
//!
//! The fragmentation scheme is strict round-robin: block *i* travels on
//! stream `i mod N`, framed as `[varint length][bytes]`. Because the order
//! is deterministic, the receiver needs no reordering buffer — TCP's own
//! per-stream windows do the buffering, and the aggregate in-flight data is
//! the sum of the individual windows, which is precisely how parallel
//! streams beat the OS window cap.
//!
//! Blocks travel as refcounted [`Bytes`]: a block-aligned `write_block`
//! slices the incoming buffer straight onto the stream queues without
//! copying (the per-block copy *cost* is still charged to the simulated
//! CPU — the paper's hardware paid it, so simulated time must too), and
//! the receive side hands decoded blocks out as refcounted views.

use bytes::Bytes;
use gridzip::varint;
use std::io::{self, Read, Write};

use super::blockio::{BlockRead, BlockReader, BlockWrite};
use crate::cpu::HostCpu;
use crate::pool::{BlockBuf, BlockPool};

/// The sender half of the parallel-stream driver. Each stream gets a pump
/// task and a bounded block queue, so one stream's congestion-recovery
/// stall does not idle the others (NetIbis likewise wrote each connection
/// from its own thread); the producer parks only when the *target* queue
/// of the round-robin order is full.
pub struct StripeWriter {
    queues: Vec<gridsim_net::SimQueue<Bytes>>,
    error: std::sync::Arc<parking_lot::Mutex<Option<(io::ErrorKind, String)>>>,
    block: usize,
    pool: BlockPool,
    buf: BlockBuf,
    next: usize,
    cpu: HostCpu,
    copy_rate: f64,
    /// Total blocks emitted (diagnostics).
    pub blocks_sent: u64,
}

/// Blocks buffered per stream before the producer backpressures.
const WRITER_QUEUE_BLOCKS: usize = 8;

impl StripeWriter {
    pub fn new(
        streams: Vec<Box<dyn BlockWrite + Send>>,
        block: usize,
        cpu: HostCpu,
        copy_rate: f64,
    ) -> StripeWriter {
        let sched = gridsim_net::ctx::handle();
        Self::with_pool(streams, BlockPool::new(block), cpu, copy_rate, &sched)
    }

    /// Like [`new`](Self::new) on `sched`, drawing staging buffers from a
    /// caller-supplied pool (shared across the stack's layers); the
    /// striping unit is the pool's block size.
    pub fn with_pool(
        streams: Vec<Box<dyn BlockWrite + Send>>,
        pool: BlockPool,
        cpu: HostCpu,
        copy_rate: f64,
        sched: &gridsim_net::SchedHandle,
    ) -> StripeWriter {
        let block = pool.block_size();
        assert!(streams.len() >= 2, "striping needs at least two streams");
        assert!(block > 0);
        let error: std::sync::Arc<parking_lot::Mutex<Option<(io::ErrorKind, String)>>> =
            std::sync::Arc::new(parking_lot::Mutex::new(None));
        let mut queues = Vec::with_capacity(streams.len());
        for (i, mut stream) in streams.into_iter().enumerate() {
            let q: gridsim_net::SimQueue<Bytes> =
                gridsim_net::SimQueue::bounded(WRITER_QUEUE_BLOCKS);
            let q2 = q.clone();
            let error = std::sync::Arc::clone(&error);
            sched.spawn_daemon(format!("stripe-out-{i}"), move || {
                while let Some(block) = q2.pop() {
                    let mut hdr = Vec::with_capacity(4);
                    varint::put(&mut hdr, block.len() as u64);
                    if let Err(e) = stream
                        .write_all(&hdr)
                        .and_then(|_| stream.write_block(block))
                    {
                        *error.lock() = Some((e.kind(), e.to_string()));
                        q2.close();
                        break;
                    }
                }
                let _ = stream.flush();
            });
            queues.push(q);
        }
        let buf = pool.checkout();
        StripeWriter {
            queues,
            error,
            block,
            pool,
            buf,
            next: 0,
            cpu,
            copy_rate,
            blocks_sent: 0,
        }
    }

    /// A handle for terminating the reader pumps on the far side: clones
    /// of the per-stream queues, usable while the writer itself is borrowed
    /// elsewhere (the session layer holds it inside the boxed stack).
    pub fn terminator(&self) -> StripeTerminator {
        StripeTerminator {
            queues: self.queues.clone(),
        }
    }

    /// Hand one assembled block to the round-robin target stream. The block
    /// may be a zero-copy slice of a caller buffer; the user-space copy the
    /// real striping driver pays is still charged to the simulated CPU
    /// (the paper's comp+parallel combination pays exactly this cost), so
    /// simulated time is independent of the host-side optimization.
    fn emit_ready(&mut self, block: Bytes) -> io::Result<()> {
        if let Some((kind, msg)) = self.error.lock().clone() {
            return Err(io::Error::new(kind, msg));
        }
        self.cpu.consume(block.len(), self.copy_rate);
        if self.queues[self.next].push(block).is_err() {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "stripe stream closed",
            ));
        }
        self.next = (self.next + 1) % self.queues.len();
        self.blocks_sent += 1;
        Ok(())
    }

    fn emit_block(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let full = std::mem::replace(&mut self.buf, self.pool.checkout());
        self.emit_ready(full.freeze())
    }
}

impl Drop for StripeWriter {
    fn drop(&mut self) {
        let _ = self.emit_block();
        for q in &self.queues {
            q.close();
        }
    }
}

impl Write for StripeWriter {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let mut rest = data;
        while !rest.is_empty() {
            let room = self.block - self.buf.len();
            let n = room.min(rest.len());
            self.buf.extend_from_slice(&rest[..n]);
            rest = &rest[n..];
            if self.buf.len() == self.block {
                self.emit_block()?;
            }
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.emit_block()
    }
}

impl BlockWrite for StripeWriter {
    fn write_block(&mut self, mut block: Bytes) -> io::Result<()> {
        while !block.is_empty() {
            if self.buf.is_empty() && block.len() >= self.block {
                // Block-aligned fast path: carve a striping unit off the
                // incoming buffer as a refcounted view, no copy.
                let unit = block.split_to(self.block);
                self.emit_ready(unit)?;
            } else {
                let room = self.block - self.buf.len();
                let n = room.min(block.len());
                self.buf.extend_from_slice(&block.split_to(n));
                if self.buf.len() == self.block {
                    self.emit_block()?;
                }
            }
        }
        Ok(())
    }
}

/// Sender-side handle that ends the current striping *segment*: one
/// zero-length block — the in-band terminator — is queued on every stream,
/// strictly after every data block already submitted (queue FIFO order).
/// The receiver's per-stream pumps exit cleanly when they read it, which
/// is what makes a live path reconfiguration safe: the old [`StripeReader`]
/// can be quiesced before a replacement stack starts reading the same
/// sockets. Writers never emit zero-length data blocks, so the terminator
/// is unambiguous on the wire.
pub struct StripeTerminator {
    queues: Vec<gridsim_net::SimQueue<Bytes>>,
}

impl StripeTerminator {
    /// Queue the terminator on every stream. Fails if a stream pump
    /// already died (its queue is closed).
    pub fn terminate(&self) -> io::Result<()> {
        for q in &self.queues {
            if q.push(Bytes::new()).is_err() {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "stripe stream closed",
                ));
            }
        }
        Ok(())
    }
}

/// The receiver half: per-stream pump tasks drain the TCP streams eagerly
/// into bounded block queues (keeping every stream's receive window open —
/// NetIbis used one thread per connection the same way), while `read`
/// consumes blocks in the writer's round-robin order.
pub struct StripeReader {
    queues: Vec<gridsim_net::SimQueue<io::Result<Bytes>>>,
    next: usize,
    current: Bytes,
    eof: bool,
}

/// Blocks buffered per stream before the pump backpressures TCP.
const READER_QUEUE_BLOCKS: usize = 8;

impl StripeReader {
    pub fn new(
        streams: Vec<Box<dyn BlockRead + Send>>,
        sched: &gridsim_net::SchedHandle,
    ) -> StripeReader {
        assert!(streams.len() >= 2, "striping needs at least two streams");
        let mut queues = Vec::with_capacity(streams.len());
        for (i, s) in streams.into_iter().enumerate() {
            let q: gridsim_net::SimQueue<io::Result<Bytes>> =
                gridsim_net::SimQueue::bounded(READER_QUEUE_BLOCKS);
            let q2 = q.clone();
            sched.spawn_daemon(format!("stripe-pump-{i}"), move || {
                // Read-ahead of one byte: every read states its exact
                // demand, so the socket drains as the header and the block
                // call for and the wire is the byte-wise reader's.
                let mut cur = BlockReader::new(s, 1);
                loop {
                    match read_block(&mut cur) {
                        Ok(Some(block)) => {
                            if q2.push(Ok(block)).is_err() {
                                break; // consumer gone
                            }
                        }
                        Ok(None) => {
                            q2.close();
                            break;
                        }
                        Err(e) => {
                            let _ = q2.push(Err(e));
                            q2.close();
                            break;
                        }
                    }
                }
            });
            queues.push(q);
        }
        StripeReader {
            queues,
            next: 0,
            current: Bytes::new(),
            eof: false,
        }
    }

    /// A handle for waiting out the pump tasks after this reader is
    /// retired: clones of the per-stream queues, so the session layer can
    /// confirm every pump exited before a replacement stack reads the same
    /// sockets.
    pub fn quiesce(&self) -> StripeQuiesce {
        StripeQuiesce {
            queues: self.queues.clone(),
        }
    }

    /// Pop blocks in round-robin order until `current` is non-empty;
    /// `Ok(false)` on EOF.
    fn refill(&mut self) -> io::Result<bool> {
        while self.current.is_empty() {
            match self.queues[self.next].pop() {
                Some(Ok(block)) => {
                    self.current = block;
                    self.next = (self.next + 1) % self.queues.len();
                }
                Some(Err(e)) => return Err(e),
                None => {
                    self.eof = true;
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }
}

/// Receiver-side handle paired with a retired [`StripeReader`]: waiting on
/// it parks until every pump task consumed its segment terminator (or hit
/// a stream error) and closed its queue. Until that point the pumps are
/// still entitled to read from the underlying sockets, so a live
/// reconfiguration must wait here before acking the sender — otherwise a
/// zombie pump would steal the first new-format bytes.
pub struct StripeQuiesce {
    queues: Vec<gridsim_net::SimQueue<io::Result<Bytes>>>,
}

impl StripeQuiesce {
    /// Park until every pump exited, discarding any residual blocks or
    /// errors (by the reconfiguration protocol there are none: the
    /// terminator is the last thing the sender wrote in the old format).
    pub fn wait(self) {
        for q in &self.queues {
            while q.pop().is_some() {}
        }
    }
}

/// Read one `[varint len][bytes]` block; `Ok(None)` on clean EOF at a block
/// boundary or on the in-band segment terminator (a zero-length block —
/// see [`StripeTerminator`]; data blocks are never empty). A block that
/// arrived as one chunk is handed on as a view of it; one that spans
/// chunks is gathered here, the one copy of the stripe receive path.
fn read_block<R: BlockRead>(cur: &mut BlockReader<R>) -> io::Result<Option<Bytes>> {
    if cur.at_eof()? {
        return Ok(None);
    }
    let len = cur.read_varint()?;
    if len == 0 {
        // Segment terminator: the sender retired this stripe layout (live
        // reconfiguration). Clean end-of-segment, same as EOF.
        return Ok(None);
    }
    if len > (64 << 20) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "stripe block too large",
        ));
    }
    cur.read_exact_bytes(len as usize).map(Some)
}

impl Read for StripeReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.eof || !self.refill()? {
            return Ok(0);
        }
        let n = buf.len().min(self.current.len());
        buf[..n].copy_from_slice(&self.current[..n]);
        self.current.split_to(n);
        Ok(n)
    }
}

impl BlockRead for StripeReader {
    fn read_chunks_min(
        &mut self,
        min: usize,
        max: usize,
        out: &mut Vec<Bytes>,
    ) -> io::Result<usize> {
        let mut got = 0;
        while got < min && !self.eof && self.refill()? {
            let n = (min - got).max(max).min(self.current.len());
            out.push(self.current.split_to(n));
            got += n;
        }
        Ok(got)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::{CpuModel, CpuRates};
    use gridsim_net::{NodeId, Sim};
    use parking_lot::Mutex;
    use std::sync::Arc;

    /// In-memory unidirectional stream for driver tests (no network).
    #[derive(Clone, Default)]
    struct MemPipe(Arc<Mutex<(Vec<u8>, usize)>>);

    impl Write for MemPipe {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().0.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Read for MemPipe {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let mut g = self.0.lock();
            let (data, pos) = (&g.0, g.1);
            let n = buf.len().min(data.len() - pos);
            buf[..n].copy_from_slice(&data[pos..pos + n]);
            g.1 += n;
            Ok(n)
        }
    }

    // Copying defaults are fine for an in-memory pipe.
    impl BlockWrite for MemPipe {}
    impl BlockRead for MemPipe {}

    fn free_cpu() -> HostCpu {
        HostCpu::new(CpuModel::new(), NodeId(0), CpuRates::unlimited())
    }

    fn block_writers(pipes: &[MemPipe]) -> Vec<Box<dyn BlockWrite + Send>> {
        pipes
            .iter()
            .cloned()
            .map(|p| Box::new(p) as Box<dyn BlockWrite + Send>)
            .collect()
    }

    fn block_readers(pipes: &[MemPipe]) -> Vec<Box<dyn BlockRead + Send>> {
        pipes
            .iter()
            .cloned()
            .map(|p| Box::new(p) as Box<dyn BlockRead + Send>)
            .collect()
    }

    fn stripe_roundtrip(n_streams: usize, block: usize, payload: &[u8]) -> Vec<u8> {
        let pipes: Vec<MemPipe> = (0..n_streams).map(|_| MemPipe::default()).collect();
        let writers = block_writers(&pipes);
        let readers = block_readers(&pipes);
        let sim = Sim::new(0);
        let cpu = free_cpu();
        let payload = payload.to_vec();
        let out = Arc::new(Mutex::new(Vec::new()));
        let o2 = Arc::clone(&out);
        sim.spawn("roundtrip", move || {
            let mut w = StripeWriter::new(writers, block, cpu, f64::INFINITY);
            w.write_all(&payload).unwrap();
            w.flush().unwrap();
            drop(w); // close queues so the pumps drain and hang up
            gridsim_net::ctx::sleep(std::time::Duration::from_millis(1));
            let mut r = StripeReader::new(readers, &gridsim_net::ctx::handle());
            let mut got = Vec::new();
            // MemPipe returns Ok(0) when drained, which StripeReader treats
            // as stream EOF — fine for this lock-step test.
            r.read_to_end(&mut got).unwrap();
            *o2.lock() = got;
        });
        sim.run();
        let x = out.lock().clone();
        x
    }

    #[test]
    fn roundtrip_various_shapes() {
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        for n in [2usize, 4, 8] {
            for block in [1024usize, 4096, 16 * 1024] {
                assert_eq!(
                    stripe_roundtrip(n, block, &payload),
                    payload,
                    "n={n} block={block}"
                );
            }
        }
    }

    #[test]
    fn partial_tail_block_preserved() {
        // Payload not a multiple of the block size.
        let payload = vec![9u8; 10_000 + 7];
        assert_eq!(stripe_roundtrip(3, 4096, &payload), payload);
    }

    #[test]
    fn empty_payload_is_clean_eof() {
        assert_eq!(stripe_roundtrip(2, 1024, &[]), Vec::<u8>::new());
    }

    #[test]
    fn blocks_distribute_round_robin() {
        let pipes: Vec<MemPipe> = (0..4).map(|_| MemPipe::default()).collect();
        let writers = block_writers(&pipes);
        let sim = Sim::new(0);
        let cpu = free_cpu();
        let pipes2 = pipes.clone();
        sim.spawn("w", move || {
            let mut w = StripeWriter::new(writers, 1000, cpu, f64::INFINITY);
            w.write_all(&vec![1u8; 8000]).unwrap();
            w.flush().unwrap();
            assert_eq!(w.blocks_sent, 8);
            drop(w);
            gridsim_net::ctx::sleep(std::time::Duration::from_millis(1));
            // Each of 4 pipes got exactly 2 blocks (2 * (1000 + hdr)).
            for p in &pipes2 {
                let len = p.0.lock().0.len();
                assert_eq!(
                    len,
                    2 * (1000 + 2),
                    "1000-byte blocks have 2-byte varint headers"
                );
            }
        });
        sim.run();
    }

    #[test]
    fn write_block_zero_copy_path_matches_write() {
        // The same payload through `write` (copying) and `write_block`
        // (slicing) must produce byte-identical per-stream wire data.
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 241) as u8).collect();
        let wire_of = |use_block: bool| -> Vec<Vec<u8>> {
            let pipes: Vec<MemPipe> = (0..3).map(|_| MemPipe::default()).collect();
            let writers = block_writers(&pipes);
            let sim = Sim::new(0);
            let cpu = free_cpu();
            let payload = payload.clone();
            let pipes2 = pipes.clone();
            let out = Arc::new(Mutex::new(Vec::new()));
            let o2 = Arc::clone(&out);
            sim.spawn("w", move || {
                let mut w = StripeWriter::new(writers, 1024, cpu, f64::INFINITY);
                if use_block {
                    w.write_block(Bytes::from(payload)).unwrap();
                } else {
                    w.write_all(&payload).unwrap();
                }
                w.flush().unwrap();
                drop(w);
                gridsim_net::ctx::sleep(std::time::Duration::from_millis(1));
                *o2.lock() = pipes2.iter().map(|p| p.0.lock().0.clone()).collect();
            });
            sim.run();
            let x = out.lock().clone();
            x
        };
        assert_eq!(wire_of(true), wire_of(false));
    }

    #[test]
    fn copy_cost_is_charged() {
        let pipes: Vec<MemPipe> = (0..2).map(|_| MemPipe::default()).collect();
        let writers = block_writers(&pipes);
        let sim = Sim::new(0);
        let cpu = free_cpu();
        sim.spawn("w", move || {
            let mut w = StripeWriter::new(writers, 1024, cpu, 10e6);
            w.write_all(&vec![0u8; 1_000_000]).unwrap();
            w.flush().unwrap();
            let t = gridsim_net::ctx::now().as_secs_f64();
            assert!(
                (0.099..0.101).contains(&t),
                "1 MB at 10 MB/s copy = 100 ms, got {t}"
            );
        });
        sim.run();
    }

    #[test]
    fn copy_cost_charged_on_zero_copy_blocks_too() {
        // Simulated time models the real driver's copy; the host-side
        // zero-copy fast path must not change it.
        let pipes: Vec<MemPipe> = (0..2).map(|_| MemPipe::default()).collect();
        let writers = block_writers(&pipes);
        let sim = Sim::new(0);
        let cpu = free_cpu();
        sim.spawn("w", move || {
            let mut w = StripeWriter::new(writers, 1024, cpu, 10e6);
            w.write_block(Bytes::from(vec![0u8; 1_000_000])).unwrap();
            w.flush().unwrap();
            let t = gridsim_net::ctx::now().as_secs_f64();
            assert!(
                (0.099..0.101).contains(&t),
                "zero-copy path still charges copy: {t}"
            );
        });
        sim.run();
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let pipes: Vec<MemPipe> = (0..2).map(|_| MemPipe::default()).collect();
        let writers = block_writers(&pipes);
        let sim = Sim::new(0);
        let cpu = free_cpu();
        let pipes2 = pipes.clone();
        sim.spawn("t", move || {
            let mut w = StripeWriter::new(writers, 1000, cpu, f64::INFINITY);
            w.write_all(&vec![1u8; 3000]).unwrap();
            w.flush().unwrap();
            drop(w);
            gridsim_net::ctx::sleep(std::time::Duration::from_millis(1));
            // Corrupt: truncate the second stream mid-block.
            pipes2[1].0.lock().0.truncate(500);
            let readers = block_readers(&pipes2);
            let mut r = StripeReader::new(readers, &gridsim_net::ctx::handle());
            let mut got = Vec::new();
            assert!(r.read_to_end(&mut got).is_err());
        });
        sim.run();
    }
}
