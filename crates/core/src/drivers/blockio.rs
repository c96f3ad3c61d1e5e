//! CPU-charging I/O adapters and the zero-copy block I/O layer.
//!
//! Drivers that burn host CPU (compression, encryption, block copies) wrap
//! their inner stream in these adapters: every byte moved is charged to the
//! host's [`HostCpu`] at the configured 2004-era rate, so filter costs show
//! up in simulated time exactly where the paper's evaluation saw them.
//!
//! [`BlockWrite`]/[`BlockRead`] extend `Write`/`Read` with whole-block
//! handoff of pooled [`Bytes`] buffers. Layers that can move a block
//! without touching its bytes (aggregation passthrough, striping, the
//! simulated TCP send queue) override the methods. A byte-transforming
//! layer (compression, encryption) has to produce new bytes, and the rule
//! for it is: **hand on the buffer you already own**. The decompressor
//! decodes every block into a fresh `Vec`, so its `read_chunks_min` gives
//! that `Vec` away as a chunk; copying it into a zeroed bounce buffer
//! first, as the default does, was 8 % of `wan_integrated`'s CPU. Such an
//! override must pull from the layer below exactly when `Read::read`
//! would, so CPU charging — and hence simulated time — is identical on
//! either path. Layers with nothing of their own to hand on (the
//! `CpuWrite`/`CpuRead` charge meters, the compressing writer) keep the
//! copying defaults, which route through `Write::write`/`Read::read`.
//!
//! Every source is read, and every stream's sink written, one way: polled.
//! A call that cannot finish now is `Err(WouldBlock)`, the source or sink
//! having left the calling task's waker where the wake will come from and
//! named the park ([`ctx::would_block`]: `tcp read`, `tcp write`, `queue
//! pop`, `sleep`). Each layer keeps its partial unit across it — a GTLS
//! record, a gridzip block, a CPU charge with its bytes, a stripe block —
//! and asked again makes the same inner call, with the same length, that
//! the blocking code would have made, so the simulated clock cannot tell
//! the two apart. A caller that may park blocks one way, the poll plus one
//! park (`ctx::park_io`): the traits' provided `read_chunks_min` and
//! `write_block`; an async task awaits `BlockReader::read` or
//! `ctx::wait_io`, and a blocking caller of an `async fn` runs it under
//! `ctx::block_on`. Every raw `[varint
//! len][payload]` frame is read by one decoder, [`BlockReader::frame`].

use bytes::Bytes;
use gridsim_net::ctx;
use std::collections::VecDeque;
use std::io::{self, Read, Write};

use gridsim_net::SimTime;
use gridzip::varint;

use crate::cpu::HostCpu;
use crate::pool::{BlockBuf, BlockPool};

/// A byte sink that can also accept whole blocks by ownership handoff.
///
/// A stream's sink does not park: its `write` and
/// [`poll_write_block`](Self::poll_write_block) take all they are given or
/// fail, `Err(WouldBlock)` where they would park, keeping what they took
/// for the same bytes asked again (see the module doc). The blocking write
/// is the provided [`write_block`](Self::write_block): the poll plus one park.
pub trait BlockWrite: Write {
    /// Write all of `block` without parking, by ownership where the sink
    /// can keep it. Provided: its bytes through `write_all`, one call to a
    /// sink whose writes take all or nothing.
    fn poll_write_block(&mut self, block: &Bytes) -> io::Result<()> {
        self.write_all(block)
    }

    /// Write one whole block, parking where the sink would block.
    fn write_block(&mut self, block: Bytes) -> io::Result<()> {
        ctx::park_io(|| self.poll_write_block(&block))
    }
}

/// A byte source that can also hand data out as refcounted chunks.
///
/// Its `read` and [`poll_read_chunks_min`](Self::poll_read_chunks_min) do
/// not park: where they would, they are `Err(WouldBlock)` (see the module
/// doc). The poll's provided form copies through `read`, a zero-copy
/// reader overrides it; the blocking read is the provided
/// [`read_chunks_min`](Self::read_chunks_min), that poll plus one park.
pub trait BlockRead: Read {
    /// Pull at least `min` bytes unless EOF intervenes, with up to `max`
    /// bytes of read-ahead past the demand, appending them to `out` as
    /// chunks. Returns the byte count appended; less than `min` means EOF.
    /// Stating the real demand lets a demand-aware source (the simulated
    /// TCP socket) satisfy it with one parked wait serviced at event time
    /// instead of one wakeup per arriving chunk.
    ///
    /// Provided: the source is polled, parked on under the reason its
    /// would-block named, and asked again for the rest of the demand.
    fn read_chunks_min(
        &mut self,
        min: usize,
        max: usize,
        out: &mut Vec<Bytes>,
    ) -> io::Result<usize> {
        let mut got = 0;
        ctx::park_io(|| {
            let start = out.len();
            let read = self.poll_read_chunks_min(min - got, max, out);
            // A staged TCP read holds `out` until it is collected: what a
            // would-block appended counts only while `out` still holds it.
            if matches!(&read, Err(e) if e.kind() == io::ErrorKind::WouldBlock) {
                got += out
                    .get(start..)
                    .map_or(0, |c| c.iter().map(Bytes::len).sum());
            }
            read.map(|n| got + n)
        })
    }

    /// Pull up to `max` bytes: a demand of one byte. `Ok(0)` means EOF.
    fn read_chunks(&mut self, max: usize, out: &mut Vec<Bytes>) -> io::Result<usize> {
        self.read_chunks_min(1, max, out)
    }

    /// [`read_chunks_min`](Self::read_chunks_min) without parking: where
    /// the read would park, `Err(WouldBlock)`. Chunks appended to `out`
    /// before it are the caller's, and the demand still unmet is smaller by
    /// their length, so asking again for the rest makes the calls one
    /// blocking read would have made.
    ///
    /// Provided: each chunk is one `read` into a fresh buffer.
    fn poll_read_chunks_min(
        &mut self,
        min: usize,
        max: usize,
        out: &mut Vec<Bytes>,
    ) -> io::Result<usize> {
        chunks_until(min, max, out, |cap| {
            let mut v = vec![0u8; cap];
            let n = self.read(&mut v)?;
            v.truncate(n);
            Ok(v.into())
        })
    }
}

/// The chunking every byte-stream source shares: ask `next_chunk` for up
/// to `max(remaining, max)` bytes (at most 64 KiB) at a time, one chunk per
/// call, until the demand is met; an empty chunk is EOF.
pub(crate) fn chunks_until(
    min: usize,
    max: usize,
    out: &mut Vec<Bytes>,
    mut next_chunk: impl FnMut(usize) -> io::Result<Bytes>,
) -> io::Result<usize> {
    let mut got = 0;
    while got < min {
        let chunk = next_chunk((min - got).max(max).min(64 * 1024))?;
        if chunk.is_empty() {
            break;
        }
        got += chunk.len();
        out.push(chunk);
    }
    Ok(got)
}

// Trait-object plumbing: the assembled stacks are boxed, and a boxed
// block writer/reader must forward the block methods (the std blanket
// `Write for Box<W>` would silently fall back to the copying defaults).
impl BlockWrite for Box<dyn BlockWrite + Send> {
    fn poll_write_block(&mut self, block: &Bytes) -> io::Result<()> {
        (**self).poll_write_block(block)
    }
}

impl BlockRead for Box<dyn BlockRead + Send> {
    fn poll_read_chunks_min(
        &mut self,
        min: usize,
        max: usize,
        out: &mut Vec<Bytes>,
    ) -> io::Result<usize> {
        (**self).poll_read_chunks_min(min, max, out)
    }
}

/// `Vec<u8>` as a block sink, `&[u8]` as a block source (tests and
/// in-memory assembly).
impl BlockWrite for Vec<u8> {}
impl BlockRead for &[u8] {}

/// Granularity of CPU charging: cost is charged per chunk, interleaved
/// with the writes, modelling a filter that processes data incrementally
/// (as zlib does) rather than stalling for a whole message up front.
const CPU_CHUNK: usize = 8 * 1024;

/// A writer charging CPU time per byte written before passing it on: one
/// charge per chunk, waited out before the chunk is written.
pub struct CpuWrite<W> {
    inner: W,
    cpu: HostCpu,
    rate: f64,
    /// Bytes of the write in hand passed on, and when the charge for the
    /// chunk after them ends, once it is made.
    done: (usize, Option<SimTime>),
}

impl<W: Write> CpuWrite<W> {
    pub fn new(inner: W, cpu: HostCpu, rate: f64) -> CpuWrite<W> {
        let done = (0, None);
        CpuWrite {
            inner,
            cpu,
            rate,
            done,
        }
    }

    pub fn get_ref(&self) -> &W {
        &self.inner
    }
}

impl<W: Write> Write for CpuWrite<W> {
    /// `WouldBlock` while a chunk's charge runs (under `sleep`, woken at its
    /// end) or where the sink would block, the place kept: asked again with
    /// the same bytes, the write goes on there.
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        while let Some(chunk) = buf[self.done.0..].chunks(CPU_CHUNK).next() {
            let end = (self.done.1).get_or_insert_with(|| self.cpu.begin(chunk.len(), self.rate));
            ctx::reached(*end)?;
            self.inner.write_all(chunk)?;
            self.done = (self.done.0 + chunk.len(), None);
        }
        self.done = (0, None);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A reader charging CPU time per byte read from the inner stream: one
/// charge per read, for the bytes it returned, waited out before they are
/// handed on.
pub struct CpuRead<R> {
    inner: R,
    cpu: HostCpu,
    rate: f64,
    /// The last read while its charge runs: its byte count, and when the
    /// charge ends.
    charging: Option<(usize, SimTime)>,
    /// The buffer a chunk read whose charge runs holds its bytes in.
    held: Option<Vec<u8>>,
}

impl<R: Read> CpuRead<R> {
    pub fn new(inner: R, cpu: HostCpu, rate: f64) -> CpuRead<R> {
        let (charging, held) = (None, None);
        CpuRead {
            inner,
            cpu,
            rate,
            charging,
            held,
        }
    }
}

impl<R: Read> Read for CpuRead<R> {
    /// While the charge for the bytes read runs, `WouldBlock` under
    /// [`ctx::SLEEP_WAIT`], the task woken at its end by the event
    /// `ctx::sleep` schedules. The bytes are in `buf` meanwhile: asked
    /// again with the same buffer, the read returns their count.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let (n, end) = match self.charging.take() {
            Some(charging) => charging,
            None => {
                let n = self.inner.read(buf)?;
                (n, self.cpu.begin(n, self.rate))
            }
        };
        if let Err(e) = ctx::reached(end) {
            self.charging = Some((n, end));
            return Err(e);
        }
        Ok(n)
    }
}

// The crypto filters transform every byte, so copying is the honest model:
// a block read through the charge meter pays the per-chunk CPU charge via
// `Read::read`, each chunk in a buffer of its own that a running charge
// keeps for the next call.
impl<R: Read> BlockRead for CpuRead<R> {
    fn poll_read_chunks_min(
        &mut self,
        min: usize,
        max: usize,
        out: &mut Vec<Bytes>,
    ) -> io::Result<usize> {
        chunks_until(min, max, out, |cap| {
            let mut chunk = self.held.take().unwrap_or_else(|| vec![0u8; cap]);
            match self.read(&mut chunk) {
                Ok(n) => {
                    chunk.truncate(n);
                    Ok(chunk.into())
                }
                Err(e) => {
                    if self.charging.is_some() {
                        self.held = Some(chunk);
                    }
                    Err(e)
                }
            }
        })
    }
}

impl<W: Write> BlockWrite for CpuWrite<W> {}

// The compression layer recodes blocks entering it, so the copying default
// routes them through the framing path unchanged. Coming out, the decoder
// already owns each decoded block as a `Vec`: it is handed on as it is, in
// the chunking the copying default would produce and with the same inner
// reads (and `CpuRead` charges), minus the zeroed bounce buffer and copy.
impl<W: Write> BlockWrite for gridzip::CompressWriter<W> {}
impl<R: Read> BlockRead for gridzip::DecompressReader<R> {
    fn poll_read_chunks_min(
        &mut self,
        min: usize,
        max: usize,
        out: &mut Vec<Bytes>,
    ) -> io::Result<usize> {
        chunks_until(min, max, out, |cap| self.next_chunk(cap).map(Bytes::from))
    }
}

/// TCP_Block aggregation (paper §4.1) over a [`BlockWrite`] sink: small
/// writes coalesce into pool-backed blocks; block-sized writes pass through
/// zero-copy. Buffering semantics mirror `std::io::BufWriter` exactly (same
/// flush points, same passthrough threshold) so the wire byte stream is
/// unchanged from the `BufWriter` it replaces.
pub struct BlockWriter<W: BlockWrite> {
    inner: W,
    pool: BlockPool,
    buf: BlockBuf,
}

impl<W: BlockWrite> BlockWriter<W> {
    pub fn new(inner: W, pool: BlockPool) -> BlockWriter<W> {
        let buf = pool.checkout();
        BlockWriter { inner, pool, buf }
    }

    fn flush_buf(&mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            let full = std::mem::replace(&mut self.buf, self.pool.checkout());
            self.inner.write_block(full.freeze())?;
        }
        Ok(())
    }
}

impl<W: BlockWrite> Write for BlockWriter<W> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let cap = self.pool.block_size();
        if self.buf.len() + data.len() > cap {
            self.flush_buf()?;
        }
        if data.len() >= cap {
            // BufWriter passthrough: forward directly, parking where the
            // sink would block, as `write_block` does.
            ctx::park_io(|| self.inner.write_all(data))?;
        } else {
            self.buf.extend_from_slice(data);
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.flush_buf()?;
        self.inner.flush()
    }
}

impl<W: BlockWrite> BlockWrite for BlockWriter<W> {
    fn poll_write_block(&mut self, block: &Bytes) -> io::Result<()> {
        let cap = self.pool.block_size();
        if self.buf.len() + block.len() > cap {
            self.flush_buf()?;
        }
        if block.len() >= cap {
            // Zero-copy passthrough of an already-assembled block.
            self.inner.write_block(block.clone())
        } else {
            self.buf.extend_from_slice(block);
            Ok(())
        }
    }
}

/// The top of a sender stack whose layer polls (a charge meter), made a
/// sink the sending task writes as it writes any other: each write and
/// flush its poll plus one park.
pub struct Parked<W>(pub W);

impl<W: Write> Write for Parked<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        ctx::park_io(|| self.0.write_all(buf)).map(|()| buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        ctx::park_io(|| self.0.flush())
    }
}

impl<W: Write> BlockWrite for Parked<W> {}

impl<W: BlockWrite> Drop for BlockWriter<W> {
    fn drop(&mut self) {
        // Like BufWriter: best-effort flush of buffered data.
        let _ = self.flush_buf();
    }
}

/// Buffered reader over a [`BlockRead`] source: refcounted chunks buffered
/// in front, the source's chunk reads behind. As a byte reader it mirrors
/// `std::io::BufReader` — small reads are served from buffered chunks,
/// reads at least as large as the capacity bypass it — and chunked
/// consumers get the chunks back out copy-free via `read_chunks`.
///
/// It is also the demand-stating parse cursor of the port pump (over an
/// assembled receiver stack) and of a frame reader (over a bare socket):
/// each shortfall crosses the source as ONE call stating the real byte
/// demand, so a demand-aware source (the simulated TCP socket) parks once
/// and is serviced at event time until the demand is met. Read-ahead past
/// the demand is capped at `cap` — under the pump the stack's block size,
/// so socket drain sizes (and hence window-update acks and wire traces)
/// are what the byte-oriented parser produced. Only bytes that have
/// arrived are ever held.
///
/// The source is polled: a shortfall it cannot meet now is
/// `Err(WouldBlock)`, and every decoder here ([`Parse`],
/// [`frame`](Self::frame)) is restartable — it consumes nothing until its
/// whole unit has arrived, and asked again it states the demand it would
/// have stated blocking. A task awaits it with [`read`](Self::read), or
/// parks on it with `ctx::park_io`.
pub struct BlockReader<R: BlockRead> {
    inner: R,
    chunks: VecDeque<Bytes>,
    /// Total bytes buffered in `chunks`.
    avail: usize,
    /// Read-ahead unit.
    cap: usize,
    /// Reused landing pad for the source's chunk reads, drained into
    /// `chunks`.
    scratch: Vec<Bytes>,
}

impl<R: BlockRead> BlockReader<R> {
    pub fn new(inner: R, cap: usize) -> BlockReader<R> {
        BlockReader {
            inner,
            chunks: VecDeque::new(),
            avail: 0,
            cap: cap.max(1),
            scratch: Vec::new(),
        }
    }

    /// Bytes buffered and not yet consumed.
    pub(crate) fn buffered(&self) -> usize {
        self.avail
    }

    /// Await `unit`, a restartable decode, in an async task: each
    /// would-block is a wait under the reason its source named, the task's
    /// waker left behind ([`ctx::wait_io`]), and the next wake runs `unit`
    /// again.
    pub(crate) async fn read<T>(
        &mut self,
        mut unit: impl FnMut(&mut Self) -> io::Result<T>,
    ) -> io::Result<T> {
        ctx::wait_io(|| unit(self)).await
    }

    /// Buffer at least `need` bytes; false if the source ends first, its
    /// own error if it fails first — `WouldBlock` included, the chunks it
    /// handed out so far buffered.
    fn ensure(&mut self, need: usize) -> io::Result<bool> {
        if self.avail < need {
            let (want, cap) = (need - self.avail, self.cap);
            let res = self
                .inner
                .poll_read_chunks_min(want, cap, &mut self.scratch);
            // Data handed out before an error still counts.
            self.avail += self.scratch.iter().map(|c| c.len()).sum::<usize>();
            self.chunks.extend(self.scratch.drain(..));
            if self.avail < need {
                res?;
            }
        }
        Ok(self.avail >= need)
    }

    /// [`ensure`](Self::ensure), for a parser: a short source is an error.
    fn require(&mut self, need: usize) -> io::Result<()> {
        let have = self.ensure(need)?;
        have.then_some(())
            .ok_or_else(|| io::ErrorKind::UnexpectedEof.into())
    }

    /// Has the source ended, with nothing buffered — a clean end between
    /// two of the reader's units?
    pub(crate) fn at_eof(&mut self) -> io::Result<bool> {
        Ok(!self.ensure(1)?)
    }

    /// Take up to `n` bytes off the front chunk (there must be one).
    fn pop_front(&mut self, n: usize) -> Bytes {
        let part = match self.chunks.front_mut() {
            Some(front) if front.len() > n => front.split_to(n),
            _ => self.chunks.pop_front().expect("bytes buffered"),
        };
        self.avail -= part.len();
        part
    }

    /// Start a restartable decode at the front.
    pub(crate) fn parse(&mut self) -> Parse<'_, R> {
        Parse { r: self, at: 0 }
    }

    /// One `[varint len][payload]` frame, the payload by reference where it
    /// lies in one received chunk. Restartable: nothing is consumed until
    /// the whole frame has arrived. A length over `limit` is `InvalidData`
    /// before anything is buffered for it, a source ending inside the frame
    /// `UnexpectedEof`.
    pub fn frame(&mut self, limit: usize) -> io::Result<Bytes> {
        let mut p = self.parse();
        let len = usize::try_from(p.varint()?).ok().filter(|&n| n <= limit);
        let len =
            len.ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "frame too large"))?;
        p.r.require(p.at + len)?;
        p.commit();
        if self.chunks.front().is_some_and(|front| front.len() >= len) {
            return Ok(self.pop_front(len));
        }
        let mut data = Vec::new();
        self.read_exact_into(len, &mut data).map(|()| data.into())
    }

    /// Pull exactly `len` bytes onto the end of `out`.
    pub(crate) fn read_exact_into(&mut self, len: usize, out: &mut Vec<u8>) -> io::Result<()> {
        let mut p = self.parse();
        p.append(len, out)?;
        p.commit();
        Ok(())
    }
}

/// A decode in progress over a [`BlockReader`]'s buffered front: fields are
/// read at an offset past the front, each shortfall stated to the source as
/// the demand a consuming decoder would state at that point (the bytes the
/// field still lacks), and nothing is consumed until [`commit`](Self::commit).
/// Dropped uncommitted — on an error, `WouldBlock` included — it leaves the
/// reader as it found it, plus whatever arrived.
pub(crate) struct Parse<'a, R: BlockRead> {
    r: &'a mut BlockReader<R>,
    /// Bytes this decode has read so far.
    at: usize,
}

impl<R: BlockRead> Parse<'_, R> {
    /// Decode one varint ([`gridzip::varint::decode`]).
    pub(crate) fn varint(&mut self) -> io::Result<u64> {
        varint::decode(|| {
            self.r.require(self.at + 1)?;
            let mut i = self.at;
            self.at += 1;
            for c in &self.r.chunks {
                match c.get(i) {
                    Some(&b) => return Ok(b),
                    None => i -= c.len(),
                }
            }
            unreachable!("byte {} of {} buffered", self.at - 1, self.r.avail)
        })
    }

    /// The next `len` bytes, copied onto the end of `data`.
    pub(crate) fn append(&mut self, len: usize, data: &mut Vec<u8>) -> io::Result<()> {
        self.r.require(self.at + len)?;
        data.reserve_exact(len);
        let (mut skip, mut left) = (self.at, len);
        for c in &self.r.chunks {
            if left == 0 {
                break;
            }
            if skip >= c.len() {
                skip -= c.len();
                continue;
            }
            let take = (c.len() - skip).min(left);
            data.extend_from_slice(&c[skip..skip + take]);
            (skip, left) = (0, left - take);
        }
        self.at += len;
        Ok(())
    }

    /// Consume what this decode read.
    pub(crate) fn commit(self) {
        let mut left = self.at;
        while left > 0 {
            left -= self.r.pop_front(left).len();
        }
    }
}

impl<R: BlockRead> Read for BlockReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.avail == 0 && buf.len() >= self.cap {
            // BufReader bypass: large reads skip the buffer entirely.
            return self.inner.read(buf);
        }
        if !self.ensure(1)? {
            return Ok(0);
        }
        let part = self.pop_front(buf.len());
        buf[..part.len()].copy_from_slice(&part);
        Ok(part.len())
    }
}

impl<R: BlockRead> BlockReader<R> {
    /// Serve up to `max(min, max)` buffered bytes into `out`; the count.
    fn serve(&mut self, min: usize, max: usize, out: &mut Vec<Bytes>) -> usize {
        let mut got = 0;
        while got < max.max(min) && self.avail > 0 {
            let part = self.pop_front(max.max(min) - got);
            got += part.len();
            out.push(part);
        }
        got
    }
}

impl<R: BlockRead> BlockRead for BlockReader<R> {
    /// Serve what is buffered, then state the remaining demand to the
    /// source in one call (not a per-chunk loop) so a demand-aware source
    /// can satisfy it zero-copy with a single parked wait.
    fn poll_read_chunks_min(
        &mut self,
        min: usize,
        max: usize,
        out: &mut Vec<Bytes>,
    ) -> io::Result<usize> {
        let got = self.serve(min, max, out);
        if got >= min {
            return Ok(got);
        }
        let n = self.inner.poll_read_chunks_min(min - got, max, out)?;
        Ok(got + n)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cpu::{CpuModel, CpuRates};
    use gridsim_net::{ctx, NodeId, Sim};
    use std::sync::Arc;
    use std::time::Duration;

    fn host_cpu() -> (Sim, HostCpu) {
        let sim = Sim::new(1);
        let cpu = HostCpu::new(CpuModel::new(), NodeId(0), CpuRates::default());
        (sim, cpu)
    }

    #[test]
    fn write_charges_simulated_time() {
        let (sim, cpu) = host_cpu();
        sim.spawn("w", move || {
            let mut w = Parked(CpuWrite::new(Vec::new(), cpu, 10e6));
            w.write_all(&[0u8; 1_000_000]).unwrap();
            assert_eq!(
                ctx::now().as_nanos(),
                100_000_000,
                "1 MB at 10 MB/s = 100 ms"
            );
            assert_eq!(w.0.get_ref().len(), 1_000_000);
        });
        sim.run();
    }

    /// The decompressor's own `read_chunks_min` against the copying
    /// fallback over the same framed stream: same chunks, same bytes, and
    /// the same simulated time charged for the compressed bytes pulled.
    #[test]
    fn decompressor_hands_on_blocks_in_the_fallback_chunking() {
        use gridzip::{synth, CompressWriter, DecompressReader};
        let data = synth::grid_payload(200_000, 0.6, 5);
        let mut w = CompressWriter::with_block_size(Vec::new(), 1, 32 * 1024);
        w.write_all(&data).unwrap();
        let framed = w.finish().unwrap();
        for (min, max) in [(1, 32 * 1024), (9, 4096), (100_000, 32 * 1024), (70_000, 1)] {
            let drain = |native: bool| {
                let (sim, cpu) = host_cpu();
                let framed = framed.clone();
                let (done, result) = std::sync::mpsc::channel();
                sim.spawn("r", move || {
                    let inner = CpuRead::new(io::Cursor::new(framed), cpu, 5e6);
                    let mut r = DecompressReader::new(inner);
                    let mut chunks = Vec::new();
                    loop {
                        let n = if native {
                            r.read_chunks_min(min, max, &mut chunks)
                        } else {
                            Copying(&mut r).read_chunks_min(min, max, &mut chunks)
                        };
                        if n.unwrap() < min {
                            break;
                        }
                    }
                    done.send((chunks, ctx::now())).unwrap();
                });
                sim.run();
                result.recv().unwrap()
            };
            let (native, native_t) = drain(true);
            let (copied, copied_t) = drain(false);
            assert!(native == copied, "chunks differ at min {min}, max {max}");
            assert_eq!(
                native_t, copied_t,
                "sim time differs at min {min}, max {max}"
            );
            assert!(native.concat() == data);
        }
    }

    /// A reader read through the trait's copying chunks.
    struct Copying<R>(R);

    impl<R: Read> Read for Copying<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.0.read(buf)
        }
    }

    impl<R: Read> BlockRead for Copying<R> {}

    /// Every varint decoder — gridzip's slice form and the block
    /// reader's — takes the same encodings and refuses the same: a
    /// tenth byte may carry bit 63 only, so `ff×9 7f` is not a truncated
    /// `u64` but an error.
    #[test]
    fn every_varint_decoder_refuses_an_encoding_past_64_bits() {
        use io::ErrorKind::{InvalidData, UnexpectedEof};
        let nines = |last: u8, fill: u8| {
            let mut v = vec![fill; 9];
            v.push(last);
            v
        };
        let cases: Vec<(Vec<u8>, Result<u64, io::ErrorKind>)> = vec![
            (vec![0x00], Ok(0)),
            (vec![0x7f], Ok(127)),
            (vec![0x80, 0x01], Ok(128)),
            (nines(0x01, 0xff), Ok(u64::MAX)),
            (nines(0x01, 0x80), Ok(1 << 63)),
            (nines(0x00, 0xff), Ok(u64::MAX >> 1)),
            (nines(0x7f, 0xff), Err(InvalidData)),
            (nines(0x02, 0x80), Err(InvalidData)),
            (nines(0x81, 0xff), Err(InvalidData)),
            ([nines(0x81, 0xff), vec![0x01]].concat(), Err(InvalidData)),
            (vec![0x80], Err(UnexpectedEof)),
            (vec![], Err(UnexpectedEof)),
        ];
        for (bytes, want) in cases {
            let used = want.map(|_| bytes.len());
            let sliced = gridzip::varint::get(&bytes);
            assert_eq!(sliced, want.ok().zip(used.ok()), "get {bytes:02x?}");
            let mut cur = BlockReader::new(&bytes[..], 1);
            let block = cur.parse().varint().map_err(|e| e.kind());
            assert_eq!(block, want, "Parse::varint {bytes:02x?}");
        }
    }

    /// What a [`Fragments`] source hands out, and what it was asked.
    #[derive(Default)]
    struct Feed {
        fragments: VecDeque<Bytes>,
        /// Fragments that have arrived and are not yet taken whole.
        arrived: usize,
        caps: Vec<usize>,
        waker: Option<gridsim_net::Waker>,
    }

    /// A source that can only be polled — a routed stream's shape: it hands
    /// out fragments that have arrived one chunk call at a time, each cut
    /// to the call's cap, logs every cap asked for, and would block past
    /// them with the caller's waker kept for the next arrival.
    #[derive(Clone, Default)]
    struct Fragments(Arc<parking_lot::Mutex<Feed>>);

    impl Fragments {
        fn arrive(&self) {
            let mut feed = self.0.lock();
            feed.arrived += 1;
            if let Some(w) = feed.waker.take() {
                w.wake();
            }
        }

        fn next(&self, cap: usize) -> io::Result<Bytes> {
            let mut feed = self.0.lock();
            if feed.fragments.is_empty() {
                return Ok(Bytes::new());
            }
            if feed.arrived == 0 {
                feed.waker = Some(ctx::waker());
                return Err(ctx::would_block("fragments"));
            }
            feed.caps.push(cap);
            let front = feed.fragments.front_mut().expect("not empty");
            if front.len() > cap {
                return Ok(front.split_to(cap));
            }
            feed.arrived -= 1;
            Ok(feed.fragments.pop_front().expect("not empty"))
        }
    }

    impl Read for Fragments {
        fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
            unreachable!("read as chunks")
        }
    }

    impl BlockRead for Fragments {
        fn poll_read_chunks_min(
            &mut self,
            min: usize,
            max: usize,
            out: &mut Vec<Bytes>,
        ) -> io::Result<usize> {
            chunks_until(min, max, out, |cap| self.next(cap))
        }
    }

    /// A source whose poll blocks: the trait's provided `read_chunks_min`,
    /// for a [`Fragments`].
    struct Blocking(Fragments);

    impl Read for Blocking {
        fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
            unreachable!("read as chunks")
        }
    }

    impl BlockRead for Blocking {
        fn poll_read_chunks_min(
            &mut self,
            min: usize,
            max: usize,
            out: &mut Vec<Bytes>,
        ) -> io::Result<usize> {
            self.0.read_chunks_min(min, max, out)
        }
    }

    /// Frames and payloads decoded off a polled reader, restarted after
    /// every would-block with one more fragment arrived, come out as a
    /// blocking reader decodes them in a task whose fragments arrive by
    /// timer — through the provided `read_chunks_min`, which parks and asks
    /// again for the rest — from the same chunk calls with the same caps.
    #[test]
    fn a_polled_frame_decode_restarts_where_a_blocking_one_would_wait() {
        use crate::wire::Frame;
        let frames = [
            Frame::Open(vec![(7, "port-a".into()), (1 << 40, "b".into())]),
            Frame::Msg {
                channel: 7,
                len: 300,
            },
            Frame::Close { channel: u64::MAX },
            Frame::Msg {
                channel: 1 << 40,
                len: 2,
            },
        ];
        let mut wire = Vec::new();
        for f in &frames {
            f.write(&mut wire).unwrap();
            if let Frame::Msg { len, .. } = f {
                wire.extend((0..*len).map(|i| i as u8));
            }
        }
        // Cut so fragments end inside varints, names and payloads.
        let mut fragments = VecDeque::new();
        let mut rest = Bytes::from(wire);
        for n in [1, 2, 1, 5, 3, 1, 40, 7, 150, 1, 2, 200]
            .into_iter()
            .cycle()
        {
            if rest.is_empty() {
                break;
            }
            fragments.push_back(rest.split_to(n.min(rest.len())));
        }
        type Decoded = Vec<(Frame, Option<Vec<u8>>)>;
        // Each frame and its payload, each decode run until it is in;
        // `stalled` sees every would-block.
        fn decode<R: BlockRead>(
            cur: &mut BlockReader<R>,
            n: usize,
            mut stalled: impl FnMut(io::Error),
        ) -> Decoded {
            let mut got = Vec::new();
            while got.len() < n {
                let frame = match Frame::read(cur) {
                    Ok(frame) => frame,
                    Err(e) => {
                        stalled(e);
                        continue;
                    }
                };
                let payload = loop {
                    let Frame::Msg { len, .. } = frame else {
                        break None;
                    };
                    let mut data = Vec::new();
                    match cur.read_exact_into(len, &mut data) {
                        Ok(()) => break Some(data),
                        Err(e) => stalled(e),
                    }
                };
                got.push((frame, payload));
            }
            assert!(cur.at_eof().unwrap());
            got
        }
        let n = frames.len();
        let run = |polled: bool| {
            let (sim, source) = (Sim::new(1), Fragments::default());
            source.0.lock().fragments = fragments.clone();
            let (feed, count) = (source.clone(), fragments.len());
            let (done, result) = std::sync::mpsc::channel();
            sim.spawn("decode", move || {
                if polled {
                    let mut cur = BlockReader::new(feed.clone(), 64);
                    let mut stalls = 0;
                    let got = decode(&mut cur, n, |e| {
                        assert_eq!(e.kind(), io::ErrorKind::WouldBlock, "{e}");
                        feed.arrive();
                        stalls += 1;
                    });
                    done.send((got, stalls)).unwrap();
                } else {
                    let sched = ctx::handle();
                    for i in 1..=count {
                        let feed = feed.clone();
                        sched.call_at(sched.now() + Duration::from_millis(i as u64), move || {
                            feed.arrive()
                        });
                    }
                    let mut cur = BlockReader::new(Blocking(feed), 64);
                    let got = decode(&mut cur, n, |e| panic!("blocking: {e}"));
                    done.send((got, 0)).unwrap();
                }
            });
            sim.run();
            let caps = std::mem::take(&mut source.0.lock().caps);
            (result.recv().unwrap(), caps)
        };
        let ((blocking, _), blocking_caps) = run(false);
        let ((polled, stalls), polled_caps) = run(true);
        assert!(stalls >= fragments.len() / 2, "{stalls} stalls");
        assert_eq!(polled_caps, blocking_caps);
        assert!(polled == blocking);
        let heads: Vec<&Frame> = blocking.iter().map(|(f, _)| f).collect();
        assert_eq!(heads, frames.iter().collect::<Vec<_>>());
    }

    /// A source serving its data `step` bytes per read, logging each
    /// serving read's length; and a sink taking each write whole, as a
    /// socket does, logging its length and the simulated time it was taken
    /// at. With `stalls` each read and write comes after a would-block (the
    /// calling task woken at once, as by a source whose bytes arrive, or a
    /// sink whose room opens, that instant), and must be asked for again
    /// with the same length.
    #[derive(Clone)]
    pub(crate) struct Trickle(Arc<parking_lot::Mutex<Trickled>>);

    #[derive(Default)]
    struct Trickled {
        data: Bytes,
        step: usize,
        stalls: bool,
        stalled: Option<usize>,
        reads: Vec<usize>,
        written: Vec<u8>,
        writes: Vec<(usize, SimTime)>,
    }

    impl Trickled {
        /// Would-block before a call of `len` bytes, if this one stalls
        /// and the call is not the one asked again.
        fn stall(&mut self, len: usize) -> io::Result<()> {
            if let Some(asked) = self.stalled.take() {
                assert_eq!(len, asked, "asked again for another length");
            } else if self.stalls {
                self.stalled = Some(len);
                ctx::waker().wake();
                return Err(ctx::would_block("trickle"));
            }
            Ok(())
        }
    }

    impl Trickle {
        pub(crate) fn new(data: &[u8], step: usize, stalls: bool) -> Trickle {
            let data = Bytes::copy_from_slice(data);
            Trickle(Arc::new(parking_lot::Mutex::new(Trickled {
                data,
                step,
                stalls,
                ..Trickled::default()
            })))
        }

        pub(crate) fn reads(&self) -> Vec<usize> {
            self.0.lock().reads.clone()
        }

        /// What was written, and each write's length and time.
        pub(crate) fn written(&self) -> (Vec<u8>, Vec<(usize, SimTime)>) {
            let t = self.0.lock();
            (t.written.clone(), t.writes.clone())
        }
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let t = &mut *self.0.lock();
            t.stall(buf.len())?;
            t.reads.push(buf.len());
            let n = buf.len().min(t.step).min(t.data.len());
            buf[..n].copy_from_slice(&t.data.split_to(n));
            Ok(n)
        }
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let t = &mut *self.0.lock();
            t.stall(buf.len())?;
            t.writes.push((buf.len(), ctx::now()));
            t.written.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl BlockRead for Trickle {}
    impl BlockWrite for Trickle {}

    /// The charge meter, polled in an async task, over a sink that would
    /// block before every write and over one that never does: the same
    /// bytes, from writes of the same lengths, each chunk written when its
    /// charge ends — the same simulated times — whether a write spans one
    /// chunk or several.
    #[test]
    fn a_charge_resumes_where_its_sink_or_its_own_wait_would_block() {
        let data: Vec<u8> = (0..40_000u32).map(|i| (i * 7 % 251) as u8).collect();
        let run = |stalls: bool| {
            let (sim, cpu) = host_cpu();
            let sink = Trickle::new(&[], 1, stalls);
            let (log, data) = (sink.clone(), data.clone());
            let write = async move {
                let mut w = CpuWrite::new(sink, cpu, 5e6);
                for part in [&data[..3], &data[3..20_003], &data[20_003..]] {
                    ctx::wait_io(|| w.write_all(part)).await.unwrap();
                }
                let block = Bytes::copy_from_slice(&data[..9_000]);
                ctx::wait_io(|| w.poll_write_block(&block)).await.unwrap();
            };
            sim.scheduler().handle().spawn_async("w", write);
            sim.run();
            log.written()
        };
        let (bytes, writes) = run(false);
        assert!(bytes == [&data[..], &data[..9_000]].concat());
        let lens: Vec<usize> = writes.iter().map(|&(n, _)| n).collect();
        assert_eq!(lens, [3, 8192, 8192, 3616, 8192, 8192, 3613, 8192, 808]);
        assert!(
            writes.windows(2).all(|w| w[0].1 < w[1].1),
            "a charge per chunk"
        );
        assert!(run(true) == (bytes, writes));
    }

    /// The charge meter, polled in an async task, over a source that would
    /// block before every read and over one that never does: the same
    /// bytes, from the same reads, each charge ending at the same simulated
    /// time — through `read` and through the chunk poll alike.
    #[test]
    fn a_charge_resumes_where_its_source_or_its_own_wait_would_block() {
        let data: Vec<u8> = (0..3000u32).map(|i| (i * 7 % 251) as u8).collect();
        let run = |stalls: bool| {
            let (sim, cpu) = host_cpu();
            let source = Trickle::new(&data, 3, stalls);
            let (log, (done, result)) = (source.clone(), std::sync::mpsc::channel());
            let read = async move {
                let mut r = CpuRead::new(source, cpu, 5e6);
                let (mut got, mut ends) = (Vec::new(), Vec::new());
                for i in 0.. {
                    let n = if i % 2 == 0 {
                        let mut buf = [0u8; 7];
                        let n = ctx::wait_io(|| r.read(&mut buf)).await.unwrap();
                        got.extend_from_slice(&buf[..n]);
                        n
                    } else {
                        let mut chunks = Vec::new();
                        let n = ctx::wait_io(|| r.poll_read_chunks_min(1, 5, &mut chunks));
                        let n = n.await.unwrap();
                        got.extend_from_slice(&chunks.concat());
                        n
                    };
                    if n == 0 {
                        break;
                    }
                    ends.push(ctx::now());
                }
                done.send((got, ends)).unwrap();
            };
            sim.scheduler().handle().spawn_async("r", read);
            sim.run();
            let (got, ends) = result.recv().unwrap();
            (got, ends, log.reads())
        };
        let (got, ends, reads) = run(false);
        assert!(got == data);
        assert!(ends.windows(2).all(|w| w[0] < w[1]), "a charge per read");
        assert!(run(true) == (got, ends, reads));
    }

    #[test]
    fn read_charges_simulated_time() {
        let (sim, cpu) = host_cpu();
        sim.spawn("r", move || {
            let data = vec![7u8; 500_000];
            let mut r = CpuRead::new(io::Cursor::new(data), cpu, 5e6);
            let mut out = Vec::new();
            while r.read_chunks(64 * 1024, &mut out).unwrap() > 0 {}
            assert_eq!(out.concat().len(), 500_000);
            assert_eq!(
                ctx::now().as_nanos(),
                100_000_000,
                "0.5 MB at 5 MB/s = 100 ms"
            );
        });
        sim.run();
    }
}
