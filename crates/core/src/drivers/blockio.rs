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

use bytes::Bytes;
use std::collections::VecDeque;
use std::io::{self, Read, Write};

use crate::cpu::HostCpu;
use crate::pool::{BlockBuf, BlockPool};

/// A byte sink that can also accept whole blocks by ownership handoff.
pub trait BlockWrite: Write {
    /// Write one whole block. The default copies via `write_all`, which is
    /// correct for every byte-stream writer; zero-copy writers override.
    fn write_block(&mut self, block: Bytes) -> io::Result<()> {
        self.write_all(&block)
    }
}

/// A byte source that can also hand data out as refcounted chunks.
pub trait BlockRead: Read {
    /// Pull at least `min` bytes unless EOF intervenes, with up to `max`
    /// bytes of read-ahead past the demand, appending them to `out` as
    /// chunks. Returns the byte count appended; less than `min` means EOF.
    /// Stating the real demand lets a demand-aware source (the simulated
    /// TCP socket) satisfy it with one parked wait serviced at event time
    /// instead of one wakeup per arriving chunk. The default copies
    /// through `read`; zero-copy readers override.
    fn read_chunks_min(
        &mut self,
        min: usize,
        max: usize,
        out: &mut Vec<Bytes>,
    ) -> io::Result<usize> {
        copy_read_chunks(self, min, max, out)
    }

    /// Pull up to `max` bytes: a demand of one byte. `Ok(0)` means EOF.
    fn read_chunks(&mut self, max: usize, out: &mut Vec<Bytes>) -> io::Result<usize> {
        self.read_chunks_min(1, max, out)
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

/// The copying `read_chunks_min` fallback, callable by name from enum
/// impls that delegate only some variants to a zero-copy source: each
/// chunk is one `read` into a fresh zeroed buffer.
pub fn copy_read_chunks<R: Read + ?Sized>(
    r: &mut R,
    min: usize,
    max: usize,
    out: &mut Vec<Bytes>,
) -> io::Result<usize> {
    chunks_until(min, max, out, |cap| {
        let mut v = vec![0u8; cap];
        let n = r.read(&mut v)?;
        v.truncate(n);
        Ok(v.into())
    })
}

// Trait-object plumbing: the assembled stacks are boxed, and a boxed
// block writer/reader must forward the block methods (the std blanket
// `Write for Box<W>` would silently fall back to the copying defaults).
impl BlockWrite for Box<dyn BlockWrite + Send> {
    fn write_block(&mut self, block: Bytes) -> io::Result<()> {
        (**self).write_block(block)
    }
}

impl BlockRead for Box<dyn BlockRead + Send> {
    fn read_chunks_min(
        &mut self,
        min: usize,
        max: usize,
        out: &mut Vec<Bytes>,
    ) -> io::Result<usize> {
        (**self).read_chunks_min(min, max, out)
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

/// A writer charging CPU time per byte written before passing it on.
pub struct CpuWrite<W> {
    inner: W,
    cpu: HostCpu,
    rate: f64,
}

impl<W: Write> CpuWrite<W> {
    pub fn new(inner: W, cpu: HostCpu, rate: f64) -> CpuWrite<W> {
        CpuWrite { inner, cpu, rate }
    }

    pub fn get_ref(&self) -> &W {
        &self.inner
    }
}

impl<W: Write> Write for CpuWrite<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        for chunk in buf.chunks(CPU_CHUNK) {
            self.cpu.consume(chunk.len(), self.rate);
            self.inner.write_all(chunk)?;
        }
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A reader charging CPU time per byte read from the inner stream.
pub struct CpuRead<R> {
    inner: R,
    cpu: HostCpu,
    rate: f64,
}

impl<R: Read> CpuRead<R> {
    pub fn new(inner: R, cpu: HostCpu, rate: f64) -> CpuRead<R> {
        CpuRead { inner, cpu, rate }
    }
}

impl<R: Read> Read for CpuRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.cpu.consume(n, self.rate);
        Ok(n)
    }
}

// The crypto filters transform every byte, so the copying defaults are the
// honest model: block handoff through them still pays the per-chunk CPU
// charge via `Write::write`/`Read::read`.
impl<W: Write> BlockWrite for CpuWrite<W> {}
impl<R: Read> BlockRead for CpuRead<R> {}

// The compression layer recodes blocks entering it, so the copying default
// routes them through the framing path unchanged. Coming out, the decoder
// already owns each decoded block as a `Vec`: it is handed on as it is, in
// the chunking `copy_read_chunks` would produce and with the same inner
// reads (and `CpuRead` charges), minus the zeroed bounce buffer and copy.
impl<W: Write> BlockWrite for gridzip::CompressWriter<W> {}
impl<R: Read> BlockRead for gridzip::DecompressReader<R> {
    fn read_chunks_min(
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
            // BufWriter passthrough: forward directly, partial writes
            // propagate to the caller's write_all loop.
            self.inner.write(data)
        } else {
            self.buf.extend_from_slice(data);
            Ok(data.len())
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.flush_buf()?;
        self.inner.flush()
    }
}

impl<W: BlockWrite> BlockWrite for BlockWriter<W> {
    fn write_block(&mut self, block: Bytes) -> io::Result<()> {
        let cap = self.pool.block_size();
        if self.buf.len() + block.len() > cap {
            self.flush_buf()?;
        }
        if block.len() >= cap {
            // Zero-copy passthrough of an already-assembled block.
            self.inner.write_block(block)
        } else {
            self.buf.extend_from_slice(&block);
            Ok(())
        }
    }
}

impl<W: BlockWrite> Drop for BlockWriter<W> {
    fn drop(&mut self) {
        // Like BufWriter: best-effort flush of buffered data.
        let _ = self.flush_buf();
    }
}

/// Buffered reader over a [`BlockRead`] source: refcounted chunks buffered
/// in front, `read_chunks_min` behind. As a byte reader it mirrors
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
pub struct BlockReader<R: BlockRead> {
    inner: R,
    chunks: VecDeque<Bytes>,
    /// Total bytes buffered in `chunks`.
    avail: usize,
    /// Read-ahead unit.
    cap: usize,
    /// Reused landing pad for `read_chunks_min`, drained into `chunks`.
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

    /// Buffer at least `need` bytes; false if the source ends first, its
    /// own error if it fails first.
    fn ensure(&mut self, need: usize) -> io::Result<bool> {
        if self.avail < need {
            let (want, cap) = (need - self.avail, self.cap);
            let res = self.inner.read_chunks_min(want, cap, &mut self.scratch);
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

    /// Decode one varint; an encoding past ten bytes is `InvalidData`.
    pub(crate) fn read_varint(&mut self) -> io::Result<u64> {
        let mut v = 0u64;
        for i in 0..10 {
            self.require(1)?;
            let b = self.pop_front(1)[0];
            v |= u64::from(b & 0x7f) << (7 * i);
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "varint too long",
        ))
    }

    /// Pull exactly `len` bytes: a slice when they lie in one received
    /// chunk, one gather otherwise.
    pub(crate) fn read_exact_bytes(&mut self, len: usize) -> io::Result<Bytes> {
        self.require(len)?;
        if self.chunks.front().is_some_and(|front| front.len() >= len) {
            return Ok(self.pop_front(len));
        }
        self.read_exact_vec(len).map(Bytes::from)
    }

    /// Pull exactly `len` bytes as an owned buffer.
    pub(crate) fn read_exact_vec(&mut self, len: usize) -> io::Result<Vec<u8>> {
        self.require(len)?;
        let mut data = Vec::with_capacity(len);
        while data.len() < len {
            let part = self.pop_front(len - data.len());
            data.extend_from_slice(&part);
        }
        Ok(data)
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

impl<R: BlockRead> BlockRead for BlockReader<R> {
    fn read_chunks_min(
        &mut self,
        min: usize,
        max: usize,
        out: &mut Vec<Bytes>,
    ) -> io::Result<usize> {
        // Serve what is buffered, then state the remaining demand to the
        // source in one call (not a per-chunk loop) so a demand-aware
        // source can satisfy it zero-copy with a single parked wait.
        let mut got = 0;
        while got < max.max(min) && self.avail > 0 {
            let part = self.pop_front(max.max(min) - got);
            got += part.len();
            out.push(part);
        }
        if got >= min {
            return Ok(got);
        }
        let n = self.inner.read_chunks_min(min - got, max, out)?;
        Ok(got + n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::{CpuModel, CpuRates};
    use gridsim_net::{ctx, NodeId, Sim};

    fn host_cpu() -> (Sim, HostCpu) {
        let sim = Sim::new(1);
        let cpu = HostCpu::new(CpuModel::new(), NodeId(0), CpuRates::default());
        (sim, cpu)
    }

    #[test]
    fn write_charges_simulated_time() {
        let (sim, cpu) = host_cpu();
        sim.spawn("w", move || {
            let mut w = CpuWrite::new(Vec::new(), cpu, 10e6);
            w.write_all(&[0u8; 1_000_000]).unwrap();
            assert_eq!(
                ctx::now().as_nanos(),
                100_000_000,
                "1 MB at 10 MB/s = 100 ms"
            );
            assert_eq!(w.get_ref().len(), 1_000_000);
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
                            copy_read_chunks(&mut r, min, max, &mut chunks)
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

    #[test]
    fn read_charges_simulated_time() {
        let (sim, cpu) = host_cpu();
        sim.spawn("r", move || {
            let data = vec![7u8; 500_000];
            let mut r = CpuRead::new(io::Cursor::new(data), cpu, 5e6);
            let mut out = Vec::new();
            r.read_to_end(&mut out).unwrap();
            assert_eq!(out.len(), 500_000);
            assert_eq!(
                ctx::now().as_nanos(),
                100_000_000,
                "0.5 MB at 5 MB/s = 100 ms"
            );
        });
        sim.run();
    }
}
