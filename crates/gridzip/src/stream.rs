//! Block-framed streaming compression over `std::io`.
//!
//! Frame format:
//!
//! ```text
//! frame := block*
//! block := flag(u8) varint(orig_len) varint(payload_len) payload
//! flag  := 0 stored (payload = original bytes)
//!        | 1 LZSS block
//! ```
//!
//! Any other flag is corrupt input. The stored fallback guarantees bounded
//! expansion on incompressible data. Each block is independently decodable,
//! matching how the NetIbis compression driver frames message blocks.

use std::io::{self, Read, Write};

use crate::lzss::{decompress, Compressor};
use crate::varint;

/// Default block size for the streaming writer.
const DEFAULT_BLOCK: usize = 32 * 1024;

const FLAG_STORED: u8 = 0;
const FLAG_LZSS: u8 = 1;

/// Compress one block with the stored fallback and append it, framed, to
/// `out`. `scratch` holds no state between calls — only capacity, so a
/// writer emitting many blocks reuses one allocation.
fn frame_block(c: &mut Compressor, data: &[u8], out: &mut Vec<u8>, scratch: &mut Vec<u8>) {
    scratch.clear();
    c.compress(data, scratch);
    let (flag, payload): (u8, &[u8]) = if scratch.len() < data.len() {
        (FLAG_LZSS, scratch)
    } else {
        (FLAG_STORED, data)
    };
    out.push(flag);
    varint::put(out, data.len() as u64);
    varint::put(out, payload.len() as u64);
    out.extend_from_slice(payload);
}

/// Read and decode one framed block from `r`. Returns `None` on clean EOF
/// at a block boundary. `max_block` bounds the decoded size; `payload` is
/// reused scratch for the compressed bytes (the decoded block is returned
/// owned).
fn read_block<R: Read>(
    r: &mut R,
    max_block: usize,
    payload: &mut Vec<u8>,
) -> io::Result<Option<Vec<u8>>> {
    let mut flag = [0u8];
    if r.read(&mut flag)? == 0 {
        return Ok(None);
    }
    let orig_len = varint::read_from(r)? as usize;
    let payload_len = varint::read_from(r)? as usize;
    if orig_len > max_block || payload_len > max_block + max_block / 8 + 64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "block exceeds size bound",
        ));
    }
    payload.clear();
    payload.resize(payload_len, 0);
    r.read_exact(payload)?;
    match flag[0] {
        FLAG_STORED => {
            if payload.len() != orig_len {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "stored length mismatch",
                ));
            }
            Ok(Some(std::mem::take(payload)))
        }
        FLAG_LZSS => {
            let out = decompress(payload, orig_len)?;
            if out.len() != orig_len {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "decoded length mismatch",
                ));
            }
            Ok(Some(out))
        }
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "unknown block flag",
        )),
    }
}

/// A compressing writer: buffers up to `block_size` bytes, emits one framed
/// block per flush/overflow.
pub struct CompressWriter<W: Write> {
    inner: W,
    comp: Compressor,
    buf: Vec<u8>,
    block_size: usize,
    /// Reused per-block buffers: the framed output and the LZSS scratch.
    framed: Vec<u8>,
    scratch: Vec<u8>,
    /// Totals for ratio accounting.
    pub bytes_in: u64,
    pub bytes_out: u64,
}

impl<W: Write> CompressWriter<W> {
    pub fn new(inner: W, level: u8) -> Self {
        Self::with_block_size(inner, level, DEFAULT_BLOCK)
    }

    pub fn with_block_size(inner: W, level: u8, block_size: usize) -> Self {
        assert!(block_size > 0);
        CompressWriter {
            inner,
            comp: Compressor::new(level),
            buf: Vec::with_capacity(block_size),
            block_size,
            framed: Vec::new(),
            scratch: Vec::new(),
            bytes_in: 0,
            bytes_out: 0,
        }
    }

    fn emit_block(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.framed.clear();
        frame_block(
            &mut self.comp,
            &self.buf,
            &mut self.framed,
            &mut self.scratch,
        );
        self.bytes_in += self.buf.len() as u64;
        self.bytes_out += self.framed.len() as u64;
        self.buf.clear();
        self.inner.write_all(&self.framed)
    }

    /// Flush buffered data as a block and flush the inner writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.emit_block()?;
        self.inner.flush()?;
        Ok(self.inner)
    }

    /// Achieved compression ratio so far (input/output).
    pub fn ratio(&self) -> f64 {
        if self.bytes_out == 0 {
            1.0
        } else {
            self.bytes_in as f64 / self.bytes_out as f64
        }
    }

    pub fn get_ref(&self) -> &W {
        &self.inner
    }
}

impl<W: Write> Write for CompressWriter<W> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let mut rest = data;
        while !rest.is_empty() {
            let room = self.block_size - self.buf.len();
            let n = room.min(rest.len());
            self.buf.extend_from_slice(&rest[..n]);
            rest = &rest[n..];
            if self.buf.len() == self.block_size {
                self.emit_block()?;
            }
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.emit_block()?;
        self.inner.flush()
    }
}

/// A decompressing reader over a framed stream.
pub struct DecompressReader<R: Read> {
    inner: R,
    current: Vec<u8>,
    pos: usize,
    max_block: usize,
    /// Reused compressed-payload scratch for [`read_block`].
    payload: Vec<u8>,
    pub bytes_in_compressed: u64,
    pub bytes_out: u64,
}

impl<R: Read> DecompressReader<R> {
    pub fn new(inner: R) -> Self {
        DecompressReader {
            inner,
            current: Vec::new(),
            pos: 0,
            max_block: 16 << 20,
            payload: Vec::new(),
            bytes_out: 0,
            bytes_in_compressed: 0,
        }
    }

    pub fn get_ref(&self) -> &R {
        &self.inner
    }
}

impl<R: Read> DecompressReader<R> {
    /// Decode the next frame once the current block is used up, exactly
    /// when [`Read::read`] would. `false` means clean EOF.
    fn refill(&mut self) -> io::Result<bool> {
        if self.pos == self.current.len() {
            match read_block(&mut self.inner, self.max_block, &mut self.payload)? {
                Some(b) => {
                    self.bytes_out += b.len() as u64;
                    self.current = b;
                    self.pos = 0;
                }
                None => return Ok(false),
            }
        }
        Ok(true)
    }

    /// What one `read` into a `cap`-byte buffer would deliver, as an owned
    /// buffer: an untouched decoded block of at most `cap` bytes is handed
    /// on as it is, anything else is copied out. Empty means EOF.
    pub fn next_chunk(&mut self, cap: usize) -> io::Result<Vec<u8>> {
        if !self.refill()? {
            return Ok(Vec::new());
        }
        if self.pos == 0 && self.current.len() <= cap {
            return Ok(std::mem::take(&mut self.current));
        }
        let start = self.pos;
        self.pos += cap.min(self.current.len() - start);
        Ok(self.current[start..self.pos].to_vec())
    }
}

impl<R: Read> Read for DecompressReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if !self.refill()? {
            return Ok(0);
        }
        let n = buf.len().min(self.current.len() - self.pos);
        buf[..n].copy_from_slice(&self.current[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synth, MAX_LEVEL};

    #[test]
    fn writer_reader_roundtrip() {
        let data = synth::grid_payload(300_000, 0.6, 11);
        let mut w = CompressWriter::new(Vec::new(), 1);
        w.write_all(&data).unwrap();
        let framed = w.finish().unwrap();
        assert!(framed.len() < data.len(), "compressible data should shrink");
        let mut r = DecompressReader::new(io::Cursor::new(framed));
        let mut back = Vec::new();
        r.read_to_end(&mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn incompressible_data_stored_with_bounded_overhead() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let data: Vec<u8> = (0..100_000).map(|_| rng.random()).collect();
        let mut w = CompressWriter::new(Vec::new(), MAX_LEVEL);
        w.write_all(&data).unwrap();
        let framed = w.finish().unwrap();
        // Overhead: ~8 bytes per 32K block.
        assert!(
            framed.len() < data.len() + 64,
            "stored fallback bounds expansion"
        );
        let mut r = DecompressReader::new(io::Cursor::new(framed));
        let mut back = Vec::new();
        r.read_to_end(&mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn flush_creates_block_boundary_mid_stream() {
        let mut w = CompressWriter::new(Vec::new(), 1);
        w.write_all(b"first message ").unwrap();
        w.flush().unwrap();
        let after_first = w.get_ref().len();
        assert!(after_first > 0, "flush emitted a block");
        w.write_all(b"second message").unwrap();
        let framed = w.finish().unwrap();
        let mut r = DecompressReader::new(io::Cursor::new(framed));
        let mut back = String::new();
        r.read_to_string(&mut back).unwrap();
        assert_eq!(back, "first message second message");
    }

    #[test]
    fn empty_stream_is_clean_eof() {
        let w = CompressWriter::new(Vec::new(), 1);
        let framed = w.finish().unwrap();
        assert!(framed.is_empty());
        let mut r = DecompressReader::new(io::Cursor::new(framed));
        let mut back = Vec::new();
        assert_eq!(r.read_to_end(&mut back).unwrap(), 0);
    }

    #[test]
    fn truncated_stream_errors() {
        let data = synth::grid_payload(100_000, 0.6, 3);
        let mut w = CompressWriter::new(Vec::new(), 1);
        w.write_all(&data).unwrap();
        let framed = w.finish().unwrap();
        let mut r = DecompressReader::new(io::Cursor::new(&framed[..framed.len() - 10]));
        let mut back = Vec::new();
        assert!(r.read_to_end(&mut back).is_err());
    }

    /// Both delivery paths end in a typed `InvalidData` with nothing
    /// delivered.
    fn assert_rejected(frame: &[u8]) {
        let mut r = DecompressReader::new(io::Cursor::new(frame));
        let err = r.read(&mut [0u8; 16]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(r.bytes_out, 0);
        let mut r = DecompressReader::new(io::Cursor::new(frame));
        let err = r.next_chunk(64 * 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(r.bytes_out, 0);
    }

    #[test]
    fn declared_length_far_beyond_the_payload_is_rejected() {
        // A frame claiming 16 MiB of output for a 3-byte LZSS payload (a
        // token with two literals): a typed error, and — see
        // `lzss::tests::decode_buffer_is_sized_by_the_input_not_by_the_bound`
        // — no buffer sized by the claim on the way to it.
        let mut frame = vec![FLAG_LZSS];
        varint::put(&mut frame, 16 << 20);
        varint::put(&mut frame, 3);
        frame.extend_from_slice(&[0x20, b'h', b'i']);
        assert_rejected(&frame);
    }

    #[test]
    fn unknown_block_flag_is_rejected() {
        // Well-formed in everything but its flag (2, the first unassigned
        // one): the payload must not reach a decoder.
        let mut w = CompressWriter::new(Vec::new(), 1);
        w.write_all(&synth::grid_payload(4096, 0.6, 2)).unwrap();
        let mut frame = w.finish().unwrap();
        assert_eq!(frame[0], FLAG_LZSS);
        frame[0] = 2;
        assert_rejected(&frame);
    }

    #[test]
    fn next_chunk_delivers_what_read_would() {
        // Blocks of 1000 bytes against caps below, at and above that.
        let data = synth::grid_payload(10_500, 0.6, 9);
        let mut w = CompressWriter::with_block_size(Vec::new(), 1, 1000);
        w.write_all(&data).unwrap();
        let framed = w.finish().unwrap();
        for cap in [1, 999, 1000, 1001, 64 * 1024] {
            let mut by_read = DecompressReader::new(io::Cursor::new(&framed));
            let mut by_chunk = DecompressReader::new(io::Cursor::new(&framed));
            let mut buf = vec![0u8; cap];
            loop {
                let n = by_read.read(&mut buf).unwrap();
                let chunk = by_chunk.next_chunk(cap).unwrap();
                assert_eq!(chunk, &buf[..n], "cap {cap}");
                if n == 0 {
                    break;
                }
            }
            assert_eq!(by_chunk.bytes_out, data.len() as u64);
        }
    }

    #[test]
    fn ratio_accounting() {
        let data = vec![b'z'; 100_000];
        let mut w = CompressWriter::new(Vec::new(), 1);
        w.write_all(&data).unwrap();
        w.flush().unwrap();
        assert!(w.ratio() > 20.0, "run data ratio: {}", w.ratio());
    }
}
