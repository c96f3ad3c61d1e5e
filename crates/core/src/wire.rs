//! Wire encoding helpers for the netgrid control protocols (name service,
//! relay, service messages): length-prefixed frames of varint-encoded
//! fields. All control protocols are versioned by a magic byte per frame
//! kind rather than per connection, keeping parsing stateless.
//!
//! A frame is one write and one stated read (paper §4.1: aggregate in user
//! space, one explicit flush). [`FrameWriter`] hands header and payload to
//! the socket as one block — a header written on its own leaves as its own
//! segment and, under Nagle, holds the payload back for a round trip. A
//! connection that is frames from first byte to last (relay and mesh links,
//! the name service) is read through [`FrameStream`]; [`read_frame`] is the
//! exact-length read for the few frames on *data* links, where the bytes
//! behind the frame belong to the driver stack.
//!
//! Also the one place that defines what a *data* link carries: the stream
//! preamble (`RESUME_FLAG`, `stream_slot`, `write_resume` / `read_resume`)
//! and the tagged frames behind it (`mux`).

use bytes::Bytes;
use gridsim_net::{Ip, SockAddr};
use gridsim_tcp::TcpStream;
use gridzip::varint;
use std::io::{self, Read};

use crate::drivers::{BlockReader, BlockWrite, RawLink};

/// Maximum accepted control frame, to bound allocations from bad peers.
pub const MAX_FRAME: usize = 1 << 20;

/// Data-link framing (the session layer, DESIGN.md §8). Every frame on a
/// data link, from the first byte after the stream preamble, starts with a
/// varint tag:
///
/// ```text
/// MSG      [0][varint channel][varint len][payload]
/// OPEN     [1][varint n][(varint channel, varint name_len, port name)]*
/// CLOSE    [2][varint channel]
/// RECONFIG [4][varint epoch][varint stripes][varint block_size][varint level+1]
/// ```
///
/// The link's first channel is named by the stream preamble; every later
/// one is announced by an OPEN before its first MSG.
pub(crate) mod mux {
    /// One message on a channel.
    pub const MSG: u64 = 0;
    /// `n` channels join the link, each bound to a named receive port —
    /// the resume preamble's channel-list encoding. The receiver handles
    /// each entry idempotently.
    pub const OPEN: u64 = 1;
    /// A channel closed cleanly; the link itself stays up.
    pub const CLOSE: u64 = 2;
    /// Live path reconfiguration (DESIGN.md §11). The sender flushes its
    /// current stack to a block boundary, writes this frame, and BLOCKS
    /// until the receiver's ack. The receiver tears its stack down at the
    /// frame boundary, replies raw on stream 0 (reverse direction) with
    /// `[epoch][n][(channel, delivered)]*` — its delivered watermarks, the
    /// exactly-once handshake — and both ends rebuild their driver stacks
    /// from the new parameters.
    pub const RECONFIG: u64 = 4;
}

/// High bit of the stream preamble's channel field: set when the link
/// *resumes* existing channels after a detected failure, and the preamble
/// then ends in the resume fields ([`write_resume`]).
pub(crate) const RESUME_FLAG: u64 = 1 << 63;

/// Narrow the preamble's stream position, `idx` of `total`, range-checked
/// as sent: an `as u16` would accept `total = 65 537` as a 1-stream link.
pub(crate) fn stream_slot(idx: u64, total: u64) -> io::Result<(u16, u16)> {
    match (u16::try_from(idx), u16::try_from(total)) {
        (Ok(idx), Ok(total)) if idx < total => Ok((idx, total)),
        _ => Err(bad("bad stream preamble")),
    }
}

/// Upper bound on the channel list a resume preamble may carry (sanity
/// against corrupt frames).
const MAX_MUX_CHANNELS: u64 = 1 << 16;

/// What a resuming sender tells the receiver: its reconnect generation and
/// the channels riding the link beyond the anchor the preamble itself
/// names, as `(channel, receive-port name)`, so the receiver can register
/// their routes before the replay arrives.
pub(crate) struct ResumeMeta {
    pub gen: u64,
    pub extras: Vec<(u64, String)>,
}

/// Append the resume fields `[gen][n][(channel, name)]*` (`n` may be 0).
/// On a TCP stream they end the preamble frame
/// `[channel | RESUME_FLAG][idx][total]`; on a routed stream, whose
/// channel field travels in the relay's OPEN, they are the first stream
/// frame.
pub(crate) fn write_resume(mut fw: FrameWriter, meta: &ResumeMeta) -> FrameWriter {
    fw = fw.u64(meta.gen).u64(meta.extras.len() as u64);
    for (ch, name) in &meta.extras {
        fw = fw.u64(*ch).str(name);
    }
    fw
}

/// Decode what [`write_resume`] appended.
pub(crate) fn read_resume(fr: &mut FrameReader<'_>) -> io::Result<ResumeMeta> {
    let gen = fr.u64()?;
    let n = fr.u64()?;
    if n > MAX_MUX_CHANNELS {
        return Err(bad("mux channel list too long"));
    }
    let extras = (0..n)
        .map(|_| Ok((fr.u64()?, fr.str()?)))
        .collect::<io::Result<_>>()?;
    Ok(ResumeMeta { gen, extras })
}

/// Room kept free in front of a payload: its length prefix plus the
/// fields of one enclosing frame ([`FrameWriter::wrap`]).
const HEADROOM: usize = 32;

/// An encoder for one frame: the payload is `buf[head..]`, growing at the
/// back; `buf[..head]` is headroom that prefixes grow into, so they never
/// move the payload. (The derived default has none, and makes it on demand.)
#[derive(Default)]
pub struct FrameWriter {
    buf: Vec<u8>,
    head: usize,
}

impl FrameWriter {
    pub fn new() -> FrameWriter {
        let (mut buf, head) = (Vec::with_capacity(HEADROOM + 64), HEADROOM);
        buf.resize(head, 0);
        FrameWriter { buf, head }
    }

    /// Put `fields`, then `varint(payload length)`, in front of the payload.
    fn prefix(&mut self, fields: &[u8]) {
        let mut pre = [0u8; 10];
        let n = varint::put_slice(&mut pre, (self.buf.len() - self.head) as u64);
        let need = fields.len() + n;
        if need > self.head {
            // Out of headroom (no frame of ours nests this deep): make more.
            self.buf.splice(..0, vec![0; need]);
            self.head += need;
        }
        self.head -= need;
        self.buf[self.head..][..fields.len()].copy_from_slice(fields);
        self.buf[self.head + fields.len()..][..n].copy_from_slice(&pre[..n]);
    }

    pub fn u8(mut self, v: u8) -> Self {
        self.buf.push(v);
        self
    }

    pub fn u64(mut self, v: u64) -> Self {
        varint::put(&mut self.buf, v);
        self
    }

    pub fn bytes(mut self, v: &[u8]) -> Self {
        self.buf.reserve(v.len() + 10);
        varint::put(&mut self.buf, v.len() as u64);
        self.buf.extend_from_slice(v);
        self
    }

    pub fn str(self, v: &str) -> Self {
        self.bytes(v.as_bytes())
    }

    pub fn addr(mut self, a: SockAddr) -> Self {
        varint::put(&mut self.buf, a.ip.0 as u64);
        varint::put(&mut self.buf, a.port as u64);
        self
    }

    pub fn opt_addr(self, a: Option<SockAddr>) -> Self {
        match a {
            Some(a) => self.u8(1).addr(a),
            None => self.u8(0),
        }
    }

    /// Write a counted list of socket addresses.
    pub fn addrs(mut self, list: &[SockAddr]) -> Self {
        varint::put(&mut self.buf, list.len() as u64);
        for a in list {
            self = self.addr(*a);
        }
        self
    }

    /// These fields followed by `inner`'s payload as a last `bytes` field —
    /// assembled in `inner`'s headroom, so its payload is not copied again.
    pub(crate) fn wrap(self, mut inner: FrameWriter) -> FrameWriter {
        inner.prefix(&self.buf[self.head..]);
        inner
    }

    /// The frame as it goes on the wire, `[varint len][payload]`.
    pub(crate) fn into_frame(mut self) -> Bytes {
        self.prefix(&[]);
        Bytes::from(self.buf).slice(self.head..)
    }

    /// Write the frame to `w` as one block (on TCP by refcount: header and
    /// payload share segments, the writer parks once) and flush.
    pub fn send<W: BlockWrite>(self, w: &mut W) -> io::Result<()> {
        w.write_block(self.into_frame())?;
        w.flush()
    }

    /// The raw payload (for embedding in other frames).
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.buf.split_off(self.head)
    }
}

/// Append to `run` the wire frame `[op][varint id]*[bytes tail]`: how a
/// forwarder re-heads a payload it holds by reference, many frames to one
/// write, without allocating.
pub(crate) fn frame_onto(run: &mut Vec<u8>, op: u8, ids: &[u64], tail: &[u8]) {
    let mut head = [0u8; 41];
    head[0] = op;
    let mut n = 1;
    for &v in ids.iter().chain([&(tail.len() as u64)]) {
        n += varint::put_slice(&mut head[n..], v);
    }
    varint::put(run, (n + tail.len()) as u64);
    run.extend_from_slice(&head[..n]);
    run.extend_from_slice(tail);
}

/// Read one length-prefixed frame and not a byte more: for frames on data
/// links (and non-TCP readers). Frame-only connections use [`FrameStream`].
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Vec<u8>> {
    let len = varint::read_from(r)?;
    if len > MAX_FRAME as u64 {
        return Err(bad("control frame too large"));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// Most bytes one read takes off the socket beyond the frame in hand.
const READ_AHEAD: usize = 64 * 1024;

/// The read half of a connection that carries frames and nothing else.
/// Read-ahead lives here, so one connection has one `FrameStream` for life.
pub struct FrameStream(BlockReader<RawLink>);

impl FrameStream {
    pub fn new(conn: TcpStream) -> FrameStream {
        FrameStream(BlockReader::new(RawLink::Tcp(conn), READ_AHEAD))
    }

    /// The next frame's payload. A length over [`MAX_FRAME`] or a header
    /// that is no varint is `InvalidData`, a connection ending inside a
    /// frame `UnexpectedEof`; memory is held for bytes that have arrived,
    /// never for a declared length.
    pub fn next_frame(&mut self) -> io::Result<Bytes> {
        let len = self.0.read_varint()?;
        if len > MAX_FRAME as u64 {
            return Err(bad("control frame too large"));
        }
        self.0.read_exact_bytes(len as usize)
    }
}

/// Cursor-style decoder over a frame payload.
pub struct FrameReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn bad(msg: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl<'a> FrameReader<'a> {
    pub fn new(buf: &'a [u8]) -> FrameReader<'a> {
        FrameReader { buf, pos: 0 }
    }

    pub fn u8(&mut self) -> io::Result<u8> {
        let v = *self.buf.get(self.pos).ok_or_else(|| bad("truncated u8"))?;
        self.pos += 1;
        Ok(v)
    }

    pub fn u64(&mut self) -> io::Result<u64> {
        let (v, n) = varint::get(&self.buf[self.pos..]).ok_or_else(|| bad("truncated varint"))?;
        self.pos += n;
        Ok(v)
    }

    pub fn bytes(&mut self) -> io::Result<&'a [u8]> {
        let len = self.u64()?;
        // Checked: a corrupt varint near u64::MAX must not overflow `pos`.
        let len = usize::try_from(len).map_err(|_| bad("length overflow"))?;
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| bad("truncated bytes"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// The bytes field as a slice of `frame`, the buffer this reader is
    /// over: the payload travels on by reference.
    pub(crate) fn bytes_in(&mut self, frame: &Bytes) -> io::Result<Bytes> {
        debug_assert!(std::ptr::eq(self.buf, &frame[..]));
        let len = self.bytes()?.len();
        Ok(frame.slice(self.pos - len..self.pos))
    }

    /// Borrow the string field without copying; `str()` is the owned form.
    pub fn str_ref(&mut self) -> io::Result<&'a str> {
        let b = self.bytes()?;
        std::str::from_utf8(b).map_err(|_| bad("invalid utf-8"))
    }

    pub fn str(&mut self) -> io::Result<String> {
        // Validate on the borrow; only valid strings pay for the copy.
        self.str_ref().map(str::to_owned)
    }

    pub fn addr(&mut self) -> io::Result<SockAddr> {
        let ip = self.u64()? as u32;
        let port = self.u64()?;
        if port > u16::MAX as u64 {
            return Err(bad("port out of range"));
        }
        Ok(SockAddr::new(Ip(ip), port as u16))
    }

    pub fn opt_addr(&mut self) -> io::Result<Option<SockAddr>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.addr()?)),
            _ => Err(bad("bad option tag")),
        }
    }

    /// Read a counted list of socket addresses.
    pub fn addrs(&mut self) -> io::Result<Vec<SockAddr>> {
        let n = self.u64()?;
        // Each addr is at least 2 bytes on the wire; a count beyond the
        // remaining payload is corrupt, not just large.
        if n as usize > self.buf.len().saturating_sub(self.pos) {
            return Err(bad("addr list count out of range"));
        }
        let mut out = Vec::with_capacity(n as usize);
        for _ in 0..n {
            out.push(self.addr()?);
        }
        Ok(out)
    }

    /// Remaining undecoded payload.
    pub fn rest(&mut self) -> &'a [u8] {
        let r = &self.buf[self.pos..];
        self.pos = self.buf.len();
        r
    }

    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_field_kinds() {
        let addr = SockAddr::new(Ip::new(131, 1, 0, 10), 7777);
        let mut wire = Vec::new();
        FrameWriter::new()
            .u8(7)
            .u64(123456789)
            .str("hello-port")
            .addr(addr)
            .opt_addr(None)
            .opt_addr(Some(addr))
            .bytes(b"\x00\x01\x02")
            .send(&mut wire)
            .unwrap();
        let mut cur = io::Cursor::new(wire);
        let frame = read_frame(&mut cur).unwrap();
        let mut r = FrameReader::new(&frame);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), 123456789);
        assert_eq!(r.str().unwrap(), "hello-port");
        assert_eq!(r.addr().unwrap(), addr);
        assert_eq!(r.opt_addr().unwrap(), None);
        assert_eq!(r.opt_addr().unwrap(), Some(addr));
        assert_eq!(r.bytes().unwrap(), b"\x00\x01\x02");
        assert!(r.is_empty());
    }

    #[test]
    fn addr_list_roundtrip() {
        let list = vec![
            SockAddr::new(Ip::new(131, 1, 0, 10), 600),
            SockAddr::new(Ip::new(131, 2, 0, 10), 601),
        ];
        let mut wire = Vec::new();
        FrameWriter::new()
            .addrs(&list)
            .addrs(&[])
            .send(&mut wire)
            .unwrap();
        let frame = read_frame(&mut io::Cursor::new(wire)).unwrap();
        let mut r = FrameReader::new(&frame);
        assert_eq!(r.addrs().unwrap(), list);
        assert_eq!(r.addrs().unwrap(), Vec::new());
        assert!(r.is_empty());
    }

    #[test]
    fn addr_list_bad_count_rejected() {
        let frame = FrameWriter::new().u64(1 << 40).into_bytes();
        assert!(FrameReader::new(&frame).addrs().is_err());
    }

    #[test]
    fn truncated_fields_error_cleanly() {
        let mut wire = Vec::new();
        FrameWriter::new().str("abcdef").send(&mut wire).unwrap();
        let frame = read_frame(&mut io::Cursor::new(wire)).unwrap();
        let mut r = FrameReader::new(&frame[..3]);
        assert!(r.str().is_err());
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut wire = Vec::new();
        varint::put(&mut wire, (MAX_FRAME + 1) as u64);
        assert!(read_frame(&mut io::Cursor::new(wire)).is_err());
    }

    #[test]
    fn multiple_frames_in_sequence() {
        let mut wire = Vec::new();
        FrameWriter::new().u64(1).send(&mut wire).unwrap();
        FrameWriter::new().u64(2).send(&mut wire).unwrap();
        let mut cur = io::Cursor::new(wire);
        let f1 = read_frame(&mut cur).unwrap();
        let f2 = read_frame(&mut cur).unwrap();
        assert_eq!(FrameReader::new(&f1).u64().unwrap(), 1);
        assert_eq!(FrameReader::new(&f2).u64().unwrap(), 2);
    }
}
