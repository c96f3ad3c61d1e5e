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
//! Also the one place that defines what a *data* link carries (DESIGN.md
//! §8): the stream [`Preamble`] with its resume fields and the receiver's
//! [`ResumeReply`], the tagged [`Frame`]s behind it, the [`ReconfigAck`],
//! and the three [`PathParams`] fields a stack spec and a RECONFIG share.
//! The tags, the resume flag and every limit on a count or length a peer
//! supplies are named here and nowhere else.

use bytes::Bytes;
use gridsim_net::{Ip, SockAddr};
use gridsim_tcp::TcpStream;
use gridzip::varint;
use std::io::{self, Read, Write};

use crate::drivers::{BlockRead, BlockReader, BlockWrite, PathParams, RawLink};

/// Maximum accepted control frame, to bound allocations from bad peers.
pub const MAX_FRAME: usize = 1 << 20;

// ----------------------------------------------------- the data-link codec

/// Upper bound on a single message (sanity against corrupt frames).
pub const MAX_MESSAGE: u64 = 256 << 20;
/// Most channels one OPEN may announce, and most bytes in each port name.
const MAX_OPEN: u64 = 4096;
/// Most channels a resume preamble may list beyond its anchor.
const MAX_RESUME_CHANNELS: u64 = 1 << 16;

/// High bit of the preamble's channel field: set when the link *resumes*
/// existing channels after a detected failure, and the resume fields
/// follow.
const RESUME_FLAG: u64 = 1 << 63;

/// Narrow a stream position, `idx` of `total`, range-checked as sent: an
/// `as u16` would accept `total = 65 537` as a 1-stream link.
pub(crate) fn stream_slot(idx: u64, total: u64) -> io::Result<(u16, u16)> {
    match (u16::try_from(idx), u16::try_from(total)) {
        (Ok(idx), Ok(total)) if idx < total => Ok((idx, total)),
        _ => Err(bad("bad stream preamble")),
    }
}

/// What a resuming sender tells the receiver: its reconnect generation and
/// the channels riding the link beyond the anchor the preamble itself
/// names, as `(channel, receive-port name)`, so the receiver can register
/// their routes before the replay arrives. On the wire
/// `[gen][n][(channel, name)]*` (`n` may be 0).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResumeMeta {
    pub gen: u64,
    pub extras: Vec<(u64, String)>,
}

impl ResumeMeta {
    fn put(&self, mut fw: FrameWriter) -> FrameWriter {
        fw = fw.u64(self.gen).u64(self.extras.len() as u64);
        for (ch, name) in &self.extras {
            fw = fw.u64(*ch).str(name);
        }
        fw
    }

    fn get(fr: &mut FrameReader<'_>) -> io::Result<ResumeMeta> {
        let gen = fr.u64()?;
        let n = fr.u64()?;
        if n > MAX_RESUME_CHANNELS {
            return Err(bad("mux channel list too long"));
        }
        let extras = (0..n)
            .map(|_| Ok((fr.u64()?, fr.str()?)))
            .collect::<io::Result<_>>()?;
        Ok(ResumeMeta { gen, extras })
    }
}

/// What opens every stream of a data link, written by the connecting
/// side: the link's anchor channel, this stream's position among the
/// link's streams, and the resume fields when the link replaces a failed
/// one.
///
/// A TCP stream starts with it as one frame,
/// `[channel | RESUME_FLAG][idx][total]` + resume fields. A routed stream
/// is always stream 0 of 1: its channel field travels in the relay's OPEN
/// ([`routed_channel`](Self::routed_channel)), whose layout stays the
/// relay's, and the resume fields are the first stream frame
/// ([`resume_frame`](Self::resume_frame)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Preamble {
    pub channel: u64,
    pub idx: u16,
    pub total: u16,
    pub resume: Option<ResumeMeta>,
}

impl Preamble {
    pub fn routed_channel(&self) -> u64 {
        self.channel | self.resume.as_ref().map_or(0, |_| RESUME_FLAG)
    }

    pub fn resume_frame(&self) -> Option<FrameWriter> {
        self.resume.as_ref().map(|m| m.put(FrameWriter::new()))
    }

    pub fn frame(&self) -> FrameWriter {
        let fw = FrameWriter::new()
            .u64(self.routed_channel())
            .u64(self.idx as u64)
            .u64(self.total as u64);
        match &self.resume {
            Some(meta) => meta.put(fw),
            None => fw,
        }
    }

    pub fn decode(frame: &[u8]) -> io::Result<Preamble> {
        let mut fr = FrameReader::new(frame);
        let (field, idx, total) = (fr.u64()?, fr.u64()?, fr.u64()?);
        let (idx, total) = stream_slot(idx, total)?;
        let resume = (field & RESUME_FLAG != 0)
            .then(|| ResumeMeta::get(&mut fr))
            .transpose()?;
        let channel = field & !RESUME_FLAG;
        Ok(Preamble {
            channel,
            idx,
            total,
            resume,
        })
    }

    /// A routed stream's preamble from the relay OPEN's channel `field`;
    /// `first_frame` reads the stream's first frame and is called only if
    /// the field says the resume fields follow.
    pub fn decode_routed(
        field: u64,
        first_frame: impl FnOnce() -> io::Result<Vec<u8>>,
    ) -> io::Result<Preamble> {
        let resume = (field & RESUME_FLAG != 0)
            .then(|| ResumeMeta::get(&mut FrameReader::new(&first_frame()?)))
            .transpose()?;
        let channel = field & !RESUME_FLAG;
        Ok(Preamble {
            channel,
            idx: 0,
            total: 1,
            resume,
        })
    }
}

/// The receiver's answer to a resume preamble, raw on stream 0 once every
/// stream of the link arrived: how many messages it has delivered on the
/// anchor channel and on each extra, in preamble order, so the sender
/// replays exactly the gaps. `[delivered]*`, uncounted — both ends know
/// the list the preamble carried.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResumeReply(pub Vec<u64>);

impl ResumeReply {
    pub fn frame(&self) -> FrameWriter {
        self.0.iter().fold(FrameWriter::new(), |fw, &w| fw.u64(w))
    }

    /// Decode the `n` watermarks the sender's own channel list calls for.
    pub fn decode(frame: &[u8], n: usize) -> io::Result<ResumeReply> {
        let mut fr = FrameReader::new(frame);
        (0..n)
            .map(|_| fr.u64())
            .collect::<io::Result<_>>()
            .map(ResumeReply)
    }
}

/// The receiver's answer to a RECONFIG, raw on stream 0 after it retired
/// its old stack: `[epoch][n][(channel, delivered)]*`, channels ascending
/// — its delivered watermarks, the exactly-once handshake.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReconfigAck {
    pub epoch: u64,
    pub delivered: Vec<(u64, u64)>,
}

impl ReconfigAck {
    pub fn frame(&self) -> FrameWriter {
        let fw = FrameWriter::new()
            .u64(self.epoch)
            .u64(self.delivered.len() as u64);
        self.delivered
            .iter()
            .fold(fw, |fw, &(ch, w)| fw.u64(ch).u64(w))
    }

    pub fn decode(frame: &[u8]) -> io::Result<ReconfigAck> {
        let mut fr = FrameReader::new(frame);
        let (epoch, n) = (fr.u64()?, fr.u64()?);
        // Collected entry by entry: a count beyond the frame ends in
        // "truncated" with nothing reserved for it.
        let delivered = (0..n)
            .map(|_| Ok((fr.u64()?, fr.u64()?)))
            .collect::<io::Result<_>>()?;
        Ok(ReconfigAck { epoch, delivered })
    }
}

impl PathParams {
    /// The three varints a name-service stack spec and a RECONFIG both
    /// carry: `[stripes][block_size][level + 1]`, 0 for no compressor.
    pub fn wire_fields(&self) -> [u64; 3] {
        let level = self.compression_level.map_or(0, |l| l as u64 + 1);
        [self.stripes as u64, self.block_size as u64, level]
    }

    /// Range-checked as sent (an `as u16` takes 65 537 streams for one):
    /// a stream count and a block size a stack can be built from — the
    /// staging pool allocates whole blocks, so a block is bounded like a
    /// message — and a level gridzip has.
    pub fn from_wire_fields([stripes, block_size, level]: [u64; 3]) -> io::Result<PathParams> {
        let narrowed = || {
            Some(PathParams {
                stripes: u16::try_from(stripes).ok()?,
                block_size: u32::try_from(block_size).ok()?,
                compression_level: match level {
                    0 => None,
                    l => Some(u8::try_from(l - 1).ok()?),
                },
            })
        };
        narrowed()
            .filter(|p| block_size <= MAX_MESSAGE && p.valid_for(u16::MAX as usize))
            .ok_or_else(|| bad("bad path parameters"))
    }
}

/// Frame tags. Every frame on a data link, from the first byte after the
/// stream preamble, starts with one as a varint.
mod tag {
    pub const MSG: u64 = 0;
    pub const OPEN: u64 = 1;
    pub const CLOSE: u64 = 2;
    pub const RECONFIG: u64 = 4;
}

/// One frame of the session layer (DESIGN.md §8), as written by the
/// link's sender and decoded by the receive port's pump:
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
#[derive(Debug, PartialEq, Eq)]
pub enum Frame {
    /// One message on a channel; its `len` payload bytes follow the head
    /// and are the caller's to write or read.
    Msg { channel: u64, len: usize },
    /// Channels join the link, each bound to a named receive port — the
    /// resume preamble's channel-list encoding. The receiver handles each
    /// entry idempotently.
    Open(Vec<(u64, String)>),
    /// A channel closed cleanly; the link itself stays up.
    Close { channel: u64 },
    /// Live path reconfiguration (DESIGN.md §11). The sender flushes its
    /// current stack to a block boundary, writes this frame, and BLOCKS
    /// until the receiver's [`ReconfigAck`]; the receiver tears its stack
    /// down at the frame boundary and acks, and both ends rebuild their
    /// driver stacks from `params`. `epoch` orders the link's RECONFIGs.
    Reconfig { epoch: u64, params: PathParams },
}

impl Frame {
    /// Write the frame (a MSG's head) to the sender stack, built on the
    /// call stack and handed over as the slices the stack has always seen:
    /// one per head, and per OPEN entry one for `[channel][name_len]` and
    /// one for the name. They coalesce in the stack's aggregation buffer;
    /// merging them here would move a block boundary whenever that buffer
    /// runs full mid-frame.
    pub fn write<W: Write>(&self, w: &mut W) -> io::Result<()> {
        fn varints<W: Write>(w: &mut W, fields: &[u64]) -> io::Result<()> {
            let mut hdr = [0u8; 50];
            let mut n = 0;
            for &f in fields {
                n += varint::put_slice(&mut hdr[n..], f);
            }
            w.write_all(&hdr[..n])
        }
        match self {
            Frame::Msg { channel, len } => varints(w, &[tag::MSG, *channel, *len as u64]),
            Frame::Open(chans) => {
                varints(w, &[tag::OPEN, chans.len() as u64])?;
                chans.iter().try_for_each(|(channel, name)| {
                    varints(w, &[*channel, name.len() as u64])?;
                    w.write_all(name.as_bytes())
                })
            }
            Frame::Close { channel } => varints(w, &[tag::CLOSE, *channel]),
            Frame::Reconfig { epoch, params } => {
                let [stripes, block_size, level] = params.wire_fields();
                varints(w, &[tag::RECONFIG, *epoch, stripes, block_size, level])
            }
        }
    }

    /// Decode the next frame (a MSG's head) off the receiver stack. A
    /// stream that ends inside it is `UnexpectedEof` (at a frame boundary
    /// too: the pump ends either way); an unknown tag, a count or length
    /// over its limit, a name that is not UTF-8 and path parameters no
    /// stack can be built from are `InvalidData`. Nothing is allocated for
    /// a declared count or length, only for bytes that arrived.
    pub fn read<R: BlockRead>(cur: &mut BlockReader<R>) -> io::Result<Frame> {
        match cur.read_varint()? {
            tag::MSG => {
                let (channel, len) = (cur.read_varint()?, cur.read_varint()?);
                if len > MAX_MESSAGE {
                    return Err(bad("message too large"));
                }
                let len = len as usize;
                Ok(Frame::Msg { channel, len })
            }
            tag::OPEN => {
                let n = cur.read_varint()?;
                if n > MAX_OPEN {
                    return Err(bad("OPEN announces too many channels"));
                }
                let entry = |_| {
                    let (channel, name_len) = (cur.read_varint()?, cur.read_varint()?);
                    if name_len > MAX_OPEN {
                        return Err(bad("port name too long"));
                    }
                    let name = cur.read_exact_vec(name_len as usize)?;
                    let name = String::from_utf8(name).map_err(|_| bad("invalid utf-8"))?;
                    Ok((channel, name))
                };
                (0..n)
                    .map(entry)
                    .collect::<io::Result<_>>()
                    .map(Frame::Open)
            }
            tag::CLOSE => cur.read_varint().map(|channel| Frame::Close { channel }),
            tag::RECONFIG => {
                let epoch = cur.read_varint()?;
                let fields = [cur.read_varint()?, cur.read_varint()?, cur.read_varint()?];
                let params = PathParams::from_wire_fields(fields)?;
                Ok(Frame::Reconfig { epoch, params })
            }
            _ => Err(bad("unknown frame tag")),
        }
    }
}

// ------------------------------------------------------------- control frames

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
    fn str_ref(&mut self) -> io::Result<&'a str> {
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
