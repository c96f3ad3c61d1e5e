//! Every protocol a peer speaks, encoded and decoded here and nowhere else
//! (DESIGN.md §8, §13): the data link, the relay connection and the
//! envelopes inside it, the name service, the node's service messages,
//! rpc and SOCKS5. Each control protocol is one enum, decoded whole before
//! any handler sees it, and answers in one convention, [`Reply`].
//!
//! A control frame is `[varint len][payload]`, one write (header and
//! payload in one block: a header on its own leaves as its own segment and
//! under Nagle holds the payload back a round trip) and one stated read
//! ([`FrameStream`], or `link_frame` for the one frame a data link
//! carries raw), both [`BlockReader::frame`]. [`FrameWriter`]
//! and [`FrameReader`] are public as the toolkit for malformed input.

use bytes::Bytes;
use gridsim_net::{ctx, Ip, SockAddr};
use gridsim_tcp::TcpStream;
use gridzip::varint;
use std::io;
use std::time::Duration;

use crate::drivers::{BlockReader, BlockWrite, RawLink};

mod link;
mod ns;
mod relay;
mod rpc;
mod socks;
mod svc;

pub use link::{Frame, Preamble, ReconfigAck, ResumeMeta, ResumeReply, MAX_MESSAGE};
pub use ns::{NodeRecord, NsRequest, PortRecord};
pub use relay::{Envelope, RelayMsg};
pub use rpc::{RpcReply, RpcRequest};
pub use socks::{Choice, Greeting, SocksMsg, SocksReply, SocksRequest};
pub use socks::{CMD_CONNECT, METHOD_NONE, REP_FAIL, REP_NO_CMD, REP_OK, REP_REFUSED};
pub use svc::SvcMsg;

/// Maximum accepted control frame, to bound allocations from bad peers.
pub const MAX_FRAME: usize = 1 << 20;

/// What can be put on the wire: every [`Wire`] value, and the borrowed
/// payloads a sender encodes without owning them.
pub trait Put {
    fn put(&self, w: FrameWriter) -> FrameWriter;

    /// The value as a frame of its own.
    fn encode(&self) -> FrameWriter {
        self.put(FrameWriter::new())
    }
}

/// A value with one wire form: its fields put on a [`FrameWriter`] and
/// read back off a [`FrameReader`], in the same order.
pub trait Wire: Put + Sized {
    fn get(r: &mut FrameReader<'_>) -> io::Result<Self>;

    /// A frame that holds this value and nothing else: trailing bytes are
    /// `InvalidData`. `Bytes` fields come out as slices of `frame`.
    fn decode(frame: &Bytes) -> io::Result<Self> {
        let mut r = FrameReader::new(frame);
        r.frame = Some(frame);
        let v = Self::get(&mut r)?;
        r.is_empty()
            .then_some(v)
            .ok_or_else(|| bad("trailing bytes"))
    }
}

/// The answer to a request, in the one convention every request/response
/// protocol here shares: `[1][body]`, or `[0][str why]` when refused.
pub type Reply<T> = Result<T, String>;

/// [`Put`] and [`Wire`] for a type: how it is put, and how it is got.
macro_rules! wire {
    (<$($g:ident),*> $t:ty, |$w:ident, $v:ident| $put:expr, |$r:ident| $get:expr) => {
        impl<$($g: Put),*> Put for $t {
            fn put(&self, $w: FrameWriter) -> FrameWriter {
                let $v = self;
                $put
            }
        }
        impl<$($g: Wire),*> Wire for $t {
            fn get($r: &mut FrameReader<'_>) -> io::Result<Self> {
                $get
            }
        }
    };
}
use wire;
wire!(<> (), |w, _v| w, |_r| Ok(()));
wire!(<> u64, |w, v| w.u64(*v), |r| r.u64());
// A flag byte: 0 or 1, anything else refused.
wire!(<> bool, |w, v| w.u8(*v as u8), |r| match r.u8()? {
    0 => Ok(false),
    1 => Ok(true),
    _ => Err(bad("bad flag byte")),
});
wire!(<> String, |w, v| w.str(v), |r| r.str());
wire!(<> Bytes, |w, v| w.bytes(v), |r| r.shared());
// `[ip][port]`, each range-checked: a wider varint is refused, not cut to
// another host.
wire!(<> SockAddr, |w, v| w.u64(v.ip.0 as u64).u64(v.port as u64), |r| {
    let ip = u32::try_from(r.u64()?).map_err(|_| bad("ip out of range"))?;
    let port = u16::try_from(r.u64()?).map_err(|_| bad("port out of range"))?;
    Ok(SockAddr::new(Ip(ip), port))
});
wire!(<T> Reply<T>, |w, v| match v {
    Ok(body) => body.put(w.u8(1)),
    Err(why) => w.u8(0).str(why),
}, |r| if bool::get(r)? { T::get(r).map(Ok) } else { r.str().map(Err) });
wire!(<A, B> (A, B), |w, v| v.1.put(v.0.put(w)), |r| Ok((A::get(r)?, B::get(r)?)));
// An optional tail: absent when the frame ends before it.
wire!(<T> Option<T>, |w, v| v.iter().fold(w, |w, v| v.put(w)), |r| {
    (!r.is_empty()).then(|| T::get(r)).transpose()
});
// A counted list; a count beyond the bytes left is refused before anything
// is reserved for it (every element takes at least a byte).
wire!(<T> Vec<T>, |w, v| v.iter().fold(w.u64(v.len() as u64), |w, v| v.put(w)), |r| {
    match r.u64()? {
        n if n > (r.buf.len() - r.pos) as u64 => Err(bad("list count out of range")),
        n => (0..n).map(|_| T::get(r)).collect(),
    }
});

/// A payload a sender holds by reference, put as a `bytes` field.
impl Put for &[u8] {
    fn put(&self, w: FrameWriter) -> FrameWriter {
        w.bytes(self)
    }
}

/// One protocol's enum and its codec from one table: each variant is its
/// op byte (after `=`) and its fields, put and got in the order listed,
/// each in its type's [`Wire`] form. An op not in the table is refused.
macro_rules! protocol {
    ($(#[$doc:meta])* pub enum $name:ident $(<$p:ident>)? {
        $($(#[$vdoc:meta])* $var:ident = $op:tt $({ $($f:ident: $t:ty),* })?,)*
    }) => {
        $(#[$doc])*
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub enum $name $(<$p = Bytes>)? { $($(#[$vdoc])* $var $({ $($f: $t),* })?,)* }

        crate::wire::wire!(<$($p)?> $name $(<$p>)?, |w, v| match v {
            $($name::$var $({ $($f),* })? => {
                let w = w.u8($op);
                $($(let w = $f.put(w);)*)?
                w
            })*
        }, |r| Ok(match r.u8()? {
            $($op => $name::$var $({ $($f: Wire::get(r)?),* })?,)*
            _ => return Err(bad(concat!("unknown ", stringify!($name), " op"))),
        }));
    };
}
use protocol;

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

    pub fn opt_addr(self, a: Option<SockAddr>) -> Self {
        match a {
            Some(a) => a.put(self.u8(1)),
            None => self.u8(0),
        }
    }

    /// `v` as the rest of the frame, unprefixed: its end is the frame's.
    fn tail(mut self, v: &[u8]) -> Self {
        self.buf.extend_from_slice(v);
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

    /// The payload as it stands, without a length prefix.
    pub(crate) fn payload(&self) -> &[u8] {
        &self.buf[self.head..]
    }

    /// The raw payload (for embedding in other frames).
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.buf.split_off(self.head)
    }
}

/// Append to `run` the wire frame `[op][varint id]*[bytes tail]`: how a
/// forwarder re-heads a payload it holds by reference, many frames to one
/// write, without allocating.
fn frame_onto(run: &mut Vec<u8>, op: u8, ids: &[u64], tail: &[u8]) {
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

/// The one frame a peer writes raw on a data link, outside any driver
/// stack: a stream preamble, the resume fields of a routed stream, a resume
/// reply, a RECONFIG ack. Read with no read-ahead, so it takes exactly the
/// frame's bytes off the link, and with a sim-time deadline, one
/// [`Timer`](gridsim_net::Timer) armed at the first poll: a would-block at
/// or after it is `TimedOut`, so a peer that never writes the frame (or a
/// link that dies again right there) cannot wedge the reader. A blocking
/// caller runs it under `ctx::block_on`.
pub(crate) async fn link_frame(l: &RawLink, within: Duration, what: &str) -> io::Result<Bytes> {
    let (sched, waker, mut r) = (ctx::handle(), ctx::waker(), BlockReader::new(l.clone(), 1));
    let at = sched.now() + within;
    let _deadline = sched.timer(at, move || waker.wake());
    r.read(|r| match r.frame(MAX_FRAME) {
        Err(e) if e.kind() == io::ErrorKind::WouldBlock && ctx::now() >= at => {
            ctx::blocked_on();
            Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("no {what} in {within:?}"),
            ))
        }
        read => read,
    })
    .await
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
        ctx::park_io(|| self.poll_frame())
    }

    /// [`next_frame`](Self::next_frame) without parking: `WouldBlock`
    /// stands for a park under [`TcpStream::READ_WAIT`], with the task's
    /// waker left on the socket.
    pub fn poll_frame(&mut self) -> io::Result<Bytes> {
        self.0.frame(MAX_FRAME)
    }
}

/// Cursor-style decoder over a frame payload.
pub struct FrameReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// The frame `buf` is, when `bytes` fields may be taken as slices of it.
    frame: Option<&'a Bytes>,
}

fn bad(msg: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl<'a> FrameReader<'a> {
    pub fn new(buf: &'a [u8]) -> FrameReader<'a> {
        let frame = None;
        FrameReader { buf, pos: 0, frame }
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

    /// What was read since `start`, by reference: a slice of the frame
    /// (a copy when the reader is over a plain slice).
    fn since(&self, start: usize) -> Bytes {
        let copy = || Bytes::copy_from_slice(&self.buf[start..self.pos]);
        self.frame.map_or_else(copy, |f| f.slice(start..self.pos))
    }

    /// A bytes field, by reference.
    fn shared(&mut self) -> io::Result<Bytes> {
        let len = self.bytes()?.len();
        Ok(self.since(self.pos - len))
    }

    /// What is left of the frame, by reference.
    fn tail(&mut self) -> Bytes {
        let start = std::mem::replace(&mut self.pos, self.buf.len());
        self.since(start)
    }

    pub fn str(&mut self) -> io::Result<String> {
        // Validate on the borrow; only valid strings pay for the copy.
        let s = std::str::from_utf8(self.bytes()?).map_err(|_| bad("invalid utf-8"))?;
        Ok(s.to_owned())
    }

    pub fn opt_addr(&mut self) -> io::Result<Option<SockAddr>> {
        bool::get(self)?.then(|| SockAddr::get(self)).transpose()
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
            .opt_addr(None)
            .opt_addr(Some(addr))
            .bytes(b"\x00\x01\x02")
            .send(&mut wire)
            .unwrap();
        let frame = BlockReader::new(&wire[..], 1).frame(MAX_FRAME).unwrap();
        let mut r = FrameReader::new(&frame);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), 123456789);
        assert_eq!(r.str().unwrap(), "hello-port");
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
        let frame = Bytes::from((list.clone(), Vec::<SockAddr>::new()).encode().into_bytes());
        assert_eq!(
            <(Vec<SockAddr>, Vec<SockAddr>)>::decode(&frame).unwrap(),
            (list, vec![])
        );
    }

    #[test]
    fn addr_list_bad_count_rejected() {
        let frame = Bytes::from(FrameWriter::new().u64(1 << 40).into_bytes());
        assert!(Vec::<SockAddr>::decode(&frame).is_err());
    }

    #[test]
    fn truncated_fields_error_cleanly() {
        let mut wire = Vec::new();
        FrameWriter::new().str("abcdef").send(&mut wire).unwrap();
        let frame = BlockReader::new(&wire[..], 1).frame(MAX_FRAME).unwrap();
        let mut r = FrameReader::new(&frame[..3]);
        assert!(r.str().is_err());
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut wire = Vec::new();
        varint::put(&mut wire, (MAX_FRAME + 1) as u64);
        let err = BlockReader::new(&wire[..], 1).frame(MAX_FRAME).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn multiple_frames_in_sequence() {
        let mut wire = Vec::new();
        FrameWriter::new().u64(1).send(&mut wire).unwrap();
        FrameWriter::new().u64(2).send(&mut wire).unwrap();
        let mut cur = BlockReader::new(&wire[..], 1);
        let f1 = cur.frame(MAX_FRAME).unwrap();
        let f2 = cur.frame(MAX_FRAME).unwrap();
        assert_eq!(FrameReader::new(&f1).u64().unwrap(), 1);
        assert_eq!(FrameReader::new(&f2).u64().unwrap(), 2);
    }
}
