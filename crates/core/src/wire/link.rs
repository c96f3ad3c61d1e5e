//! What a *data* link carries (DESIGN.md §8): the stream [`Preamble`]
//! with its resume fields and the receiver's [`ResumeReply`], the tagged
//! [`Frame`]s behind it, the [`ReconfigAck`], and the three [`PathParams`]
//! fields a stack spec and a RECONFIG share. The tags, the resume flag and
//! every limit on a count or length a peer supplies are named here and
//! nowhere else.

use bytes::Bytes;
use gridzip::varint;
use std::future::Future;
use std::io::{self, Write};

use super::{bad, wire, FrameReader, FrameWriter, Put, Wire};
use crate::drivers::blockio::Parse;
use crate::drivers::{BlockRead, BlockReader, PathParams};

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

wire!(<> ResumeMeta, |w, v| v.extras.put(w.u64(v.gen)), |r| {
    let (gen, n) = (r.u64()?, r.u64()?);
    if n > MAX_RESUME_CHANNELS {
        return Err(bad("mux channel list too long"));
    }
    let extras = (0..n).map(|_| Ok((r.u64()?, r.str()?))).collect::<io::Result<_>>()?;
    Ok(ResumeMeta { gen, extras })
});

/// What opens every stream of a data link, written by the connecting
/// side: the link's anchor channel, this stream's position among the
/// link's streams, and the resume fields when the link replaces a failed
/// one.
///
/// A TCP stream starts with it as one frame, its [`Wire`] form
/// `[channel | RESUME_FLAG][idx][total]` + resume fields. A routed stream
/// is always stream 0 of 1: its channel field travels in the relay's OPEN
/// ([`routed_channel`](Self::routed_channel)), whose layout stays the
/// relay's, and the [`ResumeMeta`] is the first stream frame.
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

    /// A routed stream's preamble from the relay OPEN's channel `field`;
    /// `first_frame` reads the stream's first frame and is awaited only if
    /// the field says the resume fields follow.
    pub async fn decode_routed(
        field: u64,
        first_frame: impl Future<Output = io::Result<Bytes>>,
    ) -> io::Result<Preamble> {
        let resume = match field & RESUME_FLAG != 0 {
            true => Some(ResumeMeta::decode(&first_frame.await?)?),
            false => None,
        };
        let channel = field & !RESUME_FLAG;
        let resume = once_each(channel, resume)?;
        Ok(Preamble {
            channel,
            idx: 0,
            total: 1,
            resume,
        })
    }
}

wire!(<> Preamble, |w, v| {
    let w = w.u64(v.routed_channel()).u64(v.idx as u64).u64(v.total as u64);
    v.resume.put(w)
}, |r| {
    let (field, idx, total) = (r.u64()?, r.u64()?, r.u64()?);
    // Narrowed as sent: an `as u16` would take `total = 65 537` for one.
    let (idx, total) = match (u16::try_from(idx), u16::try_from(total)) {
        (Ok(idx), Ok(total)) if idx < total => (idx, total),
        _ => return Err(bad("bad stream preamble")),
    };
    let resume = (field & RESUME_FLAG != 0).then(|| ResumeMeta::get(r)).transpose()?;
    let channel = field & !RESUME_FLAG;
    Ok(Preamble { channel, idx, total, resume: once_each(channel, resume)? })
});

/// A resume names each channel once: one listed twice (the anchor among
/// the extras, or an extra again) would be taken on twice by one pump.
fn once_each(channel: u64, resume: Option<ResumeMeta>) -> io::Result<Option<ResumeMeta>> {
    if let Some(m) = &resume {
        let mut ids: Vec<u64> = m
            .extras
            .iter()
            .map(|(ch, _)| *ch)
            .chain([channel])
            .collect();
        ids.sort_unstable();
        if ids.windows(2).any(|w| w[0] == w[1]) {
            return Err(bad("resume lists a channel twice"));
        }
    }
    Ok(resume)
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

// A count beyond the frame is refused with nothing reserved for it.
wire!(<> ReconfigAck, |w, v| v.delivered.put(w.u64(v.epoch)), |r| {
    let epoch = r.u64()?;
    Ok(ReconfigAck { epoch, delivered: Wire::get(r)? })
});

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
    ///
    /// Restartable: the frame is consumed only once all of it has arrived,
    /// so over a polled source a `WouldBlock` leaves it to be read again
    /// whole, with the same demands stated.
    pub fn read<R: BlockRead>(cur: &mut BlockReader<R>) -> io::Result<Frame> {
        let mut p = cur.parse();
        let frame = Frame::decode(&mut p)?;
        p.commit();
        Ok(frame)
    }

    fn decode<R: BlockRead>(p: &mut Parse<'_, R>) -> io::Result<Frame> {
        match p.varint()? {
            tag::MSG => {
                let (channel, len) = (p.varint()?, p.varint()?);
                if len > MAX_MESSAGE {
                    return Err(bad("message too large"));
                }
                let len = len as usize;
                Ok(Frame::Msg { channel, len })
            }
            tag::OPEN => {
                let n = p.varint()?;
                if n > MAX_OPEN {
                    return Err(bad("OPEN announces too many channels"));
                }
                let entry = |_| {
                    let (channel, name_len) = (p.varint()?, p.varint()?);
                    if name_len > MAX_OPEN {
                        return Err(bad("port name too long"));
                    }
                    let mut name = Vec::new();
                    p.append(name_len as usize, &mut name)?;
                    let name = String::from_utf8(name).map_err(|_| bad("invalid utf-8"))?;
                    Ok((channel, name))
                };
                (0..n)
                    .map(entry)
                    .collect::<io::Result<_>>()
                    .map(Frame::Open)
            }
            tag::CLOSE => p.varint().map(|channel| Frame::Close { channel }),
            tag::RECONFIG => {
                let epoch = p.varint()?;
                let fields = [p.varint()?, p.varint()?, p.varint()?];
                let params = PathParams::from_wire_fields(fields)?;
                Ok(Frame::Reconfig { epoch, params })
            }
            _ => Err(bad("unknown frame tag")),
        }
    }
}
