//! The relay's protocols (DESIGN.md §10, §13): [`RelayMsg`] on a relay
//! connection, and [`Envelope`], what two clients say inside SEND, RECV
//! and FWD. The relay reads an envelope's first byte only, to throttle DATA.

use bytes::Bytes;
use std::io;

use super::{bad, frame_onto, protocol, FrameReader, FrameWriter, Put, Reply, Wire};

const SEND: u8 = 2;
const RECV: u8 = 3;
const FWD: u8 = 12;
const DATA: u8 = 6;

protocol! {
    /// One frame on a relay connection. The mesh ops, PEER_HELLO on, only
    /// ever pass between relays.
    pub enum RelayMsg {
        /// client → relay: register as node `id` (again: re-assert).
        Hello = 1 { id: u64 },
        /// client → relay: forward the envelope `inner` to node `to`.
        Send = SEND { to: u64, inner: Bytes },
        /// relay → client: an envelope from node `from`.
        Recv = RECV { from: u64, inner: Bytes },
        /// relay → client: node `to` is unreachable; `echo` is the envelope
        /// that was not delivered, a tail the relay may leave out.
        Nopeer = 4 { to: u64, echo: Option<Bytes> },
        /// relay → client: `peer`'s queue is running hot — pause DATA to it.
        Busy = 5 { peer: u64 },
        /// relay → client: `peer`'s queue drained — resume.
        Ready = 6 { peer: u64 },
        /// relay ↔ relay: the first frame both ways on a mesh link.
        PeerHello = 7 { mesh_id: u64 },
        /// `node` is registered at the sending relay since `epoch` (sim-time
        /// ns; ties break on mesh id).
        RouteAdd = 8 { node: u64, epoch: u64 },
        /// That registration ended.
        RouteDel = 9 { node: u64, epoch: u64 },
        /// Pull: "is `node` registered with you?"
        RouteQuery = 10 { node: u64 },
        /// The answer, from the answering relay's local state only.
        RouteRsp = 11 { node: u64, found: bool, epoch: u64 },
        /// Forward one client envelope to the relay homing `to`; never
        /// forwarded again, so the mesh cannot loop.
        Fwd = FWD { from: u64, to: u64, inner: Bytes },
        /// A FWD bounced: `to` is not (or no longer) local at the receiving
        /// relay. The origin drops its route and resolves `to` again.
        FwdFail = 13 { from: u64, to: u64, inner: Bytes },
    }
}

impl RelayMsg {
    /// Append this frame, length prefix included, to the run a shard
    /// worker writes. RECV and FWD — the frames a forwarded envelope leaves
    /// the relay in — are headed around the payload it holds by reference,
    /// with no allocation per frame.
    pub(crate) fn frame_onto(&self, run: &mut Vec<u8>) {
        match self {
            RelayMsg::Recv { from, inner } => frame_onto(run, RECV, &[*from], inner),
            RelayMsg::Fwd { from, to, inner } => frame_onto(run, FWD, &[*from, *to], inner),
            msg => run.extend_from_slice(&msg.encode().into_frame()),
        }
    }
}

protocol! {
    /// What one client says to another through the relay. A stream's
    /// envelopes name it by `dir` — "this envelope's sender opened the
    /// stream" (both ends number their streams from 1) — and `sid`.
    /// Payloads are `P`: a decoded envelope's are slices of its frame, a
    /// sender's are borrowed and copied once, into the frame.
    pub enum Envelope<P> {
        /// A service (brokering) request, answered by one SVC_RSP of `id`.
        SvcReq = 1 { id: u64, body: P },
        SvcRsp = 2 { id: u64, reply: Reply<P> },
        /// Open routed stream `sid` to the receive port `port` on `channel`.
        Open = 3 { sid: u64, port: String, channel: u64 },
        OpenOk = 4 { sid: u64 },
        /// The open was refused, or an admitted stream failed later.
        OpenErr = 5 { sid: u64, why: String },
        Data = DATA { dir: bool, sid: u64, payload: P },
        Fin = 7 { dir: bool, sid: u64 },
        /// Close barrier `n`: "answer once every chunk I sent before this is
        /// in the stream's receive queue" (DESIGN.md §7c).
        Sync = 8 { dir: bool, sid: u64, n: u64 },
        SyncOk = 9 { dir: bool, sid: u64, n: u64 },
    }
}

impl<P: Put> Envelope<P> {
    /// The SEND that carries this envelope to node `to`: its fields go
    /// into the envelope's headroom, so the payload is not copied again.
    pub fn send_to(&self, to: u64) -> FrameWriter {
        FrameWriter::new().u8(SEND).u64(to).wrap(self.encode())
    }
}

impl Envelope {
    /// Is the encoded envelope `inner` DATA, the one kind the relay
    /// throttles?
    pub(crate) fn is_data(inner: &[u8]) -> bool {
        inner.first() == Some(&DATA)
    }
}
