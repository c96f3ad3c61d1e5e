//! Send and receive ports: the IPL's "one elementary communication
//! abstraction, unidirectional message channels" (paper §5).
//!
//! A [`SendPort`] connects to one or more named [`ReceivePort`]s (group
//! communication duplicates messages across connections); each connection
//! carries FIFO-ordered messages over a driver stack assembled per the
//! receive port's [`StackSpec`]. Message boundaries are explicit: data is
//! aggregated until `finish()` flushes the stack — the user-space
//! aggregation + explicit flush of paper §4.1.
//!
//! Connections are *channels* riding shared session-layer links
//! ([`crate::session`]): every channel a node opens to the same peer with
//! the same effective stack spec multiplexes over ONE established link.

use bytes::Bytes;
use gridsim_net::{SchedHandle, SimQueue};
use gridzip::varint;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::drivers::{
    build_receiver, BlockReader, PathParams, RawLink, ReceiverStack, StackSpec, StripeQuiesce,
};
use crate::establish::EstablishMethod;
use crate::node::{GridNode, NodeCtx};
use crate::pool::{BlockBuf, BlockPool};
use crate::relay::RelayClient;
use crate::session::{Channel, SharedLink};
use crate::wire::{Frame, FrameWriter, Preamble, ReconfigAck, ResumeReply, MAX_MESSAGE};

/// A received message with typed readers.
pub struct ReadMessage {
    /// The sender's channel id (unique per logical connection).
    pub channel: u64,
    data: Vec<u8>,
    pos: usize,
}

impl ReadMessage {
    pub(crate) fn new(channel: u64, data: Vec<u8>) -> ReadMessage {
        ReadMessage {
            channel,
            data,
            pos: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    pub fn remaining(&self) -> &[u8] {
        &self.data[self.pos..]
    }

    pub fn read_bytes(&mut self, n: usize) -> io::Result<&[u8]> {
        // Checked: a corrupt length near usize::MAX must not overflow `pos`
        // (which would panic in debug and silently wrap in release).
        let end = self
            .pos
            .checked_add(n)
            .ok_or(io::ErrorKind::UnexpectedEof)?;
        if end > self.data.len() {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub fn read_u64(&mut self) -> io::Result<u64> {
        let (v, used) = varint::get(&self.data[self.pos..])
            .ok_or_else(|| io::Error::from(io::ErrorKind::UnexpectedEof))?;
        self.pos += used;
        Ok(v)
    }

    pub fn read_u32(&mut self) -> io::Result<u32> {
        let v = self.read_u64()?;
        u32::try_from(v).map_err(|_| io::ErrorKind::InvalidData.into())
    }

    pub fn read_str(&mut self) -> io::Result<String> {
        let n = self.read_u64()?;
        if n > MAX_MESSAGE {
            return Err(io::ErrorKind::InvalidData.into());
        }
        let b = self.read_bytes(n as usize)?;
        // Validate on the borrow; only valid strings pay for the copy.
        std::str::from_utf8(b)
            .map(str::to_owned)
            .map_err(|_| io::ErrorKind::InvalidData.into())
    }

    pub fn into_vec(self) -> Vec<u8> {
        self.data
    }
}

/// A message under construction on a send port. Writes accumulate in a
/// pooled buffer; `finish()` freezes it into a refcounted block that every
/// connection's stack shares without copying.
pub struct WriteMessage<'a> {
    port: &'a mut SendPort,
    buf: BlockBuf,
}

impl WriteMessage<'_> {
    pub fn write_bytes(&mut self, b: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(b);
        self
    }

    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        varint::put(&mut self.buf, v);
        self
    }

    pub fn write_u32(&mut self, v: u32) -> &mut Self {
        self.write_u64(v as u64)
    }

    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes())
    }

    /// Frame the message and flush it down every connection's stack. This
    /// is the explicit flush of §4.1: nothing hits the wire until a full
    /// buffer or this call.
    ///
    /// A message that fills less than an eighth of its pooled buffer is
    /// frozen as an exact-size copy and the buffer goes straight back to
    /// the pool: the channel's resend buffer holds the payload until the
    /// receiver's next cumulative ack (6 MiB of payload by default), and
    /// budgets it by length, so a 256 B message must not pin 32 KiB there.
    pub fn finish(self) -> io::Result<usize> {
        let len = self.buf.len();
        let payload = if len < self.buf.capacity() / 8 {
            Bytes::copy_from_slice(&self.buf)
        } else {
            self.buf.freeze()
        };
        self.port.send_framed(payload)?;
        Ok(len)
    }
}

/// Default resend-buffer byte budget per connection: bytes of recently
/// sent messages retained for replay after a reconnect (override with
/// [`GridEnv::with_resend_budget`]). With the cumulative-ack protocol the
/// buffer is continuously pruned to the receiver's watermark, so this is a
/// backstop, not the steady-state size; if eviction ever discards a
/// message recovery later needs, the resume fails with [`ResendOverflow`]
/// rather than violating exactly-once.
///
/// [`GridEnv::with_resend_budget`]: crate::node::GridEnv::with_resend_budget
pub(crate) const RESEND_BUDGET: usize = 8 * 1024 * 1024;

/// Default cumulative-ack cadence: the receive port sends one
/// `CACK{channel, delivered}` service frame per this many delivered bytes.
/// Three quarters of the resend budget: pruning still lands well before
/// the eviction cliff, while fault-free transfers up to 6 MiB per channel
/// never cross it — their wire traces carry no ack traffic at all.
pub(crate) const ACK_BYTES_DEFAULT: usize = RESEND_BUDGET / 4 * 3;

/// An idle channel (no deliveries for this long) with unacknowledged
/// delivered bytes flushes a CACK so a stalled sender still prunes. Longer
/// than any fault-free inter-message gap in the benches, so active
/// transfers only ack on the byte cadence.
const ACK_IDLE_FLUSH: Duration = Duration::from_secs(2);

/// Deadline on a CACK service round-trip. Acks are advisory and
/// cumulative: a lost or timed-out one is subsumed by the next.
const ACK_SVC_TIMEOUT: Duration = Duration::from_secs(5);

/// Monotonic cumulative-ack watermark, shared between a send channel and
/// the node's CACK service handler. CACK frames can arrive reordered
/// (independent service round-trips); only the maximum matters.
pub(crate) struct AckCell(AtomicU64);

impl AckCell {
    pub(crate) fn new() -> AckCell {
        AckCell(AtomicU64::new(0))
    }

    pub(crate) fn advance(&self, delivered: u64) {
        self.0.fetch_max(delivered, Ordering::Relaxed);
    }

    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Typed error: a resume needed messages the resend buffer had already
/// evicted past its byte budget, so replay would leave a gap. Carried as
/// the source of an `InvalidData` [`io::Error`]; retrieve it with
/// `err.get_ref().and_then(|s| s.downcast_ref::<ResendOverflow>())`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResendOverflow {
    /// The channel whose replay gap is unrecoverable.
    pub channel: u64,
    /// The receiver's delivered watermark at the failed resume.
    pub acked: u64,
    /// Oldest sequence number still retained; `[acked, oldest)` is gone.
    pub oldest: u64,
}

impl std::fmt::Display for ResendOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "resend buffer overflowed on channel {}: receiver delivered {}, \
             oldest retained message is {} — the gap was evicted past the budget",
            self.channel, self.acked, self.oldest
        )
    }
}

impl std::error::Error for ResendOverflow {}

/// One logical connection of a [`SendPort`]: a channel attached to a
/// shared session-layer link.
pub(crate) struct SendConnection {
    pub link: Arc<SharedLink>,
    pub chan: Arc<Channel>,
}

/// Receive-side per-channel state shared across ALL of a node's receive
/// ports: exactly-once delivered watermarks and ack bookkeeping. Node-wide
/// because a multiplexed link can carry channels of several ports, and a
/// resume can re-anchor a channel on a different port's listener — the
/// watermark must follow the channel, not the port.
pub(crate) struct RxShared {
    /// Messages delivered per channel — the exactly-once watermark a
    /// resuming sender replays from.
    delivered: Mutex<HashMap<u64, u64>>,
    /// Per-channel ack and lifecycle bookkeeping.
    ack_state: Mutex<HashMap<u64, ChannelAck>>,
}

impl RxShared {
    pub(crate) fn new() -> Arc<RxShared> {
        Arc::new(RxShared {
            delivered: Mutex::new(HashMap::new()),
            ack_state: Mutex::new(HashMap::new()),
        })
    }
}

/// Nominal checkout size of the message pool. Messages may grow past it
/// (a pooled buffer is an ordinary `Vec`); recycled buffers keep their
/// grown capacity, so steady-state sends of any size stop allocating.
const MSG_POOL_BLOCK: usize = 32 * 1024;

/// The sending endpoint of a message channel.
pub struct SendPort {
    pub(crate) node: GridNode,
    pub(crate) conns: Vec<SendConnection>,
    /// Pool backing [`WriteMessage`] buffers.
    msg_pool: BlockPool,
}

impl SendPort {
    pub(crate) fn new(node: GridNode) -> SendPort {
        SendPort {
            node,
            conns: Vec::new(),
            msg_pool: BlockPool::new(MSG_POOL_BLOCK),
        }
    }

    /// A port born already connected — one element of a
    /// [`GridNode::connect_batch`] result.
    pub(crate) fn with_connection(node: GridNode, conn: SendConnection) -> SendPort {
        SendPort {
            node,
            conns: vec![conn],
            msg_pool: BlockPool::new(MSG_POOL_BLOCK),
        }
    }

    /// Connect to the named receive port. If the session layer already
    /// holds an established link to that peer with the same stack spec,
    /// the new channel attaches to it (no new establishment); otherwise
    /// the decision tree runs, single-flighted against concurrent
    /// connects. Returns the link's establishment method.
    pub fn connect(&mut self, port_name: &str) -> io::Result<EstablishMethod> {
        let conn = self.node.establish_connection(port_name)?;
        let method = conn.link.method();
        self.conns.push(conn);
        Ok(method)
    }

    /// Number of live connections (group communication sends to all).
    pub fn connection_count(&self) -> usize {
        self.conns.len()
    }

    /// (peer port name, method, channel id) per connection — diagnostics.
    pub fn connections(&self) -> Vec<(String, EstablishMethod, u64)> {
        self.conns
            .iter()
            .map(|c| (c.chan.peer_port.clone(), c.link.method(), c.chan.channel))
            .collect()
    }

    /// Live path parameters of connection `i`'s underlying link.
    pub fn path_params(&self, i: usize) -> Option<PathParams> {
        self.conns.get(i).map(|c| c.link.path_params())
    }

    /// Epoch of the last committed RECONFIG on connection `i`'s link
    /// (0 = never reconfigured; abandoned attempts burn epochs, so gaps
    /// are normal).
    pub fn path_epoch(&self, i: usize) -> Option<u64> {
        self.conns.get(i).map(|c| c.link.path_epoch())
    }

    /// Telemetry ring of connection `i`'s link, oldest first — the
    /// samples the session-layer control loop decides from. Empty unless
    /// path control is on (`GridEnv::with_path_control`) or the caller
    /// samples by hand.
    pub fn path_telemetry(&self, i: usize) -> Option<Vec<crate::tune::PathStats>> {
        self.conns.get(i).map(|c| c.link.stats_ring())
    }

    /// Reconfigure every distinct underlying link to `params` live
    /// (DESIGN.md §11): stripe count, block size and compression switch
    /// at a frame boundary without tearing the connections down, and
    /// FIFO exactly-once delivery is preserved across the swap. Returns
    /// whether any link actually changed. The stripe count is limited to
    /// the connections establishment dialed (the link's stream count).
    pub fn reconfigure(&mut self, params: PathParams) -> io::Result<bool> {
        let mut seen: Vec<*const SharedLink> = Vec::new();
        let mut changed = false;
        for c in &self.conns {
            let p = Arc::as_ptr(&c.link);
            if seen.contains(&p) {
                continue;
            }
            seen.push(p);
            changed |= self.node.reconfigure_link(&c.link, params)?;
        }
        Ok(changed)
    }

    /// Resend-buffer usage per connection: `(current_bytes, peak_bytes)`.
    /// Peak is measured before eviction, so `peak <= cap` proves the ack
    /// protocol — not the eviction cliff — kept the buffer bounded.
    pub fn resend_stats(&self) -> Vec<(usize, usize)> {
        self.conns.iter().map(|c| c.chan.resend_stats()).collect()
    }

    /// Start a new message.
    pub fn message(&mut self) -> WriteMessage<'_> {
        let buf = self.msg_pool.checkout();
        WriteMessage { port: self, buf }
    }

    /// One-shot convenience: send `data` as a single message.
    pub fn send(&mut self, data: &[u8]) -> io::Result<()> {
        let mut m = self.message();
        m.write_bytes(data);
        m.finish()?;
        Ok(())
    }

    fn send_framed(&mut self, payload: Bytes) -> io::Result<()> {
        if self.conns.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "send port not connected",
            ));
        }
        let node = self.node.clone();
        for c in &self.conns {
            node.send_on(c, &payload)?;
        }
        Ok(())
    }

    /// Flush and close all connections (graceful: the peer observes each
    /// channel's clean close). Every channel announces its close in-band
    /// (CLOSE); one sharing its link with others leaves the link up, the
    /// LAST channel's close tears the link down and the peer sees EOF. If a
    /// link died with messages still unconfirmed, it is recovered and the
    /// tail replayed before closing.
    pub fn close(mut self) -> io::Result<()> {
        let node = self.node.clone();
        let mut first_err: Option<io::Error> = None;
        for c in self.conns.drain(..) {
            if let Err(e) = node.close_channel(&c) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Drop for SendPort {
    fn drop(&mut self) {
        // A port dropped without close() must still detach its channels
        // (so shared links stop replaying them) and unregister its ack
        // watermarks. close() drains `conns`, making this a no-op.
        for c in self.conns.drain(..) {
            self.node.drop_channel(&c);
        }
    }
}

/// Shared state of a receive port, reachable from accept paths.
pub struct ReceivePortInner {
    pub name: String,
    pub spec: StackSpec,
    msgq: SimQueue<ReadMessage>,
    /// Streams collected per channel until a connection is complete.
    pending: Mutex<HashMap<u64, PendingChannel>>,
    connections: Mutex<u64>,
    /// CACK transport + cadence (`None`: no relay, or acks disabled).
    ack: Option<AckSender>,
    /// Node-wide delivered watermarks + ack state (channels can migrate
    /// between ports' pumps via mux routing).
    rx: Arc<RxShared>,
}

struct PendingChannel {
    links: Vec<Option<RawLink>>,
    received: usize,
    /// Reconnect generation this assembly belongs to (0 = first connect).
    gen: u64,
}

/// How a receive port reports `CACK{channel, delivered}` back to the
/// sending node: as service requests on the relay link — never on the data
/// path, so fault-free data-path wire traces stay byte-identical.
pub(crate) struct AckSender {
    pub(crate) relay: RelayClient,
    pub(crate) sched: SchedHandle,
    /// Emit one CACK per this many delivered payload bytes.
    pub(crate) every: usize,
}

impl AckSender {
    /// Fire-and-forget from a fresh daemon (a service round-trip parks,
    /// and the callers — the pump and the idle timer — must not). A lost
    /// or timed-out CACK is subsumed by the next: the watermark is
    /// cumulative and the handler takes the max.
    fn send(&self, channel: u64, delivered: u64) {
        let relay = self.relay.clone();
        self.sched.spawn_daemon("cack-send", move || {
            let frame = FrameWriter::new()
                .u8(crate::node::svc::CACK)
                .u64(channel)
                .u64(delivered)
                .into_bytes();
            // Channel ids embed the sender's grid id in the high bits.
            let sent = relay.service_request_timeout(channel >> 24, &frame, Some(ACK_SVC_TIMEOUT));
            // Silence may be our own service link gone half-open (an idle
            // receiver writes nothing else that would tell it): the probe
            // draws the reset, and the pump redials and re-registers.
            if sent.is_err_and(|e| e.kind() == io::ErrorKind::TimedOut) {
                relay.nudge();
            }
        });
    }
}

#[derive(Default)]
struct ChannelAck {
    /// Live pump tasks (briefly 2 while a resume supersedes a stale pump).
    pumps: u32,
    /// Delivered bytes not yet covered by a sent CACK.
    bytes_since: usize,
    /// Total delivered bytes, for idle detection.
    total: u64,
    /// `total` when the pending idle timer was scheduled.
    seen: u64,
    /// An idle-flush timer is pending.
    timer: bool,
    /// The sender announced a clean close (a CLOSE frame) — the channel
    /// will never resume even though its link stays up.
    closed: bool,
}

/// One channel a pump is routing: its next expected sequence number and
/// the receive port it delivers to (`None` after that port closed — the
/// channel's bytes still drain to keep the link's other channels alive).
struct LiveChan {
    seq: u64,
    inner: Option<Arc<ReceivePortInner>>,
}

/// Answer the link's sender raw on stream 0, in the reverse direction and
/// outside the driver stack — how a resume preamble and a RECONFIG are
/// both answered, while neither end has a stack assembled to speak through.
fn reply_on_stream0(links: &[RawLink], reply: FrameWriter) -> io::Result<()> {
    reply.send(&mut links[0].clone())
}

impl ReceivePortInner {
    pub(crate) fn new(
        name: String,
        spec: StackSpec,
        ack: Option<AckSender>,
        rx: Arc<RxShared>,
    ) -> Arc<ReceivePortInner> {
        Arc::new(ReceivePortInner {
            name,
            spec,
            msgq: SimQueue::bounded(64),
            pending: Mutex::new(HashMap::new()),
            connections: Mutex::new(0),
            ack,
            rx,
        })
    }

    /// Register one raw link of a (possibly multi-stream) incoming
    /// connection, opened by `pre`; assembles and starts the receiver stack
    /// when all streams have arrived. A preamble with resume fields comes
    /// from a sender that reconnected after a failure (its generation and
    /// channel list).
    pub(crate) fn add_link(
        self: &Arc<Self>,
        ctx: &NodeCtx,
        pre: Preamble,
        link: RawLink,
    ) -> io::Result<()> {
        let Preamble {
            channel,
            idx,
            total,
            resume,
        } = pre;
        let gen = resume.as_ref().map(|m| m.gen).unwrap_or(0);
        let ready = {
            let mut pending = self.pending.lock();
            // A newer generation supersedes a stale partial assembly (links
            // of a reconnect attempt that itself failed mid-establishment);
            // an older generation is a straggler and is rejected.
            if pending.get(&channel).is_some_and(|e| e.gen < gen) {
                pending.remove(&channel);
            }
            let entry = pending.entry(channel).or_insert_with(|| PendingChannel {
                links: (0..total).map(|_| None).collect(),
                received: 0,
                gen,
            });
            if gen < entry.gen {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "stale stream generation",
                ));
            }
            if entry.links.len() != total as usize {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "stream count mismatch",
                ));
            }
            let slot = &mut entry.links[idx as usize];
            if slot.is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "duplicate stream index",
                ));
            }
            *slot = Some(link);
            entry.received += 1;
            if entry.received == total as usize {
                let entry = pending.remove(&channel).expect("entry exists");
                Some(
                    entry
                        .links
                        .into_iter()
                        .map(|l| l.expect("all present"))
                        .collect::<Vec<_>>(),
                )
            } else {
                None
            }
        };
        if let Some(links) = ready {
            // Resume handshake: tell the sender how many messages were
            // actually delivered — for the anchor channel AND every extra,
            // anchor first, preamble order — so it replays exactly the
            // gaps. Written before the stack assembles (raw, ahead of any
            // handshake) and only on resumed connections.
            let mut init: Vec<(u64, u64, Option<Arc<ReceivePortInner>>)> = Vec::new();
            if let Some(meta) = &resume {
                let reply = {
                    let mut d = self.rx.delivered.lock();
                    let mut ws = vec![*d.entry(channel).or_insert(0)];
                    for (ch, _) in &meta.extras {
                        ws.push(*d.entry(*ch).or_insert(0));
                    }
                    ResumeReply(ws)
                };
                reply_on_stream0(&links, reply.frame())?;
                init.push((channel, reply.0[0], Some(Arc::clone(self))));
                for ((ch, name), w) in meta.extras.iter().zip(&reply.0[1..]) {
                    init.push((*ch, *w, (ctx.resolve)(name)));
                }
            } else {
                init.push((channel, 0, Some(Arc::clone(self))));
            }
            // Routed links arrive as a single stream regardless of the
            // spec; the preamble's `total` is authoritative.
            let spec = self.spec.clone().with_streams(total.max(1));
            // Health probes for the GC decision at pump exit: clones
            // sharing the underlying sockets, like the sender's.
            let probes = links.clone();
            let (stack, quiesce) = build_receiver(
                links,
                &spec,
                ctx.cpu.clone(),
                ctx.security(&spec).as_ref(),
                &ctx.sched,
            )?;
            *self.connections.lock() += 1;
            let me = Arc::clone(self);
            let pctx = ctx.clone();
            ctx.sched
                .spawn_daemon(format!("rp-pump-{}-{}", self.name, channel), move || {
                    me.pump(stack, quiesce, probes, init, pctx);
                });
        }
        Ok(())
    }

    /// The pump: one task per assembled link, a state machine over the
    /// link's decoded [`Frame`]s that routes messages to channels. `init`
    /// holds the channels the preamble named; OPEN/CLOSE manage the set
    /// from there.
    ///
    /// Decoding runs over a [`BlockReader`], which states the whole-message
    /// byte demand to the stack in one `read_chunks_min` call: the
    /// simulated socket parks once per message and is serviced at event
    /// time, so one wakeup drains everything available instead of the pump
    /// waking per delivered segment.
    fn pump(
        self: &Arc<Self>,
        stack: ReceiverStack,
        mut quiesce: Option<StripeQuiesce>,
        probes: Vec<RawLink>,
        init: Vec<(u64, u64, Option<Arc<ReceivePortInner>>)>,
        ctx: NodeCtx,
    ) {
        let mut cur = BlockReader::new(stack, self.spec.block_size() as usize);
        // Epoch of the last committed RECONFIG this pump saw. Starts at 0
        // for every (re-)established pump: the link-level epoch is
        // monotonic for the link's life, so any epoch > 0 is acceptable
        // to a fresh pump and stale duplicates are rejected.
        let mut last_epoch = 0u64;
        let mut live: HashMap<u64, LiveChan> = HashMap::new();
        {
            let mut st = self.rx.ack_state.lock();
            for (ch, seq, inner) in init {
                st.entry(ch).or_default().pumps += 1;
                live.insert(ch, LiveChan { seq, inner });
            }
        }
        // Runs until EOF (a read error), a corrupt frame, or one this
        // pump's state forbids.
        while let Ok(frame) = Frame::read(&mut cur) {
            let (ch, len) = match frame {
                Frame::Msg { channel, len } => (channel, len),
                Frame::Open(chans) => {
                    for (ch, name) in chans {
                        // Idempotent: a recovery replays OPENs for
                        // channels whose announcement the flap may have
                        // eaten, and a recovered batch is rewritten
                        // wholesale.
                        if let std::collections::hash_map::Entry::Vacant(slot) = live.entry(ch) {
                            let seq = {
                                let mut st = self.rx.ack_state.lock();
                                st.entry(ch).or_default().pumps += 1;
                                *self.rx.delivered.lock().entry(ch).or_insert(0)
                            };
                            slot.insert(LiveChan {
                                seq,
                                inner: (ctx.resolve)(&name),
                            });
                        }
                    }
                    continue;
                }
                Frame::Close { channel } => {
                    if live.remove(&channel).is_some() {
                        self.channel_closed(channel);
                    }
                    continue;
                }
                Frame::Reconfig { epoch, params } => {
                    // Live path reconfiguration (DESIGN.md §11): the
                    // sender flushed its stack to this frame boundary and
                    // is blocked on our ack. A stale/replayed epoch, more
                    // stripes than this link has connections (the sender's
                    // own check, `try_reconfigure`) or leftover old-format
                    // bytes after the frame are corrupt: kill the pump.
                    // The sender's ack wait times out and recovery
                    // resynchronizes.
                    if epoch <= last_epoch || !params.valid_for(probes.len()) || cur.buffered() != 0
                    {
                        break;
                    }
                    // Quiesce the retired stack BEFORE acking: its
                    // per-stripe pump tasks own socket reads until they
                    // consume the sender's segment terminator (written
                    // right after the RECONFIG frame). Ack first and a
                    // still-parked pump would steal the new stack's first
                    // bytes.
                    if let Some(q) = quiesce.take() {
                        q.wait();
                    }
                    // Ack with the delivered watermarks (the exactly-once
                    // handshake), then rebuild the receiver stack from
                    // the new parameters over the first `stripes`
                    // connections; the rest stay parked. GTLS
                    // re-handshakes deterministically from the per-stream
                    // salt.
                    let mut delivered: Vec<(u64, u64)> = {
                        let d = self.rx.delivered.lock();
                        live.keys()
                            .map(|&ch| (ch, d.get(&ch).copied().unwrap_or(0)))
                            .collect()
                    };
                    delivered.sort_unstable_by_key(|&(ch, _)| ch);
                    let ack = ReconfigAck { epoch, delivered };
                    if reply_on_stream0(&probes, ack.frame()).is_err() {
                        break;
                    }
                    let spec = self.spec.clone().with_path(params);
                    let sec = ctx.security(&spec);
                    let links: Vec<RawLink> = probes[..params.stripes as usize].to_vec();
                    let Ok((stack, q)) =
                        build_receiver(links, &spec, ctx.cpu.clone(), sec.as_ref(), &ctx.sched)
                    else {
                        break;
                    };
                    quiesce = q;
                    cur = BlockReader::new(stack, spec.block_size() as usize);
                    last_epoch = epoch;
                    continue;
                }
            };
            let Ok(data) = cur.read_exact_vec(len) else {
                break;
            };
            let Some(lc) = live.get_mut(&ch) else {
                break; // MSG on a channel never opened: corrupt
            };
            let seq = lc.seq;
            lc.seq += 1;
            // Exactly-once dedupe: advance the watermark under the lock,
            // then deliver. A message a previous incarnation of this
            // channel already delivered is dropped.
            let fresh = {
                let mut d = self.rx.delivered.lock();
                let e = d.entry(ch).or_insert(0);
                if seq < *e {
                    false
                } else {
                    *e = seq + 1;
                    true
                }
            };
            if !fresh {
                continue;
            }
            // `inner: None` channels are drained and dropped.
            if let Some(port) = lc.inner.clone() {
                let bytes = data.len();
                if port.msgq.push(ReadMessage::new(ch, data)).is_err() {
                    // That port closed. Keep draining its channel's bytes
                    // (the link's other channels live on), but if no live
                    // channel has a destination left, the pump has no
                    // reason to exist.
                    if let Some(lc) = live.get_mut(&ch) {
                        lc.inner = None;
                    }
                    if live.values().all(|l| l.inner.is_none()) {
                        break;
                    }
                } else {
                    port.note_delivered(ch, seq + 1, bytes);
                }
            }
        }
        *self.connections.lock() -= 1;
        // Clean EOF — every link closed gracefully — means the sender
        // flushed and closed its channels: they will never resume, so the
        // exactly-once watermarks and ack state can be garbage-collected.
        // Any aborted link keeps them for the resume handshake.
        let clean = probes.iter().all(|l| l.closed_cleanly());
        for ch in live.keys().copied().collect::<Vec<_>>() {
            self.pump_exit(ch, clean);
        }
    }

    /// A channel announced a clean in-band close (a CLOSE frame): it
    /// will never resume, so its watermark and ack state go now unless a
    /// superseding pump still references them.
    fn channel_closed(&self, channel: u64) {
        let last = {
            let mut st = self.rx.ack_state.lock();
            match st.get_mut(&channel) {
                Some(e) => {
                    e.closed = true;
                    e.pumps -= 1;
                    e.pumps == 0
                }
                None => true,
            }
        };
        if last {
            self.rx.delivered.lock().remove(&channel);
            self.rx.ack_state.lock().remove(&channel);
        }
    }

    /// Ack bookkeeping after delivering one message: send a CACK when the
    /// byte cadence is crossed, and keep an idle-flush timer armed so a
    /// sender stalled mid-transfer still learns the watermark.
    fn note_delivered(self: &Arc<Self>, channel: u64, watermark: u64, bytes: usize) {
        let Some(ack) = &self.ack else { return };
        let mut send = false;
        let mut arm = false;
        {
            let mut st = self.rx.ack_state.lock();
            let e = st.entry(channel).or_default();
            e.total += bytes as u64;
            e.bytes_since += bytes;
            if e.bytes_since >= ack.every {
                e.bytes_since = 0;
                send = true;
            } else if !e.timer {
                e.timer = true;
                e.seen = e.total;
                arm = true;
            }
        }
        if send {
            ack.send(channel, watermark);
        }
        if arm {
            self.schedule_idle_flush(channel);
        }
    }

    fn schedule_idle_flush(self: &Arc<Self>, channel: u64) {
        let Some(ack) = &self.ack else { return };
        let weak = Arc::downgrade(self);
        ack.sched
            .call_at(ack.sched.now() + ACK_IDLE_FLUSH, move || {
                if let Some(me) = weak.upgrade() {
                    me.idle_flush(channel);
                }
            });
    }

    /// Idle-flush timer body (scheduler context — never blocks). Re-arms
    /// only while the channel is open and progressing, so a finished
    /// simulation still quiesces; sends only when genuinely idle, so
    /// fault-free transfers never emit timer-driven acks mid-flight.
    fn idle_flush(self: &Arc<Self>, channel: u64) {
        let Some(ack) = &self.ack else { return };
        let mut send = false;
        let mut rearm = false;
        {
            let mut st = self.rx.ack_state.lock();
            let Some(e) = st.get_mut(&channel) else {
                return;
            };
            if e.pumps == 0 {
                // Channel closed (or a resume not yet re-established):
                // stop. A resumed pump re-arms on its next delivery.
                e.timer = false;
            } else if e.total != e.seen {
                // Still progressing: the byte cadence covers acking.
                e.seen = e.total;
                rearm = true;
            } else if e.bytes_since > 0 {
                e.bytes_since = 0;
                e.timer = false;
                send = true;
            } else {
                e.timer = false;
            }
        }
        if send {
            let d = *self.rx.delivered.lock().get(&channel).unwrap_or(&0);
            ack.send(channel, d);
        }
        if rearm {
            self.schedule_idle_flush(channel);
        }
    }

    fn pump_exit(&self, channel: u64, clean: bool) {
        let (last, closed) = {
            let mut st = self.rx.ack_state.lock();
            match st.get_mut(&channel) {
                Some(e) => {
                    e.pumps -= 1;
                    (e.pumps == 0, e.closed)
                }
                None => (true, false),
            }
        };
        if last && (clean || closed) {
            self.rx.delivered.lock().remove(&channel);
            self.rx.ack_state.lock().remove(&channel);
        }
    }

    /// Messages waiting.
    pub fn queued(&self) -> usize {
        self.msgq.len()
    }

    pub fn connection_count(&self) -> u64 {
        *self.connections.lock()
    }
}

/// The receiving endpoint of a message channel.
pub struct ReceivePort {
    pub(crate) node: GridNode,
    pub(crate) inner: Arc<ReceivePortInner>,
}

impl ReceivePort {
    /// The port's registered name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Block (in simulated time) for the next message from any connection.
    pub fn receive(&self) -> io::Result<ReadMessage> {
        self.inner
            .msgq
            .pop()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "receive port closed"))
    }

    /// Non-blocking variant.
    pub fn try_receive(&self) -> Option<ReadMessage> {
        self.inner.msgq.try_pop()
    }

    /// Live incoming connections.
    pub fn connection_count(&self) -> u64 {
        self.inner.connection_count()
    }

    /// Messages waiting in the queue (non-blocking snapshot).
    pub fn queued(&self) -> usize {
        self.inner.queued()
    }

    /// Close the port: wakes blocked receivers and unregisters the name.
    pub fn close(self) {
        self.inner.msgq.close();
        let _ = self.node.ns().unregister_port(&self.inner.name);
        self.node.forget_port(&self.inner.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A corrupt varint length near `u64::MAX` (e.g. from a damaged or
    /// hostile frame) must surface as an error from every typed reader, not
    /// overflow the cursor and panic.
    #[test]
    fn corrupt_length_fields_error_cleanly() {
        // varint encoding of u64::MAX followed by a few payload bytes.
        let mut data = Vec::new();
        gridzip::varint::put(&mut data, u64::MAX);
        data.extend_from_slice(b"xyz");
        let mut m = ReadMessage::new(1, data.clone());
        assert_eq!(
            m.read_str().unwrap_err().kind(),
            io::ErrorKind::InvalidData,
            "length beyond MAX_MESSAGE is invalid, not a panic"
        );
        // Direct read_bytes with a huge count: checked add, clean error.
        let mut m = ReadMessage::new(1, data);
        assert_eq!(
            m.read_bytes(usize::MAX).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // A plausible-but-too-long length must not read past the buffer.
        let mut short = Vec::new();
        gridzip::varint::put(&mut short, 64);
        short.extend_from_slice(b"only-9ch");
        let mut m = ReadMessage::new(1, short);
        assert!(m.read_str().is_err());
    }

    /// Truncated input leaves the reader usable (cursor not advanced past
    /// the end) and keeps failing rather than panicking.
    #[test]
    fn truncated_message_reads_fail_not_panic() {
        let mut m = ReadMessage::new(7, vec![0x80]); // dangling varint byte
        assert!(m.read_u64().is_err());
        assert!(m.read_str().is_err());
        assert!(m.read_bytes(2).is_err(), "read past the truncated end");
    }

    /// The resend buffer keeps every payload until the next cumulative ack
    /// (none comes within this test's 6 MiB). Small messages must not keep
    /// their 32 KiB pool buffers there with them: one buffer serves them
    /// all. A message that fills a fair share of its buffer still travels
    /// as that buffer, refcounted.
    #[test]
    fn small_messages_leave_their_pool_buffer_behind() {
        use crate::{spawn_name_service, ConnectivityProfile, GridEnv};
        use gridsim_net::{topology, Sim, SockAddr};
        use gridsim_tcp::SimHost;
        const SMALL: usize = 300;
        const LARGE: usize = 8 * 1024;

        let sim = Sim::new(3);
        let net = sim.net();
        let (a, b) = net.with(topology::lan_pair);
        let (ha, hb) = (SimHost::new(&net, a), SimHost::new(&net, b));
        let env = GridEnv::new(net.clone(), SockAddr::new(hb.ip(), 563));
        let env_b = env.clone();
        let receiver = sim.spawn("receiver", move || {
            spawn_name_service(&hb, 563).unwrap();
            let node = GridNode::join(&env_b, hb, "recv", ConnectivityProfile::open()).unwrap();
            let rp = node
                .create_receive_port("sink", StackSpec::plain())
                .unwrap();
            for i in 0..SMALL {
                let m = rp.receive().unwrap();
                assert!(m.as_slice() == vec![i as u8; 1 + i].as_slice());
            }
            for i in 0..4 {
                assert!(rp.receive().unwrap().as_slice() == vec![i; LARGE].as_slice());
            }
        });
        let sender = sim.spawn("sender", move || {
            gridsim_net::ctx::sleep(Duration::from_millis(100));
            let node = GridNode::join(&env, ha, "send", ConnectivityProfile::open()).unwrap();
            let mut sp = node.create_send_port();
            sp.connect("sink").unwrap();
            for i in 0..SMALL {
                sp.send(&vec![i as u8; 1 + i]).unwrap();
            }
            assert_eq!(sp.msg_pool.stats().misses, 1, "small messages share one");
            for i in 0..4 {
                sp.send(&vec![i; LARGE]).unwrap();
            }
            // The first takes the idle buffer; each is then held for replay.
            assert_eq!(sp.msg_pool.stats().misses, 4, "large ones keep theirs");
            let retained: usize = (1..=SMALL).sum::<usize>() + 4 * LARGE;
            assert_eq!(sp.resend_stats(), vec![(retained, retained)]);
            sp.close().unwrap();
        });
        sim.run();
        assert!(receiver.is_finished() && sender.is_finished());
    }
}
