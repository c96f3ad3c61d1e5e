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
//! The receive pump and `add_link` drive the receiver's half of the
//! exactly-once machine ([`crate::resume`]), one record per channel.

use bytes::Bytes;
use gridsim_net::{ctx, SchedHandle, SimQueue, Timer};
use gridzip::varint;
use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::task::Poll;
use std::time::Duration;

use crate::drivers::{
    build_receiver, BlockReader, BlockWrite, PathParams, RawLink, ReceiverStack, StackSpec,
    StripeQuiesce,
};
use crate::establish::EstablishMethod;
use crate::node::{GridNode, NodeCtx};
use crate::pool::{BlockBuf, BlockPool};
use crate::relay::RelayClient;
use crate::resume::{Cadence, Cursor, RxChannel};
use crate::session::{Channel, SharedLink};
use crate::wire::{
    Frame, FrameWriter, Preamble, Put, ReconfigAck, ResumeReply, SvcMsg, MAX_MESSAGE,
};

/// A received message with typed readers; its buffer returns to its port's pool.
pub struct ReadMessage {
    /// The sender's channel id (unique per logical connection).
    pub channel: u64,
    data: BlockBuf,
    pos: usize,
}

impl ReadMessage {
    pub(crate) fn new(channel: u64, data: BlockBuf) -> ReadMessage {
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

    /// The body, kept: its buffer does not go back to the pool.
    pub fn into_vec(self) -> Vec<u8> {
        self.data.into_vec()
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
/// message recovery later needs, the resume fails with
/// [`ResendOverflow`](crate::ResendOverflow) rather than violating
/// exactly-once.
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

/// One logical connection of a [`SendPort`]: a channel attached to a
/// shared session-layer link.
pub(crate) struct SendConnection {
    pub link: Arc<SharedLink>,
    pub chan: Arc<Channel>,
}

/// Receive side of every channel a node's receive ports carry, one record
/// per channel, under one lock. Node-wide because a multiplexed link can
/// carry channels of several ports, and a resume can re-anchor a channel
/// on a different port's listener — the watermark must follow the channel.
#[derive(Default)]
pub(crate) struct RxShared {
    recs: HashMap<u64, RxRecord>,
    /// Resumes so far: a link's generation ([`Cursor`]) is the count when
    /// it assembled, a resumed link counting itself.
    epoch: u64,
    /// The generations of the live pumps.
    born: Vec<u64>,
}

impl RxShared {
    /// The machine of `channel`, created on first use.
    fn rec(&mut self, channel: u64) -> &mut RxChannel {
        &mut self.recs.entry(channel).or_default().m
    }

    /// The generation of the oldest live pump.
    fn oldest(&self) -> u64 {
        self.born.iter().copied().min().unwrap_or(u64::MAX)
    }

    /// A pump lets go of `channel` ([`RxChannel::release`]).
    fn release(&mut self, channel: u64, closed: bool, clean: bool) {
        let oldest = self.oldest();
        let Some(r) = self.recs.get_mut(&channel) else {
            return;
        };
        if r.m.release(closed, clean) {
            r.flush = None;
        }
        if r.m.spent(oldest) {
            self.recs.remove(&channel);
        }
    }
}

/// One channel's receiver machine and the idle flush it asked for.
#[derive(Default)]
struct RxRecord {
    m: RxChannel,
    flush: Option<Timer>,
}

/// Nominal checkout size of the message pool. Messages may grow past it
/// (a pooled buffer is an ordinary `Vec`); recycled buffers keep their
/// grown capacity, so steady-state sends of any size stop allocating.
const MSG_POOL_BLOCK: usize = 32 * 1024;

/// Spare [`ReadMessage`] buffers a receive port keeps, each message-sized.
const RX_POOL_SPARE: usize = 4;

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
        self.conns
            .iter()
            .map(|c| c.chan.tx.lock().stats())
            .collect()
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
    msg_pool: BlockPool,
    /// Streams collected per channel until a connection is complete.
    pending: Mutex<HashMap<u64, PendingChannel>>,
    connections: Mutex<u64>,
    /// CACK transport + cadence (`None`: no relay, or acks disabled).
    ack: Option<AckSender>,
    /// The node's receive records ([`RxShared`]).
    rx: Arc<Mutex<RxShared>>,
}

struct PendingChannel {
    links: Vec<Option<RawLink>>,
    /// Reconnect generation this assembly belongs to (0 = first connect).
    gen: u64,
    /// Drops a multi-stream assembly at [`PENDING_STREAMS_DEADLINE`].
    _deadline: Option<Timer>,
}

/// How a receive port reports `CACK{channel, delivered}` back to the
/// sending node: as service requests on the relay link — never on the data
/// path, so fault-free data-path wire traces stay byte-identical.
#[derive(Clone)]
pub(crate) struct AckSender {
    pub(crate) relay: RelayClient,
    pub(crate) sched: SchedHandle,
    /// Emit one CACK per this many delivered payload bytes.
    pub(crate) every: usize,
}

impl AckSender {
    /// Fire-and-forget from a task of its own (a service round trip waits,
    /// and the callers — the pump and the idle timer — go on). A lost or
    /// timed-out CACK is subsumed by the next: the watermark is cumulative
    /// and the handler takes the max.
    fn send(&self, channel: u64, delivered: u64) {
        let relay = self.relay.clone();
        self.sched.spawn_async("cack-send", async move {
            let cack = SvcMsg::Cack { channel, delivered };
            // Channel ids embed the sender's grid id in the high bits.
            let (to, timeout) = (channel >> 24, Some(ACK_SVC_TIMEOUT));
            let sent: io::Result<()> = relay.service_call(to, &cack, timeout).await;
            // Silence may be our own service link gone half-open (an idle
            // receiver writes nothing else that would tell it): the probe
            // draws the reset, and the pump redials and re-registers.
            if sent.is_err_and(|e| e.kind() == io::ErrorKind::TimedOut) {
                relay.nudge().await;
            }
        });
    }
}

/// One channel a pump is routing: its next expected sequence number and
/// the receive port it delivers to (`None` after that port closed — the
/// channel's bytes still drain to keep the link's other channels alive).
struct LiveChan {
    seq: Cursor,
    inner: Option<Arc<ReceivePortInner>>,
}

/// The receive pump: one async task per assembled link, a loop over the
/// link's decoded [`Frame`]s that routes messages to channels. It starts
/// with the channels the preamble named; OPEN/CLOSE manage the set.
///
/// Decoding runs over a [`BlockReader`], which states the whole-message
/// byte demand to the stack in one call: the simulated socket is serviced
/// at event time until it is met, so one wakeup drains everything
/// available instead of the pump waking per delivered segment.
///
/// Every read is awaited through [`BlockReader::read`], over every stack
/// (striped, compressed and GTLS ones included): the pump is inline,
/// polled on the stack of whoever delivered its bytes. So is its end over
/// a routed stream, which awaits the FIN the stream's last handle owes,
/// and a RECONFIG: the quiesce, the ack and the rebuilt receiver's
/// handshakes are awaited, so the pump never takes a worker.
struct Pump {
    port: Arc<ReceivePortInner>,
    cur: BlockReader<ReceiverStack>,
    quiesce: Option<StripeQuiesce>,
    /// The link's raw streams: health probes for the GC decision at exit
    /// (clones sharing the sockets, like the sender's), and stream 0
    /// carries the RECONFIG ack.
    probes: Vec<RawLink>,
    live: HashMap<u64, LiveChan>,
    /// The link's generation (see [`RxShared`]).
    born: u64,
    /// Epoch of the last committed RECONFIG this pump saw. Starts at 0 for
    /// every (re-)established pump: the link-level epoch is monotonic for
    /// the link's life, so any epoch > 0 is acceptable to a fresh pump and
    /// stale duplicates are rejected.
    last_epoch: u64,
    ctx: NodeCtx,
}

impl Pump {
    /// Route frames until the link ends (EOF, a read error), a frame is
    /// corrupt or this pump's state forbids it, or no live channel has a
    /// destination left; then finish.
    async fn run(mut self) {
        loop {
            let routed = match self.cur.read(Frame::read).await {
                Ok(Frame::Msg { channel, len }) => self.deliver(channel, len).await,
                Ok(Frame::Open(chans)) => {
                    self.open(chans);
                    true
                }
                Ok(Frame::Close { channel }) => {
                    if self.live.remove(&channel).is_some() {
                        self.port.rx.lock().release(channel, true, false);
                    }
                    true
                }
                Ok(Frame::Reconfig { epoch, params }) => self.reconfigure(epoch, params).await,
                Err(_) => false,
            };
            if !routed {
                break;
            }
        }
        // A routed stream's last handle sends our FIN as it drops, which
        // may park: one is kept past the pump's drop, to await it here.
        let routed: Vec<_> = (self.probes.iter())
            .filter_map(|l| match l {
                RawLink::Routed(s) => Some(s.clone()),
                RawLink::Tcp(_) => None,
            })
            .collect();
        self.finish();
        drop(self);
        for s in routed {
            s.fin_if_last().await;
        }
    }

    /// A MSG's payload: read it and queue it for its channel's port. False
    /// when the pump ends here: the payload is cut short, the channel was
    /// never opened (corrupt), or the port closed and no live channel has a
    /// destination left.
    async fn deliver(&mut self, channel: u64, len: usize) -> bool {
        let pool = &self.port.msg_pool;
        let read = self.cur.read(|cur| {
            let mut data = pool.checkout();
            cur.read_exact_into(len, &mut data).map(|()| data)
        });
        let Ok(data) = read.await else {
            return false;
        };
        let Some(lc) = self.live.get_mut(&channel) else {
            return false;
        };
        // A message an earlier link of this channel already delivered
        // is dropped; `inner: None` channels are drained and dropped.
        let (seq, port) = {
            let mut rx = self.port.rx.lock();
            let r = rx.rec(channel);
            match (r.arrive(&mut lc.seq), lc.inner.clone()) {
                (Some(seq), Some(port)) => (seq, port),
                (Some(seq), None) => {
                    r.claim(seq);
                    return true;
                }
                (None, _) => return true,
            }
        };
        let bytes = data.len();
        let mut msg = Some(ReadMessage::new(channel, data));
        // Another pump holding the channel may deliver it while this one
        // waits for room: asked on every poll.
        let rx = &self.port.rx;
        let pushed = ctx::wait(SimQueue::<ReadMessage>::PUSH_WAIT, || {
            if !rx.lock().rec(channel).due(seq) {
                return Poll::Ready(None);
            }
            port.msgq.poll_push(&mut msg).map(Some)
        });
        match pushed.await {
            None => true,
            Some(Ok(())) => {
                port.note_delivered(channel, seq, bytes);
                true
            }
            // That port closed. Keep draining its channel's bytes (the
            // link's other channels live on), but if no live channel has a
            // destination left, the pump has no reason to exist.
            Some(Err(_)) => {
                self.port.rx.lock().rec(channel).claim(seq);
                if let Some(lc) = self.live.get_mut(&channel) {
                    lc.inner = None;
                }
                self.live.values().any(|l| l.inner.is_some())
            }
        }
    }

    /// OPEN: channels join the link. Idempotent: a recovery replays OPENs
    /// for channels whose announcement the flap may have eaten, and a
    /// recovered batch is rewritten wholesale.
    fn open(&mut self, chans: Vec<(u64, String)>) {
        for (ch, name) in chans {
            if let std::collections::hash_map::Entry::Vacant(slot) = self.live.entry(ch) {
                self.port.rx.lock().rec(ch).open();
                slot.insert(LiveChan {
                    seq: Cursor::default(),
                    inner: (self.ctx.resolve)(&name),
                });
            }
        }
    }

    /// Live path reconfiguration (DESIGN.md §11): the sender flushed its
    /// stack to this frame boundary and is blocked on our ack. False when
    /// the pump must end instead: a stale/replayed epoch, more stripes than
    /// this link has connections (the sender's own check,
    /// `try_reconfigure`) or leftover old-format bytes after the frame are
    /// corrupt, and the sender's ack wait times out and recovery
    /// resynchronizes.
    async fn reconfigure(&mut self, epoch: u64, params: PathParams) -> bool {
        if epoch <= self.last_epoch
            || !params.valid_for(self.probes.len())
            || self.cur.buffered() != 0
        {
            return false;
        }
        // Quiesce the retired stack BEFORE acking: its per-stripe pump
        // tasks own socket reads until they consume the sender's segment
        // terminator (written right after the RECONFIG frame). Ack first
        // and a still-parked pump would steal the new stack's first bytes.
        if let Some(q) = self.quiesce.take() {
            q.wait().await;
        }
        // Ack with the delivered watermarks (the exactly-once handshake),
        // then rebuild the receiver stack from the new parameters over the
        // first `stripes` connections; the rest stay parked. GTLS
        // re-handshakes deterministically from the per-stream salt.
        let rx = &self.port.rx;
        let mut delivered: Vec<(u64, u64)> = (self.live.keys())
            .map(|&ch| (ch, rx.lock().rec(ch).mark()))
            .collect();
        delivered.sort_unstable_by_key(|&(ch, _)| ch);
        let ack = ReconfigAck { epoch, delivered };
        if reply_on_stream0(&self.probes, ack.encode()).await.is_err() {
            return false;
        }
        let spec = self.port.spec.clone().with_path(params);
        let sec = self.ctx.security(&spec);
        let links = self.probes[..params.stripes as usize].to_vec();
        let built = build_receiver(links, &spec, self.ctx.cpu.clone(), sec.as_ref());
        let Ok((stack, q)) = built.await else {
            return false;
        };
        self.quiesce = q;
        self.cur = BlockReader::new(stack, spec.block_size() as usize);
        self.last_epoch = epoch;
        true
    }

    /// The pump is over. Clean EOF — every link closed gracefully — means
    /// the sender flushed and closed its channels: they will never resume.
    fn finish(&mut self) {
        *self.port.connections.lock() -= 1;
        let clean = self.probes.iter().all(|l| l.closed_cleanly());
        let mut rx = self.port.rx.lock();
        // `add_link` files the pump's generation, and only its end takes it.
        let me = rx.born.iter().position(|&b| b == self.born);
        debug_assert!(me.is_some(), "pump {} not among the born", self.born);
        me.map(|me| rx.born.swap_remove(me));
        for &ch in self.live.keys() {
            rx.release(ch, false, clean);
        }
        // Records kept for this pump's sake (RxChannel::spent) go too.
        let oldest = rx.oldest();
        rx.recs.retain(|_, r| !r.m.spent(oldest));
    }
}

/// Answer the link's sender raw on stream 0, in the reverse direction and
/// outside the driver stack — how a resume preamble and a RECONFIG are
/// both answered, while neither end has a stack assembled to speak through.
async fn reply_on_stream0(links: &[RawLink], reply: FrameWriter) -> io::Result<()> {
    let (mut link, frame) = (links[0].clone(), reply.into_frame());
    ctx::wait_io(|| link.poll_write_block(&frame)).await
}

/// How long the first stream of a multi-stream link waits for the others
/// before [`ReceivePortInner::add_link`] drops the partial assembly and
/// closes its sockets, so a peer that opens stream 0 of N and stops cannot
/// hold them for the port's life. A sender dials its streams back to back:
/// a link completes in round trips, not seconds.
pub(crate) const PENDING_STREAMS_DEADLINE: Duration = Duration::from_secs(10);

impl ReceivePortInner {
    pub(crate) fn new(
        name: String,
        spec: StackSpec,
        ack: Option<AckSender>,
        rx: Arc<Mutex<RxShared>>,
    ) -> Arc<ReceivePortInner> {
        Arc::new(ReceivePortInner {
            name,
            spec,
            msgq: SimQueue::bounded(64),
            msg_pool: BlockPool::with_max_free(0, RX_POOL_SPARE),
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
    pub(crate) async fn add_link(
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
                gen,
                _deadline: (total > 1).then(|| {
                    let weak = Arc::downgrade(self);
                    let at = ctx.sched.now() + PENDING_STREAMS_DEADLINE;
                    ctx.sched.timer(at, move || {
                        if let Some(me) = weak.upgrade() {
                            me.pending.lock().remove(&channel);
                        }
                    })
                }),
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
            // Each slot fills once (a duplicate is refused above): the
            // assembly is complete when none is empty.
            let links: Option<Vec<RawLink>> = entry.links.iter().cloned().collect();
            if links.is_some() {
                pending.remove(&channel);
            }
            links
        };
        if let Some(links) = ready {
            // Resume handshake: tell the sender how many messages were
            // actually delivered — for the anchor channel AND every extra,
            // anchor first, preamble order — so it replays exactly the
            // gaps. Written before the stack assembles (raw, ahead of any
            // handshake) and only on resumed connections.
            let mut init: Vec<(u64, Cursor, Option<Arc<ReceivePortInner>>)> = Vec::new();
            let born = {
                let mut rx = self.rx.lock();
                rx.epoch += resume.is_some() as u64;
                rx.epoch
            };
            if let Some(meta) = &resume {
                let chans = std::iter::once(channel).chain(meta.extras.iter().map(|(ch, _)| *ch));
                let marks: Vec<Cursor> = chans
                    .map(|ch| self.rx.lock().rec(ch).resume(born))
                    .collect();
                let reply = ResumeReply(marks.iter().map(|&m| m.into()).collect());
                reply_on_stream0(&links, reply.frame()).await?;
                init.push((channel, marks[0], Some(Arc::clone(self))));
                for ((ch, name), &m) in meta.extras.iter().zip(&marks[1..]) {
                    init.push((*ch, m, (ctx.resolve)(name)));
                }
            } else {
                init.push((channel, Cursor::default(), Some(Arc::clone(self))));
            }
            // Routed links arrive as a single stream regardless of the
            // spec; the preamble's `total` is authoritative.
            let spec = self.spec.clone().with_streams(total.max(1));
            // Health probes for the GC decision at pump exit: clones
            // sharing the underlying sockets, like the sender's.
            let probes = links.clone();
            let sec = ctx.security(&spec);
            let (stack, quiesce) =
                build_receiver(links, &spec, ctx.cpu.clone(), sec.as_ref()).await?;
            *self.connections.lock() += 1;
            // The pump takes the preamble's channels on as it is spawned.
            let mut rx = self.rx.lock();
            rx.born.push(born);
            let live = (init.into_iter())
                .map(|(ch, seq, inner)| {
                    rx.rec(ch).open();
                    (ch, LiveChan { seq, inner })
                })
                .collect();
            drop(rx);
            let pump = Pump {
                port: Arc::clone(self),
                cur: BlockReader::new(stack, self.spec.block_size() as usize),
                quiesce,
                probes,
                live,
                born,
                last_epoch: 0,
                ctx: ctx.clone(),
            };
            let name = format!("rp-pump-{}-{}", self.name, channel);
            ctx.sched.spawn_async(name, pump.run());
        }
        Ok(())
    }

    /// Message `seq` reached the application. At an acking port the
    /// machine's cadence sends a CACK or keeps an idle flush armed, so a
    /// sender stalled mid-transfer still learns the watermark.
    fn note_delivered(self: &Arc<Self>, channel: u64, seq: Cursor, bytes: usize) {
        let mut rx = self.rx.lock();
        let r = rx.rec(channel);
        let Some(ack) = &self.ack else {
            return r.claim(seq);
        };
        let c = r.deliver(seq, bytes, ack.every);
        self.act(ack, rx, channel, c);
    }

    /// The idle flush, [`ACK_IDLE_FLUSH`] from now (scheduler context —
    /// never blocks). It re-arms only while the channel is progressing, so
    /// a finished simulation still quiesces, and sends only when genuinely
    /// idle, so fault-free transfers never emit timer-driven acks mid-flight.
    fn idle_flush(self: &Arc<Self>, ack: &AckSender, channel: u64) -> Timer {
        let (weak, sched, ack) = (Arc::downgrade(self), &ack.sched, ack.clone());
        sched.timer(sched.now() + ACK_IDLE_FLUSH, move || {
            let Some(me) = weak.upgrade() else { return };
            let mut rx = me.rx.lock();
            // The timer is the record's (`RxRecord::flush`) and dies with
            // it: the record is there.
            let c = rx.rec(channel).idle();
            me.act(&ack, rx, channel, c);
        })
    }

    /// Do what the cadence asks: arm the idle flush under the records'
    /// lock `rx`, or send a CACK once it is released.
    fn act(
        self: &Arc<Self>,
        ack: &AckSender,
        mut rx: MutexGuard<'_, RxShared>,
        channel: u64,
        c: Cadence,
    ) {
        match c {
            // Into the record the cadence came from, under the same lock.
            Cadence::Arm => {
                let flush = self.idle_flush(ack, channel);
                rx.recs.entry(channel).or_default().flush = Some(flush);
            }
            Cadence::Cack(delivered) => {
                drop(rx);
                ack.send(channel, delivered);
            }
            Cadence::Quiet => {}
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

    fn message(channel: u64, body: &[u8]) -> ReadMessage {
        let mut data = BlockPool::new(0).checkout();
        data.extend_from_slice(body);
        ReadMessage::new(channel, data)
    }

    /// A corrupt varint length near `u64::MAX` (e.g. from a damaged or
    /// hostile frame) must surface as an error from every typed reader, not
    /// overflow the cursor and panic.
    #[test]
    fn corrupt_length_fields_error_cleanly() {
        // varint encoding of u64::MAX followed by a few payload bytes.
        let mut data = Vec::new();
        gridzip::varint::put(&mut data, u64::MAX);
        data.extend_from_slice(b"xyz");
        let mut m = message(1, &data);
        assert_eq!(
            m.read_str().unwrap_err().kind(),
            io::ErrorKind::InvalidData,
            "length beyond MAX_MESSAGE is invalid, not a panic"
        );
        // Direct read_bytes with a huge count: checked add, clean error.
        let mut m = message(1, &data);
        assert_eq!(
            m.read_bytes(usize::MAX).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // A plausible-but-too-long length must not read past the buffer.
        let mut short = Vec::new();
        gridzip::varint::put(&mut short, 64);
        short.extend_from_slice(b"only-9ch");
        let mut m = message(1, &short);
        assert!(m.read_str().is_err());
    }

    /// Truncated input leaves the reader usable (cursor not advanced past
    /// the end) and keeps failing rather than panicking.
    #[test]
    fn truncated_message_reads_fail_not_panic() {
        let mut m = message(7, &[0x80]); // dangling varint byte
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
