//! The session layer (DESIGN.md §8): at most one established, supervised
//! data link per `(peer node, stack equivalence class)`, shared by every
//! channel between that pair.
//!
//! The paper separates ports/channels from the links that carry them
//! (§5, Fig. 6); this module implements that separation for the sender
//! side. A [`LinkTable`] caches established links by [`LinkKey`] with
//! single-flight establishment (concurrent `connect()`s to the same peer
//! run ONE Figure-4 walk and share the result). A [`SharedLink`] owns the
//! assembled driver stack and multiplexes the channels attached to it with
//! channel-tagged frames ([`crate::wire::Frame`]) — the one format a data
//! link speaks, from its first byte, however many channels ride it;
//! per-channel state — sequence numbers, the resend buffer, the
//! cumulative-ack watermark — lives in [`Channel`] and survives link
//! re-establishment.
//!
//! Concurrency model: the shared stack sits behind a [`SimMutex`], the
//! simulator's FIFO parking lock, so writers from many channels interleave
//! at message granularity and flush fairness is arrival order — no channel
//! can starve another. Channel bookkeeping uses short `parking_lot`
//! sections that are never held across a parking operation.

use bytes::Bytes;
use gridsim_net::{SimMutex, SimMutexGuard, Waker};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::drivers::{PathParams, RawLink, SenderStack, StackSpec, StripeTerminator};
use crate::establish::{EstablishMethod, LinkKey};
use crate::pool::BlockPool;
use crate::port::{AckCell, ResendOverflow};
use crate::tune::PathStats;
use crate::wire::Frame;

// ------------------------------------------------------------- channels

/// Sender-side state of one logical channel riding a [`SharedLink`].
/// Everything here survives link failure: after a re-establishment the
/// retained tail is replayed from `resend` through the fresh stack.
pub(crate) struct Channel {
    /// Globally unique channel id (the sender's grid id in the high bits).
    pub channel: u64,
    /// The receive port this channel is bound to.
    pub peer_port: String,
    /// Receiver-confirmed delivery watermark, advanced by CACK frames.
    pub acked: Arc<AckCell>,
    state: Mutex<ChanState>,
}

struct ChanState {
    /// Messages sent on this channel so far; doubles as the next implicit
    /// sequence number (never on the wire in fault-free runs).
    next_seq: u64,
    /// First sequence number NOT yet written to the current link
    /// incarnation. A recovery replay advances it past everything it
    /// replayed, so a sender that lost the write race simply skips.
    wire_seq: u64,
    /// Retained `(seq, payload)` pairs for post-reconnect replay.
    resend: VecDeque<(u64, Bytes)>,
    resend_bytes: usize,
    /// Resend-buffer byte budget ([`GridEnv::resend_budget`]).
    ///
    /// [`GridEnv::resend_budget`]: crate::node::GridEnv::resend_budget
    budget: usize,
    /// High-water mark of retained bytes, measured before eviction.
    peak: usize,
}

impl Channel {
    pub fn new(channel: u64, peer_port: &str, budget: usize) -> Channel {
        Channel {
            channel,
            peer_port: peer_port.to_string(),
            acked: Arc::new(AckCell::new()),
            state: Mutex::new(ChanState {
                next_seq: 0,
                wire_seq: 0,
                resend: VecDeque::new(),
                resend_bytes: 0,
                budget,
                peak: 0,
            }),
        }
    }

    /// Allocate the next sequence number and retain the payload for
    /// replay, evicting the oldest past the byte budget (the in-flight
    /// message itself is always kept). Everything the receiver has
    /// cumulatively acked is pruned first, so steady-state memory follows
    /// the ack cadence, not the transfer size.
    pub fn retain(&self, payload: &Bytes) -> u64 {
        let acked = self.acked.get();
        let mut st = self.state.lock();
        prune(&mut st, acked);
        let seq = st.next_seq;
        st.next_seq += 1;
        st.resend_bytes += payload.len();
        st.resend.push_back((seq, payload.clone()));
        st.peak = st.peak.max(st.resend_bytes);
        while st.resend_bytes > st.budget && st.resend.len() > 1 {
            if let Some((_, old)) = st.resend.pop_front() {
                st.resend_bytes -= old.len();
            }
        }
        seq
    }

    pub fn wire_seq(&self) -> u64 {
        self.state.lock().wire_seq
    }

    pub fn advance_wire(&self, past: u64) {
        let mut st = self.state.lock();
        st.wire_seq = st.wire_seq.max(past);
    }

    /// `(current_bytes, peak_bytes)` of the resend buffer.
    pub fn resend_stats(&self) -> (usize, usize) {
        let st = self.state.lock();
        (st.resend_bytes, st.peak)
    }

    /// Prepare a recovery replay given the receiver's delivered count `e`:
    /// validate the bounds, prune the confirmed prefix, advance `wire_seq`
    /// past everything about to be replayed, and hand back the payloads.
    pub fn prepare_replay(&self, e: u64) -> io::Result<Vec<Bytes>> {
        let mut st = self.state.lock();
        let oldest = st.next_seq - st.resend.len() as u64;
        if e < oldest {
            // The replay gap includes messages the resend buffer evicted
            // past its budget: unrecoverable without violating
            // exactly-once. Typed, so callers can size budgets (or flag a
            // lost receiver) programmatically.
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                ResendOverflow {
                    channel: self.channel,
                    acked: e,
                    oldest,
                },
            ));
        }
        if e > st.next_seq {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "cannot resume channel {}: receiver delivered {e}, \
                     but only {} were sent",
                    self.channel, st.next_seq
                ),
            ));
        }
        prune(&mut st, e);
        st.wire_seq = st.next_seq;
        Ok(st.resend.iter().map(|(_, p)| p.clone()).collect())
    }
}

/// Drop retained messages the receiver confirmed (seq < `e`).
fn prune(st: &mut ChanState, e: u64) {
    while st.resend.front().is_some_and(|(s, _)| *s < e) {
        if let Some((_, old)) = st.resend.pop_front() {
            st.resend_bytes -= old.len();
        }
    }
}

// ---------------------------------------------------------- shared links

/// The mutable wire side of a shared link: the assembled sender stack and
/// the raw links under it. Swapped wholesale by a recovery. Guarded by the
/// link's FIFO [`SimMutex`], which doubles as the flush-fairness mechanism:
/// each message is written and flushed under the gate, so concurrent
/// channels interleave at message granularity in arrival order.
pub(crate) struct LinkIo {
    pub writer: SenderStack,
    /// The stack's block pool (aggregation/striping staging buffers).
    pub pool: BlockPool,
    /// Raw links under the stack, cloned for health probes. A live
    /// reconfiguration may leave more links here than the current stack
    /// uses — only the first [`LinkIo::active`] carry data.
    pub links: Vec<RawLink>,
    /// How many of `links` the CURRENT stack stripes over. Health checks
    /// cover only these: a parked spare stripe dying must not trigger a
    /// recovery of a healthy narrower stack.
    pub active: usize,
    /// Segment-terminator handle into the current stack's striped layer
    /// (None when single-stream). [`write_reconfig`](Self::write_reconfig)
    /// uses it to end the stripe segment in-band so the receiver's pump
    /// tasks exit before both ends swap stacks.
    pub term: Option<StripeTerminator>,
}

impl LinkIo {
    pub fn healthy(&self) -> bool {
        self.links[..self.active].iter().all(RawLink::is_healthy)
    }

    /// Wait until the peer host has everything written so far
    /// ([`RawLink::drain`]) and check the links survived.
    pub fn settle(&self) -> io::Result<()> {
        for l in &self.links[..self.active] {
            l.drain()?;
        }
        if self.healthy() {
            Ok(())
        } else {
            Err(io::ErrorKind::ConnectionReset.into())
        }
    }

    /// Frame and flush one message payload down the shared stack.
    ///
    /// The header coalesces with the payload in the stack's aggregation
    /// buffer; the sink-call sequence below it is left untouched, because
    /// merging the header and body submissions would move a segment
    /// boundary whenever the flight is empty (Nagle emits sub-MSS segments
    /// then) and change wire traces.
    pub fn write_msg(&mut self, channel: u64, payload: &Bytes) -> io::Result<()> {
        let len = payload.len();
        Frame::Msg { channel, len }.write(&mut self.writer)?;
        // Refcounted handoff: group communication clones the handle, not
        // the payload, and block-aligned stacks slice it straight onto the
        // wire.
        self.writer.write_block(payload.clone())?;
        self.writer.flush()
    }

    /// Write one control frame and flush. An OPEN announces every channel
    /// of a batch in ONE frame; a CLOSE announces a clean per-channel close
    /// (the link itself stays up until its last channel detaches). Control
    /// frames never sit in a deferred batch: the trailing flush pushes
    /// them (and anything coalesced ahead of them) to the socket
    /// immediately, so channel setup is not delayed behind large data runs.
    pub fn write_control(&mut self, frame: &Frame) -> io::Result<()> {
        frame.write(&mut self.writer)?;
        self.writer.flush()
    }

    /// Announce a live path reconfiguration: flush the current stack to a
    /// block boundary and write the RECONFIG through it, then terminate the
    /// stripe segment (striped stacks only). The caller holds the write
    /// gate across the whole exchange (frame → ack → stack swap), so no
    /// message bytes can interleave with the epoch switch.
    ///
    /// The terminator matters for exactly-once delivery: a striped
    /// receiver drains each socket from its own eager pump task, and a
    /// pump parked in a socket read survives its stack being dropped — it
    /// would steal the first bytes the NEW stack sends. The in-band
    /// terminator (a zero-length block on every stream, queued after
    /// everything this stack ever wrote) makes each pump exit cleanly, and
    /// the receiver acks only after all of them are gone.
    pub fn write_reconfig(&mut self, epoch: u64, params: PathParams) -> io::Result<()> {
        self.write_control(&Frame::Reconfig { epoch, params })?;
        if let Some(t) = &self.term {
            t.terminate()?;
        }
        Ok(())
    }
}

struct ChannelMap {
    map: BTreeMap<u64, Arc<Channel>>,
    /// Set when the last channel detaches: the link is being torn down and
    /// must not accept new attaches (the claimant re-establishes instead).
    closing: bool,
}

struct RecoveryCtl {
    running: bool,
    /// Completed recovery rounds, so waiters can match an outcome to the
    /// round they actually waited on.
    round: u64,
    /// Outcome of the last completed round (kind + message; `io::Error`
    /// is not `Clone`).
    last_err: Option<(io::ErrorKind, String)>,
    waiters: Vec<Waker>,
}

/// What [`SharedLink::begin_recovery`] decided for the caller.
pub(crate) enum RecoveryRole {
    /// The caller must run the recovery and report via `finish_recovery`.
    Recoverer,
    /// Another task's recovery already advanced the incarnation; the
    /// caller's failed write was covered by its replay.
    Recovered,
    /// The recovery the caller waited on failed; the link is down.
    Failed(io::Error),
}

/// One established, supervised data link shared by every channel between
/// one `(peer node, stack spec)` pair.
pub(crate) struct SharedLink {
    pub key: LinkKey,
    /// The stack spec recovery re-establishes with.
    pub spec: StackSpec,
    io: SimMutex<LinkIo>,
    channels: Mutex<ChannelMap>,
    /// Channel whose receive port anchors establishment (its listener is
    /// dialed; its port accepts the streams). Re-anchored by recovery if
    /// the original anchor channel has detached.
    anchor: AtomicU64,
    /// Reconnect attempt counter; rides the resume preamble so the
    /// receiver can supersede stale partial assemblies.
    gen: AtomicU64,
    /// Bumped once per completed recovery. Writers snapshot it before a
    /// write; a failed write with an already-advanced incarnation needs no
    /// recovery of its own.
    incarnation: AtomicU64,
    method: Mutex<EstablishMethod>,
    recovery: Mutex<RecoveryCtl>,
    /// Live path state: the epoch of the last committed RECONFIG and the
    /// parameters the current stack was built from. The epoch is monotonic
    /// for the life of the link (recovery resets the *parameters* to the
    /// establishment spec but never rewinds the epoch, so a receiver can
    /// always reject stale frames).
    path: Mutex<(u64, PathParams)>,
    /// Telemetry ring: transport-level samples ([`PathStats`]) pushed by
    /// the session-layer sampler, read by the path controller.
    stats: Mutex<VecDeque<PathStats>>,
}

/// Capacity of the per-link [`PathStats`] ring.
const PATH_STATS_RING: usize = 64;

impl SharedLink {
    pub fn new(
        key: LinkKey,
        spec: StackSpec,
        method: EstablishMethod,
        io: LinkIo,
        anchor_channel: u64,
    ) -> SharedLink {
        let path = spec.path;
        SharedLink {
            key,
            spec,
            io: SimMutex::new(io),
            channels: Mutex::new(ChannelMap {
                map: BTreeMap::new(),
                closing: false,
            }),
            anchor: AtomicU64::new(anchor_channel),
            gen: AtomicU64::new(0),
            incarnation: AtomicU64::new(0),
            method: Mutex::new(method),
            recovery: Mutex::new(RecoveryCtl {
                running: false,
                round: 0,
                last_err: None,
                waiters: Vec::new(),
            }),
            path: Mutex::new((0, path)),
            stats: Mutex::new(VecDeque::with_capacity(PATH_STATS_RING)),
        }
    }

    // ----------------------------------------------- live path state

    /// The parameters the current stack was built from.
    pub fn path_params(&self) -> PathParams {
        self.path.lock().1
    }

    /// Epoch of the last committed RECONFIG (0 = never reconfigured).
    pub fn path_epoch(&self) -> u64 {
        self.path.lock().0
    }

    /// Reserve the next reconfiguration epoch (monotonic, never reused —
    /// an abandoned attempt burns its epoch so the receiver can always
    /// order frames).
    pub fn next_path_epoch(&self) -> u64 {
        let mut p = self.path.lock();
        p.0 += 1;
        p.0
    }

    /// Record a committed reconfiguration.
    pub fn set_path_params(&self, params: PathParams) {
        self.path.lock().1 = params;
    }

    /// Sample the transport counters of the active stripes into the
    /// telemetry ring and return the sample. Takes the write gate briefly
    /// (the raw-link set may be swapped by a concurrent recovery).
    pub fn sample_stats(&self, at_micros: u64) -> PathStats {
        let (agg, stripes) = {
            let io = self.io.lock();
            let mut agg = PathStats {
                at_micros,
                tx_room: u64::MAX,
                ..PathStats::default()
            };
            let mut srtt_sum = 0u64;
            let mut srtt_n = 0u64;
            for l in &io.links[..io.active] {
                if let Some(cs) = l.conn_stats() {
                    agg.bytes_sent += cs.bytes_sent;
                    agg.rtx_timeouts += cs.rtx_timeouts;
                    agg.fast_retransmits += cs.fast_retransmits;
                    if let Some(srtt) = cs.srtt {
                        srtt_sum += srtt.as_micros() as u64;
                        srtt_n += 1;
                    }
                }
                agg.tx_room = agg.tx_room.min(l.send_room() as u64);
            }
            agg.srtt_micros = srtt_sum.checked_div(srtt_n).unwrap_or(0);
            (agg, io.active as u16)
        };
        let mut sample = agg;
        sample.stripes = stripes;
        sample.params = self.path_params();
        let mut ring = self.stats.lock();
        if ring.len() == PATH_STATS_RING {
            ring.pop_front();
        }
        ring.push_back(sample);
        sample
    }

    /// Snapshot of the telemetry ring, oldest first.
    pub fn stats_ring(&self) -> Vec<PathStats> {
        self.stats.lock().iter().copied().collect()
    }

    /// Acquire the write gate. FIFO and sim-aware: contending channel
    /// writers and recovery line up in arrival order.
    pub fn io(&self) -> SimMutexGuard<'_, LinkIo> {
        self.io.lock()
    }

    /// Are tasks parked on the write gate? A sender in a tight
    /// send/release loop checks this before dropping its guard and yields
    /// the slice, so a queued OPEN or peer-channel message gets the gate
    /// at message granularity instead of starving behind the whole run.
    pub fn io_contended(&self) -> bool {
        self.io.has_waiters()
    }

    /// Attach a channel; fails when the link is already tearing down.
    pub fn attach(&self, chan: Arc<Channel>) -> bool {
        let mut cm = self.channels.lock();
        if cm.closing {
            return false;
        }
        cm.map.insert(chan.channel, chan);
        true
    }

    /// Detach a channel. The link flips to `closing` the moment it empties,
    /// so a concurrent attach can never resurrect a torn-down link.
    pub fn detach(&self, channel: u64) {
        let mut cm = self.channels.lock();
        cm.map.remove(&channel);
        if cm.map.is_empty() {
            cm.closing = true;
        }
    }

    pub fn attached(&self, channel: u64) -> bool {
        self.channels.lock().map.contains_key(&channel)
    }

    pub fn channel_count(&self) -> usize {
        self.channels.lock().map.len()
    }

    /// Snapshot of the attached channels in deterministic replay order:
    /// the anchor first, the rest by channel id.
    pub fn replay_order(&self) -> Vec<Arc<Channel>> {
        let cm = self.channels.lock();
        let anchor = self.anchor.load(Ordering::Relaxed);
        let mut v: Vec<_> = cm.map.values().cloned().collect();
        v.sort_by_key(|c| (c.channel != anchor, c.channel));
        v
    }

    pub fn set_anchor(&self, channel: u64) {
        self.anchor.store(channel, Ordering::Relaxed);
    }

    pub fn method(&self) -> EstablishMethod {
        *self.method.lock()
    }

    pub fn set_method(&self, m: EstablishMethod) {
        *self.method.lock() = m;
    }

    pub fn next_gen(&self) -> u64 {
        self.gen.fetch_add(1, Ordering::SeqCst) + 1
    }

    pub fn incarnation(&self) -> u64 {
        self.incarnation.load(Ordering::SeqCst)
    }

    pub fn bump_incarnation(&self) {
        self.incarnation.fetch_add(1, Ordering::SeqCst);
    }

    /// Single-flight recovery entry. `seen` is the incarnation the caller
    /// observed when its write failed: if it already advanced, the replay
    /// of the completed recovery covered the caller's retained message.
    /// Otherwise the first caller becomes the recoverer and everyone else
    /// parks until that round completes.
    pub fn begin_recovery(&self, seen: u64) -> RecoveryRole {
        loop {
            if self.incarnation() != seen {
                return RecoveryRole::Recovered;
            }
            let waited_round = {
                let mut rc = self.recovery.lock();
                if !rc.running {
                    rc.running = true;
                    return RecoveryRole::Recoverer;
                }
                rc.waiters.push(gridsim_net::ctx::waker());
                rc.round
            };
            gridsim_net::ctx::park("link recovery wait");
            let completed = {
                let rc = self.recovery.lock();
                if rc.round > waited_round {
                    Some(rc.last_err.clone())
                } else {
                    None // spurious wake; re-queue
                }
            };
            match completed {
                Some(_) if self.incarnation() != seen => return RecoveryRole::Recovered,
                Some(Some((kind, msg))) => return RecoveryRole::Failed(io::Error::new(kind, msg)),
                // Round completed without error but the incarnation is
                // unchanged — cannot happen (success always bumps it), but
                // looping is the safe answer.
                _ => {}
            }
        }
    }

    /// Report the outcome of a recovery round and wake the waiters.
    pub fn finish_recovery(&self, result: &io::Result<()>) {
        let mut rc = self.recovery.lock();
        rc.running = false;
        rc.round += 1;
        rc.last_err = result.as_ref().err().map(|e| (e.kind(), e.to_string()));
        for w in rc.waiters.drain(..) {
            w.wake();
        }
    }
}

// ------------------------------------------------------------ link table

enum Entry {
    /// A walk is in flight; parked claimants are woken on fulfill/abandon.
    Establishing(Vec<Waker>),
    Ready(Arc<SharedLink>),
}

/// What [`LinkTable::claim`] resolved to.
pub(crate) enum Claim {
    /// An established link exists — attach to it.
    Ready(Arc<SharedLink>),
    /// The caller owns establishment for this key: it must run the walk
    /// and then `fulfill` (or `abandon`) the entry.
    Mine,
}

/// The per-node cache of established data links, keyed by [`LinkKey`],
/// with single-flight establishment: the first claimant of a key runs the
/// Figure-4 walk; concurrent claimants park and attach to the result.
pub(crate) struct LinkTable {
    entries: Mutex<HashMap<LinkKey, Entry>>,
    /// Fresh Figure-4 walks run (establishment dedupe probe).
    walks: AtomicU64,
    /// Completed link-level recoveries (each re-established ONE link and
    /// replayed every attached channel).
    recoveries: AtomicU64,
    /// The deployment's gauge, which this table's walks move.
    gauge: Arc<WalkGauge>,
}

/// Walk concurrency gauge of one deployment (a [`crate::GridEnv`] and its
/// clones), across every node joined through it: single-flight is
/// per-`LinkKey`, so walks to *different* peers run concurrently, and a
/// storm proves it by watching the peak here. Purely observational — never
/// read by protocol code.
#[derive(Default)]
pub(crate) struct WalkGauge {
    in_flight: AtomicU64,
    peak: AtomicU64,
}

impl WalkGauge {
    /// Highest number of walks in flight at once so far.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

impl LinkTable {
    pub fn new(gauge: Arc<WalkGauge>) -> LinkTable {
        LinkTable {
            entries: Mutex::new(HashMap::new()),
            walks: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
            gauge,
        }
    }

    pub fn claim(&self, key: &LinkKey) -> Claim {
        loop {
            {
                let mut e = self.entries.lock();
                match e.get_mut(key) {
                    None => {
                        e.insert(key.clone(), Entry::Establishing(Vec::new()));
                        return Claim::Mine;
                    }
                    Some(Entry::Ready(l)) => return Claim::Ready(Arc::clone(l)),
                    Some(Entry::Establishing(ws)) => ws.push(gridsim_net::ctx::waker()),
                }
            }
            gridsim_net::ctx::park("link establishment wait");
        }
    }

    /// Publish the established link and wake parked claimants.
    pub fn fulfill(&self, key: &LinkKey, link: &Arc<SharedLink>) {
        let prev = self
            .entries
            .lock()
            .insert(key.clone(), Entry::Ready(Arc::clone(link)));
        wake_entry(prev);
    }

    /// Establishment failed: drop the claim so a parked claimant can retry
    /// its own walk (its connect may succeed where ours failed — e.g. the
    /// outage just healed).
    pub fn abandon(&self, key: &LinkKey) {
        let prev = self.entries.lock().remove(key);
        wake_entry(prev);
    }

    /// Identity-guarded removal: GC the entry only if it still maps to
    /// `link` (a replacement established meanwhile must survive).
    pub fn remove(&self, key: &LinkKey, link: &Arc<SharedLink>) {
        let mut e = self.entries.lock();
        if let Some(Entry::Ready(l)) = e.get(key) {
            if Arc::ptr_eq(l, link) {
                e.remove(key);
            }
        }
    }

    /// Established (ready) links right now.
    pub fn ready_count(&self) -> usize {
        self.entries
            .lock()
            .values()
            .filter(|e| matches!(e, Entry::Ready(_)))
            .count()
    }

    pub fn note_walk(&self) {
        self.walks.fetch_add(1, Ordering::Relaxed);
        let now = self.gauge.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        self.gauge.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// The walk counted by the matching [`note_walk`] finished (either
    /// way); keeps the concurrency gauge honest.
    pub fn walk_done(&self) {
        self.gauge.in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    pub fn walks(&self) -> u64 {
        self.walks.load(Ordering::Relaxed)
    }

    pub fn note_recovery(&self) {
        self.recoveries.fetch_add(1, Ordering::Relaxed);
    }

    pub fn recoveries(&self) -> u64 {
        self.recoveries.load(Ordering::Relaxed)
    }
}

fn wake_entry(prev: Option<Entry>) {
    if let Some(Entry::Establishing(ws)) = prev {
        for w in ws {
            w.wake();
        }
    }
}
