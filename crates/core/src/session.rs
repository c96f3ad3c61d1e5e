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
//! can starve another. The same gate is a recovery's single flight: the
//! writer that finds the stack dead recovers it while holding the gate, and
//! every other writer waits in its FIFO. Channel bookkeeping uses short
//! `parking_lot` sections that are never held across a parking operation.

use bytes::Bytes;
use gridsim_net::{Metric, SchedHandle, SimMutex, SimMutexGuard, Waker};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::drivers::{PathParams, RawLink, SenderStack, StackSpec, StripeTerminator};
use crate::establish::{EstablishMethod, LinkKey};
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
    /// First sequence number NOT yet written to the current stack. A
    /// recovery replay advances it past everything it replayed, so a
    /// sender that waited on the gate through the recovery simply skips.
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
    /// `ConnectionReset` once a link under the current stack failed.
    pub fn check(&self) -> io::Result<()> {
        if self.links[..self.active].iter().all(RawLink::is_healthy) {
            Ok(())
        } else {
            Err(io::ErrorKind::ConnectionReset.into())
        }
    }

    /// Wait until the peer host has everything written so far
    /// ([`RawLink::drain`]) and check the links survived.
    pub fn settle(&self) -> io::Result<()> {
        for l in &self.links[..self.active] {
            l.drain()?;
        }
        self.check()
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

    /// Swap a recovery's fresh stack in and replay every channel's
    /// retained gap through it, all under the write gate the recovery
    /// holds, so the writers queued there find the fully replayed stack.
    pub fn swap_and_replay(
        &mut self,
        fresh: LinkIo,
        chans: &[Arc<Channel>],
        replays: &[Vec<Bytes>],
    ) -> io::Result<()> {
        *self = fresh;
        for (c, msgs) in chans.iter().zip(replays) {
            for p in msgs {
                self.write_msg(c.channel, p)?;
            }
        }
        Ok(())
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
    /// Failed recoveries so far, and the last one's error (kind and
    /// message: `io::Error` is not `Clone`). A writer that waited on the
    /// gate through a failed recovery returns that error instead of
    /// walking again.
    failed: Mutex<(u64, io::ErrorKind, String)>,
    method: Mutex<EstablishMethod>,
    /// Live path state: the epoch of the last committed RECONFIG and the
    /// parameters the current stack was built from. The epoch is monotonic
    /// for the life of the link (recovery resets the *parameters* to the
    /// establishment spec but never rewinds the epoch, so a receiver can
    /// always reject stale frames).
    path: Mutex<(u64, PathParams)>,
}

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
            failed: Mutex::new((0, io::ErrorKind::Other, String::new())),
            method: Mutex::new(method),
            path: Mutex::new((0, path)),
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

    /// Sample the transport counters of the active stripes for the path
    /// controller. Takes the write gate briefly (a recovery swaps the
    /// raw-link set under it).
    pub fn sample_stats(&self, at_micros: u64) -> PathStats {
        let io = self.io.lock();
        let mut agg = PathStats {
            at_micros,
            tx_room: u64::MAX,
            stripes: io.active as u16,
            params: self.path_params(),
            ..PathStats::default()
        };
        let (mut srtt_sum, mut srtt_n) = (0u64, 0u64);
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
        agg
    }

    /// Acquire the write gate. FIFO and sim-aware: contending channel
    /// writers line up in arrival order, behind a recovery if one runs.
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

    /// Attach channels, all or none: none when the link is already
    /// tearing down.
    pub fn attach(&self, chans: &[Arc<Channel>]) -> bool {
        let mut cm = self.channels.lock();
        if cm.closing {
            return false;
        }
        cm.map
            .extend(chans.iter().map(|c| (c.channel, Arc::clone(c))));
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

    /// Failed recoveries so far: what a writer notes before it queues on
    /// the gate.
    pub fn failures(&self) -> u64 {
        self.failed.lock().0
    }

    /// The last failed recovery's error, if one failed since the caller
    /// saw `failures`.
    pub fn failed_since(&self, failures: u64) -> Option<io::Error> {
        let f = self.failed.lock();
        (f.0 != failures).then(|| io::Error::new(f.1, f.2.clone()))
    }

    pub fn note_failure(&self, e: &io::Error) {
        let mut f = self.failed.lock();
        *f = (f.0 + 1, e.kind(), e.to_string());
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
    /// Where `node/<id>/links`, the ready entries right now, is counted.
    sched: SchedHandle,
    ready: Metric,
}

impl LinkTable {
    pub fn new(sched: SchedHandle, ready: Metric) -> LinkTable {
        LinkTable {
            entries: Mutex::new(HashMap::new()),
            sched,
            ready,
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
        self.sched.metric_add(self.ready, 1);
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
                self.sched.metric_add(self.ready, -1);
            }
        }
    }
}

fn wake_entry(prev: Option<Entry>) {
    if let Some(Entry::Establishing(ws)) = prev {
        for w in ws {
            w.wake();
        }
    }
}
