//! TCP control block: the per-connection protocol state machine.
//!
//! The TCB is deliberately independent of the simulator: inputs are segments
//! and timer firings (with the current time), outputs are segments pushed to
//! an internal queue plus timer (re)arm requests, both drained by the host
//! stack in `stack.rs`. This keeps the whole protocol unit-testable without
//! a network.
//!
//! Implemented behaviour (the parts of RFC 793 / 5681 / 6582 / 6298 that the
//! paper's results depend on):
//!
//! * three-way handshake **and simultaneous open** (TCP splicing, paper §3.2),
//! * sliding-window flow control with a configurable receive buffer — the
//!   "window size limit imposed by the operating system" (paper §4.2) that
//!   caps single-stream WAN bandwidth at `window / RTT`,
//! * NewReno congestion control: slow start, congestion avoidance, fast
//!   retransmit/recovery with partial-ACK retransmission. The congestion
//!   window is *spent in whole segments* (`⌊cwnd/MSS⌋ − ⌈flight/MSS⌉`, as
//!   Linux counts packets), the receive window is *filled to the byte*: a
//!   fractional `cwnd` never leaks a sub-MSS runt ahead of queued data
//!   (sender-side silly-window syndrome), and a window-bound path loses
//!   no goodput to rounding (a 64 KiB window is 44.9 MSS — holding every
//!   sub-MSS segment instead, RFC 1122 §4.2.3.4 style, costs the
//!   Fig. 10 path 2.8 %),
//! * retransmission timeout per RFC 6298 (SRTT/RTTVAR, Karn's rule,
//!   exponential backoff),
//! * Nagle's algorithm (switchable — `TCP_NODELAY`, paper §4.1),
//! * graceful close (FIN in both orders, simultaneous close, TIME-WAIT),
//!   and RST handling.
//!
//! Documented simplifications: 64-bit non-wrapping sequence numbers, no
//! delayed ACK, no SACK, no header options (MSS is configuration), windows
//! advertised as 32-bit values (a receive buffer larger than 64 KiB models
//! RFC 1323 window scaling).

use bytes::Bytes;
use gridsim_net::{SimTime, SockAddr, Waker};
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::time::Duration;

use crate::seg::{Flags, Segment};

/// Tunable per-connection parameters (2004-era defaults).
#[derive(Clone, Copy, Debug)]
pub struct TcpConfig {
    /// Maximum segment size in bytes.
    pub mss: u32,
    /// Send buffer capacity in bytes.
    pub send_buf: u32,
    /// Receive buffer capacity in bytes; this is the advertised window
    /// limit — "the limits imposed by the operating system" of paper §4.2.
    pub recv_buf: u32,
    /// Disable Nagle's algorithm.
    pub nodelay: bool,
    /// Initial congestion window in segments.
    pub init_cwnd_segs: u32,
    /// SYN retransmission attempts before `connect` fails.
    pub syn_retries: u32,
    /// RTO before the first RTT measurement.
    pub initial_rto: Duration,
    /// Lower bound on the RTO.
    pub min_rto: Duration,
    /// Upper bound on the RTO.
    pub max_rto: Duration,
    /// Consecutive retransmission timeouts *at* `max_rto` before the
    /// connection aborts with [`io::ErrorKind::TimedOut`] instead of
    /// retransmitting forever (0 disables the abort). Counted only once
    /// the backoff has saturated, so transient loss never trips it.
    pub max_rto_strikes: u32,
    /// TIME-WAIT linger (kept short; a full 2·MSL would only slow sims).
    pub time_wait: Duration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1460,
            send_buf: 64 * 1024,
            recv_buf: 64 * 1024,
            nodelay: false,
            init_cwnd_segs: 2,
            syn_retries: 5,
            initial_rto: Duration::from_secs(1),
            min_rto: Duration::from_millis(200),
            max_rto: Duration::from_secs(60),
            max_rto_strikes: 8,
            time_wait: Duration::from_millis(500),
        }
    }
}

/// Connection states (RFC 793 names).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum State {
    SynSent,
    SynRcvd,
    Established,
    FinWait1,
    FinWait2,
    CloseWait,
    Closing,
    LastAck,
    TimeWait,
    Closed,
}

impl State {
    /// May the application still send data?
    pub fn can_send(self) -> bool {
        matches!(self, State::Established | State::CloseWait)
    }

    /// Is the connection fully torn down?
    pub fn is_terminal(self) -> bool {
        matches!(self, State::Closed | State::TimeWait)
    }
}

/// Per-connection counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ConnStats {
    pub bytes_sent: u64,
    pub bytes_rcvd: u64,
    pub segs_sent: u64,
    pub segs_rcvd: u64,
    pub rtx_timeouts: u64,
    pub fast_retransmits: u64,
    pub dup_acks_rcvd: u64,
    /// Application blocks fully accepted via [`Tcb::try_write_bytes`].
    pub blocks_sent: u64,
    /// Host-side byte copies on this connection's data path: slice-path
    /// writes, segment carves that straddle buffer chunks, and reads
    /// copied out to a caller's buffer. Zero-copy handoffs don't count.
    pub bytes_copied: u64,
    /// Smoothed round-trip estimate, `None` until the first sample.
    pub srtt: Option<Duration>,
}

/// Byte queue stored as a deque of refcounted [`Bytes`] chunks.
///
/// Replaces the byte-wise `VecDeque<u8>` send/receive queues: enqueueing
/// an application block and carving a segment whose range lies inside one
/// chunk are both O(1) refcount operations instead of per-byte copies.
/// Only ranges straddling a chunk boundary are coalesced (counted in
/// [`ConnStats::bytes_copied`]).
///
/// A staged write refills the queue one sliver of its block per ACK; were
/// each sliver its own chunk, segment and chunk boundaries would drift
/// apart as soon as `cwnd < send_buf` and almost every carve would copy.
/// [`push_prefix`](ChunkDeque::push_prefix) therefore grows the back chunk
/// in place whenever a refill continues the block the back chunk came from.
#[derive(Default)]
struct ChunkDeque {
    chunks: VecDeque<Bytes>,
    len: usize,
    /// The block the back chunk was last pushed from. Only ever re-sliced
    /// after an address-range check against the live back chunk, so a
    /// stale value is harmless; dropped with the last chunk so an idle
    /// queue pins no application buffer.
    parent: Option<Bytes>,
}

impl ChunkDeque {
    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append by copy (the `&[u8]` write path). Returns bytes copied.
    fn push_slice(&mut self, data: &[u8]) {
        if !data.is_empty() {
            self.len += data.len();
            self.chunks.push_back(Bytes::copy_from_slice(data));
        }
    }

    /// Append zero-copy: the queue shares the block's storage.
    fn push_bytes(&mut self, data: Bytes) {
        if !data.is_empty() {
            self.len += data.len();
            self.chunks.push_back(data);
        }
    }

    /// Append the first `n` bytes of `block` zero-copy. When `block` starts
    /// exactly where the back chunk ends inside the retained parent (the
    /// caller retried with `parent.slice(k..)` after a partial accept), the
    /// back chunk is re-sliced from the parent to cover both instead of
    /// gaining a neighbour. The parent is held alive and immutable, and the
    /// re-sliced chunk spans exactly the addresses of the old back chunk
    /// followed by the new bytes: same content, whatever the views' origin.
    fn push_prefix(&mut self, block: &Bytes, n: usize) {
        if n == 0 {
            return;
        }
        self.len += n;
        if let (Some(back), Some(parent)) = (self.chunks.back_mut(), &self.parent) {
            let base = parent.as_ptr() as usize;
            let start = back.as_ptr() as usize;
            let end = start + back.len();
            if start >= base && block.as_ptr() as usize == end && end + n <= base + parent.len() {
                *back = parent.slice(start - base..end - base + n);
                return;
            }
        }
        self.parent = Some(block.clone());
        self.chunks.push_back(block.slice(..n));
    }

    /// The byte at logical index `idx` (zero-window probe).
    fn byte_at(&self, mut idx: usize) -> u8 {
        for c in &self.chunks {
            if idx < c.len() {
                return c[idx];
            }
            idx -= c.len();
        }
        panic!("byte_at past end of queue");
    }

    /// A view of `len` bytes starting at logical offset `start`. Zero-copy
    /// when the range lies within one chunk; otherwise coalesces into a
    /// fresh buffer and bumps `copied`.
    fn slice(&self, start: usize, len: usize, copied: &mut u64) -> Bytes {
        debug_assert!(start + len <= self.len);
        let mut off = start;
        let mut idx = 0;
        for (i, c) in self.chunks.iter().enumerate() {
            if off < c.len() {
                idx = i;
                break;
            }
            off -= c.len();
        }
        let first = &self.chunks[idx];
        if off + len <= first.len() {
            return first.slice(off..off + len);
        }
        let mut v = Vec::with_capacity(len);
        let mut remaining = len;
        for c in self.chunks.iter().skip(idx) {
            let take = remaining.min(c.len() - off);
            v.extend_from_slice(&c[off..off + take]);
            remaining -= take;
            off = 0;
            if remaining == 0 {
                break;
            }
        }
        *copied += len as u64;
        Bytes::from(v)
    }

    /// Drop `n` bytes from the front (data acknowledged by the peer).
    fn consume(&mut self, mut n: usize) {
        debug_assert!(n <= self.len);
        self.len -= n;
        while n > 0 {
            let front = self.chunks.front_mut().expect("consume within len");
            if front.len() <= n {
                n -= front.len();
                self.chunks.pop_front();
            } else {
                front.split_to(n);
                n = 0;
            }
        }
        if self.chunks.is_empty() {
            self.parent = None;
        }
    }

    /// Copy up to `buf.len()` bytes out of the front and consume them.
    fn copy_out(&mut self, buf: &mut [u8]) -> usize {
        let want = buf.len().min(self.len);
        let mut done = 0;
        while done < want {
            let front = self.chunks.front_mut().expect("copy_out within len");
            let take = (want - done).min(front.len());
            buf[done..done + take].copy_from_slice(&front[..take]);
            done += take;
            if take == front.len() {
                self.chunks.pop_front();
            } else {
                front.split_to(take);
            }
        }
        self.len -= want;
        want
    }

    /// Pop exactly `min(max, len)` bytes as zero-copy chunks into `out`.
    /// Consumes the same byte count a `copy_out` with a `max`-sized buffer
    /// would, so window bookkeeping is identical on either read path.
    fn pop_chunks(&mut self, max: usize, out: &mut Vec<Bytes>) -> usize {
        let want = max.min(self.len);
        let mut taken = 0;
        while taken < want {
            let front = self.chunks.front_mut().expect("pop within len");
            let remaining = want - taken;
            if front.len() <= remaining {
                taken += front.len();
                out.push(self.chunks.pop_front().expect("non-empty"));
            } else {
                out.push(front.split_to(remaining));
                taken += remaining;
            }
        }
        self.len -= want;
        want
    }
}

/// A timer slot with lazy host-side scheduling. `deadline` is the simulated
/// time the timer should fire; `covered` is the earliest still-outstanding
/// scheduled firing event. Restarting the timer (the per-ACK rtx pattern)
/// just moves `deadline` — the existing event fires at the old time, sees
/// the deadline is later, and reschedules itself once. This keeps one live
/// event per timer instead of one per restart.
#[derive(Debug, Default)]
pub struct TimerSlot {
    pub deadline: Option<SimTime>,
    /// Earliest outstanding scheduled firing event (host bookkeeping only;
    /// never affects simulated behavior).
    pub covered: Option<SimTime>,
}

impl TimerSlot {
    pub fn arm(&mut self, at: SimTime) {
        self.deadline = Some(at);
    }
    pub fn disarm(&mut self) {
        self.deadline = None;
    }
}

/// A block write parked in `TcpStream::write_block` with its un-queued
/// remainder staged on the TCB. While staged, every
/// [`Tcb::service_pending`] pass (run from `flush_conn` after each stack
/// mutation) refills freed send-buffer space *at event time*, under the
/// same lock that processed the ACK — the segments it generates leave in
/// the same flush, in the same order the woken-task path would produce.
/// The writer task itself is woken only once everything is queued or the
/// connection dies, instead of once per ACK.
pub(crate) struct PendingWrite {
    /// The part of the block not yet accepted. Empty once every byte is
    /// queued: the staged write then awaits pickup by its task.
    rest: Bytes,
    err: Option<io::ErrorKind>,
    waker: Waker,
}

/// A blocking chunk read parked in `TcpStream::read_chunks_min` with its
/// demand staged on the TCB: arriving segments are drained into `out` at
/// delivery time (same `try_read_chunks(max)` call sequence the woken task
/// would issue, so window-update ACKs keep identical emission points and
/// `wnd` values) and the reader wakes once `min` bytes are buffered, EOF
/// is reached, or the connection errors.
pub(crate) struct PendingRead {
    /// Wake once this many bytes have been collected.
    min: usize,
    /// Per-call drain cap; must match the cap the task-side path uses so
    /// consumption granularity (and thus ACK timing) is identical.
    max: usize,
    out: Vec<Bytes>,
    got: usize,
    eof: bool,
    /// Demand satisfied (or terminated); awaiting pickup by the task.
    ready: bool,
    err: Option<io::ErrorKind>,
    waker: Waker,
}

/// Result of an application write attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum WriteOutcome {
    /// `n` bytes accepted into the send buffer.
    Wrote(usize),
    /// Send buffer full; park and retry.
    Full,
}

/// Result of an application read attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum ReadOutcome {
    /// `n` bytes copied out.
    Read(usize),
    /// No data yet; park and retry.
    Empty,
    /// Peer sent FIN and the buffer is drained.
    Eof,
}

/// The TCP control block.
pub struct Tcb {
    pub cfg: TcpConfig,
    pub state: State,
    pub local: SockAddr,
    pub remote: SockAddr,
    /// Listening port that spawned this connection (server side), used to
    /// notify the listener's accept queue on establishment.
    pub from_listener: Option<u16>,

    // --- send side ---
    iss: u64,
    snd_una: u64,
    snd_nxt: u64,
    /// Highest sequence ever sent (retransmissions keep snd_nxt lower).
    snd_max: u64,
    /// Unacknowledged + unsent data; front byte has sequence `snd_una`.
    send_q: ChunkDeque,
    peer_wnd: u32,
    fin_queued: bool,
    fin_acked: bool,

    // --- receive side ---
    irs: u64,
    rcv_nxt: u64,
    recv_q: ChunkDeque,
    ooo: BTreeMap<u64, Bytes>,
    ooo_bytes: usize,
    fin_rcvd: bool,

    // --- congestion control (NewReno) ---
    cwnd: f64,
    ssthresh: f64,
    dupacks: u32,
    /// Recovery point: fast recovery ends when snd_una passes this.
    recover: u64,
    in_recovery: bool,

    // --- RTO state (RFC 6298) ---
    srtt: Option<Duration>,
    rttvar: Duration,
    rto: Duration,
    /// Outstanding RTT sample: (sequence that acks it, send time).
    rtt_sample: Option<(u64, SimTime)>,
    syn_rtx_left: u32,
    /// Consecutive RTO expiries with the backoff saturated at `max_rto`;
    /// reset whenever an ACK advances `snd_una`.
    rto_strikes: u32,

    // --- timers ---
    pub rtx_timer: TimerSlot,
    pub persist_timer: TimerSlot,
    persist_backoff: u32,
    pub tw_timer: TimerSlot,

    // --- plumbing to the stack ---
    out: Vec<Segment>,
    pub read_wakers: Vec<Waker>,
    pub write_wakers: Vec<Waker>,
    pub conn_wakers: Vec<Waker>,
    /// Waiters in `drain()`: woken only when the send queue fully empties
    /// (or the connection errors), not on every advancing ACK — a settle
    /// over a full window would otherwise take one host slice per ACK.
    pub drain_wakers: Vec<Waker>,
    /// Staged block write serviced at event time (see [`PendingWrite`]).
    pending_write: Option<PendingWrite>,
    /// Staged chunk-read demand serviced at event time ([`PendingRead`]).
    pending_read: Option<PendingRead>,
    became_established: bool,
    error: Option<io::ErrorKind>,
    /// Set when the owning socket handle has been dropped: the stack may
    /// reap the connection as soon as it reaches Closed, even on error.
    pub detached: bool,

    pub stats: ConnStats,
}

impl Tcb {
    fn new(cfg: TcpConfig, local: SockAddr, remote: SockAddr, iss: u64, state: State) -> Tcb {
        Tcb {
            cfg,
            state,
            local,
            remote,
            from_listener: None,
            iss,
            snd_una: iss,
            snd_nxt: iss,
            snd_max: iss,
            send_q: ChunkDeque::default(),
            peer_wnd: cfg.mss, // conservative until the peer advertises
            fin_queued: false,
            fin_acked: false,
            irs: 0,
            rcv_nxt: 0,
            recv_q: ChunkDeque::default(),
            ooo: BTreeMap::new(),
            ooo_bytes: 0,
            fin_rcvd: false,
            cwnd: (cfg.init_cwnd_segs * cfg.mss) as f64,
            ssthresh: f64::MAX,
            dupacks: 0,
            recover: iss,
            in_recovery: false,
            srtt: None,
            rttvar: Duration::ZERO,
            rto: cfg.initial_rto,
            rtt_sample: None,
            syn_rtx_left: cfg.syn_retries,
            rto_strikes: 0,
            rtx_timer: TimerSlot::default(),
            persist_timer: TimerSlot::default(),
            persist_backoff: 0,
            tw_timer: TimerSlot::default(),
            out: Vec::new(),
            read_wakers: Vec::new(),
            write_wakers: Vec::new(),
            conn_wakers: Vec::new(),
            drain_wakers: Vec::new(),
            pending_write: None,
            pending_read: None,
            became_established: false,
            error: None,
            detached: false,
            stats: ConnStats::default(),
        }
    }

    /// Active open: create the TCB and emit the initial SYN.
    pub fn client(
        cfg: TcpConfig,
        local: SockAddr,
        remote: SockAddr,
        iss: u64,
        now: SimTime,
    ) -> Tcb {
        let mut t = Tcb::new(cfg, local, remote, iss, State::SynSent);
        t.send_flags(Flags::SYN, t.iss, 0);
        t.snd_nxt = t.iss + 1;
        t.snd_max = t.snd_nxt;
        t.rtx_timer.arm(now + t.rto);
        t
    }

    /// Passive open: a listener received `syn`; create the TCB and emit
    /// SYN+ACK.
    pub fn server(
        cfg: TcpConfig,
        local: SockAddr,
        remote: SockAddr,
        iss: u64,
        syn: &Segment,
        now: SimTime,
    ) -> Tcb {
        let mut t = Tcb::new(cfg, local, remote, iss, State::SynRcvd);
        t.irs = syn.seq;
        t.rcv_nxt = syn.seq + 1;
        t.peer_wnd = syn.wnd;
        t.send_flags(Flags::SYN_ACK, t.iss, t.rcv_nxt);
        t.snd_nxt = t.iss + 1;
        t.snd_max = t.snd_nxt;
        t.rtx_timer.arm(now + t.rto);
        t
    }

    // ---------------- helpers ----------------

    /// Advertised receive window. Computed from the in-order buffer only
    /// (as real stacks do), so that duplicate ACKs generated while
    /// out-of-order data accumulates carry an *unchanged* window and are
    /// recognizable as duplicates (RFC 5681's definition).
    fn rwnd(&self) -> u32 {
        (self.cfg.recv_buf as usize)
            .saturating_sub(self.recv_q.len())
            .min(u32::MAX as usize) as u32
    }

    fn send_flags(&mut self, flags: Flags, seq: u64, ack: u64) {
        let wnd = self.rwnd();
        self.stats.segs_sent += 1;
        self.out.push(Segment {
            flags,
            seq,
            ack,
            wnd,
            data: Bytes::new(),
        });
    }

    fn send_ack(&mut self) {
        self.send_flags(Flags::ACK, self.snd_nxt, self.rcv_nxt);
    }

    /// Drain segments queued for transmission.
    pub fn take_out(&mut self) -> Vec<Segment> {
        std::mem::take(&mut self.out)
    }

    /// Drain queued segments into `out`, keeping this Tcb's buffer (and
    /// its capacity) for the next flush.
    pub fn drain_out_into(&mut self, out: &mut Vec<Segment>) {
        out.append(&mut self.out);
    }

    /// One-shot flag: did this call chain establish the connection?
    pub fn take_established(&mut self) -> bool {
        std::mem::take(&mut self.became_established)
    }

    /// Fatal error recorded on the connection, if any.
    pub fn error(&self) -> Option<io::ErrorKind> {
        self.error
    }

    pub fn is_established(&self) -> bool {
        self.state == State::Established
    }

    /// Current congestion window in bytes (diagnostics/tests).
    pub fn cwnd(&self) -> u64 {
        self.cwnd as u64
    }

    /// Space left in the send buffer.
    pub fn send_space(&self) -> usize {
        (self.cfg.send_buf as usize).saturating_sub(self.send_q.len())
    }

    fn wake(wakers: &mut Vec<Waker>) {
        for w in wakers.drain(..) {
            w.wake();
        }
    }

    fn wake_all(&mut self) {
        Self::wake(&mut self.read_wakers);
        Self::wake(&mut self.write_wakers);
        Self::wake(&mut self.conn_wakers);
        Self::wake(&mut self.drain_wakers);
        // Staged I/O holders observe the state change on pickup (their
        // collect call re-runs a service pass, which surfaces the error or
        // EOF); waking is spurious-safe.
        if let Some(pw) = &self.pending_write {
            pw.waker.wake();
        }
        if let Some(pr) = &self.pending_read {
            pr.waker.wake();
        }
    }

    fn fail(&mut self, kind: io::ErrorKind) {
        self.error = Some(kind);
        self.state = State::Closed;
        self.rtx_timer.disarm();
        self.persist_timer.disarm();
        self.wake_all();
    }

    /// Kill the connection as a crash would: record `ConnectionReset`, wake
    /// every parked task, and emit nothing (a crashed process sends no
    /// farewell).
    pub fn crash(&mut self) {
        self.fail(io::ErrorKind::ConnectionReset);
        self.out.clear();
    }

    /// Is data (or a pending EOF/error) immediately available to a reader?
    /// Lets supervision code poll instead of blocking in a read.
    pub fn readable(&self) -> bool {
        !self.recv_q.is_empty() || self.fin_rcvd || self.error.is_some()
    }

    fn enter_established(&mut self) {
        self.state = State::Established;
        self.became_established = true;
        self.syn_rtx_left = self.cfg.syn_retries;
        self.rtx_timer.disarm();
        self.wake_all();
    }

    /// End of the data currently in the send queue, in sequence space.
    fn data_end(&self) -> u64 {
        self.snd_una + self.send_q.len() as u64
    }

    /// Sequence space in flight.
    fn flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    // ---------------- application interface ----------------

    /// Try to queue application bytes for sending.
    pub fn try_write(&mut self, now: SimTime, buf: &[u8]) -> io::Result<WriteOutcome> {
        if let Some(e) = self.error {
            return Err(e.into());
        }
        match self.state {
            State::SynSent | State::SynRcvd => return Ok(WriteOutcome::Full), // wait for establish
            s if !s.can_send() => return Err(io::ErrorKind::BrokenPipe.into()),
            _ => {}
        }
        if self.fin_queued {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        let space = self.send_space();
        if space == 0 {
            return Ok(WriteOutcome::Full);
        }
        let n = space.min(buf.len());
        self.send_q.push_slice(&buf[..n]);
        self.stats.bytes_copied += n as u64;
        self.transmit(now);
        Ok(WriteOutcome::Wrote(n))
    }

    /// Like [`try_write`](Tcb::try_write), but takes ownership of a block:
    /// accepted bytes enter the send queue as a zero-copy slice of the
    /// caller's buffer. The caller retries with `block.slice(n..)` on a
    /// partial accept.
    pub fn try_write_bytes(&mut self, now: SimTime, block: &Bytes) -> io::Result<WriteOutcome> {
        if let Some(e) = self.error {
            return Err(e.into());
        }
        match self.state {
            State::SynSent | State::SynRcvd => return Ok(WriteOutcome::Full),
            s if !s.can_send() => return Err(io::ErrorKind::BrokenPipe.into()),
            _ => {}
        }
        if self.fin_queued {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        let space = self.send_space();
        if space == 0 {
            return Ok(WriteOutcome::Full);
        }
        let n = space.min(block.len());
        self.send_q.push_prefix(block, n);
        if n == block.len() {
            self.stats.blocks_sent += 1;
        }
        self.transmit(now);
        Ok(WriteOutcome::Wrote(n))
    }

    /// Try to read received bytes.
    pub fn try_read(&mut self, _now: SimTime, buf: &mut [u8]) -> io::Result<ReadOutcome> {
        if self.recv_q.is_empty() {
            if let Some(e) = self.error {
                // A reset with buffered data still delivers the data first;
                // here the buffer is empty, so surface the error. EOF after
                // normal FIN is not an error, but a reset or a dead-peer
                // timeout is.
                if matches!(e, io::ErrorKind::ConnectionReset | io::ErrorKind::TimedOut) {
                    return Err(e.into());
                }
                return Ok(ReadOutcome::Eof);
            }
            if self.fin_rcvd {
                return Ok(ReadOutcome::Eof);
            }
            return Ok(ReadOutcome::Empty);
        }
        let before_free = self.rwnd();
        let n = self.recv_q.copy_out(buf);
        self.stats.bytes_copied += n as u64;
        // Window update: if we were nearly closed and the application just
        // opened space, tell the sender (it has no other way to learn).
        let after_free = self.rwnd();
        if before_free < self.cfg.mss && after_free >= self.cfg.mss && !self.state.is_terminal() {
            self.send_ack();
        }
        Ok(ReadOutcome::Read(n))
    }

    /// Like [`try_read`](Tcb::try_read), but hands received data out as
    /// zero-copy chunks (slices of the segment buffers) instead of copying
    /// into a caller buffer. Consumes exactly the bytes a `try_read` with a
    /// `max`-sized buffer would, so window-update ACKs are emitted at the
    /// same points on either path.
    pub fn try_read_chunks(
        &mut self,
        _now: SimTime,
        max: usize,
        out: &mut Vec<Bytes>,
    ) -> io::Result<ReadOutcome> {
        if self.recv_q.is_empty() {
            if let Some(e) = self.error {
                if matches!(e, io::ErrorKind::ConnectionReset | io::ErrorKind::TimedOut) {
                    return Err(e.into());
                }
                return Ok(ReadOutcome::Eof);
            }
            if self.fin_rcvd {
                return Ok(ReadOutcome::Eof);
            }
            return Ok(ReadOutcome::Empty);
        }
        let before_free = self.rwnd();
        let n = self.recv_q.pop_chunks(max, out);
        let after_free = self.rwnd();
        if before_free < self.cfg.mss && after_free >= self.cfg.mss && !self.state.is_terminal() {
            self.send_ack();
        }
        Ok(ReadOutcome::Read(n))
    }

    // ---------------- staged (event-time serviced) I/O ----------------
    //
    // A task that would park per-ACK (writer) or per-segment (reader)
    // instead stages its remaining work on the TCB and parks once. Every
    // `flush_conn` runs [`Tcb::service_pending`] *before* draining `out`,
    // so the try_write/try_read calls the woken task would have made happen
    // at the same simulated instant, under the same lock, producing the
    // same segments in the same order — the wire is byte-identical while
    // task wakes collapse from per-segment to per-completion.

    /// Park a block write: hand the un-queued, non-empty remainder to the
    /// TCB. Returns `false` when another task's staged write already
    /// occupies the slot (the caller falls back to waker-parking).
    pub fn stage_write(&mut self, rest: Bytes, waker: Waker) -> bool {
        if self.pending_write.is_some() {
            return false;
        }
        self.pending_write = Some(PendingWrite {
            rest,
            err: None,
            waker,
        });
        true
    }

    /// Park a chunk read: stage a demand for `min` bytes, drained in
    /// `max`-capped calls onto the end of `out`, which the TCB holds until
    /// [`collect_staged_read`](Self::collect_staged_read) hands it back (a
    /// reader that reuses its chunk list then allocates nothing per read).
    /// Returns `false`, `out` untouched, when another task's staged read
    /// already occupies the slot.
    pub fn stage_read(
        &mut self,
        min: usize,
        max: usize,
        out: &mut Vec<Bytes>,
        waker: Waker,
    ) -> bool {
        if self.pending_read.is_some() {
            return false;
        }
        self.pending_read = Some(PendingRead {
            min: min.max(1),
            max: max.max(1),
            out: std::mem::take(out),
            got: 0,
            eof: false,
            ready: false,
            err: None,
            waker,
        });
        true
    }

    /// Service staged I/O at event time. Write side first, matching the
    /// legacy wake order (`process_ack` wakes writers before `process_data`
    /// wakes readers), so segments generated by a refill precede any
    /// window-update ACK from the drain within one flush.
    pub fn service_pending(&mut self, now: SimTime) {
        if self.pending_write.is_some() {
            self.service_pending_write(now);
        }
        if self.pending_read.is_some() {
            self.service_pending_read(now);
        }
    }

    fn service_pending_write(&mut self, now: SimTime) {
        let Some(mut pw) = self.pending_write.take() else {
            return;
        };
        if !pw.rest.is_empty() && pw.err.is_none() {
            while !pw.rest.is_empty() {
                match self.try_write_bytes(now, &pw.rest) {
                    Ok(WriteOutcome::Wrote(n)) => pw.rest = pw.rest.slice(n..),
                    Ok(WriteOutcome::Full) => break,
                    Err(e) => {
                        pw.err = Some(e.kind());
                        break;
                    }
                }
            }
            if pw.rest.is_empty() || pw.err.is_some() {
                pw.waker.wake();
            }
        }
        self.pending_write = Some(pw);
    }

    fn service_pending_read(&mut self, now: SimTime) {
        let Some(mut pr) = self.pending_read.take() else {
            return;
        };
        if !pr.ready {
            while pr.got < pr.min {
                // Per-call drain cap `max(remaining, max)`: mirrors the
                // BufReader-style consumer this replaces — reads for at
                // least `max` bytes pass through at full size (shrinking
                // as data arrives), smaller tails still drain up to `max`
                // into the caller's buffer. Keeping the legacy per-call
                // consumption sizes keeps window-update ACK points and
                // advertised-window values byte-identical on the wire.
                let cap = (pr.min - pr.got).max(pr.max);
                match self.try_read_chunks(now, cap, &mut pr.out) {
                    Ok(ReadOutcome::Read(n)) => pr.got += n,
                    Ok(ReadOutcome::Empty) => break,
                    Ok(ReadOutcome::Eof) => {
                        pr.eof = true;
                        break;
                    }
                    Err(e) => {
                        pr.err = Some(e.kind());
                        break;
                    }
                }
            }
            if pr.got >= pr.min || pr.eof || pr.err.is_some() {
                pr.ready = true;
                pr.waker.wake();
            }
        }
        self.pending_read = Some(pr);
    }

    /// Task-side pickup of a staged write after a wake. Runs a service pass
    /// first (so wakes racing ahead of the next flush still progress), then
    /// reports `None` = still waiting (re-park) or `Some(result)` with the
    /// write unstaged.
    pub fn collect_staged_write(&mut self, now: SimTime) -> Option<io::Result<()>> {
        self.service_pending_write(now);
        let finished = self
            .pending_write
            .as_ref()
            .is_some_and(|pw| pw.rest.is_empty() || pw.err.is_some());
        if !finished {
            return None;
        }
        let pw = self.pending_write.take().expect("checked above");
        Some(match pw.err {
            Some(e) => Err(e.into()),
            None => Ok(()),
        })
    }

    /// Task-side pickup of a staged read after a wake. `None` = re-park;
    /// otherwise the chunk list staged with the read, whatever arrived
    /// appended to it, and the count of bytes appended (0 = EOF). Errors
    /// follow `try_read_chunks` semantics: surfaced only with no data in
    /// hand (buffered bytes are delivered first; the error resurfaces on
    /// the next call).
    pub fn collect_staged_read(&mut self, now: SimTime) -> Option<(Vec<Bytes>, io::Result<usize>)> {
        self.service_pending_read(now);
        let finished = self.pending_read.as_ref().is_some_and(|pr| pr.ready);
        if !finished {
            return None;
        }
        let pr = self.pending_read.take().expect("checked above");
        let read = match pr.err {
            Some(e) if pr.got == 0 => Err(e.into()),
            _ => Ok(pr.got),
        };
        Some((pr.out, read))
    }

    /// Graceful close: send FIN once queued data drains.
    pub fn start_close(&mut self, now: SimTime) {
        match self.state {
            State::SynSent => {
                self.state = State::Closed;
                self.rtx_timer.disarm();
                self.wake_all();
            }
            State::SynRcvd | State::Established if !self.fin_queued => {
                self.fin_queued = true;
                self.state = State::FinWait1;
                self.transmit(now);
            }
            State::CloseWait if !self.fin_queued => {
                self.fin_queued = true;
                self.state = State::LastAck;
                self.transmit(now);
            }
            _ => {}
        }
    }

    /// Hard abort: emit RST, drop everything.
    pub fn abort(&mut self) {
        if !matches!(self.state, State::Closed | State::TimeWait) {
            let (snd_nxt, rcv_nxt) = (self.snd_nxt, self.rcv_nxt);
            self.send_flags(Flags::RST, snd_nxt, rcv_nxt);
        }
        self.fail(io::ErrorKind::ConnectionAborted);
    }

    // ---------------- transmission ----------------

    /// Pump as many segments as windows allow.
    pub fn transmit(&mut self, now: SimTime) {
        if !matches!(
            self.state,
            State::Established
                | State::CloseWait
                | State::FinWait1
                | State::Closing
                | State::LastAck
        ) {
            return;
        }
        let mss = self.cfg.mss as u64;
        loop {
            // The congestion window is spent in whole segments (as Linux
            // counts it in packets): a fractional cwnd never releases a
            // sub-MSS remainder that would go out as a runt while full
            // segments wait behind it. The receive window is byte-exact.
            let flight = self.flight();
            let cwnd_room = (self.cwnd as u64 / mss).saturating_sub(flight.div_ceil(mss)) * mss;
            let usable = cwnd_room.min((self.peer_wnd as u64).saturating_sub(flight));
            let unsent = self.data_end().saturating_sub(self.snd_nxt);
            let take = usable.min(unsent).min(mss);
            if take == 0 {
                // FIN consumes no window.
                if self.fin_queued && !self.fin_acked && self.snd_nxt == self.data_end() {
                    let (seq, ack) = (self.snd_nxt, self.rcv_nxt);
                    self.send_flags(Flags::FIN_ACK, seq, ack);
                    self.snd_nxt += 1;
                    self.snd_max = self.snd_max.max(self.snd_nxt);
                    if self.rtx_timer.deadline.is_none() {
                        self.rtx_timer.arm(now + self.rto);
                    }
                }
                // Peer window exhausted with data pending: arm persist timer.
                if unsent > 0 && self.peer_wnd == 0 && self.persist_timer.deadline.is_none() {
                    let d = self.rto.max(Duration::from_millis(500));
                    self.persist_timer
                        .arm(now + d * (1 << self.persist_backoff.min(6)));
                }
                break;
            }
            // Nagle: hold sub-MSS segments while data is in flight.
            if take < mss && flight > 0 && !self.cfg.nodelay && take == unsent {
                break;
            }
            self.emit_data(now, take as usize, false);
        }
        self.debug_check_sender();
    }

    /// Sender invariants, checked after every transmit pass and ACK.
    fn debug_check_sender(&self) {
        debug_assert!(self.snd_una <= self.snd_nxt && self.snd_nxt <= self.snd_max);
        debug_assert!(self.cwnd >= self.cfg.mss as f64);
        debug_assert!(self.ssthresh >= (2 * self.cfg.mss) as f64);
        debug_assert!(self.send_q.len() <= self.cfg.send_buf as usize);
    }

    /// Emit one data segment starting at `snd_nxt` (or `snd_una` when
    /// retransmitting).
    fn emit_data(&mut self, now: SimTime, len: usize, retransmission: bool) {
        let start = (self.snd_nxt - self.snd_una) as usize;
        let data = self.send_q.slice(start, len, &mut self.stats.bytes_copied);
        let seq = self.snd_nxt;
        let mut flags = Flags::ACK;
        self.snd_nxt += len as u64;
        // Piggyback FIN on the last data segment.
        if self.fin_queued && !self.fin_acked && self.snd_nxt == self.data_end() {
            flags.fin = true;
            self.snd_nxt += 1;
        }
        let fresh = self.snd_nxt > self.snd_max;
        self.snd_max = self.snd_max.max(self.snd_nxt);
        let wnd = self.rwnd();
        self.stats.segs_sent += 1;
        self.stats.bytes_sent += len as u64;
        self.out.push(Segment {
            flags,
            seq,
            ack: self.rcv_nxt,
            wnd,
            data,
        });
        // RTT sampling: only fresh (never retransmitted) segments (Karn).
        if fresh && !retransmission && self.rtt_sample.is_none() {
            self.rtt_sample = Some((self.snd_nxt, now));
        }
        if self.rtx_timer.deadline.is_none() {
            self.rtx_timer.arm(now + self.rto);
        }
    }

    /// Retransmit one MSS from `snd_una` (fast retransmit / partial ACK).
    fn retransmit_head(&mut self, now: SimTime) {
        let saved_nxt = self.snd_nxt;
        self.snd_nxt = self.snd_una;
        let len = (self.send_q.len() as u64).min(self.cfg.mss as u64) as usize;
        if len > 0 {
            self.emit_data(now, len, true);
        } else if self.fin_queued && !self.fin_acked {
            let (seq, ack) = (self.snd_nxt, self.rcv_nxt);
            self.send_flags(Flags::FIN_ACK, seq, ack);
            self.snd_nxt += 1;
        }
        self.snd_nxt = saved_nxt.max(self.snd_nxt);
        self.rtt_sample = None; // Karn: the measurement is now ambiguous
    }

    // ---------------- timer events ----------------

    /// Retransmission timeout fired.
    pub fn on_rto(&mut self, now: SimTime) {
        self.rtx_timer.disarm();
        match self.state {
            State::SynSent | State::SynRcvd => {
                if self.syn_rtx_left == 0 {
                    self.fail(io::ErrorKind::TimedOut);
                    return;
                }
                self.syn_rtx_left -= 1;
                self.rto = (self.rto * 2).min(self.cfg.max_rto);
                let (iss, rcv_nxt) = (self.iss, self.rcv_nxt);
                if self.state == State::SynSent {
                    self.send_flags(Flags::SYN, iss, 0);
                } else {
                    self.send_flags(Flags::SYN_ACK, iss, rcv_nxt);
                }
                self.rtx_timer.arm(now + self.rto);
            }
            State::Established
            | State::CloseWait
            | State::FinWait1
            | State::Closing
            | State::LastAck => {
                if self.flight() == 0 {
                    return; // spurious
                }
                self.stats.rtx_timeouts += 1;
                // Dead-peer detection: once the backoff has saturated at
                // max_rto, each further expiry is a strike; too many in a
                // row and the connection fails detectably instead of
                // retransmitting forever.
                if self.rto >= self.cfg.max_rto {
                    self.rto_strikes += 1;
                    if self.cfg.max_rto_strikes > 0 && self.rto_strikes >= self.cfg.max_rto_strikes
                    {
                        self.fail(io::ErrorKind::TimedOut);
                        return;
                    }
                }
                // Reno on timeout: collapse to one segment, halve ssthresh.
                let flight = self.flight() as f64;
                self.ssthresh = (flight / 2.0).max((2 * self.cfg.mss) as f64);
                self.cwnd = self.cfg.mss as f64;
                self.dupacks = 0;
                self.in_recovery = false;
                self.rto = (self.rto * 2).min(self.cfg.max_rto);
                self.rtt_sample = None;
                // Go-back-N: rewind and retransmit from the first hole.
                self.snd_nxt = self.snd_una;
                self.transmit(now);
                if self.rtx_timer.deadline.is_none() && self.flight() > 0 {
                    self.rtx_timer.arm(now + self.rto);
                }
            }
            _ => {}
        }
    }

    /// Persist (zero-window probe) timer fired.
    pub fn on_persist(&mut self, now: SimTime) {
        self.persist_timer.disarm();
        if self.peer_wnd > 0 || self.data_end() <= self.snd_nxt {
            self.persist_backoff = 0;
            return;
        }
        // Probe with one byte beyond the advertised window. The probe
        // consumes sequence space (snd_nxt advances) so the receiver's ACK
        // of it is in-window and re-synchronizes the peer window; the
        // retransmission timer covers a lost probe.
        let start = (self.snd_nxt - self.snd_una) as usize;
        if start < self.send_q.len() {
            let byte = self.send_q.byte_at(start);
            let seq = self.snd_nxt;
            let wnd = self.rwnd();
            self.stats.segs_sent += 1;
            self.stats.bytes_sent += 1;
            self.out.push(Segment {
                flags: Flags::ACK,
                seq,
                ack: self.rcv_nxt,
                wnd,
                data: Bytes::copy_from_slice(&[byte]),
            });
            self.snd_nxt += 1;
            self.snd_max = self.snd_max.max(self.snd_nxt);
            if self.rtx_timer.deadline.is_none() {
                self.rtx_timer.arm(now + self.rto);
            }
        }
        self.persist_backoff = (self.persist_backoff + 1).min(6);
        let d = self.rto.max(Duration::from_millis(500));
        self.persist_timer
            .arm(now + d * (1 << self.persist_backoff));
    }

    /// TIME-WAIT expiry.
    pub fn on_time_wait_expire(&mut self) {
        if self.state == State::TimeWait {
            self.state = State::Closed;
            self.wake_all();
        }
    }

    // ---------------- segment processing ----------------

    /// Process an incoming segment.
    pub fn on_segment(&mut self, now: SimTime, seg: Segment) {
        self.stats.segs_rcvd += 1;
        if seg.flags.rst {
            self.on_rst();
            return;
        }
        match self.state {
            State::SynSent => self.on_segment_syn_sent(now, seg),
            State::SynRcvd => self.on_segment_syn_rcvd(now, seg),
            State::Closed => {
                // Stack-level code answers with RST for closed connections.
            }
            _ => self.on_segment_synchronized(now, seg),
        }
    }

    fn on_rst(&mut self) {
        match self.state {
            State::SynSent => self.fail(io::ErrorKind::ConnectionRefused),
            State::Closed | State::TimeWait => {}
            _ => self.fail(io::ErrorKind::ConnectionReset),
        }
    }

    fn on_segment_syn_sent(&mut self, now: SimTime, seg: Segment) {
        if seg.flags.syn && seg.flags.ack {
            // Normal handshake reply.
            if seg.ack != self.iss + 1 {
                let (seq, _) = (seg.ack, ());
                self.send_flags(Flags::RST, seq, 0);
                return;
            }
            self.irs = seg.seq;
            self.rcv_nxt = seg.seq + 1;
            self.snd_una = self.iss + 1;
            self.peer_wnd = seg.wnd;
            self.enter_established();
            self.send_ack();
            self.transmit(now);
        } else if seg.flags.syn {
            // Simultaneous open (TCP splicing, paper Fig. 1 right): both
            // sides sent SYN; acknowledge with SYN+ACK and move to SYN-RCVD.
            self.irs = seg.seq;
            self.rcv_nxt = seg.seq + 1;
            self.peer_wnd = seg.wnd;
            self.state = State::SynRcvd;
            let (iss, rcv_nxt) = (self.iss, self.rcv_nxt);
            self.send_flags(Flags::SYN_ACK, iss, rcv_nxt);
            self.rtx_timer.arm(now + self.rto);
        }
    }

    fn on_segment_syn_rcvd(&mut self, now: SimTime, seg: Segment) {
        if seg.flags.syn && !seg.flags.ack && seg.seq == self.irs {
            // Duplicate SYN (peer missed our SYN+ACK): resend it.
            let (iss, rcv_nxt) = (self.iss, self.rcv_nxt);
            self.send_flags(Flags::SYN_ACK, iss, rcv_nxt);
            return;
        }
        if seg.flags.ack && seg.ack == self.iss + 1 {
            self.snd_una = self.iss + 1;
            self.peer_wnd = seg.wnd;
            self.enter_established();
            if seg.flags.syn {
                // SYN+ACK in simultaneous open: acknowledge it.
                self.send_ack();
            }
            // The ACK may carry data (or a FIN): reprocess in order.
            if !seg.data.is_empty() || seg.flags.fin {
                self.on_segment_synchronized(now, seg);
            } else {
                self.transmit(now);
            }
        }
    }

    fn on_segment_synchronized(&mut self, now: SimTime, seg: Segment) {
        // ---- ACK processing ----
        if seg.flags.ack {
            self.process_ack(now, &seg);
        }
        // ---- payload ----
        let had = seg.seq_len() > 0;
        if !seg.data.is_empty() {
            self.process_data(seg.seq, seg.data.clone());
        }
        // ---- FIN ----
        if seg.flags.fin {
            let fin_seq = seg.seq + seg.data.len() as u64;
            if fin_seq == self.rcv_nxt && !self.fin_rcvd {
                self.fin_rcvd = true;
                self.rcv_nxt += 1;
                match self.state {
                    State::Established => self.state = State::CloseWait,
                    State::FinWait1 => {
                        // Our FIN not yet acked: simultaneous close.
                        self.state = State::Closing;
                    }
                    State::FinWait2 => {
                        self.state = State::TimeWait;
                        self.tw_timer.arm(now + self.cfg.time_wait);
                    }
                    _ => {}
                }
                Self::wake(&mut self.read_wakers);
            }
        }
        if had {
            self.send_ack();
        }
    }

    fn process_ack(&mut self, now: SimTime, seg: &Segment) {
        let ack = seg.ack;
        if ack > self.snd_una && ack <= self.snd_max {
            let newly = ack - self.snd_una;
            // Pop acknowledged data bytes.
            let data_acked = (newly as usize).min(self.send_q.len());
            self.send_q.consume(data_acked);
            // Did the ACK cover our FIN?
            if self.fin_queued && !self.fin_acked && ack == self.snd_una + data_acked as u64 + 1 {
                self.fin_acked = true;
            }
            self.snd_una = ack;
            self.snd_nxt = self.snd_nxt.max(ack);
            self.peer_wnd = seg.wnd;
            self.rto_strikes = 0;
            // RTT sample.
            if let Some((end, sent_at)) = self.rtt_sample {
                if ack >= end {
                    self.rtt_update(now.since(sent_at));
                    self.rtt_sample = None;
                }
            }
            // Congestion window growth / recovery bookkeeping.
            if self.in_recovery {
                if ack >= self.recover {
                    // Full recovery: deflate.
                    self.in_recovery = false;
                    self.cwnd = self.ssthresh;
                    self.dupacks = 0;
                } else {
                    // NewReno partial ACK: the next hole is lost too.
                    self.stats.fast_retransmits += 1;
                    self.retransmit_head(now);
                    self.cwnd =
                        (self.cwnd - newly as f64 + self.cfg.mss as f64).max(self.cfg.mss as f64);
                }
            } else {
                self.dupacks = 0;
                if self.cwnd < self.ssthresh {
                    // Slow start: byte-counted exponential growth.
                    self.cwnd += (newly as f64).min(self.cfg.mss as f64);
                } else {
                    // Congestion avoidance: ~one MSS per RTT.
                    self.cwnd += (self.cfg.mss as f64) * (self.cfg.mss as f64) / self.cwnd;
                }
            }
            // RFC 6298 (5.3): restart the timer on new data acked.
            if self.flight() > 0
                || (self.fin_queued && !self.fin_acked && self.snd_nxt > self.data_end())
            {
                self.rtx_timer.arm(now + self.rto);
            } else {
                self.rtx_timer.disarm();
            }
            // Close-sequence transitions driven by our FIN being acked.
            if self.fin_acked {
                match self.state {
                    State::FinWait1 => self.state = State::FinWait2,
                    State::Closing => {
                        self.state = State::TimeWait;
                        self.tw_timer.arm(now + self.cfg.time_wait);
                    }
                    State::LastAck => {
                        self.state = State::Closed;
                        self.rtx_timer.disarm();
                        self.wake_all();
                    }
                    _ => {}
                }
            }
            Self::wake(&mut self.write_wakers);
            if self.send_q.is_empty() {
                Self::wake(&mut self.drain_wakers);
            }
            self.transmit(now);
        } else if ack == self.snd_una {
            // Window update or duplicate ACK.
            let was_zero = self.peer_wnd == 0;
            if seg.data.is_empty() && !seg.flags.fin {
                if seg.wnd != self.peer_wnd {
                    self.peer_wnd = seg.wnd;
                    if was_zero && self.peer_wnd > 0 {
                        self.persist_timer.disarm();
                        self.persist_backoff = 0;
                    }
                    self.transmit(now);
                } else if self.flight() > 0 {
                    self.on_dupack(now);
                }
            } else {
                self.peer_wnd = seg.wnd;
            }
        }
        // ACK beyond snd_max or below snd_una (old duplicate): ignore.
        self.debug_check_sender();
    }

    fn on_dupack(&mut self, now: SimTime) {
        self.stats.dup_acks_rcvd += 1;
        if self.in_recovery {
            // Inflate: each dup ACK means one segment left the network.
            self.cwnd += self.cfg.mss as f64;
            self.transmit(now);
            return;
        }
        self.dupacks += 1;
        if self.dupacks == 3 {
            // Fast retransmit + fast recovery (RFC 5681/6582).
            self.stats.fast_retransmits += 1;
            let flight = self.flight() as f64;
            self.ssthresh = (flight / 2.0).max((2 * self.cfg.mss) as f64);
            self.recover = self.snd_max;
            self.in_recovery = true;
            self.retransmit_head(now);
            self.cwnd = self.ssthresh + 3.0 * self.cfg.mss as f64;
            self.rtx_timer.arm(now + self.rto);
        }
    }

    fn process_data(&mut self, seq: u64, mut data: Bytes) {
        let end = seq + data.len() as u64;
        if end <= self.rcv_nxt {
            return; // complete duplicate
        }
        let mut seq = seq;
        if seq < self.rcv_nxt {
            // Partial overlap: trim the stale prefix.
            let trim = (self.rcv_nxt - seq) as usize;
            data = data.slice(trim..);
            seq = self.rcv_nxt;
        }
        if seq == self.rcv_nxt {
            self.accept_data(data);
            // Drain any out-of-order segments that are now contiguous.
            while let Some((&oseq, _)) = self.ooo.iter().next() {
                if oseq > self.rcv_nxt {
                    break;
                }
                let (oseq, odata) = self.ooo.pop_first().unwrap();
                self.ooo_bytes -= odata.len();
                let oend = oseq + odata.len() as u64;
                if oend > self.rcv_nxt {
                    let trim = (self.rcv_nxt - oseq) as usize;
                    self.accept_data(odata.slice(trim..));
                }
            }
            Self::wake(&mut self.read_wakers);
        } else {
            // Out of order: buffer within the window.
            let window_end = self.rcv_nxt + self.rwnd() as u64;
            if seq < window_end && !self.ooo.contains_key(&seq) {
                let keep = ((window_end - seq) as usize).min(data.len());
                let d = data.slice(..keep);
                self.ooo_bytes += d.len();
                self.ooo.insert(seq, d);
            }
        }
    }

    fn accept_data(&mut self, data: Bytes) {
        // Respect the receive buffer: anything beyond our advertised window
        // is dropped (the peer will retransmit once we open up). The check
        // must mirror `rwnd()` exactly — in particular it must NOT count
        // out-of-order bytes, which are admitted under the same advertised
        // window: otherwise a buffered OOO tail can permanently starve the
        // retransmitted head segment and wedge the connection (seen as an
        // RTO-backoff spiral in the 16-stream striping bench). Memory is
        // still bounded: recv_q ≤ recv_buf here and ooo ≤ rwnd at insert.
        let free = (self.cfg.recv_buf as usize).saturating_sub(self.recv_q.len());
        let keep = free.min(data.len());
        // Zero-copy: the queue shares the segment's buffer until the
        // application drains it.
        self.recv_q.push_bytes(if keep == data.len() {
            data
        } else {
            data.slice(..keep)
        });
        self.rcv_nxt += keep as u64;
        self.stats.bytes_rcvd += keep as u64;
    }

    fn rtt_update(&mut self, sample: Duration) {
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample / 2;
            }
            Some(srtt) => {
                let diff = srtt.abs_diff(sample);
                self.rttvar = (self.rttvar * 3 + diff) / 4;
                self.srtt = Some((srtt * 7 + sample) / 8);
            }
        }
        let srtt = self.srtt.unwrap();
        self.stats.srtt = self.srtt;
        self.rto = (srtt + (self.rttvar * 4).max(Duration::from_millis(1)))
            .clamp(self.cfg.min_rto, self.cfg.max_rto);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: SimTime = SimTime(0);

    fn t(ms: u64) -> SimTime {
        SimTime(ms * 1_000_000)
    }
    fn la() -> SockAddr {
        SockAddr::new(gridsim_net::Ip::new(1, 0, 0, 1), 1000)
    }
    fn ra() -> SockAddr {
        SockAddr::new(gridsim_net::Ip::new(2, 0, 0, 1), 2000)
    }

    /// Drive two TCBs against each other with a lossless, zero-delay pipe.
    /// Returns when neither has output pending.
    fn pump(a: &mut Tcb, b: &mut Tcb, now: SimTime) {
        loop {
            let out_a = a.take_out();
            let out_b = b.take_out();
            if out_a.is_empty() && out_b.is_empty() {
                break;
            }
            for s in out_a {
                b.on_segment(now, s);
            }
            for s in out_b {
                a.on_segment(now, s);
            }
        }
    }

    fn established_pair() -> (Tcb, Tcb) {
        pair_with(TcpConfig::default())
    }

    fn pair_with(cfg: TcpConfig) -> (Tcb, Tcb) {
        let mut a = Tcb::client(cfg, la(), ra(), 1000, T0);
        let syn = a.take_out().remove(0);
        assert!(syn.flags.syn && !syn.flags.ack);
        let mut b = Tcb::server(cfg, ra(), la(), 5000, &syn, T0);
        pump(&mut a, &mut b, T0);
        assert!(a.is_established() && b.is_established());
        (a, b)
    }

    #[test]
    fn three_way_handshake() {
        let (mut a, mut b) = established_pair();
        assert!(a.take_established());
        assert!(b.take_established());
        assert_eq!(a.error(), None);
        assert_eq!(b.error(), None);
    }

    #[test]
    fn simultaneous_open_establishes_both() {
        // Paper Fig. 1 (right): both sides connect() at once.
        let cfg = TcpConfig::default();
        let mut a = Tcb::client(cfg, la(), ra(), 1000, T0);
        let mut b = Tcb::client(cfg, ra(), la(), 5000, T0);
        let syn_a = a.take_out().remove(0);
        let syn_b = b.take_out().remove(0);
        // SYNs cross.
        a.on_segment(T0, syn_b);
        b.on_segment(T0, syn_a);
        assert_eq!(a.state, State::SynRcvd);
        assert_eq!(b.state, State::SynRcvd);
        pump(&mut a, &mut b, T0);
        assert!(a.is_established(), "a: {:?}", a.state);
        assert!(b.is_established(), "b: {:?}", b.state);
    }

    #[test]
    fn data_transfer_round_trip() {
        let (mut a, mut b) = established_pair();
        let msg = b"hello across the simulated wire";
        assert_eq!(
            a.try_write(T0, msg).unwrap(),
            WriteOutcome::Wrote(msg.len())
        );
        pump(&mut a, &mut b, T0);
        let mut buf = [0u8; 64];
        match b.try_read(T0, &mut buf).unwrap() {
            ReadOutcome::Read(n) => assert_eq!(&buf[..n], msg),
            o => panic!("{o:?}"),
        }
        // ACK cleared the send queue.
        assert_eq!(a.send_q.len(), 0);
        assert_eq!(a.flight(), 0);
    }

    #[test]
    fn nagle_holds_second_small_segment() {
        let (mut a, mut _b) = established_pair();
        a.try_write(T0, b"x").unwrap();
        let out = a.take_out();
        assert_eq!(out.len(), 1, "first small write goes out immediately");
        a.try_write(T0, b"y").unwrap();
        assert!(
            a.take_out().is_empty(),
            "Nagle holds while un-ACKed data in flight"
        );
    }

    #[test]
    fn nodelay_sends_small_segments_immediately() {
        let cfg = TcpConfig {
            nodelay: true,
            ..TcpConfig::default()
        };
        let mut a = Tcb::client(cfg, la(), ra(), 1, T0);
        let syn = a.take_out().remove(0);
        let mut b = Tcb::server(cfg, ra(), la(), 2, &syn, T0);
        pump(&mut a, &mut b, T0);
        a.try_write(T0, b"x").unwrap();
        assert_eq!(a.take_out().len(), 1);
        a.try_write(T0, b"y").unwrap();
        assert_eq!(a.take_out().len(), 1, "TCP_NODELAY bypasses Nagle");
    }

    #[test]
    fn cwnd_limits_initial_burst_and_slow_start_grows() {
        let cfg = TcpConfig {
            send_buf: 1 << 20,
            recv_buf: 1 << 20,
            ..TcpConfig::default()
        };
        let mut a = Tcb::client(cfg, la(), ra(), 1, T0);
        let syn = a.take_out().remove(0);
        let mut b = Tcb::server(cfg, ra(), la(), 2, &syn, T0);
        pump(&mut a, &mut b, T0);
        let big = vec![7u8; 100 * 1460];
        a.try_write(T0, &big).unwrap();
        let burst = a.take_out();
        assert_eq!(burst.len(), 2, "initial cwnd = 2 MSS");
        let cwnd0 = a.cwnd();
        for s in burst {
            b.on_segment(T0, s);
        }
        for s in b.take_out() {
            a.on_segment(T0, s);
        }
        assert!(a.cwnd() > cwnd0, "slow start grows cwnd on ACK");
        assert!(!a.take_out().is_empty(), "ACK clocks out more data");
    }

    #[test]
    fn fast_retransmit_on_three_dupacks() {
        let cfg = TcpConfig {
            send_buf: 1 << 20,
            recv_buf: 1 << 20,
            nodelay: true,
            ..TcpConfig::default()
        };
        let mut a = Tcb::client(cfg, la(), ra(), 1, T0);
        let syn = a.take_out().remove(0);
        let mut b = Tcb::server(cfg, ra(), la(), 2, &syn, T0);
        pump(&mut a, &mut b, T0);
        // Grow cwnd so five segments can be in flight.
        let warm = vec![1u8; 8 * 1460];
        a.try_write(T0, &warm).unwrap();
        for _ in 0..8 {
            pump(&mut a, &mut b, T0);
        }
        let mut sink = vec![0u8; 1 << 16];
        while !matches!(b.try_read(T0, &mut sink).unwrap(), ReadOutcome::Empty) {}
        // Now send 5 segments and lose the first.
        let data = vec![9u8; 5 * 1460];
        a.try_write(T0, &data).unwrap();
        let mut segs = a.take_out();
        assert!(segs.len() >= 4, "need >=4 in flight, got {}", segs.len());
        let lost = segs.remove(0);
        for s in segs {
            b.on_segment(T0, s);
        }
        let dups = b.take_out();
        assert!(dups.len() >= 3, "receiver dup-ACKs each OOO segment");
        let before = a.stats.fast_retransmits;
        for d in dups {
            a.on_segment(T0, d);
        }
        assert_eq!(a.stats.fast_retransmits, before + 1);
        let rtx = a.take_out();
        assert!(!rtx.is_empty());
        assert_eq!(rtx[0].seq, lost.seq, "retransmits the lost head segment");
        // Deliver retransmission: receiver drains OOO queue and acks all.
        for s in rtx {
            b.on_segment(T0, s);
        }
        for s in b.take_out() {
            a.on_segment(T0, s);
        }
        assert_eq!(a.flight(), 0, "recovery completes");
        assert!(!a.in_recovery);
    }

    #[test]
    fn rto_collapses_cwnd_and_retransmits() {
        let cfg = TcpConfig {
            send_buf: 1 << 20,
            recv_buf: 1 << 20,
            ..TcpConfig::default()
        };
        let mut a = Tcb::client(cfg, la(), ra(), 1, T0);
        let syn = a.take_out().remove(0);
        let mut b = Tcb::server(cfg, ra(), la(), 2, &syn, T0);
        pump(&mut a, &mut b, T0);
        a.try_write(T0, &vec![1u8; 2 * 1460]).unwrap();
        let lost = a.take_out();
        assert!(!lost.is_empty());
        drop(lost); // all segments lost
        let deadline = a.rtx_timer.deadline.expect("rtx armed");
        a.on_rto(deadline);
        assert_eq!(a.stats.rtx_timeouts, 1);
        assert_eq!(a.cwnd(), 1460, "cwnd collapses to 1 MSS");
        let rtx = a.take_out();
        assert_eq!(rtx.len(), 1, "one segment after collapse");
        assert_eq!(rtx[0].seq, a.snd_una);
        // Delivery after retransmission completes the transfer.
        for s in rtx {
            b.on_segment(deadline, s);
        }
        for s in b.take_out() {
            a.on_segment(deadline, s);
        }
        assert!(a.flight() > 0, "go-back-N continues with remaining data");
    }

    #[test]
    fn saturated_rto_strikes_abort_detectably() {
        let cfg = TcpConfig {
            initial_rto: Duration::from_millis(200),
            min_rto: Duration::from_millis(200),
            max_rto: Duration::from_millis(400),
            max_rto_strikes: 3,
            ..TcpConfig::default()
        };
        let mut a = Tcb::client(cfg, la(), ra(), 1, T0);
        let syn = a.take_out().remove(0);
        let mut b = Tcb::server(cfg, ra(), la(), 2, &syn, T0);
        pump(&mut a, &mut b, T0);
        a.try_write(T0, &[7u8; 1000]).unwrap();
        let _lost = a.take_out(); // peer is gone: nothing ever arrives
        let mut fired = 0;
        while a.error().is_none() {
            let now = a.rtx_timer.deadline.expect("rtx stays armed until abort");
            a.on_rto(now);
            let _ = a.take_out();
            fired += 1;
            assert!(fired < 20, "must abort, not retransmit forever");
        }
        // Expiry 1 at 200ms doubles to the 400ms cap; expiries 2-4 are
        // saturated strikes 1-3, and the third strike aborts.
        assert_eq!(fired, 4);
        assert_eq!(a.error(), Some(io::ErrorKind::TimedOut));
        assert_eq!(a.state, State::Closed);
        let mut buf = [0u8; 8];
        let e = a.try_read(T0, &mut buf).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::TimedOut, "reads surface the abort");
        let e = a.try_write(T0, &[1]).unwrap_err();
        assert_eq!(
            e.kind(),
            io::ErrorKind::TimedOut,
            "writes surface the abort"
        );
    }

    #[test]
    fn ack_progress_resets_rto_strikes() {
        let cfg = TcpConfig {
            initial_rto: Duration::from_millis(200),
            min_rto: Duration::from_millis(200),
            max_rto: Duration::from_millis(200), // every expiry is saturated
            max_rto_strikes: 2,
            ..TcpConfig::default()
        };
        let mut a = Tcb::client(cfg, la(), ra(), 1, T0);
        let syn = a.take_out().remove(0);
        let mut b = Tcb::server(cfg, ra(), la(), 2, &syn, T0);
        pump(&mut a, &mut b, T0);
        a.try_write(T0, &[7u8; 1000]).unwrap();
        let _ = a.take_out();
        // One strike, then the retransmission gets through.
        let now = a.rtx_timer.deadline.unwrap();
        a.on_rto(now);
        for s in a.take_out() {
            b.on_segment(now, s);
        }
        for s in b.take_out() {
            a.on_segment(now, s);
        }
        assert_eq!(a.error(), None);
        // A fresh stall needs the full strike budget again.
        a.try_write(now, &[8u8; 1000]).unwrap();
        let _ = a.take_out();
        let d1 = a.rtx_timer.deadline.unwrap();
        a.on_rto(d1);
        let _ = a.take_out();
        assert_eq!(a.error(), None, "strike counter was reset by the ACK");
    }

    #[test]
    fn syn_retransmission_then_timeout_error() {
        let cfg = TcpConfig {
            syn_retries: 2,
            ..TcpConfig::default()
        };
        let mut a = Tcb::client(cfg, la(), ra(), 1, T0);
        let _syn = a.take_out();
        for _ in 0..2 {
            let now = a.rtx_timer.deadline.unwrap();
            a.on_rto(now);
            assert_eq!(a.take_out().len(), 1, "SYN retransmitted");
        }
        let now = a.rtx_timer.deadline.unwrap();
        a.on_rto(now);
        assert_eq!(a.error(), Some(io::ErrorKind::TimedOut));
        assert_eq!(a.state, State::Closed);
    }

    #[test]
    fn rst_in_syn_sent_is_connection_refused() {
        let cfg = TcpConfig::default();
        let mut a = Tcb::client(cfg, la(), ra(), 1, T0);
        let _ = a.take_out();
        a.on_segment(
            T0,
            Segment {
                flags: Flags::RST,
                seq: 0,
                ack: 2,
                wnd: 0,
                data: Bytes::new(),
            },
        );
        assert_eq!(a.error(), Some(io::ErrorKind::ConnectionRefused));
    }

    #[test]
    fn graceful_close_both_directions() {
        let (mut a, mut b) = established_pair();
        a.try_write(T0, b"bye").unwrap();
        a.start_close(T0);
        assert_eq!(a.state, State::FinWait1);
        pump(&mut a, &mut b, T0);
        // B sees data then EOF.
        let mut buf = [0u8; 8];
        assert_eq!(b.try_read(T0, &mut buf).unwrap(), ReadOutcome::Read(3));
        assert_eq!(b.try_read(T0, &mut buf).unwrap(), ReadOutcome::Eof);
        assert_eq!(b.state, State::CloseWait);
        assert_eq!(a.state, State::FinWait2);
        // B closes too.
        b.start_close(T0);
        assert_eq!(b.state, State::LastAck);
        pump(&mut a, &mut b, T0);
        assert_eq!(b.state, State::Closed);
        assert_eq!(a.state, State::TimeWait);
        a.on_time_wait_expire();
        assert_eq!(a.state, State::Closed);
    }

    #[test]
    fn simultaneous_close() {
        let (mut a, mut b) = established_pair();
        a.start_close(T0);
        b.start_close(T0);
        let fa = a.take_out();
        let fb = b.take_out();
        for s in fb {
            a.on_segment(T0, s);
        }
        for s in fa {
            b.on_segment(T0, s);
        }
        assert_eq!(a.state, State::Closing);
        assert_eq!(b.state, State::Closing);
        pump(&mut a, &mut b, T0);
        assert_eq!(a.state, State::TimeWait);
        assert_eq!(b.state, State::TimeWait);
    }

    #[test]
    fn half_close_allows_peer_to_keep_sending() {
        let (mut a, mut b) = established_pair();
        a.start_close(T0);
        pump(&mut a, &mut b, T0);
        // B may still send to A.
        assert!(matches!(
            b.try_write(T0, b"late data").unwrap(),
            WriteOutcome::Wrote(9)
        ));
        pump(&mut a, &mut b, T0);
        let mut buf = [0u8; 16];
        assert_eq!(a.try_read(T0, &mut buf).unwrap(), ReadOutcome::Read(9));
        assert_eq!(&buf[..9], b"late data");
    }

    #[test]
    fn write_after_close_is_broken_pipe() {
        let (mut a, mut b) = established_pair();
        a.start_close(T0);
        pump(&mut a, &mut b, T0);
        let err = a.try_write(T0, b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn receive_window_blocks_sender_and_reopens_on_read() {
        // Tiny receive buffer: sender must stall until the app drains.
        let cfg = TcpConfig {
            send_buf: 1 << 20,
            recv_buf: 4096,
            nodelay: true,
            ..TcpConfig::default()
        };
        let mut a = Tcb::client(cfg, la(), ra(), 1, T0);
        let syn = a.take_out().remove(0);
        let mut b = Tcb::server(cfg, ra(), la(), 2, &syn, T0);
        pump(&mut a, &mut b, T0);
        let data = vec![3u8; 20_000];
        a.try_write(T0, &data).unwrap();
        pump(&mut a, &mut b, T0);
        assert!(b.recv_q.len() <= 4096);
        assert!(a.flight() == 0, "sender stalled, everything sent is acked");
        let sent_so_far = a.stats.bytes_sent;
        assert!(sent_so_far <= 4096 + 1460, "window-limited: {sent_so_far}");
        // App drains; the window-update ACK releases the sender.
        let mut sink = vec![0u8; 1 << 16];
        let mut total = 0;
        loop {
            match b.try_read(T0, &mut sink).unwrap() {
                ReadOutcome::Read(n) => {
                    total += n;
                    pump(&mut a, &mut b, T0);
                }
                ReadOutcome::Empty | ReadOutcome::Eof => {
                    if total >= 20_000 {
                        break;
                    }
                    pump(&mut a, &mut b, T0);
                    if b.recv_q.is_empty() && a.flight() == 0 && a.send_q.is_empty() {
                        break;
                    }
                }
            }
        }
        assert_eq!(total, 20_000, "all data arrives despite the tiny window");
    }

    #[test]
    fn out_of_order_segments_reassembled() {
        let (mut a, mut b) = established_pair();
        a.cfg.nodelay = true;
        // Send three segments, deliver them 3,1,2.
        let seg = |tcb: &mut Tcb, bytes: &[u8]| {
            tcb.try_write(T0, bytes).unwrap();
            tcb.take_out().remove(0)
        };
        let s1 = seg(&mut a, b"aaaa");
        let s2 = seg(&mut a, b"bbbb");
        let s3 = seg(&mut a, b"cccc");
        b.on_segment(T0, s3);
        let mut buf = [0u8; 16];
        assert_eq!(b.try_read(T0, &mut buf).unwrap(), ReadOutcome::Empty);
        b.on_segment(T0, s1);
        b.on_segment(T0, s2);
        match b.try_read(T0, &mut buf).unwrap() {
            ReadOutcome::Read(n) => assert_eq!(&buf[..n], b"aaaabbbbcccc"),
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn duplicate_data_is_ignored() {
        let (mut a, mut b) = established_pair();
        a.try_write(T0, b"dup").unwrap();
        let seg = a.take_out().remove(0);
        b.on_segment(T0, seg.clone());
        b.on_segment(T0, seg);
        let mut buf = [0u8; 16];
        match b.try_read(T0, &mut buf).unwrap() {
            ReadOutcome::Read(n) => assert_eq!(n, 3),
            o => panic!("{o:?}"),
        }
        assert_eq!(b.try_read(T0, &mut buf).unwrap(), ReadOutcome::Empty);
    }

    #[test]
    fn rtt_sampling_sets_rto() {
        let (mut a, mut b) = established_pair();
        a.try_write(T0, b"ping").unwrap();
        let seg = a.take_out().remove(0);
        b.on_segment(t(40), seg);
        let ack = b.take_out().remove(0);
        a.on_segment(t(40), ack);
        // SRTT = 40 ms, RTTVAR = 20 ms: RTO = clamp(40 + 80) = 200ms (min).
        assert_eq!(a.rto, Duration::from_millis(200));
        // A much longer path raises RTO above the minimum.
        a.try_write(t(40), b"pong").unwrap();
        let seg = a.take_out().remove(0);
        b.on_segment(t(1040), seg);
        let ack = b.take_out().remove(0);
        a.on_segment(t(1040), ack);
        assert!(a.rto > Duration::from_millis(200));
    }

    /// Regression: the zero-window persist probe must consume sequence
    /// space, or the receiver's ACK of it looks out-of-window and the flow
    /// wedges forever (found as a livelock in the striping bench).
    #[test]
    fn persist_probe_recovers_from_lost_window_update() {
        let cfg = TcpConfig {
            send_buf: 1 << 20,
            recv_buf: 4096,
            nodelay: true,
            ..TcpConfig::default()
        };
        let mut a = Tcb::client(cfg, la(), ra(), 1, T0);
        let syn = a.take_out().remove(0);
        let mut b = Tcb::server(cfg, ra(), la(), 2, &syn, T0);
        pump(&mut a, &mut b, T0);
        // Fill the receiver's window completely.
        a.try_write(T0, &vec![1u8; 10_000]).unwrap();
        pump(&mut a, &mut b, T0);
        assert_eq!(a.peer_wnd, 0, "window closed");
        assert!(!a.send_q.is_empty(), "data still pending");
        // The app drains, but the window-update ACK is LOST.
        let mut sink = vec![0u8; 1 << 16];
        assert!(matches!(
            b.try_read(T0, &mut sink).unwrap(),
            ReadOutcome::Read(_)
        ));
        let _lost_update = b.take_out();
        // Persist timer fires: the probe byte must be sequence-consuming.
        assert!(a.persist_timer.deadline.is_some(), "persist armed");
        let t1 = a.persist_timer.deadline.unwrap();
        a.on_persist(t1);
        let probe = a.take_out();
        assert_eq!(probe.len(), 1);
        assert_eq!(probe[0].data.len(), 1);
        let before_nxt = a.snd_nxt;
        assert_eq!(probe[0].seq_end(), before_nxt, "probe advanced snd_nxt");
        // The receiver ACKs it with the fresh window, unwedging the sender.
        for s in probe {
            b.on_segment(t1, s);
        }
        for s in b.take_out() {
            a.on_segment(t1, s);
        }
        assert!(a.peer_wnd > 0, "window re-opened via the probe ACK");
        assert!(!a.take_out().is_empty(), "transmission resumed");
    }

    /// Regression: a buffered out-of-order tail must never starve the
    /// retransmitted head segment. With ooo counted against the acceptance
    /// budget (but not the advertised window), the head was rejected
    /// forever and the connection spiralled into RTO backoff (seen in the
    /// 16-stream striping bench).
    #[test]
    fn ooo_tail_does_not_starve_retransmitted_head() {
        let cfg = TcpConfig {
            send_buf: 1 << 20,
            recv_buf: 8192,
            nodelay: true,
            init_cwnd_segs: 8, // enough to burst the whole window
            ..TcpConfig::default()
        };
        let mut a = Tcb::client(cfg, la(), ra(), 1, T0);
        let syn = a.take_out().remove(0);
        let mut b = Tcb::server(cfg, ra(), la(), 2, &syn, T0);
        pump(&mut a, &mut b, T0);
        // Send 6 KiB; drop the FIRST segment, deliver the rest
        // (they land in b's out-of-order buffer, admitted under the
        // advertised window).
        a.try_write(T0, &vec![7u8; 6 * 1024]).unwrap();
        let mut segs = a.take_out();
        assert!(
            segs.len() >= 4,
            "expected several segments, got {}",
            segs.len()
        );
        let head = segs.remove(0);
        for s in segs {
            b.on_segment(T0, s);
        }
        assert!(b.ooo_bytes > 0, "tail buffered out of order");
        let rcv_before = b.rcv_nxt;
        // The retransmitted head MUST be accepted even though recv_q+ooo
        // exceeds the nominal buffer.
        b.on_segment(T0, head);
        assert!(
            b.rcv_nxt > rcv_before + 1000,
            "head + drained tail advanced rcv_nxt"
        );
        let mut buf = vec![0u8; 1 << 16];
        match b.try_read(T0, &mut buf).unwrap() {
            ReadOutcome::Read(n) => assert!(n >= 6 * 1024, "got {n}"),
            o => panic!("{o:?}"),
        }
    }

    /// A retransmitted FIN (lost first time) still closes the connection.
    #[test]
    fn lost_fin_is_retransmitted() {
        let (mut a, mut b) = established_pair();
        a.start_close(T0);
        let lost_fin = a.take_out();
        assert!(lost_fin.iter().any(|s| s.flags.fin));
        drop(lost_fin);
        let deadline = a.rtx_timer.deadline.expect("rtx armed for FIN");
        a.on_rto(deadline);
        let rtx = a.take_out();
        assert!(rtx.iter().any(|s| s.flags.fin), "FIN retransmitted");
        for s in rtx {
            b.on_segment(deadline, s);
        }
        for s in b.take_out() {
            a.on_segment(deadline, s);
        }
        assert_eq!(a.state, State::FinWait2);
        assert_eq!(b.state, State::CloseWait);
    }

    /// Reading after a RST surfaces ConnectionReset.
    #[test]
    fn rst_mid_connection_errors_reads_and_writes() {
        let (mut a, mut b) = established_pair();
        b.abort();
        for s in b.take_out() {
            a.on_segment(T0, s);
        }
        let mut buf = [0u8; 4];
        assert_eq!(
            a.try_read(T0, &mut buf).unwrap_err().kind(),
            io::ErrorKind::ConnectionReset
        );
        assert_eq!(
            a.try_write(T0, b"x").unwrap_err().kind(),
            io::ErrorKind::ConnectionReset
        );
    }

    /// cwnd never collapses below one MSS and ssthresh never below two.
    #[test]
    fn congestion_floors_hold_under_repeated_timeouts() {
        let cfg = TcpConfig {
            send_buf: 1 << 20,
            recv_buf: 1 << 20,
            ..TcpConfig::default()
        };
        let mut a = Tcb::client(cfg, la(), ra(), 1, T0);
        let syn = a.take_out().remove(0);
        let mut b = Tcb::server(cfg, ra(), la(), 2, &syn, T0);
        pump(&mut a, &mut b, T0);
        a.try_write(T0, &vec![1u8; 8 * 1460]).unwrap();
        let _ = a.take_out();
        for _ in 0..6 {
            let dl = match a.rtx_timer.deadline {
                Some(d) => d,
                None => break,
            };
            a.on_rto(dl);
            let _ = a.take_out();
            assert!(a.cwnd() >= 1460, "cwnd floor");
            assert!(a.ssthresh >= (2 * 1460) as f64, "ssthresh floor");
        }
    }

    #[test]
    fn established_flag_fires_once() {
        let (mut a, _b) = established_pair();
        assert!(a.take_established());
        assert!(!a.take_established());
    }

    // ---------------- whole-segment sender ----------------

    const MSS: usize = 1460;

    fn bigwin_pair() -> (Tcb, Tcb) {
        pair_with(TcpConfig {
            send_buf: 1 << 20,
            recv_buf: 1 << 20,
            ..TcpConfig::default()
        })
    }

    /// `pump` with the wire made visible: segments from `a` cross one at a
    /// time over a lossless zero-delay pipe, `b` reads everything at once
    /// and every ACK returns immediately, so `a` is purely ACK-clocked.
    /// `refill` runs wherever the host stack would service a staged write
    /// (after every mutation of `a`); the `lose`-th data segment is dropped
    /// once. Returns the payload size of every data segment `a` originated
    /// and the bytes `b`'s application received.
    fn clocked_transfer(
        a: &mut Tcb,
        b: &mut Tcb,
        mut refill: impl FnMut(&mut Tcb),
        lose: Option<usize>,
    ) -> (Vec<usize>, Vec<u8>) {
        let mut wire = VecDeque::new();
        let mut sizes = Vec::new();
        let mut delivered = Vec::new();
        let mut sink = Vec::new();
        loop {
            refill(a);
            wire.extend(a.take_out());
            let Some(seg) = wire.pop_front() else {
                return (sizes, delivered);
            };
            if !seg.data.is_empty() {
                sizes.push(seg.data.len());
                if lose == Some(sizes.len()) {
                    continue;
                }
            }
            b.on_segment(T0, seg);
            while let ReadOutcome::Read(_) = b.try_read_chunks(T0, usize::MAX, &mut sink).unwrap() {
                for c in sink.drain(..) {
                    delivered.extend_from_slice(&c);
                }
            }
            for ack in b.take_out() {
                a.on_segment(T0, ack);
                refill(a);
                wire.extend(a.take_out());
            }
        }
    }

    /// The refill `service_pending_write` performs, without a waker: one
    /// remainder at a time, the next `write_block` starting once the
    /// previous block is fully queued.
    fn staged_refill(blocks: impl IntoIterator<Item = Bytes>) -> impl FnMut(&mut Tcb) {
        let mut blocks = blocks.into_iter();
        let mut rest = Bytes::new();
        move |a| loop {
            if rest.is_empty() {
                let Some(next) = blocks.next() else { return };
                rest = next;
            }
            match a.try_write_bytes(T0, &rest).unwrap() {
                WriteOutcome::Wrote(n) => rest = rest.slice(n..),
                WriteOutcome::Full => return,
            }
        }
    }

    /// `TcpStream::write_block` of a block larger than the send buffer:
    /// the remainder is staged once and `service_pending` alone carries
    /// it, ACK by ACK, to a byte-exact delivery.
    #[test]
    fn block_larger_than_send_buffer_stages_once_and_completes() {
        let (mut a, mut b) = established_pair();
        let block = Bytes::from((0..300_000).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
        // No task is behind it, so its wakes are no-ops.
        let waker = gridsim_net::Sim::new(0)
            .scheduler()
            .handle()
            .waker(gridsim_net::TaskId(u64::MAX));
        let WriteOutcome::Wrote(n) = a.try_write_bytes(T0, &block).unwrap() else {
            panic!("an empty send buffer accepts a prefix");
        };
        assert_eq!(n, a.cfg.send_buf as usize);
        assert!(a.stage_write(block.slice(n..), waker.clone()));
        assert!(!a.stage_write(block.clone(), waker), "one staged write");
        assert!(a.collect_staged_write(T0).is_none(), "buffer still full");
        let (_, delivered) = clocked_transfer(&mut a, &mut b, |a| a.service_pending(T0), None);
        assert_eq!(delivered, block);
        assert_eq!(a.stats.blocks_sent, 1);
        assert!(matches!(a.collect_staged_write(T0), Some(Ok(()))));
    }

    #[test]
    fn fractional_cwnd_emits_only_full_segments() {
        let (mut a, mut b) = bigwin_pair();
        // Congestion avoidance, window not a whole number of segments.
        a.ssthresh = (4 * MSS) as f64;
        a.cwnd = 10.37 * MSS as f64;
        let total = 210 * MSS + 600;
        a.try_write(T0, &vec![5u8; total]).unwrap();
        let first = a.take_out();
        assert_eq!(first.len(), 10, "floor(cwnd / MSS) segments, no runt");
        a.out = first;
        let (sizes, delivered) = clocked_transfer(&mut a, &mut b, |_| {}, None);
        assert_eq!(delivered.len(), total);
        let (tail, body) = sizes.split_last().unwrap();
        assert!(
            body.iter().all(|&n| n == MSS),
            "sub-MSS segment ahead of queued data: {body:?}"
        );
        assert_eq!(*tail, 600, "only the queue tail is short");
    }

    /// The cascade: at 1 MiB buffers one loss puts the sender in congestion
    /// avoidance with `cwnd < send_buf`; a byte-granular window then leaks a
    /// runt per ACK whose own ACKs free runt-sized space, and per-ACK
    /// refill slivers make every carve straddle two chunks.
    #[test]
    fn bigwin_loss_does_not_fragment_or_copy() {
        let (mut a, mut b) = bigwin_pair();
        let total = 8 << 20;
        let block = Bytes::from(
            (0..256 * 1024)
                .map(|i| (i % 251) as u8)
                .collect::<Vec<u8>>(),
        );
        let blocks = vec![block.clone(); total / block.len()];
        let (sizes, delivered) = clocked_transfer(&mut a, &mut b, staged_refill(blocks), Some(400));
        assert_eq!(delivered.len(), total);
        assert_eq!(a.stats.fast_retransmits, 1, "the loss was repaired once");
        assert_eq!(a.stats.rtx_timeouts, 0);
        let sent: usize = sizes.iter().sum();
        let mean = sent as f64 / sizes.len() as f64;
        assert!(
            mean >= 0.95 * MSS as f64,
            "mean data segment {mean:.0} B over {} segments",
            sizes.len()
        );
        assert!(
            (a.stats.bytes_copied as usize) * 100 < sent,
            "{} of {sent} bytes copied",
            a.stats.bytes_copied
        );
    }

    #[test]
    fn peer_window_is_filled_to_the_byte() {
        // 10 000 B is 6 MSS + 1240: rounding it down would idle 12 % of it.
        let (mut a, mut b) = pair_with(TcpConfig {
            send_buf: 1 << 20,
            recv_buf: 10_000,
            init_cwnd_segs: 16,
            ..TcpConfig::default()
        });
        a.try_write(T0, &vec![3u8; 50_000]).unwrap();
        let burst = a.take_out();
        let sizes: Vec<usize> = burst.iter().map(|s| s.data.len()).collect();
        assert_eq!(sizes, [MSS, MSS, MSS, MSS, MSS, MSS, 1240]);
        assert_eq!(a.flight(), 10_000, "advertised window fully used");
        for s in burst {
            b.on_segment(T0, s);
        }
        assert_eq!(b.recv_q.len(), 10_000);
    }

    #[test]
    fn short_queue_tail_keeps_nagle_and_nodelay_semantics() {
        for nodelay in [false, true] {
            let (mut a, mut b) = pair_with(TcpConfig {
                nodelay,
                init_cwnd_segs: 8,
                ..TcpConfig::default()
            });
            a.try_write(T0, &vec![1u8; 2 * MSS + 100]).unwrap();
            let sizes: Vec<usize> = a.out.iter().map(|s| s.data.len()).collect();
            if nodelay {
                assert_eq!(sizes, [MSS, MSS, 100], "TCP_NODELAY: tail leaves at once");
            } else {
                assert_eq!(
                    sizes,
                    [MSS, MSS],
                    "Nagle holds the tail behind data in flight"
                );
                pump(&mut a, &mut b, T0);
                assert_eq!(b.recv_q.len(), 2 * MSS + 100, "and the ACK releases it");
            }
        }
    }

    mod chunk_deque_prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Partial refills of successive parent blocks, interleaved
            /// with copied pushes, `consume` and `slice`, read back the
            /// same bytes as a flat model; a refill that continues the back
            /// chunk's parent never adds a chunk.
            #[test]
            fn matches_flat_model(
                ops in proptest::collection::vec((0u8..4, 1usize..5000, 0usize..5000), 1..200),
            ) {
                let block = |k: usize| {
                    Bytes::from((0..4096).map(|i| (i * 7 + k * 13) as u8).collect::<Vec<u8>>())
                };
                let mut q = ChunkDeque::default();
                let mut model: Vec<u8> = Vec::new();
                let (mut next_block, mut rest) = (1, block(0));
                // Does the back chunk come from the block `rest` continues?
                let mut back_is_rest = false;
                let mut copied = 0;
                for (op, x, y) in ops {
                    match op {
                        0 => {
                            let n = x.min(rest.len());
                            let chunks = q.chunks.len();
                            q.push_prefix(&rest, n);
                            model.extend_from_slice(&rest[..n]);
                            if back_is_rest && chunks > 0 {
                                prop_assert_eq!(q.chunks.len(), chunks);
                            }
                            rest = rest.slice(n..);
                            back_is_rest = !rest.is_empty();
                            if rest.is_empty() {
                                rest = block(next_block);
                                next_block += 1;
                            }
                        }
                        1 => {
                            let data = vec![x as u8; x % 64 + 1];
                            q.push_slice(&data);
                            model.extend_from_slice(&data);
                            back_is_rest = false;
                        }
                        2 => {
                            let n = x % (model.len() + 1);
                            q.consume(n);
                            model.drain(..n);
                        }
                        _ => {
                            let start = x % (model.len() + 1);
                            let len = y % (model.len() - start + 1);
                            if len > 0 {
                                let got = q.slice(start, len, &mut copied);
                                prop_assert_eq!(&got[..], &model[start..start + len]);
                            }
                        }
                    }
                    prop_assert_eq!(q.len(), model.len());
                }
                let mut all = vec![0u8; model.len()];
                prop_assert_eq!(q.copy_out(&mut all), model.len());
                prop_assert_eq!(all, model);
            }
        }
    }
}
