//! TCP control block: the per-connection protocol state machine.
//!
//! The TCB is deliberately independent of the simulator: inputs are segments
//! and timer firings (with the current time), outputs are segments pushed to
//! an internal queue plus the timer events to schedule, both drained by the
//! host stack in `stack.rs`. This keeps the whole protocol unit-testable
//! without a network.
//!
//! [`Tcb`] is RFC 793's state machine over three parts, each tested alone
//! below: a `Sender` (`SND.*`), a `Receiver` (`RCV.*`) and its `Timers`.
//! Every segment is built in one place, `Tcb::emit`.
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

    /// May data or our FIN leave in this state?
    fn sends(self) -> bool {
        !matches!(self, State::SynSent | State::SynRcvd | State::FinWait2) && !self.is_terminal()
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

    /// Append by copy (the `&[u8]` write path).
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

/// The send side: RFC 793's send sequence variables, the send queue,
/// NewReno congestion control (RFC 5681 / 6582), the RFC 6298 round-trip
/// estimator and the staged write. It decides what may leave and advances
/// its sequence space; the [`Tcb`] builds the segments.
#[derive(Default)]
struct Sender {
    /// ISS, SND.UNA, SND.NXT, and the highest sequence ever sent
    /// (retransmissions keep `nxt` lower).
    iss: u64,
    una: u64,
    nxt: u64,
    max: u64,
    /// SND.WND: the peer's advertised window.
    wnd: u32,
    /// Unacknowledged + unsent data; the front byte has sequence `una`.
    q: ChunkDeque,
    fin_queued: bool,
    fin_acked: bool,
    cwnd: f64,
    ssthresh: f64,
    dupacks: u32,
    /// Recovery point: fast recovery ends when `una` passes this.
    recover: u64,
    in_recovery: bool,
    srtt: Option<Duration>,
    rttvar: Duration,
    rto: Duration,
    /// Outstanding RTT sample: (sequence that acks it, send time).
    rtt_sample: Option<(u64, SimTime)>,
    syn_rtx_left: u32,
    /// Consecutive RTO expiries with the backoff saturated at `max_rto`;
    /// reset whenever an ACK advances `una`.
    rto_strikes: u32,
    persist_backoff: u32,
    /// Staged block write serviced at event time (see [`PendingWrite`]).
    pending: Option<PendingWrite>,
}

impl Sender {
    fn new(cfg: &TcpConfig, iss: u64) -> Sender {
        Sender {
            iss,
            una: iss,
            nxt: iss,
            max: iss,
            wnd: cfg.mss, // conservative until the peer advertises
            cwnd: (cfg.init_cwnd_segs * cfg.mss) as f64,
            ssthresh: f64::MAX,
            recover: iss,
            rto: cfg.initial_rto,
            syn_rtx_left: cfg.syn_retries,
            ..Sender::default()
        }
    }

    /// Sequence space in flight.
    fn flight(&self) -> u64 {
        self.nxt - self.una
    }

    /// End of the data currently in the send queue, in sequence space.
    fn data_end(&self) -> u64 {
        self.una + self.q.len() as u64
    }

    /// Queued bytes not yet sent.
    fn unsent(&self) -> u64 {
        self.data_end().saturating_sub(self.nxt)
    }

    /// Our FIN is queued and not yet acknowledged.
    fn fin_pending(&self) -> bool {
        self.fin_queued && !self.fin_acked
    }

    /// Payload size of the next data segment the windows and Nagle let
    /// leave now; 0 = none.
    fn next_len(&self, cfg: &TcpConfig) -> usize {
        // The congestion window is spent in whole segments (as Linux
        // counts it in packets): a fractional cwnd never releases a
        // sub-MSS remainder that would go out as a runt while full
        // segments wait behind it. The receive window is byte-exact.
        let mss = cfg.mss as u64;
        let flight = self.flight();
        let cwnd_room = (self.cwnd as u64 / mss).saturating_sub(flight.div_ceil(mss)) * mss;
        let usable = cwnd_room.min((self.wnd as u64).saturating_sub(flight));
        let unsent = self.unsent();
        let take = usable.min(unsent).min(mss);
        // Nagle: hold sub-MSS segments while data is in flight.
        if take < mss && flight > 0 && !cfg.nodelay && take == unsent {
            return 0;
        }
        take as usize
    }

    /// Take `len` bytes at `nxt` for one data segment, the FIN riding on
    /// the last. A fresh segment starts an RTT sample if `sample` (Karn:
    /// never on a retransmission) and none is outstanding.
    fn carve(
        &mut self,
        now: SimTime,
        len: usize,
        sample: bool,
        copied: &mut u64,
    ) -> (Flags, u64, Bytes) {
        let seq = self.nxt;
        let data = self.q.slice((seq - self.una) as usize, len, copied);
        self.nxt += len as u64;
        let fin = self.fin_pending() && self.nxt == self.data_end();
        self.nxt += u64::from(fin);
        if sample && self.nxt > self.max && self.rtt_sample.is_none() {
            self.rtt_sample = Some((self.nxt, now));
        }
        self.max = self.max.max(self.nxt);
        (Flags { fin, ..Flags::ACK }, seq, data)
    }

    /// Advance `nxt` past `n` units of sequence space just emitted.
    fn advance(&mut self, n: u64) -> u64 {
        self.nxt += n;
        self.max = self.max.max(self.nxt);
        self.nxt - n
    }

    /// An ACK of new data (`una < ack <= max`) carrying window `wnd`:
    /// release what it covers, take the RTT sample, grow or deflate the
    /// congestion window. `true` = a NewReno partial ACK, whose next hole
    /// is lost too and must be retransmitted.
    fn on_new_ack(&mut self, cfg: &TcpConfig, now: SimTime, ack: u64, wnd: u32) -> bool {
        let newly = ack - self.una;
        let data_acked = (newly as usize).min(self.q.len());
        self.q.consume(data_acked);
        // Did the ACK cover our FIN?
        if self.fin_pending() && ack == self.una + data_acked as u64 + 1 {
            self.fin_acked = true;
        }
        self.una = ack;
        self.nxt = self.nxt.max(ack);
        self.wnd = wnd;
        self.rto_strikes = 0;
        if let Some((_, sent_at)) = self.rtt_sample.filter(|&(end, _)| ack >= end) {
            self.rtt_update(cfg, now.since(sent_at));
            self.rtt_sample = None;
        }
        let mss = cfg.mss as f64;
        if !self.in_recovery {
            self.dupacks = 0;
            // Slow start grows byte-counted and exponentially, congestion
            // avoidance about one MSS per RTT.
            self.cwnd += if self.cwnd < self.ssthresh {
                (newly as f64).min(mss)
            } else {
                mss * mss / self.cwnd
            };
            false
        } else if ack >= self.recover {
            // Full recovery: deflate.
            self.in_recovery = false;
            self.cwnd = self.ssthresh;
            self.dupacks = 0;
            false
        } else {
            self.cwnd = (self.cwnd - newly as f64 + mss).max(mss);
            true
        }
    }

    /// A duplicate ACK outside fast recovery; `true` on the third, which
    /// enters fast retransmit and recovery (RFC 5681 / 6582).
    fn count_dupack(&mut self, cfg: &TcpConfig) -> bool {
        self.dupacks += 1;
        if self.dupacks != 3 {
            return false;
        }
        self.ssthresh = (self.flight() as f64 / 2.0).max((2 * cfg.mss) as f64);
        self.recover = self.max;
        self.in_recovery = true;
        self.cwnd = self.ssthresh + 3.0 * cfg.mss as f64;
        true
    }

    /// A retransmission timeout with data in flight. Once the backoff has
    /// saturated at `max_rto` each expiry is a strike, and too many in a
    /// row give up (`true`) instead of retransmitting forever. Otherwise
    /// collapse to one segment (Reno), back off, and rewind to `una`
    /// (go-back-N).
    fn on_timeout(&mut self, cfg: &TcpConfig) -> bool {
        if self.rto >= cfg.max_rto {
            self.rto_strikes += 1;
            if cfg.max_rto_strikes > 0 && self.rto_strikes >= cfg.max_rto_strikes {
                return true;
            }
        }
        self.ssthresh = (self.flight() as f64 / 2.0).max((2 * cfg.mss) as f64);
        self.cwnd = cfg.mss as f64;
        self.dupacks = 0;
        self.in_recovery = false;
        self.rto = (self.rto * 2).min(cfg.max_rto);
        self.rtt_sample = None;
        self.nxt = self.una;
        false
    }

    /// RFC 6298 (2.2, 2.3): fold a sample into SRTT and RTTVAR.
    fn rtt_update(&mut self, cfg: &TcpConfig, sample: Duration) {
        let srtt = match self.srtt {
            None => {
                self.rttvar = sample / 2;
                sample
            }
            Some(srtt) => {
                self.rttvar = (self.rttvar * 3 + srtt.abs_diff(sample)) / 4;
                (srtt * 7 + sample) / 8
            }
        };
        self.srtt = Some(srtt);
        self.rto = (srtt + (self.rttvar * 4).max(Duration::from_millis(1)))
            .clamp(cfg.min_rto, cfg.max_rto);
    }

    /// The persist (zero-window probe) interval at the current backoff.
    fn persist_interval(&self) -> Duration {
        self.rto.max(Duration::from_millis(500)) * (1 << self.persist_backoff.min(6))
    }

    /// Sender invariants, checked after every transmit pass and ACK.
    fn debug_check(&self, cfg: &TcpConfig) {
        debug_assert!(self.una <= self.nxt && self.nxt <= self.max);
        debug_assert!(self.cwnd >= cfg.mss as f64);
        debug_assert!(self.ssthresh >= (2 * cfg.mss) as f64);
        debug_assert!(self.q.len() <= cfg.send_buf as usize);
    }
}

/// The receive side: RFC 793's receive sequence variables (IRS, RCV.NXT,
/// and RCV.WND derived from the buffer), the in-order queue, out-of-order
/// reassembly and the staged read.
#[derive(Default)]
struct Receiver {
    irs: u64,
    nxt: u64,
    q: ChunkDeque,
    ooo: BTreeMap<u64, Bytes>,
    ooo_bytes: usize,
    fin: bool,
    /// Staged chunk-read demand serviced at event time ([`PendingRead`]).
    pending: Option<PendingRead>,
    /// The chunk list a scalar read ([`Tcb::read_copy`]) collects into,
    /// kept between reads so it allocates nothing.
    scratch: Vec<Bytes>,
}

impl Receiver {
    /// The peer's SYN at `seq` opens the receive sequence space.
    fn sync(&mut self, seq: u64) {
        self.irs = seq;
        self.nxt = seq + 1;
    }

    /// Advertised receive window. Computed from the in-order buffer only
    /// (as real stacks do), so that duplicate ACKs generated while
    /// out-of-order data accumulates carry an *unchanged* window and are
    /// recognizable as duplicates (RFC 5681's definition).
    fn wnd(&self, cfg: &TcpConfig) -> u32 {
        (cfg.recv_buf as usize)
            .saturating_sub(self.q.len())
            .min(u32::MAX as usize) as u32
    }

    /// A segment's payload at `seq`: queue what is in order and what that
    /// makes contiguous, buffer what lies past a hole within the window.
    /// Returns the bytes newly in order.
    fn on_data(&mut self, cfg: &TcpConfig, seq: u64, data: Bytes) -> u64 {
        if seq + data.len() as u64 <= self.nxt {
            return 0; // complete duplicate
        }
        if seq > self.nxt {
            let window_end = self.nxt + self.wnd(cfg) as u64;
            if seq < window_end && !self.ooo.contains_key(&seq) {
                let keep = ((window_end - seq) as usize).min(data.len());
                self.ooo_bytes += keep;
                self.ooo.insert(seq, data.slice(..keep));
            }
            return 0;
        }
        let before = self.nxt;
        let mut next = Some((seq, data));
        while let Some((seq, data)) = next {
            // Trim a stale prefix (partial overlap) before queueing.
            if seq + data.len() as u64 > self.nxt {
                self.accept(cfg, data.slice((self.nxt - seq) as usize..));
            }
            // Then any out-of-order segment that is now contiguous.
            next = self
                .ooo
                .first_entry()
                .filter(|e| *e.key() <= self.nxt)
                .map(|e| e.remove_entry());
            if let Some((_, d)) = &next {
                self.ooo_bytes -= d.len();
            }
        }
        self.nxt - before
    }

    fn accept(&mut self, cfg: &TcpConfig, data: Bytes) {
        // Respect the receive buffer: anything beyond our advertised window
        // is dropped (the peer will retransmit once we open up). The check
        // must mirror `wnd()` exactly — in particular it must NOT count
        // out-of-order bytes, which are admitted under the same advertised
        // window: otherwise a buffered OOO tail can permanently starve the
        // retransmitted head segment and wedge the connection (seen as an
        // RTO-backoff spiral in the 16-stream striping bench). Memory is
        // still bounded: q ≤ recv_buf here and ooo ≤ wnd at insert.
        let keep = (cfg.recv_buf as usize)
            .saturating_sub(self.q.len())
            .min(data.len());
        // Zero-copy: the queue shares the segment's buffer until the
        // application drains it.
        self.q.push_bytes(if keep == data.len() {
            data
        } else {
            data.slice(..keep)
        });
        self.nxt += keep as u64;
    }

    /// The peer's FIN at `seq`: `true` if it is next in order and new.
    fn on_fin(&mut self, seq: u64) -> bool {
        let take = seq == self.nxt && !self.fin;
        self.fin |= take;
        self.nxt += u64::from(take);
        take
    }

    /// Hand queued bytes to the application through `pop`, which pops some
    /// and returns how many. Also `true` when that reopened a nearly
    /// closed window to at least one MSS: the window-update point, where
    /// the sender must be told (it has no other way to learn).
    fn take(
        &mut self,
        cfg: &TcpConfig,
        pop: impl FnOnce(&mut ChunkDeque) -> usize,
    ) -> (usize, bool) {
        let before = self.wnd(cfg);
        let n = pop(&mut self.q);
        (n, before < cfg.mss && self.wnd(cfg) >= cfg.mss)
    }

    /// Receiver invariants, checked after every segment, read and service
    /// pass. Before the peer's SYN (`nxt` still 0) there is no receive
    /// sequence space to check.
    fn debug_check(&self, cfg: &TcpConfig, bytes_rcvd: u64) {
        if self.nxt == 0 {
            return;
        }
        debug_assert!(self.q.len() <= cfg.recv_buf as usize, "recv_q overflow");
        let ooo = || self.ooo.values().map(Bytes::len).sum::<usize>();
        debug_assert_eq!(self.ooo_bytes, ooo(), "ooo_bytes");
        debug_assert!(self.ooo.keys().all(|&seq| seq > self.nxt), "stale ooo");
        let fin = u64::from(self.fin);
        debug_assert_eq!(self.nxt, self.irs + 1 + bytes_rcvd + fin, "rcv_nxt");
    }
}

/// Which of a connection's timers an event is for. The host stack carries
/// it, unread, from [`Tcb::timer_events`] back to [`Tcb::on_timer`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Timer {
    Rtx,
    Persist,
    TimeWait,
}

/// A timer's deadline with lazy host-side scheduling. `covered` is the
/// earliest still-outstanding firing event (host bookkeeping only; it never
/// affects simulated behaviour). Restarting the timer (the per-ACK rtx
/// pattern) just moves `deadline`: the existing event fires at the old
/// time, sees the deadline is later, and is rescheduled once. This keeps
/// one live event per timer instead of one per restart.
#[derive(Debug, Default)]
struct TimerSlot {
    deadline: Option<SimTime>,
    covered: Option<SimTime>,
}

/// The retransmission, persist and TIME-WAIT timers, indexed by [`Timer`].
#[derive(Debug, Default)]
struct Timers([TimerSlot; 3]);

impl Timers {
    fn deadline(&self, which: Timer) -> Option<SimTime> {
        self.0[which as usize].deadline
    }

    fn arm(&mut self, which: Timer, at: SimTime) {
        self.0[which as usize].deadline = Some(at);
    }

    fn disarm(&mut self, which: Timer) {
        self.0[which as usize].deadline = None;
    }

    /// The firing events to schedule so that one exists at or before each
    /// armed deadline, one per slot in [`Timer`] order. A deadline moved
    /// later rides the event already outstanding.
    fn events(&mut self, now: SimTime) -> impl Iterator<Item = (Timer, SimTime)> + '_ {
        let all = [Timer::Rtx, Timer::Persist, Timer::TimeWait];
        all.into_iter()
            .zip(&mut self.0)
            .filter_map(move |(which, slot)| {
                let at = slot.deadline?.max(now);
                if slot.covered.is_some_and(|c| c <= at) {
                    return None;
                }
                slot.covered = Some(at);
                Some((which, at))
            })
    }

    /// An event for `which` arrived at `now`: is the timer due? A due timer
    /// is disarmed, so a second event at the same instant cannot fire it
    /// twice; one whose deadline moved later is left for [`events`](Self::events)
    /// to reschedule.
    fn fire(&mut self, which: Timer, now: SimTime) -> bool {
        let slot = &mut self.0[which as usize];
        if slot.covered == Some(now) {
            slot.covered = None;
        }
        let due = slot.deadline.is_some_and(|d| d <= now);
        if due {
            slot.deadline = None;
        }
        due
    }
}

/// A write parked in `TcpStream::write_block` with its
/// un-queued remainder staged on the TCB. While staged, every
/// [`Tcb::service_pending`] pass (run from `flush_conn` after each stack
/// mutation) refills freed send-buffer space *at event time*, under the
/// same lock that processed the ACK, so the segments it generates leave in
/// that same flush. The writer task itself is woken only once everything
/// is queued or the connection dies, instead of once per ACK.
pub(crate) struct PendingWrite {
    /// The part of the block not yet accepted.
    rest: Bytes,
    err: Option<io::ErrorKind>,
    waker: Waker,
}

impl PendingWrite {
    /// Every byte queued, or the connection failed.
    fn done(&self) -> bool {
        self.rest.is_empty() || self.err.is_some()
    }

    fn result(self) -> io::Result<()> {
        self.err.map_or(Ok(()), |e| Err(e.into()))
    }
}

/// A blocking read parked in `TcpStream::read_chunks_min` or `read_some`
/// with its demand staged on the TCB: arriving segments are drained into
/// `out` at delivery time, in the reads a reader task would issue, so
/// window-update ACKs keep their emission points and `wnd` values, and the
/// reader wakes once `min` bytes are buffered, EOF is reached, or the
/// connection errors.
pub(crate) struct PendingRead {
    /// Wake once this many bytes have been collected.
    min: usize,
    /// Per-call drain cap (see [`Tcb::drain`]).
    max: usize,
    out: Vec<Bytes>,
    got: usize,
    eof: bool,
    err: Option<io::ErrorKind>,
    waker: Waker,
}

impl PendingRead {
    /// Demand met, EOF reached, or the connection failed.
    fn done(&self) -> bool {
        self.got >= self.min || self.eof || self.err.is_some()
    }

    /// The chunk list and the count of bytes appended to it (0 = EOF).
    /// Buffered bytes are delivered before an error, which resurfaces on
    /// the next call.
    fn result(self) -> (Vec<Bytes>, io::Result<usize>) {
        let read = match self.err {
            Some(e) if self.got == 0 => Err(e.into()),
            _ => Ok(self.got),
        };
        (self.out, read)
    }
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
    pub(crate) cfg: TcpConfig,
    pub(crate) state: State,
    pub local: SockAddr,
    pub remote: SockAddr,
    /// Listening port that spawned this connection (server side), used to
    /// notify the listener's accept queue on establishment.
    pub(crate) from_listener: Option<u16>,
    snd: Sender,
    rcv: Receiver,
    timers: Timers,
    /// Segments emitted and not yet drained by the host stack.
    out: Vec<Segment>,
    pub(crate) conn_wakers: Vec<Waker>,
    /// Waiters in `drain()`: woken only when the send queue fully empties
    /// (or the connection errors), not on every advancing ACK — a settle
    /// over a full window would otherwise take one host slice per ACK.
    pub(crate) drain_wakers: Vec<Waker>,
    became_established: bool,
    error: Option<io::ErrorKind>,
    /// Set when the owning socket handle has been dropped: the stack may
    /// reap the connection as soon as it reaches Closed, even on error.
    pub(crate) detached: bool,

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
            snd: Sender::new(&cfg, iss),
            rcv: Receiver::default(),
            timers: Timers::default(),
            out: Vec::new(),
            conn_wakers: Vec::new(),
            drain_wakers: Vec::new(),
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
        t.send_syn(now);
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
        t.rcv.sync(syn.seq);
        t.snd.wnd = syn.wnd;
        t.send_syn(now);
        t
    }

    // ---------------- segment building ----------------

    /// Build and queue one segment: the one place a segment is made. Its
    /// `ack` and `wnd` are read here, at emission, not when the stack
    /// drains it. One that occupies sequence space starts the
    /// retransmission timer if it is idle (RFC 6298 5.1).
    fn emit(&mut self, now: SimTime, flags: Flags, seq: u64, data: Bytes) {
        let (ack, wnd) = (self.rcv.nxt, self.rcv.wnd(&self.cfg));
        let seg = Segment {
            flags,
            seq,
            ack,
            wnd,
            data,
        };
        if seg.seq_len() > 0 && self.timers.deadline(Timer::Rtx).is_none() {
            self.timers.arm(Timer::Rtx, now + self.snd.rto);
        }
        self.stats.segs_sent += 1;
        self.stats.bytes_sent += seg.data.len() as u64;
        self.out.push(seg);
    }

    /// Our SYN in SYN-SENT, our SYN+ACK in SYN-RCVD.
    fn send_syn(&mut self, now: SimTime) {
        let flags = match self.state {
            State::SynSent => Flags::SYN,
            _ => Flags::SYN_ACK,
        };
        self.snd.nxt = self.snd.iss + 1;
        self.snd.max = self.snd.nxt;
        self.emit(now, flags, self.snd.iss, Bytes::new());
    }

    fn send_ack(&mut self, now: SimTime) {
        self.emit(now, Flags::ACK, self.snd.nxt, Bytes::new());
    }

    /// Our FIN at `snd.nxt` (it consumes no window).
    fn send_fin(&mut self, now: SimTime) {
        let seq = self.snd.advance(1);
        self.emit(now, Flags::FIN_ACK, seq, Bytes::new());
    }

    /// One data segment of `len` bytes at `snd.nxt`.
    fn send_data(&mut self, now: SimTime, len: usize, retransmission: bool) {
        let copied = &mut self.stats.bytes_copied;
        let (flags, seq, data) = self.snd.carve(now, len, !retransmission, copied);
        self.emit(now, flags, seq, data);
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

    /// Space left in the send buffer.
    pub fn send_space(&self) -> usize {
        (self.cfg.send_buf as usize).saturating_sub(self.snd.q.len())
    }

    fn wake(wakers: &mut Vec<Waker>) {
        for w in wakers.drain(..) {
            w.wake();
        }
    }

    fn wake_all(&mut self) {
        Self::wake(&mut self.conn_wakers);
        Self::wake(&mut self.drain_wakers);
        // Staged I/O holders observe the state change on pickup (their
        // collect call re-runs a service pass, which surfaces the error or
        // EOF); waking is spurious-safe.
        if let Some(pw) = &self.snd.pending {
            pw.waker.wake();
        }
        if let Some(pr) = &self.rcv.pending {
            pr.waker.wake();
        }
    }

    fn fail(&mut self, kind: io::ErrorKind) {
        self.error = Some(kind);
        self.state = State::Closed;
        self.timers.disarm(Timer::Rtx);
        self.timers.disarm(Timer::Persist);
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
        !self.rcv.q.is_empty() || self.rcv.fin || self.error.is_some()
    }

    fn enter_established(&mut self) {
        self.state = State::Established;
        self.became_established = true;
        self.snd.syn_rtx_left = self.cfg.syn_retries;
        self.timers.disarm(Timer::Rtx);
        self.wake_all();
    }

    fn enter_time_wait(&mut self, now: SimTime) {
        self.state = State::TimeWait;
        self.timers.arm(Timer::TimeWait, now + self.cfg.time_wait);
    }

    // ---------------- application interface ----------------

    /// Send-buffer room the application may fill now: `Ok(0)` = wait (no
    /// room, or the handshake is still running), `Err` = the connection
    /// can no longer send.
    fn write_room(&self) -> io::Result<usize> {
        if let Some(e) = self.error {
            return Err(e.into());
        }
        match self.state {
            State::SynSent | State::SynRcvd => Ok(0), // wait for establish
            s if !s.can_send() || self.snd.fin_queued => Err(io::ErrorKind::BrokenPipe.into()),
            _ => Ok(self.send_space()),
        }
    }

    /// Try to queue application bytes for sending.
    pub fn try_write(&mut self, now: SimTime, buf: &[u8]) -> io::Result<WriteOutcome> {
        let room = self.write_room()?;
        if room == 0 {
            return Ok(WriteOutcome::Full);
        }
        let n = room.min(buf.len());
        self.snd.q.push_slice(&buf[..n]);
        self.stats.bytes_copied += n as u64;
        self.transmit(now);
        Ok(WriteOutcome::Wrote(n))
    }

    /// Like [`try_write`](Tcb::try_write), but takes ownership of a block:
    /// accepted bytes enter the send queue as a zero-copy slice of the
    /// caller's buffer. The caller retries with `block.slice(n..)` on a
    /// partial accept.
    fn try_write_bytes(&mut self, now: SimTime, block: &Bytes) -> io::Result<WriteOutcome> {
        let room = self.write_room()?;
        if room == 0 {
            return Ok(WriteOutcome::Full);
        }
        let n = room.min(block.len());
        self.snd.q.push_prefix(block, n);
        self.transmit(now);
        Ok(WriteOutcome::Wrote(n))
    }

    /// Hand queued received bytes to the application through `take`, which
    /// pops some from the queue and returns how many, then send the window
    /// update the sender may be waiting for. Both read paths consume
    /// through here, so ACKs leave at the same points on either.
    fn read_queued(
        &mut self,
        now: SimTime,
        take: impl FnOnce(&mut ChunkDeque) -> usize,
    ) -> io::Result<ReadOutcome> {
        if self.rcv.q.is_empty() {
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
            if self.rcv.fin {
                return Ok(ReadOutcome::Eof);
            }
            return Ok(ReadOutcome::Empty);
        }
        let (n, update) = self.rcv.take(&self.cfg, take);
        if update && !self.state.is_terminal() {
            self.send_ack(now);
        }
        self.debug_check_receiver();
        Ok(ReadOutcome::Read(n))
    }

    /// Try to read received bytes.
    pub fn try_read(&mut self, now: SimTime, buf: &mut [u8]) -> io::Result<ReadOutcome> {
        let read = self.read_queued(now, |q| q.copy_out(buf))?;
        if let ReadOutcome::Read(n) = read {
            self.stats.bytes_copied += n as u64;
        }
        Ok(read)
    }

    // ---------------- staged (event-time serviced) I/O ----------------
    //
    // A task that would wait on the socket stages its remaining work on
    // the TCB and parks once. Every `flush_conn` runs
    // [`Tcb::service_pending`] *before* draining `out`, so the refill and
    // drain calls happen at the simulated instant of the ACK or segment
    // that made room or data, under the same lock, and their segments leave
    // in that flush: one wake per demand instead of one per ACK or segment.
    // A connection has one reader and one writer at a time; where several
    // tasks write one socket, they already take turns under a lock.

    /// Write `block()` zero-copy — the block, and how many of its bytes the
    /// caller copied to make it — queuing what the send buffer takes now
    /// and staging the rest; or, with a write staged (a connection has one
    /// writer at a time), collect that one as
    /// [`collect_staged_write`](Self::collect_staged_write) does. `None` =
    /// not all queued; the writer parks, and asked again collects it.
    pub(crate) fn write_staged(
        &mut self,
        now: SimTime,
        block: impl FnOnce() -> (Bytes, usize),
        waker: Waker,
    ) -> Option<io::Result<()>> {
        if self.snd.pending.is_some() {
            return self.collect_staged_write(now);
        }
        let (rest, copied) = block();
        self.stats.bytes_copied += copied as u64;
        let mut pw = PendingWrite {
            rest,
            err: None,
            waker,
        };
        if self.refill(now, &mut pw) {
            return Some(pw.result());
        }
        self.snd.pending = Some(pw);
        None
    }

    /// Read at least `min` bytes as zero-copy chunks appended to `out`:
    /// drain what is queued now and stage the rest of the demand. `None` =
    /// staged, `out` taken; the reader parks until
    /// [`collect_staged_read`](Self::collect_staged_read) hands it back.
    pub(crate) fn read_staged(
        &mut self,
        now: SimTime,
        min: usize,
        max: usize,
        out: &mut Vec<Bytes>,
        waker: Waker,
    ) -> Option<(Vec<Bytes>, io::Result<usize>)> {
        let mut pr = PendingRead {
            min: min.max(1),
            max: max.max(1),
            out: std::mem::take(out),
            got: 0,
            eof: false,
            err: None,
            waker,
        };
        if self.drain(now, &mut pr) {
            return Some(pr.result());
        }
        debug_assert!(self.rcv.pending.is_none(), "one reader at a time");
        self.rcv.pending = Some(pr);
        None
    }

    /// Is a read demand staged, waiting for
    /// [`collect_staged_read`](Self::collect_staged_read)?
    pub(crate) fn read_is_staged(&self) -> bool {
        self.rcv.pending.is_some()
    }

    /// Read into `buf`: a demand for 1 to `buf.len()` bytes staged as
    /// [`read_staged`](Self::read_staged) stages one, into the TCB's own
    /// chunk list, or picked up once it is staged; `None` = still short.
    /// What it collected is copied into `buf` and counted in
    /// `bytes_copied`.
    pub(crate) fn read_copy(
        &mut self,
        now: SimTime,
        buf: &mut [u8],
        waker: Waker,
    ) -> Option<io::Result<usize>> {
        let (mut chunks, read) = if self.read_is_staged() {
            self.collect_staged_read(now)?
        } else {
            let mut scratch = std::mem::take(&mut self.rcv.scratch);
            self.read_staged(now, 1, buf.len(), &mut scratch, waker)?
        };
        let mut n = 0;
        for c in chunks.drain(..) {
            buf[n..n + c.len()].copy_from_slice(&c);
            n += c.len();
        }
        self.stats.bytes_copied += n as u64;
        self.rcv.scratch = chunks;
        Some(read)
    }

    /// Queue as much of `pw`'s remainder as fits; `true` once it is done.
    fn refill(&mut self, now: SimTime, pw: &mut PendingWrite) -> bool {
        while !pw.done() {
            match self.try_write_bytes(now, &pw.rest) {
                Ok(WriteOutcome::Wrote(n)) => pw.rest = pw.rest.slice(n..),
                Ok(WriteOutcome::Full) => return false,
                Err(e) => pw.err = Some(e.kind()),
            }
        }
        true
    }

    /// Drain queued bytes toward `pr`'s demand; `true` once it is done.
    fn drain(&mut self, now: SimTime, pr: &mut PendingRead) -> bool {
        while !pr.done() {
            // Per-call drain cap `max(remaining, max)`, the granularity of
            // a BufReader with capacity `max` doing large-read bypass:
            // reads for at least `max` bytes pass through at full size
            // (shrinking as data arrives), smaller tails still drain up to
            // `max`. It fixes the window-update ACK points and
            // advertised-window values on the wire.
            let cap = (pr.min - pr.got).max(pr.max);
            match self.read_queued(now, |q| q.pop_chunks(cap, &mut pr.out)) {
                Ok(ReadOutcome::Read(n)) => pr.got += n,
                Ok(ReadOutcome::Empty) => return false,
                Ok(ReadOutcome::Eof) => pr.eof = true,
                Err(e) => pr.err = Some(e.kind()),
            }
        }
        true
    }

    /// Service staged I/O at event time. Write side first, so segments
    /// generated by a refill precede any window-update ACK from the drain
    /// within one flush. Each side wakes its task once, when it is done.
    pub fn service_pending(&mut self, now: SimTime) {
        if let Some(mut pw) = self.snd.pending.take() {
            if !pw.done() && self.refill(now, &mut pw) {
                pw.waker.wake();
            }
            self.snd.pending = Some(pw);
        }
        if let Some(mut pr) = self.rcv.pending.take() {
            if !pr.done() && self.drain(now, &mut pr) {
                pr.waker.wake();
            }
            self.rcv.pending = Some(pr);
        }
        self.debug_check_receiver();
    }

    /// Task-side pickup of a staged write after a wake. Runs a service pass
    /// first (so wakes racing ahead of the next flush still progress), then
    /// reports `None` = still waiting (re-park) or the write's result, with
    /// the write unstaged.
    pub fn collect_staged_write(&mut self, now: SimTime) -> Option<io::Result<()>> {
        self.service_pending(now);
        if !self.snd.pending.as_ref()?.done() {
            return None;
        }
        self.snd.pending.take().map(PendingWrite::result)
    }

    /// Task-side pickup of a staged read after a wake, as
    /// [`collect_staged_write`](Self::collect_staged_write): `None` =
    /// re-park, otherwise the chunk list staged with the read, whatever
    /// arrived appended to it, and the count of bytes appended (0 = EOF).
    pub fn collect_staged_read(&mut self, now: SimTime) -> Option<(Vec<Bytes>, io::Result<usize>)> {
        self.service_pending(now);
        if !self.rcv.pending.as_ref()?.done() {
            return None;
        }
        self.rcv.pending.take().map(PendingRead::result)
    }

    // ---------------- the state machine ----------------

    /// Graceful close: send FIN once queued data drains.
    pub fn start_close(&mut self, now: SimTime) {
        match self.state {
            State::SynSent => {
                self.state = State::Closed;
                self.timers.disarm(Timer::Rtx);
                self.wake_all();
            }
            State::SynRcvd | State::Established | State::CloseWait if !self.snd.fin_queued => {
                self.snd.fin_queued = true;
                self.state = match self.state {
                    State::CloseWait => State::LastAck,
                    _ => State::FinWait1,
                };
                self.transmit(now);
            }
            _ => {}
        }
    }

    /// Hard abort: emit RST, drop everything.
    pub fn abort(&mut self, now: SimTime) {
        if !self.state.is_terminal() {
            self.emit(now, Flags::RST, self.snd.nxt, Bytes::new());
        }
        self.fail(io::ErrorKind::ConnectionAborted);
    }

    /// Pump as many segments as windows allow.
    pub fn transmit(&mut self, now: SimTime) {
        if !self.state.sends() {
            return;
        }
        loop {
            match self.snd.next_len(&self.cfg) {
                0 => break,
                len => self.send_data(now, len, false),
            }
        }
        // The FIN consumes no window.
        if self.snd.fin_pending() && self.snd.nxt == self.snd.data_end() {
            self.send_fin(now);
        }
        // Peer window exhausted with data pending: arm the persist timer.
        let idle = self.timers.deadline(Timer::Persist).is_none();
        if self.snd.unsent() > 0 && self.snd.wnd == 0 && idle {
            self.timers
                .arm(Timer::Persist, now + self.snd.persist_interval());
        }
        self.snd.debug_check(&self.cfg);
    }

    /// Retransmit one MSS from `snd.una` (fast retransmit / partial ACK).
    fn retransmit_head(&mut self, now: SimTime) {
        let saved_nxt = self.snd.nxt;
        self.snd.nxt = self.snd.una;
        let len = self.snd.q.len().min(self.cfg.mss as usize);
        if len > 0 {
            self.send_data(now, len, true);
        } else if self.snd.fin_pending() {
            self.send_fin(now);
        }
        self.snd.nxt = saved_nxt.max(self.snd.nxt);
        self.snd.rtt_sample = None; // Karn: the measurement is now ambiguous
    }

    /// The timer events the host stack must schedule now; it hands each
    /// back to [`on_timer`](Self::on_timer) when it fires.
    pub(crate) fn timer_events(
        &mut self,
        now: SimTime,
    ) -> impl Iterator<Item = (Timer, SimTime)> + '_ {
        self.timers.events(now)
    }

    /// A timer event at `now`. `false` = not due (the deadline moved later
    /// or was disarmed since it was scheduled): nothing happened but the
    /// event bookkeeping.
    pub(crate) fn on_timer(&mut self, which: Timer, now: SimTime) -> bool {
        if !self.timers.fire(which, now) {
            return false;
        }
        match which {
            Timer::Rtx => self.on_rto(now),
            Timer::Persist => self.on_persist(now),
            Timer::TimeWait if self.state == State::TimeWait => {
                self.state = State::Closed;
                self.wake_all();
            }
            Timer::TimeWait => {}
        }
        true
    }

    fn on_rto(&mut self, now: SimTime) {
        match self.state {
            State::SynSent | State::SynRcvd => {
                if self.snd.syn_rtx_left == 0 {
                    self.fail(io::ErrorKind::TimedOut);
                    return;
                }
                self.snd.syn_rtx_left -= 1;
                self.snd.rto = (self.snd.rto * 2).min(self.cfg.max_rto);
                self.send_syn(now);
            }
            s if s.sends() && self.snd.flight() > 0 => {
                self.stats.rtx_timeouts += 1;
                if self.snd.on_timeout(&self.cfg) {
                    self.fail(io::ErrorKind::TimedOut);
                    return;
                }
                self.transmit(now);
            }
            _ => {}
        }
    }

    /// Persist timer: probe the closed window with one byte beyond it. The
    /// probe consumes sequence space so the receiver's ACK of it is
    /// in-window and re-synchronizes the peer window; the retransmission
    /// timer covers a lost probe.
    fn on_persist(&mut self, now: SimTime) {
        if self.snd.wnd > 0 || self.snd.unsent() == 0 {
            self.snd.persist_backoff = 0;
            return;
        }
        let start = (self.snd.nxt - self.snd.una) as usize;
        let byte = self.snd.q.slice(start, 1, &mut self.stats.bytes_copied);
        let seq = self.snd.advance(1);
        self.emit(now, Flags::ACK, seq, byte);
        self.snd.persist_backoff = (self.snd.persist_backoff + 1).min(6);
        self.timers
            .arm(Timer::Persist, now + self.snd.persist_interval());
    }

    /// Process an incoming segment.
    pub fn on_segment(&mut self, now: SimTime, seg: Segment) {
        self.stats.segs_rcvd += 1;
        match self.state {
            _ if seg.flags.rst => self.on_rst(),
            State::SynSent => self.on_segment_syn_sent(now, seg),
            State::SynRcvd => self.on_segment_syn_rcvd(now, seg),
            State::Closed => {
                // Stack-level code answers with RST for closed connections.
            }
            _ => self.on_segment_synchronized(now, seg),
        }
        self.debug_check_receiver();
    }

    fn debug_check_receiver(&self) {
        self.rcv.debug_check(&self.cfg, self.stats.bytes_rcvd);
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
            if seg.ack != self.snd.iss + 1 {
                self.emit(now, Flags::RST, seg.ack, Bytes::new());
                return;
            }
            self.rcv.sync(seg.seq);
            self.snd.una = self.snd.iss + 1;
            self.snd.wnd = seg.wnd;
            self.enter_established();
            self.send_ack(now);
            self.transmit(now);
        } else if seg.flags.syn {
            // Simultaneous open (TCP splicing, paper Fig. 1 right): both
            // sides sent SYN; acknowledge with SYN+ACK and move to SYN-RCVD,
            // restarting the retransmission timer for it.
            self.rcv.sync(seg.seq);
            self.snd.wnd = seg.wnd;
            self.state = State::SynRcvd;
            self.send_syn(now);
            self.timers.arm(Timer::Rtx, now + self.snd.rto);
        }
    }

    fn on_segment_syn_rcvd(&mut self, now: SimTime, seg: Segment) {
        if seg.flags.syn && !seg.flags.ack && seg.seq == self.rcv.irs {
            // Duplicate SYN (peer missed our SYN+ACK): resend it.
            self.send_syn(now);
            return;
        }
        if seg.flags.ack && seg.ack == self.snd.iss + 1 {
            self.snd.una = self.snd.iss + 1;
            self.snd.wnd = seg.wnd;
            self.enter_established();
            if seg.flags.syn {
                // SYN+ACK in simultaneous open: acknowledge it.
                self.send_ack(now);
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
        if seg.flags.ack {
            self.process_ack(now, &seg);
        }
        let had = seg.seq_len() > 0;
        let fin_seq = seg.seq + seg.data.len() as u64;
        if !seg.data.is_empty() {
            self.stats.bytes_rcvd += self.rcv.on_data(&self.cfg, seg.seq, seg.data);
        }
        if seg.flags.fin && self.rcv.on_fin(fin_seq) {
            match self.state {
                State::Established => self.state = State::CloseWait,
                // Our FIN not yet acked: simultaneous close.
                State::FinWait1 => self.state = State::Closing,
                State::FinWait2 => self.enter_time_wait(now),
                _ => {}
            }
        }
        if had {
            self.send_ack(now);
        }
    }

    fn process_ack(&mut self, now: SimTime, seg: &Segment) {
        if seg.ack > self.snd.una && seg.ack <= self.snd.max {
            if self.snd.on_new_ack(&self.cfg, now, seg.ack, seg.wnd) {
                // NewReno partial ACK: the next hole is lost too.
                self.stats.fast_retransmits += 1;
                self.retransmit_head(now);
            }
            self.stats.srtt = self.snd.srtt;
            // RFC 6298 (5.3): restart the timer on new data acked.
            if self.snd.flight() > 0 {
                self.timers.arm(Timer::Rtx, now + self.snd.rto);
            } else {
                self.timers.disarm(Timer::Rtx);
            }
            // Close-sequence transitions driven by our FIN being acked.
            if self.snd.fin_acked {
                match self.state {
                    State::FinWait1 => self.state = State::FinWait2,
                    State::Closing => self.enter_time_wait(now),
                    State::LastAck => {
                        self.state = State::Closed;
                        self.wake_all();
                    }
                    _ => {}
                }
            }
            if self.snd.q.is_empty() {
                Self::wake(&mut self.drain_wakers);
            }
            self.transmit(now);
        } else if seg.ack == self.snd.una {
            // Window update or duplicate ACK.
            if !seg.data.is_empty() || seg.flags.fin {
                self.snd.wnd = seg.wnd;
            } else if seg.wnd != self.snd.wnd {
                if self.snd.wnd == 0 {
                    self.timers.disarm(Timer::Persist);
                    self.snd.persist_backoff = 0;
                }
                self.snd.wnd = seg.wnd;
                self.transmit(now);
            } else if self.snd.flight() > 0 {
                self.on_dupack(now);
            }
        }
        // ACK beyond snd.max or below snd.una (old duplicate): ignore.
        self.snd.debug_check(&self.cfg);
    }

    fn on_dupack(&mut self, now: SimTime) {
        self.stats.dup_acks_rcvd += 1;
        if self.snd.in_recovery {
            // Inflate: each dup ACK means one segment left the network.
            self.snd.cwnd += self.cfg.mss as f64;
            self.transmit(now);
        } else if self.snd.count_dupack(&self.cfg) {
            self.stats.fast_retransmits += 1;
            self.retransmit_head(now);
            self.timers.arm(Timer::Rtx, now + self.snd.rto);
        }
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

    /// Hand `segs` to `to` at `now`. A correct exchange never resets.
    fn deliver(to: &mut Tcb, segs: Vec<Segment>, now: SimTime) {
        for s in segs {
            assert!(!s.flags.rst, "unexpected {s:?}");
            to.on_segment(now, s);
        }
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
            deliver(b, out_a, now);
            deliver(a, out_b, now);
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

    /// One step of a scripted exchange between ends `A` and `B`.
    #[derive(Clone, Copy)]
    enum Op {
        /// Take both ends' output first, then deliver each to the other.
        Cross,
        /// Deliver everything this end has queued.
        Send(usize),
        /// Drop everything this end has queued (there must be something).
        Lose(usize),
        /// Fire this end's retransmission timer; it must resend.
        Rto(usize),
        Write(usize, &'static [u8]),
        Close(usize),
        Pump,
        Expect(State, State),
    }

    const A: usize = 0;
    const B: usize = 1;

    /// Simultaneous open and close (TCP splicing, paper Fig. 1) and the
    /// losses around them, against the state machine alone. Every case
    /// ends with both ends' states as listed, every byte delivered once
    /// and in order, no RST, and TIME-WAIT expiry closing what lingers.
    #[test]
    fn simultaneous_open_and_close_matrix() {
        use Op::*;
        use State::*;
        const DATA: [Op; 6] = [
            Write(A, b"from a"),
            Write(B, b"from b"),
            Pump,
            Close(A),
            Pump,
            Close(B),
        ];
        let cases: [(&str, bool, &[Op], [State; 2]); 6] = [
            (
                "the SYNs cross",
                true,
                &[
                    Cross,
                    Expect(SynRcvd, SynRcvd),
                    Pump,
                    Expect(Established, Established),
                ],
                [TimeWait, Closed],
            ),
            (
                "the SYNs cross, a's SYN-ACK is lost and its RTO resends it",
                true,
                &[Cross, Lose(A), Rto(A), Expect(SynRcvd, SynRcvd), Pump],
                [TimeWait, Closed],
            ),
            (
                "a's SYN is lost, so it learns of b from b's SYN",
                true,
                &[Lose(A), Send(B), Expect(SynRcvd, SynSent), Pump],
                [TimeWait, Closed],
            ),
            (
                "the FINs cross",
                false,
                &[
                    Write(A, b"from a"),
                    Write(B, b"from b"),
                    Pump,
                    Close(A),
                    Close(B),
                    Cross,
                    Expect(Closing, Closing),
                ],
                [TimeWait, TimeWait],
            ),
            (
                "a's FIN crosses b's last data segment",
                false,
                &[
                    Write(A, b"from a"),
                    Pump,
                    Write(B, b"last from b"),
                    Close(A),
                    Cross,
                    Expect(FinWait1, CloseWait),
                    Pump,
                    Close(B),
                ],
                [TimeWait, Closed],
            ),
            (
                "a's FIN is lost",
                false,
                &[
                    Write(B, b"from b"),
                    Pump,
                    Close(A),
                    Lose(A),
                    Rto(A),
                    Pump,
                    Expect(FinWait2, CloseWait),
                    Close(B),
                ],
                [TimeWait, Closed],
            ),
        ];
        for (name, simultaneous, script, end) in cases {
            let cfg = TcpConfig::default();
            let mut ends = if simultaneous {
                [
                    Tcb::client(cfg, la(), ra(), 1000, T0),
                    Tcb::client(cfg, ra(), la(), 5000, T0),
                ]
            } else {
                established_pair().into()
            };
            let (mut now, mut sent) = (T0, [Vec::new(), Vec::new()]);
            let tail: &[Op] = if simultaneous { &DATA } else { &[] };
            for &op in script.iter().chain(tail).chain(&[Pump]) {
                let [a, b] = &mut ends;
                match op {
                    Cross => {
                        let (out_a, out_b) = (a.take_out(), b.take_out());
                        deliver(b, out_a, now);
                        deliver(a, out_b, now);
                    }
                    Send(i) => {
                        let (from, to) = if i == A { (a, b) } else { (b, a) };
                        deliver(to, from.take_out(), now);
                    }
                    Lose(i) => assert!(!ends[i].take_out().is_empty(), "{name}: no loss"),
                    Rto(i) => {
                        now = ends[i].timers.deadline(Timer::Rtx).expect(name);
                        assert!(ends[i].on_timer(Timer::Rtx, now), "{name}");
                        assert!(!ends[i].out.is_empty(), "{name}: nothing resent");
                    }
                    Write(i, m) => {
                        let wrote = ends[i].try_write(now, m).unwrap();
                        assert_eq!(wrote, WriteOutcome::Wrote(m.len()), "{name}");
                        sent[i].extend_from_slice(m);
                    }
                    Close(i) => ends[i].start_close(now),
                    Pump => pump(a, b, now),
                    Expect(sa, sb) => assert_eq!([a.state, b.state], [sa, sb], "{name}"),
                }
            }
            assert_eq!(ends.each_ref().map(|t| t.state), end, "{name}");
            for (i, t) in ends.iter_mut().enumerate() {
                if let Some(expiry) = t.timers.deadline(Timer::TimeWait) {
                    assert!(t.on_timer(Timer::TimeWait, expiry), "{name}");
                }
                assert_eq!((t.state, t.error()), (Closed, None), "{name}");
                let (mut got, mut buf) = (Vec::new(), [0u8; 64]);
                while let ReadOutcome::Read(n) = t.try_read(now, &mut buf).unwrap() {
                    got.extend_from_slice(&buf[..n]);
                }
                assert_eq!(t.try_read(now, &mut buf).unwrap(), ReadOutcome::Eof);
                assert_eq!(got, sent[1 - i], "{name}: bytes into end {i}");
            }
        }
    }

    // ---------------- the parts alone ----------------

    /// The sender with no peer: the congestion window is spent in whole
    /// segments, Nagle holds a sub-MSS tail behind data in flight, and a
    /// timeout collapses the window and rewinds to the first hole.
    #[test]
    fn sender_spends_whole_segments_and_holds_the_nagle_tail() {
        let cfg = TcpConfig {
            send_buf: 1 << 20,
            ..TcpConfig::default()
        };
        let mut snd = Sender::new(&cfg, 100);
        (snd.una, snd.nxt, snd.max, snd.wnd) = (101, 101, 101, 1 << 20);
        snd.cwnd = 3.7 * MSS as f64;
        snd.q.push_slice(&vec![1u8; 5 * MSS + 100]);
        let send_all = |snd: &mut Sender, cfg: &TcpConfig| {
            let mut sizes = Vec::new();
            while let n @ 1.. = snd.next_len(cfg) {
                snd.carve(T0, n, true, &mut 0);
                sizes.push(n);
            }
            sizes
        };
        assert_eq!(
            send_all(&mut snd, &cfg),
            [MSS; 3],
            "floor(cwnd / MSS), no runt"
        );
        assert_eq!(
            snd.rtt_sample,
            Some((101 + MSS as u64, T0)),
            "first one timed"
        );
        assert!(!snd.on_new_ack(&cfg, t(10), snd.nxt, 1 << 20));
        assert_eq!(snd.srtt, Some(Duration::from_millis(10)));
        assert_eq!(
            send_all(&mut snd, &cfg),
            [MSS; 2],
            "slow start grew cwnd by one MSS"
        );
        assert_eq!(
            (snd.next_len(&cfg), snd.unsent()),
            (0, 100),
            "Nagle holds the tail"
        );
        let nodelay = TcpConfig {
            nodelay: true,
            ..cfg
        };
        assert_eq!(snd.next_len(&nodelay), 100, "TCP_NODELAY releases it");
        assert!(!snd.on_timeout(&cfg));
        assert_eq!((snd.cwnd, snd.ssthresh), (MSS as f64, 2.0 * MSS as f64));
        assert_eq!(
            (snd.nxt, snd.rto),
            (snd.una, 2 * cfg.min_rto),
            "go-back-N, backed off"
        );
    }

    /// The receiver alone: segments past a hole wait and join the queue
    /// when it fills, and only the read that reopens a nearly closed window
    /// to one MSS is the window-update point.
    #[test]
    fn receiver_reassembles_and_finds_the_window_update_point() {
        let cfg = TcpConfig {
            recv_buf: 4 * MSS as u32,
            ..TcpConfig::default()
        };
        let mut rcv = Receiver::default();
        rcv.sync(1000);
        let at = |k: usize| 1001 + (k * MSS) as u64;
        let seg = |k: usize| Bytes::from(vec![k as u8; MSS]);
        assert_eq!(rcv.on_data(&cfg, at(2), seg(2)), 0, "past a hole");
        assert_eq!(rcv.on_data(&cfg, at(1), seg(1)), 0);
        assert_eq!(rcv.ooo_bytes, 2 * MSS);
        assert_eq!(
            rcv.on_data(&cfg, at(0), seg(0)),
            3 * MSS as u64,
            "hole filled"
        );
        assert_eq!(rcv.on_data(&cfg, at(0), seg(0)), 0, "a duplicate");
        assert_eq!(rcv.on_data(&cfg, at(3), seg(3)), MSS as u64);
        assert_eq!(rcv.wnd(&cfg), 0);
        let mut buf = vec![0u8; 4 * MSS];
        let (head, rest) = buf.split_at_mut(100);
        assert_eq!(rcv.take(&cfg, |q| q.copy_out(head)), (100, false));
        assert_eq!(
            rcv.take(&cfg, |q| q.copy_out(&mut rest[..MSS])),
            (MSS, true)
        );
        assert_eq!(
            rcv.take(&cfg, |q| q.copy_out(&mut rest[MSS..])),
            (3 * MSS - 100, false)
        );
        let want: Vec<u8> = (0..4).flat_map(|k| vec![k as u8; MSS]).collect();
        assert_eq!(buf, want, "in order, once");
        assert!(
            rcv.on_fin(at(4)) && !rcv.on_fin(at(4)),
            "the FIN counts once"
        );
        rcv.debug_check(&cfg, 4 * MSS as u64);
    }

    /// The timers alone: each armed deadline gets one event, in `Timer`
    /// order; a deadline moved later rides the event already scheduled,
    /// which finds it not due and is rescheduled once; a due timer fires
    /// once and disarms.
    #[test]
    fn a_deadline_moved_later_rides_the_scheduled_event() {
        let mut timers = Timers::default();
        let events = |timers: &mut Timers, now| timers.events(now).collect::<Vec<_>>();
        timers.arm(Timer::TimeWait, t(500));
        timers.arm(Timer::Rtx, t(200));
        let both = [(Timer::Rtx, t(200)), (Timer::TimeWait, t(500))];
        assert_eq!(events(&mut timers, T0), both);
        assert!(events(&mut timers, T0).is_empty(), "already covered");
        timers.arm(Timer::Rtx, t(300));
        assert!(
            events(&mut timers, t(100)).is_empty(),
            "rides the 200 ms event"
        );
        assert!(!timers.fire(Timer::Rtx, t(200)), "not due at 200 ms");
        assert_eq!(events(&mut timers, t(200)), [(Timer::Rtx, t(300))]);
        assert!(timers.fire(Timer::Rtx, t(300)) && !timers.fire(Timer::Rtx, t(300)));
        assert_eq!(timers.deadline(Timer::Rtx), None, "firing disarms");
        // An overdue deadline fires now; one moved earlier gets its own event.
        timers.arm(Timer::Persist, t(250));
        timers.arm(Timer::TimeWait, t(400));
        let both = [(Timer::Persist, t(300)), (Timer::TimeWait, t(400))];
        assert_eq!(events(&mut timers, t(300)), both);
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
        assert_eq!(a.snd.q.len(), 0);
        assert_eq!(a.snd.flight(), 0);
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
        let cwnd0 = a.snd.cwnd as u64;
        for s in burst {
            b.on_segment(T0, s);
        }
        for s in b.take_out() {
            a.on_segment(T0, s);
        }
        assert!(a.snd.cwnd as u64 > cwnd0, "slow start grows cwnd on ACK");
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
        assert_eq!(a.snd.flight(), 0, "recovery completes");
        assert!(!a.snd.in_recovery);
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
        let deadline = a.timers.deadline(Timer::Rtx).expect("rtx armed");
        assert!(a.on_timer(Timer::Rtx, deadline));
        assert_eq!(a.stats.rtx_timeouts, 1);
        assert_eq!(a.snd.cwnd as u64, 1460, "cwnd collapses to 1 MSS");
        let rtx = a.take_out();
        assert_eq!(rtx.len(), 1, "one segment after collapse");
        assert_eq!(rtx[0].seq, a.snd.una);
        // Delivery after retransmission completes the transfer.
        for s in rtx {
            b.on_segment(deadline, s);
        }
        for s in b.take_out() {
            a.on_segment(deadline, s);
        }
        assert!(
            a.snd.flight() > 0,
            "go-back-N continues with remaining data"
        );
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
            let now = a
                .timers
                .deadline(Timer::Rtx)
                .expect("rtx stays armed until abort");
            assert!(a.on_timer(Timer::Rtx, now));
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
        let now = a.timers.deadline(Timer::Rtx).unwrap();
        assert!(a.on_timer(Timer::Rtx, now));
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
        let d1 = a.timers.deadline(Timer::Rtx).unwrap();
        assert!(a.on_timer(Timer::Rtx, d1));
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
            let now = a.timers.deadline(Timer::Rtx).unwrap();
            assert!(a.on_timer(Timer::Rtx, now));
            assert_eq!(a.take_out().len(), 1, "SYN retransmitted");
        }
        let now = a.timers.deadline(Timer::Rtx).unwrap();
        assert!(a.on_timer(Timer::Rtx, now));
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
        let expiry = a.timers.deadline(Timer::TimeWait).expect("TIME-WAIT armed");
        assert!(a.on_timer(Timer::TimeWait, expiry));
        assert_eq!(a.state, State::Closed);
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
        assert!(b.rcv.q.len() <= 4096);
        assert!(
            a.snd.flight() == 0,
            "sender stalled, everything sent is acked"
        );
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
                    if b.rcv.q.is_empty() && a.snd.flight() == 0 && a.snd.q.is_empty() {
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
        assert_eq!(a.snd.rto, Duration::from_millis(200));
        // A much longer path raises RTO above the minimum.
        a.try_write(t(40), b"pong").unwrap();
        let seg = a.take_out().remove(0);
        b.on_segment(t(1040), seg);
        let ack = b.take_out().remove(0);
        a.on_segment(t(1040), ack);
        assert!(a.snd.rto > Duration::from_millis(200));
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
        assert_eq!(a.snd.wnd, 0, "window closed");
        assert!(!a.snd.q.is_empty(), "data still pending");
        // The app drains, but the window-update ACK is LOST.
        let mut sink = vec![0u8; 1 << 16];
        assert!(matches!(
            b.try_read(T0, &mut sink).unwrap(),
            ReadOutcome::Read(_)
        ));
        let _lost_update = b.take_out();
        // Persist timer fires: the probe byte must be sequence-consuming.
        assert!(a.timers.deadline(Timer::Persist).is_some(), "persist armed");
        let t1 = a.timers.deadline(Timer::Persist).unwrap();
        assert!(a.on_timer(Timer::Persist, t1));
        let probe = a.take_out();
        assert_eq!(probe.len(), 1);
        assert_eq!(probe[0].data.len(), 1);
        let before_nxt = a.snd.nxt;
        assert_eq!(probe[0].seq_end(), before_nxt, "probe advanced snd_nxt");
        // The receiver ACKs it with the fresh window, unwedging the sender.
        for s in probe {
            b.on_segment(t1, s);
        }
        for s in b.take_out() {
            a.on_segment(t1, s);
        }
        assert!(a.snd.wnd > 0, "window re-opened via the probe ACK");
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
        assert!(b.rcv.ooo_bytes > 0, "tail buffered out of order");
        let rcv_before = b.rcv.nxt;
        // The retransmitted head MUST be accepted even though recv_q+ooo
        // exceeds the nominal buffer.
        b.on_segment(T0, head);
        assert!(
            b.rcv.nxt > rcv_before + 1000,
            "head + drained tail advanced rcv_nxt"
        );
        let mut buf = vec![0u8; 1 << 16];
        match b.try_read(T0, &mut buf).unwrap() {
            ReadOutcome::Read(n) => assert!(n >= 6 * 1024, "got {n}"),
            o => panic!("{o:?}"),
        }
    }

    /// Reading after a RST surfaces ConnectionReset.
    #[test]
    fn rst_mid_connection_errors_reads_and_writes() {
        let (mut a, mut b) = established_pair();
        b.abort(T0);
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
            let dl = match a.timers.deadline(Timer::Rtx) {
                Some(d) => d,
                None => break,
            };
            assert!(a.on_timer(Timer::Rtx, dl));
            let _ = a.take_out();
            assert!(a.snd.cwnd as u64 >= 1460, "cwnd floor");
            assert!(a.snd.ssthresh >= (2 * 1460) as f64, "ssthresh floor");
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
            while let ReadOutcome::Read(_) = b
                .read_queued(T0, |q| q.pop_chunks(usize::MAX, &mut sink))
                .unwrap()
            {
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

    /// The refill `service_pending` performs, without a waker: one
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

    /// A waker with no task behind it, so its wakes are no-ops.
    fn idle_waker() -> Waker {
        gridsim_net::Sim::new(0)
            .scheduler()
            .handle()
            .waker(gridsim_net::TaskId(u64::MAX))
    }

    /// `TcpStream::write_block` of a block larger than the send buffer:
    /// the remainder is staged once and `service_pending` alone carries
    /// it, ACK by ACK, to a byte-exact delivery.
    #[test]
    fn block_larger_than_send_buffer_stages_once_and_completes() {
        let (mut a, mut b) = established_pair();
        let block = Bytes::from((0..300_000).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
        assert!(a
            .write_staged(T0, || (block.clone(), 0), idle_waker())
            .is_none());
        assert_eq!(a.snd.q.len(), a.cfg.send_buf as usize, "a prefix is queued");
        assert!(a.collect_staged_write(T0).is_none(), "buffer still full");
        let (_, delivered) = clocked_transfer(&mut a, &mut b, |a| a.service_pending(T0), None);
        assert_eq!(delivered, block);
        assert!(matches!(a.collect_staged_write(T0), Some(Ok(()))));
    }

    /// `TcpStream::read_some`: the staged demand takes no more than the
    /// caller's buffer, the pickup copies it there, and the rest stays
    /// queued for the next read, which finds it at once.
    #[test]
    fn scalar_read_stages_and_takes_at_most_its_buffer() {
        let (mut a, mut b) = established_pair();
        let mut buf = [0u8; 10];
        assert!(b.read_copy(T0, &mut buf, idle_waker()).is_none());
        assert!(
            b.read_copy(T0, &mut buf, idle_waker()).is_none(),
            "nothing yet"
        );
        a.try_write(T0, b"hello, staged world").unwrap();
        pump(&mut a, &mut b, T0);
        assert_eq!(
            b.read_copy(T0, &mut buf, idle_waker()).unwrap().unwrap(),
            10
        );
        assert_eq!(&buf, b"hello, sta");
        assert_eq!(b.read_copy(T0, &mut buf, idle_waker()).unwrap().unwrap(), 9);
        assert_eq!(&buf[..9], b"ged world");
        assert_eq!(b.stats.bytes_copied, 19, "both copies counted");
    }

    /// The receiver's invariants are checked, not assumed: bookkeeping that
    /// drifted trips the check at the next segment.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "ooo_bytes")]
    fn receiver_bookkeeping_drift_is_caught() {
        let (mut a, mut b) = established_pair();
        b.rcv.ooo_bytes += 1;
        a.try_write(T0, b"x").unwrap();
        pump(&mut a, &mut b, T0);
    }

    #[test]
    fn fractional_cwnd_emits_only_full_segments() {
        let (mut a, mut b) = bigwin_pair();
        // Congestion avoidance, window not a whole number of segments.
        a.snd.ssthresh = (4 * MSS) as f64;
        a.snd.cwnd = 10.37 * MSS as f64;
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
        assert_eq!(a.snd.flight(), 10_000, "advertised window fully used");
        for s in burst {
            b.on_segment(T0, s);
        }
        assert_eq!(b.rcv.q.len(), 10_000);
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
                assert_eq!(b.rcv.q.len(), 2 * MSS + 100, "and the ACK releases it");
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
