//! The exactly-once machine (DESIGN.md §7a, §8): what a channel's two ends
//! know of its sequence numbers, as two pure state machines, [`TxChannel`]
//! and [`RxChannel`], which the session layer, the receive pump and link
//! recovery drive. Each input returns what its driver must do; nothing
//! here touches a scheduler, a lock, a timer or a socket. Sequence numbers
//! never travel: a pump counts a channel's MSGs from the [`Cursor`] its
//! link started at. A watermark a peer sends enters through
//! [`TxChannel::ack`] (a CACK, a RECONFIG-ack entry) or
//! [`TxChannel::resume`] (a RESUME reply), bounded by what was sent.
//!
//! Invariants, checked after every transition in debug builds and in every
//! state by the exhaustive checker in this file's tests (the last only
//! there, where the pumps are in view):
//! - acked ≤ next and wire ≤ next;
//! - the retained tail, when not empty, is contiguous and ends at next − 1;
//! - retained bytes stay within the budget unless one message is held;
//! - a replay starts at the receiver's watermark;
//! - a record's pump count is the number of pumps holding its channel.

use bytes::Bytes;
use std::collections::VecDeque;
use std::io;

/// A message's sequence number on its channel, as [`TxChannel::send`]
/// hands it to the driver that writes it.
#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq)]
pub(crate) struct Seq(u64);

/// Where a pump reads a channel: the sequence number of its next MSG. A
/// message the pump holds keeps the cursor it arrived at. The default,
/// message 0, is where a link whose preamble or OPEN names the channel
/// carries it from (an OPEN precedes the channel's first message, on
/// whichever link it is written). Made only here; drivers hand it back,
/// or to a codec.
#[derive(Clone, Copy, Debug, Default, Hash, PartialEq, Eq)]
pub(crate) struct Cursor(u64);

/// The watermark a RESUME reply carries.
impl From<Cursor> for u64 {
    fn from(c: Cursor) -> u64 {
        c.0
    }
}

/// The sender's record of one channel; it outlives every link the channel
/// rides.
#[derive(Clone, Debug, Default, Hash, PartialEq, Eq)]
pub(crate) struct TxChannel {
    /// SND.NXT: what the next `send` numbers.
    nxt: u64,
    /// First sequence number not yet written to the current stack.
    wire: u64,
    /// SND.UNA: the receiver's cumulative delivered count.
    una: u64,
    /// Retained `(seq, payload)`s for replay, oldest first.
    tail: VecDeque<(u64, Bytes)>,
    bytes: usize,
    /// Byte budget of `tail` ([`GridEnv::resend_budget`]), and the most
    /// it held, measured before eviction.
    ///
    /// [`GridEnv::resend_budget`]: crate::node::GridEnv::resend_budget
    budget: usize,
    peak: usize,
}

impl TxChannel {
    pub(crate) fn new(budget: usize) -> TxChannel {
        TxChannel {
            budget,
            ..TxChannel::default()
        }
    }

    /// Send: number `payload` and retain it for replay. Past the budget the
    /// oldest are evicted, never this message. The driver writes the
    /// returned `seq` if [`owes`](Self::owes).
    pub(crate) fn send(&mut self, payload: &Bytes) -> Seq {
        let seq = self.nxt;
        self.nxt += 1;
        self.bytes += payload.len();
        self.tail.push_back((seq, payload.clone()));
        self.peak = self.peak.max(self.bytes);
        while self.bytes > self.budget && self.tail.len() > 1 {
            self.pop();
        }
        self.check();
        Seq(seq)
    }

    /// Is `seq` still to be written? Not once a recovery's replay carried it.
    pub(crate) fn owes(&self, seq: Seq) -> bool {
        self.wire <= seq.0
    }

    /// Written: `seq` went down the current stack.
    pub(crate) fn written(&mut self, seq: Seq) {
        self.wire = self.wire.max(seq.0 + 1);
        self.check();
    }

    /// The receiver's delivered count from a CACK or a RECONFIG ack, and
    /// what it covers pruned at once: a channel that stops sending keeps
    /// nothing its receiver has. Cumulative, so a late one changes nothing.
    /// One beyond what was sent is refused (false): it would prune what the
    /// receiver never had.
    pub(crate) fn ack(&mut self, delivered: u64) -> bool {
        let ok = delivered <= self.nxt;
        if ok {
            self.una = self.una.max(delivered);
            self.prune(self.una);
        }
        self.check();
        ok
    }

    /// The RESUME reply: the receiver delivered `e` messages. The payloads
    /// to replay from `e` on, all counted as written; an error if the
    /// budget evicted part of that gap, or `e` is more than was sent.
    pub(crate) fn resume(&mut self, channel: u64, e: u64) -> io::Result<Vec<Bytes>> {
        let oldest = self.nxt - self.tail.len() as u64;
        if e < oldest {
            let gap = ResendOverflow {
                channel,
                acked: e,
                oldest,
            };
            return Err(io::Error::new(io::ErrorKind::InvalidData, gap));
        }
        if e > self.nxt {
            let why = format!(
                "cannot resume channel {channel}: {e} delivered, {} sent",
                self.nxt
            );
            return Err(io::Error::new(io::ErrorKind::InvalidData, why));
        }
        self.prune(e);
        self.wire = self.nxt;
        let from = self.tail.front().map_or(self.nxt, |&(s, _)| s);
        debug_assert_eq!(from, e, "a replay starts at the receiver's watermark");
        self.check();
        Ok(self.tail.iter().map(|(_, p)| p.clone()).collect())
    }

    /// `(retained bytes, their peak)`.
    pub(crate) fn stats(&self) -> (usize, usize) {
        (self.bytes, self.peak)
    }

    fn prune(&mut self, e: u64) {
        while self.tail.front().is_some_and(|&(s, _)| s < e) {
            self.pop();
        }
    }

    fn pop(&mut self) {
        if let Some((_, p)) = self.tail.pop_front() {
            self.bytes -= p.len();
        }
    }

    /// The first invariant that does not hold.
    fn broken(&self) -> Option<&'static str> {
        let n = self.tail.len() as u64;
        let ends = match (self.tail.front(), self.tail.back()) {
            (Some(f), Some(b)) => b.0 + 1 == self.nxt && b.0 + 1 - f.0 == n,
            _ => true,
        };
        let rules = [
            (self.una <= self.nxt, "acked ≤ next"),
            (self.wire <= self.nxt, "wire ≤ next"),
            (ends, "the retained tail is contiguous and ends at next − 1"),
            (
                self.bytes <= self.budget || n <= 1,
                "retained bytes within the budget",
            ),
        ];
        rules
            .into_iter()
            .find_map(|(holds, rule)| (!holds).then_some(rule))
    }

    fn check(&self) {
        debug_assert_eq!(self.broken(), None, "{self:?}");
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

/// The receiver's record of one channel, node-wide: a multiplexed link
/// carries channels of several ports, and a resume may re-anchor a channel
/// on another port's listener.
#[derive(Clone, Debug, Default, Hash, PartialEq, Eq)]
pub(crate) struct RxChannel {
    /// RCV.NXT: messages delivered, the watermark a resuming sender
    /// replays from.
    nxt: u64,
    /// Generation of the last link that resumed the channel (see
    /// [`spent`](Self::spent)).
    gen: u64,
    /// Pumps holding the channel (briefly 2 while a resume supersedes a
    /// stale pump).
    pumps: u32,
    /// The sender announced a clean close (CLOSE): the channel will never
    /// resume, though its link stays up.
    closed: bool,
    /// The CACK cadence: delivered bytes no CACK covered, all delivered
    /// bytes, those when the idle flush was armed, and whether it is.
    unacked: usize,
    total: u64,
    seen: u64,
    armed: bool,
}

/// What the receiver's driver does after a delivery or an idle flush.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Cadence {
    Quiet,
    /// Arm the idle flush (again).
    Arm,
    /// Send `CACK{channel, delivered}`.
    Cack(u64),
}

impl RxChannel {
    /// Pump open: a pump takes the channel on, at message 0 or at the
    /// cursor its RESUME reply gave.
    pub(crate) fn open(&mut self) {
        self.pumps += 1;
    }

    /// The RESUME reply on a link of generation `gen` (the receiving
    /// node's count of resumes, this one included): the link carries the
    /// channel from RCV.NXT.
    pub(crate) fn resume(&mut self, gen: u64) -> Cursor {
        self.gen = self.gen.max(gen);
        Cursor(self.nxt)
    }

    /// RCV.NXT, for a RECONFIG ack.
    pub(crate) fn mark(&self) -> u64 {
        self.nxt
    }

    /// The MSG at a pump's cursor `at` arrived: `Some` to deliver it, `None`
    /// to drop it, a duplicate another link delivered.
    pub(crate) fn arrive(&self, at: &mut Cursor) -> Option<Cursor> {
        debug_assert!(self.pumps > 0, "a pump that holds the channel");
        let msg = *at;
        at.0 += 1;
        self.due(msg).then_some(msg)
    }

    /// Is the message at `c` still to be delivered? One that waited for
    /// room may have been delivered meanwhile by another pump.
    pub(crate) fn due(&self, c: Cursor) -> bool {
        c.0 >= self.nxt
    }

    /// The message at `c` reached the application, or was drained with no
    /// port left to take it: RCV.NXT moves past it. The driver asked
    /// [`due`](Self::due) in the same step, so no other pump came between.
    pub(crate) fn claim(&mut self, c: Cursor) {
        debug_assert!(self.due(c), "{c:?} was delivered before");
        self.nxt = c.0 + 1;
    }

    /// [`claim`](Self::claim) the message at `c`, `bytes` long, for an
    /// acking port: a CACK every `every` bytes, and an idle flush armed
    /// meanwhile.
    pub(crate) fn deliver(&mut self, c: Cursor, bytes: usize, every: usize) -> Cadence {
        self.claim(c);
        self.total += bytes as u64;
        self.unacked += bytes;
        if self.unacked >= every {
            self.unacked = 0;
            Cadence::Cack(self.nxt)
        } else if !self.armed {
            (self.armed, self.seen) = (true, self.total);
            Cadence::Arm
        } else {
            Cadence::Quiet
        }
    }

    /// The idle tick: re-arm while the channel progresses; once it is idle,
    /// CACK what no CACK covered.
    pub(crate) fn idle(&mut self) -> Cadence {
        if self.total != self.seen {
            self.seen = self.total;
            return Cadence::Arm;
        }
        self.armed = false;
        match std::mem::take(&mut self.unacked) {
            0 => Cadence::Quiet,
            _ => Cadence::Cack(self.nxt),
        }
    }

    /// Release: a pump lets go, at the channel's CLOSE (`closed`) or at its
    /// own end (`clean`: every link under it ended in a clean EOF, so the
    /// channel will not resume). True for the last: stop the idle flush.
    pub(crate) fn release(&mut self, closed: bool, clean: bool) -> bool {
        debug_assert!(self.pumps > 0, "a pump that holds the channel");
        self.closed |= closed;
        self.pumps -= 1;
        let last = self.pumps == 0;
        if last {
            self.armed = false;
            self.closed |= clean;
        }
        last
    }

    /// Can the record go? No pump holds it, the channel will not resume,
    /// and no pump older than its last resume is alive (`oldest` is the
    /// oldest live pump's generation): such a pump may yet read an OPEN for
    /// it, and must find RCV.NXT there, not a fresh record that delivers
    /// the channel again. An aborted channel keeps its record for the
    /// resume handshake.
    pub(crate) fn spent(&self, oldest: u64) -> bool {
        self.pumps == 0 && self.closed && oldest >= self.gen
    }
}

#[cfg(test)]
mod tests {
    //! An exhaustive small-scope checker: a breadth-first search over every
    //! interleaving of both machines, driven as the session layer, the pumps
    //! and recovery drive them, joined by a modelled link. A link can be
    //! lost keeping any prefix of what was in flight, which its pump drains
    //! beside its successor's; one RECONFIG can run; CACKs are reordered or
    //! lost. Every state is checked for exactly-once FIFO per channel, the
    //! module's invariants and the refusal of a CACK beyond what was sent;
    //! a state with nothing left to do must have delivered everything and
    //! dropped every receive record. A violation panics with the steps
    //! that led to it. States are told apart by a 64-bit hash.

    use super::*;
    use std::collections::HashSet;
    use std::hash::{Hash, Hasher};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::rc::Rc;

    /// One byte a message, so the CACK cadence is every second message.
    const EVERY: usize = 2;

    /// Payload `id` is the one-byte slice `[id]`: channel `c`'s message `i`
    /// is `16 c + i`.
    static IDS: [u8; 64] = {
        let mut ids = [0; 64];
        let mut i = 0;
        while i < 64 {
            ids[i] = i as u8;
            i += 1;
        }
        ids
    };

    fn id(c: u8, i: u64) -> u8 {
        16 * c + i as u8
    }

    fn payload(id: u8) -> Bytes {
        Bytes::from_static(&IDS[id as usize..id as usize + 1])
    }

    #[derive(Clone, Copy, Debug)]
    struct Scope {
        chans: u8,
        msgs: u64,
        losses: u8,
        reconfigs: u8,
        /// The resend budget in messages (bytes).
        budget: usize,
        /// Whether the receiver acks: a CACK every second message, and the
        /// idle flush.
        cacks: bool,
    }

    /// A frame; a MSG carries its payload's id.
    #[derive(Clone, Copy, Debug, Hash, PartialEq, Eq)]
    enum Frame {
        Open(u8),
        Msg(u8, u8),
        Close(u8),
        Reconfig,
    }

    /// One data link, as the receiver's host sees it, and its pump.
    #[derive(Clone, Debug, Hash, PartialEq, Eq)]
    struct Link {
        gen: u64,
        q: VecDeque<Frame>,
        /// Not lost.
        up: bool,
        /// Every channel closed: the sender shut it cleanly.
        eof: bool,
        /// Frames a CLOSE's settle saw reach the receiver: a loss keeps them.
        floor: usize,
        /// The RECONFIG ack on its way back.
        rack: Option<Vec<(u8, u64)>>,
        /// The channels the pump holds, with their cursors.
        live: Vec<(u8, Cursor)>,
        held: Option<(u8, Cursor, u8)>,
        done: bool,
    }

    #[derive(Clone, Copy, Debug, Hash, PartialEq, Eq)]
    enum Phase {
        /// The current link carries writes.
        Up,
        /// It was lost: the gate's holder recovers.
        Down,
        /// The RESUME reply is on its way back.
        Resuming,
        /// The RECONFIG is written and the gate waits for its ack.
        Reconfiguring,
    }

    #[derive(Clone, Copy, Debug)]
    enum Move {
        Send(u8),
        Write(u8),
        Close(u8),
        Lose { keep: usize },
        Resume,
        Replay,
        Reconfig,
        ReconfigAck,
        Pump(usize),
        Deliver(usize),
        Idle(u8),
        Cack(usize),
    }

    #[derive(Clone, Debug, Hash, PartialEq, Eq)]
    struct World {
        tx: Vec<TxChannel>,
        /// Sent and retained while the write gate was held, not yet written.
        pend: Vec<Option<(Seq, u8)>>,
        closed: Vec<bool>,
        /// A send evicted a message the receiver had not acked.
        evicted: Vec<bool>,
        rx: Vec<Option<RxChannel>>,
        /// Messages the application received, per channel.
        got: Vec<u64>,
        /// Every link a pump still reads; the last is the sender's.
        links: Vec<Link>,
        gen: u64,
        phase: Phase,
        reply: Vec<(u8, u64)>,
        /// CACKs in flight that would still move a watermark, sorted.
        cacks: Vec<(u8, u64)>,
        losses: u8,
        reconfigs: u8,
        /// A resume failed as it may: the run is over.
        failed: bool,
    }

    type Checked<T> = Result<T, String>;

    impl World {
        fn new(sc: &Scope) -> World {
            let n = sc.chans as usize;
            let mut w = World {
                tx: vec![TxChannel::new(sc.budget); n],
                pend: vec![None; n],
                closed: vec![false; n],
                evicted: vec![false; n],
                rx: vec![None; n],
                got: vec![0; n],
                links: Vec::new(),
                gen: 0,
                phase: Phase::Up,
                reply: Vec::new(),
                cacks: Vec::new(),
                losses: 0,
                reconfigs: 0,
                failed: false,
            };
            // Channel 0 anchors the link; the rest ride an OPEN.
            let q = (1..sc.chans).map(Frame::Open).collect();
            w.link(vec![(0, Cursor::default())], q);
            w
        }

        /// A link assembles and its pump takes the preamble's channels on:
        /// the first step runs in the instant the pump is spawned, right
        /// after the RESUME reply, before any frame can reach it.
        fn link(&mut self, live: Vec<(u8, Cursor)>, q: VecDeque<Frame>) {
            for &(c, _) in &live {
                self.rx[c as usize]
                    .get_or_insert_with(RxChannel::default)
                    .open();
            }
            self.links.push(Link {
                gen: self.gen,
                q,
                up: true,
                eof: false,
                floor: 0,
                rack: None,
                live,
                held: None,
                done: false,
            });
        }

        fn cur(&mut self) -> &mut Link {
            self.links.last_mut().expect("a link")
        }

        fn enabled(&self, sc: &Scope) -> Vec<Move> {
            let mut v = Vec::new();
            if self.failed {
                return v;
            }
            let cur = self.links.last().expect("a link");
            let up = self.phase == Phase::Up;
            for c in 0..sc.chans {
                let i = c as usize;
                let idle = !self.closed[i] && self.pend[i].is_none();
                if idle && self.tx[i].nxt < sc.msgs {
                    v.push(Move::Send(c));
                }
                if up && self.pend[i].is_some() {
                    v.push(Move::Write(c));
                }
                if up && idle && self.tx[i].nxt == sc.msgs {
                    v.push(Move::Close(c));
                }
                if sc.cacks && self.rx[i].as_ref().is_some_and(|r| r.armed) {
                    v.push(Move::Idle(c));
                }
            }
            if self.losses < sc.losses && cur.up && !cur.eof && self.phase != Phase::Down {
                v.extend((cur.floor..=cur.q.len()).map(|keep| Move::Lose { keep }));
            }
            match self.phase {
                Phase::Down if self.closed.contains(&false) => v.push(Move::Resume),
                Phase::Resuming => v.push(Move::Replay),
                Phase::Up if self.reconfigs < sc.reconfigs && !cur.eof => v.push(Move::Reconfig),
                Phase::Reconfiguring if cur.rack.is_some() => v.push(Move::ReconfigAck),
                _ => {}
            }
            for (l, link) in self.links.iter().enumerate() {
                if link.held.is_some() {
                    v.push(Move::Deliver(l));
                } else if !link.done && (!link.q.is_empty() || !link.up || link.eof) {
                    v.push(Move::Pump(l));
                }
            }
            // A CACK is lost by never being delivered.
            for i in 0..self.cacks.len() {
                if i == 0 || self.cacks[i - 1] != self.cacks[i] {
                    v.push(Move::Cack(i));
                }
            }
            v
        }

        fn apply(&mut self, step: Move, sc: &Scope) -> Checked<()> {
            match step {
                Move::Send(c) => {
                    let tx = &mut self.tx[c as usize];
                    // One byte a message: the send evicts past the budget,
                    // and only then, what the receiver has not acked.
                    let kept = tx.nxt - tx.tail.len() as u64;
                    let held = tx.nxt + 1 - kept.max(tx.una);
                    self.evicted[c as usize] |= held as usize > sc.budget;
                    let p = id(c, tx.nxt);
                    let seq = tx.send(&payload(p));
                    // With the gate free the write follows at once.
                    self.pend[c as usize] = Some((seq, p));
                    if self.phase == Phase::Up {
                        self.apply(Move::Write(c), sc)?;
                    }
                }
                Move::Write(c) => {
                    let (seq, p) = self.pend[c as usize].take().expect("enabled");
                    if self.tx[c as usize].owes(seq) {
                        self.cur().q.push_back(Frame::Msg(c, p));
                        self.tx[c as usize].written(seq);
                    }
                }
                Move::Close(c) => {
                    self.closed[c as usize] = true;
                    let all = !self.closed.contains(&false);
                    let cur = self.cur();
                    cur.q.push_back(Frame::Close(c));
                    cur.floor = cur.q.len();
                    cur.eof = all;
                }
                Move::Lose { keep } => {
                    self.losses += 1;
                    let cur = self.cur();
                    cur.q.truncate(keep);
                    (cur.up, cur.rack) = (false, None);
                    self.reply.clear();
                    self.phase = Phase::Down;
                }
                Move::Resume => {
                    self.gen += 1;
                    let mut live = Vec::new();
                    self.reply.clear();
                    for c in (0..sc.chans).filter(|&c| !self.closed[c as usize]) {
                        let rx = self.rx[c as usize].get_or_insert_with(RxChannel::default);
                        let at = rx.resume(self.gen);
                        live.push((c, at));
                        self.reply.push((c, at.into()));
                    }
                    self.link(live, VecDeque::new());
                    self.phase = Phase::Resuming;
                }
                Move::Replay => {
                    let mut frames = Vec::new();
                    for &(c, e) in &self.reply {
                        let tx = &mut self.tx[c as usize];
                        let una = tx.una;
                        match tx.resume(c as u64, e) {
                            Ok(replay) => {
                                let want: Vec<_> = (e..tx.nxt).map(|i| payload(id(c, i))).collect();
                                if replay != want {
                                    return Err(format!("channel {c} replays {replay:?} from {e}"));
                                }
                                frames.extend(replay.iter().map(|p| Frame::Msg(c, p[0])));
                            }
                            // The budget evicted part of the gap, or a CACK
                            // newer than the reply pruned it: the recovery
                            // fails, and exactly-once holds.
                            Err(_) if self.evicted[c as usize] || e < una => {
                                self.failed = true;
                                return Ok(());
                            }
                            Err(err) => return Err(format!("channel {c} cannot resume: {err}")),
                        }
                    }
                    self.cur().q.extend(frames);
                    self.reply.clear();
                    self.phase = Phase::Up;
                }
                Move::Reconfig => {
                    self.reconfigs += 1;
                    self.cur().q.push_back(Frame::Reconfig);
                    self.phase = Phase::Reconfiguring;
                }
                Move::ReconfigAck => {
                    for (c, w) in self.cur().rack.take().expect("enabled") {
                        if !self.closed[c as usize] && !self.tx[c as usize].ack(w) {
                            return Err(format!("channel {c} refused the RECONFIG ack {w}"));
                        }
                    }
                    self.phase = Phase::Up;
                }
                Move::Pump(l) => self.pump(l)?,
                Move::Deliver(l) => {
                    let (c, at, p) = self.links[l].held.take().expect("enabled");
                    let rx = self.rx[c as usize]
                        .as_mut()
                        .ok_or("a delivery without its record")?;
                    if rx.due(at) {
                        let due = id(c, self.got[c as usize]);
                        if p != due {
                            return Err(format!(
                                "channel {c} delivered message {p} where {due} was due"
                            ));
                        }
                        self.got[c as usize] += 1;
                        if !sc.cacks {
                            rx.claim(at);
                        } else if let Cadence::Cack(w) = rx.deliver(at, 1, EVERY) {
                            self.cacks.push((c, w));
                        }
                    }
                }
                // The channel stays idle until a tick finds it so: a tick that
                // finds progress only re-arms, unseen.
                Move::Idle(c) => {
                    let rx = self.rx[c as usize].as_mut().expect("enabled");
                    let mut tick = rx.idle();
                    if tick == Cadence::Arm {
                        tick = rx.idle();
                    }
                    if let Cadence::Cack(w) = tick {
                        self.cacks.push((c, w));
                    }
                }
                Move::Cack(i) => {
                    let (c, w) = self.cacks.remove(i);
                    if !self.tx[c as usize].ack(w) {
                        return Err(format!("channel {c} refused the CACK {w}"));
                    }
                }
            }
            self.normalize();
            Ok(())
        }

        /// Forget what can no longer matter: a pump that is over (the
        /// sender's link stays), a CACK that would move no watermark, the
        /// peak a resend buffer reached, and how much was delivered beyond
        /// whether the idle flush saw it all.
        fn normalize(&mut self) {
            for tx in &mut self.tx {
                tx.peak = 0;
            }
            for rx in self.rx.iter_mut().flatten() {
                (rx.total, rx.seen) = ((rx.total != rx.seen) as u64, 0);
            }
            let n = self.links.len();
            let mut l = 0;
            self.links.retain(|link| {
                l += 1;
                l == n || !link.done
            });
            let (tx, closed) = (&self.tx, &self.closed);
            self.cacks
                .retain(|&(c, w)| !closed[c as usize] && w > tx[c as usize].una);
            self.cacks.sort_unstable();
        }

        /// One pump step: take the next frame, or end once the link has.
        fn pump(&mut self, l: usize) -> Checked<()> {
            let frame = self.links[l].q.pop_front();
            // A MSG on a channel the pump does not hold is corrupt and ends
            // the pump, as in the driver.
            let stray = matches!(frame, Some(Frame::Msg(c, _)) if !self.links[l].live.iter().any(|&(x, _)| x == c));
            let (Some(frame), false) = (frame, stray) else {
                let link = &mut self.links[l];
                let clean = link.eof && link.up;
                link.done = true;
                for (c, _) in std::mem::take(&mut link.live) {
                    self.release(c, false, clean);
                }
                let oldest = self.oldest();
                for rx in &mut self.rx {
                    if rx.as_ref().is_some_and(|r| r.spent(oldest)) {
                        *rx = None;
                    }
                }
                return Ok(());
            };
            let link = &self.links[l];
            let at = link.live.iter().position(|&(x, _)| x == c_of(&frame));
            match frame {
                Frame::Open(c) => {
                    if at.is_none() {
                        self.rx[c as usize]
                            .get_or_insert_with(RxChannel::default)
                            .open();
                        self.links[l].live.push((c, Cursor::default()));
                    }
                }
                Frame::Msg(c, p) => {
                    let i = at.expect("not stray");
                    let rx = self.rx[c as usize]
                        .as_ref()
                        .ok_or("a live channel without its record")?;
                    if let Some(at) = rx.arrive(&mut self.links[l].live[i].1) {
                        self.links[l].held = Some((c, at, p));
                    }
                }
                Frame::Close(c) => {
                    if let Some(i) = at {
                        self.links[l].live.remove(i);
                        self.release(c, true, false);
                    }
                }
                // Acked on stream 0; over a lost link the ack fails and the
                // pump ends.
                Frame::Reconfig if link.up => {
                    let marks = link
                        .live
                        .iter()
                        .map(|&(c, _)| (c, self.rx[c as usize].as_ref().expect("live").mark()));
                    let marks = marks.collect();
                    self.links[l].rack = Some(marks);
                }
                Frame::Reconfig => self.links[l].q.clear(),
            }
            Ok(())
        }

        fn release(&mut self, c: u8, closed: bool, clean: bool) {
            let oldest = self.oldest();
            let Some(rx) = self.rx[c as usize].as_mut() else {
                return;
            };
            rx.release(closed, clean);
            if rx.spent(oldest) {
                self.rx[c as usize] = None;
            }
        }

        /// The generation of the oldest live pump.
        fn oldest(&self) -> u64 {
            let live = self.links.iter().filter(|l| !l.done);
            live.map(|l| l.gen).min().unwrap_or(u64::MAX)
        }

        /// The invariants of every state.
        fn check(&self, sc: &Scope) -> Checked<()> {
            for (c, tx) in self.tx.iter().enumerate() {
                if let Some(what) = tx.broken() {
                    return Err(format!("channel {c}: {what}"));
                }
                let mut probe = tx.clone();
                if probe.ack(sc.msgs + 1) || probe != *tx {
                    return Err(format!("channel {c} took a CACK beyond what was sent"));
                }
            }
            for c in 0..sc.chans {
                let holding = (self.links.iter())
                    .filter(|l| l.live.iter().any(|&(x, _)| x == c))
                    .count();
                let pumps = self.rx[c as usize].as_ref().map_or(0, |r| r.pumps as usize);
                if pumps != holding {
                    return Err(format!(
                        "channel {c}: {pumps} pumps counted, {holding} hold it"
                    ));
                }
            }
            Ok(())
        }

        /// A state with nothing left to do delivered everything and kept
        /// no receive record, unless a resume failed as it may.
        fn finished(&self, sc: &Scope) -> Checked<()> {
            let all = self.got.iter().all(|&n| n == sc.msgs);
            if self.failed || (all && self.rx.iter().all(Option::is_none)) {
                return Ok(());
            }
            Err(format!(
                "stuck: received {:?}, records {:?}",
                self.got, self.rx
            ))
        }
    }

    fn c_of(f: &Frame) -> u8 {
        match f {
            Frame::Open(c) | Frame::Msg(c, _) | Frame::Close(c) => *c,
            Frame::Reconfig => u8::MAX,
        }
    }

    /// FNV-1a: states are hashed once each, and SipHash was a third of
    /// the search.
    struct Fnv(u64);

    impl Hasher for Fnv {
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        }

        fn finish(&self) -> u64 {
            self.0
        }
    }

    fn panicked(p: Box<dyn std::any::Any + Send>) -> String {
        let what = p.downcast_ref::<String>().cloned();
        what.or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    /// The steps that led to a state, shared with its siblings.
    struct Path(Option<Rc<Path>>, Move);

    fn trace(mut p: Option<&Rc<Path>>) -> Vec<Move> {
        let mut steps = Vec::new();
        while let Some(node) = p {
            steps.push(node.1);
            p = node.0.as_ref();
        }
        steps.reverse();
        steps
    }

    /// Explore every state `sc` reaches; panics with the path to the first
    /// one that breaks a rule. Returns the number of states.
    fn explore(sc: Scope) -> usize {
        let fingerprint = |w: &World| {
            let mut h = Fnv(0xcbf2_9ce4_8422_2325);
            w.hash(&mut h);
            h.finish()
        };
        let start = World::new(&sc);
        let mut seen = HashSet::from([fingerprint(&start)]);
        let mut level: Vec<(World, Option<Rc<Path>>)> = vec![(start, None)];
        let (mut edges, mut depth) = (0usize, 0usize);
        while !level.is_empty() {
            let mut next = Vec::new();
            for (w, path) in std::mem::take(&mut level) {
                let steps = w.enabled(&sc);
                let only_cacks = steps.iter().all(|s| matches!(s, Move::Cack(_)));
                let done = if only_cacks { w.finished(&sc) } else { Ok(()) };
                if let Err(e) = done {
                    let n = seen.len();
                    panic!(
                        "{e}\nafter {:?}\n({n} states)\nin {w:#?}",
                        trace(path.as_ref())
                    );
                }
                for step in steps {
                    edges += 1;
                    let mut s = w.clone();
                    let at = Some(Rc::new(Path(path.clone(), step)));
                    // A machine's own debug_assert fails the step too.
                    let checked = || s.apply(step, &sc).and_then(|()| s.check(&sc));
                    let checked = catch_unwind(AssertUnwindSafe(checked));
                    if let Err(e) = checked.unwrap_or_else(|p| Err(panicked(p))) {
                        let n = seen.len();
                        panic!(
                            "{e}\nafter {:?}\n({n} states)\nfrom {w:#?}",
                            trace(at.as_ref())
                        );
                    }
                    if seen.insert(fingerprint(&s)) {
                        next.push((s, at));
                    }
                }
            }
            level = next;
            depth += 1;
        }
        let states = seen.len();
        println!(
            "exactly-once checker, {sc:?}: {states} states, {edges} transitions, depth {depth}"
        );
        states
    }

    /// The scopes tier 1 explores in a few seconds of a debug build: one
    /// channel of four messages with its CACKs, and two channels of two,
    /// whose acks are each their own; one loss and, for one channel, one
    /// RECONFIG.
    #[test]
    fn one_channel_is_exactly_once_in_every_interleaving() {
        let sc = Scope {
            chans: 1,
            msgs: 4,
            losses: 1,
            reconfigs: 1,
            budget: 3,
            cacks: true,
        };
        assert!(explore(sc) > 50_000);
    }

    #[test]
    fn two_channels_are_exactly_once_in_every_interleaving() {
        let sc = Scope {
            chans: 2,
            msgs: 2,
            losses: 1,
            reconfigs: 0,
            budget: 3,
            cacks: false,
        };
        assert!(explore(sc) > 50_000);
    }

    /// Wider scopes, for a release build (`ci.sh --stage faults`, about a
    /// minute): two losses for one channel, and two channels of three
    /// messages or beside a RECONFIG. Two channels with two losses (4.3
    /// million states) hold a gigabyte of frontier, and 2 × 4 × 2 × 1 is
    /// out of reach.
    #[test]
    #[ignore]
    fn wider_scopes_are_exactly_once_in_every_interleaving() {
        for (chans, msgs, losses, reconfigs, cacks) in [
            (1, 4, 2, 0, true),
            (1, 3, 2, 1, true),
            (2, 2, 1, 1, false),
            (2, 3, 1, 0, false),
        ] {
            let budget = 3;
            explore(Scope {
                chans,
                msgs,
                losses,
                reconfigs,
                budget,
                cacks,
            });
        }
    }
}
