//! A routed stream: a byte stream tunneled frame by frame through the
//! relay, one end on each of two nodes' relay clients.

use bytes::Bytes;
use gridsim_net::{ctx, SimQueue};
use parking_lot::Mutex;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::Poll;

use super::{RelayClient, ROUTED_CHUNK};
use crate::drivers::blockio::chunks_until;
use crate::drivers::{BlockRead, BlockWrite};
use crate::link::Writer;
use crate::nameservice::GridId;
use crate::wire::Envelope;

/// Key of a routed stream in a client's table: `(peer, sid, opened_by_peer)`.
/// Both ends number the streams they open from 1, so the direction bit is
/// part of the identity.
pub(super) type StreamKey = (GridId, u64, bool);

/// Buffered chunks per routed stream before backpressure.
const STREAM_QUEUE: usize = 32;

pub(super) struct RsInner {
    client: RelayClient,
    peer: GridId,
    sid: u64,
    /// Did this node open the stream? Determines the direction bit.
    opener: bool,
    pub(super) rx: SimQueue<Bytes>,
    /// What a reader left of the chunk it took last.
    cursor: Mutex<Bytes>,
    pub(super) fin_sent: AtomicBool,
    /// Set only when the peer's FIN arrived — a *graceful* end of stream.
    /// Relay loss and NOPEER teardowns close `rx` without setting it, so
    /// readers can distinguish clean EOF from an abort.
    pub(super) fin_received: AtomicBool,
    sync: Mutex<SyncState>,
}

/// Close-barrier state of a stream (see [`RoutedStream::drain`]).
#[derive(Default)]
struct SyncState {
    /// SYNCs issued so far; each `drain` call takes the next number.
    sent: u64,
    /// Highest SYNC number the peer has answered.
    acked: u64,
    /// The `drain` caller parked on the answer.
    waker: Option<gridsim_net::Waker>,
}

/// An unanswered SYNC is sent again this often. Each resend also probes our
/// own relay connection, and draws a NOPEER or FIN once the relay or the
/// peer has forgotten the stream — so a recipient that died silently fails
/// the barrier instead of parking its caller.
const SYNC_RESEND: std::time::Duration = std::time::Duration::from_secs(1);

/// A byte stream tunneled through the relay ("routed messages" link).
/// Cloneable; implements `Read`/`Write` like a socket.
#[derive(Clone)]
pub struct RoutedStream {
    /// This handle's write in progress ([`poll_write`](Self::poll_write)),
    /// dropped first: a last handle's FIN takes the writer lock it may hold.
    tx: Tx,
    pub(super) inner: Arc<RsInner>,
}

/// A routed write that would block: the caller's bytes that are out, the
/// DATA frame going out now and the writer lock it is written under.
#[derive(Default)]
struct Tx {
    sent: usize,
    frame: Option<Bytes>,
    held: Option<Writer>,
}

/// A handle's clone shares the stream, not the write in progress.
impl Clone for Tx {
    fn clone(&self) -> Tx {
        Tx::default()
    }
}

impl RoutedStream {
    pub(super) fn new(client: RelayClient, peer: GridId, sid: u64, opener: bool) -> RoutedStream {
        RoutedStream {
            tx: Tx::default(),
            inner: Arc::new(RsInner {
                client,
                peer,
                sid,
                opener,
                rx: SimQueue::bounded(STREAM_QUEUE),
                cursor: Mutex::default(),
                fin_sent: AtomicBool::new(false),
                fin_received: AtomicBool::new(false),
                sync: Mutex::default(),
            }),
        }
    }

    pub fn peer(&self) -> GridId {
        self.inner.peer
    }

    pub(super) fn key(&self) -> StreamKey {
        (self.inner.peer, self.inner.sid, !self.inner.opener)
    }

    /// Tear the receive side down: readers drain what is queued and then
    /// see Eof, a parked [`drain`](Self::drain) fails.
    pub(super) fn close_rx(&self) {
        self.inner.rx.close();
        if let Some(w) = self.inner.sync.lock().waker.take() {
            w.wake();
        }
    }

    /// The peer answered SYNC `n`.
    pub(super) fn synced(&self, n: u64) {
        let mut st = self.inner.sync.lock();
        st.acked = st.acked.max(n);
        if let Some(w) = st.waker.take() {
            w.wake();
        }
    }

    /// If this is the stream's last handle, whose drop would send our FIN,
    /// send it here, awaited in the caller's poll: the drop then sends none.
    pub(crate) async fn fin_if_last(&self) {
        let last = Arc::strong_count(&self.inner) == 1;
        if let Some(fin) = last.then(|| self.inner.fin()).flatten() {
            let _ = self.inner.client.answer(self.inner.peer, fin).await;
        }
    }

    /// Give the stream up without our FIN: its last handle's drop sends none.
    pub(crate) fn abort(&self) {
        self.inner.fin_sent.store(true, Ordering::Relaxed);
    }

    /// Has the stream been torn down (FIN, relay loss, or peer death)?
    pub fn is_closed(&self) -> bool {
        self.inner.rx.is_closed()
    }

    /// Did the peer end the stream *gracefully* (its FIN arrived)? False
    /// while open and after abortive teardowns (relay loss, dead peer).
    pub fn fin_received(&self) -> bool {
        self.inner.fin_received.load(Ordering::Relaxed)
    }

    /// Wait until the peer has received every byte written so far: an
    /// in-band barrier, answered by the peer's pump once all earlier chunks
    /// sit in its end of the stream. A TCP-level drain of the relay
    /// connection would only confirm receipt by the relay host — whose
    /// queues can still lose the tail when the recipient's connection dies.
    /// `Err` if the stream is, or gets, torn down before the answer.
    pub fn drain(&self) -> io::Result<()> {
        let s = &self.inner;
        let (dir, sid) = (s.opener, s.sid);
        let n = {
            let mut st = s.sync.lock();
            st.sent += 1;
            st.sent
        };
        let mut resend_at = gridsim_net::ctx::now();
        // The wake for the next resend, cancelled when the answer is in.
        let mut _resend = None;
        loop {
            {
                let mut st = s.sync.lock();
                if st.acked >= n {
                    return Ok(());
                }
                if s.rx.is_closed() {
                    return Err(io::ErrorKind::ConnectionReset.into());
                }
                st.waker = Some(gridsim_net::ctx::waker());
            }
            if gridsim_net::ctx::now() >= resend_at {
                let sync = Envelope::Sync { dir, sid, n };
                ctx::block_on(s.client.send_inner(s.peer, sync))?;
                resend_at = gridsim_net::ctx::now() + SYNC_RESEND;
                let waker = gridsim_net::ctx::waker();
                _resend = Some(s.client.inner.sched.timer(resend_at, move || waker.wake()));
                // The send may have parked: look again before parking.
                continue;
            }
            gridsim_net::ctx::park("relay sync");
        }
    }

    /// Would a read return without parking (buffered bytes or EOF)?
    pub fn readable(&self) -> bool {
        !self.inner.rx.is_empty()
            || self.inner.rx.is_closed()
            || !self.inner.cursor.lock().is_empty()
    }

    /// The acceptor's late refusal, awaited in its task: what admitted the
    /// stream in `on_open` failed afterwards. The opener's end closes as on
    /// an abort.
    pub(crate) async fn refuse(&self, msg: &str) {
        let s = &self.inner;
        let why = msg.to_string();
        let refusal = Envelope::OpenErr { sid: s.sid, why };
        let _ = s.client.answer(s.peer, refusal).await;
    }

    /// The next received chunk, up to `cap` bytes of it, by ownership, or
    /// `None` at end of stream: `Pending` while none is queued, the task's
    /// waker registered on the receive queue.
    fn poll_chunk(&self, cap: usize) -> Poll<Option<Bytes>> {
        let mut chunk = std::mem::take(&mut *self.inner.cursor.lock());
        while chunk.is_empty() {
            let Some(next) = std::task::ready!(self.inner.rx.poll_pop()) else {
                return Poll::Ready(None);
            };
            chunk = next;
        }
        if chunk.len() > cap {
            let head = chunk.split_to(cap);
            *self.inner.cursor.lock() = chunk;
            return Poll::Ready(Some(head));
        }
        Poll::Ready(Some(chunk))
    }

    /// Signal end of stream to the peer.
    pub fn shutdown_write(&self) -> io::Result<()> {
        self.inner.send_fin()
    }
}

impl Read for RoutedStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        ctx::park_io(|| self.poll_read(buf))
    }
}

impl RoutedStream {
    /// [`Read::read`] without parking: `WouldBlock` while nothing is
    /// queued, the task's waker on the receive queue.
    pub(crate) fn poll_read(&self, buf: &mut [u8]) -> io::Result<usize> {
        let chunk = self.poll_next(buf.len())?;
        buf[..chunk.len()].copy_from_slice(&chunk);
        Ok(chunk.len())
    }

    /// Write all of `buf` as DATA frames, a [`ROUTED_CHUNK`] each, without
    /// parking: `WouldBlock` while the relay holds the peer BUSY, the
    /// writer lock is taken or a frame's bytes are unqueued, and asked again
    /// with the same bytes it goes on with the chunk it stopped in. A link
    /// that is down is `ConnectionReset`, never dialed.
    pub(crate) fn poll_write(&mut self, buf: &[u8]) -> io::Result<()> {
        let (s, tx) = (&self.inner, &mut self.tx);
        let mut write = || -> io::Result<()> {
            while tx.sent < buf.len() {
                let end = buf.len().min(tx.sent + ROUTED_CHUNK);
                if tx.frame.is_none() {
                    // An abortive teardown (relay loss, dead peer, reply-FIN
                    // from a failed-over peer) must fail the writer —
                    // otherwise a zombie stream keeps pumping DATA into the
                    // relay after a redial. After a graceful peer FIN,
                    // writes stay fire-and-forget.
                    if s.rx.is_closed() && !s.fin_received.load(Ordering::Relaxed) {
                        return Err(io::ErrorKind::ConnectionReset.into());
                    }
                    s.client.poll_ready(s.peer)?;
                    let (dir, sid, payload) = (s.opener, s.sid, &buf[tx.sent..end]);
                    let data = Envelope::Data { dir, sid, payload };
                    tx.frame = Some(data.send_to(s.peer).into_frame());
                }
                let frame = tx.frame.as_ref().expect("a frame going out");
                s.client.inner.link.poll_send(&mut tx.held, frame)?;
                (tx.sent, tx.frame) = (end, None);
            }
            Ok(())
        };
        let written = write();
        if !matches!(&written, Err(e) if e.kind() == io::ErrorKind::WouldBlock) {
            *tx = Tx::default();
        }
        written
    }

    /// [`poll_chunk`](Self::poll_chunk) as a read: empty at end of stream.
    fn poll_next(&self, cap: usize) -> io::Result<Bytes> {
        match self.poll_chunk(cap) {
            Poll::Ready(chunk) => Ok(chunk.unwrap_or_default()),
            Poll::Pending => Err(ctx::would_block(SimQueue::<Bytes>::POP_WAIT)),
        }
    }
}

/// Received DATA payloads are handed on as they sit in the pump's read.
impl BlockRead for RoutedStream {
    fn poll_read_chunks_min(
        &mut self,
        min: usize,
        max: usize,
        out: &mut Vec<Bytes>,
    ) -> io::Result<usize> {
        chunks_until(min, max, out, |cap| self.poll_next(cap))
    }
}

/// A block goes out as DATA frames, each chunk copied once, into its frame.
impl BlockWrite for RoutedStream {
    fn poll_write_block(&mut self, block: &Bytes) -> io::Result<()> {
        self.poll_write(block)
    }
}

/// The blocking write: [`poll_write`](RoutedStream::poll_write) plus one
/// park.
impl Write for RoutedStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        ctx::park_io(|| self.poll_write(buf)).map(|()| buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl RsInner {
    /// Our FIN, the first time only.
    fn fin(&self) -> Option<Envelope<&'static [u8]>> {
        let (dir, sid) = (self.opener, self.sid);
        let due = !self.fin_sent.swap(true, Ordering::Relaxed);
        due.then_some(Envelope::Fin { dir, sid })
    }

    /// Send our FIN, once.
    fn send_fin(&self) -> io::Result<()> {
        let fin = self.fin().map(|fin| self.client.send_inner(self.peer, fin));
        fin.map_or(Ok(()), ctx::block_on)
    }
}

impl Drop for RsInner {
    fn drop(&mut self) {
        // Best-effort FIN; ignore failures during teardown.
        if gridsim_net::ctx::in_task() {
            let _ = self.send_fin();
        }
    }
}
