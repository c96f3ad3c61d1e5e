//! Supervised links (paper §5): the long-lived connections a node keeps to
//! the grid's services, its *bootstrap* link to the name service and its
//! *service* link to the relay. Each is one [`ServiceLink`]: dialed over an
//! ordered address list, read by one pump that hands every frame to its
//! [`LinkOwner`], and redialed along a [`Backoff`] ladder once lost.
//! Requests wait on their answers in one id-keyed table, [`Pending`].
//!
//! The pump is an async task (DESIGN.md §6a), as are the relay's and the
//! name server's readers: every frame is dispatched in its poll, and so is
//! a connection's end and its redial, the owner's dial included.

use bytes::Bytes;
use gridsim_net::ctx;
use gridsim_net::{SimMutex, SimMutexGuard, SockAddr, Waker};
use gridsim_tcp::{ConnectOpts, SimHost, TcpListener, TcpStream};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::future::Future;
use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::task::Poll;
use std::time::Duration;

use crate::wire::FrameStream;

/// Await `listener`'s next connection: an accept loop is an async task,
/// parked under `tcp accept` in between; an error once the listener closes.
pub(crate) async fn next_conn(listener: &TcpListener) -> io::Result<TcpStream> {
    ctx::wait_io(|| listener.poll_accept()).await
}

/// Connect to `to` from `host`, parked under `tcp connect` until the
/// handshake ends: [`SimHost::connect_opts`], awaited.
pub(crate) async fn dial(host: &SimHost, to: SockAddr, opts: ConnectOpts) -> io::Result<TcpStream> {
    let conn = host.connect_start(to, opts)?;
    ctx::wait_io(|| conn.poll_established()).await?;
    Ok(conn)
}

/// An attempt-counted retry schedule: `attempts` delays, doubling from
/// `base` up to `cap`.
#[derive(Clone, Copy)]
pub(crate) struct Backoff {
    pub attempts: u32,
    base: Duration,
    cap: Duration,
}

impl Backoff {
    pub(crate) const fn ms(attempts: u32, base: u64, cap: u64) -> Backoff {
        let (base, cap) = (Duration::from_millis(base), Duration::from_millis(cap));
        Backoff {
            attempts,
            base,
            cap,
        }
    }

    pub(crate) fn delays(self) -> impl Iterator<Item = Duration> {
        let next = move |d: &Duration| Some((*d * 2).min(self.cap));
        std::iter::successors(Some(self.base), next).take(self.attempts as usize)
    }
}

/// One request waiting on its answer, filed under a tag of its owner's: the
/// relay client's is the peer it went to, the name-service link's the
/// connection it went out on.
struct Slot<T> {
    tag: u64,
    result: Option<T>,
    waker: Option<Waker>,
}

impl<T> Slot<T> {
    fn set(&mut self, result: T) {
        self.result = Some(result);
        if let Some(w) = self.waker.take() {
            w.wake();
        }
    }
}

/// In-flight requests by id. Ordered, so failing many at once wakes their
/// tasks in the same order on every run.
pub(crate) struct Pending<T> {
    slots: Mutex<BTreeMap<u64, Slot<T>>>,
    next: AtomicU64,
}

impl<T> Pending<T> {
    pub(crate) fn new() -> Pending<T> {
        let slots = Mutex::new(BTreeMap::new());
        Pending {
            slots,
            next: AtomicU64::new(1),
        }
    }

    pub(crate) fn next_id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// File request `id` under `tag` and await its `send`; a send error
    /// takes the slot out again.
    pub(crate) async fn post(
        &self,
        id: u64,
        tag: u64,
        send: impl Future<Output = io::Result<()>>,
    ) -> io::Result<()> {
        let slot = Slot {
            tag,
            result: None,
            waker: None,
        };
        self.slots.lock().insert(id, slot);
        let sent = send.await;
        sent.inspect_err(|_| drop(self.slots.lock().remove(&id)))
    }

    /// Await request `id`'s outcome, parked under `reason`, and take it. A
    /// slot that vanished — its connection was lost — is `ConnectionReset`.
    pub(crate) async fn wait(&self, id: u64, reason: &'static str) -> io::Result<T> {
        ctx::wait_io(|| {
            let mut slots = self.slots.lock();
            let Some(slot) = slots.get_mut(&id) else {
                let lost = "request dropped: its connection was lost";
                return Err(io::Error::new(io::ErrorKind::ConnectionReset, lost));
            };
            if let Some(result) = slot.result.take() {
                slots.remove(&id);
                return Ok(result);
            }
            slot.waker = Some(ctx::waker());
            Err(ctx::would_block(reason))
        })
        .await
    }

    /// The answer to request `id`. False when nobody waits on `id` any
    /// more or it has an outcome already: the first one stands.
    pub(crate) fn resolve(&self, id: u64, result: T) -> bool {
        let mut slots = self.slots.lock();
        let open = slots.get_mut(&id).filter(|s| s.result.is_none());
        open.map(|s| s.set(result)).is_some()
    }

    /// The answer to the oldest open request filed under `tag` (a server
    /// that answers in order). False when there is none.
    pub(crate) fn resolve_oldest(&self, tag: u64, result: T) -> bool {
        let mut slots = self.slots.lock();
        let mut open = slots.values_mut();
        let oldest = open.find(|s| s.tag == tag && s.result.is_none());
        oldest.map(|s| s.set(result)).is_some()
    }

    /// Fail the open requests `which(id, tag)` selects with `result()`.
    pub(crate) fn fail(&self, which: impl Fn(u64, u64) -> bool, result: impl Fn() -> T) {
        for (&id, s) in self.slots.lock().iter_mut() {
            if s.result.is_none() && which(id, s.tag) {
                s.set(result());
            }
        }
    }

    /// Drop the open requests filed under a tag `which` selects: each wakes
    /// to `ConnectionReset`, the one kind a lost connection ends a request in.
    pub(crate) fn reset(&self, which: impl Fn(u64) -> bool) {
        self.slots.lock().retain(|_, s| {
            let lost = s.result.is_none() && which(s.tag);
            if let Some(w) = s.waker.take_if(|_| lost) {
                w.wake();
            }
            !lost
        });
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.slots.lock().is_empty()
    }
}

/// What a supervised link's owner does: dial one of its addresses, take
/// what arrives, and clean up after a lost connection. All three are
/// awaited, the handlers in the pump's poll.
pub(crate) trait LinkOwner: Clone + Send + Sync + 'static {
    /// Connect to `addr` and greet the service there: awaited by a request
    /// that finds the link down ([`ServiceLink::hold`]) and by the redial.
    fn dial(&self, addr: SockAddr) -> impl Future<Output = io::Result<TcpStream>> + Send;
    /// One frame off connection `gen`. An error ends the connection.
    fn dispatch(&self, gen: u64, frame: &Bytes) -> impl Future<Output = io::Result<()>> + Send;
    /// Connection `gen` is gone: fail what was in flight on it.
    fn lost(&self, gen: u64) -> impl Future<Output = ()> + Send;
}

/// The link's connection, numbered by dial.
#[derive(Default)]
pub(crate) struct Conn {
    /// `None` once its pump has taken it out of service.
    stream: Option<TcpStream>,
    pub(crate) gen: u64,
    /// Its pump redials it once lost: until the ladder runs out, a request
    /// that finds the link down fails instead of dialing a second one.
    pump_redials: bool,
}

/// The writer lock, held.
pub(crate) type Writer = SimMutexGuard<Conn>;

impl Conn {
    /// The live connection: `ConnectionReset` when there is none or it
    /// failed, as for the requests in flight on a lost one.
    fn live(&self) -> io::Result<&TcpStream> {
        let down = || io::Error::new(io::ErrorKind::ConnectionReset, "service link down");
        self.stream
            .as_ref()
            .filter(|s| s.health().is_none())
            .ok_or_else(down)
    }
}

/// One long-lived connection to a service, supervised. One party at a time
/// dials it: the pump along its ladder, or — once the ladder has run out,
/// and always on a link with none — the next request. The last handle FINs
/// the connection; the relay client's pump holds its owner, and through it
/// the link, so that link never does.
pub(crate) struct ServiceLink {
    /// The pump task's.
    name: String,
    /// Ordered: `[0]` first, the rest failover targets.
    addrs: Vec<SockAddr>,
    redial: Backoff,
    /// The writer lock.
    conn: SimMutex<Conn>,
    /// Index into `addrs` of the address connected last.
    current: AtomicUsize,
}

impl ServiceLink {
    pub(crate) fn new(name: String, addrs: Vec<SockAddr>, redial: Backoff) -> Arc<ServiceLink> {
        let (conn, current) = (SimMutex::new(Conn::default()), AtomicUsize::new(0));
        let link = ServiceLink {
            name,
            addrs,
            redial,
            conn,
            current,
        };
        Arc::new(link)
    }

    /// The writer lock, over a live connection. A link that is down is
    /// dialed first, over the whole list — unless its pump is redialing it:
    /// then the request fails with `ConnectionReset`, as those in flight on
    /// the lost connection did.
    pub(crate) async fn hold(self: &Arc<Self>, owner: &impl LinkOwner) -> io::Result<Writer> {
        let mut conn = self.lock().await;
        if let Err(down) = conn.live().map(drop) {
            if conn.pump_redials {
                return Err(down);
            }
            let stream = self.dial(owner, self.addrs.len()).await?;
            let gen = self.install(&mut conn, stream.clone());
            let pump = pump(Arc::downgrade(self), owner.clone(), stream, gen);
            ctx::handle().spawn_async(self.name.clone(), pump);
        }
        Ok(conn)
    }

    /// Write `frame` on the live connection under the writer lock, which
    /// `held` keeps between polls: `WouldBlock` while the lock is taken or
    /// bytes of the frame are unqueued, and asked again with the same
    /// frame. A link that is down is not dialed: only [`hold`](Self::hold)
    /// dials.
    pub(crate) fn poll_send(&self, held: &mut Option<Writer>, frame: &Bytes) -> io::Result<()> {
        if held.is_none() {
            let Poll::Ready(conn) = self.conn.poll_lock() else {
                return Err(ctx::would_block(SimMutex::<Conn>::LOCK_WAIT));
            };
            conn.live()?;
            *held = Some(conn);
        }
        let stream = held.as_ref().and_then(|conn| conn.stream.as_ref());
        let written = stream
            .ok_or(io::ErrorKind::NotConnected)?
            .poll_write_block(frame);
        if !matches!(&written, Err(e) if e.kind() == io::ErrorKind::WouldBlock) {
            *held = None;
        }
        written
    }

    /// [`hold`](Self::hold), then `frame` written, awaited where it waits.
    pub(crate) async fn send(
        self: &Arc<Self>,
        owner: &impl LinkOwner,
        frame: &Bytes,
    ) -> io::Result<()> {
        let mut held = Some(self.hold(owner).await?);
        ctx::wait_io(|| self.poll_send(&mut held, frame)).await
    }

    /// Await the writer lock.
    async fn lock(&self) -> Writer {
        ctx::wait(SimMutex::<Conn>::LOCK_WAIT, || self.conn.poll_lock()).await
    }

    /// One attempt at each of `span` addresses from the current one, in
    /// order; the first that answers becomes the current one.
    async fn dial(&self, owner: &impl LinkOwner, span: usize) -> io::Result<TcpStream> {
        let start = self.current.load(Ordering::Relaxed);
        let mut last = io::ErrorKind::AddrNotAvailable.into();
        for idx in (start..start + span).map(|i| i % self.addrs.len()) {
            match owner.dial(self.addrs[idx]).await {
                Ok(stream) => {
                    self.current.store(idx, Ordering::Relaxed);
                    return Ok(stream);
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// Make `stream` the live connection; returns its number.
    fn install(&self, conn: &mut Conn, stream: TcpStream) -> u64 {
        conn.gen += 1;
        conn.stream = Some(stream);
        conn.pump_redials = self.redial.attempts > 0;
        conn.gen
    }

    /// Redial along the ladder. The first attempt targets only the address
    /// that just died (a restart is the common case), every later one the
    /// whole list from there — the failover the ordered list promises. Out
    /// of attempts, the link waits for its next request.
    async fn redial(&self, owner: &impl LinkOwner) -> Option<(TcpStream, u64)> {
        for (attempt, delay) in self.redial.delays().enumerate() {
            ctx::delay(delay).await;
            let span = if attempt == 0 { 1 } else { self.addrs.len() };
            if let Ok(stream) = self.dial(owner, span).await {
                let gen = self.install(&mut *self.lock().await, stream.clone());
                return Some((stream, gen));
            }
        }
        self.lock().await.pump_redials = false;
        None
    }
}

/// A link's reader: hand each frame off connection `gen` to the owner,
/// and once the connection ends, read the one redialed — all of it in the
/// pump's poll.
async fn pump<O: LinkOwner>(
    link: Weak<ServiceLink>,
    owner: O,
    mut stream: TcpStream,
    mut gen: u64,
) {
    let mut frames = FrameStream::new(stream.clone());
    loop {
        let end = loop {
            let frame = match ctx::wait_io(|| frames.poll_frame()).await {
                Ok(frame) => frame,
                Err(e) => break e,
            };
            if let Err(e) = owner.dispatch(gen, &frame).await {
                break e;
            }
        };
        let Some(next) = lose(&link, &owner, &stream, gen, end).await else {
            return;
        };
        frames = FrameStream::new(next.0.clone());
        (stream, gen) = next;
    }
}

/// Connection `gen` ended: take it out of service — so no request goes out
/// on it once the owner has failed those in flight — and redial, unless a
/// request has dialed a new one already. `None` when the pump is over.
async fn lose(
    link: &Weak<ServiceLink>,
    owner: &impl LinkOwner,
    stream: &TcpStream,
    gen: u64,
    end: io::Error,
) -> Option<(TcpStream, u64)> {
    // Out of step with its owner (a malformed frame, or one nobody asked
    // for), the connection is reset; one that ended or failed stays as it
    // is.
    if end.kind() == io::ErrorKind::InvalidData {
        stream.abort();
    }
    let mut me = link.upgrade();
    if let Some(link) = &me {
        let mut conn = link.lock().await;
        if conn.gen == gen {
            conn.stream = None;
        } else {
            me = None;
        }
    }
    owner.lost(gen).await;
    me?.redial(owner).await
}

impl Drop for ServiceLink {
    fn drop(&mut self) {
        if let Some(stream) = &self.conn.lock().stream {
            let _ = stream.shutdown_write();
        }
    }
}

#[cfg(test)]
impl ServiceLink {
    /// Abort the live connection under the link, dialing one if it is down.
    pub(crate) fn abort(self: &Arc<Self>, owner: &impl LinkOwner) -> io::Result<()> {
        let conn = ctx::block_on(self.hold(owner))?;
        conn.stream.iter().for_each(TcpStream::abort);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsim_net::Sim;

    /// The output of a future that is ready at its first poll: a request
    /// whose outcome is in.
    fn ready<T>(fut: impl Future<Output = T>) -> T {
        let cx = &mut std::task::Context::from_waker(std::task::Waker::noop());
        match std::pin::pin!(fut).poll(cx) {
            Poll::Ready(out) => out,
            Poll::Pending => panic!("a request with its outcome in waits"),
        }
    }

    /// A send that succeeds at once.
    async fn sent() -> io::Result<()> {
        Ok(())
    }

    /// Each doubling ladder yields the delays of the loop it replaced.
    #[test]
    fn ladders_keep_their_schedules() {
        let ms = |b: Backoff| b.delays().map(|d| d.as_millis()).collect::<Vec<_>>();
        assert_eq!(ms(crate::relay::REDIAL), [100, 200, 400, 800, 1600, 2000]);
        let recover = [50, 100, 200, 400, 800, 1600, 2000, 2000];
        assert_eq!(ms(crate::node::RECOVER), recover);
        let peer = [200, 400, 800, 1600, 2000, 2000, 2000, 2000, 2000];
        assert_eq!(ms(crate::relay::PEER_DIAL), peer);
        // Flat: the sleep after each failed dial, the last one's included.
        assert_eq!(ms(crate::establish::factory::DIAL_RETRY), [50; 9]);
        assert_eq!(ms(crate::relay::HELLO_SWEEPS), [100, 100]);
    }

    #[test]
    fn the_first_outcome_stands() {
        let p = Pending::new();
        ready(p.post(1, 0, sent())).unwrap();
        assert!(p.resolve(1, "answer"));
        assert!(!p.resolve(1, "late answer"));
        p.fail(|_, _| true, || "timeout");
        p.reset(|_| true);
        assert_eq!(ready(p.wait(1, "test")).unwrap(), "answer");
        assert!(p.is_empty(), "slot outlived its wait");
    }

    #[test]
    fn a_send_error_removes_its_slot() {
        let p = Pending::<()>::new();
        let refused = ready(p.post(1, 0, async { Err(io::ErrorKind::BrokenPipe.into()) }));
        assert_eq!(refused.unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        assert!(p.is_empty(), "slot leaked");
    }

    #[test]
    fn a_vanished_slot_is_connection_reset() {
        let p = Pending::<()>::new();
        ready(p.post(1, 0, sent())).unwrap();
        p.reset(|_| true);
        let lost = ready(p.wait(1, "test")).unwrap_err();
        assert_eq!(lost.kind(), io::ErrorKind::ConnectionReset);
    }

    /// Failing every request at once wakes the waiters in id order, not in
    /// the order they parked, and each sees `ConnectionReset`.
    #[test]
    fn failing_all_wakes_in_id_order() {
        let sim = Sim::new(1);
        let p = Arc::new(Pending::<()>::new());
        let woke = Arc::new(Mutex::new(Vec::new()));
        for id in [3, 1, 2] {
            ready(p.post(id, 0, sent())).unwrap();
            let (p, woke) = (Arc::clone(&p), Arc::clone(&woke));
            sim.spawn("waiter", move || {
                let kind = ctx::block_on(p.wait(id, "test")).unwrap_err().kind();
                woke.lock().push((id, kind));
            });
        }
        sim.run_for(Duration::ZERO); // every waiter parks
        sim.spawn("lose", move || p.reset(|_| true));
        sim.run();
        let reset = io::ErrorKind::ConnectionReset;
        assert_eq!(*woke.lock(), [(1, reset), (2, reset), (3, reset)]);
    }
}
