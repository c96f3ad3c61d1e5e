//! The relay client: a node's service link to the relay, the brokering
//! requests it carries, and the routed streams it multiplexes.

use bytes::Bytes;
use gridsim_net::{ctx, Metric, SchedHandle, SimQueue, SockAddr};
use gridsim_tcp::{SimHost, TcpStream};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::future::Future;
use std::io;
use std::pin::Pin;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use super::stream::{RoutedStream, StreamKey};
use crate::establish::factory::BootstrapSocketFactory;
use crate::link::{Backoff, LinkOwner, Pending, ServiceLink};
use crate::nameservice::GridId;
use crate::wire::{Envelope, Put, RelayMsg, Reply, Wire};

/// A service request's response payload, awaited (boxed: the delegate is
/// a trait object).
pub type SvcReply<'a> = Pin<Box<dyn Future<Output = Vec<u8>> + Send + 'a>>;

/// Callbacks from the relay client into the node runtime.
pub trait RelayDelegate: Send + Sync {
    /// Handle a service (brokering) request, awaited in a task of its own:
    /// it may wait on what the relay pump carries (a GO releasing a gate).
    fn on_service_request<'a>(&'a self, from: GridId, payload: &'a [u8]) -> SvcReply<'a>;
    /// An incoming routed link targeting `port_name`: admit or refuse it.
    /// Runs in the relay pump's poll, before the OPEN is answered, so it
    /// must not park — whatever does (handshakes, reading the stream) goes
    /// into a task of the delegate's own, which reports a late failure with
    /// [`RoutedStream::refuse`].
    fn on_open(
        &self,
        from: GridId,
        port_name: &str,
        channel: u64,
        stream: RoutedStream,
    ) -> Result<(), String>;
}

pub(super) struct RcInner {
    id: GridId,
    /// The service link, redialed along [`REDIAL`].
    pub(super) link: Arc<ServiceLink>,
    factory: BootstrapSocketFactory,
    /// Service requests by id, filed under the peer they went to.
    pending: Pending<io::Result<Vec<u8>>>,
    /// Stream opens by sid, filed under the peer they went to.
    open_waits: Pending<Result<(), String>>,
    /// Live routed streams, ours and the peers'.
    streams: Mutex<BTreeMap<StreamKey, RoutedStream>>,
    delegate: Mutex<Option<Arc<dyn RelayDelegate>>>,
    /// Peers the relay flagged BUSY: DATA writes towards them wait here
    /// until the READY, with the wakers to release.
    congested: Mutex<HashMap<GridId, Vec<gridsim_net::Waker>>>,
    pub(super) sched: SchedHandle,
}

/// Before each redial of a lost relay connection.
pub(crate) const REDIAL: Backoff = Backoff::ms(6, 100, 2000);
/// Between sweeps of the ordered relay list at join, three sweeps in all: a
/// login storm can refuse dials (accept backlog full) to a healthy relay.
pub(crate) const HELLO_SWEEPS: Backoff = Backoff::ms(2, 100, 100);
/// In-flight service requests failed by a relay loss are retried for this
/// long (spanning the redial backoff) before the error surfaces.
const SVC_RETRY_WINDOW: Duration = Duration::from_secs(6);
const SVC_RETRY_DELAY: Duration = Duration::from_millis(250);

/// A node's connection to the relay.
#[derive(Clone)]
pub struct RelayClient {
    pub(super) inner: Arc<RcInner>,
}

impl RelayClient {
    /// Connect to the relay (optionally through a site SOCKS proxy), say
    /// hello, and start the receive pump.
    pub fn connect(
        host: &SimHost,
        relay_addr: SockAddr,
        via_proxy: Option<SockAddr>,
        id: GridId,
    ) -> io::Result<RelayClient> {
        Self::connect_multi(host, vec![relay_addr], via_proxy, id)
    }

    /// Like [`connect`](Self::connect), with an ordered relay list:
    /// `[0]` is the primary, the rest failover targets. The first reachable
    /// relay wins (in order), and the pump's redial fails over along the
    /// same list when the current relay stays dead past the first attempt.
    /// Unless the relays are meshed, every node must share the order, so
    /// failed-over peers converge on the same relay.
    pub fn connect_multi(
        host: &SimHost,
        relay_addrs: Vec<SockAddr>,
        via_proxy: Option<SockAddr>,
        id: GridId,
    ) -> io::Result<RelayClient> {
        if relay_addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "no relay addresses",
            ));
        }
        let client = RelayClient {
            inner: Arc::new(RcInner {
                id,
                link: ServiceLink::new(format!("relay-pump-{id}"), relay_addrs, REDIAL),
                factory: BootstrapSocketFactory::new(host.clone(), via_proxy),
                pending: Pending::new(),
                open_waits: Pending::new(),
                streams: Mutex::new(BTreeMap::new()),
                delegate: Mutex::new(None),
                congested: Mutex::new(HashMap::new()),
                sched: host.net().sched().clone(),
            }),
        };
        // Sweeps of the list (a send with the link down dials it), one more
        // than `HELLO_SWEEPS` has delays; ephemeral-port exhaustion is
        // retried inside each dial.
        let join = || ctx::block_on(client.inner.link.hold(&client)).map(drop);
        let mut joined = join();
        for delay in HELLO_SWEEPS.delays() {
            if joined.is_ok() {
                break;
            }
            ctx::sleep(delay);
            joined = join();
        }
        joined.map(|()| client)
    }

    /// Probe the service link after a suspected outage by re-sending
    /// HELLO on the current connection. Healthy link: the relay re-asserts
    /// the registration (harmless, and it heals a one-sided eviction). Dead
    /// link whose RST was lost in the outage: the write provokes a fresh
    /// reset that wakes the pump into its redial-and-re-HELLO path. Errors
    /// are ignored — the pump owns reconnection; a link whose ladder ran
    /// out is dialed again here, as by any request.
    pub async fn nudge(&self) {
        let hello = RelayMsg::Hello { id: self.inner.id }.encode().into_frame();
        let _ = self.inner.link.send(self, &hello).await;
    }

    pub fn id(&self) -> GridId {
        self.inner.id
    }

    /// Install the node-runtime callbacks.
    pub fn set_delegate(&self, d: Arc<dyn RelayDelegate>) {
        *self.inner.delegate.lock() = Some(d);
    }

    /// Send one envelope to `to` through the relay, as one block: a link
    /// that is down is dialed first.
    pub(super) async fn send_inner(&self, to: GridId, env: Envelope<&[u8]>) -> io::Result<()> {
        let frame = env.send_to(to).into_frame();
        self.inner.link.send(self, &frame).await
    }

    /// [`send_inner`](Self::send_inner), awaited in the pump's poll. A link
    /// that is down is not dialed: it is this pump's to redial.
    pub(super) async fn answer(&self, to: GridId, env: Envelope<&[u8]>) -> io::Result<()> {
        let (frame, mut held) = (env.send_to(to).into_frame(), None);
        ctx::wait_io(|| self.inner.link.poll_send(&mut held, &frame)).await
    }

    /// Blocking service request/response — the brokering channel.
    pub fn service_request(&self, to: GridId, payload: &[u8]) -> io::Result<Vec<u8>> {
        self.service_request_timeout(to, payload, None)
    }

    /// Like [`service_request`](Self::service_request), but with an optional
    /// deadline: if no response (or NOPEER) arrives in time the call fails
    /// with `TimedOut`. Used on recovery paths where the target may have
    /// silently died mid-request; fault-free paths pass `None` so no timer
    /// event is ever scheduled.
    pub fn service_request_timeout(
        &self,
        to: GridId,
        payload: &[u8],
        timeout: Option<Duration>,
    ) -> io::Result<Vec<u8>> {
        ctx::block_on(self.request(to, payload, timeout))
    }

    /// A service request in a typed protocol: `msg` out, the body of its
    /// [`Reply`] back; a refusal is `ConnectionRefused`, for its reason.
    pub(crate) async fn service_call<M: Put, T: Wire>(
        &self,
        to: GridId,
        msg: &M,
        timeout: Option<Duration>,
    ) -> io::Result<T> {
        let rsp = self.request(to, msg.encode().payload(), timeout).await?;
        let refused = |why| io::Error::new(io::ErrorKind::ConnectionRefused, why);
        Reply::decode(&rsp.into())?.map_err(refused)
    }

    /// The one service round trip, `payload` out and the answer's body
    /// back, each try under its own `timeout`. A request failed by a
    /// relay-connection loss (`ConnectionReset`, from `lost` or a dead
    /// writer) is tried again while the pump redials — possibly onto a
    /// failover relay — until the window closes. Fault-free requests
    /// resolve on the first try; other errors (TimedOut, NotFound,
    /// refusals) surface at once.
    async fn request(
        &self,
        to: GridId,
        payload: &[u8],
        timeout: Option<Duration>,
    ) -> io::Result<Vec<u8>> {
        let window = ctx::now() + SVC_RETRY_WINDOW;
        let (pending, sched) = (&self.inner.pending, &self.inner.sched);
        loop {
            let id = pending.next_id();
            // Held until the answer is in.
            let deadline = timeout.map(|dt| {
                let weak = Arc::downgrade(&self.inner);
                sched.timer(sched.now() + dt, move || {
                    if let Some(inner) = weak.upgrade() {
                        let timed_out = || Err(io::ErrorKind::TimedOut.into());
                        inner.pending.fail(|i, _| i == id, timed_out);
                    }
                })
            });
            let req = Envelope::SvcReq { id, body: payload };
            let answer = match pending.post(id, to, self.send_inner(to, req)).await {
                Ok(()) => pending.wait(id, "relay svc rsp").await.and_then(|r| r),
                Err(e) => Err(e),
            };
            drop(deadline);
            match answer {
                Err(e) if e.kind() == io::ErrorKind::ConnectionReset && ctx::now() < window => {
                    ctx::delay(SVC_RETRY_DELAY).await
                }
                answer => return answer,
            }
        }
    }

    /// Open a routed byte stream to `port_name` on node `to`.
    pub fn open_stream(
        &self,
        to: GridId,
        port_name: &str,
        channel: u64,
    ) -> io::Result<RoutedStream> {
        let sid = self.inner.open_waits.next_id();
        let stream = RoutedStream::new(self.clone(), to, sid, true);
        let key = stream.key();
        self.inner.streams.lock().insert(key, stream.clone());
        let port = port_name.to_string();
        let open = Envelope::Open { sid, port, channel };
        let refused = |msg| io::Error::new(io::ErrorKind::ConnectionRefused, msg);
        let waits = &self.inner.open_waits;
        let opened = ctx::block_on(async {
            waits.post(sid, to, self.send_inner(to, open)).await?;
            waits.wait(sid, "relay open").await?.map_err(refused)
        });
        if opened.is_err() {
            // The table entry holds the stream, and the stream this client:
            // a failed open must not leave that cycle behind.
            self.inner.streams.lock().remove(&key);
        }
        opened.map(|()| stream)
    }

    /// Ready to send DATA to `to`: `WouldBlock` under `relay peer busy`
    /// while the relay holds it BUSY, the task's waker filed for the READY. A
    /// lost READY cannot strand the caller: the relay re-READYs when the
    /// shard drains or dies, and a relay-connection loss clears the whole
    /// map (`lost`).
    pub(super) fn poll_ready(&self, to: GridId) -> io::Result<()> {
        match self.inner.congested.lock().get_mut(&to) {
            None => Ok(()),
            Some(wakers) => {
                wakers.push(ctx::waker());
                Err(ctx::would_block("relay peer busy"))
            }
        }
    }

    /// Fail exactly what the echoed envelope, ours, belonged to. An
    /// answer of ours that bounced leaves nobody waiting on our side.
    async fn nopeer_precise(&self, to: GridId, echo: Envelope) {
        match echo {
            // An id nobody waits on any more is already resolved; there is
            // nothing else to fail.
            Envelope::SvcReq { id, .. } => {
                self.inner.pending.fail(|i, _| i == id, || Err(no_peer(to)))
            }
            Envelope::Open { sid, .. } => {
                let gone = || Err(no_peer(to).to_string());
                self.inner.open_waits.fail(|i, _| i == sid, gone);
            }
            // The peer behind an open routed stream vanished: close the
            // stream so readers see Eof (and a close barrier fails) instead
            // of parking forever. `dir` says whether we opened it.
            Envelope::Data { dir, sid, .. }
            | Envelope::Fin { dir, sid }
            | Envelope::Sync { dir, sid, .. } => {
                let stream = self.inner.streams.lock().remove(&(to, sid, !dir));
                if let Some(s) = stream {
                    s.close_rx();
                    s.fin_if_last().await;
                }
            }
            Envelope::SvcRsp { .. } | Envelope::OpenOk { .. } | Envelope::OpenErr { .. } => {}
            Envelope::SyncOk { .. } => {}
        }
    }

    /// Fallback for a NOPEER whose echo is missing or does not decode: fail
    /// every outstanding request towards `to`.
    fn nopeer_all(&self, to: GridId) {
        let towards = |_, peer| peer == to;
        self.inner.pending.fail(towards, || Err(no_peer(to)));
        let gone = || Err(no_peer(to).to_string());
        self.inner.open_waits.fail(towards, gone);
    }

    /// Act on an envelope from node `from`, decoded whole, in the pump's
    /// poll: an answer's send, DATA into a full queue and the FIN of a
    /// stream whose last handle leaves the table are awaited in place.
    async fn dispatch_inner(&self, from: GridId, env: Envelope) -> io::Result<()> {
        let stream = |sid, dir| self.inner.streams.lock().get(&(from, sid, dir)).cloned();
        let answer = match env {
            Envelope::SvcReq { id, body } => {
                let delegate = self.inner.delegate.lock().clone();
                let me = self.clone();
                // A task of its own: the handler may wait on what this pump
                // carries (a splice responder's NAT gate, released by a GO).
                self.inner.sched.spawn_async("svc-handler", async move {
                    let rsp = async { Some(delegate?.on_service_request(from, &body).await) }.await;
                    let reply = rsp.as_deref().ok_or_else(|| "no service handler".into());
                    let _ = me.send_inner(from, Envelope::SvcRsp { id, reply }).await;
                });
                return Ok(());
            }
            Envelope::SvcRsp { id, reply } => {
                let answer = reply.map(|body| body.to_vec()).map_err(io::Error::other);
                self.inner.pending.resolve(id, answer);
                return Ok(());
            }
            Envelope::Open { sid, port, channel } => {
                let delegate = self.inner.delegate.lock().clone();
                let Some(d) = delegate else {
                    let why = "no delegate".into();
                    return self.answer(from, Envelope::OpenErr { sid, why }).await;
                };
                let stream = RoutedStream::new(self.clone(), from, sid, false);
                // Exactly one answer: the delegate admits or refuses here,
                // and does what may block in a task of its own.
                let answer = match d.on_open(from, &port, channel, stream.clone()) {
                    Ok(()) => {
                        self.inner.streams.lock().insert(stream.key(), stream);
                        Envelope::OpenOk { sid }
                    }
                    Err(why) => {
                        // Never open: its last handle owes the peer no FIN.
                        stream.inner.fin_sent.store(true, Ordering::Relaxed);
                        Envelope::OpenErr { sid, why }
                    }
                };
                return self.answer(from, answer).await;
            }
            Envelope::OpenOk { sid } => {
                self.inner.open_waits.resolve(sid, Ok(()));
                return Ok(());
            }
            Envelope::OpenErr { sid, why } => {
                if !self.inner.open_waits.resolve(sid, Err(why)) {
                    // Error for an already-open stream: close it.
                    if let Some(s) = stream(sid, false) {
                        s.close_rx();
                    }
                }
                return Ok(());
            }
            // Per-stream envelopes: `dir` says whether their sender is the
            // end that opened the stream.
            Envelope::Data { dir, sid, payload } => match stream(sid, dir) {
                // A full queue parks the pump — and therefore the relay
                // connection. Crude but faithful to a single multiplexed
                // relay link.
                Some(s) => {
                    let mut slot = Some(payload);
                    let push = || s.inner.rx.poll_push(&mut slot);
                    let _ = ctx::wait(SimQueue::<Bytes>::PUSH_WAIT, push).await;
                    return Ok(());
                }
                None => Envelope::Fin { dir: !dir, sid },
            },
            // This pump dispatches in arrival order, so every chunk the peer
            // sent before its SYNC is in `rx` by now.
            Envelope::Sync { dir, sid, n } => match stream(sid, dir) {
                Some(s) if !s.is_closed() => Envelope::SyncOk { dir: !dir, sid, n },
                _ => Envelope::Fin { dir: !dir, sid },
            },
            Envelope::SyncOk { dir, sid, n } => {
                if let Some(s) = stream(sid, dir) {
                    s.synced(n);
                }
                return Ok(());
            }
            Envelope::Fin { dir, sid } => {
                let stream = self.inner.streams.lock().remove(&(from, sid, dir));
                if let Some(s) = stream {
                    s.inner.fin_received.store(true, Ordering::Relaxed);
                    s.close_rx();
                    s.fin_if_last().await;
                }
                return Ok(());
            }
        };
        // DATA or SYNC for a stream we no longer know: our state was reset
        // (relay failover) while the peer kept writing through its own
        // still-healthy relay. Answer FIN so its write side closes and its
        // session layer recovers, instead of silently eating the bytes. FIN
        // for an unknown stream is a no-op on the peer, so this cannot loop.
        let _ = self.answer(from, answer).await;
        Ok(())
    }
}

/// The relay client is its service link's owner: it greets the relay,
/// dispatches what the relay sends and cleans up after a lost connection.
impl LinkOwner for RelayClient {
    /// Dial outside the node's NAT gate — a splice responder holds the gate
    /// across a relay round trip, so a dial under it could wait on itself —
    /// and say HELLO.
    async fn dial(&self, addr: SockAddr) -> io::Result<TcpStream> {
        let stream = self.inner.factory.connect(addr).await?;
        let hello = RelayMsg::Hello { id: self.inner.id }.encode().into_frame();
        ctx::wait_io(|| stream.poll_write_block(&hello)).await?;
        Ok(stream)
    }

    async fn dispatch(&self, _gen: u64, frame: &Bytes) -> io::Result<()> {
        match RelayMsg::decode(frame)? {
            RelayMsg::Recv { from, inner } => match Envelope::decode(&inner) {
                Ok(env) => return self.dispatch_inner(from, env).await,
                // The sending peer's fault, not the relay's: the link stays.
                Err(_) => {
                    let bad = Metric("node", Some(self.inner.id), "bad_envelopes");
                    self.inner.sched.metric_add(bad, 1);
                }
            },
            // The relay echoes the undeliverable envelope, letting us fail
            // only what it belonged to. Without the echo (or if it does not
            // decode), fail everything outstanding towards that peer.
            RelayMsg::Nopeer { to, echo } => match echo.map(|e| Envelope::decode(&e)) {
                Some(Ok(echo)) => self.nopeer_precise(to, echo).await,
                _ => self.nopeer_all(to),
            },
            RelayMsg::Busy { peer } => {
                // The relay says this recipient's queue is hot: gate
                // further DATA towards it until the READY.
                let throttles = Metric("node", Some(self.inner.id), "busy_throttles");
                self.inner.sched.metric_add(throttles, 1);
                self.inner.congested.lock().entry(peer).or_default();
            }
            RelayMsg::Ready { peer } => {
                let wakers = self.inner.congested.lock().remove(&peer);
                for w in wakers.unwrap_or_default() {
                    w.wake();
                }
            }
            _ => return Err(io::ErrorKind::InvalidData.into()),
        }
        Ok(())
    }

    /// Relay connection gone: everything in flight fails `ConnectionReset`
    /// (retryable once the pump has redialed), and what the connection
    /// asserted dies with it.
    async fn lost(&self, _gen: u64) {
        self.inner.pending.reset(|_| true);
        self.inner.open_waits.reset(|_| true);
        // Congestion gates die with the connection that asserted them.
        for w in self.inner.congested.lock().drain().flat_map(|(_, ws)| ws) {
            w.wake();
        }
        // Routed streams are not resumable across a relay restart: close and
        // forget them so post-reconnect traffic cannot hit a stale stream.
        let streams = std::mem::take(&mut *self.inner.streams.lock());
        for s in streams.into_values() {
            s.close_rx();
            s.fin_if_last().await;
        }
    }
}

fn no_peer(to: GridId) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("relay: no peer {to}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relay::spawn_relay;
    use gridsim_net::{topology, Sim};

    /// Run `f` on a client of a relay across a LAN, its link just aborted
    /// under it.
    fn with_aborted_link(f: impl FnOnce(RelayClient) + Send + 'static) {
        let sim = Sim::new(1);
        let net = sim.net();
        let (a, b) = net.with(topology::lan_pair);
        let (ha, hb) = (SimHost::new(&net, a), SimHost::new(&net, b));
        let relay = SockAddr::new(hb.ip(), 600);
        let client = sim.spawn("client", move || {
            spawn_relay(&hb, 600).unwrap();
            let rc = RelayClient::connect(&ha, relay, None, 1).unwrap();
            rc.inner.link.abort(&rc).unwrap();
            f(rc);
        });
        sim.run();
        assert!(client.is_finished());
    }

    /// Accepts every routed stream and hands it over.
    struct Accept(gridsim_net::SimQueue<RoutedStream>);

    impl RelayDelegate for Accept {
        fn on_service_request<'a>(&'a self, _: GridId, _: &'a [u8]) -> SvcReply<'a> {
            Box::pin(async { Vec::new() })
        }
        fn on_open(&self, _: GridId, _: &str, _: u64, s: RoutedStream) -> Result<(), String> {
            self.0.try_push(s).map_err(|_| "no room".to_string())
        }
    }

    /// Never answers: its handler waits for good.
    struct Silent;

    impl RelayDelegate for Silent {
        fn on_service_request<'a>(&'a self, _: GridId, _: &'a [u8]) -> SvcReply<'a> {
            Box::pin(ctx::wait("silent", || std::task::Poll::Pending))
        }
        fn on_open(&self, _: GridId, _: &str, _: u64, _: RoutedStream) -> Result<(), String> {
            Err("no ports".into())
        }
    }

    /// A service request with a one-second deadline to a peer that never
    /// answers, awaited in an async task (`polled`) or run under
    /// `ctx::block_on` by a task that parks: every TCP segment the world
    /// sent, every park of the run, and when and how the request ended.
    fn a_request_that_times_out(polled: bool) -> (Vec<String>, Vec<(String, i64)>, String) {
        let sim = Sim::new(9);
        let net = sim.net();
        let (a, b) = net.with(topology::lan_pair);
        let (ha, hb) = (SimHost::new(&net, a), SimHost::new(&net, b));
        let relay = SockAddr::new(hb.ip(), 600);
        let clients = gridsim_net::SimQueue::bounded(1);
        let c = clients.clone();
        sim.spawn("clients", move || {
            spawn_relay(&hb, 600).unwrap();
            let asker = RelayClient::connect(&ha, relay, None, 1).unwrap();
            let silent = RelayClient::connect(&hb, relay, None, 2).unwrap();
            silent.set_delegate(Arc::new(Silent));
            assert!(c.try_push((asker, silent)).is_ok());
        });
        sim.run();
        let sent = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&sent);
        net.with(|w| {
            w.set_tracer(Box::new(move |t, kind, pkt| {
                let seg = pkt.payload.as_any().downcast_ref::<gridsim_tcp::Segment>();
                if let Some(s) = seg.filter(|_| kind == gridsim_net::TraceKind::Sent) {
                    let (src, dst, f, n) = (pkt.src, pkt.dst, s.flags, s.data.len());
                    let seg = format!("{t:?} {src}>{dst} {f:?} {} {} {} {n}", s.seq, s.ack, s.wnd);
                    log.lock().push(seg);
                }
            }))
        });
        let (asker, _silent) = clients.try_pop().expect("both clients joined");
        let out = Arc::new(Mutex::new(String::new()));
        let o = Arc::clone(&out);
        let note = move |r: io::Result<Vec<u8>>| *o.lock() = format!("{:?} {r:?}", ctx::now());
        let (h, timeout) = (sim.scheduler().handle(), Some(Duration::from_secs(1)));
        if polled {
            h.spawn_async("ask", async move {
                note(asker.request(2, b"ping", timeout).await)
            });
        } else {
            h.spawn("ask", move || {
                note(asker.service_request_timeout(2, b"ping", timeout))
            });
        }
        sim.run();
        let parks = h.metrics().into_iter().filter(|(m, _)| m.0 == "task/parks");
        let parks = parks.map(|(m, n)| (m.2.to_string(), n)).collect();
        let (sent, out) = (sent.lock().clone(), out.lock().clone());
        (sent, parks, out)
    }

    /// The service call, awaited, sends what the blocking call sends when
    /// it sends it, parks where it parks, and its deadline ends it at the
    /// same instant, `TimedOut`.
    #[test]
    fn an_awaited_service_call_whose_deadline_fires_matches_the_blocking_one() {
        let blocking = a_request_that_times_out(false);
        assert!(blocking.2.contains("TimedOut"), "{}", blocking.2);
        assert!(blocking.0.len() >= 2, "{} segments", blocking.0.len());
        let svc_rsp = blocking.1.iter().find(|(why, _)| why == "relay svc rsp");
        assert_eq!(svc_rsp.map(|p| p.1), Some(1), "{:?}", blocking.1);
        let polled = a_request_that_times_out(true);
        assert!(polled.0 == blocking.0, "the segments differ");
        assert_eq!(polled.1, blocking.1);
        assert_eq!(polled.2, blocking.2);
    }

    /// The receiving client's relay connection is aborted mid-transfer.
    /// The relay ends it (`conn_dead`), and the frames still queued for it
    /// are re-routed: the client is registered nowhere until its pump has
    /// redialed, so each draws a NOPEER, which fails the sending stream.
    /// The receiver has a prefix of what was sent, once and in order; the
    /// parks are the thread forms'.
    #[test]
    fn an_aborted_receiver_connection_reroutes_the_frames_queued_for_it() {
        const LEN: usize = 1 << 20;
        let byte = |i: usize| (i % 253) as u8;
        let sim = Sim::new(5);
        let net = sim.net();
        let (a, b) = net.with(topology::lan_pair);
        let (ha, hb) = (SimHost::new(&net, a), SimHost::new(&net, b));
        let relay = SockAddr::new(hb.ip(), 600);
        let done = sim.spawn("driver", move || {
            spawn_relay(&hb, 600).unwrap();
            let sender = RelayClient::connect(&ha, relay, None, 1).unwrap();
            let receiver = RelayClient::connect(&hb, relay, None, 2).unwrap();
            let accepted = gridsim_net::SimQueue::bounded(1);
            receiver.set_delegate(Arc::new(Accept(accepted.clone())));
            gridsim_net::ctx::sleep(std::time::Duration::from_millis(50));
            let h = gridsim_net::ctx::handle();
            let writer = h.spawn("writer", move || {
                let mut s = sender.open_stream(2, "bulk", 1).unwrap();
                let data: Vec<u8> = (0..LEN).map(byte).collect();
                std::io::Write::write_all(&mut s, &data).is_err()
            });
            let mut s = accepted.pop().unwrap();
            let mut got = vec![0; 64 * 1024];
            std::io::Read::read_exact(&mut s, &mut got).unwrap();
            receiver.inner.link.abort(&receiver).unwrap();
            let mut rest = Vec::new();
            let _ = std::io::Read::read_to_end(&mut s, &mut rest);
            got.extend(rest);
            assert!(got.len() < LEN, "the abort came too late: {}", got.len());
            assert!(got.iter().enumerate().all(|(i, &b)| b == byte(i)));
            assert!(writer.join(), "the sender's stream did not fail");
        });
        sim.run();
        assert!(done.is_finished());
        let metrics = sim.scheduler().handle().metrics();
        let parks: Vec<_> = metrics
            .iter()
            .filter(|(m, _)| m.0 == "task/parks")
            .map(|(m, &n)| (m.2, n))
            .collect();
        let pinned = [
            ("join", 1),
            ("queue pop", 23),
            ("relay open", 1),
            ("sleep", 2),
            ("tcp accept", 4),
            ("tcp connect", 3),
            ("tcp read", 65),
            ("tcp write", 28),
        ];
        assert_eq!(parks, pinned);
    }

    /// An open that fails before any answer can arrive must leave nothing
    /// behind: a stream-table entry would keep the stream, and through it
    /// the client, alive for good.
    #[test]
    fn failed_open_leaves_both_tables_empty() {
        with_aborted_link(|rc| {
            assert!(rc.open_stream(2, "port", 0).is_err());
            assert!(rc.inner.streams.lock().is_empty(), "stream entry leaked");
            assert!(rc.inner.open_waits.is_empty(), "waiter leaked");
        });
    }

    /// While the pump redials, the link is the pump's to dial: a request
    /// fails `ConnectionReset` instead of dialing a second connection, and
    /// the pump's first redial brings up the one next connection.
    #[test]
    fn a_request_leaves_the_redial_to_the_pump() {
        with_aborted_link(|rc| {
            let gen = || ctx::block_on(rc.inner.link.hold(&rc)).map(|conn| conn.gen);
            gridsim_net::ctx::sleep(REDIAL.delays().next().unwrap() / 2);
            assert_eq!(gen().unwrap_err().kind(), io::ErrorKind::ConnectionReset);
            gridsim_net::ctx::sleep(REDIAL.delays().next().unwrap());
            assert_eq!(gen().unwrap(), 2);
        });
    }
}
