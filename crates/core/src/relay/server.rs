//! The relay server: an accept loop, one reader per connection — a
//! client's or a mesh link's, its role fixed by its first frame — and per
//! recipient a shard, a bounded queue and the worker that drains it into
//! the recipient's connection. Meshed relays forward to each other and
//! keep a node-id → home-relay routing table.
//!
//! Every task here is an async task (DESIGN.md §6a): the accept loop, the
//! readers, the shard writers and each mesh peer's dial loop. Whatever may
//! park — a full shard queue, a socket write, a dial, a redial's backoff —
//! is awaited as the poll its blocking form parks on, so a frame has one
//! path and no task takes a thread. A connection's one writer is its
//! shard's worker: whoever decides a BUSY, READY or NOPEER only owes it.

use bytes::Bytes;
use gridsim_net::ctx::{self, wait};
use gridsim_net::{Metric, SchedHandle, SimQueue, SockAddr, Timer, Waker};
use gridsim_tcp::{ConnectOpts, SimHost, TcpStream};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::Poll;

use crate::link::{dial, next_conn, Backoff};
use crate::nameservice::GridId;
use crate::wire::{Envelope, FrameStream, Put, RelayMsg, Wire};

/// Spawn a relay on `host:port` that peers with no other:
/// [`spawn_relay_mesh`] with the default [`RelayConfig`].
pub fn spawn_relay(host: &SimHost, port: u16) -> io::Result<()> {
    spawn_relay_mesh(host, port, RelayConfig::default())
}

/// Bounded frames per recipient shard queue before senders park.
const MESH_QUEUE_FRAMES: usize = 64;
/// Most a shard worker encodes into one write: one (default) send buffer;
/// also the NOPEER bytes owed to a client past which its reader waits.
const RUN_BYTES: usize = 64 * 1024;
/// Senders in the relays' throttle sets, a gauge.
const THROTTLED: Metric = Metric("relay", None, "throttled");
/// Frames parked per unresolved route pull before overflow is bounced.
const ROUTE_WAIT_CAP: usize = 256;
/// A route pull that no peer answers within this window fails its parked
/// frames with NOPEER.
const ROUTE_QUERY_TIMEOUT: std::time::Duration = std::time::Duration::from_millis(500);
/// Between a relay's dials of a mesh peer: the tenth in a row that ends,
/// served or not, is the last.
pub(crate) const PEER_DIAL: Backoff = Backoff::ms(9, 200, 2000);

/// Configuration for [`spawn_relay_mesh`]: a relay that may peer with
/// other relays into a routed overlay.
#[derive(Clone, Debug)]
pub struct RelayConfig {
    /// Unique id of this relay in the mesh. Routing-table ties (two relays
    /// claiming the same node at the same sim instant) break towards the
    /// higher `(epoch, mesh_id)`.
    pub mesh_id: u64,
    /// Peer relay addresses this relay dials into the mesh. Route pulls
    /// only ask direct peers, so deployments should form a full mesh: every
    /// relay lists every other.
    pub peers: Vec<SockAddr>,
    /// Capacity of each recipient's shard queue, in frames.
    pub queue_frames: usize,
}

impl Default for RelayConfig {
    fn default() -> RelayConfig {
        RelayConfig {
            mesh_id: 0,
            peers: Vec::new(),
            queue_frames: MESH_QUEUE_FRAMES,
        }
    }
}

/// Spawn the relay on `host:port`, optionally meshed with peers.
///
/// Each registered recipient gets a bounded queue drained by its own
/// worker task, so one slow receiver does not head-of-line-block every
/// sender. A sender filling a hot queue is told with a typed BUSY frame
/// (and parks only when the queue is entirely full); DATA frames are
/// never dropped, so per-sender FIFO holds. With `cfg.peers`, relays
/// exchange a node-id → home-relay routing table (pushed on every
/// register/unregister, pulled on miss) and forward frames relay-to-relay,
/// so a client registered at relay A reaches a peer registered at relay B.
pub fn spawn_relay_mesh(host: &SimHost, port: u16, cfg: RelayConfig) -> io::Result<()> {
    let listener = host.listen(port)?;
    let relay = Arc::new(MeshRelay {
        cfg: cfg.clone(),
        sched: host.net().sched().clone(),
        local: Mutex::new(HashMap::new()),
        remote: Mutex::new(HashMap::new()),
        peers: Mutex::new(HashMap::new()),
        waiting: Mutex::new(HashMap::new()),
    });
    let acceptor = Arc::clone(&relay);
    relay.sched.spawn_async("mesh-relay-accept", async move {
        while let Ok(conn) = next_conn(&listener).await {
            let reader = Arc::clone(&acceptor).read(conn, Role::Accepted);
            acceptor.sched.spawn_async("mesh-relay-conn", reader);
        }
    });
    for addr in cfg.peers {
        let dials = Arc::clone(&relay).peer_dial_loop(host.clone(), addr);
        relay
            .sched
            .spawn_async(format!("mesh-peer-dial-{addr}"), dials);
    }
    Ok(())
}

/// Who a shard queue delivers to.
#[derive(Clone, Copy)]
enum Owner {
    Client(GridId),
    Peer(u64),
}

/// What a connection is to this relay: fixed by its first frame, and a
/// frame its role does not take ends the connection.
enum Role {
    /// Accepted, nothing said yet: a HELLO makes it a client's, a
    /// PEER_HELLO a mesh link.
    Accepted,
    /// Dialed to a mesh peer, our PEER_HELLO said: the peer's makes it a
    /// mesh link.
    Dialed,
    Client(GridId, OutQueue),
    Peer(u64, OutQueue),
}

/// Where a frame entered this relay, deciding how a failure is reported:
/// local senders get NOPEER on their own connection, peer relays get
/// FWD_FAIL so the origin can re-resolve.
#[derive(Clone, Copy)]
enum Origin {
    Local,
    Peer(u64),
}

/// One queued frame. With a `route`, `(from, to)`, it is a client frame on
/// its way — RECV towards a client, FWD towards a peer relay — and `bytes`
/// its inner frame, as the slice of the read it arrived in: encoded only
/// into the worker's run, so queue leftovers can be re-routed (or NOPEER'd)
/// when the connection dies or the registration moves. Without one it is an
/// encoded relay-to-relay control frame (ROUTE_*, FWD_FAIL), length prefix
/// included, and dies with its connection.
struct OutItem {
    route: Option<(GridId, GridId)>,
    bytes: Bytes,
}

/// One shard: the bounded queue its worker — the connection's one writer
/// — drains into a connection, and its flow control.
struct Shard {
    owner: Owner,
    /// Closed when the registration it fed was superseded or died: the
    /// worker stops writing and re-routes what is left.
    q: SimQueue<OutItem>,
    ctl: Mutex<Ctl>,
    cap: usize,
    /// Frames the worker has popped into the run it is writing: still
    /// backlog, as far as the high watermark is concerned.
    in_hand: AtomicUsize,
}

/// A handle on a shard. Registries compare handles by identity before they
/// remove one: a superseded connection must not unregister its successor.
type OutQueue = Arc<Shard>;

/// A shard's flow control. The BUSY, READY and NOPEER frames owed to a
/// client are added without waiting by whoever decides them, and written
/// at the head of the worker's next run, ahead of the data they report on.
#[derive(Default)]
struct Ctl {
    /// Senders told BUSY about this client, owed a READY when it drains.
    throttled: BTreeSet<GridId>,
    /// The latest flow word per peer, made in one step with that peer's
    /// throttle set: it replaces one not yet written.
    flow: BTreeMap<GridId, RelayMsg>,
    /// NOPEERs, encoded. The client's reader takes its next frame only
    /// while they are under [`RUN_BYTES`], so those its SENDs draw stay
    /// under that plus one; a frame the relay already held (in a route
    /// pull, a FWD_FAIL, a re-routed leftover) bounces without waiting.
    nopeers: Vec<u8>,
    /// The client's reader, waiting for NOPEER room.
    reader: Option<Waker>,
}

impl Shard {
    /// Queue `item`, waiting while the queue is full: [`SimQueue::push`],
    /// awaited. `Err(item)` when the queue closed.
    async fn push(&self, item: OutItem) -> Result<(), OutItem> {
        let mut slot = Some(item);
        wait(SimQueue::<OutItem>::PUSH_WAIT, || {
            self.q.poll_push(&mut slot)
        })
        .await
    }

    /// Owe the client a control frame, `add`ed to its slot, and wake the
    /// worker if it waits for an item.
    fn owe<R>(&self, add: impl FnOnce(&mut Ctl) -> R) {
        add(&mut self.ctl.lock());
        self.q.wake_popper();
    }

    /// The worker's wait: the frames owed, encoded — NOPEERs, then flow
    /// words — once there are any, the slot emptied and a reader waiting
    /// for room woken; else the queue's next item (`None` once closed and
    /// drained), the worker's one waker filed there: an item, the end or
    /// a frame owed wakes it.
    fn poll_work(&self) -> Poll<(Vec<u8>, Option<OutItem>)> {
        let mut ctl = self.ctl.lock();
        if ctl.flow.is_empty() && ctl.nopeers.is_empty() {
            return self.q.poll_pop().map(|item| (Vec::new(), item));
        }
        let mut owed = std::mem::take(&mut ctl.nopeers);
        for word in std::mem::take(&mut ctl.flow).into_values() {
            word.frame_onto(&mut owed);
        }
        ctl.reader.take().iter().for_each(Waker::wake);
        Poll::Ready((owed, None))
    }

    /// A client's reader, before its next frame: ready while the NOPEERs
    /// owed to the client are under [`RUN_BYTES`].
    fn poll_room(&self) -> Poll<()> {
        let mut ctl = self.ctl.lock();
        if ctl.nopeers.len() < RUN_BYTES {
            return Poll::Ready(());
        }
        ctl.reader = Some(ctx::waker());
        Poll::Pending
    }

    /// A run — `owed`, then `items`, `bytes` of payload — as one buffer.
    fn encode(&self, mut run: Vec<u8>, items: &[OutItem], bytes: usize) -> Bytes {
        run.reserve(bytes + 32 * items.len());
        for item in items {
            let Some((from, to)) = item.route else {
                run.extend_from_slice(&item.bytes);
                continue;
            };
            let inner = item.bytes.clone();
            let msg = match self.owner {
                Owner::Client(_) => RelayMsg::Recv { from, inner },
                Owner::Peer(_) => RelayMsg::Fwd { from, to, inner },
            };
            msg.frame_onto(&mut run);
        }
        run.into()
    }
}

struct LocalEntry {
    q: OutQueue,
    /// Registration epoch: sim-time ns when this client HELLO'd, globally
    /// ordered across relays because sim time is.
    epoch: u64,
}

#[derive(Clone, Copy)]
struct RemoteEntry {
    relay: u64,
    epoch: u64,
}

/// Frames parked on an outstanding route pull.
struct PendingRoute {
    frames: Vec<(GridId, Bytes)>,
    /// Peer answers still expected; the entry resolves on the first
    /// positive one, fails when all are negative (or on timeout).
    outstanding: usize,
    /// Fails the pull at [`ROUTE_QUERY_TIMEOUT`].
    _deadline: Timer,
}

struct MeshRelay {
    cfg: RelayConfig,
    sched: SchedHandle,
    /// Clients registered HERE: the authoritative shard table.
    local: Mutex<HashMap<GridId, LocalEntry>>,
    /// Everyone else: node id → home relay, learned by push and pull.
    remote: Mutex<HashMap<GridId, RemoteEntry>>,
    /// Live mesh links by peer mesh id.
    peers: Mutex<HashMap<u64, OutQueue>>,
    waiting: Mutex<HashMap<GridId, PendingRoute>>,
}

impl MeshRelay {
    // -------------------------------------------------------- connections

    /// A fresh shard on `conn`, with the worker task that drains it.
    fn spawn_shard(self: &Arc<Self>, owner: Owner, conn: TcpStream) -> OutQueue {
        let cap = self.cfg.queue_frames.max(2);
        let q = Arc::new(Shard {
            owner,
            q: SimQueue::bounded(cap),
            ctl: Mutex::default(),
            cap,
            in_hand: AtomicUsize::new(0),
        });
        let name = match owner {
            Owner::Client(id) => format!("mesh-shard-{id}"),
            Owner::Peer(pid) => format!("mesh-peer-out-{pid}"),
        };
        let writer = Arc::clone(self).write(Arc::clone(&q), conn);
        self.sched.spawn_async(name, writer);
        q
    }

    /// (Re-)register `id` as homed here on `q`, superseding any older
    /// registration, and push the route to the mesh.
    async fn assert_local(self: &Arc<Self>, id: GridId, q: &OutQueue) {
        let epoch = self.sched.now().as_nanos();
        let entry = LocalEntry {
            q: Arc::clone(q),
            epoch,
        };
        let old = self.local.lock().insert(id, entry);
        if let Some(old) = old.filter(|old| !Arc::ptr_eq(&old.q, q)) {
            // The superseded shard's worker re-routes its leftovers —
            // which now resolve to this fresh registration.
            old.q.q.close();
        }
        self.remote.lock().remove(&id);
        self.broadcast_route(RelayMsg::RouteAdd { node: id, epoch })
            .await;
        self.flush_waiting(id).await;
    }

    /// A connection ended: unregister its shard — only if the table still
    /// holds *this* one, a reconnect may have superseded it — and re-resolve
    /// what the shard still held.
    async fn conn_dead(self: &Arc<Self>, q: &OutQueue) {
        let unregistered = match q.owner {
            Owner::Client(id) => {
                let mut l = self.local.lock();
                let ours = l.get(&id).is_some_and(|e| Arc::ptr_eq(&e.q, q));
                ours.then(|| l.remove(&id)).flatten().map(|e| (id, e.epoch))
            }
            Owner::Peer(pid) => {
                let mut p = self.peers.lock();
                if p.get(&pid).is_some_and(|cur| Arc::ptr_eq(cur, q)) {
                    p.remove(&pid);
                }
                None
            }
        };
        q.q.close();
        while let Some(item) = q.q.try_pop() {
            self.reroute_item(item).await;
        }
        if let Some((id, epoch)) = unregistered {
            self.broadcast_route(RelayMsg::RouteDel { node: id, epoch })
                .await;
        }
    }

    /// Dial a mesh peer (which may restart at any time) along
    /// [`PEER_DIAL`], waiting out each delay with `ctx::delay`. Every
    /// dial counts, one whose link served and then died included: a peer
    /// dead past the whole ladder is assumed gone for good (its clients
    /// fail over to the survivors), and giving up lets a simulation with a
    /// crashed relay wind down instead of redialing forever.
    async fn peer_dial_loop(self: Arc<Self>, host: SimHost, addr: SockAddr) {
        let _ = self.peer_dial_once(&host, addr).await;
        for delay in PEER_DIAL.delays() {
            ctx::delay(delay).await;
            let _ = self.peer_dial_once(&host, addr).await;
        }
    }

    /// Dial one mesh peer, say PEER_HELLO, and read the link until it dies.
    /// The dial is `SimHost::connect`'s: a relay dials with no proxy, and
    /// under no NAT gate that serializes. A local `AddrInUse` is not
    /// retried at 50 ms as a node's dial is: the ladder redials.
    async fn peer_dial_once(self: &Arc<Self>, host: &SimHost, addr: SockAddr) -> io::Result<()> {
        let conn = dial(host, addr, ConnectOpts::default()).await?;
        self.peer_hello(&conn).await?;
        Arc::clone(self).read(conn, Role::Dialed).await;
        Ok(())
    }

    /// Introduce ourselves on a mesh link: the first frame, both ways.
    async fn peer_hello(&self, conn: &TcpStream) -> io::Result<()> {
        let mesh_id = self.cfg.mesh_id;
        let hello = RelayMsg::PeerHello { mesh_id }.encode().into_frame();
        ctx::wait_io(|| conn.poll_write_block(&hello)).await
    }

    /// Register a handshaken mesh link: its shard, and our whole local
    /// table queued on it — the "push on register" half of the protocol,
    /// batched so a (re)joining peer converges immediately.
    async fn start_peer(self: &Arc<Self>, pid: u64, conn: TcpStream) -> Role {
        let q = self.spawn_shard(Owner::Peer(pid), conn);
        // Both ends dial, so a pair may hold two links; the latest wins for
        // sends, the older one keeps draining until its connection dies.
        self.peers.lock().insert(pid, q.clone());
        let table: Vec<(GridId, u64)> = self
            .local
            .lock()
            .iter()
            .map(|(id, e)| (*id, e.epoch))
            .collect();
        for (node, epoch) in table {
            let bytes = RelayMsg::RouteAdd { node, epoch }.encode().into_frame();
            let _ = q.push(OutItem { route: None, bytes }).await;
        }
        Role::Peer(pid, q)
    }

    // ------------------------------------------------------------ routing

    async fn route_add(self: &Arc<Self>, pid: u64, node: GridId, epoch: u64) {
        // Conflict with a local registration: the newer (epoch, mesh-id)
        // wins; the loser's shard is killed so nothing more is delivered to
        // the stale registration.
        let evicted = {
            let mut l = self.local.lock();
            match l.get(&node) {
                Some(e) if (epoch, pid) > (e.epoch, self.cfg.mesh_id) => l.remove(&node),
                Some(_) => return, // ours is newer; peer learns from our ADD
                None => None,
            }
        };
        if let Some(e) = evicted {
            e.q.q.close();
        }
        self.learn_route(pid, node, epoch).await;
    }

    /// Forget `node`'s route if it is `stale`.
    fn forget_route(&self, node: GridId, stale: impl FnOnce(&RemoteEntry) -> bool) {
        let mut rt = self.remote.lock();
        if rt.get(&node).is_some_and(stale) {
            rt.remove(&node);
        }
    }

    /// Note that `node` is homed at relay `pid` since `epoch`, unless a
    /// newer route is known, and re-resolve the frames parked for it.
    async fn learn_route(self: &Arc<Self>, pid: u64, node: GridId, epoch: u64) {
        {
            let mut rt = self.remote.lock();
            match rt.get(&node) {
                Some(e) if (e.epoch, e.relay) >= (epoch, pid) => {}
                _ => {
                    rt.insert(node, RemoteEntry { relay: pid, epoch });
                }
            }
        }
        self.flush_waiting(node).await;
    }

    async fn route_rsp(self: &Arc<Self>, pid: u64, node: GridId, found: bool, epoch: u64) {
        if found {
            // Only act on a reply we are still waiting for. A reply that
            // straggles in after the query window closed (frames already
            // NOPEER'd) or was never solicited must not install a route:
            // the answering relay's registration may have moved since, and
            // unsolicited learning goes through ADD broadcasts, which
            // carry eviction semantics this path lacks.
            if self.waiting.lock().contains_key(&node) {
                self.learn_route(pid, node, epoch).await;
            }
        } else {
            let all_denied = {
                let mut w = self.waiting.lock();
                w.get_mut(&node).is_some_and(|p| {
                    p.outstanding = p.outstanding.saturating_sub(1);
                    p.outstanding == 0
                })
            };
            if all_denied {
                self.fail_waiting(node);
            }
        }
    }

    /// Give up on a route pull: NOPEER every frame parked for `node`.
    fn fail_waiting(&self, node: GridId) {
        let pend = self.waiting.lock().remove(&node);
        for (from, inner) in pend.map_or(Vec::new(), |p| p.frames) {
            self.nopeer(from, node, inner);
        }
    }

    /// Pull: park the frame, ask every peer, resolve on the first positive
    /// answer, NOPEER when all deny or the window closes.
    async fn query_route(self: &Arc<Self>, to: GridId, from: GridId, inner: Bytes) {
        let peer_qs = self.peer_queues();
        if peer_qs.is_empty() {
            return self.nopeer(from, to, inner);
        }
        // A pull for `to` is out already: ride it, up to the cap.
        match self.waiting.lock().get_mut(&to) {
            Some(p) if p.frames.len() < ROUTE_WAIT_CAP => return p.frames.push((from, inner)),
            Some(_) => return self.nopeer(from, to, inner),
            None => {}
        }
        let (weak, at) = (Arc::downgrade(self), self.sched.now() + ROUTE_QUERY_TIMEOUT);
        let pull = PendingRoute {
            frames: vec![(from, inner)],
            outstanding: peer_qs.len(),
            _deadline: self.sched.timer(at, move || {
                if let Some(me) = weak.upgrade() {
                    me.fail_waiting(to);
                }
            }),
        };
        self.waiting.lock().insert(to, pull);
        let f = RelayMsg::RouteQuery { node: to }.encode().into_frame();
        push_all(peer_qs, f).await;
    }

    /// Re-resolve frames parked for `node` (route learned, or the node
    /// registered here).
    async fn flush_waiting(self: &Arc<Self>, node: GridId) {
        let pend = self.waiting.lock().remove(&node);
        for (from, inner) in pend.map_or(Vec::new(), |p| p.frames) {
            self.handle_send(from, node, inner, Origin::Local).await;
        }
    }

    async fn broadcast_route(&self, route: RelayMsg) {
        push_all(self.peer_queues(), route.encode().into_frame()).await;
    }

    /// Every live mesh link, snapshotted: pushing may park.
    fn peer_queues(&self) -> Vec<OutQueue> {
        self.peers.lock().values().cloned().collect()
    }

    // --------------------------------------------------------- forwarding

    /// Route one client frame: local shard, known remote relay, or pull.
    /// A registration that churns between lookup and enqueue gets one
    /// re-lookup.
    async fn handle_send(self: &Arc<Self>, from: GridId, to: GridId, inner: Bytes, origin: Origin) {
        for retried in [false, true] {
            let Some(q) = self.client(to) else { break };
            if self.deliver_local(&q, from, to, &inner).await {
                return;
            }
            // Shard closed under us: the registration died or moved this
            // instant. Re-resolve once, then give up.
            if retried {
                return self.undeliverable(from, to, inner, origin).await;
            }
        }
        match origin {
            // A FWD is never re-forwarded — the origin re-resolves — so a
            // stale mesh route can bounce but never loop.
            Origin::Peer(_) => self.undeliverable(from, to, inner, origin).await,
            Origin::Local => {
                let hop = self.remote.lock().get(&to).map(|e| e.relay);
                if let Some(relay) = hop {
                    let pq = self.peers.lock().get(&relay).cloned();
                    if let Some(pq) = pq {
                        let (route, bytes) = (Some((from, to)), inner.clone());
                        if pq.push(OutItem { route, bytes }).await.is_ok() {
                            return;
                        }
                    }
                }
                self.query_route(to, from, inner).await;
            }
        }
    }

    /// Enqueue into a recipient shard with typed backpressure: BUSY at the
    /// high watermark, a waiting push (never a drop — per-sender FIFO) when
    /// full. False when the shard closed.
    async fn deliver_local(
        self: &Arc<Self>,
        q: &OutQueue,
        from: GridId,
        to: GridId,
        inner: &Bytes,
    ) -> bool {
        let is_data = Envelope::is_data(inner);
        let (route, bytes) = (Some((from, to)), inner.clone());
        let item = match q.q.try_push(OutItem { route, bytes }) {
            Ok(()) => {
                if is_data && q.q.len() + q.in_hand.load(Ordering::Relaxed) >= q.cap - q.cap / 4 {
                    self.throttle(from, to, q);
                }
                return true;
            }
            Err(item) => item,
        };
        if q.q.is_closed() {
            return false;
        }
        if is_data {
            self.throttle(from, to, q);
        }
        q.push(item).await.is_ok()
    }

    /// The shard of client `id`, if it is registered here.
    fn client(&self, id: GridId) -> Option<OutQueue> {
        self.local.lock().get(&id).map(|e| Arc::clone(&e.q))
    }

    /// Tell a local sender that `to` runs hot: it joins `to`'s throttle set
    /// and is owed its BUSY in one step, before any drain can owe its READY.
    /// A sender over the mesh is backpressured by the FWD path.
    fn throttle(&self, from: GridId, to: GridId, q: &OutQueue) {
        let Some(src) = self.client(from) else { return };
        if q.ctl.lock().throttled.insert(from) {
            self.sched.metric_add(THROTTLED, 1);
            src.owe(|c| c.flow.insert(to, RelayMsg::Busy { peer: to }));
        }
    }

    /// Failure report for an undeliverable frame, shaped by where it came
    /// from: NOPEER towards a local sender, FWD_FAIL back to the origin
    /// relay otherwise.
    async fn undeliverable(&self, from: GridId, to: GridId, inner: Bytes, origin: Origin) {
        match origin {
            Origin::Local => self.nopeer(from, to, inner),
            Origin::Peer(pid) => {
                self.frame_to_peer(pid, RelayMsg::FwdFail { from, to, inner })
                    .await
            }
        }
    }

    /// Owe a local sender the NOPEER for `inner`, echoed. One not local (a
    /// re-routed leftover's) recovers by its own timeout or teardown.
    fn nopeer(&self, from: GridId, to: GridId, inner: Bytes) {
        let echo = Some(inner);
        let nopeer = RelayMsg::Nopeer { to, echo };
        if let Some(sender) = self.client(from) {
            sender.owe(|c| nopeer.frame_onto(&mut c.nopeers));
        }
    }

    async fn frame_to_peer(&self, pid: u64, msg: RelayMsg) {
        let pq = self.peers.lock().get(&pid).cloned();
        if let Some(pq) = pq {
            let bytes = msg.encode().into_frame();
            let _ = pq.push(OutItem { route: None, bytes }).await;
        }
    }

    /// `q` drained or ended: every sender it throttled is owed its READY.
    fn release_throttled(&self, q: &OutQueue) {
        // Only client shards ever throttle anyone.
        let Owner::Client(id) = q.owner else { return };
        let drained = std::mem::take(&mut q.ctl.lock().throttled);
        self.sched.metric_add(THROTTLED, -(drained.len() as i64));
        for sender in drained.into_iter().filter_map(|s| self.client(s)) {
            sender.owe(|c| c.flow.insert(id, RelayMsg::Ready { peer: id }));
        }
    }

    /// Re-resolve a leftover whose connection died or moved: a client frame
    /// chases its recipient; a control frame is dropped with its link.
    async fn reroute_item(self: &Arc<Self>, item: OutItem) {
        if let Some((from, to)) = item.route {
            self.handle_send(from, to, item.bytes, Origin::Local).await;
        }
    }

    // -------------------------------------------------------------- tasks

    /// One connection's reader, a client's or a mesh link's: `role` is
    /// what it is so far, and its first frame fixes the rest. A client's
    /// HELLO registers a shard and the reader forwards that client's SENDs,
    /// each once the NOPEERs owed to the client are under [`RUN_BYTES`];
    /// a peer's PEER_HELLO, answered in kind on an accepted link, makes it
    /// a mesh link, and the reader applies its route updates and forwards
    /// its FWDs. A frame the role does not take, or the connection's end,
    /// ends the reader: a registered shard is unregistered, and what it
    /// still held re-resolved.
    async fn read(self: Arc<Self>, conn: TcpStream, mut role: Role) {
        let mut frames = FrameStream::new(conn.clone());
        loop {
            if let Role::Client(_, q) = &role {
                wait("relay nopeer room", || q.poll_room()).await;
            }
            let read = ctx::wait_io(|| frames.poll_frame()).await;
            let Ok(msg) = read.and_then(|frame| RelayMsg::decode(&frame)) else {
                break;
            };
            match (&role, msg) {
                (&Role::Client(id, _), RelayMsg::Send { to, inner }) => {
                    self.handle_send(id, to, inner, Origin::Local).await
                }
                // Re-HELLO probe: re-assert the registration (it may have
                // been evicted towards this still-live connection) and
                // re-push the route so the mesh heals with it.
                (Role::Client(id, q), RelayMsg::Hello { .. }) => self.assert_local(*id, q).await,
                (Role::Accepted, RelayMsg::Hello { id }) => {
                    let q = self.spawn_shard(Owner::Client(id), conn.clone());
                    self.assert_local(id, &q).await;
                    role = Role::Client(id, q);
                }
                (Role::Accepted, RelayMsg::PeerHello { mesh_id }) => {
                    if self.peer_hello(&conn).await.is_err() {
                        return;
                    }
                    role = self.start_peer(mesh_id, conn.clone()).await;
                }
                (Role::Dialed, RelayMsg::PeerHello { mesh_id }) => {
                    role = self.start_peer(mesh_id, conn.clone()).await
                }
                (&Role::Peer(pid, _), RelayMsg::RouteAdd { node, epoch }) => {
                    self.route_add(pid, node, epoch).await
                }
                (&Role::Peer(pid, _), RelayMsg::RouteDel { node, epoch }) => {
                    self.forget_route(node, |e| e.relay == pid && e.epoch <= epoch)
                }
                (&Role::Peer(pid, _), RelayMsg::RouteQuery { node }) => {
                    let ans = self.local.lock().get(&node).map(|e| e.epoch);
                    let (found, epoch) = (ans.is_some(), ans.unwrap_or(0));
                    self.frame_to_peer(pid, RelayMsg::RouteRsp { node, found, epoch })
                        .await;
                }
                (&Role::Peer(pid, _), RelayMsg::RouteRsp { node, found, epoch }) => {
                    self.route_rsp(pid, node, found, epoch).await
                }
                (&Role::Peer(pid, _), RelayMsg::Fwd { from, to, inner }) => {
                    self.handle_send(from, to, inner, Origin::Peer(pid)).await
                }
                (&Role::Peer(pid, _), RelayMsg::FwdFail { from, to, inner }) => {
                    // Our route was stale: drop it and re-resolve — the
                    // node may have re-registered at a third relay (or back
                    // here) between our FWD and the bounce.
                    self.forget_route(to, |e| e.relay == pid);
                    self.handle_send(from, to, inner, Origin::Local).await;
                }
                _ => break,
            }
        }
        if let Role::Client(_, q) | Role::Peer(_, q) = &role {
            self.conn_dead(q).await;
        }
    }

    /// A shard's worker, its connection's one writer: a run at a time, the
    /// frames owed, then what is queued, up to one send buffer, encoded into
    /// one buffer (the one copy a forwarded payload gets here) and written
    /// as one block. On death or supersession, leftovers are re-resolved:
    /// a moved node's frames follow it to its new home relay.
    async fn write(self: Arc<Self>, q: OutQueue, conn: TcpStream) {
        let mut items = Vec::new();
        loop {
            let (owed, first) = wait(SimQueue::<OutItem>::POP_WAIT, || q.poll_work()).await;
            let mut bytes = first.as_ref().map_or(0, |item| item.bytes.len());
            items.extend(first);
            while bytes < RUN_BYTES {
                let Some(next) = q.q.try_pop() else { break };
                bytes += next.bytes.len();
                items.push(next);
            }
            if owed.is_empty() && items.is_empty() {
                // Closed and drained. Whatever ends this shard, parked
                // senders must not stay throttled forever: their next DATA
                // will fail fast through the normal NOPEER/teardown path.
                return self.release_throttled(&q);
            }
            if q.q.is_closed() {
                for item in items.drain(..) {
                    self.reroute_item(item).await;
                }
                continue;
            }
            let run = q.encode(owed, &items, bytes);
            q.in_hand.store(items.len(), Ordering::Relaxed);
            let written = ctx::wait_io(|| conn.poll_write_block(&run)).await;
            q.in_hand.store(0, Ordering::Relaxed);
            if written.is_err() {
                // Dead: the run goes elsewhere, after what queued behind.
                self.conn_dead(&q).await;
                continue;
            }
            items.clear();
            if q.q.len() <= q.cap / 4 {
                self.release_throttled(&q);
            }
        }
    }
}

/// Queue one encoded control frame on each of `qs`, in turn.
async fn push_all(qs: Vec<OutQueue>, frame: Bytes) {
    for q in qs {
        let _ = q
            .push(OutItem {
                route: None,
                bytes: frame.clone(),
            })
            .await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsim_net::{topology, Sim};

    /// What [`spawn_relay_mesh`] starts on `host:600`, with no peers, and
    /// a handle on its state.
    fn relay_at(host: &SimHost) -> Arc<MeshRelay> {
        let listener = host.listen(600).unwrap();
        let relay = Arc::new(MeshRelay {
            cfg: RelayConfig::default(),
            sched: host.net().sched().clone(),
            local: Mutex::default(),
            remote: Mutex::default(),
            peers: Mutex::default(),
            waiting: Mutex::default(),
        });
        let acceptor = Arc::clone(&relay);
        relay.sched.spawn_async("mesh-relay-accept", async move {
            while let Ok(conn) = next_conn(&listener).await {
                let reader = Arc::clone(&acceptor).read(conn, Role::Accepted);
                acceptor.sched.spawn_async("mesh-relay-conn", reader);
            }
        });
        relay
    }

    /// A raw client of the relay at `to`, registered as `id`.
    fn raw_client(host: &SimHost, to: SockAddr, id: GridId) -> TcpStream {
        let conn = ctx::block_on(dial(host, to, ConnectOpts::default())).unwrap();
        write(&conn, RelayMsg::Hello { id }.encode().into_frame());
        conn
    }

    fn write(conn: &TcpStream, block: Bytes) {
        ctx::park_io(|| conn.poll_write_block(&block)).unwrap();
    }

    /// The envelope of the `i`th SEND: 1000 bytes, its index first.
    fn envelope(i: u32) -> Bytes {
        let mut inner = vec![0xab; 1000];
        inner[..4].copy_from_slice(&i.to_be_bytes());
        inner.into()
    }

    /// A client that does not read sends 400 envelopes to an id registered
    /// nowhere, each drawing a NOPEER, and one of its peers runs hot and
    /// cold a hundred times. Its slot stays in its bound: one flow word
    /// for the peer, the latest, and NOPEERs under RUN_BYTES plus one,
    /// its reader at the relay waiting for room meanwhile. Once it reads,
    /// every NOPEER arrives, in order, and its last word about the peer is
    /// the throttle set's.
    #[test]
    fn the_control_slot_stays_in_its_bound_and_drops_nothing() {
        const SENDS: u32 = 400;
        let sim = Sim::new(3);
        let net = sim.net();
        let (a, b) = net.with(topology::lan_pair);
        let (ha, hb) = (SimHost::new(&net, a), SimHost::new(&net, b));
        let addr = SockAddr::new(hb.ip(), 600);
        let done = sim.spawn("driver", move || {
            let relay = relay_at(&hb);
            let (quiet, _peer) = (raw_client(&ha, addr, 1), raw_client(&hb, addr, 2));
            ctx::sleep(std::time::Duration::from_millis(50));
            let sender = quiet.clone();
            ctx::handle().spawn("sends", move || {
                for i in 0..SENDS {
                    let inner = envelope(i);
                    write(
                        &sender,
                        RelayMsg::Send { to: 99, inner }.encode().into_frame(),
                    );
                }
            });
            ctx::sleep(std::time::Duration::from_secs(2));
            let (q1, q2) = (relay.client(1).unwrap(), relay.client(2).unwrap());
            let nopeer = RelayMsg::Nopeer {
                to: 99,
                echo: Some(envelope(0)),
            };
            let one = nopeer.encode().into_frame().len();
            let owed = q1.ctl.lock().nopeers.len();
            assert!((RUN_BYTES..RUN_BYTES + one).contains(&owed), "{owed} B");
            let room = ctx::handle().metric(Metric("task/parks", None, "relay nopeer room"));
            assert_eq!(room, 1, "the reader waits for room once");
            let words = |q: &Shard| q.ctl.lock().flow.clone().into_iter().collect::<Vec<_>>();
            for hot in (0..200).map(|i| i % 2 == 0) {
                let word = if hot {
                    relay.throttle(1, 2, &q2);
                    RelayMsg::Busy { peer: 2 }
                } else {
                    relay.release_throttled(&q2);
                    RelayMsg::Ready { peer: 2 }
                };
                assert_eq!(words(&q1), [(2, word)]);
                assert_eq!(q2.ctl.lock().throttled.contains(&1), hot);
            }
            let mut frames = FrameStream::new(quiet);
            let (mut echoed, mut last_word) = (0, None);
            while echoed < SENDS {
                let frame = ctx::park_io(|| frames.poll_frame()).unwrap();
                match RelayMsg::decode(&frame).unwrap() {
                    RelayMsg::Nopeer { to: 99, echo } => {
                        assert_eq!(echo, Some(envelope(echoed)));
                        echoed += 1;
                    }
                    word @ (RelayMsg::Busy { .. } | RelayMsg::Ready { .. }) => {
                        last_word = Some(word)
                    }
                    other => panic!("{other:?}"),
                }
            }
            assert_eq!(last_word, Some(RelayMsg::Ready { peer: 2 }));
        });
        sim.run();
        assert!(done.is_finished());
    }
}
