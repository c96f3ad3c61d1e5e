//! Routed messages through an application-level relay (paper §3.3,
//! Figure 3): every node opens one outbound connection to a relay on a
//! public gateway; the relay forwards frames to their final recipient.
//!
//! The relay connection carries two things, multiplexed — the relay never
//! inspects inner payloads:
//!
//! * **service requests/responses** — the brokering channel for connection
//!   establishment (paper Fig. 7: "the data link uses TCP splicing with
//!   brokering through the service link"),
//! * **routed link streams** — last-resort data links ([`RoutedStream`],
//!   a byte stream tunneled frame-by-frame through the relay).
//!
//! Every frame crosses the relay host — the bottleneck Table 1 warns about
//! and bench E9 measures — so a frame is one write and one stated read at
//! every hop and its payload travels as `Bytes` from the read it arrived in
//! to the write it leaves by (DESIGN.md §5b, §10).

use bytes::Bytes;
use gridsim_net::{SchedHandle, SimMutex, SimQueue, SockAddr};
use gridsim_tcp::{SimHost, TcpStream};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::drivers::blockio::chunks_until;
use crate::drivers::{BlockRead, BlockWrite};
use crate::establish::factory::BootstrapSocketFactory;
use crate::link::{Backoff, LinkOwner, Pending, ServiceLink};
use crate::nameservice::GridId;
use crate::wire::{frame_onto, FrameReader, FrameStream, FrameWriter};

/// Maximum payload per routed DATA frame.
pub const ROUTED_CHUNK: usize = 8 * 1024;
/// Buffered chunks per routed stream before backpressure.
const STREAM_QUEUE: usize = 32;

mod relay_op {
    pub const HELLO: u8 = 1;
    pub const SEND: u8 = 2;
    pub const RECV: u8 = 3;
    pub const NOPEER: u8 = 4;
    // Backpressure and mesh ops (DESIGN.md §10). The relay-to-relay ops
    // only ever appear on PEER_HELLO'd connections.
    /// relay → client `{peer}`: `peer`'s receive queue is running hot —
    /// pause DATA towards it until READY.
    pub const BUSY: u8 = 5;
    /// relay → client `{peer}`: `peer`'s queue drained — resume.
    pub const READY: u8 = 6;
    /// relay ↔ relay `{mesh_id}`: first frame both ways on a mesh link.
    pub const PEER_HELLO: u8 = 7;
    /// relay → relay `{node, epoch}`: `node` is registered locally at the
    /// sending relay since `epoch` (sim-time ns; ties break on mesh id).
    pub const ROUTE_ADD: u8 = 8;
    /// relay → relay `{node, epoch}`: that registration ended.
    pub const ROUTE_DEL: u8 = 9;
    /// relay → relay `{node}`: pull — "is `node` registered with you?"
    pub const ROUTE_QUERY: u8 = 10;
    /// relay → relay `{node, found, epoch}`: answer, from local state only.
    pub const ROUTE_RSP: u8 = 11;
    /// relay → relay `{from, to, inner}`: forward one client frame to the
    /// relay currently homing `to`. Never re-forwarded (no mesh loops).
    pub const FWD: u8 = 12;
    /// relay → relay `{from, to, inner}`: a FWD bounced — `to` is not (or
    /// no longer) local at the receiving relay. The origin invalidates its
    /// route entry and re-resolves.
    pub const FWD_FAIL: u8 = 13;
}

mod inner_op {
    pub const SVC_REQ: u8 = 1;
    pub const SVC_RSP: u8 = 2;
    pub const OPEN: u8 = 3;
    pub const OPEN_OK: u8 = 4;
    pub const OPEN_ERR: u8 = 5;
    pub const DATA: u8 = 6;
    pub const FIN: u8 = 7;
    /// `{dir, sid, n}`: close barrier — "answer once every chunk I sent
    /// before this is in the stream's receive queue".
    pub const SYNC: u8 = 8;
    /// `{dir, sid, n}`: the answer to SYNC `n`.
    pub const SYNC_OK: u8 = 9;
}

// ---------------------------------------------------------------- server

/// Spawn a relay on `host:port` that peers with no other:
/// [`spawn_relay_mesh`] with the default [`RelayConfig`].
pub fn spawn_relay(host: &SimHost, port: u16) -> io::Result<()> {
    spawn_relay_mesh(host, port, RelayConfig::default())
}

/// Bounded frames per recipient shard queue before senders park.
const MESH_QUEUE_FRAMES: usize = 64;
/// Most a shard worker encodes into one write: one (default) send buffer.
const RUN_BYTES: usize = 64 * 1024;
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
    relay.sched.spawn_daemon("mesh-relay-accept", move || loop {
        let Ok(conn) = listener.accept() else { break };
        let r = Arc::clone(&acceptor);
        acceptor.sched.spawn_daemon("mesh-relay-conn", move || {
            let _ = r.serve_conn(conn);
        });
    });
    for addr in cfg.peers {
        let (r, h) = (Arc::clone(&relay), host.clone());
        let name = format!("mesh-peer-dial-{addr}");
        relay
            .sched
            .spawn_daemon(name, move || r.peer_dial_loop(&h, addr));
    }
    Ok(())
}

/// Who a shard queue delivers to.
#[derive(Clone, Copy)]
enum Owner {
    Client(GridId),
    Peer(u64),
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

/// One shard: a connection, the bounded queue its worker drains into it,
/// and the throttle set of senders that were told BUSY and are owed a READY
/// when the queue drains.
struct Shard {
    owner: Owner,
    q: SimQueue<OutItem>,
    /// The connection's write half. The worker's frames and the synchronous
    /// control frames (BUSY/READY/NOPEER) towards a client take turns under
    /// this lock, so they never interleave mid-frame.
    w: SimMutex<TcpStream>,
    throttled: Mutex<std::collections::HashSet<GridId>>,
    /// Set when the registration this queue fed was superseded or died:
    /// the worker stops writing and re-routes what is left.
    dead: AtomicBool,
    cap: usize,
    /// Frames the worker has popped into the run it is writing: still
    /// backlog, as far as the high watermark is concerned.
    in_hand: AtomicUsize,
}

/// A handle on a shard. Registries compare handles by identity before they
/// remove one: a superseded connection must not unregister its successor.
type OutQueue = Arc<Shard>;

impl Shard {
    fn kill(&self) {
        self.dead.store(true, Ordering::Relaxed);
        self.q.close();
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

    fn serve_conn(self: &Arc<Self>, conn: TcpStream) -> io::Result<()> {
        let mut reader = FrameStream::new(conn.clone());
        let first = reader.next_frame()?;
        let mut r = FrameReader::new(&first);
        match r.u8()? {
            relay_op::HELLO => {
                let id = r.u64()?;
                let q = self.spawn_shard(Owner::Client(id), conn);
                self.assert_local(id, &q);
                let res = self.serve_client(id, &q, reader);
                self.conn_dead(&q);
                res
            }
            relay_op::PEER_HELLO => {
                let pid = r.u64()?;
                self.peer_hello(&conn)?;
                self.run_peer(pid, conn, reader)
            }
            _ => Err(io::ErrorKind::InvalidData.into()),
        }
    }

    fn serve_client(
        self: &Arc<Self>,
        id: GridId,
        q: &OutQueue,
        mut reader: FrameStream,
    ) -> io::Result<()> {
        loop {
            let frame = reader.next_frame()?;
            let mut r = FrameReader::new(&frame);
            match r.u8()? {
                relay_op::SEND => {
                    let to = r.u64()?;
                    let inner = r.bytes_in(&frame)?;
                    self.handle_send(id, to, inner, Origin::Local, false);
                }
                relay_op::HELLO => {
                    // Re-HELLO probe: re-assert the registration (it may
                    // have been evicted towards this still-live connection)
                    // and re-push the route so the mesh heals with it.
                    let _ = r.u64()?;
                    self.assert_local(id, q);
                }
                _ => return Err(io::ErrorKind::InvalidData.into()),
            }
        }
    }

    /// A fresh shard on `conn`, with the worker task that drains it.
    fn spawn_shard(self: &Arc<Self>, owner: Owner, conn: TcpStream) -> OutQueue {
        let cap = self.cfg.queue_frames.max(2);
        let q = Arc::new(Shard {
            owner,
            q: SimQueue::bounded(cap),
            w: SimMutex::new(conn),
            throttled: Mutex::default(),
            dead: AtomicBool::new(false),
            cap,
            in_hand: AtomicUsize::new(0),
        });
        let name = match owner {
            Owner::Client(id) => format!("mesh-shard-{id}"),
            Owner::Peer(pid) => format!("mesh-peer-out-{pid}"),
        };
        let (me, q2) = (Arc::clone(self), Arc::clone(&q));
        self.sched.spawn_daemon(name, move || me.out_worker(q2));
        q
    }

    /// (Re-)register `id` as homed here on `q`, superseding any older
    /// registration, and push the route to the mesh.
    fn assert_local(self: &Arc<Self>, id: GridId, q: &OutQueue) {
        let epoch = self.sched.now().as_nanos();
        let entry = LocalEntry {
            q: Arc::clone(q),
            epoch,
        };
        let old = self.local.lock().insert(id, entry);
        if let Some(old) = old.filter(|old| !Arc::ptr_eq(&old.q, q)) {
            // The superseded shard's worker re-routes its leftovers —
            // which now resolve to this fresh registration.
            old.q.kill();
        }
        self.remote.lock().remove(&id);
        self.broadcast_route(relay_op::ROUTE_ADD, id, epoch);
        self.flush_waiting(id);
    }

    /// A connection ended: unregister its shard — only if the table still
    /// holds *this* one, a reconnect may have superseded it — and re-resolve
    /// what the shard still held.
    fn conn_dead(self: &Arc<Self>, q: &OutQueue) {
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
        q.kill();
        while let Some(item) = q.q.try_pop() {
            self.reroute_item(item);
        }
        if let Some((id, epoch)) = unregistered {
            self.broadcast_route(relay_op::ROUTE_DEL, id, epoch);
        }
    }

    /// Dial a mesh peer (which may restart at any time) along
    /// [`PEER_DIAL`]. Every dial counts, one whose link served and then
    /// died included: a peer dead past the whole ladder is assumed gone for
    /// good (its clients fail over to the survivors), and giving up lets a
    /// simulation with a crashed relay wind down instead of redialing
    /// forever.
    fn peer_dial_loop(self: &Arc<Self>, host: &SimHost, addr: SockAddr) {
        let _ = self.peer_dial_once(host, addr);
        for delay in PEER_DIAL.delays() {
            gridsim_net::ctx::sleep(delay);
            let _ = self.peer_dial_once(host, addr);
        }
    }

    /// Dial one mesh peer, handshake, and serve the link until it dies.
    fn peer_dial_once(self: &Arc<Self>, host: &SimHost, addr: SockAddr) -> io::Result<()> {
        let factory = BootstrapSocketFactory::new(host.clone(), None);
        let conn = factory.connect(addr)?;
        self.peer_hello(&conn)?;
        let mut reader = FrameStream::new(conn.clone());
        let hello = reader.next_frame()?;
        let mut r = FrameReader::new(&hello);
        if r.u8()? != relay_op::PEER_HELLO {
            return Err(io::ErrorKind::InvalidData.into());
        }
        let pid = r.u64()?;
        self.run_peer(pid, conn, reader)
    }

    /// Introduce ourselves on a mesh link: the first frame, both ways.
    fn peer_hello(&self, conn: &TcpStream) -> io::Result<()> {
        FrameWriter::new()
            .u8(relay_op::PEER_HELLO)
            .u64(self.cfg.mesh_id)
            .send(&mut conn.clone())
    }

    /// Register a handshaken mesh link and serve it until it dies.
    fn run_peer(
        self: &Arc<Self>,
        pid: u64,
        conn: TcpStream,
        reader: FrameStream,
    ) -> io::Result<()> {
        let q = self.spawn_shard(Owner::Peer(pid), conn);
        // Both ends dial, so a pair may hold two links; the latest wins for
        // sends, the older one keeps draining until its connection dies.
        self.peers.lock().insert(pid, q.clone());
        // Push our whole local table — the "push on register" half of the
        // protocol, batched so a (re)joining peer converges immediately.
        let table: Vec<(GridId, u64)> = self
            .local
            .lock()
            .iter()
            .map(|(id, e)| (*id, e.epoch))
            .collect();
        for (id, epoch) in table {
            let f = FrameWriter::new()
                .u8(relay_op::ROUTE_ADD)
                .u64(id)
                .u64(epoch);
            let (route, bytes) = (None, f.into_frame());
            let _ = q.q.push(OutItem { route, bytes });
        }
        let res = self.serve_peer(pid, reader);
        self.conn_dead(&q);
        res
    }

    fn serve_peer(self: &Arc<Self>, pid: u64, mut reader: FrameStream) -> io::Result<()> {
        loop {
            let frame = reader.next_frame()?;
            let mut r = FrameReader::new(&frame);
            match r.u8()? {
                relay_op::ROUTE_ADD => {
                    let node = r.u64()?;
                    let epoch = r.u64()?;
                    self.route_add(pid, node, epoch);
                }
                relay_op::ROUTE_DEL => {
                    let node = r.u64()?;
                    let epoch = r.u64()?;
                    let mut rt = self.remote.lock();
                    if rt
                        .get(&node)
                        .is_some_and(|e| e.relay == pid && e.epoch <= epoch)
                    {
                        rt.remove(&node);
                    }
                }
                relay_op::ROUTE_QUERY => {
                    let node = r.u64()?;
                    let ans = self.local.lock().get(&node).map(|e| e.epoch);
                    let f = FrameWriter::new()
                        .u8(relay_op::ROUTE_RSP)
                        .u64(node)
                        .u8(ans.is_some() as u8)
                        .u64(ans.unwrap_or(0));
                    self.frame_to_peer(pid, f);
                }
                relay_op::ROUTE_RSP => {
                    let node = r.u64()?;
                    let found = r.u8()? == 1;
                    let epoch = r.u64()?;
                    self.route_rsp(pid, node, found, epoch);
                }
                op @ (relay_op::FWD | relay_op::FWD_FAIL) => {
                    let (from, to) = (r.u64()?, r.u64()?);
                    let inner = r.bytes_in(&frame)?;
                    if op == relay_op::FWD {
                        self.handle_send(from, to, inner, Origin::Peer(pid), false);
                        continue;
                    }
                    // Our route was stale: drop it and re-resolve — the
                    // node may have re-registered at a third relay (or back
                    // here) between our FWD and the bounce.
                    {
                        let mut rt = self.remote.lock();
                        if rt.get(&to).is_some_and(|e| e.relay == pid) {
                            rt.remove(&to);
                        }
                    }
                    self.handle_send(from, to, inner, Origin::Local, false);
                }
                _ => return Err(io::ErrorKind::InvalidData.into()),
            }
        }
    }

    // ------------------------------------------------------------ routing

    fn route_add(self: &Arc<Self>, pid: u64, node: GridId, epoch: u64) {
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
            e.q.kill();
        }
        self.learn_route(pid, node, epoch);
    }

    /// Note that `node` is homed at relay `pid` since `epoch`, unless a
    /// newer route is known, and re-resolve the frames parked for it.
    fn learn_route(self: &Arc<Self>, pid: u64, node: GridId, epoch: u64) {
        {
            let mut rt = self.remote.lock();
            match rt.get(&node) {
                Some(e) if (e.epoch, e.relay) >= (epoch, pid) => {}
                _ => {
                    rt.insert(node, RemoteEntry { relay: pid, epoch });
                }
            }
        }
        self.flush_waiting(node);
    }

    fn route_rsp(self: &Arc<Self>, pid: u64, node: GridId, found: bool, epoch: u64) {
        if found {
            // Only act on a reply we are still waiting for. A reply that
            // straggles in after the query window closed (frames already
            // NOPEER'd) or was never solicited must not install a route:
            // the answering relay's registration may have moved since, and
            // unsolicited learning goes through ADD broadcasts, which
            // carry eviction semantics this path lacks.
            if self.waiting.lock().contains_key(&node) {
                self.learn_route(pid, node, epoch);
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
    fn fail_waiting(self: &Arc<Self>, node: GridId) {
        let pend = self.waiting.lock().remove(&node);
        for (from, inner) in pend.map_or(Vec::new(), |p| p.frames) {
            self.undeliverable(from, node, inner, Origin::Local);
        }
    }

    /// Pull: park the frame, ask every peer, resolve on the first positive
    /// answer, NOPEER when all deny or the window closes.
    fn query_route(self: &Arc<Self>, to: GridId, from: GridId, inner: Bytes) {
        let peer_qs = self.peer_queues();
        if peer_qs.is_empty() {
            return self.undeliverable(from, to, inner, Origin::Local);
        }
        {
            let mut w = self.waiting.lock();
            if let Some(p) = w.get_mut(&to) {
                // A pull for `to` is out already: ride it, up to the cap.
                if p.frames.len() < ROUTE_WAIT_CAP {
                    p.frames.push((from, inner));
                    return;
                }
                drop(w);
                return self.undeliverable(from, to, inner, Origin::Local);
            }
            let pull = PendingRoute {
                frames: vec![(from, inner)],
                outstanding: peer_qs.len(),
            };
            w.insert(to, pull);
        }
        let weak = Arc::downgrade(self);
        self.sched
            .call_at(self.sched.now() + ROUTE_QUERY_TIMEOUT, move || {
                let Some(me) = weak.upgrade() else { return };
                if me.waiting.lock().contains_key(&to) {
                    // Drain in a task: NOPEER writes may park.
                    let sched = me.sched.clone();
                    sched.spawn_daemon("route-timeout", move || me.fail_waiting(to));
                }
            });
        let f = FrameWriter::new().u8(relay_op::ROUTE_QUERY).u64(to);
        let f = f.into_frame();
        for pq in peer_qs {
            let (route, bytes) = (None, f.clone());
            let _ = pq.q.push(OutItem { route, bytes });
        }
    }

    /// Re-resolve frames parked for `node` (route learned, or the node
    /// registered here).
    fn flush_waiting(self: &Arc<Self>, node: GridId) {
        let pend = self.waiting.lock().remove(&node);
        for (from, inner) in pend.map_or(Vec::new(), |p| p.frames) {
            self.handle_send(from, node, inner, Origin::Local, false);
        }
    }

    fn broadcast_route(self: &Arc<Self>, op: u8, node: GridId, epoch: u64) {
        let f = FrameWriter::new().u8(op).u64(node).u64(epoch).into_frame();
        for pq in self.peer_queues() {
            let (route, bytes) = (None, f.clone());
            let _ = pq.q.push(OutItem { route, bytes });
        }
    }

    /// Every live mesh link, snapshotted: pushing may park.
    fn peer_queues(&self) -> Vec<OutQueue> {
        self.peers.lock().values().cloned().collect()
    }

    // --------------------------------------------------------- forwarding

    /// Route one client frame: local shard, known remote relay, or pull.
    /// `retried` bounds the one re-lookup allowed when a registration
    /// churns between lookup and enqueue.
    fn handle_send(
        self: &Arc<Self>,
        from: GridId,
        to: GridId,
        inner: Bytes,
        origin: Origin,
        retried: bool,
    ) {
        let shard = self.local.lock().get(&to).map(|e| e.q.clone());
        if let Some(q) = shard {
            return match self.deliver_local(&q, from, to, &inner) {
                true => (),
                // Shard closed under us: the registration died or moved
                // this instant. Re-resolve once, then give up.
                false if !retried => self.handle_send(from, to, inner, origin, true),
                false => self.undeliverable(from, to, inner, origin),
            };
        }
        match origin {
            // A FWD is never re-forwarded — the origin re-resolves — so a
            // stale mesh route can bounce but never loop.
            Origin::Peer(_) => self.undeliverable(from, to, inner, origin),
            Origin::Local => {
                let hop = self.remote.lock().get(&to).map(|e| e.relay);
                if let Some(relay) = hop {
                    let pq = self.peers.lock().get(&relay).cloned();
                    if let Some(pq) = pq {
                        let (route, bytes) = (Some((from, to)), inner.clone());
                        if pq.q.push(OutItem { route, bytes }).is_ok() {
                            return;
                        }
                    }
                }
                self.query_route(to, from, inner);
            }
        }
    }

    /// Enqueue into a recipient shard with typed backpressure: BUSY at the
    /// high watermark, a parked push (never a drop — per-sender FIFO) when
    /// full. False when the shard closed.
    fn deliver_local(
        self: &Arc<Self>,
        q: &OutQueue,
        from: GridId,
        to: GridId,
        inner: &Bytes,
    ) -> bool {
        let is_data = inner.first() == Some(&inner_op::DATA);
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
        q.q.push(item).is_ok()
    }

    /// Tell a (local) sender that `to` is running hot. Senders that came
    /// in over the mesh are backpressured by the FWD path instead.
    fn throttle(self: &Arc<Self>, from: GridId, to: GridId, q: &OutQueue) {
        if q.throttled.lock().insert(from) {
            self.ctl_to_local(from, FrameWriter::new().u8(relay_op::BUSY).u64(to));
        }
    }

    /// Failure report for an undeliverable frame, shaped by where it came
    /// from: NOPEER with the echoed inner frame towards a local sender,
    /// FWD_FAIL back to the origin relay otherwise. A non-local sender on
    /// the Local path (a re-routed leftover) has nowhere to report to; the
    /// sender's own timeout/stream-teardown machinery recovers.
    fn undeliverable(self: &Arc<Self>, from: GridId, to: GridId, inner: Bytes, origin: Origin) {
        match origin {
            Origin::Local => {
                let f = FrameWriter::new().u8(relay_op::NOPEER).u64(to);
                self.ctl_to_local(from, f.bytes(&inner));
            }
            Origin::Peer(pid) => {
                let f = FrameWriter::new().u8(relay_op::FWD_FAIL).u64(from);
                self.frame_to_peer(pid, f.u64(to).bytes(&inner));
            }
        }
    }

    /// Synchronous control write (BUSY/READY/NOPEER) to a local client,
    /// bypassing its shard queue — these must not sit behind the very
    /// backlog they report on.
    fn ctl_to_local(&self, to: GridId, frame: FrameWriter) {
        let shard = self.local.lock().get(&to).map(|e| Arc::clone(&e.q));
        if let Some(shard) = shard {
            let _ = frame.send(&mut *shard.w.lock());
        }
    }

    fn frame_to_peer(&self, pid: u64, frame: FrameWriter) {
        let pq = self.peers.lock().get(&pid).cloned();
        if let Some(pq) = pq {
            let (route, bytes) = (None, frame.into_frame());
            let _ = pq.q.push(OutItem { route, bytes });
        }
    }

    /// Shard worker: drain one queue into one connection, a run at a time —
    /// whatever is queued when it wakes, up to one send buffer, encoded into
    /// one buffer (the one copy a forwarded payload gets here) and written
    /// as one block. On death or supersession, leftovers are re-resolved
    /// through the routing table — a moved node's frames follow it to its
    /// new home relay.
    fn out_worker(self: Arc<Self>, q: OutQueue) {
        let mut broken = false;
        while let Some(first) = q.q.pop() {
            let mut bytes = first.bytes.len();
            let mut items = vec![first];
            while bytes < RUN_BYTES {
                let Some(next) = q.q.try_pop() else { break };
                bytes += next.bytes.len();
                items.push(next);
            }
            if !(broken || q.dead.load(Ordering::Relaxed)) {
                let mut run = Vec::with_capacity(bytes + 32 * items.len());
                for item in &items {
                    match (item.route, q.owner) {
                        (None, _) => run.extend_from_slice(&item.bytes),
                        (Some((from, _)), Owner::Client(_)) => {
                            frame_onto(&mut run, relay_op::RECV, &[from], &item.bytes)
                        }
                        (Some((from, to)), Owner::Peer(_)) => {
                            frame_onto(&mut run, relay_op::FWD, &[from, to], &item.bytes)
                        }
                    }
                }
                q.in_hand.store(items.len(), Ordering::Relaxed);
                let written = q.w.lock().write_block(run.into());
                q.in_hand.store(0, Ordering::Relaxed);
                if written.is_ok() {
                    if q.q.len() <= q.cap / 4 {
                        self.release_throttled(&q);
                    }
                    continue;
                }
                broken = true;
                self.conn_dead(&q);
            }
            for item in items {
                self.reroute_item(item);
            }
        }
        // Whatever ends this shard, parked senders must not stay throttled
        // forever: their next DATA will fail fast through the normal
        // NOPEER/teardown path instead.
        self.release_throttled(&q);
    }

    fn release_throttled(&self, q: &OutQueue) {
        // Only client shards ever throttle anyone.
        let Owner::Client(id) = q.owner else { return };
        let drained: Vec<GridId> = q.throttled.lock().drain().collect();
        for s in drained {
            self.ctl_to_local(s, FrameWriter::new().u8(relay_op::READY).u64(id));
        }
    }

    /// Re-resolve a queue leftover after its connection died or moved: an
    /// undelivered client frame chases its recipient through whatever route
    /// resolution finds now. Control frames are dropped with their link.
    fn reroute_item(self: &Arc<Self>, item: OutItem) {
        if let Some((from, to)) = item.route {
            self.handle_send(from, to, item.bytes, Origin::Local, false);
        }
    }
}

// ---------------------------------------------------------------- client

/// Callbacks from the relay client into the node runtime.
pub trait RelayDelegate: Send + Sync {
    /// Handle a service (brokering) request; return the response payload.
    fn on_service_request(&self, from: GridId, payload: &[u8]) -> Vec<u8>;
    /// An incoming routed link targeting `port_name`: admit or refuse it.
    /// Runs in the relay pump, before the OPEN is answered, so it must not
    /// block — whatever does (handshakes, reading the stream) goes into a
    /// task of the delegate's own, which reports a late failure with
    /// [`RoutedStream::refuse`].
    fn on_open(
        &self,
        from: GridId,
        port_name: &str,
        channel: u64,
        stream: RoutedStream,
    ) -> Result<(), String>;
}

/// Key of a routed stream in a client's table: `(peer, sid, opened_by_peer)`.
/// Both ends number the streams they open from 1, so the direction bit is
/// part of the identity.
type StreamKey = (GridId, u64, bool);

struct RcInner {
    id: GridId,
    /// The service link, redialed along [`REDIAL`].
    link: Arc<ServiceLink>,
    factory: BootstrapSocketFactory,
    /// Service requests by id, filed under the peer they went to.
    pending: Pending<io::Result<Vec<u8>>>,
    /// Stream opens by sid, filed under the peer they went to.
    open_waits: Pending<Result<(), String>>,
    /// Live routed streams, ours and the peers'.
    streams: Mutex<BTreeMap<StreamKey, RoutedStream>>,
    delegate: Mutex<Option<Arc<dyn RelayDelegate>>>,
    /// Peers the relay flagged BUSY: DATA writes towards them park here
    /// until the READY, with the wakers to release.
    congested: Mutex<HashMap<GridId, Vec<gridsim_net::Waker>>>,
    /// Times this client was BUSY-throttled (observability + bench probe).
    busy_throttles: AtomicU64,
    sched: SchedHandle,
}

/// Before each redial of a lost relay connection.
pub(crate) const REDIAL: Backoff = Backoff::ms(6, 100, 2000);
/// Sweeps of the ordered relay list at join: a login storm can refuse dials
/// (accept backlog full) to a healthy relay.
const HELLO_SWEEPS: u32 = 3;
const HELLO_SWEEP_BACKOFF: std::time::Duration = std::time::Duration::from_millis(100);
/// In-flight service requests failed by a relay loss are retried for this
/// long (spanning the redial backoff) before the error surfaces.
const SVC_RETRY_WINDOW: std::time::Duration = std::time::Duration::from_secs(6);
const SVC_RETRY_DELAY: std::time::Duration = std::time::Duration::from_millis(250);

/// A node's connection to the relay.
#[derive(Clone)]
pub struct RelayClient {
    inner: Arc<RcInner>,
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
                busy_throttles: AtomicU64::new(0),
                sched: host.net().sched().clone(),
            }),
        };
        // Up to `HELLO_SWEEPS` sweeps of the list (a send with the link
        // down dials it); ephemeral-port exhaustion is retried inside each
        // dial.
        let join = || client.inner.link.send(&client, |_, _| Ok(()));
        let mut joined = join();
        for _ in 1..HELLO_SWEEPS {
            if joined.is_ok() {
                break;
            }
            gridsim_net::ctx::sleep(HELLO_SWEEP_BACKOFF);
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
    pub fn nudge(&self) {
        let hello = FrameWriter::new().u8(relay_op::HELLO).u64(self.inner.id);
        let _ = self.inner.link.send(self, |w, _| hello.send(w));
    }

    pub fn id(&self) -> GridId {
        self.inner.id
    }

    /// Install the node-runtime callbacks.
    pub fn set_delegate(&self, d: Arc<dyn RelayDelegate>) {
        *self.inner.delegate.lock() = Some(d);
    }

    /// Send one inner frame to `to` through the relay: the SEND fields go
    /// into `inner`'s headroom, the whole frame out as one block.
    fn send_inner(&self, to: GridId, inner: FrameWriter) -> io::Result<()> {
        let send = FrameWriter::new().u8(relay_op::SEND).u64(to).wrap(inner);
        self.inner.link.send(self, |w, _| send.send(w))
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
        timeout: Option<std::time::Duration>,
    ) -> io::Result<Vec<u8>> {
        // A request failed by a relay-connection loss (`ConnectionReset`,
        // from `lost` or a dead writer) is retried while the pump
        // redials — possibly onto a failover relay — until the window
        // closes. Fault-free requests resolve on the first try and never
        // enter the loop; other errors (TimedOut, NotFound, refusals)
        // surface immediately.
        let deadline = gridsim_net::ctx::now() + SVC_RETRY_WINDOW;
        loop {
            match self.try_service_request(to, payload, timeout) {
                Err(e)
                    if e.kind() == io::ErrorKind::ConnectionReset
                        && gridsim_net::ctx::now() < deadline =>
                {
                    gridsim_net::ctx::sleep(SVC_RETRY_DELAY);
                }
                r => return r,
            }
        }
    }

    fn try_service_request(
        &self,
        to: GridId,
        payload: &[u8],
        timeout: Option<std::time::Duration>,
    ) -> io::Result<Vec<u8>> {
        let req_id = self.inner.pending.next_id();
        if let Some(dt) = timeout {
            let weak = Arc::downgrade(&self.inner);
            self.inner
                .sched
                .call_at(self.inner.sched.now() + dt, move || {
                    if let Some(inner) = weak.upgrade() {
                        let timed_out = || Err(io::ErrorKind::TimedOut.into());
                        inner.pending.fail(|id, _| id == req_id, timed_out);
                    }
                });
        }
        let frame = FrameWriter::new()
            .u8(inner_op::SVC_REQ)
            .u64(req_id)
            .bytes(payload);
        let pending = &self.inner.pending;
        pending.post(req_id, to, || self.send_inner(to, frame))?;
        pending.wait(req_id, "relay svc rsp")?
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
        let frame = FrameWriter::new()
            .u8(inner_op::OPEN)
            .u64(sid)
            .str(port_name)
            .u64(channel);
        let refused = |msg| io::Error::new(io::ErrorKind::ConnectionRefused, msg);
        let waits = &self.inner.open_waits;
        let posted = waits.post(sid, to, || self.send_inner(to, frame));
        let opened = posted.and_then(|()| waits.wait(sid, "relay open")?.map_err(refused));
        if opened.is_err() {
            // The table entry holds the stream, and the stream this client:
            // a failed open must not leave that cycle behind.
            self.inner.streams.lock().remove(&key);
        }
        opened.map(|()| stream)
    }

    /// Park while the relay holds `to` BUSY. A lost READY cannot strand the
    /// caller: the relay re-READYs when the shard drains or dies, and a
    /// relay-connection loss clears the whole map (`lost`).
    fn wait_ready(&self, to: GridId) {
        loop {
            {
                let mut c = self.inner.congested.lock();
                match c.get_mut(&to) {
                    None => return,
                    Some(wakers) => wakers.push(gridsim_net::ctx::waker()),
                }
            }
            gridsim_net::ctx::park("relay peer busy");
        }
    }

    /// Times the relay BUSY-throttled this client (monotonic).
    pub fn busy_throttles(&self) -> u64 {
        self.inner.busy_throttles.load(Ordering::Relaxed)
    }

    /// Fail exactly the request the echoed inner frame belonged to. Returns
    /// false when the frame doesn't identify one (caller falls back to
    /// failing everything towards the peer).
    fn nopeer_precise(&self, to: GridId, inner: &[u8]) -> bool {
        let mut r = FrameReader::new(inner);
        let Ok(op) = r.u8() else { return false };
        match op {
            // An id nobody waits on any more is already resolved; there is
            // nothing else to fail.
            inner_op::SVC_REQ => {
                let Ok(req_id) = r.u64() else { return false };
                let gone = || Err(no_peer(to));
                self.inner.pending.fail(|id, _| id == req_id, gone);
                true
            }
            inner_op::OPEN => {
                let Ok(sid) = r.u64() else { return false };
                let gone = || Err(no_peer(to).to_string());
                self.inner.open_waits.fail(|id, _| id == sid, gone);
                true
            }
            inner_op::DATA | inner_op::FIN | inner_op::SYNC => {
                // The peer behind an open routed stream vanished: close the
                // stream so readers see Eof (and a close barrier fails)
                // instead of parking forever. The echo is our own frame, so
                // its direction bit says whether we opened the stream.
                let Ok(we_opened) = r.u8() else { return false };
                let Ok(sid) = r.u64() else { return false };
                let stream = self.inner.streams.lock().remove(&(to, sid, we_opened != 1));
                if let Some(s) = stream {
                    s.close_rx();
                }
                true
            }
            // An answer of ours bounced: the requester is gone, nothing is
            // waiting on our side.
            inner_op::SVC_RSP | inner_op::OPEN_OK | inner_op::OPEN_ERR | inner_op::SYNC_OK => true,
            _ => false,
        }
    }

    /// Fallback for a NOPEER whose echo is missing or does not parse: fail
    /// every outstanding request towards `to`.
    fn nopeer_all(&self, to: GridId) {
        let towards = |_, peer| peer == to;
        self.inner.pending.fail(towards, || Err(no_peer(to)));
        let gone = || Err(no_peer(to).to_string());
        self.inner.open_waits.fail(towards, gone);
    }

    fn dispatch_inner(&self, from: GridId, inner: Bytes) -> io::Result<()> {
        let mut r = FrameReader::new(&inner);
        let op = r.u8()?;
        match op {
            inner_op::SVC_REQ => {
                let req_id = r.u64()?;
                let payload = r.bytes()?.to_vec();
                let delegate = self.inner.delegate.lock().clone();
                let me = self.clone();
                self.inner.sched.spawn_daemon("svc-handler", move || {
                    let rsp = match delegate {
                        Some(d) => (1u8, d.on_service_request(from, &payload)),
                        None => (0u8, b"no service handler".to_vec()),
                    };
                    let frame = FrameWriter::new().u8(inner_op::SVC_RSP).u64(req_id);
                    let _ = me.send_inner(from, frame.u8(rsp.0).bytes(&rsp.1));
                });
                Ok(())
            }
            inner_op::SVC_RSP => {
                let req_id = r.u64()?;
                let ok = r.u8()?;
                let payload = r.bytes()?;
                let answer = if ok == 1 {
                    Ok(payload.to_vec())
                } else {
                    Err(io::Error::other(
                        String::from_utf8_lossy(payload).into_owned(),
                    ))
                };
                self.inner.pending.resolve(req_id, answer);
                Ok(())
            }
            inner_op::OPEN => {
                let sid = r.u64()?;
                let port_name = r.str()?;
                let channel = r.u64()?;
                let Some(d) = self.inner.delegate.lock().clone() else {
                    return self.send_inner(from, open_err(sid, "no delegate"));
                };
                let stream = RoutedStream::new(self.clone(), from, sid, false);
                // Exactly one answer: the delegate admits or refuses here,
                // and does what may block in a task of its own.
                let answer = match d.on_open(from, &port_name, channel, stream.clone()) {
                    Ok(()) => {
                        self.inner.streams.lock().insert(stream.key(), stream);
                        FrameWriter::new().u8(inner_op::OPEN_OK).u64(sid)
                    }
                    Err(msg) => {
                        // Never open: its last handle owes the peer no FIN.
                        stream.inner.fin_sent.store(true, Ordering::Relaxed);
                        open_err(sid, &msg)
                    }
                };
                self.send_inner(from, answer)
            }
            inner_op::OPEN_OK => {
                let sid = r.u64()?;
                self.inner.open_waits.resolve(sid, Ok(()));
                Ok(())
            }
            inner_op::OPEN_ERR => {
                let sid = r.u64()?;
                let msg = r.str()?;
                if !self.inner.open_waits.resolve(sid, Err(msg)) {
                    // Error for an already-open stream: close it.
                    let stream = self.inner.streams.lock().get(&(from, sid, false)).cloned();
                    if let Some(s) = stream {
                        s.close_rx();
                    }
                }
                Ok(())
            }
            inner_op::DATA | inner_op::SYNC | inner_op::SYNC_OK | inner_op::FIN => {
                self.dispatch_stream(op, from, inner.slice(1..))
            }
            _ => Err(io::ErrorKind::InvalidData.into()),
        }
    }

    /// The per-stream frames, all `{op, dir, sid, ..}`, here from `dir` on;
    /// `dir` says whether the frame's sender is the end that opened the stream.
    fn dispatch_stream(&self, op: u8, from: GridId, body: Bytes) -> io::Result<()> {
        let mut r = FrameReader::new(&body);
        let opened_by_sender = r.u8()? == 1;
        let sid = r.u64()?;
        let key = (from, sid, opened_by_sender);
        let stream = match op {
            inner_op::FIN => self.inner.streams.lock().remove(&key),
            _ => self.inner.streams.lock().get(&key).cloned(),
        };
        let answer = |op| stream_frame(op, !opened_by_sender, sid);
        let answer = match (op, stream) {
            (inner_op::DATA, Some(s)) => {
                // push blocks under backpressure, stalling the pump — and
                // therefore the relay TCP connection. Crude but faithful to
                // a single multiplexed relay link.
                let _ = s.inner.rx.push(r.bytes_in(&body)?);
                return Ok(());
            }
            // This pump dispatches in arrival order, so every chunk the peer
            // sent before its SYNC is in `rx` by now.
            (inner_op::SYNC, Some(s)) if !s.is_closed() => answer(inner_op::SYNC_OK).u64(r.u64()?),
            // A frame for a stream we no longer know: our state was reset
            // (relay failover) while the peer kept writing through its own
            // still-healthy relay. Answer FIN so its write side closes and
            // its session layer recovers, instead of silently eating the
            // bytes. FIN for an unknown stream is a no-op on the peer, so
            // this cannot loop.
            (inner_op::DATA | inner_op::SYNC, _) => answer(inner_op::FIN),
            (inner_op::SYNC_OK, Some(s)) => {
                s.synced(r.u64()?);
                return Ok(());
            }
            (inner_op::FIN, Some(s)) => {
                s.inner.fin_received.store(true, Ordering::Relaxed);
                s.close_rx();
                return Ok(());
            }
            _ => return Ok(()),
        };
        let _ = self.send_inner(from, answer);
        Ok(())
    }
}

/// The relay client is its service link's owner: it greets the relay,
/// dispatches what the relay sends and cleans up after a lost connection.
impl LinkOwner for RelayClient {
    /// Dial outside the node's NAT gate — a splice responder holds the gate
    /// across a relay round trip, so a dial under it could wait on itself —
    /// and say HELLO.
    fn dial(&self, addr: SockAddr) -> io::Result<TcpStream> {
        let stream = self.inner.factory.connect(addr)?;
        let hello = FrameWriter::new().u8(relay_op::HELLO).u64(self.inner.id);
        hello.send(&mut stream.clone())?;
        Ok(stream)
    }

    fn dispatch(&self, _gen: u64, frame: Bytes) -> io::Result<()> {
        let mut r = FrameReader::new(&frame);
        match r.u8()? {
            relay_op::NOPEER => {
                let to = r.u64()?;
                // The relay echoes the undeliverable inner frame, letting us
                // fail only the request it actually belonged to. Without the
                // echo (or if it does not parse), fall back to failing every
                // outstanding request towards that peer.
                if !r.bytes().is_ok_and(|echo| self.nopeer_precise(to, echo)) {
                    self.nopeer_all(to);
                }
                Ok(())
            }
            relay_op::RECV => {
                let from = r.u64()?;
                self.dispatch_inner(from, r.bytes_in(&frame)?)
            }
            relay_op::BUSY => {
                // The relay says this recipient's queue is hot: gate
                // further DATA towards it until the READY.
                let peer = r.u64()?;
                self.inner.busy_throttles.fetch_add(1, Ordering::Relaxed);
                self.inner.congested.lock().entry(peer).or_default();
                Ok(())
            }
            relay_op::READY => {
                let peer = r.u64()?;
                let wakers = self.inner.congested.lock().remove(&peer);
                for w in wakers.unwrap_or_default() {
                    w.wake();
                }
                Ok(())
            }
            _ => Err(io::ErrorKind::InvalidData.into()),
        }
    }

    /// Relay connection gone: everything in flight fails `ConnectionReset`
    /// (retryable once the pump has redialed), and what the connection
    /// asserted dies with it.
    fn lost(&self, _gen: u64) {
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
        }
    }
}

/// Head of a per-stream inner frame; `sender_opened` is its direction bit.
fn stream_frame(op: u8, sender_opened: bool, sid: u64) -> FrameWriter {
    FrameWriter::new().u8(op).u8(sender_opened as u8).u64(sid)
}

fn open_err(sid: u64, msg: &str) -> FrameWriter {
    FrameWriter::new().u8(inner_op::OPEN_ERR).u64(sid).str(msg)
}

fn no_peer(to: GridId) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("relay: no peer {to}"))
}

// ---------------------------------------------------------------- stream

struct RsInner {
    client: RelayClient,
    peer: GridId,
    sid: u64,
    /// Did this node open the stream? Determines the direction bit.
    opener: bool,
    rx: SimQueue<Bytes>,
    /// What a reader left of the chunk it took last.
    cursor: Mutex<Bytes>,
    fin_sent: AtomicBool,
    /// Set only when the peer's FIN arrived — a *graceful* end of stream.
    /// Relay loss and NOPEER teardowns close `rx` without setting it, so
    /// readers can distinguish clean EOF from an abort.
    fin_received: AtomicBool,
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
    inner: Arc<RsInner>,
}

impl RoutedStream {
    fn new(client: RelayClient, peer: GridId, sid: u64, opener: bool) -> RoutedStream {
        RoutedStream {
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

    fn key(&self) -> StreamKey {
        (self.inner.peer, self.inner.sid, !self.inner.opener)
    }

    /// Tear the receive side down: readers drain what is queued and then
    /// see Eof, a parked [`drain`](Self::drain) fails.
    fn close_rx(&self) {
        self.inner.rx.close();
        if let Some(w) = self.inner.sync.lock().waker.take() {
            w.wake();
        }
    }

    /// The peer answered SYNC `n`.
    fn synced(&self, n: u64) {
        let mut st = self.inner.sync.lock();
        st.acked = st.acked.max(n);
        if let Some(w) = st.waker.take() {
            w.wake();
        }
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
        let n = {
            let mut st = s.sync.lock();
            st.sent += 1;
            st.sent
        };
        let mut resend_at = gridsim_net::ctx::now();
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
                let sync = stream_frame(inner_op::SYNC, s.opener, s.sid).u64(n);
                s.client.send_inner(s.peer, sync)?;
                resend_at = gridsim_net::ctx::now() + SYNC_RESEND;
                let timer = gridsim_net::ctx::waker();
                s.client
                    .inner
                    .sched
                    .call_at(resend_at, move || timer.wake());
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

    /// The acceptor's late refusal: what admitted the stream in `on_open`
    /// failed afterwards. The opener's end closes as on an abort.
    pub(crate) fn refuse(&self, msg: &str) {
        let s = &self.inner;
        let _ = s.client.send_inner(s.peer, open_err(s.sid, msg));
    }

    /// The next received chunk, up to `cap` bytes of it, by ownership;
    /// parks while none is queued. `None` at end of stream.
    fn next_chunk(&self, cap: usize) -> Option<Bytes> {
        let mut chunk = std::mem::take(&mut *self.inner.cursor.lock());
        while chunk.is_empty() {
            chunk = self.inner.rx.pop()?; // may park — no lock held
        }
        if chunk.len() > cap {
            let head = chunk.split_to(cap);
            *self.inner.cursor.lock() = chunk;
            return Some(head);
        }
        Some(chunk)
    }

    /// Signal end of stream to the peer.
    pub fn shutdown_write(&self) -> io::Result<()> {
        self.inner.send_fin()
    }
}

impl Read for RoutedStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let chunk = self.next_chunk(buf.len()).unwrap_or_default();
        buf[..chunk.len()].copy_from_slice(&chunk);
        Ok(chunk.len())
    }
}

/// Received DATA payloads are handed on as they sit in the pump's read.
impl BlockRead for RoutedStream {
    fn read_chunks_min(
        &mut self,
        min: usize,
        max: usize,
        out: &mut Vec<Bytes>,
    ) -> io::Result<usize> {
        chunks_until(min, max, out, |cap| {
            Ok(self.next_chunk(cap).unwrap_or_default())
        })
    }
}

/// A block goes out as DATA frames, each chunk copied once, into its frame.
impl BlockWrite for RoutedStream {}

impl Write for RoutedStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        for chunk in buf.chunks(ROUTED_CHUNK) {
            // An abortive teardown (relay loss, dead peer, reply-FIN from a
            // failed-over peer) must fail the writer — otherwise a zombie
            // stream keeps pumping DATA into the relay after a redial.
            // After a graceful peer FIN, writes stay fire-and-forget.
            if self.inner.rx.is_closed() && !self.fin_received() {
                return Err(io::ErrorKind::ConnectionReset.into());
            }
            self.inner.client.wait_ready(self.inner.peer);
            let s = &self.inner;
            let frame = stream_frame(inner_op::DATA, s.opener, s.sid).bytes(chunk);
            s.client.send_inner(s.peer, frame)?;
        }
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl RsInner {
    /// Send our FIN, once.
    fn send_fin(&self) -> io::Result<()> {
        if self.fin_sent.swap(true, Ordering::Relaxed) {
            return Ok(());
        }
        let fin = stream_frame(inner_op::FIN, self.opener, self.sid);
        self.client.send_inner(self.peer, fin)
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

#[cfg(test)]
mod tests {
    use super::*;
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
            let abort = |w: &mut TcpStream, _| {
                w.abort();
                io::Result::Ok(())
            };
            rc.inner.link.send(&rc, abort).unwrap();
            f(rc);
        });
        sim.run();
        assert!(client.is_finished());
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
            let gen = || rc.inner.link.send(&rc, |_, gen| Ok(gen));
            gridsim_net::ctx::sleep(REDIAL.delays().next().unwrap() / 2);
            assert_eq!(gen().unwrap_err().kind(), io::ErrorKind::ConnectionReset);
            gridsim_net::ctx::sleep(REDIAL.delays().next().unwrap());
            assert_eq!(gen().unwrap(), 2);
        });
    }
}
