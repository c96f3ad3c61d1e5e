//! Routed messages through an application-level relay (paper §3.3,
//! Figure 3): every node opens one outbound connection to a relay on a
//! public gateway; the relay forwards frames to their final recipient.
//!
//! The relay connection carries three things, multiplexed:
//!
//! * **service requests/responses** — the brokering channel for connection
//!   establishment (paper Fig. 7: "the data link uses TCP splicing with
//!   brokering through the service link"),
//! * **routed link streams** — last-resort data links ([`RoutedStream`],
//!   a byte stream tunneled frame-by-frame through the relay),
//! * nothing else: the relay never inspects inner payloads.
//!
//! Because every frame crosses the relay host, routed links share its
//! connection capacity — the bottleneck Table 1 warns about and bench E9
//! measures.

use gridsim_net::{SchedHandle, SimMutex, SimQueue, SockAddr};
use gridsim_tcp::{SimHost, TcpStream};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::establish::factory::BootstrapSocketFactory;
use crate::nameservice::GridId;
use crate::wire::{read_frame, FrameReader, FrameWriter};

/// Maximum payload per routed DATA frame.
pub const ROUTED_CHUNK: usize = 8 * 1024;
/// Buffered chunks per routed stream before backpressure.
const STREAM_QUEUE: usize = 32;

mod relay_op {
    pub const HELLO: u8 = 1;
    pub const SEND: u8 = 2;
    pub const RECV: u8 = 3;
    pub const NOPEER: u8 = 4;
    // Sharded/mesh extensions (DESIGN.md §10). A legacy client never sees
    // BUSY/READY unless it talks to a sharded relay; the relay-to-relay ops
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
}

// ---------------------------------------------------------------- server

/// Spawn the relay server on `host`, listening on `port`.
pub fn spawn_relay(host: &SimHost, port: u16) -> io::Result<()> {
    let listener = host.listen(port)?;
    let conns: Arc<Mutex<HashMap<GridId, SimMutex<TcpStream>>>> =
        Arc::new(Mutex::new(HashMap::new()));
    let sched = host.net().sched().clone();
    let sched2 = sched.clone();
    sched.spawn_daemon("relay-accept", move || loop {
        let Ok(conn) = listener.accept() else { break };
        let conns = Arc::clone(&conns);
        sched2.spawn_daemon("relay-conn", move || {
            let _ = serve_relay_conn(&conns, conn);
        });
    });
    Ok(())
}

fn serve_relay_conn(
    conns: &Mutex<HashMap<GridId, SimMutex<TcpStream>>>,
    conn: TcpStream,
) -> io::Result<()> {
    let mut reader = conn.clone();
    // First frame must be HELLO.
    let hello = read_frame(&mut reader)?;
    let mut r = FrameReader::new(&hello);
    if r.u8()? != relay_op::HELLO {
        return Err(io::ErrorKind::InvalidData.into());
    }
    let id = r.u64()?;
    // Register, superseding any stale connection for the same id (a client
    // that reconnected while its old TCP connection lingers). The old
    // serve loop's removal below is identity-guarded, so it cannot
    // unregister this newer connection when it finally exits.
    let me = SimMutex::new(conn.clone());
    conns.lock().insert(id, me.clone());
    let result = (|| -> io::Result<()> {
        loop {
            let frame = read_frame(&mut reader)?;
            let mut r = FrameReader::new(&frame);
            match r.u8()? {
                relay_op::SEND => {
                    let to = r.u64()?;
                    let inner = r.bytes()?;
                    let target = conns.lock().get(&to).cloned();
                    let mut delivered = false;
                    if let Some(t) = target {
                        // Forward; the write blocks under backpressure,
                        // which is exactly the relay-bottleneck behaviour
                        // of the paper's §3.4. A write *error* means the
                        // recipient is dead — that must not tear down the
                        // innocent sender's connection.
                        let mut w = t.lock();
                        if FrameWriter::new()
                            .u8(relay_op::RECV)
                            .u64(id)
                            .bytes(inner)
                            .send(&mut *w)
                            .is_ok()
                        {
                            delivered = true;
                        } else {
                            drop(w);
                            let mut c = conns.lock();
                            if c.get(&to).is_some_and(|cur| cur.ptr_eq(&t)) {
                                c.remove(&to);
                            }
                        }
                    }
                    if !delivered {
                        // Echo the inner frame so the sender can match the
                        // failure to the exact outstanding request.
                        let back = conns.lock().get(&id).cloned();
                        if let Some(b) = back {
                            let mut w = b.lock();
                            FrameWriter::new()
                                .u8(relay_op::NOPEER)
                                .u64(to)
                                .bytes(inner)
                                .send(&mut *w)?;
                        }
                    }
                }
                relay_op::HELLO => {
                    // A re-HELLO probe from a client that suspects its link
                    // after an outage: re-assert the registration, which may
                    // have been evicted towards this same still-live
                    // connection when a forward to it failed transiently.
                    let _ = r.u64()?;
                    conns.lock().insert(id, me.clone());
                }
                _ => return Err(io::ErrorKind::InvalidData.into()),
            }
        }
    })();
    // Unregister only if the table still holds *this* connection; a
    // reconnect may have superseded it while this loop was alive.
    {
        let mut c = conns.lock();
        if c.get(&id).is_some_and(|cur| cur.ptr_eq(&me)) {
            c.remove(&id);
        }
    }
    result
}

// ------------------------------------------------------ sharded mesh relay

/// Bounded frames per recipient shard queue before senders park.
const MESH_QUEUE_FRAMES: usize = 64;
/// Frames parked per unresolved route pull before overflow is bounced.
const ROUTE_WAIT_CAP: usize = 256;
/// A route pull that no peer answers within this window fails its parked
/// frames with NOPEER.
const ROUTE_QUERY_TIMEOUT: std::time::Duration = std::time::Duration::from_millis(500);
/// Mesh peer redial backoff (a peer relay may restart at any time).
const PEER_DIAL_BASE: std::time::Duration = std::time::Duration::from_millis(200);
const PEER_DIAL_CAP: std::time::Duration = std::time::Duration::from_secs(2);
/// Consecutive failed dials before a mesh peer is declared gone for good.
const PEER_DIAL_STRIKES: u32 = 10;

/// Configuration for [`spawn_relay_mesh`]: a sharded relay that may peer
/// with other relays into a routed overlay.
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

/// Spawn a sharded relay on `host:port`, optionally meshed with peers.
///
/// Unlike the legacy [`spawn_relay`] — one serve loop forwarding
/// synchronously, so one slow receiver head-of-line-blocks every sender —
/// each registered recipient gets a bounded queue drained by its own
/// worker task. A sender filling a hot queue is told with a typed BUSY
/// frame (and parks only when the queue is entirely full); DATA frames are
/// never dropped, so per-sender FIFO holds. With `cfg.peers`, relays
/// exchange a node-id → home-relay routing table (pushed on every
/// register/unregister, pulled on miss) and forward frames relay-to-relay,
/// so a client registered at relay A reaches a peer registered at relay B.
///
/// The client-facing wire protocol is a superset of the legacy relay's:
/// legacy clients work unmodified (they just never get BUSY/READY).
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
    let sched = host.net().sched().clone();
    let sched2 = sched.clone();
    let accept_relay = Arc::clone(&relay);
    sched.spawn_daemon("mesh-relay-accept", move || loop {
        let Ok(conn) = listener.accept() else { break };
        let r = Arc::clone(&accept_relay);
        sched2.spawn_daemon("mesh-relay-conn", move || {
            let _ = r.serve_conn(conn);
        });
    });
    for addr in cfg.peers {
        let r = Arc::clone(&relay);
        let h = host.clone();
        host.net()
            .sched()
            .spawn_daemon(format!("mesh-peer-dial-{addr}"), move || {
                r.peer_dial_loop(&h, addr)
            });
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

enum OutItem {
    /// Pre-encoded relay-to-relay payload (FWD / ROUTE_*). Dropped — after
    /// FWD frames are re-resolved — when the connection dies.
    Frame(Vec<u8>),
    /// A client delivery, kept unencoded so queue leftovers can be
    /// re-routed (or NOPEER'd) when the registration dies or moves.
    Deliver { from: GridId, inner: Vec<u8> },
}

/// One shard: a bounded queue plus the throttle set of senders that were
/// told BUSY and are owed a READY when the queue drains.
#[derive(Clone)]
struct OutQueue {
    q: SimQueue<OutItem>,
    throttled: Arc<Mutex<std::collections::HashSet<GridId>>>,
    /// Set when the registration this queue fed was superseded or died:
    /// the worker stops writing and re-routes what is left.
    dead: Arc<std::sync::atomic::AtomicBool>,
    cap: usize,
}

impl OutQueue {
    fn new(cap: usize) -> OutQueue {
        OutQueue {
            q: SimQueue::bounded(cap.max(2)),
            throttled: Arc::new(Mutex::new(std::collections::HashSet::new())),
            dead: Arc::new(std::sync::atomic::AtomicBool::new(false)),
            cap: cap.max(2),
        }
    }
    /// Identity: is this handle the same shard as `other`? Guards registry
    /// removal the same way the legacy relay's `SimMutex::ptr_eq` does.
    fn same(&self, other: &OutQueue) -> bool {
        Arc::ptr_eq(&self.dead, &other.dead)
    }
    fn kill(&self) {
        self.dead.store(true, Ordering::Relaxed);
        self.q.close();
    }
}

struct LocalEntry {
    q: OutQueue,
    /// Control writer for synchronous BUSY/READY/NOPEER towards this
    /// client, shared (under the lock) with the shard worker's RECVs.
    ctl: SimMutex<TcpStream>,
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
    frames: Vec<(GridId, Vec<u8>)>,
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
    fn now_epoch(&self) -> u64 {
        self.sched.now().as_nanos()
    }

    // -------------------------------------------------------- connections

    fn serve_conn(self: &Arc<Self>, conn: TcpStream) -> io::Result<()> {
        let mut reader = conn.clone();
        let first = read_frame(&mut reader)?;
        let mut r = FrameReader::new(&first);
        match r.u8()? {
            relay_op::HELLO => {
                let id = r.u64()?;
                let (q, ctl) = self.register_local(id, conn);
                let res = self.serve_client(id, &q, &ctl, reader);
                self.client_conn_dead(id, &q);
                res
            }
            relay_op::PEER_HELLO => {
                let pid = r.u64()?;
                let mut w = conn.clone();
                FrameWriter::new()
                    .u8(relay_op::PEER_HELLO)
                    .u64(self.cfg.mesh_id)
                    .send(&mut w)?;
                let q = self.register_peer(pid, conn);
                let res = self.serve_peer(pid, reader);
                self.peer_conn_dead(pid, &q);
                res
            }
            _ => Err(io::ErrorKind::InvalidData.into()),
        }
    }

    fn serve_client(
        self: &Arc<Self>,
        id: GridId,
        q: &OutQueue,
        ctl: &SimMutex<TcpStream>,
        mut reader: TcpStream,
    ) -> io::Result<()> {
        loop {
            let frame = read_frame(&mut reader)?;
            let mut r = FrameReader::new(&frame);
            match r.u8()? {
                relay_op::SEND => {
                    let to = r.u64()?;
                    let inner = r.bytes()?.to_vec();
                    self.handle_send(id, to, inner, Origin::Local, false);
                }
                relay_op::HELLO => {
                    // Re-HELLO probe: re-assert the registration (it may
                    // have been evicted towards this still-live connection)
                    // and re-push the route so the mesh heals with it.
                    let _ = r.u64()?;
                    self.assert_local(id, q, ctl);
                }
                _ => return Err(io::ErrorKind::InvalidData.into()),
            }
        }
    }

    fn register_local(
        self: &Arc<Self>,
        id: GridId,
        conn: TcpStream,
    ) -> (OutQueue, SimMutex<TcpStream>) {
        let q = OutQueue::new(self.cfg.queue_frames);
        let ctl = SimMutex::new(conn.clone());
        let me = Arc::clone(self);
        let q2 = q.clone();
        let ctl2 = ctl.clone();
        self.sched
            .spawn_daemon(format!("mesh-shard-{id}"), move || {
                me.out_worker(Owner::Client(id), q2, Some(ctl2), conn)
            });
        self.assert_local(id, &q, &ctl);
        (q, ctl)
    }

    /// (Re-)register `id` as homed here on `q`/`ctl`, superseding any
    /// older registration, and push the route to the mesh.
    fn assert_local(self: &Arc<Self>, id: GridId, q: &OutQueue, ctl: &SimMutex<TcpStream>) {
        let epoch = self.now_epoch();
        let old = self.local.lock().insert(
            id,
            LocalEntry {
                q: q.clone(),
                ctl: ctl.clone(),
                epoch,
            },
        );
        if let Some(old) = old {
            if !old.q.same(q) {
                // The superseded shard's worker re-routes its leftovers —
                // which now resolve to this fresh registration.
                old.q.kill();
            }
        }
        self.remote.lock().remove(&id);
        self.broadcast_route(relay_op::ROUTE_ADD, id, epoch);
        self.flush_waiting(id);
    }

    fn client_conn_dead(self: &Arc<Self>, id: GridId, q: &OutQueue) {
        let removed_epoch = {
            let mut l = self.local.lock();
            if l.get(&id).is_some_and(|e| e.q.same(q)) {
                l.remove(&id).map(|e| e.epoch)
            } else {
                None
            }
        };
        q.kill();
        while let Some(item) = q.q.try_pop() {
            self.reroute_item(&Owner::Client(id), item);
        }
        if let Some(epoch) = removed_epoch {
            self.broadcast_route(relay_op::ROUTE_DEL, id, epoch);
        }
    }

    fn peer_dial_loop(self: &Arc<Self>, host: &SimHost, addr: SockAddr) {
        let mut delay = PEER_DIAL_BASE;
        let mut strikes = 0u32;
        loop {
            if self.peer_dial_once(host, addr).is_ok() {
                delay = PEER_DIAL_BASE;
                strikes = 0;
            } else {
                // A peer dead past the whole backoff ladder is assumed gone
                // for good (its clients fail over to the survivors); giving
                // up also lets a simulation with a crashed relay wind down
                // instead of redialing forever.
                strikes += 1;
                if strikes >= PEER_DIAL_STRIKES {
                    return;
                }
            }
            gridsim_net::ctx::sleep(delay);
            delay = (delay * 2).min(PEER_DIAL_CAP);
        }
    }

    /// Dial one mesh peer, handshake, and serve the link until it dies.
    fn peer_dial_once(self: &Arc<Self>, host: &SimHost, addr: SockAddr) -> io::Result<()> {
        let factory = BootstrapSocketFactory::new(host.clone(), None);
        let conn = factory.connect(addr)?;
        let mut w = conn.clone();
        FrameWriter::new()
            .u8(relay_op::PEER_HELLO)
            .u64(self.cfg.mesh_id)
            .send(&mut w)?;
        let mut reader = conn.clone();
        let hello = read_frame(&mut reader)?;
        let mut r = FrameReader::new(&hello);
        if r.u8()? != relay_op::PEER_HELLO {
            return Err(io::ErrorKind::InvalidData.into());
        }
        let pid = r.u64()?;
        let q = self.register_peer(pid, conn);
        let res = self.serve_peer(pid, reader);
        self.peer_conn_dead(pid, &q);
        res
    }

    fn register_peer(self: &Arc<Self>, pid: u64, conn: TcpStream) -> OutQueue {
        let q = OutQueue::new(self.cfg.queue_frames);
        let me = Arc::clone(self);
        let q2 = q.clone();
        self.sched
            .spawn_daemon(format!("mesh-peer-out-{pid}"), move || {
                me.out_worker(Owner::Peer(pid), q2, None, conn)
            });
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
                .u64(epoch)
                .into_bytes();
            let _ = q.q.push(OutItem::Frame(f));
        }
        q
    }

    fn serve_peer(self: &Arc<Self>, pid: u64, mut reader: TcpStream) -> io::Result<()> {
        loop {
            let frame = read_frame(&mut reader)?;
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
                        .u64(ans.unwrap_or(0))
                        .into_bytes();
                    self.frame_to_peer(pid, f);
                }
                relay_op::ROUTE_RSP => {
                    let node = r.u64()?;
                    let found = r.u8()? == 1;
                    let epoch = r.u64()?;
                    self.route_rsp(pid, node, found, epoch);
                }
                relay_op::FWD => {
                    let from = r.u64()?;
                    let to = r.u64()?;
                    let inner = r.bytes()?.to_vec();
                    self.handle_send(from, to, inner, Origin::Peer(pid), false);
                }
                relay_op::FWD_FAIL => {
                    let from = r.u64()?;
                    let to = r.u64()?;
                    let inner = r.bytes()?.to_vec();
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

    fn peer_conn_dead(self: &Arc<Self>, pid: u64, q: &OutQueue) {
        {
            let mut p = self.peers.lock();
            if p.get(&pid).is_some_and(|cur| cur.same(q)) {
                p.remove(&pid);
            }
        }
        q.kill();
        while let Some(item) = q.q.try_pop() {
            self.reroute_item(&Owner::Peer(pid), item);
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
            if !self.waiting.lock().contains_key(&node) {
                return;
            }
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
        } else {
            let drained = {
                let mut w = self.waiting.lock();
                if let Some(p) = w.get_mut(&node) {
                    p.outstanding = p.outstanding.saturating_sub(1);
                    if p.outstanding == 0 {
                        w.remove(&node)
                    } else {
                        None
                    }
                } else {
                    None
                }
            };
            if let Some(p) = drained {
                for (from, inner) in p.frames {
                    self.undeliverable(from, node, inner, Origin::Local);
                }
            }
        }
    }

    /// Pull: park the frame, ask every peer, resolve on the first positive
    /// answer, NOPEER when all deny or the window closes.
    fn query_route(self: &Arc<Self>, to: GridId, from: GridId, inner: Vec<u8>) {
        let peer_qs: Vec<OutQueue> = self.peers.lock().values().cloned().collect();
        if peer_qs.is_empty() {
            self.undeliverable(from, to, inner, Origin::Local);
            return;
        }
        let fresh = {
            let mut w = self.waiting.lock();
            match w.get_mut(&to) {
                Some(p) => {
                    if p.frames.len() >= ROUTE_WAIT_CAP {
                        drop(w);
                        self.undeliverable(from, to, inner, Origin::Local);
                        return;
                    }
                    p.frames.push((from, inner));
                    false
                }
                None => {
                    w.insert(
                        to,
                        PendingRoute {
                            frames: vec![(from, inner)],
                            outstanding: peer_qs.len(),
                        },
                    );
                    true
                }
            }
        };
        if !fresh {
            return;
        }
        let weak = Arc::downgrade(self);
        self.sched
            .call_at(self.sched.now() + ROUTE_QUERY_TIMEOUT, move || {
                let Some(me) = weak.upgrade() else { return };
                if me.waiting.lock().contains_key(&to) {
                    // Drain in a task: NOPEER writes may park.
                    me.sched.clone().spawn_daemon("route-timeout", move || {
                        let Some(p) = me.waiting.lock().remove(&to) else {
                            return;
                        };
                        for (from, inner) in p.frames {
                            me.undeliverable(from, to, inner, Origin::Local);
                        }
                    });
                }
            });
        let f = FrameWriter::new()
            .u8(relay_op::ROUTE_QUERY)
            .u64(to)
            .into_bytes();
        for pq in peer_qs {
            let _ = pq.q.push(OutItem::Frame(f.clone()));
        }
    }

    /// Re-resolve frames parked for `node` (route learned, or the node
    /// registered here).
    fn flush_waiting(self: &Arc<Self>, node: GridId) {
        let pend = self.waiting.lock().remove(&node);
        if let Some(p) = pend {
            for (from, inner) in p.frames {
                self.handle_send(from, node, inner, Origin::Local, false);
            }
        }
    }

    fn broadcast_route(self: &Arc<Self>, op: u8, node: GridId, epoch: u64) {
        let peer_qs: Vec<OutQueue> = self.peers.lock().values().cloned().collect();
        if peer_qs.is_empty() {
            return;
        }
        let f = FrameWriter::new().u8(op).u64(node).u64(epoch).into_bytes();
        for pq in peer_qs {
            let _ = pq.q.push(OutItem::Frame(f.clone()));
        }
    }

    // --------------------------------------------------------- forwarding

    /// Route one client frame: local shard, known remote relay, or pull.
    /// `retried` bounds the one re-lookup allowed when a registration
    /// churns between lookup and enqueue.
    fn handle_send(
        self: &Arc<Self>,
        from: GridId,
        to: GridId,
        inner: Vec<u8>,
        origin: Origin,
        retried: bool,
    ) {
        let shard = self.local.lock().get(&to).map(|e| e.q.clone());
        if let Some(q) = shard {
            match self.deliver_local(&q, from, to, inner) {
                Ok(()) => return,
                Err(inner) => {
                    // Shard closed under us: the registration died or moved
                    // this instant. Re-resolve once, then give up.
                    if !retried {
                        return self.handle_send(from, to, inner, origin, true);
                    }
                    return self.undeliverable(from, to, inner, origin);
                }
            }
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
                        let f = FrameWriter::new()
                            .u8(relay_op::FWD)
                            .u64(from)
                            .u64(to)
                            .bytes(&inner)
                            .into_bytes();
                        if pq.q.push(OutItem::Frame(f)).is_ok() {
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
    /// full. `Err(inner)` when the shard closed.
    fn deliver_local(
        self: &Arc<Self>,
        q: &OutQueue,
        from: GridId,
        to: GridId,
        inner: Vec<u8>,
    ) -> Result<(), Vec<u8>> {
        let is_data = inner.first() == Some(&inner_op::DATA);
        match q.q.try_push(OutItem::Deliver { from, inner }) {
            Ok(()) => {
                if is_data && q.q.len() >= q.cap - q.cap / 4 {
                    self.throttle(from, to, q);
                }
                Ok(())
            }
            Err(OutItem::Deliver { from, inner }) => {
                if q.q.is_closed() {
                    return Err(inner);
                }
                if is_data {
                    self.throttle(from, to, q);
                }
                match q.q.push(OutItem::Deliver { from, inner }) {
                    Ok(()) => Ok(()),
                    Err(OutItem::Deliver { inner, .. }) => Err(inner),
                    Err(OutItem::Frame(_)) => unreachable!(),
                }
            }
            Err(OutItem::Frame(_)) => unreachable!(),
        }
    }

    /// Tell a (local) sender that `to` is running hot. Senders that came
    /// in over the mesh are backpressured by the FWD path instead.
    fn throttle(self: &Arc<Self>, from: GridId, to: GridId, q: &OutQueue) {
        if q.throttled.lock().insert(from) {
            let f = FrameWriter::new().u8(relay_op::BUSY).u64(to).into_bytes();
            self.ctl_to_local(from, &f);
        }
    }

    /// Failure report for an undeliverable frame, shaped by where it came
    /// from: NOPEER with the echoed inner frame towards a local sender,
    /// FWD_FAIL back to the origin relay otherwise. A non-local sender on
    /// the Local path (a re-routed leftover) has nowhere to report to; the
    /// sender's own timeout/stream-teardown machinery recovers.
    fn undeliverable(self: &Arc<Self>, from: GridId, to: GridId, inner: Vec<u8>, origin: Origin) {
        match origin {
            Origin::Local => {
                let f = FrameWriter::new()
                    .u8(relay_op::NOPEER)
                    .u64(to)
                    .bytes(&inner)
                    .into_bytes();
                self.ctl_to_local(from, &f);
            }
            Origin::Peer(pid) => {
                let f = FrameWriter::new()
                    .u8(relay_op::FWD_FAIL)
                    .u64(from)
                    .u64(to)
                    .bytes(&inner)
                    .into_bytes();
                self.frame_to_peer(pid, f);
            }
        }
    }

    /// Synchronous control write (BUSY/READY/NOPEER) to a local client,
    /// bypassing its shard queue — these must not sit behind the very
    /// backlog they report on.
    fn ctl_to_local(&self, to: GridId, payload: &[u8]) {
        let ctl = self.local.lock().get(&to).map(|e| e.ctl.clone());
        if let Some(ctl) = ctl {
            let mut w = ctl.lock();
            let _ = crate::wire::write_frame(&mut *w, payload);
        }
    }

    fn frame_to_peer(&self, pid: u64, payload: Vec<u8>) {
        let pq = self.peers.lock().get(&pid).cloned();
        if let Some(pq) = pq {
            let _ = pq.q.push(OutItem::Frame(payload));
        }
    }

    /// Shard worker: drain one queue into one connection. On death or
    /// supersession, leftovers are re-resolved through the routing table —
    /// a moved node's frames follow it to its new home relay.
    fn out_worker(
        self: Arc<Self>,
        owner: Owner,
        q: OutQueue,
        ctl: Option<SimMutex<TcpStream>>,
        conn: TcpStream,
    ) {
        let mut plain = conn;
        let mut broken = false;
        while let Some(item) = q.q.pop() {
            if broken || q.dead.load(Ordering::Relaxed) {
                self.reroute_item(&owner, item);
                continue;
            }
            let res = match (&item, &ctl) {
                (OutItem::Frame(payload), _) => crate::wire::write_frame(&mut plain, payload),
                (OutItem::Deliver { from, inner }, Some(ctl)) => {
                    // Shares the control writer so RECVs and control frames
                    // never interleave mid-frame.
                    let mut w = ctl.lock();
                    FrameWriter::new()
                        .u8(relay_op::RECV)
                        .u64(*from)
                        .bytes(inner)
                        .send(&mut *w)
                }
                (OutItem::Deliver { from, inner }, None) => FrameWriter::new()
                    .u8(relay_op::RECV)
                    .u64(*from)
                    .bytes(inner)
                    .send(&mut plain),
            };
            if res.is_err() {
                broken = true;
                match owner {
                    Owner::Client(id) => self.client_conn_dead(id, &q),
                    Owner::Peer(pid) => self.peer_conn_dead(pid, &q),
                }
                self.reroute_item(&owner, item);
                continue;
            }
            if q.q.len() <= q.cap / 4 {
                self.release_throttled(&owner, &q);
            }
        }
        // Whatever ends this shard, parked senders must not stay throttled
        // forever: their next DATA will fail fast through the normal
        // NOPEER/teardown path instead.
        self.release_throttled(&owner, &q);
    }

    fn release_throttled(&self, owner: &Owner, q: &OutQueue) {
        let drained: Vec<GridId> = {
            let mut t = q.throttled.lock();
            if t.is_empty() {
                return;
            }
            t.drain().collect()
        };
        if let Owner::Client(id) = owner {
            let f = FrameWriter::new().u8(relay_op::READY).u64(*id).into_bytes();
            for s in drained {
                self.ctl_to_local(s, &f);
            }
        }
    }

    /// Re-resolve a queue leftover after its connection died or moved.
    fn reroute_item(self: &Arc<Self>, owner: &Owner, item: OutItem) {
        match (owner, item) {
            (Owner::Client(id), OutItem::Deliver { from, inner }) => {
                self.handle_send(from, *id, inner, Origin::Local, false);
            }
            (Owner::Peer(_), OutItem::Frame(payload)) => {
                // Undelivered FWDs chase the recipient through whatever
                // route resolution finds now that this mesh link is gone.
                let mut r = FrameReader::new(&payload);
                if r.u8().ok() == Some(relay_op::FWD) {
                    if let (Ok(from), Ok(to), Ok(inner)) = (r.u64(), r.u64(), r.bytes()) {
                        let inner = inner.to_vec();
                        self.handle_send(from, to, inner, Origin::Local, false);
                    }
                }
            }
            // Control frames towards a dead client, or deliveries riding a
            // peer queue (never queued): nothing to save.
            _ => {}
        }
    }
}

// ---------------------------------------------------------------- client

/// Callbacks from the relay client into the node runtime.
pub trait RelayDelegate: Send + Sync {
    /// Handle a service (brokering) request; return the response payload.
    fn on_service_request(&self, from: GridId, payload: &[u8]) -> Vec<u8>;
    /// An incoming routed link targeting `port_name`.
    fn on_open(
        &self,
        from: GridId,
        port_name: &str,
        channel: u64,
        stream: RoutedStream,
    ) -> Result<(), String>;
}

struct Pending {
    to: GridId,
    result: Option<io::Result<Vec<u8>>>,
    waker: Option<gridsim_net::Waker>,
}

struct OpenWait {
    to: GridId,
    result: Option<Result<(), String>>,
    waker: Option<gridsim_net::Waker>,
}

struct RcInner {
    id: GridId,
    writer: SimMutex<TcpStream>,
    pending: Mutex<HashMap<u64, Pending>>,
    open_waits: Mutex<HashMap<u64, OpenWait>>,
    next_req: AtomicU64,
    next_sid: AtomicU64,
    /// Streams opened by a peer towards us, keyed by (peer, peer's sid).
    inbound: Mutex<HashMap<(GridId, u64), RoutedStream>>,
    /// Streams we opened, keyed by (peer, our sid).
    outbound: Mutex<HashMap<(GridId, u64), RoutedStream>>,
    delegate: Mutex<Option<Arc<dyn RelayDelegate>>>,
    /// Peers a sharded relay flagged BUSY: DATA writes towards them park
    /// here until the READY, with the wakers to release.
    congested: Mutex<HashMap<GridId, Vec<gridsim_net::Waker>>>,
    /// Times this client was BUSY-throttled (observability + bench probe).
    busy_throttles: AtomicU64,
    sched: SchedHandle,
    /// Redial state so the pump can reconnect after a relay restart.
    host: SimHost,
    /// Ordered relay addresses: `[0]` is the primary; the rest are
    /// failover targets once the current relay stays dead past the first
    /// backoff attempt. Every node must share the order, so failed-over
    /// peers converge on the same relay.
    relay_addrs: Vec<SockAddr>,
    /// Index into `relay_addrs` of the relay currently connected.
    current: std::sync::atomic::AtomicUsize,
    via_proxy: Option<SockAddr>,
}

/// Redial schedule after the relay connection drops: attempts and backoff.
const RECONNECT_ATTEMPTS: u32 = 6;
const RECONNECT_BASE: std::time::Duration = std::time::Duration::from_millis(100);
const RECONNECT_CAP: std::time::Duration = std::time::Duration::from_secs(2);
/// Initial-connect sweeps over the relay list before `join` gives up.
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

    /// Like [`connect`](Self::connect), with an ordered relay list: the
    /// first reachable relay wins (in order), and the pump's redial fails
    /// over along the same list when the current relay stays dead.
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
        let factory = BootstrapSocketFactory::new(host.clone(), via_proxy);
        let mut dialed = None;
        let mut last_err: io::Error = io::ErrorKind::AddrNotAvailable.into();
        // A login storm can transiently refuse dials (relay accept backlog
        // full) even though the relay is healthy; sweep the ordered list a
        // few times with a short backoff before declaring failure. Local
        // ephemeral-port exhaustion is retried below this, inside
        // `factory.connect`.
        'sweep: for round in 0..HELLO_SWEEPS {
            if round > 0 {
                gridsim_net::ctx::sleep(HELLO_SWEEP_BACKOFF);
            }
            for (idx, &addr) in relay_addrs.iter().enumerate() {
                match Self::dial_hello(&factory, addr, id) {
                    Ok(stream) => {
                        dialed = Some((stream, idx));
                        break 'sweep;
                    }
                    Err(e) => last_err = e,
                }
            }
        }
        let Some((stream, idx)) = dialed else {
            return Err(last_err);
        };
        let inner = Arc::new(RcInner {
            id,
            writer: SimMutex::new(stream.clone()),
            pending: Mutex::new(HashMap::new()),
            open_waits: Mutex::new(HashMap::new()),
            next_req: AtomicU64::new(1),
            next_sid: AtomicU64::new(1),
            inbound: Mutex::new(HashMap::new()),
            outbound: Mutex::new(HashMap::new()),
            delegate: Mutex::new(None),
            congested: Mutex::new(HashMap::new()),
            busy_throttles: AtomicU64::new(0),
            sched: host.net().sched().clone(),
            host: host.clone(),
            relay_addrs,
            current: std::sync::atomic::AtomicUsize::new(idx),
            via_proxy,
        });
        let client = RelayClient { inner };
        let pump = client.clone();
        host.net()
            .sched()
            .spawn_daemon(format!("relay-pump-{id}"), move || {
                pump.pump_loop(stream);
            });
        Ok(client)
    }

    /// One connect + HELLO towards a relay address.
    fn dial_hello(
        factory: &BootstrapSocketFactory,
        addr: SockAddr,
        id: GridId,
    ) -> io::Result<TcpStream> {
        let stream = factory.connect(addr)?;
        let mut w = stream.clone();
        FrameWriter::new()
            .u8(relay_op::HELLO)
            .u64(id)
            .send(&mut w)?;
        Ok(stream)
    }

    /// Probe the service link after a suspected outage by re-sending
    /// HELLO on the current connection. Healthy link: the relay re-asserts
    /// the registration (harmless, and it heals a one-sided eviction). Dead
    /// link whose RST was lost in the outage: the write provokes a fresh
    /// reset that wakes the pump into its redial-and-re-HELLO path. Errors
    /// are ignored — the pump owns reconnection.
    pub fn nudge(&self) {
        let mut w = self.inner.writer.lock();
        let _ = FrameWriter::new()
            .u8(relay_op::HELLO)
            .u64(self.inner.id)
            .send(&mut *w);
    }

    pub fn id(&self) -> GridId {
        self.inner.id
    }

    /// Install the node-runtime callbacks.
    pub fn set_delegate(&self, d: Arc<dyn RelayDelegate>) {
        *self.inner.delegate.lock() = Some(d);
    }

    /// Send one inner frame to `to` through the relay.
    fn send_inner(&self, to: GridId, inner: Vec<u8>) -> io::Result<()> {
        let mut w = self.inner.writer.lock();
        FrameWriter::new()
            .u8(relay_op::SEND)
            .u64(to)
            .bytes(&inner)
            .send(&mut *w)
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
        // from `fail_inflight` or a dead writer) is retried while the pump
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
        let req_id = self.inner.next_req.fetch_add(1, Ordering::Relaxed);
        self.inner.pending.lock().insert(
            req_id,
            Pending {
                to,
                result: None,
                waker: None,
            },
        );
        if let Some(dt) = timeout {
            let weak = Arc::downgrade(&self.inner);
            self.inner
                .sched
                .call_at(self.inner.sched.now() + dt, move || {
                    let Some(inner) = weak.upgrade() else { return };
                    let mut p = inner.pending.lock();
                    if let Some(slot) = p.get_mut(&req_id) {
                        if slot.result.is_none() {
                            slot.result = Some(Err(io::ErrorKind::TimedOut.into()));
                        }
                        if let Some(w) = slot.waker.take() {
                            w.wake();
                        }
                    }
                });
        }
        let frame = FrameWriter::new()
            .u8(inner_op::SVC_REQ)
            .u64(req_id)
            .bytes(payload)
            .into_bytes();
        if let Err(e) = self.send_inner(to, frame) {
            self.inner.pending.lock().remove(&req_id);
            return Err(e);
        }
        loop {
            {
                let mut p = self.inner.pending.lock();
                // The slot can vanish under us (relay supervision pruning
                // in-flight state across a redial): retryable, not a bug.
                let Some(slot) = p.get_mut(&req_id) else {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionReset,
                        "relay request dropped during reconnect",
                    ));
                };
                if let Some(result) = slot.result.take() {
                    p.remove(&req_id);
                    return result;
                }
                slot.waker = Some(gridsim_net::ctx::waker());
            }
            gridsim_net::ctx::park("relay svc rsp");
        }
    }

    /// Open a routed byte stream to `port_name` on node `to`.
    pub fn open_stream(
        &self,
        to: GridId,
        port_name: &str,
        channel: u64,
    ) -> io::Result<RoutedStream> {
        let sid = self.inner.next_sid.fetch_add(1, Ordering::Relaxed);
        let stream = RoutedStream::new(self.clone(), to, sid, true);
        self.inner.outbound.lock().insert((to, sid), stream.clone());
        self.inner.open_waits.lock().insert(
            sid,
            OpenWait {
                to,
                result: None,
                waker: None,
            },
        );
        let frame = FrameWriter::new()
            .u8(inner_op::OPEN)
            .u64(sid)
            .str(port_name)
            .u64(channel)
            .into_bytes();
        self.send_inner(to, frame)?;
        loop {
            {
                let mut ow = self.inner.open_waits.lock();
                // Same supervision race as the service-call wait: a pruned
                // slot means the relay connection churned — retryable.
                let Some(slot) = ow.get_mut(&sid) else {
                    self.inner.outbound.lock().remove(&(to, sid));
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionReset,
                        "relay open dropped during reconnect",
                    ));
                };
                if let Some(result) = slot.result.take() {
                    ow.remove(&sid);
                    return match result {
                        Ok(()) => Ok(stream),
                        Err(msg) => {
                            self.inner.outbound.lock().remove(&(to, sid));
                            Err(io::Error::new(io::ErrorKind::ConnectionRefused, msg))
                        }
                    };
                }
                slot.waker = Some(gridsim_net::ctx::waker());
            }
            gridsim_net::ctx::park("relay open");
        }
    }

    /// The receive pump with supervision: dispatch frames until the relay
    /// connection dies, fail everything in flight with a retryable error,
    /// then redial with exponential backoff and re-HELLO. Gives up after
    /// [`RECONNECT_ATTEMPTS`] consecutive failures.
    fn pump_loop(&self, stream: TcpStream) {
        let mut current = stream;
        loop {
            self.pump_one(current);
            // Relay connection gone: fail everything in flight. Callers see
            // `ConnectionReset` — retryable once the pump has redialed.
            self.fail_inflight();
            match self.redial() {
                Some(next) => current = next,
                None => return,
            }
        }
    }

    /// Dispatch frames from one relay connection until it fails.
    fn pump_one(&self, stream: TcpStream) {
        let mut reader = stream;
        while let Ok(frame) = read_frame(&mut reader) {
            if self.dispatch(&frame).is_err() {
                break;
            }
        }
    }

    fn fail_inflight(&self) {
        for slot in self.inner.pending.lock().values_mut() {
            if slot.result.is_none() {
                slot.result = Some(Err(io::ErrorKind::ConnectionReset.into()));
            }
            if let Some(w) = slot.waker.take() {
                w.wake();
            }
        }
        for slot in self.inner.open_waits.lock().values_mut() {
            if slot.result.is_none() {
                slot.result = Some(Err("relay connection lost".into()));
            }
            if let Some(w) = slot.waker.take() {
                w.wake();
            }
        }
        // Congestion gates die with the connection that asserted them.
        for (_, wakers) in self.inner.congested.lock().drain() {
            for w in wakers {
                w.wake();
            }
        }
        // Routed streams are not resumable across a relay restart: close and
        // forget them so post-reconnect traffic cannot hit a stale stream.
        for (_, s) in self.inner.inbound.lock().drain() {
            s.inner.rx.close();
        }
        for (_, s) in self.inner.outbound.lock().drain() {
            s.inner.rx.close();
        }
    }

    /// Reconnect with exponential backoff; on success re-HELLO, swap the
    /// shared writer, and return the fresh stream for the pump. The first
    /// attempt targets only the relay that just died (a restart is the
    /// common case); once it stays dead past that backoff step, each
    /// attempt walks the whole ordered relay list from the current index —
    /// the failover the ordered registration promises.
    fn redial(&self) -> Option<TcpStream> {
        let n = self.inner.relay_addrs.len();
        let mut delay = RECONNECT_BASE;
        for attempt in 0..RECONNECT_ATTEMPTS {
            gridsim_net::ctx::sleep(delay);
            delay = (delay * 2).min(RECONNECT_CAP);
            let factory =
                BootstrapSocketFactory::new(self.inner.host.clone(), self.inner.via_proxy);
            let start = self.inner.current.load(Ordering::Relaxed).min(n - 1);
            let span = if attempt == 0 { 1 } else { n };
            for k in 0..span {
                let idx = (start + k) % n;
                let Ok(stream) =
                    Self::dial_hello(&factory, self.inner.relay_addrs[idx], self.inner.id)
                else {
                    continue;
                };
                self.inner.current.store(idx, Ordering::Relaxed);
                *self.inner.writer.lock() = stream.clone();
                return Some(stream);
            }
        }
        None
    }

    fn dispatch(&self, frame: &[u8]) -> io::Result<()> {
        let mut r = FrameReader::new(frame);
        match r.u8()? {
            relay_op::NOPEER => {
                let to = r.u64()?;
                // The relay echoes the undeliverable inner frame, letting us
                // fail only the request it actually belonged to. Without the
                // echo (or if it does not parse), fall back to failing every
                // outstanding request towards that peer.
                let echoed = r.bytes().ok().filter(|b| !b.is_empty());
                if let Some(inner) = echoed {
                    if self.nopeer_precise(to, inner) {
                        return Ok(());
                    }
                }
                self.nopeer_all(to);
                Ok(())
            }
            relay_op::RECV => {
                let from = r.u64()?;
                let inner = r.bytes()?;
                self.dispatch_inner(from, inner)
            }
            relay_op::BUSY => {
                // A sharded relay says this recipient's queue is hot: gate
                // further DATA towards it until the READY.
                let peer = r.u64()?;
                self.inner.busy_throttles.fetch_add(1, Ordering::Relaxed);
                self.inner.congested.lock().entry(peer).or_default();
                Ok(())
            }
            relay_op::READY => {
                let peer = r.u64()?;
                if let Some(wakers) = self.inner.congested.lock().remove(&peer) {
                    for w in wakers {
                        w.wake();
                    }
                }
                Ok(())
            }
            _ => Err(io::ErrorKind::InvalidData.into()),
        }
    }

    /// Park while the relay holds `to` BUSY. A lost READY cannot strand the
    /// caller: the relay re-READYs when the shard drains or dies, and a
    /// relay-connection loss clears the whole map via `fail_inflight`.
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
            inner_op::SVC_REQ => {
                let Ok(req_id) = r.u64() else { return false };
                let mut p = self.inner.pending.lock();
                let Some(slot) = p.get_mut(&req_id) else {
                    return true; // already resolved; nothing else to fail
                };
                if slot.result.is_none() {
                    slot.result = Some(Err(io::Error::new(
                        io::ErrorKind::NotFound,
                        format!("relay: no peer {to}"),
                    )));
                }
                if let Some(w) = slot.waker.take() {
                    w.wake();
                }
                true
            }
            inner_op::OPEN => {
                let Ok(sid) = r.u64() else { return false };
                let mut ow = self.inner.open_waits.lock();
                let Some(slot) = ow.get_mut(&sid) else {
                    return true;
                };
                if slot.result.is_none() {
                    slot.result = Some(Err(format!("relay: no peer {to}")));
                }
                if let Some(w) = slot.waker.take() {
                    w.wake();
                }
                true
            }
            inner_op::DATA | inner_op::FIN => {
                // The peer behind an open routed stream vanished: close the
                // stream so readers see Eof instead of parking forever.
                let Ok(opener) = r.u8() else { return false };
                let Ok(sid) = r.u64() else { return false };
                let stream = if opener == 1 {
                    self.inner.outbound.lock().remove(&(to, sid))
                } else {
                    self.inner.inbound.lock().remove(&(to, sid))
                };
                if let Some(s) = stream {
                    s.inner.rx.close();
                }
                true
            }
            // SVC_RSP / OPEN_OK / OPEN_ERR bounced: the requester is gone,
            // nothing is waiting on our side.
            inner_op::SVC_RSP | inner_op::OPEN_OK | inner_op::OPEN_ERR => true,
            _ => false,
        }
    }

    /// Legacy behaviour: fail every outstanding request towards `to`.
    fn nopeer_all(&self, to: GridId) {
        let mut p = self.inner.pending.lock();
        for slot in p.values_mut() {
            if slot.to == to && slot.result.is_none() {
                slot.result = Some(Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("relay: no peer {to}"),
                )));
                if let Some(w) = slot.waker.take() {
                    w.wake();
                }
            }
        }
        drop(p);
        let mut ow = self.inner.open_waits.lock();
        for slot in ow.values_mut() {
            if slot.to == to && slot.result.is_none() {
                slot.result = Some(Err(format!("relay: no peer {to}")));
                if let Some(w) = slot.waker.take() {
                    w.wake();
                }
            }
        }
    }

    fn dispatch_inner(&self, from: GridId, inner: &[u8]) -> io::Result<()> {
        let mut r = FrameReader::new(inner);
        match r.u8()? {
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
                    let frame = FrameWriter::new()
                        .u8(inner_op::SVC_RSP)
                        .u64(req_id)
                        .u8(rsp.0)
                        .bytes(&rsp.1)
                        .into_bytes();
                    let _ = me.send_inner(from, frame);
                });
                Ok(())
            }
            inner_op::SVC_RSP => {
                let req_id = r.u64()?;
                let ok = r.u8()?;
                let payload = r.bytes()?.to_vec();
                let mut p = self.inner.pending.lock();
                if let Some(slot) = p.get_mut(&req_id) {
                    slot.result = Some(if ok == 1 {
                        Ok(payload)
                    } else {
                        Err(io::Error::other(
                            String::from_utf8_lossy(&payload).into_owned(),
                        ))
                    });
                    if let Some(w) = slot.waker.take() {
                        w.wake();
                    }
                }
                Ok(())
            }
            inner_op::OPEN => {
                let sid = r.u64()?;
                let port_name = r.str()?;
                let channel = r.u64()?;
                let stream = RoutedStream::new(self.clone(), from, sid, false);
                let delegate = self.inner.delegate.lock().clone();
                let result = match delegate {
                    Some(d) => {
                        self.inner
                            .inbound
                            .lock()
                            .insert((from, sid), stream.clone());
                        // The delegate may block (stack handshakes); run it
                        // in its own task after acknowledging.
                        let me = self.clone();
                        let st2 = stream;
                        self.inner.sched.spawn_daemon("routed-open", move || {
                            if let Err(msg) = d.on_open(from, &port_name, channel, st2) {
                                let _ = me.send_inner(
                                    from,
                                    FrameWriter::new()
                                        .u8(inner_op::OPEN_ERR)
                                        .u64(sid)
                                        .str(&msg)
                                        .into_bytes(),
                                );
                            }
                        });
                        Ok(())
                    }
                    None => Err("no delegate".to_string()),
                };
                let reply = match result {
                    Ok(()) => FrameWriter::new()
                        .u8(inner_op::OPEN_OK)
                        .u64(sid)
                        .into_bytes(),
                    Err(m) => FrameWriter::new()
                        .u8(inner_op::OPEN_ERR)
                        .u64(sid)
                        .str(&m)
                        .into_bytes(),
                };
                self.send_inner(from, reply)
            }
            inner_op::OPEN_OK => {
                let sid = r.u64()?;
                let mut ow = self.inner.open_waits.lock();
                if let Some(slot) = ow.get_mut(&sid) {
                    slot.result = Some(Ok(()));
                    if let Some(w) = slot.waker.take() {
                        w.wake();
                    }
                }
                Ok(())
            }
            inner_op::OPEN_ERR => {
                let sid = r.u64()?;
                let msg = r.str()?;
                let mut ow = self.inner.open_waits.lock();
                if let Some(slot) = ow.get_mut(&sid) {
                    slot.result = Some(Err(msg));
                    if let Some(w) = slot.waker.take() {
                        w.wake();
                    }
                } else {
                    // Error for an already-open stream: close it.
                    drop(ow);
                    if let Some(s) = self.inner.outbound.lock().get(&(from, sid)) {
                        s.inner.rx.close();
                    }
                }
                Ok(())
            }
            inner_op::DATA => {
                let opened_by_sender = r.u8()? == 1;
                let sid = r.u64()?;
                let chunk = r.bytes()?.to_vec();
                let stream = if opened_by_sender {
                    self.inner.inbound.lock().get(&(from, sid)).cloned()
                } else {
                    self.inner.outbound.lock().get(&(from, sid)).cloned()
                };
                if let Some(s) = stream {
                    // push blocks under backpressure, stalling the pump —
                    // and therefore the relay TCP connection. Crude but
                    // faithful to a single multiplexed relay link.
                    let _ = s.inner.rx.push(chunk);
                } else {
                    // DATA for a stream we no longer know: our state was
                    // reset (relay failover) while the peer kept writing
                    // through its own still-healthy relay. Answer FIN so
                    // its write side closes and its session layer recovers,
                    // instead of silently eating the bytes. FIN for an
                    // unknown stream is a no-op on the peer, so this cannot
                    // loop.
                    let fin = FrameWriter::new()
                        .u8(inner_op::FIN)
                        .u8((!opened_by_sender) as u8)
                        .u64(sid)
                        .into_bytes();
                    let _ = self.send_inner(from, fin);
                }
                Ok(())
            }
            inner_op::FIN => {
                let opened_by_sender = r.u8()? == 1;
                let sid = r.u64()?;
                let stream = if opened_by_sender {
                    self.inner.inbound.lock().remove(&(from, sid))
                } else {
                    self.inner.outbound.lock().remove(&(from, sid))
                };
                if let Some(s) = stream {
                    s.inner.fin_received.store(true, Ordering::Relaxed);
                    s.inner.rx.close();
                }
                Ok(())
            }
            _ => Err(io::ErrorKind::InvalidData.into()),
        }
    }
}

// ---------------------------------------------------------------- stream

struct RsInner {
    client: RelayClient,
    peer: GridId,
    sid: u64,
    /// Did this node open the stream? Determines the direction bit.
    opener: bool,
    rx: SimQueue<Vec<u8>>,
    cursor: Mutex<(Vec<u8>, usize)>,
    fin_sent: Mutex<bool>,
    /// Set only when the peer's FIN arrived — a *graceful* end of stream.
    /// Relay loss and NOPEER teardowns close `rx` without setting it, so
    /// readers can distinguish clean EOF from an abort.
    fin_received: std::sync::atomic::AtomicBool,
}

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
                cursor: Mutex::new((Vec::new(), 0)),
                fin_sent: Mutex::new(false),
                fin_received: std::sync::atomic::AtomicBool::new(false),
            }),
        }
    }

    pub fn peer(&self) -> GridId {
        self.inner.peer
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

    /// Wait until every frame written so far has been acknowledged by the
    /// relay host. Surfaces a dead relay connection that silently buffered
    /// writes — without this, a sender could "finish" into a connection
    /// whose abort only fires after its last write.
    pub fn drain(&self) -> io::Result<()> {
        if self.is_closed() {
            return Err(io::ErrorKind::ConnectionReset.into());
        }
        self.inner.client.inner.writer.lock().drain()?;
        if self.is_closed() {
            return Err(io::ErrorKind::ConnectionReset.into());
        }
        Ok(())
    }

    /// Would a read return without parking (buffered bytes or EOF)?
    pub fn readable(&self) -> bool {
        if !self.inner.rx.is_empty() || self.inner.rx.is_closed() {
            return true;
        }
        let cur = self.inner.cursor.lock();
        cur.1 < cur.0.len()
    }

    /// Signal end of stream to the peer.
    pub fn shutdown_write(&self) -> io::Result<()> {
        let mut sent = self.inner.fin_sent.lock();
        if *sent {
            return Ok(());
        }
        *sent = true;
        let frame = FrameWriter::new()
            .u8(inner_op::FIN)
            .u8(self.inner.opener as u8)
            .u64(self.inner.sid)
            .into_bytes();
        self.inner.client.send_inner(self.inner.peer, frame)
    }
}

impl Read for RoutedStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            {
                let mut cur = self.inner.cursor.lock();
                if cur.1 < cur.0.len() {
                    let n = buf.len().min(cur.0.len() - cur.1);
                    buf[..n].copy_from_slice(&cur.0[cur.1..cur.1 + n]);
                    cur.1 += n;
                    return Ok(n);
                }
            }
            // Refill (may park — no lock held).
            match self.inner.rx.pop() {
                Some(chunk) => {
                    let mut cur = self.inner.cursor.lock();
                    *cur = (chunk, 0);
                }
                None => return Ok(0),
            }
        }
    }
}

impl Write for RoutedStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        for chunk in buf.chunks(ROUTED_CHUNK) {
            // An abortive teardown (relay loss, dead peer, reply-FIN from a
            // failed-over peer) must fail the writer — otherwise a zombie
            // stream keeps pumping DATA into the relay after a redial. A
            // graceful peer FIN keeps the legacy fire-and-forget behaviour.
            if self.inner.rx.is_closed() && !self.fin_received() {
                return Err(io::ErrorKind::ConnectionReset.into());
            }
            self.inner.client.wait_ready(self.inner.peer);
            let frame = FrameWriter::new()
                .u8(inner_op::DATA)
                .u8(self.inner.opener as u8)
                .u64(self.inner.sid)
                .bytes(chunk)
                .into_bytes();
            self.inner.client.send_inner(self.inner.peer, frame)?;
        }
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for RsInner {
    fn drop(&mut self) {
        // Best-effort FIN; ignore failures during teardown.
        let sent = *self.fin_sent.lock();
        if !sent && gridsim_net::ctx::in_task() {
            let frame = FrameWriter::new()
                .u8(inner_op::FIN)
                .u8(self.opener as u8)
                .u64(self.sid)
                .into_bytes();
            let _ = self.client.send_inner(self.peer, frame);
        }
    }
}
