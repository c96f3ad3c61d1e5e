//! Blocking socket API over the simulated TCP stack.
//!
//! [`TcpListener`] and [`TcpStream`] mirror `std::net`: calls block the
//! *simulated* task (in simulated time) until they can make progress.
//! [`TcpStream`] implements `std::io::Read`/`Write` (also on `&TcpStream`),
//! so byte-stream layers — buffered writers, compression, the GTLS secure
//! channel — stack on top exactly as they would on a real socket.

use bytes::Bytes;
use gridsim_net::{ctx, Ip, Net, NodeId, SimTime, SockAddr};
use std::io;
use std::sync::Arc;

use crate::stack::{with_host, ConnId, TcpHost};
use crate::tcb::{ConnStats, State, Tcb, TcpConfig};

/// Options for [`SimHost::connect_opts`].
///
/// [`SimHost::connect_opts`]: crate::SimHost::connect_opts
#[derive(Clone, Copy, Debug, Default)]
pub struct ConnectOpts {
    /// Bind this local port instead of an ephemeral one. Required for TCP
    /// splicing, where both endpoints must use pre-agreed ports.
    pub local_port: Option<u16>,
    /// Per-connection TCP parameters (defaults to the host's config).
    pub cfg: Option<TcpConfig>,
}

/// A listening socket.
pub struct TcpListener {
    net: Net,
    node: NodeId,
    addr: SockAddr,
}

impl std::fmt::Debug for TcpListener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TcpListener({})", self.addr)
    }
}

impl TcpListener {
    pub(crate) fn new(net: Net, node: NodeId, addr: SockAddr) -> TcpListener {
        TcpListener { net, node, addr }
    }

    /// The bound address.
    pub fn local_addr(&self) -> SockAddr {
        self.addr
    }

    /// What a task blocked in an accept is parked on, and the would-block
    /// reason of [`poll_accept`](Self::poll_accept).
    pub const ACCEPT_WAIT: &'static str = "tcp accept";

    /// Block until a fully established connection is available.
    pub fn accept(&self) -> io::Result<TcpStream> {
        ctx::park_io(|| self.poll_accept())
    }

    /// [`accept`](Self::accept) for a caller that must not park:
    /// `Err(WouldBlock)` while no connection is pending, the calling task
    /// woken when one is or the listener closes.
    pub fn poll_accept(&self) -> io::Result<TcpStream> {
        let port = self.addr.port;
        self.net.with(|w| {
            with_host(w, self.node, |h, _w| {
                let Some(l) = h.listeners.get_mut(&port) else {
                    return Err(io::Error::from(io::ErrorKind::NotConnected));
                };
                if let Some(id) = l.pending.pop_front() {
                    let t = h.conns.get(&id).expect("accepted conn");
                    let (net, node) = (self.net.clone(), self.node);
                    return Ok(TcpStream::attach(net, node, id, t.local, t.remote));
                }
                if l.closed {
                    return Err(io::Error::from(io::ErrorKind::NotConnected));
                }
                l.accept_wakers.push(ctx::waker());
                Err(ctx::would_block(Self::ACCEPT_WAIT))
            })
        })
    }
}

impl Drop for TcpListener {
    fn drop(&mut self) {
        let port = self.addr.port;
        let node = self.node;
        self.net
            .with(|w| with_host(w, node, |h, w| h.close_listener(w, port)));
    }
}

struct StreamInner {
    net: Net,
    node: NodeId,
    id: ConnId,
    local: SockAddr,
    remote: SockAddr,
}

impl Drop for StreamInner {
    fn drop(&mut self) {
        let id = self.id;
        self.net.with(|w| {
            with_host(w, self.node, |h, w| {
                let now = w.sched().now();
                if let Some(tcb) = h.conns.get_mut(&id) {
                    tcb.detached = true;
                    tcb.start_close(now);
                    let done = tcb.state == State::Closed;
                    h.flush_conn(w, id);
                    if done {
                        h.drop_conn(id);
                    }
                }
            })
        });
    }
}

/// A connected (or connecting) TCP stream. Cloning yields another handle to
/// the same connection, which lets one task read while another writes (the
/// relay and the parallel-stream driver rely on this).
#[derive(Clone)]
pub struct TcpStream {
    inner: Arc<StreamInner>,
}

impl std::fmt::Debug for TcpStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TcpStream({} -> {})",
            self.inner.local, self.inner.remote
        )
    }
}

impl TcpStream {
    pub(crate) fn attach(
        net: Net,
        node: NodeId,
        id: ConnId,
        local: SockAddr,
        remote: SockAddr,
    ) -> TcpStream {
        TcpStream {
            inner: Arc::new(StreamInner {
                net,
                node,
                id,
                local,
                remote,
            }),
        }
    }

    pub fn local_addr(&self) -> SockAddr {
        self.inner.local
    }

    pub fn peer_addr(&self) -> SockAddr {
        self.inner.remote
    }

    /// Run `f` on the connection's TCB, then flush any produced segments.
    fn with_tcb<R>(&self, f: impl FnOnce(&mut Tcb, SimTime) -> R) -> io::Result<R> {
        let id = self.inner.id;
        self.inner.net.with(|w| {
            with_host(w, self.inner.node, |h, w| {
                let now = w.sched().now();
                let tcb = h
                    .conns
                    .get_mut(&id)
                    .ok_or_else(|| io::Error::from(io::ErrorKind::NotConnected))?;
                let r = f(tcb, now);
                h.flush_conn(w, id);
                Ok(r)
            })
        })
    }

    /// What a task blocked in a read is parked on: the park reason of
    /// every blocking read, and the would-block reason of
    /// [`poll_read_chunks_min`](Self::poll_read_chunks_min).
    pub const READ_WAIT: &'static str = "tcp read";

    /// What a task blocked in a connect is parked on, and the would-block
    /// reason of [`poll_established`](Self::poll_established).
    pub const CONNECT_WAIT: &'static str = "tcp connect";

    /// Block until the connection is established (used right after
    /// `connect`). Returns immediately if already established.
    pub fn wait_established(&self) -> io::Result<()> {
        ctx::park_io(|| self.poll_established())
    }

    /// [`wait_established`](Self::wait_established) for a caller that must
    /// not park: `Err(WouldBlock)` while the handshake is under way, the
    /// calling task woken when it ends either way; asked again, the call
    /// answers as the blocking one would.
    pub fn poll_established(&self) -> io::Result<()> {
        self.with_tcb(|tcb, _| {
            if let Some(e) = tcb.error() {
                return Err(io::Error::from(e));
            }
            if tcb.is_established() || tcb.state.can_send() {
                return Ok(());
            }
            if tcb.state.is_terminal() {
                return Err(io::Error::from(io::ErrorKind::NotConnected));
            }
            tcb.conn_wakers.push(ctx::waker());
            Err(ctx::would_block(Self::CONNECT_WAIT))
        })?
    }

    /// Blocking write of all of `buf`; returns `buf.len()`: a
    /// [`write_block`](Self::write_block) of one copy of `buf`, counted in
    /// `bytes_copied`.
    pub fn write_some(&self, buf: &[u8]) -> io::Result<usize> {
        ctx::park_io(|| self.poll_write_some(buf))
    }

    /// [`write_some`](Self::write_some) for a caller that must not park,
    /// as [`poll_write_block`](Self::poll_write_block) is for a block.
    pub fn poll_write_some(&self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let copy = || (Bytes::copy_from_slice(buf), buf.len());
        self.poll_write(copy).map(|()| buf.len())
    }

    /// Blocking read; `Ok(0)` means EOF. One demand for 1 to `buf.len()`
    /// bytes, staged on the TCB like
    /// [`read_chunks_min`](Self::read_chunks_min)'s, whose pickup is
    /// copied into `buf`.
    pub fn read_some(&self, buf: &mut [u8]) -> io::Result<usize> {
        ctx::park_io(|| self.poll_read_some(buf))
    }

    /// [`read_some`](Self::read_some) for a caller that must not park: the
    /// same demand staged on the TCB, or picked up if this socket has one
    /// staged. `Err(WouldBlock)` while it is unmet, the calling task woken
    /// when it is met; asked again with a buffer as long, the call collects
    /// what the blocking one would have.
    pub fn poll_read_some(&self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let read = self.with_tcb(|tcb, now| tcb.read_copy(now, buf, ctx::waker()))?;
        read.unwrap_or_else(|| Err(ctx::would_block(Self::READ_WAIT)))
    }

    /// Blocking write of one whole block, zero-copy: accepted bytes enter
    /// the send queue as refcounted slices of `block`, which stay alive
    /// until acknowledged by the peer. When the send buffer fills, the
    /// remainder is *staged* on the TCB: ACK processing refills the queue
    /// at event time and this call parks just once, waking when every byte
    /// is queued (or the connection dies) instead of once per ACK.
    pub fn write_block(&self, block: Bytes) -> io::Result<()> {
        ctx::park_io(|| self.poll_write_block(&block))
    }

    /// The park reason of every blocking write, and the would-block reason
    /// of [`poll_write_block`](Self::poll_write_block).
    pub const WRITE_WAIT: &'static str = "tcp write";

    /// [`write_block`](Self::write_block) for a caller that must not park:
    /// `block` staged, or the write this socket has staged collected.
    /// `Err(WouldBlock)` while bytes of it are unqueued; woken when none
    /// are or the connection dies, and asked again with the same block.
    pub fn poll_write_block(&self, block: &Bytes) -> io::Result<()> {
        self.poll_write(|| (block.clone(), 0))
    }

    /// One look at a write: [`Tcb::write_staged`] of `block()`.
    fn poll_write(&self, block: impl FnOnce() -> (Bytes, usize)) -> io::Result<()> {
        let written = self.with_tcb(|tcb, now| tcb.write_staged(now, block, ctx::waker()))?;
        written.unwrap_or_else(|| Err(ctx::would_block(Self::WRITE_WAIT)))
    }

    /// Blocking read of at least `min` bytes (unless EOF intervenes),
    /// appended to `out` as zero-copy chunks (slices of received segment
    /// buffers); `min = 1` is a plain "whatever is there, up to `max`"
    /// read. Each drain call consumes up to `max(remaining, max)` bytes —
    /// the same granularity as a BufReader with capacity `max` doing
    /// large-read bypass — so the result may exceed `min` by up to `max`
    /// bytes of read-ahead. While short of `min`, the demand is staged on
    /// the TCB: arriving segments are moved into the result at delivery
    /// time and this call parks just once, waking when the demand is met —
    /// one wakeup drains everything available instead of one wakeup per
    /// delivered segment.
    ///
    /// Returns the byte count appended; `< min` only at EOF, `0` = EOF
    /// before any byte. Buffered data is always delivered before an error
    /// is surfaced (the error resurfaces on the next call).
    pub fn read_chunks_min(
        &self,
        min: usize,
        max: usize,
        out: &mut Vec<Bytes>,
    ) -> io::Result<usize> {
        ctx::park_io(|| self.poll_read_chunks_min(min, max, out))
    }

    /// [`read_chunks_min`](Self::read_chunks_min) without parking, for a
    /// caller that must not park: the same demand staged on the TCB with the
    /// same `min` and `max`, or picked up if this socket has one staged.
    /// `Err(WouldBlock)` while the demand is unmet: nothing is appended to
    /// `out`, and the calling task is woken when the demand is met.
    pub fn poll_read_chunks_min(
        &self,
        min: usize,
        max: usize,
        out: &mut Vec<Bytes>,
    ) -> io::Result<usize> {
        if max == 0 || min == 0 {
            return Ok(0);
        }
        // Stage the demand, or collect the one staged (a connection has
        // one reader at a time).
        let staged = self.with_tcb(|tcb, now| {
            if tcb.read_is_staged() {
                tcb.collect_staged_read(now)
            } else {
                tcb.read_staged(now, min, max, out, ctx::waker())
            }
        })?;
        let (chunks, read) = staged.ok_or_else(|| ctx::would_block(Self::READ_WAIT))?;
        *out = chunks;
        read
    }

    /// Toggle Nagle's algorithm (paper §4.1: NetIbis disables it and
    /// aggregates in user space instead).
    pub fn set_nodelay(&self, nodelay: bool) -> io::Result<()> {
        self.with_tcb(|tcb, now| {
            tcb.cfg.nodelay = nodelay;
            if nodelay {
                tcb.transmit(now); // release anything Nagle was holding
            }
        })
    }

    /// Send FIN; the peer sees EOF after draining. Reading is still allowed.
    pub fn shutdown_write(&self) -> io::Result<()> {
        self.with_tcb(|tcb, now| tcb.start_close(now))
    }

    /// Hard reset.
    pub fn abort(&self) {
        let _ = self.with_tcb(|tcb, now| tcb.abort(now));
    }

    /// Connection counters.
    pub fn stats(&self) -> io::Result<ConnStats> {
        self.with_tcb(|tcb, _| tcb.stats)
    }

    /// Free space in the send buffer. A writer waiting on the transport
    /// keeps it near zero (a staged write refills the buffer on every
    /// ACK); room that persists means the writer is not waiting — the
    /// application, not the network, is the bottleneck. Never blocks.
    pub fn send_room(&self) -> io::Result<usize> {
        self.with_tcb(|tcb, _| tcb.send_space())
    }

    /// Health probe for supervision code: `Some(kind)` if the connection
    /// has failed (reset, dead-peer timeout, crashed stack), `None` while
    /// it is usable. Never blocks.
    pub fn health(&self) -> Option<io::ErrorKind> {
        match self.with_tcb(|tcb, _| tcb.error()) {
            Ok(e) => e,
            Err(e) => Some(e.kind()),
        }
    }

    /// Is data (or EOF/error) immediately available to a reader? Never
    /// blocks. No product code polls with it any more — a read with a
    /// deadline stages its demand and parks beside one timer wake — but
    /// tests use it to check that nothing was answered.
    pub fn readable(&self) -> bool {
        self.with_tcb(|tcb, _| tcb.readable()).unwrap_or(true)
    }

    /// Block until all written data has been acknowledged by the peer —
    /// useful for bandwidth measurements that must not count buffered bytes.
    pub fn drain(&self) -> io::Result<()> {
        ctx::park_io(|| {
            self.with_tcb(|tcb, _| {
                if tcb.error().is_some() || tcb.send_space() == tcb.cfg.send_buf as usize {
                    return Ok(());
                }
                // Woken once when the queue empties, not on every ACK.
                tcb.drain_wakers.push(ctx::waker());
                Err(ctx::would_block("tcp drain"))
            })?
        })
    }
}

impl io::Read for TcpStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.read_some(buf)
    }
}

impl io::Write for TcpStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_some(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl io::Read for &TcpStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.read_some(buf)
    }
}

impl io::Write for &TcpStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_some(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A host handle: the entry point for creating sockets on a simulated node.
#[derive(Clone)]
pub struct SimHost {
    net: Net,
    node: NodeId,
    ip: Ip,
}

impl SimHost {
    /// Wrap a node; installs the TCP dispatcher on first use.
    pub fn new(net: &Net, node: NodeId) -> SimHost {
        let ip = net.with(|w| {
            TcpHost::register_dispatch(w);
            crate::udp::UdpHost::register_dispatch(w);
            w.addr_of(node)
        });
        SimHost {
            net: net.clone(),
            node,
            ip,
        }
    }

    pub fn node(&self) -> NodeId {
        self.node
    }

    pub fn net(&self) -> &Net {
        &self.net
    }

    /// The host's primary IP address.
    pub fn ip(&self) -> Ip {
        self.ip
    }

    /// Default TCP parameters for sockets created on this host.
    pub fn set_tcp_config(&self, cfg: TcpConfig) {
        self.net
            .with(|w| with_host(w, self.node, |h, _| h.default_cfg = cfg));
    }

    pub fn tcp_config(&self) -> TcpConfig {
        self.net
            .with(|w| with_host(w, self.node, |h, _| h.default_cfg))
    }

    /// Open a listener on `port`.
    pub fn listen(&self, port: u16) -> io::Result<TcpListener> {
        self.net
            .with(|w| with_host(w, self.node, |h, _| h.start_listen(port, 64)))?;
        Ok(TcpListener::new(
            self.net.clone(),
            self.node,
            SockAddr::new(self.ip, port),
        ))
    }

    /// Connect to `remote`, blocking until established or failed.
    pub fn connect(&self, remote: SockAddr) -> io::Result<TcpStream> {
        self.connect_opts(remote, ConnectOpts::default())
    }

    /// Connect with explicit options. With `local_port` set and the peer
    /// connecting back simultaneously to that port, the handshake resolves
    /// as a simultaneous open — TCP splicing.
    pub fn connect_opts(&self, remote: SockAddr, opts: ConnectOpts) -> io::Result<TcpStream> {
        let stream = self.connect_start(remote, opts)?;
        stream.wait_established()?;
        Ok(stream)
    }

    /// Begin a connection without waiting for establishment: the SYN is
    /// emitted before this returns (NAT traversal needs the mapping to
    /// exist *now*); call [`TcpStream::wait_established`] to finish, or
    /// await [`TcpStream::poll_established`].
    pub fn connect_start(&self, remote: SockAddr, opts: ConnectOpts) -> io::Result<TcpStream> {
        let (id, local) = self.net.with(|w| {
            with_host(w, self.node, |h, w| {
                let cfg = opts.cfg.unwrap_or(h.default_cfg);
                let src_ip = w.source_ip_for(h.node, remote.ip);
                let port = match opts.local_port {
                    Some(p) => p,
                    None => h.alloc_ephemeral(src_ip)?,
                };
                let local = SockAddr::new(src_ip, port);
                let id = h.start_connect(w, cfg, local, remote)?;
                Ok::<_, io::Error>((id, local))
            })
        })?;
        Ok(TcpStream::attach(
            self.net.clone(),
            self.node,
            id,
            local,
            remote,
        ))
    }

    /// Bind a UDP socket.
    pub fn udp_bind(&self, port: u16) -> io::Result<crate::udp::UdpSocket> {
        crate::udp::UdpSocket::bind(&self.net, self.node, self.ip, port)
    }
}
