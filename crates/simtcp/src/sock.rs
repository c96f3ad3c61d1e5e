//! Blocking socket API over the simulated TCP stack.
//!
//! [`TcpListener`] and [`TcpStream`] mirror `std::net`: calls block the
//! *simulated* task (in simulated time) until they can make progress.
//! [`TcpStream`] implements `std::io::Read`/`Write` (also on `&TcpStream`),
//! so byte-stream layers — buffered writers, compression, the GTLS secure
//! channel — stack on top exactly as they would on a real socket.

use bytes::Bytes;
use gridsim_net::{ctx, Ip, Net, NodeId, SockAddr};
use std::io;
use std::sync::Arc;

use crate::stack::{with_host, ConnId, TcpHost};
use crate::tcb::{ConnStats, ReadOutcome, State, TcpConfig, WriteOutcome};

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

    /// Block until a fully established connection is available.
    pub fn accept(&self) -> io::Result<TcpStream> {
        loop {
            let port = self.addr.port;
            let got = self.net.with(|w| {
                with_host(w, self.node, |h, _w| match h.listeners.get_mut(&port) {
                    Some(l) => {
                        if let Some(id) = l.pending.pop_front() {
                            return Some(Ok(id));
                        }
                        if l.closed {
                            return Some(Err(io::Error::from(io::ErrorKind::NotConnected)));
                        }
                        l.accept_wakers.push(ctx::waker());
                        None
                    }
                    None => Some(Err(io::Error::from(io::ErrorKind::NotConnected))),
                })
            });
            match got {
                Some(Ok(id)) => {
                    let (local, remote) = self.net.with(|w| {
                        with_host(w, self.node, |h, _| {
                            let t = h.conns.get(&id).expect("accepted conn");
                            (t.local, t.remote)
                        })
                    });
                    return Ok(TcpStream::attach(
                        self.net.clone(),
                        self.node,
                        id,
                        local,
                        remote,
                    ));
                }
                Some(Err(e)) => return Err(e),
                None => ctx::park("tcp accept"),
            }
        }
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
    fn with_tcb<R>(
        &self,
        f: impl FnOnce(&mut crate::tcb::Tcb, gridsim_net::SimTime) -> R,
    ) -> io::Result<R> {
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

    /// Block until the connection is established (used right after
    /// `connect`). Returns immediately if already established.
    pub fn wait_established(&self) -> io::Result<()> {
        loop {
            let st = self.with_tcb(|tcb, _| {
                if let Some(e) = tcb.error() {
                    return Some(Err(io::Error::from(e)));
                }
                if tcb.is_established() || tcb.state.can_send() {
                    return Some(Ok(()));
                }
                if tcb.state.is_terminal() {
                    return Some(Err(io::Error::from(io::ErrorKind::NotConnected)));
                }
                tcb.conn_wakers.push(ctx::waker());
                None
            })?;
            match st {
                Some(r) => return r,
                None => ctx::park("tcp connect"),
            }
        }
    }

    /// Blocking write of as much of `buf` as fits the send buffer (at least
    /// one byte, like POSIX `send`).
    pub fn write_some(&self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        loop {
            let r = self.with_tcb(|tcb, now| match tcb.try_write(now, buf) {
                Ok(WriteOutcome::Wrote(n)) => Some(Ok(n)),
                Ok(WriteOutcome::Full) => {
                    tcb.write_wakers.push(ctx::waker());
                    None
                }
                Err(e) => Some(Err(e)),
            })?;
            match r {
                Some(r) => return r,
                None => ctx::park("tcp write"),
            }
        }
    }

    /// Blocking read; `Ok(0)` means EOF.
    pub fn read_some(&self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        loop {
            let r = self.with_tcb(|tcb, now| match tcb.try_read(now, buf) {
                Ok(ReadOutcome::Read(n)) => Some(Ok(n)),
                Ok(ReadOutcome::Eof) => Some(Ok(0)),
                Ok(ReadOutcome::Empty) => {
                    tcb.read_wakers.push(ctx::waker());
                    None
                }
                Err(e) => Some(Err(e)),
            })?;
            match r {
                Some(r) => return r,
                None => ctx::park("tcp read"),
            }
        }
    }

    /// Write the entire buffer (blocking).
    pub fn write_all_blocking(&self, mut buf: &[u8]) -> io::Result<()> {
        while !buf.is_empty() {
            let n = self.write_some(buf)?;
            buf = &buf[n..];
        }
        Ok(())
    }

    /// Blocking write of one whole block, zero-copy: accepted bytes enter
    /// the send queue as refcounted slices of `block`, which stay alive
    /// until acknowledged by the peer. When the send buffer fills, the
    /// remainder is *staged* on the TCB: ACK processing refills the queue
    /// at event time and this call parks just once, waking when every byte
    /// is queued (or the connection dies) instead of once per ACK.
    pub fn write_block(&self, block: Bytes) -> io::Result<()> {
        enum Next {
            Done(io::Result<()>),
            Staged,
            LegacyPark,
        }
        // The part of the block not yet accepted.
        let mut rest = block;
        loop {
            let r = self.with_tcb(|tcb, now| {
                while !rest.is_empty() {
                    match tcb.try_write_bytes(now, &rest) {
                        Ok(WriteOutcome::Wrote(n)) => rest = rest.slice(n..),
                        Ok(WriteOutcome::Full) => {
                            if tcb.stage_write(rest.clone(), ctx::waker()) {
                                return Next::Staged;
                            }
                            // Another task's write is staged on this
                            // connection: fall back to waker-parking.
                            tcb.write_wakers.push(ctx::waker());
                            return Next::LegacyPark;
                        }
                        Err(e) => return Next::Done(Err(e)),
                    }
                }
                Next::Done(Ok(()))
            })?;
            match r {
                Next::Done(r) => return r,
                Next::LegacyPark => ctx::park("tcp write"),
                Next::Staged => loop {
                    ctx::park("tcp write");
                    if let Some(r) = self.with_tcb(|tcb, now| tcb.collect_staged_write(now))? {
                        return r;
                    }
                },
            }
        }
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
        if max == 0 || min == 0 {
            return Ok(0);
        }
        enum Next {
            Ret(io::Result<usize>),
            Staged,
            LegacyPark,
        }
        let mut got = 0usize;
        loop {
            let r = self.with_tcb(|tcb, now| {
                while got < min {
                    // Same per-call cap policy as the staged service pass
                    // (see `Tcb::service_pending_read`): `max(remaining,
                    // max)` keeps consumption granularity — and thus ACK
                    // emission — identical to the BufReader-style loop
                    // this replaces.
                    let cap = (min - got).max(max);
                    match tcb.try_read_chunks(now, cap, out) {
                        Ok(ReadOutcome::Read(n)) => got += n,
                        Ok(ReadOutcome::Empty) => {
                            return if tcb.stage_read(min - got, max, out, ctx::waker()) {
                                Next::Staged
                            } else {
                                // Another task's read is staged here: fall
                                // back to waker-parking.
                                tcb.read_wakers.push(ctx::waker());
                                Next::LegacyPark
                            };
                        }
                        Ok(ReadOutcome::Eof) => return Next::Ret(Ok(got)),
                        Err(e) => {
                            return Next::Ret(if got > 0 { Ok(got) } else { Err(e) });
                        }
                    }
                }
                Next::Ret(Ok(got))
            })?;
            match r {
                Next::Ret(r) => return r,
                Next::LegacyPark => ctx::park("tcp read"),
                Next::Staged => loop {
                    ctx::park("tcp read");
                    let picked = self.with_tcb(|tcb, now| tcb.collect_staged_read(now))?;
                    let Some((chunks, read)) = picked else {
                        continue; // spurious wake; demand still staged
                    };
                    *out = chunks;
                    return match read {
                        Ok(n) => Ok(got + n),
                        Err(_) if got > 0 => Ok(got),
                        Err(e) => Err(e),
                    };
                },
            }
        }
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
        let _ = self.with_tcb(|tcb, _| tcb.abort());
    }

    /// Connection counters.
    pub fn stats(&self) -> io::Result<ConnStats> {
        self.with_tcb(|tcb, _| tcb.stats)
    }

    /// Bytes written by the application but not yet acknowledged by the
    /// peer (send-buffer occupancy). A persistently near-zero backlog
    /// means the sender can't fill the pipe — the application, not the
    /// network, is the bottleneck. Never blocks.
    pub fn tx_backlog(&self) -> io::Result<usize> {
        self.with_tcb(|tcb, _| tcb.cfg.send_buf as usize - tcb.send_space())
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

    /// Is data (or EOF/error) immediately available to a reader? Lets
    /// callers poll with a timeout instead of committing to a blocking
    /// read. Never blocks.
    pub fn readable(&self) -> bool {
        self.with_tcb(|tcb, _| tcb.readable()).unwrap_or(true)
    }

    /// Current congestion window (diagnostics).
    pub fn cwnd(&self) -> io::Result<u64> {
        self.with_tcb(|tcb, _| tcb.cwnd())
    }

    /// Block until all written data has been acknowledged by the peer —
    /// useful for bandwidth measurements that must not count buffered bytes.
    pub fn drain(&self) -> io::Result<()> {
        loop {
            let done = self.with_tcb(|tcb, _| {
                if tcb.error().is_some() || tcb.send_space() == tcb.cfg.send_buf as usize {
                    true
                } else {
                    // Dedicated list: woken once when the queue empties,
                    // not on every ACK like `write_wakers`.
                    tcb.drain_wakers.push(ctx::waker());
                    false
                }
            })?;
            if done {
                return Ok(());
            }
            ctx::park("tcp drain");
        }
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
    /// exist *now*); call [`TcpStream::wait_established`] to finish.
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
