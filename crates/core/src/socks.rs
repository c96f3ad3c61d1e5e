//! SOCKS5 (RFC 1928) — the paper's "TCP proxy" establishment method (§3.3).
//!
//! Implements the CONNECT subset over simulated TCP: a proxy server meant
//! to run on a site gateway host (visible from both sides of the firewall)
//! and a client-side dialer. No authentication method beyond "none" — site
//! proxies of the paper's era gated access by network position.
//! The accept loop, each client's handshake and upstream dial, and a
//! tunnel's two directions are async tasks (DESIGN.md §6a), polled where
//! their bytes land; so is the client's dialer, an `async fn`.

use gridsim_net::{ctx, SockAddr};
use gridsim_tcp::{ConnectOpts, SimHost, TcpStream};
use std::io;

use crate::link::{dial, next_conn};
use crate::wire::{Choice, Greeting, SocksMsg, SocksReply, SocksRequest};
use crate::wire::{CMD_CONNECT, METHOD_NONE, REP_FAIL, REP_NO_CMD, REP_OK, REP_REFUSED};

/// Move bytes one way until EOF, then propagate the EOF: received chunks
/// go into the other socket's send queue as they are, by refcount.
fn pump_one_way(from: TcpStream, to: TcpStream, label: &'static str) {
    ctx::handle().spawn_async(format!("socks-pump-{label}"), async move {
        let mut chunks = Vec::new();
        'tunnel: loop {
            let read = || from.poll_read_chunks_min(1, 64 * 1024, &mut chunks);
            if !matches!(ctx::wait_io(read).await, Ok(1..)) {
                break;
            }
            for chunk in chunks.drain(..) {
                if ctx::wait_io(|| to.poll_write_block(&chunk)).await.is_err() {
                    break 'tunnel;
                }
            }
        }
        let _ = to.shutdown_write();
    });
}

/// Run a SOCKS5 proxy server on `host`, accepting on `port`. Spawns its own
/// accept loop; returns once listening. The proxy dials targets from the
/// gateway, so it can reach both the public internet and the site-internal
/// network.
pub fn spawn_proxy(host: &SimHost, port: u16) -> io::Result<()> {
    let listener = host.listen(port)?;
    let host = host.clone();
    let sched = host.net().sched().clone();
    sched.spawn_async(format!("socks-proxy-{}", host.ip()), async move {
        while let Ok(client) = next_conn(&listener).await {
            let host = host.clone();
            ctx::handle().spawn_async("socks-conn", async move {
                let _ = serve_one(&host, client).await;
            });
        }
    });
    Ok(())
}

/// `msg` written whole on `s`.
async fn send(s: &TcpStream, msg: impl SocksMsg) -> io::Result<()> {
    let block = msg.encode().into();
    ctx::wait_io(|| s.poll_write_block(&block)).await
}

/// The next message off `s`: its head, then the rest the head announces,
/// read exactly by `read_exact`'s reads, awaited (a staged demand for `n`
/// bytes can take more when they arrive in parts, and the bytes past a
/// message are the next one's): `UnexpectedEof` if `s` ends first.
async fn recv<M: SocksMsg>(s: &TcpStream) -> io::Result<M> {
    let (mut bytes, mut got) = (vec![0; M::HEAD], 0);
    while got < bytes.len() {
        match ctx::wait_io(|| s.poll_read_some(&mut bytes[got..])).await? {
            0 => return Err(io::ErrorKind::UnexpectedEof.into()),
            read => got += read,
        }
        if got == M::HEAD {
            bytes.resize(M::HEAD + M::rest(&bytes)?, 0);
        }
    }
    M::decode(&bytes)
}

async fn serve_one(host: &SimHost, c: TcpStream) -> io::Result<()> {
    let Greeting(methods) = recv(&c).await?;
    let pick = methods.contains(&METHOD_NONE).then_some(METHOD_NONE);
    send(&c, Choice(pick)).await?;
    if pick.is_none() {
        return Err(io::ErrorKind::PermissionDenied.into());
    }
    let req: SocksRequest = match recv(&c).await {
        // Not a request of this subset: another version or address type.
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            send(&c, SocksReply(REP_FAIL)).await?;
            return Err(e);
        }
        req => req?,
    };
    if req.cmd != CMD_CONNECT {
        send(&c, SocksReply(REP_NO_CMD)).await?;
        return Err(io::ErrorKind::Unsupported.into());
    }
    // Dial on behalf of the client.
    match dial(host, req.target, ConnectOpts::default()).await {
        Ok(upstream) => {
            send(&c, SocksReply(REP_OK)).await?;
            pump_one_way(c.clone(), upstream.clone(), "c2s");
            pump_one_way(upstream, c, "s2c");
            Ok(())
        }
        Err(e) => {
            send(&c, SocksReply(REP_REFUSED)).await?;
            Err(e)
        }
    }
}

/// Connect to `target` through the SOCKS5 proxy at `proxy`. Returns the
/// tunneled stream, usable exactly like a direct TCP connection (paper:
/// "the link may then be used exactly like a direct TCP connection").
pub async fn socks_connect(
    host: &SimHost,
    proxy: SockAddr,
    target: SockAddr,
) -> io::Result<TcpStream> {
    let s = dial(host, proxy, ConnectOpts::default()).await?;
    send(&s, Greeting(vec![METHOD_NONE])).await?;
    let rejected = || io::Error::new(io::ErrorKind::PermissionDenied, "socks: method rejected");
    let Choice(Some(METHOD_NONE)) = recv(&s).await? else {
        return Err(rejected());
    };
    let cmd = CMD_CONNECT;
    send(&s, SocksRequest { cmd, target }).await?;
    let SocksReply(rep) = recv(&s).await?;
    let why = move || format!("socks: connect failed (rep={rep})");
    let failed = || io::Error::new(io::ErrorKind::ConnectionRefused, why());
    (rep == REP_OK).then_some(s).ok_or_else(failed)
}
