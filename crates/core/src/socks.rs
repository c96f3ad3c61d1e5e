//! SOCKS5 (RFC 1928) — the paper's "TCP proxy" establishment method (§3.3).
//!
//! Implements the CONNECT subset over simulated TCP: a proxy server meant
//! to run on a site gateway host (visible from both sides of the firewall)
//! and a client-side dialer. No authentication method beyond "none" — site
//! proxies of the paper's era gated access by network position.
//! The accept loop and a tunnel's two directions are async tasks (DESIGN.md
//! §6a), polled where their bytes land; a client's handshake blocks.

use gridsim_net::{ctx, SockAddr};
use gridsim_tcp::{SimHost, TcpStream};
use std::io::{self, Write};

use crate::link::next_conn;
use crate::wire::{Choice, Greeting, SocksReply, SocksRequest};
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
            ctx::handle().spawn_daemon("socks-conn", move || {
                let _ = serve_one(&host, client);
            });
        }
    });
    Ok(())
}

fn serve_one(host: &SimHost, client: TcpStream) -> io::Result<()> {
    let mut c = client.clone();
    let reply = |c: &mut TcpStream, rep| c.write_all(&SocksReply(rep).encode());
    let Greeting(methods) = Greeting::read(&mut c)?;
    let pick = methods.contains(&METHOD_NONE).then_some(METHOD_NONE);
    c.write_all(&Choice(pick).encode())?;
    if pick.is_none() {
        return Err(io::ErrorKind::PermissionDenied.into());
    }
    let req = match SocksRequest::read(&mut c) {
        // Not a request of this subset: another version or address type.
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            reply(&mut c, REP_FAIL)?;
            return Err(e);
        }
        req => req?,
    };
    if req.cmd != CMD_CONNECT {
        reply(&mut c, REP_NO_CMD)?;
        return Err(io::ErrorKind::Unsupported.into());
    }
    // Dial on behalf of the client.
    match host.connect(req.target) {
        Ok(upstream) => {
            reply(&mut c, REP_OK)?;
            pump_one_way(client.clone(), upstream.clone(), "c2s");
            pump_one_way(upstream, client, "s2c");
            Ok(())
        }
        Err(e) => {
            reply(&mut c, REP_REFUSED)?;
            Err(e)
        }
    }
}

/// Connect to `target` through the SOCKS5 proxy at `proxy`. Returns the
/// tunneled stream, usable exactly like a direct TCP connection (paper:
/// "the link may then be used exactly like a direct TCP connection").
pub fn socks_connect(host: &SimHost, proxy: SockAddr, target: SockAddr) -> io::Result<TcpStream> {
    let stream = host.connect(proxy)?;
    let mut s = stream.clone();
    s.write_all(&Greeting(vec![METHOD_NONE]).encode())?;
    let rejected = || io::Error::new(io::ErrorKind::PermissionDenied, "socks: method rejected");
    let Choice(Some(METHOD_NONE)) = Choice::read(&mut s)? else {
        return Err(rejected());
    };
    let cmd = CMD_CONNECT;
    s.write_all(&SocksRequest { cmd, target }.encode())?;
    let SocksReply(rep) = SocksReply::read(&mut s)?;
    let why = move || format!("socks: connect failed (rep={rep})");
    let failed = || io::Error::new(io::ErrorKind::ConnectionRefused, why());
    (rep == REP_OK).then_some(stream).ok_or_else(failed)
}
