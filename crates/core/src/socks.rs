//! SOCKS5 (RFC 1928) — the paper's "TCP proxy" establishment method (§3.3).
//!
//! Implements the CONNECT subset over simulated TCP: a proxy server meant
//! to run on a site gateway host (visible from both sides of the firewall)
//! and a client-side dialer. No authentication method beyond "none" — site
//! proxies of the paper's era gated access by network position.

use gridsim_net::{Ip, SchedHandle, SockAddr};
use gridsim_tcp::{SimHost, TcpStream};
use std::io::{self, Read, Write};

const VER: u8 = 5;
const METHOD_NONE: u8 = 0;
const CMD_CONNECT: u8 = 1;
const ATYP_V4: u8 = 1;

const REP_OK: u8 = 0;
const REP_FAIL: u8 = 1;
const REP_REFUSED: u8 = 5;

/// Move bytes one way until EOF, then propagate the EOF: received chunks
/// go into the other socket's send queue as they are, by refcount.
fn pump_one_way(sched: &SchedHandle, from: TcpStream, to: TcpStream, label: &'static str) {
    sched.spawn_daemon(format!("socks-pump-{label}"), move || {
        let mut chunks = Vec::new();
        'pump: while matches!(from.read_chunks_min(1, 64 * 1024, &mut chunks), Ok(1..)) {
            for chunk in chunks.drain(..) {
                if to.write_block(chunk).is_err() {
                    break 'pump;
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
    let sched2 = sched.clone();
    sched.spawn_daemon(format!("socks-proxy-{}", host.ip()), move || loop {
        let Ok(client) = listener.accept() else { break };
        let host = host.clone();
        let sched3 = sched2.clone();
        sched2.spawn_daemon("socks-conn", move || {
            let _ = serve_one(&sched3, &host, client);
        });
    });
    Ok(())
}

fn serve_one(sched: &SchedHandle, host: &SimHost, client: TcpStream) -> io::Result<()> {
    let mut c = client.clone();
    // Greeting.
    let mut hdr = [0u8; 2];
    c.read_exact(&mut hdr)?;
    if hdr[0] != VER {
        return Err(io::ErrorKind::InvalidData.into());
    }
    let mut methods = vec![0u8; hdr[1] as usize];
    c.read_exact(&mut methods)?;
    if !methods.contains(&METHOD_NONE) {
        c.write_all(&[VER, 0xff])?;
        return Err(io::ErrorKind::PermissionDenied.into());
    }
    c.write_all(&[VER, METHOD_NONE])?;
    // Request.
    let mut req = [0u8; 4];
    c.read_exact(&mut req)?;
    if req[0] != VER || req[3] != ATYP_V4 {
        reply(&mut c, REP_FAIL)?;
        return Err(io::ErrorKind::InvalidData.into());
    }
    if req[1] != CMD_CONNECT {
        reply(&mut c, 7)?; // command not supported
        return Err(io::ErrorKind::Unsupported.into());
    }
    let mut addr = [0u8; 6];
    c.read_exact(&mut addr)?;
    let ip = Ip(u32::from_be_bytes([addr[0], addr[1], addr[2], addr[3]]));
    let port = u16::from_be_bytes([addr[4], addr[5]]);
    let target = SockAddr::new(ip, port);
    // Dial on behalf of the client.
    match host.connect(target) {
        Ok(upstream) => {
            reply(&mut c, REP_OK)?;
            pump_one_way(sched, client.clone(), upstream.clone(), "c2s");
            pump_one_way(sched, upstream, client, "s2c");
            Ok(())
        }
        Err(e) => {
            reply(&mut c, REP_REFUSED)?;
            Err(e)
        }
    }
}

fn reply(c: &mut TcpStream, rep: u8) -> io::Result<()> {
    // BND.ADDR/PORT are not meaningful for CONNECT in this subset; zeros.
    c.write_all(&[VER, rep, 0, ATYP_V4, 0, 0, 0, 0, 0, 0])
}

/// Connect to `target` through the SOCKS5 proxy at `proxy`. Returns the
/// tunneled stream, usable exactly like a direct TCP connection (paper:
/// "the link may then be used exactly like a direct TCP connection").
pub fn socks_connect(host: &SimHost, proxy: SockAddr, target: SockAddr) -> io::Result<TcpStream> {
    let stream = host.connect(proxy)?;
    let mut s = stream.clone();
    s.write_all(&[VER, 1, METHOD_NONE])?;
    let mut resp = [0u8; 2];
    s.read_exact(&mut resp)?;
    if resp != [VER, METHOD_NONE] {
        return Err(io::Error::new(
            io::ErrorKind::PermissionDenied,
            "socks: method rejected",
        ));
    }
    let mut req = Vec::with_capacity(10);
    req.extend_from_slice(&[VER, CMD_CONNECT, 0, ATYP_V4]);
    req.extend_from_slice(&target.ip.0.to_be_bytes());
    req.extend_from_slice(&target.port.to_be_bytes());
    s.write_all(&req)?;
    let mut rep = [0u8; 10];
    s.read_exact(&mut rep)?;
    if rep[1] != REP_OK {
        return Err(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            format!("socks: connect failed (rep={})", rep[1]),
        ));
    }
    Ok(stream)
}
