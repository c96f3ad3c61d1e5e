//! simtcp alone: the bare `Tcb` with no simulator under it (the ceiling),
//! then a `TcpStream` over the `bulk_plain` world with no netgrid above it,
//! at both socket-buffer sizes.

use std::sync::Arc;

use bytes::Bytes;
use gridsim_net::{Ip, Sim, SimTime, SockAddr};
use gridsim_tcp::tcb::{ReadOutcome, Tcb, WriteOutcome};
use gridsim_tcp::TcpConfig;
use netgrid::CpuRates;
use parking_lot::Mutex;

use super::{cpu_ns, Metrics};
use crate::check::{Content, Payloads, HEADER};
use crate::worlds::{self, SiteKind};

const TCB_BYTES: usize = 256 << 20;
const MSG: usize = 256 * 1024;
/// Messages through the 64 KiB-buffer stream (64 MiB) and the 1 MiB one
/// (16 MiB; that regime is several times slower per byte).
const STREAM_MSGS: usize = 256;
const BIGWIN_MSGS: usize = 64;
const T0: SimTime = SimTime(0);

pub fn run(seed: u64) -> Metrics {
    let (tcb_ns, moved) = cpu_ns(tcb_pump);
    assert_eq!(moved, TCB_BYTES);
    vec![
        ("simtcp.tcb_ns_per_byte", tcb_ns as f64 / TCB_BYTES as f64),
        (
            "simtcp.stream_ns_per_byte",
            stream(seed, 64 * 1024, STREAM_MSGS),
        ),
        (
            "simtcp.stream_bigwin_ns_per_byte",
            stream(seed, 1 << 20, BIGWIN_MSGS),
        ),
    ]
}

/// App bytes in, segments straight across, app bytes out.
fn tcb_pump() -> usize {
    let cfg = TcpConfig {
        send_buf: 256 * 1024,
        recv_buf: 256 * 1024,
        nodelay: true,
        ..TcpConfig::default()
    };
    let la = SockAddr::new(Ip::new(1, 0, 0, 1), 1000);
    let ra = SockAddr::new(Ip::new(2, 0, 0, 1), 2000);
    let mut a = Tcb::client(cfg, la, ra, 1, T0);
    let syn = a.take_out().remove(0);
    let mut b = Tcb::server(cfg, ra, la, 2, &syn, T0);
    let exchange = |a: &mut Tcb, b: &mut Tcb| {
        let (out_a, out_b) = (a.take_out(), b.take_out());
        let idle = out_a.is_empty() && out_b.is_empty();
        out_a.into_iter().for_each(|s| b.on_segment(T0, s));
        out_b.into_iter().for_each(|s| a.on_segment(T0, s));
        !idle
    };
    while exchange(&mut a, &mut b) {}
    assert!(a.is_established() && b.is_established());
    let chunk = vec![0xabu8; 64 * 1024];
    let mut sink = vec![0u8; 64 * 1024];
    let (mut sent, mut rcvd) = (0, 0);
    while rcvd < TCB_BYTES {
        if sent < TCB_BYTES {
            let want = chunk.len().min(TCB_BYTES - sent);
            if let WriteOutcome::Wrote(n) = a.try_write(T0, &chunk[..want]).expect("open") {
                sent += n;
            }
        }
        exchange(&mut a, &mut b);
        while let ReadOutcome::Read(n) = b.try_read(T0, &mut sink).expect("open") {
            rcvd += n;
        }
    }
    rcvd
}

/// Host ns per byte of `msgs` whole-block writes and exact-length chunk
/// reads over one connection between the two sites.
fn stream(seed: u64, window: u32, msgs: usize) -> f64 {
    let sim = Sim::new(seed);
    let world = worlds::two_sites(
        &sim,
        worlds::CLEAN_FAST,
        SiteKind::Open,
        window,
        CpuRates::unlimited(),
    );
    let payloads = Payloads::new(seed, MSG + HEADER, Content::Random);
    let block = Bytes::from(payloads.concat_bodies()).slice(..MSG);
    let dst = SockAddr::new(world.b.ip(), 5000);
    let received = Arc::new(Mutex::new((0usize, true)));
    let (b, got, expect) = (world.b, Arc::clone(&received), block.clone());
    sim.spawn("server", move || {
        let conn = b.listen(5000).expect("listens").accept().expect("accepts");
        let mut chunks = Vec::new();
        // The stream is `block` over and over: compare as it arrives.
        let (mut total, mut intact) = (0usize, true);
        while total < msgs * MSG {
            let want = MSG - total % MSG;
            let n = conn
                .read_chunks_min(want, 64 * 1024, &mut chunks)
                .expect("reads");
            if n == 0 {
                break;
            }
            for c in chunks.drain(..) {
                let mut c = &c[..];
                while !c.is_empty() {
                    let at = total % MSG;
                    let take = c.len().min(MSG - at);
                    intact &= c[..take] == expect[at..at + take];
                    total += take;
                    c = &c[take..];
                }
            }
        }
        *got.lock() = (total, intact);
    });
    let a = world.a;
    sim.spawn("client", move || {
        let conn = a.connect(dst).expect("connects");
        for _ in 0..msgs {
            conn.write_block(block.clone()).expect("writes");
        }
        conn.drain().expect("drains");
    });
    let (ns, _) = cpu_ns(|| sim.run());
    let (bytes, intact) = *received.lock();
    assert_eq!(bytes, msgs * MSG, "every byte arrives");
    assert!(intact, "every block arrives intact");
    ns as f64 / bytes as f64
}
