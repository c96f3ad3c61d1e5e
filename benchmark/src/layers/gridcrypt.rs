//! gridcrypt alone: the AEAD the GTLS record layer pays per block, and one
//! GTLS handshake over a LAN connection.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use gridcrypt::aead::KEY_LEN;
use gridcrypt::{open_in_place, seal_in_place, SecureConfig, SecureStream};
use gridsim_net::{topology, Sim, SockAddr};
use gridsim_tcp::{SimHost, TcpStream};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{cpu_ns, Metrics};
use crate::check::{checksum, Content, Payloads};
use crate::workloads::Slot;

const RECORD: usize = 32 * 1024;
const MSG: usize = 256 * 1024;
/// Passes over the 2 MiB payload set (16 MiB each way).
const PASSES: usize = 8;
const HANDSHAKES: u32 = 16;

pub fn run(seed: u64) -> Metrics {
    let data = Payloads::new(seed, MSG, Content::Grid).concat_bodies();
    let want = checksum(&data);
    let key = [7u8; KEY_LEN];
    let nonce_of = |i: usize| {
        let mut n = [0u8; 12];
        n[..8].copy_from_slice(&(i as u64).to_le_bytes());
        n
    };
    let mut buf = data.clone();
    let mut tags = Vec::new();
    let (mut seal_ns, mut open_ns) = (0, 0);
    for _ in 0..PASSES {
        tags.clear();
        seal_ns += cpu_ns(|| {
            for (i, rec) in buf.chunks_mut(RECORD).enumerate() {
                tags.push(seal_in_place(&key, &nonce_of(i), &[], rec));
            }
        })
        .0;
        assert_ne!(checksum(&buf), want, "sealed bytes differ");
        open_ns += cpu_ns(|| {
            for (i, rec) in buf.chunks_mut(RECORD).enumerate() {
                open_in_place(&key, &nonce_of(i), &[], rec, &tags[i]).expect("own tag verifies");
            }
        })
        .0;
        assert_eq!(checksum(&buf), want, "open(seal(x)) == x");
    }
    let total = (PASSES * data.len()) as f64;
    vec![
        ("gridcrypt.seal_ns_per_byte", seal_ns as f64 / total),
        ("gridcrypt.open_ns_per_byte", open_ns as f64 / total),
        ("gridcrypt.handshake_us", handshakes(seed)),
    ]
}

/// Host µs per GTLS handshake (client side + server side), the TCP
/// connections established beforehand.
fn handshakes(seed: u64) -> f64 {
    let sim = Sim::new(seed);
    let net = sim.net();
    let (a, b) = net.with(topology::lan_pair);
    let (a, b) = (SimHost::new(&net, a), SimHost::new(&net, b));
    let dst = SockAddr::new(b.ip(), 7000);
    let accepted: Slot<Vec<TcpStream>> = Slot::default();
    let dialed: Slot<Vec<TcpStream>> = Slot::default();
    let slot = accepted.clone();
    sim.spawn("accept", move || {
        let l = b.listen(7000).expect("listens");
        slot.put(
            (0..HANDSHAKES)
                .map(|_| l.accept().expect("accepts"))
                .collect(),
        );
    });
    let slot = dialed.clone();
    sim.spawn("dial", move || {
        slot.put(
            (0..HANDSHAKES)
                .map(|_| a.connect(dst).expect("connects"))
                .collect(),
        );
    });
    sim.run();

    let cfg = SecureConfig::new(b"gridbench-psk".to_vec());
    let done = Arc::new(AtomicU32::new(0));
    for (side, conns) in [("server", accepted.take()), ("client", dialed.take())] {
        let (cfg, done) = (cfg.clone(), Arc::clone(&done));
        sim.spawn(side, move || {
            let mut rng = StdRng::seed_from_u64(seed ^ side.len() as u64);
            for conn in conns {
                let r = if side == "server" {
                    SecureStream::server(conn, &cfg, &mut rng)
                } else {
                    SecureStream::client(conn, &cfg, &mut rng)
                };
                r.expect("handshake completes");
                done.fetch_add(1, Ordering::Relaxed);
            }
        });
    }
    let (ns, _) = cpu_ns(|| sim.run());
    assert_eq!(done.load(Ordering::Relaxed), 2 * HANDSHAKES);
    ns as f64 / 1e3 / HANDSHAKES as f64
}
