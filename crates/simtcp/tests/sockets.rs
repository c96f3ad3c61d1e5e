//! Socket-lifecycle edge cases: listener backlog, port conflicts, listener
//! teardown, and connection reuse after TIME-WAIT.

use gridsim_net::{topology, LinkParams, Sim, SockAddr};
use gridsim_tcp::{crash_node, ConnectOpts, SimHost, TcpConfig};
use parking_lot::Mutex;
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

fn pair(sim: &Sim) -> (SimHost, SimHost) {
    let wan = LinkParams::mbps(4.0, Duration::from_millis(2));
    let (a, b) = sim.net().with(|w| topology::wan_pair(w, wan));
    let net = sim.net();
    (SimHost::new(&net, a), SimHost::new(&net, b))
}

#[test]
fn two_listeners_same_port_rejected() {
    let sim = Sim::new(80);
    let (_ha, hb) = pair(&sim);
    let done = sim.spawn("t", move || {
        let _l1 = hb.listen(5000).unwrap();
        assert_eq!(
            hb.listen(5000).unwrap_err().kind(),
            std::io::ErrorKind::AddrInUse
        );
    });
    sim.run();
    assert!(done.is_finished());
}

#[test]
fn dropping_listener_refuses_new_connections() {
    let sim = Sim::new(81);
    let (ha, hb) = pair(&sim);
    let b_ip = hb.ip();
    let done = sim.spawn("t", move || {
        {
            let l = hb.listen(5000).unwrap();
            // While listening: a connection succeeds.
            let c = ha.connect(SockAddr::new(b_ip, 5000)).unwrap();
            let s = l.accept().unwrap();
            drop((c, s));
        }
        // Listener dropped: now the port answers RST.
        gridsim_net::ctx::sleep(Duration::from_secs(2)); // let TIME_WAIT pass
        let err = ha.connect(SockAddr::new(b_ip, 5000)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
    });
    sim.run();
    assert!(done.is_finished());
}

#[test]
fn backlog_overflow_clients_eventually_connect() {
    let sim = Sim::new(82);
    let net = sim.net();
    let wan = LinkParams::mbps(4.0, Duration::from_millis(2));
    let (a, b) = net.with(|w| topology::wan_pair(w, wan));
    let ha = SimHost::new(&net, a);
    let hb = SimHost::new(&net, b);
    let b_ip = hb.ip();
    let served = Arc::new(Mutex::new(0u32));
    const CLIENTS: u32 = 12;
    {
        let served = Arc::clone(&served);
        sim.spawn("server", move || {
            // Tiny backlog is set inside the stack (64 default); emulate a
            // slow accept loop instead: backlog pressure comes from accept
            // latency.
            let l = hb.listen(5000).unwrap();
            for _ in 0..CLIENTS {
                let s = l.accept().unwrap();
                gridsim_net::ctx::sleep(Duration::from_millis(20));
                (&s).write_all(b"k").unwrap();
                *served.lock() += 1;
            }
        });
    }
    for i in 0..CLIENTS {
        let ha = ha.clone();
        sim.spawn(format!("client{i}"), move || {
            let s = ha.connect(SockAddr::new(b_ip, 5000)).unwrap();
            let mut buf = [0u8; 1];
            let mut r = &s;
            r.read_exact(&mut buf).unwrap();
            assert_eq!(buf[0], b'k');
        });
    }
    sim.run();
    assert_eq!(*served.lock(), CLIENTS);
}

#[test]
fn same_four_tuple_reusable_after_close() {
    // Connect from a fixed local port, close fully, reconnect from the
    // same port to the same destination: must work once TIME_WAIT expired.
    let sim = Sim::new(83);
    let (ha, hb) = pair(&sim);
    let b_ip = hb.ip();
    let done = sim.spawn("t", move || {
        let l = hb.listen(5000).unwrap();
        let acceptor = gridsim_net::ctx::handle().spawn_daemon("acc", move || loop {
            let Ok(s) = l.accept() else { break };
            let mut buf = [0u8; 1];
            let mut r = &s;
            if r.read_exact(&mut buf).is_err() {
                break;
            }
        });
        for round in 0..3 {
            let s = ha
                .connect_opts(
                    SockAddr::new(b_ip, 5000),
                    ConnectOpts {
                        local_port: Some(9000),
                        cfg: None,
                    },
                )
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
            (&s).write_all(b"x").unwrap();
            drop(s);
            // Wait out TIME_WAIT (500 ms in the sim config) so the tuple
            // frees up.
            gridsim_net::ctx::sleep(Duration::from_secs(2));
        }
        drop(acceptor);
    });
    sim.run();
    assert!(done.is_finished());
}

#[test]
fn concurrent_connections_between_same_hosts_are_isolated() {
    let sim = Sim::new(84);
    let (ha, hb) = pair(&sim);
    let b_ip = hb.ip();
    let sums = Arc::new(Mutex::new(Vec::new()));
    {
        let hb = hb.clone();
        sim.spawn("server", move || {
            let l = hb.listen(5000).unwrap();
            for _ in 0..4 {
                let s = l.accept().unwrap();
                gridsim_net::ctx::handle().spawn_daemon("conn", move || {
                    let mut buf = vec![0u8; 4096];
                    let mut sum = 0u64;
                    loop {
                        match s.read_some(&mut buf) {
                            Ok(0) | Err(_) => break,
                            Ok(n) => sum += buf[..n].iter().map(|&b| b as u64).sum::<u64>(),
                        }
                    }
                    // Echo the checksum back.
                    let _ = (&s).write_all(&sum.to_le_bytes());
                });
            }
        });
    }
    for i in 0u8..4 {
        let ha = ha.clone();
        let sums = Arc::clone(&sums);
        sim.spawn(format!("client{i}"), move || {
            let s = ha.connect(SockAddr::new(b_ip, 5000)).unwrap();
            let payload = vec![i + 1; 10_000];
            (&s).write_all(&payload).unwrap();
            s.shutdown_write().unwrap();
            let mut buf = [0u8; 8];
            let mut r = &s;
            r.read_exact(&mut buf).unwrap();
            sums.lock().push((i, u64::from_le_bytes(buf)));
        });
    }
    sim.run();
    let mut got = sums.lock().clone();
    got.sort();
    let expect: Vec<(u8, u64)> = (0u8..4).map(|i| (i, (i as u64 + 1) * 10_000)).collect();
    assert_eq!(got, expect);
}

/// The server host of three connections crashes while a reader is parked
/// on each; returns the order in which the readers saw the reset.
fn crash_wake_order() -> Vec<usize> {
    let sim = Sim::new(85);
    let (ha, hb) = pair(&sim);
    let b = SockAddr::new(hb.ip(), 5000);
    let server = hb.node();
    let order = Arc::new(Mutex::new(Vec::new()));
    let o2 = Arc::clone(&order);
    sim.spawn("server", move || {
        let l = hb.listen(5000).unwrap();
        let clients: Vec<_> = (0..3).map(|_| ha.connect(b).unwrap()).collect();
        let streams: Vec<_> = (0..3).map(|_| l.accept().unwrap()).collect();
        // Spawned last-accepted first, so spawn order is not wake order.
        for (i, s) in streams.into_iter().enumerate().rev() {
            let order = Arc::clone(&o2);
            gridsim_net::ctx::handle().spawn(format!("reader{i}"), move || {
                // The crashed stack is gone: the woken read finds no
                // connection.
                assert!(s.read_some(&mut [0u8; 16]).is_err());
                order.lock().push(i);
            });
        }
        gridsim_net::ctx::sleep(Duration::from_millis(50));
        ha.net().with(|w| crash_node(w, server));
        gridsim_net::ctx::sleep(Duration::from_millis(50));
        drop(clients);
    });
    sim.run();
    let order = order.lock().clone();
    order
}

#[test]
fn a_crash_wakes_parked_readers_in_connection_order_on_every_run() {
    let first = crash_wake_order();
    assert_eq!(first, [0, 1, 2]);
    assert_eq!(crash_wake_order(), first);
}

#[test]
fn udp_datagrams_roundtrip_and_unreliable() {
    let sim = Sim::new(85);
    let net = sim.net();
    let wan = LinkParams::mbps(4.0, Duration::from_millis(2)).with_loss(0.3);
    let (a, b) = net.with(|w| topology::wan_pair(w, wan));
    let ha = SimHost::new(&net, a);
    let hb = SimHost::new(&net, b);
    let b_ip = hb.ip();
    let received = Arc::new(Mutex::new(0u32));
    {
        let received = Arc::clone(&received);
        sim.spawn("recv", move || {
            let sock = hb.udp_bind(4000).unwrap();
            // Count what arrives within a window.
            gridsim_net::ctx::handle().spawn_daemon("drain", move || loop {
                if sock.recv_from().is_err() {
                    break;
                }
                *received.lock() += 1;
            });
        });
    }
    sim.spawn("send", move || {
        let sock = ha.udp_bind(4001).unwrap();
        for i in 0..100u32 {
            sock.send_to(&i.to_le_bytes(), SockAddr::new(b_ip, 4000))
                .unwrap();
        }
        gridsim_net::ctx::sleep(Duration::from_secs(1));
    });
    sim.run();
    let got = *received.lock();
    assert!(
        got > 40 && got < 95,
        "30% loss: expected ~70 of 100, got {got}"
    );
}

#[test]
fn config_is_per_connection_snapshot() {
    // Changing the host default config must not retroactively affect
    // existing connections.
    let sim = Sim::new(86);
    let (ha, hb) = pair(&sim);
    let b_ip = hb.ip();
    let done = sim.spawn("t", move || {
        let _l = hb.listen(5000).unwrap();
        let s1 = ha.connect(SockAddr::new(b_ip, 5000)).unwrap();
        ha.set_tcp_config(TcpConfig {
            nodelay: true,
            ..TcpConfig::default()
        });
        let s2 = ha.connect(SockAddr::new(b_ip, 5000)).unwrap();
        // s1 snapshot: Nagle on; s2: nodelay. Four rapid small writes:
        // Nagle coalesces writes 2..4 into one segment once the first is
        // ACKed; nodelay emits four.
        for s in [&s1, &s2] {
            for b in [b"a", b"b", b"c", b"d"] {
                s.write_some(b).unwrap();
            }
        }
        gridsim_net::ctx::sleep(Duration::from_millis(200));
        let seg1 = s1.stats().unwrap().segs_sent;
        let seg2 = s2.stats().unwrap().segs_sent;
        assert!(
            seg2 > seg1,
            "nodelay sends more, smaller segments: {seg1} vs {seg2}"
        );
    });
    sim.run();
    assert!(done.is_finished());
}
