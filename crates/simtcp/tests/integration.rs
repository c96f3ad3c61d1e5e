//! End-to-end tests of TCP over the simulated network: the transport-level
//! physics that the paper's bandwidth figures are built on.

use gridsim_net::{topology, FirewallPolicy, Ip, LinkParams, NatKind, Sim, SockAddr, Trust};
use gridsim_tcp::{ConnectOpts, SimHost, TcpConfig};
use std::io::{Read, Write};
use std::time::Duration;

/// Transfer `total` bytes from a to b over a fresh sim with the given WAN;
/// returns goodput in bytes/sec of simulated time.
fn measure_bulk(wan: LinkParams, cfg: TcpConfig, total: usize, seed: u64) -> f64 {
    let sim = Sim::new(seed);
    let (a, b) = sim.net().with(|w| topology::wan_pair(w, wan));
    let net = sim.net();
    let ha = SimHost::new(&net, a);
    let hb = SimHost::new(&net, b);
    ha.set_tcp_config(cfg);
    hb.set_tcp_config(cfg);
    let b_ip = hb.ip();

    let recv = sim.spawn("recv", move || {
        let l = hb.listen(7000).unwrap();
        let s = l.accept().unwrap();
        let start = gridsim_net::ctx::now();
        let mut buf = vec![0u8; 64 * 1024];
        let mut got = 0usize;
        loop {
            let n = s.read_some(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            got += n;
        }
        let elapsed = gridsim_net::ctx::now().since(start);
        assert_eq!(got, total);
        got as f64 / elapsed.as_secs_f64()
    });
    sim.spawn("send", move || {
        let s = ha.connect(SockAddr::new(b_ip, 7000)).unwrap();
        let chunk = vec![0xabu8; 64 * 1024];
        let mut left = total;
        while left > 0 {
            let n = chunk.len().min(left);
            (&s).write_all(&chunk[..n]).unwrap();
            left -= n;
        }
        s.shutdown_write().unwrap();
    });
    let h = sim.scheduler().handle();
    let bw = recv;
    sim.run();
    let _ = h;
    // Retrieve the receiver's measurement by re-joining in a tiny task.
    let out = std::sync::Arc::new(parking_lot::Mutex::new(0f64));
    let o2 = out.clone();
    sim.spawn("collect", move || {
        *o2.lock() = bw.join();
    });
    sim.run();
    let x = *out.lock();
    x
}

#[test]
fn lossless_low_bdp_link_is_saturated() {
    // 1.6 MB/s, RTT 30 ms: BDP = 48 KB < 64 KB window; no loss.
    let wan = LinkParams::mbps(1.6, Duration::from_millis(15));
    let bw = measure_bulk(wan, TcpConfig::default(), 4 << 20, 1);
    assert!(
        bw > 1.45e6,
        "should achieve >90% of 1.6 MB/s on a clean low-BDP link, got {:.2} MB/s",
        bw / 1e6
    );
}

#[test]
fn window_cap_limits_high_bdp_link() {
    // 9 MB/s, RTT 43 ms: BDP = 387 KB >> 64 KB window. Window-limited
    // bandwidth = 65536 B / 43 ms = 1.52 MB/s (the paper's "plain TCP"
    // point on the Delft—Sophia link).
    let wan = LinkParams::mbps(9.0, Duration::from_micros(21_500));
    let bw = measure_bulk(wan, TcpConfig::default(), 8 << 20, 2);
    assert!(
        (1.2e6..2.0e6).contains(&bw),
        "expected ~1.5 MB/s window-limited throughput, got {:.2} MB/s",
        bw / 1e6
    );
}

#[test]
fn larger_window_fills_high_bdp_link() {
    // Ablation of the OS window cap: with a 1 MB window the same link
    // saturates (models RFC 1323 window scaling).
    // Queue sized >= window so slow-start overshoot does not overflow it;
    // goodput ceiling is 9 MB/s * 1460/1500 = 8.76 MB/s (header overhead).
    let wan = LinkParams::mbps(9.0, Duration::from_micros(21_500)).with_queue(2 << 20);
    let cfg = TcpConfig {
        send_buf: 1 << 20,
        recv_buf: 1 << 20,
        ..TcpConfig::default()
    };
    let bw = measure_bulk(wan, cfg, 48 << 20, 3);
    assert!(
        bw > 6.5e6,
        "big window should approach the 8.76 MB/s goodput ceiling, got {:.2} MB/s",
        bw / 1e6
    );
}

#[test]
fn loss_degrades_single_stream_throughput() {
    // The Amsterdam—Rennes shape: 1.6 MB/s with 0.4% loss ⇒ well below
    // capacity (the paper measured 56%).
    let wan = LinkParams::mbps(1.6, Duration::from_millis(15)).with_loss(0.004);
    let bw = measure_bulk(wan, TcpConfig::default(), 4 << 20, 4);
    assert!(
        bw < 1.3e6,
        "0.4% loss must keep plain TCP clearly below capacity, got {:.2} MB/s",
        bw / 1e6
    );
    assert!(
        bw > 0.3e6,
        "but the transfer should still make progress, got {:.2} MB/s",
        bw / 1e6
    );
}

#[test]
fn transfer_is_reliable_under_heavy_loss() {
    // Correctness, not throughput: every byte arrives despite 5% loss.
    let sim = Sim::new(99);
    let wan = LinkParams::mbps(2.0, Duration::from_millis(5)).with_loss(0.05);
    let (a, b) = sim.net().with(|w| topology::wan_pair(w, wan));
    let net = sim.net();
    let ha = SimHost::new(&net, a);
    let hb = SimHost::new(&net, b);
    let b_ip = hb.ip();
    let payload: Vec<u8> = (0..300_000u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
        .collect();
    let expect = payload.clone();
    let done = sim.spawn("recv", move || {
        let l = hb.listen(7000).unwrap();
        let mut s = l.accept().unwrap();
        let mut got = Vec::new();
        s.read_to_end(&mut got).unwrap();
        assert_eq!(got.len(), expect.len());
        assert!(got == expect, "payload corrupted in transit");
        true
    });
    sim.spawn("send", move || {
        let mut s = ha.connect(SockAddr::new(b_ip, 7000)).unwrap();
        s.write_all(&payload).unwrap();
        s.shutdown_write().unwrap();
    });
    sim.run();
    assert!(done.is_finished());
}

#[test]
fn connect_to_closed_port_is_refused_quickly() {
    let sim = Sim::new(5);
    let wan = LinkParams::mbps(1.0, Duration::from_millis(10));
    let (a, b) = sim.net().with(|w| topology::wan_pair(w, wan));
    let net = sim.net();
    let ha = SimHost::new(&net, a);
    let hb = SimHost::new(&net, b);
    let b_ip = hb.ip();
    let _keep = hb; // make sure b has a stack but no listener
    let r = sim.spawn("client", move || {
        let start = gridsim_net::ctx::now();
        let e = ha.connect(SockAddr::new(b_ip, 4444)).unwrap_err();
        (e.kind(), gridsim_net::ctx::now().since(start))
    });
    sim.run();
    let out = std::sync::Arc::new(parking_lot::Mutex::new(None));
    let o2 = out.clone();
    sim.spawn("collect", move || {
        *o2.lock() = Some(r.join());
    });
    sim.run();
    let (kind, dur) = out.lock().take().unwrap();
    assert_eq!(kind, std::io::ErrorKind::ConnectionRefused);
    assert!(
        dur < Duration::from_millis(100),
        "RST makes refusal fast, took {dur:?}"
    );
}

/// Build two firewalled sites and return hosts on each plus their public
/// IPs. Both gateways are StatefulOutbound: no unsolicited inbound.
fn two_firewalled_sites(sim: &Sim) -> (SimHost, SimHost, Ip, Ip) {
    let net = sim.net();
    let (a, b) = net.with(|w| {
        let a = w.add_host("a", vec![Ip::new(130, 1, 0, 10)]);
        let gwa = w.add_gateway(
            "gw-a",
            Ip::new(130, 1, 0, 1),
            Ip::new(131, 100, 1, 1),
            FirewallPolicy::StatefulOutbound,
            None,
        );
        let gwb = w.add_gateway(
            "gw-b",
            Ip::new(130, 2, 0, 1),
            Ip::new(131, 100, 2, 1),
            FirewallPolicy::StatefulOutbound,
            None,
        );
        let b = w.add_host("b", vec![Ip::new(130, 2, 0, 10)]);
        let lan = topology::lan_params();
        let wan = LinkParams::mbps(2.0, Duration::from_millis(10));
        let (ia, ga_in) = w.connect_with(a, Trust::Inside, gwa, Trust::Inside, lan, lan);
        let (ga_out, gb_out) = w.connect_with(gwa, Trust::Outside, gwb, Trust::Outside, wan, wan);
        let (gb_in, ib) = w.connect_with(gwb, Trust::Inside, b, Trust::Inside, lan, lan);
        w.default_route(a, ia);
        w.default_route(b, ib);
        w.default_route(gwa, ga_out);
        w.default_route(gwb, gb_out);
        w.route(gwa, Ip::new(130, 1, 0, 0), 24, ga_in);
        w.route(gwb, Ip::new(130, 2, 0, 0), 24, gb_in);
        (a, b)
    });
    let ha = SimHost::new(&net, a);
    let hb = SimHost::new(&net, b);
    let (aip, bip) = (ha.ip(), hb.ip());
    (ha, hb, aip, bip)
}

#[test]
fn client_server_fails_through_double_firewall() {
    // Paper Fig. 2 (left): the SYN is dropped at B's firewall; connect
    // times out after its SYN retries.
    let sim = Sim::new(6);
    let (ha, hb, _aip, bip) = two_firewalled_sites(&sim);
    let _server = sim.spawn("server", move || {
        let l = hb.listen(5000).unwrap();
        // Never reached: accept would block forever, so just hold the
        // listener while the client times out.
        let _ = l;
        gridsim_net::ctx::sleep(Duration::from_secs(40));
    });
    let r = sim.spawn("client", move || {
        let cfg = TcpConfig {
            syn_retries: 2,
            ..TcpConfig::default()
        };
        ha.connect_opts(
            SockAddr::new(bip, 5000),
            ConnectOpts {
                cfg: Some(cfg),
                local_port: None,
            },
        )
        .err()
        .map(|e| e.kind())
    });
    sim.run();
    let out = std::sync::Arc::new(parking_lot::Mutex::new(None));
    let o2 = out.clone();
    sim.spawn("collect", move || {
        *o2.lock() = Some(r.join());
    });
    sim.run();
    assert_eq!(
        out.lock().take().unwrap(),
        Some(std::io::ErrorKind::TimedOut)
    );
}

#[test]
fn splicing_succeeds_through_double_firewall() {
    // Paper Fig. 2 (right): simultaneous SYNs open both stateful firewalls.
    let sim = Sim::new(7);
    let (ha, hb, aip, bip) = two_firewalled_sites(&sim);
    let t1 = sim.spawn("a", move || {
        let s = ha
            .connect_opts(
                SockAddr::new(bip, 6001),
                ConnectOpts {
                    local_port: Some(6000),
                    cfg: None,
                },
            )
            .unwrap();
        (&s).write_all(b"from-a").unwrap();
        let mut buf = [0u8; 6];
        let mut r = &s;
        r.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"from-b");
    });
    let t2 = sim.spawn("b", move || {
        let s = hb
            .connect_opts(
                SockAddr::new(aip, 6000),
                ConnectOpts {
                    local_port: Some(6001),
                    cfg: None,
                },
            )
            .unwrap();
        (&s).write_all(b"from-b").unwrap();
        let mut buf = [0u8; 6];
        let mut r = &s;
        r.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"from-a");
    });
    sim.run();
    assert!(t1.is_finished() && t2.is_finished());
}

#[test]
fn nat_outbound_tcp_works() {
    // A NATted client can open a normal client/server connection outward
    // (paper Table 1: client/server "NAT support: client").
    let sim = Sim::new(8);
    let net = sim.net();
    let (a, b) = net.with(|w| {
        let a = w.add_host("a", vec![Ip::new(192, 168, 1, 10)]);
        let gw = w.add_gateway(
            "nat",
            Ip::new(192, 168, 1, 1),
            Ip::new(131, 9, 0, 1),
            FirewallPolicy::Open,
            Some(NatKind::PortRestricted),
        );
        let b = w.add_host("b", vec![Ip::new(131, 1, 0, 10)]);
        let lan = topology::lan_params();
        let wan = LinkParams::mbps(2.0, Duration::from_millis(10));
        let (ia, g_in) = w.connect_with(a, Trust::Inside, gw, Trust::Inside, lan, lan);
        let (g_out, ib) = w.connect_with(gw, Trust::Outside, b, Trust::Inside, wan, wan);
        w.default_route(a, ia);
        w.default_route(b, ib);
        w.default_route(gw, g_out);
        w.route(gw, Ip::new(192, 168, 1, 0), 24, g_in);
        (a, b)
    });
    let ha = SimHost::new(&net, a);
    let hb = SimHost::new(&net, b);
    let bip = hb.ip();
    let nat_ext = Ip::new(131, 9, 0, 1);
    let srv = sim.spawn("server", move || {
        let l = hb.listen(5000).unwrap();
        let mut s = l.accept().unwrap();
        // The server sees the NAT's external address, not the private one.
        assert_eq!(s.peer_addr().ip, nat_ext);
        let mut buf = [0u8; 4];
        s.read_exact(&mut buf).unwrap();
        s.write_all(&buf).unwrap();
    });
    sim.spawn("client", move || {
        let mut s = ha.connect(SockAddr::new(bip, 5000)).unwrap();
        s.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        s.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
    });
    sim.run();
    assert!(srv.is_finished());
}

#[test]
fn many_parallel_streams_share_one_link_fairly() {
    // 4 concurrent transfers on one 2 MB/s link: aggregate ≈ capacity and
    // no stream starves (sanity for the parallel-streams driver upstairs).
    let sim = Sim::new(9);
    // Queue must hold the 4 streams' aggregate windows minus the BDP, or
    // overflow losses put Reno into a long sawtooth.
    let wan = LinkParams::mbps(2.0, Duration::from_millis(10)).with_queue(512 * 1024);
    let (a, b) = sim.net().with(|w| topology::wan_pair(w, wan));
    let net = sim.net();
    let per_stream = 1 << 20;
    let finished = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
    let results: Vec<_> = (0..4)
        .map(|i| {
            let finished = finished.clone();
            let ha = SimHost::new(&net, a);
            let hb = SimHost::new(&net, b);
            let bip = hb.ip();
            let port = 7100 + i as u16;
            let r = sim.spawn(format!("recv{i}"), move || {
                let l = hb.listen(port).unwrap();
                let s = l.accept().unwrap();
                let mut buf = vec![0u8; 32 * 1024];
                let mut got = 0;
                loop {
                    let n = s.read_some(&mut buf).unwrap();
                    if n == 0 {
                        break;
                    }
                    got += n;
                }
                finished.lock().push(gridsim_net::ctx::now());
                got
            });
            sim.spawn(format!("send{i}"), move || {
                let s = ha.connect(SockAddr::new(bip, port)).unwrap();
                let chunk = vec![1u8; 32 * 1024];
                let mut left = per_stream;
                while left > 0 {
                    let n = chunk.len().min(left);
                    (&s).write_all(&chunk[..n]).unwrap();
                    left -= n;
                }
                s.shutdown_write().unwrap();
            });
            r
        })
        .collect();
    sim.run();
    for r in &results {
        assert!(r.is_finished());
    }
    // Measure to the last received byte: run-until-idle also waits out
    // TIME-WAIT timers, which are not transfer time.
    let last = finished.lock().iter().copied().max().unwrap();
    let aggregate = (4 * per_stream) as f64 / last.as_secs_f64();
    assert!(
        aggregate > 1.6e6,
        "4 streams should keep a 2 MB/s link >80% busy, got {:.2} MB/s",
        aggregate / 1e6
    );
}
