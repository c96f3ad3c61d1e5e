//! Component tests of the grid services over the simulator: name service,
//! relay, and SOCKS proxy, exercised directly (below the GridNode layer).

use gridsim_net::ctx::block_on;
use gridsim_net::{topology, Ip, LinkParams, Sim, SockAddr, Trust, GRANTS, STACKS};
use gridsim_tcp::SimHost;
use netgrid::relay::{RelayClient, RelayDelegate, RoutedStream, SvcReply};
use netgrid::{
    socks_connect, spawn_name_service, spawn_proxy, spawn_relay, ConnectivityProfile, NsClient,
};
use parking_lot::Mutex;
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

/// Three public hosts on a star: a, b, and a services host.
fn star(sim: &Sim) -> (SimHost, SimHost, SimHost) {
    let net = sim.net();
    let (a, b, s) = net.with(|w| {
        let r = w.add_gateway(
            "hub",
            Ip::new(131, 0, 0, 1),
            Ip::new(131, 0, 0, 1),
            gridsim_net::FirewallPolicy::Open,
            None,
        );
        let mk = |w: &mut gridsim_net::World, name: &str, ip: Ip, r| {
            let h = w.add_host(name, vec![ip]);
            let p = LinkParams::mbps(4.0, Duration::from_millis(2));
            let (hi, ri) = w.connect_with(h, Trust::Inside, r, Trust::Inside, p, p);
            w.default_route(h, hi);
            w.route(r, ip, 32, ri);
            h
        };
        let a = mk(w, "a", Ip::new(131, 1, 0, 10), r);
        let b = mk(w, "b", Ip::new(131, 2, 0, 10), r);
        let s = mk(w, "s", Ip::new(131, 3, 0, 10), r);
        (a, b, s)
    });
    (
        SimHost::new(&net, a),
        SimHost::new(&net, b),
        SimHost::new(&net, s),
    )
}

#[test]
fn name_service_crud() {
    let sim = Sim::new(70);
    let (ha, _hb, hs) = star(&sim);
    let ns_addr = SockAddr::new(hs.ip(), 563);
    sim.spawn("ns", move || spawn_name_service(&hs, 563).unwrap());
    sim.run();
    let done = sim.spawn("client", move || {
        let ns = NsClient::new(ha.clone(), ns_addr, None);
        let id = ns
            .register("node-a", &ConnectivityProfile::open(), &[])
            .unwrap();
        assert!(id > 0);
        // Port registration + lookup.
        let listen = SockAddr::new(ha.ip(), 20000);
        ns.register_port(id, "my-port", Some(listen), b"specbytes")
            .unwrap();
        let (rec, profile, name) = ns.lookup_port("my-port").unwrap();
        assert_eq!(rec.owner, id);
        assert_eq!(rec.listener, Some(listen));
        assert_eq!(rec.stack, b"specbytes");
        assert_eq!(profile, ConnectivityProfile::open());
        assert_eq!(name, "node-a");
        // Duplicate port name rejected.
        assert!(ns.register_port(id, "my-port", None, b"").is_err());
        // Listing.
        assert_eq!(ns.list_ports().unwrap(), vec!["my-port".to_string()]);
        // Node lookup.
        let rec = ns.lookup_node(id).unwrap();
        assert_eq!(rec.name, "node-a");
        assert!(rec.relays.is_empty());
        // Unregister.
        ns.unregister_port("my-port").unwrap();
        assert!(ns.lookup_port("my-port").is_err());
        // Unknown lookups fail cleanly.
        assert!(ns.lookup_port("nope").is_err());
        assert!(ns.lookup_node(999).is_err());
        // Observed address: no NAT here, so it is our own.
        let obs = block_on(ns.probe_observed(None, false)).unwrap();
        assert_eq!(obs.ip, ha.ip());
    });
    sim.run();
    assert!(done.is_finished());
}

/// Requests from concurrent tasks share one link and each gets its own
/// reply, including when a task that just got its reply issues the next
/// request and takes the reply lock ahead of the waiters it woke: it then
/// reads their replies first and must leave them to their owners.
#[test]
fn pipelined_replies_reach_their_own_requests() {
    let sim = Sim::new(75);
    let (ha, _hb, hs) = star(&sim);
    let ns_addr = SockAddr::new(hs.ip(), 563);
    sim.spawn("ns", move || spawn_name_service(&hs, 563).unwrap());
    sim.run();
    let ns = NsClient::new(ha.clone(), ns_addr, None);
    let setup = {
        let ns = ns.clone();
        sim.spawn("setup", move || {
            let id = ns
                .register("node-a", &ConnectivityProfile::open(), &[])
                .unwrap();
            for p in 0..3u16 {
                let listener = SockAddr::new(ha.ip(), 20_000 + p);
                ns.register_port(id, &format!("port-{p}"), Some(listener), b"")
                    .unwrap();
            }
        })
    };
    sim.run();
    assert!(setup.is_finished());
    let tasks: Vec<_> = (0..3u16)
        .map(|p| {
            let ns = ns.clone();
            sim.spawn(format!("lookup-{p}"), move || {
                for _ in 0..4 {
                    let (rec, _, _) = ns.lookup_port(&format!("port-{p}")).unwrap();
                    assert_eq!(rec.listener.map(|l| l.port), Some(20_000 + p));
                }
            })
        })
        .collect();
    sim.run();
    assert!(tasks.iter().all(|t| t.is_finished()));
}

/// Hostile request bodies as the server's connection reader reads them. A raw client sends,
/// each on a connection of its own, for every opcode with a body a
/// truncated and a damaged one (damaged so that it cannot decode as some
/// other valid request), then an unknown opcode, an empty frame and a
/// header declaring more than `MAX_FRAME`. Each ends in the server closing
/// that connection or answering an error; none registers anything or
/// takes the server down: a node's persistent link answers lookups
/// between every two of them, on the one connection it dialed.
#[test]
fn hostile_requests_end_their_own_connection_only() {
    use netgrid::nameservice::{NodeRecord, PortRecord};
    use netgrid::wire::{FrameStream, FrameWriter, Put, MAX_FRAME};
    let sim = Sim::new(74);
    let (ha, hb, hs) = star(&sim);
    let ns_addr = SockAddr::new(hs.ip(), 563);
    sim.spawn("ns", move || spawn_name_service(&hs, 563).unwrap());
    sim.run();
    let done = sim.spawn("client", move || {
        let ns = NsClient::new(ha.clone(), ns_addr, None);
        let id = ns
            .register("node-a", &ConnectivityProfile::open(), &[])
            .unwrap();
        ns.register_port(id, "good", None, b"spec").unwrap();
        let link_port = ha.net().with(|w| {
            gridsim_tcp::stack::with_host(w, ha.node(), |h, _| {
                let mut ports = h.conns.values().map(|tcb| tcb.local.port);
                let port = ports.next();
                assert!(ports.next().is_none(), "one connection: the link");
                port
            })
        });

        // Request frames: opcode, then body. Opcodes are the protocol's
        // (`NsRequest`'s table in `wire/ns.rs`).
        let frame = |op: u8, body: &[u8]| {
            let mut f = Vec::new();
            gridzip::varint::put(&mut f, 1 + body.len() as u64);
            f.push(op);
            f.extend_from_slice(body);
            f
        };
        let node = NodeRecord {
            name: "evil".into(),
            profile: ConnectivityProfile::open(),
            relays: Vec::new(),
        };
        let node = node.encode().into_bytes();
        let port = PortRecord {
            owner: id,
            name: "evil".into(),
            listener: None,
            stack: Vec::new(),
        };
        let port = port.encode().into_bytes();
        let bad_utf8 = FrameWriter::new().bytes(&[0xff, 0xfe]).into_bytes();
        let mut bad_tag = FrameWriter::new().u64(id).str("evil").into_bytes();
        bad_tag.push(7); // neither "no listener" (0) nor "listener" (1)
        let wide_ip = FrameWriter::new().u64(1 << 32).u64(80).into_bytes();
        let mut hostile = vec![
            frame(1, &node[..node.len() / 2]), // REGISTER, truncated
            frame(1, &bad_utf8),               // REGISTER, name not UTF-8
            frame(2, &port[..port.len() - 2]), // REGISTER_PORT, truncated
            frame(2, &bad_tag),                // REGISTER_PORT, bad option tag
            frame(3, &[5, b'g']),              // LOOKUP_PORT, truncated name
            frame(3, &bad_utf8),               // LOOKUP_PORT, name not UTF-8
            frame(4, &[]),                     // LOOKUP_NODE, no id
            frame(4, &[0xff; 11]),             // LOOKUP_NODE, overlong varint
            frame(7, &[9, b'g', b'o']),        // UNREGISTER_PORT, truncated
            frame(7, &bad_utf8),               // UNREGISTER_PORT, not UTF-8
            frame(8, &wide_ip[..1]),           // CONNECT_BACK, truncated
            frame(8, &wide_ip),                // CONNECT_BACK, 33-bit IP
            frame(99, b"whatever"),            // unknown opcode
            vec![0],                           // no opcode at all
        ];
        let mut oversize = Vec::new();
        gridzip::varint::put(&mut oversize, MAX_FRAME as u64 + 1);
        hostile.push(oversize);

        for (i, bytes) in hostile.into_iter().enumerate() {
            let raw = hb.connect(ns_addr).unwrap();
            (&raw).write_all(&bytes).unwrap();
            // An error reply, or the server closed the connection.
            if let Ok(reply) = FrameStream::new(raw.clone()).next_frame() {
                assert_eq!(reply.first(), Some(&0), "case {i} answered {reply:?}");
            }
            let (rec, _, owner) = ns.lookup_port("good").unwrap();
            assert_eq!((rec.owner, owner.as_str()), (id, "node-a"), "case {i}");
        }

        // Nothing registered, nothing unregistered.
        assert_eq!(ns.list_ports().unwrap(), vec!["good".to_string()]);
        assert!(ns.lookup_node(id + 1).is_err());
        // Every answer came over the link the first request dialed.
        let still = ha.net().with(|w| {
            gridsim_tcp::stack::with_host(w, ha.node(), |h, _| {
                h.conns
                    .values()
                    .map(|tcb| tcb.local.port)
                    .collect::<Vec<_>>()
            })
        });
        assert_eq!(still, Vec::from_iter(link_port));
    });
    sim.run();
    assert!(done.is_finished());
}

/// A name server that answers one request with two frames, in one write.
/// The stray frame is never delivered: the link it arrived on dies, and
/// the next lookup gets its own record over a fresh connection — not the
/// stray, and not one request late for the rest of the link's life.
#[test]
fn a_stray_reply_kills_the_link_instead_of_answering_the_next_request() {
    use netgrid::nameservice::PortRecord;
    use netgrid::wire::{FrameStream, NsRequest, Put, Reply, Wire};
    let sim = Sim::new(76);
    let (ha, _hb, hs) = star(&sim);
    let ns_addr = SockAddr::new(hs.ip(), 563);
    // A LOOKUP_PORT reply (`nameservice.rs`) for a port owned by `owner`,
    // length prefix included.
    let reply = |owner: u64| {
        let rec = PortRecord {
            owner,
            name: "owner".into(),
            listener: None,
            stack: Vec::new(),
        };
        let body = Reply::Ok((rec, ConnectivityProfile::open())).encode();
        let body = body.into_bytes();
        let mut f = Vec::new();
        gridzip::varint::put(&mut f, body.len() as u64);
        f.extend_from_slice(&body);
        f
    };
    let accepted = Arc::new(Mutex::new(0));
    let acc = Arc::clone(&accepted);
    sim.spawn("hostile-ns", move || {
        let listener = hs.listen(563).unwrap();
        gridsim_net::ctx::handle().spawn_daemon("accept", move || loop {
            let Ok(conn) = listener.accept() else { break };
            *acc.lock() += 1;
            let mut stray = *acc.lock() == 1;
            gridsim_net::ctx::handle().spawn_daemon("conn", move || {
                let mut requests = FrameStream::new(conn.clone());
                while let Ok(req) = requests.next_frame() {
                    let Ok(NsRequest::LookupPort { name }) = NsRequest::decode(&req) else {
                        panic!("not a LOOKUP_PORT");
                    };
                    let mut out = reply(name.trim_start_matches("port-").parse().unwrap());
                    if std::mem::take(&mut stray) {
                        out.extend(reply(999));
                    }
                    if (&conn).write_all(&out).is_err() {
                        break;
                    }
                }
            });
        });
    });
    sim.run();
    let done = sim.spawn("client", move || {
        let ns = NsClient::new(ha, ns_addr, None);
        for p in 1..=3 {
            let (rec, _, _) = ns.lookup_port(&format!("port-{p}")).unwrap();
            assert_eq!(rec.owner, p, "lookup {p} got another request's reply");
        }
    });
    sim.run();
    assert!(done.is_finished());
    assert_eq!(*accepted.lock(), 2, "the stray's link was not replaced");
}

struct EchoDelegate;

impl RelayDelegate for EchoDelegate {
    fn on_service_request<'a>(&'a self, _from: u64, payload: &'a [u8]) -> SvcReply<'a> {
        let mut v = payload.to_vec();
        v.reverse();
        Box::pin(std::future::ready(v))
    }
    fn on_open(
        &self,
        _from: u64,
        port_name: &str,
        _channel: u64,
        stream: RoutedStream,
    ) -> Result<(), String> {
        if port_name != "echo" {
            return Err(format!("unknown port {port_name}"));
        }
        // Echo everything back, then close.
        gridsim_net::ctx::handle().spawn_daemon("echo-pump", move || {
            let mut s = stream.clone();
            let mut buf = [0u8; 4096];
            loop {
                match s.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        let mut w = stream.clone();
                        if w.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                }
            }
            let _ = stream.shutdown_write();
        });
        Ok(())
    }
}

#[test]
fn relay_service_requests_and_routed_streams() {
    let sim = Sim::new(71);
    let (ha, hb, hs) = star(&sim);
    let relay_addr = SockAddr::new(hs.ip(), 600);
    sim.spawn("relay", move || spawn_relay(&hs, 600).unwrap());
    sim.run();
    let done = sim.spawn("driver", move || {
        let ca = RelayClient::connect(&ha, relay_addr, None, 1).unwrap();
        let cb = RelayClient::connect(&hb, relay_addr, None, 2).unwrap();
        cb.set_delegate(Arc::new(EchoDelegate));
        // HELLO registration is asynchronous at the relay; give it a beat
        // (GridNode::join naturally precedes any request by much more).
        gridsim_net::ctx::sleep(Duration::from_millis(50));
        // Service request: reversed payload comes back.
        let rsp = ca.service_request(2, b"abcdef").unwrap();
        assert_eq!(rsp, b"fedcba");
        // Unknown peer: NOPEER error, not a hang.
        let err = ca.service_request(99, b"x").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
        // Routed stream: echo.
        let mut stream = ca.open_stream(2, "echo", 7).unwrap();
        stream.write_all(b"through the relay").unwrap();
        stream.shutdown_write().unwrap();
        let mut back = Vec::new();
        stream.read_to_end(&mut back).unwrap();
        assert_eq!(back, b"through the relay");
        // Unknown port: open fails.
        assert!(ca.open_stream(2, "missing", 8).is_err());
        // Two concurrent streams on the same relay connection stay isolated.
        let s1 = ca.open_stream(2, "echo", 9).unwrap();
        let s2 = ca.open_stream(2, "echo", 10).unwrap();
        let h1 = gridsim_net::ctx::handle().spawn("s1", move || {
            let mut s = s1;
            s.write_all(&[1u8; 20_000]).unwrap();
            s.shutdown_write().unwrap();
            let mut b = Vec::new();
            s.read_to_end(&mut b).unwrap();
            b
        });
        let h2 = gridsim_net::ctx::handle().spawn("s2", move || {
            let mut s = s2;
            s.write_all(&[2u8; 20_000]).unwrap();
            s.shutdown_write().unwrap();
            let mut b = Vec::new();
            s.read_to_end(&mut b).unwrap();
            b
        });
        assert!(h1.join().iter().all(|&b| b == 1));
        assert!(h2.join().iter().all(|&b| b == 2));
    });
    sim.run();
    assert!(done.is_finished());
}

/// An envelope that does not decode is its sender's fault, not the relay
/// link's: the receiving client drops it whole — before any handler acts
/// on a field of it — counts it as `bad_envelopes`, and keeps its link. A
/// raw third-party client (id 66) sends node 2 one broken envelope per
/// case while node 1 holds a routed echo stream to node 2. No case draws
/// an answer within a second, each is counted once, and the stream still
/// echoes after every one.
#[test]
fn a_malformed_envelope_is_dropped_before_any_handler_acts() {
    use bytes::Bytes;
    use gridsim_net::Metric;
    use netgrid::wire::{FrameWriter, Put, RelayMsg};
    let sim = Sim::new(77);
    let (ha, hb, hs) = star(&sim);
    let relay_addr = SockAddr::new(hs.ip(), 600);
    sim.spawn("relay", move || spawn_relay(&hs, 600).unwrap());
    sim.run();
    // Envelopes as varints, each broken on purpose. Stream 99 is unknown
    // to node 2.
    let env = |fields: &[u64]| {
        let fw = fields.iter().fold(FrameWriter::new(), |fw, &f| fw.u64(f));
        fw.into_bytes()
    };
    let cases = [
        ("an unknown op", vec![0xee]),
        ("a DATA cut after {dir, sid}", env(&[6, 1, 99])),
        ("a SYNC without its n", env(&[8, 1, 99])),
        ("an OPEN_OK with trailing bytes", env(&[4, 1, 0])),
        ("an SVC_RSP whose ok byte is 2", env(&[2, 1, 2, 0])),
    ];
    let done = sim.spawn("driver", move || {
        let ca = RelayClient::connect(&ha, relay_addr, None, 1).unwrap();
        let cb = RelayClient::connect(&hb, relay_addr, None, 2).unwrap();
        cb.set_delegate(Arc::new(EchoDelegate));
        gridsim_net::ctx::sleep(Duration::from_millis(50));
        let mut stream = ca.open_stream(2, "echo", 7).unwrap();
        let raw = ha.connect(relay_addr).unwrap();
        RelayMsg::Hello { id: 66 }
            .encode()
            .send(&mut raw.clone())
            .unwrap();
        let bad = || gridsim_net::ctx::handle().metric(Metric("node", Some(2), "bad_envelopes"));
        for (i, (what, inner)) in cases.into_iter().enumerate() {
            let before = bad();
            let send = RelayMsg::Send {
                to: 2,
                inner: Bytes::from(inner),
            };
            send.encode().send(&mut raw.clone()).unwrap();
            gridsim_net::ctx::sleep(Duration::from_secs(1));
            assert!(!raw.readable(), "{what} was answered");
            let echo = format!("echo {i}");
            stream.write_all(echo.as_bytes()).unwrap();
            let mut back = vec![0; echo.len()];
            let echoed = stream.read_exact(&mut back).map(|()| back);
            assert_eq!(echoed.ok(), Some(echo.into_bytes()), "after {what}");
            assert_eq!(bad(), before + 1, "{what} was not counted once");
        }
    });
    sim.run();
    assert!(done.is_finished());
}

#[test]
fn socks_proxy_connect_and_refusal() {
    let sim = Sim::new(72);
    let (ha, hb, hs) = star(&sim);
    let proxy_addr = SockAddr::new(hs.ip(), 1080);
    let hb2 = hb.clone();
    sim.spawn("services", move || {
        spawn_proxy(&hs, 1080).unwrap();
        // Echo server on b.
        let l = hb2.listen(7000).unwrap();
        gridsim_net::ctx::handle().spawn_daemon("echo", move || loop {
            let Ok(s) = l.accept() else { break };
            gridsim_net::ctx::handle().spawn_daemon("echo-conn", move || {
                let mut buf = [0u8; 1024];
                loop {
                    match s.read_some(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            if (&s).write_all(&buf[..n]).is_err() {
                                break;
                            }
                        }
                    }
                }
            });
        });
    });
    sim.run();
    let target = SockAddr::new(hb.ip(), 7000);
    let refused_target = SockAddr::new(hb.ip(), 7999);
    let done = sim.spawn("client", move || {
        // Tunneled echo.
        let mut s = block_on(socks_connect(&ha, proxy_addr, target)).unwrap();
        s.write_all(b"tunnel me").unwrap();
        let mut buf = [0u8; 9];
        s.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"tunnel me");
        // Closed target port: the proxy reports connection refused.
        let err = block_on(socks_connect(&ha, proxy_addr, refused_target)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
    });
    sim.run();
    assert!(done.is_finished());
}

/// A 1 MiB upload through the proxy with 64 KiB socket buffers everywhere,
/// so the pump's writes into the slower upstream stage and would block,
/// then a half-close from the client: the target sees EOF after the last
/// byte, answers and closes, and the client reads the answer and then EOF.
/// Each EOF is a pump's last act, so both pumps have run to their end. The
/// parks are the thread-form pumps' to the count.
#[test]
fn socks_proxy_tunnels_under_backpressure_and_half_close() {
    const LEN: usize = 1 << 20;
    let sim = Sim::new(74);
    let (ha, hb, hs) = star(&sim);
    for h in [&ha, &hb, &hs] {
        let mut cfg = h.tcp_config();
        (cfg.send_buf, cfg.recv_buf) = (64 * 1024, 64 * 1024);
        h.set_tcp_config(cfg);
    }
    let proxy_addr = SockAddr::new(hs.ip(), 1080);
    let target = SockAddr::new(hb.ip(), 7000);
    let upload = |i: usize| (i % 251) as u8;
    sim.spawn("services", move || {
        spawn_proxy(&hs, 1080).unwrap();
        let l = hb.listen(7000).unwrap();
        gridsim_net::ctx::handle().spawn_daemon("target", move || {
            let s = l.accept().unwrap();
            let (mut got, mut buf) = (0, vec![0; 16 * 1024]);
            loop {
                let n = s.read_some(&mut buf).unwrap();
                if n == 0 {
                    break;
                }
                assert!(buf[..n].iter().zip(got..).all(|(&b, i)| b == upload(i)));
                got += n;
            }
            (&s).write_all(format!("got {got}").as_bytes()).unwrap();
            s.shutdown_write().unwrap();
        });
    });
    sim.run();
    let done = sim.spawn("client", move || {
        let s = block_on(socks_connect(&ha, proxy_addr, target)).unwrap();
        s.write_block((0..LEN).map(upload).collect::<Vec<u8>>().into())
            .unwrap();
        s.shutdown_write().unwrap();
        let mut reply = String::new();
        (&s).read_to_string(&mut reply).unwrap();
        assert_eq!(reply, format!("got {LEN}"));
    });
    sim.run();
    assert!(done.is_finished());
    let parks = |why| {
        let parks = gridsim_net::Metric("task/parks", None, why);
        sim.scheduler().handle().metric(parks)
    };
    assert_eq!([parks("tcp read"), parks("tcp write")], [1447, 38]);
}

/// A SOCKS proxy on `hs` and a listener on `hb`. `hostile`, an async task
/// over a connection to the proxy, starts at once; an honest client dials
/// the listener through the proxy a second later. How long the honest dial
/// took, and the workers the run started.
fn after_a_hostile_socks_client<F>(
    hostile: impl FnOnce(gridsim_tcp::TcpStream) -> F + Send + 'static,
) -> (Duration, i64)
where
    F: std::future::Future<Output = ()> + Send + 'static,
{
    let sim = Sim::new(73);
    let (ha, hb, hs) = star(&sim);
    let (proxy, target) = (SockAddr::new(hs.ip(), 1080), SockAddr::new(hb.ip(), 7000));
    let listener = hb.listen(7000).unwrap();
    let h = sim.scheduler().handle();
    sim.spawn("proxy", move || spawn_proxy(&hs, 1080).unwrap());
    h.spawn_async("accept", async move {
        while let Ok(conn) = gridsim_net::ctx::wait_io(|| listener.poll_accept()).await {
            drop(conn);
        }
    });
    let ha2 = ha.clone();
    h.spawn_async("hostile", async move {
        let conn = ha2.connect_start(proxy, Default::default()).unwrap();
        gridsim_net::ctx::wait_io(|| conn.poll_established())
            .await
            .unwrap();
        hostile(conn).await;
    });
    let honest = sim.spawn("honest", move || {
        gridsim_net::ctx::sleep(Duration::from_secs(1));
        let t0 = gridsim_net::ctx::now();
        block_on(socks_connect(&ha, proxy, target)).unwrap();
        gridsim_net::ctx::now() - t0
    });
    sim.run();
    let took = Arc::new(Mutex::new(None));
    let t = Arc::clone(&took);
    sim.spawn("collect", move || *t.lock() = Some(honest.join()));
    sim.run();
    let took = took.lock().take().expect("the honest dial returned");
    (took, h.metric(STACKS))
}

/// `bytes` written on `s`, awaited.
async fn send_raw(s: &gridsim_tcp::TcpStream, bytes: &[u8]) {
    let block = bytes::Bytes::copy_from_slice(bytes);
    let sent = gridsim_net::ctx::wait_io(|| s.poll_write_block(&block));
    sent.await.unwrap();
}

/// What arrives on `s` until it ends.
async fn read_to_end(s: &gridsim_tcp::TcpStream) -> Vec<u8> {
    let (mut got, mut chunks) = (Vec::new(), Vec::new());
    loop {
        let read = gridsim_net::ctx::wait_io(|| s.poll_read_chunks_min(1, 64, &mut chunks));
        if !matches!(read.await, Ok(1..)) {
            return got;
        }
        chunks.drain(..).for_each(|c| got.extend_from_slice(&c));
    }
}

/// A client that sends half a greeting and stalls holds up nobody: the
/// proxy's handshake for it is an async task waiting on its read, so it
/// takes no worker, and the next client's dial takes as long as beside a
/// client that hung up at once. With the handshake on a worker, the
/// stalled one kept a worker for good and the next took another.
#[test]
fn a_socks_client_that_stalls_mid_greeting_takes_no_worker_and_holds_up_no_one() {
    let (baseline, stacks) = after_a_hostile_socks_client(|conn| async move { drop(conn) });
    let (took, stalled_stacks) = after_a_hostile_socks_client(|conn| async move {
        send_raw(&conn, &[5]).await;
        gridsim_net::ctx::wait("stalled", || std::task::Poll::<()>::Pending).await;
    });
    assert_eq!(took, baseline, "the stalled client held up the next one");
    assert_eq!(stalled_stacks, stacks, "workers started");
}

/// A greeting that arrives in two segments, its version a moment before
/// the rest, is read exactly: the proxy takes the greeting and no byte
/// past it, and answers its choice.
#[test]
fn a_socks_greeting_in_two_segments_is_read_exactly() {
    let (baseline, _) = after_a_hostile_socks_client(|conn| async move { drop(conn) });
    let split = after_a_hostile_socks_client(|conn| async move {
        send_raw(&conn, &[5]).await;
        gridsim_net::ctx::delay(Duration::from_millis(20)).await;
        send_raw(&conn, &[1, 0]).await;
        conn.shutdown_write().unwrap();
        assert_eq!(read_to_end(&conn).await, [5, 0], "the choice");
    });
    assert_eq!(split.0, baseline);
}

/// A client that sends garbage for a greeting, or asks for an address type
/// other than IPv4, gets a typed refusal — none for garbage, a general
/// failure for the address — and its connection closed; the proxy goes on
/// serving (a panic in its task would end the run).
#[test]
fn a_socks_client_that_sends_garbage_or_another_address_type_is_closed() {
    let (baseline, _) = after_a_hostile_socks_client(|conn| async move { drop(conn) });
    let garbage = after_a_hostile_socks_client(|conn| async move {
        send_raw(&conn, &[4, 1, 0]).await;
        assert_eq!(read_to_end(&conn).await, [], "an answer to garbage");
    });
    assert_eq!(garbage.0, baseline);
    let by_name = after_a_hostile_socks_client(|conn| async move {
        send_raw(&conn, &[5, 1, 0]).await;
        send_raw(&conn, &[5, 1, 0, 3, 1, b'a', 0, 80]).await;
        let choice_then_failure = [5, 0, 5, 1, 0, 1, 0, 0, 0, 0, 0, 0];
        assert_eq!(read_to_end(&conn).await, choice_then_failure);
    });
    assert_eq!(by_name.0, baseline);
}

/// Accepts every routed stream on any port and hands it over.
struct Accept(gridsim_net::SimQueue<RoutedStream>);

impl RelayDelegate for Accept {
    fn on_service_request<'a>(&'a self, _from: u64, _payload: &'a [u8]) -> SvcReply<'a> {
        Box::pin(std::future::ready(Vec::new()))
    }
    fn on_open(&self, _: u64, _: &str, _: u64, stream: RoutedStream) -> Result<(), String> {
        self.0.try_push(stream).map_err(|_| "no room".to_string())
    }
}

/// Every `task/parks/<reason>` the run counted, by reason.
fn all_parks(sim: &Sim) -> Vec<(String, i64)> {
    let metrics = sim.scheduler().handle().metrics();
    let parks = metrics.iter().filter(|(m, _)| m.0 == "task/parks");
    parks.map(|(m, &n)| (m.2.to_string(), n)).collect()
}

/// Byte `i` of a routed transfer.
fn routed_byte(i: usize) -> u8 {
    (i % 253) as u8
}

/// Clients 1 on `ha` and 2 on `hb` of a relay on `hs`, node 2 accepting
/// routed streams into the returned queue, registered at the relay.
fn relay_pair(
    ha: &SimHost,
    hb: &SimHost,
    relay: SockAddr,
) -> (
    RelayClient,
    RelayClient,
    gridsim_net::SimQueue<RoutedStream>,
) {
    let ca = RelayClient::connect(ha, relay, None, 1).unwrap();
    let cb = RelayClient::connect(hb, relay, None, 2).unwrap();
    let accepted = gridsim_net::SimQueue::bounded(4);
    ca.set_delegate(Arc::new(Accept(accepted.clone())));
    cb.set_delegate(Arc::new(Accept(accepted.clone())));
    gridsim_net::ctx::sleep(Duration::from_millis(50));
    (ca, cb, accepted)
}

/// Read `s` to its end, after `pause`, and check it is `len` routed bytes.
fn drain_after(mut s: RoutedStream, pause: Duration, len: usize) {
    gridsim_net::ctx::sleep(pause);
    let mut got = Vec::new();
    s.read_to_end(&mut got).unwrap();
    assert_eq!(got.len(), len);
    assert!(got.iter().enumerate().all(|(i, &b)| b == routed_byte(i)));
}

/// A routed receiver that stops reading until its stream's queue is full:
/// its relay client's pump awaits room for the next DATA until the reader
/// drains — stalling the relay connection, as one multiplexed link must.
/// Every byte arrives once, in order, and the parks are the thread-form
/// pump's to the count; the relay's worker towards the sender, which
/// writes its BUSY and its READY, waits once more for each.
#[test]
fn a_routed_receiver_that_stops_reading_fills_its_queue_and_then_drains() {
    const LEN: usize = 1 << 20;
    let sim = Sim::new(75);
    let (ha, hb, hs) = star(&sim);
    let relay = SockAddr::new(hs.ip(), 600);
    sim.spawn("relay", move || spawn_relay(&hs, 600).unwrap());
    sim.run();
    let done = sim.spawn("driver", move || {
        let (ca, _cb, accepted) = relay_pair(&ha, &hb, relay);
        let reader = gridsim_net::ctx::handle().spawn("reader", move || {
            drain_after(accepted.pop().unwrap(), Duration::from_secs(1), LEN)
        });
        let mut s = ca.open_stream(2, "bulk", 1).unwrap();
        s.write_all(&(0..LEN).map(routed_byte).collect::<Vec<u8>>())
            .unwrap();
        s.shutdown_write().unwrap();
        reader.join();
    });
    sim.run();
    assert!(done.is_finished());
    let pinned = [
        ("join", 1),
        ("queue pop", 110),
        ("queue push", 1),
        ("relay open", 1),
        ("relay peer busy", 1),
        ("sleep", 2),
        ("tcp accept", 3),
        ("tcp connect", 2),
        ("tcp read", 265),
        ("tcp write", 164),
    ];
    let pinned: Vec<_> = pinned.iter().map(|&(r, n)| (r.to_string(), n)).collect();
    assert_eq!(all_parks(&sim), pinned);
}

/// Senders in the relay's throttle sets.
const THROTTLED: gridsim_net::Metric = gridsim_net::Metric("relay", None, "throttled");

/// What an [`exchange`] left behind: the run, and its parks, grants and
/// stacks before the probe.
struct Exchange {
    sim: Sim,
    parks: Vec<(String, i64)>,
    grants_stacks: [i64; 2],
}

/// Both ends of a pair send 1 MiB at once, and the reader of the stream
/// from node `i` starts after `pause(i)`. Every byte arrives once, in
/// order; the run returns once every task is done, with the relay's
/// throttle sets empty. Then each client sends its peer one more byte: a
/// client left congested, its last word from the relay about that peer a
/// BUSY, would wait for a READY for good.
fn exchange(seed: u64, pause: fn(u64) -> Duration) -> Exchange {
    const LEN: usize = 1 << 20;
    let sim = Sim::new(seed);
    let (ha, hb, hs) = star(&sim);
    let relay = SockAddr::new(hs.ip(), 600);
    sim.spawn("relay", move || spawn_relay(&hs, 600).unwrap());
    sim.run();
    let clients = Arc::new(Mutex::new(Vec::new()));
    let kept = Arc::clone(&clients);
    let done = sim.spawn("driver", move || {
        let (ca, cb, accepted) = relay_pair(&ha, &hb, relay);
        *kept.lock() = vec![(ca.clone(), 2), (cb.clone(), 1)];
        let h = gridsim_net::ctx::handle();
        let writers: Vec<_> = [(ca, 2), (cb, 1)]
            .into_iter()
            .map(|(c, to)| {
                h.spawn("writer", move || {
                    let mut s = c.open_stream(to, "bulk", to).unwrap();
                    s.write_all(&(0..LEN).map(routed_byte).collect::<Vec<u8>>())
                        .unwrap();
                    s.shutdown_write().unwrap();
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let s = accepted.pop().unwrap();
                let pause = pause(s.peer());
                h.spawn("reader", move || drain_after(s, pause, LEN))
            })
            .collect();
        writers.into_iter().chain(readers).for_each(|t| t.join());
    });
    sim.run();
    assert!(done.is_finished(), "a sender was left congested");
    let h = sim.scheduler().handle();
    assert_eq!(
        h.metric(THROTTLED),
        0,
        "a sender is still in a throttle set"
    );
    let (parks, grants_stacks) = (all_parks(&sim), [h.metric(GRANTS), h.metric(STACKS)]);
    let probe = sim.spawn("probe", move || {
        for (c, to) in clients.lock().drain(..) {
            let mut s = c.open_stream(to, "probe", 9).unwrap();
            s.write_all(&[0]).unwrap();
        }
    });
    sim.run();
    assert!(probe.is_finished(), "a client was left congested");
    Exchange {
        sim,
        parks,
        grants_stacks,
    }
}

/// Node 2 reads only after a second, so its shard passes the high
/// watermark and node 1 is owed a BUSY; node 1 reads at once, so the
/// worker of node 1's shard spends the transfer mid-write, and writes the
/// BUSY and the READY at the head of its next runs. No reader waits for
/// it: the parks are the thread forms' but for the worker's waits between
/// those runs, and no `sim-mutex`.
#[test]
fn busy_and_ready_reach_a_sender_whose_worker_is_mid_write() {
    let ex = exchange(76, |from| {
        Duration::from_secs(if from == 1 { 1 } else { 0 })
    });
    let h = ex.sim.scheduler().handle();
    let throttles = |id| h.metric(gridsim_net::Metric("node", Some(id), "busy_throttles"));
    assert_eq!([throttles(1), throttles(2)], [1, 0]);
    let pinned = [
        ("join", 2),
        ("queue pop", 249),
        ("queue push", 1),
        ("relay open", 2),
        ("relay peer busy", 1),
        ("sleep", 2),
        ("tcp accept", 3),
        ("tcp connect", 2),
        ("tcp read", 527),
        ("tcp write", 271),
    ];
    let pinned: Vec<_> = pinned.iter().map(|&(r, n)| (r.to_string(), n)).collect();
    assert_eq!(ex.parks, pinned);
    // The relay's reader awaits each SEND, and the clients' link pumps
    // each frame: the stacks are the test's tasks'.
    assert_eq!(ex.grants_stacks, [231, 5]);
}

/// Both readers start after a second, so both shards run hot and each
/// sender is owed a BUSY while its own shard's worker is stalled mid-write
/// towards it. The throttle decision and the BUSY owed are one step, and
/// the drain owes its READY after it in the same slot, where the latest
/// word about a peer replaces one not yet written: no READY overtakes its
/// BUSY, and no sender is left congested.
#[test]
fn a_ready_never_overtakes_its_busy() {
    let ex = exchange(76, |_| Duration::from_secs(1));
    let h = ex.sim.scheduler().handle();
    let throttles = |id| h.metric(gridsim_net::Metric("node", Some(id), "busy_throttles"));
    assert_eq!([throttles(1), throttles(2)], [1, 1]);
}

/// Node 1 stops reading its relay link: a stream from node 2 fills, node
/// 1's pump waits for room, and the relay's worker towards node 1 stalls
/// mid-run. Then node 1 sends to node 2, which reads late, so node 2's
/// queue runs hot and node 1 is owed a BUSY it cannot read yet, and to
/// node 3, which reads at once. Node 3 gets node 1's stream in full while
/// node 1 is still not reading: the BUSY waits in node 1's slot, and node
/// 1's reader at the relay forwards on. (With the BUSY written under node
/// 1's writer lock, that reader waited for the stalled run, and node 3's
/// stream with it, until node 1 read.)
#[test]
fn a_busy_owed_to_a_stalled_sender_holds_up_none_of_its_sends() {
    const LEN: usize = 256 << 10;
    let sim = Sim::new(80);
    let (ha, hb, hs) = star(&sim);
    let relay = SockAddr::new(hs.ip(), 600);
    sim.spawn("relay", move || spawn_relay(&hs, 600).unwrap());
    sim.run();
    let done = sim.spawn("driver", move || {
        let (c1, c2, accepted) = relay_pair(&ha, &hb, relay);
        let c3 = RelayClient::connect(&hb, relay, None, 3).unwrap();
        let at3 = gridsim_net::SimQueue::bounded(1);
        c3.set_delegate(Arc::new(Accept(at3.clone())));
        let h = gridsim_net::ctx::handle();
        let start = gridsim_net::ctx::now();
        // Two seconds in, node 2 is throttled on node 1's stalled shard and
        // node 1 on node 2's: node 1 is owed its BUSY, unread.
        let throttled = h.spawn("watch", move || {
            gridsim_net::ctx::sleep(Duration::from_secs(2));
            gridsim_net::ctx::handle().metric(THROTTLED)
        });
        let node1_reads_at = start + Duration::from_secs(7);
        // Every stream is open before node 1 stops reading.
        let send = |c: &RelayClient, to, after, len| {
            let mut s = c.open_stream(to, "bulk", to).unwrap();
            h.spawn("writer", move || {
                gridsim_net::ctx::sleep(after);
                s.write_all(&(0..len).map(routed_byte).collect::<Vec<u8>>())
                    .unwrap();
                s.shutdown_write().unwrap();
            })
        };
        let second = Duration::from_millis(500);
        let writers = [
            send(&c1, 2, second, 4 * LEN),
            send(&c1, 3, second, LEN),
            send(&c2, 1, Duration::ZERO, 4 * LEN),
        ];
        let mut readers: Vec<_> = (0..2)
            .map(|_| {
                let s = accepted.pop().unwrap();
                let (pause, len) = match s.peer() {
                    2 => (node1_reads_at - gridsim_net::ctx::now(), 4 * LEN),
                    _ => (Duration::from_secs(3), 4 * LEN),
                };
                h.spawn("reader", move || drain_after(s, pause, len))
            })
            .collect();
        let s3 = at3.pop().unwrap();
        drain_after(s3, Duration::ZERO, LEN);
        let node3_done = gridsim_net::ctx::now();
        assert!(
            node3_done < node1_reads_at,
            "node 3's stream ended at {node3_done:?}, node 1 reads from {node1_reads_at:?}"
        );
        readers.extend(writers);
        readers.into_iter().for_each(|t| t.join());
        assert_eq!(throttled.join(), 2);
    });
    sim.run();
    assert!(done.is_finished(), "a sender was left congested");
    // Node 2 read its BUSY at once. Node 1's, owed while it did not read,
    // was replaced unwritten by the READY of node 2's drain: its last word
    // about node 2, as the emptied throttle set has it.
    let h = sim.scheduler().handle();
    let throttles = |id| h.metric(gridsim_net::Metric("node", Some(id), "busy_throttles"));
    assert_eq!([throttles(1), throttles(2), h.metric(THROTTLED)], [0, 1, 0]);
}

/// A segment sent: the instant, its sequence number, its bytes.
type Sent = (gridsim_net::SimTime, u64, bytes::Bytes);

/// Node 1 writes two routed streams to node 2 at once, 512 KiB each, by
/// `write`, its own task per stream; node 2 reads the first only after a
/// second. Every segment node 1 sends — the instant it leaves, its
/// sequence number and its bytes — and the parks of the whole run.
fn two_writers(polled: bool) -> (Vec<Sent>, Vec<(String, i64)>) {
    const LEN: usize = 512 << 10;
    let sim = Sim::new(77);
    let (ha, hb, hs) = star(&sim);
    let (relay, a_ip) = (SockAddr::new(hs.ip(), 600), ha.ip());
    sim.spawn("relay", move || spawn_relay(&hs, 600).unwrap());
    sim.run();
    let sent = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&sent);
    sim.net().with(|w| {
        w.set_tracer(Box::new(move |t, kind, pkt| {
            let seg = pkt.payload.as_any().downcast_ref::<gridsim_tcp::Segment>();
            if let Some(seg) = seg.filter(|_| kind == gridsim_net::TraceKind::Sent) {
                if pkt.src.ip == a_ip && !seg.data.is_empty() {
                    log.lock().push((t, seg.seq, seg.data.clone()));
                }
            }
        }))
    });
    let done = sim.spawn("driver", move || {
        let (ca, _cb, accepted) = relay_pair(&ha, &hb, relay);
        let h = gridsim_net::ctx::handle();
        let written = gridsim_net::SimQueue::bounded(2);
        let mut streams = Vec::new();
        for (sid, pause) in [(1, 1), (2, 0)] {
            let mut s = ca.open_stream(2, "bulk", sid).unwrap();
            streams.push(s.clone());
            let r = accepted.pop().unwrap();
            h.spawn("reader", move || {
                drain_after(r, Duration::from_secs(pause), LEN)
            });
            let block = bytes::Bytes::from((0..LEN).map(routed_byte).collect::<Vec<u8>>());
            let done = written.clone();
            if polled {
                h.spawn_async("writer", async move {
                    use netgrid::drivers::BlockWrite;
                    let sent = gridsim_net::ctx::wait_io(|| s.poll_write_block(&block));
                    sent.await.unwrap();
                    let _ = done.try_push(());
                });
            } else {
                h.spawn("writer", move || {
                    s.write_all(&block).unwrap();
                    let _ = done.try_push(());
                });
            }
        }
        for _ in 0..2 {
            written.pop();
        }
        streams.iter().for_each(|s| s.shutdown_write().unwrap());
    });
    sim.run();
    assert!(done.is_finished(), "a writer was left congested");
    let sent = sent.lock().clone();
    (sent, all_parks(&sim))
}

/// [`two_writers`], polled: the writes run as async tasks over
/// `poll_write_block`, which keeps its chunk, its DATA frame and the
/// writer lock across a would-block. They wait out the relay's BUSY and
/// each other's hold on the service link's writer lock, and send the
/// same DATA frames, in the same order, at the same instants as the
/// blocking writes, with the same parks.
#[test]
fn a_polled_routed_write_sends_what_the_blocking_one_sends_when_it_sends_it() {
    let (blocking, parks) = two_writers(false);
    let (polled, polled_parks) = two_writers(true);
    let count = |why: &str| parks.iter().find(|(r, _)| r == why).map_or(0, |p| p.1);
    assert!(
        count("relay peer busy") > 0 && count("sim-mutex") > 0,
        "{parks:?}"
    );
    assert!(blocking.len() > 500, "{} segments", blocking.len());
    assert!(polled == blocking, "the polled write's segments differ");
    assert_eq!(polled_parks, parks);
}

/// Node 2 reads its stream only after a second, so its queue fills and
/// its relay client's pump waits for room for the next DATA in its poll,
/// taking no thread. The reply to a service request node 2 makes
/// meanwhile arrives behind that DATA on the same link and is dispatched
/// after it: once the reader has made room, never before. The sender's
/// BUSY and READY are its relay worker's to write, a wait more each.
#[test]
fn data_into_a_full_queue_waits_in_the_pump_and_what_follows_waits_behind_it() {
    const LEN: usize = 1 << 20;
    let sim = Sim::new(79);
    let (ha, hb, hs) = star(&sim);
    let relay = SockAddr::new(hs.ip(), 600);
    sim.spawn("relay", move || spawn_relay(&hs, 600).unwrap());
    sim.run();
    let done = sim.spawn("driver", move || {
        let (ca, cb, accepted) = relay_pair(&ha, &hb, relay);
        let h = gridsim_net::ctx::handle();
        let writer = h.spawn("writer", move || {
            let mut s = ca.open_stream(2, "bulk", 1).unwrap();
            s.write_all(&(0..LEN).map(routed_byte).collect::<Vec<u8>>())
                .unwrap();
            s.shutdown_write().unwrap();
        });
        let (s, pause) = (accepted.pop().unwrap(), Duration::from_secs(1));
        let reads_at = gridsim_net::ctx::now() + pause;
        let reader = h.spawn("reader", move || drain_after(s, pause, LEN));
        gridsim_net::ctx::sleep(Duration::from_millis(800));
        assert_eq!(cb.service_request(1, b"ping").unwrap(), b"");
        let replied = gridsim_net::ctx::now();
        assert!(
            replied > reads_at,
            "the reply overtook the DATA ahead of it"
        );
        writer.join();
        reader.join();
    });
    sim.run();
    assert!(done.is_finished());
    let pinned = [
        ("join", 2),
        ("queue pop", 112),
        ("queue push", 1),
        ("relay open", 1),
        ("relay peer busy", 1),
        ("relay svc rsp", 1),
        ("sleep", 3),
        ("tcp accept", 3),
        ("tcp connect", 2),
        ("tcp read", 268),
        ("tcp write", 167),
    ];
    let pinned: Vec<_> = pinned.iter().map(|&(r, n)| (r.to_string(), n)).collect();
    assert_eq!(all_parks(&sim), pinned);
    // The three stacks are the test's `relay`, `writer` and `reader`:
    // none is the pump's, nor node 1's `svc-handler`, an async task.
    let h = sim.scheduler().handle();
    assert_eq!([h.metric(GRANTS), h.metric(STACKS)], [45, 3]);
}

/// Node 1 drops its end of a stream node 2 opened, unclosed: only its
/// stream table holds it now. Node 2's FIN arrives while node 1 is
/// writing 1 MiB to node 2, its relay link's writer lock held mid-write;
/// the pump takes the stream's last handle out of the table and awaits
/// node 1's FIN in its poll, through that lock, so the handle's drop sends
/// none. Node 2 reads that FIN as the end of the stream; the 1 MiB arrives
/// once, in order; the parks are the thread-form pump's.
#[test]
fn a_fin_that_takes_a_streams_last_handle_is_answered_in_the_pumps_poll() {
    const LEN: usize = 1 << 20;
    let sim = Sim::new(78);
    let (ha, hb, hs) = star(&sim);
    let relay = SockAddr::new(hs.ip(), 600);
    sim.spawn("relay", move || spawn_relay(&hs, 600).unwrap());
    sim.run();
    let done = sim.spawn("driver", move || {
        let (ca, cb, accepted) = relay_pair(&ha, &hb, relay);
        let mut back = cb.open_stream(1, "back", 1).unwrap();
        drop(accepted.pop().unwrap());
        let h = gridsim_net::ctx::handle();
        let writer = h.spawn("writer", move || {
            let mut s = ca.open_stream(2, "bulk", 2).unwrap();
            s.write_all(&(0..LEN).map(routed_byte).collect::<Vec<u8>>())
                .unwrap();
            s.shutdown_write().unwrap();
        });
        let s = accepted.pop().unwrap();
        let reader = h.spawn("reader", move || drain_after(s, Duration::ZERO, LEN));
        gridsim_net::ctx::sleep(Duration::from_millis(200));
        back.shutdown_write().unwrap();
        let mut rest = Vec::new();
        back.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty() && back.fin_received(), "node 1's FIN");
        writer.join();
        reader.join();
    });
    sim.run();
    assert!(done.is_finished());
    let pinned = [
        ("queue pop", 153),
        ("relay open", 2),
        ("sim-mutex", 42),
        ("sleep", 2),
        ("tcp accept", 3),
        ("tcp connect", 2),
        ("tcp read", 276),
        ("tcp write", 238),
    ];
    let pinned: Vec<_> = pinned.iter().map(|&(r, n)| (r.to_string(), n)).collect();
    assert_eq!(all_parks(&sim), pinned);
}

/// CONNECT_BACK is the one name-service request whose answer waits (a
/// dial back to the asker): the server's reader awaits the dial, answers,
/// and steps on — the next request on the same connection is answered too.
#[test]
fn a_connect_back_request_is_answered_and_the_connection_steps_on() {
    let sim = Sim::new(77);
    let (ha, _hb, hs) = star(&sim);
    let ns_addr = SockAddr::new(hs.ip(), 563);
    sim.spawn("ns", move || spawn_name_service(&hs, 563).unwrap());
    sim.run();
    let done = sim.spawn("client", move || {
        let ns = NsClient::new(ha, ns_addr, None);
        let profile = ns.detect_profile().unwrap();
        assert_eq!(profile, ConnectivityProfile::open());
        assert_eq!(ns.register("a", &profile, &[]).unwrap(), 1);
    });
    sim.run();
    assert!(done.is_finished());
    let pinned = [
        ("ns reply", 2),
        ("tcp accept", 4),
        ("tcp connect", 3),
        ("tcp read", 9),
    ];
    let pinned: Vec<_> = pinned.iter().map(|&(r, n)| (r.to_string(), n)).collect();
    assert_eq!(all_parks(&sim), pinned);
    // The dial back is awaited in the server's reader, and the client
    // link's end of connection in its pump: the one stack is the `ns`
    // task's, whose idle worker the client takes.
    let h = sim.scheduler().handle();
    assert_eq!([h.metric(GRANTS), h.metric(STACKS)], [4, 1]);
}

/// Topology sanity: the qualitative grid builder gives every host a
/// working route to the public services host and back.
#[test]
fn grid_builder_all_sites_reach_public_host() {
    let sim = Sim::new(73);
    let net = sim.net();
    let wan = LinkParams::mbps(2.0, Duration::from_millis(4));
    let (srv_ip, hosts) = net.with(|w| {
        let mut grid = gridsim_net::topology::Grid::build(
            w,
            &[
                topology::SiteSpec::open("o", 1, wan),
                topology::SiteSpec::firewalled("f", 1, wan),
                topology::SiteSpec::natted("n", 1, gridsim_net::NatKind::FullCone, wan),
            ],
        );
        let (_, ip) = grid.add_public_host(w, "pub");
        let hosts: Vec<_> = grid.sites.iter().map(|s| s.hosts[0]).collect();
        (ip, hosts)
    });
    let hsrv_node = net.with(|w| w.find_node("pub").unwrap());
    let hs = SimHost::new(&net, hsrv_node);
    sim.spawn("server", move || {
        let l = hs.listen(9000).unwrap();
        for _ in 0..3 {
            let s = l.accept().unwrap();
            (&s).write_all(b"ok").unwrap();
        }
    });
    let oks = Arc::new(Mutex::new(0));
    for (i, h) in hosts.into_iter().enumerate() {
        let host = SimHost::new(&net, h);
        let oks = Arc::clone(&oks);
        sim.spawn(format!("dial{i}"), move || {
            let s = host.connect(SockAddr::new(srv_ip, 9000)).unwrap();
            let mut buf = [0u8; 2];
            let mut r = &s;
            r.read_exact(&mut buf).unwrap();
            assert_eq!(&buf, b"ok");
            *oks.lock() += 1;
        });
    }
    sim.run();
    assert_eq!(*oks.lock(), 3);
}
