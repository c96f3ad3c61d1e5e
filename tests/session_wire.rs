//! Tier-1 pin of the data-link wire format (DESIGN.md §8), byte by byte
//! and independent of our own encoder: a raw client dials a receive
//! port's listener and hand-encodes the stream preamble and the tagged
//! frames behind it. Then the same client turns hostile: every malformed
//! input must end in no delivery and no panic, and must leave a
//! well-behaved link on the same port unharmed.

use gridsim_net::{topology, Sim, SockAddr, GRANTS, STACKS};
use gridsim_tcp::{SimHost, TcpStream};
use gridzip::varint;
use netgrid::relay::RelayClient;
use netgrid::wire::{FrameReader, FrameStream, FrameWriter, MAX_MESSAGE};
use netgrid::{
    spawn_name_service, spawn_relay, ConnectivityProfile, GridEnv, GridNode, ReceivePort, StackSpec,
};
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const NS: u16 = 563;
const MSG: u64 = 0;
const OPEN: u64 = 1;
const CLOSE: u64 = 2;
const RECONFIG: u64 = 4;
const RESUME_FLAG: u64 = 1 << 63;

/// Dial `port`'s listener and send `sent`.
fn dial_with(node: &GridNode, port: &str, sent: &[u8]) -> TcpStream {
    let (rec, _, _) = node.ns().lookup_port(port).unwrap();
    let mut s = node.host().connect(rec.listener.unwrap()).unwrap();
    s.set_nodelay(true).unwrap();
    s.write_all(sent).unwrap();
    s
}

/// A stream preamble: one length-prefixed frame of varint `fields`.
fn preamble(fields: &[u64]) -> Vec<u8> {
    let mut wire = Vec::new();
    let preamble = fields.iter().fold(FrameWriter::new(), |fw, &f| fw.u64(f));
    preamble.send(&mut wire).unwrap();
    wire
}

/// Dial `port`'s listener and send the stream preamble of `fields`.
fn dial(node: &GridNode, port: &str, fields: &[u64]) -> TcpStream {
    dial_with(node, port, &preamble(fields))
}

fn put(buf: &mut Vec<u8>, fields: &[u64]) {
    for &f in fields {
        varint::put(buf, f);
    }
}

/// `MSG [0][channel][len][payload]`
fn msg(buf: &mut Vec<u8>, channel: u64, payload: &[u8]) {
    put(buf, &[MSG, channel, payload.len() as u64]);
    buf.extend_from_slice(payload);
}

fn drain(rp: &ReceivePort) -> Vec<(u64, Vec<u8>)> {
    std::iter::from_fn(|| rp.try_receive())
        .map(|m| (m.channel, m.into_vec()))
        .collect()
}

#[test]
fn hand_encoded_frames_deliver_and_malformed_ones_do_not() {
    // Three channels of a client that is not us; ids are the sender's to
    // choose.
    const A: u64 = 0x0700_0001;
    const B: u64 = 0x0700_0002;
    const C: u64 = 0x0700_0003;
    /// What a hostile client does behind its preamble: usually one write
    /// (the peer may already have hung up on the preamble).
    type Body = fn(&mut TcpStream);
    fn write(s: &mut TcpStream, encode: impl FnOnce(&mut Vec<u8>)) {
        let mut wire = Vec::new();
        encode(&mut wire);
        let _ = s.write_all(&wire);
    }
    let valid_msg: Body = |s| write(s, |b| msg(b, A, b"hostile"));
    fn reconfig_1(b: &mut Vec<u8>) {
        put(b, &[RECONFIG, 1, 1, 32 * 1024, 0]);
    }
    // Each case dials its preambles in order and runs its body on the last
    // stream; every stream stays open to the end of the test, so a pump
    // that is gone is one the receiver ended.
    let hostile: Vec<(&str, Vec<Vec<u64>>, Body)> = vec![
        (
            "seed-format [len][payload] stream",
            vec![vec![A, 0, 1]],
            |s| {
                write(s, |b| {
                    put(b, &[7]);
                    b.extend_from_slice(b"hostile");
                })
            },
        ),
        ("MSG on a never-opened channel", vec![vec![A, 0, 1]], |s| {
            write(s, |b| msg(b, B, b"hostile"))
        }),
        ("OPEN with n = 4097", vec![vec![A, 0, 1]], |s| {
            write(s, |b| {
                put(b, &[OPEN, 4097]);
                msg(b, A, b"hostile");
            })
        }),
        ("OPEN with a 4097-byte name", vec![vec![A, 0, 1]], |s| {
            write(s, |b| {
                put(b, &[OPEN, 1, B, 4097]);
                b.extend_from_slice(&[b'w'; 4097]);
                msg(b, A, b"hostile");
            })
        }),
        ("len > MAX_MESSAGE", vec![vec![A, 0, 1]], |s| {
            write(s, |b| {
                put(b, &[MSG, A, MAX_MESSAGE + 1]);
                b.extend_from_slice(b"hostile");
            })
        }),
        // Epoch 1 is acked and the stack swapped; epoch 1 again is a
        // replay: no second ack, and nothing behind it is delivered.
        ("RECONFIG with a stale epoch", vec![vec![A, 0, 1]], |s| {
            write(s, reconfig_1);
            let ack = FrameStream::new(s.clone()).next_frame();
            let ack = ack.expect("the first is acked");
            assert_eq!(FrameReader::new(&ack).u64().unwrap(), 1);
            write(s, reconfig_1);
            let replay = FrameStream::new(s.clone()).next_frame();
            assert!(replay.is_err(), "the replay is not");
            write(s, |b| msg(b, A, b"hostile"));
        }),
        // `as u16` read these two as stream 0 of a 1-stream link.
        (
            "preamble total = 65 537",
            vec![vec![A, 0, 65_537]],
            valid_msg,
        ),
        ("preamble idx = 65 536", vec![vec![A, 65_536, 1]], valid_msg),
        (
            "resume preamble with n > MAX_MUX_CHANNELS",
            vec![vec![A | RESUME_FLAG, 0, 1, 1, (1 << 16) + 1]],
            valid_msg,
        ),
        // Stream 0 of a generation-5 resume waits for stream 1; a stream 1
        // of generation 3 is a straggler of an older attempt and must not
        // complete the link (which would start a pump).
        (
            "resume preamble with a stale generation",
            vec![
                vec![C | RESUME_FLAG, 0, 2, 5, 0],
                vec![C | RESUME_FLAG, 1, 2, 3, 0],
            ],
            |_| {},
        ),
    ];
    let cases = hostile.len();

    let sim = Sim::new(19);
    let net = sim.net();
    let (a, b) = net.with(topology::lan_pair);
    let (ha, hb) = (SimHost::new(&net, a), SimHost::new(&net, b));
    let env = GridEnv::new(net.clone(), SockAddr::new(hb.ip(), NS));
    let env_b = env.clone();
    let receiver = sim.spawn("receiver", move || {
        spawn_name_service(&hb, NS).unwrap();
        let node = GridNode::join(&env_b, hb, "rx", ConnectivityProfile::open()).unwrap();
        let rp_a = node
            .create_receive_port("wire-a", StackSpec::plain())
            .unwrap();
        let rp_b = node
            .create_receive_port("wire-b", StackSpec::plain())
            .unwrap();
        // The hand-encoded link: exactly its messages, in wire order.
        gridsim_net::ctx::sleep(Duration::from_millis(500));
        let owned = |v: &[(u64, &[u8])]| -> Vec<(u64, Vec<u8>)> {
            v.iter().map(|&(ch, p)| (ch, p.to_vec())).collect()
        };
        assert_eq!(
            drain(&rp_a),
            owned(&[(A, b"a0"), (B, b"b0"), (A, b"a1"), (B, b""), (A, b"a2")])
        );
        assert_eq!(drain(&rp_b), owned(&[(C, b"c0"), (C, b"c1")]));
        assert_eq!(rp_a.connection_count(), 0, "EOF ends the link");
        // Then, per hostile input, only the bystander's next message.
        for i in 0..cases {
            let m = rp_a.receive().unwrap();
            assert_eq!(m.as_slice(), format!("bystander {i}").as_bytes());
            assert_eq!(rp_a.connection_count(), 1, "hostile link {i} has a pump");
        }
        gridsim_net::ctx::sleep(Duration::from_millis(500));
        assert_eq!((drain(&rp_a), drain(&rp_b)), (vec![], vec![]));
    });
    let client = sim.spawn("client", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(100));
        let node = GridNode::join(&env, ha, "tx", ConnectivityProfile::open()).unwrap();

        // Preamble [channel][idx][total] names channel A; OPEN adds B on
        // the same port and C on another port of the node.
        let mut s = dial(&node, "wire-a", &[A, 0, 1]);
        let mut wire = Vec::new();
        put(&mut wire, &[OPEN, 2]);
        put(&mut wire, &[B, 6]);
        wire.extend_from_slice(b"wire-a");
        put(&mut wire, &[C, 6]);
        wire.extend_from_slice(b"wire-b");
        msg(&mut wire, A, b"a0");
        msg(&mut wire, C, b"c0");
        msg(&mut wire, B, b"b0");
        msg(&mut wire, A, b"a1");
        msg(&mut wire, B, b"");
        put(&mut wire, &[CLOSE, B]);
        msg(&mut wire, C, b"c1");
        msg(&mut wire, A, b"a2");
        put(&mut wire, &[CLOSE, A, CLOSE, C]);
        s.write_all(&wire).unwrap();
        s.shutdown_write().unwrap();
        drop(s);

        gridsim_net::ctx::sleep(Duration::from_millis(500));
        let mut bystander = node.create_send_port();
        bystander.connect("wire-a").unwrap();
        let mut streams = Vec::new();
        for (i, (what, preambles, body)) in hostile.into_iter().enumerate() {
            streams.extend(preambles.iter().map(|p| dial(&node, "wire-a", p)));
            body(streams.last_mut().unwrap());
            gridsim_net::ctx::sleep(Duration::from_millis(100));
            bystander
                .send(format!("bystander {i}").as_bytes())
                .unwrap_or_else(|e| panic!("bystander harmed by {what}: {e}"));
        }
        bystander.close().unwrap();
    });
    sim.run();
    assert!(receiver.is_finished() && client.is_finished());
}

#[test]
fn a_link_whose_other_streams_never_arrive_is_dropped_at_its_deadline() {
    // A raw client dials the port and stops: after stream 0 of a 4-stream
    // link, before the first byte of its preamble, or halfway through it.
    // The receiver holds the connection only until a deadline, 10 s after
    // the stream arrived, then closes it: the client reads EOF.
    const DEADLINE: Duration = Duration::from_secs(10);
    let half = preamble(&[0x0700_0002, 0, 1]);
    let cases = [
        ("stream 0 of 4", preamble(&[0x0700_0001, 0, 4])),
        ("no preamble", Vec::new()),
        ("half a preamble", half[..half.len() / 2].to_vec()),
    ];
    let sim = Sim::new(29);
    let net = sim.net();
    let (a, b) = net.with(topology::lan_pair);
    let (ha, hb) = (SimHost::new(&net, a), SimHost::new(&net, b));
    let env = GridEnv::new(net.clone(), SockAddr::new(hb.ip(), NS));
    let env_b = env.clone();
    net.sched().spawn_daemon("receiver", move || {
        spawn_name_service(&hb, NS).unwrap();
        let node = GridNode::join(&env_b, hb, "rx", ConnectivityProfile::open()).unwrap();
        let rp = node
            .create_receive_port("wire", StackSpec::plain())
            .unwrap();
        assert!(rp.receive().is_err(), "nothing is ever delivered");
    });
    let client = sim.spawn("client", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(100));
        let node = GridNode::join(&env, ha, "tx", ConnectivityProfile::open()).unwrap();
        for (case, sent) in cases {
            let mut s = dial_with(&node, "wire", &sent);
            let t0 = gridsim_net::ctx::now();
            let got = std::io::Read::read(&mut s, &mut [0u8; 16]).unwrap();
            let waited = gridsim_net::ctx::now() - t0;
            assert_eq!(got, 0, "{case}: EOF, not bytes");
            assert!(
                waited > DEADLINE / 2 && waited <= DEADLINE + Duration::from_secs(1),
                "{case}: EOF after {waited:?}"
            );
        }
    });
    sim.run();
    assert!(client.is_finished());
}

/// What a wait of the calling task costs the world: worker stacks mapped
/// and baton grants, across `wait`.
fn workers_across<T>(wait: impl FnOnce() -> T) -> (T, [i64; 2]) {
    let h = gridsim_net::ctx::handle();
    let before = [h.metric(STACKS), h.metric(GRANTS)];
    let out = wait();
    let spent = [h.metric(STACKS) - before[0], h.metric(GRANTS) - before[1]];
    (out, spent)
}

#[test]
fn a_connection_without_its_preamble_is_closed_at_the_deadline_by_an_acceptor_on_no_worker() {
    // A raw client dials the port and never writes its preamble. The
    // connection's acceptor, an async task, reads for it until the port's
    // deadline, then drops the connection: the client reads EOF. Parked
    // in that read, the client drives the run, the acceptor's polls
    // included, so the wait takes no grant and starts no thread; an
    // acceptor on a worker took that worker at the connection and at the
    // deadline.
    const DEADLINE: Duration = Duration::from_secs(10);
    let sim = Sim::new(29);
    let net = sim.net();
    let (a, b) = net.with(topology::lan_pair);
    let (ha, hb) = (SimHost::new(&net, a), SimHost::new(&net, b));
    let env = GridEnv::new(net.clone(), SockAddr::new(hb.ip(), NS));
    let env_b = env.clone();
    net.sched().spawn_daemon("receiver", move || {
        spawn_name_service(&hb, NS).unwrap();
        let node = GridNode::join(&env_b, hb, "rx", ConnectivityProfile::open()).unwrap();
        let rp = node
            .create_receive_port("wire", StackSpec::plain())
            .unwrap();
        assert!(rp.receive().is_err(), "nothing is ever delivered");
    });
    let client = sim.spawn("client", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(100));
        let node = GridNode::join(&env, ha, "tx", ConnectivityProfile::open()).unwrap();
        let mut s = dial_with(&node, "wire", &[]);
        let t0 = gridsim_net::ctx::now();
        let (got, spent) = workers_across(|| std::io::Read::read(&mut s, &mut [0u8; 16]));
        let waited = gridsim_net::ctx::now() - t0;
        assert_eq!(got.unwrap(), 0, "EOF, not bytes");
        assert!(
            waited > DEADLINE / 2 && waited <= DEADLINE + Duration::from_secs(1),
            "EOF after {waited:?}"
        );
        assert_eq!(spent, [0, 0], "threads started and grants over the wait");
    });
    sim.run();
    assert!(client.is_finished());
}

#[test]
fn a_routed_resume_whose_fields_never_arrive_is_refused_at_its_deadline() {
    // A raw relay client opens a routed stream to a receive port with the
    // resume flag in the OPEN's channel field, and never writes the resume
    // fields that must follow as the stream's first frame. The receiver
    // refuses the stream 10 s after the open: the opener reads its end.
    const DEADLINE: Duration = Duration::from_secs(10);
    const RELAY: u16 = 600;
    let sim = Sim::new(31);
    let net = sim.net();
    let (a, b) = net.with(topology::lan_pair);
    let (ha, hb) = (SimHost::new(&net, a), SimHost::new(&net, b));
    let relay_addr = SockAddr::new(hb.ip(), RELAY);
    let env = GridEnv::new(net.clone(), SockAddr::new(hb.ip(), NS)).with_relay(relay_addr);
    let receiver_id = Arc::new(Mutex::new(None));
    let id_slot = Arc::clone(&receiver_id);
    net.sched().spawn_daemon("receiver", move || {
        spawn_name_service(&hb, NS).unwrap();
        spawn_relay(&hb, RELAY).unwrap();
        let node = GridNode::join(&env, hb, "rx", ConnectivityProfile::open()).unwrap();
        let rp = node
            .create_receive_port("wire", StackSpec::plain())
            .unwrap();
        *id_slot.lock().unwrap() = Some(node.id());
        assert!(rp.receive().is_err(), "nothing is ever delivered");
    });
    let client = sim.spawn("client", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(100));
        let to = receiver_id.lock().unwrap().expect("the receiver joined");
        let rc = RelayClient::connect(&ha, relay_addr, None, 1 << 40).unwrap();
        let mut s = rc
            .open_stream(to, "wire", 0x0700_0001 | RESUME_FLAG)
            .unwrap();
        let t0 = gridsim_net::ctx::now();
        let (got, spent) = workers_across(|| std::io::Read::read(&mut s, &mut [0u8; 16]));
        let waited = gridsim_net::ctx::now() - t0;
        assert_eq!(got.unwrap(), 0, "the end of the stream, not bytes");
        assert!(!s.fin_received(), "refused, not closed");
        assert!(
            waited > DEADLINE / 2 && waited <= DEADLINE + Duration::from_secs(1),
            "refused after {waited:?}"
        );
        // The acceptor reads the resume fields, refuses the stream and
        // hands back its last handle in its poll, on no worker.
        assert_eq!(spent, [0, 0], "threads started and grants over the wait");
    });
    sim.run();
    assert!(client.is_finished());
}

#[test]
fn reconfig_level_is_bounded_by_the_ladder() {
    // `RECONFIG [4][epoch][stripes][block][level + 1]` from a raw client.
    // At gridzip's top level the receiver acks with its watermark and swaps
    // to a decompressing stack, so the next message arrives inside a
    // (stored) gridzip block. One level past it the frame kills the pump:
    // no ack, no swap, and what follows is never delivered.
    const A: u64 = 0x0700_0001;
    const B: u64 = 0x0700_0002;
    let top = gridzip::MAX_LEVEL as u64;

    let sim = Sim::new(23);
    let net = sim.net();
    let (a, b) = net.with(topology::lan_pair);
    let (ha, hb) = (SimHost::new(&net, a), SimHost::new(&net, b));
    let env = GridEnv::new(net.clone(), SockAddr::new(hb.ip(), NS));
    let env_b = env.clone();
    let receiver = sim.spawn("receiver", move || {
        spawn_name_service(&hb, NS).unwrap();
        let node = GridNode::join(&env_b, hb, "rx", ConnectivityProfile::open()).unwrap();
        let rp = node
            .create_receive_port("wire", StackSpec::plain())
            .unwrap();
        gridsim_net::ctx::sleep(Duration::from_secs(1));
        assert_eq!(
            drain(&rp),
            vec![
                (A, b"a0".to_vec()),
                (A, b"a1".to_vec()),
                (B, b"b0".to_vec())
            ]
        );
        assert_eq!(rp.connection_count(), 0, "both pumps are gone");
    });
    let client = sim.spawn("client", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(100));
        let node = GridNode::join(&env, ha, "tx", ConnectivityProfile::open()).unwrap();
        // One message, the RECONFIG, and (once the receiver has answered
        // or hung up) a second message as a stored gridzip block.
        let exchange = |ch: u64, level: u64, first: &[u8], second: &[u8]| {
            let mut s = dial(&node, "wire", &[ch, 0, 1]);
            let mut wire = Vec::new();
            msg(&mut wire, ch, first);
            put(&mut wire, &[RECONFIG, 1, 1, 32 * 1024, level + 1]);
            s.write_all(&wire).unwrap();
            let ack = FrameStream::new(s.clone()).next_frame();
            let mut frame = Vec::new();
            msg(&mut frame, ch, second);
            let mut block = vec![0u8];
            put(&mut block, &[frame.len() as u64, frame.len() as u64]);
            block.extend_from_slice(&frame);
            // The peer may already have hung up.
            let _ = s.write_all(&block);
            let _ = s.shutdown_write();
            ack
        };
        // Ack: [epoch][n][(channel, delivered)]*.
        let ack = exchange(A, top, b"a0", b"a1").expect("top level is acked");
        let mut r = FrameReader::new(&ack);
        let fields: Vec<u64> = std::iter::from_fn(|| r.u64().ok()).collect();
        assert_eq!(fields, [1, 1, A, 1]);
        assert!(exchange(B, top + 1, b"b0", b"b1").is_err(), "no ack");
    });
    sim.run();
    assert!(receiver.is_finished() && client.is_finished());
}
