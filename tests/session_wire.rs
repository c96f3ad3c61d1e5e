//! Tier-1 pin of the data-link wire format (DESIGN.md §8), byte by byte
//! and independent of our own encoder: a raw client dials a receive
//! port's listener and hand-encodes the stream preamble and the tagged
//! frames behind it. Then the same client turns hostile: every malformed
//! input must end in no delivery and no panic, and must leave a
//! well-behaved link on the same port unharmed.

use gridsim_net::{topology, Sim, SockAddr};
use gridsim_tcp::{SimHost, TcpStream};
use gridzip::varint;
use netgrid::wire::{read_frame, FrameReader, FrameWriter, MAX_MESSAGE};
use netgrid::{spawn_name_service, ConnectivityProfile, GridEnv, GridNode, ReceivePort, StackSpec};
use std::io::Write;
use std::time::Duration;

const NS: u16 = 563;
const MSG: u64 = 0;
const OPEN: u64 = 1;
const CLOSE: u64 = 2;
const RECONFIG: u64 = 4;
const RESUME_FLAG: u64 = 1 << 63;

/// Dial `port`'s listener and send the stream preamble: one
/// length-prefixed frame of varint `fields`.
fn dial(node: &GridNode, port: &str, fields: &[u64]) -> TcpStream {
    let (rec, _, _) = node.ns().lookup_port(port).unwrap();
    let mut s = node.host().connect(rec.listener.unwrap()).unwrap();
    s.set_nodelay(true).unwrap();
    let preamble = fields.iter().fold(FrameWriter::new(), |fw, &f| fw.u64(f));
    preamble.send(&mut s).unwrap();
    s
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
            let ack = read_frame(s).expect("the first is acked");
            assert_eq!(FrameReader::new(&ack).u64().unwrap(), 1);
            write(s, reconfig_1);
            assert!(read_frame(s).is_err(), "the replay is not");
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
            let ack = read_frame(&mut s);
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
