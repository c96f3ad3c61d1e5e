//! One frame, one write (DESIGN.md §5c): a control frame's length prefix
//! and payload leave in the same segment, so on a path with Nagle on no
//! frame waits a round trip for the ACK of its own header.

use gridsim_net::{topology, LinkParams, Sim};
use gridsim_tcp::SimHost;
use netgrid::wire::{read_frame, FrameReader, FrameStream, FrameWriter};
use std::time::Duration;

const PORT: u16 = 700;
/// One-way delay of the test path: an RTT is 20 ms.
const DELAY: Duration = Duration::from_millis(10);

fn pair(sim: &Sim) -> (SimHost, SimHost) {
    let net = sim.net();
    let wan = LinkParams::mbps(10.0, DELAY);
    let (a, b) = net.with(|w| topology::wan_pair(w, wan));
    (SimHost::new(&net, a), SimHost::new(&net, b))
}

#[test]
fn a_small_frame_is_one_segment() {
    let sim = Sim::new(1);
    let (ha, hb) = pair(&sim);
    let (got, frames) = std::sync::mpsc::channel();
    sim.spawn("server", move || {
        let conn = hb.listen(PORT).unwrap().accept().unwrap();
        got.send(FrameStream::new(conn).next_frame().unwrap())
            .unwrap();
    });
    let addr = gridsim_net::SockAddr::new(server_ip(), PORT);
    let (sent, segments) = std::sync::mpsc::channel();
    sim.spawn("client", move || {
        let mut s = ha.connect(addr).unwrap();
        let before = s.stats().unwrap().segs_sent;
        FrameWriter::new().bytes(&[7u8; 100]).send(&mut s).unwrap();
        // Until every byte is acknowledged: Nagle may be holding some.
        s.drain().unwrap();
        sent.send(s.stats().unwrap().segs_sent - before).unwrap();
    });
    sim.run();
    let segments = segments.recv().unwrap();
    assert_eq!(segments, 1, "a 100-byte frame left as several segments");
    let frame = frames.recv().unwrap();
    assert_eq!(FrameReader::new(&frame).bytes().unwrap(), [7u8; 100]);
}

/// `wan_pair`'s second host.
fn server_ip() -> gridsim_net::Ip {
    gridsim_net::Ip::new(131, 2, 0, 10)
}

#[test]
fn a_frame_round_trip_is_one_rtt() {
    let sim = Sim::new(2);
    let (ha, hb) = pair(&sim);
    sim.spawn("server", move || {
        let mut conn = hb.listen(PORT).unwrap().accept().unwrap();
        let request = FrameStream::new(conn.clone()).next_frame().unwrap();
        let n = FrameReader::new(&request).u64().unwrap();
        FrameWriter::new().u64(n + 1).send(&mut conn).unwrap();
    });
    let addr = gridsim_net::SockAddr::new(server_ip(), PORT);
    let (done, elapsed) = std::sync::mpsc::channel();
    sim.spawn("client", move || {
        let mut s = ha.connect(addr).unwrap();
        let sent = gridsim_net::ctx::now();
        FrameWriter::new().u64(41).send(&mut s).unwrap();
        let reply = read_frame(&mut s).unwrap();
        assert_eq!(FrameReader::new(&reply).u64().unwrap(), 42);
        done.send(gridsim_net::ctx::now() - sent).unwrap();
    });
    sim.run();
    let took = elapsed.recv().unwrap();
    // One RTT plus transmission. With the header in a segment of its own,
    // each frame's payload waits for that segment's ACK: three RTTs.
    assert!(
        took >= 2 * DELAY && took < 3 * DELAY,
        "request/response took {took:?} on a {:?} round trip",
        2 * DELAY
    );
}
