//! Tier-1 smoke for the simtcp sender: a bulk transfer at window-scaled
//! (1 MiB) socket buffers must arrive byte-exact, in whole segments, and
//! without copying on the way out. The LAN pair's 512 KiB queue overflows
//! during slow start, so the transfer crosses loss recovery into
//! congestion avoidance with `cwnd < send_buf` — the regime where a
//! byte-granular congestion window used to shred the stream into ~300 B
//! segments.

use bytes::Bytes;
use gridsim_net::{topology, Sim, SockAddr};
use gridsim_tcp::{SimHost, TcpConfig};

const TOTAL: usize = 4 << 20;
const BLOCK: usize = 256 * 1024;

fn pattern(i: usize) -> u8 {
    (i ^ (i >> 8) ^ (i >> 16)) as u8
}

#[test]
fn bigwin_bulk_transfer_is_exact_and_sends_whole_segments() {
    let sim = Sim::new(7);
    let net = sim.net();
    let (a, b) = net.with(topology::lan_pair);
    let (ha, hb) = (SimHost::new(&net, a), SimHost::new(&net, b));
    let cfg = TcpConfig {
        send_buf: 1 << 20,
        recv_buf: 1 << 20,
        ..TcpConfig::default()
    };
    ha.set_tcp_config(cfg);
    hb.set_tcp_config(cfg);
    let dst = SockAddr::new(hb.ip(), 5000);

    let receiver = sim.spawn("receiver", move || {
        let conn = hb.listen(5000).unwrap().accept().unwrap();
        let mut chunks = Vec::new();
        let mut got = 0;
        while got < TOTAL {
            let n = conn.read_chunks_min(1, 64 * 1024, &mut chunks).unwrap();
            assert!(n > 0, "EOF after {got} of {TOTAL} bytes");
            for c in chunks.drain(..) {
                for (k, &byte) in c.iter().enumerate() {
                    assert_eq!(byte, pattern(got + k), "byte {} corrupted", got + k);
                }
                got += c.len();
            }
        }
        assert_eq!(got, TOTAL);
    });
    let sender = sim.spawn("sender", move || {
        let conn = ha.connect(dst).unwrap();
        for blk in 0..TOTAL / BLOCK {
            let data: Vec<u8> = (blk * BLOCK..(blk + 1) * BLOCK).map(pattern).collect();
            conn.write_block(Bytes::from(data)).unwrap();
        }
        conn.drain().unwrap();
        let st = conn.stats().unwrap();
        let mss = cfg.mss as u64;
        // Every data segment, first transmission or repair, should be a
        // full MSS; 10 % covers block-boundary tails, window-edge runts
        // and the handshake.
        let resent = (st.bytes_sent - TOTAL as u64).div_ceil(mss);
        let budget = (TOTAL as u64).div_ceil(mss) * 11 / 10 + resent;
        assert!(
            st.segs_sent <= budget,
            "{} segments for {TOTAL} bytes ({} retransmitted): budget {budget}",
            st.segs_sent,
            st.bytes_sent - TOTAL as u64,
        );
        assert!(
            st.bytes_copied * 100 < st.bytes_sent,
            "{} of {} bytes copied while carving segments",
            st.bytes_copied,
            st.bytes_sent
        );
        assert!(
            st.fast_retransmits + st.rtx_timeouts > 0,
            "scenario must cross loss recovery, or it does not test the sender"
        );
    });
    sim.run();
    assert!(receiver.is_finished() && sender.is_finished());
}
