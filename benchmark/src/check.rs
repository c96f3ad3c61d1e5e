//! Seeded message payloads and the receiver-side correctness check.
//!
//! Every message is `[stream: u32 LE][seq: u32 LE][body]`, always of the
//! workload's fixed size. The body is one of [`VARIANTS`] seeded buffers,
//! sent in a seeded order, so a different seed is a different input while
//! the amount of work stays the same. The receiver recomputes each body's
//! checksum and tracks sequence numbers per stream: exactly-once, and FIFO
//! where the workload promises it.

use gridzip::synth::{grid_payload, GRID_REDUNDANCY};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bytes of `[stream][seq]` in front of every body.
pub const HEADER: usize = 8;
/// Distinct payload buffers per workload.
pub const VARIANTS: usize = 8;
/// Length of the seeded variant order before it repeats.
const ORDER_LEN: usize = 1024;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over 64-bit little-endian words in four interleaved lanes (tail
/// bytes one at a time), folded into one word. Word-wise and laned because
/// the receiver checks every delivered byte inside the timed phase: this
/// runs at several bytes per cycle, a few percent of the cheapest
/// workload's own cost, where byte-wise FNV would be a third of it.
pub fn checksum(data: &[u8]) -> u64 {
    let mut lanes = [FNV_OFFSET, FNV_OFFSET ^ 1, FNV_OFFSET ^ 2, FNV_OFFSET ^ 3];
    let mut blocks = data.chunks_exact(32);
    for b in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(b.chunks_exact(8)) {
            let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
            *lane = (*lane ^ w).wrapping_mul(FNV_PRIME);
        }
    }
    let mut h = FNV_OFFSET ^ data.len() as u64;
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(FNV_PRIME);
    }
    for &b in blocks.remainder() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// What the bodies are made of.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Content {
    /// Uniform random bytes: incompressible, the cheapest to synthesise.
    Random,
    /// `gridzip::synth::grid_payload` at `GRID_REDUNDANCY`: the paper's
    /// ≈2:1 compressible application data.
    Grid,
}

/// The seeded message set of one workload, shared by sender and receiver.
pub struct Payloads {
    bodies: Vec<Vec<u8>>,
    sums: Vec<u64>,
    order: Vec<u8>,
}

impl Payloads {
    /// `size` is the length of every message, header included.
    pub fn new(seed: u64, size: usize, content: Content) -> Payloads {
        assert!(size > HEADER, "no room for a body");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let bodies: Vec<Vec<u8>> = (0..VARIANTS)
            .map(|k| match content {
                Content::Random => {
                    let mut b = vec![0u8; size - HEADER];
                    rng.fill(&mut b);
                    b
                }
                Content::Grid => grid_payload(
                    size - HEADER,
                    GRID_REDUNDANCY,
                    seed.wrapping_mul(VARIANTS as u64) + k as u64,
                ),
            })
            .collect();
        let sums = bodies.iter().map(|b| checksum(b)).collect();
        let order = (0..ORDER_LEN)
            .map(|_| rng.random_range(0..VARIANTS as u8))
            .collect();
        Payloads {
            bodies,
            sums,
            order,
        }
    }

    fn variant(&self, stream: u32, seq: u32) -> usize {
        self.order[(seq as usize + stream as usize * 131) % ORDER_LEN] as usize
    }

    /// All bodies back to back, for the isolated kernel benchmarks.
    pub fn concat_bodies(&self) -> Vec<u8> {
        self.bodies.concat()
    }

    /// A sender's private message buffers (so it can patch headers).
    pub fn source(&self) -> MsgSource<'_> {
        MsgSource {
            payloads: self,
            bufs: self
                .bodies
                .iter()
                .map(|b| {
                    let mut m = vec![0u8; HEADER];
                    m.extend_from_slice(b);
                    m
                })
                .collect(),
        }
    }
}

/// Builds the bytes of each message for a sender.
pub struct MsgSource<'a> {
    payloads: &'a Payloads,
    bufs: Vec<Vec<u8>>,
}

impl MsgSource<'_> {
    pub fn message(&mut self, stream: u32, seq: u32) -> &[u8] {
        let m = &mut self.bufs[self.payloads.variant(stream, seq)];
        m[..4].copy_from_slice(&stream.to_le_bytes());
        m[4..HEADER].copy_from_slice(&seq.to_le_bytes());
        m
    }
}

/// Receiver-side bookkeeping for one or more streams.
#[derive(Default)]
pub struct Verifier {
    /// Per stream: which sequence numbers arrived, and the next expected.
    streams: Vec<(Vec<bool>, u32)>,
    pub delivered: u64,
    /// Wrong length or checksum, or a header naming no known message.
    pub corrupt: u64,
    pub duplicate: u64,
    /// Arrived with a sequence number other than the next one.
    pub reordered: u64,
}

impl Verifier {
    /// `expected[s]` = messages stream `s` will carry.
    pub fn new(expected: &[u32]) -> Verifier {
        Verifier {
            streams: expected
                .iter()
                .map(|&n| (vec![false; n as usize], 0))
                .collect(),
            ..Verifier::default()
        }
    }

    /// Check one delivered message; returns its `(stream, seq)` if the
    /// header is sane.
    pub fn check(&mut self, payloads: &Payloads, msg: &[u8]) -> Option<(u32, u32)> {
        self.delivered += 1;
        if msg.len() < HEADER {
            self.corrupt += 1;
            return None;
        }
        let stream = u32::from_le_bytes(msg[..4].try_into().expect("4 bytes"));
        let seq = u32::from_le_bytes(msg[4..HEADER].try_into().expect("4 bytes"));
        let Some((seen, next)) = self.streams.get_mut(stream as usize) else {
            self.corrupt += 1;
            return None;
        };
        let Some(slot) = seen.get_mut(seq as usize) else {
            self.corrupt += 1;
            return None;
        };
        let v = payloads.variant(stream, seq);
        let body = &msg[HEADER..];
        if body.len() != payloads.bodies[v].len() || checksum(body) != payloads.sums[v] {
            self.corrupt += 1;
        }
        if *slot {
            self.duplicate += 1;
        }
        *slot = true;
        if seq != *next {
            self.reordered += 1;
        }
        *next = seq + 1;
        Some((stream, seq))
    }

    /// Messages expected and never seen.
    pub fn missing(&self) -> u64 {
        self.streams
            .iter()
            .map(|(seen, _)| seen.iter().filter(|s| !**s).count() as u64)
            .sum()
    }

    /// Operations that did not end in exactly one intact delivery — plus,
    /// where the workload promises FIFO, those delivered out of order.
    pub fn failed(&self, fifo: bool) -> u64 {
        self.corrupt + self.duplicate + self.missing() + if fifo { self.reordered } else { 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_sees_every_byte_and_the_length() {
        let base: Vec<u8> = (0..200u32).map(|i| (i * 7 + 3) as u8).collect();
        let h = checksum(&base);
        for i in 0..base.len() {
            let mut m = base.clone();
            m[i] ^= 0x40;
            assert_ne!(checksum(&m), h, "flip at byte {i} went unnoticed");
        }
        assert_ne!(checksum(&base[..199]), h);
        let mut longer = base.clone();
        longer.push(0);
        assert_ne!(checksum(&longer), h);
        assert_eq!(checksum(&base), h);
        assert_ne!(checksum(&[]), checksum(&[0]));
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = Payloads::new(42, 4096, Content::Random);
        let b = Payloads::new(42, 4096, Content::Random);
        let c = Payloads::new(43, 4096, Content::Random);
        assert_eq!(a.bodies, b.bodies);
        assert_eq!(a.order, b.order);
        assert_ne!(a.bodies, c.bodies);
        assert!(a.bodies.iter().all(|b| b.len() + HEADER == 4096));
        assert_ne!(a.bodies[0], a.bodies[1]);
    }

    #[test]
    fn verifier_accepts_fifo_and_counts_each_kind_of_failure() {
        let p = Payloads::new(1, 256, Content::Random);
        let mut src = p.source();
        let mut v = Verifier::new(&[4, 2]);
        for seq in 0..4 {
            let m = src.message(0, seq).to_vec();
            assert_eq!(v.check(&p, &m), Some((0, seq)));
        }
        assert_eq!(v.failed(true), 2, "stream 1 still missing both");
        // Out of order on stream 1: exactly-once holds, FIFO does not.
        for seq in [1, 0] {
            let m = src.message(1, seq).to_vec();
            v.check(&p, &m);
        }
        assert_eq!((v.missing(), v.reordered), (0, 2));
        assert_eq!(v.failed(false), 0);
        assert_eq!(v.failed(true), 2);
        // Duplicate, corrupt body, truncated, unknown stream, unknown seq.
        let dup = src.message(0, 2).to_vec();
        v.check(&p, &dup);
        assert_eq!(v.duplicate, 1);
        let mut bad = src.message(0, 3).to_vec();
        *bad.last_mut().unwrap() ^= 1;
        v.check(&p, &bad);
        assert_eq!(v.check(&p, &bad[..5]), None);
        let far = src.message(9, 0).to_vec();
        assert_eq!(v.check(&p, &far), None);
        let late = src.message(1, 7).to_vec();
        assert_eq!(v.check(&p, &late), None);
        assert_eq!(v.corrupt, 4);
        assert_eq!(v.delivered, 11);
    }
}
