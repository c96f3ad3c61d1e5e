//! Poly1305 one-time authenticator (RFC 8439) over 64-bit limbs: the
//! accumulator and `r` in three limbs of 44, 44 and 42 bits, products in
//! `u128`. Four blocks go through one multiply-accumulate and one carry,
//! as `h = (h + m1)·r⁴ + m2·r³ + m3·r² + m4·r`, with the powers of `r`
//! computed once per key.

/// Tag size in bytes.
pub const TAG_LEN: usize = 16;
/// Key size in bytes (r || s).
pub const KEY_LEN: usize = 32;

const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;

/// A field element in three limbs, at most a few bits past 44, 44 and 42
/// after [`carry`].
type Limbs = [u64; 3];

/// A power of `r` with its limbs 1 and 2 premultiplied by 20: the factor a
/// product past 2^130 folds back with (2^132 ≡ 4·5 mod 2^130 − 5).
#[derive(Clone, Copy)]
struct Power {
    r: Limbs,
    s1: u64,
    s2: u64,
}

impl Power {
    fn new(r: Limbs) -> Power {
        Power {
            r,
            s1: r[1] * 20,
            s2: r[2] * 20,
        }
    }
}

/// Add `a · p` to the unreduced product `d`.
#[inline(always)]
fn mul_acc(d: &mut [u128; 3], a: Limbs, p: &Power) {
    let w = |x: u64, y: u64| u128::from(x) * u128::from(y);
    let [r0, r1, r2] = p.r;
    d[0] += w(a[0], r0) + w(a[1], p.s2) + w(a[2], p.s1);
    d[1] += w(a[0], r1) + w(a[1], r0) + w(a[2], p.s2);
    d[2] += w(a[0], r2) + w(a[1], r1) + w(a[2], r0);
}

/// One carry pass, folding bits past 2^130 back in times 5.
#[inline(always)]
fn carry(d: [u128; 3]) -> Limbs {
    let mut c = d[0] >> 44;
    let h0 = d[0] as u64 & MASK44;
    let d1 = d[1] + c;
    c = d1 >> 44;
    let h1 = d1 as u64 & MASK44;
    let d2 = d[2] + c;
    let h2 = d2 as u64 & MASK42;
    let h0 = h0 + (d2 >> 42) as u64 * 5;
    [h0 & MASK44, h1 + (h0 >> 44), h2]
}

fn mul(a: Limbs, p: &Power) -> Limbs {
    let mut d = [0u128; 3];
    mul_acc(&mut d, a, p);
    carry(d)
}

/// A 16-byte block as limbs, with the 2^128 pad bit when `full`.
#[inline(always)]
fn limbs(block: &[u8; 16], full: bool) -> Limbs {
    let t = u128::from_le_bytes(*block);
    [
        t as u64 & MASK44,
        (t >> 44) as u64 & MASK44,
        (t >> 88) as u64 | u64::from(full) << 40,
    ]
}

fn add(a: Limbs, b: Limbs) -> Limbs {
    [a[0] + b[0], a[1] + b[1], a[2] + b[2]]
}

/// Bytes `at..at + 16` of `bytes`.
fn block_at<const N: usize>(bytes: &[u8; N], at: usize) -> [u8; 16] {
    std::array::from_fn(|i| bytes[at + i])
}

/// Incremental Poly1305.
pub struct Poly1305 {
    /// r, r², r³, r⁴.
    powers: [Power; 4],
    h: Limbs,
    s: u128,
    buf: [u8; 16],
    buf_len: usize,
}

impl Poly1305 {
    pub fn new(key: &[u8; KEY_LEN]) -> Poly1305 {
        // Clamp r per the spec.
        let r = u128::from_le_bytes(block_at(key, 0)) & 0x0ffffffc_0ffffffc_0ffffffc_0fffffff;
        let r1 = Power::new(limbs(&r.to_le_bytes(), false));
        let r2 = Power::new(mul(r1.r, &r1));
        let r3 = Power::new(mul(r2.r, &r1));
        let r4 = Power::new(mul(r2.r, &r2));
        Poly1305 {
            powers: [r1, r2, r3, r4],
            h: [0; 3],
            s: u128::from_le_bytes(block_at(key, 16)),
            buf: [0; 16],
            buf_len: 0,
        }
    }

    /// `h = (h + m)·r` for one block.
    fn block(&mut self, block: &[u8; 16], full: bool) {
        self.h = mul(add(self.h, limbs(block, full)), &self.powers[0]);
    }

    /// Four full blocks, one carry.
    fn blocks4(&mut self, blocks: &[[u8; 16]; 4]) {
        let [r1, r2, r3, r4] = &self.powers;
        let mut d = [0u128; 3];
        mul_acc(&mut d, add(self.h, limbs(&blocks[0], true)), r4);
        mul_acc(&mut d, limbs(&blocks[1], true), r3);
        mul_acc(&mut d, limbs(&blocks[2], true), r2);
        mul_acc(&mut d, limbs(&blocks[3], true), r1);
        self.h = carry(d);
    }

    pub fn update(&mut self, mut data: &[u8]) {
        if self.buf_len > 0 {
            let take = data.len().min(16 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 16 {
                let block = self.buf;
                self.block(&block, true);
                self.buf_len = 0;
            }
        }
        let (quads, rest) = data.as_chunks::<64>();
        for quad in quads {
            let (blocks, _) = quad.as_chunks::<16>();
            let four: [[u8; 16]; 4] = std::array::from_fn(|i| blocks[i]);
            self.blocks4(&four);
        }
        let (blocks, tail) = rest.as_chunks::<16>();
        for block in blocks {
            self.block(block, true);
        }
        if !tail.is_empty() {
            self.buf[..tail.len()].copy_from_slice(tail);
            self.buf_len = tail.len();
        }
    }

    pub fn finalize(mut self) -> [u8; TAG_LEN] {
        if self.buf_len > 0 {
            let mut block = [0u8; 16];
            block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
            block[self.buf_len] = 1; // the padding 1-bit for a partial block
            self.block(&block, false);
        }
        // Full carry: h below 2^130 + a little, then fully reduced.
        let [mut h0, mut h1, mut h2] = self.h;
        for _ in 0..2 {
            h2 += h1 >> 44;
            h1 &= MASK44;
            h0 += (h2 >> 42) * 5;
            h2 &= MASK42;
            h1 += h0 >> 44;
            h0 &= MASK44;
        }
        // h + 5 − 2^130: take it when it does not underflow (h ≥ p).
        let g0 = h0 + 5;
        let g1 = h1 + (g0 >> 44);
        let g2 = (h2 + (g1 >> 44)).wrapping_sub(1 << 42);
        let take_g = (g2 >> 63).wrapping_sub(1); // all-ones if no underflow
        let pick = |h: u64, g: u64| (h & !take_g) | (g & take_g);
        let (h0, h1, h2) = (pick(h0, g0 & MASK44), pick(h1, g1 & MASK44), pick(h2, g2));
        // h mod 2^128, plus s.
        let h = u128::from(h0) | u128::from(h1) << 44 | u128::from(h2) << 88;
        h.wrapping_add(self.s).to_le_bytes()
    }
}

/// One-shot MAC.
pub fn poly1305(key: &[u8; KEY_LEN], msg: &[u8]) -> [u8; TAG_LEN] {
    let mut p = Poly1305::new(key);
    p.update(msg);
    p.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // RFC 8439 §2.5.2 test vector.
    #[test]
    fn rfc8439_vector() {
        let key: [u8; 32] =
            unhex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b")
                .try_into()
                .unwrap();
        let tag = poly1305(&key, b"Cryptographic Forum Research Group");
        assert_eq!(tag.to_vec(), unhex("a8061dc1305136c6c22b8baf0c0127a9"));
    }

    // RFC 8439 §A.3 test vector 2: r = 0 gives tag = s.
    #[test]
    fn zero_r_gives_s() {
        let mut key = [0u8; 32];
        key[16..32].copy_from_slice(&unhex("36e5f6b5c5e06070f0efca96227a863e"));
        let msg = b"Any submission to the IETF intended by the Contributor for publication as all or part of an IETF Internet-Draft or RFC and any statement made within the context of an IETF activity is considered an \"IETF Contribution\". Such statements include oral statements in IETF sessions, as well as written and electronic communications made at any time or place, which are addressed to";
        let tag = poly1305(&key, msg);
        assert_eq!(tag.to_vec(), unhex("36e5f6b5c5e06070f0efca96227a863e"));
    }

    // RFC 8439 §A.3 test vector 3.
    #[test]
    fn vector3() {
        let mut key = [0u8; 32];
        key[..16].copy_from_slice(&unhex("36e5f6b5c5e06070f0efca96227a863e"));
        let msg = b"Any submission to the IETF intended by the Contributor for publication as all or part of an IETF Internet-Draft or RFC and any statement made within the context of an IETF activity is considered an \"IETF Contribution\". Such statements include oral statements in IETF sessions, as well as written and electronic communications made at any time or place, which are addressed to";
        let tag = poly1305(&key, msg);
        assert_eq!(tag.to_vec(), unhex("f3477e7cd95417af89a6b8794c310cf0"));
    }

    // RFC 8439 §A.3 vector 7: exercises the h >= p final reduction.
    #[test]
    fn vector7_reduction_edge() {
        let mut key = [0u8; 32];
        key[..16].copy_from_slice(&unhex("01000000000000000000000000000000"));
        let msg = unhex(
            "ffffffffffffffffffffffffffffffff\
             f0ffffffffffffffffffffffffffffff\
             11000000000000000000000000000000",
        );
        let tag = poly1305(&key, &msg);
        assert_eq!(tag.to_vec(), unhex("05000000000000000000000000000000"));
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = [3u8; 32];
        let msg: Vec<u8> = (0..100u8).collect();
        let want = poly1305(&key, &msg);
        for chunk_size in [1, 5, 15, 16, 17, 33] {
            let mut p = Poly1305::new(&key);
            for c in msg.chunks(chunk_size) {
                p.update(c);
            }
            assert_eq!(p.finalize(), want, "chunk size {chunk_size}");
        }
    }
}
