//! ChaCha20 stream cipher (RFC 8439).
//!
//! [`block`] is the RFC's block function, one state in sixteen scalars; it
//! keys Poly1305 and covers anything shorter than 1 KiB. Bulk data goes
//! through a pass that computes sixteen blocks at once, written so that
//! the compiler vectorises it on the baseline target: the crate root
//! forbids the escape hatches (per-architecture intrinsics, CPU-feature
//! attributes), so plain Rust that LLVM can widen is the only road to SIMD.
//!
//! The form that vectorises (rustc 1.95, x86-64 baseline: 0.97 ns/B
//! against 1.92 for the block function): the state lane-major,
//! `[[u32; 16]; 16]` indexed `[word][block]`, and **one loop over the
//! blocks per quarter-round**, which loads the four words of a block into
//! locals, runs the whole quarter-round on them and stores them back. It
//! needs sixteen blocks or more: the same code at four blocks runs at 1.75
//! ns/B and at eight at 1.96, no better than the block function (32 gains
//! nothing over 16). Three other portable formulations compile to scalar
//! `rol` and are slower still — do not retry them:
//!
//! * one loop over the blocks per *operation* (add, xor, rotate) rather
//!   than per quarter-round: 2.87 ns/B,
//! * quarter-round helpers taking and returning `[u32; 4]` or `[u32; 8]`
//!   lanes by value: 1.8–2.8 ns/B (measured for the issue that asked for
//!   this pass, as was the next),
//! * generating the keystream into a buffer and XOR-ing it in afterwards.

/// Key size in bytes.
pub const KEY_LEN: usize = 32;
/// Nonce size in bytes.
pub const NONCE_LEN: usize = 12;
/// Keystream block size.
pub const BLOCK_LEN: usize = 64;

#[inline(always)]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// The initial state for (key, nonce, counter), RFC 8439 §2.3.
fn initial_state(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32) -> [u32; 16] {
    let mut state = [0u32; 16];
    state[0] = 0x61707865;
    state[1] = 0x3320646e;
    state[2] = 0x79622d32;
    state[3] = 0x6b206574;
    for i in 0..8 {
        state[4 + i] =
            u32::from_le_bytes([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = u32::from_le_bytes([
            nonce[4 * i],
            nonce[4 * i + 1],
            nonce[4 * i + 2],
            nonce[4 * i + 3],
        ]);
    }
    state
}

/// Compute one 64-byte keystream block for (key, nonce, counter).
pub fn block(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32) -> [u8; BLOCK_LEN] {
    let state = initial_state(key, nonce, counter);
    let mut w = state;
    for _ in 0..10 {
        quarter_round(&mut w, 0, 4, 8, 12);
        quarter_round(&mut w, 1, 5, 9, 13);
        quarter_round(&mut w, 2, 6, 10, 14);
        quarter_round(&mut w, 3, 7, 11, 15);
        quarter_round(&mut w, 0, 5, 10, 15);
        quarter_round(&mut w, 1, 6, 11, 12);
        quarter_round(&mut w, 2, 7, 8, 13);
        quarter_round(&mut w, 3, 4, 9, 14);
    }
    let mut out = [0u8; BLOCK_LEN];
    for i in 0..16 {
        let v = w[i].wrapping_add(state[i]);
        out[4 * i..4 * i + 4].copy_from_slice(&v.to_le_bytes());
    }
    out
}

/// Blocks generated per wide pass.
const LANES: usize = 16;
/// Bytes covered by one wide pass.
const WIDE_LEN: usize = LANES * BLOCK_LEN;

/// One quarter-round on the same four words of all [`LANES`] blocks:
/// `x[word][lane]`, one loop over the lanes, the whole quarter-round of a
/// lane in locals between one load and one store.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // `l` indexes four rows of `x`, not `x`
fn quarter_round_wide(x: &mut [[u32; LANES]; 16], a: usize, b: usize, c: usize, d: usize) {
    for l in 0..LANES {
        let (mut xa, mut xb, mut xc, mut xd) = (x[a][l], x[b][l], x[c][l], x[d][l]);
        xa = xa.wrapping_add(xb);
        xd = (xd ^ xa).rotate_left(16);
        xc = xc.wrapping_add(xd);
        xb = (xb ^ xc).rotate_left(12);
        xa = xa.wrapping_add(xb);
        xd = (xd ^ xa).rotate_left(8);
        xc = xc.wrapping_add(xd);
        xb = (xb ^ xc).rotate_left(7);
        x[a][l] = xa;
        x[b][l] = xb;
        x[c][l] = xc;
        x[d][l] = xd;
    }
}

/// XOR one [`WIDE_LEN`] stretch with the keystream of blocks
/// `state[12]..state[12] + LANES` (wrapping, as the per-block counter does).
fn xor_wide(state: &[u32; 16], data: &mut [u8; WIDE_LEN]) {
    let mut x: [[u32; LANES]; 16] = std::array::from_fn(|word| [state[word]; LANES]);
    for (l, ctr) in x[12].iter_mut().enumerate() {
        *ctr = state[12].wrapping_add(l as u32);
    }
    let init = x;
    for _ in 0..10 {
        quarter_round_wide(&mut x, 0, 4, 8, 12);
        quarter_round_wide(&mut x, 1, 5, 9, 13);
        quarter_round_wide(&mut x, 2, 6, 10, 14);
        quarter_round_wide(&mut x, 3, 7, 11, 15);
        quarter_round_wide(&mut x, 0, 5, 10, 15);
        quarter_round_wide(&mut x, 1, 6, 11, 12);
        quarter_round_wide(&mut x, 2, 7, 8, 13);
        quarter_round_wide(&mut x, 3, 4, 9, 14);
    }
    for (l, blk) in data.chunks_exact_mut(BLOCK_LEN).enumerate() {
        for (word, bytes) in blk.chunks_exact_mut(4).enumerate() {
            let ks = x[word][l].wrapping_add(init[word][l]);
            let v = u32::from_le_bytes((&*bytes).try_into().expect("4 bytes")) ^ ks;
            bytes.copy_from_slice(&v.to_le_bytes());
        }
    }
}

/// XOR `data` with the keystream one [`block`] at a time, from block
/// `counter` on.
fn xor_by_blocks(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], mut counter: u32, data: &mut [u8]) {
    for chunk in data.chunks_mut(BLOCK_LEN) {
        let ks = block(key, nonce, counter);
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
        counter = counter.wrapping_add(1);
    }
}

/// XOR `data` in place with the ChaCha20 keystream starting at block
/// `initial_counter`.
pub fn xor_in_place(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    initial_counter: u32,
    data: &mut [u8],
) {
    let mut state = initial_state(key, nonce, initial_counter);
    let mut wide = data.chunks_exact_mut(WIDE_LEN);
    for stretch in &mut wide {
        xor_wide(&state, stretch.try_into().expect("WIDE_LEN bytes"));
        state[12] = state[12].wrapping_add(LANES as u32);
    }
    xor_by_blocks(key, nonce, state[12], wide.into_remainder());
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

    // RFC 8439 §2.3.2 block test vector.
    #[test]
    fn rfc8439_block() {
        let key: [u8; 32] =
            unhex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
                .try_into()
                .unwrap();
        let nonce: [u8; 12] = unhex("000000090000004a00000000").try_into().unwrap();
        let ks = block(&key, &nonce, 1);
        assert_eq!(
            ks.to_vec(),
            unhex(
                "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
                 d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
            )
        );
    }

    // RFC 8439 §2.4.2 encryption test vector.
    #[test]
    fn rfc8439_encrypt() {
        let key: [u8; 32] =
            unhex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
                .try_into()
                .unwrap();
        let nonce: [u8; 12] = unhex("000000000000004a00000000").try_into().unwrap();
        let mut data = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.".to_vec();
        xor_in_place(&key, &nonce, 1, &mut data);
        assert_eq!(
            data,
            unhex(
                "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
                 f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
                 07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
                 5af90bbf74a35be6b40b8eedf2785e42874d"
            )
        );
    }

    /// `xor_in_place` against `xor_by_blocks` from the first byte, which is
    /// `xor_in_place` as it was before the wide pass.
    fn assert_matches_block_reference(initial_counter: u32, len: usize) {
        let key: [u8; 32] = std::array::from_fn(|i| (i * 7 + 3) as u8);
        let nonce: [u8; 12] = std::array::from_fn(|i| (i * 13 + 1) as u8);
        let plain: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
        let (mut got, mut want) = (plain.clone(), plain);
        xor_in_place(&key, &nonce, initial_counter, &mut got);
        xor_by_blocks(&key, &nonce, initial_counter, &mut want);
        assert!(got == want, "counter {initial_counter:#x}, {len} bytes");
    }

    /// Every length around the 1 KiB wide pass: none, one and two passes,
    /// each alone, with whole-block tails, with a partial tail, with both.
    #[test]
    fn wide_pass_equals_block_reference_at_every_length() {
        for len in (0..=2100).chain([16 * 1024 + 17]) {
            assert_matches_block_reference(1, len);
        }
    }

    /// The block counter wraps inside a wide pass, between passes and in
    /// the tail exactly as the per-block loop wraps it.
    #[test]
    fn counter_wraps_like_the_scalar_loop() {
        for back in 0..=16 {
            for len in [64, 1024, 1024 + 64 + 5, 2100] {
                assert_matches_block_reference(u32::MAX - back, len);
            }
        }
    }

    #[test]
    fn xor_is_involution() {
        let key = [7u8; 32];
        let nonce = [9u8; 12];
        let original: Vec<u8> = (0..300u16).map(|i| i as u8).collect();
        let mut data = original.clone();
        xor_in_place(&key, &nonce, 0, &mut data);
        assert_ne!(data, original);
        xor_in_place(&key, &nonce, 0, &mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn different_nonces_differ() {
        let key = [1u8; 32];
        let a = block(&key, &[0u8; 12], 0);
        let mut n = [0u8; 12];
        n[0] = 1;
        let b = block(&key, &n, 0);
        assert_ne!(a, b);
    }
}
