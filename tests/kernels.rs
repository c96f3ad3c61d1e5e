//! Tier-1 smoke for the two compute kernels, gridzip and gridcrypt: the
//! bytes they put on the wire for one fixed input are pinned here by
//! digest, so a matcher or cipher change that moves a wire byte fails by
//! name, not through a golden trace three layers up. Faster kernels are
//! welcome; different bytes are a format change.

use std::io::{Read, Write};

use gridcrypt::{open_in_place, seal_in_place};
use gridzip::synth::{grid_payload, GRID_REDUNDANCY};
use gridzip::{CompressWriter, Compressor, DecompressReader};

const BLOCK: usize = 32 * 1024;
const RECORD: usize = 16 * 1024;

/// The `wan_integrated` payload recipe at a size of its own.
fn input() -> Vec<u8> {
    grid_payload(1 << 20, GRID_REDUNDANCY, 42)
}

fn fnv1a(digest: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(digest, |d, &b| {
        (d ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

#[test]
fn gridzip_framed_streams_are_pinned() {
    let data = input();
    // Level 1 is the paper's setting, 3 a deeper chain, 6 the deepest
    // lazy-matching rung.
    for (level, len, digest) in [
        (1u8, 505_322usize, 0x46bd_5009_e6df_df22u64),
        (3, 502_693, 0x58a2_f1c2_6fd1_c3ba),
        (6, 502_471, 0x8d13_5ff8_6f16_e4fc),
    ] {
        let mut w = CompressWriter::with_block_size(Vec::new(), level, BLOCK);
        w.write_all(&data).unwrap();
        let framed = w.finish().unwrap();
        assert_eq!(
            (framed.len(), fnv1a(FNV_SEED, &framed)),
            (len, digest),
            "level {level} framed stream (length, FNV-1a)"
        );
        let mut back = Vec::new();
        DecompressReader::new(&framed[..])
            .read_to_end(&mut back)
            .unwrap();
        assert!(back == data, "level {level} round trip");
    }
}

#[test]
fn gridzip_level1_ratio_is_exact() {
    // gridbench's `gridzip.ratio` on this input: bare level-1 blocks, one
    // reused compressor. A count, so it repeats to the digit.
    let data = input();
    let mut c = Compressor::new(1);
    let mut packed = 0usize;
    for block in data.chunks(BLOCK) {
        let mut out = Vec::new();
        packed += c.compress(block, &mut out);
    }
    assert_eq!(packed, 505_129, "level-1 compressed bytes");
    let ratio = data.len() as f64 / packed as f64;
    assert_eq!(format!("{ratio:.6}"), "2.075858", "gridzip.ratio");
}

#[test]
fn gridcrypt_sealed_records_are_pinned() {
    let data = input();
    let key: [u8; 32] = std::array::from_fn(|i| i as u8 ^ 0x5a);
    let nonce_of = |i: usize| {
        let mut n = [0u8; 12];
        n[4..].copy_from_slice(&(i as u64).to_be_bytes());
        n
    };
    let mut sealed = data.clone();
    let mut tags = Vec::new();
    let mut digest = FNV_SEED;
    for (i, rec) in sealed.chunks_mut(RECORD).enumerate() {
        let aad = [0x17, (i >> 8) as u8, i as u8];
        let tag = seal_in_place(&key, &nonce_of(i), &aad, rec);
        digest = fnv1a(fnv1a(digest, rec), &tag);
        tags.push(tag);
    }
    assert_eq!(
        digest, 0x3bfb_6859_5ef9_dcf4,
        "ciphertext and tags of 64 records, FNV-1a"
    );
    for (i, rec) in sealed.chunks_mut(RECORD).enumerate() {
        let aad = [0x17, (i >> 8) as u8, i as u8];
        open_in_place(&key, &nonce_of(i), &aad, rec, &tags[i]).expect("own tag verifies");
    }
    assert!(sealed == data, "open(seal(x)) == x");
}
