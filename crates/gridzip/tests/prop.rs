//! Property-based tests: compression must be lossless for every input.

use gridzip::MAX_LEVEL;
use proptest::prelude::*;
use std::io::{Read, Write};

mod reference;

/// Cut `data` into consecutive blocks whose lengths cycle through `cuts`
/// (each either a tiny or a large size, so 1–3 byte blocks and 100 KB
/// blocks both occur), at most 32 blocks, the last taking the rest.
fn cut_blocks<'a>(data: &'a [u8], cuts: &[(bool, usize, usize)]) -> Vec<&'a [u8]> {
    let mut blocks = Vec::new();
    let mut rest = data;
    for &(tiny, small, large) in cuts.iter().cycle().take(31) {
        let (block, tail) = rest.split_at(rest.len().min(if tiny { small } else { large }));
        blocks.push(block);
        rest = tail;
    }
    blocks.push(rest);
    blocks
}

/// One shipped `Compressor` and one reference compressor, each reused
/// across every block of the case, must emit the same bytes block by block.
fn same_as_reference(level: u8, blocks: &[&[u8]]) -> Result<(), TestCaseError> {
    let mut ours = gridzip::Compressor::new(level);
    let mut theirs = reference::Compressor::new(level);
    for (k, block) in blocks.iter().enumerate() {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        ours.compress(block, &mut a);
        theirs.compress(block, &mut b);
        prop_assert!(
            a == b,
            "level {level}, block {k} of {} bytes differs",
            block.len()
        );
    }
    Ok(())
}

proptest! {
    // A byte-equality property is cheap to check and thin at 64 cases; the
    // vendored proptest reads no environment variable, so the count is here.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes over an alphabet of arbitrary size (small alphabets
    /// are dense in matches and long chains, 256 symbols nearly free of
    /// them), every level, one compressor across all blocks.
    #[test]
    fn compressor_equals_reference(
        raw in proptest::collection::vec(any::<u8>(), 0..100_000),
        alphabet in 1u16..=256,
        cuts in proptest::collection::vec((any::<bool>(), 1usize..=64, 1usize..=100_000), 1..6),
        level in 1..=MAX_LEVEL,
    ) {
        let data: Vec<u8> = raw.iter().map(|&b| (b as u16 % alphabet) as u8).collect();
        same_as_reference(level, &cut_blocks(&data, &cuts))?;
    }

    /// Repeated short patterns: overlapping matches, maximal match lengths
    /// and every candidate of a chain agreeing on the first word.
    #[test]
    fn compressor_equals_reference_repetitive(
        pattern in proptest::collection::vec(any::<u8>(), 1..24),
        reps in 1usize..6000,
        cuts in proptest::collection::vec((any::<bool>(), 1usize..=64, 1usize..=100_000), 1..6),
        level in 1..=MAX_LEVEL,
    ) {
        let data: Vec<u8> = pattern.iter().cycle().take(pattern.len() * reps).copied().collect();
        same_as_reference(level, &cut_blocks(&data, &cuts))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round-trip identity at every compression level, arbitrary bytes.
    #[test]
    fn lzss_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..20_000), level in 1..=MAX_LEVEL) {
        let mut c = gridzip::Compressor::new(level);
        let mut out = Vec::new();
        c.compress(&data, &mut out);
        let back = gridzip::decompress(&out, data.len()).unwrap();
        prop_assert_eq!(back, data);
    }

    /// Repetitive inputs (worst case for match-finding bugs).
    #[test]
    fn lzss_roundtrip_repetitive(
        pattern in proptest::collection::vec(any::<u8>(), 1..8),
        reps in 1usize..4000,
        level in 1..=MAX_LEVEL,
    ) {
        let data: Vec<u8> = pattern.iter().cycle().take(pattern.len() * reps).copied().collect();
        let mut c = gridzip::Compressor::new(level);
        let mut out = Vec::new();
        c.compress(&data, &mut out);
        prop_assert_eq!(gridzip::decompress(&out, data.len()).unwrap(), data);
    }

    /// The streaming writer/reader preserves bytes across arbitrary write
    /// chunkings, block sizes and levels.
    #[test]
    fn stream_roundtrip(
        data in proptest::collection::vec(any::<u8>(), 0..40_000),
        block in 64usize..4096,
        chunk in 1usize..5000,
        level in 1..=MAX_LEVEL,
    ) {
        let mut w = gridzip::CompressWriter::with_block_size(Vec::new(), level, block);
        for piece in data.chunks(chunk) {
            w.write_all(piece).unwrap();
        }
        let framed = w.finish().unwrap();
        let mut r = gridzip::DecompressReader::new(std::io::Cursor::new(framed));
        let mut back = Vec::new();
        r.read_to_end(&mut back).unwrap();
        prop_assert_eq!(back, data);
    }

    /// Decoding never panics on arbitrary garbage and never exceeds the
    /// declared bound.
    #[test]
    fn decoder_is_total(garbage in proptest::collection::vec(any::<u8>(), 0..4000)) {
        if let Ok(out) = gridzip::decompress(&garbage, 8192) {
            prop_assert!(out.len() <= 8192);
        }
    }

    /// Varint round-trip.
    #[test]
    fn varint_roundtrip(v in any::<u64>()) {
        let mut buf = Vec::new();
        gridzip::varint::put(&mut buf, v);
        let (got, used) = gridzip::varint::get(&buf).unwrap();
        prop_assert_eq!(got, v);
        prop_assert_eq!(used, buf.len());
    }
}
