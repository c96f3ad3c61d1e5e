//! LZSS block compression with hash-chain match search.
//!
//! Byte-aligned token format (LZ4-style):
//!
//! ```text
//! sequence := token literals* (offset match_ext*)?
//! token    := 1 byte: high nibble = literal count, low nibble = match length - MIN_MATCH
//!             value 15 in either nibble means "extended": following bytes of
//!             255 add 255 each, the first byte < 255 terminates.
//! offset   := u16 little endian, 1..=65535, distance back into the window
//! ```
//!
//! The final sequence of a block carries only literals (no offset/match).
//!
//! The `level` parameter (1..=[`MAX_LEVEL`]) trades CPU for ratio exactly
//! as the paper describes for zlib (§4.3: "higher levels consumed much more
//! CPU time for only a limited gain"): it controls the hash-chain search
//! depth and enables lazy matching from level 4.
//!
//! ## The stamped match table
//!
//! Blocks are independent, yet one [`Compressor`] compresses thousands of
//! them, and clearing its 256 KiB hash head and its chain before each
//! (12 bytes of `memset` per input byte at 32 KiB blocks) cost more than
//! some of the matching. Instead both tables hold *stamps*, `base + pos`,
//! and `base` moves up by the block length after every block, so whatever
//! earlier blocks left behind reads as empty. Two invariants carry this:
//!
//! * **an entry `< base` is empty** — stamps only grow, and every stamp of
//!   an earlier block is below the current `base`; when `base` would pass
//!   `u32::MAX` the head is filled with 0 once and `base` restarts at 1;
//! * **`chain[p]` is written before it can be read** — a chain is entered
//!   from `head` and followed link by link, which only ever lands on
//!   positions inserted in this block, and inserting `p` writes
//!   `chain[p]`. So the chain is never cleared at all.
//!
//! A candidate is tested on its first four bytes as one word (it shares
//! the hash, so it almost always passes) and extended eight bytes at a
//! time. A candidate that fails the word test could only have been a
//! match shorter than [`MIN_MATCH`], which the encoder never emits, so the
//! output is byte for byte what the byte-at-a-time search chose;
//! `tests/prop.rs` holds that search as a reference and compares.
//! (Reading the bucket a few positions ahead to warm the cache was tried
//! and lost 2–10 %: the tables sit in L2 and the loads already overlap.)

use std::fmt;

/// Minimum match length that pays for its encoding.
const MIN_MATCH: usize = 4;
/// Window size (maximum match offset).
const WINDOW: usize = 65535;

const HASH_BITS: u32 = 16;
const HASH_SIZE: usize = 1 << HASH_BITS;

/// The deepest compression level; [`Compressor::new`] clamps to
/// `1..=MAX_LEVEL`.
pub const MAX_LEVEL: u8 = 6;

/// Search effort (chain depth) per level, as clamped by [`Compressor`].
fn depth_for_level(level: u8) -> u32 {
    match level {
        1 => 4,
        2 => 8,
        3 => 16,
        4 => 32,
        5 => 64,
        _ => 128,
    }
}

fn lazy_for_level(level: u8) -> bool {
    level >= 4
}

/// The four bytes at `i` as one little-endian word.
#[inline(always)]
fn word4(data: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(data[i..i + 4].try_into().expect("4 bytes"))
}

#[inline(always)]
fn hash_of(word: u32) -> usize {
    (word.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Error decoding a compressed block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptBlock(pub &'static str);

impl fmt::Display for CorruptBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "corrupt gridzip block: {}", self.0)
    }
}

impl std::error::Error for CorruptBlock {}

impl From<CorruptBlock> for std::io::Error {
    fn from(e: CorruptBlock) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// Reusable compressor state (hash table + chains), so repeated block
/// compression neither reallocates nor clears.
pub struct Compressor {
    level: u8,
    /// Per hash bucket, the stamp `base + pos` of the latest position
    /// inserted; anything below `base` is empty.
    head: Box<[u32; HASH_SIZE]>,
    /// Per position of the current block, the stamp its bucket held before
    /// it. Never cleared: `chain[p]` is written when `p` is inserted, and
    /// only inserted positions are ever followed.
    chain: Vec<u32>,
    /// Stamp of position 0 of the next block; always >= 1.
    base: u32,
}

impl Compressor {
    pub fn new(level: u8) -> Compressor {
        Compressor::with_base(level, 1)
    }

    fn with_base(level: u8, base: u32) -> Compressor {
        Compressor {
            level: level.clamp(1, MAX_LEVEL),
            head: vec![0; HASH_SIZE]
                .into_boxed_slice()
                .try_into()
                .expect("HASH_SIZE entries"),
            chain: Vec::new(),
            base,
        }
    }

    /// Compress one independent block. Output is appended to `out`; returns
    /// the number of bytes appended.
    pub fn compress(&mut self, data: &[u8], out: &mut Vec<u8>) -> usize {
        let start_len = out.len();
        let n = data.len();
        assert!(n < u32::MAX as usize, "block too large for u32 positions");
        // This block's stamps are base..base + n, and the next block starts
        // at base + n: when that would pass u32::MAX, start a new epoch.
        if n as u64 + self.base as u64 > u32::MAX as u64 {
            self.head.fill(0);
            self.base = 1;
        }
        if self.chain.len() < n {
            self.chain.resize(n, 0);
        }
        let base = self.base;
        let head = &mut *self.head;
        let chain = &mut self.chain[..n];

        let depth = depth_for_level(self.level);
        let lazy = lazy_for_level(self.level);
        let mut i = 0usize;
        let mut lit_start = 0usize;

        // Matches can only start where 4 bytes remain.
        let hash_limit = n.saturating_sub(MIN_MATCH - 1);

        // Invariant: every position < i has been inserted exactly once, and
        // position i is inserted only after it has been searched (so a
        // position never matches itself).
        while i < hash_limit {
            let word = word4(data, i);
            let h = hash_of(word);
            let (mlen, moff) = find_match(data, i, word, head[h], chain, base, depth);
            chain[i] = head[h];
            head[h] = base + i as u32;
            if mlen < MIN_MATCH {
                i += 1;
                continue;
            }
            let (mut mlen, mut moff) = (mlen, moff);
            let mut mstart = i;
            // Lazy matching: if the next position has a strictly longer
            // match, emit this byte as a literal instead.
            if lazy && i + 1 < hash_limit {
                let word = word4(data, i + 1);
                let (nlen, noff) =
                    find_match(data, i + 1, word, head[hash_of(word)], chain, base, depth);
                if nlen > mlen {
                    mstart = i + 1;
                    mlen = nlen;
                    moff = noff;
                }
            }
            emit_sequence(out, &data[lit_start..mstart], Some((moff, mlen)));
            let end = mstart + mlen;
            // i itself is already inserted; the rest of the match is not.
            let last = end.min(hash_limit);
            let stamps = base + (i + 1) as u32..;
            let links = &mut chain[i + 1..last];
            for ((w, link), stamp) in data[i + 1..last + 3].windows(4).zip(links).zip(stamps) {
                let h = hash_of(u32::from_le_bytes(w.try_into().expect("4 bytes")));
                *link = head[h];
                head[h] = stamp;
            }
            i = end;
            lit_start = end;
        }
        // Trailing literals.
        emit_sequence(out, &data[lit_start..], None);
        self.base += n as u32;
        out.len() - start_len
    }
}

/// Longest match for position `i` (whose first four bytes are `word`) among
/// the first `depth` candidates of the chain starting at stamp `cand`, as
/// `(length, offset)`; the earliest candidate wins a tie. Candidates that
/// do not share all of `word` are passed over, so a match shorter than
/// [`MIN_MATCH`] is reported as `(0, 0)`. Requires `i + MIN_MATCH <= n`.
#[inline(always)]
fn find_match(
    data: &[u8],
    i: usize,
    word: u32,
    mut cand: u32,
    chain: &[u32],
    base: u32,
    depth: u32,
) -> (usize, usize) {
    let max_len = data.len() - i;
    let min_pos = i.saturating_sub(WINDOW);
    let mut best_len = 0usize;
    let mut best_off = 0usize;
    let mut tries = depth;
    while cand >= base && tries > 0 {
        let c = (cand - base) as usize;
        if c < min_pos || c >= i {
            break;
        }
        // Only a candidate that also agrees on the byte past the current
        // best can beat it.
        if word4(data, c) == word && (best_len == 0 || data[c + best_len] == data[i + best_len]) {
            let l = MIN_MATCH + common_prefix(&data[c + MIN_MATCH..], &data[i + MIN_MATCH..]);
            if l > best_len {
                best_len = l;
                best_off = i - c;
                if l >= max_len {
                    break;
                }
            }
        }
        cand = chain[c];
        tries -= 1;
    }
    (best_len, best_off)
}

/// Length of the common prefix of `a` and `b`, bounded by `b` (the later,
/// shorter slice), eight bytes at a time.
#[inline(always)]
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut l = 0usize;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let x = u64::from_le_bytes(x.try_into().expect("8 bytes"));
        let y = u64::from_le_bytes(y.try_into().expect("8 bytes"));
        let diff = x ^ y;
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < b.len() && a[l] == b[l] {
        l += 1;
    }
    l
}

fn put_ext(out: &mut Vec<u8>, mut v: usize) {
    while v >= 255 {
        out.push(255);
        v -= 255;
    }
    out.push(v as u8);
}

fn emit_sequence(out: &mut Vec<u8>, literals: &[u8], m: Option<(usize, usize)>) {
    let lit = literals.len();
    let lit_nib = lit.min(15) as u8;
    let (match_nib, ext_match) = match m {
        Some((_, mlen)) => {
            let v = mlen - MIN_MATCH;
            (v.min(15) as u8, if v >= 15 { Some(v - 15) } else { None })
        }
        None => (0, None),
    };
    out.push((lit_nib << 4) | match_nib);
    if lit >= 15 {
        put_ext(out, lit - 15);
    }
    out.extend_from_slice(literals);
    if let Some((off, _)) = m {
        debug_assert!((1..=WINDOW).contains(&off));
        out.extend_from_slice(&(off as u16).to_le_bytes());
        if let Some(e) = ext_match {
            put_ext(out, e);
        }
    }
}

fn get_ext(input: &[u8], pos: &mut usize, base: usize) -> Result<usize, CorruptBlock> {
    let mut v = base;
    loop {
        let b = *input.get(*pos).ok_or(CorruptBlock("truncated extension"))?;
        *pos += 1;
        v += b as usize;
        if b != 255 {
            return Ok(v);
        }
    }
}

/// Most output bytes one input byte can stand for: a match-length
/// extension byte of 255.
const MAX_EXPANSION: usize = 255;

/// Decompress a block produced by [`Compressor::compress`]. `max_len` bounds
/// the output (protects against decompression bombs / corrupt input).
pub fn decompress(input: &[u8], max_len: usize) -> Result<Vec<u8>, CorruptBlock> {
    if input.is_empty() {
        return Err(CorruptBlock("empty input"));
    }
    // Sized once, from what the input at hand could decode to and never
    // from `max_len` alone, which may be a length the peer merely declared.
    let mut out = Vec::with_capacity(max_len.min(input.len().saturating_mul(MAX_EXPANSION)));
    let mut pos = 0usize;
    loop {
        // A well-formed block always ends with a literals-only sequence, so
        // running out of input after a match is corruption.
        let Some(&token) = input.get(pos) else {
            return Err(CorruptBlock("missing final literal sequence"));
        };
        pos += 1;
        let mut lit = (token >> 4) as usize;
        if lit == 15 {
            lit = get_ext(input, &mut pos, 15)?;
        }
        if pos + lit > input.len() {
            return Err(CorruptBlock("literal run past end"));
        }
        if out.len() + lit > max_len {
            return Err(CorruptBlock("output exceeds declared size"));
        }
        out.extend_from_slice(&input[pos..pos + lit]);
        pos += lit;
        if pos == input.len() {
            return Ok(out); // final literal-only sequence
        }
        if pos + 2 > input.len() {
            return Err(CorruptBlock("truncated offset"));
        }
        let off = u16::from_le_bytes([input[pos], input[pos + 1]]) as usize;
        pos += 2;
        if off == 0 || off > out.len() {
            return Err(CorruptBlock("offset out of range"));
        }
        let mut mlen = (token & 0x0f) as usize;
        if mlen == 15 {
            mlen = get_ext(input, &mut pos, 15)?;
        }
        let mlen = mlen + MIN_MATCH;
        if out.len() + mlen > max_len {
            return Err(CorruptBlock("match exceeds declared size"));
        }
        // The source may run into the bytes being written (off < mlen:
        // run-length style); each pass then copies everything from `start`
        // to the end so far, doubling the period.
        let start = out.len() - off;
        let end = out.len() + mlen;
        while out.len() < end {
            let take = (out.len() - start).min(end - out.len());
            out.extend_from_within(start..start + take);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(level: u8, data: &[u8]) -> usize {
        let mut c = Compressor::new(level);
        let mut out = Vec::new();
        let n = c.compress(data, &mut out);
        assert_eq!(n, out.len());
        let back = decompress(&out, data.len()).unwrap();
        assert_eq!(back, data, "roundtrip mismatch at level {level}");
        out.len()
    }

    #[test]
    fn empty_and_tiny_inputs() {
        for level in [1, 5, MAX_LEVEL] {
            roundtrip(level, b"");
            roundtrip(level, b"a");
            roundtrip(level, b"abc");
            roundtrip(level, b"abcd");
        }
    }

    #[test]
    fn highly_repetitive_compresses_hard() {
        let data = vec![b'x'; 100_000];
        let n = roundtrip(1, &data);
        assert!(n < 1000, "run of 100k identical bytes -> {n} bytes");
    }

    #[test]
    fn random_data_expands_only_slightly() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let data: Vec<u8> = (0..50_000).map(|_| rng.random()).collect();
        let n = roundtrip(3, &data);
        assert!(
            n < data.len() + data.len() / 16,
            "incompressible expansion bounded: {n}"
        );
    }

    #[test]
    fn text_like_data_reaches_2x() {
        let phrase = b"the quick brown fox jumps over the lazy dog; \
                       pack my box with five dozen liquor jugs. ";
        let mut data = Vec::new();
        while data.len() < 200_000 {
            data.extend_from_slice(phrase);
        }
        let n = roundtrip(1, &data);
        assert!(
            (n as f64) < data.len() as f64 / 2.0,
            "repeated text should beat 2:1 even at level 1: {} -> {}",
            data.len(),
            n
        );
    }

    #[test]
    fn higher_levels_never_worse_on_structured_data() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        // Structured: limited alphabet with repeats.
        let words: Vec<Vec<u8>> = (0..64)
            .map(|_| {
                (0..rng.random_range(3..10))
                    .map(|_| rng.random_range(b'a'..=b'z'))
                    .collect()
            })
            .collect();
        let mut data = Vec::new();
        while data.len() < 100_000 {
            data.extend_from_slice(&words[rng.random_range(0..words.len())]);
            data.push(b' ');
        }
        let n1 = roundtrip(1, &data);
        let top = roundtrip(MAX_LEVEL, &data);
        assert!(
            top <= n1,
            "level {MAX_LEVEL} ({top}) must not lose to level 1 ({n1})"
        );
    }

    #[test]
    fn long_matches_use_extension_bytes() {
        // One literal, then a >270-byte match: exercises extended match
        // length encoding.
        let mut data = vec![7u8];
        data.extend(std::iter::repeat_n(7u8, 1000));
        roundtrip(1, &data);
    }

    #[test]
    fn overlapping_match_rle() {
        // "ababab..." forces offset 2 < match length (overlapping copy).
        let data: Vec<u8> = std::iter::repeat_n(*b"ab", 5000)
            .flat_map(|p| p.into_iter())
            .collect();
        let n = roundtrip(2, &data);
        assert!(n < 200);
    }

    #[test]
    fn corrupt_inputs_are_rejected_not_panicking() {
        let mut c = Compressor::new(1);
        let mut out = Vec::new();
        c.compress(b"hello hello hello hello hello", &mut out);
        // Truncations at every point must error, never panic.
        for cut in 0..out.len() {
            let _ = decompress(&out[..cut], 1 << 16);
        }
        // Bit flips must error or produce output no longer than the bound.
        for i in 0..out.len() {
            let mut bad = out.clone();
            bad[i] ^= 0xff;
            if let Ok(v) = decompress(&bad, 64) {
                assert!(v.len() <= 64);
            }
        }
    }

    #[test]
    fn decompression_bomb_is_bounded() {
        let data = vec![0u8; 1 << 20];
        let mut c = Compressor::new(MAX_LEVEL);
        let mut out = Vec::new();
        c.compress(&data, &mut out);
        // Declaring a smaller bound must fail, not allocate 1 MiB.
        assert!(decompress(&out, 1024).is_err());
    }

    /// Text with enough repeats that every block has matches to find.
    fn phrases(seed: u8, len: usize) -> Vec<u8> {
        (0..len)
            .map(|k| b"stamped hash table "[(k + (k / 97) * seed as usize) % 19])
            .collect()
    }

    #[test]
    fn epoch_rollover_compresses_like_a_fresh_compressor() {
        // Start a few KiB short of the stamp space: the first blocks fit,
        // one straddles u32::MAX and triggers the reset, the rest follow it.
        for level in [1, 4, MAX_LEVEL] {
            let mut c = Compressor::with_base(level, u32::MAX - 5000);
            let mut resets = 0;
            for k in 0..8u8 {
                let block = phrases(k, 1500 + 100 * k as usize);
                let before = c.base;
                let mut got = Vec::new();
                c.compress(&block, &mut got);
                resets += (c.base < before) as u32;
                let mut want = Vec::new();
                Compressor::new(level).compress(&block, &mut want);
                assert_eq!(got, want, "level {level}, block {k}");
                assert_eq!(decompress(&got, block.len()).unwrap(), block);
            }
            assert_eq!(resets, 1, "the run crosses u32::MAX exactly once");
        }
    }

    #[test]
    fn blocks_too_short_to_hash_still_advance_the_epoch() {
        let long = phrases(3, 4000);
        let mut c = Compressor::new(1);
        let mut want = Vec::new();
        Compressor::new(1).compress(&long, &mut want);
        for tiny in [&b""[..], b"a", b"ab", b"abc"] {
            let before = c.base;
            let mut out = Vec::new();
            c.compress(tiny, &mut out);
            assert_eq!(decompress(&out, tiny.len()).unwrap(), tiny);
            assert_eq!(c.base, before + tiny.len() as u32);
            // And the next real block sees none of it.
            let mut got = Vec::new();
            c.compress(&long, &mut got);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn decode_buffer_is_sized_by_the_input_not_by_the_bound() {
        let mut packed = Vec::new();
        Compressor::new(1).compress(b"abc", &mut packed);
        let out = decompress(&packed, 16 << 20).unwrap();
        assert_eq!(out, b"abc");
        assert!(out.capacity() <= packed.len() * MAX_EXPANSION);
    }

    #[test]
    fn compressor_is_reusable_across_blocks() {
        let mut c = Compressor::new(3);
        for i in 0..10u8 {
            let block = vec![i; 10_000];
            let mut out = Vec::new();
            c.compress(&block, &mut out);
            assert_eq!(decompress(&out, block.len()).unwrap(), block);
        }
    }
}
