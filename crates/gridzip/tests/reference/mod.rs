//! The LZSS matcher as it stood before the stamped-table rewrite, kept
//! verbatim as a test-only reference: `tests/prop.rs` requires the shipped
//! [`gridzip::Compressor`] to equal this one byte for byte. Clears a 256 KiB
//! head and a chain per block and compares one byte at a time — slow, and
//! the definition of the wire format's encoder choices.

const MIN_MATCH: usize = 4;
const WINDOW: usize = 65535;

const HASH_BITS: u32 = 16;
const HASH_SIZE: usize = 1 << HASH_BITS;
/// Sentinel for "no entry" in the hash table / chain.
const NIL: u32 = u32::MAX;

/// Search effort per compression level 1..=9 (chain depth).
fn depth_for_level(level: u8) -> u32 {
    match level.clamp(1, 9) {
        1 => 4,
        2 => 8,
        3 => 16,
        4 => 32,
        5 => 64,
        6 => 128,
        7 => 256,
        8 => 1024,
        _ => 4096,
    }
}

fn lazy_for_level(level: u8) -> bool {
    level >= 4
}

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Reusable compressor state (hash table + chains), so repeated block
/// compression does not reallocate.
pub struct Compressor {
    level: u8,
    head: Vec<u32>,
    chain: Vec<u32>,
}

impl Compressor {
    pub fn new(level: u8) -> Compressor {
        Compressor {
            level: level.clamp(1, 9),
            head: vec![NIL; HASH_SIZE],
            chain: Vec::new(),
        }
    }

    /// Compress one independent block. Output is appended to `out`; returns
    /// the number of bytes appended.
    pub fn compress(&mut self, data: &[u8], out: &mut Vec<u8>) -> usize {
        let start_len = out.len();
        self.head.fill(NIL);
        self.chain.clear();
        self.chain.resize(data.len(), NIL);

        let depth = depth_for_level(self.level);
        let lazy = lazy_for_level(self.level);
        let n = data.len();
        let mut i = 0usize;
        let mut lit_start = 0usize;

        // Matches can only start where 4 bytes remain.
        let hash_limit = n.saturating_sub(MIN_MATCH - 1);

        #[inline]
        fn insert(data: &[u8], head: &mut [u32], chain: &mut [u32], hash_limit: usize, pos: usize) {
            if pos < hash_limit {
                let h = hash4(data, pos);
                chain[pos] = head[h];
                head[h] = pos as u32;
            }
        }

        // Invariant: every position < i has been inserted exactly once, and
        // position i is inserted only after it has been searched (so a
        // position never matches itself).
        while i < hash_limit {
            let (mlen, moff) = find_match(data, i, &self.head, &self.chain, depth);
            insert(data, &mut self.head, &mut self.chain, hash_limit, i);
            if mlen < MIN_MATCH {
                i += 1;
                continue;
            }
            let (mut mlen, mut moff) = (mlen, moff);
            let mut mstart = i;
            // Lazy matching: if the next position has a strictly longer
            // match, emit this byte as a literal instead.
            if lazy && i + 1 < hash_limit {
                let (nlen, noff) = find_match(data, i + 1, &self.head, &self.chain, depth);
                if nlen > mlen {
                    mstart = i + 1;
                    mlen = nlen;
                    moff = noff;
                }
            }
            emit_sequence(out, &data[lit_start..mstart], Some((moff, mlen)));
            let end = mstart + mlen;
            let mut p = i + 1; // i itself is already inserted
            while p < end {
                insert(data, &mut self.head, &mut self.chain, hash_limit, p);
                p += 1;
            }
            i = end;
            lit_start = end;
        }
        // Trailing literals.
        emit_sequence(out, &data[lit_start..], None);
        out.len() - start_len
    }
}

fn find_match(data: &[u8], i: usize, head: &[u32], chain: &[u32], depth: u32) -> (usize, usize) {
    let n = data.len();
    if i + MIN_MATCH > n {
        return (0, 0);
    }
    let mut best_len = 0usize;
    let mut best_off = 0usize;
    let mut cand = head[hash4(data, i)];
    let max_len = n - i;
    let min_pos = i.saturating_sub(WINDOW);
    let mut tries = depth;
    while cand != NIL && tries > 0 {
        let c = cand as usize;
        if c < min_pos || c >= i {
            break;
        }
        // Quick reject on the byte past the current best.
        if best_len == 0 || (i + best_len < n && data[c + best_len] == data[i + best_len]) {
            let mut l = 0usize;
            while l < max_len && data[c + l] == data[i + l] {
                l += 1;
            }
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
