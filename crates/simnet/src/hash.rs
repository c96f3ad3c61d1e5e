//! The hasher for the tables a packet or socket call looks up (connections,
//! conntrack, NAT, sockets): their keys are ids and addresses the simulation
//! hands out itself, so SipHash's defence against chosen keys buys nothing.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

/// Multiply-rotate hashing, one word per integer field (rustc's FxHash).
#[derive(Default, Clone, Copy)]
pub struct FastHasher(u64);

impl FastHasher {
    /// Mix one word in: the whole cost of hashing an integer field.
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// Each integer width as one word, not through std's byte-slice default.
macro_rules! one_word {
    ($($write:ident: $int:ty),*) => {
        $(#[inline] fn $write(&mut self, n: $int) { self.add(n as u64) })*
    };
}

impl Hasher for FastHasher {
    /// Zero-padded words, then the length: `[1]` and `[1, 0]` differ.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        self.add(bytes.len() as u64);
    }
    one_word!(write_u8: u8, write_u16: u16, write_u32: u32, write_u64: u64, write_usize: usize);
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hashed(f: impl FnOnce(&mut FastHasher)) -> u64 {
        let mut h = FastHasher::default();
        f(&mut h);
        h.finish()
    }

    /// An integer is one multiply-rotate step of its value, whatever its
    /// width; the byte loop std falls back to without these methods takes
    /// a second step for the length, so a missing override shows here.
    #[test]
    fn an_integer_is_one_step_of_its_value() {
        for x in [0u32, 1, 0x0a00_0001, u32::MAX] {
            let one_step = hashed(|h| h.add(x.into()));
            assert_eq!(hashed(|h| h.write_u32(x)), one_step);
            assert_eq!(hashed(|h| h.write_u64(x.into())), one_step);
            assert_eq!(hashed(|h| h.write_usize(x as usize)), one_step);
            assert_ne!(hashed(|h| h.write(&x.to_ne_bytes())), one_step);
        }
        let port = 8080u16;
        assert_eq!(
            hashed(|h| h.write_u16(port)),
            hashed(|h| h.add(port.into()))
        );
        assert_eq!(hashed(|h| h.write_u8(7)), hashed(|h| h.add(7)));
        assert_ne!(hashed(|h| h.write(&[1])), hashed(|h| h.write(&[1, 0])));
    }
}
