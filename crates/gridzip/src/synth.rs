//! Synthetic workload generation with tunable compressibility.
//!
//! The paper's Fig. 9 shows zlib level-1 roughly doubling effective WAN
//! bandwidth on their application data (3.25 MB/s through a 1.6 MB/s link ≈
//! 2:1). Since the original traces are not available, benchmarks use this
//! generator: a mix of draws from a small phrase dictionary (compressible)
//! and fresh random bytes (incompressible). The `redundancy` knob moves the
//! achieved ratio continuously; `grid_payload(len, GRID_REDUNDANCY, seed)`
//! is calibrated so LZSS level 1 lands near the paper's ≈2.2:1.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Redundancy calibrated to give ≈2.2:1 at level 1 (see
/// `synth::tests::grid_payload_hits_target_ratio`).
pub const GRID_REDUNDANCY: f64 = 0.52;

/// Generate `len` bytes with the given `redundancy` in `[0, 1]`:
/// 0 → pure random (incompressible), 1 → pure dictionary repeats.
pub fn grid_payload(len: usize, redundancy: f64, seed: u64) -> Vec<u8> {
    assert!((0.0..=1.0).contains(&redundancy));
    let mut rng = StdRng::seed_from_u64(seed);
    // Small dictionary of "field names / repeated records" as a grid
    // application's object stream would contain.
    let dict: Vec<Vec<u8>> = (0..48)
        .map(|_| {
            let n = rng.random_range(12..40);
            (0..n).map(|_| rng.random_range(b'a'..=b'z')).collect()
        })
        .collect();
    let mut out = Vec::with_capacity(len + 64);
    while out.len() < len {
        if rng.random::<f64>() < redundancy {
            let p = &dict[rng.random_range(0..dict.len())];
            out.extend_from_slice(p);
        } else {
            let n = rng.random_range(6..24);
            for _ in 0..n {
                out.push(rng.random());
            }
        }
    }
    out.truncate(len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Compression ratio of a payload (input/output).
    fn measure_ratio(data: &[u8], level: u8) -> f64 {
        let mut c = crate::Compressor::new(level);
        let mut out = Vec::new();
        c.compress(data, &mut out);
        data.len() as f64 / out.len() as f64
    }

    #[test]
    fn redundancy_moves_ratio_monotonically() {
        let r0 = measure_ratio(&grid_payload(200_000, 0.0, 1), 1);
        let r5 = measure_ratio(&grid_payload(200_000, 0.5, 1), 1);
        let r9 = measure_ratio(&grid_payload(200_000, 0.95, 1), 1);
        assert!(r0 < 1.1, "pure random ≈ incompressible: {r0:.2}");
        assert!(
            r5 > r0,
            "more redundancy, more compression: {r5:.2} vs {r0:.2}"
        );
        assert!(r9 > r5, "{r9:.2} vs {r5:.2}");
    }

    #[test]
    fn grid_payload_hits_target_ratio() {
        // The Fig. 9 calibration: level-1 ratio in [1.9, 2.6].
        let data = grid_payload(1 << 20, GRID_REDUNDANCY, 42);
        let r = measure_ratio(&data, 1);
        assert!(
            (1.9..=2.6).contains(&r),
            "grid payload should compress ≈2.2:1 at level 1, got {r:.2}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(grid_payload(10_000, 0.5, 7), grid_payload(10_000, 0.5, 7));
        assert_ne!(grid_payload(10_000, 0.5, 7), grid_payload(10_000, 0.5, 8));
    }

    #[test]
    fn exact_length() {
        for len in [0, 1, 13, 1000] {
            assert_eq!(grid_payload(len, 0.5, 1).len(), len);
        }
    }
}
